//! The layer ladder: one seeded statement corpus per workload, driven in
//! batches through each layer's public entry in turn, bottom rung first.
//! Every rung runs the same batches on its own private copy of the seeded
//! database, so the rungs differ only by the layers stacked on top; a
//! rung's span is recorded as the child of the same batch's span one rung
//! up, and a layer's self time is its span minus that child.
//!
//! Beside the ladder sit a few direct measurements of single mechanisms
//! (copy-on-write commit, snapshot, fused `IN` probe, thunk force, sleep
//! overshoot, result-cache hit and miss) that no rung isolates.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::stats::{self, Rng};
use crate::surface::{
    entity, normalize, parse, parse_program, prepare_with_schema, sqlgen, ColumnType, DataLayer,
    Database, Dispatcher, EntityDef, ExecStrategy, HttpRequest, OptFlags, Prepared, QueryStore,
    Router, Schema, Session, SimEnv, Thunk, Value,
};
use crate::trace::Trace;
use crate::workload::{self, Setup};

/// Statement kinds, in the order of [`CorpusSpec::weights`].
const PK: usize = 0;
const ASSOC: usize = 1;
const COUNT: usize = 2;
const UPDATE: usize = 3;
const INSERT: usize = 4;

/// What a workload's pages ask of the database, as proportions of the
/// five statement shapes `sqlgen` writes, over the workload's own tables.
struct CorpusSpec {
    weights: [u64; 5],
    /// `(entity, largest key)` for primary-key lookups.
    pk: &'static [(&'static str, i64)],
    /// `(entity, column, largest value)` for association lookups.
    assoc: &'static [(&'static str, &'static str, i64)],
    count: &'static [(&'static str, &'static str, i64)],
    /// `(entity, column, largest key)`; the value written is a small int.
    update: &'static [(&'static str, &'static str, i64)],
    insert: &'static [&'static str],
    /// Fewer batches where a write clones a 20 000-row table.
    batches: usize,
}

fn corpus_spec(workload: &str) -> CorpusSpec {
    match workload {
        "write_big" => CorpusSpec {
            weights: [40, 25, 0, 33, 2],
            pk: &[("issue", 20_000), ("project", 10)],
            assoc: &[("activity", "issue_id", 20_000)],
            count: &[],
            update: &[("issue", "status", 20_000), ("issue", "severity", 20_000)],
            insert: &["activity"],
            batches: 60,
        },
        "tpcc_sharded" => CorpusSpec {
            weights: [50, 5, 5, 28, 12],
            pk: &[
                ("customer", 1_200),
                ("district", 40),
                ("stock", 400),
                ("item", 100),
            ],
            assoc: &[("order_line", "o_id", 60)],
            count: &[("stock", "w_id", 4)],
            update: &[("stock", "quantity", 400), ("customer", "balance", 1_200)],
            insert: &["history"],
            batches: 150,
        },
        "hot_cached" => CorpusSpec {
            weights: [85, 5, 0, 10, 0],
            pk: &[
                ("config", 22),
                ("message", 18),
                ("bench_note", 2_000),
                ("user", 20),
            ],
            assoc: &[("privilege", "role_id", 3)],
            count: &[],
            update: &[("bench_note", "seen", 2_000)],
            insert: &[],
            batches: 200,
        },
        _ => CorpusSpec {
            weights: [70, 22, 8, 0, 0],
            pk: &[
                ("config", 22),
                ("message", 18),
                ("issue", 500),
                ("project", 10),
                ("user", 20),
            ],
            assoc: &[
                ("activity", "issue_id", 500),
                ("component", "project_id", 10),
            ],
            count: &[("issue", "project_id", 10)],
            update: &[],
            insert: &[],
            batches: 200,
        },
    }
}

/// Entities the applications do not map (TPC-C is raw SQL; `bench_note` is
/// the benchmark's own table), so `sqlgen` can write their statements.
fn extra_entities() -> Vec<EntityDef> {
    use ColumnType::{Float, Int, Text};
    vec![
        entity(
            "bench_note",
            "bench_note",
            "id",
            &[("id", Int), ("body", Text), ("seen", Int)],
            vec![],
        ),
        entity(
            "customer",
            "customer",
            "c_id",
            &[
                ("c_id", Int),
                ("d_id", Int),
                ("name", Text),
                ("balance", Float),
            ],
            vec![],
        ),
        entity(
            "district",
            "district",
            "d_id",
            &[
                ("d_id", Int),
                ("w_id", Int),
                ("next_o_id", Int),
                ("ytd", Float),
            ],
            vec![],
        ),
        entity(
            "stock",
            "stock",
            "s_id",
            &[
                ("s_id", Int),
                ("i_id", Int),
                ("w_id", Int),
                ("quantity", Int),
            ],
            vec![],
        ),
        entity(
            "item",
            "item",
            "i_id",
            &[("i_id", Int), ("name", Text), ("price", Float)],
            vec![],
        ),
        entity(
            "order_line",
            "order_line",
            "ol_id",
            &[
                ("ol_id", Int),
                ("o_id", Int),
                ("i_id", Int),
                ("qty", Int),
                ("amount", Float),
            ],
            vec![],
        ),
        entity(
            "history",
            "history",
            "h_id",
            &[("h_id", Int), ("c_id", Int), ("amount", Float)],
            vec![],
        ),
    ]
}

fn is_read(sql: &str) -> bool {
    sql.starts_with("SELECT")
}

/// The corpus: `batches` batches of `batch_size` statements each, drawn
/// in the spec's proportions. Inserted keys are fresh and unique.
/// An entity by name: the application's own mapping, else the benchmark's.
fn entity_def<'a>(schema: &'a Schema, extras: &'a [EntityDef], name: &str) -> &'a EntityDef {
    schema
        .entity(name)
        .or_else(|| extras.iter().find(|e| e.name == name))
        .unwrap_or_else(|| panic!("corpus names unknown entity {name}"))
}

fn build_corpus(
    spec: &CorpusSpec,
    schema: &Schema,
    extras: &[EntityDef],
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<String>> {
    let def = |name: &str| entity_def(schema, extras, name);
    let mut rng = Rng::new(seed ^ 0x001A_DDE2);
    let total: u64 = spec.weights.iter().sum();
    let mut fresh_key = 50_000_000i64;
    let mut statement = |rng: &mut Rng| -> String {
        let mut pick = rng.below(total);
        let kind = (0..5)
            .find(|k| {
                if pick < spec.weights[*k] {
                    true
                } else {
                    pick -= spec.weights[*k];
                    false
                }
            })
            .expect("weights cover the draw");
        match kind {
            PK => {
                let (e, max) = spec.pk[rng.below(spec.pk.len() as u64) as usize];
                sqlgen::select_by_pk(def(e), &Value::Int(rng.range(1, max)))
            }
            ASSOC => {
                let (e, col, max) = spec.assoc[rng.below(spec.assoc.len() as u64) as usize];
                sqlgen::select_where_eq(def(e), col, &Value::Int(rng.range(1, max)))
            }
            COUNT => {
                let (e, col, max) = spec.count[rng.below(spec.count.len() as u64) as usize];
                sqlgen::count_where_eq(def(e), col, &Value::Int(rng.range(1, max)))
            }
            UPDATE => {
                let (e, col, max) = spec.update[rng.below(spec.update.len() as u64) as usize];
                let d = def(e);
                let id = rng.range(1, max);
                sqlgen::update_field(d, &Value::Int(id), col, &Value::Int(1 + id % 3))
            }
            INSERT => {
                let d = def(spec.insert[rng.below(spec.insert.len() as u64) as usize]);
                fresh_key += 1;
                let values: Vec<Value> = d
                    .columns
                    .iter()
                    .map(|(name, ty)| match ty {
                        _ if *name == d.pk => Value::Int(fresh_key),
                        ColumnType::Int => Value::Int(1 + fresh_key % 10),
                        ColumnType::Float => Value::Float(1.5),
                        ColumnType::Text => Value::Str(format!("bench-{fresh_key}")),
                        ColumnType::Bool => Value::Bool(true),
                    })
                    .collect();
                sqlgen::insert_row(d, &values)
            }
            _ => unreachable!("five kinds"),
        }
    };
    (0..spec.batches)
        .map(|_| (0..batch_size).map(|_| statement(&mut rng)).collect())
        .collect()
}

/// A kernel page that issues one batch: every statement registered first,
/// every read's result demanded after, as a page that renders at its end.
fn page_source(batch: &[String]) -> String {
    let mut body = String::new();
    let mut prints = String::new();
    for (i, sql) in batch.iter().enumerate() {
        if is_read(sql) {
            body.push_str(&format!("    let q{i} = query(\"{sql}\");\n"));
            prints.push_str(&format!("    print(nrows(q{i}));\n"));
        } else {
            body.push_str(&format!("    exec(\"{sql}\");\n"));
        }
    }
    format!("fn main() {{\n{body}{prints}}}\n")
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Passes over the corpus per rung. One pass of a rung is a few
/// milliseconds, and a layer's self time is the difference of two rungs,
/// so single passes are too noisy to subtract.
const PASSES: usize = 3;

/// One rung: [`PASSES`] passes over the corpus, each on a fresh state from
/// `make`, one span per batch per pass.
fn rung<S>(
    trace: &mut Trace,
    name: &'static str,
    batches: &[Vec<String>],
    mut make: impl FnMut() -> S,
    mut f: impl FnMut(&mut S, usize, &[String]),
) -> Vec<u64> {
    let mut ids = Vec::with_capacity(PASSES * batches.len());
    for pass in 0..PASSES {
        let mut state = make();
        for (i, batch) in batches.iter().enumerate() {
            let start = trace.now_ns();
            f(&mut state, i, batch);
            let end = trace.now_ns();
            let request = (pass * 1_000_000 + i) as u64;
            ids.push(trace.push(
                name,
                request,
                start,
                end,
                None,
                vec![("stmts", batch.len() as u64)],
            ));
        }
    }
    ids
}

fn median_ns(mut f: impl FnMut(usize), reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::sort(&mut samples);
    stats::median(&samples)
}

/// `sql.commit_cow_us_*`: a write executed right after `Database::snapshot()`
/// (the snapshot still alive, so the table must be cloned) minus the same
/// write with no snapshot outstanding.
fn commit_cow_us(rows: i64) -> f64 {
    let mut db = Database::new();
    db.execute("CREATE TABLE cow (id INT PRIMARY KEY, a INT, b TEXT)")
        .expect("cow DDL");
    let mut id = 1;
    while id <= rows {
        let values: Vec<String> = (id..(id + 500).min(rows + 1))
            .map(|i| format!("({i}, {}, 'row-{i}')", i % 7))
            .collect();
        db.execute(&format!("INSERT INTO cow VALUES {}", values.join(", ")))
            .expect("cow rows");
        id += 500;
    }
    let write = |db: &mut Database, i: usize| {
        let sql = format!(
            "UPDATE cow SET a = {} WHERE id = {}",
            i % 5,
            1 + (i as i64 * 37) % rows
        );
        black_box(db.execute(&sql).expect("cow write"));
    };
    let mut plain = Vec::new();
    let mut held = Vec::new();
    for i in 0..30 {
        let t = Instant::now();
        write(&mut db, i);
        plain.push(t.elapsed().as_nanos() as f64);
        let snapshot = db.snapshot();
        let t = Instant::now();
        write(&mut db, i + 1);
        held.push(t.elapsed().as_nanos() as f64);
        drop(snapshot);
    }
    stats::sort(&mut plain);
    stats::sort(&mut held);
    us(stats::median(&held) - stats::median(&plain))
}

/// Runs the ladder and the side measurements for one workload.
/// `batch_size` is the workload's measured mean batch size.
pub fn run(
    setup: &Setup,
    workload: &str,
    batch_size: usize,
    seed: u64,
    smoke: bool,
    trace: &mut Trace,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spec = corpus_spec(workload);
    if smoke {
        spec.batches /= 5;
    }
    let site = &setup.sites[0];
    let schema = Arc::clone(&site.schema);
    let extras = extra_entities();
    let batches = build_corpus(&spec, &schema, &extras, batch_size.clamp(1, 24), seed);
    let stmts: Vec<&String> = batches.iter().flatten().collect();
    let n_stmts = stmts.len() as f64;
    let reads: Vec<&String> = stmts.iter().copied().filter(|s| is_read(s)).collect();
    let n_writes = n_stmts - reads.len() as f64;
    let template = &setup.templates[0];

    // --- statement components (not rungs: with warm plan and footprint
    // caches the engine skips most of this work, so it is reported on its
    // own and not subtracted from the execute rung) ----------------------
    let timed_each = |name: &'static str, trace: &mut Trace, f: &mut dyn FnMut(&str)| -> f64 {
        let start = trace.now_ns();
        for sql in &stmts {
            f(sql);
        }
        let end = trace.now_ns();
        trace.push(
            name,
            0,
            start,
            end,
            None,
            vec![("stmts", stmts.len() as u64)],
        );
        us((end - start) as f64) / n_stmts
    };
    m.insert(
        "sql.parse_us_per_stmt",
        timed_each("ladder.sql.parse", trace, &mut |sql| {
            black_box(parse(black_box(sql)).expect("corpus parses"));
        }),
    );
    m.insert(
        "sql.normalize_us_per_stmt",
        timed_each("ladder.sql.normalize", trace, &mut |sql| {
            black_box(normalize(black_box(sql)).expect("corpus normalizes"));
        }),
    );
    let footprint_db = template.snapshot_db();
    m.insert(
        "sql.footprint_us_per_stmt",
        timed_each("ladder.sql.footprint", trace, &mut |sql| {
            black_box(footprint_db.footprint_of(black_box(sql)));
        }),
    );

    // --- rung 1: Database::execute, statement by statement ----------------
    let (mut read_ns, mut write_ns, mut scanned, mut returned) = (0u64, 0u64, 0u64, 0u64);
    let mut below = rung(
        trace,
        "ladder.sql.execute",
        &batches,
        || template.snapshot_db(),
        |db, _, batch| {
            for sql in batch {
                let t = Instant::now();
                let out = db.execute(sql).expect("corpus executes");
                let ns = t.elapsed().as_nanos() as u64;
                if out.stats.is_write {
                    write_ns += ns;
                } else {
                    read_ns += ns;
                    scanned += out.stats.rows_scanned;
                    returned += out.stats.rows_returned;
                }
            }
        },
    );
    let passes = PASSES as f64;
    m.insert(
        "sql.exec_read_us_per_stmt",
        us(read_ns as f64) / (passes * reads.len() as f64).max(1.0),
    );
    m.insert(
        "sql.exec_write_us_per_stmt",
        us(write_ns as f64) / (passes * n_writes).max(1.0),
    );
    m.insert(
        "sql.rows_scanned_per_row_returned",
        scanned as f64 / (returned as f64).max(1.0),
    );

    // Every rung above runs on the workload's own kind of deployment.
    let fresh = || workload::fresh_deployment(setup);
    let link = |trace: &mut Trace, below: &mut Vec<u64>, above: Vec<u64>| {
        for (child, parent) in below.iter().zip(&above) {
            trace.set_parent(*child, *parent);
        }
        *below = above;
    };

    // --- rung 2: SimEnv::query_batch ---------------------------------------
    let above = rung(
        trace,
        "ladder.net.query_batch",
        &batches,
        &fresh,
        |env, _, batch| {
            black_box(env.query_batch(batch).expect("batch executes"));
        },
    );
    link(trace, &mut below, above);
    if setup.shape.sharded {
        // The same batches on one server: what routing adds.
        let mut single_ns = 0.0;
        for _ in 0..PASSES {
            let single = workload::copy_of(template);
            let t = Instant::now();
            for batch in &batches {
                black_box(single.query_batch(batch).expect("batch executes"));
            }
            single_ns += t.elapsed().as_nanos() as f64;
        }
        let sharded_ns = trace.total_ns("ladder.net.query_batch") as f64;
        m.insert(
            "net.shard_route_self_us_per_stmt",
            us(sharded_ns - single_ns) / (passes * n_stmts),
        );
    }

    // --- rung 3: Dispatcher::submit ------------------------------------------
    let above = rung(
        trace,
        "ladder.net.dispatch",
        &batches,
        || Dispatcher::new(fresh()),
        |dispatcher, _, batch| {
            black_box(dispatcher.submit(batch).expect("batch dispatches"));
        },
    );
    link(trace, &mut below, above);

    // --- rung 4: QueryStore::{register, result} -------------------------------
    let shared_dispatcher = || Arc::new(Dispatcher::new(fresh()));
    let above = rung(
        trace,
        "ladder.core.store",
        &batches,
        shared_dispatcher,
        |dispatcher, _, batch| {
            let store = QueryStore::dispatched(Arc::clone(dispatcher));
            let mut ids = Vec::with_capacity(batch.len());
            for sql in batch {
                if is_read(sql) {
                    ids.push(store.register(sql.clone()).expect("read registers"));
                } else {
                    store.register_stmt(sql.clone()).expect("write registers");
                }
            }
            for id in ids {
                black_box(store.result(id).expect("read answers"));
            }
            store.flush_deferred_writes().expect("writes drain");
        },
    );
    link(trace, &mut below, above);

    // --- rung 5: a kernel page per batch via Prepared::run_with ----------------
    let pages: Vec<Arc<Prepared>> = batches
        .iter()
        .map(|batch| {
            let program = parse_program(&page_source(batch)).expect("ladder page parses");
            Arc::new(prepare_with_schema(
                &program,
                ExecStrategy::Sloth(OptFlags::all()),
                Some(&schema),
            ))
        })
        .collect();
    let above = rung(
        trace,
        "ladder.lang.page",
        &batches,
        shared_dispatcher,
        |dispatcher, i, _| {
            let data = DataLayer::dispatched(Arc::clone(dispatcher), Arc::clone(&schema));
            black_box(
                pages[i]
                    .run_with(data, Vec::new())
                    .expect("ladder page runs"),
            );
        },
    );
    link(trace, &mut below, above);

    // --- rung 6: Router::handle --------------------------------------------------
    let routed = || {
        let mut router = Router::dispatched(shared_dispatcher(), Arc::clone(&schema));
        for (i, page) in pages.iter().enumerate() {
            router.mount(format!("/ladder/{i}"), Arc::clone(page), true);
        }
        router
    };
    let requests: Vec<HttpRequest> = (0..batches.len())
        .map(|i| HttpRequest::get(format!("/ladder/{i}")))
        .collect();
    let above = rung(
        trace,
        "ladder.web.handle",
        &batches,
        routed,
        |router, i, _| {
            let rsp = router.handle(&requests[i]);
            assert!(rsp.ok(), "ladder page failed: {}", rsp.body);
            black_box(rsp);
        },
    );
    link(trace, &mut below, above);

    let own = trace.self_ns_by_name();
    let self_us = |name: &str| us(own.get(name).copied().unwrap_or(0) as f64);
    let n_batches = passes * batches.len() as f64;
    let n_stmts = passes * n_stmts;
    m.insert(
        "net.batch_self_us_per_stmt",
        self_us("ladder.net.query_batch") / n_stmts,
    );
    m.insert(
        "net.dispatch_self_us_per_flush",
        self_us("ladder.net.dispatch") / n_batches,
    );
    m.insert(
        "core.register_self_us_per_stmt",
        self_us("ladder.core.store") / n_stmts,
    );
    m.insert(
        "lang.interp_self_us_per_stmt",
        self_us("ladder.lang.page") / n_stmts,
    );
    m.insert(
        "web.handle_self_us",
        self_us("ladder.web.handle") / n_batches,
    );
    let rungs = [
        "ladder.sql.execute",
        "ladder.net.query_batch",
        "ladder.net.dispatch",
        "ladder.core.store",
        "ladder.lang.page",
        "ladder.web.handle",
    ];
    let self_sum: f64 = rungs.iter().map(|r| self_us(r)).sum();
    let top = us(trace.total_ns("ladder.web.handle") as f64);
    m.insert(
        "trace.ladder_self_sum_frac",
        self_sum / top.max(f64::MIN_POSITIVE),
    );

    // --- beside the ladder ---------------------------------------------------------
    // Result cache: the read statements uncached, then cached cold, then warm.
    let distinct: Vec<String> = {
        let mut seen = std::collections::BTreeSet::new();
        reads
            .iter()
            .filter(|s| seen.insert(s.as_str()))
            .take(400)
            .map(|s| (*s).clone())
            .collect()
    };
    if !distinct.is_empty() {
        let pass = |env: &SimEnv| {
            let t = Instant::now();
            for chunk in distinct.chunks(batch_size.clamp(1, 24)) {
                black_box(env.query_batch(chunk).expect("cache pass executes"));
            }
            t.elapsed().as_nanos() as f64
        };
        let off = pass(&workload::copy_of(template));
        let cached = workload::copy_of(template);
        cached.set_result_cache(true);
        let cold = pass(&cached);
        let warm = pass(&cached);
        let n = distinct.len() as f64;
        m.insert("net.cache_hit_us_per_stmt", us(warm) / n);
        m.insert("net.cache_miss_overhead_us_per_stmt", us(cold - off) / n);
    }

    // Session::find_thunk + force against the store rung for the same SQL.
    let (find_entity, find_max) = spec.pk[0];
    if let Some(def) = schema.entity(find_entity).cloned() {
        let dispatcher = Arc::new(Dispatcher::new(workload::copy_of(template)));
        let via_store = median_ns(
            |i| {
                let store = QueryStore::dispatched(Arc::clone(&dispatcher));
                let sql = sqlgen::select_by_pk(&def, &Value::Int(1 + i as i64 % find_max));
                let id = store.register(sql).expect("read registers");
                black_box(store.result(id).expect("read answers"));
            },
            300,
        );
        let via_orm = median_ns(
            |i| {
                let store = QueryStore::dispatched(Arc::clone(&dispatcher));
                let session = Session::deferred(store, Arc::clone(&schema));
                let thunk = session
                    .find_thunk(find_entity, 1 + i as i64 % find_max)
                    .expect("find registers");
                black_box(thunk.force());
            },
            300,
        );
        m.insert("orm.find_self_us", us(via_orm - via_store));
    }

    let thunk_ns = {
        let reps = 200_000u64;
        let t = Instant::now();
        for i in 0..reps {
            black_box(Thunk::new(move || black_box(i)).force());
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };
    m.insert("core.thunk_force_ns", thunk_ns);

    // One fused IN probe of eight keys, per key.
    let (pk_entity, pk_max) = spec.pk[0];
    {
        let def = entity_def(&schema, &extras, pk_entity);
        let mut db = template.snapshot_db();
        let ns = median_ns(
            |i| {
                let keys: Vec<String> = (0..8)
                    .map(|k| (1 + (i as i64 * 8 + k) % pk_max).to_string())
                    .collect();
                let sql = format!(
                    "SELECT * FROM {} WHERE {} IN ({})",
                    def.table,
                    def.pk,
                    keys.join(", ")
                );
                black_box(db.execute(&sql).expect("IN probe executes"));
            },
            200,
        );
        m.insert("sql.fused_in_us_per_key", us(ns) / 8.0);
    }

    let db = template.snapshot_db();
    m.insert(
        "sql.snapshot_us",
        us(median_ns(|_| drop(black_box(db.snapshot())), 500)),
    );
    m.insert("sql.commit_cow_us_1k", commit_cow_us(1_000));
    m.insert("sql.commit_cow_us_20k", commit_cow_us(20_000));

    // What a real 0.5 ms sleep costs beyond 0.5 ms in this sandbox.
    if let Some(sql) = reads.first() {
        let trips = 200;
        let cpu_env = workload::copy_of(template);
        let t = Instant::now();
        for _ in 0..trips {
            black_box(cpu_env.query(sql).expect("probe executes"));
        }
        let cpu_ns = t.elapsed().as_nanos() as f64;
        let rt_env = workload::copy_of(template);
        rt_env.set_realtime(1.0);
        let t = Instant::now();
        for _ in 0..trips {
            black_box(rt_env.query(sql).expect("probe executes"));
        }
        let rt_ns = t.elapsed().as_nanos() as f64;
        let nominal = rt_env.stats().network_ns as f64;
        m.insert(
            "net.realtime_overshoot_us_per_trip",
            us(rt_ns - cpu_ns - nominal) / trips as f64,
        );
    }

    m
}
