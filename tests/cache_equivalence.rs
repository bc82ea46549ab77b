//! Result-cache equivalence, property-tested at the query-store **and**
//! raw driver level: random write-mixed registration streams (the
//! `deferral_equivalence.rs` generator) must produce per-statement
//! results, final database state and error behaviour byte-identical to a
//! cache-off serial reference — across cache on × deferral on/off ×
//! fusion on/off × shards ∈ {1, 2, 4}, and through the multi-session
//! dispatcher. A dedicated **staleness canary** hammers repeat reads
//! around conflicting writes: a read that conflicts with ANY earlier
//! write in the stream must never be served from a pre-write entry.
//!
//! Deterministic SplitMix64 cases (no third-party crates available);
//! failures print the generating stream.

use std::sync::Arc;

use sloth_core::QueryStore;
use sloth_net::{CostModel, Dispatcher, ShardedEnv, SimEnv};
use sloth_sql::{ShardSpec, Value};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

fn seed_statements() -> Vec<String> {
    let mut s = vec![
        "CREATE TABLE project (id INT PRIMARY KEY, name TEXT)".to_string(),
        "CREATE TABLE issue (id INT PRIMARY KEY, project_id INT, title TEXT, sev INT)".to_string(),
        "CREATE INDEX ON issue (project_id)".to_string(),
    ];
    for p in 0..8 {
        s.push(format!("INSERT INTO project VALUES ({p}, 'proj{p}')"));
    }
    for i in 0..40 {
        s.push(format!(
            "INSERT INTO issue VALUES ({i}, {}, 'bug{}', {})",
            i % 8,
            i % 5,
            i % 4
        ));
    }
    s
}

fn fresh_env() -> SimEnv {
    let env = SimEnv::default_env();
    for sql in seed_statements() {
        env.seed_sql(&sql).unwrap();
    }
    env
}

fn fresh_sharded(n: usize) -> SimEnv {
    let spec = ShardSpec::new().shard("issue", "id").shard("project", "id");
    let fleet = ShardedEnv::new(CostModel::default(), spec, n);
    let env = fleet.handle();
    for sql in seed_statements() {
        env.seed_sql(&sql).unwrap();
    }
    env
}

/// One step of a registration stream: a statement to register, or a
/// force of the `n`-th registered statement so far.
#[derive(Debug, Clone)]
enum Op {
    Stmt(String),
    Force(usize),
}

/// The `deferral_equivalence.rs` write-mixed stream generator, with one
/// cache-specific twist: a healthy share of **verbatim repeat reads**
/// (same template, same params), so hit-eligible probes actually occur
/// in most cases instead of by luck.
fn arb_stream(rng: &mut Rng, next_insert_id: &mut i64) -> Vec<Op> {
    let n = rng.range(3, 28);
    let mut ops = Vec::new();
    let mut registered = 0usize;
    let mut reads: Vec<String> = Vec::new();
    for _ in 0..n {
        let pick = rng.range(0, 13);
        let op = match pick {
            // Point reads (fusable templates) and scans.
            0..=2 => Op::Stmt(format!(
                "SELECT * FROM issue WHERE project_id = {} ORDER BY id",
                rng.range(0, 10)
            )),
            3 => Op::Stmt(format!(
                "SELECT * FROM project WHERE id = {}",
                rng.range(0, 10)
            )),
            4 => Op::Stmt(format!(
                "SELECT COUNT(*) FROM issue WHERE project_id = {}",
                rng.range(0, 10)
            )),
            // Writes: routed updates (often disjoint, sometimes
            // conflicting with earlier reads/writes), inserts, deletes.
            5 | 6 => Op::Stmt(format!(
                "UPDATE issue SET sev = {} WHERE project_id = {}",
                rng.range(0, 9),
                rng.range(0, 10)
            )),
            7 => Op::Stmt(format!(
                "UPDATE project SET name = 'renamed{}' WHERE id = {}",
                rng.range(0, 4),
                rng.range(0, 10)
            )),
            8 => {
                let id = *next_insert_id;
                *next_insert_id += 1;
                Op::Stmt(format!(
                    "INSERT INTO issue (id, project_id, title, sev) VALUES ({id}, {}, 'w{id}', {})",
                    rng.range(0, 8),
                    rng.range(0, 4)
                ))
            }
            9 => Op::Stmt(format!(
                "DELETE FROM issue WHERE id = {}",
                rng.range(30, 45)
            )),
            // Occasional transaction boundary: a barrier drain (and a
            // whole-cache invalidation).
            10 if rng.range(0, 3) == 0 => Op::Stmt("COMMIT".to_string()),
            // Verbatim repeat of an earlier read: the cache's bread and
            // butter — and, right after a conflicting write, its trap.
            11 if !reads.is_empty() => {
                let i = rng.range(0, reads.len() as i64) as usize;
                Op::Stmt(reads[i].clone())
            }
            // Force a random already-registered statement.
            _ if registered > 0 => Op::Force(rng.range(0, registered as i64) as usize),
            _ => Op::Stmt(format!(
                "SELECT * FROM project WHERE id = {}",
                rng.range(0, 8)
            )),
        };
        if let Op::Stmt(sql) = &op {
            registered += 1;
            if sql.starts_with("SELECT") {
                reads.push(sql.clone());
            }
        }
        ops.push(op);
    }
    ops
}

fn state_fingerprint(env: &SimEnv) -> Vec<Vec<Value>> {
    let mut rows = env
        .query("SELECT id, project_id, title, sev FROM issue ORDER BY id")
        .unwrap()
        .rows;
    rows.extend(
        env.query("SELECT id, name FROM project ORDER BY id")
            .unwrap()
            .rows,
    );
    rows
}

/// Runs a stream through one cache-on store configuration and checks
/// every registered statement's result against the cache-off serial
/// reference.
fn check_stream(ops: &[Op], env: SimEnv, label: &str) {
    // Serial reference: a separate cache-off deployment, one statement
    // per round trip in registration order.
    let serial = fresh_env();
    let sqls: Vec<&String> = ops
        .iter()
        .filter_map(|o| match o {
            Op::Stmt(s) => Some(s),
            Op::Force(_) => None,
        })
        .collect();
    let serial_results: Vec<_> = sqls
        .iter()
        .map(|sql| {
            serial
                .query(sql)
                .unwrap_or_else(|e| panic!("{label}: serial {sql}: {e}"))
        })
        .collect();

    let store = QueryStore::new(env.clone());
    let mut ids = Vec::new();
    for op in ops {
        match op {
            Op::Stmt(sql) => {
                let id = store
                    .register(sql.clone())
                    .unwrap_or_else(|e| panic!("{label}: register {sql}: {e} (ops {ops:#?})"));
                ids.push(id);
            }
            Op::Force(i) => {
                store
                    .result(ids[*i])
                    .unwrap_or_else(|e| panic!("{label}: force {i}: {e} (ops {ops:#?})"));
            }
        }
    }
    store
        .flush()
        .unwrap_or_else(|e| panic!("{label}: final flush: {e} (ops {ops:#?})"));
    for (i, id) in ids.iter().enumerate() {
        let got = store
            .result(*id)
            .unwrap_or_else(|e| panic!("{label}: result {i}: {e} (ops {ops:#?})"));
        assert_eq!(
            got, serial_results[i],
            "{label}: statement {i} ({}) diverged (ops {ops:#?})",
            sqls[i]
        );
    }
    assert_eq!(
        state_fingerprint(&env),
        state_fingerprint(&serial),
        "{label}: final state diverged (ops {ops:#?})"
    );
}

/// The main grid: cache on × deferral × fusion × shards, 40 random
/// streams each, against the cache-off serial reference. Hits must
/// actually occur somewhere in the grid, or the suite proves nothing.
#[test]
fn cached_streams_match_cache_off_serial_reference() {
    let mut hits_total = 0u64;
    let mut invalidations_total = 0u64;
    for case in 0..40u64 {
        let mut rng = Rng::new(0x0CAC_4E11 ^ case);
        let mut next_id = 500;
        let ops = arb_stream(&mut rng, &mut next_id);
        for deferral in [true, false] {
            for fusion in [true, false] {
                for shards in [1usize, 2, 4] {
                    let env = if shards == 1 {
                        fresh_env()
                    } else {
                        fresh_sharded(shards)
                    };
                    env.set_result_cache(true);
                    env.set_write_deferral(deferral);
                    env.set_fusion(fusion);
                    let label = format!(
                        "case {case} cache=on deferral={deferral} fusion={fusion} shards={shards}"
                    );
                    check_stream(&ops, env.clone(), &label);
                    let s = env.result_cache_stats();
                    hits_total += s.hits;
                    invalidations_total += s.invalidations;
                }
            }
        }
    }
    assert!(hits_total > 0, "the grid never hit the cache");
    assert!(
        invalidations_total > 0,
        "the grid never invalidated an entry"
    );
}

/// Staleness canary at the raw driver level (statement-at-a-time, so
/// every repeat read is a hit-eligible probe): a read that conflicts
/// with ANY earlier write must never answer from a pre-write entry —
/// checked by byte-comparing every single result against a cache-off
/// twin executing the same stream.
#[test]
fn staleness_canary_every_read_postdates_every_conflicting_write() {
    let mut hits_total = 0u64;
    for case in 0..60u64 {
        let mut rng = Rng::new(0x57A1E ^ case);
        let mut next_id = 800;
        let sqls: Vec<String> = arb_stream(&mut rng, &mut next_id)
            .into_iter()
            .filter_map(|op| match op {
                Op::Stmt(s) => Some(s),
                Op::Force(_) => None,
            })
            .collect();
        let cached = fresh_env();
        cached.set_result_cache(true);
        let plain = fresh_env();
        for (i, sql) in sqls.iter().enumerate() {
            let a = cached.query(sql);
            let b = plain.query(sql);
            assert_eq!(
                a, b,
                "case {case}: statement {i} ({sql}) served stale (stream {sqls:#?})"
            );
        }
        assert_eq!(
            state_fingerprint(&cached),
            state_fingerprint(&plain),
            "case {case}: final state diverged (stream {sqls:#?})"
        );
        hits_total += cached.result_cache_stats().hits;
    }
    assert!(hits_total > 0, "the canary never actually hit the cache");
}

/// The cache must never cost round trips or shipped statements, and
/// across the suite it must strictly save work (the whole point). A
/// round trip only disappears when **every** position in a batch hits,
/// so the strict-savings signal is shipped statements; trips are held to
/// never-worse.
#[test]
fn cache_never_adds_round_trips() {
    let mut saved_total = 0i64;
    for case in 0..40u64 {
        let mut rng = Rng::new(0xCA5E ^ case);
        let mut next_id = 900;
        let ops = arb_stream(&mut rng, &mut next_id);
        let mut trips = Vec::new();
        let mut queries = Vec::new();
        for cache in [false, true] {
            let env = fresh_env();
            env.set_result_cache(cache);
            let store = QueryStore::new(env.clone());
            let mut ids = Vec::new();
            for op in &ops {
                match op {
                    Op::Stmt(sql) => ids.push(store.register(sql.clone()).unwrap()),
                    Op::Force(i) => {
                        store.result(ids[*i]).unwrap();
                    }
                }
            }
            store.flush().unwrap();
            trips.push(env.stats().round_trips);
            queries.push(env.stats().queries);
        }
        assert!(
            trips[1] <= trips[0],
            "case {case}: cache added trips ({} vs {}): {ops:#?}",
            trips[1],
            trips[0]
        );
        assert!(
            queries[1] <= queries[0],
            "case {case}: cache shipped more statements ({} vs {}): {ops:#?}",
            queries[1],
            queries[0]
        );
        saved_total += queries[0] as i64 - queries[1] as i64;
    }
    assert!(saved_total > 0, "cache saved nothing across the suite");
}

/// Cross-session invalidation through the shared dispatcher,
/// deterministically sequenced: session A caches a read, session B ships
/// a conflicting write through its own store, session A's repeat read
/// must observe it (and a disjoint entry must survive and keep hitting).
#[test]
fn dispatched_cross_session_write_kills_the_entry() {
    let env = fresh_env();
    env.set_result_cache(true);
    let d = Arc::new(Dispatcher::new(env.clone()));
    let a = QueryStore::dispatched(Arc::clone(&d));
    let b = QueryStore::dispatched(Arc::clone(&d));

    let read3 = "SELECT sev FROM issue WHERE id = 3".to_string();
    let read4 = "SELECT sev FROM issue WHERE id = 4".to_string();
    let ra = a.register(read3.clone()).unwrap();
    let ra4 = a.register(read4.clone()).unwrap();
    a.flush().unwrap();
    let before = a.result(ra).unwrap();
    a.result(ra4).unwrap();

    let w = b
        .register_stmt("UPDATE issue SET sev = 7 WHERE id = 3")
        .unwrap();
    b.flush().unwrap();
    b.result(w.id).unwrap();
    assert!(
        env.result_cache_stats().invalidations >= 1,
        "B's write must invalidate A's cached read: {:?}",
        env.result_cache_stats()
    );

    let trips = env.stats().round_trips;
    let ra2 = a.register(read3).unwrap();
    a.flush().unwrap();
    let after = a.result(ra2).unwrap();
    assert_ne!(before, after, "A observed B's write");
    assert_eq!(after.rows[0][0], Value::Int(7));
    assert!(
        env.stats().round_trips > trips,
        "the killed entry really re-fetched"
    );
    // The disjoint id = 4 entry survived B's pinned write and still hits.
    let hits = env.result_cache_stats().hits;
    let trips = env.stats().round_trips;
    let ra4b = a.register(read4).unwrap();
    a.flush().unwrap();
    a.result(ra4b).unwrap();
    assert_eq!(env.stats().round_trips, trips, "disjoint entry answered");
    assert_eq!(env.result_cache_stats().hits, hits + 1);
}

/// Multi-session dispatcher under concurrency: disjoint row ranges, the
/// cache on — per-session results must match each session's own serial
/// reference and every write effect applies exactly once.
#[test]
fn dispatched_sessions_with_cache_match_serial_reference() {
    use std::sync::Barrier;
    let env = fresh_env();
    env.set_result_cache(true);
    let dispatcher = Arc::new(Dispatcher::new(env.clone()));
    let n = 4usize;
    let rows_per = 10i64;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|t| {
            let d = Arc::clone(&dispatcher);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let base = t as i64 * rows_per;
                let mut rng = Rng::new(0xCAC4ED ^ t as u64);
                // Repeat reads interleaved with own-row writes: the cache
                // must keep every session's view exact while other
                // sessions' flushes fill and invalidate around it.
                let serial = fresh_env();
                let mut stream = Vec::new();
                for _ in 0..16 {
                    let row = base + rng.range(0, rows_per);
                    if rng.range(0, 2) == 0 {
                        stream.push(format!("SELECT sev FROM issue WHERE id = {row}"));
                    } else {
                        stream.push(format!("UPDATE issue SET sev = sev + 1 WHERE id = {row}"));
                    }
                }
                let expected: Vec<_> = stream
                    .iter()
                    .map(|sql| serial.query(sql).unwrap())
                    .collect();

                barrier.wait();
                let store = QueryStore::dispatched(d);
                let ids: Vec<_> = stream
                    .iter()
                    .map(|sql| store.register(sql.clone()).unwrap())
                    .collect();
                store.flush().unwrap();
                for (i, id) in ids.iter().enumerate() {
                    assert_eq!(
                        store.result(*id).unwrap(),
                        expected[i],
                        "session {t} stmt {i} ({})",
                        stream[i]
                    );
                }
                serial
            })
        })
        .collect();
    let serials: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Exact-once effects: each row's final sev equals its own session's
    // serial outcome.
    for (t, serial) in serials.iter().enumerate() {
        let base = t as i64 * rows_per;
        for row in base..base + rows_per {
            let got = env
                .query(&format!("SELECT sev FROM issue WHERE id = {row}"))
                .unwrap();
            let want = serial
                .query(&format!("SELECT sev FROM issue WHERE id = {row}"))
                .unwrap();
            assert_eq!(got, want, "row {row} of session {t}");
        }
    }
}
