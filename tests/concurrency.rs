//! Concurrent multi-session serving: end-to-end tests of the thread-safe
//! driver core across the Rust-level stack (`sloth-orm` sessions +
//! `sloth-web` rendering on shared deployments, with and without a shared
//! [`Dispatcher`]).
//!
//! The invariant under test everywhere: at equal inputs, a page rendered
//! by a session on a shared concurrent deployment is bit-identical to the
//! same page rendered alone — batching and fusion are performance
//! features, never semantic ones.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use sloth_core::QueryStore;
use sloth_net::{Dispatcher, SimEnv};
use sloth_orm::{entity, one_to_many, FetchStrategy, Schema, Session};
use sloth_sql::ast::ColumnType::*;
use sloth_web::{render, Model, ModelValue};

fn clinic_schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add(entity(
        "patient",
        "patient",
        "patient_id",
        &[("patient_id", Int), ("name", Text)],
        vec![one_to_many(
            "encounters",
            "encounter",
            "patient_id",
            FetchStrategy::Lazy,
        )],
    ));
    s.add(entity(
        "encounter",
        "encounter",
        "encounter_id",
        &[("encounter_id", Int), ("patient_id", Int), ("kind", Text)],
        vec![],
    ));
    Arc::new(s)
}

fn seeded_env(schema: &Schema, patients: i64) -> SimEnv {
    let env = SimEnv::default_env();
    for ddl in schema.ddl() {
        env.seed_sql(&ddl).unwrap();
    }
    for p in 1..=patients {
        env.seed_sql(&format!("INSERT INTO patient VALUES ({p}, 'patient-{p}')"))
            .unwrap();
        for e in 0..3 {
            env.seed_sql(&format!(
                "INSERT INTO encounter VALUES ({}, {p}, 'kind-{e}')",
                p * 10 + e
            ))
            .unwrap();
        }
    }
    env
}

/// Renders one "patient dashboard" page for `pid` on the given session.
fn render_dashboard(session: &Session, pid: i64) -> String {
    let patient = session.find_thunk("patient", pid).unwrap();
    let p = patient.force().expect("patient exists");
    let encounters = session.assoc_thunk(&p, "encounters").unwrap();
    let mut model = Model::new();
    model.put("patient", ModelValue::Entity(p));
    model.put("encounters", ModelValue::LazyList(encounters));
    render(&model)
}

/// The serial reference: each page rendered alone on a fresh deployment.
fn reference_page(schema: &Arc<Schema>, patients: i64, pid: i64) -> String {
    let env = seeded_env(schema, patients);
    let store = QueryStore::new(env.clone());
    let session = Session::deferred(store, Arc::clone(schema));
    render_dashboard(&session, pid)
}

#[test]
fn concurrent_sessions_render_identical_pages_on_shared_env() {
    let schema = clinic_schema();
    let patients = 12i64;
    let env = seeded_env(&schema, patients);
    let expected: Vec<String> = (1..=patients)
        .map(|pid| reference_page(&schema, patients, pid))
        .collect();
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let env = env.clone();
            let schema = Arc::clone(&schema);
            let expected = expected.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for round in 0..6i64 {
                    let pid = 1 + ((t as i64 + round * 3) % 12);
                    // Each page request = its own session on the shared env.
                    let store = QueryStore::new(env.clone());
                    let session = Session::deferred(store, Arc::clone(&schema));
                    let page = render_dashboard(&session, pid);
                    assert_eq!(
                        page,
                        expected[(pid - 1) as usize],
                        "thread {t} round {round}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = env.stats();
    assert_eq!(s.queries, 8 * 6 * 2, "two queries per page");
}

#[test]
fn concurrent_sessions_through_dispatcher_serve_equal_pages() {
    let schema = clinic_schema();
    let patients = 12i64;
    let env = seeded_env(&schema, patients);
    let dispatcher = Arc::new(Dispatcher::new(env.clone()));
    let expected: Vec<String> = (1..=patients)
        .map(|pid| reference_page(&schema, patients, pid))
        .collect();
    let n = 8;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|t| {
            let dispatcher = Arc::clone(&dispatcher);
            let schema = Arc::clone(&schema);
            let expected = expected.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for round in 0..8i64 {
                    let pid = 1 + ((t as i64 * 5 + round) % 12);
                    let store = QueryStore::dispatched(Arc::clone(&dispatcher));
                    let session = Session::deferred(store, Arc::clone(&schema));
                    let page = render_dashboard(&session, pid);
                    assert_eq!(
                        page,
                        expected[(pid - 1) as usize],
                        "thread {t} round {round}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let d = dispatcher.stats();
    assert_eq!(d.flushes, 8 * 8 * 2, "two flushes per page");
    assert_eq!(d.dispatches, d.flushes, "every flush is one dispatch");
    assert_eq!(env.stats().round_trips, d.dispatches);
}

#[test]
fn dispatcher_matches_serial_at_one_session() {
    let schema = clinic_schema();
    let env_direct = seeded_env(&schema, 4);
    let env_disp = seeded_env(&schema, 4);
    let dispatcher = Arc::new(Dispatcher::new(env_disp.clone()));
    for pid in 1..=4 {
        let direct = Session::deferred(QueryStore::new(env_direct.clone()), Arc::clone(&schema));
        let dispatched = Session::deferred(
            QueryStore::dispatched(Arc::clone(&dispatcher)),
            Arc::clone(&schema),
        );
        assert_eq!(
            render_dashboard(&direct, pid),
            render_dashboard(&dispatched, pid)
        );
    }
    // Bit-identical driver behaviour: same trips, same statements, one
    // dispatcher flush per trip.
    assert_eq!(env_direct.stats().round_trips, env_disp.stats().round_trips);
    assert_eq!(env_direct.stats().queries, env_disp.stats().queries);
    assert_eq!(dispatcher.stats().flushes, env_disp.stats().round_trips);
}

/// Satellite: the 512-entry plan-cache bound, exercised through two
/// sessions sharing one `Database` (one deployment), with hit/miss/
/// eviction counters asserted across the sessions.
#[test]
fn plan_cache_shared_by_two_sessions_hits_and_evicts() {
    let env = SimEnv::default_env();
    env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    env.seed_sql("INSERT INTO t VALUES (1, 10)").unwrap();

    // Session A warms one template.
    let a = QueryStore::new(env.clone());
    let id = a.register("SELECT v FROM t WHERE id = 1").unwrap();
    a.result(id).unwrap();
    let warm = env.plan_cache_stats();
    assert_eq!(warm.misses, 1);
    assert_eq!(warm.entries, 1);

    // Session B reuses it: pure hit, no parse — one shared Database, one
    // shared plan cache.
    let b = QueryStore::new(env.clone());
    let id = b.register("SELECT v FROM t WHERE id = 1").unwrap();
    b.result(id).unwrap();
    let shared = env.plan_cache_stats();
    assert_eq!(shared.hits, warm.hits + 1, "B hit A's plan");
    assert_eq!(shared.misses, warm.misses);

    // Session B then floods distinct templates past the 512 bound.
    for i in 0..520usize {
        let id = b
            .register(format!("SELECT v FROM t WHERE id = 1 LIMIT {}", i + 1))
            .unwrap();
        b.result(id).unwrap();
    }
    let flooded = env.plan_cache_stats();
    assert_eq!(flooded.entries, 512, "bound holds under shared use");
    assert!(flooded.evictions >= 9, "oldest plans evicted: {flooded:?}");

    // Session A's original template was the oldest: it misses again.
    let before = env.plan_cache_stats();
    let id = a.register("SELECT v FROM t WHERE id = 1").unwrap();
    a.result(id).unwrap();
    let after = env.plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + 1,
        "evicted template re-parses"
    );
}

/// The write-mixed multi-session suite (the release concurrency gate):
/// concurrent sessions interleave read-only dashboards with
/// **write-containing flushes** through one shared dispatcher. Each
/// session owns a disjoint key range, and every page and every write
/// must come out bit-identical to the serial reference.
#[test]
fn dispatched_write_mix_matches_serial_reference() {
    let schema = clinic_schema();
    let patients = 12i64;
    let env = seeded_env(&schema, patients);
    let dispatcher = Arc::new(Dispatcher::new(env.clone()));
    let n = 6usize;
    let rounds = 5i64;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|t| {
            let dispatcher = Arc::clone(&dispatcher);
            let schema = Arc::clone(&schema);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Session t owns patients t*2+1 and t*2+2 exclusively.
                let own = [t as i64 * 2 + 1, t as i64 * 2 + 2];
                for round in 0..rounds {
                    let pid = own[(round % 2) as usize];
                    let store = QueryStore::dispatched(Arc::clone(&dispatcher));
                    // A read (registered, pending) plus a write on the
                    // session's own row: one write-containing flush.
                    let read = store
                        .register(format!("SELECT name FROM patient WHERE patient_id = {pid}"))
                        .unwrap();
                    let write = store
                        .register(format!(
                            "UPDATE patient SET name = 'renamed-{pid}-{round}' \
                             WHERE patient_id = {pid}"
                        ))
                        .unwrap();
                    // The pre-write read sees the previous round's name.
                    let before = store.result(read).unwrap();
                    let want = if round < 2 {
                        format!("patient-{pid}")
                    } else {
                        format!("renamed-{pid}-{}", round - 2)
                    };
                    assert_eq!(
                        before.get(0, "name").unwrap().as_str(),
                        Some(want.as_str()),
                        "session {t} round {round}"
                    );
                    assert!(store.result(write).unwrap().is_empty());
                    // A read-only dashboard session in between.
                    let ro = QueryStore::dispatched(Arc::clone(&dispatcher));
                    let session = Session::deferred(ro, Arc::clone(&schema));
                    let page = render_dashboard(&session, pid);
                    assert!(
                        page.contains(&format!("renamed-{pid}-{round}")),
                        "session {t} round {round} sees its own write: {page}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Final state: every session's last rename landed exactly once.
    for t in 0..n as i64 {
        for (slot, pid) in [(0i64, t * 2 + 1), (1, t * 2 + 2)] {
            let last = (0..rounds).rev().find(|r| r % 2 == slot).unwrap();
            let rs = env
                .query(&format!(
                    "SELECT name FROM patient WHERE patient_id = {pid}"
                ))
                .unwrap();
            assert_eq!(
                rs.get(0, "name").unwrap().as_str(),
                Some(format!("renamed-{pid}-{last}").as_str())
            );
        }
    }
    let d = dispatcher.stats();
    assert_eq!(d.dispatches, d.flushes, "{d:?}");
}

/// A writer stalled mid-commit: a thread parked inside [`SimEnv::seed`] —
/// holding the write order and the database write guard, `mutate` applied
/// but nothing published — until released.
struct Wedge {
    release: std::sync::mpsc::Sender<()>,
    holder: std::thread::JoinHandle<()>,
}

impl Wedge {
    fn hold(env: &SimEnv, mutate: impl FnOnce(&mut sloth_sql::Database) + Send + 'static) -> Wedge {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let (held_tx, held) = std::sync::mpsc::channel::<()>();
        let env = env.clone();
        let holder = std::thread::spawn(move || {
            env.seed(|db| {
                mutate(db);
                held_tx.send(()).unwrap();
                let _ = parked.recv();
            })
        });
        held.recv().unwrap();
        Wedge { release, holder }
    }

    fn release(self) {
        self.release.send(()).unwrap();
        self.holder.join().unwrap();
    }
}

/// Satellite: the observability surfaces (`stats`, `now_ns`,
/// `result_cache_stats`, `Dispatcher::stats`) must never block behind an
/// in-flight batch. We wedge a **write** batch mid-ship by holding the
/// database write lock, then require a full set of stats reads to
/// complete on a bounded timeout while the batch is provably still
/// stuck. Read-only batches no longer wedge at all — they execute
/// against the published snapshot (see
/// `snapshot_read_completes_while_writer_holds_the_db` below), so the
/// wedge here must be a writer.
#[test]
fn stats_reads_complete_while_a_batch_is_mid_ship() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    let schema = clinic_schema();
    let env = seeded_env(&schema, 2);
    let dispatcher = Arc::new(Dispatcher::new(env.clone()));

    // Wedge the backend: while this guard lives, any *write* batch that
    // reaches the database blocks mid-ship.
    let guard = Wedge::hold(&env, |_| {});

    let batch_done = Arc::new(AtomicBool::new(false));
    let batch = {
        let env = env.clone();
        let done = Arc::clone(&batch_done);
        std::thread::spawn(move || {
            env.query("UPDATE patient SET name = 'renamed' WHERE patient_id = 1")
                .unwrap();
            done.store(true, Ordering::SeqCst);
        })
    };
    // Give the batch thread time to reach the database lock.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !batch_done.load(Ordering::SeqCst),
        "write batch must be wedged mid-ship before the stats reads start"
    );

    // Every read-only surface must answer without the database lock.
    let (tx, rx) = mpsc::channel();
    {
        let env = env.clone();
        let dispatcher = Arc::clone(&dispatcher);
        std::thread::spawn(move || {
            let stats = env.stats();
            let now = env.now_ns();
            let cache = env.result_cache_stats();
            let disp = dispatcher.stats();
            tx.send((stats, now, cache, disp)).unwrap();
        });
    }
    let (stats, _now, cache, disp) = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("stats reads must not block behind an in-flight batch");
    assert_eq!(
        stats.queries, 0,
        "seeding is unmetered and the wedged batch has not landed: {stats:?}"
    );
    assert_eq!(cache.hits, 0);
    assert_eq!(disp.flushes, 0);
    assert!(
        !batch_done.load(Ordering::SeqCst),
        "stats reads finished while the batch was still mid-ship"
    );

    guard.release();
    batch.join().unwrap();
    let rs = env
        .query("SELECT name FROM patient WHERE patient_id = 1")
        .unwrap();
    assert_eq!(rs.get(0, "name").unwrap().as_str(), Some("renamed"));
}

/// Tentpole regression (reader-wedge): a read-only batch must complete
/// with bounded latency while another thread holds the database write
/// lock mid-batch — exactly the wedge that used to stall every reader
/// before MVCC snapshot reads. The read executes against the published
/// snapshot, so it sees the last *committed* state and never blocks.
#[test]
fn snapshot_read_completes_while_writer_holds_the_db() {
    use std::sync::mpsc;

    let schema = clinic_schema();
    let env = seeded_env(&schema, 2);

    // A committed write first, so the published snapshot is mid-history
    // (not just the seed) — the reader must see exactly this state.
    env.query("UPDATE patient SET name = 'committed' WHERE patient_id = 1")
        .unwrap();

    // Wedge: hold the write lock and mutate the live database through
    // it, simulating a writer stalled mid-batch with half-applied state.
    let guard = Wedge::hold(&env, |db| {
        db.execute("UPDATE patient SET name = 'uncommitted' WHERE patient_id = 1")
            .unwrap();
    });

    let (tx, rx) = mpsc::channel();
    {
        let env = env.clone();
        std::thread::spawn(move || {
            let rs = env
                .query("SELECT name FROM patient WHERE patient_id = 1")
                .unwrap();
            tx.send(rs).unwrap();
        });
    }
    let rs = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("snapshot read must not block behind the held write lock");
    assert_eq!(
        rs.get(0, "name").unwrap().as_str(),
        Some("committed"),
        "reader observes the last committed state, not the in-flight write"
    );
    assert!(
        env.stats().snapshot_batches >= 1,
        "the read went down the snapshot path"
    );

    // Release the writer; subsequent reads observe its result.
    guard.release();
    let rs = env
        .query("SELECT name FROM patient WHERE patient_id = 1")
        .unwrap();
    assert_eq!(rs.get(0, "name").unwrap().as_str(), Some("uncommitted"));
}

/// Regression (reader-wedge, sharded): the injected hot-writer hold must
/// keep a fleet's commit open exactly as it does the single server's —
/// the knob used to be a silent no-op behind the router — and a
/// read-only batch scattering over every shard meanwhile must take no
/// shard lock: it answers from the last published state, well inside
/// the hold, and sees the write on every shard or on none.
#[test]
fn sharded_snapshot_reads_overlap_a_held_commit() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let spec = sloth_sql::ShardSpec::new().shard("t", "id");
    let env = sloth_net::ShardedEnv::new(sloth_net::CostModel::default(), spec, 2).handle();
    env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for id in 0..8 {
        env.seed_sql(&format!("INSERT INTO t VALUES ({id}, 0)"))
            .unwrap();
    }
    let hold = Duration::from_millis(200);
    env.set_write_hold_ns(hold.as_nanos() as u64);

    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let read = ["SELECT v FROM t ORDER BY id".to_string()];
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let write: Vec<String> = (0..8)
                .map(|id| format!("UPDATE t SET v = 1 WHERE id = {id}"))
                .collect();
            start.wait();
            let t0 = Instant::now();
            env.query_batch(&write).unwrap();
            let took = t0.elapsed();
            done.store(true, Ordering::SeqCst);
            took
        });
        start.wait();
        let mut overlapped = 0u32;
        while !done.load(Ordering::SeqCst) {
            let t0 = Instant::now();
            let rs = env.query_batch(&read).unwrap().remove(0);
            let took = t0.elapsed();
            let vs: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
            assert!(
                vs == [0; 8] || vs == [1; 8],
                "the commit is visible on every shard or on none: {vs:?}"
            );
            assert!(
                took < hold / 2,
                "a snapshot read waited {took:?} behind a {hold:?} commit"
            );
            if vs == [0; 8] {
                overlapped += 1;
            }
        }
        let wrote_in = writer.join().unwrap();
        assert!(
            wrote_in >= hold,
            "the fleet's commit stayed open for the hold: {wrote_in:?}"
        );
        assert!(
            overlapped >= 1,
            "a read returned the last committed rows while the writer was in flight"
        );
    });
    assert!(env.snapshot_batches() >= 1);
    let rs = env.query_batch(&read).unwrap().remove(0);
    assert!(rs.rows.iter().all(|r| r[0].as_i64() == Some(1)));
}

/// Satellite: the 64-session dispatcher stress suite. Thirty-two reader
/// sessions render dashboards over a never-written key range (checked
/// byte-for-byte against serial references) while thirty-two writer
/// sessions mix footprint-disjoint row updates with inserts into one
/// shared table (conflicting footprints that the versioned store
/// serialises at admission). A monitor thread snapshots env + dispatcher stats
/// throughout and requires every counter to be monotone — no torn or
/// backwards reads under contention. Afterwards every write must have
/// landed exactly once.
#[test]
fn stress_64_sessions_mixed_footprints_match_serial_references() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let schema = clinic_schema();
    let read_pids = 16i64; // readers touch 1..=16, writers own 17..=48
    let patients = 48i64;
    let env = seeded_env(&schema, patients);
    env.seed_sql("CREATE TABLE audit_log (id INT PRIMARY KEY, tag TEXT)")
        .unwrap();
    let dispatcher = Arc::new(Dispatcher::new(env.clone()));
    let expected: Vec<String> = (1..=read_pids)
        .map(|pid| reference_page(&schema, patients, pid))
        .collect();

    let n = 64usize;
    let rounds = 3i64;
    let done = Arc::new(AtomicBool::new(false));

    // Monitor: counters may only move forward, even mid-dispatch.
    let monitor = {
        let env = env.clone();
        let dispatcher = Arc::clone(&dispatcher);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last = env.stats();
            let mut last_d = dispatcher.stats();
            let mut samples = 0u64;
            while !done.load(Ordering::SeqCst) {
                let s = env.stats();
                let d = dispatcher.stats();
                assert!(s.queries >= last.queries, "queries tore: {s:?} < {last:?}");
                assert!(s.round_trips >= last.round_trips, "{s:?} < {last:?}");
                assert!(s.bytes >= last.bytes, "{s:?} < {last:?}");
                assert!(s.db_ns >= last.db_ns, "{s:?} < {last:?}");
                assert!(d.flushes >= last_d.flushes, "{d:?} < {last_d:?}");
                assert!(d.dispatches >= last_d.dispatches, "{d:?} < {last_d:?}");
                assert!(
                    d.dispatches <= d.flushes,
                    "dispatches can never exceed flushes: {d:?}"
                );
                last = s;
                last_d = d;
                samples += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            samples
        })
    };

    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|t| {
            let dispatcher = Arc::clone(&dispatcher);
            let schema = Arc::clone(&schema);
            let expected = expected.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                if t % 2 == 0 {
                    // Reader session: dashboards over the read-only range,
                    // byte-identical to the serial reference every round.
                    for round in 0..rounds {
                        let pid = 1 + ((t as i64 / 2 + round * 7) % read_pids);
                        let store = QueryStore::dispatched(Arc::clone(&dispatcher));
                        let session = Session::deferred(store, Arc::clone(&schema));
                        let page = render_dashboard(&session, pid);
                        assert_eq!(
                            page,
                            expected[(pid - 1) as usize],
                            "reader {t} round {round}"
                        );
                    }
                } else {
                    // Writer session: owns patient 17 + t/2 exclusively
                    // (footprint-disjoint from every other writer) and
                    // also inserts into the shared audit_log (conflicting
                    // footprints across all writers).
                    let pid = 17 + t as i64 / 2;
                    for round in 0..rounds {
                        let store = QueryStore::dispatched(Arc::clone(&dispatcher));
                        let read = store
                            .register(format!("SELECT name FROM patient WHERE patient_id = {pid}"))
                            .unwrap();
                        let write = store
                            .register(format!(
                                "UPDATE patient SET name = 'renamed-{pid}-{round}' \
                                 WHERE patient_id = {pid}"
                            ))
                            .unwrap();
                        let log = store
                            .register(format!(
                                "INSERT INTO audit_log VALUES ({}, 'w{t}r{round}')",
                                t as i64 * 10 + round
                            ))
                            .unwrap();
                        let before = store.result(read).unwrap();
                        let want = if round == 0 {
                            format!("patient-{pid}")
                        } else {
                            format!("renamed-{pid}-{}", round - 1)
                        };
                        assert_eq!(
                            before.get(0, "name").unwrap().as_str(),
                            Some(want.as_str()),
                            "writer {t} round {round}"
                        );
                        assert!(store.result(write).unwrap().is_empty());
                        assert!(store.result(log).unwrap().is_empty());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    done.store(true, Ordering::SeqCst);
    let samples = monitor.join().unwrap();
    assert!(samples > 0, "the monitor observed the run");

    // Exactly-once write effects: each writer's final rename landed, and
    // every audit row exists exactly once (the PRIMARY KEY would have
    // rejected any double-applied insert mid-run).
    for t in (1..n).step_by(2) {
        let pid = 17 + t as i64 / 2;
        let rs = env
            .query(&format!(
                "SELECT name FROM patient WHERE patient_id = {pid}"
            ))
            .unwrap();
        assert_eq!(
            rs.get(0, "name").unwrap().as_str(),
            Some(format!("renamed-{pid}-{}", rounds - 1).as_str())
        );
    }
    let log = env.query("SELECT id FROM audit_log ORDER BY id").unwrap();
    assert_eq!(log.len(), (n / 2) * rounds as usize, "every insert landed");
    let ids: Vec<i64> = (0..log.len())
        .map(|r| log.get(r, "id").unwrap().as_i64().unwrap())
        .collect();
    let mut deduped = ids.clone();
    deduped.dedup();
    assert_eq!(ids, deduped, "no insert was applied twice");

    let d = dispatcher.stats();
    assert_eq!(d.dispatches, d.flushes, "{d:?}");
    assert!(d.flushes > 0, "{d:?}");
}
