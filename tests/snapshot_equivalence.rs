//! MVCC snapshot-read equivalence, property-tested across the whole
//! driver grid: every configuration — deferral × fusion × result cache ×
//! shards ∈ {1, 2, 4} × dispatcher — must produce per-statement results,
//! final database state and error behaviour byte-identical to the serial
//! reference. The reference is the engine itself — a bare
//! [`sloth_sql::Database`] driven one `execute` at a time — so it shares
//! no admission, publish or batch code with the driver under test.
//!
//! Snapshot reads change *when the database lock is taken*, never what a
//! batch observes: a read-only batch executes against the snapshot the
//! last committed write batch published, and sequential submission means
//! that snapshot always reflects every prior write. These tests pin that
//! visibility rule; the concurrent overlap behaviour is covered by the
//! reader-wedge tests in `concurrency.rs` and the snapshot figure.
//!
//! Deterministic SplitMix64 cases (no third-party crates available);
//! failures print the generating batch or stream.

use std::sync::Arc;

use sloth_core::QueryStore;
use sloth_net::{CostModel, Dispatcher, ShardedEnv, SimEnv};
use sloth_sql::{Database, ResultSet, ShardSpec, Value};

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
    let spec = ShardSpec::new().shard("issue", "project_id");
    let fleet = ShardedEnv::new(CostModel::default(), spec, n);
    let env = fleet.handle();
    for sql in seed_statements() {
        env.seed_sql(&sql).unwrap();
    }
    env
}

/// The serial reference: the seeded engine, nothing of the driver.
fn reference_db() -> Database {
    let mut db = Database::new();
    for sql in seed_statements() {
        db.execute(&sql).unwrap();
    }
    db
}

fn backend(shards: usize) -> SimEnv {
    if shards == 1 {
        fresh_env()
    } else {
        fresh_sharded(shards)
    }
}

/// A random read statement, biased towards the snapshot path's
/// interesting shapes: fusable point lookups (IN-probe fusion on the
/// snapshot), scatter reads, ordered merges, and re-aggregation.
fn arb_read(rng: &mut Rng) -> String {
    match rng.range(0, 8) {
        0..=2 => format!(
            "SELECT * FROM issue WHERE project_id = {} ORDER BY id",
            rng.range(0, 10)
        ),
        3 => format!("SELECT title FROM issue WHERE id = {}", rng.range(0, 45)),
        4 => format!("SELECT * FROM project WHERE id = {}", rng.range(0, 10)),
        5 => format!(
            "SELECT id FROM issue WHERE sev >= {} ORDER BY id DESC LIMIT 6",
            rng.range(0, 4)
        ),
        6 => format!(
            "SELECT COUNT(*) FROM issue WHERE sev >= {}",
            rng.range(0, 4)
        ),
        _ => "SELECT * FROM issue ORDER BY title, id".to_string(),
    }
}

/// A random write statement over the same key space.
fn arb_write(rng: &mut Rng, next_insert_id: &mut i64) -> String {
    match rng.range(0, 5) {
        0 | 1 => format!(
            "UPDATE issue SET sev = {} WHERE project_id = {}",
            rng.range(0, 9),
            rng.range(0, 10)
        ),
        2 => format!(
            "UPDATE project SET name = 'renamed{}' WHERE id = {}",
            rng.range(0, 4),
            rng.range(0, 10)
        ),
        3 => format!("DELETE FROM issue WHERE id = {}", rng.range(30, 45)),
        _ => {
            let id = *next_insert_id;
            *next_insert_id += 1;
            format!(
                "INSERT INTO issue (id, project_id, title, sev) VALUES ({id}, {}, 's{id}', {})",
                rng.range(0, 8),
                rng.range(0, 4)
            )
        }
    }
}

/// A random batch: read-only with probability ~1/2 (the snapshot path),
/// mixed otherwise (the write path, which must publish what the next
/// read-only batch observes).
fn arb_batch(rng: &mut Rng, next_insert_id: &mut i64) -> Vec<String> {
    let len = rng.range(1, 8);
    let read_only = rng.range(0, 2) == 0;
    (0..len)
        .map(|_| {
            if read_only || rng.range(0, 3) > 0 {
                arb_read(rng)
            } else {
                arb_write(rng, next_insert_id)
            }
        })
        .collect()
}

/// Every row of both tables, read through `query` — the deployment's
/// stock driver or the reference engine.
fn state_fingerprint(mut query: impl FnMut(&str) -> ResultSet) -> Vec<Vec<Value>> {
    let mut rows = query("SELECT id, project_id, title, sev FROM issue ORDER BY id").rows;
    rows.extend(query("SELECT id, name FROM project ORDER BY id").rows);
    rows
}

fn env_state(env: &SimEnv) -> Vec<Vec<Value>> {
    state_fingerprint(|sql| env.query(sql).unwrap())
}

fn reference_state(db: &mut Database) -> Vec<Vec<Value>> {
    state_fingerprint(|sql| db.execute(sql).unwrap().result)
}

/// The core batch-level grid: the deployment vs the serial engine
/// reference, across fusion × result cache × shards, on sequences of
/// random batches. Sequential submission means every read-only batch's
/// admission snapshot already reflects all prior writes, so the two must
/// agree byte for byte.
#[test]
fn random_batch_sequences_match_serial_reference() {
    let mut snapshot_batches_total = 0u64;
    for case in 0..24u64 {
        for shards in [1usize, 2, 4] {
            for fusion in [true, false] {
                for cache in [true, false] {
                    let mut rng = Rng::new(0x54AB_5407 ^ (case << 5) ^ (shards as u64));
                    let mut next_id = 200;
                    let batches: Vec<Vec<String>> = (0..rng.range(2, 6))
                        .map(|_| arb_batch(&mut rng, &mut next_id))
                        .collect();
                    let label =
                        format!("case {case} shards={shards} fusion={fusion} cache={cache}");

                    let mut serial = reference_db();
                    let env = backend(shards);
                    env.set_fusion(fusion);
                    env.set_result_cache(cache);

                    for (b, batch) in batches.iter().enumerate() {
                        let want: Vec<_> = batch
                            .iter()
                            .map(|sql| {
                                serial
                                    .execute(sql)
                                    .unwrap_or_else(|e| panic!("{label}: serial {sql}: {e}"))
                                    .result
                            })
                            .collect();
                        let got = env
                            .query_batch(batch)
                            .unwrap_or_else(|e| panic!("{label}: batch {b}: {e}"));
                        assert_eq!(got, want, "{label}: batch {b} ≠ serial: {batch:#?}");
                    }
                    assert_eq!(
                        env_state(&env),
                        reference_state(&mut serial),
                        "{label}: final state diverged"
                    );
                    snapshot_batches_total += env.snapshot_batches();
                }
            }
        }
    }
    assert!(
        snapshot_batches_total > 0,
        "the suite must actually exercise the snapshot path"
    );
}

/// The store-level grid: random registration streams through the query
/// store (deferral's natural habitat), across deferral × fusion × result
/// cache × shards. Every result and the final state must match the
/// statement-at-a-time serial reference.
#[test]
fn random_streams_snapshot_grid_matches_serial_reference() {
    for case in 0..12u64 {
        for deferral in [true, false] {
            for fusion in [true, false] {
                for cache in [true, false] {
                    for shards in [1usize, 2, 4] {
                        let mut rng = Rng::new(0x5AB5_11A1 ^ (case << 6) ^ (shards as u64));
                        let mut next_id = 600;
                        let n = rng.range(4, 20);
                        let stream: Vec<String> = (0..n)
                            .map(|_| {
                                if rng.range(0, 3) == 0 {
                                    arb_write(&mut rng, &mut next_id)
                                } else {
                                    arb_read(&mut rng)
                                }
                            })
                            .collect();
                        let label = format!(
                            "case {case} deferral={deferral} fusion={fusion} \
                             cache={cache} shards={shards}"
                        );

                        let mut serial = reference_db();
                        let want: Vec<_> = stream
                            .iter()
                            .map(|sql| {
                                serial
                                    .execute(sql)
                                    .unwrap_or_else(|e| panic!("{label}: serial {sql}: {e}"))
                                    .result
                            })
                            .collect();

                        let env = backend(shards);
                        env.set_write_deferral(deferral);
                        env.set_fusion(fusion);
                        env.set_result_cache(cache);
                        let store = QueryStore::new(env.clone());
                        let ids: Vec<_> = stream
                            .iter()
                            .map(|sql| {
                                store.register(sql.clone()).unwrap_or_else(|e| {
                                    panic!("{label}: register {sql}: {e} ({stream:#?})")
                                })
                            })
                            .collect();
                        store
                            .flush()
                            .unwrap_or_else(|e| panic!("{label}: flush: {e} ({stream:#?})"));
                        for (i, id) in ids.iter().enumerate() {
                            assert_eq!(
                                store.result(*id).unwrap(),
                                want[i],
                                "{label}: statement {i} ({}) diverged ({stream:#?})",
                                stream[i]
                            );
                        }
                        assert_eq!(
                            env_state(&env),
                            reference_state(&mut serial),
                            "{label}: final state diverged ({stream:#?})"
                        );
                    }
                }
            }
        }
    }
}

/// First-error equivalence on the snapshot path: a read-only batch whose
/// k-th statement fails must surface the same error, in the same
/// position, as the serial reference — the snapshot arm of the
/// error-timing contract.
#[test]
fn failing_read_batches_snapshot_matches_serial_error() {
    for case in 0..12u64 {
        for shards in [1usize, 2] {
            let mut rng = Rng::new(0xE44 ^ (case << 2) ^ shards as u64);
            let mut batch: Vec<String> = (0..rng.range(1, 5)).map(|_| arb_read(&mut rng)).collect();
            let at = rng.range(0, batch.len() as i64) as usize;
            batch.insert(at, "SELECT v FROM missing WHERE id = 1".to_string());

            let mut serial = reference_db();
            let serial_err = batch
                .iter()
                .find_map(|sql| serial.execute(sql).err())
                .expect("the injected read must fail");

            let env = backend(shards);
            let err = env
                .query_batch(&batch)
                .expect_err("snapshot batch must surface the read error");
            assert_eq!(
                err, serial_err,
                "case {case} shards={shards}: first error diverged: {batch:#?}"
            );
        }
    }
}

/// The dispatcher arm: concurrent read-only sessions ride the snapshot
/// path through the shared dispatcher while writer sessions churn
/// disjoint rows. Every reader's rows are rows no writer touches, so
/// each session's results must equal its own serial reference — while
/// the deployment actually serves snapshot batches underneath.
#[test]
fn dispatched_readers_on_snapshots_match_serial_under_writers() {
    use std::sync::Barrier;
    let env = fresh_env();
    let dispatcher = Arc::new(Dispatcher::new(env.clone()));
    let readers = 4usize;
    let writers = 2usize;
    let barrier = Arc::new(Barrier::new(readers + writers));

    // Readers own project ids 0..4 (rows writers never touch: writers
    // update only ids ≥ 30, which seed as project_id 6 and 7).
    let reader_handles: Vec<_> = (0..readers)
        .map(|t| {
            let d = Arc::clone(&dispatcher);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut serial = reference_db();
                let mut rng = Rng::new(0x5EAD ^ t as u64);
                let stream: Vec<String> = (0..10)
                    .map(|_| {
                        format!(
                            "SELECT id, title FROM issue WHERE project_id = {} ORDER BY id",
                            rng.range(0, 4)
                        )
                    })
                    .collect();
                let expected: Vec<_> = stream
                    .iter()
                    .map(|s| serial.execute(s).unwrap().result)
                    .collect();
                barrier.wait();
                let store = QueryStore::dispatched(d);
                let ids: Vec<_> = stream
                    .iter()
                    .map(|s| store.register(s.clone()).unwrap())
                    .collect();
                store.flush().unwrap();
                for (i, id) in ids.iter().enumerate() {
                    assert_eq!(
                        store.result(*id).unwrap(),
                        expected[i],
                        "reader {t} stmt {i} ({})",
                        stream[i]
                    );
                }
            })
        })
        .collect();
    let writer_handles: Vec<_> = (0..writers)
        .map(|t| {
            let d = Arc::clone(&dispatcher);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let store = QueryStore::dispatched(d);
                for round in 0..8 {
                    let id = 30 + (t as i64 * 5) + (round % 5);
                    store
                        .register(format!("UPDATE issue SET sev = {round} WHERE id = {id}"))
                        .unwrap();
                    store.flush().unwrap();
                }
            })
        })
        .collect();
    for h in reader_handles {
        h.join().unwrap();
    }
    for h in writer_handles {
        h.join().unwrap();
    }
    assert!(
        env.snapshot_batches() > 0,
        "readers must have been served from published snapshots: {:?}",
        env.stats()
    );
}
