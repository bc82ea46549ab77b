//! Sharded equivalence, property-tested at the batch-driver level: for
//! random batches of mixed reads and writes, a [`ShardedEnv`] with
//! N ∈ {1, 2, 4} shards must produce per-query result sets identical to
//! the serial reference — same rows, same row order, same first error,
//! same final database state — with fusion on and off. The reference is
//! the engine itself: a bare [`sloth_sql::Database`] driven one
//! `execute` at a time up to the first error, sharing no admission,
//! planning, routing or batch code with the driver under test (the
//! single server *is* a fleet of one).
//!
//! The statement generator is biased towards the router's interesting
//! shapes: shard-key point lookups (single-shard route), shard-key `IN`
//! lists (subset route / fused sub-probe splits), full scans and
//! `ORDER BY`/`LIMIT` (scatter + order-preserving merge), decomposable
//! and distinct aggregates (re-aggregation), replicated-table traffic,
//! and writes that route, broadcast, or split per tuple.
//!
//! Deterministic SplitMix64 cases (no third-party crates available);
//! failures print the generating batch.

use sloth_net::{CostModel, ShardStats, ShardedEnv, SimEnv};
use sloth_sql::{Database, ResultSet, ShardSpec, SqlError, Value};

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

/// `issue` is sharded by `project_id` (a non-PK key, so PK lookups
/// scatter and key lookups route); `project` is replicated.
fn spec() -> ShardSpec {
    ShardSpec::new().shard("issue", "project_id")
}

fn seed_statements() -> Vec<String> {
    let mut sqls = vec![
        "CREATE TABLE project (id INT PRIMARY KEY, name TEXT)".to_string(),
        "CREATE TABLE issue (id INT PRIMARY KEY, project_id INT, title TEXT, sev INT)".to_string(),
        "CREATE INDEX ON issue (project_id)".to_string(),
    ];
    sqls.extend((0..8).map(|p| format!("INSERT INTO project VALUES ({p}, 'proj{p}')")));
    sqls.extend((0..40).map(|i| {
        format!(
            "INSERT INTO issue VALUES ({i}, {}, 'bug{}', {})",
            i % 8,
            i % 5,
            i % 4
        )
    }));
    sqls
}

fn seed(env: &SimEnv) {
    for sql in seed_statements() {
        env.seed_sql(&sql).unwrap();
    }
}

/// The serial reference: the seeded engine, nothing of the driver.
fn reference_db() -> Database {
    let mut db = Database::new();
    for sql in seed_statements() {
        db.execute(&sql).unwrap();
    }
    db
}

/// `batch` one statement at a time on the reference, up to the first
/// error — what the batch driver's semantics promise.
fn serial(db: &mut Database, batch: &[String]) -> Result<Vec<ResultSet>, SqlError> {
    batch
        .iter()
        .map(|sql| db.execute(sql).map(|out| out.result))
        .collect()
}

fn fleet(n: usize) -> ShardedEnv {
    let env = ShardedEnv::new(CostModel::default(), spec(), n);
    seed(&env.handle());
    env
}

/// A random batch statement, biased towards the shapes the router has to
/// get right.
fn arb_statement(rng: &mut Rng, next_insert_id: &mut i64) -> String {
    match rng.range(0, 18) {
        // Shard-key point lookups — single-shard routes and, repeated in
        // one batch, fused sub-probe splits.
        0..=3 => format!(
            "SELECT * FROM issue WHERE project_id = {} ORDER BY id",
            rng.range(0, 10)
        ),
        // PK lookups on the sharded table: the key is NOT the shard key,
        // so these scatter (and may fuse into a scattered probe).
        4 | 5 => format!("SELECT title FROM issue WHERE id = {}", rng.range(0, 45)),
        // Replicated-table lookups.
        6 => format!("SELECT * FROM project WHERE id = {}", rng.range(0, 10)),
        // Shard-key IN lists: subset routes.
        7 => format!(
            "SELECT id, title FROM issue WHERE project_id IN ({}, {}, {}) ORDER BY sev DESC, id",
            rng.range(0, 10),
            rng.range(0, 10),
            rng.range(0, 10)
        ),
        // Scatter + order-preserving merge, with and without LIMIT.
        8 => "SELECT * FROM issue ORDER BY title, id".to_string(),
        9 => format!(
            "SELECT id FROM issue WHERE sev >= {} ORDER BY id DESC LIMIT 6",
            rng.range(0, 4)
        ),
        10 => format!("SELECT * FROM issue WHERE sev = {}", rng.range(0, 5)),
        // Re-aggregation paths.
        11 => format!(
            "SELECT COUNT(*) FROM issue WHERE sev >= {}",
            rng.range(0, 4)
        ),
        12 => "SELECT SUM(sev) FROM issue".to_string(),
        13 => "SELECT MAX(id) FROM issue".to_string(),
        14 => "SELECT COUNT(DISTINCT title) FROM issue".to_string(),
        // Writes: routed (key-pinned), broadcast (unpinned), replicated.
        15 => format!(
            "UPDATE issue SET sev = {} WHERE project_id = {}",
            rng.range(0, 9),
            rng.range(0, 8)
        ),
        16 => format!(
            "UPDATE issue SET sev = sev + 1 WHERE id < {}",
            rng.range(0, 45)
        ),
        // Inserts split per tuple across shards.
        _ => {
            let id = *next_insert_id;
            *next_insert_id += 2;
            format!(
                "INSERT INTO issue VALUES ({id}, {}, 'new{id}', {}), ({}, {}, 'new{}', {})",
                rng.range(0, 10),
                rng.range(0, 4),
                id + 1,
                rng.range(0, 10),
                id + 1,
                rng.range(0, 4)
            )
        }
    }
}

/// Final database state, read through `query` (on a fleet, the scatter
/// merge runs one last time).
fn db_state(mut query: impl FnMut(&str) -> ResultSet) -> Vec<Vec<Value>> {
    let mut state = query("SELECT id, project_id, title, sev FROM issue ORDER BY id").rows;
    state.extend(query("SELECT id, name FROM project ORDER BY id").rows);
    state
}

fn fleet_state(fleet: &ShardedEnv) -> Vec<Vec<Value>> {
    db_state(|sql| fleet.query(sql).unwrap())
}

fn reference_state(db: &mut Database) -> Vec<Vec<Value>> {
    db_state(|sql| db.execute(sql).unwrap().result)
}

/// One batch against the serial reference at every fleet size, fusion on
/// and off: the same answers or the same first error, the same final
/// state, one round trip.
fn assert_batch_matches_serial(batch: &[String], label: &str) {
    let mut reference = reference_db();
    let want = serial(&mut reference, batch);
    for n in [1usize, 2, 4] {
        for fusion in [true, false] {
            let sharded = fleet(n);
            sharded.set_fusion(fusion);
            let got = sharded.query_batch(batch);
            assert_eq!(
                sharded.stats().round_trips,
                1,
                "{label}: one round trip at {n} shards"
            );
            match (&want, got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                        assert_eq!(
                            x, y,
                            "{label}: statement {i} at {n} shards (fusion {fusion}): {batch:#?}"
                        );
                    }
                }
                (Err(a), Err(b)) => assert_eq!(
                    a, &b,
                    "{label}: first error at {n} shards (fusion {fusion}): {batch:#?}"
                ),
                (a, b) => panic!("{label}: serial={a:?} sharded={b:?} batch {batch:#?}"),
            }
            // Writes before a failing statement applied exactly as the
            // serial prefix did.
            assert_eq!(
                fleet_state(&sharded),
                reference_state(&mut reference),
                "{label}: final state at {n} shards (fusion {fusion}): {batch:#?}"
            );
        }
    }
}

#[test]
fn random_batches_sharded_equals_single() {
    for case in 0..120u64 {
        let mut rng = Rng::new(0x5AADD ^ (case << 3));
        let mut next_id = 100;
        let len = rng.range(1, 22);
        let batch: Vec<String> = (0..len)
            .map(|_| arb_statement(&mut rng, &mut next_id))
            .collect();
        assert_batch_matches_serial(&batch, &format!("case {case}"));
    }
}

/// Write-heavy batches (≥ 30 % writes, overlapping and disjoint tables
/// and keys) under the **write-aware segment planner**: every fleet size
/// must still match the serial reference statement for statement —
/// results, row order, final state, first error — with fusion on and
/// off. Fused groups may cross disjoint-footprint writes, and the router
/// must agree with the engine about what every statement sees.
#[test]
fn write_heavy_batches_sharded_equals_single() {
    for case in 0..80u64 {
        let mut rng = Rng::new(0x3217E817 ^ (case << 4));
        let mut next_id = 300;
        let len = rng.range(3, 20);
        let batch: Vec<String> = (0..len)
            .map(|_| {
                if rng.range(0, 10) < 4 {
                    arb_write_statement(&mut rng, &mut next_id)
                } else {
                    arb_statement(&mut rng, &mut next_id)
                }
            })
            .collect();
        assert_batch_matches_serial(&batch, &format!("write-mix case {case}"));
    }
}

/// Write-biased statements for the write-mix suite: routed and broadcast
/// updates, deletes, and inserts that overlap the read templates'
/// key ranges (same `project_id` space) or miss them entirely.
fn arb_write_statement(rng: &mut Rng, next_insert_id: &mut i64) -> String {
    match rng.range(0, 6) {
        0 | 1 => format!(
            "UPDATE issue SET sev = {} WHERE project_id = {}",
            rng.range(0, 9),
            rng.range(0, 10)
        ),
        2 => format!(
            "UPDATE issue SET title = 'wt{}' WHERE id = {}",
            rng.range(0, 6),
            rng.range(0, 45)
        ),
        3 => format!("DELETE FROM issue WHERE id = {}", rng.range(30, 48)),
        4 => format!(
            "UPDATE project SET name = 'wp{}' WHERE id = {}",
            rng.range(0, 5),
            rng.range(0, 10)
        ),
        _ => {
            let id = *next_insert_id;
            *next_insert_id += 1;
            format!(
                "INSERT INTO issue (id, project_id, title, sev) VALUES ({id}, {}, 'wm{id}', {})",
                rng.range(0, 10),
                rng.range(0, 4)
            )
        }
    }
}

/// The hot ORM pattern at fleet scale: same-template point lookups on the
/// shard key must split into sub-probes and cut database time vs one
/// server, at identical results and round trips.
#[test]
fn fused_subprobe_split_saves_db_time() {
    let mut rng = Rng::new(7);
    let batch: Vec<String> = (0..32)
        .map(|_| {
            format!(
                "SELECT * FROM issue WHERE project_id = {} ORDER BY id",
                rng.range(0, 8)
            )
        })
        .collect();
    let one = fleet(1);
    let four = fleet(4);
    let a = one.query_batch(&batch).unwrap();
    let b = four.query_batch(&batch).unwrap();
    assert_eq!(a, b);
    assert_eq!(one.stats().round_trips, four.stats().round_trips);
    assert_eq!(four.stats().fused_queries, 32);
    assert!(
        four.shard_stats().fused_subprobes > 1,
        "probe split across shards"
    );
    assert!(
        four.stats().db_ns < one.stats().db_ns,
        "4 shards {} ≥ 1 shard {}",
        four.stats().db_ns,
        one.stats().db_ns
    );
}

/// One database routes nothing. Rows a deployment was handed — by
/// `from_database` or `seed(|db| …)` — keep the ids the engine gave them,
/// so later inserts neither collide with them nor reorder them; and a
/// fleet of one keeps no router counters, lets a shard key be updated and
/// answers the join four shards refuse.
#[test]
fn one_database_runs_every_statement_as_written() {
    let inserts = [
        "INSERT INTO issue VALUES (100, 3, 'late', 1)",
        "INSERT INTO issue (id, project_id, title, sev) VALUES (101, 9, 'later', 2)",
    ];
    let mut reference = reference_db();
    for sql in inserts {
        reference.execute(sql).unwrap();
    }
    let scan = "SELECT * FROM issue";
    let want = reference.execute(scan).unwrap().result;
    let handed = SimEnv::from_database(reference_db(), CostModel::default());
    let seeded = SimEnv::default_env();
    seeded.seed(|db| {
        for sql in seed_statements() {
            db.execute(&sql).unwrap();
        }
    });
    for env in [handed, seeded] {
        for sql in inserts {
            env.query(sql).unwrap();
        }
        let got = env.query(scan).unwrap();
        assert_eq!(got, want, "insertion order");
        assert_eq!(got.rows[41][0], Value::Int(101));
    }

    let spec = ShardSpec::new()
        .shard("issue", "project_id")
        .shard("project", "name");
    let join = "SELECT i.title, p.name FROM issue i JOIN project p ON i.project_id = p.id \
                ORDER BY i.id";
    let rekey = "UPDATE issue SET project_id = 0 WHERE project_id = 1";
    let one = ShardedEnv::new(CostModel::default(), spec.clone(), 1);
    seed(&one.handle());
    let mut reference = reference_db();
    let batch: Vec<String> = [rekey, join, "SELECT COUNT(*) FROM issue WHERE id = 3"]
        .map(String::from)
        .to_vec();
    assert_eq!(
        one.query_batch(&batch).unwrap(),
        serial(&mut reference, &batch).unwrap()
    );
    assert_eq!(
        one.shard_stats(),
        ShardStats {
            statements: vec![0],
            db_ns: vec![0],
            ..ShardStats::default()
        },
        "nothing routed"
    );
    let four = ShardedEnv::new(CostModel::default(), spec, 4);
    seed(&four.handle());
    let err = four.query(join).unwrap_err();
    assert!(err.to_string().contains("cross-shard join"), "{err}");
    let err = four.query(rekey).unwrap_err();
    assert!(err.to_string().contains("shard key"), "{err}");
}
