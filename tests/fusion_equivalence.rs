//! Fusion equivalence, property-tested at the batch-driver level: for
//! random batches of point lookups (mixed with scans, aggregates and
//! writes), execution with fusion enabled must produce per-query result
//! sets identical to execution with fusion disabled — same rows, same
//! order, same errors, same final database state.
//!
//! Deterministic SplitMix64 cases (no third-party crates available);
//! failures print the generating seed's batch.

use sloth_net::SimEnv;
use sloth_sql::Value;

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

/// Two tables; `issue.project_id` carries a secondary index so fused
/// lookups take the K-probe path, `issue.title` exercises the unindexed
/// demux path.
fn fresh_env() -> SimEnv {
    let env = SimEnv::default_env();
    env.seed_sql("CREATE TABLE project (id INT PRIMARY KEY, name TEXT)")
        .unwrap();
    env.seed_sql("CREATE TABLE issue (id INT PRIMARY KEY, project_id INT, title TEXT, sev INT)")
        .unwrap();
    env.seed_sql("CREATE INDEX ON issue (project_id)").unwrap();
    for p in 0..8 {
        env.seed_sql(&format!("INSERT INTO project VALUES ({p}, 'proj{p}')"))
            .unwrap();
    }
    for i in 0..40 {
        env.seed_sql(&format!(
            "INSERT INTO issue VALUES ({i}, {}, 'bug{}', {})",
            i % 8,
            i % 5,
            i % 4
        ))
        .unwrap();
    }
    env
}

/// A random batch statement, biased towards the fusable point-lookup
/// patterns an ORM page emits.
fn arb_statement(rng: &mut Rng) -> String {
    match rng.range(0, 12) {
        // Fusable point lookups (several templates).
        0..=3 => format!(
            "SELECT * FROM issue WHERE project_id = {} ORDER BY id",
            rng.range(0, 10)
        ),
        4 | 5 => format!("SELECT * FROM project WHERE id = {}", rng.range(0, 10)),
        6 => format!(
            "SELECT id, sev FROM issue WHERE project_id = {}",
            rng.range(0, 10)
        ),
        // Same template, different formatting (dedup/fusion must both cope).
        7 => format!(
            "select * from ISSUE where PROJECT_ID = {}  ORDER BY id",
            rng.range(0, 10)
        ),
        // Unfusable shapes sharing the batch.
        8 => format!(
            "SELECT COUNT(*) FROM issue WHERE project_id = {}",
            rng.range(0, 10)
        ),
        9 => format!(
            "SELECT * FROM issue WHERE sev >= {} ORDER BY id LIMIT 7",
            rng.range(0, 4)
        ),
        10 => format!(
            "SELECT title FROM issue WHERE title = 'bug{}'",
            rng.range(0, 6)
        ),
        // Writes: force segment boundaries inside the batch.
        _ => format!(
            "UPDATE issue SET sev = {} WHERE project_id = {}",
            rng.range(0, 9),
            rng.range(0, 8)
        ),
    }
}

fn db_state(env: &SimEnv) -> Vec<Vec<Value>> {
    env.seed(|db| {
        db.execute("SELECT id, project_id, title, sev FROM issue ORDER BY id")
            .unwrap()
            .result
            .rows
    })
}

/// Random batches: fused results == unfused results, row for row.
#[test]
fn random_batches_fused_equals_unfused() {
    for case in 0..200u64 {
        let mut rng = Rng::new(0xF05E_D00D ^ case);
        let n = rng.range(1, 25);
        let batch: Vec<String> = (0..n).map(|_| arb_statement(&mut rng)).collect();

        let on = fresh_env();
        let off = fresh_env();
        off.set_fusion(false);
        let r_on = on.query_batch(&batch);
        let r_off = off.query_batch(&batch);
        match (r_on, r_off) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len());
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(x, y, "statement {i} of batch {batch:#?}");
                }
                assert_eq!(db_state(&on), db_state(&off), "batch {batch:#?}");
                assert_eq!(
                    on.stats().round_trips,
                    off.stats().round_trips,
                    "fusion must not change round trips"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "batch {batch:#?}"),
            (a, b) => panic!("one mode failed: on={a:?} off={b:?} batch {batch:#?}"),
        }
    }
}

/// [`fresh_env`] plus `item`, 150 rows a key-chunk batch probes.
fn chunk_env() -> SimEnv {
    let env = fresh_env();
    env.seed_sql("CREATE TABLE item (id INT PRIMARY KEY, label TEXT)")
        .unwrap();
    let rows: Vec<String> = (0..150).map(|i| format!("({i}, 'item{i}')")).collect();
    env.seed_sql(&format!("INSERT INTO item VALUES {}", rows.join(", ")))
        .unwrap();
    env
}

/// Chunked fused probes (bounded `IN` arity) must be invisible: batches
/// of 65–200 distinct keys of one template — past the 64-value cap, so
/// the group runs as two to four probes — interleaved with the suite's
/// random statements (writes included) demux identically with fusion on
/// and off, across chunk boundaries and write segments.
#[test]
fn random_batches_demux_equivalently_across_chunk_boundaries() {
    for case in 0..40u64 {
        let mut rng = Rng::new(0xC4_0BEE ^ case);
        let keys = rng.range(65, 201);
        // Distinct keys, shuffled; those past the seeded rows probe
        // nothing.
        let mut ids: Vec<i64> = (0..keys).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.range(0, i as i64 + 1) as usize);
        }
        let mut batch: Vec<String> = Vec::new();
        for id in ids {
            if rng.range(0, 4) == 0 {
                batch.push(arb_statement(&mut rng));
            }
            batch.push(format!("SELECT * FROM item WHERE id = {id}"));
        }
        let on = chunk_env();
        let off = chunk_env();
        off.set_fusion(false);
        match (on.query_batch(&batch), off.query_batch(&batch)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "case {case}: {batch:#?}");
                assert_eq!(db_state(&on), db_state(&off), "case {case}");
                assert_eq!(on.stats().round_trips, off.stats().round_trips);
                assert!(
                    on.stats().fused_queries >= keys as u64,
                    "case {case}: every key joined the item group"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "case {case}: {batch:#?}"),
            (a, b) => panic!("one mode failed: on={a:?} off={b:?} {batch:#?}"),
        }
    }
}

/// Pure point-lookup batches — the hot ORM pattern — must fuse (not just
/// stay equivalent) and save simulated database time at scale.
#[test]
fn point_lookup_batches_actually_fuse() {
    let mut rng = Rng::new(42);
    let batch: Vec<String> = (0..30)
        .map(|_| {
            format!(
                "SELECT * FROM issue WHERE project_id = {} ORDER BY id",
                rng.range(0, 8)
            )
        })
        .collect();
    let on = fresh_env();
    let off = fresh_env();
    off.set_fusion(false);
    let a = on.query_batch(&batch).unwrap();
    let b = off.query_batch(&batch).unwrap();
    assert_eq!(a, b);
    let s = on.stats();
    assert_eq!(s.fused_queries, 30, "every lookup joined the fused group");
    assert_eq!(s.fused_groups, 1);
    assert!(s.db_ns < off.stats().db_ns);
}

/// Conflicting writes split fusion segments: a lookup of the written rows
/// after a write sees the write, with and without fusion.
#[test]
fn writes_split_fusion_segments() {
    let batch = vec![
        "SELECT * FROM issue WHERE project_id = 1 ORDER BY id".to_string(),
        "SELECT * FROM issue WHERE project_id = 2 ORDER BY id".to_string(),
        "UPDATE issue SET sev = 99 WHERE project_id = 1".to_string(),
        "SELECT * FROM issue WHERE project_id = 1 ORDER BY id".to_string(),
        "SELECT * FROM issue WHERE project_id = 3 ORDER BY id".to_string(),
    ];
    let on = fresh_env();
    let off = fresh_env();
    off.set_fusion(false);
    let a = on.query_batch(&batch).unwrap();
    let b = off.query_batch(&batch).unwrap();
    assert_eq!(a, b);
    // Pre-write lookup kept the old severity; post-write lookup sees 99.
    let sev_before = a[0].get(0, "sev").unwrap().as_i64().unwrap();
    let sev_after = a[3].get(0, "sev").unwrap().as_i64().unwrap();
    assert_ne!(sev_before, 99);
    assert_eq!(sev_after, 99);
    // Two groups: q3 probes the rows the write touched, so it must not
    // join {q0, q1} across the write; it opens the second group that q4
    // then joins (q4 is disjoint from the write and rides along).
    assert_eq!(on.stats().fused_groups, 2);
    assert_eq!(on.stats().fused_queries, 4);
}

/// The write-aware planner fuses ACROSS disjoint-footprint writes: the
/// probes around a write on another project land in one group, at results
/// identical to fusion-off (which still executes in batch order).
#[test]
fn disjoint_writes_do_not_split_fusion() {
    let batch = vec![
        "SELECT * FROM issue WHERE project_id = 1 ORDER BY id".to_string(),
        "UPDATE issue SET sev = 99 WHERE project_id = 7".to_string(),
        "SELECT * FROM issue WHERE project_id = 2 ORDER BY id".to_string(),
        "SELECT * FROM issue WHERE project_id = 3 ORDER BY id".to_string(),
    ];
    let on = fresh_env();
    let off = fresh_env();
    off.set_fusion(false);
    let a = on.query_batch(&batch).unwrap();
    let b = off.query_batch(&batch).unwrap();
    assert_eq!(a, b);
    assert_eq!(db_state(&on), db_state(&off));
    assert_eq!(
        on.stats().fused_groups,
        1,
        "one probe spans the disjoint write"
    );
    assert_eq!(on.stats().fused_queries, 3);
}

/// A write-heavy random statement (≥ 30 % writes when mixed 40/60 with
/// `arb_statement`), spanning overlapping and disjoint tables/keys:
/// routed updates, cross-column updates, inserts (named and positional
/// columns), and deletes of rows another statement may probe.
fn arb_write(rng: &mut Rng, next_insert_id: &mut i64) -> String {
    match rng.range(0, 7) {
        6 => format!("DELETE FROM issue WHERE id = {}", rng.range(30, 50)),
        0 | 1 => format!(
            "UPDATE issue SET sev = {} WHERE project_id = {}",
            rng.range(0, 9),
            rng.range(0, 10)
        ),
        2 => format!(
            "UPDATE issue SET title = 'retitled{}' WHERE id = {}",
            rng.range(0, 5),
            rng.range(0, 45)
        ),
        3 => format!(
            "UPDATE project SET name = 'renamed{}' WHERE id = {}",
            rng.range(0, 4),
            rng.range(0, 10)
        ),
        4 => {
            let id = *next_insert_id;
            *next_insert_id += 1;
            format!(
                "INSERT INTO issue (id, project_id, title, sev) VALUES ({id}, {}, 'w{id}', {})",
                rng.range(0, 10),
                rng.range(0, 4)
            )
        }
        _ => {
            let id = *next_insert_id;
            *next_insert_id += 1;
            format!(
                "INSERT INTO issue VALUES ({id}, {}, 'p{id}', {})",
                rng.range(0, 10),
                rng.range(0, 4)
            )
        }
    }
}

/// The write-aware segment planner against the **serial reference**:
/// random write-heavy batches (≥ 30 % writes, overlapping and disjoint
/// footprints) must produce per-statement results, final database state
/// and first-error behaviour identical to executing the same statements
/// one at a time — with fusion on and off.
#[test]
fn write_heavy_batches_match_serial_reference() {
    for case in 0..150u64 {
        let mut rng = Rng::new(0xBEEF_CAFE ^ case);
        let mut next_id = 500;
        let n = rng.range(2, 24);
        let batch: Vec<String> = (0..n)
            .map(|_| {
                if rng.range(0, 10) < 4 {
                    arb_write(&mut rng, &mut next_id)
                } else {
                    arb_statement(&mut rng)
                }
            })
            .collect();

        // Serial reference: one statement per round trip, stop at the
        // first error (exactly what the batch driver's semantics promise).
        let serial = fresh_env();
        let mut serial_results = Vec::new();
        let mut serial_err = None;
        for sql in &batch {
            match serial.query(sql) {
                Ok(rs) => serial_results.push(rs),
                Err(e) => {
                    serial_err = Some(e);
                    break;
                }
            }
        }

        for fusion in [true, false] {
            let env = fresh_env();
            env.set_fusion(fusion);
            match (env.query_batch(&batch), &serial_err) {
                (Ok(results), None) => {
                    assert_eq!(results, serial_results, "fusion={fusion}: {batch:#?}");
                    assert_eq!(
                        db_state(&env),
                        db_state(&serial),
                        "state diverged (fusion={fusion}): {batch:#?}"
                    );
                }
                (Err(a), Some(b)) => {
                    assert_eq!(&a, b, "first error (fusion={fusion}): {batch:#?}");
                    // Writes before the failing statement applied exactly
                    // as the serial prefix did.
                    assert_eq!(
                        db_state(&env),
                        db_state(&serial),
                        "failed-batch state (fusion={fusion}): {batch:#?}"
                    );
                }
                (a, b) => panic!(
                    "batch vs serial disagree on failure: batch={a:?} serial={b:?} {batch:#?}"
                ),
            }
        }
    }
}
