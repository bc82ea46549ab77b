//! Selective-laziness equivalence, property-tested at the **query store**
//! level: random write-heavy registration streams (reads, disjoint and
//! conflicting writes, interleaved forces) must produce per-statement
//! results, final database state and error behaviour identical to the
//! statement-at-a-time serial reference — across deferral on/off ×
//! fusion on/off × shards ∈ {1, 2, 4}, and through the multi-session
//! dispatcher.
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

/// A random write-heavy stream over valid statements only (error timing
/// has its own dedicated test below).
fn arb_stream(rng: &mut Rng, next_insert_id: &mut i64) -> Vec<Op> {
    let n = rng.range(3, 28);
    let mut ops = Vec::new();
    let mut registered = 0usize;
    for _ in 0..n {
        let pick = rng.range(0, 12);
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
            // Occasional transaction boundary: a barrier drain.
            10 if rng.range(0, 3) == 0 => Op::Stmt("COMMIT".to_string()),
            // Force a random already-registered statement.
            _ if registered > 0 => Op::Force(rng.range(0, registered as i64) as usize),
            _ => Op::Stmt(format!(
                "SELECT * FROM project WHERE id = {}",
                rng.range(0, 8)
            )),
        };
        if matches!(op, Op::Stmt(_)) {
            registered += 1;
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

/// Runs a stream through one store configuration and checks every
/// registered statement's result against the serial reference.
fn check_stream(ops: &[Op], env: SimEnv, label: &str) {
    // Serial reference: one statement per round trip in registration
    // order (forces change nothing serially).
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

/// The main grid: deferral × fusion × shards, 40 random streams each.
#[test]
fn random_streams_match_serial_reference() {
    for case in 0..40u64 {
        let mut rng = Rng::new(0xDEFE_11A1 ^ case);
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
                    env.set_write_deferral(deferral);
                    env.set_fusion(fusion);
                    let label =
                        format!("case {case} deferral={deferral} fusion={fusion} shards={shards}");
                    check_stream(&ops, env, &label);
                }
            }
        }
    }
}

/// Deferral must never cost round trips, and across the suite it must
/// strictly save them (the whole point).
#[test]
fn deferral_never_adds_round_trips() {
    let mut saved_total = 0i64;
    for case in 0..40u64 {
        let mut rng = Rng::new(0x5A73 ^ case);
        let mut next_id = 900;
        let ops = arb_stream(&mut rng, &mut next_id);
        let mut trips = Vec::new();
        for deferral in [false, true] {
            let env = fresh_env();
            env.set_write_deferral(deferral);
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
        }
        assert!(
            trips[1] <= trips[0],
            "case {case}: deferral added trips ({} vs {}): {ops:#?}",
            trips[1],
            trips[0]
        );
        saved_total += trips[0] as i64 - trips[1] as i64;
    }
    assert!(saved_total > 0, "deferral saved nothing across the suite");
}

/// Error timing: a failing write as the *last* statement defers and its
/// error surfaces at the drain, with everything before it — results and
/// applied writes — matching the serial reference exactly.
#[test]
fn trailing_failing_write_matches_serial_prefix() {
    // Over a private dispatcher and over a shared one: the same code, and
    // the arm the serving stack runs must hold the property too.
    let arms: [fn(SimEnv) -> QueryStore; 2] = [QueryStore::new, |e| {
        QueryStore::dispatched(Arc::new(Dispatcher::new(e)))
    }];
    for (case, store_over) in (0..20u64).flat_map(|case| arms.map(|arm| (case, arm))) {
        let mut rng = Rng::new(0xBAD_F00D ^ case);
        let mut next_id = 700;
        let mut ops = arb_stream(&mut rng, &mut next_id);
        ops.push(Op::Stmt(
            "UPDATE missing SET v = 1 WHERE id = 1".to_string(),
        ));

        let serial = fresh_env();
        let mut serial_results = Vec::new();
        let mut serial_err = None;
        for op in &ops {
            if let Op::Stmt(sql) = op {
                match serial.query(sql) {
                    Ok(rs) => serial_results.push(rs),
                    Err(e) => {
                        serial_err = Some(e);
                        break;
                    }
                }
            }
        }
        let serial_err = serial_err.expect("the trailing write must fail");

        let env = fresh_env();
        let store = store_over(env.clone());
        let mut ids = Vec::new();
        for op in &ops {
            match op {
                Op::Stmt(sql) => match store.register(sql.clone()) {
                    Ok(id) => ids.push(id),
                    Err(e) => panic!("case {case}: only the drain may error, got {e} at register"),
                },
                Op::Force(i) => {
                    store.result(ids[*i]).unwrap();
                }
            }
        }
        let err = store.flush().expect_err("drain surfaces the write error");
        assert_eq!(err, serial_err, "case {case}: first error diverged");
        for (i, rs) in serial_results.iter().enumerate() {
            assert_eq!(
                &store.result(ids[i]).unwrap(),
                rs,
                "case {case}: statement {i} diverged"
            );
        }
        assert_eq!(
            state_fingerprint(&env),
            state_fingerprint(&serial),
            "case {case}: state after failing drain diverged"
        );
    }
}

/// Multi-session deferral through the shared dispatcher: sessions with
/// disjoint row ranges defer their writes, flush at once, and every effect
/// applies exactly once — per-session results identical to each
/// session's own serial reference.
#[test]
fn dispatched_sessions_defer_with_exact_once_effects() {
    use std::sync::Barrier;
    let env = fresh_env();
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
                let mut rng = Rng::new(0xC0FFEE ^ t as u64);
                // Each session bumps sev on its own rows and reads them;
                // the serial reference replays the same ops alone.
                let serial = fresh_env();
                let mut stream = Vec::new();
                for _ in 0..12 {
                    let row = base + rng.range(0, rows_per);
                    if rng.range(0, 3) == 0 {
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
                (store.stats().deferred_writes, serial)
            })
        })
        .collect();
    let mut deferred_total = 0u64;
    let mut serials = Vec::new();
    for h in handles {
        let (deferred, serial) = h.join().unwrap();
        deferred_total += deferred;
        serials.push(serial);
    }
    assert!(deferred_total > 0, "sessions must actually defer writes");
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
