//! Chaos equivalence, property-tested at the **query store** level:
//! random registration streams executed under a deterministic
//! fault-injected network (dropped trips, timeouts past the deadline,
//! per-shard outage windows) must produce per-statement results and
//! final database state identical to a fault-free statement-at-a-time
//! serial reference — across deferral on/off × fusion on/off ×
//! shards ∈ {1, 2, 4}, and through the multi-session dispatcher.
//!
//! Any *absorbable* fault schedule (one the bounded retry policy can
//! ride out) must be invisible except in the cost counters. Timed-out
//! write batches executed server-side replay through the at-most-once
//! journal, so effects land exactly once.
//!
//! Deterministic SplitMix64 cases (no third-party crates available);
//! failures print the generating seed and stream.

use std::sync::Arc;

use sloth_core::QueryStore;
use sloth_net::{CostModel, Dispatcher, FaultPlan, FaultStats, RetryPolicy, ShardedEnv, SimEnv};
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

/// A generous retry budget: the chaos plans below are absorbable under
/// it by construction (independent 12% drop + 6% timeout per trip).
fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        ..Default::default()
    }
}

/// The reference chaos plan for a case: transient drops and timeouts at
/// rates high enough that most streams hit several of each.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).drops(120).timeouts(60, 8)
}

/// One step of a registration stream: a statement to register, or a
/// force of the `n`-th registered statement so far.
#[derive(Debug, Clone)]
enum Op {
    Stmt(String),
    Force(usize),
}

/// A random write-heavy stream over valid statements only (genuine SQL
/// errors are never retried and have their own tests).
fn arb_stream(rng: &mut Rng, next_insert_id: &mut i64) -> Vec<Op> {
    let n = rng.range(3, 28);
    let mut ops = Vec::new();
    let mut registered = 0usize;
    for _ in 0..n {
        let pick = rng.range(0, 12);
        let op = match pick {
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
            10 if rng.range(0, 3) == 0 => Op::Stmt("COMMIT".to_string()),
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

/// Runs a stream under a fault plan and checks every registered
/// statement's result against the fault-free serial reference. Returns
/// the fault counters the run accumulated (read before the plan is
/// cleared — clearing zeroes them).
fn check_chaos_stream(ops: &[Op], env: SimEnv, plan: FaultPlan, label: &str) -> FaultStats {
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

    env.set_retry_policy(chaos_policy());
    env.set_faults(Some(plan));
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
    let fs = env.fault_stats();
    assert_eq!(
        fs.exhausted_batches, 0,
        "{label}: schedule was supposed to be absorbable: {fs:?}"
    );
    // Fingerprint over a quiet network so verification itself cannot
    // exhaust the retry budget.
    env.set_faults(None);
    assert_eq!(
        state_fingerprint(&env),
        state_fingerprint(&serial),
        "{label}: final state diverged (ops {ops:#?})"
    );
    fs
}

/// The capstone grid: chaos plans across deferral × fusion × shards.
/// Results and state must be byte-identical to the fault-free serial
/// reference, and the suite as a whole must actually absorb faults.
#[test]
fn chaotic_streams_match_fault_free_reference() {
    let mut absorbed = 0u64;
    for case in 0..12u64 {
        let mut rng = Rng::new(0xC4A0_5EED ^ case);
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
                    let fs = check_chaos_stream(&ops, env, chaos_plan(0xFA17 ^ case), &label);
                    absorbed += fs.injected_drops + fs.injected_timeouts;
                }
            }
        }
    }
    assert!(
        absorbed > 100,
        "the suite absorbed only {absorbed} faults — chaos is not firing"
    );
}

/// Shard outage windows: the fleet degrades fused probes around the out
/// shard and replica reads fail over, but once the window closes every
/// stream converges on the reference.
#[test]
fn shard_outage_windows_recover_to_reference() {
    let mut absorbed = 0u64;
    for case in 0..10u64 {
        let mut rng = Rng::new(0x7A6E ^ case);
        let mut next_id = 600;
        let ops = arb_stream(&mut rng, &mut next_id);
        for shards in [2usize, 4] {
            let env = fresh_sharded(shards);
            let out = (case as usize) % shards;
            let from = case % 3;
            let plan = FaultPlan::seeded(0xD011 ^ case).outage(out, from, from + 2);
            let label = format!("case {case} shards={shards} outage shard {out}");
            absorbed += check_chaos_stream(&ops, env, plan, &label).outage_errors;
        }
    }
    assert!(absorbed > 0, "no outage window was ever hit");
}

/// Timeout-heavy write streams: every timed-out batch executed
/// server-side and must replay through the journal, never re-applying a
/// write. The journal must actually be exercised across the suite.
#[test]
fn timeout_storms_apply_writes_exactly_once() {
    let mut journal_hits = 0u64;
    let mut deduped = 0u64;
    for case in 0..10u64 {
        let mut rng = Rng::new(0x7131E0 ^ case);
        let mut next_id = 800;
        let ops = arb_stream(&mut rng, &mut next_id);
        let env = fresh_env();
        let plan = FaultPlan::seeded(0xBEEF ^ case).timeouts(250, 8);
        let fs = check_chaos_stream(&ops, env, plan, &format!("case {case}"));
        journal_hits += fs.journal_hits;
        deduped += fs.deduped_writes;
    }
    assert!(journal_hits > 0, "no batch ever replayed from the journal");
    assert!(deduped > 0, "no ambiguous write was ever deduplicated");
}

/// Exhaustion is not the end of the session: after the store degrades
/// to eager-solo dispatch, later statements still execute correctly.
#[test]
fn exhausted_session_degrades_then_keeps_serving() {
    let env = fresh_env();
    env.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        ..Default::default()
    });
    env.set_faults(Some(FaultPlan::seeded(11).drops(1000)));
    let store = QueryStore::new(env.clone());
    let id = store
        .register("SELECT * FROM project WHERE id = 1".to_string())
        .unwrap();
    assert!(store.flush().is_err(), "a total blackout must exhaust");
    assert!(store.result(id).is_err());
    assert!(store.degraded(), "exhaustion trips the degradation ladder");

    // The network heals; the degraded session ships eagerly and serves
    // correct results without any further retry machinery.
    env.set_faults(None);
    let serial = fresh_env();
    for sql in [
        "UPDATE issue SET sev = 9 WHERE project_id = 3",
        "SELECT * FROM issue WHERE project_id = 3 ORDER BY id",
        "SELECT COUNT(*) FROM issue WHERE project_id = 3",
    ] {
        let id = store.register(sql.to_string()).unwrap();
        assert_eq!(
            store.result(id).unwrap(),
            serial.query(sql).unwrap(),
            "degraded result for {sql}"
        );
    }
    assert_eq!(state_fingerprint(&env), state_fingerprint(&serial));
}

/// Multi-session chaos through the shared dispatcher: sessions with
/// disjoint row ranges flush at once under a faulty network, and every
/// write still lands exactly once.
#[test]
fn dispatched_sessions_survive_chaos_with_exact_once_effects() {
    use std::sync::Barrier;
    let env = fresh_env();
    env.set_retry_policy(chaos_policy());
    env.set_faults(Some(
        FaultPlan::seeded(0x159A7C4).drops(100).timeouts(50, 8),
    ));
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
                let mut rng = Rng::new(0xCA05 ^ t as u64);
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
                serial
            })
        })
        .collect();
    let serials: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let fs = env.fault_stats();
    assert_eq!(
        fs.exhausted_batches, 0,
        "this schedule is absorbable: {fs:?}"
    );
    env.set_faults(None);
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

/// The chaos grid with the shared result cache switched on: hit-served
/// positions, journal replays and retry storms may interleave freely,
/// but every statement's result and the final state must still match
/// the fault-free, cache-off serial reference.
#[test]
fn chaotic_cached_streams_match_fault_free_reference() {
    let mut absorbed = 0u64;
    let mut fills = 0u64;
    for case in 0..8u64 {
        let mut rng = Rng::new(0xCAC4E ^ case);
        let mut next_id = 700;
        let ops = arb_stream(&mut rng, &mut next_id);
        for shards in [1usize, 2, 4] {
            let env = if shards == 1 {
                fresh_env()
            } else {
                fresh_sharded(shards)
            };
            env.set_result_cache(true);
            let label = format!("case {case} cache=on shards={shards}");
            let fs = check_chaos_stream(&ops, env.clone(), chaos_plan(0x5EED ^ case), &label);
            absorbed += fs.injected_drops + fs.injected_timeouts;
            let cs = env.result_cache_stats();
            fills += cs.fills;
        }
    }
    assert!(absorbed > 0, "chaos never fired under the cache");
    assert!(fills > 0, "the cache never filled under chaos");
}

/// A write whose reply times out executes server-side and replays
/// through the at-most-once journal. The cache must see that write
/// **exactly once** — at the surface where the journal proves it ran —
/// never zero times (stale entry survives) and never twice.
#[test]
fn journaled_timeout_write_invalidates_exactly_once() {
    let env = fresh_env();
    env.set_result_cache(true);
    let read = "SELECT sev FROM issue WHERE id = 3";
    let before = env.query(read).unwrap();
    assert_eq!(env.result_cache_stats().fills, 1);

    // The trip sequence starts when the plan is installed: trip 0 is the
    // write's first attempt — inflated past the deadline, so the batch
    // executes but the reply is lost; the retry dedups via the journal.
    env.set_faults(Some(FaultPlan::seeded(2).timeout_at(0)));
    env.query("UPDATE issue SET sev = 9 WHERE id = 3").unwrap();
    let fs = env.fault_stats();
    assert_eq!(fs.injected_timeouts, 1);
    assert_eq!(fs.deduped_writes, 1, "the replay deduplicated");
    let cs = env.result_cache_stats();
    assert_eq!(
        cs.invalidations, 1,
        "the journal-proved write invalidated exactly once: {cs:?}"
    );
    assert_eq!(cs.precise_invalidations, 1, "both sides pin `id`");

    env.set_faults(None);
    let after = env.query(read).unwrap();
    assert_ne!(before, after, "the repeat read must not be served stale");
    assert_eq!(after.rows[0][0], Value::Int(9));
}

/// A degraded session (one that exhausted its retry budget on an
/// ambiguous batch) stops trusting the shared cache's hit path: its
/// reads always ship, though its writes still invalidate everyone
/// else's entries.
#[test]
fn degraded_session_serves_no_stale_hits() {
    let env = fresh_env();
    env.set_result_cache(true);
    let read = "SELECT sev FROM issue WHERE id = 5";

    // A healthy session fills the entry.
    let healthy = QueryStore::new(env.clone());
    let id = healthy.register(read.to_string()).unwrap();
    healthy.result(id).unwrap();
    assert!(env.result_cache_stats().fills >= 1);

    // A second session blacks out mid-write and degrades. The exhausted
    // batch carried a write on the cached row, so the conservative
    // invalidation already killed the entry.
    env.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        ..Default::default()
    });
    env.set_faults(Some(FaultPlan::seeded(11).drops(1000)));
    let store = QueryStore::new(env.clone());
    store
        .register("UPDATE issue SET sev = 8 WHERE id = 5".to_string())
        .unwrap();
    assert!(store.flush().is_err(), "a total blackout must exhaust");
    assert!(store.degraded());
    assert!(
        env.result_cache_stats().invalidations >= 1,
        "ambiguous failure must invalidate conservatively"
    );

    // The network heals. The degraded session re-issues the write and
    // re-reads: it must observe its own write, and it must do so over
    // the wire — the hit counter may not move for a degraded session.
    env.set_faults(None);
    let w = store
        .register("UPDATE issue SET sev = 8 WHERE id = 5".to_string())
        .unwrap();
    store.result(w).unwrap();
    let hits_before = env.result_cache_stats().hits;
    let r = store.register(read.to_string()).unwrap();
    let got = store.result(r).unwrap();
    assert_eq!(got.rows[0][0], Value::Int(8));
    assert_eq!(
        env.result_cache_stats().hits,
        hits_before,
        "a degraded session must never be served from the cache"
    );

    // The healthy session's repeat read re-fetches fresh (its old entry
    // died with the degraded session's write).
    let id2 = healthy.register(read.to_string()).unwrap();
    assert_eq!(healthy.result(id2).unwrap().rows[0][0], Value::Int(8));
}

/// With faults disabled the whole stack must reproduce fault-free cost
/// accounting bit-for-bit — installing and clearing a plan leaves no
/// residue in any counter.
#[test]
fn cleared_faults_leave_no_accounting_residue() {
    let mut rng = Rng::new(0x0FF);
    let mut next_id = 950;
    let ops = arb_stream(&mut rng, &mut next_id);
    let run = |env: SimEnv| {
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
        env.stats()
    };
    let toggled = fresh_env();
    toggled.set_faults(Some(FaultPlan::seeded(7).drops(500)));
    toggled.set_faults(None);
    assert_eq!(run(toggled), run(fresh_env()));
}
