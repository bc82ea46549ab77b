//! The deployment's **front door**: where every session's flush enters.
//!
//! A query store flushes through a [`Dispatcher`] — a private one, or one
//! shared by every session of a deployment. The dispatcher counts the
//! flush and hands it to [`SimEnv::ship`] untouched: one flush, one round
//! trip, the wire's own outcome back.
//!
//! Concurrent sessions ship concurrently. The deployment is
//! `Send + Sync`, its versioned store serialises writers at admission and
//! readers run on published snapshots, so a session observes exactly what
//! its flush would observe alone. Flushes of different sessions never
//! share a round trip.

use std::sync::atomic::{AtomicU64, Ordering};

use sloth_sql::{ResultSet, SqlError, Stmt};

use crate::{BatchOutcome, BatchRequest, SimEnv};

/// Counters of one dispatcher (all sessions combined).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatcherStats {
    /// Session flushes accepted.
    pub flushes: u64,
    /// Backend dispatches performed. Every flush is its own dispatch, so
    /// this always equals `flushes`.
    pub dispatches: u64,
    /// Session batches that shared a dispatch with another session's.
    /// Flushes never share one, so this is always 0.
    pub coalesced_batches: u64,
}

/// The front door of a deployment: accepts batch flushes from any number
/// of sessions and ships each one.
///
/// Cheap to share (`Arc<Dispatcher>`); every session's query store keeps a
/// handle and calls [`Dispatcher::ship`] instead of talking to the
/// backend directly.
pub struct Dispatcher {
    env: SimEnv,
    /// Flushes shipped. One counter, so a snapshot never tears.
    flushes: AtomicU64,
}

impl Dispatcher {
    /// A dispatcher over `env`.
    pub fn new(env: SimEnv) -> Self {
        Dispatcher {
            env,
            flushes: AtomicU64::new(0),
        }
    }

    /// The deployment this dispatcher serves.
    pub fn env(&self) -> &SimEnv {
        &self.env
    }

    /// Snapshot of the dispatcher counters. Lock-free: never blocks
    /// behind an in-flight flush.
    pub fn stats(&self) -> DispatcherStats {
        let flushes = self.flushes.load(Ordering::Relaxed);
        DispatcherStats {
            flushes,
            dispatches: flushes,
            coalesced_batches: 0,
        }
    }

    /// [`Dispatcher::ship`] for the stock request, all-or-error: every
    /// statement's result, or the batch's first error — what
    /// [`SimEnv::query_batch`] is to [`SimEnv::ship`], and like it a door
    /// where SQL text becomes a [`Stmt`].
    pub fn submit(&self, sqls: &[String]) -> Result<Vec<ResultSet>, SqlError> {
        let stmts: Vec<Stmt> = sqls.iter().map(Stmt::new).collect();
        self.ship(&BatchRequest::new(&stmts)).into_results()
    }

    /// Ships one session's batch flush — the dispatcher's one entry
    /// point, speaking the wire's own types. The outcome and the failure
    /// contract are [`SimEnv::ship`]'s: the executed prefix answers, the
    /// error sits at its failing position. An empty flush is free and
    /// uncounted.
    pub fn ship(&self, req: &BatchRequest<'_>) -> BatchOutcome {
        if req.stmts.is_empty() {
            return BatchOutcome::default();
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.env.ship(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheMode;
    use std::sync::{Arc, Barrier};

    /// The rows position `i` of `outcome` answered with.
    fn rows(outcome: &BatchOutcome, i: usize) -> &ResultSet {
        outcome.results[i].as_ref().expect("position answered")
    }

    fn stmts(sqls: &[String]) -> Vec<Stmt> {
        sqls.iter().map(Stmt::new).collect()
    }

    fn seeded_env() -> SimEnv {
        let env = SimEnv::default_env();
        env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..32 {
            env.seed_sql(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        env
    }

    fn counter_env() -> SimEnv {
        let env = SimEnv::default_env();
        env.seed_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
            .unwrap();
        env.seed_sql("INSERT INTO c VALUES (1, 0)").unwrap();
        env
    }

    /// Submits each session's statements through `d` as one flush, every
    /// session on a thread of its own, all released at once.
    fn concurrently(
        d: &Arc<Dispatcher>,
        sessions: Vec<Vec<String>>,
    ) -> Vec<Result<Vec<ResultSet>, SqlError>> {
        let barrier = Arc::new(Barrier::new(sessions.len()));
        let handles: Vec<_> = sessions
            .into_iter()
            .map(|sqls| {
                let d = Arc::clone(d);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    d.submit(&sqls)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn counter(d: &Dispatcher) -> Option<i64> {
        let rs = d
            .submit(&["SELECT n FROM c WHERE id = 1".to_string()])
            .unwrap();
        rs[0].get(0, "n").unwrap().as_i64()
    }

    #[test]
    fn solo_submit_matches_direct_batch() {
        let env = seeded_env();
        let reference = seeded_env();
        let d = Dispatcher::new(env);
        let sqls: Vec<String> = (0..6)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();
        let r = d.ship(&BatchRequest::new(&stmts(&sqls)));
        let want = reference.query_batch(&sqls).unwrap();
        assert_eq!(r.clone().into_results().unwrap(), want);
        assert_eq!(r.fused_queries, 6);
        assert_eq!(r.fused_groups, 1);
        assert_eq!(r.segments, 1, "a read batch is one segment");
        let s = d.stats();
        assert_eq!((s.flushes, s.dispatches, s.coalesced_batches), (1, 1, 0));
    }

    #[test]
    fn single_session_many_flushes_ship_one_trip_each() {
        let d = Dispatcher::new(seeded_env());
        for round in 0..10 {
            let sqls = vec![format!("SELECT v FROM t WHERE id = {round}")];
            let r = d.ship(&BatchRequest::new(&stmts(&sqls)));
            assert!(r.error.is_none());
        }
        let s = d.stats();
        assert_eq!((s.flushes, s.dispatches, s.coalesced_batches), (10, 10, 0));
        assert_eq!(d.env().stats().round_trips, 10);
    }

    #[test]
    fn transaction_batches_dispatch_solo() {
        let d = Dispatcher::new(seeded_env());
        let sqls = vec![
            "BEGIN".to_string(),
            "UPDATE t SET v = 'x' WHERE id = 1".to_string(),
            "COMMIT".to_string(),
        ];
        let r = d.ship(&BatchRequest::new(&stmts(&sqls)));
        assert!(r.error.is_none());
        let rs = d
            .submit(&["SELECT v FROM t WHERE id = 1".to_string()])
            .unwrap();
        assert_eq!(rs[0].get(0, "v").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn barrier_free_write_batches_are_admitted_and_apply_once() {
        let d = Dispatcher::new(seeded_env());
        let sqls = vec![
            "SELECT v FROM t WHERE id = 1".to_string(),
            "UPDATE t SET v = 'y' WHERE id = 1".to_string(),
        ];
        let r = d.ship(&BatchRequest::new(&stmts(&sqls)));
        assert_eq!(rows(&r, 0).get(0, "v").unwrap().as_str(), Some("v1"));
        assert_eq!(d.stats().dispatches, 1, "read + write in ONE round trip");
        let rs = d
            .submit(&["SELECT v FROM t WHERE id = 1".to_string()])
            .unwrap();
        assert_eq!(rs[0].get(0, "v").unwrap().as_str(), Some("y"));
    }

    #[test]
    fn disjoint_write_batches_from_many_sessions_apply_once_each() {
        // Each session reads and updates ITS OWN row, all at once: every
        // session's read sees its row before its own write, and every
        // update lands exactly once.
        let d = Arc::new(Dispatcher::new(seeded_env()));
        let n = 4usize;
        let sessions = (0..n)
            .map(|t| {
                vec![
                    format!("SELECT v FROM t WHERE id = {t}"),
                    format!("UPDATE t SET v = 'w{t}' WHERE id = {t}"),
                ]
            })
            .collect();
        for (t, r) in concurrently(&d, sessions).into_iter().enumerate() {
            let r = r.unwrap();
            assert_eq!(
                r[0].get(0, "v").unwrap().as_str(),
                Some(format!("v{t}").as_str()),
                "session {t}"
            );
        }
        for t in 0..n {
            let rs = d
                .submit(&[format!("SELECT v FROM t WHERE id = {t}")])
                .unwrap();
            assert_eq!(
                rs[0].get(0, "v").unwrap().as_str(),
                Some(format!("w{t}").as_str())
            );
        }
        assert_eq!(d.stats().flushes, n as u64 * 2);
    }

    #[test]
    fn conflicting_write_batches_serialize_with_exact_effects() {
        // All sessions increment the SAME row at once: the increments
        // each apply exactly once.
        let d = Arc::new(Dispatcher::new(counter_env()));
        let n = 6usize;
        let sessions = vec![vec!["UPDATE c SET n = n + 1 WHERE id = 1".to_string()]; n];
        for r in concurrently(&d, sessions) {
            r.unwrap();
        }
        assert_eq!(counter(&d), Some(n as i64), "{:?}", d.stats());
    }

    #[test]
    fn failed_concurrent_dispatch_isolates_errors_per_session() {
        // Two sessions flush at once, one of them failing: the good
        // session gets its rows and the bad one its own error.
        let d = Arc::new(Dispatcher::new(seeded_env()));
        let mut out = concurrently(
            &d,
            vec![
                vec!["SELECT v FROM t WHERE id = 2".to_string()],
                vec!["SELECT v FROM missing WHERE id = 1".to_string()],
            ],
        );
        let bad = out.pop().unwrap();
        let good = out.pop().unwrap();
        let good = good.expect("good session must not see the other's error");
        assert_eq!(good[0].get(0, "v").unwrap().as_str(), Some("v2"));
        assert!(bad.unwrap_err().to_string().contains("missing"));
    }

    #[test]
    fn failing_rider_keeps_its_prefix_and_its_own_error_position() {
        // Session A reads `t` while session B updates and reads `c`, then
        // fails: A keeps its rows, B gets what the wire gave it — its
        // executed prefix and the error at its position 2 — and the
        // UPDATE runs exactly once.
        let d = Arc::new(Dispatcher::new(seeded_env()));
        d.env()
            .seed_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
            .unwrap();
        d.env().seed_sql("INSERT INTO c VALUES (1, 0)").unwrap();
        let barrier = Arc::new(Barrier::new(2));
        let flush = |sqls: Vec<String>| {
            let d = Arc::clone(&d);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                d.ship(&BatchRequest::new(&stmts(&sqls)))
            })
        };
        let a = flush(vec!["SELECT v FROM t WHERE id = 2".to_string()]);
        let b = flush(vec![
            "UPDATE c SET n = n + 1 WHERE id = 1".to_string(),
            "SELECT n FROM c WHERE id = 1".to_string(),
            "SELECT v FROM missing WHERE id = 1".to_string(),
            "SELECT COUNT(*) FROM c".to_string(),
        ]);
        let a = a.join().unwrap();
        let b = b.join().unwrap();
        assert!(a.error.is_none(), "A must not see B's error: {:?}", a.error);
        assert_eq!(rows(&a, 0).get(0, "v").unwrap().as_str(), Some("v2"));
        assert_eq!(rows(&b, 1).get(0, "n").unwrap().as_i64(), Some(1));
        assert!(b.results[0].is_some() && b.results[2].is_none() && b.results[3].is_none());
        let (pos, e) = b.error.expect("B's third statement fails");
        assert_eq!(pos, 2);
        assert!(e.to_string().contains("missing"));
        assert_eq!(counter(&d), Some(1));
    }

    #[test]
    fn failed_combined_write_dispatch_never_replays_writes() {
        // A good write and a failing statement on disjoint tables, at
        // once: the increment applies exactly once and the failing
        // session gets its own error.
        let d = Arc::new(Dispatcher::new(counter_env()));
        let out = concurrently(
            &d,
            vec![
                vec!["UPDATE c SET n = n + 1 WHERE id = 1".to_string()],
                vec!["DELETE FROM missing WHERE id = 1".to_string()],
            ],
        );
        out[0].as_ref().expect("good write succeeds");
        assert!(out[1].is_err());
        assert_eq!(counter(&d), Some(1));
    }

    #[test]
    fn repeated_failed_combined_dispatches_split_per_ticket() {
        // Two consecutive rounds of (good write, failing statement) from
        // different sessions: every round the good increment applies
        // exactly once and the failing session gets its own error —
        // repeated failures never leak state across rounds.
        let d = Arc::new(Dispatcher::new(counter_env()));
        for round in 1..=2i64 {
            let out = concurrently(
                &d,
                vec![
                    vec!["UPDATE c SET n = n + 1 WHERE id = 1".to_string()],
                    vec!["DELETE FROM missing WHERE id = 1".to_string()],
                ],
            );
            out[0].as_ref().expect("good write succeeds");
            assert!(
                out[1].as_ref().unwrap_err().to_string().contains("missing"),
                "round {round}: the failing session gets its own error"
            );
            assert_eq!(counter(&d), Some(round), "round {round}: applied once");
        }
    }

    #[test]
    fn exhausted_transient_dispatch_fails_all_riders_without_replay() {
        // Every trip times out and the budget allows 2 attempts, so both
        // sessions' flushes exhaust. Both get the transient error —
        // re-executing either could double-apply the journaled write —
        // and the increment applies exactly once (attempt 2 answered it
        // from the at-most-once journal).
        let env = counter_env();
        env.set_faults(Some(crate::fault::FaultPlan::seeded(3).timeouts(1000, 8)));
        env.set_retry_policy(crate::fault::RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        });
        let d = Arc::new(Dispatcher::new(env.clone()));
        let out = concurrently(
            &d,
            vec![
                vec!["UPDATE c SET n = n + 1 WHERE id = 1".to_string()],
                vec!["SELECT n FROM c WHERE id = 1".to_string()],
            ],
        );
        for r in &out {
            let e = r.as_ref().expect_err("an exhausted flush fails");
            assert!(crate::fault::is_transient_error(e), "{e}");
        }
        assert!(env.fault_stats().exhausted_batches >= 1);
        env.set_faults(None);
        assert_eq!(
            counter(&d),
            Some(1),
            "the journaled write applied exactly once despite 2 attempts"
        );
    }

    #[test]
    fn striped_dispatcher_keeps_results_exact_under_concurrency() {
        // 16 sessions at once: every session's rows are its own, and the
        // flush accounting stays exact — one round trip per flush.
        let env = seeded_env();
        let d = Arc::new(Dispatcher::new(env.clone()));
        let sessions: Vec<Vec<String>> = (0..16)
            .map(|t| {
                (0..2)
                    .map(|i| format!("SELECT v FROM t WHERE id = {}", (t * 2 + i) % 32))
                    .collect()
            })
            .collect();
        for (t, r) in concurrently(&d, sessions).into_iter().enumerate() {
            for (i, rs) in r.unwrap().iter().enumerate() {
                let want = format!("v{}", (t * 2 + i) % 32);
                assert_eq!(rs.get(0, "v").unwrap().as_str(), Some(want.as_str()));
            }
        }
        let s = d.stats();
        assert_eq!((s.flushes, s.dispatches, s.coalesced_batches), (16, 16, 0));
        assert_eq!(env.stats().round_trips, 16);
        assert_eq!(env.stats().queries, 32);
    }

    #[test]
    fn dispatched_path_never_reanalyzes_footprints() {
        // The dispatcher asks for no footprint: only the batch planner
        // does, once per statement of a batch where a write has company,
        // and never for a lone write. The backend's template cache does
        // the parsing, once per template.
        let env = seeded_env();
        let seeded = env.footprint_cache_stats();
        let d = Arc::new(Dispatcher::new(env.clone()));
        d.submit(&[
            "SELECT v FROM t WHERE id = 1".to_string(),
            "UPDATE t SET v = 'a' WHERE id = 1".to_string(),
        ])
        .unwrap();
        d.submit(&[
            "BEGIN".to_string(),
            "UPDATE t SET v = 'b' WHERE id = 2".to_string(),
            "COMMIT".to_string(),
        ])
        .unwrap();
        let sessions = (0..4)
            .map(|t| vec![format!("UPDATE t SET v = 'w{t}' WHERE id = {}", 10 + t)])
            .collect();
        for r in concurrently(&d, sessions) {
            r.unwrap();
        }
        // 2 + 3 footprint lookups over four templates, so one of them a
        // hit, plus the plans of the 9 statements executed — the read, 6
        // writes, BEGIN and COMMIT — which the entries the footprints
        // filled answer: one template cache, one parse a template.
        let fs = env.footprint_cache_stats();
        let counted = (fs.hits - seeded.hits, fs.misses - seeded.misses);
        assert_eq!(counted, (10, 4), "{fs:?}");
    }

    #[test]
    fn empty_submit_is_free() {
        let d = Dispatcher::new(seeded_env());
        let r = d.submit(&[]).unwrap();
        assert!(r.is_empty());
        assert_eq!(d.stats().flushes, 0);
        assert_eq!(d.env().stats().round_trips, 0);
    }

    #[test]
    fn dispatcher_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Dispatcher>();
        assert_send_sync::<Arc<Dispatcher>>();
    }

    #[test]
    fn bypass_request_ships_like_any_flush_and_counts_degradation() {
        // A degraded session's `Bypass` request ships like any other
        // flush: answered by the wire, counted once.
        let d = Dispatcher::new(seeded_env());
        let r = d.ship(&BatchRequest {
            cache: CacheMode::Bypass,
            ..BatchRequest::new(&[Stmt::new("SELECT v FROM t WHERE id = 3")])
        });
        assert_eq!(rows(&r, 0).get(0, "v").unwrap().as_str(), Some("v3"));
        let s = d.stats();
        assert_eq!((s.flushes, s.dispatches, s.coalesced_batches), (1, 1, 0));
    }
}
