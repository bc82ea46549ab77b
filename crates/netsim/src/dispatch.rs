//! The multi-session **dispatcher**: cross-session batch coalescing.
//!
//! One deployment serves many concurrent sessions; each session's query
//! store flushes whole batches. The dispatcher sits between the sessions
//! and the backend and opportunistically **coalesces** flushes from
//! *different* sessions into a single backend dispatch — one round trip,
//! one fusion-planned super-batch — in the spirit of SharedDB ("killing
//! one thousand queries with one stone"): same-template point lookups
//! from unrelated page requests merge into one `IN` probe.
//!
//! ## Mechanics: group commit plus a bounded window
//!
//! A flush that arrives while the backend is idle dispatches immediately
//! (after an optional, bounded *coalescing window* during which
//! near-simultaneous flushes may join). A flush that arrives while a
//! dispatch is in flight queues; when the dispatch completes, the longest
//! **compatible prefix** of the queue combines into the next dispatch.
//! Under load the batch size self-tunes to the backend's service time —
//! classic group commit.
//!
//! ## Write admission by footprint
//!
//! Read-only batches always commute and always coalesce. A batch
//! containing writes is admitted by its [`Footprint`]
//! (see [`sloth_sql::footprint`]): it may share a dispatch exactly when
//! its footprint is disjoint from every other batch in that dispatch —
//! its writes cannot touch rows the others read or write, and vice
//! versa — so each session's slice is still bit-identical to a solo
//! dispatch. Batches that conflict wait for the next dispatch
//! ([`DispatcherStats::conflict_deferrals`]); batches containing
//! transaction boundaries (or SQL the analyzer cannot parse) are
//! footprint *barriers* and always dispatch solo
//! ([`DispatcherStats::solo_writes`]).
//!
//! ## Striping: independent leaders for disjoint traffic
//!
//! A single coalescing queue has a ceiling: one leader's round trip is in
//! flight at a time, so at high concurrency every flush serializes behind
//! it even when the traffic is disjoint. The dispatcher therefore runs
//! `N` independent **stripes** ([`DEFAULT_STRIPES`] by default;
//! [`Dispatcher::with_stripes`] pins a count), each with its own queue,
//! its own coalescing window, and its own leader — so up to `N` dispatch
//! round trips proceed concurrently. Write batches route by the hash of
//! their footprint's table set, so the common conflict case — concurrent
//! batches over the *same* tables, e.g. counter increments — meets in one
//! stripe, where the footprint admission / FIFO deferral logic applies
//! unchanged; read-only batches route round-robin. Conflicting batches
//! whose table sets differ may land in different stripes and dispatch
//! concurrently — safe, because stripes never share a dispatch (so the
//! pairwise-disjoint invariant of every combined dispatch still holds)
//! and each batch still ships exactly once.
//!
//! Striping is legal for the same reason concurrent solo dispatches
//! always were: each session blocks on its flush, so per-session order is
//! preserved; coalescing (and its admission check) happens only within a
//! stripe; and cross-session ordering between concurrent flushes was
//! never guaranteed — two flushes in flight at once could always land in
//! either order. The backend serializes on its own database lock, so
//! exactly-once write effects are unaffected. A one-stripe dispatcher
//! reproduces the previous single-leader behaviour exactly; tests that
//! assert deterministic coalescing pin `stripes = 1`.
//!
//! ## Serial equivalence
//!
//! * Fusion is semantically invisible (the fusion equivalence suite
//!   enforces this), and coalesced batches are pairwise
//!   footprint-disjoint, so each session's slice of a combined dispatch
//!   is bit-identical to what its solo dispatch would have returned.
//! * If a combined dispatch fails, its [`BatchOutcome`] splits exactly:
//!   sessions whose statements all executed keep their results, the
//!   session owning the failing statement gets its executed prefix plus
//!   the error at its own position, and sessions whose statements never
//!   ran **re-execute separately** — never re-running a write that
//!   already applied, so first-error semantics stay per-session and
//!   effects apply exactly once.
//! * A flush that travels alone is handed to [`SimEnv::ship`] and its
//!   outcome handed back untouched. A session blocks on its own flush,
//!   so a dispatcher with one client (every query store's private one
//!   included) never has two flushes to combine: all coalescing counters
//!   stay zero and the session observes the wire's own answer, whatever
//!   the stripe count.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use sloth_sql::{Footprint, ResultSet, SqlError, Stmt};

use crate::{BatchOutcome, BatchRequest, CacheMode, SimEnv};

/// Counters of one dispatcher (all sessions combined).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatcherStats {
    /// Session flushes accepted.
    pub flushes: u64,
    /// Backend dispatches performed (≤ `flushes`; the gap is the win).
    pub dispatches: u64,
    /// Session batches that shared a dispatch with at least one other
    /// session's batch.
    pub coalesced_batches: u64,
    /// Statements that travelled in a shared dispatch.
    pub coalesced_queries: u64,
    /// Most session batches combined into one dispatch.
    pub max_coalesced: u64,
    /// Statements fused into a group spanning ≥ 2 sessions (the
    /// SharedDB-style cross-session merges).
    pub cross_session_fused_queries: u64,
    /// Fused groups whose members came from ≥ 2 sessions.
    pub cross_session_fused_groups: u64,
    /// Write-containing batches that shared a dispatch with another
    /// session's batch — admitted because their footprints were pairwise
    /// disjoint.
    pub coalesced_write_batches: u64,
    /// Batches dispatched solo by construction: transaction boundaries /
    /// unanalyzable SQL (footprint barriers).
    pub solo_writes: u64,
    /// Times a queued batch was left for a later dispatch because its
    /// footprint conflicted with the batches ahead of it.
    pub conflict_deferrals: u64,
    /// Combined dispatches that failed and were split back into exact
    /// per-session outcomes.
    pub fallback_splits: u64,
    /// [`CacheMode::Bypass`] batches — shipped by sessions that degraded
    /// from the coalescing path after exhausting their retry budget, and
    /// dispatched solo without entering the queue.
    pub degraded_solo: u64,
    /// Combined dispatches that failed with a **transient** (fault-layer)
    /// error after the retry budget exhausted. Every rider gets the error
    /// and nothing re-executes: the idempotence journal that made replay
    /// safe was abandoned with the batch, so re-running any rider here
    /// could double-apply a write that landed in a faulted attempt.
    pub transient_failures: u64,
}

struct PendingFlush {
    ticket: u64,
    stmts: Vec<Stmt>,
    /// Whether any statement is a write / transaction boundary.
    has_write: bool,
    /// Union of the statements' footprints (the batch-level admission
    /// footprint) — computed eagerly for write batches (admission needs
    /// it), lazily for read-only batches (only needed when they share a
    /// dispatch with a write batch).
    union: Option<Footprint>,
}

impl PendingFlush {
    fn footprint(&mut self, env: &SimEnv) -> &Footprint {
        self.union
            .get_or_insert_with(|| union_footprint(env, &self.stmts))
    }
}

/// The union of the statements' footprints, each memoised in its
/// statement (so the planner and the result cache read them back).
fn union_footprint(env: &SimEnv, stmts: &[Stmt]) -> Footprint {
    let mut union = Footprint::default();
    for stmt in stmts {
        union.merge(env.footprint(stmt));
    }
    union
}

#[derive(Default)]
struct DispatchState {
    queue: Vec<PendingFlush>,
    done: HashMap<u64, BatchOutcome>,
    next_ticket: u64,
    dispatching: bool,
}

/// One independent coalescing queue: its own pending flushes, its own
/// leader, its own condvar. Stripes never share state — only the
/// dispatcher-wide counters.
struct Stripe {
    state: Mutex<DispatchState>,
    cv: Condvar,
}

/// Default stripe count for [`Dispatcher::new`] and
/// [`Dispatcher::with_window`]: enough independent leaders that a
/// 16-client closed loop no longer serializes behind one in-flight round
/// trip, small enough that concurrent traffic still meets and coalesces.
pub const DEFAULT_STRIPES: usize = 8;

/// The shared front door of a deployment: accepts batch flushes from many
/// sessions and coalesces them into combined backend dispatches.
///
/// Cheap to share (`Arc<Dispatcher>`); every session's query store keeps a
/// handle and calls [`Dispatcher::ship`] instead of talking to the
/// backend directly.
pub struct Dispatcher {
    env: SimEnv,
    /// Independent coalescing queues (see the striping section of the
    /// module docs). Fixed at construction; never empty.
    stripes: Vec<Stripe>,
    /// Round-robin cursor for read-only flushes.
    rr: AtomicUsize,
    window: Duration,
    /// Injected leader hold-open (see [`Dispatcher::set_hold_open`]):
    /// when > 0, a leader keeps its dispatch open until the stripe queue
    /// holds this many flushes (bounded by [`HOLD_OPEN_CAP`]). `0` (the
    /// default) disables the mechanism entirely.
    hold_open: AtomicUsize,
    stats: Mutex<DispatcherStats>,
}

/// Upper bound on how long a leader waits for riders under
/// [`Dispatcher::set_hold_open`]. Keeps a quiet deployment from wedging:
/// if the expected riders never arrive, the dispatch proceeds with
/// whatever is queued once the cap expires.
pub const HOLD_OPEN_CAP: Duration = Duration::from_millis(50);

impl Dispatcher {
    /// A dispatcher over `env` with no coalescing window: pure group
    /// commit (zero added latency at one client; coalescing emerges as
    /// soon as flushes overlap a dispatch in flight).
    pub fn new(env: SimEnv) -> Self {
        Dispatcher::with_window(env, Duration::ZERO)
    }

    /// A dispatcher that additionally holds each dispatch open for up to
    /// `window` so near-simultaneous flushes can join it. The window
    /// bounds added latency; semantics are unchanged.
    pub fn with_window(env: SimEnv, window: Duration) -> Self {
        Dispatcher::with_stripes(env, window, DEFAULT_STRIPES)
    }

    /// A dispatcher with an explicit stripe count (clamped to ≥ 1). One
    /// stripe reproduces the single-leader behaviour exactly — what the
    /// deterministic-coalescing tests pin; more stripes let that many
    /// dispatch round trips proceed concurrently.
    pub fn with_stripes(env: SimEnv, window: Duration, stripes: usize) -> Self {
        Dispatcher {
            env,
            stripes: (0..stripes.max(1))
                .map(|_| Stripe {
                    state: Mutex::new(DispatchState::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            rr: AtomicUsize::new(0),
            window,
            hold_open: AtomicUsize::new(0),
            stats: Mutex::new(DispatcherStats::default()),
        }
    }

    /// Sets the injected leader **hold-open**: when `riders > 0`, a
    /// dispatch leader keeps its dispatch open until the stripe's queue
    /// holds `riders` flushes (its own included), instead of racing the
    /// wall clock with the coalescing window. Queue depth is a property
    /// of the workload, not of scheduler timing, so coalescing becomes
    /// **deterministic**: `riders` concurrent sessions flushing into one
    /// stripe always share one dispatch. The wait is bounded by
    /// [`HOLD_OPEN_CAP`], so a deployment that never reaches the rider
    /// count still makes progress — the cap only fires on under-filled
    /// queues, never on the saturated ones the mechanism targets.
    ///
    /// `0` (the default) disables the hold-open; the window (if any)
    /// governs as before. Intended for coalescing-presence measurement
    /// and tests; production paths leave it off.
    pub fn set_hold_open(&self, riders: usize) {
        self.hold_open.store(riders, Ordering::Relaxed);
    }

    /// Current injected hold-open rider count (`0` = disabled).
    pub fn hold_open(&self) -> usize {
        self.hold_open.load(Ordering::Relaxed)
    }

    /// The deployment this dispatcher serves.
    pub fn env(&self) -> &SimEnv {
        &self.env
    }

    /// Number of independent coalescing stripes.
    pub fn n_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Snapshot of the dispatcher counters. Never blocks behind an
    /// in-flight dispatch: the stats mutex is only ever held for counter
    /// updates, not across execution.
    pub fn stats(&self) -> DispatcherStats {
        *self.lock_stats()
    }

    /// Routes one queued flush to its stripe. Write batches route by the
    /// hash of their footprint's table set: concurrent batches over the
    /// same tables (the common conflict shape) meet in one stripe, where
    /// the admission check arbitrates; batches with different table sets
    /// may run under different leaders, which is safe because stripes
    /// never share a dispatch. Read-only batches (which never conflict
    /// with each other) spread round-robin.
    fn stripe_for(&self, union: Option<&Footprint>) -> &Stripe {
        let n = self.stripes.len();
        if n == 1 {
            return &self.stripes[0];
        }
        let idx = match union {
            Some(fp) => {
                let mut tables: Vec<&str> = fp
                    .reads
                    .iter()
                    .chain(fp.writes.iter())
                    .map(|a| a.table.as_str())
                    .collect();
                tables.sort_unstable();
                tables.dedup();
                let mut h = DefaultHasher::new();
                tables.hash(&mut h);
                (h.finish() as usize) % n
            }
            None => self.rr.fetch_add(1, Ordering::Relaxed) % n,
        };
        &self.stripes[idx]
    }

    fn lock_stats(&self) -> std::sync::MutexGuard<'_, DispatcherStats> {
        self.stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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
    /// point, speaking the wire's own types — and blocks until its
    /// outcome is available, possibly having ridden a dispatch shared
    /// with other sessions ([`BatchOutcome::coalesced`]; see the module
    /// docs for the equivalence argument). The failure contract is
    /// [`SimEnv::ship`]'s: the executed prefix answers, the error sits at
    /// the session's own failing position.
    ///
    /// Admission reasons about the footprints the statements carry,
    /// verbatim: a deferred `BEGIN…COMMIT` block whose boundaries the
    /// query store preset with empty placeholder footprints (engine
    /// no-ops) enters the pairwise-disjoint coalescing queue instead of
    /// being classified a barrier, which is how disjoint transactions
    /// from different sessions share one dispatch.
    ///
    /// A [`CacheMode::Bypass`] request never queues: it is the degraded
    /// path a session retreats to after its retry budget exhausts on the
    /// shared path (see the degradation ladder in DESIGN.md), dispatched
    /// solo and counted in [`DispatcherStats::degraded_solo`].
    pub fn ship(&self, req: &BatchRequest<'_>) -> BatchOutcome {
        let stmts = req.stmts;
        if stmts.is_empty() {
            return BatchOutcome::default();
        }
        if req.cache == CacheMode::Bypass {
            {
                let mut stats = self.lock_stats();
                stats.flushes += 1;
                stats.dispatches += 1;
                stats.degraded_solo += 1;
            }
            return self.env.ship(req);
        }
        self.lock_stats().flushes += 1;
        let has_write = stmts.iter().any(Stmt::is_write);
        // Footprint admission: only barrier-free write batches may enter
        // the coalescing queue.
        let union = has_write.then(|| union_footprint(&self.env, stmts));
        if union.as_ref().is_some_and(|u| u.barrier) {
            {
                let mut stats = self.lock_stats();
                stats.solo_writes += 1;
                stats.dispatches += 1;
            }
            return self.env.ship(req);
        }

        // Stripe selection happens once, before queueing: the flush joins
        // one stripe's queue and only ever coalesces within it.
        let stripe = self.stripe_for(union.as_ref());
        let mut st = stripe
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push(PendingFlush {
            ticket,
            stmts: stmts.to_vec(),
            has_write,
            union,
        });
        if self.hold_open.load(Ordering::Relaxed) > 0 {
            // A leader may be holding its dispatch open waiting on queue
            // depth — wake it so it re-checks. Waiting riders re-check
            // and sleep again; spurious wakeups are harmless.
            stripe.cv.notify_all();
        }
        loop {
            if let Some(outcome) = st.done.remove(&ticket) {
                return outcome;
            }
            if st.dispatching {
                st = stripe
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            // Become this stripe's dispatch leader.
            st.dispatching = true;
            let hold = self.hold_open.load(Ordering::Relaxed);
            if hold > 0 {
                // Injected hold-open: wait on queue *depth* (a workload
                // property) rather than the wall clock, so coalescing is
                // deterministic. Bounded by HOLD_OPEN_CAP so an
                // under-filled queue still dispatches.
                let deadline = Instant::now() + HOLD_OPEN_CAP;
                while st.queue.len() < hold {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let (st2, _) = stripe
                        .cv
                        .wait_timeout(st, left)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    st = st2;
                }
            } else if !self.window.is_zero() {
                // Bounded coalescing window: hold the dispatch open so
                // near-simultaneous flushes can join. Spurious wakeups
                // only shorten the window, never change semantics.
                let (st2, _) = stripe
                    .cv
                    .wait_timeout(st, self.window)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st = st2;
            }
            let batch = self.take_compatible(&mut st);
            drop(st);
            // The leader must not wedge the front door: if the dispatch
            // panics (poisoned backend, planner bug), every drained flush
            // still gets an answer, `dispatching` is still reset, and the
            // waiters are still woken — then the leader's panic resumes.
            let outcomes =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(&batch)));
            st = stripe
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.dispatching = false;
            match outcomes {
                Ok(outcomes) => {
                    st.done.extend(outcomes);
                    stripe.cv.notify_all();
                }
                Err(panic) => {
                    for f in &batch {
                        st.done.insert(
                            f.ticket,
                            BatchOutcome::abandoned(
                                f.stmts.len(),
                                SqlError::new("dispatch panicked on the leader session"),
                            ),
                        );
                    }
                    drop(st);
                    stripe.cv.notify_all();
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }

    /// Drains the longest compatible prefix of the queue for one combined
    /// dispatch. Read-only batches are always mutually compatible; as soon
    /// as a write batch is involved, every candidate must be
    /// footprint-disjoint from the union of the batches already taken.
    /// The first conflicting batch (and everything behind it, preserving
    /// FIFO fairness) waits for the next dispatch.
    fn take_compatible(&self, st: &mut DispatchState) -> Vec<PendingFlush> {
        let mut k = 0usize;
        let mut any_write = false;
        // Union footprint of the taken prefix; materialized only once a
        // write batch is in play, so pure-read traffic never parses.
        let mut group_fp: Option<Footprint> = None;
        while k < st.queue.len() {
            if any_write || st.queue[k].has_write {
                let union = group_fp.get_or_insert_with(|| {
                    let mut union = Footprint::default();
                    for f in st.queue[..k].iter_mut() {
                        union.merge(f.footprint(&self.env));
                    }
                    union
                });
                let next_fp = st.queue[k].footprint(&self.env);
                if k > 0 && union.conflicts_with(next_fp) {
                    self.lock_stats().conflict_deferrals += 1;
                    break;
                }
                union.merge(next_fp);
                any_write |= st.queue[k].has_write;
            }
            k += 1;
        }
        st.queue.drain(..k).collect()
    }

    /// Executes a set of queued flushes as one backend dispatch and hands
    /// each flush its own [`BatchOutcome`]. A flush that travels alone
    /// gets the wire's outcome as is; riders of a combined dispatch get
    /// their slice of it — see the module docs for the failed case.
    fn dispatch(&self, batch: &[PendingFlush]) -> Vec<(u64, BatchOutcome)> {
        if let [f] = batch {
            self.lock_stats().dispatches += 1;
            return vec![(f.ticket, self.env.ship(&BatchRequest::new(&f.stmts)))];
        }
        {
            let mut stats = self.lock_stats();
            stats.dispatches += 1;
            stats.coalesced_batches += batch.len() as u64;
            stats.coalesced_queries += batch.iter().map(|f| f.stmts.len() as u64).sum::<u64>();
            stats.max_coalesced = stats.max_coalesced.max(batch.len() as u64);
            stats.coalesced_write_batches += batch.iter().filter(|f| f.has_write).count() as u64;
        }
        // Riders concatenate; a reference follows its parent to the
        // rider's offset, the way an error position is re-based below.
        let mut stmts: Vec<Stmt> = Vec::with_capacity(batch.iter().map(|f| f.stmts.len()).sum());
        for f in batch {
            let start = stmts.len() as u64;
            stmts.extend(f.stmts.iter().map(|s| s.rebase(|parent| parent + start)));
        }
        let combined = self.env.ship(&BatchRequest::new(&stmts));
        self.account_cross_session_fusion(batch, &combined);
        let failed_at = match &combined.error {
            None => usize::MAX,
            Some((_, e)) if crate::fault::is_transient_error(e) => {
                // Retry budget exhausted on the combined dispatch. The
                // at-most-once journal was abandoned with the batch, so a
                // write shipped in a faulted attempt may already have
                // applied — re-executing any rider could double-apply it.
                // Fail every ticket with the transient error instead;
                // sessions degrade to eager-solo dispatch and retry there.
                self.lock_stats().transient_failures += 1;
                return batch
                    .iter()
                    .map(|f| (f.ticket, BatchOutcome::abandoned(f.stmts.len(), e.clone())))
                    .collect();
            }
            Some((pos, _)) => {
                self.lock_stats().fallback_splits += 1;
                *pos
            }
        };
        // Exact per-session split: a flush the dispatch reached takes its
        // slice — all of its results, or, for the flush owning position
        // `failed_at`, its executed prefix and its own error (identical
        // to its solo outcome: everything it shared the dispatch with was
        // footprint-disjoint). A flush the dispatch never started ships
        // on its own. No write ever runs twice.
        let mut results = combined.results.into_iter();
        let mut fused_members = combined.fused_members.into_iter();
        let mut offset = 0usize;
        batch
            .iter()
            .map(|f| {
                let (start, n) = (offset, f.stmts.len());
                offset += n;
                let outcome = if start > failed_at {
                    self.env.ship(&BatchRequest::new(&f.stmts))
                } else {
                    rider_outcome(
                        results.by_ref().take(n).collect(),
                        fused_members.by_ref().take(n).collect(),
                        combined
                            .error
                            .as_ref()
                            .filter(|(pos, _)| (start..offset).contains(pos))
                            .map(|(pos, e)| (pos - start, e.clone())),
                    )
                };
                (f.ticket, outcome)
            })
            .collect()
    }

    /// Cross-session fusion accounting: groups whose members span ≥ 2
    /// flushes are the SharedDB-style merges. Only groups that actually
    /// **executed** count — a fused probe runs at its first member's
    /// position, so when the dispatch failed earlier, groups whose lead
    /// sits at or past the failing position never ran and must not
    /// inflate the counters.
    fn account_cross_session_fusion(&self, batch: &[PendingFlush], partial: &BatchOutcome) {
        let executed_before = partial
            .error
            .as_ref()
            .map(|(pos, _)| *pos)
            .unwrap_or(usize::MAX);
        let mut owner_of: Vec<usize> = Vec::with_capacity(partial.fused_members.len());
        for (fi, f) in batch.iter().enumerate() {
            owner_of.extend(std::iter::repeat_n(fi, f.stmts.len()));
        }
        // Per group: owners of its members plus the lead (= first member)
        // position, in batch order because enumeration is in order.
        let mut group_owners: HashMap<usize, (usize, Vec<usize>)> = HashMap::new();
        for (pos, g) in partial.fused_members.iter().enumerate() {
            if let Some(g) = g {
                group_owners
                    .entry(*g)
                    .or_insert((pos, Vec::new()))
                    .1
                    .push(owner_of[pos]);
            }
        }
        let mut xq = 0u64;
        let mut xg = 0u64;
        for (lead_pos, owners) in group_owners.values() {
            if *lead_pos >= executed_before {
                continue; // the probe never ran
            }
            let first = owners[0];
            if owners.iter().any(|o| *o != first) {
                xg += 1;
                xq += owners.len() as u64;
            }
        }
        if xg > 0 {
            let mut stats = self.lock_stats();
            stats.cross_session_fused_groups += xg;
            stats.cross_session_fused_queries += xq;
        }
    }
}

/// One rider's share of a combined dispatch: its slice of the
/// per-position answers and fused-group indexes, the error (re-based to
/// its own positions) when it owns the failing one, and the fusion
/// attribution of the positions that were answered. `segments` is left at
/// `0` — the combined batch's count is not attributable to any single
/// session, and summing it into every rider's stats would multiply-count
/// it.
fn rider_outcome(
    results: Vec<Option<ResultSet>>,
    fused_members: Vec<Option<usize>>,
    error: Option<(usize, SqlError)>,
) -> BatchOutcome {
    let mut groups: Vec<usize> = fused_members
        .iter()
        .zip(&results)
        .filter_map(|(member, answered)| answered.as_ref().and(*member))
        .collect();
    let fused_queries = groups.len() as u64;
    groups.sort_unstable();
    groups.dedup();
    BatchOutcome {
        results,
        error,
        fused_members,
        fused_queries,
        fused_groups: groups.len() as u64,
        coalesced: true,
        ..BatchOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
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
        assert!(!r.coalesced);
        assert_eq!(r.fused_queries, 6);
        assert_eq!(r.fused_groups, 1);
        assert_eq!(r.segments, 1, "a read batch is one segment");
        let s = d.stats();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.dispatches, 1);
        assert_eq!(s.coalesced_batches, 0, "one client never coalesces");
        assert_eq!(s.cross_session_fused_groups, 0);
    }

    #[test]
    fn single_session_many_flushes_never_coalesce() {
        let d = Dispatcher::new(seeded_env());
        for round in 0..10 {
            let sqls = vec![format!("SELECT v FROM t WHERE id = {round}")];
            let r = d.ship(&BatchRequest::new(&stmts(&sqls)));
            assert!(r.error.is_none());
            assert!(!r.coalesced);
        }
        let s = d.stats();
        assert_eq!(s.flushes, 10);
        assert_eq!(s.dispatches, 10);
        assert_eq!(s.coalesced_batches, 0);
        assert_eq!(s.coalesced_queries, 0);
    }

    #[test]
    fn concurrent_sessions_coalesce_and_fuse_across_sessions() {
        let env = seeded_env();
        // One stripe: read-only flushes round-robin across stripes, so
        // deterministic coalescing of 8 concurrent reads needs the
        // single-leader configuration this test was written against.
        let d = Arc::new(Dispatcher::with_stripes(
            env.clone(),
            Duration::from_millis(20),
            1,
        ));
        let n = 8usize;
        let barrier = Arc::new(Barrier::new(n));
        let coalesced_seen = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let d = Arc::clone(&d);
                let barrier = Arc::clone(&barrier);
                let coalesced_seen = Arc::clone(&coalesced_seen);
                std::thread::spawn(move || {
                    // Every session issues the same template with its own
                    // params — the cross-session fusion target.
                    let sqls: Vec<String> = (0..3)
                        .map(|i| format!("SELECT v FROM t WHERE id = {}", t * 3 + i))
                        .collect();
                    barrier.wait();
                    let r = d.ship(&BatchRequest::new(&stmts(&sqls)));
                    assert!(r.error.is_none());
                    for (i, rs) in r.results.iter().flatten().enumerate() {
                        let want = format!("v{}", t * 3 + i);
                        assert_eq!(
                            rs.get(0, "v").unwrap().as_str(),
                            Some(want.as_str()),
                            "session {t} row {i}"
                        );
                    }
                    if r.coalesced {
                        coalesced_seen.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = d.stats();
        assert_eq!(s.flushes, 8);
        assert!(
            s.dispatches < 8,
            "some flushes must share a dispatch: {s:?}"
        );
        assert!(s.coalesced_batches >= 2, "{s:?}");
        assert!(
            s.cross_session_fused_groups >= 1,
            "same-template lookups from different sessions fuse: {s:?}"
        );
        assert!(coalesced_seen.load(Ordering::Relaxed) >= 2);
        // The backend saw fewer round trips than flushes.
        assert_eq!(env.stats().round_trips, s.dispatches);
        assert_eq!(env.stats().queries, 24);
    }

    #[test]
    fn hold_open_coalesces_deterministically() {
        let env = seeded_env();
        // Zero window: without the hold-open, coalescing here would be a
        // pure race. One stripe so every read-only flush meets the same
        // leader.
        let d = Arc::new(Dispatcher::with_stripes(env.clone(), Duration::ZERO, 1));
        let n = 8usize;
        d.set_hold_open(n);
        assert_eq!(d.hold_open(), n);
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let d = Arc::clone(&d);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let sqls = vec![format!("SELECT v FROM t WHERE id = {t}")];
                    barrier.wait();
                    let r = d.ship(&BatchRequest::new(&stmts(&sqls)));
                    assert_eq!(
                        rows(&r, 0).get(0, "v").unwrap().as_str(),
                        Some(format!("v{t}").as_str())
                    );
                    r.coalesced
                })
            })
            .collect();
        let coalesced = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&c| c)
            .count();
        let s = d.stats();
        // The leader holds the dispatch open until all 8 flushes queue:
        // exactly one combined dispatch, every batch a rider.
        assert_eq!(s.flushes, 8);
        assert_eq!(s.dispatches, 1, "{s:?}");
        assert_eq!(s.coalesced_batches, 8, "{s:?}");
        assert_eq!(s.max_coalesced, 8, "{s:?}");
        assert_eq!(coalesced, 8);
        assert_eq!(env.stats().round_trips, 1);
    }

    #[test]
    fn hold_open_cap_bounds_a_lonely_leader() {
        let d = Dispatcher::with_stripes(seeded_env(), Duration::ZERO, 1);
        d.set_hold_open(8);
        // A single session can never fill the queue to 8: the cap must
        // release the dispatch rather than wedge the flush.
        let start = Instant::now();
        let r = d.ship(&BatchRequest::new(&[Stmt::new(
            "SELECT v FROM t WHERE id = 0",
        )]));
        assert!(r.error.is_none());
        assert!(!r.coalesced);
        assert!(
            start.elapsed() < HOLD_OPEN_CAP * 4,
            "hold-open must be bounded by the cap"
        );
        let s = d.stats();
        assert_eq!(s.dispatches, 1);
        assert_eq!(s.coalesced_batches, 0);
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
        assert!(!r.coalesced);
        assert_eq!(d.stats().solo_writes, 1, "barrier batches never queue");
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
        assert!(!r.coalesced, "one client never coalesces");
        assert_eq!(rows(&r, 0).get(0, "v").unwrap().as_str(), Some("v1"));
        let s = d.stats();
        assert_eq!(s.solo_writes, 0, "plain write batches queue like reads");
        assert_eq!(s.dispatches, 1, "read + write shipped in ONE round trip");
        let rs = d
            .submit(&["SELECT v FROM t WHERE id = 1".to_string()])
            .unwrap();
        assert_eq!(rs[0].get(0, "v").unwrap().as_str(), Some("y"));
    }

    #[test]
    fn disjoint_write_batches_coalesce_across_sessions() {
        let env = seeded_env();
        let d = Arc::new(Dispatcher::with_window(
            env.clone(),
            Duration::from_millis(30),
        ));
        let n = 4usize;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let d = Arc::clone(&d);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    // Each session reads and updates ITS OWN row: pairwise
                    // disjoint footprints.
                    let sqls = vec![
                        format!("SELECT v FROM t WHERE id = {t}"),
                        format!("UPDATE t SET v = 'w{t}' WHERE id = {t}"),
                    ];
                    barrier.wait();
                    let r = d.submit(&sqls).unwrap();
                    // Pre-write read of the session's own row.
                    assert_eq!(
                        r[0].get(0, "v").unwrap().as_str(),
                        Some(format!("v{t}").as_str()),
                        "session {t}"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every update landed exactly once.
        for t in 0..n {
            let rs = d
                .submit(&[format!("SELECT v FROM t WHERE id = {t}")])
                .unwrap();
            assert_eq!(
                rs[0].get(0, "v").unwrap().as_str(),
                Some(format!("w{t}").as_str())
            );
        }
        let s = d.stats();
        assert_eq!(s.solo_writes, 0, "disjoint write batches are admitted");
    }

    #[test]
    fn conflicting_write_batches_serialize_with_exact_effects() {
        // All sessions increment the SAME row: conflicting footprints must
        // never share a dispatch, and the increments must each apply
        // exactly once regardless of dispatch grouping.
        let env = SimEnv::default_env();
        env.seed_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
            .unwrap();
        env.seed_sql("INSERT INTO c VALUES (1, 0)").unwrap();
        let d = Arc::new(Dispatcher::with_window(
            env.clone(),
            Duration::from_millis(20),
        ));
        let n = 6usize;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let d = Arc::clone(&d);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    d.submit(&["UPDATE c SET n = n + 1 WHERE id = 1".to_string()])
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rs = d
            .submit(&["SELECT n FROM c WHERE id = 1".to_string()])
            .unwrap();
        assert_eq!(
            rs[0].get(0, "n").unwrap().as_i64(),
            Some(n as i64),
            "each increment applied exactly once: {:?}",
            d.stats()
        );
    }

    #[test]
    fn failed_coalesced_dispatch_isolates_errors_per_session() {
        let env = seeded_env();
        let d = Arc::new(Dispatcher::with_window(
            env.clone(),
            Duration::from_millis(30),
        ));
        let barrier = Arc::new(Barrier::new(2));
        let good = {
            let d = Arc::clone(&d);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                d.submit(&["SELECT v FROM t WHERE id = 2".to_string()])
            })
        };
        let bad = {
            let d = Arc::clone(&d);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                d.submit(&["SELECT v FROM missing WHERE id = 1".to_string()])
            })
        };
        let good = good.join().unwrap();
        let bad = bad.join().unwrap();
        // Whether or not the two coalesced, the good session always gets
        // its rows and the bad one its own error.
        let good = good.expect("good session must not see the other's error");
        assert_eq!(good[0].get(0, "v").unwrap().as_str(), Some("v2"));
        assert!(bad.unwrap_err().to_string().contains("missing"));
    }

    #[test]
    fn failing_rider_keeps_its_prefix_and_its_own_error_position() {
        // Session A reads `t`; session B updates and reads `c`, then
        // fails, on one combined dispatch (hold-open 2 on one stripe
        // makes the sharing deterministic). Whichever flush queued first,
        // A keeps its rows, B gets what it would have got alone — its
        // executed prefix and the error at ITS position 2 — and the
        // UPDATE runs exactly once: it is never replayed by a re-ship.
        let env = seeded_env();
        env.seed_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
            .unwrap();
        env.seed_sql("INSERT INTO c VALUES (1, 0)").unwrap();
        let d = Arc::new(Dispatcher::with_stripes(env.clone(), Duration::ZERO, 1));
        d.set_hold_open(2);
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
        assert!(b.coalesced);
        assert_eq!(rows(&b, 1).get(0, "n").unwrap().as_i64(), Some(1));
        assert!(b.results[0].is_some() && b.results[2].is_none() && b.results[3].is_none());
        let (pos, e) = b.error.expect("B's third statement fails");
        assert_eq!(pos, 2, "re-based to B's own slice");
        assert!(e.to_string().contains("missing"));
        let s = d.stats();
        assert_eq!((s.dispatches, s.coalesced_batches), (1, 2), "{s:?}");
        assert_eq!(s.fallback_splits, 1, "{s:?}");
        let n = d.submit(&["SELECT n FROM c WHERE id = 1".to_string()]);
        assert_eq!(n.unwrap()[0].get(0, "n").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn failed_combined_write_dispatch_never_replays_writes() {
        // Session A (good write) and session B (failing statement) on
        // disjoint tables. However the dispatcher groups them, A's
        // increment applies exactly once and B gets its own error.
        let env = SimEnv::default_env();
        env.seed_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
            .unwrap();
        env.seed_sql("INSERT INTO c VALUES (1, 0)").unwrap();
        let d = Arc::new(Dispatcher::with_window(
            env.clone(),
            Duration::from_millis(30),
        ));
        let barrier = Arc::new(Barrier::new(2));
        let good = {
            let d = Arc::clone(&d);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                d.submit(&["UPDATE c SET n = n + 1 WHERE id = 1".to_string()])
            })
        };
        let bad = {
            let d = Arc::clone(&d);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                d.submit(&["DELETE FROM missing WHERE id = 1".to_string()])
            })
        };
        good.join().unwrap().expect("good write succeeds");
        assert!(bad.join().unwrap().is_err());
        let rs = d
            .submit(&["SELECT n FROM c WHERE id = 1".to_string()])
            .unwrap();
        assert_eq!(rs[0].get(0, "n").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn dispatched_path_never_reanalyzes_footprints() {
        // Footprints resolved once at admission (via the backend's
        // template cache) stay in the statements, so the planner looks
        // NOTHING up on the dispatched path — solo writes, coalesced
        // write batches and barrier batches alike.
        let env = seeded_env();
        let d = Arc::new(Dispatcher::with_window(
            env.clone(),
            Duration::from_millis(20),
        ));
        // Solo write batch.
        d.submit(&[
            "SELECT v FROM t WHERE id = 1".to_string(),
            "UPDATE t SET v = 'a' WHERE id = 1".to_string(),
        ])
        .unwrap();
        // Barrier batch (dispatches solo, still no planner derivations).
        d.submit(&[
            "BEGIN".to_string(),
            "UPDATE t SET v = 'b' WHERE id = 2".to_string(),
            "COMMIT".to_string(),
        ])
        .unwrap();
        // Concurrent disjoint write batches that may coalesce.
        let n = 4usize;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let d = Arc::clone(&d);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    d.submit(&[format!("UPDATE t SET v = 'w{t}' WHERE id = {}", 10 + t)])
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // The backend cache did the real work: one lookup per statement
        // submitted (2 + 3 + 4), one parse per template.
        let fs = env.footprint_cache_stats();
        assert_eq!(
            fs.hits + fs.misses,
            9,
            "dispatched flushes must never re-derive footprints: {fs:?}"
        );
        assert!(fs.misses > 0);
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

    fn counter_env() -> SimEnv {
        let env = SimEnv::default_env();
        env.seed_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
            .unwrap();
        env.seed_sql("INSERT INTO c VALUES (1, 0)").unwrap();
        env
    }

    #[test]
    fn repeated_leader_panics_fail_their_tickets_then_recover() {
        // Two consecutive dispatches, each led by a different session,
        // both hit an injected driver panic. Each leader's ticket errors
        // (the front door never wedges), no write applies during the
        // panicked rounds, and the third dispatch applies exactly once.
        let env = counter_env();
        env.set_faults(Some(
            crate::fault::FaultPlan::seeded(7).panic_at(0).panic_at(1),
        ));
        let d = Arc::new(Dispatcher::new(env.clone()));
        for round in 0..2 {
            let d2 = Arc::clone(&d);
            let h = std::thread::spawn(move || {
                d2.submit(&["UPDATE c SET n = n + 1 WHERE id = 1".to_string()])
            });
            assert!(
                h.join().is_err(),
                "round {round}: the leader session re-raises the panic"
            );
        }
        assert_eq!(env.fault_stats().injected_panics, 2);
        // Trip 2 delivers: the increment applies exactly once overall.
        d.submit(&["UPDATE c SET n = n + 1 WHERE id = 1".to_string()])
            .unwrap();
        let rs = d
            .submit(&["SELECT n FROM c WHERE id = 1".to_string()])
            .unwrap();
        assert_eq!(rs[0].get(0, "n").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn repeated_failed_combined_dispatches_split_per_ticket() {
        // Two consecutive rounds of (good write, failing statement) from
        // different sessions: every round the good rider's increment
        // applies exactly once and the bad rider gets its own error —
        // repeated failures never leak state across rounds.
        let env = counter_env();
        let d = Arc::new(Dispatcher::with_window(
            env.clone(),
            Duration::from_millis(25),
        ));
        for round in 1..=2i64 {
            let barrier = Arc::new(Barrier::new(2));
            let good = {
                let d = Arc::clone(&d);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    d.submit(&["UPDATE c SET n = n + 1 WHERE id = 1".to_string()])
                })
            };
            let bad = {
                let d = Arc::clone(&d);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    d.submit(&["DELETE FROM missing WHERE id = 1".to_string()])
                })
            };
            good.join().unwrap().expect("good write succeeds");
            let bad = bad.join().unwrap();
            assert!(
                bad.unwrap_err().to_string().contains("missing"),
                "round {round}: the failing rider gets its own error"
            );
            let rs = d
                .submit(&["SELECT n FROM c WHERE id = 1".to_string()])
                .unwrap();
            assert_eq!(
                rs[0].get(0, "n").unwrap().as_i64(),
                Some(round),
                "round {round}: increment applied exactly once"
            );
        }
    }

    #[test]
    fn exhausted_transient_dispatch_fails_all_riders_without_replay() {
        // Every trip times out and the budget allows 2 attempts: the
        // dispatch exhausts. Both riders must get the transient error —
        // re-executing either could double-apply the journaled write —
        // and the increment applies exactly once (attempt 2 answered it
        // from the at-most-once journal).
        let env = counter_env();
        env.set_faults(Some(crate::fault::FaultPlan::seeded(3).timeouts(1000, 8)));
        env.set_retry_policy(crate::fault::RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        });
        let d = Arc::new(Dispatcher::with_window(
            env.clone(),
            Duration::from_millis(25),
        ));
        let barrier = Arc::new(Barrier::new(2));
        let write = {
            let d = Arc::clone(&d);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                d.submit(&["UPDATE c SET n = n + 1 WHERE id = 1".to_string()])
            })
        };
        let read = {
            let d = Arc::clone(&d);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                d.submit(&["SELECT n FROM c WHERE id = 1".to_string()])
            })
        };
        let write = write.join().unwrap();
        let read = read.join().unwrap();
        for r in [&write, &read] {
            let e = r.as_ref().expect_err("exhausted dispatch fails the rider");
            assert!(
                crate::fault::is_transient_error(e),
                "transient marker survives the split: {e}"
            );
        }
        assert!(env.fault_stats().exhausted_batches >= 1);
        env.set_faults(None);
        let rs = d
            .submit(&["SELECT n FROM c WHERE id = 1".to_string()])
            .unwrap();
        assert_eq!(
            rs[0].get(0, "n").unwrap().as_i64(),
            Some(1),
            "the journaled write applied exactly once despite 2 attempts"
        );
    }

    #[test]
    fn striped_dispatcher_keeps_results_exact_under_concurrency() {
        // 16 sessions over the default 8 stripes: whatever the stripe
        // routing and per-stripe grouping, every session's rows are
        // byte-identical to its serial reference, and the dispatcher's
        // flush accounting stays exact.
        let env = seeded_env();
        let d = Arc::new(Dispatcher::with_window(
            env.clone(),
            Duration::from_millis(5),
        ));
        assert_eq!(d.n_stripes(), DEFAULT_STRIPES);
        let n = 16usize;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let d = Arc::clone(&d);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let sqls: Vec<String> = (0..2)
                        .map(|i| format!("SELECT v FROM t WHERE id = {}", (t * 2 + i) % 32))
                        .collect();
                    barrier.wait();
                    let r = d.submit(&sqls).unwrap();
                    for (i, rs) in r.iter().enumerate() {
                        let want = format!("v{}", (t * 2 + i) % 32);
                        assert_eq!(rs.get(0, "v").unwrap().as_str(), Some(want.as_str()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = d.stats();
        assert_eq!(s.flushes, 16);
        assert!(s.dispatches <= s.flushes);
        // Every dispatch was one backend round trip.
        assert_eq!(env.stats().round_trips, s.dispatches);
        assert_eq!(env.stats().queries, 32);
    }

    #[test]
    fn one_stripe_dispatcher_matches_legacy_single_leader() {
        let d = Dispatcher::with_stripes(seeded_env(), Duration::ZERO, 1);
        assert_eq!(d.n_stripes(), 1);
        let r = d
            .submit(&["SELECT v FROM t WHERE id = 0".to_string()])
            .unwrap();
        assert_eq!(r[0].get(0, "v").unwrap().as_str(), Some("v0"));
        // Clamped: a zero stripe count still yields a working dispatcher.
        let d = Dispatcher::with_stripes(seeded_env(), Duration::ZERO, 0);
        assert_eq!(d.n_stripes(), 1);
    }

    #[test]
    fn bypass_request_skips_coalescing_and_counts_degradation() {
        let d = Dispatcher::new(seeded_env());
        let r = d.ship(&BatchRequest {
            cache: CacheMode::Bypass,
            ..BatchRequest::new(&[Stmt::new("SELECT v FROM t WHERE id = 3")])
        });
        assert_eq!(rows(&r, 0).get(0, "v").unwrap().as_str(), Some("v3"));
        assert!(!r.coalesced);
        let s = d.stats();
        assert_eq!(s.degraded_solo, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.dispatches, 1);
        assert_eq!(s.coalesced_batches, 0);
    }
}
