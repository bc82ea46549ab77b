//! # sloth-net — virtual clock, network latency and the batch driver
//!
//! The paper measures page-load latency between an application server and a
//! MySQL server connected by a network with 0.5 ms–10 ms round-trip times,
//! using an **extended JDBC driver** that ships a whole batch of queries in a
//! single round trip and executes the reads in parallel on the database
//! (§5). This crate reproduces that setup deterministically:
//!
//! * [`Clock`] — a shared virtual clock in nanoseconds (atomic: many
//!   sessions may advance it concurrently).
//! * [`CostModel`] — round-trip latency, per-byte transfer cost, and the
//!   database-side execution cost model (base + per-row costs, `workers`
//!   parallel threads for batched reads).
//! * [`SimEnv`] — the simulated deployment: one versioned store of N ≥ 1
//!   databases plus a driver endpoint. [`SimEnv::ship`] is the Sloth
//!   batch driver — one [`BatchRequest`], one round trip for the whole
//!   batch; [`SimEnv::query_batch`] and [`SimEnv::query`] (the stock
//!   driver, one round trip per statement) are thin wrappers over it. The
//!   handle is `Send + Sync`: any number of sessions on any number of
//!   threads may share one deployment.
//! * [`ShardedEnv`] — the horizontally-partitioned deployment: the same
//!   store and the same batch executor, with a [`ShardSpec`] the
//!   fusion-aware scatter-gather router routes by (see [`shard`]). Its
//!   handle **is** a [`SimEnv`], so the query store, ORM and
//!   interpreters run unchanged on a fleet.
//! * [`Dispatcher`] — the front door every session's flush enters (see
//!   [`dispatch`]): it counts the flush and ships it.
//! * [`NetStats`] — deterministic counters: round trips, queries, and time
//!   split into network / database / application-server buckets, exactly the
//!   decomposition of Fig. 8. Accumulation is saturating, so shared-clock
//!   counters can never wrap.

#![warn(missing_docs)]

mod batch;
mod cache;
pub mod dispatch;
pub mod fault;
pub mod shard;
mod versioned;

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sloth_sql::{Database, Footprint, ResultSet, SqlError, Stmt};
use versioned::{Admit, VersionedStore};

pub use cache::ResultCacheStats;
pub use dispatch::{Dispatcher, DispatcherStats};
pub use fault::{
    is_transient_error, transient_error, FaultDecision, FaultPlan, FaultStats, Outage, RetryPolicy,
};
pub use shard::{ShardStats, ShardedEnv};
pub use sloth_sql::{PlanCacheStats, ShardSpec};

/// A shared virtual clock counting nanoseconds since simulation start.
///
/// The counter is atomic and advances saturate at `u64::MAX`: concurrent
/// sessions sharing one cost model can race on it without ever wrapping
/// backwards.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: Arc<AtomicU64>,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// Rolls the clock back to zero (measurement restart).
    pub fn reset(&self) {
        self.now.store(0, Ordering::Relaxed);
    }

    /// Advances the clock by `ns`, saturating at `u64::MAX`.
    pub fn advance(&self, ns: u64) {
        let mut cur = self.now.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(ns);
            match self
                .now
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Deterministic cost model for the simulated deployment.
///
/// Defaults approximate the paper's testbed: servers in the same data centre
/// (0.5 ms RTT), a database machine with 12 cores executing batched reads in
/// parallel, and per-row costs calibrated so that typical benchmark queries
/// cost tens of microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Network round-trip latency in nanoseconds (paper: 0.5, 1, 10 ms).
    pub rtt_ns: u64,
    /// Per-byte serialization + transfer cost in nanoseconds.
    pub per_byte_ns: u64,
    /// Fixed per-statement cost on the database (parse/plan/dispatch).
    pub db_base_ns: u64,
    /// Cost per row scanned.
    pub db_row_scan_ns: u64,
    /// Cost per row returned.
    pub db_row_out_ns: u64,
    /// Parallel workers executing batched reads (paper DB box: 12 cores).
    pub db_workers: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            rtt_ns: 500_000, // 0.5 ms
            per_byte_ns: 1,
            db_base_ns: 220_000, // 220 µs per statement (parse/plan/execute)
            db_row_scan_ns: 150,
            db_row_out_ns: 1_000,
            db_workers: 12,
        }
    }
}

impl CostModel {
    /// The default model with a different round-trip latency in milliseconds.
    pub fn with_rtt_ms(ms: f64) -> Self {
        CostModel {
            rtt_ns: (ms * 1_000_000.0) as u64,
            ..CostModel::default()
        }
    }
}

/// Counters split exactly as the paper's Fig. 8 time breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Database round trips performed.
    pub round_trips: u64,
    /// Individual SQL statements executed.
    pub queries: u64,
    /// Time attributed to network latency and transfer.
    pub network_ns: u64,
    /// Time attributed to database-side execution.
    pub db_ns: u64,
    /// Time attributed to application-server computation.
    pub app_ns: u64,
    /// Largest batch shipped in a single round trip.
    pub max_batch: u64,
    /// Total bytes moved over the wire (requests + results).
    pub bytes: u64,
    /// Statements that were answered by a fused group execution (counts
    /// every member of every fused group).
    pub fused_queries: u64,
    /// Fused executions performed (one per group of ≥ 2 same-template
    /// lookups).
    pub fused_groups: u64,
    /// Read-only batches executed against a published MVCC snapshot
    /// (never took the database lock at all).
    pub snapshot_batches: u64,
}

impl NetStats {
    /// Total simulated time across all buckets.
    pub fn total_ns(&self) -> u64 {
        self.network_ns
            .saturating_add(self.db_ns)
            .saturating_add(self.app_ns)
    }
}

/// One batch for the driver to ship: the statements plus how the result
/// cache is to be treated. Whatever an earlier layer already learned
/// about a statement — template, parameters, footprint — travels inside
/// its [`Stmt`]. [`BatchRequest::new`] gives the stock request (cache
/// served).
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    /// The statements, in execution order.
    pub stmts: &'a [Stmt],
    /// Whether the result cache may answer and be filled.
    pub cache: CacheMode,
}

impl<'a> BatchRequest<'a> {
    /// The stock request for `stmts`: cache served.
    pub fn new(stmts: &'a [Stmt]) -> Self {
        BatchRequest {
            stmts,
            cache: CacheMode::Serve,
        }
    }
}

/// How a batch uses the shared result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Eligible reads are answered from the cache and executed reads
    /// fill it.
    Serve,
    /// Nothing is served from or filled into the cache, but shipped
    /// writes still invalidate overlapping entries — the batch really
    /// executes, so other sessions' cached reads are stale either way.
    /// The degraded-session mode: a session that exhausted its retry
    /// budget no longer trusts locally cached answers — a cached answer
    /// cannot be trusted to postdate its lost batch's ambiguous writes —
    /// and ships its batches as they are.
    Bypass,
}

/// What one batch execution produced, including the per-position fusion
/// attribution the query store needs for its own statistics (race-free:
/// derived from this batch's plan, not from global counter deltas another
/// session could perturb).
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Per-position results; `None` for the failing statement and
    /// everything after it.
    pub results: Vec<Option<ResultSet>>,
    /// The first error and its batch position, if any. A batch abandoned
    /// after retry exhaustion reports its transient error at position 0
    /// with every position unanswered (nothing is known to have applied
    /// from the caller's perspective — see the failure-model docs).
    pub error: Option<(usize, SqlError)>,
    /// For each batch position, the fused-group index it was answered by
    /// (`None` for statements executed on their own).
    pub fused_members: Vec<Option<usize>>,
    /// Statements answered by fused group executions.
    pub fused_queries: u64,
    /// Fused group executions performed.
    pub fused_groups: u64,
    /// Conflict segments the batch planner found in this batch (1
    /// when every statement commutes; see [`sloth_sql::footprint`]).
    pub segments: u64,
    /// Fused statements that crossed a disjoint-footprint write.
    pub cross_write_fused: u64,
}

impl BatchOutcome {
    /// The all-or-error view: every result, or the first error.
    pub fn into_results(self) -> Result<Vec<ResultSet>, SqlError> {
        if let Some((_, e)) = self.error {
            return Err(e);
        }
        Ok(self
            .results
            .into_iter()
            .map(|r| r.expect("error-free batch answers every position"))
            .collect())
    }

    /// A batch of `n` statements abandoned whole (retry budget
    /// exhausted): nothing answered, `e` at position 0.
    fn abandoned(n: usize, e: SqlError) -> Self {
        BatchOutcome::unshipped(vec![None; n], Some((0, e)))
    }

    /// A batch that never reached the wire: `results` are local answers
    /// (or unanswered positions, with `error`), nothing was planned.
    fn unshipped(results: Vec<Option<ResultSet>>, error: Option<(usize, SqlError)>) -> Self {
        BatchOutcome {
            fused_members: vec![None; results.len()],
            results,
            error,
            ..BatchOutcome::default()
        }
    }
}

/// Saturating add on a shared counter (CAS loop, like [`Clock::advance`]):
/// concurrent sessions can never race a counter into a wrap.
fn sat_add(counter: &AtomicU64, add: u64) {
    if add == 0 {
        return;
    }
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(add);
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Lock-free [`NetStats`] accumulator: one atomic per counter, so the
/// batch path updates statistics without a deployment mutex and readers
/// snapshot them without blocking an in-flight batch. Each counter is
/// individually monotone and saturating; a snapshot taken mid-batch may
/// straddle one batch's updates but never tears within a counter.
#[derive(Default)]
struct AtomicNetStats {
    round_trips: AtomicU64,
    queries: AtomicU64,
    network_ns: AtomicU64,
    db_ns: AtomicU64,
    app_ns: AtomicU64,
    max_batch: AtomicU64,
    bytes: AtomicU64,
    fused_queries: AtomicU64,
    fused_groups: AtomicU64,
    snapshot_batches: AtomicU64,
}

impl AtomicNetStats {
    fn snapshot(&self) -> NetStats {
        NetStats {
            round_trips: self.round_trips.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            network_ns: self.network_ns.load(Ordering::Relaxed),
            db_ns: self.db_ns.load(Ordering::Relaxed),
            app_ns: self.app_ns.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fused_queries: self.fused_queries.load(Ordering::Relaxed),
            fused_groups: self.fused_groups.load(Ordering::Relaxed),
            snapshot_batches: self.snapshot_batches.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.round_trips.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        self.network_ns.store(0, Ordering::Relaxed);
        self.db_ns.store(0, Ordering::Relaxed);
        self.app_ns.store(0, Ordering::Relaxed);
        self.max_batch.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.fused_queries.store(0, Ordering::Relaxed);
        self.fused_groups.store(0, Ordering::Relaxed);
        self.snapshot_batches.store(0, Ordering::Relaxed);
    }
}

/// Configuration knobs read on every batch, each its own atomic: toggles
/// flip and the batch path reads them without taking any lock.
struct Knobs {
    fusion: AtomicBool,
    /// Selective laziness (§3.5–3.6): query stores on this deployment may
    /// defer provably-silent writes instead of flushing on every write
    /// registration.
    write_deferral: AtomicBool,
    /// Real nanoseconds a write batch holds the write order open after
    /// executing, before publishing — the injected "hot writer" the
    /// snapshot-overlap figure and the reader-wedge tests measure
    /// against. `0` (the default) is a no-op.
    write_hold_ns: AtomicU64,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            fusion: AtomicBool::new(true),
            write_deferral: AtomicBool::new(true),
            write_hold_ns: AtomicU64::new(0),
        }
    }
}

/// Everything the fault layer owns, behind its own mutex. The no-fault
/// hot path never touches it: a lock-free `faults_on` flag gates entry,
/// so a perfect network costs one atomic load per batch.
#[derive(Default)]
struct FaultState {
    /// Active fault plan (`None` = perfect network, zero-overhead path).
    plan: Option<fault::FaultPlan>,
    /// Retry / backoff / deadline policy for faulted trips.
    retry: fault::RetryPolicy,
    /// Fault-injection and recovery counters.
    stats: fault::FaultStats,
    /// Global trip sequence number driving the fault plan (counts every
    /// attempted round trip, including dropped and timed-out ones).
    trip_seq: u64,
    /// Next batch tag for the at-most-once statement journal.
    next_batch_tag: u64,
    /// At-most-once journal: statement id → (result, was it a write).
    /// A statement that executed in an ambiguous attempt (timed out, or
    /// failed mid-batch on an out shard) parks its result here; the
    /// replay consumes it instead of re-executing, so effects apply
    /// exactly once. Empty whenever no batch is mid-recovery.
    journal: HashMap<u64, (ResultSet, bool)>,
}

/// The simulated deployment: application server + database backend +
/// network.
///
/// Cloning shares the same underlying simulation (cheap `Arc` clone), so
/// the query store, ORM session and interpreter can all hold handles — on
/// any thread: the handle is `Send + Sync`. There is **no whole-deployment
/// mutex**: the clock, counters and knobs are lock-free atomics, the
/// versioned store synchronizes on its own write order and published
/// views, and the result cache and fault layer sit behind their own
/// short-lived mutexes — so any number of sessions ship batches
/// concurrently, exactly like pooled connections to one database server.
/// The deployment is a single server ([`SimEnv::new`]) or a sharded
/// fleet ([`ShardedEnv::handle`]) — one store of N ≥ 1 databases behind
/// one router, N = 1 for the single server.
#[derive(Clone)]
pub struct SimEnv {
    /// The databases, their published views and the write order (see
    /// [`versioned`]).
    store: Arc<VersionedStore>,
    /// The batch executor over the store (see [`shard`]). Over one
    /// database it routes nothing: every statement runs as written.
    router: Arc<shard::Router>,
    clock: Clock,
    /// Real nanoseconds slept per virtual network nanosecond, stored in
    /// parts per million (0 = pure virtual time) — permille quantization
    /// silently zeroed the sub-0.001 scales fast CI runs use. Atomic so
    /// the throughput harness can set it without contending on the driver
    /// path.
    realtime_ppm: Arc<AtomicU64>,
    /// Lock-free counters; see [`AtomicNetStats`].
    stats: Arc<AtomicNetStats>,
    /// Lock-free configuration toggles; see [`Knobs`].
    knobs: Arc<Knobs>,
    /// The cost model, fixed at construction.
    cost: CostModel,
    /// Lock-free mirror of the result cache's enabled flag: the default
    /// cache-off path costs one atomic load, no mutex.
    cache_on: Arc<AtomicBool>,
    /// Shared footprint-invalidated result cache (see [`cache`]) behind
    /// its own mutex, held only for probe/settle bookkeeping — never
    /// across execution or a network sleep. Every session — on its own
    /// dispatcher, on a shared one, or on a sharded fleet — shares one
    /// coherent view.
    cache: Arc<Mutex<cache::ResultCache>>,
    /// Lock-free mirror of "a fault plan is installed": the perfect-
    /// network path skips the fault mutex entirely.
    faults_on: Arc<AtomicBool>,
    /// Fault plan, retry policy, trip sequence and the at-most-once
    /// journal, behind their own mutex (see [`FaultState`]).
    fault: Arc<Mutex<FaultState>>,
}

impl SimEnv {
    /// Creates a fresh single-server deployment with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        SimEnv::from_database(Database::new(), cost)
    }

    /// A deployment over `dbs`, partitioned by `spec` (empty for the
    /// single server).
    pub(crate) fn over(cost: CostModel, spec: ShardSpec, dbs: Vec<Database>) -> Self {
        SimEnv {
            router: Arc::new(shard::Router::new(spec, dbs.len())),
            store: Arc::new(VersionedStore::new(dbs)),
            clock: Clock::new(),
            realtime_ppm: Arc::new(AtomicU64::new(0)),
            stats: Arc::new(AtomicNetStats::default()),
            knobs: Arc::new(Knobs::default()),
            cost,
            cache_on: Arc::new(AtomicBool::new(false)),
            cache: Arc::new(Mutex::new(cache::ResultCache::new())),
            faults_on: Arc::new(AtomicBool::new(false)),
            fault: Arc::new(Mutex::new(FaultState::default())),
        }
    }

    /// The result cache, behind its own short-lived mutex. Poison
    /// recovery everywhere: a panic in another session must not wedge
    /// the deployment.
    fn cache(&self) -> std::sync::MutexGuard<'_, cache::ResultCache> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The fault layer's state, behind its own short-lived mutex.
    fn fault(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.fault
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A deployment with the default (0.5 ms RTT) cost model.
    pub fn default_env() -> Self {
        SimEnv::new(CostModel::default())
    }

    /// A deployment whose database is a clone of `db` — used by the
    /// experiment harness to "restart" the server between measurements
    /// without re-seeding.
    pub fn from_database(db: Database, cost: CostModel) -> Self {
        SimEnv::over(cost, ShardSpec::new(), vec![db])
    }

    /// A clone of the last committed database contents (one-database
    /// deployments only) — lock-free: it clones the published view.
    ///
    /// # Panics
    /// Panics on a fleet of more than one database — there is no single
    /// database to snapshot; query the fleet instead.
    pub fn snapshot_db(&self) -> Database {
        assert_eq!(
            self.store.len(),
            1,
            "snapshot_db: this deployment has more than one database"
        );
        Database::clone(&self.store.catalog())
    }

    /// Direct mutable access to the database for seeding fixtures
    /// (one-database deployments only). No time or round trips are
    /// charged — this models loading the database out of band before the
    /// experiment starts. The closure runs holding the write order, exactly like a
    /// write batch mid-commit: write batches wait for it, snapshot reads
    /// keep answering from the last published state, and whatever it did
    /// is published when it returns.
    ///
    /// # Panics
    /// Panics on a fleet of more than one database; seed through
    /// [`SimEnv::seed_sql`], which routes rows to their shards.
    pub fn seed<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        assert_eq!(
            self.store.len(),
            1,
            "seed: this deployment has more than one database"
        );
        let admitted = self.store.admit(Admit::Exclusive);
        let out = f(&mut admitted.write(0));
        // Publish unconditionally: out-of-band mutation may not go
        // through the version-bumping execute path, so the version gate
        // cannot be trusted to notice it.
        admitted.publish(true);
        drop(admitted);
        // Out-of-band mutation bypasses the footprint machinery, so no
        // cached result can be trusted afterwards.
        self.cache().clear();
        out
    }

    /// Convenience: execute seed SQL without charging time. The
    /// statement takes the batch path's own admit → execute → publish
    /// route (on a sharded deployment through the router: DDL
    /// broadcasts, rows land on their owning shards) — but always as a
    /// writer, with no counter touched and nothing charged.
    pub fn seed_sql(&self, sql: &str) -> Result<ResultSet, SqlError> {
        let stmts = [Stmt::new(sql)];
        let plan = batch::plan_batch(&stmts, false, |s| self.footprint(s));
        let mut exec = self
            .execute(CostModel::default(), &stmts, &plan, None, None, true)
            .exec;
        // Unmetered mutation is invisible to footprint invalidation:
        // drop every cached result.
        self.cache().clear();
        match exec.error {
            Some((_, e)) => Err(e),
            None => Ok(exec.results.swap_remove(0).expect("executed without error")),
        }
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Enables or disables batch-level query fusion (on by default).
    /// Fusion is semantically invisible; the switch exists for equivalence
    /// testing and for the fusion-on/off benchmark figure.
    pub fn set_fusion(&self, on: bool) {
        self.knobs.fusion.store(on, Ordering::Relaxed);
    }

    /// Whether batch-level query fusion is enabled.
    pub fn fusion_enabled(&self) -> bool {
        self.knobs.fusion.load(Ordering::Relaxed)
    }

    /// Enables or disables **write deferral** (selective laziness, on by
    /// default): query stores on this deployment leave provably-silent
    /// writes — footprint-disjoint from every pending statement — in the
    /// pending batch instead of flushing, so N consecutive disjoint
    /// writes cost one round trip instead of N. A conflicting statement,
    /// an explicit force, or a transaction boundary drains them. Turning
    /// this off flushes on every write registration — what a degraded
    /// session does anyway, and the `deferral` figure's baseline.
    pub fn set_write_deferral(&self, on: bool) {
        self.knobs.write_deferral.store(on, Ordering::Relaxed);
    }

    /// Whether write deferral is enabled.
    pub fn write_deferral_enabled(&self) -> bool {
        self.knobs.write_deferral.load(Ordering::Relaxed)
    }

    /// Makes every write batch — on the single server and on a fleet —
    /// hold the write order open for `ns` **real** nanoseconds after
    /// executing, before publishing — the injected "hot writer" the
    /// snapshot-overlap figure and the reader-wedge tests measure
    /// against. `0` (the default) disables the hold. Virtual time is
    /// never charged for the hold.
    pub fn set_write_hold_ns(&self, ns: u64) {
        self.knobs.write_hold_ns.store(ns, Ordering::Relaxed);
    }

    /// Read-only batches served from a published snapshot so far.
    pub fn snapshot_batches(&self) -> u64 {
        self.stats.snapshot_batches.load(Ordering::Relaxed)
    }

    /// Enables or disables the **shared result cache** (off by default):
    /// reads whose normalized template + params match a cached entry are
    /// answered locally with zero charged network time, and every shipped
    /// write's [`sloth_sql::Footprint`] kills exactly the cached reads it
    /// can overlap — across sessions, shards, and fault-layer retries.
    /// Bounded at 512 entries, FIFO like the plan cache. Turning the
    /// cache off drops every entry (invalidation pauses with it, so
    /// nothing surviving a disabled window could be trusted again).
    pub fn set_result_cache(&self, on: bool) {
        // Flip the lock-free mirror while holding the cache lock, so a
        // concurrent settle can never observe `cache_on` and the cache's
        // own enabled flag out of sync.
        let mut cache = self.cache();
        cache.set_enabled(on);
        self.cache_on.store(on, Ordering::Relaxed);
    }

    /// Whether the shared result cache is enabled.
    pub fn result_cache_enabled(&self) -> bool {
        self.cache_on.load(Ordering::Relaxed)
    }

    /// Counters of the shared result cache.
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        self.cache().stats
    }

    /// The [`Footprint`] of one statement, memoised in the statement (see
    /// [`Database::footprint`]): the first layer to ask — the query
    /// store's deferral decision, the result cache, the batch planner —
    /// resolves it through the store's per-template footprint cache
    /// (lock-free, through the published view, which shares the live
    /// database's cache); every later layer reads it back.
    pub fn footprint<'s>(&self, stmt: &'s Stmt) -> &'s Footprint {
        // Reading it back touches nothing shared between sessions.
        stmt.known_footprint()
            .unwrap_or_else(|| self.store.catalog().footprint(stmt))
    }

    /// Footprint-cache counters of the store.
    pub fn footprint_cache_stats(&self) -> sloth_sql::FootprintCacheStats {
        self.store.catalog().footprint_cache_stats()
    }

    /// Plan-cache counters of the store (summed across shards on a
    /// sharded deployment).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let mut total = PlanCacheStats::default();
        for view in self.store.published().iter() {
            let s = view.plan_cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.entries += s.entries;
            total.evictions += s.evictions;
        }
        total
    }

    /// Installs (or, with `None`, clears) the deterministic fault plan.
    /// Also rewinds the trip sequence, zeroes [`FaultStats`] and empties
    /// the statement journal, so the schedule replays from trip 0 — the
    /// knob a failing chaos seed is reproduced with.
    pub fn set_faults(&self, plan: Option<FaultPlan>) {
        // Flip the lock-free mirror while holding the fault lock, so the
        // batch path's fast gate and the installed plan change together.
        let mut fault = self.fault();
        self.faults_on.store(plan.is_some(), Ordering::Relaxed);
        fault.plan = plan;
        fault.trip_seq = 0;
        fault.stats = fault::FaultStats::default();
        fault.journal.clear();
    }

    /// The fault plan currently installed (`None` = perfect network).
    pub fn faults(&self) -> Option<FaultPlan> {
        self.fault().plan.clone()
    }

    /// Fault-injection and recovery counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault().stats
    }

    /// Replaces the retry / backoff / deadline policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.fault().retry = policy;
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.fault().retry
    }

    /// Puts the deployment in **real-time mode**: after each round trip,
    /// the calling session actually sleeps `scale` real nanoseconds per
    /// virtual network nanosecond (outside the deployment lock, so
    /// concurrent sessions overlap their network waits exactly as real
    /// connections would). `0.0` (the default) is pure virtual time.
    ///
    /// This is what makes the multi-threaded throughput harness *real*:
    /// closed-loop clients block on the wire for real wall-clock time, and
    /// batching converts directly into measured pages/second.
    ///
    /// The scale is stored in parts per million, so the sub-permille
    /// scales fast CI runs use (e.g. `1e-4`) still sleep instead of being
    /// quantized to zero.
    pub fn set_realtime(&self, scale: f64) {
        let ppm = (scale.max(0.0) * 1_000_000.0).round() as u64;
        self.realtime_ppm.store(ppm, Ordering::Relaxed);
    }

    /// The real-time scale currently in force (0.0 = pure virtual time).
    pub fn realtime_scale(&self) -> f64 {
        self.realtime_ppm.load(Ordering::Relaxed) as f64 / 1_000_000.0
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Charges application-server computation time. Lock-free: the clock
    /// and the `app_ns` counter are atomics.
    pub fn charge_app(&self, ns: u64) {
        self.clock.advance(ns);
        sat_add(&self.stats.app_ns, ns);
    }

    /// Snapshot of the accumulated statistics. Lock-free: never blocks an
    /// in-flight batch, and an in-flight batch never blocks it.
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    /// Resets statistics and clock (database contents are kept) — the
    /// paper's "restart servers between measurements".
    pub fn reset_stats(&self) {
        self.stats.reset();
        {
            let mut fault = self.fault();
            fault.stats = fault::FaultStats::default();
            fault.trip_seq = 0;
            fault.journal.clear();
        }
        // Counters only: surviving entries are still legal (the database
        // contents are kept, and invalidation never paused).
        self.cache().reset_stats();
        self.router.reset_stats();
        self.clock.reset();
    }

    /// Executes one statement over the **stock driver**: one round trip.
    pub fn query(&self, sql: &str) -> Result<ResultSet, SqlError> {
        let mut results = self
            .ship(&BatchRequest::new(&[Stmt::new(sql)]))
            .into_results()?;
        Ok(results.pop().expect("one result per query"))
    }

    /// [`SimEnv::ship`] for the stock request, all-or-error: every
    /// statement's result, or the batch's first error. One of the doors
    /// where SQL text becomes a [`Stmt`].
    pub fn query_batch(&self, sqls: &[String]) -> Result<Vec<ResultSet>, SqlError> {
        let stmts: Vec<Stmt> = sqls.iter().map(Stmt::new).collect();
        self.ship(&BatchRequest::new(&stmts)).into_results()
    }

    /// Ships one batch over the **Sloth batch driver** — the one batch
    /// entry point: the whole batch travels in a single round trip and
    /// read statements execute in parallel on `db_workers` database cores
    /// (§5).
    ///
    /// With fusion enabled (the default), same-template single-table
    /// equality lookups inside a contiguous run of reads are **fused** into
    /// one `IN (v1 … vk)` statement, executed once, and demultiplexed back
    /// into per-query result sets — K index probes and one statement
    /// dispatch instead of K. Fusion never crosses a conflicting write
    /// (order inside the batch is preserved), and per-query results, row
    /// order, and error behaviour are identical with fusion on and off.
    ///
    /// One executor runs the planned batch on one database or N (see
    /// [`shard`]). Over one database every statement runs as written; on
    /// a fleet point lookups hit one shard, fused probes split into
    /// per-shard sub-probes, everything else scatter-gathers with an
    /// order-preserving merge — still one round trip, with the batch's
    /// database time being the slowest shard's wave makespan.
    ///
    /// Execution stops at the first error; the outcome carries its
    /// position and the executed prefix, and the round trip is charged
    /// for that prefix (the wire was used either way). [`CacheMode`]
    /// decides whether the result cache may answer; the outcome also
    /// carries the per-position fusion attribution of this one batch —
    /// what the query store uses to account its own statistics without
    /// racing on the deployment-wide counters.
    pub fn ship(&self, req: &BatchRequest<'_>) -> BatchOutcome {
        let n = req.stmts.len();
        if n == 0 {
            return BatchOutcome::unshipped(Vec::new(), None);
        }
        // `None` = cache off: the batch ships verbatim, no sub-batch built.
        let probe = self.probe_result_cache(req);
        let ran = match probe {
            None => self.run_batch_resilient(req.stmts),
            // Every position answered locally: no wire, no charge.
            Some(probe) if probe.ship.is_empty() => {
                return BatchOutcome::unshipped(probe.hits, probe.stop)
            }
            Some(ref probe) => self.run_batch_resilient(&probe.shipped),
        };
        let ran = match ran {
            Ok(ran) => ran,
            Err(e) => {
                // Retry budget exhausted (every faulted attempt already
                // charged itself): the batch's writes may have applied in
                // an ambiguous attempt — invalidate by every shipped write
                // footprint, then fail the whole batch at position 0.
                if let Some(probe) = &probe {
                    self.invalidate_after_ambiguous_failure(probe);
                }
                return BatchOutcome::abandoned(n, e);
            }
        };
        // Settle before surfacing any error: the engine has no rollback,
        // so the executed prefix's writes have applied (must invalidate)
        // and its reads are current (may fill).
        if let Some(probe) = &probe {
            self.settle_result_cache(probe, &ran.exec, ran.db_version);
        }
        self.charge_and_sleep(ran.exec.results.len(), &ran);
        let RanBatch {
            exec,
            fused_members,
            segments,
            cross_write_fused,
            ..
        } = ran;
        let (results, fused_members, error) = match probe {
            None => (exec.results, fused_members, exec.error),
            // Scatter the shipped sub-batch back over the cache hits.
            Some(probe) => {
                let mut results = probe.hits;
                let mut members: Vec<Option<usize>> = vec![None; n];
                for ((&i, r), m) in probe.ship.iter().zip(exec.results).zip(fused_members) {
                    results[i] = r;
                    members[i] = m;
                }
                let error = exec
                    .error
                    .map(|(pos, e)| (probe.ship[pos], e))
                    .or(probe.stop);
                (results, members, error)
            }
        };
        BatchOutcome {
            results,
            error,
            fused_members,
            fused_queries: exec.fused_queries,
            fused_groups: exec.fused_groups,
            segments,
            cross_write_fused,
        }
    }

    /// Pre-execution pass of the result cache. `None` when the cache is
    /// disabled (the zero-overhead legacy path). Otherwise every position
    /// is classified: a read is **hit-eligible** iff it normalizes, its
    /// footprint is pure (no writes, no barrier), and no earlier shipped
    /// statement in the same batch carries a conflicting write — an
    /// in-batch write executes before the read server-side, so serving
    /// the read from a pre-write entry would be stale. Eligible hits are
    /// answered locally; everything else ships.
    ///
    /// The probe **binds as it goes**: a dependent position whose parent
    /// was just answered from the cache is bound from that row and probed
    /// in turn, so a warm chain is all hits and costs no trip. One whose
    /// parent ships is shipped too, its reference re-based to the
    /// parent's index in the sub-batch. A reference that cannot be bound
    /// at all stops the batch there ([`CacheProbe::stop`]).
    ///
    /// Footprints are resolved *before* the cache lock is taken,
    /// honouring the lock hierarchy (cache above database, never both at
    /// once).
    fn probe_result_cache(&self, req: &BatchRequest<'_>) -> Option<CacheProbe> {
        // Lock-free gate: the default cache-off path never takes a mutex.
        if !self.cache_on.load(Ordering::Relaxed) {
            return None;
        }
        let stmts = req.stmts;
        let bypass = req.cache == CacheMode::Bypass;
        // One view fetch for the batch: on a pure-read page nothing above
        // has asked these statements for a footprint yet. A dependent
        // statement's footprint waits for its bound form.
        let catalog = self.store.catalog();
        let fps: Vec<Option<&Footprint>> = stmts
            .iter()
            .map(|s| s.parent().is_none().then(|| catalog.footprint(s)))
            .collect();
        let mut hits: Vec<Option<ResultSet>> = vec![None; stmts.len()];
        let mut ship: Vec<usize> = Vec::with_capacity(stmts.len());
        let mut shipped: Vec<Stmt> = Vec::with_capacity(stmts.len());
        // Original position → index in the shipped sub-batch.
        let mut sub: Vec<u64> = vec![u64::MAX; stmts.len()];
        let mut stop = None;
        let mut cache = self.cache();
        for i in 0..stmts.len() {
            let stmt = match batch::bind(stmts, i, &hits) {
                Ok(batch::Binding::Literal) => Cow::Borrowed(&stmts[i]),
                Ok(batch::Binding::Bound(bound)) => {
                    drop(cache);
                    catalog.footprint(&bound);
                    cache = self.cache();
                    Cow::Owned(bound)
                }
                Ok(batch::Binding::NoParentRow) => {
                    hits[i] = Some(ResultSet::no_parent_row());
                    continue;
                }
                Ok(batch::Binding::Unanswered) => {
                    // Its parent ships, and so does it.
                    sub[i] = ship.len() as u64;
                    ship.push(i);
                    shipped.push(stmts[i].rebase(|p| sub[p as usize]));
                    continue;
                }
                Err(e) => {
                    stop = Some((i, e));
                    break;
                }
            };
            let fp = fps[i].unwrap_or_else(|| catalog.footprint(&stmt));
            let eligible = !bypass
                && cacheable(&stmt)
                && !fp.has_writes()
                && fps[..i]
                    .iter()
                    .flatten()
                    .all(|w| !w.has_writes() || !w.conflicts_with(fp));
            if eligible {
                if let Some(rs) = cache.probe(&stmt) {
                    hits[i] = Some(rs);
                    continue;
                }
            }
            sub[i] = ship.len() as u64;
            ship.push(i);
            shipped.push(stmt.into_owned());
        }
        drop(cache);
        Some(CacheProbe {
            hits,
            shipped,
            ship,
            bypass,
            stop,
        })
    }

    /// Post-execution pass: walks the shipped positions in batch order —
    /// an executed write invalidates every overlapping entry (including
    /// a write whose result was replayed from the fault journal: it
    /// shipped on an earlier ambiguous attempt, and its surface settles
    /// exactly once, here), an executed pure read fills. Order matters:
    /// a read that trails a conflicting in-batch write refills *after*
    /// that write's invalidation, leaving the fresh post-write entry.
    /// A dependent read fills under the statement it was bound to; one
    /// that never ran (no parent row) has nothing to file.
    fn settle_result_cache(&self, probe: &CacheProbe, exec: &batch::BatchExec, version: u64) {
        // Before the cache lock, like the probe (which memoised them all).
        let mut bound = exec.bound.iter().peekable();
        let settled: Vec<(&Stmt, &Footprint, &ResultSet)> = probe
            .shipped
            .iter()
            .zip(&exec.results)
            .enumerate()
            .filter_map(|(i, (stmt, result))| {
                let stmt = bound.next_if(|(pos, _)| *pos == i).map_or(stmt, |(_, b)| b);
                // `None`: not executed (at or past the failing position).
                let rs = result.as_ref()?;
                (stmt.parent().is_none()).then(|| (stmt, self.footprint(stmt), rs))
            })
            .collect();
        let mut cache = self.cache();
        // The cache may have been disabled (and cleared) between this
        // batch's probe and its settlement; filling a disabled cache
        // would smuggle an entry past the "nothing survives a disabled
        // window" guarantee. Writes still invalidate — a no-op on the
        // cleared map, and correct if the cache was re-enabled since.
        //
        // Staleness gate for snapshot reads: `version` is the database
        // version this batch's results reflect (the frozen snapshot for
        // a read-only batch, post-commit for a write batch). A fill is
        // legal only while that version is still the published one —
        // checked *inside* the cache mutex, so it races cleanly with a
        // committing writer: either this check sees the new version and
        // skips the fill, or the writer's own settle invalidates the
        // just-filled entry right after (publish happens before the
        // writer settles). Writes still invalidate unconditionally.
        let may_fill = cache.enabled() && version == self.store.published_version();
        for (stmt, fp, rs) in settled {
            if fp.has_writes() {
                cache.invalidate(fp);
            } else if !probe.bypass && may_fill && cacheable(stmt) {
                cache.fill(stmt.clone(), rs.clone(), fp.reads.clone());
            }
        }
    }

    /// Retry-budget exhaustion leaves a batch's server-side effects
    /// ambiguous (a timed-out attempt may well have executed). Every
    /// shipped write footprint invalidates conservatively — a stale miss
    /// costs a round trip, a stale hit would cost correctness.
    fn invalidate_after_ambiguous_failure(&self, probe: &CacheProbe) {
        let fps: Vec<&Footprint> = probe
            .shipped
            .iter()
            .filter(|s| s.is_write())
            .map(|s| self.footprint(s))
            .collect();
        let mut cache = self.cache();
        for fp in fps {
            cache.invalidate(fp);
        }
    }

    /// [`SimEnv::run_batch`] behind the fault layer: draws each trip's
    /// fate from the installed [`FaultPlan`], charges faulted attempts
    /// (wasted trips, timeouts, exponential backoff) as simulated time,
    /// and replays until the batch completes or the [`RetryPolicy`] is
    /// exhausted. Replays of ambiguous attempts consume the at-most-once
    /// statement journal, so server-side effects apply exactly once. With
    /// no plan installed this is a zero-overhead passthrough.
    ///
    /// On success (or a genuine SQL error — never retried) the final
    /// attempt's [`RanBatch`] is returned **uncharged**; the caller
    /// applies its own surface semantics. `Err` means the retry budget
    /// ran out: all attempts already charged, batch abandoned.
    fn run_batch_resilient(&self, stmts: &[Stmt]) -> Result<RanBatch, SqlError> {
        // Lock-free gate: the perfect-network path never touches the
        // fault mutex at all.
        if !self.faults_on.load(Ordering::Relaxed) {
            return Ok(self.run_batch(stmts, None, None));
        }
        let (policy, tag) = {
            let mut fault = self.fault();
            let tag = fault.next_batch_tag;
            fault.next_batch_tag += 1;
            (fault.retry, tag)
        };
        let mut faulted = false;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // Draw this trip's fate under the fault lock (the trip
            // sequence is global), then release it before executing.
            let (decision, down, skip) = {
                let mut fault = self.fault();
                let trip = fault.trip_seq;
                fault.trip_seq += 1;
                let decision = fault
                    .plan
                    .as_ref()
                    .map_or(fault::FaultDecision::Deliver, |p| p.decide(trip));
                let down = fault
                    .plan
                    .as_ref()
                    .and_then(|p| p.down_shards(trip, self.store.len()));
                let skip: Vec<Option<ResultSet>> = (0..stmts.len())
                    .map(|i| {
                        fault
                            .journal
                            .get(&fault::stmt_id(tag, i))
                            .map(|(rs, _)| rs.clone())
                    })
                    .collect();
                let hits = skip.iter().filter(|s| s.is_some()).count() as u64;
                if hits > 0 {
                    let writes = (0..stmts.len())
                        .filter(|i| {
                            fault
                                .journal
                                .get(&fault::stmt_id(tag, *i))
                                .is_some_and(|(_, w)| *w)
                        })
                        .count() as u64;
                    let fs = &mut fault.stats;
                    fs.journal_hits = fs.journal_hits.saturating_add(hits);
                    fs.deduped_writes = fs.deduped_writes.saturating_add(writes);
                }
                (
                    decision,
                    down,
                    skip.iter().any(Option::is_some).then_some(skip),
                )
            };
            let cost = self.cost;
            match decision {
                fault::FaultDecision::Panic => {
                    // Injected inside the driver, before anything ships:
                    // exercises the store's flush drop-guard. No locks
                    // are held.
                    self.fault().stats.injected_panics += 1;
                    panic!("injected fault: driver panic");
                }
                fault::FaultDecision::Drop => {
                    // Request lost before the backend: the trip's latency
                    // is wasted, nothing executed, replay is verbatim.
                    self.fault().stats.injected_drops += 1;
                    self.charge_faulted_attempt(cost.rtt_ns, 0, 0);
                    faulted = true;
                    if attempt >= policy.max_attempts {
                        return Err(self.abandon_batch(tag, stmts.len()));
                    }
                    self.charge_backoff(policy.backoff_ns(attempt));
                }
                fault::FaultDecision::Deliver | fault::FaultDecision::Slow(_) => {
                    let mut ran = self.run_batch(stmts, skip.as_deref(), down.as_deref());
                    if let fault::FaultDecision::Slow(factor) = decision {
                        let inflated = cost.rtt_ns.saturating_mul(factor);
                        if inflated > policy.deadline_ns {
                            // Timeout: the batch executed server-side but
                            // the reply is lost. Journal everything that
                            // ran so the replay dedupes, charge the
                            // deadline wait plus the backend's work.
                            self.fault().stats.injected_timeouts += 1;
                            self.journal_attempt(tag, stmts, &ran);
                            let wire = policy
                                .deadline_ns
                                .saturating_add(cost.per_byte_ns.saturating_mul(ran.exec.bytes));
                            self.charge_faulted_attempt(wire, ran.exec.db_ns, ran.exec.bytes);
                            faulted = true;
                            if attempt >= policy.max_attempts {
                                return Err(self.abandon_batch(tag, stmts.len()));
                            }
                            self.charge_backoff(policy.backoff_ns(attempt));
                            continue;
                        }
                        // Slow trip: the reply made it under the deadline;
                        // the batch succeeds with the inflated charge.
                        self.fault().stats.slow_trips += 1;
                        ran.rtt_ns = inflated;
                    }
                    if let Some((pos, e)) = &ran.exec.error {
                        if is_transient_error(e) {
                            // A shard outage failed the batch mid-flight:
                            // the executed prefix applied, so journal it,
                            // charge proportionally and retry — the
                            // window may have passed by the next trip.
                            let (pos, e) = (*pos, e.clone());
                            self.fault().stats.outage_errors += 1;
                            self.journal_attempt(tag, stmts, &ran);
                            let share = ran
                                .rtt_ns
                                .saturating_mul(pos as u64)
                                .checked_div(stmts.len() as u64)
                                .unwrap_or(0);
                            let wire = share
                                .saturating_add(cost.per_byte_ns.saturating_mul(ran.exec.bytes));
                            self.charge_faulted_attempt(wire, ran.exec.db_ns, ran.exec.bytes);
                            faulted = true;
                            if attempt >= policy.max_attempts {
                                self.abandon_batch(tag, stmts.len());
                                return Err(e);
                            }
                            self.charge_backoff(policy.backoff_ns(attempt));
                            continue;
                        }
                    }
                    // Success, or a genuine SQL error (which a retry
                    // would only repeat): hand back to the caller.
                    let mut fault = self.fault();
                    for i in 0..stmts.len() {
                        fault.journal.remove(&fault::stmt_id(tag, i));
                    }
                    if faulted {
                        fault.stats.recovered_batches += 1;
                    }
                    drop(fault);
                    return Ok(ran);
                }
            }
        }
    }

    /// Abandons batch `tag` after retry exhaustion: drops its journal
    /// entries, counts it, and builds the transient error the caller
    /// surfaces.
    fn abandon_batch(&self, tag: u64, n: usize) -> SqlError {
        let mut fault = self.fault();
        for i in 0..n {
            fault.journal.remove(&fault::stmt_id(tag, i));
        }
        fault.stats.exhausted_batches += 1;
        transient_error("retry budget exhausted")
    }

    /// Journals every position the faulted attempt `ran` executed, so the
    /// replay consumes the recorded results instead of re-executing.
    /// Reads are journaled too: a replayed read re-executing *after* an
    /// already-applied same-batch write would observe the wrong state.
    fn journal_attempt(&self, tag: u64, stmts: &[Stmt], ran: &RanBatch) {
        let mut fault = self.fault();
        for (i, (stmt, r)) in stmts.iter().zip(&ran.exec.results).enumerate() {
            if let Some(rs) = r {
                fault
                    .journal
                    .insert(fault::stmt_id(tag, i), (rs.clone(), stmt.is_write()));
            }
        }
    }

    /// Accounts one *faulted* round trip: wasted latency, any backend
    /// work that did happen, and bytes — but no statement counters (the
    /// batch's statements are counted once, on its final attempt).
    fn charge_faulted_attempt(&self, network_ns: u64, db_ns: u64, bytes: u64) {
        self.clock.advance(network_ns.saturating_add(db_ns));
        sat_add(&self.stats.round_trips, 1);
        sat_add(&self.stats.network_ns, network_ns);
        sat_add(&self.stats.db_ns, db_ns);
        sat_add(&self.stats.bytes, bytes);
        self.realtime_sleep(network_ns);
    }

    /// Charges one exponential-backoff wait as simulated network time.
    fn charge_backoff(&self, ns: u64) {
        self.clock.advance(ns);
        sat_add(&self.stats.network_ns, ns);
        {
            let mut fault = self.fault();
            fault.stats.retries += 1;
            fault.stats.backoff_ns = fault.stats.backoff_ns.saturating_add(ns);
        }
        self.realtime_sleep(ns);
    }

    /// Plans and executes one batch. Planning happens outside every lock.
    ///
    /// `skip` carries journaled results from a previous ambiguous attempt
    /// (those positions are answered from the journal, not re-executed);
    /// `down` marks shards inside an outage window.
    fn run_batch(
        &self,
        stmts: &[Stmt],
        skip: Option<&[Option<ResultSet>]>,
        down: Option<&[bool]>,
    ) -> RanBatch {
        let fusion = self.knobs.fusion.load(Ordering::Relaxed);
        let plan = batch::plan_batch(stmts, fusion, |s| self.footprint(s));
        self.execute(self.cost, stmts, &plan, skip, down, false)
    }

    /// Admit → execute → commit: the one path every statement takes to
    /// the store, on one database or many. A read-only batch runs against
    /// the published views — no lock at all — and so overlaps any
    /// concurrent writer; a batch that writes holds the write order and
    /// publishes before releasing it. Stats and clock readers never block
    /// behind an executing batch.
    ///
    /// `seeding` is the out-of-band variant ([`SimEnv::seed_sql`]): the
    /// statement is admitted as a writer whatever it is, pays no injected
    /// hold and leaves no counter behind.
    fn execute(
        &self,
        cost: CostModel,
        stmts: &[Stmt],
        plan: &batch::BatchPlan<'_>,
        skip: Option<&[Option<ResultSet>]>,
        down: Option<&[bool]>,
        seeding: bool,
    ) -> RanBatch {
        let read_only = !stmts.iter().any(Stmt::is_write);
        let mode = if seeding || !read_only {
            Admit::Exclusive
        } else {
            Admit::Snapshot
        };
        let admitted = self.store.admit(mode);
        if mode == Admit::Snapshot {
            sat_add(&self.stats.snapshot_batches, 1);
        }
        let exec = self
            .router
            .exec_batch(&cost, stmts, plan, skip, down, &admitted, !seeding);
        if mode == Admit::Exclusive {
            if !seeding {
                self.write_hold();
            }
            // Publish-at-commit, still holding the write order, so a
            // reader can never observe a version newer than the published
            // one and readers admitted afterwards see all of this batch
            // or none of it.
            admitted.publish(false);
        }
        // Stamped while the write order is still held: the published
        // version is then exactly the state this batch saw or left.
        let db_version = admitted.version();
        drop(admitted);
        let mut fused_members: Vec<Option<usize>> = vec![None; stmts.len()];
        for (g, group) in plan.fused.iter().enumerate() {
            for &(m, _) in &group.members {
                fused_members[m] = Some(g);
            }
        }
        RanBatch {
            rtt_ns: cost.rtt_ns,
            cost,
            exec,
            db_version,
            fused_members,
            segments: plan.segments,
            cross_write_fused: plan.cross_write_fused,
        }
    }

    /// Pays the injected hot-writer hold (see
    /// [`SimEnv::set_write_hold_ns`]); called by write batches only,
    /// while the write order is held, before the publish.
    fn write_hold(&self) {
        let ns = self.knobs.write_hold_ns.load(Ordering::Relaxed);
        if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }

    /// Accounts one executed round trip (stats + virtual clock) and pays
    /// the real-time network sleep outside every lock.
    ///
    /// A batch that failed mid-flight charges its round-trip latency
    /// **proportionally to the executed prefix** — a batch rejected at
    /// position 0 never occupied the wire beyond its dispatch, so it
    /// costs a trip but no transfer latency. (Statement counts scale the
    /// same way: only executed statements count as queries.)
    fn charge_and_sleep(&self, n_sqls: usize, ran: &RanBatch) {
        let cost = &ran.cost;
        let executed = ran.exec.error.as_ref().map(|(pos, _)| *pos);
        let rtt_share = match executed {
            Some(pos) => ran
                .rtt_ns
                .saturating_mul(pos as u64)
                .checked_div(n_sqls as u64)
                .unwrap_or(0),
            None => ran.rtt_ns,
        };
        let network_ns = rtt_share.saturating_add(cost.per_byte_ns.saturating_mul(ran.exec.bytes));
        self.clock
            .advance(network_ns.saturating_add(ran.exec.db_ns));
        sat_add(&self.stats.round_trips, 1);
        sat_add(&self.stats.queries, executed.unwrap_or(n_sqls) as u64);
        sat_add(&self.stats.network_ns, network_ns);
        sat_add(&self.stats.db_ns, ran.exec.db_ns);
        sat_add(&self.stats.bytes, ran.exec.bytes);
        self.stats
            .max_batch
            .fetch_max(n_sqls as u64, Ordering::Relaxed);
        sat_add(&self.stats.fused_queries, ran.exec.fused_queries);
        sat_add(&self.stats.fused_groups, ran.exec.fused_groups);
        // Real-time mode: pay the network latency in real wall-clock time
        // (no lock is held here, so concurrent sessions overlap their
        // waits — the whole point of measuring with threads).
        self.realtime_sleep(network_ns);
    }

    /// Pays `network_ns` of virtual network time as a real sleep when
    /// real-time mode is on. Called outside every lock.
    fn realtime_sleep(&self, network_ns: u64) {
        let ppm = self.realtime_ppm.load(Ordering::Relaxed);
        if ppm > 0 {
            let real_ns = network_ns.saturating_mul(ppm) / 1_000_000;
            std::thread::sleep(std::time::Duration::from_nanos(real_ns));
        }
    }
}

/// Whether the result cache may hold `stmt` at all: a read with a
/// template to be found under.
fn cacheable(stmt: &Stmt) -> bool {
    !stmt.is_write() && stmt.norm().is_some()
}

/// The result cache's pre-execution decision for one batch: which
/// positions are answered locally, which ship, and the per-position
/// classification the post-execution settlement reuses.
struct CacheProbe {
    /// Cached answers, by original position (`None` = ships).
    hits: Vec<Option<ResultSet>>,
    /// Original positions of the shipped sub-batch, ascending.
    ship: Vec<usize>,
    /// The shipped sub-batch itself (clones: reference-count bumps).
    shipped: Vec<Stmt>,
    /// Degraded-session bypass: no hits were served and no fills happen,
    /// but shipped writes still invalidate.
    bypass: bool,
    /// A reference the probe could not bind (it names no earlier read, or
    /// a column its cached parent lacks): the batch ends before that
    /// position, exactly as it would on the wire — everything from there
    /// on is neither answered nor shipped, and the outcome carries the
    /// error at that position.
    stop: Option<(usize, SqlError)>,
}

/// Internal carrier between planning/execution and accounting.
struct RanBatch {
    cost: CostModel,
    /// Round-trip latency this attempt pays — the cost model's RTT, or an
    /// inflated value on a slow (but under-deadline) trip.
    rtt_ns: u64,
    exec: batch::BatchExec,
    /// The data version the results reflect (summed over the store's
    /// databases): the post-commit version for a batch that wrote, the
    /// frozen one for a snapshot read. The result cache compares it
    /// against the currently *published* version at settle time and
    /// refuses to fill from results a later commit outdated.
    db_version: u64,
    fused_members: Vec<Option<usize>>,
    segments: u64,
    cross_write_fused: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_env() -> SimEnv {
        let env = SimEnv::default_env();
        env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..20 {
            env.seed_sql(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        env
    }

    fn stmts(sqls: &[String]) -> Vec<Stmt> {
        sqls.iter().map(Stmt::new).collect()
    }

    /// Ships `sqls` past the result cache's hit path, all-or-error.
    fn uncached(env: &SimEnv, sqls: &[String]) -> Result<Vec<ResultSet>, SqlError> {
        env.ship(&BatchRequest {
            cache: CacheMode::Bypass,
            ..BatchRequest::new(&stmts(sqls))
        })
        .into_results()
    }

    #[test]
    fn seeding_charges_nothing() {
        let env = seeded_env();
        assert_eq!(env.stats(), NetStats::default());
        assert_eq!(env.now_ns(), 0);
    }

    #[test]
    fn single_query_is_one_round_trip() {
        let env = seeded_env();
        let rs = env.query("SELECT v FROM t WHERE id = 3").unwrap();
        assert_eq!(rs.len(), 1);
        let s = env.stats();
        assert_eq!(s.round_trips, 1);
        assert_eq!(s.queries, 1);
        assert!(s.network_ns >= CostModel::default().rtt_ns);
        assert!(s.db_ns >= CostModel::default().db_base_ns);
    }

    #[test]
    fn batch_is_one_round_trip_many_queries() {
        let env = seeded_env();
        let sqls: Vec<String> = (0..10)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();
        let results = env.query_batch(&sqls).unwrap();
        assert_eq!(results.len(), 10);
        let s = env.stats();
        assert_eq!(s.round_trips, 1);
        assert_eq!(s.queries, 10);
        assert_eq!(s.max_batch, 10);
    }

    #[test]
    fn batching_beats_sequential_on_latency() {
        let sqls: Vec<String> = (0..10)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();

        let env_seq = seeded_env();
        for sql in &sqls {
            env_seq.query(sql).unwrap();
        }
        let env_batch = seeded_env();
        env_batch.query_batch(&sqls).unwrap();

        let seq = env_seq.stats();
        let batch = env_batch.stats();
        assert!(batch.network_ns < seq.network_ns);
        // Parallel execution on the server also shrinks DB time.
        assert!(batch.db_ns <= seq.db_ns);
        assert!(batch.total_ns() < seq.total_ns());
    }

    #[test]
    fn parallel_waves_respect_worker_count() {
        let cost = CostModel {
            db_workers: 2,
            per_byte_ns: 0,
            ..CostModel::default()
        };
        let env = SimEnv::new(cost);
        env.set_fusion(false); // this test measures the unfused wave model
        env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        env.seed_sql("INSERT INTO t VALUES (1)").unwrap();
        let sqls: Vec<String> = (0..4)
            .map(|_| "SELECT * FROM t WHERE id = 1".to_string())
            .collect();
        env.query_batch(&sqls).unwrap();
        let per_query = cost.db_base_ns + cost.db_row_scan_ns + cost.db_row_out_ns;
        // 4 equal queries over 2 workers → 2 waves.
        assert_eq!(env.stats().db_ns, 2 * per_query);
    }

    #[test]
    fn fusion_collapses_same_template_lookups() {
        let env = seeded_env();
        let sqls: Vec<String> = (0..10)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();
        let results = env.query_batch(&sqls).unwrap();
        let s = env.stats();
        assert_eq!(s.round_trips, 1);
        assert_eq!(s.queries, 10, "app-issued statement count is unchanged");
        assert_eq!(s.fused_groups, 1);
        assert_eq!(s.fused_queries, 10);
        for (i, rs) in results.iter().enumerate() {
            assert_eq!(
                rs.get(0, "v").unwrap().as_str(),
                Some(format!("v{i}").as_str())
            );
        }
    }

    #[test]
    fn fusion_is_semantically_invisible() {
        let sqls: Vec<String> = (0..10)
            .map(|i| format!("SELECT v FROM t WHERE id = {} ORDER BY id", i % 7))
            .chain(std::iter::once("SELECT COUNT(*) FROM t".to_string()))
            .collect();
        let on = seeded_env();
        let off = seeded_env();
        off.set_fusion(false);
        let r_on = on.query_batch(&sqls).unwrap();
        let r_off = off.query_batch(&sqls).unwrap();
        assert_eq!(
            r_on, r_off,
            "per-query results identical with fusion on/off"
        );
        assert_eq!(on.stats().round_trips, off.stats().round_trips);
        assert!(on.stats().fused_queries > 0);
        assert_eq!(off.stats().fused_queries, 0);
    }

    #[test]
    fn fusion_reduces_db_time() {
        let sqls: Vec<String> = (0..20)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();
        let on = seeded_env();
        let off = seeded_env();
        off.set_fusion(false);
        on.query_batch(&sqls).unwrap();
        off.query_batch(&sqls).unwrap();
        assert!(
            on.stats().db_ns < off.stats().db_ns,
            "fused {} ≥ unfused {}",
            on.stats().db_ns,
            off.stats().db_ns
        );
        assert!(
            on.stats().bytes < off.stats().bytes,
            "one statement text, one shared result"
        );
    }

    #[test]
    fn fusion_never_crosses_conflicting_writes() {
        let env = seeded_env();
        let sqls = vec![
            "SELECT v FROM t WHERE id = 1".to_string(),
            "UPDATE t SET v = 'changed' WHERE id = 2".to_string(),
            "SELECT v FROM t WHERE id = 2".to_string(),
        ];
        let results = env.query_batch(&sqls).unwrap();
        // The read after the write touches the written row: it must not
        // fuse backwards across the write, and must observe it.
        assert_eq!(results[2].get(0, "v").unwrap().as_str(), Some("changed"));
        assert_eq!(results[0].get(0, "v").unwrap().as_str(), Some("v1"));
        assert_eq!(env.stats().fused_groups, 0);
    }

    #[test]
    fn fusion_crosses_disjoint_footprint_writes() {
        // The write pins id = 2; the lookups probe id = 1 and id = 3, so
        // the conflict analysis lets them share one fused probe across
        // the write — the read that used to split into its own probe.
        let env = seeded_env();
        let sqls = vec![
            "SELECT v FROM t WHERE id = 1".to_string(),
            "UPDATE t SET v = 'changed' WHERE id = 2".to_string(),
            "SELECT v FROM t WHERE id = 3".to_string(),
        ];
        let o = env.ship(&BatchRequest::new(&stmts(&sqls)));
        let v = |i: usize| o.results[i].as_ref().unwrap().get(0, "v").unwrap();
        assert_eq!(v(0).as_str(), Some("v1"));
        assert_eq!(v(2).as_str(), Some("v3"));
        assert_eq!(o.fused_members, vec![Some(0), None, Some(0)]);
        assert_eq!(o.cross_write_fused, 2);
        assert_eq!(o.segments, 1, "all three footprints commute");
        assert_eq!(env.stats().fused_groups, 1);
    }

    #[test]
    fn write_batch_is_still_one_round_trip_with_exact_order() {
        // A mixed batch — reads before and after a conflicting write —
        // ships in ONE round trip with in-order semantics preserved.
        let env = seeded_env();
        let sqls = vec![
            "SELECT v FROM t WHERE id = 5".to_string(),
            "UPDATE t SET v = 'w' WHERE id = 5".to_string(),
            "SELECT v FROM t WHERE id = 5".to_string(),
        ];
        let results = env.query_batch(&sqls).unwrap();
        assert_eq!(results[0].get(0, "v").unwrap().as_str(), Some("v5"));
        assert_eq!(results[2].get(0, "v").unwrap().as_str(), Some("w"));
        assert_eq!(env.stats().round_trips, 1);
    }

    #[test]
    fn fused_probes_chunk_at_max_arity() {
        let lookups = |n: usize| -> Vec<String> {
            (0..n)
                .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
                .collect()
        };
        let sqls = lookups(batch::MAX_FUSED_ARITY + 6);
        let env = seeded_env();
        let results = env.query_batch(&sqls).unwrap();
        // Demux equivalence across the chunk boundary: every lookup gets
        // exactly its own row (or none) although the group ran as 2 probes.
        let off = seeded_env();
        off.set_fusion(false);
        assert_eq!(results, off.query_batch(&sqls).unwrap());
        for (i, rs) in results.iter().enumerate().take(20) {
            assert_eq!(
                rs.get(0, "v").unwrap().as_str(),
                Some(format!("v{i}").as_str()),
                "lookup {i}"
            );
        }
        let s = env.stats();
        assert_eq!(s.fused_queries, sqls.len() as u64, "all answered fused");
        assert_eq!(s.fused_groups, 1, "one logical group");
        // One value past the cap ships a second statement, not a longer
        // `IN` list.
        let at_cap = seeded_env();
        at_cap
            .query_batch(&lookups(batch::MAX_FUSED_ARITY))
            .unwrap();
        let past_cap = seeded_env();
        past_cap
            .query_batch(&lookups(batch::MAX_FUSED_ARITY + 1))
            .unwrap();
        assert!(
            past_cap.stats().bytes - at_cap.stats().bytes
                > "SELECT v FROM t WHERE id IN (64)".len() as u64,
            "chunking ships an extra statement text"
        );
    }

    #[test]
    fn partial_outcome_reports_error_position_and_prefix() {
        let env = seeded_env();
        let sqls = vec![
            "SELECT v FROM t WHERE id = 1".to_string(),
            "UPDATE t SET v = 'applied' WHERE id = 9".to_string(),
            "SELECT v FROM missing WHERE id = 1".to_string(),
            "SELECT COUNT(*) FROM t".to_string(),
        ];
        let p = env.ship(&BatchRequest::new(&stmts(&sqls)));
        let (pos, err) = p.error.expect("third statement fails");
        assert_eq!(pos, 2);
        assert!(err.to_string().contains("missing"));
        assert!(p.results[0].is_some());
        assert!(p.results[1].is_some(), "the write before the error ran");
        assert!(p.results[2].is_none());
        assert!(p.results[3].is_none(), "nothing after the error ran");
        // The partial round trip is charged; the applied write persists.
        assert_eq!(env.stats().round_trips, 1);
        let check = env.query("SELECT v FROM t WHERE id = 9").unwrap();
        assert_eq!(check.get(0, "v").unwrap().as_str(), Some("applied"));
    }

    #[test]
    fn realtime_mode_sleeps_for_network_time() {
        let env = seeded_env();
        env.set_realtime(0.1); // 0.5 ms RTT → ≥ 50 µs real sleep
        assert!((env.realtime_scale() - 0.1).abs() < 1e-9);
        let t0 = std::time::Instant::now();
        env.query("SELECT v FROM t WHERE id = 1").unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= std::time::Duration::from_micros(50),
            "slept only {elapsed:?}"
        );
        env.set_realtime(0.0);
        // Virtual accounting is identical with and without real time.
        let reference = seeded_env();
        reference.query("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(env.stats(), reference.stats());
    }

    #[test]
    fn sub_permille_realtime_scale_still_sleeps() {
        // Regression: the scale used to be stored in parts per thousand,
        // silently flooring the fast-CI scales (1e-4 and below) to zero —
        // no sleep at all. Parts per million keeps them real.
        let env = SimEnv::new(CostModel::with_rtt_ms(50.0));
        env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        env.seed_sql("INSERT INTO t VALUES (1)").unwrap();
        env.set_realtime(1e-4);
        assert!(env.realtime_scale() > 0.0, "1e-4 must not quantize to zero");
        // 50 ms RTT × 1e-4 = 5 µs per trip; 20 trips ≥ 100 µs.
        let t0 = std::time::Instant::now();
        for _ in 0..20 {
            env.query("SELECT * FROM t WHERE id = 1").unwrap();
        }
        assert!(
            t0.elapsed() >= std::time::Duration::from_micros(100),
            "sub-permille scale slept only {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn fusion_error_behaviour_matches_unfused() {
        let sqls = vec![
            "SELECT v FROM missing WHERE id = 1".to_string(),
            "SELECT v FROM missing WHERE id = 2".to_string(),
        ];
        let on = seeded_env();
        let off = seeded_env();
        off.set_fusion(false);
        let e_on = on.query_batch(&sqls).unwrap_err();
        let e_off = off.query_batch(&sqls).unwrap_err();
        assert_eq!(e_on, e_off, "identical first error with fusion on and off");
    }

    #[test]
    fn duplicate_lookups_fuse_and_demux() {
        let env = seeded_env();
        let sqls = vec![
            "SELECT v FROM t WHERE id = 3".to_string(),
            "SELECT v FROM t WHERE id = 3".to_string(),
            "SELECT v FROM t WHERE id = 5".to_string(),
        ];
        let results = env.query_batch(&sqls).unwrap();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[2].get(0, "v").unwrap().as_str(), Some("v5"));
        assert_eq!(env.stats().fused_queries, 3);
        assert_eq!(env.stats().fused_groups, 1);
    }

    #[test]
    fn batch_outcome_attributes_fusion_per_position() {
        let env = seeded_env();
        let sqls = vec![
            "SELECT v FROM t WHERE id = 3".to_string(),
            "SELECT COUNT(*) FROM t".to_string(),
            "SELECT v FROM t WHERE id = 5".to_string(),
        ];
        let o = env.ship(&BatchRequest::new(&stmts(&sqls)));
        assert_eq!(o.fused_members, vec![Some(0), None, Some(0)]);
        assert_eq!(o.fused_queries, 2);
        assert_eq!(o.fused_groups, 1);
    }

    #[test]
    fn writes_serialize_in_batch() {
        let cost = CostModel {
            per_byte_ns: 0,
            ..CostModel::default()
        };
        let env = SimEnv::new(cost);
        env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        env.seed_sql("INSERT INTO t VALUES (1, 0)").unwrap();
        let sqls = vec![
            "UPDATE t SET v = 1 WHERE id = 1".to_string(),
            "UPDATE t SET v = 2 WHERE id = 1".to_string(),
        ];
        env.query_batch(&sqls).unwrap();
        assert!(env.stats().db_ns >= 2 * cost.db_base_ns);
    }

    #[test]
    fn charge_app_accumulates() {
        let env = seeded_env();
        env.charge_app(1_000);
        env.charge_app(500);
        assert_eq!(env.stats().app_ns, 1_500);
        assert_eq!(env.now_ns(), 1_500);
    }

    #[test]
    fn charge_app_saturates_instead_of_wrapping() {
        let env = seeded_env();
        env.charge_app(u64::MAX - 10);
        env.charge_app(u64::MAX - 10);
        assert_eq!(env.stats().app_ns, u64::MAX);
        assert_eq!(env.now_ns(), u64::MAX);
        // A subsequent round trip still works and still saturates.
        env.query("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(env.now_ns(), u64::MAX);
    }

    #[test]
    fn reset_keeps_data() {
        let env = seeded_env();
        env.query("SELECT * FROM t WHERE id = 1").unwrap();
        env.reset_stats();
        assert_eq!(env.stats(), NetStats::default());
        assert_eq!(env.now_ns(), 0);
        let rs = env.query("SELECT * FROM t WHERE id = 1").unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn rtt_scaling() {
        for ms in [0.5, 1.0, 10.0] {
            let cm = CostModel::with_rtt_ms(ms);
            assert_eq!(cm.rtt_ns, (ms * 1e6) as u64);
        }
    }

    #[test]
    fn empty_batch_is_free() {
        let env = seeded_env();
        let r = env.query_batch(&[]).unwrap();
        assert!(r.is_empty());
        assert_eq!(env.stats().round_trips, 0);
    }

    #[test]
    fn clones_share_state() {
        let env = seeded_env();
        let env2 = env.clone();
        env2.query("SELECT * FROM t WHERE id = 1").unwrap();
        assert_eq!(env.stats().round_trips, 1);
    }

    #[test]
    fn env_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimEnv>();
        assert_send_sync::<Clock>();
    }

    #[test]
    fn write_deferral_toggle_defaults_on() {
        let env = seeded_env();
        assert!(env.write_deferral_enabled());
        env.set_write_deferral(false);
        assert!(!env.write_deferral_enabled());
        env.set_write_deferral(true);
        assert!(env.write_deferral_enabled());
    }

    #[test]
    fn footprints_resolve_through_backend_cache() {
        let env = seeded_env();
        let a = Stmt::new("SELECT v FROM t WHERE id = 3");
        let b = Stmt::new("SELECT v FROM t WHERE id = 4");
        assert!(
            !env.footprint(&a).conflicts_with(env.footprint(&b)),
            "reads never conflict"
        );
        let s = env.footprint_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1), "one template, one parse");
        let w = Stmt::new("UPDATE t SET v = 'x' WHERE id = 3");
        assert!(env.footprint(&w).conflicts_with(env.footprint(&a)));
        assert!(!env.footprint(&w).conflicts_with(env.footprint(&b)));
        let s = env.footprint_cache_stats();
        assert_eq!(
            (s.hits, s.misses),
            (1, 2),
            "asking a statement again reads its memo, not the cache"
        );
    }

    #[test]
    fn direct_write_batches_derive_footprints_once_in_the_planner() {
        let env = seeded_env();
        let lookups = || {
            let s = env.footprint_cache_stats();
            s.hits + s.misses
        };
        let batch = stmts(&[
            "SELECT v FROM t WHERE id = 1".to_string(),
            "UPDATE t SET v = 'x' WHERE id = 2".to_string(),
        ]);
        // No layer above analyzed these statements: the planner resolves
        // each footprint, once, through the template cache…
        assert!(env.ship(&BatchRequest::new(&batch)).error.is_none());
        assert_eq!(lookups(), 2);
        // …and the statements keep them: the same values shipped again
        // look nothing up.
        assert!(env.ship(&BatchRequest::new(&batch)).error.is_none());
        assert_eq!(lookups(), 2);
        // Read-only batches never need footprints at all.
        let reads = stmts(&["SELECT v FROM t WHERE id = 1".to_string()]);
        assert!(env.ship(&BatchRequest::new(&reads)).error.is_none());
        assert_eq!(lookups(), 2);
    }

    #[test]
    fn concurrent_sessions_share_one_deployment() {
        let env = seeded_env();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let env = env.clone();
                std::thread::spawn(move || {
                    let sqls: Vec<String> = (0..5)
                        .map(|i| format!("SELECT v FROM t WHERE id = {}", (t + i) % 20))
                        .collect();
                    let results = env.query_batch(&sqls).unwrap();
                    for (i, rs) in results.iter().enumerate() {
                        let want = format!("v{}", (t + i) % 20);
                        assert_eq!(rs.get(0, "v").unwrap().as_str(), Some(want.as_str()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = env.stats();
        assert_eq!(s.round_trips, 8);
        assert_eq!(s.queries, 40);
    }

    // ---- fault layer ---------------------------------------------------

    #[test]
    fn dropped_trip_retries_and_recovers_identically() {
        let env = seeded_env();
        env.set_faults(Some(FaultPlan::seeded(1).drop_at(0)));
        let sqls: Vec<String> = (0..3)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();
        let results = env.query_batch(&sqls).unwrap();
        let reference = seeded_env().query_batch(&sqls).unwrap();
        assert_eq!(results, reference, "a dropped trip is absorbed exactly");
        let s = env.stats();
        assert_eq!(s.round_trips, 2, "the wasted trip is charged");
        assert_eq!(s.queries, 3, "statements count once, on the final attempt");
        let fs = env.fault_stats();
        assert_eq!(fs.injected_drops, 1);
        assert_eq!(fs.retries, 1);
        assert_eq!(fs.recovered_batches, 1);
        assert_eq!(fs.backoff_ns, env.retry_policy().backoff_base_ns);
        // The wasted trip + backoff show up as extra network time.
        let base = seeded_env();
        base.query_batch(&sqls).unwrap();
        assert!(s.network_ns >= base.stats().network_ns + CostModel::default().rtt_ns);
    }

    #[test]
    fn slow_trip_under_deadline_succeeds_with_inflated_charge() {
        let env = seeded_env();
        // Inflation factor 2: 0.5 ms RTT → 1 ms, under the 2 ms deadline.
        env.set_faults(Some(FaultPlan::seeded(1).timeouts(0, 2).timeout_at(0)));
        let rs = env.query("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(rs.get(0, "v").unwrap().as_str(), Some("v1"));
        let fs = env.fault_stats();
        assert_eq!(fs.slow_trips, 1);
        assert_eq!(fs.retries, 0, "a slow trip is not a failure");
        let s = env.stats();
        assert_eq!(s.round_trips, 1);
        assert!(
            s.network_ns >= 2 * CostModel::default().rtt_ns,
            "the inflated RTT is charged: {s:?}"
        );
    }

    #[test]
    fn timed_out_write_replays_from_the_journal_exactly_once() {
        let env = seeded_env();
        env.seed_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
            .unwrap();
        env.seed_sql("INSERT INTO c VALUES (1, 0)").unwrap();
        // Trip 0 times out (factor 8 → 4 ms > 2 ms deadline): the batch
        // executed server-side but the reply is lost — the classic
        // ambiguous write.
        env.set_faults(Some(FaultPlan::seeded(2).timeout_at(0)));
        let sqls = vec![
            "UPDATE c SET n = n + 1 WHERE id = 1".to_string(),
            "SELECT n FROM c WHERE id = 1".to_string(),
        ];
        let results = env.query_batch(&sqls).unwrap();
        assert_eq!(
            results[1].get(0, "n").unwrap().as_i64(),
            Some(1),
            "the read observes the write once"
        );
        let fs = env.fault_stats();
        assert_eq!(fs.injected_timeouts, 1);
        assert_eq!(
            fs.journal_hits, 2,
            "both positions replayed from the journal"
        );
        assert_eq!(
            fs.deduped_writes, 1,
            "the ambiguous write never re-executed"
        );
        assert_eq!(fs.recovered_batches, 1);
        env.set_faults(None);
        let n = env.query("SELECT n FROM c WHERE id = 1").unwrap();
        assert_eq!(
            n.get(0, "n").unwrap().as_i64(),
            Some(1),
            "applied exactly once"
        );
    }

    #[test]
    fn retry_exhaustion_surfaces_a_transient_error() {
        let env = seeded_env();
        env.set_faults(Some(FaultPlan::seeded(3).drops(1000)));
        env.set_retry_policy(RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        });
        let err = env.query("SELECT v FROM t WHERE id = 1").unwrap_err();
        assert!(is_transient_error(&err), "got: {err}");
        let fs = env.fault_stats();
        assert_eq!(fs.exhausted_batches, 1);
        assert_eq!(fs.injected_drops, 3);
        assert_eq!(fs.retries, 2, "no backoff after the final attempt");
        let s = env.stats();
        assert_eq!(s.round_trips, 3, "every wasted attempt is charged");
        assert_eq!(s.queries, 0, "nothing ever executed");
        // The partial surface reports the same failure at position 0.
        let p = env.ship(&BatchRequest::new(&[Stmt::new(
            "SELECT v FROM t WHERE id = 2",
        )]));
        let (pos, e) = p.error.expect("still exhausting");
        assert_eq!(pos, 0);
        assert!(is_transient_error(&e));
        assert!(p.results.iter().all(Option::is_none));
    }

    #[test]
    fn genuine_sql_errors_are_never_retried() {
        let env = seeded_env();
        env.set_faults(Some(FaultPlan::seeded(4)));
        let err = env.query("SELECT v FROM missing WHERE id = 1").unwrap_err();
        assert!(!is_transient_error(&err));
        assert!(err.to_string().contains("missing"));
        let fs = env.fault_stats();
        assert_eq!(fs.retries, 0, "a real error repeats on replay: fail fast");
        assert_eq!(fs.exhausted_batches, 0);
    }

    #[test]
    fn partial_failure_at_position_zero_charges_trip_but_no_transfer() {
        // Satellite: the partial surface used to charge the full RTT even
        // when nothing executed. The charge is now proportional to the
        // executed prefix — zero transfer latency at position 0, half at
        // the midpoint — while the trip itself still counts.
        let env = seeded_env();
        let p = env.ship(&BatchRequest::new(&stmts(&[
            "SELECT v FROM missing WHERE id = 1".to_string(),
            "SELECT v FROM t WHERE id = 1".to_string(),
        ])));
        assert_eq!(p.error.expect("fails at 0").0, 0);
        let s = env.stats();
        assert_eq!(s.round_trips, 1, "the trip is still accounted");
        assert_eq!(s.queries, 0, "no statement executed");
        assert!(
            s.network_ns < CostModel::default().rtt_ns,
            "no RTT share for an empty prefix: {s:?}"
        );
        // Midpoint failure: half the RTT share, half the statements.
        let mid = seeded_env();
        let p = mid.ship(&BatchRequest::new(&stmts(&[
            "SELECT v FROM t WHERE id = 1".to_string(),
            "SELECT v FROM t WHERE id = 2".to_string(),
            "SELECT v FROM missing WHERE id = 1".to_string(),
            "SELECT v FROM t WHERE id = 3".to_string(),
        ])));
        assert_eq!(p.error.expect("fails at 2").0, 2);
        let s = mid.stats();
        assert_eq!(s.round_trips, 1);
        assert_eq!(s.queries, 2);
        assert!(s.network_ns >= CostModel::default().rtt_ns / 2);
        assert!(s.network_ns < CostModel::default().rtt_ns);
    }

    #[test]
    fn shard_outage_window_degrades_fused_probes_and_recovers() {
        let spec = ShardSpec::new().shard("t", "id");
        let env = ShardedEnv::new(CostModel::default(), spec, 2).handle();
        env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..8 {
            env.seed_sql(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        // Shard 1 is out for trips [0, 2): the fused key probe splits,
        // shard 0's sub-probe answers its members (journaled), and the
        // batch retries until the window closes.
        env.set_faults(Some(FaultPlan::seeded(4).outage(1, 0, 2)));
        let sqls: Vec<String> = (0..8)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();
        let results = env.query_batch(&sqls).unwrap();
        for (i, rs) in results.iter().enumerate() {
            assert_eq!(
                rs.get(0, "v").unwrap().as_str(),
                Some(format!("v{i}").as_str()),
                "lookup {i}"
            );
        }
        let fs = env.fault_stats();
        assert_eq!(fs.outage_errors, 2, "both in-window attempts failed");
        assert!(
            fs.journal_hits > 0,
            "live-shard members replayed from the journal: {fs:?}"
        );
        assert_eq!(fs.recovered_batches, 1);
    }

    /// An outage window is drawn over however many databases the store
    /// holds — one, on the single server — and absorbed the same way.
    #[test]
    fn an_outage_on_the_single_server_is_retried_and_absorbed() {
        let env = seeded_env();
        env.set_faults(Some(FaultPlan::seeded(5).outage(0, 0, 2)));
        let sqls: Vec<String> = (0..4)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();
        let results = env.query_batch(&sqls).unwrap();
        assert_eq!(results, seeded_env().query_batch(&sqls).unwrap());
        let fs = env.fault_stats();
        assert_eq!(fs.outage_errors, 2, "both in-window attempts failed");
        assert_eq!(fs.retries, 2);
        assert_eq!(fs.recovered_batches, 1);
        assert_eq!(env.stats().round_trips, 3);
    }

    #[test]
    fn replica_reads_fail_over_around_an_outage() {
        // Whichever replica the hash prefers, one of the two outage
        // placements must force a failover — and both must answer.
        let mut failovers = 0;
        for out_shard in 0..2usize {
            let spec = ShardSpec::new().shard("issue", "id");
            let fleet = ShardedEnv::new(CostModel::default(), spec, 2);
            let env = fleet.handle();
            env.seed_sql("CREATE TABLE p (id INT PRIMARY KEY, name TEXT)")
                .unwrap();
            env.seed_sql("INSERT INTO p VALUES (1, 'alpha')").unwrap();
            env.set_faults(Some(FaultPlan::seeded(1).outage(out_shard, 0, 1)));
            let rs = env.query("SELECT name FROM p WHERE id = 1").unwrap();
            assert_eq!(rs.get(0, "name").unwrap().as_str(), Some("alpha"));
            assert_eq!(env.fault_stats().retries, 0, "failover needs no retry");
            failovers += fleet.shard_stats().replica_failovers;
        }
        assert_eq!(
            failovers, 1,
            "exactly one placement hits the preferred copy"
        );
    }

    #[test]
    fn faults_cleared_restores_exact_fault_free_accounting() {
        let sqls: Vec<String> = (0..5)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();
        let faulty = seeded_env();
        faulty.set_faults(Some(FaultPlan::seeded(9).drops(500)));
        faulty.query_batch(&sqls).unwrap();
        faulty.set_faults(None);
        faulty.reset_stats();
        faulty.query_batch(&sqls).unwrap();
        let clean = seeded_env();
        clean.query_batch(&sqls).unwrap();
        assert_eq!(faulty.stats(), clean.stats(), "no residual fault overhead");
        assert_eq!(faulty.fault_stats(), FaultStats::default());
    }

    #[test]
    fn result_cache_answers_repeat_reads_without_the_wire() {
        let env = seeded_env();
        env.set_result_cache(true);
        let rs1 = env.query("SELECT v FROM t WHERE id = 3").unwrap();
        let trips = env.stats().round_trips;
        let rs2 = env.query("SELECT v FROM t WHERE id = 3").unwrap();
        assert_eq!(rs1, rs2, "cached answer is byte-identical");
        assert_eq!(env.stats().round_trips, trips, "repeat read ships nothing");
        let s = env.result_cache_stats();
        assert_eq!((s.hits, s.fills), (1, 1));
        // Different params are a different key.
        env.query("SELECT v FROM t WHERE id = 4").unwrap();
        assert_eq!(env.stats().round_trips, trips + 1);
    }

    #[test]
    fn result_cache_write_invalidates_exactly_the_overlap() {
        let env = seeded_env();
        env.set_result_cache(true);
        env.query("SELECT v FROM t WHERE id = 3").unwrap();
        env.query("SELECT v FROM t WHERE id = 4").unwrap();
        env.query("UPDATE t SET v = 'x' WHERE id = 3").unwrap();
        let s = env.result_cache_stats();
        assert_eq!(s.invalidations, 1, "only the id = 3 entry dies");
        assert_eq!(s.precise_invalidations, 1);
        let trips = env.stats().round_trips;
        let rs = env.query("SELECT v FROM t WHERE id = 3").unwrap();
        assert_eq!(
            rs.get(0, "v").unwrap().as_str(),
            Some("x"),
            "post-write value"
        );
        assert_eq!(env.stats().round_trips, trips + 1, "stale entry re-fetched");
        env.query("SELECT v FROM t WHERE id = 4").unwrap();
        assert_eq!(
            env.stats().round_trips,
            trips + 1,
            "disjoint entry survived"
        );
    }

    #[test]
    fn result_cache_mixed_batch_read_after_write_is_never_stale() {
        let env = seeded_env();
        env.set_result_cache(true);
        env.query("SELECT v FROM t WHERE id = 5").unwrap();
        // The same read rides behind a conflicting write in one batch: it
        // must ship (hit-ineligible) and observe the write.
        let batch = vec![
            "UPDATE t SET v = 'w' WHERE id = 5".to_string(),
            "SELECT v FROM t WHERE id = 5".to_string(),
        ];
        let out = env.query_batch(&batch).unwrap();
        assert_eq!(out[1].get(0, "v").unwrap().as_str(), Some("w"));
        // Settlement order: the write's invalidation ran first, then the
        // trailing read refilled — so the cache now answers post-write.
        let trips = env.stats().round_trips;
        let rs = env.query("SELECT v FROM t WHERE id = 5").unwrap();
        assert_eq!(rs.get(0, "v").unwrap().as_str(), Some("w"));
        assert_eq!(env.stats().round_trips, trips, "refill served the repeat");
    }

    #[test]
    fn result_cache_seeding_clears_everything() {
        let env = seeded_env();
        env.set_result_cache(true);
        env.query("SELECT v FROM t WHERE id = 1").unwrap();
        env.seed_sql("UPDATE t SET v = 'seeded' WHERE id = 1")
            .unwrap();
        let rs = env.query("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(
            rs.get(0, "v").unwrap().as_str(),
            Some("seeded"),
            "out-of-band mutation dropped the stale entry"
        );
    }

    #[test]
    fn result_cache_uncached_surface_invalidates_but_never_serves() {
        let env = seeded_env();
        env.set_result_cache(true);
        env.query("SELECT v FROM t WHERE id = 2").unwrap();
        // Bypass surface: the cached entry must not answer …
        let trips = env.stats().round_trips;
        uncached(&env, &["SELECT v FROM t WHERE id = 2".to_string()]).unwrap();
        assert_eq!(env.stats().round_trips, trips + 1, "bypass always ships");
        // … and its writes must still kill overlapping entries.
        uncached(&env, &["UPDATE t SET v = 'z' WHERE id = 2".to_string()]).unwrap();
        assert_eq!(env.result_cache_stats().invalidations, 1);
        let rs = env.query("SELECT v FROM t WHERE id = 2").unwrap();
        assert_eq!(rs.get(0, "v").unwrap().as_str(), Some("z"));
    }

    #[test]
    fn result_cache_off_is_byte_identical_accounting() {
        let sqls: Vec<String> = (0..6)
            .map(|i| format!("SELECT v FROM t WHERE id = {}", i % 3))
            .collect();
        let plain = seeded_env();
        plain.query_batch(&sqls).unwrap();
        let toggled = seeded_env();
        toggled.set_result_cache(true);
        toggled.set_result_cache(false);
        toggled.query_batch(&sqls).unwrap();
        assert_eq!(plain.stats(), toggled.stats());
        assert_eq!(toggled.result_cache_stats(), ResultCacheStats::default());
    }

    /// A statement that fails changes nothing, so the published view a
    /// later reader is admitted to and the live database the next writer
    /// reads agree: publish is version-gated and a failed statement bumps
    /// no version, so rows it left behind would never be republished.
    #[test]
    fn failed_multi_row_insert_leaves_readers_and_writers_in_agreement() {
        let env = seeded_env();
        let bad = "INSERT INTO t VALUES (100, 'a'), (101, 'b'), (102)";
        assert!(env.query(bad).is_err());
        let count = "SELECT COUNT(*) FROM t".to_string();
        let before = env.stats().snapshot_batches;
        let reader = env.query(&count).unwrap();
        assert_eq!(env.stats().snapshot_batches, before + 1, "read a view");
        // A batch that writes reads the live database under the write order.
        let noop = "UPDATE t SET v = 'x' WHERE id = -1".to_string();
        let writer = env.query_batch(&[noop, count]).unwrap().remove(1);
        assert_eq!(reader, writer);
        assert_eq!(reader.rows, vec![vec![sloth_sql::Value::Int(20)]]);
    }

    /// Commit atomicity, once, for every deployment: a write batch that
    /// touches rows on several shards plus a replicated table is visible
    /// to a concurrent read-only batch entirely or not at all, readers
    /// never travel back in time, and the published version never
    /// decreases. Admission and publish exist once (see [`versioned`]),
    /// so the single server and the fleets run the same code here.
    #[test]
    fn commits_are_all_or_none_on_every_deployment() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        const ROWS: i64 = 8;
        const BATCHES: i64 = 120;
        const READERS: usize = 3;

        for shards in [1, 2, 4] {
            let env = if shards == 1 {
                SimEnv::default_env()
            } else {
                let spec = ShardSpec::new().shard("acct", "id");
                ShardedEnv::new(CostModel::default(), spec, shards).handle()
            };
            env.seed_sql("CREATE TABLE acct (id INT PRIMARY KEY, stamp INT)")
                .unwrap();
            env.seed_sql("CREATE TABLE cfg (id INT PRIMARY KEY, stamp INT)")
                .unwrap();
            for id in 0..ROWS {
                env.seed_sql(&format!("INSERT INTO acct VALUES ({id}, 0)"))
                    .unwrap();
            }
            env.seed_sql("INSERT INTO cfg VALUES (0, 0)").unwrap();

            // One read-only batch scattering over every shard, a replica
            // and (fused) point routes.
            let mut reads = vec![
                "SELECT stamp FROM acct ORDER BY id".to_string(),
                "SELECT stamp FROM cfg WHERE id = 0".to_string(),
            ];
            reads.extend((0..ROWS).map(|id| format!("SELECT stamp FROM acct WHERE id = {id}")));

            let start = Barrier::new(READERS + 1);
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 0..READERS {
                    scope.spawn(|| {
                        let (mut last_stamp, mut last_version) = (0i64, 0u64);
                        start.wait();
                        loop {
                            // One more batch once the writer has finished,
                            // so every reader also checks the final state.
                            let finishing = done.load(Ordering::SeqCst);
                            let stamps: Vec<i64> = env
                                .query_batch(&reads)
                                .unwrap()
                                .iter()
                                .flat_map(|rs| rs.rows.iter().map(|r| r[0].as_i64().unwrap()))
                                .collect();
                            assert_eq!(stamps.len() as i64, 2 * ROWS + 1);
                            let stamp = stamps[0];
                            assert!(
                                stamps.iter().all(|&s| s == stamp),
                                "torn read at {shards} shard(s): {stamps:?}"
                            );
                            assert!(stamp >= last_stamp, "{stamp} after {last_stamp}");
                            last_stamp = stamp;
                            let version = env.store.published_version();
                            assert!(version >= last_version);
                            last_version = version;
                            if finishing {
                                assert_eq!(stamp, BATCHES, "final state");
                                break;
                            }
                        }
                    });
                }
                start.wait();
                for b in 1..=BATCHES {
                    // Alternate routed per-row writes with one un-routable
                    // write every shard applies; the replicated table's
                    // write broadcasts either way.
                    let mut batch: Vec<String> = if b % 2 == 0 {
                        (0..ROWS)
                            .map(|id| format!("UPDATE acct SET stamp = {b} WHERE id = {id}"))
                            .collect()
                    } else {
                        vec![format!("UPDATE acct SET stamp = {b} WHERE stamp >= 0")]
                    };
                    batch.push(format!("UPDATE cfg SET stamp = {b} WHERE id = 0"));
                    env.query_batch(&batch).unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            assert!(
                env.stats().snapshot_batches > 0,
                "readers were admitted to the published views"
            );
        }
    }

    // ---- dependent statements -----------------------------------------

    /// A linked list: row `i` points at row `i + 1`; the last points
    /// nowhere.
    fn chain_env() -> SimEnv {
        let env = SimEnv::default_env();
        seed_chain(&env);
        env
    }

    fn seed_chain(env: &SimEnv) {
        env.seed_sql("CREATE TABLE node (id INT PRIMARY KEY, next_id INT, label TEXT)")
            .unwrap();
        for i in 1..=8 {
            let next = if i == 8 {
                "NULL".to_string()
            } else {
                (i + 1).to_string()
            };
            env.seed_sql(&format!("INSERT INTO node VALUES ({i}, {next}, 'n{i}')"))
                .unwrap();
        }
    }

    fn node(id: i64) -> Stmt {
        Stmt::new(format!("SELECT * FROM node WHERE id = {id}"))
    }

    /// `SELECT * FROM node WHERE id = <next_id of position `parent`>`.
    fn next_of(parent: u64) -> Stmt {
        Stmt::with_param(
            "SELECT * FROM node WHERE id = ",
            &sloth_sql::Param::reference(parent, "next_id"),
            "",
        )
    }

    fn walk(depth: u64) -> Vec<Stmt> {
        std::iter::once(node(1))
            .chain((0..depth).map(next_of))
            .collect()
    }

    #[test]
    fn a_chain_ships_whole_and_answers_what_the_eager_walk_answers() {
        let env = chain_env();
        let out = env
            .ship(&BatchRequest::new(&walk(4)))
            .into_results()
            .unwrap();
        let eager = chain_env();
        for (i, rs) in out.iter().enumerate() {
            let want = eager
                .query(&format!("SELECT * FROM node WHERE id = {}", i + 1))
                .unwrap();
            assert_eq!(rs, &want);
        }
        let (s, e) = (env.stats(), eager.stats());
        assert_eq!((s.round_trips, s.queries), (1, 5), "one trip, k queries");
        assert_eq!((e.round_trips, e.queries), (5, 5));
    }

    #[test]
    fn a_missing_parent_row_answers_its_dependants_without_failing_the_batch() {
        let env = chain_env();
        // Row 8 exists but points nowhere (NULL key); row 9 does not exist.
        let batch = vec![node(8), next_of(0), next_of(1), node(2)];
        let out = env.ship(&BatchRequest::new(&batch));
        assert!(out.error.is_none());
        let rs: Vec<ResultSet> = out.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(rs[0].len(), 1);
        // `WHERE id = NULL` runs and matches nothing: an ordinary empty
        // answer. Its own dependant has no parent row.
        assert!(rs[1].is_empty() && !rs[1].is_no_parent_row());
        assert!(rs[2].is_no_parent_row());
        assert_eq!(rs[3].len(), 1, "the batch carries on");
        assert_eq!(env.stats().round_trips, 1);
    }

    /// The chain over one server, a fleet of one and a fleet of four
    /// (point-routed by `id`).
    fn chain_deployments() -> [SimEnv; 3] {
        let fleet = |n| {
            let spec = ShardSpec::new().shard("node", "id");
            let env = ShardedEnv::new(CostModel::default(), spec, n).handle();
            seed_chain(&env);
            env
        };
        [chain_env(), fleet(1), fleet(4)]
    }

    #[test]
    fn a_chain_is_serial_on_the_virtual_clock_and_a_fan_out_is_one_wave() {
        let cost = CostModel::default();
        let link = cost.db_base_ns + cost.db_row_scan_ns + cost.db_row_out_ns;
        // The wire carries the template and the reference, once per
        // database a statement touches — on every deployment alike.
        let text: u64 = walk(3).iter().map(|s| s.sql().len() as u64).sum();
        let rows: u64 = (1..=4)
            .map(|i| {
                chain_env()
                    .query(&format!("SELECT * FROM node WHERE id = {i}"))
                    .unwrap()
            })
            .map(|rs| rs.wire_size() as u64)
            .sum();
        for chain in chain_deployments() {
            chain
                .ship(&BatchRequest::new(&walk(3)))
                .into_results()
                .unwrap();
            assert_eq!(
                chain.stats().db_ns,
                4 * link,
                "depth 4: the sum of its links"
            );
            assert_eq!(chain.stats().bytes, text + rows);
        }
        let wide = chain_env();
        wide.set_fusion(false);
        let independent: Vec<Stmt> = (1..=4).map(node).collect();
        wide.ship(&BatchRequest::new(&independent))
            .into_results()
            .unwrap();
        assert!(cost.db_workers >= 4);
        assert_eq!(wide.stats().db_ns, link, "4 wide: one wave");
        // A dead end: the parent has no row, and its dependant, answered
        // without touching a database, still cost the text it shipped.
        let dead_end = vec![node(9), next_of(0)];
        let empty = chain_env().query(node(9).sql()).unwrap().wire_size() as u64;
        let shipped: u64 = dead_end.iter().map(|s| s.sql().len() as u64).sum();
        for env in chain_deployments() {
            let out = env
                .ship(&BatchRequest::new(&dead_end))
                .into_results()
                .unwrap();
            assert!(out[1].is_no_parent_row());
            assert_eq!(env.stats().bytes, shipped + empty);
        }
    }

    /// SplitMix64, as in the randomized suites.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `ship` is public, so a malformed reference is input: whatever a
    /// batch says, the outcome is the executed prefix plus a typed error
    /// at the offending position — on one server and on a fleet, cache on
    /// and off — and never a panic.
    #[test]
    fn malformed_references_are_typed_errors_at_their_position() {
        let mut rng = 0x5107_u64;
        for round in 0..300 {
            let n = 2 + (splitmix(&mut rng) % 6) as usize;
            let bad = (splitmix(&mut rng) % n as u64) as usize;
            let mut batch: Vec<Stmt> = Vec::new();
            for pos in 0..n {
                let stmt = if pos == bad {
                    match splitmix(&mut rng) % 4 {
                        // Not an earlier position: itself, a later one, far out.
                        0 => next_of(pos as u64 + splitmix(&mut rng) % 3),
                        1 => next_of(u64::MAX - splitmix(&mut rng) % 2),
                        // A column the parent's row lacks.
                        2 if pos > 0 => Stmt::with_param(
                            "SELECT * FROM node WHERE id = ",
                            &sloth_sql::Param::reference(0, "no_such_column"),
                            "",
                        ),
                        // A write or a transaction boundary (placed just before).
                        _ if pos > 0 => {
                            let boundary = ["UPDATE node SET label = 'w' WHERE id = 7", "COMMIT"];
                            batch[pos - 1] = Stmt::new(boundary[(splitmix(&mut rng) % 2) as usize]);
                            next_of(pos as u64 - 1)
                        }
                        _ => next_of(pos as u64),
                    }
                } else if pos > 0
                    && !batch[pos - 1].is_write()
                    && splitmix(&mut rng).is_multiple_of(2)
                {
                    next_of(pos as u64 - 1)
                } else {
                    node(1 + (splitmix(&mut rng) % 9) as i64)
                };
                batch.push(stmt);
            }
            // Position 0 must answer a row for "no such column" to be seen.
            if batch[bad].sql().contains("no_such_column") {
                batch[0] = node(1);
            }
            for (shards, cache) in [(1, false), (1, true), (4, false), (4, true)] {
                let env = match shards {
                    1 => chain_env(),
                    n => {
                        let fleet = ShardedEnv::new(
                            CostModel::default(),
                            ShardSpec::new().shard("node", "id"),
                            n,
                        );
                        let env = fleet.handle();
                        seed_chain(&env);
                        env
                    }
                };
                env.set_result_cache(cache);
                // A fused lookup is answered where its group's lead sits,
                // possibly ahead of the error; unfused, "nothing at or
                // past the error is answered" is exact.
                env.set_fusion(false);
                for pass in 0..2 {
                    // The second pass finds the cache warm.
                    let before = env.stats().round_trips;
                    let out = env.ship(&BatchRequest::new(&batch));
                    let (pos, e) = out.error.clone().unwrap_or_else(|| {
                        panic!("round {round} shards {shards} cache {cache}: no error")
                    });
                    assert_eq!(pos, bad, "round {round} shards {shards} cache {cache}: {e}");
                    assert!(!is_transient_error(&e));
                    assert!(
                        out.results[..bad].iter().all(Option::is_some),
                        "prefix kept"
                    );
                    assert!(out.results[bad..].iter().all(Option::is_none));
                    if !cache || (pass == 0 && bad > 0) {
                        assert_eq!(env.stats().round_trips, before + 1, "trip charged");
                    }
                }
            }
        }
    }

    #[test]
    fn an_unbound_reference_never_reaches_the_engine_as_sql() {
        // Text is text: the placeholder is not SQL, with or without a
        // `Stmt` around it.
        let env = chain_env();
        let e = env.query(next_of(0).sql()).unwrap_err();
        assert!(e.to_string().contains("lex error"), "{e}");
    }

    #[test]
    fn the_result_cache_binds_as_it_probes() {
        let env = chain_env();
        env.set_result_cache(true);
        let cold = env
            .ship(&BatchRequest::new(&walk(4)))
            .into_results()
            .unwrap();
        assert_eq!(env.stats().round_trips, 1);
        // Warm: the hit on the head binds link 1, whose hit binds link 2 …
        let warm = env
            .ship(&BatchRequest::new(&walk(4)))
            .into_results()
            .unwrap();
        assert_eq!(warm, cold);
        assert_eq!(env.stats().round_trips, 1, "a warm chain costs no trip");
        // And the links were filed under the statements their literal
        // text builds.
        env.query_batch(&["SELECT * FROM node WHERE id = 3".to_string()])
            .unwrap();
        assert_eq!(env.stats().round_trips, 1);
        // Invalidate the middle: links 0–1 hit, link 2 ships bound, and
        // the rest follow it into the sub-batch, references re-based.
        env.query("UPDATE node SET label = 'x' WHERE id = 3")
            .unwrap();
        let trips = env.stats().round_trips;
        let half = env
            .ship(&BatchRequest::new(&walk(4)))
            .into_results()
            .unwrap();
        assert_eq!(env.stats().round_trips, trips + 1);
        assert_eq!(env.stats().max_batch, 5);
        assert_eq!(half[2].get(0, "label").unwrap().as_str(), Some("x"));
        assert_eq!(half[3..], cold[3..]);
        // A warm parent without a row answers its dependants locally too.
        let dead_end = vec![node(8), next_of(0), next_of(1)];
        env.ship(&BatchRequest::new(&dead_end))
            .into_results()
            .unwrap();
        let trips = env.stats().round_trips;
        let again = env
            .ship(&BatchRequest::new(&dead_end))
            .into_results()
            .unwrap();
        assert_eq!(env.stats().round_trips, trips);
        assert!(again[2].is_no_parent_row());
    }

    #[test]
    fn a_coalesced_rider_keeps_its_references() {
        // Two sessions ship chains of different depths through one shared
        // dispatcher at once: each chain's references resolve within its
        // own batch, one round trip each.
        let env = chain_env();
        let d = std::sync::Arc::new(Dispatcher::new(env.clone()));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let riders: Vec<_> = [1u64, 3]
            .into_iter()
            .map(|depth| {
                let d = std::sync::Arc::clone(&d);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    d.ship(&BatchRequest::new(&walk(depth)))
                })
            })
            .collect();
        for (rider, depth) in riders.into_iter().zip([1usize, 3]) {
            let rs = rider.join().unwrap().into_results().unwrap();
            let last = rs.last().unwrap();
            assert_eq!(last.get(0, "id").unwrap().as_i64(), Some(depth as i64 + 1));
        }
        assert_eq!(env.stats().round_trips, 2, "two chains, a trip each");
    }
}
