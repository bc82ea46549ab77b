//! The sharded deployment: N independent database servers behind a
//! fusion-aware scatter-gather router.
//!
//! [`ShardedEnv`] is the horizontal-scaling step of the roadmap: instead
//! of one simulated MySQL box, the deployment's versioned store holds `N`
//! independent [`sloth_sql::Database`] instances (each with its own
//! indexes; all of them, and the router, share the deployment's one
//! [`sloth_sql::TemplateCache`]), and the batch driver routes every
//! statement of a batch by the [`ShardSpec`] declared over the schema:
//!
//! * **point route** — a read whose predicate pins the base table's shard
//!   key (`key = v`) executes on the one shard that owns `v`;
//! * **sub-probe split** — a fused `IN (v1 … vk)` probe (built by the
//!   batch fusion layer) splits into per-shard sub-probes over each
//!   shard's own values, executed in parallel under the wave cost model;
//! * **scatter-gather** — everything else executes on every shard and the
//!   per-shard results **merge in exact single-server order**: the engine
//!   reports a [`sloth_sql::MergeTrace`] (`ORDER BY` key values plus the
//!   base row id the router assigned at insert time, unique across the
//!   fleet for each table), and a k-way merge over `(sort keys, row id)`
//!   reproduces the row order a single server would emit, bit for bit;
//! * **replica route** — tables without a declared shard key are
//!   replicated to every shard (writes broadcast); reads against them
//!   pick a deterministic replica by template hash, spreading load;
//! * **decomposable re-aggregation** — scattered `COUNT(*)` / `SUM` /
//!   `MAX` / `MIN` merge partials; `COUNT(DISTINCT c)` gathers the
//!   projected column and counts at the router.
//!
//! Routing happens on the normalizer's hot path: a statement — read or
//! write — looks its template up once in the template cache, whose entry
//! holds the parameterized statement and the template's [`Route`]
//! (derived on first use), routes by its extracted parameters, and hands
//! that plan to the shards that run it — they do not look it up again.
//!
//! The router is also the single server's executor: a store of **one**
//! database routes nothing, so every statement runs there as written —
//! no route, no router counter, no row-id sequence (rows a
//! deployment was handed by [`SimEnv::from_database`] or
//! [`SimEnv::seed`] keep the ids the engine gave them), no merge and
//! nothing refused. That is decided from the store's size where a read,
//! a write and a fused probe are dispatched, so a [`ShardedEnv`] of one
//! shard is exactly the single server.
//!
//! Cloning the inner [`SimEnv`] handle shares the deployment, so the
//! query store, ORM session, interpreters and benchmark apps all run
//! unchanged on a sharded fleet.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sloth_sql::ast::{Aggregate, Expr, Projection, SelectStmt, Statement};
use sloth_sql::engine::eval_const;
use sloth_sql::fuse;
use sloth_sql::shard::{hash_key, shard_of};
use sloth_sql::{
    Bound, Database, ExecOutcome, ExecStats, MergeKey, MergeTrace, Plan, ResultSet, Route, Row,
    ShardSpec, SqlError, Stmt, TemplateCache, Value,
};

use crate::batch::{self, BatchExec, BatchPlan, FusedGroup, Role};
use crate::fault::transient_error;
use crate::versioned::{Admitted, ReadView};
use crate::{CostModel, SimEnv};

/// Router and per-shard counters of a sharded deployment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Sub-statements executed per shard (index = shard id).
    pub statements: Vec<u64>,
    /// Database time accumulated per shard (ns). The batch driver charges
    /// the *max* over shards per batch (shards run in parallel); these
    /// counters keep the full per-shard decomposition.
    pub db_ns: Vec<u64>,
    /// Reads routed to exactly one shard by a shard-key equality.
    pub point_reads: u64,
    /// Reads routed to a subset of shards by a shard-key `IN` list.
    pub subset_reads: u64,
    /// Reads scattered to every shard and merged.
    pub scatter_reads: u64,
    /// Reads against replicated tables, served by one replica.
    pub replica_reads: u64,
    /// Writes routed to a single shard.
    pub routed_writes: u64,
    /// Writes broadcast to every shard (DDL, replicated-table DML,
    /// un-routable predicates).
    pub broadcast_writes: u64,
    /// Per-shard sub-probes created by splitting fused `IN` probes.
    pub fused_subprobes: u64,
    /// Replica-routed reads that failed over to another replica because
    /// their preferred shard was inside an outage window.
    pub replica_failovers: u64,
    /// Multi-shard read waves executed concurrently on the shard worker
    /// threads (scatter-gathers, scattered aggregates, split fused
    /// probes). Single-target reads never enter a wave.
    pub parallel_waves: u64,
    /// Wall-clock time the coordinator spent inside parallel waves (ns).
    pub parallel_wave_ns: u64,
    /// Summed per-worker busy time inside parallel waves (ns). With real
    /// db sleeps enabled ([`crate::ShardedEnv::set_db_realtime_ppm`]),
    /// `parallel_busy_ns / parallel_wave_ns` measures genuine overlap: a
    /// ratio near the shard count means the wave truly ran in parallel.
    pub parallel_busy_ns: u64,
}

impl ShardStats {
    fn new(shards: usize) -> Self {
        ShardStats {
            statements: vec![0; shards],
            db_ns: vec![0; shards],
            ..ShardStats::default()
        }
    }
}

/// Per-batch execution context: cost collection (read times and write
/// time per shard, wire bytes — requests and results both cross the wire
/// once per shard they touch), this round trip's outage mask, and the
/// batch's admission to the store (its per-shard read views, and the
/// write guards of a batch that holds the write order). One per batch,
/// owned by the executing session — the router itself carries no
/// per-batch mutable state, so concurrent batches never race on it.
struct Costs<'a> {
    read_times: Vec<Vec<u64>>,
    write_ns: Vec<u64>,
    /// Per shard, the time of dependent reads: busy time of that shard,
    /// but outside its waves (see [`Costs::take_link`]).
    link_ns: Vec<u64>,
    bytes: u64,
    /// Length of the statement text as shipped, while a dependent
    /// statement executes: its template and reference travel, not the
    /// text it was bound to.
    shipped: Option<u64>,
    statements: Vec<u64>,
    /// Per-shard outage mask for this round trip (`down[s]` = shard `s`
    /// unreachable), from the fault plan.
    down: Vec<bool>,
    adm: &'a Admitted<'a>,
}

impl Costs<'_> {
    /// Is shard `s` reachable during this round trip?
    fn live(&self, s: usize) -> bool {
        !self.down.get(s).copied().unwrap_or(false)
    }

    /// The read view for shard `s` (cheap `Arc` clone).
    fn view(&self, s: usize) -> ReadView {
        self.adm.view(s)
    }

    /// Charges one copy of the executing statement's text: `sql`, or what
    /// was shipped for it.
    fn ship_text(&mut self, sql: &str) {
        self.bytes += self.shipped.unwrap_or(sql.len() as u64);
    }

    /// Books one read on shard `s`: the text shipped for it and the
    /// statement, then — if it answered — its time and its result's
    /// bytes. `sleep_ppm` scales the modeled db time still owed as a real
    /// sleep: an inline read's (a wave's job slept on its worker, and
    /// passes 0).
    fn book<T>(
        &mut self,
        s: usize,
        sql: &str,
        cost: &CostModel,
        out: Result<(ExecOutcome, T), SqlError>,
        sleep_ppm: u64,
    ) -> Result<(ResultSet, T), SqlError> {
        self.ship_text(sql);
        self.statements[s] += 1;
        let (out, t) = out?;
        let ns = exec_cost(cost, &out.stats);
        self.read_times[s].push(ns);
        self.bytes += out.result.wire_size() as u64;
        db_sleep(sleep_ppm, ns);
        Ok((out.result, t))
    }

    /// How many reads each shard's wave holds — taken before a dependent
    /// read runs, for [`Costs::take_link`].
    fn wave_marks(&self) -> Vec<usize> {
        self.read_times.iter().map(Vec::len).collect()
    }

    /// Takes the reads executed since `marks` out of the waves: a
    /// dependent read starts only once its parent has answered, so it
    /// overlaps nothing that came before it. The link's own reads — an
    /// each-row statement's members — share a wave of their own on each
    /// shard. Returns how long the link took — its slowest shard, the
    /// shards of one gather working in parallel.
    fn take_link(&mut self, marks: &[usize], workers: usize) -> u64 {
        let mut link = 0u64;
        for (s, &mark) in marks.iter().enumerate() {
            let ns = batch::wave_makespan(self.read_times[s].drain(mark..).collect(), workers);
            self.link_ns[s] += ns;
            link = link.max(ns);
        }
        link
    }
}

/// What a batch's positions ran besides their answers: the fused groups
/// and their members, the dependants as bound (for the result cache), and
/// the time of the dependent chains' links.
#[derive(Default)]
struct Ran {
    fused_queries: u64,
    fused_groups: u64,
    bound: Vec<(usize, Stmt)>,
    chain_ns: u64,
}

fn exec_cost(cost: &CostModel, stats: &ExecStats) -> u64 {
    cost.db_base_ns
        + cost.db_row_scan_ns * stats.rows_scanned
        + cost.db_row_out_ns * stats.rows_returned
}

/// Turns modeled shard db time into real time: sleep `ns × ppm / 1e6`.
/// `ppm == 0` (the default everywhere but the wall-clock bench) is free.
/// Workers call this *inside* a wave, so the sleeps of a scatter-gather
/// overlap and the wall clock observes the fleet's true parallelism.
fn db_sleep(ppm: u64, ns: u64) {
    if ppm > 0 && ns > 0 {
        std::thread::sleep(Duration::from_nanos(ns.saturating_mul(ppm) / 1_000_000));
    }
}

/// A job queued on one shard's worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One shard's part of a read wave.
type WaveJob<T> = Box<dyn FnOnce() -> Result<T, SqlError> + Send>;

/// What a wave slot answers when its worker died before answering it.
fn worker_died(s: usize) -> SqlError {
    SqlError::new(format!(
        "shard {s}'s worker died without answering its wave slot"
    ))
}

/// One persistent worker thread per shard, executing read-wave jobs.
///
/// Spawned lazily on the first multi-target wave, so single-shard fleets
/// and purely point-routed workloads never pay for threads. Each worker
/// drains an mpsc queue until the fleet (and with it the senders) drops;
/// `Drop` then joins the threads.
struct ShardPool {
    senders: Vec<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    /// One worker per shard, or the error of the first spawn that failed
    /// (the workers already spawned see their queues close and exit).
    fn new(shards: usize) -> Result<Self, SqlError> {
        let mut pool = ShardPool {
            senders: Vec::with_capacity(shards),
            workers: Vec::with_capacity(shards),
        };
        for s in 0..shards {
            let (tx, rx) = mpsc::channel::<Job>();
            let worker = std::thread::Builder::new()
                .name(format!("shard-{s}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .map_err(|e| SqlError::new(format!("cannot spawn shard {s}'s worker: {e}")))?;
            pool.senders.push(tx);
            pool.workers.push(worker);
        }
        Ok(pool)
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.senders.clear(); // workers see a closed queue and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The batch executor — of the single server (N = 1, an empty spec) and
/// of a fleet alike: the partitioning spec plus the state routing needs
/// (the deployment's template cache, row-id sequences, worker pool,
/// counters), all but the cache idle over one database. It owns no
/// database: every batch executes over the views — and, for writes, the
/// live guards — the versioned store admitted it to.
///
/// Interior-mutable by design: concurrent batches share one `Router`
/// through `&self`.
pub(crate) struct Router {
    /// Shard count (the store's N).
    n: usize,
    spec: ShardSpec,
    /// Per-table row sequences: every inserted row gets its table's next
    /// id, on whichever shard (replicated inserts share one id across all
    /// copies). Merge-exactness only needs ordering among rows of the
    /// same base table, and a per-table counter reproduces the single
    /// server's row ids exactly while keeping each table's row storage
    /// dense in its own insert count (a fleet-wide counter would grow
    /// every table's backing store to the global insert total).
    next_rid: Mutex<HashMap<String, u64>>,
    /// The deployment's one template cache, shared with its databases.
    pub(crate) templates: Arc<TemplateCache>,
    stats: Mutex<ShardStats>,
    /// Worker threads for parallel read waves, spawned on first use.
    pool: Mutex<Option<ShardPool>>,
    /// Modeled-db-time → real-sleep scale (parts per million). Zero
    /// disables sleeping; the wall-clock shard bench sets it so timing a
    /// run measures the fleet's genuine overlap.
    db_sleep_ppm: AtomicU64,
}

impl Router {
    pub(crate) fn new(spec: ShardSpec, shards: usize, templates: Arc<TemplateCache>) -> Self {
        Router {
            n: shards,
            spec,
            next_rid: Mutex::new(HashMap::new()),
            templates,
            stats: Mutex::new(ShardStats::new(shards)),
            pool: Mutex::new(None),
            db_sleep_ppm: AtomicU64::new(0),
        }
    }

    fn ppm(&self) -> u64 {
        self.db_sleep_ppm.load(Ordering::Relaxed)
    }

    /// The router counters, behind their poison-tolerant mutex.
    fn stats_mut(&self) -> MutexGuard<'_, ShardStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one job per `(shard, job)` **concurrently** — each on its
    /// shard's worker thread — and returns the outcomes in `jobs` order.
    ///
    /// Legality: waves carry only reads, and every job carries its own
    /// [`ReadView`] — a snapshot job touches no lock at all, a live-view
    /// job read-locks only its own shard — so jobs cannot deadlock
    /// against each other or against the coordinator (which blocks only
    /// on the result channel). All cost and stat accounting stays on the
    /// coordinator and is applied *in job order* after collection, so
    /// the books — including partial accounting on error — are
    /// byte-identical to a sequential loop; the order-exact k-way merge
    /// then consumes per-shard results exactly as before. A single-job
    /// wave runs inline: no handoff, and no pool for fleets that never
    /// scatter. A slot whose worker died (or never spawned) answers an
    /// error, never a panic.
    fn run_wave<T: Send + 'static>(
        &self,
        jobs: Vec<(usize, WaveJob<T>)>,
    ) -> Vec<Result<T, SqlError>> {
        if jobs.len() <= 1 {
            return jobs.into_iter().map(|(_, job)| job()).collect();
        }
        let wall = Instant::now();
        // Senders clone under the pool mutex, then the guard drops: jobs
        // are queued lock-free and concurrent waves interleave freely.
        let senders: Vec<Option<mpsc::Sender<Job>>> = {
            let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
            if pool.is_none() {
                match ShardPool::new(self.n) {
                    Ok(p) => *pool = Some(p),
                    Err(e) => return jobs.iter().map(|_| Err(e.clone())).collect(),
                }
            }
            jobs.iter()
                .map(|(s, _)| pool.as_ref().and_then(|p| p.senders.get(*s).cloned()))
                .collect()
        };
        let shards: Vec<usize> = jobs.iter().map(|(s, _)| *s).collect();
        let (tx, rx) = mpsc::channel::<(usize, u64, Result<T, SqlError>)>();
        for (i, ((_, job), sender)) in jobs.into_iter().zip(senders).enumerate() {
            let tx = tx.clone();
            // A job its worker never runs (or dies running) drops its
            // result sender: the slot stays unanswered.
            if let Some(sender) = sender {
                let _ = sender.send(Box::new(move || {
                    let t0 = Instant::now();
                    let out = job();
                    let _ = tx.send((i, t0.elapsed().as_nanos() as u64, out));
                }));
            }
        }
        drop(tx);
        let mut outs: Vec<Option<Result<T, SqlError>>> = shards.iter().map(|_| None).collect();
        let mut busy = 0u64;
        // Ends early once every sender is gone: the rest will never answer.
        while let Ok((i, ns, out)) = rx.recv() {
            busy += ns;
            outs[i] = Some(out);
        }
        let mut stats = self.stats_mut();
        stats.parallel_waves += 1;
        stats.parallel_busy_ns += busy;
        stats.parallel_wave_ns += wall.elapsed().as_nanos() as u64;
        drop(stats);
        outs.into_iter()
            .zip(shards)
            .map(|(o, s)| o.unwrap_or_else(|| Err(worker_died(s))))
            .collect()
    }

    /// Transient error for a statement that needs an out shard.
    fn down_error(s: usize) -> SqlError {
        transient_error(&format!("shard {s} is down"))
    }

    pub(crate) fn reset_stats(&self) {
        *self.stats_mut() = ShardStats::new(self.n);
    }

    /// Executes a planned batch over the databases it was admitted to —
    /// the one batch executor. Statements run in batch position order
    /// (reads after a conflicting write observe it); a fused group runs
    /// where its first member sat, correct for members that crossed a
    /// write because the planner proved their footprints disjoint. The
    /// batch's database time is the **max over shards** of each shard's
    /// wave makespan plus its serialized write time — shards are
    /// independent servers working in parallel on the same round trip —
    /// plus the links of dependent chains, which overlap nothing.
    /// Execution stops at the first error and reports its position.
    /// `skip` carries journaled results from a prior faulted
    /// attempt (those positions are answered from the journal, never
    /// re-executed); `down` marks shards inside an outage window for this
    /// round trip.
    ///
    /// Admission and commit are the store's: a snapshot read-only batch
    /// arrives with published views and touches no shard lock here, a
    /// batch that writes arrives holding the write order and is published
    /// by the caller once this returns. `metered: false` is the
    /// out-of-band seeding path: the router counters are put back as they
    /// were found.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_batch(
        &self,
        cost: &CostModel,
        stmts: &[Stmt],
        plan: &BatchPlan<'_>,
        skip: Option<&[Option<ResultSet>]>,
        down: Option<&[bool]>,
        adm: &Admitted<'_>,
        metered: bool,
    ) -> BatchExec {
        let n = self.n;
        let saved = (!metered && n > 1).then(|| self.stats_mut().clone());
        let mut results: Vec<Option<ResultSet>> = vec![None; stmts.len()];
        let mut costs = Costs {
            read_times: vec![Vec::new(); n],
            write_ns: vec![0; n],
            link_ns: vec![0; n],
            bytes: 0,
            shipped: None,
            statements: vec![0; n],
            down: down.map(<[bool]>::to_vec).unwrap_or_default(),
            adm,
        };
        let mut ran = Ran::default();

        if let Some(skip) = skip {
            for (i, s) in skip.iter().enumerate().take(stmts.len()) {
                if let Some(rs) = s {
                    costs.bytes += rs.wire_size() as u64;
                    results[i] = Some(rs.clone());
                }
            }
        }

        let error = self
            .run_plan(stmts, plan, cost, &mut costs, &mut results, &mut ran)
            .err();
        // Per-shard wave makespans; the batch waits for the slowest shard.
        // One database keeps no router counters: nothing was routed.
        let mut db_ns = 0u64;
        let mut stats = (n > 1).then(|| self.stats_mut());
        for s in 0..n {
            let shard_ns =
                batch::wave_makespan(std::mem::take(&mut costs.read_times[s]), cost.db_workers)
                    + costs.write_ns[s];
            if let Some(stats) = stats.as_mut() {
                stats.db_ns[s] += shard_ns + costs.link_ns[s];
                stats.statements[s] += costs.statements[s];
            }
            db_ns = db_ns.max(shard_ns);
        }
        if let (Some(stats), Some(saved)) = (stats.as_mut(), saved) {
            **stats = saved;
        }
        db_ns += ran.chain_ns;

        BatchExec {
            results,
            error,
            db_ns,
            bytes: costs.bytes,
            fused_queries: ran.fused_queries,
            fused_groups: ran.fused_groups,
            bound: ran.bound,
        }
    }

    /// Runs the positions of `plan` that `results` does not hold yet, in
    /// order, each as its role says, and answers them into `results`;
    /// stops at the first error and reports its position. A bound each-row
    /// statement's members run through here too, as a plan of their own
    /// ([`Router::exec_each`]).
    fn run_plan(
        &self,
        stmts: &[Stmt],
        plan: &BatchPlan<'_>,
        cost: &CostModel,
        costs: &mut Costs<'_>,
        results: &mut [Option<ResultSet>],
        ran: &mut Ran,
    ) -> Result<(), (usize, SqlError)> {
        for i in 0..stmts.len() {
            match plan.roles[i] {
                Role::FusedMember => {} // answered by its group's lead
                Role::Single => {
                    if results[i].is_some() {
                        continue; // answered from the journal
                    }
                    // Bind, then route: a bound statement is routed
                    // exactly as the literal one it equals. What travels
                    // is the text as shipped — for a dependent one, its
                    // template and reference — once per database it
                    // touches, and once if it touches none.
                    let shipped = stmts[i].sql().len() as u64;
                    let (stmt, dependent) = match batch::bind_to_run(stmts, i, results) {
                        Ok(Bound::To(run)) => run,
                        Ok(Bound::Skip(why)) => {
                            costs.bytes += shipped;
                            results[i] = Some(ResultSet::no_parent_row(why));
                            continue;
                        }
                        Err(e) => {
                            costs.bytes += shipped;
                            return Err((i, e));
                        }
                    };
                    let marks = dependent.then(|| {
                        costs.shipped = Some(shipped);
                        costs.wave_marks()
                    });
                    let rs = match stmt.members() {
                        Some(members) => {
                            self.exec_each(stmt.sql(), members, plan.fusion, cost, costs, ran)
                        }
                        None => {
                            // The one lookup: every shard the statement
                            // runs on executes this plan.
                            let plan = self.templates.plan(stmt.sql(), stmt.norm());
                            if stmt.is_write() {
                                self.exec_write(&stmt, plan, cost, costs)
                            } else {
                                self.exec_read(&stmt, plan, cost, costs)
                            }
                        }
                    };
                    if let Some(marks) = marks {
                        costs.shipped = None;
                        ran.chain_ns += costs.take_link(&marks, cost.db_workers);
                    }
                    results[i] = Some(rs.map_err(|e| (i, e))?);
                    if dependent {
                        ran.bound.push((i, stmt.into_owned()));
                    }
                }
                Role::FusedLead(g) => {
                    let group = &plan.fused[g];
                    let live_members: Vec<(usize, &Value)> = group
                        .members
                        .iter()
                        .copied()
                        .filter(|&(m, _)| results[m].is_none())
                        .collect();
                    if live_members.is_empty() {
                        continue; // whole group answered from the journal
                    }
                    self.exec_fused(group, &live_members, cost, costs, results)
                        .map_err(|e| (i, e))?;
                    ran.fused_groups += 1;
                    ran.fused_queries += live_members.len() as u64;
                }
            }
        }
        Ok(())
    }

    // ---- reads ---------------------------------------------------------

    fn exec_read(
        &self,
        stmt: &Stmt,
        plan: Result<Plan<'_>, SqlError>,
        cost: &CostModel,
        costs: &mut Costs<'_>,
    ) -> Result<ResultSet, SqlError> {
        let sql = stmt.sql();
        let (plan, template) = match (plan, stmt.norm()) {
            (Ok(plan), Some(norm)) if self.n > 1 => (plan, &norm.template),
            // One database: nothing to route. A text that does not parse
            // travels to shard 0 and fails there, as on the single server.
            (plan, _) => return self.read_on(0, sql, plan.as_ref(), cost, costs),
        };
        let n = self.n;
        let params = plan.params;
        match plan.template.route(&self.spec) {
            Route::Unsupported(msg) => Err(SqlError::new(msg.clone())),
            Route::Replica => {
                self.stats_mut().replica_reads += 1;
                let s = self.failover(self.replica(template), costs)?;
                self.read_on(s, sql, Ok(&plan), cost, costs)
            }
            Route::Point { slot } if *slot < params.len() => {
                self.stats_mut().point_reads += 1;
                let s = shard_of(&params[*slot], n);
                self.read_on(s, sql, Ok(&plan), cost, costs)
            }
            Route::List { slots }
                if !slots.is_empty() && slots.iter().all(|&sl| sl < params.len()) =>
            {
                self.stats_mut().subset_reads += 1;
                let mut targets: Vec<usize> =
                    slots.iter().map(|&sl| shard_of(&params[sl], n)).collect();
                targets.sort_unstable();
                targets.dedup();
                self.gather(&targets, sql, &plan, cost, costs)
            }
            _ => {
                self.stats_mut().scatter_reads += 1;
                let all: Vec<usize> = (0..n).collect();
                self.gather(&all, sql, &plan, cost, costs)
            }
        }
    }

    /// The copy a replicated-table read of `template` prefers: a
    /// deterministic hash, spreading templates over the fleet.
    fn replica(&self, template: &str) -> usize {
        match self.n {
            1 => 0,
            n => (hash_key(&Value::Str(template.to_string())) % n as u64) as usize,
        }
    }

    /// Replica reads may pick any copy: if the preferred shard is inside
    /// an outage window, fail over to the first live one instead of
    /// surfacing a transient error the retry loop would have to absorb.
    fn failover(&self, preferred: usize, costs: &Costs<'_>) -> Result<usize, SqlError> {
        if costs.live(preferred) {
            return Ok(preferred);
        }
        match (0..self.n).find(|&s| costs.live(s)) {
            Some(s) => {
                self.stats_mut().replica_failovers += 1;
                Ok(s)
            }
            None => Err(Self::down_error(preferred)),
        }
    }

    /// One read on one shard (point / replica routes, and the single
    /// server): its plan, or the parse error it travelled with, executed
    /// through the batch's admitted read view — never a write guard.
    fn read_on(
        &self,
        s: usize,
        sql: &str,
        plan: Result<&Plan<'_>, &SqlError>,
        cost: &CostModel,
        costs: &mut Costs<'_>,
    ) -> Result<ResultSet, SqlError> {
        if !costs.live(s) {
            return Err(Self::down_error(s));
        }
        let out = plan.map_err(SqlError::clone).and_then(|plan| {
            costs
                .view(s)
                .with(|db| db.execute_read(&plan.template.stmt, plan.params, false))
        });
        Ok(costs.book(s, sql, cost, out, self.ppm())?.0)
    }

    /// One shard's job of a read wave: `run` over its read view, then the
    /// modeled db sleep.
    fn wave_job<T: Send + 'static>(
        &self,
        s: usize,
        cost: &CostModel,
        costs: &Costs<'_>,
        run: impl FnOnce(&Database) -> Result<(ExecOutcome, T), SqlError> + Send + 'static,
    ) -> (usize, WaveJob<(ExecOutcome, T)>) {
        let (ppm, cm, view) = (self.ppm(), *cost, costs.view(s));
        let job: WaveJob<(ExecOutcome, T)> = Box::new(move || {
            let out = view.with(run)?;
            db_sleep(ppm, exec_cost(&cm, &out.0.stats));
            Ok(out)
        });
        (s, job)
    }

    /// Scatter-gather of `plan` over `targets`: execute on each target
    /// shard and merge (rows by merge trace, aggregates by
    /// re-aggregation).
    fn gather(
        &self,
        targets: &[usize],
        sql: &str,
        plan: &Plan<'_>,
        cost: &CostModel,
        costs: &mut Costs<'_>,
    ) -> Result<ResultSet, SqlError> {
        if let Some(&s) = targets.iter().find(|&&s| !costs.live(s)) {
            // A multi-shard gather needs every target; one out shard
            // fails the whole read (transient — the retry loop absorbs
            // it once the outage window closes).
            return Err(Self::down_error(s));
        }
        if let [s] = targets {
            return self.read_on(*s, sql, Ok(plan), cost, costs);
        }
        let (descs, limit) = match &plan.template.stmt {
            Statement::Select(sel) => {
                if let Projection::Aggregate(agg) = &sel.projection {
                    return self.gather_aggregate(targets, sql, plan, sel, agg, cost, costs);
                }
                (sel.order_by.iter().map(|k| k.desc).collect(), sel.limit)
            }
            _ => (Vec::new(), None),
        };
        let jobs = targets
            .iter()
            .map(|&s| {
                let (template, params) = (Arc::clone(&plan.template), plan.params.to_vec());
                self.wave_job(s, cost, costs, move |db| {
                    db.execute_read(&template.stmt, &params, true)
                })
            })
            .collect();
        let mut parts: Vec<(ResultSet, MergeTrace)> = Vec::with_capacity(targets.len());
        for (&s, res) in targets.iter().zip(self.run_wave(jobs)) {
            let (rs, trace) = costs.book(s, sql, cost, res, 0)?;
            parts.push((rs, trace.unwrap_or_default()));
        }
        Ok(merge_parts(parts, &descs, limit))
    }

    /// Scattered aggregates: decomposable ones merge partials; `COUNT
    /// (DISTINCT c)` rewrites into a column gather and counts here.
    #[allow(clippy::too_many_arguments)]
    fn gather_aggregate(
        &self,
        targets: &[usize],
        sql: &str,
        plan: &Plan<'_>,
        sel: &SelectStmt,
        agg: &Aggregate,
        cost: &CostModel,
        costs: &mut Costs<'_>,
    ) -> Result<ResultSet, SqlError> {
        let merge: fn(&[Value]) -> Value = match agg {
            Aggregate::CountDistinct(col) => {
                // Gather the projected column from every shard, count once.
                let mut gather_sel = sel.clone();
                gather_sel.projection = Projection::Columns(vec![col.clone()]);
                gather_sel.order_by.clear();
                gather_sel.limit = None;
                let gather_stmt = Arc::new(Statement::Select(gather_sel));
                let jobs = targets
                    .iter()
                    .map(|&s| {
                        let (stmt, params) = (Arc::clone(&gather_stmt), plan.params.to_vec());
                        self.wave_job(s, cost, costs, move |db| {
                            db.execute_read(&stmt, &params, false)
                        })
                    })
                    .collect();
                let mut distinct: HashSet<Value> = HashSet::new();
                for (&s, res) in targets.iter().zip(self.run_wave(jobs)) {
                    let (rs, _) = costs.book(s, sql, cost, res, 0)?;
                    distinct.extend(rs.rows.into_iter().flatten().filter(|v| !v.is_null()));
                }
                return Ok(ResultSet::new(
                    vec!["count".to_string()],
                    vec![vec![Value::Int(distinct.len() as i64)]],
                ));
            }
            Aggregate::CountStar => |p| Value::Int(p.iter().map(|v| v.as_i64().unwrap_or(0)).sum()),
            Aggregate::Sum(_) => |p| {
                if p.iter().all(|v| matches!(v, Value::Int(_))) {
                    Value::Int(p.iter().map(|v| v.as_i64().unwrap_or(0)).sum())
                } else {
                    Value::Float(p.iter().map(|v| v.as_f64().unwrap_or(0.0)).sum())
                }
            },
            Aggregate::Max(_) => |p| {
                p.iter()
                    .filter(|v| !v.is_null())
                    .max_by(|a, b| a.total_cmp(b))
                    .cloned()
                    .unwrap_or(Value::Null)
            },
            Aggregate::Min(_) => |p| {
                p.iter()
                    .filter(|v| !v.is_null())
                    .min_by(|a, b| a.total_cmp(b))
                    .cloned()
                    .unwrap_or(Value::Null)
            },
        };
        let jobs = targets
            .iter()
            .map(|&s| {
                let (template, params) = (Arc::clone(&plan.template), plan.params.to_vec());
                self.wave_job(s, cost, costs, move |db| {
                    db.execute_read(&template.stmt, &params, false)
                })
            })
            .collect();
        let mut partials: Vec<Value> = Vec::with_capacity(targets.len());
        let mut columns: Vec<String> = Vec::new();
        for (&s, res) in targets.iter().zip(self.run_wave(jobs)) {
            let (rs, _) = costs.book(s, sql, cost, res, 0)?;
            partials.extend(
                rs.rows
                    .into_iter()
                    .next()
                    .and_then(|row| row.into_iter().next()),
            );
            columns = rs.columns;
        }
        Ok(ResultSet::new(columns, vec![vec![merge(&partials)]]))
    }

    // ---- each-row statements ------------------------------------------

    /// A bound each-row statement ([`Stmt::members`]): its members planned
    /// as a batch of their own, with fusion as the batch has it, so
    /// same-template point lookups run as fused `IN` probes over their
    /// distinct keys (at most [`batch::MAX_FUSED_ARITY`] a probe, split per
    /// shard as any fused group is) and anything else as itself. Each
    /// member's answer is its part of the position's answer
    /// ([`ResultSet::from_parts`]); a fan without members runs nothing.
    fn exec_each(
        &self,
        sql: &str,
        members: &[Stmt],
        fusion: bool,
        cost: &CostModel,
        costs: &mut Costs<'_>,
        ran: &mut Ran,
    ) -> Result<ResultSet, SqlError> {
        if members.is_empty() {
            // Its text still travelled, once.
            costs.ship_text(sql);
            return Ok(ResultSet::from_parts(&[]));
        }
        let plan = batch::plan_batch(members, fusion, &self.templates, |m| {
            self.templates.stmt_footprint(m)
        });
        let mut parts: Vec<Option<ResultSet>> = vec![None; members.len()];
        self.run_plan(members, &plan, cost, costs, &mut parts, ran)
            .map_err(|(_, e)| e)?;
        let parts: Vec<ResultSet> = parts.into_iter().map(Option::unwrap_or_default).collect();
        Ok(ResultSet::from_parts(&parts))
    }

    // ---- fused groups --------------------------------------------------

    /// Executes one fused group, one probe per arity chunk of its
    /// distinct values. If the probed column is the base table's shard
    /// key, each probe **splits into per-shard sub-probes** — every shard
    /// probes only the values it owns, all sub-probes share the parallel
    /// wave, and demux happens per sub-probe (a value's rows live
    /// entirely on its owning shard, so no cross-shard merge is needed).
    fn exec_fused(
        &self,
        group: &FusedGroup<'_>,
        members: &[(usize, &Value)],
        cost: &CostModel,
        costs: &mut Costs<'_>,
        results: &mut [Option<ResultSet>],
    ) -> Result<(), SqlError> {
        let values: Vec<&Value> = batch::fused_values(members);
        for chunk in values.chunks(batch::MAX_FUSED_ARITY) {
            let targets = batch::chunk_targets(members, chunk);
            self.exec_fused_probe(group, chunk, &targets, cost, costs, results)?;
        }
        Ok(())
    }

    /// One fused probe over `values` (≤ the arity cap), answering the
    /// members in `targets`.
    fn exec_fused_probe(
        &self,
        group: &FusedGroup<'_>,
        values: &[&Value],
        targets: &[(usize, &Value)],
        cost: &CostModel,
        costs: &mut Costs<'_>,
        results: &mut [Option<ResultSet>],
    ) -> Result<(), SqlError> {
        let n = self.n;
        let lookup = &group.lookup;
        let table = &lookup.select.from.name;
        let key_probe = n > 1
            && self
                .spec
                .key_column(table)
                .is_some_and(|k| lookup.column.column.eq_ignore_ascii_case(k));

        if key_probe {
            // Split into per-shard sub-probes over each shard's values.
            let mut per_shard: Vec<Vec<Value>> = vec![Vec::new(); n];
            for v in values {
                per_shard[shard_of(v, n)].push((*v).clone());
            }
            // Degraded mode around an outage: run every live shard's
            // sub-probe first so their members are answered (and
            // journaled by the fault layer), then fail on the out shard.
            // A retry after the window closes re-executes only the
            // positions that truly needed the down shard.
            let mut down_err: Option<SqlError> = None;
            let mut probes: Vec<(usize, fuse::FusedPlan, String)> = Vec::new();
            for (s, vals) in per_shard.iter().enumerate() {
                if vals.is_empty() {
                    continue;
                }
                if !costs.live(s) {
                    down_err.get_or_insert_with(|| Self::down_error(s));
                    continue;
                }
                let fplan = fuse::build_fused(&lookup.select, &lookup.column, vals)?;
                let fsql = fuse::render_select(&fplan.stmt)?;
                probes.push((s, fplan, fsql));
            }
            let jobs = probes
                .iter()
                .map(|(s, fplan, _)| {
                    let stmt = fplan.stmt.clone();
                    self.wave_job(*s, cost, costs, move |db| {
                        db.execute_read(&stmt, &[], false)
                    })
                })
                .collect();
            for ((s, fplan, fsql), res) in probes.iter().zip(self.run_wave(jobs)) {
                let (rs, _) = costs.book(*s, fsql, cost, res, 0)?;
                self.stats_mut().fused_subprobes += 1;
                let local: Vec<(usize, &Value)> = targets
                    .iter()
                    .filter(|(_, v)| shard_of(v, n) == *s)
                    .cloned()
                    .collect();
                for (m, rs) in batch::demux_fused(rs, fplan, &local)? {
                    results[m] = Some(rs);
                }
            }
            if let Some(e) = down_err {
                return Err(e);
            }
            return Ok(());
        }

        // Not a shard-key probe: build the whole fused statement and run
        // it like any read — on the one database, on one replica for
        // replicated tables, traced scatter + order-preserving merge for
        // sharded ones.
        let owned: Vec<Value> = values.iter().map(|v| (*v).clone()).collect();
        let fplan = fuse::build_fused(&lookup.select, &lookup.column, &owned)?;
        let fsql = fuse::render_select(&fplan.stmt)?;
        let merged = if n == 1 || !self.spec.is_sharded(table) {
            let s = self.failover(self.replica(group.template), costs)?;
            let out = costs
                .view(s)
                .with(|db| db.execute_read(&fplan.stmt, &[], false));
            costs.book(s, &fsql, cost, out, self.ppm())?.0
        } else {
            let descs: Vec<bool> = lookup.select.order_by.iter().map(|k| k.desc).collect();
            if let Some(s) = (0..n).find(|&s| !costs.live(s)) {
                return Err(Self::down_error(s));
            }
            let jobs = (0..n)
                .map(|s| {
                    let stmt = fplan.stmt.clone();
                    self.wave_job(s, cost, costs, move |db| db.execute_read(&stmt, &[], true))
                })
                .collect();
            let mut parts: Vec<(ResultSet, MergeTrace)> = Vec::with_capacity(n);
            for (s, res) in self.run_wave(jobs).into_iter().enumerate() {
                let (rs, trace) = costs.book(s, &fsql, cost, res, 0)?;
                parts.push((rs, trace.unwrap_or_default()));
            }
            merge_parts(parts, &descs, None)
        };
        for (m, rs) in batch::demux_fused(merged, &fplan, targets)? {
            results[m] = Some(rs);
        }
        Ok(())
    }

    // ---- writes --------------------------------------------------------

    fn exec_write(
        &self,
        text: &Stmt,
        plan: Result<Plan<'_>, SqlError>,
        cost: &CostModel,
        costs: &mut Costs<'_>,
    ) -> Result<ResultSet, SqlError> {
        let sql = text.sql();
        // The text travelled even if it does not parse.
        let plan = plan.inspect_err(|_| costs.ship_text(sql))?;
        match &plan.template.stmt {
            Statement::Select(_) => {
                // The classifier is a keyword heuristic; a statement it
                // misclassifies still executes correctly as a read.
                self.exec_read(text, Ok(plan), cost, costs)
            }
            // One database: nothing to route, no row id to allocate and
            // nothing to refuse — the statement runs as written.
            _ if self.n == 1 => self.write_on(0, &plan, sql, cost, costs),
            Statement::CreateTable { .. } | Statement::CreateIndex { .. } => {
                self.stats_mut().broadcast_writes += 1;
                self.broadcast_write(&plan, sql, cost, costs)
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                // Transaction boundaries are coordinator-side no-ops:
                // charged once, like the single server charges them.
                self.stats_mut().routed_writes += 1;
                self.write_on(0, &plan, sql, cost, costs)
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => self.exec_insert(sql, &plan, table, columns, values, cost, costs),
            Statement::Update { table, sets, .. } => {
                // A row's shard key decides where it lives; updating it
                // in place would leave the row on its old shard and make
                // every later key-routed statement miss it. Like
                // cross-shard joins, this is refused, never answered
                // wrongly (delete + re-insert re-homes a row).
                if let Some(key) = self.spec.key_column(table) {
                    if sets.iter().any(|(c, _)| c.eq_ignore_ascii_case(key)) {
                        return Err(SqlError::new(format!(
                            "updating shard key {key} of sharded table {table} is \
                             unsupported: rows cannot be re-homed in place; DELETE \
                             and re-INSERT instead"
                        )));
                    }
                }
                self.route_dml(&plan, sql, cost, costs)
            }
            Statement::Delete { .. } => self.route_dml(&plan, sql, cost, costs),
        }
    }

    /// Routes an `UPDATE`/`DELETE` by its template's [`Route`]: a key
    /// conjunct pinning the row set to one slot's value goes to the shard
    /// owning that value; everything else — a replicated table (copies
    /// stay in sync), or a predicate that pins no one shard — broadcasts,
    /// and every shard updates its own rows.
    fn route_dml(
        &self,
        plan: &Plan<'_>,
        sql: &str,
        cost: &CostModel,
        costs: &mut Costs<'_>,
    ) -> Result<ResultSet, SqlError> {
        let key = match plan.template.route(&self.spec) {
            Route::Point { slot } => plan.params.get(*slot),
            _ => None,
        };
        match key {
            Some(v) => {
                self.stats_mut().routed_writes += 1;
                self.write_on(shard_of(v, self.n), plan, sql, cost, costs)
            }
            None => {
                self.stats_mut().broadcast_writes += 1;
                self.broadcast_write(plan, sql, cost, costs)
            }
        }
    }

    fn write_on(
        &self,
        s: usize,
        plan: &Plan<'_>,
        sql: &str,
        cost: &CostModel,
        costs: &mut Costs<'_>,
    ) -> Result<ResultSet, SqlError> {
        if !costs.live(s) {
            return Err(Self::down_error(s));
        }
        costs.ship_text(sql);
        costs.statements[s] += 1;
        let out = costs
            .adm
            .writer()?
            .write(s)
            .execute_write(&plan.template.stmt, plan.params)?;
        let ns = exec_cost(cost, &out.stats);
        costs.write_ns[s] += ns;
        db_sleep(self.ppm(), ns);
        Ok(out.result)
    }

    fn broadcast_write(
        &self,
        plan: &Plan<'_>,
        sql: &str,
        cost: &CostModel,
        costs: &mut Costs<'_>,
    ) -> Result<ResultSet, SqlError> {
        // All-or-nothing under outages: check every target is live
        // *before* applying to any, so a broadcast never half-applies and
        // the retry loop can replay it safely.
        if let Some(s) = (0..self.n).find(|&s| !costs.live(s)) {
            return Err(Self::down_error(s));
        }
        let mut first: Option<ResultSet> = None;
        for s in 0..self.n {
            let rs = self.write_on(s, plan, sql, cost, costs)?;
            first.get_or_insert(rs);
        }
        Ok(first.unwrap_or_else(ResultSet::empty))
    }

    /// Routes an `INSERT`: replicated tables broadcast every tuple (same
    /// global row id on every copy), sharded tables send each tuple to
    /// the shard owning its key value. Every tuple is validated before a
    /// row id is allocated, so a failing statement inserts nothing — on
    /// any shard — exactly as on the single server.
    #[allow(clippy::too_many_arguments)]
    fn exec_insert(
        &self,
        sql: &str,
        plan: &Plan<'_>,
        table: &str,
        columns: &[String],
        values: &[Vec<Expr>],
        cost: &CostModel,
        costs: &mut Costs<'_>,
    ) -> Result<ResultSet, SqlError> {
        let n = self.n;
        // Evaluate all tuples first — the engine does the same, so any
        // evaluation error surfaces before any row is inserted.
        let tuples = eval_const(values, plan.params)?;
        // DDL broadcasts, so shard 0's catalog speaks for every shard.
        costs.view(0).with(|db0| {
            tuples
                .iter()
                .try_for_each(|tuple| db0.check_insert(table, columns, tuple))
        })?;
        let key_col = self.spec.key_column(table).map(str::to_string);
        let sharded = key_col.is_some();
        // Which tuple position carries the shard key?
        let key_pos: Option<usize> = match &key_col {
            None => None,
            Some(key) => {
                if columns.is_empty() {
                    // Declaration order: position from the catalog (all
                    // shards share DDL; a missing table errors on shard 0
                    // exactly as the single server would).
                    let pos = costs
                        .view(0)
                        .with(|db0| db0.table(table).map(|t| t.column_index(key)));
                    match pos {
                        Some(pos) => pos,
                        None => {
                            return Err(SqlError::new(format!("no such table: {table}")));
                        }
                    }
                } else {
                    columns.iter().position(|c| c.eq_ignore_ascii_case(key))
                }
            }
        };
        if sharded {
            self.stats_mut().routed_writes += 1;
        } else {
            self.stats_mut().broadcast_writes += 1;
        }
        // Routing must hash the value the table will *store*: coerce to
        // the key column's declared type exactly as the engine does, so
        // e.g. `2.5` inserted into an INT key lands on the same shard a
        // later `key = 2` lookup probes.
        let key_ty = key_col
            .as_deref()
            .and_then(|key| key_column_type(costs, table, key));
        // All-or-nothing under outages: every shard a tuple routes to must
        // be live before any row (or row id) is allocated, so a replayed
        // insert after a transient failure never double-applies.
        if sharded {
            for tuple in &tuples {
                let key_val = key_pos
                    .and_then(|p| tuple.get(p).cloned())
                    .unwrap_or(Value::Null);
                let s = shard_of(&coerce_key(key_val, key_ty), n);
                if !costs.live(s) {
                    return Err(Self::down_error(s));
                }
            }
        } else if let Some(s) = (0..n).find(|&s| !costs.live(s)) {
            return Err(Self::down_error(s));
        }
        let tkey = table.to_ascii_lowercase();
        let mut touched: Vec<bool> = vec![false; n];
        let count = tuples.len() as u64;
        for tuple in tuples {
            let rid = {
                let mut seqs = self.next_rid.lock().unwrap_or_else(PoisonError::into_inner);
                let c = seqs.entry(tkey.clone()).or_insert(0);
                let rid = *c;
                *c += 1;
                rid
            };
            if sharded {
                let key_val = key_pos
                    .and_then(|p| tuple.get(p).cloned())
                    .unwrap_or(Value::Null);
                let s = shard_of(&coerce_key(key_val, key_ty), n);
                touched[s] = true;
                costs
                    .adm
                    .writer()?
                    .write(s)
                    .insert_row_at(table, columns, tuple, rid)?;
                costs.statements[s] += 1;
            } else {
                for (s, hit) in touched.iter_mut().enumerate().take(n) {
                    *hit = true;
                    costs.adm.writer()?.write(s).insert_row_at(
                        table,
                        columns,
                        tuple.clone(),
                        rid,
                    )?;
                    costs.statements[s] += 1;
                }
            }
        }
        // Cost model: the statement text ships once to every touched
        // shard; each touched shard pays one statement dispatch plus its
        // per-row output cost (mirrors the single server's insert cost).
        for (s, hit) in touched.iter().enumerate() {
            if *hit {
                costs.ship_text(sql);
                let ns = cost.db_base_ns + cost.db_row_out_ns * count;
                costs.write_ns[s] += ns;
                db_sleep(self.ppm(), ns);
            }
        }
        if count == 0 {
            costs.ship_text(sql);
            costs.write_ns[0] += cost.db_base_ns;
            db_sleep(self.ppm(), cost.db_base_ns);
        }
        Ok(ResultSet::empty())
    }
}

/// Declared type of `table.key`, from shard 0's admitted view (DDL
/// broadcasts, so every shard agrees). `None` when the table or column is
/// missing; the insert will then error identically anyway.
fn key_column_type(
    costs: &Costs<'_>,
    table: &str,
    key: &str,
) -> Option<sloth_sql::ast::ColumnType> {
    costs.view(0).with(|db0| {
        let t = db0.table(table)?;
        t.column_index(key).map(|ci| t.columns[ci].ty)
    })
}

/// Mirrors `Table`'s int ↔ float coercion for an inserted shard-key
/// value, so routing hashes what the table stores.
fn coerce_key(v: Value, ty: Option<sloth_sql::ast::ColumnType>) -> Value {
    use sloth_sql::ast::ColumnType;
    match (ty, &v) {
        (Some(ColumnType::Int), Value::Float(f)) => Value::Int(*f as i64),
        (Some(ColumnType::Float), Value::Int(i)) => Value::Float(*i as f64),
        _ => v,
    }
}

/// K-way merge of per-shard results by `(sort keys, row id)` — exactly
/// the order a single server would emit (stable sort ties break in scan
/// order, and scan order is global row-id order).
fn merge_parts(
    parts: Vec<(ResultSet, MergeTrace)>,
    descs: &[bool],
    limit: Option<usize>,
) -> ResultSet {
    let columns = parts
        .first()
        .map(|(r, _)| r.columns.clone())
        .unwrap_or_default();
    let total: usize = parts.iter().map(|(r, _)| r.rows.len()).sum();
    let mut heads: Vec<usize> = vec![0; parts.len()];
    let mut rows: Vec<Row> = Vec::with_capacity(total);
    loop {
        let mut best: Option<usize> = None;
        for (p, (rs, trace)) in parts.iter().enumerate() {
            if heads[p] >= rs.rows.len() {
                continue;
            }
            best = match best {
                None => Some(p),
                Some(b) => {
                    let kb = &parts[b].1.keys[heads[b]];
                    let kp = &trace.keys[heads[p]];
                    if merge_lt(kp, kb, descs) {
                        Some(p)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(b) = best else { break };
        rows.push(parts[b].0.rows[heads[b]].clone());
        heads[b] += 1;
    }
    if let Some(l) = limit {
        rows.truncate(l);
    }
    ResultSet::new(columns, rows)
}

/// Strict-less comparison of merge keys under the statement's `ORDER BY`
/// directions, tie-broken by global row id (always unique across shards).
fn merge_lt(a: &MergeKey, b: &MergeKey, descs: &[bool]) -> bool {
    for (i, desc) in descs.iter().enumerate() {
        if i >= a.sort.len() || i >= b.sort.len() {
            break;
        }
        let mut ord = a.sort[i].total_cmp(&b.sort[i]);
        if *desc {
            ord = ord.reverse();
        }
        match ord {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    a.rid < b.rid
}

/// A sharded deployment: `N` independent database servers plus the
/// fusion-aware scatter-gather router, driven through the same batch
/// driver interface as [`SimEnv`].
///
/// The [`ShardedEnv::handle`] is an ordinary [`SimEnv`], so everything
/// built on the driver — the query store, ORM sessions, the kernel
/// interpreters, the benchmark applications — runs on a sharded fleet
/// without modification:
///
/// ```
/// use sloth_net::{CostModel, ShardedEnv};
/// use sloth_sql::ShardSpec;
///
/// let spec = ShardSpec::new().shard("stock", "s_id");
/// let fleet = ShardedEnv::new(CostModel::default(), spec, 4);
/// let env = fleet.env();
/// env.seed_sql("CREATE TABLE stock (s_id INT PRIMARY KEY, quantity INT)").unwrap();
/// for i in 0..8 {
///     env.seed_sql(&format!("INSERT INTO stock VALUES ({i}, {})", i * 10)).unwrap();
/// }
/// // Point lookups route to the one shard owning the key:
/// let rs = env.query("SELECT quantity FROM stock WHERE s_id = 3").unwrap();
/// assert_eq!(rs.get(0, "quantity").unwrap().as_i64(), Some(30));
/// assert_eq!(fleet.shard_stats().point_reads, 1);
/// ```
#[derive(Clone)]
pub struct ShardedEnv {
    env: SimEnv,
}

impl ShardedEnv {
    /// A fleet of `shards` (≥ 1) independent servers partitioned by `spec`.
    /// A fleet of one is the single server: nothing routes.
    pub fn new(cost: CostModel, spec: ShardSpec, shards: usize) -> Self {
        let rest = (1..shards.max(1)).map(|_| Database::new()).collect();
        ShardedEnv {
            env: SimEnv::over(cost, spec, Database::new(), rest),
        }
    }

    /// The driver handle — use it anywhere a [`SimEnv`] is expected
    /// (query stores, ORM sessions, interpreters). Cloning shares the
    /// deployment.
    pub fn handle(&self) -> SimEnv {
        self.env.clone()
    }

    /// Borrow of the driver handle.
    pub fn env(&self) -> &SimEnv {
        &self.env
    }

    /// Number of shards in the fleet.
    pub fn n_shards(&self) -> usize {
        self.env.router.n
    }

    /// The partitioning spec in force.
    pub fn spec(&self) -> ShardSpec {
        self.env.router.spec.clone()
    }

    /// Router and per-shard counters.
    pub fn shard_stats(&self) -> ShardStats {
        self.env.router.stats_mut().clone()
    }

    /// Committed rows of `table` on each shard (diagnostics / examples).
    pub fn shard_row_counts(&self, table: &str) -> Vec<usize> {
        let views = self.env.store.published();
        views
            .iter()
            .map(|db| db.table(table).map(|t| t.len()).unwrap_or(0))
            .collect()
    }

    /// Scales modeled per-statement shard db time into **real sleeps**
    /// (parts per million: `1_000_000` = real time, `0` = off, the
    /// default). Workers sleep inside their wave slot, so timing a run
    /// with a stopwatch measures the fleet's genuine overlap — the
    /// wall-clock shard figure runs under this knob. Results and all
    /// simulated accounting are unaffected.
    pub fn set_db_realtime_ppm(&self, ppm: u64) {
        self.env.router.db_sleep_ppm.store(ppm, Ordering::Relaxed);
    }

    /// `parallel_busy_ns / parallel_wave_ns` over all parallel waves so
    /// far: how many shards' worth of db work overlapped per wall-clock
    /// second inside waves. 0 when no multi-shard wave has run.
    pub fn wave_overlap(&self) -> f64 {
        let s = self.shard_stats();
        if s.parallel_wave_ns == 0 {
            0.0
        } else {
            s.parallel_busy_ns as f64 / s.parallel_wave_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ShardSpec {
        ShardSpec::new().shard("issue", "project_id")
    }

    /// `issue` is sharded by project id; `project` is replicated.
    fn fleet(n: usize) -> ShardedEnv {
        let env = ShardedEnv::new(CostModel::default(), spec(), n);
        seed(&env.handle());
        env
    }

    fn single() -> SimEnv {
        let env = SimEnv::default_env();
        seed(&env);
        env
    }

    fn seed(env: &SimEnv) {
        env.seed_sql("CREATE TABLE project (id INT PRIMARY KEY, name TEXT)")
            .unwrap();
        env.seed_sql(
            "CREATE TABLE issue (id INT PRIMARY KEY, project_id INT, title TEXT, sev INT)",
        )
        .unwrap();
        env.seed_sql("CREATE INDEX ON issue (project_id)").unwrap();
        for p in 0..6 {
            env.seed_sql(&format!("INSERT INTO project VALUES ({p}, 'proj{p}')"))
                .unwrap();
        }
        for i in 0..30 {
            env.seed_sql(&format!(
                "INSERT INTO issue VALUES ({i}, {}, 'bug{}', {})",
                i % 6,
                i % 4,
                i % 3
            ))
            .unwrap();
        }
    }

    /// A chain hops from shard to shard behind one client trip: each link
    /// is bound from its parent's row, then routed like the literal
    /// statement it equals, and the links add up on the virtual clock
    /// whichever shards they ran on.
    #[test]
    fn a_chain_binds_then_routes_and_its_links_add_up() {
        let (head, tail) = (
            "SELECT id FROM issue WHERE project_id = ",
            " ORDER BY id LIMIT 1",
        );
        let issues_of = |project: u64| {
            let hole = sloth_sql::Hole::column("id", "no project");
            Stmt::dependent(project, head, vec![(hole, tail.to_string())])
        };
        // project 1 → its first issue (id 1) → the issues of project
        // `id` = 1 again, by reference; then once more.
        let chain = vec![
            Stmt::new("SELECT id FROM project WHERE id = 1"),
            issues_of(0),
            issues_of(1),
            issues_of(2),
        ];
        let literal: Vec<Stmt> = std::iter::once(chain[0].clone())
            .chain((0..3).map(|_| Stmt::new(format!("{head}1{tail}"))))
            .collect();
        let fleet = fleet(4);
        let got = fleet.handle().ship(&crate::BatchRequest::new(&chain));
        let want = single().ship(&crate::BatchRequest::new(&literal));
        assert_eq!(got.into_results().unwrap(), want.into_results().unwrap());
        assert_eq!(fleet.env().stats().round_trips, 1);
        assert_eq!(
            fleet.shard_stats().point_reads,
            3,
            "bound, then point-routed"
        );
        // Serially — one statement per trip — the same four reads cost
        // the same database time: nothing of the chain overlapped.
        let serial = self::fleet(4);
        for stmt in &literal {
            serial
                .handle()
                .ship(&crate::BatchRequest::new(std::slice::from_ref(stmt)));
        }
        assert_eq!(fleet.env().stats().db_ns, serial.env().stats().db_ns);
    }

    #[test]
    fn rows_partition_and_replicate() {
        let env = fleet(4);
        let issue_counts = env.shard_row_counts("issue");
        assert_eq!(issue_counts.iter().sum::<usize>(), 30, "no row lost");
        assert!(
            issue_counts.iter().filter(|&&c| c > 0).count() > 1,
            "issues spread over shards: {issue_counts:?}"
        );
        assert_eq!(
            env.shard_row_counts("project"),
            vec![6; 4],
            "replicated table has a full copy everywhere"
        );
    }

    #[test]
    fn point_lookup_routes_to_one_shard() {
        let env = fleet(4);
        let rs = env
            .env()
            .query("SELECT title FROM issue WHERE project_id = 2 AND sev = 0")
            .unwrap();
        let reference = single()
            .query("SELECT title FROM issue WHERE project_id = 2 AND sev = 0")
            .unwrap();
        assert_eq!(rs, reference);
        let s = env.shard_stats();
        assert_eq!(s.point_reads, 1);
        assert_eq!(s.scatter_reads, 0);
        assert_eq!(
            s.statements.iter().sum::<u64>(),
            1,
            "exactly one shard executed"
        );
    }

    #[test]
    fn one_parse_routes_every_statement_of_a_template() {
        let env = fleet(4);
        let before = env.env().plan_cache_stats();
        env.env()
            .query("SELECT * FROM issue WHERE project_id = 1")
            .unwrap();
        env.env()
            .query("SELECT * FROM issue WHERE project_id = 2")
            .unwrap();
        env.env()
            .query("SELECT * FROM issue WHERE project_id = 3")
            .unwrap();
        let s = env.env().plan_cache_stats();
        // One lookup a read — the router's; the shard it routes to runs
        // the plan it is handed and looks nothing up.
        assert_eq!(s.misses - before.misses, 1, "one parse for the template");
        assert_eq!(s.hits - before.hits, 2);
        assert_eq!(env.shard_stats().point_reads, 3);
    }

    #[test]
    fn a_wave_whose_worker_dies_answers_an_error() {
        let router = Router::new(ShardSpec::new(), 2, Arc::default());
        let outs = router.run_wave::<u8>(vec![
            (0, Box::new(|| Ok(7))),
            (1, Box::new(|| panic!("the worker dies mid-job"))),
        ]);
        assert_eq!(outs[0], Ok(7));
        assert_eq!(outs[1], Err(worker_died(1)));
        // Its shard stays dead, and keeps answering errors, not hangs.
        let again = router.run_wave::<u8>(vec![(0, Box::new(|| Ok(1))), (1, Box::new(|| Ok(2)))]);
        assert_eq!(again, vec![Ok(1), Err(worker_died(1))]);
    }

    #[test]
    fn scatter_merge_preserves_single_server_order() {
        for sql in [
            "SELECT * FROM issue",
            "SELECT id, title FROM issue WHERE sev >= 1",
            "SELECT * FROM issue ORDER BY sev DESC, id",
            "SELECT id FROM issue WHERE sev = 1 ORDER BY title",
            "SELECT id FROM issue ORDER BY sev LIMIT 7",
        ] {
            for n in [1usize, 2, 4] {
                let env = fleet(n);
                assert_eq!(
                    env.env().query(sql).unwrap(),
                    single().query(sql).unwrap(),
                    "{sql} at {n} shards"
                );
            }
        }
    }

    #[test]
    fn subset_route_for_key_in_list() {
        let env = fleet(4);
        let sql = "SELECT * FROM issue WHERE project_id IN (1, 2) ORDER BY id";
        assert_eq!(env.env().query(sql).unwrap(), single().query(sql).unwrap());
        let s = env.shard_stats();
        assert_eq!(s.subset_reads, 1);
        assert!(
            s.statements.iter().filter(|&&c| c > 0).count() <= 2,
            "at most the owning shards executed: {:?}",
            s.statements
        );
    }

    #[test]
    fn aggregates_reaggregate() {
        for sql in [
            "SELECT COUNT(*) FROM issue",
            "SELECT COUNT(*) FROM issue WHERE sev = 1",
            "SELECT SUM(sev) FROM issue",
            "SELECT MAX(id) FROM issue",
            "SELECT MIN(title) FROM issue",
            "SELECT COUNT(DISTINCT title) FROM issue",
            "SELECT COUNT(DISTINCT sev) FROM issue WHERE sev > 0",
        ] {
            for n in [2usize, 4] {
                let env = fleet(n);
                assert_eq!(
                    env.env().query(sql).unwrap(),
                    single().query(sql).unwrap(),
                    "{sql} at {n} shards"
                );
            }
        }
    }

    #[test]
    fn fused_probes_split_into_subprobes() {
        let sqls: Vec<String> = (0..6)
            .map(|p| format!("SELECT * FROM issue WHERE project_id = {p} ORDER BY id"))
            .collect();
        let env = fleet(4);
        let reference = single().query_batch(&sqls).unwrap();
        let results = env.env().query_batch(&sqls).unwrap();
        assert_eq!(results, reference);
        let net = env.env().stats();
        assert_eq!(net.round_trips, 1);
        assert_eq!(net.fused_groups, 1);
        assert_eq!(net.fused_queries, 6);
        let s = env.shard_stats();
        assert!(
            s.fused_subprobes >= 2,
            "the IN probe split across shards: {}",
            s.fused_subprobes
        );
    }

    #[test]
    fn sharded_parallelism_cuts_db_time() {
        // A scatter-heavy batch: each shard scans 1/N of the rows in
        // parallel, so the fleet's wave makespan shrinks with N.
        let sqls: Vec<String> = (0..8)
            .map(|_| "SELECT COUNT(*) FROM issue".to_string())
            .collect();
        let one = fleet(1);
        let four = fleet(4);
        one.env().query_batch(&sqls).unwrap();
        four.env().query_batch(&sqls).unwrap();
        assert_eq!(
            one.env().stats().round_trips,
            four.env().stats().round_trips
        );
        assert!(
            four.env().stats().db_ns < one.env().stats().db_ns,
            "4 shards {} ≥ 1 shard {}",
            four.env().stats().db_ns,
            one.env().stats().db_ns
        );
    }

    #[test]
    fn writes_route_and_broadcast() {
        let env = fleet(4);
        // Key-pinned update: one shard.
        env.env()
            .query("UPDATE issue SET sev = 9 WHERE project_id = 3")
            .unwrap();
        assert_eq!(env.shard_stats().routed_writes, 1);
        // Un-routable update: every shard updates its own rows.
        env.env()
            .query("UPDATE issue SET sev = sev + 1 WHERE id < 10")
            .unwrap();
        assert!(env.shard_stats().broadcast_writes >= 1);
        // Replicated-table write: broadcast keeps copies identical.
        env.env()
            .query("UPDATE project SET name = 'renamed' WHERE id = 1")
            .unwrap();
        for s in env.shard_row_counts("project") {
            assert_eq!(s, 6);
        }
        // State equals the single server's after the same statements.
        let reference = single();
        reference
            .query("UPDATE issue SET sev = 9 WHERE project_id = 3")
            .unwrap();
        reference
            .query("UPDATE issue SET sev = sev + 1 WHERE id < 10")
            .unwrap();
        reference
            .query("UPDATE project SET name = 'renamed' WHERE id = 1")
            .unwrap();
        let check = "SELECT * FROM issue ORDER BY id";
        assert_eq!(
            env.env().query(check).unwrap(),
            reference.query(check).unwrap()
        );
    }

    #[test]
    fn inserts_route_by_key_and_merge_back_in_order() {
        let env = fleet(4);
        let reference = single();
        for stmt in [
            "INSERT INTO issue VALUES (100, 2, 'routed', 5)",
            "INSERT INTO issue (id, project_id, title, sev) VALUES (101, 3, 'cols', 5), (102, 4, 'cols2', 5)",
            "INSERT INTO project VALUES (6, 'replicated')",
            // A bad tuple fails the whole statement with the single
            // server's error and takes no row id with it: the rows
            // inserted afterwards still merge back in order.
            "INSERT INTO issue VALUES (103, 2, 'dropped', 5), (104, 3, 'short')",
            "INSERT INTO project (id, nope) VALUES (7, 'x')",
            "INSERT INTO issue VALUES (105, 5, 'after', 5), (106, 0, 'after', 5)",
        ] {
            assert_eq!(env.env().query(stmt), reference.query(stmt), "{stmt}");
        }
        for check in ["SELECT * FROM issue WHERE sev = 5", "SELECT * FROM project"] {
            assert_eq!(
                env.env().query(check).unwrap(),
                reference.query(check).unwrap()
            );
        }
    }

    #[test]
    fn replicated_join_works_cross_shard_join_errors() {
        let env = fleet(4);
        let sql = "SELECT i.title, p.name FROM issue i JOIN project p ON i.project_id = p.id \
                   WHERE i.project_id = 2 ORDER BY i.id";
        assert_eq!(env.env().query(sql).unwrap(), single().query(sql).unwrap());
        // Joining on something other than both shard keys is refused, not
        // silently wrong (project is sharded by name, joined by id).
        let env2 = ShardedEnv::new(
            CostModel::default(),
            ShardSpec::new()
                .shard("issue", "project_id")
                .shard("project", "name"),
            4,
        );
        seed(&env2.handle());
        let err = env2.env().query(sql).unwrap_err();
        assert!(err.to_string().contains("cross-shard join"), "{err}");
    }

    #[test]
    fn co_sharded_join_is_allowed() {
        // Both tables sharded by the join key: rows are colocated.
        let spec = ShardSpec::new()
            .shard("issue", "project_id")
            .shard("project", "id");
        let env = ShardedEnv::new(CostModel::default(), spec, 4);
        seed(&env.handle());
        let reference = single();
        let sql = "SELECT i.title, p.name FROM issue i JOIN project p ON i.project_id = p.id \
                   ORDER BY i.id";
        assert_eq!(env.env().query(sql).unwrap(), reference.query(sql).unwrap());
    }

    #[test]
    fn errors_match_single_server() {
        for sql in [
            "SELECT * FROM missing WHERE id = 1",
            "SELECT nope FROM issue",
            "INSERT INTO issue VALUES (1)",
            "UPDATE issue SET nope = 1 WHERE project_id = 2",
        ] {
            let env = fleet(4);
            let a = env.env().query(sql).unwrap_err();
            let b = single().query(sql).unwrap_err();
            assert_eq!(a, b, "{sql}");
        }
    }

    #[test]
    fn one_shard_fleet_matches_single_exactly() {
        let env = fleet(1);
        let reference = single();
        for sql in [
            "SELECT * FROM issue ORDER BY sev, id",
            "SELECT COUNT(*) FROM issue WHERE project_id = 2",
        ] {
            assert_eq!(env.env().query(sql).unwrap(), reference.query(sql).unwrap());
        }
    }

    #[test]
    fn shard_key_update_is_refused_not_wrong() {
        let env = fleet(4);
        // Re-homing rows in place is impossible; the router refuses the
        // statement instead of leaving rows on a stale shard.
        let err = env
            .env()
            .query("UPDATE issue SET project_id = 0 WHERE project_id = 1")
            .unwrap_err();
        assert!(err.to_string().contains("shard key"), "{err}");
        // Updating any other column with the key in the predicate is fine.
        env.env()
            .query("UPDATE issue SET sev = 3 WHERE project_id = 1")
            .unwrap();
        // On a one-shard fleet there is nothing to re-home; allowed.
        let one = fleet(1);
        one.env()
            .query("UPDATE issue SET project_id = 0 WHERE project_id = 1")
            .unwrap();
    }

    #[test]
    fn insert_routing_coerces_key_to_column_type() {
        // `project_id` is INT; a float key literal must land on the shard
        // a later integer lookup probes (the engine stores it as Int(2)).
        let env = fleet(4);
        let reference = single();
        let insert = "INSERT INTO issue VALUES (200, 2.5, 'frac', 1)";
        env.env().query(insert).unwrap();
        reference.query(insert).unwrap();
        for check in [
            "SELECT * FROM issue WHERE project_id = 2 ORDER BY id",
            "SELECT * FROM issue WHERE id = 200",
        ] {
            assert_eq!(
                env.env().query(check).unwrap(),
                reference.query(check).unwrap(),
                "{check}"
            );
        }
    }

    #[test]
    fn row_ids_are_per_table_sequences() {
        // Interleaved inserts into two tables must keep each table's row
        // storage dense in its *own* insert count — a shared fleet-wide
        // counter would tombstone-pad every table to the global total.
        let env = fleet(2);
        for i in 100..140 {
            env.env()
                .seed_sql(&format!("INSERT INTO project VALUES ({i}, 'p{i}')"))
                .unwrap();
            env.env()
                .seed_sql(&format!(
                    "INSERT INTO issue VALUES ({i}, {}, 't', 0)",
                    i % 3
                ))
                .unwrap();
        }
        let counts = env
            .env()
            .store
            .published()
            .iter()
            .map(|db| db.table("project").unwrap().next_rowid())
            .collect::<Vec<_>>();
        // 6 seeded + 40 inserted project rows → ids stay below 46 + seed
        // margin on every replica, untouched by the 40 issue inserts.
        for c in counts {
            assert!(
                c <= 46,
                "project row ids leaked another table's sequence: {c}"
            );
        }
    }

    #[test]
    fn fusion_toggle_is_invisible_on_shards() {
        let sqls: Vec<String> = (0..12)
            .map(|i| {
                format!(
                    "SELECT * FROM issue WHERE project_id = {} ORDER BY id",
                    i % 7
                )
            })
            .collect();
        let on = fleet(4);
        let off = fleet(4);
        off.env().set_fusion(false);
        assert_eq!(
            on.env().query_batch(&sqls).unwrap(),
            off.env().query_batch(&sqls).unwrap()
        );
        assert!(on.env().stats().fused_queries > 0);
        assert_eq!(off.env().stats().fused_queries, 0);
    }

    #[test]
    fn result_cache_is_coherent_across_the_fleet() {
        let env = fleet(4).handle();
        env.set_result_cache(true);
        // Prime entries living on (potentially) different shards.
        env.query("SELECT * FROM issue WHERE project_id = 1 ORDER BY id")
            .unwrap();
        env.query("SELECT * FROM issue WHERE project_id = 2 ORDER BY id")
            .unwrap();
        let trips = env.stats().round_trips;
        env.query("SELECT * FROM issue WHERE project_id = 1 ORDER BY id")
            .unwrap();
        assert_eq!(env.stats().round_trips, trips, "sharded repeat read hits");
        // A write routed to one shard must kill exactly the overlapping
        // entry — the cache sits above the router, so which shard applied
        // it is invisible to invalidation.
        env.query("UPDATE issue SET sev = 9 WHERE project_id = 1")
            .unwrap();
        let s = env.result_cache_stats();
        assert_eq!((s.invalidations, s.precise_invalidations), (1, 1));
        let rs = env
            .query("SELECT * FROM issue WHERE project_id = 1 ORDER BY id")
            .unwrap();
        let sev_col = rs.column_index("sev").unwrap();
        assert!(
            rs.rows.iter().all(|r| r[sev_col].as_i64() == Some(9)),
            "re-fetched entry observes the sharded write"
        );
        // The project_id = 2 entry survived and still answers locally.
        let trips = env.stats().round_trips;
        env.query("SELECT * FROM issue WHERE project_id = 2 ORDER BY id")
            .unwrap();
        assert_eq!(env.stats().round_trips, trips);
    }

    #[test]
    fn scatter_waves_overlap_on_the_wall_clock() {
        let env = fleet(4);
        // Make each shard's modeled cost a real ~25 ms sleep: a scatter
        // costs ~230 µs per shard, so 110e6 ppm ≈ 25 ms of sleeping per
        // worker. If the wave were sequential the wall clock would see
        // ~100 ms and busy/wall ≈ 1; true parallelism keeps wall ≈ one
        // sleep and pushes the ratio toward the shard count.
        env.set_db_realtime_ppm(110_000_000);
        let rs = env.env().query("SELECT * FROM issue ORDER BY id").unwrap();
        env.set_db_realtime_ppm(0);
        assert_eq!(
            rs,
            single().query("SELECT * FROM issue ORDER BY id").unwrap()
        );
        let s = env.shard_stats();
        assert_eq!(s.parallel_waves, 1, "one scatter → one wave");
        assert!(
            s.parallel_busy_ns > s.parallel_wave_ns * 3 / 2,
            "wave must genuinely overlap: busy {} ns vs wall {} ns",
            s.parallel_busy_ns,
            s.parallel_wave_ns
        );
    }
}
