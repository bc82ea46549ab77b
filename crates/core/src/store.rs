//! The **query store** (§3.3): the batching heart of Sloth.
//!
//! Queries are *registered* as the lazily-evaluated program encounters them
//! and accumulate in the current batch. The batch is shipped to the
//! database, in one round trip over the batch driver, when
//!
//! * a registered result is demanded ([`QueryStore::result`]), or
//! * a write that cannot defer is registered — a conflicting `INSERT`,
//!   `UPDATE` or `DELETE`, or DDL, never lingers. Under write deferral
//!   (the default), disjoint writes and **silent transactions** (whole
//!   `BEGIN … COMMIT` blocks) do linger and ride a later flush; a read
//!   that could observe a deferred write drains the batch with the read
//!   aboard, in one round trip, unless a silent transaction is open, in
//!   which case it lingers inside it.
//!
//! Registering a read identical to one already in the current batch returns
//! the existing [`QueryId`] (in-batch dedup), unless a deferred write
//! between the two could change its rows.
//!
//! A store is one **session** (one web request, typically). Stores are
//! `Send + Sync`, and many sessions can be multiplexed onto one shared
//! deployment. Every flush leaves through a [`Dispatcher`]: a private
//! one ([`QueryStore::new`]) or one shared with other sessions
//! ([`QueryStore::dispatched`]). Either ships each flush as it is, in one
//! round trip.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

use sloth_net::{BatchRequest, CacheMode, Dispatcher, SimEnv};
use sloth_sql::{
    Bound, Footprint, ResultSet, SqlError, Stmt, StmtClass, TxnBoundary, TxnFootprint,
};

/// Identifier of a registered query; stable for the life of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

/// Why the store shipped a batch — stamped where the store decides to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlushReason {
    /// A registered result was demanded ([`QueryStore::result_for`]), by
    /// the consumer named.
    Force(Demand),
    /// A read could observe a deferred write lingering in the batch, so
    /// the batch drained with the read aboard.
    ConflictingRead,
    /// A write that could not defer joined the batch and shipped it.
    Write,
    /// A `BEGIN` / `COMMIT` / `ROLLBACK` that kept its barrier semantics.
    TxnBoundary,
    /// The end-of-request drain ([`QueryStore::flush_deferred_writes`]),
    /// or an explicit [`QueryStore::flush`].
    RequestEnd,
    /// A degraded session shipping a read the moment it registers.
    Degraded,
}

/// What a demanded result was needed for: the consumer that made a lazy
/// program stop and wait for its batch. A program's flushes are only as
/// few as its consumers allow, so this is what says where the next round
/// trip can be saved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Demand {
    /// A branch or loop condition, or an operand of `&&` / `||`.
    Condition,
    /// An operation that reads its argument now: an eager builtin (`len`,
    /// `at`, …), a field or index read or write, or an argument crossing
    /// into code compiled under standard semantics.
    EagerArg,
    /// The end of the page: deferred writing blocks run, then the output
    /// flushes.
    Output,
    /// A statement being registered needs it: a query's key or SQL text,
    /// an `orm_assoc` owner, a write's values.
    QueryParam,
    /// The result is returned to whoever asked for it: the value `main`
    /// returns, or a caller of [`QueryStore::result`].
    Return,
}

/// Batching statistics for one store (one web request, typically).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `register` calls (including dedup hits).
    pub registered: u64,
    /// Registrations answered by an existing in-batch id (template+params
    /// matching: whitespace / keyword-case variants of the same query
    /// dedup too).
    pub dedup_hits: u64,
    /// Batches shipped to the database.
    pub batches: u64,
    /// Size of every shipped batch, in ship order.
    pub batch_sizes: Vec<usize>,
    /// Why each of those batches shipped, parallel to `batch_sizes`.
    pub flush_reasons: Vec<FlushReason>,
    /// Batches that were forced out by a write/transaction statement.
    pub write_flushes: u64,
    /// Writes that shipped **in the same round trip** as other pending
    /// statements.
    pub write_batched: u64,
    /// Conflict segments across all shipped batches, as found by the
    /// batch planner (one per batch when every statement commutes;
    /// see `sloth_sql::footprint`).
    pub segments: u64,
    /// Batches whose execution failed; their queries answer with the batch
    /// error instead of a result.
    pub failed_batches: u64,
    /// Queries of this store answered via a fused group execution in the
    /// batch driver.
    pub fused_queries: u64,
    /// Fused executions that answered ≥ 1 of this store's queries.
    pub fused_groups: u64,
    /// Writes left lingering in the pending batch at registration because
    /// their footprint was disjoint from every pending statement —
    /// selective laziness (§3.5–3.6): these cost **no** round trip of
    /// their own. Always zero with write deferral off.
    pub deferred_writes: u64,
    /// Shipped batches consisting entirely of writes — N deferred writes
    /// draining in one round trip instead of N.
    pub write_only_flushes: u64,
    /// Flushes forced because a newly registered statement's footprint
    /// conflicted with a pending **deferred write** (the read-after-write
    /// and write-after-write drain triggers).
    pub conflict_drains: u64,
    /// Times this session dropped from lazy batching to **eager-solo**
    /// dispatch because a flush failed with a transient (fault-layer)
    /// error after the retry budget exhausted. A degraded session ships
    /// every statement immediately, never defers writes, and bypasses
    /// the result cache — correctness over batching wins.
    pub degradations: u64,
    /// Silent transactions: `BEGIN … COMMIT` blocks whose boundaries and
    /// interior statements all deferred, so the whole block rode a later
    /// flush as one unit instead of draining the batch twice. Always zero
    /// with write deferral off.
    pub deferred_txns: u64,
    /// Reads answered locally from the post-images of deferred writes.
    /// The store answers every read from the server, so this is always
    /// 0; the field stays for readers that still report it.
    pub ryw_rewrites: u64,
}

impl StoreStats {
    /// Largest batch shipped.
    pub fn max_batch(&self) -> usize {
        self.batch_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Total queries shipped.
    pub fn queries_shipped(&self) -> usize {
        self.batch_sizes.iter().sum()
    }
}

/// An open silent transaction: its `BEGIN` deferred, and statements since
/// accumulate into a union footprint (§ transaction-scoped laziness). A
/// barrier statement inside poisons the block back to eager semantics.
struct OpenTxn {
    /// Tag stamped on member [`PendingStmt`]s so a flush can keep the
    /// block whole (a transaction never splits across dispatches).
    serial: u64,
    fp: TxnFootprint,
}

/// What one registration did: the id, and whether the statement (a write)
/// was left lingering in the pending batch instead of forcing a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// The registered statement's id.
    pub id: QueryId,
    /// `true` iff the statement is a write that was **deferred**: it cost
    /// no round trip yet and its (empty) result — or error — will only
    /// materialize at the next drain. Callers that would immediately
    /// demand a write's result should skip that force when this is set,
    /// or the deferral is undone on the spot.
    pub deferred: bool,
}

/// One statement waiting in the pending batch.
struct PendingStmt {
    id: QueryId,
    /// The statement. Writes only linger here when write deferral is on
    /// and their footprint commutes with everything pending; whatever
    /// registration learned about it (template, footprint) rides the
    /// flush inside it.
    stmt: Stmt,
    /// Serial of the silent transaction this statement belongs to, if any
    /// — flush admission keeps statements with the same tag together.
    txn: Option<u64>,
}

struct StoreInner {
    pending: Vec<PendingStmt>,
    /// Writes currently lingering in `pending` (deferred writes).
    pending_writes: usize,
    /// In-batch dedup: statements are equal by template + parameters, so
    /// `SELECT v FROM t WHERE id = 1` and `select  v from t where ID = 1`
    /// collapse while `… = 2` does not (see [`Stmt`]).
    pending_by_key: HashMap<Stmt, QueryId>,
    results: HashMap<QueryId, Result<ResultSet, SqlError>>,
    /// The open silent transaction, if one is accumulating.
    txn: Option<OpenTxn>,
    next_txn: u64,
    /// Ids drained from `pending` by a flush that has not recorded its
    /// outcome yet. A concurrent [`QueryStore::result`] for one of these
    /// waits on `StoreShared::answered` instead of reporting the id
    /// unknown.
    in_flight: HashSet<QueryId>,
    next_id: u64,
    /// The lowest-numbered statement failure recorded so far (see
    /// [`QueryStore::failure`]).
    failure: Option<(QueryId, SqlError)>,
    stats: StoreStats,
    /// Degraded mode (see [`StoreStats::degradations`]): set when a flush
    /// fails with a transient fault-layer error, never cleared — the
    /// session finishes its request on the safe eager-solo path.
    degraded: bool,
}

struct StoreShared {
    inner: Mutex<StoreInner>,
    /// Signalled whenever a flush records its outcomes (results or
    /// errors) — wakes `result()` callers waiting on an in-flight id.
    answered: Condvar,
}

/// Unwind guard for an in-flight flush: if shipping the batch panics,
/// the drained ids still get a recorded outcome (an error), `in_flight`
/// is cleared and waiters are woken — a panicking flush on one thread
/// must not strand `result()` callers on another. Disarmed on the normal
/// paths, which record outcomes themselves.
///
/// The guard **owns** its id list and is armed at admission time — in the
/// same critical section that moves ids into `in_flight` — so there is no
/// window between admission and ship where a panic could leak an
/// in-flight id and wedge a later `result()` wait.
struct FlushPanicGuard<'a> {
    shared: &'a StoreShared,
    ids: Vec<QueryId>,
    armed: bool,
}

impl<'a> FlushPanicGuard<'a> {
    fn disarmed(shared: &'a StoreShared) -> Self {
        FlushPanicGuard {
            shared,
            ids: Vec::new(),
            armed: false,
        }
    }
}

impl Drop for FlushPanicGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self
                .shared
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for id in &self.ids {
                inner.in_flight.remove(id);
                inner
                    .results
                    .insert(*id, Err(SqlError::new("batch flush panicked")));
            }
            drop(inner);
            self.shared.answered.notify_all();
        }
    }
}

/// The query store. Cloning shares the same store (per-request handle);
/// the handle is `Send + Sync`.
#[derive(Clone)]
pub struct QueryStore {
    /// Where every flush goes — the session's own dispatcher or one it
    /// shares with other sessions.
    dispatcher: Arc<Dispatcher>,
    shared: Arc<StoreShared>,
}

impl QueryStore {
    /// A fresh store bound to a simulated deployment, flushing through a
    /// dispatcher of its own: every batch goes to the wire as registered,
    /// in one round trip.
    pub fn new(env: SimEnv) -> Self {
        QueryStore::dispatched(Arc::new(Dispatcher::new(env)))
    }

    /// A fresh store whose flushes go through the shared `dispatcher`:
    /// the multi-session serving path. It behaves exactly like
    /// [`QueryStore::new`] — it is the same code.
    pub fn dispatched(dispatcher: Arc<Dispatcher>) -> Self {
        QueryStore {
            dispatcher,
            shared: Arc::new(StoreShared {
                inner: Mutex::new(StoreInner {
                    pending: Vec::new(),
                    pending_writes: 0,
                    pending_by_key: HashMap::new(),
                    results: HashMap::new(),
                    txn: None,
                    next_txn: 0,
                    in_flight: HashSet::new(),
                    next_id: 0,
                    failure: None,
                    stats: StoreStats::default(),
                    degraded: false,
                }),
                answered: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The deployment this store talks to.
    pub fn env(&self) -> &SimEnv {
        self.dispatcher.env()
    }

    /// Registers `sql` with the current batch and returns its id (§3.3
    /// `registerQuery`).
    ///
    /// Reads are deferred and deduplicated against the current batch by
    /// normalized template + parameters (formatting variants of the same
    /// query collapse to one id). A write that cannot be deferred (see
    /// [`QueryStore::register_stmt`]) forces the batch out immediately
    /// and **rides that same batch**, so pending reads and the write
    /// share one round trip. The batch executes in registration order on
    /// the server, so the reads observe pre-write state exactly as the
    /// serial program would.
    pub fn register(&self, sql: impl Into<String>) -> Result<QueryId, SqlError> {
        self.register_stmt(sql).map(|r| r.id)
    }

    /// Registers a **dependent** statement: the one `build` makes of a
    /// reference to `parent` (its id as the wire of this store names it),
    /// a parameter taken from the first row `parent` answers — so a chain
    /// (`user → role → privileges`, a linked-list walk) accumulates in one
    /// batch instead of costing a round trip per link. The driver binds it
    /// when the parent's row arrives, in the same trip.
    ///
    /// A dependent read is never a dedup base until bound. A dependent
    /// write defers, drains or joins the silent transaction like any other
    /// write. Either carries the table-level footprint of its template
    /// until bound, so every conflict question asked of the batch stays
    /// conservative. If the parent produces no row nothing executes, and
    /// the result is [`ResultSet::no_parent_row`].
    ///
    /// `None` when `parent` is not (or no longer) a read waiting in the
    /// current batch — already answered or in flight — or the session is
    /// degraded: the caller does what it did before, force the parent
    /// (free, if answered) and register a literal statement.
    pub fn register_dependent(
        &self,
        parent: QueryId,
        build: impl FnOnce(u64) -> Stmt,
    ) -> Result<Option<Registration>, SqlError> {
        let stmt = build(parent.0);
        if stmt.parent() != Some(parent.0) || matches!(stmt.class(), StmtClass::Txn(_)) {
            return Err(SqlError::new(format!(
                "not a statement dependent on {parent:?}: {}",
                stmt.sql()
            )));
        }
        if stmt.is_write() {
            return self.register_write(stmt);
        }
        // A degraded session is declined below, so deferral is the knob's.
        let deferral = self.env().write_deferral_enabled();
        self.register_read(stmt, deferral)
    }

    /// Whether `id` is a read still waiting in the current batch — what
    /// [`QueryStore::register_dependent`] requires of a parent.
    pub fn is_pending(&self, id: QueryId) -> bool {
        let inner = self.lock();
        !inner.degraded && pending_read(&inner.pending, id)
    }

    /// [`QueryStore::register`] reporting whether a write was deferred —
    /// the entry point for callers (the lazy interpreter, the ORM
    /// session) that otherwise force a write's empty result immediately
    /// and would undo the deferral doing so.
    pub fn register_stmt(&self, sql: impl Into<String>) -> Result<Registration, SqlError> {
        // The door: from here to the engine the text is a `Stmt`.
        let stmt = Stmt::new(sql);
        let reg = if stmt.is_write() {
            self.register_write(stmt)?
        } else {
            // A degraded session gives up deferral entirely: every
            // statement ships as eagerly as possible on the solo path.
            let deferral = self.env().write_deferral_enabled() && !self.lock().degraded;
            self.register_read(stmt, deferral)?
        };
        // Only a dependent statement can be declined (its parent gone).
        reg.ok_or_else(|| SqlError::new("query store: literal statement declined"))
    }

    /// The write registration path: deferral, the silent transaction and
    /// the write-aware drain. `None` only for a dependent write whose
    /// parent is no longer a read waiting in the batch (checked in each
    /// critical section that registers it).
    fn register_write(&self, stmt: Stmt) -> Result<Option<Registration>, SqlError> {
        // A degraded session gives up deferral entirely: every statement
        // ships as eagerly as possible on the solo path.
        let deferral = self.env().write_deferral_enabled() && !self.lock().degraded;
        if deferral {
            // Transaction-scoped laziness: `BEGIN` and `COMMIT` are engine
            // no-ops, so instead of acting as barriers they defer as
            // placeholder writes with empty footprints, opening/closing a
            // *silent transaction* whose interior statements union their
            // footprints and travel as one unit.
            match stmt.class() {
                StmtClass::Txn(TxnBoundary::Begin) => {
                    let mut inner = self.lock();
                    if inner.txn.is_none() {
                        let serial = inner.next_txn;
                        inner.next_txn += 1;
                        inner.txn = Some(OpenTxn {
                            serial,
                            fp: TxnFootprint::new(),
                        });
                        let placeholder = stmt.with_footprint(Footprint::default());
                        return Ok(Some(self.push_deferred(inner, placeholder, Some(serial))));
                    }
                    // Nested BEGIN: poison the open block back to the
                    // barrier semantics it had before this relaxation.
                    inner.txn = None;
                }
                StmtClass::Txn(TxnBoundary::Commit | TxnBoundary::Rollback) => {
                    let mut inner = self.lock();
                    if let Some(t) = inner.txn.take() {
                        if !t.fp.poisoned() {
                            // Close silently: the whole block is deferred
                            // and rides the next forced flush together.
                            inner.stats.deferred_txns += 1;
                            let placeholder = stmt.with_footprint(Footprint::default());
                            return Ok(Some(self.push_deferred(
                                inner,
                                placeholder,
                                Some(t.serial),
                            )));
                        }
                    }
                    // No open silent block (or a poisoned one): the
                    // boundary keeps its original barrier semantics.
                }
                _ => {
                    // Selective laziness (§3.5–3.6): a write whose
                    // footprint is disjoint from every pending write is
                    // *silent* — the batch executes in registration order,
                    // so pending reads still observe pre-write state — and
                    // it lingers in the batch instead of forcing a flush.
                    let fp = self.env().footprint(&stmt);
                    if !fp.barrier {
                        let mut inner = self.lock();
                        if parent_gone(&inner, &stmt) {
                            return Ok(None);
                        }
                        if let Some(t) = inner.txn.as_mut() {
                            if !t.fp.poisoned() {
                                // In-txn writes defer unconditionally: the
                                // block ships whole, in order, so in-batch
                                // conflicts resolve exactly as serially.
                                t.fp.absorb(fp);
                                let serial = t.serial;
                                return Ok(Some(self.push_deferred(inner, stmt, Some(serial))));
                            }
                        }
                        // Only pending WRITES gate deferral: a write after
                        // a conflicting read may linger, because batches
                        // execute in registration order (the read runs
                        // first server-side, observing pre-write state).
                        if !self.conflicts_with_pending_write(&inner.pending, fp) {
                            return Ok(Some(self.push_deferred(inner, stmt, None)));
                        }
                        // Write-after-write conflict: it drains the batch
                        // exactly as the write-aware (PR 4) path would —
                        // joining it, one round trip.
                        inner.stats.conflict_drains += 1;
                    } else {
                        // Barriers (DDL, unparseable SQL) conflict with
                        // everything: they poison any open silent block
                        // and fall through to the write-aware
                        // join-and-flush, draining any deferred writes
                        // with them.
                        self.lock().txn = None;
                    }
                }
            }
        }
        Ok(self.register_write_aware(stmt)?.map(|id| Registration {
            id,
            deferred: false,
        }))
    }

    /// Whether `fp` conflicts with a write lingering in `pending` — the
    /// one question deferral asks of the batch. Footprints are memoised in
    /// the statements, so a pending write analyzed at its own registration
    /// is not analyzed again.
    fn conflicts_with_pending_write(&self, pending: &[PendingStmt], fp: &Footprint) -> bool {
        pending.iter().any(|p| self.is_conflicting_write(p, fp))
    }

    fn is_conflicting_write(&self, p: &PendingStmt, fp: &Footprint) -> bool {
        p.stmt.is_write() && self.env().footprint(&p.stmt).conflicts_with(fp)
    }

    /// Registers a deferred write (or transaction placeholder) into the
    /// pending batch under the already-held lock. `txn` tags silent
    /// transaction members so flushes keep the block whole.
    fn push_deferred(
        &self,
        mut inner: std::sync::MutexGuard<'_, StoreInner>,
        stmt: Stmt,
        txn: Option<u64>,
    ) -> Registration {
        inner.stats.registered += 1;
        inner.stats.deferred_writes += 1;
        let id = QueryId(inner.next_id);
        inner.next_id += 1;
        inner.pending.push(PendingStmt { id, stmt, txn });
        inner.pending_writes += 1;
        Registration { id, deferred: true }
    }

    /// The read registration path: dedup, in-transaction lingering, and
    /// the conservative conflict drain. `None` only for a dependent read
    /// whose parent is no longer a read waiting in the batch (checked in
    /// the critical section that registers it, so the two cannot part
    /// ways in between).
    fn register_read(&self, stmt: Stmt, deferral: bool) -> Result<Option<Registration>, SqlError> {
        // The dedup lookup hashes the statement's template: lex it here,
        // outside the critical section.
        stmt.norm();
        let (reg, flush) = {
            let mut inner = self.lock();
            if parent_gone(&inner, &stmt) {
                return Ok(None);
            }
            // Selective laziness: a read may only join a batch with
            // deferred writes aboard when it provably cannot observe them.
            // A repeat of a pending read asks only of the writes after the
            // first copy: when none conflicts, both positions observe
            // identical rows (batches execute in registration order) and
            // the repeat dedups onto the first.
            let base = inner.pending_by_key.get(&stmt).copied();
            let conflicts = deferral && inner.pending_writes > 0 && {
                let from = match base {
                    Some(base) => pending_pos(&inner.pending, base)? + 1,
                    None => 0,
                };
                let fp = self.env().footprint(&stmt);
                self.conflicts_with_pending_write(&inner.pending[from..], fp)
            };
            inner.stats.registered += 1;
            if let (Some(id), false) = (base, conflicts) {
                inner.stats.dedup_hits += 1;
                return Ok(Some(Registration {
                    id,
                    deferred: false,
                }));
            }
            let id = QueryId(inner.next_id);
            inner.next_id += 1;
            // A dependent read is no dedup base until bound; a repeat that
            // could not dedup leaves the first copy the base.
            if stmt.parent().is_none() && base.is_none() {
                inner.pending_by_key.insert(stmt.clone(), id);
            }
            let txn = match &inner.txn {
                Some(t) if deferral && !t.fp.poisoned() => Some(t.serial),
                _ => None,
            };
            inner.pending.push(PendingStmt {
                id,
                stmt: stmt.clone(),
                txn,
            });
            let reg = Registration {
                id,
                deferred: false,
            };
            if txn.is_some() {
                // In-txn reads linger even across conflicts: the block
                // drains in one in-order batch, so the read observes the
                // txn's earlier writes exactly as the serial program
                // would.
                if let Some(t) = inner.txn.as_mut() {
                    t.fp.absorb(self.env().footprint(&stmt));
                }
                (reg, None)
            } else if conflicts {
                inner.stats.conflict_drains += 1;
                (reg, Some(FlushReason::ConflictingRead))
            } else if inner.degraded {
                // Degraded sessions ship every read immediately.
                (reg, Some(FlushReason::Degraded))
            } else {
                (reg, None)
            }
        };
        if let Some(reason) = flush {
            self.flush_internal(reason)?;
        }
        Ok(Some(reg))
    }

    /// The write-aware (PR 4) write path: the write joins the pending
    /// batch and the whole thing ships as ONE round trip.
    fn register_write_aware(&self, stmt: Stmt) -> Result<Option<QueryId>, SqlError> {
        let reason = match stmt.class() {
            StmtClass::Txn(_) => FlushReason::TxnBoundary,
            _ => FlushReason::Write,
        };
        let (id, had_pending) = {
            let mut inner = self.lock();
            if parent_gone(&inner, &stmt) {
                return Ok(None);
            }
            inner.stats.registered += 1;
            let had_pending = !inner.pending.is_empty();
            let id = QueryId(inner.next_id);
            inner.next_id += 1;
            inner.pending.push(PendingStmt {
                id,
                stmt,
                txn: None,
            });
            inner.pending_writes += 1;
            (id, had_pending)
        };
        self.flush_internal(reason)?;
        if had_pending {
            // Counted only once the combined batch actually shipped:
            // `write_batched` means "writes that shared a successful
            // round trip", and a failed flush records failed_batches.
            self.lock().stats.write_batched += 1;
        }
        Ok(Some(id))
    }

    /// Returns the result set for `id` (§3.3 `getResultSet`), shipping the
    /// current batch first if the result is not yet cached.
    ///
    /// If the batch that carried `id` failed, this returns that batch's
    /// error (annotated with the query) — not "unknown query id".
    ///
    /// Stores are `Send + Sync`: if another thread's flush is mid-flight
    /// with this id on board, this call waits for that flush's outcome
    /// instead of misreporting the id as unknown.
    ///
    /// A batch this ships is recorded as `Force(Demand::Return)`; a lazy
    /// evaluator that knows its consumer calls [`QueryStore::result_for`].
    pub fn result(&self, id: QueryId) -> Result<ResultSet, SqlError> {
        self.result_for(id, Demand::Return).0
    }

    /// [`QueryStore::result`], naming what the result is demanded for: a
    /// batch this ships is recorded as `Force(why)`. Alongside the result
    /// comes [`QueryStore::failure`], read in the same critical section.
    pub fn result_for(
        &self,
        id: QueryId,
        why: Demand,
    ) -> (Result<ResultSet, SqlError>, Option<(QueryId, SqlError)>) {
        let mut shipped = false;
        let mut inner = self.lock();
        loop {
            if let Some(r) = inner.results.get(&id) {
                return (r.clone(), inner.failure.clone());
            }
            if inner.in_flight.contains(&id) {
                inner = self
                    .shared
                    .answered
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            } else if shipped {
                let unknown = SqlError::new(format!("unknown query id {id:?}"));
                return (Err(unknown), inner.failure.clone());
            } else {
                drop(inner);
                // Per-id outcome recorded either way.
                self.flush_internal(FlushReason::Force(why)).ok();
                (shipped, inner) = (true, self.lock());
            }
        }
    }

    /// The lowest-numbered statement failure recorded, with the error the
    /// statement raises alone (see DESIGN.md "Failure order").
    pub fn failure(&self) -> Option<(QueryId, SqlError)> {
        self.lock().failure.clone()
    }

    /// The id the next registered statement takes: every statement
    /// registered so far has a lower one.
    pub fn next_id(&self) -> QueryId {
        QueryId(self.lock().next_id)
    }

    /// The text of every statement still waiting in the current batch, in
    /// registration order: what this session has not shipped.
    pub fn unshipped(&self) -> Vec<String> {
        let inner = self.lock();
        inner
            .pending
            .iter()
            .map(|p| p.stmt.sql().to_string())
            .collect()
    }

    /// Ships the current batch (if any) without demanding a result —
    /// draining any deferred writes with it.
    pub fn flush(&self) -> Result<(), SqlError> {
        self.flush_internal(FlushReason::RequestEnd)
    }

    /// Ships the **deferred writes** lingering in the pending batch (one
    /// round trip for all of them), leaving pending reads lazy where that
    /// is sound. The shipped set preserves registration order and closes
    /// over it: silent-transaction members travel with their block (a
    /// transaction never splits across dispatches), and a read that
    /// precedes a shipping write it conflicts with rides too — shipping
    /// the write around it would let the write overtake. Disjoint reads
    /// stay behind, still lazy. This is the end-of-request hook — a page
    /// whose last statements are writes must not leave them unexecuted,
    /// but must not force its dead reads either (never-demanded queries
    /// never running is the point of the paper).
    pub fn flush_deferred_writes(&self) -> Result<(), SqlError> {
        // The guard lives OUTSIDE the admission critical section (drop
        // order: the lock guard releases before this unwinds), but is
        // armed inside it — admission and arming are atomic.
        let mut guard = FlushPanicGuard::disarmed(&self.shared);
        let drained: Vec<PendingStmt> = {
            let mut inner = self.lock();
            if inner.pending_writes == 0 {
                return Ok(());
            }
            // End of request: an unclosed silent transaction ships whole
            // (its members are tagged and travel together).
            inner.txn = None;
            let n = inner.pending.len();
            let mut ship: Vec<bool> = inner
                .pending
                .iter()
                .map(|p| p.stmt.is_write() || p.txn.is_some())
                .collect();
            // Right to left: a kept read must not conflict with any LATER
            // shipping write, or the drain would reorder them.
            let mut later_write_fps: Vec<&Footprint> = Vec::new();
            for i in (0..n).rev() {
                let p = &inner.pending[i];
                let f = self.env().footprint(&p.stmt);
                if ship[i] {
                    if p.stmt.is_write() {
                        later_write_fps.push(f);
                    }
                } else if later_write_fps.iter().any(|w| w.conflicts_with(f)) {
                    ship[i] = true;
                }
            }
            // A dependent read is bound by the trip that carries its
            // parent: whatever ships takes its parent along (parents sit
            // earlier, so one right-to-left pass closes whole chains). A
            // dependent read that stays behind while its parent ships is
            // bound from the parent's row once it arrives (see `ship`).
            for i in (0..n).rev() {
                if let (true, Some(parent)) = (ship[i], inner.pending[i].stmt.parent()) {
                    if let Some(p) = inner.pending[..i].iter().position(|p| p.id.0 == parent) {
                        ship[p] = true;
                    }
                }
            }
            let all: Vec<PendingStmt> = inner.pending.drain(..).collect();
            let mut drained = Vec::new();
            let mut kept = Vec::new();
            for (i, p) in all.into_iter().enumerate() {
                if ship[i] {
                    drained.push(p);
                } else {
                    kept.push(p);
                }
            }
            inner.pending = kept;
            inner.pending_writes = 0;
            let keep_ids: HashSet<QueryId> = inner.pending.iter().map(|p| p.id).collect();
            inner.pending_by_key.retain(|_, id| keep_ids.contains(id));
            guard.armed = true;
            for p in &drained {
                guard.ids.push(p.id);
                inner.in_flight.insert(p.id);
            }
            drained
        };
        self.ship(drained, guard, FlushReason::RequestEnd)
    }

    fn flush_internal(&self, reason: FlushReason) -> Result<(), SqlError> {
        let mut guard = FlushPanicGuard::disarmed(&self.shared);
        let drained: Vec<PendingStmt> = {
            let mut inner = self.lock();
            if inner.pending.is_empty() {
                return Ok(());
            }
            inner.pending_by_key.clear();
            inner.pending_writes = 0;
            let drained: Vec<PendingStmt> = inner.pending.drain(..).collect();
            guard.armed = true;
            for p in &drained {
                guard.ids.push(p.id);
                inner.in_flight.insert(p.id);
            }
            drained
        };
        self.ship(drained, guard, reason)
    }

    /// Ships an already-drained batch and records per-id outcomes.
    /// `panic_guard` was armed at admission (its ids are the drained ids,
    /// already in `in_flight`).
    fn ship(
        &self,
        drained: Vec<PendingStmt>,
        mut panic_guard: FlushPanicGuard<'_>,
        reason: FlushReason,
    ) -> Result<(), SqlError> {
        let all_writes = drained.iter().all(|p| p.stmt.is_write());
        // A write that found company in the batch forced that company out.
        let caused_by_write =
            matches!(reason, FlushReason::Write | FlushReason::TxnBoundary) && drained.len() > 1;
        let ids: Vec<QueryId> = drained.iter().map(|p| p.id).collect();
        // On the wire a reference names a batch position, not a query id.
        // Every flush ships a dependent read together with its parent; one
        // that lost it (a session shared across threads, its parent in
        // another thread's flight) keeps a reference to itself, which the
        // driver refuses at that position.
        let stmts: Vec<Stmt> = drained
            .into_iter()
            .enumerate()
            .map(|(pos, p)| match p.stmt.parent() {
                None => p.stmt,
                Some(_) => p.stmt.rebase(|parent| {
                    let at = ids[..pos].iter().position(|id| id.0 == parent);
                    at.unwrap_or(pos) as u64
                }),
            })
            .collect();
        // A degraded session does not trust the shared result cache's hit
        // path (an earlier batch of its own died with ambiguous writes):
        // its `Bypass` requests ship uncached, while its writes still
        // invalidate other sessions' entries.
        let cache = if self.lock().degraded {
            CacheMode::Bypass
        } else {
            CacheMode::Serve
        };
        // What registration learned (template, footprint) rides along
        // inside the statements. The outcome is partial on error —
        // a read that rode a batch whose later write failed still answers
        // with its rows, exactly as it would have serially — and carries
        // this batch's own fusion attribution, not deployment-wide counter
        // deltas other sessions mutate concurrently.
        let outcome = self.dispatcher.ship(&BatchRequest {
            cache,
            ..BatchRequest::new(&stmts)
        });
        let (failed_at, error) = outcome.error.unzip();
        panic_guard.armed = false;
        {
            let mut inner = self.lock();
            if let (Some(&id), Some(e)) = (failed_at.and_then(|pos| ids.get(pos)), &error) {
                note_failure(&mut inner, id, e.clone());
            }
            match &error {
                None => {
                    inner.stats.batches += 1;
                    inner.stats.batch_sizes.push(stmts.len());
                    inner.stats.flush_reasons.push(reason);
                    inner.stats.fused_queries += outcome.fused_queries;
                    inner.stats.fused_groups += outcome.fused_groups;
                    inner.stats.segments += outcome.segments;
                    if caused_by_write {
                        inner.stats.write_flushes += 1;
                    }
                    if all_writes {
                        inner.stats.write_only_flushes += 1;
                    }
                }
                Some(e) => {
                    inner.stats.failed_batches += 1;
                    // Graceful degradation: a transient error here means
                    // the retry budget exhausted under faults. Drop the
                    // session to eager-solo dispatch for the rest of its
                    // life — no more deferral, no more cached answers.
                    if sloth_net::is_transient_error(e) && !inner.degraded {
                        inner.degraded = true;
                        // No deferral in degraded mode; any open silent
                        // transaction reverts to barrier semantics.
                        inner.txn = None;
                        inner.stats.degradations += 1;
                    }
                }
            }
            // The pending queries are already drained; every id records an
            // outcome — its real result when the server produced one, the
            // annotated batch error otherwise (never "unknown query id").
            for ((id, stmt), res) in ids.iter().zip(&stmts).zip(outcome.results) {
                inner.in_flight.remove(id);
                let record = match (res, &error) {
                    (Some(rs), _) => Ok(rs),
                    (None, Some(e)) => Err(
                        e.annotated(format!("batch failed: {e} (while batched: {})", stmt.sql()))
                    ),
                    (None, None) => Err(sloth_net::answered_nothing(stmt.sql())),
                };
                inner.results.insert(*id, record);
            }
            bind_kept_dependants(&mut inner);
        }
        self.shared.answered.notify_all();
        match error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Number of queries waiting in the current batch.
    ///
    /// Never blocks behind an in-flight flush: the store's inner lock is
    /// released before a drained batch ships (see [`QueryStore::stats`]).
    pub fn pending_len(&self) -> usize {
        self.lock().pending.len()
    }

    /// Snapshot of the store's batching statistics.
    ///
    /// Non-blocking observability contract: the inner lock is only ever
    /// held for admission and outcome recording, **never across a ship**
    /// — a stats snapshot taken from another thread completes even while
    /// this store's flush is wedged mid-round-trip at the backend. (The
    /// deployment-level counterpart is `SimEnv::stats`, which is
    /// lock-free outright.)
    pub fn stats(&self) -> StoreStats {
        self.lock().stats.clone()
    }

    /// Whether this session has degraded to eager-solo dispatch after a
    /// transient flush failure (see [`StoreStats::degradations`]).
    pub fn degraded(&self) -> bool {
        self.lock().degraded
    }
}

/// Where `id` waits in `pending`. The callers hold an id they found
/// through `pending` itself, so a miss is a broken invariant — reported,
/// not panicked on.
fn pending_pos(pending: &[PendingStmt], id: QueryId) -> Result<usize, SqlError> {
    pending
        .iter()
        .position(|p| p.id == id)
        .ok_or_else(|| SqlError::new(format!("query store: {id:?} is not pending")))
}

/// Whether `id` is a read waiting in `pending`.
fn pending_read(pending: &[PendingStmt], id: QueryId) -> bool {
    pending.iter().any(|p| p.id == id && !p.stmt.is_write())
}

/// Whether `stmt` is dependent and can no longer register as such: its
/// parent is not a read waiting in the batch, or the session is degraded.
fn parent_gone(inner: &StoreInner, stmt: &Stmt) -> bool {
    stmt.parent()
        .is_some_and(|parent| inner.degraded || !pending_read(&inner.pending, QueryId(parent)))
}

/// Binds every dependent read still pending whose parent has been
/// answered — the end-of-request drain may ship a parent (it rode with a
/// write it conflicts with) and leave the child lazy. The child becomes
/// the literal read it would have been had its parent been forced first;
/// one whose parent had no row, or failed, is answered on the spot.
fn bind_kept_dependants(inner: &mut StoreInner) {
    let mut i = 0;
    while i < inner.pending.len() {
        let p = &inner.pending[i];
        let parent = p.stmt.parent().map(QueryId);
        // A dependant whose parent failed fails at the parent's id; one
        // whose binding fails, at its own.
        let (bound, at) = match parent.map(|q| (q, inner.results.get(&q))) {
            Some((_, Some(Ok(row)))) => (p.stmt.bind_from(row), p.id),
            Some((parent, Some(Err(e)))) => (Err(e.clone()), parent),
            _ => {
                i += 1;
                continue;
            }
        };
        match bound {
            Ok(Bound::To(stmt)) => {
                inner.pending[i].stmt = stmt;
                i += 1;
            }
            Ok(Bound::Skip(why)) => {
                let p = inner.pending.remove(i);
                inner
                    .results
                    .insert(p.id, Ok(ResultSet::no_parent_row(why)));
            }
            Err(e) => {
                let p = inner.pending.remove(i);
                note_failure(inner, at, e.clone());
                inner.results.insert(p.id, Err(e));
            }
        }
    }
}

/// Records `id`'s failure, unless a lower-numbered one is recorded.
fn note_failure(inner: &mut StoreInner, id: QueryId, e: SqlError) {
    if inner.failure.as_ref().is_none_or(|(first, _)| id < *first) {
        inner.failure = Some((id, e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sloth_net::SimEnv;
    use sloth_sql::Hole;

    fn stmts(sqls: &[String]) -> Vec<Stmt> {
        sqls.iter().map(Stmt::new).collect()
    }

    fn env() -> SimEnv {
        let env = SimEnv::default_env();
        seed_t(&env);
        env
    }

    fn seed_t(env: &SimEnv) {
        env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..10 {
            env.seed_sql(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
    }

    #[test]
    fn reads_accumulate_until_result_demanded() {
        let e = env();
        let store = QueryStore::new(e.clone());
        let q1 = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        let q2 = store.register("SELECT v FROM t WHERE id = 2").unwrap();
        let q3 = store.register("SELECT v FROM t WHERE id = 3").unwrap();
        assert_eq!(store.pending_len(), 3);
        assert_eq!(e.stats().round_trips, 0);

        let rs1 = store.result(q1).unwrap();
        assert_eq!(rs1.get(0, "v").unwrap().as_str(), Some("v1"));
        // One round trip shipped all three.
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(e.stats().queries, 3);
        // Remaining results come from the cache: no further trips.
        store.result(q2).unwrap();
        store.result(q3).unwrap();
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(store.stats().max_batch(), 3);
    }

    /// A writer stalled mid-commit: a thread parked inside
    /// [`SimEnv::seed`] — holding the write order and the database write
    /// guard, `mutate` applied but nothing published — until released.
    struct Wedge {
        release: std::sync::mpsc::Sender<()>,
        holder: std::thread::JoinHandle<()>,
    }

    impl Wedge {
        fn hold(
            env: &SimEnv,
            mutate: impl FnOnce(&mut sloth_sql::Database) + Send + 'static,
        ) -> Wedge {
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

    #[test]
    fn stats_snapshot_does_not_block_behind_an_in_flight_flush() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc};
        use std::time::Duration;

        let e = env();
        let store = QueryStore::new(e.clone());
        // A write-containing batch: read-only flushes run on the
        // published snapshot and never wedge behind the write lock.
        store.register("UPDATE t SET v = 'w' WHERE id = 1").unwrap();

        // Wedge the flush mid-ship at the backend.
        let wedge = Wedge::hold(&e, |_| {});
        let done = Arc::new(AtomicBool::new(false));
        let flusher = {
            let store = store.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                store.flush().unwrap();
                done.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!done.load(Ordering::SeqCst), "flush must be wedged");

        // The inner lock is not held across the ship: stats and
        // pending_len answer on a bounded timeout while the flush waits.
        let (tx, rx) = mpsc::channel();
        {
            let store = store.clone();
            std::thread::spawn(move || {
                tx.send((store.stats(), store.pending_len())).unwrap();
            });
        }
        let (stats, pending) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("stats must not block behind an in-flight flush");
        assert_eq!(stats.batches, 0, "the wedged flush has not landed");
        assert_eq!(pending, 0, "the batch was drained at admission");
        assert!(!done.load(Ordering::SeqCst));

        wedge.release();
        flusher.join().unwrap();
        assert_eq!(store.stats().batches, 1);
    }

    /// Tentpole regression (reader-wedge, store layer): a read-only
    /// flush must complete with bounded latency while another thread
    /// holds the database write lock mid-batch — the store's drain path
    /// rides the driver's snapshot reads, so a stalled writer cannot
    /// stall page rendering.
    #[test]
    fn read_only_flush_completes_while_writer_holds_the_db() {
        use std::sync::mpsc;
        use std::time::Duration;

        let e = env();
        let store = QueryStore::new(e.clone());
        let q = store.register("SELECT v FROM t WHERE id = 1").unwrap();

        // Hold the write lock with an uncommitted mutation in place.
        let wedge = Wedge::hold(&e, |db| {
            db.execute("UPDATE t SET v = 'dirty' WHERE id = 1").unwrap();
        });

        let (tx, rx) = mpsc::channel();
        {
            let store = store.clone();
            std::thread::spawn(move || {
                tx.send(store.result(q).unwrap()).unwrap();
            });
        }
        let rs = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("read-only flush must not block behind the held write lock");
        assert_eq!(
            rs.get(0, "v").unwrap().as_str(),
            Some("v1"),
            "the drain observed the last committed state"
        );
        assert!(
            e.stats().snapshot_batches >= 1,
            "drain used the snapshot path"
        );
        wedge.release();
    }

    #[test]
    fn in_batch_dedup_returns_same_id() {
        let store = QueryStore::new(env());
        let a = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        let b = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(a, b);
        assert_eq!(store.pending_len(), 1);
        assert_eq!(store.stats().dedup_hits, 1);
    }

    #[test]
    fn dedup_resets_after_flush() {
        let store = QueryStore::new(env());
        let a = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        store.flush().unwrap();
        let b = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        assert_ne!(a, b, "dedup is per batch, as in the paper");
    }

    #[test]
    fn writes_defer_across_conflicting_reads() {
        // A write conflicting only with pending READS defers: batches
        // execute in registration order server-side, so the earlier read
        // still observes pre-write state when the batch drains.
        let e = env();
        let store = QueryStore::new(e.clone());
        let r1 = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        store.register("SELECT v FROM t WHERE id = 2").unwrap();
        let w = store
            .register_stmt("UPDATE t SET v = 'x' WHERE id = 1")
            .unwrap();
        assert!(w.deferred, "read-only conflicts no longer force a flush");
        assert_eq!(e.stats().round_trips, 0);
        assert_eq!(store.pending_len(), 3);
        // Demanding the read drains everything in ONE round trip; the
        // read registered before the write observes pre-write state.
        assert_eq!(
            store.result(r1).unwrap().get(0, "v").unwrap().as_str(),
            Some("v1")
        );
        assert_eq!(e.stats().round_trips, 1);
        // The write's (empty) result is available without further trips.
        let rs = store.result(w.id).unwrap();
        assert!(rs.is_empty());
        assert_eq!(e.stats().round_trips, 1);
        // The conflict analysis saw two segments: the reads (one of which
        // touches the written row) and the write.
        assert_eq!(store.stats().segments, 2);
        assert_eq!(store.stats().deferred_writes, 1);
    }

    #[test]
    fn writes_flush_pending_batch_without_deferral() {
        // With deferral off, the PR 4 write-aware contract is unchanged:
        // the write joins the pending reads and forces one round trip.
        let e = env();
        e.set_write_deferral(false);
        let store = QueryStore::new(e.clone());
        let r1 = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        store.register("SELECT v FROM t WHERE id = 2").unwrap();
        let w = store.register("UPDATE t SET v = 'x' WHERE id = 1").unwrap();
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(store.pending_len(), 0);
        assert_eq!(store.stats().write_flushes, 1);
        assert_eq!(store.stats().write_batched, 1);
        assert_eq!(
            store.result(r1).unwrap().get(0, "v").unwrap().as_str(),
            Some("v1")
        );
        let rs = store.result(w).unwrap();
        assert!(rs.is_empty());
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(store.stats().segments, 2);
    }

    #[test]
    fn transaction_boundaries_flush() {
        let e = env();
        let store = QueryStore::new(e.clone());
        store.register("SELECT v FROM t WHERE id = 1").unwrap();
        store.register("COMMIT").unwrap();
        // The boundary rides the same round trip as the pending read.
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(store.pending_len(), 0);
    }

    #[test]
    fn result_of_unknown_id_errors() {
        let store = QueryStore::new(env());
        let bogus = QueryId(999);
        assert!(store.result(bogus).is_err());
    }

    #[test]
    fn flush_on_empty_is_noop() {
        let e = env();
        let store = QueryStore::new(e.clone());
        store.flush().unwrap();
        assert_eq!(e.stats().round_trips, 0);
    }

    #[test]
    fn batch_sizes_recorded_in_order() {
        let store = QueryStore::new(env());
        store.register("SELECT v FROM t WHERE id = 1").unwrap();
        store.register("SELECT v FROM t WHERE id = 2").unwrap();
        store.flush().unwrap();
        store.register("SELECT v FROM t WHERE id = 3").unwrap();
        store.flush().unwrap();
        assert_eq!(store.stats().batch_sizes, vec![2, 1]);
        assert_eq!(store.stats().queries_shipped(), 3);
    }

    #[test]
    fn error_in_batch_propagates() {
        let store = QueryStore::new(env());
        store
            .register("SELECT v FROM missing_table WHERE id = 1")
            .unwrap();
        assert!(store.flush().is_err());
    }

    /// The two ways a session gets its dispatcher: a private one, and one
    /// shared with other sessions. The serial-prefix properties below
    /// hold over both.
    fn store_arms() -> [fn(SimEnv) -> QueryStore; 2] {
        [QueryStore::new, |e| {
            QueryStore::dispatched(Arc::new(Dispatcher::new(e)))
        }]
    }

    #[test]
    fn failed_batch_queries_answer_with_batch_error() {
        for store_over in store_arms() {
            failed_batch_queries_answer_with_batch_error_on(store_over(env()));
        }
    }

    fn failed_batch_queries_answer_with_batch_error_on(store: QueryStore) {
        let good = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        let bad = store
            .register("SELECT v FROM missing_table WHERE id = 1")
            .unwrap();
        assert!(store.flush().is_err());
        assert_eq!(store.stats().failed_batches, 1);
        assert_eq!(
            store.stats().batches,
            0,
            "failed batches are counted separately"
        );
        // Partial semantics: the statement the server executed before the
        // failure keeps its result — exactly as it would have serially.
        let rs = store.result(good).unwrap();
        assert_eq!(rs.get(0, "v").unwrap().as_str(), Some("v1"));
        // The failing statement (and anything after it) gets the batch
        // error — never "unknown query id".
        let err = store.result(bad).unwrap_err();
        assert!(err.to_string().contains("batch failed"), "got: {err}");
        assert!(!err.to_string().contains("unknown query id"));
        // Ids that never existed still say so.
        let bogus = QueryId(999);
        assert!(store
            .result(bogus)
            .unwrap_err()
            .to_string()
            .contains("unknown query id"));
    }

    #[test]
    fn failed_write_does_not_poison_earlier_reads() {
        for store_over in store_arms() {
            failed_write_does_not_poison_earlier_reads_on(store_over);
        }
    }

    fn failed_write_does_not_poison_earlier_reads_on(store_over: fn(SimEnv) -> QueryStore) {
        // A read rides the batch its (failing) write forces: the read
        // still answers with its rows, the write with the error — the
        // serial program's observable behaviour exactly. (Deferral off:
        // with deferral on, a disjoint failing write defers and its error
        // surfaces at the drain instead — see the deferral tests.)
        let e = env();
        e.set_write_deferral(false);
        let store = store_over(e);
        let read = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        let write = store.register("UPDATE missing SET v = 'x' WHERE id = 1");
        assert!(write.is_err(), "register surfaces the write's flush error");
        assert_eq!(
            store.result(read).unwrap().get(0, "v").unwrap().as_str(),
            Some("v1"),
            "the executed read must not report the write's error"
        );
    }

    #[test]
    fn failing_batch_answers_and_charges_alike_at_every_hop() {
        // One failure contract from `register` to the wire: a batch that
        // fails at position k of n answers its first k positions, reports
        // the error for the rest, and charges one round trip and k
        // queries — whichever layer it entered through.
        let sqls = [
            "SELECT v FROM t WHERE id = 1".to_string(),
            "SELECT COUNT(*) FROM t".to_string(),
            "SELECT v FROM missing WHERE id = 1".to_string(),
            "SELECT id FROM t WHERE v = 'v2'".to_string(),
        ];
        let k = 2;
        let want = env().query_batch(&sqls[..k]).unwrap();
        let charged = |e: &SimEnv, hop: &str| {
            let s = e.stats();
            assert_eq!((s.round_trips, s.queries), (1, k as u64), "{hop}");
        };
        let check = |answers: Vec<Result<ResultSet, SqlError>>, hop: &str| {
            for (i, r) in answers.iter().enumerate() {
                match r {
                    Ok(rs) => assert_eq!(Some(rs), want.get(i), "{hop}: position {i}"),
                    Err(e) => {
                        assert!(i >= k, "{hop}: position {i} lost its rows");
                        assert!(e.to_string().contains("missing"), "{hop}: {e}");
                    }
                }
            }
            assert_eq!(answers.iter().filter(|r| r.is_ok()).count(), k, "{hop}");
        };
        let per_position = |o: sloth_net::BatchOutcome| {
            let (pos, e) = o.error.expect("the batch fails");
            assert_eq!(pos, k);
            o.results
                .into_iter()
                .map(|r| r.ok_or_else(|| e.clone()))
                .collect()
        };

        let e = env();
        assert!(e.query_batch(&sqls).is_err());
        charged(&e, "SimEnv::query_batch");

        let e = env();
        check(
            per_position(e.ship(&BatchRequest::new(&stmts(&sqls)))),
            "SimEnv::ship",
        );
        charged(&e, "SimEnv::ship");

        let e = env();
        let d = Dispatcher::new(e.clone());
        check(
            per_position(d.ship(&BatchRequest::new(&stmts(&sqls)))),
            "Dispatcher::ship",
        );
        charged(&e, "Dispatcher::ship");

        for (store_over, hop) in store_arms().into_iter().zip(["private", "shared"]) {
            let e = env();
            let store = store_over(e.clone());
            let ids: Vec<QueryId> = sqls
                .iter()
                .map(|sql| store.register(sql.clone()).unwrap())
                .collect();
            assert!(store.flush().is_err());
            check(ids.into_iter().map(|id| store.result(id)).collect(), hop);
            charged(&e, hop);
        }

        // The same contract for a batch that passes: a fusable read group,
        // a disjoint write the third member crosses, and a read the write
        // conflicts with. Whichever door the text came through — and
        // whichever layer first asked a statement for its footprint — the
        // answers and every count agree.
        let sqls = [
            "SELECT v FROM t WHERE id = 1".to_string(),
            "SELECT v FROM t WHERE id = 2".to_string(),
            "UPDATE t SET v = 'w' WHERE id = 5".to_string(),
            "SELECT v FROM t WHERE id = 3".to_string(),
            "SELECT COUNT(*) FROM t WHERE v = 'w'".to_string(),
        ];
        let serial = env();
        let want: Vec<ResultSet> = sqls.iter().map(|s| serial.query(s).unwrap()).collect();
        let counted = |e: &SimEnv, hop: &str| {
            let s = e.stats();
            assert_eq!(
                (s.round_trips, s.queries, s.fused_groups, s.fused_queries),
                (1, 5, 1, 3),
                "{hop}"
            );
        };
        let planned = |o: sloth_net::BatchOutcome, hop: &str| {
            assert_eq!((o.segments, o.cross_write_fused), (2, 3), "{hop}");
            assert_eq!(o.into_results().unwrap(), want, "{hop}");
        };

        let e = env();
        assert_eq!(e.query_batch(&sqls).unwrap(), want);
        counted(&e, "SimEnv::query_batch");

        let e = env();
        planned(e.ship(&BatchRequest::new(&stmts(&sqls))), "SimEnv::ship");
        counted(&e, "SimEnv::ship");

        let e = env();
        assert_eq!(Dispatcher::new(e.clone()).submit(&sqls).unwrap(), want);
        counted(&e, "Dispatcher::submit");

        let e = env();
        let d = Dispatcher::new(e.clone());
        planned(
            d.ship(&BatchRequest::new(&stmts(&sqls))),
            "Dispatcher::ship",
        );
        counted(&e, "Dispatcher::ship");

        for (store_over, hop) in store_arms().into_iter().zip(["private", "shared"]) {
            let e = env();
            let store = store_over(e.clone());
            // The write defers, the third lookup lingers beside it, and
            // the conflicting read drains all five in one flush.
            let ids: Vec<QueryId> = sqls
                .iter()
                .map(|sql| store.register(sql.clone()).unwrap())
                .collect();
            assert_eq!(store.pending_len(), 0, "{hop}");
            let got: Vec<ResultSet> = ids.iter().map(|&id| store.result(id).unwrap()).collect();
            assert_eq!(got, want, "{hop}");
            counted(&e, hop);
            let s = store.stats();
            assert_eq!(
                (s.batches, s.segments, s.fused_groups, s.fused_queries),
                (1, 2, 1, 3),
                "{hop}"
            );
        }
    }

    #[test]
    fn disjoint_writes_defer_and_drain_in_one_round_trip() {
        // N consecutive disjoint writes: ZERO round trips at registration,
        // ONE when drained — the selective-laziness headline.
        let e = env();
        let store = QueryStore::new(e.clone());
        let regs: Vec<_> = (0..4)
            .map(|i| {
                store
                    .register_stmt(format!("UPDATE t SET v = 'w{i}' WHERE id = {i}"))
                    .unwrap()
            })
            .collect();
        assert!(
            regs.iter().all(|r| r.deferred),
            "all four disjoint writes defer"
        );
        assert_eq!(e.stats().round_trips, 0, "no round trip yet");
        assert_eq!(store.pending_len(), 4);
        assert_eq!(store.stats().deferred_writes, 4);
        store.flush().unwrap();
        assert_eq!(e.stats().round_trips, 1, "4 writes → 1 round trip");
        let s = store.stats();
        assert_eq!(s.write_only_flushes, 1);
        assert_eq!(s.batch_sizes, vec![4]);
        // Effects all applied, in order.
        for i in 0..4 {
            let rs = e.query(&format!("SELECT v FROM t WHERE id = {i}")).unwrap();
            assert_eq!(
                rs.get(0, "v").unwrap().as_str(),
                Some(format!("w{i}").as_str())
            );
        }
    }

    #[test]
    fn conflicting_read_drains_deferred_writes() {
        let e = env();
        let store = QueryStore::new(e.clone());
        let w = store
            .register_stmt("UPDATE t SET v = 'dirty' WHERE id = 3")
            .unwrap();
        assert!(w.deferred);
        // A read of an untouched row lingers…
        let r_far = store.register("SELECT v FROM t WHERE id = 7").unwrap();
        assert_eq!(e.stats().round_trips, 0);
        // …but a read of the written row drains the batch, riding it.
        let r_hit = store.register("SELECT v FROM t WHERE id = 3").unwrap();
        assert_eq!(e.stats().round_trips, 1, "conflict drains in one trip");
        assert_eq!(store.pending_len(), 0);
        assert_eq!(store.stats().conflict_drains, 1);
        // Registration order preserved: the read observes the write.
        assert_eq!(
            store.result(r_hit).unwrap().get(0, "v").unwrap().as_str(),
            Some("dirty")
        );
        assert_eq!(
            store.result(r_far).unwrap().get(0, "v").unwrap().as_str(),
            Some("v7")
        );
        assert!(store.result(w.id).unwrap().is_empty());
        assert_eq!(e.stats().round_trips, 1);
    }

    #[test]
    fn conflicting_write_drains_deferred_writes() {
        let e = env();
        let store = QueryStore::new(e.clone());
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'a' WHERE id = 1")
                .unwrap()
                .deferred
        );
        // Same row again: write-after-write conflict → drain, the new
        // write riding the batch (PR 4 join-and-flush semantics).
        let second = store
            .register_stmt("UPDATE t SET v = 'b' WHERE id = 1")
            .unwrap();
        assert!(!second.deferred);
        assert_eq!(e.stats().round_trips, 1);
        let s = store.stats();
        assert_eq!(s.conflict_drains, 1);
        assert_eq!(s.write_batched, 1, "the drain is a shared round trip");
        assert_eq!(
            e.query("SELECT v FROM t WHERE id = 1")
                .unwrap()
                .get(0, "v")
                .unwrap()
                .as_str(),
            Some("b"),
            "in-order execution: the later write wins"
        );
    }

    #[test]
    fn transaction_boundary_drains_deferred_writes_in_one_trip() {
        let e = env();
        let store = QueryStore::new(e.clone());
        for i in 0..3 {
            assert!(
                store
                    .register_stmt(format!("UPDATE t SET v = 'x{i}' WHERE id = {i}"))
                    .unwrap()
                    .deferred
            );
        }
        store.register("COMMIT").unwrap();
        assert_eq!(e.stats().round_trips, 1, "3 writes + COMMIT, one trip");
        assert_eq!(store.stats().write_flushes, 1);
        assert_eq!(store.pending_len(), 0);
    }

    #[test]
    fn force_drains_deferred_writes_with_pending_reads() {
        let e = env();
        let store = QueryStore::new(e.clone());
        let r = store.register("SELECT v FROM t WHERE id = 9").unwrap();
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'z' WHERE id = 2")
                .unwrap()
                .deferred
        );
        // Forcing the (disjoint) read ships read + write together.
        assert_eq!(
            store.result(r).unwrap().get(0, "v").unwrap().as_str(),
            Some("v9")
        );
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(
            e.query("SELECT v FROM t WHERE id = 2")
                .unwrap()
                .get(0, "v")
                .unwrap()
                .as_str(),
            Some("z")
        );
    }

    #[test]
    fn flush_deferred_writes_leaves_reads_lazy() {
        let e = env();
        let store = QueryStore::new(e.clone());
        let dead = store.register("SELECT v FROM t WHERE id = 5").unwrap();
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'end' WHERE id = 8")
                .unwrap()
                .deferred
        );
        store.flush_deferred_writes().unwrap();
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(e.stats().queries, 1, "only the write shipped");
        assert_eq!(store.pending_len(), 1, "the dead read stays lazy");
        assert_eq!(store.stats().write_only_flushes, 1);
        // The write applied; the read still answers if demanded later.
        assert_eq!(
            e.query("SELECT v FROM t WHERE id = 8")
                .unwrap()
                .get(0, "v")
                .unwrap()
                .as_str(),
            Some("end")
        );
        assert_eq!(
            store.result(dead).unwrap().get(0, "v").unwrap().as_str(),
            Some("v5")
        );
        // No deferred writes → no-op.
        let trips = e.stats().round_trips;
        store.flush_deferred_writes().unwrap();
        assert_eq!(e.stats().round_trips, trips);
    }

    #[test]
    fn identical_reads_across_disjoint_write_stay_deduped_and_correct() {
        let e = env();
        let store = QueryStore::new(e.clone());
        let a = store.register("SELECT v FROM t WHERE id = 4").unwrap();
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'q' WHERE id = 6")
                .unwrap()
                .deferred
        );
        // Identical read after the (disjoint) deferred write: dedup is
        // sound because the write proved itself disjoint from the first
        // occurrence — same footprint, same rows at both positions.
        let b = store.register("SELECT v FROM t WHERE id = 4").unwrap();
        assert_eq!(a, b);
        assert_eq!(
            store.result(a).unwrap().get(0, "v").unwrap().as_str(),
            Some("v4")
        );
    }

    #[test]
    fn deferred_write_error_surfaces_at_the_drain() {
        // The selective-laziness contract: a deferred write's failure is
        // reported at the flush that drains it, not at registration.
        let e = env();
        let store = QueryStore::new(e.clone());
        let w = store
            .register_stmt("UPDATE missing SET v = 'x' WHERE id = 1")
            .unwrap();
        assert!(w.deferred, "disjoint write defers even though it will fail");
        let err = store.flush().unwrap_err();
        assert!(err.to_string().contains("missing"), "got: {err}");
        // The id still answers with the batch error, never unknown-id.
        let per_id = store.result(w.id).unwrap_err();
        assert!(per_id.to_string().contains("batch failed"));
    }

    #[test]
    fn deferral_off_reproduces_write_aware_flush_per_write() {
        let on = env();
        let off = env();
        off.set_write_deferral(false);
        let s_on = QueryStore::new(on.clone());
        let s_off = QueryStore::new(off.clone());
        for store in [&s_on, &s_off] {
            for i in 0..3 {
                store
                    .register(format!("UPDATE t SET v = 'd{i}' WHERE id = {i}"))
                    .unwrap();
            }
            store.flush().unwrap();
        }
        assert_eq!(off.stats().round_trips, 3, "PR 4: one flush per write");
        assert_eq!(on.stats().round_trips, 1, "deferral: one for all three");
        assert_eq!(s_off.stats().deferred_writes, 0);
        // Same effects either way.
        for i in 0..3 {
            let a = on
                .query(&format!("SELECT v FROM t WHERE id = {i}"))
                .unwrap();
            let b = off
                .query(&format!("SELECT v FROM t WHERE id = {i}"))
                .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn template_dedup_ignores_whitespace_and_case() {
        let store = QueryStore::new(env());
        let a = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        let b = store.register("select  v  FROM  T where ID = 1").unwrap();
        assert_eq!(a, b, "formatting variants of the same query dedup");
        assert_eq!(store.pending_len(), 1);
        assert_eq!(store.stats().dedup_hits, 1);
        // Different parameters never dedup.
        let c = store.register("SELECT v FROM t WHERE id = 2").unwrap();
        assert_ne!(a, c);
        // Same template, different string-literal case is different data.
        let d = store.register("SELECT v FROM t WHERE v = 'X'").unwrap();
        let e = store.register("SELECT v FROM t WHERE v = 'x'").unwrap();
        assert_ne!(d, e);
    }

    #[test]
    fn fusion_stats_surface_in_store_stats() {
        let e = env();
        let store = QueryStore::new(e.clone());
        for i in 0..6 {
            store
                .register(format!("SELECT v FROM t WHERE id = {i}"))
                .unwrap();
        }
        store.flush().unwrap();
        let s = store.stats();
        assert_eq!(s.fused_queries, 6);
        assert_eq!(s.fused_groups, 1);
        // With fusion off the counters stay zero.
        let e2 = env();
        e2.set_fusion(false);
        let store2 = QueryStore::new(e2);
        for i in 0..6 {
            store2
                .register(format!("SELECT v FROM t WHERE id = {i}"))
                .unwrap();
        }
        store2.flush().unwrap();
        assert_eq!(store2.stats().fused_queries, 0);
    }

    #[test]
    fn store_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryStore>();
    }

    #[test]
    fn result_waits_for_in_flight_flush_instead_of_unknown_id() {
        use std::sync::Barrier;
        // Real network time makes the flush window wide enough that the
        // second thread's result() reliably lands mid-flight.
        let e = env();
        e.set_realtime(0.2);
        let store = QueryStore::new(e.clone());
        let id = store.register("SELECT v FROM t WHERE id = 4").unwrap();
        let barrier = Arc::new(Barrier::new(2));
        let flusher = {
            let store = store.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                store.flush().unwrap();
            })
        };
        let reader = {
            let store = store.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Whether this lands before, during or after the flush, it
                // must return the real row — never "unknown query id".
                store.result(id)
            })
        };
        flusher.join().unwrap();
        let rs = reader.join().unwrap().expect("result, not unknown id");
        assert_eq!(rs.get(0, "v").unwrap().as_str(), Some("v4"));
        assert_eq!(e.stats().round_trips, 1, "one flush served both threads");
    }

    #[test]
    fn dispatched_store_matches_direct_store() {
        use sloth_net::Dispatcher;
        let direct_env = env();
        let direct = QueryStore::new(direct_env.clone());
        let disp_env = env();
        let dispatcher = Arc::new(Dispatcher::new(disp_env.clone()));
        let dispatched = QueryStore::dispatched(dispatcher.clone());

        for store in [&direct, &dispatched] {
            for i in 0..5 {
                store
                    .register(format!("SELECT v FROM t WHERE id = {i}"))
                    .unwrap();
            }
        }
        let a = direct.flush();
        let b = dispatched.flush();
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(
            direct.stats().fused_queries,
            dispatched.stats().fused_queries
        );
        assert_eq!(direct_env.stats().round_trips, disp_env.stats().round_trips);
        assert_eq!(dispatcher.stats().flushes, 1);
    }

    #[test]
    fn concurrent_dispatched_sessions_each_ship_their_own_batch() {
        // Four sessions on one shared dispatcher force their batches at
        // once: each gets its own rows, in one round trip of its own.
        use sloth_net::Dispatcher;
        use std::sync::Barrier;
        let e = env();
        let dispatcher = Arc::new(Dispatcher::new(e.clone()));
        let n = 4;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let d = Arc::clone(&dispatcher);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let store = QueryStore::dispatched(d);
                    let ids: Vec<QueryId> = (0..2)
                        .map(|i| {
                            store
                                .register(format!(
                                    "SELECT v FROM t WHERE id = {}",
                                    (t * 2 + i) % 10
                                ))
                                .unwrap()
                        })
                        .collect();
                    barrier.wait();
                    for (i, id) in ids.into_iter().enumerate() {
                        let rs = store.result(id).unwrap();
                        let want = format!("v{}", (t * 2 + i) % 10);
                        assert_eq!(rs.get(0, "v").unwrap().as_str(), Some(want.as_str()));
                    }
                    store.stats().batch_sizes
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![2]);
        }
        assert_eq!(e.stats().round_trips, n as u64);
        assert_eq!(dispatcher.stats().flushes, n as u64);
    }

    #[test]
    fn injected_panic_flush_never_wedges_result_waits() {
        // Satellite 1: the drop-guard is armed in the same critical
        // section that admits ids to in_flight, so a panic anywhere on
        // the flush path still records an outcome for every drained id —
        // a later result() answers instead of waiting forever.
        let e = env();
        e.set_faults(Some(sloth_net::FaultPlan::seeded(5).panic_at(0)));
        let store = QueryStore::new(e.clone());
        let id = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.flush()));
        assert!(res.is_err(), "the injected panic propagates");
        let err = store.result(id).unwrap_err();
        assert!(
            err.to_string().contains("batch flush panicked"),
            "got: {err}"
        );
        // The store stays usable: trip 1 delivers.
        let id2 = store.register("SELECT v FROM t WHERE id = 2").unwrap();
        assert_eq!(
            store.result(id2).unwrap().get(0, "v").unwrap().as_str(),
            Some("v2")
        );
    }

    #[test]
    fn repeated_flush_panics_answer_their_ids_then_recover() {
        // Two flushes in a row hit an injected driver panic: each panic
        // reaches the session that flushed, each drained id answers with
        // it, no write applies, and the third flush applies exactly once.
        let e = env();
        e.seed_sql("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
            .unwrap();
        e.seed_sql("INSERT INTO c VALUES (1, 0)").unwrap();
        e.set_faults(Some(
            sloth_net::FaultPlan::seeded(7).panic_at(0).panic_at(1),
        ));
        let store = QueryStore::new(e.clone());
        let increment = "UPDATE c SET n = n + 1 WHERE id = 1";
        for round in 0..2 {
            let w = store.register_stmt(increment).unwrap();
            assert!(w.deferred);
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.flush()));
            assert!(res.is_err(), "round {round}: the flush re-raises the panic");
            let err = store.result(w.id).unwrap_err();
            assert!(
                err.to_string().contains("batch flush panicked"),
                "round {round}: {err}"
            );
        }
        assert_eq!(e.fault_stats().injected_panics, 2);
        // Trip 2 delivers: the increment applies exactly once overall.
        store.register(increment).unwrap();
        store.flush().unwrap();
        let rs = e.query("SELECT n FROM c WHERE id = 1").unwrap();
        assert_eq!(rs.get(0, "n").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn transient_exhaustion_degrades_session_to_eager_solo() {
        let e = env();
        e.set_faults(Some(sloth_net::FaultPlan::seeded(9).drops(1000)));
        e.set_retry_policy(sloth_net::RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        });
        let store = QueryStore::new(e.clone());
        let id = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        let err = store.flush().unwrap_err();
        assert!(sloth_net::is_transient_error(&err), "got: {err}");
        assert!(store.degraded());
        assert_eq!(store.stats().degradations, 1);
        assert!(store.result(id).is_err());
        // Faults gone: the degraded session still answers — eagerly.
        e.set_faults(None);
        let trips0 = e.stats().round_trips;
        let a = store.register("SELECT v FROM t WHERE id = 3").unwrap();
        store.register("SELECT v FROM t WHERE id = 4").unwrap();
        assert_eq!(
            e.stats().round_trips,
            trips0 + 2,
            "degraded reads ship immediately, one trip each"
        );
        let w = store
            .register_stmt("UPDATE t SET v = 'd' WHERE id = 5")
            .unwrap();
        assert!(!w.deferred, "degraded sessions never defer writes");
        assert_eq!(
            store.result(a).unwrap().get(0, "v").unwrap().as_str(),
            Some("v3")
        );
        assert_eq!(store.stats().degradations, 1, "the transition counts once");
    }

    #[test]
    fn degraded_dispatched_session_bypasses_the_cache() {
        // A degraded session on a shared dispatcher ships `Bypass`
        // requests: even a read the result cache holds goes to the wire.
        use sloth_net::Dispatcher;
        let e = env();
        e.set_result_cache(true);
        e.query("SELECT v FROM t WHERE id = 2").unwrap();
        e.set_faults(Some(sloth_net::FaultPlan::seeded(11).drops(1000)));
        e.set_retry_policy(sloth_net::RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        });
        let d = Arc::new(Dispatcher::new(e.clone()));
        let store = QueryStore::dispatched(Arc::clone(&d));
        store.register("SELECT v FROM t WHERE id = 1").unwrap();
        assert!(store.flush().is_err());
        assert!(store.degraded());
        e.set_faults(None);
        let (hits, trips) = (e.result_cache_stats().hits, e.stats().round_trips);
        let id = store.register("SELECT v FROM t WHERE id = 2").unwrap();
        assert_eq!(
            store.result(id).unwrap().get(0, "v").unwrap().as_str(),
            Some("v2")
        );
        assert_eq!(e.result_cache_stats().hits, hits, "not served cached");
        assert_eq!(e.stats().round_trips, trips + 1);
        assert_eq!(d.stats().flushes, 2);
    }

    // ---- transaction-scoped laziness ----

    #[test]
    fn silent_transaction_defers_whole_and_drains_once() {
        let e = env();
        let store = QueryStore::new(e.clone());
        assert!(store.register_stmt("BEGIN").unwrap().deferred);
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'a' WHERE id = 1")
                .unwrap()
                .deferred
        );
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'b' WHERE id = 2")
                .unwrap()
                .deferred
        );
        assert!(store.register_stmt("COMMIT").unwrap().deferred);
        // The whole BEGIN…COMMIT block lingered: zero round trips so far.
        assert_eq!(e.stats().round_trips, 0);
        assert_eq!(store.pending_len(), 4);
        assert_eq!(store.stats().deferred_txns, 1);
        // End-of-request drain ships the block as ONE round trip.
        store.flush_deferred_writes().unwrap();
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(
            e.query("SELECT v FROM t WHERE id = 1")
                .unwrap()
                .get(0, "v")
                .unwrap()
                .as_str(),
            Some("a")
        );
    }

    #[test]
    fn transaction_with_interior_conflicts_still_defers() {
        // Conflicting statements INSIDE one txn ride the same in-order
        // batch: write-after-write and read-after-write resolve exactly
        // as the serial program would.
        let e = env();
        let store = QueryStore::new(e.clone());
        store.register_stmt("BEGIN").unwrap();
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'x' WHERE id = 3")
                .unwrap()
                .deferred
        );
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'y' WHERE id = 3")
                .unwrap()
                .deferred
        );
        let r = store.register("SELECT v FROM t WHERE id = 3").unwrap();
        store.register_stmt("COMMIT").unwrap();
        assert_eq!(e.stats().round_trips, 0, "the block never split");
        // The in-txn read observes the txn's own writes.
        assert_eq!(
            store.result(r).unwrap().get(0, "v").unwrap().as_str(),
            Some("y")
        );
        assert_eq!(e.stats().round_trips, 1);
    }

    #[test]
    fn barrier_inside_transaction_poisons_it() {
        let e = env();
        let store = QueryStore::new(e.clone());
        store.register_stmt("BEGIN").unwrap();
        store
            .register_stmt("UPDATE t SET v = 'p' WHERE id = 4")
            .unwrap();
        // DDL is a barrier: the block reverts to eager semantics and
        // everything pending drains with it.
        store
            .register_stmt("CREATE INDEX idx_poison ON t (v)")
            .unwrap();
        assert_eq!(store.pending_len(), 0);
        let trips = e.stats().round_trips;
        assert!(trips >= 1);
        // The following COMMIT finds no open silent block: barrier path.
        let c = store.register_stmt("COMMIT").unwrap();
        assert!(!c.deferred);
        assert_eq!(store.stats().deferred_txns, 0);
    }

    #[test]
    fn unclosed_transaction_ships_whole_at_request_end() {
        let e = env();
        let store = QueryStore::new(e.clone());
        store.register_stmt("BEGIN").unwrap();
        store
            .register_stmt("UPDATE t SET v = 'u' WHERE id = 5")
            .unwrap();
        // No COMMIT: the end-of-request hook must still execute the block.
        store.flush_deferred_writes().unwrap();
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(
            e.query("SELECT v FROM t WHERE id = 5")
                .unwrap()
                .get(0, "v")
                .unwrap()
                .as_str(),
            Some("u")
        );
    }

    // ---- read-your-writes: a conflicting repeat drains ----

    #[test]
    fn read_your_writes_answers_locally_from_post_image() {
        let e = env();
        let store = QueryStore::new(e.clone());
        let base = store.register("SELECT v FROM t WHERE id = 6").unwrap();
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'rw' WHERE id = 6")
                .unwrap()
                .deferred
        );
        // Re-reading the same row after the deferred write: the dedup hit
        // is unsound (the write sits between the two positions), so the
        // repeat registers and drains the batch with itself aboard.
        let after = store.register("SELECT v FROM t WHERE id = 6").unwrap();
        assert_ne!(base, after);
        assert_eq!(e.stats().round_trips, 1, "one drain, the read riding it");
        assert_eq!(store.stats().conflict_drains, 1);
        assert_eq!(store.stats().ryw_rewrites, 0);
        // The base answers pre-write, the repeat post-write — the serial
        // program at both positions.
        assert_eq!(
            store.result(after).unwrap().get(0, "v").unwrap().as_str(),
            Some("rw")
        );
        assert_eq!(
            store.result(base).unwrap().get(0, "v").unwrap().as_str(),
            Some("v6")
        );
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(
            e.query("SELECT v FROM t WHERE id = 6")
                .unwrap()
                .get(0, "v")
                .unwrap()
                .as_str(),
            Some("rw")
        );
    }

    #[test]
    fn read_your_writes_composes_overlays_in_write_order() {
        // Two same-key updates can only both be pending inside a silent
        // transaction (outside one, write-after-write drains); a repeat
        // after the block drains it and sees the later write.
        let e = env();
        let store = QueryStore::new(e.clone());
        store.register("SELECT v FROM t WHERE id = 7").unwrap();
        store.register_stmt("BEGIN").unwrap();
        store
            .register_stmt("UPDATE t SET v = 'first' WHERE id = 7")
            .unwrap();
        store
            .register_stmt("UPDATE t SET v = 'second' WHERE id = 7")
            .unwrap();
        store.register_stmt("COMMIT").unwrap();
        assert_eq!(e.stats().round_trips, 0);
        let r = store.register("SELECT v FROM t WHERE id = 7").unwrap();
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(store.stats().batch_sizes, vec![6]);
        assert_eq!(
            store.result(r).unwrap().get(0, "v").unwrap().as_str(),
            Some("second"),
            "the later write wins"
        );
    }

    #[test]
    fn read_your_writes_coerces_to_declared_column_type() {
        // The repeat reads what the ENGINE stored: an integer literal
        // written into a FLOAT column lands as a float.
        let e = SimEnv::default_env();
        e.seed_sql("CREATE TABLE m (id INT PRIMARY KEY, score FLOAT)")
            .unwrap();
        e.seed_sql("INSERT INTO m VALUES (1, 0.5)").unwrap();
        let store = QueryStore::new(e.clone());
        store.register("SELECT score FROM m WHERE id = 1").unwrap();
        store
            .register_stmt("UPDATE m SET score = 2 WHERE id = 1")
            .unwrap();
        let r = store.register("SELECT score FROM m WHERE id = 1").unwrap();
        assert_eq!(store.stats().conflict_drains, 1);
        let drained = store.result(r).unwrap();
        let served = e.query("SELECT score FROM m WHERE id = 1").unwrap();
        assert_eq!(drained.rows, served.rows);
        assert_eq!(drained.get(0, "score"), Some(&sloth_sql::Value::Float(2.0)));
    }

    #[test]
    fn non_key_exact_write_falls_back_to_drain() {
        let e = env();
        let store = QueryStore::new(e.clone());
        store.register("SELECT v FROM t WHERE id = 8").unwrap();
        // Range predicate: not key-exact, so no post-image exists and the
        // conflicting re-read must fall back to the conservative drain.
        store
            .register_stmt("UPDATE t SET v = 'all' WHERE id >= 8")
            .unwrap();
        let r = store.register("SELECT v FROM t WHERE id = 8").unwrap();
        assert_eq!(store.stats().ryw_rewrites, 0);
        assert!(store.stats().conflict_drains >= 1);
        assert_eq!(
            store.result(r).unwrap().get(0, "v").unwrap().as_str(),
            Some("all")
        );
    }

    // ---- order-preserving deferred-write drain ----

    #[test]
    fn deferred_drain_keeps_disjoint_reads_but_ships_overtaken_ones() {
        let e = env();
        let store = QueryStore::new(e.clone());
        // A read the later write conflicts with, and one it does not.
        let hot = store.register("SELECT v FROM t WHERE id = 9").unwrap();
        let cold = store.register("SELECT v FROM t WHERE id = 2").unwrap();
        assert!(
            store
                .register_stmt("UPDATE t SET v = 'z' WHERE id = 9")
                .unwrap()
                .deferred
        );
        store.flush_deferred_writes().unwrap();
        // The conflicting read rode the drain (shipping the write around
        // it would have let the write overtake); the disjoint one stayed.
        assert_eq!(store.pending_len(), 1);
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(
            store.result(hot).unwrap().get(0, "v").unwrap().as_str(),
            Some("v9"),
            "the earlier read still observes pre-write state"
        );
        assert_eq!(e.stats().round_trips, 1, "hot was already answered");
        assert_eq!(
            store.result(cold).unwrap().get(0, "v").unwrap().as_str(),
            Some("v2")
        );
        assert_eq!(e.stats().round_trips, 2);
    }

    // ---- dependent reads ----

    /// `t` plus a linked list: `link.next` of row `i` is `i + 1`; row 5
    /// points at a row that does not exist.
    fn chain_env() -> SimEnv {
        let e = env();
        seed_links(&e);
        e
    }

    fn seed_links(e: &SimEnv) {
        e.seed_sql("CREATE TABLE link (id INT PRIMARY KEY, next INT)")
            .unwrap();
        for i in 1..=5 {
            e.seed_sql(&format!("INSERT INTO link VALUES ({i}, {})", i + 1))
                .unwrap();
        }
    }

    /// The read `lead` + the parent's `column`, skipped on a missing row
    /// with `<column> of no row`.
    fn keyed(parent: u64, lead: &str, column: &str) -> Stmt {
        let hole = Hole::column(column, format!("{column} of no row"));
        Stmt::dependent(parent, lead, vec![(hole, String::new())])
    }

    /// Registers `SELECT * FROM link WHERE id = <parent's next>`.
    fn follow(store: &QueryStore, parent: QueryId) -> Option<QueryId> {
        store
            .register_dependent(parent, |p| {
                keyed(p, "SELECT * FROM link WHERE id = ", "next")
            })
            .unwrap()
            .map(|r| r.id)
    }

    #[test]
    fn a_dependent_chain_ships_in_its_parents_batch() {
        let e = chain_env();
        let store = QueryStore::new(e.clone());
        let head = store.register("SELECT * FROM link WHERE id = 1").unwrap();
        let second = follow(&store, head).unwrap();
        let third = follow(&store, second).unwrap();
        assert_eq!(store.pending_len(), 3);
        assert_eq!(e.stats().round_trips, 0);
        // Unbound, it is nobody's dedup base: the literal twin of what it
        // will be bound to registers on its own.
        let twin = store.register("SELECT * FROM link WHERE id = 2").unwrap();
        assert_ne!(twin, second);
        assert_eq!(store.stats().dedup_hits, 0);

        let rs = store.result(third).unwrap();
        assert_eq!(rs.get(0, "id").unwrap().as_i64(), Some(3));
        assert_eq!(e.stats().round_trips, 1, "the whole chain in one trip");
        assert_eq!(store.stats().batch_sizes, vec![4]);
        assert_eq!(
            store.stats().flush_reasons,
            vec![FlushReason::Force(Demand::Return)]
        );
        assert_eq!(store.result(second).unwrap(), store.result(twin).unwrap());
        // Its parent answered, a would-be dependant is declined: the
        // caller forces (free) and registers a literal read.
        assert!(!store.is_pending(third));
        assert_eq!(follow(&store, third), None);
    }

    #[test]
    fn a_parent_without_a_row_answers_no_parent_row_down_the_chain() {
        let e = chain_env();
        let store = QueryStore::new(e.clone());
        let last = store.register("SELECT * FROM link WHERE id = 5").unwrap();
        let missing = follow(&store, last).unwrap(); // id = 6: no such row
        let beyond = follow(&store, missing).unwrap();
        let rs = store.result(missing).unwrap();
        assert!(rs.is_empty() && rs.skipped().is_none());
        let skipped = store.result(beyond).unwrap();
        assert_eq!(skipped.skipped().map(|t| &**t), Some("next of no row"));
        assert_eq!(e.stats().round_trips, 1);
    }

    #[test]
    fn the_drain_ships_a_parent_with_its_child_and_binds_the_child_it_keeps() {
        let e = chain_env();
        let store = QueryStore::new(e.clone());
        // `head` stays behind with its chain unless something drags it.
        let head = store.register("SELECT * FROM link WHERE id = 1").unwrap();
        let second = follow(&store, head).unwrap();
        // An unbound read is table-level: this write conflicts with it,
        // whatever row it will turn out to name, so the drain ships it —
        // and its parent with it.
        assert!(
            store
                .register_stmt("UPDATE link SET next = 9 WHERE id = 4")
                .unwrap()
                .deferred
        );
        // Registered after the write: conflicts with nothing later, and
        // stays lazy while its parent ships.
        let loner = store.register("SELECT * FROM t WHERE id = 1").unwrap();
        let kept = store
            .register_dependent(head, |p| keyed(p, "SELECT v FROM t WHERE id = ", "id"))
            .unwrap()
            .unwrap()
            .id;
        store.flush_deferred_writes().unwrap();
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(
            store.stats().batch_sizes,
            vec![3],
            "head, second, the write"
        );
        assert_eq!(store.stats().flush_reasons, vec![FlushReason::RequestEnd]);
        assert_eq!(store.pending_len(), 2, "loner and the kept child");
        assert_eq!(
            store.result(second).unwrap().get(0, "id").unwrap().as_i64(),
            Some(2)
        );
        assert_eq!(e.stats().round_trips, 1);
        // The kept child was bound from the row its parent came back
        // with: it is now the literal read `… WHERE id = 1`.
        assert_eq!(
            store.result(kept).unwrap().get(0, "v").unwrap().as_str(),
            Some("v1")
        );
        assert_eq!(e.stats().round_trips, 2);
        assert!(store.result(loner).is_ok());
        assert_eq!(e.stats().round_trips, 2);
    }

    /// A chain whose middle row is missing (link 5 points at 6), two
    /// links and an each-row fan kept past a write drain: the store binds
    /// each from its arrived parent, and every skip carries the first
    /// missing link's text — on one server and on 4 shards.
    #[test]
    fn a_kept_chain_off_a_missing_row_skips_with_the_first_missing_links_text() {
        let fleet = || {
            let spec = sloth_sql::ShardSpec::new()
                .shard("t", "id")
                .shard("link", "id");
            let e = sloth_net::ShardedEnv::new(sloth_net::CostModel::default(), spec, 4).handle();
            seed_t(&e);
            seed_links(&e);
            e
        };
        for e in [chain_env(), fleet()] {
            let store = QueryStore::new(e.clone());
            let head = store.register("SELECT * FROM link WHERE id = 5").unwrap();
            let middle = follow(&store, head).unwrap(); // id = 6: no such row
                                                        // Conflicts with the unbound `middle`: the drain ships it.
            store
                .register_stmt("UPDATE link SET next = 9 WHERE id = 4")
                .unwrap();
            let lead = "SELECT v FROM t WHERE id = ";
            let kept = |parent: QueryId, text: &str| {
                let build = |p| {
                    let hole = Hole::column("next", text);
                    Stmt::dependent(p, lead, vec![(hole, String::new())])
                };
                store.register_dependent(parent, build).unwrap().unwrap().id
            };
            let third = kept(middle, "third");
            let fourth = kept(third, "fourth");
            let fan = store
                .register_dependent(third, |p| {
                    let hole = Hole::column("v", "fan");
                    Stmt::each_row(p, lead, vec![(hole, String::new())])
                })
                .unwrap()
                .unwrap()
                .id;
            store.flush_deferred_writes().unwrap();
            assert_eq!(
                store.stats().batch_sizes,
                vec![3],
                "head, middle, the write"
            );
            assert_eq!(store.pending_len(), 0, "every kept dependant answered");
            assert!(store.result(middle).unwrap().is_empty());
            for id in [third, fourth, fan] {
                let rs = store.result(id).unwrap();
                assert_eq!(rs.skipped().map(|t| &**t), Some("third"));
            }
            assert_eq!(e.stats().round_trips, 1);
        }
    }

    #[test]
    fn the_failure_recorded_is_the_lowest_failing_statement() {
        let e = chain_env();
        let store = QueryStore::new(e.clone());
        let ok = store.register("SELECT * FROM link WHERE id = 1").unwrap();
        let failing = store.register("SELECT * FROM missing").unwrap();
        let write = store.register_stmt("UPDATE link SET next = 9 WHERE id = 4");
        let write = write.unwrap().id;
        assert_eq!(store.failure(), None);
        assert!(store.flush().is_err());
        // The failing read, as it fails alone — not the write the batch
        // annotates after it.
        let (id, err) = store.failure().unwrap();
        assert_eq!((id, err.message()), (failing, "no such table: missing"));
        assert!(store.result(ok).is_ok());
        let annotated = store.result(write).unwrap_err();
        assert!(annotated.message().starts_with("batch failed: "));
        // A later flush's failure does not displace it.
        store.register("SELECT * FROM gone").unwrap();
        assert!(store.flush().is_err());
        assert_eq!(store.failure().unwrap().0, failing);

        // The drain ships a failing parent and keeps its child: the child
        // fails at its parent's id.
        let store = QueryStore::new(e);
        let head = store.register("SELECT * FROM link WHERE nope = 1").unwrap();
        store
            .register_stmt("UPDATE link SET next = 9 WHERE id = 4")
            .unwrap();
        let kept = store
            .register_dependent(head, |p| keyed(p, "SELECT v FROM t WHERE id = ", "id"))
            .unwrap()
            .unwrap()
            .id;
        assert!(store.flush_deferred_writes().is_err());
        assert_eq!(store.pending_len(), 0, "the child is answered");
        assert!(store.result(kept).is_err());
        assert_eq!(store.failure().unwrap().0, head);
    }

    #[test]
    fn a_dependent_read_conflicting_with_a_deferred_write_drains_in_order() {
        let e = chain_env();
        let store = QueryStore::new(e.clone());
        let head = store.register("SELECT * FROM link WHERE id = 1").unwrap();
        store
            .register_stmt("UPDATE link SET next = 4 WHERE id = 2")
            .unwrap();
        // Registered after the write, executes after it: sees next = 4.
        let second = follow(&store, head).unwrap();
        assert_eq!(
            store.stats().flush_reasons,
            vec![FlushReason::ConflictingRead]
        );
        assert_eq!(
            store
                .result(second)
                .unwrap()
                .get(0, "next")
                .unwrap()
                .as_i64(),
            Some(4)
        );
        assert_eq!(e.stats().round_trips, 1);
    }

    /// Registers `UPDATE t SET v = 'seen' WHERE id = <parent's next>`,
    /// the key spliced as the text the kernel language's `str` makes of
    /// it, failing as its `cell` does without the column.
    fn mark(store: &QueryStore, parent: QueryId) -> Option<Registration> {
        let next = |rows: &ResultSet| match rows.rows.first() {
            None => Ok(Bound::Skip("no cell [0].next".into())),
            Some(_) => rows
                .get(0, "next")
                .map(|v| Bound::To(v.text()))
                .ok_or_else(|| SqlError::program("no cell [0].next")),
        };
        let hole = sloth_sql::Hole::new("next", next);
        store
            .register_dependent(parent, |p| {
                Stmt::dependent(
                    p,
                    "UPDATE t SET v = 'seen' WHERE id = ",
                    vec![(hole, String::new())],
                )
            })
            .unwrap()
    }

    fn seen(e: &SimEnv) -> Vec<i64> {
        let rs = e
            .query("SELECT id FROM t WHERE v = 'seen' ORDER BY id")
            .unwrap();
        rs.rows.iter().filter_map(|r| r[0].as_i64()).collect()
    }

    #[test]
    fn a_dependent_write_defers_and_binds_from_its_parents_row_in_one_trip() {
        let e = chain_env();
        let store = QueryStore::new(e.clone());
        let one = store.register("SELECT * FROM link WHERE id = 1").unwrap();
        let none = store.register("SELECT * FROM link WHERE id = 9").unwrap();
        let w = mark(&store, one).unwrap();
        assert!(w.deferred, "disjoint from everything pending");
        assert_eq!(store.pending_len(), 3);
        store.flush_deferred_writes().unwrap();
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(store.stats().batch_sizes, vec![2], "its parent rides along");
        assert_eq!(store.pending_len(), 1);
        // Open, a write may touch any row of its table: a second one
        // conflicts with the first and drains the batch with it aboard.
        let two = mark(&store, none).unwrap();
        let skipped = mark(&store, none).unwrap();
        assert!(two.deferred && !skipped.deferred);
        assert_eq!(e.stats().round_trips, 2);
        assert_eq!(seen(&e), vec![2]);
        let rs = store.result(skipped.id).unwrap();
        assert_eq!(rs.skipped().map(|t| &**t), Some("no cell [0].next"));
        // Answered, a parent takes no more dependants.
        assert!(mark(&store, one).is_none());
    }

    #[test]
    fn a_dependent_write_drains_on_conflict_and_joins_a_silent_transaction() {
        let e = chain_env();
        let store = QueryStore::new(e.clone());
        let one = store.register("SELECT * FROM link WHERE id = 1").unwrap();
        // A pending write to `t`: the open write may touch any row of it.
        store
            .register_stmt("UPDATE t SET v = 'w' WHERE id = 4")
            .unwrap();
        let w = mark(&store, one).unwrap();
        assert!(!w.deferred);
        assert_eq!(store.stats().flush_reasons, vec![FlushReason::Write]);
        assert_eq!(seen(&e), vec![2]);

        let store = QueryStore::new(e.clone());
        store.register_stmt("BEGIN").unwrap();
        let three = store.register("SELECT * FROM link WHERE id = 3").unwrap();
        store
            .register_stmt("UPDATE t SET v = 'w' WHERE id = 4")
            .unwrap();
        assert!(mark(&store, three).unwrap().deferred, "inside the block");
        store.register_stmt("COMMIT").unwrap();
        assert_eq!(store.stats().deferred_txns, 1);
        store.flush_deferred_writes().unwrap();
        assert_eq!(seen(&e), vec![2, 4]);
    }

    #[test]
    fn a_raw_reference_to_a_missing_column_fails_as_cell_does() {
        let e = chain_env();
        let store = QueryStore::new(e.clone());
        let one = store.register("SELECT id FROM link WHERE id = 1").unwrap();
        let w = mark(&store, one).unwrap();
        let err = store.flush_deferred_writes().unwrap_err();
        assert_eq!(err, SqlError::program("no cell [0].next"));
        assert!(store.result(w.id).is_err());
        assert!(seen(&e).is_empty());
    }

    #[test]
    fn flush_reasons_name_what_shipped_each_batch() {
        let e = env();
        let store = QueryStore::new(e.clone());
        let r = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        store.result(r).unwrap();
        store.register("SELECT v FROM t WHERE id = 2").unwrap();
        store
            .register_stmt("CREATE TABLE u (id INT PRIMARY KEY)")
            .unwrap();
        store.register_stmt("BEGIN").unwrap();
        store.register_stmt("BEGIN").unwrap(); // nested: a barrier again
        store
            .register_stmt("UPDATE t SET v = 'w' WHERE id = 3")
            .unwrap();
        store.flush_deferred_writes().unwrap();
        let stats = store.stats();
        assert_eq!(
            stats.flush_reasons,
            vec![
                FlushReason::Force(Demand::Return),
                FlushReason::Write,
                FlushReason::TxnBoundary,
                FlushReason::RequestEnd,
            ]
        );
        assert_eq!(stats.flush_reasons.len(), stats.batch_sizes.len());
    }

    /// Two reads, the first demanded for `why`: one flush, stamped with
    /// `why`; the second read, answered by it, ships nothing and stamps
    /// nothing whatever it is demanded for.
    fn force_stamps(why: Demand) {
        let e = env();
        let store = QueryStore::new(e.clone());
        let a = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        let b = store.register("SELECT v FROM t WHERE id = 2").unwrap();
        store.result_for(a, why).0.unwrap();
        store.result_for(b, Demand::Output).0.unwrap();
        assert_eq!(e.stats().round_trips, 1);
        assert_eq!(store.stats().batch_sizes, vec![2]);
        assert_eq!(store.stats().flush_reasons, vec![FlushReason::Force(why)]);
    }

    #[test]
    fn a_force_names_a_condition() {
        force_stamps(Demand::Condition);
    }

    #[test]
    fn a_force_names_an_eager_argument() {
        force_stamps(Demand::EagerArg);
    }

    #[test]
    fn a_force_names_the_output() {
        force_stamps(Demand::Output);
    }

    #[test]
    fn a_force_names_a_query_parameter() {
        force_stamps(Demand::QueryParam);
    }

    #[test]
    fn a_force_names_a_return() {
        force_stamps(Demand::Return);
        // `result` is `result_for(…, Return)`.
        let e = env();
        let store = QueryStore::new(e);
        let a = store.register("SELECT v FROM t WHERE id = 1").unwrap();
        store.result(a).unwrap();
        assert_eq!(
            store.stats().flush_reasons,
            vec![FlushReason::Force(Demand::Return)]
        );
    }
}
