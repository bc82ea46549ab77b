//! Batch planning shared by the single-server and sharded batch drivers.
//!
//! A batch plan is computed once per [`crate::SimEnv::ship`] call from
//! what each [`Stmt`] already carries: same-template point lookups group
//! for **fusion**, and one representative per multi-member group is
//! parsed to decide whether the group's shape is fusable. Both backends consume the same plan — the single server
//! executes fused groups as `IN` probes, the shard router additionally
//! splits those probes into per-shard sub-probes.
//!
//! ## Write-aware segmentation
//!
//! A batch containing writes is **not** split at every write. Instead
//! each statement's [`Footprint`] (read/write table + key sets, see
//! [`sloth_sql::footprint`]) feeds a conflict analysis:
//!
//! * a read may join a fusion group that opened *before* an intervening
//!   write only when its footprint is disjoint from every write between
//!   the group's first member and itself — the fused probe executes at
//!   the first member's position, so moving the read earlier is invisible
//!   exactly when no crossed write could have changed its rows;
//! * the batch's **conflict segments** (maximal runs of statements whose
//!   footprints commute) are counted and reported for per-segment stats
//!   attribution in the query store and the round-trip figures.
//!
//! Statements always *execute* in batch position order, so reads that do
//! conflict with a write observe it exactly as the serial program would.
//!
//! ## Partial execution
//!
//! Execution records per-position results and stops at the first error,
//! reporting its batch position — what lets a query store answer the
//! reads that ran before a failing write, and the dispatcher split a
//! failed *combined* (multi-session) dispatch back into exact per-session
//! outcomes without re-executing writes that already applied.

use std::borrow::Cow;
use std::collections::HashMap;

use sloth_sql::fuse::{self, FusableLookup, FusedPlan};
use sloth_sql::{ExecOutcome, Footprint, Normalized, Param, ResultSet, SqlError, Stmt, Value};

/// Default cap on the arity of one fused `IN` probe. Groups with more
/// distinct probed values split into several probes, bounding both the
/// statement size and the number of distinct `IN (?, …)` templates that
/// can land in the plan cache.
pub const DEFAULT_MAX_FUSED_ARITY: usize = 64;

/// Planner knobs, snapshot from the deployment per batch.
#[derive(Clone, Copy)]
pub(crate) struct BatchConfig {
    /// Fuse same-template point lookups into `IN` probes.
    pub fusion: bool,
    /// Max distinct values per fused probe (≥ 1).
    pub max_fused_arity: usize,
}

/// What a batch position contributes to execution.
#[derive(Clone)]
pub(crate) enum Role {
    /// Executes as its own statement.
    Single,
    /// First member of fused group `n`: executes the whole group.
    FusedLead(usize),
    /// Later member of a fused group: answered by its group's lead.
    FusedMember,
}

/// One fused group: the classified lookup shape plus, per member, its
/// batch position and the value it probes (its single parameter).
pub(crate) struct FusedGroup<'a> {
    pub lookup: FusableLookup,
    pub members: Vec<(usize, &'a Value)>,
}

/// The shared per-batch execution plan; borrows the probed values from
/// the batch's statements.
pub(crate) struct BatchPlan<'a> {
    /// Role of each batch position.
    pub roles: Vec<Role>,
    /// Fused groups, indexed by [`Role::FusedLead`].
    pub fused: Vec<FusedGroup<'a>>,
    /// Conflict segments in the batch (1 for a batch of commuting
    /// statements; one extra per position whose footprint conflicts with
    /// the accumulated segment before it).
    pub segments: u64,
    /// Fused members that joined a group across ≥ 1 intervening
    /// (disjoint-footprint) write — the reads the old planner would have
    /// split into another probe.
    pub cross_write_fused: u64,
    /// Max distinct values per fused probe.
    pub max_fused_arity: usize,
}

/// Plans a batch: groups same-template single-literal lookups for fusion
/// and classifies one representative per multi-member group. Fusion
/// groups may span writes whose footprints are disjoint from the joining
/// read.
///
/// Footprints are read off the statements through `footprint`
/// ([`crate::SimEnv::footprint`]: memoised, so a flush the query store or
/// the dispatcher already analyzed is not analyzed again) and only when a
/// write shares the batch with another statement the planner may reorder
/// around it.
pub(crate) fn plan_batch<'a>(
    stmts: &'a [Stmt],
    cfg: &BatchConfig,
    footprint: impl Fn(&'a Stmt) -> &'a Footprint,
) -> BatchPlan<'a> {
    let any_write = stmts.iter().any(Stmt::is_write);
    let footprints: Option<Vec<&Footprint>> =
        (any_write && stmts.len() > 1).then(|| stmts.iter().map(footprint).collect());

    /// Same-template single-literal reads, before their shape is known.
    struct Candidate<'a> {
        template: &'a str,
        members: Vec<(usize, &'a Value)>,
        /// Whether a member joined across an intervening write.
        crossed_write: bool,
    }
    let mut groups: Vec<Candidate<'a>> = Vec::new();
    if cfg.fusion {
        let mut open_groups: HashMap<&str, usize> = HashMap::new();
        let mut writes_seen: Vec<usize> = Vec::new();
        for (i, stmt) in stmts.iter().enumerate() {
            if stmt.is_write() {
                // The write stays in place; groups stay open for
                // footprint-checked joins.
                writes_seen.push(i);
                continue;
            }
            // Only single-literal statements can be point lookups;
            // anything else never joins a group.
            let Some(Normalized { template, params }) = stmt.norm() else {
                continue;
            };
            let [value] = params.as_slice() else {
                continue;
            };
            let joined = open_groups.get(template.as_str()).is_some_and(|&g| {
                let group = &mut groups[g];
                let start = group.members[0].0;
                let crossed: Vec<usize> =
                    writes_seen.iter().copied().filter(|&w| w > start).collect();
                let blocked = footprints
                    .as_ref()
                    .is_some_and(|fps| crossed.iter().any(|&w| fps[w].conflicts_with(fps[i])));
                if !blocked {
                    group.members.push((i, value));
                    group.crossed_write |= !crossed.is_empty();
                }
                !blocked
            });
            if !joined {
                open_groups.insert(template, groups.len());
                groups.push(Candidate {
                    template,
                    members: vec![(i, value)],
                    crossed_write: false,
                });
            }
        }
    }
    // Classify one representative per multi-member group; a group whose
    // representative is not a fusable shape dissolves back into
    // position-ordered singles (same-template statements share their
    // shape, so one parse decides for the whole group).
    let mut roles: Vec<Role> = vec![Role::Single; stmts.len()];
    let mut fused: Vec<FusedGroup<'a>> = Vec::new();
    let mut cross_write_fused = 0u64;
    for group in groups.into_iter().filter(|g| g.members.len() >= 2) {
        let first = group.members[0].0;
        let template = group.template.to_string();
        if let Some(lookup) = fuse::classify_with_template(stmts[first].sql(), template) {
            roles[first] = Role::FusedLead(fused.len());
            for &(m, _) in &group.members[1..] {
                roles[m] = Role::FusedMember;
            }
            if group.crossed_write {
                cross_write_fused += group.members.len() as u64;
            }
            fused.push(FusedGroup {
                lookup,
                members: group.members,
            });
        }
    }
    // A batch that needed no footprints (pure reads, or one statement)
    // is one segment.
    let segments = footprints
        .as_deref()
        .map_or(stmts.len().min(1) as u64, count_segments);
    BatchPlan {
        roles,
        fused,
        segments,
        cross_write_fused,
        max_fused_arity: cfg.max_fused_arity.max(1),
    }
}

/// Conflict segments of a (non-empty) batch: a new segment starts
/// whenever a statement conflicts with the union of the current segment.
fn count_segments(fps: &[&Footprint]) -> u64 {
    let mut segments = 1u64;
    let mut acc = fps[0].clone();
    for fp in &fps[1..] {
        if fp.conflicts_with(&acc) {
            segments += 1;
            acc = (*fp).clone();
        } else {
            acc.merge(fp);
        }
    }
    segments
}

/// The distinct probed values among `members`, in first-seen order.
pub(crate) fn fused_values<'a>(members: &[(usize, &'a Value)]) -> Vec<&'a Value> {
    let mut values: Vec<&Value> = Vec::with_capacity(members.len());
    for &(_, v) in members {
        if !values.contains(&v) {
            values.push(v);
        }
    }
    values
}

/// The members of a fused group whose probed value falls in `chunk` —
/// the demux targets of that chunk's probe. One definition shared by
/// both backends so the value-matching semantics (SQL equality, the
/// same relation demux itself uses) cannot diverge between them.
pub(crate) fn chunk_targets<'a>(
    targets: &[(usize, &'a Value)],
    chunk: &[&Value],
) -> Vec<(usize, &'a Value)> {
    targets
        .iter()
        .filter(|(_, v)| chunk.iter().any(|cv| cv.sql_eq(v)))
        .cloned()
        .collect()
}

/// Demultiplexes a fused (or sub-probe) result back into per-member
/// result sets by the probed column's value (SQL equality, same semantics
/// as the per-query filter). `targets` pairs each member's batch position
/// with its probed value; members whose value is absent from `result` get
/// an empty result set, exactly as their unfused lookup would.
pub(crate) fn demux_fused(
    result: &ResultSet,
    plan: &FusedPlan,
    targets: &[(usize, &Value)],
) -> Result<Vec<(usize, ResultSet)>, SqlError> {
    let ci = result.column_index(&plan.demux_column).ok_or_else(|| {
        SqlError::new(format!(
            "fusion demux column {} missing from result",
            plan.demux_column
        ))
    })?;
    let mut columns = result.columns.clone();
    if plan.strip_demux {
        columns.pop();
    }
    let mut out = Vec::with_capacity(targets.len());
    for &(m, value) in targets {
        let rows: Vec<sloth_sql::Row> = result
            .rows
            .iter()
            .filter(|r| r[ci].sql_eq(value))
            .map(|r| {
                let mut row = r.clone();
                if plan.strip_demux {
                    row.pop();
                }
                row
            })
            .collect();
        out.push((m, ResultSet::new(columns.clone(), rows)));
    }
    Ok(out)
}

/// What position `pos`'s reference to an earlier position resolves to.
pub(crate) enum Binding {
    /// The statement has no open parameter: it runs as written.
    Literal,
    /// The parent's row closed it.
    Bound(Stmt),
    /// The parent answered without a row: the position answers
    /// [`ResultSet::no_parent_row`] and nothing executes.
    NoParentRow,
    /// The parent has no answer here. The result cache's probe leaves
    /// such a position for the wire; on the wire, where every earlier
    /// position has run, it cannot happen.
    Unanswered,
}

/// Resolves the open parameter of `stmts[pos]` (see
/// [`sloth_sql::Param::Ref`]) against the answers so far — the one place
/// the driver binds, called where a position is about to be answered:
/// the two executors' single-statement arm and the result cache's probe.
/// A reference that does not name an earlier read of the same batch, or
/// names a column the parent's row lacks, is an error at `pos`.
pub(crate) fn bind(
    stmts: &[Stmt],
    pos: usize,
    answers: &[Option<ResultSet>],
) -> Result<Binding, SqlError> {
    let stmt = &stmts[pos];
    let Some(Param::Ref { parent, .. }) = stmt.open_param() else {
        return Ok(Binding::Literal);
    };
    let malformed = |why: &str| {
        Err(SqlError::new(format!(
            "reference to position {parent} from position {pos} {why} (in {})",
            stmt.sql()
        )))
    };
    let Some(parent) = usize::try_from(*parent).ok().filter(|p| *p < pos) else {
        return malformed("does not name an earlier position");
    };
    if stmts[parent].is_write() {
        return malformed("names a write or transaction boundary");
    }
    match &answers[parent] {
        None => Ok(Binding::Unanswered),
        Some(rs) => Ok(match stmt.bind_from(rs)? {
            Some(bound) => Binding::Bound(bound),
            None => Binding::NoParentRow,
        }),
    }
}

/// [`bind`] on the wire: every earlier position has been answered, so the
/// position either runs (`Some`: the statement to execute, and whether it
/// was dependent) or answers [`ResultSet::no_parent_row`] (`None`).
pub(crate) fn bind_to_run<'a>(
    stmts: &'a [Stmt],
    pos: usize,
    answers: &[Option<ResultSet>],
) -> Result<Option<(Cow<'a, Stmt>, bool)>, SqlError> {
    match bind(stmts, pos, answers)? {
        Binding::Literal => Ok(Some((Cow::Borrowed(&stmts[pos]), false))),
        Binding::Bound(bound) => Ok(Some((Cow::Owned(bound), true))),
        Binding::NoParentRow => Ok(None),
        Binding::Unanswered => Err(SqlError::new(format!(
            "reference to an unanswered position (in {})",
            stmts[pos].sql()
        ))),
    }
}

/// What a batch execution reports back to the driver for stats/clock
/// accounting (shared by both backends). Execution is **partial on
/// error**: positions executed before the first error carry results, the
/// rest stay `None`, and `error` records the failing position.
pub(crate) struct BatchExec {
    /// Per-statement results, in batch order (`None` = not executed, or
    /// the failing statement itself).
    pub results: Vec<Option<ResultSet>>,
    /// First error and the batch position it occurred at.
    pub error: Option<(usize, SqlError)>,
    /// Database-side time of the executed work (wave model; for the
    /// sharded backend this is the max over shards — shards execute in
    /// parallel).
    pub db_ns: u64,
    /// Bytes moved over the wire (requests + results).
    pub bytes: u64,
    /// Statements answered by fused group executions.
    pub fused_queries: u64,
    /// Fused group executions performed.
    pub fused_groups: u64,
    /// The statements dependent positions executed as, once bound — what
    /// the result cache files their answers under.
    pub bound: Vec<(usize, Stmt)>,
}

/// What the single-server batch executor needs from its execution target —
/// implemented by the live [`sloth_sql::Database`] (full read/write
/// surface, used by a batch that holds the write order) and by
/// `&Database` (the read-only surface: a published MVCC snapshot, which
/// derefs to one). One executor body serves both, so the snapshot path
/// cannot drift from the locked path in results, cost accounting, or
/// fusion behaviour.
pub(crate) trait BatchDb {
    /// Executes a pre-normalized `SELECT`.
    fn exec_normalized(&mut self, sql: &str, norm: &Normalized) -> Result<ExecOutcome, SqlError>;
    /// Executes arbitrary SQL (reads and, on the live database, writes).
    fn exec_any(&mut self, sql: &str) -> Result<ExecOutcome, SqlError>;
    /// Executes an already-built fused `SELECT … IN (…)` probe.
    fn exec_fused(&mut self, stmt: &sloth_sql::Statement) -> Result<ExecOutcome, SqlError>;
}

impl BatchDb for sloth_sql::Database {
    fn exec_normalized(&mut self, sql: &str, norm: &Normalized) -> Result<ExecOutcome, SqlError> {
        self.execute_select_normalized(sql, norm)
    }

    fn exec_any(&mut self, sql: &str) -> Result<ExecOutcome, SqlError> {
        self.execute(sql)
    }

    fn exec_fused(&mut self, stmt: &sloth_sql::Statement) -> Result<ExecOutcome, SqlError> {
        self.execute_stmt(stmt)
    }
}

impl BatchDb for &sloth_sql::Database {
    fn exec_normalized(&mut self, sql: &str, norm: &Normalized) -> Result<ExecOutcome, SqlError> {
        self.execute_select_normalized(sql, norm)
    }

    fn exec_any(&mut self, sql: &str) -> Result<ExecOutcome, SqlError> {
        self.execute_readonly(sql)
    }

    fn exec_fused(&mut self, stmt: &sloth_sql::Statement) -> Result<ExecOutcome, SqlError> {
        self.execute_read_stmt(stmt)
    }
}

/// The single-server batch executor (the original Sloth deployment): one
/// database runs every statement; fused groups execute as `IN` probes
/// (chunked at the configured max arity) and demultiplex; reads share
/// longest-first parallel waves.
///
/// `skip` carries journaled results from a previous ambiguous attempt of
/// the same batch (see the fault layer): those positions are answered
/// from the journal — charged as result bytes, never re-executed — which
/// is what makes replaying a timed-out write batch exactly-once.
pub(crate) fn exec_single<D: BatchDb>(
    db: &mut D,
    cost: &crate::CostModel,
    stmts: &[Stmt],
    plan: &BatchPlan<'_>,
    skip: Option<&[Option<ResultSet>]>,
) -> BatchExec {
    let mut results: Vec<Option<ResultSet>> = vec![None; stmts.len()];
    let mut error: Option<(usize, SqlError)> = None;
    let mut read_times: Vec<u64> = Vec::new();
    // Work that cannot share a wave: writes serialize on the server, and
    // a dependent read starts only once its parent has answered.
    let mut serial_time = 0u64;
    let mut bytes = 0u64;
    let mut fused_queries = 0u64;
    let mut fused_groups = 0u64;
    let mut bound: Vec<(usize, Stmt)> = Vec::new();
    if let Some(skip) = skip {
        for (i, s) in skip.iter().enumerate().take(stmts.len()) {
            if let Some(rs) = s {
                bytes += rs.wire_size() as u64;
                results[i] = Some(rs.clone());
            }
        }
    }
    let exec_cost = |stats: &sloth_sql::ExecStats| {
        cost.db_base_ns
            + cost.db_row_scan_ns * stats.rows_scanned
            + cost.db_row_out_ns * stats.rows_returned
    };
    // Execute in batch position order. A fused group runs where its first
    // member sat — correct for members that crossed a write because the
    // planner proved their footprints disjoint — which also preserves
    // first-error semantics: members of a template group share their
    // failure mode by construction, and everything else keeps its own
    // position.
    'batch: for (i, stmt) in stmts.iter().enumerate() {
        match plan.roles[i].clone() {
            Role::FusedMember => {} // answered by its group's lead
            Role::Single => {
                if results[i].is_some() {
                    continue; // answered from the journal
                }
                // What travelled is the statement as shipped: for a
                // dependent one, its template and the reference.
                bytes += stmt.sql().len() as u64;
                let (stmt, dependent) = match bind_to_run(stmts, i, &results) {
                    Ok(Some(run)) => run,
                    Ok(None) => {
                        results[i] = Some(ResultSet::no_parent_row());
                        continue;
                    }
                    Err(e) => {
                        error = Some((i, e));
                        break 'batch;
                    }
                };
                // A write is parsed, never lexed for a template.
                let norm = (!stmt.is_write()).then(|| stmt.norm()).flatten();
                let out = match norm {
                    Some(n) => db.exec_normalized(stmt.sql(), n),
                    None => db.exec_any(stmt.sql()),
                };
                let out = match out {
                    Ok(out) => out,
                    Err(e) => {
                        error = Some((i, e));
                        break 'batch;
                    }
                };
                let exec_ns = exec_cost(&out.stats);
                if out.stats.is_write || dependent {
                    serial_time += exec_ns;
                } else {
                    read_times.push(exec_ns);
                }
                bytes += out.result.wire_size() as u64;
                results[i] = Some(out.result);
                if dependent {
                    bound.push((i, stmt.into_owned()));
                }
            }
            Role::FusedLead(g) => {
                let FusedGroup { lookup, members } = &plan.fused[g];
                // Members already answered from the journal drop out of
                // the probe; the group executes over what's left (all of
                // it, on a fault-free run).
                let live: Vec<(usize, &Value)> = members
                    .iter()
                    .copied()
                    .filter(|&(m, _)| results[m].is_none())
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let values = fused_values(&live);
                // One probe per arity chunk: K index probes total, one
                // statement dispatch per chunk, each chunk demuxed to the
                // members probing its values.
                for chunk in values.chunks(plan.max_fused_arity) {
                    let owned: Vec<Value> = chunk.iter().map(|v| (*v).clone()).collect();
                    let fplan = fuse::build_fused(&lookup.select, &lookup.column, &owned);
                    let fused_sql = fuse::render_select(&fplan.stmt);
                    bytes += fused_sql.len() as u64;
                    let out = match db.exec_fused(&fplan.stmt) {
                        Ok(out) => out,
                        Err(e) => {
                            error = Some((i, e));
                            break 'batch;
                        }
                    };
                    read_times.push(exec_cost(&out.stats));
                    bytes += out.result.wire_size() as u64;
                    let targets = chunk_targets(&live, chunk);
                    match demux_fused(&out.result, &fplan, &targets) {
                        Ok(demuxed) => {
                            for (m, rs) in demuxed {
                                results[m] = Some(rs);
                            }
                        }
                        Err(e) => {
                            error = Some((i, e));
                            break 'batch;
                        }
                    }
                }
                fused_groups += 1;
                fused_queries += live.len() as u64;
            }
        }
    }
    let db_ns = wave_makespan(read_times, cost.db_workers) + serial_time;
    BatchExec {
        results,
        error,
        db_ns,
        bytes,
        fused_queries,
        fused_groups,
        bound,
    }
}

/// Longest-first parallel wave makespan over `workers` cores.
pub(crate) fn wave_makespan(mut read_times: Vec<u64>, workers: usize) -> u64 {
    read_times.sort_unstable_by(|a, b| b.cmp(a));
    read_times
        .chunks(workers.max(1))
        .map(|wave| wave.first().copied().unwrap_or(0))
        .sum()
}
