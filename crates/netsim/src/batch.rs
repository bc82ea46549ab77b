//! Batch planning, binding and demux for the one batch executor
//! ([`crate::shard::Router::exec_batch`], over one database or N).
//!
//! A batch plan is computed once per [`crate::SimEnv::ship`] call from
//! what each [`Stmt`] already carries: same-template point lookups group
//! for **fusion**, and one representative per multi-member group is
//! parsed to decide whether the group's shape is fusable. The executor
//! runs each fused group as `IN` probes of at most [`MAX_FUSED_ARITY`]
//! values — on a fleet, split into per-shard sub-probes when the probed
//! column is the shard key.
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
//! reads that ran before a failing write.

use std::borrow::Cow;
use std::collections::HashMap;

use sloth_sql::fuse::{self, FusableLookup, FusedPlan};
use sloth_sql::{Footprint, Normalized, Param, ResultSet, SqlError, Stmt, Value};

/// Cap on the arity of one fused `IN` probe. Groups with more distinct
/// probed values split into several probes, bounding both the statement
/// size and the number of distinct `IN (?, …)` templates that can land in
/// the plan cache.
pub(crate) const MAX_FUSED_ARITY: usize = 64;

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
}

/// Plans a batch: with `fusion` on, groups same-template single-literal
/// lookups and classifies one representative per multi-member group.
/// Fusion groups may span writes whose footprints are disjoint from the
/// joining read.
///
/// Footprints are read off the statements through `footprint`
/// ([`crate::SimEnv::footprint`]: memoised, so a flush the query store
/// already analyzed is not analyzed again) and only when a
/// write shares the batch with another statement the planner may reorder
/// around it.
pub(crate) fn plan_batch<'a>(
    stmts: &'a [Stmt],
    fusion: bool,
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
    if fusion {
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
/// the demux targets of that chunk's probe, matched by SQL equality, the
/// same relation demux itself uses.
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
/// the executor's single-statement arm and the result cache's probe.
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
/// accounting. Execution is **partial on
/// error**: positions executed before the first error carry results, the
/// rest stay `None`, and `error` records the failing position.
pub(crate) struct BatchExec {
    /// Per-statement results, in batch order (`None` = not executed, or
    /// the failing statement itself).
    pub results: Vec<Option<ResultSet>>,
    /// First error and the batch position it occurred at.
    pub error: Option<(usize, SqlError)>,
    /// Database-side time of the executed work (wave model; the max over
    /// databases — they execute in parallel).
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

/// Longest-first parallel wave makespan over `workers` cores.
pub(crate) fn wave_makespan(mut read_times: Vec<u64>, workers: usize) -> u64 {
    read_times.sort_unstable_by(|a, b| b.cmp(a));
    read_times
        .chunks(workers.max(1))
        .map(|wave| wave.first().copied().unwrap_or(0))
        .sum()
}
