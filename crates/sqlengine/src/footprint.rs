//! Statement **footprints**: the read/write table (and key) sets the
//! write-aware batch planner reasons about.
//!
//! Sloth's promise is that *all* deferred statements — reads and writes —
//! travel in as few round trips as possible. To let a flush that contains
//! writes still ship (and fuse) as one round trip, the driver needs to
//! know which statements can possibly observe or disturb each other. A
//! [`Footprint`] answers that conservatively:
//!
//! * every statement reports the tables it **reads** and the tables it
//!   **writes**;
//! * accesses that are provably pinned to specific rows carry **key-level**
//!   detail: the set of equality-constrained `(column, values)` pairs
//!   extracted from top-level `AND` conjuncts (`col = v`, `col IN (…)`)
//!   — for writes additionally accounting for `SET col = v` post-images;
//! * transaction boundaries, DDL and unparseable SQL are **barriers** that
//!   conflict with everything.
//!
//! Two accesses of the same table are *disjoint* only when some column is
//! equality-pinned in both and the pinned value sets do not intersect —
//! then the two statements touch disjoint rows and commute. Everything
//! else conflicts. The analysis is sound by construction: an `UPDATE` that
//! assigns a pinned column widens (or drops) that column's pin so the
//! post-image rows are covered, `OR`/`NOT` predicates pin nothing, and a
//! column pinned in only one of the two accesses proves nothing.
//!
//! Used by `sloth-core`'s query store (a write defers, and a read joins a
//! batch with deferred writes aboard, only when disjoint from them),
//! `sloth-net`'s batch planner (fusion groups may cross a write only when
//! their members' footprints are disjoint from every intervening write)
//! and its result cache (a shipped write kills the cached reads it
//! overlaps).

use crate::ast::{BinOp, Expr, Statement, TableRef};
use crate::error::SqlError;
use crate::value::Value;

/// Accumulates the **transaction-union footprint** of an open
/// `BEGIN … COMMIT` block: the interior statements' read/write sets
/// union into one footprint, so the whole block can be treated as a
/// single deferral unit instead of a pair of barriers. Any barrier
/// statement inside (DDL, a nested `BEGIN`, unparseable SQL) *poisons*
/// the accumulator — the block degrades back to the conflict-with-
/// everything semantics transactions had before transaction-scoped
/// laziness.
#[derive(Debug, Clone, Default)]
pub struct TxnFootprint {
    union: Footprint,
    poisoned: bool,
    stmts: usize,
}

impl TxnFootprint {
    /// Fresh accumulator for a newly opened transaction.
    pub fn new() -> TxnFootprint {
        TxnFootprint::default()
    }

    /// Folds one interior statement's footprint into the union. A
    /// barrier footprint poisons the transaction.
    pub fn absorb(&mut self, fp: &Footprint) {
        if fp.barrier {
            self.poisoned = true;
        }
        self.union.merge(fp);
        self.stmts += 1;
    }

    /// Whether an interior barrier degraded the transaction: a poisoned
    /// block must not defer (its union is a barrier).
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of interior statements absorbed so far.
    pub fn len(&self) -> usize {
        self.stmts
    }

    /// Whether nothing has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.stmts == 0
    }

    /// The union footprint of everything absorbed so far (a barrier once
    /// poisoned).
    pub fn union(&self) -> &Footprint {
        &self.union
    }
}

/// One table touched by a statement, with optional key-level pinning.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAccess {
    /// Table name, lowercased.
    pub table: String,
    /// Equality-pinned columns: `(column, values)` — the access only
    /// touches rows whose `column` equals one of `values`. Empty means the
    /// whole table must be assumed.
    pub keys: Vec<(String, Vec<Value>)>,
}

impl TableAccess {
    fn whole(table: &str) -> TableAccess {
        TableAccess {
            table: table.to_ascii_lowercase(),
            keys: Vec::new(),
        }
    }

    /// Whether two accesses of possibly different tables can touch a
    /// common row. Same table, and no column is equality-pinned to
    /// disjoint value sets on both sides.
    pub fn overlaps(&self, other: &TableAccess) -> bool {
        if self.table != other.table {
            return false;
        }
        // A column pinned on both sides with provably disjoint value sets
        // separates the row sets.
        for (ca, va) in &self.keys {
            for (cb, vb) in &other.keys {
                if ca == cb && !values_intersect(va, vb) {
                    return false;
                }
            }
        }
        true
    }
}

fn values_intersect(a: &[Value], b: &[Value]) -> bool {
    a.iter().any(|x| b.iter().any(|y| x.sql_eq(y)))
}

/// The read/write table footprint of one statement (or a whole batch).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Footprint {
    /// Tables (possibly key-pinned) the statement reads.
    pub reads: Vec<TableAccess>,
    /// Tables (possibly key-pinned) the statement writes.
    pub writes: Vec<TableAccess>,
    /// Conflicts with everything: transaction boundaries, DDL, SQL the
    /// parser cannot analyze.
    pub barrier: bool,
}

impl Footprint {
    /// The footprint that conflicts with everything.
    pub fn barrier() -> Footprint {
        Footprint {
            barrier: true,
            ..Footprint::default()
        }
    }

    /// This footprint with every key pin dropped: whole tables. What a
    /// dependent statement touches while its parameter is still open —
    /// any row of the tables its bound form will name.
    pub fn table_level(mut self) -> Footprint {
        for access in self.reads.iter_mut().chain(self.writes.iter_mut()) {
            access.keys.clear();
        }
        self
    }

    /// Whether this statement can mutate state (or is a barrier).
    pub fn has_writes(&self) -> bool {
        self.barrier || !self.writes.is_empty()
    }

    /// Extracts the footprint of one SQL string. Unparseable statements
    /// are barriers (never analyzed, always conservative).
    pub fn of_sql(sql: &str) -> Footprint {
        match crate::parser::parse(sql) {
            Ok(stmt) => Footprint::of_stmt(&stmt),
            Err(_) => Footprint::barrier(),
        }
    }

    /// Extracts the footprint of a parsed statement.
    pub fn of_stmt(stmt: &Statement) -> Footprint {
        Footprint::of_stmt_with(stmt, &[])
    }

    /// Extracts the footprint of a (possibly parameterized) statement with
    /// `params` bound to its `?` slots — how the template cache answers a
    /// footprint: one parameterized parse serves every
    /// statement of the template, with each statement's own literals
    /// substituted into the key pins. An unresolvable slot (out-of-range
    /// parameter) conservatively pins nothing.
    pub fn of_stmt_with(stmt: &Statement, params: &[Value]) -> Footprint {
        match stmt {
            Statement::Select(sel) => {
                let mut reads = vec![TableAccess {
                    table: sel.from.name.to_ascii_lowercase(),
                    keys: eq_pins(sel.predicate.as_ref(), Some(&sel.from), params),
                }];
                for join in &sel.joins {
                    reads.push(TableAccess::whole(&join.table.name));
                }
                Footprint {
                    reads,
                    writes: Vec::new(),
                    barrier: false,
                }
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                // Post-image pins: a column constrains the inserted rows
                // only when the statement names its columns and every
                // tuple supplies a literal (or bound parameter) for it.
                let mut keys: Vec<(String, Vec<Value>)> = Vec::new();
                for (ci, col) in columns.iter().enumerate() {
                    let mut vals = Vec::with_capacity(values.len());
                    for tuple in values {
                        match tuple.get(ci).and_then(|e| pin_value(e, params)) {
                            Some(v) => vals.push(v.clone()),
                            None => {
                                vals.clear();
                                break;
                            }
                        }
                    }
                    if !vals.is_empty() {
                        keys.push((col.to_ascii_lowercase(), vals));
                    }
                }
                Footprint {
                    reads: Vec::new(),
                    writes: vec![TableAccess {
                        table: table.to_ascii_lowercase(),
                        keys,
                    }],
                    barrier: false,
                }
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                // Pre-image pins come from the predicate; a SET on a
                // pinned column moves rows, so the assigned literal joins
                // the pin (post-image) — and a non-literal assignment
                // makes the column unboundable.
                let mut keys = eq_pins(predicate.as_ref(), None, params);
                for (col, expr) in sets {
                    let col = col.to_ascii_lowercase();
                    match pin_value(expr, params) {
                        Some(v) => {
                            for (kc, kv) in &mut keys {
                                if *kc == col && !kv.iter().any(|x| x.sql_eq(v)) {
                                    kv.push(v.clone());
                                }
                            }
                        }
                        None => keys.retain(|(kc, _)| *kc != col),
                    }
                }
                Footprint {
                    reads: Vec::new(),
                    writes: vec![TableAccess {
                        table: table.to_ascii_lowercase(),
                        keys,
                    }],
                    barrier: false,
                }
            }
            Statement::Delete { table, predicate } => Footprint {
                reads: Vec::new(),
                writes: vec![TableAccess {
                    table: table.to_ascii_lowercase(),
                    keys: eq_pins(predicate.as_ref(), None, params),
                }],
                barrier: false,
            },
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::CreateTable { .. }
            | Statement::CreateIndex { .. } => Footprint::barrier(),
        }
    }

    /// Union footprint of a whole batch.
    pub fn of_batch<S: AsRef<str>>(sqls: &[S]) -> Footprint {
        let mut fp = Footprint::default();
        for sql in sqls {
            fp.merge(&Footprint::of_sql(sql.as_ref()));
        }
        fp
    }

    /// Accumulates `other` into this footprint. Overlap checks distribute
    /// over the union, so merging preserves conflict answers.
    pub fn merge(&mut self, other: &Footprint) {
        self.barrier |= other.barrier;
        self.reads.extend(other.reads.iter().cloned());
        self.writes.extend(other.writes.iter().cloned());
    }

    /// Whether the two footprints fail to commute: some write on one side
    /// can touch rows the other side reads or writes (or either is a
    /// barrier). Symmetric.
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        if self.barrier || other.barrier {
            return true;
        }
        let hits = |ws: &[TableAccess], rs: &[TableAccess]| {
            ws.iter().any(|w| rs.iter().any(|a| w.overlaps(a)))
        };
        hits(&self.writes, &other.writes)
            || hits(&self.writes, &other.reads)
            || hits(&other.writes, &self.reads)
    }

    /// Whether any of this statement's **write** accesses can touch rows
    /// covered by `reads` (or this statement is a barrier, which touches
    /// everything). This is the result-cache invalidation predicate: a
    /// cached read whose access list a shipped write overlaps is stale.
    /// Unlike [`Footprint::conflicts_with`] it tests one direction only —
    /// a cached entry holds a read's accesses, never writes of its own.
    pub fn writes_overlap(&self, reads: &[TableAccess]) -> bool {
        if self.barrier {
            return true;
        }
        self.writes
            .iter()
            .any(|w| reads.iter().any(|r| w.overlaps(r)))
    }
}

/// A pin-able value: a literal, or a `?` slot resolved against the bound
/// parameters (the footprint-cache path). Anything else pins nothing.
fn pin_value<'a>(e: &'a Expr, params: &'a [Value]) -> Option<&'a Value> {
    match e {
        Expr::Literal(v) => Some(v),
        Expr::Param(i) => params.get(*i),
        _ => None,
    }
}

/// Collects equality pins from the top-level `AND` conjuncts of a
/// predicate: `col = literal` and `col IN (literals)`. Anything under
/// `OR`/`NOT` pins nothing (it does not restrict the row set). For
/// selects, a qualified column must name the base table to count.
fn eq_pins(
    pred: Option<&Expr>,
    base: Option<&TableRef>,
    params: &[Value],
) -> Vec<(String, Vec<Value>)> {
    let mut pins = Vec::new();
    if let Some(p) = pred {
        collect_pins(p, base, params, &mut pins);
    }
    pins
}

fn qualifier_ok(col: &crate::ast::ColumnRef, base: Option<&TableRef>) -> bool {
    match (&col.table, base) {
        (None, _) => true,
        (Some(q), Some(t)) => q.eq_ignore_ascii_case(&t.alias) || q.eq_ignore_ascii_case(&t.name),
        (Some(_), None) => false,
    }
}

fn collect_pins(
    e: &Expr,
    base: Option<&TableRef>,
    params: &[Value],
    pins: &mut Vec<(String, Vec<Value>)>,
) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            collect_pins(left, base, params, pins);
            collect_pins(right, base, params, pins);
        }
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => {
            let (c, v) = match (&**left, &**right) {
                (Expr::Column(c), other) | (other, Expr::Column(c)) => {
                    match pin_value(other, params) {
                        Some(v) => (c, v),
                        None => return,
                    }
                }
                _ => return,
            };
            if qualifier_ok(c, base) {
                pins.push((c.column.to_ascii_lowercase(), vec![v.clone()]));
            }
        }
        Expr::InList { expr, list } => {
            let Expr::Column(c) = &**expr else { return };
            if !qualifier_ok(c, base) {
                return;
            }
            let vals: Option<Vec<Value>> = list
                .iter()
                .map(|item| pin_value(item, params).cloned())
                .collect();
            if let Some(vals) = vals {
                pins.push((c.column.to_ascii_lowercase(), vals));
            }
        }
        _ => {}
    }
}

/// A convenience for drivers: `Err` carries no footprint, so map parse
/// failures to barriers via [`Footprint::of_sql`] instead.
pub fn footprint_of(sql: &str) -> Result<Footprint, SqlError> {
    crate::parser::parse(sql).map(|s| Footprint::of_stmt(&s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(sql: &str) -> Footprint {
        Footprint::of_sql(sql)
    }

    #[test]
    fn select_reads_base_and_join_tables() {
        let f = fp("SELECT i.id FROM issue i JOIN project p ON i.pid = p.id WHERE i.pid = 3");
        assert!(f.reads.iter().any(|a| a.table == "issue"));
        assert!(f.reads.iter().any(|a| a.table == "project"));
        assert!(f.writes.is_empty());
        assert!(!f.has_writes());
    }

    #[test]
    fn point_reads_pin_keys() {
        let f = fp("SELECT * FROM issue WHERE project_id = 2 AND sev = 0");
        assert_eq!(
            f.reads[0].keys,
            vec![
                ("project_id".to_string(), vec![Value::Int(2)]),
                ("sev".to_string(), vec![Value::Int(0)]),
            ]
        );
        let g = fp("SELECT * FROM issue WHERE project_id IN (1, 2)");
        assert_eq!(
            g.reads[0].keys,
            vec![("project_id".to_string(), vec![Value::Int(1), Value::Int(2)])]
        );
        // OR / inequality pins nothing.
        assert!(
            fp("SELECT * FROM issue WHERE project_id = 1 OR sev = 2").reads[0]
                .keys
                .is_empty()
        );
        assert!(fp("SELECT * FROM issue WHERE sev > 2").reads[0]
            .keys
            .is_empty());
    }

    #[test]
    fn disjoint_point_accesses_do_not_conflict() {
        let w = fp("UPDATE issue SET sev = 9 WHERE project_id = 1");
        let r_far = fp("SELECT * FROM issue WHERE project_id = 2");
        let r_near = fp("SELECT * FROM issue WHERE project_id = 1");
        let r_other_col = fp("SELECT * FROM issue WHERE id = 5");
        let r_other_table = fp("SELECT * FROM project WHERE id = 1");
        assert!(!w.conflicts_with(&r_far), "disjoint keys commute");
        assert!(w.conflicts_with(&r_near));
        assert!(w.conflicts_with(&r_other_col), "no shared pinned column");
        assert!(!w.conflicts_with(&r_other_table));
        // Reads never conflict with reads.
        assert!(!r_near.conflicts_with(&r_other_col));
    }

    #[test]
    fn set_of_pinned_column_widens_the_pin() {
        // The update moves rows from project_id = 1 to project_id = 2: it
        // must conflict with reads of either value, but not a third.
        let w = fp("UPDATE issue SET project_id = 2 WHERE project_id = 1");
        assert!(w.conflicts_with(&fp("SELECT * FROM issue WHERE project_id = 1")));
        assert!(w.conflicts_with(&fp("SELECT * FROM issue WHERE project_id = 2")));
        assert!(!w.conflicts_with(&fp("SELECT * FROM issue WHERE project_id = 3")));
        // A non-literal assignment makes the column unboundable.
        let w2 = fp("UPDATE issue SET project_id = project_id + 1 WHERE project_id = 1");
        assert!(w2.conflicts_with(&fp("SELECT * FROM issue WHERE project_id = 7")));
    }

    #[test]
    fn insert_pins_named_literal_columns() {
        let w = fp("INSERT INTO issue (id, project_id, title) VALUES (90, 4, 'x'), (91, 4, 'y')");
        assert!(!w.conflicts_with(&fp("SELECT * FROM issue WHERE project_id = 2")));
        assert!(w.conflicts_with(&fp("SELECT * FROM issue WHERE project_id = 4")));
        assert!(!w.conflicts_with(&fp("SELECT * FROM issue WHERE id = 1")));
        // Positional inserts pin nothing.
        let p = fp("INSERT INTO issue VALUES (90, 4, 'x', 1)");
        assert!(p.conflicts_with(&fp("SELECT * FROM issue WHERE project_id = 2")));
    }

    #[test]
    fn deletes_and_writes_conflict_unless_disjoint() {
        let d = fp("DELETE FROM issue WHERE project_id = 3");
        let w = fp("UPDATE issue SET sev = 1 WHERE project_id = 3");
        let w2 = fp("UPDATE issue SET sev = 1 WHERE project_id = 4");
        assert!(d.conflicts_with(&w));
        assert!(!d.conflicts_with(&w2));
    }

    #[test]
    fn barriers_conflict_with_everything() {
        for sql in [
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
            "CREATE TABLE t (id INT PRIMARY KEY)",
            "CREATE INDEX ON t (id)",
            "not even sql",
        ] {
            let f = fp(sql);
            assert!(f.barrier, "{sql}");
            assert!(f.has_writes(), "{sql}");
            assert!(
                f.conflicts_with(&fp("SELECT * FROM other WHERE id = 1")),
                "{sql}"
            );
        }
    }

    #[test]
    fn batch_union_preserves_conflicts() {
        let batch = Footprint::of_batch(&[
            "SELECT * FROM issue WHERE project_id = 1",
            "UPDATE issue SET sev = 2 WHERE project_id = 1",
        ]);
        assert!(batch.has_writes());
        assert!(!batch.barrier);
        assert!(batch.conflicts_with(&fp("SELECT * FROM issue WHERE project_id = 1")));
        assert!(!batch.conflicts_with(&fp("SELECT * FROM issue WHERE project_id = 2")));
        assert!(!batch.conflicts_with(&fp("SELECT * FROM project WHERE id = 1")));
    }

    #[test]
    fn contradictory_pins_are_disjoint_from_all_values() {
        // `id = 1 AND id = 2` selects nothing; both pins survive, so it is
        // provably disjoint from any single-value probe of either column.
        let f = fp("SELECT * FROM t WHERE id = 1 AND id = 2");
        assert!(!f.reads[0].overlaps(&fp("SELECT * FROM t WHERE id = 1").reads[0]));
    }

    // Edge cases the result cache's invalidation precision depends on:
    // `writes_overlap` is the exact predicate deciding whether a shipped
    // write kills a cached read, so each boundary gets its own witness.

    #[test]
    fn writes_overlap_is_table_level_without_pins() {
        // An unpinned write (full-table scan update) must kill every
        // cached read of that table, pinned or not …
        let w = fp("UPDATE issue SET sev = 1");
        assert!(w.writes_overlap(&fp("SELECT * FROM issue WHERE id = 3").reads));
        assert!(w.writes_overlap(&fp("SELECT COUNT(*) FROM issue").reads));
        // … and none of another table.
        assert!(!w.writes_overlap(&fp("SELECT * FROM project WHERE id = 1").reads));
    }

    #[test]
    fn writes_overlap_is_key_precise_with_pins() {
        let w = fp("DELETE FROM issue WHERE id = 7");
        assert!(w.writes_overlap(&fp("SELECT * FROM issue WHERE id = 7").reads));
        assert!(
            !w.writes_overlap(&fp("SELECT * FROM issue WHERE id = 8").reads),
            "disjoint pins on the same column spare the entry"
        );
        // A read pinned on a *different* column shares no separating pin,
        // so the write must conservatively kill it.
        assert!(w.writes_overlap(&fp("SELECT * FROM issue WHERE project_id = 2").reads));
    }

    #[test]
    fn writes_overlap_sees_update_post_image() {
        // Moving rows from project_id 1 to 2 must kill cached reads of
        // both the pre- and post-image value, but not an unrelated one.
        let w = fp("UPDATE issue SET project_id = 2 WHERE project_id = 1");
        assert!(w.writes_overlap(&fp("SELECT * FROM issue WHERE project_id = 1").reads));
        assert!(w.writes_overlap(&fp("SELECT * FROM issue WHERE project_id = 2").reads));
        assert!(!w.writes_overlap(&fp("SELECT * FROM issue WHERE project_id = 3").reads));
        // A non-literal SET drops the pin: every value is fair game again.
        let w2 = fp("UPDATE issue SET project_id = project_id + 1 WHERE project_id = 1");
        assert!(w2.writes_overlap(&fp("SELECT * FROM issue WHERE project_id = 9").reads));
    }

    #[test]
    fn writes_overlap_respects_in_list_pins() {
        let w = fp("DELETE FROM issue WHERE id IN (4, 5, 6)");
        assert!(w.writes_overlap(&fp("SELECT * FROM issue WHERE id = 5").reads));
        assert!(!w.writes_overlap(&fp("SELECT * FROM issue WHERE id = 9").reads));
        let r = fp("SELECT * FROM issue WHERE id IN (1, 6)");
        assert!(w.writes_overlap(&r.reads), "one shared member suffices");
    }

    // Transaction-union footprints: the deferral unit of a silent
    // `BEGIN … COMMIT` block.

    #[test]
    fn txn_footprint_unions_and_poisons() {
        let mut txn = TxnFootprint::new();
        assert!(txn.is_empty());
        txn.absorb(&fp("UPDATE issue SET sev = 1 WHERE id = 1"));
        txn.absorb(&fp("SELECT * FROM project WHERE id = 2"));
        assert_eq!(txn.len(), 2);
        assert!(!txn.poisoned());
        // The union carries both statements' accesses.
        assert!(txn
            .union()
            .conflicts_with(&fp("SELECT * FROM issue WHERE id = 1")));
        assert!(txn
            .union()
            .conflicts_with(&fp("UPDATE project SET name = 'x' WHERE id = 2")));
        assert!(!txn
            .union()
            .conflicts_with(&fp("SELECT * FROM issue WHERE id = 9")));
        // A barrier statement inside poisons the block.
        txn.absorb(&fp("CREATE INDEX ON issue (sev)"));
        assert!(txn.poisoned());
        assert!(txn.union().barrier);
        assert!(txn
            .union()
            .conflicts_with(&fp("SELECT * FROM other WHERE id = 1")));
    }

    #[test]
    fn writes_overlap_barrier_and_read_only_extremes() {
        // A barrier overlaps everything — even an empty access list.
        assert!(fp("COMMIT").writes_overlap(&[]));
        assert!(fp("COMMIT").writes_overlap(&fp("SELECT * FROM t WHERE id = 1").reads));
        // A pure read overlaps nothing: it has no writes to invalidate by.
        let r = fp("SELECT * FROM issue WHERE id = 1");
        assert!(!r.writes_overlap(&fp("SELECT * FROM issue WHERE id = 1").reads));
    }
}
