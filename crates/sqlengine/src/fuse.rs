//! Batch-level query fusion: shape analysis and plan construction.
//!
//! A Sloth batch produced by an ORM page load is dominated by *same-template
//! point lookups* — `SELECT … FROM t WHERE k = v1`, `… = v2`, … differing
//! only in the probed value (the classic N+1 pattern that lazy batching
//! collects into one round trip). Following SharedDB's observation that
//! structurally identical queries can share one execution, such a group can
//! be **fused** into a single statement
//!
//! ```sql
//! SELECT … FROM t WHERE k IN (v1, …, vk)
//! ```
//!
//! executed once (K index probes — see the engine's `Probe::In` planner)
//! and **demultiplexed** back into per-query result sets by the probed
//! column's value. This module provides the pure pieces; the batch driver
//! in `sloth-net` does the grouping, cost accounting, and demux.
//!
//! Fusion must be semantically invisible. A statement is fusable only when
//! demux provably reconstructs the per-query results:
//!
//! * single-table `SELECT` (no joins),
//! * projection is `*` or a column list (no aggregates — they fold rows),
//! * no `LIMIT` (a per-query limit is not a fused limit),
//! * predicate is exactly one `col = literal` equality on the base table.
//!
//! `ORDER BY` **is** allowed: sorting the fused superset with a stable sort
//! and then restricting to one query's rows yields exactly the stable sort
//! of that query's rows.

use crate::ast::{ColumnRef, Expr, Projection, SelectStmt, Statement};
use crate::error::SqlError;
use crate::value::Value;

/// A template recognized as a fusable point lookup.
#[derive(Debug, Clone)]
pub struct FusableLookup {
    /// The probed column as written in the predicate.
    pub column: ColumnRef,
    /// The template's select (the prototype for the fused plan).
    pub select: SelectStmt,
}

/// Classifies a template's parameterized statement (its
/// [`crate::Template`] entry's); `None` means "execute unfused".
pub fn classify(stmt: &Statement) -> Option<FusableLookup> {
    let Statement::Select(sel) = stmt else {
        return None;
    };
    if !sel.joins.is_empty() || sel.limit.is_some() {
        return None;
    }
    if matches!(sel.projection, Projection::Aggregate(_)) {
        return None;
    }
    // Predicate must be exactly `col = ?` (either side).
    let column = match sel.predicate.as_ref()? {
        Expr::Binary {
            op: crate::ast::BinOp::Eq,
            left,
            right,
        } => match (&**left, &**right) {
            (Expr::Column(c), Expr::Param(_)) | (Expr::Param(_), Expr::Column(c)) => c.clone(),
            _ => return None,
        },
        _ => return None,
    };
    // The qualifier (if any) must name the base table, or execution would
    // error — let that surface unfused for identical error text.
    if let Some(q) = &column.table {
        if !q.eq_ignore_ascii_case(&sel.from.alias) && !q.eq_ignore_ascii_case(&sel.from.name) {
            return None;
        }
    }
    Some(FusableLookup {
        column,
        select: sel.clone(),
    })
}

/// A fused execution plan for one template group.
#[derive(Debug, Clone)]
pub struct FusedPlan {
    /// The fused statement (`WHERE col IN (…)`, projection possibly widened
    /// by the demux column).
    pub stmt: Statement,
    /// Name of the column to demultiplex on, resolvable in the fused
    /// result set via `ResultSet::column_index`.
    pub demux_column: String,
    /// Whether the demux column was appended to the projection and must be
    /// stripped from the per-query results.
    pub strip_demux: bool,
}

/// Builds the fused statement for a group, from its first member's parsed
/// select (the prototype) and the group's distinct probed values.
pub fn build_fused(
    proto: &SelectStmt,
    column: &ColumnRef,
    values: &[Value],
) -> Result<FusedPlan, SqlError> {
    let mut sel = proto.clone();
    sel.predicate = Some(Expr::InList {
        expr: Box::new(Expr::Column(column.clone())),
        list: values.iter().map(|v| Expr::Literal(v.clone())).collect(),
    });
    // Make sure the probed column appears in the output so rows can be
    // routed back to their originating query.
    let mut strip_demux = false;
    match &mut sel.projection {
        Projection::Star => {}
        Projection::Columns(cols) => {
            if !cols
                .iter()
                .any(|c| c.column.eq_ignore_ascii_case(&column.column))
            {
                cols.push(column.clone());
                strip_demux = true;
            }
        }
        Projection::Aggregate(_) => return Err(not_fusable()),
    }
    Ok(FusedPlan {
        stmt: Statement::Select(sel),
        demux_column: column.column.clone(),
        strip_demux,
    })
}

/// What a fused-plan function answers for a statement no classifier
/// admits: an aggregate, or anything but a `SELECT`.
fn not_fusable() -> SqlError {
    SqlError::new("not a fusable lookup")
}

/// Renders a fused select back to SQL text — the statement the batch
/// driver ships in place of the group's members (and the basis of its
/// request-byte accounting).
pub fn render_select(stmt: &Statement) -> Result<String, SqlError> {
    let Statement::Select(sel) = stmt else {
        return Err(not_fusable());
    };
    let mut out = String::from("SELECT ");
    match &sel.projection {
        Projection::Star => out.push('*'),
        Projection::Columns(cols) => {
            let parts: Vec<String> = cols.iter().map(render_col).collect();
            out.push_str(&parts.join(", "));
        }
        Projection::Aggregate(_) => return Err(not_fusable()),
    }
    out.push_str(" FROM ");
    out.push_str(&sel.from.name);
    if sel.from.alias != sel.from.name {
        out.push(' ');
        out.push_str(&sel.from.alias);
    }
    if let Some(p) = &sel.predicate {
        out.push_str(" WHERE ");
        out.push_str(&render_expr(p));
    }
    if !sel.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        let keys: Vec<String> = sel
            .order_by
            .iter()
            .map(|k| {
                let mut s = render_col(&k.column);
                if k.desc {
                    s.push_str(" DESC");
                }
                s
            })
            .collect();
        out.push_str(&keys.join(", "));
    }
    Ok(out)
}

fn render_col(c: &ColumnRef) -> String {
    match &c.table {
        Some(t) => format!("{t}.{}", c.column),
        None => c.column.clone(),
    }
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => v.sql_literal(),
        Expr::Param(i) => format!("?{i}"),
        Expr::Column(c) => render_col(c),
        Expr::InList { expr, list } => {
            let items: Vec<String> = list.iter().map(render_expr).collect();
            format!("{} IN ({})", render_expr(expr), items.join(", "))
        }
        Expr::Binary { op, left, right } => {
            use crate::ast::BinOp::*;
            let sym = match op {
                Eq => "=",
                Ne => "!=",
                Lt => "<",
                Le => "<=",
                Gt => ">",
                Ge => ">=",
                And => "AND",
                Or => "OR",
                Add => "+",
                Sub => "-",
                Mul => "*",
                Div => "/",
            };
            format!("{} {} {}", render_expr(left), sym, render_expr(right))
        }
        Expr::Not(inner) => format!("NOT ({})", render_expr(inner)),
        Expr::Like { expr, pattern } => {
            format!(
                "{} LIKE '{}'",
                render_expr(expr),
                pattern.replace('\'', "''")
            )
        }
        Expr::IsNull { expr, negated } => {
            format!(
                "{} IS {}NULL",
                render_expr(expr),
                if *negated { "NOT " } else { "" }
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{normalize, parameterize, parse, Database};

    /// What fusion's shape check sees of `sql`: its template's entry.
    fn lookup(sql: &str) -> Option<FusableLookup> {
        classify(&parameterize(&parse(sql).ok()?).0)
    }

    #[test]
    fn point_lookup_is_fusable() {
        let f = lookup("SELECT * FROM issue WHERE project_id = 7 ORDER BY id").unwrap();
        assert_eq!(f.column.column, "project_id");
        // The probed value is the statement's literal, not the template's.
        assert!(
            matches!(&f.select.predicate, Some(Expr::Binary { right, .. }) if **right == Expr::Param(0))
        );
    }

    #[test]
    fn same_template_same_group() {
        let (a, b) = (
            "SELECT * FROM issue WHERE project_id = 7",
            "select * FROM issue where  project_id = 8",
        );
        assert_eq!(
            normalize(a).unwrap().template,
            normalize(b).unwrap().template
        );
        assert_eq!(lookup(a).unwrap().select, lookup(b).unwrap().select);
        assert_ne!(normalize(a).unwrap().params, normalize(b).unwrap().params);
    }

    #[test]
    fn unfusable_shapes_rejected() {
        // Joins, aggregates, limits, writes, non-point predicates, and
        // queries that already use IN all execute unfused.
        for sql in [
            "SELECT COUNT(*) FROM issue WHERE project_id = 7",
            "SELECT * FROM issue WHERE project_id = 7 LIMIT 5",
            "SELECT i.id FROM issue i JOIN project p ON i.project_id = p.id WHERE p.id = 1",
            "SELECT * FROM issue WHERE project_id = 7 AND sev = 2",
            "SELECT * FROM issue WHERE project_id > 7",
            "SELECT * FROM issue WHERE id IN (1, 2)",
            "SELECT * FROM issue",
            "UPDATE issue SET sev = 1 WHERE id = 2",
            "not even sql",
        ] {
            assert!(lookup(sql).is_none(), "{sql} must not fuse");
        }
    }

    #[test]
    fn fused_plan_widens_projection_when_needed() {
        let f = lookup("SELECT title FROM issue WHERE project_id = 7").unwrap();
        let plan = build_fused(&f.select, &f.column, &[Value::Int(7), Value::Int(8)]).unwrap();
        assert!(plan.strip_demux);
        assert_eq!(plan.demux_column, "project_id");
        assert_eq!(
            render_select(&plan.stmt).unwrap(),
            "SELECT title, project_id FROM issue WHERE project_id IN (7, 8)"
        );
    }

    #[test]
    fn fused_star_needs_no_widening() {
        let f = lookup("SELECT * FROM issue WHERE project_id = 7 ORDER BY id DESC").unwrap();
        let plan = build_fused(&f.select, &f.column, &[Value::Int(7), Value::Int(9)]).unwrap();
        assert!(!plan.strip_demux);
        assert_eq!(
            render_select(&plan.stmt).unwrap(),
            "SELECT * FROM issue WHERE project_id IN (7, 9) ORDER BY id DESC"
        );
    }

    #[test]
    fn fused_execution_matches_individual() {
        let mut db = Database::new();
        db.execute("CREATE TABLE issue (id INT PRIMARY KEY, pid INT, title TEXT)")
            .unwrap();
        db.execute("CREATE INDEX ON issue (pid)").unwrap();
        for i in 0..12 {
            db.execute(&format!(
                "INSERT INTO issue VALUES ({i}, {}, 't{i}')",
                i % 4
            ))
            .unwrap();
        }
        let f = lookup("SELECT * FROM issue WHERE pid = 1 ORDER BY id").unwrap();
        let plan = build_fused(&f.select, &f.column, &[Value::Int(1), Value::Int(3)]).unwrap();
        let (fused, _) = db.execute_read(&plan.stmt, &[], false).unwrap();
        // K probes, not a full scan: only the matching rows were examined.
        assert_eq!(fused.stats.rows_scanned, 6);
        let ci = fused.result.column_index("pid").unwrap();
        for probe in [1i64, 3] {
            let direct = db
                .execute(&format!(
                    "SELECT * FROM issue WHERE pid = {probe} ORDER BY id"
                ))
                .unwrap();
            let demuxed: Vec<_> = fused
                .result
                .rows
                .iter()
                .filter(|r| r[ci].sql_eq(&Value::Int(probe)))
                .cloned()
                .collect();
            assert_eq!(demuxed, direct.result.rows);
        }
    }
}
