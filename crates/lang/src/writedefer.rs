//! Branch deferral **across writes** (§3.5 + §4.2): the static legality
//! analysis that lets `opt::defer_branches` keep a branch containing
//! write calls deferred.
//!
//! The paper's selective-laziness argument: deferring a write is invisible
//! exactly when nothing observes its effects before it executes. For a
//! *deferred branch* the write executes when the block is forced — at the
//! latest at end of request — so the branch may stay deferred only when
//! its **write footprint** (computed here, at compile time, with
//! [`sloth_sql::Footprint`] over the statically known parts of the ORM/SQL
//! templates) is disjoint from **every database access issued after the
//! branch** for the rest of the entry function. That is a superset of
//! "every read between the branch and its next force", so the transform
//! is sound no matter when the block actually forces.
//!
//! Conservative throughout:
//!
//! * write calls whose SQL is not statically traceable (no literal prefix
//!   naming the table) make the branch non-deferrable;
//! * read-query calls inside the branch make it non-deferrable (they
//!   would execute as solo round trips at force time);
//! * transaction boundaries anywhere (inside the branch or after it)
//!   block deferral — a deferred write must not slide out of its
//!   transaction;
//! * any tail statement whose database access cannot be bounded (dynamic
//!   SQL with no usable prefix, `orm_assoc` on an unknown entity, a call
//!   to a persistent user function) conflicts with everything.
//!
//! Statically derived footprints are **over-approximations** (whole-table
//! accesses when key pins are not literal), so a "disjoint" verdict here
//! implies runtime disjointness; the runtime's own footprint checks in the
//! query store still apply when the deferred block finally registers its
//! writes.

use std::collections::HashMap;

use sloth_orm::Schema;
use sloth_sql::{Footprint, TableAccess, Value};

use crate::analysis::{expr_deferrable, Analysis};
use crate::ast::*;
use crate::builtins::{builtin_kind, BuiltinKind, GUARDED_QUERY, GUARDED_READ};

/// What the analysis statically knows about a string-valued expression.
#[derive(Debug, Clone)]
enum SStr {
    /// The whole string is known.
    Full(String),
    /// A known prefix followed by dynamic parts (the ORM-page idiom
    /// `"UPDATE t SET c = " + str(v)`).
    Prefix(String),
    /// Nothing usable.
    Unknown,
}

impl SStr {
    fn concat(self, rhs: SStr) -> SStr {
        match (self, rhs) {
            (SStr::Full(a), SStr::Full(b)) => SStr::Full(a + &b),
            (SStr::Full(a), SStr::Prefix(b)) => SStr::Prefix(a + &b),
            (SStr::Full(a), SStr::Unknown) => SStr::Prefix(a),
            (SStr::Prefix(a), _) => SStr::Prefix(a),
            (SStr::Unknown, _) => SStr::Unknown,
        }
    }
}

/// Static-string environment: local variables (mostly `__t` temporaries
/// from the simplify pass) whose string value is at least partially known.
type SEnv = HashMap<String, SStr>;

fn static_str(e: &Expr, env: &SEnv) -> SStr {
    match e {
        Expr::Lit(Lit::Str(s)) => SStr::Full(s.clone()),
        Expr::Lit(Lit::Int(i)) => SStr::Full(i.to_string()),
        Expr::Var(v) => env.get(v).cloned().unwrap_or(SStr::Unknown),
        Expr::Binary(BinOp::Add, a, b) => static_str(a, env).concat(static_str(b, env)),
        // str() of anything is *some* string — dynamic, but it does not
        // poison a preceding literal prefix.
        Expr::Call(name, _) if name == "str" => SStr::Unknown,
        _ => SStr::Unknown,
    }
}

/// Records an assignment into the static-string environment.
fn record_def(name: &str, e: &Expr, env: &mut SEnv) {
    let v = static_str(e, env);
    env.insert(name.to_string(), v);
}

/// Splits a SQL fragment into bare words (identifiers / keywords).
fn words(s: &str) -> Vec<String> {
    s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .map(|w| w.to_ascii_lowercase())
        .collect()
}

fn whole_write(table: &str) -> Footprint {
    Footprint {
        reads: Vec::new(),
        writes: vec![TableAccess {
            table: table.to_string(),
            keys: Vec::new(),
        }],
        barrier: false,
    }
}

fn whole_read(tables: &[String]) -> Footprint {
    Footprint {
        reads: tables
            .iter()
            .map(|t| TableAccess {
                table: t.clone(),
                keys: Vec::new(),
            })
            .collect(),
        writes: Vec::new(),
        barrier: false,
    }
}

/// Table-level footprint of a **write** statement's literal prefix. The
/// table name precedes the first dynamic fragment in every supported
/// shape, and the engine's grammar admits no second statement, so a
/// whole-table access on the named table over-approximates whatever the
/// completed statement can touch (statements that fail to parse at
/// runtime error without touching anything).
fn prefix_write_footprint(prefix: &str) -> Option<Footprint> {
    let w = words(prefix);
    match w.first().map(String::as_str) {
        // `UPDATE <table> SET …` — require SET so the table is complete.
        Some("update") if w.len() >= 3 && w.iter().any(|x| x == "set") => Some(whole_write(&w[1])),
        // `DELETE FROM <table> WHERE …` — require WHERE (a full-literal
        // DELETE goes through `Footprint::of_sql` instead).
        Some("delete") if w.len() >= 4 && w[1] == "from" && w.iter().any(|x| x == "where") => {
            Some(whole_write(&w[2]))
        }
        // `INSERT INTO <table> … VALUES …` — require VALUES.
        Some("insert") if w.len() >= 4 && w[1] == "into" && w.iter().any(|x| x == "values") => {
            Some(whole_write(&w[2]))
        }
        _ => None,
    }
}

/// Table-level footprint of a **read** statement's literal prefix. Sound
/// for the supported grammar only when the prefix reaches `WHERE`: every
/// `FROM`/`JOIN` table reference precedes it, so the table set is closed.
fn prefix_read_footprint(prefix: &str) -> Option<Footprint> {
    let w = words(prefix);
    if w.first().map(String::as_str) != Some("select") || !w.iter().any(|x| x == "where") {
        return None;
    }
    let mut tables = Vec::new();
    for (i, word) in w.iter().enumerate() {
        if (word == "from" || word == "join") && i + 1 < w.len() {
            let t = &w[i + 1];
            if t == "where" {
                return None;
            }
            tables.push(t.clone());
        }
    }
    if tables.is_empty() {
        return None;
    }
    Some(whole_read(&tables))
}

/// Footprint of a statically (partially) known SQL string. `None` means
/// "cannot bound it".
fn sql_footprint(s: &SStr, is_write: bool) -> Option<Footprint> {
    match s {
        SStr::Full(sql) => {
            let fp = Footprint::of_sql(sql);
            (!fp.barrier).then_some(fp)
        }
        SStr::Prefix(p) => {
            if is_write {
                prefix_write_footprint(p)
            } else {
                prefix_read_footprint(p)
            }
        }
        SStr::Unknown => None,
    }
}

/// Entity-literal argument of an ORM call, if statically known.
fn entity_arg(args: &[Expr]) -> Option<&str> {
    match args.first() {
        Some(Expr::Lit(Lit::Str(s))) => Some(s),
        _ => None,
    }
}

/// Table backing an entity: via the schema when one was provided to the
/// optimizer; without a schema ORM calls are unanalyzable (entity and
/// table names need not coincide).
fn entity_table(entity: &str, schema: Option<&Schema>) -> Option<String> {
    schema
        .and_then(|s| s.entity(entity))
        .map(|def| def.table.to_ascii_lowercase())
}

/// Footprint of one builtin query call, or `None` when it cannot be
/// bounded. `env` resolves the simplify pass's string temporaries.
fn call_footprint(
    name: &str,
    args: &[Expr],
    env: &SEnv,
    schema: Option<&Schema>,
) -> Option<Footprint> {
    match name {
        "exec" => sql_footprint(&static_str(args.first()?, env), true),
        "query" => sql_footprint(&static_str(args.first()?, env), false),
        GUARDED_QUERY => sql_footprint(&static_str(args.get(1)?, env), false),
        // A guarded read's tables are named before its splice.
        GUARDED_READ => match args.get(2)? {
            Expr::Lit(Lit::Str(head)) => prefix_read_footprint(head),
            _ => None,
        },
        // Transaction boundaries are barriers: never bounded.
        "begin" | "commit" | "rollback" => None,
        "orm_save" | "orm_delete" => {
            entity_table(entity_arg(args)?, schema).map(|t| whole_write(&t))
        }
        "orm_update" => {
            let table = entity_table(entity_arg(args)?, schema)?;
            let def = schema?.entity(entity_arg(args)?)?;
            // Pin the primary key when the id is a literal and the SET
            // column is not the pk itself (a pk rewrite would widen).
            match (args.get(1), args.get(2)) {
                (Some(Expr::Lit(Lit::Int(id))), Some(Expr::Lit(Lit::Str(col))))
                    if !col.eq_ignore_ascii_case(&def.pk) =>
                {
                    Some(Footprint {
                        reads: Vec::new(),
                        writes: vec![TableAccess {
                            table,
                            keys: vec![(def.pk.to_ascii_lowercase(), vec![Value::Int(*id)])],
                        }],
                        barrier: false,
                    })
                }
                _ => Some(whole_write(&table)),
            }
        }
        "orm_find" | "orm_find_all" | "orm_find_where" | "orm_count_where" => {
            entity_table(entity_arg(args)?, schema).map(|t| whole_read(std::slice::from_ref(&t)))
        }
        // Association traversal: the owning entity is dynamic.
        "orm_assoc" => None,
        _ => None,
    }
}

/// [`call_footprint`] of a call whose string arguments are literals where
/// they lie (no temporaries resolved): guard hoisting's view of the writes
/// issued before an `if`, and of the tables a guarded read touches.
pub(crate) fn literal_call_footprint(
    name: &str,
    args: &[Expr],
    schema: Option<&Schema>,
) -> Option<Footprint> {
    call_footprint(name, args, &SEnv::new(), schema)
}

/// Context shared by the two walks.
pub(crate) struct WdCtx<'a> {
    pub analysis: &'a Analysis,
    pub schema: Option<&'a Schema>,
}

// ---------------------------------------------------------------------
// Branch side: is this branch deferrable *with* its writes, and what is
// its write footprint?
// ---------------------------------------------------------------------

/// Whether `s` (an `if`/`while`) can be deferred although it issues write
/// queries, and the union footprint of those writes if so. Returns `None`
/// when the branch has no statically bounded write story (including
/// "contains no writes at all" — the plain §4.2 path handles that).
pub(crate) fn write_branch_footprint(s: &Stmt, ctx: &WdCtx) -> Option<Footprint> {
    if !matches!(s, Stmt::If(..) | Stmt::While(..)) {
        return None;
    }
    let mut env = SEnv::new();
    let mut fp = Footprint::default();
    let mut writes = 0usize;
    if branch_stmt_ok(s, ctx, &mut env, &mut fp, &mut writes, false) && writes > 0 {
        Some(fp)
    } else {
        None
    }
}

/// Deferrability of one branch-body statement, allowing statically
/// bounded write calls. Accumulates the write footprint.
fn branch_stmt_ok(
    s: &Stmt,
    ctx: &WdCtx,
    env: &mut SEnv,
    fp: &mut Footprint,
    writes: &mut usize,
    in_loop: bool,
) -> bool {
    match s {
        Stmt::Let(name, e) => {
            let ok = branch_expr_ok(e, ctx, env, fp, writes);
            record_def(name, e, env);
            ok
        }
        Stmt::Assign(LValue::Var(name), e) => {
            let ok = branch_expr_ok(e, ctx, env, fp, writes);
            record_def(name, e, env);
            ok
        }
        // Heap writes force their target eagerly: not deferrable.
        Stmt::Assign(_, _) => false,
        Stmt::ExprStmt(e) => branch_expr_ok(e, ctx, env, fp, writes),
        // Nested control flow needs join-point discipline, exactly like
        // the tail walk: each arm sees a *copy* of the environment (its
        // own assignments are linear within the arm), and afterwards
        // anything either arm assigned is statically unknown — a write
        // whose SQL variable depends on which arm ran must not get the
        // footprint of just one path.
        Stmt::If(c, t, e) => {
            let ok = branch_expr_ok(c, ctx, env, fp, writes)
                && branch_nested(t, ctx, env, fp, writes, in_loop)
                && branch_nested(e, ctx, env, fp, writes, in_loop);
            invalidate_assigned(t, env);
            invalidate_assigned(e, env);
            ok
        }
        Stmt::While(c, b) => {
            // Loop-carried assignments vary per iteration: invalidate
            // them *before* walking the body, so `q = q + …; exec(q)`
            // inside a loop is Unknown rather than first-iteration-only.
            let mut inner = env.clone();
            invalidate_assigned(b, &mut inner);
            let ok = branch_expr_ok(c, ctx, env, fp, writes)
                && b.iter()
                    .all(|s| branch_stmt_ok(s, ctx, &mut inner, fp, writes, true));
            invalidate_assigned(b, env);
            ok
        }
        // DeferBlock bodies execute unconditionally inline: linear walk.
        Stmt::DeferBlock { body, .. } => body
            .iter()
            .all(|s| branch_stmt_ok(s, ctx, env, fp, writes, in_loop)),
        // `break`/`continue` only inside a loop being deferred whole.
        Stmt::Break | Stmt::Continue => in_loop,
        Stmt::Return(_) => false,
    }
}

/// Walks a conditionally executed nested region with its own copy of the
/// static-string environment.
fn branch_nested(
    stmts: &[Stmt],
    ctx: &WdCtx,
    env: &SEnv,
    fp: &mut Footprint,
    writes: &mut usize,
    in_loop: bool,
) -> bool {
    let mut inner = env.clone();
    stmts
        .iter()
        .all(|s| branch_stmt_ok(s, ctx, &mut inner, fp, writes, in_loop))
}

fn branch_expr_ok(
    e: &Expr,
    ctx: &WdCtx,
    env: &SEnv,
    fp: &mut Footprint,
    writes: &mut usize,
) -> bool {
    match e {
        Expr::Call(name, args) => match builtin_kind(name) {
            Some(BuiltinKind::WriteQuery) => {
                // Arguments must themselves be deferrable (they are
                // atoms after simplify), and the write must be bounded.
                if !args.iter().all(|a| expr_deferrable(a, ctx.analysis)) {
                    return false;
                }
                match call_footprint(name, args, env, ctx.schema) {
                    Some(w) => {
                        fp.merge(&w);
                        *writes += 1;
                        true
                    }
                    None => false,
                }
            }
            // A read inside a deferred branch would execute as a solo
            // round trip at force time: worse, not better. Bail.
            Some(BuiltinKind::Query) => false,
            _ => expr_deferrable(e, ctx.analysis),
        },
        Expr::Binary(_, a, b) => {
            branch_expr_ok(a, ctx, env, fp, writes) && branch_expr_ok(b, ctx, env, fp, writes)
        }
        Expr::Unary(_, a) => branch_expr_ok(a, ctx, env, fp, writes),
        other => expr_deferrable(other, ctx.analysis),
    }
}

// ---------------------------------------------------------------------
// Tail side: every database access issued after the branch.
// ---------------------------------------------------------------------

/// Union footprint of every database access in the given tail regions
/// (the statements after the branch in its own block, the bodies of
/// enclosing loops — one unrolling covers them, footprints being sets —
/// and the enclosing blocks' tails). `None` = some access could not be
/// bounded, which the caller must treat as conflicting with everything.
pub(crate) fn tail_footprint(regions: &[&[Stmt]], ctx: &WdCtx) -> Option<Footprint> {
    let mut fp = Footprint::default();
    for region in regions {
        let mut env = SEnv::new();
        for s in *region {
            if !tail_stmt(s, ctx, &mut env, &mut fp) {
                return None;
            }
        }
    }
    Some(fp)
}

/// Accumulates the database accesses of one tail statement; `false` =
/// unanalyzable.
fn tail_stmt(s: &Stmt, ctx: &WdCtx, env: &mut SEnv, fp: &mut Footprint) -> bool {
    match s {
        Stmt::Let(name, e) => {
            let ok = tail_expr(e, ctx, env, fp);
            record_def(name, e, env);
            ok
        }
        Stmt::Assign(lv, e) => {
            let lv_ok = match lv {
                LValue::Var(name) => {
                    // handled after the value walk below
                    record_def(name, e, env);
                    true
                }
                LValue::Field(b, _) => tail_expr(b, ctx, env, fp),
                LValue::Index(b, i) => tail_expr(b, ctx, env, fp) && tail_expr(i, ctx, env, fp),
            };
            lv_ok && tail_expr(e, ctx, env, fp)
        }
        Stmt::ExprStmt(e) | Stmt::Return(Some(e)) => tail_expr(e, ctx, env, fp),
        Stmt::If(c, t, els) => {
            let ok = tail_expr(c, ctx, env, fp)
                && walk_nested(t, ctx, env, fp)
                && walk_nested(els, ctx, env, fp);
            invalidate_assigned(t, env);
            invalidate_assigned(els, env);
            ok
        }
        Stmt::While(c, b) => {
            let ok = tail_expr(c, ctx, env, fp) && walk_nested(b, ctx, env, fp);
            invalidate_assigned(b, env);
            ok
        }
        Stmt::DeferBlock { body, .. } => {
            let ok = walk_nested(body, ctx, env, fp);
            invalidate_assigned(body, env);
            ok
        }
        Stmt::Break | Stmt::Continue | Stmt::Return(None) => true,
    }
}

fn walk_nested(stmts: &[Stmt], ctx: &WdCtx, env: &SEnv, fp: &mut Footprint) -> bool {
    let mut inner = env.clone();
    stmts.iter().all(|s| tail_stmt(s, ctx, &mut inner, fp))
}

/// After a conditionally executed region, anything it assigned is no
/// longer statically known in the outer environment.
fn invalidate_assigned(stmts: &[Stmt], env: &mut SEnv) {
    let mut assigned = Vec::new();
    assigned_vars(stmts, &mut assigned);
    let mut lets = Vec::new();
    collect_let_names(stmts, &mut lets);
    for v in assigned.into_iter().chain(lets) {
        env.insert(v, SStr::Unknown);
    }
}

fn collect_let_names(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            Stmt::Let(name, _) => out.push(name.clone()),
            Stmt::If(_, t, e) => {
                collect_let_names(t, out);
                collect_let_names(e, out);
            }
            Stmt::While(_, b) => collect_let_names(b, out),
            Stmt::DeferBlock { body, .. } => collect_let_names(body, out),
            _ => {}
        }
    }
}

fn tail_expr(e: &Expr, ctx: &WdCtx, env: &SEnv, fp: &mut Footprint) -> bool {
    match e {
        Expr::Call(name, args) => {
            let args_ok = args.iter().all(|a| tail_expr(a, ctx, env, fp));
            if !args_ok {
                return false;
            }
            match builtin_kind(name) {
                Some(BuiltinKind::Query) | Some(BuiltinKind::WriteQuery) => {
                    match call_footprint(name, args, env, ctx.schema) {
                        Some(f) => {
                            fp.merge(&f);
                            true
                        }
                        None => false,
                    }
                }
                Some(_) => true,
                // User functions: pure ones touch nothing; persistent
                // ones issue queries we cannot see — unanalyzable.
                // Impure non-persistent functions (output/heap only)
                // have no database footprint.
                None => !ctx.analysis.is_persistent(name),
            }
        }
        Expr::Field(b, _) => tail_expr(b, ctx, env, fp),
        Expr::Index(b, i) => tail_expr(b, ctx, env, fp) && tail_expr(i, ctx, env, fp),
        Expr::Binary(_, a, b) => tail_expr(a, ctx, env, fp) && tail_expr(b, ctx, env, fp),
        Expr::Unary(_, a) => tail_expr(a, ctx, env, fp),
        Expr::NewObject(fields) => fields.iter().all(|(_, v)| tail_expr(v, ctx, env, fp)),
        Expr::NewList(items) => items.iter().all(|v| tail_expr(v, ctx, env, fp)),
        Expr::Lit(_) | Expr::Var(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::parser::parse_program;
    use crate::simplify::simplify_program;

    fn ctx_for(p: &Program) -> (Program, Analysis) {
        let s = simplify_program(p);
        let a = analyze(&s);
        (s, a)
    }

    fn main_body(src: &str) -> (Vec<Stmt>, Analysis) {
        let p = parse_program(src).unwrap();
        let (s, a) = ctx_for(&p);
        (s.function("main").unwrap().body.clone(), a)
    }

    fn find_branch(body: &[Stmt]) -> (usize, &Stmt) {
        body.iter()
            .enumerate()
            .find(|(_, s)| matches!(s, Stmt::If(..) | Stmt::While(..)))
            .expect("branch in body")
    }

    #[test]
    fn literal_prefix_write_extracts_table() {
        let (body, a) = main_body(
            r#"fn main(x) { if (x > 0) { exec("UPDATE audit SET n = " + str(x) + " WHERE id = 1"); } }"#,
        );
        let ctx = WdCtx {
            analysis: &a,
            schema: None,
        };
        let (_, s) = find_branch(&body);
        let fp = write_branch_footprint(s, &ctx).expect("bounded write branch");
        assert_eq!(fp.writes.len(), 1);
        assert_eq!(fp.writes[0].table, "audit");
    }

    #[test]
    fn fully_literal_write_gets_precise_pins() {
        let (body, a) =
            main_body(r#"fn main(x) { if (x) { exec("UPDATE audit SET n = 1 WHERE id = 7"); } }"#);
        let ctx = WdCtx {
            analysis: &a,
            schema: None,
        };
        let (_, s) = find_branch(&body);
        let fp = write_branch_footprint(s, &ctx).unwrap();
        assert_eq!(
            fp.writes[0].keys,
            vec![("id".to_string(), vec![Value::Int(7)])]
        );
    }

    #[test]
    fn unbounded_write_and_txn_boundaries_bail() {
        for src in [
            // Fully dynamic SQL: no table.
            r#"fn main(q) { if (1) { exec(q); } }"#,
            // Transaction boundary inside the branch.
            r#"fn main(x) { if (x) { commit(); } }"#,
            // Read query inside the branch.
            r#"fn main(x) { if (x) { let r = query("SELECT * FROM t WHERE id = 1"); } }"#,
        ] {
            let (body, a) = main_body(src);
            let ctx = WdCtx {
                analysis: &a,
                schema: None,
            };
            let (_, s) = find_branch(&body);
            assert!(write_branch_footprint(s, &ctx).is_none(), "{src}");
        }
    }

    #[test]
    fn tail_reads_resolve_through_prefixes() {
        let (body, a) = main_body(
            r#"fn main(x) {
                if (x) { exec("UPDATE audit SET n = 1 WHERE id = 1"); }
                let p = query("SELECT name FROM project WHERE id = " + str(x));
                print(p);
            }"#,
        );
        let ctx = WdCtx {
            analysis: &a,
            schema: None,
        };
        let (i, s) = find_branch(&body);
        let wfp = write_branch_footprint(s, &ctx).unwrap();
        let tail = tail_footprint(&[&body[i + 1..]], &ctx).expect("tail bounded");
        assert!(!wfp.conflicts_with(&tail), "audit vs project: disjoint");
    }

    #[test]
    fn conflicting_or_unbounded_tail_blocks_deferral() {
        // Tail reads the written table.
        let (body, a) = main_body(
            r#"fn main(x) {
                if (x) { exec("UPDATE project SET status = 1 WHERE id = 1"); }
                let p = query("SELECT name FROM project WHERE id = " + str(x));
            }"#,
        );
        let ctx = WdCtx {
            analysis: &a,
            schema: None,
        };
        let (i, s) = find_branch(&body);
        let wfp = write_branch_footprint(s, &ctx).unwrap();
        let tail = tail_footprint(&[&body[i + 1..]], &ctx).unwrap();
        assert!(wfp.conflicts_with(&tail));

        // Tail commit: barrier conflicts with everything.
        let (body, a) = main_body(
            r#"fn main(x) {
                if (x) { exec("UPDATE audit SET n = 1 WHERE id = 1"); }
                commit();
            }"#,
        );
        let ctx = WdCtx {
            analysis: &a,
            schema: None,
        };
        let (i, _) = find_branch(&body);
        assert!(
            tail_footprint(&[&body[i + 1..]], &ctx).is_none(),
            "commit in tail is unanalyzable"
        );
    }
}
