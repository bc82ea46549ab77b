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
//! The tail's footprint is the effect summary's (`analysis.rs`), whose
//! walker also resolves string temporaries through the [`SStr`]
//! environment and the footprint of one call ([`call_footprint`]) defined
//! here; a literal prefix bounds a statement only when it reaches its
//! clause past every table it names ([`lead_words`]).
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
use crate::builtins::{builtin_kind, BuiltinKind};

/// What the analysis statically knows about a string-valued expression.
#[derive(Debug, Clone)]
pub(crate) enum SStr {
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
pub(crate) type SEnv = HashMap<String, SStr>;

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
pub(crate) fn record_def(name: &str, e: &Expr, env: &mut SEnv) {
    match static_str(e, env) {
        SStr::Unknown => {
            env.remove(name);
        }
        known => {
            env.insert(name.to_string(), known);
        }
    }
}

/// The words of `lead`, the literal start of a statement's text, ahead of
/// the first of `clauses`, lowercased — `None` when it reaches none. The
/// grammar names every table of a statement ahead of its `SET`, `VALUES`
/// or `WHERE`, so a lead that reaches the clause names them whole.
/// Comments (`--`, `/* */`, which `sloth_sql`'s lexer skips) and quoted
/// text hold no words, and `lead` may end inside either.
pub(crate) fn lead_words(lead: &str, clauses: &[&str]) -> Option<Vec<String>> {
    let b = lead.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    // Just past the first `end` at or after `from`, or the end of `lead`.
    let past = |from: usize, end: &[u8]| {
        b[from..]
            .windows(end.len())
            .position(|w| w == end)
            .map_or(b.len(), |k| from + k + end.len())
    };
    let mut words = Vec::new();
    let mut i = 0;
    while i < b.len() {
        i = match &b[i..] {
            [b'-', b'-', ..] => past(i + 2, b"\n"),
            [b'/', b'*', ..] => past(i + 2, b"*/"),
            [b'\'', ..] => past(i + 1, b"'"),
            [c, rest @ ..] if word(*c) => {
                let end = rest
                    .iter()
                    .position(|&c| !word(c))
                    .map_or(b.len(), |k| i + 1 + k);
                let w = lead[i..end].to_ascii_lowercase();
                if clauses.contains(&w.as_str()) {
                    return Some(words);
                }
                words.push(w);
                end
            }
            _ => i + 1,
        };
    }
    None
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
    let w = lead_words(prefix, &["set", "where", "values"])?;
    match w.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["update", table, ..] | ["delete", "from", table, ..] | ["insert", "into", table, ..] => {
            Some(whole_write(table))
        }
        _ => None,
    }
}

/// Table-level footprint of a **read** statement's literal prefix: it
/// must reach `WHERE`, past every `FROM` / `JOIN` table.
fn prefix_read_footprint(prefix: &str) -> Option<Footprint> {
    let w = lead_words(prefix, &["where"])?;
    if w.first().map(String::as_str) != Some("select") {
        return None;
    }
    let mut tables = Vec::new();
    for (i, word) in w.iter().enumerate() {
        if word == "from" || word == "join" {
            tables.push(w.get(i + 1)?.clone());
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
pub(crate) fn call_footprint(
    name: &str,
    args: &[Expr],
    env: &SEnv,
    schema: Option<&Schema>,
) -> Option<Footprint> {
    match name {
        "exec" => sql_footprint(&static_str(args.first()?, env), true),
        "query" => sql_footprint(&static_str(args.first()?, env), false),
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

/// What the branch side and the tail read.
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
/// and the enclosing blocks' tails), each walked by the effect summary
/// from a point where no string is known. `None` = some access could not
/// be bounded (a call to a persistent user function among them), which
/// the caller must treat as conflicting with everything.
pub(crate) fn tail_footprint(regions: &[&[Stmt]], ctx: &WdCtx) -> Option<Footprint> {
    let mut fp = Footprint::default();
    for region in regions {
        let fx = ctx.analysis.effects(region, ctx.schema);
        fp.merge(&fx.reads);
        fp.merge(&fx.writes);
    }
    (!fp.barrier).then_some(fp)
}

/// After a conditionally executed region, anything it assigned is no
/// longer statically known in the outer environment.
pub(crate) fn invalidate_assigned(stmts: &[Stmt], env: &mut SEnv) {
    if env.is_empty() {
        return;
    }
    let mut names = Vec::new();
    assigned_vars(stmts, &mut names);
    let_names(stmts, &mut names);
    for v in names {
        env.remove(&v);
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
        let a = analyze(&s, None);
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
