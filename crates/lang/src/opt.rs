//! The optimizer (§4): branch deferral and thunk coalescing, implemented as
//! AST transforms that wrap deferrable regions in [`Stmt::DeferBlock`],
//! after guard hoisting has moved `if` arms' ORM reads above their `if`.
//! Selective compilation (§4.1) and the buffered thunk writer (§5) are
//! runtime flags consumed by the lazy interpreter.

use std::collections::HashMap;

use sloth_orm::Schema;

use crate::analysis::{stmt_deferrable, Analysis};
use crate::ast::*;
use crate::builtins::ROW_GUARD;
use crate::hoist::GuardHoist;

/// Optimization switches (Fig. 12 turns these on cumulatively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// §4.1 selective compilation: non-persistent functions run under
    /// standard semantics.
    pub selective: bool,
    /// §4.3 thunk coalescing: merge consecutive deferrable statements.
    pub coalesce: bool,
    /// §4.2 branch deferral: defer whole `if`/loop statements.
    pub defer_branches: bool,
    /// §5 JSP extension: output written through a buffering thunk writer,
    /// flushed once at the end of the request.
    pub buffered_writer: bool,
}

impl OptFlags {
    /// Everything on (the configuration the headline results use).
    pub fn all() -> Self {
        OptFlags {
            selective: true,
            coalesce: true,
            defer_branches: true,
            buffered_writer: true,
        }
    }

    /// Everything off (the `noopt` bar of Fig. 12; buffering stays on since
    /// the paper's Fig. 12 varies only SC/TC/BD).
    pub fn none() -> Self {
        OptFlags {
            selective: false,
            coalesce: false,
            defer_branches: false,
            buffered_writer: true,
        }
    }
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags::all()
    }
}

/// Applies the AST-level optimizations (BD, TC) to a (simplified) program.
pub fn optimize(p: &Program, a: &Analysis, flags: OptFlags) -> Program {
    optimize_with_schema(p, a, flags, None)
}

/// [`optimize`] with ORM schema metadata, which makes branch deferral
/// bring **guard hoisting** along (see `hoist.rs`): an `if` arm's ORM
/// reads move above the `if` first, so they ride the flush its condition
/// forces.
///
/// `a` is `analyze(p, schema)`: both passes read its effect summary.
pub fn optimize_with_schema(
    p: &Program,
    a: &Analysis,
    flags: OptFlags,
    schema: Option<&Schema>,
) -> Program {
    if !flags.coalesce && !flags.defer_branches {
        return p.clone();
    }
    let hoist = match schema {
        Some(schema) if flags.defer_branches => Some(GuardHoist::new(a, schema)),
        _ => None,
    };
    Program {
        functions: p
            .functions
            .iter()
            .map(|f| {
                let hoisted = hoist.as_ref().and_then(|h| h.function(f));
                let f = hoisted.as_ref().unwrap_or(f);
                let mut occurrences = HashMap::new();
                count_occurrences(&f.body, &mut occurrences);
                for p in &f.params {
                    *occurrences.entry(p.clone()).or_insert(0) += 1;
                }
                let body = transform_block(&f.body, a, flags, &occurrences);
                Function {
                    name: f.name.clone(),
                    params: f.params.clone(),
                    body,
                }
            })
            .collect(),
    }
}

/// Counts every occurrence of each variable name in a statement subtree
/// (reads, assignment targets, `let` bindings; block outputs are not
/// counted, see below): coalescing's liveness, guard hoisting's mentions
/// and the capture sets `resolve` gives deferred blocks.
pub(crate) fn count_occurrences(stmts: &[Stmt], out: &mut HashMap<String, usize>) {
    fn expr(e: &Expr, out: &mut HashMap<String, usize>) {
        let mut vars = Vec::new();
        expr_vars(e, &mut vars);
        for v in vars {
            *out.entry(v).or_insert(0) += 1;
        }
    }
    for s in stmts {
        match s {
            Stmt::Let(name, e) => {
                *out.entry(name.clone()).or_insert(0) += 1;
                expr(e, out);
            }
            Stmt::Assign(lv, e) => {
                match lv {
                    LValue::Var(v) => *out.entry(v.clone()).or_insert(0) += 1,
                    LValue::Field(b, _) => expr(b, out),
                    LValue::Index(b, i) => {
                        expr(b, out);
                        expr(i, out);
                    }
                }
                expr(e, out);
            }
            Stmt::If(c, t, e) => {
                expr(c, out);
                count_occurrences(t, out);
                count_occurrences(e, out);
            }
            Stmt::While(c, b) => {
                expr(c, out);
                count_occurrences(b, out);
            }
            Stmt::Return(Some(e)) | Stmt::ExprStmt(e) => expr(e, out),
            // Outputs are not counted: every output is also an assignment
            // inside `body` (already counted), and counting them twice
            // would make post-transform "local" counts exceed the
            // pre-transform totals, dropping live outputs.
            Stmt::DeferBlock { body, .. } => count_occurrences(body, out),
            Stmt::Break | Stmt::Continue | Stmt::Return(None) => {}
        }
    }
}

fn transform_block(
    stmts: &[Stmt],
    a: &Analysis,
    flags: OptFlags,
    occurrences: &HashMap<String, usize>,
) -> Vec<Stmt> {
    // Recurse first, then wrap at this level.
    let mut rewritten: Vec<Stmt> = stmts
        .iter()
        .map(|s| match s {
            Stmt::If(c, t, e) => {
                // A row guard's head stays as guard hoisting left it: it
                // registers where the `if` stands.
                let (head, rest) = t.split_at(row_guard_len(c).min(t.len()));
                let mut then = head.to_vec();
                then.extend(transform_block(rest, a, flags, occurrences));
                Stmt::If(c.clone(), then, transform_block(e, a, flags, occurrences))
            }
            Stmt::While(c, b) => Stmt::While(c.clone(), transform_block(b, a, flags, occurrences)),
            other => other.clone(),
        })
        .collect();

    if flags.defer_branches {
        rewritten = rewritten
            .into_iter()
            .map(|s| {
                // Defer whole branches/loops with only local effects (§4.2:
                // the rewritten shape is equivalent for the check — nested
                // DeferBlocks are checked by body).
                if matches!(s, Stmt::If(..) | Stmt::While(..)) && stmt_deferrable(&s, a) {
                    let outputs = block_outputs(std::slice::from_ref(&s));
                    return Stmt::DeferBlock {
                        body: vec![s],
                        outputs,
                    };
                }
                s
            })
            .collect();
    }

    if flags.coalesce {
        rewritten = coalesce_runs(rewritten, a, occurrences);
    }
    rewritten
}

/// The length of the head a row guard's condition marks (see `hoist.rs`);
/// 0 for any other condition.
fn row_guard_len(c: &Expr) -> usize {
    match c {
        Expr::Call(f, args) if f == ROW_GUARD => match args.get(2) {
            Some(Expr::Lit(Lit::Int(n))) => *n as usize,
            _ => 0,
        },
        _ => 0,
    }
}

/// Output variables of a deferred region: variables assigned inside that
/// were not declared inside.
fn block_outputs(stmts: &[Stmt]) -> Vec<String> {
    let mut assigned = Vec::new();
    assigned_vars(stmts, &mut assigned);
    let mut declared = Vec::new();
    let_names(stmts, &mut declared);
    assigned.retain(|v| !declared.contains(v));
    assigned
}

/// §4.3: groups maximal runs (≥ 2) of consecutive deferrable statements
/// into a single [`Stmt::DeferBlock`]; nested defer blocks are spliced in.
fn coalesce_runs(
    stmts: Vec<Stmt>,
    a: &Analysis,
    occurrences: &HashMap<String, usize>,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    let mut run: Vec<Stmt> = Vec::new();

    let flush = |run: &mut Vec<Stmt>, out: &mut Vec<Stmt>| {
        if run.len() >= 2 {
            // Splice nested defer blocks: the whole run is one thunk
            // anyway.
            let mut body = Vec::new();
            for s in run.drain(..) {
                match s {
                    Stmt::DeferBlock { body: inner, .. } => body.extend(inner),
                    other => body.push(other),
                }
            }
            let outputs = run_outputs(&body, occurrences);
            out.push(Stmt::DeferBlock { body, outputs });
        } else {
            out.append(run);
        }
    };

    for s in stmts {
        if coalescable(&s, a) {
            run.push(s);
        } else {
            flush(&mut run, &mut out);
            out.push(s);
        }
    }
    flush(&mut run, &mut out);
    out
}

/// TC only merges *simple* statements (and blocks already deferred by BD);
/// swallowing whole branches is branch deferral's job (§4.2), so keeping
/// them apart lets Fig. 12 measure the two independently.
fn coalescable(s: &Stmt, a: &Analysis) -> bool {
    match s {
        Stmt::Let(..) | Stmt::Assign(LValue::Var(_), _) | Stmt::ExprStmt(_) => {
            stmt_deferrable(s, a)
        }
        Stmt::DeferBlock { .. } => true,
        _ => false,
    }
}

/// Outputs of a coalesced run: names defined or assigned in the run that
/// also occur elsewhere in the function (the §4.3 liveness criterion —
/// "used anywhere else" is a sound over-approximation of live-after).
fn run_outputs(body: &[Stmt], occurrences: &HashMap<String, usize>) -> Vec<String> {
    let mut defined = Vec::new();
    let_names(body, &mut defined);
    assigned_vars(body, &mut defined);
    let mut inside = HashMap::new();
    count_occurrences(body, &mut inside);
    let mut outputs: Vec<String> = defined
        .into_iter()
        .filter(|v| {
            let total = occurrences.get(v).copied().unwrap_or(0);
            let local = inside.get(v).copied().unwrap_or(0);
            total > local
        })
        .collect();
    outputs.dedup();
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::parser::parse_program;
    use crate::simplify::simplify_program;

    fn pipeline(src: &str, flags: OptFlags) -> Program {
        let p = simplify_program(&parse_program(src).unwrap());
        let a = analyze(&p, None);
        optimize(&p, &a, flags)
    }

    #[test]
    fn coalesce_paper_example() {
        // foo(a,b,c,d): e = a+b; f = e+c; g = f+d; return g — the three
        // additions must coalesce into one block with g as only output.
        let p = pipeline(
            "fn foo(a, b, c, d) { let e = a + b; let f = e + c; let g = f + d; return g; }",
            OptFlags {
                coalesce: true,
                defer_branches: false,
                ..OptFlags::all()
            },
        );
        let body = &p.function("foo").unwrap().body;
        match &body[0] {
            Stmt::DeferBlock {
                body: inner,
                outputs,
                ..
            } => {
                assert_eq!(inner.len(), 3);
                assert_eq!(outputs, &vec!["g".to_string()]);
            }
            other => panic!("expected DeferBlock, got {other:?}"),
        }
        assert!(matches!(body[1], Stmt::Return(_)));
    }

    #[test]
    fn branch_deferral_wraps_pure_if() {
        let p = pipeline(
            "fn f(c, b, d) { let a = 0; if (c) { a = b; } else { a = d; } print(a); }",
            OptFlags {
                coalesce: false,
                defer_branches: true,
                ..OptFlags::all()
            },
        );
        let body = &p.function("f").unwrap().body;
        let found = body.iter().any(|s| {
            matches!(s, Stmt::DeferBlock { body, outputs, .. }
                if matches!(body[0], Stmt::If(..)) && outputs.contains(&"a".to_string()))
        });
        assert!(found, "if should be wrapped: {body:?}");
    }

    #[test]
    fn query_branch_not_wrapped() {
        let p = pipeline(
            r#"fn f(c) { let a = 0; if (c) { a = query("SELECT 1 FROM t"); } print(a); }"#,
            OptFlags::all(),
        );
        let body = &p.function("f").unwrap().body;
        let wrapped_if = body.iter().any(|s| {
            matches!(s, Stmt::DeferBlock { body, .. } if body.iter().any(|x| matches!(x, Stmt::If(..))))
        });
        assert!(!wrapped_if, "query-issuing branch must not defer: {body:?}");
    }

    #[test]
    fn bd_blocks_absorbed_by_tc() {
        let p = pipeline(
            "fn f(c, b, d) { let a = 0; if (c) { a = b; } else { a = d; } let z = a + 1; return z; }",
            OptFlags::all(),
        );
        let body = &p.function("f").unwrap().body;
        // let a, the deferred if and let z all coalesce into one block.
        match &body[0] {
            Stmt::DeferBlock {
                body: inner,
                outputs,
                ..
            } => {
                assert!(inner.iter().any(|s| matches!(s, Stmt::If(..))));
                assert!(outputs.contains(&"z".to_string()));
            }
            other => panic!("expected one big DeferBlock, got {other:?}"),
        }
    }

    #[test]
    fn no_flags_is_identity() {
        let src = "fn f(a) { let x = a + 1; let y = x + 2; return y; }";
        let p = simplify_program(&parse_program(src).unwrap());
        let a = analyze(&p, None);
        let o = optimize(&p, &a, OptFlags::none());
        assert_eq!(p, o);
    }

    #[test]
    fn temporaries_not_exported() {
        // __t* temps used only inside the run must not become outputs.
        let p = pipeline(
            "fn f(a) { let x = a + 1 + 2 + 3; return x; }",
            OptFlags {
                defer_branches: false,
                ..OptFlags::all()
            },
        );
        let body = &p.function("f").unwrap().body;
        match &body[0] {
            Stmt::DeferBlock { outputs, .. } => {
                assert_eq!(outputs, &vec!["x".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
