//! The optimizer (§4): guard hoisting, then thunk coalescing (§4.3), as
//! AST transforms. Guard hoisting (`hoist.rs`, with a schema) moves `if`
//! arms' ORM reads above their `if`, lowers 1+N association loops to one
//! each-row read and marks row guards; coalescing wraps runs of
//! straight-line statements in [`Stmt::DeferBlock`]. Selective compilation
//! (§4.1) is a runtime flag consumed by the lazy interpreter; its buffered
//! writer (§5) has no switch: a lazy run always buffers its output.

use std::collections::HashMap;

use sloth_orm::Schema;

use crate::analysis::{stmt_deferrable, Analysis};
use crate::ast::*;
use crate::builtins::ROW_GUARD;
use crate::hoist::GuardHoist;

/// Optimization switches (Fig. 12 turns these on cumulatively).
///
/// The paper's branch deferral (§4.2) has no switch: wrapping a whole
/// `if` / `while` in one thunk moved no round trip on any measured page
/// or transaction here, so it is not implemented (docs/BENCH.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// §4.1 selective compilation: non-persistent functions run under
    /// standard semantics.
    pub selective: bool,
    /// §4.3 thunk coalescing: merge consecutive deferrable statements.
    pub coalesce: bool,
    /// Guard hoisting, the 1+N lowering and row guards (`hoist.rs`): an
    /// `if` arm's ORM reads register before the `if`, an association loop
    /// over a list read becomes one each-row read, and the head of an
    /// `if (nrows(q) > 0)` arm registers where the `if` stands. Does
    /// nothing without a schema.
    pub hoist: bool,
}

impl OptFlags {
    /// Everything on (the configuration the headline results use).
    pub fn all() -> Self {
        OptFlags {
            selective: true,
            coalesce: true,
            hoist: true,
        }
    }

    /// Everything off (the `noopt` bar of Fig. 12, which varies only SC /
    /// TC / hoisting; the lazy run's output stays buffered).
    pub fn none() -> Self {
        OptFlags {
            selective: false,
            coalesce: false,
            hoist: false,
        }
    }
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags::all()
    }
}

/// Applies the AST-level optimizations to a (simplified) program: without
/// a schema that is thunk coalescing alone.
pub fn optimize(p: &Program, a: &Analysis, flags: OptFlags) -> Program {
    optimize_with_schema(p, a, flags, None)
}

/// [`optimize`] with ORM schema metadata, which [`OptFlags::hoist`] needs
/// (see `hoist.rs`): an `if` arm's ORM reads move above the `if` first, so
/// they ride the flush its condition forces.
///
/// `a` is `analyze(p, schema)`: both passes read its effect summary.
pub fn optimize_with_schema(
    p: &Program,
    a: &Analysis,
    flags: OptFlags,
    schema: Option<&Schema>,
) -> Program {
    if !flags.coalesce && !flags.hoist {
        return p.clone();
    }
    let hoist = match schema {
        Some(schema) if flags.hoist => Some(GuardHoist::new(a, schema)),
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
    let rewritten: Vec<Stmt> = stmts
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
    if flags.coalesce {
        coalesce_runs(rewritten, a, occurrences)
    } else {
        rewritten
    }
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

/// §4.3: groups maximal runs (≥ 2) of consecutive deferrable statements
/// (see [`stmt_deferrable`]) into a single [`Stmt::DeferBlock`].
fn coalesce_runs(
    stmts: Vec<Stmt>,
    a: &Analysis,
    occurrences: &HashMap<String, usize>,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    let mut run: Vec<Stmt> = Vec::new();

    let flush = |run: &mut Vec<Stmt>, out: &mut Vec<Stmt>| {
        if run.len() >= 2 {
            let body = std::mem::take(run);
            let outputs = run_outputs(&body, occurrences);
            out.push(Stmt::DeferBlock { body, outputs });
        } else {
            out.append(run);
        }
    };

    for s in stmts {
        if stmt_deferrable(&s, a) {
            run.push(s);
        } else {
            flush(&mut run, &mut out);
            out.push(s);
        }
    }
    flush(&mut run, &mut out);
    out
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
                hoist: false,
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
    fn query_branch_not_wrapped() {
        // No block holds an `if`, and an arm's query stays out of any
        // block: only the straight-line `let a = 0; let b = 1` coalesce.
        let p = pipeline(
            r#"fn f(c) { let a = 0; let b = 1; if (c) { a = query("SELECT 1 FROM t"); a = b; } print(a); }"#,
            OptFlags::all(),
        );
        let body = &p.function("f").unwrap().body;
        assert!(matches!(&body[0], Stmt::DeferBlock { body, .. } if body.len() == 2));
        let Stmt::If(_, then, _) = &body[1] else {
            panic!("the if stays in place: {body:?}");
        };
        assert!(
            then.iter().all(|s| !matches!(s, Stmt::DeferBlock { .. })),
            "{then:?}"
        );
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
                hoist: false,
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
