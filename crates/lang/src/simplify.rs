//! Code simplification (§3.1): canonicalizes loops to `while (true)` with
//! explicit `break`, and flattens compound expressions so every statement
//! performs at most one operation (introducing `__t<n>` temporaries).
//!
//! Flattening matters for fidelity of the overhead model: the paper notes
//! that "the number of operations (and thus the number of Thunk objects)
//! can be much larger than the number of lines of Java code" — thunk
//! coalescing (§4.3) exists precisely to claw this back.

use crate::ast::*;

/// Simplifies a whole program.
pub fn simplify_program(p: &Program) -> Program {
    Program {
        functions: p.functions.iter().map(simplify_function).collect(),
    }
}

/// Simplifies one function.
pub fn simplify_function(f: &Function) -> Function {
    let mut ctx = Ctx { next_temp: 0 };
    Function {
        name: f.name.clone(),
        params: f.params.clone(),
        body: ctx.block(&f.body),
    }
}

struct Ctx {
    next_temp: usize,
}

impl Ctx {
    fn fresh(&mut self) -> String {
        let name = format!("__t{}", self.next_temp);
        self.next_temp += 1;
        name
    }

    fn block(&mut self, stmts: &[Stmt]) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.stmt(s, &mut out);
        }
        out
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<Stmt>) {
        match s {
            Stmt::Let(name, e) => {
                let e = self.flatten(e, out);
                out.push(Stmt::Let(name.clone(), e));
            }
            Stmt::Assign(lv, e) => {
                let lv = match lv {
                    LValue::Var(v) => LValue::Var(v.clone()),
                    LValue::Field(base, f) => {
                        let base = self.atomize(base, out);
                        LValue::Field(base, f.clone())
                    }
                    LValue::Index(base, idx) => {
                        let base = self.atomize(base, out);
                        let idx = self.atomize(idx, out);
                        LValue::Index(base, idx)
                    }
                };
                let e = self.flatten(e, out);
                out.push(Stmt::Assign(lv, e));
            }
            Stmt::If(cond, then, els) => {
                let cond = self.flatten(cond, out);
                out.push(Stmt::If(cond, self.block(then), self.block(els)));
            }
            Stmt::While(cond, body) => {
                // while (c) { b }  ⇒  while (true) { if (c) { b } else { break; } }
                // Condition flattening must happen *inside* the loop so it is
                // re-evaluated each iteration.
                let mut inner = Vec::new();
                let cond = self.flatten(cond, &mut inner);
                let body = self.block(body);
                inner.push(Stmt::If(cond, body, vec![Stmt::Break]));
                out.push(Stmt::While(Expr::Lit(Lit::Bool(true)), inner));
            }
            Stmt::Return(Some(e)) => {
                let e = self.flatten(e, out);
                out.push(Stmt::Return(Some(e)));
            }
            Stmt::ExprStmt(e) => {
                let e = self.flatten(e, out);
                out.push(Stmt::ExprStmt(e));
            }
            Stmt::Break | Stmt::Continue | Stmt::Return(None) => out.push(s.clone()),
            // Optimizer-produced blocks never appear pre-simplification;
            // pass through untouched if they do.
            Stmt::DeferBlock { .. } => out.push(s.clone()),
        }
    }

    /// Rewrites `e` into a single-operation expression whose operands are
    /// atoms, emitting temporaries for nested operations.
    fn flatten(&mut self, e: &Expr, out: &mut Vec<Stmt>) -> Expr {
        match e {
            Expr::Lit(_) | Expr::Var(_) => e.clone(),
            Expr::Field(base, f) => {
                let base = self.atomize(base, out);
                Expr::Field(Box::new(base), f.clone())
            }
            Expr::Index(base, idx) => {
                let base = self.atomize(base, out);
                let idx = self.atomize(idx, out);
                Expr::Index(Box::new(base), Box::new(idx))
            }
            Expr::Binary(op, a, b) => {
                // Short-circuit operators keep their right operand nested:
                // hoisting it would change evaluation semantics. It is
                // flattened only when that needs no statements; otherwise
                // its temporaries would have nowhere conditional to live,
                // so it stays as written (the evaluators recurse fine —
                // flattening is an optimization).
                if matches!(op, BinOp::And | BinOp::Or) {
                    let a = self.atomize(a, out);
                    let mut rhs_stmts = Vec::new();
                    let flat = self.flatten(b, &mut rhs_stmts);
                    let b = if rhs_stmts.is_empty() {
                        flat
                    } else {
                        (**b).clone()
                    };
                    return Expr::Binary(*op, Box::new(a), Box::new(b));
                }
                let a = self.atomize(a, out);
                let b = self.atomize(b, out);
                Expr::Binary(*op, Box::new(a), Box::new(b))
            }
            Expr::Unary(op, a) => {
                let a = self.atomize(a, out);
                Expr::Unary(*op, Box::new(a))
            }
            Expr::Call(name, args) => {
                let args = args.iter().map(|a| self.atomize(a, out)).collect();
                Expr::Call(name.clone(), args)
            }
            Expr::NewObject(fields) => {
                let fields = fields
                    .iter()
                    .map(|(f, v)| (f.clone(), self.atomize(v, out)))
                    .collect();
                Expr::NewObject(fields)
            }
            Expr::NewList(items) => {
                let items = items.iter().map(|v| self.atomize(v, out)).collect();
                Expr::NewList(items)
            }
        }
    }

    /// Reduces `e` to an atom (literal or variable), hoisting anything else
    /// into a temporary.
    fn atomize(&mut self, e: &Expr, out: &mut Vec<Stmt>) -> Expr {
        match e {
            Expr::Lit(_) | Expr::Var(_) => e.clone(),
            _ => {
                let flat = self.flatten(e, out);
                let t = self.fresh();
                out.push(Stmt::Let(t.clone(), flat));
                Expr::Var(t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_block, parse_program};

    fn parse_rhs(src: &str) -> Expr {
        match parse_block(&format!("let r = {src};")).unwrap().remove(0) {
            Stmt::Let(_, e) => e,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn simplify_src(src: &str) -> Vec<Stmt> {
        let mut ctx = Ctx { next_temp: 0 };
        ctx.block(&parse_block(src).unwrap())
    }

    #[test]
    fn flattens_compound_arith() {
        // x = a + b + c ⇒ __t0 = a + b; x = __t0 + c (paper's own example).
        let stmts = simplify_src("x = a + b + c;");
        assert_eq!(stmts.len(), 2);
        match &stmts[0] {
            Stmt::Let(t, Expr::Binary(BinOp::Add, _, _)) => assert_eq!(t, "__t0"),
            other => panic!("unexpected {other:?}"),
        }
        match &stmts[1] {
            Stmt::Assign(LValue::Var(x), Expr::Binary(BinOp::Add, l, _)) => {
                assert_eq!(x, "x");
                assert_eq!(**l, Expr::Var("__t0".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn canonicalizes_while() {
        let stmts = simplify_src("while (i < n) { i = i + 1; }");
        match &stmts[0] {
            Stmt::While(Expr::Lit(Lit::Bool(true)), body) => match body.last().unwrap() {
                Stmt::If(_, then, els) => {
                    assert!(!then.is_empty());
                    assert_eq!(els, &vec![Stmt::Break]);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loop_condition_reevaluated_each_iteration() {
        // The flattened condition temp must be *inside* the while body.
        let stmts = simplify_src("while (f(i) < n) { i = i + 1; }");
        match &stmts[0] {
            Stmt::While(_, body) => {
                assert!(
                    body.iter()
                        .any(|s| matches!(s, Stmt::Let(t, _) if t.starts_with("__t"))),
                    "condition temp hoisted into loop body"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn call_args_atomized() {
        let stmts = simplify_src("let r = f(a + 1, g(b));");
        // a + 1 and g(b) each get a temp; call has only atoms.
        assert_eq!(stmts.len(), 3);
        match stmts.last().unwrap() {
            Stmt::Let(_, Expr::Call(_, args)) => {
                assert!(args
                    .iter()
                    .all(|a| matches!(a, Expr::Var(_) | Expr::Lit(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compound_right_operand_of_short_circuit_stays_nested() {
        // `x.f > 0` would need `__t = x.f` hoisted above the `&&`, where it
        // would run even when `x` is null: the operand stays as written,
        // and no statement defines a temporary it does not use.
        let stmts = simplify_src("let ok = x != null && x.f > 0;");
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        match &stmts[1] {
            Stmt::Let(_, Expr::Binary(BinOp::And, l, r)) => {
                assert_eq!(**l, Expr::Var("__t0".into()));
                assert_eq!(**r, parse_rhs("x.f > 0"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A right operand that flattens without statements still does.
        let stmts = simplify_src("let ok = a && f(b);");
        assert_eq!(stmts.len(), 1, "{stmts:?}");
    }

    #[test]
    fn idempotent_on_simple_code() {
        let src = "let x = 1; y = x;";
        let once = simplify_src(src);
        let mut ctx = Ctx { next_temp: 0 };
        let twice = ctx.block(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn program_level() {
        let p = parse_program("fn f(a) { return a + 1 + 2; }").unwrap();
        let s = simplify_program(&p);
        assert!(s.function("f").unwrap().body.len() >= 2);
    }
}
