//! The last compiler pass: lowers the named AST to the **slot-resolved
//! form** — the only form [`crate::interp`] walks.
//!
//! Everything a name stands for is bound here, once per `prepare`, so the
//! evaluator never hashes or compares a string to find it:
//!
//! * a **variable** becomes an index into its function's frame — one slot
//!   per distinct name per function, because `let` is function-scoped (a
//!   `let` inside a branch is readable after it). [`Func::slot_names`]
//!   keeps the source names so `unbound variable <name>` reads as before;
//! * a **callee** becomes the builtin itself, the index of a user
//!   function (the last definition of a name wins), or — for a name that
//!   is neither — the name, so the failure still happens at call time;
//! * the analysis labels the evaluator consults per call (`persistent`
//!   for selective compilation, `pure` for call deferral) become flags on
//!   the function;
//! * a **deferred block** becomes an index into the page's block table,
//!   which holds its body with its capture and output slots worked out;
//! * an `if` guard hoisting marks as a row guard (`hoist.rs`) becomes
//!   [`RStmt::Guarded`], the form no source program can produce.
//!
//! The form holds [`Lit`]s and indices, never a runtime value, so a
//! compiled page stays `Send + Sync`; and it is what a compiled page keeps
//! — the named AST is dropped once resolved.

use std::collections::HashMap;

use crate::analysis::Analysis;
use crate::ast::*;
use crate::builtins::{Builtin, ROW_GUARD};

/// Index of a variable in its function's frame.
pub(crate) type Slot = u32;

/// A whole page in resolved form.
pub(crate) struct Resolved {
    /// Functions, indexed by [`Callee::User`].
    pub fns: Vec<Func>,
    /// Deferred blocks of every function, indexed by [`RStmt::Defer`].
    pub blocks: Vec<Block>,
    /// The entry point, if the page defines `main`.
    pub main: Option<u32>,
}

/// One function.
pub(crate) struct Func {
    /// Source name (arity errors quote it).
    pub name: Box<str>,
    /// The slot each parameter binds, in order.
    pub params: Vec<Slot>,
    /// Source name of every slot; its length is the frame size.
    pub slot_names: Vec<Box<str>>,
    /// Body statements.
    pub body: Vec<RStmt>,
    /// §4.1 label: runs under lazy semantics when compilation is selective.
    pub persistent: bool,
    /// Purity label: a lazy call defers whole (§3.4).
    pub pure: bool,
}

/// One deferred run of statements (§4.3). Its body addresses the frame
/// layout of the function it was cut from.
pub(crate) struct Block {
    /// The function whose slots the body uses.
    pub func: u32,
    /// The deferred statements.
    pub body: Vec<RStmt>,
    /// Every slot the body mentions: those bound when the block is created
    /// are captured by value (the thunk environment σ).
    pub captures: Vec<Slot>,
    /// Slots observable after the block, each read through a projection.
    pub outputs: Vec<Slot>,
}

/// What a call site calls.
pub(crate) enum Callee {
    /// A builtin.
    Builtin(Builtin),
    /// The user function at this index of [`Resolved::fns`].
    User(u32),
    /// Neither: `unknown function <name>` once the arguments are evaluated.
    Unknown(Box<str>),
}

/// [`Expr`] with names bound.
pub(crate) enum RExpr {
    Lit(Lit),
    Slot(Slot),
    Field(Box<RExpr>, Box<str>),
    Index(Box<RExpr>, Box<RExpr>),
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    Unary(UnOp, Box<RExpr>),
    Call(Callee, Vec<RExpr>),
    NewObject(Vec<(Box<str>, RExpr)>),
    NewList(Vec<RExpr>),
}

/// [`Stmt`] with names bound. `let x = e` and `x = e` are one statement:
/// both store to `x`'s slot.
pub(crate) enum RStmt {
    Set(Slot, RExpr),
    SetField(RExpr, Box<str>, RExpr),
    SetIndex(RExpr, RExpr, RExpr),
    If(RExpr, Vec<RStmt>, Vec<RStmt>),
    While(RExpr, Vec<RStmt>),
    Break,
    Continue,
    Return(Option<RExpr>),
    Expr(RExpr),
    /// The block at this index of [`Resolved::blocks`].
    Defer(u32),
    /// An `if (nrows(q) > 0)` whose then-arm's head registers where the
    /// `if` stands, boxed so that the rare form does not widen every
    /// statement.
    Guarded(Box<GuardedIf>),
}

/// [`RStmt::Guarded`].
pub(crate) struct GuardedIf {
    /// `q`.
    pub rows: Slot,
    /// The condition, as written.
    pub cond: RExpr,
    /// The head of the then-arm, in order.
    pub prefix: Vec<RStmt>,
    /// The rest of the then-arm.
    pub then: Vec<RStmt>,
    /// The else-arm.
    pub els: Vec<RStmt>,
}

/// Lowers a (simplified, optimized) program.
pub(crate) fn resolve(p: &Program, analysis: &Analysis) -> Resolved {
    let fn_ids: HashMap<&str, u32> = (0u32..)
        .zip(&p.functions)
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut blocks = Vec::new();
    let fns = (0u32..)
        .zip(&p.functions)
        .map(|(id, f)| {
            let mut scope = Scope {
                fn_ids: &fn_ids,
                blocks: &mut blocks,
                func: id,
                slots: HashMap::new(),
                slot_names: Vec::new(),
            };
            let params = f.params.iter().map(|p| scope.slot(p)).collect();
            let body = scope.stmts(&f.body);
            Func {
                name: f.name.as_str().into(),
                params,
                slot_names: scope.slot_names,
                body,
                persistent: analysis.is_persistent(&f.name),
                pure: analysis.is_pure_fn(&f.name),
            }
        })
        .collect();
    Resolved {
        fns,
        blocks,
        main: fn_ids.get("main").copied(),
    }
}

/// Name bindings while one function is lowered.
struct Scope<'a> {
    fn_ids: &'a HashMap<&'a str, u32>,
    blocks: &'a mut Vec<Block>,
    func: u32,
    slots: HashMap<&'a str, Slot>,
    slot_names: Vec<Box<str>>,
}

impl<'a> Scope<'a> {
    fn slot(&mut self, name: &'a str) -> Slot {
        *self.slots.entry(name).or_insert_with(|| {
            self.slot_names.push(name.into());
            (self.slot_names.len() - 1) as Slot
        })
    }

    fn stmts(&mut self, stmts: &'a [Stmt]) -> Vec<RStmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &'a Stmt) -> RStmt {
        match s {
            Stmt::Let(name, e) | Stmt::Assign(LValue::Var(name), e) => {
                let e = self.expr(e);
                RStmt::Set(self.slot(name), e)
            }
            Stmt::Assign(LValue::Field(base, field), e) => {
                RStmt::SetField(self.expr(base), field.as_str().into(), self.expr(e))
            }
            Stmt::Assign(LValue::Index(base, idx), e) => {
                RStmt::SetIndex(self.expr(base), self.expr(idx), self.expr(e))
            }
            Stmt::If(Expr::Call(name, args), t, e) if name == ROW_GUARD => match &args[..] {
                [Expr::Var(rows), cond, Expr::Lit(Lit::Int(n))] if *n as usize <= t.len() => {
                    let (prefix, then) = t.split_at(*n as usize);
                    RStmt::Guarded(Box::new(GuardedIf {
                        rows: self.slot(rows),
                        cond: self.expr(cond),
                        prefix: self.stmts(prefix),
                        then: self.stmts(then),
                        els: self.stmts(e),
                    }))
                }
                // Only guard hoisting emits the name, always so.
                _ => RStmt::Expr(RExpr::Call(
                    Callee::Unknown(name.as_str().into()),
                    Vec::new(),
                )),
            },
            Stmt::If(c, t, e) => RStmt::If(self.expr(c), self.stmts(t), self.stmts(e)),
            Stmt::While(c, b) => RStmt::While(self.expr(c), self.stmts(b)),
            Stmt::Break => RStmt::Break,
            Stmt::Continue => RStmt::Continue,
            Stmt::Return(e) => RStmt::Return(e.as_ref().map(|e| self.expr(e))),
            Stmt::ExprStmt(e) => RStmt::Expr(self.expr(e)),
            Stmt::DeferBlock { body, outputs } => {
                // Lowering the body first gives every name in it a slot in
                // source order, so the layout does not depend on the order
                // the occurrence map below iterates in.
                let lowered = self.stmts(body);
                let mut referenced = HashMap::new();
                crate::opt::count_occurrences(body, &mut referenced);
                let mut captures: Vec<Slot> = referenced.keys().map(|n| self.slots[&**n]).collect();
                captures.sort_unstable();
                let outputs = outputs.iter().map(|o| self.slot(o)).collect();
                self.blocks.push(Block {
                    func: self.func,
                    body: lowered,
                    captures,
                    outputs,
                });
                RStmt::Defer((self.blocks.len() - 1) as u32)
            }
        }
    }

    fn expr(&mut self, e: &'a Expr) -> RExpr {
        match e {
            Expr::Lit(l) => RExpr::Lit(l.clone()),
            Expr::Var(name) => RExpr::Slot(self.slot(name)),
            Expr::Field(base, field) => {
                RExpr::Field(Box::new(self.expr(base)), field.as_str().into())
            }
            Expr::Index(base, idx) => {
                RExpr::Index(Box::new(self.expr(base)), Box::new(self.expr(idx)))
            }
            Expr::Binary(op, a, b) => {
                RExpr::Binary(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::Unary(op, a) => RExpr::Unary(*op, Box::new(self.expr(a))),
            Expr::Call(name, args) => {
                let callee = match (Builtin::from_name(name), self.fn_ids.get(name.as_str())) {
                    (Some(b), _) => Callee::Builtin(b),
                    (None, Some(id)) => Callee::User(*id),
                    (None, None) => Callee::Unknown(name.as_str().into()),
                };
                RExpr::Call(callee, args.iter().map(|a| self.expr(a)).collect())
            }
            Expr::NewObject(fields) => RExpr::NewObject(
                fields
                    .iter()
                    .map(|(f, v)| (f.as_str().into(), self.expr(v)))
                    .collect(),
            ),
            Expr::NewList(items) => RExpr::NewList(items.iter().map(|v| self.expr(v)).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::{PureFn, QueryFn};
    use crate::parser::parse_program;

    fn lower(src: &str) -> Resolved {
        let p = parse_program(src).unwrap();
        resolve(&p, &crate::analysis::analyze(&p, None))
    }

    #[test]
    fn one_slot_per_name_params_first() {
        let r = lower("fn f(a, b) { let x = a; if (b) { let y = x; x = y; } return z; }");
        let names: Vec<&str> = r.fns[0].slot_names.iter().map(|n| &**n).collect();
        assert_eq!(names, ["a", "b", "x", "y", "z"]);
        assert_eq!(r.fns[0].params, [0, 1]);
        assert!(matches!(r.fns[0].body[0], RStmt::Set(2, RExpr::Slot(0))));
        assert!(r.main.is_none());
    }

    #[test]
    fn callees_bind_to_builtin_user_or_name() {
        let r = lower(
            "fn str2(x) { return x; } \
             fn main() { str(1); query(\"q\"); str2(2); nope(3); } \
             fn str2(x) { return 0; }",
        );
        let callee = |i: usize| match &r.fns[1].body[i] {
            RStmt::Expr(RExpr::Call(c, _)) => c,
            _ => panic!("statement {i} is not a call"),
        };
        assert!(matches!(
            callee(0),
            Callee::Builtin(Builtin::Pure(PureFn::Str))
        ));
        assert!(matches!(
            callee(1),
            Callee::Builtin(Builtin::Query(QueryFn::Query))
        ));
        assert!(matches!(callee(2), Callee::User(2)), "last definition wins");
        assert!(matches!(callee(3), Callee::Unknown(n) if &**n == "nope"));
        assert_eq!(r.main, Some(1));
        assert!(r.fns[0].pure && !r.fns[1].pure && r.fns[1].persistent);
    }

    #[test]
    fn deferred_block_knows_its_captures_and_outputs() {
        let p = Program {
            functions: vec![Function {
                name: "main".into(),
                params: vec!["n".into()],
                body: vec![
                    Stmt::Let("acc".into(), Expr::Lit(Lit::Int(0))),
                    Stmt::DeferBlock {
                        body: vec![
                            Stmt::Let("t".into(), Expr::Var("n".into())),
                            Stmt::Assign(LValue::Var("acc".into()), Expr::Var("t".into())),
                        ],
                        outputs: vec!["acc".into()],
                    },
                ],
            }],
        };
        let r = resolve(&p, &Analysis::default());
        assert!(matches!(r.fns[0].body[1], RStmt::Defer(0)));
        let b = &r.blocks[0];
        // n = 0, acc = 1, t = 2: every name the body mentions, sorted.
        assert_eq!(
            (b.func, &b.captures[..], &b.outputs[..]),
            (0, &[0, 1, 2][..], &[1][..])
        );
        assert_eq!(b.body.len(), 2);
    }

    #[test]
    fn resolved_pages_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Resolved>();
    }
}
