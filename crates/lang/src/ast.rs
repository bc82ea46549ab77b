//! Abstract syntax of the kernel language (Fig. 4 of the paper, extended
//! with functions, objects, lists and builtin calls so that realistic web
//! controllers can be written in it).
//!
//! The concrete syntax is Java-ish; see [`crate::parser`]. `R(e)` is spelled
//! `query(e)` and `W(e)` is spelled `exec(e)`.

use std::fmt;

/// Literal constants.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numeric addition or string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `!`
    Not,
    /// `-`
    Neg,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal.
    Lit(Lit),
    /// Variable reference.
    Var(String),
    /// Field read `e.f`.
    Field(Box<Expr>, String),
    /// List/result-set index `e[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Call of a user function or builtin: `f(a, b)`.
    Call(String, Vec<Expr>),
    /// Object literal `new { f: e, … }`.
    NewObject(Vec<(String, Expr)>),
    /// List literal `[e, …]`.
    NewList(Vec<Expr>),
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// `x = …`
    Var(String),
    /// `e.f = …`
    Field(Expr, String),
    /// `e[i] = …`
    Index(Expr, Expr),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = e;`
    Let(String, Expr),
    /// `lv = e;`
    Assign(LValue, Expr),
    /// `if (e) { … } else { … }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (e) { … }` (canonicalized to `while (true)` by simplify).
    While(Expr, Vec<Stmt>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return e?;`
    Return(Option<Expr>),
    /// Bare expression statement `e;`.
    ExprStmt(Expr),
    /// A deferred run of straight-line statements produced by the
    /// optimizer (§4.3 thunk coalescing): never written in source. The lazy
    /// interpreter turns the whole block into one thunk whose `outputs`
    /// become projection thunks; the standard interpreter executes the body
    /// inline.
    DeferBlock {
        /// The deferred statements.
        body: Vec<Stmt>,
        /// Variables defined/assigned inside that are observable after the
        /// block.
        outputs: Vec<String>,
    },
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A whole program: function definitions; execution starts at `main`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// All functions, in source order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Merges another program's functions after this one's (later
    /// definitions with duplicate names are rejected by the interpreters).
    pub fn extend(&mut self, other: Program) {
        self.functions.extend(other.functions);
    }

    /// Total statement count (after any transformation), for reporting.
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::If(_, t, e) => 1 + count(t) + count(e),
                    Stmt::While(_, b) => 1 + count(b),
                    Stmt::DeferBlock { body, .. } => count(body),
                    _ => 1,
                })
                .sum()
        }
        self.functions.iter().map(|f| count(&f.body)).sum()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Null => write!(f, "null"),
            Lit::Bool(b) => write!(f, "{b}"),
            Lit::Int(i) => write!(f, "{i}"),
            Lit::Float(x) => write!(f, "{x}"),
            Lit::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// Collects every variable assigned (not `let`-declared) in a statement
/// subtree: coalesced blocks' outputs, and what the effect summary and
/// guard hoisting stop knowing after a branch or loop.
pub fn assigned_vars(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            Stmt::Assign(LValue::Var(v), _) if !out.contains(v) => {
                out.push(v.clone());
            }
            Stmt::If(_, t, e) => {
                assigned_vars(t, out);
                assigned_vars(e, out);
            }
            Stmt::While(_, b) => assigned_vars(b, out),
            Stmt::DeferBlock { body, .. } => assigned_vars(body, out),
            _ => {}
        }
    }
}

/// Collects every name a statement subtree binds with `let`, in order.
pub fn let_names(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            Stmt::Let(name, _) => out.push(name.clone()),
            Stmt::If(_, t, e) => {
                let_names(t, out);
                let_names(e, out);
            }
            Stmt::While(_, b) | Stmt::DeferBlock { body: b, .. } => let_names(b, out),
            _ => {}
        }
    }
}

/// Collects free variable reads of an expression.
pub fn expr_vars(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Lit(_) => {}
        Expr::Var(v) => {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
        Expr::Field(b, _) => expr_vars(b, out),
        Expr::Index(b, i) => {
            expr_vars(b, out);
            expr_vars(i, out);
        }
        Expr::Binary(_, a, b) => {
            expr_vars(a, out);
            expr_vars(b, out);
        }
        Expr::Unary(_, a) => expr_vars(a, out),
        Expr::Call(_, args) => {
            for a in args {
                expr_vars(a, out);
            }
        }
        Expr::NewObject(fields) => {
            for (_, v) in fields {
                expr_vars(v, out);
            }
        }
        Expr::NewList(items) => {
            for v in items {
                expr_vars(v, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigned_vars_nested() {
        let stmts = vec![
            Stmt::Assign(LValue::Var("a".into()), Expr::Lit(Lit::Int(1))),
            Stmt::If(
                Expr::Lit(Lit::Bool(true)),
                vec![Stmt::Assign(
                    LValue::Var("b".into()),
                    Expr::Lit(Lit::Int(2)),
                )],
                vec![Stmt::Assign(
                    LValue::Var("a".into()),
                    Expr::Lit(Lit::Int(3)),
                )],
            ),
        ];
        let mut out = Vec::new();
        assigned_vars(&stmts, &mut out);
        assert_eq!(out, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn expr_vars_dedup() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Var("x".into())),
            Box::new(Expr::Binary(
                BinOp::Mul,
                Box::new(Expr::Var("x".into())),
                Box::new(Expr::Var("y".into())),
            )),
        );
        let mut out = Vec::new();
        expr_vars(&e, &mut out);
        assert_eq!(out, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn stmt_count_recurses() {
        let p = Program {
            functions: vec![Function {
                name: "f".into(),
                params: vec![],
                body: vec![Stmt::While(
                    Expr::Lit(Lit::Bool(true)),
                    vec![Stmt::Break, Stmt::Continue],
                )],
            }],
        };
        assert_eq!(p.stmt_count(), 3);
    }
}
