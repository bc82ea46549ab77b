//! Builtin ("external library") functions, and the one table of what each
//! does.
//!
//! The Sloth compiler labels every callee (§3.4): internal pure methods are
//! deferred whole; internal methods with side effects run eagerly with thunk
//! arguments; external methods force everything; query methods register with
//! the query store. Builtins model the JDK / framework surface our kernel
//! programs use. [`Builtin::sig`] is the one place their label lives: what
//! a call forces, for which consumer, and what it touches. The interpreter
//! forces what it says, the effect summary (`analysis.rs`) is built from
//! it, and guard hoisting and the 1+N lowering read it (the summary's
//! `touches` question, and which calls a row guard's head may hold).

use sloth_core::Demand;
use Arg::{Force, Keep, Unfetched};
use Demand::{EagerArg as E, QueryParam as Q};

/// A builtin, identified: what [`crate::resolve`] binds a callee name to at
/// `prepare` time, so the evaluator dispatches on a variant instead of
/// matching the name on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    /// A string / scalar helper.
    Pure(PureFn),
    /// A read of a collection, result set or object.
    EagerRead(ReadFn),
    /// A collection or object mutation.
    HeapWrite(HeapFn),
    /// `print` / `write` / `render` / `log` — all append to the response.
    External,
    /// A read against the database.
    Query(QueryFn),
    /// A write or transaction boundary.
    WriteQuery(WriteFn),
}

/// String / scalar helpers (JDK-ish).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PureFn {
    Str,
    Upper,
    Lower,
    Concat,
    Contains,
    StartsWith,
    Substr,
    LenStr,
    Abs,
    Min,
    Max,
    IsNull,
    NotNull,
    ToInt,
}

/// Collection / result-set reads (`len` and `nrows` are one builtin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadFn {
    Len,
    At,
    Cell,
    First,
    ObjGet,
    HasField,
}

/// Collection mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeapFn {
    Push,
    ObjPut,
    Clear,
}

/// Reads against the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryFn {
    Query,
    OrmFind,
    OrmAssoc,
    OrmFindWhere,
    OrmFindAll,
    OrmCountWhere,
    /// [`ASSOC_ROWS`]: one association of every element of a list read.
    OrmAssocRows,
}

/// Writes / transaction boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFn {
    Exec,
    OrmSave,
    OrmUpdate,
    OrmDelete,
    Commit,
    Begin,
    Rollback,
}

/// What a call does with one of its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arg {
    /// Stored as it is: a pushed or put value, a printed one (forced for
    /// [`Demand::Output`] when it is written), an operand of a pure call
    /// deferred whole (forced when the call is, for whoever forces it).
    Keep,
    /// Forced at the call, for this consumer.
    Force(Demand),
    /// Used unfetched when nobody has fetched it — a call with a database
    /// effect registers a dependant of it, a delayed read waits whole for
    /// its demand — and otherwise forced for this consumer.
    Unfetched(Demand),
}

/// What a call does to the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Db {
    None,
    /// Reads.
    Read,
    /// Runs the SQL text of its first argument as written: a write unless
    /// the text is a read (`query`).
    Text,
    /// Writes by the SQL text of its first argument (`exec`).
    WriteText,
    /// Writes the table of the entity its first argument names.
    WriteEntity,
    /// Opens or closes a transaction: a write nothing bounds.
    Boundary,
}

/// What a call does to the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Heap {
    None,
    /// Reads a collection, result set or object (§4.1 persistence).
    Read,
    /// Changes the contents of the list that argument `i` is.
    List(usize),
    /// Writes a field of argument `i` that only the run names.
    AnyField(usize),
}

/// What one call does, whatever its arguments hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Effect {
    pub db: Db,
    pub heap: Heap,
    /// Appends to the response.
    pub output: bool,
    /// Its result may be a delayed value, whose force runs code: the
    /// deferred call of a pure builtin, a delayed read of a query
    /// (`len` / `nrows`, `cell`, `at`, `first` of a read nobody has
    /// fetched), a query's own answer, or whatever a heap read returns.
    pub delayed: bool,
}

/// A builtin's signature: per argument an [`Arg`] (an argument past the
/// list is kept), and per call an [`Effect`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Sig {
    pub args: &'static [Arg],
    pub effect: Effect,
}

impl Effect {
    const fn new(db: Db, heap: Heap) -> Effect {
        Effect {
            db,
            heap,
            output: false,
            delayed: false,
        }
    }

    const fn delayed(self) -> Effect {
        Effect {
            delayed: true,
            ..self
        }
    }

    const fn output(self) -> Effect {
        Effect {
            output: true,
            ..self
        }
    }

    /// Whether the call issues a statement, writes the heap or appends to
    /// the response.
    pub(crate) fn impure(&self) -> bool {
        let writes = matches!(self.heap, Heap::List(_) | Heap::AnyField(_));
        self.db != Db::None || writes || self.output
    }

    /// Whether the call neither has an effect nor reads the heap: it is
    /// deferred whole (§3.4).
    pub(crate) fn pure(&self) -> bool {
        !self.impure() && self.heap == Heap::None
    }
}

impl Sig {
    const fn new(args: &'static [Arg], effect: Effect) -> Sig {
        Sig { args, effect }
    }

    /// What the call does with argument `i`.
    pub(crate) fn arg(&self, i: usize) -> Arg {
        self.args.get(i).copied().unwrap_or(Arg::Keep)
    }

    /// Whether the call is a delayed read of its first argument when nobody
    /// has fetched that: it waits whole, its other arguments unforced.
    pub(crate) fn delayed_read(&self) -> bool {
        let unfetched = matches!(self.arg(0), Arg::Unfetched(_));
        self.effect.delayed && self.effect.db == Db::None && unfetched
    }

    /// Whether argument `i` is only read: forced or used unfetched, and
    /// neither kept nor changed.
    pub(crate) fn reads_only(&self, i: usize) -> bool {
        let written = matches!(self.effect.heap, Heap::List(j) | Heap::AnyField(j) if j == i);
        !matches!(self.arg(i), Arg::Keep) && !written
    }
}

const NONE: Effect = Effect::new(Db::None, Heap::None);
const PURE: Effect = NONE.delayed();
const READ: Effect = Effect::new(Db::None, Heap::Read).delayed();
const QUERY: Effect = Effect::new(Db::Read, Heap::None).delayed();
const WRITE: Effect = Effect::new(Db::WriteEntity, Heap::None);

const SIG_PURE: Sig = Sig::new(&[], PURE);
const SIG_LEN: Sig = Sig::new(&[Unfetched(E)], READ);
const SIG_AT: Sig = Sig::new(&[Unfetched(E), Force(E)], READ);
const SIG_CELL: Sig = Sig::new(&[Unfetched(E), Force(E), Force(E)], READ);
const SIG_OBJ_GET: Sig = Sig::new(&[Force(E), Force(E)], READ);
const SIG_HAS_FIELD: Sig = Sig::new(&[Force(E), Force(E)], Effect::new(Db::None, Heap::Read));
const SIG_PUSH: Sig = Sig::new(&[Force(E), Keep], Effect::new(Db::None, Heap::List(0)));
const SIG_CLEAR: Sig = Sig::new(&[Force(E)], Effect::new(Db::None, Heap::List(0)));
const SIG_OBJ_PUT: Sig = Sig::new(
    &[Force(E), Force(E), Keep],
    Effect::new(Db::None, Heap::AnyField(0)),
);
const SIG_PRINT: Sig = Sig::new(&[Keep], NONE.output());
const SIG_QUERY: Sig = Sig::new(&[Unfetched(Q)], Effect::new(Db::Text, Heap::None).delayed());
const SIG_FIND: Sig = Sig::new(&[Force(Q), Unfetched(Q)], QUERY);
const SIG_ASSOC: Sig = Sig::new(&[Unfetched(Q), Force(Q)], QUERY);
const SIG_FIND_WHERE: Sig = Sig::new(&[Force(Q), Force(Q), Unfetched(Q)], QUERY);
const SIG_FIND_ALL: Sig = Sig::new(&[Force(Q)], QUERY);
const SIG_ASSOC_ROWS: Sig = Sig::new(&[Unfetched(E), Force(Q)], QUERY);
const SIG_EXEC: Sig = Sig::new(&[Unfetched(Q)], Effect::new(Db::WriteText, Heap::None));
const SIG_SAVE: Sig = Sig::new(&[Force(Q), Force(Q)], WRITE);
const SIG_UPDATE: Sig = Sig::new(&[Force(Q), Force(Q), Force(Q), Force(Q)], WRITE);
const SIG_BOUNDARY: Sig = Sig::new(&[], Effect::new(Db::Boundary, Heap::None));

impl Builtin {
    /// Looks up a builtin by name; `None` means a user-defined function.
    pub(crate) fn from_name(name: &str) -> Option<Builtin> {
        use Builtin::*;
        Some(match name {
            "str" => Pure(PureFn::Str),
            "upper" => Pure(PureFn::Upper),
            "lower" => Pure(PureFn::Lower),
            "concat" => Pure(PureFn::Concat),
            "contains" => Pure(PureFn::Contains),
            "starts_with" => Pure(PureFn::StartsWith),
            "substr" => Pure(PureFn::Substr),
            "len_str" => Pure(PureFn::LenStr),
            "abs" => Pure(PureFn::Abs),
            "min" => Pure(PureFn::Min),
            "max" => Pure(PureFn::Max),
            "is_null" => Pure(PureFn::IsNull),
            "not_null" => Pure(PureFn::NotNull),
            "to_int" => Pure(PureFn::ToInt),
            "len" | "nrows" => EagerRead(ReadFn::Len),
            "at" => EagerRead(ReadFn::At),
            "cell" => EagerRead(ReadFn::Cell),
            "first" => EagerRead(ReadFn::First),
            "obj_get" => EagerRead(ReadFn::ObjGet),
            "has_field" => EagerRead(ReadFn::HasField),
            "push" => HeapWrite(HeapFn::Push),
            "obj_put" => HeapWrite(HeapFn::ObjPut),
            "clear" => HeapWrite(HeapFn::Clear),
            "print" | "write" | "render" | "log" => External,
            "query" => Query(QueryFn::Query),
            "orm_find" => Query(QueryFn::OrmFind),
            "orm_assoc" => Query(QueryFn::OrmAssoc),
            "orm_find_where" => Query(QueryFn::OrmFindWhere),
            "orm_find_all" => Query(QueryFn::OrmFindAll),
            "orm_count_where" => Query(QueryFn::OrmCountWhere),
            ASSOC_ROWS => Query(QueryFn::OrmAssocRows),
            "exec" => WriteQuery(WriteFn::Exec),
            "orm_save" => WriteQuery(WriteFn::OrmSave),
            "orm_update" => WriteQuery(WriteFn::OrmUpdate),
            "orm_delete" => WriteQuery(WriteFn::OrmDelete),
            "commit" => WriteQuery(WriteFn::Commit),
            "begin" => WriteQuery(WriteFn::Begin),
            "rollback" => WriteQuery(WriteFn::Rollback),
            _ => return None,
        })
    }

    /// What a call of this builtin forces and what it touches.
    pub(crate) fn sig(self) -> &'static Sig {
        use Builtin::*;
        match self {
            Pure(_) => &SIG_PURE,
            EagerRead(ReadFn::Len | ReadFn::First) => &SIG_LEN,
            EagerRead(ReadFn::At) => &SIG_AT,
            EagerRead(ReadFn::Cell) => &SIG_CELL,
            EagerRead(ReadFn::ObjGet) => &SIG_OBJ_GET,
            EagerRead(ReadFn::HasField) => &SIG_HAS_FIELD,
            HeapWrite(HeapFn::Push) => &SIG_PUSH,
            HeapWrite(HeapFn::Clear) => &SIG_CLEAR,
            HeapWrite(HeapFn::ObjPut) => &SIG_OBJ_PUT,
            External => &SIG_PRINT,
            Query(QueryFn::Query) => &SIG_QUERY,
            Query(QueryFn::OrmFind) => &SIG_FIND,
            Query(QueryFn::OrmAssoc) => &SIG_ASSOC,
            Query(QueryFn::OrmFindWhere | QueryFn::OrmCountWhere) => &SIG_FIND_WHERE,
            Query(QueryFn::OrmFindAll) => &SIG_FIND_ALL,
            Query(QueryFn::OrmAssocRows) => &SIG_ASSOC_ROWS,
            WriteQuery(WriteFn::Exec) => &SIG_EXEC,
            WriteQuery(WriteFn::OrmSave | WriteFn::OrmDelete) => &SIG_SAVE,
            WriteQuery(WriteFn::OrmUpdate) => &SIG_UPDATE,
            WriteQuery(WriteFn::Commit | WriteFn::Begin | WriteFn::Rollback) => &SIG_BOUNDARY,
        }
    }
}

/// The callee guard hoisting wraps the condition of an `if (nrows(q) >
/// 0)` in when the head of its then-arm registers where the `if` stands:
/// `ROW_GUARD(q, condition, n)`, `n` being the number of statements of
/// that head (see `hoist.rs`). The lexer cannot spell the name, so no
/// source program calls it; `resolve` lowers the `if` to a form of its
/// own, and to every analysis that runs in between it is a call of no
/// effect.
pub(crate) const ROW_GUARD: &str = "if@rows";

/// The callee guard hoisting lowers a 1+N association loop to:
/// `ASSOC_ROWS(base, "a")` is the list `[orm_assoc(at(base, 0), "a"), …]`
/// the loop pushes, registered as one each-row dependant of the list read
/// `base` (see `hoist.rs`). Like [`ROW_GUARD`] no source program can
/// spell it.
pub(crate) const ASSOC_ROWS: &str = "assoc@rows";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Function, Lit, Program, Stmt};
    use crate::interp::{prepare_with_schema, ExecStrategy};
    use crate::opt::OptFlags;
    use crate::runtime::DataLayer;
    use sloth_core::FlushReason;
    use sloth_net::SimEnv;
    use sloth_orm::{entity, many_to_one, FetchStrategy, Schema};
    use sloth_sql::ast::ColumnType::Int;
    use std::sync::Arc;

    /// Every builtin, by one of its names.
    const NAMES: &[&str] = &[
        "str",
        "upper",
        "lower",
        "concat",
        "contains",
        "starts_with",
        "substr",
        "len_str",
        "abs",
        "min",
        "max",
        "is_null",
        "not_null",
        "to_int",
        "len",
        "at",
        "cell",
        "first",
        "obj_get",
        "has_field",
        "push",
        "obj_put",
        "clear",
        "print",
        "query",
        "orm_find",
        "orm_assoc",
        "orm_find_where",
        "orm_find_all",
        "orm_count_where",
        ASSOC_ROWS,
        "exec",
        "orm_save",
        "orm_update",
        "orm_delete",
        "commit",
        "begin",
        "rollback",
    ];

    fn sig(name: &str) -> &'static Sig {
        Builtin::from_name(name).unwrap().sig()
    }

    #[test]
    fn classification_spot_checks() {
        assert!(sig("str").effect.pure());
        assert!(sig("at").delayed_read());
        assert!(!sig("obj_get").delayed_read());
        assert_eq!(sig("push").effect.heap, Heap::List(0));
        assert!(sig("print").effect.output);
        assert_eq!(sig("orm_find").effect.db, Db::Read);
        assert_eq!(sig("query").effect.db, Db::Text);
        assert_eq!(sig("commit").effect.db, Db::Boundary);
        assert_eq!(Builtin::from_name("my_user_fn"), None);
        assert_eq!(Builtin::from_name("nrows"), Builtin::from_name("len"));
        assert_eq!(Builtin::from_name("log"), Some(Builtin::External));
        assert_eq!(Builtin::from_name(ROW_GUARD), None);
        assert_eq!(sig(ASSOC_ROWS).effect.db, Db::Read);
    }

    #[test]
    fn persistence_and_purity() {
        for name in NAMES {
            let pure = matches!(Builtin::from_name(name), Some(Builtin::Pure(_)));
            assert_eq!(sig(name).effect.pure(), pure, "{name}");
        }
        assert!(sig("query").effect.impure());
        assert!(sig("orm_save").effect.impure());
        assert!(sig("push").effect.impure());
        assert!(sig("print").effect.impure());
        // A heap read is neither: it forces, but changes nothing.
        assert!(!sig("len").effect.impure() && !sig("len").effect.pure());
        assert!(!sig("push").reads_only(0) && sig("len").reads_only(0));
    }

    /// Plain arguments of the kinds a call of `name` takes.
    fn plain_args(name: &str) -> Vec<Expr> {
        let s = |v: &str| Expr::Lit(Lit::Str(v.into()));
        let i = |v| Expr::Lit(Lit::Int(v));
        let list = |items| Expr::NewList(items);
        match name {
            "orm_find" | "orm_delete" => vec![s("item"), i(1)],
            "orm_find_where" | "orm_count_where" => vec![s("item"), s("v"), i(1)],
            "orm_find_all" => vec![s("item")],
            "orm_assoc" | ASSOC_ROWS => vec![Expr::Lit(Lit::Null), s("owner")],
            "orm_save" => vec![s("item"), list(vec![i(9), i(1), i(1)])],
            "orm_update" => vec![s("item"), i(1), s("v"), i(2)],
            "commit" | "begin" | "rollback" => vec![],
            "push" => vec![list(vec![]), i(1)],
            "clear" | "len" | "first" => vec![list(vec![])],
            "at" => vec![list(vec![i(1)]), i(0)],
            "cell" => vec![list(vec![]), i(0), s("v")],
            "obj_get" | "has_field" => vec![Expr::NewObject(vec![]), s("f")],
            "obj_put" => vec![Expr::NewObject(vec![]), s("f"), i(1)],
            "query" => vec![s("SELECT v FROM item WHERE id = 2")],
            "exec" => vec![s("UPDATE item SET v = 3 WHERE id = 2")],
            _ => vec![i(1), i(2), i(3)],
        }
    }

    /// What forcing ships first in `main() { let q = query(…); let p =
    /// len(q); let x = call; … if (nrows(m) > 0) {} }`, run lazily: the
    /// demand `p` is forced for, or the condition's when nothing forced it.
    fn first_force(call: Expr) -> Option<FlushReason> {
        let s = |v: &str| Expr::Lit(Lit::Str(v.into()));
        let call_of = |f: &str, args| Expr::Call(f.into(), args);
        let var = |v: &str| Expr::Var(v.into());
        let body = vec![
            Stmt::Let(
                "q".into(),
                call_of("query", vec![s("SELECT v FROM item WHERE id = 1")]),
            ),
            Stmt::Let("p".into(), call_of("len", vec![var("q")])),
            Stmt::Let("x".into(), call),
            Stmt::Let(
                "m".into(),
                call_of("query", vec![s("SELECT v FROM item WHERE id = 3")]),
            ),
            Stmt::If(
                Expr::Binary(
                    crate::ast::BinOp::Gt,
                    Box::new(call_of("len", vec![var("m")])),
                    Box::new(Expr::Lit(Lit::Int(0))),
                ),
                vec![],
                vec![],
            ),
        ];
        let program = Program {
            functions: vec![Function {
                name: "main".into(),
                params: vec![],
                body,
            }],
        };
        let mut schema = Schema::new();
        schema.add(entity(
            "item",
            "item",
            "id",
            &[("id", Int), ("v", Int), ("owner_id", Int)],
            vec![many_to_one(
                "owner",
                "item",
                "owner_id",
                FetchStrategy::Lazy,
            )],
        ));
        let schema = Arc::new(schema);
        let env = SimEnv::default_env();
        env.seed_sql("CREATE TABLE item (id INT PRIMARY KEY, v INT, owner_id INT)")
            .unwrap();
        env.seed_sql("INSERT INTO item VALUES (1, 10, 2), (2, 20, 1), (3, 30, 1)")
            .unwrap();
        let flags = OptFlags {
            coalesce: false,
            hoist: false,
            ..OptFlags::all()
        };
        let page = prepare_with_schema(&program, ExecStrategy::Sloth(flags), Some(&schema));
        let data = DataLayer::deferred(env, schema);
        // The call may fail once its arguments are forced: what matters is
        // what it forced.
        let _ = page.run_with(data.clone(), vec![]);
        let reasons = data.store.as_ref().unwrap().stats().flush_reasons;
        reasons
            .into_iter()
            .find(|r| matches!(r, FlushReason::Force(_)))
    }

    #[test]
    fn every_builtin_forces_what_its_signature_says() {
        for name in NAMES {
            let args = plain_args(name);
            for i in 0..args.len() {
                let mut args = args.clone();
                args[i] = Expr::Var("p".into());
                let want = match sig(name).arg(i) {
                    Arg::Keep => Demand::Condition,
                    Arg::Force(why) | Arg::Unfetched(why) => why,
                };
                let call = Expr::Call(name.to_string(), args);
                assert_eq!(
                    first_force(call),
                    Some(FlushReason::Force(want)),
                    "{name}, argument {i}"
                );
            }
        }
    }
}
