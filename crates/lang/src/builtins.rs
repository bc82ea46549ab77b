//! Builtin ("external library") function classification.
//!
//! The Sloth compiler labels every callee (§3.4): internal pure methods are
//! deferred whole; internal methods with side effects run eagerly with thunk
//! arguments; external methods force everything; query methods register with
//! the query store. Builtins model the JDK / framework surface our kernel
//! programs use.

/// How a builtin behaves under lazy compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinKind {
    /// Pure computation — deferrable as a thunk (`str`, `upper`, …).
    Pure,
    /// Reads mutable state (heap / result sets) — executes at evaluation,
    /// forcing the receiver, like field and array reads (§3.6). The result
    /// may still contain thunks. Under lazy semantics a `len`, `at`, `cell`
    /// or `first` of a raw query nobody has fetched waits for its demand
    /// instead: nothing writes a result set.
    EagerRead,
    /// Mutates the heap — executes at evaluation; the written value may
    /// stay a thunk (§3.5 heap writes).
    HeapWrite,
    /// Externally visible side effect (console/HTTP output) — forces its
    /// arguments deeply and executes now (§3.4 external methods).
    External,
    /// Issues a read query — registers with the query store (§3.3).
    Query,
    /// Issues a write query / transaction boundary — flushes the store.
    WriteQuery,
}

/// A builtin, identified: what [`crate::resolve`] binds a callee name to at
/// `prepare` time, so the evaluator dispatches on a variant instead of
/// matching the name on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    /// A [`BuiltinKind::Pure`] helper.
    Pure(PureFn),
    /// A [`BuiltinKind::EagerRead`] of a collection, result set or object.
    EagerRead(ReadFn),
    /// A [`BuiltinKind::HeapWrite`].
    HeapWrite(HeapFn),
    /// `print` / `write` / `render` / `log` — all append to the response.
    External,
    /// A [`BuiltinKind::Query`].
    Query(QueryFn),
    /// A [`BuiltinKind::WriteQuery`].
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

    /// How this builtin behaves under lazy compilation.
    pub(crate) fn kind(self) -> BuiltinKind {
        match self {
            Builtin::Pure(_) => BuiltinKind::Pure,
            Builtin::EagerRead(_) => BuiltinKind::EagerRead,
            Builtin::HeapWrite(_) => BuiltinKind::HeapWrite,
            Builtin::External => BuiltinKind::External,
            Builtin::Query(_) => BuiltinKind::Query,
            Builtin::WriteQuery(_) => BuiltinKind::WriteQuery,
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

/// Looks up a builtin's kind by name; `None` means a user-defined function.
pub fn builtin_kind(name: &str) -> Option<BuiltinKind> {
    Builtin::from_name(name).map(Builtin::kind)
}

/// Whether calls to this builtin touch persistent data (for the §4.1
/// persistence analysis).
pub fn builtin_is_persistent(name: &str) -> bool {
    matches!(
        builtin_kind(name),
        Some(BuiltinKind::Query | BuiltinKind::WriteQuery)
    )
}

/// Whether this builtin is pure (for the purity analysis that feeds call
/// deferral and thunk coalescing).
pub fn builtin_is_pure(name: &str) -> bool {
    matches!(builtin_kind(name), Some(BuiltinKind::Pure))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_spot_checks() {
        assert_eq!(builtin_kind("str"), Some(BuiltinKind::Pure));
        assert_eq!(builtin_kind("at"), Some(BuiltinKind::EagerRead));
        assert_eq!(builtin_kind("push"), Some(BuiltinKind::HeapWrite));
        assert_eq!(builtin_kind("print"), Some(BuiltinKind::External));
        assert_eq!(builtin_kind("orm_find"), Some(BuiltinKind::Query));
        assert_eq!(builtin_kind("commit"), Some(BuiltinKind::WriteQuery));
        assert_eq!(builtin_kind("my_user_fn"), None);
        assert_eq!(Builtin::from_name("nrows"), Builtin::from_name("len"));
        assert_eq!(Builtin::from_name("log"), Some(Builtin::External));
        assert_eq!(builtin_kind(ROW_GUARD), None);
        assert_eq!(builtin_kind(ASSOC_ROWS), Some(BuiltinKind::Query));
    }

    #[test]
    fn persistence_and_purity() {
        assert!(builtin_is_persistent("query"));
        assert!(builtin_is_persistent("orm_save"));
        assert!(!builtin_is_persistent("print"));
        assert!(builtin_is_pure("upper"));
        assert!(!builtin_is_pure("push"));
    }
}
