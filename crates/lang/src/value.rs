//! Runtime values of the kernel-language interpreters.
//!
//! `V` is shared by the standard and lazy interpreters; only the lazy one
//! ever constructs [`V::Thunk`]. Objects and lists are reference-typed
//! (shared mutable heap cells), matching Java semantics.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use sloth_sql::ResultSet;

use crate::ast::{BinOp, UnOp};
use crate::builtins::{PureFn, ReadFn};
use crate::resolve::Slot;
use crate::runtime::RunError;

/// A runtime value.
#[derive(Clone)]
pub enum V {
    /// `null`
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Immutable string.
    Str(Rc<str>),
    /// Mutable list (Java `List`).
    List(Rc<RefCell<Vec<V>>>),
    /// Mutable object (entity, model map, proxy…).
    Obj(Rc<RefCell<BTreeMap<String, V>>>),
    /// A SQL result set handle.
    Rs(Rc<ResultSet>),
    /// A delayed computation (lazy interpreter only).
    Thunk(LazyVal),
}

/// State of a lazy value.
pub(crate) enum LazyState {
    /// Evaluated, memoized.
    Done(V),
    /// Not yet evaluated; the payload is interpreted by the lazy
    /// interpreter (it owns the evaluation logic).
    Pending(Pending),
    /// Currently being forced (re-entrancy guard).
    InFlight,
}

/// What a pending thunk will do when forced. The lazy interpreter constructs
/// and consumes these; they are defined here so `V` can embed them. Code is
/// named by index into the compiled page ([`crate::resolve`]), so a value
/// borrows nothing from it.
pub(crate) enum Pending {
    /// Apply a binary operator to two captured (possibly thunked) operands.
    Binary(BinOp, V, V),
    /// Apply a unary operator to a captured (possibly thunked) operand.
    Unary(UnOp, V),
    /// Fetch a registered query's result from the query store and
    /// deserialize it.
    Query {
        /// Registered query id.
        id: sloth_core::QueryId,
        /// How to turn the result set into a value.
        deser: Deser,
        /// For a dependent query — one whose key is a column of another
        /// query's row, registered without fetching that row: where the
        /// key comes from, so a missing parent row raises what forcing
        /// the parent first would have raised.
        dep: Option<Rc<Dep>>,
        /// Associations fetched through this row while it was still
        /// unfetched, as `(memo field, value)`: the entity object takes
        /// them over when it materializes, so the `__assoc_*` memo holds
        /// before and after the fetch.
        assocs: Vec<(String, V)>,
    },
    /// Read one column of the first row of a registered single-row query
    /// — a field read on an entity nobody has fetched yet. Reads the
    /// immutable result row, not the heap object: no object existed when
    /// the read was evaluated, so no later field write can reach it.
    QueryField {
        /// The query whose row is read.
        id: sloth_core::QueryId,
        /// The column.
        column: Rc<str>,
        /// That query's own dependence, if it has one.
        up: Option<Rc<Dep>>,
    },
    /// A `len` / `nrows`, `cell`, `at` or `first` of a raw result set
    /// nobody has fetched yet. Runs the read when it is demanded: no
    /// builtin writes a result set, so the rows it reads are the ones
    /// the query answered, whenever that is.
    ResultRead {
        /// The read.
        func: ReadFn,
        /// Its (possibly thunked) arguments, the unfetched query first.
        args: Vec<V>,
    },
    /// Run a whole deferred statement block (branch deferral / thunk
    /// coalescing §4.2–4.3); outputs are read from the shared driver
    /// afterwards.
    Block {
        /// The shared block driver (one per deferred region).
        driver: Rc<BlockDriver>,
        /// Which of the block's outputs this projection reads (`None` =
        /// drive only).
        output: Option<usize>,
    },
    /// Call of a pure user function with already-evaluated (possibly
    /// thunked) arguments.
    Call {
        /// Index of the function in the compiled page.
        func: u32,
        /// Argument values.
        args: Vec<V>,
    },
    /// Call of a pure builtin with already-evaluated arguments.
    Builtin {
        /// The builtin.
        func: PureFn,
        /// Argument values.
        args: Vec<V>,
    },
    /// An `orm_assoc` on a row nobody has fetched that turned out missing
    /// (or failed) before the association could register as its
    /// dependant: it fails where it is demanded, as the dependant would.
    Failed(RunError),
}

/// Where a dependent query's key comes from: one link of a chain, by
/// query id (no thunk is held, so a chain keeps nothing alive).
pub(crate) struct Dep {
    /// The query whose first row supplies the key.
    pub parent: sloth_core::QueryId,
    /// What the program did to that row to get the key.
    pub how: DepKind,
    /// The parent's own link, when it is dependent too.
    pub up: Option<Rc<Dep>>,
}

/// The operation a dependent query's key stands for.
pub(crate) enum DepKind {
    /// A field read (`row.column`), later passed as a query key.
    Field(Rc<str>),
    /// An `orm_assoc` on the row.
    Assoc,
    /// `str(cell(rows, 0, column))` spliced between `head` and `tail` — a
    /// guarded read, whose parent is a raw result set.
    Cell {
        /// The column of the parent's first row.
        column: Rc<str>,
        /// The text before the splice.
        head: Rc<str>,
        /// The text after it.
        tail: Rc<str>,
    },
}

/// Shared state of one deferred statement block (§4.2–4.3): which block,
/// the captured environment, and the output values once driven.
pub(crate) struct BlockDriver {
    /// Index of the block in the compiled page.
    pub block: u32,
    /// Captured variable snapshot (the thunk environment σ), by slot.
    pub captured: Vec<(Slot, V)>,
    /// `None` until the block has run; then the value of each output, in
    /// the block's output order.
    pub results: RefCell<Option<Vec<V>>>,
}

/// Deserialization applied to a fetched result set.
pub(crate) enum Deser {
    /// Keep the raw result set.
    Raw,
    /// Single entity (or null) of the named entity type.
    EntityOpt(Rc<str>),
    /// List of entities of the named entity type.
    EntityList(Rc<str>),
    /// Scalar from row 0, column 0 (aggregates).
    Scalar,
}

/// A shared, memoizing lazy cell (clones share the cell).
#[derive(Clone)]
pub struct LazyVal(pub(crate) Rc<RefCell<LazyState>>);

impl LazyVal {
    /// Wraps a pending computation.
    pub(crate) fn pending(p: Pending) -> Self {
        LazyVal(Rc::new(RefCell::new(LazyState::Pending(p))))
    }

    /// Whether the value has been forced.
    pub fn is_done(&self) -> bool {
        matches!(&*self.0.borrow(), LazyState::Done(_))
    }
}

impl V {
    /// Makes a string value.
    pub fn str(s: impl AsRef<str>) -> V {
        V::Str(Rc::from(s.as_ref()))
    }

    /// Makes an empty object.
    pub fn new_obj() -> V {
        V::Obj(Rc::new(RefCell::new(BTreeMap::new())))
    }

    /// Makes a list from values.
    pub fn list(items: Vec<V>) -> V {
        V::List(Rc::new(RefCell::new(items)))
    }

    /// Java-ish truthiness: `null`/`false`/`0`/`""` are false; objects,
    /// lists and result sets are true.
    pub fn truthy(&self) -> bool {
        match self {
            V::Null => false,
            V::Bool(b) => *b,
            V::Int(i) => *i != 0,
            V::Float(f) => *f != 0.0,
            V::Str(s) => !s.is_empty(),
            V::List(_) | V::Obj(_) | V::Rs(_) => true,
            V::Thunk(_) => true, // callers force before testing
        }
    }

    /// Converts a SQL value into a runtime value.
    pub fn from_sql(v: &sloth_sql::Value) -> V {
        match v {
            sloth_sql::Value::Null => V::Null,
            sloth_sql::Value::Bool(b) => V::Bool(*b),
            sloth_sql::Value::Int(i) => V::Int(*i),
            sloth_sql::Value::Float(f) => V::Float(*f),
            sloth_sql::Value::Str(s) => V::str(s),
        }
    }

    /// Converts to a SQL value (for query construction); thunks must be
    /// forced first.
    pub fn to_sql(&self) -> sloth_sql::Value {
        match self {
            V::Null => sloth_sql::Value::Null,
            V::Bool(b) => sloth_sql::Value::Bool(*b),
            V::Int(i) => sloth_sql::Value::Int(*i),
            V::Float(f) => sloth_sql::Value::Float(*f),
            V::Str(s) => sloth_sql::Value::Str(s.to_string()),
            other => sloth_sql::Value::Str(other.display_shallow()),
        }
    }

    /// Display without forcing (thunks show as `<thunk>`): debugging aid.
    pub fn display_shallow(&self) -> String {
        match self {
            V::Null => "null".into(),
            V::Bool(b) => b.to_string(),
            V::Int(i) => i.to_string(),
            V::Float(f) => format!("{f}"),
            V::Str(s) => s.to_string(),
            V::List(xs) => format!("<list:{}>", xs.borrow().len()),
            V::Obj(_) => "<obj>".into(),
            V::Rs(rs) => format!("<rs:{}>", rs.len()),
            V::Thunk(t) => {
                if t.is_done() {
                    "<thunk:done>".into()
                } else {
                    "<thunk>".into()
                }
            }
        }
    }
}

impl fmt::Debug for V {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_shallow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!V::Null.truthy());
        assert!(!V::Int(0).truthy());
        assert!(V::Int(1).truthy());
        assert!(!V::str("").truthy());
        assert!(V::str("x").truthy());
        assert!(V::new_obj().truthy());
        assert!(V::list(vec![]).truthy());
    }

    #[test]
    fn sql_round_trip() {
        let vals = [
            sloth_sql::Value::Null,
            sloth_sql::Value::Int(5),
            sloth_sql::Value::Str("x".into()),
            sloth_sql::Value::Bool(true),
            sloth_sql::Value::Float(2.5),
        ];
        for v in vals {
            assert_eq!(V::from_sql(&v).to_sql(), v);
        }
    }

    #[test]
    fn clones_share_lists() {
        let l = V::list(vec![V::Int(1)]);
        let l2 = l.clone();
        if let V::List(xs) = &l {
            xs.borrow_mut().push(V::Int(2));
        }
        if let V::List(xs) = &l2 {
            assert_eq!(xs.borrow().len(), 2);
        }
    }
}
