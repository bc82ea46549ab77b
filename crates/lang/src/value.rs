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

use crate::ast::{BinOp, Lit, UnOp};
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
    /// deserialize it. A dependant skipped for a missing parent row
    /// raises the text its answer carries: what forcing the parent first
    /// would have raised.
    Query {
        /// Registered query id.
        id: sloth_core::QueryId,
        /// How to turn the result set into a value.
        deser: Deser,
        /// Associations fetched through this row while it was still
        /// unfetched, as `(memo field, value)`: the entity object takes
        /// them over when it materializes, so the `__assoc_*` memo holds
        /// before and after the fetch. For a list read, the value is an
        /// each-row read's list (`Deser::EachRow`, never handed out):
        /// element `j` takes row `j`'s value of it.
        assocs: Vec<(String, V)>,
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
    /// Run a whole deferred statement block (thunk coalescing, §4.3);
    /// outputs are read from the shared driver afterwards.
    Block {
        /// The shared block driver (one per deferred region).
        driver: Rc<BlockDriver>,
        /// Which of the block's outputs this projection reads.
        output: usize,
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
    /// A value whose computation failed, forced again: it fails alike. Also
    /// an `orm_assoc` on a row nobody has fetched that turned out missing
    /// (or failed) before the association could register as its
    /// dependant: it fails where it is demanded, as the dependant would.
    Failed(RunError),
}

/// Shared state of one deferred statement block (§4.3): which block,
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

impl Pending {
    /// Registered query `id`'s value, deserialized by `deser`.
    pub(crate) fn query(id: sloth_core::QueryId, deser: Deser) -> Pending {
        Pending::Query {
            id,
            deser,
            assocs: Vec::new(),
        }
    }
}

/// Deserialization applied to a fetched result set.
#[derive(Clone)]
pub(crate) enum Deser {
    /// Keep the raw result set.
    Raw,
    /// Single entity (or null) of the named entity type.
    EntityOpt(Rc<str>),
    /// List of entities of the named entity type.
    EntityList(Rc<str>),
    /// Scalar from row 0, column 0 (aggregates).
    Scalar,
    /// One column of row 0 — a field read on an entity nobody has fetched
    /// yet. It reads the immutable result row, not the heap object: no
    /// object existed when the read was evaluated, so no later field
    /// write can reach it. No row raises the read on `null`.
    Field(Rc<str>),
    /// An each-row association read's answer: the list of every parent
    /// row's value (`None`) or row `j`'s alone (`Some(j)`), all read from
    /// one deserialization.
    EachRow(Rc<EachRow>, Option<usize>),
}

/// What the values of one each-row association read share: one value per
/// row of the list read it hangs off, deserialized once. The list the
/// program holds is a fresh list of them, and each row's `__assoc_*`
/// memo one of them, so a heap write to one is seen through the other as
/// under the loop the read stands for, and a `push` to the list is not.
pub(crate) struct EachRow {
    /// The list read whose rows key it.
    pub parent: sloth_core::QueryId,
    /// How each row's value deserializes: one entity or `null`, or a
    /// collection.
    pub deser: Deser,
    /// One value per parent row, once deserialized.
    pub values: RefCell<Option<Vec<V>>>,
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

/// Applies `op` to two forced values; `text` shows an operand of a
/// concatenation. The evaluator shows it as `str` does, forcing what a
/// list or object holds; a hole of pending text holds scalars only. Out
/// of line: inlined, it slows the loops that force delayed operators.
#[inline(never)]
pub(crate) fn binop(
    op: BinOp,
    a: &V,
    b: &V,
    mut text: impl FnMut(&V) -> Result<String, RunError>,
) -> Result<V, RunError> {
    use BinOp::*;
    if let (V::Int(x), V::Int(y)) = (a, b) {
        return int_binop(op, *x, *y);
    }
    Ok(match op {
        Add => match (a, b) {
            (V::Str(_), _) | (_, V::Str(_)) => V::str(text(a)? + &text(b)?),
            _ => V::Float(num(a)? + num(b)?),
        },
        Sub => V::Float(num(a)? - num(b)?),
        Mul => V::Float(num(a)? * num(b)?),
        Div => {
            let d = num(b)?;
            if d == 0.0 {
                return Err(RunError::new("division by zero"));
            }
            V::Float(num(a)? / d)
        }
        Mod => return Err(RunError::new("modulo needs integers")),
        Eq => V::Bool(values_eq(a, b)),
        Ne => V::Bool(!values_eq(a, b)),
        Lt => V::Bool(compare(a, b)?.is_lt()),
        Le => V::Bool(compare(a, b)?.is_le()),
        Gt => V::Bool(compare(a, b)?.is_gt()),
        Ge => V::Bool(compare(a, b)?.is_ge()),
        And => V::Bool(a.truthy() && b.truthy()),
        Or => V::Bool(a.truthy() || b.truthy()),
    })
}

/// Applies `op` to two integers. Ordering goes through `f64` exactly as
/// [`compare`] orders any two numbers.
#[inline]
pub(crate) fn int_binop(op: BinOp, x: i64, y: i64) -> Result<V, RunError> {
    use BinOp::*;
    let ord = || (x as f64).total_cmp(&(y as f64));
    Ok(match op {
        Add => V::Int(x.wrapping_add(y)),
        Sub => V::Int(x.wrapping_sub(y)),
        Mul => V::Int(x.wrapping_mul(y)),
        Div if y == 0 => return Err(RunError::new("division by zero")),
        Div => V::Int(x.wrapping_div(y)),
        Mod if y == 0 => return Err(RunError::new("modulo by zero")),
        Mod => V::Int(x.wrapping_rem(y)),
        Eq => V::Bool(x == y),
        Ne => V::Bool(x != y),
        Lt => V::Bool(ord().is_lt()),
        Le => V::Bool(ord().is_le()),
        Gt => V::Bool(ord().is_gt()),
        Ge => V::Bool(ord().is_ge()),
        // `eval` short-circuits these before any operand pair gets here.
        And => V::Bool(x != 0 && y != 0),
        Or => V::Bool(x != 0 || y != 0),
    })
}

/// Applies `op` to a forced value.
#[inline]
pub(crate) fn unop(op: UnOp, a: &V) -> Result<V, RunError> {
    match (op, a) {
        (UnOp::Not, a) => Ok(V::Bool(!a.truthy())),
        (UnOp::Neg, V::Int(i)) => Ok(V::Int(i.wrapping_neg())),
        (UnOp::Neg, V::Float(f)) => Ok(V::Float(-f)),
        (UnOp::Neg, other) => Err(RunError::new(format!("cannot negate {other:?}"))),
    }
}

/// `cell(rs, i, c)`.
pub(crate) fn cell_of(rs: &ResultSet, i: i64, c: &str) -> Result<V, RunError> {
    rs.get(i as usize, c)
        .map(V::from_sql)
        .ok_or_else(|| RunError::new(format!("no cell [{i}].{c}")))
}

/// The text `str` makes of a scalar: the SQL value's, so text pending on a
/// row binds to the bytes the program would have built.
pub(crate) fn scalar_text(v: &V) -> String {
    match v {
        V::Str(s) => s.to_string(),
        v => v.to_sql().text(),
    }
}

#[inline]
pub(crate) fn lit_to_v(l: &Lit) -> V {
    match l {
        Lit::Null => V::Null,
        Lit::Bool(b) => V::Bool(*b),
        Lit::Int(i) => V::Int(*i),
        Lit::Float(f) => V::Float(*f),
        Lit::Str(s) => V::str(s),
    }
}

fn num(v: &V) -> Result<f64, RunError> {
    match v {
        V::Int(i) => Ok(*i as f64),
        V::Float(f) => Ok(*f),
        V::Bool(b) => Ok(*b as i64 as f64),
        other => Err(RunError::new(format!("expected number, got {other:?}"))),
    }
}

#[inline]
pub(crate) fn int(v: &V) -> Result<i64, RunError> {
    match v {
        V::Int(i) => Ok(*i),
        V::Float(f) => Ok(*f as i64),
        other => Err(RunError::new(format!("expected int, got {other:?}"))),
    }
}

fn values_eq(a: &V, b: &V) -> bool {
    match (a, b) {
        (V::Null, V::Null) => true,
        (V::Bool(x), V::Bool(y)) => x == y,
        (V::Int(x), V::Int(y)) => x == y,
        (V::Float(x), V::Float(y)) => x == y,
        (V::Int(x), V::Float(y)) | (V::Float(y), V::Int(x)) => *x as f64 == *y,
        (V::Str(x), V::Str(y)) => x == y,
        (V::List(x), V::List(y)) => Rc::ptr_eq(x, y),
        (V::Obj(x), V::Obj(y)) => Rc::ptr_eq(x, y),
        (V::Rs(x), V::Rs(y)) => Rc::ptr_eq(x, y),
        _ => false,
    }
}

#[inline]
pub(crate) fn compare(a: &V, b: &V) -> Result<std::cmp::Ordering, RunError> {
    match (a, b) {
        (V::Str(x), V::Str(y)) => Ok(x.cmp(y)),
        _ => {
            let (x, y) = (num(a)?, num(b)?);
            Ok(x.total_cmp(&y))
        }
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
