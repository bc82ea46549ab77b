//! Dynamically typed SQL values and result sets.
//!
//! The engine is dynamically typed like MySQL: every cell holds a [`Value`].
//! Values form a total order (`NULL < BOOL < numbers < strings`) so they can
//! be used as index keys and in `ORDER BY` without panicking on mixed types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single SQL cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// `BOOL` column value.
    Bool(bool),
    /// 64-bit signed integer (`INT`).
    Int(i64),
    /// 64-bit float (`FLOAT`/`DOUBLE`).
    Float(f64),
    /// UTF-8 string (`TEXT`/`VARCHAR`).
    Str(String),
}

impl Value {
    /// Returns `true` when the value is SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness used by `WHERE` evaluation: `NULL`/`false`/`0` are false.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// Numeric view used for arithmetic and comparisons; `None` for
    /// non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view; floats are truncated, `None` for non-numeric values.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// String view (`None` unless the value is a string).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate wire size in bytes, used by the network cost model.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() + 4,
        }
    }

    /// Rank used for cross-type total ordering.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Total ordering: `NULL < BOOL < numeric < string`; numbers compare
    /// exactly, as [`Value::sql_eq`] does: two integers as integers, an
    /// integer and an integral float as integers, two floats as `f64`s.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => match (Num::of(self), Num::of(other)) {
                (Some(a), Some(b)) => a.cmp(b),
                _ => Ordering::Equal,
            },
        }
    }

    /// SQL equality (used by `=`): numeric values compare numerically and
    /// exactly, so `1 = 1.0` and `TRUE = 1` hold while two integers past
    /// 2^53 that one `f64` rounds them to stay apart. `NULL` never equals
    /// anything, including itself, and neither does NaN.
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        match (Num::of(self), Num::of(other)) {
            (Some(Num::Float(a)), Some(Num::Float(b))) => a == b,
            (Some(a), Some(b)) => a.cmp(b) == Ordering::Equal,
            _ => self == other,
        }
    }

    /// Renders the value as a SQL literal (single quotes with `''`
    /// escaping, matching the lexer). The single source of truth for
    /// literal rendering — the ORM's SQL generator and the fusion
    /// renderer both delegate here, which keeps generated SQL
    /// byte-identical across layers (in-batch dedup depends on that).
    pub fn sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }
}

/// A number as `=` and `<` see it: a boolean or an integer as its `i64`,
/// a float as its `f64`.
#[derive(Debug, Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

impl Num {
    fn of(v: &Value) -> Option<Num> {
        match v {
            Value::Int(i) => Some(Num::Int(*i)),
            Value::Bool(b) => Some(Num::Int(*b as i64)),
            Value::Float(f) => Some(Num::Float(*f)),
            _ => None,
        }
    }

    /// `self` against `other`, exactly: two integers as integers, an
    /// integer and an integral float as the integer the float equals (its
    /// canonical form, [`integral`]), two floats by `f64::total_cmp`.
    fn cmp(self, other: Num) -> Ordering {
        match (self, other) {
            (Num::Int(a), Num::Int(b)) => a.cmp(&b),
            (Num::Int(i), Num::Float(f)) => int_float(i, f),
            (Num::Float(f), Num::Int(i)) => int_float(i, f).reverse(),
            (Num::Float(a), Num::Float(b)) => a.total_cmp(&b),
        }
    }
}

/// `i` against `f`. Rounding `i` to `f64` keeps it on its side of any `f`
/// that no `i64` equals, except at 2^63, which it may reach.
fn int_float(i: i64, f: f64) -> Ordering {
    match integral(f) {
        Some(j) => i.cmp(&j),
        None => match (i as f64).total_cmp(&f) {
            Ordering::Equal => Ordering::Less,
            ord => ord,
        },
    }
}

/// The `i64` an integral float equals, `-0.0` included; `None` for any
/// other float, and past either end of `i64`.
pub(crate) fn integral(f: f64) -> Option<i64> {
    let in_range = f >= i64::MIN as f64 && f < i64::MAX as f64;
    (f.fract() == 0.0 && in_range).then_some(f as i64)
}

impl Value {
    /// The value as text, unquoted: what the kernel language's `str`
    /// prints of it (`null`, `true`, `3`, `2.5`, the string itself). A
    /// raw-spliced reference binds through this, so the statement it builds
    /// is the one the program's own `"…" + str(x) + "…"` builds.
    pub fn text(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// One row of a table or result set.
pub type Row = Vec<Value>;

/// The column [`ResultSet::from_parts`] tags each row with: its part.
const PART_COLUMN: &str = "@part";

/// A query result: named columns plus rows, in deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResultSet {
    /// Column names, unqualified (`id`, `name`, …).
    pub columns: Vec<String>,
    /// Row data; every row has `columns.len()` cells.
    pub rows: Vec<Row>,
    /// For [`ResultSet::no_parent_row`], what forcing the skipped
    /// statement raises. Never charged as wire bytes.
    skipped: Option<Arc<str>>,
}

impl ResultSet {
    /// Builds a result set, asserting rectangular shape in debug builds.
    pub fn new(columns: Vec<String>, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == columns.len()));
        ResultSet {
            columns,
            rows,
            skipped: None,
        }
    }

    /// An empty result set with no columns (used for DML statements).
    pub fn empty() -> Self {
        ResultSet::default()
    }

    /// What a dependent statement answers when a hole found no row to
    /// fill it from (see [`crate::Bound::Skip`]): no columns, no rows, and
    /// `why`, what forcing the statement raises — so the caller can tell
    /// "my parent was missing" from "I matched nothing".
    pub fn no_parent_row(why: Arc<str>) -> Self {
        ResultSet {
            skipped: Some(why),
            ..ResultSet::default()
        }
    }

    /// What forcing the statement raises, when this is
    /// [`ResultSet::no_parent_row`].
    pub fn skipped(&self) -> Option<&Arc<str>> {
        self.skipped.as_ref()
    }

    /// The answer of a bound each-row statement ([`crate::Stmt::members`]):
    /// part `j`, what member `j` answers, in one result set whose rows
    /// lead with the part they belong to ([`ResultSet::parts`] splits it
    /// back).
    pub fn from_parts(parts: &[ResultSet]) -> Self {
        let mut columns = vec![PART_COLUMN.to_string()];
        if let Some(first) = parts.first() {
            columns.extend(first.columns.iter().cloned());
        }
        let rows = parts.iter().enumerate().flat_map(|(j, part)| {
            part.rows.iter().map(move |row| {
                let mut tagged = Vec::with_capacity(row.len() + 1);
                tagged.push(Value::Int(j as i64));
                tagged.extend(row.iter().cloned());
                tagged
            })
        });
        ResultSet::new(columns, rows.collect())
    }

    /// The `n` parts [`ResultSet::from_parts`] joined, in order; a part
    /// without rows keeps the header.
    pub fn parts(&self, n: usize) -> Vec<ResultSet> {
        let columns: Vec<String> = self.columns.iter().skip(1).cloned().collect();
        let mut parts = vec![ResultSet::new(columns, Vec::new()); n];
        for row in &self.rows {
            let part = match row.first() {
                Some(Value::Int(j)) => parts.get_mut(*j as usize),
                _ => None,
            };
            if let Some(part) = part {
                part.rows.push(row[1..].to_vec());
            }
        }
        parts
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by name (case-insensitive), if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Cell lookup by row index and column name.
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let c = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(c))
    }

    /// Approximate wire size of the whole result set in bytes.
    pub fn wire_size(&self) -> usize {
        let header: usize = self.columns.iter().map(|c| c.len() + 2).sum();
        let data: usize = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::wire_size).sum::<usize>())
            .sum();
        header + data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(3).is_truthy());
        assert!(!Value::Str(String::new()).is_truthy());
        assert!(Value::Str("x".into()).is_truthy());
    }

    #[test]
    fn cross_type_total_order() {
        let mut vals = vec![
            Value::Str("a".into()),
            Value::Int(2),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(1.5),
                Value::Int(2),
                Value::Str("a".into()),
            ]
        );
    }

    #[test]
    fn integers_compare_exactly_past_two_to_the_53() {
        let (a, b) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert!(!a.sql_eq(&b));
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        // An integral float compares as the integer it equals.
        let f = Value::Float((1u64 << 53) as f64);
        assert!(f.sql_eq(&a) && !f.sql_eq(&b));
        assert_eq!(f.total_cmp(&b), Ordering::Less);
        assert_eq!(b.total_cmp(&f), Ordering::Greater);
        assert!(Value::Int(0).sql_eq(&Value::Float(-0.0)));
        // 2^63 is past every `i64`, though `i64::MAX` rounds to it.
        let top = Value::Float(9_223_372_036_854_775_808.0);
        assert!(!Value::Int(i64::MAX).sql_eq(&top));
        assert_eq!(Value::Int(i64::MAX).total_cmp(&top), Ordering::Less);
        assert!(!Value::Int(1).sql_eq(&Value::Float(f64::NAN)));
    }

    #[test]
    fn sql_eq_numeric_coercion() {
        assert!(Value::Int(1).sql_eq(&Value::Float(1.0)));
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(Value::Str("a".into()).sql_eq(&Value::Str("a".into())));
        assert!(!Value::Str("a".into()).sql_eq(&Value::Int(1)));
    }

    #[test]
    fn result_set_lookup() {
        let rs = ResultSet::new(
            vec!["id".into(), "name".into()],
            vec![vec![Value::Int(1), Value::Str("x".into())]],
        );
        assert_eq!(rs.get(0, "ID"), Some(&Value::Int(1)));
        assert_eq!(rs.get(0, "name"), Some(&Value::Str("x".into())));
        assert_eq!(rs.get(1, "name"), None);
        assert_eq!(rs.get(0, "missing"), None);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn wire_sizes_monotone() {
        let small = ResultSet::new(vec!["a".into()], vec![vec![Value::Int(1)]]);
        let big = ResultSet::new(
            vec!["a".into()],
            vec![vec![Value::Int(1)], vec![Value::Str("hello world".into())]],
        );
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn float_eq_by_bits() {
        assert_eq!(Value::Float(1.0), Value::Float(1.0));
        assert_ne!(Value::Float(1.0), Value::Float(2.0));
    }
}
