//! Dynamically typed SQL values and result sets.
//!
//! The engine is dynamically typed like MySQL: every cell holds a [`Value`].
//! Values form a total order (`NULL < BOOL < numbers < strings`) so they can
//! be used as index keys and in `ORDER BY` without panicking on mixed types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

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

    /// Total ordering: `NULL < BOOL < numeric < string`; ints and floats
    /// compare numerically within the numeric rank.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => {
                let a = self.as_f64().unwrap_or(0.0);
                let b = other.as_f64().unwrap_or(0.0);
                a.total_cmp(&b)
            }
        }
    }

    /// SQL equality (used by `=`): numeric values compare numerically, so
    /// `1 = 1.0` holds. `NULL` never equals anything, including itself.
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a == b,
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

/// A query result: named columns plus rows, in deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResultSet {
    /// Column names, unqualified (`id`, `name`, …).
    pub columns: Vec<String>,
    /// Row data; every row has `columns.len()` cells.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Builds a result set, asserting rectangular shape in debug builds.
    pub fn new(columns: Vec<String>, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == columns.len()));
        ResultSet { columns, rows }
    }

    /// An empty result set with no columns (used for DML statements).
    pub fn empty() -> Self {
        ResultSet::default()
    }

    /// What a dependent statement answers when its parent produced no
    /// row to take the parameter from (see [`crate::stmt::Param::Ref`]):
    /// no columns at all, which no executed `SELECT` returns — so the
    /// caller can tell "my parent was missing" from "I matched nothing".
    pub fn no_parent_row() -> Self {
        ResultSet::default()
    }

    /// Whether this is [`ResultSet::no_parent_row`].
    pub fn is_no_parent_row(&self) -> bool {
        self.columns.is_empty()
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
