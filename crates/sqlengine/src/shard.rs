//! Hash partitioning: the engine-level half of the sharded backend.
//!
//! A [`ShardSpec`] declares, per table, the column whose value decides
//! which shard owns a row (workload analyses of ORM applications show
//! template queries almost always carry such an obvious partition key —
//! TPC-C by warehouse/district, issue trackers by project/issue id,
//! medical records by patient/encounter id). Tables **without** a declared
//! key are *replicated*: every shard holds a full copy, so lookups and
//! joins against them stay shard-local.
//!
//! [`shard_of`] maps a key value to a shard by a deterministic canonical
//! hash: integers and integral floats hash identically (`1` and `1.0`
//! land on the same shard, mirroring [`Value::sql_eq`] numeric coercion),
//! so a row inserted through an `INT` column is always found again by a
//! predicate written with a float literal, and vice versa.
//!
//! [`Route::of`] derives how the statements of one template — a read, an
//! `UPDATE` or a `DELETE` — route under a spec, once per template, cached
//! in the template's [`crate::Template`] entry. The driver-side router that consumes both
//! lives in `sloth-net` (`ShardedEnv`); this module is pure data, hashing
//! and AST inspection, so the engine crate stays free of any networking
//! concerns.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::ast::{BinOp, ColumnRef, Expr, Join, Statement, TableRef};
use crate::value::{integral, Value};

/// Declares which tables are hash-partitioned and by which column.
///
/// Tables absent from the spec are replicated to every shard. Lookups are
/// case-insensitive on both table and column names, matching the rest of
/// the engine.
#[derive(Debug, Clone, Default)]
pub struct ShardSpec {
    /// lowercase table name → lowercase shard-key column name.
    keys: HashMap<String, String>,
}

impl ShardSpec {
    /// An empty spec: every table replicated.
    pub fn new() -> Self {
        ShardSpec::default()
    }

    /// Declares `table` hash-partitioned by `column` (builder style).
    pub fn shard(mut self, table: &str, column: &str) -> Self {
        self.keys
            .insert(table.to_ascii_lowercase(), column.to_ascii_lowercase());
        self
    }

    /// The declared shard-key column of `table`, if it is partitioned.
    pub fn key_column(&self, table: &str) -> Option<&str> {
        self.keys
            .get(&table.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Whether `table` is hash-partitioned (as opposed to replicated).
    pub fn is_sharded(&self, table: &str) -> bool {
        self.keys.contains_key(&table.to_ascii_lowercase())
    }

    /// Number of partitioned tables declared.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no table is partitioned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `(table, shard_key_column)` pairs in sorted order
    /// (deterministic, for display and docs).
    pub fn entries(&self) -> Vec<(&str, &str)> {
        let mut v: Vec<(&str, &str)> = self
            .keys
            .iter()
            .map(|(t, c)| (t.as_str(), c.as_str()))
            .collect();
        v.sort_unstable();
        v
    }
}

/// What `=` compares of a value: a boolean or an integral float as the
/// integer it equals (`TRUE` is `1`, `3.0` is `3`, `-0.0` is `0`), any
/// other float by its bits, a string by its bytes. `=`-equal values have
/// one canonical form, so anything hashed from it hashes them alike.
#[derive(Hash)]
enum Canonical<'v> {
    Null,
    Int(i64),
    Float(u64),
    Str(&'v str),
}

impl<'v> Canonical<'v> {
    fn of(v: &'v Value) -> Self {
        match v {
            Value::Null => Canonical::Null,
            Value::Bool(b) => Canonical::Int(*b as i64),
            Value::Int(i) => Canonical::Int(*i),
            Value::Float(f) => match integral(*f) {
                Some(i) => Canonical::Int(i),
                None => Canonical::Float(f.to_bits()),
            },
            Value::Str(s) => Canonical::Str(s),
        }
    }
}

/// Canonical 64-bit hash of a shard-key value (SplitMix64 finalizer over
/// the value's canonical form: booleans and integral floats as the integer
/// they equal).
///
/// Numeric values with equal numeric value hash equally (`Int(3)` ==
/// `Float(3.0)`), matching [`Value::sql_eq`]; `NULL` hashes to zero (rows
/// with a `NULL` key all live on shard 0, and an equality predicate never
/// matches them anyway — on any backend).
pub fn hash_key(v: &Value) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    match Canonical::of(v) {
        Canonical::Null => 0,
        Canonical::Int(i) => mix(i as u64),
        Canonical::Float(bits) => mix(bits),
        Canonical::Str(s) => {
            // FNV-1a over the bytes, then the same finalizer.
            let mut h: u64 = 0xCBF29CE484222325;
            for b in s.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100000001B3);
            }
            mix(h)
        }
    }
}

/// A value as SQL `=` sees it, for hashing: hashed from its canonical
/// form (the one [`hash_key`] hashes), compared by [`Value::sql_eq`], so
/// `1`, `1.0` and `TRUE` are one key and `0.0` and `-0.0` are one key.
/// Only a value that `=` matches to itself has one: `NULL` and NaN equal
/// nothing, so they key nothing. Index probes, hash joins and
/// fused-result demux all key by it, and so agree with the `=` a scan
/// evaluates. It hashes through the map's own hasher, so a keyed
/// `RandomState` still guards against crafted collisions.
#[derive(Debug, Clone, Copy)]
pub struct EqKey<'v>(&'v Value);

impl<'v> EqKey<'v> {
    /// The key of `v`, or `None` when `=` never matches `v`.
    pub fn of(v: &'v Value) -> Option<Self> {
        v.sql_eq(v).then_some(EqKey(v))
    }
}

impl Hash for EqKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Canonical::of(self.0).hash(state);
    }
}

impl PartialEq for EqKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.sql_eq(other.0)
    }
}

impl Eq for EqKey<'_> {}

/// The shard (in `0..n`) that owns a row whose shard key equals `v`.
pub fn shard_of(v: &Value, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    (hash_key(v) % n as u64) as usize
}

/// How the statements of one template route over a fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum Route {
    /// `shard_key = ?slot` → the shard owning the bound parameter.
    Point {
        /// The parameter slot holding the key.
        slot: usize,
    },
    /// `shard_key IN (?slots…)` → the shards owning the bound parameters
    /// (reads only: such a write is [`Route::Scatter`]).
    List {
        /// The parameter slots holding the keys.
        slots: Vec<usize>,
    },
    /// Execute on every shard: a read merges, a write broadcasts.
    Scatter,
    /// Replicated base table (and joins): any one copy answers a read, and
    /// a write applies to every copy. Also every statement that is neither
    /// a read nor an `UPDATE` / `DELETE`: the router routes those by kind.
    Replica,
    /// A read the router cannot make shard-correct (a join between
    /// differently-sharded tables): fails with this message.
    Unsupported(String),
}

impl Route {
    /// The route of `stmt` — a template's parameterized statement, whose
    /// key conjuncts hold [`Expr::Param`] slots — under `spec`. A
    /// statement with literals in their place routes nowhere narrower
    /// than [`Route::Scatter`].
    pub fn of(stmt: &Statement, spec: &ShardSpec) -> Route {
        let sel = match stmt {
            Statement::Select(sel) => sel,
            Statement::Update {
                table, predicate, ..
            }
            | Statement::Delete { table, predicate } => {
                let Some(key) = spec.key_column(table) else {
                    return Route::Replica;
                };
                let from = TableRef {
                    name: table.clone(),
                    alias: table.clone(),
                };
                return match key_conjunct_route(predicate.as_ref(), &from, key) {
                    Some(point @ Route::Point { .. }) => point,
                    _ => Route::Scatter,
                };
            }
            _ => return Route::Replica,
        };
        let base_key = spec.key_column(&sel.from.name);
        // Replicated join tables are always safe (full copy on every
        // shard); a sharded join table is safe only when co-sharded — the
        // join condition equates both tables' shard keys, so matching
        // rows are colocated by construction.
        for join in &sel.joins {
            if let Some(jkey) = spec.key_column(&join.table.name) {
                if !base_key.is_some_and(|bkey| co_sharded(join, &sel.from, bkey, jkey)) {
                    return Route::Unsupported(format!(
                        "cross-shard join between {} and sharded table {}: join on both shard \
                         keys or declare {} replicated",
                        sel.from.name, join.table.name, join.table.name
                    ));
                }
            }
        }
        match base_key {
            None => Route::Replica,
            Some(key) => {
                key_conjunct_route(sel.predicate.as_ref(), &sel.from, key).unwrap_or(Route::Scatter)
            }
        }
    }
}

/// Whether `c` names column `key` of table `t` (unqualified, or qualified
/// by its alias or name).
fn refers(c: &ColumnRef, t: &TableRef, key: &str) -> bool {
    c.column.eq_ignore_ascii_case(key)
        && c.table
            .as_deref()
            .is_none_or(|q| q.eq_ignore_ascii_case(&t.alias) || q.eq_ignore_ascii_case(&t.name))
}

/// Whether a join equates the base table's shard key with the joined
/// table's shard key (either orientation).
fn co_sharded(join: &Join, from: &TableRef, base_key: &str, join_key: &str) -> bool {
    (refers(&join.left, from, base_key) && refers(&join.right, &join.table, join_key))
        || (refers(&join.right, from, base_key) && refers(&join.left, &join.table, join_key))
}

/// Finds a top-level AND-conjunct that pins the shard key to a parameter
/// slot (`key = ?s`) or a slot list (`key IN (?s…)`). Conjuncts under
/// `OR`/`NOT` never route — they don't restrict the key.
fn key_conjunct_route(pred: Option<&Expr>, from: &TableRef, key: &str) -> Option<Route> {
    match pred? {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => key_conjunct_route(Some(left), from, key)
            .or_else(|| key_conjunct_route(Some(right), from, key)),
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => match (&**left, &**right) {
            (Expr::Column(c), Expr::Param(slot)) | (Expr::Param(slot), Expr::Column(c))
                if refers(c, from, key) =>
            {
                Some(Route::Point { slot: *slot })
            }
            _ => None,
        },
        Expr::InList { expr, list } => {
            let Expr::Column(c) = &**expr else {
                return None;
            };
            if !refers(c, from, key) {
                return None;
            }
            let slots: Option<Vec<usize>> = list
                .iter()
                .map(|item| match item {
                    Expr::Param(s) => Some(*s),
                    _ => None,
                })
                .collect();
            slots.map(|slots| Route::List { slots })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_case_insensitive() {
        let spec = ShardSpec::new().shard("Warehouse", "W_ID");
        assert_eq!(spec.key_column("warehouse"), Some("w_id"));
        assert_eq!(spec.key_column("WAREHOUSE"), Some("w_id"));
        assert!(spec.is_sharded("warehouse"));
        assert!(!spec.is_sharded("item"));
        assert_eq!(spec.entries(), vec![("warehouse", "w_id")]);
    }

    #[test]
    fn numeric_coercion_hashes_equal() {
        assert_eq!(hash_key(&Value::Int(7)), hash_key(&Value::Float(7.0)));
        assert_ne!(hash_key(&Value::Int(7)), hash_key(&Value::Int(8)));
        assert_eq!(hash_key(&Value::Bool(true)), hash_key(&Value::Int(1)));
        assert_eq!(hash_key(&Value::Float(-0.0)), hash_key(&Value::Int(0)));
        for n in [1usize, 2, 4, 8] {
            assert_eq!(shard_of(&Value::Int(7), n), shard_of(&Value::Float(7.0), n));
        }
    }

    #[test]
    fn shards_are_reasonably_balanced() {
        let n = 4;
        let mut counts = vec![0usize; n];
        for i in 0..4000i64 {
            counts[shard_of(&Value::Int(i), n)] += 1;
        }
        for c in counts {
            assert!(c > 700, "badly unbalanced shard: {c}");
        }
    }

    #[test]
    fn one_shard_takes_everything() {
        assert_eq!(shard_of(&Value::Str("x".into()), 1), 0);
        assert_eq!(shard_of(&Value::Null, 1), 0);
    }

    #[test]
    fn writes_route_by_their_key_slot() {
        let spec = ShardSpec::new().shard("issue", "project_id");
        let route = |sql: &str| {
            let (stmt, _) = crate::parameterize(&crate::parse(sql).unwrap());
            Route::of(&stmt, &spec)
        };
        let point = |slot| Route::Point { slot };
        assert_eq!(
            route("UPDATE issue SET sev = 1 WHERE project_id = 3"),
            point(1)
        );
        assert_eq!(
            route("DELETE FROM issue WHERE sev = 2 AND 3 = issue.project_id"),
            point(1)
        );
        // An `IN` list or a key under `OR` pins no one shard.
        assert_eq!(
            route("DELETE FROM issue WHERE project_id IN (1, 2)"),
            Route::Scatter
        );
        assert_eq!(
            route("UPDATE issue SET sev = 1 WHERE project_id = 1 OR sev = 2"),
            Route::Scatter
        );
        assert_eq!(route("DELETE FROM project WHERE id = 1"), Route::Replica);
        assert_eq!(route("INSERT INTO issue VALUES (1, 2)"), Route::Replica);
    }

    #[test]
    fn null_routes_to_shard_zero() {
        assert_eq!(shard_of(&Value::Null, 8), 0);
    }
}
