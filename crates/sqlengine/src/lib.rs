//! # sloth-sql — in-memory SQL engine substrate
//!
//! A deterministic, dynamically typed, in-memory SQL database used as the
//! MySQL stand-in of the paper's evaluation testbed (§6.1). It supports
//! the subset of SQL generated by the mini-ORM and the benchmark
//! applications:
//!
//! * `CREATE TABLE` / `CREATE INDEX`
//! * `INSERT` (multi-row), `UPDATE` (with arithmetic), `DELETE`
//! * `SELECT` with inner joins, `WHERE` (comparisons, `AND`/`OR`/`NOT`,
//!   `IN`, `LIKE`, `IS [NOT] NULL`), `ORDER BY`, `LIMIT`, and single
//!   aggregates (`COUNT(*)`, `COUNT(DISTINCT c)`, `SUM`, `MAX`, `MIN`)
//! * `BEGIN` / `COMMIT` / `ROLLBACK` as transaction boundary markers
//!
//! Every execution reports [`ExecStats`] (rows scanned / returned) which the
//! network simulator converts into deterministic execution time. On top of
//! plain execution the engine provides the driver-path machinery: the
//! statement [`normalize()`] pass and the [`TemplateCache`] that parses each
//! template once per deployment, the [`fuse`] shape analysis for batch
//! fusion, the [`shard`] hash-partition spec and routes, and traced
//! execution ([`MergeTrace`]) for order-exact scatter-gather merges.
//!
//! ```
//! use sloth_sql::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE patient (id INT PRIMARY KEY, name TEXT)").unwrap();
//! db.execute("INSERT INTO patient VALUES (1, 'Ada')").unwrap();
//! let out = db.execute("SELECT name FROM patient WHERE id = 1").unwrap();
//! assert_eq!(out.result.get(0, "name"), Some(&Value::Str("Ada".into())));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod error;
pub mod footprint;
pub mod fuse;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod shard;
pub mod stmt;
pub mod table;
pub mod template_cache;
pub mod template_map;
pub mod value;

pub use ast::Statement;
pub use engine::{Database, ExecOutcome, ExecStats, MergeKey, MergeTrace, Snapshot};
pub use error::SqlError;
pub use footprint::{Footprint, TableAccess, TxnFootprint};
pub use normalize::{normalize, parameterize, Normalized};
pub use parser::parse;
pub use shard::{shard_of, Route, ShardSpec};
pub use stmt::{Bound, Hole, Stmt, StmtClass};
pub use template_cache::{Plan, Template, TemplateCache, TemplateCacheStats};
pub use template_map::TemplateMap;
pub use value::{ResultSet, Row, Value};

/// Classifies a SQL string the way the query store needs (§3.3): `true` for
/// statements that must not linger in a batch (writes and transaction
/// boundaries).
pub fn is_write_sql(sql: &str) -> bool {
    !is_select_sql(sql)
}

/// Which transaction boundary a statement is (see [`txn_boundary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnBoundary {
    /// `BEGIN` / `START TRANSACTION`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK` / `ABORT`.
    Rollback,
}

/// Classifies a SQL string as a transaction boundary, if it is one —
/// the query store's entry into transaction-scoped laziness (a silent
/// `BEGIN … COMMIT` block defers whole instead of draining twice).
/// Plain keyword shapes classify with a prefix check; anything odd
/// (comment-prefixed, parenthesized) falls back to the parser.
pub fn txn_boundary(sql: &str) -> Option<TxnBoundary> {
    let head = sql.trim_start();
    if keyword_is(head, "BEGIN") || keyword_is(head, "START") {
        return Some(TxnBoundary::Begin);
    }
    if keyword_is(head, "COMMIT") {
        return Some(TxnBoundary::Commit);
    }
    if keyword_is(head, "ROLLBACK") || keyword_is(head, "ABORT") {
        return Some(TxnBoundary::Rollback);
    }
    if keyword_is(head, "SELECT")
        || keyword_is(head, "INSERT")
        || keyword_is(head, "UPDATE")
        || keyword_is(head, "DELETE")
        || keyword_is(head, "CREATE")
        || keyword_is(head, "WITH")
    {
        return None;
    }
    match parse(sql) {
        Ok(Statement::Begin) => Some(TxnBoundary::Begin),
        Ok(Statement::Commit) => Some(TxnBoundary::Commit),
        Ok(Statement::Rollback) => Some(TxnBoundary::Rollback),
        _ => None,
    }
}

/// `true` for statements that read — the batching, template-cache and fusion
/// fast paths.
///
/// The overwhelmingly common shapes — statements that begin with a
/// keyword at a word boundary — classify with a lock-free prefix check
/// (the grammar guarantees what follows `SELECT` vs `UPDATE` etc.).
/// Everything else is **parser-backed**: a statement that parses is a
/// read exactly when it parses to a `SELECT` (uncached — no statement the
/// workloads send takes this path). SQL outside the grammar (parenthesized reads, CTEs, vendor syntax) falls
/// back to the lexer — skipping comments and wrapping parentheses the
/// same way the engine does — because a `(SELECT …)` or comment-prefixed
/// read misclassified as a write would flush the batch and kill
/// fusion for it (the old 6-byte prefix sniff did exactly that).
pub fn is_select_sql(sql: &str) -> bool {
    let head = sql.trim_start();
    if keyword_is(head, "SELECT") || keyword_is(head, "WITH") {
        return true;
    }
    for kw in [
        "INSERT", "UPDATE", "DELETE", "BEGIN", "COMMIT", "ROLLBACK", "ABORT", "CREATE",
    ] {
        if keyword_is(head, kw) {
            return false;
        }
    }
    // Odd shape: parser-backed classification. Unlexable SQL the engine
    // will reject anyway: conservatively a write (flushes).
    match parse(sql) {
        Ok(stmt) => !stmt.is_write(),
        Err(_) => {
            // Outside the supported grammar: reuse the lexer (it skips
            // comments exactly as execution would) and sniff the first
            // keyword past any wrapping parentheses. `WITH` (CTE) is a
            // read shape too.
            let Ok(tokens) = lexer::tokenize(sql) else {
                return false;
            };
            for tok in &tokens {
                match tok {
                    lexer::Token::Symbol("(") => continue,
                    lexer::Token::Ident(w) => {
                        return w.eq_ignore_ascii_case("SELECT") || w.eq_ignore_ascii_case("WITH")
                    }
                    _ => return false,
                }
            }
            false
        }
    }
}

/// Case-insensitive keyword match at the start of `s`, with a word
/// boundary (so `selector` is not `SELECT`).
fn keyword_is(s: &str, kw: &str) -> bool {
    s.len() >= kw.len()
        && s.as_bytes()[..kw.len()].eq_ignore_ascii_case(kw.as_bytes())
        && !s[kw.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_sql_classifier() {
        assert!(!is_write_sql("SELECT * FROM t"));
        assert!(!is_write_sql("  select 1 from t"));
        assert!(is_write_sql("INSERT INTO t VALUES (1)"));
        assert!(is_write_sql("UPDATE t SET a = 1"));
        assert!(is_write_sql("DELETE FROM t"));
        assert!(is_write_sql("COMMIT"));
        assert!(is_write_sql("BEGIN"));
    }

    /// The regression suite for the old 6-byte prefix sniff: parenthesized
    /// reads, comment-prefixed reads, CTE shapes and odd formatting must
    /// all classify as reads (a misclassification silently flushes the
    /// batch and kills fusion for them).
    #[test]
    fn classifier_handles_wrapped_and_commented_reads() {
        for sql in [
            "(SELECT v FROM t WHERE id = 1)",
            "((SELECT v FROM t))",
            "-- page header lookup\nSELECT v FROM t WHERE id = 1",
            "/* hint */ SELECT v FROM t",
            "/* a */ -- b\n  (SELECT v FROM t)",
            "  \n\t select v from t",
            "sElEcT v FROM t",
            "WITH cte AS (SELECT 1) SELECT * FROM cte",
        ] {
            assert!(is_select_sql(sql), "{sql:?} must classify as a read");
            assert!(!is_write_sql(sql));
        }
    }

    #[test]
    fn classifier_is_not_fooled_by_prefixes_or_strings() {
        // `selector` is an identifier, not the SELECT keyword.
        assert!(is_write_sql("selector_update t"));
        // Writes stay writes even with comments in front.
        assert!(is_write_sql("-- note\nUPDATE t SET a = 1"));
        assert!(is_write_sql("/* x */ DELETE FROM t"));
        assert!(is_write_sql("(INSERT INTO t VALUES (1))"));
    }

    #[test]
    fn txn_boundary_classifier() {
        assert_eq!(txn_boundary("BEGIN"), Some(TxnBoundary::Begin));
        assert_eq!(
            txn_boundary("  start transaction"),
            Some(TxnBoundary::Begin)
        );
        assert_eq!(txn_boundary("COMMIT"), Some(TxnBoundary::Commit));
        assert_eq!(txn_boundary("rollback"), Some(TxnBoundary::Rollback));
        assert_eq!(txn_boundary("ABORT"), Some(TxnBoundary::Rollback));
        assert_eq!(txn_boundary("-- c\nCOMMIT"), Some(TxnBoundary::Commit));
        assert_eq!(txn_boundary("SELECT * FROM t"), None);
        assert_eq!(txn_boundary("UPDATE t SET a = 1"), None);
        assert_eq!(txn_boundary("beginner stuff"), None);
        assert_eq!(txn_boundary("committee"), None);
    }

    #[test]
    fn formatting_variants_classify_alike() {
        // Formatting variants of one template classify consistently.
        assert!(is_select_sql("SELECT v FROM cache_t WHERE id = 1"));
        assert!(is_select_sql("select  V  from CACHE_T where ID = 2"));
        assert!(is_write_sql("UPDATE cache_t SET v = 1 WHERE id = 1"));
        assert!(is_write_sql("update  CACHE_T set V = 2 where ID = 9"));
    }
}
