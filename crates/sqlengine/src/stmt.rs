//! A statement, understood once.
//!
//! The paper's query store (§3.3) hands the driver *a statement*. A
//! [`Stmt`] is that value: built from SQL text where the text enters the
//! stack, carried by reference count through the query store, the
//! dispatcher, the batch planner, the result cache and the shard router,
//! each of which reads what it needs — class, template, parameters,
//! footprint — instead of asking the text again.
//!
//! The text still travels: wire bytes are charged on it, error messages
//! quote it, and a plan-cache miss parses it.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::footprint::Footprint;
use crate::normalize::{normalize, Normalized};
use crate::{is_select_sql, txn_boundary, TxnBoundary};

/// What kind of statement a [`Stmt`] is, as far as batching cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtClass {
    /// A `SELECT`: lingers in a batch, dedups, fuses, caches.
    Read,
    /// `INSERT` / `UPDATE` / `DELETE` / DDL — and anything the classifier
    /// cannot prove is a read.
    Write,
    /// `BEGIN` / `COMMIT` / `ROLLBACK`: an engine no-op that delimits a
    /// transaction.
    Txn(TxnBoundary),
}

struct Inner {
    sql: String,
    class: StmtClass,
    /// Template + parameters, lexed on first use; `None` when the text
    /// does not lex.
    norm: OnceLock<Option<Normalized>>,
    /// Read/write sets, resolved on first use through a database's
    /// per-template footprint cache ([`crate::Database::footprint`]) or
    /// preset by [`Stmt::with_footprint`].
    footprint: OnceLock<Footprint>,
}

/// One SQL statement: its text, its class, and — each computed at most
/// once, on first use, and shared by every clone — its normalized
/// template + parameters and its [`Footprint`]. Immutable; a clone is a
/// reference-count bump.
///
/// Two statements compare (and hash) equal when they are the same query:
/// same template and parameters — so formatting variants of one query are
/// one dedup / result-cache key — or, for text the normalizer cannot lex,
/// the same text.
#[derive(Clone)]
pub struct Stmt(Arc<Inner>);

impl Stmt {
    /// Classifies `sql` (a keyword check for every common shape; see
    /// [`is_select_sql`] and [`txn_boundary`]) and wraps it. Lexing and
    /// footprint analysis wait for the first consumer that asks.
    pub fn new(sql: impl Into<String>) -> Stmt {
        let sql = sql.into();
        let class = if is_select_sql(&sql) {
            StmtClass::Read
        } else {
            txn_boundary(&sql).map_or(StmtClass::Write, StmtClass::Txn)
        };
        Stmt(Arc::new(Inner {
            sql,
            class,
            norm: OnceLock::new(),
            footprint: OnceLock::new(),
        }))
    }

    /// Presets the footprint of a statement nobody has analyzed yet,
    /// overriding what its text would derive. The one caller is the query
    /// store's silent transaction: a deferred `BEGIN` / `COMMIT` is an
    /// engine no-op, so it travels with an empty footprint instead of the
    /// barrier its text stands for.
    pub fn with_footprint(self, fp: Footprint) -> Stmt {
        let preset = self.0.footprint.set(fp);
        debug_assert!(preset.is_ok(), "footprint preset after first use");
        self
    }

    /// The SQL text as given.
    pub fn sql(&self) -> &str {
        &self.0.sql
    }

    /// Read, write, or transaction boundary.
    pub fn class(&self) -> StmtClass {
        self.0.class
    }

    /// `true` for everything that must not linger in a batch unexamined:
    /// writes and transaction boundaries (what [`crate::is_write_sql`]
    /// says of the text).
    pub fn is_write(&self) -> bool {
        self.0.class != StmtClass::Read
    }

    /// Template + parameters; `None` when the text does not lex.
    pub fn norm(&self) -> Option<&Normalized> {
        self.0
            .norm
            .get_or_init(|| normalize(&self.0.sql).ok())
            .as_ref()
    }

    /// The footprint, if some layer has already resolved (or preset) it —
    /// for callers that would have to fetch a database handle to ask
    /// [`crate::Database::footprint`].
    pub fn known_footprint(&self) -> Option<&Footprint> {
        self.0.footprint.get()
    }

    /// The memoised footprint, resolved by `derive` on first use.
    pub(crate) fn footprint_or(&self, derive: impl FnOnce() -> Footprint) -> &Footprint {
        self.0.footprint.get_or_init(derive)
    }

    /// What identifies the query: template + parameters, else the text.
    fn key(&self) -> (&str, &[crate::Value]) {
        match self.norm() {
            Some(n) => (&n.template, &n.params),
            None => (&self.0.sql, &[]),
        }
    }
}

impl PartialEq for Stmt {
    fn eq(&self, other: &Stmt) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.norm().is_some() == other.norm().is_some() && self.key() == other.key())
    }
}

impl Eq for Stmt {}

impl Hash for Stmt {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl std::fmt::Debug for Stmt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stmt({:?}, {:?})", self.0.class, self.0.sql)
    }
}
