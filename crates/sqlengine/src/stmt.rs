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
//!
//! ## Dependent statements
//!
//! A statement may leave one parameter **open**: [`Param::Ref`] names a
//! column of the first row another statement answers, so `user → role →
//! privileges` ships as one batch instead of one round trip per link. An
//! open statement is inert — it has no template (never a dedup, fusion or
//! result-cache key), a table-level footprint, and text the engine's
//! lexer rejects — until [`Stmt::bind_from`] closes it over the parent's
//! row. The bound statement is built by the same constructor a literal
//! one goes through, so it *is* the statement its text would have built.

use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::footprint::Footprint;
use crate::normalize::{normalize, Normalized};
use crate::value::{ResultSet, Value};
use crate::{is_select_sql, txn_boundary, SqlError, TxnBoundary};

/// The one parameter [`Stmt::with_param`] splices into a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Param {
    /// A literal, known when the statement is built.
    Lit(Value),
    /// Column `column` of the first row `parent` answers. `parent` means
    /// what the layer holding the statement says it means: a query id in
    /// the query store, a batch position on the wire ([`Stmt::rebase`]
    /// translates).
    Ref {
        /// The statement whose answer supplies the value.
        parent: u64,
        /// The column of its first row.
        column: String,
    },
}

impl Param {
    /// `column` of the first row `parent` answers.
    pub fn reference(parent: u64, column: &str) -> Param {
        Param::Ref {
            parent,
            column: column.to_string(),
        }
    }
}

/// The open parameter of a dependent statement: where its placeholder
/// sits in the text, and the [`Param::Ref`] that fills it.
struct Open {
    at: Range<usize>,
    param: Param,
}

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
    /// The parameter still waiting for its parent's row, if any.
    open: Option<Open>,
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
        Stmt::build(sql.into(), None)
    }

    /// The statement whose text is `head`, the parameter, `tail`. With a
    /// [`Param::Lit`] that is exactly [`Stmt::new`] of the spliced text;
    /// with a [`Param::Ref`] it is a dependent statement, whose text
    /// shows the reference as `$parent.column`.
    pub fn with_param(head: &str, param: &Param, tail: &str) -> Stmt {
        match param {
            Param::Lit(v) => Stmt::new(format!("{head}{}{tail}", v.sql_literal())),
            Param::Ref { parent, column } => {
                let sql = format!("{head}${parent}.{column}{tail}");
                let open = Open {
                    at: head.len()..sql.len() - tail.len(),
                    param: param.clone(),
                };
                Stmt::build(sql, Some(open))
            }
        }
    }

    fn build(sql: String, open: Option<Open>) -> Stmt {
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
            open,
        }))
    }

    /// The open parameter — the [`Param::Ref`] a dependent statement was
    /// built from; `None` for every other statement.
    pub fn open_param(&self) -> Option<&Param> {
        self.0.open.as_ref().map(|o| &o.param)
    }

    /// The statement a dependent one takes its parameter from.
    pub fn parent(&self) -> Option<u64> {
        match self.open_param()? {
            Param::Ref { parent, .. } => Some(*parent),
            Param::Lit(_) => None,
        }
    }

    /// This statement with its parent renamed by `f` — how a reference
    /// follows its parent when positions are renumbered (query id → batch
    /// position, rider offset in a combined dispatch, index in a cache
    /// sub-batch). A statement without an open parameter is returned as
    /// it is.
    pub fn rebase(&self, f: impl FnOnce(u64) -> u64) -> Stmt {
        match &self.0.open {
            Some(
                o @ Open {
                    param: Param::Ref { parent, column },
                    ..
                },
            ) => {
                let renamed = f(*parent);
                if renamed == *parent {
                    return self.clone();
                }
                let (head, tail) = self.around(o);
                Stmt::with_param(head, &Param::reference(renamed, column), tail)
            }
            _ => self.clone(),
        }
    }

    /// This statement with `value` in its open parameter.
    pub fn bind(&self, value: &Value) -> Stmt {
        match &self.0.open {
            Some(o) => {
                let (head, tail) = self.around(o);
                Stmt::with_param(head, &Param::Lit(value.clone()), tail)
            }
            None => self.clone(),
        }
    }

    /// Closes the open parameter over the parent's answer: the bound
    /// statement, `None` when the parent produced no row (its dependants
    /// answer [`ResultSet::no_parent_row`]), or an error when the row has
    /// no such column.
    pub fn bind_from(&self, parent: &ResultSet) -> Result<Option<Stmt>, SqlError> {
        let Some(Param::Ref { column, .. }) = self.open_param() else {
            return Ok(Some(self.clone()));
        };
        let Some(row) = parent.rows.first() else {
            return Ok(None);
        };
        match parent.column_index(column) {
            Some(c) => Ok(Some(self.bind(&row[c]))),
            None => Err(SqlError::new(format!(
                "reference to column {column} the parent's result lacks (in {})",
                self.0.sql
            ))),
        }
    }

    /// The text before and after the open parameter's placeholder.
    fn around(&self, o: &Open) -> (&str, &str) {
        (&self.0.sql[..o.at.start], &self.0.sql[o.at.end..])
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

    /// Template + parameters; `None` when the text does not lex — and
    /// for a dependent statement, which has no template until bound.
    pub fn norm(&self) -> Option<&Normalized> {
        if self.0.open.is_some() {
            return None;
        }
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
