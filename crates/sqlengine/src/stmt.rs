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
//! quote it, and a template-cache miss parses it.
//!
//! ## Dependent statements
//!
//! A statement may leave **holes** in its text — literal pieces around
//! them — each filled from the first row another statement answers, so
//! `user → role → privileges`, or an `INSERT` keyed by the id a `SELECT`
//! reads, ships as one batch instead of a round trip per link
//! ([`Stmt::dependent`]). The ORM keys a read by one hole,
//! [`Hole::column`], a column as a SQL literal (`'a'`, `NULL`); the kernel
//! language's holes render what its own `str` and operators make of the
//! row (`sloth-lang`'s pending text).
//!
//! A hole that finds no row either fails the statement or **skips** it
//! with a text: what forcing the skipped statement raises. The skip is
//! its answer ([`ResultSet::no_parent_row`]), and a statement bound over
//! a skipped parent skips with the parent's text — so the batch itself
//! says what a missing link means, and no layer above keeps a copy of
//! the chain to rebuild it.
//!
//! An **each-row** statement ([`Stmt::each_row`]) reads every row of its
//! parent instead of row 0: it stands for one statement per row — the
//! 1+N loop's N association reads as one dependant. Bound, it is a
//! *fan* of those literal statements, its **members** ([`Stmt::members`]),
//! which the driver answers as `IN` probes over their distinct keys and
//! splits back per row ([`ResultSet::from_parts`]); each member is the
//! dedup, result-cache and footprint key its literal twin is.
//!
//! An open statement is inert — no template (never a dedup, fusion or
//! result-cache key), a table-level footprint, and text the engine's lexer
//! rejects (`… WHERE id = $3.next_id`, `$3[*].k` for an each-row one) —
//! until [`Stmt::bind_from`] closes it over the parent's answer through
//! the constructor a literal one goes through, so it *is* the statement
//! its text would have built (each member is, for an each-row one). A
//! hole may render any text, so the open footprint covers the bound forms
//! only where a hole cannot name a table: after a `SELECT`'s `WHERE`, or
//! a write's `SET`, `WHERE` or `VALUES` (the grammar names every table
//! ahead of them). Its callers open statements only there.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::footprint::Footprint;
use crate::normalize::{normalize, Normalized};
use crate::value::{ResultSet, Value};
use crate::{is_select_sql, txn_boundary, SqlError, TxnBoundary};

/// What closing over a parent's answer gives: `T` — a hole's text, a
/// bound statement — or a skip, carrying what forcing the skipped
/// statement raises. A skipped statement answers
/// [`ResultSet::no_parent_row`] with that text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound<T> {
    /// Every hole filled.
    To(T),
    /// A hole found no row to fill it from.
    Skip(Arc<str>),
}

impl<T> Bound<T> {
    /// The filled value mapped by `f`; a skip stays a skip.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Bound<U> {
        match self {
            Bound::To(t) => Bound::To(f(t)),
            Bound::Skip(why) => Bound::Skip(why),
        }
    }
}

/// How a [`Hole`] renders from its parent's answer: its text, a skip, or
/// the error binding raises at the statement.
type Render = dyn Fn(&ResultSet) -> Result<Bound<String>, SqlError> + Send + Sync;

/// One hole of a dependent statement's text, shown as `$parent.label`
/// until bound.
#[derive(Clone)]
pub struct Hole {
    label: String,
    render: Arc<Render>,
}

impl Hole {
    /// A hole shown as `label` and filled by `render`: its text from the
    /// parent's answer, a skip, or the error binding raises at the
    /// statement.
    pub fn new(
        label: impl Into<String>,
        render: impl Fn(&ResultSet) -> Result<Bound<String>, SqlError> + Send + Sync + 'static,
    ) -> Hole {
        Hole {
            label: label.into(),
            render: Arc::new(render),
        }
    }

    /// Column `column` of the row as a SQL literal, shown as `column`; a
    /// parent without a row skips the statement with `skip`, what forcing
    /// it raises. An each-row statement renders it from each row in turn.
    pub fn column(column: &str, skip: impl Into<Arc<str>>) -> Hole {
        let name = column.to_string();
        let skip = skip.into();
        Hole::new(column, move |parent: &ResultSet| {
            match (parent.rows.first(), parent.column_index(&name)) {
                (None, _) => Ok(Bound::Skip(Arc::clone(&skip))),
                (Some(row), Some(c)) => Ok(Bound::To(row[c].sql_literal())),
                (Some(_), None) => Err(SqlError::new(format!(
                    "no column {name} in the parent's row"
                ))),
            }
        })
    }
}

/// The holes of a dependent statement, each with the literal piece after
/// it, behind a lead piece, and the statement that fills them — from its
/// first row, or `each_row`, from every row in turn.
struct Open {
    parent: u64,
    lead: String,
    holes: Vec<(Hole, String)>,
    each_row: bool,
}

impl Open {
    /// The text with each hole as `fill` renders it, or the first hole's
    /// skip.
    fn text(
        &self,
        mut fill: impl FnMut(&Hole) -> Result<Bound<String>, SqlError>,
    ) -> Result<Bound<String>, SqlError> {
        let mut sql = self.lead.clone();
        for (hole, piece) in &self.holes {
            match fill(hole)? {
                Bound::To(text) => sql.push_str(&text),
                skip => return Ok(skip),
            }
            sql.push_str(piece);
        }
        Ok(Bound::To(sql))
    }

    /// The text with every hole as `fill` renders it, for a `fill` that
    /// neither skips nor fails.
    fn filled(&self, fill: impl Fn(&Hole) -> String) -> String {
        match self.text(|h| Ok(Bound::To(fill(h)))) {
            Ok(Bound::To(sql)) => sql,
            _ => String::new(),
        }
    }
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
    /// deployment's template cache ([`crate::TemplateCache::stmt_footprint`]) or
    /// preset by [`Stmt::with_footprint`].
    footprint: OnceLock<Footprint>,
    /// The holes still waiting for their parent's answer, if any.
    open: Option<Open>,
    /// A bound each-row statement's literal statements, one per parent
    /// row; `None` for any other statement.
    members: Option<Vec<Stmt>>,
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
        Stmt::build(sql.into(), None, None)
    }

    /// The dependent statement whose text is `lead`, then each hole
    /// followed by its literal piece, the holes filled from the first row
    /// `parent` answers. `parent` means what the layer holding the
    /// statement says it means: a query id in the query store, a batch
    /// position on the wire ([`Stmt::rebase`] translates).
    pub fn dependent(parent: u64, lead: impl Into<String>, holes: Vec<(Hole, String)>) -> Stmt {
        Stmt::open(Open {
            parent,
            lead: lead.into(),
            holes,
            each_row: false,
        })
    }

    /// [`Stmt::dependent`]'s each-row twin: the holes filled from
    /// **every** row `parent` answers, one literal statement per row.
    pub fn each_row(parent: u64, lead: impl Into<String>, holes: Vec<(Hole, String)>) -> Stmt {
        Stmt::open(Open {
            parent,
            lead: lead.into(),
            holes,
            each_row: true,
        })
    }

    /// The open statement `open`, shown with its holes as `$parent.label`
    /// (`$parent[*].label` for an each-row one).
    fn open(open: Open) -> Stmt {
        let rows = if open.each_row { "[*]" } else { "" };
        let sql = open.filled(|h| format!("${}{rows}.{}", open.parent, h.label));
        Stmt::build(sql, Some(open), None)
    }

    fn build(sql: String, open: Option<Open>, members: Option<Vec<Stmt>>) -> Stmt {
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
            members,
        }))
    }

    /// The statement a dependent one takes its holes from.
    pub fn parent(&self) -> Option<u64> {
        self.0.open.as_ref().map(|o| o.parent)
    }

    /// This statement with its parent renamed by `f` — how a reference
    /// follows its parent when positions are renumbered (query id → batch
    /// position, rider offset in a combined dispatch, index in a cache
    /// sub-batch). A statement without holes is returned as it is.
    pub fn rebase(&self, f: impl FnOnce(u64) -> u64) -> Stmt {
        let Some(o) = &self.0.open else {
            return self.clone();
        };
        match f(o.parent) {
            same if same == o.parent => self.clone(),
            renamed => Stmt::open(Open {
                parent: renamed,
                lead: o.lead.clone(),
                holes: o.holes.clone(),
                each_row: o.each_row,
            }),
        }
    }

    /// This statement with `value`, as a SQL literal, in every hole.
    pub fn bind(&self, value: &Value) -> Stmt {
        match &self.0.open {
            Some(o) => Stmt::new(o.filled(|_| value.sql_literal())),
            None => self.clone(),
        }
    }

    /// Closes the holes over the parent's answer: the bound statement, a
    /// skip when a hole finds no row, or the error a hole raises. A
    /// parent that was itself skipped skips it with the parent's text, so
    /// a chain's skip names its first missing link.
    ///
    /// An each-row statement binds every row in turn, into a fan of one
    /// literal statement per row ([`Stmt::members`]) — none for a parent
    /// without rows. Its text stays the open one's, which is what travels.
    pub fn bind_from(&self, parent: &ResultSet) -> Result<Bound<Stmt>, SqlError> {
        let Some(o) = &self.0.open else {
            return Ok(Bound::To(self.clone()));
        };
        if let Some(why) = parent.skipped() {
            return Ok(Bound::Skip(Arc::clone(why)));
        }
        if !o.each_row {
            return Ok(o.text(|h| (h.render)(parent))?.map(Stmt::new));
        }
        let mut members = Vec::with_capacity(parent.len());
        for (j, row) in parent.rows.iter().enumerate() {
            let one = ResultSet::new(parent.columns.clone(), vec![row.clone()]);
            let Bound::To(text) = o.text(|h| (h.render)(&one))? else {
                return Err(SqlError::new(format!(
                    "a hole skipped row {j} (in {})",
                    self.sql()
                )));
            };
            members.push(Stmt::new(text));
        }
        Ok(Bound::To(Stmt::build(
            self.0.sql.clone(),
            None,
            Some(members),
        )))
    }

    /// A bound each-row statement's literal statements, one per row of
    /// its parent in row order; `None` for any other statement.
    pub fn members(&self) -> Option<&[Stmt]> {
        self.0.members.as_deref()
    }

    /// Whether a hole touches a word of the text — `t` + hole — so that
    /// its value may rename a table.
    pub(crate) fn open_inside_a_word(&self) -> bool {
        let Some(o) = &self.0.open else { return false };
        let word = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let before = std::iter::once(&o.lead).chain(o.holes.iter().map(|(_, piece)| piece));
        let after = o.holes.iter().map(|(_, piece)| piece);
        before
            .zip(after)
            .any(|(b, a)| word(b.chars().next_back()) || word(a.chars().next()))
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
    /// for a dependent statement, which has no template until bound, and
    /// a bound each-row one, whose members have theirs.
    pub fn norm(&self) -> Option<&Normalized> {
        if self.0.open.is_some() || self.0.members.is_some() {
            return None;
        }
        self.0
            .norm
            .get_or_init(|| normalize(&self.0.sql).ok())
            .as_ref()
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
