//! The template cache: one parse per statement template per deployment.
//!
//! ORM-generated SQL is a handful of **templates** (see
//! [`crate::normalize()`]) repeated with different literals. Everything the
//! driver path asks of a statement beyond its template — the plan it
//! executes, its conflict [`Footprint`], whether its group fuses, how a
//! fleet routes it — is a function of the template's parsed statement
//! with its literals turned into [`crate::ast::Expr::Param`] slots, plus
//! the statement's own extracted literals. So the deployment parses each
//! template once, into one [`Template`] entry, and every layer reads that
//! entry:
//!
//! * execution runs the entry's statement against the literals — a
//!   read's and a write's alike, DDL included ([`crate::Database::execute`],
//!   and the shard router, which looks a statement up once and hands the
//!   plan to every shard that runs it through
//!   [`crate::Database::execute_read`] or [`crate::Database::execute_write`]);
//! * [`TemplateCache::footprint`] substitutes the literals into the
//!   entry's key pins;
//! * fusion's shape check ([`crate::fuse::classify`]) inspects the entry's
//!   statement;
//! * the router's [`Route`] is derived on first use and kept in the
//!   entry.
//!
//! A template that does not parse is remembered as such. Its footprint is
//! a barrier without a parse; executing one of its statements parses that
//! statement's own text again, because a parse error quotes the text.
//! Likewise a statement whose literals do not line up with its template's
//! slots (outside the supported grammar) is parsed on its own. Either
//! way, what a statement executes — and so every error text it can raise —
//! is the same whether its template was cached or not: a fresh entry's
//! statement runs exactly as a found one's does.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::ast::Statement;
use crate::error::SqlError;
use crate::footprint::Footprint;
use crate::normalize::{parameterize, Normalized};
use crate::parser::parse;
use crate::shard::{Route, ShardSpec};
use crate::stmt::Stmt;
use crate::template_map::TemplateMap;
use crate::value::Value;

/// One template's parse: its parameterized statement and slot count.
#[derive(Debug)]
pub struct Template {
    /// The statement with every extractable literal replaced by a slot.
    pub stmt: Statement,
    /// Its slot count — the number of literals a statement fills it with.
    slots: usize,
    /// How a fleet routes it; derived on first use. One cache serves one
    /// deployment, so one spec.
    route: OnceLock<Route>,
}

impl Template {
    fn new(stmt: Statement, slots: usize) -> Arc<Template> {
        Arc::new(Template {
            stmt,
            slots,
            route: OnceLock::new(),
        })
    }

    /// The statement's [`Route`] under `spec`, derived once.
    pub fn route(&self, spec: &ShardSpec) -> &Route {
        self.route.get_or_init(|| Route::of(&self.stmt, spec))
    }
}

/// What one statement executes: its template's entry and its own literals
/// — or, for a statement the entry cannot answer for, its own parse with
/// no literals left to bind.
#[derive(Debug)]
pub struct Plan<'n> {
    /// The statement to run (parameterized or concrete).
    pub template: Arc<Template>,
    /// The values of its slots.
    pub params: &'n [Value],
}

/// Counters of a [`TemplateCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateCacheStats {
    /// Lookups answered from an entry, without a parse.
    pub hits: u64,
    /// Parses: one per entry filled, plus one per statement an entry
    /// could not answer for.
    pub misses: u64,
    /// Templates currently remembered.
    pub entries: usize,
    /// Entries evicted by the FIFO bound.
    pub evictions: u64,
}

impl TemplateCacheStats {
    /// Hit fraction in `[0, 1]`; zero before any lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a lookup answers: what the entry said, or — where the entry
/// cannot answer for the statement — the statement's own parse.
enum Lookup<R> {
    Entry(R),
    Alone(Box<Result<Statement, SqlError>>),
}

#[derive(Debug, Default)]
struct Inner {
    /// `None`: the template does not parse.
    templates: TemplateMap<Option<Arc<Template>>>,
    hits: u64,
    misses: u64,
}

/// The deployment's template → [`Template`] map, bounded by
/// [`TemplateMap`], behind one mutex held only to look up, insert and
/// count — never across a parse. Every database of a deployment, each
/// published snapshot of them and the shard router share one (see
/// [`crate::Database::set_template_cache`]).
#[derive(Debug, Default)]
pub struct TemplateCache {
    inner: Mutex<Inner>,
}

impl TemplateCache {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What `answer` makes of the entry of `norm`'s template — filled
    /// from a parse of `sql` on a miss — or, where `answer` declines the
    /// entry, `sql`'s own parse. Exactly one of `hits` and `misses`
    /// counts the lookup: a hit when the entry answered with no parse.
    fn lookup<R>(
        &self,
        sql: &str,
        norm: &Normalized,
        answer: impl Fn(&Option<Arc<Template>>) -> Option<R>,
    ) -> Lookup<R> {
        {
            let mut inner = self.lock();
            let found = inner.templates.get(&norm.template).map(&answer);
            if let Some(Some(r)) = found {
                inner.hits += 1;
                return Lookup::Entry(r);
            }
            inner.misses += 1;
            if found.is_some() {
                drop(inner);
                return Lookup::Alone(Box::new(parse(sql)));
            }
        }
        let parsed = parse(sql);
        let entry = parsed.as_ref().ok().map(|stmt| {
            let (pstmt, slots) = parameterize(stmt);
            Template::new(pstmt, slots)
        });
        let answered = answer(&entry);
        // Two sessions may miss one template at once; the first entry
        // wins — they are identical.
        self.lock()
            .templates
            .insert_if_absent(&norm.template, entry);
        answered.map_or_else(|| Lookup::Alone(Box::new(parsed)), Lookup::Entry)
    }

    /// The plan `sql` executes, whose normalization the caller holds
    /// (`None`: the text does not lex, and its parse says so). `Err` is
    /// the statement's own parse error.
    pub fn plan<'n>(&self, sql: &str, norm: Option<&'n Normalized>) -> Result<Plan<'n>, SqlError> {
        let Some(norm) = norm else {
            self.lock().misses += 1;
            return parse(sql).map(Plan::alone);
        };
        let fits = |e: &Option<Arc<Template>>| e.clone().filter(|t| t.slots == norm.params.len());
        match self.lookup(sql, norm, fits) {
            Lookup::Entry(template) => Ok(Plan {
                template,
                params: &norm.params,
            }),
            Lookup::Alone(parsed) => (*parsed).map(Plan::alone),
        }
    }

    /// The [`Footprint`] of `sql`, whose normalization the caller holds
    /// (`None`: the text does not lex — a barrier, no lookup): the entry's
    /// key pins with the statement's literals substituted. A template
    /// that does not parse is a barrier, with no parse.
    pub fn footprint(&self, sql: &str, norm: Option<&Normalized>) -> Footprint {
        let Some(norm) = norm else {
            return Footprint::barrier();
        };
        let answers = |e: &Option<Arc<Template>>| match e {
            Some(t) if t.slots != norm.params.len() => None,
            e => Some(e.clone()),
        };
        match self.lookup(sql, norm, answers) {
            Lookup::Entry(Some(t)) => Footprint::of_stmt_with(&t.stmt, &norm.params),
            Lookup::Entry(None) => Footprint::barrier(),
            Lookup::Alone(parsed) => {
                (*parsed).map_or_else(|_| Footprint::barrier(), |s| Footprint::of_stmt(&s))
            }
        }
    }

    /// The footprint of a [`Stmt`], memoised in the statement: the first
    /// call resolves it here with the statement's own normalization, every
    /// later call — on this or any clone of the statement — reads it back.
    ///
    /// A dependent statement (open parameter) reports the table-level
    /// footprint of its template until it is bound: whatever value
    /// arrives, the bound statement touches a subset of that. A reference
    /// inside a word of the text — a table's name, perhaps — is a barrier.
    /// A bound each-row statement touches what its members touch.
    pub fn stmt_footprint<'s>(&self, stmt: &'s Stmt) -> &'s Footprint {
        stmt.footprint_or(|| {
            if let Some(members) = stmt.members() {
                // A fan touches what its members touch.
                let mut fp = Footprint::default();
                for m in members {
                    fp.merge(self.stmt_footprint(m));
                }
                return fp;
            }
            if stmt.parent().is_none() {
                return self.footprint(stmt.sql(), stmt.norm());
            }
            if stmt.open_inside_a_word() {
                return Footprint::barrier();
            }
            // Any literal stands in: its pins are dropped again.
            let sibling = stmt.bind(&Value::Int(0));
            self.footprint(sibling.sql(), sibling.norm()).table_level()
        })
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> TemplateCacheStats {
        let inner = self.lock();
        TemplateCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.templates.len(),
            evictions: inner.templates.evictions(),
        }
    }
}

impl Plan<'_> {
    /// A statement parsed on its own: nothing to bind.
    fn alone(stmt: Statement) -> Plan<'static> {
        Plan {
            template: Template::new(stmt, 0),
            params: &[],
        }
    }
}
