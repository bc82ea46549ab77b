//! The query executor: plans and runs parsed statements against stored
//! tables, reporting deterministic execution statistics used by the cost
//! model in `sloth-net`.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use crate::ast::*;
use crate::error::SqlError;
use crate::footprint::Footprint;
use crate::normalize::{normalize, parameterize, Normalized};
use crate::parser::parse;
use crate::stmt::Stmt;
use crate::table::Table;
use crate::template_map::TemplateMap;
use crate::value::{ResultSet, Row, Value};

/// Per-statement execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows examined (scans, index probes, hash-join builds).
    pub rows_scanned: u64,
    /// Rows in the produced result set (or rows affected for DML).
    pub rows_returned: u64,
    /// Whether the statement was a write / transaction boundary.
    pub is_write: bool,
}

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The rows produced (empty for DML / DDL).
    pub result: ResultSet,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// Merge metadata for one output row of a traced `SELECT` (see
/// [`MergeTrace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeKey {
    /// The row's `ORDER BY` key values, in key order (empty when the
    /// statement has no `ORDER BY`).
    pub sort: Vec<Value>,
    /// Row id of the base-table row this output row derives from. Under
    /// the sharded backend the router assigns each table's rows one
    /// fleet-wide id sequence, so `(sort, rid)` totally orders output
    /// rows exactly as a single server would emit them.
    pub rid: u64,
}

/// Per-row merge keys of a traced `SELECT` execution.
///
/// The shard router executes scatter-gathered statements with tracing on
/// and k-way merges the per-shard results by `(sort keys, base row id)`,
/// which reproduces the single-server row order bit for bit: unsorted
/// results stream in scan (row-id) order, and sorted results are stable
/// sorts whose ties the engine breaks in scan order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeTrace {
    /// One entry per output row, in emission order.
    pub keys: Vec<MergeKey>,
}

/// Statistics of the per-database plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Executions answered by a cached parameterized plan (no lex, no
    /// parse).
    pub hits: u64,
    /// Executions that had to parse (and, when possible, filled the cache).
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Cached plans evicted by the FIFO bound.
    pub evictions: u64,
}

impl PlanCacheStats {
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

/// Template → parameterized-plan cache, bounded by [`TemplateMap`].
///
/// Lives inside [`Database`]; a template hit means repeated ORM-generated
/// SQL skips lexing and parsing entirely and re-executes the cached plan
/// with freshly extracted parameters. Entries are `Arc`-shared and the
/// whole cache is **interior-mutexed** so `SELECT` execution works through
/// `&Database`: concurrent sessions multiplexed onto one database share one
/// cache, and MVCC snapshots ([`Database::snapshot`]) share the *live*
/// cache — a plan warmed by a snapshot read serves later writers too.
#[derive(Debug, Default)]
struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

#[derive(Debug, Clone, Default)]
struct PlanCacheInner {
    plans: TemplateMap<Arc<CachedPlan>>,
    hits: u64,
    misses: u64,
}

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        PlanCache {
            inner: Mutex::new(self.lock().clone()),
        }
    }
}

#[derive(Debug)]
struct CachedPlan {
    stmt: Statement,
    n_params: usize,
}

impl PlanCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lookup(&self, template: &str) -> Option<Arc<CachedPlan>> {
        let mut inner = self.lock();
        match inner.plans.get(template).map(Arc::clone) {
            Some(plan) => {
                inner.hits += 1;
                Some(plan)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Two sessions can miss the same template concurrently (the cache is
    /// shared across snapshots); the first plan wins — they are identical.
    fn insert(&self, template: &str, plan: CachedPlan) {
        self.lock().plans.insert_if_absent(template, Arc::new(plan));
    }

    fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.plans.len(),
            evictions: inner.plans.evictions(),
        }
    }
}

/// Statistics of the per-database footprint cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FootprintCacheStats {
    /// Footprints answered by a cached parameterized template (no parse).
    pub hits: u64,
    /// Footprints that had to parse (and, when possible, filled the cache).
    pub misses: u64,
    /// Templates currently cached.
    pub entries: usize,
}

/// What the footprint cache remembers about one template.
#[derive(Debug)]
enum CachedFootprint {
    /// Parameterized statement + its slot count: substitute each
    /// statement's extracted literals to get its concrete footprint.
    /// (Boxed: statements are much larger than the `Barrier` variant.)
    Stmt(Box<Statement>, usize),
    /// The template is a barrier (transaction boundary, DDL) — or SQL the
    /// parser rejects; either way it conflicts with everything.
    Barrier,
}

/// Template → parameterized-footprint cache, bounded by [`TemplateMap`] and
/// parameterized exactly like the plan cache: one parse per template, and
/// every same-template statement derives its read/write table + key sets
/// by substituting its own extracted parameters.
///
/// Interior-mutexed so the **driver side** (query store write-deferral
/// decisions, dispatcher admission) can use it through a shared
/// `RwLock<Database>` *read* guard without serializing on the executor's
/// write lock.
#[derive(Debug, Default)]
struct FootprintCache {
    inner: Mutex<FootprintCacheInner>,
}

#[derive(Debug, Default)]
struct FootprintCacheInner {
    templates: TemplateMap<Arc<CachedFootprint>>,
    hits: u64,
    misses: u64,
}

impl Clone for FootprintCache {
    fn clone(&self) -> Self {
        // Snapshot clones (experiment restarts) start with a cold cache:
        // footprints are re-derivable and the counters are per-instance.
        FootprintCache::default()
    }
}

impl FootprintCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, FootprintCacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The footprint of `sql`, whose normalization the caller already
    /// holds (`None` = the text does not lex: no template to key on,
    /// always a barrier).
    fn footprint_of(&self, sql: &str, norm: Option<&Normalized>) -> Footprint {
        let Some(norm) = norm else {
            return Footprint::barrier();
        };
        {
            let mut inner = self.lock();
            if let Some(cached) = inner.templates.get(&norm.template).map(Arc::clone) {
                inner.hits += 1;
                drop(inner);
                return match &*cached {
                    CachedFootprint::Barrier => Footprint::barrier(),
                    CachedFootprint::Stmt(pstmt, slots) if *slots == norm.params.len() => {
                        Footprint::of_stmt_with(pstmt, &norm.params)
                    }
                    // Slot disagreement (outside the supported grammar):
                    // derive from the concrete statement, uncached.
                    CachedFootprint::Stmt(..) => Footprint::of_sql(sql),
                };
            }
            inner.misses += 1;
        }
        let entry = match parse(sql) {
            Ok(stmt) => {
                let fp = Footprint::of_stmt(&stmt);
                if fp.barrier {
                    CachedFootprint::Barrier
                } else {
                    let (pstmt, slots) = parameterize(&stmt);
                    if slots != norm.params.len() {
                        // Normalizer/parser slot disagreement (outside the
                        // supported grammar): the concrete footprint cannot
                        // be re-derived from a template — stay uncached.
                        return fp;
                    }
                    CachedFootprint::Stmt(Box::new(pstmt), slots)
                }
            }
            Err(_) => CachedFootprint::Barrier,
        };
        let fp = match &entry {
            CachedFootprint::Barrier => Footprint::barrier(),
            CachedFootprint::Stmt(pstmt, _) => Footprint::of_stmt_with(pstmt, &norm.params),
        };
        self.lock()
            .templates
            .insert_if_absent(&norm.template, Arc::new(entry));
        fp
    }

    fn stats(&self) -> FootprintCacheStats {
        let inner = self.lock();
        FootprintCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.templates.len(),
        }
    }
}

/// An in-memory SQL database: a catalog of [`Table`]s plus an executor and
/// a plan cache.
#[derive(Debug)]
pub struct Database {
    /// Keyed by lowercased name; `Arc<str>` so a snapshot's clone of the
    /// catalog copies no string.
    tables: HashMap<Arc<str>, Table>,
    plans: Arc<PlanCache>,
    footprints: Arc<FootprintCache>,
    version: u64,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: HashMap::new(),
            plans: Arc::new(PlanCache::default()),
            footprints: Arc::new(FootprintCache::default()),
            version: 0,
        }
    }
}

impl Clone for Database {
    fn clone(&self) -> Self {
        // A clone is an *independent* database (serial references,
        // experiment restarts): the plan cache is deep-copied into a fresh
        // handle and the footprint cache starts cold, exactly as before the
        // caches moved behind `Arc`s. Table storage itself is copy-on-write
        // by page and index bucket (see `table.rs`), so a clone shares the
        // data and each side copies only what it later writes.
        Database {
            tables: self.tables.clone(),
            plans: Arc::new((*self.plans).clone()),
            footprints: Arc::new((*self.footprints).clone()),
            version: self.version,
        }
    }
}

/// An immutable MVCC read view of a [`Database`], produced by
/// [`Database::snapshot`].
///
/// Taking a snapshot is cheap — the table catalog is cloned but every
/// table's schema, row pages and index buckets are `Arc`-shared
/// copy-on-write, so the cost is reference-count bumps, not data copies,
/// and a write after it copies the page and buckets it touches, not the
/// table (see [`crate::table::Table`]). The snapshot **shares
/// the live database's plan cache and footprint cache** (both are
/// interior-mutexed behind `Arc`s): a plan warmed through a snapshot read
/// is warm for everyone, and cache statistics stay deployment-global.
///
/// The snapshot derefs to `&Database`, exposing exactly the shared-receiver
/// read surface ([`Database::execute_readonly`],
/// [`Database::execute_select_normalized`], [`Database::execute_read_stmt`]
/// and friends); there is no `DerefMut`, so mutation is unreachable by
/// construction.
#[derive(Debug, Clone)]
pub struct Snapshot {
    db: Database,
}

impl std::ops::Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Monotonic data version: bumped once per successful mutating
    /// statement (DML and DDL; transaction boundaries are no-ops and do
    /// not bump). Snapshots carry the version they were taken at, which is
    /// what lets the driver detect staleness without re-reading rows.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Takes a consistent, immutable MVCC read view of the current state.
    ///
    /// O(#tables) reference-count bumps; see [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            db: Database {
                tables: self.tables.clone(),
                plans: Arc::clone(&self.plans),
                footprints: Arc::clone(&self.footprints),
                version: self.version,
            },
        }
    }

    /// Looks up a table (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name.to_ascii_lowercase().as_str())
    }

    /// Names of all tables, sorted (deterministic). Borrows; no per-call
    /// string cloning.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.values().map(|t| &*t.name).collect();
        names.sort_unstable();
        names
    }

    /// Snapshot of the plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// The [`Footprint`] of one SQL string, answered from the per-template
    /// footprint cache (one parameterized parse per template; repeated
    /// statements substitute their extracted literals into the cached
    /// template's key pins). Works through a shared read guard: the cache
    /// is interior-mutexed, so the driver's hot register path never takes
    /// the executor's write lock.
    pub fn footprint_of(&self, sql: &str) -> Footprint {
        self.footprints
            .footprint_of(sql, normalize(sql).ok().as_ref())
    }

    /// The [`Footprint`] of a [`Stmt`], memoised in the statement: the
    /// first call resolves it through the per-template footprint cache
    /// with the statement's own normalization (no second lex), every
    /// later call — on this or any clone of the statement, against this
    /// or any database — reads it back. A footprint is a function of the
    /// text alone, so which database's cache answered does not matter.
    ///
    /// A dependent statement (open parameter) reports the table-level
    /// footprint of its template until it is bound: whatever value
    /// arrives, the bound statement touches a subset of that.
    pub fn footprint<'s>(&self, stmt: &'s Stmt) -> &'s Footprint {
        stmt.footprint_or(|| {
            if stmt.parent().is_none() {
                return self.footprints.footprint_of(stmt.sql(), stmt.norm());
            }
            // Any literal stands in: its pins are dropped again.
            let sibling = stmt.bind(&Value::Int(0));
            self.footprints
                .footprint_of(sibling.sql(), sibling.norm())
                .table_level()
        })
    }

    /// Snapshot of the footprint-cache counters.
    pub fn footprint_cache_stats(&self) -> FootprintCacheStats {
        self.footprints.stats()
    }

    /// Parses and executes one SQL statement.
    ///
    /// `SELECT`s go through the plan cache: the statement is normalized
    /// (one lexer pass) and, on a template hit, the cached parameterized
    /// plan executes against the extracted literals — no parsing. Writes
    /// and DDL always parse (they are not hot, and DDL self-invalidates
    /// nothing this way).
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome, SqlError> {
        if !crate::is_select_sql(sql) {
            let stmt = parse(sql)?;
            return self.execute_stmt(&stmt);
        }
        let norm = normalize(sql)?;
        self.execute_select_normalized(sql, &norm)
    }

    /// [`Database::execute`] for a `SELECT` whose normalization the caller
    /// already computed — the batch driver normalizes once for fusion
    /// grouping and reuses it here instead of lexing twice.
    ///
    /// Takes `&self`: `SELECT` execution never mutates table state, and the
    /// plan cache is interior-mutexed — this is the surface MVCC snapshots
    /// read through.
    pub fn execute_select_normalized(
        &self,
        sql: &str,
        norm: &Normalized,
    ) -> Result<ExecOutcome, SqlError> {
        self.execute_select_opts(sql, norm, false).map(|(o, _)| o)
    }

    /// [`Database::execute_select_normalized`] with merge tracing enabled —
    /// the entry point the shard router uses for scatter-gathered reads.
    pub fn execute_select_traced(
        &self,
        sql: &str,
        norm: &Normalized,
    ) -> Result<(ExecOutcome, Option<MergeTrace>), SqlError> {
        self.execute_select_opts(sql, norm, true)
    }

    /// Parses and executes one statement through `&self`, refusing anything
    /// that is not a `SELECT` — the string-level entry point of the
    /// snapshot read path.
    pub fn execute_readonly(&self, sql: &str) -> Result<ExecOutcome, SqlError> {
        if !crate::is_select_sql(sql) {
            return Err(read_only_error());
        }
        let norm = normalize(sql)?;
        self.execute_select_normalized(sql, &norm)
    }

    fn execute_select_opts(
        &self,
        sql: &str,
        norm: &Normalized,
        trace: bool,
    ) -> Result<(ExecOutcome, Option<MergeTrace>), SqlError> {
        if let Some(plan) = self.plans.lookup(&norm.template) {
            if plan.n_params == norm.params.len() {
                return self.execute_read_opts(&plan.stmt, &norm.params, trace);
            }
        }
        let stmt = parse(sql)?;
        let (pstmt, slots) = parameterize(&stmt);
        if slots == norm.params.len() {
            let out = self.execute_read_opts(&pstmt, &norm.params, trace);
            // Cache only plans that executed cleanly: a statement that
            // errors (unknown table/column) would otherwise pin a useless
            // entry, and error texts must not depend on cache state.
            if out.is_ok() {
                self.plans.insert(
                    &norm.template,
                    CachedPlan {
                        stmt: pstmt,
                        n_params: slots,
                    },
                );
            }
            out
        } else {
            // Normalizer/parser slot disagreement (possible outside the
            // supported grammar): execute the concrete statement, uncached.
            self.execute_read_opts(&stmt, &[], trace)
        }
    }

    /// Executes an already-parsed statement (no parameters).
    pub fn execute_stmt(&mut self, stmt: &Statement) -> Result<ExecOutcome, SqlError> {
        self.execute_stmt_with(stmt, &[])
    }

    /// Executes an already-parsed `SELECT` through `&self`, erroring on any
    /// other statement kind — the fused-probe entry point of the snapshot
    /// read path.
    pub fn execute_read_stmt(&self, stmt: &Statement) -> Result<ExecOutcome, SqlError> {
        self.execute_read_stmt_with(stmt, &[])
    }

    /// [`Database::execute_read_stmt`] with bound `params`.
    pub fn execute_read_stmt_with(
        &self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<ExecOutcome, SqlError> {
        self.execute_read_opts(stmt, params, false).map(|(o, _)| o)
    }

    /// [`Database::execute_read_stmt_with`] with merge tracing — the
    /// scatter-gather entry point of the snapshot read path.
    pub fn execute_read_stmt_traced(
        &self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<(ExecOutcome, Option<MergeTrace>), SqlError> {
        self.execute_read_opts(stmt, params, true)
    }

    fn execute_read_opts(
        &self,
        stmt: &Statement,
        params: &[Value],
        trace: bool,
    ) -> Result<(ExecOutcome, Option<MergeTrace>), SqlError> {
        match stmt {
            Statement::Select(sel) => self.run_select(sel, params, trace),
            _ => Err(read_only_error()),
        }
    }

    /// Executes a (possibly parameterized) statement with bound `params`.
    pub fn execute_stmt_with(
        &mut self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<ExecOutcome, SqlError> {
        self.execute_opts(stmt, params, false).map(|(o, _)| o)
    }

    /// [`Database::execute_stmt_with`] with merge tracing: for `SELECT`s
    /// the outcome carries a [`MergeTrace`] so a scatter-gather router can
    /// merge per-shard results in exact single-server order. Non-`SELECT`
    /// statements return no trace.
    pub fn execute_stmt_traced(
        &mut self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<(ExecOutcome, Option<MergeTrace>), SqlError> {
        self.execute_opts(stmt, params, true)
    }

    fn execute_opts(
        &mut self,
        stmt: &Statement,
        params: &[Value],
        trace: bool,
    ) -> Result<(ExecOutcome, Option<MergeTrace>), SqlError> {
        if let Statement::Select(sel) = stmt {
            return self.run_select(sel, params, trace);
        }
        // Transaction boundaries are engine no-ops: they must not bump the
        // data version (a snapshot taken before a bare COMMIT is still
        // perfectly current).
        let bumps = !matches!(
            stmt,
            Statement::Begin | Statement::Commit | Statement::Rollback
        );
        let out = match stmt {
            Statement::CreateTable { name, columns } => {
                let key = name.to_ascii_lowercase();
                if self.tables.contains_key(key.as_str()) {
                    return Err(SqlError::new(format!("table {name} already exists")));
                }
                self.tables
                    .insert(key.into(), Table::new(name.clone(), columns.clone()));
                Ok(write_outcome(0))
            }
            Statement::CreateIndex { table, column } => {
                self.table_mut(table)?.create_index(column)?;
                Ok(write_outcome(0))
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => self.run_insert(table, columns, values, params),
            Statement::Select(_) => unreachable!("handled above"),
            Statement::Update {
                table,
                sets,
                predicate,
            } => self.run_update(table, sets, predicate.as_ref(), params),
            Statement::Delete { table, predicate } => {
                self.run_delete(table, predicate.as_ref(), params)
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => Ok(write_outcome(0)),
        };
        if bumps && out.is_ok() {
            self.version = self.version.wrapping_add(1);
        }
        out.map(|o| (o, None))
    }

    /// Inserts one already-evaluated tuple at an explicit row id — the
    /// shard router's insert path. `columns` maps tuple positions exactly
    /// as `INSERT INTO t (cols) VALUES …` would; an empty list means
    /// declaration order. The global row id keeps scan order merge-exact
    /// across shards (see [`crate::table::Table::insert_at`]).
    pub fn insert_row_at(
        &mut self,
        table: &str,
        columns: &[String],
        tuple: Vec<Value>,
        rid: u64,
    ) -> Result<(), SqlError> {
        let t = self.table_mut(table)?;
        let row = map_tuple(t, columns, tuple)?;
        t.insert_at(rid as usize, row)?;
        self.version = self.version.wrapping_add(1);
        Ok(())
    }

    /// Whether an already-evaluated `INSERT` tuple has the shape the table
    /// takes — its arity, and the names in `columns` (as in
    /// [`Database::insert_row_at`]) — for the shard router to ask about
    /// every tuple of a statement before it allocates the first row id.
    pub fn check_insert(
        &self,
        table: &str,
        columns: &[String],
        tuple: &[Value],
    ) -> Result<(), SqlError> {
        check_tuple(self.table_ref(table)?, columns, tuple.len())
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        self.tables
            .get_mut(name.to_ascii_lowercase().as_str())
            .ok_or_else(|| SqlError::new(format!("no such table: {name}")))
    }

    fn table_ref(&self, name: &str) -> Result<&Table, SqlError> {
        self.table(name)
            .ok_or_else(|| SqlError::new(format!("no such table: {name}")))
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: &[String],
        values: &[Vec<Expr>],
        params: &[Value],
    ) -> Result<ExecOutcome, SqlError> {
        // Evaluate value tuples first (literals or literal arithmetic).
        let empty = Scope::empty();
        let mut tuples = Vec::with_capacity(values.len());
        for tuple in values {
            let mut evaluated = Vec::with_capacity(tuple.len());
            for e in tuple {
                evaluated.push(eval_expr(e, &empty, &[], params)?);
            }
            tuples.push(evaluated);
        }
        // Validate every row before inserting the first: a statement that
        // fails leaves the table, and so the data version, untouched.
        let t = self.table_mut(table)?;
        let first = t.next_rowid();
        let mut rows = Vec::with_capacity(tuples.len());
        for (i, tuple) in tuples.into_iter().enumerate() {
            let row = map_tuple(t, columns, tuple)?;
            t.check_insert(first + i, &row)?;
            rows.push(row);
        }
        let n = rows.len() as u64;
        for row in rows {
            t.insert(row)?;
        }
        Ok(write_outcome(n))
    }

    fn run_select(
        &self,
        sel: &SelectStmt,
        params: &[Value],
        trace: bool,
    ) -> Result<(ExecOutcome, Option<MergeTrace>), SqlError> {
        let mut stats = ExecStats::default();

        // Resolve all sources.
        let base = self.table_ref(&sel.from.name)?;
        let mut scope = Scope::new();
        scope.add_source(&sel.from.alias, base);

        // Base rows: an index probe from an equality / IN conjunct where
        // one exists. Every row keeps its base-table row id so traced
        // executions can report exact merge keys.
        let base_rows = candidate_rows(sel.predicate.as_ref(), &sel.from, base, params);
        stats.rows_scanned += base_rows.len() as u64;
        let mut current: Vec<(usize, Row)> = base_rows
            .into_iter()
            .map(|(rid, r)| (rid, r.clone()))
            .collect();

        // Hash joins, left to right.
        for join in &sel.joins {
            let right_table = self.table_ref(&join.table.name)?;
            let probe_side_idx = scope
                .resolve(&join.left)
                .or_else(|| scope.resolve(&join.right));
            // Determine which side refers to already-joined columns.
            let (probe_ref, build_ref) = if scope.resolve(&join.left).is_some() {
                (&join.left, &join.right)
            } else {
                (&join.right, &join.left)
            };
            let probe_idx = probe_side_idx
                .ok_or_else(|| SqlError::new("join condition references unknown column"))?;
            let build_ci = right_table.column_index(&build_ref.column).ok_or_else(|| {
                SqlError::new(format!(
                    "no column {} in {}",
                    build_ref.column, join.table.name
                ))
            })?;
            let _ = probe_ref;

            // Build hash table over the joined table.
            stats.rows_scanned += right_table.len() as u64;
            let mut built: HashMap<Value, Vec<&Row>> = HashMap::new();
            for (_, row) in right_table.scan() {
                built.entry(row[build_ci].clone()).or_default().push(row);
            }
            let mut next = Vec::new();
            for (rid, row) in &current {
                if let Some(matches) = built.get(&row[probe_idx]) {
                    for m in matches {
                        let mut combined = row.clone();
                        combined.extend((*m).iter().cloned());
                        next.push((*rid, combined));
                    }
                }
            }
            scope.add_source(&join.table.alias, right_table);
            current = next;
        }

        // Filter.
        if let Some(pred) = &sel.predicate {
            let mut kept = Vec::with_capacity(current.len());
            for (rid, row) in current {
                if eval_expr(pred, &scope, &row, params)?.is_truthy() {
                    kept.push((rid, row));
                }
            }
            current = kept;
        }

        // Aggregate short-circuits ordering/limit/projection (and carries
        // no merge trace — the router re-aggregates partials instead).
        if let Projection::Aggregate(agg) = &sel.projection {
            let rs = run_aggregate(agg, &current, &scope)?;
            stats.rows_returned = rs.len() as u64;
            return Ok((ExecOutcome { result: rs, stats }, None));
        }

        // Order (stable sort: ties keep scan order, which is row-id order).
        let mut key_idx: Vec<(usize, bool)> = Vec::new();
        if !sel.order_by.is_empty() {
            key_idx = sel
                .order_by
                .iter()
                .map(|k| {
                    scope
                        .resolve(&k.column)
                        .map(|i| (i, k.desc))
                        .ok_or_else(|| SqlError::new(format!("unknown column {}", k.column.column)))
                })
                .collect::<Result<_, _>>()?;
            current.sort_by(|(_, a), (_, b)| {
                for &(i, desc) in &key_idx {
                    let ord = a[i].total_cmp(&b[i]);
                    if ord != std::cmp::Ordering::Equal {
                        return if desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        // Limit.
        if let Some(n) = sel.limit {
            current.truncate(n);
        }

        // Merge trace: captured after sort/limit, before projection (the
        // sort keys must come from the full-width row).
        let merge = trace.then(|| MergeTrace {
            keys: current
                .iter()
                .map(|(rid, row)| MergeKey {
                    sort: key_idx.iter().map(|&(i, _)| row[i].clone()).collect(),
                    rid: *rid as u64,
                })
                .collect(),
        });

        // Project.
        let (columns, rows) = match &sel.projection {
            Projection::Star => (
                scope.output_columns(),
                current.into_iter().map(|(_, row)| row).collect(),
            ),
            Projection::Columns(cols) => {
                let idxs: Vec<usize> = cols
                    .iter()
                    .map(|c| {
                        scope
                            .resolve(c)
                            .ok_or_else(|| SqlError::new(format!("unknown column {}", c.column)))
                    })
                    .collect::<Result<_, _>>()?;
                let names = cols.iter().map(|c| c.column.clone()).collect();
                let rows: Vec<Row> = current
                    .into_iter()
                    .map(|(_, row)| idxs.iter().map(|&i| row[i].clone()).collect())
                    .collect();
                (names, rows)
            }
            Projection::Aggregate(_) => unreachable!("handled above"),
        };
        stats.rows_returned = rows.len() as u64;
        Ok((
            ExecOutcome {
                result: ResultSet::new(columns, rows),
                stats,
            },
            merge,
        ))
    }

    fn run_update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        predicate: Option<&Expr>,
        params: &[Value],
    ) -> Result<ExecOutcome, SqlError> {
        let t = self.table_ref(table)?;
        let mut scope = Scope::new();
        scope.add_source(table, t);
        let set_cols: Vec<usize> = sets
            .iter()
            .map(|(name, _)| {
                t.column_index(name)
                    .ok_or_else(|| SqlError::new(format!("no column {name} in {table}")))
            })
            .collect::<Result<_, _>>()?;

        let mut candidates = candidate_rows(predicate, &bare_table(table), t, params);
        // Apply in scan order whatever order the probe gave: the posting
        // list of a value written here then fills as a scan would fill it.
        candidates.sort_unstable_by_key(|&(rid, _)| rid);
        let scanned = candidates.len() as u64;
        let mut updates: Vec<(usize, Vec<Value>)> = Vec::new();
        for (rid, row) in candidates {
            let keep = match predicate {
                Some(p) => eval_expr(p, &scope, row, params)?.is_truthy(),
                None => true,
            };
            if keep {
                let mut new_vals = Vec::with_capacity(sets.len());
                for (_, e) in sets {
                    new_vals.push(eval_expr(e, &scope, row, params)?);
                }
                updates.push((rid, new_vals));
            }
        }
        let n = updates.len() as u64;
        let t = self.table_mut(table)?;
        for (rid, vals) in updates {
            for (ci, v) in set_cols.iter().zip(vals) {
                t.update_cell(rid, *ci, v);
            }
        }
        let mut out = write_outcome(n);
        out.stats.rows_scanned = scanned;
        Ok(out)
    }

    fn run_delete(
        &mut self,
        table: &str,
        predicate: Option<&Expr>,
        params: &[Value],
    ) -> Result<ExecOutcome, SqlError> {
        let t = self.table_ref(table)?;
        let mut scope = Scope::new();
        scope.add_source(table, t);
        let candidates = candidate_rows(predicate, &bare_table(table), t, params);
        let scanned = candidates.len() as u64;
        let mut doomed = Vec::new();
        for (rid, row) in candidates {
            let hit = match predicate {
                Some(p) => eval_expr(p, &scope, row, params)?.is_truthy(),
                None => true,
            };
            if hit {
                doomed.push(rid);
            }
        }
        let n = doomed.len() as u64;
        let t = self.table_mut(table)?;
        for rid in doomed {
            t.delete(rid);
        }
        let mut out = write_outcome(n);
        out.stats.rows_scanned = scanned;
        Ok(out)
    }
}

/// Maps an `INSERT` tuple to a full-width row using the statement's
/// explicit column list (empty list = declaration order); shared by the
/// standard insert path and the shard router's [`Database::insert_row_at`].
fn map_tuple(t: &Table, columns: &[String], tuple: Vec<Value>) -> Result<Row, SqlError> {
    check_tuple(t, columns, tuple.len())?;
    if columns.is_empty() {
        return Ok(tuple);
    }
    let mut row = vec![Value::Null; t.columns.len()];
    for (name, v) in columns.iter().zip(tuple) {
        row[t.column_index(name).expect("checked")] = v;
    }
    Ok(row)
}

/// Every way the shape of an `INSERT` tuple of `width` values can be wrong
/// for `t` under the statement's column list, read off without building
/// the row.
fn check_tuple(t: &Table, columns: &[String], width: usize) -> Result<(), SqlError> {
    if columns.is_empty() {
        return t.check_arity(width);
    }
    if columns.len() != width {
        return Err(SqlError::new("column / value count mismatch"));
    }
    match columns.iter().find(|name| t.column_index(name).is_none()) {
        Some(name) => Err(SqlError::new(format!("no column {name}"))),
        None => Ok(()),
    }
}

/// Evaluates an expression with no row scope and no bound parameters —
/// exactly the context `INSERT … VALUES` tuples evaluate in. The shard
/// router uses this to extract shard-key values when routing inserts; it
/// errors on precisely the expressions the engine itself would reject
/// (column references, unbound parameters), so routing never succeeds
/// where execution would fail.
pub fn eval_const(e: &Expr) -> Result<Value, SqlError> {
    eval_expr(e, &Scope::empty(), &[], &[])
}

/// The error every read-only execution surface returns for a non-`SELECT`:
/// snapshots are immutable by construction, so a write reaching one is a
/// driver admission bug, reported loudly instead of applied silently.
fn read_only_error() -> SqlError {
    SqlError::new("read-only execution: statement is not a SELECT")
}

fn write_outcome(rows_affected: u64) -> ExecOutcome {
    ExecOutcome {
        result: ResultSet::empty(),
        stats: ExecStats {
            rows_scanned: 0,
            rows_returned: rows_affected,
            is_write: true,
        },
    }
}

/// Column-name resolution scope: maps `(alias, column)` to an offset in the
/// combined row.
struct Scope {
    /// (alias lowercased, column name lowercased) → combined-row offset.
    by_qualified: HashMap<(String, String), usize>,
    /// column name lowercased → offsets (ambiguous if > 1).
    by_bare: HashMap<String, Vec<usize>>,
    names: Vec<String>,
    width: usize,
}

impl Scope {
    fn new() -> Self {
        Scope {
            by_qualified: HashMap::new(),
            by_bare: HashMap::new(),
            names: Vec::new(),
            width: 0,
        }
    }

    fn empty() -> Self {
        Scope::new()
    }

    fn add_source(&mut self, alias: &str, table: &Table) {
        for (i, col) in table.columns.iter().enumerate() {
            let off = self.width + i;
            self.by_qualified.insert(
                (alias.to_ascii_lowercase(), col.name.to_ascii_lowercase()),
                off,
            );
            self.by_bare
                .entry(col.name.to_ascii_lowercase())
                .or_default()
                .push(off);
            self.names.push(col.name.clone());
        }
        self.width += table.columns.len();
    }

    fn resolve(&self, c: &ColumnRef) -> Option<usize> {
        match &c.table {
            Some(t) => self
                .by_qualified
                .get(&(t.to_ascii_lowercase(), c.column.to_ascii_lowercase()))
                .copied(),
            None => {
                let offs = self.by_bare.get(&c.column.to_ascii_lowercase())?;
                // Prefer the first source on ambiguity (MySQL would error;
                // our generated SQL qualifies ambiguous names).
                offs.first().copied()
            }
        }
    }

    fn output_columns(&self) -> Vec<String> {
        self.names.clone()
    }
}

/// Evaluates an expression against `row`, resolving columns via `scope`
/// and `?` slots via `params`.
fn eval_expr(e: &Expr, scope: &Scope, row: &[Value], params: &[Value]) -> Result<Value, SqlError> {
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => params
            .get(*i)
            .cloned()
            .ok_or_else(|| SqlError::new(format!("unbound parameter ?{i}"))),
        Expr::Column(c) => {
            let off = scope
                .resolve(c)
                .ok_or_else(|| SqlError::new(format!("unknown column {}", c.column)))?;
            row.get(off)
                .cloned()
                .ok_or_else(|| SqlError::new("column offset out of range"))
        }
        Expr::Not(inner) => Ok(Value::Bool(
            !eval_expr(inner, scope, row, params)?.is_truthy(),
        )),
        Expr::Binary { op, left, right } => {
            // Short-circuit logical ops.
            match op {
                BinOp::And => {
                    return Ok(Value::Bool(
                        eval_expr(left, scope, row, params)?.is_truthy()
                            && eval_expr(right, scope, row, params)?.is_truthy(),
                    ))
                }
                BinOp::Or => {
                    return Ok(Value::Bool(
                        eval_expr(left, scope, row, params)?.is_truthy()
                            || eval_expr(right, scope, row, params)?.is_truthy(),
                    ))
                }
                _ => {}
            }
            let l = eval_expr(left, scope, row, params)?;
            let r = eval_expr(right, scope, row, params)?;
            eval_binop(*op, &l, &r)
        }
        Expr::InList { expr, list } => {
            let v = eval_expr(expr, scope, row, params)?;
            for item in list {
                let iv = eval_expr(item, scope, row, params)?;
                if v.sql_eq(&iv) {
                    return Ok(Value::Bool(true));
                }
            }
            Ok(Value::Bool(false))
        }
        Expr::Like { expr, pattern } => {
            let v = eval_expr(expr, scope, row, params)?;
            Ok(Value::Bool(match v.as_str() {
                Some(s) => like_match(s, pattern),
                None => false,
            }))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, scope, row, params)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, SqlError> {
    use BinOp::*;
    match op {
        Eq => Ok(Value::Bool(l.sql_eq(r))),
        Ne => Ok(Value::Bool(!l.is_null() && !r.is_null() && !l.sql_eq(r))),
        Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Bool(false));
            }
            let ord = l.total_cmp(r);
            Ok(Value::Bool(match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                _ => ord != std::cmp::Ordering::Less,
            }))
        }
        Add | Sub | Mul | Div => {
            // Integer arithmetic stays integral; anything float promotes.
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                return Ok(Value::Int(match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    _ => {
                        if *b == 0 {
                            return Err(SqlError::new("division by zero"));
                        }
                        a / b
                    }
                }));
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(SqlError::new(format!(
                        "non-numeric arithmetic: {l} {op:?} {r}"
                    )))
                }
            };
            Ok(Value::Float(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                _ => a / b,
            }))
        }
        And | Or => unreachable!("handled by caller"),
    }
}

/// `LIKE` with `%` wildcards (no `_` support — unused by our workloads).
fn like_match(s: &str, pattern: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    if parts.len() == 1 {
        return s == pattern;
    }
    let mut rest = s;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            if !rest.starts_with(part) {
                return false;
            }
            rest = &rest[part.len()..];
        } else if i == parts.len() - 1 {
            return rest.ends_with(part);
        } else {
            match rest.find(part) {
                Some(pos) => rest = &rest[pos + part.len()..],
                None => return false,
            }
        }
    }
    true
}

fn run_aggregate(
    agg: &Aggregate,
    rows: &[(usize, Row)],
    scope: &Scope,
) -> Result<ResultSet, SqlError> {
    let resolve = |c: &ColumnRef| {
        scope
            .resolve(c)
            .ok_or_else(|| SqlError::new(format!("unknown column {}", c.column)))
    };
    let (name, value) = match agg {
        Aggregate::CountStar => ("count".to_string(), Value::Int(rows.len() as i64)),
        Aggregate::CountDistinct(c) => {
            let i = resolve(c)?;
            let distinct: HashSet<&Value> = rows
                .iter()
                .map(|(_, r)| &r[i])
                .filter(|v| !v.is_null())
                .collect();
            ("count".to_string(), Value::Int(distinct.len() as i64))
        }
        Aggregate::Sum(c) => {
            let i = resolve(c)?;
            let mut acc = 0.0;
            let mut all_int = true;
            for (_, r) in rows {
                if let Some(v) = r[i].as_f64() {
                    acc += v;
                    all_int &= matches!(r[i], Value::Int(_));
                }
            }
            let v = if all_int {
                Value::Int(acc as i64)
            } else {
                Value::Float(acc)
            };
            ("sum".to_string(), v)
        }
        Aggregate::Max(c) => {
            let i = resolve(c)?;
            let v = rows
                .iter()
                .map(|(_, r)| &r[i])
                .filter(|v| !v.is_null())
                .max_by(|a, b| a.total_cmp(b))
                .cloned()
                .unwrap_or(Value::Null);
            ("max".to_string(), v)
        }
        Aggregate::Min(c) => {
            let i = resolve(c)?;
            let v = rows
                .iter()
                .map(|(_, r)| &r[i])
                .filter(|v| !v.is_null())
                .min_by(|a, b| a.total_cmp(b))
                .cloned()
                .unwrap_or(Value::Null);
            ("min".to_string(), v)
        }
    };
    Ok(ResultSet::new(vec![name], vec![vec![value]]))
}

/// The base-table rows a statement has to examine, each with its row id:
/// those an indexed equality / `IN` conjunct of `predicate` pins, or every
/// live row when no conjunct is usable. A superset of the rows that match
/// — the caller still evaluates the whole predicate on each — whose length
/// is the statement's `rows_scanned`.
fn candidate_rows<'t>(
    predicate: Option<&Expr>,
    from: &TableRef,
    table: &'t Table,
    params: &[Value],
) -> Vec<(usize, &'t Row)> {
    let rows = |ids: &[usize]| {
        ids.iter()
            .filter_map(|&rid| table.row(rid).map(|r| (rid, r)))
            .collect()
    };
    match find_index_probe(predicate, from, table, params) {
        Some(Probe::Eq(ci, key)) => rows(table.probe(ci, &key).unwrap_or(&[])),
        Some(Probe::In(ci, keys)) => {
            // K point probes instead of a full scan; row ids merge back
            // into scan order so results are order-identical to the
            // unindexed path.
            let mut ids: Vec<usize> = keys
                .iter()
                .flat_map(|key| table.probe(ci, key).unwrap_or(&[]).iter().copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            rows(&ids)
        }
        None => table.scan().collect(),
    }
}

/// `UPDATE` and `DELETE` name their table without an alias.
fn bare_table(table: &str) -> TableRef {
    TableRef {
        name: table.to_string(),
        alias: table.to_string(),
    }
}

/// An index-probe plan extracted from the predicate.
enum Probe {
    /// One probe: `indexed_col = value`.
    Eq(usize, Value),
    /// K probes: `indexed_col IN (v1 … vk)` — the mechanism that makes a
    /// fused batch lookup cost K probes instead of a full scan.
    In(usize, Vec<Value>),
}

/// Detects `indexed_col = literal` / `indexed_col IN (literals)` conjuncts
/// usable as an index probe on the base table. `params` resolves `?` slots
/// of cached plans.
fn find_index_probe(
    predicate: Option<&Expr>,
    from: &TableRef,
    table: &Table,
    params: &[Value],
) -> Option<Probe> {
    // A literal or bound parameter — the only shapes a probe key can take.
    fn key_value<'v>(e: &'v Expr, params: &'v [Value]) -> Option<&'v Value> {
        match e {
            Expr::Literal(v) => Some(v),
            Expr::Param(i) => params.get(*i),
            _ => None,
        }
    }

    fn probe_column(col: &ColumnRef, from: &TableRef, table: &Table) -> Option<usize> {
        if let Some(q) = &col.table {
            if !q.eq_ignore_ascii_case(&from.alias) && !q.eq_ignore_ascii_case(&from.name) {
                return None;
            }
        }
        let ci = table.column_index(&col.column)?;
        table.has_index(ci).then_some(ci)
    }

    fn walk(e: &Expr, from: &TableRef, table: &Table, params: &[Value]) -> Option<Probe> {
        match e {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => walk(left, from, table, params).or_else(|| walk(right, from, table, params)),
            Expr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } => {
                let (col, key) = match (&**left, &**right) {
                    (Expr::Column(c), k) => (c, key_value(k, params)?),
                    (k, Expr::Column(c)) => (c, key_value(k, params)?),
                    _ => return None,
                };
                let ci = probe_column(col, from, table)?;
                Some(Probe::Eq(ci, v_coerced(table, ci, key)))
            }
            Expr::InList { expr, list } => {
                let Expr::Column(col) = &**expr else {
                    return None;
                };
                let ci = probe_column(col, from, table)?;
                let keys: Option<Vec<Value>> = list
                    .iter()
                    .map(|item| key_value(item, params).map(|v| v_coerced(table, ci, v)))
                    .collect();
                Some(Probe::In(ci, keys?))
            }
            _ => None,
        }
    }
    // Int keys written as float literals (or vice versa) must still probe.
    fn v_coerced(table: &Table, ci: usize, v: &Value) -> Value {
        match (table.columns[ci].ty, v) {
            (crate::ast::ColumnType::Int, Value::Float(f)) => Value::Int(*f as i64),
            (crate::ast::ColumnType::Float, Value::Int(i)) => Value::Float(*i as f64),
            _ => v.clone(),
        }
    }
    walk(predicate?, from, table, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_issues() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE project (id INT PRIMARY KEY, name TEXT)")
            .unwrap();
        db.execute("CREATE TABLE issue (id INT PRIMARY KEY, project_id INT, title TEXT, sev INT)")
            .unwrap();
        db.execute("INSERT INTO project VALUES (1, 'alpha'), (2, 'beta')")
            .unwrap();
        db.execute(
            "INSERT INTO issue VALUES (10, 1, 'crash', 3), (11, 1, 'typo', 1), (12, 2, 'slow', 2)",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_star_and_where() {
        let mut db = db_with_issues();
        let out = db.execute("SELECT * FROM issue WHERE sev >= 2").unwrap();
        assert_eq!(out.result.len(), 2);
        assert_eq!(out.stats.rows_scanned, 3);
        assert!(!out.stats.is_write);
    }

    #[test]
    fn pk_probe_reduces_scan() {
        let mut db = db_with_issues();
        let out = db.execute("SELECT * FROM issue WHERE id = 11").unwrap();
        assert_eq!(out.result.len(), 1);
        assert_eq!(out.stats.rows_scanned, 1, "should use the PK index");
    }

    #[test]
    fn secondary_index_probe() {
        let mut db = db_with_issues();
        db.execute("CREATE INDEX ON issue (project_id)").unwrap();
        let out = db
            .execute("SELECT * FROM issue WHERE project_id = 1")
            .unwrap();
        assert_eq!(out.result.len(), 2);
        assert_eq!(out.stats.rows_scanned, 2);
    }

    #[test]
    fn join_projection() {
        let mut db = db_with_issues();
        let out = db
            .execute(
                "SELECT i.title, p.name FROM issue i JOIN project p ON i.project_id = p.id \
                 WHERE p.name = 'alpha' ORDER BY i.id",
            )
            .unwrap();
        assert_eq!(out.result.columns, vec!["title", "name"]);
        assert_eq!(out.result.len(), 2);
        assert_eq!(
            out.result.get(0, "title"),
            Some(&Value::Str("crash".into()))
        );
    }

    #[test]
    fn order_by_desc_and_limit() {
        let mut db = db_with_issues();
        let out = db
            .execute("SELECT id FROM issue ORDER BY sev DESC LIMIT 2")
            .unwrap();
        assert_eq!(
            out.result.rows,
            vec![vec![Value::Int(10)], vec![Value::Int(12)]]
        );
    }

    #[test]
    fn aggregates() {
        let mut db = db_with_issues();
        let c = db.execute("SELECT COUNT(*) FROM issue").unwrap();
        assert_eq!(c.result.get(0, "count"), Some(&Value::Int(3)));
        let s = db.execute("SELECT SUM(sev) FROM issue").unwrap();
        assert_eq!(s.result.get(0, "sum"), Some(&Value::Int(6)));
        let m = db
            .execute("SELECT MAX(sev) FROM issue WHERE project_id = 1")
            .unwrap();
        assert_eq!(m.result.get(0, "max"), Some(&Value::Int(3)));
        let d = db
            .execute("SELECT COUNT(DISTINCT project_id) FROM issue")
            .unwrap();
        assert_eq!(d.result.get(0, "count"), Some(&Value::Int(2)));
    }

    #[test]
    fn update_with_arith() {
        let mut db = db_with_issues();
        let out = db
            .execute("UPDATE issue SET sev = sev + 10 WHERE project_id = 1")
            .unwrap();
        assert_eq!(out.stats.rows_returned, 2);
        assert!(out.stats.is_write);
        let check = db.execute("SELECT sev FROM issue WHERE id = 10").unwrap();
        assert_eq!(check.result.rows[0][0], Value::Int(13));
    }

    #[test]
    fn delete_then_count() {
        let mut db = db_with_issues();
        db.execute("DELETE FROM issue WHERE sev < 2").unwrap();
        let c = db.execute("SELECT COUNT(*) FROM issue").unwrap();
        assert_eq!(c.result.get(0, "count"), Some(&Value::Int(2)));
    }

    #[test]
    fn like_and_in() {
        let mut db = db_with_issues();
        let out = db
            .execute("SELECT id FROM issue WHERE title LIKE 'c%'")
            .unwrap();
        assert_eq!(out.result.len(), 1);
        let out = db
            .execute("SELECT id FROM issue WHERE id IN (10, 12)")
            .unwrap();
        assert_eq!(out.result.len(), 2);
    }

    #[test]
    fn is_null_handling() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, NULL), (2, 'x')")
            .unwrap();
        let n = db.execute("SELECT id FROM t WHERE v IS NULL").unwrap();
        assert_eq!(n.result.rows, vec![vec![Value::Int(1)]]);
        let nn = db.execute("SELECT id FROM t WHERE v IS NOT NULL").unwrap();
        assert_eq!(nn.result.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn errors_bubble() {
        let mut db = db_with_issues();
        assert!(db.execute("SELECT * FROM nope").is_err());
        assert!(db.execute("SELECT nope FROM issue").is_err());
        assert!(db.execute("CREATE TABLE issue (id INT)").is_err());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%o"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "hello"));
        assert!(!like_match("hello", "x%"));
        assert!(!like_match("hello", "%x"));
        assert!(like_match("hello", "%"));
    }

    #[test]
    fn txn_statements_are_writes() {
        let mut db = db_with_issues();
        for sql in ["BEGIN", "COMMIT", "ROLLBACK"] {
            let out = db.execute(sql).unwrap();
            assert!(out.stats.is_write);
        }
    }

    #[test]
    fn in_list_uses_index_probes() {
        let mut db = db_with_issues();
        let out = db
            .execute("SELECT * FROM issue WHERE id IN (10, 12, 99)")
            .unwrap();
        assert_eq!(out.result.len(), 2);
        assert_eq!(out.stats.rows_scanned, 2, "K probes, not a full scan");
        // Unindexed column: falls back to a scan with identical results.
        let scan = db
            .execute("SELECT * FROM issue WHERE sev IN (2, 3)")
            .unwrap();
        assert_eq!(scan.result.len(), 2);
        assert_eq!(scan.stats.rows_scanned, 3);
    }

    #[test]
    fn in_probe_preserves_scan_order_and_dedups() {
        let mut db = db_with_issues();
        let probe = db
            .execute("SELECT id FROM issue WHERE id IN (12, 10, 10)")
            .unwrap();
        let scan = db
            .execute("SELECT id FROM issue WHERE id = 12 OR id = 10")
            .unwrap();
        assert_eq!(
            probe.result.rows, scan.result.rows,
            "row order matches scan order"
        );
    }

    #[test]
    fn plan_cache_hits_on_same_template() {
        let mut db = db_with_issues();
        assert_eq!(db.plan_cache_stats().hits, 0);
        let a = db.execute("SELECT title FROM issue WHERE id = 10").unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        // Different literal, different whitespace/case — same template.
        let b = db
            .execute("select TITLE from ISSUE  where id = 11")
            .unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(a.result.get(0, "title"), Some(&Value::Str("crash".into())));
        assert_eq!(b.result.get(0, "title"), Some(&Value::Str("typo".into())));
        // Cached plan still uses the PK probe.
        assert_eq!(b.stats.rows_scanned, 1);
    }

    #[test]
    fn plan_cache_skipped_for_writes_and_errors() {
        let mut db = db_with_issues();
        db.execute("UPDATE issue SET sev = 1 WHERE id = 10")
            .unwrap();
        assert_eq!(db.plan_cache_stats().misses, 0, "writes bypass the cache");
        assert!(db.execute("SELECT * FROM nope WHERE id = 1").is_err());
        assert_eq!(
            db.plan_cache_stats().entries,
            0,
            "failed plans are not cached"
        );
        // The same failing statement errors identically on every try.
        let e1 = db.execute("SELECT * FROM nope WHERE id = 1").unwrap_err();
        let e2 = db.execute("SELECT * FROM nope WHERE id = 2").unwrap_err();
        assert_eq!(e1, e2);
    }

    #[test]
    fn plan_cache_results_match_uncached() {
        let mut db = db_with_issues();
        let mut cold = db_with_issues();
        for sql in [
            "SELECT * FROM issue WHERE sev >= 2 ORDER BY id DESC LIMIT 2",
            "SELECT title FROM issue WHERE title LIKE 'c%'",
            "SELECT id FROM issue WHERE id IN (10, 11)",
            "SELECT id FROM issue WHERE sev = -1",
        ] {
            // Warm the cache, then re-execute: second run is the cached plan.
            let first = db.execute(sql).unwrap();
            let second = db.execute(sql).unwrap();
            let reference = cold.execute_stmt(&parse(sql).unwrap()).unwrap();
            assert_eq!(first.result, reference.result, "{sql}");
            assert_eq!(second.result, reference.result, "{sql}");
            assert_eq!(second.stats, reference.stats, "{sql}");
        }
        assert!(db.plan_cache_stats().hits >= 4);
    }

    #[test]
    fn plan_cache_bounded() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        // Distinct LIMIT values produce distinct templates.
        for i in 1..1200usize {
            db.execute(&format!("SELECT id FROM t LIMIT {i}")).unwrap();
        }
        assert!(db.plan_cache_stats().entries <= 512);
    }

    #[test]
    fn plan_cache_eviction_accounting() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        // Fill exactly to the 512-entry bound: no evictions yet.
        for i in 1..=512usize {
            db.execute(&format!("SELECT id FROM t LIMIT {i}")).unwrap();
        }
        let full = db.plan_cache_stats();
        assert_eq!(full.entries, 512);
        assert_eq!(full.evictions, 0);
        assert_eq!(full.misses, 512);
        // One more distinct template evicts the oldest (FIFO).
        db.execute("SELECT id FROM t LIMIT 600").unwrap();
        let after = db.plan_cache_stats();
        assert_eq!(after.entries, 512, "bound holds");
        assert_eq!(after.evictions, 1);
        // The evicted template (LIMIT 1, oldest) now misses again and
        // re-enters, evicting the next-oldest; a young template still hits.
        db.execute("SELECT id FROM t LIMIT 1").unwrap();
        let refill = db.plan_cache_stats();
        assert_eq!(refill.misses, after.misses + 1, "evicted template misses");
        assert_eq!(refill.evictions, 2);
        db.execute("SELECT id FROM t LIMIT 600").unwrap();
        assert_eq!(db.plan_cache_stats().hits, refill.hits + 1);
        // Hit rate reflects the churn.
        assert!(db.plan_cache_stats().hit_rate() < 0.1);
    }

    #[test]
    fn database_is_send_and_sync() {
        // The concurrency refactor hinges on this: a `Database` (with its
        // Arc-shared plan cache) can live behind an `RwLock` shared by
        // many sessions.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<std::sync::RwLock<Database>>();
    }

    #[test]
    fn plan_cache_shared_across_threads() {
        use std::sync::{Arc, RwLock};
        let mut db = db_with_issues();
        db.execute("SELECT title FROM issue WHERE id = 10").unwrap();
        let shared = Arc::new(RwLock::new(db));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let db = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut db = db.write().unwrap();
                    db.execute(&format!("SELECT title FROM issue WHERE id = 1{t}"))
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = shared.read().unwrap().plan_cache_stats();
        assert_eq!(stats.hits, 4, "all threads hit the one warmed plan");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn footprint_cache_hits_on_same_template() {
        let db = db_with_issues();
        assert_eq!(db.footprint_cache_stats().hits, 0);
        let a = db.footprint_of("SELECT title FROM issue WHERE id = 10");
        let s = db.footprint_cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));
        // Different literal, different formatting — same template, no parse.
        let b = db.footprint_of("select TITLE from ISSUE  where id = 11");
        let s = db.footprint_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // The substituted pins are each statement's own literals.
        assert_eq!(a.reads[0].keys, vec![("id".into(), vec![Value::Int(10)])]);
        assert_eq!(b.reads[0].keys, vec![("id".into(), vec![Value::Int(11)])]);
        // Cached footprints agree with direct derivation, for reads and
        // writes alike (post-image widening included).
        for sql in [
            "SELECT * FROM issue WHERE project_id = 2 AND sev = 0",
            "UPDATE issue SET project_id = 2 WHERE project_id = 1",
            "UPDATE issue SET sev = sev + 1 WHERE id = 10",
            "DELETE FROM issue WHERE project_id = 3",
            "INSERT INTO issue (id, project_id, title, sev) VALUES (90, 4, 'x', 1)",
            "SELECT * FROM issue WHERE id IN (10, 11, 12)",
        ] {
            let warm = db.footprint_of(sql);
            let again = db.footprint_of(sql);
            let direct = crate::Footprint::of_sql(sql);
            assert_eq!(warm, direct, "{sql}");
            assert_eq!(again, direct, "cached re-derivation diverged: {sql}");
        }
        assert!(db.footprint_cache_stats().hits >= 7);
    }

    #[test]
    fn footprint_cache_handles_barriers_and_garbage() {
        let db = db_with_issues();
        for sql in ["BEGIN", "COMMIT", "CREATE TABLE z (id INT PRIMARY KEY)"] {
            assert!(db.footprint_of(sql).barrier, "{sql}");
            assert!(db.footprint_of(sql).barrier, "{sql} (cached)");
        }
        // Unparseable-but-lexable SQL caches its barrier verdict.
        assert!(db.footprint_of("GRANT ALL ON issue").barrier);
        let before = db.footprint_cache_stats();
        assert!(db.footprint_of("GRANT ALL ON issue").barrier);
        assert_eq!(db.footprint_cache_stats().hits, before.hits + 1);
        // Unlexable SQL is a barrier and never caches.
        assert!(db.footprint_of("SELECT \u{1}\"").barrier);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut db = db_with_issues();
        let snap = db.snapshot();
        let v0 = db.version();
        assert_eq!(snap.version(), v0);
        db.execute("UPDATE issue SET sev = 99 WHERE id = 10")
            .unwrap();
        db.execute("DELETE FROM issue WHERE id = 11").unwrap();
        db.execute("INSERT INTO issue VALUES (13, 2, 'new', 5)")
            .unwrap();
        assert_eq!(db.version(), v0 + 3);
        assert_eq!(snap.version(), v0, "snapshot version is frozen");
        // The snapshot still sees the pre-write state, rows and indexes.
        let old = snap
            .execute_readonly("SELECT sev FROM issue WHERE id = 10")
            .unwrap();
        assert_eq!(old.result.rows, vec![vec![Value::Int(3)]]);
        let all = snap.execute_readonly("SELECT id FROM issue").unwrap();
        assert_eq!(all.result.len(), 3);
        // The live database sees the post-write state.
        let new = db.execute("SELECT sev FROM issue WHERE id = 10").unwrap();
        assert_eq!(new.result.rows, vec![vec![Value::Int(99)]]);
        assert_eq!(db.execute("SELECT id FROM issue").unwrap().result.len(), 3);
    }

    #[test]
    fn snapshot_refuses_writes_and_shares_the_plan_cache() {
        let mut db = db_with_issues();
        let snap = db.snapshot();
        assert!(snap.execute_readonly("UPDATE issue SET sev = 1").is_err());
        assert!(snap
            .execute_read_stmt(&parse("DELETE FROM issue").unwrap())
            .is_err());
        // A plan warmed through the snapshot is warm on the live database.
        snap.execute_readonly("SELECT title FROM issue WHERE id = 10")
            .unwrap();
        let warmed = db.plan_cache_stats();
        assert_eq!((warmed.hits, warmed.misses, warmed.entries), (0, 1, 1));
        db.execute("SELECT title FROM issue WHERE id = 11").unwrap();
        assert_eq!(db.plan_cache_stats().hits, 1, "live execution hits it");
    }

    #[test]
    fn clone_still_deep_copies() {
        let mut db = db_with_issues();
        let mut copy = db.clone();
        copy.execute("UPDATE issue SET sev = 42 WHERE id = 10")
            .unwrap();
        let original = db.execute("SELECT sev FROM issue WHERE id = 10").unwrap();
        assert_eq!(original.result.rows, vec![vec![Value::Int(3)]]);
        // And the clone's plan cache is independent of the original's.
        copy.execute("SELECT title FROM issue WHERE id = 10")
            .unwrap();
        assert_eq!(db.plan_cache_stats().misses, 1, "only the original's read");
    }

    #[test]
    fn failing_multi_row_insert_inserts_nothing() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        let version = db.version();
        for sql in [
            "INSERT INTO t VALUES (1, 1), (2, 2), (3)",
            "INSERT INTO t (id, v) VALUES (1, 1), (2, 2), (3)",
            "INSERT INTO t (id, nope) VALUES (1, 1)",
        ] {
            assert!(db.execute(sql).is_err(), "{sql}");
            assert_eq!(db.version(), version, "a failed statement is no write");
            assert_eq!(db.table("t").unwrap().len(), 0, "{sql}");
            assert_eq!(db.table("t").unwrap().next_rowid(), 0, "{sql}");
        }
        db.execute("INSERT INTO t VALUES (1, 1), (2, 2)").unwrap();
        assert_eq!(db.version(), version + 1);
        assert_eq!(db.table("t").unwrap().len(), 2);
    }

    #[test]
    fn update_and_delete_scan_only_the_rows_their_index_probe_pins() {
        let mut db = db_with_issues();
        db.execute("CREATE INDEX ON issue (project_id)").unwrap();
        for (sql, scanned, affected) in [
            ("UPDATE issue SET sev = 9 WHERE id = 11", 1, 1),
            ("UPDATE issue SET sev = 9 WHERE id IN (10, 12, 99)", 2, 2),
            (
                "UPDATE issue SET sev = 8 WHERE project_id = 1 AND sev = 3",
                2,
                0,
            ),
            ("UPDATE issue SET sev = 7 WHERE title = 'slow'", 3, 1),
            ("DELETE FROM issue WHERE project_id = 2", 1, 1),
            ("DELETE FROM issue WHERE id = 99", 0, 0),
            ("DELETE FROM issue", 2, 2),
        ] {
            let out = db.execute(sql).unwrap();
            assert_eq!(out.stats.rows_scanned, scanned, "{sql}");
            assert_eq!(out.stats.rows_returned, affected, "{sql}");
        }
    }

    /// `UPDATE` / `DELETE` as they ran before they probed: filter `scan()`
    /// with the predicate, then apply in scan order. Returns rows affected.
    fn scan_driven_write(db: &mut Database, stmt: &Statement) -> u64 {
        let (table, sets, predicate) = match stmt {
            Statement::Update {
                table,
                sets,
                predicate,
            } => (table, Some(sets), predicate),
            Statement::Delete { table, predicate } => (table, None, predicate),
            other => panic!("not an UPDATE or DELETE: {other:?}"),
        };
        let t = db.table(table).unwrap();
        let mut scope = Scope::new();
        scope.add_source(table, t);
        let mut hits: Vec<(usize, Vec<(usize, Value)>)> = Vec::new();
        for (rid, row) in t.scan() {
            let hit = predicate
                .as_ref()
                .is_none_or(|p| eval_expr(p, &scope, row, &[]).unwrap().is_truthy());
            if hit {
                let cells = sets.into_iter().flatten().map(|(name, e)| {
                    let ci = t.column_index(name).unwrap();
                    (ci, eval_expr(e, &scope, row, &[]).unwrap())
                });
                hits.push((rid, cells.collect()));
            }
        }
        let t = db.table_mut(table).unwrap();
        let n = hits.len() as u64;
        for (rid, cells) in hits {
            if sets.is_none() {
                t.delete(rid);
            }
            for (ci, v) in cells {
                t.update_cell(rid, ci, v);
            }
        }
        n
    }

    #[test]
    fn table_after_probe_driven_writes_equals_table_after_scan_driven_writes() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        for seed in [11, 12, 13] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = Database::new();
            db.execute("CREATE TABLE w (id INT PRIMARY KEY, k INT, u INT, s TEXT)")
                .unwrap();
            db.execute("CREATE INDEX ON w (k)").unwrap();
            for id in 0..300 {
                // Every seventh row has no `k`: `k = NULL` must not find it.
                let k = match id % 7 {
                    0 => "NULL".to_string(),
                    _ => (id % 23).to_string(),
                };
                db.execute(&format!(
                    "INSERT INTO w VALUES ({id}, {k}, {}, 's{id}')",
                    id % 5
                ))
                .unwrap();
            }
            let mut reference = db.clone();
            let mut next_id = 300;

            for step in 0..400 {
                let id = rng.random_range(0..next_id + 5);
                let (k, k2) = (rng.random_range(0..26), rng.random_range(0..26));
                let u = rng.random_range(0..5);
                let sql = match rng.random_range(0..14) {
                    0 => format!("UPDATE w SET u = {u} WHERE id = {id}"),
                    1 => format!("UPDATE w SET u = u + 1, s = 'x' WHERE k = {k}"),
                    // Rewrites the column it probes, and the primary key.
                    2 => format!("UPDATE w SET k = {k2} WHERE k = {k}"),
                    3 => format!("UPDATE w SET id = id + 1000 WHERE id = {id}"),
                    4 => format!("UPDATE w SET k = {k2} WHERE k IN ({k}, {k2}, 77)"),
                    5 => format!("UPDATE w SET k = {k2} WHERE k = {k} AND u < {u}"),
                    6 => format!("UPDATE w SET k = {k} WHERE {u} = u AND id IN ({id}, 3, 3)"),
                    // No usable conjunct: an unindexed column, an OR.
                    7 => format!("UPDATE w SET k = {k} WHERE u = {u} AND s LIKE 's1%'"),
                    8 => format!("UPDATE w SET u = 0 WHERE k = {k} OR id = {id}"),
                    // A key no row holds, and the key no `=` ever matches.
                    9 => "UPDATE w SET u = 4 WHERE k = 4096".to_string(),
                    10 => "UPDATE w SET u = 4 WHERE k = NULL".to_string(),
                    11 => format!("DELETE FROM w WHERE id = {id}"),
                    12 => format!("DELETE FROM w WHERE k = {k} AND u = {u}"),
                    _ => {
                        next_id += 1;
                        let sql = format!("INSERT INTO w VALUES ({next_id}, {k}, {u}, 'new')");
                        db.execute(&sql).unwrap();
                        reference.execute(&sql).unwrap();
                        continue;
                    }
                };
                let affected = db.execute(&sql).unwrap().stats.rows_returned;
                let expected = scan_driven_write(&mut reference, &parse(&sql).unwrap());
                assert_eq!(affected, expected, "step {step} of seed {seed}: {sql}");

                let (t, r) = (db.table("w").unwrap(), reference.table("w").unwrap());
                let at = format!("after step {step} of seed {seed}: {sql}");
                assert!(t.scan().eq(r.scan()), "scan {at}");
                for key in (-1..next_id + 1005).map(Value::Int).chain([Value::Null]) {
                    assert_eq!(t.probe(0, &key), r.probe(0, &key), "id = {key} {at}");
                    assert_eq!(t.probe(1, &key), r.probe(1, &key), "k = {key} {at}");
                }
            }
            assert!(
                db.table("w").unwrap().len() > 50,
                "writes left rows to test on"
            );
        }
    }

    #[test]
    fn three_way_join() {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (id INT PRIMARY KEY, b_id INT)")
            .unwrap();
        db.execute("CREATE TABLE b (id INT PRIMARY KEY, c_id INT)")
            .unwrap();
        db.execute("CREATE TABLE c (id INT PRIMARY KEY, name TEXT)")
            .unwrap();
        db.execute("INSERT INTO a VALUES (1, 10)").unwrap();
        db.execute("INSERT INTO b VALUES (10, 100)").unwrap();
        db.execute("INSERT INTO c VALUES (100, 'deep')").unwrap();
        let out = db
            .execute("SELECT c.name FROM a JOIN b ON a.b_id = b.id JOIN c ON b.c_id = c.id")
            .unwrap();
        assert_eq!(out.result.rows, vec![vec![Value::Str("deep".into())]]);
    }
}
