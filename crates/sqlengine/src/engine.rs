//! The query executor: plans and runs parsed statements against stored
//! tables, reporting deterministic execution statistics used by the cost
//! model in `sloth-net`.

use std::borrow::{Borrow, Cow};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ast::*;
use crate::error::SqlError;
use crate::footprint::Footprint;
use crate::normalize::normalize;
use crate::shard::EqKey;
use crate::table::Table;
use crate::template_cache::TemplateCache;
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

/// An in-memory SQL database: a catalog of [`Table`]s plus an executor,
/// reading its deployment's [`TemplateCache`].
#[derive(Debug, Default)]
pub struct Database {
    tables: HashMap<TableName, Table>,
    templates: Arc<TemplateCache>,
    version: u64,
}

/// A catalog key: a table's name as declared, hashed and compared
/// ASCII-case-insensitively, so a statement's spelling of the name finds
/// its table through a borrow (as a [`Spelling`]) rather than a lowercased
/// copy. `Arc<str>` so a snapshot's clone of the catalog copies no string.
#[derive(Debug, Clone)]
struct TableName(Arc<str>);

/// A spelling of a table name, as the catalog hashes and compares it.
trait Spelling {
    fn text(&self) -> &str;
}

impl Spelling for TableName {
    fn text(&self) -> &str {
        &self.0
    }
}

impl Spelling for &str {
    fn text(&self) -> &str {
        self
    }
}

impl Hash for dyn Spelling + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for b in self.text().bytes() {
            state.write_u8(b.to_ascii_lowercase());
        }
        state.write_u8(0xff);
    }
}

impl PartialEq for dyn Spelling + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.text().eq_ignore_ascii_case(other.text())
    }
}

impl Eq for dyn Spelling + '_ {}

impl<'a> Borrow<dyn Spelling + 'a> for TableName {
    fn borrow(&self) -> &(dyn Spelling + 'a) {
        self
    }
}

impl Hash for TableName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn Spelling).hash(state);
    }
}

impl PartialEq for TableName {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(&other.0)
    }
}

impl Eq for TableName {}

impl Clone for Database {
    fn clone(&self) -> Self {
        // A clone is an *independent* database (serial references,
        // experiment restarts), so it starts with a template cache of its
        // own, cold: entries are re-derivable and the counters are
        // per-deployment. Table storage itself is copy-on-write by row
        // and index posting (see `table.rs`), so a clone shares the data
        // and each side copies only what it later writes.
        Database {
            tables: self.tables.clone(),
            templates: Arc::default(),
            version: self.version,
        }
    }
}

/// An immutable MVCC read view of a [`Database`], produced by
/// [`Database::snapshot`].
///
/// Taking a snapshot is cheap — the table catalog is cloned but every
/// table's schema, rows and index postings are `Arc`-shared
/// copy-on-write, so the cost is reference-count bumps, not data copies,
/// and a write after it copies the rows and postings it changes (and the
/// pointer blocks above them), not the table (see
/// [`crate::table::Table`]). The snapshot **shares
/// the live database's template cache**: a template parsed through a
/// snapshot read is parsed for everyone, and its counters stay
/// deployment-global.
///
/// The snapshot derefs to `&Database`, exposing exactly the shared-receiver
/// surface: the read door [`Database::execute_read`], footprints and the
/// catalog. There is no `DerefMut`, so the write door
/// ([`Database::execute_write`]) and [`Database::execute`] are unreachable
/// by construction.
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
                templates: Arc::clone(&self.templates),
                version: self.version,
            },
        }
    }

    /// Looks up a table (case-insensitive, without copying the name).
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name as &dyn Spelling)
    }

    /// Names of all tables, sorted (deterministic). Borrows; no per-call
    /// string cloning.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.values().map(|t| &*t.name).collect();
        names.sort_unstable();
        names
    }

    /// The template cache this database reads — its deployment's.
    pub fn template_cache(&self) -> &Arc<TemplateCache> {
        &self.templates
    }

    /// Makes this database read `cache`: how a deployment gives all its
    /// databases, and the router in front of them, one template cache.
    pub fn set_template_cache(&mut self, cache: Arc<TemplateCache>) {
        self.templates = cache;
    }

    /// The [`Footprint`] of one SQL string, answered from the template
    /// cache (one parameterized parse per template; repeated statements
    /// substitute their extracted literals into the cached template's key
    /// pins).
    pub fn footprint_of(&self, sql: &str) -> Footprint {
        self.templates.footprint(sql, normalize(sql).ok().as_ref())
    }

    /// Executes one SQL statement — read or write, DML or DDL — from its
    /// template's entry: the statement is normalized (one lexer pass), and
    /// its template's parameterized statement runs against the extracted
    /// literals, parsed only the first time the deployment sees the
    /// template.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome, SqlError> {
        let norm = normalize(sql)?;
        let plan = self.templates.plan(sql, Some(&norm))?;
        match &plan.template.stmt {
            stmt @ Statement::Select(_) => {
                self.execute_read(stmt, plan.params, false).map(|(o, _)| o)
            }
            stmt => self.execute_write(stmt, plan.params),
        }
    }

    /// Executes a `SELECT` — its `?` slots bound to `params` — through
    /// `&self`, refusing any other statement kind: the read door, and the
    /// one a [`Snapshot`] offers. With `trace`, the outcome of a row
    /// (non-aggregate) read carries a [`MergeTrace`], so a scatter-gather
    /// router can merge per-shard results in exact single-server order.
    pub fn execute_read(
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

    /// Executes a write, DDL or transaction boundary — its `?` slots bound
    /// to `params`: the write door. A `SELECT` belongs to
    /// [`Database::execute_read`] and is refused.
    pub fn execute_write(
        &mut self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<ExecOutcome, SqlError> {
        // Transaction boundaries are engine no-ops: they must not bump the
        // data version (a snapshot taken before a bare COMMIT is still
        // perfectly current).
        let bumps = !matches!(
            stmt,
            Statement::Begin | Statement::Commit | Statement::Rollback
        );
        let out = match stmt {
            Statement::CreateTable { name, columns } => {
                if self.table(name).is_some() {
                    return Err(SqlError::new(format!("table {name} already exists")));
                }
                let table = Table::new(name.clone(), columns.clone());
                self.tables
                    .insert(TableName(Arc::clone(&table.name)), table);
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
            Statement::Select(_) => Err(SqlError::new("a SELECT reached the write path")),
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
        out
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
            .get_mut(&name as &dyn Spelling)
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
        let tuples = eval_const(values, params)?;
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
        let mut scope = Scope::default();
        scope.add_source(&sel.from.alias, base);

        // Base rows: an index probe from an equality / IN conjunct where
        // one exists. Every row keeps its base-table row id so traced
        // executions can report exact merge keys, and stays borrowed from
        // the table until the projection knows it is returned; a join's
        // combined rows are the only ones built before that.
        let from = (sel.from.name.as_str(), sel.from.alias.as_str());
        let base_rows = candidate_rows(sel.predicate.as_ref(), from, base, params);
        stats.rows_scanned += base_rows.len() as u64;
        let mut current: Vec<(usize, Cow<[Value]>)> = base_rows
            .into_iter()
            .map(|(rid, r)| (rid, Cow::Borrowed(r)))
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

            // Build hash table over the joined table, keyed as `=` keys.
            stats.rows_scanned += right_table.len() as u64;
            let mut built: HashMap<EqKey, Vec<&[Value]>> = HashMap::new();
            for (_, row) in right_table.scan() {
                if let Some(key) = EqKey::of(&row[build_ci]) {
                    built.entry(key).or_default().push(row);
                }
            }
            let mut next = Vec::new();
            for (rid, row) in &current {
                let Some(matches) = EqKey::of(&row[probe_idx]).and_then(|k| built.get(&k)) else {
                    continue;
                };
                for m in matches {
                    let mut combined = Vec::with_capacity(row.len() + m.len());
                    combined.extend_from_slice(row);
                    combined.extend_from_slice(m);
                    next.push((*rid, Cow::Owned(combined)));
                }
            }
            scope.add_source(&join.table.alias, right_table);
            current = next;
        }

        // Filter: the predicate binds once, to the joined row's offsets.
        if let Some(pred) = &sel.predicate {
            let mut bound = Bound::sized_for([pred]);
            let pred = bound.bind(pred, &scope, params);
            let mut kept = Vec::with_capacity(current.len());
            for (rid, row) in current {
                if bound.test(pred, &row)? {
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
                current
                    .into_iter()
                    .map(|(_, row)| row.into_owned())
                    .collect(),
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
            Projection::Aggregate(_) => {
                return Err(SqlError::new("an aggregate reached the row projection"))
            }
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
        let mut scope = Scope::default();
        scope.add_source(table, t);
        let set_cols: Vec<usize> = sets
            .iter()
            .map(|(name, _)| {
                t.column_index(name)
                    .ok_or_else(|| SqlError::new(format!("no column {name} in {table}")))
            })
            .collect::<Result<_, _>>()?;
        let mut bound = Bound::sized_for(predicate.into_iter().chain(sets.iter().map(|(_, e)| e)));
        let pred = predicate.map(|p| bound.bind(p, &scope, params));
        let set_exprs: Vec<usize> = sets
            .iter()
            .map(|(_, e)| bound.bind(e, &scope, params))
            .collect();

        let mut candidates = candidate_rows(predicate, (table, table), t, params);
        // Apply in scan order whatever order the probe gave: the posting
        // list of a value written here then fills as a scan would fill it.
        candidates.sort_unstable_by_key(|&(rid, _)| rid);
        let scanned = candidates.len() as u64;
        // The rows to update, and their new cells, `sets.len()` a row.
        let mut hits = Vec::new();
        let mut cells = Vec::new();
        for (rid, row) in candidates {
            if pred.map_or(Ok(true), |p| bound.test(p, row))? {
                hits.push(rid);
                for &e in &set_exprs {
                    cells.push(bound.eval(e, row)?.into_owned());
                }
            }
        }
        let n = hits.len() as u64;
        let t = self.table_mut(table)?;
        let mut cells = cells.into_iter();
        for rid in hits {
            for (&ci, v) in set_cols.iter().zip(cells.by_ref()) {
                t.update_cell(rid, ci, v);
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
        let mut scope = Scope::default();
        scope.add_source(table, t);
        let mut bound = Bound::sized_for(predicate);
        let pred = predicate.map(|p| bound.bind(p, &scope, params));
        let candidates = candidate_rows(predicate, (table, table), t, params);
        let scanned = candidates.len() as u64;
        let mut doomed = Vec::new();
        for (rid, row) in candidates {
            if pred.map_or(Ok(true), |p| bound.test(p, row))? {
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
        let c = t
            .column_index(name)
            .ok_or_else(|| SqlError::new(format!("no column {name} in {}", t.name)))?;
        row[c] = v;
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

/// Evaluates the tuples of `INSERT … VALUES` — literals, `?` slots bound
/// to `params`, and their arithmetic — with no row scope, every tuple
/// before the first row is inserted. The engine's insert and the shard
/// router's (which routes each tuple by its shard-key value) both evaluate
/// tuples here, so they error on precisely the same expressions (column
/// references, unbound slots). Each tuple is allocated at its exact width:
/// a tuple in declaration order becomes the stored row as it is.
pub fn eval_const(values: &[Vec<Expr>], params: &[Value]) -> Result<Vec<Row>, SqlError> {
    let scope = Scope::default();
    // Each expression is evaluated once: it binds, evaluates, and leaves
    // its nodes' room to the next.
    let mut bound = Bound::default();
    let mut tuples = Vec::with_capacity(values.len());
    for tuple in values {
        let mut evaluated = Vec::with_capacity(tuple.len());
        for e in tuple {
            bound.nodes.clear();
            let at = bound.bind(e, &scope, params);
            evaluated.push(bound.eval(at, &[])?.into_owned());
        }
        tuples.push(evaluated);
    }
    Ok(tuples)
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

/// The sources a statement's column names resolve against: each table's
/// alias and borrowed column list, at its offset in the combined row.
/// Names match ASCII-case-insensitively. A qualified name takes the last
/// match of its alias and column, a bare one the first column of its name
/// (MySQL would call that ambiguous; our generated SQL qualifies such
/// names).
#[derive(Default)]
struct Scope<'a> {
    sources: Vec<(&'a str, &'a [ColumnDef], usize)>,
}

impl<'a> Scope<'a> {
    fn add_source(&mut self, alias: &'a str, table: &'a Table) {
        let offset = self
            .sources
            .last()
            .map_or(0, |(_, cols, at)| at + cols.len());
        self.sources.push((alias, &table.columns, offset));
    }

    fn resolve(&self, c: &ColumnRef) -> Option<usize> {
        let named = |col: &ColumnDef| col.name.eq_ignore_ascii_case(&c.column);
        match &c.table {
            Some(t) => self
                .sources
                .iter()
                .rev()
                .filter(|(alias, _, _)| alias.eq_ignore_ascii_case(t))
                .find_map(|(_, cols, at)| cols.iter().rposition(named).map(|i| at + i)),
            None => self
                .sources
                .iter()
                .find_map(|(_, cols, at)| cols.iter().position(named).map(|i| at + i)),
        }
    }

    fn output_columns(&self) -> Vec<String> {
        self.sources
            .iter()
            .flat_map(|(_, cols, _)| cols.iter().map(|c| c.name.clone()))
            .collect()
    }
}

/// The expressions of one statement execution, bound: every column
/// reference resolved to its offset in the row and every `?` slot to its
/// value, once, so evaluating a row looks no name up and copies no cell.
/// A name that does not resolve, or a slot with no value, binds to its
/// error, raised only when a row reaches it: a statement over no rows
/// still succeeds, and `OR` / `AND` still short-circuit past it. The
/// nodes live in one vector, children before their parent.
#[derive(Default)]
struct Bound<'s> {
    nodes: Vec<Node<'s>>,
}

enum Node<'s> {
    Value(&'s Value),
    Column(usize),
    UnknownColumn(&'s str),
    Unbound(usize),
    Not(usize),
    Binary {
        op: BinOp,
        left: usize,
        right: usize,
    },
    /// `x IN (…)` over constants: one set of `=` keys, so a row costs one
    /// lookup however long the list.
    InSet {
        expr: usize,
        keys: HashSet<EqKey<'s>>,
    },
    /// `x IN (…)` with a member that is no constant, tried in order.
    InList {
        expr: usize,
        items: Vec<usize>,
    },
    Like {
        expr: usize,
        pattern: &'s str,
    },
    IsNull {
        expr: usize,
        negated: bool,
    },
}

impl<'s> Bound<'s> {
    /// Room for binding `exprs`, so binding them allocates once.
    fn sized_for<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> Self {
        fn nodes_in(e: &Expr) -> usize {
            1 + match e {
                Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => 0,
                Expr::Not(e) | Expr::Like { expr: e, .. } | Expr::IsNull { expr: e, .. } => {
                    nodes_in(e)
                }
                Expr::Binary { left, right, .. } => nodes_in(left) + nodes_in(right),
                Expr::InList { expr, list } => {
                    nodes_in(expr) + list.iter().map(nodes_in).sum::<usize>()
                }
            }
        }
        Bound {
            nodes: Vec::with_capacity(exprs.into_iter().map(nodes_in).sum()),
        }
    }

    /// Binds `e` under `scope` and `params`; returns its node.
    fn bind(&mut self, e: &'s Expr, scope: &Scope, params: &'s [Value]) -> usize {
        let node = match e {
            Expr::Literal(v) => Node::Value(v),
            Expr::Param(i) => params.get(*i).map_or(Node::Unbound(*i), Node::Value),
            Expr::Column(c) => scope
                .resolve(c)
                .map_or(Node::UnknownColumn(&c.column), Node::Column),
            Expr::Not(inner) => Node::Not(self.bind(inner, scope, params)),
            Expr::Binary { op, left, right } => Node::Binary {
                op: *op,
                left: self.bind(left, scope, params),
                right: self.bind(right, scope, params),
            },
            Expr::InList { expr, list } => {
                let expr = self.bind(expr, scope, params);
                if list.iter().all(|item| constant(item, params).is_some()) {
                    // `=` never matches NULL or NaN, so neither keys the set.
                    let keys = list
                        .iter()
                        .filter_map(|item| constant(item, params).and_then(EqKey::of))
                        .collect();
                    Node::InSet { expr, keys }
                } else {
                    let items = list.iter().map(|item| self.bind(item, scope, params));
                    Node::InList {
                        expr,
                        items: items.collect(),
                    }
                }
            }
            Expr::Like { expr, pattern } => Node::Like {
                expr: self.bind(expr, scope, params),
                pattern,
            },
            Expr::IsNull { expr, negated } => Node::IsNull {
                expr: self.bind(expr, scope, params),
                negated: *negated,
            },
        };
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Whether node `at` holds for `row`.
    fn test(&self, at: usize, row: &[Value]) -> Result<bool, SqlError> {
        Ok(self.eval(at, row)?.is_truthy())
    }

    /// The value of node `at` over `row`: a constant or a cell borrowed,
    /// a computed value owned.
    fn eval<'r>(&'r self, at: usize, row: &'r [Value]) -> Result<Cow<'r, Value>, SqlError> {
        let truth = |b: bool| Ok(Cow::Owned(Value::Bool(b)));
        match &self.nodes[at] {
            Node::Value(v) => Ok(Cow::Borrowed(*v)),
            Node::Column(off) => row
                .get(*off)
                .map(Cow::Borrowed)
                .ok_or_else(|| SqlError::new("column offset out of range")),
            Node::UnknownColumn(name) => Err(SqlError::new(format!("unknown column {name}"))),
            Node::Unbound(i) => Err(SqlError::new(format!("unbound parameter ?{i}"))),
            Node::Not(inner) => truth(!self.test(*inner, row)?),
            Node::Binary {
                op: BinOp::And,
                left,
                right,
            } => truth(self.test(*left, row)? && self.test(*right, row)?),
            Node::Binary {
                op: BinOp::Or,
                left,
                right,
            } => truth(self.test(*left, row)? || self.test(*right, row)?),
            Node::Binary { op, left, right } => {
                let l = self.eval(*left, row)?;
                let r = self.eval(*right, row)?;
                eval_binop(*op, &l, &r).map(Cow::Owned)
            }
            Node::InSet { expr, keys } => {
                let v = self.eval(*expr, row)?;
                truth(EqKey::of(&v).is_some_and(|k| keys.contains(&k)))
            }
            Node::InList { expr, items } => {
                let v = self.eval(*expr, row)?;
                for &item in items {
                    if v.sql_eq(&*self.eval(item, row)?) {
                        return truth(true);
                    }
                }
                truth(false)
            }
            Node::Like { expr, pattern } => {
                let v = self.eval(*expr, row)?;
                truth(v.as_str().is_some_and(|s| like_match(s, pattern)))
            }
            Node::IsNull { expr, negated } => truth(self.eval(*expr, row)?.is_null() != *negated),
        }
    }
}

/// The value of a literal or a bound `?` slot: the expressions an index
/// probe can key on and an `IN` set can hold.
fn constant<'v>(e: &'v Expr, params: &'v [Value]) -> Option<&'v Value> {
    match e {
        Expr::Literal(v) => Some(v),
        Expr::Param(i) => params.get(*i),
        _ => None,
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
        // `Bound::eval` short-circuits both before evaluating the right side.
        And | Or => Err(SqlError::new(format!("{op:?} outside a short circuit"))),
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
    rows: &[(usize, Cow<[Value]>)],
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
/// is the statement's `rows_scanned`. `from` is the table's name and the
/// alias its columns may be qualified by (`UPDATE` and `DELETE` name their
/// table without one).
fn candidate_rows<'t>(
    predicate: Option<&Expr>,
    from: (&str, &str),
    table: &'t Table,
    params: &[Value],
) -> Vec<(usize, &'t [Value])> {
    let rows = |ids: &[usize]| {
        let mut rows = Vec::with_capacity(ids.len());
        rows.extend(
            ids.iter()
                .filter_map(|&rid| table.row(rid).map(|r| (rid, r))),
        );
        rows
    };
    match find_index_probe(predicate, from, table, params) {
        Some(Probe::Eq(ci, key)) => rows(table.probe(ci, key).unwrap_or(&[])),
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
        None => {
            let mut rows = Vec::with_capacity(table.len());
            rows.extend(table.scan());
            rows
        }
    }
}

/// An index-probe plan extracted from the predicate.
enum Probe<'v> {
    /// One probe: `indexed_col = value`.
    Eq(usize, &'v Value),
    /// K probes: `indexed_col IN (v1 … vk)` — the mechanism that makes a
    /// fused batch lookup cost K probes instead of a full scan.
    In(usize, Vec<&'v Value>),
}

/// Detects `indexed_col = literal` / `indexed_col IN (literals)` conjuncts
/// usable as an index probe on the base table. `params` resolves `?` slots
/// of cached plans.
fn find_index_probe<'v>(
    predicate: Option<&'v Expr>,
    from: (&str, &str),
    table: &Table,
    params: &'v [Value],
) -> Option<Probe<'v>> {
    fn probe_column(col: &ColumnRef, (name, alias): (&str, &str), table: &Table) -> Option<usize> {
        if let Some(q) = &col.table {
            if !q.eq_ignore_ascii_case(alias) && !q.eq_ignore_ascii_case(name) {
                return None;
            }
        }
        let ci = table.column_index(&col.column)?;
        table.has_index(ci).then_some(ci)
    }

    fn walk<'v>(
        e: &'v Expr,
        from: (&str, &str),
        table: &Table,
        params: &'v [Value],
    ) -> Option<Probe<'v>> {
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
                    (Expr::Column(c), k) => (c, constant(k, params)?),
                    (k, Expr::Column(c)) => (c, constant(k, params)?),
                    _ => return None,
                };
                let ci = probe_column(col, from, table)?;
                Some(Probe::Eq(ci, key))
            }
            Expr::InList { expr, list } => {
                let Expr::Column(col) = &**expr else {
                    return None;
                };
                let ci = probe_column(col, from, table)?;
                let keys: Option<Vec<&Value>> =
                    list.iter().map(|item| constant(item, params)).collect();
                Some(Probe::In(ci, keys?))
            }
            _ => None,
        }
    }
    walk(predicate?, from, table, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::parameterize;
    use crate::parser::parse;

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
        // The tests count template-cache lookups from here.
        db.set_template_cache(Arc::default());
        db
    }

    /// A read through `&self` as the batch driver runs one: normalize,
    /// look the template up, execute the entry's statement.
    fn read(db: &Database, sql: &str) -> Result<ExecOutcome, SqlError> {
        let norm = normalize(sql)?;
        let plan = db.template_cache().plan(sql, Some(&norm))?;
        db.execute_read(&plan.template.stmt, plan.params, false)
            .map(|(out, _)| out)
    }

    #[test]
    fn select_star_and_where() {
        let mut db = db_with_issues();
        let out = db.execute("SELECT * FROM issue WHERE sev >= 2").unwrap();
        assert_eq!(out.result.len(), 2);
        assert_eq!(out.stats.rows_scanned, 3);
        assert!(!out.stats.is_write);
    }

    /// Past 2^53 two integers share an `f64`: a probe (keyed exactly) and
    /// a scan (comparing by `=` and `<`) must still tell them apart alike.
    #[test]
    fn probe_and_scan_agree_on_integers_past_two_to_the_53() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (9007199254740992, 1)")
            .unwrap();
        let rows = |db: &mut Database, sql: &str| db.execute(sql).unwrap().result.rows;
        let probe = rows(&mut db, "SELECT v FROM t WHERE id = 9007199254740993");
        let scan = rows(
            &mut db,
            "SELECT v FROM t WHERE id < 0 OR id = 9007199254740993",
        );
        assert_eq!((probe.len(), scan.len()), (0, 0));
        let below = "SELECT v FROM t WHERE id < 9007199254740993";
        assert_eq!(rows(&mut db, below), vec![vec![Value::Int(1)]]);
        let probe = rows(&mut db, "SELECT v FROM t WHERE id = 9007199254740992");
        let scan = rows(
            &mut db,
            "SELECT v FROM t WHERE id < 0 OR id = 9007199254740992",
        );
        assert_eq!((probe.len(), scan.len()), (1, 1));
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
        assert_eq!(db.template_cache().stats().hits, 0);
        let a = db.execute("SELECT title FROM issue WHERE id = 10").unwrap();
        let stats = db.template_cache().stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        // Different literal, different whitespace/case — same template.
        let b = db
            .execute("select TITLE from ISSUE  where id = 11")
            .unwrap();
        let stats = db.template_cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(a.result.get(0, "title"), Some(&Value::Str("crash".into())));
        assert_eq!(b.result.get(0, "title"), Some(&Value::Str("typo".into())));
        // Cached plan still uses the PK probe.
        assert_eq!(b.stats.rows_scanned, 1);
    }

    /// A write executes from its template's entry, as a read does: the
    /// template parses once, and every later statement of it is a hit. A
    /// write that does not parse raises its own parse error, every time.
    #[test]
    fn a_write_executes_from_its_template_entry() {
        let mut db = db_with_issues();
        for i in 0..1000 {
            db.execute(&format!("UPDATE issue SET sev = {} WHERE id = 10", i % 7))
                .unwrap();
        }
        let stats = db.template_cache().stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 999, 1));
        let sev = db.execute("SELECT sev FROM issue WHERE id = 10").unwrap();
        assert_eq!(sev.result.rows, vec![vec![Value::Int(999 % 7)]]);
        let bad = "UPDATE issue SET sev = WHERE id = 1";
        let e1 = db.execute(bad).unwrap_err();
        let e2 = db.execute(bad).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(e1, parse(bad).unwrap_err(), "its own parse error");
    }

    /// A statement's error text is the same whether its template was
    /// cached or not — for a template that does not parse (its parse
    /// error quotes the statement's own text) and for one that parses but
    /// fails to execute.
    #[test]
    fn error_text_does_not_depend_on_the_cache() {
        for (sql, warm, parses) in [
            (
                "SELECT * FROM issue WHERE id = 1 AND",
                "SELECT * FROM issue WHERE id = 2 AND",
                false,
            ),
            (
                "SELECT nope FROM issue WHERE id = 1",
                "SELECT nope FROM issue WHERE id = 2",
                true,
            ),
        ] {
            let uncached = db_with_issues().execute(sql).unwrap_err();
            let mut db = db_with_issues();
            assert!(db.execute(warm).is_err());
            assert_eq!(db.template_cache().stats().entries, 1, "{sql}: remembered");
            let cached = db.execute(sql).unwrap_err();
            assert_eq!(cached, uncached, "{sql}");
            // A parse error quotes the failing statement, not the one
            // that filled the entry.
            assert_eq!(cached.message().contains(sql), !parses, "{cached:?}");
        }
    }

    #[test]
    fn plan_cache_results_match_uncached() {
        let mut db = db_with_issues();
        let cold = db_with_issues();
        for sql in [
            "SELECT * FROM issue WHERE sev >= 2 ORDER BY id DESC LIMIT 2",
            "SELECT title FROM issue WHERE title LIKE 'c%'",
            "SELECT id FROM issue WHERE id IN (10, 11)",
            "SELECT id FROM issue WHERE sev = -1",
        ] {
            // Warm the cache, then re-execute: second run is the cached plan.
            let first = db.execute(sql).unwrap();
            let second = db.execute(sql).unwrap();
            let (reference, _) = cold.execute_read(&parse(sql).unwrap(), &[], false).unwrap();
            assert_eq!(first.result, reference.result, "{sql}");
            assert_eq!(second.result, reference.result, "{sql}");
            assert_eq!(second.stats, reference.stats, "{sql}");
        }
        assert!(db.template_cache().stats().hits >= 4);
    }

    #[test]
    fn plan_cache_bounded() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        // Distinct LIMIT values produce distinct templates.
        for i in 1..1200usize {
            db.execute(&format!("SELECT id FROM t LIMIT {i}")).unwrap();
        }
        assert!(db.template_cache().stats().entries <= 512);
    }

    #[test]
    fn plan_cache_eviction_accounting() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        db.set_template_cache(Arc::default());
        // Fill exactly to the 512-entry bound: no evictions yet.
        for i in 1..=512usize {
            db.execute(&format!("SELECT id FROM t LIMIT {i}")).unwrap();
        }
        let full = db.template_cache().stats();
        assert_eq!(full.entries, 512);
        assert_eq!(full.evictions, 0);
        assert_eq!(full.misses, 512);
        // One more distinct template evicts the oldest (FIFO).
        db.execute("SELECT id FROM t LIMIT 600").unwrap();
        let after = db.template_cache().stats();
        assert_eq!(after.entries, 512, "bound holds");
        assert_eq!(after.evictions, 1);
        // The evicted template (LIMIT 1, oldest) now misses again and
        // re-enters, evicting the next-oldest; a young template still hits.
        db.execute("SELECT id FROM t LIMIT 1").unwrap();
        let refill = db.template_cache().stats();
        assert_eq!(refill.misses, after.misses + 1, "evicted template misses");
        assert_eq!(refill.evictions, 2);
        db.execute("SELECT id FROM t LIMIT 600").unwrap();
        assert_eq!(db.template_cache().stats().hits, refill.hits + 1);
        // Hit rate reflects the churn.
        assert!(db.template_cache().stats().hit_rate() < 0.1);
    }

    #[test]
    fn database_is_send_and_sync() {
        // The concurrency refactor hinges on this: a `Database` (with its
        // Arc-shared template cache) can live behind an `RwLock` shared by
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
        let stats = shared.read().unwrap().template_cache().stats();
        assert_eq!(stats.hits, 4, "all threads hit the one warmed plan");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn footprint_cache_hits_on_same_template() {
        let db = db_with_issues();
        assert_eq!(db.template_cache().stats().hits, 0);
        let a = db.footprint_of("SELECT title FROM issue WHERE id = 10");
        let s = db.template_cache().stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));
        // Different literal, different formatting — same template, no parse.
        let b = db.footprint_of("select TITLE from ISSUE  where id = 11");
        let s = db.template_cache().stats();
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
        assert!(db.template_cache().stats().hits >= 7);
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
        let before = db.template_cache().stats();
        assert!(db.footprint_of("GRANT ALL ON issue").barrier);
        assert_eq!(db.template_cache().stats().hits, before.hits + 1);
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
        let old = read(&snap, "SELECT sev FROM issue WHERE id = 10").unwrap();
        assert_eq!(old.result.rows, vec![vec![Value::Int(3)]]);
        let all = read(&snap, "SELECT id FROM issue").unwrap();
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
        for write in ["UPDATE issue SET sev = 1", "DELETE FROM issue"] {
            let stmt = parse(write).unwrap();
            assert_eq!(
                snap.execute_read(&stmt, &[], false).unwrap_err(),
                read_only_error()
            );
        }
        // A plan warmed through the snapshot is warm on the live database.
        read(&snap, "SELECT title FROM issue WHERE id = 10").unwrap();
        let warmed = db.template_cache().stats();
        assert_eq!((warmed.hits, warmed.misses, warmed.entries), (0, 1, 1));
        db.execute("SELECT title FROM issue WHERE id = 11").unwrap();
        assert_eq!(
            db.template_cache().stats().hits,
            1,
            "live execution hits it"
        );
    }

    #[test]
    fn clone_still_deep_copies() {
        let mut db = db_with_issues();
        let mut copy = db.clone();
        copy.execute("UPDATE issue SET sev = 42 WHERE id = 10")
            .unwrap();
        let original = db.execute("SELECT sev FROM issue WHERE id = 10").unwrap();
        assert_eq!(original.result.rows, vec![vec![Value::Int(3)]]);
        // And the clone's template cache is independent of the original's.
        copy.execute("SELECT title FROM issue WHERE id = 10")
            .unwrap();
        assert_eq!(
            db.template_cache().stats().misses,
            1,
            "only the original's read"
        );
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

    /// A row is stored at its table's width; it is a slice, so it holds
    /// no spare capacity.
    #[test]
    fn inserted_rows_are_stored_at_their_width() {
        let mut db = db_with_issues();
        db.execute("INSERT INTO issue VALUES (13, 2, 'new', 5), (14, 2, 'newer', 1)")
            .unwrap();
        for (_, row) in db.table("issue").unwrap().scan() {
            assert_eq!(row.len(), 4, "{row:?}");
        }
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
        let mut scope = Scope::default();
        scope.add_source(table, t);
        let mut bound = Bound::default();
        let pred = predicate.as_ref().map(|p| bound.bind(p, &scope, &[]));
        let set_exprs: Vec<(usize, usize)> = sets
            .into_iter()
            .flatten()
            .map(|(name, e)| (t.column_index(name).unwrap(), bound.bind(e, &scope, &[])))
            .collect();
        let mut hits: Vec<(usize, Vec<(usize, Value)>)> = Vec::new();
        for (rid, row) in t.scan() {
            if pred.is_none_or(|p| bound.test(p, row).unwrap()) {
                let cells = set_exprs
                    .iter()
                    .map(|&(ci, e)| (ci, bound.eval(e, row).unwrap().into_owned()));
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

    /// `id = TRUE` on an `INT` primary key probes the row `=` matches,
    /// the one a scan form (`id + 0 = TRUE`, nothing to probe) updates.
    #[test]
    fn a_bool_key_probes_an_int_primary_key() {
        let mut by_probe = Database::new();
        by_probe
            .execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
            .unwrap();
        by_probe
            .execute("INSERT INTO t VALUES (0, 0), (1, 0), (2, 0)")
            .unwrap();
        let mut by_scan = by_probe.clone();
        let probed = by_probe
            .execute("UPDATE t SET k = 9 WHERE id = TRUE")
            .unwrap();
        let scanned = by_scan
            .execute("UPDATE t SET k = 9 WHERE id + 0 = TRUE")
            .unwrap();
        assert_eq!(probed.stats.rows_returned, 1);
        assert_eq!(scanned.stats.rows_returned, 1);
        let k = |db: &mut Database| db.execute("SELECT id, k FROM t").unwrap().result.rows;
        assert_eq!(k(&mut by_probe), k(&mut by_scan));
    }

    /// `f = -0.0` on an indexed `FLOAT` column finds the `0.0` row, as the
    /// scan form does.
    #[test]
    fn minus_zero_probes_a_float_index_as_zero() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, f FLOAT)")
            .unwrap();
        db.execute("CREATE INDEX ON t (f)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 0.0), (2, 1.5), (3, 0)")
            .unwrap();
        let probed = db.execute("SELECT id FROM t WHERE f = -0.0").unwrap();
        let scanned = db
            .execute("SELECT id FROM t WHERE id < 0 OR f = -0.0")
            .unwrap();
        assert_eq!(
            probed.result.rows,
            vec![vec![Value::Int(1)], vec![Value::Int(3)]]
        );
        assert_eq!(probed.result.rows, scanned.result.rows);
        assert_eq!(probed.stats.rows_scanned, 2, "the probe pins both rows");
    }

    fn join_tables(a: &str, b: &str) -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (id INT PRIMARY KEY, x INT)")
            .unwrap();
        db.execute("CREATE TABLE b (id INT PRIMARY KEY, y FLOAT)")
            .unwrap();
        db.execute(&format!("INSERT INTO a VALUES {a}")).unwrap();
        db.execute(&format!("INSERT INTO b VALUES {b}")).unwrap();
        db
    }

    /// `NULL = NULL` is not true, so a join pairs no two `NULL`s.
    #[test]
    fn a_join_never_pairs_nulls() {
        let mut db = join_tables("(1, NULL), (2, 5)", "(10, NULL), (20, 5)");
        let out = db
            .execute("SELECT a.id, b.id FROM a JOIN b ON a.x = b.y")
            .unwrap();
        assert_eq!(out.result.rows, vec![vec![Value::Int(2), Value::Int(20)]]);
    }

    /// An `INT` column joins a `FLOAT` column by value: `1 = 1.0`.
    #[test]
    fn an_int_column_joins_a_float_column_by_value() {
        let mut db = join_tables("(1, 1), (2, 2)", "(10, 1.0), (20, 2.5), (30, 2)");
        let out = db
            .execute("SELECT a.id, b.id FROM a JOIN b ON a.x = b.y")
            .unwrap();
        let pairs = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(30)],
        ];
        assert_eq!(out.result.rows, pairs);
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

    #[test]
    fn former_panic_paths_answer_typed_errors() {
        // A logical operator reaching the arithmetic evaluator and a fused
        // plan asked of an aggregate or a non-SELECT answer errors instead
        // of aborting the process.
        let e = eval_binop(BinOp::And, &Value::Int(1), &Value::Int(1)).unwrap_err();
        assert_eq!(e, SqlError::new("And outside a short circuit"));
        let count = parse("SELECT COUNT(*) FROM t").unwrap();
        let Statement::Select(sel) = &count else {
            panic!("{count:?}")
        };
        let column = crate::ast::ColumnRef {
            table: None,
            column: "id".into(),
        };
        let fused = crate::fuse::build_fused(sel, &column, &[Value::Int(1)]);
        assert_eq!(fused.unwrap_err(), SqlError::new("not a fusable lookup"));
        assert!(crate::fuse::render_select(&count).is_err());
        let create = parse("CREATE TABLE u (id INT PRIMARY KEY)").unwrap();
        assert!(crate::fuse::render_select(&create).is_err());
    }

    /// A string literal is stored as the UTF-8 text it was written as, and
    /// found by it.
    #[test]
    fn a_non_ascii_literal_is_stored_as_written() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'café'), (2, '日本語')")
            .unwrap();
        let rows = db.execute("SELECT v FROM t").unwrap().result.rows;
        let want = [Value::Str("café".into()), Value::Str("日本語".into())];
        assert_eq!(rows, want.map(|v| vec![v]));
        let hit = db.execute("SELECT id FROM t WHERE v = 'café'").unwrap();
        assert_eq!(hit.result.rows, vec![vec![Value::Int(1)]]);
        let like = db.execute("SELECT id FROM t WHERE v LIKE '日本%'").unwrap();
        assert_eq!(like.result.rows, vec![vec![Value::Int(2)]]);
    }

    /// The catalog finds a table by any spelling of its name, keeps the
    /// declared one, and refuses a second table under another spelling.
    #[test]
    fn tables_are_found_by_any_spelling_of_their_name() {
        let mut db = Database::new();
        db.execute("CREATE TABLE OrderLine (id INT PRIMARY KEY, qty INT)")
            .unwrap();
        for name in ["OrderLine", "orderline", "ORDERLINE", "oRDERlINE"] {
            assert_eq!(
                db.table(name).map(|t| &*t.name),
                Some("OrderLine"),
                "{name}"
            );
        }
        assert!(db.table("orderlines").is_none());
        assert!(db.table("order_line").is_none());
        db.execute("INSERT INTO ORDERLINE VALUES (1, 5)").unwrap();
        db.execute("UPDATE orderLine SET qty = 6 WHERE id = 1")
            .unwrap();
        let out = db.execute("SELECT qty FROM orderline").unwrap();
        assert_eq!(out.result.rows, vec![vec![Value::Int(6)]]);
        let again = db
            .execute("CREATE TABLE ORDERLINE (id INT PRIMARY KEY)")
            .unwrap_err();
        assert_eq!(again.message(), "table ORDERLINE already exists");
        db.execute("CREATE TABLE orderline2 (id INT PRIMARY KEY)")
            .unwrap();
        assert_eq!(db.table_names(), vec!["OrderLine", "orderline2"]);
    }

    /// A name that does not resolve binds to its error, raised by the
    /// first row that reaches it: none over an empty table, and none on a
    /// row where `OR` is already true.
    #[test]
    fn an_unknown_column_fails_only_the_rows_that_reach_it() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT)")
            .unwrap();
        let none = db.execute("SELECT * FROM t WHERE c = 1").unwrap();
        assert_eq!(none.result.len(), 0);
        assert!(db.execute("UPDATE t SET a = 2 WHERE c = 1").is_ok());
        assert!(db.execute("DELETE FROM t WHERE c = 1").is_ok());
        db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
        for sql in [
            "SELECT * FROM t WHERE c = 1",
            "UPDATE t SET a = 2 WHERE c = 1",
            "UPDATE t SET a = c WHERE id = 1",
            "DELETE FROM t WHERE c = 1",
        ] {
            let e = db.execute(sql).unwrap_err();
            assert_eq!(e.message(), "unknown column c", "{sql}");
        }
        let short = db
            .execute("SELECT id FROM t WHERE a = 1 OR nosuch = 2")
            .unwrap();
        assert_eq!(short.result.rows, vec![vec![Value::Int(1)]]);
        let and = db
            .execute("SELECT id FROM t WHERE a = 2 AND nosuch = 2")
            .unwrap();
        assert_eq!(and.result.len(), 0);
        db.execute("INSERT INTO t VALUES (2, 2)").unwrap();
        let e = db
            .execute("SELECT id FROM t WHERE a = 1 OR nosuch = 2")
            .unwrap_err();
        assert_eq!(e.message(), "unknown column nosuch");
        let e = db.execute("INSERT INTO t VALUES (3, a)").unwrap_err();
        assert_eq!(e.message(), "unknown column a");
    }

    /// A `?` slot with no value binds to its error, with its slot number,
    /// raised only when a row reaches it — in an `IN` list too, past the
    /// members before it.
    #[test]
    fn an_unbound_slot_keeps_its_text() {
        let mut db = db_with_issues();
        let (sev, _) = parameterize(&parse("SELECT id FROM issue WHERE sev = 1").unwrap());
        let e = db.execute_read(&sev, &[], false).unwrap_err();
        assert_eq!(e.message(), "unbound parameter ?0");
        let (list, _) = parameterize(&parse("SELECT id FROM issue WHERE id IN (10, 11)").unwrap());
        let e = db
            .execute_read(&list, &[Value::Int(10)], false)
            .unwrap_err();
        assert_eq!(e.message(), "unbound parameter ?1");
        db.execute("DELETE FROM issue WHERE id != 10").unwrap();
        let (out, _) = db.execute_read(&list, &[Value::Int(10)], false).unwrap();
        assert_eq!(out.result.rows, vec![vec![Value::Int(10)]]);
        db.execute("DELETE FROM issue").unwrap();
        assert!(db.execute_read(&sev, &[], false).is_ok());
        let e = eval_const(&[vec![Expr::Param(2)]], &[Value::Int(1)]).unwrap_err();
        assert_eq!(e.message(), "unbound parameter ?2");
    }

    /// `x IN (…)` over constants answers from a set of `=` keys exactly
    /// what `=` against each member answers, over the values where `=`
    /// is subtle: NULL, NaN, ±0.0, integers past 2^53 that share an
    /// `f64`, integral floats, booleans and strings.
    #[test]
    fn an_in_set_answers_what_each_member_answers() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        const P53: i64 = 1 << 53;
        let pool = [
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(P53 - 1),
            Value::Int(P53),
            Value::Int(P53 + 1),
            Value::Float(P53 as f64),
            Value::Float(P53 as f64 + 2.0),
            Value::Int(-P53),
            Value::Int(-P53 - 1),
            Value::Float(-P53 as f64),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(i64::MAX as f64),
            Value::Float(i64::MIN as f64),
            Value::Float(2.5),
            Value::Str("1".into()),
            Value::Str("".into()),
            Value::Str("a".into()),
            Value::Str("A".into()),
        ];
        let scope = Scope::default();
        let mut rng = StdRng::seed_from_u64(53);
        for trial in 0..4000 {
            let pick = |rng: &mut StdRng| pool[rng.random_range(0..pool.len())].clone();
            let x = pick(&mut rng);
            let members: Vec<Value> = (0..rng.random_range(0..9))
                .map(|_| pick(&mut rng))
                .collect();
            let want = members.iter().any(|m| x.sql_eq(m));
            // Members as literals, and as bound `?` slots.
            let literal = Expr::InList {
                expr: Box::new(Expr::Literal(x.clone())),
                list: members.iter().cloned().map(Expr::Literal).collect(),
            };
            let slotted = Expr::InList {
                expr: Box::new(Expr::Literal(x.clone())),
                list: (0..members.len()).map(Expr::Param).collect(),
            };
            for e in [&literal, &slotted] {
                let mut bound = Bound::default();
                let at = bound.bind(e, &scope, &members);
                assert!(matches!(bound.nodes[at], Node::InSet { .. }));
                let got = bound.test(at, &[]).unwrap();
                assert_eq!(got, want, "trial {trial}: {x:?} IN {members:?}");
            }
        }
    }
}
