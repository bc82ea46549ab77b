//! Shared runtime plumbing for the interpreters: the data-access layer
//! (ORM + raw SQL against the simulated deployment), execution counters,
//! and the cost model that converts counters into application-server time.

use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use sloth_core::{QueryId, QueryStore, Registration, StoreStats};
use sloth_net::{Dispatcher, NetStats, SimEnv};
use sloth_orm::sqlgen::KeyedRead;
use sloth_orm::{AssocKind, FetchStrategy, Schema};
use sloth_sql::{ResultSet, SqlError, Stmt};

use crate::value::{Deser, V};

/// Per-operation application-server costs (nanoseconds).
///
/// One kernel-language statement stands for on the order of a thousand JVM
/// bytecodes of the real applications (Spring/Hibernate internals, JSP
/// rendering), so these constants are calibrated at that granularity:
/// they reproduce the paper's Fig. 8 time breakdown (app-server time a
/// 30–40 % share), the Fig. 12 noopt-vs-optimized gap (>2x), and the
/// Fig. 13 lazy overhead band (5–16 %).
pub mod cost {
    /// One interpreter operation under standard semantics.
    pub const STD_OP_NS: u64 = 550;
    /// One interpreter operation under lazy semantics (bookkeeping).
    pub const LAZY_OP_NS: u64 = 800;
    /// Allocating one thunk object.
    pub const THUNK_ALLOC_NS: u64 = 2_600;
    /// Forcing one pending thunk (dispatch + memoization write).
    pub const FORCE_NS: u64 = 1_100;
    /// Registering one query with the query store.
    pub const QUERY_REG_NS: u64 = 6_000;
}

/// Execution counters; converted to time by [`Counters::app_ns`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Operations executed under standard semantics.
    pub std_ops: u64,
    /// Operations executed under lazy semantics.
    pub lazy_ops: u64,
    /// Thunks allocated.
    pub thunk_allocs: u64,
    /// Thunks forced (pending → done transitions).
    pub forces: u64,
    /// Queries registered with the query store.
    pub queries_registered: u64,
}

impl Counters {
    /// Application-server time implied by these counters.
    pub fn app_ns(&self) -> u64 {
        self.std_ops * cost::STD_OP_NS
            + self.lazy_ops * cost::LAZY_OP_NS
            + self.thunk_allocs * cost::THUNK_ALLOC_NS
            + self.forces * cost::FORCE_NS
            + self.queries_registered * cost::QUERY_REG_NS
    }
}

/// Error during interpretation (SQL errors, type errors, missing vars…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Human-readable message.
    pub message: String,
}

impl RunError {
    /// Creates an error.
    pub fn new(m: impl Into<String>) -> Self {
        RunError { message: m.into() }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run error: {}", self.message)
    }
}

impl std::error::Error for RunError {}

impl From<SqlError> for RunError {
    /// An error a hole of pending text raised where the binder rendered
    /// it reads as the program's own: the eager program stopped there.
    fn from(e: SqlError) -> Self {
        match e.program_error() {
            Some(raised) => RunError::new(raised),
            None => RunError::new(e.to_string()),
        }
    }
}

impl From<crate::parser::ParseError> for RunError {
    fn from(e: crate::parser::ParseError) -> Self {
        RunError::new(e.to_string())
    }
}

/// Result of running a program.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Everything printed/rendered, in order.
    pub output: Vec<String>,
    /// Displayed return value of `main`, if any.
    pub returned: Option<String>,
    /// Execution counters.
    pub counters: Counters,
    /// Network/DB statistics accumulated during the run (delta).
    pub net: NetStats,
    /// Query-store statistics (lazy runs only).
    pub store: Option<StoreStats>,
}

impl RunResult {
    /// Total simulated latency of the run.
    pub fn total_ns(&self) -> u64 {
        self.net.total_ns()
    }

    /// Total simulated latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns() as f64 / 1e6
    }
}

/// Data-access layer shared by both interpreters: raw SQL plus ORM-style
/// entity fetches, in either immediate (original) or deferred (Sloth) mode.
#[derive(Clone)]
pub struct DataLayer {
    /// The simulated deployment.
    pub env: SimEnv,
    /// Entity metadata.
    pub schema: Arc<Schema>,
    /// Present in Sloth mode: the per-request query store.
    pub store: Option<QueryStore>,
}

impl DataLayer {
    /// Immediate (original application) data layer.
    pub fn immediate(env: SimEnv, schema: Arc<Schema>) -> Self {
        DataLayer {
            env,
            schema,
            store: None,
        }
    }

    /// Deferred (Sloth) data layer with a fresh query store.
    pub fn deferred(env: SimEnv, schema: Arc<Schema>) -> Self {
        DataLayer::over(QueryStore::new(env), schema)
    }

    /// Deferred (Sloth) data layer whose query store flushes through a
    /// shared [`Dispatcher`] — the multi-session serving path.
    pub fn dispatched(dispatcher: Arc<Dispatcher>, schema: Arc<Schema>) -> Self {
        DataLayer::over(QueryStore::dispatched(dispatcher), schema)
    }

    fn over(store: QueryStore, schema: Arc<Schema>) -> Self {
        DataLayer {
            env: store.env().clone(),
            schema,
            store: Some(store),
        }
    }

    /// The query store; an error in immediate mode, which has none.
    pub fn store(&self) -> Result<&QueryStore, RunError> {
        self.store
            .as_ref()
            .ok_or_else(|| RunError::new("deferred data layer required"))
    }

    /// Whether `id` is a read still waiting in the store's batch (never,
    /// in immediate mode).
    pub fn is_pending(&self, id: QueryId) -> bool {
        self.store.as_ref().is_some_and(|s| s.is_pending(id))
    }

    /// Executes a statement immediately (one round trip).
    pub fn read_now(&self, sql: &str) -> Result<ResultSet, RunError> {
        Ok(self.env.query(sql)?)
    }

    /// Registers a read with the store (Sloth mode).
    pub fn register(&self, sql: &str) -> Result<QueryId, RunError> {
        Ok(self.store()?.register(sql.to_string())?)
    }

    /// Registers a write with the store, reporting whether it was
    /// deferred (selective laziness) — deferred writes must not have
    /// their empty result demanded, or the deferral is undone.
    pub fn register_write(&self, sql: &str) -> Result<Registration, RunError> {
        Ok(self.store()?.register_stmt(sql.to_string())?)
    }

    /// Registers the statement `build` makes of a reference to `parent`,
    /// as a dependent of `parent` — `None` when `parent` is no longer
    /// waiting in the batch (see [`QueryStore::register_dependent`]).
    pub fn register_dependent(
        &self,
        parent: QueryId,
        build: impl FnOnce(u64) -> Stmt,
    ) -> Result<Option<Registration>, RunError> {
        Ok(self.store()?.register_dependent(parent, build)?)
    }

    /// The read an association access issues, before its key is known.
    pub(crate) fn assoc_read(&self, entity: &str, assoc: &str) -> Result<AssocRead, RunError> {
        let def = self
            .schema
            .entity(entity)
            .ok_or_else(|| RunError::new(format!("unknown entity {entity}")))?;
        let a = def
            .assoc(assoc)
            .ok_or_else(|| RunError::new(format!("no assoc {assoc} on {entity}")))?;
        let target = self
            .schema
            .entity(&a.target)
            .ok_or_else(|| RunError::new(format!("unknown entity {}", a.target)))?;
        let (key, many) = match &a.kind {
            AssocKind::OneToMany { .. } => (&def.pk, true),
            AssocKind::ManyToOne { fk_column } => (fk_column, false),
        };
        Ok(AssocRead {
            read: KeyedRead::assoc(a, target),
            key: key.clone(),
            target: a.target.clone(),
            many,
            strategy: a.strategy,
        })
    }
}

/// The read an association access issues, and what it is keyed by.
pub(crate) struct AssocRead {
    /// The read, keyed by the owner's `key` column.
    pub read: KeyedRead,
    /// The owner's column the read is keyed by: its primary key for a
    /// one-to-many, the foreign key it holds for a many-to-one.
    pub key: String,
    /// The target entity.
    pub target: String,
    /// Whether the read returns a collection (`true`) or a single entity
    /// (`false`).
    pub many: bool,
    /// When standard semantics fetches it.
    pub strategy: FetchStrategy,
}

impl AssocRead {
    /// How its rows deserialize: a list for a collection, one entity or
    /// `null` otherwise.
    pub(crate) fn deser(&self) -> Deser {
        let target = self.target.as_str().into();
        if self.many {
            Deser::EntityList(target)
        } else {
            Deser::EntityOpt(target)
        }
    }
}

/// Converts a result-set row into an entity object value (fields by column
/// name plus the hidden `__entity` tag).
pub fn row_to_entity(entity: &str, rs: &ResultSet, row: usize) -> V {
    let mut fields = BTreeMap::new();
    fields.insert("__entity".to_string(), V::str(entity));
    for (ci, col) in rs.columns.iter().enumerate() {
        fields.insert(col.clone(), V::from_sql(&rs.rows[row][ci]));
    }
    V::Obj(Rc::new(std::cell::RefCell::new(fields)))
}

/// Converts a whole result set into a list of entity objects.
pub fn rs_to_entities(entity: &str, rs: &ResultSet) -> V {
    let items = (0..rs.len())
        .map(|i| row_to_entity(entity, rs, i))
        .collect();
    V::list(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_cost_model_monotone() {
        let a = Counters {
            std_ops: 10,
            ..Default::default()
        };
        let b = Counters {
            std_ops: 10,
            thunk_allocs: 5,
            ..Default::default()
        };
        assert!(b.app_ns() > a.app_ns());
        assert_eq!(a.app_ns(), 10 * cost::STD_OP_NS);
    }

    #[test]
    fn an_immediate_layer_refuses_what_needs_a_store() {
        let (env, schema) = (SimEnv::default_env(), Arc::new(Schema::new()));
        let id = DataLayer::deferred(env.clone(), Arc::clone(&schema))
            .register("SELECT 1")
            .unwrap();
        let data = DataLayer::immediate(env, schema);
        let want = "deferred data layer required";
        assert_eq!(data.store().err().unwrap().message, want);
        assert_eq!(data.register("SELECT 1").unwrap_err().message, want);
        assert!(!data.is_pending(id));
    }

    #[test]
    fn row_to_entity_tags() {
        let rs = ResultSet::new(
            vec!["id".into(), "name".into()],
            vec![vec![
                sloth_sql::Value::Int(1),
                sloth_sql::Value::Str("x".into()),
            ]],
        );
        let e = row_to_entity("patient", &rs, 0);
        match e {
            V::Obj(o) => {
                let o = o.borrow();
                assert_eq!(o.get("__entity").unwrap().display_shallow(), "patient");
                assert_eq!(o.get("id").unwrap().display_shallow(), "1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
