//! The ORM session: Hibernate-style immediate execution with eager/lazy
//! fetch strategies, plus the Sloth **deferred** mode in which fetches go
//! through the query store and `find_thunk` returns a thunk whose query is
//! already registered (the paper's JPA extension, §5).

use std::collections::BTreeMap;
use std::sync::Arc;

use sloth_core::{QueryStore, Thunk};
use sloth_net::SimEnv;
use sloth_sql::{ResultSet, SqlError, Value};

use crate::schema::{AssocKind, EntityDef, FetchStrategy, Schema};
use crate::sqlgen;

/// A materialized entity: scalar fields plus any prefetched associations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Entity {
    /// Entity name in the schema.
    pub entity: String,
    /// Scalar column values.
    pub values: BTreeMap<String, Value>,
    /// Associations already fetched (eager fetching or memoized access).
    pub fetched_assocs: BTreeMap<String, Vec<Entity>>,
}

impl Entity {
    /// A scalar field value.
    pub fn get(&self, column: &str) -> Option<&Value> {
        self.values.get(column)
    }

    /// The field value as `i64`, if numeric.
    pub fn get_i64(&self, column: &str) -> Option<i64> {
        self.get(column).and_then(Value::as_i64)
    }

    /// The field value as `&str`, if textual.
    pub fn get_str(&self, column: &str) -> Option<&str> {
        self.get(column).and_then(Value::as_str)
    }

    /// This entity's primary-key value.
    pub fn pk(&self, def: &EntityDef) -> Value {
        self.values.get(&def.pk).cloned().unwrap_or(Value::Null)
    }
}

/// Converts a result set into entities of the given definition.
pub fn deserialize(def: &EntityDef, rs: &ResultSet) -> Vec<Entity> {
    rs.rows
        .iter()
        .map(|row| {
            let values = rs
                .columns
                .iter()
                .zip(row)
                .map(|(c, v)| (c.clone(), v.clone()))
                .collect();
            Entity {
                entity: def.name.clone(),
                values,
                fetched_assocs: BTreeMap::new(),
            }
        })
        .collect()
}

/// How the session executes fetches.
#[derive(Clone)]
enum Backend {
    /// Original application: one round trip per query, honouring eager/lazy
    /// fetch strategies.
    Immediate(SimEnv),
    /// Sloth-compiled application: queries register with the query store.
    Deferred(QueryStore),
}

/// An ORM session bound to a schema and an execution backend.
#[derive(Clone)]
pub struct Session {
    schema: Arc<Schema>,
    backend: Backend,
}

impl Session {
    /// Hibernate-style session: every fetch is an immediate round trip and
    /// eager associations are prefetched at `find` time.
    pub fn immediate(env: SimEnv, schema: Arc<Schema>) -> Self {
        Session {
            schema,
            backend: Backend::Immediate(env),
        }
    }

    /// Sloth session: fetches register with `store` and return thunks.
    pub fn deferred(store: QueryStore, schema: Arc<Schema>) -> Self {
        Session {
            schema,
            backend: Backend::Deferred(store),
        }
    }

    /// The schema this session maps.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn def(&self, entity: &str) -> Result<&EntityDef, SqlError> {
        self.schema
            .entity(entity)
            .ok_or_else(|| SqlError::new(format!("unknown entity {entity}")))
    }

    fn run(&self, sql: &str) -> Result<ResultSet, SqlError> {
        match &self.backend {
            Backend::Immediate(env) => env.query(sql),
            Backend::Deferred(store) => {
                let id = store.register(sql.to_string())?;
                store.result(id)
            }
        }
    }

    /// Issues a write. In deferred mode a write whose footprint is
    /// disjoint from everything pending is **deferred** (selective
    /// laziness) — its empty result is not demanded, so it costs no round
    /// trip until something drains it.
    fn run_write(&self, sql: &str) -> Result<(), SqlError> {
        match &self.backend {
            Backend::Immediate(env) => env.query(sql).map(|_| ()),
            Backend::Deferred(store) => {
                let reg = store.register_stmt(sql.to_string())?;
                if reg.deferred {
                    return Ok(());
                }
                store.result(reg.id).map(|_| ())
            }
        }
    }

    /// `JPA find`: fetch one entity by primary key. In immediate mode this
    /// also prefetches every `Eager` association (costing extra round
    /// trips — the waste Sloth eliminates, §6.1).
    pub fn find(&self, entity: &str, id: i64) -> Result<Option<Entity>, SqlError> {
        let def = self.def(entity)?;
        let rs = self.run(&sqlgen::select_by_pk(def, &Value::Int(id)))?;
        let mut entities = deserialize(def, &rs);
        let Some(mut e) = entities.pop() else {
            return Ok(None);
        };
        if matches!(self.backend, Backend::Immediate(_)) {
            let eager: Vec<String> = def
                .assocs
                .iter()
                .filter(|a| a.strategy == FetchStrategy::Eager)
                .map(|a| a.name.clone())
                .collect();
            for name in eager {
                let children = self.fetch_assoc(&e, &name)?;
                e.fetched_assocs.insert(name, children);
            }
        }
        Ok(Some(e))
    }

    /// `JPA find_thunk` (Sloth's extension): registers the PK query now,
    /// deserializes on force. Eager strategies are deliberately ignored —
    /// Sloth "only brings in entities as they are originally requested".
    /// A query that fails is an error value of the force.
    pub fn find_thunk(
        &self,
        entity: &str,
        id: i64,
    ) -> Result<Thunk<Result<Option<Entity>, SqlError>>, SqlError> {
        let Backend::Deferred(store) = self.backend.clone() else {
            return Err(SqlError::new(
                "thunk API requires a deferred (Sloth) session",
            ));
        };
        let def = self.def(entity)?.clone();
        let qid = store.register(sqlgen::select_by_pk(&def, &Value::Int(id)))?;
        Ok(Thunk::new(move || {
            Ok(deserialize(&def, &store.result(qid)?).pop())
        }))
    }

    /// Fetches an association's entities (issuing its query now, in either
    /// backend). Memoized results on the entity take precedence.
    pub fn fetch_assoc(&self, owner: &Entity, assoc: &str) -> Result<Vec<Entity>, SqlError> {
        if let Some(cached) = owner.fetched_assocs.get(assoc) {
            return Ok(cached.clone());
        }
        let (sql, target) = self.assoc_query(owner, assoc)?;
        let rs = self.run(&sql)?;
        Ok(deserialize(&target, &rs))
    }

    /// The SQL and target definition for an association access.
    fn assoc_query(&self, owner: &Entity, assoc: &str) -> Result<(String, EntityDef), SqlError> {
        let def = self.def(&owner.entity)?;
        let a = def
            .assoc(assoc)
            .ok_or_else(|| SqlError::new(format!("no assoc {assoc} on {}", owner.entity)))?;
        let target = self.def(&a.target)?.clone();
        let key = match &a.kind {
            AssocKind::OneToMany { .. } => owner.pk(def),
            AssocKind::ManyToOne { fk_column } => {
                owner.get(fk_column).cloned().unwrap_or(Value::Null)
            }
        };
        Ok((sqlgen::select_assoc(a, &target, &key), target))
    }

    /// All entities of a kind, ordered by PK.
    pub fn find_all(&self, entity: &str) -> Result<Vec<Entity>, SqlError> {
        let def = self.def(entity)?;
        let rs = self.run(&sqlgen::select_all(def))?;
        Ok(deserialize(def, &rs))
    }

    /// Entities filtered by one column equality, ordered by PK.
    pub fn find_where(
        &self,
        entity: &str,
        column: &str,
        value: &Value,
    ) -> Result<Vec<Entity>, SqlError> {
        let def = self.def(entity)?;
        let rs = self.run(&sqlgen::select_where_eq(def, column, value))?;
        Ok(deserialize(def, &rs))
    }

    /// Persists a new entity row (write: drains or defers per the
    /// deployment's selective-laziness setting — a conflicting write
    /// still flushes any pending batch, riding it).
    pub fn save(&self, entity: &str, values: &[Value]) -> Result<(), SqlError> {
        let def = self.def(entity)?;
        let sql = sqlgen::insert_row(def, values);
        self.run_write(&sql)
    }

    /// Updates one field by primary key (write: drains or defers, see
    /// [`Session::save`]).
    pub fn update_field(
        &self,
        entity: &str,
        id: i64,
        column: &str,
        value: &Value,
    ) -> Result<(), SqlError> {
        let def = self.def(entity)?;
        let sql = sqlgen::update_field(def, &Value::Int(id), column, value);
        self.run_write(&sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{entity, one_to_many, FetchStrategy};
    use sloth_sql::ast::ColumnType::*;

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add(entity(
            "patient",
            "patient",
            "patient_id",
            &[("patient_id", Int), ("name", Text)],
            vec![
                one_to_many(
                    "encounters",
                    "encounter",
                    "patient_id",
                    FetchStrategy::Eager,
                ),
                one_to_many("visits", "visit", "patient_id", FetchStrategy::Lazy),
            ],
        ));
        s.add(entity(
            "encounter",
            "encounter",
            "encounter_id",
            &[("encounter_id", Int), ("patient_id", Int), ("kind", Text)],
            vec![],
        ));
        s.add(entity(
            "visit",
            "visit",
            "visit_id",
            &[("visit_id", Int), ("patient_id", Int)],
            vec![],
        ));
        Arc::new(s)
    }

    fn seeded_env(schema: &Schema) -> SimEnv {
        let env = SimEnv::default_env();
        for ddl in schema.ddl() {
            env.seed_sql(&ddl).unwrap();
        }
        env.seed_sql("INSERT INTO patient VALUES (1, 'Ada'), (2, 'Grace')")
            .unwrap();
        env.seed_sql(
            "INSERT INTO encounter VALUES (10, 1, 'checkup'), (11, 1, 'lab'), (12, 2, 'er')",
        )
        .unwrap();
        env.seed_sql("INSERT INTO visit VALUES (100, 1)").unwrap();
        env
    }

    #[test]
    fn immediate_find_prefetches_eager_assocs() {
        let schema = schema();
        let env = seeded_env(&schema);
        let s = Session::immediate(env.clone(), Arc::clone(&schema));
        let p = s.find("patient", 1).unwrap().unwrap();
        assert_eq!(p.get_str("name"), Some("Ada"));
        // find + eager encounters = 2 round trips; lazy visits untouched.
        assert_eq!(env.stats().round_trips, 2);
        assert_eq!(p.fetched_assocs.get("encounters").unwrap().len(), 2);
        assert!(!p.fetched_assocs.contains_key("visits"));
    }

    #[test]
    fn immediate_lazy_assoc_costs_a_trip_on_access() {
        let schema = schema();
        let env = seeded_env(&schema);
        let s = Session::immediate(env.clone(), Arc::clone(&schema));
        let p = s.find("patient", 1).unwrap().unwrap();
        let before = env.stats().round_trips;
        let visits = s.fetch_assoc(&p, "visits").unwrap();
        assert_eq!(visits.len(), 1);
        assert_eq!(env.stats().round_trips, before + 1);
    }

    #[test]
    fn deferred_find_thunk_batches() {
        let schema = schema();
        let env = seeded_env(&schema);
        let store = QueryStore::new(env.clone());
        let s = Session::deferred(store.clone(), Arc::clone(&schema));
        let t1 = s.find_thunk("patient", 1).unwrap();
        let t2 = s.find_thunk("patient", 2).unwrap();
        assert_eq!(env.stats().round_trips, 0);
        let p1 = t1.force().unwrap().unwrap();
        let p2 = t2.force().unwrap().unwrap();
        assert_eq!(env.stats().round_trips, 1, "both finds in one batch");
        assert_eq!(p1.get_str("name"), Some("Ada"));
        assert_eq!(p2.get_str("name"), Some("Grace"));
        // Eager strategy ignored in Sloth mode: no encounter query issued.
        assert_eq!(env.stats().queries, 2);
    }

    #[test]
    fn a_failing_find_is_an_error_at_force() {
        // The schema maps `patient`, but this deployment has no such table:
        // the read registers, and its failure is the value the force returns.
        let store = QueryStore::new(SimEnv::default_env());
        let s = Session::deferred(store, schema());
        let t = s.find_thunk("patient", 1).unwrap();
        let e = t.force().unwrap_err();
        assert!(e.message().contains("patient"), "{e}");
        assert_eq!(t.force().unwrap_err(), e, "memoized");
    }

    #[test]
    fn find_missing_returns_none() {
        let schema = schema();
        let env = seeded_env(&schema);
        let s = Session::immediate(env, Arc::clone(&schema));
        assert!(s.find("patient", 999).unwrap().is_none());
        assert!(s.find("martian", 1).is_err());
    }

    #[test]
    fn memoized_assoc_not_refetched() {
        let schema = schema();
        let env = seeded_env(&schema);
        let s = Session::immediate(env.clone(), Arc::clone(&schema));
        let p = s.find("patient", 1).unwrap().unwrap();
        let trips = env.stats().round_trips;
        // encounters were eagerly fetched; re-access hits the memo.
        let enc = s.fetch_assoc(&p, "encounters").unwrap();
        assert_eq!(enc.len(), 2);
        assert_eq!(env.stats().round_trips, trips);
    }

    #[test]
    fn save_flushes_pending_batch_in_deferred_mode() {
        let schema = schema();
        let env = seeded_env(&schema);
        env.set_write_deferral(false);
        let store = QueryStore::new(env.clone());
        let s = Session::deferred(store.clone(), Arc::clone(&schema));
        let _t = s.find_thunk("patient", 1).unwrap();
        assert_eq!(store.pending_len(), 1);
        s.save("visit", &[Value::Int(101), Value::Int(2)]).unwrap();
        assert_eq!(store.pending_len(), 0, "write flushed the batch");
        // Write-aware batching: the pending find and the INSERT share one
        // round trip instead of splitting into two.
        assert_eq!(env.stats().round_trips, 1);
        assert_eq!(store.stats().write_batched, 1);
    }

    #[test]
    fn disjoint_save_defers_with_selective_laziness() {
        let schema = schema();
        let env = seeded_env(&schema);
        let store = QueryStore::new(env.clone());
        let s = Session::deferred(store.clone(), Arc::clone(&schema));
        let t = s.find_thunk("patient", 1).unwrap();
        // The INSERT touches `visit`, disjoint from the pending patient
        // lookup: it defers — no round trip at all yet.
        s.save("visit", &[Value::Int(101), Value::Int(2)]).unwrap();
        assert_eq!(env.stats().round_trips, 0, "write deferred, read lazy");
        assert_eq!(store.pending_len(), 2);
        assert_eq!(store.stats().deferred_writes, 1);
        // Forcing the find drains both in ONE round trip.
        assert!(t.force().unwrap().is_some());
        assert_eq!(env.stats().round_trips, 1);
        // A second disjoint write defers again; update_field drains it
        // only when it conflicts.
        s.update_field("visit", 101, "patient_id", &Value::Int(3))
            .unwrap();
        assert_eq!(env.stats().round_trips, 1, "still deferred");
        store.flush_deferred_writes().unwrap();
        assert_eq!(env.stats().round_trips, 2);
        let rs = env
            .query("SELECT patient_id FROM visit WHERE visit_id = 101")
            .unwrap();
        assert_eq!(rs.get(0, "patient_id").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn thunk_api_requires_deferred_session() {
        let schema = schema();
        let env = seeded_env(&schema);
        let s = Session::immediate(env, Arc::clone(&schema));
        assert!(s.find_thunk("patient", 1).is_err());
    }

    #[test]
    fn find_where_filters() {
        let schema = schema();
        let env = seeded_env(&schema);
        let s = Session::immediate(env, Arc::clone(&schema));
        let encs = s
            .find_where("encounter", "patient_id", &Value::Int(1))
            .unwrap();
        assert_eq!(encs.len(), 2);
        assert_eq!(encs[0].get_i64("encounter_id"), Some(10));
    }
}
