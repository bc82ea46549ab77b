//! # sloth-core — the extended lazy evaluation runtime
//!
//! Runtime half of Sloth (Cheung, Madden, Solar-Lezama — SIGMOD 2014):
//!
//! * [`Thunk`] / [`ThunkBlock`] — delayed, memoized, shareable computations
//!   (§3.2, §4.3).
//! * [`QueryStore`] — the batching mechanism (§3.3): reads registered at
//!   thunk-creation time accumulate and ship to the database in **one round
//!   trip** when first demanded; writes and transaction boundaries flush.
//! * [`query_thunk`] — the fusion of the two: a thunk that registers its
//!   SQL eagerly and deserializes its result lazily. This is what the
//!   paper's `find_thunk` JPA extension returns.
//!
//! ```
//! use sloth_core::{query_thunk, QueryStore};
//! use sloth_net::SimEnv;
//!
//! let env = SimEnv::default_env();
//! env.seed_sql("CREATE TABLE p (id INT PRIMARY KEY, name TEXT)").unwrap();
//! env.seed_sql("INSERT INTO p VALUES (1, 'Ada'), (2, 'Grace')").unwrap();
//!
//! let store = QueryStore::new(env.clone());
//! // Two queries registered, zero round trips so far.
//! let ada = query_thunk(&store, "SELECT name FROM p WHERE id = 1", |rs| {
//!     rs.get(0, "name").unwrap().to_string()
//! });
//! let grace = query_thunk(&store, "SELECT name FROM p WHERE id = 2", |rs| {
//!     rs.get(0, "name").unwrap().to_string()
//! });
//! assert_eq!(env.stats().round_trips, 0);
//!
//! // Forcing either one ships both in a single batch.
//! assert_eq!(ada.force(), "Ada");
//! assert_eq!(grace.force(), "Grace");
//! assert_eq!(env.stats().round_trips, 1);
//! ```

#![warn(missing_docs)]

pub mod store;
pub mod thunk;

pub use store::{Demand, FlushReason, QueryId, QueryStore, Registration, StoreStats};
pub use thunk::{thunk_counters, Thunk, ThunkBlock, ThunkCounters};

use sloth_sql::ResultSet;

/// Creates a thunk for a database read: the SQL registers with `store`
/// **now** (joining the current batch) and `deserialize` runs when the thunk
/// is forced (§3.3).
///
/// # Panics
/// Forcing the returned thunk panics if the underlying SQL fails to execute;
/// use [`try_query_thunk`] when the caller wants to handle the error.
pub fn query_thunk<T: Clone + Send + 'static>(
    store: &QueryStore,
    sql: impl Into<String>,
    deserialize: impl FnOnce(ResultSet) -> T + Send + 'static,
) -> Thunk<T> {
    let sql = sql.into();
    match store.register(sql.clone()) {
        Ok(id) => {
            let store = store.clone();
            Thunk::new(move || {
                let rs = store
                    .result(id)
                    .unwrap_or_else(|e| panic!("query {sql:?} failed at force time: {e}"));
                deserialize(rs)
            })
        }
        Err(e) => Thunk::new(move || panic!("query {sql:?} failed to register: {e}")),
    }
}

/// Like [`query_thunk`] but surfaces SQL errors as `Result` values.
pub fn try_query_thunk<T: Clone + Send + 'static>(
    store: &QueryStore,
    sql: impl Into<String>,
    deserialize: impl FnOnce(ResultSet) -> T + Send + 'static,
) -> Result<Thunk<Result<T, sloth_sql::SqlError>>, sloth_sql::SqlError> {
    let id = store.register(sql.into())?;
    let store = store.clone();
    Ok(Thunk::new(move || store.result(id).map(deserialize)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sloth_net::SimEnv;

    fn store() -> (SimEnv, QueryStore) {
        let env = SimEnv::default_env();
        env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..5 {
            env.seed_sql(&format!("INSERT INTO t VALUES ({i}, {})", i * 10))
                .unwrap();
        }
        let s = QueryStore::new(env.clone());
        (env, s)
    }

    #[test]
    fn query_thunk_registers_eagerly_fetches_lazily() {
        let (env, s) = store();
        let t = query_thunk(&s, "SELECT v FROM t WHERE id = 2", |rs| {
            rs.get(0, "v").unwrap().as_i64().unwrap()
        });
        assert_eq!(s.pending_len(), 1, "registered at creation");
        assert_eq!(env.stats().round_trips, 0, "not executed yet");
        assert_eq!(t.force(), 20);
        assert_eq!(env.stats().round_trips, 1);
        // Memoized: no extra trips, no extra deserialization.
        assert_eq!(t.force(), 20);
        assert_eq!(env.stats().round_trips, 1);
    }

    #[test]
    fn fig2_pipeline_two_batches() {
        // Reproduces the paper's Fig. 2: Q1 forced to build Q2/Q3/Q4, which
        // then share one later batch.
        let (env, s) = store();
        let patient = query_thunk(&s, "SELECT v FROM t WHERE id = 1", |rs| {
            rs.get(0, "v").unwrap().as_i64().unwrap()
        });
        // Building the dependent query forces Q1 → batch 1 ships.
        let pid = patient.force();
        assert_eq!(env.stats().round_trips, 1);
        let enc = query_thunk(
            &s,
            format!("SELECT v FROM t WHERE id = {}", pid / 10),
            |rs| rs.len() as i64,
        );
        let visits = query_thunk(&s, format!("SELECT v FROM t WHERE v > {pid}"), |rs| {
            rs.len() as i64
        });
        assert_eq!(s.pending_len(), 2, "Q2 and Q3 batched");
        assert_eq!(env.stats().round_trips, 1, "batch 2 not shipped yet");
        // Rendering the page forces one of them; both ship together.
        let _ = enc.force();
        let _ = visits.force();
        assert_eq!(env.stats().round_trips, 2);
        assert_eq!(s.stats().batch_sizes, vec![1, 2]);
    }

    #[test]
    fn try_query_thunk_surfaces_errors() {
        let (_env, s) = store();
        let t = try_query_thunk(&s, "SELECT v FROM nope WHERE id = 1", |rs| rs.len()).unwrap();
        assert!(t.force().is_err());
    }

    #[test]
    fn unused_thunks_never_cost_a_round_trip() {
        let (env, s) = store();
        let _unused = query_thunk(&s, "SELECT v FROM t WHERE id = 3", |rs| rs.len());
        drop(s);
        assert_eq!(env.stats().round_trips, 0);
    }
}
