//! # sloth-core — the query store
//!
//! Runtime half of Sloth (Cheung, Madden, Solar-Lezama — SIGMOD 2014):
//!
//! * [`QueryStore`] — the batching mechanism (§3.3): reads registered at
//!   thunk-creation time accumulate and ship to the database in **one round
//!   trip** when first demanded; writes and transaction boundaries flush.
//!   [`QueryStore::register`] and [`QueryStore::result`] are its Rust-level
//!   door; the kernel language's lazy evaluator (`sloth-lang`) registers
//!   through the same store.
//! * [`Thunk`] — a delayed, memoized, shareable computation (§3.2): the
//!   Rust-level form `sloth_orm::Session::find_thunk` returns.
//!
//! ```
//! use sloth_core::QueryStore;
//! use sloth_net::SimEnv;
//!
//! let env = SimEnv::default_env();
//! env.seed_sql("CREATE TABLE p (id INT PRIMARY KEY, name TEXT)").unwrap();
//! env.seed_sql("INSERT INTO p VALUES (1, 'Ada'), (2, 'Grace')").unwrap();
//!
//! let store = QueryStore::new(env.clone());
//! // Two queries registered, zero round trips so far.
//! let ada = store.register("SELECT name FROM p WHERE id = 1").unwrap();
//! let grace = store.register("SELECT name FROM p WHERE id = 2").unwrap();
//! assert_eq!(env.stats().round_trips, 0);
//!
//! // Demanding either one ships both in a single batch.
//! let name = |id| store.result(id).unwrap().get(0, "name").unwrap().to_string();
//! assert_eq!(name(ada), "Ada");
//! assert_eq!(name(grace), "Grace");
//! assert_eq!(env.stats().round_trips, 1);
//! ```

#![warn(missing_docs)]

pub mod store;
pub mod thunk;

pub use store::{Demand, FlushReason, QueryId, QueryStore, Registration, StoreStats};
pub use thunk::Thunk;

#[cfg(test)]
mod tests {
    use super::*;
    use sloth_net::SimEnv;
    use sloth_sql::ResultSet;

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

    /// A thunk over a read: the SQL registers now, its result is demanded
    /// when the thunk is forced.
    fn read(s: &QueryStore, sql: &str) -> Thunk<Result<ResultSet, sloth_sql::SqlError>> {
        let id = s.register(sql).unwrap();
        let s = s.clone();
        Thunk::new(move || s.result(id))
    }

    fn v(t: &Thunk<Result<ResultSet, sloth_sql::SqlError>>) -> i64 {
        t.force().unwrap().get(0, "v").unwrap().as_i64().unwrap()
    }

    #[test]
    fn query_thunk_registers_eagerly_fetches_lazily() {
        let (env, s) = store();
        let t = read(&s, "SELECT v FROM t WHERE id = 2");
        assert_eq!(s.pending_len(), 1, "registered at creation");
        assert_eq!(env.stats().round_trips, 0, "not executed yet");
        assert_eq!(v(&t), 20);
        assert_eq!(env.stats().round_trips, 1);
        // Memoized: no extra trips.
        assert_eq!(v(&t), 20);
        assert_eq!(env.stats().round_trips, 1);
    }

    #[test]
    fn fig2_pipeline_two_batches() {
        // Reproduces the paper's Fig. 2: Q1 forced to build Q2/Q3/Q4, which
        // then share one later batch.
        let (env, s) = store();
        let patient = read(&s, "SELECT v FROM t WHERE id = 1");
        // Building the dependent query forces Q1 → batch 1 ships.
        let pid = v(&patient);
        assert_eq!(env.stats().round_trips, 1);
        let enc = read(&s, &format!("SELECT v FROM t WHERE id = {}", pid / 10));
        let visits = read(&s, &format!("SELECT v FROM t WHERE v > {pid}"));
        assert_eq!(s.pending_len(), 2, "Q2 and Q3 batched");
        assert_eq!(env.stats().round_trips, 1, "batch 2 not shipped yet");
        // Rendering the page forces one of them; both ship together.
        assert_eq!(enc.force().unwrap().len(), 1);
        assert_eq!(visits.force().unwrap().len(), 3);
        assert_eq!(env.stats().round_trips, 2);
        assert_eq!(s.stats().batch_sizes, vec![1, 2]);
    }

    #[test]
    fn try_query_thunk_surfaces_errors() {
        let (_env, s) = store();
        let t = read(&s, "SELECT v FROM nope WHERE id = 1");
        assert!(t.force().is_err());
    }

    #[test]
    fn unused_thunks_never_cost_a_round_trip() {
        let (env, s) = store();
        let _unused = read(&s, "SELECT v FROM t WHERE id = 3");
        drop(s);
        assert_eq!(env.stats().round_trips, 0);
    }
}
