//! Quickstart: the Sloth query store in twenty lines.
//!
//! Two queries are *registered* with the store — nothing ships — and both
//! go to the database in **one round trip** when the first result is
//! demanded. (A kernel-language page registers the same way, from the
//! thunks its lazy evaluator creates; see `kernel_language.rs`.)
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sloth_core::QueryStore;
use sloth_net::{NetStats, SimEnv};

/// Runs the tour and returns the deployment statistics (wired into
/// `cargo test` by `tests/examples_smoke.rs`).
pub fn run() -> NetStats {
    // A simulated deployment: app server + DB, 0.5 ms apart.
    let env = SimEnv::default_env();
    env.seed_sql("CREATE TABLE greeting (id INT PRIMARY KEY, word TEXT)")
        .unwrap();
    env.seed_sql("INSERT INTO greeting VALUES (1, 'hello'), (2, 'world')")
        .unwrap();

    // The per-request query store batches lazily-issued queries.
    let store = QueryStore::new(env.clone());

    let hello = store
        .register("SELECT word FROM greeting WHERE id = 1")
        .unwrap();
    let world = store
        .register("SELECT word FROM greeting WHERE id = 2")
        .unwrap();
    println!(
        "registered {} queries, round trips so far: {}",
        2,
        env.stats().round_trips
    );
    assert_eq!(env.stats().round_trips, 0);

    // Demanding either result ships BOTH queries in a single batch.
    let word = |id| {
        store
            .result(id)
            .unwrap()
            .get(0, "word")
            .unwrap()
            .to_string()
    };
    println!("{} {}", word(hello), word(world));
    let stats = env.stats();
    println!(
        "round trips: {} (batch of {}), simulated latency: {:.2} ms",
        stats.round_trips,
        stats.queries,
        stats.total_ns() as f64 / 1e6
    );
    assert_eq!(stats.round_trips, 1);
    stats
}

// Unused when the file is included by the examples_smoke test.
#[allow(dead_code)]
fn main() {
    run();
}
