//! Write your own kernel-language program and watch the Sloth compiler
//! transform it: this example shows the compilation pipeline stages
//! (simplify → analyze → optimize) and the batching the lazy evaluator
//! achieves over the same source.
//!
//! ```sh
//! cargo run --example kernel_language
//! ```

use std::sync::Arc;

use sloth_lang::{analyze, parse_program, prepare, simplify_program, ExecStrategy, OptFlags, V};
use sloth_net::SimEnv;
use sloth_orm::Schema;

const SRC: &str = r#"
fn fetch_total(lo, hi) {
    let a = query("SELECT SUM(v) FROM numbers WHERE v >= " + str(lo));
    let b = query("SELECT SUM(v) FROM numbers WHERE v < " + str(hi));
    return cell(a, 0, "sum") + cell(b, 0, "sum");
}

fn label_for(total) {
    if (total > 100) { return "big"; }
    return "small";
}

fn main(n) {
    let total = fetch_total(n, n * 2);
    let tag = label_for(total);
    print(concat("total=", str(total), " tag=", tag));
}
"#;

/// Walks the compilation pipeline and returns per-strategy
/// `(label, output, round_trips)` rows (wired into `cargo test` by
/// `tests/examples_smoke.rs`).
pub fn run() -> Vec<(&'static str, Vec<String>, u64)> {
    let program = parse_program(SRC).unwrap();
    println!("source functions: {}", program.functions.len());

    // Stage 1: simplification (§3.1) — three-address form, canonical loops.
    let simplified = simplify_program(&program);
    println!(
        "statements before/after simplification: {} → {}",
        program.stmt_count(),
        simplified.stmt_count()
    );

    // Stage 2: analysis (§4.1) — persistence and purity labels.
    let analysis = analyze(&simplified, None);
    for f in &simplified.functions {
        println!(
            "  fn {:<12} persistent={:<5} pure={}",
            f.name,
            analysis.is_persistent(&f.name),
            analysis.is_pure_fn(&f.name)
        );
    }

    // Stage 3: run under both strategies.
    let env = SimEnv::default_env();
    env.seed_sql("CREATE TABLE numbers (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..50 {
        env.seed_sql(&format!("INSERT INTO numbers VALUES ({i}, {})", i * 3))
            .unwrap();
    }
    let db = env.snapshot_db();
    let schema = Arc::new(Schema::new());

    let mut rows = Vec::new();
    for (label, strategy) in [
        ("original", ExecStrategy::Original),
        ("sloth", ExecStrategy::Sloth(OptFlags::all())),
    ] {
        let prepared = prepare(&program, strategy);
        let env = SimEnv::from_database(db.clone(), sloth_net::CostModel::default());
        let r = prepared
            .run(&env, Arc::clone(&schema), vec![V::Int(10)])
            .unwrap();
        println!(
            "{label:<9} output={:?}  round_trips={}  thunks={}",
            r.output, r.net.round_trips, r.counters.thunk_allocs
        );
        rows.push((label, r.output, r.net.round_trips));
    }
    // Both SUM queries are independent: Sloth ships them together.
    rows
}

// Unused when the file is included by the examples_smoke test.
#[allow(dead_code)]
fn main() {
    run();
}
