//! Micro-benchmarks of the runtime primitives: the interpreter's thunks,
//! query store operations, and SQL engine throughput. These ground the simulated
//! cost model in real wall-clock numbers. (Plain `harness = false` timing
//! loops — no third-party bench framework is available in this build.)

use sloth_bench::microbench::bench;
use sloth_core::QueryStore;
use sloth_lang::{parse_program, prepare, ExecStrategy, OptFlags};
use sloth_net::SimEnv;
use sloth_orm::Schema;
use sloth_sql::ast::{ColumnRef, Statement};
use sloth_sql::{fuse, normalize, parse, Database, Value};
use std::sync::Arc;

fn store_env() -> SimEnv {
    let env = SimEnv::default_env();
    env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..64 {
        env.seed_sql(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    env
}

fn bench_query_store() {
    // Ablation: write-flush behaviour (§3.3).
    {
        let env = store_env();
        bench("query_store/register_64_flush", move || {
            let store = QueryStore::new(env.clone());
            for i in 0..64 {
                store
                    .register(format!("SELECT v FROM t WHERE id = {i}"))
                    .unwrap();
            }
            store.flush().unwrap();
            store.stats().max_batch()
        });
    }
    // Ablation: in-batch dedup (§3.3).
    {
        let env = store_env();
        let store = QueryStore::new(env);
        store.register("SELECT v FROM t WHERE id = 1").unwrap();
        bench("query_store/dedup_hit", move || {
            store.register("SELECT v FROM t WHERE id = 1").unwrap()
        });
    }
}

fn bench_sql() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v TEXT)")
        .unwrap();
    db.execute("CREATE INDEX ON t (grp)").unwrap();
    for i in 0..1000 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {}, 'val{i}')", i % 10))
            .unwrap();
    }
    bench("sql_engine/pk_probe", || {
        db.execute("SELECT v FROM t WHERE id = 500")
            .unwrap()
            .result
            .len()
    });
    bench("sql_engine/secondary_probe", || {
        db.execute("SELECT v FROM t WHERE grp = 3")
            .unwrap()
            .result
            .len()
    });
    bench("sql_engine/in_list_probe", || {
        db.execute("SELECT v FROM t WHERE id IN (5, 250, 500, 750, 999)")
            .unwrap()
            .result
            .len()
    });
    bench("sql_engine/full_scan_filter", || {
        db.execute("SELECT v FROM t WHERE v = 'val42'")
            .unwrap()
            .result
            .len()
    });
    bench("sql_engine/count_aggregate", || {
        db.execute("SELECT COUNT(*) FROM t WHERE grp = 7")
            .unwrap()
            .result
            .len()
    });
    // A batch of 64 same-template point reads fused into one `IN` probe,
    // as the driver builds it: 64 probes, and each row tested against the
    // list.
    let Statement::Select(proto) = parse("SELECT v FROM t WHERE id = 0").unwrap() else {
        unreachable!("a SELECT parses to one")
    };
    let keys: Vec<Value> = (0..64).map(|i| Value::Int(i * 15)).collect();
    let fused = fuse::build_fused(&proto, &ColumnRef::bare("id"), &keys).unwrap();
    bench("sql_engine/fused_in_64", || {
        db.execute_read(&fused.stmt, &[], false)
            .unwrap()
            .0
            .result
            .len()
    });
    // The normalizer over an ORM point read, as every registered
    // statement pays it.
    bench("sql_engine/normalize_orm_read", || {
        normalize(
            "SELECT id, project_id, title, severity, status, assignee FROM issue WHERE id = 42",
        )
        .unwrap()
        .params
        .len()
    });
}

/// The kernel-language evaluator's cost per counted operation, as a
/// stopwatch reading: the view layer's template loop (`render_template`
/// in `sloth-apps`, which selective compilation leaves under standard
/// semantics and which is most of a page's operations), and a loop of
/// delayed binary operations allocated and forced under lazy semantics.
fn bench_interp() {
    let env = SimEnv::default_env();
    let schema = Arc::new(Schema::new());
    let per_count = |name: &str, src: &str, strategy, count: fn(&sloth_lang::Counters) -> u64| {
        let page = prepare(&parse_program(src).unwrap(), strategy);
        let run = || page.run(&env, Arc::clone(&schema), vec![]).unwrap();
        let n = count(&run().counters);
        let ns = bench(&format!("interp/{name}_run"), run);
        println!(
            "{:<45} {:>12.1} ns ({n} per run)",
            format!("interp/{name}"),
            ns / n as f64
        );
    };
    per_count(
        "std_loop_per_op",
        "fn render_template(n) {
             let acc = 0;
             let i = 0;
             while (i < n && acc >= 0) {
                 acc = (acc + i * 7 + 3) % 65536;
                 i = i + 1;
             }
             return acc;
         }
         fn main() { return render_template(4000); }",
        ExecStrategy::Original,
        |c| c.std_ops,
    );
    // Without coalescing every `+` is its own thunk; the loop condition
    // forces both chains each iteration, so they stay one link deep.
    per_count(
        "lazy_binary_alloc_force",
        "fn main() {
             let acc = 0;
             let i = 0;
             while (i < 1000 && acc >= 0) {
                 acc = acc + i;
                 i = i + 1;
             }
             return acc;
         }",
        ExecStrategy::Sloth(OptFlags::none()),
        |c| c.thunk_allocs,
    );
}

fn main() {
    bench_interp();
    bench_query_store();
    bench_sql();
}
