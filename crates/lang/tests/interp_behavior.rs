//! Behavioural tests for the two evaluators: semantics equivalence and the
//! batching / fetch-strategy effects the paper's evaluation rests on.

use std::sync::Arc;

use sloth_core::{Demand, FlushReason};
use sloth_lang::{run_source, ExecStrategy, OptFlags, RunResult};
use sloth_net::SimEnv;
use sloth_orm::{entity, many_to_one, one_to_many, FetchStrategy, Schema};
use sloth_sql::ast::ColumnType::*;

/// A small clinic schema mirroring the paper's OpenMRS fragment (Fig. 1).
fn clinic_schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add(entity(
        "patient",
        "patient",
        "patient_id",
        &[("patient_id", Int), ("name", Text), ("creator_id", Int)],
        vec![
            one_to_many(
                "encounters",
                "encounter",
                "patient_id",
                FetchStrategy::Eager,
            ),
            one_to_many("visits", "visit", "patient_id", FetchStrategy::Lazy),
            many_to_one("creator", "user", "creator_id", FetchStrategy::Lazy),
        ],
    ));
    s.add(entity(
        "encounter",
        "encounter",
        "encounter_id",
        &[
            ("encounter_id", Int),
            ("patient_id", Int),
            ("concept_id", Int),
        ],
        vec![many_to_one(
            "concept",
            "concept",
            "concept_id",
            FetchStrategy::Lazy,
        )],
    ));
    s.add(entity(
        "visit",
        "visit",
        "visit_id",
        &[("visit_id", Int), ("patient_id", Int), ("active", Bool)],
        vec![],
    ));
    s.add(entity(
        "concept",
        "concept",
        "concept_id",
        &[("concept_id", Int), ("text", Text)],
        vec![],
    ));
    s.add(entity(
        "user",
        "users",
        "user_id",
        &[("user_id", Int), ("login", Text)],
        vec![],
    ));
    Arc::new(s)
}

fn clinic_env(schema: &Schema) -> SimEnv {
    let env = SimEnv::default_env();
    for ddl in schema.ddl() {
        env.seed_sql(&ddl).unwrap();
    }
    env.seed_sql("INSERT INTO users VALUES (1, 'doc')").unwrap();
    env.seed_sql("INSERT INTO patient VALUES (1, 'Ada', 1), (2, 'Grace', 1)")
        .unwrap();
    for i in 0..8 {
        env.seed_sql(&format!(
            "INSERT INTO encounter VALUES ({}, 1, {})",
            10 + i,
            100 + (i % 4)
        ))
        .unwrap();
    }
    for c in 0..4 {
        env.seed_sql(&format!(
            "INSERT INTO concept VALUES ({}, 'concept-{c}')",
            100 + c
        ))
        .unwrap();
    }
    env.seed_sql("INSERT INTO visit VALUES (500, 1, TRUE), (501, 1, FALSE)")
        .unwrap();
    env
}

fn run_both(src: &str) -> (RunResult, RunResult) {
    let schema = clinic_schema();
    let env1 = clinic_env(&schema);
    let orig = run_source(
        src,
        &env1,
        Arc::clone(&schema),
        ExecStrategy::Original,
        vec![],
    )
    .expect("original run");
    let env2 = clinic_env(&schema);
    let sloth = run_source(
        src,
        &env2,
        Arc::clone(&schema),
        ExecStrategy::Sloth(OptFlags::all()),
        vec![],
    )
    .expect("sloth run");
    (orig, sloth)
}

#[test]
fn outputs_identical_arithmetic() {
    let src = r#"
        fn main() {
            let total = 0;
            let i = 0;
            while (i < 10) {
                if (i % 2 == 0) { total = total + i; } else { total = total - 1; }
                i = i + 1;
            }
            print(str(total));
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output);
    assert_eq!(o.output, vec!["15"]);
}

#[test]
fn fig2_batching_pipeline() {
    // The paper's Fig. 2, where getPatient forces batch 1 and encounters/
    // visits/active-visits accumulate in batch 2 — one step further: the
    // associations are keyed by a column of the patient row, so they
    // register as dependents of the patient query and all three ship in
    // the one batch the render forces.
    let src = r#"
        fn main() {
            let model = new { };
            let p = orm_find("patient", 1);
            model.patient = p;
            model.encounters = orm_assoc(p, "encounters");
            model.visits = orm_assoc(p, "visits");
            render(model.encounters);
            render(model.visits);
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output, "same rendered page");
    // Sloth: orm_assoc does not force p; patient + encounters + visits
    // ship together at render.
    assert_eq!(s.net.round_trips, 1);
    let store = s.store.unwrap();
    assert_eq!(store.batch_sizes, vec![3]);
    // Original (eager encounters fetched at find + visits proxy on render):
    // find + eager-encounters + visits = 3 round trips.
    assert_eq!(o.net.round_trips, 3);
    assert!(o.net.round_trips > s.net.round_trips);
}

#[test]
fn eager_fetch_waste_avoided_by_sloth() {
    // Original eagerly fetches encounters although the page never uses
    // them; Sloth never even registers that query (§6.1 "avoiding
    // unnecessary queries").
    let src = r#"
        fn main() {
            let p = orm_find("patient", 1);
            print(p.name);
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output);
    assert_eq!(o.net.queries, 2, "find + wasted eager encounter fetch");
    assert_eq!(s.net.queries, 1, "only the find");
}

#[test]
fn sloth_can_issue_more_queries_than_original() {
    // The page stores a lazy collection in the model but never renders its
    // elements. Original: the proxy never materializes → no query. Sloth:
    // the assoc query registers at access time and ships with the batch
    // when something else forces (§6.1 "a few benchmarks issued more").
    let src = r#"
        fn main() {
            let model = new { };
            let p = orm_find("patient", 1);
            model.visits = orm_assoc(p, "visits");
            model.count = orm_count_where("encounter", "patient_id", 1);
            print(str(model.count));
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output);
    // Original: find + eager encounters + count; proxy silent.
    assert_eq!(o.net.queries, 3);
    // Sloth: find + visits (registered, shipped with flush) + count.
    assert_eq!(s.net.queries, 3);
    // But round trips still favour Sloth.
    assert!(s.net.round_trips < o.net.round_trips);
    // And crucially the visits query *did* execute in Sloth.
    let visits_executed = s.store.unwrap().queries_shipped();
    assert_eq!(visits_executed, 3);
}

#[test]
fn one_plus_n_collapses_to_one_batch() {
    // encounterDisplay.jsp (§6.1): loop over observations fetching each
    // concept; Sloth batches all concept queries into one round trip.
    let src = r#"
        fn main() {
            let model = new { };
            let encs = orm_find_where("encounter", "patient_id", 1);
            let n = len(encs);
            let i = 0;
            let concepts = [];
            while (i < n) {
                let e = at(encs, i);
                push(concepts, orm_assoc(e, "concept"));
                i = i + 1;
            }
            model.concepts = concepts;
            render(model.concepts);
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output);
    // Original: 1 (find_where) + 8 concept fetches (memoized per entity,
    // distinct entities → 8).
    assert_eq!(o.net.round_trips, 9);
    // Sloth: find_where forced by len() → 1 trip; all 8 concept queries
    // registered in the loop, deduped to 4 distinct, shipped together.
    assert_eq!(s.net.round_trips, 2);
    let store = s.store.unwrap();
    assert_eq!(store.batch_sizes, vec![1, 4]);
    assert!(store.dedup_hits >= 4, "identical concept queries deduped");
}

#[test]
fn writes_flush_and_preserve_transactions() {
    let src = r#"
        fn main() {
            let p = orm_find("patient", 1);
            orm_update("patient", 2, "name", "Grace Hopper");
            commit();
            print(p.name);
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output);
    // The pending find must ship before the update (write barrier).
    let store = s.store.unwrap();
    assert_eq!(store.write_flushes, 1, "pending batch flushed by write");
    // Verify the write actually landed.
    let schema = clinic_schema();
    let env = clinic_env(&schema);
    run_source(
        src,
        &env,
        Arc::clone(&schema),
        ExecStrategy::Sloth(OptFlags::all()),
        vec![],
    )
    .unwrap();
    let rs = env.seed(|db| {
        db.execute("SELECT name FROM patient WHERE patient_id = 2")
            .unwrap()
    });
    assert_eq!(
        rs.result.rows[0][0],
        sloth_sql::Value::Str("Grace Hopper".into())
    );
}

#[test]
fn selective_compilation_runs_helpers_standard() {
    let src = r#"
        fn fmt(a, b) { return concat(a, ": ", b); }
        fn main() {
            let p = orm_find("patient", 1);
            print(fmt("patient", p.name));
        }
    "#;
    let schema = clinic_schema();
    let env = clinic_env(&schema);
    let with_sc = run_source(
        src,
        &env,
        Arc::clone(&schema),
        ExecStrategy::Sloth(OptFlags::all()),
        vec![],
    )
    .unwrap();
    let env2 = clinic_env(&schema);
    let no_sc = run_source(
        src,
        &env2,
        Arc::clone(&schema),
        ExecStrategy::Sloth(OptFlags {
            selective: false,
            ..OptFlags::all()
        }),
        vec![],
    )
    .unwrap();
    assert_eq!(with_sc.output, no_sc.output);
    assert!(
        with_sc.counters.std_ops > 0,
        "helper ran under standard semantics with SC on"
    );
    assert!(
        with_sc.counters.thunk_allocs < no_sc.counters.thunk_allocs,
        "SC reduces thunk allocations"
    );
}

#[test]
fn coalescing_reduces_allocations() {
    let src = r#"
        fn main() {
            let a = 1 + 2 + 3 + 4 + 5;
            let b = a * 2 + a * 3;
            print(str(b));
        }
    "#;
    let schema = clinic_schema();
    let run = |flags: OptFlags| {
        let env = clinic_env(&schema);
        run_source(
            src,
            &env,
            Arc::clone(&schema),
            ExecStrategy::Sloth(flags),
            vec![],
        )
        .unwrap()
    };
    // Selective compilation off: `main` issues no query, so SC would run
    // it under standard semantics and hide the effect TC is meant to show.
    let base = OptFlags {
        selective: false,
        defer_branches: false,
        ..OptFlags::all()
    };
    let with_tc = run(base);
    let without = run(OptFlags {
        coalesce: false,
        ..base
    });
    assert_eq!(with_tc.output, without.output);
    assert_eq!(with_tc.output, vec!["75"]);
    assert!(
        with_tc.counters.thunk_allocs < without.counters.thunk_allocs,
        "TC must cut allocations: {} vs {}",
        with_tc.counters.thunk_allocs,
        without.counters.thunk_allocs
    );
}

#[test]
fn branch_deferral_enables_bigger_batches() {
    // The branch condition depends on a query result; without BD the
    // condition forces batch 1 before q2 registers. With BD the whole
    // branch defers and both queries ship together.
    let src = r#"
        fn main() {
            let c = orm_count_where("encounter", "patient_id", 1);
            let label = "none";
            if (c > 3) { label = "many"; } else { label = "few"; }
            let v = orm_count_where("visit", "patient_id", 1);
            print(label);
            print(str(v));
        }
    "#;
    let schema = clinic_schema();
    let run = |flags: OptFlags| {
        let env = clinic_env(&schema);
        run_source(
            src,
            &env,
            Arc::clone(&schema),
            ExecStrategy::Sloth(flags),
            vec![],
        )
        .unwrap()
    };
    let with_bd = run(OptFlags::all());
    let without = run(OptFlags {
        defer_branches: false,
        ..OptFlags::all()
    });
    assert_eq!(with_bd.output, without.output);
    assert_eq!(with_bd.output, vec!["many", "2"]);
    assert!(
        with_bd.net.round_trips < without.net.round_trips,
        "BD batches across the branch: {} vs {}",
        with_bd.net.round_trips,
        without.net.round_trips
    );
    assert_eq!(with_bd.store.unwrap().max_batch(), 2);
}

#[test]
fn buffered_writer_lets_prints_batch() {
    // Two queries printed back to back: unbuffered forces each at its
    // print (2 trips); buffered flushes once at end (1 trip).
    let src = r#"
        fn main() {
            let a = orm_count_where("encounter", "patient_id", 1);
            print(str(a));
            let b = orm_count_where("visit", "patient_id", 1);
            print(str(b));
        }
    "#;
    let schema = clinic_schema();
    let run = |buffered: bool| {
        let env = clinic_env(&schema);
        run_source(
            src,
            &env,
            Arc::clone(&schema),
            ExecStrategy::Sloth(OptFlags {
                buffered_writer: buffered,
                ..OptFlags::all()
            }),
            vec![],
        )
        .unwrap()
    };
    let buf = run(true);
    let unbuf = run(false);
    assert_eq!(buf.output, unbuf.output);
    assert_eq!(buf.net.round_trips, 1);
    assert_eq!(unbuf.net.round_trips, 2);
}

#[test]
fn unused_queries_never_execute() {
    // Registered but never forced → "might not be executed at all" (§2).
    let src = r#"
        fn main() {
            let unused = orm_find_where("visit", "patient_id", 1);
            print("done");
        }
    "#;
    let (_o, s) = run_both(src);
    assert_eq!(s.output, vec!["done"]);
    assert_eq!(s.net.round_trips, 0, "no force, no trip");
    assert_eq!(s.store.unwrap().batch_sizes.len(), 0);
}

#[test]
fn errors_match_between_modes() {
    let src = r#"fn main() { let x = 1 / 0; print(str(x)); }"#;
    let schema = clinic_schema();
    let env = clinic_env(&schema);
    let o = run_source(
        src,
        &env,
        Arc::clone(&schema),
        ExecStrategy::Original,
        vec![],
    );
    let s = run_source(
        src,
        &env,
        Arc::clone(&schema),
        ExecStrategy::Sloth(OptFlags::all()),
        vec![],
    );
    assert!(o.is_err());
    assert!(
        s.is_err(),
        "the error surfaces at force time but still surfaces"
    );
}

#[test]
fn lazy_overhead_visible_in_app_time() {
    // With no batching opportunity (each result decides a branch before
    // the next query exists), Sloth is slower — the Fig. 13 overhead
    // effect.
    let src = r#"
        fn main() {
            let i = 0;
            while (i < 50) {
                let rs = query("SELECT name FROM patient WHERE patient_id = 1");
                if (nrows(rs) > 0) {
                    print(cell(rs, 0, "name"));
                }
                i = i + 1;
            }
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output);
    assert_eq!(o.net.round_trips, s.net.round_trips, "no batching possible");
    assert!(
        s.net.app_ns > o.net.app_ns,
        "lazy bookkeeping costs app time"
    );
}

// ---------------------------------------------------------------------
// Selective laziness: runtime write deferral + branch deferral across
// writes (§3.5–3.6).
// ---------------------------------------------------------------------

#[test]
fn disjoint_writes_defer_and_share_one_round_trip() {
    // Three writes on three different tables, then a read forced at the
    // end: everything ships in ONE round trip under selective laziness.
    let src = r#"
        fn main() {
            exec("UPDATE users SET login = 'doc2' WHERE user_id = 1");
            exec("UPDATE concept SET text = 'renamed' WHERE concept_id = 100");
            exec("UPDATE visit SET active = false WHERE visit_id = 1000");
            let p = query("SELECT name FROM patient WHERE patient_id = 1");
            print(cell(p, 0, "name"));
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output);
    assert_eq!(o.net.round_trips, 4, "original: one trip per statement");
    assert_eq!(s.net.round_trips, 1, "Sloth: all four in one trip");
    let store = s.store.expect("sloth run has a store");
    assert_eq!(store.deferred_writes, 3);
}

#[test]
fn trailing_writes_drain_at_end_of_request() {
    // A page that ends with writes (the audit-trail idiom): the deferred
    // writes still execute — in one write-only flush — before the
    // request completes. The `if` ships the read before the writes
    // register, so nothing is pending for them to ride.
    let schema = clinic_schema();
    let env = clinic_env(&schema);
    let src = r#"
        fn main() {
            let p = query("SELECT name FROM patient WHERE patient_id = 1");
            if (nrows(p) > 0) {
                print(cell(p, 0, "name"));
            }
            exec("UPDATE users SET login = 'audit' WHERE user_id = 1");
            exec("UPDATE concept SET text = 'audit' WHERE concept_id = 100");
        }
    "#;
    let r = run_source(
        src,
        &env,
        Arc::clone(&schema),
        ExecStrategy::Sloth(OptFlags::all()),
        vec![],
    )
    .expect("sloth run");
    assert_eq!(r.output, vec!["Ada"]);
    let store = r.store.expect("store stats");
    assert_eq!(store.deferred_writes, 2);
    assert_eq!(store.write_only_flushes, 1, "one trailing write-only trip");
    assert_eq!(r.net.round_trips, 2);
    // The writes really applied.
    let check = env
        .query("SELECT login FROM users WHERE user_id = 1")
        .unwrap();
    assert_eq!(check.get(0, "login").unwrap().as_str(), Some("audit"));
}

#[test]
fn conflicting_read_still_observes_deferred_write() {
    // Read-after-write of the same row: the conflict drains the deferred
    // write (with the read riding along), so semantics match Original.
    let src = r#"
        fn main() {
            exec("UPDATE users SET login = 'fresh' WHERE user_id = 1");
            let u = query("SELECT login FROM users WHERE user_id = 1");
            print(cell(u, 0, "login"));
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output);
    assert_eq!(s.output, vec!["fresh"]);
    assert_eq!(s.net.round_trips, 1, "write + conflicting read, one trip");
    assert_eq!(s.store.unwrap().conflict_drains, 1);
}

#[test]
fn write_branch_defers_when_disjoint_from_tail() {
    // The branch writes `users`; everything after it touches `patient`:
    // BD-across-writes keeps the branch deferred (it forces at end of
    // request), output and state staying identical to Original.
    let src = r#"
        fn main(flag) {
            let p = query("SELECT name FROM patient WHERE patient_id = 1");
            if (flag > 0) {
                exec("UPDATE users SET login = 'flagged' WHERE user_id = 1");
            }
            let q = query("SELECT name FROM patient WHERE patient_id = 2");
            print(cell(p, 0, "name"));
            print(cell(q, 0, "name"));
        }
    "#;
    let schema = clinic_schema();
    for flag in [0i64, 1] {
        let env_o = clinic_env(&schema);
        let o = run_source(
            src,
            &env_o,
            Arc::clone(&schema),
            ExecStrategy::Original,
            vec![sloth_lang::V::Int(flag)],
        )
        .expect("original");
        let env_s = clinic_env(&schema);
        let s = run_source(
            src,
            &env_s,
            Arc::clone(&schema),
            ExecStrategy::Sloth(OptFlags::all()),
            vec![sloth_lang::V::Int(flag)],
        )
        .expect("sloth");
        assert_eq!(o.output, s.output, "flag {flag}");
        let state_o = env_o
            .query("SELECT login FROM users WHERE user_id = 1")
            .unwrap();
        let state_s = env_s
            .query("SELECT login FROM users WHERE user_id = 1")
            .unwrap();
        assert_eq!(state_o, state_s, "flag {flag}: final state diverged");
        if flag > 0 {
            assert_eq!(
                state_s.get(0, "login").unwrap().as_str(),
                Some("flagged"),
                "the deferred branch's write must still apply"
            );
        }
        // Both reads share one trip. The branch (when taken) runs at end
        // of request, before the output flush, so its write rides it too:
        // the `cell`s wait for the page's output.
        assert_eq!(s.net.round_trips, 1, "flag {flag}");
    }
}

#[test]
fn write_branch_with_conflicting_tail_is_not_deferred() {
    // The tail reads the written table: the branch must execute eagerly
    // (its write registers in program order and the conflicting read
    // drains it), and the read must observe the write.
    let src = r#"
        fn main(flag) {
            if (flag > 0) {
                exec("UPDATE users SET login = 'early' WHERE user_id = 1");
            }
            let u = query("SELECT login FROM users WHERE user_id = 1");
            print(cell(u, 0, "login"));
        }
    "#;
    let schema = clinic_schema();
    let env = clinic_env(&schema);
    let s = run_source(
        src,
        &env,
        Arc::clone(&schema),
        ExecStrategy::Sloth(OptFlags::all()),
        vec![sloth_lang::V::Int(1)],
    )
    .expect("sloth");
    assert_eq!(s.output, vec!["early"], "read observes the branch's write");
}

#[test]
fn conditionally_reassigned_write_sql_blocks_branch_deferral() {
    // Regression: the branch's SQL variable is reassigned in a nested
    // arm, so its static footprint depends on which path runs. The
    // analyzer must treat it as unbounded (no deferral) — otherwise the
    // tail read of `concept` would ship before the branch's UPDATE and
    // Sloth would print stale data.
    let src = r#"
        fn main(flag) {
            if (flag > 0) {
                let q = "UPDATE concept SET text = 'new' WHERE concept_id = 100";
                if (flag > 1) {
                    q = "UPDATE users SET login = 'u' WHERE user_id = 1";
                }
                exec(q);
            }
            let c = query("SELECT text FROM concept WHERE concept_id = 100");
            print(cell(c, 0, "text"));
        }
    "#;
    let schema = clinic_schema();
    for flag in [0i64, 1, 2] {
        let env_o = clinic_env(&schema);
        let o = run_source(
            src,
            &env_o,
            Arc::clone(&schema),
            ExecStrategy::Original,
            vec![sloth_lang::V::Int(flag)],
        )
        .expect("original");
        let env_s = clinic_env(&schema);
        let s = run_source(
            src,
            &env_s,
            Arc::clone(&schema),
            ExecStrategy::Sloth(OptFlags::all()),
            vec![sloth_lang::V::Int(flag)],
        )
        .expect("sloth");
        assert_eq!(o.output, s.output, "flag {flag}: output diverged");
        for probe in [
            "SELECT text FROM concept WHERE concept_id = 100",
            "SELECT login FROM users WHERE user_id = 1",
        ] {
            assert_eq!(
                env_o.query(probe).unwrap(),
                env_s.query(probe).unwrap(),
                "flag {flag}: state diverged ({probe})"
            );
        }
    }
}

#[test]
fn loop_carried_write_sql_blocks_branch_deferral() {
    // A loop that rebuilds its SQL from the previous iteration's value:
    // the static prefix only holds for iteration one, so the analyzer
    // must refuse to bound it and the loop must execute eagerly.
    let src = r#"
        fn main() {
            let q = "UPDATE users SET login = 'a' WHERE user_id = 1";
            let i = 0;
            while (i < 2) {
                exec(q);
                q = "UPDATE concept SET text = 'b' WHERE concept_id = " + str(100 + i);
                i = i + 1;
            }
            let c = query("SELECT text FROM concept WHERE concept_id = 100");
            print(cell(c, 0, "text"));
        }
    "#;
    let (o, s) = run_both(src);
    assert_eq!(o.output, s.output);
}

// ---------------------------------------------------------------------
// Short-circuit operators (§3.1 flattening + both evaluators).
// ---------------------------------------------------------------------

fn run_as(src: &str, strategy: ExecStrategy) -> Result<RunResult, sloth_lang::RunError> {
    let schema = clinic_schema();
    let env = clinic_env(&schema);
    run_source(src, &env, schema, strategy, vec![])
}

fn all_strategies() -> [ExecStrategy; 3] {
    [
        ExecStrategy::Original,
        ExecStrategy::Sloth(OptFlags::all()),
        ExecStrategy::Sloth(OptFlags::none()),
    ]
}

#[test]
fn compound_right_operand_is_evaluated_only_when_the_left_does_not_decide() {
    // The right operand needs a temporary (`x.f`), so §3.1 must keep it
    // nested; and it reads a field of `x`, so evaluating it when `x` is
    // null is an error under any semantics that does not short-circuit.
    let page = |x: &str| {
        format!(
            r#"fn main() {{
                let r = query("SELECT name FROM patient WHERE patient_id = 1");
                let x = {x};
                if (x != null && x.f > 0) {{ print("a"); }} else {{ print("b"); }}
                if (x == null || x.f > 0) {{ print("c"); }} else {{ print("d"); }}
            }}"#
        )
    };
    for strategy in all_strategies() {
        let null = run_as(&page("null"), strategy).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(null.output, ["b", "c"], "{strategy:?}");
        let obj =
            run_as(&page("new { f: 1 }"), strategy).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(obj.output, ["a", "c"], "{strategy:?}");
    }
}

#[test]
fn integer_overflow_wraps_instead_of_panicking() {
    // `i64::MIN / -1`, `i64::MIN % -1`, `-i64::MIN` and `abs(i64::MIN)`
    // overflow; like `+`, `-` and `*` they wrap. Division by zero stays
    // the typed error.
    let src = r#"fn main() {
        let min = 0 - 9223372036854775807 - 1;
        let m1 = 0 - 1;
        print(str(min / m1));
        print(str(min % m1));
        print(str(-min));
        print(str(abs(min)));
    }"#;
    let (o, s) = run_both(src);
    let min = i64::MIN.to_string();
    assert_eq!(o.output, [&min[..], "0", &min[..], &min[..]]);
    assert_eq!(o.output, s.output);
    for strategy in all_strategies() {
        let e = run_as("fn main() { print(str(7 % (1 - 1))); }", strategy).unwrap_err();
        assert_eq!(e.message, "modulo by zero", "{strategy:?}");
    }
}

// ---------------------------------------------------------------------
// Frames, names and thunks: what the evaluator promises about variables,
// independent of how a frame is stored.
// ---------------------------------------------------------------------

#[test]
fn let_is_function_scoped() {
    // A `let` inside a loop body or a branch is readable after it.
    let src = r#"fn main() {
        let i = 0;
        while (i < 3) { let last = i; i = i + 1; }
        if (i == 3) { let seen = "yes"; }
        print(str(last));
        print(seen);
    }"#;
    for strategy in all_strategies() {
        let r = run_as(src, strategy).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(r.output, ["2", "yes"], "{strategy:?}");
    }
}

#[test]
fn never_assigned_variable_is_unbound_by_its_source_name() {
    let src = r#"fn helper(a) { return a + missing_total; }
                 fn main() { print(str(helper(1))); }"#;
    for strategy in all_strategies() {
        let e = run_as(src, strategy).unwrap_err();
        assert_eq!(e.message, "unbound variable missing_total", "{strategy:?}");
    }
}

#[test]
fn each_call_gets_a_fresh_frame() {
    // `acc` and `sub` are written by the callee's own activation before
    // the caller reads its `acc` again; `seen` is never assigned in the
    // activation that reads it, whatever a deeper one did.
    let src = r#"
        fn fact(n) {
            let acc = n;
            if (n > 1) { let sub = fact(n - 1); acc = acc * sub; }
            return acc;
        }
        fn leak(n) {
            if (n > 0) { let seen = n; return leak(n - 1); }
            return seen;
        }
        fn main() { print(str(fact(6))); print(str(leak(2))); }
    "#;
    for strategy in all_strategies() {
        let src_fact = src.replace("print(str(leak(2)));", "");
        let r = run_as(&src_fact, strategy).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(r.output, ["720"], "{strategy:?}");
        let e = run_as(src, strategy).unwrap_err();
        assert_eq!(e.message, "unbound variable seen", "{strategy:?}");
    }
}

#[test]
fn deferred_block_binds_its_own_variables_and_unassigned_outputs_read_null() {
    // The branch defers whole (§4.2). `t` and `w` are mentioned by the
    // block but unbound when it is created, and bound by running it; `z`
    // is an output the taken arm never assigns, which reads `null` once
    // the block has run (without deferral it would be unbound). The query
    // makes `main` persistent, so selective compilation runs it lazily.
    let src = r#"fn main() {
        let unused = query("SELECT name FROM patient WHERE patient_id = 1");
        let c = 0;
        if (c > 0) { z = 1; } else { let t = 20; w = t + 1; }
        print(str(w));
        print(str(z));
    }"#;
    let r = run_as(src, ExecStrategy::Sloth(OptFlags::all())).expect("deferred branch runs");
    assert_eq!(r.output, ["21", "null"]);
    let e = run_as(src, ExecStrategy::Sloth(OptFlags::none())).unwrap_err();
    assert_eq!(e.message, "unbound variable z");
}

#[test]
fn forcing_a_delayed_operator_counts_itself_and_its_operands() {
    // With every optimization off `main` runs lazily and each operator is
    // its own thunk, so the only standard-semantics operations of the run
    // are the ones forcing them counts: 3 per binary, 2 per unary.
    let lazy = ExecStrategy::Sloth(OptFlags::none());
    let ops = |src: &str| run_as(src, lazy).expect("runs").counters.std_ops;
    assert_eq!(ops("fn main() { let a = 1; print(str(a)); }"), 0);
    assert_eq!(
        ops("fn main() { let a = 1; let b = a + 2; print(str(b)); }"),
        3
    );
    assert_eq!(
        ops("fn main() { let a = 1; let b = -a; print(str(b)); }"),
        2
    );
    assert_eq!(
        ops("fn main() { let a = 1; let b = !(a < 2); print(str(b)); }"),
        5
    );
    // Never forced, never counted.
    assert_eq!(ops("fn main() { let a = 1; let b = a + 2; }"), 0);
}

#[test]
fn a_delayed_operator_forces_its_operands_left_to_right() {
    let src = |l: &str, r: &str| {
        format!(
            "fn main() {{ let z = 0; let l = 1 {l} z; let r = 1 {r} z; let s = l + r; print(str(s)); }}"
        )
    };
    let lazy = ExecStrategy::Sloth(OptFlags::none());
    let e = run_as(&src("/", "%"), lazy).unwrap_err();
    assert_eq!(e.message, "division by zero");
    let e = run_as(&src("%", "/"), lazy).unwrap_err();
    assert_eq!(e.message, "modulo by zero");
}

#[test]
fn unknown_callee_fails_at_call_time_after_its_arguments() {
    for strategy in all_strategies() {
        // Not at `prepare` time: an untaken call is harmless.
        let r = run_as(
            r#"fn main() { if (1 > 2) { nope(1); } print("ok"); }"#,
            strategy,
        )
        .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(r.output, ["ok"], "{strategy:?}");
        let e = run_as("fn main() { nope(1, 2); }", strategy).unwrap_err();
        assert_eq!(e.message, "unknown function nope", "{strategy:?}");
        // The arguments are evaluated first: theirs is the error reported.
        let e = run_as("fn main() { nope(1, missing_arg); }", strategy).unwrap_err();
        assert_eq!(e.message, "unbound variable missing_arg", "{strategy:?}");
    }
}

// ---- dependent chains ------------------------------------------------

/// Patients form a linked list through `creator_id` here: patient 2 was
/// "created by" id 1, which `orm_find("patient", …)` follows; patient 3's
/// creator (id 9) does not exist.
fn chain_env(schema: &Schema) -> SimEnv {
    let env = clinic_env(schema);
    env.seed_sql("INSERT INTO patient VALUES (3, 'Orphan', 9)")
        .unwrap();
    env
}

fn run_chain(src: &str, strategy: ExecStrategy) -> Result<RunResult, sloth_lang::RunError> {
    let schema = clinic_schema();
    run_source(src, &chain_env(&schema), schema, strategy, vec![])
}

#[test]
fn a_dependent_chain_costs_one_round_trip() {
    // patient → creator (many-to-one) → and a find keyed by a field of
    // the unfetched patient: three statements, each keyed by a column of
    // the first one's row.
    let src = r#"
        fn main() {
            let p = orm_find("patient", 2);
            let doc = orm_assoc(p, "creator");
            let cid = p.creator_id;
            let first = orm_find("patient", cid);
            let visits = orm_assoc(first, "visits");
            print(doc.login);
            print(first.name);
            print(str(len(visits)));
        }
    "#;
    let o = run_chain(src, ExecStrategy::Original).unwrap();
    let s = run_chain(src, ExecStrategy::Sloth(OptFlags::all())).unwrap();
    assert_eq!(o.output, vec!["doc", "Ada", "2"]);
    assert_eq!(o.output, s.output);
    assert_eq!(s.net.round_trips, 1, "every link rides the head's batch");
    assert_eq!(s.store.unwrap().batch_sizes, vec![4]);
    assert!(o.net.round_trips >= 4);
}

#[test]
fn a_deferred_field_read_sees_the_row_not_a_later_heap_write() {
    let src = r#"
        fn main() {
            let p = orm_find("patient", 2);
            let n = p.creator_id;
            p.creator_id = 99;
            print(str(n));
            print(str(p.creator_id));
        }
    "#;
    for strategy in all_strategies() {
        let r = run_chain(src, strategy).unwrap();
        assert_eq!(r.output, vec!["1", "99"], "{strategy:?}");
    }
}

#[test]
fn a_missing_parent_raises_what_forcing_it_would_have_raised() {
    // Patient 3's creator does not exist: the field read on it, and the
    // association through it, fail exactly as they do when the parent is
    // forced first — at the force that demands the dependent value.
    let field = r#"
        fn main() {
            let p = orm_find("patient", 3);
            let nobody = orm_find("patient", p.creator_id);
            let next = orm_find("patient", nobody.creator_id);
            print("before");
            print(next.name);
        }
    "#;
    let assoc = r#"
        fn main() {
            let p = orm_find("patient", 3);
            let nobody = orm_assoc(p, "creator");
            let visits = orm_assoc(nobody, "visits");
            print("before");
            print(str(len(visits)));
        }
    "#;
    for (src, text) in [
        (field, "field creator_id read on null"),
        (assoc, "orm_assoc on non-entity null"),
    ] {
        for strategy in all_strategies() {
            let e = run_chain(src, strategy).unwrap_err();
            assert_eq!(e.message, text, "{strategy:?}");
        }
    }
    // The first missing link is the one reported, however long the chain
    // behind it.
    let long = r#"
        fn main() {
            let p = orm_find("patient", 3);
            let nobody = orm_assoc(p, "creator");
            let visits = orm_assoc(nobody, "visits");
            let deeper = orm_find("patient", nobody.user_id);
            print(deeper.name);
        }
    "#;
    for strategy in all_strategies() {
        let e = run_chain(long, strategy).unwrap_err();
        assert_eq!(e.message, "orm_assoc on non-entity null", "{strategy:?}");
    }
}

#[test]
fn a_never_demanded_dependant_raises_nothing() {
    // As with any query nobody demands: under Sloth it never runs, so it
    // cannot fail (the original program does fail here).
    let src = r#"
        fn main() {
            let p = orm_find("patient", 3);
            let nobody = orm_find("patient", p.creator_id);
            let next = orm_find("patient", nobody.creator_id);
            print(p.name);
        }
    "#;
    let s = run_chain(src, ExecStrategy::Sloth(OptFlags::all())).unwrap();
    assert_eq!(s.output, vec!["Orphan"]);
    assert_eq!(s.net.round_trips, 1);
    assert!(run_chain(src, ExecStrategy::Original).is_err());
}

#[test]
fn the_association_memo_holds_before_and_after_the_owner_is_fetched() {
    let src = r#"
        fn main() {
            let p = orm_find("patient", 1);
            let a = orm_assoc(p, "encounters");
            let b = orm_assoc(p, "encounters");
            if (p.name == "Ada") { print("fetched"); }
            let c = orm_assoc(p, "encounters");
            push(a, 7);
            print(str(len(b)));
            print(str(len(c)));
        }
    "#;
    let o = run_chain(src, ExecStrategy::Original).unwrap();
    let s = run_chain(src, ExecStrategy::Sloth(OptFlags::all())).unwrap();
    // One list, three names for it — two taken before the owner was
    // fetched, one after: the push through `a` shows in all.
    assert_eq!(s.output, vec!["fetched", "9", "9"]);
    assert_eq!(o.output, s.output);
    assert_eq!(
        s.counters.queries_registered, 2,
        "the patient, its encounters once"
    );
    assert_eq!(s.net.round_trips, 1);
}

#[test]
fn a_fetched_parent_is_read_where_it_lies() {
    // Once the parent has been answered, a field read allocates no
    // deferred read and a keyed query registers a literal statement: the
    // counters of a program that forces first are those of this one.
    let forced_first = |key: &str| {
        let src = format!(
            r#"
            fn main() {{
                let p = orm_find("patient", 2);
                if (p.name == "Grace") {{ print("fetched"); }}
                let first = orm_find("patient", {key});
                print(first.name);
            }}
        "#
        );
        run_chain(&src, ExecStrategy::Sloth(OptFlags::all())).unwrap()
    };
    let by_field = forced_first("p.creator_id");
    let by_literal = forced_first("1");
    assert_eq!(by_field.output, vec!["fetched", "Ada"]);
    assert_eq!(by_field.output, by_literal.output);
    assert_eq!(
        by_field.net.round_trips, 2,
        "the key is known: nothing to chain"
    );
    assert_eq!(
        by_field.counters.thunk_allocs,
        by_literal.counters.thunk_allocs
    );
    assert_eq!(by_field.store.unwrap().batch_sizes, vec![1, 1]);
}

#[test]
fn a_standard_callee_receives_the_forced_column() {
    let src = r#"
        fn fmt(a, b) { return concat(a, ": ", b); }
        fn main() {
            let p = orm_find("patient", 2);
            print(fmt("creator", str(p.creator_id)));
        }
    "#;
    let r = run_chain(src, ExecStrategy::Sloth(OptFlags::all())).unwrap();
    assert_eq!(r.output, vec!["creator: 1"]);
    assert!(r.counters.std_ops > 0, "fmt ran under standard semantics");
}

// ---- guard hoisting --------------------------------------------------

/// Fig. 1's shape: a body behind a check that must fetch a list to decide.
fn guarded(guard: &str, body: &str) -> String {
    format!(
        r#"
        fn allowed(xs) {{ let n = len(xs); return n > 0; }}
        fn main() {{
            let visits = orm_find_where("visit", "patient_id", 1);
            if ({guard}) {{ {body} }} else {{ print("denied"); }}
        }}
    "#
    )
}

#[test]
fn a_guarded_body_rides_the_flush_its_guard_forces() {
    let src = guarded(
        "allowed(visits)",
        r#"let p = orm_find("patient", 1);
           let doc = orm_assoc(p, "creator");
           print(p.name);
           print(doc.login);"#,
    );
    let runs: Vec<RunResult> = all_strategies()
        .into_iter()
        .map(|s| run_as(&src, s).unwrap_or_else(|e| panic!("{s:?}: {e}")))
        .collect();
    for r in &runs {
        assert_eq!(r.output, ["Ada", "doc"]);
    }
    let (all, none) = (&runs[1], &runs[2]);
    assert_eq!(all.net.round_trips, 1, "the body rides the guard's batch");
    assert_eq!(none.net.round_trips, 2);
    assert_eq!(
        all.store.as_ref().unwrap().flush_reasons,
        [FlushReason::Force(Demand::EagerArg)],
        "forced by the guard's len"
    );
}

#[test]
fn an_untaken_arm_fails_nobody() {
    // Neither failing read moves (raw SQL; a column the schema does not
    // know), so nothing poisons the batch the read after the `if` rides.
    let src = guarded(
        "!allowed(visits)",
        r#"let p = orm_find("patient", 1);
           let bad = query("SELECT * FROM no_such_table");
           let worse = orm_find_where("patient", "nope", 1);
           print(p.name); print(str(bad)); print(str(worse));"#,
    )
    .replace(
        r#"print("denied"); }"#,
        r#"print("denied"); }
            let after = orm_find("patient", 2);
            print(after.name);"#,
    );
    for strategy in all_strategies() {
        let r = run_as(&src, strategy).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(r.output, ["denied", "Grace"], "{strategy:?}");
    }
}

#[test]
fn an_association_off_a_shipped_missing_row_fails_only_on_demand() {
    // The read conflicts with the deferred write and drains the batch as
    // it registers, so the association finds its row answered — and
    // missing — instead of waiting beside it as a dependant. It fails
    // where a dependant would: on demand (the original program fails at
    // the call, like any never-demanded dependant's).
    let src = |tail: &str| {
        format!(
            r#"fn main() {{
                orm_update("patient", 7, "name", "Ada2");
                let p = orm_find("patient", 7);
                let doc = orm_assoc(p, "creator");
                print("ok");
                {tail}
            }}"#
        )
    };
    for flags in [OptFlags::all(), OptFlags::none()] {
        let r = run_as(&src(""), ExecStrategy::Sloth(flags)).unwrap();
        assert_eq!(r.output, ["ok"], "{flags:?}");
        assert_eq!(r.store.unwrap().conflict_drains, 1, "{flags:?}");
    }
    for strategy in all_strategies() {
        let e = run_as(&src("print(doc.login);"), strategy).unwrap_err();
        assert_eq!(e.message, "orm_assoc on non-entity null", "{strategy:?}");
    }
}

// ---- force provenance ------------------------------------------------

fn flush_reasons(src: &str) -> Vec<FlushReason> {
    let r = run_as(src, ExecStrategy::Sloth(OptFlags::all())).unwrap();
    r.store.unwrap().flush_reasons
}

#[test]
fn each_flush_names_the_consumer_that_forced_it() {
    let force = |d| FlushReason::Force(d);
    let cases = [
        (
            r#"fn main() { let p = orm_find("patient", 1); if (p.name == "Ada") { print("yes"); } }"#,
            vec![force(Demand::Condition)],
        ),
        (
            r#"fn main() { let v = orm_find_where("visit", "patient_id", 1); let n = len(v); print(str(n)); }"#,
            vec![force(Demand::EagerArg)],
        ),
        (
            r#"fn main() { let p = orm_find("patient", 1); print(p.name); }"#,
            vec![force(Demand::Output)],
        ),
        (
            r#"fn main() {
                let p = orm_find("patient", 1);
                let q = orm_find("patient", p.creator_id + 1);
                print(q.name);
            }"#,
            vec![force(Demand::QueryParam), force(Demand::Output)],
        ),
        (
            r#"fn main() { let p = orm_find("patient", 1); return p.name; }"#,
            vec![force(Demand::Return)],
        ),
    ];
    for (src, want) in cases {
        assert_eq!(flush_reasons(src), want, "{src}");
    }
}

// ---- delayed result-set reads ----------------------------------------

#[test]
fn a_delayed_read_ships_for_the_consumer_that_demands_it() {
    let force = |d| FlushReason::Force(d);
    let cases = [
        (
            r#"fn main() {
                let rs = query("SELECT name FROM patient WHERE patient_id = 1");
                let n = nrows(rs);
                if (n > 0) { print("yes"); }
            }"#,
            vec![force(Demand::Condition)],
        ),
        (
            r#"fn main() {
                let rs = query("SELECT creator_id FROM patient WHERE patient_id = 1");
                let id = cell(rs, 0, "creator_id");
                let u = query("SELECT login FROM users WHERE user_id = " + str(id));
                print(cell(u, 0, "login"));
            }"#,
            vec![force(Demand::QueryParam), force(Demand::Output)],
        ),
        (
            r#"fn main() {
                let rs = query("SELECT name FROM patient WHERE patient_id = 1");
                print(cell(rs, 0, "name"));
                let vs = query("SELECT visit_id FROM visit");
                print(str(nrows(vs)));
            }"#,
            vec![force(Demand::Output)],
        ),
    ];
    for (src, want) in cases {
        assert_eq!(flush_reasons(src), want, "{src}");
    }
}

#[test]
fn a_fetched_result_set_is_read_where_it_lies() {
    // Once the query has been answered, a read allocates nothing: the
    // counters are those of a program that prints a literal instead.
    let page = |guard: &str, out: &str| {
        format!(
            r#"fn main() {{
                let rs = query("SELECT name FROM patient WHERE patient_id = 1");
                {guard}
                print({out});
            }}"#
        )
    };
    let sloth = ExecStrategy::Sloth(OptFlags::all());
    let allocs = |src: &str| {
        let r = run_as(src, sloth).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert_eq!(r.output.last().map(String::as_str), Some("Ada"), "{src}");
        r.counters.thunk_allocs
    };
    let forced = "if (nrows(rs) > 0) { print(\"found\"); }";
    assert_eq!(
        allocs(&page(forced, "cell(rs, 0, \"name\")")),
        allocs(&page(forced, "\"Ada\""))
    );
    // Before the answer, the read is the one thunk more.
    assert_eq!(
        allocs(&page("", "cell(rs, 0, \"name\")")),
        allocs(&page("", "\"Ada\"")) + 1
    );
}

#[test]
fn a_read_nobody_demands_raises_nothing_and_ships_nothing() {
    let src = r#"fn main() {
        let rs = query("SELECT name FROM patient WHERE patient_id = 1");
        let bad = cell(rs, 5, "name");
        let n = nrows(rs);
        print("done");
    }"#;
    let s = run_as(src, ExecStrategy::Sloth(OptFlags::all())).unwrap();
    assert_eq!(s.output, ["done"]);
    assert_eq!(s.net.round_trips, 0, "no demand, no trip");
    let e = run_as(src, ExecStrategy::Original).unwrap_err();
    assert_eq!(e.message, "no cell [5].name", "the original program fails");
}

#[test]
fn a_delayed_row_is_one_object_for_every_reader() {
    // `at` and `first` build a plain object from the row: a heap value
    // once built, so `obj_get` and `obj_put` reach the same one.
    let src = r#"fn main() {
        let rs = query("SELECT patient_id, name FROM patient ORDER BY patient_id");
        let r = at(rs, 1);
        let f = first(rs);
        print(obj_get(r, "name"));
        obj_put(r, "name", "renamed");
        print(obj_get(r, "name"));
        print(f.name);
        print(str(obj_get(at(rs, 0), "patient_id")));
        print(str(nrows(rs)));
    }"#;
    for strategy in all_strategies() {
        let r = run_as(src, strategy).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(
            r.output,
            ["Grace", "renamed", "Ada", "1", "2"],
            "{strategy:?}"
        );
    }
}

#[test]
fn a_delayed_read_fails_at_demand_with_the_original_text() {
    let page = |read: &str| {
        format!(
            r#"fn main() {{
                let rs = query("SELECT name FROM patient WHERE patient_id = 1");
                let v = {read};
                print("before");
                print(str(v));
            }}"#
        )
    };
    for read in [
        "cell(rs, 3, \"name\")",
        "cell(rs, 0, \"nope\")",
        "at(rs, 9)",
        "cell(rs, \"0\", \"name\")",
    ] {
        let src = page(read);
        let want = run_as(&src, ExecStrategy::Original).unwrap_err().message;
        for strategy in all_strategies() {
            let e = run_as(&src, strategy).unwrap_err();
            assert_eq!(e.message, want, "{strategy:?}: {read}");
        }
    }
}

// ---- guarded reads ---------------------------------------------------

/// The clinic, plus a patient whose creator is `NULL` and a user whose
/// login is a patient's name.
fn run_guarded(src: &str, strategy: ExecStrategy) -> Result<RunResult, sloth_lang::RunError> {
    let schema = clinic_schema();
    let env = clinic_env(&schema);
    env.seed_sql("INSERT INTO patient VALUES (4, 'Nobody', NULL)")
        .unwrap();
    env.seed_sql("INSERT INTO users VALUES (2, 'Ada')").unwrap();
    run_source(src, &env, schema, strategy, vec![])
}

/// A read keyed by `column` of patient `id`'s row, read by `text` behind
/// `if ({guard})`; `pre` runs before the `if` and `arm` before the read.
fn row_guarded(id: u32, column: &str, text: &str, pre: &str, guard: &str, arm: &str) -> String {
    format!(
        r#"fn main() {{
            let p = query("SELECT patient_id, name, creator_id FROM patient WHERE patient_id = {id}");
            {pre}
            if ({guard}) {{
                let k = cell(p, 0, "{column}");
                {arm}
                let u = query({text});
                let i = 0;
                while (i < nrows(u)) {{ print(str(cell(u, i, "login"))); i = i + 1; }}
            }}
            print("done");
        }}"#
    )
}

const BY_ID: &str = r#""SELECT login FROM users WHERE user_id = " + str(k)"#;
const BY_LOGIN: &str = r#""SELECT login FROM users WHERE login = '" + str(k) + "'""#;
const ROW_GUARD: &str = "nrows(p) > 0";

#[test]
fn a_row_guarded_read_rides_the_flush_its_guard_forces() {
    let src = row_guarded(1, "creator_id", BY_ID, "", ROW_GUARD, "");
    let runs: Vec<RunResult> = all_strategies()
        .into_iter()
        .map(|s| run_guarded(&src, s).unwrap_or_else(|e| panic!("{s:?}: {e}")))
        .collect();
    for r in &runs {
        assert_eq!(r.output, ["doc", "done"]);
    }
    let (all, none) = (&runs[1], &runs[2]);
    assert_eq!(none.net.round_trips, 2);
    assert_eq!(all.net.round_trips, 1, "the read rides the guard's batch");
    let store = all.store.as_ref().unwrap();
    assert_eq!(store.batch_sizes, [2]);
    assert_eq!(store.flush_reasons, [FlushReason::Force(Demand::Condition)]);
}

#[test]
fn a_row_guarded_read_answers_as_the_text_the_program_spells() {
    // No row: the arm is not taken and the dependant runs nothing. A NULL
    // or text key splices differently as a SQL literal: the query does not
    // take that answer and reads its own text, in a trip of its own.
    for (id, column, text, want, trips) in [
        (9, "creator_id", BY_ID, &["done"][..], 1),
        (4, "creator_id", BY_ID, &["done"][..], 2),
        (1, "name", BY_LOGIN, &["Ada", "done"][..], 2),
    ] {
        let src = row_guarded(id, column, text, "", ROW_GUARD, "");
        for strategy in all_strategies() {
            let r = run_guarded(&src, strategy).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert_eq!(r.output, want, "{strategy:?}: {id}.{column}");
        }
        let r = run_guarded(&src, ExecStrategy::Sloth(OptFlags::all())).unwrap();
        assert_eq!(r.net.round_trips, trips, "{id}.{column}");
    }
    // A missing column fails as the `cell` that read it; a failing text
    // as the text does.
    let cases = [
        (
            row_guarded(1, "nope", BY_ID, "", ROW_GUARD, ""),
            "no cell [0].nope",
        ),
        (
            row_guarded(
                1,
                "creator_id",
                r#""SELECT login FROM nowhere WHERE user_id = " + str(k)"#,
                "",
                ROW_GUARD,
                "",
            ),
            "nowhere",
        ),
    ];
    for (src, want) in cases {
        let orig = run_guarded(&src, ExecStrategy::Original)
            .unwrap_err()
            .message;
        assert!(orig.contains(want), "{orig}");
        for strategy in all_strategies() {
            let e = run_guarded(&src, strategy).unwrap_err().message;
            assert!(e.contains(&orig), "{strategy:?}: {e} vs {orig}");
        }
    }
}

#[test]
fn a_read_outside_the_row_guard_shape_stays_in_its_arm() {
    let sloth = ExecStrategy::Sloth(OptFlags::all());
    let fetch_first = r#"if (nrows(p) > 5) { print("many"); }"#;
    let write = r#"exec("UPDATE visit SET active = TRUE WHERE visit_id = 500");"#;
    let in_loop = row_guarded(1, "creator_id", BY_ID, "", ROW_GUARD, "").replace(
        &format!("let u = query({BY_ID});"),
        &format!("let u = 0; let j = 0; while (j < 1) {{ u = query({BY_ID}); j = j + 1; }}"),
    );
    for (name, src, batches) in [
        (
            "another guard",
            row_guarded(1, "creator_id", BY_ID, "", "nrows(p) >= 1", ""),
            vec![1, 1],
        ),
        (
            "rows reassigned after the guard read them",
            row_guarded(
                1,
                "creator_id",
                BY_ID,
                r#"let n = nrows(p); p = query("SELECT patient_id, name, creator_id FROM patient WHERE patient_id = 2"); let g = n > 0;"#,
                "g",
                "",
            ),
            vec![2, 1],
        ),
        (
            "a write first in the arm",
            row_guarded(1, "creator_id", BY_ID, "", ROW_GUARD, write),
            vec![1, 2],
        ),
        ("a read inside a loop", in_loop, vec![1, 1]),
        // Fetched already: nothing registers ahead of the `if`, and the
        // query reads where it stands.
        (
            "rows fetched before the if",
            row_guarded(1, "creator_id", BY_ID, fetch_first, ROW_GUARD, ""),
            vec![1, 1],
        ),
    ] {
        let want = run_guarded(&src, ExecStrategy::Original).unwrap().output;
        for strategy in all_strategies() {
            let r = run_guarded(&src, strategy).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(r.output, want, "{name}: {strategy:?}");
        }
        let r = run_guarded(&src, sloth).unwrap();
        assert_eq!(r.store.unwrap().batch_sizes, batches, "{name}");
    }
    // Fetched already, without the row or the cell: the query fails (or
    // not) where it stands, as the original program does.
    for (id, column, want) in [
        (9, "creator_id", Ok(())),
        (1, "nope", Err("no cell [0].nope")),
    ] {
        let src = row_guarded(id, column, BY_ID, fetch_first, ROW_GUARD, "");
        for strategy in all_strategies() {
            let r = run_guarded(&src, strategy);
            assert_eq!(
                r.as_ref().map(|_| ()).map_err(|e| e.message.as_str()),
                want,
                "{strategy:?}"
            );
        }
    }
}
