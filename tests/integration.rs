//! Cross-crate integration tests: the full stack from SQL engine to web
//! framework, plus every benchmark application end to end.

use std::sync::Arc;

use sloth_apps::{itracker_app, openmrs_app};
use sloth_lang::{prepare, prepare_with_schema, run_source, ExecStrategy, OptFlags, V};
use sloth_net::{CostModel, SimEnv};
use sloth_orm::{entity, one_to_many, FetchStrategy, Schema};
use sloth_sql::ast::ColumnType::*;
use sloth_web::{HttpRequest, Router};

/// Every itracker page runs in both modes with identical output and a
/// strict round-trip win (the Fig. 5(b) invariant).
#[test]
fn itracker_all_pages_equivalent_and_batched() {
    let app = itracker_app();
    let db = app.fresh_env(CostModel::default()).snapshot_db();
    for page in &app.pages {
        let program = sloth_lang::parse_program(&page.source).unwrap();
        let orig = prepare(&program, ExecStrategy::Original);
        let sloth = prepare(&program, ExecStrategy::Sloth(OptFlags::all()));
        let env_o = SimEnv::from_database(db.clone(), CostModel::default());
        let env_s = SimEnv::from_database(db.clone(), CostModel::default());
        let o = orig
            .run(&env_o, Arc::clone(&app.schema), vec![V::Int(page.arg)])
            .unwrap();
        let s = sloth
            .run(&env_s, Arc::clone(&app.schema), vec![V::Int(page.arg)])
            .unwrap();
        assert_eq!(o.output, s.output, "{}", page.name);
        assert!(
            s.net.round_trips < o.net.round_trips,
            "{}: {} vs {}",
            page.name,
            s.net.round_trips,
            o.net.round_trips
        );
    }
}

/// Spot-check OpenMRS hot pages (running all 112 is the harness's job).
#[test]
fn openmrs_hot_pages_equivalent_and_batched() {
    let app = openmrs_app();
    let db = app.fresh_env(CostModel::default()).snapshot_db();
    for page in app.pages.iter().take(8) {
        let program = sloth_lang::parse_program(&page.source).unwrap();
        let orig = prepare(&program, ExecStrategy::Original);
        let sloth = prepare(&program, ExecStrategy::Sloth(OptFlags::all()));
        let env_o = SimEnv::from_database(db.clone(), CostModel::default());
        let env_s = SimEnv::from_database(db.clone(), CostModel::default());
        let o = orig
            .run(&env_o, Arc::clone(&app.schema), vec![V::Int(page.arg)])
            .unwrap();
        let s = sloth
            .run(&env_s, Arc::clone(&app.schema), vec![V::Int(page.arg)])
            .unwrap();
        assert_eq!(o.output, s.output, "{}", page.name);
        assert!(s.net.round_trips < o.net.round_trips, "{}", page.name);
    }
}

/// The encounterDisplay pattern end to end: batch size grows with the
/// observation count while round trips stay flat (Fig. 10(b) mechanism).
#[test]
fn encounter_display_batches_scale() {
    let app = openmrs_app();
    let page = app
        .pages
        .iter()
        .find(|p| p.name.contains("encounterDisplay"))
        .unwrap();
    let program = sloth_lang::parse_program(&page.source).unwrap();
    let sloth = prepare(&program, ExecStrategy::Sloth(OptFlags::all()));
    let mut batches = Vec::new();
    let mut trips = Vec::new();
    for obs in [20, 300] {
        let env = SimEnv::default_env();
        for ddl in app.schema.ddl() {
            env.seed_sql(&ddl).unwrap();
        }
        sloth_apps::openmrs::seed_openmrs(&env, obs);
        let r = sloth
            .run(&env, Arc::clone(&app.schema), vec![V::Int(page.arg)])
            .unwrap();
        batches.push(r.store.unwrap().max_batch());
        trips.push(r.net.round_trips);
    }
    assert!(batches[1] > batches[0], "batch grows: {batches:?}");
    assert!(trips[1] <= trips[0] + 2, "round trips stay flat: {trips:?}");
}

/// The whole stack under one request: a page of two `orm_find`s, served
/// through the router, writes both finds unforced and ships them in one
/// batch when the page flushes.
#[test]
fn rust_level_stack_batches_through_view() {
    let mut schema = Schema::new();
    schema.add(entity(
        "author",
        "author",
        "id",
        &[("id", Int), ("name", Text)],
        vec![one_to_many(
            "books",
            "book",
            "author_id",
            FetchStrategy::Lazy,
        )],
    ));
    schema.add(entity(
        "book",
        "book",
        "id",
        &[("id", Int), ("author_id", Int), ("title", Text)],
        vec![],
    ));
    let schema = Arc::new(schema);
    let env = SimEnv::default_env();
    for ddl in schema.ddl() {
        env.seed_sql(&ddl).unwrap();
    }
    env.seed_sql("INSERT INTO author VALUES (1, 'Hopper'), (2, 'Liskov')")
        .unwrap();
    env.seed_sql("INSERT INTO book VALUES (10, 1, 'COBOL'), (11, 2, 'CLU')")
        .unwrap();

    let src = r#"
        fn main() {
            print(orm_find("author", 1));
            print(orm_find("author", 2));
        }
    "#;
    let program = sloth_lang::parse_program(src).unwrap();
    let lazy = ExecStrategy::Sloth(OptFlags::all());
    let page = prepare_with_schema(&program, lazy, Some(&schema));
    let mut router = Router::new(env.clone(), schema);
    router.mount("/authors", Arc::new(page), true);
    assert_eq!(env.stats().round_trips, 0);
    let rsp = router.handle(&HttpRequest::get("/authors"));
    assert!(rsp.ok(), "{}", rsp.body);
    assert!(rsp.body.contains("Hopper") && rsp.body.contains("Liskov"));
    assert_eq!(env.stats().round_trips, 1, "both authors in one batch");
}

/// Kernel-language writes land identically from both evaluators and
/// transaction boundaries flush (the §3.3 guarantee, end to end).
#[test]
fn writes_committed_identically() {
    let src = r#"
        fn main() {
            let before = cell(query("SELECT v FROM counter WHERE id = 1"), 0, "v");
            exec("UPDATE counter SET v = v + 5 WHERE id = 1");
            commit();
            let after = cell(query("SELECT v FROM counter WHERE id = 1"), 0, "v");
            print(str(before) + "->" + str(after));
        }
    "#;
    let schema = Arc::new(Schema::new());
    let mk = || {
        let env = SimEnv::default_env();
        env.seed_sql("CREATE TABLE counter (id INT PRIMARY KEY, v INT)")
            .unwrap();
        env.seed_sql("INSERT INTO counter VALUES (1, 10)").unwrap();
        env
    };
    let env_o = mk();
    let o = run_source(
        src,
        &env_o,
        Arc::clone(&schema),
        ExecStrategy::Original,
        vec![],
    )
    .unwrap();
    let env_s = mk();
    let s = run_source(
        src,
        &env_s,
        Arc::clone(&schema),
        ExecStrategy::Sloth(OptFlags::all()),
        vec![],
    )
    .unwrap();
    assert_eq!(o.output, vec!["10->15"]);
    assert_eq!(o.output, s.output);
    let final_o = env_o.seed(|db| db.execute("SELECT v FROM counter WHERE id = 1").unwrap());
    let final_s = env_s.seed(|db| db.execute("SELECT v FROM counter WHERE id = 1").unwrap());
    assert_eq!(final_o.result.rows, final_s.result.rows);
}

/// The Fig. 11 analysis on the real apps: the majority of methods touch
/// persistent data (paper: 72–83 %).
#[test]
fn persistence_majority() {
    for app in [itracker_app(), openmrs_app()] {
        let page = &app.pages[0];
        let program = sloth_lang::parse_program(&page.source).unwrap();
        let analysis = sloth_lang::analyze(&program, None);
        let total = program.functions.len();
        let persistent = program
            .functions
            .iter()
            .filter(|f| analysis.is_persistent(&f.name))
            .count();
        let pct = persistent as f64 / total as f64;
        assert!(
            (0.5..1.0).contains(&pct),
            "{}: {persistent}/{total} persistent",
            app.name
        );
    }
}
