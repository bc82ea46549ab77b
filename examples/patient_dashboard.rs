//! The paper's running example (§2, Fig. 1/Fig. 2): the OpenMRS patient
//! dashboard, written as a kernel-language page and run both ways.
//!
//! The controller puts the patient, its encounters and its visits in the
//! model, and the view renders them. Run as written (`Original`), every
//! fetch is a round trip of its own. Run lazily (`Sloth`), nothing ships
//! until the page flushes its output: the associations are keyed by a
//! column of the patient row, so they register as dependants of the
//! patient's query, and all three queries ride **one** round trip.
//!
//! ```sh
//! cargo run --example patient_dashboard
//! ```

use std::sync::Arc;

use sloth_lang::{parse_program, prepare_with_schema, ExecStrategy, OptFlags, V};
use sloth_net::{CostModel, NetStats, SimEnv};
use sloth_orm::{entity, one_to_many, FetchStrategy, Schema};
use sloth_sql::ast::ColumnType::*;

/// The controller and its view, as one page.
const DASHBOARD: &str = r#"
fn main(pid) {
    let model = new { };
    let p = orm_find("patient", pid);
    model.patient = p;
    model.patientEncounters = orm_assoc(p, "encounters");
    model.patientVisits = orm_assoc(p, "visits");
    print(concat("patient: ", model.patient.name));
    render(model.patientEncounters);
    render(model.patientVisits);
}
"#;

fn schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add(entity(
        "patient",
        "patient",
        "patient_id",
        &[("patient_id", Int), ("name", Text)],
        vec![
            one_to_many("encounters", "encounter", "patient_id", FetchStrategy::Lazy),
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
        &[("visit_id", Int), ("patient_id", Int), ("active", Bool)],
        vec![],
    ));
    Arc::new(s)
}

/// Renders the dashboard under both strategies and returns the page with
/// the `Original` and the `Sloth` run's statistics (wired into `cargo
/// test` by `tests/examples_smoke.rs`).
pub fn run() -> (String, NetStats, NetStats) {
    let schema = schema();
    let env = SimEnv::default_env();
    for ddl in schema.ddl() {
        env.seed_sql(&ddl).unwrap();
    }
    env.seed_sql("INSERT INTO patient VALUES (1, 'Ada Lovelace')")
        .unwrap();
    env.seed_sql(
        "INSERT INTO encounter VALUES (10, 1, 'checkup'), (11, 1, 'lab'), (12, 1, 'x-ray')",
    )
    .unwrap();
    env.seed_sql("INSERT INTO visit VALUES (100, 1, TRUE), (101, 1, FALSE)")
        .unwrap();
    let db = env.snapshot_db();

    let program = parse_program(DASHBOARD).unwrap();
    let mut pages = Vec::new();
    let mut stats = Vec::new();
    for (label, strategy) in [
        ("original", ExecStrategy::Original),
        ("sloth", ExecStrategy::Sloth(OptFlags::all())),
    ] {
        let page = prepare_with_schema(&program, strategy, Some(&schema));
        let env = SimEnv::from_database(db.clone(), CostModel::default());
        let r = page
            .run(&env, Arc::clone(&schema), vec![V::Int(1)])
            .unwrap();
        println!(
            "{label:<9} {} round trips for {} queries (max batch {}), {:.2} ms simulated",
            r.net.round_trips,
            r.net.queries,
            r.net.max_batch,
            r.net.total_ns() as f64 / 1e6
        );
        pages.push(r.output.join("\n"));
        stats.push(r.net);
    }
    assert_eq!(pages[0], pages[1], "the same page either way");
    println!("--- page ---\n{}\n---", pages[1]);
    let sloth = stats.pop().unwrap();
    let original = stats.pop().unwrap();
    (pages.pop().unwrap(), original, sloth)
}

// Unused when the file is included by the examples_smoke test.
#[allow(dead_code)]
fn main() {
    run();
}
