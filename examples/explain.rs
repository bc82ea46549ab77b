//! Why did this page take the round trips it took? Runs one itracker and
//! one OpenMRS page under Sloth and prints, per flush of the query store,
//! how many statements it carried and why it shipped
//! ([`sloth_core::FlushReason`]) — then the same histogram over all 150
//! pages, which is what says where the next round trip can be saved.
//!
//! ```sh
//! cargo run --release --example explain
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use sloth_apps::{itracker_app, openmrs_app, BenchApp};
use sloth_core::FlushReason;
use sloth_lang::{parse_program, prepare_with_schema, ExecStrategy, OptFlags, V};
use sloth_net::{CostModel, SimEnv};
use sloth_sql::Database;

/// The flushes of one page over a copy of `db` (the app's seeded
/// database): `(batch size, reason)` in ship order.
pub fn flushes(app: &BenchApp, db: &Database, page: &str) -> Vec<(usize, FlushReason)> {
    let page = app
        .pages
        .iter()
        .find(|p| p.name == page)
        .unwrap_or_else(|| panic!("no page {page} in {}", app.name));
    let program = parse_program(&page.source).expect("page parses");
    let prepared = prepare_with_schema(
        &program,
        ExecStrategy::Sloth(OptFlags::all()),
        Some(&app.schema),
    );
    let env = SimEnv::from_database(db.clone(), CostModel::default());
    let run = prepared
        .run(&env, Arc::clone(&app.schema), vec![V::Int(page.arg)])
        .expect("page runs");
    let store = run.store.expect("a Sloth run has a query store");
    store
        .batch_sizes
        .into_iter()
        .zip(store.flush_reasons)
        .collect()
}

/// Prints both tours and returns the two explained pages' flushes
/// (wired into `cargo test` by `tests/examples_smoke.rs`).
pub fn run() -> Vec<Vec<(usize, FlushReason)>> {
    let apps: Vec<(BenchApp, Database)> = [itracker_app(), openmrs_app()]
        .into_iter()
        .map(|app| {
            let db = app.fresh_env(CostModel::default()).snapshot_db();
            (app, db)
        })
        .collect();
    let mut explained = Vec::new();
    for ((app, db), page) in apps.iter().zip(["error.jsp", "patientDashboardForm.jsp"]) {
        let flushes = flushes(app, db, page);
        println!("{}/{page}: {} round trips", app.name, flushes.len());
        for (size, reason) in &flushes {
            println!("  {size:>3} × {reason:?}");
        }
        explained.push(flushes);
    }

    let mut histogram: BTreeMap<(FlushReason, bool), usize> = BTreeMap::new();
    let mut pages = 0usize;
    for (app, db) in &apps {
        for page in &app.pages {
            pages += 1;
            for (size, reason) in flushes(app, db, &page.name) {
                *histogram.entry((reason, size == 1)).or_default() += 1;
            }
        }
    }
    println!("flushes per page over {pages} pages, by reason and size:");
    for ((reason, single), n) in &histogram {
        let size = if *single { "1" } else { ">1" };
        println!(
            "  {:<16} size {size:<2} {:.2}",
            format!("{reason:?}"),
            *n as f64 / pages as f64
        );
    }
    explained
}

#[allow(dead_code)]
fn main() {
    run();
}
