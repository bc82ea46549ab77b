//! Why did this page take the round trips it took? Runs one itracker and
//! one OpenMRS page under Sloth and prints, per flush of the query store,
//! how many statements it carried and why it shipped
//! ([`sloth_core::FlushReason`]) — then the same histogram over all 150
//! pages, which is what says where the next round trip can be saved —
//! and last the five TPC-C transactions on a 4-shard fleet, flush by
//! flush.
//!
//! ```sh
//! cargo run --release --example explain
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use sloth_apps::tpcc::{seed_tpcc, tpcc_schema, tpcc_shard_spec, tpcc_transactions};
use sloth_apps::{itracker_app, openmrs_app, BenchApp};
use sloth_core::FlushReason;
use sloth_lang::{
    parse_program, prepare_with_schema, run_source, ExecStrategy, OptFlags, RunResult, V,
};
use sloth_net::{CostModel, ShardedEnv, SimEnv};
use sloth_sql::Database;

/// A run's flushes: `(batch size, reason)` in ship order.
pub type Flushes = Vec<(usize, FlushReason)>;

/// The flushes of one page over a copy of `db` (the app's seeded
/// database).
pub fn flushes(app: &BenchApp, db: &Database, page: &str) -> Flushes {
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
    sized_reasons(run)
}

fn sized_reasons(run: RunResult) -> Flushes {
    let store = run.store.expect("a Sloth run has a query store");
    store
        .batch_sizes
        .into_iter()
        .zip(store.flush_reasons)
        .collect()
}

/// The flushes of each TPC-C transaction, run once in order on a 4-shard
/// fleet of four warehouses.
pub fn tpcc_flushes() -> Vec<(&'static str, Flushes)> {
    let fleet = ShardedEnv::new(CostModel::default(), tpcc_shard_spec(), 4);
    seed_tpcc(&fleet.handle(), 4);
    tpcc_transactions()
        .into_iter()
        .map(|(name, src)| {
            let run = run_source(
                &src,
                &fleet.handle(),
                tpcc_schema(),
                ExecStrategy::Sloth(OptFlags::all()),
                vec![V::Int(7)],
            )
            .expect("transaction runs");
            (name, sized_reasons(run))
        })
        .collect()
}

/// Prints the three tours and returns the two explained pages' flushes
/// and the TPC-C transactions' (wired into `cargo test` by
/// `tests/examples_smoke.rs`).
pub fn run() -> (Vec<Flushes>, Vec<(&'static str, Flushes)>) {
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

    let tpcc = tpcc_flushes();
    println!("TPC-C on a 4-shard fleet:");
    for (name, flushes) in &tpcc {
        println!("  {name}: {} round trips", flushes.len());
        for (size, reason) in flushes {
            println!("    {size:>3} × {reason:?}");
        }
    }
    (explained, tpcc)
}

#[allow(dead_code)]
fn main() {
    run();
}
