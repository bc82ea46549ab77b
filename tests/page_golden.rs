//! Golden page bodies: every other oracle in this repository compares
//! Sloth with `Original`, i.e. one evaluator with itself, so a bug that
//! hits both strategies alike (a frame slot aliased, an operand read from
//! the wrong place) would pass them all. `page_golden.txt` was recorded
//! before the interpreter was compiled to its slot-resolved form; this
//! test pins each page's body and its trip / query counts to it.
//!
//! One line per page: `app/page`, the FNV-1a-64 of the body under
//! `Original`, then `round_trips queries` under `Original` and under
//! `Sloth(OptFlags::all())`. After an intended change of behaviour,
//! re-record with `cargo test --test page_golden -- --ignored`.

use std::fmt::Write as _;
use std::sync::Arc;

use sloth_apps::tpcc::{seed_tpcc, tpcc_schema, tpcc_transactions};
use sloth_apps::{itracker_app, openmrs_app};
use sloth_lang::{parse_program, prepare_with_schema, ExecStrategy, OptFlags, RunResult, V};
use sloth_net::{CostModel, SimEnv};
use sloth_orm::Schema;
use sloth_sql::Database;

const GOLDEN: &str = include_str!("page_golden.txt");

/// Argument every TPC-C transaction runs at.
const TPCC_ARG: i64 = 7;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The body a client would see: every printed line, then the rendered
/// return value if `main` returned one.
fn body(r: &RunResult) -> String {
    let mut s = r.output.join("\n");
    if let Some(ret) = &r.returned {
        s.push_str("\n=> ");
        s.push_str(ret);
    }
    s
}

/// Runs one page under both strategies, each on its own copy of `db`, and
/// appends its golden line. Sloth must print what `Original` prints.
fn golden_line(
    out: &mut String,
    name: &str,
    src: &str,
    arg: i64,
    db: &Database,
    schema: &Arc<Schema>,
) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let run = |strategy| {
        let env = SimEnv::from_database(db.clone(), CostModel::default());
        prepare_with_schema(&program, strategy, Some(schema))
            .run(&env, Arc::clone(schema), vec![V::Int(arg)])
            .unwrap_or_else(|e| panic!("{name} under {strategy:?}: {e}"))
    };
    let o = run(ExecStrategy::Original);
    let s = run(ExecStrategy::Sloth(OptFlags::all()));
    assert_eq!(
        body(&o),
        body(&s),
        "{name}: Sloth body differs from Original"
    );
    writeln!(
        out,
        "{name} {:016x} {} {} {} {}",
        fnv1a64(body(&o).as_bytes()),
        o.net.round_trips,
        o.net.queries,
        s.net.round_trips,
        s.net.queries
    )
    .unwrap();
}

fn current() -> String {
    let mut out = String::new();
    for app in [itracker_app(), openmrs_app()] {
        let db = app.fresh_env(CostModel::default()).snapshot_db();
        for page in &app.pages {
            let name = format!("{}/{}", app.name, page.name);
            golden_line(&mut out, &name, &page.source, page.arg, &db, &app.schema);
        }
    }
    let env = SimEnv::default_env();
    seed_tpcc(&env, 1);
    let db = env.snapshot_db();
    for (name, src) in tpcc_transactions() {
        let name = format!("tpcc/{}", name.replace(' ', "_"));
        golden_line(&mut out, &name, &src, TPCC_ARG, &db, &tpcc_schema());
    }
    out
}

#[test]
fn pages_reproduce_the_recorded_bodies_and_counts() {
    let current = current();
    assert_eq!(GOLDEN.lines().count(), 155, "150 pages + 5 transactions");
    for (got, want) in current.lines().zip(GOLDEN.lines()) {
        assert_eq!(got, want, "page differs from tests/page_golden.txt");
    }
    assert_eq!(current.lines().count(), GOLDEN.lines().count());
}

#[test]
#[ignore = "rewrites tests/page_golden.txt from the current build"]
fn record() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/page_golden.txt");
    std::fs::write(path, current()).expect("write golden file");
}
