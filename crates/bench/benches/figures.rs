//! Benches mirroring the paper's experiments: one group per table/figure,
//! measuring the real wall-clock of regenerating a representative slice of
//! each (the full tables come from the `harness` binary, which reports
//! simulated time). Plain `harness = false` timing loops.

use sloth_apps::{itracker_app, openmrs_app, tpcc};
use sloth_bench::microbench::bench;
use sloth_bench::throughput::{simulate, ThroughputCfg};
use sloth_bench::{fig10_openmrs, fig11_persistence, fig9_latency_sweep, measure_app, run_page};
use sloth_lang::{prepare_with_schema, ExecStrategy, OptFlags};
use sloth_net::CostModel;

/// Fig. 5/6: one representative page of each app, both modes.
fn bench_page_load() {
    for app in [itracker_app(), openmrs_app()] {
        let page = &app.pages[0];
        let program = sloth_lang::parse_program(&page.source).unwrap();
        let db = app.fresh_env(CostModel::default()).snapshot_db();
        let schema = Some(&*app.schema);
        let orig = prepare_with_schema(&program, ExecStrategy::Original, schema);
        let sloth = prepare_with_schema(&program, ExecStrategy::Sloth(OptFlags::all()), schema);
        bench(&format!("fig5_6_page_load/{}_original", app.name), || {
            run_page(&orig, &db, &app.schema, CostModel::default(), page.arg)
                .net
                .round_trips
        });
        bench(&format!("fig5_6_page_load/{}_sloth", app.name), || {
            run_page(&sloth, &db, &app.schema, CostModel::default(), page.arg)
                .net
                .round_trips
        });
    }
}

/// Fig. 7: one throughput simulation point (plus the Fig. 9 recompute,
/// which derives from the same measurements).
fn bench_throughput() {
    let app = itracker_app();
    let results = measure_app(&app, OptFlags::all(), CostModel::default());
    let cfg = ThroughputCfg {
        duration_s: 5.0,
        ..ThroughputCfg::default()
    };
    bench("fig7_throughput_sim_100_clients", || {
        simulate(&results, true, 100, &cfg)
    });
    bench("fig9_latency_recompute", || {
        fig9_latency_sweep(&results, 10.0)
    });
}

/// Fig. 10: one scaling point.
fn bench_scaling() {
    bench("fig10_encounter_display_200_obs", || {
        fig10_openmrs(&[200]).len()
    });
}

/// Fig. 11: the persistence analysis over a whole app.
fn bench_analysis() {
    let app = itracker_app();
    bench("fig11_persistence_analysis", || fig11_persistence(&app));
}

/// Fig. 12: optimization ablation on one page (SC / TC / hoisting individually).
fn bench_opt_ablation() {
    let app = itracker_app();
    let page = &app.pages[0];
    let program = sloth_lang::parse_program(&page.source).unwrap();
    let db = app.fresh_env(CostModel::default()).snapshot_db();
    for (label, flags) in [
        ("noopt", OptFlags::none()),
        (
            "sc_only",
            OptFlags {
                selective: true,
                ..OptFlags::none()
            },
        ),
        (
            "tc_only",
            OptFlags {
                coalesce: true,
                ..OptFlags::none()
            },
        ),
        (
            "hoist_only",
            OptFlags {
                hoist: true,
                ..OptFlags::none()
            },
        ),
        ("all", OptFlags::all()),
    ] {
        let prepared = prepare_with_schema(&program, ExecStrategy::Sloth(flags), Some(&app.schema));
        bench(&format!("fig12_opt_ablation/{label}"), || {
            run_page(&prepared, &db, &app.schema, CostModel::default(), page.arg)
                .counters
                .thunk_allocs
        });
    }
}

/// Fig. 13: one TPC-C transaction in both modes.
fn bench_overhead() {
    let env = sloth_net::SimEnv::default_env();
    tpcc::seed_tpcc(&env, 1);
    let db = env.snapshot_db();
    let (_, src) = &tpcc::tpcc_transactions()[0];
    let program = sloth_lang::parse_program(src).unwrap();
    let schema = tpcc::tpcc_schema();
    for (label, strat) in [
        ("original", ExecStrategy::Original),
        ("sloth", ExecStrategy::Sloth(OptFlags::all())),
    ] {
        let prepared = prepare_with_schema(&program, strat, Some(&schema));
        bench(&format!("fig13_tpcc_new_order/{label}"), || {
            run_page(&prepared, &db, &schema, CostModel::default(), 7)
                .net
                .queries
        });
    }
}

fn main() {
    bench_page_load();
    bench_throughput();
    bench_scaling();
    bench_analysis();
    bench_opt_ablation();
    bench_overhead();
}
