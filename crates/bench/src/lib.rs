//! # sloth-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§6). Each
//! returns plain data; the `harness` binary formats it as the rows/series
//! the paper reports. All measurements are deterministic (seeded data,
//! virtual clock).

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod deferral;
pub mod fusion;
pub mod microbench;
pub mod serve;
pub mod shard;
pub mod snapshot;
pub mod throughput;
pub mod writebatch;

use std::sync::Arc;

use sloth_apps::{itracker_app, openmrs_app, tpcc, tpcw, BenchApp};
use sloth_lang::{prepare_with_schema, ExecStrategy, OptFlags, Prepared, RunResult, V};
use sloth_net::{CostModel, SimEnv};
use sloth_sql::Database;

/// One measured page load.
#[derive(Debug, Clone)]
pub struct Measure {
    /// Total simulated load time (ns).
    pub time_ns: u64,
    /// Database round trips.
    pub round_trips: u64,
    /// Queries executed.
    pub queries: u64,
    /// Largest batch in one round trip.
    pub max_batch: u64,
    /// Application-server time (ns).
    pub app_ns: u64,
    /// Database time (ns).
    pub db_ns: u64,
    /// Network time (ns).
    pub network_ns: u64,
    /// Bytes on the wire.
    pub bytes: u64,
}

impl Measure {
    fn of(r: &RunResult) -> Measure {
        Measure {
            time_ns: r.net.total_ns(),
            round_trips: r.net.round_trips,
            queries: r.net.queries,
            max_batch: r.store.as_ref().map(|s| s.max_batch() as u64).unwrap_or(1),
            app_ns: r.net.app_ns,
            db_ns: r.net.db_ns,
            network_ns: r.net.network_ns,
            bytes: r.net.bytes,
        }
    }

    /// Recomputes total load time under a different round-trip latency
    /// (batching behaviour is latency-independent, so trips/bytes carry
    /// over — this is how the Fig. 9 sweep avoids re-running everything).
    pub fn time_at_rtt(&self, rtt_ns: u64, per_byte_ns: u64) -> u64 {
        self.app_ns + self.db_ns + self.round_trips * rtt_ns + self.bytes * per_byte_ns
    }
}

/// Original-vs-Sloth measurement of one page.
#[derive(Debug, Clone)]
pub struct PageResult {
    /// Benchmark name.
    pub name: String,
    /// Original application measurement.
    pub orig: Measure,
    /// Sloth-compiled application measurement.
    pub sloth: Measure,
}

impl PageResult {
    /// Load-time speedup (paper Figs. 5(a)/6(a)).
    pub fn speedup(&self) -> f64 {
        self.orig.time_ns as f64 / self.sloth.time_ns.max(1) as f64
    }

    /// Round-trip ratio (Figs. 5(b)/6(b)).
    pub fn rtrip_ratio(&self) -> f64 {
        self.orig.round_trips as f64 / self.sloth.round_trips.max(1) as f64
    }

    /// Issued-query ratio (Figs. 5(c)/6(c)); < 1 means Sloth issued more.
    pub fn query_ratio(&self) -> f64 {
        self.orig.queries as f64 / self.sloth.queries.max(1) as f64
    }
}

/// Runs one prepared page against a fresh environment cloned from `db`.
pub fn run_page(
    prepared: &Prepared,
    db: &Database,
    schema: &Arc<sloth_orm::Schema>,
    cost: CostModel,
    arg: i64,
) -> RunResult {
    let env = SimEnv::from_database(db.clone(), cost);
    prepared
        .run(&env, Arc::clone(schema), vec![V::Int(arg)])
        .expect("benchmark page must run")
}

/// Measures every page of `app` in both modes (paper §6.1 methodology:
/// servers restarted between measurements — here: fresh env per run).
pub fn measure_app(app: &BenchApp, flags: OptFlags, cost: CostModel) -> Vec<PageResult> {
    let template = app.fresh_env(cost);
    let db = template.snapshot_db();
    app.pages
        .iter()
        .map(|page| {
            let program = sloth_lang::parse_program(&page.source).expect("page parses");
            let orig = prepare_with_schema(&program, ExecStrategy::Original, Some(&app.schema));
            let sloth =
                prepare_with_schema(&program, ExecStrategy::Sloth(flags), Some(&app.schema));
            let o = run_page(&orig, &db, &app.schema, cost, page.arg);
            let s = run_page(&sloth, &db, &app.schema, cost, page.arg);
            debug_assert_eq!(o.output, s.output, "page {} output mismatch", page.name);
            PageResult {
                name: page.name.clone(),
                orig: Measure::of(&o),
                sloth: Measure::of(&s),
            }
        })
        .collect()
}

/// Figs. 5: itracker page results at 0.5 ms RTT, all optimizations on.
pub fn fig5_itracker() -> Vec<PageResult> {
    measure_app(&itracker_app(), OptFlags::all(), CostModel::default())
}

/// Fig. 6: OpenMRS page results at 0.5 ms RTT, all optimizations on.
pub fn fig6_openmrs() -> Vec<PageResult> {
    measure_app(&openmrs_app(), OptFlags::all(), CostModel::default())
}

/// Fig. 8: aggregate time breakdown (network / app / DB), ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Aggregate network ms.
    pub network_ms: f64,
    /// Aggregate app-server ms.
    pub app_ms: f64,
    /// Aggregate DB ms.
    pub db_ms: f64,
}

impl Breakdown {
    /// Sums one side (original or Sloth) of page results.
    pub fn aggregate(results: &[PageResult], sloth: bool) -> Breakdown {
        let mut b = Breakdown::default();
        for r in results {
            let m = if sloth { &r.sloth } else { &r.orig };
            b.network_ms += m.network_ns as f64 / 1e6;
            b.app_ms += m.app_ns as f64 / 1e6;
            b.db_ms += m.db_ns as f64 / 1e6;
        }
        b
    }

    /// Total of the three buckets.
    pub fn total_ms(&self) -> f64 {
        self.network_ms + self.app_ms + self.db_ms
    }
}

/// Fig. 9: sorted speedups recomputed at a round-trip latency (ms).
pub fn fig9_latency_sweep(results: &[PageResult], rtt_ms: f64) -> Vec<f64> {
    let cost = CostModel::default();
    let rtt_ns = (rtt_ms * 1e6) as u64;
    let mut speedups: Vec<f64> = results
        .iter()
        .map(|r| {
            let o = r.orig.time_at_rtt(rtt_ns, cost.per_byte_ns);
            let s = r.sloth.time_at_rtt(rtt_ns, cost.per_byte_ns);
            o as f64 / s.max(1) as f64
        })
        .collect();
    speedups.sort_by(|a, b| a.total_cmp(b));
    speedups
}

/// One point of the Fig. 10 database-scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Scale parameter (projects / observations).
    pub scale: usize,
    /// Original load time (ms).
    pub orig_ms: f64,
    /// Sloth load time (ms).
    pub sloth_ms: f64,
    /// Largest Sloth batch.
    pub max_batch: u64,
    /// Sloth round trips.
    pub sloth_trips: u64,
}

/// Fig. 10(a): itracker `list_projects.jsp` vs. number of projects.
pub fn fig10_itracker(scales: &[usize]) -> Vec<ScalePoint> {
    let app = itracker_app();
    let page = app
        .pages
        .iter()
        .find(|p| p.name.contains("list_projects") && !p.name.contains("admin"))
        .expect("list_projects page");
    let program = sloth_lang::parse_program(&page.source).unwrap();
    let orig = prepare_with_schema(&program, ExecStrategy::Original, Some(&app.schema));
    let sloth = prepare_with_schema(
        &program,
        ExecStrategy::Sloth(OptFlags::all()),
        Some(&app.schema),
    );
    scales
        .iter()
        .map(|&n| {
            let env = SimEnv::default_env();
            for ddl in app.schema.ddl() {
                env.seed_sql(&ddl).unwrap();
            }
            sloth_apps::itracker::seed_itracker(&env, n);
            let db = env.snapshot_db();
            let o = run_page(&orig, &db, &app.schema, CostModel::default(), page.arg);
            let s = run_page(&sloth, &db, &app.schema, CostModel::default(), page.arg);
            ScalePoint {
                scale: n,
                orig_ms: o.net.total_ns() as f64 / 1e6,
                sloth_ms: s.net.total_ns() as f64 / 1e6,
                max_batch: s.store.map(|st| st.max_batch() as u64).unwrap_or(0),
                sloth_trips: s.net.round_trips,
            }
        })
        .collect()
}

/// Fig. 10(b): OpenMRS `encounterDisplay.jsp` vs. observations per
/// encounter.
pub fn fig10_openmrs(scales: &[usize]) -> Vec<ScalePoint> {
    let app = openmrs_app();
    let page = app
        .pages
        .iter()
        .find(|p| p.name.contains("encounterDisplay"))
        .expect("encounterDisplay page");
    let program = sloth_lang::parse_program(&page.source).unwrap();
    let orig = prepare_with_schema(&program, ExecStrategy::Original, Some(&app.schema));
    let sloth = prepare_with_schema(
        &program,
        ExecStrategy::Sloth(OptFlags::all()),
        Some(&app.schema),
    );
    scales
        .iter()
        .map(|&n| {
            let env = SimEnv::default_env();
            for ddl in app.schema.ddl() {
                env.seed_sql(&ddl).unwrap();
            }
            sloth_apps::openmrs::seed_openmrs(&env, n);
            let db = env.snapshot_db();
            let o = run_page(&orig, &db, &app.schema, CostModel::default(), page.arg);
            let s = run_page(&sloth, &db, &app.schema, CostModel::default(), page.arg);
            ScalePoint {
                scale: n,
                orig_ms: o.net.total_ns() as f64 / 1e6,
                sloth_ms: s.net.total_ns() as f64 / 1e6,
                max_batch: s.store.map(|st| st.max_batch() as u64).unwrap_or(0),
                sloth_trips: s.net.round_trips,
            }
        })
        .collect()
}

/// Fig. 11: `(persistent, non_persistent)` method counts for an app.
pub fn fig11_persistence(app: &BenchApp) -> (usize, usize) {
    let mut persistent = 0usize;
    let mut non_persistent = 0usize;
    for page in &app.pages {
        let program = sloth_lang::parse_program(&page.source).unwrap();
        let analysis = sloth_lang::analyze(&program, None);
        for f in &program.functions {
            if analysis.is_persistent(&f.name) {
                persistent += 1;
            } else {
                non_persistent += 1;
            }
        }
    }
    (persistent, non_persistent)
}

/// Fig. 12: total Sloth load time (seconds) across all pages of `app`
/// under one optimization configuration.
pub fn fig12_total_time(app: &BenchApp, flags: OptFlags) -> f64 {
    let template = app.fresh_env(CostModel::default());
    let db = template.snapshot_db();
    let mut total_ns = 0u64;
    for page in &app.pages {
        let program = sloth_lang::parse_program(&page.source).unwrap();
        let sloth = prepare_with_schema(&program, ExecStrategy::Sloth(flags), Some(&app.schema));
        let r = run_page(&sloth, &db, &app.schema, CostModel::default(), page.arg);
        total_ns += r.net.total_ns();
    }
    total_ns as f64 / 1e9
}

/// The cumulative optimization configurations of Fig. 12.
pub fn fig12_configs() -> Vec<(&'static str, OptFlags)> {
    vec![
        ("noopt", OptFlags::none()),
        (
            "SC",
            OptFlags {
                selective: true,
                ..OptFlags::none()
            },
        ),
        (
            "SC+TC",
            OptFlags {
                selective: true,
                coalesce: true,
                ..OptFlags::none()
            },
        ),
        ("SC+TC+hoist", OptFlags::all()),
    ]
}

/// Fig. 13 row: one transaction type's original/Sloth round trips, times
/// and bookkeeping overhead.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Transaction name (paper row).
    pub name: &'static str,
    /// Original total time (s) across the run.
    pub orig_s: f64,
    /// Sloth total time (s).
    pub sloth_s: f64,
    /// Original round trips across the run.
    pub orig_trips: u64,
    /// Sloth round trips.
    pub sloth_trips: u64,
    /// Original application-server time (ns).
    pub orig_app_ns: u64,
    /// Sloth application-server time (ns).
    pub sloth_app_ns: u64,
}

impl OverheadRow {
    /// Percent overhead of lazy evaluation's bookkeeping: application
    /// time, which the round trips Sloth saves do not offset.
    pub fn overhead_pct(&self) -> f64 {
        (self.sloth_app_ns as f64 - self.orig_app_ns as f64) / self.orig_app_ns as f64 * 100.0
    }
}

/// Fig. 13: TPC-C and TPC-W lazy-evaluation overhead (`txns` transactions
/// per type; paper: 10 clients × 10k).
pub fn fig13_overhead(txns: usize) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    {
        let env = SimEnv::default_env();
        tpcc::seed_tpcc(&env, 1);
        let db = env.snapshot_db();
        for (name, src) in tpcc::tpcc_transactions() {
            rows.push(overhead_row(name, &src, &db, tpcc::tpcc_schema(), txns));
        }
    }
    {
        let env = SimEnv::default_env();
        tpcw::seed_tpcw(&env, 100);
        let db = env.snapshot_db();
        for (name, src) in tpcw::tpcw_mixes() {
            rows.push(overhead_row(name, &src, &db, tpcw::tpcw_schema(), txns));
        }
    }
    rows
}

fn overhead_row(
    name: &'static str,
    src: &str,
    db: &Database,
    schema: Arc<sloth_orm::Schema>,
    txns: usize,
) -> OverheadRow {
    let program = sloth_lang::parse_program(src).unwrap();
    let orig = prepare_with_schema(&program, ExecStrategy::Original, Some(&schema));
    let sloth = prepare_with_schema(
        &program,
        ExecStrategy::Sloth(OptFlags::all()),
        Some(&schema),
    );
    // Each mode runs against its own copy (the measured quantity is
    // single-stream execution time, not contention). Write deferral is
    // pinned off on the Sloth side: its round-trip win is measured by the
    // `deferral` figure. Reads that wait for the output still batch, so
    // the trips no longer match: the bookkeeping cost is application
    // time, reported beside them.
    let env_o = SimEnv::from_database(db.clone(), CostModel::default());
    let env_s = SimEnv::from_database(db.clone(), CostModel::default());
    env_s.set_write_deferral(false);
    for t in 0..txns {
        orig.run(&env_o, Arc::clone(&schema), vec![V::Int(t as i64 + 1)])
            .expect("orig txn");
        sloth
            .run(&env_s, Arc::clone(&schema), vec![V::Int(t as i64 + 1)])
            .expect("sloth txn");
    }
    let (o, s) = (env_o.stats(), env_s.stats());
    OverheadRow {
        name,
        orig_s: o.total_ns() as f64 / 1e9,
        sloth_s: s.total_ns() as f64 / 1e9,
        orig_trips: o.round_trips,
        sloth_trips: s.round_trips,
        orig_app_ns: o.app_ns,
        sloth_app_ns: s.app_ns,
    }
}

/// Median of a slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itracker_headline_shape() {
        let results = fig5_itracker();
        assert_eq!(results.len(), 38);
        let speedups: Vec<f64> = results.iter().map(PageResult::speedup).collect();
        let med = median(&speedups);
        let max = speedups.iter().cloned().fold(0.0, f64::max);
        // Paper: median 1.27x, max 2.08x — check the shape.
        assert!(med > 1.1, "median speedup {med}");
        assert!(max > 1.5, "max speedup {max}");
        for r in &results {
            assert!(
                r.sloth.round_trips < r.orig.round_trips,
                "{}: sloth must reduce round trips ({} vs {})",
                r.name,
                r.sloth.round_trips,
                r.orig.round_trips
            );
        }
    }

    #[test]
    fn overhead_rows_positive() {
        let rows = fig13_overhead(5);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                r.sloth_trips <= r.orig_trips,
                "{}: Sloth never costs a trip ({} vs {})",
                r.name,
                r.sloth_trips,
                r.orig_trips
            );
            assert!(
                r.sloth_app_ns > r.orig_app_ns,
                "{} should show lazy bookkeeping, got {:.2}%",
                r.name,
                r.overhead_pct()
            );
        }
        // Order status's lines ride the flush its `nrows(o) > 0` forces:
        // one trip a transaction.
        let status = rows.iter().find(|r| r.name == "Order status").unwrap();
        assert_eq!((status.orig_trips, status.sloth_trips), (15, 5));
        // Delivery's arms register where their `if`s stand, bound from each
        // order's row. With write deferral pinned off here, each write
        // still drains the batch it joins: `BEGIN`, two writes an arm and
        // `COMMIT`, eight trips a transaction — and no condition's.
        let delivery = rows.iter().find(|r| r.name == "Delivery").unwrap();
        assert_eq!((delivery.orig_trips, delivery.sloth_trips), (70, 40));
    }

    #[test]
    fn fig12_monotone_improvement() {
        let app = itracker_app();
        let configs = fig12_configs();
        let noopt = fig12_total_time(&app, configs[0].1);
        let all = fig12_total_time(&app, configs[3].1);
        assert!(
            noopt > all * 1.3,
            "optimizations should win big: noopt {noopt:.2}s vs all {all:.2}s"
        );
    }

    #[test]
    fn fig10_sloth_scales_better() {
        let pts = fig10_openmrs(&[50, 200]);
        assert!(pts[0].sloth_ms < pts[0].orig_ms);
        let orig_growth = pts[1].orig_ms / pts[0].orig_ms;
        let sloth_growth = pts[1].sloth_ms / pts[0].sloth_ms;
        assert!(
            sloth_growth < orig_growth,
            "sloth grows slower: {sloth_growth:.2} vs {orig_growth:.2}"
        );
        // The observations' 1+N reads are one each-row read, whatever N:
        // the batch does not grow with them, and neither do the trips.
        assert!(pts[1].max_batch >= pts[0].max_batch);
        assert_eq!(pts[1].sloth_trips, pts[0].sloth_trips);
    }
}
