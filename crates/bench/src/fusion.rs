//! The **fusion figure**: what batch-level query fusion and the
//! parameterized plan cache buy on the real page workloads.
//!
//! Three measurements, all deterministic:
//!
//! 1. every itracker and OpenMRS page, Sloth mode, fusion on vs off —
//!    identical round trips (fusion never changes batching), reduced
//!    simulated database time and wire bytes, and byte-identical page
//!    output (the equivalence guarantee, re-checked here on every run);
//! 2. the itracker `list_projects` page — the headline N+1 workload;
//! 3. plan-cache hit rate across repeated loads of the same page against
//!    one database server (the steady-state web-serving pattern).
//!
//! `fusion_figure()` returns plain data; [`FusionFigure::to_json`] renders
//! the machine-readable `BENCH_fusion.json` the harness emits so the
//! perf trajectory is tracked across PRs.

use std::sync::Arc;

use sloth_apps::{itracker_app, openmrs_app, BenchApp};
use sloth_lang::{prepare_with_schema, ExecStrategy, OptFlags, Prepared, RunResult, V};
use sloth_net::{CostModel, PlanCacheStats, SimEnv};
use sloth_orm::Schema;
use sloth_sql::Database;

/// Aggregated driver-path counters for one measurement side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionMeasure {
    /// Database round trips.
    pub round_trips: u64,
    /// Application-issued statements.
    pub queries: u64,
    /// Simulated database time (ns).
    pub db_ns: u64,
    /// Simulated network time (ns).
    pub network_ns: u64,
    /// Simulated app-server time (ns).
    pub app_ns: u64,
    /// Total simulated latency (ns).
    pub total_ns: u64,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Statements answered by fused executions.
    pub fused_queries: u64,
    /// Fused executions performed.
    pub fused_groups: u64,
}

impl FusionMeasure {
    fn add(&mut self, r: &RunResult) {
        self.round_trips += r.net.round_trips;
        self.queries += r.net.queries;
        self.db_ns += r.net.db_ns;
        self.network_ns += r.net.network_ns;
        self.app_ns += r.net.app_ns;
        self.total_ns += r.net.total_ns();
        self.bytes += r.net.bytes;
        self.fused_queries += r.net.fused_queries;
        self.fused_groups += r.net.fused_groups;
    }
}

/// Fusion on/off comparison over all pages of one app.
#[derive(Debug, Clone)]
pub struct AppFusionRow {
    /// Application name.
    pub app: String,
    /// Pages measured.
    pub pages: usize,
    /// Aggregates with fusion enabled.
    pub on: FusionMeasure,
    /// Aggregates with fusion disabled.
    pub off: FusionMeasure,
    /// Whether every page rendered byte-identical output in both modes.
    pub outputs_equal: bool,
}

impl AppFusionRow {
    /// Fractional database-time reduction from fusion (0.25 = 25 % less).
    pub fn db_time_reduction(&self) -> f64 {
        1.0 - self.on.db_ns as f64 / self.off.db_ns.max(1) as f64
    }
}

/// The headline single-page measurement (itracker `list_projects`).
#[derive(Debug, Clone)]
pub struct ListPageRow {
    /// Page name.
    pub page: String,
    /// Measurement with fusion on.
    pub on: FusionMeasure,
    /// Measurement with fusion off.
    pub off: FusionMeasure,
}

impl ListPageRow {
    /// Fractional database-time reduction from fusion.
    pub fn db_time_reduction(&self) -> f64 {
        1.0 - self.on.db_ns as f64 / self.off.db_ns.max(1) as f64
    }
}

/// Plan-cache behaviour across two identical page loads on one server.
#[derive(Debug, Clone, Copy)]
pub struct PlanCacheRow {
    /// Counters accumulated during the first (cold) load.
    pub first_load: PlanCacheStats,
    /// Counter deltas during the second (warm) load.
    pub repeat_load: PlanCacheStats,
}

impl PlanCacheRow {
    /// Hit rate of the warm load.
    pub fn repeat_hit_rate(&self) -> f64 {
        self.repeat_load.hit_rate()
    }
}

/// Everything the fusion figure reports.
#[derive(Debug, Clone)]
pub struct FusionFigure {
    /// Per-app fusion on/off aggregates.
    pub apps: Vec<AppFusionRow>,
    /// The itracker list page.
    pub list_page: ListPageRow,
    /// Plan-cache warm/cold behaviour on the list page.
    pub plan_cache: PlanCacheRow,
}

fn run_with_fusion(
    prepared: &Prepared,
    db: &Database,
    schema: &Arc<Schema>,
    arg: i64,
    fusion: bool,
) -> RunResult {
    let env = SimEnv::from_database(db.clone(), CostModel::default());
    env.set_fusion(fusion);
    prepared
        .run(&env, Arc::clone(schema), vec![V::Int(arg)])
        .expect("benchmark page must run")
}

fn measure_fusion_app(app: &BenchApp) -> AppFusionRow {
    let db = app.fresh_env(CostModel::default()).snapshot_db();
    let mut on = FusionMeasure::default();
    let mut off = FusionMeasure::default();
    let mut outputs_equal = true;
    for page in &app.pages {
        let program = sloth_lang::parse_program(&page.source).expect("page parses");
        let sloth = prepare_with_schema(
            &program,
            ExecStrategy::Sloth(OptFlags::all()),
            Some(&app.schema),
        );
        let r_on = run_with_fusion(&sloth, &db, &app.schema, page.arg, true);
        let r_off = run_with_fusion(&sloth, &db, &app.schema, page.arg, false);
        outputs_equal &= r_on.output == r_off.output;
        on.add(&r_on);
        off.add(&r_off);
    }
    AppFusionRow {
        app: app.name.to_string(),
        pages: app.pages.len(),
        on,
        off,
        outputs_equal,
    }
}

/// The itracker list page (same selector as the Fig. 10 scaling figure).
fn list_page(app: &BenchApp) -> &sloth_apps::Page {
    app.pages
        .iter()
        .find(|p| p.name.contains("list_projects") && !p.name.contains("admin"))
        .expect("list_projects page")
}

/// Runs the full fusion figure.
pub fn fusion_figure() -> FusionFigure {
    let it = itracker_app();
    let om = openmrs_app();
    let apps = vec![measure_fusion_app(&it), measure_fusion_app(&om)];

    // Headline page.
    let page = list_page(&it);
    let program = sloth_lang::parse_program(&page.source).unwrap();
    let sloth = prepare_with_schema(
        &program,
        ExecStrategy::Sloth(OptFlags::all()),
        Some(&it.schema),
    );
    let db = it.fresh_env(CostModel::default()).snapshot_db();
    let mut on = FusionMeasure::default();
    let mut off = FusionMeasure::default();
    on.add(&run_with_fusion(&sloth, &db, &it.schema, page.arg, true));
    off.add(&run_with_fusion(&sloth, &db, &it.schema, page.arg, false));
    let list_row = ListPageRow {
        page: page.name.clone(),
        on,
        off,
    };

    // Plan cache: two loads of the same page against ONE server.
    let env = SimEnv::from_database(db, CostModel::default());
    let zero = env.plan_cache_stats();
    sloth
        .run(&env, Arc::clone(&it.schema), vec![V::Int(page.arg)])
        .expect("first load");
    let after_first = env.plan_cache_stats();
    sloth
        .run(&env, Arc::clone(&it.schema), vec![V::Int(page.arg)])
        .expect("repeat load");
    let after_second = env.plan_cache_stats();
    let plan_cache = PlanCacheRow {
        first_load: PlanCacheStats {
            hits: after_first.hits - zero.hits,
            misses: after_first.misses - zero.misses,
            entries: after_first.entries,
            evictions: after_first.evictions - zero.evictions,
        },
        repeat_load: PlanCacheStats {
            hits: after_second.hits - after_first.hits,
            misses: after_second.misses - after_first.misses,
            entries: after_second.entries,
            evictions: after_second.evictions - after_first.evictions,
        },
    };

    FusionFigure {
        apps,
        list_page: list_row,
        plan_cache,
    }
}

fn measure_json(m: &FusionMeasure) -> String {
    format!(
        "{{\"round_trips\": {}, \"queries\": {}, \"db_ns\": {}, \"network_ns\": {}, \
         \"app_ns\": {}, \"total_ns\": {}, \"bytes\": {}, \"fused_queries\": {}, \
         \"fused_groups\": {}}}",
        m.round_trips,
        m.queries,
        m.db_ns,
        m.network_ns,
        m.app_ns,
        m.total_ns,
        m.bytes,
        m.fused_queries,
        m.fused_groups
    )
}

impl FusionFigure {
    /// Renders the figure as the `BENCH_fusion.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"figure\": \"fusion\",\n  \"apps\": [\n");
        for (i, row) in self.apps.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"pages\": {}, \"outputs_equal\": {}, \
                 \"db_time_reduction_pct\": {:.1}, \"fusion_on\": {}, \"fusion_off\": {}}}{}\n",
                row.app,
                row.pages,
                row.outputs_equal,
                row.db_time_reduction() * 100.0,
                measure_json(&row.on),
                measure_json(&row.off),
                if i + 1 < self.apps.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"itracker_list_page\": {{\"page\": \"{}\", \"db_time_reduction_pct\": {:.1}, \
             \"round_trips_equal\": {}, \"fusion_on\": {}, \"fusion_off\": {}}},\n",
            self.list_page.page,
            self.list_page.db_time_reduction() * 100.0,
            self.list_page.on.round_trips == self.list_page.off.round_trips,
            measure_json(&self.list_page.on),
            measure_json(&self.list_page.off)
        ));
        out.push_str(&format!(
            "  \"plan_cache\": {{\"first_load\": {{\"hits\": {}, \"misses\": {}}}, \
             \"repeat_load\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3}}}}}\n}}\n",
            self.plan_cache.first_load.hits,
            self.plan_cache.first_load.misses,
            self.plan_cache.repeat_load.hits,
            self.plan_cache.repeat_load.misses,
            self.plan_cache.repeat_hit_rate()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gates of the fusion work, enforced on every test run:
    /// equivalence on every page, ≥ 20 % db-time cut on the list page at
    /// unchanged round trips, > 90 % plan-cache hit rate on a warm load.
    #[test]
    fn fusion_figure_meets_targets() {
        let fig = fusion_figure();
        for row in &fig.apps {
            assert!(row.outputs_equal, "{}: fused output differs", row.app);
            assert_eq!(
                row.on.round_trips, row.off.round_trips,
                "{}: fusion must not change batching",
                row.app
            );
            assert!(
                row.on.db_ns < row.off.db_ns,
                "{}: fusion must reduce db time ({} vs {})",
                row.app,
                row.on.db_ns,
                row.off.db_ns
            );
            assert!(row.on.fused_queries > 0, "{}: no fusion happened", row.app);
        }
        let lp = &fig.list_page;
        assert_eq!(lp.on.round_trips, lp.off.round_trips);
        assert!(
            lp.db_time_reduction() >= 0.20,
            "list page db-time reduction {:.1}% < 20%",
            lp.db_time_reduction() * 100.0
        );
        assert!(
            fig.plan_cache.repeat_hit_rate() > 0.90,
            "repeat-load plan-cache hit rate {:.3} ≤ 0.9",
            fig.plan_cache.repeat_hit_rate()
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let fig = fusion_figure();
        let json = fig.to_json();
        assert!(json.contains("\"figure\": \"fusion\""));
        assert!(json.contains("itracker_list_page"));
        assert!(json.contains("plan_cache"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
