//! The **result-cache figure**: what the shared footprint-invalidated
//! result cache buys on *repeated* page loads.
//!
//! Every other figure restarts the environment between measurements; this
//! one deliberately does not. A deployment serves the same hot pages over
//! and over — refreshes, multiple users, navigation loops — and most of
//! those loads re-issue byte-identical read batches. With the cache on,
//! a repeat read whose footprint no shipped write has touched answers
//! locally: an all-hit batch costs **zero** round trips.
//!
//! Measured workloads: itracker's hot read pages (`list_projects`,
//! `list_issues`, `view_issue`, `view_issue_activity`) re-rendered for
//! several rounds on one live environment, with invalidating writes
//! injected between rounds so the figure exercises precision, not just
//! hit counting. Each workload runs the identical round/write schedule
//! twice — cache **off** (the PR 5 driver exactly) and cache **on** —
//! asserting byte-identical page output and final database state, and
//! reporting the round-trip reduction. [`CacheFigure::to_json`] renders
//! `BENCH_cache.json`, gated in CI at **≥ 20 % fewer round trips** over
//! the whole mix.

use std::sync::Arc;

use sloth_lang::{prepare_with_schema, ExecStrategy, OptFlags, Prepared, V};
use sloth_net::{CostModel, ResultCacheStats, SimEnv};

use crate::writebatch;

/// One side's accumulated network accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheSide {
    /// Database round trips.
    pub round_trips: u64,
    /// Statements shipped to the database.
    pub queries: u64,
    /// Simulated database time (ns).
    pub db_ns: u64,
    /// Simulated network time (ns).
    pub network_ns: u64,
    /// Total simulated latency (ns).
    pub total_ns: u64,
    /// Bytes on the wire.
    pub bytes: u64,
}

/// One workload's cache-off vs cache-on comparison.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Workload name.
    pub name: String,
    /// Page loads per side.
    pub rounds: usize,
    /// Cache off (the PR 5 driver exactly).
    pub baseline: CacheSide,
    /// Cache on.
    pub cached: CacheSide,
    /// Cache counters from the cached side.
    pub cache_stats: ResultCacheStats,
    /// Whether both sides rendered byte-identical output.
    pub outputs_equal: bool,
    /// Whether both sides left byte-identical database state.
    pub state_equal: bool,
}

impl CacheRow {
    /// Fractional round-trip reduction (0.25 = 25 % fewer trips).
    pub fn round_trip_reduction(&self) -> f64 {
        1.0 - self.cached.round_trips as f64 / self.baseline.round_trips.max(1) as f64
    }
}

/// Everything the result-cache figure reports.
#[derive(Debug, Clone)]
pub struct CacheFigure {
    /// One row per workload.
    pub rows: Vec<CacheRow>,
}

impl CacheFigure {
    /// Round-trip reduction over the whole repeated-page mix.
    pub fn overall_reduction(&self) -> f64 {
        let baseline: u64 = self.rows.iter().map(|r| r.baseline.round_trips).sum();
        let cached: u64 = self.rows.iter().map(|r| r.cached.round_trips).sum();
        1.0 - cached as f64 / baseline.max(1) as f64
    }
}

/// One repeated-page workload: a page re-rendered `rounds` times (args
/// cycling to model several sessions) with invalidating writes injected
/// after designated rounds.
struct Workload {
    name: &'static str,
    page_needle: &'static str,
    args: &'static [i64],
    rounds: usize,
    /// `(after_round, sql)` — shipped through the metered driver on both
    /// sides, so the write itself is charged identically.
    writes: &'static [(usize, &'static str)],
    /// Tables whose final contents both sides must agree on.
    tables: &'static [&'static str],
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "itracker list_projects refresh",
            page_needle: "list_projects",
            args: &[0],
            rounds: 8,
            writes: &[(
                3,
                "UPDATE project SET name = 'renamed' WHERE project_id = 4",
            )],
            tables: &["project", "version"],
        },
        Workload {
            name: "itracker list_issues two sessions",
            page_needle: "list_issues",
            args: &[1, 2],
            rounds: 8,
            writes: &[(4, "UPDATE issue SET severity = 5 WHERE issue_id = 12")],
            tables: &["project", "issue"],
        },
        Workload {
            name: "itracker view_issue refresh",
            page_needle: "view_issue.jsp",
            args: &[7],
            rounds: 8,
            writes: &[
                (2, "UPDATE issue SET title = 'hot' WHERE issue_id = 7"),
                (5, "UPDATE issue SET severity = 9 WHERE issue_id = 7"),
            ],
            tables: &["issue", "activity", "attachment"],
        },
        Workload {
            name: "itracker view_issue_activity refresh",
            page_needle: "view_issue_activity",
            args: &[3],
            rounds: 8,
            writes: &[(4, "UPDATE activity SET note = 'edited' WHERE issue_id = 3")],
            tables: &["issue", "activity"],
        },
    ]
}

fn side_of(env: &SimEnv) -> CacheSide {
    let s = env.stats();
    CacheSide {
        round_trips: s.round_trips,
        queries: s.queries,
        db_ns: s.db_ns,
        network_ns: s.network_ns,
        total_ns: s.total_ns(),
        bytes: s.bytes,
    }
}

/// Runs the full result-cache figure.
pub fn cache_figure() -> CacheFigure {
    let app = sloth_apps::itracker_app();
    let template = app.fresh_env(CostModel::default());
    let db = template.snapshot_db();
    let rows = workloads()
        .iter()
        .map(|w| {
            let page = app
                .pages
                .iter()
                .find(|p| p.name.contains(w.page_needle))
                .unwrap_or_else(|| panic!("{}: page not found", w.name));
            let program = sloth_lang::parse_program(&page.source).expect("page parses");
            let prepared: Prepared = prepare_with_schema(
                &program,
                ExecStrategy::Sloth(OptFlags::all()),
                Some(&app.schema),
            );

            let mut sides = Vec::new();
            for cache in [false, true] {
                let env = SimEnv::from_database(db.clone(), CostModel::default());
                env.set_result_cache(cache);
                let mut output = Vec::new();
                for round in 0..w.rounds {
                    let arg = w.args[round % w.args.len()];
                    let r = prepared
                        .run(&env, Arc::clone(&app.schema), vec![V::Int(arg)])
                        .expect("cache workload must run");
                    output.extend(r.output);
                    for (after, sql) in w.writes {
                        if *after == round {
                            env.query(sql).expect("injected write must run");
                        }
                    }
                }
                let state = writebatch::db_fingerprint(&env, w.tables);
                sides.push((side_of(&env), env.result_cache_stats(), output, state));
            }
            let (baseline, base_cs, base_out, base_state) = sides.remove(0);
            let (cached, cache_stats, cached_out, cached_state) = sides.remove(0);
            assert_eq!(
                base_cs,
                ResultCacheStats::default(),
                "{}: off side must not touch the cache",
                w.name
            );
            CacheRow {
                name: w.name.to_string(),
                rounds: w.rounds,
                baseline,
                cached,
                cache_stats,
                outputs_equal: base_out == cached_out,
                state_equal: base_state == cached_state,
            }
        })
        .collect();
    CacheFigure { rows }
}

fn side_json(m: &CacheSide) -> String {
    format!(
        "{{\"round_trips\": {}, \"queries\": {}, \"db_ns\": {}, \"network_ns\": {}, \
         \"total_ns\": {}, \"bytes\": {}}}",
        m.round_trips, m.queries, m.db_ns, m.network_ns, m.total_ns, m.bytes
    )
}

impl CacheFigure {
    /// Renders the figure as the `BENCH_cache.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"figure\": \"cache\",\n  \"workloads\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"rounds\": {}, \"outputs_equal\": {}, \
                 \"state_equal\": {}, \"round_trip_reduction_pct\": {:.1}, \
                 \"hits\": {}, \"fills\": {}, \"invalidations\": {}, \
                 \"precise_invalidations\": {}, \"evictions\": {}, \
                 \"cache_off\": {}, \"cache_on\": {}}}{}\n",
                row.name,
                row.rounds,
                row.outputs_equal,
                row.state_equal,
                row.round_trip_reduction() * 100.0,
                row.cache_stats.hits,
                row.cache_stats.fills,
                row.cache_stats.invalidations,
                row.cache_stats.precise_invalidations,
                row.cache_stats.evictions,
                side_json(&row.baseline),
                side_json(&row.cached),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"gate\": {{\"overall_round_trip_reduction_pct\": {:.1}, \"min_required_pct\": 20.0, \
             \"pass\": {}}}\n}}\n",
            self.overall_reduction() * 100.0,
            self.overall_reduction() >= 0.20
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gates of the result-cache work, enforced on every
    /// test run: identical page output and final state per workload,
    /// never more round trips than the cache-off driver, ≥ 20 % fewer
    /// over the whole mix, real hits on every row, and the injected
    /// writes actually invalidating (precisely, where pinned).
    #[test]
    fn cache_figure_meets_targets() {
        let fig = cache_figure();
        assert_eq!(fig.rows.len(), 4, "four hot-page workloads");
        for row in &fig.rows {
            assert!(row.outputs_equal, "{}: output diverged", row.name);
            assert!(row.state_equal, "{}: final DB state diverged", row.name);
            assert!(
                row.cached.round_trips < row.baseline.round_trips,
                "{}: the cache must strictly cut trips ({} vs {})",
                row.name,
                row.cached.round_trips,
                row.baseline.round_trips
            );
            assert!(row.cache_stats.hits > 0, "{}: no hit ever served", row.name);
            assert!(
                row.cache_stats.invalidations > 0,
                "{}: the injected writes never invalidated",
                row.name
            );
        }
        assert!(
            fig.rows
                .iter()
                .any(|r| r.cache_stats.precise_invalidations > 0),
            "pinned writes must invalidate precisely somewhere"
        );
        assert!(
            fig.overall_reduction() >= 0.20,
            "cache round-trip reduction {:.1}% < 20%",
            fig.overall_reduction() * 100.0
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let fig = cache_figure();
        let json = fig.to_json();
        assert!(json.contains("\"figure\": \"cache\""));
        assert!(json.contains("list_projects"));
        assert!(json.contains("view_issue_activity"));
        assert!(json.contains("\"pass\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
