//! The **chaos figure**: what fault recovery costs on the write-mixed
//! pages, and proof that it costs nothing in correctness.
//!
//! Every write-mix workload ([`crate::writebatch`]) runs twice: once over a
//! clean network and once under the *reference fault plan* — seeded,
//! deterministic drops (10%) and deadline-busting timeouts (5%) per
//! round trip — with a generous retry budget. The faulted side must
//! produce byte-identical program output and final database state; the
//! figure reports the price of that recovery as extra (wasted + retried)
//! round trips and network time.
//!
//! [`ChaosFigure::to_json`] renders `BENCH_chaos.json`, gated in CI at
//! **≥ 99 % page success** under the reference plan and **zero state
//! divergence**.

use std::sync::Arc;

use sloth_net::{CostModel, FaultPlan, FaultStats, RetryPolicy, SimEnv};

use crate::writebatch::{self, WriteMixMeasure};

/// The reference fault plan for a workload: 10 % dropped trips, 5 %
/// timeouts at 8× RTT inflation, independently per round trip.
pub fn reference_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).drops(100).timeouts(50, 8)
}

/// The retry budget the figure runs under. Eight attempts make the
/// reference plan absorbable by a comfortable margin (a page fails only
/// if eight consecutive trips fault, p ≈ 0.15⁸).
pub fn reference_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        ..Default::default()
    }
}

/// One workload's clean vs fault-injected comparison.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Workload name.
    pub name: String,
    /// Transactions / pages attempted per side.
    pub txns: usize,
    /// Pages that completed under the fault plan.
    pub pages_ok: usize,
    /// Clean-network side.
    pub clean: WriteMixMeasure,
    /// Fault-injected side (includes wasted attempts and backoff).
    pub faulted: WriteMixMeasure,
    /// Fault counters accumulated by the faulted side.
    pub faults: FaultStats,
    /// Whether both sides printed byte-identical output.
    pub outputs_equal: bool,
    /// Whether both sides left byte-identical database state.
    pub state_equal: bool,
}

impl ChaosRow {
    /// Faults the retry layer absorbed on this workload.
    pub fn absorbed(&self) -> u64 {
        self.faults.injected_drops + self.faults.injected_timeouts + self.faults.outage_errors
    }

    /// Fractional round-trip overhead of recovery (0.15 = 15 % extra
    /// trips over the clean run).
    pub fn trip_overhead(&self) -> f64 {
        self.faulted.round_trips as f64 / self.clean.round_trips.max(1) as f64 - 1.0
    }

    /// Fractional network-time overhead of recovery (wasted trips,
    /// inflated RTTs and backoff).
    pub fn network_overhead(&self) -> f64 {
        self.faulted.network_ns as f64 / self.clean.network_ns.max(1) as f64 - 1.0
    }
}

/// Everything the chaos figure reports.
#[derive(Debug, Clone)]
pub struct ChaosFigure {
    /// One row per workload.
    pub rows: Vec<ChaosRow>,
}

impl ChaosFigure {
    /// Page success rate under the reference plan, over all workloads.
    pub fn success_rate(&self) -> f64 {
        let attempted: usize = self.rows.iter().map(|r| r.txns).sum();
        let ok: usize = self.rows.iter().map(|r| r.pages_ok).sum();
        ok as f64 / attempted.max(1) as f64
    }

    /// Workloads whose final database state diverged from the clean run.
    pub fn state_divergences(&self) -> usize {
        self.rows.iter().filter(|r| !r.state_equal).count()
    }

    /// The CI gate: ≥ 99 % page success and zero state divergence.
    pub fn pass(&self) -> bool {
        self.success_rate() >= 0.99 && self.state_divergences() == 0
    }
}

/// Runs the full chaos figure over the shared write-mix workloads.
pub fn chaos_figure() -> ChaosFigure {
    let rows = writebatch::write_mix_workloads()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut sides = Vec::new();
            for faulted in [false, true] {
                let env = SimEnv::from_database(w.seed_db.clone(), CostModel::default());
                if faulted {
                    env.set_retry_policy(reference_policy());
                    env.set_faults(Some(reference_plan(0xC4A0_5000 + i as u64)));
                }
                let mut measure = WriteMixMeasure::default();
                let mut output = Vec::new();
                let mut pages_ok = 0usize;
                for t in 0..w.txns {
                    // An Err here is an exhausted page: it stays out of
                    // `pages_ok` and counts against the success gate.
                    if let Ok(r) = w.prepared.run(
                        &env,
                        Arc::clone(&w.schema),
                        vec![sloth_lang::V::Int(t as i64 + 1)],
                    ) {
                        measure.add(&r);
                        output.extend(r.output);
                        pages_ok += 1;
                    }
                }
                let faults = env.fault_stats();
                // Fingerprinting peeks at the store directly, so an
                // open fault window cannot perturb verification.
                let state = writebatch::db_fingerprint(&env, &w.tables);
                sides.push((measure, output, pages_ok, faults, state));
            }
            let (clean, clean_out, _, _, clean_state) = sides.remove(0);
            let (faulted, faulted_out, pages_ok, faults, faulted_state) = sides.remove(0);
            ChaosRow {
                name: w.name.clone(),
                txns: w.txns,
                pages_ok,
                clean,
                faulted,
                faults,
                outputs_equal: clean_out == faulted_out,
                state_equal: clean_state == faulted_state,
            }
        })
        .collect();
    ChaosFigure { rows }
}

fn measure_json(m: &WriteMixMeasure) -> String {
    format!(
        "{{\"round_trips\": {}, \"queries\": {}, \"db_ns\": {}, \"network_ns\": {}, \
         \"total_ns\": {}}}",
        m.round_trips, m.queries, m.db_ns, m.network_ns, m.total_ns
    )
}

impl ChaosFigure {
    /// Renders the figure as the `BENCH_chaos.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"figure\": \"chaos\",\n  \"workloads\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"txns\": {}, \"pages_ok\": {}, \
                 \"outputs_equal\": {}, \"state_equal\": {}, \"faults_absorbed\": {}, \
                 \"retries\": {}, \"recovered_batches\": {}, \"journal_hits\": {}, \
                 \"deduped_writes\": {}, \"trip_overhead_pct\": {:.1}, \
                 \"network_overhead_pct\": {:.1}, \"clean\": {}, \"faulted\": {}}}{}\n",
                row.name,
                row.txns,
                row.pages_ok,
                row.outputs_equal,
                row.state_equal,
                row.absorbed(),
                row.faults.retries,
                row.faults.recovered_batches,
                row.faults.journal_hits,
                row.faults.deduped_writes,
                row.trip_overhead() * 100.0,
                row.network_overhead() * 100.0,
                measure_json(&row.clean),
                measure_json(&row.faulted),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"gate\": {{\"page_success_rate_pct\": {:.2}, \"min_required_pct\": 99.0, \
             \"state_divergences\": {}, \"pass\": {}}}\n}}\n",
            self.success_rate() * 100.0,
            self.state_divergences(),
            self.pass()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gates of the robustness work, enforced on every
    /// test run: under the reference fault plan every page completes,
    /// output and final state are byte-identical to the clean run, the
    /// retry layer demonstrably absorbs faults, and the journal
    /// demonstrably deduplicates ambiguous writes somewhere in the mix.
    #[test]
    fn chaos_figure_meets_targets() {
        let fig = chaos_figure();
        assert!(fig.rows.len() >= 5, "TPC-C trio + 2 itracker update pages");
        for row in &fig.rows {
            assert!(row.outputs_equal, "{}: output diverged", row.name);
            assert!(row.state_equal, "{}: final DB state diverged", row.name);
            assert!(
                row.absorbed() > 0,
                "{}: the reference plan injected nothing",
                row.name
            );
            assert_eq!(
                row.faults.exhausted_batches, 0,
                "{}: the reference plan must be absorbable",
                row.name
            );
            assert_eq!(
                row.clean.queries, row.faulted.queries,
                "{}: every statement executes exactly once either way",
                row.name
            );
            assert!(
                row.faulted.round_trips > row.clean.round_trips,
                "{}: recovery has a visible trip cost",
                row.name
            );
        }
        assert!(
            fig.rows.iter().any(|r| r.faults.deduped_writes > 0),
            "no ambiguous write was ever journal-deduplicated"
        );
        assert!(
            fig.success_rate() >= 0.99,
            "page success {:.2}% < 99%",
            fig.success_rate() * 100.0
        );
        assert_eq!(fig.state_divergences(), 0);
        assert!(fig.pass());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let fig = chaos_figure();
        let json = fig.to_json();
        assert!(json.contains("\"figure\": \"chaos\""));
        assert!(json.contains("tpcc payment"));
        assert!(json.contains("\"pass\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
