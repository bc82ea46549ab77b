//! The **shard figure**: what horizontal partitioning buys on TPC-C, and
//! what fused-probe splitting buys on the batched lookup pattern.
//!
//! Two deterministic measurements across shard counts 1 / 2 / 4 / 8,
//! fusion on and off:
//!
//! 1. **TPC-C by warehouse** — all five transaction types, `txns_per_type`
//!    executions each, Sloth mode, against a fleet partitioned by
//!    [`sloth_apps::tpcc::tpcc_shard_spec`]. Checked on every run: output
//!    identical to the single server, and round-trip waves **no worse**
//!    (sharding routes inside a round trip; it never adds one).
//! 2. **Fused-probe split** — one big batch of same-template stock
//!    lookups: with fusion on, the router splits the fused `IN` probe into
//!    per-shard sub-probes; database time shrinks with the shard count.
//!
//! `shard_figure()` returns plain data; [`ShardFigure::to_json`] renders
//! the machine-readable `BENCH_shard.json` the harness emits so the
//! scaling trajectory is tracked across PRs.

use std::sync::Arc;

use sloth_apps::tpcc::{seed_tpcc, tpcc_schema, tpcc_shard_spec, tpcc_transactions};
use sloth_lang::{prepare_with_schema, ExecStrategy, OptFlags, V};
use sloth_net::{CostModel, ShardedEnv, SimEnv};

/// Configuration of the shard experiments.
#[derive(Debug, Clone)]
pub struct ShardCfg {
    /// TPC-C scale (warehouses). Also sizes the probe-split batch.
    pub warehouses: usize,
    /// Executions per TPC-C transaction type.
    pub txns_per_type: usize,
    /// Fleet sizes to sweep.
    pub shard_counts: Vec<usize>,
    /// Target wall-clock budget (ms) for the **timed** re-run of each
    /// configuration: modeled db time turns into real sleeps
    /// ([`ShardedEnv::set_db_realtime_ppm`]) scaled so the single-server
    /// reference's db time spans about this long. Makes the shard figure
    /// a wall-clock measurement — the fleet must genuinely overlap its
    /// waves to beat one shard. 0 skips the timed pass.
    pub wall_target_ms: u64,
}

impl Default for ShardCfg {
    fn default() -> Self {
        ShardCfg {
            warehouses: 4,
            txns_per_type: 100,
            shard_counts: vec![1, 2, 4, 8],
            wall_target_ms: 800,
        }
    }
}

/// One measured configuration (shard count × fusion).
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// Fleet size.
    pub shards: usize,
    /// Whether batch fusion was enabled.
    pub fusion: bool,
    /// Round trips (must equal the single-server count).
    pub round_trips: u64,
    /// Simulated database time (ns) — per batch, the slowest shard.
    pub db_ns: u64,
    /// Simulated network time (ns).
    pub network_ns: u64,
    /// Total simulated time (ns).
    pub total_ns: u64,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Reads routed to exactly one shard.
    pub point_reads: u64,
    /// Reads scattered to every shard.
    pub scatter_reads: u64,
    /// Per-shard sub-probes from split fused probes.
    pub fused_subprobes: u64,
    /// Wall-clock milliseconds of the timed re-run (modeled db time as
    /// real sleeps). 0 when the timed pass was skipped.
    pub wall_ms: f64,
    /// Worker busy time over wall time inside parallel waves of the
    /// timed run (> 1 means waves genuinely overlapped; 0 when no
    /// multi-shard wave ran).
    pub wave_overlap: f64,
    /// Whether output matched the single-server reference, byte for byte.
    pub outputs_equal: bool,
}

/// The full shard figure.
#[derive(Debug, Clone)]
pub struct ShardFigure {
    /// Configuration used.
    pub cfg: ShardCfg,
    /// TPC-C sweep points (one per shard count × fusion mode).
    pub tpcc: Vec<ShardPoint>,
    /// Probe-split sweep points.
    pub probe_split: Vec<ShardPoint>,
}

impl ShardFigure {
    /// The TPC-C point for a shard count with fusion on.
    pub fn tpcc_at(&self, shards: usize, fusion: bool) -> &ShardPoint {
        self.tpcc
            .iter()
            .find(|p| p.shards == shards && p.fusion == fusion)
            .expect("measured configuration")
    }

    /// Fractional db-time reduction of `shards` shards vs one, fusion on.
    pub fn tpcc_db_reduction(&self, shards: usize) -> f64 {
        let one = self.tpcc_at(1, true).db_ns;
        let n = self.tpcc_at(shards, true).db_ns;
        1.0 - n as f64 / one.max(1) as f64
    }

    /// Fractional **wall-clock** reduction of `shards` shards vs one on
    /// the timed TPC-C run (fusion on). 0 when the timed pass was off.
    pub fn tpcc_wall_reduction(&self, shards: usize) -> f64 {
        let one = self.tpcc_at(1, true).wall_ms;
        let n = self.tpcc_at(shards, true).wall_ms;
        if one <= 0.0 {
            0.0
        } else {
            1.0 - n / one
        }
    }

    /// The largest measured fleet size.
    pub fn max_shards(&self) -> usize {
        self.cfg.shard_counts.iter().copied().max().unwrap_or(1)
    }
}

/// Runs the TPC-C transaction mix against one deployment handle and
/// returns the concatenated outputs.
fn run_tpcc_mix(env: &SimEnv, txns_per_type: usize) -> Vec<Vec<String>> {
    let mut outputs = Vec::new();
    for (name, src) in tpcc_transactions() {
        let program = sloth_lang::parse_program(&src).expect("transaction parses");
        let sloth = prepare_with_schema(
            &program,
            ExecStrategy::Sloth(OptFlags::all()),
            Some(&tpcc_schema()),
        );
        for t in 0..txns_per_type {
            let r = sloth
                .run(env, Arc::clone(&tpcc_schema()), vec![V::Int(t as i64 + 1)])
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            outputs.push(r.output);
        }
    }
    outputs
}

/// The batched same-template lookup pattern (a warehouse dashboard
/// loading many stock rows at once): one batch of `warehouses × 100`
/// point lookups on the shard key — one per stock row.
fn probe_batch(warehouses: usize) -> Vec<String> {
    (0..warehouses * 100)
        .map(|i| format!("SELECT * FROM stock WHERE s_id = {}", 1 + i))
        .collect()
}

/// Runs the full shard figure.
pub fn shard_figure(cfg: &ShardCfg) -> ShardFigure {
    // Single-server references (fusion on — fusion never changes output).
    let reference = SimEnv::default_env();
    seed_tpcc(&reference, cfg.warehouses);
    let ref_outputs = run_tpcc_mix(&reference, cfg.txns_per_type);
    let ref_trips = reference.stats().round_trips;
    let ref_db_ns = reference.stats().db_ns;

    let probe_ref = SimEnv::default_env();
    seed_tpcc(&probe_ref, cfg.warehouses);
    let probe_ref_results = probe_ref.query_batch(&probe_batch(cfg.warehouses)).unwrap();
    let probe_ref_db_ns = probe_ref.stats().db_ns;

    // One ppm scale for every fleet size, derived from the single-server
    // reference, so timed walls are comparable across shard counts.
    let ppm_for = |db_ns: u64| -> u64 {
        if cfg.wall_target_ms == 0 || db_ns == 0 {
            0
        } else {
            (cfg.wall_target_ms.saturating_mul(1_000_000)).saturating_mul(1_000_000) / db_ns
        }
    };
    let tpcc_ppm = ppm_for(ref_db_ns);
    let probe_ppm = ppm_for(probe_ref_db_ns.max(1));

    let mut tpcc = Vec::new();
    let mut probe_split = Vec::new();
    for &n in &cfg.shard_counts {
        for fusion in [true, false] {
            // TPC-C sweep: untimed run checks output equality, then a
            // timed re-run on a fresh fleet measures wall clock with
            // modeled db time as real sleeps.
            let fleet = ShardedEnv::new(CostModel::default(), tpcc_shard_spec(), n);
            seed_tpcc(&fleet.handle(), cfg.warehouses);
            fleet.env().set_fusion(fusion);
            let outputs = run_tpcc_mix(&fleet.handle(), cfg.txns_per_type);
            let equal = outputs == ref_outputs && fleet.env().stats().round_trips == ref_trips;
            // The timed pass only runs fusion-on: the wall figure compares
            // shard counts at one ns→real conversion rate derived from the
            // fused reference, and sleeping out the unfused workloads'
            // much larger modeled db time would cost CI minutes without
            // informing the shard-scaling comparison.
            let (wall_ms, overlap) = if fusion {
                timed_run(cfg, n, fusion, tpcc_ppm, |env| {
                    run_tpcc_mix(env, cfg.txns_per_type);
                })
            } else {
                (0.0, 0.0)
            };
            tpcc.push(point_of(&fleet, n, fusion, wall_ms, overlap, equal));

            // Probe-split sweep.
            let fleet = ShardedEnv::new(CostModel::default(), tpcc_shard_spec(), n);
            seed_tpcc(&fleet.handle(), cfg.warehouses);
            fleet.env().set_fusion(fusion);
            let results = fleet
                .env()
                .query_batch(&probe_batch(cfg.warehouses))
                .unwrap();
            let equal = results == probe_ref_results;
            let (wall_ms, overlap) = if fusion {
                timed_run(cfg, n, fusion, probe_ppm, |env| {
                    env.query_batch(&probe_batch(cfg.warehouses)).unwrap();
                })
            } else {
                (0.0, 0.0)
            };
            probe_split.push(point_of(&fleet, n, fusion, wall_ms, overlap, equal));
        }
    }
    ShardFigure {
        cfg: cfg.clone(),
        tpcc,
        probe_split,
    }
}

/// Seeds a fresh fleet, turns modeled db time into real sleeps at `ppm`,
/// and times `work` with a wall clock. Returns `(wall_ms, wave_overlap)`
/// — `(0, 0)` when the timed pass is disabled.
fn timed_run(
    cfg: &ShardCfg,
    shards: usize,
    fusion: bool,
    ppm: u64,
    work: impl FnOnce(&SimEnv),
) -> (f64, f64) {
    if ppm == 0 {
        return (0.0, 0.0);
    }
    let fleet = ShardedEnv::new(CostModel::default(), tpcc_shard_spec(), shards);
    seed_tpcc(&fleet.handle(), cfg.warehouses);
    fleet.env().set_fusion(fusion);
    fleet.set_db_realtime_ppm(ppm);
    let t0 = std::time::Instant::now();
    work(&fleet.handle());
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (wall_ms, fleet.wave_overlap())
}

fn point_of(
    fleet: &ShardedEnv,
    shards: usize,
    fusion: bool,
    wall_ms: f64,
    wave_overlap: f64,
    outputs_equal: bool,
) -> ShardPoint {
    let net = fleet.env().stats();
    let ss = fleet.shard_stats();
    ShardPoint {
        shards,
        fusion,
        round_trips: net.round_trips,
        db_ns: net.db_ns,
        network_ns: net.network_ns,
        total_ns: net.total_ns(),
        bytes: net.bytes,
        point_reads: ss.point_reads,
        scatter_reads: ss.scatter_reads,
        fused_subprobes: ss.fused_subprobes,
        wall_ms,
        wave_overlap,
        outputs_equal,
    }
}

fn point_json(p: &ShardPoint) -> String {
    format!(
        "{{\"shards\": {}, \"fusion\": {}, \"round_trips\": {}, \"db_ns\": {}, \
         \"network_ns\": {}, \"total_ns\": {}, \"bytes\": {}, \"point_reads\": {}, \
         \"scatter_reads\": {}, \"fused_subprobes\": {}, \"wall_ms\": {:.1}, \
         \"wave_overlap\": {:.2}, \"outputs_equal\": {}}}",
        p.shards,
        p.fusion,
        p.round_trips,
        p.db_ns,
        p.network_ns,
        p.total_ns,
        p.bytes,
        p.point_reads,
        p.scatter_reads,
        p.fused_subprobes,
        p.wall_ms,
        p.wave_overlap,
        p.outputs_equal
    )
}

impl ShardFigure {
    /// Renders the figure as the `BENCH_shard.json` document.
    pub fn to_json(&self) -> String {
        let series = |points: &[ShardPoint]| -> String {
            points
                .iter()
                .map(|p| format!("    {}", point_json(p)))
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let max = self.max_shards();
        format!(
            "{{\n  \"figure\": \"shard\",\n  \"warehouses\": {},\n  \"txns_per_type\": {},\n  \
             \"tpcc_db_reduction_pct_at_{max}\": {:.1},\n  \
             \"tpcc_wall_reduction_pct_at_{max}\": {:.1},\n  \"tpcc\": [\n{}\n  ],\n  \
             \"probe_split\": [\n{}\n  ]\n}}\n",
            self.cfg.warehouses,
            self.cfg.txns_per_type,
            self.tpcc_db_reduction(max) * 100.0,
            self.tpcc_wall_reduction(max) * 100.0,
            series(&self.tpcc),
            series(&self.probe_split)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ShardCfg {
        ShardCfg {
            warehouses: 4,
            txns_per_type: 25,
            shard_counts: vec![1, 4],
            wall_target_ms: 120,
        }
    }

    /// The acceptance gates of the sharding work, enforced on every test
    /// run: identical output on every configuration, round-trip waves no
    /// worse than single-server, and measurable db-time reduction at
    /// 4 shards — on TPC-C and on the fused-probe split.
    #[test]
    fn shard_figure_meets_targets() {
        let fig = shard_figure(&small_cfg());
        for p in fig.tpcc.iter().chain(&fig.probe_split) {
            assert!(
                p.outputs_equal,
                "{} shards (fusion {}): output or round trips diverged",
                p.shards, p.fusion
            );
        }
        let trips = fig.tpcc_at(1, true).round_trips;
        for p in &fig.tpcc {
            assert_eq!(p.round_trips, trips, "round-trip waves must not grow");
        }
        assert!(
            fig.tpcc_db_reduction(4) > 0.0,
            "TPC-C db time must shrink at 4 shards: {:.1}%",
            fig.tpcc_db_reduction(4) * 100.0
        );
        // The fused probe split: at 4 shards the sub-probes run in
        // parallel, so fusion-on db time beats the single server's.
        let one = fig
            .probe_split
            .iter()
            .find(|p| p.shards == 1 && p.fusion)
            .unwrap();
        let four = fig
            .probe_split
            .iter()
            .find(|p| p.shards == 4 && p.fusion)
            .unwrap();
        assert!(four.fused_subprobes > one.fused_subprobes);
        assert!(
            four.db_ns < one.db_ns,
            "probe split must cut db time: {} vs {}",
            four.db_ns,
            one.db_ns
        );
        // The timed pass ran and saw real parallel waves at 4 shards.
        // (Strict wall comparisons live in the release harness gate —
        // debug-build CPU would drown them here.)
        let t4 = fig.tpcc_at(4, true);
        assert!(t4.wall_ms > 0.0, "timed pass must run: {t4:?}");
        assert!(
            t4.wave_overlap > 0.0,
            "4-shard TPC-C must execute parallel waves: {t4:?}"
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let fig = shard_figure(&ShardCfg {
            warehouses: 2,
            txns_per_type: 5,
            shard_counts: vec![1, 2],
            wall_target_ms: 0,
        });
        let json = fig.to_json();
        assert!(json.contains("\"figure\": \"shard\""));
        assert!(json.contains("probe_split"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
