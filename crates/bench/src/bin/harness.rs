//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6).
//!
//! ```text
//! cargo run --release -p sloth-bench --bin harness -- all
//! cargo run --release -p sloth-bench --bin harness -- fig5 fig13
//! cargo run --release -p sloth-bench --bin harness -- fusion     # writes BENCH_fusion.json
//! cargo run --release -p sloth-bench --bin harness -- shard      # writes BENCH_shard.json
//! cargo run --release -p sloth-bench --bin harness -- throughput # writes BENCH_throughput.json
//! cargo run --release -p sloth-bench --bin harness -- deferral   # writes BENCH_deferral.json
//! cargo run --release -p sloth-bench --bin harness -- cache      # writes BENCH_cache.json
//! ```
//!
//! `throughput` is the real-threads serving harness: N worker OS threads ×
//! M closed-loop clients against one shared deployment (real network
//! sleeps), eager vs. lazy-batched drivers at equal results, plus the
//! discrete-event simulated model for comparison.

use sloth_apps::{itracker_app, openmrs_app};
use sloth_bench::throughput::{sweep, ThroughputCfg};
use sloth_bench::*;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 16] = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "appendix",
    "fusion",
    "shard",
    "throughput",
    "deferral",
    "chaos",
    "cache",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // A mistyped figure step must fail its CI job, not pass without
    // running a gate — and fail before anything is measured.
    if let Some(other) = wanted.iter().find(|w| !EXPERIMENTS.contains(w)) {
        eprintln!("unknown experiment: {other}");
        std::process::exit(2);
    }

    // Figs 5/6 measurements are reused by 7/8/9/appendix.
    let need_pages = wanted
        .iter()
        .any(|w| matches!(*w, "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "appendix"));
    let (it, om) = if need_pages {
        eprintln!("measuring 38 itracker + 112 OpenMRS pages in both modes…");
        (fig5_itracker(), fig6_openmrs())
    } else {
        (Vec::new(), Vec::new())
    };

    for w in wanted {
        match w {
            "fig5" => cdf_figure("Figure 5 — itracker CDFs", &it),
            "fig6" => cdf_figure("Figure 6 — OpenMRS CDFs", &om),
            "fig7" => fig7(&om),
            "fig8" => {
                fig8("Figure 8(a) — itracker time breakdown", &it);
                fig8("Figure 8(b) — OpenMRS time breakdown", &om);
            }
            "fig9" => {
                fig9("Figure 9(a) — itracker network scaling", &it);
                fig9("Figure 9(b) — OpenMRS network scaling", &om);
            }
            "fig10" => fig10(),
            "fig11" => fig11(),
            "fig12" => fig12(),
            "fig13" => fig13(),
            "appendix" => {
                appendix("itracker benchmarks", &it);
                appendix("OpenMRS benchmarks", &om);
            }
            "fusion" => fusion_figure_cmd(),
            "shard" => shard_figure_cmd(),
            "throughput" => throughput_figure_cmd(),
            "deferral" => deferral_figure_cmd(),
            "chaos" => chaos_figure_cmd(),
            "cache" => cache_figure_cmd(),
            other => unreachable!("{other} is in EXPERIMENTS"),
        }
    }
}

fn pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((v.len() - 1) as f64 * p).round() as usize;
    v[idx]
}

fn cdf_line(label: &str, xs: &[f64]) {
    println!(
        "  {label:<22} min {:>5.2}  p25 {:>5.2}  median {:>5.2}  p75 {:>5.2}  max {:>5.2}",
        pct(xs, 0.0),
        pct(xs, 0.25),
        pct(xs, 0.5),
        pct(xs, 0.75),
        pct(xs, 1.0)
    );
}

fn cdf_figure(title: &str, results: &[PageResult]) {
    println!("\n== {title} ({} benchmarks) ==", results.len());
    let speed: Vec<f64> = results.iter().map(PageResult::speedup).collect();
    let rtrip: Vec<f64> = results.iter().map(PageResult::rtrip_ratio).collect();
    let query: Vec<f64> = results.iter().map(PageResult::query_ratio).collect();
    cdf_line("(a) speedup ratio", &speed);
    cdf_line("(b) round-trip ratio", &rtrip);
    cdf_line("(c) query ratio", &query);
    let more = query.iter().filter(|q| **q < 1.0).count();
    println!("  pages where Sloth issued MORE queries than original: {more}");
    let max_batch = results.iter().map(|r| r.sloth.max_batch).max().unwrap_or(0);
    println!("  largest single batch across all pages: {max_batch}");
}

fn fig7(om: &[PageResult]) {
    println!("\n== Figure 7 — throughput vs clients (OpenMRS mix) ==");
    println!(
        "  {:>8} {:>14} {:>14}",
        "clients", "orig pages/s", "sloth pages/s"
    );
    let cfg = ThroughputCfg {
        duration_s: 60.0,
        ..ThroughputCfg::default()
    };
    let counts = [10, 25, 50, 100, 200, 300, 400, 500, 600];
    let mut orig_peak: (usize, f64) = (0, 0.0);
    let mut sloth_peak: (usize, f64) = (0, 0.0);
    for (n, o, s) in sweep(om, &counts, &cfg) {
        println!("  {n:>8} {o:>14.1} {s:>14.1}");
        if o > orig_peak.1 {
            orig_peak = (n, o);
        }
        if s > sloth_peak.1 {
            sloth_peak = (n, s);
        }
    }
    println!(
        "  peaks: original {:.1} pages/s @ {} clients; Sloth {:.1} pages/s @ {} clients ({:.2}x)",
        orig_peak.1,
        orig_peak.0,
        sloth_peak.1,
        sloth_peak.0,
        sloth_peak.1 / orig_peak.1
    );
}

fn fig8(title: &str, results: &[PageResult]) {
    println!("\n== {title} ==");
    for (label, sloth) in [("original", false), ("Sloth", true)] {
        let b = Breakdown::aggregate(results, sloth);
        let t = b.total_ms();
        println!(
            "  {label:<9} network {:>9.0} ms ({:>4.1}%)  app {:>9.0} ms ({:>4.1}%)  db {:>9.0} ms ({:>4.1}%)",
            b.network_ms,
            b.network_ms / t * 100.0,
            b.app_ms,
            b.app_ms / t * 100.0,
            b.db_ms,
            b.db_ms / t * 100.0
        );
    }
}

fn fig9(title: &str, results: &[PageResult]) {
    println!("\n== {title} ==");
    for rtt in [0.5, 1.0, 10.0] {
        let s = fig9_latency_sweep(results, rtt);
        println!(
            "  rtt {rtt:>4}ms  median speedup {:>5.2}  max {:>5.2}",
            median(&s),
            s.last().copied().unwrap_or(f64::NAN)
        );
    }
}

fn fig10() {
    let scales = [50, 250, 500, 1000, 2000];
    println!("\n== Figure 10(a) — itracker list_projects vs #projects ==");
    println!(
        "  {:>8} {:>12} {:>12} {:>10} {:>12}",
        "projects", "orig ms", "sloth ms", "max batch", "sloth trips"
    );
    for p in fig10_itracker(&scales) {
        println!(
            "  {:>8} {:>12.1} {:>12.1} {:>10} {:>12}",
            p.scale, p.orig_ms, p.sloth_ms, p.max_batch, p.sloth_trips
        );
    }
    println!("\n== Figure 10(b) — OpenMRS encounterDisplay vs #observations ==");
    println!(
        "  {:>8} {:>12} {:>12} {:>10} {:>12}",
        "obs", "orig ms", "sloth ms", "max batch", "sloth trips"
    );
    for p in fig10_openmrs(&scales) {
        println!(
            "  {:>8} {:>12.1} {:>12.1} {:>10} {:>12}",
            p.scale, p.orig_ms, p.sloth_ms, p.max_batch, p.sloth_trips
        );
    }
}

fn fig11() {
    println!("\n== Figure 11 — persistent methods identified ==");
    println!(
        "  {:<10} {:>12} {:>16} {:>10}",
        "app", "persistent", "non-persistent", "% persist"
    );
    for app in [itracker_app(), openmrs_app()] {
        let (p, n) = fig11_persistence(&app);
        println!(
            "  {:<10} {:>12} {:>16} {:>9.0}%",
            app.name,
            p,
            n,
            p as f64 / (p + n) as f64 * 100.0
        );
    }
}

fn fig12() {
    println!("\n== Figure 12 — load time as optimizations are enabled ==");
    println!(
        "  {:<10} {:>11} {:>11} {:>11} {:>11}",
        "app", "noopt", "SC", "SC+TC", "SC+TC+hoist"
    );
    for app in [itracker_app(), openmrs_app()] {
        let mut row = format!("  {:<10}", app.name);
        for (_, flags) in fig12_configs() {
            let t = fig12_total_time(&app, flags);
            row.push_str(&format!(" {t:>10.2}s"));
        }
        println!("{row}");
    }
}

fn fig13() {
    println!("\n== Figure 13 — TPC-C / TPC-W lazy evaluation overhead ==");
    println!(
        "  {:<15} {:>11} {:>11} {:>9} {:>9} {:>13} {:>13} {:>13}",
        "transaction",
        "orig trips",
        "sloth trips",
        "orig (s)",
        "sloth (s)",
        "orig app (ms)",
        "sloth app(ms)",
        "app overhead"
    );
    for r in fig13_overhead(200) {
        println!(
            "  {:<15} {:>11} {:>11} {:>9.3} {:>9.3} {:>13.1} {:>13.1} {:>12.1}%",
            r.name,
            r.orig_trips,
            r.sloth_trips,
            r.orig_s,
            r.sloth_s,
            r.orig_app_ns as f64 / 1e6,
            r.sloth_app_ns as f64 / 1e6,
            r.overhead_pct()
        );
    }
}

fn fusion_figure_cmd() {
    println!("\n== Fusion figure — batch fusion + template cache on the driver path ==");
    let fig = sloth_bench::fusion::fusion_figure();
    println!(
        "  {:<10} {:>6} {:>10} {:>12} {:>12} {:>8} {:>8} {:>7}",
        "app", "pages", "trips", "db off(ms)", "db on(ms)", "Δdb", "fusedQ", "groups"
    );
    for row in &fig.apps {
        println!(
            "  {:<10} {:>6} {:>10} {:>12.1} {:>12.1} {:>7.1}% {:>8} {:>7}",
            row.app,
            row.pages,
            row.on.round_trips,
            row.off.db_ns as f64 / 1e6,
            row.on.db_ns as f64 / 1e6,
            row.db_time_reduction() * 100.0,
            row.on.fused_queries,
            row.on.fused_groups
        );
        assert!(row.outputs_equal, "{}: fused output differs", row.app);
    }
    let lp = &fig.list_page;
    println!(
        "  list page ({}): db {:.2} ms → {:.2} ms ({:.1}% less), {} trips both ways",
        lp.page,
        lp.off.db_ns as f64 / 1e6,
        lp.on.db_ns as f64 / 1e6,
        lp.db_time_reduction() * 100.0,
        lp.on.round_trips
    );
    println!(
        "  template cache: first load {}h/{}m, repeat load {}h/{}m (hit rate {:.1}%)",
        fig.plan_cache.first_load.hits,
        fig.plan_cache.first_load.misses,
        fig.plan_cache.repeat_load.hits,
        fig.plan_cache.repeat_load.misses,
        fig.plan_cache.repeat_hit_rate() * 100.0
    );
    let json = fig.to_json();
    match std::fs::write("BENCH_fusion.json", &json) {
        Ok(()) => println!("  wrote BENCH_fusion.json"),
        Err(e) => eprintln!("  could not write BENCH_fusion.json: {e}"),
    }
}

fn shard_figure_cmd() {
    println!("\n== Shard figure — TPC-C on the sharded backend, fusion-aware routing ==");
    let fig = sloth_bench::shard::shard_figure(&sloth_bench::shard::ShardCfg::default());
    println!(
        "  {:<8} {:>7} {:>8} {:>12} {:>12} {:>8} {:>10} {:>9} {:>8}",
        "workload",
        "shards",
        "fusion",
        "db (ms)",
        "net (ms)",
        "trips",
        "scatterRds",
        "wall(ms)",
        "overlap"
    );
    for (label, points) in [("tpcc", &fig.tpcc), ("probes", &fig.probe_split)] {
        for p in points {
            println!(
                "  {label:<8} {:>7} {:>8} {:>12.2} {:>12.2} {:>8} {:>10} {:>9.1} {:>7.2}x",
                p.shards,
                p.fusion,
                p.db_ns as f64 / 1e6,
                p.network_ns as f64 / 1e6,
                p.round_trips,
                p.scatter_reads,
                p.wall_ms,
                p.wave_overlap
            );
            assert!(
                p.outputs_equal,
                "{label} @ {} shards: sharded output diverged",
                p.shards
            );
        }
    }
    let max = fig.max_shards();
    println!(
        "  TPC-C db-time reduction at {max} shards vs 1: {:.1}% modeled, {:.1}% wall-clock \
         (round trips unchanged)",
        fig.tpcc_db_reduction(max) * 100.0,
        fig.tpcc_wall_reduction(max) * 100.0
    );
    // Wall-clock gate: the fleet's waves must genuinely overlap on a
    // stopwatch, not just in the per-shard cost model. The wall itself
    // (`wall_ms`) is reported, not gated: at equal work it compares
    // engine CPU across fleet sizes as much as overlapped sleeps; the
    // benchmark's `tpcc_sharded` workload bounds the wall clock on shards.
    let big = fig.tpcc_at(max, true);
    assert!(
        big.wave_overlap > 1.1,
        "{max}-shard waves must overlap on the wall clock: {:.2}x",
        big.wave_overlap
    );
    let json = fig.to_json();
    match std::fs::write("BENCH_shard.json", &json) {
        Ok(()) => println!("  wrote BENCH_shard.json"),
        Err(e) => eprintln!("  could not write BENCH_shard.json: {e}"),
    }
}

fn throughput_figure_cmd() {
    use sloth_bench::serve::{serve_figure, ServeCfg};
    println!("\n== Throughput — real-threads closed-loop serving (itracker mix) ==");
    let app = sloth_apps::itracker_app();
    let cfg = ServeCfg {
        duration: std::time::Duration::from_millis(1_200),
        // Datacenter app-to-db RTT for the published figure. The figure's
        // point is the network round trips the lazy driver removes, so
        // the modeled wire must dominate single-core statement execution
        // the way it does on a real deployment — at sub-millisecond RTTs
        // the measurement degenerates into a CPU benchmark of whichever
        // box CI happens to run on.
        rtt_ms: 8.0,
        ..ServeCfg::default()
    };
    let counts = [1, 2, 4, 8, 16, 64];
    let fig = serve_figure(&app, &counts, &cfg);
    println!(
        "  {:>8} {:>14} {:>14} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "clients",
        "eager pg/s",
        "lazy pg/s",
        "speedup",
        "lazy p50",
        "lazy p99",
        "lazy trips",
        "outputs"
    );
    for p in &fig.points {
        println!(
            "  {:>8} {:>14.1} {:>14.1} {:>8.2}x {:>8.1}ms {:>8.1}ms {:>10} {:>8}",
            p.clients,
            p.eager.pages_per_s,
            p.lazy.pages_per_s,
            p.speedup(),
            p.lazy.p50_ms,
            p.lazy.p99_ms,
            p.lazy.round_trips,
            if p.eager.output_mismatches + p.lazy.output_mismatches == 0 {
                "equal"
            } else {
                "DIFFER"
            }
        );
        assert_eq!(
            p.eager.output_mismatches + p.lazy.output_mismatches,
            0,
            "{} clients: per-page output equality violated",
            p.clients
        );
    }
    // The acceptance gates of the concurrency work: speedup must not
    // collapse at high client counts (lock-free hot path, snapshot
    // readers), and the lazy driver's tail must stay below the eager one's.
    let eight = fig.at(8).expect("8-client point");
    assert!(
        eight.speedup() >= 1.5,
        "lazy-batched must sustain ≥ 1.5x eager at 8 clients, got {:.2}x",
        eight.speedup()
    );
    let sixteen = fig.at(16).expect("16-client point");
    assert!(
        sixteen.speedup() >= 2.5,
        "lazy-batched must sustain ≥ 2.5x eager at 16 clients, got {:.2}x",
        sixteen.speedup()
    );
    let big = fig.at(64).expect("64-client point");
    assert!(
        big.speedup() >= 2.0,
        "lazy-batched must sustain ≥ 2.0x eager at 64 clients, got {:.2}x",
        big.speedup()
    );
    assert!(
        big.lazy.p99_ms < big.eager.p99_ms,
        "lazy p99 must beat eager p99 at 64 clients: {:.1}ms vs {:.1}ms",
        big.lazy.p99_ms,
        big.eager.p99_ms
    );
    println!(
        "  gate: {:.2}x at 8 (≥ 1.5x), {:.2}x at 16 (≥ 2.5x), \
         {:.2}x at 64 (≥ 2.0x); 64-client p99 lazy {:.1}ms vs eager {:.1}ms",
        eight.speedup(),
        sixteen.speedup(),
        big.speedup(),
        big.lazy.p99_ms,
        big.eager.p99_ms
    );

    // The write-mix workload: transactional save pages, bare audit
    // writes and read-only views served concurrently — the figure the
    // transaction-scoped laziness work adds. Still equal results: the
    // mix is constructed to render deterministically under concurrency.
    use sloth_bench::serve::write_mix_app;
    println!("\n== Throughput — write-mix serving (txn saves + audits + views) ==");
    let wm_app = write_mix_app();
    let wm_cfg = ServeCfg {
        page_mix: wm_app.pages.len(),
        ..cfg
    };
    let wm = serve_figure(&wm_app, &[8], &wm_cfg);
    let wm8 = wm.at(8).expect("write-mix 8-client point");
    println!(
        "  {:>8} {:>14} {:>14} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "clients", "eager pg/s", "lazy pg/s", "speedup", "lazy p99", "eager p99", "txns", "outputs"
    );
    println!(
        "  {:>8} {:>14.1} {:>14.1} {:>8.2}x {:>8.1}ms {:>8.1}ms {:>9} {:>8}",
        wm8.clients,
        wm8.eager.pages_per_s,
        wm8.lazy.pages_per_s,
        wm8.speedup(),
        wm8.lazy.p99_ms,
        wm8.eager.p99_ms,
        wm8.lazy.deferred_txns,
        if wm8.eager.output_mismatches + wm8.lazy.output_mismatches == 0 {
            "equal"
        } else {
            "DIFFER"
        }
    );
    assert_eq!(
        wm8.eager.output_mismatches + wm8.lazy.output_mismatches,
        0,
        "write mix: per-page output equality violated"
    );
    assert!(
        wm8.lazy.deferred_txns > 0,
        "write mix must defer whole transactions: {:?}",
        wm8.lazy
    );
    assert!(
        wm8.speedup() >= 1.5,
        "write mix: lazy-batched must sustain ≥ 1.5x eager at 8 clients, got {:.2}x",
        wm8.speedup()
    );
    println!(
        "  gate: {:.2}x at 8 clients (≥ 1.5x), {} whole transactions deferred",
        wm8.speedup(),
        wm8.lazy.deferred_txns
    );

    // The snapshot-overlap figure: a read-mostly fleet against a hot
    // writer that holds the write order open ~1 ms per commit. Readers
    // on published snapshots must demonstrably run *during* the hold
    // (overlap > 1) and keep a tail below one hold — which a reader that
    // had waited out a single hold could not.
    use sloth_bench::snapshot::{snapshot_figure, SnapshotCfg};
    println!("\n== Throughput — snapshot reads vs a hot writer ==");
    let snap_cfg = SnapshotCfg::default();
    let snap = snapshot_figure(&snap_cfg);
    let write_hold_ms = snap_cfg.write_hold_ns as f64 / 1e6;
    println!(
        "  {:>14} {:>12} {:>9} {:>9} {:>10} {:>9}",
        "pass", "reads/s", "p50", "p99", "snapshots", "writer f"
    );
    for (name, p) in [
        ("baseline", &snap.baseline),
        ("hot snapshot", &snap.hot_snapshot),
    ] {
        println!(
            "  {:>14} {:>12.0} {:>7.2}ms {:>7.2}ms {:>10} {:>9.2}",
            name, p.reads_per_s, p.p50_ms, p.p99_ms, p.snapshot_batches, p.writer_busy_frac
        );
        assert_eq!(p.output_mismatches, 0, "{name}: reads diverged");
    }
    assert!(
        snap.overlap > 1.0,
        "snapshot readers must overlap the writer's lock hold: overlap {:.2} \
         (retained {:.0}/{:.0} reads/s at writer busy {:.2})",
        snap.overlap,
        snap.hot_snapshot.reads_per_s,
        snap.baseline.reads_per_s,
        snap.hot_snapshot.writer_busy_frac
    );
    assert!(
        snap.hot_snapshot.p99_ms < write_hold_ms,
        "snapshot read p99 must stay below one write hold under a hot writer: \
         {:.3}ms vs {:.3}ms",
        snap.hot_snapshot.p99_ms,
        write_hold_ms
    );
    println!(
        "  gate: overlap {:.2} (> 1), read p99 {:.3}ms < write hold {:.3}ms",
        snap.overlap, snap.hot_snapshot.p99_ms, write_hold_ms
    );

    // The pre-existing discrete-event model, for comparison in the same
    // document (same app and page set as the real measurement).
    eprintln!("  measuring itracker pages for the simulated model…");
    let results = fig5_itracker();
    let sim_cfg = ThroughputCfg {
        duration_s: 30.0,
        ..ThroughputCfg::default()
    };
    let sim = sweep(&results, &counts, &sim_cfg);
    println!(
        "  simulated model: {}",
        sim.iter()
            .map(|(n, o, s)| format!("{n}cl {o:.0}/{s:.0}"))
            .collect::<Vec<_>>()
            .join("  ")
    );

    let mut json = String::from("{\n  \"figure\": \"throughput\",\n");
    json.push_str(&format!("  \"real_threads\": {},\n", fig.to_json()));
    json.push_str(&format!(
        "  \"gate\": {{\"clients\": 8, \"speedup\": {:.2}, \"min_required\": 1.5, \
         \"pass\": true}},\n",
        eight.speedup()
    ));
    json.push_str(&format!(
        "  \"tail_gates\": [\n    {{\"clients\": 16, \"speedup\": {:.2}, \"min_required\": 2.5, \
         \"pass\": true}},\n    {{\"clients\": 64, \"speedup\": {:.2}, \"min_required\": 2.0, \
         \"lazy_p99_ms\": {:.2}, \"eager_p99_ms\": {:.2}, \"pass\": true}}\n  ],\n",
        sixteen.speedup(),
        big.speedup(),
        big.lazy.p99_ms,
        big.eager.p99_ms
    ));
    json.push_str(&format!("  \"write_mix\": {},\n", wm.to_json()));
    json.push_str(&format!(
        "  \"write_mix_gate\": {{\"clients\": 8, \"speedup\": {:.2}, \"min_required\": 1.5, \
         \"lazy_p99_ms\": {:.2}, \"eager_p99_ms\": {:.2}, \"deferred_txns\": {}, \
         \"pass\": true}},\n",
        wm8.speedup(),
        wm8.lazy.p99_ms,
        wm8.eager.p99_ms,
        wm8.lazy.deferred_txns
    ));
    json.push_str(&format!(
        "  \"snapshot\": {{\"readers\": 4, \"overlap\": {:.2}, \"min_overlap\": 1.0, \
         \"baseline_reads_per_s\": {:.0}, \"hot_reads_per_s\": {:.0}, \
         \"writer_busy_frac\": {:.2}, \"lazy_p99_ms\": {:.3}, \"write_hold_ms\": {:.3}, \
         \"snapshot_batches\": {}, \"pass\": true}},\n",
        snap.overlap,
        snap.baseline.reads_per_s,
        snap.hot_snapshot.reads_per_s,
        snap.hot_snapshot.writer_busy_frac,
        snap.hot_snapshot.p99_ms,
        write_hold_ms,
        snap.hot_snapshot.snapshot_batches
    ));
    json.push_str(
        "  \"simulated\": {\"app\": \"itracker\", \"model\": \"discrete_event\", \"points\": [\n",
    );
    for (i, (n, o, s)) in sim.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {n}, \"orig_pages_per_s\": {o:.1}, \"sloth_pages_per_s\": {s:.1}}}{}\n",
            if i + 1 < sim.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]}\n}\n");
    match std::fs::write("BENCH_throughput.json", &json) {
        Ok(()) => println!("  wrote BENCH_throughput.json"),
        Err(e) => eprintln!("  could not write BENCH_throughput.json: {e}"),
    }
}

fn deferral_figure_cmd() {
    println!("\n== Deferral figure — selective laziness vs a flush per write ==");
    let fig = sloth_bench::deferral::deferral_figure();
    println!(
        "  {:<26} {:>5} {:>10} {:>10} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "workload",
        "txns",
        "wa trips",
        "sl trips",
        "Δtrips",
        "deferred",
        "wr-only",
        "drains",
        "outputs"
    );
    for row in &fig.rows {
        println!(
            "  {:<26} {:>5} {:>10} {:>10} {:>7.1}% {:>9} {:>9} {:>8} {:>8}",
            row.name,
            row.txns,
            row.baseline.round_trips,
            row.deferred.round_trips,
            row.round_trip_reduction() * 100.0,
            row.deferred_writes,
            row.write_only_flushes,
            row.conflict_drains,
            if row.outputs_equal && row.state_equal {
                "equal"
            } else {
                "DIFFER"
            }
        );
        assert!(
            row.outputs_equal && row.state_equal,
            "{}: selective laziness diverged",
            row.name
        );
        assert!(
            row.deferred.round_trips <= row.baseline.round_trips,
            "{}: deferral added round trips",
            row.name
        );
    }
    println!(
        "  gate: {:.1}% fewer round trips vs the write-aware baseline (≥ 10% required)",
        fig.overall_reduction() * 100.0
    );
    assert!(
        fig.overall_reduction() >= 0.10,
        "deferral round-trip reduction {:.1}% < 10%",
        fig.overall_reduction() * 100.0
    );
    let json = fig.to_json();
    match std::fs::write("BENCH_deferral.json", &json) {
        Ok(()) => println!("  wrote BENCH_deferral.json"),
        Err(e) => eprintln!("  could not write BENCH_deferral.json: {e}"),
    }
}

fn chaos_figure_cmd() {
    println!("\n== Chaos figure — recovery cost under the reference fault plan ==");
    let fig = sloth_bench::chaos::chaos_figure();
    println!(
        "  {:<26} {:>7} {:>7} {:>8} {:>7} {:>8} {:>9} {:>9} {:>8}",
        "workload", "pages", "faults", "retries", "dedup", "Δtrips", "Δnetwork", "journal", "state"
    );
    for row in &fig.rows {
        println!(
            "  {:<26} {:>4}/{:<2} {:>7} {:>8} {:>7} {:>7.1}% {:>8.1}% {:>9} {:>8}",
            row.name,
            row.pages_ok,
            row.txns,
            row.absorbed(),
            row.faults.retries,
            row.faults.deduped_writes,
            row.trip_overhead() * 100.0,
            row.network_overhead() * 100.0,
            row.faults.journal_hits,
            if row.outputs_equal && row.state_equal {
                "equal"
            } else {
                "DIFFER"
            }
        );
        assert!(
            row.outputs_equal && row.state_equal,
            "{}: recovery diverged from the clean run",
            row.name
        );
    }
    println!(
        "  gate: {:.2}% page success (≥ 99% required), {} state divergences (0 required)",
        fig.success_rate() * 100.0,
        fig.state_divergences()
    );
    assert!(fig.pass(), "chaos gate failed");
    let json = fig.to_json();
    match std::fs::write("BENCH_chaos.json", &json) {
        Ok(()) => println!("  wrote BENCH_chaos.json"),
        Err(e) => eprintln!("  could not write BENCH_chaos.json: {e}"),
    }
}

fn cache_figure_cmd() {
    println!("\n== Cache figure — shared result cache on repeated hot pages ==");
    let fig = sloth_bench::cache::cache_figure();
    println!(
        "  {:<36} {:>6} {:>10} {:>10} {:>8} {:>6} {:>7} {:>7} {:>8}",
        "workload",
        "rounds",
        "off trips",
        "on trips",
        "Δtrips",
        "hits",
        "fills",
        "invals",
        "outputs"
    );
    for row in &fig.rows {
        println!(
            "  {:<36} {:>6} {:>10} {:>10} {:>7.1}% {:>6} {:>7} {:>7} {:>8}",
            row.name,
            row.rounds,
            row.baseline.round_trips,
            row.cached.round_trips,
            row.round_trip_reduction() * 100.0,
            row.cache_stats.hits,
            row.cache_stats.fills,
            row.cache_stats.invalidations,
            if row.outputs_equal && row.state_equal {
                "equal"
            } else {
                "DIFFER"
            }
        );
        assert!(
            row.outputs_equal && row.state_equal,
            "{}: the cache diverged from the cache-off run",
            row.name
        );
        assert!(
            row.cached.round_trips < row.baseline.round_trips,
            "{}: no round trips saved",
            row.name
        );
    }
    println!(
        "  gate: {:.1}% fewer round trips on the repeated-page mix (≥ 20% required)",
        fig.overall_reduction() * 100.0
    );
    assert!(
        fig.overall_reduction() >= 0.20,
        "cache round-trip reduction {:.1}% < 20%",
        fig.overall_reduction() * 100.0
    );
    let json = fig.to_json();
    match std::fs::write("BENCH_cache.json", &json) {
        Ok(()) => println!("  wrote BENCH_cache.json"),
        Err(e) => eprintln!("  could not write BENCH_cache.json: {e}"),
    }
}

fn appendix(title: &str, results: &[PageResult]) {
    println!("\n== Appendix — {title} ==");
    println!(
        "  {:<55} {:>9} {:>7} {:>9} {:>7} {:>9} {:>8}",
        "benchmark", "orig ms", "o-rt", "sloth ms", "s-rt", "maxbatch", "queries"
    );
    for r in results {
        println!(
            "  {:<55} {:>9.1} {:>7} {:>9.1} {:>7} {:>9} {:>8}",
            r.name,
            r.orig.time_ns as f64 / 1e6,
            r.orig.round_trips,
            r.sloth.time_ns as f64 / 1e6,
            r.sloth.round_trips,
            r.sloth.max_batch,
            r.sloth.queries
        );
    }
}
