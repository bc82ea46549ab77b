//! The names this benchmark emits. `BENCHMARK.json` at the repository root
//! repeats them; a test in `main.rs` checks the two agree.

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "read_pages",
        why: "The paper's 150 read pages at a real 0.5 ms RTT: about 60 % of a page is round trips, so batching, fusion and coalescing show here and CPU wins show diluted.",
    },
    WorkloadSpec {
        name: "cpu_pages",
        why: "The same 150 pages with a free round trip: all time is driver and engine CPU, so a CPU win shows at full size and a round-trip win must show nothing.",
    },
    WorkloadSpec {
        name: "write_big",
        why: "Save, triage and view pages on a 20 000-issue table: write batching, deferral, read-your-writes, commit and table copy-on-write do the work fusion does for reads.",
    },
    WorkloadSpec {
        name: "tpcc_sharded",
        why: "TPC-C on a 4-shard fleet with one client: the only path through the shard router, and the paper's overhead case with almost no batching to win.",
    },
    WorkloadSpec {
        name: "hot_cached",
        why: "Result cache on: a hot set that fits the 512-entry cache, a 2 000-row set that does not, and 5 % invalidating writes; the cache's own CPU cost is paid only here.",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, per workload. Failures are not a metric
/// here: they are the `failed` / `attempted` counts of every run, and any
/// failure makes the run incorrect.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("page_p50_ms", "ms", "lower", 0.20),
    e2e("page_p95_ms", "ms", "lower", 0.25),
    e2e("pages_per_s", "1/s", "higher", 0.20),
    e2e("trips_per_page", "count", "lower", 0.04),
    e2e("rss_peak_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// One block per layer (the crates). None of these is gated.
pub const PER_LAYER: [MetricSpec; 61] = [
    layer("web.handle_self_us", "us", "lower"),
    layer("web.write_page_p50_ms", "ms", "lower"),
    layer("lang.compile_ms_per_page", "ms", "lower"),
    layer("lang.interp_self_us_per_stmt", "us", "lower"),
    layer("lang.thunk_allocs_per_page", "count", "lower"),
    layer("lang.forces_per_page", "count", "lower"),
    layer("lang.lazy_ops_per_page", "count", "lower"),
    layer("lang.eager_page_p50_ms", "ms", "lower"),
    layer("lang.eager_trips_per_page", "count", "lower"),
    layer("lang.speedup_vs_eager", "x", "higher"),
    layer("orm.find_self_us", "us", "lower"),
    layer("core.register_self_us_per_stmt", "us", "lower"),
    layer("core.thunk_force_ns", "ns", "lower"),
    layer("core.batches_per_page", "count", "lower"),
    layer("core.mean_batch_size", "count", "higher"),
    layer("core.max_batch", "count", "higher"),
    layer("core.dedup_hit_frac", "frac", "higher"),
    layer("core.deferred_writes_per_page", "count", "higher"),
    layer("core.deferred_txns_per_page", "count", "higher"),
    layer("core.ryw_rewrites_per_page", "count", "higher"),
    layer("core.conflict_drains_per_page", "count", "lower"),
    layer("core.write_flushes_per_page", "count", "lower"),
    layer("net.batch_self_us_per_stmt", "us", "lower"),
    layer("net.fused_frac", "frac", "higher"),
    layer("net.fused_groups_per_page", "count", "higher"),
    layer("net.bytes_per_page", "B", "lower"),
    layer("net.snapshot_batch_frac", "frac", "higher"),
    layer("net.dispatch_self_us_per_flush", "us", "lower"),
    layer("net.dispatch_coalesced_frac", "frac", "higher"),
    layer("net.dispatch_trips_saved_frac", "frac", "higher"),
    layer("net.cache_hit_frac", "frac", "higher"),
    layer("net.cache_evictions_per_kpage", "count", "lower"),
    layer("net.cache_invalidations_per_write", "count", "lower"),
    layer("net.cache_hit_us_per_stmt", "us", "lower"),
    layer("net.cache_miss_overhead_us_per_stmt", "us", "lower"),
    layer("net.shard_route_self_us_per_stmt", "us", "lower"),
    layer("net.shard_point_frac", "frac", "higher"),
    layer("net.shard_scatter_frac", "frac", "lower"),
    layer("net.shard_subprobes_per_page", "count", "lower"),
    layer("net.shard_wave_overlap", "x", "higher"),
    layer("net.realtime_overshoot_us_per_trip", "us", "lower"),
    layer("net.model_cpu_ratio", "x", "lower"),
    layer("net.virtual_db_ms_per_page", "ms", "lower"),
    layer("net.virtual_network_ms_per_page", "ms", "lower"),
    layer("net.virtual_app_ms_per_page", "ms", "lower"),
    layer("sql.parse_us_per_stmt", "us", "lower"),
    layer("sql.normalize_us_per_stmt", "us", "lower"),
    layer("sql.footprint_us_per_stmt", "us", "lower"),
    layer("sql.exec_read_us_per_stmt", "us", "lower"),
    layer("sql.exec_write_us_per_stmt", "us", "lower"),
    layer("sql.fused_in_us_per_key", "us", "lower"),
    layer("sql.rows_scanned_per_row_returned", "x", "lower"),
    layer("sql.plan_cache_hit_frac", "frac", "higher"),
    layer("sql.footprint_cache_hit_frac", "frac", "higher"),
    layer("sql.snapshot_us", "us", "lower"),
    layer("sql.commit_cow_us_1k", "us", "lower"),
    layer("sql.commit_cow_us_20k", "us", "lower"),
    layer("sql.seed_us_per_row", "us", "lower"),
    layer("trace.overhead_frac", "frac", "lower"),
    layer("trace.ladder_self_sum_frac", "frac", "higher"),
    layer("trace.spans", "count", "higher"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
