//! One workload, one process: set up, serve, check, and turn what was
//! counted into the named metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::ladder;
use crate::plan::{Req, CHUNK};
use crate::run::{self, Counts, Outcome, ServeOpts};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Trace;
use crate::workload::{self, Setup};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/50 length, one set-up: checks the oracle, measures nothing useful.
    pub smoke: bool,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In the order of the spec table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable context: sample counts, quartiles, per-class medians.
    pub info: Vec<String>,
}

impl Report {
    /// The contract's result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn latencies_ms(out: &Outcome) -> Vec<f64> {
    let mut v: Vec<f64> = out.served.iter().map(|s| s.dur_ns as f64 / 1e6).collect();
    stats::sort(&mut v);
    v
}

/// Median latency per page class, and over write pages only.
fn class_lines(setup: &Setup, list: &[Req], out: &Outcome) -> (Vec<String>, f64) {
    let mut by_class: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut writes = Vec::new();
    for s in &out.served {
        let req = &list[s.req as usize];
        let route = &setup.sites[req.site as usize].routes[req.route as usize];
        let ms = s.dur_ns as f64 / 1e6;
        by_class.entry(route.class).or_default().push(ms);
        if route.write {
            writes.push(ms);
        }
    }
    let lines = by_class
        .into_iter()
        .map(|(class, mut v)| {
            stats::sort(&mut v);
            let (q1, q3) = stats::quartiles(&v);
            format!(
                "class {class}: n={} p50={:.3} ms q1={:.3} q3={:.3} p{}={:.3}",
                v.len(),
                stats::median(&v),
                q1,
                q3,
                stats::tail_percentile(v.len()),
                stats::percentile(&v, stats::tail_percentile(v.len()))
            )
        })
        .collect();
    stats::sort(&mut writes);
    (lines, stats::median(&writes))
}

fn fill(
    table: &'static [MetricSpec],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect()
}

/// Serves warm-up and `lists`, then verifies the end state. Failures are
/// wrong or failed responses plus mismatching checksum lines, over
/// responses plus checksum lines.
struct Served {
    outcomes: Vec<Outcome>,
    attempted: u64,
    failed: u64,
    info: Vec<String>,
}

fn serve_all(setup: &Setup, lists: &[(&[Req], ServeOpts)]) -> Served {
    let unbounded = ServeOpts {
        trace: None,
        stop_after: None,
        cut_at: 0,
    };
    let warm = run::serve(setup, &setup.plan.warmup, &unbounded);
    let outcomes: Vec<Outcome> = lists
        .iter()
        .map(|(l, opts)| run::serve(setup, l, opts))
        .collect();
    let mut executed: Vec<&[Req]> = vec![&setup.plan.warmup];
    executed.extend(
        lists
            .iter()
            .zip(&outcomes)
            .map(|((l, _), o)| &l[..o.served.len()]),
    );
    let mismatches = run::end_state_mismatches(setup, &executed);
    let checks = setup
        .sites
        .iter()
        .map(|s| s.checksums.len() as u64)
        .sum::<u64>();
    let requests: u64 = outcomes.iter().map(|o| o.served.len() as u64).sum();
    let mut info: Vec<String> = mismatches
        .iter()
        .map(|m| format!("end state differs: {m}"))
        .collect();
    for out in std::iter::once(&warm).chain(&outcomes) {
        if let Some(bad) = out.served.iter().find(|s| !s.ok) {
            info.push(format!("first failed request of a list: index {}", bad.req));
        }
    }
    Served {
        attempted: warm.served.len() as u64 + requests + checks,
        failed: warm.failed
            + outcomes.iter().map(|o| o.failed).sum::<u64>()
            + mismatches.len() as u64,
        outcomes,
        info,
    }
}

/// Median, p95 and rate of every whole chunk of [`CHUNK`] consecutive
/// requests (of everything served, when that is less than one chunk).
struct Chunks {
    p50_ms: Vec<f64>,
    p95_ms: Vec<f64>,
    per_s: Vec<f64>,
}

fn chunks(out: &Outcome) -> Chunks {
    let size = CHUNK.min(out.served.len()).max(1);
    let mut c = Chunks {
        p50_ms: Vec::new(),
        p95_ms: Vec::new(),
        per_s: Vec::new(),
    };
    let mut chunk_began_ns = 0;
    for chunk in out.served.chunks_exact(size) {
        let mut lat: Vec<f64> = chunk.iter().map(|s| s.dur_ns as f64 / 1e6).collect();
        stats::sort(&mut lat);
        c.p50_ms.push(stats::percentile(&lat, 50.0));
        c.p95_ms.push(stats::percentile(&lat, 95.0));
        // Two clients overlap at a chunk's edges: a chunk lasts from the
        // last response of the chunk before it to its own last response.
        let ended_ns = chunk.iter().map(|s| s.end_ns).max().unwrap_or(0);
        c.per_s.push(ratio(
            chunk.len() as f64,
            ended_ns.saturating_sub(chunk_began_ns) as f64 / 1e9,
        ));
        chunk_began_ns = ended_ns;
    }
    for v in [&mut c.p50_ms, &mut c.p95_ms, &mut c.per_s] {
        stats::sort(v);
    }
    c
}

pub fn measure(args: &Args) -> Report {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &Args) -> Report {
    let scale = args.seconds * if args.smoke { 0.02 } else { 1.0 };
    // Set-up is short, so one timing of it is noisy: repeat it, at least
    // three times and until five are done or their total passes three
    // seconds. Each is dropped before the next is built.
    let mut setup_s = Vec::new();
    let mut setup = None;
    loop {
        drop(setup.take());
        let s = workload::setup(&args.workload, scale, args.seed);
        setup_s.push(s.times.total_s);
        setup = Some(s);
        let enough =
            setup_s.len() >= 5 || (setup_s.len() >= 3 && setup_s.iter().sum::<f64>() >= 3.0);
        if args.smoke || enough {
            break;
        }
    }
    let setup = setup.expect("at least one set-up");
    // The list is sized to take `--seconds` on the sandbox it was
    // calibrated on; on a much slower one it is cut short.
    let bounded = ServeOpts {
        trace: None,
        stop_after: Some(Duration::from_secs_f64(args.seconds * 1.3)),
        cut_at: CHUNK,
    };
    let served = serve_all(&setup, &[(&setup.plan.timed, bounded)]);
    let rss = run::rss_peak_mb();
    let out = &served.outcomes[0];
    let lat = latencies_ms(out);
    let n = lat.len() as f64;
    let by_chunk = chunks(out);
    stats::sort(&mut setup_s);

    // Every timing is a quartile of per-chunk (per-set-up) values, taken
    // on the undisturbed side: this sandbox loses 5-10 % of its CPU to
    // other tenants in bursts of seconds, which only ever slow a chunk
    // down, so the first quartile of the chunk medians estimates the
    // latency the system has when left alone far more steadily than the
    // median over all requests does. The whole-run figures are printed
    // beside them.
    let mut v = BTreeMap::new();
    v.insert("page_p50_ms", stats::quartiles(&by_chunk.p50_ms).0);
    v.insert("page_p95_ms", stats::quartiles(&by_chunk.p95_ms).0);
    v.insert("pages_per_s", stats::quartiles(&by_chunk.per_s).1);
    v.insert("trips_per_page", ratio(out.counts["round_trips"], n));
    v.insert("rss_peak_mb", rss);
    v.insert("setup_s", stats::quartiles(&setup_s).0);

    let (q1, q3) = stats::quartiles(&lat);
    let tail = stats::tail_percentile(lat.len());
    let mut info = vec![
        format!(
            "{} seed={} clients={} cores={} served={} of {} wall={:.3} s list_hash={:016x}",
            args.workload,
            args.seed,
            setup.shape.clients,
            std::thread::available_parallelism().map_or(0, |p| p.get()),
            lat.len(),
            setup.plan.timed.len(),
            out.wall_s(),
            setup.plan.hash()
        ),
        format!(
            "whole run: n={} q1={q1:.3} p50={:.3} q3={q3:.3} p95={:.3} p{tail}={:.3} ms (highest percentile with >= 10 samples beyond it), {:.1} pages/s",
            lat.len(),
            stats::median(&lat),
            stats::percentile(&lat, 95.0),
            stats::percentile(&lat, tail),
            ratio(n, out.wall_s())
        ),
        format!("chunk p50 ms: {:.3?}", by_chunk.p50_ms),
        format!("chunk p95 ms: {:.3?}", by_chunk.p95_ms),
        format!("chunk pages/s: {:.1?}", by_chunk.per_s),
        format!(
            "failed_frac={} ({} of {})",
            ratio(served.failed as f64, served.attempted as f64),
            served.failed,
            served.attempted
        ),
        format!("setup_s samples: {setup_s:.3?}"),
    ];
    let (classes, write_p50) = class_lines(&setup, &setup.plan.timed, out);
    info.extend(classes);
    info.push(format!("write_p50_ms={write_p50:.3}"));
    info.extend(served.info);
    Report {
        correct: served.failed == 0,
        attempted: served.attempted,
        failed: served.failed,
        metrics: fill(&END_TO_END, &v),
        info,
    }
}

/// The first `k` requests under the stock driver on a private copy, with
/// the workload's own round-trip setting: the paper's baseline.
fn eager_pass(setup: &Setup, k: usize) -> (f64, f64) {
    let sites: Vec<workload::Site> = setup
        .apps
        .iter()
        .zip(&setup.eager_pages)
        .zip(&setup.templates)
        .map(|((app, pages), template)| {
            let env = workload::copy_of(template);
            if setup.shape.realtime {
                env.set_realtime(1.0);
            }
            workload::eager_site(app, pages, env)
        })
        .collect();
    let list = &setup.plan.timed[..k.min(setup.plan.timed.len())];
    let mut lat = Vec::with_capacity(list.len());
    for req in list {
        let site = &sites[req.site as usize];
        let http = site.request(req);
        let t = Instant::now();
        let rsp = site.router.handle(&http);
        lat.push(t.elapsed().as_nanos() as f64 / 1e6);
        assert!(rsp.ok(), "eager pass failed on {req:?}: {}", rsp.body);
    }
    let trips: u64 = sites.iter().map(|s| s.env.stats().round_trips).sum();
    stats::sort(&mut lat);
    (stats::median(&lat), ratio(trips as f64, list.len() as f64))
}

fn add_counts(a: &Counts, b: &Counts) -> Counts {
    a.iter()
        .map(|(k, v)| (*k, v + b.get(k).copied().unwrap_or(0.0)))
        .collect()
}

fn traced(args: &Args) -> Report {
    // Half the untraced length, in five parts: a lead-in, then plain,
    // traced, traced, plain. The lead-in takes what is left of warming up
    // (it is served and checked but left out of the comparison), and the
    // symmetric order lets drift along the run (caches filling, tables
    // growing) fall on both modes alike.
    let scale = args.seconds * 0.5 * if args.smoke { 0.04 } else { 1.0 };
    let setup = workload::setup(&args.workload, scale, args.seed);
    let timed = &setup.plan.timed;
    let unit = setup.plan.unit;
    let groups = timed.len() / unit;
    // Rounded so that a single group is a traced one.
    let cut = |fifth: usize| (groups * fifth + 2) / 5 * unit;
    let parts: Vec<&[Req]> = (0..5).map(|q| &timed[cut(q)..cut(q + 1)]).collect();
    const TRACED: [bool; 5] = [false, false, true, true, false];
    let mut trace = Trace::new();
    let opts = |traced: bool| ServeOpts {
        trace: traced.then_some(&trace),
        stop_after: None,
        cut_at: 0,
    };
    let lists: Vec<(&[Req], ServeOpts)> = parts
        .iter()
        .zip(TRACED)
        .map(|(part, traced)| (*part, opts(traced)))
        .collect();
    let mut served = serve_all(&setup, &lists);
    for out in &mut served.outcomes {
        trace.adopt(std::mem::take(&mut out.spans));
    }
    // Pages per second of the parts served in one mode, lead-in excluded.
    let rate = |traced: bool| {
        let of_mode = || {
            served
                .outcomes
                .iter()
                .zip(TRACED)
                .skip(1)
                .filter(move |(_, t)| *t == traced)
                .map(|(o, _)| o)
        };
        ratio(
            of_mode().map(|o| o.served.len() as f64).sum(),
            of_mode().map(Outcome::wall_s).sum(),
        )
    };
    let (plain_rate, spanned_rate) = (rate(false), rate(true));

    // Counts come from all five parts; latencies from the traced ones.
    let mut c = Counts::new();
    let mut s = run::PageSums::default();
    let (mut n, mut page_ns, mut write_pages) = (0.0, 0.0, 0.0);
    let mut lat = Vec::new();
    let mut write_lat = Vec::new();
    for ((out, part), traced) in served.outcomes.iter().zip(&parts).zip(TRACED) {
        c = add_counts(&out.counts, &c);
        s.merge(&out.sums);
        n += out.served.len() as f64;
        for r in &out.served {
            let req = &part[r.req as usize];
            let write = setup.sites[req.site as usize].routes[req.route as usize].write;
            page_ns += r.dur_ns as f64;
            write_pages += f64::from(u8::from(write));
            if traced {
                lat.push(r.dur_ns as f64 / 1e6);
                if write {
                    write_lat.push(r.dur_ns as f64 / 1e6);
                }
            }
        }
    }
    stats::sort(&mut lat);
    stats::sort(&mut write_lat);
    let write_p50 = stats::median(&write_lat);

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("web.write_page_p50_ms", write_p50);
    v.insert(
        "lang.compile_ms_per_page",
        ratio(
            setup.times.compile_s * 1e3,
            setup.times.pages_compiled as f64,
        ),
    );
    v.insert(
        "lang.thunk_allocs_per_page",
        ratio(s.thunk_allocs as f64, n),
    );
    v.insert("lang.forces_per_page", ratio(s.forces as f64, n));
    v.insert("lang.lazy_ops_per_page", ratio(s.lazy_ops as f64, n));
    v.insert("core.batches_per_page", ratio(s.batches as f64, n));
    v.insert(
        "core.mean_batch_size",
        ratio(s.shipped as f64, s.batches as f64),
    );
    v.insert("core.max_batch", s.max_batch as f64);
    v.insert(
        "core.dedup_hit_frac",
        ratio(s.dedup_hits as f64, s.registered as f64),
    );
    v.insert(
        "core.deferred_writes_per_page",
        ratio(s.deferred_writes as f64, n),
    );
    v.insert(
        "core.deferred_txns_per_page",
        ratio(s.deferred_txns as f64, n),
    );
    v.insert(
        "core.ryw_rewrites_per_page",
        ratio(s.ryw_rewrites as f64, n),
    );
    v.insert(
        "core.conflict_drains_per_page",
        ratio(s.conflict_drains as f64, n),
    );
    v.insert(
        "core.write_flushes_per_page",
        ratio(s.write_flushes as f64, n),
    );
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    v.insert(
        "net.fused_frac",
        ratio(get("fused_queries"), get("queries")),
    );
    v.insert("net.fused_groups_per_page", ratio(get("fused_groups"), n));
    v.insert("net.bytes_per_page", ratio(get("bytes"), n));
    v.insert(
        "net.snapshot_batch_frac",
        ratio(get("snapshot_batches"), get("round_trips")),
    );
    v.insert(
        "net.dispatch_coalesced_frac",
        ratio(get("coalesced_batches"), get("flushes")),
    );
    v.insert(
        "net.dispatch_trips_saved_frac",
        ratio(get("flushes") - get("dispatches"), get("flushes")),
    );
    v.insert(
        "net.cache_hit_frac",
        ratio(get("cache_hits"), get("cache_hits") + get("cache_misses")),
    );
    v.insert(
        "net.cache_evictions_per_kpage",
        ratio(get("cache_evictions") * 1e3, n),
    );
    v.insert(
        "net.cache_invalidations_per_write",
        ratio(get("cache_invalidations"), write_pages),
    );
    let routed =
        get("shard_point") + get("shard_subset") + get("shard_scatter") + get("shard_replica");
    v.insert("net.shard_point_frac", ratio(get("shard_point"), routed));
    v.insert(
        "net.shard_scatter_frac",
        ratio(get("shard_scatter"), routed),
    );
    v.insert(
        "net.shard_subprobes_per_page",
        ratio(get("shard_subprobes"), n),
    );
    v.insert(
        "net.shard_wave_overlap",
        ratio(get("shard_busy_ns"), get("shard_wave_ns")),
    );
    // The model's CPU (app + db) over the CPU a stopwatch saw: page time
    // less the nominal network time where round trips really sleep.
    let slept = if setup.shape.realtime {
        get("network_ns")
    } else {
        0.0
    };
    v.insert(
        "net.model_cpu_ratio",
        ratio(get("app_ns") + get("db_ns"), page_ns - slept),
    );
    v.insert("net.virtual_db_ms_per_page", ratio(get("db_ns") / 1e6, n));
    v.insert(
        "net.virtual_network_ms_per_page",
        ratio(get("network_ns") / 1e6, n),
    );
    v.insert("net.virtual_app_ms_per_page", ratio(get("app_ns") / 1e6, n));
    v.insert(
        "sql.plan_cache_hit_frac",
        ratio(get("plan_hits"), get("plan_hits") + get("plan_misses")),
    );
    v.insert(
        "sql.footprint_cache_hit_frac",
        ratio(
            get("footprint_hits"),
            get("footprint_hits") + get("footprint_misses"),
        ),
    );
    v.insert(
        "sql.seed_us_per_row",
        ratio(setup.times.seed_s * 1e6, setup.times.rows_seeded as f64),
    );
    v.insert(
        "trace.overhead_frac",
        ratio(plain_rate - spanned_rate, plain_rate),
    );

    let (eager_p50, eager_trips) = eager_pass(&setup, if args.smoke { 20 } else { 150 });
    let lazy_p50 = stats::percentile(&lat, 50.0);
    v.insert("lang.eager_page_p50_ms", eager_p50);
    v.insert("lang.eager_trips_per_page", eager_trips);
    v.insert("lang.speedup_vs_eager", ratio(eager_p50, lazy_p50));

    let batch_size = v["core.mean_batch_size"].round() as usize;
    let ladder = ladder::run(
        &setup,
        &args.workload,
        batch_size,
        args.seed,
        args.smoke,
        &mut trace,
    );
    v.extend(ladder);
    v.insert("trace.spans", trace.spans.len() as f64);

    let mut info = vec![
        format!(
            "{} traced seed={} requests={n}: plain at {plain_rate:.1}/s, with spans at {spanned_rate:.1}/s; lazy p50 {lazy_p50:.3} ms against eager {eager_p50:.3} ms",
            args.workload, args.seed
        ),
        format!("ladder: batches of {batch_size} statements"),
    ];
    let own = trace.self_ns_by_name();
    let mut rungs: Vec<_> = own
        .iter()
        .filter(|(k, _)| k.starts_with("ladder."))
        .collect();
    rungs.sort();
    for (name, ns) in rungs {
        info.push(format!("self time {name}: {:.3} ms", *ns as f64 / 1e6));
    }
    let dir = if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out"
    } else {
        "out"
    };
    let path = std::path::Path::new(dir).join(format!("trace-{}.json", args.workload));
    match trace.write_json(&path, &args.workload, args.seed) {
        Ok(()) => info.push(format!(
            "{} spans written to {}",
            trace.spans.len(),
            path.display()
        )),
        Err(e) => info.push(format!("could not write {}: {e}", path.display())),
    }
    info.extend(served.info);
    Report {
        correct: served.failed == 0,
        attempted: served.attempted,
        failed: served.failed,
        metrics: fill(&PER_LAYER, &v),
        info,
    }
}
