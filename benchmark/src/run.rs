//! The closed loop: client threads drain one request list, a client's next
//! request starting when its previous one returned. Wall clock is taken
//! around `Router::handle` only; checking and counting happen outside it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::plan::Req;
use crate::surface::RunResult;
use crate::trace::{Span, Trace};
use crate::workload::{Oracle, Setup, Site};

/// Counters of the page executions a client served, from each response's
/// `RunResult`.
#[derive(Default, Clone, Copy)]
pub struct PageSums {
    pub lazy_ops: u64,
    pub thunk_allocs: u64,
    pub forces: u64,
    pub registered: u64,
    pub dedup_hits: u64,
    pub batches: u64,
    pub shipped: u64,
    pub max_batch: u64,
    pub write_flushes: u64,
    pub deferred_writes: u64,
    pub deferred_txns: u64,
    pub ryw_rewrites: u64,
    pub conflict_drains: u64,
}

impl PageSums {
    fn absorb(&mut self, r: &RunResult) {
        self.lazy_ops += r.counters.lazy_ops;
        self.thunk_allocs += r.counters.thunk_allocs;
        self.forces += r.counters.forces;
        if let Some(s) = &r.store {
            self.registered += s.registered;
            self.dedup_hits += s.dedup_hits;
            self.batches += s.batches;
            self.shipped += s.queries_shipped() as u64;
            self.max_batch = self.max_batch.max(s.max_batch() as u64);
            self.write_flushes += s.write_flushes;
            self.deferred_writes += s.deferred_writes;
            self.deferred_txns += s.deferred_txns;
            self.ryw_rewrites += s.ryw_rewrites;
            self.conflict_drains += s.conflict_drains;
        }
    }

    pub fn merge(&mut self, o: &PageSums) {
        self.lazy_ops += o.lazy_ops;
        self.thunk_allocs += o.thunk_allocs;
        self.forces += o.forces;
        self.registered += o.registered;
        self.dedup_hits += o.dedup_hits;
        self.batches += o.batches;
        self.shipped += o.shipped;
        self.max_batch = self.max_batch.max(o.max_batch);
        self.write_flushes += o.write_flushes;
        self.deferred_writes += o.deferred_writes;
        self.deferred_txns += o.deferred_txns;
        self.ryw_rewrites += o.ryw_rewrites;
        self.conflict_drains += o.conflict_drains;
    }
}

/// One served request: its index in the list, its latency, its verdict.
#[derive(Clone, Copy)]
pub struct Served {
    pub req: u32,
    pub dur_ns: u64,
    /// When the response arrived, on the client's clock since the list
    /// started, less the time that client's lockstep twin has run so far
    /// (the twin is the oracle's work, not the product's; with the one
    /// client a lockstep workload has, the subtraction is exact).
    pub end_ns: u64,
    pub ok: bool,
}

/// Deployment-wide counters, by name, summed over a workload's sites.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn site_counts(sites: &[Site]) -> Counts {
    let mut c = Counts::new();
    let mut add = |k: &'static str, v: f64| *c.entry(k).or_insert(0.0) += v;
    for site in sites {
        let n = site.env.stats();
        add("round_trips", n.round_trips as f64);
        add("queries", n.queries as f64);
        add("network_ns", n.network_ns as f64);
        add("db_ns", n.db_ns as f64);
        add("app_ns", n.app_ns as f64);
        add("bytes", n.bytes as f64);
        add("fused_queries", n.fused_queries as f64);
        add("fused_groups", n.fused_groups as f64);
        add("snapshot_batches", n.snapshot_batches as f64);
        if let Some(d) = &site.dispatcher {
            let d = d.stats();
            add("flushes", d.flushes as f64);
            add("dispatches", d.dispatches as f64);
            add("coalesced_batches", d.coalesced_batches as f64);
        }
        let r = site.env.result_cache_stats();
        add("cache_hits", r.hits as f64);
        add("cache_misses", r.misses as f64);
        add("cache_invalidations", r.invalidations as f64);
        add("cache_evictions", r.evictions as f64);
        let p = site.env.plan_cache_stats();
        add("plan_hits", p.hits as f64);
        add("plan_misses", p.misses as f64);
        let f = site.env.footprint_cache_stats();
        add("footprint_hits", f.hits as f64);
        add("footprint_misses", f.misses as f64);
        if let Some(fleet) = &site.fleet {
            let s = fleet.shard_stats();
            add("shard_point", s.point_reads as f64);
            add("shard_subset", s.subset_reads as f64);
            add("shard_scatter", s.scatter_reads as f64);
            add("shard_replica", s.replica_reads as f64);
            add("shard_subprobes", s.fused_subprobes as f64);
            add("shard_wave_ns", s.parallel_wave_ns as f64);
            add("shard_busy_ns", s.parallel_busy_ns as f64);
        }
    }
    c
}

pub fn delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

pub struct Outcome {
    /// Served requests in list order: a prefix of the list.
    pub served: Vec<Served>,
    pub failed: u64,
    pub sums: PageSums,
    pub counts: Counts,
    /// One `web.handle` span per request, when a trace was given.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Wall clock from the first request to the last response.
    pub fn wall_s(&self) -> f64 {
        self.served.iter().map(|s| s.end_ns).max().unwrap_or(0) as f64 / 1e9
    }
}

pub struct ServeOpts<'a> {
    /// With a trace, every client also records a span per request as it
    /// goes: the request's interval on the trace's clock and its own
    /// session's counters. That recording is the tracing whose cost
    /// `trace.overhead_frac` reports.
    pub trace: Option<&'a Trace>,
    /// Once this much time has passed, the list is cut at the next
    /// multiple of `cut_at` requests: a sandbox running far slower than
    /// the one the list was sized on must not overrun the time budget.
    /// `cut_at` is at least the client count.
    pub stop_after: Option<Duration>,
    pub cut_at: usize,
}

/// Serves `list` (or a prefix, see [`ServeOpts::stop_after`]) with the
/// workload's client count and checks every body.
pub fn serve(setup: &Setup, list: &[Req], opts: &ServeOpts) -> Outcome {
    let sites = &setup.sites;
    let next = AtomicUsize::new(0);
    // The client that draws the first index of a chunk decides whether
    // the list ends there and publishes `decided`; clients holding later
    // indices of that chunk wait for the decision (a clock read away), so
    // what is served is exactly a prefix.
    let limit = AtomicUsize::new(list.len());
    let decided = AtomicUsize::new(0);
    let cut_at = opts.cut_at.max(setup.shape.clients);
    let before = site_counts(sites);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Served>, PageSums, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..setup.shape.clients)
            .map(|client| {
                let (next, limit, decided) = (&next, &limit, &decided);
                scope.spawn(move || {
                    let mut served = Vec::with_capacity(list.len() / setup.shape.clients + 1);
                    let mut sums = PageSums::default();
                    let mut twin = Duration::ZERO;
                    let mut spans = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let chunk_start = i / cut_at * cut_at;
                        if i == chunk_start {
                            if opts.stop_after.is_some_and(|d| t0.elapsed() > d) {
                                limit.fetch_min(i, Ordering::SeqCst);
                            }
                            decided.fetch_max(chunk_start + cut_at, Ordering::SeqCst);
                        } else {
                            while decided.load(Ordering::SeqCst) <= chunk_start {
                                std::hint::spin_loop();
                            }
                        }
                        if i >= limit.load(Ordering::SeqCst) {
                            break;
                        }
                        let req = &list[i];
                        let site = &sites[req.site as usize];
                        let http = site.request(req);
                        let start = Instant::now();
                        let rsp = site.router.handle(&http);
                        let end = Instant::now();
                        let dur = end - start;
                        let twin_before = twin;
                        let ok = rsp.ok()
                            && match &setup.oracle {
                                Oracle::Static { expected } => {
                                    expected.get(req).is_some_and(|body| *body == rsp.body)
                                }
                                Oracle::Lockstep(twins) => {
                                    let reference = twins[req.site as usize].router.handle(&http);
                                    twin += end.elapsed();
                                    reference.ok() && reference.body == rsp.body
                                }
                            };
                        if let Some(result) = &rsp.result {
                            sums.absorb(result);
                        }
                        if let Some(trace) = opts.trace {
                            let start_ns = trace.ns_at(start);
                            let store = rsp.result.as_ref().and_then(|r| r.store.as_ref());
                            spans.push(Span {
                                id: 0,
                                name: "web.handle",
                                request_id: i as u64,
                                start_ns,
                                end_ns: start_ns + dur.as_nanos() as u64,
                                parent: None,
                                counters: vec![
                                    ("client", client as u64),
                                    ("site", u64::from(req.site)),
                                    ("route", u64::from(req.route)),
                                    ("ok", u64::from(ok)),
                                    ("batches", store.map_or(0, |s| s.batches)),
                                    (
                                        "statements",
                                        store.map_or(0, |s| s.queries_shipped() as u64),
                                    ),
                                    ("deferred_writes", store.map_or(0, |s| s.deferred_writes)),
                                ],
                            });
                        }
                        served.push(Served {
                            req: i as u32,
                            dur_ns: dur.as_nanos() as u64,
                            end_ns: (end - t0).saturating_sub(twin_before).as_nanos() as u64,
                            ok,
                        });
                    }
                    (served, sums, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let counts = delta(&site_counts(sites), &before);
    let mut served = Vec::with_capacity(list.len());
    let mut sums = PageSums::default();
    let mut spans = Vec::new();
    for (s, p, client_spans) in per_client {
        served.extend_from_slice(&s);
        sums.merge(&p);
        spans.extend(client_spans);
    }
    served.sort_by_key(|s| s.req);
    // Indices are handed out in order, so what was served is a prefix.
    debug_assert!(served.iter().enumerate().all(|(i, s)| s.req as usize == i));
    let failed = served.iter().filter(|s| !s.ok).count() as u64;
    Outcome {
        served,
        failed,
        sums,
        counts,
        spans,
    }
}

/// Compares the measured deployments' end state with a serial replay
/// of what was executed (or with the lockstep twin's). Returns the
/// mismatching checksum lines (empty = equal).
pub fn end_state_mismatches(setup: &Setup, executed: &[&[Req]]) -> Vec<String> {
    if setup.sites.iter().all(|s| s.checksums.is_empty()) {
        return Vec::new();
    }
    let live: Vec<String> = setup.sites.iter().flat_map(Site::end_state).collect();
    let reference: Vec<String> = match &setup.oracle {
        Oracle::Static { .. } => setup.replayed_end_state(executed),
        Oracle::Lockstep(twins) => twins.iter().flat_map(Site::end_state).collect(),
    };
    live.iter()
        .zip(&reference)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("measured [{a}] reference [{b}]"))
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
