//! Real-threads closed-loop throughput harness (the paper's Fig. 7 setup,
//! measured for real instead of simulated).
//!
//! N worker OS threads serve M closed-loop clients against **one shared
//! deployment**. The deployment runs in real-time mode
//! ([`sloth_net::SimEnv::set_realtime`]): every round trip actually blocks
//! the issuing session for the scaled network latency, outside the
//! deployment lock, so concurrent sessions overlap their waits exactly as
//! real connections would. Two drivers are compared at equal results:
//!
//! * **eager** — the original application: standard semantics, one round
//!   trip per query ([`ExecStrategy::Original`]).
//! * **lazy-batched** — the Sloth-compiled application on the
//!   multi-session path: each page request gets its own session
//!   (query store) flushing through one shared [`Dispatcher`], one
//!   round trip per batch.
//!
//! Every rendered page is checked against the output of a serial
//! single-session reference run, so the speedup is measured **at equal
//! results**. `harness throughput` renders the figure as
//! `BENCH_throughput.json`, alongside the discrete-event simulated model
//! in [`crate::throughput`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sloth_apps::{BenchApp, Page};
use sloth_lang::{prepare_with_schema, DataLayer, ExecStrategy, OptFlags, Prepared, V};
use sloth_net::{CostModel, Dispatcher, DispatcherStats, SimEnv};
use sloth_orm::{entity, Schema};
use sloth_sql::ast::ColumnType::{Int, Text};

/// Which driver serves the pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeDriver {
    /// Stock driver, standard semantics: one round trip per query.
    Eager,
    /// Sloth batch driver through the shared dispatcher: per-session
    /// batching.
    LazyBatched,
}

impl ServeDriver {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ServeDriver::Eager => "eager",
            ServeDriver::LazyBatched => "lazy_batched",
        }
    }
}

/// Harness parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeCfg {
    /// Closed-loop clients.
    pub clients: usize,
    /// Worker OS threads serving them.
    pub threads: usize,
    /// Measurement wall-clock duration.
    pub duration: Duration,
    /// Round-trip latency of the measured deployment in milliseconds
    /// (the paper's network sweep spans 0.5–10 ms).
    pub rtt_ms: f64,
    /// Real nanoseconds slept per virtual network nanosecond (1.0 = the
    /// cost model's latency for real).
    pub realtime_scale: f64,
    /// How many of the app's pages rotate through the mix.
    pub page_mix: usize,
}

impl Default for ServeCfg {
    fn default() -> Self {
        ServeCfg {
            clients: 8,
            threads: 8,
            duration: Duration::from_millis(1_000),
            rtt_ms: 2.0,
            realtime_scale: 1.0,
            page_mix: 6,
        }
    }
}

/// One measured serving run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Driver measured.
    pub driver: &'static str,
    /// Closed-loop clients.
    pub clients: usize,
    /// Worker threads.
    pub threads: usize,
    /// Pages completed.
    pub pages: u64,
    /// Actual wall-clock seconds measured.
    pub wall_s: f64,
    /// Pages per second.
    pub pages_per_s: f64,
    /// Pages whose output differed from the serial reference (must be 0).
    pub output_mismatches: u64,
    /// Median page service time (ms).
    pub p50_ms: f64,
    /// 95th-percentile page service time (ms).
    pub p95_ms: f64,
    /// 99th-percentile page service time (ms) — the tail the paper's
    /// production framing cares about.
    pub p99_ms: f64,
    /// Backend round trips performed.
    pub round_trips: u64,
    /// Statements executed.
    pub queries: u64,
    /// Silent `BEGIN … COMMIT` blocks deferred whole across requests
    /// (lazy driver on a write mix; always 0 for the eager driver).
    pub deferred_txns: u64,
    /// Dispatcher counters (lazy driver only).
    pub dispatcher: Option<DispatcherStats>,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an unsorted sample, in place.
/// Nearest-rank on the sorted sample; 0.0 for an empty one.
fn quantile_ms(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = (q * (samples.len() - 1) as f64).round() as usize;
    samples[idx.min(samples.len() - 1)]
}

struct PreparedPage {
    name: String,
    prepared: Prepared,
    arg: i64,
    expected: Vec<String>,
}

/// Compiles the first `page_mix` pages of `app` for `strategy` and
/// records each page's serial reference output (an `Original` run on a
/// private environment — the ground truth both drivers must reproduce).
fn prepare_pages(app: &BenchApp, strategy: ExecStrategy, page_mix: usize) -> Vec<PreparedPage> {
    let template = app.fresh_env(CostModel::default());
    let db = template.snapshot_db();
    app.pages
        .iter()
        .take(page_mix.max(1))
        .map(|page| {
            let program = sloth_lang::parse_program(&page.source).expect("page parses");
            let reference =
                prepare_with_schema(&program, ExecStrategy::Original, Some(&app.schema));
            let env = SimEnv::from_database(db.clone(), CostModel::default());
            let expected = reference
                .run(&env, Arc::clone(&app.schema), vec![V::Int(page.arg)])
                .expect("reference run")
                .output;
            PreparedPage {
                name: page.name.clone(),
                prepared: prepare_with_schema(&program, strategy, Some(&app.schema)),
                arg: page.arg,
                expected,
            }
        })
        .collect()
}

/// Serves `app` with `driver` under `cfg` and measures pages/second.
///
/// Every page's output must be bit-identical to the serial reference,
/// which this function checks for every single page served. The stock
/// benchmark apps are read-only, so that holds under any interleaving;
/// the write mix ([`write_mix_app`]) is constructed so that it holds
/// there too (constant-value writes, reads only of unwritten rows or of
/// the request's own writes).
pub fn serve(app: &BenchApp, driver: ServeDriver, cfg: &ServeCfg) -> ServeOutcome {
    let strategy = match driver {
        ServeDriver::Eager => ExecStrategy::Original,
        ServeDriver::LazyBatched => ExecStrategy::Sloth(OptFlags::all()),
    };
    let pages = Arc::new(prepare_pages(app, strategy, cfg.page_mix));
    let env = app.fresh_env(CostModel::with_rtt_ms(cfg.rtt_ms));
    env.set_realtime(cfg.realtime_scale);
    let dispatcher = match driver {
        ServeDriver::Eager => None,
        ServeDriver::LazyBatched => Some(Arc::new(Dispatcher::new(env.clone()))),
    };

    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let mismatches = Arc::new(AtomicU64::new(0));
    let deferred_txns = Arc::new(AtomicU64::new(0));
    let threads = cfg.threads.max(1);
    let clients = cfg.clients.max(1);
    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let pages = Arc::clone(&pages);
            let env = env.clone();
            let schema = Arc::clone(&app.schema);
            let dispatcher = dispatcher.clone();
            let stop = Arc::clone(&stop);
            let completed = Arc::clone(&completed);
            let mismatches = Arc::clone(&mismatches);
            let deferred_txns = Arc::clone(&deferred_txns);
            std::thread::spawn(move || {
                // This worker owns clients t, t+threads, t+2·threads, …
                // and serves them round-robin; each client is closed-loop
                // (its next page starts only after the previous finished).
                // With more clients than threads this is the pooled
                // executor: each worker multiplexes its share of clients.
                let own: Vec<usize> = (t..clients).step_by(threads).collect();
                let mut latencies_ms: Vec<f64> = Vec::new();
                if own.is_empty() {
                    return latencies_ms;
                }
                let mut iter = 0u64;
                'serve: loop {
                    for &client in &own {
                        if stop.load(Ordering::Relaxed) {
                            break 'serve;
                        }
                        let page = &pages[(client + iter as usize) % pages.len()];
                        let data = match &dispatcher {
                            None => DataLayer::immediate(env.clone(), Arc::clone(&schema)),
                            Some(d) => DataLayer::dispatched(Arc::clone(d), Arc::clone(&schema)),
                        };
                        let t_page = Instant::now();
                        let result = page
                            .prepared
                            .run_with(data, vec![V::Int(page.arg)])
                            .unwrap_or_else(|e| panic!("{}: {e}", page.name));
                        latencies_ms.push(t_page.elapsed().as_secs_f64() * 1e3);
                        if result.output != page.expected {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(s) = &result.store {
                            deferred_txns.fetch_add(s.deferred_txns, Ordering::Relaxed);
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    iter += 1;
                }
                latencies_ms
            })
        })
        .collect();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let mut latencies_ms: Vec<f64> = Vec::new();
    for w in workers {
        latencies_ms.extend(w.join().expect("worker thread"));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let pages_done = completed.load(Ordering::Relaxed);
    let net = env.stats();
    ServeOutcome {
        driver: driver.name(),
        clients,
        threads,
        pages: pages_done,
        wall_s,
        pages_per_s: pages_done as f64 / wall_s,
        output_mismatches: mismatches.load(Ordering::Relaxed),
        p50_ms: quantile_ms(&mut latencies_ms, 0.50),
        p95_ms: quantile_ms(&mut latencies_ms, 0.95),
        p99_ms: quantile_ms(&mut latencies_ms, 0.99),
        round_trips: net.round_trips,
        queries: net.queries,
        deferred_txns: deferred_txns.load(Ordering::Relaxed),
        dispatcher: dispatcher.map(|d| d.stats()),
    }
}

/// One client-count point: both drivers at the same load.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Eager (original) measurement.
    pub eager: ServeOutcome,
    /// Lazy-batched (Sloth + dispatcher) measurement.
    pub lazy: ServeOutcome,
}

impl ServePoint {
    /// Lazy-batched pages/s over eager pages/s.
    pub fn speedup(&self) -> f64 {
        self.lazy.pages_per_s / self.eager.pages_per_s.max(f64::MIN_POSITIVE)
    }
}

/// The whole real-threads figure: a client sweep of both drivers.
#[derive(Debug, Clone)]
pub struct ServeFigure {
    /// Application served.
    pub app: &'static str,
    /// Pages rotating through the mix.
    pub page_mix: usize,
    /// Round-trip latency measured (ms).
    pub rtt_ms: f64,
    /// Real-time scale used.
    pub realtime_scale: f64,
    /// One point per client count.
    pub points: Vec<ServePoint>,
}

/// Worker threads backing the pooled executor: beyond this many clients,
/// workers multiplex (closed-loop clients spend most of their life
/// blocked on the wire, so a pool this size carries hundreds of them).
pub const SERVE_POOL_MAX_THREADS: usize = 32;

/// Sweeps `client_counts` over both drivers. Up to
/// [`SERVE_POOL_MAX_THREADS`] clients get a thread each; larger counts
/// run on the pooled executor.
pub fn serve_figure(app: &BenchApp, client_counts: &[usize], cfg: &ServeCfg) -> ServeFigure {
    let points = client_counts
        .iter()
        .map(|&n| {
            let point_cfg = ServeCfg {
                clients: n,
                threads: n.min(SERVE_POOL_MAX_THREADS),
                ..*cfg
            };
            ServePoint {
                clients: n,
                eager: serve(app, ServeDriver::Eager, &point_cfg),
                lazy: serve(app, ServeDriver::LazyBatched, &point_cfg),
            }
        })
        .collect();
    ServeFigure {
        app: app.name,
        page_mix: cfg.page_mix,
        rtt_ms: cfg.rtt_ms,
        realtime_scale: cfg.realtime_scale,
        points,
    }
}

/// Rows `ticket.save` pages write (constant values → any concurrent
/// interleaving, including two clients saving the same ticket, converges
/// on the same state).
const WRITE_MIX_SAVE_IDS: [i64; 2] = [3, 7];
/// Rows `ticket.audit` pages mark; disjoint from the save rows.
const WRITE_MIX_AUDIT_IDS: [i64; 2] = [20, 24];

/// The write-mix serving workload: a small ticket tracker whose pages
/// mix silent `BEGIN … COMMIT` save transactions, bare audit writes and
/// read-only board views — the transaction-scoped-laziness counterpart
/// of the read-only throughput figure.
///
/// Output determinism under concurrency is by construction, so the
/// harness's per-page equality check stays exact:
///
/// * every write stores **constant** values keyed by the page argument,
///   so replays and concurrent duplicates are idempotent;
/// * read-only pages touch only the `board` table and ticket rows no
///   page ever writes;
/// * the one read of a written row (`ticket.save`'s read-back) follows
///   that request's own update, so it observes `'done'` on every driver
///   — on the lazy path it lingers inside the deferred transaction and
///   runs after the update in the same batch.
pub fn write_mix_app() -> BenchApp {
    let mut s = Schema::new();
    s.add(entity(
        "ticket",
        "ticket",
        "id",
        &[("id", Int), ("state", Text), ("note", Text)],
        vec![],
    ));
    s.add(entity(
        "board",
        "board",
        "id",
        &[("id", Int), ("title", Text)],
        vec![],
    ));
    let schema = Arc::new(s);

    const SAVE_PAGE: &str = r#"
fn main(id) {
    exec("BEGIN");
    let before = query("SELECT state FROM ticket WHERE id = " + str(id));
    exec("UPDATE ticket SET state = 'done' WHERE id = " + str(id));
    exec("UPDATE ticket SET note = 'closed' WHERE id = " + str(id));
    let after = query("SELECT state FROM ticket WHERE id = " + str(id));
    exec("COMMIT");
    print(after);
    print("saved");
}
"#;
    const AUDIT_PAGE: &str = r#"
fn main(id) {
    let a = query("SELECT title FROM board WHERE id = " + str(id - 20));
    exec("UPDATE ticket SET note = 'seen' WHERE id = " + str(id));
    let b = query("SELECT title FROM board WHERE id = " + str(id - 19));
    print(a);
    print(b);
    print("audited");
}
"#;
    const VIEW_PAGE: &str = r#"
fn main(id) {
    let a = query("SELECT title FROM board WHERE id = " + str(id));
    let b = query("SELECT title FROM board WHERE id = " + str(id + 1));
    let c = query("SELECT state FROM ticket WHERE id = " + str(id + 40));
    print(a);
    print(b);
    print(c);
}
"#;

    let mut pages = Vec::new();
    for id in WRITE_MIX_SAVE_IDS {
        pages.push(Page {
            name: format!("ticket.save({id})"),
            source: SAVE_PAGE.to_string(),
            arg: id,
        });
    }
    for id in WRITE_MIX_AUDIT_IDS {
        pages.push(Page {
            name: format!("ticket.audit({id})"),
            source: AUDIT_PAGE.to_string(),
            arg: id,
        });
    }
    for id in [0i64, 4] {
        pages.push(Page {
            name: format!("board.view({id})"),
            source: VIEW_PAGE.to_string(),
            arg: id,
        });
    }

    BenchApp {
        name: "write_mix",
        schema,
        pages,
        seed: Box::new(|env: &SimEnv| {
            for i in 0..64 {
                env.seed_sql(&format!("INSERT INTO ticket VALUES ({i}, 'open', '-')"))
                    .expect("seed ticket");
            }
            for i in 0..16 {
                env.seed_sql(&format!("INSERT INTO board VALUES ({i}, 'b{i}')"))
                    .expect("seed board");
            }
        }),
    }
}

fn outcome_json(o: &ServeOutcome) -> String {
    let dispatcher = match &o.dispatcher {
        None => "null".to_string(),
        Some(d) => format!("{{\"flushes\": {}}}", d.flushes),
    };
    format!(
        "{{\"driver\": \"{}\", \"clients\": {}, \"threads\": {}, \"pages\": {}, \
         \"wall_s\": {:.3}, \"pages_per_s\": {:.1}, \"output_mismatches\": {}, \
         \"p50_ms\": {:.2}, \"p95_ms\": {:.2}, \"p99_ms\": {:.2}, \
         \"round_trips\": {}, \"queries\": {}, \"deferred_txns\": {}, \
         \"dispatcher\": {}}}",
        o.driver,
        o.clients,
        o.threads,
        o.pages,
        o.wall_s,
        o.pages_per_s,
        o.output_mismatches,
        o.p50_ms,
        o.p95_ms,
        o.p99_ms,
        o.round_trips,
        o.queries,
        o.deferred_txns,
        dispatcher
    )
}

impl ServeFigure {
    /// The point at `clients`, if measured.
    pub fn at(&self, clients: usize) -> Option<&ServePoint> {
        self.points.iter().find(|p| p.clients == clients)
    }

    /// Renders the `real_threads` section of `BENCH_throughput.json`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"app\": \"{}\", \"page_mix\": {}, \"rtt_ms\": {}, \"realtime_scale\": {}, \"points\": [\n",
            self.app, self.page_mix, self.rtt_ms, self.realtime_scale
        );
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"clients\": {}, \"speedup\": {:.2}, \"eager\": {}, \"lazy_batched\": {}}}{}\n",
                p.clients,
                p.speedup(),
                outcome_json(&p.eager),
                outcome_json(&p.lazy),
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sloth_apps::itracker_app;

    fn quick_cfg() -> ServeCfg {
        ServeCfg {
            duration: Duration::from_millis(600),
            // Debug builds burn real CPU per page; shrink the simulated
            // wire so the test stays fast while the trips still dominate.
            realtime_scale: 0.25,
            rtt_ms: 1.0,
            page_mix: 4,
            ..ServeCfg::default()
        }
    }

    /// The correctness half of the acceptance gate, enforced on every
    /// `cargo test` run: real threads, shared deployment, per-page output
    /// equality, and one round trip per dispatcher flush at any client
    /// count. (The ≥ 1.5× throughput ratio is asserted in release builds
    /// — see `serve_gate_throughput_ratio` — and by the CI harness run;
    /// debug-build interpreter CPU on small containers would make a
    /// wall-clock ratio assertion meaningless here.)
    #[test]
    fn serve_gate_correctness_and_coalescing() {
        let app = itracker_app();
        let cfg = quick_cfg();

        // 8 concurrent clients, both drivers: equal results.
        let eager = serve(&app, ServeDriver::Eager, &cfg);
        let lazy = serve(&app, ServeDriver::LazyBatched, &cfg);
        assert_eq!(eager.output_mismatches, 0, "{eager:?}");
        assert_eq!(lazy.output_mismatches, 0, "{lazy:?}");
        assert!(eager.pages >= 8, "eager served something: {eager:?}");
        assert!(lazy.pages >= 8, "lazy served something: {lazy:?}");

        // Tail-latency percentiles are measured and ordered.
        for o in [&eager, &lazy] {
            assert!(o.p50_ms > 0.0, "{o:?}");
            assert!(o.p50_ms <= o.p95_ms && o.p95_ms <= o.p99_ms, "{o:?}");
        }

        // The lazy driver needs far fewer round trips per page.
        let eager_tpp = eager.round_trips as f64 / eager.pages as f64;
        let lazy_tpp = lazy.round_trips as f64 / lazy.pages as f64;
        assert!(
            lazy_tpp * 2.0 < eager_tpp,
            "lazy {lazy_tpp:.1} trips/page vs eager {eager_tpp:.1}"
        );

        // Every flush is one round trip, under concurrent load…
        let d = lazy.dispatcher.expect("lazy driver has a dispatcher");
        assert!(d.flushes > 0, "{d:?}");
        assert_eq!(d.flushes, lazy.round_trips, "{d:?}");

        // …and at one client.
        let solo_cfg = ServeCfg {
            clients: 1,
            threads: 1,
            duration: Duration::from_millis(250),
            ..cfg
        };
        let solo = serve(&app, ServeDriver::LazyBatched, &solo_cfg);
        assert_eq!(solo.output_mismatches, 0);
        let d = solo.dispatcher.expect("dispatcher present");
        assert_eq!(d.flushes, solo.round_trips, "{d:?}");
    }

    /// The write-mix correctness gate: real threads serving transactional
    /// save pages, bare audit writes and read-only views concurrently on
    /// one shared deployment — every page's output still bit-equal to the
    /// serial reference, silent transactions deferred whole with their
    /// read-backs aboard, and the final ticket state exactly the
    /// constant values the pages write.
    #[test]
    fn write_mix_gate_correctness() {
        let app = write_mix_app();
        let cfg = ServeCfg {
            page_mix: app.pages.len(),
            ..quick_cfg()
        };
        let eager = serve(&app, ServeDriver::Eager, &cfg);
        let lazy = serve(&app, ServeDriver::LazyBatched, &cfg);
        assert_eq!(eager.output_mismatches, 0, "{eager:?}");
        assert_eq!(lazy.output_mismatches, 0, "{lazy:?}");
        assert!(eager.pages >= 8 && lazy.pages >= 8);

        // The lazy driver defers the save transactions whole; the eager
        // driver never does.
        assert_eq!(eager.deferred_txns, 0);
        assert!(lazy.deferred_txns > 0, "{lazy:?}");

        // Fewer trips per page even though every page carries writes.
        let eager_tpp = eager.round_trips as f64 / eager.pages as f64;
        let lazy_tpp = lazy.round_trips as f64 / lazy.pages as f64;
        assert!(
            lazy_tpp * 2.0 < eager_tpp,
            "lazy {lazy_tpp:.1} trips/page vs eager {eager_tpp:.1}"
        );
    }

    /// After any concurrent write-mix run the deployment must hold the
    /// constant post-state the pages define — no lost or phantom writes.
    #[test]
    fn write_mix_final_state_is_the_constant_post_state() {
        let app = write_mix_app();
        let cfg = ServeCfg {
            page_mix: app.pages.len(),
            duration: Duration::from_millis(400),
            realtime_scale: 0.25,
            rtt_ms: 1.0,
            ..ServeCfg::default()
        };
        let strategy = ExecStrategy::Sloth(OptFlags::all());
        let pages = Arc::new(prepare_pages(&app, strategy, cfg.page_mix));
        let env = app.fresh_env(CostModel::default());
        let dispatcher = Arc::new(Dispatcher::new(env.clone()));
        // Serve every page a few times concurrently.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pages = Arc::clone(&pages);
                let d = Arc::clone(&dispatcher);
                let schema = Arc::clone(&app.schema);
                std::thread::spawn(move || {
                    for round in 0..3 {
                        for (i, page) in pages.iter().enumerate() {
                            if (i + round + t) % 2 == 0 {
                                continue;
                            }
                            let data = DataLayer::dispatched(Arc::clone(&d), Arc::clone(&schema));
                            let r = page
                                .prepared
                                .run_with(data, vec![V::Int(page.arg)])
                                .unwrap_or_else(|e| panic!("{}: {e}", page.name));
                            assert_eq!(r.output, page.expected, "{}", page.name);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("write-mix thread");
        }
        for id in WRITE_MIX_SAVE_IDS {
            let row = env
                .query(&format!("SELECT state, note FROM ticket WHERE id = {id}"))
                .unwrap();
            assert_eq!(row.get(0, "state").unwrap().as_str(), Some("done"));
            assert_eq!(row.get(0, "note").unwrap().as_str(), Some("closed"));
        }
        for id in WRITE_MIX_AUDIT_IDS {
            let row = env
                .query(&format!("SELECT state, note FROM ticket WHERE id = {id}"))
                .unwrap();
            assert_eq!(row.get(0, "state").unwrap().as_str(), Some("open"));
            assert_eq!(row.get(0, "note").unwrap().as_str(), Some("seen"));
        }
        // Rows no page writes stay untouched.
        let row = env
            .query("SELECT state, note FROM ticket WHERE id = 40")
            .unwrap();
        assert_eq!(row.get(0, "state").unwrap().as_str(), Some("open"));
        assert_eq!(row.get(0, "note").unwrap().as_str(), Some("-"));
    }

    /// The throughput half of the acceptance gate: at 8 concurrent
    /// clients the lazy-batched driver sustains ≥ 1.5× the eager driver's
    /// pages/s. Release builds only — the measured quantity is wall-clock
    /// throughput of an optimized binary, which is what the harness and
    /// the CI release job reproduce.
    #[cfg(not(debug_assertions))]
    #[test]
    fn serve_gate_throughput_ratio() {
        let app = itracker_app();
        let cfg = ServeCfg {
            duration: Duration::from_millis(900),
            ..ServeCfg::default()
        };
        let eager = serve(&app, ServeDriver::Eager, &cfg);
        let lazy = serve(&app, ServeDriver::LazyBatched, &cfg);
        assert_eq!(eager.output_mismatches + lazy.output_mismatches, 0);
        let ratio = lazy.pages_per_s / eager.pages_per_s.max(f64::MIN_POSITIVE);
        assert!(
            ratio >= 1.5,
            "lazy {:.1} pages/s vs eager {:.1} pages/s (ratio {ratio:.2})",
            lazy.pages_per_s,
            eager.pages_per_s
        );
    }

    /// The mixed-workload throughput gate: even with every page carrying
    /// writes (and the save pages whole transactions), the lazy-batched
    /// driver sustains ≥ 1.5× eager pages/s at 8 clients. Release builds
    /// only, same rationale as `serve_gate_throughput_ratio`.
    #[cfg(not(debug_assertions))]
    #[test]
    fn write_mix_gate_throughput_ratio() {
        let app = write_mix_app();
        let cfg = ServeCfg {
            duration: Duration::from_millis(900),
            page_mix: app.pages.len(),
            ..ServeCfg::default()
        };
        let eager = serve(&app, ServeDriver::Eager, &cfg);
        let lazy = serve(&app, ServeDriver::LazyBatched, &cfg);
        assert_eq!(eager.output_mismatches + lazy.output_mismatches, 0);
        assert!(lazy.deferred_txns > 0, "{lazy:?}");
        let ratio = lazy.pages_per_s / eager.pages_per_s.max(f64::MIN_POSITIVE);
        assert!(
            ratio >= 1.5,
            "write mix: lazy {:.1} pages/s vs eager {:.1} pages/s (ratio {ratio:.2})",
            lazy.pages_per_s,
            eager.pages_per_s
        );
    }
}
