//! The five workloads: deployments built with default constructors, pages
//! compiled once, and the oracle every response is checked against.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::plan::{self, OwnRoutes, Plan, Req, RouteInfo};
use crate::surface::{
    itracker_app, openmrs_app, parse_program, prepare_with_schema, seed_tpcc, tpcc_schema,
    tpcc_shard_spec, tpcc_transactions, BenchApp, CostModel, Dispatcher, ExecStrategy, HttpRequest,
    OptFlags, Prepared, Router, Schema, ShardedEnv, SimEnv, V,
};

/// Shards of the `tpcc_sharded` fleet and warehouses seeded on it.
const TPCC_SHARDS: usize = 4;
const TPCC_WAREHOUSES: usize = 4;

/// How a workload loads the product. These are the only switches the
/// benchmark sets on a measured deployment.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Closed-loop client threads (at most the sandbox's two cores).
    pub clients: usize,
    /// `set_realtime(1.0)`: a round trip sleeps its 0.5 ms for real.
    pub realtime: bool,
    /// `set_result_cache(true)`.
    pub cache: bool,
    pub sharded: bool,
}

pub fn shape(workload: &str) -> Shape {
    let base = Shape {
        clients: 2,
        realtime: true,
        cache: false,
        sharded: false,
    };
    match workload {
        "cpu_pages" => Shape {
            realtime: false,
            ..base
        },
        // One client: a TPC-C transaction's output depends on the order
        // of the ones before it.
        "tpcc_sharded" => Shape {
            clients: 1,
            sharded: true,
            ..base
        },
        "hot_cached" => Shape {
            cache: true,
            ..base
        },
        _ => base,
    }
}

/// An application as the benchmark deploys it: schema, page sources in
/// route order, the seeder, and the checksum queries over every table a
/// page of the workload writes.
pub struct App {
    pub schema: Arc<Schema>,
    pub routes: Vec<RouteInfo>,
    sources: Vec<String>,
    seed: Box<dyn Fn(&SimEnv) + Send + Sync>,
    pub checksums: Vec<&'static str>,
}

fn from_bench_app(app: BenchApp, class: &'static str) -> App {
    let BenchApp {
        schema,
        pages,
        seed,
        ..
    } = app;
    let ddl_schema = Arc::clone(&schema);
    App {
        routes: pages
            .iter()
            .map(|p| RouteInfo {
                name: p.name.clone(),
                own_arg: p.arg,
                class,
                write: false,
            })
            .collect(),
        sources: pages.into_iter().map(|p| p.source).collect(),
        seed: Box::new(move |env| {
            for ddl in ddl_schema.ddl() {
                env.seed_sql(&ddl).expect("schema DDL");
            }
            seed(env);
        }),
        schema,
        checksums: Vec::new(),
    }
}

impl App {
    /// Appends benchmark-owned pages and more seeding.
    fn extend(
        mut self,
        pages: &[(&str, &'static str, bool, &str)],
        more_seed: Vec<String>,
        checksums: Vec<&'static str>,
    ) -> App {
        for (name, class, write, source) in pages {
            self.routes.push(RouteInfo {
                name: (*name).to_string(),
                own_arg: 1,
                class,
                write: *write,
            });
            self.sources.push((*source).to_string());
        }
        let base = self.seed;
        self.seed = Box::new(move |env| {
            base(env);
            for sql in &more_seed {
                env.seed_sql(sql).expect("benchmark seed SQL");
            }
        });
        self.checksums = checksums;
        self
    }

    fn own_routes(&self, owned: usize) -> OwnRoutes {
        OwnRoutes {
            first: (self.routes.len() - owned) as u16,
        }
    }
}

fn tpcc_app() -> App {
    let txns = tpcc_transactions();
    let class = [
        "new_order",
        "order_status",
        "stock_level",
        "payment",
        "delivery",
    ];
    App {
        schema: tpcc_schema(),
        routes: txns
            .iter()
            .zip(class)
            .map(|((name, _), class)| RouteInfo {
                name: (*name).to_string(),
                own_arg: 0,
                class,
                write: !matches!(class, "order_status" | "stock_level"),
            })
            .collect(),
        sources: txns.into_iter().map(|(_, src)| src).collect(),
        seed: Box::new(|env| seed_tpcc(env, TPCC_WAREHOUSES)),
        checksums: vec![
            "SELECT COUNT(*) FROM warehouse",
            "SELECT SUM(ytd) FROM warehouse",
            "SELECT SUM(next_o_id) FROM district",
            "SELECT SUM(ytd) FROM district",
            "SELECT SUM(balance) FROM customer",
            "SELECT SUM(quantity) FROM stock",
            "SELECT COUNT(*) FROM orders",
            "SELECT SUM(carrier_id) FROM orders",
            "SELECT COUNT(*) FROM order_line",
            "SELECT SUM(amount) FROM order_line",
            "SELECT COUNT(*) FROM history",
            "SELECT SUM(amount) FROM history",
        ],
    }
}

/// The applications of a workload and its request list.
pub fn define(workload: &str, scale: f64, seed: u64) -> (Vec<App>, Plan) {
    match workload {
        "read_pages" | "cpu_pages" => {
            let apps = vec![
                from_bench_app(itracker_app(), "itracker"),
                from_bench_app(openmrs_app(), "openmrs"),
            ];
            let sites: Vec<Vec<RouteInfo>> = apps.iter().map(|a| a.routes.clone()).collect();
            let rounds_per_s = if workload == "read_pages" { 1.0 } else { 2.2 };
            let plan = plan::page_rounds(&sites, rounds_per_s, scale, seed);
            (apps, plan)
        }
        "write_big" => {
            let app = from_bench_app(itracker_app(), "itracker").extend(
                &[
                    ("issue.save", "save", true, plan::ISSUE_SAVE),
                    ("issue.triage", "triage", true, plan::ISSUE_TRIAGE),
                    ("issue.view", "view", false, plan::ISSUE_VIEW),
                ],
                plan::grow_issue_sql(),
                vec![
                    "SELECT COUNT(*) FROM issue",
                    "SELECT SUM(status) FROM issue",
                    "SELECT SUM(severity) FROM issue",
                ],
            );
            let plan = plan::write_big(&app.own_routes(3), scale, seed);
            (vec![app], plan)
        }
        "tpcc_sharded" => (vec![tpcc_app()], plan::tpcc(scale, seed)),
        "hot_cached" => {
            let app = from_bench_app(itracker_app(), "itracker").extend(
                &[
                    ("note.view", "note_view", false, plan::NOTE_VIEW),
                    ("note.touch", "note_touch", true, plan::NOTE_TOUCH),
                ],
                plan::note_table_sql(),
                vec![
                    "SELECT COUNT(*) FROM bench_note",
                    "SELECT SUM(seen) FROM bench_note",
                ],
            );
            let plan = plan::hot_cached(&app.routes, &app.own_routes(2), scale, seed);
            (vec![app], plan)
        }
        other => panic!("unknown workload {other}"),
    }
}

/// One deployment with its router. `fleet` and `dispatcher` are kept for
/// their statistics getters.
pub struct Site {
    pub env: SimEnv,
    pub fleet: Option<ShardedEnv>,
    pub dispatcher: Option<Arc<Dispatcher>>,
    pub router: Router,
    pub schema: Arc<Schema>,
    pub routes: Vec<RouteInfo>,
    pub checksums: Vec<&'static str>,
}

impl Site {
    /// Serves one request through the funnel.
    pub fn request(&self, req: &Req) -> HttpRequest {
        HttpRequest::with_args(
            self.routes[req.route as usize].name.clone(),
            vec![V::Int(req.arg)],
        )
    }

    /// The checksum rows of every written table, rendered.
    pub fn end_state(&self) -> Vec<String> {
        self.env.set_realtime(0.0);
        self.checksums
            .iter()
            .map(|sql| match self.env.query(sql) {
                Ok(rs) => format!("{sql} -> {:?}", rs.rows),
                Err(e) => format!("{sql} -> error {e}"),
            })
            .collect()
    }
}

fn compile(app: &App, strategy: ExecStrategy) -> Vec<Arc<Prepared>> {
    app.sources
        .iter()
        .map(|src| {
            let program = parse_program(src).expect("page parses");
            Arc::new(prepare_with_schema(&program, strategy, Some(&app.schema)))
        })
        .collect()
}

fn mount(mut router: Router, app: &App, pages: &[Arc<Prepared>], lazy: bool) -> Router {
    for (route, page) in app.routes.iter().zip(pages) {
        router.mount(route.name.clone(), Arc::clone(page), lazy);
    }
    router
}

/// The measured configuration: `Router::dispatched(Dispatcher::new(env))`
/// over pages compiled with `ExecStrategy::Sloth(OptFlags::all())`.
pub fn lazy_site(
    app: &App,
    pages: &[Arc<Prepared>],
    env: SimEnv,
    fleet: Option<ShardedEnv>,
) -> Site {
    let dispatcher = Arc::new(Dispatcher::new(env.clone()));
    let router = Router::dispatched(Arc::clone(&dispatcher), Arc::clone(&app.schema));
    Site {
        router: mount(router, app, pages, true),
        env,
        fleet,
        dispatcher: Some(dispatcher),
        schema: Arc::clone(&app.schema),
        routes: app.routes.clone(),
        checksums: app.checksums.clone(),
    }
}

/// The reference: the stock driver, `ExecStrategy::Original`, one server.
pub fn eager_site(app: &App, pages: &[Arc<Prepared>], env: SimEnv) -> Site {
    let router = Router::new(env.clone(), Arc::clone(&app.schema));
    Site {
        router: mount(router, app, pages, false),
        env,
        fleet: None,
        dispatcher: None,
        schema: Arc::clone(&app.schema),
        routes: app.routes.clone(),
        checksums: app.checksums.clone(),
    }
}

/// A fresh deployment of the workload's first application, of the
/// workload's own kind: a copy of the seeded template, or a newly seeded
/// fleet. The ladder gives every rung one.
pub fn fresh_deployment(setup: &Setup) -> SimEnv {
    if setup.shape.sharded {
        // The handle keeps the fleet alive.
        let env = ShardedEnv::new(CostModel::default(), tpcc_shard_spec(), TPCC_SHARDS).handle();
        (setup.apps[0].seed)(&env);
        env
    } else {
        copy_of(&setup.templates[0])
    }
}

/// A private single-server copy of a seeded deployment.
pub fn copy_of(template: &SimEnv) -> SimEnv {
    SimEnv::from_database(template.snapshot_db(), CostModel::default())
}

pub enum Oracle {
    /// One reference body per distinct request, from a serial
    /// `ExecStrategy::Original` replay on a private copy. Valid where no
    /// interleaving changes a body. The end state is checked against a
    /// second serial replay, of the writes actually served
    /// ([`Setup::replayed_end_state`]).
    Static { expected: HashMap<Req, String> },
    /// An eager single-server twin replayed in lockstep, outside the timed
    /// span: every transaction's body and the end state must match it.
    Lockstep(Vec<Site>),
}

#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub seed_s: f64,
    pub compile_s: f64,
    pub rows_seeded: u64,
    pub pages_compiled: u64,
}

pub struct Setup {
    pub shape: Shape,
    pub sites: Vec<Site>,
    pub plan: Plan,
    pub oracle: Oracle,
    /// Seeded single-server templates and eager pages, kept for the traced
    /// pass (eager comparison, ladder clones).
    pub templates: Vec<SimEnv>,
    pub apps: Vec<App>,
    pub eager_pages: Vec<Vec<Arc<Prepared>>>,
    pub times: SetupTimes,
}

impl Setup {
    /// Fresh eager single-server sites on private copies of the seeded
    /// templates.
    pub fn reference_sites(&self) -> Vec<Site> {
        self.apps
            .iter()
            .zip(&self.eager_pages)
            .zip(&self.templates)
            .map(|((app, pages), template)| eager_site(app, pages, copy_of(template)))
            .collect()
    }

    /// The end state a serial `ExecStrategy::Original` replay of the
    /// write requests in `executed` leaves. Every write page stores
    /// constant functions of its argument, so each distinct request is
    /// replayed once.
    pub fn replayed_end_state(&self, executed: &[&[Req]]) -> Vec<String> {
        let sites = self.reference_sites();
        let mut seen = std::collections::HashSet::new();
        for req in executed.iter().flat_map(|list| list.iter()) {
            let site = &sites[req.site as usize];
            if site.routes[req.route as usize].write && seen.insert(*req) {
                let rsp = site.router.handle(&site.request(req));
                assert!(rsp.ok(), "serial replay of {req:?} failed: {}", rsp.body);
            }
        }
        sites.iter().flat_map(Site::end_state).collect()
    }
}

fn rows_in(env: &SimEnv) -> u64 {
    let db = env.snapshot_db();
    db.table_names()
        .iter()
        .map(|t| db.table(t).map_or(0, |t| t.len()) as u64)
        .sum()
}

/// Everything before the first timed request: seeding, page compilation,
/// oracle construction.
pub fn setup(workload: &str, scale: f64, seed: u64) -> Setup {
    let t0 = Instant::now();
    let shape = shape(workload);
    let (apps, plan) = define(workload, scale, seed);
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let templates: Vec<SimEnv> = apps
        .iter()
        .map(|app| {
            let env = SimEnv::new(CostModel::default());
            (app.seed)(&env);
            env
        })
        .collect();
    let fleets: Vec<Option<ShardedEnv>> = apps
        .iter()
        .map(|app| {
            shape.sharded.then(|| {
                let fleet = ShardedEnv::new(CostModel::default(), tpcc_shard_spec(), TPCC_SHARDS);
                (app.seed)(&fleet.handle());
                fleet
            })
        })
        .collect();
    times.seed_s = t.elapsed().as_secs_f64();
    // A sharded workload seeds the same rows twice: fleet and template.
    times.rows_seeded =
        templates.iter().map(rows_in).sum::<u64>() * if shape.sharded { 2 } else { 1 };

    let t = Instant::now();
    let lazy_pages: Vec<_> = apps
        .iter()
        .map(|a| compile(a, ExecStrategy::Sloth(OptFlags::all())))
        .collect();
    times.compile_s = t.elapsed().as_secs_f64();
    times.pages_compiled = lazy_pages.iter().map(|p| p.len() as u64).sum();
    let eager_pages: Vec<_> = apps
        .iter()
        .map(|a| compile(a, ExecStrategy::Original))
        .collect();

    let sites: Vec<Site> = apps
        .iter()
        .zip(&lazy_pages)
        .zip(templates.iter().zip(fleets))
        .map(|((app, pages), (template, fleet))| {
            let env = match &fleet {
                Some(fleet) => fleet.handle(),
                None => copy_of(template),
            };
            if shape.realtime {
                env.set_realtime(1.0);
            }
            if shape.cache {
                env.set_result_cache(true);
            }
            lazy_site(app, pages, env, fleet)
        })
        .collect();

    let mut setup = Setup {
        shape,
        sites,
        plan,
        oracle: Oracle::Static {
            expected: HashMap::new(),
        },
        templates,
        apps,
        eager_pages,
        times,
    };
    let reference = setup.reference_sites();
    let plan = &setup.plan;
    setup.oracle = if shape.sharded {
        Oracle::Lockstep(reference)
    } else {
        let mut expected = HashMap::new();
        for req in plan.warmup.iter().chain(&plan.timed) {
            if expected.contains_key(req) {
                continue;
            }
            let site = &reference[req.site as usize];
            let rsp = site.router.handle(&site.request(req));
            assert!(rsp.ok(), "oracle run of {req:?} failed: {}", rsp.body);
            expected.insert(*req, rsp.body);
        }
        Oracle::Static { expected }
    };

    setup.times.total_s = t0.elapsed().as_secs_f64();
    setup
}
