//! The HTTP handler layer: every web request runs its page through
//! [`Prepared::run_with`] against a **per-request data layer**, so the
//! end-of-request contract of transaction-scoped laziness always holds —
//! deferred writes (including whole silent `BEGIN … COMMIT` blocks) drain
//! before the response leaves the server, and dead reads stay dead.
//!
//! This is the Tomcat/Spring dispatch stand-in (§5): controllers in the
//! paper are servlet handlers; here a [`Router`] maps paths to compiled
//! pages. There is deliberately **no** other execution entry point — a
//! handler that ran a page by poking the interpreter directly would skip
//! the drain and could leave a request's writes unexecuted (CI greps for
//! exactly that bypass).

use std::collections::BTreeMap;
use std::sync::Arc;

use sloth_lang::{DataLayer, Prepared, RunResult, V};
use sloth_net::{Dispatcher, SimEnv};
use sloth_orm::Schema;

/// A parsed request: path plus positional arguments for the page's
/// `main`. (The simulator has no wire format — a request is its route.)
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Route path, e.g. `"/issue/save"`.
    pub path: String,
    /// Arguments passed to the page's `main`.
    pub args: Vec<V>,
}

impl HttpRequest {
    /// A GET-style request with no arguments.
    pub fn get(path: impl Into<String>) -> Self {
        HttpRequest {
            path: path.into(),
            args: Vec::new(),
        }
    }

    /// A request carrying positional arguments.
    pub fn with_args(path: impl Into<String>, args: Vec<V>) -> Self {
        HttpRequest {
            path: path.into(),
            args,
        }
    }
}

/// A rendered response. `body` is the page output (one line per print /
/// rendered value); `result` carries the run's statistics for harnesses.
#[derive(Debug)]
pub struct HttpResponse {
    /// 200 for a handled page, 404 for an unknown route, 500 for a page
    /// whose execution failed.
    pub status: u16,
    /// Rendered page body (or the error message on 500).
    pub body: String,
    /// Full run statistics of the page execution (`None` on 404).
    pub result: Option<RunResult>,
}

impl HttpResponse {
    /// Whether the request was handled successfully.
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// One route: a compiled page plus whether it runs lazily. The page is
/// compiled once and shared across requests ([`Prepared`] is `Send +
/// Sync`); each request gets a fresh data layer (its session).
struct Route {
    page: Arc<Prepared>,
    lazy: bool,
}

/// The request dispatcher: maps paths to compiled pages and serves each
/// request over a fresh per-request session.
///
/// Handlers do not execute pages themselves: [`Router::handle`] is the
/// single funnel into [`Prepared::run_with`], which ends every request
/// with the deferred-write drain.
pub struct Router {
    /// Every request's store flushes through this one dispatcher.
    dispatcher: Arc<Dispatcher>,
    schema: Arc<Schema>,
    routes: BTreeMap<String, Route>,
}

impl Router {
    /// A router serving sessions off `env` through a dispatcher of its
    /// own.
    pub fn new(env: SimEnv, schema: Arc<Schema>) -> Self {
        Router::dispatched(Arc::new(Dispatcher::new(env)), schema)
    }

    /// A router whose sessions flush through the shared dispatcher —
    /// the multi-client serving configuration.
    pub fn dispatched(dispatcher: Arc<Dispatcher>, schema: Arc<Schema>) -> Self {
        Router {
            dispatcher,
            schema,
            routes: BTreeMap::new(),
        }
    }

    /// Mounts a compiled page at `path`. `lazy` must match how the page
    /// was prepared (`ExecStrategy::Sloth` ⇒ `true`).
    pub fn mount(&mut self, path: impl Into<String>, page: Arc<Prepared>, lazy: bool) {
        self.routes.insert(path.into(), Route { page, lazy });
    }

    /// Mounted paths, in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.routes.keys().map(String::as_str)
    }

    /// Serves one request: route lookup, a fresh per-request session,
    /// then the page via [`Prepared::run_with`] — the only execution
    /// path, so every handled request ends with the end-of-request
    /// deferred-write drain.
    pub fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let Some(route) = self.routes.get(&req.path) else {
            return HttpResponse {
                status: 404,
                body: format!("no route for {}", req.path),
                result: None,
            };
        };
        let data = self.session(route.lazy);
        match route.page.run_with(data, req.args.clone()) {
            Ok(result) => {
                let mut body = result.output.join("\n");
                if let Some(ret) = &result.returned {
                    if !body.is_empty() {
                        body.push('\n');
                    }
                    body.push_str(ret);
                }
                HttpResponse {
                    status: 200,
                    body,
                    result: Some(result),
                }
            }
            Err(e) => HttpResponse {
                status: 500,
                body: e.to_string(),
                result: None,
            },
        }
    }

    /// A fresh per-request data layer (the request's session). An eager
    /// page runs immediate — it has no store to flush.
    fn session(&self, lazy: bool) -> DataLayer {
        let schema = Arc::clone(&self.schema);
        if lazy {
            DataLayer::dispatched(Arc::clone(&self.dispatcher), schema)
        } else {
            DataLayer::immediate(self.dispatcher.env().clone(), schema)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sloth_lang::{parse_program, prepare_with_schema, ExecStrategy, OptFlags};
    use sloth_orm::{entity, Schema};
    use sloth_sql::ast::ColumnType::{Int, Text};

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add(entity(
            "note",
            "note",
            "id",
            &[("id", Int), ("body", Text)],
            vec![],
        ));
        Arc::new(s)
    }

    fn deployment(schema: &Schema) -> SimEnv {
        let env = SimEnv::default_env();
        for ddl in schema.ddl() {
            env.seed_sql(&ddl).unwrap();
        }
        for i in 0..8 {
            env.seed_sql(&format!("INSERT INTO note VALUES ({i}, 'n{i}')"))
                .unwrap();
        }
        env
    }

    fn page(src: &str, schema: &Schema, lazy: bool) -> Arc<Prepared> {
        let program = parse_program(src).unwrap();
        let strategy = if lazy {
            ExecStrategy::Sloth(OptFlags::all())
        } else {
            ExecStrategy::Original
        };
        Arc::new(prepare_with_schema(&program, strategy, Some(schema)))
    }

    const VIEW_PAGE: &str = r#"
        fn main(id) {
            let r = query("SELECT body FROM note WHERE id = " + str(id));
            print(r);
        }
    "#;

    const SAVE_PAGE: &str = r#"
        fn main(id) {
            exec("BEGIN");
            exec("UPDATE note SET body = 'saved' WHERE id = " + str(id));
            exec("COMMIT");
        }
    "#;

    #[test]
    fn routes_dispatch_and_unknown_is_404() {
        let schema = schema();
        let env = deployment(&schema);
        let mut router = Router::new(env, Arc::clone(&schema));
        router.mount("/note/view", page(VIEW_PAGE, &schema, true), true);
        let rsp = router.handle(&HttpRequest::with_args("/note/view", vec![V::Int(3)]));
        assert!(rsp.ok(), "{}", rsp.body);
        assert!(rsp.body.contains("n3"), "{}", rsp.body);
        assert_eq!(router.handle(&HttpRequest::get("/nope")).status, 404);
    }

    #[test]
    fn request_end_drains_deferred_transaction() {
        // The save page's writes form a silent BEGIN…COMMIT block that
        // defers whole; run_with's end-of-request hook must drain it
        // before the response, in one write-only round trip.
        let schema = schema();
        let env = deployment(&schema);
        let mut router = Router::new(env.clone(), Arc::clone(&schema));
        router.mount("/note/save", page(SAVE_PAGE, &schema, true), true);
        let rsp = router.handle(&HttpRequest::with_args("/note/save", vec![V::Int(2)]));
        assert!(rsp.ok(), "{}", rsp.body);
        let run = rsp.result.unwrap();
        assert_eq!(run.net.round_trips, 1, "whole txn in one trip");
        let store = run.store.unwrap();
        assert_eq!(store.deferred_txns, 1);
        // The write is visible after the response — not left pending.
        assert_eq!(
            env.query("SELECT body FROM note WHERE id = 2")
                .unwrap()
                .get(0, "body")
                .unwrap()
                .as_str(),
            Some("saved")
        );
    }

    #[test]
    fn eager_and_lazy_routes_render_identically() {
        let schema = schema();
        let env = deployment(&schema);
        let mut router = Router::new(env, Arc::clone(&schema));
        router.mount("/eager", page(VIEW_PAGE, &schema, false), false);
        router.mount("/lazy", page(VIEW_PAGE, &schema, true), true);
        let a = router.handle(&HttpRequest::with_args("/eager", vec![V::Int(5)]));
        let b = router.handle(&HttpRequest::with_args("/lazy", vec![V::Int(5)]));
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn dispatched_router_serves_concurrent_sessions() {
        let schema = schema();
        let env = deployment(&schema);
        let dispatcher = Arc::new(Dispatcher::new(env.clone()));
        let mut router = Router::dispatched(dispatcher, Arc::clone(&schema));
        router.mount("/note/save", page(SAVE_PAGE, &schema, true), true);
        router.mount("/note/view", page(VIEW_PAGE, &schema, true), true);
        let router = Arc::new(router);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let router = Arc::clone(&router);
                std::thread::spawn(move || {
                    let save =
                        router.handle(&HttpRequest::with_args("/note/save", vec![V::Int(i)]));
                    assert!(save.ok(), "{}", save.body);
                    let view =
                        router.handle(&HttpRequest::with_args("/note/view", vec![V::Int(i)]));
                    assert!(view.ok(), "{}", view.body);
                    view.body
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let body = h.join().unwrap();
            assert!(
                body.contains("saved"),
                "session {i} reads its own write: {body}"
            );
        }
    }
}
