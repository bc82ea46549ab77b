//! # sloth-web — the request funnel
//!
//! The Spring/JSP/Tomcat stand-in (§5 of the paper). [`http`] is the
//! request dispatch layer: a [`Router`] maps paths to compiled
//! kernel-language pages, and every handler runs its page through
//! `Prepared::run_with`, so each request gets a fresh session and the
//! end-of-request deferred-write drain.
//!
//! The paper's JSP extension — a writer that buffers thunks and forces them
//! only when the page flushes, so query batches keep growing through view
//! rendering — is the interpreter's buffered output (`sloth-lang`): a
//! page's `print` under lazy semantics writes its value unforced, and the
//! buffer flushes once at the end of the request.

#![warn(missing_docs)]

pub mod http;

pub use http::{HttpRequest, HttpResponse, Router};

#[cfg(test)]
mod tests {
    use super::*;
    use sloth_lang::{parse_program, prepare_with_schema, ExecStrategy, OptFlags, V};
    use sloth_net::SimEnv;
    use sloth_orm::{entity, Schema};
    use sloth_sql::ast::ColumnType::*;
    use std::sync::Arc;

    /// A router with `src` mounted lazily at `/page`, over two items.
    fn mounted(src: &str) -> (SimEnv, Router) {
        let mut s = Schema::new();
        s.add(entity(
            "item",
            "item",
            "id",
            &[("id", Int), ("name", Text)],
            vec![],
        ));
        let schema = Arc::new(s);
        let env = SimEnv::default_env();
        for ddl in schema.ddl() {
            env.seed_sql(&ddl).unwrap();
        }
        env.seed_sql("INSERT INTO item VALUES (1, 'alpha'), (2, 'beta')")
            .unwrap();
        let program = parse_program(src).unwrap();
        let strategy = ExecStrategy::Sloth(OptFlags::all());
        let page = prepare_with_schema(&program, strategy, Some(&schema));
        let mut router = Router::new(env.clone(), schema);
        router.mount("/page", Arc::new(page), true);
        (env, router)
    }

    #[test]
    fn write_thunk_defers_until_flush() {
        // Each print writes an unforced find; the flush at the end of the
        // request forces the first, which ships both finds in one batch.
        let (env, router) = mounted(
            r#"
            fn main() {
                print("page: ");
                print(orm_find("item", 1));
                print(orm_find("item", 2));
            }
            "#,
        );
        let rsp = router.handle(&HttpRequest::get("/page"));
        assert!(rsp.ok(), "{}", rsp.body);
        assert!(rsp.body.starts_with("page: "), "{}", rsp.body);
        assert!(
            rsp.body.contains("alpha") && rsp.body.contains("beta"),
            "{}",
            rsp.body
        );
        assert_eq!(env.stats().round_trips, 1, "both finds in one batch");
    }

    #[test]
    fn missing_entity_renders_placeholder() {
        let (_env, router) = mounted(r#"fn main(id) { print(orm_find("item", id)); }"#);
        let rsp = router.handle(&HttpRequest::with_args("/page", vec![V::Int(99)]));
        assert!(rsp.ok(), "{}", rsp.body);
        assert_eq!(rsp.body, "null");
    }
}
