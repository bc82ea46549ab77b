//! # sloth — batching database queries via extended lazy evaluation
//!
//! A Rust reproduction of **“Sloth: Being Lazy is a Virtue (When Issuing
//! Database Queries)”** (Cheung, Madden, Solar-Lezama — SIGMOD 2014),
//! grown toward a production-shaped system: batch-level query fusion and
//! a template cache on the driver path, and a sharded
//! multi-server backend with fusion-aware scatter-gather routing.
//!
//! This façade crate re-exports the whole workspace, one crate per layer
//! (paper sections in parentheses):
//!
//! | crate | role |
//! |---|---|
//! | [`sql`] (`sloth-sql`) | in-memory SQL engine, normalizer, template cache, shard spec (the MySQL stand-in of the §6 testbed) |
//! | [`net`] (`sloth-net`) | virtual time, latency simulation, batch driver (§5), [`net::ShardedEnv`] router |
//! | [`core`] (`sloth-core`) | the query store — the batching runtime the lazy evaluator registers with (§3.3) |
//! | [`orm`] (`sloth-orm`) | mini-Hibernate with eager/lazy fetch strategies (§1, §5) |
//! | [`lang`] (`sloth-lang`) | kernel language (§3.8), compiler passes (§3.1, §4), both evaluators; the lazy one's thunks (§3.2) and buffered writer (§5) |
//! | [`web`] (`sloth-web`) | the HTTP router every page request enters through (§5) |
//! | [`apps`] (`sloth-apps`) | itracker / OpenMRS / TPC-C / TPC-W benchmarks (§6) |
//!
//! See `examples/quickstart.rs` for the 20-line tour,
//! `examples/sharded.rs` for the fleet tour, and `DESIGN.md` for the full
//! system inventory.

#![warn(missing_docs)]

pub use sloth_apps as apps;
pub use sloth_core as core;
pub use sloth_lang as lang;
pub use sloth_net as net;
pub use sloth_orm as orm;
pub use sloth_sql as sql;
pub use sloth_web as web;

pub use sloth_core::QueryStore;
pub use sloth_lang::{run_source, ExecStrategy, OptFlags};
pub use sloth_net::{CostModel, ShardSpec, ShardedEnv, SimEnv};
