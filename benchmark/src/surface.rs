//! The product surface this benchmark pins.
//!
//! This is the only file that names a symbol of the seven product crates;
//! every other module imports from here. A later change that renames or
//! removes one of these breaks the benchmark's build, so the list is kept
//! to the production funnel, the public statistics getters and the entry
//! points of the layer ladder. The README repeats it.

// --- the funnel: how every timed request enters the product -------------
pub use sloth_web::{HttpRequest, Router};
// `Router::{dispatched, new (eager oracle), mount, handle}`;
// `HttpRequest::{with_args, get}`; `HttpResponse::{ok, body, result}`.

// --- deployments: default constructors only ------------------------------
pub use sloth_net::{CostModel, Dispatcher, ShardedEnv, SimEnv};
// `CostModel::default`; `SimEnv::{new, from_database, snapshot_db, seed_sql,
// query, set_realtime, set_result_cache}`; `ShardedEnv::{new, handle}`;
// `Dispatcher::new`.

// --- page compilation -----------------------------------------------------
pub use sloth_lang::{parse_program, prepare_with_schema, ExecStrategy, OptFlags, Prepared, V};
// `ExecStrategy::{Original, Sloth}`, `OptFlags::all`, `V::Int`.

// --- the applications -------------------------------------------------------
pub use sloth_apps::tpcc::{seed_tpcc, tpcc_schema, tpcc_shard_spec, tpcc_transactions};
pub use sloth_apps::{itracker_app, openmrs_app, BenchApp};
// `BenchApp::{schema, pages, seed}`, `Page::{name, source, arg}`.
pub use sloth_orm::{entity, EntityDef, Schema};
// `Schema::{ddl, entity}`, `EntityDef::{name, table, pk, columns}`.
pub use sloth_sql::ast::ColumnType;

// --- statistics getters (counts for the per-layer metrics) -------------------
pub use sloth_lang::RunResult;
// `RunResult::{counters, store}`: `Counters::{lazy_ops, thunk_allocs,
// forces}`, `StoreStats::{registered, dedup_hits, batches, write_flushes,
// deferred_writes, deferred_txns, ryw_rewrites, conflict_drains,
// max_batch(), queries_shipped()}`.
// `SimEnv::{stats, result_cache_stats, plan_cache_stats,
// footprint_cache_stats}`, `Dispatcher::stats`, `ShardedEnv::shard_stats`.

// --- the ladder's entry points, bottom rung first ------------------------------
pub use sloth_sql::{normalize, parse, Database, Value};
// `parse`, `normalize`, `Database::{new, execute, footprint_of, snapshot,
// table_names, table}`, `ExecOutcome::stats`, `SimEnv::query_batch`,
// `Dispatcher::submit`.
pub use sloth_core::{QueryStore, Thunk};
// `QueryStore::{dispatched, register, register_stmt, result,
// flush_deferred_writes}`, `Thunk::{new, force}`.
pub use sloth_lang::DataLayer;
// `DataLayer::dispatched`, `Prepared::run_with`.
pub use sloth_orm::{sqlgen, Session};
// `sqlgen::{select_by_pk, select_where_eq, count_where_eq, update_field,
// insert_row}`, `Session::{deferred, find_thunk}`.
