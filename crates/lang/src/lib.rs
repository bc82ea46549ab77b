//! # sloth-lang — the Sloth compiler and its kernel language
//!
//! Compiler half of Sloth (Cheung, Madden, Solar-Lezama — SIGMOD 2014).
//! Applications are written in the kernel language of §3.8 (extended with
//! functions, objects and lists); this crate provides:
//!
//! * [`parser`] — Java-ish concrete syntax.
//! * `builtins` — the JDK / framework surface programs call, and
//!   `Builtin::sig`, the one table of what each builtin forces (per
//!   argument, for which consumer) and touches (the database, a list, a
//!   field, the output; whether its result may be delayed). The
//!   interpreter, the effect summary and guard hoisting all read it.
//! * [`simplify`] — §3.1 code simplification (loop canonicalization,
//!   expression flattening).
//! * [`analysis`] — one effect summary per function, closed over the
//!   call graph and built from the builtin table: §4.1 persistence,
//!   purity, the database writes it may issue and the heap fields it may
//!   write; which straight-line statements thunk coalescing may defer;
//!   and whether a stretch of statements may touch a name. Every later
//!   pass reads it.
//! * [`opt`] — guard hoisting (an `if` arm's ORM reads register before
//!   the `if`, a 1+N association loop becomes one each-row read) and
//!   thunk coalescing (§4.3) transforms plus the [`opt::OptFlags`]
//!   switchboard of Fig. 12. No `if` or loop is deferred whole. A write
//!   is deferred in one place, the query store.
//! * `resolve` — the last pass: names bound to frame slots, builtins,
//!   function and block indices; the only form the evaluator walks.
//! * [`interp`] — the standard evaluator (original application) and the
//!   extended-lazy evaluator (Sloth-compiled application) of §3.8, sharing
//!   the ORM data layer so both generate identical SQL.
//!
//! ```
//! use sloth_lang::{run_source, ExecStrategy, OptFlags};
//! use sloth_net::SimEnv;
//! use std::sync::Arc;
//!
//! let env = SimEnv::default_env();
//! env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").unwrap();
//! env.seed_sql("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
//! let schema = Arc::new(sloth_orm::Schema::new());
//!
//! let src = r#"
//!     fn main() {
//!         let a = query("SELECT v FROM t WHERE id = 1");
//!         let b = query("SELECT v FROM t WHERE id = 2");
//!         print(cell(a, 0, "v") + cell(b, 0, "v"));
//!     }
//! "#;
//! let out = run_source(src, &env, schema, ExecStrategy::Sloth(OptFlags::all()), vec![]).unwrap();
//! assert_eq!(out.output, vec!["30"]);
//! assert_eq!(out.net.round_trips, 1, "both queries in one batch");
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
mod builtins;
mod hoist;
pub mod interp;
pub mod opt;
pub mod parser;
mod resolve;
pub mod runtime;
pub mod simplify;
pub mod value;

pub use analysis::{analyze, Analysis};
pub use ast::{Expr, Function, Lit, Program, Stmt};
pub use interp::{prepare, prepare_with_schema, run_source, ExecStrategy, Prepared};
pub use opt::OptFlags;
pub use parser::{parse_block, parse_program, ParseError};
pub use runtime::{Counters, DataLayer, RunError, RunResult};
pub use simplify::simplify_program;
pub use value::V;
