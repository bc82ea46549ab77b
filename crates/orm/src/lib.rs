//! # sloth-orm — a mini object-relational mapper
//!
//! The Hibernate/JPA stand-in for the Sloth reproduction (the fetch-mode
//! configuration problem of §1; the JPA `find_thunk` extension of §5). It
//! provides:
//!
//! * [`schema`] — entity metadata with eager/lazy fetch strategies, exactly
//!   the configuration surface whose tuning difficulty motivates the paper.
//! * [`sqlgen`] — deterministic SQL generation shared by every execution
//!   mode (required for the query store's in-batch dedup to fire).
//! * [`session`] — a [`Session`] with two backends: **immediate**
//!   (Hibernate semantics: one round trip per fetch, eager prefetching at
//!   `find` time, lazy collections fetched on access) and **deferred**
//!   (Sloth semantics: fetches go through the [`sloth_core::QueryStore`],
//!   and `find_thunk` registers its query now and returns a thunk whose
//!   force yields the entity or the query's error). Pages do not use it:
//!   the kernel language's `orm_*` builtins read the same schema and
//!   [`sqlgen`]; a session is the Rust-level door.

#![warn(missing_docs)]

pub mod schema;
pub mod session;
pub mod sqlgen;

pub use schema::{
    entity, many_to_one, one_to_many, AssocDef, AssocKind, EntityDef, FetchStrategy, Schema,
};
pub use session::{deserialize, Entity, Session};
