//! The **versioned store**: the database side of every deployment.
//!
//! One store serves the single server (N = 1) and the sharded fleet
//! (N > 1) alike. It owns the N live databases, the vector of
//! **published views** — the immutable MVCC snapshots of the last
//! committed state — and the **write-order lock**, and with them the only
//! admission function ([`VersionedStore::admit`]) and the only publish
//! function ([`Admitted::publish`]) in the crate:
//!
//! * a read-only batch is admitted to the published views and takes
//!   **no lock at all** beyond the leaf guard that clones their `Arc`s,
//!   so it overlaps any in-flight writer;
//! * anything that writes takes the write order — a mutex: it has no
//!   readers — executes against the live databases and publishes before
//!   releasing it, so a reader admitted afterwards sees all of the batch
//!   — on every shard — or none of it.
//!
//! Lock order: write order → one live database at a time → the published
//! vector (leaf: held to clone, sum or swap `Arc`s, never across
//! execution, so it may be taken under any other lock).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use sloth_sql::{Database, Snapshot};

/// The read view a batch uses on one database: a published snapshot (no
/// lock is ever taken) or the live database behind a short read guard (a
/// batch that writes must observe its own earlier writes; the write
/// order keeps other writers out meanwhile).
#[derive(Clone)]
pub(crate) enum ReadView {
    Snap(Arc<Snapshot>),
    Live(Arc<RwLock<Database>>),
}

impl ReadView {
    pub(crate) fn with<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        match self {
            ReadView::Snap(s) => f(s),
            ReadView::Live(db) => f(&db.read().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

/// How a batch enters the store; see the module docs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Published views, no lock.
    Snapshot,
    /// Live views, holding the write order; may write.
    Exclusive,
}

/// One batch's admission: its read views, fixed up front, and its place
/// in the write order, held until this value drops.
pub(crate) struct Admitted<'a> {
    store: &'a VersionedStore,
    views: Vec<ReadView>,
    /// Summed version of the views a snapshot admission froze.
    frozen: Option<u64>,
    /// The write order ([`Admit::Exclusive`]).
    exclusive: Option<MutexGuard<'a, ()>>,
}

impl Admitted<'_> {
    /// The read view for database `s` (cheap `Arc` clone).
    pub(crate) fn view(&self, s: usize) -> ReadView {
        self.views[s].clone()
    }

    /// Write guard on live database `s` — the only way execution mutates
    /// the store, legal only under an exclusive admission.
    pub(crate) fn write(&self, s: usize) -> RwLockWriteGuard<'_, Database> {
        assert!(self.exclusive.is_some(), "writes need the write order");
        self.store.dbs[s]
            .write() // commit-point
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The data version this batch's results reflect (summed over the
    /// databases): the frozen one for a snapshot admission, otherwise the
    /// published one — which, read while the write order is still held,
    /// is exactly the live state the batch saw or left behind.
    pub(crate) fn version(&self) -> u64 {
        self.frozen
            .unwrap_or_else(|| self.store.published_version())
    }

    /// Publishes the live state — the commit point, and the only
    /// function that replaces a published view. Legal only under an
    /// exclusive admission, so publishes are serialized and the vector
    /// is always the latest *committed* state. The version gate makes
    /// untouched databases free (a routed single-shard write republishes
    /// only its own shard); `force` republishes regardless, for
    /// out-of-band mutation that may not have bumped a version.
    pub(crate) fn publish(&self, force: bool) {
        assert!(self.exclusive.is_some(), "publishing needs the write order");
        let mut cells = self
            .store
            .published
            .write() // commit-point (the published vector, not a database)
            .unwrap_or_else(PoisonError::into_inner);
        for (db, cell) in self.store.dbs.iter().zip(cells.iter_mut()) {
            let live = db.read().unwrap_or_else(PoisonError::into_inner);
            if force || cell.version() != live.version() {
                *cell = Arc::new(live.snapshot());
            }
        }
    }
}

/// N ≥ 1 live databases, their published views and the write order.
pub(crate) struct VersionedStore {
    dbs: Vec<Arc<RwLock<Database>>>,
    /// One lock over the whole vector, not one per cell, so a commit's
    /// swap is atomic against admission and the version sum: a reader
    /// can never pair shard 0's post-broadcast state with shard 1's
    /// pre-broadcast state.
    published: RwLock<Vec<Arc<Snapshot>>>,
    order: Mutex<()>,
}

impl VersionedStore {
    /// A store over `dbs` with their current state published.
    pub(crate) fn new(dbs: Vec<Database>) -> Self {
        assert!(!dbs.is_empty(), "a store holds at least one database");
        let published = dbs.iter().map(|db| Arc::new(db.snapshot())).collect();
        VersionedStore {
            dbs: dbs
                .into_iter()
                .map(|db| Arc::new(RwLock::new(db)))
                .collect(),
            published: RwLock::new(published),
            order: Mutex::new(()),
        }
    }

    /// Number of databases.
    pub(crate) fn len(&self) -> usize {
        self.dbs.len()
    }

    /// Read guard over the published views (leaf lock).
    pub(crate) fn published(&self) -> RwLockReadGuard<'_, Vec<Arc<Snapshot>>> {
        self.published
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Database 0's published view. DDL reaches every database and the
    /// footprint cache is schema-level, so it answers catalog and
    /// footprint questions for the whole store — lock-free.
    pub(crate) fn catalog(&self) -> Arc<Snapshot> {
        Arc::clone(&self.published()[0])
    }

    /// Sum of the published versions: the store-wide commit stamp the
    /// result cache gates fills on. Summed under one guard, so it always
    /// reflects one published state, never a mid-publish mix.
    pub(crate) fn published_version(&self) -> u64 {
        self.published().iter().map(|s| s.version()).sum()
    }

    /// Admits one batch: fixes its read views and takes its place in the
    /// write order. The only function that builds read views.
    pub(crate) fn admit(&self, mode: Admit) -> Admitted<'_> {
        let (views, frozen, exclusive) = match mode {
            Admit::Snapshot => {
                // All cells under one read guard: atomic against publish.
                let cells = self.published();
                let views = cells.iter().cloned().map(ReadView::Snap).collect();
                let frozen = cells.iter().map(|s| s.version()).sum();
                (views, Some(frozen), None)
            }
            Admit::Exclusive => {
                let guard = self
                    .order
                    .lock() // commit-point (the write order, not a database)
                    .unwrap_or_else(PoisonError::into_inner);
                let views = self.dbs.iter().cloned().map(ReadView::Live).collect();
                (views, None, Some(guard))
            }
        };
        Admitted {
            store: self,
            views,
            frozen,
            exclusive,
        }
    }
}
