//! Shared, footprint-invalidated result cache.
//!
//! SharedDB-style work sharing across queries: once a read has paid its
//! round trip, every identical repeat (same normalized template, same
//! parameters) is answered from the driver without touching the wire —
//! until a write that can overlap its rows ships, which kills exactly
//! the overlapping entries. The cache lives in the deployment
//! ([`crate::SimEnv`]'s inner state), so all
//! sessions multiplexed onto one deployment — directly, through the
//! [`crate::Dispatcher`], or onto a sharded fleet — share one coherent
//! view by construction.
//!
//! ## Legality
//!
//! A hit is legal iff **no overlapping write shipped since the entry was
//! filled**. Invalidation therefore runs at the single point every write
//! funnels through: batch settlement in the driver, which sees writes
//! from this session, writes other sessions ship concurrently, and
//! writes whose results were replayed from the
//! at-most-once fault journal (a journaled write still *shipped*, so it
//! still invalidates — exactly once, at its final surface). Overlap is
//! decided by [`Footprint::writes_overlap`]: table-level when the write
//! pins no keys, key-precise when it does.
//!
//! Entries are bounded (512, FIFO like the template cache) and the whole
//! cache is droppable at zero cost — out-of-band mutation (seeding) and
//! disabling the cache both clear it rather than reason about staleness.

use std::collections::{HashMap, VecDeque};

use sloth_sql::{Footprint, ResultSet, Stmt, TableAccess};

/// Max cached entries, matching the template cache's bound.
pub(crate) const RESULT_CACHE_CAP: usize = 512;

/// Counters of the shared result cache (see [`crate::SimEnv::result_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Batch positions answered locally from the cache (no wire, no
    /// database work, zero charged time).
    pub hits: u64,
    /// Hit-eligible positions that probed the cache and found nothing.
    pub misses: u64,
    /// Entries written after an executed read came back.
    pub fills: u64,
    /// Entries killed by a shipped write's footprint (total).
    pub invalidations: u64,
    /// The subset of `invalidations` where the killing write access was
    /// key-pinned — the precision the footprint machinery buys over
    /// table-level invalidation.
    pub precise_invalidations: u64,
    /// Entries dropped by the FIFO capacity bound.
    pub evictions: u64,
}

/// One cached read: the statement (equal by template + params, see
/// [`Stmt`]) maps to the result it produced and the table accesses its
/// footprint pinned (what a write must overlap to kill it).
struct Entry {
    result: ResultSet,
    reads: Vec<TableAccess>,
    /// Fill generation, matched against the FIFO queue so a key that was
    /// invalidated and later re-filled is not evicted by its stale queue
    /// slot.
    generation: u64,
}

/// The cache proper: normalized template + params → entry, FIFO-bounded.
///
/// All access goes through this module — the CI grep gate rejects any
/// `result_map` mention outside `cache.rs`, so hit/fill/invalidate
/// invariants cannot be bypassed piecemeal elsewhere in the driver.
pub(crate) struct ResultCache {
    enabled: bool,
    result_map: HashMap<Stmt, Entry>,
    fifo: VecDeque<(Stmt, u64)>,
    next_generation: u64,
    pub(crate) stats: ResultCacheStats,
}

impl ResultCache {
    pub(crate) fn new() -> ResultCache {
        ResultCache {
            enabled: false,
            result_map: HashMap::new(),
            fifo: VecDeque::new(),
            next_generation: 0,
            stats: ResultCacheStats::default(),
        }
    }

    /// Whether hit-probing and filling are active. Invalidation is only
    /// meaningful while enabled too: a disabled cache holds no entries.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns the cache on or off. Turning it **off drops every entry**:
    /// while disabled the driver skips invalidation entirely, so entries
    /// surviving a disabled window could never be trusted again.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.clear();
        }
    }

    /// Drops every entry (capacity statistics survive). Used on disable
    /// and on out-of-band mutation (seeding), which bypasses footprints.
    pub(crate) fn clear(&mut self) {
        self.result_map.clear();
        self.fifo.clear();
    }

    /// Zeroes the counters (entries survive — they are still legal).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = ResultCacheStats::default();
    }

    /// Probes one key. Counts a hit or a miss; FIFO order is fill order,
    /// so a hit does not promote.
    pub(crate) fn probe(&mut self, key: &Stmt) -> Option<ResultSet> {
        match self.result_map.get(key) {
            Some(e) => {
                self.stats.hits += 1;
                Some(e.result.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records an executed read's result under its template+params key.
    /// Re-filling an existing key replaces the entry in place.
    pub(crate) fn fill(&mut self, key: Stmt, result: ResultSet, reads: Vec<TableAccess>) {
        let generation = self.next_generation;
        self.next_generation += 1;
        if self
            .result_map
            .insert(
                key.clone(),
                Entry {
                    result,
                    reads,
                    generation,
                },
            )
            .is_none()
            && self.result_map.len() > RESULT_CACHE_CAP
        {
            // FIFO eviction; queue slots whose generation no longer
            // matches are tombstones of invalidated/re-filled keys.
            while let Some((old, gen)) = self.fifo.pop_front() {
                let live = self
                    .result_map
                    .get(&old)
                    .is_some_and(|e| e.generation == gen);
                if live {
                    self.result_map.remove(&old);
                    self.stats.evictions += 1;
                    break;
                }
            }
        }
        self.fifo.push_back((key, generation));
        self.stats.fills += 1;
    }

    /// Kills every entry the shipped write `fp` can overlap — the whole
    /// cache when `fp` is a barrier, else exactly the entries with an
    /// overlapping table access. Counts each kill, and separately the
    /// kills where the deciding write access carried a key pin.
    pub(crate) fn invalidate(&mut self, fp: &Footprint) {
        if !fp.has_writes() {
            return;
        }
        if fp.barrier {
            let killed = self.result_map.len() as u64;
            self.stats.invalidations += killed;
            self.clear();
            return;
        }
        self.result_map.retain(|_, e| {
            let killer = fp
                .writes
                .iter()
                .find(|w| e.reads.iter().any(|r| w.overlaps(r)));
            match killer {
                Some(w) => {
                    self.stats.invalidations += 1;
                    if !w.keys.is_empty() {
                        self.stats.precise_invalidations += 1;
                    }
                    false
                }
                None => true,
            }
        });
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.result_map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sloth_sql::Value;

    /// A statement that normalizes to `template` followed by one `?` per
    /// parameter, with exactly `params` extracted.
    fn key(template: &str, params: &[i64]) -> Stmt {
        let literals: Vec<String> = params.iter().map(i64::to_string).collect();
        Stmt::new(format!("{template} {}", literals.join(" ")))
    }

    fn rs(v: i64) -> ResultSet {
        ResultSet::new(vec!["v".to_string()], vec![vec![Value::Int(v)]])
    }

    fn reads_of(sql: &str) -> Vec<TableAccess> {
        Footprint::of_sql(sql).reads
    }

    fn on() -> ResultCache {
        let mut c = ResultCache::new();
        c.set_enabled(true);
        c
    }

    #[test]
    fn fill_probe_roundtrip_and_miss_counting() {
        let mut c = on();
        assert!(c.probe(&key("SELECT ?", &[1])).is_none());
        c.fill(
            key("SELECT ?", &[1]),
            rs(7),
            reads_of("SELECT * FROM t WHERE id = 1"),
        );
        assert_eq!(c.probe(&key("SELECT ?", &[1])).unwrap(), rs(7));
        assert!(
            c.probe(&key("SELECT ?", &[2])).is_none(),
            "params are part of the key"
        );
        let s = c.stats;
        assert_eq!((s.hits, s.misses, s.fills), (1, 2, 1));
    }

    #[test]
    fn pinned_write_kills_precisely() {
        let mut c = on();
        c.fill(
            key("a", &[1]),
            rs(1),
            reads_of("SELECT * FROM t WHERE id = 1"),
        );
        c.fill(
            key("a", &[2]),
            rs(2),
            reads_of("SELECT * FROM t WHERE id = 2"),
        );
        c.fill(
            key("b", &[]),
            rs(3),
            reads_of("SELECT * FROM u WHERE id = 1"),
        );
        c.invalidate(&Footprint::of_sql("UPDATE t SET v = 9 WHERE id = 1"));
        assert!(c.probe(&key("a", &[1])).is_none(), "overlapping entry dies");
        assert!(c.probe(&key("a", &[2])).is_some(), "disjoint pin survives");
        assert!(c.probe(&key("b", &[])).is_some(), "other table survives");
        assert_eq!(c.stats.invalidations, 1);
        assert_eq!(c.stats.precise_invalidations, 1);
    }

    #[test]
    fn unpinned_write_kills_the_table_imprecisely() {
        let mut c = on();
        c.fill(
            key("a", &[1]),
            rs(1),
            reads_of("SELECT * FROM t WHERE id = 1"),
        );
        c.fill(
            key("a", &[2]),
            rs(2),
            reads_of("SELECT * FROM t WHERE id = 2"),
        );
        c.fill(
            key("b", &[]),
            rs(3),
            reads_of("SELECT * FROM u WHERE id = 1"),
        );
        c.invalidate(&Footprint::of_sql("UPDATE t SET v = 9"));
        assert_eq!(c.len(), 1, "whole table t dies, u survives");
        assert_eq!(c.stats.invalidations, 2);
        assert_eq!(c.stats.precise_invalidations, 0, "no pin, no precision");
    }

    #[test]
    fn barrier_clears_everything() {
        let mut c = on();
        c.fill(
            key("a", &[1]),
            rs(1),
            reads_of("SELECT * FROM t WHERE id = 1"),
        );
        c.fill(
            key("b", &[]),
            rs(3),
            reads_of("SELECT * FROM u WHERE id = 1"),
        );
        c.invalidate(&Footprint::barrier());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats.invalidations, 2);
    }

    #[test]
    fn pure_reads_invalidate_nothing() {
        let mut c = on();
        c.fill(
            key("a", &[1]),
            rs(1),
            reads_of("SELECT * FROM t WHERE id = 1"),
        );
        c.invalidate(&Footprint::of_sql("SELECT * FROM t WHERE id = 1"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats.invalidations, 0);
    }

    #[test]
    fn fifo_eviction_honours_capacity_and_tombstones() {
        let mut c = on();
        for i in 0..RESULT_CACHE_CAP as i64 {
            let probe = format!("SELECT * FROM t WHERE id = {i}");
            c.fill(key("a", &[i]), rs(i), reads_of(&probe));
        }
        assert_eq!(c.len(), RESULT_CACHE_CAP);
        // Kill the oldest entry, then overflow: its tombstoned queue slot
        // must be skipped and the next-oldest live entry evicted instead.
        c.invalidate(&Footprint::of_sql("DELETE FROM t WHERE id = 0"));
        assert_eq!(c.len(), RESULT_CACHE_CAP - 1);
        c.fill(
            key("fresh", &[]),
            rs(-1),
            reads_of("SELECT * FROM u WHERE id = 1"),
        );
        c.fill(
            key("fresh2", &[]),
            rs(-2),
            reads_of("SELECT * FROM u WHERE id = 2"),
        );
        assert_eq!(c.len(), RESULT_CACHE_CAP);
        assert!(c.result_map.contains_key(&key("fresh", &[])));
        assert!(c.result_map.contains_key(&key("fresh2", &[])));
        assert!(
            !c.result_map.contains_key(&key("a", &[1])),
            "oldest live entry evicted"
        );
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn disabling_drops_entries() {
        let mut c = on();
        c.fill(
            key("a", &[1]),
            rs(1),
            reads_of("SELECT * FROM t WHERE id = 1"),
        );
        c.set_enabled(false);
        c.set_enabled(true);
        assert!(c.probe(&key("a", &[1])).is_none());
    }
}
