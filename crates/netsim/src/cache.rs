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
//! ## Eviction
//!
//! Entries are bounded (512) by **second chance** (CLOCK): a hit marks its
//! entry, and when a fill goes past the bound the oldest slot in the ring
//! is examined — a marked entry is unmarked and re-queued for one more
//! lap, the first unmarked one is evicted. An entry the pages keep
//! hitting therefore outlives any stream of one-time fills, which leave
//! in fill order. The whole cache is
//! droppable at zero cost — out-of-band mutation (seeding) and disabling
//! the cache both clear it rather than reason about staleness.

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
    /// Entries dropped by the capacity bound: unmarked entries the
    /// second-chance hand reached (one per fill past the bound).
    pub evictions: u64,
}

/// One cached read: the statement (equal by template + params, see
/// [`Stmt`]) maps to the result it produced and the table accesses its
/// footprint pinned (what a write must overlap to kill it).
struct Entry {
    result: ResultSet,
    reads: Vec<TableAccess>,
    /// Fill generation, matched against the ring so a key that was
    /// invalidated and later re-filled is not evicted (or re-queued) by
    /// its stale slot.
    generation: u64,
    /// Set by a hit, cleared when the second-chance hand passes it.
    referenced: bool,
}

/// The cache proper: normalized template + params → entry, bounded by
/// second-chance eviction.
///
/// All access goes through this module — the CI grep gate rejects any
/// `result_map` mention outside `cache.rs`, so hit/fill/invalidate
/// invariants cannot be bypassed piecemeal elsewhere in the driver.
pub(crate) struct ResultCache {
    enabled: bool,
    result_map: HashMap<Stmt, Entry>,
    /// One slot per fill, oldest first: `(key, generation)`. A slot whose
    /// generation no longer matches its key's entry is stale (the entry
    /// was invalidated or re-filled); stale slots are skipped by the hand
    /// and compacted away once they outnumber the live ones.
    ring: VecDeque<(Stmt, u64)>,
    next_generation: u64,
    pub(crate) stats: ResultCacheStats,
}

impl ResultCache {
    pub(crate) fn new() -> ResultCache {
        ResultCache {
            enabled: false,
            result_map: HashMap::new(),
            ring: VecDeque::new(),
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
        self.ring.clear();
    }

    /// Zeroes the counters (entries survive — they are still legal).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = ResultCacheStats::default();
    }

    /// Probes one key. Counts a hit or a miss; a hit marks its entry, so
    /// the second-chance hand re-queues it instead of evicting it.
    pub(crate) fn probe(&mut self, key: &Stmt) -> Option<ResultSet> {
        match self.result_map.get_mut(key) {
            Some(e) => {
                self.stats.hits += 1;
                e.referenced = true;
                Some(e.result.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records an executed read's result under its template+params key,
    /// unmarked. Re-filling an existing key replaces the entry in place
    /// (its old slot goes stale). Past [`RESULT_CACHE_CAP`] the
    /// second-chance hand evicts one entry; the new key is queued after
    /// the hand has run, so it is never the one evicted.
    pub(crate) fn fill(&mut self, key: Stmt, result: ResultSet, reads: Vec<TableAccess>) {
        let generation = self.next_generation;
        self.next_generation += 1;
        let entry = Entry {
            result,
            reads,
            generation,
            referenced: false,
        };
        if self.result_map.insert(key.clone(), entry).is_none()
            && self.result_map.len() > RESULT_CACHE_CAP
        {
            self.evict_one();
        }
        self.ring.push_back((key, generation));
        if self.ring.len() > 2 * self.result_map.len() {
            // Stale slots outnumber live ones: drop them, so the ring
            // never holds more than twice the cap.
            self.ring
                .retain(|(k, g)| self.result_map.get(k).is_some_and(|e| e.generation == *g));
        }
        self.stats.fills += 1;
    }

    /// The second-chance hand: pops slots oldest first, dropping stale
    /// ones; a marked entry is unmarked and re-queued, the first unmarked
    /// one is evicted. Every live entry has exactly one slot in the ring,
    /// so the hand evicts within one lap: after it has passed every slot,
    /// each live entry it re-queued is unmarked.
    fn evict_one(&mut self) {
        while let Some((old, gen)) = self.ring.pop_front() {
            let Some(e) = self
                .result_map
                .get_mut(&old)
                .filter(|e| e.generation == gen)
            else {
                continue;
            };
            if e.referenced {
                e.referenced = false;
                self.ring.push_back((old, gen));
            } else {
                self.result_map.remove(&old);
                self.stats.evictions += 1;
                return;
            }
        }
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

    /// Entries nothing probed leave oldest-first, as in fill order.
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

    /// Scan resistance: a hot set probed between one-time fills keeps
    /// hitting while four caps' worth of cold keys stream through, and
    /// every fill past the bound evicts exactly one (cold) entry. Without
    /// hits the marks run out: two more caps of fills (one lap of the
    /// hand to clear them, one to reach the entries again) take the set.
    #[test]
    fn probed_entries_survive_a_stream_of_one_time_fills() {
        const HOT: i64 = 64;
        let mut c = on();
        let hot = |i: i64| key("hot", &[i]);
        for i in 0..HOT {
            c.fill(hot(i), rs(i), reads_of("SELECT * FROM h WHERE id = 1"));
            assert!(c.probe(&hot(i)).is_some());
        }
        let cold = 4 * RESULT_CACHE_CAP as i64;
        for j in 0..cold {
            c.fill(
                key("cold", &[j]),
                rs(j),
                reads_of("SELECT * FROM t WHERE id = 1"),
            );
            if j % 128 == 127 {
                for i in 0..HOT {
                    assert_eq!(c.probe(&hot(i)), Some(rs(i)), "hot {i} after {j}");
                }
            }
        }
        assert_eq!(c.len(), RESULT_CACHE_CAP);
        assert_eq!(c.stats.evictions, c.stats.fills - RESULT_CACHE_CAP as u64);
        for j in cold..cold + 2 * RESULT_CACHE_CAP as i64 {
            c.fill(
                key("cold", &[j]),
                rs(j),
                reads_of("SELECT * FROM t WHERE id = 1"),
            );
        }
        assert!((0..HOT).all(|i| !c.result_map.contains_key(&hot(i))));
    }

    /// Invalidating and re-filling one key strands a slot per cycle; the
    /// ring drops stale slots once they outnumber the live ones.
    #[test]
    fn stale_slots_are_compacted() {
        let mut c = on();
        let sql = "SELECT * FROM t WHERE id = 1";
        for _ in 0..10_000 {
            c.fill(key("a", &[1]), rs(1), reads_of(sql));
            c.invalidate(&Footprint::of_sql("UPDATE t SET v = 2 WHERE id = 1"));
            assert!(c.ring.len() <= 2 * RESULT_CACHE_CAP);
        }
        assert_eq!(c.len(), 0);
        assert!(c.ring.len() <= 2, "{} slots for 0 entries", c.ring.len());
        assert_eq!(c.stats.invalidations, 10_000);
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
