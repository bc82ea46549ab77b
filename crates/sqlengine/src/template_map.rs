//! The one bounded template-keyed map behind every per-template cache.
//!
//! The plan cache, the footprint cache, the read-classification cache and
//! the shard router's route cache all remember one value per normalized
//! **template**, all bound their memory the same way (FIFO, first in
//! first out — templates of a live workload are few and stable, so
//! recency tracking would buy nothing) and all face the same race: two
//! sessions miss the same template concurrently and both come back to
//! insert it. This type is that map, once.

use std::collections::{HashMap, VecDeque};

/// Entries beyond this count evict the oldest: enough for every distinct
/// template of the benchmark workloads while bounding memory for
/// adversarial query streams.
pub const TEMPLATE_CACHE_CAP: usize = 512;

/// Bounded template → `V` map with FIFO eviction. Not synchronized:
/// owners keep it behind their own mutex, next to their own counters.
#[derive(Debug, Clone)]
pub struct TemplateMap<V> {
    map: HashMap<String, V>,
    order: VecDeque<String>,
    evictions: u64,
}

impl<V> Default for TemplateMap<V> {
    fn default() -> Self {
        TemplateMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            evictions: 0,
        }
    }
}

impl<V> TemplateMap<V> {
    /// The value remembered for `template`, if any.
    pub fn get(&self, template: &str) -> Option<&V> {
        self.map.get(template)
    }

    /// Remembers `value` for `template` unless the template is already
    /// present — the first insert wins. Callers look up, miss, compute
    /// outside the lock and come back, so a concurrent session may have
    /// filled the slot meanwhile; a second insert would queue the key
    /// twice in the eviction order and its later pop would evict the live
    /// entry early. Evicts oldest-first to stay within
    /// [`TEMPLATE_CACHE_CAP`].
    pub fn insert_if_absent(&mut self, template: &str, value: V) {
        if self.map.contains_key(template) {
            return;
        }
        while self.map.len() >= TEMPLATE_CACHE_CAP {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if self.map.remove(&oldest).is_some() {
                self.evictions += 1;
            }
        }
        self.order.push_back(template.to_string());
        self.map.insert(template.to_string(), value);
    }

    /// Templates currently remembered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries dropped by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_insert_wins_and_queues_the_key_once() {
        let mut m = TemplateMap::default();
        m.insert_if_absent("a", 1);
        m.insert_if_absent("a", 2);
        assert_eq!(m.get("a"), Some(&1));
        // Fill to the cap: had "a" been queued twice, its second queue
        // slot would evict a live entry one insert early.
        for i in 1..TEMPLATE_CACHE_CAP {
            m.insert_if_absent(&format!("t{i}"), i);
        }
        assert_eq!((m.len(), m.evictions()), (TEMPLATE_CACHE_CAP, 0));
        m.insert_if_absent("one more", 0);
        assert_eq!((m.len(), m.evictions()), (TEMPLATE_CACHE_CAP, 1));
        assert_eq!(m.get("a"), None, "the oldest entry went first");
        assert_eq!(m.get("t1"), Some(&1));
    }
}
