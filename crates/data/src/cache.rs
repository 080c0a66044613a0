//! XRootD-style LRU dataset cache.
//!
//! DCSim (the closest prior HEP simulator) models XRootD-like data caching;
//! CGSim-RS provides the same capability so data-movement policies can trade
//! wide-area transfers for site-local cache hits. The cache is a byte-bounded
//! LRU keyed by dataset.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::catalog::DatasetId;

/// Hit/miss statistics of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of lookups that found the dataset cached.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
    /// Number of datasets evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when the cache was never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sentinel for "no node" in the intrusive recency list.
const NIL: usize = usize::MAX;

/// One slab slot of the recency list.
#[derive(Debug, Clone)]
struct Node {
    dataset: DatasetId,
    bytes: u64,
    prev: usize,
    next: usize,
}

/// A byte-bounded LRU cache of datasets.
///
/// Implemented as a slab-backed intrusive doubly-linked recency list plus a
/// `DatasetId → slot` index, so `contains`/`lookup`/`insert` are all O(1).
/// (The first cut was a `VecDeque` scanned linearly per operation; while the
/// broker probed every site cache on every dispatch, that turned a run of
/// 10⁶ jobs with ~20k live datasets quadratic.)
/// The index is used for point lookups only — never iterated — so the cache
/// stays deterministic.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity_bytes: u64,
    used_bytes: u64,
    nodes: Vec<Node>,
    free: Vec<usize>,
    index: HashMap<DatasetId, usize>,
    /// Least recently used (eviction victim).
    head: usize,
    /// Most recently used.
    tail: usize,
    stats: CacheStats,
}

impl LruCache {
    /// Creates an empty cache with the given capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached datasets.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Unlinks `slot` from the recency list (the slot itself stays allocated).
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Links `slot` at the tail (most recently used).
    fn link_tail(&mut self, slot: usize) {
        self.nodes[slot].prev = self.tail;
        self.nodes[slot].next = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.nodes[self.tail].next = slot;
        }
        self.tail = slot;
    }

    /// Looks up a dataset, recording a hit or miss and refreshing recency on
    /// a hit.
    pub fn lookup(&mut self, dataset: DatasetId) -> bool {
        if let Some(&slot) = self.index.get(&dataset) {
            if self.tail != slot {
                self.unlink(slot);
                self.link_tail(slot);
            }
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// True if the dataset is cached, without touching recency or statistics.
    pub fn contains(&self, dataset: DatasetId) -> bool {
        self.index.contains_key(&dataset)
    }

    /// Drops every cached dataset (a site outage wipes the site cache);
    /// statistics are preserved, evictions are not counted. Returns the
    /// number of datasets dropped.
    pub fn clear(&mut self) -> usize {
        let dropped = self.index.len();
        self.nodes.clear();
        self.free.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used_bytes = 0;
        dropped
    }

    /// Inserts a dataset of the given size, evicting least-recently-used
    /// entries as needed. Datasets larger than the whole cache are not
    /// admitted. Returns the evicted datasets.
    pub fn insert(&mut self, dataset: DatasetId, bytes: u64) -> Vec<DatasetId> {
        let mut evicted = Vec::new();
        if bytes > self.capacity_bytes {
            return evicted;
        }
        if self.contains(dataset) {
            return evicted;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let victim = self.head;
            if victim == NIL {
                break;
            }
            self.unlink(victim);
            let node = &self.nodes[victim];
            self.used_bytes -= node.bytes;
            self.index.remove(&node.dataset);
            self.stats.evictions += 1;
            evicted.push(node.dataset);
            self.free.push(victim);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Node {
                    dataset,
                    bytes,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.nodes.push(Node {
                    dataset,
                    bytes,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.link_tail(slot);
        self.index.insert(dataset, slot);
        self.used_bytes += bytes;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(i: usize) -> DatasetId {
        DatasetId::new(i)
    }

    #[test]
    fn hit_miss_accounting() {
        let mut cache = LruCache::new(100);
        assert!(!cache.lookup(ds(1)));
        cache.insert(ds(1), 40);
        assert!(cache.lookup(ds(1)));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(100);
        cache.insert(ds(1), 40);
        cache.insert(ds(2), 40);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(ds(1)));
        let evicted = cache.insert(ds(3), 40);
        assert_eq!(evicted, vec![ds(2)]);
        assert!(cache.contains(ds(1)));
        assert!(cache.contains(ds(3)));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.used_bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn oversized_datasets_are_not_admitted() {
        let mut cache = LruCache::new(10);
        let evicted = cache.insert(ds(1), 100);
        assert!(evicted.is_empty());
        assert!(cache.is_empty());
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut cache = LruCache::new(100);
        cache.insert(ds(1), 40);
        cache.insert(ds(1), 40);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 40);
    }

    #[test]
    fn clear_drops_everything_but_keeps_stats() {
        let mut cache = LruCache::new(100);
        cache.insert(ds(1), 40);
        cache.insert(ds(2), 40);
        assert!(cache.lookup(ds(1)));
        assert_eq!(cache.clear(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        assert!(!cache.contains(ds(1)));
        assert_eq!(cache.stats().hits, 1);
        // The cache keeps working after a wipe.
        cache.insert(ds(3), 10);
        assert!(cache.contains(ds(3)));
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        let cache = LruCache::new(10);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }
}
