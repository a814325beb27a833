//! Bounded LRU cache for served embeddings.
//!
//! Keyed by `(node, checkpoint_hash, graph_version, seed)` — the full
//! determinism contract of an embedding request. The checkpoint hash
//! (FNV-1a over the exact checkpoint bytes, see
//! [`widen_tensor::digest64`]) makes entries from a previous model
//! generation unreachable without an explicit flush, and the graph
//! version (the registry's mutation counter) does the same for entries
//! computed on an older graph: embeddings come from deep walks, so a
//! mutation can change the sampling stream of any node within the walk
//! radius of the touched endpoints, not just the endpoints themselves.
//! Rather than computing receptive fields, every mutation bumps the
//! version and every pre-mutation key simply stops being asked for.

use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError};

use rustc_hash::FxHashMap;
use widen_obs::{Counter, Registry};

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An O(1) least-recently-used map: intrusive doubly-linked list over a
/// slab, with an `FxHashMap` index. Capacity 0 disables caching entirely.
pub struct Lru<K, V> {
    map: FxHashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    cap: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// A cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        Self {
            map: FxHashMap::default(),
            slab: Vec::with_capacity(cap.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(&self.slab[idx].value)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when full. A zero-capacity cache drops everything.
    pub fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            if idx != self.head {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        if self.map.len() >= self.cap {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.slab[idx] = Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.slab.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drops every entry whose key `keep` rejects; the rest keep their
    /// recency order. The slab is rebuilt, so what the dropped entries held
    /// is returned at once.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let mut oldest_first = Vec::with_capacity(self.len());
        let mut idx = self.tail;
        while idx != NIL {
            oldest_first.push(idx);
            idx = self.slab[idx].prev;
        }
        let mut slab: Vec<_> = std::mem::take(&mut self.slab)
            .into_iter()
            .map(Some)
            .collect();
        *self = Self::new(self.cap);
        for idx in oldest_first {
            // A live entry is linked once; a hole would be one already
            // taken, and is skipped.
            if let Some(entry) = slab[idx].take() {
                if keep(&entry.key) {
                    self.insert(entry.key, entry.value);
                }
            }
        }
    }
}

/// Cache key: the complete identity of a served embedding.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EmbedKey {
    /// Target node.
    pub node: u32,
    /// [`widen_tensor::digest64`] of the model's checkpoint bytes.
    pub checkpoint_hash: u64,
    /// The registry's graph mutation counter at compute time. Any graph
    /// mutation bumps it, so rows computed on an older graph — whose
    /// sampling streams the mutation may have changed anywhere within the
    /// walk radius — become unreachable.
    pub graph_version: u64,
    /// Neighbourhood sampling seed.
    pub seed: u64,
}

/// Hit/miss counters, exported through server stats.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the model.
    pub misses: u64,
}

/// Thread-safe embedding cache shared by the batcher and the ingest
/// executor.
pub struct EmbedCache {
    inner: Mutex<(Lru<EmbedKey, Vec<f32>>, CacheStats)>,
    counters: Option<(Arc<Counter>, Arc<Counter>)>,
}

impl EmbedCache {
    /// A cache holding at most `cap` embeddings (0 disables caching).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new((Lru::new(cap), CacheStats::default())),
            counters: None,
        }
    }

    /// Like [`EmbedCache::new`], but mirrors hits and misses into
    /// `metrics` as `serve_cache_hits_total` / `serve_cache_misses_total`.
    pub fn with_metrics(cap: usize, metrics: &Registry) -> Self {
        Self {
            counters: Some((
                metrics.counter("serve_cache_hits_total"),
                metrics.counter("serve_cache_misses_total"),
            )),
            ..Self::new(cap)
        }
    }

    /// Cached embedding for `key`, if present.
    pub fn get(&self, key: &EmbedKey) -> Option<Vec<f32>> {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let (lru, stats) = &mut *guard;
        let hit = lru.get(key).cloned();
        if hit.is_some() {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        drop(guard);
        match (&hit, &self.counters) {
            (Some(_), Some((hits, _))) => hits.inc(),
            (None, Some((_, misses))) => misses.inc(),
            _ => {}
        }
        hit
    }

    /// Stores an embedding.
    pub fn insert(&self, key: EmbedKey, value: Vec<f32>) {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        guard.0.insert(key, value);
    }

    /// Drops every cached embedding whose key `keep` rejects, keeping
    /// capacity and hit/miss counters. Called on checkpoint hot-swap and
    /// graph mutation with "is of the generation just created": the
    /// digest- and version-keyed entries from the old generation would
    /// already be unreachable, but flushing eagerly returns their memory
    /// and guarantees a stale row can never be served, even by a future key
    /// collision. The flush runs after the registry's write guard is
    /// released, so the batcher may already have inserted rows of the
    /// new generation — which is why it selects by key instead of dropping
    /// everything: those rows are current and must survive.
    pub fn retain(&self, keep: impl FnMut(&EmbedKey) -> bool) {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        guard.0.retain(keep);
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).1
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        guard.0.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get(&"a"), Some(&1)); // promote a
        lru.insert("c", 3); // evicts b
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"c"), Some(&3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn refresh_updates_value_and_recency() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("a", 10); // refresh: a becomes MRU
        lru.insert("c", 3); // evicts b
        assert_eq!(lru.get(&"a"), Some(&10));
        assert_eq!(lru.get(&"b"), None);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut lru = Lru::new(0);
        lru.insert("a", 1);
        assert_eq!(lru.get(&"a"), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn slab_reuse_keeps_len_bounded() {
        let mut lru = Lru::new(3);
        for i in 0..100u32 {
            lru.insert(i, i * 2);
        }
        assert_eq!(lru.len(), 3);
        for i in 97..100 {
            assert_eq!(lru.get(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn graph_version_is_part_of_the_key() {
        let cache = EmbedCache::new(16);
        let key = EmbedKey {
            node: 1,
            checkpoint_hash: 0xA,
            graph_version: 0,
            seed: 7,
        };
        cache.insert(key, vec![1.0]);
        assert!(cache.get(&key).is_some());
        // A graph mutation bumps the version: the old row is unreachable
        // under the new version, for the same node, digest and seed.
        let bumped = EmbedKey {
            graph_version: 1,
            ..key
        };
        assert!(cache.get(&bumped).is_none());
        // …and the old key still answers for readers of the old version.
        assert!(cache.get(&key).is_some());
    }

    #[test]
    fn retain_preserves_recency_order_and_frees_the_rest() {
        let mut lru = Lru::new(3);
        for i in 0..4u32 {
            lru.insert(i, i); // 0 is evicted; recency 1 < 2 < 3
        }
        lru.get(&1); // recency 2 < 3 < 1
        lru.retain(|&k| k != 3);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&3), None);
        lru.insert(4, 4);
        lru.insert(5, 5); // evicts 2, the oldest survivor
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&1));
    }

    #[test]
    fn flush_keeps_rows_of_the_new_generation_capacity_and_counters() {
        // An ingest's flush runs after the write guard is gone: a row a
        // batch inserted under the new graph version in that gap
        // must survive it, every older row must not.
        let cache = EmbedCache::new(4);
        let old = EmbedKey {
            node: 1,
            checkpoint_hash: 1,
            graph_version: 0,
            seed: 1,
        };
        let new = EmbedKey {
            graph_version: 1,
            ..old
        };
        cache.insert(old, vec![1.0]);
        cache.insert(new, vec![2.0]);
        assert!(cache.get(&old).is_some());
        cache.retain(|key| key.graph_version >= 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&old).is_none());
        assert_eq!(cache.get(&new), Some(vec![2.0]));
        // Same for a hot swap's digest flush.
        let swapped = EmbedKey {
            checkpoint_hash: 2,
            ..new
        };
        cache.insert(swapped, vec![3.0]);
        cache.retain(|key| key.checkpoint_hash == 2);
        assert!(cache.get(&new).is_none());
        assert_eq!(cache.get(&swapped), Some(vec![3.0]));
        cache.insert(old, vec![4.0]);
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 2));
    }

    #[test]
    fn embed_cache_counts_hits_and_misses() {
        let cache = EmbedCache::new(8);
        let key = EmbedKey {
            node: 1,
            checkpoint_hash: 0xAB,
            graph_version: 0,
            seed: 7,
        };
        assert!(cache.get(&key).is_none());
        cache.insert(key, vec![1.0, 2.0]);
        assert_eq!(cache.get(&key), Some(vec![1.0, 2.0]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A different checkpoint generation misses.
        let other = EmbedKey {
            checkpoint_hash: 0xCD,
            ..key
        };
        assert!(cache.get(&other).is_none());
    }

    #[test]
    fn a_panic_while_holding_the_lock_does_not_wedge_the_cache() {
        let cache = EmbedCache::new(8);
        let key = EmbedKey {
            node: 1,
            checkpoint_hash: 0xAB,
            graph_version: 0,
            seed: 7,
        };
        cache.insert(key, vec![1.0]);
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _guard = cache.inner.lock();
                panic!("worker dies holding the cache lock");
            });
            assert!(worker.join().is_err());
        });
        assert!(cache.inner.is_poisoned());
        assert_eq!(cache.get(&key), Some(vec![1.0]));
        cache.insert(EmbedKey { node: 2, ..key }, vec![2.0]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().hits, 1);
    }
}
