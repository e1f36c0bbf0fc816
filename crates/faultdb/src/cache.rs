//! Sharded LRU cache of decoded blocks.
//!
//! Decoding a block (CRC + column unpack) costs far more than the
//! aggregation that follows, so repeated queries over a warm working set
//! should not pay it twice. Blocks hash to a shard by index; each shard
//! is an independently locked map with its own LRU clock, so concurrent
//! server requests rarely contend on the same mutex. Hit/miss/eviction
//! counters are process-wide atomics — the server reports them and the
//! benchmarks record them.
//!
//! Each cached `Block` also holds the block's all-rows counts per
//! dimension, filled in by the first query that takes the block whole
//! (see [`crate::kernel`]). They live and die with the decoded block.
//!
//! Correctness note: the cache stores *decoded, CRC-verified* blocks
//! keyed by index in an immutable file, so a hit can never observe
//! different bytes than a miss — caching is invisible to query results
//! by construction, and so are the counts: they are a function of the
//! block's rows alone. Two racing misses on one block may both decode
//! it; the second insert wins and the counters show two misses. That is
//! a performance wrinkle, not a correctness one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::encoding::Columns;
use crate::format::ZoneMap;
use crate::kernel::Counts;

/// Dimensions a block keeps all-rows counts for: one per [`crate::query::Dim`].
const DIMS: usize = 7;

/// A decoded block as the cache holds it.
pub(crate) struct Block {
    pub(crate) columns: Columns,
    /// The footer's zone map; decode proved that every row lies inside it.
    pub(crate) zone: ZoneMap,
    /// All-rows counts, indexed by `Dim as usize`, each computed once.
    pub(crate) counts: [OnceLock<Counts>; DIMS],
    /// All-rows histogram of flipped-bit counts, computed once.
    pub(crate) hist: OnceLock<Box<[u64; 33]>>,
}

impl Block {
    pub(crate) fn new(columns: Columns, zone: ZoneMap) -> Block {
        Block {
            columns,
            zone,
            counts: Default::default(),
            hist: OnceLock::new(),
        }
    }
}

/// Number of shards; power of two so `index % SHARDS` is a mask.
const SHARDS: usize = 8;

/// Cache counters, read without locking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in [0, 1]; 0 when the cache was never touched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    block: Arc<Block>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u32, Entry>,
    clock: u64,
}

/// The cache itself. Capacity is in *blocks*, split evenly over shards
/// (at least one per shard).
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BlockCache {
    pub fn new(capacity_blocks: usize) -> BlockCache {
        BlockCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap: capacity_blocks.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, index: u32) -> &Mutex<Shard> {
        &self.shards[index as usize % SHARDS]
    }

    /// Look a block up, refreshing its LRU position on a hit.
    pub(crate) fn get(&self, index: u32) -> Option<Arc<Block>> {
        let mut shard = self.shard(index).lock();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(&index) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.block))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly decoded block, evicting the least recently used
    /// entry of the shard if it is full.
    pub(crate) fn insert(&self, index: u32, block: Arc<Block>) {
        let mut shard = self.shard(index).lock();
        shard.clock += 1;
        let clock = shard.clock;
        if !shard.map.contains_key(&index) && shard.map.len() >= self.per_shard_cap {
            if let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, e)| e.last_used) {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            index,
            Entry {
                block,
                last_used: clock,
            },
        );
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(_n: usize) -> Arc<Block> {
        Arc::new(Block::new(Columns::default(), ZoneMap::empty()))
    }

    #[test]
    fn hit_miss_and_eviction_accounting() {
        let cache = BlockCache::new(SHARDS); // one block per shard
        assert!(cache.get(0).is_none());
        cache.insert(0, block(1));
        assert!(cache.get(0).is_some());
        // Same shard (0 and SHARDS share one), cap 1: inserting evicts.
        cache.insert(SHARDS as u32, block(2));
        assert!(cache.get(SHARDS as u32).is_some());
        assert!(cache.get(0).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_prefers_evicting_the_stalest() {
        // Capacity 2 in shard 0: indices 0, 8, 16 collide there.
        let cache = BlockCache::new(2 * SHARDS);
        cache.insert(0, block(0));
        cache.insert(8, block(0));
        cache.get(0); // refresh 0, making 8 the LRU
        cache.insert(16, block(0));
        assert!(cache.get(0).is_some());
        assert!(cache.get(8).is_none(), "stalest entry evicted");
        assert!(cache.get(16).is_some());
    }
}
