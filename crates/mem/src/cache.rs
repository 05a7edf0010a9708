//! A small set-associative cache model.
//!
//! The paper deliberately models the memory system as a flat fixed cost
//! ("the memory differential") and notes that in practice first and second
//! level caches would reduce the average access time.  No machine model or
//! experiment in this workspace drives this cache: every figure uses the
//! flat cost.

use dae_isa::Address;

/// Geometry of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// A small L1-like configuration: 8 KiB, 2-way, 32-byte lines.
    #[must_use]
    pub fn small_l1() -> Self {
        CacheConfig {
            sets: 128,
            ways: 2,
            line_bytes: 32,
        }
    }

    /// A larger L2-like configuration: 256 KiB, 4-way, 64-byte lines.
    #[must_use]
    pub fn small_l2() -> Self {
        CacheConfig {
            sets: 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

/// Hit / miss counters of a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (zero when there were no accesses).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with LRU replacement, tracking only tags.
///
/// # Example
///
/// ```
/// use dae_mem::{Cache, CacheConfig};
///
/// let mut cache = Cache::new(CacheConfig::small_l1());
/// assert!(!cache.access(0x1000)); // cold miss
/// assert!(cache.access(0x1004));  // same line hits
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per set: the resident line tags with the recency stamp of their last
    /// access.  LRU selection compares stamps instead of maintaining a
    /// move-to-front vector (the seed shifted entries on every hit).
    sets: Vec<Vec<(u64, u64)>>,
    /// Monotone access clock backing the recency stamps.
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, or if `ways`
    /// is zero.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "associativity must be non-zero");
        Cache {
            config,
            sets: vec![Vec::with_capacity(config.ways); config.sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses `addr`, returning `true` on a hit.  The line is installed on
    /// a miss (no distinction between loads and stores; the model is
    /// write-allocate).
    pub fn access(&mut self, addr: Address) -> bool {
        self.stats.accesses += 1;
        self.clock += 1;
        let line = addr / self.config.line_bytes;
        let set_idx = (line as usize) & (self.config.sets - 1);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|(tag, _)| *tag == line) {
            way.1 = self.clock;
            self.stats.hits += 1;
            true
        } else {
            if set.len() >= self.config.ways {
                let victim = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(_, stamp))| stamp)
                    .map(|(i, _)| i)
                    .expect("full set has a victim");
                set.swap_remove(victim);
            }
            set.push((line, self.clock));
            self.stats.misses += 1;
            false
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_line_hits_after_cold_miss() {
        let mut c = Cache::new(CacheConfig::small_l1());
        assert!(!c.access(0x1000));
        assert!(c.access(0x101f), "same 32-byte line");
        assert!(!c.access(0x1020), "next line misses");
        let st = c.stats();
        assert_eq!(st.accesses, 3);
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 2);
        assert!((st.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn conflict_misses_respect_associativity() {
        // 2-way cache: three lines mapping to the same set cause the first to
        // be evicted.
        let cfg = CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 16,
        };
        let mut c = Cache::new(cfg);
        let set_stride = 16 * 4; // lines that differ by sets*line_bytes share a set
        c.access(0);
        c.access(set_stride);
        c.access(2 * set_stride); // evicts line 0
        assert!(!c.access(0), "evicted line misses again");
        assert!(c.access(2 * set_stride));
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 2,
            line_bytes: 8,
        };
        let mut c = Cache::new(cfg);
        c.access(0x00);
        c.access(0x08);
        c.access(0x00); // touch: 0x08 is now LRU
        c.access(0x10); // evicts 0x08
        assert!(c.access(0x00));
        assert!(!c.access(0x08));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 32,
        });
    }

    #[test]
    fn capacity_bytes_is_consistent() {
        assert_eq!(CacheConfig::small_l1().capacity_bytes(), 8 * 1024);
        assert_eq!(CacheConfig::small_l2().capacity_bytes(), 256 * 1024);
    }
}
