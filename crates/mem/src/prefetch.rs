//! The SWSM's fully associative prefetch buffer.

use crate::{FxHashMap, LruMap};
use dae_isa::{Address, Cycle};

/// Configuration of a [`PrefetchBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchBufferConfig {
    /// Maximum number of entries; `None` models the paper's idealised
    /// (unbounded) buffer, `Some(n)` enables LRU replacement for the
    /// finite-capacity ablation.
    pub capacity: Option<usize>,
}

/// Counters of a [`PrefetchBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchBufferStats {
    /// Prefetches inserted.
    pub prefetches: u64,
    /// Access lookups that found their line present (arrived or in flight).
    pub hits: u64,
    /// Access lookups that missed (entry evicted or never prefetched).
    pub misses: u64,
    /// Entries evicted by LRU replacement.
    pub evictions: u64,
    /// Highest number of simultaneously resident entries.
    pub peak_occupancy: usize,
}

/// Storage behind a [`PrefetchBuffer`]: the paper's idealised unbounded
/// buffer needs no recency tracking at all (nothing is ever evicted), so it
/// skips the LRU bookkeeping on the per-access hot path; the
/// finite-capacity ablation keeps full LRU order.
#[derive(Debug, Clone)]
enum Entries {
    Unbounded(FxHashMap<Address, Cycle>),
    Lru(LruMap<Address, Cycle>),
}

/// The fully associative buffer that the SWSM's prefetch instructions fill
/// and its access instructions read with a single-cycle latency (§2 of the
/// paper).
///
/// Entries are keyed by effective address.  An access that finds its address
/// present must still wait until the data has *arrived* (the prefetch may
/// still be in flight); an access that misses — only possible with a finite
/// capacity — goes to memory itself and pays the full differential.
///
/// # Example
///
/// ```
/// use dae_mem::{PrefetchBuffer, PrefetchBufferConfig};
///
/// let mut buf = PrefetchBuffer::new(60, PrefetchBufferConfig::default());
/// buf.prefetch(0x200, 4);
/// assert_eq!(buf.available_at(0x200), Some(65));
/// assert_eq!(buf.available_at(0x999), None);
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    differential: Cycle,
    config: PrefetchBufferConfig,
    /// Arrival cycle per resident address.
    entries: Entries,
    stats: PrefetchBufferStats,
}

impl PrefetchBuffer {
    /// Creates a prefetch buffer for a machine with the given memory
    /// differential.
    #[must_use]
    pub fn new(differential: Cycle, config: PrefetchBufferConfig) -> Self {
        Self::with_scratch(differential, config, FxHashMap::default())
    }

    /// [`PrefetchBuffer::new`], recycling the entry map of a previous
    /// unbounded-mode run (recovered with [`PrefetchBuffer::into_scratch`])
    /// so pooled sweep points reuse its hash-table capacity.  The
    /// finite-capacity ablation keeps LRU order and allocates fresh; it is
    /// never on a sweep's hot path.
    #[must_use]
    pub fn with_scratch(
        differential: Cycle,
        config: PrefetchBufferConfig,
        mut scratch: FxHashMap<Address, Cycle>,
    ) -> Self {
        scratch.clear();
        PrefetchBuffer {
            differential,
            config,
            entries: match config.capacity {
                Some(_) => Entries::Lru(LruMap::new()),
                None => Entries::Unbounded(scratch),
            },
            stats: PrefetchBufferStats::default(),
        }
    }

    /// Consumes the buffer and returns its entry map for reuse (empty for
    /// the finite-capacity LRU mode, which does not recycle).
    #[must_use]
    pub fn into_scratch(self) -> FxHashMap<Address, Cycle> {
        match self.entries {
            Entries::Unbounded(map) => map,
            Entries::Lru(_) => FxHashMap::default(),
        }
    }

    /// Current number of resident entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        match &self.entries {
            Entries::Unbounded(map) => map.len(),
            Entries::Lru(map) => map.len(),
        }
    }

    /// Records a prefetch of `addr` issued at cycle `issue`; the data
    /// arrives `1 + MD` cycles later.  Returns the arrival cycle.
    #[inline]
    pub fn prefetch(&mut self, addr: Address, issue: Cycle) -> Cycle {
        self.stats.prefetches += 1;
        let arrival = issue + 1 + self.differential;
        let occupancy = match &mut self.entries {
            Entries::Unbounded(map) => {
                map.insert(addr, arrival);
                map.len()
            }
            Entries::Lru(map) => {
                map.insert(addr, arrival);
                if let Some(cap) = self.config.capacity {
                    while map.len() > cap {
                        if map.pop_lru().is_some() {
                            self.stats.evictions += 1;
                        } else {
                            break;
                        }
                    }
                }
                map.len()
            }
        };
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(occupancy);
        arrival
    }

    /// The arrival cycle of the data for `addr`, if the address is resident
    /// (the data may still be in flight).
    #[must_use]
    #[inline]
    pub fn available_at(&self, addr: Address) -> Option<Cycle> {
        match &self.entries {
            Entries::Unbounded(map) => map.get(&addr).copied(),
            Entries::Lru(map) => map.get(&addr).copied(),
        }
    }

    /// Performs an access lookup at cycle `now`, updating hit/miss counters
    /// and LRU order.  Returns the arrival cycle of the data if the address
    /// is resident.
    #[inline]
    pub fn access(&mut self, addr: Address, _now: Cycle) -> Option<Cycle> {
        let found = match &mut self.entries {
            Entries::Unbounded(map) => map.get(&addr).copied(),
            Entries::Lru(map) => {
                let found = map.get(&addr).copied();
                if found.is_some() {
                    map.touch(&addr);
                }
                found
            }
        };
        match found {
            Some(arrival) => {
                self.stats.hits += 1;
                Some(arrival)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> PrefetchBufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetched_data_arrives_after_the_differential() {
        let mut buf = PrefetchBuffer::new(40, PrefetchBufferConfig::default());
        assert_eq!(buf.prefetch(0x80, 10), 51);
        assert_eq!(buf.available_at(0x80), Some(51));
        assert_eq!(buf.available_at(0x88), None);
    }

    #[test]
    fn access_counts_hits_and_misses() {
        let mut buf = PrefetchBuffer::new(10, PrefetchBufferConfig::default());
        buf.prefetch(0x40, 0);
        assert_eq!(buf.access(0x40, 20), Some(11));
        assert_eq!(buf.access(0x99, 20), None);
        let st = buf.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.prefetches, 1);
    }

    #[test]
    fn unlimited_buffer_never_evicts() {
        let mut buf = PrefetchBuffer::new(5, PrefetchBufferConfig::default());
        for i in 0..500u64 {
            buf.prefetch(i * 8, i);
        }
        assert_eq!(buf.occupancy(), 500);
        assert_eq!(buf.stats().evictions, 0);
        assert_eq!(buf.stats().peak_occupancy, 500);
    }

    #[test]
    fn finite_buffer_evicts_least_recently_used() {
        let mut buf = PrefetchBuffer::new(5, PrefetchBufferConfig { capacity: Some(2) });
        buf.prefetch(0x00, 0);
        buf.prefetch(0x08, 1);
        // Touch 0x00 so 0x08 becomes the LRU victim.
        buf.access(0x00, 10);
        buf.prefetch(0x10, 2);
        assert!(buf.available_at(0x00).is_some());
        assert!(buf.available_at(0x08).is_none(), "LRU entry evicted");
        assert!(buf.available_at(0x10).is_some());
        assert_eq!(buf.stats().evictions, 1);
        assert_eq!(buf.occupancy(), 2);
    }

    #[test]
    fn re_prefetching_updates_arrival_without_duplicating() {
        let mut buf = PrefetchBuffer::new(10, PrefetchBufferConfig::default());
        buf.prefetch(0x40, 0);
        buf.prefetch(0x40, 100);
        assert_eq!(buf.occupancy(), 1);
        assert_eq!(buf.available_at(0x40), Some(111));
    }
}
