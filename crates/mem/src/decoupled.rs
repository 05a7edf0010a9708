//! The decoupled memory: the buffer between the AU and the DU.

use crate::LruMap;
use dae_isa::{Address, Cycle};

/// Configuration of the optional bypass in front of the decoupled memory.
///
/// The paper's future-work section suggests "a bypass mechanism which
/// captures the temporal locality exposed by decoupling": if the AU requests
/// an address whose data was fetched recently, the value can be supplied
/// from the bypass instead of paying the full memory differential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BypassConfig {
    /// How many recently returned cache-line addresses the bypass remembers.
    pub entries: usize,
    /// The line granularity (bytes) at which addresses are matched.
    pub line_bytes: u64,
}

impl Default for BypassConfig {
    fn default() -> Self {
        BypassConfig {
            entries: 64,
            line_bytes: 32,
        }
    }
}

/// Configuration of the [`DecoupledMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecoupledMemoryConfig {
    /// Maximum number of load transactions resident at once (in flight from
    /// memory plus buffered awaiting consumption).  `None` models the
    /// paper's idealised unlimited queues.
    pub capacity: Option<usize>,
    /// Optional bypass capturing temporal locality.
    pub bypass: Option<BypassConfig>,
}

/// Counters of a [`DecoupledMemory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoupledMemoryStats {
    /// Load addresses received from the AU.
    pub load_requests: u64,
    /// Store addresses/data received.
    pub store_requests: u64,
    /// Values handed to a consuming unit.
    pub consumed: u64,
    /// Load requests satisfied by the bypass (single-cycle latency).
    pub bypass_hits: u64,
    /// Highest number of simultaneously resident transactions.
    pub peak_occupancy: usize,
    /// Total cycles values spent buffered between arrival and consumption.
    pub buffered_cycles: u64,
}

/// Sentinel marking a transaction slot as not resident (no simulation can
/// reach this cycle — the deadlock safety bounds trip far earlier).
const ABSENT: Cycle = Cycle::MAX;

/// The decoupled memory of the access decoupled machine.
///
/// "The decoupled memory receives addresses from the AU and sends them to
/// the memory system.  When a referenced value is returned the decoupled
/// memory buffers the value until it is requested by the DU.  Requests from
/// the decoupled memory take a single cycle.  AU self loads are executed in
/// a similar way."  (§2 of the paper.)
///
/// The structure tracks, per memory transaction tag, when the value becomes
/// available; the machine model gates the readiness of `LoadConsume`
/// instructions on [`DecoupledMemory::data_ready`] and calls
/// [`DecoupledMemory::consume`] when the consume instruction completes.
///
/// # Example
///
/// ```
/// use dae_mem::{DecoupledMemory, DecoupledMemoryConfig};
///
/// let mut dmem = DecoupledMemory::new(60, DecoupledMemoryConfig::default());
/// dmem.request_load(0, 0x100, 5);
/// assert!(!dmem.data_ready(0, 10));
/// assert!(dmem.data_ready(0, 66));   // 5 + 1 + 60
/// dmem.consume(0, 70);
/// assert_eq!(dmem.stats().consumed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DecoupledMemory {
    differential: Cycle,
    config: DecoupledMemoryConfig,
    /// Arrival cycle of each outstanding / buffered transaction, indexed by
    /// tag — tags are dense lowering-assigned indices, so this is a flat
    /// array rather than a hash map (the AU queries it for every request and
    /// the DU for every consume gate; hashing was a measurable share of the
    /// whole DM simulation).
    arrivals: Vec<Cycle>,
    /// Number of resident transactions (entries not [`ABSENT`]).
    resident: usize,
    /// Recently returned line addresses with recency tracking (LRU
    /// replacement without queue scans).
    bypass_lines: LruMap<u64, ()>,
    stats: DecoupledMemoryStats,
}

impl DecoupledMemory {
    /// Creates a decoupled memory for a machine with the given memory
    /// differential.
    #[must_use]
    pub fn new(differential: Cycle, config: DecoupledMemoryConfig) -> Self {
        Self::with_scratch(differential, config, Vec::new())
    }

    /// [`DecoupledMemory::new`], recycling the arrival array of a previous
    /// run (recovered with [`DecoupledMemory::into_scratch`]) so pooled
    /// sweep points pay no per-run allocation for the tag table.
    #[must_use]
    pub fn with_scratch(
        differential: Cycle,
        config: DecoupledMemoryConfig,
        mut arrivals: Vec<Cycle>,
    ) -> Self {
        arrivals.clear();
        DecoupledMemory {
            differential,
            config,
            arrivals,
            resident: 0,
            bypass_lines: LruMap::new(),
            stats: DecoupledMemoryStats::default(),
        }
    }

    /// Consumes the memory and returns its arrival array for reuse.
    #[must_use]
    pub fn into_scratch(self) -> Vec<Cycle> {
        self.arrivals
    }

    /// The configured memory differential.
    #[must_use]
    #[inline]
    pub fn differential(&self) -> Cycle {
        self.differential
    }

    /// Returns `true` if a new load transaction can be accepted (capacity
    /// permitting).
    #[must_use]
    #[inline]
    pub fn can_accept(&self) -> bool {
        match self.config.capacity {
            Some(cap) => self.resident < cap,
            None => true,
        }
    }

    /// Current number of resident transactions.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.resident
    }

    /// Registers a load address sent by the AU at cycle `issue`; the value
    /// becomes available `1 + MD` cycles later, or after a single cycle if
    /// the bypass holds the line.  Returns the arrival cycle.
    #[inline]
    pub fn request_load(&mut self, tag: u32, addr: Address, issue: Cycle) -> Cycle {
        self.stats.load_requests += 1;
        let arrival = if self.bypass_hit(addr) {
            self.stats.bypass_hits += 1;
            issue + 1
        } else {
            issue + 1 + self.differential
        };
        self.record_bypass_line(addr);
        let slot = tag as usize;
        if slot >= self.arrivals.len() {
            self.arrivals.resize(slot + 1, ABSENT);
        }
        debug_assert_eq!(self.arrivals[slot], ABSENT, "tag requested twice");
        self.arrivals[slot] = arrival;
        self.resident += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.resident);
        arrival
    }

    /// Registers a store-side operation (address or data).  Stores do not
    /// occupy buffer space in this model and nothing waits for them.
    #[inline]
    pub fn request_store(&mut self, _addr: Address, _issue: Cycle) {
        self.stats.store_requests += 1;
    }

    /// The arrival cycle of transaction `tag`, if it is resident.
    #[must_use]
    #[inline]
    pub fn arrival(&self, tag: u32) -> Option<Cycle> {
        self.arrivals
            .get(tag as usize)
            .copied()
            .filter(|&arrival| arrival != ABSENT)
    }

    /// Returns `true` if transaction `tag`'s value is available at cycle
    /// `now`.
    #[must_use]
    #[inline]
    pub fn data_ready(&self, tag: u32, now: Cycle) -> bool {
        // `ABSENT` compares greater than any reachable `now`, so one
        // comparison covers both "not resident" and "still in flight".
        self.arrivals
            .get(tag as usize)
            .is_some_and(|&arrival| arrival <= now)
    }

    /// Hands the value of transaction `tag` to a consuming unit at cycle
    /// `now` and releases its buffer slot.
    ///
    /// # Panics
    ///
    /// Panics if the transaction was never requested (a lowering bug).
    #[inline]
    pub fn consume(&mut self, tag: u32, now: Cycle) {
        let slot = self
            .arrivals
            .get_mut(tag as usize)
            .filter(|arrival| **arrival != ABSENT)
            .expect("consume of a transaction that was never requested");
        let arrival = std::mem::replace(slot, ABSENT);
        self.resident -= 1;
        self.stats.consumed += 1;
        self.stats.buffered_cycles += now.saturating_sub(arrival);
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DecoupledMemoryStats {
        self.stats
    }

    fn bypass_hit(&self, addr: Address) -> bool {
        match self.config.bypass {
            Some(cfg) => {
                let line = addr / cfg.line_bytes.max(1);
                self.bypass_lines.contains_key(&line)
            }
            None => false,
        }
    }

    fn record_bypass_line(&mut self, addr: Address) {
        if let Some(cfg) = self.config.bypass {
            let line = addr / cfg.line_bytes.max(1);
            self.bypass_lines.insert(line, ());
            while self.bypass_lines.len() > cfg.entries {
                self.bypass_lines.pop_lru();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_arrives_after_the_differential() {
        let mut dmem = DecoupledMemory::new(30, DecoupledMemoryConfig::default());
        let arrival = dmem.request_load(0, 0x40, 10);
        assert_eq!(arrival, 41);
        assert!(!dmem.data_ready(0, 40));
        assert!(dmem.data_ready(0, 41));
        assert!(dmem.data_ready(0, 100));
    }

    #[test]
    fn consume_releases_the_slot_and_counts_buffered_cycles() {
        let mut dmem = DecoupledMemory::new(10, DecoupledMemoryConfig::default());
        dmem.request_load(7, 0x100, 0); // arrives at 11
        assert_eq!(dmem.occupancy(), 1);
        dmem.consume(7, 20);
        assert_eq!(dmem.occupancy(), 0);
        let st = dmem.stats();
        assert_eq!(st.consumed, 1);
        assert_eq!(st.buffered_cycles, 9);
        assert!(!dmem.data_ready(7, 100), "consumed entries disappear");
    }

    #[test]
    #[should_panic(expected = "never requested")]
    fn consuming_an_unknown_tag_panics() {
        let mut dmem = DecoupledMemory::new(10, DecoupledMemoryConfig::default());
        dmem.consume(3, 5);
    }

    #[test]
    fn capacity_limits_acceptance() {
        let mut dmem = DecoupledMemory::new(
            50,
            DecoupledMemoryConfig {
                capacity: Some(2),
                bypass: None,
            },
        );
        assert!(dmem.can_accept());
        dmem.request_load(0, 0, 0);
        dmem.request_load(1, 8, 0);
        assert!(!dmem.can_accept());
        dmem.consume(0, 60);
        assert!(dmem.can_accept());
        assert_eq!(dmem.stats().peak_occupancy, 2);
    }

    #[test]
    fn unlimited_capacity_always_accepts() {
        let mut dmem = DecoupledMemory::new(50, DecoupledMemoryConfig::default());
        for tag in 0..1000 {
            assert!(dmem.can_accept());
            dmem.request_load(tag, u64::from(tag) * 8, 0);
        }
        assert_eq!(dmem.stats().peak_occupancy, 1000);
    }

    #[test]
    fn bypass_short_circuits_recently_seen_lines() {
        let cfg = DecoupledMemoryConfig {
            capacity: None,
            bypass: Some(BypassConfig {
                entries: 4,
                line_bytes: 32,
            }),
        };
        let mut dmem = DecoupledMemory::new(60, cfg);
        // First touch of line 0 pays the full differential.
        assert_eq!(dmem.request_load(0, 0x00, 0), 61);
        // Second touch of the same 32-byte line is a bypass hit.
        assert_eq!(dmem.request_load(1, 0x10, 5), 6);
        assert_eq!(dmem.stats().bypass_hits, 1);
        // A different line misses.
        assert_eq!(dmem.request_load(2, 0x100, 10), 71);
    }

    #[test]
    fn bypass_lru_evicts_old_lines() {
        let cfg = DecoupledMemoryConfig {
            capacity: None,
            bypass: Some(BypassConfig {
                entries: 2,
                line_bytes: 8,
            }),
        };
        let mut dmem = DecoupledMemory::new(40, cfg);
        dmem.request_load(0, 0x00, 0);
        dmem.request_load(1, 0x08, 0);
        dmem.request_load(2, 0x10, 0); // evicts line of 0x00
        assert_eq!(dmem.request_load(3, 0x00, 10), 51, "evicted line misses");
        assert_eq!(dmem.stats().bypass_hits, 0);
        assert_eq!(dmem.request_load(4, 0x10, 12), 13, "recent line hits");
        assert_eq!(dmem.stats().bypass_hits, 1);
    }

    #[test]
    fn stores_are_counted_but_do_not_occupy() {
        let mut dmem = DecoupledMemory::new(
            20,
            DecoupledMemoryConfig {
                capacity: Some(1),
                bypass: None,
            },
        );
        dmem.request_store(0x40, 3);
        dmem.request_store(0x48, 4);
        assert_eq!(dmem.stats().store_requests, 2);
        assert_eq!(dmem.occupancy(), 0);
        assert!(dmem.can_accept());
    }
}
