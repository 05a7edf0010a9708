//! The fixed-cost memory system (the paper's "memory differential" model).

use dae_isa::{Address, Cycle};

/// Access counters of a [`FixedLatencyMemory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Total requests sent to the memory system.
    pub requests: u64,
    /// Requests that were loads.
    pub load_requests: u64,
    /// Requests that were stores.
    pub store_requests: u64,
    /// The highest number of requests outstanding at any point in time.
    pub peak_outstanding: usize,
}

/// The memory system of the paper: every access has the same fixed cost.
///
/// The paper deliberately avoids simulating caches: "we model its execution
/// by considering every access to have a fixed cost", the *memory
/// differential* (MD) — the difference between a register access and a
/// memory-system access.  A request issued at cycle `t` therefore delivers
/// its data at `t + 1 + MD` (the single cycle is the address-generation /
/// pipeline-entry cycle every operation pays).
///
/// Bandwidth is unlimited by default (the idealised study), but the model
/// tracks how many requests are outstanding so that restricted-bandwidth
/// ablations can be built on top.
///
/// # Example
///
/// ```
/// use dae_mem::FixedLatencyMemory;
///
/// let mut memory = FixedLatencyMemory::new(60);
/// let arrival = memory.request_load(0x1000, 10);
/// assert_eq!(arrival, 71); // 10 + 1 + 60
/// assert_eq!(memory.stats().requests, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedLatencyMemory {
    differential: Cycle,
    stats: MemoryStats,
    /// Completion times of outstanding requests (kept small by pruning).
    outstanding: Vec<Cycle>,
}

impl FixedLatencyMemory {
    /// Creates a memory system with the given memory differential.
    #[must_use]
    pub fn new(differential: Cycle) -> Self {
        FixedLatencyMemory {
            differential,
            stats: MemoryStats::default(),
            outstanding: Vec::new(),
        }
    }

    /// The cycle at which data requested at `issue` becomes available.
    #[must_use]
    pub(crate) fn completion_time(&self, issue: Cycle) -> Cycle {
        issue + 1 + self.differential
    }

    /// Issues a load request at cycle `issue`; returns the data arrival
    /// cycle.
    pub fn request_load(&mut self, _addr: Address, issue: Cycle) -> Cycle {
        self.stats.requests += 1;
        self.stats.load_requests += 1;
        self.track(issue)
    }

    /// Issues a store at cycle `issue`; returns the cycle at which the store
    /// is globally performed (nothing in the simulators waits for it).
    pub fn request_store(&mut self, _addr: Address, issue: Cycle) -> Cycle {
        self.stats.requests += 1;
        self.stats.store_requests += 1;
        self.track(issue)
    }

    fn track(&mut self, issue: Cycle) -> Cycle {
        let done = self.completion_time(issue);
        self.outstanding.retain(|&t| t > issue);
        self.outstanding.push(done);
        self.stats.peak_outstanding = self.stats.peak_outstanding.max(self.outstanding.len());
        done
    }

    /// Access counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_is_issue_plus_one_plus_md() {
        let mem = FixedLatencyMemory::new(60);
        assert_eq!(mem.completion_time(0), 61);
        assert_eq!(mem.completion_time(100), 161);
        let zero = FixedLatencyMemory::new(0);
        assert_eq!(zero.completion_time(5), 6);
    }

    #[test]
    fn request_counters_distinguish_loads_and_stores() {
        let mut mem = FixedLatencyMemory::new(10);
        mem.request_load(0, 0);
        mem.request_load(8, 1);
        mem.request_store(16, 2);
        let st = mem.stats();
        assert_eq!(st.requests, 3);
        assert_eq!(st.load_requests, 2);
        assert_eq!(st.store_requests, 1);
    }

    #[test]
    fn outstanding_tracks_in_flight_requests() {
        let mut mem = FixedLatencyMemory::new(20);
        mem.request_load(0, 0); // completes at 21
        mem.request_load(8, 5); // completes at 26
        assert_eq!(mem.stats().peak_outstanding, 2);
    }

    #[test]
    fn peak_outstanding_grows_with_overlap() {
        let mut mem = FixedLatencyMemory::new(50);
        for i in 0..10 {
            mem.request_load(i * 8, i);
        }
        assert_eq!(mem.stats().peak_outstanding, 10);

        // Serial requests never overlap.
        let mut serial = FixedLatencyMemory::new(2);
        for i in 0..10u64 {
            serial.request_load(i * 8, i * 10);
        }
        assert_eq!(serial.stats().peak_outstanding, 1);
    }
}
