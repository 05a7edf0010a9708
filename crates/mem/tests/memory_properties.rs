//! Property-based tests of the memory structures: arrival-time arithmetic,
//! capacity enforcement and LRU behaviour.

use dae_mem::{
    BypassConfig, DecoupledMemory, DecoupledMemoryConfig, FixedLatencyMemory, PrefetchBuffer,
    PrefetchBufferConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The fixed-latency memory answers every request exactly `1 + MD`
    /// cycles after issue and never loses a request in its counters.
    #[test]
    fn fixed_memory_latency_is_exact(
        md in 0u64..200,
        issues in proptest::collection::vec(0u64..10_000, 1..50)
    ) {
        let mut memory = FixedLatencyMemory::new(md);
        for (i, &issue) in issues.iter().enumerate() {
            let arrival = if i % 2 == 0 {
                memory.request_load(i as u64 * 8, issue)
            } else {
                memory.request_store(i as u64 * 8, issue)
            };
            prop_assert_eq!(arrival, issue + 1 + md);
        }
        let stats = memory.stats();
        prop_assert_eq!(stats.requests as usize, issues.len());
        prop_assert_eq!(
            (stats.load_requests + stats.store_requests) as usize,
            issues.len()
        );
    }

    /// The decoupled memory never reports data ready before its arrival
    /// time, and its occupancy always equals requests minus consumes.
    #[test]
    fn decoupled_memory_arrivals_and_occupancy(
        md in 0u64..120,
        requests in proptest::collection::vec((0u64..(1 << 20), 0u64..5_000), 1..60)
    ) {
        let mut dmem = DecoupledMemory::new(md, DecoupledMemoryConfig::default());
        let mut arrivals = Vec::new();
        for (tag, &(addr, issue)) in requests.iter().enumerate() {
            let arrival = dmem.request_load(tag as u32, addr, issue);
            prop_assert!(arrival > issue);
            prop_assert!(arrival <= issue + 1 + md);
            prop_assert!(!dmem.data_ready(tag as u32, arrival.saturating_sub(1)));
            prop_assert!(dmem.data_ready(tag as u32, arrival));
            arrivals.push(arrival);
        }
        prop_assert_eq!(dmem.occupancy(), requests.len());
        for (tag, &arrival) in arrivals.iter().enumerate() {
            dmem.consume(tag as u32, arrival + 3);
            prop_assert_eq!(dmem.occupancy(), requests.len() - tag - 1);
        }
        let stats = dmem.stats();
        prop_assert_eq!(stats.consumed as usize, requests.len());
        prop_assert_eq!(stats.buffered_cycles, 3 * requests.len() as u64);
    }

    /// With a bypass configured, a repeated line is always at least as fast
    /// as a cold line and never faster than a single cycle.
    #[test]
    fn bypass_never_slows_a_request(
        md in 1u64..100,
        entries in 1usize..64,
        addrs in proptest::collection::vec(0u64..(1 << 12), 2..80)
    ) {
        let cfg = DecoupledMemoryConfig {
            capacity: None,
            bypass: Some(BypassConfig { entries, line_bytes: 32 }),
        };
        let mut dmem = DecoupledMemory::new(md, cfg);
        for (tag, &addr) in addrs.iter().enumerate() {
            let arrival = dmem.request_load(tag as u32, addr, tag as u64);
            prop_assert!(arrival > tag as u64);
            prop_assert!(arrival <= tag as u64 + 1 + md);
        }
        prop_assert!(dmem.stats().bypass_hits <= dmem.stats().load_requests);
    }

    /// A finite prefetch buffer never holds more than its capacity and every
    /// eviction is accounted for.
    #[test]
    fn prefetch_buffer_capacity_is_enforced(
        capacity in 1usize..32,
        md in 0u64..80,
        addrs in proptest::collection::vec(0u64..(1 << 16), 1..100)
    ) {
        let mut buffer = PrefetchBuffer::new(md, PrefetchBufferConfig { capacity: Some(capacity) });
        for (cycle, &addr) in addrs.iter().enumerate() {
            buffer.prefetch(addr & !0x7, cycle as u64);
            prop_assert!(buffer.occupancy() <= capacity);
        }
        let stats = buffer.stats();
        prop_assert_eq!(stats.prefetches as usize, addrs.len());
        prop_assert!(stats.peak_occupancy <= capacity);
        // Entries resident + evicted accounts for every distinct line that
        // was ever inserted (re-prefetching an existing line does not evict).
        prop_assert!(stats.evictions <= stats.prefetches);
    }

    /// An unbounded prefetch buffer retains every distinct address.
    #[test]
    fn unbounded_prefetch_buffer_never_misses_what_it_prefetched(
        md in 0u64..80,
        addrs in proptest::collection::vec(0u64..(1 << 14), 1..100)
    ) {
        let mut buffer = PrefetchBuffer::new(md, PrefetchBufferConfig::default());
        for (cycle, &addr) in addrs.iter().enumerate() {
            buffer.prefetch(addr, cycle as u64);
        }
        for &addr in &addrs {
            prop_assert!(buffer.access(addr, 1_000_000).is_some());
        }
        prop_assert_eq!(buffer.stats().misses, 0);
        prop_assert_eq!(buffer.stats().evictions, 0);
    }
}
