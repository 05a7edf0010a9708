//! On-disk sweep-cache store suite: proptest round trips (random entries
//! → persist → reload ⇒ identical map), corruption tolerance (truncated
//! or bit-flipped tails load the valid prefix with `corrupt_records > 0`,
//! never a panic), and the session-level restart-warm path — a second
//! session attached to the same directory answers a previously-served
//! grid entirely from cache, bit for bit.

use dae::core::{
    CacheStore, Machine, StoreRecord, SweepPoint, SweepSession, TraceHash, WindowSpec,
};
use dae::workloads::PerfectProgram;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under the system temp root (no tempfile crate in the
/// offline workspace); removed by [`Scratch::drop`].
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dae-cache-store-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

// The vendored proptest implements `Strategy` for tuples of up to five
// elements, so the seven record fields arrive as a nested pair.
type RawRecord = ((u64, u64, u8), (u8, u64, u64, u64));

fn decode_record(raw: RawRecord) -> StoreRecord {
    let ((hash_hi, hash_lo, machine), (window, md, cycles, cost_nanos)) = raw;
    let machine = match machine % 3 {
        0 => Machine::Decoupled,
        1 => Machine::Superscalar,
        _ => Machine::Scalar,
    };
    let window = match window % 4 {
        0 => WindowSpec::Unlimited,
        n => WindowSpec::Entries(n as usize * 16),
    };
    StoreRecord {
        hash: TraceHash::from_words(hash_hi, hash_lo),
        machine,
        window,
        md,
        cycles,
        cost_nanos,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Append random records, reopen, and get exactly the same sequence
    /// back — twice, since the first reopen must leave the log clean.
    #[test]
    fn random_records_round_trip(
        raw in proptest::collection::vec(
            (
                (any::<u64>(), any::<u64>(), any::<u8>()),
                (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
            ),
            0..24,
        )
    ) {
        let scratch = Scratch::new();
        let records: Vec<StoreRecord> = raw.into_iter().map(decode_record).collect();
        let (mut store, load) = CacheStore::open(&scratch.0).expect("fresh store opens");
        prop_assert_eq!(load.records.len(), 0);
        prop_assert_eq!(load.corrupt_records, 0);
        for record in &records {
            store.append(record).expect("append succeeds");
        }
        drop(store);
        for _ in 0..2 {
            let (store, load) = CacheStore::open(&scratch.0).expect("reopen succeeds");
            prop_assert_eq!(&load.records, &records, "reload is lossless");
            prop_assert_eq!(load.corrupt_records, 0);
            drop(store);
        }
    }

    /// Truncating the file mid-record loads the intact prefix, counts the
    /// abandoned tail, and never panics; a reopen heals the log so the
    /// *next* open is clean.
    #[test]
    fn truncated_tails_load_the_valid_prefix(
        raw in proptest::collection::vec(
            (
                (any::<u64>(), any::<u64>(), any::<u8>()),
                (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
            ),
            1..16,
        ),
        cut_words in 1usize..8,
    ) {
        let scratch = Scratch::new();
        let records: Vec<StoreRecord> = raw.into_iter().map(decode_record).collect();
        {
            let (mut store, _) = CacheStore::open(&scratch.0).expect("fresh store opens");
            for record in &records {
                store.append(record).expect("append succeeds");
            }
        }
        let path = CacheStore::location(&scratch.0);
        let bytes = fs::read(&path).expect("log exists");
        // Cut inside the last record (1..8 words in), leaving a partial
        // tail that cannot checksum.
        fs::write(&path, &bytes[..bytes.len() - cut_words * 8]).expect("truncate");

        let (store, load) = CacheStore::open(&scratch.0).expect("a torn log still opens");
        prop_assert_eq!(&load.records, &records[..records.len() - 1], "intact prefix");
        prop_assert!(load.corrupt_records > 0, "the abandoned tail is counted");
        drop(store);
        let (_, healed) = CacheStore::open(&scratch.0).expect("healed log opens");
        prop_assert_eq!(healed.records.len(), records.len() - 1);
        prop_assert_eq!(healed.corrupt_records, 0, "the reopen rewrote a clean log");
    }

    /// Flipping any single bit in the body abandons at most the suffix
    /// from the damaged record on — a clean partial load, never a panic.
    #[test]
    fn bit_flips_are_contained(
        raw in proptest::collection::vec(
            (
                (any::<u64>(), any::<u64>(), any::<u8>()),
                (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
            ),
            1..12,
        ),
        flip_byte in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let scratch = Scratch::new();
        let records: Vec<StoreRecord> = raw.into_iter().map(decode_record).collect();
        {
            let (mut store, _) = CacheStore::open(&scratch.0).expect("fresh store opens");
            for record in &records {
                store.append(record).expect("append succeeds");
            }
        }
        let path = CacheStore::location(&scratch.0);
        let mut bytes = fs::read(&path).expect("log exists");
        let header = 16;
        let target = header + (flip_byte as usize % (bytes.len() - header));
        bytes[target] ^= 1 << flip_bit;
        fs::write(&path, &bytes).expect("corrupt");

        let (_, load) = CacheStore::open(&scratch.0).expect("a corrupt log still opens");
        let damaged = (target - header) / 64;
        prop_assert_eq!(&load.records, &records[..damaged], "prefix before the flip survives");
        prop_assert!(load.corrupt_records > 0);
    }
}

/// A mangled header (wrong magic) abandons the file without refusing to
/// start: zero records, a counted corruption, and the store is usable.
#[test]
fn an_unrecognized_header_is_abandoned_not_fatal() {
    let scratch = Scratch::new();
    {
        let (mut store, _) = CacheStore::open(&scratch.0).expect("fresh store opens");
        store
            .append(&decode_record(((1, 2, 0), (1, 60, 1234, 99))))
            .expect("append succeeds");
    }
    let path = CacheStore::location(&scratch.0);
    let mut bytes = fs::read(&path).expect("log exists");
    bytes[0] ^= 0xff;
    fs::write(&path, &bytes).expect("mangle magic");

    let (mut store, load) = CacheStore::open(&scratch.0).expect("opens regardless");
    assert_eq!(load.records.len(), 0, "nothing trusted under a bad header");
    assert_eq!(load.corrupt_records, 1);
    // The handle appends onto a rewritten, clean log.
    let record = decode_record(((3, 4, 1), (0, 0, 777, 5)));
    store.append(&record).expect("append after heal");
    drop(store);
    let (_, reload) = CacheStore::open(&scratch.0).expect("reopen");
    assert_eq!(reload.records, vec![record]);
    assert_eq!(reload.corrupt_records, 0);
}

/// The restart-warm acceptance path at the session layer: sweep a grid
/// with a store attached, compact on shutdown, then attach a *fresh*
/// session (a fresh process's worth of state — the trace is re-lowered
/// from source) to the same directory.  The repeat grid must be answered
/// entirely from the loaded entries, bit for bit.
#[test]
fn a_restarted_session_answers_a_served_grid_entirely_from_cache() {
    let scratch = Scratch::new();
    let grid: Vec<(Machine, WindowSpec, u64)> = vec![
        (Machine::Decoupled, WindowSpec::Entries(16), 60),
        (Machine::Decoupled, WindowSpec::Entries(32), 0),
        (Machine::Superscalar, WindowSpec::Entries(32), 60),
        (Machine::Scalar, WindowSpec::Entries(1), 60),
    ];

    let cold = {
        let mut session = SweepSession::new();
        assert_eq!(
            session
                .attach_cache_store(&scratch.0)
                .expect("fresh dir attaches"),
            0
        );
        let id = session.pin_program(PerfectProgram::Trfd, 120);
        let points: Vec<SweepPoint> = grid.iter().map(|&(m, w, md)| (id, m, w, md)).collect();
        let cold = session.sweep_multi(&points);
        assert_eq!(session.cache_stats().persisted, grid.len() as u64);
        session.persist_cache().expect("shutdown compaction");
        cold
    };

    // "Restart": nothing survives but the directory.
    let mut warm = SweepSession::new();
    let loaded = warm
        .attach_cache_store(&scratch.0)
        .expect("warm dir attaches");
    assert_eq!(loaded, grid.len() as u64, "every entry reloaded");
    let stats = warm.cache_stats();
    assert_eq!(stats.loaded, grid.len() as u64);
    assert_eq!(stats.corrupt_records, 0);

    let id = warm.pin_program(PerfectProgram::Trfd, 120);
    let streamed: Vec<SweepPoint> = grid.iter().map(|&(m, w, md)| (id, m, w, md)).collect();
    let mut from_cache = 0;
    let mut ordered = vec![0u64; grid.len()];
    for point in warm.stream(&streamed) {
        from_cache += usize::from(point.cached);
        ordered[point.index] = point.cycles;
    }
    assert_eq!(from_cache, grid.len(), "zero simulated points on repeat");
    assert_eq!(ordered, cold, "warm results are bit-for-bit the cold run's");
    let after = warm.cache_stats();
    assert_eq!(after.misses, 0, "the restarted session simulated nothing");
    assert_eq!(after.hits, grid.len() as u64);
}

/// `clear_cache` with a store attached truncates the log too: a restart
/// after a clear starts cold.
#[test]
fn clearing_truncates_the_persisted_log() {
    let scratch = Scratch::new();
    {
        let mut session = SweepSession::new();
        session
            .attach_cache_store(&scratch.0)
            .expect("fresh dir attaches");
        let id = session.pin_program(PerfectProgram::Trfd, 120);
        let _ = session.sweep_multi(&[(id, Machine::Decoupled, WindowSpec::Entries(16), 60)]);
        assert_eq!(session.cache_stats().persisted, 1);
        session.clear_cache();
    }
    let mut session = SweepSession::new();
    assert_eq!(
        session
            .attach_cache_store(&scratch.0)
            .expect("cleared dir attaches"),
        0,
        "a cleared store restarts cold"
    );
}

/// Shutdown compaction drops evicted and superseded entries from the log:
/// the reloaded set is exactly the resident set, within the bound.
#[test]
fn compaction_persists_only_the_resident_set() {
    let scratch = Scratch::new();
    {
        let mut session = SweepSession::new();
        session.set_cache_limit(Some(2));
        session
            .attach_cache_store(&scratch.0)
            .expect("fresh dir attaches");
        let id = session.pin_program(PerfectProgram::Trfd, 120);
        let grid: Vec<SweepPoint> = (0..6)
            .map(|i| (id, Machine::Scalar, WindowSpec::Entries(1), i * 10))
            .collect();
        let _ = session.sweep_multi(&grid);
        let stats = session.cache_stats();
        assert!(stats.entries <= 2);
        assert!(stats.evictions >= 4);
        assert_eq!(stats.persisted, 6, "appends happen before eviction");
        session.persist_cache().expect("shutdown compaction");
    }
    let mut session = SweepSession::new();
    let loaded = session
        .attach_cache_store(&scratch.0)
        .expect("warm dir attaches");
    assert_eq!(loaded, 2, "only the resident set survives compaction");
    assert_eq!(session.cache_stats().entries, 2);
}
