//! Cache-key exposure for shard placement.
//!
//! The sweep-result cache keys every finished point by
//! `(TraceHash, machine, window, MD)` — the structural identity of the
//! lowering plus the machine parameters of the point (see
//! [`SweepSession`](crate::SweepSession)).  This module names the key
//! ([`SweepCacheKey`]) and folds it into a process-independent 64-bit
//! digest ([`cache_key_digest`]) suitable for consistent hashing.  The
//! digest reuses the canonical word encoding the on-disk store
//! ([`CacheStore`](crate::CacheStore)) writes — the machine discriminant
//! and the window/MD words are pinned by the store's schema, and
//! [`TraceHash`] is already deterministic across processes — so any two
//! processes agree on it.
//!
//! The `dae-serve` shard coordinator does not lower traces, so it places
//! whole client grids by the same `FxHasher` construction over the
//! request's trace and iterations instead
//! (`SweepRequest::placement_digest`).  Placing
//! by this digest needs the lowered program's `TraceHash`.

use crate::{Machine, WindowSpec};
use dae_isa::Cycle;
use dae_mem::FxHasher;
use dae_trace::TraceHash;
use std::hash::Hasher;

/// The sweep-result cache key: the structural content hash of the lowered
/// program plus the machine parameters of the point.  The session cache
/// keys on it, and [`cache_key_digest`] hashes the same four fields.
pub(crate) type SweepCacheKey = (TraceHash, Machine, WindowSpec, Cycle);

/// The `window` word for [`WindowSpec::Unlimited`] in the canonical
/// encoding (matches the on-disk store's schema).
const WINDOW_UNLIMITED: u64 = u64::MAX;

/// Folds a sweep-cache key into a deterministic 64-bit placement digest.
///
/// The digest is stable across processes and runs: it depends only on the
/// canonical word encoding of the key (the same one the persistent cache
/// store uses), never on addresses, hash-map iteration order or random
/// state.  Equal keys — and therefore points that would hit the same
/// per-backend cache entry — always produce equal digests.
#[must_use]
pub fn cache_key_digest(hash: TraceHash, machine: Machine, window: WindowSpec, md: Cycle) -> u64 {
    let (hash_hi, hash_lo) = hash.words();
    let machine = match machine {
        Machine::Decoupled => 0u64,
        Machine::Superscalar => 1,
        Machine::Scalar => 2,
    };
    let window = match window {
        WindowSpec::Entries(n) => n as u64,
        WindowSpec::Unlimited => WINDOW_UNLIMITED,
    };
    let mut hasher = FxHasher::default();
    hasher.write_u64(hash_hi);
    hasher.write_u64(hash_lo);
    hasher.write_u64(machine);
    hasher.write_u64(window);
    hasher.write_u64(md);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_separates_coordinates() {
        let h = TraceHash::from_words(0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321);
        let base = cache_key_digest(h, Machine::Decoupled, WindowSpec::Entries(16), 60);
        assert_eq!(
            base,
            cache_key_digest(h, Machine::Decoupled, WindowSpec::Entries(16), 60)
        );
        // Every coordinate participates in the digest.
        assert_ne!(
            base,
            cache_key_digest(h, Machine::Superscalar, WindowSpec::Entries(16), 60)
        );
        assert_ne!(
            base,
            cache_key_digest(h, Machine::Decoupled, WindowSpec::Entries(32), 60)
        );
        assert_ne!(
            base,
            cache_key_digest(h, Machine::Decoupled, WindowSpec::Entries(16), 0)
        );
        assert_ne!(
            base,
            cache_key_digest(h, Machine::Decoupled, WindowSpec::Unlimited, 60)
        );
    }
}
