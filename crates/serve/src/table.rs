//! The bounded program table the server resolves trace sources through.
//!
//! A long-lived server sees an open-ended stream of `(source key,
//! iterations)` pairs, and the pinned lowering a
//! [`SweepServer`](crate::SweepServer) keeps per pair must not grow with
//! that stream.  A [`ProgramTable`] holds its entries under a constant
//! budget of caller-defined weight (trace instructions for lowerings).
//! When an insert would exceed the budget it evicts the least recently
//! used entries until the newcomer fits.  The entry being inserted is
//! never a victim: a single entry larger than the whole budget stays
//! resident until the next insert.

use dae_mem::LruMap;

/// A program's identity on the wire: `(source key, iterations)`.
pub(crate) type ProgramKey = (String, u64);

/// A weight-bounded, LRU-evicting `(source key, iterations)` → `V` map
/// (see the module docs).
#[derive(Debug)]
pub(crate) struct ProgramTable<V> {
    budget: usize,
    /// Summed weight of the resident entries.
    weight: usize,
    entries: LruMap<ProgramKey, (V, usize)>,
    hits: u64,
    evictions: u64,
}

impl<V: Copy> ProgramTable<V> {
    /// An empty table holding at most `budget` weight (plus one oversized
    /// newest entry).
    pub(crate) fn new(budget: usize) -> Self {
        ProgramTable {
            budget,
            weight: 0,
            entries: LruMap::new(),
            hits: 0,
            evictions: 0,
        }
    }

    /// The value for `key`, if resident, marking it most recently used.
    /// Every answer counts as a hit.
    pub(crate) fn get(&mut self, key: &ProgramKey) -> Option<V> {
        let &(value, _) = self.entries.get(key)?;
        self.entries.touch(key);
        self.hits += 1;
        Some(value)
    }

    /// Inserts `key` with `weight` (replacing a resident entry), first
    /// evicting until it fits the budget.  Returns the evicted values so
    /// the caller can release what they hold.
    pub(crate) fn insert(&mut self, key: ProgramKey, value: V, weight: usize) -> Vec<V> {
        if let Some((_, old)) = self.entries.remove(&key) {
            self.weight -= old;
        }
        let mut evicted = Vec::new();
        while self.weight + weight > self.budget {
            let Some((_, (victim, victim_weight))) = self.entries.pop_lru() else {
                break;
            };
            self.weight -= victim_weight;
            self.evictions += 1;
            evicted.push(victim);
        }
        self.weight += weight;
        self.entries.insert(key, (value, weight));
        evicted
    }

    /// Entries resident now.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Lookups answered from the table (monotone).
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Entries evicted to keep the budget (monotone).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str) -> ProgramKey {
        (name.to_string(), 1)
    }

    #[test]
    fn the_least_recently_used_entry_is_evicted_first() {
        let mut table = ProgramTable::new(2);
        table.insert(key("a"), 0, 1);
        table.insert(key("b"), 1, 1);
        assert_eq!(table.get(&key("a")), Some(0));
        assert_eq!(table.insert(key("c"), 2, 1), vec![1], "b is the LRU entry");
        assert_eq!(table.get(&key("b")), None);
        assert_eq!(table.hits(), 1);
        assert_eq!(table.evictions(), 1);
    }

    #[test]
    fn weight_bounds_residency_and_an_oversized_newcomer_stays() {
        let mut table = ProgramTable::new(10);
        table.insert(key("a"), 0, 4);
        table.insert(key("b"), 1, 4);
        assert_eq!(table.insert(key("c"), 2, 4), vec![0]);
        assert_eq!(table.insert(key("huge"), 3, 25), vec![1, 2]);
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(&key("huge")), Some(3));
        assert_eq!(table.insert(key("d"), 4, 1), vec![3]);
    }

    #[test]
    fn reinserting_a_resident_key_replaces_its_weight() {
        let mut table = ProgramTable::new(4);
        table.insert(key("a"), 0, 3);
        assert!(table.insert(key("a"), 1, 3).is_empty());
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(&key("a")), Some(1));
    }
}
