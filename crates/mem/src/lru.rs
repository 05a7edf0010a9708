//! A recency-tracking map with O(log n) touch and eviction.
//!
//! The seed implementations of the prefetch buffer and the decoupled-memory
//! bypass kept LRU order in a `VecDeque` and *linearly scanned* it on every
//! touch (`iter().position(..)` + `remove(..)`), costing O(entries) per
//! access.  [`LruMap`] replaces the scan with monotone recency stamps: a
//! hash map holds `key → (stamp, value)` and a `BTreeMap` keyed by stamp
//! gives the least-recently-used entry in O(log n).  Stamps come from a
//! per-map counter, so recency order is exactly insertion/touch order — the
//! replacement decisions are bit-for-bit those of the queue-based code.

use crate::fx::FxHashMap;
use std::collections::BTreeMap;
use std::hash::Hash;

/// A map whose entries remember when they were last inserted or touched,
/// with cheap least-recently-used eviction.
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    entries: FxHashMap<K, (u64, V)>,
    order: BTreeMap<u64, K>,
    clock: u64,
}

// Manual impl: the derive would needlessly require `K: Default` and
// `V: Default`.
impl<K, V> Default for LruMap<K, V> {
    fn default() -> Self {
        LruMap {
            entries: FxHashMap::default(),
            order: BTreeMap::new(),
            clock: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        LruMap {
            entries: FxHashMap::default(),
            order: BTreeMap::new(),
            clock: 0,
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if `key` is resident (does not touch).
    #[must_use]
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// The value for `key`, if resident (does not touch).
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(_, v)| v)
    }

    /// Inserts or replaces `key`, marking it most recently used.  Returns
    /// the previous value if the key was already resident.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.clock += 1;
        let stamp = self.clock;
        let previous = self.entries.insert(key.clone(), (stamp, value));
        if let Some((old_stamp, _)) = &previous {
            self.order.remove(old_stamp);
        }
        self.order.insert(stamp, key);
        previous.map(|(_, v)| v)
    }

    /// Marks `key` most recently used if resident.
    pub fn touch(&mut self, key: &K) {
        if let Some((stamp, _)) = self.entries.get_mut(key) {
            let old = *stamp;
            self.clock += 1;
            *stamp = self.clock;
            let entry = self
                .order
                .remove(&old)
                .expect("order entry tracks map entry");
            self.order.insert(self.clock, entry);
        }
    }

    /// Removes `key`, returning its value if it was resident.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (stamp, value) = self.entries.remove(key)?;
        self.order.remove(&stamp);
        Some(value)
    }

    /// Iterates resident entries from least to most recently used without
    /// touching them.  Used by cost-aware eviction policies that want to
    /// inspect the coldest few entries before choosing a victim.
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order.values().map(move |key| {
            let (_, value) = &self.entries[key];
            (key, value)
        })
    }

    /// Removes every entry.  The recency clock keeps advancing, so stamps
    /// issued after a clear still order correctly against survivors of
    /// future fills.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Evicts and returns the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let (&stamp, _) = self.order.iter().next()?;
        let key = self.order.remove(&stamp).expect("stamp just observed");
        let (_, value) = self.entries.remove(&key).expect("entries track order");
        Some((key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_follows_touch_order() {
        let mut lru = LruMap::new();
        lru.insert(1u64, ());
        lru.insert(2, ());
        lru.insert(3, ());
        lru.touch(&1);
        assert_eq!(lru.pop_lru().unwrap().0, 2);
        assert_eq!(lru.pop_lru().unwrap().0, 3);
        assert_eq!(lru.pop_lru().unwrap().0, 1);
        assert!(lru.pop_lru().is_none());
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut lru = LruMap::new();
        lru.insert(1u64, 10u64);
        lru.insert(2, 20);
        assert_eq!(lru.insert(1, 11), Some(10));
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(
            lru.pop_lru().unwrap().0,
            2,
            "1 was refreshed by reinsertion"
        );
    }

    #[test]
    fn remove_and_contains() {
        let mut lru = LruMap::new();
        lru.insert(5u64, "five");
        assert!(lru.contains_key(&5));
        assert_eq!(lru.remove(&5), Some("five"));
        assert!(!lru.contains_key(&5));
        assert!(lru.is_empty());
        assert_eq!(lru.remove(&5), None);
    }

    #[test]
    fn touching_absent_keys_is_a_no_op() {
        let mut lru: LruMap<u64, ()> = LruMap::new();
        lru.touch(&9);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn iter_lru_walks_recency_order_without_touching() {
        let mut lru = LruMap::new();
        lru.insert(1u64, 'a');
        lru.insert(2, 'b');
        lru.insert(3, 'c');
        lru.touch(&1);
        let order: Vec<u64> = lru.iter_lru().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3, 1]);
        // Iterating must not have changed recency.
        assert_eq!(lru.pop_lru().unwrap().0, 2);
    }

    #[test]
    fn clear_empties_the_map_but_keeps_ordering_sound() {
        let mut lru = LruMap::new();
        lru.insert(1u64, ());
        lru.insert(2, ());
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.iter_lru().count(), 0);
        lru.insert(3, ());
        lru.insert(4, ());
        assert_eq!(lru.pop_lru().unwrap().0, 3);
    }
}
