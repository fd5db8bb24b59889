//! A packed, sorted id array: the [`KeyStore`].
//!
//! This is the layout the paper's evaluation implies: one contiguous sorted
//! list per index, binary-searched at query time. Rank queries are a single
//! `partition_point` over the ids, computing each probe's key from its row
//! (`⌈log₂ n⌉` keys per boundary), scans are linear walks over 4-byte ids,
//! and memory is exactly `4 bytes/entry`. Point updates are an `O(log n)`
//! bisection plus an `O(n)` memmove of ids.

use super::KeyStore;
use crate::memory::HeapSize;
use crate::table::PointId;
use core::cmp::Ordering;

/// Ids sorted by `(key, id)`; the keys live in the rows.
#[derive(Debug, Clone, Default)]
pub struct VecStore {
    ids: Vec<PointId>,
}

impl VecStore {
    /// Rank of the first id not strictly below `(key(id), id)`.
    fn lower_bound(&self, id: PointId, key: impl Fn(PointId) -> f64) -> usize {
        let k = key(id);
        self.ids
            .partition_point(|&x| key(x).total_cmp(&k).then(x.cmp(&id)) == Ordering::Less)
    }
}

impl KeyStore for VecStore {
    fn build(ids: impl Iterator<Item = PointId>, key: impl Fn(PointId) -> f64) -> Self {
        let mut entries: Vec<(f64, PointId)> = ids.map(|id| (key(id), id)).collect();
        entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Self {
            ids: entries.iter().map(|e| e.1).collect(),
        }
    }

    fn from_sorted_ids(ids: Vec<PointId>) -> Self {
        Self { ids }
    }

    #[inline]
    fn ids(&self) -> &[PointId] {
        &self.ids
    }

    #[inline]
    fn rank_leq(&self, threshold: f64, key: impl Fn(PointId) -> f64) -> usize {
        let t = super::canon(threshold);
        self.ids.partition_point(|&id| key(id) <= t)
    }

    #[inline]
    fn rank_lt(&self, threshold: f64, key: impl Fn(PointId) -> f64) -> usize {
        let t = super::canon(threshold);
        self.ids.partition_point(|&id| key(id) < t)
    }

    fn insert(&mut self, id: PointId, key: impl Fn(PointId) -> f64) {
        let pos = self.lower_bound(id, key);
        self.ids.insert(pos, id);
    }

    fn remove(&mut self, id: PointId, key: impl Fn(PointId) -> f64) -> bool {
        let pos = self.lower_bound(id, key);
        if self.ids.get(pos) == Some(&id) {
            self.ids.remove(pos);
            true
        } else {
            false
        }
    }
}

impl HeapSize for VecStore {
    fn heap_size(&self) -> usize {
        self.ids.capacity() * core::mem::size_of::<PointId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::canon;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A store over `keys[id]`, the way an index computes keys from rows.
    fn build(keys: &[f64]) -> VecStore {
        VecStore::build(0..keys.len() as u32, |id| canon(keys[id as usize]))
    }

    fn key_of(keys: &[f64]) -> impl Fn(PointId) -> f64 + '_ {
        |id| canon(keys[id as usize])
    }

    /// The `(key, id)` order the store must hold, by brute force.
    fn reference(keys: &[f64], live: impl Iterator<Item = PointId>) -> Vec<PointId> {
        let mut v: Vec<PointId> = live.collect();
        v.sort_by(|&a, &b| {
            let (ka, kb) = (canon(keys[a as usize]), canon(keys[b as usize]));
            ka.total_cmp(&kb).then(a.cmp(&b))
        });
        v
    }

    #[test]
    fn empty_store() {
        let s = build(&[]);
        assert!(s.is_empty());
        assert_eq!(s.rank_leq(0.0, |_| unreachable!()), 0);
        assert_eq!(s.rank_lt(0.0, |_| unreachable!()), 0);
    }

    #[test]
    fn build_sorts_by_key_then_id() {
        let keys = [3.0, 1.0, 2.0, 1.0];
        assert_eq!(build(&keys).ids(), &[1, 3, 2, 0]);
    }

    #[test]
    fn ranks_with_duplicates() {
        // keys by rank: 1, 2, 2, 2, 5
        let keys = [2.0, 2.0, 1.0, 5.0, 2.0];
        let s = build(&keys);
        let k = key_of(&keys);
        for (t, leq) in [(0.0, 0), (1.0, 1), (2.0, 4), (4.9, 4), (5.0, 5), (9.0, 5)] {
            assert_eq!(s.rank_leq(t, &k), leq, "rank_leq({t})");
        }
        for (t, lt) in [(1.0, 0), (2.0, 1), (2.0000001, 4), (5.0, 4)] {
            assert_eq!(s.rank_lt(t, &k), lt, "rank_lt({t})");
        }
    }

    #[test]
    fn insert_remove_random() {
        let mut rng = StdRng::seed_from_u64(42);
        let keys: Vec<f64> = (0..2000)
            .map(|_| (rng.random_range(0..50) as f64) * 0.5)
            .collect();
        let k = key_of(&keys);
        let mut s = build(&[]);
        for id in 0..2000u32 {
            s.insert(id, &k);
        }
        assert_eq!(s.ids(), reference(&keys, 0..2000).as_slice());

        for id in (0..2000u32).step_by(2) {
            assert!(s.remove(id, &k), "id {id} should be removable");
            assert!(!s.remove(id, &k), "double removal must fail");
        }
        let odd = reference(&keys, (1..2000).step_by(2));
        assert_eq!(s.ids(), odd.as_slice());
        for t in 0..60 {
            let t = t as f64 * 0.45;
            let leq = odd.iter().filter(|&&id| keys[id as usize] <= t).count();
            let lt = odd.iter().filter(|&&id| keys[id as usize] < t).count();
            assert_eq!(s.rank_leq(t, &k), leq, "rank_leq({t})");
            assert_eq!(s.rank_lt(t, &k), lt, "rank_lt({t})");
        }
    }

    #[test]
    fn negative_zero_keys_are_canonicalized() {
        let keys = [-0.0, 0.0];
        let mut s = build(&keys);
        let k = key_of(&keys);
        // Both keys are numerically zero: a strict rank at 0 sees neither.
        assert_eq!(s.rank_lt(0.0, &k), 0);
        assert_eq!(s.rank_leq(0.0, &k), 2);
        assert_eq!(s.rank_leq(-0.0, &k), 2);
        assert!(s.remove(0, &k) && s.remove(1, &k));
    }

    #[test]
    fn heap_size_is_4_bytes_per_entry() {
        let keys: Vec<f64> = (0..100).map(f64::from).collect();
        // Capacity == len after build: the ids are collected exactly.
        assert_eq!(build(&keys).heap_size(), 100 * 4);
    }
}
