//! Sorted key stores: the physical layout of one Planar index.
//!
//! A Planar index is "the data points sorted in ascending order of
//! `⟨c, φ(x)⟩`" (paper §4.2, the list `L`). Everything the query algorithms
//! need from that list is captured by the [`KeyStore`] trait:
//!
//! * *rank* queries — how many keys are `≤ t` (the binary searches of
//!   Algorithm 1 that locate the interval boundaries `j_min`, `j_max`);
//! * *range scans* in both directions — ascending over the intermediate
//!   interval (Algorithm 1) and descending over the smaller interval
//!   (Algorithm 2's pruned top-k walk);
//! * *point updates* — the dynamic maintenance of §4.4.
//!
//! Two implementations are provided:
//!
//! * [`VecStore`] — a packed sorted array. Fastest scans, O(n) updates.
//!   The right choice for the read-heavy workloads of the paper's main
//!   evaluation.
//! * [`BPlusTree`] — an order-statistics B+-tree built from scratch.
//!   O(log n) updates, matching the paper's `O(d' log n)` per-point update
//!   claim, at a modest constant-factor cost on scans. The right choice for
//!   moving-object style workloads where points change continuously.

mod bptree;
mod vec_store;

pub use bptree::BPlusTree;
pub use vec_store::VecStore;

use crate::memory::HeapSize;

/// One element of the sorted list `L`: the key `⟨c, φ(x)⟩` and the point id.
///
/// Entries are totally ordered by `(key, id)`; ids break ties so that every
/// entry has a unique position and removals are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// The sort key `⟨c, φ(x)⟩` (raw-space; see `planar_geom::Normalizer`).
    pub key: f64,
    /// The data point this key belongs to.
    pub id: u32,
}

impl Entry {
    /// Create an entry, canonicalizing `-0.0` to `0.0` so that total-order
    /// comparisons agree with numeric equality at zero.
    #[inline]
    pub fn new(key: f64, id: u32) -> Self {
        Self {
            key: canon(key),
            id,
        }
    }

    /// Total order on `(key, id)`.
    #[inline]
    pub fn total_cmp(&self, other: &Entry) -> core::cmp::Ordering {
        self.key.total_cmp(&other.key).then(self.id.cmp(&other.id))
    }
}

/// Canonicalize `-0.0` to `0.0`: `f64::total_cmp` orders `-0.0 < 0.0`, which
/// would make a rank query at threshold `0.0` misclassify a `-0.0` key.
#[inline]
pub(crate) fn canon(key: f64) -> f64 {
    if key == 0.0 {
        0.0
    } else {
        key
    }
}

/// The sorted list `L` of one Planar index.
///
/// Implementations must behave as a multiset of [`Entry`] values kept in
/// `(key, id)` order. Keys must be finite (the index layer guarantees this —
/// feature tables and normals reject NaN/∞).
pub trait KeyStore: HeapSize + Sized {
    /// Build from arbitrary-order entries.
    fn build(entries: Vec<Entry>) -> Self;

    /// Number of entries.
    fn len(&self) -> usize;

    /// True when the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries with `key ≤ threshold`.
    fn rank_leq(&self, threshold: f64) -> usize;

    /// Number of entries with `key < threshold`.
    fn rank_lt(&self, threshold: f64) -> usize;

    /// Ascending iteration over the rank range `[from, to)`.
    fn iter_asc(&self, from: usize, to: usize) -> impl Iterator<Item = Entry> + '_;

    /// Descending iteration over ranks `below-1, below-2, …, 0`.
    fn iter_desc(&self, below: usize) -> impl Iterator<Item = Entry> + '_;

    /// Insert an entry.
    fn insert(&mut self, e: Entry);

    /// Remove an exact entry; returns whether it was present.
    fn remove(&mut self, e: Entry) -> bool;

    /// The smallest key, if any.
    fn min_key(&self) -> Option<f64> {
        self.iter_asc(0, self.len().min(1)).next().map(|e| e.key)
    }

    /// The largest key, if any.
    fn max_key(&self) -> Option<f64> {
        self.iter_desc(self.len()).next().map(|e| e.key)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A shared conformance suite run against every `KeyStore`
    //! implementation.
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn reference(entries: &[Entry]) -> Vec<Entry> {
        let mut v = entries.to_vec();
        v.sort_by(Entry::total_cmp);
        v
    }

    pub(crate) fn conformance<S: KeyStore>() {
        empty_store::<S>();
        build_sorts::<S>();
        ranks_with_duplicates::<S>();
        asc_desc_iteration::<S>();
        insert_remove_random::<S>();
        negative_zero_canonicalized::<S>();
    }

    fn empty_store<S: KeyStore>() {
        let s = S::build(vec![]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.rank_leq(0.0), 0);
        assert_eq!(s.rank_lt(0.0), 0);
        assert_eq!(s.iter_asc(0, 0).count(), 0);
        assert_eq!(s.iter_desc(0).count(), 0);
        assert_eq!(s.min_key(), None);
        assert_eq!(s.max_key(), None);
    }

    fn build_sorts<S: KeyStore>() {
        let entries = vec![
            Entry::new(3.0, 0),
            Entry::new(1.0, 1),
            Entry::new(2.0, 2),
            Entry::new(1.0, 0),
        ];
        let s = S::build(entries.clone());
        let got: Vec<Entry> = s.iter_asc(0, s.len()).collect();
        assert_eq!(got, reference(&entries));
        assert_eq!(s.min_key(), Some(1.0));
        assert_eq!(s.max_key(), Some(3.0));
    }

    fn ranks_with_duplicates<S: KeyStore>() {
        // keys: 1, 2, 2, 2, 5
        let s = S::build(vec![
            Entry::new(2.0, 0),
            Entry::new(2.0, 1),
            Entry::new(1.0, 2),
            Entry::new(5.0, 3),
            Entry::new(2.0, 4),
        ]);
        assert_eq!(s.rank_leq(0.0), 0);
        assert_eq!(s.rank_leq(1.0), 1);
        assert_eq!(s.rank_leq(2.0), 4);
        assert_eq!(s.rank_leq(4.9), 4);
        assert_eq!(s.rank_leq(5.0), 5);
        assert_eq!(s.rank_leq(9.0), 5);
        assert_eq!(s.rank_lt(1.0), 0);
        assert_eq!(s.rank_lt(2.0), 1);
        assert_eq!(s.rank_lt(2.0000001), 4);
        assert_eq!(s.rank_lt(5.0), 4);
    }

    fn asc_desc_iteration<S: KeyStore>() {
        let n = 257; // crosses node boundaries for the B+-tree
        let entries: Vec<Entry> = (0..n).map(|i| Entry::new((n - i) as f64, i)).collect();
        let s = S::build(entries);
        let asc: Vec<u32> = s.iter_asc(0, n as usize).map(|e| e.id).collect();
        let expect_asc: Vec<u32> = (0..n).rev().collect();
        assert_eq!(asc, expect_asc);

        // Sub-ranges agree with the full ordering.
        let mid: Vec<Entry> = s.iter_asc(10, 20).collect();
        assert_eq!(mid.len(), 10);
        assert_eq!(mid[0].key, 11.0);
        assert_eq!(mid[9].key, 20.0);

        let desc: Vec<Entry> = s.iter_desc(5).collect();
        let keys: Vec<f64> = desc.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![5.0, 4.0, 3.0, 2.0, 1.0]);

        let full_desc: Vec<u32> = s.iter_desc(n as usize).map(|e| e.id).collect();
        let mut expect_desc = expect_asc;
        expect_desc.reverse();
        assert_eq!(full_desc, expect_desc);
    }

    fn insert_remove_random<S: KeyStore>() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut s = S::build(vec![]);
        let mut model: Vec<Entry> = Vec::new();
        for i in 0..2000u32 {
            let key = (rng.random_range(0..50) as f64) * 0.5;
            let e = Entry::new(key, i);
            s.insert(e);
            model.push(e);
        }
        model.sort_by(Entry::total_cmp);
        assert_eq!(s.len(), model.len());
        let got: Vec<Entry> = s.iter_asc(0, s.len()).collect();
        assert_eq!(got, model);

        // Remove a random half, verifying presence/absence results.
        let mut removed = 0;
        for i in (0..2000u32).step_by(2) {
            let pos = model.iter().position(|e| e.id == i).unwrap();
            let e = model.remove(pos);
            assert!(s.remove(e), "entry {e:?} should be removable");
            assert!(!s.remove(e), "double removal must fail");
            removed += 1;
        }
        assert_eq!(s.len(), 2000 - removed);
        let got: Vec<Entry> = s.iter_asc(0, s.len()).collect();
        assert_eq!(got, model);

        // Rank queries agree with the model on many thresholds.
        for t in 0..60 {
            let t = t as f64 * 0.45;
            let leq = model.iter().filter(|e| e.key <= t).count();
            let lt = model.iter().filter(|e| e.key < t).count();
            assert_eq!(s.rank_leq(t), leq, "rank_leq({t})");
            assert_eq!(s.rank_lt(t), lt, "rank_lt({t})");
        }
    }

    fn negative_zero_canonicalized<S: KeyStore>() {
        let s = S::build(vec![Entry::new(-0.0, 0), Entry::new(0.0, 1)]);
        // Both keys are numerically zero: a strict rank at 0 sees neither.
        assert_eq!(s.rank_lt(0.0), 0);
        assert_eq!(s.rank_leq(0.0), 2);
        assert_eq!(s.rank_leq(-0.0), 2);
    }
}
