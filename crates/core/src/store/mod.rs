//! The sorted id list: the physical layout of one Planar index.
//!
//! A Planar index is "the data points sorted in ascending order of
//! `⟨c, φ(x)⟩`" (paper §4.2, the list `L`). Every key in that list is a
//! function of a row the engine already holds, so the store keeps **only
//! the ids**, in `(key, id)` order, and is handed the key function
//! whenever it needs a key: the bulk build sorts by it, the boundary
//! searches of Algorithm 1 bisect the id array evaluating it at each
//! probe, and point updates (§4.4) bisect to their position the same way.
//! This is searching an implicit set by evaluating its function during the
//! search (Aronov et al., PAPERS.md).
//!
//! The [`KeyStore`] trait names that contract; [`VecStore`], a packed
//! `Vec<u32>`, is its only implementation.

mod vec_store;

pub use vec_store::VecStore;

use crate::memory::HeapSize;
use crate::table::PointId;

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

/// The sorted list `L` of one Planar index, stored as ids only.
///
/// Every method that needs keys takes `key`, which maps an id to its
/// canonical key (see [`canon`]); the store keeps its ids in ascending
/// `(key(id), id)` order under `f64::total_cmp`, with ids breaking ties so
/// every id has a unique position and removals are exact. A store is only
/// correct while `key` returns the keys it was ordered by: callers remove
/// an id *before* its key changes and insert it after.
pub trait KeyStore: HeapSize + Sized {
    /// Build from arbitrary-order ids, evaluating `key` once per id.
    fn build(ids: impl Iterator<Item = PointId>, key: impl Fn(PointId) -> f64) -> Self;

    /// Adopt ids already in `(key, id)` order (e.g. a snapshot section).
    /// The order is trusted; `crate::health` checks it.
    fn from_sorted_ids(ids: Vec<PointId>) -> Self;

    /// The ids in `(key, id)` order.
    fn ids(&self) -> &[PointId];

    /// Number of ids.
    fn len(&self) -> usize {
        self.ids().len()
    }

    /// True when the store holds no ids.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of ids with `key ≤ threshold`.
    fn rank_leq(&self, threshold: f64, key: impl Fn(PointId) -> f64) -> usize;

    /// Number of ids with `key < threshold`.
    fn rank_lt(&self, threshold: f64, key: impl Fn(PointId) -> f64) -> usize;

    /// Insert `id` at its `(key(id), id)` position.
    fn insert(&mut self, id: PointId, key: impl Fn(PointId) -> f64);

    /// Remove `id`, bisecting by its current `key(id)`; returns whether it
    /// was present.
    fn remove(&mut self, id: PointId, key: impl Fn(PointId) -> f64) -> bool;
}
