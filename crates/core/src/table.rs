//! Flat storage for the feature images `φ(x)` of all data points: one
//! row-major `f64` buffer, laid out in k-d block order.
//!
//! The Planar index never needs the original points `x` — only their images
//! under the application-specific feature map `φ` (and applications usually
//! keep `x` themselves). `FeatureTable` therefore stores exactly the `n × d'`
//! matrix of feature values, contiguously, so that sequential verification
//! scans are cache-friendly and the memory accounting of Fig. 13b is exact:
//! `n · d' · 8` bytes of rows, plus the quantized tier and the layout maps.
//!
//! ## Block layout
//!
//! The buffer stores the rows in *slot* order, which
//! [`FeatureTable::cluster`] sets to the k-d block order of [`kd_order`]:
//! 64 rows that are close in space share a block of
//! [`planar_geom::BLOCK_ROWS`] slots, so a block's per-dimension bounding
//! box is small and a query can settle the whole block from its box (see
//! `crate::parallel`). Block `w` is the contiguous run of `64 · d'` values
//! at slots `64w..64w + 64` ([`FeatureTable::slot_rows`]), the input shape
//! of `planar_geom::dot_block`; the quantized tier derived from it keeps
//! the same block order. Ids never change; the table maps between the two
//! spaces ([`FeatureTable::slot_of`], [`FeatureTable::id_at`]), and every
//! id-addressed view — [`FeatureTable::row`], [`FeatureTable::iter`],
//! equality — reads through that map, so callers see rows in id order
//! whatever the layout. Rows appended after a clustering take the next
//! slot, so they fill the tail blocks. An unclustered table's slots are its
//! ids.

use crate::memory::HeapSize;
use crate::quant::{QuantTier, QuantizedColumns};
use crate::{PlanarError, Result};
use planar_geom::BLOCK_ROWS;

/// Identifier of a data point: its row position in the [`FeatureTable`].
pub type PointId = u32;

/// An `n × d'` table of feature values, stored row-major in slot order
/// (see the module docs), with an optional quantized mirror for the
/// fixed-point filter tier (see [`Self::set_quant_tier`]).
#[derive(Debug, Clone)]
pub struct FeatureTable {
    dim: usize,
    /// The rows, row-major, in slot order.
    data: Vec<f64>,
    /// Quantized filter tier, present iff the active tier is not `Off`.
    /// Kept in sync by `push_row`/`update_row`; derived state, excluded
    /// from equality.
    quant: Option<QuantizedColumns>,
    /// The slot order of the rows; `None` while slots are ids.
    layout: Option<Layout>,
}

/// A permutation between ids and slots, both directions.
#[derive(Debug, Clone)]
struct Layout {
    /// `slot_of[id]`.
    slot_of: Vec<u32>,
    /// `id_of[slot]`.
    id_of: Vec<PointId>,
}

impl PartialEq for FeatureTable {
    /// Logical equality: the same rows under the same ids. The block
    /// layout and the quantized mirror are derived from the rows — two
    /// tables holding identical rows are equal even when their layouts or
    /// tiers differ.
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.len() == other.len()
            && self.iter().zip(other.iter()).all(|((_, a), (_, b))| a == b)
    }
}

impl FeatureTable {
    /// An empty table for `dim`-dimensional features.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] if `dim == 0`.
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(PlanarError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        Ok(Self {
            dim,
            data: Vec::new(),
            quant: None,
            layout: None,
        })
    }

    /// An empty table with room for `capacity` rows.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] if `dim == 0`.
    pub fn with_capacity(dim: usize, capacity: usize) -> Result<Self> {
        let mut t = Self::new(dim)?;
        t.data.reserve(capacity * dim);
        Ok(t)
    }

    /// Build a table from explicit rows.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on ragged input or `dim == 0`,
    /// [`PlanarError::NotFinite`] on NaN/∞ values.
    pub fn from_rows(dim: usize, rows: impl IntoIterator<Item = Vec<f64>>) -> Result<Self> {
        let mut t = Self::new(dim)?;
        for row in rows {
            t.push_row(&row)?;
        }
        Ok(t)
    }

    /// Append a row in the next slot, returning its [`PointId`].
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on wrong arity,
    /// [`PlanarError::NotFinite`] on NaN/∞ values.
    pub fn push_row(&mut self, row: &[f64]) -> Result<PointId> {
        self.validate(row)?;
        let id = self.len() as PointId;
        self.data.extend_from_slice(row);
        if let Some(l) = &mut self.layout {
            l.slot_of.push(id);
            l.id_of.push(id);
        }
        if let Some(q) = &mut self.quant {
            q.sync(&self.data);
        }
        Ok(id)
    }

    /// Replace the row of point `id` in place, in its slot.
    ///
    /// # Errors
    ///
    /// [`PlanarError::PointNotFound`] for an out-of-range id, plus the
    /// validation errors of [`Self::push_row`].
    pub fn update_row(&mut self, id: PointId, row: &[f64]) -> Result<()> {
        self.validate(row)?;
        let start = self.offset_of(id)?;
        self.data[start..start + self.dim].copy_from_slice(row);
        if let Some(q) = &mut self.quant {
            q.reencode_block(&self.data, start / self.dim / BLOCK_ROWS);
        }
        Ok(())
    }

    /// The slot holding row `id`.
    #[inline]
    pub fn slot_of(&self, id: PointId) -> u32 {
        self.layout.as_ref().map_or(id, |l| l.slot_of[id as usize])
    }

    /// The id of the row in slot `slot`.
    #[inline]
    pub fn id_at(&self, slot: u32) -> PointId {
        self.layout
            .as_ref()
            .map_or(slot, |l| l.id_of[slot as usize])
    }

    /// Whether slots differ from ids, so that results read off the blocks
    /// come out of id order.
    #[inline]
    pub fn is_clustered(&self) -> bool {
        self.layout.is_some()
    }

    /// Lay the rows (and the quantized tier) out in the k-d block order of
    /// [`kd_order`]. A pure function of the rows and their ids; rows pushed
    /// later take the next slot. The permuted rows go into a buffer of
    /// exactly `n · d'` values. `O(n log n)`.
    pub fn cluster(&mut self) {
        let order = kd_order(self);
        let identity = order.iter().enumerate().all(|(s, &id)| s == id as usize);
        let mut data = Vec::with_capacity(order.len() * self.dim);
        for &id in &order {
            data.extend_from_slice(self.row(id));
        }
        self.data = data;
        self.layout = (!identity).then(|| {
            let mut slot_of = vec![0u32; order.len()];
            for (slot, &id) in order.iter().enumerate() {
                slot_of[id as usize] = slot as u32;
            }
            Layout {
                slot_of,
                id_of: order,
            }
        });
        if self.quant.is_some() {
            self.quant = Some(QuantizedColumns::encode(self));
        }
    }

    /// The feature row of point `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range — table rows are never removed, so an
    /// out-of-range id is a logic error in the caller.
    #[inline]
    pub fn row(&self, id: PointId) -> &[f64] {
        self.slot_row(self.slot_of(id))
    }

    /// The row in slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn slot_row(&self, slot: u32) -> &[f64] {
        let start = slot as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    /// The contiguous row-major storage of the slots `[from, to)` — the
    /// input shape of `planar_geom::dot_block`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `from > to`.
    #[inline]
    pub fn slot_rows(&self, from: u32, to: u32) -> &[f64] {
        &self.data[from as usize * self.dim..to as usize * self.dim]
    }

    /// Iterate over the blocks of [`BLOCK_ROWS`] slots in slot order, as
    /// `(first slot, rows)`: every block is full except the last.
    pub fn blocks(&self) -> impl Iterator<Item = (u32, &[f64])> {
        self.data
            .chunks(BLOCK_ROWS * self.dim)
            .enumerate()
            .map(|(w, rows)| ((w * BLOCK_ROWS) as u32, rows))
    }

    /// The quantized filter mirror, when a tier is active.
    #[inline]
    pub fn quant(&self) -> Option<&QuantizedColumns> {
        self.quant.as_ref()
    }

    /// The active quantization tier (`Off` when no mirror is held).
    #[inline]
    pub fn quant_tier(&self) -> QuantTier {
        match self.quant {
            Some(_) => QuantTier::I16,
            None => QuantTier::Off,
        }
    }

    /// Install (or remove, for `Off`) the quantized filter mirror. Turning
    /// the tier on encodes the whole table — `O(n · d')` — so callers batch
    /// this behind build, load, and compaction boundaries. A no-op when
    /// `tier` is already active.
    pub fn set_quant_tier(&mut self, tier: QuantTier) {
        match tier {
            QuantTier::Off => self.quant = None,
            QuantTier::I16 => {
                if self.quant.is_none() {
                    self.quant = Some(QuantizedColumns::encode(self));
                }
            }
        }
    }

    /// Fallible row access.
    ///
    /// # Errors
    ///
    /// [`PlanarError::PointNotFound`] for an out-of-range id.
    pub fn try_row(&self, id: PointId) -> Result<&[f64]> {
        let start = self.offset_of(id)?;
        Ok(&self.data[start..start + self.dim])
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when the table holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Feature dimensionality `d'`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Iterate over `(id, row)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        (0..self.len() as PointId).map(move |id| (id, self.row(id)))
    }

    /// Per-dimension maxima — `max(i)` in the paper's Eq. 18 query template.
    ///
    /// Returns an empty vector for an empty table.
    pub fn max_per_dim(&self) -> Vec<f64> {
        self.fold_per_dim(f64::NEG_INFINITY, f64::max)
    }

    /// Per-dimension minima.
    pub fn min_per_dim(&self) -> Vec<f64> {
        self.fold_per_dim(f64::INFINITY, f64::min)
    }

    fn fold_per_dim(&self, init: f64, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut acc = vec![init; self.dim];
        for row in self.data.chunks_exact(self.dim) {
            for (a, &v) in acc.iter_mut().zip(row) {
                *a = f(*a, v);
            }
        }
        acc
    }

    pub(crate) fn validate(&self, row: &[f64]) -> Result<()> {
        if row.len() != self.dim {
            return Err(PlanarError::DimensionMismatch {
                expected: self.dim,
                found: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(PlanarError::NotFinite);
        }
        Ok(())
    }

    /// The offset in `data` of row `id`'s slot.
    fn offset_of(&self, id: PointId) -> Result<usize> {
        if id as usize >= self.len() {
            return Err(PlanarError::PointNotFound(id));
        }
        Ok(self.slot_of(id) as usize * self.dim)
    }
}

impl HeapSize for FeatureTable {
    fn heap_size(&self) -> usize {
        // The one `f64` copy of the rows, the quantized mirror when a tier
        // is active, and the layout maps.
        self.data.heap_size()
            + self.quant.as_ref().map_or(0, HeapSize::heap_size)
            + self
                .layout
                .as_ref()
                .map_or(0, |l| l.slot_of.heap_size() + l.id_of.heap_size())
    }
}

/// Rows of a k-d node whose extents pick its split dimension.
const KD_SAMPLE: usize = 64;

/// The k-d block order of `table`'s rows, as the id of each slot.
///
/// Rows are split recursively at the median of each node's widest
/// dimension, with every cut on a [`BLOCK_ROWS`] boundary, until a node
/// fits one block; inside a block the rows are in ascending id order. So
/// the blocks of the result tile space, and each one's bounding box is
/// small. The splits work on compact keys — each coordinate quantized to
/// 16 bits over the table's range, one contiguous column per dimension,
/// ties broken by id. A node's widest dimension comes from the extents of
/// an evenly spaced sample of `KD_SAMPLE` of its rows, and its median
/// from a byte histogram of that dimension's keys and a selection inside
/// the median's bucket. The partition
/// is stable, so every node's ids stay ascending and each column is read in
/// address order. The order is a pure function of the rows and their ids.
/// `O(n·(d + log n))`.
pub fn kd_order(table: &FeatureTable) -> Vec<PointId> {
    let (n, d) = (table.len(), table.dim());
    let mut ids: Vec<PointId> = (0..n as PointId).collect();
    if n <= BLOCK_ROWS {
        return ids;
    }
    let (mut lo, mut hi) = (vec![f64::INFINITY; d], vec![f64::NEG_INFINITY; d]);
    for row in table.data.chunks_exact(d) {
        for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
            *l = if v < *l { v } else { *l };
            *h = if v > *h { v } else { *h };
        }
    }
    // Halves keep the range finite for ±f64::MAX rows; the cast saturates.
    // A half-range below `u16::MAX / f64::MAX` (~3.6e-304, subnormal data)
    // would make the factor +inf, so such a column first scales its
    // offsets by 2^1022: exact for these tiny values, and it leaves every
    // other column's keys bit-identical (its scale is 1).
    let (scale, factor): (Vec<f64>, Vec<f64>) = (0..d)
        .map(|j| {
            let half = 0.5 * hi[j] - 0.5 * lo[j];
            let factor = f64::from(u16::MAX) / half;
            if half > 0.0 && factor.is_infinite() {
                let scale = f64::powi(2.0, 1022);
                (scale, f64::from(u16::MAX) / (half * scale))
            } else {
                (1.0, if half > 0.0 { factor } else { 0.0 })
            }
        })
        .unzip();
    // Rows are read in slot order and their keys scattered to their ids.
    let mut keys = vec![0u16; n * d];
    for (slot, row) in table.data.chunks_exact(d).enumerate() {
        let id = table.id_at(slot as u32) as usize;
        for j in 0..d {
            keys[j * n + id] = ((0.5 * row[j] - 0.5 * lo[j]) * scale[j] * factor[j]) as u16;
        }
    }
    // Partition scratch, one slot longer than any side: every row is
    // written to both sides and only the side it belongs to advances, so
    // the loop has no branch to mispredict.
    let (mut lefts, mut rights) = (vec![0 as PointId; n + 1], vec![0 as PointId; n + 1]);
    let mut bucket: Vec<u64> = Vec::new();
    let mut stack = vec![(0usize, n)];
    while let Some((s, e)) = stack.pop() {
        let m = e - s;
        if m <= BLOCK_ROWS {
            continue;
        }
        let node = &ids[s..e];
        let step = (m / KD_SAMPLE).max(1);
        let width = |j: usize| {
            let col = &keys[j * n..(j + 1) * n];
            let (min, max) = node
                .iter()
                .step_by(step)
                .fold((u16::MAX, 0), |(lo, hi), &id| {
                    let k = col[id as usize];
                    (lo.min(k), hi.max(k))
                });
            max - min
        };
        let dim = (1..d).fold((0, width(0)), |best, j| {
            let w = width(j);
            if w > best.1 {
                (j, w)
            } else {
                best
            }
        });
        let col = &keys[dim.0 * n..(dim.0 + 1) * n];
        let key = |id: PointId| col[id as usize];
        let left = m.div_ceil(BLOCK_ROWS) / 2 * BLOCK_ROWS;
        // The row of rank `left` in (key, id) order: the high byte of its
        // key from a histogram, then a selection among the rows sharing
        // that byte.
        let mut hist = [0usize; 256];
        for &id in node {
            hist[usize::from(key(id) >> 8)] += 1;
        }
        let (high, below) = rank_bucket(&hist, left);
        bucket.clear();
        bucket.extend(
            node.iter()
                .filter(|&&id| usize::from(key(id) >> 8) == high)
                .map(|&id| u64::from(key(id)) << 32 | u64::from(id)),
        );
        let pivot = *bucket.select_nth_unstable(left - below).1;
        let (mut l, mut r) = (0, 0);
        for &id in node {
            let goes_left = usize::from(u64::from(key(id)) << 32 | u64::from(id) < pivot);
            lefts[l] = id;
            rights[r] = id;
            l += goes_left;
            r += 1 - goes_left;
        }
        debug_assert_eq!(l, left);
        ids[s..s + left].copy_from_slice(&lefts[..left]);
        ids[s + left..e].copy_from_slice(&rights[..m - left]);
        stack.push((s + left, e));
        stack.push((s, s + left));
    }
    ids
}

/// The histogram bucket holding the element of rank `rank` (0-based), and
/// the count of elements in the buckets below it.
fn rank_bucket(hist: &[usize; 256], rank: usize) -> (usize, usize) {
    let mut below = 0;
    for (bucket, &count) in hist.iter().enumerate() {
        if below + count > rank {
            return (bucket, below);
        }
        below += count;
    }
    unreachable!("rank {rank} is below the histogram's total")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table3x2() -> FeatureTable {
        FeatureTable::from_rows(2, vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 0.5]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = table3x2();
        assert_eq!(t.len(), 3);
        assert_eq!(t.dim(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.row(1), &[3.0, 4.0]);
        assert_eq!(t.try_row(2).unwrap(), &[5.0, 0.5]);
        assert_eq!(t.try_row(3), Err(PlanarError::PointNotFound(3)));
    }

    #[test]
    fn zero_dim_rejected() {
        assert!(FeatureTable::new(0).is_err());
    }

    #[test]
    fn ragged_and_nonfinite_rows_rejected() {
        let mut t = FeatureTable::new(2).unwrap();
        assert_eq!(
            t.push_row(&[1.0]),
            Err(PlanarError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        );
        assert_eq!(t.push_row(&[1.0, f64::NAN]), Err(PlanarError::NotFinite));
        assert_eq!(
            t.push_row(&[1.0, f64::INFINITY]),
            Err(PlanarError::NotFinite)
        );
        assert_eq!(t.push_row(&[1.0, 2.0]), Ok(0));
        assert_eq!(t.push_row(&[3.0, 4.0]), Ok(1));
    }

    #[test]
    fn update_row_in_place() {
        let mut t = table3x2();
        t.update_row(1, &[9.0, 9.5]).unwrap();
        assert_eq!(t.row(1), &[9.0, 9.5]);
        assert_eq!(
            t.update_row(7, &[0.0, 0.0]),
            Err(PlanarError::PointNotFound(7))
        );
    }

    #[test]
    fn per_dim_extremes() {
        let t = table3x2();
        assert_eq!(t.max_per_dim(), vec![5.0, 4.0]);
        assert_eq!(t.min_per_dim(), vec![1.0, 0.5]);
        assert!(FeatureTable::new(3).unwrap().max_per_dim().is_empty());
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let t = table3x2();
        let ids: Vec<u32> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let (_, row) = t.iter().nth(2).unwrap();
        assert_eq!(row, &[5.0, 0.5]);
    }

    /// A table of pseudo-random rows in `[0, scale)³` and its k-d order,
    /// checked to be a permutation that tiles space with its blocks.
    fn tiled(scale: f64) -> (FeatureTable, Vec<PointId>) {
        let mut state = 9u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * scale
        };
        let n = 20 * BLOCK_ROWS + 37;
        let rows: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next(), next()]).collect();
        let t = FeatureTable::from_rows(3, rows).unwrap();
        let order = kd_order(&t);
        // A permutation of the ids, ascending inside every block, and a
        // pure function of the rows.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as PointId).collect::<Vec<_>>());
        assert!(order.chunks(BLOCK_ROWS).all(|b| b.is_sorted()));
        assert_eq!(kd_order(&t.clone()), order);
        // Blocks tile space: their boxes are far smaller than id order's.
        // Sides are in units of `scale`, so subnormal volumes do not
        // underflow.
        let volume = |ids: &[PointId]| {
            (0..3)
                .map(|j| {
                    let v = ids.iter().map(|&id| t.row(id)[j]);
                    (v.clone().fold(f64::MIN, f64::max) - v.fold(f64::MAX, f64::min)) / scale
                })
                .product::<f64>()
        };
        let boxes = |o: &[PointId]| o.chunks(BLOCK_ROWS).map(volume).sum::<f64>();
        let id_order: Vec<PointId> = (0..n as PointId).collect();
        assert!(boxes(&order) * 20.0 < boxes(&id_order), "scale {scale:e}");
        (t, order)
    }

    #[test]
    fn kd_order_tiles_blocks_and_cluster_keeps_rows() {
        // Subnormal rows must tile too: their keys stay finite.
        tiled(1e-310);
        let (mut t, order) = tiled(100.0);
        let n = t.len();
        t.set_quant_tier(QuantTier::I16);
        t.cluster();
        assert!(t.is_clustered());
        for (slot, &id) in order.iter().enumerate() {
            assert_eq!(t.id_at(slot as u32), id);
            assert_eq!(t.slot_of(id), slot as u32);
            assert_eq!(t.slot_row(slot as u32), t.row(id));
        }
        // Block w is the contiguous run of its 64 slots' rows.
        let (first, rows) = t.blocks().nth(2).unwrap();
        assert_eq!(first, 2 * BLOCK_ROWS as u32);
        assert_eq!(rows, t.slot_rows(first, first + BLOCK_ROWS as u32));
        assert_eq!(&rows[..3], t.row(order[2 * BLOCK_ROWS]));
        // Updates land in the row's slot, appends in the next slot; the
        // quantized tier follows.
        t.update_row(order[5], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(t.slot_row(5), [1.0, 2.0, 3.0]);
        let id = t.push_row(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!((t.slot_of(id), t.id_at(n as u32)), (n as u32, id));
        assert_eq!(t.quant().unwrap().len(), n + 1);
        // Logical equality ignores the layout.
        let mut plain = FeatureTable::new(3).unwrap();
        for (_, row) in t.iter() {
            plain.push_row(row).unwrap();
        }
        assert_eq!(plain, t);
    }

    #[test]
    fn heap_size_tracks_data() {
        let t = table3x2();
        assert!(t.heap_size() >= 6 * 8);
    }

    #[test]
    fn clustered_i16_table_holds_one_f64_copy_of_its_rows() {
        // d' = 8: exactly n·64 B of rows next to the tier and the maps,
        // in the table and in its clone. A second f64 copy, or capacity
        // slack left by the pushes, would show up here.
        let (n, d) = (20 * BLOCK_ROWS + 37, 8);
        let rows = (0..n).map(|i| (0..d).map(|j| ((i * 7 + j * 3) % 101) as f64).collect());
        let mut t = FeatureTable::from_rows(d, rows).unwrap();
        t.set_quant_tier(QuantTier::I16);
        t.cluster();
        assert!(t.is_clustered());
        let blocks = n.div_ceil(BLOCK_ROWS);
        let tier = blocks * d * BLOCK_ROWS * 2 // codes
            + 2 * blocks * d * 8 // lo and hi planes
            + d * 8 // mag
            + blocks; // fallback flags
        let maps = 2 * n * 4;
        assert_eq!(t.quant().unwrap().heap_size(), tier);
        assert_eq!(t.heap_size(), n * 64 + tier + maps);
        assert_eq!(t.clone().heap_size(), n * 64 + tier + maps);
    }
}
