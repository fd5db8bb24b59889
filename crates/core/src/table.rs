//! Flat storage for the feature images `φ(x)` of all data points: a
//! row-major table plus an interleaved-block columnar mirror.
//!
//! The Planar index never needs the original points `x` — only their images
//! under the application-specific feature map `φ` (and applications usually
//! keep `x` themselves). `FeatureTable` therefore stores exactly the `n × d'`
//! matrix of feature values, contiguously, so that sequential verification
//! scans are cache-friendly and the memory accounting of Fig. 13b is exact.
//!
//! Alongside the row-major buffer the table maintains a [`ColumnMajorRows`]
//! mirror: rows grouped into blocks of [`planar_geom::BLOCK_ROWS`] lanes,
//! dimension-major within each block, in one contiguous 64-byte-aligned
//! allocation. The SIMD verification kernels of `planar_geom::kernels` read
//! through this layout (see [`crate::parallel`] and [`crate::scan`]); the
//! row-major buffer remains the source of truth for single-row access.

use crate::memory::HeapSize;
use crate::quant::{QuantPolicy, QuantTier, QuantizedColumns};
use crate::{PlanarError, Result};
use planar_geom::BLOCK_ROWS;

/// Identifier of a data point: its row position in the [`FeatureTable`].
pub type PointId = u32;

/// An `n × d'` row-major table of feature values, with an always-in-sync
/// columnar mirror for blocked verification (see [`Self::columns`]) and an
/// optional quantized mirror for the fixed-point filter tier (see
/// [`Self::set_quant_policy`]).
#[derive(Debug, Clone)]
pub struct FeatureTable {
    dim: usize,
    data: Vec<f64>,
    cols: ColumnMajorRows,
    /// Quantized filter tier, present iff the active policy is not `Off`.
    /// Kept in sync by `push_row`/`update_row`; derived state, excluded
    /// from equality.
    quant: Option<QuantizedColumns>,
}

impl PartialEq for FeatureTable {
    /// Logical equality: same feature values. The quantized mirror is a
    /// cache of `(data, policy)` — two tables holding identical rows are
    /// equal even when their (possibly autotuner-chosen) tiers differ.
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.data == other.data && self.cols == other.cols
    }
}

/// Interleaved-block columnar ("SoA") layout of the same `n × d'` matrix.
///
/// Rows are grouped into blocks of [`BLOCK_ROWS`] *lanes*; within a block,
/// coordinate `j` of all lanes is contiguous. Element `(row r, dim j)` lives
/// at `block(r / BLOCK_ROWS)[j · BLOCK_ROWS + (r mod BLOCK_ROWS)]`. The
/// whole structure is a single allocation whose data region starts on a
/// 64-byte boundary (each per-dimension run is then 512 bytes = 8 cache
/// lines, also 64-byte aligned, since `BLOCK_ROWS` doubles as the lane
/// stride). The trailing partial block is allocated full-size and
/// zero-padded so kernels can always assume a `BLOCK_ROWS` stride.
///
/// Built by transposing at index-build time ([`FeatureTable::from_rows`])
/// and kept in sync by `push_row`/`update_row`; it is a *mirror* — the
/// row-major buffer stays authoritative — at the cost of 2× feature memory,
/// which [`HeapSize`] reports honestly.
#[derive(Debug)]
pub struct ColumnMajorRows {
    dim: usize,
    len: usize,
    /// Over-allocated backing buffer; the data region is `buf[start..]`.
    buf: Vec<f64>,
    /// Element offset of the 64-byte-aligned data region within `buf`.
    start: usize,
}

/// Worst-case elements needed to reach a 64-byte boundary from an 8-byte
/// aligned `Vec<f64>` base pointer.
const ALIGN_SLACK: usize = 8;

impl ColumnMajorRows {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            len: 0,
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Elements per block: `dim` runs of `BLOCK_ROWS` lanes.
    #[inline]
    fn block_elems(&self) -> usize {
        self.dim * BLOCK_ROWS
    }

    /// Number of rows mirrored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are mirrored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feature dimensionality `d'`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The lane stride of every block (`BLOCK_ROWS`).
    #[inline]
    pub fn stride(&self) -> usize {
        BLOCK_ROWS
    }

    /// True when the data region starts on a 64-byte boundary (always holds
    /// for a non-empty mirror; exposed for tests and diagnostics).
    pub fn alignment_ok(&self) -> bool {
        self.buf.is_empty() || (self.buf[self.start..].as_ptr() as usize).is_multiple_of(64)
    }

    fn offset_of(&self, row: usize, j: usize) -> usize {
        let b = row / BLOCK_ROWS;
        self.start + b * self.block_elems() + j * BLOCK_ROWS + (row % BLOCK_ROWS)
    }

    /// Append one zeroed block, preserving the 64-byte alignment of the data
    /// region across reallocation.
    fn grow_block(&mut self) {
        let blk = self.block_elems();
        if self.buf.len() + blk > self.buf.capacity() {
            let data = self.buf.len() - self.start;
            let new_cap = (data + blk).max(data * 2) + ALIGN_SLACK;
            let mut fresh: Vec<f64> = Vec::with_capacity(new_cap);
            let new_start = Self::align_offset(fresh.as_ptr());
            fresh.resize(new_start, 0.0);
            fresh.extend_from_slice(&self.buf[self.start..]);
            self.buf = fresh;
            self.start = new_start;
        }
        // Capacity is now sufficient: this resize cannot reallocate, so the
        // alignment established above survives.
        self.buf.resize(self.buf.len() + blk, 0.0);
    }

    fn reserve_rows(&mut self, additional: usize) {
        let blocks_needed = (self.len + additional).div_ceil(BLOCK_ROWS);
        let have = (self.buf.len() - self.start) / self.block_elems().max(1);
        if blocks_needed > have {
            self.buf
                .reserve((blocks_needed - have) * self.block_elems() + ALIGN_SLACK);
        }
    }

    fn align_offset(ptr: *const f64) -> usize {
        // A Vec<f64> base pointer is 8-byte aligned, so the byte distance to
        // the next 64-byte boundary is a multiple of 8.
        ((64 - (ptr as usize) % 64) % 64) / 8
    }

    /// Mirror an appended row (validation already done by the table).
    fn push_row(&mut self, row: &[f64]) {
        if self.len.is_multiple_of(BLOCK_ROWS) {
            self.grow_block();
        }
        let r = self.len;
        for (j, &v) in row.iter().enumerate() {
            let at = self.offset_of(r, j);
            self.buf[at] = v;
        }
        self.len += 1;
    }

    /// Mirror an in-place row update.
    fn update_row(&mut self, row_idx: usize, row: &[f64]) {
        for (j, &v) in row.iter().enumerate() {
            let at = self.offset_of(row_idx, j);
            self.buf[at] = v;
        }
    }

    /// Copy row `r` out of the columnar layout (tests / diagnostics).
    pub fn gather_row(&self, r: usize, out: &mut [f64]) {
        assert!(r < self.len, "row {r} out of range");
        for (j, o) in out.iter_mut().enumerate().take(self.dim) {
            *o = self.buf[self.offset_of(r, j)];
        }
    }

    /// Iterate the maximal per-block segments covering rows `[from, to)`.
    ///
    /// Each [`ColSegment`] is directly consumable by
    /// [`planar_geom::dot_block_cols`] / [`planar_geom::dot_cmp_block`]:
    /// `cols` is the block's storage shifted to the segment's first lane,
    /// with lane stride [`BLOCK_ROWS`].
    ///
    /// # Panics
    ///
    /// Panics if `to > len` or `from > to`.
    pub fn segments(&self, from: PointId, to: PointId) -> ColSegments<'_> {
        let (from, to) = (from as usize, to as usize);
        assert!(from <= to && to <= self.len, "segment range out of bounds");
        ColSegments {
            cols: self,
            cur: from,
            end: to,
        }
    }
}

impl Clone for ColumnMajorRows {
    /// Clones re-establish 64-byte alignment for the new allocation (a
    /// derived clone would copy the old `start`, which is only correct for
    /// the old base pointer).
    fn clone(&self) -> Self {
        let data = self.buf.len() - self.start;
        let mut fresh: Vec<f64> = Vec::with_capacity(data + ALIGN_SLACK);
        let new_start = Self::align_offset(fresh.as_ptr());
        fresh.resize(new_start, 0.0);
        fresh.extend_from_slice(&self.buf[self.start..]);
        Self {
            dim: self.dim,
            len: self.len,
            buf: fresh,
            start: new_start,
        }
    }
}

impl PartialEq for ColumnMajorRows {
    /// Logical equality: same shape and same mirrored values. Compares the
    /// data regions directly — zero padding is an invariant, and `start`
    /// is allocation-specific, so it is excluded.
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.len == other.len
            && self.buf[self.start..] == other.buf[other.start..]
    }
}

impl HeapSize for ColumnMajorRows {
    fn heap_size(&self) -> usize {
        self.buf.heap_size()
    }
}

/// One per-block run of lanes yielded by [`ColumnMajorRows::segments`].
#[derive(Debug, Clone, Copy)]
pub struct ColSegment<'a> {
    /// Row id of the segment's first lane.
    pub first: PointId,
    /// Number of lanes (rows) in this segment — at most [`BLOCK_ROWS`].
    pub lanes: usize,
    /// Block storage shifted to the first lane: coordinate `j` of lane `l`
    /// is `cols[j * BLOCK_ROWS + l]`.
    pub cols: &'a [f64],
}

/// Iterator over the per-block segments of a row range.
pub struct ColSegments<'a> {
    cols: &'a ColumnMajorRows,
    cur: usize,
    end: usize,
}

impl<'a> Iterator for ColSegments<'a> {
    type Item = ColSegment<'a>;

    fn next(&mut self) -> Option<ColSegment<'a>> {
        if self.cur >= self.end {
            return None;
        }
        let c = self.cols;
        let b = self.cur / BLOCK_ROWS;
        let lane_lo = self.cur % BLOCK_ROWS;
        let lane_hi = (self.end - b * BLOCK_ROWS).min(BLOCK_ROWS);
        let block_start = c.start + b * c.block_elems();
        let lo = block_start + lane_lo;
        let hi = block_start + (c.dim - 1) * BLOCK_ROWS + lane_hi;
        let seg = ColSegment {
            first: self.cur as PointId,
            lanes: lane_hi - lane_lo,
            cols: &c.buf[lo..hi],
        };
        self.cur += seg.lanes;
        Some(seg)
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
            cols: ColumnMajorRows::new(dim),
            quant: None,
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
        t.cols.reserve_rows(capacity);
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

    /// Append a row, returning its [`PointId`].
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on wrong arity,
    /// [`PlanarError::NotFinite`] on NaN/∞ values.
    pub fn push_row(&mut self, row: &[f64]) -> Result<PointId> {
        self.validate(row)?;
        let id = self.len() as PointId;
        self.data.extend_from_slice(row);
        self.cols.push_row(row);
        if let Some(q) = &mut self.quant {
            q.sync(&self.cols);
        }
        Ok(id)
    }

    /// Replace the row of point `id` in place.
    ///
    /// # Errors
    ///
    /// [`PlanarError::PointNotFound`] for an out-of-range id, plus the
    /// validation errors of [`Self::push_row`].
    pub fn update_row(&mut self, id: PointId, row: &[f64]) -> Result<()> {
        self.validate(row)?;
        let start = self.offset_of(id)?;
        self.data[start..start + self.dim].copy_from_slice(row);
        self.cols.update_row(id as usize, row);
        if let Some(q) = &mut self.quant {
            q.reencode_row_block(&self.cols, id);
        }
        Ok(())
    }

    /// The feature row of point `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range — table rows are never removed, so an
    /// out-of-range id is a logic error in the caller.
    #[inline]
    pub fn row(&self, id: PointId) -> &[f64] {
        let start = id as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    /// The contiguous row-major storage of the row range `[from, to)` —
    /// the input shape of `planar_geom::dot_block`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `from > to`.
    #[inline]
    pub fn rows_between(&self, from: PointId, to: PointId) -> &[f64] {
        &self.data[from as usize * self.dim..to as usize * self.dim]
    }

    /// The interleaved-block columnar mirror of this table — the read path
    /// of the SIMD verification kernels.
    #[inline]
    pub fn columns(&self) -> &ColumnMajorRows {
        &self.cols
    }

    /// The quantized filter mirror, when a tier is active.
    #[inline]
    pub fn quant(&self) -> Option<&QuantizedColumns> {
        self.quant.as_ref()
    }

    /// The active quantization tier (`Off` when no mirror is held).
    #[inline]
    pub fn quant_tier(&self) -> QuantTier {
        self.quant.as_ref().map_or(QuantTier::Off, |q| q.tier())
    }

    /// The active quantization policy (tier + error-bound slack).
    pub fn quant_policy(&self) -> QuantPolicy {
        match &self.quant {
            None => QuantPolicy::off(),
            Some(q) => QuantPolicy {
                tier: q.tier(),
                slack: q.slack(),
            },
        }
    }

    /// Install (or remove, for `Off`) the quantized filter mirror. A tier
    /// or slack change re-encodes the whole table — `O(n · d')` — so
    /// callers batch this behind build, load, and compaction boundaries.
    /// A no-op when `policy` already matches the active mirror.
    pub fn set_quant_policy(&mut self, policy: QuantPolicy) {
        let slack = policy.slack.max(1.0);
        match policy.tier {
            QuantTier::Off => self.quant = None,
            tier => {
                let matches = self.quant.as_ref().is_some_and(|q| {
                    q.tier() == tier && q.slack() == slack && q.len() == self.len()
                });
                if !matches {
                    self.quant = Some(QuantizedColumns::encode(&self.cols, tier, slack));
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

    /// Iterate over `(id, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        self.data
            .chunks_exact(self.dim)
            .enumerate()
            .map(|(i, r)| (i as PointId, r))
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

    fn offset_of(&self, id: PointId) -> Result<usize> {
        let start = id as usize * self.dim;
        if start + self.dim > self.data.len() {
            return Err(PlanarError::PointNotFound(id));
        }
        Ok(start)
    }
}

impl HeapSize for FeatureTable {
    fn heap_size(&self) -> usize {
        // Row-major source of truth plus the columnar mirror (the 2× cost
        // of the SoA layout is reported, not hidden) plus the quantized
        // mirror when a tier is active.
        self.data.heap_size()
            + self.cols.heap_size()
            + self.quant.as_ref().map_or(0, HeapSize::heap_size)
    }
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

    #[test]
    fn columnar_mirror_matches_rows() {
        // Cross a block boundary: 150 rows of dim 3.
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|r| (0..3).map(|j| (r * 3 + j) as f64 * 0.25 - 10.0).collect())
            .collect();
        let mut t = FeatureTable::from_rows(3, rows).unwrap();
        t.update_row(70, &[-1.0, -2.0, -3.0]).unwrap();
        let cols = t.columns();
        assert_eq!(cols.len(), t.len());
        assert_eq!(cols.dim(), 3);
        assert!(cols.alignment_ok());
        let mut buf = [0.0; 3];
        for (id, row) in t.iter() {
            cols.gather_row(id as usize, &mut buf);
            assert_eq!(&buf[..], row);
        }
    }

    #[test]
    fn columnar_segments_split_at_block_boundaries() {
        let n = 2 * planar_geom::BLOCK_ROWS + 17;
        let rows: Vec<Vec<f64>> = (0..n).map(|r| vec![r as f64, -(r as f64)]).collect();
        let t = FeatureTable::from_rows(2, rows).unwrap();
        // A range crossing two block boundaries yields three segments whose
        // lane counts cover it exactly, in order.
        let from = 30u32;
        let to = (2 * planar_geom::BLOCK_ROWS + 9) as u32;
        let segs: Vec<_> = t.columns().segments(from, to).collect();
        assert_eq!(segs.len(), 3);
        let mut at = from;
        for seg in &segs {
            assert_eq!(seg.first, at);
            assert!(seg.lanes <= planar_geom::BLOCK_ROWS);
            at += seg.lanes as u32;
        }
        assert_eq!(at, to);
        // Kernel consumption: dots from segments match per-row dot_slices.
        let a = [0.5, 2.0];
        for seg in &segs {
            let mut dots = vec![f64::NAN; seg.lanes];
            planar_geom::dot_block_cols(&a, seg.cols, t.columns().stride(), &mut dots);
            for (off, d) in dots.iter().enumerate() {
                let want = planar_geom::dot_slices(&a, t.row(seg.first + off as u32));
                assert_eq!(d.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn columnar_clone_stays_aligned_and_equal() {
        let rows: Vec<Vec<f64>> = (0..70).map(|r| vec![r as f64]).collect();
        let t = FeatureTable::from_rows(1, rows).unwrap();
        let c = t.clone();
        assert_eq!(t, c);
        assert!(c.columns().alignment_ok());
        assert_eq!(t.columns(), c.columns());
    }

    #[test]
    fn empty_segments_range_is_empty() {
        let t = table3x2();
        assert_eq!(t.columns().segments(2, 2).count(), 0);
    }

    #[test]
    fn heap_size_tracks_data() {
        let t = table3x2();
        assert!(t.heap_size() >= 6 * 8);
    }
}
