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
//!
//! ## Block layout
//!
//! The row-major buffer is always in id order. The columnar mirror (and
//! the quantized tier derived from it) stores the rows in *slot* order,
//! which [`FeatureTable::cluster`] sets to the k-d block order of
//! [`kd_order`]: 64 rows that are close in space share a block, so a
//! block's per-dimension bounding box is small and a query can settle the
//! whole block from its box (see `crate::parallel`). Ids never change; the
//! table maps between the two spaces ([`FeatureTable::slot_of`],
//! [`FeatureTable::id_at`]). Rows appended after a clustering take the next
//! slot, so they fill the tail blocks. An unclustered table's slots are its
//! ids.

use crate::memory::HeapSize;
use crate::quant::{QuantTier, QuantizedColumns};
use crate::{PlanarError, Result};
use planar_geom::BLOCK_ROWS;

/// Identifier of a data point: its row position in the [`FeatureTable`].
pub type PointId = u32;

/// An `n × d'` row-major table of feature values, with an always-in-sync
/// columnar mirror for blocked verification (see [`Self::columns`]) and an
/// optional quantized mirror for the fixed-point filter tier (see
/// [`Self::set_quant_tier`]).
#[derive(Debug, Clone)]
pub struct FeatureTable {
    dim: usize,
    data: Vec<f64>,
    cols: ColumnMajorRows,
    /// Quantized filter tier, present iff the active tier is not `Off`.
    /// Kept in sync by `push_row`/`update_row`; derived state, excluded
    /// from equality.
    quant: Option<QuantizedColumns>,
    /// The slot order of the columnar mirror; `None` while slots are ids.
    layout: Option<Layout>,
}

/// A permutation between ids and columnar slots, both directions.
#[derive(Debug, Clone)]
struct Layout {
    /// `slot_of[id]`.
    slot_of: Vec<u32>,
    /// `id_of[slot]`.
    id_of: Vec<PointId>,
}

impl PartialEq for FeatureTable {
    /// Logical equality: same feature values. The columnar mirror, its
    /// block layout and the quantized mirror are derived from the rows —
    /// two tables holding identical rows are equal even when their layouts
    /// or tiers differ.
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.data == other.data
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

    /// Rewrite every slot from `table`'s rows in the slot order `order`
    /// (the id of each slot; as many as the mirror holds).
    fn fill_from(&mut self, table: &FeatureTable, order: &[PointId]) {
        debug_assert_eq!(order.len(), self.len);
        let (start, blk) = (self.start, self.block_elems());
        for (b, ids) in order.chunks(BLOCK_ROWS).enumerate() {
            let block = &mut self.buf[start + b * blk..start + (b + 1) * blk];
            for (lane, &id) in ids.iter().enumerate() {
                for (j, &v) in table.row(id).iter().enumerate() {
                    block[j * BLOCK_ROWS + lane] = v;
                }
            }
        }
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
        if let Some(l) = &mut self.layout {
            l.slot_of.push(id);
            l.id_of.push(id);
        }
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
        let slot = self.slot_of(id);
        self.cols.update_row(slot as usize, row);
        if let Some(q) = &mut self.quant {
            q.reencode_row_block(&self.cols, slot);
        }
        Ok(())
    }

    /// The columnar slot holding row `id`.
    #[inline]
    pub fn slot_of(&self, id: PointId) -> u32 {
        self.layout.as_ref().map_or(id, |l| l.slot_of[id as usize])
    }

    /// The id of the row in columnar slot `slot`.
    #[inline]
    pub fn id_at(&self, slot: u32) -> PointId {
        self.layout
            .as_ref()
            .map_or(slot, |l| l.id_of[slot as usize])
    }

    /// Whether slots differ from ids, so that results read off the columnar
    /// mirror come out of id order.
    #[inline]
    pub fn is_clustered(&self) -> bool {
        self.layout.is_some()
    }

    /// Lay the columnar mirror (and the quantized tier) out in the k-d
    /// block order of [`kd_order`]. A pure function of the rows and their
    /// ids; rows pushed later take the next slot. `O(n log n)`.
    pub fn cluster(&mut self) {
        let order = kd_order(self);
        let identity = order.iter().enumerate().all(|(s, &id)| s == id as usize);
        // Every slot is rewritten from the row-major source, so the
        // mirror's allocation is reused in place.
        let mut cols = std::mem::replace(&mut self.cols, ColumnMajorRows::new(self.dim));
        cols.fill_from(self, &order);
        self.cols = cols;
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
            self.quant = Some(QuantizedColumns::encode(&self.cols));
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
                    self.quant = Some(QuantizedColumns::encode(&self.cols));
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
/// an evenly spaced sample of [`KD_SAMPLE`] of its rows, and its median
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
    let mut keys = vec![0u16; n * d];
    for (id, row) in table.data.chunks_exact(d).enumerate() {
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
        let mut buf = [0.0; 3];
        for (slot, &id) in order.iter().enumerate() {
            assert_eq!(t.id_at(slot as u32), id);
            assert_eq!(t.slot_of(id), slot as u32);
            t.columns().gather_row(slot, &mut buf);
            assert_eq!(&buf[..], t.row(id));
        }
        // Updates land in the row's slot, appends in the next slot; the
        // quantized tier follows.
        t.update_row(order[5], &[1.0, 2.0, 3.0]).unwrap();
        t.columns().gather_row(5, &mut buf);
        assert_eq!(buf, [1.0, 2.0, 3.0]);
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
}
