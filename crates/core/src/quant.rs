//! The quantized columnar filter tier: fixed-point codec over
//! [`ColumnMajorRows`] blocks, the sound three-way candidate classifier
//! built on `planar_geom::quant`, and the size rule that decides which
//! tables carry it.
//!
//! The tier serves both of the paper's algorithms: Algorithm 1 and the
//! intermediate interval of Algorithm 2 (top-k) verify their candidates
//! through the same blocked call (`parallel::verify_mask`), and both report
//! the filter's work as a [`QuantFilterStats`].
//!
//! ## Tier format
//!
//! Each 64-lane interleaved block of the columnar mirror is encoded
//! per-dimension as an affine fixed-point code:
//!
//! ```text
//! x[j][l] ≈ offset[b][j] + scale[b][j] · code[b][j][l]
//! ```
//!
//! with `code` an `i16` in `[-32767, 32767]`.
//! `offset` is the midpoint and `scale` the half-range of the block's
//! values in that dimension divided by the code magnitude, so rounding to
//! the nearest code bounds the per-element decode error by `scale/2` with
//! no clamping in the common case. A block whose statistics cannot be
//! encoded soundly (overflowing magnitudes) is flagged for full-precision
//! fallback instead — the tier *never* guesses.
//!
//! The mirror stores no offsets or scales. It stores each block's exact
//! per-dimension minimum and maximum, in two dimension-major *planes*
//! (`lo(j)[b]`, `hi(j)[b]`), at the same byte count; `offset` and `scale`
//! are derived from them by one private function (`affine`) wherever they are
//! needed, so codes and classifier thresholds are what the two stored
//! values gave. The planes are also each block's bounding box, which
//! [`QuantizedColumns::box_sweep`] tests a query against for every block
//! at once.
//!
//! ## Error-bound math (why answers stay bit-identical)
//!
//! For a query `⟨a, x⟩ ⋚ b` over a block, the filter computes
//! `D = Σ_j f32(a_j·s_j) · code_j` in `f32` and classifies against
//! thresholds derived from `bias = Σ_j a_j·o_j − b` and a conservative
//! bound `E` on `|（D + bias） − (⟨a,x⟩_f64 − b)|`, where `⟨a,x⟩_f64` is
//! the exact-path [`planar_geom::dot_slices`] value the index's answers
//! are defined by. `E` sums:
//!
//! * quantization: `½·Σ|a_j|·s_j`, slightly inflated for the codec's own
//!   rounding;
//! * `f32` kernel rounding: `(d+6)·2⁻²³ · Σ|a_j|·s_j · qmax`, covering
//!   weight rounding, products, and the striped accumulation;
//! * `f64` reference rounding: `(d+6)·2⁻⁵¹ · M` with
//!   `M = Σ|a_j|(|o_j| + s_j·qmax) + |b|`, covering both the exact dot's
//!   own accumulation error and the `bias` computation;
//! * an absolute guard `(d+4)·qmax·2⁻¹²⁶` for subnormal `f32` products.
//!
//! Thresholds are rounded *outward* when folded to `f32`, so a lane
//! classified accept/reject provably agrees with the `f64` path;
//! everything else is re-verified exactly. `PLANAR_FORCE_PORTABLE`
//! flips both the `f64` and quantized kernels to their scalar twins, and
//! the twins are bit-identical, so verdicts are host-independent.
//!
//! ## Size rule
//!
//! A table with at least [`QUANT_MIN_ROWS`] rows carries the `I16` tier;
//! a smaller one carries none (it is cache-resident, and the encode cannot
//! amortize). [`tier_for_rows`] is the rule and
//! [`crate::PlanarIndexSet::retune_quantization`] applies it: at the
//! caller's set-up, on every `compact()`, and at each durable checkpoint.
//! No query observation feeds it, so a served workload cannot move a
//! table's tier. Build leaves the tier off, so the paper-reproduction
//! experiments count plain Algorithm 1 work.

use std::ops::Range;

use planar_geom::quant::{classify_block_i16, quant_kernel_name, QMAX_I16};
use planar_geom::BLOCK_ROWS;

use crate::memory::HeapSize;
use crate::query::{Cmp, InequalityQuery};
use crate::table::ColumnMajorRows;
use crate::table::PointId;

/// Which quantized tier (if any) a table carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantTier {
    /// No quantized mirror; every verification is full-precision.
    #[default]
    Off,
    /// 16-bit codes: a quarter of the `f64` mirror's bytes.
    I16,
}

impl QuantTier {
    /// Name of the kernel serving this tier (for provenance stamping).
    pub fn kernel_name(self) -> &'static str {
        match self {
            QuantTier::Off => "off",
            QuantTier::I16 => quant_kernel_name(),
        }
    }
}

/// Rows from which a table carries the quantized tier (see
/// [`tier_for_rows`]). A smaller table is cache-resident, and encoding
/// its mirror cannot amortize.
pub const QUANT_MIN_ROWS: usize = 4096;

/// The tier a table of `n_rows` rows carries: `I16` from
/// [`QUANT_MIN_ROWS`] rows on, else `Off`.
pub fn tier_for_rows(n_rows: usize) -> QuantTier {
    if n_rows >= QUANT_MIN_ROWS {
        QuantTier::I16
    } else {
        QuantTier::Off
    }
}

/// Carries no setting: the tier follows the table's size alone (see
/// [`tier_for_rows`]). Kept for callers that pass one to
/// [`crate::ShardedIndexSet::retune_quantization`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantAutotuneConfig {}

/// The quantized mirror of a [`ColumnMajorRows`]: per-block fixed-point
/// codes plus each block's per-dimension bounds, maintained incrementally
/// alongside the `f64` blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedColumns {
    dim: usize,
    len: usize,
    /// Blocks × dim × [`BLOCK_ROWS`] codes, interleaved like the `f64`
    /// blocks.
    codes: Vec<i16>,
    /// Per `(dim, block)`, dimension-major (`lo[j · blocks + b]`): the
    /// smallest value of dimension `j` in block `b`.
    lo: Vec<f64>,
    /// Per `(dim, block)`, dimension-major: the largest value.
    hi: Vec<f64>,
    /// Per dimension: an upper bound on `|x|` over every value the mirror
    /// has encoded. It only grows, so it stays a bound after updates.
    mag: Vec<f64>,
    /// Per block: `true` when the block could not be encoded soundly and
    /// must always take the full-precision path.
    fallback: Vec<bool>,
}

/// The largest code magnitude, as the codec and the error bound use it.
const QMAX: f64 = QMAX_I16 as f64;

/// The decode `(offset, scale)` of a block dimension spanning `[lo, hi]`:
/// midpoint and half-range over [`QMAX`], computed via halves so ±huge
/// endpoints cannot overflow to ±inf.
#[inline]
fn affine(lo: f64, hi: f64) -> (f64, f64) {
    let offset = 0.5 * lo + 0.5 * hi;
    let half = 0.5 * hi - 0.5 * lo;
    let scale = if half > 0.0 { half / QMAX } else { 0.0 };
    (offset, scale)
}

/// The classifier's `f32` overflow guard: with `Σⱼ|wⱼ|·qmax` below this,
/// no partial sum of the fused kernel can leave the finite `f32` range.
/// A block whose fold reaches it takes the exact fallback.
const F32_FOLD_LIMIT: f64 = 1e36;

/// Blocks per tile of [`QuantizedColumns::box_sweep`]: a tile's two corner
/// sums fit the vector registers.
const SWEEP_TILE: usize = 8;

impl QuantizedColumns {
    /// Encode the whole columnar mirror.
    pub fn encode(cols: &ColumnMajorRows) -> Self {
        let mut q = QuantizedColumns {
            dim: cols.dim(),
            len: 0,
            codes: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            mag: vec![0.0; cols.dim()],
            fallback: Vec::new(),
        };
        q.sync(cols);
        q
    }

    /// Rows currently encoded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are encoded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Blocks encoded.
    pub fn blocks(&self) -> usize {
        self.fallback.len()
    }

    /// The code plane (blocks × dim × [`BLOCK_ROWS`], interleaved like the
    /// `f64` blocks).
    pub fn codes(&self) -> &[i16] {
        &self.codes
    }

    /// The lower-bound plane of dimension `j`: entry `b` is the smallest
    /// value of dimension `j` in block `b`.
    pub fn lo(&self, j: usize) -> &[f64] {
        let blocks = self.blocks();
        &self.lo[j * blocks..(j + 1) * blocks]
    }

    /// The upper-bound plane of dimension `j`.
    pub fn hi(&self, j: usize) -> &[f64] {
        let blocks = self.blocks();
        &self.hi[j * blocks..(j + 1) * blocks]
    }

    /// The decode `(offset, scale)` of block `b` in dimension `j`, derived
    /// from the planes by the codec's midpoint/half-range formula.
    pub fn affine(&self, b: usize, j: usize) -> (f64, f64) {
        let at = j * self.blocks() + b;
        affine(self.lo[at], self.hi[at])
    }

    /// Blocks flagged for full-precision fallback.
    pub fn fallback_blocks(&self) -> usize {
        self.fallback.iter().filter(|&&f| f).count()
    }

    /// Bring the mirror up to date with `cols`: encode any appended rows'
    /// blocks (called after `push_row`).
    pub(crate) fn sync(&mut self, cols: &ColumnMajorRows) {
        debug_assert_eq!(self.dim, cols.dim());
        let new_len = cols.len();
        if new_len == self.len {
            return;
        }
        let first_dirty = self.len / BLOCK_ROWS;
        let (old, blocks) = (self.blocks(), new_len.div_ceil(BLOCK_ROWS));
        self.codes.resize(blocks * self.dim * BLOCK_ROWS, 0);
        for plane in [&mut self.lo, &mut self.hi] {
            // Re-stride the dimension-major plane in place, last
            // dimension first, so no run is overwritten before it moves.
            plane.resize(blocks * self.dim, 0.0);
            for j in (1..self.dim).rev() {
                plane.copy_within(j * old..(j + 1) * old, j * blocks);
            }
        }
        self.fallback.resize(blocks, false);
        self.len = new_len;
        for b in first_dirty..blocks {
            self.reencode_block(cols, b);
        }
    }

    /// Re-encode the block containing `row` (called after `update_row`).
    pub(crate) fn reencode_row_block(&mut self, cols: &ColumnMajorRows, row: PointId) {
        self.reencode_block(cols, row as usize / BLOCK_ROWS);
    }

    /// Re-derive the bounds and codes of block `b` from the `f64` mirror.
    /// `O(dim · BLOCK_ROWS)`.
    fn reencode_block(&mut self, cols: &ColumnMajorRows, b: usize) {
        let (dim, blocks) = (self.dim, self.blocks());
        let from = (b * BLOCK_ROWS) as PointId;
        let to = cols.len().min((b + 1) * BLOCK_ROWS) as PointId;
        let Some(seg) = cols.segments(from, to).next() else {
            return;
        };
        debug_assert_eq!(seg.lanes, (to - from) as usize);
        let stride = cols.stride();
        let mut sound = true;
        for j in 0..dim {
            let col = &seg.cols[j * stride..j * stride + seg.lanes];
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in col {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let (offset, scale) = affine(lo, hi);
            // The decoded range must stay finite: |offset| + scale·qmax can
            // round past f64::MAX for max-magnitude blocks even though every
            // source value is finite.
            if !offset.is_finite()
                || !scale.is_finite()
                || !(offset.abs() + scale * QMAX).is_finite()
            {
                sound = false;
            }
            self.lo[j * blocks + b] = lo;
            self.hi[j * blocks + b] = hi;
            self.mag[j] = self.mag[j].max(lo.abs()).max(hi.abs());
            let base = b * dim * BLOCK_ROWS + j * BLOCK_ROWS;
            encode_col(col, offset, scale, &mut self.codes[base..]);
        }
        self.fallback[b] = !sound;
    }

    /// The box verdict of every block in `blocks` against `query`, pushed
    /// onto `out` (cleared first) in block order.
    ///
    /// Tile by tile, it accumulates each block's min-corner and max-corner
    /// sums over the dimensions, `Σⱼ aⱼ·loⱼ` and `Σⱼ aⱼ·hiⱼ` with the two planes
    /// swapped where `aⱼ < 0`, so every exact `⟨a, x⟩` of the block lies
    /// between them. The computed sums and the exact path's
    /// [`planar_geom::dot_slices`] each round by at most
    /// `γ_d·Σⱼ|aⱼ|·maxⱼ` plus `d` underflow quanta (`maxⱼ` bounds every
    /// `|x|` the mirror has held), so one guard per query,
    /// `g = 4(d+2)·(ε·(|b| + Σⱼ|aⱼ|·maxⱼ) + 2⁻¹⁰⁷⁴)` with
    /// `ε = f64::EPSILON`, covers both roundings and the comparison's own
    /// add. A block is accepted or rejected only when its corner sum,
    /// pushed `g` further toward the hyperplane, still lies strictly on one
    /// side (`≤`/`≥` for an accept, matching the predicate). Fallback
    /// blocks — flagged, or past the lane classifier's `f32` guard for this
    /// query — non-finite sums and a guard that could overflow leave it
    /// `Mixed`.
    pub fn box_sweep(
        &self,
        query: &InequalityQuery,
        blocks: Range<usize>,
        out: &mut Vec<BoxClass>,
    ) {
        out.clear();
        let (a, b) = (query.a(), query.b());
        let leq = query.cmp() == Cmp::Leq;
        let d = self.dim as f64;
        let mut m = b.abs();
        for (&aj, &mj) in a.iter().zip(&self.mag) {
            m += aj.abs() * mj;
        }
        let g = 4.0 * (d + 2.0) * (f64::EPSILON * m + f64::from_bits(1));
        if !(2.0 * m + g).is_finite() {
            out.resize(blocks.len(), BoxClass::Mixed);
            return;
        }
        let verdict = |lo: f64, hi: f64, fallback: bool| {
            // `(hi − lo)/2 = Σⱼ|aⱼ|·(hiⱼ − loⱼ)/2` is the span the lane
            // classifier's `f32` guard refuses; such a block stays mixed
            // like a flagged one, so the exact fallback serves it. The
            // test is false for every non-finite sum too (`hi ≥ lo`, so the
            // span is then +∞ or NaN).
            let ok = !fallback & (0.5 * (hi - lo) < F32_FOLD_LIMIT);
            // Every computed dot of the block lies in [lo − g, hi + g].
            let (lo, hi) = (lo - g, hi + g);
            let (all_in, all_out) = if leq {
                (hi <= b, lo > b)
            } else {
                (lo >= b, hi < b)
            };
            match u8::from(ok) * (2 * u8::from(all_in) + u8::from(all_out)) {
                2 => BoxClass::Accept,
                1 => BoxClass::Reject,
                _ => BoxClass::Mixed,
            }
        };
        out.reserve(blocks.len());
        let mut first = blocks.start;
        while first + SWEEP_TILE <= blocks.end {
            let (low, high) = self.corner_sums::<SWEEP_TILE>(a, first);
            let fallback = &self.fallback[first..first + SWEEP_TILE];
            let tile: [BoxClass; SWEEP_TILE] =
                std::array::from_fn(|k| verdict(low[k], high[k], fallback[k]));
            out.extend_from_slice(&tile);
            first += SWEEP_TILE;
        }
        for block in first..blocks.end {
            let ([low], [high]) = self.corner_sums::<1>(a, block);
            out.push(verdict(low, high, self.fallback[block]));
        }
    }

    /// The min-corner and max-corner sums `Σⱼ aⱼ·loⱼ`, `Σⱼ aⱼ·hiⱼ` (planes
    /// swapped where `aⱼ < 0`) of the `T` blocks from `first`. A tile's
    /// sums stay in registers across the dimensions, and each plane is
    /// read in address order.
    #[inline]
    fn corner_sums<const T: usize>(&self, a: &[f64], first: usize) -> ([f64; T], [f64; T]) {
        let blocks = self.blocks();
        let (mut low, mut high) = ([0.0f64; T], [0.0f64; T]);
        for (j, &aj) in a.iter().enumerate() {
            let at = j * blocks + first;
            let lo: &[f64; T] = self.lo[at..at + T].try_into().expect("a tile");
            let hi: &[f64; T] = self.hi[at..at + T].try_into().expect("a tile");
            let (min_side, max_side) = if aj >= 0.0 { (lo, hi) } else { (hi, lo) };
            for k in 0..T {
                low[k] += aj * min_side[k];
                high[k] += aj * max_side[k];
            }
        }
        (low, high)
    }
}

impl HeapSize for QuantizedColumns {
    fn heap_size(&self) -> usize {
        self.codes.capacity() * 2
            + self.lo.capacity() * 8
            + self.hi.capacity() * 8
            + self.mag.capacity() * 8
            + self.fallback.capacity()
    }
}

/// Quantize one dimension's lane column into `out[..col.len()]`
/// (zero-padding beyond is left untouched — callers pre-zero on resize).
fn encode_col(col: &[f64], offset: f64, scale: f64, out: &mut [i16]) {
    if scale <= 0.0 || !scale.is_finite() {
        out[..col.len()].fill(0);
        return;
    }
    for (o, &v) in out.iter_mut().zip(col) {
        let q = ((v - offset) / scale).round();
        // The quotient is within ±QMAX up to rounding slop; clamp keeps
        // the cast exact and the decode error within the bound.
        *o = q.clamp(-QMAX, QMAX) as i16;
    }
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// Per-segment verdict of the quantized filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockClass {
    /// The block cannot be classified soundly; take the `f64` path.
    Fallback,
    /// Disjoint proven masks; lanes in neither mask need exact
    /// re-verification.
    Classified {
        /// Lanes proven to satisfy the predicate.
        accept: u64,
        /// Lanes proven to fail it.
        reject: u64,
    },
}

/// Verdict of a whole block from its bounding box (see
/// [`QuantizedColumns::box_sweep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxClass {
    /// Every row of the block satisfies the predicate.
    Accept,
    /// No row of the block satisfies it.
    Reject,
    /// The box straddles the hyperplane (or the block cannot be bounded):
    /// its rows need a per-lane verdict.
    Mixed,
}

/// Per-query classification driver: folds the query into per-block `f32`
/// weights and outward-rounded thresholds, then dispatches the fused
/// kernels. Create once per (query, table) pair.
pub(crate) struct QuantFilter<'a> {
    q: &'a QuantizedColumns,
    a: &'a [f64],
    b: f64,
    leq: bool,
    /// Scratch: per-dimension `f32` weights for the last block classified.
    w: Vec<f32>,
}

impl<'a> QuantFilter<'a> {
    pub(crate) fn new(query: &'a InequalityQuery, q: &'a QuantizedColumns) -> Self {
        QuantFilter {
            q,
            a: query.a(),
            b: query.b(),
            leq: query.cmp() == Cmp::Leq,
            w: vec![0.0; query.a().len()],
        }
    }

    /// Classify `lanes` lanes starting at slot `first` (all within one
    /// block). Returns disjoint accept/reject masks (bit `l` ↔ slot
    /// `first + l`) or `Fallback`.
    pub(crate) fn classify(&mut self, first: PointId, lanes: usize) -> BlockClass {
        let dim = self.a.len();
        let block = first as usize / BLOCK_ROWS;
        let shift = first as usize % BLOCK_ROWS;
        let Some((t_lo, t_hi)) = self.thresholds(block) else {
            return BlockClass::Fallback;
        };
        let base = block * dim * BLOCK_ROWS + shift;
        let (below, above) = classify_block_i16(
            &self.w,
            &self.q.codes[base..],
            BLOCK_ROWS,
            lanes,
            t_lo,
            t_hi,
        );
        if self.leq {
            BlockClass::Classified {
                accept: below,
                reject: above,
            }
        } else {
            BlockClass::Classified {
                accept: above,
                reject: below,
            }
        }
    }

    /// Fold the query into `block`'s decode: `self.w` gets its `f32`
    /// weights, and the result is the outward-rounded `f32` thresholds.
    /// `None` when the block is flagged for fallback or the fold is
    /// numerically unsafe (the caller must take the exact path).
    fn thresholds(&mut self, block: usize) -> Option<(f32, f32)> {
        if self.q.fallback[block] {
            return None;
        }

        // Fold the query into this block's decode: weights, bias, and the
        // magnitudes the error bound is built from.
        let mut s_sum = 0.0f64;
        let mut bias = -self.b;
        let mut mag = self.b.abs();
        for (j, (w, &aj)) in self.w.iter_mut().zip(self.a).enumerate() {
            let (oj, sj) = self.q.affine(block, j);
            *w = (aj * sj) as f32;
            s_sum += aj.abs() * sj;
            bias += aj * oj;
            mag += aj.abs() * (oj.abs() + sj * QMAX);
        }
        if !bias.is_finite() || !mag.is_finite() || s_sum * QMAX >= F32_FOLD_LIMIT {
            return None;
        }
        let d_f = self.a.len() as f64;
        let e = 0.5 * s_sum * (1.0 + 1e-6)
            + (d_f + 6.0) * 2f64.powi(-23) * s_sum * QMAX
            + (d_f + 6.0) * 2f64.powi(-51) * mag
            + (d_f + 4.0) * QMAX * f64::from(f32::MIN_POSITIVE);
        if !e.is_finite() {
            return None;
        }
        // Outward-rounded f32 thresholds. `below` lanes have D ≤ t_lo,
        // `above` lanes have D ≥ t_hi; meaning depends on direction.
        Some(if self.leq {
            // accept ⇐ D ≤ −E − bias; reject ⇐ D > E − bias.
            (f32_at_most(-e - bias), f32_strictly_above(e - bias))
        } else {
            // reject ⇐ D < −E − bias; accept ⇐ D ≥ E − bias.
            (f32_strictly_below(-e - bias), f32_at_least(e - bias))
        })
    }
}

fn next_down(t: f32) -> f32 {
    if t.is_nan() || t == f32::NEG_INFINITY {
        t
    } else if t == 0.0 {
        -f32::from_bits(1)
    } else if t > 0.0 {
        f32::from_bits(t.to_bits() - 1)
    } else {
        f32::from_bits(t.to_bits() + 1)
    }
}

fn next_up(t: f32) -> f32 {
    if t.is_nan() || t == f32::INFINITY {
        t
    } else if t == 0.0 {
        f32::from_bits(1)
    } else if t > 0.0 {
        f32::from_bits(t.to_bits() + 1)
    } else {
        f32::from_bits(t.to_bits() - 1)
    }
}

/// Largest f32 `t` with `t ≤ x`.
fn f32_at_most(x: f64) -> f32 {
    let t = x as f32;
    if f64::from(t) > x {
        next_down(t)
    } else {
        t
    }
}

/// Smallest f32 `t` with `t ≥ x`.
fn f32_at_least(x: f64) -> f32 {
    let t = x as f32;
    if f64::from(t) < x {
        next_up(t)
    } else {
        t
    }
}

/// Largest f32 `t` with `t < x`.
fn f32_strictly_below(x: f64) -> f32 {
    let t = x as f32;
    if f64::from(t) >= x {
        next_down(t)
    } else {
        t
    }
}

/// Smallest f32 `t` with `t > x`.
fn f32_strictly_above(x: f64) -> f32 {
    let t = x as f32;
    if f64::from(t) <= x {
        next_up(t)
    } else {
        t
    }
}

// ---------------------------------------------------------------------------
// Per-query filter stats
// ---------------------------------------------------------------------------

/// What the quantized filter did for one query (all zeros when the tier is
/// off). Lanes of blocks settled by their box never enter the filter, so
/// they count in `box_accepted`/`box_rejected` (blocks) only. Nested in [`crate::QueryStats`] and summed by
/// [`crate::StatsAggregator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantFilterStats {
    /// Candidate lanes that entered the quantized filter.
    pub lanes: usize,
    /// Lanes proven to satisfy the predicate without touching `f64` rows.
    pub accepted: usize,
    /// Lanes proven to fail it.
    pub rejected: usize,
    /// Lanes inside the uncertainty band, re-verified at full precision.
    pub reverified: usize,
    /// Lanes classified by the full-precision fallback (unsound blocks or
    /// overflow guards).
    pub fallback: usize,
    /// Blocks with candidates whose bounding box proved every row in,
    /// settled without reading a code.
    pub box_accepted: usize,
    /// Blocks with candidates whose bounding box proved every row out.
    pub box_rejected: usize,
    /// The tier that served this query.
    pub tier: QuantTier,
}

impl QuantFilterStats {
    /// Accumulate `other` (counter sums; tier latest-wins among non-off).
    pub fn merge(&mut self, other: &QuantFilterStats) {
        self.lanes += other.lanes;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.reverified += other.reverified;
        self.fallback += other.fallback;
        self.box_accepted += other.box_accepted;
        self.box_rejected += other.box_rejected;
        if other.tier != QuantTier::Off {
            self.tier = other.tier;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::FeatureTable;
    use planar_geom::dot_slices;

    fn table_from(rows: &[Vec<f64>]) -> FeatureTable {
        FeatureTable::from_rows(rows[0].len(), rows.iter().cloned()).unwrap()
    }

    fn lcg_rows(n: usize, dim: usize, scale: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * scale
                    })
                    .collect()
            })
            .collect()
    }

    fn decode(q: &QuantizedColumns, row: usize, j: usize) -> f64 {
        let b = row / BLOCK_ROWS;
        let l = row % BLOCK_ROWS;
        let dim = q.dim;
        let (o, s) = q.affine(b, j);
        let idx = b * dim * BLOCK_ROWS + j * BLOCK_ROWS + l;
        o + s * f64::from(q.codes[idx])
    }

    #[test]
    fn codec_error_is_within_half_scale() {
        for scale in [1e-12, 1.0, 1e6, 1e300] {
            let rows = lcg_rows(150, 3, scale, 42);
            let t = table_from(&rows);
            let q = QuantizedColumns::encode(t.columns());
            assert_eq!(q.len(), 150);
            assert_eq!(q.fallback_blocks(), 0, "scale {scale}");
            let dim = 3;
            for (r, row) in rows.iter().enumerate() {
                for (j, &x) in row.iter().enumerate().take(dim) {
                    let s = q.affine(r / BLOCK_ROWS, j).1;
                    let err = (decode(&q, r, j) - x).abs();
                    assert!(
                        err <= 0.5 * s * (1.0 + 1e-6) || err == 0.0,
                        "scale {scale} row {r} dim {j}: err {err}, s {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn codec_handles_denormals_and_constants() {
        // Denormal magnitudes and constant dimensions (zero range).
        let rows = vec![
            vec![1e-310, 5.0],
            vec![-3e-312, 5.0],
            vec![2e-310, 5.0],
            vec![0.0, 5.0],
        ];
        let t = table_from(&rows);
        let q = QuantizedColumns::encode(t.columns());
        assert_eq!(q.fallback_blocks(), 0);
        // Constant dimension decodes exactly.
        for r in 0..rows.len() {
            assert_eq!(decode(&q, r, 1), 5.0);
        }
        // Denormal dimension stays within half a (subnormal) scale.
        let s = q.affine(0, 0).1;
        for (r, row) in rows.iter().enumerate() {
            assert!((decode(&q, r, 0) - row[0]).abs() <= 0.75 * s.max(f64::MIN_POSITIVE));
        }
    }

    #[test]
    fn codec_flags_overflowing_blocks_as_fallback() {
        // ±f64::MAX rows: midpoint and scale are finite (computed in
        // halves), but the decoded range |offset| + scale·qmax rounds past
        // f64::MAX, so the block must be flagged for full-precision
        // fallback rather than encoded with an overflowing decode. ±inf
        // rows never reach the codec at all — push_row rejects them with
        // PlanarError::NotFinite.
        let rows = vec![vec![f64::MAX], vec![-f64::MAX], vec![0.0]];
        let t = table_from(&rows);
        let q = QuantizedColumns::encode(t.columns());
        assert_eq!(q.fallback_blocks(), 1);
        // Large-but-representable magnitudes still encode normally.
        let rows = vec![vec![1e300], vec![-1e300], vec![0.0]];
        let t = table_from(&rows);
        let q = QuantizedColumns::encode(t.columns());
        assert_eq!(q.fallback_blocks(), 0);
        for (r, row) in rows.iter().enumerate() {
            let s = q.affine(0, 0).1;
            assert!((decode(&q, r, 0) - row[0]).abs() <= 0.5 * s * (1.0 + 1e-6));
        }
    }

    #[test]
    fn filter_verdicts_are_sound_vs_exact_path() {
        for (dim, scale) in [(1, 1.0), (4, 100.0), (7, 1e-6), (8, 1e8)] {
            let rows = lcg_rows(200, dim, scale, dim as u64 * 31);
            let t = table_from(&rows);
            let q = QuantizedColumns::encode(t.columns());
            for cmp in [Cmp::Leq, Cmp::Geq] {
                let a: Vec<f64> = (0..dim).map(|j| 1.0 + j as f64 * 0.5).collect();
                // Threshold near the middle of the dot distribution.
                let mid = dot_slices(&a, t.row(100));
                let query = InequalityQuery::new(a.clone(), cmp, mid).unwrap();
                let mut f = QuantFilter::new(&query, &q);
                let mut classified = 0usize;
                for first in (0..200u32).step_by(BLOCK_ROWS) {
                    let lanes = (200 - first as usize).min(BLOCK_ROWS);
                    match f.classify(first, lanes) {
                        BlockClass::Fallback => {}
                        BlockClass::Classified { accept, reject } => {
                            assert_eq!(accept & reject, 0, "masks must be disjoint");
                            for l in 0..lanes {
                                let id = first + l as u32;
                                let exact = query.satisfies_dot(dot_slices(&a, t.row(id)));
                                if accept >> l & 1 == 1 {
                                    classified += 1;
                                    assert!(exact, "{cmp:?} accept lane {id}");
                                }
                                if reject >> l & 1 == 1 {
                                    classified += 1;
                                    assert!(!exact, "{cmp:?} reject lane {id}");
                                }
                            }
                        }
                    }
                }
                // The filter must actually classify most lanes for a
                // mid-distribution threshold (else it is useless).
                assert!(
                    classified > 100,
                    "{cmp:?} dim {dim} classified only {classified}"
                );
            }
        }
    }

    #[test]
    fn box_sweep_settles_subnormal_and_huge_blocks() {
        use BoxClass::{Accept as A, Mixed as M, Reject as R};
        // Ten blocks of one ascending column: subnormal rows, and ±1e299
        // multiples that are constant inside each block.
        let tiny: Vec<Vec<f64>> = (0..640).map(|i| vec![i as f64 * 1e-312]).collect();
        let huge: Vec<Vec<f64>> = (0..640)
            .map(|i| vec![(i / 64) as f64 * 1e299 - 4.5e299])
            .collect();
        for (rows, b, leq) in [
            (&tiny, 300.5e-312, [A, A, A, A, M, R, R, R, R, R]),
            (&huge, 0.2e299, [A, A, A, A, A, R, R, R, R, R]),
        ] {
            let q = QuantizedColumns::encode(table_from(rows).columns());
            let mut out = Vec::new();
            let query = InequalityQuery::new(vec![-2.0], Cmp::Geq, -2.0 * b).unwrap();
            q.box_sweep(&query, 0..10, &mut out);
            assert_eq!(out, leq, "(−2)·x ≥ −2b");
            let query = InequalityQuery::new(vec![1.0], Cmp::Geq, b).unwrap();
            q.box_sweep(&query, 3..10, &mut out);
            let geq: Vec<BoxClass> = leq[3..]
                .iter()
                .map(|&v| match v {
                    A => R,
                    R => A,
                    M => M,
                })
                .collect();
            assert_eq!(out, geq, "x ≥ b over blocks 3..10");
        }
        // A block holding ±f64::MAX is flagged, and its magnitude makes the
        // guard overflow: nothing is settled.
        let mut rows = tiny.clone();
        rows[5] = vec![f64::MAX];
        rows[6] = vec![-f64::MAX];
        let q = QuantizedColumns::encode(table_from(&rows).columns());
        assert_eq!(q.fallback_blocks(), 1);
        let mut out = Vec::new();
        let query = InequalityQuery::new(vec![1.0], Cmp::Leq, 0.0).unwrap();
        q.box_sweep(&query, 0..10, &mut out);
        assert_eq!(out, [M; 10]);
    }

    #[test]
    fn planes_keep_exact_bounds_under_mutation() {
        let rows = lcg_rows(300, 3, 10.0, 11);
        let mut t = table_from(&rows);
        t.set_quant_tier(QuantTier::I16);
        // Appends cross two block boundaries; the update lands in block 1.
        for i in 0..150 {
            t.push_row(&[i as f64, -(i as f64), 0.5]).unwrap();
        }
        t.update_row(70, &[-99.0, 99.0, 0.25]).unwrap();
        let q = t.quant().unwrap();
        let fresh = QuantizedColumns::encode(t.columns());
        assert_eq!(q.blocks(), 8);
        for j in 0..3 {
            assert_eq!(q.lo(j), fresh.lo(j), "dim {j}");
            assert_eq!(q.hi(j), fresh.hi(j), "dim {j}");
            for b in 0..q.blocks() {
                let col = (b * BLOCK_ROWS..t.len().min((b + 1) * BLOCK_ROWS))
                    .map(|r| t.row(r as PointId)[j]);
                let lo = col.clone().fold(f64::INFINITY, f64::min);
                let hi = col.fold(f64::NEG_INFINITY, f64::max);
                assert_eq!((q.lo(j)[b], q.hi(j)[b]), (lo, hi), "block {b} dim {j}");
            }
        }
        assert_eq!(q.lo(0)[1], -99.0);
        assert_eq!(q.hi(1)[1], 99.0);
    }

    #[test]
    fn filter_huge_magnitudes_fall_back() {
        let rows = vec![vec![f64::MAX], vec![-f64::MAX], vec![0.0]];
        let t = table_from(&rows);
        let q = QuantizedColumns::encode(t.columns());
        let query = InequalityQuery::new(vec![2.0], Cmp::Leq, 0.0).unwrap();
        let mut f = QuantFilter::new(&query, &q);
        // mag = 2·f64::MAX overflows → the classifier must refuse.
        assert_eq!(f.classify(0, 3), BlockClass::Fallback);
    }

    #[test]
    fn mirror_stays_in_sync_under_mutation() {
        let rows = lcg_rows(100, 2, 10.0, 7);
        let mut t = table_from(&rows);
        t.set_quant_tier(QuantTier::I16);
        t.push_row(&[123.0, -4.0]).unwrap();
        t.update_row(3, &[9.0, 9.0]).unwrap();
        let q = t.quant().unwrap();
        assert_eq!(q.len(), 101);
        assert!((decode(q, 100, 0) - 123.0).abs() <= q.affine(1, 0).1 * 0.51 + 1e-9);
        assert!((decode(q, 3, 1) - 9.0).abs() <= q.affine(0, 1).1 * 0.51 + 1e-9);
    }

    #[test]
    fn outward_rounding_helpers() {
        for x in [0.0f64, 1.0, -1.0, 1e-40, 1e40, 0.1, -0.1, 3.9e38, -3.9e38] {
            assert!(f64::from(f32_at_most(x)) <= x);
            assert!(f64::from(f32_at_least(x)) >= x);
            assert!(f64::from(f32_strictly_below(x)) < x || x == f64::from(f32::NEG_INFINITY));
            assert!(f64::from(f32_strictly_above(x)) > x || x == f64::from(f32::INFINITY));
        }
    }

    #[test]
    fn retune_policy_transitions() {
        // The tier is a function of the row count alone.
        for (rows, tier) in [
            (0, QuantTier::Off),
            (100, QuantTier::Off),
            (QUANT_MIN_ROWS - 1, QuantTier::Off),
            (QUANT_MIN_ROWS, QuantTier::I16),
            (1_000_000, QuantTier::I16),
        ] {
            assert_eq!(tier_for_rows(rows), tier, "{rows} rows");
        }
        assert_eq!(QuantTier::Off.kernel_name(), "off");
        assert!(QuantTier::I16.kernel_name().ends_with("-i16"));
    }
}
