//! The quantized columnar filter tier: fixed-point codec over
//! [`ColumnMajorRows`] blocks, the sound three-way candidate classifier
//! built on `planar_geom::quant`, and the per-shard workload autotuner.
//!
//! The tier serves both of the paper's algorithms: Algorithm 1 and the
//! intermediate interval of Algorithm 2 (top-k) verify their candidates
//! through the same blocked call (`parallel::verify_mask`), and both report
//! the filter's work as a [`QuantFilterStats`] that feeds the autotuner.
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
//! with `code` an `i8` in `[-127, 127]` or an `i16` in `[-32767, 32767]`.
//! `offset` is the midpoint and `scale` the half-range of the block's
//! values in that dimension divided by the code magnitude, so rounding to
//! the nearest code bounds the per-element decode error by `scale/2` with
//! no clamping in the common case. A block whose statistics cannot be
//! encoded soundly (overflowing magnitudes) is flagged for full-precision
//! fallback instead — the tier *never* guesses.
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
//! The whole bound is multiplied by the tier's `slack ≥ 1` (a pure
//! widening — slack can only move lanes from accept/reject into the
//! re-verify band, so it trades filter sharpness for margin, never
//! soundness). Thresholds are rounded *outward* when folded to `f32`, so
//! a lane classified accept/reject provably agrees with the `f64` path;
//! everything else is re-verified exactly. `PLANAR_FORCE_PORTABLE`
//! flips both the `f64` and quantized kernels to their scalar twins, and
//! the twins are bit-identical, so verdicts are host-independent.
//!
//! ## Autotuner policy
//!
//! [`QuantTuner`] accumulates relaxed atomic counters from `&self` query
//! paths (classified lanes, accepts, rejects, re-verifies, fallbacks).
//! [`retune`] turns an observation window into a [`QuantPolicy`]:
//!
//! * tables under `min_rows` stay `Off` (the tier's prep cost cannot
//!   amortize);
//! * a fresh table starts at `I16` (conservative: wide codes, narrow
//!   band);
//! * a re-verify band wider than `demote_band` demotes `I8 → I16`; wider
//!   than `disable_band` demotes `I16 → Off` (recorded so the tier stays
//!   off until the next compaction re-evaluates the data);
//! * a band tighter than `promote_band` promotes `I16 → I8`;
//! * a very tight band also widens `slack` toward `max_slack` — free
//!   robustness margin when the workload never grazes its thresholds.
//!
//! [`crate::PlanarIndexSet::retune_quantization`] applies the policy per
//! set, and each shard of a [`crate::ShardedIndexSet`] tunes
//! independently on `compact()`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use planar_geom::quant::{
    classify_block_i16, classify_block_i8, quant_kernel_name, QMAX_I16, QMAX_I8,
};
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
    /// 8-bit codes: 8x smaller than `f64`, widest error band.
    I8,
    /// 16-bit codes: 4x smaller than `f64`, band ~256x tighter than `I8`.
    I16,
}

impl QuantTier {
    /// Stable one-byte tag for snapshot persistence.
    pub fn tag(self) -> u8 {
        match self {
            QuantTier::Off => 0,
            QuantTier::I8 => 1,
            QuantTier::I16 => 2,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(QuantTier::Off),
            1 => Some(QuantTier::I8),
            2 => Some(QuantTier::I16),
            _ => None,
        }
    }

    /// Name of the kernel serving this tier (for provenance stamping).
    pub fn kernel_name(self) -> &'static str {
        match self {
            QuantTier::Off => "off",
            QuantTier::I8 => quant_kernel_name(false),
            QuantTier::I16 => quant_kernel_name(true),
        }
    }
}

/// A tier choice plus its error-bound slack, as picked by [`retune`] or
/// set explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantPolicy {
    /// The code width (or `Off`).
    pub tier: QuantTier,
    /// Error-bound widening factor, clamped to `≥ 1.0` (values below 1
    /// would be unsound and are refused by the codec).
    pub slack: f64,
}

impl QuantPolicy {
    /// The tier disabled.
    pub fn off() -> Self {
        QuantPolicy {
            tier: QuantTier::Off,
            slack: 1.0,
        }
    }

    /// `tier` at the default slack of 1.0.
    pub fn tier(tier: QuantTier) -> Self {
        QuantPolicy { tier, slack: 1.0 }
    }
}

/// Code storage for one tier width.
#[derive(Debug, Clone, PartialEq)]
enum Codes {
    I8(Vec<i8>),
    I16(Vec<i16>),
}

impl Codes {
    fn qmax(&self) -> i32 {
        match self {
            Codes::I8(_) => QMAX_I8,
            Codes::I16(_) => QMAX_I16,
        }
    }

    fn resize(&mut self, len: usize) {
        match self {
            Codes::I8(v) => v.resize(len, 0),
            Codes::I16(v) => v.resize(len, 0),
        }
    }

    fn heap_size(&self) -> usize {
        match self {
            Codes::I8(v) => v.capacity(),
            Codes::I16(v) => v.capacity() * 2,
        }
    }
}

/// The quantized mirror of a [`ColumnMajorRows`]: per-block fixed-point
/// codes plus per-`(block, dim)` affine decode parameters, maintained
/// incrementally alongside the `f64` blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedColumns {
    dim: usize,
    len: usize,
    slack: f64,
    codes: Codes,
    /// Per `(block, dim)`: decode scale (`0` for a constant dimension).
    scales: Vec<f64>,
    /// Per `(block, dim)`: decode offset (the block's per-dim midpoint).
    offsets: Vec<f64>,
    /// Per block: `true` when the block could not be encoded soundly and
    /// must always take the full-precision path.
    fallback: Vec<bool>,
}

impl QuantizedColumns {
    /// Encode the whole columnar mirror at `tier` (`I8` or `I16`) with the
    /// given error-bound slack (clamped to ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `tier` is `Off` — an absent mirror is represented by
    /// `Option::None`, not by an empty codec.
    pub fn encode(cols: &ColumnMajorRows, tier: QuantTier, slack: f64) -> Self {
        let codes = match tier {
            QuantTier::I8 => Codes::I8(Vec::new()),
            QuantTier::I16 => Codes::I16(Vec::new()),
            QuantTier::Off => panic!("QuantizedColumns::encode called with QuantTier::Off"),
        };
        let mut q = QuantizedColumns {
            dim: cols.dim(),
            len: 0,
            slack: slack.max(1.0),
            codes,
            scales: Vec::new(),
            offsets: Vec::new(),
            fallback: Vec::new(),
        };
        q.sync(cols);
        q
    }

    /// The tier this mirror encodes.
    pub fn tier(&self) -> QuantTier {
        match self.codes {
            Codes::I8(_) => QuantTier::I8,
            Codes::I16(_) => QuantTier::I16,
        }
    }

    /// The error-bound slack (≥ 1) applied during classification.
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// Rows currently encoded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are encoded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i8` code plane (blocks × dim × [`BLOCK_ROWS`], interleaved
    /// like the `f64` blocks), when this is an `I8` mirror.
    pub fn codes_i8(&self) -> Option<&[i8]> {
        match &self.codes {
            Codes::I8(v) => Some(v),
            Codes::I16(_) => None,
        }
    }

    /// The `i16` code plane, when this is an `I16` mirror.
    pub fn codes_i16(&self) -> Option<&[i16]> {
        match &self.codes {
            Codes::I16(v) => Some(v),
            Codes::I8(_) => None,
        }
    }

    /// Per-`(block, dim)` decode scales.
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Per-`(block, dim)` decode offsets.
    pub fn offsets(&self) -> &[f64] {
        &self.offsets
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
        let blocks = new_len.div_ceil(BLOCK_ROWS);
        self.codes.resize(blocks * self.dim * BLOCK_ROWS);
        self.scales.resize(blocks * self.dim, 0.0);
        self.offsets.resize(blocks * self.dim, 0.0);
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

    /// Re-derive scales, offsets, and codes of block `b` from the `f64`
    /// mirror. `O(dim · BLOCK_ROWS)`.
    fn reencode_block(&mut self, cols: &ColumnMajorRows, b: usize) {
        let dim = self.dim;
        let from = (b * BLOCK_ROWS) as PointId;
        let to = cols.len().min((b + 1) * BLOCK_ROWS) as PointId;
        let Some(seg) = cols.segments(from, to).next() else {
            return;
        };
        debug_assert_eq!(seg.lanes, (to - from) as usize);
        let stride = cols.stride();
        let qmax = self.codes.qmax();
        let qmax_f = f64::from(qmax);
        let mut sound = true;
        for j in 0..dim {
            let col = &seg.cols[j * stride..j * stride + seg.lanes];
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in col {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            // Midpoint/half-range via halves so ±huge endpoints cannot
            // overflow to ±inf.
            let offset = 0.5 * lo + 0.5 * hi;
            let half = 0.5 * hi - 0.5 * lo;
            let scale = if half > 0.0 { half / qmax_f } else { 0.0 };
            // The decoded range must stay finite: |offset| + scale·qmax can
            // round past f64::MAX for max-magnitude blocks even though every
            // source value is finite.
            if !offset.is_finite()
                || !scale.is_finite()
                || !(offset.abs() + scale * qmax_f).is_finite()
            {
                sound = false;
            }
            self.scales[b * dim + j] = scale;
            self.offsets[b * dim + j] = offset;
            let base = b * dim * BLOCK_ROWS + j * BLOCK_ROWS;
            match &mut self.codes {
                Codes::I8(v) => encode_col(col, offset, scale, qmax, &mut v[base..]),
                Codes::I16(v) => encode_col(col, offset, scale, qmax, &mut v[base..]),
            }
        }
        self.fallback[b] = !sound;
    }
}

impl HeapSize for QuantizedColumns {
    fn heap_size(&self) -> usize {
        self.codes.heap_size()
            + self.scales.capacity() * 8
            + self.offsets.capacity() * 8
            + self.fallback.capacity()
    }
}

/// Quantize one dimension's lane column into `out[..col.len()]`
/// (zero-padding beyond is left untouched — callers pre-zero on resize).
fn encode_col<T: TryFrom<i32> + Default + Copy>(
    col: &[f64],
    offset: f64,
    scale: f64,
    qmax: i32,
    out: &mut [T],
) {
    if scale <= 0.0 || !scale.is_finite() {
        for o in &mut out[..col.len()] {
            *o = T::default();
        }
        return;
    }
    for (o, &v) in out.iter_mut().zip(col) {
        let q = ((v - offset) / scale).round();
        // The quotient is within ±qmax up to rounding slop; clamp keeps
        // the cast infallible and the decode error within the bound.
        let q = (q.clamp(-f64::from(qmax), f64::from(qmax))) as i32;
        *o = T::try_from(q).unwrap_or_default();
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
/// [`QuantFilter::box_class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BoxClass {
    /// Every row of the block satisfies the predicate.
    Accept,
    /// No row of the block satisfies it.
    Reject,
    /// The box straddles the hyperplane (or the block cannot be folded):
    /// its rows need a per-lane verdict.
    Mixed,
}

/// One block's fold of the query: `bias = Σⱼ aⱼ·oⱼ − b`, the error bound
/// `E`, and `reach = Σ|aⱼ|sⱼ·qmax + E`, so `⟨a, x⟩ − b` lies in
/// `bias ± reach` over the block's box. The lane classifier's weights (in
/// [`QuantFilter::w`]) and outward-rounded `f32` thresholds are derived from
/// it on first use.
#[derive(Debug, Clone, Copy)]
struct Fold {
    bias: f64,
    e: f64,
    reach: f64,
    thresholds: Option<(f32, f32)>,
}

/// Per-query classification driver: folds the query into per-block `f32`
/// weights and outward-rounded thresholds, then dispatches the fused
/// kernels. Create once per (query, table) pair. The last fold is kept, so
/// a block settled by [`Self::box_class`] and then classified lane by lane
/// folds once; a block its box settles never computes weights.
pub(crate) struct QuantFilter<'a> {
    q: &'a QuantizedColumns,
    a: &'a [f64],
    b: f64,
    leq: bool,
    /// Scratch: per-dimension `f32` weights for the last block classified.
    w: Vec<f32>,
    /// The last block folded; `None` inside when the fold was unsafe.
    last: Option<(usize, Option<Fold>)>,
}

impl<'a> QuantFilter<'a> {
    pub(crate) fn new(query: &'a InequalityQuery, q: &'a QuantizedColumns) -> Self {
        QuantFilter {
            q,
            a: query.a(),
            b: query.b(),
            leq: query.cmp() == Cmp::Leq,
            w: vec![0.0; query.a().len()],
            last: None,
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
        let (below, above) = match &self.q.codes {
            Codes::I8(v) => classify_block_i8(&self.w, &v[base..], BLOCK_ROWS, lanes, t_lo, t_hi),
            Codes::I16(v) => classify_block_i16(&self.w, &v[base..], BLOCK_ROWS, lanes, t_lo, t_hi),
        };
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

    /// Settle block `block` as a whole from its box, before any code is
    /// read. Every coordinate of the block lies within
    /// `offset ± scale·(qmax + ½)` (the codec's decode error is at most
    /// half a scale), so `⟨a, x⟩ − b` lies within
    /// `bias ± (Σ|aⱼ|sⱼ·qmax + E)` — the same `bias`, `Σ|aⱼ|sⱼ` and error
    /// bound `E` the lane classifier uses, whose quantization term covers
    /// the half scale and whose `f64` term covers the rounding of the exact
    /// dot (see the module docs). Fallback blocks and unsafe folds are
    /// `Mixed`.
    pub(crate) fn box_class(&mut self, block: usize) -> BoxClass {
        let Some(fold) = self.folded(block) else {
            return BoxClass::Mixed;
        };
        let (lo, hi) = (fold.bias - fold.reach, fold.bias + fold.reach);
        let (all_in, all_out) = if self.leq {
            (hi < 0.0, lo > 0.0)
        } else {
            (lo > 0.0, hi < 0.0)
        };
        if all_in {
            BoxClass::Accept
        } else if all_out {
            BoxClass::Reject
        } else {
            BoxClass::Mixed
        }
    }

    /// The fold of `block`, reusing the last one when it is the same block.
    fn folded(&mut self, block: usize) -> Option<Fold> {
        match self.last {
            Some((b, fold)) if b == block => fold,
            _ => {
                let fold = if self.q.fallback[block] {
                    None
                } else {
                    self.fold(block)
                };
                self.last = Some((block, fold));
                fold
            }
        }
    }

    /// The classifier thresholds of `block`, with `self.w` holding its
    /// weights. `None` when the block must take the exact path.
    fn thresholds(&mut self, block: usize) -> Option<(f32, f32)> {
        let mut fold = self.folded(block)?;
        if let Some(t) = fold.thresholds {
            return Some(t);
        }
        let dim = self.a.len();
        let scales = &self.q.scales[block * dim..(block + 1) * dim];
        for ((w, &aj), &sj) in self.w.iter_mut().zip(self.a).zip(scales) {
            *w = (aj * sj) as f32;
        }
        // Outward-rounded f32 thresholds. `below` lanes have D ≤ t_lo,
        // `above` lanes have D ≥ t_hi; meaning depends on direction.
        let (e, bias) = (fold.e, fold.bias);
        let t = if self.leq {
            // accept ⇐ D ≤ −E − bias; reject ⇐ D > E − bias.
            (f32_at_most(-e - bias), f32_strictly_above(e - bias))
        } else {
            // reject ⇐ D < −E − bias; accept ⇐ D ≥ E − bias.
            (f32_strictly_below(-e - bias), f32_at_least(e - bias))
        };
        fold.thresholds = Some(t);
        self.last = Some((block, Some(fold)));
        Some(t)
    }

    /// Fold the query into `block`'s decode: `bias`, the error bound and
    /// the box reach, or `None` when the fold is numerically unsafe (the
    /// caller must take the exact path).
    fn fold(&self, block: usize) -> Option<Fold> {
        let dim = self.a.len();
        let scales = &self.q.scales[block * dim..(block + 1) * dim];
        let offsets = &self.q.offsets[block * dim..(block + 1) * dim];
        let qmax_f = f64::from(self.q.codes.qmax());

        // Fold the query into this block's decode: bias, and the
        // magnitudes the error bound is built from.
        let mut s_sum = 0.0f64;
        let mut bias = -self.b;
        let mut mag = self.b.abs();
        for j in 0..dim {
            let aj = self.a[j];
            let sj = scales[j];
            let oj = offsets[j];
            s_sum += aj.abs() * sj;
            bias += aj * oj;
            mag += aj.abs() * (oj.abs() + sj * qmax_f);
        }
        // f32 overflow guard: with Σ|w|·qmax below this, no partial sum
        // can leave the finite f32 range, so D is always finite.
        if !bias.is_finite() || !mag.is_finite() || s_sum * qmax_f >= 1e36 {
            return None;
        }
        let d_f = dim as f64;
        let e = self.q.slack
            * (0.5 * s_sum * (1.0 + 1e-6)
                + (d_f + 6.0) * 2f64.powi(-23) * s_sum * qmax_f
                + (d_f + 6.0) * 2f64.powi(-51) * mag
                + (d_f + 4.0) * qmax_f * f64::from(f32::MIN_POSITIVE));
        if !e.is_finite() {
            return None;
        }
        // |D| ≤ Σ|aⱼ|sⱼ·qmax for every code in the block; E's f32-kernel
        // term (no f32 arithmetic happens on this path) covers the f64
        // rounding of these sums many times over.
        Some(Fold {
            bias,
            e,
            reach: s_sum * qmax_f + e,
            thresholds: None,
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

// ---------------------------------------------------------------------------
// Autotuner
// ---------------------------------------------------------------------------

/// Relaxed atomic workload counters feeding [`retune`]. Owned by each
/// [`crate::PlanarIndexSet`]; recorded from `&self` query paths.
#[derive(Debug, Default)]
pub struct QuantTuner {
    queries: AtomicU64,
    lanes: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    reverified: AtomicU64,
    fallback: AtomicU64,
    /// Set when [`retune`] disabled the tier for band width; cleared on
    /// compaction so the data change re-earns a trial.
    demoted: AtomicBool,
}

impl Clone for QuantTuner {
    fn clone(&self) -> Self {
        QuantTuner {
            queries: AtomicU64::new(self.queries.load(Ordering::Relaxed)),
            lanes: AtomicU64::new(self.lanes.load(Ordering::Relaxed)),
            accepted: AtomicU64::new(self.accepted.load(Ordering::Relaxed)),
            rejected: AtomicU64::new(self.rejected.load(Ordering::Relaxed)),
            reverified: AtomicU64::new(self.reverified.load(Ordering::Relaxed)),
            fallback: AtomicU64::new(self.fallback.load(Ordering::Relaxed)),
            demoted: AtomicBool::new(self.demoted.load(Ordering::Relaxed)),
        }
    }
}

impl QuantTuner {
    /// Record one query's filter outcome.
    pub fn observe(&self, stats: &QuantFilterStats) {
        if stats.tier == QuantTier::Off {
            return;
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.lanes.fetch_add(stats.lanes as u64, Ordering::Relaxed);
        self.accepted
            .fetch_add(stats.accepted as u64, Ordering::Relaxed);
        self.rejected
            .fetch_add(stats.rejected as u64, Ordering::Relaxed);
        self.reverified
            .fetch_add(stats.reverified as u64, Ordering::Relaxed);
        self.fallback
            .fetch_add(stats.fallback as u64, Ordering::Relaxed);
    }

    /// Snapshot the window for [`retune`].
    pub fn observations(&self) -> QuantObservations {
        QuantObservations {
            queries: self.queries.load(Ordering::Relaxed),
            lanes: self.lanes.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            reverified: self.reverified.load(Ordering::Relaxed),
            fallback: self.fallback.load(Ordering::Relaxed),
            demoted: self.demoted.load(Ordering::Relaxed),
        }
    }

    /// Overwrite this window's counters with `other`'s (the demotion flag
    /// is untouched — only the owner retunes, so it stays authoritative).
    ///
    /// Concurrency support: epoch-published clones of an index set carry
    /// their own tuner copy, and reader queries accumulate on that copy
    /// while the staged writer set sees nothing. Adopting the published
    /// clone's counters right before a retune folds those observations
    /// back in. Counters only grow between publishes, so a plain copy
    /// (not a sum) is the lossless merge.
    pub fn adopt(&self, other: &QuantTuner) {
        self.queries
            .store(other.queries.load(Ordering::Relaxed), Ordering::Relaxed);
        self.lanes
            .store(other.lanes.load(Ordering::Relaxed), Ordering::Relaxed);
        self.accepted
            .store(other.accepted.load(Ordering::Relaxed), Ordering::Relaxed);
        self.rejected
            .store(other.rejected.load(Ordering::Relaxed), Ordering::Relaxed);
        self.reverified
            .store(other.reverified.load(Ordering::Relaxed), Ordering::Relaxed);
        self.fallback
            .store(other.fallback.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Reset the observation window (after a retune applied).
    pub fn reset_window(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.lanes.store(0, Ordering::Relaxed);
        self.accepted.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.reverified.store(0, Ordering::Relaxed);
        self.fallback.store(0, Ordering::Relaxed);
    }

    /// Record that the tuner disabled the tier.
    pub fn mark_demoted(&self) {
        self.demoted.store(true, Ordering::Relaxed);
    }

    /// The data changed (compaction): let the tier re-earn a trial.
    pub fn clear_demotion(&self) {
        self.demoted.store(false, Ordering::Relaxed);
    }
}

/// A point-in-time read of a [`QuantTuner`] window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantObservations {
    /// Queries that used the quantized filter.
    pub queries: u64,
    /// Lanes classified.
    pub lanes: u64,
    /// Lanes proven satisfying.
    pub accepted: u64,
    /// Lanes proven failing.
    pub rejected: u64,
    /// Lanes re-verified exactly.
    pub reverified: u64,
    /// Lanes through the full-precision fallback.
    pub fallback: u64,
    /// Whether the tuner previously disabled the tier.
    pub demoted: bool,
}

impl QuantObservations {
    /// Fraction of classified lanes that needed full precision anyway.
    pub fn band_rate(&self) -> f64 {
        if self.lanes == 0 {
            0.0
        } else {
            (self.reverified + self.fallback) as f64 / self.lanes as f64
        }
    }
}

/// Autotuner thresholds. Defaults fit the benched synthetic and paper
/// workloads; see DESIGN.md §15 for the derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantAutotuneConfig {
    /// Tables smaller than this stay `Off` (prep cost cannot amortize and
    /// the whole table is cache-resident anyway).
    pub min_rows: usize,
    /// Classified lanes required before the tuner trusts the window.
    pub min_lanes: u64,
    /// Band rate above which `I8` demotes to `I16`.
    pub demote_band: f64,
    /// Band rate above which `I16` demotes to `Off`.
    pub disable_band: f64,
    /// Band rate below which `I16` promotes to `I8`.
    pub promote_band: f64,
    /// Band rate below which slack is widened (extra robustness margin).
    pub widen_band: f64,
    /// Upper bound for tuner-chosen slack.
    pub max_slack: f64,
}

impl Default for QuantAutotuneConfig {
    fn default() -> Self {
        QuantAutotuneConfig {
            min_rows: 4096,
            min_lanes: 10_000,
            demote_band: 0.35,
            disable_band: 0.60,
            promote_band: 0.08,
            widen_band: 0.01,
            max_slack: 4.0,
        }
    }
}

/// Pure tuner policy: next `QuantPolicy` from the current tier, table
/// size, and an observation window. Deterministic and side-effect free so
/// the policy is unit-testable; callers apply the result and manage the
/// window.
pub fn retune(
    current: QuantPolicy,
    n_rows: usize,
    obs: &QuantObservations,
    cfg: &QuantAutotuneConfig,
) -> QuantPolicy {
    if n_rows < cfg.min_rows {
        return QuantPolicy::off();
    }
    if current.tier == QuantTier::Off {
        // Earn a trial at the conservative width — unless the tuner
        // itself demoted to Off and the data hasn't changed since.
        return if obs.demoted {
            QuantPolicy::off()
        } else {
            QuantPolicy::tier(QuantTier::I16)
        };
    }
    if obs.lanes < cfg.min_lanes {
        return current; // window too small to act on
    }
    let band = obs.band_rate();
    let tier = match current.tier {
        QuantTier::I8 if band > cfg.demote_band => QuantTier::I16,
        QuantTier::I16 if band > cfg.disable_band => QuantTier::Off,
        QuantTier::I16 if band < cfg.promote_band => QuantTier::I8,
        t => t,
    };
    if tier == QuantTier::Off {
        return QuantPolicy::off();
    }
    // Slack: widen when the workload never grazes the thresholds (free
    // margin), tighten back to 1 otherwise. Changing tier resets to 1.
    let slack = if tier == current.tier && band < cfg.widen_band {
        (current.slack * 2.0).clamp(1.0, cfg.max_slack)
    } else {
        1.0
    };
    QuantPolicy { tier, slack }
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
        let dim = q.scales.len() / q.fallback.len();
        let s = q.scales[b * dim + j];
        let o = q.offsets[b * dim + j];
        let idx = b * dim * BLOCK_ROWS + j * BLOCK_ROWS + l;
        let code = match &q.codes {
            Codes::I8(v) => f64::from(v[idx]),
            Codes::I16(v) => f64::from(v[idx]),
        };
        o + s * code
    }

    #[test]
    fn codec_error_is_within_half_scale() {
        for tier in [QuantTier::I8, QuantTier::I16] {
            for scale in [1e-12, 1.0, 1e6, 1e300] {
                let rows = lcg_rows(150, 3, scale, 42);
                let t = table_from(&rows);
                let q = QuantizedColumns::encode(t.columns(), tier, 1.0);
                assert_eq!(q.len(), 150);
                assert_eq!(q.fallback_blocks(), 0, "scale {scale}");
                let dim = 3;
                for (r, row) in rows.iter().enumerate() {
                    for (j, &x) in row.iter().enumerate().take(dim) {
                        let s = q.scales[(r / BLOCK_ROWS) * dim + j];
                        let err = (decode(&q, r, j) - x).abs();
                        assert!(
                            err <= 0.5 * s * (1.0 + 1e-6) || err == 0.0,
                            "tier {tier:?} scale {scale} row {r} dim {j}: err {err}, s {s}"
                        );
                    }
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
        for tier in [QuantTier::I8, QuantTier::I16] {
            let q = QuantizedColumns::encode(t.columns(), tier, 1.0);
            assert_eq!(q.fallback_blocks(), 0);
            // Constant dimension decodes exactly.
            for r in 0..rows.len() {
                assert_eq!(decode(&q, r, 1), 5.0);
            }
            // Denormal dimension stays within half a (subnormal) scale.
            let s = q.scales[0];
            for (r, row) in rows.iter().enumerate() {
                assert!((decode(&q, r, 0) - row[0]).abs() <= 0.75 * s.max(f64::MIN_POSITIVE));
            }
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
        let q = QuantizedColumns::encode(t.columns(), QuantTier::I16, 1.0);
        assert_eq!(q.fallback_blocks(), 1);
        // Large-but-representable magnitudes still encode normally.
        let rows = vec![vec![1e300], vec![-1e300], vec![0.0]];
        let t = table_from(&rows);
        let q = QuantizedColumns::encode(t.columns(), QuantTier::I16, 1.0);
        assert_eq!(q.fallback_blocks(), 0);
        for (r, row) in rows.iter().enumerate() {
            let s = q.scales[0];
            assert!((decode(&q, r, 0) - row[0]).abs() <= 0.5 * s * (1.0 + 1e-6));
        }
    }

    #[test]
    fn filter_verdicts_are_sound_vs_exact_path() {
        for tier in [QuantTier::I8, QuantTier::I16] {
            for (dim, scale) in [(1, 1.0), (4, 100.0), (7, 1e-6), (8, 1e8)] {
                let rows = lcg_rows(200, dim, scale, dim as u64 * 31);
                let t = table_from(&rows);
                let q = QuantizedColumns::encode(t.columns(), tier, 1.0);
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
                                        assert!(exact, "tier {tier:?} {cmp:?} accept lane {id}");
                                    }
                                    if reject >> l & 1 == 1 {
                                        classified += 1;
                                        assert!(!exact, "tier {tier:?} {cmp:?} reject lane {id}");
                                    }
                                }
                            }
                        }
                    }
                    // The filter must actually classify most lanes for a
                    // mid-distribution threshold (else it is useless).
                    assert!(
                        classified > 100,
                        "tier {tier:?} {cmp:?} dim {dim} classified only {classified}"
                    );
                }
            }
        }
    }

    #[test]
    fn filter_huge_magnitudes_fall_back() {
        let rows = vec![vec![f64::MAX], vec![-f64::MAX], vec![0.0]];
        let t = table_from(&rows);
        let q = QuantizedColumns::encode(t.columns(), QuantTier::I8, 1.0);
        let query = InequalityQuery::new(vec![2.0], Cmp::Leq, 0.0).unwrap();
        let mut f = QuantFilter::new(&query, &q);
        // mag = 2·f64::MAX overflows → the classifier must refuse.
        assert_eq!(f.classify(0, 3), BlockClass::Fallback);
    }

    #[test]
    fn mirror_stays_in_sync_under_mutation() {
        let rows = lcg_rows(100, 2, 10.0, 7);
        let mut t = table_from(&rows);
        t.set_quant_policy(QuantPolicy::tier(QuantTier::I16));
        t.push_row(&[123.0, -4.0]).unwrap();
        t.update_row(3, &[9.0, 9.0]).unwrap();
        let q = t.quant().unwrap();
        assert_eq!(q.len(), 101);
        assert!((decode(q, 100, 0) - 123.0).abs() <= q.scales()[2] * 0.51 + 1e-9);
        assert!((decode(q, 3, 1) - 9.0).abs() <= q.scales()[1] * 0.51 + 1e-9);
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
        let cfg = QuantAutotuneConfig::default();
        let obs0 = QuantObservations::default();
        // Small tables stay off.
        assert_eq!(
            retune(QuantPolicy::tier(QuantTier::I8), 100, &obs0, &cfg),
            QuantPolicy::off()
        );
        // Fresh large tables earn an I16 trial.
        assert_eq!(
            retune(QuantPolicy::off(), 100_000, &obs0, &cfg).tier,
            QuantTier::I16
        );
        // …but not after a tuner demotion.
        let demoted = QuantObservations {
            demoted: true,
            ..obs0
        };
        assert_eq!(
            retune(QuantPolicy::off(), 100_000, &demoted, &cfg).tier,
            QuantTier::Off
        );
        // Tight band promotes I16 → I8.
        let tight = QuantObservations {
            lanes: 100_000,
            accepted: 60_000,
            rejected: 39_500,
            reverified: 500,
            ..obs0
        };
        assert_eq!(
            retune(QuantPolicy::tier(QuantTier::I16), 100_000, &tight, &cfg).tier,
            QuantTier::I8
        );
        // Wide band demotes I8 → I16 → Off.
        let wide = QuantObservations {
            lanes: 100_000,
            accepted: 20_000,
            rejected: 10_000,
            reverified: 70_000,
            ..obs0
        };
        assert_eq!(
            retune(QuantPolicy::tier(QuantTier::I8), 100_000, &wide, &cfg).tier,
            QuantTier::I16
        );
        assert_eq!(
            retune(QuantPolicy::tier(QuantTier::I16), 100_000, &wide, &cfg).tier,
            QuantTier::Off
        );
        // Near-zero band widens slack, capped.
        let calm = QuantObservations {
            lanes: 1_000_000,
            accepted: 999_900,
            rejected: 50,
            reverified: 50,
            ..obs0
        };
        let p = retune(QuantPolicy::tier(QuantTier::I8), 100_000, &calm, &cfg);
        assert_eq!(p.tier, QuantTier::I8);
        assert!(p.slack > 1.0 && p.slack <= cfg.max_slack);
        // Small windows keep the current policy.
        let tiny = QuantObservations { lanes: 10, ..obs0 };
        let cur = QuantPolicy {
            tier: QuantTier::I8,
            slack: 2.0,
        };
        assert_eq!(retune(cur, 100_000, &tiny, &cfg), cur);
    }

    #[test]
    fn tuner_counters_accumulate_and_reset() {
        let tuner = QuantTuner::default();
        tuner.observe(&QuantFilterStats {
            lanes: 100,
            accepted: 60,
            rejected: 30,
            reverified: 8,
            fallback: 2,
            tier: QuantTier::I8,
            ..QuantFilterStats::default()
        });
        tuner.observe(&QuantFilterStats::default()); // Off: ignored
        let obs = tuner.observations();
        assert_eq!(obs.queries, 1);
        assert_eq!(obs.lanes, 100);
        assert!((obs.band_rate() - 0.1).abs() < 1e-12);
        tuner.reset_window();
        assert_eq!(tuner.observations().lanes, 0);
    }
}
