//! One Planar index (paper §4): the data points sorted by `⟨c, φ(x)⟩` for a
//! single normal `c`, plus the interval-based query algorithms.
//!
//! ## Normalized vs raw space
//!
//! The interval machinery assumes the first hyper-octant: positive query
//! coefficients and non-negative data coordinates. General octants are
//! handled by `planar_geom::Normalizer` (translation §4.5 + reflection).
//! Crucially, the normalized key decomposes as
//! `⟨c, φ''(x)⟩ = ⟨c_raw, φ(x)⟩ + shift`, so this index is ordered by
//! **raw-space keys** and applies the (query-time) `shift` to thresholds
//! instead. Data updates that grow the translation deltas therefore never
//! change the order.
//!
//! ## Implicit keys
//!
//! The index stores only point ids, in key order. A key is a function of
//! a row the table already holds, so it is computed whenever it is needed
//! (see `row_key`): `⌈log₂ n⌉` rows per boundary bisection, one per step of
//! the Algorithm 2 walk (which reads that row for its distance anyway),
//! and none for the intermediate interval, whose ids go straight into the
//! candidate bitmap.
//!
//! ## Interval boundaries
//!
//! For a normalized query `(a, b)` the per-axis thresholds are
//! `tᵢ = cᵢ·b/aᵢ`; with `t_min = min tᵢ` and `t_max = max tᵢ`:
//!
//! * keys ≤ `t_min` form the **smaller interval** — they provably satisfy
//!   `⟨a, φ⟩ ≤ b` (paper Observation 2);
//! * keys > `t_max` form the **larger interval** — they provably violate it
//!   (Observation 1);
//! * keys in between form the **intermediate interval** and are verified
//!   with one scalar product each (Algorithm 1).
//!
//! A `≥` query swaps the roles of acceptance and rejection; boundary keys
//! (`= t_min`) are routed into the intermediate interval so that points
//! exactly on the query hyperplane are still verified exactly. A small
//! relative epsilon additionally widens the intermediate interval to absorb
//! floating-point rounding between keys and computed thresholds —
//! widening is always sound because the intermediate interval is verified
//! exactly in raw space.

use crate::parallel::{self, QueryScratch};
use crate::quant::QuantFilterStats;
use crate::query::{Cmp, InequalityQuery, TopKQuery};
use crate::scan::TopKBuffer;
use crate::stats::{ExecutionPath, QueryStats};
use crate::store::{canon, KeyStore, VecStore};
use crate::table::{FeatureTable, PointId};
use crate::{HeapSize, PlanarError, Result};
use planar_geom::{dot_slices, NormalizedQuery, Normalizer};

/// Relative slack applied to interval boundaries so that float rounding in
/// key/threshold computation can never misclassify a boundary point into a
/// pruned interval. See the module docs — widening the verified interval is
/// always sound.
const BOUNDARY_EPS: f64 = 1e-9;

/// What filling the candidate bitmaps costs per row marked, in lanes of
/// the box-mixed blocks' whole-block verification. A fill reads each
/// interval id's slot (a random `slot_of` read), sets a scattered bit, and
/// leaves sparse candidate masks that send blocks down the per-row path,
/// so a query fills only when it would mark under a quarter of the mixed
/// blocks' live lanes. Measured on the `select_1m` data
/// (EXPERIMENTS.md, "Box-first Algorithm 1"): at 1:1 the index + box path
/// was slower than the box alone at index budgets 16 and 4.
const FILL_LANE_COST: usize = 4;

/// Interval boundaries `(j_min, j_max)` in rank space: ranks `< j_min` are
/// the smaller interval, ranks `≥ j_max` the larger interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalBounds {
    /// Rank of the first intermediate-interval entry.
    pub j_min: usize,
    /// Rank one past the last intermediate-interval entry.
    pub j_max: usize,
}

/// Statistics of one top-k query execution (paper Table 3 reports the
/// fraction of points *checked*).
#[derive(Debug, Clone, PartialEq)]
pub struct TopKStats {
    /// Dataset size.
    pub n: usize,
    /// Intermediate-interval size (all verified).
    pub intermediate: usize,
    /// Points of the accepting interval examined before the lower-bound
    /// pruning of Claim 3 terminated the walk (`k₁` in the paper §6).
    pub walked: usize,
    /// Scalar products computed.
    pub verified: usize,
    /// Always 0: every intermediate-interval candidate is verified. The
    /// field stays for the repository benchmark (`benchmark/src/replay.rs`),
    /// which reports it as `index.intersect_pruned_per_query`.
    pub intersect_pruned: usize,
    /// What the quantized filter did while verifying the intermediate
    /// interval (all zeros when the tier is off).
    pub quant: QuantFilterStats,
}

impl TopKStats {
    /// Total points touched, `|II| + k₁` — the "checked points" column of
    /// paper Table 3.
    pub fn checked(&self) -> usize {
        self.intermediate + self.walked
    }

    /// Checked points as a percentage of the dataset.
    pub fn checked_percentage(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        100.0 * self.checked() as f64 / self.n as f64
    }
}

/// The one key function of every index: the canonical raw-space key
/// `canon(⟨c_raw, φ(x)⟩)` of a feature row. The bulk build, the boundary
/// bisection, point inserts and removes, the Algorithm 2 walk and the
/// health check all compute keys through it, so they agree bit for bit.
#[inline]
fn row_key(raw_normal: &[f64], row: &[f64]) -> f64 {
    canon(dot_slices(raw_normal, row))
}

/// [`row_key`] of an id's current row in `table`.
#[inline]
fn keys<'a>(raw_normal: &'a [f64], table: &'a FeatureTable) -> impl Fn(PointId) -> f64 + Copy + 'a {
    move |id| row_key(raw_normal, table.row(id))
}

/// One Planar index: a normal `c` and the point ids ordered by raw key
/// `⟨c_raw, φ(x)⟩`.
///
/// The index stores ids only; every key is computed from the row in the
/// [`FeatureTable`] the index was built over, which each method that needs
/// keys takes as an argument. The index is correct only while that table's
/// rows are the ones it was ordered by: remove an id
/// ([`Self::remove_point`]) *before* its row changes and insert it
/// ([`Self::insert_point`]) after.
#[derive(Debug, Clone)]
pub struct SingleIndex<S: KeyStore = VecStore> {
    /// The normal in normalized (first-octant) space; strictly positive.
    normal: Vec<f64>,
    /// `c_rawᵢ = cᵢ·sign(O, i)` — the raw-space key normal.
    raw_normal: Vec<f64>,
    store: S,
}

impl<S: KeyStore> SingleIndex<S> {
    /// Build an index over `table` for the (normalized-space, strictly
    /// positive) normal `c`.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] when `normal` does not match the
    /// table dimensionality, [`PlanarError::NotFinite`] on NaN/∞ or
    /// non-positive components.
    pub fn build(table: &FeatureTable, normalizer: &Normalizer, normal: Vec<f64>) -> Result<Self> {
        Self::build_live(table, normalizer, normal, &[])
    }

    /// [`Self::build`] over the rows not marked in `deleted`.
    pub(crate) fn build_live(
        table: &FeatureTable,
        normalizer: &Normalizer,
        normal: Vec<f64>,
        deleted: &[bool],
    ) -> Result<Self> {
        if normal.len() != table.dim() {
            return Err(PlanarError::DimensionMismatch {
                expected: table.dim(),
                found: normal.len(),
            });
        }
        if normal.iter().any(|&v| !v.is_finite() || v <= 0.0) {
            return Err(PlanarError::NotFinite);
        }
        let raw_normal = normalizer.raw_normal(&normal);
        let store = Self::sorted(&raw_normal, table, deleted);
        Ok(Self {
            normal,
            raw_normal,
            store,
        })
    }

    /// The live ids of `table` sorted by `(key, id)`. `O(n log n)`.
    fn sorted(raw_normal: &[f64], table: &FeatureTable, deleted: &[bool]) -> S {
        let live = (0..table.len() as PointId)
            .filter(|&id| !deleted.get(id as usize).copied().unwrap_or(false));
        S::build(live, keys(raw_normal, table))
    }

    /// The index normal `c` (normalized space).
    pub fn normal(&self) -> &[f64] {
        &self.normal
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The indexed ids in ascending `(key, id)` order.
    pub fn ids(&self) -> &[PointId] {
        self.store.ids()
    }

    /// Reassemble from persisted parts; `normal` must be validated by the
    /// caller and `store` already ordered over this index's rows.
    pub(crate) fn from_parts(normal: Vec<f64>, raw_normal: Vec<f64>, store: S) -> Self {
        Self {
            normal,
            raw_normal,
            store,
        }
    }

    /// The canonical key of `id`'s current row in `table`.
    #[inline]
    pub(crate) fn key(&self, table: &FeatureTable, id: PointId) -> f64 {
        row_key(&self.raw_normal, table.row(id))
    }

    /// Discard the id order and rebuild it from the table — every position
    /// is recomputable from the rows and this index's normal, which is
    /// what makes quarantined indices recoverable. `deleted[id]` rows are
    /// skipped. `O(n log n)`.
    pub(crate) fn rebuild_from(&mut self, table: &FeatureTable, deleted: &[bool]) {
        self.store = Self::sorted(&self.raw_normal, table, deleted);
    }

    /// Register a point (paper §4.4 dynamic maintenance) whose row is
    /// already in `table`: `O(d'·log n)` key computations to find its rank,
    /// plus the store's shift.
    pub fn insert_point(&mut self, table: &FeatureTable, id: PointId) {
        self.store.insert(id, keys(&self.raw_normal, table));
    }

    /// Remove a point while `table` still holds the row it was indexed
    /// by; returns whether it was present.
    pub fn remove_point(&mut self, table: &FeatureTable, id: PointId) -> bool {
        self.store.remove(id, keys(&self.raw_normal, table))
    }

    /// Interval boundaries for a normalized query. `shift` is the current
    /// key shift `Σ cᵢ·δᵢ` from the normalizer (see module docs). Each
    /// boundary bisects the id array, computing `⌈log₂ n⌉` keys from rows.
    pub fn boundaries(
        &self,
        nq: &NormalizedQuery,
        shift: f64,
        cmp: Cmp,
        table: &FeatureTable,
    ) -> IntervalBounds {
        let (lo, hi) = self.slack_bounds(nq, shift);
        self.bounds_for(lo, hi, cmp, table)
    }

    /// Ranks of the slacked raw-key thresholds `lo` (smaller interval) and
    /// `hi` (larger interval).
    fn bounds_for(&self, lo: f64, hi: f64, cmp: Cmp, table: &FeatureTable) -> IntervalBounds {
        let key = keys(&self.raw_normal, table);
        let j_min = match cmp {
            // ≤: boundary keys (= t_min) satisfy the query and may stay in
            // the accepted smaller interval.
            Cmp::Leq => self.store.rank_leq(lo, key),
            // ≥: the smaller interval is rejected; keys equal to t_min can
            // lie exactly on the hyperplane, so they must be verified.
            Cmp::Geq => self.store.rank_lt(lo, key),
        };
        let j_max = self.store.rank_leq(hi, key);
        IntervalBounds {
            j_min,
            j_max: j_max.max(j_min),
        }
    }

    /// The slacked raw-key thresholds `(lo, hi)` for a normalized query:
    /// the per-axis threshold extremes widened by the boundary epsilon and
    /// shifted to raw-key space. Keys `≤ lo` are in the smaller interval,
    /// keys `> hi` in the larger.
    fn slack_bounds(&self, nq: &NormalizedQuery, shift: f64) -> (f64, f64) {
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        for (&ci, &ai) in self.normal.iter().zip(&nq.a) {
            let t = ci * nq.b / ai;
            t_min = t_min.min(t);
            t_max = t_max.max(t);
        }
        Self::slacked(t_min, t_max, shift)
    }

    /// Widen the verified interval by a relative epsilon (sound; see module
    /// docs) and move thresholds to raw-key space.
    fn slacked(t_min: f64, t_max: f64, shift: f64) -> (f64, f64) {
        let scale = t_min.abs().max(t_max.abs()).max(shift.abs()).max(1.0);
        let eps = BOUNDARY_EPS * scale;
        (t_min - eps - shift, t_max + eps - shift)
    }

    /// The paper-literal interval computation (Algorithm 1, Eq. 7–8): one
    /// binary search *per axis* for `Small(i)` and `Large(i)`, then
    /// `j_min = min_i Small(i)`, `j_max = max_i Large(i)`.
    ///
    /// Functionally identical to [`Self::boundaries`], which refines the
    /// `O(d'·log n)` search to `O(d' + log n)` by reducing the thresholds
    /// first. Kept for the `ablation-search` benchmark.
    pub fn boundaries_literal(
        &self,
        nq: &NormalizedQuery,
        shift: f64,
        cmp: Cmp,
        table: &FeatureTable,
    ) -> IntervalBounds {
        let mut j_min = usize::MAX;
        let mut j_max = 0usize;
        for (&ci, &ai) in self.normal.iter().zip(&nq.a) {
            let t = ci * nq.b / ai;
            let (lo, hi) = Self::slacked(t, t, shift);
            let b = self.bounds_for(lo, hi, cmp, table);
            j_min = j_min.min(b.j_min);
            j_max = j_max.max(b.j_max);
        }
        if j_min == usize::MAX {
            j_min = 0;
        }
        IntervalBounds {
            j_min,
            j_max: j_max.max(j_min),
        }
    }

    /// Exact intermediate-interval size for a query (used by the
    /// oracle-count selection strategy).
    pub fn ii_size(
        &self,
        nq: &NormalizedQuery,
        shift: f64,
        cmp: Cmp,
        table: &FeatureTable,
    ) -> usize {
        let b = self.boundaries(nq, shift, cmp, table);
        b.j_max - b.j_min
    }

    /// Algorithm 1: answer an inequality query over a table without
    /// tombstones.
    ///
    /// `verify` is the exact raw-space predicate (the original query), `nq`
    /// its normalized form, `index_pos` only labels the stats.
    ///
    /// Convenience wrapper over [`Self::evaluate_with`] with every row live
    /// and throwaway scratch.
    pub fn evaluate(
        &self,
        verify: &InequalityQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
        index_pos: usize,
    ) -> (Vec<PointId>, QueryStats) {
        self.evaluate_with(
            verify,
            nq,
            shift,
            table,
            &crate::multi::live_words(table, &[]),
            index_pos,
            &mut QueryScratch::new(),
        )
    }

    /// [`Self::evaluate`] with the table's live rows (`live`, one word per
    /// block of its slots) and reusable scratch buffers. The query runs on
    /// the calling thread.
    ///
    /// With a quantized tier, and when the fill would mark more rows (the
    /// intermediate plus the accepted interval) than the table has blocks,
    /// one box sweep first settles every block it can (see
    /// `parallel::sweep`). Then one of two candidate sets is verified
    /// block by block (see `parallel::verify_mask`):
    ///
    /// * the live rows of the blocks the box left mixed — unless the fill
    ///   would mark under `1 /` `FILL_LANE_COST` of them, it is skipped
    ///   (`fill_skipped`) and the box decides alone;
    /// * the intermediate interval: its ids go from the id array's
    ///   key-order slice into the candidate bitmap of `scratch` (one word
    ///   per 64-row block), and the accepted interval's ids into the
    ///   proven bitmap beside it. This is the only planner of a table
    ///   without boxes.
    ///
    /// Both give the same answer: the interval's candidates include every
    /// satisfying row the index did not accept outright. Matches come back
    /// in ascending id order, whichever index served the query.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_with(
        &self,
        verify: &InequalityQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
        live: &[u64],
        index_pos: usize,
        scratch: &mut QueryScratch,
    ) -> (Vec<PointId>, QueryStats) {
        let ids = self.store.ids();
        let n = ids.len();
        let IntervalBounds { j_min, j_max } = self.boundaries(nq, shift, verify.cmp(), table);
        let (smaller, intermediate, larger) = (j_min, j_max - j_min, n - j_max);
        let accepted = match verify.cmp() {
            Cmp::Leq => &ids[..j_min],
            Cmp::Geq => &ids[j_max..],
        };

        // The fill marks the interval and the accepted interval.
        let filled = intermediate + accepted.len();
        let mixed_live = parallel::sweep(verify, table, live, 0, filled, &mut scratch.boxes);
        let fill_skipped = mixed_live.is_some_and(|m| filled * FILL_LANE_COST >= m);
        let words = if fill_skipped {
            parallel::BlockWords {
                boxes: &scratch.boxes,
                ..parallel::BlockWords::cand(live, 0)
            }
        } else {
            let range = scratch.fill(table, &ids[j_min..j_max], accepted);
            parallel::BlockWords {
                cand: &scratch.mask[range.clone()],
                accept: &scratch.accept[range.clone()],
                boxes: scratch.boxes.get(range.clone()).unwrap_or(&[]),
                first: range.start,
            }
        };
        let mut matches = Vec::with_capacity(accepted.len() + intermediate.min(n));
        let (quant, verified) =
            parallel::verify_ascending(verify, table, words, &mut scratch.found, &mut matches);

        let stats = QueryStats {
            n,
            smaller,
            intermediate,
            larger,
            verified,
            intersect_pruned: 0,
            matched: matches.len(),
            quant,
            fill_skipped: usize::from(fill_skipped),
            path: ExecutionPath::Index { index: index_pos },
        };
        (matches, stats)
    }

    /// Algorithm 2: the top-k satisfying points nearest the query
    /// hyperplane, with the lower-bound-distance pruning of Claim 3.
    pub fn top_k(
        &self,
        q: &TopKQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
    ) -> (Vec<(PointId, f64)>, TopKStats) {
        self.top_k_inner(q, nq, shift, table, true, &mut QueryScratch::new())
    }

    /// [`Self::top_k`] with reusable scratch buffers. The intermediate
    /// interval is verified exactly as [`Self::evaluate_with`] verifies it
    /// — through the quantized tier when the table has one — so
    /// `stats.quant` reports the same filter counters an inequality query
    /// would. Results are identical for every tier.
    pub fn top_k_with(
        &self,
        q: &TopKQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
        scratch: &mut QueryScratch,
    ) -> (Vec<(PointId, f64)>, TopKStats) {
        self.top_k_inner(q, nq, shift, table, true, scratch)
    }

    /// [`Self::top_k`] with the Claim-3 lower-bound pruning disabled: the
    /// whole accepting interval is walked. Identical answers, no early
    /// termination — the `ablation-topk` benchmark's control arm.
    pub fn top_k_unpruned(
        &self,
        q: &TopKQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
    ) -> (Vec<(PointId, f64)>, TopKStats) {
        self.top_k_inner(q, nq, shift, table, false, &mut QueryScratch::new())
    }

    /// Algorithm 2 body behind every top-k entry point. The II goes into
    /// the scratch's candidate bitmap, a box sweep over the bitmap's word
    /// window settles what blocks it can (`parallel::sweep`), and the rest
    /// goes through Algorithm 1's verification (`parallel::verify_mask`);
    /// the satisfying ids, held in the scratch in slot order, are ranked by
    /// their row's distance.
    /// Then the accepting interval is walked outward from the query
    /// hyperplane until Claim 3's lower bound stops it (`use_pruning =
    /// false` walks it all).
    fn top_k_inner(
        &self,
        q: &TopKQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
        use_pruning: bool,
        scratch: &mut QueryScratch,
    ) -> (Vec<(PointId, f64)>, TopKStats) {
        let ids = self.store.ids();
        let n = ids.len();
        let cmp = q.query.cmp();
        let IntervalBounds { j_min, j_max } = self.boundaries(nq, shift, cmp, table);
        let mut buffer = TopKBuffer::new(q.k);
        let inv_norm = 1.0 / q.query.a_norm();

        // Intermediate interval first (paper Algorithm 2, lines 3–7). The
        // satisfying set equals the exact predicate's (the quantized
        // classifier is sound and its band is re-verified in f64), and the
        // buffer's total (dist, id) order makes its contents independent of
        // arrival order, so this matches the key-order walk exactly.
        let candidates = j_max - j_min;
        let range = scratch.fill(table, &ids[j_min..j_max], &[]);
        let cand = &scratch.mask[range.clone()];
        parallel::sweep(
            &q.query,
            table,
            cand,
            range.start,
            candidates,
            &mut scratch.boxes,
        );
        scratch.ids.clear();
        let words = parallel::BlockWords {
            boxes: &scratch.boxes,
            ..parallel::BlockWords::cand(cand, range.start)
        };
        let (quant, verified) = parallel::verify_mask(&q.query, table, words, &mut scratch.ids);
        buffer.offer_rows(&q.query, table, &scratch.ids);

        // Walk the accepting interval from the query hyperplane outward,
        // terminating when the lower-bound distance (Def. 5) of the next
        // point exceeds the worst buffered distance (Claim 3 makes every
        // later point at least that far). Each step's key comes from the
        // row it reads for the distance anyway.
        //
        // r = aᵢ/cᵢ extremes: for ≤ queries the bound is
        // (b − r_max·key)/|a|; for ≥ queries (r_min·key − b)/|a|.
        let (mut r_min, mut r_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (&ci, &ai) in self.normal.iter().zip(&nq.a) {
            let r = ai / ci;
            r_min = r_min.min(r);
            r_max = r_max.max(r);
        }
        let mut walked = 0;
        match cmp {
            Cmp::Leq => {
                for &id in ids[..j_min].iter().rev() {
                    let row = table.row(id);
                    let key_norm = row_key(&self.raw_normal, row) + shift;
                    let lbs = deflate((nq.b - r_max * key_norm) * inv_norm);
                    if use_pruning && buffer.is_full() && buffer.worst().is_some_and(|w| lbs > w) {
                        break;
                    }
                    walked += 1;
                    buffer.offer(q.query.distance(row), id);
                }
            }
            Cmp::Geq => {
                for &id in &ids[j_max..] {
                    let row = table.row(id);
                    let key_norm = row_key(&self.raw_normal, row) + shift;
                    let lbs = deflate((r_min * key_norm - nq.b) * inv_norm);
                    if use_pruning && buffer.is_full() && buffer.worst().is_some_and(|w| lbs > w) {
                        break;
                    }
                    walked += 1;
                    buffer.offer(q.query.distance(row), id);
                }
            }
        }

        let stats = TopKStats {
            n,
            intermediate: candidates,
            walked,
            verified: verified + walked,
            intersect_pruned: 0,
            quant,
        };
        (buffer.into_sorted(), stats)
    }
}

/// A [`SingleIndex`] paired with the feature table its keys are computed
/// from — what [`crate::PlanarIndexSet::index_at`] lends out for
/// diagnostics, ablation benches and tracing.
pub struct IndexView<'a, S: KeyStore = VecStore> {
    index: &'a SingleIndex<S>,
    table: &'a FeatureTable,
}

// Manual impls: a derive would demand `S: Copy`, but the view only holds
// references.
impl<S: KeyStore> Clone for IndexView<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: KeyStore> Copy for IndexView<'_, S> {}

impl<'a, S: KeyStore> IndexView<'a, S> {
    pub(crate) fn new(index: &'a SingleIndex<S>, table: &'a FeatureTable) -> Self {
        Self { index, table }
    }

    /// The index normal `c` (normalized space).
    pub fn normal(&self) -> &'a [f64] {
        self.index.normal()
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The indexed ids in ascending `(key, id)` order.
    pub fn ids(&self) -> &'a [PointId] {
        self.index.ids()
    }

    /// [`SingleIndex::boundaries`] over the set's table.
    pub fn boundaries(&self, nq: &NormalizedQuery, shift: f64, cmp: Cmp) -> IntervalBounds {
        self.index.boundaries(nq, shift, cmp, self.table)
    }

    /// [`SingleIndex::boundaries_literal`] over the set's table.
    pub fn boundaries_literal(&self, nq: &NormalizedQuery, shift: f64, cmp: Cmp) -> IntervalBounds {
        self.index.boundaries_literal(nq, shift, cmp, self.table)
    }

    /// [`SingleIndex::ii_size`] over the set's table.
    pub fn ii_size(&self, nq: &NormalizedQuery, shift: f64, cmp: Cmp) -> usize {
        self.index.ii_size(nq, shift, cmp, self.table)
    }
}

/// Shave a relative epsilon off a lower bound so float rounding in the key
/// decomposition can never make it exceed the true distance.
#[inline]
fn deflate(lbs: f64) -> f64 {
    lbs - lbs.abs() * 1e-9
}

impl<S: KeyStore> HeapSize for SingleIndex<S> {
    fn heap_size(&self) -> usize {
        self.normal.heap_size() + self.raw_normal.heap_size() + self.store.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_geom::Normalizer;

    fn first_octant_setup() -> (FeatureTable, Normalizer) {
        let table = FeatureTable::from_rows(
            2,
            vec![
                vec![1.0, 1.0],
                vec![2.0, 3.0],
                vec![4.0, 4.0],
                vec![0.5, 0.5],
                vec![3.0, 1.0],
            ],
        )
        .unwrap();
        let normalizer = Normalizer::identity(2);
        (table, normalizer)
    }

    fn eval_ids<S: KeyStore>(
        idx: &SingleIndex<S>,
        table: &FeatureTable,
        norm: &Normalizer,
        q: &InequalityQuery,
    ) -> (Vec<PointId>, QueryStats) {
        let nq = norm.normalize_query(q.a(), q.b()).unwrap();
        let shift = norm.key_shift(idx.normal());
        let (mut ids, stats) = idx.evaluate(q, &nq, shift, table, 0);
        ids.sort_unstable();
        (ids, stats)
    }

    #[test]
    fn build_validates_normal() {
        let (table, norm) = first_octant_setup();
        assert!(SingleIndex::<VecStore>::build(&table, &norm, vec![1.0]).is_err());
        assert!(SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, -1.0]).is_err());
        assert!(SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 0.0]).is_err());
        assert!(SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, f64::NAN]).is_err());
        let idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        assert_eq!(idx.len(), 5);
        assert!(!idx.is_empty());
    }

    #[test]
    fn parallel_index_gives_empty_intermediate_interval() {
        let (table, norm) = first_octant_setup();
        let idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        let q = InequalityQuery::leq(vec![2.0, 2.0], 10.0).unwrap(); // parallel to c
        let nq = norm.normalize_query(q.a(), q.b()).unwrap();
        let b = idx.boundaries(&nq, 0.0, Cmp::Leq, &table);
        // All thresholds coincide at key 5: II only holds boundary keys
        // (key exactly 5 → id 1), everything else is pruned.
        assert!(b.j_max - b.j_min <= 1);
        // x + y ≤ 5: ids 0 (2), 1 (5, boundary), 3 (1), 4 (4).
        let (ids, stats) = eval_ids(&idx, &table, &norm, &q);
        assert_eq!(ids, vec![0, 1, 3, 4]);
        assert!(stats.pruned_fraction() >= 0.8, "{stats:?}");
    }

    #[test]
    fn leq_and_geq_answers_match_scan() {
        let (table, norm) = first_octant_setup();
        let idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 2.0]).unwrap();
        let scan = crate::scan::SeqScan::new(&table);
        for (a, b) in [
            (vec![1.0, 1.0], 5.0),
            (vec![3.0, 0.5], 4.0),
            (vec![0.5, 2.5], 6.0),
        ] {
            for cmp in [Cmp::Leq, Cmp::Geq] {
                let q = InequalityQuery::new(a.clone(), cmp, b).unwrap();
                let (ids, _) = eval_ids(&idx, &table, &norm, &q);
                assert_eq!(ids, scan.evaluate(&q).unwrap(), "query {a:?} {cmp:?} {b}");
            }
        }
    }

    #[test]
    fn boundary_points_are_answered_exactly() {
        // Points exactly on the query hyperplane: ⟨(1,1), (2,3)⟩ = 5.
        let (table, norm) = first_octant_setup();
        let idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        let leq = InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap();
        let geq = InequalityQuery::geq(vec![1.0, 1.0], 5.0).unwrap();
        let (l, _) = eval_ids(&idx, &table, &norm, &leq);
        let (g, _) = eval_ids(&idx, &table, &norm, &geq);
        assert!(l.contains(&1), "boundary point must satisfy ≤");
        assert!(g.contains(&1), "boundary point must satisfy ≥");
    }

    #[test]
    fn observations_1_and_2_hold() {
        // Every smaller-interval point satisfies a ≤ query; every
        // larger-interval point violates it.
        let (table, norm) = first_octant_setup();
        let idx = SingleIndex::<VecStore>::build(&table, &norm, vec![2.0, 1.0]).unwrap();
        let q = InequalityQuery::leq(vec![1.0, 3.0], 7.0).unwrap();
        let nq = norm.normalize_query(q.a(), q.b()).unwrap();
        let shift = norm.key_shift(idx.normal());
        let b = idx.boundaries(&nq, shift, Cmp::Leq, &table);
        for &id in &idx.ids()[..b.j_min] {
            assert!(q.satisfies(table.row(id)), "SI point {id} must satisfy");
        }
        for &id in &idx.ids()[b.j_max..] {
            assert!(!q.satisfies(table.row(id)), "LI point {id} must violate");
        }
    }

    #[test]
    fn works_in_negative_octant_via_normalizer() {
        // Data with negative second coordinate; queries with a₂ < 0.
        let table = FeatureTable::from_rows(
            2,
            vec![
                vec![1.0, -1.0],
                vec![2.0, -3.0],
                vec![4.0, -0.5],
                vec![0.2, -2.0],
            ],
        )
        .unwrap();
        let a = [1.0, -2.0];
        let octant = planar_geom::Octant::of_coefficients(&a).unwrap();
        let rows: Vec<&[f64]> = table.iter().map(|(_, r)| r).collect();
        let norm = Normalizer::fit(&octant, rows);
        let idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.5]).unwrap();
        let scan = crate::scan::SeqScan::new(&table);
        for b in [0.0, 2.0, 5.0, 9.0] {
            for cmp in [Cmp::Leq, Cmp::Geq] {
                let q = InequalityQuery::new(a.to_vec(), cmp, b).unwrap();
                let (ids, _) = eval_ids(&idx, &table, &norm, &q);
                assert_eq!(ids, scan.evaluate(&q).unwrap(), "b={b} {cmp:?}");
            }
        }
    }

    #[test]
    fn update_point_moves_entry() {
        // Remove under the old row, change the row, insert under the new.
        let (mut table, norm) = first_octant_setup();
        let mut idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        assert!(idx.remove_point(&table, 2));
        table.update_row(2, &[0.1, 0.1]).unwrap();
        idx.insert_point(&table, 2);
        assert_eq!(idx.ids(), &[2, 3, 0, 4, 1]);
        let q = InequalityQuery::leq(vec![1.0, 1.0], 1.0).unwrap();
        let (ids, _) = eval_ids(&idx, &table, &norm, &q);
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn removal_after_the_row_changed_misses() {
        // The key of a removal comes from the row: once the row has moved,
        // the bisection looks in the wrong place and the id is not found.
        // This is why mutations remove before they write the row.
        let (mut table, norm) = first_octant_setup();
        let mut idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        table.update_row(2, &[0.1, 0.1]).unwrap();
        assert!(!idx.remove_point(&table, 2));
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn insert_and_remove_points() {
        let (mut table, norm) = first_octant_setup();
        let mut idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        let id = table.push_row(&[10.0, 10.0]).unwrap();
        idx.insert_point(&table, id);
        assert_eq!(idx.len(), 6);
        let q = InequalityQuery::geq(vec![1.0, 1.0], 19.0).unwrap();
        let (ids, _) = eval_ids(&idx, &table, &norm, &q);
        assert_eq!(ids, vec![id]);
        assert!(idx.remove_point(&table, id));
        assert!(!idx.remove_point(&table, id));
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn top_k_matches_brute_force() {
        let (table, norm) = first_octant_setup();
        let idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        let scan = crate::scan::SeqScan::new(&table);
        for k in 1..=5 {
            for cmp in [Cmp::Leq, Cmp::Geq] {
                let q = TopKQuery::new(InequalityQuery::new(vec![1.5, 0.7], cmp, 4.0).unwrap(), k)
                    .unwrap();
                let nq = norm.normalize_query(q.query.a(), q.query.b()).unwrap();
                let shift = norm.key_shift(idx.normal());
                let (got, stats) = idx.top_k(&q, &nq, shift, &table);
                let want = scan.top_k(&q).unwrap();
                assert_eq!(got, want, "k={k} {cmp:?}");
                assert!(stats.checked() <= table.len());
            }
        }
    }

    #[test]
    fn top_k_pruning_stops_early_on_parallel_index() {
        // With a parallel index, Algorithm 2 checks ~k+1 points of the
        // accepting interval (paper §6 best case).
        let rows: Vec<Vec<f64>> = (1..=1000).map(|i| vec![i as f64, i as f64]).collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let norm = Normalizer::identity(2);
        let idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        let q = TopKQuery::new(InequalityQuery::leq(vec![2.0, 2.0], 2000.0).unwrap(), 5).unwrap();
        let nq = norm.normalize_query(q.query.a(), q.query.b()).unwrap();
        let (res, stats) = idx.top_k(&q, &nq, 0.0, &table);
        assert_eq!(res.len(), 5);
        // ids 500, 499, 498, 497, 496 are nearest to x+y = 1000.
        assert_eq!(res[0].0, 499);
        assert!(
            stats.checked() <= 10,
            "expected early termination, checked {}",
            stats.checked()
        );
    }

    #[test]
    fn empty_index_answers_empty() {
        let table = FeatureTable::new(2).unwrap();
        let norm = Normalizer::identity(2);
        let idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        let q = InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap();
        let nq = norm.normalize_query(q.a(), q.b()).unwrap();
        let (ids, stats) = idx.evaluate(&q, &nq, 0.0, &table, 0);
        assert!(ids.is_empty());
        assert_eq!(stats.matched, 0);
    }
}
