//! One Planar index (paper §4): the data points sorted by `⟨c, φ(x)⟩` for a
//! single normal `c`, plus the interval-based query algorithms.
//!
//! ## Normalized vs raw space
//!
//! The interval machinery assumes the first hyper-octant: positive query
//! coefficients and non-negative data coordinates. General octants are
//! handled by `planar_geom::Normalizer` (translation §4.5 + reflection).
//! Crucially, the normalized key decomposes as
//! `⟨c, φ''(x)⟩ = ⟨c_raw, φ(x)⟩ + shift`, so this index stores **raw-space
//! keys** and applies the (query-time) `shift` to thresholds instead. Data
//! updates that grow the translation deltas therefore never touch stored
//! keys.
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
//! floating-point rounding between stored keys and computed thresholds —
//! widening is always sound because the intermediate interval is verified
//! exactly in raw space.

use crate::parallel::{self, ExecutionConfig, QueryScratch};
use crate::query::{Cmp, InequalityQuery, TopKQuery};
use crate::scan::TopKBuffer;
use crate::stats::{ExecutionPath, QueryStats};
use crate::store::{Entry, KeyStore};
use crate::table::{FeatureTable, PointId};
use crate::{HeapSize, PlanarError, Result};
use planar_geom::{dot_slices, NormalizedQuery, Normalizer, BLOCK_ROWS};

/// Relative slack applied to interval boundaries so that float rounding in
/// key/threshold computation can never misclassify a boundary point into a
/// pruned interval. See the module docs — widening the verified interval is
/// always sound.
const BOUNDARY_EPS: f64 = 1e-9;

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
    /// II candidates rejected by multi-index intersection pruning (a
    /// sibling index proved they violate the constraint, so neither a
    /// scalar product nor a distance was computed for them).
    pub intersect_pruned: usize,
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

/// One Planar index: a normal `c` and the points ordered by raw key
/// `⟨c_raw, φ(x)⟩`.
#[derive(Debug, Clone)]
pub struct SingleIndex<S: KeyStore> {
    /// The normal in normalized (first-octant) space; strictly positive.
    normal: Vec<f64>,
    /// `c_rawᵢ = cᵢ·sign(O, i)` — the raw-space key normal.
    raw_normal: Vec<f64>,
    store: S,
    /// Raw key by point id (`NaN` for ids this index does not hold) — the
    /// O(1) side table behind multi-index intersection pruning: a sibling
    /// index classifies an II candidate with one array load and two
    /// comparisons instead of a rank query.
    keys_by_id: Vec<f64>,
}

/// One sibling index's contribution to intersection pruning: its slacked
/// raw-key thresholds `(lo, hi)` for the current query plus its id→key side
/// table. Built by the index set, consumed by [`SingleIndex`] verification.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuxFilter<'a> {
    /// Slacked lower threshold (raw-key space): `t_min − ε − shift`.
    pub lo: f64,
    /// Slacked upper threshold (raw-key space): `t_max + ε − shift`.
    pub hi: f64,
    /// The sibling's id→raw-key table.
    pub keys: &'a [f64],
}

impl AuxFilter<'_> {
    /// Classify the candidates `cand` of candidate-bitmap word `w` (bit `l`
    /// is row `w·BLOCK_ROWS + l`) through this sibling's intervals.
    /// Returns the lanes it proves to satisfy (Observation 2 with slack)
    /// and to violate (Observation 1 with slack), disjoint subsets of
    /// `cand`. Mirrors [`SingleIndex::boundaries`]: for `≤` the smaller
    /// interval (`key ≤ lo`) is accepted and the larger (`key > hi`)
    /// rejected; `≥` swaps the roles and keeps `key = lo` in the verified
    /// middle (it can lie exactly on the hyperplane). An id absent from the
    /// sibling (`NaN` key, or beyond its table) fails every comparison and
    /// stays unsettled.
    #[inline]
    fn classify_word(&self, w: usize, cand: u64, cmp: Cmp) -> (u64, u64) {
        let base = w * BLOCK_ROWS;
        let (mut accept, mut reject) = (0, 0);
        let mut m = cand;
        while m != 0 {
            let l = m.trailing_zeros();
            if let Some(&key) = self.keys.get(base + l as usize) {
                let (acc, rej) = match cmp {
                    Cmp::Leq => (key <= self.lo, key > self.hi),
                    Cmp::Geq => (key > self.hi, key < self.lo),
                };
                accept |= u64::from(acc) << l;
                reject |= u64::from(rej) << l;
            }
            m &= m - 1;
        }
        (accept, reject)
    }
}

/// Intersection pruning of one candidate-bitmap word: each sibling in turn
/// settles the candidates no earlier sibling settled. Returns the
/// (accepted, rejected) lanes.
fn settle_word(aux: &[AuxFilter<'_>], cmp: Cmp, w: usize, cand: u64) -> (u64, u64) {
    let (mut accept, mut reject, mut open) = (0, 0, cand);
    for f in aux {
        if open == 0 {
            break;
        }
        let (a, r) = f.classify_word(w, open, cmp);
        accept |= a;
        reject |= r;
        open &= !(a | r);
    }
    (accept, reject)
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
        let entries: Vec<Entry> = table
            .iter()
            .map(|(id, row)| Entry::new(dot_slices(&raw_normal, row), id))
            .collect();
        let keys_by_id = keys_from_entries(&entries);
        Ok(Self {
            normal,
            raw_normal,
            store: S::build(entries),
            keys_by_id,
        })
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

    /// All entries in ascending key order (used by persistence).
    pub fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        self.store.iter_asc(0, self.store.len())
    }

    /// Point ids in the rank range `[from, to)` of the sorted order.
    pub fn ids_in(&self, from: usize, to: usize) -> impl Iterator<Item = PointId> + '_ {
        self.store.iter_asc(from, to).map(|e| e.id)
    }

    /// Reassemble from persisted parts; `normal` must be validated by the
    /// caller and `store` already built over this index's entries.
    pub(crate) fn from_parts(normal: Vec<f64>, raw_normal: Vec<f64>, store: S) -> Self {
        let entries: Vec<Entry> = store.iter_asc(0, store.len()).collect();
        let keys_by_id = keys_from_entries(&entries);
        Self {
            normal,
            raw_normal,
            store,
            keys_by_id,
        }
    }

    /// The raw-space sort key of a feature row.
    #[inline]
    pub fn raw_key(&self, row: &[f64]) -> f64 {
        dot_slices(&self.raw_normal, row)
    }

    /// Discard the store and rebuild it from the table — every entry is
    /// recomputable from the rows and this index's normal, which is what
    /// makes quarantined indices recoverable. `deleted[id]` rows are
    /// skipped. `O(n log n)`.
    pub(crate) fn rebuild_from(&mut self, table: &FeatureTable, deleted: &[bool]) {
        let entries: Vec<Entry> = table
            .iter()
            .filter(|(id, _)| !deleted.get(*id as usize).copied().unwrap_or(false))
            .map(|(id, row)| Entry::new(self.raw_key(row), id))
            .collect();
        self.keys_by_id = keys_from_entries(&entries);
        self.store = S::build(entries);
    }

    /// Register a new point (paper §4.4 dynamic maintenance).
    pub fn insert_point(&mut self, id: PointId, row: &[f64]) {
        let entry = Entry::new(self.raw_key(row), id);
        self.set_key(id, entry.key);
        self.store.insert(entry);
    }

    /// Remove a point, given its current feature row.
    pub fn remove_point(&mut self, id: PointId, row: &[f64]) -> bool {
        let removed = self.store.remove(Entry::new(self.raw_key(row), id));
        if removed {
            self.set_key(id, f64::NAN);
        }
        removed
    }

    /// Update a point's feature row: `O(d' + log n)` with a tree store.
    pub fn update_point(&mut self, id: PointId, old_row: &[f64], new_row: &[f64]) -> bool {
        let removed = self.store.remove(Entry::new(self.raw_key(old_row), id));
        let entry = Entry::new(self.raw_key(new_row), id);
        self.set_key(id, entry.key);
        self.store.insert(entry);
        removed
    }

    /// Maintain the id→key side table alongside a store mutation.
    fn set_key(&mut self, id: PointId, key: f64) {
        let i = id as usize;
        if i >= self.keys_by_id.len() {
            self.keys_by_id.resize(i + 1, f64::NAN);
        }
        self.keys_by_id[i] = key;
    }

    /// The id→raw-key side table (NaN for absent ids), for intersection
    /// pruning by sibling queries.
    pub(crate) fn keys_by_id(&self) -> &[f64] {
        &self.keys_by_id
    }

    /// Interval boundaries for a normalized query. `shift` is the current
    /// key shift `Σ cᵢ·δᵢ` from the normalizer (see module docs).
    pub fn boundaries(&self, nq: &NormalizedQuery, shift: f64, cmp: Cmp) -> IntervalBounds {
        let (lo, hi) = self.slack_bounds(nq, shift);
        let j_min = match cmp {
            // ≤: boundary keys (= t_min) satisfy the query and may stay in
            // the accepted smaller interval.
            Cmp::Leq => self.store.rank_leq(lo),
            // ≥: the smaller interval is rejected; keys equal to t_min can
            // lie exactly on the hyperplane, so they must be verified.
            Cmp::Geq => self.store.rank_lt(lo),
        };
        let j_max = self.store.rank_leq(hi);
        IntervalBounds {
            j_min,
            j_max: j_max.max(j_min),
        }
    }

    /// The slacked raw-key thresholds `(lo, hi)` for a normalized query:
    /// the per-axis threshold extremes widened by the boundary epsilon and
    /// shifted to raw-key space. Keys `≤ lo` are in the smaller interval,
    /// keys `> hi` in the larger — the comparisons the [`AuxFilter`] runs
    /// per candidate.
    pub(crate) fn slack_bounds(&self, nq: &NormalizedQuery, shift: f64) -> (f64, f64) {
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
    pub fn boundaries_literal(&self, nq: &NormalizedQuery, shift: f64, cmp: Cmp) -> IntervalBounds {
        let mut j_min = usize::MAX;
        let mut j_max = 0usize;
        for (&ci, &ai) in self.normal.iter().zip(&nq.a) {
            let t = ci * nq.b / ai;
            let (lo, hi) = Self::slacked(t, t, shift);
            let small = match cmp {
                Cmp::Leq => self.store.rank_leq(lo),
                Cmp::Geq => self.store.rank_lt(lo),
            };
            let large = self.store.rank_leq(hi);
            j_min = j_min.min(small);
            j_max = j_max.max(large);
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
    pub fn ii_size(&self, nq: &NormalizedQuery, shift: f64, cmp: Cmp) -> usize {
        let b = self.boundaries(nq, shift, cmp);
        b.j_max - b.j_min
    }

    /// The wholesale-accepted and wholesale-rejected point ids of a query's
    /// interval partition (no verification performed). Used by the
    /// linear-constraint conjunction evaluator.
    pub fn partition(
        &self,
        nq: &NormalizedQuery,
        shift: f64,
        cmp: Cmp,
    ) -> (Vec<PointId>, Vec<PointId>) {
        let n = self.store.len();
        let IntervalBounds { j_min, j_max } = self.boundaries(nq, shift, cmp);
        let smaller: Vec<PointId> = self.store.iter_asc(0, j_min).map(|e| e.id).collect();
        let larger: Vec<PointId> = self.store.iter_asc(j_max, n).map(|e| e.id).collect();
        match cmp {
            Cmp::Leq => (smaller, larger),
            Cmp::Geq => (larger, smaller),
        }
    }

    /// Algorithm 1: answer an inequality query.
    ///
    /// `verify` is the exact raw-space predicate (the original query), `nq`
    /// its normalized form, `index_pos` only labels the stats.
    ///
    /// Convenience wrapper over [`Self::evaluate_with`] with serial
    /// execution and throwaway scratch.
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
            index_pos,
            &ExecutionConfig::serial(),
            &mut QueryScratch::new(),
        )
    }

    /// [`Self::evaluate`] with explicit execution configuration and
    /// reusable scratch buffers.
    ///
    /// The result vector is allocated once with capacity from the interval
    /// bounds (accepted-interval size + II size); the II candidate bitmap
    /// lives in `scratch`, so a warm scratch makes the hot loop
    /// allocation-free beyond that single result allocation. Matches are
    /// ordered canonically — the wholesale-accepted interval in store (key)
    /// order, then II matches in ascending-id order — identically for every
    /// `exec.threads` value.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_with(
        &self,
        verify: &InequalityQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
        index_pos: usize,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> (Vec<PointId>, QueryStats) {
        self.evaluate_with_aux(verify, nq, shift, table, index_pos, &[], exec, scratch)
    }

    /// [`Self::evaluate_with`] with multi-index intersection pruning.
    ///
    /// The II ids go from the store's key-order walk straight into the
    /// candidate bitmap of `scratch` (one word per 64-row block), so reading
    /// the words in order yields ascending ids without a sort. Each
    /// block's candidates are first classified through the sibling
    /// indices' slacked intervals (`aux`): lanes a sibling wholesale
    /// accepts join the block's answer mask and lanes it rejects are
    /// dropped, neither paying a scalar product; the rest are verified
    /// block by block (see [`parallel::verify_mask_blocked`]). Matches and
    /// their order are identical to the unpruned path — the sibling proofs
    /// are the same Observations 1 and 2 the chosen index itself uses for
    /// its outer intervals.
    ///
    /// The cost model skips sibling classification when the II holds fewer
    /// than `exec.intersect_min_candidates` candidates.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate_with_aux(
        &self,
        verify: &InequalityQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
        index_pos: usize,
        aux: &[AuxFilter<'_>],
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> (Vec<PointId>, QueryStats) {
        let n = self.store.len();
        let IntervalBounds { j_min, j_max } = self.boundaries(nq, shift, verify.cmp());
        let (smaller, intermediate, larger) = (j_min, j_max - j_min, n - j_max);
        let accepted_len = match verify.cmp() {
            Cmp::Leq => j_min,
            Cmp::Geq => n - j_max,
        };
        let mut matches = Vec::with_capacity(accepted_len + intermediate);

        // Wholesale-accepted interval.
        let accepted = match verify.cmp() {
            Cmp::Leq => self.store.iter_asc(0, j_min),
            Cmp::Geq => self.store.iter_asc(j_max, n),
        };
        matches.extend(accepted.map(|e| e.id));

        // Intermediate interval, in ascending id order: sibling indices
        // settle what they can via O(1) key classifications, and the rest
        // is verified exactly.
        let words = scratch.fill(table.len(), self.store.iter_asc(j_min, j_max).map(|e| e.id));
        let aux = if intermediate >= exec.intersect_min_candidates {
            aux
        } else {
            &[]
        };
        let cmp = verify.cmp();
        let (verified, quant) = parallel::verify_mask(
            verify,
            table,
            &scratch.mask[words.clone()],
            words.start,
            intermediate,
            &|w, cand| settle_word(aux, cmp, w, cand),
            exec,
            &mut matches,
        );
        let intersect_pruned = intermediate - verified;

        let stats = QueryStats {
            n,
            smaller,
            intermediate,
            larger,
            verified,
            intersect_pruned,
            matched: matches.len(),
            quant,
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
        self.top_k_inner(
            q,
            nq,
            shift,
            table,
            &[],
            true,
            &ExecutionConfig::serial(),
            &mut QueryScratch::new(),
        )
    }

    /// [`Self::top_k`] with explicit execution configuration and reusable
    /// scratch buffers; results are identical for every thread count.
    pub fn top_k_with(
        &self,
        q: &TopKQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> (Vec<(PointId, f64)>, TopKStats) {
        self.top_k_inner(q, nq, shift, table, &[], true, exec, scratch)
    }

    /// [`Self::top_k_with`] with multi-index intersection pruning of the
    /// intermediate interval. Top-k needs a distance for every *satisfying*
    /// point, so only sibling **rejections** prune (a rejected candidate
    /// provably violates the constraint and could never enter the buffer);
    /// sibling-accepted candidates are verified anyway for their distance.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn top_k_with_aux(
        &self,
        q: &TopKQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
        aux: &[AuxFilter<'_>],
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> (Vec<(PointId, f64)>, TopKStats) {
        self.top_k_inner(q, nq, shift, table, aux, true, exec, scratch)
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
        self.top_k_inner(
            q,
            nq,
            shift,
            table,
            &[],
            false,
            &ExecutionConfig::serial(),
            &mut QueryScratch::new(),
        )
    }

    /// Algorithm 2 body behind every top-k entry point: the II goes into
    /// the scratch's candidate bitmap and, after reject-only sibling
    /// pruning, is verified block by block into the top-k buffer; then the
    /// accepting interval is walked outward from the query hyperplane until
    /// Claim 3's lower bound stops it (`use_pruning = false` walks it all).
    #[allow(clippy::too_many_arguments)]
    fn top_k_inner(
        &self,
        q: &TopKQuery,
        nq: &NormalizedQuery,
        shift: f64,
        table: &FeatureTable,
        aux: &[AuxFilter<'_>],
        use_pruning: bool,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> (Vec<(PointId, f64)>, TopKStats) {
        let n = self.store.len();
        let cmp = q.query.cmp();
        let IntervalBounds { j_min, j_max } = self.boundaries(nq, shift, cmp);
        let mut buffer = TopKBuffer::new(q.k);
        let inv_norm = 1.0 / q.query.a_norm();

        // Intermediate interval first (paper Algorithm 2, lines 3–7), held
        // as the scratch's candidate bitmap and verified block by block in
        // ascending-id order. The buffer's total (dist, id) order makes its
        // contents independent of arrival order, so this matches the
        // store-order walk exactly.
        //
        // Reject-only intersection pruning: a sibling-rejected candidate
        // provably violates the constraint, so it can skip both the scalar
        // product and the distance.
        let candidates = j_max - j_min;
        let words = scratch.fill(table.len(), self.store.iter_asc(j_min, j_max).map(|e| e.id));
        let aux = if candidates >= exec.intersect_min_candidates {
            aux
        } else {
            &[]
        };
        let verified = parallel::verify_top_k(
            &q.query,
            table,
            &scratch.mask[words.clone()],
            words.start,
            candidates,
            &|w, cand| settle_word(aux, cmp, w, cand),
            exec,
            &mut scratch.dots,
            &mut buffer,
        );
        let intersect_pruned = candidates - verified;

        // Walk the accepting interval from the query hyperplane outward,
        // terminating when the lower-bound distance (Def. 5) of the next
        // point exceeds the worst buffered distance (Claim 3 makes every
        // later point at least that far).
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
                for e in self.store.iter_desc(j_min) {
                    let key_norm = e.key + shift;
                    let lbs = deflate((nq.b - r_max * key_norm) * inv_norm);
                    if use_pruning && buffer.is_full() && buffer.worst().is_some_and(|w| lbs > w) {
                        break;
                    }
                    walked += 1;
                    let row = table.row(e.id);
                    buffer.offer(q.query.distance(row), e.id);
                }
            }
            Cmp::Geq => {
                for e in self.store.iter_asc(j_max, n) {
                    let key_norm = e.key + shift;
                    let lbs = deflate((r_min * key_norm - nq.b) * inv_norm);
                    if use_pruning && buffer.is_full() && buffer.worst().is_some_and(|w| lbs > w) {
                        break;
                    }
                    walked += 1;
                    let row = table.row(e.id);
                    buffer.offer(q.query.distance(row), e.id);
                }
            }
        }

        let stats = TopKStats {
            n,
            intermediate: j_max - j_min,
            walked,
            verified: verified + walked,
            intersect_pruned,
        };
        (buffer.into_sorted(), stats)
    }
}

/// Build the id→raw-key side table from an index's entries (`NaN` marks
/// absent ids).
fn keys_from_entries(entries: &[Entry]) -> Vec<f64> {
    let len = entries.iter().map(|e| e.id as usize + 1).max().unwrap_or(0);
    let mut keys = vec![f64::NAN; len];
    for e in entries {
        keys[e.id as usize] = e.key;
    }
    keys
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
    use crate::store::{BPlusTree, VecStore};
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
        let b = idx.boundaries(&nq, 0.0, Cmp::Leq);
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
        let idx = SingleIndex::<BPlusTree>::build(&table, &norm, vec![2.0, 1.0]).unwrap();
        let q = InequalityQuery::leq(vec![1.0, 3.0], 7.0).unwrap();
        let nq = norm.normalize_query(q.a(), q.b()).unwrap();
        let shift = norm.key_shift(idx.normal());
        let b = idx.boundaries(&nq, shift, Cmp::Leq);
        for e in idx.store.iter_asc(0, b.j_min) {
            assert!(q.satisfies(table.row(e.id)), "SI point {e:?} must satisfy");
        }
        for e in idx.store.iter_asc(b.j_max, idx.len()) {
            assert!(!q.satisfies(table.row(e.id)), "LI point {e:?} must violate");
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
        let (mut table, norm) = first_octant_setup();
        let mut idx = SingleIndex::<BPlusTree>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        let old = table.row(2).to_vec();
        let new = vec![0.1, 0.1];
        assert!(idx.update_point(2, &old, &new));
        table.update_row(2, &new).unwrap();
        let q = InequalityQuery::leq(vec![1.0, 1.0], 1.0).unwrap();
        let (ids, _) = eval_ids(&idx, &table, &norm, &q);
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn insert_and_remove_points() {
        let (mut table, norm) = first_octant_setup();
        let mut idx = SingleIndex::<VecStore>::build(&table, &norm, vec![1.0, 1.0]).unwrap();
        let id = table.push_row(&[10.0, 10.0]).unwrap();
        idx.insert_point(id, &[10.0, 10.0]);
        assert_eq!(idx.len(), 6);
        let q = InequalityQuery::geq(vec![1.0, 1.0], 19.0).unwrap();
        let (ids, _) = eval_ids(&idx, &table, &norm, &q);
        assert_eq!(ids, vec![id]);
        assert!(idx.remove_point(id, &[10.0, 10.0]));
        assert!(!idx.remove_point(id, &[10.0, 10.0]));
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
