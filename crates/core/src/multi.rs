//! The multi-index Planar structure (paper §5): a budget of Planar indices
//! with different normals, best-index selection per query, octant handling,
//! and dynamic maintenance.
//!
//! [`PlanarIndexSet`] is the type applications use. It owns the feature
//! table, a `planar_geom::Normalizer` fitted to the parameter domain's
//! octant, and `budget` [`SingleIndex`]es whose normals are sampled from the
//! parameter domains (§5.2) with redundant (parallel) normals removed.

use crate::domain::ParameterDomain;
use crate::health::{HealthReport, IndexHealth};
use crate::index::{IndexView, SingleIndex, TopKStats};
use crate::parallel::{self, ExecutionConfig, QueryScratch};
use crate::quant::{QuantFilterStats, QuantTier};
use crate::query::{Cmp, InequalityQuery, TopKQuery};
use crate::scan::TopKBuffer;
use crate::selection::{angle_score, argmin_by_score_filtered, stretch_score, SelectionStrategy};
use crate::stats::{ExecutionPath, QueryStats, ScanReason, ServedBy};
use crate::store::{KeyStore, VecStore};
use crate::table::{FeatureTable, PointId};
use crate::{HeapSize, PlanarError, Result};
use planar_geom::{NormalizedQuery, Normalizer, BLOCK_ROWS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tolerance on the absolute cosine for declaring two normals parallel
/// (redundant-index removal, §5.2).
const PARALLEL_EPS: f64 = 1e-9;

/// How many times the builder re-samples before accepting fewer than
/// `budget` distinct normals (small discrete domains may not have `budget`
/// non-parallel normals at all — e.g. RQ=2 in 2 dimensions).
const RESAMPLE_FACTOR: usize = 8;

/// Construction parameters for a [`PlanarIndexSet`].
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Number of Planar indices to build (the paper's budget `b`).
    pub budget: usize,
    /// Best-index selection heuristic (§5.1). Defaults to stretch
    /// minimization, which the paper found superior.
    pub strategy: SelectionStrategy,
    /// Seed for normal sampling — index construction is deterministic
    /// given the seed.
    pub seed: u64,
    /// Remove redundant (parallel) normals (§5.2). On by default; the
    /// `ablation-dedup` bench turns it off.
    pub dedup: bool,
}

impl IndexConfig {
    /// A config with the given budget and the paper's defaults otherwise.
    pub fn with_budget(budget: usize) -> Self {
        Self {
            budget,
            strategy: SelectionStrategy::MinStretch,
            seed: 0x9E37_79B9,
            dedup: true,
        }
    }

    /// Override the selection strategy.
    pub fn strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable/disable redundant-normal removal.
    pub fn dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }
}

/// Result of an inequality query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Ids of all satisfying points, in ascending order — whichever index,
    /// or the scan, served the query.
    pub matches: Vec<PointId>,
    /// Execution statistics.
    pub stats: QueryStats,
    /// Serving provenance: which index answered, or whether the exact scan
    /// fallback served — [`ServedBy::Degraded`] means it did so because
    /// every index was quarantined.
    pub served_by: ServedBy,
}

impl QueryOutcome {
    /// The matching ids in ascending order (a copy of [`Self::matches`]).
    pub fn sorted_ids(&self) -> Vec<PointId> {
        let mut ids = self.matches.clone();
        ids.sort_unstable();
        ids
    }
}

/// Result of a top-k nearest-neighbor query.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKOutcome {
    /// `(id, distance)` pairs sorted by ascending distance to the query
    /// hyperplane; at most `k` entries, all satisfying the inequality.
    pub neighbors: Vec<(PointId, f64)>,
    /// Execution statistics (`checked()` is Table 3's "checked points").
    pub stats: TopKStats,
    /// Serving provenance — see [`QueryOutcome::served_by`].
    pub served_by: ServedBy,
}

/// Second pass over a joined batch: count the slots that did run (anything
/// not a deadline placeholder, including per-query errors — those executed,
/// they just failed) and stamp that count into every
/// [`ServedBy::Partial::completed`]. Returns the number of skipped slots.
pub(crate) fn stamp_partial_completed<O>(
    results: &mut [Result<O>],
    mut served_by: impl FnMut(&mut O) -> &mut ServedBy,
) -> usize {
    let mut skipped = 0usize;
    for out in results.iter_mut().flatten() {
        if served_by(out).is_partial() {
            skipped += 1;
        }
    }
    if skipped == 0 {
        return 0;
    }
    let completed = results.len() - skipped;
    for out in results.iter_mut().flatten() {
        if let ServedBy::Partial { completed: c, .. } = served_by(out) {
            *c = completed;
        }
    }
    skipped
}

/// A budget of Planar indices over one dataset — the main entry point of
/// this crate. Each index holds only point ids; its keys are computed from
/// this set's table (see [`SingleIndex`]), so every mutation here keeps
/// rows and indices in step. The set lays its table's rows out in k-d
/// block order when it is built, loaded or compacted
/// ([`FeatureTable::cluster`]); ids are unaffected. `S` is the id store,
/// [`VecStore`].
#[derive(Debug, Clone)]
pub struct PlanarIndexSet<S: KeyStore = VecStore> {
    table: FeatureTable,
    domain: ParameterDomain,
    normalizer: Normalizer,
    indices: Vec<SingleIndex<S>>,
    strategy: SelectionStrategy,
    /// The live (not tombstoned) rows by slot, one word per
    /// 64-row block of the table.
    live: Vec<u64>,
    n_live: usize,
    /// `quarantined[pos]` — the index at `pos` failed verification or could
    /// not be recovered from a snapshot; the planner skips it until
    /// [`Self::rebuild_quarantined`] restores it.
    quarantined: Vec<bool>,
}

impl<S: KeyStore> PlanarIndexSet<S> {
    /// Build an index set over `table` for queries drawn from `domain`.
    ///
    /// Normals are sampled uniformly from the domain (§5.2), redundant
    /// (parallel) ones removed. Construction is `O(budget · n log n)`.
    ///
    /// # Errors
    ///
    /// [`PlanarError::InvalidBudget`] on a zero budget, and
    /// [`PlanarError::DimensionMismatch`] when domain and table disagree.
    pub fn build(
        table: FeatureTable,
        domain: ParameterDomain,
        config: IndexConfig,
    ) -> Result<Self> {
        Self::validate_build(&table, &domain, &config)?;
        let normals = Self::sample_normals(&domain, &config);
        Self::with_normals(table, domain, normals, config.strategy)
    }

    /// [`Self::build`] with the budget-`b` independent [`SingleIndex`]
    /// constructions split into `exec.threads` chunks of work (see
    /// [`ExecutionConfig::threads`]).
    ///
    /// Normal sampling stays sequential (one RNG stream), so the resulting
    /// set is identical to [`Self::build`] for every thread count.
    ///
    /// # Errors
    ///
    /// Same as [`Self::build`].
    pub fn build_with(
        table: FeatureTable,
        domain: ParameterDomain,
        config: IndexConfig,
        exec: &ExecutionConfig,
    ) -> Result<Self>
    where
        S: Send,
    {
        Self::validate_build(&table, &domain, &config)?;
        let normals = Self::sample_normals(&domain, &config);
        Self::with_normals_parallel(table, domain, normals, config.strategy, exec)
    }

    fn validate_build(
        table: &FeatureTable,
        domain: &ParameterDomain,
        config: &IndexConfig,
    ) -> Result<()> {
        if config.budget == 0 {
            return Err(PlanarError::InvalidBudget);
        }
        if domain.dim() != table.dim() {
            return Err(PlanarError::DimensionMismatch {
                expected: table.dim(),
                found: domain.dim(),
            });
        }
        Ok(())
    }

    fn sample_normals(domain: &ParameterDomain, config: &IndexConfig) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut normals: Vec<Vec<f64>> = Vec::with_capacity(config.budget);
        let mut attempts = 0;
        let max_attempts = config.budget * RESAMPLE_FACTOR;
        while normals.len() < config.budget && attempts < max_attempts {
            attempts += 1;
            let c = domain.sample_normal_abs(&mut rng);
            if config.dedup && Self::is_redundant(&normals, &c) {
                continue;
            }
            normals.push(c);
        }
        if normals.is_empty() {
            // Degenerate domain (single possible normal): keep one sample.
            normals.push(domain.sample_normal_abs(&mut rng));
        }
        normals
    }

    /// Build with explicit normalized-space normals (each strictly
    /// positive). Useful when good normals are known — e.g. the
    /// moving-object application uses the exact parameter vectors of a few
    /// future time instants.
    ///
    /// # Errors
    ///
    /// [`PlanarError::InvalidBudget`] when `normals` is empty, plus
    /// [`SingleIndex::build`] validation per normal.
    pub fn with_normals(
        table: FeatureTable,
        domain: ParameterDomain,
        normals: Vec<Vec<f64>>,
        strategy: SelectionStrategy,
    ) -> Result<Self> {
        let normalizer = Self::validate_normals(&table, &domain, &normals)?;
        let indices = normals
            .into_iter()
            .map(|c| SingleIndex::build(&table, &normalizer, c))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::from_built(
            table, domain, normalizer, indices, strategy,
        ))
    }

    /// [`Self::with_normals`] with index construction split into
    /// `exec.threads` chunks of work — each normal's sort is
    /// independent, so the resulting indices are identical to the serial
    /// build in content and order.
    ///
    /// # Errors
    ///
    /// Same as [`Self::with_normals`].
    pub fn with_normals_parallel(
        table: FeatureTable,
        domain: ParameterDomain,
        normals: Vec<Vec<f64>>,
        strategy: SelectionStrategy,
        exec: &ExecutionConfig,
    ) -> Result<Self>
    where
        S: Send,
    {
        let normalizer = Self::validate_normals(&table, &domain, &normals)?;
        let workers = exec.threads.min(normals.len()).max(1);
        let (table_ref, normalizer_ref) = (&table, &normalizer);
        let indices = parallel::map_chunks(&normals, workers, |_, chunk| {
            chunk
                .iter()
                .map(|c| SingleIndex::build(table_ref, normalizer_ref, c.clone()))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect::<Result<Vec<_>>>()?;
        Ok(Self::from_built(
            table, domain, normalizer, indices, strategy,
        ))
    }

    fn validate_normals(
        table: &FeatureTable,
        domain: &ParameterDomain,
        normals: &[Vec<f64>],
    ) -> Result<Normalizer> {
        if normals.is_empty() {
            return Err(PlanarError::InvalidBudget);
        }
        if domain.dim() != table.dim() {
            return Err(PlanarError::DimensionMismatch {
                expected: table.dim(),
                found: domain.dim(),
            });
        }
        let octant = domain.octant();
        Ok(Normalizer::fit(&octant, table.iter().map(|(_, r)| r)))
    }

    fn from_built(
        mut table: FeatureTable,
        domain: ParameterDomain,
        normalizer: Normalizer,
        indices: Vec<SingleIndex<S>>,
        strategy: SelectionStrategy,
    ) -> Self {
        table.cluster();
        let n = table.len();
        let budget = indices.len();
        Self {
            live: live_words(&table, &[]),
            table,
            domain,
            normalizer,
            indices,
            strategy,
            n_live: n,
            quarantined: vec![false; budget],
        }
    }

    /// Reassemble a set from persisted parts (see `crate::persist`).
    /// `quarantined[pos]` marks indices whose sections were corrupt or
    /// already flagged in the snapshot; their `id_lists` slot is typically
    /// empty and their normal is retained for rebuilding. Each id list is
    /// adopted in its stored order.
    pub(crate) fn assemble(
        mut table: FeatureTable,
        domain: ParameterDomain,
        strategy: SelectionStrategy,
        tombstones: Vec<bool>,
        normals: Vec<Vec<f64>>,
        id_lists: Vec<Vec<PointId>>,
        quarantined: Vec<bool>,
    ) -> Result<Self> {
        if domain.dim() != table.dim() {
            return Err(PlanarError::DimensionMismatch {
                expected: table.dim(),
                found: domain.dim(),
            });
        }
        if tombstones.len() != table.len() {
            return Err(PlanarError::Persist(
                "tombstone vector length mismatch".into(),
            ));
        }
        if quarantined.len() != normals.len() {
            return Err(PlanarError::Persist(
                "quarantine vector length mismatch".into(),
            ));
        }
        let normalizer = Normalizer::fit(&domain.octant(), table.iter().map(|(_, r)| r));
        let mut indices = Vec::with_capacity(normals.len());
        for (normal, ids) in normals.into_iter().zip(id_lists) {
            if normal.len() != table.dim() || normal.iter().any(|&v| !v.is_finite() || v <= 0.0) {
                return Err(PlanarError::Persist("invalid stored index normal".into()));
            }
            let raw_normal = normalizer.raw_normal(&normal);
            indices.push(SingleIndex::from_parts(
                normal,
                raw_normal,
                S::from_sorted_ids(ids),
            ));
        }
        if indices.is_empty() {
            return Err(PlanarError::InvalidBudget);
        }
        let n_live = tombstones.iter().filter(|&&t| !t).count();
        table.cluster();
        Ok(Self {
            live: live_words(&table, &tombstones),
            table,
            domain,
            normalizer,
            indices,
            strategy,
            n_live,
            quarantined,
        })
    }

    fn is_redundant(normals: &[Vec<f64>], c: &[f64]) -> bool {
        normals.iter().any(|existing| {
            let cos = planar_geom::dot_slices(existing, c)
                / (planar_geom::norm(existing) * planar_geom::norm(c));
            (cos.abs() - 1.0).abs() <= PARALLEL_EPS
        })
    }

    /// Number of live (non-deleted) points.
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// True when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// Feature dimensionality `d'`.
    pub fn dim(&self) -> usize {
        self.table.dim()
    }

    /// Number of Planar indices in the set.
    pub fn num_indices(&self) -> usize {
        self.indices.len()
    }

    /// The normals of all indices (normalized space).
    pub fn normals(&self) -> impl Iterator<Item = &[f64]> {
        self.indices.iter().map(|i| i.normal())
    }

    /// The underlying feature table (rows of deleted points persist but are
    /// never returned by queries).
    pub fn table(&self) -> &FeatureTable {
        &self.table
    }

    /// The parameter domain the set was built for.
    pub fn domain(&self) -> &ParameterDomain {
        &self.domain
    }

    /// The selection strategy in use.
    pub fn strategy(&self) -> SelectionStrategy {
        self.strategy
    }

    /// Change the selection strategy (no rebuild needed).
    pub fn set_strategy(&mut self, strategy: SelectionStrategy) {
        self.strategy = strategy;
    }

    /// The active quantization tier of the underlying table.
    pub fn quant_tier(&self) -> QuantTier {
        self.table.quant_tier()
    }

    /// Switch the quantized tier on or off explicitly, encoding the
    /// table's mirror when it turns on (`O(n · d')`). Answers are
    /// bit-identical either way — the tier only changes how many
    /// candidates the filter pass can settle without full-precision work.
    /// The next [`Self::retune_quantization`] (or compaction) applies the
    /// size rule again.
    pub fn set_quant_tier(&mut self, tier: QuantTier) {
        self.table.set_quant_tier(tier);
    }

    /// Apply the size rule ([`crate::quant::tier_for_rows`]) to the table
    /// and return the tier now active: `I16` from
    /// [`crate::quant::QUANT_MIN_ROWS`] rows on, else `Off`. Encodes the
    /// mirror only when the tier turns on. Called by [`Self::compact`];
    /// callers with checkpoint cadence (e.g. the durable engine) invoke it
    /// there too.
    pub fn retune_quantization(&mut self) -> QuantTier {
        let tier = crate::quant::tier_for_rows(self.table.len());
        self.table.set_quant_tier(tier);
        tier
    }

    /// Heap bytes owned by the whole structure (table + all indices) — the
    /// quantity of paper Fig. 13b.
    pub fn memory_usage(&self) -> usize {
        self.table.heap_size()
            + self.live.heap_size()
            + self.indices.iter().map(|i| i.heap_size()).sum::<usize>()
    }

    /// Prepare a query for indexed execution: handle octant mismatches via
    /// negation, normalize, or report why a scan is needed.
    ///
    /// The first element is `None` when the original query is already in
    /// the indexed octant — the common case, kept allocation-free because
    /// workloads like circular moving-object intersection issue one query
    /// per object group.
    fn prepare(
        &self,
        q: &InequalityQuery,
    ) -> core::result::Result<(Option<InequalityQuery>, NormalizedQuery), ScanReason> {
        if q.a().contains(&0.0) {
            return Err(ScanReason::ZeroCoefficient);
        }
        let effective = if self.domain.signs_match(q.a()) {
            None
        } else {
            // ⟨a,φ⟩ ≤ b ⇔ ⟨−a,φ⟩ ≥ −b: the mirrored form may fall into the
            // indexed octant.
            let neg = q.negated();
            if self.domain.signs_match(neg.a()) {
                Some(neg)
            } else {
                return Err(ScanReason::OctantMismatch);
            }
        };
        let view = effective.as_ref().unwrap_or(q);
        match self.normalizer.normalize_query(view.a(), view.b()) {
            Ok(nq) => Ok((effective, nq)),
            Err(_) => Err(ScanReason::OctantMismatch),
        }
    }

    /// Pick the best *usable* (non-quarantined) index for a normalized
    /// query (§5.1) along with its key shift. `None` when every index is
    /// quarantined — the caller degrades to the exact scan.
    fn select_index(&self, nq: &NormalizedQuery, cmp: Cmp) -> Option<(usize, f64)> {
        let skip = |i: usize| self.quarantined[i];
        let pos = match self.strategy {
            SelectionStrategy::MinStretch => {
                argmin_by_score_filtered(self.indices.len(), skip, |i| {
                    stretch_score(self.indices[i].normal(), &nq.a, nq.b)
                })
            }
            SelectionStrategy::MinAngle => {
                argmin_by_score_filtered(self.indices.len(), skip, |i| {
                    angle_score(self.indices[i].normal(), &nq.a)
                })
            }
            SelectionStrategy::OracleCount => {
                argmin_by_score_filtered(self.indices.len(), skip, |i| {
                    let shift = self.normalizer.key_shift(self.indices[i].normal());
                    self.indices[i].ii_size(nq, shift, cmp, &self.table) as f64
                })
            }
        }?;
        let shift = self.normalizer.key_shift(self.indices[pos].normal());
        Some((pos, shift))
    }

    /// Answer an inequality query (paper Problem 1, Algorithm 1).
    ///
    /// Falls back to an exact sequential scan — with the reason recorded in
    /// the stats — when the query cannot use the indexed path (zero
    /// coefficients or octant mismatch).
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] when the query dimensionality
    /// differs from the table's.
    pub fn query(&self, q: &InequalityQuery) -> Result<QueryOutcome> {
        self.query_with(q, &ExecutionConfig::serial(), &mut QueryScratch::new())
    }

    /// [`Self::query`] with explicit execution configuration and caller-
    /// owned scratch buffers. With `exec.threads > 1`, intermediate-
    /// interval verification is chunked across threads once the interval
    /// crosses `exec.parallel_verify_threshold`; matches are identical (in
    /// content *and* order) for every thread count.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn query_with(
        &self,
        q: &InequalityQuery,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> Result<QueryOutcome> {
        self.check_dim(q)?;
        Ok(self.query_prepared(q, exec, scratch))
    }

    /// Answer a batch of inequality queries, split into `exec.threads`
    /// chunks (each with its own reusable [`QueryScratch`]). Output `i` is
    /// exactly what `query(&qs[i])` returns — same matches, same order,
    /// same stats — for every thread count.
    ///
    /// Workers are panic-isolated: a query that panics mid-execution
    /// surfaces as [`PlanarError::Internal`] instead of aborting the whole
    /// batch (or the process). Use [`Self::query_batch_isolated`] to keep
    /// the per-query results of the queries that did succeed.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] if any query's dimensionality
    /// differs from the table's (checked up front; no partial results);
    /// [`PlanarError::Internal`] if any query panicked.
    pub fn query_batch(
        &self,
        qs: &[InequalityQuery],
        exec: &ExecutionConfig,
    ) -> Result<Vec<QueryOutcome>>
    where
        S: Sync,
    {
        for q in qs {
            self.check_dim(q)?;
        }
        self.query_batch_isolated(qs, exec).into_iter().collect()
    }

    /// [`Self::query_batch`] with per-query fault isolation: output `i` is
    /// `Ok(outcome)` or the typed error for query `i` alone — a poisoned
    /// query (panic) yields `Err(PlanarError::Internal)` in its slot while
    /// every other query in the batch still completes.
    pub fn query_batch_isolated(
        &self,
        qs: &[InequalityQuery],
        exec: &ExecutionConfig,
    ) -> Vec<Result<QueryOutcome>>
    where
        S: Sync,
    {
        let guard = parallel::DeadlineGuard::new(exec.deadline);
        let mut results = self.query_batch_isolated_with_guard(qs, exec, &guard);
        let skipped = stamp_partial_completed(&mut results, |o| &mut o.served_by);
        parallel::record_deadline_events(skipped as u64);
        results
    }

    /// Batch body shared with the sharded engine: the caller owns the
    /// [`parallel::DeadlineGuard`] (so one budget can span every shard of a
    /// sharded batch) and is responsible for stamping `completed` counts
    /// into the [`ServedBy::Partial`] placeholders afterwards.
    pub(crate) fn query_batch_isolated_with_guard(
        &self,
        qs: &[InequalityQuery],
        exec: &ExecutionConfig,
        guard: &parallel::DeadlineGuard,
    ) -> Vec<Result<QueryOutcome>>
    where
        S: Sync,
    {
        let (workers, inner) = parallel::batch_plan(exec, qs.len());
        let per_chunk = parallel::map_chunks(qs, workers, |_, chunk| {
            let mut scratch = QueryScratch::new();
            chunk
                .iter()
                .map(|q| {
                    if guard.expired() {
                        Ok(self.deadline_placeholder_query())
                    } else {
                        self.query_one_isolated(q, &inner, &mut scratch)
                    }
                })
                .collect::<Vec<_>>()
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// The empty slot emitted for a query the batch deadline skipped: no
    /// matches, nothing verified, provenance [`ServedBy::Partial`]. The
    /// `completed` count is stamped in afterwards by the batch wrapper,
    /// once the whole batch is joined.
    fn deadline_placeholder_stats(&self) -> QueryStats {
        QueryStats {
            n: self.n_live,
            smaller: 0,
            intermediate: 0,
            larger: 0,
            verified: 0,
            intersect_pruned: 0,
            matched: 0,
            quant: QuantFilterStats::default(),
            fill_skipped: 0,
            path: ExecutionPath::ScanFallback(ScanReason::DeadlineExceeded),
        }
    }

    fn deadline_placeholder_query(&self) -> QueryOutcome {
        QueryOutcome {
            matches: Vec::new(),
            served_by: ServedBy::Partial {
                completed: 0,
                deadline_hit: true,
            },
            stats: self.deadline_placeholder_stats(),
        }
    }

    fn deadline_placeholder_top_k(&self) -> TopKOutcome {
        TopKOutcome {
            neighbors: Vec::new(),
            served_by: ServedBy::Partial {
                completed: 0,
                deadline_hit: true,
            },
            // `TopKStats` carries no execution path; the skipped slot is
            // identified by its `ServedBy::Partial` provenance alone.
            stats: TopKStats {
                n: self.n_live,
                intermediate: 0,
                walked: 0,
                verified: 0,
                intersect_pruned: 0,
                quant: QuantFilterStats::default(),
            },
        }
    }

    fn query_one_isolated(
        &self,
        q: &InequalityQuery,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> Result<QueryOutcome> {
        self.check_dim(q)?;
        parallel::run_isolated(|| self.query_prepared(q, exec, scratch))
    }

    fn query_prepared(
        &self,
        q: &InequalityQuery,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> QueryOutcome {
        crate::fault::maybe_inject_query_panic(q.b());
        match self.prepare(q) {
            Ok((effective, nq)) => {
                let view = effective.as_ref().unwrap_or(q);
                let Some((pos, shift)) = self.select_index(&nq, view.cmp()) else {
                    return self.scan_fallback(q, ScanReason::IndexUnavailable);
                };
                let (matches, stats) = self.indices[pos].evaluate_with(
                    view,
                    &nq,
                    shift,
                    &self.table,
                    &self.live,
                    pos,
                    exec,
                    scratch,
                );
                QueryOutcome {
                    matches,
                    served_by: ServedBy::Index(pos),
                    stats,
                }
            }
            Err(reason) => self.scan_fallback(q, reason),
        }
    }

    /// Answer a query with a forced sequential scan (the baseline).
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn query_scan(&self, q: &InequalityQuery) -> Result<QueryOutcome> {
        self.check_dim(q)?;
        Ok(self.scan_fallback(q, ScanReason::Requested))
    }

    /// Every live row satisfying `q`, ascending, from a scan of the live
    /// rows' bitmap through the blocked kernels — so the quantized tier
    /// (when active) settles whole blocks by one box sweep and
    /// wholesale-settles most other rows on the scan paths too. The kernel
    /// mask is bit-identical to the
    /// per-row `q.satisfies` predicate. Returns the matches, the filter
    /// counters and the rows verified.
    fn scan_live(&self, q: &InequalityQuery) -> (Vec<PointId>, QuantFilterStats, usize) {
        let (mut boxes, mut found, mut matches) = (Vec::new(), Vec::new(), Vec::new());
        parallel::sweep(q, &self.table, &self.live, 0, self.n_live, &mut boxes);
        let words = parallel::BlockWords {
            boxes: &boxes,
            ..parallel::BlockWords::cand(&self.live, 0)
        };
        let (quant, verified) = parallel::verify_ascending(
            q,
            &self.table,
            words,
            self.n_live,
            &ExecutionConfig::serial(),
            &mut found,
            &mut matches,
        );
        (matches, quant, verified)
    }

    fn scan_fallback(&self, q: &InequalityQuery, reason: ScanReason) -> QueryOutcome {
        let (matches, quant, verified) = self.scan_live(q);
        let stats = QueryStats {
            n: self.n_live,
            smaller: 0,
            intermediate: self.n_live,
            larger: 0,
            verified,
            intersect_pruned: 0,
            matched: matches.len(),
            quant,
            fill_skipped: 0,
            path: ExecutionPath::ScanFallback(reason),
        };
        QueryOutcome {
            matches,
            served_by: ServedBy::from_path(&stats.path),
            stats,
        }
    }

    /// Answer a top-k nearest-neighbor query (paper Problem 2,
    /// Algorithm 2).
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn top_k(&self, q: &TopKQuery) -> Result<TopKOutcome> {
        self.top_k_with(q, &ExecutionConfig::serial(), &mut QueryScratch::new())
    }

    /// [`Self::top_k`] with explicit execution configuration and caller-
    /// owned scratch buffers; answers are identical for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn top_k_with(
        &self,
        q: &TopKQuery,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> Result<TopKOutcome> {
        self.check_dim(&q.query)?;
        Ok(self.top_k_prepared(q, exec, scratch))
    }

    /// Answer a batch of top-k queries, split into `exec.threads` chunks.
    /// Output `i` is exactly what `top_k(&qs[i])` returns, for every
    /// thread count.
    ///
    /// Workers are panic-isolated: a query that panics mid-execution
    /// surfaces as [`PlanarError::Internal`] instead of aborting the whole
    /// batch. Use [`Self::top_k_batch_isolated`] to keep the per-query
    /// results of the queries that did succeed.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] if any query's dimensionality
    /// differs from the table's (checked up front; no partial results);
    /// [`PlanarError::Internal`] if any query panicked.
    pub fn top_k_batch(&self, qs: &[TopKQuery], exec: &ExecutionConfig) -> Result<Vec<TopKOutcome>>
    where
        S: Sync,
    {
        for q in qs {
            self.check_dim(&q.query)?;
        }
        self.top_k_batch_isolated(qs, exec).into_iter().collect()
    }

    /// [`Self::top_k_batch`] with per-query fault isolation: output `i` is
    /// `Ok(outcome)` or the typed error for query `i` alone — a poisoned
    /// query (panic) yields `Err(PlanarError::Internal)` in its slot while
    /// every other query in the batch still completes.
    pub fn top_k_batch_isolated(
        &self,
        qs: &[TopKQuery],
        exec: &ExecutionConfig,
    ) -> Vec<Result<TopKOutcome>>
    where
        S: Sync,
    {
        let guard = parallel::DeadlineGuard::new(exec.deadline);
        let mut results = self.top_k_batch_isolated_with_guard(qs, exec, &guard);
        let skipped = stamp_partial_completed(&mut results, |o| &mut o.served_by);
        parallel::record_deadline_events(skipped as u64);
        results
    }

    /// Deadline-sharing batch body; see
    /// [`Self::query_batch_isolated_with_guard`].
    pub(crate) fn top_k_batch_isolated_with_guard(
        &self,
        qs: &[TopKQuery],
        exec: &ExecutionConfig,
        guard: &parallel::DeadlineGuard,
    ) -> Vec<Result<TopKOutcome>>
    where
        S: Sync,
    {
        let (workers, inner) = parallel::batch_plan(exec, qs.len());
        let per_chunk = parallel::map_chunks(qs, workers, |_, chunk| {
            let mut scratch = QueryScratch::new();
            chunk
                .iter()
                .map(|q| {
                    if guard.expired() {
                        Ok(self.deadline_placeholder_top_k())
                    } else {
                        self.top_k_one_isolated(q, &inner, &mut scratch)
                    }
                })
                .collect::<Vec<_>>()
        });
        per_chunk.into_iter().flatten().collect()
    }

    fn top_k_one_isolated(
        &self,
        q: &TopKQuery,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> Result<TopKOutcome> {
        self.check_dim(&q.query)?;
        parallel::run_isolated(|| self.top_k_prepared(q, exec, scratch))
    }

    fn top_k_prepared(
        &self,
        q: &TopKQuery,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> TopKOutcome {
        crate::fault::maybe_inject_query_panic(q.query.b());
        match self.prepare(&q.query) {
            Ok((effective, nq)) => {
                let eff_q = TopKQuery {
                    query: effective.unwrap_or_else(|| q.query.clone()),
                    k: q.k,
                };
                let Some((pos, shift)) = self.select_index(&nq, eff_q.query.cmp()) else {
                    return self.top_k_scan(q, ScanReason::IndexUnavailable);
                };
                let (neighbors, stats) =
                    self.indices[pos].top_k_with(&eff_q, &nq, shift, &self.table, exec, scratch);
                TopKOutcome {
                    neighbors,
                    served_by: ServedBy::Index(pos),
                    stats,
                }
            }
            Err(reason) => self.top_k_scan(q, reason),
        }
    }

    /// [`Self::top_k`] with the Claim-3 pruning disabled (walks the entire
    /// accepting interval). Identical answers; exists for the
    /// `ablation-topk` benchmark.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn top_k_unpruned(&self, q: &TopKQuery) -> Result<TopKOutcome> {
        self.check_dim(&q.query)?;
        match self.prepare(&q.query) {
            Ok((effective, nq)) => {
                let eff_q = TopKQuery {
                    query: effective.unwrap_or_else(|| q.query.clone()),
                    k: q.k,
                };
                let Some((pos, shift)) = self.select_index(&nq, eff_q.query.cmp()) else {
                    return Ok(self.top_k_scan(q, ScanReason::IndexUnavailable));
                };
                let (neighbors, stats) =
                    self.indices[pos].top_k_unpruned(&eff_q, &nq, shift, &self.table);
                Ok(TopKOutcome {
                    neighbors,
                    served_by: ServedBy::Index(pos),
                    stats,
                })
            }
            Err(reason) => Ok(self.top_k_scan(q, reason)),
        }
    }

    /// Borrow the index at `pos`, paired with the table its keys are
    /// computed from (for diagnostics and ablation benches).
    pub fn index_at(&self, pos: usize) -> Option<IndexView<'_, S>> {
        self.indices
            .get(pos)
            .map(|idx| IndexView::new(idx, &self.table))
    }

    /// Is the point with this id present and not tombstoned?
    pub fn is_live(&self, id: PointId) -> bool {
        (id as usize) < self.table.len() && {
            let slot = self.table.slot_of(id) as usize;
            self.live[slot / BLOCK_ROWS] >> (slot % BLOCK_ROWS) & 1 == 1
        }
    }

    /// The best index position, interval bounds and effective comparison
    /// for a constraint, without touching any data — the planning step of
    /// the conjunction evaluator. `None` when the constraint cannot take
    /// the indexed path.
    pub(crate) fn constraint_plan(
        &self,
        q: &InequalityQuery,
    ) -> Option<(usize, crate::index::IntervalBounds, Cmp)> {
        match self.prepare(q) {
            Ok((effective, nq)) => {
                let cmp = effective.as_ref().unwrap_or(q).cmp();
                let (pos, shift) = self.select_index(&nq, cmp)?;
                let bounds = self.indices[pos].boundaries(&nq, shift, cmp, &self.table);
                Some((pos, bounds, cmp))
            }
            Err(_) => None,
        }
    }

    /// The normalizer fitted to this set's octant and data (for ablation
    /// benches that drive [`SingleIndex`] directly).
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Normalize a query for this set's octant, as the indexed path would.
    ///
    /// # Errors
    ///
    /// [`PlanarError::NotFinite`] when the query cannot take the indexed
    /// path (zero coefficient or octant mismatch).
    pub fn normalize_query(
        &self,
        q: &InequalityQuery,
    ) -> Result<(InequalityQuery, NormalizedQuery)> {
        self.check_dim(q)?;
        let (effective, nq) = self.prepare(q).map_err(|_| PlanarError::NotFinite)?;
        Ok((effective.unwrap_or_else(|| q.clone()), nq))
    }

    /// Algorithm 2 without an index: rank every satisfying live row (see
    /// [`Self::scan_live`]).
    fn top_k_scan(&self, q: &TopKQuery, reason: ScanReason) -> TopKOutcome {
        let (satisfying, quant, verified) = self.scan_live(&q.query);
        let mut buf = TopKBuffer::new(q.k);
        buf.offer_rows(&q.query, &self.table, &satisfying);
        let served_by = if matches!(reason, ScanReason::IndexUnavailable) {
            ServedBy::Degraded
        } else {
            ServedBy::ScanFallback
        };
        TopKOutcome {
            neighbors: buf.into_sorted(),
            served_by,
            stats: TopKStats {
                n: self.n_live,
                intermediate: self.n_live,
                walked: 0,
                verified,
                intersect_pruned: 0,
                quant,
            },
        }
    }

    /// Insert a new point: per index, `O(d'·log n)` to find its rank plus
    /// an `O(n)` shift of 4-byte ids.
    ///
    /// # Errors
    ///
    /// Table validation errors (arity, NaN).
    pub fn insert_point(&mut self, row: &[f64]) -> Result<PointId> {
        let id = self.table.push_row(row)?;
        // Growing the translation deltas only changes the query-time key
        // shift — keys are raw-space and unaffected (see
        // `planar_geom::translation` module docs).
        self.normalizer.absorb(row);
        // Quarantined indices are stale by definition; `rebuild_quarantined`
        // reconstructs them from the table, so mutations skip them.
        for (idx, &quar) in self.indices.iter_mut().zip(&self.quarantined) {
            if !quar {
                idx.insert_point(&self.table, id);
            }
        }
        let slot = self.table.slot_of(id) as usize;
        if slot / BLOCK_ROWS == self.live.len() {
            self.live.push(0);
        }
        self.live[slot / BLOCK_ROWS] |= 1 << (slot % BLOCK_ROWS);
        self.n_live += 1;
        Ok(id)
    }

    /// Update a point's feature row (paper §4.4).
    ///
    /// Keys are computed from rows, so the id leaves every index while its
    /// old row is still in the table, and rejoins once the new row is in.
    ///
    /// # Errors
    ///
    /// [`PlanarError::PointNotFound`] for unknown/deleted ids, plus table
    /// validation errors.
    pub fn update_point(&mut self, id: PointId, row: &[f64]) -> Result<()> {
        self.check_live(id)?;
        self.table.validate(row)?;
        for (idx, &quar) in self.indices.iter_mut().zip(&self.quarantined) {
            if !quar {
                idx.remove_point(&self.table, id);
            }
        }
        self.table
            .update_row(id, row)
            .expect("the id is live and the row validated");
        self.normalizer.absorb(row);
        for (idx, &quar) in self.indices.iter_mut().zip(&self.quarantined) {
            if !quar {
                idx.insert_point(&self.table, id);
            }
        }
        Ok(())
    }

    /// Delete a point. Its table row is tombstoned; it disappears from all
    /// indices and future query results.
    ///
    /// # Errors
    ///
    /// [`PlanarError::PointNotFound`] for unknown or already-deleted ids.
    pub fn delete_point(&mut self, id: PointId) -> Result<()> {
        self.check_live(id)?;
        for (idx, &quar) in self.indices.iter_mut().zip(&self.quarantined) {
            if !quar {
                idx.remove_point(&self.table, id);
            }
        }
        self.mark_deleted(id);
        Ok(())
    }

    /// Tombstone the row of a live id that no index holds any more.
    fn mark_deleted(&mut self, id: PointId) {
        let slot = self.table.slot_of(id) as usize;
        self.live[slot / BLOCK_ROWS] &= !(1 << (slot % BLOCK_ROWS));
        self.n_live -= 1;
    }

    /// Vacuum the set: rebuild the feature table with only live rows and
    /// reconstruct every index from it, dropping all tombstones. Point ids
    /// are *renumbered* in their old relative order — the returned map
    /// gives each old id its new id (`None` for tombstoned rows) — and the
    /// fresh table is laid out in k-d block order again
    /// ([`FeatureTable::cluster`]), so the tail blocks that inserts filled
    /// since the last clustering regain tight boxes. Quarantined indices
    /// are rebuilt from the fresh table as a side effect and leave
    /// quarantine.
    ///
    /// The normalizer is kept as-is: its translation only ever grows (see
    /// [`Normalizer::absorb`]), so a fit over a superset of the live rows
    /// stays valid and every raw-space key is unchanged — compacted
    /// answers are bit-identical, minus the dead rows.
    ///
    /// Rationale: `delete_point` tombstones forever, so the table keeps
    /// dead rows and scans walk them indefinitely. `O(budget · n log n)`,
    /// like a fresh build.
    pub fn compact(&mut self) -> Vec<Option<PointId>> {
        let mut remap: Vec<Option<PointId>> = vec![None; self.table.len()];
        // The dim and every retained row were validated when first added,
        // so reassembly cannot fail.
        let mut fresh = FeatureTable::with_capacity(self.table.dim(), self.n_live)
            .expect("dimension was validated at build");
        for (id, row) in self.table.iter() {
            if self.is_live(id) {
                let new_id = fresh.push_row(row).expect("row was validated when added");
                remap[id as usize] = Some(new_id);
            }
        }
        // The indices are rebuilt while the fresh table's slots are its
        // ids, so their keys come from rows in id order; clustering then
        // permutes the rows. The fresh table carries no quantized tier;
        // the size rule below encodes one over the compacted blocks when
        // the table keeps enough rows.
        for idx in &mut self.indices {
            idx.rebuild_from(&fresh, &[]);
        }
        fresh.cluster();
        self.table = fresh;
        self.live = live_words(&self.table, &[]);
        self.n_live = self.table.len();
        for flag in &mut self.quarantined {
            *flag = false;
        }
        self.retune_quantization();
        remap
    }

    /// [`Self::compact`] only when the tombstone fraction
    /// `dead / table rows` exceeds `threshold`; returns the id remap
    /// when a compaction ran.
    pub fn compact_if(&mut self, threshold: f64) -> Option<Vec<Option<PointId>>> {
        let total = self.table.len();
        let dead = total - self.n_live;
        if total == 0 || (dead as f64) / (total as f64) <= threshold {
            return None;
        }
        Some(self.compact())
    }

    /// Add one more Planar index with the given normalized-space normal;
    /// returns its position. `O(n log n)` (paper §4.4: "when we dynamically
    /// introduce a new Planar index").
    ///
    /// # Errors
    ///
    /// [`SingleIndex::build`] validation.
    pub fn add_index(&mut self, normal: Vec<f64>) -> Result<usize> {
        let idx = SingleIndex::build_live(&self.table, &self.normalizer, normal, &self.dead())?;
        self.indices.push(idx);
        self.quarantined.push(false);
        Ok(self.indices.len() - 1)
    }

    /// Drop the index at `pos` (e.g. when the query distribution drifted
    /// away from its normal). The last index cannot be removed.
    ///
    /// # Errors
    ///
    /// [`PlanarError::InvalidBudget`] when removing the last index,
    /// [`PlanarError::PointNotFound`] never; out-of-range `pos` yields
    /// [`PlanarError::DimensionMismatch`].
    pub fn remove_index(&mut self, pos: usize) -> Result<()> {
        if self.indices.len() <= 1 {
            return Err(PlanarError::InvalidBudget);
        }
        if pos >= self.indices.len() {
            return Err(PlanarError::DimensionMismatch {
                expected: self.indices.len(),
                found: pos,
            });
        }
        self.indices.remove(pos);
        self.quarantined.remove(pos);
        Ok(())
    }

    /// Is the index at `pos` quarantined (failed verification or loaded
    /// from a corrupt snapshot section)? Out-of-range positions are not
    /// quarantined.
    pub fn is_quarantined(&self, pos: usize) -> bool {
        self.quarantined.get(pos).copied().unwrap_or(false)
    }

    /// Positions of all quarantined indices, ascending.
    pub fn quarantined_positions(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(pos, &q)| q.then_some(pos))
            .collect()
    }

    /// Manually quarantine the index at `pos`: the planner routes queries
    /// around it until [`Self::rebuild_quarantined`] restores it. With
    /// every index quarantined, queries still answer exactly via the scan
    /// path (`ServedBy::Degraded`). Out-of-range positions are ignored.
    pub fn quarantine(&mut self, pos: usize) {
        if let Some(flag) = self.quarantined.get_mut(pos) {
            *flag = true;
        }
    }

    /// Run the self-check on every non-quarantined index without changing
    /// any state: id order against the computed keys, id liveness and
    /// entry counts (see [`SingleIndex::verify`]).
    pub fn verify_all(&self) -> HealthReport {
        let dead = self.dead();
        let indices = self
            .indices
            .iter()
            .enumerate()
            .map(|(pos, idx)| IndexHealth {
                pos,
                issues: if self.quarantined[pos] {
                    Vec::new()
                } else {
                    idx.verify(&self.table, &dead, self.n_live)
                },
            })
            .collect();
        HealthReport { indices }
    }

    /// [`Self::verify_all`], then quarantine every index that reported at
    /// least one issue. Returns the report so callers can log what failed;
    /// already-quarantined indices are left alone (their issues list is
    /// empty — they are known-bad and skipped).
    pub fn verify_and_quarantine(&mut self) -> HealthReport {
        let report = self.verify_all();
        for health in &report.indices {
            if !health.is_healthy() {
                self.quarantined[health.pos] = true;
            }
        }
        report
    }

    /// Rebuild every quarantined index from the feature table (the core
    /// data is always intact — see the `persist` module docs) and clear its
    /// flag. Returns the positions that were rebuilt, ascending.
    /// `O(n log n)` per rebuilt index, same as [`Self::add_index`].
    pub fn rebuild_quarantined(&mut self) -> Vec<usize> {
        let mut rebuilt = Vec::new();
        let dead = self.dead();
        for pos in 0..self.indices.len() {
            if self.quarantined[pos] {
                self.indices[pos].rebuild_from(&self.table, &dead);
                self.quarantined[pos] = false;
                rebuilt.push(pos);
            }
        }
        rebuilt
    }

    /// Replace the parameter domain and resample all indices — the paper's
    /// recommended response to query drift (§7.2.2: "it is more beneficial
    /// to dynamically update our indices based on the recent queries").
    ///
    /// # Errors
    ///
    /// Same as [`Self::build`].
    pub fn rebuild_for_domain(
        &mut self,
        domain: ParameterDomain,
        config: IndexConfig,
    ) -> Result<()> {
        let rebuilt = Self::build(self.table.clone(), domain, config)?;
        let dead = core::mem::replace(self, rebuilt).dead();
        // Reapply tombstones.
        for (id, _) in dead.iter().enumerate().filter(|(_, &dead)| dead) {
            for idx in &mut self.indices {
                idx.remove_point(&self.table, id as PointId);
            }
            self.mark_deleted(id as PointId);
        }
        Ok(())
    }

    fn check_dim(&self, q: &InequalityQuery) -> Result<()> {
        if q.dim() != self.table.dim() {
            return Err(PlanarError::DimensionMismatch {
                expected: self.table.dim(),
                found: q.dim(),
            });
        }
        Ok(())
    }

    /// The tombstone flag of every id, for the paths that rebuild or check
    /// whole indices.
    fn dead(&self) -> Vec<bool> {
        (0..self.table.len() as PointId)
            .map(|id| !self.is_live(id))
            .collect()
    }

    fn check_live(&self, id: PointId) -> Result<()> {
        if self.is_live(id) {
            Ok(())
        } else {
            Err(PlanarError::PointNotFound(id))
        }
    }
}

/// The live rows of `table` by slot, one word per 64-row block:
/// every row not marked in `dead` (a shorter `dead` leaves the rest
/// live).
pub(crate) fn live_words(table: &FeatureTable, dead: &[bool]) -> Vec<u64> {
    let n = table.len();
    let mut live = vec![0u64; n.div_ceil(BLOCK_ROWS)];
    for slot in 0..n {
        let id = table.id_at(slot as u32) as usize;
        if !dead.get(id).copied().unwrap_or(false) {
            live[slot / BLOCK_ROWS] |= 1 << (slot % BLOCK_ROWS);
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use rand::Rng;

    fn small_set(budget: usize) -> PlanarIndexSet {
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
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 3.0).unwrap();
        PlanarIndexSet::build(table, domain, IndexConfig::with_budget(budget)).unwrap()
    }

    #[test]
    fn build_validates() {
        let table = FeatureTable::from_rows(2, vec![vec![1.0, 1.0]]).unwrap();
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 3.0).unwrap();
        assert_eq!(
            PlanarIndexSet::<VecStore>::build(
                table.clone(),
                domain.clone(),
                IndexConfig::with_budget(0)
            )
            .unwrap_err(),
            PlanarError::InvalidBudget
        );
        let bad_domain = ParameterDomain::uniform_continuous(3, 0.5, 3.0).unwrap();
        assert!(
            PlanarIndexSet::<VecStore>::build(table, bad_domain, IndexConfig::with_budget(1))
                .is_err()
        );
    }

    #[test]
    fn query_matches_scan_on_both_cmps() {
        let set = small_set(8);
        for (a, b) in [(vec![1.0, 1.0], 5.0), (vec![2.5, 0.6], 4.0)] {
            for cmp in [Cmp::Leq, Cmp::Geq] {
                let q = InequalityQuery::new(a.clone(), cmp, b).unwrap();
                let idx = set.query(&q).unwrap();
                let scan = set.query_scan(&q).unwrap();
                assert!(idx.stats.used_index(), "{:?}", idx.stats.path);
                assert_eq!(idx.sorted_ids(), scan.sorted_ids());
            }
        }
    }

    #[test]
    fn zero_coefficient_falls_back_to_scan() {
        let set = small_set(4);
        let q = InequalityQuery::leq(vec![0.0, 1.0], 2.0).unwrap();
        let out = set.query(&q).unwrap();
        assert_eq!(
            out.stats.path,
            ExecutionPath::ScanFallback(ScanReason::ZeroCoefficient)
        );
        assert_eq!(out.sorted_ids(), vec![0, 3, 4]);
    }

    #[test]
    fn octant_mismatch_negates_or_scans() {
        let set = small_set(4);
        // a = (−1, −1): negating gives (1, 1) ≥ −b — in the indexed octant.
        let q = InequalityQuery::leq(vec![-1.0, -1.0], -5.0).unwrap();
        let out = set.query(&q).unwrap();
        assert!(out.stats.used_index());
        let scan = set.query_scan(&q).unwrap();
        assert_eq!(out.sorted_ids(), scan.sorted_ids());

        // a = (1, −1): neither it nor its negation matches (+,+).
        let q = InequalityQuery::leq(vec![1.0, -1.0], 0.0).unwrap();
        let out = set.query(&q).unwrap();
        assert_eq!(
            out.stats.path,
            ExecutionPath::ScanFallback(ScanReason::OctantMismatch)
        );
        assert_eq!(out.sorted_ids(), set.query_scan(&q).unwrap().sorted_ids());
    }

    #[test]
    fn dedup_removes_parallel_normals() {
        let table = FeatureTable::from_rows(2, vec![vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        // Discrete domain with a single value per axis: every sample is the
        // same normal.
        let domain = ParameterDomain::new(vec![
            Domain::Discrete(vec![2.0]),
            Domain::Discrete(vec![3.0]),
        ])
        .unwrap();
        let set =
            PlanarIndexSet::<VecStore>::build(table, domain, IndexConfig::with_budget(10)).unwrap();
        assert_eq!(set.num_indices(), 1, "parallel normals must be deduped");
    }

    #[test]
    fn dedup_can_be_disabled() {
        let table = FeatureTable::from_rows(2, vec![vec![1.0, 1.0]]).unwrap();
        let domain = ParameterDomain::new(vec![
            Domain::Discrete(vec![2.0]),
            Domain::Discrete(vec![3.0]),
        ])
        .unwrap();
        let set = PlanarIndexSet::<VecStore>::build(
            table,
            domain,
            IndexConfig::with_budget(10).dedup(false),
        )
        .unwrap();
        assert_eq!(set.num_indices(), 10);
    }

    #[test]
    fn strategies_agree_with_scan() {
        for strategy in [
            SelectionStrategy::MinStretch,
            SelectionStrategy::MinAngle,
            SelectionStrategy::OracleCount,
        ] {
            let table = FeatureTable::from_rows(
                2,
                (0..50)
                    .map(|i| vec![(i % 7) as f64 + 1.0, (i % 11) as f64 + 1.0])
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let domain = ParameterDomain::uniform_randomness(2, 4).unwrap();
            let set = PlanarIndexSet::<VecStore>::build(
                table,
                domain,
                IndexConfig::with_budget(6).strategy(strategy),
            )
            .unwrap();
            let q = InequalityQuery::leq(vec![2.0, 3.0], 25.0).unwrap();
            let idx = set.query(&q).unwrap();
            let scan = set.query_scan(&q).unwrap();
            assert_eq!(idx.sorted_ids(), scan.sorted_ids(), "{strategy:?}");
        }
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let mut set: PlanarIndexSet = {
            let table = FeatureTable::from_rows(2, vec![vec![1.0, 1.0], vec![5.0, 5.0]]).unwrap();
            let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
            PlanarIndexSet::build(table, domain, IndexConfig::with_budget(3)).unwrap()
        };
        let q = InequalityQuery::leq(vec![1.0, 1.0], 4.0).unwrap();
        assert_eq!(set.query(&q).unwrap().sorted_ids(), vec![0]);

        let id = set.insert_point(&[0.5, 0.5]).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.query(&q).unwrap().sorted_ids(), vec![0, id]);

        set.update_point(0, &[9.0, 9.0]).unwrap();
        assert_eq!(set.query(&q).unwrap().sorted_ids(), vec![id]);

        set.delete_point(id).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.query(&q).unwrap().sorted_ids().is_empty());
        assert_eq!(
            set.delete_point(id).unwrap_err(),
            PlanarError::PointNotFound(id)
        );
        // Scans must also skip tombstones.
        assert!(set.query_scan(&q).unwrap().sorted_ids().is_empty());
        // Top-k must also skip tombstones.
        let tk = TopKQuery::new(q.clone(), 5).unwrap();
        assert!(set.top_k(&tk).unwrap().neighbors.is_empty());
    }

    #[test]
    fn insert_outside_translation_range_stays_exact() {
        // Start with non-negative data, then insert a point with negative
        // coordinates: the normalizer deltas must grow and answers stay
        // exact. (Needs a domain octant that covers it — use a negative
        // second axis.)
        let table = FeatureTable::from_rows(2, vec![vec![1.0, -1.0], vec![2.0, -2.0]]).unwrap();
        let domain = ParameterDomain::new(vec![
            Domain::Continuous { lo: 0.5, hi: 2.0 },
            Domain::Continuous { lo: -2.0, hi: -0.5 },
        ])
        .unwrap();
        let mut set =
            PlanarIndexSet::<VecStore>::build(table, domain, IndexConfig::with_budget(4)).unwrap();
        let id = set.insert_point(&[-7.0, 5.0]).unwrap();
        for b in [-10.0, -3.0, 0.0, 3.0, 10.0] {
            let q = InequalityQuery::leq(vec![1.0, -1.0], b).unwrap();
            let idx = set.query(&q).unwrap();
            assert_eq!(
                idx.sorted_ids(),
                set.query_scan(&q).unwrap().sorted_ids(),
                "b={b}"
            );
        }
        let _ = id;
    }

    #[test]
    fn add_and_remove_index() {
        let mut set = small_set(2);
        assert_eq!(set.num_indices(), 2);
        let pos = set.add_index(vec![1.0, 1.0]).unwrap();
        assert_eq!(pos, 2);
        assert_eq!(set.num_indices(), 3);
        set.remove_index(0).unwrap();
        assert_eq!(set.num_indices(), 2);
        set.remove_index(0).unwrap();
        assert_eq!(set.remove_index(0).unwrap_err(), PlanarError::InvalidBudget);
        // Still answers correctly with one index.
        let q = InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap();
        assert_eq!(
            set.query(&q).unwrap().sorted_ids(),
            set.query_scan(&q).unwrap().sorted_ids()
        );
    }

    #[test]
    fn added_index_respects_tombstones() {
        let mut set = small_set(1);
        set.delete_point(2).unwrap();
        set.add_index(vec![1.0, 2.0]).unwrap();
        let q = InequalityQuery::geq(vec![1.0, 1.0], 0.0).unwrap(); // everything
        let ids = set.query(&q).unwrap().sorted_ids();
        assert_eq!(ids, vec![0, 1, 3, 4]);
    }

    #[test]
    fn rebuild_for_domain_preserves_tombstones() {
        let mut set = small_set(2);
        set.delete_point(1).unwrap();
        let new_domain = ParameterDomain::uniform_randomness(2, 4).unwrap();
        set.rebuild_for_domain(new_domain, IndexConfig::with_budget(5))
            .unwrap();
        assert_eq!(set.len(), 4);
        let q = InequalityQuery::geq(vec![1.0, 1.0], 0.0).unwrap();
        assert_eq!(set.query(&q).unwrap().sorted_ids(), vec![0, 2, 3, 4]);
    }

    #[test]
    fn top_k_matches_scan_top_k() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.random_range(1.0..100.0), rng.random_range(1.0..100.0)])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_randomness(2, 4).unwrap();
        let set =
            PlanarIndexSet::<VecStore>::build(table.clone(), domain, IndexConfig::with_budget(10))
                .unwrap();
        let scan = crate::scan::SeqScan::new(&table);
        for k in [1, 5, 50, 500] {
            let q =
                TopKQuery::new(InequalityQuery::leq(vec![2.0, 3.0], 300.0).unwrap(), k).unwrap();
            let got = set.top_k(&q).unwrap();
            let want = scan.top_k(&q).unwrap();
            assert_eq!(got.neighbors, want, "k={k}");
        }
    }

    #[test]
    fn memory_usage_grows_with_budget() {
        let a = small_set(1).memory_usage();
        let b = small_set(10).memory_usage();
        assert!(b > a);
    }

    #[test]
    fn stats_report_full_pruning_for_parallel_query() {
        let rows: Vec<Vec<f64>> = (1..=100)
            .map(|i| vec![i as f64, (101 - i) as f64])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_randomness(2, 2).unwrap();
        // RQ=2 in 2-d: only 4 possible normals; budget 8 covers all of them.
        let set =
            PlanarIndexSet::<VecStore>::build(table, domain, IndexConfig::with_budget(8)).unwrap();
        let q = InequalityQuery::leq(vec![2.0, 1.0], 150.0).unwrap();
        let out = set.query(&q).unwrap();
        assert!(out.stats.used_index());
        // A parallel index exists, so pruning should be (near-)total.
        assert!(
            out.stats.pruning_percentage() > 95.0,
            "pruning {}",
            out.stats.pruning_percentage()
        );
        assert_eq!(out.sorted_ids(), set.query_scan(&q).unwrap().sorted_ids());
    }

    #[test]
    fn quarantine_routes_queries_around_bad_index() {
        let mut set = small_set(4);
        let q = InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap();
        let before = set.query(&q).unwrap();
        let ServedBy::Index(best) = before.served_by else {
            panic!("expected indexed serving, got {:?}", before.served_by);
        };

        set.quarantine(best);
        assert!(set.is_quarantined(best));
        assert_eq!(set.quarantined_positions(), vec![best]);

        let after = set.query(&q).unwrap();
        match after.served_by {
            ServedBy::Index(pos) => assert_ne!(pos, best, "quarantined index still selected"),
            other => panic!("expected another index to serve, got {other:?}"),
        }
        assert_eq!(after.sorted_ids(), before.sorted_ids());
    }

    #[test]
    fn all_quarantined_degrades_to_exact_scan() {
        let mut set = small_set(4);
        for pos in 0..set.num_indices() {
            set.quarantine(pos);
        }

        let q = InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap();
        let out = set.query(&q).unwrap();
        assert_eq!(out.served_by, ServedBy::Degraded);
        assert_eq!(
            out.stats.path,
            ExecutionPath::ScanFallback(ScanReason::IndexUnavailable)
        );
        assert_eq!(out.sorted_ids(), set.query_scan(&q).unwrap().sorted_ids());

        let tk = TopKQuery::new(q.clone(), 3).unwrap();
        let top = set.top_k(&tk).unwrap();
        assert_eq!(top.served_by, ServedBy::Degraded);
        let want = crate::scan::SeqScan::new(set.table()).top_k(&tk).unwrap();
        assert_eq!(top.neighbors, want);
    }

    #[test]
    fn mutations_skip_quarantined_and_rebuild_restores() {
        let mut set = small_set(3);
        set.quarantine(0);

        // Mutations while index 0 is out of service.
        let id = set.insert_point(&[2.5, 2.5]).unwrap();
        set.update_point(id, &[2.6, 2.4]).unwrap();
        set.delete_point(0).unwrap();

        let rebuilt = set.rebuild_quarantined();
        assert_eq!(rebuilt, vec![0]);
        assert!(set.quarantined_positions().is_empty());

        // The rebuilt index reflects the mutations it missed: every index
        // now verifies clean and answers match the scan.
        let report = set.verify_all();
        assert!(report.healthy(), "{:?}", report.failing_positions());
        let q = InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap();
        assert_eq!(
            set.query(&q).unwrap().sorted_ids(),
            set.query_scan(&q).unwrap().sorted_ids()
        );
    }

    #[test]
    fn verify_and_quarantine_flags_stale_index() {
        let mut set = small_set(3);
        // Stale an index by mutating while it is quarantined, then clearing
        // the flag without rebuilding (simulating silent corruption).
        set.quarantine(1);
        set.insert_point(&[2.0, 2.0]).unwrap();
        set.quarantined[1] = false;

        let report = set.verify_and_quarantine();
        assert_eq!(report.failing_positions(), vec![1]);
        assert_eq!(set.quarantined_positions(), vec![1]);

        // Quarantined again → answers stay exact, and a rebuild clears it.
        let q = InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap();
        assert_eq!(
            set.query(&q).unwrap().sorted_ids(),
            set.query_scan(&q).unwrap().sorted_ids()
        );
        assert_eq!(set.rebuild_quarantined(), vec![1]);
        assert!(set.verify_all().healthy());
    }

    #[test]
    fn verify_and_quarantine_flags_swapped_ids() {
        // Corrupt an index by swapping its first and last ids: the id
        // order no longer follows the keys computed from the rows.
        let mut set = small_set(3);
        let idx = &set.indices[1];
        let mut ids = idx.ids().to_vec();
        let last = ids.len() - 1;
        ids.swap(0, last);
        let raw_normal = set.normalizer.raw_normal(idx.normal());
        set.indices[1] = SingleIndex::from_parts(
            idx.normal().to_vec(),
            raw_normal,
            VecStore::from_sorted_ids(ids),
        );

        let report = set.verify_and_quarantine();
        assert_eq!(report.failing_positions(), vec![1]);
        assert!(matches!(
            report.indices[1].issues[0],
            crate::health::HealthIssue::UnsortedKeys { .. }
        ));
        assert_eq!(set.quarantined_positions(), vec![1]);
        let table = set.table().clone();
        let scan = crate::scan::SeqScan::new(&table);
        for strategy in [
            SelectionStrategy::MinStretch,
            SelectionStrategy::OracleCount,
        ] {
            set.set_strategy(strategy);
            for (a, b) in [
                (vec![1.0, 1.0], 5.0),
                (vec![2.0, 0.5], 6.0),
                (vec![0.5, 3.0], 9.0),
            ] {
                for cmp in [Cmp::Leq, Cmp::Geq] {
                    let q = InequalityQuery::new(a.clone(), cmp, b).unwrap();
                    let out = set.query(&q).unwrap();
                    assert_ne!(out.served_by, ServedBy::Index(1));
                    assert_eq!(
                        out.sorted_ids(),
                        scan.evaluate(&q).unwrap(),
                        "{a:?} {cmp:?} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_isolation_surfaces_poisoned_query_without_losing_others() {
        let set = small_set(4);
        let poison_b = 123.456_789_25;
        let qs = vec![
            InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap(),
            InequalityQuery::leq(vec![1.0, 1.0], poison_b).unwrap(),
            InequalityQuery::leq(vec![1.0, 1.0], 9.0).unwrap(),
        ];
        crate::fault::arm_query_panic(poison_b);
        let results = set.query_batch_isolated(&qs, &ExecutionConfig::serial());
        crate::fault::disarm_query_panic();

        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(PlanarError::Internal(_))));
        assert!(results[2].is_ok());

        // The all-or-nothing wrapper propagates the poisoned slot as Err.
        crate::fault::arm_query_panic(poison_b);
        let whole = set.query_batch(&qs, &ExecutionConfig::serial());
        crate::fault::disarm_query_panic();
        assert!(matches!(whole, Err(PlanarError::Internal(_))));
    }

    #[test]
    fn expired_deadline_yields_partial_placeholders() {
        use std::time::Duration;
        let set = small_set(4);
        let qs: Vec<InequalityQuery> = [3.0, 5.0, 7.0, 9.0]
            .iter()
            .map(|&b| InequalityQuery::leq(vec![1.0, 1.0], b).unwrap())
            .collect();
        for threads in [1, 3] {
            let exec = ExecutionConfig::with_threads(threads).with_deadline(Duration::ZERO);
            let events_before = parallel::deadline_events();
            let outs = set.query_batch(&qs, &exec).unwrap();
            assert!(parallel::deadline_events() >= events_before + qs.len() as u64);
            for out in &outs {
                assert_eq!(
                    out.served_by,
                    ServedBy::Partial {
                        completed: 0,
                        deadline_hit: true
                    }
                );
                assert!(out.matches.is_empty());
                assert_eq!(out.stats.verified, 0);
                assert_eq!(
                    out.stats.path,
                    ExecutionPath::ScanFallback(ScanReason::DeadlineExceeded)
                );
            }
            let tops: Vec<TopKQuery> = qs
                .iter()
                .map(|q| TopKQuery::new(q.clone(), 2).unwrap())
                .collect();
            let outs = set.top_k_batch(&tops, &exec).unwrap();
            assert!(outs.iter().all(|o| o.served_by.is_partial()
                && o.neighbors.is_empty()
                && o.stats.verified == 0));
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        use std::time::Duration;
        let set = small_set(4);
        let qs: Vec<InequalityQuery> = [3.0, 5.0, 7.0]
            .iter()
            .map(|&b| InequalityQuery::leq(vec![1.0, 1.0], b).unwrap())
            .collect();
        let plain = set.query_batch(&qs, &ExecutionConfig::serial()).unwrap();
        let exec = ExecutionConfig::serial().with_deadline(Duration::from_secs(3600));
        let budgeted = set.query_batch(&qs, &exec).unwrap();
        assert_eq!(plain, budgeted);
        assert!(budgeted.iter().all(|o| !o.served_by.is_partial()));
    }
}
