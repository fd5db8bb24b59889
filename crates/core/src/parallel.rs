//! Parallel execution scaffolding: thread configuration, reusable query
//! scratch space, and the blocked / chunked verification kernels shared by
//! Algorithm 1 and Algorithm 2.
//!
//! ## Determinism contract
//!
//! Every parallel path in this crate returns results **bit-identical to and
//! identically ordered with** its serial counterpart, for any thread count:
//!
//! * Intermediate-interval (II) candidates are held as a bitmap with one
//!   word per 64-row block ([`QueryScratch`]) and verified in ascending-id
//!   order. Splitting the bitmap into contiguous word ranges and
//!   concatenating the per-range matches in range order reproduces the
//!   serial order exactly.
//! * Scalar products go through the columnar SIMD kernels
//!   ([`planar_geom::dot_cmp_block`] / [`planar_geom::dot_block_cols`]) for
//!   dense blocks and the row-at-a-time [`planar_geom::dot_slices`] for
//!   sparse ones; the kernels' per-lane accumulation is bit-identical to
//!   `dot_slices` regardless of the dispatched implementation (AVX2 or
//!   portable — see `planar_geom::kernels`), so the split never changes a
//!   verdict or a distance.
//! * Top-k merging relies on the total `(distance, id)` order of the top-k
//!   buffer, which makes its contents independent of candidate arrival
//!   order.
//!
//! Work is distributed over `std::thread::scope` — no thread pool, no extra
//! dependencies; workers borrow the index and table immutably.

use crate::quant::{BlockClass, QuantFilter, QuantFilterStats};
use crate::query::{Cmp, InequalityQuery};
use crate::scan::TopKBuffer;
use crate::table::{ColSegment, FeatureTable, PointId};
use crate::{PlanarError, Result};
use planar_geom::{dot_block_cols, dot_cmp_block, dot_slices, BLOCK_ROWS};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Minimum candidate lanes in a block for one whole-block verification
/// pass (quantized classify, or one exact kernel when the tier is off);
/// sparser blocks verify each candidate on its row (see
/// [`verify_mask_blocked`]).
const QUANT_MIN_SEGMENT_LANES: usize = 16;

/// Default minimum II size before a single query's verification is split
/// across threads. Below this, fan-out overhead exceeds the win.
pub const DEFAULT_PARALLEL_VERIFY_THRESHOLD: usize = 8192;

/// Counts clamp events: how many times a requested thread count of 0, or
/// one exceeding the work available, was clamped by [`batch_plan`] /
/// worker planning. See [`thread_clamp_events`].
static THREAD_CLAMP_EVENTS: AtomicU64 = AtomicU64::new(0);

/// How many times an [`ExecutionConfig`] thread count was clamped because
/// it was 0 or exceeded the batch/work size. A monotonically increasing
/// process-wide debug counter: a non-zero, growing value means callers are
/// configuring more workers than there is work (or zero workers), which is
/// handled cleanly but worth fixing at the call site.
pub fn thread_clamp_events() -> u64 {
    THREAD_CLAMP_EVENTS.load(Ordering::Relaxed)
}

/// Clamp a requested worker count to `[1, available]`, counting the event
/// when the request was out of range (0 or more workers than work items).
pub(crate) fn clamp_workers(requested: usize, available: usize) -> usize {
    let clamped = requested.min(available).max(1);
    if clamped != requested {
        THREAD_CLAMP_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
    clamped
}

/// Counts queries skipped because a batch's deadline expired before they
/// started. See [`deadline_events`].
static DEADLINE_EVENTS: AtomicU64 = AtomicU64::new(0);

/// How many queries, process-wide, came back as
/// [`crate::ServedBy::Partial`] placeholders because their batch's
/// [`ExecutionConfig::deadline`] expired before they ran. Monotonically
/// increasing; a growing value means batches are regularly overrunning
/// their budget and callers should shrink batches, raise the budget, or
/// add threads.
pub fn deadline_events() -> u64 {
    DEADLINE_EVENTS.load(Ordering::Relaxed)
}

pub(crate) fn record_deadline_events(skipped: u64) {
    if skipped > 0 {
        DEADLINE_EVENTS.fetch_add(skipped, Ordering::Relaxed);
    }
}

/// Poll-based wall-clock budget for one batch call. Created once at batch
/// entry; [`Self::expired`] costs one `Instant::now()` and is only called
/// at chunk boundaries (before each query), never inside the verification
/// hot loop. With no deadline configured it never reads the clock at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeadlineGuard {
    started: Option<Instant>,
    budget: Duration,
}

impl DeadlineGuard {
    pub(crate) fn new(deadline: Option<Duration>) -> Self {
        Self {
            started: deadline.is_some().then(Instant::now),
            budget: deadline.unwrap_or_default(),
        }
    }

    /// Has the budget been spent? `false` forever when unbounded.
    #[inline]
    pub(crate) fn expired(&self) -> bool {
        match self.started {
            Some(t0) => t0.elapsed() >= self.budget,
            None => false,
        }
    }
}

/// Run `f`, converting a panic into a typed [`PlanarError::Internal`]
/// carrying the panic message — the per-query isolation primitive behind
/// the `*_batch` APIs: one poisoned query must not abort its batch.
pub(crate) fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panicked".to_string()
        };
        PlanarError::Internal(msg)
    })
}

/// Thread-count and crossover configuration for the parallel query engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Number of worker threads; `1` means fully serial execution.
    pub threads: usize,
    /// Minimum intermediate-interval size before one query's verification
    /// is chunked across threads.
    pub parallel_verify_threshold: usize,
    /// Wall-clock budget for a whole batch call (`None` = unbounded).
    /// Polled at chunk boundaries only — one `Instant::now()` per query,
    /// never inside the verification hot loop. Queries not started when
    /// the budget expires come back as
    /// [`crate::ServedBy::Partial`] placeholders with empty results
    /// instead of stalling the batch (see
    /// [`crate::PlanarIndexSet::query_batch`]).
    pub deadline: Option<Duration>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl ExecutionConfig {
    /// Fully serial execution (one thread).
    pub fn serial() -> Self {
        Self {
            threads: 1,
            parallel_verify_threshold: DEFAULT_PARALLEL_VERIFY_THRESHOLD,
            deadline: None,
        }
    }

    /// Execution over `threads` worker threads (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::serial()
        }
    }

    /// One thread per available CPU (falls back to serial if the platform
    /// cannot report parallelism).
    pub fn available_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// Override the II crossover threshold (builder style).
    pub fn verify_threshold(mut self, threshold: usize) -> Self {
        self.parallel_verify_threshold = threshold.max(1);
        self
    }

    /// Set a wall-clock budget for batch calls (builder style). See the
    /// [`Self::deadline`] field for partial-result semantics.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// True when this configuration may spawn worker threads.
    #[inline]
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

/// Reusable per-worker buffers for the query hot loop.
///
/// Algorithms 1 and 2 hold the intermediate-interval (II) candidate set
/// here as a bitmap with one `u64` word per [`BLOCK_ROWS`]-row block of the
/// table's columnar mirror: bit `l` of word `w` is row `w·BLOCK_ROWS + l`.
/// Setting bits straight from the store's key-order walk and reading the
/// words in order yields ascending ids in `O(m + n/64)` with no sort, and
/// each word is exactly the candidate mask of one block for the verification
/// kernels. A scratch threaded through a batch of queries makes the
/// verification loop allocation-free once its buffers have grown to the
/// table's size.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// II candidate bitmap, one word per block of the columnar mirror.
    pub(crate) mask: Vec<u64>,
    /// Blocked scalar-product outputs of one block (top-k).
    pub(crate) dots: Vec<f64>,
}

impl QueryScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for tables of up to `capacity` rows, so the first
    /// query allocates nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            mask: Vec::with_capacity(capacity.div_ceil(BLOCK_ROWS)),
            dots: Vec::with_capacity(BLOCK_ROWS),
        }
    }

    /// Reset the bitmap to the candidate set `ids` over a table of `rows`
    /// rows. Returns the word range `[lo, hi)` outside which every word is
    /// zero (empty when `ids` is).
    pub(crate) fn fill(&mut self, rows: usize, ids: impl Iterator<Item = PointId>) -> Range<usize> {
        self.mask.clear();
        self.mask.resize(rows.div_ceil(BLOCK_ROWS), 0);
        let (mut lo, mut hi) = (usize::MAX, 0);
        for id in ids {
            let w = id as usize / BLOCK_ROWS;
            self.mask[w] |= 1u64 << (id as usize % BLOCK_ROWS);
            lo = lo.min(w);
            hi = hi.max(w + 1);
        }
        lo.min(hi)..hi
    }
}

/// Split `items` into `workers` contiguous chunks, apply `f(start, chunk)`
/// to each chunk on its own scoped thread (`start` is the chunk's offset in
/// `items`), and return the per-chunk results in chunk order. `workers`
/// must be ≥ 2 and `items` non-empty.
pub(crate) fn map_chunks<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &[I]) -> T + Sync,
{
    let chunk_len = items.len().div_ceil(workers.max(1)).max(1);
    let chunks: Vec<(usize, &[I])> = items
        .chunks(chunk_len)
        .enumerate()
        .map(|(i, chunk)| (i * chunk_len, chunk))
        .collect();
    let mut results: Vec<Option<T>> = Vec::with_capacity(chunks.len());
    results.resize_with(chunks.len(), || None);
    let f = &f;
    std::thread::scope(|s| {
        for (slot, &(start, chunk)) in results.iter_mut().zip(&chunks) {
            s.spawn(move || {
                *slot = Some(f(start, chunk));
            });
        }
    });
    // Unreachable in practice: `thread::scope` re-raises any worker panic
    // at the join above, so every slot is filled here. Batch callers wrap
    // per-item work in `run_isolated`, which keeps worker panics from ever
    // reaching the scope join.
    results
        .into_iter()
        .map(|r| r.expect("scope join guarantees completion"))
        .collect()
}

/// Block `w`'s first row id, row count (`BLOCK_ROWS` except in the last,
/// partial block) and columnar storage.
fn block(table: &FeatureTable, w: usize) -> (PointId, usize, ColSegment<'_>) {
    let first = (w * BLOCK_ROWS) as PointId;
    let lanes = (table.len() - w * BLOCK_ROWS).min(BLOCK_ROWS);
    let seg = table
        .columns()
        .segments(first, first + lanes as PointId)
        .next();
    (first, lanes, seg.expect("a non-empty block has a segment"))
}

/// Verify a window of the candidate bitmap against `query`, pushing
/// satisfying ids onto `out` in ascending-id order. `words[i]` is the
/// candidate mask of block `first_word + i`. Every candidate is verified,
/// block by block:
///
/// * a block with at least [`QUANT_MIN_SEGMENT_LANES`] candidates gets one
///   whole-block pass — the quantized classifier when the tier is on, else
///   one fused [`dot_cmp_block`] — AND-ed with its candidate mask (see
///   [`dense_block_mask`]);
/// * a sparser block verifies each candidate on its row-major row (see
///   [`rowwise_mask`]): about one cache line per lane at `d ≤ 8`, where a
///   columnar pass touches `d` lines for every run of lanes, however short.
///
/// The emitted ids are identical to checking every candidate row by row.
/// Returns the quantized-filter counters (all zeros when the tier is off).
pub(crate) fn verify_mask_blocked(
    query: &InequalityQuery,
    table: &FeatureTable,
    words: &[u64],
    first_word: usize,
    out: &mut Vec<PointId>,
) -> QuantFilterStats {
    let mut stats = QuantFilterStats::default();
    let mut filter = table.quant().map(|q| {
        stats.tier = q.tier();
        QuantFilter::new(query, q)
    });
    for (i, &cand) in words.iter().enumerate() {
        if cand == 0 {
            continue;
        }
        let w = first_word + i;
        let base = (w * BLOCK_ROWS) as PointId;
        let lanes = cand.count_ones() as usize;
        let mut mask = if lanes >= QUANT_MIN_SEGMENT_LANES {
            dense_block_mask(query, table, w, cand, filter.as_mut(), &mut stats)
        } else {
            // Too few lanes to amortize a classify dispatch: counting them
            // as fallback tells the autotuner the filter isn't engaging.
            if filter.is_some() {
                stats.lanes += lanes;
                stats.fallback += lanes;
            }
            rowwise_mask(query, table, base, cand)
        };
        while mask != 0 {
            out.push(base + mask.trailing_zeros());
            mask &= mask - 1;
        }
    }
    stats
}

/// Exact predicate mask of the lanes `lanes` of the block starting at row
/// `first`, settling each lane with the row-wise reference dot (the
/// definition of the exact answer).
fn rowwise_mask(query: &InequalityQuery, table: &FeatureTable, first: PointId, lanes: u64) -> u64 {
    let mut mask = 0;
    let mut m = lanes;
    while m != 0 {
        let l = m.trailing_zeros();
        if query.satisfies_dot(dot_slices(query.a(), table.row(first + l))) {
            mask |= 1u64 << l;
        }
        m &= m - 1;
    }
    mask
}

/// Predicate mask of the candidate lanes `cand` of block `w` from one
/// whole-block pass. Bits outside `cand` are clear; the result is
/// bit-identical to [`rowwise_mask`].
///
/// With a quantized tier, the block is classified in fixed point: lanes
/// it proves in or out are settled without touching `f64` rows, and only
/// the candidate lanes of the uncertainty band are re-verified at full
/// precision (one whole-block kernel when the band is dense, per-lane
/// [`dot_slices`] when sparse). The result equals the pure `f64` mask by
/// the classifier's soundness contract, which the debug assertions below
/// check directly.
fn dense_block_mask(
    query: &InequalityQuery,
    table: &FeatureTable,
    w: usize,
    cand: u64,
    filter: Option<&mut QuantFilter<'_>>,
    stats: &mut QuantFilterStats,
) -> u64 {
    let leq = query.cmp() == Cmp::Leq;
    let (first, lanes, seg) = block(table, w);
    let exact = || dot_cmp_block(query.a(), seg.cols, BLOCK_ROWS, lanes, query.b(), leq) & cand;
    let Some(filter) = filter else {
        return exact();
    };
    let cand_lanes = cand.count_ones() as usize;
    stats.lanes += cand_lanes;
    match filter.classify(first, lanes) {
        BlockClass::Fallback => {
            stats.fallback += cand_lanes;
            exact()
        }
        BlockClass::Classified { accept, reject } => {
            let (accept, reject) = (accept & cand, reject & cand);
            let band = cand & !(accept | reject);
            let band_lanes = band.count_ones() as usize;
            stats.accepted += accept.count_ones() as usize;
            stats.rejected += reject.count_ones() as usize;
            stats.reverified += band_lanes;
            if band_lanes == 0 {
                return accept;
            }
            if band_lanes * 4 >= cand_lanes {
                // Dense band: one whole-block kernel pass costs less than
                // gathering rows lane by lane. Soundness makes the results
                // interchangeable: accept ⊆ exact and reject ∩ exact = ∅.
                let exact = exact();
                debug_assert_eq!(accept & !exact, 0, "quant accept disagrees with f64 path");
                debug_assert_eq!(reject & exact, 0, "quant reject disagrees with f64 path");
                return exact;
            }
            // Sparse band: settle each uncertain lane on its row.
            accept | rowwise_mask(query, table, first, band)
        }
    }
}

/// Inequality-query II verification of a bitmap window (see
/// [`verify_mask_blocked`]): serial, or split on word boundaries across
/// `exec.threads` workers when the `candidates` count crosses
/// `exec.parallel_verify_threshold`. Per-chunk matches are concatenated in
/// chunk order, so the output is ascending-id either way (see module
/// docs).
pub(crate) fn verify_mask(
    query: &InequalityQuery,
    table: &FeatureTable,
    words: &[u64],
    first_word: usize,
    candidates: usize,
    exec: &ExecutionConfig,
    out: &mut Vec<PointId>,
) -> QuantFilterStats {
    if !(exec.is_parallel() && candidates >= exec.parallel_verify_threshold.max(2)) {
        return verify_mask_blocked(query, table, words, first_word, out);
    }
    let workers = exec.threads.min(words.len());
    let per_chunk = map_chunks(words, workers, |start, chunk| {
        let mut local = Vec::new();
        let stats = verify_mask_blocked(query, table, chunk, first_word + start, &mut local);
        (local, stats)
    });
    let mut stats = QuantFilterStats::default();
    for (part, part_stats) in per_chunk {
        out.extend_from_slice(&part);
        stats.merge(&part_stats);
    }
    stats
}

/// Top-k II verification of a bitmap window: every candidate feeds the
/// top-k buffer serially, or per-chunk buffers (split on word boundaries)
/// are merged when the `candidates` count crosses the threshold. Buffer
/// contents are arrival-order independent, so both paths yield identical
/// results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_top_k(
    query: &InequalityQuery,
    table: &FeatureTable,
    words: &[u64],
    first_word: usize,
    candidates: usize,
    exec: &ExecutionConfig,
    dots: &mut Vec<f64>,
    buffer: &mut TopKBuffer,
) {
    if !(exec.is_parallel() && candidates >= exec.parallel_verify_threshold.max(2)) {
        return verify_top_k_blocked(query, table, words, first_word, dots, buffer);
    }
    let k = buffer.k();
    let workers = exec.threads.min(words.len());
    let per_chunk = map_chunks(words, workers, |start, chunk| {
        let (mut local_dots, mut local_buf) = (Vec::new(), TopKBuffer::new(k));
        verify_top_k_blocked(
            query,
            table,
            chunk,
            first_word + start,
            &mut local_dots,
            &mut local_buf,
        );
        local_buf
    });
    for part in per_chunk {
        buffer.merge(part);
    }
}

/// Serial blocked top-k verification of a bitmap window. Unlike the
/// inequality path, top-k ranking needs the raw scalar products: a block
/// with at least [`QUANT_MIN_SEGMENT_LANES`] candidates computes all of
/// them with one [`dot_block_cols`] into the `dots` scratch, a sparser
/// block one [`dot_slices`] per candidate row. Both are bit-identical to
/// the row-at-a-time product (see module docs).
fn verify_top_k_blocked(
    query: &InequalityQuery,
    table: &FeatureTable,
    words: &[u64],
    first_word: usize,
    dots: &mut Vec<f64>,
    buffer: &mut TopKBuffer,
) {
    dots.resize(BLOCK_ROWS, 0.0);
    for (i, &cand) in words.iter().enumerate() {
        if cand == 0 {
            continue;
        }
        let w = first_word + i;
        let dense = cand.count_ones() as usize >= QUANT_MIN_SEGMENT_LANES;
        let first = (w * BLOCK_ROWS) as PointId;
        if dense {
            let (_, lanes, seg) = block(table, w);
            dot_block_cols(query.a(), seg.cols, BLOCK_ROWS, &mut dots[..lanes]);
        }
        let mut m = cand;
        while m != 0 {
            let l = m.trailing_zeros();
            let dot = if dense {
                dots[l as usize]
            } else {
                dot_slices(query.a(), table.row(first + l))
            };
            if query.satisfies_dot(dot) {
                buffer.offer(query.distance_from_dot(dot), first + l);
            }
            m &= m - 1;
        }
    }
}

/// Sharding plan for a batch of queries: how many workers a batch of
/// `batch_len` queries uses under `exec`, and how many threads remain for
/// intra-query verification inside each worker.
pub(crate) fn batch_plan(exec: &ExecutionConfig, batch_len: usize) -> (usize, ExecutionConfig) {
    let workers = clamp_workers(exec.threads, batch_len);
    let inner = ExecutionConfig {
        threads: (exec.threads / workers).max(1),
        ..*exec
    };
    (workers, inner)
}

/// Fan-out plan for a sharded set: how many workers take whole shards
/// under `exec`, and how many threads remain for each shard's own batch
/// engine inside a worker. The shard loop is the outer parallel dimension
/// (shards share nothing), so it gets first claim on the threads.
pub(crate) fn shard_plan(exec: &ExecutionConfig, shards: usize) -> (usize, ExecutionConfig) {
    let workers = clamp_workers(exec.threads, shards);
    let inner = ExecutionConfig {
        threads: (exec.threads / workers).max(1),
        ..*exec
    };
    (workers, inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Cmp;

    fn table(n: usize) -> FeatureTable {
        FeatureTable::from_rows(
            2,
            (0..n).map(|i| vec![i as f64 * 0.5, (n - i) as f64 * 0.25]),
        )
        .unwrap()
    }

    fn query() -> InequalityQuery {
        InequalityQuery::new(vec![1.0, 2.0], Cmp::Leq, 60.0).unwrap()
    }

    #[test]
    fn config_defaults_are_serial() {
        let c = ExecutionConfig::default();
        assert_eq!(c.threads, 1);
        assert!(!c.is_parallel());
        assert_eq!(
            c.parallel_verify_threshold,
            DEFAULT_PARALLEL_VERIFY_THRESHOLD
        );
        assert_eq!(ExecutionConfig::with_threads(0).threads, 1);
        assert!(ExecutionConfig::available_parallelism().threads >= 1);
        assert_eq!(
            ExecutionConfig::serial()
                .verify_threshold(0)
                .parallel_verify_threshold,
            1
        );
        assert_eq!(c.deadline, None);
        assert_eq!(
            ExecutionConfig::serial()
                .with_deadline(std::time::Duration::from_millis(5))
                .deadline,
            Some(std::time::Duration::from_millis(5))
        );
    }

    #[test]
    fn deadline_guard_semantics() {
        let unbounded = DeadlineGuard::new(None);
        assert!(!unbounded.expired());
        let spent = DeadlineGuard::new(Some(Duration::ZERO));
        assert!(spent.expired());
        let generous = DeadlineGuard::new(Some(Duration::from_secs(3600)));
        assert!(!generous.expired());
    }

    /// Candidate bitmap of `ids` over a table of `rows` rows.
    fn bitmap(rows: usize, ids: &[PointId]) -> Vec<u64> {
        let mut scratch = QueryScratch::new();
        scratch.fill(rows, ids.iter().copied());
        scratch.mask
    }

    #[test]
    fn fill_sets_exactly_the_candidate_bits() {
        let mut scratch = QueryScratch::new();
        let words = scratch.fill(200, [130u32, 3, 64, 199].into_iter());
        assert_eq!(words, 0..4);
        assert_eq!(scratch.mask, vec![1 << 3, 1, 1 << 2, 1 << 7]);
        // A refill starts from an empty set, whatever the last query left.
        assert_eq!(scratch.fill(200, [70u32].into_iter()), 1..2);
        assert_eq!(scratch.mask, vec![0, 1 << 6, 0, 0]);
        assert!(scratch.fill(200, std::iter::empty()).is_empty());
    }

    #[test]
    fn blocked_verification_matches_rowwise() {
        // 500 rows: the last block is partial. Every third point (sparse
        // blocks, runs of one lane) plus a contiguous tail (dense blocks).
        let t = table(500);
        let q = query();
        let ids: Vec<PointId> = (0..500u32).filter(|i| i % 3 == 0 || *i > 400).collect();
        let expected: Vec<PointId> = ids
            .iter()
            .copied()
            .filter(|&id| q.satisfies(t.row(id)))
            .collect();
        let mut got = Vec::new();
        verify_mask_blocked(&q, &t, &bitmap(500, &ids), 0, &mut got);
        assert_eq!(got, expected);
    }

    #[test]
    fn quant_lanes_count_candidate_lanes_only() {
        let mut t = table(1000);
        t.set_quant_policy(crate::quant::QuantPolicy::tier(
            crate::quant::QuantTier::I16,
        ));
        let q = query();
        // Dense blocks with holes (4 of every 5 rows), sparse blocks (every
        // ninth row) and a partial last block.
        let ids: Vec<PointId> = (0..1000u32)
            .filter(|i| if *i < 500 { i % 5 != 0 } else { i % 9 == 0 })
            .collect();
        let mut got = Vec::new();
        let stats = verify_mask_blocked(&q, &t, &bitmap(1000, &ids), 0, &mut got);
        assert_eq!(stats.tier, crate::quant::QuantTier::I16);
        assert_eq!(stats.lanes, ids.len(), "{stats:?}");
        assert_eq!(
            stats.accepted + stats.rejected + stats.reverified + stats.fallback,
            stats.lanes,
            "every candidate lane is accounted for once: {stats:?}"
        );
        let expected: Vec<PointId> = ids
            .iter()
            .copied()
            .filter(|&id| q.satisfies(t.row(id)))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn parallel_verification_is_identical_to_serial() {
        let t = table(2000);
        let q = query();
        let ids: Vec<PointId> = (0..2000u32).filter(|i| i % 7 != 3).collect();
        let words = bitmap(2000, &ids);
        let mut serial = Vec::new();
        let serial_counts = verify_mask_blocked(&q, &t, &words, 0, &mut serial);
        for threads in [2, 3, 8, 64] {
            let exec = ExecutionConfig::with_threads(threads).verify_threshold(1);
            let mut out = Vec::new();
            let counts = verify_mask(&q, &t, &words, 0, ids.len(), &exec, &mut out);
            assert_eq!(out, serial, "threads={threads}");
            assert_eq!(counts, serial_counts, "threads={threads}");
        }
    }

    #[test]
    fn parallel_top_k_is_identical_to_serial() {
        let t = table(2000);
        let q = query();
        let ids: Vec<PointId> = (0..2000u32).filter(|i| i % 11 != 4).collect();
        let words = bitmap(2000, &ids);
        let mut dots = Vec::new();
        let mut serial_buf = TopKBuffer::new(7);
        verify_top_k(
            &q,
            &t,
            &words,
            0,
            ids.len(),
            &ExecutionConfig::serial(),
            &mut dots,
            &mut serial_buf,
        );
        let serial = serial_buf.into_sorted();
        let mut want = TopKBuffer::new(7);
        for &id in &ids {
            if q.satisfies(t.row(id)) {
                want.offer(q.distance(t.row(id)), id);
            }
        }
        assert_eq!(serial, want.into_sorted());
        for threads in [2, 5] {
            let exec = ExecutionConfig::with_threads(threads).verify_threshold(1);
            let mut buf = TopKBuffer::new(7);
            verify_top_k(&q, &t, &words, 0, ids.len(), &exec, &mut dots, &mut buf);
            assert_eq!(buf.into_sorted(), serial, "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let items: Vec<u32> = (0..97).collect();
        let parts = map_chunks(&items, 4, |start, c| {
            assert_eq!(c[0], start as u32, "start is the chunk's offset");
            c.to_vec()
        });
        let flat: Vec<u32> = parts.into_iter().flatten().collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn batch_plan_divides_threads() {
        let exec = ExecutionConfig::with_threads(8);
        let (workers, inner) = batch_plan(&exec, 4);
        assert_eq!(workers, 4);
        assert_eq!(inner.threads, 2);
        let (workers, inner) = batch_plan(&exec, 100);
        assert_eq!(workers, 8);
        assert_eq!(inner.threads, 1);
        let (workers, _) = batch_plan(&ExecutionConfig::serial(), 100);
        assert_eq!(workers, 1);
    }

    #[test]
    fn shard_plan_gives_shards_first_claim() {
        let exec = ExecutionConfig::with_threads(8);
        let (workers, inner) = shard_plan(&exec, 4);
        assert_eq!(workers, 4);
        assert_eq!(inner.threads, 2);
        let (workers, inner) = shard_plan(&exec, 16);
        assert_eq!(workers, 8);
        assert_eq!(inner.threads, 1);
        let (workers, inner) = shard_plan(&ExecutionConfig::serial(), 8);
        assert_eq!(workers, 1);
        assert_eq!(inner.threads, 1);
    }

    #[test]
    fn out_of_range_thread_counts_clamp_and_count() {
        let before = thread_clamp_events();
        // Zero threads (possible via direct struct construction).
        let zero = ExecutionConfig {
            threads: 0,
            ..ExecutionConfig::serial()
        };
        let (workers, inner) = batch_plan(&zero, 10);
        assert_eq!(workers, 1);
        assert_eq!(inner.threads, 1);
        // More threads than queries in the batch.
        let (workers, _) = batch_plan(&ExecutionConfig::with_threads(64), 3);
        assert_eq!(workers, 3);
        // An in-range request does not count.
        let counted = thread_clamp_events() - before;
        let (workers, _) = batch_plan(&ExecutionConfig::with_threads(2), 10);
        assert_eq!(workers, 2);
        assert!(counted >= 2, "clamp events must be counted, got {counted}");
        assert_eq!(thread_clamp_events() - before, counted);
    }

    #[test]
    fn run_isolated_converts_panics_to_internal_errors() {
        assert_eq!(run_isolated(|| 41 + 1).unwrap(), 42);
        let err = run_isolated(|| -> u32 { panic!("poisoned query") }).unwrap_err();
        assert_eq!(err, PlanarError::Internal("poisoned query".into()));
        let err = run_isolated(|| -> u32 { panic!("{} {}", "formatted", 7) }).unwrap_err();
        assert_eq!(err, PlanarError::Internal("formatted 7".into()));
    }
}
