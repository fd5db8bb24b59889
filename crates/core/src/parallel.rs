//! Parallel execution scaffolding: thread configuration, reusable query
//! scratch space, and the blocked / chunked verification kernel shared by
//! Algorithm 1 and Algorithm 2.
//!
//! ## Determinism contract
//!
//! Every parallel path in this crate returns results **bit-identical to and
//! identically ordered with** its serial counterpart, for any thread count:
//!
//! * Intermediate-interval (II) candidates are held as a bitmap with one
//!   word per 64-row block of the columnar mirror ([`QueryScratch`]) and
//!   verified block by block in slot order by [`verify_mask`]. Splitting
//!   the bitmap into contiguous word ranges and concatenating the
//!   per-range matches in range order reproduces the serial order exactly.
//!   A clustered table's ids (see [`crate::table::FeatureTable::cluster`])
//!   come out ascending through an id-space bitmap ([`verify_ascending`]).
//! * Before a block's codes are read, its box verdict from
//!   [`crate::quant::QuantizedColumns::box_sweep`] settles the whole block
//!   when it can ([`BlockWords`]): a rejected block contributes nothing and
//!   an accepted one all its candidate lanes. The sweep's rounding guard
//!   makes the verdicts sound against the `f64` rounding of the exact dot.
//! * Verdicts come from the quantized classifier when the tier is on (sound:
//!   its accepts and rejects agree with the exact predicate, and its band
//!   is re-verified in `f64`), else from the fused columnar SIMD kernel
//!   [`planar_geom::dot_cmp_block`] for dense blocks and the row-at-a-time
//!   [`planar_geom::dot_slices`] for sparse ones. The kernels' per-lane
//!   accumulation is bit-identical to `dot_slices` regardless of the
//!   dispatched implementation (AVX2 or portable — see
//!   `planar_geom::kernels`), so neither the tier nor the split ever changes
//!   a verdict.
//! * Algorithm 2 verifies its II through the same [`verify_mask`] call, then
//!   ranks the satisfying ids serially by their row's
//!   [`InequalityQuery::distance`]. The top-k buffer's total
//!   `(distance, id)` order makes its contents independent of arrival
//!   order, so the ranking is identical for every thread count.
//!
//! ## Executor
//!
//! Every parallel path — the shard fan-out, multi-query batches, chunked
//! II verification and the multi-index build — goes through one function,
//! [`map_chunks`]. Its split into chunks, their `start` offsets and the
//! chunk-order concatenation of their results depend on the requested
//! worker count alone. The chunks run on at most [`cpus`] OS threads, and
//! the calling thread is one of them: with one CPU every chunk runs in
//! order on the caller and nothing is spawned; with more, contiguous groups
//! of chunks go to threads spawned under `std::thread::scope` (which lets
//! them borrow the index and table), and the caller runs the first group.
//! There is no persistent pool — one would have to erase the borrowed
//! closures' lifetimes — and no extra dependency. [`threads_spawned`]
//! counts the threads spawned.

use crate::quant::{BlockClass, BoxClass, QuantFilter, QuantFilterStats, QuantTier};
use crate::query::{Cmp, InequalityQuery};
use crate::table::{ColSegment, FeatureTable, PointId};
use crate::{PlanarError, Result};
use planar_geom::{dot_cmp_block, dot_slices, BLOCK_ROWS};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
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

/// Counts the OS threads [`map_chunks`] has spawned. See [`threads_spawned`].
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// How many OS threads, process-wide, the parallel engine has spawned to
/// run chunks beside the calling thread. Monotonically increasing; it
/// stays flat when every fan-out runs inline (one CPU, or serial configs).
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// The CPUs this process may run on: `std::thread::available_parallelism`
/// (which honours the affinity mask and the cgroup CPU quota), read once by
/// the first caller and cached for the life of the process. 1 when the
/// platform cannot tell. The parallel engine runs its chunks on at most
/// this many OS threads.
pub fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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
    /// How many chunks parallel work is split into; `1` means fully serial
    /// execution. The split, and so every answer, depends on this value
    /// alone. It is also an upper bound on the OS threads a call runs on:
    /// the chunks run on at most [`cpus`] threads, the caller among them.
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
        Self::with_threads(cpus())
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

    /// True when this configuration splits work into more than one chunk.
    #[inline]
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

/// Reusable per-worker buffers for the query hot loop.
///
/// Algorithms 1 and 2 hold the intermediate-interval (II) candidate set
/// here as a bitmap with one `u64` word per [`BLOCK_ROWS`]-row block of the
/// table's columnar mirror: bit `l` of word `w` is the row in slot
/// `w·BLOCK_ROWS + l`. Setting bits straight from the store's key-order
/// walk and reading the words in order visits the candidates block by
/// block in `O(m + n/64)` with no sort, and each word is exactly the
/// candidate mask of one block for the verification kernels. A scratch
/// threaded through a batch of queries makes the verification loop
/// allocation-free once its buffers have grown to the table's size.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// II candidate bitmap, one word per block of the columnar mirror.
    pub(crate) mask: Vec<u64>,
    /// Lanes proven to satisfy the query (the index's accepted interval),
    /// one word per block; emitted without verification.
    pub(crate) accept: Vec<u64>,
    /// Box verdicts of a window of blocks, from [`sweep`].
    pub(crate) boxes: Vec<BoxClass>,
    /// Id-space bitmap that orders a clustered table's matches (see
    /// [`verify_ascending`]).
    pub(crate) found: Vec<u64>,
    /// Satisfying II ids of one top-k query, before ranking.
    pub(crate) ids: Vec<PointId>,
}

impl QueryScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for tables of up to `capacity` rows, so the first
    /// query allocates nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        let blocks = capacity.div_ceil(BLOCK_ROWS);
        Self {
            mask: Vec::with_capacity(blocks),
            accept: Vec::with_capacity(blocks),
            boxes: Vec::with_capacity(blocks),
            found: Vec::with_capacity(blocks),
            ids: Vec::new(),
        }
    }

    /// Reset the bitmaps to the candidate set `cand` and the proven set
    /// `accepted` over `table`'s slots. Returns the word range `[lo, hi)`
    /// outside which every word of both is zero (empty when both sets are).
    pub(crate) fn fill(
        &mut self,
        table: &FeatureTable,
        cand: &[PointId],
        accepted: &[PointId],
    ) -> Range<usize> {
        let blocks = table.len().div_ceil(BLOCK_ROWS);
        let (mut lo, mut hi) = (usize::MAX, 0);
        for (words, ids) in [(&mut self.mask, cand), (&mut self.accept, accepted)] {
            words.clear();
            words.resize(blocks, 0);
            for &id in ids {
                let slot = table.slot_of(id) as usize;
                let w = slot / BLOCK_ROWS;
                words[w] |= 1u64 << (slot % BLOCK_ROWS);
                lo = lo.min(w);
                hi = hi.max(w + 1);
            }
        }
        lo.min(hi)..hi
    }
}

/// A window of per-block words for [`verify_mask`]: word `i` describes
/// block `first + i`. `accept` and `boxes` may be empty (no proven lanes;
/// every block mixed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockWords<'a> {
    /// Candidate lanes, verified unless their block's box settles them.
    pub cand: &'a [u64],
    /// Lanes proven to satisfy the query, emitted unverified.
    pub accept: &'a [u64],
    /// Box verdicts (see [`sweep`]).
    pub boxes: &'a [BoxClass],
    /// Block number of word 0.
    pub first: usize,
}

impl<'a> BlockWords<'a> {
    /// Candidate words only, from block `first` on.
    pub(crate) fn cand(cand: &'a [u64], first: usize) -> Self {
        Self {
            cand,
            accept: &[],
            boxes: &[],
            first,
        }
    }

    /// The sub-window of words `range`.
    fn slice(&self, range: Range<usize>) -> Self {
        Self {
            cand: &self.cand[range.clone()],
            accept: self.accept.get(range.clone()).unwrap_or(&[]),
            boxes: self.boxes.get(range.clone()).unwrap_or(&[]),
            first: self.first + range.start,
        }
    }
}

/// The box verdicts of the blocks `first..first + cand.len()` into
/// `boxes` (see [`crate::quant::QuantizedColumns::box_sweep`]), and the
/// candidate lanes (`cand`, one word per block) of the blocks left
/// `Mixed`. The sweep costs `O(d)` per block of the window, so it runs only
/// when the table has a quantized tier and the window's `candidates`
/// outnumber its blocks; otherwise `boxes` is left empty (every block
/// mixed) and the result is `None`.
pub(crate) fn sweep(
    query: &InequalityQuery,
    table: &FeatureTable,
    cand: &[u64],
    first: usize,
    candidates: usize,
    boxes: &mut Vec<BoxClass>,
) -> Option<usize> {
    boxes.clear();
    let quant = table.quant().filter(|_| candidates > cand.len())?;
    quant.box_sweep(query, first..first + cand.len(), boxes);
    let mixed = boxes
        .iter()
        .zip(cand)
        .filter(|(&v, _)| v == BoxClass::Mixed);
    Some(mixed.map(|(_, w)| w.count_ones() as usize).sum())
}

/// Where verification puts satisfying ids.
pub(crate) trait Emit {
    /// Record one satisfying id.
    fn emit(&mut self, id: PointId);
}

impl Emit for Vec<PointId> {
    #[inline]
    fn emit(&mut self, id: PointId) {
        self.push(id);
    }
}

/// An id-space bitmap: bit `id % 64` of word `id / 64` marks `id`.
pub(crate) struct IdBits<'a>(pub &'a mut [u64]);

impl Emit for IdBits<'_> {
    #[inline]
    fn emit(&mut self, id: PointId) {
        self.0[id as usize / BLOCK_ROWS] |= 1u64 << (id as usize % BLOCK_ROWS);
    }
}

/// Push the ids marked in `bits` onto `out` in ascending order.
pub(crate) fn drain_ascending(bits: &[u64], out: &mut Vec<PointId>) {
    for (w, &word) in bits.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            out.push((w * BLOCK_ROWS) as PointId + m.trailing_zeros());
            m &= m - 1;
        }
    }
}

/// Split `items` into `workers` contiguous chunks, apply `f(start, chunk)`
/// to each chunk (`start` is the chunk's offset in `items`), and return the
/// per-chunk results in chunk order. The chunks run on at most [`cpus`] OS
/// threads, the caller among them (see the module docs). A panic in `f`
/// re-raises here.
pub(crate) fn map_chunks<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &[I]) -> T + Sync,
{
    run_chunks(items, workers, cpus(), f)
}

/// [`map_chunks`] on at most `cpus` OS threads. The CPU count is an
/// argument so tests can drive the inline and the spawned paths on any host.
fn run_chunks<I, T, F>(items: &[I], workers: usize, cpus: usize, f: F) -> Vec<T>
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
    let threads = chunks.len().min(cpus).max(1);
    if threads == 1 {
        return chunks.into_iter().map(|(start, c)| f(start, c)).collect();
    }
    // Contiguous groups of chunks, one per thread; the caller runs group 0.
    let per_thread = chunks.len().div_ceil(threads);
    let mut results: Vec<Option<T>> = Vec::with_capacity(chunks.len());
    results.resize_with(chunks.len(), || None);
    let run_group = |slots: &mut [Option<T>], group: &[(usize, &[I])]| {
        for (slot, &(start, chunk)) in slots.iter_mut().zip(group) {
            *slot = Some(f(start, chunk));
        }
    };
    let run_group = &run_group;
    std::thread::scope(|s| {
        let mut groups = results
            .chunks_mut(per_thread)
            .zip(chunks.chunks(per_thread));
        let (first_slots, first_group) = groups.next().expect("at least one chunk");
        for (slots, group) in groups {
            THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            s.spawn(move || run_group(slots, group));
        }
        run_group(first_slots, first_group);
    });
    // Unreachable in practice: a panic on the caller, or in a spawned
    // thread at the scope join, re-raises above, so every slot is filled
    // here. Batch callers wrap per-item work in `run_isolated`, which keeps
    // query panics from ever reaching this function.
    results
        .into_iter()
        .map(|r| r.expect("scope join guarantees completion"))
        .collect()
}

/// Block `w`'s first slot, lane count (`BLOCK_ROWS` except in the last,
/// partial block) and columnar storage.
fn block(table: &FeatureTable, w: usize) -> (u32, usize, ColSegment<'_>) {
    let first = (w * BLOCK_ROWS) as u32;
    let lanes = (table.len() - w * BLOCK_ROWS).min(BLOCK_ROWS);
    let seg = table.columns().segments(first, first + lanes as u32).next();
    (first, lanes, seg.expect("a non-empty block has a segment"))
}

/// Verify a window of block words against `query`, emitting the ids of
/// satisfying lanes in slot order. A block its box verdict settles emits
/// all of its candidate and proven lanes (`Accept`) or none (`Reject`)
/// and reads no code. Every other block emits its proven lanes, and each
/// of its candidates is verified:
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
/// Returns the quantized-filter counters (all zeros when the tier is off)
/// and the number of candidate lanes verified — classified or given an
/// `f64` product.
pub(crate) fn verify_mask_blocked(
    query: &InequalityQuery,
    table: &FeatureTable,
    words: BlockWords<'_>,
    out: &mut impl Emit,
) -> (QuantFilterStats, usize) {
    let mut stats = QuantFilterStats::default();
    let mut verified = 0;
    let mut filter = table.quant().map(|q| {
        stats.tier = QuantTier::I16;
        QuantFilter::new(query, q)
    });
    for (i, &cand) in words.cand.iter().enumerate() {
        let proven = words.accept.get(i).copied().unwrap_or(0);
        if cand | proven == 0 {
            continue;
        }
        let w = words.first + i;
        let mut mask = match words.boxes.get(i).copied().unwrap_or(BoxClass::Mixed) {
            BoxClass::Reject => {
                stats.box_rejected += 1;
                0
            }
            BoxClass::Accept => {
                stats.box_accepted += 1;
                cand | proven
            }
            BoxClass::Mixed => {
                let lanes = cand.count_ones() as usize;
                verified += lanes;
                let found = if lanes == 0 {
                    0
                } else if lanes >= QUANT_MIN_SEGMENT_LANES {
                    dense_block_mask(query, table, w, cand, filter.as_mut(), &mut stats)
                } else {
                    // Too few lanes to amortize a classify dispatch, so
                    // they are verified row by row. With the tier on they
                    // still count as filter lanes settled by the fallback:
                    // `lanes` then equals the lanes verified, and the
                    // fallback share shows how much of the interval the
                    // classifier never sees.
                    if filter.is_some() {
                        stats.lanes += lanes;
                        stats.fallback += lanes;
                    }
                    rowwise_mask(query, table, (w * BLOCK_ROWS) as u32, cand)
                };
                found | proven
            }
        };
        let base = (w * BLOCK_ROWS) as u32;
        while mask != 0 {
            out.emit(table.id_at(base + mask.trailing_zeros()));
            mask &= mask - 1;
        }
    }
    (stats, verified)
}

/// Exact predicate mask of the lanes `lanes` of the block starting at slot
/// `first`, settling each lane with the row-wise reference dot (the
/// definition of the exact answer).
fn rowwise_mask(query: &InequalityQuery, table: &FeatureTable, first: u32, lanes: u64) -> u64 {
    let mut mask = 0;
    let mut m = lanes;
    while m != 0 {
        let l = m.trailing_zeros();
        let row = table.row(table.id_at(first + l));
        if query.satisfies_dot(dot_slices(query.a(), row)) {
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

/// Inequality-query II verification of a window of block words (see
/// [`verify_mask_blocked`]): serial, or split on word boundaries across
/// `exec.threads` workers when the `candidates` count crosses
/// `exec.parallel_verify_threshold`. Per-chunk matches are emitted in
/// chunk order, so the output is in slot order either way (see module
/// docs).
pub(crate) fn verify_mask(
    query: &InequalityQuery,
    table: &FeatureTable,
    words: BlockWords<'_>,
    candidates: usize,
    exec: &ExecutionConfig,
    out: &mut impl Emit,
) -> (QuantFilterStats, usize) {
    if !(exec.is_parallel() && candidates >= exec.parallel_verify_threshold.max(2)) {
        return verify_mask_blocked(query, table, words, out);
    }
    let workers = exec.threads.min(words.cand.len());
    let per_chunk = map_chunks(words.cand, workers, |start, chunk| {
        let mut local = Vec::new();
        let part = words.slice(start..start + chunk.len());
        let counts = verify_mask_blocked(query, table, part, &mut local);
        (local, counts)
    });
    let mut stats = QuantFilterStats::default();
    let mut verified = 0;
    for (part, (part_stats, part_verified)) in per_chunk {
        for id in part {
            out.emit(id);
        }
        stats.merge(&part_stats);
        verified += part_verified;
    }
    (stats, verified)
}

/// [`verify_mask`] with the matches pushed onto `out` in ascending id
/// order. Slots are ids on an unclustered table, so its slot order is
/// already ascending; a clustered table's matches are marked in the
/// id-space bitmap `found` (reset here) and drained in order, in
/// `O(m + n/64)` and with no sort.
pub(crate) fn verify_ascending(
    query: &InequalityQuery,
    table: &FeatureTable,
    words: BlockWords<'_>,
    candidates: usize,
    exec: &ExecutionConfig,
    found: &mut Vec<u64>,
    out: &mut Vec<PointId>,
) -> (QuantFilterStats, usize) {
    if !table.is_clustered() {
        return verify_mask(query, table, words, candidates, exec, out);
    }
    found.clear();
    found.resize(table.len().div_ceil(BLOCK_ROWS), 0);
    let counts = verify_mask(query, table, words, candidates, exec, &mut IdBits(found));
    drain_ascending(found, out);
    counts
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
    use crate::quant::QuantTier;
    use crate::query::{Cmp, TopKQuery};

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
        assert!(cpus() >= 1);
        assert_eq!(ExecutionConfig::available_parallelism().threads, cpus());
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

    /// Candidate bitmap of `ids` over `table`'s slots.
    fn bitmap(table: &FeatureTable, ids: &[PointId]) -> Vec<u64> {
        let mut scratch = QueryScratch::new();
        scratch.fill(table, ids, &[]);
        scratch.mask
    }

    #[test]
    fn fill_sets_exactly_the_candidate_bits() {
        let t = table(200);
        let mut scratch = QueryScratch::new();
        let words = scratch.fill(&t, &[130u32, 3, 64, 199], &[]);
        assert_eq!(words, 0..4);
        assert_eq!(scratch.mask, vec![1 << 3, 1, 1 << 2, 1 << 7]);
        assert_eq!(scratch.accept, vec![0; 4]);
        // A refill starts from an empty set, whatever the last query left;
        // proven lanes widen the window.
        assert_eq!(scratch.fill(&t, &[70u32], &[190]), 1..3);
        assert_eq!(scratch.mask, vec![0, 1 << 6, 0, 0]);
        assert_eq!(scratch.accept, vec![0, 0, 1 << 62, 0]);
        assert!(scratch.fill(&t, &[], &[]).is_empty());
    }

    #[test]
    fn fill_and_emission_follow_the_block_layout() {
        // A clustered table keeps candidates in their slots' blocks, and
        // the id-space bitmap puts its matches back in ascending id order
        // at every thread count.
        let rows = (0..300).map(|i| vec![((i * 37) % 300) as f64, 1.0]);
        let mut t = FeatureTable::from_rows(2, rows).unwrap();
        t.cluster();
        assert!(t.is_clustered());
        let q = InequalityQuery::new(vec![1.0, 1.0], Cmp::Leq, 120.0).unwrap();
        let ids: Vec<PointId> = (0..300).collect();
        let want = crate::scan::SeqScan::new(&t).evaluate(&q).unwrap();
        assert!(want.windows(2).all(|w| w[0] < w[1]));
        let words = bitmap(&t, &ids);
        let mut found = vec![u64::MAX; 1];
        for threads in [1, 3] {
            let exec = ExecutionConfig::with_threads(threads).verify_threshold(1);
            let mut got = Vec::new();
            let words = BlockWords::cand(&words, 0);
            verify_ascending(&q, &t, words, ids.len(), &exec, &mut found, &mut got);
            assert_eq!(got, want, "threads={threads}");
        }
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
        let (_, verified) =
            verify_mask_blocked(&q, &t, BlockWords::cand(&bitmap(&t, &ids), 0), &mut got);
        assert_eq!(got, expected);
        assert_eq!(verified, ids.len(), "no tier: every candidate is verified");
    }

    #[test]
    fn quant_lanes_count_candidate_lanes_only() {
        let mut t = table(1000);
        t.set_quant_tier(QuantTier::I16);
        // ⟨(1, 1), row i⟩ = 250 + i/4: rows up to 500 satisfy, so the blocks
        // around row 500 straddle the hyperplane and the rest are settled
        // by their box.
        let q = InequalityQuery::new(vec![1.0, 1.0], Cmp::Leq, 375.0).unwrap();
        // Dense blocks with holes (4 of every 5 rows), sparse blocks (every
        // ninth row) and a partial last block.
        let ids: Vec<PointId> = (0..1000u32)
            .filter(|i| if *i < 500 { i % 5 != 0 } else { i % 9 == 0 })
            .collect();
        let cand = bitmap(&t, &ids);
        let mut boxes = Vec::new();
        sweep(&q, &t, &cand, 0, ids.len(), &mut boxes).unwrap();
        let words = BlockWords {
            boxes: &boxes,
            ..BlockWords::cand(&cand, 0)
        };
        let mut got = Vec::new();
        let (stats, verified) = verify_mask_blocked(&q, &t, words, &mut got);
        assert_eq!(stats.tier, QuantTier::I16);
        assert_eq!(stats.lanes, verified, "{stats:?}");
        assert!(verified > 0 && verified < ids.len(), "{stats:?}");
        assert!(
            stats.box_accepted > 0 && stats.box_rejected > 0,
            "{stats:?}"
        );
        assert_eq!(
            stats.accepted + stats.rejected + stats.reverified + stats.fallback,
            stats.lanes,
            "every verified lane is accounted for once: {stats:?}"
        );
        let expected: Vec<PointId> = ids
            .iter()
            .copied()
            .filter(|&id| q.satisfies(t.row(id)))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn boxes_settle_only_blocks_they_bound() {
        // ⟨(1, −1), row i⟩ = 0.75·i − 160 grows with both coordinates'
        // signed weights, so each block's box is as tight as its rows; a
        // threshold inside block 3 (dots −16 to 31.25) leaves exactly that
        // block mixed.
        let mut t = table(640);
        t.set_quant_tier(QuantTier::I16);
        let q = InequalityQuery::new(vec![1.0, -1.0], Cmp::Geq, 10.0).unwrap();
        let live = crate::multi::live_words(&t, &[]);
        let mut boxes = Vec::new();
        let mixed = sweep(&q, &t, &live, 0, 640, &mut boxes).unwrap();
        assert_eq!(mixed, 64);
        assert_eq!(boxes.len(), 10);
        assert_eq!(boxes[3], BoxClass::Mixed);
        assert!(boxes[..3].iter().all(|&b| b == BoxClass::Reject));
        assert!(boxes[4..].iter().all(|&b| b == BoxClass::Accept));
        let words = BlockWords {
            boxes: &boxes,
            ..BlockWords::cand(&live, 0)
        };
        let mut got = Vec::new();
        let (stats, verified) = verify_mask_blocked(&q, &t, words, &mut got);
        assert_eq!(got, crate::scan::SeqScan::new(&t).evaluate(&q).unwrap());
        assert_eq!(
            (stats.box_accepted, stats.box_rejected, verified),
            (6, 3, 64)
        );
        // A window sweeps its own blocks: blocks 2..5 are reject, mixed,
        // accept.
        assert_eq!(sweep(&q, &t, &live[2..5], 2, 640, &mut boxes), Some(64));
        assert_eq!(boxes, [BoxClass::Reject, BoxClass::Mixed, BoxClass::Accept]);
        // No sweep for fewer candidates than blocks, and without a tier
        // there are no boxes.
        assert_eq!(sweep(&q, &t, &live, 0, 10, &mut boxes), None);
        assert!(boxes.is_empty());
        t.set_quant_tier(QuantTier::Off);
        assert_eq!(sweep(&q, &t, &live, 0, 640, &mut boxes), None);
        assert!(boxes.is_empty());
    }

    #[test]
    fn parallel_verification_is_identical_to_serial() {
        for tier in [QuantTier::Off, QuantTier::I16] {
            let mut t = table(2000);
            t.set_quant_tier(tier);
            let q = InequalityQuery::new(vec![1.0, 1.0], Cmp::Leq, 600.0).unwrap();
            let ids: Vec<PointId> = (0..2000u32).filter(|i| i % 7 != 3).collect();
            let words = bitmap(&t, &ids);
            let mut serial = Vec::new();
            let serial_counts =
                verify_mask_blocked(&q, &t, BlockWords::cand(&words, 0), &mut serial);
            for threads in [2, 3, 8, 64] {
                let exec = ExecutionConfig::with_threads(threads).verify_threshold(1);
                let mut out = Vec::new();
                let words = BlockWords::cand(&words, 0);
                let counts = verify_mask(&q, &t, words, ids.len(), &exec, &mut out);
                assert_eq!(out, serial, "{tier:?} threads={threads}");
                assert_eq!(counts, serial_counts, "{tier:?} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_top_k_is_identical_to_serial() {
        // Index normal (2, 1): key = 500 + 0.75·i, and the query's margin is
        // 0.25·i − 200, so the intermediate interval holds ~930 rows (dense
        // blocks plus sparse edges) of which ~530 satisfy the predicate.
        let mut t = table(2000);
        let norm = planar_geom::Normalizer::identity(2);
        let idx =
            crate::index::SingleIndex::<crate::store::VecStore>::build(&t, &norm, vec![2.0, 1.0])
                .unwrap();
        for tier in [QuantTier::Off, QuantTier::I16] {
            t.set_quant_tier(tier);
            for cmp in [Cmp::Leq, Cmp::Geq] {
                let q =
                    TopKQuery::new(InequalityQuery::new(vec![1.0, 1.0], cmp, 700.0).unwrap(), 7)
                        .unwrap();
                let nq = norm.normalize_query(q.query.a(), q.query.b()).unwrap();
                let want = crate::scan::SeqScan::new(&t).top_k(&q).unwrap();
                let mut scratch = QueryScratch::new();
                for threads in [1, 2, 3, 5] {
                    let exec = ExecutionConfig::with_threads(threads).verify_threshold(1);
                    let (got, stats) = idx.top_k_with(&q, &nq, 0.0, &t, &exec, &mut scratch);
                    // Distances are absolute values, never -0.0 or NaN, so
                    // `==` here is bit-identity.
                    assert_eq!(got, want, "{tier:?} {cmp:?} threads={threads}");
                    assert!(stats.intermediate > 500, "{stats:?}");
                }
            }
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
    fn executor_matches_the_serial_map_for_every_cpu_count() {
        let items: Vec<u32> = (0..23).collect();
        let caller = std::thread::current().id();
        for workers in [1, 2, 3, 5, 8] {
            let chunk_len = items.len().div_ceil(workers);
            let serial: Vec<(usize, Vec<u32>)> = items
                .chunks(chunk_len)
                .enumerate()
                .map(|(i, c)| (i * chunk_len, c.to_vec()))
                .collect();
            for cpus in [1, 2, 3, 16] {
                let parts = run_chunks(&items, workers, cpus, |start, c| {
                    (start, c.to_vec(), std::thread::current().id())
                });
                let got: Vec<(usize, Vec<u32>)> =
                    parts.iter().map(|(s, c, _)| (*s, c.clone())).collect();
                assert_eq!(got, serial, "workers={workers} cpus={cpus}");
                // The caller runs the first chunk, and the chunks run on at
                // most `cpus` threads.
                assert_eq!(parts[0].2, caller, "workers={workers} cpus={cpus}");
                let mut ids: Vec<_> = parts.iter().map(|p| p.2).collect();
                ids.dedup();
                assert!(ids.len() <= cpus.min(serial.len()), "{workers} {cpus}");
                if cpus == 1 {
                    assert_eq!(ids, vec![caller], "one CPU runs every chunk inline");
                }
            }
        }
    }

    #[test]
    fn chunk_panics_reach_the_caller_inline_and_spawned() {
        let items: Vec<u32> = (0..8).collect();
        // (cpus, poisoned chunk start): every chunk inline; the caller's own
        // chunk beside spawned ones; a chunk on a spawned thread.
        for (cpus, poisoned) in [(1, 4), (2, 0), (2, 4), (4, 6)] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_chunks(&items, 4, cpus, |start, c| {
                    assert_ne!(start, poisoned, "poisoned chunk");
                    c.len()
                })
            }));
            assert!(caught.is_err(), "cpus={cpus} poisoned={poisoned}");
        }
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
