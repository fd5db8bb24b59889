//! Shared-nothing horizontal sharding: a [`ShardedIndexSet`] partitions the
//! feature table into `S` shard-local [`PlanarIndexSet`]s and answers every
//! query by fanning it out across the shards.
//!
//! ## Why shard a main-memory index?
//!
//! Three reasons, in the order they matter here:
//!
//! 1. **Cache residency.** Batches execute *shard-major*: every query of
//!    the batch runs against shard 0, then every query against shard 1, and
//!    so on. A shard's working set (feature rows + the chosen index's
//!    entries) is `1/S` of the monolith's, so the intermediate-interval
//!    gathers that dominate query time hit L2 instead of missing to DRAM.
//!    On a single core this is worth several× batch throughput at large
//!    `n`; with threads, shards scale near-linearly because they share
//!    nothing.
//! 2. **Locally adaptive planning.** Each shard selects its own best index
//!    for the same query, so a heterogeneous shard (e.g. a pilot-key slab)
//!    can pick a different normal than the global optimum.
//! 3. **Fault isolation.** Quarantine-and-degrade (see `crate::health`)
//!    applies per shard: one shard with every index quarantined degrades
//!    *that shard* to its exact scan while the rest keep serving indexed.
//!
//! ## Partitioners
//!
//! * [`Partitioner::RoundRobin`] — `global_id mod S`. Keeps shards
//!   statistically identical; the right default for uniform data.
//! * [`Partitioner::PilotKeyRange`] — range partitioning on the *pilot
//!   key* `⟨pilot, x⟩` along the domain-octant diagonal, split at build
//!   time into `S` equal-frequency slabs. Queries whose normals resemble
//!   the pilot wholesale-accept or -reject entire slabs through each
//!   shard's own interval bounds.
//!
//! Placement is decided once, at insert time; updates never migrate a
//! point between shards (its global id is pinned), which keeps mutation
//! routing `O(1)` and answers exact regardless of drift.
//!
//! ## Id spaces
//!
//! Each shard numbers its points locally, and the sharded set maps them:
//! `global_ids[shard][local] = global`. Global ids only grow, every insert
//! appends to its shard, and compaction keeps the survivors' relative
//! order, so `global_ids[shard]` is always strictly ascending. A global id
//! is found by a binary search of each shard's list (`O(S·log n)` per
//! mutation, no per-row reverse map). Ids below the high-water mark that
//! no shard holds are either rows a compaction dropped (recorded, dead
//! forever) or WAL-replay gaps.
//!
//! A shard's answer is in ascending local id order (see
//! [`QueryOutcome::matches`]), so once mapped it is in ascending global id
//! order too: a sharded answer is ascending shard, then ascending global
//! id, with no global sort. Where a shard keeps a row in its
//! blocks (see [`crate::table::FeatureTable::cluster`]) is invisible here.
//!
//! Top-k answers are produced by pushing the *global* `k` down to every
//! shard and k-way merging the per-shard lists on `(distance, global id)`
//! — see [`merge_top_k`]. Per-shard truncation at `k` is lossless: any
//! global top-k member ranks in the top k of its own shard.

use crate::domain::ParameterDomain;
use crate::health::ShardedHealthReport;
use crate::index::TopKStats;
use crate::multi::{IndexConfig, PlanarIndexSet, QueryOutcome, TopKOutcome};
use crate::parallel::{self, ExecutionConfig, QueryScratch};
use crate::quant::{QuantAutotuneConfig, QuantTier};
use crate::query::{InequalityQuery, TopKQuery};
use crate::stats::{QueryStats, ServedBy, StatsAggregator};
use crate::store::{KeyStore, VecStore};
use crate::table::{FeatureTable, PointId};
use crate::{HeapSize, PlanarError, Result};

/// Which partitioner [`ShardedIndexSet::build`] should construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// `global_id mod S` — uniform, data-oblivious.
    RoundRobin,
    /// Equal-frequency range partitioning on the octant-diagonal pilot key.
    PilotKeyRange,
}

/// Shard-count and partitioning request for [`ShardedIndexSet::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards `S ≥ 1`.
    pub shards: usize,
    /// How rows are assigned to shards.
    pub scheme: PartitionScheme,
}

impl ShardConfig {
    /// Round-robin partitioning over `shards` shards.
    pub fn round_robin(shards: usize) -> Self {
        Self {
            shards,
            scheme: PartitionScheme::RoundRobin,
        }
    }

    /// Pilot-key range partitioning over `shards` shards.
    pub fn pilot_key_range(shards: usize) -> Self {
        Self {
            shards,
            scheme: PartitionScheme::PilotKeyRange,
        }
    }
}

/// A built partitioner: routes a `(global id, row)` to its shard.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioner {
    /// `global_id mod shards`.
    RoundRobin {
        /// Shard count.
        shards: usize,
    },
    /// Range partitioning on the raw-space pilot key `⟨pilot, row⟩`:
    /// shard `s` holds keys in `(splits[s-1], splits[s]]` (first shard
    /// unbounded below, last unbounded above).
    PilotKeyRange {
        /// Raw-space pilot direction (the domain octant's diagonal).
        pilot: Vec<f64>,
        /// `shards − 1` ascending split keys.
        splits: Vec<f64>,
    },
}

impl Partitioner {
    /// Number of shards this partitioner routes to.
    pub fn shards(&self) -> usize {
        match self {
            Partitioner::RoundRobin { shards } => *shards,
            Partitioner::PilotKeyRange { splits, .. } => splits.len() + 1,
        }
    }

    /// The shard the point with this global id and feature row belongs to.
    pub fn route(&self, id: PointId, row: &[f64]) -> usize {
        match self {
            Partitioner::RoundRobin { shards } => (id as usize) % shards,
            Partitioner::PilotKeyRange { pilot, splits } => {
                let key = planar_geom::dot_slices(pilot, row);
                splits.partition_point(|&s| s < key)
            }
        }
    }
}

/// Result of an inequality query against a [`ShardedIndexSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedQueryOutcome {
    /// Matching **global** ids in canonical order: ascending shard, and
    /// ascending global id within each shard — whichever index (or scan)
    /// served each shard. Use [`Self::sorted_ids`] for ascending global ids
    /// across shards.
    pub matches: Vec<PointId>,
    /// Per-shard execution statistics, indexed by shard.
    pub shard_stats: Vec<QueryStats>,
    /// Per-shard serving provenance, indexed by shard —
    /// [`ServedBy::Degraded`] entries pinpoint shards whose every index is
    /// quarantined.
    pub served_by: Vec<ServedBy>,
}

impl ShardedQueryOutcome {
    /// The matching global ids in ascending order.
    pub fn sorted_ids(&self) -> Vec<PointId> {
        let mut ids = self.matches.clone();
        ids.sort_unstable();
        ids
    }

    /// Per-shard stats merged into one logical query record (sums of all
    /// interval/verification counters; see [`QueryStats::merged`]).
    pub fn merged_stats(&self) -> QueryStats {
        QueryStats::merged(&self.shard_stats)
    }

    /// Shards that served this query degraded (exact scan because every
    /// local index is quarantined), ascending.
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.served_by
            .iter()
            .enumerate()
            .filter_map(|(s, sb)| sb.is_degraded().then_some(s))
            .collect()
    }

    /// Fold this outcome into an aggregator as **one** logical query.
    pub fn record(&self, agg: &mut StatsAggregator) {
        agg.add_sharded(&self.shard_stats);
    }
}

/// Result of a top-k query against a [`ShardedIndexSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedTopKOutcome {
    /// `(global id, distance)` pairs ascending by `(distance, id)`; at most
    /// `k` — identical to the unsharded [`TopKOutcome::neighbors`].
    pub neighbors: Vec<(PointId, f64)>,
    /// Per-shard execution statistics, indexed by shard.
    pub shard_stats: Vec<TopKStats>,
    /// Per-shard serving provenance, indexed by shard.
    pub served_by: Vec<ServedBy>,
}

impl ShardedTopKOutcome {
    /// Shards that served this query degraded, ascending.
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.served_by
            .iter()
            .enumerate()
            .filter_map(|(s, sb)| sb.is_degraded().then_some(s))
            .collect()
    }
}

/// Sharded analogue of `multi::stamp_partial_completed`: a batch slot is
/// partial when *any* shard's slot is a deadline placeholder (its answer is
/// missing that shard's matches), and `completed` counts the slots answered
/// in full by every shard. Returns the number of partial slots.
fn stamp_sharded_partial_completed<O>(
    results: &mut [Result<O>],
    mut served_by: impl FnMut(&mut O) -> &mut Vec<ServedBy>,
) -> usize {
    let mut skipped = 0usize;
    for r in results.iter_mut().flatten() {
        if served_by(r).iter().any(ServedBy::is_partial) {
            skipped += 1;
        }
    }
    if skipped == 0 {
        return 0;
    }
    let completed = results.len() - skipped;
    for r in results.iter_mut().flatten() {
        for sb in served_by(r).iter_mut() {
            if let ServedBy::Partial { completed: c, .. } = sb {
                *c = completed;
            }
        }
    }
    skipped
}

/// Transpose per-shard outcome lists (one outcome per query each) into
/// the `n` per-query rows, moving every outcome. A row fails with its
/// first error in shard order.
fn per_query<T>(per_shard: Vec<Vec<Result<T>>>, n: usize) -> impl Iterator<Item = Result<Vec<T>>> {
    let mut shards: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
    (0..n).map(move |_| {
        let row: Vec<Result<T>> = shards
            .iter_mut()
            .map(|outs| outs.next().expect("one outcome per query"))
            .collect();
        row.into_iter().collect()
    })
}

/// K-way merge of per-shard top-k lists on `(distance, id)`.
///
/// Each input list must be sorted ascending by `(distance, id)` — which
/// per-shard [`TopKOutcome::neighbors`] are, once remapped to global ids:
/// a shard breaks distance ties on ascending local id, and its
/// local→global map is ascending. Returns the `k` globally smallest
/// pairs. `O((S + k)·log S)` with a cursor heap: the classic merge step of
/// a partitioned top-k (and the unit the `shard_merge` criterion bench
/// measures).
pub fn merge_top_k(per_shard: &[Vec<(PointId, f64)>], k: usize) -> Vec<(PointId, f64)> {
    // Cursor heap keyed by (dist, id); BinaryHeap is a max-heap, so wrap
    // the comparison reversed. Entries carry (shard, offset) cursors.
    struct Cursor {
        dist: f64,
        id: PointId,
        shard: usize,
        offset: usize,
    }
    impl PartialEq for Cursor {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == core::cmp::Ordering::Equal
        }
    }
    impl Eq for Cursor {}
    impl Ord for Cursor {
        fn cmp(&self, other: &Self) -> core::cmp::Ordering {
            // Reversed: the heap's max is the globally smallest (dist, id).
            other
                .dist
                .total_cmp(&self.dist)
                .then_with(|| other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Cursor {
        fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = std::collections::BinaryHeap::with_capacity(per_shard.len());
    for (shard, list) in per_shard.iter().enumerate() {
        if let Some(&(id, dist)) = list.first() {
            heap.push(Cursor {
                dist,
                id,
                shard,
                offset: 0,
            });
        }
    }
    let mut out = Vec::with_capacity(k.min(per_shard.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(cur) = heap.pop() else { break };
        out.push((cur.id, cur.dist));
        if let Some(&(id, dist)) = per_shard[cur.shard].get(cur.offset + 1) {
            heap.push(Cursor {
                dist,
                id,
                shard: cur.shard,
                offset: cur.offset + 1,
            });
        }
    }
    out
}

/// A horizontally partitioned [`PlanarIndexSet`]: `S` shard-local index
/// sets behind one exact query interface. See the module docs for the
/// execution model; generic over the same key stores as the unsharded set.
#[derive(Debug, Clone)]
pub struct ShardedIndexSet<S: KeyStore = VecStore> {
    shards: Vec<PlanarIndexSet<S>>,
    partitioner: Partitioner,
    /// `global_ids[shard][local] = global`, strictly ascending per shard
    /// (see the module docs).
    global_ids: Vec<Vec<PointId>>,
    /// One past the highest global id handed out or replayed.
    next_global: PointId,
    /// `(global, shard)` of every id whose row a shard compaction dropped,
    /// ascending. Any other id below `next_global` that no shard holds is
    /// a WAL-replay gap whose insert record lives on another shard's log.
    dropped: Vec<(PointId, u32)>,
}

impl<S: KeyStore> ShardedIndexSet<S> {
    /// Partition `table` with `shard_config` and build one
    /// [`PlanarIndexSet`] per shard (each with the same `config`, hence the
    /// same sampled normals).
    ///
    /// # Errors
    ///
    /// [`PlanarError::InvalidBudget`] on zero shards or budget,
    /// [`PlanarError::DimensionMismatch`] when domain and table disagree,
    /// [`PlanarError::EmptyDataset`] when a shard would receive no rows
    /// (fewer rows than shards, or a degenerate pilot-key distribution) —
    /// use fewer shards.
    pub fn build(
        table: FeatureTable,
        domain: ParameterDomain,
        config: IndexConfig,
        shard_config: ShardConfig,
    ) -> Result<Self>
    where
        S: Send,
    {
        Self::build_with(
            table,
            domain,
            config,
            shard_config,
            &ExecutionConfig::serial(),
        )
    }

    /// [`Self::build`] with per-shard index construction on `exec` (each
    /// shard's budget of sorts is distributed over `exec.threads`; shards
    /// themselves build in order). Identical output for any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`Self::build`].
    pub fn build_with(
        table: FeatureTable,
        domain: ParameterDomain,
        config: IndexConfig,
        shard_config: ShardConfig,
        exec: &ExecutionConfig,
    ) -> Result<Self>
    where
        S: Send,
    {
        if shard_config.shards == 0 {
            return Err(PlanarError::InvalidBudget);
        }
        if domain.dim() != table.dim() {
            return Err(PlanarError::DimensionMismatch {
                expected: table.dim(),
                found: domain.dim(),
            });
        }
        let partitioner = Self::fit_partitioner(&table, &domain, shard_config);
        let s = shard_config.shards;
        let dim = table.dim();
        let n = table.len();
        let mut tables: Vec<FeatureTable> = (0..s)
            .map(|_| FeatureTable::with_capacity(dim, n / s + 1))
            .collect::<Result<_>>()?;
        let mut global_ids: Vec<Vec<PointId>> = vec![Vec::with_capacity(n / s + 1); s];
        for (id, row) in table.iter() {
            let shard = partitioner.route(id, row);
            tables[shard].push_row(row)?;
            global_ids[shard].push(id);
        }
        if tables.iter().any(|t| t.is_empty()) {
            return Err(PlanarError::EmptyDataset);
        }
        let shards = tables
            .into_iter()
            .enumerate()
            .map(|(shard, t)| {
                // Per-shard seed: each shard samples its own candidate
                // normals, so selection can specialize to the shard's key
                // range. Total index memory is unchanged (budget × n
                // entries either way), but the ensemble of normals across
                // shards is `shards ×` richer than one shared sample.
                let seeded = config
                    .clone()
                    .seed(config.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                PlanarIndexSet::build_with(t, domain.clone(), seeded, exec)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shards,
            partitioner,
            global_ids,
            next_global: n as PointId,
            dropped: Vec::new(),
        })
    }

    /// The octant-diagonal pilot and its equal-frequency split keys.
    fn fit_partitioner(
        table: &FeatureTable,
        domain: &ParameterDomain,
        shard_config: ShardConfig,
    ) -> Partitioner {
        match shard_config.scheme {
            PartitionScheme::RoundRobin => Partitioner::RoundRobin {
                shards: shard_config.shards,
            },
            PartitionScheme::PilotKeyRange => {
                let octant = domain.octant();
                let pilot: Vec<f64> = (0..table.dim()).map(|i| octant.sign_f64(i)).collect();
                let mut keys: Vec<f64> = table
                    .iter()
                    .map(|(_, row)| planar_geom::dot_slices(&pilot, row))
                    .collect();
                keys.sort_unstable_by(f64::total_cmp);
                let s = shard_config.shards;
                let splits = (1..s)
                    .map(|j| {
                        let rank = (j * keys.len() / s).min(keys.len().saturating_sub(1));
                        keys.get(rank).copied().unwrap_or(0.0)
                    })
                    .collect();
                Partitioner::PilotKeyRange { pilot, splits }
            }
        }
    }

    /// Reassemble from persisted parts (see `crate::persist`): the shard
    /// sets, the partitioner, and the id maps as stored. Validates the maps
    /// against the shards: each shard lists one global id per row, in
    /// strictly ascending order, and every id below `next_global` is held
    /// by at most one shard or dropped once, never both.
    pub(crate) fn assemble_shards(
        shards: Vec<PlanarIndexSet<S>>,
        partitioner: Partitioner,
        global_ids: Vec<Vec<PointId>>,
        next_global: PointId,
        dropped: Vec<(PointId, u32)>,
    ) -> Result<Self> {
        let bad = |msg: String| Err(PlanarError::Persist(msg));
        if shards.is_empty()
            || partitioner.shards() != shards.len()
            || global_ids.len() != shards.len()
        {
            return bad("shard count disagrees with partitioner".into());
        }
        for (shard, (sh, gids)) in shards.iter().zip(&global_ids).enumerate() {
            if gids.len() != sh.table().len() {
                return bad(format!(
                    "shard {shard} holds {} rows but lists {} global ids",
                    sh.table().len(),
                    gids.len()
                ));
            }
            if gids.windows(2).any(|w| w[0] >= w[1]) {
                return bad(format!("shard {shard}'s global ids do not ascend"));
            }
        }
        if dropped.windows(2).any(|w| w[0].0 >= w[1].0)
            || dropped
                .iter()
                .any(|&(_, shard)| shard as usize >= shards.len())
        {
            return bad("dropped ids not ascending on known shards".into());
        }
        let mut held: Vec<PointId> = global_ids
            .iter()
            .flatten()
            .chain(dropped.iter().map(|(global, _)| global))
            .copied()
            .collect();
        held.sort_unstable();
        if let Some(&top) = held.last().filter(|&&top| top >= next_global) {
            return bad(format!(
                "global id {top} is at or above the high-water mark {next_global}"
            ));
        }
        if let Some(pair) = held.windows(2).find(|w| w[0] == w[1]) {
            return bad(format!("global id {} is held twice", pair[0]));
        }
        Ok(Self {
            shards,
            partitioner,
            global_ids,
            next_global,
            dropped,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrow the shard at `pos` (diagnostics, benches).
    pub fn shard(&self, pos: usize) -> Option<&PlanarIndexSet<S>> {
        self.shards.get(pos)
    }

    /// The partitioner routing mutations.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Quantization tiers per shard, ascending by shard position. The size
    /// rule applies per shard, so a small shard can be `Off` beside `I16`
    /// ones.
    pub fn quant_tiers(&self) -> Vec<QuantTier> {
        self.shards.iter().map(|s| s.quant_tier()).collect()
    }

    /// Switch the quantized tier on or off on every shard (see
    /// [`PlanarIndexSet::set_quant_tier`]). The next retune or compaction
    /// applies the size rule again.
    pub fn set_quant_tier(&mut self, tier: QuantTier) {
        for shard in &mut self.shards {
            shard.set_quant_tier(tier);
        }
    }

    /// Apply the size rule to every shard (see
    /// [`PlanarIndexSet::retune_quantization`]). Returns the tier now
    /// active on each shard. The config carries no setting.
    pub fn retune_quantization(&mut self, _cfg: &QuantAutotuneConfig) -> Vec<QuantTier> {
        self.shards
            .iter_mut()
            .map(PlanarIndexSet::retune_quantization)
            .collect()
    }

    /// `global_ids[shard][local] = global`, strictly ascending per shard
    /// (persistence support).
    pub(crate) fn global_ids(&self) -> &[Vec<PointId>] {
        &self.global_ids
    }

    /// `(global, shard)` of every id a shard compaction dropped, ascending
    /// (persistence support).
    pub(crate) fn dropped(&self) -> &[(PointId, u32)] {
        &self.dropped
    }

    /// Number of live points across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(PlanarIndexSet::len).sum()
    }

    /// True when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimensionality `d'`.
    pub fn dim(&self) -> usize {
        self.shards[0].dim()
    }

    /// Heap bytes owned by all shards plus the id maps.
    pub fn memory_usage(&self) -> usize {
        self.shards
            .iter()
            .map(PlanarIndexSet::memory_usage)
            .sum::<usize>()
            + self.dropped.heap_size()
            + self
                .global_ids
                .iter()
                .map(HeapSize::heap_size)
                .sum::<usize>()
    }

    /// Is the point with this **global** id present and not tombstoned?
    pub fn is_live(&self, id: PointId) -> bool {
        self.slot(id)
            .map(|(shard, local)| self.shards[shard].is_live(local))
            .unwrap_or(false)
    }

    fn slot(&self, id: PointId) -> Option<(usize, u32)> {
        if id >= self.next_global {
            return None;
        }
        self.global_ids
            .iter()
            .enumerate()
            .find_map(|(shard, gids)| Some((shard, gids.binary_search(&id).ok()? as u32)))
    }

    fn live_slot(&self, id: PointId) -> Result<(usize, u32)> {
        match self.slot(id) {
            Some((shard, local)) if self.shards[shard].is_live(local) => Ok((shard, local)),
            _ => Err(PlanarError::PointNotFound(id)),
        }
    }

    /// The shard serving this live **global** id, or `None` for unknown
    /// or deleted ids. Used by the durable wrapper (`crate::wal`) to route
    /// update/delete records to the owning shard's log.
    pub fn shard_of(&self, id: PointId) -> Option<usize> {
        self.live_slot(id).ok().map(|(shard, _)| shard)
    }

    /// The global id the next insert will be assigned.
    pub(crate) fn next_global(&self) -> PointId {
        self.next_global
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Answer an inequality query serially. See [`Self::query_with`].
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn query(&self, q: &InequalityQuery) -> Result<ShardedQueryOutcome> {
        self.query_with(q, &ExecutionConfig::serial(), &mut QueryScratch::new())
    }

    /// Answer an inequality query: every shard evaluates it in shard order
    /// on the calling thread, and the id-remapped matches are concatenated
    /// in canonical order. Each shard runs with the threads a shard-major
    /// batch would leave it (`exec.threads` over the shard workers, at
    /// least 1), as [`Self::top_k_with`] does. Matches as a *set* equal the
    /// unsharded set's for the same data.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn query_with(
        &self,
        q: &InequalityQuery,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> Result<ShardedQueryOutcome> {
        let (_, inner) = parallel::shard_plan(exec, self.shards.len());
        let per_shard = self
            .shards
            .iter()
            .map(|sh| sh.query_with(q, &inner, scratch))
            .collect::<Result<Vec<_>>>()?;
        Ok(self.assemble_query(per_shard))
    }

    /// Answer a batch of inequality queries **shard-major**: each worker
    /// takes whole shards and runs the full batch against them before
    /// moving on, keeping the shard's rows and entries cache-resident
    /// across the batch. Output `i` is deterministic (identical for every
    /// thread count) and equals `query(&qs[i])` as a set of ids.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] if any query's dimensionality
    /// differs (checked up front; no partial results);
    /// [`PlanarError::Internal`] if any query panicked in any shard.
    pub fn query_batch(
        &self,
        qs: &[InequalityQuery],
        exec: &ExecutionConfig,
    ) -> Result<Vec<ShardedQueryOutcome>>
    where
        S: Sync,
    {
        self.query_batch_isolated(qs, exec).into_iter().collect()
    }

    /// [`Self::query_batch`] with per-query fault isolation: slot `i` holds
    /// query `i`'s outcome or its own typed error while the rest of the
    /// batch still completes.
    pub fn query_batch_isolated(
        &self,
        qs: &[InequalityQuery],
        exec: &ExecutionConfig,
    ) -> Vec<Result<ShardedQueryOutcome>>
    where
        S: Sync,
    {
        // One deadline budget spans the whole sharded batch: every shard
        // polls the same guard, so shard 3 sees time spent on shard 0.
        let guard = parallel::DeadlineGuard::new(exec.deadline);
        let per_shard: Vec<Vec<Result<QueryOutcome>>> = self.fan_out_batch(exec, |shard, inner| {
            shard.query_batch_isolated_with_guard(qs, inner, &guard)
        });
        let mut results: Vec<Result<ShardedQueryOutcome>> = per_query(per_shard, qs.len())
            .map(|row| Ok(self.assemble_query(row?)))
            .collect();
        let skipped = stamp_sharded_partial_completed(&mut results, |o| &mut o.served_by);
        parallel::record_deadline_events(skipped as u64);
        results
    }

    /// Answer a top-k query serially. See [`Self::top_k_with`].
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn top_k(&self, q: &TopKQuery) -> Result<ShardedTopKOutcome> {
        self.top_k_with(q, &ExecutionConfig::serial(), &mut QueryScratch::new())
    }

    /// Answer a top-k query: the global `k` is pushed down to every shard
    /// (each answers its local top-k with the same bound) and the id-
    /// remapped per-shard lists are k-way merged on `(distance, global
    /// id)` — identical neighbors to the unsharded set.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn top_k_with(
        &self,
        q: &TopKQuery,
        exec: &ExecutionConfig,
        scratch: &mut QueryScratch,
    ) -> Result<ShardedTopKOutcome> {
        let (_, inner) = parallel::shard_plan(exec, self.shards.len());
        let per_shard = self
            .shards
            .iter()
            .map(|sh| sh.top_k_with(q, &inner, scratch))
            .collect::<Result<Vec<_>>>()?;
        Ok(self.assemble_top_k(q.k, per_shard))
    }

    /// Answer a batch of top-k queries shard-major (see
    /// [`Self::query_batch`]) with per-shard k pushdown and k-way merges.
    ///
    /// # Errors
    ///
    /// Same as [`Self::query_batch`].
    pub fn top_k_batch(
        &self,
        qs: &[TopKQuery],
        exec: &ExecutionConfig,
    ) -> Result<Vec<ShardedTopKOutcome>>
    where
        S: Sync,
    {
        self.top_k_batch_isolated(qs, exec).into_iter().collect()
    }

    /// [`Self::top_k_batch`] with per-query fault isolation.
    pub fn top_k_batch_isolated(
        &self,
        qs: &[TopKQuery],
        exec: &ExecutionConfig,
    ) -> Vec<Result<ShardedTopKOutcome>>
    where
        S: Sync,
    {
        let guard = parallel::DeadlineGuard::new(exec.deadline);
        let per_shard: Vec<Vec<Result<TopKOutcome>>> = self.fan_out_batch(exec, |shard, inner| {
            shard.top_k_batch_isolated_with_guard(qs, inner, &guard)
        });
        let mut results: Vec<Result<ShardedTopKOutcome>> = per_query(per_shard, qs.len())
            .zip(qs)
            .map(|(row, q)| Ok(self.assemble_top_k(q.k, row?)))
            .collect();
        let skipped = stamp_sharded_partial_completed(&mut results, |o| &mut o.served_by);
        parallel::record_deadline_events(skipped as u64);
        results
    }

    /// Run `f` once per shard — serially in shard order, or fanned out over
    /// the shard-level workers of `parallel::shard_plan` — and return the
    /// per-shard results in shard order regardless of thread count.
    fn fan_out_batch<R, F>(&self, exec: &ExecutionConfig, f: F) -> Vec<R>
    where
        S: Sync,
        R: Send,
        F: Fn(&PlanarIndexSet<S>, &ExecutionConfig) -> R + Sync,
    {
        let (workers, inner) = parallel::shard_plan(exec, self.shards.len());
        let shard_refs: Vec<&PlanarIndexSet<S>> = self.shards.iter().collect();
        parallel::map_chunks(&shard_refs, workers, |_, chunk| {
            chunk.iter().map(|sh| f(sh, &inner)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn assemble_query(&self, per_shard: Vec<QueryOutcome>) -> ShardedQueryOutcome {
        let total: usize = per_shard.iter().map(|o| o.matches.len()).sum();
        let mut matches = Vec::with_capacity(total);
        let mut shard_stats = Vec::with_capacity(per_shard.len());
        let mut served_by = Vec::with_capacity(per_shard.len());
        for (shard, out) in per_shard.into_iter().enumerate() {
            let gids = &self.global_ids[shard];
            matches.extend(out.matches.iter().map(|&local| gids[local as usize]));
            shard_stats.push(out.stats);
            served_by.push(out.served_by);
        }
        ShardedQueryOutcome {
            matches,
            shard_stats,
            served_by,
        }
    }

    fn assemble_top_k(&self, k: usize, per_shard: Vec<TopKOutcome>) -> ShardedTopKOutcome {
        let mut lists = Vec::with_capacity(per_shard.len());
        let mut shard_stats = Vec::with_capacity(per_shard.len());
        let mut served_by = Vec::with_capacity(per_shard.len());
        for (shard, out) in per_shard.into_iter().enumerate() {
            let gids = &self.global_ids[shard];
            lists.push(
                out.neighbors
                    .iter()
                    .map(|&(local, dist)| (gids[local as usize], dist))
                    .collect::<Vec<_>>(),
            );
            shard_stats.push(out.stats);
            served_by.push(out.served_by);
        }
        ShardedTopKOutcome {
            neighbors: merge_top_k(&lists, k),
            shard_stats,
            served_by,
        }
    }

    // ------------------------------------------------------------------
    // Mutations (routed through the partitioner)
    // ------------------------------------------------------------------

    /// Insert a new point; its shard is chosen by the partitioner and its
    /// **global** id is returned. Placement is permanent (see module docs).
    ///
    /// # Errors
    ///
    /// Table validation errors (arity, NaN).
    pub fn insert_point(&mut self, row: &[f64]) -> Result<PointId> {
        if row.len() != self.dim() {
            return Err(PlanarError::DimensionMismatch {
                expected: self.dim(),
                found: row.len(),
            });
        }
        let global = self.next_global;
        let shard = self.partitioner.route(global, row);
        self.shards[shard].insert_point(row)?;
        self.global_ids[shard].push(global);
        self.next_global += 1;
        Ok(global)
    }

    /// Update the point with this **global** id in place. The point stays
    /// on its shard even if its pilot key moved across a range boundary —
    /// answers remain exact; rebalance by rebuilding if drift accumulates.
    ///
    /// # Errors
    ///
    /// [`PlanarError::PointNotFound`] for unknown/deleted ids, plus table
    /// validation errors.
    pub fn update_point(&mut self, id: PointId, row: &[f64]) -> Result<()> {
        let (shard, local) = self.live_slot(id)?;
        self.shards[shard]
            .update_point(local, row)
            .map_err(|e| Self::reglobalize(e, id))
    }

    /// Delete the point with this **global** id (tombstoned on its shard).
    ///
    /// # Errors
    ///
    /// [`PlanarError::PointNotFound`] for unknown or already-deleted ids.
    pub fn delete_point(&mut self, id: PointId) -> Result<()> {
        let (shard, local) = self.live_slot(id)?;
        self.shards[shard]
            .delete_point(local)
            .map_err(|e| Self::reglobalize(e, id))
    }

    /// Shard errors carry local ids; rewrite them to the caller's global id.
    fn reglobalize(e: PlanarError, global: PointId) -> PlanarError {
        match e {
            PlanarError::PointNotFound(_) => PlanarError::PointNotFound(global),
            other => other,
        }
    }

    /// Compact every shard whose tombstone fraction exceeds `threshold`
    /// (see [`PlanarIndexSet::compact_if`]) and repair the id maps. Global
    /// ids are stable across compaction — only shard-local ids shift — so
    /// callers never observe a change. Returns the shards compacted,
    /// ascending.
    pub fn compact(&mut self, threshold: f64) -> Vec<usize> {
        let mut compacted = Vec::new();
        for shard in 0..self.shards.len() {
            if self.compact_shard(shard, threshold) {
                compacted.push(shard);
            }
        }
        compacted
    }

    /// Compact one shard (when its tombstone fraction exceeds
    /// `threshold`) and repair its slice of the id maps. Shard-local by
    /// construction, which is what lets WAL replay apply a broadcast
    /// `Compact` record per shard stream (see `crate::wal`).
    pub(crate) fn compact_shard(&mut self, shard: usize, threshold: f64) -> bool {
        let Some(remap) = self.shards[shard].compact_if(threshold) else {
            return false;
        };
        // Compaction keeps the survivors' relative order, so the kept
        // global ids stay ascending.
        let old_gids = std::mem::take(&mut self.global_ids[shard]);
        let mut new_gids = Vec::with_capacity(self.shards[shard].table().len());
        for (old_local, gid) in old_gids.into_iter().enumerate() {
            match remap[old_local] {
                Some(new_local) => {
                    debug_assert_eq!(new_local as usize, new_gids.len());
                    new_gids.push(gid);
                }
                None => self.dropped.push((gid, shard as u32)),
            }
        }
        self.dropped.sort_unstable();
        self.global_ids[shard] = new_gids;
        true
    }

    // ------------------------------------------------------------------
    // WAL replay (see `crate::wal`)
    // ------------------------------------------------------------------

    /// Apply one replayed WAL record from `shard`'s log. `Insert` records
    /// carry the global id assigned at log time: ids lost to another
    /// shard's torn tail leave gaps below the high-water mark, so each
    /// shard's stream replays independently of cross-shard interleaving.
    pub(crate) fn replay_record(
        &mut self,
        shard: usize,
        lsn: u64,
        rec: &crate::wal::WalRecord,
    ) -> Result<()> {
        use crate::wal::WalRecord;
        match rec {
            WalRecord::Insert { id, row } => self.replay_insert(shard, *id, row, lsn),
            WalRecord::Update { id, row } => self.update_point(*id, row),
            WalRecord::Delete { id } => self.delete_point(*id),
            WalRecord::Compact { threshold } => {
                // `None` (unconditional) never occurs in sharded logs, but
                // a negative threshold makes `compact_if` unconditional.
                self.compact_shard(shard, threshold.unwrap_or(-1.0));
                Ok(())
            }
            WalRecord::Checkpoint { .. } => Ok(()),
        }
    }

    fn replay_insert(
        &mut self,
        shard: usize,
        global: PointId,
        row: &[f64],
        lsn: u64,
    ) -> Result<()> {
        let diverged = |why: &str| {
            Err(PlanarError::Persist(format!(
                "wal: replay diverged at lsn {lsn}: insert id {global} {why}"
            )))
        };
        // Shards replay one after another, so an earlier shard's replay
        // may already have moved the high-water mark past this id, leaving
        // it a gap. This record is the authoritative owner of a gap —
        // fill it. An id a shard holds, or one a compaction dropped, means
        // two logs claim the same id: real divergence.
        if global < self.next_global
            && (self.slot(global).is_some()
                || self.dropped.binary_search_by_key(&global, |d| d.0).is_ok())
        {
            return diverged("already assigned");
        }
        // A shard's log holds its inserts in ascending id order.
        if self.global_ids[shard].last().is_some_and(|&g| g > global) {
            return diverged("is below an id its shard already holds");
        }
        self.shards[shard].insert_point(row)?;
        self.global_ids[shard].push(global);
        self.next_global = self.next_global.max(global + 1);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Health: per-shard quarantine and degrade
    // ------------------------------------------------------------------

    /// Run every shard's index self-check (see
    /// [`PlanarIndexSet::verify_all`]) without changing any state.
    pub fn verify_all(&self) -> ShardedHealthReport {
        ShardedHealthReport {
            shards: self.shards.iter().map(|sh| sh.verify_all()).collect(),
        }
    }

    /// [`Self::verify_all`], then quarantine every failing index on its
    /// shard. A shard with every index quarantined keeps answering exactly
    /// via its scan path ([`ServedBy::Degraded`] in that shard's slot).
    pub fn verify_and_quarantine(&mut self) -> ShardedHealthReport {
        ShardedHealthReport {
            shards: self
                .shards
                .iter_mut()
                .map(|sh| sh.verify_and_quarantine())
                .collect(),
        }
    }

    /// Quarantine one index on one shard (out-of-range pairs are ignored).
    pub fn quarantine(&mut self, shard: usize, pos: usize) {
        if let Some(sh) = self.shards.get_mut(shard) {
            sh.quarantine(pos);
        }
    }

    /// `(shard, quarantined index positions)` for every shard with at
    /// least one quarantined index, ascending.
    pub fn quarantined_positions(&self) -> Vec<(usize, Vec<usize>)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(s, sh)| {
                let q = sh.quarantined_positions();
                (!q.is_empty()).then_some((s, q))
            })
            .collect()
    }

    /// Rebuild every quarantined index on every shard from its shard table
    /// and clear the flags. Returns `(shard, rebuilt positions)` for every
    /// shard that had work, ascending.
    pub fn rebuild_quarantined(&mut self) -> Vec<(usize, Vec<usize>)> {
        self.shards
            .iter_mut()
            .enumerate()
            .filter_map(|(s, sh)| {
                let rebuilt = sh.rebuild_quarantined();
                (!rebuilt.is_empty()).then_some((s, rebuilt))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Cmp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_table(n: usize, seed: u64) -> FeatureTable {
        let mut rng = StdRng::seed_from_u64(seed);
        FeatureTable::from_rows(
            2,
            (0..n)
                .map(|_| vec![rng.random_range(1.0..100.0), rng.random_range(1.0..100.0)])
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn pair(
        n: usize,
        shard_config: ShardConfig,
    ) -> (PlanarIndexSet<VecStore>, ShardedIndexSet<VecStore>) {
        let table = random_table(n, 7);
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 3.0).unwrap();
        let cfg = IndexConfig::with_budget(4);
        let unsharded = PlanarIndexSet::build(table.clone(), domain.clone(), cfg.clone()).unwrap();
        let sharded = ShardedIndexSet::build(table, domain, cfg, shard_config).unwrap();
        (unsharded, sharded)
    }

    #[test]
    fn partitioners_route_deterministically() {
        let rr = Partitioner::RoundRobin { shards: 3 };
        assert_eq!(rr.shards(), 3);
        assert_eq!(rr.route(0, &[1.0]), 0);
        assert_eq!(rr.route(4, &[1.0]), 1);
        let range = Partitioner::PilotKeyRange {
            pilot: vec![1.0, 1.0],
            splits: vec![10.0, 20.0],
        };
        assert_eq!(range.shards(), 3);
        assert_eq!(range.route(0, &[1.0, 2.0]), 0);
        assert_eq!(range.route(0, &[5.0, 5.0]), 0); // key 10: boundary keys stay left
        assert_eq!(range.route(0, &[5.0, 6.0]), 1);
        assert_eq!(range.route(0, &[50.0, 50.0]), 2);
    }

    #[test]
    fn sharded_matches_unsharded_for_both_partitioners() {
        for sc in [ShardConfig::round_robin(3), ShardConfig::pilot_key_range(3)] {
            let (unsharded, sharded) = pair(300, sc);
            for (a, b) in [(vec![1.0, 1.0], 90.0), (vec![2.5, 0.6], 120.0)] {
                for cmp in [Cmp::Leq, Cmp::Geq] {
                    let q = InequalityQuery::new(a.clone(), cmp, b).unwrap();
                    let want = unsharded.query(&q).unwrap();
                    let got = sharded.query(&q).unwrap();
                    assert_eq!(got.sorted_ids(), want.sorted_ids(), "{sc:?} {cmp:?}");
                    assert_eq!(got.shard_stats.len(), 3);
                    assert_eq!(
                        got.merged_stats().matched,
                        want.stats.matched,
                        "merged matched count"
                    );

                    let tq = TopKQuery::new(q, 9).unwrap();
                    let want_tk = unsharded.top_k(&tq).unwrap();
                    let got_tk = sharded.top_k(&tq).unwrap();
                    assert_eq!(got_tk.neighbors, want_tk.neighbors, "{sc:?} {cmp:?}");
                }
            }
        }
    }

    #[test]
    fn batches_equal_single_queries_for_any_thread_count() {
        let (_, sharded) = pair(240, ShardConfig::pilot_key_range(4));
        let qs: Vec<InequalityQuery> = (0..6)
            .map(|i| {
                InequalityQuery::leq(vec![1.0 + i as f64 * 0.3, 1.1], 60.0 + i as f64).unwrap()
            })
            .collect();
        let want: Vec<ShardedQueryOutcome> = qs.iter().map(|q| sharded.query(q).unwrap()).collect();
        for threads in [1, 2, 3, 4, 5, 8] {
            let exec = ExecutionConfig::with_threads(threads);
            let got = sharded.query_batch(&qs, &exec).unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
        let tqs: Vec<TopKQuery> = qs
            .iter()
            .map(|q| TopKQuery::new(q.clone(), 5).unwrap())
            .collect();
        let want_tk: Vec<ShardedTopKOutcome> =
            tqs.iter().map(|q| sharded.top_k(q).unwrap()).collect();
        for threads in [1, 2, 3, 4, 5, 8] {
            let exec = ExecutionConfig::with_threads(threads);
            let got = sharded.top_k_batch(&tqs, &exec).unwrap();
            assert_eq!(got, want_tk, "threads={threads}");
        }
    }

    #[test]
    fn merge_top_k_merges_and_tiebreaks_on_id() {
        let a = vec![(0, 1.0), (2, 3.0), (4, 3.0)];
        let b = vec![(1, 1.0), (3, 3.0)];
        assert_eq!(
            merge_top_k(&[a.clone(), b.clone()], 4),
            vec![(0, 1.0), (1, 1.0), (2, 3.0), (3, 3.0)]
        );
        assert_eq!(merge_top_k(&[a, b], 10).len(), 5);
        assert!(merge_top_k(&[Vec::new(), Vec::new()], 3).is_empty());
    }

    #[test]
    fn mutations_route_and_preserve_equivalence() {
        let sc = ShardConfig::pilot_key_range(3);
        let (mut unsharded, mut sharded) = pair(90, sc);
        // Interleave inserts (ids stay aligned because both sets number
        // points in insertion order), updates and deletes.
        let mut rng = StdRng::seed_from_u64(5);
        for step in 0..60u32 {
            match step % 4 {
                0 | 1 => {
                    let row = vec![rng.random_range(1.0..100.0), rng.random_range(1.0..100.0)];
                    let a = unsharded.insert_point(&row).unwrap();
                    let b = sharded.insert_point(&row).unwrap();
                    assert_eq!(a, b, "global id alignment");
                }
                2 => {
                    let id = rng.random_range(0..unsharded.table().len() as u32);
                    let row = vec![rng.random_range(1.0..100.0), rng.random_range(1.0..100.0)];
                    assert_eq!(
                        unsharded.update_point(id, &row).is_ok(),
                        sharded.update_point(id, &row).is_ok()
                    );
                }
                _ => {
                    let id = rng.random_range(0..unsharded.table().len() as u32);
                    assert_eq!(
                        unsharded.delete_point(id).is_ok(),
                        sharded.delete_point(id).is_ok()
                    );
                }
            }
        }
        assert_eq!(unsharded.len(), sharded.len());
        let q = InequalityQuery::leq(vec![1.0, 2.0], 150.0).unwrap();
        assert_eq!(
            sharded.query(&q).unwrap().sorted_ids(),
            unsharded.query(&q).unwrap().sorted_ids()
        );
        let tq = TopKQuery::new(q, 12).unwrap();
        assert_eq!(
            sharded.top_k(&tq).unwrap().neighbors,
            unsharded.top_k(&tq).unwrap().neighbors
        );
        // Deleted ids report the *global* id in errors.
        let dead = (0..unsharded.table().len() as u32)
            .find(|&id| !unsharded.is_live(id))
            .expect("at least one delete happened");
        assert_eq!(
            sharded.delete_point(dead).unwrap_err(),
            PlanarError::PointNotFound(dead)
        );
    }

    #[test]
    fn compaction_keeps_global_ids_stable() {
        let sc = ShardConfig::round_robin(2);
        let (mut unsharded, mut sharded) = pair(40, sc);
        for id in (0..30u32).step_by(2) {
            unsharded.delete_point(id).unwrap();
            sharded.delete_point(id).unwrap();
        }
        let compacted = sharded.compact(0.2);
        assert!(!compacted.is_empty(), "threshold 0.2 must trigger");
        let q = InequalityQuery::geq(vec![1.0, 1.0], 0.0).unwrap();
        assert_eq!(
            sharded.query(&q).unwrap().sorted_ids(),
            unsharded.query(&q).unwrap().sorted_ids()
        );
        // Dead globals stay dead; live globals still mutate.
        assert!(!sharded.is_live(0));
        assert_eq!(
            sharded.delete_point(0).unwrap_err(),
            PlanarError::PointNotFound(0)
        );
        assert!(sharded.is_live(1));
        sharded.update_point(1, &[2.0, 2.0]).unwrap();
        unsharded.update_point(1, &[2.0, 2.0]).unwrap();
        assert_eq!(
            sharded.query(&q).unwrap().sorted_ids(),
            unsharded.query(&q).unwrap().sorted_ids()
        );
        // Inserts after compaction keep the per-shard maps monotone.
        let a = unsharded.insert_point(&[3.0, 3.0]).unwrap();
        let b = sharded.insert_point(&[3.0, 3.0]).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            sharded.query(&q).unwrap().sorted_ids(),
            unsharded.query(&q).unwrap().sorted_ids()
        );
    }

    #[test]
    fn per_shard_quarantine_degrades_only_that_shard() {
        let (unsharded, mut sharded) = pair(120, ShardConfig::round_robin(3));
        for pos in 0..sharded.shard(1).unwrap().num_indices() {
            sharded.quarantine(1, pos);
        }
        assert_eq!(sharded.quarantined_positions().len(), 1);
        let q = InequalityQuery::leq(vec![1.0, 1.0], 80.0).unwrap();
        let out = sharded.query(&q).unwrap();
        assert_eq!(out.degraded_shards(), vec![1]);
        assert!(matches!(out.served_by[0], ServedBy::Index(_)));
        assert_eq!(
            out.sorted_ids(),
            unsharded.query(&q).unwrap().sorted_ids(),
            "degraded shard still answers exactly"
        );
        let mut agg = StatsAggregator::new();
        out.record(&mut agg);
        assert_eq!(agg.count(), 1);
        assert_eq!(agg.scan_fallback_count(), 0, "one indexed shard suffices");

        let rebuilt = sharded.rebuild_quarantined();
        assert_eq!(rebuilt.len(), 1);
        assert_eq!(rebuilt[0].0, 1);
        assert!(sharded.verify_all().healthy());
        assert!(sharded.query(&q).unwrap().degraded_shards().is_empty());
    }

    #[test]
    fn build_rejects_empty_shards_and_zero_counts() {
        let table = random_table(3, 1);
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 3.0).unwrap();
        let cfg = IndexConfig::with_budget(2);
        assert_eq!(
            ShardedIndexSet::<VecStore>::build(
                table.clone(),
                domain.clone(),
                cfg.clone(),
                ShardConfig::round_robin(0),
            )
            .unwrap_err(),
            PlanarError::InvalidBudget
        );
        assert_eq!(
            ShardedIndexSet::<VecStore>::build(table, domain, cfg, ShardConfig::round_robin(5),)
                .unwrap_err(),
            PlanarError::EmptyDataset
        );
    }

    #[test]
    fn isolated_batch_surfaces_poisoned_query_per_slot() {
        let (_, sharded) = pair(60, ShardConfig::round_robin(2));
        let poison_b = 77.125_001_5;
        let qs = vec![
            InequalityQuery::leq(vec![1.0, 1.0], 50.0).unwrap(),
            InequalityQuery::leq(vec![1.0, 1.0], poison_b).unwrap(),
            InequalityQuery::leq(vec![1.0, 1.0], 90.0).unwrap(),
        ];
        crate::fault::arm_query_panic(poison_b);
        let results = sharded.query_batch_isolated(&qs, &ExecutionConfig::serial());
        crate::fault::disarm_query_panic();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(PlanarError::Internal(_))));
        assert!(results[2].is_ok());
    }

    #[test]
    fn replay_insert_rejects_compaction_killed_ids() {
        let (_, mut sharded) = pair(30, ShardConfig::round_robin(3));
        // Kill a shard-0 global id via delete + compaction: it is recorded
        // as dropped, which must stay distinct from a replay gap, also
        // across a snapshot round trip.
        let victim = 0u32; // round-robin: global 0 lives on shard 0
        sharded.delete_point(victim).unwrap();
        assert!(sharded.compact_shard(0, 0.0));
        assert_eq!(sharded.dropped(), &[(victim, 0)]);
        let reloaded = ShardedIndexSet::<VecStore>::from_bytes(&sharded.to_bytes()).unwrap();
        assert_eq!(reloaded.dropped(), sharded.dropped());
        for mut set in [sharded, reloaded] {
            let err = set
                .replay_record(
                    0,
                    1,
                    &crate::wal::WalRecord::Insert {
                        id: victim,
                        row: vec![1.0, 1.0],
                    },
                )
                .unwrap_err()
                .to_string();
            assert!(err.contains("replay diverged"), "got: {err}");
        }
    }

    #[test]
    fn persisted_assignment_keeps_replay_gaps() {
        let (_, mut sharded) = pair(30, ShardConfig::round_robin(3));
        let next = sharded.next_global();
        // Replay an insert whose predecessor's record was lost to another
        // shard's torn tail: `next` becomes a gap — below the high-water
        // mark, held by no shard, not dropped.
        let insert = |id| crate::wal::WalRecord::Insert {
            id,
            row: vec![2.0, 2.0],
        };
        sharded.replay_record(1, 1, &insert(next + 1)).unwrap();
        assert!(sharded.slot(next).is_none() && sharded.dropped().is_empty());
        assert!(sharded.is_live(next + 1));
        assert_eq!(sharded.next_global(), next + 2);

        // The gap survives a snapshot round-trip untouched.
        let tmp = crate::fault::TempDir::new("shard_gap_persist").unwrap();
        let path = tmp.file("snap.plnr");
        sharded.save_to(&path).unwrap();
        let (mut loaded, _) = ShardedIndexSet::<VecStore>::load_or_recover(&path).unwrap();
        assert_eq!(loaded.global_ids(), sharded.global_ids());
        assert!(loaded.slot(next).is_none() && loaded.dropped().is_empty());
        assert!(!loaded.is_live(next));
        assert!(loaded.is_live(next + 1));
        assert_eq!(loaded.next_global(), next + 2);
        // ...and stays fillable: its owner's record replays into it.
        loaded.replay_record(2, 2, &insert(next)).unwrap();
        assert!(loaded.is_live(next));
    }

    #[test]
    fn loader_rejects_duplicate_and_missing_local_ids() {
        let (_, mut sharded) = pair(120, ShardConfig::round_robin(3));
        sharded.delete_point(0).unwrap();
        assert!(sharded.compact_shard(0, 0.0));
        let load = |global_ids: Vec<Vec<PointId>>, next_global, dropped| {
            ShardedIndexSet::assemble_shards(
                sharded.shards.clone(),
                sharded.partitioner.clone(),
                global_ids,
                next_global,
                dropped,
            )
        };
        let rejects =
            |r: Result<ShardedIndexSet<VecStore>>| matches!(r, Err(PlanarError::Persist(_)));
        let (ids, next, dropped) = (
            || sharded.global_ids.clone(),
            sharded.next_global,
            || sharded.dropped.clone(),
        );
        // An id held by two shards (shard 2's first id, still ascending in
        // shard 1's list).
        let mut dup = ids();
        dup[1][0] = dup[2][0];
        assert!(rejects(load(dup, next, dropped())));
        // A non-ascending list.
        let mut unsorted = ids();
        unsorted[1].swap(0, 1);
        assert!(rejects(load(unsorted, next, dropped())));
        // A list shorter than its shard's rows.
        let mut short = ids();
        short[2].pop();
        assert!(rejects(load(short, next, dropped())));
        // An id at the high-water mark.
        assert!(rejects(load(ids(), next - 1, dropped())));
        // A dropped id that a shard still holds.
        let mut held = dropped();
        held.push((3, 0));
        assert!(rejects(load(ids(), next, held)));
        assert!(load(ids(), next, dropped()).is_ok());
    }

    #[test]
    fn top_k_ties_straddling_k_break_on_global_id_across_shards() {
        // Every row appears three times, so each distance is shared by
        // three global ids that round-robin sends to three shards; k cuts
        // through such a run.
        let base = random_table(40, 11);
        let rows: Vec<Vec<f64>> = (0..3)
            .flat_map(|_| base.iter().map(|(_, r)| r.to_vec()).collect::<Vec<_>>())
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 3.0).unwrap();
        let cfg = IndexConfig::with_budget(3);
        let unsharded =
            PlanarIndexSet::<VecStore>::build(table.clone(), domain.clone(), cfg.clone()).unwrap();
        let scan = crate::scan::SeqScan::new(&table);
        let mut straddled = 0;
        for sc in [ShardConfig::round_robin(3), ShardConfig::pilot_key_range(2)] {
            let sharded =
                ShardedIndexSet::<VecStore>::build(table.clone(), domain.clone(), cfg.clone(), sc)
                    .unwrap();
            for (k, b) in [(4, 90.0), (8, 140.0), (13, 60.0)] {
                for cmp in [Cmp::Leq, Cmp::Geq] {
                    let q =
                        TopKQuery::new(InequalityQuery::new(vec![1.0, 1.5], cmp, b).unwrap(), k)
                            .unwrap();
                    let want = unsharded.top_k(&q).unwrap().neighbors;
                    let got = sharded.top_k(&q).unwrap().neighbors;
                    let bits = |v: &[(PointId, f64)]| {
                        v.iter()
                            .map(|&(id, d)| (id, d.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&got), bits(&want), "{sc:?} k={k} {cmp:?}");
                    assert_eq!(bits(&want), bits(&scan.top_k(&q).unwrap()));
                    // Does k cut through a run of equal distances?
                    let all = scan.top_k(&TopKQuery::new(q.query.clone(), 120).unwrap());
                    let all = all.unwrap();
                    if all.len() > k && all[k].1 == all[k - 1].1 {
                        straddled += 1;
                    }
                }
            }
        }
        assert!(straddled > 0, "no case cut through a tie run");
    }

    #[test]
    fn deadline_spans_the_whole_sharded_batch() {
        use std::time::Duration;
        let (_, sharded) = pair(90, ShardConfig::round_robin(3));
        let qs: Vec<InequalityQuery> = [40.0, 80.0, 120.0]
            .iter()
            .map(|&b| InequalityQuery::leq(vec![1.0, 1.0], b).unwrap())
            .collect();
        let exec = ExecutionConfig::serial().with_deadline(Duration::ZERO);
        let outs = sharded.query_batch(&qs, &exec).unwrap();
        for out in &outs {
            assert!(out.matches.is_empty());
            // Every shard slot is a placeholder stamped with the batch's
            // completed count (zero here).
            assert_eq!(out.served_by.len(), 3);
            for sb in &out.served_by {
                assert_eq!(
                    *sb,
                    ServedBy::Partial {
                        completed: 0,
                        deadline_hit: true
                    }
                );
            }
        }
        let tops: Vec<TopKQuery> = qs
            .iter()
            .map(|q| TopKQuery::new(q.clone(), 4).unwrap())
            .collect();
        let touts = sharded.top_k_batch(&tops, &exec).unwrap();
        assert!(touts
            .iter()
            .all(|o| o.neighbors.is_empty() && o.served_by.iter().all(ServedBy::is_partial)));

        // An effectively unlimited budget answers everything, bit-identical
        // to the unbudgeted path.
        let generous = ExecutionConfig::serial().with_deadline(Duration::from_secs(3600));
        assert_eq!(
            sharded.query_batch(&qs, &generous).unwrap(),
            sharded
                .query_batch(&qs, &ExecutionConfig::serial())
                .unwrap()
        );
    }
}
