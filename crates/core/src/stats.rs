//! Per-query execution statistics.
//!
//! The paper's Figures 9 and 10 report the *pruning percentage* — the share
//! of points accepted or rejected without computing their scalar product.
//! Every query in this crate returns a [`QueryStats`] carrying exactly the
//! quantities those figures plot, plus which execution path was taken.

/// How a query was executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionPath {
    /// Served by the Planar index number `index` of the set.
    Index {
        /// Position of the chosen index within the [`crate::PlanarIndexSet`].
        index: usize,
    },
    /// Fell back to a sequential scan, with the reason.
    ScanFallback(ScanReason),
}

/// Why a query could not use the indexed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanReason {
    /// Some query coefficient is zero: the query hyperplane never meets
    /// that axis, so interval pruning on a full-dimensional index would be
    /// unsound (§4.1 tells us to drop the axis — which needs an index built
    /// without it).
    ZeroCoefficient,
    /// The coefficient signs do not match the octant the set was built for
    /// (§4.5: the octant is fixed by the parameter domains).
    OctantMismatch,
    /// The caller explicitly requested a scan.
    Requested,
    /// Every Planar index in the set is quarantined (see `crate::health`):
    /// the scan keeps answers exact while the indices are rebuilt.
    IndexUnavailable,
    /// The batch's [`crate::ExecutionConfig::deadline`] expired before
    /// this query started: nothing ran at all — no scan, no index. The
    /// outcome is an empty placeholder with [`ServedBy::Partial`]
    /// provenance.
    DeadlineExceeded,
}

impl core::fmt::Display for ScanReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScanReason::ZeroCoefficient => write!(f, "zero query coefficient"),
            ScanReason::OctantMismatch => write!(f, "coefficient signs outside indexed octant"),
            ScanReason::Requested => write!(f, "scan requested"),
            ScanReason::IndexUnavailable => write!(f, "all indices quarantined"),
            ScanReason::DeadlineExceeded => write!(f, "batch deadline expired before execution"),
        }
    }
}

/// Provenance of a query answer: which component of the set actually served
/// it. Carried on [`crate::QueryOutcome`] / [`crate::TopKOutcome`] so
/// operators can distinguish a healthy indexed answer from degraded-mode
/// serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Served by the Planar index at this position in the set.
    Index(usize),
    /// Served by the exact sequential scan for a query-shape reason (zero
    /// coefficient, octant mismatch, or an explicit scan request).
    ScanFallback,
    /// Served by the exact sequential scan because no healthy index was
    /// available (all quarantined) — correct answers at scan latency.
    Degraded,
    /// **Not served**: the batch's wall-clock deadline expired before this
    /// query started, so its slot holds an empty placeholder instead of
    /// stalling the batch. `completed` is the number of queries in the
    /// batch that did finish before the budget ran out.
    Partial {
        /// Queries of the batch that completed before the deadline.
        completed: usize,
        /// Always `true` today: the only partial-result source is an
        /// expired [`crate::ExecutionConfig::deadline`].
        deadline_hit: bool,
    },
}

impl ServedBy {
    /// The provenance implied by an execution path.
    pub fn from_path(path: &ExecutionPath) -> Self {
        match path {
            ExecutionPath::Index { index } => ServedBy::Index(*index),
            ExecutionPath::ScanFallback(ScanReason::IndexUnavailable) => ServedBy::Degraded,
            ExecutionPath::ScanFallback(ScanReason::DeadlineExceeded) => ServedBy::Partial {
                completed: 0,
                deadline_hit: true,
            },
            ExecutionPath::ScanFallback(_) => ServedBy::ScanFallback,
        }
    }

    /// True when the answer came from degraded-mode serving.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ServedBy::Degraded)
    }

    /// True when the slot is a deadline placeholder, not an answer.
    pub fn is_partial(&self) -> bool {
        matches!(self, ServedBy::Partial { .. })
    }
}

/// Counters describing one query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStats {
    /// Total points in the dataset.
    pub n: usize,
    /// Points in the smaller interval (accepted or rejected wholesale).
    pub smaller: usize,
    /// Points in the intermediate interval: the index's candidates.
    pub intermediate: usize,
    /// Points in the larger interval (accepted or rejected wholesale).
    pub larger: usize,
    /// Rows whose lanes reached the quantized classifier or an `f64`
    /// product. Rows of blocks settled by their bounding box are not
    /// verified (see [`crate::QuantFilterStats::box_accepted`]). On a
    /// clustered table this depends on the block layout, which a loaded or
    /// replicated copy builds afresh, until the next compaction.
    pub verified: usize,
    /// Always 0: no candidate is dropped unverified by another index. The
    /// field stays for the repository benchmark
    /// (`benchmark/src/replay.rs`), which reports it as
    /// `index.intersect_pruned_per_query`.
    pub intersect_pruned: usize,
    /// Points in the answer set (`t` in the paper's complexity bounds).
    pub matched: usize,
    /// What the quantized filter tier did during verification (all zeros
    /// when the tier is off — see [`crate::QuantFilterStats`]).
    pub quant: crate::quant::QuantFilterStats,
    /// 1 when the box decided: the fill would have marked at least a
    /// quarter as many interval rows as the blocks its box sweep left mixed
    /// hold live rows, so those rows were verified instead and the
    /// candidate bitmap was never filled (see
    /// [`crate::SingleIndex::evaluate_with`]); 0 otherwise. A merged
    /// sharded record counts the shards that skipped.
    pub fill_skipped: usize,
    /// Execution path taken.
    pub path: ExecutionPath,
}

impl QueryStats {
    /// A stats record for a pure sequential scan.
    pub fn scan(n: usize, matched: usize, reason: ScanReason) -> Self {
        Self {
            n,
            smaller: 0,
            intermediate: n,
            larger: 0,
            verified: n,
            intersect_pruned: 0,
            matched,
            quant: crate::quant::QuantFilterStats::default(),
            fill_skipped: 0,
            path: ExecutionPath::ScanFallback(reason),
        }
    }

    /// Fraction of points pruned (accepted/rejected without a scalar
    /// product): `(smaller + larger) / n`. This is the quantity of Figures
    /// 9 and 10, as a value in `[0, 1]`.
    pub fn pruned_fraction(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        (self.smaller + self.larger) as f64 / self.n as f64
    }

    /// Pruning percentage in `[0, 100]` (the paper's y-axis).
    pub fn pruning_percentage(&self) -> f64 {
        100.0 * self.pruned_fraction()
    }

    /// Was the indexed path used?
    pub fn used_index(&self) -> bool {
        matches!(self.path, ExecutionPath::Index { .. })
    }

    /// Merge per-shard stats of one sharded query into one logical record:
    /// every counter is summed across shards (so `pruned_fraction` is the
    /// global fraction over the whole dataset). The merged `path` is the
    /// first shard's indexed path when any shard used an index — the shard
    /// layer has no single "the" index, so the path is representative, not
    /// authoritative; per-shard provenance lives on the sharded outcome —
    /// and the first shard's fallback reason when none did.
    pub fn merged(per_shard: &[QueryStats]) -> QueryStats {
        let path = per_shard
            .iter()
            .find(|s| s.used_index())
            .or_else(|| per_shard.first())
            .map(|s| s.path.clone())
            .unwrap_or(ExecutionPath::ScanFallback(ScanReason::Requested));
        let mut merged = QueryStats {
            n: 0,
            smaller: 0,
            intermediate: 0,
            larger: 0,
            verified: 0,
            intersect_pruned: 0,
            matched: 0,
            quant: crate::quant::QuantFilterStats::default(),
            fill_skipped: 0,
            path,
        };
        for s in per_shard {
            merged.n += s.n;
            merged.smaller += s.smaller;
            merged.intermediate += s.intermediate;
            merged.larger += s.larger;
            merged.verified += s.verified;
            merged.matched += s.matched;
            merged.quant.merge(&s.quant);
            merged.fill_skipped += s.fill_skipped;
        }
        merged
    }
}

/// Aggregates [`QueryStats`] across a workload (the paper reports averages
/// over 100 runs).
#[derive(Debug, Clone, Default)]
pub struct StatsAggregator {
    count: usize,
    topk_queries: usize,
    pruned_sum: f64,
    verified_sum: usize,
    matched_sum: usize,
    intermediate_sum: usize,
    fill_skipped_sum: usize,
    index_hits: usize,
    scan_fallbacks: usize,
    degraded: usize,
    quarantine_events: usize,
    deadline_hits: usize,
    wal_recorded: bool,
    wal_segments: usize,
    wal_unsynced_records: u64,
    wal_last_lsn: u64,
    wal_appended_lsn: u64,
    wal_acked_lsn: u64,
    quant_sum: crate::quant::QuantFilterStats,
    epoch_recorded: bool,
    epoch: u64,
    epochs_published: u64,
    epochs_retired_live: usize,
    epochs_reclaimed: u64,
    epoch_clones: u64,
    epoch_clone_bytes: u64,
    epoch_clone_micros: u64,
    gc_recorded: bool,
    gc_fsyncs: u64,
    gc_committed_records: u64,
    gc_max_group: u64,
    repl_recorded: bool,
    repl_term: u64,
    repl_replicas: usize,
    repl_min_acked_lsn: u64,
    repl_lag: u64,
    repl_quorum_frontier: u64,
    repl_quorum_timeouts: u64,
    repl_link_drops: u64,
    repl_link_acked: Vec<(u32, u64)>,
}

impl StatsAggregator {
    /// Fresh aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one query's stats.
    pub fn add(&mut self, s: &QueryStats) {
        self.count += 1;
        self.pruned_sum += s.pruned_fraction();
        self.verified_sum += s.verified;
        self.matched_sum += s.matched;
        self.intermediate_sum += s.intermediate;
        self.fill_skipped_sum += s.fill_skipped;
        self.quant_sum.merge(&s.quant);
        if matches!(
            s.path,
            ExecutionPath::ScanFallback(ScanReason::DeadlineExceeded)
        ) {
            // A deadline placeholder was never executed: it is neither an
            // index hit nor a scan — count it separately.
            self.deadline_hits += 1;
        } else if s.used_index() {
            self.index_hits += 1;
        } else {
            self.scan_fallbacks += 1;
            if matches!(
                s.path,
                ExecutionPath::ScanFallback(ScanReason::IndexUnavailable)
            ) {
                self.degraded += 1;
            }
        }
    }

    /// Fold in one *sharded* query's per-shard stats as a single logical
    /// query (see [`QueryStats::merged`]): the aggregate's query count
    /// advances by one, not by the shard count.
    pub fn add_sharded(&mut self, per_shard: &[QueryStats]) {
        self.add(&QueryStats::merged(per_shard));
    }

    /// Fold in one top-k query's per-shard stats as a single logical
    /// top-k query. Top-k queries are counted apart from inequality
    /// queries (they leave [`Self::count`] and the per-query means alone);
    /// their quantized-filter counters join the shared `quant_*` sums.
    /// [`StatsSnapshot::topk_queries`] reports the count.
    pub fn add_top_k_sharded(&mut self, per_shard: &[crate::index::TopKStats]) {
        self.topk_queries += 1;
        for s in per_shard {
            self.quant_sum.merge(&s.quant);
        }
    }

    /// Record an index-quarantine event (see `crate::health`). Quarantines
    /// are lifecycle events, not per-query stats, so callers report them
    /// explicitly.
    pub fn record_quarantine(&mut self) {
        self.quarantine_events += 1;
    }

    /// Stamp the latest write-ahead-log health (see [`crate::WalHealth`])
    /// into the aggregate. Like quarantines, WAL state is a lifecycle
    /// property, not a per-query stat: the most recent recording wins and
    /// is surfaced verbatim by [`Self::snapshot`].
    pub fn record_wal(&mut self, health: &crate::wal::WalHealth) {
        self.wal_recorded = true;
        self.wal_segments = health.segments;
        self.wal_unsynced_records = health.unsynced_records;
        self.wal_last_lsn = health.last_lsn;
        self.wal_appended_lsn = health.appended_lsn;
        self.wal_acked_lsn = health.acked_lsn;
    }

    /// Stamp the latest epoch bookkeeping (see [`crate::EpochStats`]) into
    /// the aggregate. Point-in-time like [`Self::record_wal`]: the most
    /// recent recording wins.
    pub fn record_epoch(&mut self, stats: &crate::concurrent::EpochStats) {
        self.epoch_recorded = true;
        self.epoch = stats.epoch;
        self.epochs_published = stats.published;
        self.epochs_retired_live = stats.retired_live;
        self.epochs_reclaimed = stats.reclaimed;
        self.epoch_clones = stats.clones;
        self.epoch_clone_bytes = stats.clone_bytes;
        self.epoch_clone_micros = stats.clone_micros;
    }

    /// Stamp the latest group-commit counters (see
    /// [`crate::GroupCommitStats`]) into the aggregate. Point-in-time like
    /// [`Self::record_wal`]: the most recent recording wins.
    pub fn record_group_commit(&mut self, stats: &crate::wal::GroupCommitStats) {
        self.gc_recorded = true;
        self.gc_fsyncs = stats.fsyncs;
        self.gc_committed_records = stats.committed_records;
        self.gc_max_group = stats.max_group;
    }

    /// Stamp a durable sharded wrapper's **entire** lifecycle state in
    /// one call: WAL health (including the group-commit
    /// `appended`/`acked` watermarks), epoch ledger, and group-commit
    /// counters. Before this existed callers stamped the three pieces
    /// individually and durable *sharded* wrappers routinely missed one,
    /// so replication lag could not be computed from a single
    /// [`Self::snapshot`]; now `wal_ack_lag` and the epoch reclaim
    /// counters are always coherent — they come from the same recording.
    pub fn record_durable_sharded<S>(&mut self, set: &crate::ConcurrentDurableShardedIndexSet<S>)
    where
        S: crate::KeyStore + Clone,
    {
        self.record_wal(&set.wal_health());
        self.record_epoch(&set.epoch_stats());
        self.record_group_commit(&set.group_commit_stats());
    }

    /// Stamp the latest replication health (see
    /// [`crate::replicate::ReplicationHealth`]) into the aggregate.
    /// Point-in-time like [`Self::record_wal`]: the most recent recording
    /// wins.
    pub fn record_replication(&mut self, h: &crate::replicate::ReplicationHealth) {
        self.repl_recorded = true;
        self.repl_term = h.term;
        self.repl_replicas = h.replicas;
        self.repl_min_acked_lsn = h.min_acked_lsn;
        self.repl_lag = h.max_lag;
        self.repl_quorum_frontier = h.quorum_frontier;
    }

    /// Stamp the primary's endpoint counters that matter for quorum
    /// health monitoring (see [`crate::replicate::ReplicationStats`]).
    /// Point-in-time: the most recent recording wins.
    pub fn record_replication_stats(&mut self, s: &crate::replicate::ReplicationStats) {
        self.repl_recorded = true;
        self.repl_quorum_timeouts = s.quorum_timeouts;
        self.repl_link_drops = s.link_drops;
    }

    /// Stamp the per-link acked-LSN watermarks (see
    /// [`crate::replicate::Primary::replica_health`]). Point-in-time: the
    /// most recent recording wins; the snapshot carries them as
    /// `(link id, acked LSN)` pairs so `/metrics` can expose which
    /// replica is behind, not just the worst lag.
    pub fn record_replica_links(&mut self, links: &[crate::replicate::ReplicaHealth]) {
        self.repl_recorded = true;
        self.repl_link_acked = links.iter().map(|l| (l.id, l.acked_lsn)).collect();
    }

    /// Fold another aggregator into this one — equivalent to having
    /// [`Self::add`]ed all of `other`'s queries here. Lets parallel batch
    /// workers aggregate locally and combine at the end.
    pub fn merge(&mut self, other: &StatsAggregator) {
        self.count += other.count;
        self.topk_queries += other.topk_queries;
        self.pruned_sum += other.pruned_sum;
        self.verified_sum += other.verified_sum;
        self.matched_sum += other.matched_sum;
        self.intermediate_sum += other.intermediate_sum;
        self.fill_skipped_sum += other.fill_skipped_sum;
        self.quant_sum.merge(&other.quant_sum);
        self.index_hits += other.index_hits;
        self.scan_fallbacks += other.scan_fallbacks;
        self.degraded += other.degraded;
        self.quarantine_events += other.quarantine_events;
        self.deadline_hits += other.deadline_hits;
        // WAL health is point-in-time, not additive: prefer the other
        // aggregator's recording when it has one (merge order follows
        // recording order in every current caller).
        if other.wal_recorded {
            self.wal_recorded = true;
            self.wal_segments = other.wal_segments;
            self.wal_unsynced_records = other.wal_unsynced_records;
            self.wal_last_lsn = other.wal_last_lsn;
            self.wal_appended_lsn = other.wal_appended_lsn;
            self.wal_acked_lsn = other.wal_acked_lsn;
        }
        if other.epoch_recorded {
            self.epoch_recorded = true;
            self.epoch = other.epoch;
            self.epochs_published = other.epochs_published;
            self.epochs_retired_live = other.epochs_retired_live;
            self.epochs_reclaimed = other.epochs_reclaimed;
            self.epoch_clones = other.epoch_clones;
            self.epoch_clone_bytes = other.epoch_clone_bytes;
            self.epoch_clone_micros = other.epoch_clone_micros;
        }
        if other.gc_recorded {
            self.gc_recorded = true;
            self.gc_fsyncs = other.gc_fsyncs;
            self.gc_committed_records = other.gc_committed_records;
            self.gc_max_group = other.gc_max_group;
        }
        if other.repl_recorded {
            self.repl_recorded = true;
            self.repl_term = other.repl_term;
            self.repl_replicas = other.repl_replicas;
            self.repl_min_acked_lsn = other.repl_min_acked_lsn;
            self.repl_lag = other.repl_lag;
            self.repl_quorum_frontier = other.repl_quorum_frontier;
            self.repl_quorum_timeouts = other.repl_quorum_timeouts;
            self.repl_link_drops = other.repl_link_drops;
            self.repl_link_acked = other.repl_link_acked.clone();
        }
    }

    /// Number of queries aggregated.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean pruning percentage.
    pub fn mean_pruning_percentage(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        100.0 * self.pruned_sum / self.count as f64
    }

    /// Mean number of verified points per query.
    pub fn mean_verified(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.verified_sum as f64 / self.count as f64
    }

    /// Mean intermediate-interval size per query.
    pub fn mean_intermediate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.intermediate_sum as f64 / self.count as f64
    }

    /// Mean answer-set size per query.
    pub fn mean_matched(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.matched_sum as f64 / self.count as f64
    }

    /// Fraction of queries that used the indexed path.
    pub fn index_hit_rate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.index_hits as f64 / self.count as f64
    }

    /// Number of queries that fell back to a sequential scan (any reason).
    pub fn scan_fallback_count(&self) -> usize {
        self.scan_fallbacks
    }

    /// Number of queries served in degraded mode (scan because every index
    /// was quarantined).
    pub fn degraded_count(&self) -> usize {
        self.degraded
    }

    /// Number of quarantine events reported via [`Self::record_quarantine`].
    pub fn quarantine_event_count(&self) -> usize {
        self.quarantine_events
    }

    /// Number of query slots skipped because the batch deadline expired.
    pub fn deadline_hit_count(&self) -> usize {
        self.deadline_hits
    }

    /// Point-in-time snapshot of the aggregate counters, stamped with the
    /// runtime code paths (kernel dispatch, FMA availability, thread-clamp
    /// events) that produced them. Benchmarks serialize this into their
    /// JSON output so a result is traceable to the code path that made it.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            count: self.count,
            topk_queries: self.topk_queries,
            mean_pruning_percentage: self.mean_pruning_percentage(),
            mean_verified: self.mean_verified(),
            mean_intermediate: self.mean_intermediate(),
            mean_matched: self.mean_matched(),
            index_hit_rate: self.index_hit_rate(),
            scan_fallbacks: self.scan_fallbacks,
            degraded: self.degraded,
            quarantine_events: self.quarantine_events,
            deadline_hits: self.deadline_hits,
            wal_segments: self.wal_segments,
            wal_unsynced_records: self.wal_unsynced_records,
            wal_last_lsn: self.wal_last_lsn,
            wal_appended_lsn: self.wal_appended_lsn,
            wal_acked_lsn: self.wal_acked_lsn,
            wal_ack_lag: self.wal_appended_lsn.saturating_sub(self.wal_acked_lsn),
            quant_lanes: self.quant_sum.lanes,
            quant_accepted: self.quant_sum.accepted,
            quant_rejected: self.quant_sum.rejected,
            quant_reverified: self.quant_sum.reverified,
            quant_fallback: self.quant_sum.fallback,
            box_accepted_blocks: self.quant_sum.box_accepted,
            box_rejected_blocks: self.quant_sum.box_rejected,
            fills_skipped: self.fill_skipped_sum,
            quant_kernel: self.quant_sum.tier.kernel_name(),
            epoch: self.epoch,
            epochs_published: self.epochs_published,
            epochs_retired_live: self.epochs_retired_live,
            epochs_reclaimed: self.epochs_reclaimed,
            epoch_clones: self.epoch_clones,
            epoch_clone_bytes: self.epoch_clone_bytes,
            epoch_clone_micros: self.epoch_clone_micros,
            group_commit_fsyncs: self.gc_fsyncs,
            group_commit_records: self.gc_committed_records,
            group_commit_max_group: self.gc_max_group,
            replication_term: self.repl_term,
            replication_replicas: self.repl_replicas,
            replication_min_acked_lsn: self.repl_min_acked_lsn,
            replication_lag: self.repl_lag,
            replication_quorum_frontier: self.repl_quorum_frontier,
            replication_quorum_timeouts: self.repl_quorum_timeouts,
            replication_link_drops: self.repl_link_drops,
            replication_link_acked: self.repl_link_acked.clone(),
            kernel: planar_geom::kernel_name(),
            fma_available: planar_geom::host_has_fma(),
            thread_clamp_events: crate::parallel::thread_clamp_events(),
        }
    }
}

/// A [`StatsAggregator`] snapshot plus execution-environment provenance.
///
/// `kernel` and `fma_available` record which scalar-product implementation
/// the process dispatched to (see `planar_geom::kernels`);
/// `thread_clamp_events` is the process-wide clamp counter at snapshot
/// time. Together they make a benchmark JSON self-describing: the same
/// workload measured under `PLANAR_FORCE_PORTABLE=1` and under AVX2 differs
/// only in these fields and the timings.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Queries aggregated.
    pub count: usize,
    /// Top-k queries aggregated (not included in `count`).
    pub topk_queries: usize,
    /// Mean pruning percentage (paper Figures 9/10 y-axis).
    pub mean_pruning_percentage: f64,
    /// Mean scalar products per query.
    pub mean_verified: f64,
    /// Mean intermediate-interval size per query.
    pub mean_intermediate: f64,
    /// Mean answer-set size per query.
    pub mean_matched: f64,
    /// Fraction of queries served by the indexed path.
    pub index_hit_rate: f64,
    /// Queries that fell back to a sequential scan.
    pub scan_fallbacks: usize,
    /// Queries served in degraded mode.
    pub degraded: usize,
    /// Quarantine events reported.
    pub quarantine_events: usize,
    /// Query slots skipped because the batch deadline expired.
    pub deadline_hits: usize,
    /// WAL segment files at the last [`StatsAggregator::record_wal`]
    /// (0 when never recorded).
    pub wal_segments: usize,
    /// Appended-but-unsynced WAL records at the last recording.
    pub wal_unsynced_records: u64,
    /// Highest LSN appended to the WAL at the last recording.
    pub wal_last_lsn: u64,
    /// Highest LSN appended at the last recording (group-commit view;
    /// equals `wal_last_lsn`).
    pub wal_appended_lsn: u64,
    /// Highest fsync-covered LSN at the last recording;
    /// `wal_appended_lsn − wal_acked_lsn` is the observable group-commit
    /// lag.
    pub wal_acked_lsn: u64,
    /// `wal_appended_lsn − wal_acked_lsn` precomputed (saturating), so
    /// replication lag math needs no field arithmetic at call sites.
    pub wal_ack_lag: u64,
    /// Candidate lanes that entered the quantized filter (sum over all
    /// aggregated queries; 0 when the tier never ran).
    pub quant_lanes: usize,
    /// Lanes the quantized filter proved satisfying without touching `f64`
    /// rows.
    pub quant_accepted: usize,
    /// Lanes the quantized filter proved failing.
    pub quant_rejected: usize,
    /// Lanes inside the uncertainty band, re-verified at full precision.
    pub quant_reverified: usize,
    /// Lanes classified by the exact fallback (unsound blocks / overflow
    /// guards).
    pub quant_fallback: usize,
    /// Blocks with candidates that their bounding box settled as all
    /// satisfying (inequality and top-k queries).
    pub box_accepted_blocks: usize,
    /// Blocks with candidates that their bounding box settled as all
    /// failing.
    pub box_rejected_blocks: usize,
    /// Shard queries that verified the live rows of their box-mixed blocks
    /// instead of filling the intermediate interval (see
    /// [`QueryStats::fill_skipped`]).
    pub fills_skipped: usize,
    /// Dispatched quantized kernel for the most recent non-off tier
    /// observed (`"avx2-i16"` or `"portable-i16"`; `"off"` when the tier
    /// never ran).
    pub quant_kernel: &'static str,
    /// Published epoch at the last [`StatsAggregator::record_epoch`]
    /// (0 when never recorded).
    pub epoch: u64,
    /// Epochs published over the recorded cell's lifetime.
    pub epochs_published: u64,
    /// Retired epochs still in their grace period at the last recording.
    pub epochs_retired_live: usize,
    /// Retired epochs reclaimed after their grace period ended.
    pub epochs_reclaimed: u64,
    /// Copy-on-publish set clones over the recorded cell's lifetime — the
    /// write-path ceiling ROADMAP item 1 names.
    pub epoch_clones: u64,
    /// Bytes deep-copied by those clones (heap footprint of the cloned
    /// sets at clone time).
    pub epoch_clone_bytes: u64,
    /// Wall-clock microseconds spent inside those clones.
    pub epoch_clone_micros: u64,
    /// Commit-group leader fsyncs at the last
    /// [`StatsAggregator::record_group_commit`] (0 when never recorded).
    pub group_commit_fsyncs: u64,
    /// Records made durable through those fsyncs.
    pub group_commit_records: u64,
    /// Largest single commit group observed.
    pub group_commit_max_group: u64,
    /// Replication term at the last
    /// [`StatsAggregator::record_replication`] (0 when never recorded).
    pub replication_term: u64,
    /// Attached replicas at the last recording.
    pub replication_replicas: usize,
    /// Lowest replica acked LSN at the last recording — the durable
    /// replication frontier.
    pub replication_min_acked_lsn: u64,
    /// Largest per-replica lag (primary appended − replica acked) at the
    /// last recording.
    pub replication_lag: u64,
    /// Highest quorum-confirmed LSN at the last recording (0 under
    /// `AckPolicy::Async` or before any quorum forms).
    pub replication_quorum_frontier: u64,
    /// Quorum-gated acknowledgements that expired typed at the last
    /// [`StatsAggregator::record_replication_stats`].
    pub replication_quorum_timeouts: u64,
    /// Links reaped after their transport disconnected permanently.
    pub replication_link_drops: u64,
    /// Per-link `(id, acked LSN)` watermarks at the last
    /// [`StatsAggregator::record_replica_links`] — which replica is
    /// behind, not just the worst lag.
    pub replication_link_acked: Vec<(u32, u64)>,
    /// Dispatched scalar-product kernel (`"avx2"` or `"portable"`).
    pub kernel: &'static str,
    /// Whether the host advertises FMA (never used by the kernels — see the
    /// determinism contract — but recorded so a future FMA variant can be
    /// distinguished in archived results).
    pub fma_available: bool,
    /// Process-wide thread-clamp counter at snapshot time.
    pub thread_clamp_events: u64,
}

/// A minimal serde-free JSON object builder: flat or nested objects with
/// string, number, and boolean fields, correct escaping, and `null` for
/// non-finite floats (JSON has no NaN/∞). The `/metrics` endpoint and the
/// benchmark JSON writers compose their documents from this instead of a
/// serialization framework the workspace cannot depend on.
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&json_escape(key));
        self.buf.push_str("\":");
    }

    /// Add an unsigned integer field.
    pub fn field_u64(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a `usize` field.
    pub fn field_usize(self, key: &str, v: usize) -> Self {
        self.field_u64(key, v as u64)
    }

    /// Add a float field (`null` when not finite — JSON has no NaN/∞).
    pub fn field_f64(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        self.buf.push_str(&json_f64(v));
        self
    }

    /// Add a boolean field.
    pub fn field_bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a string field (escaped).
    pub fn field_str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&json_escape(v));
        self.buf.push('"');
        self
    }

    /// Add a pre-rendered JSON value verbatim (a nested object or array
    /// the caller already built).
    pub fn field_raw(mut self, key: &str, raw: &str) -> Self {
        self.key(key);
        self.buf.push_str(raw);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escape a string for a JSON string literal (quotes, backslashes, and
/// control characters; everything else passes through as UTF-8).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a float as a JSON number: Rust's shortest round-trip `Display`
/// form for finite values, `null` otherwise.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Render items as a JSON array. Each item's `Display` form must already
/// be a JSON value: an integer, or text from [`json_f64`],
/// [`JsonObject::finish`] or a nested `json_array`.
pub fn json_array<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item.to_string());
    }
    out.push(']');
    out
}

impl StatsSnapshot {
    /// Serialize the snapshot as a flat JSON object — the `/metrics`
    /// payload of `planar-serve` and the provenance block of the
    /// benchmark JSON files. Hand-rolled (no serde in this workspace):
    /// every field is a number, boolean, or string; field names match the
    /// struct fields exactly.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .field_usize("count", self.count)
            .field_usize("topk_queries", self.topk_queries)
            .field_f64("mean_pruning_percentage", self.mean_pruning_percentage)
            .field_f64("mean_verified", self.mean_verified)
            .field_f64("mean_intermediate", self.mean_intermediate)
            .field_f64("mean_matched", self.mean_matched)
            .field_f64("index_hit_rate", self.index_hit_rate)
            .field_usize("scan_fallbacks", self.scan_fallbacks)
            .field_usize("degraded", self.degraded)
            .field_usize("quarantine_events", self.quarantine_events)
            .field_usize("deadline_hits", self.deadline_hits)
            .field_usize("wal_segments", self.wal_segments)
            .field_u64("wal_unsynced_records", self.wal_unsynced_records)
            .field_u64("wal_last_lsn", self.wal_last_lsn)
            .field_u64("wal_appended_lsn", self.wal_appended_lsn)
            .field_u64("wal_acked_lsn", self.wal_acked_lsn)
            .field_u64("wal_ack_lag", self.wal_ack_lag)
            .field_usize("quant_lanes", self.quant_lanes)
            .field_usize("quant_accepted", self.quant_accepted)
            .field_usize("quant_rejected", self.quant_rejected)
            .field_usize("quant_reverified", self.quant_reverified)
            .field_usize("quant_fallback", self.quant_fallback)
            .field_usize("box_accepted_blocks", self.box_accepted_blocks)
            .field_usize("box_rejected_blocks", self.box_rejected_blocks)
            .field_usize("fills_skipped", self.fills_skipped)
            .field_str("quant_kernel", self.quant_kernel)
            .field_u64("epoch", self.epoch)
            .field_u64("epochs_published", self.epochs_published)
            .field_usize("epochs_retired_live", self.epochs_retired_live)
            .field_u64("epochs_reclaimed", self.epochs_reclaimed)
            .field_u64("epoch_clones", self.epoch_clones)
            .field_u64("epoch_clone_bytes", self.epoch_clone_bytes)
            .field_u64("epoch_clone_micros", self.epoch_clone_micros)
            .field_u64("group_commit_fsyncs", self.group_commit_fsyncs)
            .field_u64("group_commit_records", self.group_commit_records)
            .field_u64("group_commit_max_group", self.group_commit_max_group)
            .field_u64("replication_term", self.replication_term)
            .field_usize("replication_replicas", self.replication_replicas)
            .field_u64("replication_min_acked_lsn", self.replication_min_acked_lsn)
            .field_u64("replication_lag", self.replication_lag)
            .field_u64(
                "replication_quorum_frontier",
                self.replication_quorum_frontier,
            )
            .field_u64(
                "replication_quorum_timeouts",
                self.replication_quorum_timeouts,
            )
            .field_u64("replication_link_drops", self.replication_link_drops)
            .field_raw(
                "replication_link_acked",
                &json_array(self.replication_link_acked.iter().map(|&(id, acked)| {
                    JsonObject::new()
                        .field_u64("id", id as u64)
                        .field_u64("acked_lsn", acked)
                        .finish()
                })),
            )
            .field_str("kernel", self.kernel)
            .field_bool("fma_available", self.fma_available)
            .field_u64("thread_clamp_events", self.thread_clamp_events)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indexed(n: usize, s: usize, i: usize, l: usize, matched: usize) -> QueryStats {
        QueryStats {
            n,
            smaller: s,
            intermediate: i,
            larger: l,
            verified: i,
            intersect_pruned: 0,
            matched,
            quant: crate::quant::QuantFilterStats::default(),
            fill_skipped: 0,
            path: ExecutionPath::Index { index: 0 },
        }
    }

    #[test]
    fn pruning_fraction() {
        let s = indexed(100, 30, 20, 50, 35);
        assert_eq!(s.pruned_fraction(), 0.8);
        assert_eq!(s.pruning_percentage(), 80.0);
        assert!(s.used_index());
    }

    #[test]
    fn scan_stats_have_zero_pruning() {
        let s = QueryStats::scan(50, 10, ScanReason::Requested);
        assert_eq!(s.pruned_fraction(), 0.0);
        assert!(!s.used_index());
        assert_eq!(s.verified, 50);
    }

    #[test]
    fn empty_dataset_counts_as_fully_pruned() {
        let s = indexed(0, 0, 0, 0, 0);
        assert_eq!(s.pruned_fraction(), 1.0);
    }

    #[test]
    fn aggregator_means() {
        let mut agg = StatsAggregator::new();
        agg.add(&indexed(100, 50, 0, 50, 50));
        agg.add(&QueryStats::scan(100, 10, ScanReason::ZeroCoefficient));
        assert_eq!(agg.count(), 2);
        assert_eq!(agg.mean_pruning_percentage(), 50.0);
        assert_eq!(agg.mean_verified(), 50.0);
        assert_eq!(agg.mean_matched(), 30.0);
        assert_eq!(agg.index_hit_rate(), 0.5);
    }

    #[test]
    fn merge_equals_sequential_adds() {
        let stats = [
            indexed(100, 50, 0, 50, 50),
            QueryStats::scan(100, 10, ScanReason::ZeroCoefficient),
            indexed(200, 20, 100, 80, 60),
        ];
        let mut sequential = StatsAggregator::new();
        for s in &stats {
            sequential.add(s);
        }
        sequential.add_top_k_sharded(&[]);
        let mut left = StatsAggregator::new();
        left.add(&stats[0]);
        let mut right = StatsAggregator::new();
        right.add(&stats[1]);
        right.add(&stats[2]);
        right.add_top_k_sharded(&[]);
        left.merge(&right);
        assert_eq!(left.count(), sequential.count());
        assert_eq!(
            left.snapshot().topk_queries,
            sequential.snapshot().topk_queries
        );
        assert_eq!(
            left.mean_pruning_percentage(),
            sequential.mean_pruning_percentage()
        );
        assert_eq!(left.mean_verified(), sequential.mean_verified());
        assert_eq!(left.mean_matched(), sequential.mean_matched());
        assert_eq!(left.mean_intermediate(), sequential.mean_intermediate());
        assert_eq!(left.index_hit_rate(), sequential.index_hit_rate());
    }

    #[test]
    fn fallback_and_degraded_are_counted() {
        let mut agg = StatsAggregator::new();
        agg.add(&indexed(10, 5, 0, 5, 5));
        agg.add(&QueryStats::scan(10, 1, ScanReason::OctantMismatch));
        agg.add(&QueryStats::scan(10, 1, ScanReason::IndexUnavailable));
        agg.record_quarantine();
        assert_eq!(agg.scan_fallback_count(), 2);
        assert_eq!(agg.degraded_count(), 1);
        assert_eq!(agg.quarantine_event_count(), 1);
        let mut other = StatsAggregator::new();
        other.add(&QueryStats::scan(10, 0, ScanReason::IndexUnavailable));
        other.record_quarantine();
        agg.merge(&other);
        assert_eq!(agg.scan_fallback_count(), 3);
        assert_eq!(agg.degraded_count(), 2);
        assert_eq!(agg.quarantine_event_count(), 2);
    }

    #[test]
    fn served_by_derives_from_path() {
        assert_eq!(
            ServedBy::from_path(&ExecutionPath::Index { index: 3 }),
            ServedBy::Index(3)
        );
        assert_eq!(
            ServedBy::from_path(&ExecutionPath::ScanFallback(ScanReason::Requested)),
            ServedBy::ScanFallback
        );
        let degraded =
            ServedBy::from_path(&ExecutionPath::ScanFallback(ScanReason::IndexUnavailable));
        assert_eq!(degraded, ServedBy::Degraded);
        assert!(degraded.is_degraded());
        assert!(!ServedBy::ScanFallback.is_degraded());
    }

    #[test]
    fn snapshot_records_kernel_provenance() {
        let mut agg = StatsAggregator::new();
        agg.add(&indexed(100, 40, 20, 40, 30));
        let snap = agg.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.mean_verified, 20.0);
        // 40 + 40 wholesale of 100.
        assert_eq!(snap.mean_pruning_percentage, 80.0);
        assert_eq!(snap.kernel, planar_geom::kernel_name());
        assert!(snap.kernel == "avx2" || snap.kernel == "portable");
        assert_eq!(snap.fma_available, planar_geom::host_has_fma());
    }

    #[test]
    fn aggregator_empty_is_zero() {
        let agg = StatsAggregator::new();
        assert_eq!(agg.mean_pruning_percentage(), 0.0);
        assert_eq!(agg.mean_verified(), 0.0);
        assert_eq!(agg.index_hit_rate(), 0.0);
    }

    #[test]
    fn deadline_placeholders_are_counted_separately() {
        let mut agg = StatsAggregator::new();
        agg.add(&indexed(10, 5, 0, 5, 5));
        agg.add(&QueryStats::scan(10, 0, ScanReason::DeadlineExceeded));
        assert_eq!(agg.deadline_hit_count(), 1);
        // A skipped slot is neither an index hit nor a scan fallback.
        assert_eq!(agg.scan_fallback_count(), 0);
        assert_eq!(agg.index_hit_rate(), 0.5);
        let mut other = StatsAggregator::new();
        other.add(&QueryStats::scan(10, 0, ScanReason::DeadlineExceeded));
        agg.merge(&other);
        assert_eq!(agg.deadline_hit_count(), 2);
        assert_eq!(agg.snapshot().deadline_hits, 2);
        let partial =
            ServedBy::from_path(&ExecutionPath::ScanFallback(ScanReason::DeadlineExceeded));
        assert!(partial.is_partial());
        assert!(!ServedBy::ScanFallback.is_partial());
    }

    #[test]
    fn json_object_builder_escapes_and_nests() {
        let inner = JsonObject::new().field_u64("x", 7).finish();
        let doc = JsonObject::new()
            .field_str("name", "a \"quoted\"\\\n\tpath\u{1}")
            .field_f64("pi", 3.5)
            .field_f64("nan", f64::NAN)
            .field_f64("inf", f64::INFINITY)
            .field_bool("on", true)
            .field_raw("inner", &inner)
            .finish();
        assert_eq!(
            doc,
            "{\"name\":\"a \\\"quoted\\\"\\\\\\n\\tpath\\u0001\",\
             \"pi\":3.5,\"nan\":null,\"inf\":null,\"on\":true,\
             \"inner\":{\"x\":7}}"
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn json_array_joins_rendered_values() {
        assert_eq!(json_array([1u32, 2, 3]), "[1,2,3]");
        assert_eq!(json_array(Vec::<u32>::new()), "[]");
        let rows = [
            json_array([json_f64(0.5), json_f64(f64::NAN)]),
            JsonObject::new().field_u64("x", 7).finish(),
        ];
        assert_eq!(json_array(rows), "[[0.5,null],{\"x\":7}]");
    }

    #[test]
    fn snapshot_json_is_complete_and_balanced() {
        let mut agg = StatsAggregator::new();
        agg.add(&indexed(100, 40, 20, 40, 30));
        agg.add(&QueryStats::scan(100, 10, ScanReason::DeadlineExceeded));
        agg.add_top_k_sharded(&[crate::index::TopKStats {
            n: 100,
            intermediate: 40,
            walked: 3,
            verified: 43,
            intersect_pruned: 0,
            quant: crate::quant::QuantFilterStats {
                lanes: 40,
                accepted: 40,
                tier: crate::quant::QuantTier::I16,
                ..Default::default()
            },
        }]);
        agg.record_wal(&crate::wal::WalHealth {
            segments: 2,
            unsynced_records: 1,
            last_lsn: 9,
            appended_lsn: 9,
            acked_lsn: 7,
        });
        let snap = agg.snapshot();
        let json = snap.to_json();
        // Structurally an object, no trailing comma, balanced quotes.
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains(",}"));
        assert_eq!(json.matches('"').count() % 2, 0);
        // Every counter the aggregator computed is present verbatim.
        assert!(json.contains("\"count\":2"));
        // The top-k query is counted apart; its lanes join the quant sums.
        assert!(json.contains("\"topk_queries\":1"));
        assert!(json.contains("\"quant_lanes\":40"));
        assert!(json.contains("\"deadline_hits\":1"));
        assert!(json.contains("\"wal_segments\":2"));
        assert!(json.contains("\"wal_ack_lag\":2"));
        assert!(json.contains(&format!("\"index_hit_rate\":{}", snap.index_hit_rate)));
        assert!(json.contains(&format!("\"kernel\":\"{}\"", snap.kernel)));
        assert!(json.contains(&format!(
            "\"fma_available\":{}",
            if snap.fma_available { "true" } else { "false" }
        )));
        // No links recorded: the per-link array renders empty.
        assert!(json.contains("\"replication_link_acked\":[]"));
        // Field count matches the struct: one "key": per field.
        let fields = json.matches("\":").count();
        assert_eq!(fields, 47, "snapshot JSON should carry all 47 fields");
    }

    #[test]
    fn replication_link_and_quorum_fields_render_and_merge() {
        let mut agg = StatsAggregator::new();
        agg.record_replication(&crate::replicate::ReplicationHealth {
            term: 3,
            appended_lsn: 20,
            replicas: 2,
            min_acked_lsn: 12,
            max_lag: 8,
            quorum_frontier: 15,
        });
        agg.record_replica_links(&[
            crate::replicate::ReplicaHealth {
                id: 0,
                acked_lsn: 15,
                applied_lsn: 15,
                last_progress_ms: 100,
            },
            crate::replicate::ReplicaHealth {
                id: 1,
                acked_lsn: 12,
                applied_lsn: 11,
                last_progress_ms: 80,
            },
        ]);
        let stats = crate::replicate::ReplicationStats {
            quorum_timeouts: 2,
            link_drops: 1,
            ..Default::default()
        };
        agg.record_replication_stats(&stats);

        let snap = agg.snapshot();
        assert_eq!(snap.replication_quorum_frontier, 15);
        assert_eq!(snap.replication_quorum_timeouts, 2);
        assert_eq!(snap.replication_link_drops, 1);
        assert_eq!(snap.replication_link_acked, vec![(0, 15), (1, 12)]);
        let json = snap.to_json();
        assert!(json.contains(
            "\"replication_link_acked\":[{\"id\":0,\"acked_lsn\":15},{\"id\":1,\"acked_lsn\":12}]"
        ));
        assert!(json.contains("\"replication_quorum_frontier\":15"));

        // Merge is latest-recording-wins, link vec included.
        let mut other = StatsAggregator::new();
        other.merge(&agg);
        assert_eq!(
            other.snapshot().replication_link_acked,
            vec![(0, 15), (1, 12)]
        );
    }

    #[test]
    fn wal_health_is_latest_wins() {
        let mut agg = StatsAggregator::new();
        let snap = agg.snapshot();
        assert_eq!(snap.wal_segments, 0);
        assert_eq!(snap.wal_last_lsn, 0);
        agg.record_wal(&crate::wal::WalHealth {
            segments: 2,
            unsynced_records: 3,
            last_lsn: 40,
            appended_lsn: 40,
            acked_lsn: 37,
        });
        agg.record_wal(&crate::wal::WalHealth {
            segments: 1,
            unsynced_records: 0,
            last_lsn: 57,
            appended_lsn: 57,
            acked_lsn: 57,
        });
        let snap = agg.snapshot();
        assert_eq!(snap.wal_segments, 1);
        assert_eq!(snap.wal_unsynced_records, 0);
        assert_eq!(snap.wal_last_lsn, 57);
        assert_eq!(snap.wal_appended_lsn, 57);
        assert_eq!(snap.wal_acked_lsn, 57);
        // Merging an aggregator that never recorded keeps ours.
        agg.merge(&StatsAggregator::new());
        assert_eq!(agg.snapshot().wal_last_lsn, 57);
        // Merging one that did record adopts its (later) view.
        let mut other = StatsAggregator::new();
        other.record_wal(&crate::wal::WalHealth {
            segments: 4,
            unsynced_records: 7,
            last_lsn: 99,
            appended_lsn: 99,
            acked_lsn: 92,
        });
        agg.merge(&other);
        assert_eq!(agg.snapshot().wal_last_lsn, 99);
        assert_eq!(agg.snapshot().wal_acked_lsn, 92);
    }

    #[test]
    fn epoch_and_group_commit_are_latest_wins() {
        let mut agg = StatsAggregator::new();
        let snap = agg.snapshot();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.group_commit_fsyncs, 0);
        agg.record_epoch(&crate::concurrent::EpochStats {
            epoch: 3,
            published: 2,
            retired_live: 1,
            reclaimed: 1,
            clones: 2,
            clone_bytes: 4096,
            clone_micros: 17,
        });
        agg.record_group_commit(&crate::wal::GroupCommitStats {
            fsyncs: 4,
            committed_records: 32,
            max_group: 12,
        });
        let snap = agg.snapshot();
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.epochs_published, 2);
        assert_eq!(snap.epochs_retired_live, 1);
        assert_eq!(snap.epochs_reclaimed, 1);
        assert_eq!(snap.epoch_clones, 2);
        assert_eq!(snap.epoch_clone_bytes, 4096);
        assert_eq!(snap.epoch_clone_micros, 17);
        assert_eq!(snap.group_commit_fsyncs, 4);
        assert_eq!(snap.group_commit_records, 32);
        assert_eq!(snap.group_commit_max_group, 12);
        // Merging a never-recorded aggregator keeps ours…
        agg.merge(&StatsAggregator::new());
        assert_eq!(agg.snapshot().epoch, 3);
        // …and a recorded one wins.
        let mut other = StatsAggregator::new();
        other.record_epoch(&crate::concurrent::EpochStats {
            epoch: 9,
            published: 8,
            retired_live: 0,
            reclaimed: 8,
            clones: 8,
            clone_bytes: 1 << 20,
            clone_micros: 400,
        });
        agg.merge(&other);
        let snap = agg.snapshot();
        assert_eq!(snap.epoch, 9);
        assert_eq!(snap.group_commit_fsyncs, 4, "gc recording survives");
    }
}
