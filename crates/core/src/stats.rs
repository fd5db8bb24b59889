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
/// over 100 runs). It holds only what it accumulates; lifecycle state (WAL,
/// epochs, group commit) stays with the structs that own it and renders
/// itself next to this aggregate's [`Self::write_json`] fields at scrape
/// time.
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
    deadline_hits: usize,
    quant_sum: crate::quant::QuantFilterStats,
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
    /// [`Self::write_json`] reports the count as `topk_queries`.
    pub fn add_top_k_sharded(&mut self, per_shard: &[crate::index::TopKStats]) {
        self.topk_queries += 1;
        for s in per_shard {
            self.quant_sum.merge(&s.quant);
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

    /// Number of query slots skipped because the batch deadline expired.
    pub fn deadline_hit_count(&self) -> usize {
        self.deadline_hits
    }

    /// Write the aggregate into `doc` — the `engine` block of
    /// `planar-serve`'s `/metrics`, before the engine appends its
    /// lifecycle fields. Besides the per-query means and counters it stamps
    /// the code paths that produced them: `quant_kernel` (the quantized
    /// kernel of the most recent tier that ran, `"off"` when none did),
    /// `kernel` and `fma_available` (the scalar-product dispatch, see
    /// `planar_geom::kernels`) and the process-wide `thread_clamp_events`.
    pub fn write_json(&self, doc: JsonObject) -> JsonObject {
        let q = &self.quant_sum;
        doc.field_usize("count", self.count)
            .field_usize("topk_queries", self.topk_queries)
            .field_f64("mean_pruning_percentage", self.mean_pruning_percentage())
            .field_f64("mean_verified", self.mean_verified())
            .field_f64("mean_intermediate", self.mean_intermediate())
            .field_f64("mean_matched", self.mean_matched())
            .field_f64("index_hit_rate", self.index_hit_rate())
            .field_usize("scan_fallbacks", self.scan_fallbacks)
            .field_usize("degraded", self.degraded)
            .field_usize("deadline_hits", self.deadline_hits)
            .field_usize("quant_lanes", q.lanes)
            .field_usize("quant_accepted", q.accepted)
            .field_usize("quant_rejected", q.rejected)
            .field_usize("quant_reverified", q.reverified)
            .field_usize("quant_fallback", q.fallback)
            .field_usize("box_accepted_blocks", q.box_accepted)
            .field_usize("box_rejected_blocks", q.box_rejected)
            .field_usize("fills_skipped", self.fill_skipped_sum)
            .field_str("quant_kernel", q.tier.kernel_name())
            .field_str("kernel", planar_geom::kernel_name())
            .field_bool("fma_available", planar_geom::host_has_fma())
            .field_u64(
                "thread_clamp_events",
                crate::parallel::thread_clamp_events(),
            )
    }
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
    fn fallback_and_degraded_are_counted() {
        let mut agg = StatsAggregator::new();
        agg.add(&indexed(10, 5, 0, 5, 5));
        agg.add(&QueryStats::scan(10, 1, ScanReason::OctantMismatch));
        agg.add(&QueryStats::scan(10, 1, ScanReason::IndexUnavailable));
        assert_eq!(agg.scan_fallback_count(), 2);
        assert_eq!(agg.degraded_count(), 1);
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
        let json = agg.write_json(JsonObject::new()).finish();
        assert!(json.contains("\"count\":1,"));
        assert!(json.contains("\"mean_verified\":20,"));
        // 40 + 40 wholesale of 100.
        assert!(json.contains("\"mean_pruning_percentage\":80,"));
        let kernel = planar_geom::kernel_name();
        assert!(kernel == "avx2" || kernel == "portable");
        assert!(json.contains(&format!("\"kernel\":\"{kernel}\"")));
        assert!(json.contains(&format!(
            "\"fma_available\":{}",
            planar_geom::host_has_fma()
        )));
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
        assert!(agg
            .write_json(JsonObject::new())
            .finish()
            .contains("\"deadline_hits\":1,"));
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
        let json = agg.write_json(JsonObject::new()).finish();
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
        assert!(json.contains(&format!("\"index_hit_rate\":{}", agg.index_hit_rate())));
        // One "key": per field, and no lifecycle keys: those belong to the
        // structs that own them.
        assert_eq!(json.matches("\":").count(), 22);
        assert!(!json.contains("wal_"));
        assert!(!json.contains("epoch"));
    }
}
