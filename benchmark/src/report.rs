//! Metric names and units, the percentile helper, and the result line.

use planar_core::JsonObject;

/// End-to-end metrics, printed with `--trace 0`: what a client of the
/// served index sees. Same names and units as `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("qps", "req/s"),
    ("read_p50_ms", "ms"),
    ("bytes_per_row", "B"),
];

/// Per-layer metrics, printed with `--trace 1`. Same names and units as
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("serve.rtt_us", "us"),
    ("serve.server_us", "us"),
    ("serve.net_us", "us"),
    ("batcher.wait_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.response_bytes", "B"),
    ("concurrent.snapshot_us", "us"),
    ("concurrent.publishes", "count"),
    ("concurrent.clone_ms_per_publish", "ms"),
    ("concurrent.clone_mb_per_publish", "MB"),
    ("shard.batch_us", "us"),
    ("shard.assemble_us", "us"),
    ("shard.skew", "ratio"),
    ("multi.query_us", "us"),
    ("multi.normalize_us", "us"),
    ("multi.self_us", "us"),
    ("multi.scan_fallback_rate", "ratio"),
    ("selection.regret", "ratio"),
    ("index.locate_us", "us"),
    ("index.pruning_pct", "%"),
    ("index.verified_per_query", "count"),
    ("index.intermediate_per_query", "count"),
    ("index.intersect_pruned_per_query", "count"),
    ("index.verified_per_match", "ratio"),
    ("index.matched_per_query", "count"),
    ("index.walked_per_query", "count"),
    ("quant.lanes_per_query", "count"),
    ("quant.fallback_rate", "ratio"),
    ("wal.fsyncs_per_write", "count"),
    ("wal.mean_group", "count"),
    ("wal.bytes_per_write", "B"),
    ("persist.replayed", "count"),
    ("persist.disk_bytes_per_row", "B"),
    ("loadgen.reads", "count"),
    ("loadgen.writes", "count"),
    ("trace.overhead_pct", "%"),
];

/// Fewest samples that must lie beyond the highest percentile reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`
/// samples: the sample at rank `⌈p/100 · n⌉`. Refuses a percentile with
/// fewer than [`TAIL_SAMPLES`] samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it; at least {TAIL_SAMPLES} are needed",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median (the mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations issued in the measured window.
    pub attempted: u64,
    /// Operations in the window that failed, were refused or were wrong.
    pub failed: u64,
    /// Every metric measured, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Measurements outside the metric lists (printed, never compared):
    /// sample counts, tail latency, and the write path of `mixed_rw`.
    pub notes: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// A metric's value, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of `list` with its unit.
    pub fn json(&self, list: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = JsonObject::new();
        for &(name, unit) in list {
            let value = self
                .get(name)
                .ok_or_else(|| format!("{}: metric {name} was not measured", self.workload))?;
            let entry = JsonObject::new()
                .field_f64("value", value)
                .field_str("unit", unit)
                .finish();
            metrics = metrics.field_raw(name, &entry);
        }
        Ok(JsonObject::new()
            .field_bool("correct", self.correct)
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish())
            .finish())
    }

    /// Human-readable lines: every metric of `list` and every note.
    pub fn describe(&self, list: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in list {
            if let Some(v) = self.get(name) {
                out.push_str(&format!("{}  {name:<34} {v:>14.4} {unit}\n", self.workload));
            }
        }
        for &(name, unit, v) in &self.notes {
            out.push_str(&format!(
                "{}  {name:<34} {v:>14.4} {unit}  (note)\n",
                self.workload
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert_eq!(percentile(&v, 89.5), Ok(90.0));
        // p95 of 100 samples leaves only 5 beyond it.
        assert!(percentile(&v, 95.0).is_err());
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), Ok(190.0));
    }

    #[test]
    fn too_few_samples_are_refused() {
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0; 19], 50.0).is_err());
        assert_eq!(percentile(&[1.0; 20], 50.0), Ok(1.0));
    }

    #[test]
    fn failed_requests_sort_last_as_infinite_latency() {
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        v.extend([f64::INFINITY; 30]);
        v.sort_by(f64::total_cmp);
        assert_eq!(percentile(&v, 95.0), Ok(f64::INFINITY));
        assert_eq!(percentile(&v, 50.0), Ok(215.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
