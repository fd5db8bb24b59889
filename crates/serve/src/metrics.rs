//! Server-side counters and latency histograms for `/metrics`.
//!
//! Everything here is lock-free (`AtomicU64`) so the hot request path
//! never contends on a metrics mutex. The `/metrics` document merges
//! these server counters with the engine's
//! [`planar_core::StatsSnapshot`] (rendered by its hand-rolled
//! `to_json`), so one scrape shows both the serving layer (admission,
//! coalescing, queue depth, latency percentiles) and the engine
//! (pruning, WAL, epochs, replication).

use planar_core::{parallel, JsonObject};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Log₂-bucketed latency histogram in microseconds: bucket `i` counts
/// samples in `[2^i, 2^(i+1))` µs (bucket 0 also catches sub-µs). 30
/// buckets reach ~18 minutes — far past any sane request.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 30],
    sum_us: AtomicU64,
    count: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate percentile (`p` in `[0, 1]`) as the upper bound of the
    /// bucket holding the `p`-th sample, in µs. 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64 * p).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Render `{count, mean_us, p50_us, p90_us, p99_us, max_us}`.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .field_u64("count", self.count())
            .field_f64("mean_us", self.mean_us())
            .field_u64("p50_us", self.percentile_us(0.50))
            .field_u64("p90_us", self.percentile_us(0.90))
            .field_u64("p99_us", self.percentile_us(0.99))
            .field_u64("max_us", self.max_us.load(Ordering::Relaxed))
            .finish()
    }
}

/// Process-wide serving counters.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections turned away (connection cap).
    pub connections_rejected: AtomicU64,
    /// Requests admitted into the batcher queue.
    pub accepted: AtomicU64,
    /// Requests rejected by per-tenant quota (typed `Retry`).
    pub rejected_quota: AtomicU64,
    /// Requests rejected by queue-depth backpressure (typed `Overload`).
    pub rejected_overload: AtomicU64,
    /// Malformed frames / HTTP requests dropped.
    pub malformed: AtomicU64,
    /// Batches dispatched to the engine.
    pub batches: AtomicU64,
    /// Requests carried by those batches (`coalesced / batches` is the
    /// mean coalesced batch size).
    pub coalesced: AtomicU64,
    /// Largest coalesced batch observed.
    pub max_batch: AtomicU64,
    /// Current batcher queue depth (gauge).
    pub queue_depth: AtomicU64,
    /// Responses flagged partial (deadline placeholders).
    pub partials: AtomicU64,
    /// Replication (`PLNRSHP1`) connections sniffed off the listener.
    pub ship_connections: AtomicU64,
    /// Ship messages relayed inbound (socket → endpoint).
    pub ship_messages_in: AtomicU64,
    /// Ship messages relayed outbound (endpoint → socket).
    pub ship_messages_out: AtomicU64,
    /// Replication connections torn down (peer close, desync, shutdown).
    pub ship_disconnects: AtomicU64,
    /// HTTP keep-alive connections recycled at the per-connection request
    /// cap (`Connection: close` on the final response).
    pub http_recycled: AtomicU64,
    /// HTTP keep-alive connections closed for sitting idle past the
    /// configured timeout.
    pub http_idle_closed: AtomicU64,
    /// Enqueue→response latency of inequality queries.
    pub query_latency: LatencyHistogram,
    /// Enqueue→response latency of top-k queries.
    pub topk_latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Render the server-side block of the metrics document. Besides the
    /// serving counters it carries `engine_cpus` (the OS threads a fan-out
    /// may run on) and `engine_threads_spawned` (process-wide; flat when
    /// every fan-out ran inline on the calling thread).
    pub fn to_json(&self) -> String {
        let load = Ordering::Relaxed;
        JsonObject::new()
            .field_u64("connections", self.connections.load(load))
            .field_u64("connections_rejected", self.connections_rejected.load(load))
            .field_u64("accepted", self.accepted.load(load))
            .field_u64("rejected_quota", self.rejected_quota.load(load))
            .field_u64("rejected_overload", self.rejected_overload.load(load))
            .field_u64("malformed", self.malformed.load(load))
            .field_u64("batches", self.batches.load(load))
            .field_u64("coalesced_requests", self.coalesced.load(load))
            .field_f64("mean_batch", {
                let b = self.batches.load(load);
                if b == 0 {
                    0.0
                } else {
                    self.coalesced.load(load) as f64 / b as f64
                }
            })
            .field_u64("max_batch", self.max_batch.load(load))
            .field_u64("queue_depth", self.queue_depth.load(load))
            .field_u64("partials", self.partials.load(load))
            .field_u64("ship_connections", self.ship_connections.load(load))
            .field_u64("ship_messages_in", self.ship_messages_in.load(load))
            .field_u64("ship_messages_out", self.ship_messages_out.load(load))
            .field_u64("ship_disconnects", self.ship_disconnects.load(load))
            .field_u64("http_recycled", self.http_recycled.load(load))
            .field_u64("http_idle_closed", self.http_idle_closed.load(load))
            .field_u64("engine_cpus", parallel::cpus() as u64)
            .field_u64("engine_threads_spawned", parallel::threads_spawned())
            .field_raw("query_latency", &self.query_latency.to_json())
            .field_raw("topk_latency", &self.topk_latency.to_json())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for us in [1u64, 10, 100, 1000, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        // p50 lands in the bucket holding 100µs: [64, 128) → upper 128.
        assert_eq!(h.percentile_us(0.5), 128);
        // p99 → the last sample's bucket [8192, 16384) → upper 16384.
        assert_eq!(h.percentile_us(0.99), 16384);
        assert!(h.mean_us() > 0.0);
        let json = h.to_json();
        assert!(json.contains("\"count\":5"));
        assert!(json.contains("\"max_us\":10000"));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn server_metrics_render() {
        let m = ServerMetrics::new();
        m.accepted.store(10, Ordering::Relaxed);
        m.batches.store(2, Ordering::Relaxed);
        m.coalesced.store(10, Ordering::Relaxed);
        let json = m.to_json();
        assert!(json.contains("\"accepted\":10"));
        assert!(json.contains("\"mean_batch\":5"));
        assert!(json.contains("\"query_latency\":{"));
        assert!(json.contains(&format!("\"engine_cpus\":{}", parallel::cpus())));
        assert!(json.contains("\"engine_threads_spawned\":"));
    }
}
