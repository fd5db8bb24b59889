//! The micro-batcher: the serving-side analogue of `query_batch`.
//!
//! Connection handlers decode requests and enqueue them on the
//! [`MicroBatcher`]; dispatcher threads coalesce the queue into
//! `query_batch_isolated` / `top_k_batch_isolated` calls against one
//! epoch snapshot, so concurrent clients get the same batch-execution
//! amortization (shard-major cache residency, one snapshot pin, one
//! dispatch) that `BENCH_parallel.json` and `BENCH_shard.json` measured
//! for offline batches.
//!
//! ## Dispatch is work-conserving
//!
//! A free dispatcher takes everything queued, up to
//! [`crate::ServeConfig::max_batch`], the moment the queue is non-empty.
//! It never holds a batch open for arrivals that have not happened yet:
//! batches form only from requests that arrived while the previous batch
//! ran, so depth grows with load and a lone request pays no wait beyond
//! the dispatcher's wake-up. The time each request spent queued is the
//! `queue_wait` histogram in `/metrics`.
//!
//! ## Deadlines
//!
//! Each request may carry a deadline (µs from receipt). At dispatch the
//! tightest deadline in the batch becomes the batch's
//! [`ExecutionConfig::with_deadline`] budget; queries the engine could
//! not start in time come back as [`planar_core::ServedBy::Partial`]
//! placeholders, which the batcher surfaces as `partial` provenance on
//! the response — the engine's partial-answer contract carried end to
//! end.

use crate::metrics::ServerMetrics;
use crate::wire::{error_code, Provenance, Response};
use crate::Engine;
use planar_core::{
    ExecutionConfig, InequalityQuery, JsonObject, PlanarError, StatsAggregator, TopKQuery,
};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Work item kinds the batcher coalesces.
#[derive(Debug, Clone)]
pub enum Work {
    /// An inequality query.
    Query(InequalityQuery),
    /// A top-k query.
    TopK(TopKQuery),
}

pub(crate) struct Pending {
    work: Work,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: SyncSender<Response>,
}

struct State {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// The shared micro-batcher: many producers (connection handlers), one
/// or more dispatcher threads draining into the engine.
pub struct MicroBatcher<E> {
    engine: Arc<E>,
    shared: Arc<Shared>,
    metrics: Arc<ServerMetrics>,
    stats: Arc<Mutex<StatsAggregator>>,
    max_batch: usize,
    exec: ExecutionConfig,
    max_queue: usize,
}

impl<E> Clone for MicroBatcher<E> {
    fn clone(&self) -> Self {
        Self {
            engine: Arc::clone(&self.engine),
            shared: Arc::clone(&self.shared),
            metrics: Arc::clone(&self.metrics),
            stats: Arc::clone(&self.stats),
            max_batch: self.max_batch,
            exec: self.exec,
            max_queue: self.max_queue,
        }
    }
}

impl<E: Engine> MicroBatcher<E> {
    pub(crate) fn new(
        engine: Arc<E>,
        max_batch: usize,
        exec: ExecutionConfig,
        max_queue: usize,
        metrics: Arc<ServerMetrics>,
        stats: Arc<Mutex<StatsAggregator>>,
    ) -> Self {
        Self {
            engine,
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
            metrics,
            stats,
            max_batch: max_batch.max(1),
            exec,
            max_queue,
        }
    }

    /// Enqueue one request. `Ok(rx)` delivers the response once a
    /// dispatcher has executed the batch containing it; `Err(depth)`
    /// means the queue is at capacity (the caller answers `Overload`).
    pub(crate) fn enqueue(
        &self,
        work: Work,
        deadline: Option<Duration>,
    ) -> Result<Receiver<Response>, usize> {
        let now = Instant::now();
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        {
            let mut st = self.shared.state.lock().expect("batcher lock poisoned");
            if st.queue.len() >= self.max_queue {
                return Err(st.queue.len());
            }
            st.queue.push_back(Pending {
                work,
                deadline: deadline.map(|d| now + d),
                enqueued: now,
                reply: tx,
            });
            self.metrics
                .queue_depth
                .store(st.queue.len() as u64, std::sync::atomic::Ordering::Relaxed);
        }
        self.shared.cv.notify_one();
        Ok(rx)
    }

    /// Current queue depth (for backpressure decisions and tests).
    pub fn depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("batcher lock poisoned")
            .queue
            .len()
    }

    /// Wake every dispatcher and make them exit once the queue drains.
    pub(crate) fn shutdown(&self) {
        self.shared
            .state
            .lock()
            .expect("batcher lock poisoned")
            .shutdown = true;
        self.shared.cv.notify_all();
    }

    /// Dispatcher loop: block for work, take what is queued, execute it,
    /// repeat. Run by one or more dedicated threads; multiple
    /// dispatchers drain the same queue safely (the mutex arbitrates).
    pub(crate) fn run(&self) {
        while let Some(batch) = self.next_batch() {
            self.execute(batch);
        }
    }

    /// Block until the queue is non-empty, then drain up to `max_batch`
    /// requests at once. `None` = shutdown with the queue drained.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut st = self.shared.state.lock().expect("batcher lock poisoned");
        while st.queue.is_empty() {
            if st.shutdown {
                return None;
            }
            st = self.shared.cv.wait(st).expect("batcher lock poisoned");
        }
        let take = st.queue.len().min(self.max_batch);
        let batch: Vec<Pending> = st.queue.drain(..take).collect();
        self.metrics
            .queue_depth
            .store(st.queue.len() as u64, std::sync::atomic::Ordering::Relaxed);
        Some(batch)
    }

    /// Execute one drained batch against a single epoch snapshot and
    /// deliver the responses.
    fn execute(&self, batch: Vec<Pending>) {
        use std::sync::atomic::Ordering::Relaxed;
        let now = Instant::now();
        for p in &batch {
            self.metrics
                .queue_wait
                .record(now.saturating_duration_since(p.enqueued));
        }

        // The tightest per-request deadline becomes the batch budget —
        // already-expired deadlines clamp to zero, which the engine turns
        // into Partial placeholders rather than an error.
        let mut exec = self.exec;
        if let Some(tightest) = batch.iter().filter_map(|p| p.deadline).min() {
            exec = exec.with_deadline(tightest.saturating_duration_since(now));
        }

        let mut queries = Vec::new();
        let mut topks = Vec::new();
        for (slot, p) in batch.iter().enumerate() {
            match &p.work {
                Work::Query(q) => queries.push((slot, q.clone())),
                Work::TopK(q) => topks.push((slot, q.clone())),
            }
        }

        let snapshot = self.engine.snapshot();
        let mut responses: Vec<Option<Response>> = (0..batch.len()).map(|_| None).collect();

        if !queries.is_empty() {
            let qs: Vec<InequalityQuery> = queries.iter().map(|(_, q)| q.clone()).collect();
            let outs = snapshot.query_batch_isolated(&qs, &exec);
            let mut agg = self.stats.lock().expect("stats lock poisoned");
            for ((slot, _), out) in queries.iter().zip(outs) {
                responses[*slot] = Some(match out {
                    Ok(o) => {
                        agg.add_sharded(&o.shard_stats);
                        Response::Matches {
                            ids: o.matches,
                            provenance: Provenance::from_served_by(&o.served_by),
                        }
                    }
                    Err(e) => error_response(&e),
                });
            }
        }
        if !topks.is_empty() {
            let qs: Vec<TopKQuery> = topks.iter().map(|(_, q)| q.clone()).collect();
            let outs = snapshot.top_k_batch_isolated(&qs, &exec);
            let mut agg = self.stats.lock().expect("stats lock poisoned");
            for ((slot, _), out) in topks.iter().zip(outs) {
                responses[*slot] = Some(match out {
                    Ok(o) => {
                        agg.add_top_k_sharded(&o.shard_stats);
                        Response::Neighbors {
                            neighbors: o.neighbors,
                            provenance: Provenance::from_served_by(&o.served_by),
                        }
                    }
                    Err(e) => error_response(&e),
                });
            }
        }

        self.metrics.batches.fetch_add(1, Relaxed);
        self.metrics
            .coalesced
            .fetch_add(batch.len() as u64, Relaxed);
        self.metrics
            .max_batch
            .fetch_max(batch.len() as u64, Relaxed);

        let done = Instant::now();
        for (p, resp) in batch.iter().zip(responses) {
            let resp = resp.expect("every slot answered");
            let latency = done.saturating_duration_since(p.enqueued);
            match p.work {
                Work::Query(_) => self.metrics.query_latency.record(latency),
                Work::TopK(_) => self.metrics.topk_latency.record(latency),
            }
            if matches!(
                &resp,
                Response::Matches { provenance, .. } | Response::Neighbors { provenance, .. }
                    if provenance.partial
            ) {
                self.metrics.partials.fetch_add(1, Relaxed);
            }
            // A vanished client (dropped receiver) is not an error.
            let _ = p.reply.send(resp);
        }
    }

    /// Render the full metrics document: server counters plus the
    /// engine block — the query aggregate, then the engine's lifecycle
    /// fields read from their owners at render time.
    pub(crate) fn metrics_json(&self) -> String {
        let doc = self
            .stats
            .lock()
            .expect("stats lock poisoned")
            .write_json(JsonObject::new());
        JsonObject::new()
            .field_raw("server", &self.metrics.to_json())
            .field_raw("engine", &self.engine.write_lifecycle(doc).finish())
            .finish()
    }
}

/// Map a typed engine error to a wire error response.
pub(crate) fn error_response(e: &PlanarError) -> Response {
    let code = match e {
        PlanarError::InvalidQuery(_)
        | PlanarError::DimensionMismatch { .. }
        | PlanarError::KNotPositive
        | PlanarError::NotFinite => error_code::INVALID_QUERY,
        _ => error_code::INTERNAL,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}
