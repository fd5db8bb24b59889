//! The adaptive micro-batcher: the serving-side analogue of
//! `query_batch`.
//!
//! Connection handlers decode requests and enqueue them on the
//! [`MicroBatcher`]; dispatcher threads coalesce the queue into
//! `query_batch_isolated` / `top_k_batch_isolated` calls against one
//! epoch snapshot, so concurrent clients get the same batch-execution
//! amortization (shard-major cache residency, one snapshot pin, one
//! dispatch) that `BENCH_parallel.json` and `BENCH_shard.json` measured
//! for offline batches.
//!
//! ## Batch-close policy
//!
//! A batch closes when any of these holds:
//!
//! * **depth** — the queue reached [`BatchPolicy::max_batch`];
//! * **budget** — the batch has been open for [`BatchPolicy::max_wait`]
//!   total (the hard latency bound a lone request can ever pay);
//! * **gap** — no new arrival landed within `2 × EWMA(inter-arrival)`
//!   of the previous one: the burst that opened the batch has drained,
//!   so waiting longer adds latency without plausibly adding depth.
//!   This is what lets a closed-loop client population smaller than
//!   `max_batch` dispatch promptly — once every in-flight client has
//!   enqueued, the next arrival cannot come until responses go out, and
//!   the gap timeout fires within microseconds instead of burning the
//!   whole budget.
//!
//! EWMA samples are clamped to `max_wait` before folding, so the long
//! silence while a previous batch executes cannot inflate the estimate
//! and make the policy close depth-1 batches right after each dispatch.
//! Before the first two arrivals there is no EWMA; the policy waits the
//! full `max_wait`, which makes cold-start coalescing deterministic for
//! tests.
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

/// EWMA smoothing factor for the inter-arrival estimate.
const EWMA_ALPHA: f64 = 0.2;

/// Minimum gap-timeout while a batch is filling: a burst whose arrivals
/// are serialized through the queue mutex can show near-zero gaps, and
/// closing on those would strand the tail of the burst.
const GAP_PATIENCE_FLOOR: Duration = Duration::from_micros(20);

/// Batch-close policy knobs.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    /// Deepest coalesced batch (close on depth).
    pub max_batch: usize,
    /// Hard cap on how long an open batch may wait for more arrivals.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait: Duration::from_micros(500),
        }
    }
}

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
    ewma_gap: Option<Duration>,
    last_arrival: Option<Instant>,
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
    policy: BatchPolicy,
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
            policy: self.policy.clone(),
            exec: self.exec,
            max_queue: self.max_queue,
        }
    }
}

impl<E: Engine> MicroBatcher<E> {
    pub(crate) fn new(
        engine: Arc<E>,
        policy: BatchPolicy,
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
                    ewma_gap: None,
                    last_arrival: None,
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
            metrics,
            stats,
            policy,
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
            if let Some(last) = st.last_arrival {
                // Clamp the sample: the silence while a batch executes is
                // not a property of the arrival process, and one long gap
                // must not wreck the burst-rate estimate.
                let gap = now
                    .saturating_duration_since(last)
                    .min(self.policy.max_wait);
                st.ewma_gap = Some(match st.ewma_gap {
                    None => gap,
                    Some(prev) => prev.mul_f64(1.0 - EWMA_ALPHA) + gap.mul_f64(EWMA_ALPHA),
                });
            }
            st.last_arrival = Some(now);
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

    /// Dispatcher loop: block for work, adaptively close a batch, execute
    /// it, repeat. Run by one or more dedicated threads; multiple
    /// dispatchers drain the same queue safely (the mutex arbitrates).
    pub(crate) fn run(&self) {
        loop {
            let batch = match self.next_batch() {
                Some(b) => b,
                None => return,
            };
            self.execute(batch);
        }
    }

    /// Block until a batch closes (or shutdown drains). `None` = exit.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut st = self.shared.state.lock().expect("batcher lock poisoned");
        loop {
            if st.queue.is_empty() {
                if st.shutdown {
                    return None;
                }
                st = self.shared.cv.wait(st).expect("batcher lock poisoned");
                continue;
            }
            // A batch is open: wait out the adaptive close policy.
            let opened = Instant::now();
            loop {
                let depth = st.queue.len();
                if depth >= self.policy.max_batch || st.shutdown {
                    break;
                }
                let elapsed = opened.elapsed();
                if elapsed >= self.policy.max_wait {
                    break;
                }
                let budget_left = self.policy.max_wait - elapsed;
                let patience = match st.ewma_gap {
                    // No arrival-rate estimate yet: be patient once.
                    None => budget_left,
                    // Sparse stream: even one more slot is not expected
                    // to fill within the budget — dispatch now.
                    Some(gap) if gap.mul_f64(2.0) >= self.policy.max_wait => break,
                    Some(gap) => gap.mul_f64(2.0).max(GAP_PATIENCE_FLOOR).min(budget_left),
                };
                // The burst that opened the batch has drained once the
                // newest arrival is older than the patience window.
                let since_last = match st.last_arrival {
                    Some(t) => t.elapsed(),
                    None => Duration::ZERO,
                };
                if since_last >= patience {
                    break;
                }
                let (guard, timeout) = self
                    .shared
                    .cv
                    .wait_timeout(st, patience - since_last)
                    .expect("batcher lock poisoned");
                st = guard;
                if timeout.timed_out() && st.queue.len() == depth {
                    break;
                }
            }
            let take = st.queue.len().min(self.policy.max_batch);
            let batch: Vec<Pending> = st.queue.drain(..take).collect();
            self.metrics
                .queue_depth
                .store(st.queue.len() as u64, std::sync::atomic::Ordering::Relaxed);
            if !batch.is_empty() {
                return Some(batch);
            }
        }
    }

    /// Execute one closed batch against a single epoch snapshot and
    /// deliver the responses.
    fn execute(&self, batch: Vec<Pending>) {
        use std::sync::atomic::Ordering::Relaxed;
        let now = Instant::now();

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
