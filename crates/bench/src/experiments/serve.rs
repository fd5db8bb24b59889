//! Serving experiment: the network front-end under concurrent load.
//!
//! Three questions the serving layer raises, answered with numbers over
//! real loopback sockets (whole stack measured: framing, admission,
//! micro-batching, engine, response encoding):
//!
//! 1. **Coalesced vs per-request dispatch** — many closed-loop clients
//!    issuing short queries against the work-conserving micro-batcher
//!    (`max_batch = 64`, one dispatcher) and against a thread-per-request
//!    baseline (`max_batch = 1`, one dispatcher per client). Short
//!    queries and high client counts are exactly the regime where
//!    per-request dispatch drowns in scheduler churn — dozens of ready
//!    executor threads, a wakeup per request — and coalescing turns that
//!    into one wakeup per batch. Every served answer is asserted
//!    bit-identical to a direct `query_batch_isolated` call *before*
//!    anything is timed; the headline is requests/sec and the realized
//!    mean batch size.
//! 2. **Latency vs offered load** — client-observed p50/p90/p99 as the
//!    number of closed-loop clients grows. Requests that queue while a
//!    batch runs form the next batch, so batches should deepen (reported)
//!    instead of the queue growing unboundedly.
//! 3. **Overload degradation** — a quota-limited server under rising
//!    offered concurrency. Rejections must be *typed* (`Retry` /
//!    `Overload`), never transport errors or hangs, and every answer that
//!    is served must remain bit-identical to the direct call.
//!
//! Results are printed as tables and written to `BENCH_serve.json`.

use crate::report::{self, Table};
use crate::{time_ms, Config};
use planar_core::stats::json_array;
use planar_core::{
    ConcurrencyConfig, ConcurrentShardedIndexSet, ExecutionConfig, IndexConfig, InequalityQuery,
    JsonObject, PartitionScheme, ShardConfig, ShardedIndexSet, VecStore,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_datagen::SYNTHETIC_N;
use planar_serve::{AdmissionConfig, Client, Response, ServeConfig, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Dataset dimensionality.
const DIM: usize = 8;
/// RQ of the Eq. 18 query template.
const RQ: usize = 4;
/// Index budget.
const BUDGET: usize = 16;
/// Shards in the served engine.
const SHARDS: usize = 4;
/// Closed-loop clients for the dispatch comparison.
const DISPATCH_CLIENTS: usize = 32;
/// Requests per client in the dispatch comparison.
const DISPATCH_REQUESTS: usize = 40;
/// Repetitions per dispatch policy (best rep reported — see arm 1).
const DISPATCH_REPS: usize = 3;
/// Client counts for the latency-vs-load sweep.
const LOAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Requests per client in the latency sweep.
const LOAD_REQUESTS: usize = 30;
/// Client counts for the overload sweep.
const OVERLOAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Requests per client in the overload sweep.
const OVERLOAD_REQUESTS: usize = 50;
/// Tenant quota (requests/sec) for the overload arm — far below what
/// the sweep offers at high concurrency, so rejects must appear.
/// Queries on the 1M-row engine cost ~20ms, so even one closed-loop
/// client offers ~50/s; 20/s binds from two clients up.
const OVERLOAD_RATE: f64 = 20.0;
/// Tenant burst for the overload arm.
const OVERLOAD_BURST: f64 = 5.0;

/// One client's view of a sweep outcome.
#[derive(Default, Clone)]
struct Outcome {
    served: usize,
    retries: usize,
    overloads: usize,
}

/// The `serve` experiment (see module docs).
pub fn serve(cfg: &Config) {
    // Two engines, two regimes. The latency and overload arms want
    // queries expensive enough (tens of ms at the default scale) that
    // deadlines and quotas bind, so they get cfg.scaled(20M) = 1M points
    // at the default 0.05 scale — sized like the `shard` experiment. The
    // dispatch arm wants the opposite: short (sub-ms) queries from many
    // clients, the regime where per-request dispatch pays a scheduler
    // wakeup per query and coalescing amortizes it — so it gets n/5.
    let n = cfg.scaled(20 * SYNTHETIC_N);
    let n_dispatch = cfg.scaled(4 * SYNTHETIC_N);
    let (engine, queries, expected) = build_served_engine(cfg, n);
    let (dispatch_engine, dispatch_queries, dispatch_expected) =
        build_served_engine(cfg, n_dispatch);

    // ---- Arm 1: coalesced vs per-request dispatch ----------------------
    // The per-request baseline models thread-per-request execution: one
    // executor per client, every request its own engine batch and its own
    // dispatcher wakeup, all executors timeslicing one core. The
    // coalesced policy funnels the same offered load through one
    // dispatcher as shard-major engine batches. Each policy runs
    // DISPATCH_REPS times and reports its best rep: with 64 threads on
    // one core a single scheduler hiccup can swallow 30% of a rep, and
    // best-of de-noises both arms the same way.
    let mut dispatch_rows: Vec<(&str, f64, f64, f64)> = Vec::new();
    for (label, max_batch, dispatchers) in [
        ("coalesced", 64usize, 1usize),
        ("per_request", 1usize, DISPATCH_CLIENTS),
    ] {
        let mut best: Option<(f64, f64)> = None; // (wall_ms, mean_batch)
        for rep in 0..DISPATCH_REPS {
            let server = Server::start(
                Arc::clone(&dispatch_engine),
                ServeConfig {
                    max_batch,
                    dispatchers,
                    ..ServeConfig::default()
                },
            )
            .expect("start server");
            let addr = server.addr();

            // Identity gate before timing: one client runs the whole
            // query set and every answer must equal the direct call's.
            if rep == 0 {
                let mut client = Client::connect(addr).expect("connect");
                for (q, want) in dispatch_queries.iter().zip(dispatch_expected.iter()) {
                    match client.query(q.a(), q.cmp(), q.b()).expect("query") {
                        Response::Matches { ids, .. } => {
                            assert_eq!(&ids, want, "served answer diverged ({label})");
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            }

            let barrier = Arc::new(Barrier::new(DISPATCH_CLIENTS + 1));
            let handles: Vec<_> = (0..DISPATCH_CLIENTS)
                .map(|c| {
                    let barrier = Arc::clone(&barrier);
                    let queries = Arc::clone(&dispatch_queries);
                    std::thread::spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        barrier.wait();
                        for r in 0..DISPATCH_REQUESTS {
                            let q = &queries[(c + r) % queries.len()];
                            match client.query(q.a(), q.cmp(), q.b()).expect("query") {
                                Response::Matches { .. } => {}
                                other => panic!("unexpected response {other:?}"),
                            }
                        }
                    })
                })
                .collect();
            let ((), wall_ms) = time_ms(|| {
                barrier.wait();
                for h in handles {
                    h.join().expect("client thread");
                }
            });
            let metrics = server.metrics();
            let batches = metrics.batches.load(Ordering::Relaxed).max(1);
            let coalesced = metrics.coalesced.load(Ordering::Relaxed);
            let mean_batch = coalesced as f64 / batches as f64;
            server.shutdown();
            if best.is_none_or(|(w, _)| wall_ms < w) {
                best = Some((wall_ms, mean_batch));
            }
        }
        let (wall_ms, mean_batch) = best.expect("at least one rep");
        let total = (DISPATCH_CLIENTS * DISPATCH_REQUESTS) as f64;
        dispatch_rows.push((label, total / (wall_ms / 1e3), mean_batch, wall_ms));
    }

    let mut t = Table::new(
        &format!(
            "Dispatch policy: {DISPATCH_CLIENTS} clients x {DISPATCH_REQUESTS} requests, n={n_dispatch}"
        ),
        &["policy", "req/s", "mean batch", "wall ms"],
    );
    for (label, rps, mean_batch, wall) in &dispatch_rows {
        t.row(vec![
            (*label).into(),
            format!("{rps:.0}"),
            format!("{mean_batch:.2}"),
            format!("{wall:.1}"),
        ]);
    }
    t.print();
    let coalesced_speedup = dispatch_rows[0].1 / dispatch_rows[1].1;
    println!("  coalesced/per-request throughput ratio: {coalesced_speedup:.2}x\n");

    // ---- Arm 2: latency percentiles vs offered load --------------------
    let mut load_rows: Vec<(usize, u64, u64, u64, f64, f64)> = Vec::new();
    for &clients in &LOAD_SWEEP {
        let server =
            Server::start(Arc::clone(&engine), ServeConfig::default()).expect("start server");
        let addr = server.addr();
        let barrier = Arc::new(Barrier::new(clients));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                let queries = Arc::clone(&queries);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(LOAD_REQUESTS);
                    barrier.wait();
                    for r in 0..LOAD_REQUESTS {
                        let q = &queries[(c + r) % queries.len()];
                        let t0 = Instant::now();
                        match client.query(q.a(), q.cmp(), q.b()).expect("query") {
                            Response::Matches { .. } => {}
                            other => panic!("unexpected response {other:?}"),
                        }
                        lat.push(t0.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        let mut latencies: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        latencies.sort_unstable();
        let pct =
            |p: f64| latencies[((latencies.len() as f64 * p) as usize).min(latencies.len() - 1)];
        let metrics = server.metrics();
        let batches = metrics.batches.load(Ordering::Relaxed).max(1);
        let mean_batch = metrics.coalesced.load(Ordering::Relaxed) as f64 / batches as f64;
        let total_s = latencies.iter().sum::<u64>() as f64 / 1e6;
        let rps = latencies.len() as f64 / (total_s / clients as f64);
        load_rows.push((clients, pct(0.50), pct(0.90), pct(0.99), mean_batch, rps));
        server.shutdown();
    }

    let mut t = Table::new(
        &format!("Latency vs offered load ({LOAD_REQUESTS} requests/client)"),
        &[
            "clients",
            "p50 us",
            "p90 us",
            "p99 us",
            "mean batch",
            "req/s",
        ],
    );
    for (clients, p50, p90, p99, mean_batch, rps) in &load_rows {
        t.row(vec![
            clients.to_string(),
            p50.to_string(),
            p90.to_string(),
            p99.to_string(),
            format!("{mean_batch:.2}"),
            format!("{rps:.0}"),
        ]);
    }
    t.print();
    println!();

    // ---- Arm 3: overload degradation -----------------------------------
    let checked = Arc::new(AtomicUsize::new(0));
    let mut overload_rows: Vec<(usize, usize, usize, usize)> = Vec::new();
    for &clients in &OVERLOAD_SWEEP {
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                admission: AdmissionConfig {
                    tenant_rate: OVERLOAD_RATE,
                    tenant_burst: OVERLOAD_BURST,
                    max_queue: 64,
                    ..AdmissionConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .expect("start server");
        let addr = server.addr();
        let barrier = Arc::new(Barrier::new(clients));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                let queries = Arc::clone(&queries);
                let expected = Arc::clone(&expected);
                let checked = Arc::clone(&checked);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = Outcome::default();
                    barrier.wait();
                    for r in 0..OVERLOAD_REQUESTS {
                        let i = (c + r) % queries.len();
                        let q = &queries[i];
                        // All clients share tenant 1 so the quota is the
                        // binding constraint as concurrency grows.
                        match client
                            .query_as(1, None, q.a(), q.cmp(), q.b())
                            .expect("transport must not fail under overload")
                        {
                            Response::Matches { ids, .. } => {
                                assert_eq!(
                                    &ids, &expected[i],
                                    "served answer diverged under overload"
                                );
                                checked.fetch_add(1, Ordering::Relaxed);
                                out.served += 1;
                            }
                            Response::Retry { .. } => out.retries += 1,
                            Response::Overload { .. } => out.overloads += 1,
                            other => panic!("untyped degradation: {other:?}"),
                        }
                    }
                    out
                })
            })
            .collect();
        let mut total = Outcome::default();
        for h in handles {
            let o = h.join().expect("client thread");
            total.served += o.served;
            total.retries += o.retries;
            total.overloads += o.overloads;
        }
        let offered = clients * OVERLOAD_REQUESTS;
        assert_eq!(
            total.served + total.retries + total.overloads,
            offered,
            "every request must get a typed response"
        );
        overload_rows.push((clients, total.served, total.retries, total.overloads));
        server.shutdown();
    }

    let mut t = Table::new(
        &format!(
            "Overload degradation (tenant quota {OVERLOAD_RATE}/s, burst {OVERLOAD_BURST}, {OVERLOAD_REQUESTS} requests/client)"
        ),
        &["clients", "served", "retries", "overloads"],
    );
    for (clients, served, retries, overloads) in &overload_rows {
        t.row(vec![
            clients.to_string(),
            served.to_string(),
            retries.to_string(),
            overloads.to_string(),
        ]);
    }
    t.print();
    let last = overload_rows.last().expect("sweep not empty");
    assert!(
        last.2 + last.3 > 0,
        "the top of the overload sweep must produce typed rejects"
    );
    println!(
        "  bit-identity checked on {} served answers under overload\n",
        checked.load(Ordering::Relaxed)
    );

    let dispatch = dispatch_rows.iter().map(|(label, rps, mean_batch, wall)| {
        JsonObject::new()
            .field_str("policy", label)
            .field_f64("requests_per_sec", *rps)
            .field_f64("mean_batch", *mean_batch)
            .field_f64("wall_ms", *wall)
            .finish()
    });
    let latency_vs_load = load_rows
        .iter()
        .map(|&(clients, p50, p90, p99, mean_batch, rps)| {
            JsonObject::new()
                .field_usize("clients", clients)
                .field_u64("p50_us", p50)
                .field_u64("p90_us", p90)
                .field_u64("p99_us", p99)
                .field_f64("mean_batch", mean_batch)
                .field_f64("requests_per_sec", rps)
                .finish()
        });
    let overload = overload_rows
        .iter()
        .map(|&(clients, served, retries, overloads)| {
            JsonObject::new()
                .field_usize("clients", clients)
                .field_usize("served", served)
                .field_usize("retries", retries)
                .field_usize("overloads", overloads)
                .finish()
        });
    report::write_json("serve", |doc| {
        doc.field_usize("n", n)
            .field_usize("n_dispatch", n_dispatch)
            .field_usize("dispatch_clients", DISPATCH_CLIENTS)
            .field_usize("dim", DIM)
            .field_usize("budget", BUDGET)
            .field_usize("shards", SHARDS)
            .field_u64("seed", cfg.seed)
            .field_usize("host_cpus", report::host_cpus())
            .field_raw("dispatch", &json_array(dispatch))
            .field_f64("coalesced_speedup", coalesced_speedup)
            .field_raw("latency_vs_load", &json_array(latency_vs_load))
            .field_raw("overload", &json_array(overload))
    });
}

/// A served engine plus its query set and direct-call ground truth.
type ServedEngine = (
    Arc<ConcurrentShardedIndexSet<VecStore>>,
    Arc<Vec<InequalityQuery>>,
    Arc<Vec<Vec<u32>>>,
);

/// Build one served engine: synthetic table, Eq. 18 query set, sharded
/// index behind the concurrent wrapper, and direct-call ground truth.
fn build_served_engine(cfg: &Config, n: usize) -> ServedEngine {
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n, DIM).generate();
    let mut generator =
        Eq18Generator::new(&table, RQ, cfg.seed ^ 0x5EF7E).with_inequality_parameter(0.25);
    let queries: Vec<InequalityQuery> = generator.queries(cfg.queries.max(16));

    let set = ShardedIndexSet::<VecStore>::build(
        table,
        eq18_domain(DIM, RQ),
        IndexConfig::with_budget(BUDGET).seed(cfg.seed),
        ShardConfig {
            shards: SHARDS,
            scheme: PartitionScheme::PilotKeyRange,
        },
    )
    .expect("serve experiment build");
    let engine = Arc::new(ConcurrentShardedIndexSet::new(
        set,
        ConcurrencyConfig::default(),
    ));

    // Ground truth for every query, from a direct in-process batch call.
    let expected: Vec<Vec<u32>> = engine
        .snapshot()
        .query_batch_isolated(&queries, &ExecutionConfig::serial())
        .into_iter()
        .map(|r| r.expect("direct ground truth").matches)
        .collect();
    (engine, Arc::new(queries), Arc::new(expected))
}
