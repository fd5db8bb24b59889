//! End-to-end serving tests over real loopback sockets: bit-identity
//! with direct engine calls, deadline → partial propagation, typed
//! admission rejections, both wire surfaces, and durable-engine metrics.

use planar_core::{
    Cmp, ConcurrencyConfig, ConcurrentDurableShardedIndexSet, ConcurrentShardedIndexSet,
    EpochStats, ExecutionConfig, FeatureTable, FsyncPolicy, IndexConfig, InequalityQuery,
    ParameterDomain, QuantTier, ShardConfig, ShardedIndexSet, TempDir, TopKQuery, VecStore,
    WalOptions,
};
use planar_serve::json::Json;
use planar_serve::{
    error_code, AdmissionConfig, BatchPolicy, Client, Request, Response, ServeConfig, Server,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A deterministic sharded engine: `n` rows in 2-d, 3 shards.
fn build_sharded(n: usize) -> ShardedIndexSet<VecStore> {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![1.0 + (i % 17) as f64 * 0.5, 1.0 + (i % 23) as f64 * 0.25])
        .collect();
    let table = FeatureTable::from_rows(2, rows).unwrap();
    let domain = ParameterDomain::uniform_continuous(2, 0.25, 4.0).unwrap();
    ShardedIndexSet::build(
        table,
        domain,
        IndexConfig::with_budget(4),
        ShardConfig::round_robin(3),
    )
    .unwrap()
}

fn engine(n: usize) -> Arc<ConcurrentShardedIndexSet<VecStore>> {
    Arc::new(ConcurrentShardedIndexSet::new(
        build_sharded(n),
        ConcurrencyConfig::default(),
    ))
}

fn query(b: f64) -> InequalityQuery {
    InequalityQuery::new(vec![1.0, 1.5], Cmp::Leq, b).unwrap()
}

#[test]
fn binary_loopback_is_bit_identical_to_direct_calls() {
    let eng = engine(500);
    let server = Server::start(Arc::clone(&eng), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let thresholds = [4.0, 7.5, 11.0, 20.0];
    let direct: Vec<Vec<u32>> = {
        let qs: Vec<InequalityQuery> = thresholds.iter().map(|&b| query(b)).collect();
        eng.snapshot()
            .query_batch_isolated(&qs, &ExecutionConfig::default())
            .into_iter()
            .map(|r| r.unwrap().matches)
            .collect()
    };
    for (&b, want) in thresholds.iter().zip(&direct) {
        match client.query(&[1.0, 1.5], Cmp::Leq, b).unwrap() {
            Response::Matches { ids, provenance } => {
                assert_eq!(&ids, want, "served answer must match direct call at b={b}");
                assert!(!provenance.partial);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Top-k: distances must be bit-exact, not just approximately equal.
    let tq = TopKQuery::new(query(9.0), 5).unwrap();
    let direct_nn = eng
        .snapshot()
        .top_k_batch_isolated(std::slice::from_ref(&tq), &ExecutionConfig::default())
        .remove(0)
        .unwrap()
        .neighbors;
    match client.top_k(&[1.0, 1.5], Cmp::Leq, 9.0, 5).unwrap() {
        Response::Neighbors { neighbors, .. } => {
            assert_eq!(neighbors.len(), direct_nn.len());
            for ((id, d), (wid, wd)) in neighbors.iter().zip(&direct_nn) {
                assert_eq!(id, wid);
                assert_eq!(d.to_bits(), wd.to_bits(), "distance must be bit-exact");
            }
        }
        other => panic!("unexpected response {other:?}"),
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_coalesce_and_stay_correct() {
    let eng = engine(400);
    let clients = 8;
    let per_client = 6;
    let cfg = ServeConfig {
        batch: BatchPolicy {
            max_batch: clients,
            max_wait: Duration::from_millis(200),
        },
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&eng), cfg).unwrap();
    let addr = server.addr();

    // Ground truth per threshold, computed directly.
    let direct: Vec<Vec<u32>> = (0..per_client)
        .map(|r| {
            let q = query(4.0 + r as f64);
            eng.snapshot()
                .query_batch_isolated(std::slice::from_ref(&q), &ExecutionConfig::default())
                .remove(0)
                .unwrap()
                .matches
        })
        .collect();

    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let direct = direct.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                for (r, want) in direct.iter().enumerate() {
                    match client.query(&[1.0, 1.5], Cmp::Leq, 4.0 + r as f64).unwrap() {
                        Response::Matches { ids, .. } => assert_eq!(&ids, want),
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let metrics = server.metrics();
    let accepted = metrics.accepted.load(std::sync::atomic::Ordering::Relaxed);
    let batches = metrics.batches.load(std::sync::atomic::Ordering::Relaxed);
    let max_batch = metrics.max_batch.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(accepted, (clients * per_client) as u64);
    assert!(batches > 0);
    assert!(
        max_batch >= 2,
        "concurrent clients should coalesce (max batch {max_batch})"
    );
    server.shutdown();
}

#[test]
fn deadlines_propagate_to_partial_end_to_end() {
    let eng = engine(2000);
    let clients = 4;
    let cfg = ServeConfig {
        batch: BatchPolicy {
            max_batch: clients,
            max_wait: Duration::from_millis(500),
        },
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&eng), cfg).unwrap();
    let addr = server.addr();

    // Fire a coalesced batch whose every member carries a ~zero deadline:
    // the batch budget expires before the engine can start most slots.
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                match client
                    .query_as(
                        0,
                        Some(Duration::from_micros(1)),
                        &[1.0, 1.5],
                        Cmp::Leq,
                        20.0,
                    )
                    .unwrap()
                {
                    Response::Matches { ids, provenance } => (ids, provenance),
                    other => panic!("unexpected response {other:?}"),
                }
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let served_partials = results.iter().filter(|(_, p)| p.partial).count();
    assert!(
        served_partials >= 1,
        "a ~zero deadline through the server must yield partial answers"
    );
    for (ids, p) in &results {
        if p.partial {
            assert!(ids.is_empty(), "a deadline placeholder carries no matches");
        }
    }

    // The same contract holds on a direct batch call with the same
    // budget — the server adds transport, not semantics.
    let qs: Vec<InequalityQuery> = (0..clients).map(|_| query(20.0)).collect();
    let direct = eng.snapshot().query_batch_isolated(
        &qs,
        &ExecutionConfig::default().with_deadline(Duration::from_micros(1)),
    );
    let direct_partials = direct
        .iter()
        .filter(|r| {
            r.as_ref().is_ok_and(|o| {
                o.served_by
                    .iter()
                    .any(|sb| matches!(sb, planar_core::ServedBy::Partial { .. }))
            })
        })
        .count();
    assert!(
        direct_partials >= 1,
        "direct calls under the same budget also go partial"
    );

    // Without deadlines the same queries come back complete and
    // identical to the direct answers.
    let mut client = Client::connect(addr).unwrap();
    let want = eng
        .snapshot()
        .query_batch_isolated(&qs[..1], &ExecutionConfig::default())
        .remove(0)
        .unwrap()
        .matches;
    match client.query(&[1.0, 1.5], Cmp::Leq, 20.0).unwrap() {
        Response::Matches { ids, provenance } => {
            assert!(!provenance.partial);
            assert_eq!(ids, want);
        }
        other => panic!("unexpected response {other:?}"),
    }

    let partial_metric = server
        .metrics()
        .partials
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(partial_metric >= served_partials as u64);
    server.shutdown();
}

#[test]
fn tenant_quota_yields_typed_retry() {
    let eng = engine(100);
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            tenant_rate: 0.001, // effectively no refill during the test
            tenant_burst: 2.0,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start(eng, cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for _ in 0..2 {
        match client
            .query_as(5, None, &[1.0, 1.5], Cmp::Leq, 6.0)
            .unwrap()
        {
            Response::Matches { .. } => {}
            other => panic!("burst should be admitted, got {other:?}"),
        }
    }
    match client
        .query_as(5, None, &[1.0, 1.5], Cmp::Leq, 6.0)
        .unwrap()
    {
        Response::Retry { retry_after_us } => assert!(retry_after_us >= 1),
        other => panic!("expected a typed Retry, got {other:?}"),
    }
    // Another tenant is unaffected, on the same connection.
    match client
        .query_as(6, None, &[1.0, 1.5], Cmp::Leq, 6.0)
        .unwrap()
    {
        Response::Matches { .. } => {}
        other => panic!("tenant 6 has its own bucket, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn full_queue_yields_typed_overload_and_connection_survives() {
    let eng = engine(100);
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            max_queue: 0, // every enqueue rejected: deterministic overload
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start(eng, cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query(&[1.0, 1.5], Cmp::Leq, 6.0).unwrap() {
        Response::Overload { .. } => {}
        other => panic!("expected a typed Overload, got {other:?}"),
    }
    // The connection is still usable — overload is a response, not a hang
    // or a dropped socket.
    let json = client.metrics().unwrap();
    let doc = Json::parse(&json).unwrap();
    let rejected = doc
        .get("server")
        .and_then(|s| s.get("rejected_overload"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(rejected, 1);
    server.shutdown();
}

#[test]
fn invalid_query_yields_typed_error() {
    let eng = engine(100);
    let server = Server::start(eng, ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // NaN coefficients fail the engine's typed validation.
    match client.query(&[f64::NAN, 1.0], Cmp::Leq, 1.0).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::INVALID_QUERY),
        other => panic!("expected a typed error, got {other:?}"),
    }
    // Unknown frame kinds get a MALFORMED error and the connection
    // stays framed (CRC was valid, so framing is intact).
    match client.call(&Request::Metrics) {
        Ok(Response::Metrics { .. }) => {}
        other => panic!("connection should survive, got {other:?}"),
    }
    server.shutdown();
}

/// One blocking HTTP exchange over a fresh connection.
fn http_roundtrip(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    let body = text
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or_default()
        .to_string();
    (status, body)
}

#[test]
fn http_surface_matches_binary_answers() {
    let eng = engine(300);
    let server = Server::start(Arc::clone(&eng), ServeConfig::default()).unwrap();
    let addr = server.addr();

    let want = eng
        .snapshot()
        .query_batch_isolated(
            std::slice::from_ref(&query(8.0)),
            &ExecutionConfig::default(),
        )
        .remove(0)
        .unwrap()
        .matches;

    let body = r#"{"a": [1.0, 1.5], "cmp": "leq", "b": 8.0}"#;
    let req = format!(
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let (status, resp_body) = http_roundtrip(addr, &req);
    assert_eq!(status, 200, "body: {resp_body}");
    let doc = Json::parse(&resp_body).unwrap();
    let ids: Vec<u32> = doc
        .get("ids")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap() as u32)
        .collect();
    assert_eq!(ids, want, "HTTP answers must match direct calls");
    assert_eq!(doc.get("partial"), Some(&Json::Bool(false)));

    // Top-k over HTTP.
    let body = r#"{"a": [1.0, 1.5], "cmp": "leq", "b": 8.0, "k": 3}"#;
    let req = format!(
        "POST /topk HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let (status, resp_body) = http_roundtrip(addr, &req);
    assert_eq!(status, 200, "body: {resp_body}");
    let doc = Json::parse(&resp_body).unwrap();
    assert_eq!(
        doc.get("neighbors").and_then(Json::as_arr).unwrap().len(),
        3
    );

    // Metrics scrape: a JSON document with both server and engine blocks.
    let (status, resp_body) = http_roundtrip(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let doc = Json::parse(&resp_body).unwrap();
    assert!(doc.get("server").and_then(|s| s.get("accepted")).is_some());
    assert!(doc.get("engine").and_then(|e| e.get("count")).is_some());

    // Malformed body → 400 with a typed code; unknown route → 404.
    let req = "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{]";
    let (status, resp_body) = http_roundtrip(addr, req);
    assert_eq!(status, 400, "body: {resp_body}");
    let (status, _) = http_roundtrip(
        addr,
        "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn top_k_requests_reach_the_metrics_quant_counters() {
    let mut set = build_sharded(3000);
    set.set_quant_tier(QuantTier::I16);
    let eng = Arc::new(ConcurrentShardedIndexSet::new(
        set,
        ConcurrencyConfig::default(),
    ));
    let server = Server::start(Arc::clone(&eng), ServeConfig::default()).unwrap();
    let engine_counter = |key: &str| {
        let (status, body) = http_roundtrip(
            server.addr(),
            "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        Json::parse(&body)
            .unwrap()
            .get("engine")
            .and_then(|e| e.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("engine.{key} missing"))
    };
    assert_eq!(engine_counter("topk_queries"), 0);
    assert_eq!(engine_counter("quant_lanes"), 0);

    // The lanes one top-k query sends through the filter, measured
    // directly on the engine the server wraps.
    let tq = TopKQuery::new(query(9.0), 5).unwrap();
    let direct = eng.snapshot().top_k(&tq).unwrap();
    let lanes: usize = direct.shard_stats.iter().map(|s| s.quant.lanes).sum();
    assert!(lanes > 0, "{:?}", direct.shard_stats);

    let mut client = Client::connect(server.addr()).unwrap();
    match client.top_k(&[1.0, 1.5], Cmp::Leq, 9.0, 5).unwrap() {
        Response::Neighbors { neighbors, .. } => assert_eq!(neighbors, direct.neighbors),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(engine_counter("topk_queries"), 1);
    assert_eq!(engine_counter("quant_lanes"), lanes as u64);
    assert_eq!(engine_counter("count"), 0, "top-k is counted apart");
    server.shutdown();
}

#[test]
fn box_settled_blocks_reach_the_metrics() {
    let mut set = build_sharded(3000);
    set.set_quant_tier(QuantTier::I16);
    let eng = Arc::new(ConcurrentShardedIndexSet::new(
        set,
        ConcurrencyConfig::default(),
    ));
    let server = Server::start(Arc::clone(&eng), ServeConfig::default()).unwrap();
    let engine_counter = |key: &str| {
        let (status, body) = http_roundtrip(
            server.addr(),
            "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        Json::parse(&body)
            .unwrap()
            .get("engine")
            .and_then(|e| e.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("engine.{key} missing"))
    };
    for key in [
        "box_accepted_blocks",
        "box_rejected_blocks",
        "fills_skipped",
    ] {
        assert_eq!(engine_counter(key), 0, "{key}");
    }

    // What one query's boxes settle, measured directly on the engine.
    let direct = eng.snapshot().query(&query(6.0)).unwrap();
    let stats = direct.merged_stats();
    assert!(stats.quant.box_rejected > 0, "{stats:?}");

    let mut client = Client::connect(server.addr()).unwrap();
    match client.query(&[1.0, 1.5], Cmp::Leq, 6.0).unwrap() {
        Response::Matches { ids, .. } => assert_eq!(ids, direct.matches),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(
        engine_counter("box_accepted_blocks"),
        stats.quant.box_accepted as u64
    );
    assert_eq!(
        engine_counter("box_rejected_blocks"),
        stats.quant.box_rejected as u64
    );
    assert_eq!(engine_counter("fills_skipped"), stats.fill_skipped as u64);
    server.shutdown();
}

#[test]
fn metrics_report_the_engine_cpus_and_spawned_threads() {
    let eng = engine(2000);
    let cfg = ServeConfig {
        exec: ExecutionConfig::with_threads(2),
        ..ServeConfig::default()
    };
    let server = Server::start(eng, cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let server_counter = |client: &mut Client, key: &str| {
        let json = client.metrics().unwrap();
        Json::parse(&json)
            .unwrap()
            .get("server")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("server.{key} missing"))
    };
    assert!(server_counter(&mut client, "engine_cpus") >= 1);
    // Process-wide and shared with every other test in this binary, so
    // only its direction is asserted, never a delta.
    let mut spawned = server_counter(&mut client, "engine_threads_spawned");
    for b in [4.0, 7.5, 11.0, 20.0] {
        assert!(matches!(
            client.query(&[1.0, 1.5], Cmp::Leq, b).unwrap(),
            Response::Matches { .. }
        ));
        let now = server_counter(&mut client, "engine_threads_spawned");
        assert!(now >= spawned, "the spawn counter went {spawned} → {now}");
        spawned = now;
    }
    server.shutdown();
}

#[test]
fn http_quota_maps_to_429_with_retry_after() {
    let eng = engine(100);
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            tenant_rate: 0.001,
            tenant_burst: 1.0,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start(eng, cfg).unwrap();
    let body = r#"{"a": [1.0, 1.5], "cmp": "leq", "b": 6.0, "tenant": 3}"#;
    let req = format!(
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let (status, _) = http_roundtrip(server.addr(), &req);
    assert_eq!(status, 200);
    let (status, resp_body) = http_roundtrip(server.addr(), &req);
    assert_eq!(status, 429, "body: {resp_body}");
    let doc = Json::parse(&resp_body).unwrap();
    assert!(doc.get("retry_after_us").and_then(Json::as_u64).unwrap() >= 1);
    server.shutdown();
}

/// The `/metrics` engine-block keys of the query aggregate, the same for
/// every engine.
const AGGREGATE_KEYS: [&str; 22] = [
    "count",
    "topk_queries",
    "mean_pruning_percentage",
    "mean_verified",
    "mean_intermediate",
    "mean_matched",
    "index_hit_rate",
    "scan_fallbacks",
    "degraded",
    "deadline_hits",
    "quant_lanes",
    "quant_accepted",
    "quant_rejected",
    "quant_reverified",
    "quant_fallback",
    "box_accepted_blocks",
    "box_rejected_blocks",
    "fills_skipped",
    "quant_kernel",
    "kernel",
    "fma_available",
    "thread_clamp_events",
];

/// Keys rendered by `EpochStats`.
const EPOCH_KEYS: [&str; 7] = [
    "epoch",
    "epochs_published",
    "epochs_retired_live",
    "epochs_reclaimed",
    "epoch_clones",
    "epoch_clone_bytes",
    "epoch_clone_micros",
];

/// Keys rendered by `WalHealth`.
const WAL_KEYS: [&str; 5] = [
    "wal_segments",
    "wal_unsynced_records",
    "wal_appended_lsn",
    "wal_acked_lsn",
    "wal_ack_lag",
];

/// Keys rendered by `GroupCommitStats`.
const GROUP_COMMIT_KEYS: [&str; 3] = [
    "group_commit_fsyncs",
    "group_commit_records",
    "group_commit_max_group",
];

/// Scrape `/metrics` and return its engine block as a key → value map.
fn engine_block(client: &mut Client) -> BTreeMap<String, Json> {
    let doc = Json::parse(&client.metrics().unwrap()).unwrap();
    match doc.get("engine") {
        Some(Json::Obj(block)) => block.clone(),
        other => panic!("engine block missing: {other:?}"),
    }
}

/// Assert `block` carries exactly the keys of `groups`.
fn assert_keys(block: &BTreeMap<String, Json>, groups: &[&[&str]]) {
    let want: BTreeSet<&str> = groups.iter().flat_map(|g| g.iter().copied()).collect();
    let got: BTreeSet<&str> = block.keys().map(String::as_str).collect();
    assert_eq!(got, want);
}

/// Assert each `(key, value)` pair reads `value` in `block`.
fn assert_values(block: &BTreeMap<String, Json>, want: &[(&str, u64)]) {
    for &(key, value) in want {
        assert_eq!(block[key].as_u64(), Some(value), "engine.{key}");
    }
}

fn epoch_values(e: EpochStats) -> [(&'static str, u64); 7] {
    [
        ("epoch", e.epoch),
        ("epochs_published", e.published),
        ("epochs_retired_live", e.retired_live as u64),
        ("epochs_reclaimed", e.reclaimed),
        ("epoch_clones", e.clones),
        ("epoch_clone_bytes", e.clone_bytes),
        ("epoch_clone_micros", e.clone_micros),
    ]
}

#[test]
fn metrics_engine_block_is_read_from_each_engine_s_own_state() {
    // In memory: the query aggregate plus the live epoch ledger, and no
    // WAL or group-commit keys.
    let eng = engine(200);
    let server = Server::start(Arc::clone(&eng), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    eng.insert_point(&[2.0, 2.0]).unwrap();
    eng.publish();
    let block = engine_block(&mut client);
    assert_keys(&block, &[&AGGREGATE_KEYS, &EPOCH_KEYS]);
    let epochs = eng.epoch_stats();
    assert!(epochs.published >= 2, "{epochs:?}");
    assert_values(&block, &epoch_values(epochs));
    server.shutdown();

    // Durable: the query aggregate plus WAL, epoch and group-commit state.
    let dir = TempDir::new("serve_durable").unwrap();
    let store = ConcurrentDurableShardedIndexSet::create(
        dir.path(),
        build_sharded(200),
        WalOptions::default().fsync(FsyncPolicy::EveryN(4)),
        ConcurrencyConfig::default(),
    )
    .unwrap();
    let eng = Arc::new(store);
    let server = Server::start(Arc::clone(&eng), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let want = eng
        .snapshot()
        .query_batch_isolated(
            std::slice::from_ref(&query(7.0)),
            &ExecutionConfig::default(),
        )
        .remove(0)
        .unwrap()
        .matches;
    match client.query(&[1.0, 1.5], Cmp::Leq, 7.0).unwrap() {
        Response::Matches { ids, .. } => assert_eq!(ids, want),
        other => panic!("unexpected response {other:?}"),
    }
    for i in 0..5 {
        eng.insert_point(&[1.0 + i as f64, 2.0]).unwrap();
    }
    let block = engine_block(&mut client);
    assert_keys(
        &block,
        &[&AGGREGATE_KEYS, &WAL_KEYS, &EPOCH_KEYS, &GROUP_COMMIT_KEYS],
    );
    assert_eq!(block["count"].as_u64(), Some(1));
    let wal = eng.wal_health();
    assert_eq!(wal.appended_lsn, 5);
    assert_values(
        &block,
        &[
            ("wal_segments", wal.segments as u64),
            ("wal_unsynced_records", wal.unsynced_records),
            ("wal_appended_lsn", wal.appended_lsn),
            ("wal_acked_lsn", wal.acked_lsn),
            ("wal_ack_lag", wal.ack_lag()),
        ],
    );
    assert_values(&block, &epoch_values(eng.epoch_stats()));
    let gc = eng.group_commit_stats();
    assert_values(
        &block,
        &[
            ("group_commit_fsyncs", gc.fsyncs),
            ("group_commit_records", gc.committed_records),
            ("group_commit_max_group", gc.max_group),
        ],
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Replication over the serve listener (PLNRSHP1 sniffing)
// ---------------------------------------------------------------------------

/// Read one HTTP response (status + raw head) off a keep-alive
/// connection, consuming exactly its Content-Length body.
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF before a full response head");
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(raw[..head_end].to_vec()).unwrap();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().unwrap())
        })
        .unwrap_or(0);
    let mut have = raw.len() - head_end - 4;
    while have < content_length {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF inside a response body");
        have += n;
    }
    (status, head)
}

#[test]
fn replication_queries_and_metrics_share_one_port() {
    use planar_core::{
        FailoverConfig, Primary, ReadConsistency, Replica, TcpLinkOptions, TcpTransport,
    };

    let pdir = TempDir::new("serve_ship_p").unwrap();
    let rdir = TempDir::new("serve_ship_r").unwrap();
    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
    let store = Arc::new(
        ConcurrentDurableShardedIndexSet::create(
            pdir.path(),
            build_sharded(200),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap(),
    );
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).unwrap();
    let mut primary = Primary::from_shared(Arc::clone(&store), FailoverConfig::default());

    // The replica dials the same port every query client uses; the
    // PLNRSHP1 banner routes it to replication.
    let link = TcpTransport::new(server.addr(), TcpLinkOptions::default());
    let mut replica = Replica::<VecStore>::new(
        rdir.path().join("r0"),
        0,
        Box::new(link.clone()),
        Box::new(link),
        opts,
        FailoverConfig::default(),
    );
    let _ = replica.poll(0); // dials and sends the banner
    let ep = server
        .accept_replica(Duration::from_secs(5))
        .expect("ship connection routed to the embedder");
    primary.add_replica_pending(Box::new(ep.clone()), Box::new(ep));

    for _ in 0..40 {
        store.insert_point(&[2.0, 2.0]).unwrap();
    }
    store.sync().unwrap();
    let target = store.wal_health().appended_lsn;
    let mut now = 0u64;
    for _ in 0..5000 {
        now += 10;
        let _ = primary.pump(now);
        let _ = replica.poll(now);
        if replica.is_seeded() && replica.applied_lsn() >= target {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        replica.is_seeded() && replica.applied_lsn() >= target,
        "replica must catch up over TCP (applied {} of {})",
        replica.applied_lsn(),
        target
    );

    // Follower answers are bit-identical to the primary's.
    let follower = replica.follower_read(ReadConsistency::Any).unwrap();
    let q = query(8.0);
    assert_eq!(
        follower.snapshot.query(&q).unwrap().sorted_ids(),
        store.snapshot().query(&q).unwrap().sorted_ids(),
        "follower must serve the primary's answers"
    );

    // Query clients still work on the same port, both surfaces.
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query(&[1.0, 1.5], Cmp::Leq, 8.0).unwrap() {
        Response::Matches { .. } => {}
        other => panic!("unexpected response {other:?}"),
    }
    let (status, body) = http_roundtrip(
        server.addr(),
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    let ships = doc
        .get("server")
        .and_then(|s| s.get("ship_connections"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(ships >= 1, "metrics must report the replication connection");
    server.shutdown();
}

#[test]
fn shutdown_drains_attached_ship_connection_promptly() {
    let eng = engine(50);
    let server = Server::start(eng, ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(planar_core::SHIP_MAGIC).unwrap();
    stream.flush().unwrap();
    let ep = server
        .accept_replica(Duration::from_secs(5))
        .expect("ship connection routed");
    drop(ep);

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown must not hang on a live replication link"
    );
    // The relay observed shutdown, drained, and closed the socket: the
    // peer sees EOF, not a hang.
    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).unwrap();
    assert_eq!(n, 0, "server should close the drained ship connection");
}

#[test]
fn http_keepalive_is_bounded_by_request_cap_and_idle_timeout() {
    use std::sync::atomic::Ordering;

    let eng = engine(50);
    let cfg = ServeConfig {
        http_max_requests: 2,
        http_idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let server = Server::start(eng, cfg).unwrap();
    let metrics = server.metrics();
    let req = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";

    // Request cap: the final allowed response announces the close.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(req.as_bytes()).unwrap();
    let (status, head) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(
        !head.to_ascii_lowercase().contains("connection: close"),
        "first response keeps the connection alive: {head}"
    );
    stream.write_all(req.as_bytes()).unwrap();
    let (status, head) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "response at http_max_requests must announce the close: {head}"
    );
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap();
    assert_eq!(n, 0, "connection recycled after the request cap");
    assert_eq!(metrics.http_recycled.load(Ordering::Relaxed), 1);

    // Idle timeout: a keep-alive connection that goes quiet is closed.
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    idle.write_all(req.as_bytes()).unwrap();
    let (status, _) = read_one_response(&mut idle);
    assert_eq!(status, 200);
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = std::time::Instant::now();
    let mut buf = Vec::new();
    let n = idle.read_to_end(&mut buf).unwrap();
    assert_eq!(n, 0, "idle keep-alive connection should be closed");
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "the idle close should wait out the timeout"
    );
    assert!(metrics.http_idle_closed.load(Ordering::Relaxed) >= 1);
    server.shutdown();
}
