//! Networked replication experiment: what does the TCP ship transport
//! cost over an in-process link, and what does a quorum buy?
//!
//! Three questions the networked-replication work raises, answered with
//! numbers:
//!
//! 1. **TCP catch-up vs in-process catch-up** — the same backlog is
//!    drained once over an in-process `ChannelTransport` pair (messages
//!    handed over in memory, no sockets) and once over a real
//!    `TcpTransport` dialing the serve listener's sniffed `PLNRSHP1`
//!    surface. The gap is the price of the socket hop, framing, and
//!    relay threads.
//! 2. **Quorum vs async acknowledgement latency** — per-write latency
//!    of `AckPolicy::Async` (local group-commit ack) against
//!    `write_quorum` under `AckPolicy::Quorum(1)` with a live TCP
//!    replica confirming each LSN. The delta is the round trip a
//!    synchronously-replicated write waits out.
//! 3. **Reconnect-storm recovery** — a `ChaosProxy` between replica and
//!    primary kills every live connection repeatedly; each storm's
//!    heal time (redial, Hello, resume, catch up) is measured. The
//!    stream must resume by watermark, never re-seed.
//!
//! Every phase asserts follower answers bit-identical to the primary
//! before any timing is reported. Results are printed as tables and
//! written to `BENCH_netrepl.json`.

use crate::report::{self, ms, Table};
use crate::{time_ms, Config};
use planar_core::fault::{ChaosProxy, TempDir};
use planar_core::replicate::ChannelTransport;
use planar_core::stats::{json_array, json_f64};
use planar_core::{
    AckPolicy, ConcurrencyConfig, ConcurrentDurableShardedIndexSet, FailoverConfig, FsyncPolicy,
    InequalityQuery, JsonObject, Mutation, Primary, ReadConsistency, Replica, ShardConfig,
    ShardedIndexSet, TcpLinkOptions, TcpTransport, VecStore, WalOptions,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_datagen::SYNTHETIC_N;
use planar_serve::{ServeConfig, Server, ServerHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Dataset dimensionality.
const DIM: usize = 8;
/// RQ of the Eq. 18 query template.
const RQ: usize = 4;
/// Index budget.
const BUDGET: usize = 8;
/// Shards (and WAL segment streams) in the replication group.
const SHARDS: usize = 3;
/// Writes measured per acknowledgement policy.
const ACK_WRITES: usize = 32;
/// Connection-kill storms in the recovery phase.
const STORMS: usize = 5;
/// Writes landed during each storm.
const STORM_BATCH: usize = 8;

/// Fast reconnects so the storm phase measures healing, not backoff.
fn link_opts() -> TcpLinkOptions {
    TcpLinkOptions {
        backoff_base_ms: 2,
        backoff_cap_ms: 50,
        ..TcpLinkOptions::default()
    }
}

/// Attach any ship connections the listener has sniffed since the last
/// call (reconnects surface as fresh endpoints; dead links are reaped
/// by `pump`).
fn adopt(server: &ServerHandle, primary: &mut Primary<VecStore>) {
    while let Some(ep) = server.accept_replica(std::time::Duration::from_millis(1)) {
        primary.add_replica_pending(Box::new(ep.clone()), Box::new(ep));
    }
}

/// Pump/poll (adopting reconnections when a listener is present) until
/// the replica has applied everything appended. Returns turns taken.
fn drain(
    server: Option<&ServerHandle>,
    primary: &mut Primary<VecStore>,
    replica: &mut Replica<VecStore>,
    now: &mut u64,
) -> usize {
    primary.store().sync().expect("sync");
    let appended = primary.store().wal_health().appended_lsn;
    let mut turns = 0;
    while !(replica.is_seeded() && replica.applied_lsn() >= appended) {
        *now += 10;
        turns += 1;
        if let Some(server) = server {
            adopt(server, primary);
        }
        primary.pump(*now).expect("pump");
        replica.poll(*now).expect("poll");
        assert!(turns < 500_000, "replication failed to converge");
    }
    *now += 10;
    primary.pump(*now).expect("pump");
    turns
}

/// Assert the follower answers bit-identically to the primary.
fn check_identical(
    primary: &Primary<VecStore>,
    replica: &Replica<VecStore>,
    queries: &[InequalityQuery],
) {
    let appended = primary.store().wal_health().appended_lsn;
    let read = replica
        .follower_read(ReadConsistency::AtLeast(appended))
        .expect("caught-up follower read");
    let psnap = primary.store().snapshot();
    for q in queries {
        assert_eq!(
            read.snapshot.query(q).expect("replica query").sorted_ids(),
            psnap.query(q).expect("primary query").sorted_ids(),
            "follower read diverged from primary at lsn {appended}"
        );
    }
}

struct CatchUp {
    seed_ms: f64,
    frames_ms: f64,
    frames_applied: u64,
    records_per_sec: f64,
}

impl CatchUp {
    fn to_json(&self) -> String {
        JsonObject::new()
            .field_f64("seed_ms", self.seed_ms)
            .field_f64("frames_ms", self.frames_ms)
            .field_u64("frames_applied", self.frames_applied)
            .field_f64("records_per_sec", self.records_per_sec)
            .finish()
    }
}

/// Seed + frame catch-up time for one already-wired replica. The
/// primary starts with a shipped-but-unreplicated backlog.
fn catch_up(
    server: Option<&ServerHandle>,
    primary: &mut Primary<VecStore>,
    replica: &mut Replica<VecStore>,
    queries: &[InequalityQuery],
) -> CatchUp {
    let mut now = 0u64;
    let (_, seed_ms) = time_ms(|| {
        let mut turns = 0usize;
        while !replica.is_seeded() {
            now += 10;
            turns += 1;
            if let Some(server) = server {
                adopt(server, primary);
            }
            primary.pump(now).expect("pump");
            replica.poll(now).expect("poll");
            assert!(turns < 500_000, "seeding failed to converge");
        }
    });
    let applied_at_seed = replica.applied_lsn();
    let (_, frames_ms) = time_ms(|| drain(server, primary, replica, &mut now));
    let frames_applied = replica.applied_lsn() - applied_at_seed;
    check_identical(primary, replica, queries);
    CatchUp {
        seed_ms,
        frames_ms,
        frames_applied,
        records_per_sec: frames_applied as f64 / (frames_ms.max(0.001) / 1e3),
    }
}

/// The `netrepl` experiment (see module docs).
pub fn netrepl(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N / 20).max(200);
    let backlog = cfg.scaled(1024).max(64);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n + backlog, DIM).generate();
    let base = {
        let head: Vec<Vec<f64>> = (0..n).map(|i| table.row(i as u32).to_vec()).collect();
        planar_core::FeatureTable::from_rows(DIM, head).expect("base table")
    };
    let build = || {
        ShardedIndexSet::<VecStore>::build(
            base.clone(),
            eq18_domain(DIM, RQ),
            planar_core::IndexConfig::with_budget(BUDGET).seed(cfg.seed),
            ShardConfig::round_robin(SHARDS),
        )
        .expect("netrepl experiment build")
    };
    let mut generator =
        Eq18Generator::new(&base, RQ, cfg.seed ^ 0x4e7e).with_inequality_parameter(0.2);
    let queries: Vec<InequalityQuery> = generator.queries(cfg.queries.max(16));
    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(64));

    let fresh_primary = |dir: &std::path::Path| {
        let store = Arc::new(
            ConcurrentDurableShardedIndexSet::create(
                dir.join("idx"),
                build(),
                opts,
                ConcurrencyConfig::default(),
            )
            .expect("create durable"),
        );
        for i in n..n + backlog {
            store.insert_point(table.row(i as u32)).expect("insert");
        }
        store.sync().expect("sync");
        store
    };

    // 1. Catch-up over an in-process channel pair (no sockets).
    let local_tmp = TempDir::new("bench-netrepl-local").expect("temp dir");
    let store = fresh_primary(local_tmp.path());
    let mut primary = Primary::from_shared(Arc::clone(&store), FailoverConfig::default());
    let down = ChannelTransport::new();
    let up = ChannelTransport::new();
    primary.add_replica(Box::new(down.clone()), Box::new(up.clone()));
    let mut replica = Replica::<VecStore>::new(
        local_tmp.path().join("replica"),
        0,
        Box::new(down),
        Box::new(up),
        opts,
        FailoverConfig::default(),
    );
    let local_result = catch_up(None, &mut primary, &mut replica, &queries);
    drop(primary);
    drop(replica);

    // 2. Catch-up over TCP through the serve listener's protocol sniff.
    let tcp_tmp = TempDir::new("bench-netrepl-tcp").expect("temp dir");
    let store = fresh_primary(tcp_tmp.path());
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).expect("server");
    let mut primary = Primary::from_shared(Arc::clone(&store), FailoverConfig::default());
    let link = TcpTransport::new(server.addr(), link_opts());
    let mut replica = Replica::<VecStore>::new(
        tcp_tmp.path().join("replica"),
        0,
        Box::new(link.clone()),
        Box::new(link),
        opts,
        FailoverConfig::default(),
    );
    let tcp_result = catch_up(Some(&server), &mut primary, &mut replica, &queries);
    drop(replica);

    let mut t = Table::new(
        &format!("Catch-up: {backlog}-record backlog, n={n}, {SHARDS} shards"),
        &["transport", "seed", "frames", "rate"],
    );
    for (name, r) in [
        ("in-process channel", &local_result),
        ("tcp (sniffed port)", &tcp_result),
    ] {
        t.row(vec![
            name.into(),
            ms(r.seed_ms),
            format!("{} ({} records)", ms(r.frames_ms), r.frames_applied),
            format!("{:.0} rec/s", r.records_per_sec),
        ]);
    }
    t.print();

    // 3. Quorum vs async acknowledgement latency over the live TCP
    // link, with a fresh replica for the latency phase.
    let link = TcpTransport::new(server.addr(), link_opts());
    let mut replica = Replica::<VecStore>::new(
        tcp_tmp.path().join("replica-ack"),
        1,
        Box::new(link.clone()),
        Box::new(link),
        opts,
        FailoverConfig::default(),
    );
    let mut now = 1_000_000u64;
    drain(Some(&server), &mut primary, &mut replica, &mut now);
    check_identical(&primary, &replica, &queries);

    // Async: the local group-commit acknowledgement (insert + sync).
    let mut async_total = 0.0f64;
    let mut async_max = 0.0f64;
    for i in 0..ACK_WRITES {
        let row = table.row((i % (n + backlog)) as u32).to_vec();
        let (_, w_ms) = time_ms(|| {
            primary.store().insert_point(&row).expect("insert");
            primary.store().sync().expect("sync");
        });
        async_total += w_ms;
        async_max = async_max.max(w_ms);
    }
    drain(Some(&server), &mut primary, &mut replica, &mut now);

    // Quorum(1): each write waits for the TCP replica's confirmation.
    // A sidecar thread keeps the replica polling while `write_quorum`
    // pumps the primary inline.
    primary.set_ack_policy(AckPolicy::Quorum(1));
    let stop = Arc::new(AtomicBool::new(false));
    let sidecar = {
        let stop = Arc::clone(&stop);
        let mut replica = replica;
        let mut snow = now;
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                snow += 10;
                let _ = replica.poll(snow);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            replica
        })
    };
    let mut quorum_total = 0.0f64;
    let mut quorum_max = 0.0f64;
    for i in 0..ACK_WRITES {
        let row = table.row((i % (n + backlog)) as u32).to_vec();
        now += 10;
        let (ack, w_ms) = time_ms(|| primary.write_quorum(&Mutation::Insert { row }, now));
        ack.expect("quorum write");
        quorum_total += w_ms;
        quorum_max = quorum_max.max(w_ms);
    }
    stop.store(true, Ordering::Release);
    let mut replica = sidecar.join().expect("sidecar");
    primary.set_ack_policy(AckPolicy::Async);
    drain(Some(&server), &mut primary, &mut replica, &mut now);
    check_identical(&primary, &replica, &queries);
    let async_mean = async_total / ACK_WRITES as f64;
    let quorum_mean = quorum_total / ACK_WRITES as f64;

    let mut t = Table::new(
        &format!("Write acknowledgement latency over TCP ({ACK_WRITES} writes)"),
        &["policy", "mean", "max"],
    );
    t.row(vec![
        "async (local ack)".into(),
        ms(async_mean),
        ms(async_max),
    ]);
    t.row(vec![
        "quorum(1) confirmed".into(),
        ms(quorum_mean),
        ms(quorum_max),
    ]);
    t.print();
    server.shutdown();
    drop(primary);

    // 4. Reconnect-storm recovery through a chaos proxy.
    let storm_tmp = TempDir::new("bench-netrepl-storm").expect("temp dir");
    let store = fresh_primary(storm_tmp.path());
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).expect("server");
    let proxy = ChaosProxy::start(server.addr()).expect("chaos proxy");
    let ctl = proxy.ctl();
    let mut primary = Primary::from_shared(Arc::clone(&store), FailoverConfig::default());
    let link = TcpTransport::new(proxy.addr(), link_opts());
    let mut replica = Replica::<VecStore>::new(
        storm_tmp.path().join("replica"),
        0,
        Box::new(link.clone()),
        Box::new(link),
        opts,
        FailoverConfig::default(),
    );
    let mut now = 0u64;
    drain(Some(&server), &mut primary, &mut replica, &mut now);
    let seeds_before = replica.stats().snapshots;
    let mut heal_ms = Vec::with_capacity(STORMS);
    for storm in 0..STORMS {
        ctl.reset_all();
        for i in 0..STORM_BATCH {
            let row = table.row(((storm * STORM_BATCH + i) % (n + backlog)) as u32);
            store.insert_point(row).expect("storm insert");
        }
        let (_, h_ms) = time_ms(|| drain(Some(&server), &mut primary, &mut replica, &mut now));
        heal_ms.push(h_ms);
    }
    check_identical(&primary, &replica, &queries);
    assert_eq!(
        replica.stats().snapshots,
        seeds_before,
        "reconnects must resume by watermark, never re-seed"
    );
    let link_drops = primary.stats().link_drops;
    let heal_mean = heal_ms.iter().sum::<f64>() / heal_ms.len().max(1) as f64;
    let heal_max = heal_ms.iter().cloned().fold(0.0f64, f64::max);

    let mut t = Table::new(
        &format!("Reconnect storms: {STORMS} full connection kills, {STORM_BATCH} writes each"),
        &["metric", "value"],
    );
    t.row(vec!["mean heal time".into(), ms(heal_mean)]);
    t.row(vec!["max heal time".into(), ms(heal_max)]);
    t.row(vec![
        "links dropped (reaped)".into(),
        link_drops.to_string(),
    ]);
    t.row(vec![
        "snapshots re-installed".into(),
        (replica.stats().snapshots - seeds_before).to_string(),
    ]);
    t.print();
    server.shutdown();

    let catch_up = JsonObject::new()
        .field_usize("backlog_records", backlog)
        .field_raw("in_process", &local_result.to_json())
        .field_raw("tcp", &tcp_result.to_json())
        .finish();
    let ack_latency = JsonObject::new()
        .field_usize("writes", ACK_WRITES)
        .field_f64("async_mean_ms", async_mean)
        .field_f64("async_max_ms", async_max)
        .field_f64("quorum_mean_ms", quorum_mean)
        .field_f64("quorum_max_ms", quorum_max)
        .finish();
    let reconnect_storm = JsonObject::new()
        .field_usize("storms", STORMS)
        .field_raw("heal_ms", &json_array(heal_ms.iter().map(|&h| json_f64(h))))
        .field_f64("mean_heal_ms", heal_mean)
        .field_f64("max_heal_ms", heal_max)
        .field_u64("link_drops", link_drops)
        .field_u64("reseeds", 0)
        .finish();
    report::write_json("netrepl", |doc| {
        doc.field_usize("n", n)
            .field_usize("dim", DIM)
            .field_usize("budget", BUDGET)
            .field_usize("shards", SHARDS)
            .field_u64("seed", cfg.seed)
            .field_raw("catch_up", &catch_up)
            .field_raw("ack_latency", &ack_latency)
            .field_raw("reconnect_storm", &reconnect_storm)
            .field_bool("follower_reads_identical", true)
    });
}
