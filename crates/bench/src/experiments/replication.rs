//! Replication experiment: what does WAL shipping cost, and how fast
//! does a follower come back?
//!
//! Three questions the replication work raises, answered with numbers:
//!
//! 1. **Catch-up rate** — a fresh replica bootstraps (snapshot install
//!    plus frame tailing) against a primary with a long shipped backlog;
//!    the applied-records/second should beat the cold replay rate in
//!    `BENCH_wal.json`, because the replica batches its epoch publishes.
//! 2. **Steady-state lag** — a paced writer keeps mutating while the
//!    replica polls each round; the appended-minus-applied lag must stay
//!    bounded (and return to zero when the writer pauses).
//! 3. **Failover time** — elect + promote on the caught-up follower,
//!    through to the promoted primary's first accepted write.
//!
//! Every phase cross-checks follower reads against the primary's
//! answers at the same LSN — bit-identical or the experiment panics.
//! Results are printed as tables and written to `BENCH_replication.json`.

use crate::report::{self, ms, Table};
use crate::{time_ms, Config};
use planar_core::fault::TempDir;
use planar_core::replicate::ChannelTransport;
use planar_core::{
    elect, ConcurrencyConfig, ConcurrentDurableShardedIndexSet, FailoverConfig, FsyncPolicy,
    InequalityQuery, JsonObject, Primary, ReadConsistency, Replica, ShardConfig, ShardedIndexSet,
    VecStore, WalOptions,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_datagen::SYNTHETIC_N;

/// Dataset dimensionality.
const DIM: usize = 8;
/// RQ of the Eq. 18 query template.
const RQ: usize = 4;
/// Index budget.
const BUDGET: usize = 8;
/// Shards (and WAL segment streams) in the replication group.
const SHARDS: usize = 4;
/// Backlog the fresh replica must catch up through.
const BACKLOG: usize = 2048;
/// Paced-writer rounds and batch size for the steady-state phase.
const PACED_ROUNDS: usize = 32;
const PACED_BATCH: usize = 32;

/// Pump/poll until the replica has applied everything the primary
/// appended. Returns the number of turns taken.
fn drain(primary: &mut Primary<VecStore>, replica: &mut Replica<VecStore>, now: &mut u64) -> usize {
    primary.store().sync().expect("sync");
    let appended = primary.store().wal_health().appended_lsn;
    let mut turns = 0;
    while !(replica.is_seeded() && replica.applied_lsn() >= appended) {
        *now += 50;
        turns += 1;
        primary.pump(*now).expect("pump");
        replica.poll(*now).expect("poll");
        assert!(turns < 100_000, "replication failed to converge");
    }
    // One more pump so the final ack is drained and the primary's view
    // of the replica converges too.
    *now += 50;
    primary.pump(*now).expect("pump");
    turns
}

/// Assert the follower answers bit-identically to the primary at the
/// LSN it has applied.
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

/// The `replication` experiment (see module docs).
pub fn replication(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N / 10);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n + BACKLOG, DIM).generate();
    let rows: Vec<Vec<f64>> = (n..n + BACKLOG)
        .map(|i| table.row(i as u32).to_vec())
        .collect();
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
        .expect("replication experiment build")
    };
    let mut generator =
        Eq18Generator::new(&base, RQ, cfg.seed ^ 0x5e11).with_inequality_parameter(0.2);
    let queries: Vec<InequalityQuery> = generator.queries(cfg.queries.max(16));

    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(64));
    let pdir = TempDir::new("bench-repl-primary").expect("temp dir");
    let rdir = TempDir::new("bench-repl-replica").expect("temp dir");
    let store = ConcurrentDurableShardedIndexSet::create(
        pdir.path().join("idx"),
        build(),
        opts,
        ConcurrencyConfig::default(),
    )
    .expect("create durable");
    let mut primary = Primary::new(store, FailoverConfig::default());

    // 1. Catch-up: a long backlog lands before the replica attaches.
    for row in &rows {
        primary.store().insert_point(row).expect("insert");
    }
    primary.store().sync().expect("sync");
    let down = ChannelTransport::new();
    let up = ChannelTransport::new();
    primary.add_replica(Box::new(down.clone()), Box::new(up.clone()));
    let mut replica: Replica<VecStore> = Replica::new(
        rdir.path().join("r0"),
        0,
        Box::new(down),
        Box::new(up),
        opts,
        FailoverConfig::default(),
    );
    let mut now = 0u64;
    // Seed phase: snapshot ship + validate + install (a fixed cost,
    // reported separately so the frame-apply rate is comparable to the
    // cold replay rate in BENCH_wal.json).
    let (seed_turns, seed_ms) = time_ms(|| {
        let mut turns = 0usize;
        while !replica.is_seeded() {
            now += 50;
            turns += 1;
            primary.pump(now).expect("pump");
            replica.poll(now).expect("poll");
            assert!(turns < 100_000, "snapshot seeding failed to converge");
        }
        turns
    });
    let applied_at_seed = replica.applied_lsn();
    let (frame_turns, frames_ms) = time_ms(|| drain(&mut primary, &mut replica, &mut now));
    let catch_up_ms = seed_ms + frames_ms;
    let frames_applied = replica.applied_lsn() - applied_at_seed;
    let catch_up_per_sec = frames_applied as f64 / (frames_ms.max(0.001) / 1e3);
    let turns = seed_turns + frame_turns;
    check_identical(&primary, &replica, &queries);
    let snapshots_installed = replica.stats().snapshots;

    let mut t = Table::new(
        &format!("Replica catch-up: {BACKLOG}-record backlog, n={n}, {SHARDS} shards"),
        &["phase", "value"],
    );
    t.row(vec!["snapshot install".into(), ms(seed_ms)]);
    t.row(vec![
        "frame catch-up".into(),
        format!("{} ({frames_applied} records)", ms(frames_ms)),
    ]);
    t.row(vec!["total catch-up time".into(), ms(catch_up_ms)]);
    t.row(vec![
        "frame apply rate".into(),
        format!("{catch_up_per_sec:.0} rec/s"),
    ]);
    t.row(vec!["replication turns".into(), turns.to_string()]);
    t.row(vec![
        "snapshots installed".into(),
        snapshots_installed.to_string(),
    ]);
    t.print();

    let catch_up = JsonObject::new()
        .field_usize("backlog_records", BACKLOG)
        .field_f64("snapshot_install_ms", seed_ms)
        .field_f64("frames_ms", frames_ms)
        .field_u64("frames_applied", frames_applied)
        .field_f64("total_ms", catch_up_ms)
        .field_f64("records_per_sec", catch_up_per_sec)
        .field_usize("replication_turns", turns)
        .field_u64("snapshots_installed", snapshots_installed)
        .finish();

    // 2. Steady-state lag under a paced writer.
    let mut lags = Vec::with_capacity(PACED_ROUNDS);
    let (_, paced_ms) = time_ms(|| {
        for round in 0..PACED_ROUNDS {
            for i in 0..PACED_BATCH {
                let row = table.row(((round * PACED_BATCH + i) % (n + BACKLOG)) as u32);
                primary.store().insert_point(row).expect("paced insert");
            }
            primary.store().sync().expect("sync");
            now += 50;
            primary.pump(now).expect("pump");
            replica.poll(now).expect("poll");
            let h = primary.health();
            lags.push(h.max_lag);
        }
    });
    let max_lag = lags.iter().copied().max().unwrap_or(0);
    let mean_lag = lags.iter().sum::<u64>() as f64 / lags.len().max(1) as f64;
    drain(&mut primary, &mut replica, &mut now);
    check_identical(&primary, &replica, &queries);
    let final_lag = primary.health().max_lag;
    assert_eq!(
        final_lag, 0,
        "lag must return to zero when the writer pauses"
    );
    assert!(
        (max_lag as usize) <= 2 * PACED_BATCH,
        "steady-state lag must stay bounded by the in-flight batch"
    );

    let mut t = Table::new(
        &format!(
            "Steady-state lag: {PACED_ROUNDS} rounds x {PACED_BATCH} inserts, one poll per round"
        ),
        &["metric", "records"],
    );
    t.row(vec!["mean lag".into(), format!("{mean_lag:.1}")]);
    t.row(vec!["max lag".into(), max_lag.to_string()]);
    t.row(vec![
        "final lag (writer paused)".into(),
        final_lag.to_string(),
    ]);
    t.row(vec!["paced phase time".into(), ms(paced_ms)]);
    t.print();

    let steady_state = JsonObject::new()
        .field_usize("rounds", PACED_ROUNDS)
        .field_usize("batch", PACED_BATCH)
        .field_f64("mean_lag_records", mean_lag)
        .field_u64("max_lag_records", max_lag)
        .field_u64("final_lag_records", final_lag)
        .finish();

    // 3. Failover: elect + promote + first write on the new primary.
    let expected: Vec<Vec<u32>> = {
        let snap = primary.store().snapshot();
        queries
            .iter()
            .map(|q| snap.query(q).expect("primary query").sorted_ids())
            .collect()
    };
    drop(primary); // the primary dies
    let replicas = vec![replica];
    let (winner, elect_ms) = time_ms(|| elect(&replicas).expect("an electable replica"));
    let mut replicas = replicas;
    let winner = replicas.swap_remove(winner);
    let (promoted, promote_ms) = time_ms(|| {
        winner
            .promote(ConcurrencyConfig::default())
            .expect("promote")
    });
    let (new_id, first_write_ms) = time_ms(|| {
        promoted
            .store()
            .insert_point(table.row(0))
            .expect("first write on promoted primary")
    });
    let snap = promoted.store().snapshot();
    for (q, want) in queries.iter().zip(&expected) {
        // The promoted set answers exactly as the dead primary did
        // (modulo the one id the first write just added).
        let got = snap.query(q).expect("promoted query").sorted_ids();
        assert!(
            want.iter().all(|id| got.binary_search(id).is_ok()),
            "promoted replica lost acked data"
        );
        assert!(
            got.iter()
                .all(|id| *id == new_id || want.binary_search(id).is_ok()),
            "promoted replica invented data"
        );
    }

    let unavailable_ms = elect_ms + promote_ms + first_write_ms;
    let mut t = Table::new(
        "Failover: dead primary -> promoted follower",
        &["phase", "time"],
    );
    t.row(vec!["elect".into(), ms(elect_ms)]);
    t.row(vec![
        "promote (fsync + manifest + rewrap)".into(),
        ms(promote_ms),
    ]);
    t.row(vec!["first write accepted".into(), ms(first_write_ms)]);
    t.row(vec!["total unavailability".into(), ms(unavailable_ms)]);
    t.print();

    let failover = JsonObject::new()
        .field_f64("elect_ms", elect_ms)
        .field_f64("promote_ms", promote_ms)
        .field_f64("first_write_ms", first_write_ms)
        .field_f64("total_unavailability_ms", unavailable_ms)
        .finish();
    report::write_json("replication", |doc| {
        doc.field_usize("n", n)
            .field_usize("dim", DIM)
            .field_usize("budget", BUDGET)
            .field_usize("shards", SHARDS)
            .field_u64("seed", cfg.seed)
            .field_raw("catch_up", &catch_up)
            .field_raw("steady_state", &steady_state)
            .field_raw("failover", &failover)
            .field_bool("follower_reads_identical", true)
    });
}
