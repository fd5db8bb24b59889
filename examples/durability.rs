//! Durability walkthrough: a write-ahead-logged index set that survives a
//! crash, replays its tail on reopen, and answers deadline-budgeted
//! batches honestly. Mirrors the README recovery cookbook.
//!
//! ```text
//! cargo run --release --example durability
//! ```

use std::time::Duration;

use planar::planar_core::PlanarError;
use planar::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), PlanarError> {
    // ----------------------------------------------------------------
    // 1. Build an in-memory set, then give it a durable home: snapshot
    //    generation 1 + manifest + one empty WAL per shard. One shard is
    //    the unsharded engine.
    // ----------------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(11);
    let rows: Vec<Vec<f64>> = (0..20_000)
        .map(|_| (0..4).map(|_| rng.random_range(1.0..100.0)).collect())
        .collect();
    let table = FeatureTable::from_rows(4, rows)?;
    let domain = ParameterDomain::uniform_continuous(4, 0.5, 2.0)?;
    let set: ShardedIndexSet = ShardedIndexSet::build(
        table,
        domain,
        IndexConfig::with_budget(8),
        ShardConfig::round_robin(1),
    )?;

    let dir = std::env::temp_dir().join(format!("planar-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir); // fresh home or create() refuses

    // fsync every 8th record: at most 7 acknowledged mutations can be
    // lost to a *power* failure; a process crash loses nothing.
    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(8));
    // Readers see a new epoch every 64 mutations: each publish copies the
    // set, so publishing per mutation would dominate this write loop.
    let conc = ConcurrencyConfig::default().publish_every(64);
    let durable = ConcurrentDurableShardedIndexSet::create(&dir, set, opts, conc)?;

    // ----------------------------------------------------------------
    // 2. Mutations are logged before they are applied.
    // ----------------------------------------------------------------
    let mut last = 0;
    for _ in 0..1_000 {
        let row: Vec<f64> = (0..4).map(|_| rng.random_range(1.0..100.0)).collect();
        last = durable.insert_point(&row)?;
    }
    durable.delete_point(last)?;
    let health = durable.wal_health();
    println!(
        "logged 1001 mutations: {} segment(s), last lsn {}, {} unsynced",
        health.segments, health.appended_lsn, health.unsynced_records
    );

    // ----------------------------------------------------------------
    // 3. Crash. No checkpoint, no graceful shutdown.
    // ----------------------------------------------------------------
    drop(durable);

    // ----------------------------------------------------------------
    // 4. Reopen: the snapshot loads, the WAL tail replays, and the
    //    report says exactly what happened.
    // ----------------------------------------------------------------
    let (durable, report) = ConcurrentDurableShardedIndexSet::<VecStore>::open(&dir, opts, conc)?;
    println!(
        "recovered: replayed {} records (watermarks {:?}), dropped {}, torn bytes {}",
        report.wal_replayed, report.shard_watermarks, report.wal_dropped, report.wal_torn_bytes
    );
    assert_eq!(report.wal_replayed, 1001);
    assert_eq!(durable.snapshot().len(), 20_000 + 1_000 - 1);

    // Checkpoint: snapshot the current state, then truncate the log.
    durable.checkpoint()?;
    assert_eq!(durable.wal_health().unsynced_records, 0);
    println!("checkpointed; the log now starts at the snapshot");

    // ----------------------------------------------------------------
    // 5. Deadline-budgeted batches: late answers come back as honest
    //    partials, never as silently wrong results.
    // ----------------------------------------------------------------
    let queries: Vec<InequalityQuery> = (0..64)
        .map(|_| {
            let coeffs: Vec<f64> = (0..4).map(|_| rng.random_range(0.5..2.0)).collect();
            InequalityQuery::leq(coeffs, rng.random_range(100.0..400.0))
        })
        .collect::<Result<_, _>>()?;

    let snap = durable.snapshot();
    let partial = |o: &ShardedQueryOutcome| o.served_by.iter().any(|s| s.is_partial());
    let generous = ExecutionConfig::with_threads(2).with_deadline(Duration::from_secs(30));
    let outcomes = snap.query_batch(&queries, &generous)?;
    assert!(!outcomes.iter().any(partial));
    println!("generous budget: all {} queries answered", outcomes.len());

    let expired = ExecutionConfig::with_threads(2).with_deadline(Duration::ZERO);
    let outcomes = snap.query_batch(&queries, &expired)?;
    let partial = outcomes.iter().filter(|o| partial(o)).count();
    println!(
        "zero budget: {partial} of {} came back partial",
        outcomes.len()
    );
    assert_eq!(partial, outcomes.len());

    drop((snap, durable));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
