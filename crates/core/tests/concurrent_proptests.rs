//! Property tests for the concurrent execution layer (`core::concurrent`):
//!
//! 1. **Snapshot isolation** — a reader pinned to epoch *E* never observes
//!    a mutation from epoch *E + 1*, across random mutation traces: every
//!    pin answers bit-identically to a serial twin frozen at pin time.
//! 2. **Concurrent ≡ serialized** — readers racing a live writer record
//!    `(epoch, answer)` pairs; replaying the mutation stream serially must
//!    reproduce every recorded answer exactly, so concurrent execution is
//!    indistinguishable from some serial schedule.
//! 3. **Group commit never acks-then-loses** — a crash injected at every
//!    append position (failed, torn, or post-append) under
//!    `FsyncPolicy::Always` must leave every *acknowledged* mutation
//!    recoverable; the faulted mutation itself may or may not survive, but
//!    recovery always lands on a clean prefix of the attempted stream.
//!
//! Every engine here has one shard, so it has one WAL writer and append
//! `n` is mutation `n`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use planar_core::fault::{arm_wal_fault, disarm_wal_fault, TempDir, WalFaultKind};
use planar_core::{
    Cmp, ConcurrencyConfig, ConcurrentDurableShardedIndexSet, ConcurrentShardedIndexSet,
    FeatureTable, IndexConfig, InequalityQuery, ParameterDomain, ShardConfig, ShardedIndexSet,
    VecStore, WalOptions,
};
use proptest::prelude::*;

/// The WAL fault trigger is process-global; crash-sweep cases serialize on
/// this lock so an armed fault is never consumed by a neighbor's writer.
static WAL_LOCK: Mutex<()> = Mutex::new(());

/// One step of a mutation trace. `pick` indexes the live-id list modulo
/// its length, so traces are valid by construction. No `Compact`: these
/// traces also drive per-epoch oracles, which rely on stable ids.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<f64>),
    Update(u16, Vec<f64>),
    Delete(u16),
}

/// A mutation as actually applied (picks resolved to concrete ids), in
/// LSN/epoch order.
#[derive(Debug, Clone)]
enum Applied {
    Insert(Vec<f64>),
    Update(u32, Vec<f64>),
    Delete(u32),
}

#[derive(Debug, Clone)]
struct Trace {
    dim: usize,
    rows: Vec<Vec<f64>>,
    ops: Vec<Op>,
    probes: Vec<(Vec<f64>, f64)>,
    budget: usize,
}

fn trace() -> impl Strategy<Value = Trace> {
    (1..=3usize).prop_flat_map(|dim| {
        let row = prop::collection::vec(0.1..50.0_f64, dim);
        let op = prop_oneof![
            5 => row.clone().prop_map(Op::Insert),
            3 => (any::<u16>(), row.clone()).prop_map(|(pick, r)| Op::Update(pick, r)),
            3 => any::<u16>().prop_map(Op::Delete),
        ];
        (
            Just(dim),
            prop::collection::vec(row, 3..12),
            prop::collection::vec(op, 1..14),
            prop::collection::vec(
                (prop::collection::vec(0.1..10.0_f64, dim), -50.0..150.0_f64),
                1..4,
            ),
            1..4usize,
        )
            .prop_map(|(dim, rows, ops, probes, budget)| Trace {
                dim,
                rows,
                ops,
                probes,
                budget,
            })
    })
}

fn build(t: &Trace) -> ShardedIndexSet<VecStore> {
    let table = FeatureTable::from_rows(t.dim, t.rows.clone()).unwrap();
    let domain = ParameterDomain::uniform_continuous(t.dim, 0.1, 10.0).unwrap();
    ShardedIndexSet::build(
        table,
        domain,
        IndexConfig::with_budget(t.budget),
        ShardConfig::round_robin(1),
    )
    .unwrap()
}

fn probe_queries(t: &Trace) -> Vec<InequalityQuery> {
    t.probes
        .iter()
        .map(|(coeffs, b)| InequalityQuery::new(coeffs.clone(), Cmp::Leq, *b).unwrap())
        .collect()
}

fn answers(set: &ShardedIndexSet<VecStore>, queries: &[InequalityQuery]) -> Vec<Vec<u32>> {
    queries
        .iter()
        .map(|q| set.query(q).unwrap().sorted_ids())
        .collect()
}

/// Resolve the trace ops against a live-id list, returning the concrete
/// mutation stream a writer would apply (insert ids are `base + #prior
/// inserts` because deletes are tombstones and nothing compacts).
fn resolve_ops(t: &Trace) -> Vec<Applied> {
    let mut live: Vec<u32> = (0..t.rows.len() as u32).collect();
    let mut next_id = t.rows.len() as u32;
    let mut applied = Vec::new();
    for op in &t.ops {
        match op {
            Op::Insert(row) => {
                live.push(next_id);
                next_id += 1;
                applied.push(Applied::Insert(row.clone()));
            }
            Op::Update(pick, row) if !live.is_empty() => {
                let id = live[*pick as usize % live.len()];
                applied.push(Applied::Update(id, row.clone()));
            }
            Op::Delete(pick) if !live.is_empty() => {
                let slot = *pick as usize % live.len();
                let id = live.remove(slot);
                applied.push(Applied::Delete(id));
            }
            _ => {}
        }
    }
    applied
}

fn apply_one(set: &mut ShardedIndexSet<VecStore>, a: &Applied) {
    match a {
        Applied::Insert(row) => {
            set.insert_point(row).unwrap();
        }
        Applied::Update(id, row) => set.update_point(*id, row).unwrap(),
        Applied::Delete(id) => set.delete_point(*id).unwrap(),
    }
}

/// Serial-prefix oracle: the base set with the first `prefix` mutations
/// applied — what epoch `1 + prefix` (publish cadence 1) must answer.
fn oracle_prefix(t: &Trace, applied: &[Applied], prefix: usize) -> ShardedIndexSet<VecStore> {
    let mut set = build(t);
    for a in &applied[..prefix] {
        apply_one(&mut set, a);
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshot isolation, deterministically interleaved: pin a snapshot
    /// before every mutation, apply the whole trace, then demand each pin
    /// still answers exactly as the serial twin did at pin time — i.e. no
    /// pin ever observed a later epoch's mutation.
    #[test]
    fn pinned_epochs_never_observe_later_mutations(t in trace()) {
        let queries = probe_queries(&t);
        let applied = resolve_ops(&t);
        let conc = ConcurrentShardedIndexSet::new(build(&t), ConcurrencyConfig::default());
        let mut twin = build(&t);

        let mut pins = Vec::with_capacity(applied.len() + 1);
        for a in &applied {
            // Record the pin and the serial twin's answers at pin time.
            pins.push((conc.snapshot(), answers(&twin, &queries)));
            match a {
                Applied::Insert(row) => {
                    prop_assert_eq!(
                        conc.insert_point(row).unwrap(),
                        twin.insert_point(row).unwrap()
                    );
                }
                Applied::Update(id, row) => {
                    conc.update_point(*id, row).unwrap();
                    twin.update_point(*id, row).unwrap();
                }
                Applied::Delete(id) => {
                    conc.delete_point(*id).unwrap();
                    twin.delete_point(*id).unwrap();
                }
            }
        }
        pins.push((conc.snapshot(), answers(&twin, &queries)));

        // Every pin answers as of its own epoch, not the final state.
        for (i, (snap, frozen)) in pins.iter().enumerate() {
            prop_assert_eq!(snap.epoch(), 1 + i as u64, "publish cadence 1: one epoch per mutation");
            prop_assert_eq!(&answers(snap, &queries), frozen, "pin {} drifted", i);
        }
        // And the grace-period ledger balances: dropping all pins lets
        // every retired epoch be reclaimed.
        drop(pins);
        conc.reclaim();
        let stats = conc.epoch_stats();
        prop_assert_eq!(stats.retired_live, 0);
        prop_assert_eq!(stats.reclaimed, stats.published);
    }

    /// Concurrent reads ≡ serialized execution: readers race a live writer
    /// and log `(epoch, answers)` observations; a serial replay of the
    /// mutation stream must reproduce every observation bit-identically.
    #[test]
    fn concurrent_reads_match_serialized_replay(t in trace()) {
        let queries = probe_queries(&t);
        let applied = resolve_ops(&t);
        let conc = ConcurrentShardedIndexSet::new(build(&t), ConcurrencyConfig::default());
        let stop = AtomicBool::new(false);

        let mut observations: Vec<Vec<(u64, Vec<Vec<u32>>)>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..2 {
                handles.push(s.spawn(|| {
                    let mut seen = Vec::new();
                    let mut last_epoch = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = conc.snapshot();
                        // Epochs are monotone from any single reader's view.
                        assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                        last_epoch = snap.epoch();
                        seen.push((snap.epoch(), answers(&snap, &queries)));
                    }
                    seen
                }));
            }
            for a in &applied {
                match a {
                    Applied::Insert(row) => {
                        conc.insert_point(row).unwrap();
                    }
                    Applied::Update(id, row) => conc.update_point(*id, row).unwrap(),
                    Applied::Delete(id) => conc.delete_point(*id).unwrap(),
                }
            }
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                observations.push(h.join().unwrap());
            }
        });

        // Serialized replay: epoch e == base + first (e − 1) mutations.
        // Build each prefix oracle once, lazily.
        let mut oracles: Vec<Option<Vec<Vec<u32>>>> = vec![None; applied.len() + 1];
        for seen in &observations {
            for (epoch, got) in seen {
                let prefix = (*epoch - 1) as usize;
                prop_assert!(prefix <= applied.len(), "epoch beyond the mutation stream");
                let want = oracles[prefix].get_or_insert_with(|| {
                    answers(&oracle_prefix(&t, &applied, prefix), &queries)
                });
                prop_assert_eq!(got, want, "epoch {} diverged from serial replay", epoch);
            }
        }
    }
}

/// Run the trace through a group-committing durable set with a WAL fault
/// armed at append `nth`, and return `(acked, attempted)` — the count of
/// acknowledged mutations and the full enqueued stream (acked prefix plus,
/// possibly, the faulted mutation).
fn run_with_fault(
    dir: &std::path::Path,
    t: &Trace,
    applied: &[Applied],
    nth: u64,
    kind: WalFaultKind,
) -> (usize, usize) {
    arm_wal_fault(nth, kind);
    let conc = ConcurrentDurableShardedIndexSet::create(
        dir,
        build(t),
        WalOptions::default(), // Always: an Ok return promises durability
        ConcurrencyConfig::default(),
    )
    .unwrap();
    let mut acked = 0usize;
    let mut attempted = 0usize;
    for a in applied {
        let res = match a {
            Applied::Insert(row) => conc.insert_point(row).map(|_| ()),
            Applied::Update(id, row) => conc.update_point(*id, row),
            Applied::Delete(id) => conc.delete_point(*id),
        };
        attempted += 1;
        match res {
            Ok(()) => acked += 1,
            // First error is the faulted mutation itself: it was enqueued
            // (and possibly hit the disk) but never acknowledged. The
            // queue fail-stops, so nothing later is enqueued.
            Err(_) => break,
        }
    }
    disarm_wal_fault();
    drop(conc); // the "kill": best-effort drop flush fails fail-stop-clean
    (acked, attempted)
}

/// One crash-sweep case: recovery must (a) not hard-error, (b) recover a
/// clean prefix at least `acked` long — **no acknowledged mutation is ever
/// lost** — and (c) answer bit-identically to that prefix's serial oracle.
fn check_crash_case(t: &Trace, nth: u64, kind: WalFaultKind) {
    let _guard = WAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tmp = TempDir::new("conc-crash-sweep").unwrap();
    let dir = tmp.path().join("idx");
    let applied = resolve_ops(t);
    let (acked, attempted) = run_with_fault(&dir, t, &applied, nth, kind);

    let (recovered, report) = ConcurrentDurableShardedIndexSet::<VecStore>::open(
        &dir,
        WalOptions::default(),
        ConcurrencyConfig::default(),
    )
    .unwrap();
    let replayed = report.wal_replayed;
    assert!(
        replayed >= acked,
        "ack-then-lose: {acked} mutations acknowledged, only {replayed} recovered ({kind:?} at {nth})"
    );
    assert!(
        replayed <= attempted,
        "recovery invented mutations: {replayed} > {attempted} attempted"
    );
    let queries = probe_queries(t);
    let oracle = oracle_prefix(t, &applied, replayed);
    let snap = recovered.snapshot();
    assert_eq!(
        answers(&snap, &queries),
        answers(&oracle, &queries),
        "recovered state diverged from the serial prefix oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Group-commit crash sweep: for every mutation position and every
    /// fault flavor (append fails; append tears mid-frame; writer dies
    /// right after the append — the "between ack and fsync" window),
    /// acknowledged mutations must always be recoverable.
    #[test]
    fn group_commit_never_acks_then_loses(t in trace(), torn_keep in 0usize..12) {
        let count = resolve_ops(&t).len() as u64;
        for nth in 0..count {
            check_crash_case(&t, nth, WalFaultKind::FailAppend);
            check_crash_case(&t, nth, WalFaultKind::TornAppend { keep: torn_keep });
            check_crash_case(&t, nth, WalFaultKind::CrashAfterAppend);
        }
        // And the no-fault control arm: everything acks, everything recovers.
        check_crash_case(&t, count + 1, WalFaultKind::FailAppend);
    }
}

/// Deterministic ack-lag convergence for the group-committing wrapper:
/// under a lazy policy the acked watermark trails appends, and `sync()`
/// (or a forced flush) converges the two — the observable contract the
/// `WalHealth::{appended_lsn, acked_lsn}` split exists for.
#[test]
fn acked_and_appended_converge_after_sync() {
    let _guard = WAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tmp = TempDir::new("conc-acklag").unwrap();
    let t = Trace {
        dim: 2,
        rows: vec![vec![1.0, 2.0], vec![3.0, 1.0], vec![2.0, 2.0]],
        ops: Vec::new(),
        probes: vec![(vec![1.0, 1.0], 8.0)],
        budget: 2,
    };
    let conc = ConcurrentDurableShardedIndexSet::create(
        tmp.path(),
        build(&t),
        WalOptions::default().fsync(planar_core::FsyncPolicy::EveryN(64)),
        ConcurrencyConfig::default(),
    )
    .unwrap();
    for i in 0..9 {
        conc.insert_point(&[1.0 + i as f64, 2.0]).unwrap();
    }
    let h = conc.wal_health();
    assert_eq!(h.appended_lsn, 9);
    assert!(
        h.ack_lag() > 0,
        "EveryN(64) must be lagging after 9 records"
    );
    conc.sync().unwrap();
    let h = conc.wal_health();
    assert_eq!(h.acked_lsn, h.appended_lsn);
    assert_eq!(h.ack_lag(), 0);
}
