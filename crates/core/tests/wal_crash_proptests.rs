//! Crash-point sweep over the write-ahead log: a durable set is mutated,
//! the process "dies" (the on-disk WAL is truncated or bit-flipped at a
//! proptest-chosen point), and recovery must answer bit-identically to a
//! twin that only ever saw the durable prefix of the mutation stream.
//! Recovery is never allowed to hard-error on a damaged tail. The sweeps
//! run on a one-shard durable engine, so the whole log is
//! `wal/shard-0000/`.
//!
//! Also: the sharded durability round trip — `FsyncPolicy::EveryN(8)`,
//! kill without checkpoint, recover, and the answers must match a
//! never-crashed twin for every key store.

use std::fs;
use std::path::{Path, PathBuf};

use planar_core::{
    BPlusTree, Cmp, ConcurrencyConfig, ConcurrentDurableShardedIndexSet, Corruption,
    EytzingerStore, FeatureTable, FsyncPolicy, IndexConfig, InequalityQuery, KeyStore,
    ParameterDomain, ShardConfig, ShardedIndexSet, ShardedRecoveryReport, TempDir, TopKQuery,
    VecStore, WalOptions,
};
use proptest::prelude::*;

/// `payload_len u32 | lsn u64 | tag u8` — must track `core::wal`'s frame
/// header so the sweep can compute frame boundaries from the trace alone
/// (the encoder is private by design).
const FRAME_HEADER: usize = 4 + 8 + 1;
const FRAME_OVERHEAD: usize = FRAME_HEADER + 8;
/// `PLNRWAL2` magic + term u64 — the v2 segment header length.
const SEGMENT_MAGIC_LEN: usize = 16;
/// Tombstone-fraction threshold of every logged compaction.
const COMPACT_THRESHOLD: f64 = 0.0;

/// One step of a mutation trace. `pick` indexes the live-id list modulo
/// its length, so traces are valid by construction.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<f64>),
    Update(u16, Vec<f64>),
    Delete(u16),
    Compact,
}

/// A mutation as it was actually applied (picks resolved to ids), i.e.
/// exactly what the WAL frame for it says. Replaying a prefix of these
/// onto a fresh base set reconstructs the durable-prefix oracle.
#[derive(Debug, Clone)]
enum Applied {
    Insert(Vec<f64>),
    Update(u32, Vec<f64>),
    Delete(u32),
    Compact,
}

fn frame_len(a: &Applied, dim: usize) -> usize {
    FRAME_OVERHEAD
        + match a {
            Applied::Insert(_) | Applied::Update(_, _) => 8 + 8 * dim,
            Applied::Delete(_) => 4,
            // Threshold compact: a "threshold present" byte + the f64.
            Applied::Compact => 9,
        }
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
            4 => row.clone().prop_map(Op::Insert),
            3 => (any::<u16>(), row.clone()).prop_map(|(pick, r)| Op::Update(pick, r)),
            3 => any::<u16>().prop_map(Op::Delete),
            1 => Just(Op::Compact),
        ];
        (
            Just(dim),
            // At least 3 rows so every round-robin shard starts non-empty.
            prop::collection::vec(row, 3..16),
            prop::collection::vec(op, 1..16),
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

fn build_sharded<S: KeyStore + Send>(t: &Trace, shards: usize) -> ShardedIndexSet<S> {
    let table = FeatureTable::from_rows(t.dim, t.rows.clone()).unwrap();
    let domain = ParameterDomain::uniform_continuous(t.dim, 0.1, 10.0).unwrap();
    ShardedIndexSet::build(
        table,
        domain,
        IndexConfig::with_budget(t.budget),
        ShardConfig::round_robin(shards),
    )
    .unwrap()
}

fn create<S: KeyStore + Clone + Send>(
    dir: &Path,
    set: ShardedIndexSet<S>,
    opts: WalOptions,
) -> ConcurrentDurableShardedIndexSet<S> {
    ConcurrentDurableShardedIndexSet::create(dir, set, opts, ConcurrencyConfig::default()).unwrap()
}

fn open<S: KeyStore + Clone + Send>(
    dir: &Path,
    opts: WalOptions,
) -> (ConcurrentDurableShardedIndexSet<S>, ShardedRecoveryReport) {
    ConcurrentDurableShardedIndexSet::open(dir, opts, ConcurrencyConfig::default()).unwrap()
}

/// Run the trace through a one-shard durable set, returning the resolved
/// mutations in WAL order. Compaction keeps global ids, so the live list
/// only changes on insert/delete.
fn apply_trace(durable: &ConcurrentDurableShardedIndexSet<VecStore>, t: &Trace) -> Vec<Applied> {
    let mut live: Vec<u32> = (0..t.rows.len() as u32).collect();
    let mut applied = Vec::new();
    for op in &t.ops {
        match op {
            Op::Insert(row) => {
                let id = durable.insert_point(row).unwrap();
                live.push(id);
                applied.push(Applied::Insert(row.clone()));
            }
            Op::Update(pick, row) if !live.is_empty() => {
                let id = live[*pick as usize % live.len()];
                durable.update_point(id, row).unwrap();
                applied.push(Applied::Update(id, row.clone()));
            }
            Op::Delete(pick) if !live.is_empty() => {
                let slot = *pick as usize % live.len();
                let id = live.remove(slot);
                durable.delete_point(id).unwrap();
                applied.push(Applied::Delete(id));
            }
            Op::Compact => {
                durable.compact(COMPACT_THRESHOLD).unwrap();
                applied.push(Applied::Compact);
            }
            _ => {}
        }
    }
    applied
}

/// The durable-prefix oracle: a fresh base set with the first `prefix`
/// resolved mutations applied — exactly the state a crash at that frame
/// boundary must recover to.
fn oracle_prefix(t: &Trace, prefix: &[Applied]) -> ShardedIndexSet<VecStore> {
    let mut set = build_sharded::<VecStore>(t, 1);
    for a in prefix {
        match a {
            Applied::Insert(row) => {
                set.insert_point(row).unwrap();
            }
            Applied::Update(id, row) => set.update_point(*id, row).unwrap(),
            Applied::Delete(id) => set.delete_point(*id).unwrap(),
            Applied::Compact => {
                set.compact(COMPACT_THRESHOLD);
            }
        }
    }
    set
}

/// The single WAL segment under `dir/wal/shard-0000/`. Traces here are
/// far below the rotation threshold, so exactly one segment must exist.
fn only_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir.join("wal").join("shard-0000"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    assert_eq!(segs.len(), 1, "expected a single WAL segment");
    segs.pop().unwrap()
}

fn check_answers(got: &ShardedIndexSet<VecStore>, want: &ShardedIndexSet<VecStore>, t: &Trace) {
    for (coeffs, b) in &t.probes {
        let q = InequalityQuery::new(coeffs.clone(), Cmp::Leq, *b).unwrap();
        assert_eq!(
            got.query(&q).unwrap().sorted_ids(),
            want.query(&q).unwrap().sorted_ids()
        );
        let tk = TopKQuery::new(q, 3).unwrap();
        assert_eq!(
            got.top_k(&tk).unwrap().neighbors,
            want.top_k(&tk).unwrap().neighbors
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-point sweep: for *every* frame boundary `j` (optionally plus
    /// a partial slice of frame `j` itself, the torn-tail case), truncate
    /// the log there, recover, and demand (a) no hard error, (b) replay
    /// provenance equal to the durable prefix length, (c) answers
    /// bit-identical to the prefix oracle.
    #[test]
    fn truncation_sweep_recovers_the_durable_prefix(t in trace(), partial in 0usize..24) {
        let tmp = TempDir::new("wal-crash-sweep").unwrap();
        let dir = tmp.path().join("idx");
        let durable = create(&dir, build_sharded::<VecStore>(&t, 1), WalOptions::default());
        let applied = apply_trace(&durable, &t);
        drop(durable);

        let seg = only_segment(&dir);
        let original = fs::read(&seg).unwrap();
        let mut bounds = vec![SEGMENT_MAGIC_LEN];
        for a in &applied {
            bounds.push(bounds.last().unwrap() + frame_len(a, t.dim));
        }
        // The boundary model must match the real encoder exactly, or the
        // whole sweep is cutting at the wrong offsets.
        prop_assert_eq!(*bounds.last().unwrap(), original.len());

        for j in 0..=applied.len() {
            let mut cut = bounds[j];
            if j < applied.len() {
                // Land inside frame j: strictly past its start, strictly
                // before its end, so the tail is torn, not clean.
                cut += partial.min(frame_len(&applied[j], t.dim) - 1);
            }
            let mut bytes = original.clone();
            Corruption::TruncateAt(cut).apply(&mut bytes);
            fs::write(&seg, &bytes).unwrap();

            let (recovered, report) = open::<VecStore>(&dir, WalOptions::default());
            prop_assert_eq!(report.wal_replayed, j);
            prop_assert_eq!(report.wal_dropped, 0);
            prop_assert_eq!(report.wal_torn_bytes, cut - bounds[j]);
            check_answers(&recovered.snapshot(), &oracle_prefix(&t, &applied[..j]), &t);
        }
    }

    /// A bit flip anywhere inside frame `f` invalidates that frame's CRC;
    /// recovery must keep the first `f` mutations, drop the rest, and
    /// never hard-error.
    #[test]
    fn bit_flips_truncate_at_the_corrupted_frame(
        t in trace(),
        frame_pick in any::<u16>(),
        byte_pick in any::<u16>(),
        bit in 0u8..8,
    ) {
        let tmp = TempDir::new("wal-crash-flip").unwrap();
        let dir = tmp.path().join("idx");
        let durable = create(&dir, build_sharded::<VecStore>(&t, 1), WalOptions::default());
        let applied = apply_trace(&durable, &t);
        drop(durable);
        if applied.is_empty() {
            // Every pick missed (empty live list); nothing to corrupt.
            continue;
        }

        let seg = only_segment(&dir);
        let mut bytes = fs::read(&seg).unwrap();
        let mut bounds = vec![SEGMENT_MAGIC_LEN];
        for a in &applied {
            bounds.push(bounds.last().unwrap() + frame_len(a, t.dim));
        }
        let f = frame_pick as usize % applied.len();
        let offset = bounds[f] + byte_pick as usize % frame_len(&applied[f], t.dim);
        Corruption::BitFlip { offset, bit }.apply(&mut bytes);
        fs::write(&seg, &bytes).unwrap();

        let (recovered, report) = open::<VecStore>(&dir, WalOptions::default());
        prop_assert_eq!(report.wal_replayed, f);
        // Frames past the flip are lost one way or the other (dropped
        // whole frames and/or torn bytes) — but never silently replayed.
        prop_assert!(report.wal_dropped + report.wal_torn_bytes > 0);
        check_answers(&recovered.snapshot(), &oracle_prefix(&t, &applied[..f]), &t);
    }
}

/// Sharded durability round trip: mutate a durable
/// sharded set under `FsyncPolicy::EveryN(8)`, kill it without a
/// checkpoint, recover, and compare every probe answer against a
/// never-crashed in-memory twin. The unsynced tail survives a process
/// kill (the OS still has the writes), so recovery must replay *all* of
/// it.
fn sharded_kill_recover_roundtrip<S: KeyStore + Clone + Send>(t: &Trace) {
    let tmp = TempDir::new("wal-shard-roundtrip").unwrap();
    let dir = tmp.path().join("idx");
    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(8));
    let durable = create(&dir, build_sharded::<S>(t, 3), opts);
    let mut twin = build_sharded::<S>(t, 3);

    // Sharded compaction preserves global ids, so the live list only
    // changes on insert/delete.
    let mut live: Vec<u32> = (0..t.rows.len() as u32).collect();
    let mut mutations = 0usize;
    for op in &t.ops {
        match op {
            Op::Insert(row) => {
                let id = durable.insert_point(row).unwrap();
                assert_eq!(id, twin.insert_point(row).unwrap());
                live.push(id);
                mutations += 1;
            }
            Op::Update(pick, row) if !live.is_empty() => {
                let id = live[*pick as usize % live.len()];
                durable.update_point(id, row).unwrap();
                twin.update_point(id, row).unwrap();
                mutations += 1;
            }
            Op::Delete(pick) if !live.is_empty() => {
                let slot = *pick as usize % live.len();
                let id = live.remove(slot);
                durable.delete_point(id).unwrap();
                twin.delete_point(id).unwrap();
                mutations += 1;
            }
            Op::Compact => {
                // One broadcast record per shard WAL, sharing one LSN.
                durable.compact(0.0).unwrap();
                twin.compact(0.0);
                mutations += 1;
            }
            _ => {}
        }
    }

    drop(durable); // kill: no checkpoint, unsynced tail left behind
    let (recovered, report) = open::<S>(&dir, opts);
    let recovered = recovered.snapshot();
    // Broadcast Compact lands once per shard (3 shards here).
    let expect_replayed = mutations + t.ops.iter().filter(|o| matches!(o, Op::Compact)).count() * 2;
    assert_eq!(report.wal_replayed, expect_replayed);
    assert_eq!(report.wal_dropped, 0);
    assert_eq!(report.wal_torn_bytes, 0);
    assert_eq!(recovered.len(), twin.len());

    for (coeffs, b) in &t.probes {
        let q = InequalityQuery::new(coeffs.clone(), Cmp::Leq, *b).unwrap();
        assert_eq!(
            recovered.query(&q).unwrap().sorted_ids(),
            twin.query(&q).unwrap().sorted_ids()
        );
        let tk = TopKQuery::new(q, 3).unwrap();
        assert_eq!(
            recovered.top_k(&tk).unwrap().neighbors,
            twin.top_k(&tk).unwrap().neighbors
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_roundtrip_vec_store(t in trace()) {
        sharded_kill_recover_roundtrip::<VecStore>(&t);
    }

    #[test]
    fn sharded_roundtrip_bplus_tree(t in trace()) {
        sharded_kill_recover_roundtrip::<BPlusTree>(&t);
    }

    #[test]
    fn sharded_roundtrip_eytzinger(t in trace()) {
        sharded_kill_recover_roundtrip::<EytzingerStore>(&t);
    }
}
