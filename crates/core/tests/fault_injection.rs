//! Fault-injection properties for the crash-safe snapshot path and the
//! quarantine-and-degrade query path.
//!
//! The contracts under test:
//!
//! 1. **No panic on corrupt input**: `from_bytes` / `from_bytes_recover`
//!    return a typed error (or quarantine) for *any* mangled byte stream —
//!    bit flips, truncations, zeroed ranges — never a panic or an
//!    out-of-memory allocation from attacker-controlled lengths.
//! 2. **Crash safety**: a save that dies mid-write (before the atomic
//!    rename) leaves the previous snapshot loadable and bit-exact.
//! 3. **Recovery exactness**: whatever `load_or_recover` salvages answers
//!    queries identically to a fresh scan — quarantined indices are routed
//!    around, and a fully-quarantined set degrades to the exact scan with
//!    `ServedBy::Degraded` provenance.
//! 4. **Panic isolation**: a query that panics inside a batch surfaces as
//!    a per-query `PlanarError::Internal`, even across worker threads.

use planar_core::fault::{Corruption, FaultyIo, IoFault, StdIo, TempDir};
use planar_core::{
    Domain, ExecutionConfig, FeatureTable, IndexConfig, InequalityQuery, ParameterDomain,
    PlanarError, PlanarIndexSet, SaveOptions, ServedBy, ShardConfig, ShardedIndexSet, VecStore,
};
use proptest::prelude::*;
use std::time::Duration;

/// A generated snapshot scenario: positive-octant data plus probe queries.
#[derive(Debug, Clone)]
struct Scenario {
    dim: usize,
    rows: Vec<Vec<f64>>,
    queries: Vec<(Vec<f64>, f64)>,
    budget: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1..=4usize).prop_flat_map(|dim| {
        (
            Just(dim),
            prop::collection::vec(prop::collection::vec(0.1..50.0_f64, dim), 1..40),
            prop::collection::vec(
                (prop::collection::vec(0.1..10.0_f64, dim), -100.0..200.0_f64),
                1..4,
            ),
            1..5usize,
        )
            .prop_map(|(dim, rows, queries, budget)| Scenario {
                dim,
                rows,
                queries,
                budget,
            })
    })
}

fn build(s: &Scenario) -> PlanarIndexSet {
    let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
    let domain =
        ParameterDomain::new(vec![Domain::Continuous { lo: 0.1, hi: 10.0 }; s.dim]).unwrap();
    PlanarIndexSet::build(table, domain, IndexConfig::with_budget(s.budget)).unwrap()
}

/// The scenario's rows in `shards` shards — pilot-key ranges when `range`
/// holds and the keys give every shard a row, round-robin otherwise —
/// with the first quarter of the ids deleted and compacted away, so the
/// snapshot carries dropped ids as well as tombstones.
fn build_sharded(s: &Scenario, shards: usize, range: bool) -> ShardedIndexSet {
    let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
    let domain =
        ParameterDomain::new(vec![Domain::Continuous { lo: 0.1, hi: 10.0 }; s.dim]).unwrap();
    let shards = shards.min(s.rows.len());
    let build = |config| {
        ShardedIndexSet::build(
            table.clone(),
            domain.clone(),
            IndexConfig::with_budget(s.budget),
            config,
        )
    };
    let built = if range {
        build(ShardConfig::pilot_key_range(shards)).ok()
    } else {
        None
    };
    let mut set = built.unwrap_or_else(|| build(ShardConfig::round_robin(shards)).unwrap());
    for id in 0..s.rows.len() / 4 {
        set.delete_point(id as u32).unwrap();
    }
    set.compact(0.0);
    set.delete_point(s.rows.len() as u32 - 1).unwrap();
    set
}

fn probe_queries(s: &Scenario) -> Vec<InequalityQuery> {
    s.queries
        .iter()
        .map(|(a, b)| InequalityQuery::leq(a.clone(), *b).unwrap())
        .collect()
}

/// Answers from the set for every probe query, via the normal path.
fn answers(set: &PlanarIndexSet, qs: &[InequalityQuery]) -> Vec<Vec<u32>> {
    qs.iter()
        .map(|q| set.query(q).unwrap().sorted_ids())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract 1: arbitrary single-site corruption never panics the
    /// loaders, and whatever `from_bytes_recover` salvages stays exact.
    #[test]
    fn corrupted_snapshots_never_panic_and_recovery_stays_exact(
        s in scenario(),
        kind in 0..3u8,
        offset_seed in any::<u64>(),
        bit in 0..8u8,
        len_seed in 0..64usize,
    ) {
        let set = build(&s);
        let qs = probe_queries(&s);
        let want = answers(&set, &qs);

        let mut bytes = set.to_bytes().to_vec();
        let offset = (offset_seed as usize) % bytes.len();
        let corruption = match kind {
            0 => Corruption::BitFlip { offset, bit: bit % 8 },
            1 => Corruption::TruncateAt(offset),
            _ => Corruption::ZeroRange { offset, len: len_seed },
        };
        corruption.apply(&mut bytes);

        // Strict load: Ok (corruption hit padding-equivalent bits, e.g.
        // flipping a NaN payload the comparison canonicalizes) or a typed
        // error — but never a panic.
        let _ = PlanarIndexSet::<VecStore>::from_bytes(&bytes);

        // Recovering load: if anything is salvaged, answers stay exact.
        if let Ok((recovered, report)) = PlanarIndexSet::<VecStore>::from_bytes_recover(&bytes) {
            prop_assert_eq!(report.total_indices, set.num_indices());
            let mut rebuilt = recovered;
            rebuilt.rebuild_quarantined();
            prop_assert_eq!(answers(&rebuilt, &qs), want);
        }
    }

    /// Contract 1 for the sharded manifest: arbitrary single-site
    /// corruption of a `ShardedIndexSet` snapshot never panics either
    /// loader, and whatever `from_bytes_recover` salvages answers exactly
    /// like the writer.
    #[test]
    fn corrupted_sharded_snapshots_never_panic_and_recovery_stays_exact(
        s in scenario(),
        shards in 1..4usize,
        range in any::<bool>(),
        kind in 0..3u8,
        offset_seed in any::<u64>(),
        bit in 0..8u8,
        len_seed in 0..64usize,
    ) {
        let set = build_sharded(&s, shards, range);
        let qs = probe_queries(&s);
        let want: Vec<_> = qs.iter().map(|q| set.query(q).unwrap().matches).collect();

        let mut bytes = set.to_bytes().to_vec();
        let offset = (offset_seed as usize) % bytes.len();
        let corruption = match kind {
            0 => Corruption::BitFlip { offset, bit },
            1 => Corruption::TruncateAt(offset),
            _ => Corruption::ZeroRange { offset, len: len_seed },
        };
        corruption.apply(&mut bytes);

        let _ = ShardedIndexSet::<VecStore>::from_bytes(&bytes);
        if let Ok((recovered, report)) = ShardedIndexSet::<VecStore>::from_bytes_recover(&bytes) {
            prop_assert_eq!(report.shards.len(), set.num_shards());
            let mut rebuilt = recovered;
            rebuilt.rebuild_quarantined();
            let got: Vec<_> = qs.iter().map(|q| rebuilt.query(q).unwrap().matches).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Contract 1, crafted-length variant: an arbitrary 64-bit `core_len`
    /// stamped into the preamble — a window single-bit flips of a small
    /// real length can never reach (e.g. values near `usize::MAX`, where
    /// naive `core_end + 8` arithmetic would wrap) — still yields Ok or a
    /// typed error from both loaders, never a panic.
    #[test]
    fn crafted_core_len_never_panics(s in scenario(), core_len in any::<u64>()) {
        let set = build(&s);
        let mut bytes = set.to_bytes().to_vec();
        // Preamble layout: magic [0..8) | flags [8..12) | core_len [12..20).
        bytes[12..20].copy_from_slice(&core_len.to_le_bytes());
        let _ = PlanarIndexSet::<VecStore>::from_bytes(&bytes);
        let _ = PlanarIndexSet::<VecStore>::from_bytes_recover(&bytes);
    }

    /// Contract 2: a crash at any chunk boundary mid-save leaves the
    /// previous snapshot loadable and bit-identical in its answers.
    #[test]
    fn crash_mid_save_leaves_previous_snapshot_loadable(
        s in scenario(),
        crash_after in 0..6u64,
    ) {
        let dir = TempDir::new("crash-midsave").unwrap();
        let path = dir.file("snapshot.plnr");

        let mut set = build(&s);
        let qs = probe_queries(&s);
        let old_answers = answers(&set, &qs);
        set.save_to(&path).unwrap();

        // Mutate, then attempt a save that crashes after `crash_after`
        // 4 KiB chunks (possibly before any byte lands).
        set.insert_point(&vec![1.0; s.dim]).unwrap();
        let new_answers = answers(&set, &qs);
        let mut io = FaultyIo::new(vec![IoFault::CrashAfterWrites(crash_after)]);
        let result = set.save_to_with(&path, &mut io, &SaveOptions::fail_fast());

        let (loaded, report) = PlanarIndexSet::<VecStore>::load_or_recover(&path).unwrap();
        prop_assert!(report.is_clean(), "crash must not corrupt the target: {report:?}");
        let got = answers(&loaded, &qs);
        if result.is_ok() {
            // Crash budget exceeded the file size: the save completed.
            prop_assert_eq!(got, new_answers);
        } else {
            // The rename never happened: the old snapshot is untouched.
            prop_assert!(io.is_crashed());
            prop_assert_eq!(got, old_answers);
        }
    }

    /// Transient write failures within the retry budget are invisible to
    /// callers: the save lands and loads back exactly.
    #[test]
    fn save_retries_past_transient_failures(s in scenario(), fail_nth in 0..3u64) {
        let dir = TempDir::new("transient-save").unwrap();
        let path = dir.file("snapshot.plnr");
        let set = build(&s);
        let qs = probe_queries(&s);

        let mut io = FaultyIo::new(vec![IoFault::FailNthWrite(fail_nth)]);
        let opts = SaveOptions::default().retries(3).backoff(Duration::from_millis(1));
        set.save_to_with(&path, &mut io, &opts).unwrap();

        let loaded = PlanarIndexSet::<VecStore>::load_from(&path).unwrap();
        prop_assert_eq!(answers(&loaded, &qs), answers(&set, &qs));
    }

    /// Contract 3: with every index quarantined the set still answers every
    /// query exactly, flagged as degraded service.
    #[test]
    fn fully_quarantined_set_serves_exact_degraded_answers(s in scenario()) {
        let mut set = build(&s);
        let qs = probe_queries(&s);
        let want: Vec<Vec<u32>> = qs
            .iter()
            .map(|q| set.query_scan(q).unwrap().sorted_ids())
            .collect();

        for pos in 0..set.num_indices() {
            set.quarantine(pos);
        }
        for (q, want_ids) in qs.iter().zip(&want) {
            let out = set.query(q).unwrap();
            prop_assert_eq!(out.served_by, ServedBy::Degraded);
            prop_assert_eq!(out.sorted_ids(), want_ids.clone());
        }

        // Rebuilding restores indexed service with identical answers.
        let rebuilt = set.rebuild_quarantined();
        prop_assert_eq!(rebuilt.len(), set.num_indices());
        for (q, want_ids) in qs.iter().zip(&want) {
            let out = set.query(q).unwrap();
            prop_assert!(!out.served_by.is_degraded());
            prop_assert_eq!(out.sorted_ids(), want_ids.clone());
        }
    }
}

/// Contract 4: a poisoned query inside a multi-threaded batch surfaces as
/// `PlanarError::Internal` in its own slot; sibling queries on the same and
/// other worker threads still answer.
#[test]
fn worker_panic_is_isolated_per_query() {
    let rows: Vec<Vec<f64>> = (1..=64).map(|i| vec![i as f64, (65 - i) as f64]).collect();
    let table = FeatureTable::from_rows(2, rows).unwrap();
    let domain = ParameterDomain::new(vec![Domain::Continuous { lo: 0.1, hi: 10.0 }; 2]).unwrap();
    let set: PlanarIndexSet =
        PlanarIndexSet::build(table, domain, IndexConfig::with_budget(3)).unwrap();

    let poison_b = 77.125_488_3;
    let qs: Vec<InequalityQuery> = (0..16)
        .map(|i| {
            let b = if i == 5 { poison_b } else { 10.0 + i as f64 };
            InequalityQuery::leq(vec![1.0, 1.0], b).unwrap()
        })
        .collect();

    planar_core::fault::arm_query_panic(poison_b);
    let results = set.query_batch_isolated(&qs, &ExecutionConfig::with_threads(4));
    planar_core::fault::disarm_query_panic();

    assert_eq!(results.len(), qs.len());
    for (i, r) in results.iter().enumerate() {
        if i == 5 {
            assert!(matches!(r, Err(PlanarError::Internal(_))), "slot 5: {r:?}");
        } else {
            let out = r.as_ref().expect("healthy query must answer");
            assert_eq!(out.sorted_ids(), set.query(&qs[i]).unwrap().sorted_ids());
        }
    }
}

/// The injectable IO layer and the real one agree: a fault-free `FaultyIo`
/// round-trips exactly like `StdIo`.
#[test]
fn faultless_io_matches_std_io() {
    let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
    let table = FeatureTable::from_rows(2, rows).unwrap();
    let domain = ParameterDomain::new(vec![Domain::Continuous { lo: 0.1, hi: 10.0 }; 2]).unwrap();
    let set: PlanarIndexSet =
        PlanarIndexSet::build(table, domain, IndexConfig::with_budget(2)).unwrap();

    let dir = TempDir::new("faultless-io").unwrap();
    let std_path = dir.file("std.plnr");
    let faulty_path = dir.file("faulty.plnr");

    set.save_to_with(&std_path, &mut StdIo, &SaveOptions::fail_fast())
        .unwrap();
    let mut io = FaultyIo::new(Vec::new());
    set.save_to_with(&faulty_path, &mut io, &SaveOptions::fail_fast())
        .unwrap();
    assert!(io.fired().is_empty());

    let a = std::fs::read(&std_path).unwrap();
    let b = std::fs::read(&faulty_path).unwrap();
    assert_eq!(a, b, "fault-free FaultyIo must write identical bytes");
}
