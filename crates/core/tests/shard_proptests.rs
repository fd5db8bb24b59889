//! Property tests for the sharded execution engine: for arbitrary data,
//! queries, shard counts, partitioners, and thread counts, a
//! [`ShardedIndexSet`] must answer exactly what the monolithic
//! [`PlanarIndexSet`] answers — same id sets for inequality queries, the
//! same bit-identical neighbor lists for top-k — through interleaved mutations, per-shard quarantine masks,
//! compaction, and a serialization roundtrip.

use planar_core::StatsAggregator;
use planar_core::{
    Cmp, Domain, ExecutionConfig, FeatureTable, IndexConfig, InequalityQuery, KeyStore,
    ParameterDomain, PartitionScheme, PlanarError, PlanarIndexSet, ShardConfig, ShardedIndexSet,
    TopKQuery, VecStore,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    dim: usize,
    rows: Vec<Vec<f64>>,
    signs: Vec<bool>,
    queries: Vec<(Vec<f64>, f64, Cmp)>,
    budget: usize,
    shards: usize,
    scheme: PartitionScheme,
    threads: usize,
    k: usize,
    /// Interleaved mutations: `(op % 4, id seed, row)` — 0/1 insert,
    /// 2 update, 3 delete.
    ops: Vec<(u8, u16, Vec<f64>)>,
    /// Quarantine mask seeds: `(shard seed, index position seed)`.
    quarantine: Vec<(u8, u8)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1..=3usize)
        .prop_flat_map(|dim| {
            (
                Just(dim),
                prop::collection::vec(prop::collection::vec(-100.0..100.0_f64, dim), 8..60),
                prop::collection::vec(any::<bool>(), dim),
                prop::collection::vec(
                    (
                        prop::collection::vec(0.1..10.0_f64, dim),
                        -300.0..300.0_f64,
                        any::<bool>(),
                    ),
                    1..6,
                ),
                1..4usize,
                1..=4usize,
                prop_oneof![
                    Just(PartitionScheme::RoundRobin),
                    Just(PartitionScheme::PilotKeyRange)
                ],
                1..6usize,
                1..6usize,
                (
                    prop::collection::vec(
                        (
                            0..4u8,
                            any::<u16>(),
                            prop::collection::vec(0.1..100.0_f64, dim),
                        ),
                        0..24,
                    ),
                    prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
                ),
            )
        })
        .prop_map(
            |(
                dim,
                mut rows,
                signs,
                raw_queries,
                budget,
                shards,
                scheme,
                threads,
                k,
                (mut ops, quarantine),
            )| {
                // Fold data and mutation rows into the octant fixed by
                // `signs` so the indexed path is exercised.
                for row in rows.iter_mut().chain(ops.iter_mut().map(|(_, _, r)| r)) {
                    for (v, &pos) in row.iter_mut().zip(&signs) {
                        *v = if pos { v.abs() } else { -v.abs() };
                    }
                }
                let queries = raw_queries
                    .into_iter()
                    .map(|(mag, b, leq)| {
                        let a: Vec<f64> = mag
                            .iter()
                            .zip(&signs)
                            .map(|(&m, &pos)| if pos { m } else { -m })
                            .collect();
                        (a, b, if leq { Cmp::Leq } else { Cmp::Geq })
                    })
                    .collect();
                Scenario {
                    dim,
                    rows,
                    signs,
                    queries,
                    budget,
                    shards,
                    scheme,
                    threads,
                    k,
                    ops,
                    quarantine,
                }
            },
        )
}

fn domain(s: &Scenario) -> ParameterDomain {
    let axes: Vec<Domain> = s
        .signs
        .iter()
        .map(|&pos| {
            if pos {
                Domain::Continuous { lo: 0.1, hi: 10.0 }
            } else {
                Domain::Continuous {
                    lo: -10.0,
                    hi: -0.1,
                }
            }
        })
        .collect();
    ParameterDomain::new(axes).unwrap()
}

/// Build the monolithic baseline and the sharded set over the same data.
/// `None` when the generated data cannot fill every shard (fewer rows than
/// shards after routing, e.g. duplicate pilot keys) — a documented build
/// error, not an equivalence failure.
fn build_pair<S: KeyStore + Send>(s: &Scenario) -> Option<(PlanarIndexSet<S>, ShardedIndexSet<S>)> {
    let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
    let cfg = IndexConfig::with_budget(s.budget);
    let unsharded = PlanarIndexSet::build(table.clone(), domain(s), cfg.clone()).unwrap();
    let shard_config = ShardConfig {
        shards: s.shards,
        scheme: s.scheme,
    };
    match ShardedIndexSet::build(table, domain(s), cfg, shard_config) {
        Ok(sharded) => Some((unsharded, sharded)),
        Err(PlanarError::EmptyDataset) => None,
        Err(e) => panic!("sharded build failed: {e:?}"),
    }
}

fn ineq_queries(s: &Scenario) -> Vec<InequalityQuery> {
    s.queries
        .iter()
        .map(|(a, b, cmp)| InequalityQuery::new(a.clone(), *cmp, *b).unwrap())
        .collect()
}

fn topk_queries(s: &Scenario) -> Vec<TopKQuery> {
    ineq_queries(s)
        .into_iter()
        .map(|q| TopKQuery::new(q, s.k).unwrap())
        .collect()
}

/// Inequality + top-k equivalence on the current state of a pair.
fn assert_equivalent<S: KeyStore + Sync>(
    unsharded: &PlanarIndexSet<S>,
    sharded: &ShardedIndexSet<S>,
    s: &Scenario,
) {
    for q in ineq_queries(s) {
        let want = unsharded.query(&q).unwrap();
        let got = sharded.query(&q).unwrap();
        assert_eq!(got.sorted_ids(), want.sorted_ids());
        assert_eq!(got.merged_stats().matched, want.stats.matched);
        assert_eq!(got.shard_stats.len(), sharded.num_shards());
    }
    for q in topk_queries(s) {
        let want = unsharded.top_k(&q).unwrap();
        let got = sharded.top_k(&q).unwrap();
        assert_eq!(got.neighbors.len(), want.neighbors.len());
        for (g, w) in got.neighbors.iter().zip(&want.neighbors) {
            assert_eq!(g.0, w.0);
            assert_eq!(
                g.1.to_bits(),
                w.1.to_bits(),
                "distances must be bit-identical"
            );
        }
    }
}

fn check_equivalence<S: KeyStore + Send + Sync>(s: &Scenario) {
    let Some((unsharded, sharded)) = build_pair::<S>(s) else {
        return;
    };
    assert_equivalent(&unsharded, &sharded, s);
}

fn check_batches<S: KeyStore + Send + Sync>(s: &Scenario) {
    let Some((unsharded, sharded)) = build_pair::<S>(s) else {
        return;
    };
    let exec = ExecutionConfig::with_threads(s.threads);
    let qs = ineq_queries(s);
    let base = unsharded.query_batch(&qs, &exec).unwrap();
    let singles: Vec<_> = qs.iter().map(|q| sharded.query(q).unwrap()).collect();
    let batched = sharded.query_batch(&qs, &exec).unwrap();
    for ((got, single), want) in batched.iter().zip(&singles).zip(&base) {
        // Batch output is identical to the one-at-a-time sharded path for
        // every thread count, and id-equal to the unsharded engine.
        assert_eq!(got, single);
        assert_eq!(got.sorted_ids(), want.sorted_ids());
    }

    let tqs = topk_queries(s);
    let base_tk = unsharded.top_k_batch(&tqs, &exec).unwrap();
    let singles_tk: Vec<_> = tqs.iter().map(|q| sharded.top_k(q).unwrap()).collect();
    let batched_tk = sharded.top_k_batch(&tqs, &exec).unwrap();
    for ((got, single), want) in batched_tk.iter().zip(&singles_tk).zip(&base_tk) {
        assert_eq!(got, single);
        assert_eq!(got.neighbors, want.neighbors);
    }
}

fn check_mutations<S: KeyStore + Send + Sync>(s: &Scenario) {
    let Some((mut unsharded, mut sharded)) = build_pair::<S>(s) else {
        return;
    };
    for (op, id_seed, row) in &s.ops {
        match op % 4 {
            0 | 1 => {
                let a = unsharded.insert_point(row).unwrap();
                let b = sharded.insert_point(row).unwrap();
                assert_eq!(a, b, "insert must assign aligned global ids");
            }
            2 => {
                let id = (*id_seed as u32) % unsharded.table().len() as u32;
                let a = unsharded.update_point(id, row);
                let b = sharded.update_point(id, row);
                assert_eq!(a.is_ok(), b.is_ok(), "update liveness must agree");
            }
            _ => {
                let id = (*id_seed as u32) % unsharded.table().len() as u32;
                let a = unsharded.delete_point(id);
                let b = sharded.delete_point(id);
                assert_eq!(a.is_ok(), b.is_ok(), "delete liveness must agree");
            }
        }
    }
    assert_eq!(unsharded.len(), sharded.len());
    assert_equivalent(&unsharded, &sharded, s);
}

fn check_quarantine_masks<S: KeyStore + Send + Sync>(s: &Scenario) {
    let Some((unsharded, mut sharded)) = build_pair::<S>(s) else {
        return;
    };
    for &(shard_seed, pos_seed) in &s.quarantine {
        let shard = shard_seed as usize % sharded.num_shards();
        let budget = sharded.shard(shard).unwrap().num_indices();
        sharded.quarantine(shard, pos_seed as usize % budget);
    }
    // Answers stay exact under any quarantine mask (shards degrade to
    // their scan independently), and a sharded query still aggregates as
    // one logical query.
    assert_equivalent(&unsharded, &sharded, s);
    if let Some(q) = ineq_queries(s).first() {
        let out = sharded.query(q).unwrap();
        let mut agg = StatsAggregator::new();
        out.record(&mut agg);
        assert_eq!(agg.count(), 1);
    }
    // Rebuild heals every shard; equivalence must survive that too.
    sharded.rebuild_quarantined();
    assert!(sharded.quarantined_positions().is_empty());
    assert_equivalent(&unsharded, &sharded, s);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded ≡ unsharded for inequality and top-k.
    #[test]
    fn sharded_equals_unsharded_vec_store(s in scenario()) {
        check_equivalence::<VecStore>(&s);
    }

    /// Shard-major batches ≡ one-at-a-time ≡ unsharded, for any thread
    /// count.
    #[test]
    fn sharded_batches_equal_unsharded_vec_store(s in scenario()) {
        check_batches::<VecStore>(&s);
    }

    /// Interleaved insert/update/delete keeps the two engines in lockstep:
    /// same global ids, same liveness verdicts, same answers after.
    #[test]
    fn mutations_preserve_equivalence_vec_store(s in scenario()) {
        check_mutations::<VecStore>(&s);
    }

    /// Arbitrary per-shard quarantine masks never change answers, and
    /// rebuilding restores full health.
    #[test]
    fn quarantine_masks_preserve_answers(s in scenario()) {
        check_quarantine_masks::<VecStore>(&s);
    }

    /// Compaction drops tombstones without renumbering global ids: answers
    /// match an uncompacted baseline before and after further mutations.
    #[test]
    fn compaction_preserves_equivalence(s in scenario()) {
        if let Some((mut unsharded, mut sharded)) = build_pair::<VecStore>(&s) {
            let n = unsharded.table().len() as u32;
            for id in (0..n).step_by(3) {
                unsharded.delete_point(id).unwrap();
                sharded.delete_point(id).unwrap();
            }
            sharded.compact(0.0);
            assert_eq!(unsharded.len(), sharded.len());
            assert_equivalent(&unsharded, &sharded, &s);
            // Dead ids stay dead, live ids stay mutable, inserts stay aligned.
            prop_assert!(!sharded.is_live(0));
            prop_assert!(sharded.delete_point(0).is_err());
            let folded: Vec<f64> = s
                .signs
                .iter()
                .map(|&pos| if pos { 0.5 } else { -0.5 })
                .collect();
            let a = unsharded.insert_point(&folded).unwrap();
            let b = sharded.insert_point(&folded).unwrap();
            prop_assert_eq!(a, b);
            assert_equivalent(&unsharded, &sharded, &s);
        }
    }

    /// A serialization roundtrip reproduces the sharded set exactly.
    #[test]
    fn sharded_snapshot_roundtrip(s in scenario()) {
        if let Some((unsharded, sharded)) = build_pair::<VecStore>(&s) {
            let loaded = ShardedIndexSet::<VecStore>::from_bytes(&sharded.to_bytes()).unwrap();
            prop_assert_eq!(loaded.num_shards(), sharded.num_shards());
            prop_assert_eq!(loaded.len(), sharded.len());
            assert_equivalent(&unsharded, &loaded, &s);
        }
    }
}
