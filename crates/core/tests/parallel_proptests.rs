//! Property tests for the parallel batched query engine: for arbitrary
//! data, queries, and thread counts, `build_with`, `query_batch`, and
//! `top_k_batch` must return exactly what the sequential path returns —
//! same ids, same order, same distances, same stats.

use planar_core::{
    Cmp, Domain, ExecutionConfig, FeatureTable, IndexConfig, InequalityQuery, KeyStore,
    ParameterDomain, PlanarIndexSet, QueryScratch, TopKQuery, VecStore,
};
use planar_core::{QueryOutcome, TopKOutcome};
use proptest::prelude::*;

/// A generated workload: a table with mixed-sign axes, a batch of queries
/// drawn around the domain, and an execution configuration.
#[derive(Debug, Clone)]
struct Scenario {
    dim: usize,
    rows: Vec<Vec<f64>>,
    signs: Vec<bool>,
    queries: Vec<(Vec<f64>, f64, Cmp)>,
    budget: usize,
    threads: usize,
    verify_threshold: usize,
    k: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1..=4usize)
        .prop_flat_map(|dim| {
            (
                Just(dim),
                prop::collection::vec(prop::collection::vec(-100.0..100.0_f64, dim), 1..80),
                prop::collection::vec(any::<bool>(), dim),
                prop::collection::vec(
                    (
                        prop::collection::vec(0.1..10.0_f64, dim),
                        -300.0..300.0_f64,
                        any::<bool>(),
                    ),
                    1..10,
                ),
                1..6usize,
                1..8usize,
                // Tiny thresholds force the chunked-II path even on small
                // intervals; large ones exercise the serial crossover.
                prop_oneof![1 => Just(1usize), 1 => Just(8usize), 1 => Just(100_000usize)],
                1..6usize,
            )
        })
        .prop_map(
            |(dim, mut rows, signs, raw_queries, budget, threads, verify_threshold, k)| {
                // Fold rows into the octant fixed by `signs` so the indexed
                // path (not just the scan fallback) is exercised.
                for row in &mut rows {
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
                    threads,
                    verify_threshold,
                    k,
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

fn build_set<S: KeyStore>(s: &Scenario) -> PlanarIndexSet<S> {
    let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
    PlanarIndexSet::build(table, domain(s), IndexConfig::with_budget(s.budget)).unwrap()
}

fn ineq_queries(s: &Scenario) -> Vec<InequalityQuery> {
    s.queries
        .iter()
        .map(|(a, b, cmp)| InequalityQuery::new(a.clone(), *cmp, *b).unwrap())
        .collect()
}

fn exec(s: &Scenario) -> ExecutionConfig {
    ExecutionConfig::with_threads(s.threads).verify_threshold(s.verify_threshold)
}

fn assert_query_outcomes_equal(got: &[QueryOutcome], want: &[QueryOutcome]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        // Exact id equality *including order* — the canonical match order
        // must not depend on the execution configuration.
        assert_eq!(g.matches, w.matches);
        assert_eq!(g.stats, w.stats);
    }
}

fn assert_topk_outcomes_equal(got: &[TopKOutcome], want: &[TopKOutcome]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.neighbors.len(), w.neighbors.len());
        for (gn, wn) in g.neighbors.iter().zip(&w.neighbors) {
            assert_eq!(gn.0, wn.0);
            assert_eq!(
                gn.1.to_bits(),
                wn.1.to_bits(),
                "distances must be bit-identical"
            );
        }
        assert_eq!(g.stats, w.stats);
    }
}

fn check_query_batch<S: KeyStore + Sync>(s: &Scenario) {
    let set: PlanarIndexSet<S> = build_set(s);
    let qs = ineq_queries(s);
    let sequential: Vec<QueryOutcome> = qs.iter().map(|q| set.query(q).unwrap()).collect();
    let batched = set.query_batch(&qs, &exec(s)).unwrap();
    assert_query_outcomes_equal(&batched, &sequential);
}

fn check_top_k_batch<S: KeyStore + Sync>(s: &Scenario) {
    let set: PlanarIndexSet<S> = build_set(s);
    let qs: Vec<TopKQuery> = ineq_queries(s)
        .into_iter()
        .map(|q| TopKQuery::new(q, s.k).unwrap())
        .collect();
    let sequential: Vec<TopKOutcome> = qs.iter().map(|q| set.top_k(q).unwrap()).collect();
    let batched = set.top_k_batch(&qs, &exec(s)).unwrap();
    assert_topk_outcomes_equal(&batched, &sequential);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Batched inequality queries ≡ the sequential loop.
    #[test]
    fn query_batch_equals_sequential_vec_store(s in scenario()) {
        check_query_batch::<VecStore>(&s);
    }

    /// Batched top-k queries ≡ the sequential loop.
    #[test]
    fn top_k_batch_equals_sequential_vec_store(s in scenario()) {
        check_top_k_batch::<VecStore>(&s);
    }

    /// `query_with` with a reused scratch and chunked verification matches
    /// the plain path exactly for any thread count.
    #[test]
    fn query_with_reused_scratch_equals_query(s in scenario()) {
        let set: PlanarIndexSet<VecStore> = build_set(&s);
        let cfg = exec(&s);
        let mut scratch = QueryScratch::with_capacity(s.rows.len());
        for q in ineq_queries(&s) {
            let plain = set.query(&q).unwrap();
            let with = set.query_with(&q, &cfg, &mut scratch).unwrap();
            assert_eq!(with.matches, plain.matches);
            assert_eq!(with.stats, plain.stats);
        }
    }

    /// Parallel build produces the exact same index set as the serial
    /// build: identical normals in identical order, identical answers.
    #[test]
    fn build_with_equals_build(s in scenario()) {
        let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
        let cfg = IndexConfig::with_budget(s.budget);
        let serial: PlanarIndexSet<VecStore> =
            PlanarIndexSet::build(table.clone(), domain(&s), cfg.clone()).unwrap();
        let parallel: PlanarIndexSet<VecStore> =
            PlanarIndexSet::build_with(table, domain(&s), cfg, &exec(&s)).unwrap();
        prop_assert_eq!(serial.num_indices(), parallel.num_indices());
        let serial_normals: Vec<Vec<f64>> = serial.normals().map(|n| n.to_vec()).collect();
        let parallel_normals: Vec<Vec<f64>> = parallel.normals().map(|n| n.to_vec()).collect();
        prop_assert_eq!(serial_normals, parallel_normals);
        for q in ineq_queries(&s) {
            let a = serial.query(&q).unwrap();
            let b = parallel.query(&q).unwrap();
            assert_eq!(a.matches, b.matches);
            assert_eq!(a.stats, b.stats);
        }
    }
}
