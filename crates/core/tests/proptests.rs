//! Property-based tests for the Planar index.
//!
//! The central contract — the index is *exact* (paper's "accurate manner") —
//! is tested by comparing every answer against the sequential scan on
//! arbitrary data and queries, across octants, comparison directions, and
//! under dynamic updates.

use planar_core::table::PointId;
use planar_core::VecStore;
use planar_core::{
    Cmp, Domain, FeatureTable, IndexConfig, InequalityQuery, ParameterDomain, PlanarIndexSet,
    SeqScan, TopKQuery,
};
use proptest::prelude::*;

/// A generated scenario: a table, a sign-fixed domain, and queries drawn
/// from (around) that domain.
#[derive(Debug, Clone)]
struct Scenario {
    dim: usize,
    rows: Vec<Vec<f64>>,
    signs: Vec<bool>, // true = positive axis
    queries: Vec<(Vec<f64>, f64, Cmp)>,
    budget: usize,
}

fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -100.0..100.0_f64,
        1 => Just(0.0),
        1 => -1.0..1.0_f64,
    ]
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1..=5usize)
        .prop_flat_map(|dim| {
            (
                Just(dim),
                prop::collection::vec(prop::collection::vec(coord(), dim), 1..60),
                prop::collection::vec(any::<bool>(), dim),
                prop::collection::vec(
                    (
                        prop::collection::vec(0.1..10.0_f64, dim),
                        -200.0..200.0_f64,
                        any::<bool>(),
                    ),
                    1..6,
                ),
                1..8usize,
            )
        })
        .prop_map(|(dim, rows, signs, raw_queries, budget)| {
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
            }
        })
}

fn build_domain(s: &Scenario) -> ParameterDomain {
    ParameterDomain::new(
        s.signs
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
            .collect(),
    )
    .expect("sign-fixed domain is valid")
}

/// Coordinates for the implicit-key trace: a few values, so keys collide,
/// signed zeros, and wide values that grow the normalizer's translation.
fn trace_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => Just(1.0),
        2 => Just(0.0),
        2 => Just(-0.0),
        2 => Just(-2.0),
        3 => -5.0..5.0_f64,
        1 => -400.0..400.0_f64,
    ]
}

/// The canonical key of `row` under a raw-space normal, computed here
/// independently of the index.
fn reference_key(raw_normal: &[f64], row: &[f64]) -> f64 {
    let k = planar_geom::dot_slices(raw_normal, row);
    if k == 0.0 {
        0.0
    } else {
        k
    }
}

/// Every index of `set` holds exactly the live ids, sorted by
/// `(key(row), id)`, and in the same order as a fresh build over the
/// current rows; inequality and top-k answers equal `SeqScan` over the
/// live rows.
fn check_implicit_keys(
    set: &PlanarIndexSet<VecStore>,
    model: &[Option<Vec<f64>>],
    queries: &[(Vec<f64>, f64, Cmp)],
) {
    let live: Vec<PointId> = (0..model.len() as PointId)
        .filter(|&id| model[id as usize].is_some())
        .collect();
    let mut fresh = set.clone();
    for pos in 0..fresh.num_indices() {
        fresh.quarantine(pos);
    }
    fresh.rebuild_quarantined();
    for pos in 0..set.num_indices() {
        let idx = set.index_at(pos).unwrap();
        let raw_normal = set.normalizer().raw_normal(idx.normal());
        let mut want = live.clone();
        want.sort_by(|&a, &b| {
            let ka = reference_key(&raw_normal, set.table().row(a));
            let kb = reference_key(&raw_normal, set.table().row(b));
            ka.total_cmp(&kb).then(a.cmp(&b))
        });
        prop_assert_eq!(idx.ids(), want.as_slice(), "index {}", pos);
        prop_assert_eq!(
            idx.ids(),
            fresh.index_at(pos).unwrap().ids(),
            "index {}",
            pos
        );
    }
    let rows: Vec<Vec<f64>> = live
        .iter()
        .map(|&id| model[id as usize].clone().unwrap())
        .collect();
    let live_table = FeatureTable::from_rows(set.dim(), rows).unwrap();
    let scan = SeqScan::new(&live_table);
    for (a, b, cmp) in queries {
        let q = InequalityQuery::new(a.clone(), *cmp, *b).unwrap();
        let want: Vec<PointId> = scan
            .evaluate(&q)
            .unwrap()
            .into_iter()
            .map(|local| live[local as usize])
            .collect();
        prop_assert_eq!(set.query(&q).unwrap().sorted_ids(), want);
        let tk = TopKQuery::new(q, 4).unwrap();
        let want: Vec<(PointId, f64)> = scan
            .top_k(&tk)
            .unwrap()
            .into_iter()
            .map(|(local, d)| (live[local as usize], d))
            .collect();
        prop_assert_eq!(set.top_k(&tk).unwrap().neighbors, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fundamental exactness property: indexed answers equal scan
    /// answers for arbitrary data/queries in arbitrary octants.
    #[test]
    fn index_equals_scan_vec_store(s in scenario()) {
        let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
        let scan_table = table.clone();
        let set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
            table,
            build_domain(&s),
            IndexConfig::with_budget(s.budget),
        )
        .unwrap();
        let scan = SeqScan::new(&scan_table);
        for (a, b, cmp) in &s.queries {
            let q = InequalityQuery::new(a.clone(), *cmp, *b).unwrap();
            let got = set.query(&q).unwrap();
            prop_assert!(got.stats.used_index(), "expected indexed path: {:?}", got.stats.path);
            prop_assert_eq!(got.sorted_ids(), scan.evaluate(&q).unwrap());
        }
    }

    /// Top-k answers (ids, distances, and order) equal brute force.
    #[test]
    fn top_k_equals_brute_force(s in scenario(), k in 1..20usize) {
        let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
        let scan_table = table.clone();
        let set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
            table,
            build_domain(&s),
            IndexConfig::with_budget(s.budget),
        )
        .unwrap();
        let scan = SeqScan::new(&scan_table);
        for (a, b, cmp) in &s.queries {
            let q = TopKQuery::new(InequalityQuery::new(a.clone(), *cmp, *b).unwrap(), k).unwrap();
            let got = set.top_k(&q).unwrap();
            let want = scan.top_k(&q).unwrap();
            prop_assert_eq!(&got.neighbors, &want, "k={}", k);
            // Distances must be ascending and all results satisfy the query.
            for w in got.neighbors.windows(2) {
                prop_assert!(w[0].1 <= w[1].1);
            }
            for (id, _) in &got.neighbors {
                prop_assert!(q.query.satisfies(scan_table.row(*id)));
            }
        }
    }

    /// Dynamic mutations (insert/update/delete) preserve exactness: apply a
    /// random mutation trace, then compare against a freshly-scanned model.
    #[test]
    fn dynamic_updates_stay_exact(
        s in scenario(),
        ops in prop::collection::vec((0..3u8, prop::collection::vec(0.1..50.0_f64, 5), any::<u16>()), 1..20),
    ) {
        let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
        let mut set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
            table,
            build_domain(&s),
            IndexConfig::with_budget(s.budget.min(3)),
        )
        .unwrap();
        // Model: id → row (None = deleted).
        let mut model: Vec<Option<Vec<f64>>> = s.rows.iter().cloned().map(Some).collect();

        for (op, vals, pick) in &ops {
            let row: Vec<f64> = vals.iter().take(s.dim).copied().collect();
            let live: Vec<u32> = model
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|_| i as u32))
                .collect();
            match op {
                0 => {
                    let id = set.insert_point(&row).unwrap();
                    prop_assert_eq!(id as usize, model.len());
                    model.push(Some(row));
                }
                1 if !live.is_empty() => {
                    let id = live[*pick as usize % live.len()];
                    set.update_point(id, &row).unwrap();
                    model[id as usize] = Some(row);
                }
                2 if !live.is_empty() => {
                    let id = live[*pick as usize % live.len()];
                    set.delete_point(id).unwrap();
                    model[id as usize] = None;
                }
                _ => {}
            }
        }

        for (a, b, cmp) in &s.queries {
            let q = InequalityQuery::new(a.clone(), *cmp, *b).unwrap();
            let got = set.query(&q).unwrap().sorted_ids();
            let want: Vec<u32> = model
                .iter()
                .enumerate()
                .filter_map(|(i, r)| {
                    r.as_ref()
                        .filter(|row| q.satisfies(row))
                        .map(|_| i as u32)
                })
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Implicit keys follow the rows through any mutation sequence: with
    /// duplicate and signed-zero keys and translation-growing rows, after
    /// every insert, update and delete each index is sorted by the keys
    /// computed from the current rows, matches a fresh build, and answers
    /// like `SeqScan`. An update that changed the row before removing the
    /// id from the indices would bisect with the new key and break this.
    #[test]
    fn implicit_keys_follow_rows_through_mutations(
        s in scenario(),
        ops in prop::collection::vec(
            (0..3u8, prop::collection::vec(trace_coord(), 5), any::<u16>()),
            1..30,
        ),
    ) {
        let rows: Vec<Vec<f64>> = s
            .rows
            .iter()
            .map(|r| r.iter().map(|&v| if v.abs() < 0.5 { -0.0 } else { v.round() }).collect())
            .collect();
        let table = FeatureTable::from_rows(s.dim, rows.clone()).unwrap();
        let mut set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
            table,
            build_domain(&s),
            IndexConfig::with_budget(s.budget.min(4)),
        )
        .unwrap();
        let mut model: Vec<Option<Vec<f64>>> = rows.into_iter().map(Some).collect();
        check_implicit_keys(&set, &model, &s.queries);
        for (op, vals, pick) in &ops {
            let row: Vec<f64> = vals[..s.dim].to_vec();
            let live: Vec<PointId> = (0..model.len() as PointId)
                .filter(|&id| model[id as usize].is_some())
                .collect();
            match op {
                1 if !live.is_empty() => {
                    let id = live[*pick as usize % live.len()];
                    set.update_point(id, &row).unwrap();
                    model[id as usize] = Some(row);
                }
                2 if !live.is_empty() => {
                    let id = live[*pick as usize % live.len()];
                    set.delete_point(id).unwrap();
                    model[id as usize] = None;
                }
                _ => {
                    let id = set.insert_point(&row).unwrap();
                    prop_assert_eq!(id as usize, model.len());
                    model.push(Some(row));
                }
            }
            check_implicit_keys(&set, &model, &s.queries);
        }
    }

    /// Pruning statistics are consistent: intervals partition the dataset
    /// and only the intermediate interval is verified.
    #[test]
    fn stats_are_consistent(s in scenario()) {
        let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
        let set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
            table,
            build_domain(&s),
            IndexConfig::with_budget(s.budget),
        )
        .unwrap();
        for (a, b, cmp) in &s.queries {
            let q = InequalityQuery::new(a.clone(), *cmp, *b).unwrap();
            let out = set.query(&q).unwrap();
            let st = &out.stats;
            prop_assert_eq!(st.smaller + st.intermediate + st.larger, st.n);
            prop_assert_eq!(st.verified, st.intermediate);
            prop_assert_eq!(st.matched, out.matches.len());
            prop_assert!((0.0..=1.0).contains(&st.pruned_fraction()));
        }
    }

    /// All selection strategies return the same (exact) answers.
    #[test]
    fn strategies_are_interchangeable(s in scenario()) {
        use planar_core::SelectionStrategy::*;
        let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
        let mut set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
            table,
            build_domain(&s),
            IndexConfig::with_budget(s.budget),
        )
        .unwrap();
        for (a, b, cmp) in &s.queries {
            let q = InequalityQuery::new(a.clone(), *cmp, *b).unwrap();
            let mut answers = Vec::new();
            for strat in [MinStretch, MinAngle, OracleCount] {
                set.set_strategy(strat);
                answers.push(set.query(&q).unwrap().sorted_ids());
            }
            prop_assert_eq!(&answers[0], &answers[1]);
            prop_assert_eq!(&answers[0], &answers[2]);
        }
    }

    /// The oracle-count strategy never produces a larger intermediate
    /// interval than the heuristics (it is the lower bound they chase).
    #[test]
    fn oracle_count_is_optimal(s in scenario()) {
        use planar_core::SelectionStrategy::*;
        let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
        let mut set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
            table,
            build_domain(&s),
            IndexConfig::with_budget(s.budget),
        )
        .unwrap();
        for (a, b, cmp) in &s.queries {
            let q = InequalityQuery::new(a.clone(), *cmp, *b).unwrap();
            set.set_strategy(OracleCount);
            let oracle_ii = set.query(&q).unwrap().stats.intermediate;
            for strat in [MinStretch, MinAngle] {
                set.set_strategy(strat);
                let ii = set.query(&q).unwrap().stats.intermediate;
                prop_assert!(oracle_ii <= ii, "{strat:?}: oracle {oracle_ii} > {ii}");
            }
        }
    }
}
