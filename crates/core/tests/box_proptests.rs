//! Property tests for settling whole blocks by their bounding box: over
//! tables of at least eight 64-row blocks per shard, laid out in k-d block
//! order, every answer equals `SeqScan` over the live rows — ascending ids,
//! grouped by ascending shard for a sharded set — on the `Off`, `I8` and
//! `I16` tiers, through tombstones inside settled blocks, inserts into the
//! tail blocks, in-place updates that move a row out of its block's box,
//! and compactions between the steps.

use planar_core::table::PointId;
use planar_core::{
    Cmp, FeatureTable, IndexConfig, InequalityQuery, ParameterDomain, PlanarIndexSet, QuantPolicy,
    QuantTier, SeqScan, ShardConfig, ShardedIndexSet, TopKQuery, VecStore,
};
use proptest::prelude::*;

/// One mutation step.
#[derive(Debug, Clone)]
enum Step {
    /// Delete every live id `≡ r (mod m)`.
    Delete(usize, usize),
    /// Append this many rows near the data.
    Insert(usize),
    /// Move every live id `≡ r (mod m)` far outside its block's box.
    Update(usize, usize),
    /// Compact both sets.
    Compact,
}

#[derive(Debug, Clone)]
struct Scenario {
    dim: usize,
    rows: usize,
    seed: u64,
    queries: Vec<(Vec<f64>, f64, bool)>,
    steps: Vec<Step>,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (2..9usize, 0..9usize).prop_map(|(m, r)| Step::Delete(m, r % m)),
        (1..150usize).prop_map(Step::Insert),
        (5..40usize, 0..40usize).prop_map(|(m, r)| Step::Update(m, r % m)),
        Just(Step::Compact),
    ]
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1..=4usize).prop_flat_map(|dim| {
        (
            Just(dim),
            1_100..1_500usize,
            any::<u64>(),
            prop::collection::vec(
                (
                    prop::collection::vec(0.2..5.0_f64, dim),
                    0.1..0.9_f64,
                    any::<bool>(),
                ),
                2..6,
            ),
            prop::collection::vec(step(), 1..5),
        )
            .prop_map(|(dim, rows, seed, queries, steps)| Scenario {
                dim,
                rows,
                seed,
                queries,
                steps,
            })
    })
}

/// Deterministic rows in `[1, 100]^dim`.
fn rows(dim: usize, n: usize, state: &mut u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    *state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    1.0 + 99.0 * ((*state >> 11) as f64 / (1u64 << 53) as f64)
                })
                .collect()
        })
        .collect()
}

/// The live rows' `SeqScan` answer, ascending.
fn scan(dim: usize, rows: &[Vec<f64>], live: &[bool], q: &InequalityQuery) -> Vec<PointId> {
    let table = FeatureTable::from_rows(dim, rows.to_vec()).unwrap();
    let mut ids = SeqScan::new(&table).evaluate(q).unwrap();
    ids.retain(|&id| live[id as usize]);
    ids
}

/// A model of one set's ids: their current rows and liveness.
#[derive(Clone)]
struct Model {
    rows: Vec<Vec<f64>>,
    live: Vec<bool>,
}

fn check(
    s: &Scenario,
    flat: &PlanarIndexSet<VecStore>,
    flat_model: &Model,
    sharded: &ShardedIndexSet<VecStore>,
    model: &Model,
    settled: &mut usize,
) {
    for (a, frac, leq) in &s.queries {
        // A threshold at `frac` of the way across the data's dot range.
        let top: f64 = a.iter().map(|c| c * 100.0).sum();
        let b = a.iter().sum::<f64>() + frac * (top - a.iter().sum::<f64>());
        let cmp = if *leq { Cmp::Leq } else { Cmp::Geq };
        let q = InequalityQuery::new(a.clone(), cmp, b).unwrap();

        let out = flat.query(&q).unwrap();
        let want = scan(s.dim, &flat_model.rows, &flat_model.live, &q);
        prop_assert_eq!(&out.matches, &want);
        prop_assert!(out.stats.verified <= out.stats.n.max(out.stats.intermediate));
        *settled += out.stats.quant.box_accepted + out.stats.quant.box_rejected;

        let out = sharded.query(&q).unwrap();
        let want = scan(s.dim, &model.rows, &model.live, &q);
        let mut grouped = Vec::new();
        for shard in 0..sharded.num_shards() {
            grouped.extend(
                want.iter()
                    .filter(|&&id| sharded.shard_of(id) == Some(shard)),
            );
        }
        prop_assert_eq!(&out.matches, &grouped);
        let merged = out.merged_stats();
        *settled += merged.quant.box_accepted + merged.quant.box_rejected;

        // Top-k shares the kernel: bit-identical to the monolith's scan.
        let tk = TopKQuery::new(q, 9).unwrap();
        let got = sharded.top_k(&tk).unwrap().neighbors;
        let flat_table = FeatureTable::from_rows(s.dim, model.rows.clone()).unwrap();
        let mut all = SeqScan::new(&flat_table)
            .top_k(&TopKQuery::new(tk.query.clone(), model.rows.len()).unwrap())
            .unwrap();
        all.retain(|&(id, _)| model.live[id as usize]);
        all.truncate(9);
        prop_assert_eq!(got.len(), all.len());
        for (g, w) in got.iter().zip(&all) {
            prop_assert_eq!(g.0, w.0);
            prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }
}

fn run(s: &Scenario, tier: QuantTier) {
    let mut state = s.seed | 1;
    let initial = rows(s.dim, s.rows, &mut state);
    let table = FeatureTable::from_rows(s.dim, initial.clone()).unwrap();
    let domain = ParameterDomain::uniform_continuous(s.dim, 0.2, 5.0).unwrap();
    let cfg = IndexConfig::with_budget(4);
    let mut flat =
        PlanarIndexSet::<VecStore>::build(table.clone(), domain.clone(), cfg.clone()).unwrap();
    let mut sharded =
        ShardedIndexSet::<VecStore>::build(table, domain, cfg, ShardConfig::pilot_key_range(2))
            .unwrap();
    prop_assert!(flat.table().is_clustered());
    for shard in 0..2 {
        prop_assert!(sharded.shard(shard).unwrap().table().len() >= 8 * 64);
    }
    let policy = QuantPolicy::tier(tier);
    flat.set_quant_policy(policy);
    sharded.set_quant_policy(policy);
    let mut flat_model = Model {
        live: vec![true; initial.len()],
        rows: initial.clone(),
    };
    let mut model = flat_model.clone();
    let mut settled = 0;
    check(s, &flat, &flat_model, &sharded, &model, &mut settled);
    for step in &s.steps {
        match *step {
            Step::Delete(m, r) => {
                for id in (r..model.rows.len()).step_by(m) {
                    if model.live[id] {
                        sharded.delete_point(id as PointId).unwrap();
                        model.live[id] = false;
                    }
                }
                for id in (r..flat_model.rows.len()).step_by(m) {
                    if flat_model.live[id] {
                        flat.delete_point(id as PointId).unwrap();
                        flat_model.live[id] = false;
                    }
                }
            }
            Step::Insert(count) => {
                for row in rows(s.dim, count, &mut state) {
                    prop_assert_eq!(
                        sharded.insert_point(&row).unwrap() as usize,
                        model.rows.len()
                    );
                    prop_assert_eq!(
                        flat.insert_point(&row).unwrap() as usize,
                        flat_model.rows.len()
                    );
                    model.rows.push(row.clone());
                    model.live.push(true);
                    flat_model.rows.push(row);
                    flat_model.live.push(true);
                }
            }
            Step::Update(m, r) => {
                // A corner of the cube, far from most blocks' boxes.
                let far: Vec<f64> = (0..s.dim)
                    .map(|j| if (r + j) % 2 == 0 { 150.0 } else { 0.5 })
                    .collect();
                for id in (r..model.rows.len()).step_by(m) {
                    if model.live[id] {
                        sharded.update_point(id as PointId, &far).unwrap();
                        model.rows[id] = far.clone();
                    }
                }
                for id in (r..flat_model.rows.len()).step_by(m) {
                    if flat_model.live[id] {
                        flat.update_point(id as PointId, &far).unwrap();
                        flat_model.rows[id] = far.clone();
                    }
                }
            }
            Step::Compact => {
                let remap = flat.compact();
                flat_model.rows = flat_model
                    .rows
                    .iter()
                    .zip(&remap)
                    .filter_map(|(row, new)| new.map(|_| row.clone()))
                    .collect();
                flat_model.live = vec![true; flat_model.rows.len()];
                sharded.compact(-1.0);
                // Compaction retunes; keep the tier under test.
                flat.set_quant_policy(policy);
                sharded.set_quant_policy(policy);
            }
        }
        check(s, &flat, &flat_model, &sharded, &model, &mut settled);
    }
    if tier == QuantTier::Off {
        prop_assert_eq!(settled, 0);
    } else {
        prop_assert!(settled > 0, "no block was settled by its box");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn box_settled_answers_equal_scan(s in scenario()) {
        for tier in [QuantTier::Off, QuantTier::I8, QuantTier::I16] {
            run(&s, tier);
        }
    }
}
