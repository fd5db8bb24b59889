//! Property tests for settling whole blocks by their bounding box: over
//! tables of at least eight 64-row blocks per shard, laid out in k-d block
//! order, every answer equals `SeqScan` over the live rows — ascending ids,
//! grouped by ascending shard for a sharded set — on the `Off` and `I16`
//! tiers, through tombstones inside settled blocks, inserts into the
//! tail blocks, in-place updates that move a row out of its block's box,
//! and compactions between the steps.
//!
//! A second property checks the box sweep itself on hostile data — rows
//! near ±1e300, subnormal rows, mixed-sign and constant columns, and
//! blocks forced onto the full-precision fallback — through the same
//! mutations: a block it rejects holds no row satisfying the query, a
//! block it accepts holds only such rows, and the incrementally kept
//! bound planes equal a fresh encode of the same rows.

use planar_core::table::PointId;
use planar_core::{
    BoxClass, Cmp, FeatureTable, IndexConfig, InequalityQuery, ParameterDomain, PlanarIndexSet,
    QuantTier, QuantizedColumns, SeqScan, ShardConfig, ShardedIndexSet, TopKQuery, VecStore,
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
    flat.set_quant_tier(tier);
    sharded.set_quant_tier(tier);
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
                flat.set_quant_tier(tier);
                sharded.set_quant_tier(tier);
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

/// How the sweep scenario fills one column.
#[derive(Debug, Clone, Copy)]
enum Column {
    /// Mixed-sign values in `[-100, 100)`.
    Signed,
    /// One value in every row.
    Constant,
    /// Mixed-sign values near ±1e300.
    Huge,
    /// Mixed-sign subnormal values.
    Subnormal,
}

#[derive(Debug, Clone)]
struct SweepScenario {
    columns: Vec<Column>,
    rows: usize,
    seed: u64,
    /// Every 61st row holds ±`f64::MAX` in column 0, so its block cannot
    /// be encoded soundly and falls back.
    fallback: bool,
    /// `(a, row whose dot sets b, ulps to nudge b)`.
    queries: Vec<(Vec<f64>, usize, i8)>,
    steps: Vec<Step>,
}

fn sweep_scenario() -> impl Strategy<Value = SweepScenario> {
    let column = prop_oneof![
        Just(Column::Signed),
        Just(Column::Constant),
        Just(Column::Huge),
        Just(Column::Subnormal),
    ];
    (prop::collection::vec(column, 1..=4), any::<u8>()).prop_flat_map(|(columns, fb)| {
        let dim = columns.len();
        (
            Just(columns),
            600..900usize,
            any::<u64>(),
            Just(fb % 4 == 0),
            prop::collection::vec(
                (
                    prop::collection::vec(-5.0..5.0_f64, dim),
                    0..600usize,
                    -2..3i8,
                ),
                2..5,
            ),
            prop::collection::vec(step(), 1..4),
        )
            .prop_map(
                |(columns, rows, seed, fallback, queries, steps)| SweepScenario {
                    columns,
                    rows,
                    seed,
                    fallback,
                    queries,
                    steps,
                },
            )
    })
}

/// `n` rows of the scenario's column kinds; row `i` of the whole stream
/// (`first + k`) carries the fallback magnitude when enabled.
fn sweep_rows(s: &SweepScenario, first: usize, n: usize, state: &mut u64) -> Vec<Vec<f64>> {
    (first..first + n)
        .map(|i| {
            s.columns
                .iter()
                .enumerate()
                .map(|(j, col)| {
                    *state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let u = (*state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    if s.fallback && j == 0 && i % 61 == 7 {
                        return if i % 2 == 0 { f64::MAX } else { -f64::MAX };
                    }
                    match col {
                        Column::Signed => 200.0 * u,
                        Column::Constant => -7.5,
                        Column::Huge => 2e300 * u,
                        Column::Subnormal => 2e-310 * u,
                    }
                })
                .collect()
        })
        .collect()
}

/// The sweep's verdicts over every block of `set`'s table agree with the
/// exact predicate of every row in the block (live or tombstoned — the box
/// bounds them all), and its planes equal a fresh encode.
fn check_sweep(s: &SweepScenario, set: &PlanarIndexSet<VecStore>, settled: &mut usize) {
    let table = set.table();
    let quant = table.quant().expect("the scenario keeps a tier");
    let fresh = QuantizedColumns::encode(table);
    prop_assert_eq!(quant.blocks(), fresh.blocks());
    for j in 0..table.dim() {
        prop_assert_eq!(quant.lo(j), fresh.lo(j), "lo plane {}", j);
        prop_assert_eq!(quant.hi(j), fresh.hi(j), "hi plane {}", j);
    }
    let n = table.len();
    let mut verdicts = Vec::new();
    for (a, row, nudge) in &s.queries {
        let row = table.row((*row % n) as PointId);
        let mut b: f64 = a.iter().zip(row).map(|(x, y)| x * y).sum();
        if !b.is_finite() {
            b = 0.0;
        }
        for _ in 0..nudge.unsigned_abs() {
            b = if *nudge > 0 {
                b.next_up()
            } else {
                b.next_down()
            };
        }
        for cmp in [Cmp::Leq, Cmp::Geq] {
            let q = InequalityQuery::new(a.clone(), cmp, b).unwrap();
            quant.box_sweep(&q, 0..quant.blocks(), &mut verdicts);
            prop_assert_eq!(verdicts.len(), quant.blocks());
            for (block, &v) in verdicts.iter().enumerate() {
                if v == BoxClass::Mixed {
                    continue;
                }
                *settled += 1;
                for slot in block * 64..n.min((block + 1) * 64) {
                    let id = table.id_at(slot as u32);
                    prop_assert_eq!(
                        q.satisfies(table.row(id)),
                        v == BoxClass::Accept,
                        "{:?} block {} row {}",
                        v,
                        block,
                        id
                    );
                }
            }
        }
    }
}

fn run_sweep(s: &SweepScenario) {
    let dim = s.columns.len();
    let mut state = s.seed | 1;
    let initial = sweep_rows(s, 0, s.rows, &mut state);
    let mut appended = s.rows;
    let table = FeatureTable::from_rows(dim, initial.clone()).unwrap();
    let domain = ParameterDomain::uniform_continuous(dim, 0.2, 5.0).unwrap();
    let mut set =
        PlanarIndexSet::<VecStore>::build(table, domain, IndexConfig::with_budget(2)).unwrap();
    set.set_quant_tier(QuantTier::I16);
    if s.fallback {
        prop_assert!(set.table().quant().unwrap().fallback_blocks() > 0);
    }
    let mut settled = 0;
    check_sweep(s, &set, &mut settled);
    for step in &s.steps {
        let n = set.table().len();
        match *step {
            Step::Delete(m, r) => {
                for id in (r..n).step_by(m) {
                    if set.is_live(id as PointId) {
                        set.delete_point(id as PointId).unwrap();
                    }
                }
            }
            Step::Insert(count) => {
                for row in sweep_rows(s, appended, count, &mut state) {
                    set.insert_point(&row).unwrap();
                }
                appended += count;
            }
            Step::Update(m, r) => {
                let rows = sweep_rows(s, appended, n.div_ceil(m), &mut state);
                appended += rows.len();
                for (id, row) in (r..n).step_by(m).zip(rows) {
                    if set.is_live(id as PointId) {
                        set.update_point(id as PointId, &row).unwrap();
                    }
                }
            }
            Step::Compact => {
                set.compact();
                set.set_quant_tier(QuantTier::I16);
            }
        }
        check_sweep(s, &set, &mut settled);
    }
    // Data without ±1e300 columns or fallback rows has blocks away from
    // every threshold, so a sound sweep that works settles some.
    let tame = !s.fallback && s.columns.iter().all(|c| !matches!(c, Column::Huge));
    if tame && s.columns.iter().any(|c| matches!(c, Column::Signed)) {
        prop_assert!(settled > 0, "the sweep settled no block");
    }
}

/// A sharded set mutated after its build (tail blocks appended, rows
/// moved, tombstones), saved and reloaded: the reload clusters its rows
/// afresh, so its block layout — and with it `verified` and the box
/// counters — may differ from the writer's, but every query of the pool
/// returns identical matches and `ServedBy`, and top-k identical
/// neighbours.
fn run_reload(s: &Scenario, tier: QuantTier) {
    let mut state = s.seed | 1;
    let table = FeatureTable::from_rows(s.dim, rows(s.dim, s.rows, &mut state)).unwrap();
    let domain = ParameterDomain::uniform_continuous(s.dim, 0.2, 5.0).unwrap();
    let mut set = ShardedIndexSet::<VecStore>::build(
        table,
        domain,
        IndexConfig::with_budget(4),
        ShardConfig::pilot_key_range(2),
    )
    .unwrap();
    set.set_quant_tier(tier);
    for step in &s.steps {
        let n = set.len() as PointId;
        match *step {
            Step::Delete(m, r) => {
                for id in (r as PointId..n).step_by(m) {
                    if set.is_live(id) {
                        set.delete_point(id).unwrap();
                    }
                }
            }
            Step::Insert(count) => {
                for row in rows(s.dim, count, &mut state) {
                    set.insert_point(&row).unwrap();
                }
            }
            Step::Update(m, r) => {
                let far = vec![150.0; s.dim];
                for id in (r as PointId..n).step_by(m) {
                    if set.is_live(id) {
                        set.update_point(id, &far).unwrap();
                    }
                }
            }
            // A compaction would re-cluster the writer too; keep its
            // build-time layout.
            Step::Compact => {}
        }
    }
    let loaded = ShardedIndexSet::<VecStore>::from_bytes(&set.to_bytes()).unwrap();
    prop_assert_eq!(loaded.quant_tiers(), set.quant_tiers());
    for (a, frac, leq) in &s.queries {
        let top: f64 = a.iter().map(|c| c * 100.0).sum();
        let b = a.iter().sum::<f64>() + frac * (top - a.iter().sum::<f64>());
        let cmp = if *leq { Cmp::Leq } else { Cmp::Geq };
        let q = InequalityQuery::new(a.clone(), cmp, b).unwrap();
        let (want, got) = (set.query(&q).unwrap(), loaded.query(&q).unwrap());
        prop_assert_eq!(&got.matches, &want.matches);
        prop_assert_eq!(&got.served_by, &want.served_by);
        let tk = TopKQuery::new(q, 9).unwrap();
        let (want, got) = (set.top_k(&tk).unwrap(), loaded.top_k(&tk).unwrap());
        prop_assert_eq!(&got.served_by, &want.served_by);
        prop_assert_eq!(got.neighbors.len(), want.neighbors.len());
        for (g, w) in got.neighbors.iter().zip(&want.neighbors) {
            prop_assert_eq!(g.0, w.0);
            prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Saved and reloaded sharded sets answer like the writer.
    #[test]
    fn reloaded_sharded_set_answers_like_the_writer(s in scenario()) {
        for tier in [QuantTier::Off, QuantTier::I16] {
            run_reload(&s, tier);
        }
    }

    /// Sweep verdicts are sound and the planes stay exact under mutation,
    /// for both comparisons.
    #[test]
    fn box_sweep_is_sound_on_hostile_rows(s in sweep_scenario()) {
        run_sweep(&s);
    }

    #[test]
    fn box_settled_answers_equal_scan(s in scenario()) {
        for tier in [QuantTier::Off, QuantTier::I16] {
            run(&s, tier);
        }
    }
}
