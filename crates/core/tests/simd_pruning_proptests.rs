//! Property tests for the columnar feature store and multi-index
//! intersection pruning: for arbitrary tables, queries, quarantine
//! patterns, and stores, (1) the interleaved-block columnar layout must
//! agree bit-for-bit with the row-major layout — same gathered rows, same
//! fused compare masks — and (2) intersection pruning must never change an
//! answer, only shrink the verified set, for inequality and top-k queries
//! alike; (3) the block-mask verification path (candidate bitmap, whole-
//! block passes for dense blocks, per-run passes for sparse ones) returns
//! exactly the `SeqScan` answer in the canonical match order, for every
//! store, quantized tier, pruning setting, and thread count.

use planar_core::table::PointId;
use planar_core::{BPlusTree, VecStore};
use planar_core::{
    Cmp, Domain, ExecutionConfig, ExecutionPath, FeatureTable, IndexConfig, InequalityQuery,
    KeyStore, ParameterDomain, PlanarIndexSet, QuantPolicy, QuantTier, QueryScratch, SeqScan,
    TopKQuery,
};
use planar_geom::{dot_cmp_block, dot_slices};
use proptest::prelude::*;

/// A generated workload: a table folded into one sign octant (so the
/// indexed path, not just the scan fallback, is exercised), a batch of
/// queries, an index budget, and a quarantine bitmask.
#[derive(Debug, Clone)]
struct Scenario {
    dim: usize,
    rows: Vec<Vec<f64>>,
    signs: Vec<bool>,
    queries: Vec<(Vec<f64>, f64, Cmp)>,
    budget: usize,
    quarantine_mask: u32,
    min_candidates: usize,
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
                    1..8,
                ),
                // Budgets > 1 give the planner siblings to intersect with;
                // budget 1 checks the no-sibling degenerate case.
                1..8usize,
                any::<u32>(),
                // 1 forces classification on every candidate set; the
                // default exercises the cost-model skip.
                prop_oneof![Just(1usize), Just(64usize)],
                1..6usize,
            )
        })
        .prop_map(
            |(dim, mut rows, signs, raw_queries, budget, quarantine_mask, min_candidates, k)| {
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
                    quarantine_mask,
                    min_candidates,
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

/// Build the index set and quarantine the positions picked out by the
/// scenario's bitmask (possibly none, possibly all — the latter degrades
/// every query to the exact scan, which must also be pruning-neutral).
fn build_set<S: KeyStore>(s: &Scenario) -> PlanarIndexSet<S> {
    let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
    let mut set: PlanarIndexSet<S> =
        PlanarIndexSet::build(table, domain(s), IndexConfig::with_budget(s.budget)).unwrap();
    for pos in 0..set.num_indices() {
        if s.quarantine_mask & (1 << (pos % 32)) != 0 {
            set.quarantine(pos);
        }
    }
    set
}

fn ineq_queries(s: &Scenario) -> Vec<InequalityQuery> {
    s.queries
        .iter()
        .map(|(a, b, cmp)| InequalityQuery::new(a.clone(), *cmp, *b).unwrap())
        .collect()
}

/// Pruning forced on for every candidate set size vs forced off.
fn configs(s: &Scenario) -> (ExecutionConfig, ExecutionConfig) {
    let on = ExecutionConfig::serial().intersect_min_candidates(s.min_candidates);
    let off = ExecutionConfig::serial().intersect_pruning(false);
    (on, off)
}

fn check_inequality_pruning<S: KeyStore>(s: &Scenario) {
    let set: PlanarIndexSet<S> = build_set(s);
    let (on, off) = configs(s);
    let mut scratch = QueryScratch::new();
    for q in ineq_queries(s) {
        let plain = set.query_with(&q, &off, &mut scratch).unwrap();
        let pruned = set.query_with(&q, &on, &mut scratch).unwrap();
        // Same ids in the same canonical order.
        assert_eq!(pruned.matches, plain.matches);
        assert_eq!(plain.stats.intersect_pruned, 0);
        // Every candidate the pruned run skipped was settled, not lost.
        assert_eq!(
            pruned.stats.verified + pruned.stats.intersect_pruned,
            plain.stats.verified
        );
        assert_eq!(pruned.stats.matched, plain.stats.matched);
        assert_eq!(pruned.stats.intermediate, plain.stats.intermediate);
    }
}

fn check_top_k_pruning<S: KeyStore>(s: &Scenario) {
    let set: PlanarIndexSet<S> = build_set(s);
    let (on, off) = configs(s);
    let mut scratch = QueryScratch::new();
    for q in ineq_queries(s) {
        let q = TopKQuery::new(q, s.k).unwrap();
        let plain = set.top_k_with(&q, &off, &mut scratch).unwrap();
        let pruned = set.top_k_with(&q, &on, &mut scratch).unwrap();
        assert_eq!(pruned.neighbors.len(), plain.neighbors.len());
        for (p, w) in pruned.neighbors.iter().zip(&plain.neighbors) {
            assert_eq!(p.0, w.0);
            assert_eq!(
                p.1.to_bits(),
                w.1.to_bits(),
                "distances must be bit-identical"
            );
        }
        assert!(pruned.stats.verified <= plain.stats.verified);
    }
}

/// A workload for the block-mask verification path: several 64-row blocks
/// and a partial last one, values clustered so the intermediate intervals
/// fill some blocks densely (≥ 16 candidates) and others sparsely, and a
/// deletion pattern that leaves tombstones inside candidate blocks. Some
/// blocks repeat one row 64 times and some query hyperplanes pass through a
/// data row, so whole blocks can fall into the quantized filter's
/// uncertainty band (and top-k distances tie).
#[derive(Debug, Clone)]
struct BlockScenario {
    dim: usize,
    rows: Vec<Vec<f64>>,
    /// Row `i` is deleted when bit `i % 64` is set (applied after build).
    delete_mask: u64,
    queries: Vec<(Vec<f64>, f64, Cmp)>,
    budget: usize,
    k: usize,
}

fn block_scenario() -> impl Strategy<Value = BlockScenario> {
    (1..=4usize)
        .prop_flat_map(|dim| {
            (
                Just(dim),
                // 64·blocks + tail rows: never a multiple of 64.
                (0..5usize, 1..64usize),
                any::<u64>(),
                any::<u64>(),
                prop::collection::vec(
                    (
                        prop::collection::vec(0.1..10.0_f64, dim),
                        0.1..0.9_f64,
                        any::<usize>(),
                        any::<bool>(),
                    ),
                    1..6,
                ),
                1..5usize,
                1..12usize,
            )
        })
        .prop_map(|(dim, (blocks, tail), seed, delete_mask, raw, budget, k)| {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            // Rows jitter around per-block centres, so the rows of one
            // block tend to land in the same interval together; a quarter
            // of the blocks are one row repeated.
            let n = 64 * blocks + tail;
            let (mut centre, mut jitter) = (Vec::new(), 0.0);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    if i % 64 == 0 {
                        centre = (0..dim).map(|_| next() * 80.0).collect();
                        jitter = if next() < 0.25 { 0.0 } else { 20.0 };
                    }
                    centre.iter().map(|&c| c + jitter * next()).collect()
                })
                .collect();
            // Sparse deletions: at most a quarter of each block's lanes.
            let delete_mask = delete_mask & (delete_mask >> 1);
            let queries = raw
                .into_iter()
                .map(|(a, frac, pick, leq)| {
                    // Half the hyperplanes pass exactly through a row.
                    let b = if pick % 2 == 0 {
                        dot_slices(&a, &rows[pick / 2 % n])
                    } else {
                        frac * a.iter().sum::<f64>() * 100.0
                    };
                    (a, b, if leq { Cmp::Leq } else { Cmp::Geq })
                })
                .collect();
            BlockScenario {
                dim,
                rows,
                delete_mask,
                queries,
                budget,
                k,
            }
        })
}

/// Every verification configuration the block-mask path must be neutral
/// to: threads 1/2/3 (with the chunking threshold at 1, so chunks split the
/// bitmap on word boundaries) × intersection pruning on/off.
fn block_configs() -> Vec<ExecutionConfig> {
    let mut out = Vec::new();
    for threads in [1, 2, 3] {
        let base = ExecutionConfig::with_threads(threads).verify_threshold(1);
        out.push(base.intersect_min_candidates(1));
        out.push(base.intersect_pruning(false));
    }
    out
}

/// The canonical match order of an indexed answer: the chosen index's
/// wholesale-accepted interval in key order, then the intermediate
/// interval's matches in ascending id order.
fn canonical<S: KeyStore>(
    set: &PlanarIndexSet<S>,
    q: &InequalityQuery,
    pos: usize,
    smaller: usize,
    intermediate: usize,
) -> Vec<PointId> {
    let idx = set.index_at(pos).unwrap();
    let (j_min, j_max) = (smaller, smaller + intermediate);
    let mut out: Vec<PointId> = match q.cmp() {
        Cmp::Leq => idx.ids_in(0, j_min).collect(),
        Cmp::Geq => idx.ids_in(j_max, idx.len()).collect(),
    };
    let mut ii: Vec<PointId> = idx
        .ids_in(j_min, j_max)
        .filter(|&id| q.satisfies(set.table().row(id)))
        .collect();
    ii.sort_unstable();
    out.extend(ii);
    out
}

/// Top-k answers: `(id, distance)` ascending by `(distance, id)`.
type Neighbors = Vec<(PointId, f64)>;

fn check_block_masks<S: KeyStore>(s: &BlockScenario) {
    let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
    let domain = ParameterDomain::uniform_continuous(s.dim, 0.1, 10.0).unwrap();
    let mut set: PlanarIndexSet<S> =
        PlanarIndexSet::build(table, domain, IndexConfig::with_budget(s.budget)).unwrap();
    for id in 0..s.rows.len() {
        if s.delete_mask & (1 << (id % 64)) != 0 {
            set.delete_point(id as PointId).unwrap();
        }
    }
    let queries: Vec<InequalityQuery> = s
        .queries
        .iter()
        .map(|(a, b, cmp)| InequalityQuery::new(a.clone(), *cmp, *b).unwrap())
        .collect();
    // Oracle answers over the live rows: ascending ids, and the k nearest
    // satisfying rows by (distance, id).
    let scan = SeqScan::new(set.table());
    let oracle: Vec<(Vec<PointId>, Neighbors)> = queries
        .iter()
        .map(|q| {
            let want: Vec<PointId> = scan
                .evaluate(q)
                .unwrap()
                .into_iter()
                .filter(|&id| set.is_live(id))
                .collect();
            let mut top: Neighbors = want
                .iter()
                .map(|&id| (id, q.distance(set.table().row(id))))
                .collect();
            top.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
            top.truncate(s.k);
            (want, top)
        })
        .collect();
    for tier in [QuantTier::Off, QuantTier::I8, QuantTier::I16] {
        set.set_quant_policy(QuantPolicy::tier(tier));
        for (q, (want, want_top)) in queries.iter().zip(&oracle) {
            let top_q = TopKQuery::new(q.clone(), s.k).unwrap();
            for exec in block_configs() {
                let mut scratch = QueryScratch::new();
                let got = set.query_with(q, &exec, &mut scratch).unwrap();
                let mut sorted = got.matches.clone();
                sorted.sort_unstable();
                assert_eq!(&sorted, want, "{tier:?} {exec:?}");
                let st = &got.stats;
                if let ExecutionPath::Index { index } = st.path {
                    assert_eq!(
                        got.matches,
                        canonical(&set, q, index, st.smaller, st.intermediate),
                        "canonical order, {tier:?} {exec:?}"
                    );
                    assert_eq!(st.verified + st.intersect_pruned, st.intermediate);
                } else {
                    assert_eq!(&got.matches, want, "scan order, {tier:?} {exec:?}");
                }
                if tier == QuantTier::Off {
                    assert_eq!(st.quant.lanes, 0);
                } else {
                    assert_eq!(st.quant.lanes, st.verified, "{tier:?} {exec:?}");
                }

                let top = set.top_k_with(&top_q, &exec, &mut scratch).unwrap();
                assert_eq!(top.neighbors.len(), want_top.len(), "{tier:?} {exec:?}");
                for (g, w) in top.neighbors.iter().zip(want_top) {
                    assert_eq!(g.0, w.0, "{tier:?} {exec:?}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "{tier:?} {exec:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The columnar layout is a faithful mirror of the row store: every
    /// gathered row equals the row-major row, and the fused compare kernel
    /// over column segments reproduces the per-row scalar verdicts.
    #[test]
    fn columnar_layout_equals_row_major(s in scenario()) {
        let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
        let cols = table.columns();
        prop_assert!(cols.alignment_ok());
        let mut buf = vec![0.0; s.dim];
        for (id, row) in table.iter() {
            cols.gather_row(id as usize, &mut buf);
            for (a, b) in buf.iter().zip(row) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stride = cols.stride();
        for q in ineq_queries(&s) {
            let leq = q.cmp() == Cmp::Leq;
            for seg in cols.segments(0, table.len() as u32) {
                let mask = dot_cmp_block(q.a(), seg.cols, stride, seg.lanes, q.b(), leq);
                for lane in 0..seg.lanes {
                    let row = table.row(seg.first + lane as u32);
                    let want = q.satisfies_dot(dot_slices(q.a(), row));
                    prop_assert_eq!(
                        mask & (1 << lane) != 0,
                        want,
                        "lane {} of segment at row {}", lane, seg.first
                    );
                }
            }
        }
    }

    /// Intersection pruning never changes an inequality answer, on every
    /// store, under arbitrary quarantine patterns.
    #[test]
    fn pruned_inequality_equals_unpruned_vec_store(s in scenario()) {
        check_inequality_pruning::<VecStore>(&s);
    }

    #[test]
    fn pruned_inequality_equals_unpruned_bplus_tree(s in scenario()) {
        check_inequality_pruning::<BPlusTree>(&s);
    }

    /// Top-k with reject-only pruning returns bit-identical neighbors.
    #[test]
    fn pruned_top_k_equals_unpruned_vec_store(s in scenario()) {
        check_top_k_pruning::<VecStore>(&s);
    }

    #[test]
    fn pruned_top_k_equals_unpruned_bplus_tree(s in scenario()) {
        check_top_k_pruning::<BPlusTree>(&s);
    }

    /// The block-mask path equals `SeqScan` (canonical order, bit-exact
    /// top-k) on every store, quantized tier, pruning setting, and thread
    /// count, with tombstones inside candidate blocks.
    #[test]
    fn block_masks_equal_scan_vec_store(s in block_scenario()) {
        check_block_masks::<VecStore>(&s);
    }

    #[test]
    fn block_masks_equal_scan_bplus_tree(s in block_scenario()) {
        check_block_masks::<BPlusTree>(&s);
    }
}
