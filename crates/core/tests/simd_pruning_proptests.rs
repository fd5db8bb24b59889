//! Property tests for the columnar feature store and the block-mask
//! verification path: for arbitrary tables, queries, and stores, (1) the
//! interleaved-block columnar layout must agree bit-for-bit with the
//! row-major layout — same gathered rows, same fused compare masks — and
//! (2) the block-mask verification path (candidate bitmap, whole-block
//! passes for dense blocks, per-lane passes for sparse ones, blocks
//! settled by their bounding box) returns exactly the `SeqScan` answer in
//! ascending id order, verifying every intermediate-interval candidate
//! the boxes leave open, for every quantized tier and thread count.

use planar_core::table::PointId;
use planar_core::VecStore;
use planar_core::{
    BoxClass, Cmp, ExecutionConfig, ExecutionPath, FeatureTable, IndexConfig, InequalityQuery,
    KeyStore, ParameterDomain, PlanarIndexSet, QuantTier, QueryScratch, SeqScan, ServedBy,
    TopKQuery,
};
use planar_geom::{dot_cmp_block, dot_slices};
use proptest::prelude::*;

/// A generated workload: a table folded into one sign octant and a batch
/// of queries in the same octant.
#[derive(Debug, Clone)]
struct Scenario {
    dim: usize,
    rows: Vec<Vec<f64>>,
    queries: Vec<(Vec<f64>, f64, Cmp)>,
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
            )
        })
        .prop_map(|(dim, mut rows, signs, raw_queries)| {
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
            Scenario { dim, rows, queries }
        })
}

fn ineq_queries(s: &Scenario) -> Vec<InequalityQuery> {
    s.queries
        .iter()
        .map(|(a, b, cmp)| InequalityQuery::new(a.clone(), *cmp, *b).unwrap())
        .collect()
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
/// to: threads 1/2/3, with the chunking threshold at 1 so chunks split the
/// bitmap on word boundaries (the quantized tiers are the other axis, set
/// on the index set).
fn block_configs() -> Vec<ExecutionConfig> {
    [1, 2, 3]
        .map(|threads| ExecutionConfig::with_threads(threads).verify_threshold(1))
        .to_vec()
}

/// Top-k answers: `(id, distance)` ascending by `(distance, id)`.
type Neighbors = Vec<(PointId, f64)>;

/// The live lanes of the blocks `set`'s box sweep leaves mixed for `q`.
fn mixed_live_lanes<S: KeyStore>(set: &PlanarIndexSet<S>, q: &InequalityQuery) -> usize {
    let table = set.table();
    let quant = table.quant().expect("the box path needs a tier");
    let mut boxes = Vec::new();
    quant.box_sweep(q, 0..quant.blocks(), &mut boxes);
    (0..table.len())
        .filter(|&slot| boxes[slot / 64] == BoxClass::Mixed)
        .filter(|&slot| set.is_live(table.id_at(slot as u32)))
        .count()
}

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
    for tier in [QuantTier::Off, QuantTier::I16] {
        set.set_quant_tier(tier);
        for (q, (want, want_top)) in queries.iter().zip(&oracle) {
            let top_q = TopKQuery::new(q.clone(), s.k).unwrap();
            for exec in block_configs() {
                let mut scratch = QueryScratch::new();
                let got = set.query_with(q, &exec, &mut scratch).unwrap();
                // Canonical order: ascending ids on every path.
                assert_eq!(&got.matches, want, "{tier:?} {exec:?}");
                let st = &got.stats;
                if let ExecutionPath::Index { .. } = st.path {
                    // Without boxes the chosen index's whole intermediate
                    // interval is verified. With them, a query the box
                    // decides (the fill skipped) verifies exactly the live
                    // lanes of the blocks the sweep left mixed, and one that
                    // fills verifies at most its interval.
                    if tier == QuantTier::Off {
                        assert_eq!(st.verified, st.intermediate, "{tier:?} {exec:?}");
                    } else if st.fill_skipped == 1 {
                        let mixed = mixed_live_lanes(&set, q);
                        assert_eq!(st.verified, mixed, "{tier:?} {exec:?}");
                    } else {
                        assert!(st.verified <= st.intermediate, "{tier:?} {exec:?}");
                    }
                    assert_eq!(st.intersect_pruned, 0, "{tier:?} {exec:?}");
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
                if let ServedBy::Index(_) = top.served_by {
                    let ts = &top.stats;
                    let lanes = ts.verified - ts.walked;
                    if tier == QuantTier::Off {
                        assert_eq!(lanes, ts.intermediate, "{tier:?} {exec:?}");
                    } else {
                        assert!(lanes <= ts.intermediate, "{tier:?} {exec:?}");
                        assert_eq!(ts.quant.lanes, lanes, "{tier:?} {exec:?}");
                    }
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

    /// The block-mask path equals `SeqScan` (ascending ids, bit-exact
    /// top-k) on every quantized tier and thread count, with
    /// tombstones inside candidate blocks.
    #[test]
    fn block_masks_equal_scan_vec_store(s in block_scenario()) {
        check_block_masks::<VecStore>(&s);
    }
}
