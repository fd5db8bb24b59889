//! Property tests for the quantized filter tier: for arbitrary tables,
//! queries, quarantine patterns, and mutation interleavings, a
//! store with quantization enabled must return **bit-identical** answers
//! to its unquantized twin — on the planar, sharded, durable, and
//! concurrent surfaces alike. The tier is a filter in front of exact
//! re-verification, so any divergence at all is a soundness bug, not a
//! precision tradeoff.

use planar_core::{
    BoxClass, Cmp, Domain, ExecutionConfig, FeatureTable, IndexConfig, InequalityQuery,
    ParameterDomain, PlanarIndexSet, QuantTier, QueryScratch, SeqScan, ServedBy, TopKQuery,
    VecStore,
};
use planar_core::{
    ConcurrencyConfig, ConcurrentDurableShardedIndexSet, ConcurrentShardedIndexSet, ShardConfig,
    ShardedIndexSet, TempDir, WalOptions,
};
use proptest::prelude::*;

/// One mutation against a store (ids are taken modulo the live range so
/// every generated op applies cleanly to both twins).
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<f64>),
    Update(usize, Vec<f64>),
    Delete(usize),
}

#[derive(Debug, Clone)]
struct Scenario {
    dim: usize,
    rows: Vec<Vec<f64>>,
    signs: Vec<bool>,
    queries: Vec<(Vec<f64>, f64, Cmp)>,
    ops: Vec<Op>,
    budget: usize,
    quarantine_mask: u32,
    k: usize,
}

/// Mixed magnitudes (1e-3 … 1e3) stress the per-dimension scale fitting;
/// the sign fold keeps every row in one octant so the indexed path (not
/// just the scan fallback) carries the filter.
fn scenario() -> impl Strategy<Value = Scenario> {
    (1..=4usize)
        .prop_flat_map(|dim| {
            (
                Just(dim),
                prop::collection::vec(prop::collection::vec(-1e3..1e3_f64, dim), 2..90),
                prop::collection::vec(any::<bool>(), dim),
                prop::collection::vec(
                    (
                        prop::collection::vec(0.001..10.0_f64, dim),
                        -3e3..3e3_f64,
                        any::<bool>(),
                    ),
                    1..8,
                ),
                prop::collection::vec(
                    prop_oneof![
                        prop::collection::vec(-1e3..1e3_f64, dim).prop_map(Op::Insert),
                        (any::<usize>(), prop::collection::vec(-1e3..1e3_f64, dim))
                            .prop_map(|(i, row)| Op::Update(i, row)),
                        any::<usize>().prop_map(Op::Delete),
                    ],
                    0..12,
                ),
                1..6usize,
                any::<u32>(),
                1..6usize,
            )
        })
        .prop_map(
            |(dim, mut rows, signs, raw_queries, mut ops, budget, quarantine_mask, k)| {
                let fold = |row: &mut Vec<f64>, signs: &[bool]| {
                    for (v, &pos) in row.iter_mut().zip(signs) {
                        *v = if pos { v.abs() } else { -v.abs() };
                    }
                };
                for row in &mut rows {
                    fold(row, &signs);
                }
                for op in &mut ops {
                    match op {
                        Op::Insert(row) | Op::Update(_, row) => fold(row, &signs),
                        Op::Delete(_) => {}
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
                    ops,
                    budget,
                    quarantine_mask,
                    k,
                }
            },
        )
}

fn domain(s: &Scenario) -> ParameterDomain {
    ParameterDomain::new(
        s.signs
            .iter()
            .map(|&pos| {
                if pos {
                    Domain::Continuous {
                        lo: 0.001,
                        hi: 10.0,
                    }
                } else {
                    Domain::Continuous {
                        lo: -10.0,
                        hi: -0.001,
                    }
                }
            })
            .collect(),
    )
    .unwrap()
}

fn build_planar(s: &Scenario) -> PlanarIndexSet<VecStore> {
    let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
    let mut set: PlanarIndexSet<VecStore> =
        PlanarIndexSet::build(table, domain(s), IndexConfig::with_budget(s.budget)).unwrap();
    for pos in 0..set.num_indices() {
        if s.quarantine_mask & (1 << (pos % 32)) != 0 {
            set.quarantine(pos);
        }
    }
    set
}

/// The scenario as a one-shard engine (the unsharded engine the durable
/// and concurrent layers wrap), with the same quarantine mask.
fn build_single(s: &Scenario) -> ShardedIndexSet<VecStore> {
    let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
    let mut set: ShardedIndexSet<VecStore> = ShardedIndexSet::build(
        table,
        domain(s),
        IndexConfig::with_budget(s.budget),
        ShardConfig::round_robin(1),
    )
    .unwrap();
    let indices = set.shard(0).unwrap().num_indices();
    for pos in 0..indices {
        if s.quarantine_mask & (1 << (pos % 32)) != 0 {
            set.quarantine(0, pos);
        }
    }
    set
}

/// Resolve an op's folded id against the `total` ids assigned so far
/// (global ids are sequential from the initial row count).
fn op_id(i: usize, total: usize) -> u32 {
    (i % total) as u32
}

fn ineq_queries(s: &Scenario) -> Vec<InequalityQuery> {
    s.queries
        .iter()
        .map(|(a, b, cmp)| InequalityQuery::new(a.clone(), *cmp, *b).unwrap())
        .collect()
}

/// Apply one op to a planar set (ids folded into the current table range;
/// deletes of dead ids are skipped the same way on both twins).
fn apply_planar(set: &mut PlanarIndexSet<VecStore>, op: &Op) {
    match op {
        Op::Insert(row) => {
            set.insert_point(row).unwrap();
        }
        Op::Update(i, row) => {
            let id = (*i % set.table().len()) as u32;
            if set.is_live(id) {
                set.update_point(id, row).unwrap();
            }
        }
        Op::Delete(i) => {
            let id = (*i % set.table().len()) as u32;
            if set.is_live(id) {
                set.delete_point(id).unwrap();
            }
        }
    }
}

fn assert_same_answers(
    plain: &PlanarIndexSet<VecStore>,
    quant: &PlanarIndexSet<VecStore>,
    s: &Scenario,
) {
    let queries = ineq_queries(s);
    for q in &queries {
        let p = plain.query(q).unwrap();
        let x = quant.query(q).unwrap();
        assert_eq!(p.matches, x.matches, "inequality answers diverged");
        // The filter never changes what counts as verified work: every
        // lane it settles or re-verifies was a candidate either way.
        assert_eq!(p.stats.matched, x.stats.matched);
        // Scan oracle agrees with both (modulo traversal order).
        assert_eq!(p.sorted_ids(), plain.query_scan(q).unwrap().sorted_ids());
    }
    let batch: Vec<TopKQuery> = queries
        .iter()
        .map(|q| TopKQuery::new(q.clone(), s.k).unwrap())
        .collect();
    for q in &batch {
        let p = plain.top_k(q).unwrap();
        let x = quant.top_k(q).unwrap();
        assert_eq!(p.neighbors.len(), x.neighbors.len());
        for (a, b) in p.neighbors.iter().zip(&x.neighbors) {
            assert_eq!(a.0, b.0);
            assert_eq!(
                a.1.to_bits(),
                b.1.to_bits(),
                "margins must be bit-identical"
            );
        }
    }
    let p = plain
        .query_batch(&queries, &planar_core::ExecutionConfig::serial())
        .unwrap();
    let x = quant
        .query_batch(&queries, &planar_core::ExecutionConfig::serial())
        .unwrap();
    for (a, b) in p.iter().zip(&x) {
        assert_eq!(a.matches, b.matches, "batch answers diverged");
    }
}

/// The scenario's rows tiled `copies` times, each copy scaled by a
/// slightly different factor (same octant), so the table spans several
/// 64-row blocks and intermediate intervals fill whole blocks densely —
/// the whole-block classify path — as well as sparsely.
fn tiled(s: &Scenario, copies: usize) -> Scenario {
    let mut t = s.clone();
    t.rows = (0..copies)
        .flat_map(|c| {
            s.rows
                .iter()
                .map(move |row| row.iter().map(|v| v * (1.0 + 0.01 * c as f64)).collect())
        })
        .collect();
    t
}

/// Block-mask verification under the quantized tier: the planar twins
/// answer identically for every thread count (chunks split the candidate
/// bitmap on word boundaries), and the filter counts exactly the verified
/// candidate lanes.
fn assert_same_block_answers(
    plain: &PlanarIndexSet<VecStore>,
    quant: &PlanarIndexSet<VecStore>,
    s: &Scenario,
) {
    for threads in [1, 2, 3] {
        let exec = ExecutionConfig::with_threads(threads).verify_threshold(1);
        let mut scratch = QueryScratch::new();
        for q in ineq_queries(s) {
            let p = plain.query_with(&q, &exec, &mut scratch).unwrap();
            let x = quant.query_with(&q, &exec, &mut scratch).unwrap();
            assert_eq!(p.matches, x.matches, "threads={threads}");
            // Without boxes every candidate is verified. With them, a query
            // the box decides (the fill skipped) verifies exactly the live
            // lanes of the blocks the sweep left mixed, and any other
            // verifies at most its interval.
            assert_eq!(p.stats.verified, p.stats.intermediate, "{:?}", p.stats);
            if x.stats.fill_skipped == 1 {
                assert_eq!(
                    x.stats.verified,
                    mixed_live_lanes(quant, &q),
                    "{:?}",
                    x.stats
                );
            } else {
                assert!(x.stats.verified <= x.stats.intermediate, "{:?}", x.stats);
            }
            if x.stats.quant.tier != QuantTier::Off {
                assert_eq!(x.stats.quant.lanes, x.stats.verified, "{:?}", x.stats);
            }
            let k = TopKQuery::new(q, s.k).unwrap();
            let pt = plain.top_k_with(&k, &exec, &mut scratch).unwrap();
            let xt = quant.top_k_with(&k, &exec, &mut scratch).unwrap();
            assert_eq!(pt.neighbors.len(), xt.neighbors.len());
            for (a, b) in pt.neighbors.iter().zip(&xt.neighbors) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }
}

/// The live lanes of the blocks `set`'s box sweep leaves mixed for `q`.
fn mixed_live_lanes(set: &PlanarIndexSet<VecStore>, q: &InequalityQuery) -> usize {
    let table = set.table();
    let quant = table.quant().expect("the box path needs a tier");
    let mut boxes = Vec::new();
    quant.box_sweep(q, 0..quant.blocks(), &mut boxes);
    (0..table.len())
        .filter(|&slot| boxes[slot / 64] == BoxClass::Mixed)
        .filter(|&slot| set.is_live(table.id_at(slot as u32)))
        .count()
}

/// Every tier the top-k property runs under.
fn any_tier() -> impl Strategy<Value = QuantTier> {
    prop_oneof![Just(QuantTier::Off), Just(QuantTier::I16)]
}

/// The scenario reshaped for the top-k property: its rows tiled `copies`
/// times with copies paired up exactly (so distances tie exactly and only
/// the id breaks the tie), column `const_col` (when `< dim`) held at one
/// value, two grazing queries per scenario query, and, when `huge`, 64
/// rows of magnitude ~1e300 appended — a block whose code scale overflows
/// the classifier's guard, so it is served by the exact fallback.
fn top_k_rows(s: &Scenario, copies: usize, const_col: usize, huge: bool) -> Scenario {
    let mut t = s.clone();
    t.rows = (0..copies)
        .flat_map(|c| {
            let f = 1.0 + 0.01 * (c / 2) as f64;
            s.rows
                .iter()
                .map(move |row| row.iter().map(|v| v * f).collect())
        })
        .collect();
    if const_col < s.dim {
        let v = if s.signs[const_col] { 7.5 } else { -7.5 };
        for row in &mut t.rows {
            row[const_col] = v;
        }
    }
    // Grazing queries: each hyperplane passes within one ulp of a data
    // row, on either side, so the row lands in the classifier's band and
    // is nearest the hyperplane whether or not it satisfies the predicate.
    let grazing: Vec<_> = s
        .queries
        .iter()
        .enumerate()
        .flat_map(|(i, (a, _, cmp))| {
            let row = &t.rows[i % t.rows.len()];
            let dot: f64 = a.iter().zip(row).map(|(x, y)| x * y).sum();
            [dot.next_down(), dot.next_up()].map(|b| (a.clone(), b, *cmp))
        })
        .collect();
    t.queries.extend(grazing);
    if huge {
        t.rows.extend((0..64).map(|l| {
            s.signs
                .iter()
                .map(|&pos| {
                    let m = 1e300 * (1.0 + l as f64 / 64.0);
                    if pos {
                        m
                    } else {
                        -m
                    }
                })
                .collect::<Vec<f64>>()
        }));
    }
    t
}

/// `SeqScan::top_k` over the live rows of `set` only: the live rows, in
/// ascending id order, form a fresh table whose dense ids map back
/// monotonically, so `(distance, id)` ties break the same way.
fn live_scan_top_k(set: &PlanarIndexSet<VecStore>, q: &TopKQuery) -> Vec<(u32, u64)> {
    let live: Vec<u32> = (0..set.table().len() as u32)
        .filter(|&id| set.is_live(id))
        .collect();
    let rows = live.iter().map(|&id| set.table().row(id).to_vec());
    let table = FeatureTable::from_rows(set.table().dim(), rows).unwrap();
    SeqScan::new(&table)
        .top_k(q)
        .unwrap()
        .into_iter()
        .map(|(i, d)| (live[i as usize], d.to_bits()))
        .collect()
}

/// Top-k on the indexed and the degraded twin equals the live-row scan
/// bit for bit, for `k` of 1, 7 and more than the live rows, at 1–3
/// threads; the filter counts every verified lane exactly once.
fn assert_top_k_equals_scan(
    indexed: &PlanarIndexSet<VecStore>,
    degraded: &PlanarIndexSet<VecStore>,
    s: &Scenario,
) {
    let tier = indexed.quant_tier();
    for q in ineq_queries(s) {
        for k in [1, 7, indexed.len() + 3] {
            let q = TopKQuery::new(q.clone(), k).unwrap();
            let want = live_scan_top_k(indexed, &q);
            for threads in [1, 2, 3] {
                let exec = ExecutionConfig::with_threads(threads).verify_threshold(1);
                let mut scratch = QueryScratch::new();
                for (set, is_degraded) in [(indexed, false), (degraded, true)] {
                    let out = set.top_k_with(&q, &exec, &mut scratch).unwrap();
                    let got: Vec<(u32, u64)> = out
                        .neighbors
                        .iter()
                        .map(|&(id, d)| (id, d.to_bits()))
                        .collect();
                    assert_eq!(
                        got, want,
                        "{tier:?} k={k} threads={threads} degraded={is_degraded}"
                    );
                    assert_eq!(out.served_by == ServedBy::Degraded, is_degraded);
                    let st = out.stats.quant;
                    assert_eq!(st.tier, tier, "{:?}", out.stats);
                    if tier == QuantTier::Off {
                        assert_eq!(st.lanes, 0, "{:?}", out.stats);
                    } else {
                        // Every verified candidate lane entered the filter;
                        // the walk computes the rest.
                        let lanes = out.stats.verified - out.stats.walked;
                        assert_eq!(st.lanes, lanes, "{:?}", out.stats);
                        assert_eq!(
                            st.accepted + st.rejected + st.reverified + st.fallback,
                            st.lanes,
                            "{:?}",
                            out.stats
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Planar twins: identical builds, one quantized — identical answers
    /// for inequality, top-k, and batches, before and after an arbitrary
    /// mutation interleaving (which exercises incremental block re-encode
    /// on update and appended-block sync on insert).
    #[test]
    fn quantized_planar_equals_unquantized(s in scenario()) {
        let plain = build_planar(&s);
        let mut quant = build_planar(&s);
        quant.set_quant_tier(QuantTier::I16);
        assert_same_answers(&plain, &quant, &s);

        let mut plain = plain;
        for op in &s.ops {
            apply_planar(&mut plain, op);
            apply_planar(&mut quant, op);
        }
        prop_assert_eq!(quant.quant_tier(), QuantTier::I16, "mutations must not drop the tier");
        assert_same_answers(&plain, &quant, &s);
    }

    /// Sharded twins, with the tier installed via the sharded forwarding
    /// API and threshold-gated compaction (which applies the size rule to
    /// each compacted shard).
    #[test]
    fn quantized_sharded_equals_unquantized(s in scenario()) {
        let shards = 1 + s.budget % 3;
        if s.rows.len() < shards * 2 {
            return;
        }
        let build = || -> ShardedIndexSet<VecStore> {
            ShardedIndexSet::build(
                FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap(),
                domain(&s),
                IndexConfig::with_budget(s.budget),
                ShardConfig::round_robin(shards),
            )
            .unwrap()
        };
        let mut plain = build();
        let mut quant = build();
        quant.set_quant_tier(QuantTier::I16);

        // Global ids are assigned sequentially from the initial row count,
        // so tracking inserts locally reproduces the valid id range.
        let mut total = s.rows.len();
        for op in &s.ops {
            match op {
                Op::Insert(row) => {
                    plain.insert_point(row).unwrap();
                    quant.insert_point(row).unwrap();
                    total += 1;
                }
                Op::Update(i, row) => {
                    let id = (*i % total) as u32;
                    if plain.is_live(id) {
                        plain.update_point(id, row).unwrap();
                        quant.update_point(id, row).unwrap();
                    }
                }
                Op::Delete(i) => {
                    let id = (*i % total) as u32;
                    if plain.is_live(id) {
                        plain.delete_point(id).unwrap();
                        quant.delete_point(id).unwrap();
                    }
                }
            }
        }
        plain.compact(0.3);
        quant.compact(0.3);

        for q in ineq_queries(&s) {
            let p = plain.query(&q).unwrap();
            let x = quant.query(&q).unwrap();
            prop_assert_eq!(p.sorted_ids(), x.sorted_ids(), "sharded answers diverged");
            let k = TopKQuery::new(q, s.k).unwrap();
            let pt = plain.top_k(&k).unwrap();
            let xt = quant.top_k(&k).unwrap();
            prop_assert_eq!(pt.neighbors.len(), xt.neighbors.len());
            for (a, b) in pt.neighbors.iter().zip(&xt.neighbors) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    /// Durable twins: the tier survives checkpoint → reopen (persisted
    /// as a flag bit, mirror re-encoded from parsed rows), and answers
    /// stay identical through WAL-logged mutations on both sides of the
    /// restart.
    #[test]
    fn quantized_durable_equals_unquantized(s in scenario()) {
        let dir_p = TempDir::new("quant-prop-plain").unwrap();
        let dir_q = TempDir::new("quant-prop-quant").unwrap();
        let create = |dir: &TempDir, set| {
            ConcurrentDurableShardedIndexSet::create(
                dir.path(),
                set,
                WalOptions::default(),
                ConcurrencyConfig::default(),
            )
            .unwrap()
        };
        let plain = create(&dir_p, build_single(&s));
        let mut quantized = build_single(&s);
        quantized.set_quant_tier(QuantTier::I16);
        let quant = create(&dir_q, quantized);

        let mut total = s.rows.len();
        for op in &s.ops {
            match op {
                Op::Insert(row) => {
                    plain.insert_point(row).unwrap();
                    quant.insert_point(row).unwrap();
                    total += 1;
                }
                Op::Update(i, row) => {
                    let id = op_id(*i, total);
                    if plain.snapshot().is_live(id) {
                        plain.update_point(id, row).unwrap();
                        quant.update_point(id, row).unwrap();
                    }
                }
                Op::Delete(i) => {
                    let id = op_id(*i, total);
                    if plain.snapshot().is_live(id) {
                        plain.delete_point(id).unwrap();
                        quant.delete_point(id).unwrap();
                    }
                }
            }
        }
        // Checkpoint applies the size rule; whatever tier it lands on,
        // answers must not move.
        plain.checkpoint().unwrap();
        quant.checkpoint().unwrap();
        drop((plain, quant));
        let open = |dir: &TempDir| {
            ConcurrentDurableShardedIndexSet::<VecStore>::open(
                dir.path(),
                WalOptions::default(),
                ConcurrencyConfig::default(),
            )
            .unwrap()
            .0
        };
        let (plain, quant) = (open(&dir_p).snapshot(), open(&dir_q).snapshot());
        for q in ineq_queries(&s) {
            let p = plain.query(&q).unwrap();
            let x = quant.query(&q).unwrap();
            prop_assert_eq!(p.matches, x.matches, "durable answers diverged after reopen");
        }
    }

    /// Concurrent twins: tier installed through the epoch-published
    /// wrapper (copy-on-publish clones carry the quantized mirror), with
    /// mutations interleaved between query rounds.
    #[test]
    fn quantized_concurrent_equals_unquantized(s in scenario()) {
        let plain = ConcurrentShardedIndexSet::new(build_single(&s), ConcurrencyConfig::default());
        let quant = ConcurrentShardedIndexSet::new(build_single(&s), ConcurrencyConfig::default());
        quant.set_quant_tier(QuantTier::I16);

        let check = |round: &str| {
            let ps = plain.snapshot();
            let qs = quant.snapshot();
            for q in ineq_queries(&s) {
                let p = ps.query(&q).unwrap();
                let x = qs.query(&q).unwrap();
                assert_eq!(p.matches, x.matches, "concurrent answers diverged ({round})");
            }
        };
        check("pre-mutation");
        let mut total = s.rows.len();
        for op in &s.ops {
            match op {
                Op::Insert(row) => {
                    plain.insert_point(row).unwrap();
                    quant.insert_point(row).unwrap();
                    total += 1;
                }
                Op::Update(i, row) => {
                    let id = op_id(*i, total);
                    if plain.snapshot().is_live(id) {
                        plain.update_point(id, row).unwrap();
                        quant.update_point(id, row).unwrap();
                    }
                }
                Op::Delete(i) => {
                    let id = op_id(*i, total);
                    if plain.snapshot().is_live(id) {
                        plain.delete_point(id).unwrap();
                        quant.delete_point(id).unwrap();
                    }
                }
            }
        }
        plain.publish();
        quant.publish();
        check("post-mutation");
        // Retune applies the size rule and re-publishes; whatever tier it
        // picks, answers must hold.
        quant.retune_quantization();
        check("post-retune");
    }

    /// Multi-block planar twins, before and after mutations that leave
    /// tombstones inside candidate blocks: quantized ≡ unquantized through
    /// the block-mask path for every thread count and pruning setting.
    #[test]
    fn quantized_block_masks_equal_unquantized(s in scenario(), copies in 2..6usize) {
        let s = tiled(&s, copies);
        let plain = build_planar(&s);
        let mut quant = build_planar(&s);
        quant.set_quant_tier(QuantTier::I16);
        assert_same_block_answers(&plain, &quant, &s);

        let mut plain = plain;
        for op in &s.ops {
            apply_planar(&mut plain, op);
            apply_planar(&mut quant, op);
        }
        assert_same_block_answers(&plain, &quant, &s);
    }

    /// Quantized top-k ≡ the live-row scan: ids and bit-exact distances
    /// under both tiers, through the indexed path and the
    /// degraded path (every index quarantined), with a forced-fallback
    /// block, a constant column and exact ties, before and after inserts,
    /// updates and deletes re-encode quant blocks.
    #[test]
    fn quantized_top_k_equals_scan(
        s in scenario(),
        copies in 2..5usize,
        const_col in 0..8usize,
        huge in any::<u8>(),
        tier in any_tier(),
    ) {
        let huge = huge.is_multiple_of(3);
        let s = top_k_rows(&s, copies, const_col, huge);
        let build = || {
            let table = FeatureTable::from_rows(s.dim, s.rows.clone()).unwrap();
            let mut set: PlanarIndexSet<VecStore> =
                PlanarIndexSet::build(table, domain(&s), IndexConfig::with_budget(s.budget))
                    .unwrap();
            set.set_quant_tier(tier);
            set
        };
        let mut indexed = build();
        let mut degraded = build();
        for pos in 0..degraded.num_indices() {
            degraded.quarantine(pos);
        }
        if huge && tier != QuantTier::Off {
            // The degraded scan classifies the huge rows' block whole, and
            // its code scale overflows the guard: every lane falls back.
            let q = TopKQuery::new(ineq_queries(&s)[0].clone(), 1).unwrap();
            let st = degraded.top_k(&q).unwrap().stats.quant;
            prop_assert!(st.fallback >= 64, "{:?}", st);
        }
        assert_top_k_equals_scan(&indexed, &degraded, &s);

        for op in &s.ops {
            apply_planar(&mut indexed, op);
            apply_planar(&mut degraded, op);
        }
        assert_top_k_equals_scan(&indexed, &degraded, &s);
    }
}
