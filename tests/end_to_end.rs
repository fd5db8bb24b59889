//! Cross-crate integration: datasets from `planar-datagen` flow through the
//! `planar-core` index and always agree with the sequential scan.

use planar::planar_core::table::PointId;
use planar::planar_datagen::consumption::{
    consumption_domain, critical_consume_query, ConsumptionGenerator,
};
use planar::planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar::planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar::planar_datagen::{cmoment, ctexture};
use planar::prelude::*;

fn assert_index_equals_scan(table: FeatureTable, domain: ParameterDomain, rq: usize, seed: u64) {
    let scan_table = table.clone();
    let set: PlanarIndexSet =
        PlanarIndexSet::build(table, domain, IndexConfig::with_budget(20).seed(seed))
            .expect("build");
    let scan = SeqScan::new(&scan_table);
    let mut generator = Eq18Generator::new(set.table(), rq, seed);
    for q in generator.queries(10) {
        let out = set.query(&q).expect("query");
        assert!(out.stats.used_index(), "indexed path expected");
        assert_eq!(out.sorted_ids(), scan.evaluate(&q).expect("scan"));
        // Top-k agrees too.
        let tk = TopKQuery::new(q, 7).expect("k");
        assert_eq!(
            set.top_k(&tk).expect("top_k").neighbors,
            scan.top_k(&tk).expect("scan top_k")
        );
    }
}

#[test]
fn synthetic_datasets_all_kinds_and_dims() {
    for kind in SyntheticKind::ALL {
        for dim in [2usize, 6, 10] {
            let table = SyntheticConfig::paper(kind, 3_000, dim).generate();
            for rq in [2usize, 8] {
                assert_index_equals_scan(table.clone(), eq18_domain(dim, rq), rq, 17);
            }
        }
    }
}

#[test]
fn image_datasets_exercise_octant_translation() {
    // CMoment has negative feature values: the §4.5 translation must kick
    // in and stay exact.
    let cm = cmoment(4_000, 3);
    assert!(cm.iter().any(|(_, row)| row.iter().any(|&v| v < 0.0)));
    assert_index_equals_scan(cm, eq18_domain(9, 4), 4, 5);

    let ct = ctexture(4_000, 3);
    assert_index_equals_scan(ct, eq18_domain(16, 4), 4, 5);
}

#[test]
fn consumption_sql_function_full_pipeline() {
    let table = ConsumptionGenerator::new(5_000).feature_table();
    let scan_table = table.clone();
    let set: PlanarIndexSet =
        PlanarIndexSet::build(table, consumption_domain(), IndexConfig::with_budget(30))
            .expect("build");
    let scan = SeqScan::new(&scan_table);
    for threshold in [0.1, 0.33, 0.501, 0.75, 0.999] {
        let q = critical_consume_query(threshold);
        let out = set.query(&q).expect("query");
        assert!(out.stats.used_index(), "threshold {threshold}");
        assert_eq!(out.sorted_ids(), scan.evaluate(&q).expect("scan"));
    }
}

#[test]
fn feature_map_pipeline_via_facade() {
    // Raw points → φ → index, all through the umbrella crate's prelude.
    let raw: Vec<Vec<f64>> = (0..500)
        .map(|i| vec![(i % 17) as f64 + 1.0, (i % 23) as f64 + 1.0])
        .collect();
    let phi = FnFeatureMap::new(2, 3, |x, out| {
        out[0] = x[0];
        out[1] = x[1];
        out[2] = x[0] * x[1];
    });
    let table = phi.map_all(raw.iter().map(|p| p.as_slice())).expect("map");
    let domain = ParameterDomain::uniform_continuous(3, 0.5, 2.0).expect("domain");
    let scan_table = table.clone();
    let set: PlanarIndexSet =
        PlanarIndexSet::build(table, domain, IndexConfig::with_budget(8)).expect("build");
    let q = InequalityQuery::leq(vec![1.0, 1.0, 0.7], 150.0).expect("query");
    assert_eq!(
        set.query(&q).expect("query").sorted_ids(),
        SeqScan::new(&scan_table).evaluate(&q).expect("scan")
    );
}

#[test]
fn dynamic_workload_over_synthetic_data() {
    // Build over half the dataset, stream in the rest, mutate, stay exact.
    let table = SyntheticConfig::paper(SyntheticKind::Correlated, 2_000, 4).generate();
    let rows: Vec<Vec<f64>> = table.iter().map(|(_, r)| r.to_vec()).collect();
    let initial = FeatureTable::from_rows(4, rows[..1_000].to_vec()).expect("table");
    let mut set: PlanarIndexSet =
        PlanarIndexSet::build(initial, eq18_domain(4, 4), IndexConfig::with_budget(10))
            .expect("build");
    for row in &rows[1_000..] {
        set.insert_point(row).expect("insert");
    }
    for id in (0..2_000u32).step_by(37) {
        set.delete_point(id).expect("delete");
    }
    for id in (1..2_000u32).step_by(41) {
        if id % 37 != 0 {
            set.update_point(id, &[50.0, 50.0, 50.0, 50.0])
                .expect("update");
        }
    }
    let mut generator = Eq18Generator::new(set.table(), 4, 23);
    for q in generator.queries(10) {
        let indexed = set.query(&q).expect("query").sorted_ids();
        let scanned = set.query_scan(&q).expect("scan").sorted_ids();
        assert_eq!(indexed, scanned);
    }
}

#[test]
fn sharded_quantized_block_masks_equal_scan() {
    // The served configuration at small scale: a 4-shard pilot-key-range
    // engine retuned to the I16 quantized tier, so Eq. 18 queries verify
    // their intermediate intervals through the per-block candidate masks
    // and the whole-block quantized classify.
    let (dim, rq) = (8, 4);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, 20_000, dim).generate();
    let scan_table = table.clone();
    let mut set = ShardedIndexSet::<VecStore>::build(
        table,
        eq18_domain(dim, rq),
        IndexConfig::with_budget(16),
        ShardConfig::pilot_key_range(4),
    )
    .expect("build");
    for policy in set.retune_quantization(&QuantAutotuneConfig::default()) {
        assert_eq!(policy.tier, QuantTier::I16);
    }
    let scan = SeqScan::new(&scan_table);
    let queries = Eq18Generator::new(&scan_table, rq, 5)
        .with_inequality_parameter(0.25)
        .queries(24);
    let mut filtered = 0;
    for exec in [
        ExecutionConfig::serial(),
        ExecutionConfig::with_threads(2).verify_threshold(1),
    ] {
        let mut scratch = QueryScratch::new();
        for q in &queries {
            let out = set.query_with(q, &exec, &mut scratch).expect("query");
            assert_eq!(out.sorted_ids(), scan.evaluate(q).expect("scan"));
            let stats = out.merged_stats();
            assert_eq!(stats.quant.lanes, stats.verified);
            filtered += stats.quant.lanes - stats.quant.fallback;
            let tk = TopKQuery::new(q.clone(), 10).expect("k");
            assert_eq!(
                set.top_k_with(&tk, &exec, &mut scratch)
                    .expect("top_k")
                    .neighbors,
                scan.top_k(&tk).expect("scan top_k")
            );
        }
        let batch = set.query_batch(&queries, &exec).expect("batch");
        for (out, q) in batch.iter().zip(&queries) {
            assert_eq!(out.sorted_ids(), scan.evaluate(q).expect("scan"));
        }
    }
    assert!(
        filtered > 0,
        "the quantized filter must classify some lanes"
    );
}

#[test]
fn index_selection_does_not_depend_on_the_data() {
    // Stretch minimization (§5.1) picks each shard's index from its normals
    // and the query alone, so inserts, updates and deletes inside the data
    // range never change a query's per-shard `ServedBy`. Canonical answers
    // recorded once and replica ≡ primary both rely on this; a selection
    // that reads the data (exact interval counts) would break it.
    let (dim, rq) = (8, 4);
    let generated = SyntheticConfig::paper(SyntheticKind::Independent, 12_000, dim).generate();
    let mut rows: Vec<Vec<f64>> = generated.iter().map(|(_, r)| r.to_vec()).collect();
    let spare = rows.split_off(10_000);
    let initial = FeatureTable::from_rows(dim, rows.clone()).expect("table");
    let queries = Eq18Generator::new(&initial, rq, 9)
        .with_inequality_parameter(0.25)
        .queries(24);
    let mut set = ShardedIndexSet::<VecStore>::build(
        initial,
        eq18_domain(dim, rq),
        IndexConfig::with_budget(16).strategy(SelectionStrategy::MinStretch),
        ShardConfig::pilot_key_range(4),
    )
    .expect("build");
    let mut live = vec![true; rows.len()];

    // Every query's per-shard provenance and answer, checked against
    // `SeqScan` over the live rows.
    let observe = |set: &ShardedIndexSet<VecStore>, rows: &[Vec<f64>], live: &[bool]| {
        let table = FeatureTable::from_rows(dim, rows.to_vec()).expect("table");
        let scan = SeqScan::new(&table);
        let mut seen = Vec::new();
        for q in &queries {
            let out = set.query(q).expect("query");
            let want: Vec<PointId> = scan
                .evaluate(q)
                .expect("scan")
                .into_iter()
                .filter(|&id| live[id as usize])
                .collect();
            assert_eq!(out.sorted_ids(), want);
            seen.push((out.served_by, want));
        }
        seen
    };
    let before = observe(&set, &rows, &live);
    assert!(before
        .iter()
        .all(|(served, _)| served.iter().all(|s| matches!(s, ServedBy::Index(_)))));

    let mut answers_moved = false;
    let mut check = |set: &ShardedIndexSet<VecStore>, rows: &[Vec<f64>], live: &[bool], phase| {
        for (q, (b, a)) in before.iter().zip(observe(set, rows, live)).enumerate() {
            assert_eq!(
                a.0, b.0,
                "query {q} changed its served-by after the {phase}"
            );
            answers_moved |= a.1 != b.1;
        }
    };
    for row in &spare {
        let id = set.insert_point(row).expect("insert");
        assert_eq!(id as usize, rows.len());
        rows.push(row.clone());
        live.push(true);
    }
    check(&set, &rows, &live, "inserts");
    for (i, id) in (0..rows.len()).step_by(13).enumerate() {
        let row = spare[i % spare.len()].clone();
        set.update_point(id as PointId, &row).expect("update");
        rows[id] = row;
    }
    check(&set, &rows, &live, "updates");
    for id in (0..rows.len()).step_by(17) {
        set.delete_point(id as PointId).expect("delete");
        live[id] = false;
    }
    check(&set, &rows, &live, "deletes");
    assert!(answers_moved, "the writes must change some answer");
}

/// `SeqScan`'s answer over the live rows of `rows`, ascending.
fn live_scan(dim: usize, rows: &[Vec<f64>], live: &[bool], q: &InequalityQuery) -> Vec<PointId> {
    let table = FeatureTable::from_rows(dim, rows.to_vec()).expect("table");
    let mut ids = SeqScan::new(&table).evaluate(q).expect("scan");
    ids.retain(|&id| live[id as usize]);
    ids
}

#[test]
fn every_selection_strategy_answers_in_scan_order() {
    // Canonical answers: whichever index a strategy picks — or the scan —
    // an unsharded set answers with `SeqScan`'s ids in `SeqScan`'s order,
    // and a sharded one with them grouped by ascending shard, before and
    // after inserts, updates, deletes and a compaction, with and without
    // the quantized tier's block boxes.
    let (dim, rq) = (4, 4);
    let generated = SyntheticConfig::paper(SyntheticKind::Independent, 7_000, dim).generate();
    let mut all: Vec<Vec<f64>> = generated.iter().map(|(_, r)| r.to_vec()).collect();
    let spare = all.split_off(6_000);
    let queries = Eq18Generator::new(&generated, rq, 3)
        .with_inequality_parameter(0.25)
        .queries(12);
    for strategy in [
        SelectionStrategy::MinStretch,
        SelectionStrategy::MinAngle,
        SelectionStrategy::OracleCount,
    ] {
        for tier in [QuantTier::Off, QuantTier::I16] {
            let cfg = IndexConfig::with_budget(8).strategy(strategy);
            let initial = FeatureTable::from_rows(dim, all.clone()).expect("table");
            let domain = eq18_domain(dim, rq);
            let mut flat: PlanarIndexSet =
                PlanarIndexSet::build(initial.clone(), domain.clone(), cfg.clone()).expect("build");
            let mut sharded = ShardedIndexSet::<VecStore>::build(
                initial,
                domain,
                cfg,
                ShardConfig::pilot_key_range(3),
            )
            .expect("build");
            flat.set_quant_policy(QuantPolicy::tier(tier));
            sharded.set_quant_policy(QuantPolicy::tier(tier));
            // The unsharded model renumbers at compaction; the sharded one
            // keeps its global ids.
            let (mut flat_rows, mut flat_live) = (all.clone(), vec![true; all.len()]);
            let (mut rows, mut live) = (all.clone(), vec![true; all.len()]);
            let check = |flat: &PlanarIndexSet,
                         sharded: &ShardedIndexSet<VecStore>,
                         (flat_rows, flat_live): (&[Vec<f64>], &[bool]),
                         (rows, live): (&[Vec<f64>], &[bool]),
                         phase: &str| {
                for q in &queries {
                    let out = flat.query(q).expect("query");
                    let want = live_scan(dim, flat_rows, flat_live, q);
                    assert_eq!(out.matches, want, "{strategy:?} {tier:?} {phase}");
                    let out = sharded.query(q).expect("query");
                    let want = live_scan(dim, rows, live, q);
                    let mut grouped = Vec::new();
                    for s in 0..sharded.num_shards() {
                        grouped.extend(want.iter().filter(|&&id| sharded.shard_of(id) == Some(s)));
                    }
                    assert_eq!(
                        out.matches, grouped,
                        "{strategy:?} {tier:?} {phase} sharded"
                    );
                }
            };
            check(
                &flat,
                &sharded,
                (&flat_rows, &flat_live),
                (&rows, &live),
                "build",
            );
            for row in &spare {
                flat.insert_point(row).expect("insert");
                sharded.insert_point(row).expect("insert");
                flat_rows.push(row.clone());
                flat_live.push(true);
                rows.push(row.clone());
                live.push(true);
            }
            check(
                &flat,
                &sharded,
                (&flat_rows, &flat_live),
                (&rows, &live),
                "inserts",
            );
            for (i, id) in (0..rows.len()).step_by(11).enumerate() {
                let row = spare[(i * 7) % spare.len()].clone();
                flat.update_point(id as PointId, &row).expect("update");
                sharded.update_point(id as PointId, &row).expect("update");
                flat_rows[id] = row.clone();
                rows[id] = row;
            }
            check(
                &flat,
                &sharded,
                (&flat_rows, &flat_live),
                (&rows, &live),
                "updates",
            );
            for id in (0..rows.len()).step_by(3) {
                flat.delete_point(id as PointId).expect("delete");
                sharded.delete_point(id as PointId).expect("delete");
                flat_live[id] = false;
                live[id] = false;
            }
            check(
                &flat,
                &sharded,
                (&flat_rows, &flat_live),
                (&rows, &live),
                "deletes",
            );
            let remap = flat.compact();
            flat_rows = flat_rows
                .iter()
                .zip(&remap)
                .filter_map(|(row, new)| new.map(|_| row.clone()))
                .collect();
            flat_live = vec![true; flat_rows.len()];
            assert_eq!(sharded.compact(0.2).len(), 3);
            flat.set_quant_policy(QuantPolicy::tier(tier));
            sharded.set_quant_policy(QuantPolicy::tier(tier));
            check(
                &flat,
                &sharded,
                (&flat_rows, &flat_live),
                (&rows, &live),
                "compaction",
            );
        }
    }
}
