//! Criterion: inequality-query kernels (Algorithm 1) vs the sequential
//! scan, across dimensionality and query randomness; and the block layout
//! ablation — one index's answer over the same quantized rows in id order
//! and in k-d block order, where whole blocks settle by their box.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use planar_core::{
    IndexConfig, PlanarIndexSet, QuantTier, SeqScan, ServedBy, SingleIndex, VecStore,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use std::hint::black_box;

const N: usize = 100_000;

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_inequality");
    group.sample_size(20);
    for dim in [2usize, 6, 14] {
        for rq in [2usize, 8] {
            let table = SyntheticConfig::paper(SyntheticKind::Independent, N, dim).generate();
            let scan_table = table.clone();
            let set: PlanarIndexSet<VecStore> =
                PlanarIndexSet::build(table, eq18_domain(dim, rq), IndexConfig::with_budget(50))
                    .unwrap();
            let queries = Eq18Generator::new(set.table(), rq, 7).queries(32);
            let mut i = 0;
            group.bench_function(
                BenchmarkId::new(format!("planar_d{dim}"), format!("rq{rq}")),
                |b| {
                    b.iter(|| {
                        i = (i + 1) % queries.len();
                        black_box(set.query(&queries[i]).unwrap())
                    })
                },
            );
            let scan = SeqScan::new(&scan_table);
            let mut j = 0;
            group.bench_function(
                BenchmarkId::new(format!("scan_d{dim}"), format!("rq{rq}")),
                |b| {
                    b.iter(|| {
                        j = (j + 1) % queries.len();
                        black_box(scan.evaluate(&queries[j]).unwrap())
                    })
                },
            );
        }
    }
    group.finish();
}

/// Rows per shard of the served configuration (1M rows over 4 shards).
const LAYOUT_N: usize = 250_000;

fn bench_block_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_inequality_layout");
    group.sample_size(20);
    let (dim, rq) = (8, 4);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, LAYOUT_N, dim).generate();
    let set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
        table.clone(),
        eq18_domain(dim, rq),
        IndexConfig::with_budget(16),
    )
    .unwrap();
    let queries = Eq18Generator::new(set.table(), rq, 7)
        .with_inequality_parameter(0.25)
        .queries(32);
    // Each query's chosen index, normalized query and key shift: the index
    // holds ids only, so one index serves both layouts of the rows.
    let plans: Vec<_> = queries
        .iter()
        .map(|q| {
            let out = set.query(q).unwrap();
            let ServedBy::Index(pos) = out.served_by else {
                panic!("Eq. 18 queries take the indexed path");
            };
            let normal = set.normals().nth(pos).unwrap().to_vec();
            let shift = set.normalizer().key_shift(&normal);
            let index = SingleIndex::<VecStore>::build(&table, set.normalizer(), normal).unwrap();
            let (effective, nq) = set.normalize_query(q).unwrap();
            (index, effective, nq, shift)
        })
        .collect();
    let mut id_order = table;
    id_order.set_quant_tier(QuantTier::I16);
    let mut kd_order = id_order.clone();
    kd_order.cluster();
    for (name, rows) in [("id_order", &id_order), ("kd_order", &kd_order)] {
        let mut i = 0;
        group.bench_function(BenchmarkId::new(name, "d8_rq4"), |b| {
            b.iter(|| {
                i = (i + 1) % plans.len();
                let (index, q, nq, shift) = &plans[i];
                black_box(index.evaluate(q, nq, *shift, rows, 0))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queries, bench_block_layout);
criterion_main!(benches);
