//! Criterion: scalar-product kernels — naive per-row vs blocked over
//! contiguous rows — and full-table verification over the table's
//! row-major blocks, at feature dimensionalities d' ∈ {4, 16, 64}.
//!
//! Both kernels accumulate in `dot_slices`' order, so they are
//! bit-identical and these benchmarks measure pure access-pattern cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use planar_core::{Cmp, FeatureTable, InequalityQuery};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_geom::{dot_block, dot_slices, BLOCK_ROWS};
use std::hint::black_box;

const N: usize = 65_536;
const DIMS: [usize; 3] = [4, 16, 64];

fn query_for(dim: usize) -> InequalityQuery {
    let a: Vec<f64> = (0..dim).map(|j| 0.5 + (j % 7) as f64 * 0.25).collect();
    InequalityQuery::new(a, Cmp::Leq, dim as f64 * 12.0).unwrap()
}

fn table_for(dim: usize) -> FeatureTable {
    SyntheticConfig::paper(SyntheticKind::Independent, N, dim).generate()
}

/// One dot product per row via `dot_slices` (the naive kernel).
fn sum_naive(table: &FeatureTable, a: &[f64]) -> f64 {
    table.iter().map(|(_, row)| dot_slices(a, row)).sum()
}

/// Blocked row-major kernel: 64 contiguous rows per `dot_block` call.
fn sum_blocked(table: &FeatureTable, a: &[f64]) -> f64 {
    let mut dots = [0.0f64; BLOCK_ROWS];
    let mut sum = 0.0;
    for (_, rows) in table.blocks() {
        let dots = &mut dots[..rows.len() / table.dim()];
        dot_block(a, rows, dots);
        sum += dots.iter().sum::<f64>();
    }
    sum
}

/// Row-major verification: blocked dots, then compare each.
fn verify_rowmajor(table: &FeatureTable, q: &InequalityQuery) -> usize {
    let mut dots = [0.0f64; BLOCK_ROWS];
    let mut matched = 0;
    for (_, rows) in table.blocks() {
        let dots = &mut dots[..rows.len() / table.dim()];
        dot_block(q.a(), rows, dots);
        matched += dots.iter().filter(|&&d| q.satisfies_dot(d)).count();
    }
    matched
}

fn bench_dot_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot_kernels");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));
    for dim in DIMS {
        let table = table_for(dim);
        let q = query_for(dim);
        let expected = sum_naive(&table, q.a());
        assert_eq!(sum_blocked(&table, q.a()), expected, "blocked != naive");
        group.bench_function(BenchmarkId::new("naive", dim), |b| {
            b.iter(|| black_box(sum_naive(&table, q.a())))
        });
        group.bench_function(BenchmarkId::new("blocked", dim), |b| {
            b.iter(|| black_box(sum_blocked(&table, q.a())))
        });
    }
    group.finish();
}

fn bench_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_layout");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));
    for dim in DIMS {
        let table = table_for(dim);
        let q = query_for(dim);
        group.bench_function(BenchmarkId::new("rowmajor", dim), |b| {
            b.iter(|| black_box(verify_rowmajor(&table, &q)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dot_kernels, bench_verification);
criterion_main!(benches);
