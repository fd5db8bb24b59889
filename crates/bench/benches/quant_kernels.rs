//! Criterion: quantized classification kernels — the exact `f64` fused
//! compare vs the `i16` quantized classifier — at feature
//! dimensionalities d' ∈ {4, 16, 64}.
//!
//! The quantized kernel scans 4× less memory per lane than the `f64`
//! path, so this measures the filter tier's raw bandwidth advantage. Portable and AVX2 variants classify bit-identically by
//! contract (`planar_geom::quant`); set `PLANAR_FORCE_PORTABLE=1` to
//! measure the portable fallback on AVX2 hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use planar_core::{Cmp, FeatureTable, InequalityQuery, QuantizedColumns};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_geom::{classify_block_i16, dot_cmp_block, quant_kernel_name};
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

/// Exact fused compare over every block (what the filter tier fronts).
fn pass_f64(table: &FeatureTable, q: &InequalityQuery) -> usize {
    let cols = table.columns();
    let stride = cols.stride();
    let leq = q.cmp() == Cmp::Leq;
    let mut matched = 0;
    for seg in cols.segments(0, table.len() as u32) {
        matched +=
            dot_cmp_block(q.a(), seg.cols, stride, seg.lanes, q.b(), leq).count_ones() as usize;
    }
    matched
}

/// Quantized classification over every block: per-block query folding
/// (scale the coefficients into code space, fold the offsets into the
/// threshold) followed by one fused kernel call — the same work the
/// production `QuantFilter` does per block.
fn pass_quant(table: &FeatureTable, q: &InequalityQuery, mirror: &QuantizedColumns) -> usize {
    let cols = table.columns();
    let stride = cols.stride();
    let dim = q.a().len();
    let n = table.len();
    let mut w = vec![0.0f32; dim];
    let mut settled = 0usize;
    let blocks = n.div_ceil(stride);
    for b in 0..blocks {
        let lanes = (n - b * stride).min(stride);
        let mut bias = -q.b();
        for (j, (w, &aj)) in w.iter_mut().zip(q.a()).enumerate() {
            let (offset, scale) = mirror.affine(b, j);
            *w = (aj * scale) as f32;
            bias += aj * offset;
        }
        let t = (-bias) as f32;
        let codes = &mirror.codes()[b * dim * stride..];
        let (below, above) = classify_block_i16(&w, codes, stride, lanes, t, t);
        settled += (below | above).count_ones() as usize;
    }
    settled
}

fn bench_quant_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("quant_kernels/{}", quant_kernel_name()));
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));
    for dim in DIMS {
        let table = table_for(dim);
        let q = query_for(dim);
        let i16_mirror = QuantizedColumns::encode(table.columns());
        group.bench_function(BenchmarkId::new("f64_exact", dim), |b| {
            b.iter(|| black_box(pass_f64(&table, &q)))
        });
        group.bench_function(BenchmarkId::new("i16_classify", dim), |b| {
            b.iter(|| black_box(pass_quant(&table, &q, &i16_mirror)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_quant_kernels);
criterion_main!(benches);
