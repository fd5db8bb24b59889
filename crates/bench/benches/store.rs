//! Criterion: key-store kernels — packed array vs the order-statistics
//! B+-tree (rank queries, scans, point updates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use planar_core::store::{BPlusTree, Entry, KeyStore, VecStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const N: usize = 200_000;

fn entries(n: usize) -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..n as u32)
        .map(|i| Entry::new(rng.random_range(0.0..1e6), i))
        .collect()
}

fn bench_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_rank");
    let data = entries(N);
    let vec_store = VecStore::build(data.clone());
    let tree = BPlusTree::build(data);
    let mut rng = StdRng::seed_from_u64(2);
    let thresholds: Vec<f64> = (0..64).map(|_| rng.random_range(0.0..1e6)).collect();
    let mut i = 0;
    group.bench_function(BenchmarkId::new("rank_leq", "vec"), |b| {
        b.iter(|| {
            i = (i + 1) % thresholds.len();
            black_box(vec_store.rank_leq(thresholds[i]))
        })
    });
    let mut j = 0;
    group.bench_function(BenchmarkId::new("rank_leq", "bptree"), |b| {
        b.iter(|| {
            j = (j + 1) % thresholds.len();
            black_box(tree.rank_leq(thresholds[j]))
        })
    });
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_scan");
    group.sample_size(20);
    let data = entries(N);
    let vec_store = VecStore::build(data.clone());
    let tree = BPlusTree::build(data);
    group.bench_function(BenchmarkId::new("iter_asc_full", "vec"), |b| {
        b.iter(|| black_box(vec_store.iter_asc(0, N).map(|e| e.id as u64).sum::<u64>()))
    });
    group.bench_function(BenchmarkId::new("iter_asc_full", "bptree"), |b| {
        b.iter(|| black_box(tree.iter_asc(0, N).map(|e| e.id as u64).sum::<u64>()))
    });
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_update");
    group.sample_size(10);
    let data = entries(N);
    let mut rng = StdRng::seed_from_u64(3);
    let ops: Vec<(Entry, f64)> = (0..256)
        .map(|_| {
            let e = data[rng.random_range(0..data.len())];
            (e, rng.random_range(0.0..1e6))
        })
        .collect();
    let mut vec_store = VecStore::build(data.clone());
    let mut i = 0;
    group.bench_function(BenchmarkId::new("move_entry", "vec"), |b| {
        b.iter(|| {
            let (e, new_key) = ops[i % ops.len()];
            i += 1;
            // move back and forth to keep the multiset stable
            vec_store.remove(e);
            vec_store.insert(Entry::new(new_key, e.id));
            vec_store.remove(Entry::new(new_key, e.id));
            vec_store.insert(e);
        })
    });
    let mut tree = BPlusTree::build(data);
    let mut j = 0;
    group.bench_function(BenchmarkId::new("move_entry", "bptree"), |b| {
        b.iter(|| {
            let (e, new_key) = ops[j % ops.len()];
            j += 1;
            tree.remove(e);
            tree.insert(Entry::new(new_key, e.id));
            tree.remove(Entry::new(new_key, e.id));
            tree.insert(e);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rank, bench_scan, bench_update);
criterion_main!(benches);
