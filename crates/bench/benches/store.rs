//! Criterion: the packed id store's kernels — rank queries and point moves
//! with keys computed per probe, and a full scan of the ids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use planar_core::store::{KeyStore, VecStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const N: usize = 200_000;

/// One key per id, standing in for the keys an index computes from rows.
fn keys(n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..n).map(|_| rng.random_range(0.0..1e6)).collect()
}

fn build(keys: &[f64]) -> VecStore {
    VecStore::build(0..keys.len() as u32, |id| keys[id as usize])
}

fn bench_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_rank");
    let keys = keys(N);
    let store = build(&keys);
    let mut rng = StdRng::seed_from_u64(2);
    let thresholds: Vec<f64> = (0..64).map(|_| rng.random_range(0.0..1e6)).collect();
    let mut i = 0;
    group.bench_function(BenchmarkId::new("rank_leq", "vec"), |b| {
        b.iter(|| {
            i = (i + 1) % thresholds.len();
            black_box(store.rank_leq(thresholds[i], |id| keys[id as usize]))
        })
    });
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_scan");
    group.sample_size(20);
    let store = build(&keys(N));
    group.bench_function(BenchmarkId::new("ids_full", "vec"), |b| {
        b.iter(|| black_box(store.ids().iter().map(|&id| id as u64).sum::<u64>()))
    });
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_update");
    group.sample_size(10);
    let mut keys = keys(N);
    let mut rng = StdRng::seed_from_u64(3);
    let ops: Vec<(u32, f64)> = (0..256)
        .map(|_| (rng.random_range(0..N as u32), rng.random_range(0.0..1e6)))
        .collect();
    let mut store = build(&keys);
    let mut i = 0;
    group.bench_function(BenchmarkId::new("move_entry", "vec"), |b| {
        b.iter(|| {
            let (id, new_key) = ops[i % ops.len()];
            i += 1;
            // Move there and back to keep the multiset stable; each move
            // removes under the old key and inserts under the new one.
            let old_key = keys[id as usize];
            for k in [new_key, old_key] {
                store.remove(id, |x| keys[x as usize]);
                keys[id as usize] = k;
                store.insert(id, |x| keys[x as usize]);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rank, bench_scan, bench_update);
criterion_main!(benches);
