//! Criterion: the sealed-frame path every wire, WAL, snapshot and
//! replication format shares — `frame::crc64` at the sizes those frames
//! take, and the `PLNRQRY1` response round trip of a paper-scale answer.
//!
//! Sizes: 142 B is a k = 10 `Neighbors` response, 3.3 KB and 33 KB are
//! `Matches` responses (the larger one is the 8,238-id answer of the
//! benchmark's `select_1m` workload), 1 MiB stands in for a snapshot
//! section.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use planar_core::frame::crc64;
use planar_serve::wire::{decode_response, encode_response, read_frame};
use planar_serve::{Provenance, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const CRC_SIZES: [usize; 4] = [142, 3_302, 32_974, 1 << 20];
const MATCHES_IDS: usize = 8_238;

fn bench_crc64(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<u8> = (0..CRC_SIZES[3]).map(|_| rng.random::<u8>()).collect();
    let mut group = c.benchmark_group("frame_crc64");
    for len in CRC_SIZES {
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(BenchmarkId::from_parameter(len), |b| {
            b.iter(|| black_box(crc64(black_box(&data[..len]))))
        });
    }
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(43);
    let resp = Response::Matches {
        ids: (0..MATCHES_IDS)
            .map(|_| rng.random_range(0..1_000_000u32))
            .collect(),
        provenance: Provenance::default(),
    };
    let frame = encode_response(&resp);
    let mut group = c.benchmark_group("frame_wire");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function(BenchmarkId::new("encode_response", MATCHES_IDS), |b| {
        b.iter(|| black_box(encode_response(black_box(&resp))))
    });
    group.bench_function(BenchmarkId::new("read_decode", MATCHES_IDS), |b| {
        b.iter(|| {
            let (kind, body) = read_frame(&mut black_box(frame.as_slice()))
                .unwrap()
                .unwrap();
            black_box(decode_response(kind, &body))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_crc64, bench_wire);
criterion_main!(benches);
