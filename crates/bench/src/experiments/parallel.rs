//! Parallel engine experiment: multi-index build time and batched query
//! throughput at 1, 2, 4, … worker threads, with speedups over the
//! single-threaded engine. Results are printed as tables and written to
//! `BENCH_parallel.json` for machine consumption.

use crate::report::{self, ms, Table};
use crate::{time_ms, Config};
use planar_core::stats::json_array;
use planar_core::{
    ExecutionConfig, IndexConfig, InequalityQuery, JsonObject, PlanarIndexSet, VecStore,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_datagen::SYNTHETIC_N;

/// Dataset dimensionality for the parallel workload.
const DIM: usize = 8;
/// RQ of the Eq. 18 query template.
const RQ: usize = 4;
/// Index budget — large enough that the per-index builds dominate and
/// parallel construction has work to distribute.
const BUDGET: usize = 32;
/// Timing repetitions per configuration (the mean is reported).
const REPS: usize = 3;

struct Sweep {
    threads: usize,
    build_ms: f64,
    batch_ms: f64,
    topk_ms: f64,
}

/// Thread counts to sweep: powers of two up to `max(8, cfg.threads)`,
/// always including 1 (the serial baseline) — 1/2/4/8 by default.
fn thread_counts(cfg: &Config) -> Vec<usize> {
    let cap = cfg.threads.max(8);
    let mut counts = vec![1usize];
    let mut t = 2;
    while t <= cap {
        counts.push(t);
        t *= 2;
    }
    if *counts.last().unwrap() != cap {
        counts.push(cap);
    }
    counts
}

/// The `parallel` experiment (see module docs).
pub fn parallel_engine(cfg: &Config) {
    // cfg.scaled(2M) = 100K points at the default 0.05 scale.
    let n = cfg.scaled(2 * SYNTHETIC_N);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n, DIM).generate();
    let batch = (cfg.queries * 8).max(64);

    let build_cfg = || IndexConfig::with_budget(BUDGET).seed(cfg.seed);
    let reference: PlanarIndexSet<VecStore> =
        PlanarIndexSet::build(table.clone(), eq18_domain(DIM, RQ), build_cfg())
            .expect("parallel experiment build");
    let mut generator = Eq18Generator::new(reference.table(), RQ, cfg.seed ^ 0xBEEF)
        .with_inequality_parameter(0.25);
    let queries: Vec<InequalityQuery> = generator.queries(batch);
    let topk_queries: Vec<planar_core::TopKQuery> = queries
        .iter()
        .map(|q| planar_core::TopKQuery::new(q.clone(), 10).expect("k > 0"))
        .collect();

    // Every speed-up divides by the 1-thread row, so one untimed build,
    // batch and top-k batch warm the caches and the allocator first.
    let serial = ExecutionConfig::serial();
    PlanarIndexSet::<VecStore>::build_with(
        table.clone(),
        eq18_domain(DIM, RQ),
        build_cfg(),
        &serial,
    )
    .expect("warm-up build");
    reference
        .query_batch(&queries, &serial)
        .expect("warm-up batch");
    reference
        .top_k_batch(&topk_queries, &serial)
        .expect("warm-up topk batch");

    let mut sweeps: Vec<Sweep> = Vec::new();
    for &threads in &thread_counts(cfg) {
        let exec = ExecutionConfig::with_threads(threads);

        let mut build_ms = 0.0;
        for _ in 0..REPS {
            let (set, t) = time_ms(|| {
                PlanarIndexSet::<VecStore>::build_with(
                    table.clone(),
                    eq18_domain(DIM, RQ),
                    build_cfg(),
                    &exec,
                )
                .expect("parallel build")
            });
            assert_eq!(set.num_indices(), reference.num_indices());
            build_ms += t;
        }

        let mut batch_ms = 0.0;
        let mut topk_ms = 0.0;
        for _ in 0..REPS {
            let (out, t) = time_ms(|| reference.query_batch(&queries, &exec).expect("batch"));
            assert_eq!(out.len(), queries.len());
            batch_ms += t;
            let (out, t) = time_ms(|| {
                reference
                    .top_k_batch(&topk_queries, &exec)
                    .expect("topk batch")
            });
            assert_eq!(out.len(), topk_queries.len());
            topk_ms += t;
        }

        sweeps.push(Sweep {
            threads,
            build_ms: build_ms / REPS as f64,
            batch_ms: batch_ms / REPS as f64,
            topk_ms: topk_ms / REPS as f64,
        });
    }

    let base = &sweeps[0];
    let (base_build, base_batch, base_topk) = (base.build_ms, base.batch_ms, base.topk_ms);
    let mut t = Table::new(
        &format!("Parallel engine: n={n}, dim={DIM}, #index={BUDGET}, batch={batch} queries"),
        &[
            "threads", "build_ms", "build_x", "batch_ms", "batch_x", "qps", "topk_ms", "topk_x",
        ],
    );
    let mut rows = Vec::new();
    for s in &sweeps {
        let build_x = base_build / s.build_ms;
        let batch_x = base_batch / s.batch_ms;
        let topk_x = base_topk / s.topk_ms;
        let qps = batch as f64 / (s.batch_ms / 1e3);
        t.row(vec![
            s.threads.to_string(),
            ms(s.build_ms),
            format!("{build_x:.2}"),
            ms(s.batch_ms),
            format!("{batch_x:.2}"),
            format!("{qps:.0}"),
            ms(s.topk_ms),
            format!("{topk_x:.2}"),
        ]);
        rows.push(
            JsonObject::new()
                .field_usize("threads", s.threads)
                .field_f64("build_ms", s.build_ms)
                .field_f64("build_speedup", build_x)
                .field_f64("batch_ms", s.batch_ms)
                .field_f64("batch_speedup", batch_x)
                .field_f64("batch_queries_per_s", qps)
                .field_f64("topk_ms", s.topk_ms)
                .field_f64("topk_speedup", topk_x)
                .finish(),
        );
    }
    t.print();

    report::write_json("parallel", |doc| {
        doc.field_usize("host_cpus", report::host_cpus())
            .field_usize("n", n)
            .field_usize("dim", DIM)
            .field_usize("budget", BUDGET)
            .field_usize("batch_queries", batch)
            .field_raw("sweep", &json_array(rows))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_starts_at_one_and_covers_config() {
        let counts = thread_counts(&Config::default());
        assert_eq!(counts, vec![1, 2, 4, 8]);
        let cfg = Config {
            threads: 12,
            ..Config::default()
        };
        let counts = thread_counts(&cfg);
        assert_eq!(counts[0], 1);
        assert!(counts.contains(&8));
        assert_eq!(*counts.last().unwrap(), 12);
    }
}
