//! Sharded engine experiment: batched inequality and top-k throughput at
//! 1, 2, 4 and 8 shards vs the unsharded engine on the same large-n
//! synthetic workload, with every answer checked identical against the
//! unsharded baseline before it is timed as a win. Results are printed as
//! a table and written to `BENCH_shard.json`.
//!
//! Both engines are timed on the serial executor, so the curve isolates
//! what the sharded *layout* buys on one core: shard-major batch execution
//! keeps one shard's rows and key stores cache-resident across the whole
//! batch while the unsharded engine's working set streams from DRAM, and
//! range partitioning lets shards outside a query's key band be settled
//! wholesale. Verified-work totals are conserved by partitioning (every
//! matched point must still be confirmed somewhere), so the single-core
//! speedup is bounded by the DRAM-to-cache latency ratio — about 2x on
//! the reference host. On a multi-core host the same fan-out additionally
//! scales with `min(shards, cores)` through `ExecutionConfig` threads;
//! `host_cpus` is recorded in the JSON so the two regimes are not
//! conflated when reading results.

use crate::report::{self, ms, Table};
use crate::{time_ms, Config};
use planar_core::stats::json_array;
use planar_core::{
    ExecutionConfig, IndexConfig, InequalityQuery, JsonObject, PartitionScheme, PlanarIndexSet,
    ShardConfig, ShardedIndexSet, TopKQuery, VecStore,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_datagen::SYNTHETIC_N;

/// Dataset dimensionality for the sharded workload.
const DIM: usize = 8;
/// RQ of the Eq. 18 query template.
const RQ: usize = 4;
/// Index budget per engine. Every shard gets the same budget the
/// unsharded baseline gets: the experiment measures partitioned execution,
/// not a bigger aggregate index.
const BUDGET: usize = 32;
/// Neighbors per top-k query.
const K: usize = 10;
/// Timing repetitions per configuration (the minimum is reported).
const REPS: usize = 3;
/// Shard counts to sweep. One shard measures the fan-out overhead floor.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Sweep {
    shards: usize,
    build_ms: f64,
    batch_ms: f64,
    topk_ms: f64,
}

/// The `shard` experiment (see module docs).
pub fn shard(cfg: &Config) {
    // cfg.scaled(40M) = 2M points at the default 0.05 scale. Sized so the
    // unsharded engine's working set (row table + key stores) overflows
    // even a large server L3 and verification streams from DRAM, while a
    // single shard's working set stays cache-resident.
    let n = cfg.scaled(40 * SYNTHETIC_N);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n, DIM).generate();
    let batch = (cfg.queries * 8).max(160);

    let build_cfg = || IndexConfig::with_budget(BUDGET).seed(cfg.seed);
    let baseline: PlanarIndexSet<VecStore> =
        PlanarIndexSet::build(table.clone(), eq18_domain(DIM, RQ), build_cfg())
            .expect("shard experiment baseline build");
    let mut generator =
        Eq18Generator::new(baseline.table(), RQ, cfg.seed ^ 0xBEEF).with_inequality_parameter(0.25);
    let queries: Vec<InequalityQuery> = generator.queries(batch);
    let topk_queries: Vec<TopKQuery> = queries
        .iter()
        .map(|q| TopKQuery::new(q.clone(), K).expect("k > 0"))
        .collect();

    let exec = ExecutionConfig::serial();
    let expected = baseline.query_batch(&queries, &exec).expect("warm batch");
    let expected_topk = baseline
        .top_k_batch(&topk_queries, &exec)
        .expect("warm topk");
    let mut base_batch_ms = f64::INFINITY;
    let mut base_topk_ms = f64::INFINITY;
    for _ in 0..REPS {
        let (out, t) = time_ms(|| baseline.query_batch(&queries, &exec).expect("batch"));
        assert_eq!(out.len(), queries.len());
        base_batch_ms = base_batch_ms.min(t);
        let (out, t) = time_ms(|| {
            baseline
                .top_k_batch(&topk_queries, &exec)
                .expect("topk batch")
        });
        assert_eq!(out.len(), topk_queries.len());
        base_topk_ms = base_topk_ms.min(t);
    }

    let mut sweeps: Vec<Sweep> = Vec::new();
    for &shards in &SHARD_COUNTS {
        let shard_cfg = ShardConfig {
            shards,
            scheme: PartitionScheme::PilotKeyRange,
        };
        let (set, build_ms) = time_ms(|| {
            ShardedIndexSet::<VecStore>::build(
                table.clone(),
                eq18_domain(DIM, RQ),
                build_cfg(),
                shard_cfg,
            )
            .expect("sharded build")
        });

        // Answer identity first: every inequality id set and every top-k
        // neighbor list (ids and bit-exact distances) must match the
        // unsharded engine before this shard count is timed.
        let got = set.query_batch(&queries, &exec).expect("verify batch");
        for (sharded, unsharded) in got.iter().zip(&expected) {
            assert_eq!(
                sharded.sorted_ids(),
                unsharded.sorted_ids(),
                "sharded inequality answers diverged at {shards} shards"
            );
        }
        let got = set
            .top_k_batch(&topk_queries, &exec)
            .expect("verify topk batch");
        for (sharded, unsharded) in got.iter().zip(&expected_topk) {
            assert_eq!(
                sharded.neighbors.len(),
                unsharded.neighbors.len(),
                "sharded top-k size diverged at {shards} shards"
            );
            for (a, b) in sharded.neighbors.iter().zip(&unsharded.neighbors) {
                assert_eq!(a.0, b.0, "sharded top-k ids diverged at {shards} shards");
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "sharded top-k distances diverged at {shards} shards"
                );
            }
        }

        let mut batch_ms = f64::INFINITY;
        let mut topk_ms = f64::INFINITY;
        for _ in 0..REPS {
            let (out, t) = time_ms(|| set.query_batch(&queries, &exec).expect("batch"));
            assert_eq!(out.len(), queries.len());
            batch_ms = batch_ms.min(t);
            let (out, t) = time_ms(|| set.top_k_batch(&topk_queries, &exec).expect("topk batch"));
            assert_eq!(out.len(), topk_queries.len());
            topk_ms = topk_ms.min(t);
        }

        sweeps.push(Sweep {
            shards,
            build_ms,
            batch_ms,
            topk_ms,
        });
    }

    let mut t = Table::new(
        &format!(
            "Sharded engine: n={n}, dim={DIM}, #index={BUDGET}/shard, batch={batch} queries, \
             range partitioner, answers verified vs unsharded"
        ),
        &[
            "shards", "build_ms", "batch_ms", "batch_x", "qps", "topk_ms", "topk_x",
        ],
    );
    t.row(vec![
        "none".into(),
        "-".into(),
        ms(base_batch_ms),
        "1.00".into(),
        format!("{:.0}", batch as f64 / (base_batch_ms / 1e3)),
        ms(base_topk_ms),
        "1.00".into(),
    ]);
    let mut rows = Vec::new();
    for s in &sweeps {
        let batch_x = base_batch_ms / s.batch_ms;
        let topk_x = base_topk_ms / s.topk_ms;
        let qps = batch as f64 / (s.batch_ms / 1e3);
        t.row(vec![
            s.shards.to_string(),
            ms(s.build_ms),
            ms(s.batch_ms),
            format!("{batch_x:.2}"),
            format!("{qps:.0}"),
            ms(s.topk_ms),
            format!("{topk_x:.2}"),
        ]);
        rows.push(
            JsonObject::new()
                .field_usize("shards", s.shards)
                .field_f64("build_ms", s.build_ms)
                .field_f64("batch_ms", s.batch_ms)
                .field_f64("batch_speedup", batch_x)
                .field_f64("batch_queries_per_s", qps)
                .field_f64("topk_ms", s.topk_ms)
                .field_f64("topk_speedup", topk_x)
                .finish(),
        );
    }
    t.print();

    let unsharded = JsonObject::new()
        .field_f64("batch_ms", base_batch_ms)
        .field_f64("topk_ms", base_topk_ms)
        .finish();
    report::write_json("shard", |doc| {
        doc.field_usize("host_cpus", report::host_cpus())
            .field_usize("n", n)
            .field_usize("dim", DIM)
            .field_usize("budget_per_shard", BUDGET)
            .field_usize("batch_queries", batch)
            .field_str("partitioner", "pilot_key_range")
            .field_bool("answers_verified", true)
            .field_raw("unsharded", &unsharded)
            .field_raw("sweep", &json_array(rows))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_sweep_covers_one_through_eight() {
        assert_eq!(SHARD_COUNTS, [1, 2, 4, 8]);
    }
}
