//! Experiment registry: one entry per paper table/figure plus ablations.

pub mod ablation;
pub mod concurrent;
pub mod extensions;
pub mod fault;
pub mod movingobj;
pub mod netrepl;
pub mod parallel;
pub mod quant;
pub mod realworld;
pub mod replication;
pub mod serve;
pub mod shard;
pub mod simd;
pub mod synthetic;
pub mod topk;
pub mod wal;

use crate::Config;

/// An experiment: name, description, runner.
pub struct Experiment {
    /// Registry name (the harness CLI argument).
    pub name: &'static str,
    /// What it reproduces.
    pub description: &'static str,
    /// Runner.
    pub run: fn(&Config),
}

/// All registered experiments, in presentation order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            description: "empirical complexity check: query time vs n (paper Table 1 bounds)",
            run: synthetic::table1,
        },
        Experiment {
            name: "table2",
            description: "dataset characteristics (paper Table 2)",
            run: realworld::table2,
        },
        Experiment {
            name: "fig6a",
            description: "Consumption SQL function: query time vs #index (paper Fig. 6a)",
            run: realworld::fig6a,
        },
        Experiment {
            name: "fig6b",
            description: "CMoment: query time vs RQ and #index (paper Fig. 6b)",
            run: realworld::fig6b,
        },
        Experiment {
            name: "fig6c",
            description: "CTexture: query time vs RQ and #index (paper Fig. 6c)",
            run: realworld::fig6c,
        },
        Experiment {
            name: "fig6d",
            description: "real datasets: index build time vs #index (paper Fig. 6d)",
            run: realworld::fig6d,
        },
        Experiment {
            name: "fig7",
            description: "synthetic query time vs dim and RQ, #index=100 (paper Fig. 7 + Fig. 9)",
            run: synthetic::fig7_9,
        },
        Experiment {
            name: "fig8",
            description: "synthetic query time vs dim and #index, RQ=4 (paper Fig. 8 + Fig. 10)",
            run: synthetic::fig8_10,
        },
        Experiment {
            name: "fig9",
            description: "synthetic pruning %% vs dim and RQ (printed with fig7)",
            run: synthetic::fig7_9,
        },
        Experiment {
            name: "fig10",
            description: "synthetic pruning %% vs dim and #index (printed with fig8)",
            run: synthetic::fig8_10,
        },
        Experiment {
            name: "fig11",
            description: "selectivity & query time vs inequality parameter (paper Fig. 11)",
            run: synthetic::fig11,
        },
        Experiment {
            name: "fig12",
            description: "scalability: index & query time vs n (paper Fig. 12)",
            run: synthetic::fig12,
        },
        Experiment {
            name: "fig13a",
            description: "index build time vs dim and #index (paper Fig. 13a)",
            run: synthetic::fig13a,
        },
        Experiment {
            name: "fig13b",
            description: "index memory vs #index and dim (paper Fig. 13b)",
            run: synthetic::fig13b,
        },
        Experiment {
            name: "fig13c",
            description: "dynamic update time vs %% updated points (paper Fig. 13c)",
            run: synthetic::fig13c,
        },
        Experiment {
            name: "fig14a",
            description: "linear moving objects: Planar vs baseline vs MBR tree (paper Fig. 14a)",
            run: movingobj::fig14a,
        },
        Experiment {
            name: "fig14b",
            description: "circular moving objects: Planar vs baseline (paper Fig. 14b)",
            run: movingobj::fig14b,
        },
        Experiment {
            name: "fig14c",
            description: "accelerating objects: Planar vs baseline (paper Fig. 14c)",
            run: movingobj::fig14c,
        },
        Experiment {
            name: "table3",
            description: "top-k nearest neighbor: checked points & time (paper Table 3)",
            run: topk::table3,
        },
        Experiment {
            name: "active-learning",
            description: "pool-based active learning + approximate-hashing recall (paper §7.5.2)",
            run: topk::active_learning,
        },
        Experiment {
            name: "extension-adaptive",
            description: "adaptive index retuning under query drift (paper §8 future work)",
            run: extensions::adaptive,
        },
        Experiment {
            name: "extension-conjunction",
            description: "linear-constraint conjunction queries (paper §2 suggestion)",
            run: extensions::conjunction,
        },
        Experiment {
            name: "extension-router",
            description: "axis-reduction for zero-coefficient queries (paper §4.1 remark)",
            run: extensions::router,
        },
        Experiment {
            name: "parallel",
            description:
                "parallel engine: build & batch-query speedup vs threads (BENCH_parallel.json)",
            run: parallel::parallel_engine,
        },
        Experiment {
            name: "shard",
            description:
                "sharded engine: batch & top-k speedup vs shard count, answers verified (BENCH_shard.json)",
            run: shard::shard,
        },
        Experiment {
            name: "simd",
            description:
                "columnar SIMD verification vs row-major blocked scalar; intersection pruning on/off (BENCH_simd.json)",
            run: simd::simd,
        },
        Experiment {
            name: "quant",
            description:
                "quantized filter tier: i16 filter-pass speedup, end-to-end and top-k identity (BENCH_quant.json)",
            run: quant::quant,
        },
        Experiment {
            name: "fault",
            description:
                "fault tolerance: recovery vs cold rebuild, degraded vs healthy serving (BENCH_fault.json)",
            run: fault::fault,
        },
        Experiment {
            name: "wal",
            description:
                "durability: fsync-policy latency, WAL replay throughput, deadline partial rates (BENCH_wal.json)",
            run: wal::wal,
        },
        Experiment {
            name: "concurrent",
            description:
                "concurrency: group-commit fsync amortization, readers racing a writer, snapshot batches (BENCH_concurrent.json)",
            run: concurrent::concurrent,
        },
        Experiment {
            name: "replication",
            description:
                "WAL shipping: replica catch-up rate, steady-state lag, failover time (BENCH_replication.json)",
            run: replication::replication,
        },
        Experiment {
            name: "netrepl",
            description:
                "networked replication: TCP vs in-process catch-up, quorum vs async ack latency, reconnect-storm recovery (BENCH_netrepl.json)",
            run: netrepl::netrepl,
        },
        Experiment {
            name: "serve",
            description:
                "network serving: coalesced vs per-request dispatch, latency vs load, typed overload degradation (BENCH_serve.json)",
            run: serve::serve,
        },
        Experiment {
            name: "ablation-selection",
            description: "best-index selection: stretch vs angle vs oracle count",
            run: ablation::selection,
        },
        Experiment {
            name: "ablation-dedup",
            description: "redundant-normal removal on vs off (paper §5.2)",
            run: ablation::dedup,
        },
        Experiment {
            name: "ablation-topk",
            description: "Claim-3 lower-bound pruning on vs off in Algorithm 2",
            run: ablation::topk_pruning,
        },
        Experiment {
            name: "ablation-search",
            description: "per-axis binary searches (paper-literal) vs reduced-threshold search",
            run: ablation::search,
        },
    ]
}

/// Run one experiment (or `all`); returns false for an unknown name.
pub fn run(name: &str, cfg: &Config) -> bool {
    if name == "all" {
        // fig9/fig10 alias fig7/fig8 output; skip the duplicates.
        for e in registry() {
            if e.name == "fig9" || e.name == "fig10" {
                continue;
            }
            eprintln!("[harness] running {} — {}", e.name, e.description);
            (e.run)(cfg);
        }
        return true;
    }
    match registry().into_iter().find(|e| e.name == name) {
        Some(e) => {
            (e.run)(cfg);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<_> = registry().iter().map(|e| e.name).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
    }

    #[test]
    fn unknown_experiment_is_reported() {
        assert!(!run("nope", &Config::default()));
    }
}
