//! Synthetic-dataset experiments: Figures 7–13 and the Table 1 complexity
//! check.

use crate::report::{ms, pct, Table};
use crate::{time_ms, Config};
use planar_core::{HeapSize, IndexConfig, PlanarIndexSet, SeqScan, VecStore};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_datagen::SYNTHETIC_N;

/// One measured configuration.
struct Measurement {
    index_ms: f64,
    baseline_ms: f64,
    pruning: f64,
}

/// Build a set and measure mean query time (indexed + baseline) and mean
/// pruning percentage over the config's query count.
fn measure(
    cfg: &Config,
    kind: SyntheticKind,
    n: usize,
    dim: usize,
    rq: usize,
    n_index: usize,
    inequality_parameter: f64,
) -> Measurement {
    let table = SyntheticConfig::paper(kind, n, dim).generate();
    let scan_table = table.clone();
    let set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
        table,
        eq18_domain(dim, rq),
        IndexConfig::with_budget(n_index).seed(cfg.seed),
    )
    .expect("synthetic build");
    let mut generator = Eq18Generator::new(set.table(), rq, cfg.seed ^ 0xBEEF)
        .with_inequality_parameter(inequality_parameter);
    let queries = generator.queries(cfg.queries);
    let scan = SeqScan::new(&scan_table);

    let mut index_ms = 0.0;
    let mut baseline_ms = 0.0;
    let mut pruning = 0.0;
    for q in &queries {
        let (out, t) = time_ms(|| set.query(q).expect("query"));
        index_ms += t;
        pruning += out.stats.pruning_percentage();
        let (_, tb) = time_ms(|| scan.evaluate(q).expect("scan"));
        baseline_ms += tb;
    }
    let k = queries.len() as f64;
    Measurement {
        index_ms: index_ms / k,
        baseline_ms: baseline_ms / k,
        pruning: pruning / k,
    }
}

/// Table 1 (empirical side): planar query time should grow ~logarithmically
/// with n at fixed selectivity regime, the baseline linearly.
pub fn table1(cfg: &Config) {
    let mut t = Table::new(
        "Table 1 (empirical): query time vs n — Planar O(d' log n + t) vs scan O(n d')",
        &["n", "planar_ms", "baseline_ms", "speedup"],
    );
    let base = cfg.scaled(SYNTHETIC_N);
    for frac in [0.01, 0.04, 0.16, 0.64, 1.0] {
        let n = ((base as f64 * frac) as usize).max(100);
        let m = measure(cfg, SyntheticKind::Independent, n, 6, 2, 50, 0.25);
        t.row(vec![
            n.to_string(),
            ms(m.index_ms),
            ms(m.baseline_ms),
            crate::report::speedup(m.baseline_ms, m.index_ms),
        ]);
    }
    t.print();
}

/// Figures 7 and 9: query time and pruning % vs dimensionality and RQ at
/// #index = 100.
pub fn fig7_9(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N);
    let mut time_table = Table::new(
        &format!("Fig 7: query time (ms), synthetic n={n}, #index=100"),
        &["dim", "RQ", "indp", "corr", "anti", "baseline"],
    );
    let mut prune_table = Table::new(
        &format!("Fig 9: pruning %, synthetic n={n}, #index=100"),
        &["dim", "RQ", "indp", "corr", "anti"],
    );
    for dim in [2usize, 6, 10, 14] {
        for rq in [2usize, 4, 8, 12] {
            let mut times = Vec::new();
            let mut prunes = Vec::new();
            let mut baseline = 0.0;
            for kind in SyntheticKind::ALL {
                let m = measure(cfg, kind, n, dim, rq, 100, 0.25);
                times.push(ms(m.index_ms));
                prunes.push(pct(m.pruning));
                baseline = m.baseline_ms; // comparable across kinds (paper notes this)
            }
            time_table.row(vec![
                dim.to_string(),
                rq.to_string(),
                times[0].clone(),
                times[1].clone(),
                times[2].clone(),
                ms(baseline),
            ]);
            prune_table.row(vec![
                dim.to_string(),
                rq.to_string(),
                prunes[0].clone(),
                prunes[1].clone(),
                prunes[2].clone(),
            ]);
        }
    }
    time_table.print();
    prune_table.print();
}

/// Figures 8 and 10: query time and pruning % vs dimensionality and #index
/// at RQ = 4.
pub fn fig8_10(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N);
    let mut time_table = Table::new(
        &format!("Fig 8: query time (ms), synthetic n={n}, RQ=4"),
        &["dim", "#index", "indp", "corr", "anti", "baseline"],
    );
    let mut prune_table = Table::new(
        &format!("Fig 10: pruning %, synthetic n={n}, RQ=4"),
        &["dim", "#index", "indp", "corr", "anti"],
    );
    for dim in [2usize, 6, 10, 14] {
        for n_index in [1usize, 10, 50, 100] {
            let mut times = Vec::new();
            let mut prunes = Vec::new();
            let mut baseline = 0.0;
            for kind in SyntheticKind::ALL {
                let m = measure(cfg, kind, n, dim, 4, n_index, 0.25);
                times.push(ms(m.index_ms));
                prunes.push(pct(m.pruning));
                baseline = m.baseline_ms;
            }
            time_table.row(vec![
                dim.to_string(),
                n_index.to_string(),
                times[0].clone(),
                times[1].clone(),
                times[2].clone(),
                ms(baseline),
            ]);
            prune_table.row(vec![
                dim.to_string(),
                n_index.to_string(),
                prunes[0].clone(),
                prunes[1].clone(),
                prunes[2].clone(),
            ]);
        }
    }
    time_table.print();
    prune_table.print();
}

/// Figure 11: query selectivity and query time vs the inequality parameter.
pub fn fig11(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N);
    let mut t = Table::new(
        &format!(
            "Fig 11: selectivity & query time vs inequality parameter, n={n}, #index=100, RQ=4"
        ),
        &[
            "dim",
            "ineq",
            "kind",
            "selectivity_%",
            "planar_ms",
            "baseline_ms",
        ],
    );
    for dim in [6usize, 10] {
        for s in [0.10, 0.25, 0.50, 0.75, 1.00] {
            for kind in SyntheticKind::ALL {
                let table = SyntheticConfig::paper(kind, n, dim).generate();
                let scan_table = table.clone();
                let set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
                    table,
                    eq18_domain(dim, 4),
                    IndexConfig::with_budget(100).seed(cfg.seed),
                )
                .expect("build");
                let mut generator = Eq18Generator::new(set.table(), 4, cfg.seed ^ 0xF11)
                    .with_inequality_parameter(s);
                let queries = generator.queries(cfg.queries);
                let scan = SeqScan::new(&scan_table);
                let mut planar_ms = 0.0;
                let mut baseline_ms = 0.0;
                let mut selectivity = 0.0;
                for q in &queries {
                    let (out, tq) = time_ms(|| set.query(q).expect("query"));
                    planar_ms += tq;
                    selectivity += 100.0 * out.matches.len() as f64 / n as f64;
                    let (_, tb) = time_ms(|| scan.evaluate(q).expect("scan"));
                    baseline_ms += tb;
                }
                let k = queries.len() as f64;
                t.row(vec![
                    dim.to_string(),
                    format!("{s:.2}"),
                    kind.name().to_string(),
                    pct(selectivity / k),
                    ms(planar_ms / k),
                    ms(baseline_ms / k),
                ]);
            }
        }
    }
    t.print();
}

/// Figure 12: index build time and query time vs number of data points.
pub fn fig12(cfg: &Config) {
    let base = cfg.scaled(SYNTHETIC_N);
    let mut build_table = Table::new(
        "Fig 12a: index build time (s) vs n (all synthetic kinds alike)",
        &["n", "#index=1", "#index=10", "#index=50", "#index=100"],
    );
    let mut query_tables: Vec<Table> = SyntheticKind::ALL
        .iter()
        .zip(['b', 'c', 'd'])
        .map(|(k, letter)| {
            Table::new(
                &format!("Fig 12{letter}: query time (ms) vs n — {}", k.name()),
                &[
                    "n",
                    "#index=1",
                    "#index=10",
                    "#index=50",
                    "#index=100",
                    "baseline",
                ],
            )
        })
        .collect();
    for frac in [0.1, 0.3, 0.5, 0.7, 1.0] {
        let n = ((base as f64 * frac) as usize).max(100);
        // Build times on indp (paper: independent of kind).
        let mut build_cells = vec![n.to_string()];
        for n_index in [1usize, 10, 50, 100] {
            let table = SyntheticConfig::paper(SyntheticKind::Independent, n, 6).generate();
            let (_, ms_build) = time_ms(|| {
                PlanarIndexSet::<VecStore>::build(
                    table,
                    eq18_domain(6, 4),
                    IndexConfig::with_budget(n_index).seed(cfg.seed),
                )
                .expect("build")
            });
            build_cells.push(format!("{:.2}", ms_build / 1e3));
        }
        build_table.row(build_cells);
        for (kind, qt) in SyntheticKind::ALL.iter().zip(&mut query_tables) {
            let mut cells = vec![n.to_string()];
            let mut baseline = 0.0;
            for n_index in [1usize, 10, 50, 100] {
                let m = measure(cfg, *kind, n, 6, 4, n_index, 0.25);
                cells.push(ms(m.index_ms));
                baseline = m.baseline_ms;
            }
            cells.push(ms(baseline));
            qt.row(cells);
        }
    }
    build_table.print();
    for qt in &query_tables {
        qt.print();
    }
}

/// Figure 13a: index construction time vs dimensionality and #index.
pub fn fig13a(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N);
    let mut t = Table::new(
        &format!("Fig 13a: index build time (s), n={n}"),
        &["dim", "#index=1", "#index=10", "#index=50", "#index=100"],
    );
    for dim in [2usize, 6, 10, 14] {
        let mut cells = vec![dim.to_string()];
        for n_index in [1usize, 10, 50, 100] {
            let table = SyntheticConfig::paper(SyntheticKind::Independent, n, dim).generate();
            let (_, ms_build) = time_ms(|| {
                PlanarIndexSet::<VecStore>::build(
                    table,
                    eq18_domain(dim, 4),
                    IndexConfig::with_budget(n_index).seed(cfg.seed),
                )
                .expect("build")
            });
            cells.push(format!("{:.2}", ms_build / 1e3));
        }
        t.row(cells);
    }
    t.print();
}

/// Figure 13b: memory consumption vs #index and dimensionality.
pub fn fig13b(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N);
    let mut t = Table::new(
        &format!("Fig 13b: memory (MB), n={n}"),
        &[
            "#index",
            "dim=2",
            "dim=6",
            "dim=10",
            "dim=14",
            "baseline(dim=14)",
        ],
    );
    for n_index in [1usize, 10, 50, 100] {
        let mut cells = vec![n_index.to_string()];
        let mut raw_mb = 0.0;
        for dim in [2usize, 6, 10, 14] {
            let table = SyntheticConfig::paper(SyntheticKind::Independent, n, dim).generate();
            raw_mb = table.heap_size() as f64 / (1024.0 * 1024.0);
            let set = PlanarIndexSet::<VecStore>::build(
                table,
                eq18_domain(dim, 4),
                IndexConfig::with_budget(n_index).seed(cfg.seed),
            )
            .expect("build");
            cells.push(format!(
                "{:.1}",
                set.memory_usage() as f64 / (1024.0 * 1024.0)
            ));
        }
        cells.push(format!("{raw_mb:.1}"));
        t.row(cells);
    }
    t.print();
}

/// Figure 13c: dynamic index update time vs fraction of points updated.
pub fn fig13c(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N);
    let n_index = 10usize;
    let mut t = Table::new(
        &format!("Fig 13c: per-index update time (ms), n={n}, #index={n_index} (packed id store)"),
        &["update_%", "dim=6", "dim=10"],
    );
    let mut rows: Vec<Vec<String>> = [1usize, 5, 10, 25]
        .iter()
        .map(|p| vec![p.to_string()])
        .collect();
    for dim in [6usize, 10] {
        let table = SyntheticConfig::paper(SyntheticKind::Independent, n, dim).generate();
        let mut set = PlanarIndexSet::<VecStore>::build(
            table,
            eq18_domain(dim, 4),
            IndexConfig::with_budget(n_index).seed(cfg.seed),
        )
        .expect("build");
        // Updated rows cycle through precomputed replacement values.
        let replacement: Vec<f64> = (0..dim).map(|i| 1.0 + (i as f64) * 7.0 % 99.0).collect();
        for (row_idx, pct_updates) in [1usize, 5, 10, 25].iter().enumerate() {
            let count = (n * pct_updates / 100).max(1);
            let (_, total_ms) = time_ms(|| {
                for id in 0..count as u32 {
                    set.update_point(id, &replacement).expect("update");
                }
            });
            rows[row_idx].push(ms(total_ms / n_index as f64));
        }
    }
    for row in rows {
        t.row(row);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            scale: 0.0002, // 200 points
            queries: 2,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn measure_runs_and_is_sane() {
        let m = measure(&tiny(), SyntheticKind::Correlated, 500, 4, 4, 10, 0.25);
        assert!(m.index_ms >= 0.0 && m.baseline_ms >= 0.0);
        assert!((0.0..=100.0).contains(&m.pruning));
    }

    #[test]
    fn table1_smoke() {
        table1(&tiny());
    }

    #[test]
    fn fig13c_smoke() {
        fig13c(&tiny());
    }
}
