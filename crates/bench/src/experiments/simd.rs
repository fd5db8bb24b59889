//! SIMD verification experiment: columnar fused-kernel throughput vs the
//! row-major blocked-scalar baseline, and multi-index intersection pruning
//! on vs off. Results are printed as tables and written to
//! `BENCH_simd.json`, stamped with the dispatched kernel so archived
//! numbers are traceable to the code path that produced them.

use crate::report::{self, ms, Table};
use crate::{time_ms, Config};
use planar_core::{
    Cmp, ExecutionConfig, IndexConfig, InequalityQuery, JsonObject, PlanarIndexSet, QueryScratch,
    StatsAggregator, StatsSnapshot, VecStore,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_datagen::SYNTHETIC_N;
use planar_geom::{dot_block, dot_cmp_block, BLOCK_ROWS};

/// Dataset dimensionality (d' = 8 is the paper's mid-size feature space).
const DIM: usize = 8;
/// RQ of the Eq. 18 query template.
const RQ: usize = 4;
/// Index budget for the pruning arm — enough siblings that intersection
/// has sharp intervals to intersect with.
const BUDGET: usize = 8;
/// Timing repetitions per arm (the mean is reported).
const REPS: usize = 5;
/// Rows verified per query in the kernel arm. An intermediate interval is
/// a contiguous key range verified while cache-hot, so the kernel
/// comparison uses an L2-resident window (8192 rows × 8 dims × 8 B =
/// 512 KiB) rather than a full-table sweep that would measure memory
/// bandwidth instead of the kernels.
const VERIFY_WINDOW: usize = 8192;

/// Verify the first `window` rows of `table` against `q` with the
/// PR 1-era row-major blocked-scalar path: gather 64 contiguous rows,
/// `dot_block`, compare. Returns the number of satisfying rows.
fn verify_rowmajor(table: &planar_core::FeatureTable, q: &InequalityQuery, window: u32) -> usize {
    let n = table.len().min(window as usize) as u32;
    let mut dots = [0.0f64; BLOCK_ROWS];
    let mut matched = 0;
    let mut lo = 0u32;
    while lo < n {
        let hi = (lo + BLOCK_ROWS as u32).min(n);
        let lanes = (hi - lo) as usize;
        dot_block(q.a(), table.rows_between(lo, hi), &mut dots[..lanes]);
        for &d in &dots[..lanes] {
            if q.satisfies_dot(d) {
                matched += 1;
            }
        }
        lo = hi;
    }
    matched
}

/// The same verification through the columnar layout and the fused
/// compare kernel (the path `verify_ids` takes since this experiment's
/// accompanying change). Returns the number of satisfying rows.
fn verify_columnar(table: &planar_core::FeatureTable, q: &InequalityQuery, window: u32) -> usize {
    let cols = table.columns();
    let stride = cols.stride();
    let leq = q.cmp() == Cmp::Leq;
    let mut matched = 0;
    for seg in cols.segments(0, (table.len() as u32).min(window)) {
        let mask = dot_cmp_block(q.a(), seg.cols, stride, seg.lanes, q.b(), leq);
        matched += mask.count_ones() as usize;
    }
    matched
}

struct KernelArm {
    rowmajor_ms: f64,
    columnar_ms: f64,
    rows_verified: usize,
}

struct PruningArm {
    queries: usize,
    verified_off: usize,
    verified_on: usize,
    intersect_pruned: usize,
    snapshot: StatsSnapshot,
}

/// The `simd` experiment (see module docs).
pub fn simd(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n, DIM).generate();
    let set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
        table,
        eq18_domain(DIM, RQ),
        IndexConfig::with_budget(BUDGET).seed(cfg.seed),
    )
    .expect("simd experiment build");
    let mut generator =
        Eq18Generator::new(set.table(), RQ, cfg.seed ^ 0x51D).with_inequality_parameter(0.25);
    let queries: Vec<InequalityQuery> = generator.queries(cfg.queries.max(10));

    let kernel = kernel_arm(&set, &queries);
    let pruning = pruning_arm(&set, &queries);

    let mut t = Table::new(
        &format!(
            "SIMD verification: n={n}, dim={DIM}, {} queries, kernel={}",
            queries.len(),
            planar_geom::kernel_name()
        ),
        &["arm", "time_ms", "rows/s", "speedup"],
    );
    let rows = kernel.rows_verified as f64;
    t.row(vec![
        "row-major blocked".into(),
        ms(kernel.rowmajor_ms),
        format!("{:.0}", rows / (kernel.rowmajor_ms / 1e3)),
        "1.00".into(),
    ]);
    t.row(vec![
        "columnar fused".into(),
        ms(kernel.columnar_ms),
        format!("{:.0}", rows / (kernel.columnar_ms / 1e3)),
        format!("{:.2}", kernel.rowmajor_ms / kernel.columnar_ms),
    ]);
    t.print();

    let mut t = Table::new(
        &format!(
            "Intersection pruning: budget={BUDGET}, {} queries (answers identical)",
            pruning.queries
        ),
        &["arm", "scalar products", "settled by siblings"],
    );
    t.row(vec![
        "pruning off".into(),
        pruning.verified_off.to_string(),
        "0".into(),
    ]);
    t.row(vec![
        "pruning on".into(),
        pruning.verified_on.to_string(),
        pruning.intersect_pruned.to_string(),
    ]);
    t.print();

    let snap = &pruning.snapshot;
    let verification = JsonObject::new()
        .field_usize("rows_verified", kernel.rows_verified)
        .field_f64("rowmajor_blocked_ms", kernel.rowmajor_ms)
        .field_f64("columnar_fused_ms", kernel.columnar_ms)
        .field_f64("speedup", kernel.rowmajor_ms / kernel.columnar_ms)
        .finish();
    let reduction_pct = if pruning.verified_off == 0 {
        0.0
    } else {
        100.0 * (pruning.verified_off - pruning.verified_on) as f64 / pruning.verified_off as f64
    };
    let intersection_pruning = JsonObject::new()
        .field_usize("queries", pruning.queries)
        .field_usize("verified_unpruned", pruning.verified_off)
        .field_usize("verified_pruned", pruning.verified_on)
        .field_usize("settled_by_siblings", pruning.intersect_pruned)
        .field_f64("verified_reduction_pct", reduction_pct)
        .field_f64("mean_intersect_pruned", snap.mean_intersect_pruned)
        .field_bool("result_sets_identical", true)
        .finish();
    report::write_json("simd", |doc| {
        doc.field_usize("n", n)
            .field_usize("dim", DIM)
            .field_usize("budget", BUDGET)
            .field_str("kernel", snap.kernel)
            .field_bool("fma_available", snap.fma_available)
            .field_u64("thread_clamp_events", snap.thread_clamp_events)
            .field_raw("verification", &verification)
            .field_raw("intersection_pruning", &intersection_pruning)
    });
}

/// Time full-table verification through both layouts, asserting they agree
/// on every query's match count.
fn kernel_arm(set: &PlanarIndexSet<VecStore>, queries: &[InequalityQuery]) -> KernelArm {
    let table = set.table();
    let mut rowmajor_ms = 0.0;
    let mut columnar_ms = 0.0;
    let mut rows_verified = 0;
    let window = VERIFY_WINDOW as u32;
    for _ in 0..REPS {
        let (row_counts, t) = time_ms(|| {
            queries
                .iter()
                .map(|q| verify_rowmajor(table, q, window))
                .collect::<Vec<_>>()
        });
        rowmajor_ms += t;
        let (col_counts, t) = time_ms(|| {
            queries
                .iter()
                .map(|q| verify_columnar(table, q, window))
                .collect::<Vec<_>>()
        });
        columnar_ms += t;
        assert_eq!(row_counts, col_counts, "layouts disagree on match counts");
        rows_verified = row_counts.len() * table.len().min(VERIFY_WINDOW);
    }
    KernelArm {
        rowmajor_ms: rowmajor_ms / REPS as f64,
        columnar_ms: columnar_ms / REPS as f64,
        rows_verified,
    }
}

/// Run the query set with intersection pruning off and on, asserting the
/// result sets are identical, and snapshot the pruned run's aggregate
/// stats (which also records the kernel dispatch and thread clamps).
fn pruning_arm(set: &PlanarIndexSet<VecStore>, queries: &[InequalityQuery]) -> PruningArm {
    let off = ExecutionConfig::serial().intersect_pruning(false);
    let on = ExecutionConfig::serial().intersect_min_candidates(1);
    let mut scratch = QueryScratch::new();
    let mut agg = StatsAggregator::new();
    let (mut verified_off, mut verified_on, mut intersect_pruned) = (0, 0, 0);
    for q in queries {
        let plain = set.query_with(q, &off, &mut scratch).expect("unpruned");
        let pruned = set.query_with(q, &on, &mut scratch).expect("pruned");
        assert_eq!(
            plain.matches, pruned.matches,
            "intersection pruning changed a result set"
        );
        verified_off += plain.stats.verified;
        verified_on += pruned.stats.verified;
        intersect_pruned += pruned.stats.intersect_pruned;
        agg.add(&pruned.stats);
    }
    PruningArm {
        queries: queries.len(),
        verified_off,
        verified_on,
        intersect_pruned,
        snapshot: agg.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_setup() -> (PlanarIndexSet<VecStore>, Vec<InequalityQuery>) {
        let cfg = Config {
            scale: 0.0, // scaled() floors at 100 points
            queries: 4,
            ..Config::default()
        };
        let n = cfg.scaled(SYNTHETIC_N);
        let table = SyntheticConfig::paper(SyntheticKind::Independent, n, DIM).generate();
        let set = PlanarIndexSet::build(
            table,
            eq18_domain(DIM, RQ),
            IndexConfig::with_budget(BUDGET).seed(cfg.seed),
        )
        .unwrap();
        let mut generator =
            Eq18Generator::new(set.table(), RQ, cfg.seed).with_inequality_parameter(0.25);
        let queries = generator.queries(cfg.queries);
        (set, queries)
    }

    #[test]
    fn layouts_agree_on_match_counts() {
        let (set, queries) = tiny_setup();
        for q in &queries {
            let window = VERIFY_WINDOW as u32;
            assert_eq!(
                verify_rowmajor(set.table(), q, window),
                verify_columnar(set.table(), q, window)
            );
        }
    }
}
