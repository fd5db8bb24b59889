//! Quantized filter-tier experiment: raw filter-pass throughput of the
//! fused `i16` classification kernel vs the exact `f64` compare kernel,
//! end-to-end query speedup with the tier enabled (answers asserted
//! bit-identical first), and the same for top-k queries (whose
//! intermediate interval goes through the same filter; answers compared
//! and reported). Results go to `BENCH_quant.json`.

use crate::report::{self, ms, Table};
use crate::{time_ms, Config};
use planar_core::stats::json_array;
use planar_core::{
    Cmp, IndexConfig, InequalityQuery, JsonObject, PlanarIndexSet, QuantFilterStats, QuantTier,
    QuantizedColumns, TopKQuery, VecStore,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_geom::{classify_block_i16, dot_cmp_block, quant_kernel_name};

/// Dataset dimensionality (d' = 8, the paper's mid-size feature space).
const DIM: usize = 8;
/// RQ of the Eq. 18 query template.
const RQ: usize = 4;
/// Index budget.
const BUDGET: usize = 8;
/// Timing repetitions per arm (the mean is reported).
const REPS: usize = 5;
/// Cardinality sweep (pre-`--scale`): the filter pass must clear ≥1.5×
/// at the largest size.
const NS: [usize; 3] = [5_000, 50_000, 500_000];
/// Neighbors per top-k query.
const TOP_K: usize = 10;

/// One pass of the exact `f64` compare kernel over every block of the
/// table — the work the filter tier fronts. Returns the match count.
fn f64_pass(table: &planar_core::FeatureTable, q: &InequalityQuery) -> usize {
    let cols = table.columns();
    let stride = cols.stride();
    let leq = q.cmp() == Cmp::Leq;
    let mut matched = 0usize;
    for seg in cols.segments(0, table.len() as u32) {
        matched +=
            dot_cmp_block(q.a(), seg.cols, stride, seg.lanes, q.b(), leq).count_ones() as usize;
    }
    matched
}

/// One pass of the fused quantized classification kernel over every block:
/// the same per-block setup the production filter does (fold the query
/// into `f32` code space, derive thresholds from the block's decode
/// offsets), then one `classify_block_i16` call per block. Returns the
/// number of lanes the filter settled (below + above) — classification
/// *throughput* is what this arm measures; verdict soundness is covered by
/// the proptests and the end-to-end arm's identity assertion.
fn quant_pass(q: &InequalityQuery, mirror: &QuantizedColumns, n: usize, stride: usize) -> usize {
    let dim = q.a().len();
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

struct FilterPoint {
    n: usize,
    f64_ms: f64,
    i16_ms: f64,
}

struct EndToEndPoint {
    n: usize,
    off_ms: f64,
    i16_ms: f64,
    band_i16: f64,
    fallback: f64,
}

struct TopKPoint {
    n: usize,
    off_ms: f64,
    i16_ms: f64,
    lanes_per_query: f64,
    answers_identical: bool,
}

fn dataset(cfg: &Config, n: usize) -> (PlanarIndexSet<VecStore>, Vec<InequalityQuery>) {
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n, DIM).generate();
    let set: PlanarIndexSet<VecStore> = PlanarIndexSet::build(
        table,
        eq18_domain(DIM, RQ),
        IndexConfig::with_budget(BUDGET).seed(cfg.seed),
    )
    .expect("quant experiment build");
    let mut generator =
        Eq18Generator::new(set.table(), RQ, cfg.seed ^ 0x0AB7).with_inequality_parameter(0.25);
    let queries = generator.queries(cfg.queries.max(10));
    (set, queries)
}

/// True re-verification band of a query run's aggregated quant counters:
/// lanes the error bound left uncertain, over all lanes. Fallback lanes
/// (short segments, unencodable blocks) are reported separately.
fn band_rate(stats: &QuantFilterStats) -> f64 {
    if stats.lanes == 0 {
        return 0.0;
    }
    stats.reverified as f64 / stats.lanes as f64
}

/// Fraction of lanes that bypassed the filter entirely (short candidate
/// runs and unencodable blocks go straight to the exact kernel).
fn fallback_rate(stats: &QuantFilterStats) -> f64 {
    if stats.lanes == 0 {
        return 0.0;
    }
    stats.fallback as f64 / stats.lanes as f64
}

/// Run every query against `set`, returning elapsed ms, the collected
/// sorted id lists, and the summed quant counters.
fn run_queries(
    set: &PlanarIndexSet<VecStore>,
    queries: &[InequalityQuery],
) -> (f64, Vec<Vec<u32>>, QuantFilterStats) {
    let mut stats = QuantFilterStats::default();
    let (answers, elapsed) = time_ms(|| {
        queries
            .iter()
            .map(|q| {
                let out = set.query(q).expect("quant experiment query");
                stats.merge(&out.stats.quant);
                out.sorted_ids()
            })
            .collect::<Vec<_>>()
    });
    (elapsed, answers, stats)
}

/// `(id, distance bits)` answers of one top-k run.
type TopKAnswers = Vec<Vec<(u32, u64)>>;

/// Run every query as a top-k query (k = [`TOP_K`]) against `set`,
/// returning elapsed ms, the answers with bit-exact distances, and the
/// summed quant counters.
fn run_top_k(
    set: &PlanarIndexSet<VecStore>,
    queries: &[TopKQuery],
) -> (f64, TopKAnswers, QuantFilterStats) {
    let mut stats = QuantFilterStats::default();
    let (answers, elapsed) = time_ms(|| {
        queries
            .iter()
            .map(|q| {
                let out = set.top_k(q).expect("quant experiment top-k");
                stats.merge(&out.stats.quant);
                out.neighbors
                    .iter()
                    .map(|&(id, d)| (id, d.to_bits()))
                    .collect()
            })
            .collect::<Vec<_>>()
    });
    (elapsed, answers, stats)
}

/// The `quant` experiment (see module docs).
pub fn quant(cfg: &Config) {
    let mut filter = Vec::new();
    let mut e2e = Vec::new();
    let mut top_k = Vec::new();
    for raw_n in NS {
        let n = cfg.scaled(raw_n);
        let (set, queries) = dataset(cfg, n);
        filter.push(filter_arm(&set, &queries, n));
        e2e.push(end_to_end_arm(&set, &queries, n));
        top_k.push(top_k_arm(&set, &queries, n));
    }

    let mut t = Table::new(
        &format!(
            "Quantized filter pass: dim={DIM}, {} queries, kernel={}",
            cfg.queries.max(10),
            quant_kernel_name(),
        ),
        &["n", "f64 ms", "i16 ms", "i16 x"],
    );
    let mut filter_pass = Vec::new();
    for p in &filter {
        let x16 = p.f64_ms / p.i16_ms;
        t.row(vec![
            p.n.to_string(),
            ms(p.f64_ms),
            ms(p.i16_ms),
            format!("{x16:.2}"),
        ]);
        filter_pass.push(
            JsonObject::new()
                .field_usize("n", p.n)
                .field_f64("f64_ms", p.f64_ms)
                .field_f64("i16_ms", p.i16_ms)
                .field_f64("speedup_i16", x16)
                .finish(),
        );
    }
    t.print();

    let mut t = Table::new(
        "End-to-end queries, tier off vs on (answers bit-identical)",
        &["n", "off ms", "i16 ms", "band i16", "fallback"],
    );
    let mut end_to_end = Vec::new();
    for p in &e2e {
        t.row(vec![
            p.n.to_string(),
            ms(p.off_ms),
            ms(p.i16_ms),
            format!("{:.4}", p.band_i16),
            format!("{:.3}", p.fallback),
        ]);
        end_to_end.push(
            JsonObject::new()
                .field_usize("n", p.n)
                .field_f64("off_ms", p.off_ms)
                .field_f64("i16_ms", p.i16_ms)
                .field_f64("speedup_i16", p.off_ms / p.i16_ms)
                .field_f64("band_i16", p.band_i16)
                .field_f64("fallback", p.fallback)
                .field_bool("answers_identical", true)
                .finish(),
        );
    }
    t.print();

    let mut t = Table::new(
        &format!("Top-k (k = {TOP_K}), tier off vs on (ids and distances vs off)"),
        &["n", "off ms", "i16 ms", "i16 x", "lanes/q", "identical"],
    );
    let mut top_k_rows = Vec::new();
    for p in &top_k {
        let x16 = p.off_ms / p.i16_ms;
        t.row(vec![
            p.n.to_string(),
            ms(p.off_ms),
            ms(p.i16_ms),
            format!("{x16:.2}"),
            format!("{:.0}", p.lanes_per_query),
            p.answers_identical.to_string(),
        ]);
        top_k_rows.push(
            JsonObject::new()
                .field_usize("n", p.n)
                .field_f64("off_ms", p.off_ms)
                .field_f64("i16_ms", p.i16_ms)
                .field_f64("speedup_i16", x16)
                .field_f64("quant_lanes_per_query", p.lanes_per_query)
                .field_bool("answers_identical", p.answers_identical)
                .finish(),
        );
    }
    t.print();

    report::write_json("quant", |doc| {
        doc.field_usize("dim", DIM)
            .field_usize("budget", BUDGET)
            .field_str("kernel_i16", quant_kernel_name())
            .field_raw("filter_pass", &json_array(filter_pass))
            .field_raw("end_to_end", &json_array(end_to_end))
            .field_raw("top_k", &json_array(top_k_rows))
    });
}

fn filter_arm(
    set: &PlanarIndexSet<VecStore>,
    queries: &[InequalityQuery],
    n: usize,
) -> FilterPoint {
    let cols = set.table().columns();
    let stride = cols.stride();
    let i16_mirror = QuantizedColumns::encode(cols);
    let (mut f64_ms, mut i16_ms) = (0.0, 0.0);
    for _ in 0..REPS {
        let (counts, t) = time_ms(|| {
            queries
                .iter()
                .map(|q| f64_pass(set.table(), q))
                .sum::<usize>()
        });
        std::hint::black_box(counts);
        f64_ms += t;
        let (counts, t) = time_ms(|| {
            queries
                .iter()
                .map(|q| quant_pass(q, &i16_mirror, n, stride))
                .sum::<usize>()
        });
        std::hint::black_box(counts);
        i16_ms += t;
    }
    FilterPoint {
        n,
        f64_ms: f64_ms / REPS as f64,
        i16_ms: i16_ms / REPS as f64,
    }
}

fn end_to_end_arm(
    set: &PlanarIndexSet<VecStore>,
    queries: &[InequalityQuery],
    n: usize,
) -> EndToEndPoint {
    let mut i16_set = set.clone();
    i16_set.set_quant_tier(QuantTier::I16);

    // Bit-identical answers are a precondition for timing, not a result.
    let (_, base, _) = run_queries(set, queries);
    let (_, a16, _) = run_queries(&i16_set, queries);
    assert_eq!(base, a16, "i16 tier changed an answer");

    let (mut off_ms, mut i16_ms) = (0.0, 0.0);
    let mut s16 = QuantFilterStats::default();
    for _ in 0..REPS {
        let (t, _, _) = run_queries(set, queries);
        off_ms += t;
        let (t, _, s) = run_queries(&i16_set, queries);
        i16_ms += t;
        s16.merge(&s);
    }
    EndToEndPoint {
        n,
        off_ms: off_ms / REPS as f64,
        i16_ms: i16_ms / REPS as f64,
        band_i16: band_rate(&s16),
        fallback: fallback_rate(&s16),
    }
}

fn top_k_arm(set: &PlanarIndexSet<VecStore>, queries: &[InequalityQuery], n: usize) -> TopKPoint {
    let queries: Vec<TopKQuery> = queries
        .iter()
        .map(|q| TopKQuery::new(q.clone(), TOP_K).expect("top-k query"))
        .collect();
    let mut i16_set = set.clone();
    i16_set.set_quant_tier(QuantTier::I16);

    // Reported rather than asserted: the report test gates on it.
    let (_, base, _) = run_top_k(set, &queries);
    let (_, a16, lanes) = run_top_k(&i16_set, &queries);
    let answers_identical = base == a16;

    let (mut off_ms, mut i16_ms) = (0.0, 0.0);
    for _ in 0..REPS {
        off_ms += run_top_k(set, &queries).0;
        i16_ms += run_top_k(&i16_set, &queries).0;
    }
    TopKPoint {
        n,
        off_ms: off_ms / REPS as f64,
        i16_ms: i16_ms / REPS as f64,
        lanes_per_query: lanes.lanes as f64 / queries.len() as f64,
        answers_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Config {
        Config {
            scale: 0.0, // scaled() floors at 100 points
            queries: 4,
            ..Config::default()
        }
    }

    #[test]
    fn end_to_end_answers_are_identical_at_tiny_scale() {
        let cfg = tiny_cfg();
        let n = cfg.scaled(NS[0]);
        let (set, queries) = dataset(&cfg, n);
        // The identity asserts inside the arm are the test.
        let p = end_to_end_arm(&set, &queries, n);
        assert_eq!(p.n, n);
    }

    #[test]
    fn top_k_answers_are_identical_at_tiny_scale() {
        let cfg = tiny_cfg();
        let n = cfg.scaled(NS[0]);
        let (set, queries) = dataset(&cfg, n);
        let p = top_k_arm(&set, &queries, n);
        assert!(p.answers_identical);
        assert!(p.lanes_per_query > 0.0);
    }

    #[test]
    fn filter_arm_runs_and_reports_positive_times() {
        let cfg = tiny_cfg();
        let n = cfg.scaled(NS[0]);
        let (set, queries) = dataset(&cfg, n);
        let p = filter_arm(&set, &queries, n);
        assert!(p.f64_ms >= 0.0 && p.i16_ms >= 0.0);
    }
}
