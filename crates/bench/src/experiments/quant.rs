//! Quantized filter-tier experiment: raw filter-pass throughput of the
//! fused `i8`/`i16` classification kernels vs the exact `f64` compare
//! kernel, end-to-end query speedup with the tier enabled (answers
//! asserted bit-identical first), the same for top-k queries (whose
//! intermediate interval goes through the same filter; answers compared
//! and reported), the re-verification band as a function of the
//! error-bound slack, and the per-shard autotuner's chosen policies with
//! a no-regression latency check. Results go to `BENCH_quant.json`.

use crate::report::{self, ms, Table};
use crate::{time_ms, Config};
use planar_core::stats::json_array;
use planar_core::{
    Cmp, IndexConfig, InequalityQuery, JsonObject, PlanarIndexSet, QuantAutotuneConfig,
    QuantFilterStats, QuantPolicy, QuantTier, QuantizedColumns, ShardConfig, ShardedIndexSet,
    TopKQuery, VecStore,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_geom::{classify_block_i16, classify_block_i8, dot_cmp_block, quant_kernel_name};

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
/// Error-bound slack sweep for the band arm.
const SLACKS: [f64; 3] = [1.0, 2.0, 4.0];

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
/// offsets), then one `classify_block_*` call per block. Returns the
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
        let (below, above) = match (mirror.codes_i8(), mirror.codes_i16()) {
            (Some(codes), _) => {
                classify_block_i8(&w, &codes[b * dim * stride..], stride, lanes, t, t)
            }
            (_, Some(codes)) => {
                classify_block_i16(&w, &codes[b * dim * stride..], stride, lanes, t, t)
            }
            _ => unreachable!("mirror always holds one code plane"),
        };
        settled += (below | above).count_ones() as usize;
    }
    settled
}

struct FilterPoint {
    n: usize,
    f64_ms: f64,
    i16_ms: f64,
    i8_ms: f64,
}

struct EndToEndPoint {
    n: usize,
    off_ms: f64,
    i16_ms: f64,
    i8_ms: f64,
    band_i16: f64,
    band_i8: f64,
    fallback: f64,
}

struct TopKPoint {
    n: usize,
    off_ms: f64,
    i16_ms: f64,
    i8_ms: f64,
    lanes_per_query: f64,
    answers_identical: bool,
}

struct SlackPoint {
    slack: f64,
    band: f64,
    rejected: f64,
    accepted: f64,
}

struct TunerArm {
    shards: usize,
    policies: Vec<QuantPolicy>,
    off_ms: f64,
    tuned_ms: f64,
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
    let slack = slack_arm(cfg);
    let tuner = tuner_arm(cfg);

    let mut t = Table::new(
        &format!(
            "Quantized filter pass: dim={DIM}, {} queries, kernels={}/{}",
            cfg.queries.max(10),
            quant_kernel_name(false),
            quant_kernel_name(true),
        ),
        &["n", "f64 ms", "i16 ms", "i8 ms", "i16 x", "i8 x"],
    );
    let mut filter_pass = Vec::new();
    for p in &filter {
        let (x16, x8) = (p.f64_ms / p.i16_ms, p.f64_ms / p.i8_ms);
        t.row(vec![
            p.n.to_string(),
            ms(p.f64_ms),
            ms(p.i16_ms),
            ms(p.i8_ms),
            format!("{x16:.2}"),
            format!("{x8:.2}"),
        ]);
        filter_pass.push(
            JsonObject::new()
                .field_usize("n", p.n)
                .field_f64("f64_ms", p.f64_ms)
                .field_f64("i16_ms", p.i16_ms)
                .field_f64("i8_ms", p.i8_ms)
                .field_f64("speedup_i16", x16)
                .field_f64("speedup_i8", x8)
                .finish(),
        );
    }
    t.print();

    let mut t = Table::new(
        "End-to-end queries, tier off vs on (answers bit-identical)",
        &[
            "n", "off ms", "i16 ms", "i8 ms", "band i16", "band i8", "fallback",
        ],
    );
    let mut end_to_end = Vec::new();
    for p in &e2e {
        t.row(vec![
            p.n.to_string(),
            ms(p.off_ms),
            ms(p.i16_ms),
            ms(p.i8_ms),
            format!("{:.4}", p.band_i16),
            format!("{:.4}", p.band_i8),
            format!("{:.3}", p.fallback),
        ]);
        end_to_end.push(
            JsonObject::new()
                .field_usize("n", p.n)
                .field_f64("off_ms", p.off_ms)
                .field_f64("i16_ms", p.i16_ms)
                .field_f64("i8_ms", p.i8_ms)
                .field_f64("speedup_i16", p.off_ms / p.i16_ms)
                .field_f64("speedup_i8", p.off_ms / p.i8_ms)
                .field_f64("band_i16", p.band_i16)
                .field_f64("band_i8", p.band_i8)
                .field_f64("fallback", p.fallback)
                .field_bool("answers_identical", true)
                .finish(),
        );
    }
    t.print();

    let mut t = Table::new(
        &format!("Top-k (k = {TOP_K}), tier off vs on (ids and distances vs off)"),
        &[
            "n",
            "off ms",
            "i16 ms",
            "i8 ms",
            "i16 x",
            "i8 x",
            "lanes/q",
            "identical",
        ],
    );
    let mut top_k_rows = Vec::new();
    for p in &top_k {
        let (x16, x8) = (p.off_ms / p.i16_ms, p.off_ms / p.i8_ms);
        t.row(vec![
            p.n.to_string(),
            ms(p.off_ms),
            ms(p.i16_ms),
            ms(p.i8_ms),
            format!("{x16:.2}"),
            format!("{x8:.2}"),
            format!("{:.0}", p.lanes_per_query),
            p.answers_identical.to_string(),
        ]);
        top_k_rows.push(
            JsonObject::new()
                .field_usize("n", p.n)
                .field_f64("off_ms", p.off_ms)
                .field_f64("i16_ms", p.i16_ms)
                .field_f64("i8_ms", p.i8_ms)
                .field_f64("speedup_i16", x16)
                .field_f64("speedup_i8", x8)
                .field_f64("quant_lanes_per_query", p.lanes_per_query)
                .field_bool("answers_identical", p.answers_identical)
                .finish(),
        );
    }
    t.print();

    let mut t = Table::new(
        "Re-verification band vs slack (i8, rates over classified lanes)",
        &["slack", "band", "rejected", "accepted"],
    );
    let mut band_vs_slack = Vec::new();
    for p in &slack {
        t.row(vec![
            format!("{:.0}", p.slack),
            format!("{:.4}", p.band),
            format!("{:.4}", p.rejected),
            format!("{:.4}", p.accepted),
        ]);
        band_vs_slack.push(
            JsonObject::new()
                .field_f64("slack", p.slack)
                .field_f64("band", p.band)
                .field_f64("rejected", p.rejected)
                .field_f64("accepted", p.accepted)
                .finish(),
        );
    }
    t.print();

    let mut t = Table::new(
        &format!(
            "Autotuner over {} shards: off {} → tuned {}",
            tuner.shards,
            ms(tuner.off_ms),
            ms(tuner.tuned_ms)
        ),
        &["shard", "tier", "slack"],
    );
    let mut per_shard = Vec::new();
    for (s, p) in tuner.policies.iter().enumerate() {
        let tier = format!("{:?}", p.tier);
        t.row(vec![s.to_string(), tier.clone(), format!("{:.0}", p.slack)]);
        per_shard.push(
            JsonObject::new()
                .field_str("tier", &tier)
                .field_f64("slack", p.slack)
                .finish(),
        );
    }
    t.print();

    let autotuner = JsonObject::new()
        .field_usize("shards", tuner.shards)
        .field_raw("per_shard", &json_array(per_shard))
        .field_f64("off_ms", tuner.off_ms)
        .field_f64("tuned_ms", tuner.tuned_ms)
        .field_bool("answers_identical", true)
        .finish();
    report::write_json("quant", |doc| {
        doc.field_usize("dim", DIM)
            .field_usize("budget", BUDGET)
            .field_str("kernel_i8", quant_kernel_name(false))
            .field_str("kernel_i16", quant_kernel_name(true))
            .field_raw("filter_pass", &json_array(filter_pass))
            .field_raw("end_to_end", &json_array(end_to_end))
            .field_raw("top_k", &json_array(top_k_rows))
            .field_raw("band_vs_slack", &json_array(band_vs_slack))
            .field_raw("autotuner", &autotuner)
    });
}

fn filter_arm(
    set: &PlanarIndexSet<VecStore>,
    queries: &[InequalityQuery],
    n: usize,
) -> FilterPoint {
    let cols = set.table().columns();
    let stride = cols.stride();
    let i8_mirror = QuantizedColumns::encode(cols, QuantTier::I8, 1.0);
    let i16_mirror = QuantizedColumns::encode(cols, QuantTier::I16, 1.0);
    let (mut f64_ms, mut i16_ms, mut i8_ms) = (0.0, 0.0, 0.0);
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
        let (counts, t) = time_ms(|| {
            queries
                .iter()
                .map(|q| quant_pass(q, &i8_mirror, n, stride))
                .sum::<usize>()
        });
        std::hint::black_box(counts);
        i8_ms += t;
    }
    FilterPoint {
        n,
        f64_ms: f64_ms / REPS as f64,
        i16_ms: i16_ms / REPS as f64,
        i8_ms: i8_ms / REPS as f64,
    }
}

fn end_to_end_arm(
    set: &PlanarIndexSet<VecStore>,
    queries: &[InequalityQuery],
    n: usize,
) -> EndToEndPoint {
    let mut i16_set = set.clone();
    i16_set.set_quant_policy(QuantPolicy::tier(QuantTier::I16));
    let mut i8_set = set.clone();
    i8_set.set_quant_policy(QuantPolicy::tier(QuantTier::I8));

    // Bit-identical answers are a precondition for timing, not a result.
    let (_, base, _) = run_queries(set, queries);
    let (_, a16, _) = run_queries(&i16_set, queries);
    let (_, a8, _) = run_queries(&i8_set, queries);
    assert_eq!(base, a16, "i16 tier changed an answer");
    assert_eq!(base, a8, "i8 tier changed an answer");

    let (mut off_ms, mut i16_ms, mut i8_ms) = (0.0, 0.0, 0.0);
    let mut s16 = QuantFilterStats::default();
    let mut s8 = QuantFilterStats::default();
    for _ in 0..REPS {
        let (t, _, _) = run_queries(set, queries);
        off_ms += t;
        let (t, _, s) = run_queries(&i16_set, queries);
        i16_ms += t;
        s16.merge(&s);
        let (t, _, s) = run_queries(&i8_set, queries);
        i8_ms += t;
        s8.merge(&s);
    }
    EndToEndPoint {
        n,
        off_ms: off_ms / REPS as f64,
        i16_ms: i16_ms / REPS as f64,
        i8_ms: i8_ms / REPS as f64,
        band_i16: band_rate(&s16),
        band_i8: band_rate(&s8),
        fallback: fallback_rate(&s8),
    }
}

fn top_k_arm(set: &PlanarIndexSet<VecStore>, queries: &[InequalityQuery], n: usize) -> TopKPoint {
    let queries: Vec<TopKQuery> = queries
        .iter()
        .map(|q| TopKQuery::new(q.clone(), TOP_K).expect("top-k query"))
        .collect();
    let mut i16_set = set.clone();
    i16_set.set_quant_policy(QuantPolicy::tier(QuantTier::I16));
    let mut i8_set = set.clone();
    i8_set.set_quant_policy(QuantPolicy::tier(QuantTier::I8));

    // Reported rather than asserted: the report test gates on it.
    let (_, base, _) = run_top_k(set, &queries);
    let (_, a16, lanes) = run_top_k(&i16_set, &queries);
    let (_, a8, _) = run_top_k(&i8_set, &queries);
    let answers_identical = base == a16 && base == a8;

    let (mut off_ms, mut i16_ms, mut i8_ms) = (0.0, 0.0, 0.0);
    for _ in 0..REPS {
        off_ms += run_top_k(set, &queries).0;
        i16_ms += run_top_k(&i16_set, &queries).0;
        i8_ms += run_top_k(&i8_set, &queries).0;
    }
    TopKPoint {
        n,
        off_ms: off_ms / REPS as f64,
        i16_ms: i16_ms / REPS as f64,
        i8_ms: i8_ms / REPS as f64,
        lanes_per_query: lanes.lanes as f64 / queries.len() as f64,
        answers_identical,
    }
}

fn slack_arm(cfg: &Config) -> Vec<SlackPoint> {
    let n = cfg.scaled(NS[1]);
    let (set, queries) = dataset(cfg, n);
    SLACKS
        .iter()
        .map(|&slack| {
            let mut s = set.clone();
            // i8: the coarse codes make the uncertainty band visible at
            // this scale (the i16 band is ~256× narrower).
            s.set_quant_policy(QuantPolicy {
                tier: QuantTier::I8,
                slack,
            });
            let (_, _, stats) = run_queries(&s, &queries);
            // Rates over *classified* lanes: fallback lanes (short runs)
            // never see the error bound, so they would only dilute the
            // slack effect this arm isolates.
            let classified = (stats.lanes - stats.fallback).max(1) as f64;
            SlackPoint {
                slack,
                band: stats.reverified as f64 / classified,
                rejected: stats.rejected as f64 / classified,
                accepted: stats.accepted as f64 / classified,
            }
        })
        .collect()
}

fn tuner_arm(cfg: &Config) -> TunerArm {
    let shards = 4;
    let n = cfg.scaled(NS[1]);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n, DIM).generate();
    let mut set: ShardedIndexSet<VecStore> = ShardedIndexSet::build(
        table,
        eq18_domain(DIM, RQ),
        IndexConfig::with_budget(BUDGET).seed(cfg.seed),
        ShardConfig::round_robin(shards),
    )
    .expect("quant tuner build");
    let mut generator = Eq18Generator::new(set.shard(0).unwrap().table(), RQ, cfg.seed ^ 0x70E)
        .with_inequality_parameter(0.25);
    let queries: Vec<InequalityQuery> = generator.queries(cfg.queries.max(10));

    let run = |set: &ShardedIndexSet<VecStore>| {
        let (answers, elapsed) = time_ms(|| {
            queries
                .iter()
                .map(|q| set.query(q).expect("tuner query").sorted_ids())
                .collect::<Vec<_>>()
        });
        (elapsed, answers)
    };

    let (_, baseline) = run(&set);
    let off_set = set.clone();
    // Two observe→retune rounds: the first earns the I16 trial, the second
    // judges it from real counters (promote / widen / demote per shard).
    let tuner_cfg = QuantAutotuneConfig::default();
    set.retune_quantization(&tuner_cfg);
    run(&set);
    let policies = set.retune_quantization(&tuner_cfg);
    let (_, tuned_answers) = run(&set);
    assert_eq!(baseline, tuned_answers, "autotuner changed an answer");
    // Interleave the timed runs so clock/cache drift hits both arms
    // equally — separate phases would let a frequency wobble masquerade
    // as a tuner (anti-)win.
    let (mut off_ms, mut tuned_ms) = (0.0, 0.0);
    for _ in 0..2 * REPS {
        off_ms += run(&off_set).0;
        tuned_ms += run(&set).0;
    }
    let (off_ms, tuned_ms) = (off_ms / (2 * REPS) as f64, tuned_ms / (2 * REPS) as f64);
    // The tuner must never make the benched workload slower. Guarded to
    // meaningful sizes — at the CI-smoke floor (100 rows) a single timing
    // blip exceeds the whole measurement.
    if n >= 10_000 {
        assert!(
            tuned_ms <= off_ms * 1.15,
            "autotuner regressed latency: off {off_ms:.2} ms -> tuned {tuned_ms:.2} ms"
        );
    }
    TunerArm {
        shards,
        policies,
        off_ms,
        tuned_ms,
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
        assert!(p.f64_ms >= 0.0 && p.i16_ms >= 0.0 && p.i8_ms >= 0.0);
    }
}
