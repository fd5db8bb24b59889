//! Concurrency experiment: epoch snapshots + group commit under load.
//!
//! Three questions the concurrent execution layer raises, answered with
//! numbers:
//!
//! 1. **Group-commit amortization** — per-acked-mutation cost of
//!    `FsyncPolicy::Always` through the group-commit queue as writer
//!    concurrency grows, against the single-writer `Always` and
//!    `EveryN(64)` baselines. The headline claim: concurrent `Always`
//!    lands within 2x of `every_64` without weakening the ack contract.
//! 2. **Readers racing a writer** — snapshot reads/sec and p99 latency
//!    with the writer idle vs streaming mutations under each fsync
//!    policy, plus the acked-mutations/sec the writer sustains.
//! 3. **Bit-identical batches** — `query_batch` against a pinned snapshot
//!    must equal single-threaded execution exactly.
//!
//! Every arm runs `ConcurrentDurableShardedIndexSet` with one shard. The
//! single-writer baselines are one thread with
//! `ConcurrencyConfig::publish_every(MUTATIONS)`, so they pay no
//! copy-on-publish clone per mutation.
//!
//! Results are printed as tables and written to `BENCH_concurrent.json`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use crate::report::{ms, Table};
use crate::{time_ms, Config};
use planar_core::fault::TempDir;
use planar_core::{
    ConcurrencyConfig, ConcurrentDurableShardedIndexSet, ExecutionConfig, FsyncPolicy, IndexConfig,
    InequalityQuery, ShardConfig, ShardedIndexSet, VecStore, WalOptions,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_datagen::SYNTHETIC_N;

/// Dataset dimensionality.
const DIM: usize = 8;
/// RQ of the Eq. 18 query template.
const RQ: usize = 4;
/// Index budget.
const BUDGET: usize = 8;
/// Acked mutations per group-commit measurement (matches the `wal`
/// experiment so the curves are comparable).
const MUTATIONS: usize = 2048;
/// Writer-thread counts for the group-commit sweep.
const WRITER_SWEEP: [usize; 3] = [1, 4, 16];
/// Wall-clock window for each reader-throughput measurement.
const READ_WINDOW_MS: u64 = 400;
/// Reader threads for the racing measurement.
const READERS: usize = 2;
/// Acceptance: concurrent `Always` within this factor of `every_64`.
const GC_TARGET_RATIO: f64 = 2.0;
/// Acceptance: racing readers keep this share of idle throughput.
const READ_TARGET_RATIO: f64 = 0.8;
/// Offered load of the paced writer in the reader-interference check
/// (mutations/sec). Saturating rows are also reported, but on a
/// single-core host an unthrottled writer trivially steals reader CPU
/// share no matter how the index is locked, so the acceptance check runs
/// against a fixed arrival rate sized to keep the writer's CPU work
/// (dominated by copy-on-publish) under ~10% of one core.
const PACED_WRITER_PER_SEC: u64 = 300;

fn policy_name(p: FsyncPolicy) -> &'static str {
    match p {
        FsyncPolicy::Always => "always",
        FsyncPolicy::EveryN(8) => "every_8",
        FsyncPolicy::EveryN(_) => "every_64",
        FsyncPolicy::OnCheckpoint => "on_checkpoint",
    }
}

/// q-th percentile (0..=1) of an unsorted latency sample, in microseconds.
fn percentile_us(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

struct GcRow {
    threads: usize,
    total_ms: f64,
    fsyncs: u64,
    max_group: u64,
}

struct RaceRow {
    policy: &'static str,
    reads_per_sec: f64,
    p99_us: f64,
    acked_per_sec: f64,
    ratio_vs_idle: f64,
}

/// The `concurrent` experiment (see module docs).
pub fn concurrent(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N / 10);
    let spare = MUTATIONS * 4;
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n + spare, DIM).generate();
    let rows: Vec<Vec<f64>> = (n..n + spare)
        .map(|i| table.row(i as u32).to_vec())
        .collect();
    let base = {
        let head: Vec<Vec<f64>> = (0..n).map(|i| table.row(i as u32).to_vec()).collect();
        planar_core::FeatureTable::from_rows(DIM, head).expect("base table")
    };
    let build = || {
        ShardedIndexSet::<VecStore>::build(
            base.clone(),
            eq18_domain(DIM, RQ),
            IndexConfig::with_budget(BUDGET).seed(cfg.seed),
            ShardConfig::round_robin(1),
        )
        .expect("concurrent experiment build")
    };
    let create = |dir: &TempDir, set, policy, conc| {
        ConcurrentDurableShardedIndexSet::create(
            dir.path().join("idx"),
            set,
            WalOptions::default().fsync(policy),
            conc,
        )
        .expect("create concurrent durable")
    };

    // ── 1. Group-commit amortization ────────────────────────────────────
    // Single-writer baselines first: the curve we are trying to collapse.
    // One thread, one publish for the whole run.
    let mut single_ms = Vec::new();
    for p in [FsyncPolicy::Always, FsyncPolicy::EveryN(64)] {
        let dir = TempDir::new("bench-conc-single").expect("temp dir");
        let single = ConcurrencyConfig::default().publish_every(MUTATIONS);
        let durable = create(&dir, build(), p, single);
        let (_, t) = time_ms(|| {
            for row in rows.iter().take(MUTATIONS) {
                durable.insert_point(row).expect("durable insert");
            }
        });
        single_ms.push(t);
    }
    let (single_always_ms, single_every64_ms) = (single_ms[0], single_ms[1]);

    // Matched baseline: the concurrent wrapper under `every_64`. Snapshot
    // publication clones the staged set each epoch, a cost both sides of
    // the comparison pay identically — against the *single-writer*
    // `every_64` number the clone would masquerade as fsync tax.
    let conc_every64_ms = {
        let dir = TempDir::new("bench-conc-every64").expect("temp dir");
        let conc = create(
            &dir,
            build(),
            FsyncPolicy::EveryN(64),
            ConcurrencyConfig::default(),
        );
        let (_, t) = time_ms(|| {
            for row in rows.iter().take(MUTATIONS) {
                conc.insert_point(row).expect("concurrent insert");
            }
        });
        t
    };

    // Concurrent writers through the group-commit queue, Always policy:
    // every Ok is an fsync-backed promise, yet commits ride shared groups.
    let mut gc_rows = Vec::new();
    for &threads in &WRITER_SWEEP {
        let dir = TempDir::new("bench-conc-gc").expect("temp dir");
        let conc = create(
            &dir,
            build(),
            FsyncPolicy::Always,
            ConcurrencyConfig::default(),
        );
        let fsyncs_before = conc.fsync_count();
        let next = AtomicUsize::new(0);
        let (_, total_ms) = time_ms(|| {
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= MUTATIONS {
                            break;
                        }
                        conc.insert_point(&rows[i]).expect("concurrent insert");
                    });
                }
            });
        });
        let stats = conc.group_commit_stats();
        gc_rows.push(GcRow {
            threads,
            total_ms,
            fsyncs: conc.fsync_count() - fsyncs_before,
            max_group: stats.max_group,
        });
    }

    let best_gc_ms = gc_rows
        .iter()
        .map(|r| r.total_ms)
        .fold(f64::INFINITY, f64::min);
    let gc_ratio = best_gc_ms / conc_every64_ms;
    let gc_pass = gc_ratio <= GC_TARGET_RATIO;

    let mut t = Table::new(
        &format!("Group commit: {MUTATIONS} acked inserts, policy=always, n={n}"),
        &[
            "writer",
            "total_ms",
            "per_mutation_us",
            "fsyncs",
            "max_group",
        ],
    );
    t.row(vec![
        "single-writer always".into(),
        ms(single_always_ms),
        format!("{:.2}", single_always_ms * 1e3 / MUTATIONS as f64),
        MUTATIONS.to_string(),
        "1".into(),
    ]);
    t.row(vec![
        "single-writer every_64".into(),
        ms(single_every64_ms),
        format!("{:.2}", single_every64_ms * 1e3 / MUTATIONS as f64),
        (MUTATIONS / 64).to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "concurrent every_64".into(),
        ms(conc_every64_ms),
        format!("{:.2}", conc_every64_ms * 1e3 / MUTATIONS as f64),
        (MUTATIONS / 64).to_string(),
        "-".into(),
    ]);
    for r in &gc_rows {
        t.row(vec![
            format!("group-commit x{}", r.threads),
            ms(r.total_ms),
            format!("{:.2}", r.total_ms * 1e3 / MUTATIONS as f64),
            r.fsyncs.to_string(),
            r.max_group.to_string(),
        ]);
    }
    t.row(vec![
        format!("best always vs concurrent every_64 (target <= {GC_TARGET_RATIO:.1}x)"),
        format!("{gc_ratio:.2}x"),
        if gc_pass {
            "PASS".into()
        } else {
            "FAIL".into()
        },
        String::new(),
        String::new(),
    ]);
    t.print();

    // ── 2. Readers racing a writer ──────────────────────────────────────
    let mut generator =
        Eq18Generator::new(&base, RQ, cfg.seed ^ 0x0ead).with_inequality_parameter(0.2);
    let queries: Vec<InequalityQuery> = generator.queries(cfg.queries.max(32));

    let dir = TempDir::new("bench-conc-readers").expect("temp dir");
    let conc = create(
        &dir,
        build(),
        FsyncPolicy::Always,
        ConcurrencyConfig::default(),
    );

    let (idle_rps, idle_p99, _) = read_window(&conc, &queries, None, None);
    let race_policies = [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(8),
        FsyncPolicy::EveryN(64),
        FsyncPolicy::OnCheckpoint,
    ];
    // Saturating writer rows (context), then a paced `Always` row: the
    // acceptance check holds the writer to a fixed arrival rate because
    // on one core an unthrottled writer steals reader CPU share no matter
    // how cheaply the index publishes.
    let mut race_rows = Vec::new();
    for (p, pace) in race_policies
        .iter()
        .map(|&p| (p, None))
        .chain(std::iter::once((
            FsyncPolicy::Always,
            Some(PACED_WRITER_PER_SEC),
        )))
    {
        let dir = TempDir::new("bench-conc-race").expect("temp dir");
        let fresh = create(&dir, build(), p, ConcurrencyConfig::default());
        let (rps, p99, acked) = read_window(&fresh, &queries, Some(&rows), pace);
        race_rows.push(RaceRow {
            policy: if pace.is_some() {
                "always_paced"
            } else {
                policy_name(p)
            },
            reads_per_sec: rps,
            p99_us: p99,
            acked_per_sec: acked,
            ratio_vs_idle: rps / idle_rps,
        });
    }
    let paced_ratio = race_rows.last().expect("paced row").ratio_vs_idle;
    let read_pass = paced_ratio >= READ_TARGET_RATIO;

    let mut t = Table::new(
        &format!("{READERS} readers racing a writer: {READ_WINDOW_MS}ms windows, n={n}"),
        &["writer", "reads/sec", "p99_us", "acked_mut/sec", "vs idle"],
    );
    t.row(vec![
        "idle".into(),
        format!("{idle_rps:.0}"),
        format!("{idle_p99:.1}"),
        "-".into(),
        "1.00x".into(),
    ]);
    for r in &race_rows {
        let label = if r.policy == "always_paced" {
            format!("streaming (always @ {PACED_WRITER_PER_SEC}/s)")
        } else {
            format!("streaming ({}, saturating)", r.policy)
        };
        t.row(vec![
            label,
            format!("{:.0}", r.reads_per_sec),
            format!("{:.1}", r.p99_us),
            format!("{:.0}", r.acked_per_sec),
            format!("{:.2}x", r.ratio_vs_idle),
        ]);
    }
    t.row(vec![
        format!("paced always vs idle (target >= {READ_TARGET_RATIO:.1}x)"),
        format!("{paced_ratio:.2}x"),
        if read_pass {
            "PASS".into()
        } else {
            "FAIL".into()
        },
        String::new(),
        String::new(),
    ]);
    t.print();

    // ── 3. Bit-identical batches ────────────────────────────────────────
    let snap = conc.snapshot();
    let exec = ExecutionConfig::with_threads(cfg.threads);
    let batch = snap.query_batch(&queries, &exec).expect("snapshot batch");
    let identical = batch
        .iter()
        .zip(&queries)
        .all(|(out, q)| out.sorted_ids() == snap.query(q).expect("serial read").sorted_ids());
    assert!(identical, "snapshot batch must equal serial execution");
    eprintln!(
        "[harness] batch over pinned snapshot bit-identical to serial: {} queries OK",
        queries.len()
    );

    let json = render_json(
        cfg,
        n,
        single_always_ms,
        single_every64_ms,
        conc_every64_ms,
        &gc_rows,
        gc_ratio,
        gc_pass,
        idle_rps,
        idle_p99,
        &race_rows,
        read_pass,
        identical,
    );
    let path = "BENCH_concurrent.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[harness] wrote {path}"),
        Err(e) => eprintln!("[harness] could not write {path}: {e}"),
    }
}

/// Run `READERS` snapshot-reading threads for `READ_WINDOW_MS` against
/// `set`, optionally racing one writer thread streaming inserts from
/// `rows` (unthrottled when `pace_per_sec` is `None`, else held to that
/// arrival rate). Returns (reads/sec summed over readers, p99 read
/// latency in microseconds, acked mutations/sec — 0 when the writer is
/// idle).
fn read_window(
    set: &ConcurrentDurableShardedIndexSet<VecStore>,
    queries: &[InequalityQuery],
    rows: Option<&[Vec<f64>]>,
    pace_per_sec: Option<u64>,
) -> (f64, f64, f64) {
    let stop = AtomicBool::new(false);
    let mut lat_us: Vec<f64> = Vec::new();
    let mut reads = 0usize;
    let mut acked = 0usize;
    let mut elapsed_s = 0.0;
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let stop = &stop;
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut i = r; // stagger the query mix per reader
                    while !stop.load(Ordering::Relaxed) {
                        let q = &queries[i % queries.len()];
                        i += 1;
                        let t0 = Instant::now();
                        let snap = set.snapshot();
                        std::hint::black_box(snap.query(q).expect("snapshot read"));
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    lat
                })
            })
            .collect();
        let writer_handle = rows.map(|rows| {
            let stop = &stop;
            s.spawn(move || {
                let interval = pace_per_sec
                    .map(|rate| std::time::Duration::from_secs_f64(1.0 / rate.max(1) as f64));
                let started = Instant::now();
                let mut w = 0usize;
                while !stop.load(Ordering::Relaxed) && w < rows.len() {
                    if let Some(interval) = interval {
                        // Hold the offered load: sleep until this
                        // mutation's scheduled arrival.
                        let due = started + interval * w as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    }
                    set.insert_point(&rows[w]).expect("streamed insert");
                    w += 1;
                }
                w
            })
        });
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(READ_WINDOW_MS));
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            let l = h.join().expect("reader");
            reads += l.len();
            lat_us.extend(l);
        }
        if let Some(h) = writer_handle {
            acked = h.join().expect("writer");
        }
        elapsed_s = t0.elapsed().as_secs_f64();
    });
    (
        reads as f64 / elapsed_s,
        percentile_us(&mut lat_us, 0.99),
        acked as f64 / elapsed_s,
    )
}

/// Hand-rolled JSON (the workspace has no serde).
#[allow(clippy::too_many_arguments)]
fn render_json(
    cfg: &Config,
    n: usize,
    single_always_ms: f64,
    single_every64_ms: f64,
    conc_every64_ms: f64,
    gc_rows: &[GcRow],
    gc_ratio: f64,
    gc_pass: bool,
    idle_rps: f64,
    idle_p99: f64,
    race_rows: &[RaceRow],
    read_pass: bool,
    identical: bool,
) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"concurrent\",\n");
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str(&format!("  \"dim\": {DIM},\n"));
    out.push_str(&format!("  \"budget\": {BUDGET},\n"));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"host_cpus\": {cpus},\n"));
    out.push_str(&format!("  \"mutations\": {MUTATIONS},\n"));
    out.push_str("  \"group_commit\": {\n");
    out.push_str(&format!(
        "    \"single_writer_always_ms\": {single_always_ms:.3},\n"
    ));
    out.push_str(&format!(
        "    \"single_writer_every_64_ms\": {single_every64_ms:.3},\n"
    ));
    out.push_str(&format!(
        "    \"concurrent_every_64_ms\": {conc_every64_ms:.3},\n"
    ));
    out.push_str("    \"concurrent_always\": [\n");
    for (i, r) in gc_rows.iter().enumerate() {
        let comma = if i + 1 == gc_rows.len() { "" } else { "," };
        out.push_str(&format!(
            "      {{\"threads\": {}, \"total_ms\": {:.3}, \"per_mutation_us\": {:.2}, \"fsyncs\": {}, \"max_group\": {}}}{comma}\n",
            r.threads,
            r.total_ms,
            r.total_ms * 1e3 / MUTATIONS as f64,
            r.fsyncs,
            r.max_group,
        ));
    }
    out.push_str("    ],\n");
    let best_gc_ms = gc_rows
        .iter()
        .map(|r| r.total_ms)
        .fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "    \"best_always_vs_concurrent_every_64_ratio\": {gc_ratio:.3},\n"
    ));
    out.push_str(&format!(
        "    \"best_always_vs_single_writer_every_64_ratio\": {:.3},\n",
        best_gc_ms / single_every64_ms
    ));
    out.push_str(&format!("    \"target_ratio\": {GC_TARGET_RATIO:.1},\n"));
    out.push_str(&format!("    \"pass\": {gc_pass}\n"));
    out.push_str("  },\n");
    out.push_str("  \"readers\": {\n");
    out.push_str(&format!("    \"reader_threads\": {READERS},\n"));
    out.push_str(&format!("    \"window_ms\": {READ_WINDOW_MS},\n"));
    out.push_str(&format!(
        "    \"paced_writer_per_sec\": {PACED_WRITER_PER_SEC},\n"
    ));
    out.push_str(&format!("    \"idle_reads_per_sec\": {idle_rps:.0},\n"));
    out.push_str(&format!("    \"idle_p99_us\": {idle_p99:.1},\n"));
    out.push_str("    \"racing\": [\n");
    for (i, r) in race_rows.iter().enumerate() {
        let comma = if i + 1 == race_rows.len() { "" } else { "," };
        out.push_str(&format!(
            "      {{\"policy\": \"{}\", \"reads_per_sec\": {:.0}, \"p99_us\": {:.1}, \"acked_mutations_per_sec\": {:.0}, \"ratio_vs_idle\": {:.3}}}{comma}\n",
            r.policy, r.reads_per_sec, r.p99_us, r.acked_per_sec, r.ratio_vs_idle,
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!("    \"target_ratio\": {READ_TARGET_RATIO:.1},\n"));
    out.push_str(&format!("    \"pass\": {read_pass}\n"));
    out.push_str("  },\n");
    out.push_str(&format!("  \"batch_bit_identical\": {identical}\n"));
    out.push_str("}\n");
    out
}
