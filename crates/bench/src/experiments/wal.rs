//! Durability experiment: what do the WAL and deadlines cost?
//!
//! Three questions the crash-consistency work raises, answered with
//! numbers:
//!
//! 1. **Fsync-policy latency** — per-mutation cost of `Always`,
//!    `EveryN(8)`, `EveryN(64)` and `OnCheckpoint` against the in-memory
//!    (no WAL) baseline.
//! 2. **Replay throughput** — recovery time with a long un-checkpointed
//!    tail vs an open right after a checkpoint, and the records/second
//!    the replay path sustains.
//! 3. **Deadline-hit partial rates** — how many answers of a batch
//!    survive as the `ExecutionConfig::deadline` budget shrinks from
//!    "generous" to zero.
//!
//! Every measurement runs on the sharded engine with one shard
//! (`ConcurrentDurableShardedIndexSet` for the logged arms). Each durable
//! arm publishes one epoch per `MUTATIONS`, so no copy-on-publish clone is
//! paid per mutation and the numbers are the WAL's cost alone.
//!
//! Results are printed as tables and written to `BENCH_wal.json`.

use std::time::Duration;

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
/// Logged mutations per fsync-policy measurement (and replay tail).
const MUTATIONS: usize = 2048;

fn policy_name(p: FsyncPolicy) -> &'static str {
    match p {
        FsyncPolicy::Always => "always",
        FsyncPolicy::EveryN(8) => "every_8",
        FsyncPolicy::EveryN(_) => "every_64",
        FsyncPolicy::OnCheckpoint => "on_checkpoint",
    }
}

/// The `wal` experiment (see module docs).
pub fn wal(cfg: &Config) {
    let n = cfg.scaled(SYNTHETIC_N / 10);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n + MUTATIONS, DIM).generate();
    let rows: Vec<Vec<f64>> = (n..n + MUTATIONS)
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
        .expect("wal experiment build")
    };
    let conc = ConcurrencyConfig::default().publish_every(MUTATIONS);
    let open = |idx: &std::path::Path, opts: WalOptions| {
        ConcurrentDurableShardedIndexSet::<VecStore>::open(idx, opts, conc)
    };

    // 1. Fsync-policy mutation latency.
    let (_, memory_ms) = time_ms(|| {
        let mut set = build();
        for row in &rows {
            set.insert_point(row).expect("insert");
        }
    });
    let policies = [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(8),
        FsyncPolicy::EveryN(64),
        FsyncPolicy::OnCheckpoint,
    ];
    let mut policy_ms = Vec::new();
    for &p in &policies {
        let dir = TempDir::new("bench-wal-fsync").expect("temp dir");
        let durable = ConcurrentDurableShardedIndexSet::create(
            dir.path().join("idx"),
            build(),
            WalOptions::default().fsync(p),
            conc,
        )
        .expect("create durable");
        let (_, t) = time_ms(|| {
            for row in &rows {
                durable.insert_point(row).expect("durable insert");
            }
        });
        policy_ms.push(t);
    }

    let mut t = Table::new(
        &format!("WAL fsync policies: {MUTATIONS} inserts, n={n}, dim={DIM}"),
        &["policy", "total_ms", "per_mutation_us", "vs no WAL"],
    );
    t.row(vec![
        "none (in-memory)".into(),
        ms(memory_ms),
        format!("{:.2}", memory_ms * 1e3 / MUTATIONS as f64),
        "1.00x".into(),
    ]);
    for (&p, &v) in policies.iter().zip(&policy_ms) {
        t.row(vec![
            policy_name(p).into(),
            ms(v),
            format!("{:.2}", v * 1e3 / MUTATIONS as f64),
            format!("{:.2}x", v / memory_ms),
        ]);
    }
    t.print();

    // 2. Replay throughput: recover a long tail vs a checkpointed open.
    let dir = TempDir::new("bench-wal-replay").expect("temp dir");
    let idx = dir.path().join("idx");
    let opts = WalOptions::default().fsync(FsyncPolicy::OnCheckpoint);
    let durable = ConcurrentDurableShardedIndexSet::create(&idx, build(), opts, conc)
        .expect("create durable");
    for row in &rows {
        durable.insert_point(row).expect("durable insert");
    }
    durable.sync().expect("sync");
    drop(durable); // crash: MUTATIONS records above the watermark

    // Cold: the first recovery after the crash, end to end (snapshot load
    // + tail replay). Warm: recover the same tail again with hot page
    // caches, then subtract the checkpointed clean-open cost to isolate
    // the replay path's marginal throughput.
    let (_, cold_open_ms) = time_ms(|| {
        let (d, report) = open(&idx, opts).expect("recover tail (cold)");
        assert_eq!(report.wal_replayed, MUTATIONS);
        d
    });
    let (durable, warm_open_ms) = {
        let ((d, report), t) = time_ms(|| open(&idx, opts).expect("recover tail (warm)"));
        assert_eq!(report.wal_replayed, MUTATIONS);
        (d, t)
    };
    durable.checkpoint().expect("checkpoint");
    drop(durable);
    let (_, clean_open_ms) = time_ms(|| {
        let (d, report) = open(&idx, opts).expect("clean open");
        assert_eq!(report.wal_replayed, 0);
        d
    });
    let cold_per_sec = MUTATIONS as f64 / (cold_open_ms.max(0.001) / 1e3);
    let warm_per_sec = MUTATIONS as f64 / ((warm_open_ms - clean_open_ms).max(0.001) / 1e3);

    let mut t = Table::new(
        &format!("Recovery: {MUTATIONS}-record tail vs checkpointed"),
        &["open", "time_ms", "records_replayed"],
    );
    t.row(vec![
        "un-checkpointed tail (cold)".into(),
        ms(cold_open_ms),
        MUTATIONS.to_string(),
    ]);
    t.row(vec![
        "un-checkpointed tail (warm)".into(),
        ms(warm_open_ms),
        MUTATIONS.to_string(),
    ]);
    t.row(vec![
        "after checkpoint".into(),
        ms(clean_open_ms),
        "0".into(),
    ]);
    t.row(vec![
        "cold replay (end-to-end)".into(),
        format!("{cold_per_sec:.0} rec/s"),
        String::new(),
    ]);
    t.row(vec![
        "warm replay (marginal)".into(),
        format!("{warm_per_sec:.0} rec/s"),
        String::new(),
    ]);
    t.print();

    // 3. Deadline-hit partial rates.
    let set = build();
    let mut generator =
        Eq18Generator::new(&base, RQ, cfg.seed ^ 0x0ead).with_inequality_parameter(0.2);
    let queries: Vec<InequalityQuery> = generator.queries(cfg.queries.max(64));
    let exec = ExecutionConfig::with_threads(cfg.threads);
    let (full, full_ms) = time_ms(|| set.query_batch(&queries, &exec).expect("unbudgeted batch"));
    let partial = |o: &planar_core::ShardedQueryOutcome| o.served_by.iter().any(|s| s.is_partial());
    assert!(!full.iter().any(partial));

    let budgets = [
        ("unbudgeted", None),
        ("2x batch time", Some(full_ms * 2.0)),
        ("1/4 batch time", Some(full_ms / 4.0)),
        ("zero", Some(0.0)),
    ];
    let mut deadline_rows = Vec::new();
    for (label, budget) in budgets {
        let exec = match budget {
            None => ExecutionConfig::with_threads(cfg.threads),
            Some(b) => ExecutionConfig::with_threads(cfg.threads)
                .with_deadline(Duration::from_secs_f64(b / 1e3)),
        };
        let out = set.query_batch(&queries, &exec).expect("budgeted batch");
        let partial = out.iter().filter(|o| partial(o)).count();
        deadline_rows.push((label, budget, queries.len() - partial, partial));
    }

    let mut t = Table::new(
        &format!(
            "Deadline-aware batches: {} queries, {} threads",
            queries.len(),
            cfg.threads
        ),
        &["budget", "completed", "partial"],
    );
    for (label, _, completed, partial) in &deadline_rows {
        t.row(vec![
            (*label).into(),
            completed.to_string(),
            partial.to_string(),
        ]);
    }
    t.print();

    let json = render_json(
        cfg,
        n,
        &policies,
        &policy_ms,
        memory_ms,
        cold_open_ms,
        warm_open_ms,
        clean_open_ms,
        cold_per_sec,
        warm_per_sec,
        &deadline_rows,
    );
    let path = "BENCH_wal.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[harness] wrote {path}"),
        Err(e) => eprintln!("[harness] could not write {path}: {e}"),
    }
}

/// Hand-rolled JSON (the workspace has no serde).
#[allow(clippy::too_many_arguments)]
fn render_json(
    cfg: &Config,
    n: usize,
    policies: &[FsyncPolicy],
    policy_ms: &[f64],
    memory_ms: f64,
    cold_open_ms: f64,
    warm_open_ms: f64,
    clean_open_ms: f64,
    cold_per_sec: f64,
    warm_per_sec: f64,
    deadline_rows: &[(&str, Option<f64>, usize, usize)],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"wal\",\n");
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str(&format!("  \"dim\": {DIM},\n"));
    out.push_str(&format!("  \"budget\": {BUDGET},\n"));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"mutations\": {MUTATIONS},\n"));
    out.push_str("  \"fsync_policy_ms\": {\n");
    out.push_str(&format!("    \"none\": {memory_ms:.3},\n"));
    for (i, (&p, &v)) in policies.iter().zip(policy_ms).enumerate() {
        let comma = if i + 1 == policies.len() { "" } else { "," };
        out.push_str(&format!("    \"{}\": {v:.3}{comma}\n", policy_name(p)));
    }
    out.push_str("  },\n");
    out.push_str("  \"recovery\": {\n");
    out.push_str(&format!("    \"cold_open_ms\": {cold_open_ms:.3},\n"));
    out.push_str(&format!("    \"warm_open_ms\": {warm_open_ms:.3},\n"));
    out.push_str(&format!("    \"clean_open_ms\": {clean_open_ms:.3},\n"));
    out.push_str(&format!(
        "    \"replay_cold_records_per_sec\": {cold_per_sec:.0},\n"
    ));
    out.push_str(&format!(
        "    \"replay_warm_records_per_sec\": {warm_per_sec:.0}\n"
    ));
    out.push_str("  },\n");
    out.push_str("  \"deadline\": [\n");
    for (i, (label, budget, completed, partial)) in deadline_rows.iter().enumerate() {
        let comma = if i + 1 == deadline_rows.len() {
            ""
        } else {
            ","
        };
        let budget = budget.map_or("null".to_string(), |b| format!("{b:.3}"));
        out.push_str(&format!(
            "    {{\"budget\": \"{label}\", \"budget_ms\": {budget}, \"completed\": {completed}, \"partial\": {partial}}}{comma}\n"
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
