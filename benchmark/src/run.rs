//! One workload run: set-up, correctness gate, warm-up, measured window,
//! and, when traced, the in-process replay.

use crate::gate::{self, SCAN_CHECKED};
use crate::host::{pin_to, Probe, Speed};
use crate::replay::{replay, Served};
use crate::report::{median, percentile, Report};
use crate::trace::Tracer;
use crate::workload::{
    Inputs, Params, ReadKind, Workload, BUDGET, DIM, POOL, PUBLISH_EVERY, RQ, SHARDS, THREADS,
};
use crate::writer::{self, Model, Writes};
use planar_core::{
    ConcurrencyConfig, ConcurrentDurableShardedIndexSet, ConcurrentShardedIndexSet, EpochStats,
    ExecutionConfig, IndexConfig, QuantAutotuneConfig, ShardConfig, ShardedIndexSet, Snapshot,
    VecStore, WalOptions,
};
use planar_datagen::queries::eq18_domain;
use planar_serve::{Client, Request, Response, ServeConfig, Server, ServerHandle, ServerMetrics};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Host-speed probes timed just before each set-up.
const SETUP_PROBES: usize = 16;
/// Time between host-speed probes in a read loop.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// Publishes forced after a traced replay, so the copy-on-publish clone is
/// timed on every engine, not only on the one that writes.
const PUBLISH_PROBES: usize = 3;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Measure per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small sizes and a short warm-up, for tests.
    pub smoke: bool,
    /// CPU the writer of `mixed_rw` pins itself to; `None` leaves it on
    /// the CPUs of the thread that runs the workload.
    pub writer_cpu: Option<usize>,
}

impl Options {
    fn warmup(&self) -> Duration {
        if self.smoke {
            Duration::from_millis(200)
        } else {
            Duration::from_secs(5)
        }
    }
}

/// The served engine of a workload.
pub enum Engine {
    /// The in-memory concurrent engine (read-only workloads).
    Memory(Arc<ConcurrentShardedIndexSet<VecStore>>),
    /// The durable concurrent engine (`mixed_rw`).
    Durable(Arc<ConcurrentDurableShardedIndexSet<VecStore>>),
}

impl Engine {
    /// Pin the current epoch.
    pub fn snapshot(&self) -> Snapshot<ShardedIndexSet<VecStore>> {
        match self {
            Engine::Memory(e) => e.snapshot(),
            Engine::Durable(e) => e.snapshot(),
        }
    }

    fn publish(&self) -> u64 {
        match self {
            Engine::Memory(e) => e.publish(),
            Engine::Durable(e) => e.publish(),
        }
    }

    fn epoch_stats(&self) -> EpochStats {
        match self {
            Engine::Memory(e) => e.epoch_stats(),
            Engine::Durable(e) => e.epoch_stats(),
        }
    }

    fn serve(&self) -> io::Result<ServerHandle> {
        let cfg = ServeConfig {
            exec: exec(),
            ..ServeConfig::default()
        };
        match self {
            Engine::Memory(e) => Server::start(Arc::clone(e), cfg),
            Engine::Durable(e) => Server::start(Arc::clone(e), cfg),
        }
    }
}

/// The execution configuration the server runs batches with.
pub fn exec() -> ExecutionConfig {
    ExecutionConfig::with_threads(THREADS)
}

/// The benchmark's own space inside the checkout: durable engine files
/// while a run lasts, and span files.
pub fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Run one workload and measure it.
pub fn run(workload: Workload, opts: &Options) -> Result<Report, String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let p = workload.params(opts.smoke);
    let inputs = Inputs::generate(&p, opts.seed);
    let data = target_dir().join("data").join(format!(
        "{}-{}-{}-{}",
        workload.name(),
        opts.seed,
        std::process::id(),
        RUNS.fetch_add(1, Relaxed)
    ));
    let result = measure(workload, opts, &p, &inputs, &data);
    let _ = std::fs::remove_dir_all(&data);
    result
}

fn measure(
    workload: Workload,
    opts: &Options,
    p: &Params,
    inputs: &Inputs,
    data: &Path,
) -> Result<Report, String> {
    let probe = Probe::new().map_err(|e| format!("host-speed probe: {e}"))?;
    let (engine, server, setup) = set_up_repeatedly(p, inputs, data, &probe)?;
    let dir = data.join((p.setups - 1).to_string());
    let expected = gate::canonical(&engine.snapshot(), &inputs.queries, p.read, &exec())?;
    let mut reader = gate_then_warm_up(&server, inputs, &expected, opts, &probe)?;

    // Durable only: the directory's bytes and the fsyncs before any write.
    let wal_start = match &engine {
        Engine::Durable(e) => Some((dir_bytes(&dir), e.fsync_count())),
        Engine::Memory(_) => None,
    };
    let mut model = wal_start.map(|_| Model::new(&inputs.table, engine.snapshot().partitioner()));
    let server_metrics = server.metrics();
    let start = Instant::now();
    let ((reads, traced), writes) = match (&engine, model.as_mut()) {
        (Engine::Durable(e), Some(model)) => std::thread::scope(|s| {
            let writer = s.spawn(|| {
                if let Some(cpu) = opts.writer_cpu {
                    pin_to(cpu)?;
                }
                let count = (p.writes_per_s * opts.seconds).round() as u64;
                Ok::<_, io::Error>(writer::write(
                    e,
                    model,
                    &inputs.spare,
                    inputs.seed,
                    count,
                    p.writes_per_s,
                    start,
                ))
            });
            let reads = read_window(&mut reader, start, opts);
            (reads, writer.join().expect("writer thread"))
        }),
        _ => (read_window(&mut reader, start, opts), Ok(Writes::default())),
    };
    let writes = writes.map_err(|e| format!("pinning the writer: {e}"))?;

    let mut latencies = reads.latency_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let snap = engine.snapshot();
    let p50 = percentile(&latencies, 50.0)?;
    let factor = reads.host.factor();
    let mut m = vec![
        ("setup_s", setup.scaled_s),
        ("qps", reads.scaled_qps()),
        ("read_p50_ms", p50 * factor),
        (
            "bytes_per_row",
            snap.memory_usage() as f64 / snap.len() as f64,
        ),
        (
            "concurrent.publishes",
            engine.epoch_stats().published as f64,
        ),
        ("loadgen.reads", reads.completed() as f64),
        ("loadgen.writes", writes.issued as f64),
    ];
    drop(snap);
    let mut notes = vec![
        ("read_samples", "count", latencies.len() as f64),
        ("host.factor", "x", factor),
        ("host.probes", "count", reads.host.samples.len() as f64),
        ("host.setup_factor", "x", setup.factor),
        ("measured.setup_s", "s", setup.measured_s),
        ("measured.qps", "req/s", reads.qps()),
        ("measured.read_p50_ms", "ms", p50),
    ];
    // The tail is printed, not compared: on a host whose speed drifts, it
    // moves between runs by more than any bound a comparison could use.
    for (name, p) in [("read_p95_ms", 95.0), ("read_p99_ms", 99.0)] {
        if let Ok(v) = percentile(&latencies, p) {
            notes.push((name, "ms", v));
        }
    }
    if let Some(traced) = traced {
        let path =
            target_dir()
                .join("trace")
                .join(format!("{}-{}.jsonl", workload.name(), opts.seed));
        let served = Served {
            client: &mut reader.client,
            requests: &inputs.requests,
            metrics: &server_metrics,
        };
        m.extend(layers(traced, &engine, inputs, p.read, served, &path)?);
    }
    drop(reader);

    server.shutdown();
    let recovery_wrong = match (engine, wal_start, model) {
        (Engine::Durable(e), Some(wal_start), Some(model)) => {
            let recovered = recover(e, &dir, wal_start, &writes, &model)?;
            let queries = &inputs.queries[..SCAN_CHECKED];
            let answers = gate::canonical(&recovered.engine.snapshot(), queries, p.read, &exec())?;
            m.extend(recovered.metrics);
            notes.extend(recovered.notes);
            recovered.wrong
                + answers
                    .iter()
                    .zip(&expected)
                    .filter(|(a, b)| a != b)
                    .count()
        }
        _ => {
            m.extend(DURABLE_ONLY.map(|name| (name, 0.0)));
            0
        }
    };
    if recovery_wrong > 0 {
        eprintln!(
            "{}: {recovery_wrong} mismatches after reopen against the acknowledged writes",
            workload.name()
        );
    }

    let failed = reads.failed + writes.failed;
    Ok(Report {
        workload: workload.name(),
        correct: failed == 0 && recovery_wrong == 0,
        attempted: latencies.len() as u64 + writes.issued,
        failed,
        metrics: m,
        notes,
    })
}

/// Set-up times of a run.
struct Setup {
    /// Median of the set-ups at the reference host speed, s.
    scaled_s: f64,
    /// Median of the set-ups as measured, s.
    measured_s: f64,
    /// Median host-speed factor over the set-ups.
    factor: f64,
}

/// Set the engine up [`Params::setups`] times back to back and keep the
/// last. Host-speed probes run before each set-up; their median over the
/// whole phase scales the median set-up (a few milliseconds of probes
/// next to one set-up would add their own noise).
fn set_up_repeatedly(
    p: &Params,
    inputs: &Inputs,
    data: &Path,
    probe: &Probe,
) -> Result<(Engine, ServerHandle, Setup), String> {
    let mut seconds = Vec::with_capacity(p.setups);
    let mut host = Speed::default();
    let mut served = None;
    for k in 0..p.setups {
        if let Some((engine, server)) = served.take() {
            retire(engine, server)?;
            let _ = std::fs::remove_dir_all(data.join((k - 1).to_string()));
        }
        host.samples.extend((0..SETUP_PROBES).map(|_| probe.time()));
        let (engine, server, s) = set_up(p, inputs, &data.join(k.to_string()))?;
        seconds.push(s);
        served = Some((engine, server));
    }
    let (engine, server) = served.expect("at least one set-up");
    let measured_s = median(&seconds);
    let setup = Setup {
        scaled_s: measured_s * host.factor(),
        measured_s,
        factor: host.factor(),
    };
    Ok((engine, server, setup))
}

/// Check direct ≡ scan and served ≡ direct, then keep reading until the
/// warm-up has lasted [`Options::warmup`] in all.
fn gate_then_warm_up<'a>(
    server: &ServerHandle,
    inputs: &'a Inputs,
    expected: &'a [Response],
    opts: &Options,
    probe: &'a Probe,
) -> Result<Reader<'a>, String> {
    let scan_wrong = gate::scan_mismatches(&inputs.table, &inputs.queries, expected);
    let warm_start = Instant::now();
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let served_wrong = gate::served_mismatches(&mut client, &inputs.requests, expected);
    if scan_wrong + served_wrong > 0 {
        return Err(format!(
            "correctness gate failed: {scan_wrong} of the first {SCAN_CHECKED} direct answers \
             differ from a sequential scan; {served_wrong} of {POOL} served answers differ from \
             the direct call"
        ));
    }
    let mut reader = Reader {
        client,
        requests: &inputs.requests,
        expected,
        probe,
        next: 0,
    };
    reader.run(warm_start + opts.warmup(), None);
    Ok(reader)
}

/// Per-layer metrics of a traced run: the traced half of the window, the
/// replay and the publish probes. Writes the span file to `path`.
fn layers(
    traced: Traced,
    engine: &Engine,
    inputs: &Inputs,
    read: ReadKind,
    served: Served,
    path: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let Traced {
        mut tracer,
        untraced_qps,
        traced_qps,
    } = traced;
    let mut m = replay(engine, &inputs.queries, read, &exec(), served, &mut tracer)?;
    for _ in 0..PUBLISH_PROBES {
        engine.publish();
    }
    let epochs = engine.epoch_stats();
    let clones = epochs.clones as f64;
    m.extend([
        (
            "trace.overhead_pct",
            100.0 * (1.0 - traced_qps / untraced_qps),
        ),
        (
            "concurrent.clone_ms_per_publish",
            epochs.clone_micros as f64 / 1e3 / clones,
        ),
        (
            "concurrent.clone_mb_per_publish",
            epochs.clone_bytes as f64 / (1u64 << 20) as f64 / clones,
        ),
    ]);
    tracer.write_jsonl(path).map_err(|e| e.to_string())?;
    Ok(m)
}

/// Metrics of the durable engine's WAL and recovery; 0 on the others.
const DURABLE_ONLY: [&str; 5] = [
    "wal.fsyncs_per_write",
    "wal.mean_group",
    "wal.bytes_per_write",
    "persist.replayed",
    "persist.disk_bytes_per_row",
];

/// What the crash and reopen of `mixed_rw` measured and found.
struct Recovered {
    engine: ConcurrentDurableShardedIndexSet<VecStore>,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<(&'static str, &'static str, f64)>,
    /// Ids or rows of the reopened engine that differ from the
    /// acknowledged writes.
    wrong: usize,
}

/// Drop the durable engine without a sync or a checkpoint, reopen it, and
/// check it against the writer's model.
fn recover(
    engine: Arc<ConcurrentDurableShardedIndexSet<VecStore>>,
    dir: &Path,
    (bytes_before, fsyncs_before): (u64, u64),
    writes: &Writes,
    model: &Model,
) -> Result<Recovered, String> {
    let writes_n = writes.issued.max(1) as f64;
    let bytes = dir_bytes(dir);
    let fsyncs = (engine.fsync_count() - fsyncs_before) as f64;
    let mean_group = engine.group_commit_stats().mean_group();
    drop(sole_owner(engine)?);

    let reopen = Instant::now();
    let cfg = ConcurrencyConfig::default().publish_every(PUBLISH_EVERY);
    let (reopened, recovery) =
        ConcurrentDurableShardedIndexSet::<VecStore>::open(dir, WalOptions::default(), cfg)
            .map_err(|e| e.to_string())?;
    let reopen_s = reopen.elapsed().as_secs_f64();
    let snap = reopened.snapshot();
    let wrong = writer::recovery_mismatches(&snap, model);

    let mut latency = writes.latency_ms.clone();
    latency.sort_by(f64::total_cmp);
    let mut late = writes.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let [insert, update, delete] = writes.service_medians();
    let replayed = recovery.wal_replayed as f64;
    let mut notes = vec![
        ("write_p50_ms", "ms", median(&latency)),
        ("visibility_p50_ms", "ms", median(&writes.visibility_ms)),
        ("reopen_s", "s", reopen_s),
        ("persist.replay_records_per_s", "1/s", replayed / reopen_s),
        ("wal.insert_us", "us", insert),
        ("wal.update_us", "us", update),
        ("wal.delete_us", "us", delete),
        (
            "concurrent.publish_write_us",
            "us",
            median(&writes.publish_write_us),
        ),
    ];
    if let Ok(p99) = percentile(&latency, 99.0) {
        notes.push(("write_p99_ms", "ms", p99));
    }
    if let Ok(p99) = percentile(&late, 99.0) {
        notes.push(("loadgen.late_p99_ms", "ms", p99));
    }
    Ok(Recovered {
        metrics: vec![
            ("wal.fsyncs_per_write", fsyncs / writes_n),
            ("wal.mean_group", mean_group),
            (
                "wal.bytes_per_write",
                (bytes - bytes_before) as f64 / writes_n,
            ),
            ("persist.replayed", replayed),
            (
                "persist.disk_bytes_per_row",
                bytes as f64 / snap.len() as f64,
            ),
        ],
        notes,
        wrong,
        engine: reopened,
    })
}

/// Build the engine from the generated rows and start serving it: the
/// span `setup_s` measures.
fn set_up(p: &Params, inputs: &Inputs, dir: &Path) -> Result<(Engine, ServerHandle, f64), String> {
    let table = inputs.table.clone();
    let start = Instant::now();
    let mut set = ShardedIndexSet::<VecStore>::build_with(
        table,
        eq18_domain(DIM, RQ),
        IndexConfig::with_budget(BUDGET),
        ShardConfig::pilot_key_range(SHARDS),
        &exec(),
    )
    .map_err(|e| e.to_string())?;
    // The quantized filter tier the autotuner gives every shard on its
    // first retune, as a server gets at its first compaction or checkpoint.
    set.retune_quantization(&QuantAutotuneConfig::default());
    let engine = if p.durable() {
        let cfg = ConcurrencyConfig::default().publish_every(PUBLISH_EVERY);
        let durable =
            ConcurrentDurableShardedIndexSet::create(dir, set, WalOptions::default(), cfg)
                .map_err(|e| e.to_string())?;
        Engine::Durable(Arc::new(durable))
    } else {
        Engine::Memory(Arc::new(ConcurrentShardedIndexSet::new(
            set,
            ConcurrencyConfig::default(),
        )))
    };
    let server = engine.serve().map_err(|e| e.to_string())?;
    Ok((engine, server, start.elapsed().as_secs_f64()))
}

/// Stop a set-up that will not be measured and free its engine.
fn retire(engine: Engine, server: ServerHandle) -> Result<(), String> {
    server.shutdown();
    match engine {
        Engine::Memory(e) => drop(sole_owner(e)?),
        Engine::Durable(e) => drop(sole_owner(e)?),
    }
    Ok(())
}

/// Wait until the server's connection threads have released the engine,
/// so it is dropped (and, when durable, its files closed) here.
fn sole_owner<T>(mut shared: Arc<T>) -> Result<T, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Arc::try_unwrap(shared) {
            Ok(owned) => return Ok(owned),
            Err(back) if Instant::now() < deadline => {
                shared = back;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return Err("the server kept the engine after shutdown".into()),
        }
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&e.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A closed-loop reader on one connection, cycling through the pool.
struct Reader<'a> {
    client: Client,
    requests: &'a [Request],
    expected: &'a [Response],
    probe: &'a Probe,
    next: usize,
}

/// Reads of one stretch of the loop.
#[derive(Default)]
struct Reads {
    /// Client-observed latency, ms; +∞ for a failed or wrong response.
    latency_ms: Vec<f64>,
    failed: u64,
    /// Wall time of the stretch, host-speed probes excluded.
    seconds: f64,
    /// Host-speed probes timed between requests.
    host: Speed,
}

impl Reads {
    fn completed(&self) -> u64 {
        self.latency_ms.len() as u64 - self.failed
    }

    fn qps(&self) -> f64 {
        self.completed() as f64 / self.seconds
    }

    /// Reads per second at the reference host speed.
    fn scaled_qps(&self) -> f64 {
        self.qps() / self.host.factor()
    }

    fn extend(&mut self, more: &Reads) {
        self.latency_ms.extend(&more.latency_ms);
        self.failed += more.failed;
        self.seconds += more.seconds;
        self.host.samples.extend(&more.host.samples);
    }
}

impl Reader<'_> {
    /// Send requests until `until`, each checked against its canonical
    /// answer, timing a host-speed probe every [`PROBE_EVERY`] between
    /// them; with a tracer, each call is a `read.request` span.
    fn run(&mut self, until: Instant, mut tracer: Option<&mut Tracer>) -> Reads {
        let start = Instant::now();
        let mut reads = Reads::default();
        let mut next_probe = start;
        while Instant::now() < until {
            if Instant::now() >= next_probe {
                reads.host.samples.push(self.probe.time());
                next_probe += PROBE_EVERY;
            }
            let i = self.next % self.requests.len();
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin("read.request", None, self.next as u64));
            self.next += 1;
            let sent = Instant::now();
            let got = self.client.call(&self.requests[i]);
            let latency = sent.elapsed().as_secs_f64() * 1e3;
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.end(id);
            }
            match got {
                Ok(resp) if resp == self.expected[i] => reads.latency_ms.push(latency),
                outcome => {
                    reads.failed += 1;
                    reads.latency_ms.push(f64::INFINITY);
                    if outcome.is_err() {
                        break; // the connection is gone
                    }
                }
            }
        }
        reads.seconds = start.elapsed().as_secs_f64() - reads.host.samples.iter().sum::<f64>();
        reads
    }
}

/// Summed enqueue→response time of the server's requests of one read kind,
/// µs.
pub(crate) fn server_latency_us(m: &ServerMetrics, read: ReadKind) -> f64 {
    let h = match read {
        ReadKind::Select => &m.query_latency,
        ReadKind::TopK => &m.topk_latency,
    };
    h.mean_us() * h.count() as f64
}

/// The traced half of a traced run's window.
struct Traced {
    tracer: Tracer,
    untraced_qps: f64,
    traced_qps: f64,
}

/// The measured read window. A traced run spends its first half untraced
/// and its second half traced; the ratio of their qps, each at the
/// reference host speed, is the tracing overhead.
fn read_window(reader: &mut Reader, start: Instant, opts: &Options) -> (Reads, Option<Traced>) {
    let end = start + Duration::from_secs_f64(opts.seconds);
    if !opts.trace {
        return (reader.run(end, None), None);
    }
    let mut reads = reader.run(start + Duration::from_secs_f64(opts.seconds / 2.0), None);
    let mut tracer = Tracer::new(start);
    let traced = reader.run(end, Some(&mut tracer));
    let traced_part = Traced {
        untraced_qps: reads.scaled_qps(),
        traced_qps: traced.scaled_qps(),
        tracer,
    };
    reads.extend(&traced);
    (reads, Some(traced_part))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_canonical_answer_fails_the_gate() {
        let p = Workload::Select1m.params(true);
        let inputs = Inputs::generate(&p, 3);
        let (engine, server, _) =
            set_up(&p, &inputs, &target_dir().join("unused")).expect("set-up");
        let mut expected =
            gate::canonical(&engine.snapshot(), &inputs.queries, p.read, &exec()).expect("direct");
        let mut client = Client::connect(server.addr()).expect("connect");
        assert_eq!(
            gate::scan_mismatches(&inputs.table, &inputs.queries, &expected),
            0
        );
        assert_eq!(
            gate::served_mismatches(&mut client, &inputs.requests, &expected),
            0
        );

        let Response::Matches { ids, .. } = &mut expected[5] else {
            panic!("select workloads answer with matches");
        };
        ids.pop().expect("query 5 matches something");
        assert_eq!(
            gate::scan_mismatches(&inputs.table, &inputs.queries, &expected),
            1
        );
        assert_eq!(
            gate::served_mismatches(&mut client, &inputs.requests, &expected),
            1
        );
    }
}
