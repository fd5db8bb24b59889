//! Every workload at smoke size (n = 20k, 1 s windows): the emitted metric
//! names and units equal `BENCHMARK.json`'s lists, every run is correct,
//! and the deterministic counters repeat exactly for one seed.

use planar_benchmark::{run, Options, Report, Workload, END_TO_END, PER_LAYER};
use planar_serve::json::Json;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    let opts = Options {
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
        writer_cpu: None,
    };
    let report = run(workload, &opts).expect("run completes");
    assert!(
        report.correct,
        "{}: a correctness check failed",
        workload.name()
    );
    assert_eq!(report.failed, 0, "{}: operations failed", workload.name());
    assert!(report.attempted > 0);
    report
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric on a result line.
fn emitted(line: &str) -> Vec<(String, String)> {
    let doc = Json::parse(line).expect("result line parses");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

fn as_owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    assert_eq!(as_owned(&END_TO_END), listed("end_to_end"));
    assert_eq!(as_owned(&PER_LAYER), listed("per_layer"));
}

#[test]
fn every_workload_emits_the_listed_metrics() {
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = smoke(workload, 11, trace);
            let metrics = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let line = report.json(metrics).expect("every metric measured");
            assert_eq!(
                sorted(emitted(&line)),
                sorted(listed(list)),
                "{}",
                workload.name()
            );
        }
    }
}

/// Counters that depend only on the seed: the replay's `index.*`,
/// `quant.*` and `selection.regret`, epoch publishes, and the WAL and
/// memory footprints.
fn counters(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .metrics
        .iter()
        .filter(|(name, _)| {
            (name.starts_with("index.") || name.starts_with("quant.")) && !name.ends_with("_us")
                || [
                    "selection.regret",
                    "concurrent.publishes",
                    "wal.bytes_per_write",
                    "bytes_per_row",
                    "persist.disk_bytes_per_row",
                ]
                .contains(name)
        })
        .copied()
        .collect()
}

#[test]
fn counters_repeat_for_a_seed_and_differ_across_seeds() {
    for workload in [Workload::TopkHot, Workload::MixedRw] {
        let first = counters(&smoke(workload, 21, true));
        let again = counters(&smoke(workload, 21, true));
        let other = counters(&smoke(workload, 22, true));
        assert_eq!(first.len(), 14, "{}", workload.name());
        assert_eq!(first, again, "{}: same seed", workload.name());
        assert_ne!(first, other, "{}: another seed", workload.name());
    }
}
