//! Every experiment that archives a `BENCH_*.json` runs at smoke scale in
//! a fresh directory. Its report must parse and carry exactly the key
//! paths of the committed file at the repository root, so a report format
//! change cannot land without the archived files changing with it. The
//! value checks pin each derived field (speedups, ratios, totals) to the
//! measured fields it is computed from.
//!
//! The unoptimized harness is slow (`shard` alone takes about a minute),
//! so these tests run in release builds only:
//!
//! ```text
//! cargo test --release -p planar-bench --test reports
//! ```

use planar_core::fault::TempDir;
use planar_serve::json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// Run `harness <experiment>` at smoke scale in a fresh directory, check
/// its report's key paths against the committed file, and return it.
fn report(experiment: &str) -> Json {
    let dir = TempDir::new("bench-report").expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["--scale", "0.002", "--queries", "8", experiment])
        .current_dir(dir.path())
        .output()
        .expect("run harness");
    assert!(
        out.status.success(),
        "harness {experiment} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let file = format!("BENCH_{experiment}.json");
    let doc = parse(&dir.file(&file));
    let committed = parse(
        &Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(&file),
    );
    assert_eq!(
        leaf_paths(&doc),
        leaf_paths(&committed),
        "{file}: key paths differ from the committed file"
    );
    assert_eq!(
        doc.get("experiment").and_then(Json::as_str),
        Some(experiment)
    );
    doc
}

fn parse(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every leaf's dotted key path; array elements are written `[]`.
fn leaf_paths(doc: &Json) -> BTreeSet<String> {
    fn walk(v: &Json, path: String, out: &mut BTreeSet<String>) {
        match v {
            Json::Obj(fields) => {
                for (k, x) in fields {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    walk(x, sub, out);
                }
            }
            Json::Arr(items) => {
                for x in items {
                    walk(x, format!("{path}[]"), out);
                }
            }
            _ => {
                out.insert(path);
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, String::new(), &mut out);
    out
}

/// The value at a dotted key path.
fn at<'a>(doc: &'a Json, path: &str) -> &'a Json {
    path.split('.')
        .try_fold(doc, |v, k| v.get(k))
        .unwrap_or_else(|| panic!("missing {path}"))
}

fn num(doc: &Json, path: &str) -> f64 {
    at(doc, path)
        .as_f64()
        .unwrap_or_else(|| panic!("{path} is not a number"))
}

fn rows<'a>(doc: &'a Json, path: &str) -> &'a [Json] {
    at(doc, path)
        .as_arr()
        .unwrap_or_else(|| panic!("{path} is not an array"))
}

fn is_true(doc: &Json, path: &str) -> bool {
    *at(doc, path) == Json::Bool(true)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn parallel_report() {
    let doc = report("parallel");
    let sweep = rows(&doc, "sweep");
    let threads: Vec<f64> = sweep.iter().map(|r| num(r, "threads")).collect();
    assert_eq!(threads, [1.0, 2.0, 4.0, 8.0]);
    for row in sweep {
        for stage in ["build", "batch", "topk"] {
            let ms = format!("{stage}_ms");
            assert_eq!(
                num(row, &format!("{stage}_speedup")),
                num(&sweep[0], &ms) / num(row, &ms)
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn shard_report() {
    let doc = report("shard");
    assert!(is_true(&doc, "answers_verified"));
    let sweep = rows(&doc, "sweep");
    let shards: Vec<f64> = sweep.iter().map(|r| num(r, "shards")).collect();
    assert_eq!(shards, [1.0, 2.0, 4.0, 8.0]);
    for row in sweep {
        for stage in ["batch", "topk"] {
            let ms = format!("{stage}_ms");
            assert_eq!(
                num(row, &format!("{stage}_speedup")),
                num(&doc, &format!("unsharded.{ms}")) / num(row, &ms)
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn simd_report() {
    let doc = report("simd");
    assert!(matches!(
        at(&doc, "kernel").as_str(),
        Some("avx2" | "portable")
    ));
    assert_eq!(
        num(&doc, "verification.speedup"),
        num(&doc, "verification.rowmajor_blocked_ms") / num(&doc, "verification.columnar_fused_ms")
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn quant_report() {
    let doc = report("quant");
    for row in rows(&doc, "filter_pass") {
        assert_eq!(
            num(row, "speedup_i16"),
            num(row, "f64_ms") / num(row, "i16_ms")
        );
    }
    for row in rows(&doc, "end_to_end") {
        assert!(is_true(row, "answers_identical"));
        assert_eq!(
            num(row, "speedup_i16"),
            num(row, "off_ms") / num(row, "i16_ms")
        );
    }
    let top_k = rows(&doc, "top_k");
    assert_eq!(top_k.len(), rows(&doc, "end_to_end").len());
    for row in top_k {
        assert!(is_true(row, "answers_identical"), "top-k answers moved");
        assert_eq!(
            num(row, "speedup_i16"),
            num(row, "off_ms") / num(row, "i16_ms")
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn fault_report() {
    let doc = report("fault");
    assert!(num(&doc, "rebuilt_indices") > 0.0);
    assert_eq!(
        num(&doc, "serving.degraded_slowdown"),
        num(&doc, "serving.degraded_ms") / num(&doc, "serving.healthy_ms")
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn wal_report() {
    let doc = report("wal");
    let deadline = rows(&doc, "deadline");
    assert_eq!(*at(&deadline[0], "budget_ms"), Json::Null);
    assert_eq!(num(&deadline[0], "partial"), 0.0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn concurrent_report() {
    let doc = report("concurrent");
    assert!(is_true(&doc, "batch_bit_identical"));
    let mutations = num(&doc, "mutations");
    let gc = at(&doc, "group_commit");
    let mut best = f64::INFINITY;
    for row in rows(gc, "concurrent_always") {
        let total = num(row, "total_ms");
        assert_eq!(num(row, "per_mutation_us"), total * 1e3 / mutations);
        best = best.min(total);
    }
    assert_eq!(
        num(gc, "best_always_vs_concurrent_every_64_ratio"),
        best / num(gc, "concurrent_every_64_ms")
    );
    assert_eq!(
        num(gc, "best_always_vs_single_writer_every_64_ratio"),
        best / num(gc, "single_writer_every_64_ms")
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn replication_report() {
    let doc = report("replication");
    assert!(is_true(&doc, "follower_reads_identical"));
    assert_eq!(num(&doc, "steady_state.final_lag_records"), 0.0);
    assert_eq!(
        num(&doc, "catch_up.total_ms"),
        num(&doc, "catch_up.snapshot_install_ms") + num(&doc, "catch_up.frames_ms")
    );
    // Deterministic counters: every backlog record applies exactly once,
    // after exactly one seed.
    assert_eq!(
        num(&doc, "catch_up.frames_applied"),
        num(&doc, "catch_up.backlog_records")
    );
    assert_eq!(num(&doc, "catch_up.snapshots_installed"), 1.0);
    let f = at(&doc, "failover");
    assert_eq!(
        num(f, "total_unavailability_ms"),
        num(f, "elect_ms") + num(f, "promote_ms") + num(f, "first_write_ms")
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn netrepl_report() {
    let doc = report("netrepl");
    assert!(is_true(&doc, "follower_reads_identical"));
    assert_eq!(num(&doc, "reconnect_storm.reseeds"), 0.0);
    let storms = rows(&doc, "reconnect_storm.heal_ms");
    assert_eq!(storms.len() as f64, num(&doc, "reconnect_storm.storms"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: see the module docs")]
fn serve_report() {
    let doc = report("serve");
    let dispatch = rows(&doc, "dispatch");
    assert_eq!(
        num(&doc, "coalesced_speedup"),
        num(&dispatch[0], "requests_per_sec") / num(&dispatch[1], "requests_per_sec")
    );
    let top = rows(&doc, "overload").last().expect("overload rows");
    assert!(num(top, "retries") + num(top, "overloads") > 0.0);
}
