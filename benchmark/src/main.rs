//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload <name|all>
//! --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke]`
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end list, or the per-layer list with `--trace 1`).
//! Exits non-zero when a correctness check fails.

use planar_benchmark::{allowed_cpus, pin_to, run, Options, Workload, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const USAGE: &str = "usage: planar-benchmark --workload <select_1m|topk_hot|mixed_rw|all> \
                     --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke]";

/// Measured window of a run unless `--seconds` says otherwise; matches
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Window of a `--smoke` run.
const SMOKE_SECONDS: f64 = 1.0;

fn parse(args: &[String]) -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?]
                });
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let default = if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    Ok((
        workloads.ok_or("--workload is required")?,
        Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(default),
            trace,
            smoke,
            writer_cpu: None,
        },
    ))
}

/// Pin this thread, and so every thread it starts, to the lowest CPU it may
/// run on; returns the next one, for the writer of `mixed_rw`.
fn pin() -> std::io::Result<Option<usize>> {
    let cpus = allowed_cpus()?;
    let first = *cpus
        .first()
        .ok_or_else(|| std::io::Error::other("the affinity mask allows no CPU"))?;
    pin_to(first)?;
    let writer = cpus.get(1).copied();
    eprintln!(
        "server, reader and probe on CPU {first}; writer on CPU {}",
        writer.unwrap_or(first)
    );
    Ok(writer)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, mut opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts.
    opts.writer_cpu = match pin() {
        Ok(spare) => spare,
        Err(e) => {
            eprintln!("CPU affinity: {e}");
            return ExitCode::FAILURE;
        }
    };
    let list = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut correct = true;
    for workload in workloads {
        let report = match run(workload, &opts) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let line = match report.json(list) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.describe(list));
        println!("{line}");
        correct &= report.correct;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
