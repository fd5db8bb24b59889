//! Fault-tolerance experiment: what does robustness cost?
//!
//! Two questions the lifecycle work raises, answered with numbers:
//!
//! 1. **Recovery vs cold rebuild** — when one index section of a snapshot
//!    is corrupt, `load_or_recover` salvages the core and rebuilds only the
//!    quarantined index. How does that compare with a clean load and with
//!    rebuilding the whole set from raw rows?
//! 2. **Degraded vs healthy latency** — with every index quarantined the
//!    engine serves exact answers via the scan path. How much slower is
//!    that worst-case degraded service than indexed service?
//!
//! Results are printed as tables and written to `BENCH_fault.json`.

use crate::report::{self, ms, Table};
use crate::{time_ms, Config};
use planar_core::fault::{Corruption, TempDir};
use planar_core::{
    ExecutionConfig, IndexConfig, InequalityQuery, JsonObject, PlanarIndexSet, QueryScratch,
    VecStore,
};
use planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_datagen::SYNTHETIC_N;

/// Dataset dimensionality.
const DIM: usize = 8;
/// RQ of the Eq. 18 query template.
const RQ: usize = 4;
/// Index budget — enough that rebuilding one index is visibly cheaper than
/// rebuilding all of them.
const BUDGET: usize = 16;
/// Timing repetitions per measurement (the mean is reported).
const REPS: usize = 3;

/// The `fault` experiment (see module docs).
pub fn fault(cfg: &Config) {
    let n = cfg.scaled(2 * SYNTHETIC_N);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, n, DIM).generate();
    let build_cfg = || IndexConfig::with_budget(BUDGET).seed(cfg.seed);

    let (set, cold_build_ms) = {
        let mut total = 0.0;
        let mut built = None;
        for _ in 0..REPS {
            let (s, t) = time_ms(|| {
                PlanarIndexSet::<VecStore>::build(table.clone(), eq18_domain(DIM, RQ), build_cfg())
                    .expect("fault experiment build")
            });
            built = Some(s);
            total += t;
        }
        (built.expect("REPS > 0"), total / REPS as f64)
    };

    let dir = TempDir::new("bench-fault").expect("temp dir");
    let path = dir.file("snapshot.plnr");
    let mut save_ms = 0.0;
    for _ in 0..REPS {
        let (_, t) = time_ms(|| set.save_to(&path).expect("save"));
        save_ms += t;
    }
    save_ms /= REPS as f64;
    let pristine = std::fs::read(&path).expect("read snapshot");

    let mut clean_load_ms = 0.0;
    for _ in 0..REPS {
        let (loaded, t) = time_ms(|| PlanarIndexSet::<VecStore>::load_from(&path).expect("load"));
        assert_eq!(loaded.num_indices(), set.num_indices());
        clean_load_ms += t;
    }
    clean_load_ms /= REPS as f64;

    // Corrupt the tail of the file: per-index sections live after the core,
    // so this damages exactly one index section (the last), which recovery
    // quarantines and rebuilds from the intact core.
    let mut corrupt = pristine.clone();
    Corruption::BitFlip {
        offset: corrupt.len() - 20,
        bit: 3,
    }
    .apply(&mut corrupt);
    std::fs::write(&path, &corrupt).expect("write corrupt snapshot");

    let mut recover_ms = 0.0;
    let mut rebuilt_indices = 0;
    for _ in 0..REPS {
        let ((loaded, report), t) = time_ms(|| {
            PlanarIndexSet::<VecStore>::load_or_recover(&path).expect("recovering load")
        });
        assert_eq!(loaded.num_indices(), set.num_indices());
        rebuilt_indices = report.rebuilt.len();
        assert!(rebuilt_indices > 0, "corruption must quarantine something");
        recover_ms += t;
    }
    recover_ms /= REPS as f64;
    std::fs::write(&path, &pristine).expect("restore snapshot");

    let lifecycle_ms = JsonObject::new()
        .field_f64("cold_build", cold_build_ms)
        .field_f64("save", save_ms)
        .field_f64("clean_load", clean_load_ms)
        .field_f64("recover", recover_ms)
        .finish();

    // Degraded vs healthy serving on the same query workload.
    // Selective queries (small accepting interval) so the indexed path has
    // pruning to lose: the degraded slowdown is the cost of giving that up.
    let mut generator =
        Eq18Generator::new(set.table(), RQ, cfg.seed ^ 0xFA17).with_inequality_parameter(0.05);
    let queries: Vec<InequalityQuery> = generator.queries(cfg.queries.max(20));
    let exec = ExecutionConfig::serial();
    let mut scratch = QueryScratch::new();

    let mut healthy_ms = 0.0;
    for _ in 0..REPS {
        let (_, t) = time_ms(|| {
            for q in &queries {
                let out = set
                    .query_with(q, &exec, &mut scratch)
                    .expect("healthy query");
                assert!(!out.served_by.is_degraded());
            }
        });
        healthy_ms += t;
    }
    healthy_ms /= REPS as f64;

    let mut degraded_set = set;
    for pos in 0..degraded_set.num_indices() {
        degraded_set.quarantine(pos);
    }
    let mut degraded_ms = 0.0;
    for _ in 0..REPS {
        let (_, t) = time_ms(|| {
            for q in &queries {
                let out = degraded_set
                    .query_with(q, &exec, &mut scratch)
                    .expect("degraded query");
                assert!(out.served_by.is_degraded());
            }
        });
        degraded_ms += t;
    }
    degraded_ms /= REPS as f64;

    let mut t = Table::new(
        &format!("Index lifecycle: n={n}, dim={DIM}, #index={BUDGET}"),
        &["phase", "time_ms", "vs cold build"],
    );
    for (phase, v) in [
        ("cold build", cold_build_ms),
        ("save", save_ms),
        ("clean load", clean_load_ms),
        ("recover (1 bad section)", recover_ms),
    ] {
        t.row(vec![
            phase.to_string(),
            ms(v),
            format!("{:.2}x", v / cold_build_ms),
        ]);
    }
    t.print();

    let mut t = Table::new(
        &format!("Serving: {} queries, serial", queries.len()),
        &["mode", "time_ms", "slowdown"],
    );
    t.row(vec![
        "healthy (indexed)".into(),
        ms(healthy_ms),
        "1.00x".into(),
    ]);
    t.row(vec![
        "degraded (all quarantined)".into(),
        ms(degraded_ms),
        format!("{:.2}x", degraded_ms / healthy_ms),
    ]);
    t.print();

    let serving = JsonObject::new()
        .field_usize("queries", queries.len())
        .field_f64("healthy_ms", healthy_ms)
        .field_f64("degraded_ms", degraded_ms)
        .field_f64("degraded_slowdown", degraded_ms / healthy_ms)
        .finish();
    report::write_json("fault", |doc| {
        doc.field_usize("n", n)
            .field_usize("dim", DIM)
            .field_usize("budget", BUDGET)
            .field_u64("seed", cfg.seed)
            .field_usize("snapshot_bytes", pristine.len())
            .field_raw("lifecycle_ms", &lifecycle_ms)
            .field_usize("rebuilt_indices", rebuilt_indices)
            .field_raw("serving", &serving)
    });
}
