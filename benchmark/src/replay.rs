//! The traced in-process replay that breaks a served request into layers.
//!
//! After the served window, [`REPLAY`] pool queries, evenly strided so
//! their mix matches the pool the window cycled through, are replayed
//! against the quiescent engine. Each replayed request times, as spans
//! under one root: the epoch pin (`engine.snapshot()`), the dispatcher's
//! exact call (`query_batch_isolated(&[q], exec)` or its top-k twin), the
//! serial sharded call, and per shard the shard-local call, the query
//! normalization and the chosen index's interval location. Response
//! encoding and decoding are timed on the same answer. Counters come from
//! the dispatcher call's statistics, so they are the served path's.

use crate::gate::top_k;
use crate::report::ratio;
use crate::run::{server_latency_us, Engine};
use crate::trace::{micros, Tracer};
use crate::workload::ReadKind;
use planar_core::{
    ExecutionConfig, InequalityQuery, PlanarIndexSet, QueryScratch, QueryStats, ServedBy,
};
use planar_serve::{wire, Client, Provenance, Request, Response, ServerMetrics};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Pool queries replayed in a traced run.
pub const REPLAY: usize = 128;

/// The served side of the replay: the read loop's connection and the
/// server's counters.
pub struct Served<'a> {
    /// The read loop's connection.
    pub client: &'a mut Client,
    /// The pool as wire requests.
    pub requests: &'a [Request],
    /// The server's counters.
    pub metrics: &'a ServerMetrics,
}

/// Per-query counters summed over the replay.
#[derive(Default)]
struct Counts {
    n: f64,
    pruned: f64,
    verified: f64,
    intermediate: f64,
    intersect_pruned: f64,
    matched: f64,
    walked: f64,
    quant_lanes: f64,
    quant_fallback: f64,
    response_bytes: f64,
    server_us: f64,
    shard_calls: f64,
    scan_fallbacks: f64,
    chosen_ii: f64,
    best_ii: f64,
}

/// Replay every `queries.len() / REPLAY`-th query, recording spans into
/// `tracer`, and return the per-layer metrics it measures. Each replayed
/// query is also sent once through the server, next to the in-process
/// calls, so serve-path time is split on the same queries in the same
/// moment; which side goes first alternates, so neither always finds the
/// other's rows in cache.
pub fn replay(
    engine: &Engine,
    queries: &[InequalityQuery],
    read: ReadKind,
    exec: &ExecutionConfig,
    mut served: Served,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let serial = ExecutionConfig::serial();
    let mut scratch = QueryScratch::new();
    let mut c = Counts::default();
    let picked: Vec<usize> = (0..queries.len())
        .step_by((queries.len() / REPLAY).max(1))
        .collect();
    for (rid, &j) in picked.iter().enumerate() {
        let (rid, q) = (rid as u64, &queries[j]);
        let request = tracer.begin("replay.request", None, rid);
        let root = Some(request);
        let served_first = match rid % 2 {
            0 => Some(serve(&mut served, j, read, tracer, root, rid)?),
            _ => None,
        };
        let snap = tracer.time("concurrent.snapshot", root, rid, || engine.snapshot());
        let (response, served_by) = match read {
            ReadKind::Select => {
                let out = tracer
                    .time("shard.batch", root, rid, || {
                        snap.query_batch_isolated(std::slice::from_ref(q), exec)
                    })
                    .pop()
                    .expect("one slot per query")
                    .map_err(|e| e.to_string())?;
                tracer
                    .time("shard.serial", root, rid, || {
                        black_box(snap.query_with(q, &serial, &mut scratch))
                    })
                    .map_err(|e| e.to_string())?;
                c.count_select(&QueryStats::merged(&out.shard_stats));
                let response = Response::Matches {
                    provenance: Provenance::from_served_by(&out.served_by),
                    ids: out.matches,
                };
                (response, out.served_by)
            }
            ReadKind::TopK => {
                let tk = top_k(q);
                let out = tracer
                    .time("shard.batch", root, rid, || {
                        snap.top_k_batch_isolated(std::slice::from_ref(&tk), exec)
                    })
                    .pop()
                    .expect("one slot per query")
                    .map_err(|e| e.to_string())?;
                tracer
                    .time("shard.serial", root, rid, || {
                        black_box(snap.top_k_with(&tk, &serial, &mut scratch))
                    })
                    .map_err(|e| e.to_string())?;
                for s in &out.shard_stats {
                    c.n += s.n as f64;
                    c.pruned += (s.n - s.checked().min(s.n)) as f64;
                    c.verified += s.verified as f64;
                    c.intermediate += s.intermediate as f64;
                    c.intersect_pruned += s.intersect_pruned as f64;
                    c.walked += s.walked as f64;
                }
                c.matched += out.neighbors.len() as f64;
                let response = Response::Neighbors {
                    provenance: Provenance::from_served_by(&out.served_by),
                    neighbors: out.neighbors,
                };
                (response, out.served_by)
            }
        };
        for (s, served_by) in served_by.iter().enumerate() {
            let shard = snap.shard(s).expect("shard in range");
            match read {
                ReadKind::Select => tracer.time("multi.query", root, rid, || {
                    black_box(shard.query_with(q, &serial, &mut scratch)).map(drop)
                }),
                ReadKind::TopK => tracer.time("multi.query", root, rid, || {
                    black_box(shard.top_k_with(&top_k(q), &serial, &mut scratch)).map(drop)
                }),
            }
            .map_err(|e| e.to_string())?;
            c.locate(shard, q, *served_by, tracer, root, rid)?;
        }
        let frame = tracer.time("wire.encode", root, rid, || {
            wire::encode_response(&response)
        });
        let decoded = tracer.time("wire.decode", root, rid, || {
            let (kind, body) = wire::read_frame(&mut frame.as_slice()).ok()??;
            wire::decode_response(kind, &body)
        });
        if decoded.as_ref() != Some(&response) {
            return Err("a response did not survive its wire round trip".into());
        }
        c.response_bytes += frame.len() as f64;
        let (through_server, server_us) = match served_first {
            Some(first) => first,
            None => serve(&mut served, j, read, tracer, root, rid)?,
        };
        c.server_us += server_us;
        if through_server != response {
            return Err(format!(
                "replayed query {j}: the served answer differs from the direct call"
            ));
        }
        tracer.end(request);
    }

    let replayed = picked.len() as f64;
    let per_query = |name: &str| tracer.total_us(name) / replayed;
    let rtt = per_query("serve.request");
    let server = c.server_us / replayed;
    let batch = per_query("shard.batch");
    let shard_query = per_query("multi.query");
    let normalize = per_query("multi.normalize");
    let locate = per_query("index.locate");
    let per = |v: f64| v / replayed;
    Ok(vec![
        ("serve.rtt_us", rtt),
        ("serve.server_us", server),
        ("serve.net_us", rtt - server),
        ("batcher.wait_us", server - batch),
        ("wire.encode_us", per_query("wire.encode")),
        ("wire.decode_us", per_query("wire.decode")),
        ("wire.response_bytes", per(c.response_bytes)),
        ("concurrent.snapshot_us", per_query("concurrent.snapshot")),
        ("shard.batch_us", batch),
        ("shard.assemble_us", per_query("shard.serial") - shard_query),
        ("shard.skew", skew(tracer)),
        ("multi.query_us", shard_query),
        ("multi.normalize_us", normalize),
        ("multi.self_us", shard_query - normalize - locate),
        (
            "multi.scan_fallback_rate",
            ratio(c.scan_fallbacks, c.shard_calls),
        ),
        ("selection.regret", ratio(c.chosen_ii, c.best_ii)),
        ("index.locate_us", locate),
        ("index.pruning_pct", 100.0 * ratio(c.pruned, c.n)),
        ("index.verified_per_query", per(c.verified)),
        ("index.intermediate_per_query", per(c.intermediate)),
        ("index.intersect_pruned_per_query", per(c.intersect_pruned)),
        ("index.verified_per_match", ratio(c.verified, c.matched)),
        ("index.matched_per_query", per(c.matched)),
        ("index.walked_per_query", per(c.walked)),
        ("quant.lanes_per_query", per(c.quant_lanes)),
        (
            "quant.fallback_rate",
            ratio(c.quant_fallback, c.quant_lanes),
        ),
    ])
}

/// Send pool request `j` through the server. Its server-side time, in µs,
/// is the growth of the server's latency sum: it is the only request in
/// flight.
fn serve(
    served: &mut Served,
    j: usize,
    read: ReadKind,
    tracer: &mut Tracer,
    root: Option<usize>,
    rid: u64,
) -> Result<(Response, f64), String> {
    let before = server_latency_us(served.metrics, read);
    let response = tracer
        .time("serve.request", root, rid, || {
            served.client.call(&served.requests[j])
        })
        .map_err(|e| e.to_string())?;
    Ok((response, server_latency_us(served.metrics, read) - before))
}

impl Counts {
    fn count_select(&mut self, s: &QueryStats) {
        self.n += s.n as f64;
        self.pruned += (s.smaller + s.larger + s.intersect_pruned) as f64;
        self.verified += s.verified as f64;
        self.intermediate += s.intermediate as f64;
        self.intersect_pruned += s.intersect_pruned as f64;
        self.matched += s.matched as f64;
        self.quant_lanes += s.quant.lanes as f64;
        self.quant_fallback += s.quant.fallback as f64;
    }

    /// Time the chosen index's normalization and interval location on one
    /// shard, and score the choice against every healthy index: regret is
    /// the chosen intermediate intervals' total over the total of the
    /// smallest ones available.
    fn locate(
        &mut self,
        shard: &PlanarIndexSet,
        q: &InequalityQuery,
        served: ServedBy,
        tracer: &mut Tracer,
        root: Option<usize>,
        rid: u64,
    ) -> Result<(), String> {
        self.shard_calls += 1.0;
        let ServedBy::Index(pos) = served else {
            self.scan_fallbacks += 1.0;
            return Ok(());
        };
        let (effective, nq) = tracer
            .time("multi.normalize", root, rid, || shard.normalize_query(q))
            .map_err(|e| e.to_string())?;
        let index_at = |i: usize| {
            let index = shard.index_at(i).expect("index in range");
            (index, shard.normalizer().key_shift(index.normal()))
        };
        let (chosen, shift) = index_at(pos);
        let bounds = tracer.time("index.locate", root, rid, || {
            black_box(chosen.boundaries(&nq, shift, effective.cmp()))
        });
        let best = (0..shard.num_indices())
            .filter(|&i| !shard.is_quarantined(i))
            .map(|i| {
                let (index, shift) = index_at(i);
                index.ii_size(&nq, shift, effective.cmp())
            })
            .min()
            .unwrap_or(0);
        self.chosen_ii += (bounds.j_max - bounds.j_min).max(1) as f64;
        self.best_ii += best.max(1) as f64;
        Ok(())
    }
}

/// Mean over replayed requests of the slowest shard-local call over the
/// mean one.
fn skew(tracer: &Tracer) -> f64 {
    let mut by_request: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in tracer.named("multi.query") {
        by_request
            .entry(s.rid)
            .or_default()
            .push(micros(s.duration()));
    }
    let skews: Vec<f64> = by_request
        .values()
        .map(|d| {
            let mean = d.iter().sum::<f64>() / d.len() as f64;
            ratio(d.iter().cloned().fold(0.0, f64::max), mean)
        })
        .collect();
    ratio(skews.iter().sum(), skews.len() as f64)
}
