//! The correctness gate: canonical answers and the checks against them.
//!
//! The canonical answer to a pool query is the response the server must
//! send: the direct `query_batch_isolated` / `top_k_batch_isolated` call
//! its dispatcher makes, on the same snapshot. Before anything is timed the
//! gate checks direct ≡ `SeqScan` on the first [`SCAN_CHECKED`] queries and
//! served ≡ direct on the whole pool; every response in the measured window
//! is then compared with the same canonical answers.

use crate::workload::{ReadKind, TOP_K};
use planar_core::{
    ExecutionConfig, FeatureTable, InequalityQuery, SeqScan, ShardedIndexSet, TopKQuery,
};
use planar_serve::{Client, Provenance, Request, Response};

/// Pool queries checked against the sequential-scan oracle.
pub const SCAN_CHECKED: usize = 64;

/// The top-k form of a pool query.
pub fn top_k(q: &InequalityQuery) -> TopKQuery {
    TopKQuery::new(q.clone(), TOP_K as usize).expect("k ≥ 1")
}

/// Canonical responses for `queries`, from the dispatcher's direct call.
pub fn canonical(
    set: &ShardedIndexSet,
    queries: &[InequalityQuery],
    read: ReadKind,
    exec: &ExecutionConfig,
) -> Result<Vec<Response>, String> {
    let fail = |e: planar_core::PlanarError| format!("direct call failed: {e}");
    match read {
        ReadKind::Select => set
            .query_batch_isolated(queries, exec)
            .into_iter()
            .map(|r| {
                r.map(|o| Response::Matches {
                    provenance: Provenance::from_served_by(&o.served_by),
                    ids: o.matches,
                })
                .map_err(fail)
            })
            .collect(),
        ReadKind::TopK => {
            let tks: Vec<TopKQuery> = queries.iter().map(top_k).collect();
            set.top_k_batch_isolated(&tks, exec)
                .into_iter()
                .map(|r| {
                    r.map(|o| Response::Neighbors {
                        provenance: Provenance::from_served_by(&o.served_by),
                        neighbors: o.neighbors,
                    })
                    .map_err(fail)
                })
                .collect()
        }
    }
}

/// Canonical answers of the first [`SCAN_CHECKED`] queries that disagree
/// with a sequential scan of `table` (id sets for inequality queries; ids
/// and bit-exact distances for top-k).
pub fn scan_mismatches(
    table: &FeatureTable,
    queries: &[InequalityQuery],
    expected: &[Response],
) -> usize {
    let scan = SeqScan::new(table);
    queries
        .iter()
        .zip(expected)
        .take(SCAN_CHECKED)
        .filter(|(q, want)| match want {
            Response::Matches { ids, .. } => {
                let mut ids = ids.clone();
                ids.sort_unstable();
                scan.evaluate(q).ok() != Some(ids)
            }
            Response::Neighbors { neighbors, .. } => {
                scan.top_k(&top_k(q)).ok().as_ref() != Some(neighbors)
            }
            _ => true,
        })
        .count()
}

/// Served responses that differ from the canonical ones, sending every
/// request once in order. A transport error counts the rest as wrong.
pub fn served_mismatches(
    client: &mut Client,
    requests: &[Request],
    expected: &[Response],
) -> usize {
    let mut wrong = 0;
    for (i, (req, want)) in requests.iter().zip(expected).enumerate() {
        match client.call(req) {
            Ok(got) => wrong += usize::from(&got != want),
            Err(_) => return wrong + requests.len() - i,
        }
    }
    wrong
}
