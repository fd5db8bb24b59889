//! Batched, multi-threaded querying through the public API.
//!
//! ```sh
//! cargo run --release --example parallel_batch
//! ```

use planar::prelude::*;

fn main() -> planar::planar_core::Result<()> {
    // 10k points in the positive octant, 4 features.
    let rows: Vec<Vec<f64>> = (0..10_000)
        .map(|i| {
            let x = i as f64;
            vec![x % 97.0, (x * 0.37) % 53.0, (x * 1.91) % 29.0, x % 11.0]
        })
        .collect();
    let table = FeatureTable::from_rows(4, rows)?;
    let domain = ParameterDomain::new(vec![Domain::Continuous { lo: 0.1, hi: 5.0 }; 4])?;

    let exec = ExecutionConfig::with_threads(4);
    let set: PlanarIndexSet =
        PlanarIndexSet::build_with(table, domain, IndexConfig::with_budget(16), &exec)?;

    let queries: Vec<InequalityQuery> = (1..=8)
        .map(|i| InequalityQuery::leq(vec![1.0, 0.5, 2.0, 0.25], 40.0 * i as f64))
        .collect::<planar::planar_core::Result<_>>()?;

    // One call, its queries split across workers (each query runs on one);
    // results identical to a serial loop.
    let outcomes = set.query_batch(&queries, &exec)?;
    for (q, o) in queries.iter().zip(&outcomes) {
        println!(
            "b = {:6.1}  →  {:5} matches  ({:?}, verified {})",
            q.b(),
            o.matches.len(),
            o.stats.path,
            o.stats.verified
        );
    }

    // Reusing one scratch across single queries avoids per-query allocation.
    let mut scratch = QueryScratch::with_capacity(10_000);
    let single = set.query_with(&queries[3], &exec, &mut scratch)?;
    assert_eq!(single.matches, outcomes[3].matches);
    println!("single query_with matches batch result exactly");
    Ok(())
}
