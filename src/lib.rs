//! # planar
//!
//! Umbrella crate for the **Planar index** workspace — a from-scratch Rust
//! reproduction of *"Towards Indexing Functions: Answering Scalar Product
//! Queries"* (Khan, Yanki, Dimcheva, Kossmann — SIGMOD 2014).
//!
//! The individual crates:
//!
//! * [`planar_geom`] — vectors, hyperplanes, octants, the §4.5 translation;
//! * [`planar_core`] — the Planar index itself (single + multi index,
//!   Algorithm 1/2, selection heuristics, key stores);
//! * [`planar_relation`] — columnar relation + expression engine +
//!   function-based indexing (Example 1);
//! * [`planar_datagen`] — the paper's datasets and query workloads;
//! * [`planar_moving`] — moving-object intersection (Example 2, §7.5.1);
//! * [`planar_learning`] — pool-based active learning (§7.5.2).
//!
//! For most uses, `use planar::prelude::*;` brings in the common types.
//!
//! Runnable walkthroughs live in `examples/`:
//!
//! * `quickstart` — index a small dataset and run both query kinds;
//! * `durability` — write-ahead-logged mutations, crash recovery,
//!   deadline-budgeted batches;
//! * `parallel_batch` — batched queries sharded over worker threads;
//! * `power_consumption` — the Critical_Consume SQL function end to end;
//! * `moving_objects` — intersections of linear/circular/accelerating
//!   objects;
//! * `active_learning` — uncertainty sampling with exact retrieval;
//! * `halfspace_search` — half-spaces, constraint bands, adaptive retuning;
//! * `time_series` — forecast alerts over 100K series.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use planar_core;
pub use planar_datagen;
pub use planar_geom;
pub use planar_learning;
pub use planar_moving;
pub use planar_relation;

/// The types most programs need.
pub mod prelude {
    pub use planar_core::{
        elect, ChannelTransport, Cmp, ConcurrencyConfig, ConcurrentDurableShardedIndexSet,
        ConcurrentShardedIndexSet, DirTransport, Domain, DynamicPlanarIndexSet, ExecutionConfig,
        FailoverConfig, FeatureMap, FeatureTable, FnFeatureMap, FsyncPolicy, IdentityMap,
        IndexConfig, InequalityQuery, Mutation, MutationAck, ParameterDomain, PartitionScheme,
        PlanarIndexSet, Primary, QuantAutotuneConfig, QuantPolicy, QuantTier, QueryScratch,
        ReadConsistency, Replica, ScratchPool, SelectionStrategy, SeqScan, ServedBy, ShardConfig,
        ShardedIndexSet, ShardedQueryOutcome, TopKQuery, VecStore, WalOptions,
    };
    pub use planar_geom::{Hyperplane, Normalizer, Octant, Vector};
}
