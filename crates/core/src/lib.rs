//! # planar-core
//!
//! The **Planar index** of *"Towards Indexing Functions: Answering Scalar
//! Product Queries"* (Khan, Yanki, Dimcheva, Kossmann — SIGMOD 2014).
//!
//! Given `n` data points `x` and an application-specific feature map
//! `φ : R^d → R^{d'}` known ahead of time, the index answers — online, and
//! exactly — queries whose parameters only become known at query time:
//!
//! * **Inequality queries** (paper Problem 1): all `x` with
//!   `⟨a, φ(x)⟩ ≤ b` (or `≥ b`);
//! * **Top-k nearest-neighbor queries** (paper Problem 2): the `k`
//!   satisfying points closest to the query hyperplane, i.e. minimizing
//!   `|⟨a, φ(x)⟩ − b| / |a|`.
//!
//! ## How it works
//!
//! One *Planar index* is a set of parallel hyperplanes with a common normal
//! `c` — concretely, the points sorted by their key `⟨c, φ(x)⟩` (paper §4.2).
//! At query time the per-axis intercept thresholds `tᵢ = cᵢ·b/aᵢ` split the
//! sorted order into three runs (paper §4.3):
//!
//! * the **smaller interval** `key ≤ min tᵢ` — every point provably
//!   satisfies a `≤` query and is accepted without computing its scalar
//!   product;
//! * the **larger interval** `key > max tᵢ` — every point provably violates
//!   it and is rejected outright;
//! * the **intermediate interval** in between — verified exactly.
//!
//! A [`PlanarIndexSet`] keeps a small budget of such indices with different
//! normals sampled from the query-parameter domains (§5.2) and picks the
//! best one per query by stretch minimization (§5.1.1) or angle
//! minimization (§5.1.2). Queries and data outside the first hyper-octant
//! are handled by the translation of §4.5 (see [`planar_geom::Normalizer`]).
//!
//! ## Quick start
//!
//! ```
//! use planar_core::{Cmp, FeatureTable, InequalityQuery, IndexConfig, ParameterDomain,
//!                   PlanarIndexSet};
//!
//! // φ(x) already applied: three 2-d feature rows.
//! let table = FeatureTable::from_rows(2, vec![
//!     vec![1.0, 1.0],
//!     vec![4.0, 2.0],
//!     vec![9.0, 9.0],
//! ]).unwrap();
//!
//! // Query coefficients will be drawn from [0.5, 2] on both axes.
//! let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
//! let set: PlanarIndexSet = PlanarIndexSet::build(table, domain, IndexConfig::with_budget(8)).unwrap();
//!
//! // ⟨(1, 2), φ(x)⟩ ≤ 9
//! let q = InequalityQuery::new(vec![1.0, 2.0], Cmp::Leq, 9.0).unwrap();
//! let out = set.query(&q).unwrap();
//! assert_eq!(out.sorted_ids(), vec![0, 1]);
//! ```
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`table`] | flat row-major feature storage ([`FeatureTable`]) |
//! | [`query`] | query types and exact predicate evaluation |
//! | [`domain`] | parameter domains, sampling, online domain tracking (§4.1) |
//! | [`store`] | the sorted id list of one index ([`store::VecStore`]); keys are computed from rows |
//! | [`index`] | one Planar index: intervals + Algorithm 1 + Algorithm 2 |
//! | [`selection`] | best-index selection heuristics (§5.1) |
//! | [`multi`] | [`PlanarIndexSet`]: budgeted multi-index structure (§5) |
//! | [`shard`] | [`ShardedIndexSet`]: shared-nothing horizontal partitioning with k-way top-k merge |
//! | [`parallel`] | thread configuration and the batch / shard splits, query scratch, blocked verification |
//! | [`scan`] | the sequential-scan baseline the paper compares against |
//! | [`feature`] | the `φ` feature-map abstraction |
//! | [`stats`] | per-query pruning statistics and serving provenance |
//! | [`memory`] | heap accounting for the memory experiments (Fig. 13b) |
//! | [`frame`] | shared CRC-64 framing: the seal/verify helpers every on-disk and wire format uses |
//! | [`persist`] | crash-safe snapshots: sectioned `PLNRIDX3` format, atomic saves, partial recovery |
//! | [`wal`] | crash-consistent mutation durability: CRC-framed write-ahead log, group commit, checkpoints, point-in-time recovery |
//! | [`concurrent`] | epoch-based snapshot isolation: lock-free concurrent reads under a single group-committing writer |
//! | [`replicate`] | WAL-shipping replication: snapshot install, segment tailing, LSN-bounded follower reads, failover promotion |
//! | [`health`] | index self-verification and the quarantine-and-degrade lifecycle |
//! | [`backoff`] | shared capped-exponential retry backoff with deterministic jitter |
//! | [`fault`] | fault injection: deterministic corruptions, a faulty IO layer, panic triggers, a socket-level chaos proxy |

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adaptive;
pub mod backoff;
pub mod concurrent;
pub mod conjunction;
pub mod domain;
pub mod fault;
pub mod feature;
pub mod frame;
pub mod halfspace;
pub mod health;
pub mod index;
pub mod memory;
pub mod multi;
pub mod parallel;
pub mod persist;
pub mod quant;
pub mod query;
pub mod replicate;
pub mod router;
pub mod scan;
pub mod selection;
pub mod shard;
pub mod stats;
pub mod store;
pub mod table;
pub mod wal;

pub use adaptive::{AdaptiveConfig, AdaptivePlanarIndexSet};
pub use backoff::Backoff;
pub use concurrent::{
    ConcurrencyConfig, ConcurrentDurableShardedIndexSet, ConcurrentShardedIndexSet, EpochCell,
    EpochStats, Snapshot,
};
pub use conjunction::{ConjunctionOutcome, ConjunctionQuery};
pub use domain::{Domain, DomainTracker, ParameterDomain};
#[cfg(any(test, feature = "fault-injection"))]
pub use fault::{ChaosCtl, ChaosFault, ChaosProxy, Corruption, FaultyIo, IoFault, TempDir};
pub use fault::{SnapshotIo, StdIo};
pub use feature::{FeatureMap, FnFeatureMap, IdentityMap};
pub use halfspace::{HalfSpace, HalfSpaceIndex};
pub use health::{HealthIssue, HealthReport, IndexHealth, ShardedHealthReport};
pub use index::{IndexView, IntervalBounds, SingleIndex, TopKStats};
pub use memory::HeapSize;
pub use multi::{IndexConfig, PlanarIndexSet, QueryOutcome, TopKOutcome};
pub use parallel::{ExecutionConfig, QueryScratch};
pub use persist::{RecoveryReport, SaveOptions, ShardedRecoveryReport};
pub use quant::{
    tier_for_rows, BoxClass, QuantAutotuneConfig, QuantFilterStats, QuantTier, QuantizedColumns,
    QUANT_MIN_ROWS,
};
pub use query::{Cmp, InequalityQuery, InvalidQueryReason, TopKQuery};
pub use replicate::{
    elect, endpoint_pair, AckPolicy, ChannelTransport, FailoverConfig, FollowerRead, Primary,
    ReadConsistency, Replica, ReplicaHealth, ReplicationHealth, ReplicationStats, ShipEndpoint,
    ShipEndpointDriver, TcpLinkOptions, TcpTransport, Transport, SHIP_MAGIC,
};
pub use router::AxisReductionRouter;
pub use scan::SeqScan;
pub use selection::SelectionStrategy;
pub use shard::{
    merge_top_k, PartitionScheme, Partitioner, ShardConfig, ShardedIndexSet, ShardedQueryOutcome,
    ShardedTopKOutcome,
};
pub use stats::{ExecutionPath, JsonObject, QueryStats, ServedBy, StatsAggregator};
pub use store::{KeyStore, VecStore};
pub use table::FeatureTable;
pub use wal::{
    FsyncPolicy, GroupCommitStats, Lsn, Mutation, MutationAck, QuorumGate, WalHealth, WalOptions,
    WalRecord,
};

use planar_geom::GeomError;

/// Errors produced by index construction and querying.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanarError {
    /// An underlying geometry error.
    Geom(GeomError),
    /// Operands disagree on dimensionality.
    DimensionMismatch {
        /// expected dimensionality
        expected: usize,
        /// dimensionality found
        found: usize,
    },
    /// The dataset is empty where at least one point is required.
    EmptyDataset,
    /// A parameter domain was empty or inverted.
    EmptyDomain {
        /// the offending axis
        axis: usize,
    },
    /// A parameter domain straddles zero: the sign of that query coefficient
    /// would be unknown, so no octant can be fixed (§4.5).
    DomainContainsZero {
        /// the offending axis
        axis: usize,
    },
    /// The index budget must be at least 1.
    InvalidBudget,
    /// A supplied value was NaN or infinite.
    NotFinite,
    /// A query failed typed validation before touching any threshold
    /// arithmetic: NaN/±∞ coefficients or offsets, or a zero coefficient
    /// on a thresholded axis (see [`InvalidQueryReason`]).
    InvalidQuery(InvalidQueryReason),
    /// No point with this identifier exists (or it was deleted).
    PointNotFound(u32),
    /// `k` must be at least 1 for a top-k query.
    KNotPositive,
    /// Persistence failure: I/O, truncation, corruption, or version
    /// mismatch (see `crate::persist`).
    Persist(String),
    /// An internal invariant was violated — typically a worker panic caught
    /// at a batch boundary (see `crate::parallel`). The payload is the
    /// panic/diagnostic message.
    Internal(String),
    /// A follower read demanded a consistency level the replica has not
    /// reached yet (see `crate::replicate::ReadConsistency`): the read
    /// required LSN `required` but only `applied` has been applied.
    ReplicaLag {
        /// LSN the read required.
        required: Lsn,
        /// LSN the replica has applied.
        applied: Lsn,
    },
    /// A replication peer holds a higher term: this node was deposed by a
    /// failover promotion and must stop acting as primary.
    Fenced {
        /// This node's term.
        term: u64,
        /// The higher term observed from a peer.
        observed: u64,
    },
    /// A quorum-acknowledged write became locally durable but the required
    /// number of replicas did not confirm the covering LSN in time (see
    /// `crate::replicate::AckPolicy::Quorum`). The write IS applied and
    /// durable on this node; only the quorum guarantee is unmet.
    QuorumTimeout {
        /// LSN the write needed confirmed.
        lsn: Lsn,
        /// Replicas required to confirm it.
        required: usize,
        /// Highest LSN the quorum had confirmed when time ran out.
        frontier: Lsn,
    },
}

impl core::fmt::Display for PlanarError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlanarError::Geom(e) => write!(f, "geometry error: {e}"),
            PlanarError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            PlanarError::EmptyDataset => write!(f, "dataset must contain at least one point"),
            PlanarError::EmptyDomain { axis } => write!(f, "empty parameter domain on axis {axis}"),
            PlanarError::DomainContainsZero { axis } => {
                write!(f, "parameter domain on axis {axis} contains zero")
            }
            PlanarError::InvalidBudget => write!(f, "index budget must be at least 1"),
            PlanarError::NotFinite => write!(f, "value must be finite"),
            PlanarError::InvalidQuery(reason) => write!(f, "invalid query: {reason}"),
            PlanarError::PointNotFound(id) => write!(f, "no point with id {id}"),
            PlanarError::KNotPositive => write!(f, "k must be at least 1"),
            PlanarError::Persist(msg) => write!(f, "persistence error: {msg}"),
            PlanarError::Internal(msg) => write!(f, "internal error: {msg}"),
            PlanarError::ReplicaLag { required, applied } => write!(
                f,
                "replica lag: read required lsn {required} but only {applied} is applied"
            ),
            PlanarError::Fenced { term, observed } => write!(
                f,
                "fenced: this node's term {term} was deposed by term {observed}"
            ),
            PlanarError::QuorumTimeout {
                lsn,
                required,
                frontier,
            } => write!(
                f,
                "quorum timeout: lsn {lsn} durable locally but only confirmed up to \
                 {frontier} by the {required} required replica(s)"
            ),
        }
    }
}

impl std::error::Error for PlanarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanarError::Geom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for PlanarError {
    fn from(e: GeomError) -> Self {
        PlanarError::Geom(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = core::result::Result<T, PlanarError>;
