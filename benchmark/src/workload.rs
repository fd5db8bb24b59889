//! The three workloads and the inputs each one generates from `--seed`.
//!
//! All workloads use the paper's §7.1 synthetic *Independent* rows
//! (d = 8, range 1–100), a 4-shard `PilotKeyRange` engine with 16 indices
//! per shard, and a pool of Eq. 18 queries (RQ = 4, s = 0.25, `≤`). They
//! differ in what they stress:
//!
//! * `select_1m` — n = 1M inequality queries: the paper's headline query at
//!   paper scale. The working set (~415 MB) is far larger than the L3, and
//!   interval verification dominates, so kernel, pruning and selection
//!   changes show while serve-path changes should not.
//! * `topk_hot` — n = 100k top-k (k = 10) on the same predicates: short
//!   requests over a cache-resident set, where decode, admission, batcher
//!   handoff, encode, Algorithm 2 and `merge_top_k` are a large share.
//! * `mixed_rw` — n = 100k inequality reads beside an open-loop writer on
//!   the durable engine, from a second CPU when the host has one (see
//!   `host`): the only workload that runs the WAL, group commit,
//!   epoch publish and recovery. At n = 200k its ~80 MB working set sat at
//!   the edge of the L3 the host shares with its neighbours, and its runs
//!   spread almost twice as widely as at 100k.

use planar_core::{FeatureTable, InequalityQuery};
use planar_datagen::queries::Eq18Generator;
use planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar_serve::Request;

/// Feature dimensionality.
pub const DIM: usize = 8;
/// Query randomness RQ of the Eq. 18 template.
pub const RQ: usize = 4;
/// Inequality parameter `s` of the Eq. 18 template.
pub const SELECTIVITY: f64 = 0.25;
/// Planar indices per shard.
pub const BUDGET: usize = 16;
/// Shards of the served engine.
pub const SHARDS: usize = 4;
/// Query pool size; the read loops cycle through it in order.
pub const POOL: usize = 512;
/// Neighbors requested by `topk_hot`.
pub const TOP_K: u32 = 10;
/// Engine threads per batch. The reference host has 2 vCPUs; the engine
/// keeps its 2-thread configuration even though the benchmark pins the
/// served path to one of them, so its parallel dispatch still runs.
pub const THREADS: usize = 2;
/// Open-loop write rate of `mixed_rw`. A write takes ~0.5 ms at the median
/// (apply plus its own fsync on a virtio ext4 volume) and every 64th also
/// clones the set to publish (~11 ms at n = 100k), so the writer is busy
/// about 15% of the time and keeps its schedule.
pub const WRITES_PER_S: f64 = 200.0;
/// Staged mutations per epoch publish on the durable engine.
pub const PUBLISH_EVERY: usize = 64;
/// Lower bound of every coordinate the writer inserts or updates to. A pool
/// query accepts `Σ aᵢxᵢ ≤ s·Σ aᵢ·maxᵢ` with `aᵢ ≥ 1` and `maxᵢ ≤ 100`, so a
/// row with every `xᵢ ≥ 26 > s·100` matches no pool query. The writer only
/// touches such rows, which keeps every canonical answer exact while it runs.
pub const NEUTRAL_MIN: f64 = 26.0;

/// Seed of the query pool's normals. It stays fixed, like the index
/// normals: drawn from `--seed`, the pool's mean work moved by ±7% from
/// seed to seed (scalar products per query over 128 replayed queries), a
/// spread that is the workload's sample of queries rather than the
/// program. With it fixed, the rows alone move that work by ±0.5%.
const QUERY_SEED: u64 = 0x51E7_0F0E;
const SPARE_SALT: u64 = 0x5BA2_E000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Inequality queries at paper scale.
    Select1m,
    /// Top-k queries over a cache-resident set.
    TopkHot,
    /// Inequality reads beside durable writes.
    MixedRw,
}

/// Which request the read loop sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `⟨a, x⟩ ≤ b` (paper Problem 1).
    Select,
    /// The `TOP_K` satisfying rows nearest the hyperplane (Problem 2).
    TopK,
}

/// Size and shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Rows the engine is built from.
    pub rows: usize,
    /// Pre-generated rows the writer inserts or updates to.
    pub spare_rows: usize,
    /// Request the read loop sends.
    pub read: ReadKind,
    /// Open-loop write rate (mutations per second); 0 for read-only
    /// workloads, which serve the in-memory engine instead of the durable
    /// one.
    pub writes_per_s: f64,
    /// Back-to-back set-ups per run; `setup_s` is their median, because
    /// the first set-up in a process pays extra page faults and one short
    /// set-up is at the mercy of a single stall.
    pub setups: usize,
}

impl Params {
    /// Whether this workload serves the durable engine.
    pub fn durable(&self) -> bool {
        self.writes_per_s > 0.0
    }
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Select1m, Workload::TopkHot, Workload::MixedRw];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Select1m => "select_1m",
            Workload::TopkHot => "topk_hot",
            Workload::MixedRw => "mixed_rw",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes for a measured run, or for a `--smoke` run (n = 20k).
    pub fn params(self, smoke: bool) -> Params {
        let (rows, spare_rows, read, writes_per_s, setups) = match self {
            Workload::Select1m => (1_000_000, 0, ReadKind::Select, 0.0, 3),
            Workload::TopkHot => (100_000, 0, ReadKind::TopK, 0.0, 15),
            Workload::MixedRw => (100_000, 40_000, ReadKind::Select, WRITES_PER_S, 5),
        };
        if smoke {
            Params {
                rows: 20_000,
                spare_rows: spare_rows / 10,
                read,
                writes_per_s,
                setups: 3,
            }
        } else {
            Params {
                rows,
                spare_rows,
                read,
                writes_per_s,
                setups,
            }
        }
    }
}

/// Everything a run feeds the program: the rows and the mutation stream
/// come from the seed, the query normals from [`QUERY_SEED`].
pub struct Inputs {
    /// The seed the inputs came from; it also seeds the mutation stream.
    pub seed: u64,
    /// Rows the engine is built from (global id = row position).
    pub table: FeatureTable,
    /// Rows the writer inserts or updates to; every coordinate ≥
    /// [`NEUTRAL_MIN`].
    pub spare: FeatureTable,
    /// The query pool.
    pub queries: Vec<InequalityQuery>,
    /// The pool as wire requests of the workload's read kind.
    pub requests: Vec<Request>,
}

impl Inputs {
    /// Generate the inputs of a workload with these parameters.
    pub fn generate(p: &Params, seed: u64) -> Inputs {
        let mut rows = SyntheticConfig::paper(SyntheticKind::Independent, p.rows, DIM);
        rows.seed ^= seed;
        let spare = SyntheticConfig {
            n: p.spare_rows,
            lo: NEUTRAL_MIN,
            seed: rows.seed ^ SPARE_SALT,
            ..rows.clone()
        }
        .generate();
        let table = rows.generate();
        let queries = Eq18Generator::new(&table, RQ, QUERY_SEED)
            .with_inequality_parameter(SELECTIVITY)
            .queries(POOL);
        let requests = queries.iter().map(|q| request(q, p.read)).collect();
        Inputs {
            seed,
            table,
            spare,
            queries,
            requests,
        }
    }
}

/// The wire request for a pool query.
fn request(q: &InequalityQuery, read: ReadKind) -> Request {
    let (a, cmp, b) = (q.a().to_vec(), q.cmp(), q.b());
    match read {
        ReadKind::Select => Request::Query {
            tenant: 0,
            deadline_us: 0,
            a,
            cmp,
            b,
        },
        ReadKind::TopK => Request::TopK {
            tenant: 0,
            deadline_us: 0,
            a,
            cmp,
            b,
            k: TOP_K,
        },
    }
}
