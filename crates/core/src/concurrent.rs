//! Epoch-based snapshot isolation: **concurrent readers under a single
//! writer**, without reader locks on the query path.
//!
//! [`ShardedIndexSet`] answers queries through `&self` but mutates
//! through `&mut self` — correct, but reader-excluding: a process serving
//! a mixed read/write workload would serialize query batches behind every
//! mutation. [`ConcurrentShardedIndexSet`] converts the mutation path into
//! an **epoch scheme**:
//!
//! * the published state lives in an [`EpochCell`] as an immutable
//!   `Arc<ShardedIndexSet>`; readers call
//!   [`ConcurrentShardedIndexSet::snapshot`] — one brief `RwLock` read and
//!   an `Arc` clone — and then run `query_batch`/`top_k_batch` against
//!   the snapshot with **no further synchronization**, for as long as
//!   they like;
//! * a single writer (serialized by an internal mutex, so any thread may
//!   call the mutation methods) applies mutations to a **staged copy**
//!   and *publishes* a new epoch atomically — a pointer swap under a
//!   write lock held for nanoseconds;
//! * retired epochs park on a reclamation list until the last reader
//!   pins drop — a **grace period** enforced by `Arc` reference counts,
//!   observable through [`EpochStats`].
//!
//! Readers pinned to epoch *E* never observe a mutation from epoch
//! *E + 1*: an answer computed against a snapshot is bit-identical to
//! single-threaded execution against the state at publish time (the
//! proptests in `tests/concurrent_proptests.rs` hold this across random
//! interleavings).
//!
//! [`ConcurrentDurableShardedIndexSet`] is that same engine plus the
//! shard logs: one **group-commit** write-ahead log per shard
//! (`core::wal::GroupCommitQueue`). Mutations from any number of threads
//! append to their shard's commit queue, one leader fsyncs for the whole
//! group, and every waiter is acknowledged by that single fsync —
//! collapsing the `FsyncPolicy::Always` latency curve toward `EveryN(64)`
//! while preserving "acknowledged ⇒ durable". A one-shard set
//! (`ShardConfig::round_robin(1)`) is the unsharded engine.
//!
//! ```
//! use planar_core::concurrent::{ConcurrencyConfig, ConcurrentShardedIndexSet};
//! use planar_core::{Cmp, FeatureTable, IndexConfig, InequalityQuery, ParameterDomain,
//!                   ShardConfig, ShardedIndexSet};
//!
//! let table = FeatureTable::from_rows(2, vec![vec![1.0, 1.0], vec![4.0, 2.0]]).unwrap();
//! let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
//! let set: ShardedIndexSet = ShardedIndexSet::build(
//!     table, domain, IndexConfig::with_budget(4), ShardConfig::round_robin(1),
//! ).unwrap();
//! let conc = ConcurrentShardedIndexSet::new(set, ConcurrencyConfig::default());
//!
//! let snap = conc.snapshot();              // readers pin an epoch…
//! conc.insert_point(&[9.0, 9.0]).unwrap(); // …while a writer publishes the next
//! let q = InequalityQuery::new(vec![1.0, 2.0], Cmp::Leq, 9.0).unwrap();
//! assert_eq!(snap.len(), 2);               // the pinned epoch is frozen
//! assert_eq!(conc.snapshot().len(), 3);    // a fresh pin sees the mutation
//! assert!(snap.query(&q).is_ok());
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use crate::fault::StdIo;
use crate::persist::{atomic_save, SaveOptions, ShardedRecoveryReport};
use crate::quant::{QuantAutotuneConfig, QuantTier};
use crate::shard::ShardedIndexSet;
use crate::store::{KeyStore, VecStore};
use crate::table::PointId;
use crate::wal::{
    enqueue_all, ensure_fresh_dir, read_manifest, shard_wal_dir, snapshot_path, sweep_snapshots,
    validate_row, walerr, write_manifest, FsyncPolicy, GroupCommitQueue, GroupCommitStats, Lsn,
    Manifest, Mutation, MutationAck, QuorumGate, WalHealth, WalOptions, WalRecord, WalWriter,
};
use crate::{PlanarError, Result};

// ---------------------------------------------------------------------------
// Epoch cell
// ---------------------------------------------------------------------------

/// Tuning for the epoch publish cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrencyConfig {
    /// Publish a new epoch after this many staged mutations (default 1:
    /// every mutation is immediately visible to new snapshots). Larger
    /// values amortize the staged-copy clone that each publish takes, at
    /// the cost of bounded snapshot staleness; batch mutations
    /// ([`ConcurrentShardedIndexSet::apply_batch`]) always publish at the
    /// end of the batch.
    pub publish_every: usize,
}

impl Default for ConcurrencyConfig {
    fn default() -> Self {
        Self { publish_every: 1 }
    }
}

impl ConcurrencyConfig {
    /// Set the publish cadence (clamped to ≥ 1).
    pub fn publish_every(mut self, n: usize) -> Self {
        self.publish_every = n.max(1);
        self
    }
}

#[derive(Debug)]
struct Versioned<T> {
    epoch: u64,
    value: T,
}

/// A read pin on one published epoch. Dereferences to the underlying set;
/// holding it keeps that epoch's state alive (and unreclaimed) for as
/// long as the reader needs it. Cheap to clone (an `Arc` bump).
#[derive(Debug)]
pub struct Snapshot<T> {
    inner: Arc<Versioned<T>>,
}

impl<T> Clone for Snapshot<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Snapshot<T> {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }
}

impl<T> std::ops::Deref for Snapshot<T> {
    type Target = T;

    fn deref(&self) -> &Self::Target {
        &self.inner.value
    }
}

/// Point-in-time epoch bookkeeping, stamped into [`crate::StatsSnapshot`]
/// via [`crate::StatsAggregator::record_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochStats {
    /// The currently published epoch.
    pub epoch: u64,
    /// Epochs published over the cell's lifetime.
    pub published: u64,
    /// Retired epochs still parked in their grace period (a reader pin
    /// keeps them alive).
    pub retired_live: usize,
    /// Retired epochs reclaimed after their grace period ended.
    pub reclaimed: u64,
    /// Copy-on-publish clones of the staged set over the cell's lifetime.
    /// Together with `clone_bytes`/`clone_micros` this measures the
    /// write-path ceiling: every publish deep-copies the whole set today,
    /// and a future dirty-shard republish must beat these numbers.
    pub clones: u64,
    /// Heap bytes deep-copied by those clones (the staged set's reported
    /// memory usage at clone time).
    pub clone_bytes: u64,
    /// Wall-clock microseconds spent inside those clones.
    pub clone_micros: u64,
}

/// The publish/retire/reclaim core: an atomically swappable `Arc` plus a
/// grace-period list of retired epochs.
///
/// `load` is a brief `RwLock` read (many readers proceed in parallel and
/// are never blocked by a publish in progress — publishes hold the write
/// lock only for the pointer swap). Retired epochs are reclaimed once
/// their `Arc` strong count shows no outstanding reader pins.
#[derive(Debug)]
pub struct EpochCell<T> {
    current: RwLock<Arc<Versioned<T>>>,
    retired: Mutex<Vec<Arc<Versioned<T>>>>,
    published: AtomicU64,
    reclaimed: AtomicU64,
    clones: AtomicU64,
    clone_bytes: AtomicU64,
    clone_nanos: AtomicU64,
}

impl<T> EpochCell<T> {
    /// Wrap `value` as epoch 1.
    pub fn new(value: T) -> Self {
        Self {
            current: RwLock::new(Arc::new(Versioned { epoch: 1, value })),
            retired: Mutex::new(Vec::new()),
            published: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            clones: AtomicU64::new(0),
            clone_bytes: AtomicU64::new(0),
            clone_nanos: AtomicU64::new(0),
        }
    }

    /// Record one copy-on-publish clone's cost (called by the engine,
    /// which knows how to measure its set's heap footprint).
    pub fn record_clone(&self, bytes: usize, elapsed: std::time::Duration) {
        self.clones.fetch_add(1, Ordering::Relaxed);
        self.clone_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.clone_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    fn read_current(&self) -> Arc<Versioned<T>> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Pin the current epoch.
    pub fn load(&self) -> Snapshot<T> {
        Snapshot {
            inner: self.read_current(),
        }
    }

    /// Publish `value` as the next epoch: swap the pointer, retire the
    /// previous epoch into its grace period, and opportunistically reclaim
    /// anything whose grace period already ended. Returns the new epoch.
    pub fn publish(&self, value: T) -> u64 {
        let old = {
            let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
            let epoch = cur.epoch + 1;
            std::mem::replace(&mut *cur, Arc::new(Versioned { epoch, value }))
        };
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut retired = self.retired.lock().unwrap_or_else(|e| e.into_inner());
        retired.push(old);
        self.reclaim_locked(&mut retired);
        self.current.read().unwrap_or_else(|e| e.into_inner()).epoch
    }

    fn reclaim_locked(&self, retired: &mut Vec<Arc<Versioned<T>>>) -> usize {
        let before = retired.len();
        // A strong count of 1 means the retire list holds the only
        // reference: no reader can mint a new pin from it (pins come only
        // from `current`), so the grace period is over and dropping it
        // here frees the epoch.
        retired.retain(|arc| Arc::strong_count(arc) > 1);
        let freed = before - retired.len();
        self.reclaimed.fetch_add(freed as u64, Ordering::Relaxed);
        freed
    }

    /// Sweep the retired list now, returning how many epochs were freed.
    /// (Publishes sweep opportunistically; this is for quiescent periods.)
    pub fn reclaim(&self) -> usize {
        let mut retired = self.retired.lock().unwrap_or_else(|e| e.into_inner());
        self.reclaim_locked(&mut retired)
    }

    /// Current epoch bookkeeping.
    pub fn stats(&self) -> EpochStats {
        let retired_live = self.retired.lock().unwrap_or_else(|e| e.into_inner()).len();
        EpochStats {
            epoch: self.read_current().epoch,
            published: self.published.load(Ordering::Relaxed),
            retired_live,
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            clones: self.clones.load(Ordering::Relaxed),
            clone_bytes: self.clone_bytes.load(Ordering::Relaxed),
            clone_micros: self.clone_nanos.load(Ordering::Relaxed) / 1_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrent engine (in-memory)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Staged<S: KeyStore + Clone> {
    set: ShardedIndexSet<S>,
    dirty: usize,
}

/// When a writer-side operation makes its result visible to readers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Publish {
    /// Count this many staged mutations toward
    /// [`ConcurrencyConfig::publish_every`].
    Cadence(usize),
    /// Publish one epoch now.
    Now,
}

/// A [`ShardedIndexSet`] behind an [`EpochCell`]: lock-free snapshot reads
/// from any number of threads, mutations from any thread serialized by an
/// internal writer mutex. See the module docs for the epoch lifecycle.
/// This is the only owner of the epoch cell, the staged writer, and the
/// publish cadence; the durable engine adds its shard logs on top.
#[derive(Debug)]
pub struct ConcurrentShardedIndexSet<S: KeyStore + Clone = VecStore> {
    cell: EpochCell<ShardedIndexSet<S>>,
    writer: Mutex<Staged<S>>,
    publish_every: usize,
}

impl<S: KeyStore + Clone> ConcurrentShardedIndexSet<S> {
    /// Wrap `set` for concurrent serving.
    pub fn new(set: ShardedIndexSet<S>, cfg: ConcurrencyConfig) -> Self {
        let staged = set.clone();
        Self {
            cell: EpochCell::new(set),
            writer: Mutex::new(Staged {
                set: staged,
                dirty: 0,
            }),
            publish_every: cfg.publish_every.max(1),
        }
    }

    fn lock_writer(&self) -> MutexGuard<'_, Staged<S>> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deep-copy the staged set into a new epoch, charging the clone's
    /// bytes and wall-clock cost to the cell's ledger (see
    /// [`EpochStats::clones`]).
    fn publish_staged(&self, w: &mut Staged<S>) -> u64 {
        let bytes = w.set.memory_usage();
        let start = Instant::now();
        let copy = w.set.clone();
        self.cell.record_clone(bytes, start.elapsed());
        w.dirty = 0;
        self.cell.publish(copy)
    }

    /// Run `f` on the staged set under the writer lock, then publish as
    /// `when` says. Nothing is counted or published when `f` fails. The
    /// durable engine logs inside `f`, which keeps LSN order equal to
    /// apply order.
    pub(crate) fn write<T>(
        &self,
        when: Publish,
        f: impl FnOnce(&mut ShardedIndexSet<S>) -> Result<T>,
    ) -> Result<T> {
        let mut w = self.lock_writer();
        let out = f(&mut w.set)?;
        match when {
            Publish::Cadence(n) => {
                w.dirty += n;
                if w.dirty >= self.publish_every {
                    self.publish_staged(&mut w);
                }
            }
            Publish::Now => {
                self.publish_staged(&mut w);
            }
        }
        Ok(out)
    }

    /// Pin the current epoch for reading. Queries on the snapshot are the
    /// plain [`ShardedIndexSet`] API (`query`, `query_batch`,
    /// `top_k_batch`, …) and run with no synchronization whatsoever.
    pub fn snapshot(&self) -> Snapshot<ShardedIndexSet<S>> {
        self.cell.load()
    }

    /// Serialized insert routed by the partitioner; publishes per
    /// [`ConcurrencyConfig::publish_every`].
    ///
    /// # Errors
    ///
    /// See [`ShardedIndexSet::insert_point`].
    pub fn insert_point(&self, row: &[f64]) -> Result<PointId> {
        self.write(Publish::Cadence(1), |set| set.insert_point(row))
    }

    /// Serialized update. See [`ShardedIndexSet::update_point`].
    ///
    /// # Errors
    ///
    /// See [`ShardedIndexSet::update_point`].
    pub fn update_point(&self, id: PointId, row: &[f64]) -> Result<()> {
        self.write(Publish::Cadence(1), |set| set.update_point(id, row))
    }

    /// Serialized delete. See [`ShardedIndexSet::delete_point`].
    ///
    /// # Errors
    ///
    /// See [`ShardedIndexSet::delete_point`].
    pub fn delete_point(&self, id: PointId) -> Result<()> {
        self.write(Publish::Cadence(1), |set| set.delete_point(id))
    }

    /// Apply a whole mutation batch under one writer-lock acquisition and
    /// publish exactly one epoch at the end, so readers observe the batch
    /// atomically. Returns per-mutation acks in batch order.
    ///
    /// # Errors
    ///
    /// Validation errors before anything is applied (the batch is
    /// all-or-nothing against the staged copy).
    pub fn apply_batch(&self, muts: &[Mutation]) -> Result<Vec<MutationAck>> {
        if muts.is_empty() {
            return Ok(Vec::new());
        }
        self.write(Publish::Now, |set| {
            let routed = route_batch(set, muts)?;
            routed
                .iter()
                .map(|(shard, rec)| apply_routed(set, *shard, 0, rec))
                .collect()
        })
    }

    /// Serialized threshold-gated compaction; always publishes. See
    /// [`ShardedIndexSet::compact`].
    pub fn compact(&self, threshold: f64) -> Vec<usize> {
        let mut w = self.lock_writer();
        let compacted = w.set.compact(threshold);
        self.publish_staged(&mut w);
        compacted
    }

    /// Per-shard quantization tiers on the staged writer state (the next
    /// publish carries them to readers).
    pub fn quant_tiers(&self) -> Vec<QuantTier> {
        self.lock_writer().set.quant_tiers()
    }

    /// Switch the quantized tier on or off on every shard; always
    /// publishes so readers get the encoded mirror immediately.
    pub fn set_quant_tier(&self, tier: QuantTier) {
        let mut w = self.lock_writer();
        w.set.set_quant_tier(tier);
        self.publish_staged(&mut w);
    }

    /// Apply the size rule to every shard (see
    /// [`ShardedIndexSet::retune_quantization`]) and publish. Returns the
    /// tier now active per shard.
    pub fn retune_quantization(&self) -> Vec<QuantTier> {
        let mut w = self.lock_writer();
        let tiers = w.set.retune_quantization(&QuantAutotuneConfig::default());
        self.publish_staged(&mut w);
        tiers
    }

    /// Publish the staged state now, regardless of the dirty counter.
    /// Returns the published epoch.
    pub fn publish(&self) -> u64 {
        self.publish_staged(&mut self.lock_writer())
    }

    /// Sweep retired epochs whose grace period ended.
    pub fn reclaim(&self) -> usize {
        self.cell.reclaim()
    }

    /// Epoch bookkeeping (publish count, grace-period population).
    pub fn epoch_stats(&self) -> EpochStats {
        self.cell.stats()
    }
}

/// Validate a mutation batch against the live set it will see and route
/// each mutation to its shard, so that once records are logged every
/// apply is infallible: inserts are assigned global ids
/// `next_global, next_global + 1, …`, and updates/deletes may target both
/// pre-existing live points and points born (and not yet deleted) earlier
/// in the same batch.
fn route_batch<S: KeyStore + Clone>(
    set: &ShardedIndexSet<S>,
    muts: &[Mutation],
) -> Result<Vec<(usize, WalRecord)>> {
    let mut born: Vec<(PointId, usize)> = Vec::new();
    let mut killed: Vec<PointId> = Vec::new();
    let shard_of = |id: PointId, born: &[(PointId, usize)], killed: &[PointId]| {
        if killed.contains(&id) {
            return Err(PlanarError::PointNotFound(id));
        }
        match born.iter().find(|&&(b, _)| b == id) {
            Some(&(_, shard)) => Ok(shard),
            None => set.shard_of(id).ok_or(PlanarError::PointNotFound(id)),
        }
    };
    let mut next = set.next_global();
    let mut routed = Vec::with_capacity(muts.len());
    for m in muts {
        match m {
            Mutation::Insert { row } => {
                validate_row(set.dim(), row)?;
                let shard = set.partitioner().route(next, row);
                routed.push((
                    shard,
                    WalRecord::Insert {
                        id: next,
                        row: row.clone(),
                    },
                ));
                born.push((next, shard));
                next += 1;
            }
            Mutation::Update { id, row } => {
                validate_row(set.dim(), row)?;
                let shard = shard_of(*id, &born, &killed)?;
                routed.push((
                    shard,
                    WalRecord::Update {
                        id: *id,
                        row: row.clone(),
                    },
                ));
            }
            Mutation::Delete { id } => {
                let shard = shard_of(*id, &born, &killed)?;
                routed.push((shard, WalRecord::Delete { id: *id }));
                killed.push(*id);
            }
        }
    }
    Ok(routed)
}

/// Apply one routed point mutation to the staged set with the function
/// recovery and replicas use ([`ShardedIndexSet::replay_record`]; `lsn`
/// only labels a divergence, 0 when nothing is logged) and acknowledge
/// it. Routing assigned the id and validated the mutation, so a failure
/// here is an internal error, never a user error.
fn apply_routed<S: KeyStore + Clone>(
    set: &mut ShardedIndexSet<S>,
    shard: usize,
    lsn: Lsn,
    rec: &WalRecord,
) -> Result<MutationAck> {
    let ack = match rec {
        WalRecord::Insert { id, .. } => MutationAck::Inserted(*id),
        WalRecord::Update { .. } => MutationAck::Updated,
        WalRecord::Delete { .. } => MutationAck::Deleted,
        _ => {
            return Err(PlanarError::Internal(
                "only point mutations are routed".into(),
            ))
        }
    };
    set.replay_record(shard, lsn, rec)
        .map_err(|e| PlanarError::Internal(format!("routed mutation failed to apply: {e}")))?;
    Ok(ack)
}

// ---------------------------------------------------------------------------
// Concurrent durable engine: the engine above plus per-shard group commit
// ---------------------------------------------------------------------------

/// The log position. Locked only inside the engine's writer closure, so
/// the lock order is always writer → log and this lock never contends.
#[derive(Debug)]
struct LogState {
    next_lsn: Lsn,
    generation: u64,
}

/// [`ConcurrentShardedIndexSet`] plus the shard logs: epoch snapshot reads
/// with **one group-commit queue per shard WAL**, a durable directory, a
/// checkpoint generation, and an fsync policy.
///
/// Mutations may be issued from any number of threads through `&self`.
/// Each one is write-ahead logged into its shard's commit queue, applied
/// to the staged copy, and — under [`FsyncPolicy::Always`] — acknowledged
/// only once a commit-group leader's fsync covers its LSN. Mutations
/// routed to different shards commit through independent queues
/// (independent fsync leaders); mutations hitting the same shard share
/// commit groups. The global LSN order is assigned under the engine's one
/// writer mutex, so recovery's cross-shard replay order is exactly the
/// acknowledged order. A replica (`crate::replicate`) is this same
/// engine, fed shipped records at the LSNs its primary assigned.
///
/// On disk: `CHECKPOINT` (the manifest), `snapshot-N.plnr` (the
/// `PLNRSHD2` snapshot of generation N), and `wal/shard-NNNN/` (each
/// shard's segments).
#[derive(Debug)]
pub struct ConcurrentDurableShardedIndexSet<S: KeyStore + Clone = VecStore> {
    engine: ConcurrentShardedIndexSet<S>,
    log: Mutex<LogState>,
    queues: Vec<GroupCommitQueue>,
    dir: PathBuf,
    fsync: FsyncPolicy,
}

/// `OnCheckpoint` group mode still writes (without fsync) once this many
/// records are queued, so the in-memory commit queue stays bounded.
const LAZY_FLUSH_RECORDS: u64 = 512;

impl<S: KeyStore + Clone> ConcurrentDurableShardedIndexSet<S> {
    /// Initialize `dir` as a durable home for `set` — snapshot generation
    /// 1, the manifest at watermark 0, and one empty WAL per shard — and
    /// wrap it for concurrent serving.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on I/O failure, if `dir` already holds a
    /// durable index, or if it holds WAL remnants without a manifest.
    pub fn create(
        dir: impl AsRef<Path>,
        set: ShardedIndexSet<S>,
        opts: WalOptions,
        cfg: ConcurrencyConfig,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        ensure_fresh_dir(dir)?;
        set.save_to(snapshot_path(dir, 1))?;
        let m = Manifest {
            generation: 1,
            watermark: 0,
            term: 0,
        };
        Self::lay_out(dir, set, m, opts, cfg)
    }

    /// Replication seed: install `bytes`, the primary's checkpoint image
    /// that the caller has already decoded into `set`, as snapshot
    /// generation `m.generation` of `dir`, and lay the directory out
    /// around it. A replica's durable engine starts here.
    pub(crate) fn seed(
        dir: &Path,
        set: ShardedIndexSet<S>,
        bytes: &[u8],
        m: Manifest,
        opts: WalOptions,
    ) -> Result<Self> {
        fs::create_dir_all(dir).map_err(|e| walerr(format!("create durable dir: {e}")))?;
        let path = snapshot_path(dir, m.generation);
        atomic_save(bytes, &path, &mut StdIo, &SaveOptions::default())?;
        Self::lay_out(dir, set, m, opts, ConcurrencyConfig::default())
    }

    /// The one durable directory layout around a snapshot already on
    /// disk: publish the manifest `m`, start every shard log empty at
    /// `m.watermark + 1` under `m.term` (dropping any older log), sweep
    /// superseded snapshot generations, and wrap `set` for concurrent
    /// serving.
    fn lay_out(
        dir: &Path,
        set: ShardedIndexSet<S>,
        m: Manifest,
        opts: WalOptions,
        cfg: ConcurrencyConfig,
    ) -> Result<Self> {
        write_manifest(dir, m)?;
        let wals = (0..set.num_shards())
            .map(|shard| {
                let wal_dir = shard_wal_dir(dir, shard);
                if wal_dir.exists() {
                    fs::remove_dir_all(&wal_dir)
                        .map_err(|e| walerr(format!("reset shard log: {e}")))?;
                }
                let (mut wal, _) = WalWriter::open_repair(&wal_dir, opts)?;
                wal.set_term(m.term);
                wal.truncate_all(m.watermark + 1)?;
                Ok(wal)
            })
            .collect::<Result<Vec<_>>>()?;
        sweep_snapshots(dir, m.generation);
        Ok(Self::assemble(
            set,
            cfg,
            wals,
            dir,
            m.generation,
            m.watermark + 1,
        ))
    }

    /// Open a durable directory: load the newest valid sharded snapshot
    /// ([`ShardedIndexSet::load_or_recover`] semantics), repair every
    /// shard's WAL tail, replay each shard's records above the manifest's
    /// LSN watermark, and wrap the result for concurrent serving. The
    /// report carries snapshot and replay provenance; its
    /// `shard_watermarks` give each shard's last applied LSN. Torn tails
    /// are truncated and reported — never an error.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] if the directory was never initialized
    /// ([`Self::create`]), on real I/O failures, on replay divergence, or
    /// if the snapshot core itself is unrecoverable.
    pub fn open(
        dir: impl AsRef<Path>,
        opts: WalOptions,
        cfg: ConcurrencyConfig,
    ) -> Result<(Self, ShardedRecoveryReport)> {
        let dir = dir.as_ref();
        let m = read_manifest(dir)?;
        let (mut set, mut report) =
            ShardedIndexSet::<S>::load_or_recover(snapshot_path(dir, m.generation))?;
        let shards = set.num_shards();
        let mut wals = Vec::with_capacity(shards);
        let mut watermarks = vec![m.watermark; shards];
        let mut max_lsn = m.watermark;
        for (shard, watermark) in watermarks.iter_mut().enumerate() {
            let (mut wal, scan) = WalWriter::open_repair(&shard_wal_dir(dir, shard), opts)?;
            // The manifest carries the authoritative replication term;
            // adopt it if it is ahead of anything the segments carry.
            wal.set_term(m.term);
            for (lsn, rec) in scan.frames.iter().filter(|(lsn, _)| *lsn > m.watermark) {
                set.replay_record(shard, *lsn, rec)?;
                *watermark = *lsn;
                report.wal_replayed += 1;
            }
            report.wal_dropped += scan.dropped_records;
            report.wal_torn_bytes += scan.torn_bytes;
            max_lsn = max_lsn.max(wal.health().last_lsn).max(*watermark);
            wals.push(wal);
        }
        report.shard_watermarks = watermarks;
        sweep_snapshots(dir, m.generation);
        let durable = Self::assemble(set, cfg, wals, dir, m.generation, max_lsn + 1);
        Ok((durable, report))
    }

    /// Put a set and its shard logs together. The caller guarantees they
    /// agree: `set` is exactly the replay of `wals` over snapshot
    /// `generation` in `dir`, and `next_lsn` is above every logged LSN.
    fn assemble(
        set: ShardedIndexSet<S>,
        cfg: ConcurrencyConfig,
        wals: Vec<WalWriter>,
        dir: &Path,
        generation: u64,
        next_lsn: Lsn,
    ) -> Self {
        let fsync = wals
            .first()
            .map(|w| w.options().fsync)
            .unwrap_or(FsyncPolicy::Always);
        Self {
            engine: ConcurrentShardedIndexSet::new(set, cfg),
            log: Mutex::new(LogState {
                next_lsn,
                generation,
            }),
            queues: wals.into_iter().map(GroupCommitQueue::new).collect(),
            dir: dir.to_path_buf(),
            fsync,
        }
    }

    /// Change the publish cadence (promotion gives a replica's engine the
    /// primary's cadence).
    pub(crate) fn with_config(mut self, cfg: ConcurrencyConfig) -> Self {
        self.engine.publish_every = cfg.publish_every.max(1);
        self
    }

    fn lock_log(&self) -> MutexGuard<'_, LogState> {
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Log the `(shard, lsn, record)` entries `entries` builds from the
    /// next free LSN; the next free LSN then follows the last entry. The
    /// enqueue is all-or-nothing across shards, and the LSN advances only
    /// when it succeeds, so no queue ever holds a record the staged set
    /// does not apply. Called inside the engine's writer closure. Returns
    /// the first LSN.
    fn log(
        &self,
        entries: impl FnOnce(Lsn) -> Result<Vec<(usize, Lsn, WalRecord)>>,
    ) -> Result<Lsn> {
        let mut log = self.lock_log();
        let first = log.next_lsn;
        let entries = entries(first)?;
        if let Some(&(_, last, _)) = entries.last() {
            enqueue_all(&self.queues, entries)?;
            log.next_lsn = last + 1;
        }
        Ok(first)
    }

    /// Log one record on every shard at a single shared LSN (compaction
    /// and checkpoint markers: each shard's replay acts on its own part).
    fn log_everywhere(&self, rec: impl Fn(Lsn) -> WalRecord) -> Result<Lsn> {
        self.log(|lsn| {
            Ok((0..self.queues.len())
                .map(|shard| (shard, lsn, rec(lsn)))
                .collect())
        })
    }

    /// Replication apply: log shipped `(shard, lsn, record)` entries at
    /// the LSNs the primary assigned, broadcast records already expanded
    /// to one entry per shard, through the shard commit queues; fsync
    /// each touched shard once; replay them with
    /// [`ShardedIndexSet::replay_record`]; publish one epoch. The entries
    /// must continue the log: LSNs ascend by one from the next free LSN,
    /// and only the copies of a broadcast record share one.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] if the entries do not continue the log or
    /// an append/fsync fails (nothing is applied), or on replay
    /// divergence (the staged copy may be mid-batch). A replica treats
    /// each as divergence and stops applying.
    pub(crate) fn apply_shipped(&self, entries: &[(usize, Lsn, WalRecord)]) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        self.engine.write(Publish::Now, |set| {
            self.log(|next| {
                let mut prev = next - 1;
                for (i, &(shard, lsn, _)) in entries.iter().enumerate() {
                    let broadcast_copy = i > 0 && lsn == prev;
                    if shard >= self.queues.len() || (lsn != prev + 1 && !broadcast_copy) {
                        return Err(walerr(format!(
                            "shipped lsn {lsn} on shard {shard} does not continue the log at {}",
                            prev + 1
                        )));
                    }
                    prev = lsn;
                }
                Ok(entries.to_vec())
            })?;
            let mut touched = vec![false; self.queues.len()];
            for &(shard, ..) in entries {
                touched[shard] = true;
            }
            for (queue, _) in self.queues.iter().zip(touched).filter(|(_, t)| *t) {
                queue.flush(true)?;
            }
            entries
                .iter()
                .try_for_each(|(shard, lsn, rec)| set.replay_record(*shard, *lsn, rec))
        })
    }

    /// Raise the replication term to `term` on every shard writer (the
    /// segments it creates from now on carry it) and in the manifest, the
    /// authoritative copy. A replica adopts a newer primary's term through
    /// this, and promotion bumps it.
    pub(crate) fn raise_term(&self, term: u64) -> Result<()> {
        self.engine.write(Publish::Cadence(0), |_| {
            for queue in &self.queues {
                queue.with_writer(|wal| {
                    wal.set_term(term);
                    Ok(())
                })?;
            }
            let m = read_manifest(&self.dir)?;
            write_manifest(
                &self.dir,
                Manifest {
                    term: m.term.max(term),
                    ..m
                },
            )
        })
    }

    /// Pin the current epoch for reading.
    pub fn snapshot(&self) -> Snapshot<ShardedIndexSet<S>> {
        self.engine.snapshot()
    }

    /// Install a replication [`QuorumGate`] on every shard's commit
    /// queue: `FsyncPolicy::Always` acknowledgements are then released
    /// only once the gate confirms the covering LSN (or fail typed with
    /// [`crate::PlanarError::QuorumTimeout`]). Installed by
    /// [`crate::replicate::Primary::set_ack_policy`]; the same gate
    /// instance must be the one the primary publishes replica
    /// confirmations into.
    pub fn install_quorum_gate(&self, gate: QuorumGate) {
        for q in &self.queues {
            q.set_gate(Some(gate.clone()));
        }
    }

    /// Remove any installed quorum gate: acknowledgements revert to
    /// local-durability-only.
    pub fn clear_quorum_gate(&self) {
        for q in &self.queues {
            q.set_gate(None);
        }
    }

    /// Acknowledge `lsn` on shard `shard` per the fsync policy: `Always`
    /// joins (or leads) a commit group and returns only once durable; the
    /// bounded-loss policies return immediately, flushing the queue when
    /// due.
    fn ack(&self, shard: usize, lsn: Lsn) -> Result<()> {
        let queue = &self.queues[shard];
        let due = match self.fsync {
            FsyncPolicy::Always => return queue.wait_durable(lsn),
            FsyncPolicy::EveryN(n) => u64::from(n.max(1)),
            FsyncPolicy::OnCheckpoint => LAZY_FLUSH_RECORDS,
        };
        if queue.ack_lag() >= due {
            queue.flush(false)?;
        }
        Ok(())
    }

    /// Validate, log, apply, and acknowledge point mutations: one LSN
    /// each, at most one acknowledgement wait per touched shard.
    fn commit(&self, when: Publish, muts: &[Mutation]) -> Result<Vec<MutationAck>> {
        let (acks, last) = self.engine.write(when, |set| {
            let routed = route_batch(set, muts)?;
            let first = self.log(|first| {
                Ok(routed
                    .iter()
                    .zip(first..)
                    .map(|((shard, rec), lsn)| (*shard, lsn, rec.clone()))
                    .collect())
            })?;
            let mut last: Vec<Option<Lsn>> = vec![None; self.queues.len()];
            for ((shard, _), lsn) in routed.iter().zip(first..) {
                last[*shard] = Some(lsn);
            }
            let acks = routed
                .iter()
                .zip(first..)
                .map(|((shard, rec), lsn)| apply_routed(set, *shard, lsn, rec))
                .collect::<Result<Vec<_>>>()?;
            Ok((acks, last))
        })?;
        for (shard, lsn) in last.iter().enumerate() {
            if let Some(lsn) = lsn {
                self.ack(shard, *lsn)?;
            }
        }
        Ok(acks)
    }

    /// Group-committed insert routed by the partitioner; the record lands
    /// in the target shard's WAL with the assigned global id. Under
    /// `Always` the returned id is durable.
    ///
    /// # Errors
    ///
    /// Row validation errors before logging, [`PlanarError::Persist`] if
    /// the commit group's append/fsync failed (the mutation is *not*
    /// acknowledged).
    pub fn insert_point(&self, row: &[f64]) -> Result<PointId> {
        let insert = Mutation::Insert { row: row.to_vec() };
        match self.commit(Publish::Cadence(1), &[insert])?[..] {
            [MutationAck::Inserted(id)] => Ok(id),
            _ => unreachable!("an insert acks as Inserted"),
        }
    }

    /// Group-committed update on the point's shard.
    ///
    /// # Errors
    ///
    /// As [`Self::insert_point`], plus [`PlanarError::PointNotFound`]
    /// (checked before logging).
    pub fn update_point(&self, id: PointId, row: &[f64]) -> Result<()> {
        let update = Mutation::Update {
            id,
            row: row.to_vec(),
        };
        self.commit(Publish::Cadence(1), &[update]).map(drop)
    }

    /// Group-committed delete on the point's shard.
    ///
    /// # Errors
    ///
    /// As [`Self::update_point`].
    pub fn delete_point(&self, id: PointId) -> Result<()> {
        self.commit(Publish::Cadence(1), &[Mutation::Delete { id }])
            .map(drop)
    }

    /// Group-committed mutation batch routed across shards: validated up
    /// front, logged contiguously in global LSN order, applied, published
    /// as one epoch, then acknowledged with at most one fsync **per
    /// touched shard**. This is the highest-throughput durable write path.
    ///
    /// # Errors
    ///
    /// Validation errors ([`PlanarError::DimensionMismatch`],
    /// [`PlanarError::NotFinite`], [`PlanarError::PointNotFound`]) before
    /// anything is logged; [`PlanarError::Persist`] if a shard's queue has
    /// fail-stopped (nothing is logged or applied) or a commit group's
    /// append/fsync fails (the batch is not acknowledged).
    pub fn apply_batch(&self, muts: &[Mutation]) -> Result<Vec<MutationAck>> {
        if muts.is_empty() {
            return Ok(Vec::new());
        }
        self.commit(Publish::Now, muts)
    }

    /// Log-then-compact under group commit: the marker is logged on
    /// **every** shard's queue at one shared LSN, then each shard whose
    /// tombstone fraction exceeds `threshold` compacts (see
    /// [`ShardedIndexSet::compact`]). Readers keep serving pinned epochs;
    /// the compacted state publishes immediately.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on append/fsync failure.
    pub fn compact(&self, threshold: f64) -> Result<Vec<usize>> {
        let (reclaimed, lsn) = self.engine.write(Publish::Now, |set| {
            let lsn = self.log_everywhere(|_| WalRecord::Compact {
                threshold: Some(threshold),
            })?;
            Ok((set.compact(threshold), lsn))
        })?;
        for shard in 0..self.queues.len() {
            self.ack(shard, lsn)?;
        }
        Ok(reclaimed)
    }

    /// Force every shard's queue to stable storage now, regardless of the
    /// fsync policy. Afterwards `wal_health()` shows
    /// `acked_lsn == appended_lsn`.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on append/fsync failure.
    pub fn sync(&self) -> Result<()> {
        self.queues.iter().try_for_each(|q| q.flush(true))
    }

    /// Checkpoint-then-truncate: log a `Checkpoint` marker on every shard,
    /// fsync every log, atomically write the next snapshot generation,
    /// publish it in the manifest, then delete the covered WAL segments.
    /// A crash at any point recovers to either the old or the new
    /// checkpoint, never in between. Mutations block for the duration;
    /// readers keep serving from pinned epochs. Returns the new watermark.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on I/O failure.
    pub fn checkpoint(&self) -> Result<Lsn> {
        // A checkpoint changes nothing readers see, so it publishes no
        // epoch.
        self.engine.write(Publish::Cadence(0), |set| {
            let watermark = self.log_everywhere(|lsn| WalRecord::Checkpoint { watermark: lsn })?;
            self.sync()?;
            // A checkpoint applies the quantization size rule, and the
            // snapshot below carries the tier. The tier is derived state,
            // so it needs no WAL record: replay without it yields
            // identical answers, just unfiltered.
            set.retune_quantization(&QuantAutotuneConfig::default());
            let mut log = self.lock_log();
            let generation = log.generation + 1;
            set.save_to(snapshot_path(&self.dir, generation))?;
            write_manifest(
                &self.dir,
                Manifest {
                    generation,
                    watermark,
                    term: self.term(),
                },
            )?;
            log.generation = generation;
            for queue in &self.queues {
                queue.with_writer(|wal| wal.truncate_all(watermark + 1))?;
            }
            sweep_snapshots(&self.dir, generation);
            Ok(watermark)
        })
    }

    /// Switch the quantized tier on or off on every shard; always
    /// publishes. Derived state — not WAL-logged, so a crash before the
    /// next checkpoint recovers with the tier from the last snapshot
    /// (answers are identical under any tier by contract).
    pub fn set_quant_tier(&self, tier: QuantTier) {
        self.engine.set_quant_tier(tier);
    }

    /// Per-shard quantization tiers on the staged writer state.
    pub fn quant_tiers(&self) -> Vec<QuantTier> {
        self.engine.quant_tiers()
    }

    /// Publish the staged state now. Returns the published epoch.
    pub fn publish(&self) -> u64 {
        self.engine.publish()
    }

    /// Sweep retired epochs whose grace period ended.
    pub fn reclaim(&self) -> usize {
        self.engine.reclaim()
    }

    /// Epoch bookkeeping.
    pub fn epoch_stats(&self) -> EpochStats {
        self.engine.epoch_stats()
    }

    /// Aggregate WAL health across every shard's queue, including the
    /// group-commit watermarks (`acked_lsn`/`appended_lsn`; the merge
    /// keeps the most conservative `acked_lsn`).
    pub fn wal_health(&self) -> WalHealth {
        let mut h = WalHealth::default();
        for queue in &self.queues {
            h.merge(&queue.health());
        }
        h
    }

    /// Group-commit amortization counters (fsyncs, records per fsync)
    /// summed across shards.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        let mut total = GroupCommitStats::default();
        for queue in &self.queues {
            let s = queue.stats();
            total.fsyncs += s.fsyncs;
            total.committed_records += s.committed_records;
            total.max_group = total.max_group.max(s.max_group);
        }
        total
    }

    /// Data fsyncs summed across every shard's WAL writer since opening —
    /// the denominator benchmarks divide by to report amortization.
    pub fn fsync_count(&self) -> u64 {
        self.queues.iter().map(GroupCommitQueue::fsync_count).sum()
    }

    /// Recover every shard's group-commit queue from a fail-stop
    /// append/fsync error: revalidate the log tail on disk, re-append any
    /// applied-but-undurable records the failed drain parked, and resume
    /// accepting mutations. Acks issued before the error still hold — they
    /// were covered by an fsync at ack time and reopen never truncates
    /// below the synced watermark. Healthy queues are untouched; the
    /// merged health keeps the most conservative acked watermark.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] if any shard's tail repair fails (that
    /// queue stays fail-stopped and can be reopened again).
    pub fn reopen_wal(&self) -> Result<WalHealth> {
        let mut h = WalHealth::default();
        for queue in &self.queues {
            h.merge(&queue.reopen()?);
        }
        Ok(h)
    }

    /// The durable directory this set checkpoints into.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shard WALs (= shard count).
    pub(crate) fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Highest replication term across the shard WAL writers.
    pub(crate) fn term(&self) -> u64 {
        self.queues
            .iter()
            .map(GroupCommitQueue::term)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::ParameterDomain;
    use crate::fault::{self, TempDir, WalFaultKind};
    use crate::multi::IndexConfig;
    use crate::query::{Cmp, InequalityQuery};
    use crate::shard::ShardConfig;
    use crate::table::FeatureTable;
    use crate::VecStore;

    /// An `n`-row set over `shards` round-robin shards; one shard is the
    /// unsharded engine.
    fn small_set(n: usize, shards: usize) -> ShardedIndexSet<VecStore> {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![1.0 + (i % 13) as f64, 1.0 + (i % 7) as f64])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
        ShardedIndexSet::build(
            table,
            domain,
            IndexConfig::with_budget(3),
            ShardConfig::round_robin(shards),
        )
        .unwrap()
    }

    fn probe(b: f64) -> InequalityQuery {
        InequalityQuery::new(vec![1.0, 1.5], Cmp::Leq, b).unwrap()
    }

    fn assert_same_answers(a: &ShardedIndexSet<VecStore>, b: &ShardedIndexSet<VecStore>) {
        for bound in [8.0, 12.0, 14.0, 20.0] {
            assert_eq!(
                a.query(&probe(bound)).unwrap().sorted_ids(),
                b.query(&probe(bound)).unwrap().sorted_ids()
            );
        }
    }

    #[test]
    fn snapshots_pin_epochs_and_reclaim_after_grace() {
        let conc = ConcurrentShardedIndexSet::new(small_set(40, 1), ConcurrencyConfig::default());
        let pinned = conc.snapshot();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.len(), 40);

        conc.insert_point(&[3.0, 3.0]).unwrap();
        conc.insert_point(&[4.0, 4.0]).unwrap();
        // The pin still answers from epoch 1.
        assert_eq!(pinned.len(), 40);
        let now = conc.snapshot();
        assert_eq!(now.epoch(), 3);
        assert_eq!(now.len(), 42);

        // Epoch 2 had no pins → already reclaimed; epoch 1 waits for ours.
        let stats = conc.epoch_stats();
        assert_eq!(stats.published, 2);
        assert_eq!(stats.retired_live, 1);
        assert_eq!(stats.reclaimed, 1);

        drop(pinned);
        assert_eq!(conc.reclaim(), 1, "grace period ends with the last pin");
        assert_eq!(conc.epoch_stats().retired_live, 0);
    }

    #[test]
    fn batch_publishes_one_epoch_and_matches_serial() {
        let conc = ConcurrentShardedIndexSet::new(small_set(30, 3), ConcurrencyConfig::default());
        let mut twin = small_set(30, 3);
        let muts = vec![
            Mutation::Insert {
                row: vec![2.0, 9.0],
            },
            Mutation::Insert {
                row: vec![7.0, 1.0],
            },
            Mutation::Update {
                id: 30,
                row: vec![6.0, 6.0],
            },
            Mutation::Delete { id: 3 },
            Mutation::Delete { id: 31 },
        ];
        let acks = conc.apply_batch(&muts).unwrap();
        assert_eq!(
            acks,
            vec![
                MutationAck::Inserted(30),
                MutationAck::Inserted(31),
                MutationAck::Updated,
                MutationAck::Deleted,
                MutationAck::Deleted,
            ]
        );
        twin.insert_point(&[2.0, 9.0]).unwrap();
        twin.insert_point(&[7.0, 1.0]).unwrap();
        twin.update_point(30, &[6.0, 6.0]).unwrap();
        twin.delete_point(3).unwrap();
        twin.delete_point(31).unwrap();

        let snap = conc.snapshot();
        assert_eq!(snap.epoch(), 2, "one epoch for the whole batch");
        assert_same_answers(&snap, &twin);
    }

    #[test]
    fn batch_validation_is_all_or_nothing() {
        let conc = ConcurrentShardedIndexSet::new(small_set(10, 2), ConcurrencyConfig::default());
        let muts = vec![
            Mutation::Insert {
                row: vec![2.0, 2.0],
            },
            Mutation::Delete { id: 999 },
        ];
        assert!(matches!(
            conc.apply_batch(&muts),
            Err(PlanarError::PointNotFound(999))
        ));
        assert_eq!(conc.snapshot().len(), 10, "nothing applied");
        assert_eq!(conc.snapshot().epoch(), 1, "nothing published");
    }

    #[test]
    fn publish_cadence_batches_epochs() {
        let cfg = ConcurrencyConfig::default().publish_every(4);
        let conc = ConcurrentShardedIndexSet::new(small_set(10, 1), cfg);
        for i in 0..3 {
            conc.insert_point(&[2.0 + i as f64, 2.0]).unwrap();
        }
        assert_eq!(conc.snapshot().len(), 10, "below cadence: not yet visible");
        conc.insert_point(&[9.0, 9.0]).unwrap();
        assert_eq!(conc.snapshot().len(), 14, "4th mutation publishes");
        conc.insert_point(&[9.5, 9.5]).unwrap();
        assert_eq!(conc.snapshot().len(), 14);
        assert_eq!(conc.publish(), 3, "manual publish flushes the remainder");
        assert_eq!(conc.snapshot().len(), 15);
    }

    #[test]
    fn sharded_snapshots_match_twin() {
        let conc = ConcurrentShardedIndexSet::new(small_set(60, 3), ConcurrencyConfig::default());
        let mut twin = small_set(60, 3);
        let pinned = conc.snapshot();
        for i in 0..10 {
            let row = vec![2.0 + (i % 5) as f64, 3.0];
            assert_eq!(
                conc.insert_point(&row).unwrap(),
                twin.insert_point(&row).unwrap()
            );
        }
        conc.delete_point(2).unwrap();
        twin.delete_point(2).unwrap();
        assert_eq!(pinned.len(), 60, "pinned epoch is frozen");
        assert_same_answers(&conc.snapshot(), &twin);
    }

    /// Readers race a writer across epochs; every reader answer must be
    /// internally consistent with the epoch it pinned. This test is the
    /// ThreadSanitizer smoke target wired into CI (`tsan_smoke` in its
    /// name is load-bearing).
    #[test]
    fn tsan_smoke_readers_race_writer() {
        let conc = std::sync::Arc::new(ConcurrentShardedIndexSet::new(
            small_set(50, 2),
            ConcurrencyConfig::default(),
        ));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let conc = std::sync::Arc::clone(&conc);
                let stop = std::sync::Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let snap = conc.snapshot();
                        let out = snap.query(&probe(12.0)).unwrap();
                        // Snapshot immutability: re-running on the same pin
                        // is bit-identical even mid-mutation-stream.
                        assert_eq!(
                            out.sorted_ids(),
                            snap.query(&probe(12.0)).unwrap().sorted_ids()
                        );
                    }
                });
            }
            for i in 0..64 {
                conc.insert_point(&[1.0 + (i % 9) as f64, 2.0]).unwrap();
                if i % 16 == 0 {
                    conc.reclaim();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(conc.snapshot().len(), 114);
    }

    #[test]
    fn durable_concurrent_group_commit_roundtrip() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("conc_durable").unwrap();
        let opts = WalOptions::default(); // Always: every ack durable
        let conc = std::sync::Arc::new(
            ConcurrentDurableShardedIndexSet::create(
                tmp.path(),
                small_set(40, 1),
                opts,
                ConcurrencyConfig::default(),
            )
            .unwrap(),
        );
        // 4 mutator threads share commit groups.
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let conc = std::sync::Arc::clone(&conc);
                s.spawn(move || {
                    for i in 0..8 {
                        conc.insert_point(&[1.0 + t as f64, 1.0 + i as f64])
                            .unwrap();
                    }
                });
            }
        });
        let health = conc.wal_health();
        assert_eq!(health.appended_lsn, 32);
        assert_eq!(health.acked_lsn, 32, "Always: every ack durable");
        assert_eq!(health.ack_lag(), 0);
        let gc = conc.group_commit_stats();
        assert_eq!(gc.committed_records, 32);
        assert!(gc.fsyncs <= 32);
        assert_eq!(conc.snapshot().len(), 72);

        // Kill without checkpoint; recovery must replay all 32.
        drop(conc);
        let (recovered, report) = ConcurrentDurableShardedIndexSet::<VecStore>::open(
            tmp.path(),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        assert_eq!(report.wal_replayed, 32);
        assert_eq!(recovered.snapshot().len(), 72);
    }

    #[test]
    fn durable_concurrent_checkpoint_truncates_and_reopens() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("conc_ckpt").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(8));
        let conc = ConcurrentDurableShardedIndexSet::create(
            tmp.path(),
            small_set(20, 1),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        for i in 0..10 {
            conc.insert_point(&[2.0 + i as f64, 4.0]).unwrap();
        }
        let lag_before = conc.wal_health().ack_lag();
        conc.sync().unwrap();
        let h = conc.wal_health();
        assert_eq!(
            h.acked_lsn, h.appended_lsn,
            "acked and appended converge after sync (lag was {lag_before})"
        );
        let watermark = conc.checkpoint().unwrap();
        assert_eq!(watermark, 11);
        assert!(
            !snapshot_path(tmp.path(), 1).exists(),
            "stale snapshot generation swept"
        );
        assert!(snapshot_path(tmp.path(), 2).exists());
        conc.delete_point(5).unwrap();
        drop(conc);
        let (recovered, report) = ConcurrentDurableShardedIndexSet::<VecStore>::open(
            tmp.path(),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        assert_eq!(report.wal_replayed, 1, "only the post-checkpoint delete");
        assert!(!recovered.snapshot().is_live(5));
    }

    #[test]
    fn sharded_durable_concurrent_routes_and_recovers() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("conc_shard_durable").unwrap();
        let opts = WalOptions::default(); // Always
        let conc = ConcurrentDurableShardedIndexSet::create(
            tmp.path(),
            small_set(30, 3),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        let mut twin = small_set(30, 3);

        let pinned = conc.snapshot();
        let muts: Vec<Mutation> = (0..6)
            .map(|i| Mutation::Insert {
                row: vec![2.0 + i as f64, 4.0],
            })
            .collect();
        let acks = conc.apply_batch(&muts).unwrap();
        assert_eq!(acks.len(), 6);
        for m in &muts {
            if let Mutation::Insert { row } = m {
                twin.insert_point(row).unwrap();
            }
        }
        conc.delete_point(4).unwrap();
        twin.delete_point(4).unwrap();
        assert_eq!(pinned.len(), 30, "pinned epoch is frozen");
        let h = conc.wal_health();
        assert_eq!(h.appended_lsn, 7);
        assert_eq!(h.acked_lsn, 7, "Always: acked durable across shards");

        let watermark = conc.checkpoint().unwrap();
        assert_eq!(watermark, 8);
        conc.insert_point(&[8.0, 8.0]).unwrap();
        twin.insert_point(&[8.0, 8.0]).unwrap();
        drop(conc);

        let (recovered, report) = ConcurrentDurableShardedIndexSet::<VecStore>::open(
            tmp.path(),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        assert_eq!(report.wal_replayed, 1, "only the post-checkpoint insert");
        assert_same_answers(&recovered.snapshot(), &twin);
    }

    /// A batch spanning a healthy shard and a fail-stopped one must log
    /// nothing anywhere: a record left on the healthy shard's queue would
    /// never be applied, and the LSN it took would wedge that shard's
    /// later writes as non-monotonic until a restart.
    #[test]
    fn failed_shard_queue_refuses_a_spanning_batch_and_heals() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("conc_wedge").unwrap();
        let opts = WalOptions::default(); // Always
        let conc = ConcurrentDurableShardedIndexSet::create(
            tmp.path(),
            small_set(10, 2),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        let mut acked: Vec<Vec<f64>> = Vec::new();

        // Global id 10 routes to shard 0, whose first append fails: the
        // insert is applied but not acknowledged, and shard 0 fail-stops.
        fault::arm_wal_fault(0, WalFaultKind::FailAppend);
        assert!(conc.insert_point(&[5.0, 5.0]).is_err());
        fault::disarm_wal_fault();

        // Ids 11 and 12 route to shards 1 and 0.
        let spanning = vec![
            Mutation::Insert {
                row: vec![6.0, 2.0],
            },
            Mutation::Insert {
                row: vec![7.0, 3.0],
            },
        ];
        assert!(conc.apply_batch(&spanning).is_err());
        assert_eq!(
            conc.snapshot().len(),
            11,
            "the refused batch applied nothing"
        );

        conc.reopen_wal().unwrap();
        for i in 0..4 {
            let row = vec![2.0 + i as f64, 1.0 + i as f64];
            let id = conc.insert_point(&row).unwrap();
            assert_eq!(id, 11 + i, "both shards accept writes after reopen");
            acked.push(row);
        }
        let batch_acks = conc.apply_batch(&spanning).unwrap();
        assert_eq!(
            batch_acks,
            vec![MutationAck::Inserted(15), MutationAck::Inserted(16)]
        );
        drop(conc);

        // Every acknowledged write is recovered; so is the parked insert,
        // which reopen made durable.
        let (recovered, report) = ConcurrentDurableShardedIndexSet::<VecStore>::open(
            tmp.path(),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        assert_eq!(report.wal_replayed, 7);
        let mut twin = small_set(10, 2);
        twin.insert_point(&[5.0, 5.0]).unwrap();
        for row in &acked {
            twin.insert_point(row).unwrap();
        }
        for m in &spanning {
            if let Mutation::Insert { row } = m {
                twin.insert_point(row).unwrap();
            }
        }
        assert_eq!(recovered.snapshot().len(), twin.len());
        assert_same_answers(&recovered.snapshot(), &twin);
    }
}
