//! Crash-consistent mutation durability: a per-shard **write-ahead log**
//! with point-in-time recovery.
//!
//! Snapshots alone are crash-safe, but every mutation since the last
//! snapshot would be lost on a crash. This module closes that gap with a
//! classic WAL protocol, which
//! [`crate::concurrent::ConcurrentDurableShardedIndexSet`] runs:
//!
//! * every mutation is appended to the log **before** it is applied
//!   in memory, framed with a CRC-64 and a monotonically increasing
//!   **LSN** (log sequence number);
//! * [`FsyncPolicy`] bounds data loss: `Always` fsyncs per record,
//!   `EveryN(n)` amortizes the fsync over `n` records, `OnCheckpoint`
//!   trusts the OS until the next checkpoint;
//! * a checkpoint is **checkpoint-then-truncate**: append a `Checkpoint`
//!   marker, fsync the log, write a fresh snapshot atomically, publish it
//!   in the `CHECKPOINT` manifest, then delete the now-covered segments;
//! * opening a durable directory loads the newest valid snapshot and
//!   **replays** the records with LSN above the manifest watermark —
//!   replay is idempotent because every record is keyed by LSN;
//! * a **torn tail** (a crash mid-write) is detected by the frame CRC,
//!   truncated at the first bad frame, and *reported* in the
//!   [`crate::ShardedRecoveryReport`] — it is never a hard error.
//!
//! ## Frame format
//!
//! A segment file starts with a 16-byte header — the 8-byte magic
//! `PLNRWAL2` plus the **term** (a little-endian u64 fencing token, see
//! `crate::replicate`) — followed by frames (all integers little-endian):
//!
//! ```text
//! | payload_len u32 | lsn u64 | tag u8 | payload | crc64 u64 |
//! ```
//!
//! The CRC-64/XZ covers everything before it (header + payload), so a
//! frame is valid iff it is fully present *and* uncorrupted. Payload
//! length is bounded (16 MiB) so a corrupt length cannot drive huge
//! allocations. Segments rotate at [`WalOptions::segment_max_bytes`] and
//! are named by the first LSN they may contain, so lexicographic file
//! order is LSN order.
//!
//! ## Durable directory layout
//!
//! ```text
//! dir/CHECKPOINT                 manifest: generation + LSN watermark (CRC'd, atomically replaced)
//! dir/snapshot-<gen>.plnr        the PLNRSHD2 snapshot
//! dir/wal/shard-NNNN/wal-<lsn>.log  per-shard segments
//! ```
//!
//! A durable set keeps **one WAL per shard** sharing a single global LSN
//! counter; each `Insert` record carries its assigned global id, so
//! replay is shard-local and independent of cross-shard interleaving.

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::persist::SaveOptions;
use crate::table::PointId;
use crate::{PlanarError, Result};

/// Log sequence number: strictly increasing across every record a durable
/// set ever writes (shared across all shards of a sharded set).
pub type Lsn = u64;

const SEGMENT_MAGIC: &[u8; 8] = b"PLNRWAL2";
/// Segment header: magic + term.
const SEGMENT_HEADER_LEN: usize = 16;
const MANIFEST_MAGIC: &[u8; 8] = b"PLNRCKP2";
const MANIFEST_FILE: &str = "CHECKPOINT";
const WAL_SUBDIR: &str = "wal";
/// `payload_len u32 | lsn u64 | tag u8 | ... | crc64 u64`.
const FRAME_HEADER: usize = 4 + 8 + 1;
const FRAME_OVERHEAD: usize = FRAME_HEADER + 8;
/// Upper bound on a frame payload; a corrupt length field can never
/// drive an allocation past this.
const MAX_PAYLOAD: usize = 1 << 24;

const TAG_INSERT: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_COMPACT: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;

pub(crate) fn walerr(msg: impl Into<String>) -> PlanarError {
    PlanarError::Persist(format!("wal: {}", msg.into()))
}

fn walio(ctx: &str, e: std::io::Error) -> PlanarError {
    PlanarError::Persist(format!("wal: {ctx}: {e}"))
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// When appended WAL records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record: zero loss on power failure, highest
    /// per-mutation latency.
    Always,
    /// fsync once every `n` records: at most `n − 1` acknowledged
    /// mutations can be lost to a power failure.
    EveryN(u32),
    /// fsync only at checkpoints (and explicit [`WalHealth`]-visible
    /// syncs): fastest, loss bounded only by the checkpoint interval.
    OnCheckpoint,
}

/// Configuration for a durable set's write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Record durability policy (default [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one reaches this many
    /// bytes (default 8 MiB). Retention is tied to checkpoints: segments
    /// are only deleted once a snapshot covering their records is durable.
    pub segment_max_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::Always,
            segment_max_bytes: 8 * 1024 * 1024,
        }
    }
}

impl WalOptions {
    /// Set the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Set the segment rotation threshold in bytes (min 4 KiB).
    pub fn segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes.max(4096);
        self
    }
}

/// Point-in-time health of a write-ahead log, stamped into
/// [`crate::StatsSnapshot`] via [`crate::StatsAggregator::record_wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalHealth {
    /// Live segment files (across all shards for a sharded set).
    pub segments: usize,
    /// Records appended since the last fsync — the current worst-case
    /// loss window on power failure.
    pub unsynced_records: u64,
    /// LSN of the newest appended record (0 when the log is empty).
    /// Alias of [`Self::appended_lsn`], kept for dashboard compatibility.
    pub last_lsn: Lsn,
    /// LSN of the newest appended record (0 when the log is empty).
    pub appended_lsn: Lsn,
    /// Highest LSN known durable: every record at or below it has been
    /// covered by an fsync. `appended_lsn − acked_lsn` is the group-commit
    /// lag — the records a power cut would lose right now. The two
    /// converge after
    /// [`crate::concurrent::ConcurrentDurableShardedIndexSet::sync`].
    pub acked_lsn: Lsn,
}

impl WalHealth {
    /// `appended_lsn − acked_lsn`: records appended but not yet durable.
    pub fn ack_lag(&self) -> u64 {
        self.appended_lsn.saturating_sub(self.acked_lsn)
    }

    /// The durability bound this log imposes on a merged view: `None`
    /// when fully synced (it constrains nothing), the acked watermark
    /// otherwise.
    fn lag_bound(&self) -> Option<Lsn> {
        (self.acked_lsn < self.appended_lsn).then_some(self.acked_lsn)
    }

    pub(crate) fn merge(&mut self, other: &WalHealth) {
        self.segments += other.segments;
        self.unsynced_records += other.unsynced_records;
        // The merged acked watermark is limited by the laggiest writer:
        // shards own disjoint LSN subsets, so the conservative global
        // "everything ≤ acked is durable" bound is the minimum over
        // writers that still have unsynced records.
        let bound = match (self.lag_bound(), other.lag_bound()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_lsn = self.last_lsn.max(other.last_lsn);
        self.appended_lsn = self.appended_lsn.max(other.appended_lsn);
        self.acked_lsn = bound.unwrap_or(self.appended_lsn);
    }
}

// ---------------------------------------------------------------------------
// Records and frames
// ---------------------------------------------------------------------------

/// One logged mutation. `Insert`/`Update` carry the full feature row so
/// replay needs nothing but the log; `Insert` also records the id the
/// mutation assigned, which makes sharded replay shard-local (see module
/// docs) and turns planar replay into a self-check.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A point was inserted and assigned `id`.
    Insert {
        /// The id assigned by the mutation (global id for sharded sets).
        id: PointId,
        /// The feature row.
        row: Vec<f64>,
    },
    /// Point `id` was updated to `row`.
    Update {
        /// The (global) id updated.
        id: PointId,
        /// The new feature row.
        row: Vec<f64>,
    },
    /// Point `id` was deleted (tombstoned).
    Delete {
        /// The (global) id deleted.
        id: PointId,
    },
    /// A compaction ran: unconditional (`None`, planar `compact()`) or
    /// threshold-gated (`Some(t)`, `compact_if`/sharded `compact`).
    /// Compaction is deterministic given the set state, so the marker
    /// alone replays it exactly.
    Compact {
        /// Tombstone-fraction threshold, if the compaction was gated.
        threshold: Option<f64>,
    },
    /// Checkpoint marker: everything at or below `watermark` is captured
    /// by a durable snapshot. A no-op on replay.
    Checkpoint {
        /// The LSN the snapshot covers through.
        watermark: Lsn,
    },
}

/// One point mutation, expressed independently of any set so batches can
/// be validated, logged, and applied as a unit. This is the group-commit
/// currency:
/// [`crate::concurrent::ConcurrentDurableShardedIndexSet::apply_batch`]
/// logs a whole `&[Mutation]` with at most one fsync per touched shard.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Insert a new point (the engine assigns the id, returned in the ack).
    Insert {
        /// The feature row.
        row: Vec<f64>,
    },
    /// Replace the row of live point `id`.
    Update {
        /// The id to update.
        id: PointId,
        /// The new feature row.
        row: Vec<f64>,
    },
    /// Tombstone live point `id`.
    Delete {
        /// The id to delete.
        id: PointId,
    },
}

/// Acknowledgement for one [`Mutation`] of a batch, in batch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationAck {
    /// An insert happened and was assigned this id.
    Inserted(PointId),
    /// An update was applied.
    Updated,
    /// A delete was applied.
    Deleted,
}

fn encode_frame(lsn: Lsn, rec: &WalRecord) -> Vec<u8> {
    let mut payload = BytesMut::new();
    let tag = match rec {
        WalRecord::Insert { id, row } => {
            payload.put_u32_le(*id);
            payload.put_u32_le(row.len() as u32);
            for v in row {
                payload.put_f64_le(*v);
            }
            TAG_INSERT
        }
        WalRecord::Update { id, row } => {
            payload.put_u32_le(*id);
            payload.put_u32_le(row.len() as u32);
            for v in row {
                payload.put_f64_le(*v);
            }
            TAG_UPDATE
        }
        WalRecord::Delete { id } => {
            payload.put_u32_le(*id);
            TAG_DELETE
        }
        WalRecord::Compact { threshold } => {
            match threshold {
                None => payload.put_u8(0),
                Some(t) => {
                    payload.put_u8(1);
                    payload.put_f64_le(*t);
                }
            }
            TAG_COMPACT
        }
        WalRecord::Checkpoint { watermark } => {
            payload.put_u64_le(*watermark);
            TAG_CHECKPOINT
        }
    };
    let payload = payload.freeze();
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    let mut head = BytesMut::new();
    head.put_u32_le(payload.len() as u32);
    head.put_u64_le(lsn);
    head.put_u8(tag);
    frame.extend_from_slice(head.freeze().as_slice());
    frame.extend_from_slice(payload.as_slice());
    crate::frame::seal_vec(&mut frame);
    frame
}

fn decode_payload(tag: u8, payload: &[u8]) -> Option<WalRecord> {
    let mut buf = Bytes::copy_from_slice(payload);
    let row_after_id = |buf: &mut Bytes| -> Option<(PointId, Vec<f64>)> {
        if buf.len() < 8 {
            return None;
        }
        let id = buf.get_u32_le();
        let dim = buf.get_u32_le() as usize;
        if dim == 0 || buf.len() != dim * 8 {
            return None;
        }
        Some((id, (0..dim).map(|_| buf.get_f64_le()).collect()))
    };
    let rec = match tag {
        TAG_INSERT => {
            let (id, row) = row_after_id(&mut buf)?;
            WalRecord::Insert { id, row }
        }
        TAG_UPDATE => {
            let (id, row) = row_after_id(&mut buf)?;
            WalRecord::Update { id, row }
        }
        TAG_DELETE => {
            if buf.len() != 4 {
                return None;
            }
            WalRecord::Delete {
                id: buf.get_u32_le(),
            }
        }
        TAG_COMPACT => {
            if buf.is_empty() {
                return None;
            }
            match buf.get_u8() {
                0 if buf.is_empty() => WalRecord::Compact { threshold: None },
                1 if buf.len() == 8 => WalRecord::Compact {
                    threshold: Some(buf.get_f64_le()),
                },
                _ => return None,
            }
        }
        TAG_CHECKPOINT => {
            if buf.len() != 8 {
                return None;
            }
            WalRecord::Checkpoint {
                watermark: buf.get_u64_le(),
            }
        }
        _ => return None,
    };
    Some(rec)
}

/// Parse one frame at the start of `bytes`. Returns the frame's total
/// length, its LSN, and the decoded record — or `None` on anything short,
/// corrupt, or malformed (the caller treats that offset as the torn tail).
pub(crate) fn parse_frame(bytes: &[u8]) -> Option<(usize, Lsn, WalRecord)> {
    if bytes.len() < FRAME_OVERHEAD {
        return None;
    }
    let mut buf = Bytes::copy_from_slice(&bytes[..FRAME_HEADER]);
    let len = buf.get_u32_le() as usize;
    let lsn = buf.get_u64_le();
    let tag = buf.get_u8();
    if len > MAX_PAYLOAD || bytes.len() < FRAME_OVERHEAD + len {
        return None;
    }
    let crc_at = FRAME_HEADER + len;
    crate::frame::open_sealed(&bytes[..crc_at + crate::frame::CRC_LEN])?;
    let rec = decode_payload(tag, &bytes[FRAME_HEADER..crc_at])?;
    Some((FRAME_OVERHEAD + len, lsn, rec))
}

/// Count the structurally complete frames in `bytes` (no CRC check):
/// records that were written but are unusable because they sit after the
/// first invalid frame. Returns `(frames, trailing torn bytes)`.
fn structural_count(bytes: &[u8]) -> (usize, usize) {
    let mut pos = 0;
    let mut frames = 0;
    while bytes.len() - pos >= FRAME_OVERHEAD {
        let len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes checked")) as usize;
        if len > MAX_PAYLOAD || bytes.len() - pos < FRAME_OVERHEAD + len {
            break;
        }
        frames += 1;
        pos += FRAME_OVERHEAD + len;
    }
    (frames, bytes.len() - pos)
}

// ---------------------------------------------------------------------------
// Directory scan (recovery read path)
// ---------------------------------------------------------------------------

/// Everything a recovery scan learned about a WAL directory.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
    /// Valid records in LSN order.
    pub frames: Vec<(Lsn, WalRecord)>,
    /// Structurally complete records dropped because they sit at or after
    /// the first invalid frame.
    pub dropped_records: usize,
    /// Torn bytes (a partial frame / unparseable tail) truncated.
    pub torn_bytes: usize,
    /// Highest replication term stamped into any surviving segment header.
    pub term: u64,
    /// All segment files found, in LSN-name order.
    segments: Vec<PathBuf>,
    /// `segments[..keep]` survive repair; later ones are deleted.
    keep: usize,
    /// Valid byte length of `segments[keep - 1]` (tail truncation point).
    tail_valid_len: u64,
}

/// Parse a segment header: the term of a valid header (the first
/// [`SEGMENT_HEADER_LEN`] bytes), `None` for a torn or foreign prefix.
fn segment_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() >= SEGMENT_HEADER_LEN && &bytes[..8] == SEGMENT_MAGIC {
        return Some(u64::from_le_bytes(
            bytes[8..16].try_into().expect("8 bytes checked"),
        ));
    }
    None
}

fn list_segments(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut segs = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segs),
        Err(e) => return Err(walio("read_dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| walio("read_dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("wal-") && name.ends_with(".log") {
            segs.push(entry.path());
        }
    }
    // Segment names embed a zero-padded first-LSN, so name order is LSN
    // order.
    segs.sort();
    Ok(segs)
}

/// Scan a WAL directory: collect every valid frame in LSN order, stop at
/// the first invalid frame anywhere (CRC mismatch, malformed payload,
/// non-monotonic LSN, torn write), and account for what follows it.
/// Corruption is never an error — only real I/O failures are.
fn scan_dir(dir: &Path) -> Result<WalScan> {
    let mut scan = WalScan {
        segments: list_segments(dir)?,
        ..WalScan::default()
    };
    let mut prev_lsn: Lsn = 0;
    let mut broken = false;
    for (i, seg) in scan.segments.iter().enumerate() {
        let bytes = fs::read(seg).map_err(|e| walio("read segment", e))?;
        if broken {
            // Everything after the first break is dead; count it.
            let body = match segment_header(&bytes) {
                Some(_) => &bytes[SEGMENT_HEADER_LEN..],
                None => &bytes[..],
            };
            let (frames, torn) = structural_count(body);
            scan.dropped_records += frames;
            scan.torn_bytes += torn;
            continue;
        }
        let Some(term) = segment_header(&bytes) else {
            // A segment creation torn mid-header; the file carries no
            // usable frames. The *torn* segment is the repair tail
            // (valid length 0, so it gets recreated in place) — earlier
            // segments hold fsynced, acknowledged records and must
            // survive intact.
            broken = true;
            scan.torn_bytes += bytes.len();
            scan.keep = i + 1;
            scan.tail_valid_len = 0;
            continue;
        };
        scan.term = scan.term.max(term);
        let mut pos = SEGMENT_HEADER_LEN;
        loop {
            if pos == bytes.len() {
                break;
            }
            match parse_frame(&bytes[pos..]) {
                Some((consumed, lsn, rec)) if lsn > prev_lsn => {
                    prev_lsn = lsn;
                    scan.frames.push((lsn, rec));
                    pos += consumed;
                }
                _ => {
                    broken = true;
                    let (frames, torn) = structural_count(&bytes[pos..]);
                    scan.dropped_records += frames;
                    scan.torn_bytes += torn;
                    break;
                }
            }
        }
        if !broken {
            scan.keep = i + 1;
            scan.tail_valid_len = bytes.len() as u64;
        } else {
            scan.keep = i + 1;
            scan.tail_valid_len = pos as u64;
        }
    }
    Ok(scan)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends CRC-framed records to segment files with rotation, a
/// configurable fsync policy, and checkpoint-driven truncation. One
/// writer owns one directory of segments.
#[derive(Debug)]
pub(crate) struct WalWriter {
    dir: PathBuf,
    file: File,
    segment_len: u64,
    segment_count: usize,
    last_lsn: Lsn,
    /// Highest LSN covered by an fsync (everything on disk at open time
    /// already survived a scan, so repair re-baselines this to `last_lsn`).
    synced_lsn: Lsn,
    unsynced: u64,
    /// Data fsyncs issued over this writer's lifetime — the denominator
    /// of group-commit amortization (read by the bench crate through
    /// [`Self::fsync_count`]).
    fsync_count: u64,
    #[cfg(any(test, feature = "fault-injection"))]
    appends: u64,
    #[cfg(any(test, feature = "fault-injection"))]
    crashed: bool,
    /// Replication term stamped into every segment this writer creates
    /// (see `crate::replicate`; 0 on a never-replicated set).
    term: u64,
    opts: WalOptions,
}

fn segment_path(dir: &Path, first_lsn: Lsn) -> PathBuf {
    dir.join(format!("wal-{first_lsn:020}.log"))
}

fn sync_dir(dir: &Path) {
    // Durable directory entries need a dir fsync on most filesystems;
    // best-effort, matching `StdIo::rename`.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

fn create_segment(dir: &Path, first_lsn: Lsn, term: u64) -> Result<File> {
    let path = segment_path(dir, first_lsn);
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
        .map_err(|e| walio("create segment", e))?;
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[..8].copy_from_slice(SEGMENT_MAGIC);
    header[8..].copy_from_slice(&term.to_le_bytes());
    f.write_all(&header)
        .and_then(|()| f.sync_data())
        .map_err(|e| walio("write segment header", e))?;
    sync_dir(dir);
    Ok(f)
}

impl WalWriter {
    /// Open (creating if absent) a WAL directory for appending: scan it,
    /// physically truncate the torn tail, delete segments past the first
    /// break, and position after the last valid record. Returns the scan
    /// so the caller can replay it.
    pub(crate) fn open_repair(dir: &Path, opts: WalOptions) -> Result<(Self, WalScan)> {
        fs::create_dir_all(dir).map_err(|e| walio("create wal dir", e))?;
        let scan = scan_dir(dir)?;
        for seg in &scan.segments[scan.keep..] {
            fs::remove_file(seg).map_err(|e| walio("remove dead segment", e))?;
        }
        let last_lsn = scan.frames.last().map(|&(lsn, _)| lsn).unwrap_or(0);
        let term = scan.term;
        let (file, segment_len, segment_count) = if scan.keep > 0 {
            let tail = &scan.segments[scan.keep - 1];
            if scan.tail_valid_len < 8 {
                // The tail never got a full header; recreate it in place.
                fs::remove_file(tail).map_err(|e| walio("remove torn segment", e))?;
                let f = create_segment(dir, last_lsn + 1, term)?;
                (f, SEGMENT_HEADER_LEN as u64, scan.keep)
            } else {
                let f = OpenOptions::new()
                    .write(true)
                    .append(false)
                    .open(tail)
                    .map_err(|e| walio("open tail segment", e))?;
                f.set_len(scan.tail_valid_len)
                    .and_then(|()| f.sync_data())
                    .map_err(|e| walio("truncate torn tail", e))?;
                // Re-open in append mode so writes land at the truncated end.
                let f = OpenOptions::new()
                    .append(true)
                    .open(tail)
                    .map_err(|e| walio("reopen tail segment", e))?;
                (f, scan.tail_valid_len, scan.keep)
            }
        } else {
            let f = create_segment(dir, last_lsn + 1, term)?;
            (f, SEGMENT_HEADER_LEN as u64, 1)
        };
        sync_dir(dir);
        let writer = Self {
            dir: dir.to_path_buf(),
            file,
            segment_len,
            segment_count,
            last_lsn,
            synced_lsn: last_lsn,
            unsynced: 0,
            fsync_count: 0,
            #[cfg(any(test, feature = "fault-injection"))]
            appends: 0,
            #[cfg(any(test, feature = "fault-injection"))]
            crashed: false,
            term,
            opts,
        };
        Ok((writer, scan))
    }

    /// The replication term stamped into segments this writer creates.
    pub(crate) fn term(&self) -> u64 {
        self.term
    }

    /// Raise the replication term (used by failover promotion). Future
    /// segments — the next rotation or truncation — carry the new term;
    /// the authoritative copy lives in the `CHECKPOINT` manifest.
    pub(crate) fn set_term(&mut self, term: u64) {
        self.term = self.term.max(term);
    }

    /// The options this writer was opened with.
    pub(crate) fn options(&self) -> &WalOptions {
        &self.opts
    }

    /// Append one record at `lsn` (must exceed every prior LSN), rotating
    /// and fsyncing per policy.
    #[cfg(test)]
    fn append(&mut self, lsn: Lsn, rec: &WalRecord) -> Result<()> {
        self.append_frame(lsn, rec)?;
        self.policy_sync()
    }

    /// Append one record without consulting the fsync policy: the building
    /// block of group commit, where many appends share one explicit
    /// [`Self::sync`]. The record is written (and rotation handled) but
    /// durability is deferred to the caller.
    fn append_frame(&mut self, lsn: Lsn, rec: &WalRecord) -> Result<()> {
        if lsn <= self.last_lsn {
            return Err(walerr(format!(
                "non-monotonic lsn {lsn} (last {})",
                self.last_lsn
            )));
        }
        if self.segment_len >= self.opts.segment_max_bytes {
            self.sync()?;
            self.file = create_segment(&self.dir, lsn, self.term)?;
            self.segment_len = SEGMENT_HEADER_LEN as u64;
            self.segment_count += 1;
        }
        let frame = encode_frame(lsn, rec);
        self.write_frame(&frame)?;
        self.segment_len += frame.len() as u64;
        self.last_lsn = lsn;
        self.unsynced += 1;
        Ok(())
    }

    /// Apply the configured fsync policy to whatever is unsynced.
    pub(crate) fn policy_sync(&mut self) -> Result<()> {
        match self.opts.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= u64::from(n.max(1)) {
                    self.sync()?;
                }
            }
            FsyncPolicy::OnCheckpoint => {}
        }
        Ok(())
    }

    #[cfg(any(test, feature = "fault-injection"))]
    fn write_frame(&mut self, frame: &[u8]) -> Result<()> {
        if self.crashed {
            return Err(walerr("writer crashed by injected fault"));
        }
        let this_append = self.appends;
        self.appends += 1;
        match crate::fault::wal_fault_action(this_append) {
            Some(crate::fault::WalFaultKind::FailAppend) => {
                return Err(walerr("injected: transient append failure"));
            }
            Some(crate::fault::WalFaultKind::TornAppend { keep }) => {
                let keep = keep.min(frame.len());
                self.file
                    .write_all(&frame[..keep])
                    .and_then(|()| self.file.sync_data())
                    .map_err(|e| walio("append (torn)", e))?;
                self.crashed = true;
                return Err(walerr("injected: crash mid-frame"));
            }
            Some(crate::fault::WalFaultKind::CrashAfterAppend) => {
                self.file.write_all(frame).map_err(|e| walio("append", e))?;
                self.crashed = true;
                return Ok(());
            }
            None => {}
        }
        self.file.write_all(frame).map_err(|e| walio("append", e))
    }

    #[cfg(not(any(test, feature = "fault-injection")))]
    fn write_frame(&mut self, frame: &[u8]) -> Result<()> {
        self.file.write_all(frame).map_err(|e| walio("append", e))
    }

    /// Force everything appended so far to stable storage.
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| walio("fsync", e))?;
        self.unsynced = 0;
        self.synced_lsn = self.last_lsn;
        self.fsync_count += 1;
        Ok(())
    }

    /// Data fsyncs issued over this writer's lifetime.
    pub(crate) fn fsync_count(&self) -> u64 {
        self.fsync_count
    }

    /// Checkpoint truncation: every record is covered by a durable
    /// snapshot, so drop all segments and start fresh at `next_lsn`.
    pub(crate) fn truncate_all(&mut self, next_lsn: Lsn) -> Result<()> {
        for seg in list_segments(&self.dir)? {
            fs::remove_file(&seg).map_err(|e| walio("truncate segment", e))?;
        }
        self.file = create_segment(&self.dir, next_lsn, self.term)?;
        self.segment_len = SEGMENT_HEADER_LEN as u64;
        self.segment_count = 1;
        self.unsynced = 0;
        self.last_lsn = next_lsn.saturating_sub(1);
        self.synced_lsn = self.last_lsn;
        Ok(())
    }

    pub(crate) fn health(&self) -> WalHealth {
        WalHealth {
            segments: self.segment_count,
            unsynced_records: self.unsynced,
            last_lsn: self.last_lsn,
            appended_lsn: self.last_lsn,
            acked_lsn: self.synced_lsn,
        }
    }
}

// ---------------------------------------------------------------------------
// Segment tailing (replication read path)
// ---------------------------------------------------------------------------

/// First LSN encoded in a segment file name, if it parses.
fn segment_first_lsn(path: &Path) -> Option<Lsn> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

/// One frame lifted off a live segment by a [`WalTailer`]: the raw
/// on-disk encoding (CRC included, so corruption introduced in transit is
/// still detectable downstream) plus its LSN and the term of the segment
/// it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TailedFrame {
    pub(crate) lsn: Lsn,
    pub(crate) term: u64,
    pub(crate) bytes: Vec<u8>,
}

/// An incremental reader over a live WAL directory: remembers which
/// segment and byte offset it has shipped up to, follows rotations, and
/// stops cleanly at an incomplete tail frame (an append may be mid-flight;
/// the next poll retries it). The replication shipper drives one tailer
/// per shard WAL.
#[derive(Debug)]
pub(crate) struct WalTailer {
    dir: PathBuf,
    /// First LSN (from the file name) of the segment the cursor is in.
    seg_first: Option<Lsn>,
    /// Byte offset of the first unshipped frame within that segment.
    offset: u64,
    /// Next LSN the tailer expects to emit (frames below it are skipped —
    /// they are already covered by the snapshot or a prior poll).
    next_lsn: Lsn,
}

impl WalTailer {
    /// Tail `dir`, emitting frames with LSN ≥ `next_lsn`.
    pub(crate) fn new(dir: impl Into<PathBuf>, next_lsn: Lsn) -> Self {
        Self {
            dir: dir.into(),
            seg_first: None,
            offset: 0,
            next_lsn,
        }
    }

    /// Drop the cursor and restart from `next_lsn` — required after a
    /// checkpoint truncated the directory underneath the tailer.
    pub(crate) fn reset(&mut self, next_lsn: Lsn) {
        self.seg_first = None;
        self.offset = 0;
        self.next_lsn = next_lsn;
    }

    /// Collect every complete frame appended since the last poll, in LSN
    /// order. An unparseable tail (a frame whose bytes or CRC are not yet
    /// complete) ends the poll without error: on a live log it is an
    /// append in flight and the next poll picks it up.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on real I/O failures, or if the directory
    /// no longer covers `next_lsn` (it was truncated without a
    /// [`Self::reset`] — shipped history is gone and the follower needs a
    /// fresh snapshot).
    pub(crate) fn poll(&mut self) -> Result<Vec<TailedFrame>> {
        let mut out = Vec::new();
        loop {
            let segments = list_segments(&self.dir)?;
            let firsts: Vec<Lsn> = segments
                .iter()
                .filter_map(|p| segment_first_lsn(p))
                .collect();
            if firsts.is_empty() {
                return Ok(out);
            }
            // The segment that may contain `next_lsn`: the last one whose
            // name does not start past it.
            let Some(idx) = firsts.iter().rposition(|&f| f <= self.next_lsn) else {
                return Err(walerr(format!(
                    "tail gap: next lsn {} precedes the oldest segment (first lsn {}); \
                     the log was truncated under the tailer",
                    self.next_lsn, firsts[0]
                )));
            };
            if self.seg_first != Some(firsts[idx]) {
                self.seg_first = Some(firsts[idx]);
                self.offset = 0;
            }
            let bytes = fs::read(&segments[idx]).map_err(|e| walio("read tailed segment", e))?;
            let Some(term) = segment_header(&bytes) else {
                // Header still being written; retry next poll.
                return Ok(out);
            };
            if self.offset < SEGMENT_HEADER_LEN as u64 {
                self.offset = SEGMENT_HEADER_LEN as u64;
            }
            if (bytes.len() as u64) < self.offset {
                return Err(walerr(
                    "tailed segment shrank under the cursor (truncated without reset)",
                ));
            }
            let mut pos = self.offset as usize;
            while let Some((consumed, lsn, _rec)) = parse_frame(&bytes[pos..]) {
                if lsn >= self.next_lsn {
                    out.push(TailedFrame {
                        lsn,
                        term,
                        bytes: bytes[pos..pos + consumed].to_vec(),
                    });
                    self.next_lsn = lsn + 1;
                }
                pos += consumed;
            }
            self.offset = pos as u64;
            // If the writer rotated past this segment and we have consumed
            // it fully, move the cursor into the next segment and keep
            // going; otherwise we are at the live tail.
            if idx + 1 < firsts.len() && pos == bytes.len() {
                self.seg_first = Some(firsts[idx + 1]);
                self.offset = 0;
                continue;
            }
            return Ok(out);
        }
    }
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

/// Counters describing how well group commit is amortizing fsyncs,
/// exposed by the durable engine and stamped into
/// [`crate::StatsSnapshot`] via [`crate::StatsAggregator::record_group_commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupCommitStats {
    /// fsyncs issued by commit-group leaders.
    pub fsyncs: u64,
    /// Records made durable through those fsyncs.
    pub committed_records: u64,
    /// Largest single commit group (records acknowledged by one fsync).
    pub max_group: u64,
}

impl GroupCommitStats {
    /// Mean records per fsync — the amortization factor group commit
    /// achieved (1.0 means it degenerated to fsync-per-record).
    pub fn mean_group(&self) -> f64 {
        if self.fsyncs == 0 {
            return 0.0;
        }
        self.committed_records as f64 / self.fsyncs as f64
    }
}

/// A shared replication-confirmation frontier that gates group-commit
/// acknowledgements on quorum replication.
///
/// The primary publishes the highest LSN its n-th most caught-up replica
/// has acknowledged ([`QuorumGate::publish`], monotone); the commit queue
/// consults the gate in its `FsyncPolicy::Always` acknowledgement path
/// **after** local durability, so a quorum write's ack is released only
/// once the covering LSN is both fsynced locally and confirmed by the
/// required replicas. A waiter that outlives the gate's timeout gets the
/// typed [`PlanarError::QuorumTimeout`] — the write is applied and locally
/// durable, only the quorum guarantee is unmet.
///
/// Clones share state: install the same gate in every shard queue and in
/// the `Primary` that publishes confirmations.
#[derive(Debug, Clone)]
pub struct QuorumGate {
    inner: Arc<GateInner>,
}

#[derive(Debug)]
struct GateInner {
    /// Highest LSN confirmed by the required number of replicas.
    frontier: Mutex<Lsn>,
    advanced: Condvar,
    required: usize,
    timeout: Duration,
    timeouts: AtomicU64,
}

impl QuorumGate {
    /// A gate requiring `required` replica confirmations, releasing
    /// waiters with [`PlanarError::QuorumTimeout`] after `timeout_ms` of
    /// no sufficient progress.
    pub fn new(required: usize, timeout_ms: u64) -> Self {
        Self {
            inner: Arc::new(GateInner {
                frontier: Mutex::new(0),
                advanced: Condvar::new(),
                required: required.max(1),
                timeout: Duration::from_millis(timeout_ms.max(1)),
                timeouts: AtomicU64::new(0),
            }),
        }
    }

    /// Replica confirmations required per LSN.
    pub fn required(&self) -> usize {
        self.inner.required
    }

    /// Advance the confirmed frontier (monotone; stale publishes are
    /// ignored) and wake every gated waiter.
    pub fn publish(&self, frontier: Lsn) {
        let mut cur = self
            .inner
            .frontier
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if frontier > *cur {
            *cur = frontier;
            self.inner.advanced.notify_all();
        }
    }

    /// Highest quorum-confirmed LSN published so far.
    pub fn frontier(&self) -> Lsn {
        *self
            .inner
            .frontier
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// True once the quorum has confirmed `lsn`.
    pub fn confirmed(&self, lsn: Lsn) -> bool {
        self.frontier() >= lsn
    }

    /// Quorum waits that expired with [`PlanarError::QuorumTimeout`].
    pub fn timeouts(&self) -> u64 {
        self.inner.timeouts.load(Ordering::Relaxed)
    }

    /// Block until the quorum confirms `lsn`, or fail typed after the
    /// gate's timeout.
    pub fn wait_confirmed(&self, lsn: Lsn) -> Result<()> {
        let deadline = Instant::now() + self.inner.timeout;
        let mut cur = self
            .inner
            .frontier
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        loop {
            if *cur >= lsn {
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                self.inner.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(PlanarError::QuorumTimeout {
                    lsn,
                    required: self.inner.required,
                    frontier: *cur,
                });
            }
            let (guard, _timed_out) = self
                .inner
                .advanced
                .wait_timeout(cur, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            cur = guard;
        }
    }
}

#[derive(Debug)]
struct GcState {
    /// Taken (`None`) by the drain leader while it does file I/O so
    /// enqueuers never block on an fsync.
    writer: Option<WalWriter>,
    /// Enqueued-but-unwritten records in strictly ascending LSN order.
    pending: Vec<(Lsn, WalRecord)>,
    /// Last enqueued LSN.
    appended: Lsn,
    /// Last LSN covered by an fsync: everything at or below it is durable.
    synced: Lsn,
    /// A drain leader is currently writing/fsyncing.
    draining: bool,
    /// A previous drain hit an I/O error or injected crash; the queue
    /// refuses further work (mirroring `WalWriter`'s crashed state).
    failed: Option<String>,
    stats: GroupCommitStats,
}

/// A commit queue implementing **group commit**: concurrent appenders
/// enqueue records under a short lock, and whichever waiter finds no
/// drain in progress becomes the *leader* — it takes the [`WalWriter`]
/// out of the state, writes every pending frame, issues **one fsync**,
/// and wakes all waiters whose LSN the fsync covered. While the leader
/// is inside the fsync, new appenders keep enqueuing; the next drain
/// commits them all at once. Under W concurrent writers this collapses
/// `FsyncPolicy::Always` from one fsync per record toward one fsync per
/// W records without weakening the contract: an acknowledged mutation
/// (a `commit` return) is always durable.
#[derive(Debug)]
pub(crate) struct GroupCommitQueue {
    state: Mutex<GcState>,
    durable: Condvar,
    /// Optional replication gate: when installed, the `Always` ack path
    /// additionally waits for quorum confirmation of the LSN after local
    /// durability (see [`QuorumGate`]).
    gate: Mutex<Option<QuorumGate>>,
}

impl GroupCommitQueue {
    pub(crate) fn new(writer: WalWriter) -> Self {
        let baseline = writer.last_lsn;
        let synced = writer.synced_lsn;
        Self {
            state: Mutex::new(GcState {
                writer: Some(writer),
                pending: Vec::new(),
                appended: baseline,
                synced,
                draining: false,
                failed: None,
                stats: GroupCommitStats::default(),
            }),
            durable: Condvar::new(),
            gate: Mutex::new(None),
        }
    }

    /// Install (or with `None`, remove) the quorum gate consulted by
    /// [`Self::wait_durable`]. In-flight waiters already past the local
    /// durability check keep the gate they started with.
    pub(crate) fn set_gate(&self, gate: Option<QuorumGate>) {
        *self.gate.lock().unwrap_or_else(|e| e.into_inner()) = gate;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GcState> {
        // A leader panicking mid-drain poisons the mutex; the queue state
        // itself is still consistent (`failed` handling below), so keep
        // serving rather than amplifying the panic.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue one record (see [`enqueue_all`]).
    #[cfg(test)]
    pub(crate) fn enqueue(&self, lsn: Lsn, rec: WalRecord) -> Result<()> {
        enqueue_all(std::slice::from_ref(self), vec![(0, lsn, rec)])
    }

    /// Block until every record at or below `lsn` is durable, becoming the
    /// drain leader if nobody else is. This is the `FsyncPolicy::Always`
    /// acknowledgement path.
    pub(crate) fn wait_durable(&self, lsn: Lsn) -> Result<()> {
        let mut st = self.lock();
        loop {
            if st.synced >= lsn {
                break;
            }
            if let Some(msg) = &st.failed {
                return Err(walerr(format!("record at lsn {lsn} was lost: {msg}")));
            }
            if st.draining {
                st = self.durable.wait(st).unwrap_or_else(|e| e.into_inner());
            } else {
                st = self.drain(st, true);
            }
        }
        drop(st);
        // Locally durable. A quorum gate (if installed) holds the ack
        // until enough replicas confirm the LSN — waited with the state
        // lock released so the queue keeps draining for other writers.
        let gate = self.gate.lock().unwrap_or_else(|e| e.into_inner()).clone();
        match gate {
            Some(gate) => gate.wait_confirmed(lsn),
            None => Ok(()),
        }
    }

    /// Write pending frames without requiring durability: fsync only if
    /// `force` or the writer's own policy says so. Used by the
    /// `EveryN`/`OnCheckpoint` paths to bound the in-memory queue.
    pub(crate) fn flush(&self, force: bool) -> Result<()> {
        let mut st = self.lock();
        while st.draining {
            st = self.durable.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(msg) = &st.failed {
            return Err(walerr(format!("commit queue failed earlier: {msg}")));
        }
        st = self.drain(st, force);
        match &st.failed {
            Some(msg) => Err(walerr(format!("commit queue failed: {msg}"))),
            None => Ok(()),
        }
    }

    /// The group-commit lag in records: appended but not yet durable.
    pub(crate) fn ack_lag(&self) -> u64 {
        let st = self.lock();
        st.appended.saturating_sub(st.synced)
    }

    pub(crate) fn stats(&self) -> GroupCommitStats {
        self.lock().stats
    }

    /// Replication term stamped into segments created by this queue's
    /// writer (waits out an in-flight drain for a consistent read).
    pub(crate) fn term(&self) -> u64 {
        let mut st = self.lock();
        while st.writer.is_none() {
            st = self.durable.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.writer.as_ref().expect("writer present").term()
    }

    /// Drain the pending queue as leader: take the writer, append every
    /// pending frame, fsync (if `durable` is requested or policy demands),
    /// publish the new synced watermark, and wake all waiters. Returns the
    /// re-acquired state guard so `wait_durable` can re-check its LSN.
    fn drain<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, GcState>,
        durable: bool,
    ) -> std::sync::MutexGuard<'a, GcState> {
        st.draining = true;
        let batch: Vec<(Lsn, WalRecord)> = std::mem::take(&mut st.pending);
        let mut writer = st.writer.take().expect("writer parked while not draining");
        drop(st);

        // File I/O happens with the state lock *released* so concurrent
        // mutators keep enqueuing into the next commit group.
        let mut error: Option<String> = None;
        for (lsn, rec) in &batch {
            if let Err(e) = writer.append_frame(*lsn, rec) {
                error = Some(e.to_string());
                break;
            }
        }
        let sync_result = if durable || error.is_some() {
            // On a partial append failure still try to make the written
            // prefix durable so prior waiters can be acknowledged.
            writer.sync()
        } else {
            writer.policy_sync()
        };
        let synced_to = writer.synced_lsn;
        if let Err(e) = sync_result {
            error.get_or_insert_with(|| e.to_string());
        }

        let mut st = self.lock();
        st.writer = Some(writer);
        st.draining = false;
        if synced_to > st.synced {
            let newly = batch.iter().filter(|(lsn, _)| *lsn <= synced_to).count() as u64;
            st.synced = synced_to;
            if newly > 0 {
                st.stats.fsyncs += 1;
                st.stats.committed_records += newly;
                st.stats.max_group = st.stats.max_group.max(newly);
            }
        }
        if let Some(msg) = error {
            // Park the batch records the fsync did not cover: they may be
            // partially on disk (a torn append) or not at all, but the
            // staged in-memory state has already applied them, so
            // [`Self::reopen`] can repair the tail and re-append them.
            let mut parked: Vec<(Lsn, WalRecord)> = batch
                .into_iter()
                .filter(|(lsn, _)| *lsn > synced_to)
                .collect();
            parked.append(&mut st.pending);
            st.pending = parked;
            st.failed = Some(msg);
        }
        // Records enqueued while we were draining stay in `pending` for
        // the next leader.
        self.durable.notify_all();
        st
    }

    /// Explicit recovery from the fail-stop state: re-scan and repair the
    /// WAL directory (truncating any torn tail the failed append left),
    /// re-append every parked record the repaired log is missing, fsync,
    /// and rebase the watermarks. Acknowledgements issued **before** the
    /// failure keep their durability promise — the repair never truncates
    /// below the synced watermark, because every acknowledged record was
    /// covered by an fsync that preceded the failure. On a healthy queue
    /// this is a no-op returning current health.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] if the directory repair or the re-append
    /// fails; the queue then stays fail-stopped and `reopen` may be
    /// retried.
    pub(crate) fn reopen(&self) -> Result<WalHealth> {
        let mut st = self.lock();
        while st.draining || st.writer.is_none() {
            st = self.durable.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.failed.is_none() {
            drop(st);
            return Ok(self.health());
        }
        let (dir, opts) = {
            let w = st
                .writer
                .as_ref()
                .expect("writer parked while not draining");
            (w.dir.clone(), w.opts)
        };
        let parked: Vec<(Lsn, WalRecord)> = std::mem::take(&mut st.pending);
        // Hold `draining` so no other thread touches the writer slot while
        // the repair runs without the lock. The old (failed) writer stays
        // in place so `health()`/`fsync_count()` never hang if we fail.
        st.draining = true;
        drop(st);

        let outcome = (|| {
            let (mut writer, _scan) = WalWriter::open_repair(&dir, opts)?;
            for (lsn, rec) in &parked {
                if *lsn <= writer.last_lsn {
                    // The record survived on disk intact (e.g. the crash
                    // hit after its append); nothing to redo.
                    continue;
                }
                writer.append_frame(*lsn, rec)?;
            }
            writer.sync()?;
            Ok(writer)
        })();

        let mut st = self.lock();
        st.draining = false;
        let out = match outcome {
            Ok(writer) => {
                st.appended = st.appended.max(writer.last_lsn);
                st.synced = writer.synced_lsn;
                st.writer = Some(writer);
                st.failed = None;
                Ok(())
            }
            Err(e) => {
                // Still fail-stopped; put the parked records back so a
                // retry (or a post-mortem) still sees them.
                st.pending = parked;
                st.failed = Some(format!("reopen failed: {e}"));
                Err(e)
            }
        };
        drop(st);
        self.durable.notify_all();
        out.map(|()| self.health())
    }

    /// Run `f` with exclusive access to the underlying writer, after
    /// draining and fsyncing everything pending. Checkpoints use this for
    /// truncation.
    pub(crate) fn with_writer<T>(&self, f: impl FnOnce(&mut WalWriter) -> Result<T>) -> Result<T> {
        self.flush(true)?;
        let mut st = self.lock();
        while st.draining {
            st = self.durable.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        debug_assert!(st.pending.is_empty(), "flush(true) drained the queue");
        let mut writer = st.writer.take().expect("writer parked while not draining");
        st.draining = true;
        drop(st);
        let out = f(&mut writer);
        let mut st = self.lock();
        let (last, synced) = (writer.last_lsn, writer.synced_lsn);
        st.writer = Some(writer);
        st.draining = false;
        if out.is_ok() {
            // A checkpoint truncation rebases both watermarks (possibly
            // downward — the covered records are now owned by a snapshot).
            st.appended = last;
            st.synced = synced;
        }
        drop(st);
        self.durable.notify_all();
        out
    }

    /// Current WAL health including group-commit watermarks.
    pub(crate) fn health(&self) -> WalHealth {
        let mut st = self.lock();
        while st.writer.is_none() {
            st = self.durable.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let mut h = st.writer.as_ref().expect("writer present").health();
        h.appended_lsn = st.appended;
        h.last_lsn = st.appended;
        h.acked_lsn = st.synced;
        h.unsynced_records = st.appended.saturating_sub(st.synced);
        h
    }

    /// Data fsyncs issued by the underlying writer (leader drains plus
    /// rotation/checkpoint syncs).
    pub(crate) fn fsync_count(&self) -> u64 {
        let mut st = self.lock();
        while st.writer.is_none() {
            st = self.durable.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.writer.as_ref().expect("writer present").fsync_count()
    }
}

/// Enqueue `(queue, lsn, record)` entries across `queues` all or nothing:
/// lock every touched queue in index order, refuse the whole set if any
/// of them has fail-stopped or would go non-monotonic, and only then push.
/// LSNs must be assigned under the caller's serialization (the durable
/// engine holds its writer mutex) and ascend within each queue, so every
/// `pending` list stays LSN-ordered.
pub(crate) fn enqueue_all(
    queues: &[GroupCommitQueue],
    entries: Vec<(usize, Lsn, WalRecord)>,
) -> Result<()> {
    let mut states: Vec<Option<std::sync::MutexGuard<'_, GcState>>> =
        queues.iter().map(|_| None).collect();
    let mut touched: Vec<usize> = entries.iter().map(|&(q, _, _)| q).collect();
    touched.sort_unstable();
    touched.dedup();
    for &q in &touched {
        let st = queues[q].lock();
        if let Some(msg) = &st.failed {
            return Err(walerr(format!("commit queue failed earlier: {msg}")));
        }
        states[q] = Some(st);
    }
    for &(q, lsn, _) in &entries {
        let appended = states[q].as_ref().expect("touched queue locked").appended;
        if lsn <= appended {
            return Err(walerr(format!(
                "non-monotonic lsn {lsn} enqueued (last {appended})"
            )));
        }
    }
    for (q, lsn, rec) in entries {
        let st = states[q].as_mut().expect("touched queue locked");
        st.appended = lsn;
        st.pending.push((lsn, rec));
    }
    Ok(())
}

impl Drop for GroupCommitQueue {
    /// Best-effort drain on clean shutdown: write any still-queued frames
    /// (fsyncing only if the writer's policy says so), so every enqueued
    /// record reaches the file. A crash before this runs is exactly the
    /// bounded-loss window the fsync policy already permits for
    /// unacknowledged work.
    fn drop(&mut self) {
        let _ = self.flush(false);
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub(crate) generation: u64,
    pub(crate) watermark: Lsn,
    /// Replication term (fencing token); 0 on a never-replicated set.
    pub(crate) term: u64,
}

pub(crate) fn write_manifest(dir: &Path, m: Manifest) -> Result<()> {
    let mut buf = BytesMut::new();
    buf.put_slice(MANIFEST_MAGIC);
    buf.put_u64_le(m.generation);
    buf.put_u64_le(m.watermark);
    buf.put_u64_le(m.term);
    let mut out = buf.freeze().to_vec();
    crate::frame::seal_vec(&mut out);
    crate::persist::atomic_save(
        &out,
        &dir.join(MANIFEST_FILE),
        &mut crate::fault::StdIo,
        &SaveOptions::default(),
    )
}

pub(crate) fn read_manifest(dir: &Path) -> Result<Manifest> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            walerr(format!(
                "{} is not a durable index directory (no CHECKPOINT manifest)",
                dir.display()
            ))
        } else {
            walio("read manifest", e)
        }
    })?;
    if bytes.len() != 40 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(walerr("corrupt CHECKPOINT manifest"));
    }
    let Some(body) = crate::frame::open_sealed(&bytes) else {
        return Err(walerr("CHECKPOINT manifest failed its CRC"));
    };
    let mut buf = Bytes::copy_from_slice(&body[8..]);
    Ok(Manifest {
        generation: buf.get_u64_le(),
        watermark: buf.get_u64_le(),
        term: buf.get_u64_le(),
    })
}

pub(crate) fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:020}.plnr"))
}

/// Best-effort removal of snapshot generations other than `current` (a
/// crash between manifest publish and cleanup leaves one behind).
pub(crate) fn sweep_snapshots(dir: &Path, current: u64) {
    let keep = snapshot_path(dir, current);
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snapshot-") && name.ends_with(".plnr") && entry.path() != keep {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Refuse to initialize `dir` over an existing durable index or over the
/// remnants of one.
pub(crate) fn ensure_fresh_dir(dir: &Path) -> Result<()> {
    fs::create_dir_all(dir).map_err(|e| walio("create durable dir", e))?;
    if dir.join(MANIFEST_FILE).exists() {
        return Err(walerr(format!(
            "{} already contains a durable index (open it instead)",
            dir.display()
        )));
    }
    // A wal/ subtree without a manifest is a half-deleted durable set.
    // Starting a fresh log at LSN 1 beneath stale high-LSN segments would
    // make every subsequent append fail as non-monotonic, so refuse.
    let wal = dir.join(WAL_SUBDIR);
    match fs::read_dir(&wal) {
        Ok(mut entries) => {
            if entries.next().is_some() {
                return Err(walerr(format!(
                    "{} holds WAL remnants but no CHECKPOINT manifest; \
                     remove them or pick a fresh directory",
                    wal.display()
                )));
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(walio("read wal dir", e)),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Durable directory helpers
// ---------------------------------------------------------------------------

/// Pre-validate a mutation row so nothing unreplayable is ever logged:
/// the write-ahead contract is log-then-apply, so the apply must be
/// infallible once the record is on disk.
pub(crate) fn validate_row(dim: usize, row: &[f64]) -> Result<()> {
    if row.len() != dim {
        return Err(PlanarError::DimensionMismatch {
            expected: dim,
            found: row.len(),
        });
    }
    if row.iter().any(|v| !v.is_finite()) {
        return Err(PlanarError::NotFinite);
    }
    Ok(())
}

/// One shard's WAL directory.
pub(crate) fn shard_wal_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(WAL_SUBDIR).join(format!("shard-{shard:04}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{ConcurrencyConfig, ConcurrentDurableShardedIndexSet};
    use crate::domain::ParameterDomain;
    use crate::fault::{self, TempDir, WalFaultKind};
    use crate::multi::IndexConfig;
    use crate::query::{Cmp, InequalityQuery, TopKQuery};
    use crate::shard::{ShardConfig, ShardedIndexSet};
    use crate::table::FeatureTable;
    use crate::VecStore;
    use std::sync::Mutex;

    type Durable = ConcurrentDurableShardedIndexSet<VecStore>;

    /// An `n`-row set over `shards` round-robin shards; one shard is the
    /// unsharded engine, with a single WAL writer.
    fn small_set(n: usize, shards: usize) -> ShardedIndexSet<VecStore> {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![1.0 + (i % 13) as f64, 1.0 + (i % 7) as f64])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
        ShardedIndexSet::build(
            table,
            domain,
            IndexConfig::with_budget(4),
            ShardConfig::round_robin(shards),
        )
        .unwrap()
    }

    fn create(dir: &Path, set: ShardedIndexSet<VecStore>, opts: WalOptions) -> Result<Durable> {
        Durable::create(dir, set, opts, ConcurrencyConfig::default())
    }

    fn open(dir: &Path, opts: WalOptions) -> Result<(Durable, crate::ShardedRecoveryReport)> {
        Durable::open(dir, opts, ConcurrencyConfig::default())
    }

    fn assert_same_answers(a: &ShardedIndexSet<VecStore>, b: &ShardedIndexSet<VecStore>) {
        for q in probes() {
            assert_eq!(
                a.query(&q).unwrap().sorted_ids(),
                b.query(&q).unwrap().sorted_ids()
            );
        }
    }

    fn probes() -> Vec<InequalityQuery> {
        [10.0, 14.0, 18.0]
            .iter()
            .map(|&b| InequalityQuery::new(vec![1.0, 1.5], Cmp::Leq, b).unwrap())
            .collect()
    }

    fn every_record() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                id: 7,
                row: vec![1.0, -2.5],
            },
            WalRecord::Update {
                id: 3,
                row: vec![0.25, 9.0],
            },
            WalRecord::Delete { id: 11 },
            WalRecord::Compact { threshold: None },
            WalRecord::Compact {
                threshold: Some(0.125),
            },
            WalRecord::Checkpoint { watermark: 42 },
        ]
    }

    #[test]
    fn frame_roundtrip_every_record_kind() {
        for (i, rec) in every_record().iter().enumerate() {
            let lsn = (i as Lsn + 1) * 10;
            let frame = encode_frame(lsn, rec);
            let (consumed, got_lsn, got) = parse_frame(&frame).expect("frame parses");
            assert_eq!(consumed, frame.len());
            assert_eq!(got_lsn, lsn);
            assert_eq!(&got, rec);
        }
    }

    #[test]
    fn parse_frame_rejects_any_corruption() {
        let frame = encode_frame(
            5,
            &WalRecord::Insert {
                id: 1,
                row: vec![2.0, 3.0],
            },
        );
        // Truncation anywhere is a torn tail, not a frame.
        for cut in 0..frame.len() {
            assert!(parse_frame(&frame[..cut]).is_none(), "cut at {cut}");
        }
        // A flip anywhere breaks the CRC (or the CRC itself).
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(parse_frame(&bad).is_none(), "flip at {i}");
        }
        // A length field past the cap can never drive an allocation.
        let mut huge = frame.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse_frame(&huge).is_none());
    }

    #[test]
    fn writer_rotates_segments_and_scan_reads_in_order() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_rotate").unwrap();
        let opts = WalOptions::default()
            .fsync(FsyncPolicy::OnCheckpoint)
            .segment_max_bytes(4096);
        let (mut w, scan) = WalWriter::open_repair(tmp.path(), opts).unwrap();
        assert!(scan.frames.is_empty());
        for lsn in 1..=200u64 {
            w.append(
                lsn,
                &WalRecord::Insert {
                    id: lsn as PointId,
                    row: vec![lsn as f64, 0.5],
                },
            )
            .unwrap();
        }
        assert!(w.health().segments >= 2, "4 KiB segments must rotate");
        assert_eq!(w.health().last_lsn, 200);
        // Appends must stay monotonic.
        assert!(w.append(200, &WalRecord::Delete { id: 0 }).is_err());
        w.sync().unwrap();
        drop(w);
        let scan = scan_dir(tmp.path()).unwrap();
        assert_eq!(scan.frames.len(), 200);
        assert!(scan.frames.windows(2).all(|p| p[0].0 < p[1].0));
        assert_eq!(scan.dropped_records, 0);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn fsync_policy_governs_unsynced_window() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_fsync").unwrap();
        let rec = WalRecord::Delete { id: 1 };
        let (mut w, _) = WalWriter::open_repair(tmp.path(), WalOptions::default()).unwrap();
        w.append(1, &rec).unwrap();
        assert_eq!(w.health().unsynced_records, 0, "Always syncs per record");
        drop(w);

        let tmp = TempDir::new("wal_fsync_n").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(3));
        let (mut w, _) = WalWriter::open_repair(tmp.path(), opts).unwrap();
        w.append(1, &rec).unwrap();
        w.append(2, &rec).unwrap();
        assert_eq!(w.health().unsynced_records, 2);
        w.append(3, &rec).unwrap();
        assert_eq!(w.health().unsynced_records, 0, "third append syncs");
        drop(w);

        let tmp = TempDir::new("wal_fsync_ckpt").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::OnCheckpoint);
        let (mut w, _) = WalWriter::open_repair(tmp.path(), opts).unwrap();
        for lsn in 1..=5 {
            w.append(lsn, &rec).unwrap();
        }
        assert_eq!(w.health().unsynced_records, 5);
        w.sync().unwrap();
        assert_eq!(w.health().unsynced_records, 0);
    }

    #[test]
    fn corrupt_frame_drops_suffix_and_repair_truncates() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_corrupt").unwrap();
        let (mut w, _) = WalWriter::open_repair(tmp.path(), WalOptions::default()).unwrap();
        let mut offsets = vec![SEGMENT_HEADER_LEN as u64]; // byte offset of each frame
        for lsn in 1..=10u64 {
            let rec = WalRecord::Delete { id: lsn as PointId };
            offsets.push(offsets.last().unwrap() + encode_frame(lsn, &rec).len() as u64);
            w.append(lsn, &rec).unwrap();
        }
        drop(w);
        // Flip a payload byte of frame 8 (1-based): its length field is
        // intact, so frames 8..=10 stay structurally complete but frame 8
        // fails its CRC and everything from it on is unusable.
        let seg = list_segments(tmp.path()).unwrap().pop().unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        bytes[offsets[7] as usize + FRAME_HEADER] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();

        let scan = scan_dir(tmp.path()).unwrap();
        assert_eq!(scan.frames.len(), 7);
        assert_eq!(scan.dropped_records, 3);
        assert_eq!(scan.torn_bytes, 0);

        // Repair truncates the file at the last valid frame and the writer
        // resumes from there.
        let (mut w, scan) = WalWriter::open_repair(tmp.path(), WalOptions::default()).unwrap();
        assert_eq!(scan.frames.len(), 7);
        assert_eq!(w.health().last_lsn, 7);
        assert_eq!(fs::metadata(&seg).unwrap().len(), offsets[7]);
        w.append(8, &WalRecord::Delete { id: 99 }).unwrap();
        drop(w);
        let scan = scan_dir(tmp.path()).unwrap();
        assert_eq!(scan.frames.len(), 8);
        assert_eq!(scan.dropped_records, 0);
    }

    #[test]
    fn torn_header_at_rotation_keeps_prior_segments() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_torn_header").unwrap();
        let (mut w, _) = WalWriter::open_repair(tmp.path(), WalOptions::default()).unwrap();
        for lsn in 1..=5u64 {
            w.append(lsn, &WalRecord::Delete { id: lsn as PointId })
                .unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let healthy = list_segments(tmp.path()).unwrap().pop().unwrap();
        let healthy_len = fs::metadata(&healthy).unwrap().len();
        // A crash during rotation: the next segment file exists but its
        // header never became durable (empty, or a partial magic).
        for torn in [&b""[..], &SEGMENT_MAGIC[..4]] {
            fs::write(segment_path(tmp.path(), 6), torn).unwrap();
            let (w, scan) = WalWriter::open_repair(tmp.path(), WalOptions::default()).unwrap();
            assert_eq!(scan.frames.len(), 5, "acknowledged records survive");
            assert_eq!(scan.torn_bytes, torn.len());
            assert_eq!(w.health().last_lsn, 5);
            assert_eq!(
                fs::metadata(&healthy).unwrap().len(),
                healthy_len,
                "the healthy segment must not be touched"
            );
            drop(w);
            let scan = scan_dir(tmp.path()).unwrap();
            assert_eq!(scan.frames.len(), 5, "still durable after repair");
        }
        // The repaired log keeps accepting appends past the old records.
        let (mut w, _) = WalWriter::open_repair(tmp.path(), WalOptions::default()).unwrap();
        w.append(6, &WalRecord::Delete { id: 99 }).unwrap();
        w.sync().unwrap();
        drop(w);
        assert_eq!(scan_dir(tmp.path()).unwrap().frames.len(), 6);
    }

    #[test]
    fn partial_tail_bytes_are_torn_not_dropped() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_torn").unwrap();
        let (mut w, _) = WalWriter::open_repair(tmp.path(), WalOptions::default()).unwrap();
        for lsn in 1..=4u64 {
            w.append(lsn, &WalRecord::Delete { id: lsn as PointId })
                .unwrap();
        }
        drop(w);
        let seg = list_segments(tmp.path()).unwrap().pop().unwrap();
        let frame = encode_frame(5, &WalRecord::Delete { id: 5 });
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        fs::write(&seg, &bytes).unwrap();

        let scan = scan_dir(tmp.path()).unwrap();
        assert_eq!(scan.frames.len(), 4);
        assert_eq!(scan.dropped_records, 0);
        assert_eq!(scan.torn_bytes, frame.len() / 2);
    }

    #[test]
    fn manifest_roundtrip_and_corruption_are_typed() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_manifest").unwrap();
        let m = Manifest {
            generation: 9,
            watermark: 1234,
            term: 3,
        };
        write_manifest(tmp.path(), m).unwrap();
        assert_eq!(read_manifest(tmp.path()).unwrap(), m);

        let mut bytes = fs::read(tmp.file(MANIFEST_FILE)).unwrap();
        bytes[10] ^= 0x01;
        fs::write(tmp.file(MANIFEST_FILE), &bytes).unwrap();
        let err = read_manifest(tmp.path()).unwrap_err().to_string();
        assert!(err.contains("CRC"), "got: {err}");

        let empty = TempDir::new("wal_manifest_missing").unwrap();
        let err = read_manifest(empty.path()).unwrap_err().to_string();
        assert!(err.contains("not a durable index directory"), "got: {err}");
    }

    #[test]
    fn durable_set_recovers_unsnapshotted_mutations() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_planar_rt").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
        let durable = create(tmp.path(), small_set(120, 1), opts).unwrap();
        let mut twin = small_set(120, 1);

        for i in 0..30 {
            let row = vec![2.0 + (i % 9) as f64, 3.0 + (i % 5) as f64];
            let a = durable.insert_point(&row).unwrap();
            let b = twin.insert_point(&row).unwrap();
            assert_eq!(a, b);
        }
        for id in [3u32, 40, 121] {
            durable.update_point(id, &[6.5, 6.5]).unwrap();
            twin.update_point(id, &[6.5, 6.5]).unwrap();
        }
        for id in [10u32, 11, 130] {
            durable.delete_point(id).unwrap();
            twin.delete_point(id).unwrap();
        }
        assert_eq!(durable.compact(0.01).unwrap(), twin.compact(0.01));
        assert_eq!(durable.wal_health().last_lsn, 37);
        drop(durable); // killed without a checkpoint

        let (recovered, report) = open(tmp.path(), opts).unwrap();
        assert_eq!(report.wal_replayed, 37);
        assert_eq!(report.wal_dropped, 0);
        assert_eq!(report.wal_torn_bytes, 0);
        assert_eq!(report.shard_watermarks, vec![37]);
        let recovered = recovered.snapshot();
        assert_eq!(recovered.len(), twin.len());
        assert_same_answers(&recovered, &twin);
        let tk = TopKQuery::new(probes().remove(1), 5).unwrap();
        assert_eq!(
            recovered.top_k(&tk).unwrap().neighbors,
            twin.top_k(&tk).unwrap().neighbors
        );
    }

    #[test]
    fn checkpoint_truncates_and_only_later_records_replay() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_ckpt").unwrap();
        let opts = WalOptions::default();
        let durable = create(tmp.path(), small_set(60, 1), opts).unwrap();
        let mut twin = small_set(60, 1);
        for i in 0..10 {
            let row = vec![2.0 + i as f64, 4.0];
            durable.insert_point(&row).unwrap();
            twin.insert_point(&row).unwrap();
        }
        let watermark = durable.checkpoint().unwrap();
        assert_eq!(watermark, 11, "10 inserts + checkpoint marker");
        let h = durable.wal_health();
        assert_eq!(h.segments, 1);
        assert_eq!(h.last_lsn, watermark, "log truncated to the watermark");
        assert!(
            !snapshot_path(tmp.path(), 1).exists(),
            "stale snapshot generation swept"
        );
        assert!(snapshot_path(tmp.path(), 2).exists());

        durable.delete_point(5).unwrap();
        twin.delete_point(5).unwrap();
        drop(durable);

        let (recovered, report) = open(tmp.path(), opts).unwrap();
        assert_eq!(report.wal_replayed, 1, "pre-checkpoint records are covered");
        assert_same_answers(&recovered.snapshot(), &twin);
    }

    #[test]
    fn create_and_open_misuse_is_typed() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_misuse").unwrap();
        let opts = WalOptions::default();
        let d = create(tmp.path(), small_set(20, 1), opts).unwrap();
        drop(d);
        let err = create(tmp.path(), small_set(20, 1), opts)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("already contains a durable index"),
            "got: {err}"
        );

        let fresh = TempDir::new("wal_misuse_fresh").unwrap();
        let err = open(fresh.path(), opts).unwrap_err().to_string();
        assert!(err.contains("not a durable index directory"), "got: {err}");
    }

    #[test]
    fn create_refuses_wal_remnants_without_manifest() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_remnants").unwrap();
        let opts = WalOptions::default();
        let d = create(tmp.path(), small_set(20, 1), opts).unwrap();
        d.insert_point(&[2.0, 2.0]).unwrap();
        drop(d);
        // Partial cleanup: the manifest is gone but high-LSN segments
        // linger. Re-creating at LSN 1 underneath them would brick every
        // subsequent append as non-monotonic.
        fs::remove_file(tmp.file(MANIFEST_FILE)).unwrap();
        let err = create(tmp.path(), small_set(20, 1), opts)
            .unwrap_err()
            .to_string();
        assert!(err.contains("WAL remnants"), "got: {err}");
    }

    #[test]
    fn fail_append_fail_stops_until_reopen() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_failapp").unwrap();
        let opts = WalOptions::default();
        let durable = create(tmp.path(), small_set(40, 1), opts).unwrap();
        fault::arm_wal_fault(0, WalFaultKind::FailAppend);
        let err = durable.insert_point(&[5.0, 5.0]).unwrap_err().to_string();
        fault::disarm_wal_fault();
        assert!(err.contains("transient append failure"), "got: {err}");
        assert_eq!(durable.wal_health().acked_lsn, 0, "nothing acknowledged");
        // The queue fail-stops: nothing more is logged until a reopen.
        let err = durable.insert_point(&[6.0, 6.0]).unwrap_err().to_string();
        assert!(err.contains("failed earlier"), "got: {err}");
        // Reopen re-appends the applied-but-unlogged insert and restores
        // service.
        assert_eq!(durable.reopen_wal().unwrap().acked_lsn, 1);
        assert_eq!(durable.insert_point(&[6.0, 6.0]).unwrap(), 41);
        drop(durable);
        let (recovered, report) = open(tmp.path(), opts).unwrap();
        assert_eq!(report.wal_replayed, 2);
        assert_eq!(recovered.snapshot().len(), 42);
    }

    #[test]
    fn torn_append_crash_recovers_durable_prefix() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_tornapp").unwrap();
        let opts = WalOptions::default();
        let durable = create(tmp.path(), small_set(40, 1), opts).unwrap();
        let mut twin = small_set(40, 1);
        for i in 0..6 {
            let row = vec![3.0 + i as f64, 2.0];
            durable.insert_point(&row).unwrap();
            twin.insert_point(&row).unwrap();
        }
        fault::arm_wal_fault(6, WalFaultKind::TornAppend { keep: 9 });
        assert!(durable.insert_point(&[9.0, 9.0]).is_err());
        // The log is dead from here on — like after a power cut.
        let err = durable.delete_point(0).unwrap_err().to_string();
        assert!(err.contains("crash mid-frame"), "got: {err}");
        fault::disarm_wal_fault();
        drop(durable);

        let (recovered, report) = open(tmp.path(), opts).unwrap();
        assert_eq!(report.wal_replayed, 6);
        assert_eq!(report.wal_torn_bytes, 9, "the half-written frame");
        assert_eq!(report.wal_dropped, 0);
        assert_same_answers(&recovered.snapshot(), &twin);
        // The repaired log keeps accepting appends.
        recovered.insert_point(&[1.0, 1.0]).unwrap();
    }

    #[test]
    fn crash_after_append_keeps_the_whole_record() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_crashafter").unwrap();
        let opts = WalOptions::default();
        let durable = create(tmp.path(), small_set(40, 1), opts).unwrap();
        let mut twin = small_set(40, 1);
        for i in 0..3 {
            let row = vec![3.0 + i as f64, 2.0];
            durable.insert_point(&row).unwrap();
            twin.insert_point(&row).unwrap();
        }
        fault::arm_wal_fault(3, WalFaultKind::CrashAfterAppend);
        // The 4th mutation is fully logged before the "crash".
        durable.insert_point(&[8.0, 8.0]).unwrap();
        twin.insert_point(&[8.0, 8.0]).unwrap();
        assert!(durable.insert_point(&[1.0, 1.0]).is_err());
        fault::disarm_wal_fault();
        drop(durable);

        let (recovered, report) = open(tmp.path(), opts).unwrap();
        assert_eq!(report.wal_replayed, 4);
        assert_same_answers(&recovered.snapshot(), &twin);
    }

    #[test]
    fn durable_sharded_recovers_across_shard_logs() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_sharded_rt").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(8));
        let durable = create(tmp.path(), small_set(90, 3), opts).unwrap();
        let mut twin = small_set(90, 3);
        for i in 0..20 {
            let row = vec![2.0 + (i % 7) as f64, 3.0];
            assert_eq!(
                durable.insert_point(&row).unwrap(),
                twin.insert_point(&row).unwrap()
            );
        }
        for id in [1u32, 50, 95] {
            durable.update_point(id, &[4.0, 4.0]).unwrap();
            twin.update_point(id, &[4.0, 4.0]).unwrap();
        }
        for id in [2u32, 51, 96] {
            durable.delete_point(id).unwrap();
            twin.delete_point(id).unwrap();
        }
        assert_eq!(durable.compact(0.01).unwrap(), twin.compact(0.01));
        assert!(durable.wal_health().segments >= 3, "one log per shard");
        drop(durable); // killed mid-fsync-window

        let (recovered, report) = open(tmp.path(), opts).unwrap();
        assert_eq!(report.shard_watermarks.len(), 3);
        assert_eq!(report.wal_dropped, 0);
        assert!(report.wal_replayed >= 26, "20 inserts + 6 point ops");
        let recovered = recovered.snapshot();
        assert_same_answers(&recovered, &twin);
        let tk = TopKQuery::new(probes().remove(0), 7).unwrap();
        assert_eq!(
            recovered.top_k(&tk).unwrap().neighbors,
            twin.top_k(&tk).unwrap().neighbors
        );
    }

    #[test]
    fn wal_health_acked_vs_appended_converge_on_sync() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_acked").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(8));
        let durable = create(tmp.path(), small_set(6, 1), opts).unwrap();
        for i in 0..5 {
            durable.insert_point(&[2.0 + i as f64, 3.0]).unwrap();
        }
        let h = durable.wal_health();
        assert_eq!(h.appended_lsn, 5);
        assert_eq!(h.acked_lsn, 0, "nothing fsynced yet under EveryN(8)");
        assert_eq!(h.ack_lag(), 5);
        assert_eq!(h.unsynced_records, 5);
        durable.sync().unwrap();
        let h = durable.wal_health();
        assert_eq!(h.acked_lsn, h.appended_lsn, "sync converges the watermarks");
        assert_eq!(h.ack_lag(), 0);
        assert_eq!(h.unsynced_records, 0);
    }

    #[test]
    fn wal_health_merge_keeps_most_conservative_acked() {
        let a = WalHealth {
            segments: 1,
            unsynced_records: 0,
            last_lsn: 10,
            appended_lsn: 10,
            acked_lsn: 10,
        };
        let b = WalHealth {
            segments: 2,
            unsynced_records: 3,
            last_lsn: 7,
            appended_lsn: 7,
            acked_lsn: 4,
        };
        let mut merged = WalHealth::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.appended_lsn, 10, "appended is the max");
        assert_eq!(merged.acked_lsn, 4, "acked is the laggard's watermark");
        assert_eq!(merged.ack_lag(), 6);
        // Order must not matter.
        let mut rev = WalHealth::default();
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(rev.acked_lsn, 4);
        assert_eq!(rev.appended_lsn, 10);
    }

    #[test]
    fn apply_batch_is_one_fsync_and_matches_serial() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_batch").unwrap();
        let opts = WalOptions::default(); // Always
        let durable = create(tmp.path(), small_set(20, 1), opts).unwrap();
        let mut twin = small_set(20, 1);

        let muts = vec![
            Mutation::Insert {
                row: vec![2.0, 8.0],
            },
            Mutation::Insert {
                row: vec![5.0, 5.0],
            },
            Mutation::Update {
                id: 20,
                row: vec![3.0, 3.0],
            },
            Mutation::Delete { id: 2 },
            Mutation::Delete { id: 21 },
        ];
        let before = durable.fsync_count();
        let acks = durable.apply_batch(&muts).unwrap();
        assert_eq!(
            durable.fsync_count() - before,
            1,
            "a whole batch commits with one fsync under Always"
        );
        assert_eq!(
            acks,
            vec![
                MutationAck::Inserted(20),
                MutationAck::Inserted(21),
                MutationAck::Updated,
                MutationAck::Deleted,
                MutationAck::Deleted,
            ]
        );
        let h = durable.wal_health();
        assert_eq!(
            h.acked_lsn, h.appended_lsn,
            "batch was acknowledged durable"
        );

        twin.insert_point(&[2.0, 8.0]).unwrap();
        twin.insert_point(&[5.0, 5.0]).unwrap();
        twin.update_point(20, &[3.0, 3.0]).unwrap();
        twin.delete_point(2).unwrap();
        twin.delete_point(21).unwrap();
        assert_same_answers(&durable.snapshot(), &twin);

        // A batch that fails validation must log and apply nothing.
        let before_lsn = durable.wal_health().appended_lsn;
        let bad = vec![
            Mutation::Insert {
                row: vec![1.0, 1.0],
            },
            Mutation::Update {
                id: 9999,
                row: vec![1.0, 1.0],
            },
        ];
        assert!(matches!(
            durable.apply_batch(&bad),
            Err(PlanarError::PointNotFound(9999))
        ));
        assert_eq!(durable.wal_health().appended_lsn, before_lsn);

        // Crash-equivalent reopen replays the whole batch.
        drop(durable);
        let (recovered, report) = open(tmp.path(), opts).unwrap();
        assert_eq!(report.wal_replayed, 5);
        assert_same_answers(&recovered.snapshot(), &twin);
    }

    #[test]
    fn sharded_apply_batch_fsyncs_once_per_touched_shard() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_shard_batch").unwrap();
        let opts = WalOptions::default(); // Always
        let durable = create(tmp.path(), small_set(30, 3), opts).unwrap();
        let mut twin = small_set(30, 3);

        // Six round-robin inserts touch all three shards.
        let muts: Vec<Mutation> = (0..6)
            .map(|i| Mutation::Insert {
                row: vec![2.0 + i as f64, 4.0],
            })
            .collect();
        let before = durable.fsync_count();
        let acks = durable.apply_batch(&muts).unwrap();
        assert_eq!(
            durable.fsync_count() - before,
            3,
            "one fsync per touched shard, not per record"
        );
        for (i, ack) in acks.iter().enumerate() {
            assert_eq!(*ack, MutationAck::Inserted(30 + i as PointId));
        }
        for m in &muts {
            if let Mutation::Insert { row } = m {
                twin.insert_point(row).unwrap();
            }
        }
        let h = durable.wal_health();
        assert_eq!(h.appended_lsn, 6);
        assert_eq!(h.acked_lsn, 6);

        drop(durable);
        let (recovered, report) = open(tmp.path(), opts).unwrap();
        assert_eq!(report.wal_replayed, 6);
        assert_same_answers(&recovered.snapshot(), &twin);
    }

    #[test]
    fn group_commit_queue_amortizes_and_acks_durably() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_gcq").unwrap();
        let opts = WalOptions::default(); // Always
        let (writer, _) = WalWriter::open_repair(tmp.path(), opts).unwrap();
        let queue = GroupCommitQueue::new(writer);
        let next = Mutex::new(1u64);

        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 16;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        let lsn = {
                            let mut n = next.lock().unwrap();
                            let lsn = *n;
                            queue
                                .enqueue(lsn, WalRecord::Delete { id: lsn as u32 })
                                .unwrap();
                            *n += 1;
                            lsn
                        };
                        queue.wait_durable(lsn).unwrap();
                    }
                });
            }
        });

        let total = THREADS * PER_THREAD;
        let h = queue.health();
        assert_eq!(h.appended_lsn, total);
        assert_eq!(h.acked_lsn, total, "every waiter was acknowledged durable");
        let stats = queue.stats();
        assert_eq!(stats.committed_records, total);
        assert!(stats.fsyncs <= total, "never worse than fsync-per-record");
        assert!(stats.mean_group() >= 1.0);
        assert!(stats.max_group >= 1);

        // Everything acknowledged is on disk in LSN order.
        drop(queue);
        let scan = scan_dir(tmp.path()).unwrap();
        let lsns: Vec<Lsn> = scan.frames.iter().map(|&(lsn, _)| lsn).collect();
        assert_eq!(lsns, (1..=total).collect::<Vec<_>>());
    }

    #[test]
    fn group_commit_queue_flush_converges_everyn() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_gcq_lazy").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(64));
        let (writer, _) = WalWriter::open_repair(tmp.path(), opts).unwrap();
        let queue = GroupCommitQueue::new(writer);
        for lsn in 1..=10u64 {
            queue
                .enqueue(lsn, WalRecord::Delete { id: lsn as u32 })
                .unwrap();
        }
        assert_eq!(queue.ack_lag(), 10);
        // Non-forced flush writes frames but leaves durability to policy.
        queue.flush(false).unwrap();
        assert_eq!(queue.health().appended_lsn, 10);
        // Forced flush converges acked to appended.
        queue.flush(true).unwrap();
        let h = queue.health();
        assert_eq!(h.acked_lsn, 10);
        assert_eq!(h.ack_lag(), 0);
    }

    #[test]
    fn group_commit_queue_reopen_restores_service_and_prior_acks() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_gcq_reopen").unwrap();
        let (writer, _) = WalWriter::open_repair(tmp.path(), WalOptions::default()).unwrap();
        let queue = GroupCommitQueue::new(writer);
        for lsn in 1..=5u64 {
            queue
                .enqueue(lsn, WalRecord::Delete { id: lsn as u32 })
                .unwrap();
        }
        queue.wait_durable(5).unwrap();
        assert_eq!(queue.health().acked_lsn, 5);

        // The sixth append (0-based #5) tears mid-frame and fail-stops
        // the queue.
        fault::arm_wal_fault(5, WalFaultKind::TornAppend { keep: 3 });
        queue.enqueue(6, WalRecord::Delete { id: 6 }).unwrap();
        assert!(queue.wait_durable(6).is_err(), "queue must fail-stop");
        fault::disarm_wal_fault();
        assert!(
            queue.enqueue(7, WalRecord::Delete { id: 7 }).is_err(),
            "fail-stopped queue refuses new work"
        );

        // Acks issued before the error still hold...
        assert_eq!(queue.health().acked_lsn, 5);
        // ...and reopen repairs the torn tail, re-appends the parked
        // record, and restores service.
        let h = queue.reopen().unwrap();
        assert!(h.acked_lsn >= 6, "parked record re-appended durably");
        queue.enqueue(7, WalRecord::Delete { id: 7 }).unwrap();
        queue.wait_durable(7).unwrap();
        drop(queue);
        let scan = scan_dir(tmp.path()).unwrap();
        let lsns: Vec<Lsn> = scan.frames.iter().map(|&(l, _)| l).collect();
        assert_eq!(lsns, (1..=7).collect::<Vec<_>>());
    }

    #[test]
    fn group_commit_reopen_with_quorum_gate_resolves_typed_or_confirmed() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_gcq_gate").unwrap();
        let (writer, _) = WalWriter::open_repair(tmp.path(), WalOptions::default()).unwrap();
        let queue = GroupCommitQueue::new(writer);
        let gate = QuorumGate::new(1, 100);
        queue.set_gate(Some(gate.clone()));

        // Confirmed write: the gate releases the acknowledgement.
        queue.enqueue(1, WalRecord::Delete { id: 1 }).unwrap();
        gate.publish(1);
        queue.wait_durable(1).unwrap();

        // Unconfirmed write: locally durable, then a typed quorum
        // timeout — never a silent ack.
        queue.enqueue(2, WalRecord::Delete { id: 2 }).unwrap();
        match queue.wait_durable(2) {
            Err(PlanarError::QuorumTimeout {
                lsn,
                required,
                frontier,
            }) => {
                assert_eq!(lsn, 2);
                assert_eq!(required, 1);
                assert_eq!(frontier, 1);
            }
            other => panic!("expected quorum timeout, got {other:?}"),
        }
        assert_eq!(queue.health().acked_lsn, 2, "locally durable regardless");

        // Fail-stop mid-append with the gate installed: the in-flight
        // acknowledgement resolves typed with the append error — it
        // must not sit on the gate waiting for a record that never
        // reached disk.
        fault::arm_wal_fault(2, WalFaultKind::TornAppend { keep: 3 });
        queue.enqueue(3, WalRecord::Delete { id: 3 }).unwrap();
        let err = queue.wait_durable(3).expect_err("queue must fail-stop");
        assert!(
            !matches!(err, PlanarError::QuorumTimeout { .. }),
            "fail-stop must surface the store error, not a quorum timeout: {err}"
        );
        fault::disarm_wal_fault();
        assert_eq!(queue.health().acked_lsn, 2, "prior acks hold");

        // Reopen repairs the torn tail and re-appends the parked
        // record; the same gate keeps guarding fresh acknowledgements.
        let h = queue.reopen().unwrap();
        assert!(h.acked_lsn >= 3, "parked record re-appended durably");
        queue.enqueue(4, WalRecord::Delete { id: 4 }).unwrap();
        gate.publish(4);
        queue.wait_durable(4).unwrap();
        assert!(gate.confirmed(4));
        assert_eq!(gate.timeouts(), 1, "exactly the lsn-2 wait timed out");
    }

    /// The quorum-gated write path across a WAL fail-stop, end to end:
    /// `write_quorum` surfaces a typed store error (never a silent or
    /// unacked-but-invisible apply), `reopen_wal` restores service, and
    /// replication then ships the re-appended record until the quorum
    /// confirms it and the replica reads back bit-identical.
    #[test]
    fn quorum_write_across_wal_fail_stop_reopens_and_heals() {
        use crate::replicate::{AckPolicy, ChannelTransport, FailoverConfig, Primary, Replica};

        let _g = fault::serial_wal_tests();
        let pdir = TempDir::new("wal_quorum_p").unwrap();
        let rdir = TempDir::new("wal_quorum_r").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![1.0 + (i % 7) as f64, 2.0]).collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
        // Single shard: one WAL writer on the primary, so the armed
        // append index below is deterministic.
        let set = ShardedIndexSet::<VecStore>::build(
            table,
            domain,
            IndexConfig::with_budget(3),
            ShardConfig::round_robin(1),
        )
        .unwrap();
        let store = ConcurrentDurableShardedIndexSet::create(
            pdir.path(),
            set,
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        let mut primary = Primary::new(store, FailoverConfig::default());
        primary.set_ack_policy(AckPolicy::Quorum(1));
        let down = ChannelTransport::new();
        let up = ChannelTransport::new();
        primary.add_replica(Box::new(down.clone()), Box::new(up.clone()));
        let mut replica: Replica<VecStore> = Replica::new(
            rdir.path().join("r0"),
            0,
            Box::new(down),
            Box::new(up),
            opts,
            FailoverConfig::default(),
        );
        // Seed the replica before arming anything.
        let mut now = 0u64;
        for _ in 0..64 {
            now += 100;
            primary.pump(now).unwrap();
            replica.poll(now).unwrap();
            if replica.is_seeded() {
                break;
            }
        }
        assert!(replica.is_seeded());

        // The next append on the primary's (only) writer is index 0 —
        // the seed traveled by checkpoint, not the WAL. Tear it.
        fault::arm_wal_fault(0, WalFaultKind::TornAppend { keep: 3 });
        let err = primary
            .write_quorum(
                &Mutation::Insert {
                    row: vec![5.0, 5.0],
                },
                now,
            )
            .expect_err("the WAL fail-stop must surface to the quorum writer");
        fault::disarm_wal_fault();
        assert!(
            !matches!(err, PlanarError::QuorumTimeout { .. }),
            "typed store error, not a quorum timeout: {err}"
        );

        // Reopen repairs the torn tail and re-appends the parked write;
        // replication then ships it and the quorum confirms.
        primary.store().reopen_wal().unwrap();
        let appended = primary.store().wal_health().appended_lsn;
        assert!(appended >= 1, "parked record re-appended");
        for _ in 0..256 {
            now += 100;
            primary.pump(now).unwrap();
            replica.poll(now).unwrap();
            if replica.applied_lsn() >= appended && primary.quorum_confirmed(appended) {
                break;
            }
        }
        assert!(
            primary.quorum_confirmed(appended),
            "the re-appended write must reach the quorum"
        );
        assert_eq!(replica.applied_lsn(), appended);
        assert_eq!(replica.divergence(), None);
        let read = replica
            .follower_read(crate::replicate::ReadConsistency::AtLeast(appended))
            .unwrap();
        let q = InequalityQuery::new(vec![1.0, 1.5], Cmp::Leq, 1e6).unwrap();
        assert_eq!(
            read.snapshot.query(&q).unwrap().sorted_ids(),
            primary.store().snapshot().query(&q).unwrap().sorted_ids(),
            "replica must converge on the reopened history"
        );
    }

    #[test]
    fn wal_tailer_follows_appends_rotation_and_detects_truncation() {
        let _g = fault::serial_wal_tests();
        let tmp = TempDir::new("wal_tailer").unwrap();
        let opts = WalOptions::default().segment_max_bytes(4096);
        let (mut writer, _) = WalWriter::open_repair(tmp.path(), opts).unwrap();
        let mut tailer = WalTailer::new(tmp.path(), 1);
        assert!(tailer.poll().unwrap().is_empty(), "nothing appended yet");

        for lsn in 1..=3u64 {
            writer
                .append_frame(lsn, &WalRecord::Delete { id: lsn as u32 })
                .unwrap();
        }
        writer.sync().unwrap();
        let got = tailer.poll().unwrap();
        assert_eq!(got.iter().map(|f| f.lsn).collect::<Vec<_>>(), vec![1, 2, 3]);
        for f in &got {
            let (consumed, lsn, rec) = parse_frame(&f.bytes).expect("shipped frame parses");
            assert_eq!(consumed, f.bytes.len());
            assert_eq!(lsn, f.lsn);
            assert_eq!(rec, WalRecord::Delete { id: lsn as u32 });
        }

        // Big rows force a rotation; the tailer follows into the new
        // segment, which carries the bumped term in its header.
        writer.set_term(2);
        for lsn in 4..=12u64 {
            writer
                .append_frame(
                    lsn,
                    &WalRecord::Insert {
                        id: lsn as u32,
                        row: vec![0.5; 64],
                    },
                )
                .unwrap();
        }
        writer.sync().unwrap();
        assert!(writer.health().segments >= 2, "rotation happened");
        let got = tailer.poll().unwrap();
        assert_eq!(
            got.iter().map(|f| f.lsn).collect::<Vec<_>>(),
            (4..=12).collect::<Vec<_>>()
        );
        assert!(
            got.iter().any(|f| f.term == 2),
            "rotated segment carries the bumped term"
        );

        // reset() replays from an earlier LSN.
        tailer.reset(10);
        let replay = tailer.poll().unwrap();
        assert_eq!(
            replay.iter().map(|f| f.lsn).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );

        // A tailer pointed below the oldest retained segment fails
        // loudly instead of shipping a gapped stream.
        drop(writer);
        let segments = list_segments(tmp.path()).unwrap();
        fs::remove_file(&segments[0]).unwrap();
        let mut gapped = WalTailer::new(tmp.path(), 1);
        assert!(
            gapped.poll().is_err(),
            "truncated history must not ship silently"
        );
    }
}
