//! Crash-safe index persistence: a versioned, checksummed, *sectioned*
//! binary format with partial recovery.
//!
//! Index construction is loglinear (§4.2), but for large budgets over
//! millions of points a cold rebuild still costs tens of seconds; restart
//! recovery should not pay it. The format stores the feature table, the
//! parameter domain, tombstones, the selection strategy, every index
//! normal, **and every index's id order** — so loading is a linear pass
//! (each index adopts its ids as stored) instead of
//! `O(budget · n log n)` of re-sorting. No key is stored: an index's keys
//! are computed from the table's rows (see `crate::index`).
//!
//! ## `PLNRIDX3` layout (all little-endian)
//!
//! ```text
//! magic "PLNRIDX3" | flags u32 | core_len u64
//! core section (core_len bytes):
//!     dim u32 | n u64
//!     table data: n·dim f64
//!     tombstones: n bytes (0/1)
//!     domain: axes u32, per axis tag u8 (0 discrete, 1 continuous) + payload
//!     strategy u8 | index count u32
//!     normals: count·dim f64
//!     quarantine flags: count bytes (0/1)
//!     index section lengths: count u64
//! crc64 of flags | core_len | core section
//! (flags bit 0x1: the set carries the `I16` quantized tier)
//! per index i: section of length lens[i] —
//!     entry count u64 | ids u32… (in key order) | crc64 of the section
//!     minus its trailing crc
//! ```
//!
//! The *core* section holds everything needed to rebuild any index from
//! scratch (rows + normals), plus the framing (`lens`) of the per-index
//! sections — all under one CRC. Each index's id array sits in its own
//! CRC-framed section, so a flipped bit or torn tail corrupts **one index**,
//! not the file: [`PlanarIndexSet::from_bytes_recover`] quarantines the bad
//! section(s) and [`PlanarIndexSet::load_or_recover`] rebuilds them from the
//! (intact) core. The core's CRC also covers the flags word and `core_len`
//! before it, and the magic is compared exactly, so no byte of a snapshot
//! goes unchecked; a flag bit other than 0x1 is refused before the CRC.
//!
//! Each format has exactly one reader, for the version its writer
//! produces; a file of any other version is refused by its magic.
//!
//! Saving is atomic: bytes go to a temp file in the target's directory,
//! fsync, rename over the target, fsync the directory — with bounded
//! retry/backoff on transient IO errors ([`SaveOptions`]). A crash at any
//! point leaves either the old snapshot or the new one, never a torn file
//! at the target path.
//!
//! The normalizer is *not* stored: refitting it from the table reproduces
//! deltas that cover every stored row, which is the only property
//! correctness needs (keys are raw-space; see `planar_geom::translation`).

use crate::domain::{Domain, ParameterDomain};
use crate::fault::{SnapshotIo, StdIo};
use crate::multi::PlanarIndexSet;
use crate::quant::QuantTier;
use crate::selection::SelectionStrategy;
use crate::shard::{Partitioner, ShardedIndexSet};
use crate::store::KeyStore;
use crate::table::{FeatureTable, PointId};
use crate::{PlanarError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const MAGIC: &[u8; 8] = b"PLNRIDX3";
/// Sharded manifest: the partitioner and the id maps wrapping one
/// `PLNRIDX3` snapshot per shard (see [`ShardedIndexSet::to_bytes`]).
const MAGIC_SHARD: &[u8; 8] = b"PLNRSHD2";
/// magic + flags + core_len.
const PREAMBLE: usize = 8 + 4 + 8;
/// Flags bit: the set carries the `I16` quantized tier (the bit is the
/// whole record; the mirror is re-encoded from the rows on load).
/// Snapshots of sets with the tier off clear it. No other bit is defined.
const FLAG_QUANT_I16: u32 = 0x1;

/// CRC-64/XZ for integrity checking — the shared framing checksum of
/// [`crate::frame`], re-exported for this module's call sites.
pub(crate) use crate::frame::crc64;

fn corrupt(msg: impl Into<String>) -> PlanarError {
    PlanarError::Persist(msg.into())
}

/// Defensive bound: `count` items of `item_bytes` each must fit in the
/// remaining buffer *before* any allocation sized by `count` happens, so a
/// corrupted length field cannot trigger a multi-GB allocation.
fn check_fits(buf: &Bytes, count: usize, item_bytes: usize, what: &str) -> Result<usize> {
    let total = count
        .checked_mul(item_bytes)
        .ok_or_else(|| corrupt(format!("{what}: length overflows")))?;
    if buf.remaining() < total {
        return Err(corrupt(format!(
            "{what}: claims {total} bytes, only {} remain",
            buf.remaining()
        )));
    }
    Ok(total)
}

fn need(buf: &Bytes, bytes: usize, what: &str) -> Result<()> {
    if buf.remaining() < bytes {
        return Err(corrupt(format!("truncated {what}")));
    }
    Ok(())
}

fn put_domain(buf: &mut BytesMut, d: &Domain) {
    match d {
        Domain::Discrete(vals) => {
            buf.put_u8(0);
            buf.put_u32_le(vals.len() as u32);
            for v in vals {
                buf.put_f64_le(*v);
            }
        }
        Domain::Continuous { lo, hi } => {
            buf.put_u8(1);
            buf.put_f64_le(*lo);
            buf.put_f64_le(*hi);
        }
    }
}

fn get_domain(buf: &mut Bytes) -> Result<Domain> {
    need(buf, 1, "domain")?;
    match buf.get_u8() {
        0 => {
            need(buf, 4, "discrete domain")?;
            let k = buf.get_u32_le() as usize;
            check_fits(buf, k, 8, "discrete domain values")?;
            Ok(Domain::Discrete((0..k).map(|_| buf.get_f64_le()).collect()))
        }
        1 => {
            need(buf, 16, "continuous domain")?;
            Ok(Domain::Continuous {
                lo: buf.get_f64_le(),
                hi: buf.get_f64_le(),
            })
        }
        t => Err(corrupt(format!("unknown domain tag {t}"))),
    }
}

fn strategy_tag(s: SelectionStrategy) -> u8 {
    match s {
        SelectionStrategy::MinStretch => 0,
        SelectionStrategy::MinAngle => 1,
        SelectionStrategy::OracleCount => 2,
    }
}

fn strategy_from_tag(t: u8) -> Result<SelectionStrategy> {
    match t {
        0 => Ok(SelectionStrategy::MinStretch),
        1 => Ok(SelectionStrategy::MinAngle),
        2 => Ok(SelectionStrategy::OracleCount),
        other => Err(corrupt(format!("unknown strategy tag {other}"))),
    }
}

/// Durability knobs for [`PlanarIndexSet::save_to_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveOptions {
    /// How many times to retry the temp-write + rename after a transient IO
    /// failure (so `retries + 1` attempts in total).
    pub retries: u32,
    /// Initial sleep between attempts; doubles after each failure.
    pub backoff: Duration,
}

impl Default for SaveOptions {
    fn default() -> Self {
        Self {
            retries: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

impl SaveOptions {
    /// Override the retry count.
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Override the initial backoff.
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// No retries, no sleeping — for tests and latency-critical callers.
    pub fn fail_fast() -> Self {
        Self {
            retries: 0,
            backoff: Duration::ZERO,
        }
    }
}

/// What [`PlanarIndexSet::from_bytes_recover`] /
/// [`PlanarIndexSet::load_or_recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Indices recorded in the snapshot.
    pub total_indices: usize,
    /// Indices whose sections verified and were loaded intact.
    pub loaded: usize,
    /// Positions quarantined by *this* load because their section was
    /// corrupt or truncated.
    pub quarantined: Vec<usize>,
    /// Positions that were already flagged quarantined when the snapshot
    /// was written.
    pub already_quarantined: Vec<usize>,
    /// Positions rebuilt from the table after loading (only
    /// [`PlanarIndexSet::load_or_recover`] rebuilds).
    pub rebuilt: Vec<usize>,
}

impl RecoveryReport {
    /// True when nothing was corrupt or quarantined: the snapshot loaded
    /// exactly as written, all indices usable.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.already_quarantined.is_empty()
            && self.rebuilt.is_empty()
    }
}

/// Atomic snapshot write shared by the single-set and sharded savers: each
/// attempt writes the full byte image to a uniquely named temp file in the
/// target's directory (durably: write + fsync) and renames it over the
/// target, retrying transient failures with doubling backoff. The target
/// path always holds either the previous snapshot or the complete new one.
/// Also used by `crate::wal` for its `CHECKPOINT` manifest.
pub(crate) fn atomic_save(
    bytes: &[u8],
    path: &Path,
    io: &mut dyn SnapshotIo,
    opts: &SaveOptions,
) -> Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| corrupt(format!("invalid save path {}", path.display())))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut delay = opts.backoff;
    let mut last_err = String::new();
    for attempt in 0..=opts.retries {
        if attempt > 0 && !delay.is_zero() {
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        match io
            .write_file(&tmp, bytes)
            .and_then(|()| io.rename(&tmp, path))
        {
            Ok(()) => return Ok(()),
            Err(e) => {
                last_err = e.to_string();
                let _ = io.remove_file(&tmp);
            }
        }
    }
    Err(corrupt(format!(
        "save failed after {} attempt(s): {last_err}",
        opts.retries + 1
    )))
}

/// The CRC-protected core section, parsed.
struct CoreParts {
    table: FeatureTable,
    tombstones: Vec<bool>,
    domain: ParameterDomain,
    strategy: SelectionStrategy,
    normals: Vec<Vec<f64>>,
    quarantined: Vec<bool>,
    section_lens: Vec<usize>,
}

fn parse_core(core: &[u8]) -> Result<CoreParts> {
    let mut buf = Bytes::copy_from_slice(core);
    need(&buf, 12, "core header")?;
    let dim = buf.get_u32_le() as usize;
    let n = buf.get_u64_le() as usize;
    if dim == 0 {
        return Err(corrupt("zero dimensionality"));
    }
    // Rows (8·dim bytes each) + one tombstone byte per row must fit before
    // the table is allocated.
    let row_bytes = dim
        .checked_mul(8)
        .and_then(|b| b.checked_add(1))
        .ok_or_else(|| corrupt("table row size overflows"))?;
    check_fits(&buf, n, row_bytes, "table")?;
    let mut table = FeatureTable::with_capacity(dim, n)?;
    let mut row = vec![0.0; dim];
    for _ in 0..n {
        for slot in row.iter_mut() {
            *slot = buf.get_f64_le();
        }
        table.push_row(&row)?;
    }
    let mut tombstones = Vec::with_capacity(n);
    for _ in 0..n {
        tombstones.push(buf.get_u8() != 0);
    }
    need(&buf, 4, "domain count")?;
    let axes = buf.get_u32_le() as usize;
    if axes != dim {
        return Err(corrupt("domain dimensionality mismatch"));
    }
    let domain = ParameterDomain::new(
        (0..axes)
            .map(|_| get_domain(&mut buf))
            .collect::<Result<Vec<_>>>()?,
    )?;
    need(&buf, 5, "strategy/index count")?;
    let strategy = strategy_from_tag(buf.get_u8())?;
    let index_count = buf.get_u32_le() as usize;
    if index_count == 0 {
        return Err(corrupt("index set must contain at least one index"));
    }
    // normals (8·dim) + quarantine flag (1) + section length (8) per index.
    let per_index = dim
        .checked_mul(8)
        .and_then(|b| b.checked_add(9))
        .ok_or_else(|| corrupt("index descriptor size overflows"))?;
    check_fits(&buf, index_count, per_index, "index descriptors")?;
    let mut normals = Vec::with_capacity(index_count);
    for _ in 0..index_count {
        normals.push((0..dim).map(|_| buf.get_f64_le()).collect::<Vec<f64>>());
    }
    let mut quarantined = Vec::with_capacity(index_count);
    for _ in 0..index_count {
        quarantined.push(buf.get_u8() != 0);
    }
    let mut section_lens = Vec::with_capacity(index_count);
    for _ in 0..index_count {
        let len = buf.get_u64_le();
        section_lens.push(usize::try_from(len).map_err(|_| corrupt("section length overflows"))?);
    }
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes in core section"));
    }
    Ok(CoreParts {
        table,
        tombstones,
        domain,
        strategy,
        normals,
        quarantined,
        section_lens,
    })
}

/// Parse one per-index section (`entry count | ids | crc`); `Err` means
/// the section is corrupt/truncated and the index must be quarantined.
fn parse_index_section(section: &[u8]) -> Result<Vec<u32>> {
    if section.len() < 16 {
        return Err(corrupt("index section too short"));
    }
    let payload = crate::frame::open_sealed(section)
        .ok_or_else(|| corrupt("index section checksum mismatch"))?;
    let (count, ids) = payload.split_at(8);
    let count = u64::from_le_bytes(count.try_into().expect("8 bytes"));
    if count.checked_mul(4) != Some(ids.len() as u64) {
        return Err(corrupt("index section length disagrees with entry count"));
    }
    Ok(ids
        .chunks_exact(4)
        .map(|id| u32::from_le_bytes(id.try_into().expect("4 bytes")))
        .collect())
}

/// Write the sealed head both snapshot formats share:
/// `magic | flags u32 | core_len u64 | core | crc64`, the CRC covering
/// everything after the magic.
fn put_head(buf: &mut BytesMut, magic: &[u8; 8], flags: u32, core: &[u8]) {
    buf.put_slice(magic);
    let sealed = buf.len();
    buf.put_u32_le(flags);
    buf.put_u64_le(core.len() as u64);
    buf.put_slice(core);
    buf.put_u64_le(crc64(&buf[sealed..]));
}

/// Open the head [`put_head`] writes: check the magic, refuse any flag bit
/// outside `known_flags`, and verify the CRC over flags, `core_len` and
/// core. Returns the flags, the core, and the offset just past its seal.
fn open_head<'a>(
    data: &'a [u8],
    magic: &[u8; 8],
    known_flags: u32,
) -> Result<(u32, &'a [u8], usize)> {
    if data.len() < PREAMBLE {
        return Err(corrupt("file too short"));
    }
    if &data[..8] != magic {
        return Err(corrupt(format!(
            "bad magic (not a {} file)",
            String::from_utf8_lossy(magic)
        )));
    }
    let flags = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if flags & !known_flags != 0 {
        return Err(corrupt(format!("unknown flag bits {flags:#x}")));
    }
    let core_len = u64::from_le_bytes(data[12..PREAMBLE].try_into().expect("8 bytes"));
    let crc_end = usize::try_from(core_len)
        .ok()
        .and_then(|len| crate::frame::sealed_end(PREAMBLE, len, data.len()))
        .ok_or_else(|| corrupt("truncated core section"))?;
    let sealed = crate::frame::open_sealed(&data[8..crc_end])
        .ok_or_else(|| corrupt("core section checksum mismatch"))?;
    Ok((flags, &sealed[PREAMBLE - 8..], crc_end))
}

/// Load a `PLNRIDX3` snapshot: parse the core strictly, then handle each
/// index section per `recover` (strict mode errors on the first bad
/// section; recover mode quarantines it and keeps going).
fn load_sectioned<S: KeyStore>(
    data: &[u8],
    recover: bool,
) -> Result<(PlanarIndexSet<S>, RecoveryReport)> {
    let (flags, core, crc_end) = open_head(data, MAGIC, FLAG_QUANT_I16)?;
    let parts = parse_core(core)?;

    let mut report = RecoveryReport {
        total_indices: parts.normals.len(),
        ..RecoveryReport::default()
    };
    for (pos, &q) in parts.quarantined.iter().enumerate() {
        if q {
            report.already_quarantined.push(pos);
        }
    }

    let mut id_lists = Vec::with_capacity(parts.normals.len());
    let mut quarantined = parts.quarantined.clone();
    let mut offset = crc_end;
    for (pos, &len) in parts.section_lens.iter().enumerate() {
        let end = offset.checked_add(len);
        let section = end.filter(|&e| e <= data.len()).map(|e| &data[offset..e]);
        let parsed = match section {
            Some(bytes) => parse_index_section(bytes),
            None => Err(corrupt(format!("index section {pos} extends past EOF"))),
        };
        match parsed {
            Ok(ids) => id_lists.push(ids),
            Err(e) => {
                if !recover {
                    return Err(e);
                }
                // Quarantine: keep the slot with no ids; the normal in the
                // core is enough to rebuild later.
                if !quarantined[pos] {
                    report.quarantined.push(pos);
                }
                quarantined[pos] = true;
                id_lists.push(Vec::new());
            }
        }
        offset = offset.saturating_add(len);
    }
    if !recover && offset != data.len() {
        return Err(corrupt("trailing bytes after index sections"));
    }
    report.loaded = report.total_indices - report.quarantined.len();

    let mut set = PlanarIndexSet::assemble(
        parts.table,
        parts.domain,
        parts.strategy,
        parts.tombstones,
        parts.normals,
        id_lists,
        quarantined,
    )?;
    if flags & FLAG_QUANT_I16 != 0 {
        // Re-encode the quantized mirror from the freshly parsed rows —
        // only the tier is persisted, never the codes, so a bit flip in
        // the mirror can't survive a round trip.
        set.set_quant_tier(QuantTier::I16);
    }
    Ok((set, report))
}

impl<S: KeyStore> PlanarIndexSet<S> {
    /// Serialize the full index set to bytes (`PLNRIDX3`: sectioned, one
    /// CRC for the core, one per index; index sections hold ids only).
    pub fn to_bytes(&self) -> Bytes {
        let n = self.table().len();
        let dim = self.dim();
        let count = self.num_indices();

        // Per-index sections first, so the core can record their framing.
        let mut sections: Vec<BytesMut> = Vec::with_capacity(count);
        for pos in 0..count {
            let idx = self.index_at(pos).expect("pos < num_indices");
            let mut sec = BytesMut::with_capacity(16 + idx.len() * 4);
            sec.put_u64_le(idx.len() as u64);
            for &id in idx.ids() {
                sec.put_u32_le(id);
            }
            crate::frame::seal_buf(&mut sec);
            sections.push(sec);
        }

        let mut core = BytesMut::with_capacity(32 + n * (dim * 8 + 1) + count * (dim * 8 + 9));
        core.put_u32_le(dim as u32);
        core.put_u64_le(n as u64);
        for (_, row) in self.table().iter() {
            for &v in row {
                core.put_f64_le(v);
            }
        }
        for id in 0..n as u32 {
            core.put_u8(u8::from(!self.is_live(id)));
        }
        core.put_u32_le(self.domain().dim() as u32);
        for d in self.domain().axes() {
            put_domain(&mut core, d);
        }
        core.put_u8(strategy_tag(self.strategy()));
        core.put_u32_le(count as u32);
        for pos in 0..count {
            let idx = self.index_at(pos).expect("pos < num_indices");
            for &c in idx.normal() {
                core.put_f64_le(c);
            }
        }
        for pos in 0..count {
            core.put_u8(u8::from(self.is_quarantined(pos)));
        }
        for sec in &sections {
            core.put_u64_le(sec.len() as u64);
        }
        let flags = match self.quant_tier() {
            QuantTier::Off => 0,
            QuantTier::I16 => FLAG_QUANT_I16,
        };

        let total: usize =
            PREAMBLE + core.len() + 8 + sections.iter().map(|s| s.len()).sum::<usize>();
        let mut buf = BytesMut::with_capacity(total);
        put_head(&mut buf, MAGIC, flags, &core);
        for sec in sections {
            buf.put_slice(&sec);
        }
        buf.freeze()
    }

    /// Deserialize an index set previously written by [`Self::to_bytes`].
    /// Strict: **any** corrupt section is an error. Use
    /// [`Self::from_bytes_recover`] to salvage what verifies.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on truncation, bad magic, unknown flag
    /// bits, tag mismatches, or checksum failure of any section.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        load_sectioned(data, false).map(|(set, _)| set)
    }

    /// Deserialize, salvaging everything whose checksum verifies.
    ///
    /// The core section (table, domains, normals, framing) must be intact —
    /// without it nothing is trustworthy. A corrupt or truncated per-index
    /// section quarantines that one index (empty, flagged, skipped by the
    /// planner) instead of failing the load; its normal survives in the
    /// core, so [`Self::rebuild_quarantined`] can restore it. The report
    /// says exactly what happened.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] when the preamble or core section is
    /// unreadable.
    pub fn from_bytes_recover(data: &[u8]) -> Result<(Self, RecoveryReport)> {
        load_sectioned(data, true)
    }

    /// Write to a file atomically (temp file + fsync + rename) with the
    /// default retry policy.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] wrapping the last I/O failure after all
    /// retries are exhausted.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<()> {
        self.save_to_with(path, &mut StdIo, &SaveOptions::default())
    }

    /// [`Self::save_to`] with an explicit IO layer and retry policy.
    ///
    /// Each attempt writes the full snapshot to a uniquely named temp file
    /// in the target's directory (durably: write + fsync) and renames it
    /// over the target. Transient failures are retried up to `opts.retries`
    /// times with doubling backoff; the temp file is removed best-effort
    /// after a failed attempt. The target path therefore always holds
    /// either the previous snapshot or the complete new one.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] wrapping the last I/O failure.
    pub fn save_to_with(
        &self,
        path: impl AsRef<Path>,
        io: &mut dyn SnapshotIo,
        opts: &SaveOptions,
    ) -> Result<()> {
        atomic_save(&self.to_bytes(), path.as_ref(), io, opts)
    }

    /// Read from a file written by [`Self::save_to`]. Strict — see
    /// [`Self::from_bytes`]; use [`Self::load_or_recover`] for the
    /// salvaging path.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on I/O or format problems.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Self> {
        let data = std::fs::read(path).map_err(|e| corrupt(format!("read failed: {e}")))?;
        Self::from_bytes(&data)
    }

    /// Load a snapshot, quarantining corrupt index sections and rebuilding
    /// them from the (intact) core — the restart-recovery entry point.
    ///
    /// Equivalent to [`Self::from_bytes_recover`] on the file's bytes
    /// followed by [`Self::rebuild_quarantined`]; the report's `rebuilt`
    /// records which positions were restored. After a clean return every
    /// index is usable, even if the file was partially corrupt.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] when the file is unreadable or its core
    /// section does not verify.
    pub fn load_or_recover(path: impl AsRef<Path>) -> Result<(Self, RecoveryReport)> {
        let data = std::fs::read(path).map_err(|e| corrupt(format!("read failed: {e}")))?;
        let (mut set, mut report) = Self::from_bytes_recover(&data)?;
        report.rebuilt = set.rebuild_quarantined();
        Ok((set, report))
    }
}

// ---------------------------------------------------------------------------
// Sharded manifest (PLNRSHD2)
// ---------------------------------------------------------------------------
//
// ```text
// magic "PLNRSHD2" | flags u32 (reserved, 0) | core_len u64
// core section (core_len bytes):
//     partitioner tag u8 (0 round-robin, 1 pilot-key range) | shards u32
//     range only: dim u32 | pilot dim·f64 | splits (shards−1)·f64
//     next_global u32
//     per shard: rows u64 | its global ids, ascending: rows·u32
//     dropped count u64 | per dropped id: global u32, shard u32
//     per shard: section length u64
// crc64 of flags | core_len | core section
// per shard s: a PLNRIDX3 snapshot of the recorded length, unframed
// ```
//
// The core holds the sharded set's own id maps — each shard's ascending
// global ids, the high-water mark, and the ids compactions dropped — so a
// load adopts them as stored. An id below `next_global` that no shard
// holds and that is not dropped is a WAL-replay gap. Every byte is under
// exactly one seal: the manifest head under its CRC, each shard's bytes
// under their own PLNRIDX3 head and index-section CRCs, and neither
// preamble accepts an unknown flag bit. Recovery re-enters
// [`PlanarIndexSet::from_bytes_recover`] per shard and loses *at most the
// damaged index sections of the damaged shard*. A shard whose own core
// (its rows) is corrupt fails the whole load: shards share nothing, so no
// other replica of those rows exists in the file.

/// What [`ShardedIndexSet::from_bytes_recover`] /
/// [`ShardedIndexSet::load_or_recover`] found and did: one
/// [`RecoveryReport`] per shard, in shard order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardedRecoveryReport {
    /// Per-shard recovery reports.
    pub shards: Vec<RecoveryReport>,
    /// WAL records replayed across all shards (only
    /// [`crate::ConcurrentDurableShardedIndexSet::open`] replays; 0 for
    /// plain loads).
    pub wal_replayed: usize,
    /// WAL records dropped because they sit at or after the first invalid
    /// frame (CRC mismatch / torn write), summed across shards.
    pub wal_dropped: usize,
    /// Torn trailing bytes truncated — a crash mid-write, detected and
    /// repaired, never an error — summed across shards.
    pub wal_torn_bytes: usize,
    /// Per-shard LSN watermarks after replay (empty for plain loads):
    /// `shard_watermarks[s]` is the last LSN applied to shard `s`.
    pub shard_watermarks: Vec<u64>,
}

impl ShardedRecoveryReport {
    /// True when every shard loaded exactly as written.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(RecoveryReport::is_clean)
    }

    /// `(shard, quarantined index positions)` for every shard where this
    /// load quarantined something, ascending by shard.
    pub fn quarantined(&self) -> Vec<(usize, Vec<usize>)> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.quarantined.is_empty())
            .map(|(s, r)| (s, r.quarantined.clone()))
            .collect()
    }
}

/// The sharded manifest core, parsed.
struct ShardManifest {
    partitioner: Partitioner,
    next_global: PointId,
    global_ids: Vec<Vec<PointId>>,
    dropped: Vec<(PointId, u32)>,
    section_lens: Vec<usize>,
}

fn parse_shard_core(core: &[u8]) -> Result<ShardManifest> {
    let mut buf = Bytes::copy_from_slice(core);
    need(&buf, 5, "shard core header")?;
    let tag = buf.get_u8();
    let shards = buf.get_u32_le() as usize;
    if shards == 0 {
        return Err(corrupt("zero shard count"));
    }
    let partitioner = match tag {
        0 => Partitioner::RoundRobin { shards },
        1 => {
            need(&buf, 4, "pilot dimension")?;
            let dim = buf.get_u32_le() as usize;
            if dim == 0 {
                return Err(corrupt("zero pilot dimensionality"));
            }
            check_fits(&buf, dim, 8, "pilot vector")?;
            let pilot: Vec<f64> = (0..dim).map(|_| buf.get_f64_le()).collect();
            check_fits(&buf, shards - 1, 8, "split keys")?;
            let splits: Vec<f64> = (0..shards - 1).map(|_| buf.get_f64_le()).collect();
            if splits.iter().any(|v| !v.is_finite()) || splits.windows(2).any(|w| w[0] > w[1]) {
                return Err(corrupt("split keys not finite ascending"));
            }
            Partitioner::PilotKeyRange { pilot, splits }
        }
        t => return Err(corrupt(format!("unknown partitioner tag {t}"))),
    };
    need(&buf, 4, "high-water mark")?;
    let next_global = buf.get_u32_le();
    // A row count and a section length per shard, at the least.
    check_fits(&buf, shards, 16, "shard id lists")?;
    let mut global_ids = Vec::with_capacity(shards);
    for _ in 0..shards {
        need(&buf, 8, "shard row count")?;
        let rows = buf.get_u64_le() as usize;
        check_fits(&buf, rows, 4, "shard global ids")?;
        global_ids.push((0..rows).map(|_| buf.get_u32_le()).collect::<Vec<_>>());
    }
    need(&buf, 8, "dropped count")?;
    let count = buf.get_u64_le() as usize;
    check_fits(&buf, count, 8, "dropped ids")?;
    let dropped = (0..count)
        .map(|_| (buf.get_u32_le(), buf.get_u32_le()))
        .collect();
    check_fits(&buf, shards, 8, "shard section lengths")?;
    let section_lens = (0..shards)
        .map(|_| usize::try_from(buf.get_u64_le()))
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(|_| corrupt("shard section length overflows"))?;
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes in shard core section"));
    }
    Ok(ShardManifest {
        partitioner,
        next_global,
        global_ids,
        dropped,
        section_lens,
    })
}

fn load_sharded<S: KeyStore>(
    data: &[u8],
    recover: bool,
) -> Result<(ShardedIndexSet<S>, ShardedRecoveryReport)> {
    let (_, core, crc_end) = open_head(data, MAGIC_SHARD, 0)?;
    let manifest = parse_shard_core(core)?;

    let mut sets = Vec::with_capacity(manifest.section_lens.len());
    let mut reports = Vec::with_capacity(manifest.section_lens.len());
    let mut offset = crc_end;
    for (s, &len) in manifest.section_lens.iter().enumerate() {
        // A truncated section reaches its shard's loader short: strict
        // mode refuses it there, recovery salvages what still verifies.
        let end = offset.saturating_add(len).min(data.len());
        let body = &data[offset..end];
        let shard = |e: PlanarError| corrupt(format!("shard {s}: {e}"));
        if recover {
            let (set, report) = PlanarIndexSet::from_bytes_recover(body).map_err(shard)?;
            sets.push(set);
            reports.push(report);
        } else {
            sets.push(PlanarIndexSet::from_bytes(body).map_err(shard)?);
            reports.push(RecoveryReport::default());
        }
        offset = end;
    }
    if !recover && offset != data.len() {
        return Err(corrupt("trailing bytes after shard sections"));
    }
    let set = ShardedIndexSet::assemble_shards(
        sets,
        manifest.partitioner,
        manifest.global_ids,
        manifest.next_global,
        manifest.dropped,
    )?;
    Ok((
        set,
        ShardedRecoveryReport {
            shards: reports,
            ..ShardedRecoveryReport::default()
        },
    ))
}

impl<S: KeyStore> ShardedIndexSet<S> {
    /// Serialize the sharded set: a `PLNRSHD2` manifest whose CRC-protected
    /// core holds the partitioner, the id maps and each shard section's
    /// length, followed by one `PLNRIDX3` snapshot per shard.
    pub fn to_bytes(&self) -> Bytes {
        let sections: Vec<Bytes> = (0..self.num_shards())
            .map(|s| self.shard(s).expect("s < num_shards").to_bytes())
            .collect();

        let (global_ids, dropped) = (self.global_ids(), self.dropped());
        let held: usize = global_ids.iter().map(Vec::len).sum();
        let mut core =
            BytesMut::with_capacity(64 + 4 * held + 8 * dropped.len() + 16 * sections.len());
        match self.partitioner() {
            Partitioner::RoundRobin { shards } => {
                core.put_u8(0);
                core.put_u32_le(*shards as u32);
            }
            Partitioner::PilotKeyRange { pilot, splits } => {
                core.put_u8(1);
                core.put_u32_le((splits.len() + 1) as u32);
                core.put_u32_le(pilot.len() as u32);
                for &v in pilot {
                    core.put_f64_le(v);
                }
                for &v in splits {
                    core.put_f64_le(v);
                }
            }
        }
        core.put_u32_le(self.next_global());
        for gids in global_ids {
            core.put_u64_le(gids.len() as u64);
            for &global in gids {
                core.put_u32_le(global);
            }
        }
        core.put_u64_le(dropped.len() as u64);
        for &(global, shard) in dropped {
            core.put_u32_le(global);
            core.put_u32_le(shard);
        }
        for sec in &sections {
            core.put_u64_le(sec.len() as u64);
        }

        let total: usize =
            PREAMBLE + core.len() + 8 + sections.iter().map(Bytes::len).sum::<usize>();
        let mut buf = BytesMut::with_capacity(total);
        put_head(&mut buf, MAGIC_SHARD, 0, &core);
        for sec in sections {
            buf.put_slice(&sec);
        }
        buf.freeze()
    }

    /// Deserialize a sharded snapshot written by [`Self::to_bytes`].
    /// Strict: any corrupt section anywhere is an error.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on truncation, bad magic, nonzero flags,
    /// id maps that disagree with the shards, or checksum failure of any
    /// section.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        load_sharded(data, false).map(|(set, _)| set)
    }

    /// Deserialize, salvaging everything whose checksums verify.
    ///
    /// The manifest core (partitioner + id maps) and every shard's own
    /// core (its rows) must be intact — shards share nothing, so a shard's
    /// rows exist nowhere else in the file. Corrupt per-index sections
    /// inside any shard quarantine those indices only (see
    /// [`PlanarIndexSet::from_bytes_recover`]); the per-shard reports say
    /// exactly what happened where.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] when the preamble, the manifest core, or
    /// any shard's core is unreadable.
    pub fn from_bytes_recover(data: &[u8]) -> Result<(Self, ShardedRecoveryReport)> {
        load_sharded(data, true)
    }

    /// Write to a file atomically (temp file + fsync + rename) with the
    /// default retry policy.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] wrapping the last I/O failure after all
    /// retries are exhausted.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<()> {
        self.save_to_with(path, &mut StdIo, &SaveOptions::default())
    }

    /// [`Self::save_to`] with an explicit IO layer and retry policy — the
    /// same atomic temp-write + rename + bounded-backoff machinery as
    /// [`PlanarIndexSet::save_to_with`].
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] wrapping the last I/O failure.
    pub fn save_to_with(
        &self,
        path: impl AsRef<Path>,
        io: &mut dyn SnapshotIo,
        opts: &SaveOptions,
    ) -> Result<()> {
        atomic_save(&self.to_bytes(), path.as_ref(), io, opts)
    }

    /// Read from a file written by [`Self::save_to`]. Strict — see
    /// [`Self::from_bytes`].
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on I/O or format problems.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Self> {
        let data = std::fs::read(path).map_err(|e| corrupt(format!("read failed: {e}")))?;
        Self::from_bytes(&data)
    }

    /// Load a sharded snapshot, quarantining corrupt index sections in any
    /// shard and rebuilding them from that shard's (intact) rows — the
    /// restart-recovery entry point. The per-shard reports record the
    /// rebuilt positions.
    ///
    /// # Errors
    ///
    /// Same as [`Self::from_bytes_recover`].
    pub fn load_or_recover(path: impl AsRef<Path>) -> Result<(Self, ShardedRecoveryReport)> {
        let data = std::fs::read(path).map_err(|e| corrupt(format!("read failed: {e}")))?;
        let (mut set, mut report) = Self::from_bytes_recover(&data)?;
        for (shard, rebuilt) in set.rebuild_quarantined() {
            report.shards[shard].rebuilt = rebuilt;
        }
        Ok((set, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Corruption, FaultyIo, IoFault, TempDir};
    use crate::multi::IndexConfig;
    use crate::query::InequalityQuery;
    use crate::store::VecStore;

    fn sample_set() -> PlanarIndexSet<VecStore> {
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![1.0 + (i % 13) as f64, -(1.0 + (i % 7) as f64)])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::new(vec![
            Domain::Continuous { lo: 0.5, hi: 2.0 },
            Domain::Discrete(vec![-1.0, -2.0]),
        ])
        .unwrap();
        let mut set = PlanarIndexSet::build(table, domain, IndexConfig::with_budget(6)).unwrap();
        set.delete_point(7).unwrap();
        set.delete_point(123).unwrap();
        set
    }

    #[test]
    fn roundtrip_preserves_answers_and_structure() {
        let set = sample_set();
        let bytes = set.to_bytes();
        assert_eq!(&bytes[..8], MAGIC);
        let loaded = PlanarIndexSet::<VecStore>::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.len(), set.len());
        assert_eq!(loaded.num_indices(), set.num_indices());
        assert_eq!(loaded.strategy(), set.strategy());
        for (a, b) in set.normals().zip(loaded.normals()) {
            assert_eq!(a, b);
        }
        for b in [-30.0, -5.0, 0.0, 5.0, 30.0] {
            let q = InequalityQuery::leq(vec![1.0, -1.5], b).unwrap();
            let want = set.query(&q).unwrap();
            let got = loaded.query(&q).unwrap();
            assert_eq!(got.sorted_ids(), want.sorted_ids(), "b={b}");
            assert_eq!(got.stats.used_index(), want.stats.used_index());
        }
    }

    #[test]
    fn corruption_is_detected() {
        let set = sample_set();
        let good = set.to_bytes().to_vec();
        // Flip a byte in the middle.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0xFF;
        assert!(matches!(
            PlanarIndexSet::<VecStore>::from_bytes(&bad),
            Err(PlanarError::Persist(_))
        ));
        // Truncate.
        assert!(PlanarIndexSet::<VecStore>::from_bytes(&good[..40]).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(PlanarIndexSet::<VecStore>::from_bytes(&bad).is_err());
        // Empty input.
        assert!(PlanarIndexSet::<VecStore>::from_bytes(&[]).is_err());
    }

    #[test]
    fn corrupt_index_section_is_quarantined_not_fatal() {
        let set = sample_set();
        let mut bytes = set.to_bytes().to_vec();
        // The last 20 bytes are inside the final index section's entries.
        let off = bytes.len() - 20;
        Corruption::BitFlip {
            offset: off,
            bit: 3,
        }
        .apply(&mut bytes);

        // Strict load refuses.
        assert!(PlanarIndexSet::<VecStore>::from_bytes(&bytes).is_err());

        // Recovering load quarantines exactly the damaged index.
        let (recovered, report) = PlanarIndexSet::<VecStore>::from_bytes_recover(&bytes).unwrap();
        assert_eq!(report.total_indices, set.num_indices());
        assert_eq!(report.quarantined, vec![set.num_indices() - 1]);
        assert_eq!(report.loaded, set.num_indices() - 1);
        assert!(!report.is_clean());

        // Rebuild restores it; answers match the original exactly.
        let mut recovered = recovered;
        assert_eq!(recovered.rebuild_quarantined(), vec![set.num_indices() - 1]);
        for b in [-30.0, 0.0, 30.0] {
            let q = InequalityQuery::leq(vec![1.0, -1.5], b).unwrap();
            assert_eq!(
                recovered.query(&q).unwrap().sorted_ids(),
                set.query(&q).unwrap().sorted_ids(),
                "b={b}"
            );
        }
    }

    #[test]
    fn corrupt_core_section_is_fatal_even_in_recovery() {
        let set = sample_set();
        let mut bytes = set.to_bytes().to_vec();
        Corruption::BitFlip { offset: 40, bit: 0 }.apply(&mut bytes); // table row area
        assert!(PlanarIndexSet::<VecStore>::from_bytes_recover(&bytes).is_err());
    }

    #[test]
    fn huge_claimed_lengths_do_not_allocate() {
        let set = sample_set();
        let bytes = set.to_bytes().to_vec();
        // Patch n (core offset 4) to an absurd value and re-seal the core
        // CRC, so the defensive length check — not the checksum — must
        // reject it.
        let mut bad = bytes.clone();
        bad[PREAMBLE + 4..PREAMBLE + 12].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bad);
        let err = PlanarIndexSet::<VecStore>::from_bytes(&bad).unwrap_err();
        assert!(matches!(err, PlanarError::Persist(_)), "{err:?}");
    }

    #[test]
    fn crafted_core_len_near_usize_max_is_rejected() {
        // core_len values in this window pass `core_start + core_len` but
        // would overflow `core_end + 8`; bit flips of a small real length
        // can never reach it, so it gets an explicit crafted case. Both
        // loaders must return a typed error, never panic or wrap.
        for core_len in [u64::MAX, u64::MAX - 25, u64::MAX - (PREAMBLE as u64 + 7)] {
            let mut bad = Vec::with_capacity(84);
            bad.extend_from_slice(MAGIC);
            bad.extend_from_slice(&0u32.to_le_bytes()); // flags
            bad.extend_from_slice(&core_len.to_le_bytes());
            bad.resize(84, 0);
            let err = PlanarIndexSet::<VecStore>::from_bytes(&bad).unwrap_err();
            assert!(matches!(err, PlanarError::Persist(_)), "{err:?}");
            let err = PlanarIndexSet::<VecStore>::from_bytes_recover(&bad).unwrap_err();
            assert!(matches!(err, PlanarError::Persist(_)), "{err:?}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let set = sample_set();
        let dir = TempDir::new("persist_file").unwrap();
        let path = dir.file("set.idx");
        set.save_to(&path).unwrap();
        let loaded = PlanarIndexSet::<VecStore>::load_from(&path).unwrap();
        assert_eq!(loaded.len(), set.len());
        assert!(PlanarIndexSet::<VecStore>::load_from("/nonexistent/x.idx").is_err());
    }

    #[test]
    fn save_retries_through_transient_failures() {
        let set = sample_set();
        let dir = TempDir::new("persist_retry").unwrap();
        let path = dir.file("set.idx");
        let mut io = FaultyIo::new(vec![IoFault::FailNthWrite(0)]);
        let opts = SaveOptions::fail_fast().retries(2);
        set.save_to_with(&path, &mut io, &opts).unwrap();
        assert_eq!(io.fired(), &[IoFault::FailNthWrite(0)]);
        let loaded = PlanarIndexSet::<VecStore>::load_from(&path).unwrap();
        assert_eq!(loaded.len(), set.len());
    }

    #[test]
    fn save_gives_up_after_retry_budget() {
        let set = sample_set();
        let dir = TempDir::new("persist_giveup").unwrap();
        let path = dir.file("set.idx");
        let mut io = FaultyIo::new(vec![IoFault::CrashAfterWrites(0)]);
        let err = set
            .save_to_with(&path, &mut io, &SaveOptions::fail_fast().retries(1))
            .unwrap_err();
        assert!(matches!(err, PlanarError::Persist(_)));
        assert!(!path.exists(), "no torn file may appear at the target");
    }

    #[test]
    fn crash_mid_save_leaves_previous_snapshot_loadable() {
        let set = sample_set();
        let dir = TempDir::new("persist_crash").unwrap();
        let path = dir.file("set.idx");
        set.save_to(&path).unwrap();

        // A "newer" set crashes while saving over it.
        let mut newer = set.clone();
        newer.delete_point(0).unwrap();
        let mut io = FaultyIo::new(vec![IoFault::CrashAfterWrites(2)]);
        assert!(newer
            .save_to_with(&path, &mut io, &SaveOptions::fail_fast())
            .is_err());

        // The original snapshot is untouched and loads cleanly.
        let loaded = PlanarIndexSet::<VecStore>::load_from(&path).unwrap();
        assert_eq!(loaded.len(), set.len());
        assert!(loaded.is_live(0));
    }

    #[test]
    fn load_or_recover_rebuilds_and_reports() {
        let set = sample_set();
        let dir = TempDir::new("persist_recover").unwrap();
        let path = dir.file("set.idx");
        // Save through an IO layer that silently flips a bit near the end
        // of the file (inside the last index section).
        let len = set.to_bytes().len();
        let mut io = FaultyIo::new(vec![IoFault::CorruptWrite {
            nth: 0,
            offset: len - 20,
            bit: 5,
        }]);
        set.save_to_with(&path, &mut io, &SaveOptions::fail_fast())
            .unwrap();

        assert!(PlanarIndexSet::<VecStore>::load_from(&path).is_err());
        let (recovered, report) = PlanarIndexSet::<VecStore>::load_or_recover(&path).unwrap();
        assert_eq!(report.quarantined, vec![set.num_indices() - 1]);
        assert_eq!(report.rebuilt, vec![set.num_indices() - 1]);
        assert_eq!(recovered.quarantined_positions(), Vec::<usize>::new());
        let q = InequalityQuery::geq(vec![1.0, -1.0], -3.0).unwrap();
        assert_eq!(
            recovered.query(&q).unwrap().sorted_ids(),
            set.query(&q).unwrap().sorted_ids()
        );
    }

    #[test]
    fn quarantine_flags_survive_roundtrip() {
        let mut set = sample_set();
        set.quarantine(1);
        let bytes = set.to_bytes();
        let (loaded, report) = PlanarIndexSet::<VecStore>::from_bytes_recover(&bytes).unwrap();
        assert_eq!(report.already_quarantined, vec![1]);
        assert!(report.quarantined.is_empty());
        assert_eq!(loaded.quarantined_positions(), vec![1]);
    }

    /// Re-seal the head of a `PLNRIDX3` snapshot after a test edited its
    /// flags or core, so only the parse can object.
    fn reseal(bytes: &mut [u8]) {
        let core_len = u64::from_le_bytes(bytes[12..PREAMBLE].try_into().unwrap()) as usize;
        let crc = crc64(&bytes[8..PREAMBLE + core_len]);
        bytes[PREAMBLE + core_len..PREAMBLE + core_len + 8].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn quant_policy_survives_roundtrip() {
        let mut set = sample_set();
        set.set_quant_tier(QuantTier::I16);
        let bytes = set.to_bytes();
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            FLAG_QUANT_I16
        );
        let loaded = PlanarIndexSet::<VecStore>::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.quant_tier(), QuantTier::I16);
        // The mirror is rebuilt from the parsed rows, never deserialized.
        assert_eq!(loaded.table().quant(), set.table().quant());
        // Tier Off clears the flag; the bit is the whole record, so the two
        // snapshots have the same length.
        let mut plain = sample_set();
        plain.set_quant_tier(QuantTier::Off);
        let off_bytes = plain.to_bytes();
        assert_eq!(u32::from_le_bytes(off_bytes[8..12].try_into().unwrap()), 0);
        assert_eq!(off_bytes.len(), bytes.len());
        let loaded = PlanarIndexSet::<VecStore>::from_bytes(&off_bytes).unwrap();
        assert_eq!(loaded.quant_tier(), QuantTier::Off);
        assert!(loaded.table().quant().is_none());
    }

    #[test]
    fn corrupt_quant_policy_is_rejected() {
        let mut set = sample_set();
        set.set_quant_tier(QuantTier::I16);
        let bytes = set.to_bytes().to_vec();
        let core_len = u64::from_le_bytes(bytes[12..PREAMBLE].try_into().unwrap()) as usize;
        // A core that still ends with the former 9-byte record (tier tag
        // `u8`, slack `f64`), under a consistent length and seal, is
        // refused by the parse rather than misread.
        let mut old = bytes[..12].to_vec();
        old.extend_from_slice(&(core_len as u64 + 9).to_le_bytes());
        old.extend_from_slice(&bytes[PREAMBLE..PREAMBLE + core_len]);
        old.push(2);
        old.extend_from_slice(&1.0f64.to_le_bytes());
        old.extend_from_slice(&[0; 8]);
        old.extend_from_slice(&bytes[PREAMBLE + core_len + 8..]);
        reseal(&mut old);
        for got in [
            PlanarIndexSet::<VecStore>::from_bytes(&old).map(drop),
            PlanarIndexSet::<VecStore>::from_bytes_recover(&old).map(drop),
        ] {
            match got {
                Err(PlanarError::Persist(msg)) => assert!(msg.contains("trailing bytes"), "{msg}"),
                other => panic!("old quant record accepted: {other:?}"),
            }
        }
        // The flag bit is under the seal: flipping it either way is caught.
        for tier in [QuantTier::I16, QuantTier::Off] {
            set.set_quant_tier(tier);
            let mut bad = set.to_bytes().to_vec();
            bad[8] ^= 1;
            let err = PlanarIndexSet::<VecStore>::from_bytes(&bad).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{tier:?}: {err}");
        }
    }

    #[test]
    fn tombstones_survive_roundtrip() {
        let set = sample_set();
        let loaded = PlanarIndexSet::<VecStore>::from_bytes(&set.to_bytes()).unwrap();
        assert!(!loaded.is_live(7));
        assert!(!loaded.is_live(123));
        assert!(loaded.is_live(0));
        // Scans also exclude the tombstoned rows.
        let q = InequalityQuery::geq(vec![1.0, -1.0], -1e9).unwrap();
        assert_eq!(loaded.query_scan(&q).unwrap().matches.len(), 498);
    }

    // -- sharded manifest ---------------------------------------------------

    use crate::shard::{ShardConfig, ShardedIndexSet};

    fn sample_sharded(config: ShardConfig) -> ShardedIndexSet<VecStore> {
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![1.0 + (i % 13) as f64, -(1.0 + (i % 7) as f64)])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::new(vec![
            Domain::Continuous { lo: 0.5, hi: 2.0 },
            Domain::Discrete(vec![-1.0, -2.0]),
        ])
        .unwrap();
        let mut set =
            ShardedIndexSet::build(table, domain, IndexConfig::with_budget(4), config).unwrap();
        set.delete_point(7).unwrap();
        set.delete_point(123).unwrap();
        set
    }

    #[test]
    fn sharded_roundtrip_preserves_answers_for_both_partitioners() {
        for config in [ShardConfig::round_robin(3), ShardConfig::pilot_key_range(3)] {
            let set = sample_sharded(config);
            let bytes = set.to_bytes();
            assert_eq!(&bytes[..8], MAGIC_SHARD);
            let loaded = ShardedIndexSet::<VecStore>::from_bytes(&bytes).unwrap();
            assert_eq!(loaded.len(), set.len());
            assert_eq!(loaded.num_shards(), 3);
            assert_eq!(loaded.partitioner(), set.partitioner());
            for b in [-30.0, -5.0, 0.0, 5.0, 30.0] {
                let q = InequalityQuery::leq(vec![1.0, -1.5], b).unwrap();
                assert_eq!(
                    loaded.query(&q).unwrap().sorted_ids(),
                    set.query(&q).unwrap().sorted_ids(),
                    "{config:?} b={b}"
                );
            }
            // Tombstones and mutation routing survive the roundtrip.
            let mut loaded = loaded;
            assert!(!loaded.is_live(7));
            assert_eq!(
                loaded.delete_point(7).unwrap_err(),
                PlanarError::PointNotFound(7)
            );
            loaded.insert_point(&[2.0, -2.0]).unwrap();
            assert_eq!(loaded.len(), set.len() + 1);
            // The snapshot round-trips to the same bytes and id maps,
            // before and after a compaction drops ids, with every loaded
            // shard clustered afresh.
            let mut compacted = set.clone();
            assert!(!compacted.compact(0.0).is_empty());
            for s in [&set, &compacted] {
                let bytes = s.to_bytes();
                let reread = ShardedIndexSet::<VecStore>::from_bytes(&bytes).unwrap();
                assert_eq!(reread.to_bytes(), bytes);
                assert_eq!(reread.global_ids(), s.global_ids());
                assert_eq!(reread.dropped(), s.dropped());
                assert!((0..3).all(|i| reread.shard(i).unwrap().table().is_clustered()));
            }
        }
    }

    #[test]
    fn corrupt_shard_index_section_recovers_to_that_shard_only() {
        let set = sample_sharded(ShardConfig::round_robin(3));
        let mut bytes = set.to_bytes().to_vec();
        // The file tail is inside the last shard's last index section.
        let off = bytes.len() - 30;
        Corruption::BitFlip {
            offset: off,
            bit: 2,
        }
        .apply(&mut bytes);

        assert!(ShardedIndexSet::<VecStore>::from_bytes(&bytes).is_err());
        let (recovered, report) = ShardedIndexSet::<VecStore>::from_bytes_recover(&bytes).unwrap();
        assert!(!report.is_clean());
        let quarantined = report.quarantined();
        assert_eq!(quarantined.len(), 1, "one shard affected: {quarantined:?}");
        assert_eq!(quarantined[0].0, 2, "only the last shard");
        assert!(report.shards[0].is_clean());
        assert!(report.shards[1].is_clean());

        // The quarantined shard still answers exactly (degraded or not).
        let q = InequalityQuery::leq(vec![1.0, -1.5], 3.0).unwrap();
        assert_eq!(
            recovered.query(&q).unwrap().sorted_ids(),
            set.query(&q).unwrap().sorted_ids()
        );
    }

    #[test]
    fn sharded_load_or_recover_rebuilds_and_reports() {
        let set = sample_sharded(ShardConfig::pilot_key_range(2));
        let dir = TempDir::new("persist_shard_recover").unwrap();
        let path = dir.file("set.shards");
        let len = set.to_bytes().len();
        let mut io = FaultyIo::new(vec![IoFault::CorruptWrite {
            nth: 0,
            offset: len - 30,
            bit: 4,
        }]);
        set.save_to_with(&path, &mut io, &SaveOptions::fail_fast())
            .unwrap();

        assert!(ShardedIndexSet::<VecStore>::load_from(&path).is_err());
        let (recovered, report) = ShardedIndexSet::<VecStore>::load_or_recover(&path).unwrap();
        assert_eq!(report.shards.len(), 2);
        assert!(!report.shards[1].quarantined.is_empty());
        assert_eq!(report.shards[1].rebuilt, report.shards[1].quarantined);
        assert!(recovered.quarantined_positions().is_empty());
        let q = InequalityQuery::geq(vec![1.0, -1.0], -3.0).unwrap();
        assert_eq!(
            recovered.query(&q).unwrap().sorted_ids(),
            set.query(&q).unwrap().sorted_ids()
        );
    }

    #[test]
    fn corrupt_shard_core_is_fatal_even_in_recovery() {
        let set = sample_sharded(ShardConfig::round_robin(2));
        let mut bytes = set.to_bytes().to_vec();
        // Offset 30 is inside the manifest core (shard 0's id-list length).
        Corruption::BitFlip { offset: 30, bit: 0 }.apply(&mut bytes);
        assert!(ShardedIndexSet::<VecStore>::from_bytes_recover(&bytes).is_err());
    }

    #[test]
    fn every_bit_flip_of_a_sharded_snapshot_is_refused() {
        // Small enough to reload once per byte in about a second in an
        // unoptimized build, with every field present: the range
        // partitioner, a dropped id, and the quantization flag.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![1.0 + (i % 5) as f64, -(1.0 + (i % 3) as f64)])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain =
            ParameterDomain::new(vec![Domain::Continuous { lo: 0.5, hi: 2.0 }; 2]).unwrap();
        let config = ShardConfig::pilot_key_range(2);
        let mut set =
            ShardedIndexSet::<VecStore>::build(table, domain, IndexConfig::with_budget(2), config)
                .unwrap();
        set.set_quant_tier(QuantTier::I16);
        set.delete_point(3).unwrap();
        set.delete_point(4).unwrap();
        assert!(!set.compact(0.0).is_empty());
        set.delete_point(5).unwrap();
        let bytes = set.to_bytes().to_vec();
        assert!(ShardedIndexSet::<VecStore>::from_bytes(&bytes).is_ok());
        // The preambles (magic, flags, core_len) of the manifest and of
        // each shard's snapshot: every bit of these is flipped, so the
        // quant flag (bit 0 of a shard's flags word) is among them.
        let heads: Vec<usize> = std::iter::once(0)
            .chain((0..bytes.len() - 7).filter(|&i| &bytes[i..i + 8] == MAGIC))
            .collect();
        assert_eq!(heads.len(), 1 + set.num_shards());
        let in_head = |offset: usize| heads.iter().any(|&h| (h..h + PREAMBLE).contains(&offset));
        // Every byte is under a seal or a checked preamble field, so one
        // flipped bit anywhere is a typed error.
        for offset in 0..bytes.len() {
            let bits = if in_head(offset) {
                0..8
            } else {
                offset % 8..offset % 8 + 1
            };
            for bit in bits {
                let mut bad = bytes.clone();
                bad[offset] ^= 1 << bit;
                let got = ShardedIndexSet::<VecStore>::from_bytes(&bad);
                assert!(
                    matches!(got, Err(PlanarError::Persist(_))),
                    "bit {bit} of offset {offset} of {}: {:?}",
                    bytes.len(),
                    got.err()
                );
            }
        }
    }

    #[test]
    fn sharded_magic_does_not_cross_load() {
        let single = sample_set();
        let sharded = sample_sharded(ShardConfig::round_robin(2));
        assert!(ShardedIndexSet::<VecStore>::from_bytes(&single.to_bytes()).is_err());
        assert!(PlanarIndexSet::<VecStore>::from_bytes(&sharded.to_bytes()).is_err());
        assert!(ShardedIndexSet::<VecStore>::from_bytes(&[]).is_err());
    }

    #[test]
    fn sharded_save_is_atomic_under_crash() {
        let set = sample_sharded(ShardConfig::round_robin(2));
        let dir = TempDir::new("persist_shard_crash").unwrap();
        let path = dir.file("set.shards");
        set.save_to(&path).unwrap();

        let mut newer = set.clone();
        newer.delete_point(0).unwrap();
        let mut io = FaultyIo::new(vec![IoFault::CrashAfterWrites(2)]);
        assert!(newer
            .save_to_with(&path, &mut io, &SaveOptions::fail_fast())
            .is_err());

        let loaded = ShardedIndexSet::<VecStore>::load_from(&path).unwrap();
        assert_eq!(loaded.len(), set.len());
        assert!(loaded.is_live(0));
    }
}
