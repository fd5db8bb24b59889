//! Fault injection for the index lifecycle.
//!
//! Production indices meet three failure classes the algorithms themselves
//! never produce: **storage corruption** (flipped bits, truncated files),
//! **transient IO failures** (full disks, interrupted writes), and
//! **poisoned queries** (a panic inside a batch worker). This module makes
//! all three injectable deterministically so `crate::persist` and
//! `crate::parallel` can be tested against explicit fault schedules:
//!
//! * `Corruption` — pure byte-level mutations (truncate-at-byte-k,
//!   bit-flip-at-offset) applied to serialized snapshots;
//! * [`SnapshotIo`] — the IO seam behind [`save_to`] with a production
//!   implementation ([`StdIo`]) and a scripted one (`FaultyIo`) that can
//!   fail the n-th write, crash mid-save, or corrupt bytes silently;
//! * `arm_query_panic` — a trigger that panics inside query execution for
//!   a sentinel query, exercising the batch engine's panic isolation.
//!
//! [`save_to`]: crate::multi::PlanarIndexSet::save_to
//!
//! Every schedule is deterministic: the same faults in the same order
//! produce the same observable outcome, which is what the fault-injection
//! proptests rely on to shrink-by-reseed.
//!
//! Only the IO seam ([`SnapshotIo`], [`StdIo`]) is part of the production
//! build. The injection machinery — `Corruption`, `FaultyIo`, `TempDir`,
//! and the poisoned-query trigger — is compiled solely for this crate's own
//! tests or under the `fault-injection` cargo feature; in default builds
//! the query-path trigger is a no-op and nothing can arm it.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::Path;
#[cfg(any(test, feature = "fault-injection"))]
use std::path::PathBuf;
#[cfg(any(test, feature = "fault-injection"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte-granular chunk size for [`SnapshotIo::write_file`] implementations
/// that count writes: "fail the 3rd write" means the 3rd 4 KiB chunk.
#[cfg(any(test, feature = "fault-injection"))]
pub const WRITE_CHUNK: usize = 4096;

/// A deterministic byte-level corruption of a serialized snapshot.
///
/// These model what a crashed writer, a bad disk, or a truncating copy does
/// to bytes at rest; apply them with [`Corruption::apply`].
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Keep only the first `len` bytes (torn write / partial download).
    TruncateAt(usize),
    /// Flip bit `bit` (0–7) of the byte at `offset` (silent media error).
    BitFlip {
        /// Byte offset of the corrupted byte.
        offset: usize,
        /// Which bit of that byte flips.
        bit: u8,
    },
    /// Overwrite `len` bytes starting at `offset` with zeros (bad sector).
    ZeroRange {
        /// First byte of the zeroed range.
        offset: usize,
        /// Length of the zeroed range.
        len: usize,
    },
}

#[cfg(any(test, feature = "fault-injection"))]
impl Corruption {
    /// Apply this corruption to `bytes` in place. Out-of-range offsets
    /// saturate to the buffer (so schedules never panic on short inputs).
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        match *self {
            Corruption::TruncateAt(len) => bytes.truncate(len),
            Corruption::BitFlip { offset, bit } => {
                if let Some(byte) = bytes.get_mut(offset) {
                    *byte ^= 1u8 << (bit & 7);
                }
            }
            Corruption::ZeroRange { offset, len } => {
                let end = offset.saturating_add(len).min(bytes.len());
                if offset < end {
                    bytes[offset..end].fill(0);
                }
            }
        }
    }
}

/// The IO seam behind snapshot persistence.
///
/// [`crate::multi::PlanarIndexSet::save_to`] performs exactly three kinds of
/// operations — write a whole temp file durably, rename it over the target,
/// and remove stale temp files — so the seam is three methods. Production
/// code uses [`StdIo`]; fault-injection tests substitute `FaultyIo`.
pub trait SnapshotIo {
    /// Durably write `bytes` to `path`: create/truncate, write all bytes,
    /// fsync.
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically rename `from` onto `to` (same directory).
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a (temp) file; missing files are not an error for callers,
    /// which ignore the result.
    fn remove_file(&mut self, path: &Path) -> io::Result<()>;

    /// Read a whole file.
    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }
}

/// The production [`SnapshotIo`]: `std::fs` with fsync on file and (best
/// effort) parent directory, so a rename that returned `Ok` survives power
/// loss on journaling filesystems.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdIo;

impl SnapshotIo for StdIo {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        // Durability of the rename itself: fsync the parent directory.
        // Best-effort — not all platforms/filesystems allow directory opens.
        if let Some(dir) = to.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// One entry of a [`FaultyIo`] schedule.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The `nth` (0-based) [`WRITE_CHUNK`] write across the IO's lifetime
    /// fails once with `ErrorKind::Interrupted` — a transient error that a
    /// bounded retry should absorb.
    FailNthWrite(u64),
    /// During the `nth` file write, persist only the first `keep` bytes,
    /// then fail — a torn write. All later operations keep working.
    TruncateWrite {
        /// Which file-level write (0-based) is torn.
        nth: u64,
        /// How many bytes of it reach the disk.
        keep: usize,
    },
    /// Flip one bit of the byte at `offset` in the `nth` file write, which
    /// otherwise reports success — silent corruption below fsync.
    CorruptWrite {
        /// Which file-level write (0-based) is corrupted.
        nth: u64,
        /// Byte offset within the written buffer.
        offset: usize,
        /// Which bit of that byte flips.
        bit: u8,
    },
    /// After `n` successful chunk writes the process "loses power": the
    /// in-flight write fails and **every** subsequent operation (writes,
    /// renames, removals) fails with `ErrorKind::Other`.
    CrashAfterWrites(u64),
    /// The `nth` (0-based) rename fails once with `ErrorKind::Interrupted`.
    FailNthRename(u64),
}

/// A scripted [`SnapshotIo`] that perturbs real filesystem operations
/// according to a deterministic fault schedule. Paths it touches are real
/// files (point it at a temp dir), so load paths can be exercised on the
/// exact bytes a faulty save left behind.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug)]
pub struct FaultyIo {
    faults: Vec<IoFault>,
    inner: StdIo,
    chunk_writes: u64,
    file_writes: u64,
    renames: u64,
    crashed: bool,
    fired: Vec<IoFault>,
}

#[cfg(any(test, feature = "fault-injection"))]
impl FaultyIo {
    /// An IO layer that will inject every fault in `faults` (each at the
    /// point its counters select) and behave like [`StdIo`] otherwise.
    pub fn new(faults: Vec<IoFault>) -> Self {
        Self {
            faults,
            inner: StdIo,
            chunk_writes: 0,
            file_writes: 0,
            renames: 0,
            crashed: false,
            fired: Vec::new(),
        }
    }

    /// The faults that actually fired, in firing order.
    pub fn fired(&self) -> &[IoFault] {
        &self.fired
    }

    /// True once a [`IoFault::CrashAfterWrites`] has triggered: the
    /// simulated machine is down and every operation fails.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    fn check_crashed(&self) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::other("injected: machine crashed"));
        }
        Ok(())
    }
}

#[cfg(any(test, feature = "fault-injection"))]
impl SnapshotIo for FaultyIo {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check_crashed()?;
        let this_write = self.file_writes;
        self.file_writes += 1;

        // Silent corruption and torn writes rewrite the payload up front.
        let mut payload = bytes.to_vec();
        let mut torn = None;
        for f in &self.faults {
            match *f {
                IoFault::CorruptWrite { nth, offset, bit } if nth == this_write => {
                    Corruption::BitFlip { offset, bit }.apply(&mut payload);
                    self.fired.push(*f);
                }
                IoFault::TruncateWrite { nth, keep } if nth == this_write => {
                    torn = Some(keep);
                    self.fired.push(*f);
                }
                _ => {}
            }
        }
        if let Some(keep) = torn {
            payload.truncate(keep);
            self.inner.write_file(path, &payload)?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected: torn write",
            ));
        }

        // Chunked write so FailNthWrite / CrashAfterWrites have byte-level
        // granularity: bytes before the failing chunk really land on disk.
        let mut written = 0usize;
        while written < payload.len() || (payload.is_empty() && written == 0) {
            let fail_now = self.faults.iter().copied().find(|f| match *f {
                IoFault::FailNthWrite(n) => {
                    n == self.chunk_writes && !self.fired.contains(&IoFault::FailNthWrite(n))
                }
                IoFault::CrashAfterWrites(n) => n == self.chunk_writes,
                _ => false,
            });
            if let Some(fault) = fail_now {
                self.fired.push(fault);
                self.inner.write_file(path, &payload[..written])?;
                return match fault {
                    IoFault::CrashAfterWrites(_) => {
                        self.crashed = true;
                        Err(io::Error::other("injected: crash during write"))
                    }
                    _ => Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "injected: transient write failure",
                    )),
                };
            }
            let end = (written + WRITE_CHUNK).min(payload.len());
            self.chunk_writes += 1;
            written = end;
            if payload.is_empty() {
                break;
            }
        }
        self.inner.write_file(path, &payload)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.check_crashed()?;
        let this_rename = self.renames;
        self.renames += 1;
        if let Some(f) = self
            .faults
            .iter()
            .copied()
            .find(|f| matches!(*f, IoFault::FailNthRename(n) if n == this_rename))
        {
            if !self.fired.contains(&f) {
                self.fired.push(f);
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected: transient rename failure",
                ));
            }
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.check_crashed()?;
        self.inner.remove_file(path)
    }
}

/// A scratch directory for fault-injection tests that cleans up after
/// itself, keeping schedules hermetic.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

#[cfg(any(test, feature = "fault-injection"))]
impl TempDir {
    /// Create a fresh directory under the system temp dir, uniquified by
    /// pid and a process-wide counter.
    pub fn new(label: &str) -> io::Result<Self> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "planar_fault_{label}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

#[cfg(any(test, feature = "fault-injection"))]
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Poisoned-query trigger.
// ---------------------------------------------------------------------------

/// Disarmed sentinel: no finite query offset has NaN's bit pattern, and
/// `InequalityQuery` rejects non-finite offsets, so the trigger can never
/// fire while disarmed.
#[cfg(any(test, feature = "fault-injection"))]
const DISARMED: u64 = f64::NAN.to_bits();

#[cfg(any(test, feature = "fault-injection"))]
static PANIC_B_BITS: AtomicU64 = AtomicU64::new(DISARMED);

/// Arm the poisoned-query trigger: any query whose offset `b` is
/// bit-identical to `armed_b` panics inside execution. Used to test the
/// batch engine's panic isolation (`catch_unwind` per query); pick a
/// sentinel offset no legitimate query in the test uses.
///
/// The trigger is process-global — disarm it (see [`disarm_query_panic`])
/// before running unrelated queries. It only exists under the
/// `fault-injection` feature; default builds compile the query-path probe
/// to a no-op.
#[cfg(any(test, feature = "fault-injection"))]
pub fn arm_query_panic(armed_b: f64) {
    PANIC_B_BITS.store(armed_b.to_bits(), Ordering::SeqCst);
}

/// Disarm the poisoned-query trigger.
#[cfg(any(test, feature = "fault-injection"))]
pub fn disarm_query_panic() {
    PANIC_B_BITS.store(DISARMED, Ordering::SeqCst);
}

/// Called on the query execution path; panics iff the trigger is armed for
/// exactly this offset.
#[cfg(any(test, feature = "fault-injection"))]
#[inline]
pub(crate) fn maybe_inject_query_panic(b: f64) {
    if PANIC_B_BITS.load(Ordering::Relaxed) == b.to_bits() {
        panic!("injected fault: poisoned query (b = {b})");
    }
}

/// Default-build stand-in for the poisoned-query trigger: nothing can arm
/// it, so the query path pays nothing (not even an atomic load).
#[cfg(not(any(test, feature = "fault-injection")))]
#[inline(always)]
pub(crate) fn maybe_inject_query_panic(_b: f64) {}

// ---------------------------------------------------------------------------
// WAL append fault trigger.
// ---------------------------------------------------------------------------

/// How an armed WAL fault fires on its scheduled append (see
/// [`arm_wal_fault`]).
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFaultKind {
    /// The append fails transiently: nothing is written, the writer stays
    /// usable, the mutation is rejected before being applied.
    FailAppend,
    /// Crash mid-frame: only the first `keep` bytes of the frame reach the
    /// file, then the writer dies — every later append fails. Models a
    /// power cut halfway through a `write`.
    TornAppend {
        /// Bytes of the frame that make it to disk.
        keep: usize,
    },
    /// The append itself succeeds, then the writer dies silently — the
    /// frame is complete on disk but nothing after it ever lands. Models a
    /// crash between two mutations.
    CrashAfterAppend,
}

/// The armed fault: `(nth append, kind)`, taken under a lock so arming
/// from a test thread is race-free. `None` = disarmed.
#[cfg(any(test, feature = "fault-injection"))]
static WAL_FAULT: std::sync::Mutex<Option<(u64, WalFaultKind)>> = std::sync::Mutex::new(None);

/// Arm the WAL append fault: the `nth` append (0-based, counted per
/// writer) of any WAL writer opened afterwards fires `kind` once, then the
/// trigger disarms itself. Process-global, like [`arm_query_panic`] —
/// disarm before unrelated WAL activity.
#[cfg(any(test, feature = "fault-injection"))]
pub fn arm_wal_fault(nth: u64, kind: WalFaultKind) {
    *WAL_FAULT.lock().expect("wal fault lock") = Some((nth, kind));
}

/// Disarm the WAL append fault.
#[cfg(any(test, feature = "fault-injection"))]
pub fn disarm_wal_fault() {
    *WAL_FAULT.lock().expect("wal fault lock") = None;
}

/// Consulted by the WAL writer on each append: returns the fault to fire
/// for append number `this_append`, consuming the armed trigger.
#[cfg(any(test, feature = "fault-injection"))]
pub(crate) fn wal_fault_action(this_append: u64) -> Option<WalFaultKind> {
    let mut slot = WAL_FAULT.lock().expect("wal fault lock");
    match *slot {
        Some((nth, kind)) if nth == this_append => {
            *slot = None;
            Some(kind)
        }
        _ => None,
    }
}

/// Serializes the unit tests that open WAL writers: the fault trigger is
/// process-global and every writer consults it, so an armed fault must
/// not be consumed by a neighboring test's appends.
#[cfg(test)]
pub(crate) fn serial_wal_tests() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Replication transport fault trigger.
// ---------------------------------------------------------------------------

/// How an armed transport fault perturbs its scheduled send (see
/// [`arm_transport_fault`]). These model the wire, not the disk: a shipped
/// segment batch can be lost, duplicated, delivered out of order, cut
/// short, or bit-flipped in flight — and the replica must detect every one
/// of them from the message/frame CRCs alone.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFaultKind {
    /// The message vanishes: `send` reports success but nothing is
    /// delivered (lossy link — retry/backoff territory).
    DropSend,
    /// The message is delivered twice back to back (at-least-once
    /// transport; the replica must dedupe by LSN).
    DuplicateSend,
    /// This message is held back and delivered *after* the next one —
    /// a reordered pair. If no later send arrives it is delivered alone.
    ReorderPair,
    /// Only the first `keep` bytes are delivered (connection cut
    /// mid-ship — a torn segment batch).
    Torn {
        /// Bytes of the message that arrive.
        keep: usize,
    },
    /// One bit of the delivered copy flips (silent wire corruption).
    BitFlip {
        /// Byte offset within the message.
        offset: usize,
        /// Which bit of that byte flips.
        bit: u8,
    },
}

/// The armed transport fault: `(nth send, kind)`. `None` = disarmed.
#[cfg(any(test, feature = "fault-injection"))]
static TRANSPORT_FAULT: std::sync::Mutex<Option<(u64, TransportFaultKind)>> =
    std::sync::Mutex::new(None);

/// Arm the transport fault: the `nth` send (0-based, counted per faulty
/// transport wrapper) fires `kind` once, then the trigger disarms itself.
/// Process-global, like [`arm_wal_fault`] — serialize tests that use it
/// and disarm before unrelated replication activity.
#[cfg(any(test, feature = "fault-injection"))]
pub fn arm_transport_fault(nth: u64, kind: TransportFaultKind) {
    *TRANSPORT_FAULT.lock().expect("transport fault lock") = Some((nth, kind));
}

/// Disarm the transport fault.
#[cfg(any(test, feature = "fault-injection"))]
pub fn disarm_transport_fault() {
    *TRANSPORT_FAULT.lock().expect("transport fault lock") = None;
}

/// Consulted by `FaultyTransport` on each send: returns the fault to fire
/// for send number `this_send`, consuming the armed trigger.
#[cfg(any(test, feature = "fault-injection"))]
pub(crate) fn transport_fault_action(this_send: u64) -> Option<TransportFaultKind> {
    let mut slot = TRANSPORT_FAULT.lock().expect("transport fault lock");
    match *slot {
        Some((nth, kind)) if nth == this_send => {
            *slot = None;
            Some(kind)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Socket-level chaos proxy.
// ---------------------------------------------------------------------------

/// A one-shot byte-stream fault a [`ChaosProxy`] injects into the
/// primary→replica direction (see [`ChaosCtl::arm`]). Truncation,
/// duplication, and silent byte loss all desynchronize the TCP framing
/// downstream — the transport must detect it, reset, reconnect, and let
/// retransmission heal the gap; none of them may corrupt applied state.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Deliver only the first `keep` bytes of the chunk, then kill both
    /// sides of the connection (a peer dying mid-frame).
    Truncate {
        /// Bytes of the chunk that arrive before the cut.
        keep: usize,
    },
    /// Kill both sides of the connection without delivering the chunk
    /// (connection reset).
    Reset,
    /// Deliver the chunk twice back to back (duplicate delivery at the
    /// byte layer — desyncs the length-prefixed framing).
    Duplicate,
    /// Silently drop the chunk but keep the connection open (a hole in
    /// the byte stream — the hardest desync to notice).
    Drop,
}

#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug)]
struct ChaosState {
    partitioned: bool,
    delay_ms: u64,
    armed: Option<(u64, ChaosFault)>,
}

/// Shared control handle for a running [`ChaosProxy`]: flip partitions,
/// add latency, arm one-shot faults, and kill live connections, all
/// while traffic flows.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone)]
pub struct ChaosCtl {
    state: std::sync::Arc<std::sync::Mutex<ChaosState>>,
    /// Downstream (target→client) chunks relayed — the fault schedule's
    /// clock.
    chunks: std::sync::Arc<AtomicU64>,
    /// Bumped by [`ChaosCtl::reset_all`]; relay threads die on mismatch.
    generation: std::sync::Arc<AtomicU64>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

#[cfg(any(test, feature = "fault-injection"))]
impl ChaosCtl {
    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stall delivery in both directions while `on` (TCP backpressure —
    /// connections survive and traffic resumes on heal).
    pub fn set_partitioned(&self, on: bool) {
        self.lock().partitioned = on;
    }

    /// Delay every relayed chunk by `ms` milliseconds.
    pub fn set_delay_ms(&self, ms: u64) {
        self.lock().delay_ms = ms;
    }

    /// Arm `fault` to fire on downstream chunk number `at_chunk`
    /// (0-based, see [`ChaosCtl::chunks`]); one-shot, like
    /// [`arm_transport_fault`].
    pub fn arm(&self, at_chunk: u64, fault: ChaosFault) {
        self.lock().armed = Some((at_chunk, fault));
    }

    /// Downstream chunks relayed so far.
    pub fn chunks(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// Kill every live proxied connection (both sides). New connections
    /// keep being accepted — this is the reconnect-storm lever.
    pub fn reset_all(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Consume the armed fault if `chunk` is its trigger.
    fn take_fault(&self, chunk: u64) -> Option<ChaosFault> {
        let mut st = self.lock();
        match st.armed {
            Some((at, fault)) if chunk >= at => {
                st.armed = None;
                Some(fault)
            }
            _ => None,
        }
    }
}

/// A TCP relay standing between a replica and its primary's serve
/// listener, injecting socket-level chaos on command: partitions,
/// latency, mid-frame truncation, connection resets, duplicated bytes,
/// and silent byte loss (see [`ChaosFault`], [`ChaosCtl`]). Faults are
/// injected on the primary→replica (downstream) direction, where the
/// replication payload flows.
///
/// Point a `TcpTransport` at [`ChaosProxy::addr`] instead of the real
/// listener; the proxy dials `target` once per inbound connection and
/// relays both directions until told otherwise. Dropping the proxy stops
/// the listener and kills live connections.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug)]
pub struct ChaosProxy {
    addr: std::net::SocketAddr,
    ctl: ChaosCtl,
    accept: Option<std::thread::JoinHandle<()>>,
}

#[cfg(any(test, feature = "fault-injection"))]
impl ChaosProxy {
    /// Start a proxy on an ephemeral localhost port relaying to
    /// `target`.
    ///
    /// # Errors
    ///
    /// `PlanarError::Persist` when the listener cannot bind.
    pub fn start(target: std::net::SocketAddr) -> crate::Result<Self> {
        use std::sync::atomic::AtomicBool;
        use std::sync::{Arc, Mutex};
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| crate::PlanarError::Persist(format!("chaos proxy bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| crate::PlanarError::Persist(format!("chaos proxy addr: {e}")))?;
        let ctl = ChaosCtl {
            state: Arc::new(Mutex::new(ChaosState {
                partitioned: false,
                delay_ms: 0,
                armed: None,
            })),
            chunks: Arc::new(AtomicU64::new(0)),
            generation: Arc::new(AtomicU64::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let accept_ctl = ctl.clone();
        let accept = std::thread::Builder::new()
            .name("chaos-accept".into())
            .spawn(move || accept_loop(&listener, target, &accept_ctl))
            .map_err(|e| crate::PlanarError::Persist(format!("chaos proxy spawn: {e}")))?;
        Ok(Self {
            addr,
            ctl,
            accept: Some(accept),
        })
    }

    /// The address replicas should dial.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared chaos control handle.
    pub fn ctl(&self) -> ChaosCtl {
        self.ctl.clone()
    }
}

#[cfg(any(test, feature = "fault-injection"))]
impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.ctl.stop.store(true, Ordering::Release);
        self.ctl.reset_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = std::net::TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(any(test, feature = "fault-injection"))]
fn accept_loop(listener: &std::net::TcpListener, target: std::net::SocketAddr, ctl: &ChaosCtl) {
    while !ctl.stopped() {
        let Ok((client, _)) = listener.accept() else {
            continue;
        };
        if ctl.stopped() {
            break;
        }
        let Ok(upstream) =
            std::net::TcpStream::connect_timeout(&target, std::time::Duration::from_secs(1))
        else {
            continue;
        };
        let gen = ctl.generation.load(Ordering::SeqCst);
        // client→target carries replica hellos/acks; target→client
        // carries the replicated payload and takes the injected faults.
        spawn_relay(&client, &upstream, ctl, gen, false);
        spawn_relay(&upstream, &client, ctl, gen, true);
    }
}

#[cfg(any(test, feature = "fault-injection"))]
fn spawn_relay(
    from: &std::net::TcpStream,
    to: &std::net::TcpStream,
    ctl: &ChaosCtl,
    gen: u64,
    downstream: bool,
) {
    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
        let _ = from.shutdown(std::net::Shutdown::Both);
        let _ = to.shutdown(std::net::Shutdown::Both);
        return;
    };
    let ctl = ctl.clone();
    let name = if downstream { "chaos-down" } else { "chaos-up" };
    let _ = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || relay_pump(from, to, &ctl, gen, downstream));
}

/// Relay one direction chunk by chunk, applying the chaos schedule.
/// Exits (shutting both sockets down so the sibling relay exits too) on
/// EOF, socket error, injected kill, [`ChaosCtl::reset_all`], or proxy
/// stop.
#[cfg(any(test, feature = "fault-injection"))]
fn relay_pump(
    mut from: std::net::TcpStream,
    mut to: std::net::TcpStream,
    ctl: &ChaosCtl,
    gen: u64,
    downstream: bool,
) {
    use std::time::Duration;
    let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
    let kill = |from: &std::net::TcpStream, to: &std::net::TcpStream| {
        let _ = from.shutdown(std::net::Shutdown::Both);
        let _ = to.shutdown(std::net::Shutdown::Both);
    };
    let mut buf = [0u8; 16 * 1024];
    loop {
        if ctl.stopped() || ctl.generation.load(Ordering::SeqCst) != gen {
            kill(&from, &to);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                kill(&from, &to);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                kill(&from, &to);
                return;
            }
        };
        // A partition stalls delivery without closing anything: we stop
        // relaying (and soon stop reading), and TCP backpressure does
        // the rest. Healing resumes mid-stream with nothing lost.
        while ctl.lock().partitioned {
            if ctl.stopped() || ctl.generation.load(Ordering::SeqCst) != gen {
                kill(&from, &to);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let delay = ctl.lock().delay_ms;
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
        let fault = if downstream {
            let chunk = ctl.chunks.fetch_add(1, Ordering::Relaxed);
            ctl.take_fault(chunk)
        } else {
            None
        };
        let chunk = &buf[..n];
        match fault {
            None => {
                if to.write_all(chunk).is_err() {
                    kill(&from, &to);
                    return;
                }
            }
            Some(ChaosFault::Truncate { keep }) => {
                let _ = to.write_all(&chunk[..keep.min(n)]);
                kill(&from, &to);
                return;
            }
            Some(ChaosFault::Reset) => {
                kill(&from, &to);
                return;
            }
            Some(ChaosFault::Duplicate) => {
                if to.write_all(chunk).is_err() || to.write_all(chunk).is_err() {
                    kill(&from, &to);
                    return;
                }
            }
            Some(ChaosFault::Drop) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_is_deterministic_and_saturating() {
        let mut a = vec![0xFFu8; 8];
        Corruption::BitFlip { offset: 3, bit: 0 }.apply(&mut a);
        assert_eq!(a[3], 0xFE);
        Corruption::BitFlip {
            offset: 100,
            bit: 0,
        }
        .apply(&mut a); // out of range: no-op
        Corruption::TruncateAt(4).apply(&mut a);
        assert_eq!(a.len(), 4);
        Corruption::ZeroRange { offset: 2, len: 99 }.apply(&mut a);
        assert_eq!(a, vec![0xFF, 0xFF, 0, 0]);
    }

    #[test]
    fn faulty_io_transient_write_fails_once_then_succeeds() {
        let dir = TempDir::new("transient").unwrap();
        let path = dir.file("x.bin");
        let mut io = FaultyIo::new(vec![IoFault::FailNthWrite(0)]);
        assert_eq!(
            io.write_file(&path, &[1, 2, 3]).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        io.write_file(&path, &[1, 2, 3]).unwrap();
        assert_eq!(io.read_file(&path).unwrap(), vec![1, 2, 3]);
        assert_eq!(io.fired(), &[IoFault::FailNthWrite(0)]);
    }

    #[test]
    fn faulty_io_crash_stops_everything() {
        let dir = TempDir::new("crash").unwrap();
        let path = dir.file("x.bin");
        let mut io = FaultyIo::new(vec![IoFault::CrashAfterWrites(0)]);
        assert!(io.write_file(&path, &[9; 10]).is_err());
        assert!(io.is_crashed());
        assert!(io.write_file(&path, &[9; 10]).is_err());
        assert!(io.rename(&path, &dir.file("y.bin")).is_err());
        assert!(io.remove_file(&path).is_err());
    }

    #[test]
    fn faulty_io_torn_write_persists_prefix() {
        let dir = TempDir::new("torn").unwrap();
        let path = dir.file("x.bin");
        let mut io = FaultyIo::new(vec![IoFault::TruncateWrite { nth: 0, keep: 2 }]);
        assert!(io.write_file(&path, &[7, 8, 9, 10]).is_err());
        assert_eq!(io.read_file(&path).unwrap(), vec![7, 8]);
        // Next write is clean.
        io.write_file(&path, &[1]).unwrap();
        assert_eq!(io.read_file(&path).unwrap(), vec![1]);
    }

    #[test]
    fn faulty_io_silent_corruption_reports_success() {
        let dir = TempDir::new("silent").unwrap();
        let path = dir.file("x.bin");
        let mut io = FaultyIo::new(vec![IoFault::CorruptWrite {
            nth: 0,
            offset: 1,
            bit: 7,
        }]);
        io.write_file(&path, &[0, 0, 0]).unwrap();
        assert_eq!(io.read_file(&path).unwrap(), vec![0, 0x80, 0]);
    }

    #[test]
    fn faulty_io_transient_rename_fails_once() {
        let dir = TempDir::new("rename").unwrap();
        let a = dir.file("a.bin");
        let b = dir.file("b.bin");
        let mut io = FaultyIo::new(vec![IoFault::FailNthRename(0)]);
        io.write_file(&a, &[5]).unwrap();
        assert!(io.rename(&a, &b).is_err());
        io.rename(&a, &b).unwrap();
        assert_eq!(io.read_file(&b).unwrap(), vec![5]);
    }
}
