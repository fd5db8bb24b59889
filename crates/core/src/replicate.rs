//! WAL-shipping replication: primary → replica segment tailing,
//! LSN-bounded follower reads, and failover promotion.
//!
//! The per-shard, CRC-framed, LSN-ordered write-ahead log of
//! `crate::wal` is already a replication stream — this module ships it.
//! A [`Primary`] wraps a [`ConcurrentDurableShardedIndexSet`] and tails
//! its own segment files with one cursor per attached replica; a
//! [`Replica`] bootstraps by installing the primary's latest checkpoint
//! snapshot as its own [`ConcurrentDurableShardedIndexSet`], then feeds
//! shipped frames to that engine: they are logged through its shard
//! group-commit queues at the LSNs the primary assigned and applied by
//! the same `replay_record` a primary's live writes and crash recovery
//! use — divergence checks included — one epoch per applied batch. A
//! replica's directory is therefore an ordinary durable directory, and
//! promotion is a term bump on the engine it already holds.
//!
//! ## Protocol
//!
//! Each primary→replica link is a pair of unidirectional [`Transport`]s
//! (`down` for data, `up` for acknowledgements) carrying CRC-64-sealed
//! [`PLNRSHP1`-framed messages](self#wire-format):
//!
//! 1. **Seed** — on attach (and whenever a link falls off the retained
//!    log) the primary ships `Snapshot { term, generation, watermark,
//!    bytes }`; the replica validates the image *before* installing it
//!    atomically, lays out the durable directory around it (manifest,
//!    empty shard logs at `watermark + 1`, older generations swept), and
//!    acks `watermark`.
//! 2. **Tail** — the primary polls a per-link segment cursor
//!    (`WalTailer`) and ships complete frames as `Frames { term,
//!    [(shard, frame)] }`, raw on-disk encodings included, so the inner
//!    frame CRCs travel end-to-end and detect in-flight corruption.
//! 3. **Apply** — the replica stages frames by LSN (a bounded reorder
//!    buffer absorbs out-of-order delivery, duplicates are dropped by
//!    LSN), logs each contiguous run through its engine's shard commit
//!    queues (log-then-apply, one fsync per touched shard per batch),
//!    replays it into the staged set, and publishes **once per batch** —
//!    per-record publishing would cap catch-up far below the cold-replay
//!    rate. A failed append or fsync, like a replay divergence check,
//!    stops the replica loudly.
//! 4. **Heal** — transport sends retry under capped exponential backoff
//!    with deterministic jitter ([`crate::backoff::Backoff`]); a link
//!    that stops making ack progress is rewound to its acked LSN
//!    (duplicates are cheap), and a link whose cursor precedes the
//!    oldest retained segment is re-seeded with a fresh snapshot. A
//!    replica announces itself with `Hello { term, replica, acked }` on
//!    attach and after every transport reconnect; a primary that can
//!    still serve `acked + 1` from its retained log resumes frame
//!    shipping there, and one that cannot (checkpoint truncation outran
//!    the replica) re-seeds automatically.
//! 5. **Fence** — every segment header and manifest carries a **term**.
//!    A replica that has adopted a higher term rejects lower-term
//!    traffic with `Reject { term }`; a primary that sees the rejection
//!    returns [`PlanarError::Fenced`] from every subsequent
//!    [`Primary::pump`] and must stop.
//!
//! ## Consistency contracts
//!
//! Follower reads are explicit about staleness: [`ReadConsistency::Any`]
//! serves the latest applied epoch (flagged `stale` when the replica
//! knows the primary is ahead), [`ReadConsistency::AtLeast`] returns a
//! typed [`PlanarError::ReplicaLag`] instead of a silently stale answer,
//! and [`ReadConsistency::ReadYourWrites`] bounds the read by the
//! primary's appended watermark from the last heartbeat.
//!
//! ## Failover
//!
//! The primary heartbeats `{ term, appended, acked }` on every link;
//! a replica whose lease (`FailoverConfig::lease_ms`) expires without
//! one reports `primary_alive == false`. [`elect`] picks the replica
//! with the highest **acked** (logged-and-fsynced) LSN — ties break to
//! the lowest index — and [`Replica::promote`] turns it into a new
//! [`Primary`] under `term + 1`: acked-on-the-old-primary mutations are
//! on the promoted replica's disk by construction (`acked ⇒ logged +
//! fsynced`), which the failover proptests sweep at every kill point.
//!
//! ## Wire format
//!
//! ```text
//! | "PLNRSHP1" | type u8 | body | crc64 u64 |      (integers LE)
//! type 1 Snapshot:  term u64 | generation u64 | watermark u64 | len u64 | bytes
//! type 2 Frames:    term u64 | count u32 | { shard u32 | len u32 | frame }*
//! type 3 Heartbeat: term u64 | appended u64 | acked u64
//! type 4 Ack:       term u64 | replica u32 | acked u64 | applied u64
//! type 5 Reject:    term u64
//! type 6 Hello:     term u64 | replica u32 | acked u64
//! ```
//!
//! A `shard` of `u32::MAX` marks a broadcast record (`Compact` /
//! `Checkpoint` land on every shard's log at one shared LSN); the
//! replica expands it back to every shard.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::backoff::Backoff;
use crate::concurrent::{ConcurrencyConfig, ConcurrentDurableShardedIndexSet, Snapshot};
use crate::shard::ShardedIndexSet;
use crate::store::{KeyStore, VecStore};
use crate::wal::{
    parse_frame, read_manifest, shard_wal_dir, snapshot_path, Lsn, Manifest, Mutation, MutationAck,
    QuorumGate, TailedFrame, WalOptions, WalRecord, WalTailer,
};
use crate::{PlanarError, Result};

/// The 8-byte banner/magic of every ship-protocol message. A TCP client
/// also writes it once per connection before its first framed message,
/// which is how the serve listener's protocol sniff routes the
/// connection to replication (see `planar-serve`).
pub const SHIP_MAGIC: &[u8; 8] = b"PLNRSHP1";
const MSG_SNAPSHOT: u8 = 1;
const MSG_FRAMES: u8 = 2;
const MSG_HEARTBEAT: u8 = 3;
const MSG_ACK: u8 = 4;
const MSG_REJECT: u8 = 5;
const MSG_HELLO: u8 = 6;

/// `shard` sentinel for records broadcast to every shard's WAL
/// (`Compact`, `Checkpoint`): shipped once, expanded on apply.
const BROADCAST_SHARD: u32 = u32::MAX;

fn shiperr(msg: impl Into<String>) -> PlanarError {
    PlanarError::Persist(format!("replication: {}", msg.into()))
}

fn shipio(ctx: &str, e: std::io::Error) -> PlanarError {
    PlanarError::Persist(format!("replication: {ctx}: {e}"))
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// A unidirectional, unreliable, message-oriented byte pipe. The
/// replication protocol assumes nothing beyond "a sent message *may*
/// arrive, once, intact": loss, duplication, reordering, and corruption
/// are all detected (message CRC, frame CRCs, LSN staging) and healed
/// (retransmit from the acked watermark, snapshot re-seed) above this
/// trait.
pub trait Transport: Send + std::fmt::Debug {
    /// Enqueue one message for delivery. `Ok` means *accepted*, not
    /// *delivered*.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] when the transport cannot accept the
    /// message now (callers retry under backoff).
    fn send(&mut self, msg: Vec<u8>) -> Result<()>;

    /// Dequeue the next message, or `None` when the pipe is empty.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on transport failure.
    fn recv(&mut self) -> Result<Option<Vec<u8>>>;

    /// False once the pipe is permanently closed: the peer went away and
    /// this transport will never deliver again. [`Primary::pump`] reaps
    /// links whose transports report disconnection. In-process
    /// transports never close.
    fn connected(&self) -> bool {
        true
    }

    /// A counter that advances every time the transport transparently
    /// re-established its underlying connection. A [`Replica`] watches
    /// it to re-announce itself (`Hello`) after each reconnect, since the
    /// remote end may have lost all per-connection state. Transports
    /// that never reconnect return a constant.
    fn reconnect_generation(&self) -> u64 {
        0
    }
}

/// In-process [`Transport`]: a shared FIFO. Clones address the same
/// queue, so one clone is the sending end and another the receiving end.
#[derive(Debug, Clone, Default)]
pub struct ChannelTransport {
    queue: Arc<Mutex<VecDeque<Vec<u8>>>>,
}

impl ChannelTransport {
    /// A fresh, empty pipe.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Vec<u8>>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Messages currently queued (tests and health checks).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, msg: Vec<u8>) -> Result<()> {
        self.lock().push_back(msg);
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.lock().pop_front())
    }
}

/// A [`Transport`] wrapper that perturbs sends according to the
/// process-global schedule armed with
/// [`crate::fault::arm_transport_fault`]: drop, duplicate, reorder a
/// pair, tear, or bit-flip — each exactly once, on the scheduled send.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    sends: u64,
    held: Option<Vec<u8>>,
}

#[cfg(any(test, feature = "fault-injection"))]
impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner`; behaves identically until a fault is armed.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            sends: 0,
            held: None,
        }
    }
}

#[cfg(any(test, feature = "fault-injection"))]
impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, msg: Vec<u8>) -> Result<()> {
        use crate::fault::TransportFaultKind;
        let this_send = self.sends;
        self.sends += 1;
        let action = crate::fault::transport_fault_action(this_send);
        // A message held back by ReorderPair is released *after* the
        // current send, swapping the pair's delivery order.
        let held = self.held.take();
        let out = match action {
            None => self.inner.send(msg),
            Some(TransportFaultKind::DropSend) => Ok(()),
            Some(TransportFaultKind::DuplicateSend) => {
                self.inner.send(msg.clone())?;
                self.inner.send(msg)
            }
            Some(TransportFaultKind::ReorderPair) => {
                self.held = Some(msg);
                Ok(())
            }
            Some(TransportFaultKind::Torn { keep }) => {
                let mut torn = msg;
                torn.truncate(keep.min(torn.len()));
                self.inner.send(torn)
            }
            Some(TransportFaultKind::BitFlip { offset, bit }) => {
                let mut flipped = msg;
                if let Some(byte) = flipped.get_mut(offset) {
                    *byte ^= 1u8 << (bit & 7);
                }
                self.inner.send(flipped)
            }
        };
        if let Some(held) = held {
            self.inner.send(held)?;
        }
        out
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        self.inner.recv()
    }
}

// ---------------------------------------------------------------------------
// Served endpoints (the server side of a TCP ship connection)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct EndpointShared {
    inbound: Mutex<VecDeque<Vec<u8>>>,
    outbound: Mutex<VecDeque<Vec<u8>>>,
    /// Signaled when `outbound` gains a message or the endpoint closes.
    wake: Condvar,
    closed: AtomicBool,
}

/// The replication-facing half of a served ship connection: a
/// [`Transport`] whose messages are ferried to/from the peer socket by a
/// [`ShipEndpointDriver`] on the serving side. Clones share the
/// connection, so one boxed clone serves as a link's `down` and another
/// as its `up`. Once the driver closes (socket gone), the endpoint
/// reports `connected() == false` and [`Primary::pump`] reaps the link.
#[derive(Debug, Clone)]
pub struct ShipEndpoint {
    shared: Arc<EndpointShared>,
}

impl Transport for ShipEndpoint {
    fn send(&mut self, msg: Vec<u8>) -> Result<()> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(shiperr("ship connection closed"));
        }
        self.shared
            .outbound
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(msg);
        self.shared.wake.notify_all();
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self
            .shared
            .inbound
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front())
    }

    fn connected(&self) -> bool {
        // Drain what already arrived even after close; reap only when
        // nothing is left to read.
        !self.shared.closed.load(Ordering::Acquire)
            || !self
                .shared
                .inbound
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty()
    }
}

/// The socket-facing half of a served ship connection (see
/// [`ShipEndpoint`]): the connection's reader thread pushes decoded
/// messages in with [`ShipEndpointDriver::push_inbound`], its writer
/// thread drains [`ShipEndpointDriver::wait_outbound`], and either side
/// closes the pair when the socket dies.
#[derive(Debug, Clone)]
pub struct ShipEndpointDriver {
    shared: Arc<EndpointShared>,
}

impl ShipEndpointDriver {
    /// Deliver one message received from the socket.
    pub fn push_inbound(&self, msg: Vec<u8>) {
        self.shared
            .inbound
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(msg);
    }

    /// Take the next outbound message, waiting up to `timeout` for one.
    /// Returns `None` on timeout or once closed with nothing queued —
    /// check [`ShipEndpointDriver::is_closed`] to tell them apart.
    pub fn wait_outbound(&self, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        let mut queue = self
            .shared
            .outbound
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(msg) = queue.pop_front() {
                return Some(msg);
            }
            if self.shared.closed.load(Ordering::Acquire) {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .wake
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
        }
    }

    /// Mark the connection dead: senders start failing, the transport
    /// reports disconnected, and any `wait_outbound` returns.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
        self.shared.wake.notify_all();
    }

    /// True once [`ShipEndpointDriver::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

/// Create the two halves of a served ship connection: the
/// replication-facing [`ShipEndpoint`] (box clones of it as a link's
/// `down` and `up`) and the socket-facing [`ShipEndpointDriver`].
pub fn endpoint_pair() -> (ShipEndpoint, ShipEndpointDriver) {
    let shared = Arc::new(EndpointShared {
        inbound: Mutex::new(VecDeque::new()),
        outbound: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        closed: AtomicBool::new(false),
    });
    (
        ShipEndpoint {
            shared: Arc::clone(&shared),
        },
        ShipEndpointDriver { shared },
    )
}

// ---------------------------------------------------------------------------
// TCP transport (the client side of a TCP ship connection)
// ---------------------------------------------------------------------------

/// Timeouts and limits for a [`TcpTransport`] link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpLinkOptions {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-`recv` socket read timeout: an empty socket returns
    /// `Ok(None)` after at most this long.
    pub read_timeout: Duration,
    /// Socket write timeout for `send`.
    pub write_timeout: Duration,
    /// First reconnect delay after a connection failure.
    pub backoff_base_ms: u64,
    /// Reconnect delay ceiling.
    pub backoff_cap_ms: u64,
    /// Largest acceptable framed message (snapshot seeds dominate).
    /// An inbound length above this is treated as stream desync: the
    /// connection is reset and re-established.
    pub max_message: usize,
}

impl Default for TcpLinkOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_millis(1),
            write_timeout: Duration::from_secs(1),
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            max_message: 1 << 30,
        }
    }
}

#[derive(Debug)]
struct TcpClient {
    addr: SocketAddr,
    opts: TcpLinkOptions,
    stream: Option<TcpStream>,
    /// Partial inbound frame accumulator.
    rx: Vec<u8>,
    backoff: Backoff,
    epoch: Instant,
    /// Successful connections so far — the reconnect generation.
    connects: u64,
}

impl TcpClient {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Drop the connection (and any partial inbound frame — the peer
    /// will retransmit above the message layer) and schedule a retry.
    fn reset(&mut self) {
        self.stream = None;
        self.rx.clear();
        let now = self.now_ms();
        self.backoff.failure(now);
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream> {
        if self.stream.is_none() {
            if !self.backoff.ready(self.now_ms()) {
                return Err(shiperr("tcp link backing off before reconnect"));
            }
            let attempt = (|| -> std::io::Result<TcpStream> {
                let stream = TcpStream::connect_timeout(&self.addr, self.opts.connect_timeout)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(self.opts.read_timeout))?;
                stream.set_write_timeout(Some(self.opts.write_timeout))?;
                // The protocol banner: the serve listener sniffs these 8
                // bytes to route this connection to replication.
                let mut s = stream.try_clone()?;
                s.write_all(SHIP_MAGIC)?;
                Ok(stream)
            })();
            match attempt {
                Ok(stream) => {
                    self.stream = Some(stream);
                    self.connects += 1;
                    self.backoff.success();
                }
                Err(e) => {
                    self.reset();
                    return Err(shipio("tcp connect", e));
                }
            }
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    fn send(&mut self, msg: Vec<u8>) -> Result<()> {
        if msg.len() > self.opts.max_message {
            return Err(shiperr(format!(
                "message of {} bytes exceeds the {} byte link cap",
                msg.len(),
                self.opts.max_message
            )));
        }
        self.ensure_connected()?;
        let stream = self.stream.as_mut().expect("connected");
        let mut framed = Vec::with_capacity(4 + msg.len());
        framed.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        framed.extend_from_slice(&msg);
        if let Err(e) = stream.write_all(&framed) {
            self.reset();
            return Err(shipio("tcp send", e));
        }
        Ok(())
    }

    /// Extract one complete framed message from `rx`, or detect desync.
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.rx.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.rx[..4].try_into().expect("4 bytes")) as usize;
        if len < SHIP_MAGIC.len() + 1 || len > self.opts.max_message {
            self.reset();
            return Err(shiperr(format!(
                "tcp stream desynced (framed length {len}); resetting connection"
            )));
        }
        if self.rx.len() < 4 + len {
            return Ok(None);
        }
        let msg: Vec<u8> = self.rx[4..4 + len].to_vec();
        self.rx.drain(..4 + len);
        if &msg[..SHIP_MAGIC.len()] != SHIP_MAGIC {
            // Whatever this is, it is not the next ship message: the
            // byte stream lost framing (e.g. a truncated write upstream).
            // Resetting resynchronizes — retransmission heals the loss.
            self.reset();
            return Err(shiperr(
                "tcp stream desynced (bad message magic); resetting connection",
            ));
        }
        Ok(Some(msg))
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        if let Some(msg) = self.take_frame()? {
            return Ok(Some(msg));
        }
        if self.ensure_connected().is_err() {
            // Between reconnect attempts an empty link is just empty.
            return Ok(None);
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let stream = self.stream.as_mut().expect("connected");
            match stream.read(&mut chunk) {
                Ok(0) => {
                    // Orderly close (or reset made visible as EOF).
                    self.reset();
                    return Ok(None);
                }
                Ok(n) => {
                    self.rx.extend_from_slice(&chunk[..n]);
                    if let Some(msg) = self.take_frame()? {
                        return Ok(Some(msg));
                    }
                    // Keep reading: a partial frame is buffered and the
                    // socket may already hold the rest.
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => {
                    self.reset();
                    return Err(shipio("tcp recv", e));
                }
            }
        }
    }
}

/// The client (dialing) side of a TCP ship link: connects to a
/// `planar-serve` listener, announces itself with the [`SHIP_MAGIC`]
/// banner, and exchanges `u32`-length-prefixed ship messages over one
/// socket. Clones share the connection, so one boxed clone serves as a
/// [`Replica`]'s `down` and another as its `up`.
///
/// The link self-heals: connection failures reconnect under capped
/// exponential deterministic-jitter backoff, stream desync (bad framing
/// after a fault) resets the connection, and every successful connect
/// bumps [`Transport::reconnect_generation`] so the replica re-announces
/// (`Hello`) and the primary resumes or re-seeds it.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    client: Arc<Mutex<TcpClient>>,
}

impl TcpTransport {
    /// A lazily-connecting link to `addr` (nothing is dialed until the
    /// first send/recv).
    pub fn new(addr: SocketAddr, opts: TcpLinkOptions) -> Self {
        Self {
            client: Arc::new(Mutex::new(TcpClient {
                addr,
                opts,
                stream: None,
                rx: Vec::new(),
                backoff: Backoff::new(
                    opts.backoff_base_ms,
                    opts.backoff_cap_ms,
                    0xD1B5_4A32_D192_ED03 ^ u64::from(addr.port()),
                ),
                epoch: Instant::now(),
                connects: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TcpClient> {
        self.client.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Successful connections so far (0 = never connected).
    pub fn connects(&self) -> u64 {
        self.lock().connects
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: Vec<u8>) -> Result<()> {
        self.lock().send(msg)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        self.lock().recv()
    }

    // `connected` stays `true`: the link heals by reconnecting, so the
    // peer should keep the logical link alive while it does.

    fn reconnect_generation(&self) -> u64 {
        self.lock().connects
    }
}

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// One protocol message (see the [module docs](self#wire-format)).
#[derive(Debug, Clone, PartialEq, Eq)]
enum ShipMessage {
    /// Bootstrap / re-seed image: a durable checkpoint snapshot.
    Snapshot {
        term: u64,
        generation: u64,
        watermark: Lsn,
        bytes: Vec<u8>,
    },
    /// A batch of raw WAL frames in LSN order.
    Frames {
        term: u64,
        frames: Vec<(u32, Vec<u8>)>,
    },
    /// Primary liveness + watermarks (drives the replica's lease and
    /// read-your-writes bound).
    Heartbeat {
        term: u64,
        appended: Lsn,
        acked: Lsn,
    },
    /// Replica progress: `acked` is logged-and-fsynced, `applied` is
    /// queryable.
    Ack {
        term: u64,
        replica: u32,
        acked: Lsn,
        applied: Lsn,
    },
    /// Fencing: the sender holds `term` and refuses lower-term traffic.
    Reject { term: u64 },
    /// Replica attach/re-attach announcement: "I have logged and
    /// fsynced up to `acked`; resume me there or re-seed me." Sent on
    /// first contact and after every transport reconnect.
    Hello { term: u64, replica: u32, acked: Lsn },
}

impl ShipMessage {
    fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(SHIP_MAGIC);
        match self {
            ShipMessage::Snapshot {
                term,
                generation,
                watermark,
                bytes,
            } => {
                buf.put_u8(MSG_SNAPSHOT);
                buf.put_u64_le(*term);
                buf.put_u64_le(*generation);
                buf.put_u64_le(*watermark);
                buf.put_u64_le(bytes.len() as u64);
                buf.put_slice(bytes);
            }
            ShipMessage::Frames { term, frames } => {
                buf.put_u8(MSG_FRAMES);
                buf.put_u64_le(*term);
                buf.put_u32_le(frames.len() as u32);
                for (shard, frame) in frames {
                    buf.put_u32_le(*shard);
                    buf.put_u32_le(frame.len() as u32);
                    buf.put_slice(frame);
                }
            }
            ShipMessage::Heartbeat {
                term,
                appended,
                acked,
            } => {
                buf.put_u8(MSG_HEARTBEAT);
                buf.put_u64_le(*term);
                buf.put_u64_le(*appended);
                buf.put_u64_le(*acked);
            }
            ShipMessage::Ack {
                term,
                replica,
                acked,
                applied,
            } => {
                buf.put_u8(MSG_ACK);
                buf.put_u64_le(*term);
                buf.put_u32_le(*replica);
                buf.put_u64_le(*acked);
                buf.put_u64_le(*applied);
            }
            ShipMessage::Reject { term } => {
                buf.put_u8(MSG_REJECT);
                buf.put_u64_le(*term);
            }
            ShipMessage::Hello {
                term,
                replica,
                acked,
            } => {
                buf.put_u8(MSG_HELLO);
                buf.put_u64_le(*term);
                buf.put_u32_le(*replica);
                buf.put_u64_le(*acked);
            }
        }
        crate::frame::seal_buf(&mut buf);
        buf.to_vec()
    }

    /// Parse and CRC-check a received message. Any deviation — short
    /// buffer, bad magic, bad CRC, inconsistent lengths — is a typed
    /// error; the caller counts it and relies on retransmission.
    fn decode(bytes: &[u8]) -> Result<ShipMessage> {
        if bytes.len() < SHIP_MAGIC.len() + 1 + 8 {
            return Err(shiperr("message truncated"));
        }
        if &bytes[..8] != SHIP_MAGIC {
            return Err(shiperr("bad message magic"));
        }
        let body_end = bytes.len() - crate::frame::CRC_LEN;
        if crate::frame::open_sealed(bytes).is_none() {
            return Err(shiperr("message failed its CRC"));
        }
        let kind = bytes[8];
        let mut buf = Bytes::copy_from_slice(&bytes[9..body_end]);
        let need = |buf: &Bytes, n: usize, what: &str| -> Result<()> {
            if buf.remaining() < n {
                return Err(shiperr(format!("{what} truncated")));
            }
            Ok(())
        };
        match kind {
            MSG_SNAPSHOT => {
                need(&buf, 32, "snapshot header")?;
                let term = buf.get_u64_le();
                let generation = buf.get_u64_le();
                let watermark = buf.get_u64_le();
                let len = buf.get_u64_le() as usize;
                if buf.remaining() != len {
                    return Err(shiperr("snapshot length mismatch"));
                }
                Ok(ShipMessage::Snapshot {
                    term,
                    generation,
                    watermark,
                    bytes: buf.to_vec(),
                })
            }
            MSG_FRAMES => {
                need(&buf, 12, "frames header")?;
                let term = buf.get_u64_le();
                let count = buf.get_u32_le() as usize;
                let mut frames = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    need(&buf, 8, "frame header")?;
                    let shard = buf.get_u32_le();
                    let len = buf.get_u32_le() as usize;
                    need(&buf, len, "frame body")?;
                    let mut frame = vec![0u8; len];
                    buf.copy_to_slice(&mut frame);
                    frames.push((shard, frame));
                }
                if buf.has_remaining() {
                    return Err(shiperr("trailing bytes after frames"));
                }
                Ok(ShipMessage::Frames { term, frames })
            }
            MSG_HEARTBEAT => {
                need(&buf, 24, "heartbeat")?;
                Ok(ShipMessage::Heartbeat {
                    term: buf.get_u64_le(),
                    appended: buf.get_u64_le(),
                    acked: buf.get_u64_le(),
                })
            }
            MSG_ACK => {
                need(&buf, 28, "ack")?;
                Ok(ShipMessage::Ack {
                    term: buf.get_u64_le(),
                    replica: buf.get_u32_le(),
                    acked: buf.get_u64_le(),
                    applied: buf.get_u64_le(),
                })
            }
            MSG_REJECT => {
                need(&buf, 8, "reject")?;
                Ok(ShipMessage::Reject {
                    term: buf.get_u64_le(),
                })
            }
            MSG_HELLO => {
                need(&buf, 20, "hello")?;
                Ok(ShipMessage::Hello {
                    term: buf.get_u64_le(),
                    replica: buf.get_u32_le(),
                    acked: buf.get_u64_le(),
                })
            }
            other => Err(shiperr(format!("unknown message type {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded tailing
// ---------------------------------------------------------------------------

/// One shipped frame: the raw on-disk encoding plus its routing.
#[derive(Debug, Clone)]
struct ShippedFrame {
    shard: u32,
    lsn: Lsn,
    bytes: Vec<u8>,
}

/// Merges the per-shard [`WalTailer`] streams of one durable directory
/// into a single contiguous-LSN stream. Broadcast records (`Compact`,
/// `Checkpoint` — same LSN on every shard's log) are emitted **once**
/// with [`BROADCAST_SHARD`]; stale copies surfacing later on other
/// shards are dropped.
#[derive(Debug)]
struct ShardedTailer {
    tailers: Vec<WalTailer>,
    queues: Vec<VecDeque<TailedFrame>>,
    next_lsn: Lsn,
}

impl ShardedTailer {
    fn new(dir: &Path, shards: usize, next_lsn: Lsn) -> Self {
        Self {
            tailers: (0..shards)
                .map(|s| WalTailer::new(shard_wal_dir(dir, s), next_lsn))
                .collect(),
            queues: vec![VecDeque::new(); shards],
            next_lsn,
        }
    }

    fn reset(&mut self, next_lsn: Lsn) {
        for t in &mut self.tailers {
            t.reset(next_lsn);
        }
        for q in &mut self.queues {
            q.clear();
        }
        self.next_lsn = next_lsn;
    }

    /// All complete frames appended since the last poll, in global LSN
    /// order, stopping at the first LSN not yet on any disk (an append
    /// or flush in flight).
    fn poll(&mut self) -> Result<Vec<ShippedFrame>> {
        for (t, q) in self.tailers.iter_mut().zip(&mut self.queues) {
            for f in t.poll()? {
                q.push_back(f);
            }
        }
        let mut out = Vec::new();
        loop {
            // Drop stale broadcast copies (LSN already emitted via
            // another shard's log).
            for q in &mut self.queues {
                while q.front().is_some_and(|f| f.lsn < self.next_lsn) {
                    q.pop_front();
                }
            }
            let Some(shard) = self
                .queues
                .iter()
                .position(|q| q.front().is_some_and(|f| f.lsn == self.next_lsn))
            else {
                return Ok(out);
            };
            let frame = self.queues[shard].pop_front().expect("front checked");
            let Some((_, _, rec)) = parse_frame(&frame.bytes) else {
                return Err(shiperr(format!(
                    "tailed frame at lsn {} no longer parses",
                    frame.lsn
                )));
            };
            let broadcast = matches!(
                rec,
                WalRecord::Compact { .. } | WalRecord::Checkpoint { .. }
            );
            out.push(ShippedFrame {
                shard: if broadcast {
                    BROADCAST_SHARD
                } else {
                    shard as u32
                },
                lsn: frame.lsn,
                bytes: frame.bytes,
            });
            self.next_lsn = frame.lsn + 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration, stats, health
// ---------------------------------------------------------------------------

/// Replication timing knobs. All times are caller-supplied milliseconds
/// (both [`Primary::pump`] and [`Replica::poll`] take an explicit
/// `now_ms`, so tests and the failover sweep drive time
/// deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Heartbeat period on every link.
    pub heartbeat_ms: u64,
    /// A replica that misses heartbeats for this long reports the
    /// primary dead ([`Replica::primary_alive`]).
    pub lease_ms: u64,
    /// A link with shipped-but-unacked frames and no ack progress for
    /// this long is rewound to its acked LSN and re-shipped.
    pub retransmit_ms: u64,
    /// First retry delay after a transport error.
    pub backoff_base_ms: u64,
    /// Retry delay ceiling.
    pub backoff_cap_ms: u64,
    /// Replica reorder-buffer bound (staged frames): overflowing it is a
    /// loud divergence error, never silent loss.
    pub reorder_cap: usize,
    /// How long a quorum-gated acknowledgement waits for replica
    /// confirmations before failing typed with
    /// [`PlanarError::QuorumTimeout`] (see [`AckPolicy::Quorum`]).
    pub quorum_timeout_ms: u64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        Self {
            heartbeat_ms: 100,
            lease_ms: 500,
            retransmit_ms: 250,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            reorder_cap: 4_096,
            quorum_timeout_ms: 2_000,
        }
    }
}

/// When a write on the [`Primary`] is acknowledged to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckPolicy {
    /// Local durability only (the `FsyncPolicy` contract as before);
    /// replication proceeds in the background.
    #[default]
    Async,
    /// The group-commit acknowledgement of a write is additionally held
    /// until at least `n` replicas confirm (log + fsync) the covering
    /// LSN, or fails typed with [`PlanarError::QuorumTimeout`] after
    /// [`FailoverConfig::quorum_timeout_ms`]. Gating applies to the
    /// `FsyncPolicy::Always` acknowledgement path and to
    /// [`Primary::write_quorum`].
    Quorum(usize),
}

/// Counters for one replication endpoint (primary or replica).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Frames shipped to (primary) / applied by (replica) the peer.
    pub shipped_frames: u64,
    /// Bytes of frame payload shipped.
    pub shipped_bytes: u64,
    /// Frames applied into the replica set.
    pub applied_frames: u64,
    /// Frames dropped as already-applied duplicates.
    pub duplicate_frames: u64,
    /// Frames staged out of LSN order before applying.
    pub reordered_frames: u64,
    /// Messages discarded for CRC/format violations.
    pub corrupt_messages: u64,
    /// Individual frames discarded for CRC violations.
    pub corrupt_frames: u64,
    /// Transport send failures (retried under backoff).
    pub retries: u64,
    /// Lower-term messages refused with `Reject`.
    pub rejects: u64,
    /// Snapshot seeds shipped (primary) / installed (replica).
    pub snapshots: u64,
    /// Links rewound to their acked LSN after an ack stall.
    pub rewinds: u64,
    /// Quorum-gated acknowledgements that timed out typed.
    pub quorum_timeouts: u64,
    /// Links reaped because their transport disconnected permanently.
    pub link_drops: u64,
}

/// Point-in-time replication health of a [`Primary`]'s group (see
/// [`Primary::health`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationHealth {
    /// The primary's current term.
    pub term: u64,
    /// The primary's appended LSN.
    pub appended_lsn: Lsn,
    /// Attached replicas.
    pub replicas: usize,
    /// Lowest replica acked LSN — the durable replication frontier.
    pub min_acked_lsn: Lsn,
    /// Largest per-replica lag (`appended − acked`).
    pub max_lag: u64,
    /// Highest LSN the quorum has confirmed (0 when [`AckPolicy::Async`]
    /// or no quorum yet).
    pub quorum_frontier: Lsn,
}

/// One attached replica as the primary sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Link id assigned by [`Primary::add_replica`].
    pub id: u32,
    /// Highest LSN the replica has logged and fsynced.
    pub acked_lsn: Lsn,
    /// Highest LSN the replica serves reads at.
    pub applied_lsn: Lsn,
    /// `now` of the last ack, in the caller's pump clock.
    pub last_progress_ms: u64,
}

// ---------------------------------------------------------------------------
// Primary
// ---------------------------------------------------------------------------

struct Link {
    id: u32,
    down: Box<dyn Transport>,
    up: Box<dyn Transport>,
    tailer: ShardedTailer,
    outbox: VecDeque<Vec<u8>>,
    backoff: Backoff,
    acked: Lsn,
    applied: Lsn,
    acked_any: bool,
    shipped: Lsn,
    last_progress_ms: u64,
    needs_seed: bool,
    /// Ship nothing but heartbeats until the replica's `Hello` arrives
    /// and tells us whether to resume its frame stream or re-seed it.
    awaiting_hello: bool,
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("id", &self.id)
            .field("acked", &self.acked)
            .field("applied", &self.applied)
            .field("shipped", &self.shipped)
            .field("needs_seed", &self.needs_seed)
            .field("awaiting_hello", &self.awaiting_hello)
            .finish_non_exhaustive()
    }
}

/// The write side of a replication group: a
/// [`ConcurrentDurableShardedIndexSet`] plus per-replica shipping state.
/// Mutate and query through [`Primary::store`]; call [`Primary::pump`]
/// periodically (or after write bursts) to ship, heartbeat, and drain
/// acks.
#[derive(Debug)]
pub struct Primary<S: KeyStore + Clone = VecStore> {
    store: Arc<ConcurrentDurableShardedIndexSet<S>>,
    cfg: FailoverConfig,
    links: Vec<Link>,
    next_link_id: u32,
    last_heartbeat_ms: u64,
    fenced: Option<u64>,
    stats: ReplicationStats,
    ack_policy: AckPolicy,
    gate: Option<QuorumGate>,
}

impl<S: KeyStore + Clone> Primary<S> {
    /// Wrap `store` for replication. No replicas are attached yet.
    pub fn new(store: ConcurrentDurableShardedIndexSet<S>, cfg: FailoverConfig) -> Self {
        Self::from_shared(Arc::new(store), cfg)
    }

    /// Wrap an already-shared store — the same `Arc` can simultaneously
    /// serve queries (e.g. through `planar-serve`, whose `Engine` is
    /// implemented for `Arc<ConcurrentDurableShardedIndexSet<_>>` via
    /// deref) while this primary replicates it.
    pub fn from_shared(
        store: Arc<ConcurrentDurableShardedIndexSet<S>>,
        cfg: FailoverConfig,
    ) -> Self {
        Self {
            store,
            cfg,
            links: Vec::new(),
            next_link_id: 0,
            last_heartbeat_ms: 0,
            fenced: None,
            stats: ReplicationStats::default(),
            ack_policy: AckPolicy::Async,
            gate: None,
        }
    }

    /// The underlying store: mutations, reads, checkpoints, and stats go
    /// through it directly. A checkpoint that truncates segments a link
    /// still needs costs that replica a re-seed: its cursor's next poll
    /// reports the gap and [`Primary::pump`] ships a fresh snapshot.
    pub fn store(&self) -> &ConcurrentDurableShardedIndexSet<S> {
        &self.store
    }

    /// A shared handle to the store, for serving reads/writes from other
    /// threads while this primary pumps replication.
    pub fn shared_store(&self) -> Arc<ConcurrentDurableShardedIndexSet<S>> {
        Arc::clone(&self.store)
    }

    /// Consume the wrapper and return the (possibly still shared) store.
    /// Any installed quorum gate is removed first — without a pump
    /// publishing confirmations it could only time out.
    pub fn into_store(self) -> Arc<ConcurrentDurableShardedIndexSet<S>> {
        self.store.clear_quorum_gate();
        self.store
    }

    /// The current acknowledgement policy.
    pub fn ack_policy(&self) -> AckPolicy {
        self.ack_policy
    }

    /// Switch the acknowledgement policy. [`AckPolicy::Quorum`] installs
    /// a [`QuorumGate`] on every shard commit queue: from then on,
    /// `FsyncPolicy::Always` acknowledgements through the store are
    /// released only after the quorum confirms the covering LSN (the
    /// caller must keep [`Primary::pump`] running on some thread, or
    /// those acks fail typed with [`PlanarError::QuorumTimeout`] —
    /// that is the contract, not a deadlock). [`AckPolicy::Async`]
    /// removes the gate.
    pub fn set_ack_policy(&mut self, policy: AckPolicy) {
        self.ack_policy = policy;
        match policy {
            AckPolicy::Async => {
                self.gate = None;
                self.store.clear_quorum_gate();
            }
            AckPolicy::Quorum(n) => {
                let gate = QuorumGate::new(n, self.cfg.quorum_timeout_ms);
                self.store.install_quorum_gate(gate.clone());
                self.gate = Some(gate);
            }
        }
    }

    /// True once the quorum has confirmed `lsn` (always false under
    /// [`AckPolicy::Async`]).
    pub fn quorum_confirmed(&self, lsn: Lsn) -> bool {
        self.gate.as_ref().is_some_and(|g| g.confirmed(lsn))
    }

    /// Highest quorum-confirmed LSN (0 under [`AckPolicy::Async`]).
    pub fn quorum_frontier(&self) -> Lsn {
        self.gate.as_ref().map_or(0, |g| g.frontier())
    }

    /// Apply one mutation and block until the quorum confirms it,
    /// pumping replication inline — the single-threaded way to issue a
    /// synchronously-replicated write (servers with a dedicated pump
    /// thread can instead rely on the gated store acknowledgements).
    ///
    /// `now_ms` anchors the pump clock; the wait advances it by real
    /// elapsed time, so transports with real latency (TCP) work and the
    /// deterministic tests stay off wall clocks everywhere else.
    ///
    /// # Errors
    ///
    /// [`PlanarError::QuorumTimeout`] after
    /// [`FailoverConfig::quorum_timeout_ms`] without confirmation (the
    /// write **is** applied and locally durable), any store error from
    /// the apply, [`PlanarError::Fenced`] if a pump observes deposition,
    /// or [`PlanarError::Persist`] when the policy is not
    /// [`AckPolicy::Quorum`].
    pub fn write_quorum(&mut self, m: &Mutation, now_ms: u64) -> Result<MutationAck> {
        let AckPolicy::Quorum(required) = self.ack_policy else {
            return Err(shiperr("write_quorum requires AckPolicy::Quorum"));
        };
        let ack = match m {
            Mutation::Insert { row } => MutationAck::Inserted(self.store.insert_point(row)?),
            Mutation::Update { id, row } => {
                self.store.update_point(*id, row)?;
                MutationAck::Updated
            }
            Mutation::Delete { id } => {
                self.store.delete_point(*id)?;
                MutationAck::Deleted
            }
        };
        // Quorum-acked writes are locally durable before the wait: the
        // tailer only ships fsynced records, and the timeout contract
        // promises "applied and durable on this node".
        self.store.sync()?;
        let lsn = self.store.wal_health().appended_lsn;
        let started = Instant::now();
        loop {
            let elapsed = started.elapsed().as_millis() as u64;
            self.pump(now_ms + elapsed)?;
            if self.quorum_confirmed(lsn) {
                return Ok(ack);
            }
            if elapsed >= self.cfg.quorum_timeout_ms {
                self.stats.quorum_timeouts += 1;
                return Err(PlanarError::QuorumTimeout {
                    lsn,
                    required,
                    frontier: self.quorum_frontier(),
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Attach a replica over a transport pair (`down` carries data to
    /// the replica, `up` returns acks). The replica is seeded with the
    /// latest durable snapshot on the next [`Primary::pump`]. Returns
    /// the link id.
    pub fn add_replica(&mut self, down: Box<dyn Transport>, up: Box<dyn Transport>) -> u32 {
        self.attach(down, up, false)
    }

    /// Attach a replica whose durable state is unknown — a network peer
    /// that just (re)connected. Nothing but heartbeats is shipped until
    /// its `Hello { acked }` arrives; then the primary either resumes
    /// its frame stream at `acked + 1` (still retained) or re-seeds it
    /// (checkpoint truncation outran it). Returns the link id.
    pub fn add_replica_pending(&mut self, down: Box<dyn Transport>, up: Box<dyn Transport>) -> u32 {
        self.attach(down, up, true)
    }

    fn attach(&mut self, down: Box<dyn Transport>, up: Box<dyn Transport>, pending: bool) -> u32 {
        let id = self.next_link_id;
        self.next_link_id += 1;
        let shards = self.store.num_queues();
        self.links.push(Link {
            id,
            down,
            up,
            tailer: ShardedTailer::new(self.store.dir(), shards, 1),
            outbox: VecDeque::new(),
            backoff: Backoff::new(
                self.cfg.backoff_base_ms,
                self.cfg.backoff_cap_ms,
                0x9E37_79B9_7F4A_7C15 ^ u64::from(id),
            ),
            acked: 0,
            applied: 0,
            acked_any: false,
            shipped: 0,
            last_progress_ms: 0,
            needs_seed: !pending,
            awaiting_hello: pending,
        });
        id
    }

    /// Current term (highest across the shard WAL writers).
    pub fn term(&self) -> u64 {
        self.store.term()
    }

    /// True once every attached replica has acked `lsn` — the
    /// semi-synchronous replication bound the failover sweep uses.
    pub fn replication_acked(&self, lsn: Lsn) -> bool {
        !self.links.is_empty() && self.links.iter().all(|l| l.acked >= lsn)
    }

    /// Per-replica progress.
    pub fn replica_health(&self) -> Vec<ReplicaHealth> {
        self.links
            .iter()
            .map(|l| ReplicaHealth {
                id: l.id,
                acked_lsn: l.acked,
                applied_lsn: l.applied,
                last_progress_ms: l.last_progress_ms,
            })
            .collect()
    }

    /// Group-level health: term, replica count, ack frontier and lag.
    pub fn health(&self) -> ReplicationHealth {
        let appended = self.store.wal_health().appended_lsn;
        ReplicationHealth {
            term: self.term(),
            appended_lsn: appended,
            replicas: self.links.len(),
            min_acked_lsn: self.links.iter().map(|l| l.acked).min().unwrap_or(appended),
            max_lag: self
                .links
                .iter()
                .map(|l| appended.saturating_sub(l.acked))
                .max()
                .unwrap_or(0),
            quorum_frontier: self.quorum_frontier(),
        }
    }

    /// Endpoint counters. `quorum_timeouts` folds in waits that expired
    /// inside gated store acknowledgements on other threads.
    pub fn stats(&self) -> ReplicationStats {
        let mut stats = self.stats;
        if let Some(gate) = &self.gate {
            stats.quorum_timeouts += gate.timeouts();
        }
        stats
    }

    /// One replication turn: drain acks, detect fencing, ship new
    /// frames, heartbeat, and flush per-link outboxes under backoff.
    /// Call it periodically; `now_ms` is any monotonic millisecond
    /// clock (tests pass a counter).
    ///
    /// # Errors
    ///
    /// [`PlanarError::Fenced`] once a peer with a higher term has
    /// rejected this primary — every subsequent pump fails the same way
    /// and the caller must stop writing. Transport errors are absorbed
    /// into backoff, not returned.
    pub fn pump(&mut self, now_ms: u64) -> Result<()> {
        let before = self.links.len();
        self.links
            .retain(|l| l.down.connected() && l.up.connected());
        self.stats.link_drops += (before - self.links.len()) as u64;
        self.drain_acks(now_ms);
        if let Some(observed) = self.fenced {
            return Err(PlanarError::Fenced {
                term: self.term(),
                observed,
            });
        }
        let term = self.term();
        let heartbeat_due = now_ms.saturating_sub(self.last_heartbeat_ms) >= self.cfg.heartbeat_ms
            || self.last_heartbeat_ms == 0;
        if heartbeat_due {
            self.last_heartbeat_ms = now_ms;
        }
        let health = self.store.wal_health();
        for link in &mut self.links {
            if link.awaiting_hello {
                // Heartbeats only: the replica's Hello decides between
                // resume and re-seed.
            } else if link.needs_seed {
                if link.backoff.ready(now_ms) {
                    match seed_link(&self.store, link, term) {
                        Ok(()) => {
                            link.needs_seed = false;
                            link.last_progress_ms = now_ms;
                            self.stats.snapshots += 1;
                        }
                        Err(_) => {
                            self.stats.retries += 1;
                            link.backoff.failure(now_ms);
                        }
                    }
                }
            } else {
                // Ack stall: rewind to the acked frontier (duplicates
                // are cheap — the replica drops them by LSN). A link
                // that never acked is still waiting on its seed; ship
                // a fresh one instead of frames it cannot apply.
                let stalled = link.shipped > link.acked
                    && now_ms.saturating_sub(link.last_progress_ms) >= self.cfg.retransmit_ms;
                if stalled {
                    link.last_progress_ms = now_ms;
                    link.outbox.clear();
                    if link.acked_any {
                        link.tailer.reset(link.acked + 1);
                        link.shipped = link.acked;
                        self.stats.rewinds += 1;
                    } else {
                        link.needs_seed = true;
                        continue;
                    }
                }
                match link.tailer.poll() {
                    Ok(frames) if !frames.is_empty() => {
                        let last = frames.last().expect("non-empty").lsn;
                        self.stats.shipped_frames += frames.len() as u64;
                        self.stats.shipped_bytes +=
                            frames.iter().map(|f| f.bytes.len() as u64).sum::<u64>();
                        let msg = ShipMessage::Frames {
                            term,
                            frames: frames.into_iter().map(|f| (f.shard, f.bytes)).collect(),
                        };
                        link.outbox.push_back(msg.encode());
                        link.shipped = last;
                    }
                    Ok(_) => {}
                    Err(_) => {
                        // The cursor fell off the retained log
                        // (checkpoint truncation) or the directory
                        // changed shape: re-seed.
                        link.needs_seed = true;
                    }
                }
            }
            if heartbeat_due && (link.awaiting_hello || !link.needs_seed) {
                link.outbox.push_back(
                    ShipMessage::Heartbeat {
                        term,
                        appended: health.appended_lsn,
                        acked: health.acked_lsn,
                    }
                    .encode(),
                );
            }
            while let Some(front) = link.outbox.front() {
                if !link.backoff.ready(now_ms) {
                    break;
                }
                match link.down.send(front.clone()) {
                    Ok(()) => {
                        link.outbox.pop_front();
                        link.backoff.success();
                    }
                    Err(_) => {
                        self.stats.retries += 1;
                        link.backoff.failure(now_ms);
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    fn drain_acks(&mut self, now_ms: u64) {
        let my_term = self.term();
        let dir = self.store.dir().to_path_buf();
        for link in &mut self.links {
            loop {
                let raw = match link.up.recv() {
                    Ok(Some(raw)) => raw,
                    Ok(None) => break,
                    Err(_) => {
                        self.stats.retries += 1;
                        break;
                    }
                };
                match ShipMessage::decode(&raw) {
                    Ok(ShipMessage::Ack {
                        term,
                        acked,
                        applied,
                        ..
                    }) => {
                        if term > my_term {
                            self.fenced = Some(term);
                            continue;
                        }
                        if acked > link.acked || applied > link.applied {
                            link.last_progress_ms = now_ms;
                        }
                        link.acked = link.acked.max(acked);
                        link.applied = link.applied.max(applied);
                        link.acked_any = true;
                    }
                    Ok(ShipMessage::Reject { term }) => {
                        if term > my_term {
                            self.fenced = Some(term);
                        }
                    }
                    Ok(ShipMessage::Hello { term, acked, .. }) => {
                        if term > my_term {
                            self.fenced = Some(term);
                            continue;
                        }
                        link.awaiting_hello = false;
                        link.last_progress_ms = now_ms;
                        // Resume the frame stream at acked + 1 when the
                        // retained log still covers it; otherwise the
                        // checkpoint truncation outran this replica and
                        // only a fresh seed can catch it up.
                        let resumable =
                            acked > 0 && read_manifest(&dir).is_ok_and(|m| acked >= m.watermark);
                        if resumable {
                            link.outbox.clear();
                            link.tailer.reset(acked + 1);
                            link.shipped = acked;
                            link.acked = link.acked.max(acked);
                            link.acked_any = true;
                            link.needs_seed = false;
                        } else {
                            link.needs_seed = true;
                        }
                    }
                    Ok(_) => {}
                    Err(_) => self.stats.corrupt_messages += 1,
                }
            }
        }
        if let Some(gate) = &self.gate {
            // The n-th most caught-up replica's acked LSN is the
            // quorum-confirmed frontier.
            let required = gate.required();
            if self.links.len() >= required {
                let mut acked: Vec<Lsn> = self.links.iter().map(|l| l.acked).collect();
                acked.sort_unstable_by(|a, b| b.cmp(a));
                gate.publish(acked[required - 1]);
            }
        }
    }
}

/// Ship the latest durable snapshot down a link and rebase its cursor
/// past the snapshot watermark.
fn seed_link<S: KeyStore + Clone>(
    store: &ConcurrentDurableShardedIndexSet<S>,
    link: &mut Link,
    term: u64,
) -> Result<()> {
    let manifest = read_manifest(store.dir())?;
    let bytes = fs::read(snapshot_path(store.dir(), manifest.generation))
        .map_err(|e| shipio("read checkpoint snapshot", e))?;
    let msg = ShipMessage::Snapshot {
        term: term.max(manifest.term),
        generation: manifest.generation,
        watermark: manifest.watermark,
        bytes,
    };
    link.outbox.clear();
    link.outbox.push_back(msg.encode());
    link.tailer.reset(manifest.watermark + 1);
    link.shipped = manifest.watermark;
    Ok(())
}

// ---------------------------------------------------------------------------
// Follower reads
// ---------------------------------------------------------------------------

/// Staleness contract for a follower read (see
/// [`Replica::follower_read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadConsistency {
    /// Serve whatever is applied; the result carries a `stale` flag when
    /// the replica knows the primary is ahead.
    Any,
    /// Serve only if the replica has applied at least this LSN;
    /// otherwise a typed [`PlanarError::ReplicaLag`].
    AtLeast(Lsn),
    /// Serve only if the replica has caught up to the primary's
    /// appended watermark as of the last heartbeat — a client that just
    /// wrote to the primary sees its write or a typed error, never a
    /// silently stale answer.
    ReadYourWrites,
}

/// A consistency-checked follower read: a pinned epoch snapshot plus the
/// provenance needed to interpret it.
#[derive(Debug)]
pub struct FollowerRead<S: KeyStore + Clone = VecStore> {
    /// The pinned epoch — query it directly; it is frozen even while the
    /// replica keeps applying.
    pub snapshot: Snapshot<ShardedIndexSet<S>>,
    /// The LSN this snapshot reflects.
    pub applied_lsn: Lsn,
    /// True when the primary was known (via heartbeat) to be ahead of
    /// `applied_lsn` at read time.
    pub stale: bool,
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// The read side of a replication link: installs the primary's snapshot,
/// then logs and applies every shipped frame through its own
/// [`ConcurrentDurableShardedIndexSet`] — the same engine, logs and
/// replay function a primary and crash recovery use — and serves
/// [`FollowerRead`]s with explicit staleness contracts. Can be
/// [promoted](Replica::promote) to a [`Primary`] after the old primary
/// dies.
#[derive(Debug)]
pub struct Replica<S: KeyStore + Clone = VecStore> {
    dir: PathBuf,
    id: u32,
    down: Box<dyn Transport>,
    up: Box<dyn Transport>,
    opts: WalOptions,
    cfg: FailoverConfig,
    store: Option<ConcurrentDurableShardedIndexSet<S>>,
    reorder: BTreeMap<Lsn, (u32, Vec<u8>)>,
    term: u64,
    applied: Lsn,
    hb_appended: Lsn,
    hb_at_ms: Option<u64>,
    diverged: Option<String>,
    stats: ReplicationStats,
    /// The transport reconnect generation our last `Hello` announced;
    /// `None` before the first. A mismatch (first poll, or the transport
    /// reconnected underneath us) re-announces.
    hello_gen: Option<u64>,
}

impl<S: KeyStore + Clone> Replica<S> {
    /// A replica that will keep its durable engine in `dir` (laid out on
    /// snapshot install) and speak to the primary over `down`/`up`.
    /// `id` must be unique within the replication group.
    pub fn new(
        dir: impl Into<PathBuf>,
        id: u32,
        down: Box<dyn Transport>,
        up: Box<dyn Transport>,
        opts: WalOptions,
        cfg: FailoverConfig,
    ) -> Self {
        Self {
            dir: dir.into(),
            id,
            down,
            up,
            opts,
            cfg,
            store: None,
            reorder: BTreeMap::new(),
            term: 0,
            applied: 0,
            hb_appended: 0,
            hb_at_ms: None,
            diverged: None,
            stats: ReplicationStats::default(),
            hello_gen: None,
        }
    }

    /// Replace this replica's transports — the reconnect path for
    /// network links whose connection object cannot heal in place (e.g.
    /// a fresh server-side ship connection after a failover promotion).
    /// All replication state (applied watermark, durable engine, term) is
    /// kept; the next [`Replica::poll`] re-announces with `Hello` so the
    /// new primary resumes or re-seeds as needed.
    pub fn rewire(&mut self, down: Box<dyn Transport>, up: Box<dyn Transport>) {
        self.down = down;
        self.up = up;
        self.hello_gen = None;
    }

    /// True once a snapshot has been installed and reads can be served.
    pub fn is_seeded(&self) -> bool {
        self.store.is_some()
    }

    /// Highest LSN applied to the queryable set.
    pub fn applied_lsn(&self) -> Lsn {
        self.applied
    }

    /// Highest LSN logged in this replica's own WAL **and** fsynced —
    /// what this replica can guarantee after promotion, and what
    /// [`elect`] ranks by. A batch is logged and fsynced before it is
    /// applied, so this equals [`Self::applied_lsn`].
    pub fn acked_lsn(&self) -> Lsn {
        self.applied
    }

    /// The replication term this replica has adopted.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Endpoint counters.
    pub fn stats(&self) -> ReplicationStats {
        self.stats
    }

    /// The divergence provenance, if this replica has failed loudly.
    pub fn divergence(&self) -> Option<&str> {
        self.diverged.as_deref()
    }

    /// True while the primary's lease holds: a heartbeat arrived within
    /// [`FailoverConfig::lease_ms`] of `now_ms`. A never-heartbeated
    /// replica reports `false`.
    pub fn primary_alive(&self, now_ms: u64) -> bool {
        self.hb_at_ms
            .is_some_and(|at| now_ms.saturating_sub(at) <= self.cfg.lease_ms)
    }

    /// One replication turn: drain the down pipe, stage/apply frames,
    /// and ack progress. Returns the number of frames applied.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] once the replica has **diverged** (a
    /// replay divergence check fired, a log append or fsync failed, or
    /// the reorder buffer overflowed):
    /// the error carries the provenance, every subsequent poll fails the
    /// same way, and the replica never serves from the diverged state —
    /// [`Replica::follower_read`] fails too.
    pub fn poll(&mut self, now_ms: u64) -> Result<usize> {
        self.check_diverged()?;
        // (Re-)announce on first poll and after every transport
        // reconnect: the primary-side connection state is gone, and the
        // Hello tells the new one where to resume (or that we need a
        // seed).
        let gen = self
            .down
            .reconnect_generation()
            .max(self.up.reconnect_generation());
        if self.hello_gen != Some(gen) {
            let hello = ShipMessage::Hello {
                term: self.term,
                replica: self.id,
                acked: if self.is_seeded() { self.applied } else { 0 },
            };
            if self.up.send(hello.encode()).is_ok() {
                self.hello_gen = Some(gen);
            } else {
                self.stats.retries += 1;
            }
        }
        let mut progressed = false;
        loop {
            let raw = match self.down.recv() {
                Ok(Some(raw)) => raw,
                Ok(None) => break,
                Err(_) => {
                    self.stats.retries += 1;
                    break;
                }
            };
            let msg = match ShipMessage::decode(&raw) {
                Ok(msg) => msg,
                Err(_) => {
                    // Torn or bit-flipped in flight: drop it and let the
                    // ack-stall retransmit heal the gap.
                    self.stats.corrupt_messages += 1;
                    continue;
                }
            };
            match msg {
                ShipMessage::Snapshot {
                    term,
                    generation,
                    watermark,
                    bytes,
                } => {
                    if self.reject_stale_term(term) {
                        continue;
                    }
                    self.adopt_term(term)?;
                    if self.is_seeded() && watermark <= self.applied {
                        // A re-seed we outran; nothing to do.
                        continue;
                    }
                    match self.install_snapshot(generation, watermark, &bytes) {
                        Ok(()) => {
                            progressed = true;
                            self.stats.snapshots += 1;
                        }
                        Err(_) => self.stats.corrupt_messages += 1,
                    }
                }
                ShipMessage::Frames { term, frames } => {
                    if self.reject_stale_term(term) {
                        continue;
                    }
                    self.adopt_term(term)?;
                    for (shard, bytes) in frames {
                        self.stage(shard, bytes)?;
                    }
                }
                ShipMessage::Heartbeat { term, appended, .. } => {
                    if self.reject_stale_term(term) {
                        continue;
                    }
                    self.adopt_term(term)?;
                    self.hb_appended = self.hb_appended.max(appended);
                    self.hb_at_ms = Some(now_ms);
                    progressed = true;
                }
                ShipMessage::Ack { .. }
                | ShipMessage::Reject { .. }
                | ShipMessage::Hello { .. } => {
                    // Upstream-only message on the down pipe: a wiring
                    // bug or corruption that still passed the CRC.
                    self.stats.corrupt_messages += 1;
                }
            }
        }
        let applied = self.apply_ready()?;
        if applied > 0 {
            progressed = true;
        }
        if progressed && self.is_seeded() {
            let ack = ShipMessage::Ack {
                term: self.term,
                replica: self.id,
                acked: self.applied,
                applied: self.applied,
            };
            if self.up.send(ack.encode()).is_err() {
                self.stats.retries += 1;
            }
        }
        Ok(applied)
    }

    /// Consistency-checked read against the latest applied epoch.
    ///
    /// # Errors
    ///
    /// [`PlanarError::ReplicaLag`] when the requested bound is not yet
    /// applied, [`PlanarError::Persist`] when unseeded or diverged.
    pub fn follower_read(&self, consistency: ReadConsistency) -> Result<FollowerRead<S>> {
        self.check_diverged()?;
        let store = self
            .store
            .as_ref()
            .ok_or_else(|| shiperr("replica has not installed a snapshot yet"))?;
        let required = match consistency {
            ReadConsistency::Any => None,
            ReadConsistency::AtLeast(lsn) => Some(lsn),
            ReadConsistency::ReadYourWrites => Some(self.hb_appended),
        };
        if let Some(required) = required {
            if self.applied < required {
                return Err(PlanarError::ReplicaLag {
                    required,
                    applied: self.applied,
                });
            }
        }
        Ok(FollowerRead {
            snapshot: store.snapshot(),
            applied_lsn: self.applied,
            stale: self.applied < self.hb_appended,
        })
    }

    /// Promote this replica to a primary under `term + 1`: raise the term
    /// on the replica's durable engine (shard writers and manifest), give
    /// it the primary's publish cadence, and wrap it as a [`Primary`] —
    /// no copy of the set, no new log. Frames still in the reorder buffer
    /// (beyond the contiguous applied prefix) are discarded; they were
    /// never acked.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] when unseeded, diverged, or the term
    /// cannot be made durable.
    pub fn promote(mut self, ccfg: ConcurrencyConfig) -> Result<Primary<S>> {
        self.check_diverged()?;
        let store = self
            .store
            .take()
            .ok_or_else(|| shiperr("cannot promote a replica that was never seeded"))?;
        store.raise_term(self.term + 1)?;
        Ok(Primary::new(store.with_config(ccfg), self.cfg))
    }

    fn check_diverged(&self) -> Result<()> {
        match &self.diverged {
            Some(provenance) => Err(shiperr(format!("replica diverged: {provenance}"))),
            None => Ok(()),
        }
    }

    /// Latch divergence with its provenance and return the typed error
    /// every later poll, read and promotion repeats.
    fn diverge(&mut self, provenance: String) -> PlanarError {
        let err = shiperr(format!("replica diverged: {provenance}"));
        self.diverged = Some(provenance);
        err
    }

    /// True (after sending `Reject`) when `term` is below ours — the
    /// sender is a deposed primary and must be fenced.
    fn reject_stale_term(&mut self, term: u64) -> bool {
        if term >= self.term {
            return false;
        }
        self.stats.rejects += 1;
        let reject = ShipMessage::Reject { term: self.term };
        if self.up.send(reject.encode()).is_err() {
            self.stats.retries += 1;
        }
        true
    }

    fn adopt_term(&mut self, term: u64) -> Result<()> {
        if term <= self.term {
            return Ok(());
        }
        self.term = term;
        if let Some(Err(e)) = self.store.as_ref().map(|store| store.raise_term(term)) {
            return Err(self.diverge(format!("term {term} not made durable: {e}")));
        }
        Ok(())
    }

    fn install_snapshot(&mut self, generation: u64, watermark: Lsn, bytes: &[u8]) -> Result<()> {
        // Validate before anything touches disk: a bit-flipped image
        // must never land, and the current engine keeps serving.
        let set = ShardedIndexSet::<S>::from_bytes(bytes)?;
        let m = Manifest {
            generation,
            watermark,
            term: self.term,
        };
        // The seed supersedes the old engine's logs (the snapshot covers
        // them), so that engine closes before the directory is laid out.
        self.store = None;
        self.store = Some(ConcurrentDurableShardedIndexSet::seed(
            &self.dir, set, bytes, m, self.opts,
        )?);
        self.applied = watermark;
        self.reorder = self.reorder.split_off(&(watermark + 1));
        Ok(())
    }

    /// Stage one shipped frame by LSN. Duplicates are dropped; gaps park
    /// in the bounded reorder buffer; overflow is loud divergence.
    fn stage(&mut self, shard: u32, bytes: Vec<u8>) -> Result<()> {
        let Some((consumed, lsn, _)) = parse_frame(&bytes) else {
            self.stats.corrupt_frames += 1;
            return Ok(());
        };
        if consumed != bytes.len() {
            self.stats.corrupt_frames += 1;
            return Ok(());
        }
        if lsn <= self.applied {
            self.stats.duplicate_frames += 1;
            return Ok(());
        }
        if lsn != self.applied + 1 + self.reorder.len() as Lsn {
            self.stats.reordered_frames += 1;
        }
        if self.reorder.insert(lsn, (shard, bytes)).is_some() {
            self.stats.duplicate_frames += 1;
        }
        if self.reorder.len() > self.cfg.reorder_cap {
            return Err(self.diverge(format!(
                "reorder buffer overflowed ({} staged frames, cap {}) waiting for lsn {}; \
                 shipped stream has an unhealed gap",
                self.reorder.len(),
                self.cfg.reorder_cap,
                self.applied + 1
            )));
        }
        Ok(())
    }

    /// Log and apply the contiguous staged run starting at `applied + 1`
    /// through the replica's durable engine (log-then-apply, one fsync
    /// per touched shard, one epoch per batch), with broadcast records
    /// expanded to every shard.
    fn apply_ready(&mut self) -> Result<usize> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        let shards = store.num_queues();
        let mut batch = 0;
        let mut entries: Vec<(usize, Lsn, WalRecord)> = Vec::new();
        while let Some(entry) = self.reorder.first_entry() {
            let lsn = *entry.key();
            if lsn != self.applied + batch + 1 {
                break;
            }
            let (shard, bytes) = entry.remove();
            // Staged frames were parse-checked; an unparseable one here
            // is memory corruption, and the engine refuses an unknown
            // shard as a break in its log.
            let Some((_, _, rec)) = parse_frame(&bytes) else {
                return Err(self.diverge(format!("staged frame at lsn {lsn} no longer parses")));
            };
            if shard == BROADCAST_SHARD {
                entries.extend((0..shards).map(|s| (s, lsn, rec.clone())));
            } else {
                entries.push((shard as usize, lsn, rec));
            }
            batch += 1;
        }
        if batch == 0 {
            return Ok(0);
        }
        if let Err(e) = store.apply_shipped(&entries) {
            // The same checks recovery runs (two logs claiming one id, a
            // gap placeholder filled twice), plus a failed append or
            // fsync: the replica stops, loudly, with the provenance.
            return Err(self.diverge(format!("apply failed at lsn {}: {e}", self.applied + 1)));
        }
        self.applied += batch;
        self.stats.applied_frames += entries.len() as u64;
        Ok(batch as usize)
    }
}

/// Pick the replica to promote: highest acked (logged + fsynced) LSN
/// wins, ties break to the lowest index. Diverged and never-seeded
/// replicas are not electable. Returns `None` when nothing is
/// electable.
pub fn elect<S: KeyStore + Clone>(replicas: &[Replica<S>]) -> Option<usize> {
    replicas
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_seeded() && r.divergence().is_none())
        .max_by_key(|(i, r)| (r.acked_lsn(), std::cmp::Reverse(*i)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::ConcurrencyConfig;
    use crate::domain::ParameterDomain;
    use crate::fault::{self, TempDir};
    use crate::multi::IndexConfig;
    use crate::query::{Cmp, InequalityQuery};
    use crate::shard::ShardConfig;
    use crate::table::FeatureTable;
    use crate::wal::FsyncPolicy;
    use crate::VecStore;

    fn build_sharded(n: usize) -> ShardedIndexSet<VecStore> {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![1.0 + (i % 11) as f64, 1.0 + (i % 6) as f64])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
        ShardedIndexSet::build(
            table,
            domain,
            IndexConfig::with_budget(3),
            ShardConfig::round_robin(3),
        )
        .unwrap()
    }

    fn probes() -> Vec<InequalityQuery> {
        [10.0, 14.0, 18.0]
            .iter()
            .map(|&b| InequalityQuery::new(vec![1.0, 1.5], Cmp::Leq, b).unwrap())
            .collect()
    }

    fn pipe() -> (Box<dyn Transport>, Box<dyn Transport>) {
        let t = ChannelTransport::new();
        (Box::new(t.clone()), Box::new(t))
    }

    /// A primary over a fresh temp dir plus one attached replica over
    /// in-process channels.
    fn primary_replica(n: usize) -> (TempDir, TempDir, Primary<VecStore>, Replica<VecStore>) {
        let pdir = TempDir::new("repl_primary").unwrap();
        let rdir = TempDir::new("repl_replica").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
        let store = ConcurrentDurableShardedIndexSet::create(
            pdir.path(),
            build_sharded(n),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        let mut primary = Primary::new(store, FailoverConfig::default());
        let (down_tx, down_rx) = pipe();
        let (up_tx, up_rx) = pipe();
        primary.add_replica(down_tx, up_rx);
        let replica = Replica::new(
            rdir.path().join("r0"),
            0,
            down_rx,
            up_tx,
            opts,
            FailoverConfig::default(),
        );
        (pdir, rdir, primary, replica)
    }

    /// Pump/poll both ends until quiescent. Flushes the primary's
    /// queues first: the tailer only ships what has reached the log.
    fn settle(primary: &mut Primary<VecStore>, replica: &mut Replica<VecStore>, now: &mut u64) {
        primary.store().sync().unwrap();
        for _ in 0..64 {
            *now += 200;
            primary.pump(*now).unwrap();
            let applied = replica.poll(*now).unwrap();
            primary.pump(*now).unwrap();
            if applied == 0 && replica.is_seeded() {
                let appended = primary.store().wal_health().appended_lsn;
                if replica.applied_lsn() >= appended {
                    break;
                }
            }
        }
    }

    #[test]
    fn message_codec_roundtrips_and_rejects_corruption() {
        let msgs = vec![
            ShipMessage::Snapshot {
                term: 3,
                generation: 7,
                watermark: 41,
                bytes: vec![1, 2, 3, 4, 5],
            },
            ShipMessage::Frames {
                term: 2,
                frames: vec![(0, vec![9; 12]), (BROADCAST_SHARD, vec![7; 3])],
            },
            ShipMessage::Heartbeat {
                term: 1,
                appended: 99,
                acked: 90,
            },
            ShipMessage::Ack {
                term: 1,
                replica: 4,
                acked: 88,
                applied: 87,
            },
            ShipMessage::Reject { term: 12 },
            ShipMessage::Hello {
                term: 5,
                replica: 2,
                acked: 77,
            },
        ];
        for msg in msgs {
            let enc = msg.encode();
            assert_eq!(ShipMessage::decode(&enc).unwrap(), msg);
            // Any single bit flip is detected.
            for offset in [0, 8, 9, enc.len() / 2, enc.len() - 1] {
                let mut bad = enc.clone();
                bad[offset] ^= 0x10;
                assert!(ShipMessage::decode(&bad).is_err(), "flip at {offset}");
            }
            // Truncation is detected.
            assert!(ShipMessage::decode(&enc[..enc.len() - 3]).is_err());
        }
    }

    #[test]
    fn write_quorum_confirms_and_times_out_typed() {
        let _g = fault::serial_wal_tests();
        let (_pd, _rd, mut primary, mut replica) = primary_replica(40);
        let mut now = 0u64;
        settle(&mut primary, &mut replica, &mut now);
        assert!(replica.is_seeded());

        primary.set_ack_policy(AckPolicy::Quorum(1));
        assert_eq!(primary.quorum_frontier(), 0);

        // A quorum write with a responsive replica confirms: poll the
        // replica on a sidecar thread while write_quorum pumps inline.
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let worker = {
            let mut replica = replica;
            std::thread::spawn(move || {
                let mut now = 1_000_000u64;
                while !stop2.load(Ordering::Acquire) {
                    now += 5;
                    let _ = replica.poll(now);
                    std::thread::sleep(Duration::from_millis(1));
                }
                replica
            })
        };
        let ack = primary
            .write_quorum(
                &Mutation::Insert {
                    row: vec![5.0, 5.0],
                },
                now,
            )
            .unwrap();
        assert!(matches!(ack, MutationAck::Inserted(_)));
        let lsn = primary.store().wal_health().appended_lsn;
        assert!(primary.quorum_confirmed(lsn));
        assert!(primary.health().quorum_frontier >= lsn);
        stop.store(true, Ordering::Release);
        let mut replica = worker.join().unwrap();

        // With the replica unresponsive the same write fails typed —
        // and IS still applied and durable locally (no third state).
        let before = primary.store().snapshot().len();
        primary.cfg = FailoverConfig {
            quorum_timeout_ms: 50,
            ..Default::default()
        };
        primary.set_ack_policy(AckPolicy::Quorum(1));
        let err = primary
            .write_quorum(
                &Mutation::Insert {
                    row: vec![6.0, 6.0],
                },
                now,
            )
            .unwrap_err();
        match err {
            PlanarError::QuorumTimeout { lsn, required, .. } => {
                assert_eq!(required, 1);
                assert!(lsn > 0);
            }
            other => panic!("expected QuorumTimeout, got {other}"),
        }
        assert_eq!(primary.store().snapshot().len(), before + 1);
        assert!(primary.stats().quorum_timeouts >= 1);

        // The replica catches up later; reads heal to identical answers.
        primary.cfg = FailoverConfig::default();
        let mut now2 = 2_000_000u64;
        settle(&mut primary, &mut replica, &mut now2);
        let follower = replica.follower_read(ReadConsistency::Any).unwrap();
        for q in probes() {
            assert_eq!(
                primary.store().snapshot().query(&q).unwrap().sorted_ids(),
                follower.snapshot.query(&q).unwrap().sorted_ids()
            );
        }
    }

    #[test]
    fn quorum_two_replicas_gate_on_slowest_of_quorum() {
        let _g = fault::serial_wal_tests();
        let pdir = TempDir::new("repl_quorum2").unwrap();
        let rdir = TempDir::new("repl_quorum2_r").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
        let store = ConcurrentDurableShardedIndexSet::create(
            pdir.path(),
            build_sharded(30),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        let mut primary = Primary::new(store, FailoverConfig::default());
        let mut replicas = Vec::new();
        for i in 0..2u32 {
            let (down_tx, down_rx) = pipe();
            let (up_tx, up_rx) = pipe();
            primary.add_replica(down_tx, up_rx);
            replicas.push(Replica::<VecStore>::new(
                rdir.path().join(format!("r{i}")),
                i,
                down_rx,
                up_tx,
                opts,
                FailoverConfig::default(),
            ));
        }
        primary.set_ack_policy(AckPolicy::Quorum(2));
        let mut now = 0u64;
        for _ in 0..64 {
            now += 200;
            primary.pump(now).unwrap();
            for r in &mut replicas {
                r.poll(now).unwrap();
            }
        }
        primary.store().insert_point(&[9.0, 9.0]).unwrap();
        primary.store().sync().unwrap();
        let lsn = primary.store().wal_health().appended_lsn;
        // Only replica 0 polls: a quorum of 2 must NOT confirm.
        for _ in 0..8 {
            now += 200;
            primary.pump(now).unwrap();
            replicas[0].poll(now).unwrap();
            primary.pump(now).unwrap();
        }
        assert!(!primary.quorum_confirmed(lsn));
        // Replica 1 catches up: now it confirms.
        for _ in 0..8 {
            now += 200;
            primary.pump(now).unwrap();
            replicas[1].poll(now).unwrap();
            primary.pump(now).unwrap();
        }
        assert!(primary.quorum_confirmed(lsn));
        assert_eq!(primary.quorum_frontier(), lsn);
    }

    #[test]
    fn hello_resumes_stream_without_reseed_and_reseeds_after_truncation() {
        let _g = fault::serial_wal_tests();
        let (_pd, rd, mut primary, mut replica) = primary_replica(40);
        let mut now = 0u64;
        settle(&mut primary, &mut replica, &mut now);
        let seeds_before = primary.stats().snapshots;

        for _ in 0..10 {
            primary.store().insert_point(&[3.0, 3.0]).unwrap();
        }
        settle(&mut primary, &mut replica, &mut now);
        let acked = replica.acked_lsn();

        // Simulate a network reconnect: fresh pipes on both sides, the
        // primary attaches the link pending and the replica re-wires.
        let (down_tx, down_rx) = pipe();
        let (up_tx, up_rx) = pipe();
        primary.links.clear();
        primary.add_replica_pending(down_tx, up_rx);
        replica.rewire(down_rx, up_tx);

        for _ in 0..4 {
            primary.store().insert_point(&[4.0, 4.0]).unwrap();
        }
        settle(&mut primary, &mut replica, &mut now);
        assert_eq!(
            primary.stats().snapshots,
            seeds_before,
            "a resumable replica must not be re-seeded"
        );
        assert!(replica.acked_lsn() > acked);

        // Now truncate history past the replica's watermark: the Hello
        // can no longer resume and a re-seed must happen automatically.
        let (down_tx, down_rx) = pipe();
        let (up_tx, up_rx) = pipe();
        primary.links.clear();
        for _ in 0..6 {
            primary.store().insert_point(&[5.0, 5.0]).unwrap();
        }
        primary.store().checkpoint().unwrap();
        primary.add_replica_pending(down_tx, up_rx);
        let stale = Replica::<VecStore>::new(
            rd.path().join("stale"),
            7,
            down_rx,
            up_tx,
            WalOptions::default().fsync(FsyncPolicy::EveryN(4)),
            FailoverConfig::default(),
        );
        let mut stale = stale;
        settle(&mut primary, &mut stale, &mut now);
        assert!(stale.is_seeded());
        assert!(primary.stats().snapshots > seeds_before);
        let follower = stale.follower_read(ReadConsistency::Any).unwrap();
        for q in probes() {
            assert_eq!(
                primary.store().snapshot().query(&q).unwrap().sorted_ids(),
                follower.snapshot.query(&q).unwrap().sorted_ids()
            );
        }
    }

    #[test]
    fn disconnected_links_are_reaped() {
        let _g = fault::serial_wal_tests();
        let (_pd, _rd, mut primary, mut replica) = primary_replica(20);
        let mut now = 0u64;
        settle(&mut primary, &mut replica, &mut now);
        assert_eq!(primary.replica_health().len(), 1);

        let (endpoint, driver) = endpoint_pair();
        primary.add_replica_pending(Box::new(endpoint.clone()), Box::new(endpoint));
        assert_eq!(primary.replica_health().len(), 2);
        driver.close();
        now += 200;
        primary.pump(now).unwrap();
        assert_eq!(primary.replica_health().len(), 1);
        assert_eq!(primary.stats().link_drops, 1);
    }

    #[test]
    fn channel_transport_is_fifo() {
        let mut c = ChannelTransport::new();
        c.send(vec![1]).unwrap();
        c.send(vec![2]).unwrap();
        assert_eq!(c.recv().unwrap(), Some(vec![1]));
        assert_eq!(c.recv().unwrap(), Some(vec![2]));
        assert_eq!(c.recv().unwrap(), None);
    }

    #[test]
    fn replica_bootstraps_and_follows() {
        let _g = fault::serial_wal_tests();
        let (_pd, _rd, mut primary, mut replica) = primary_replica(60);
        let mut now = 0u64;
        settle(&mut primary, &mut replica, &mut now);
        assert!(replica.is_seeded());

        for i in 0..25 {
            primary
                .store()
                .insert_point(&[2.0 + (i % 5) as f64, 3.0])
                .unwrap();
        }
        primary.store().update_point(3, &[4.0, 4.0]).unwrap();
        primary.store().delete_point(5).unwrap();
        settle(&mut primary, &mut replica, &mut now);

        let appended = primary.store().wal_health().appended_lsn;
        assert_eq!(replica.applied_lsn(), appended);
        assert!(primary.replication_acked(appended));

        // Follower reads are bit-identical to primary reads at the same
        // LSN.
        let read = replica
            .follower_read(ReadConsistency::AtLeast(appended))
            .unwrap();
        let psnap = primary.store().snapshot();
        for q in probes() {
            assert_eq!(
                read.snapshot.query(&q).unwrap().sorted_ids(),
                psnap.query(&q).unwrap().sorted_ids()
            );
        }

        // An unmet bound is a typed error, not a stale answer.
        let err = replica
            .follower_read(ReadConsistency::AtLeast(appended + 10))
            .unwrap_err();
        assert!(matches!(
            err,
            PlanarError::ReplicaLag { required, applied }
                if required == appended + 10 && applied == appended
        ));

        // Health is coherent from one snapshot.
        let health = primary.health();
        assert_eq!(health.replicas, 1);
        assert_eq!(health.min_acked_lsn, appended);
        assert_eq!(health.max_lag, 0);
    }

    #[test]
    fn broadcast_compact_replicates() {
        let _g = fault::serial_wal_tests();
        let (_pd, _rd, mut primary, mut replica) = primary_replica(40);
        let mut now = 0u64;
        settle(&mut primary, &mut replica, &mut now);
        for id in [1u32, 2, 4, 7] {
            primary.store().delete_point(id).unwrap();
        }
        primary.store().compact(0.01).unwrap();
        settle(&mut primary, &mut replica, &mut now);
        let read = replica.follower_read(ReadConsistency::Any).unwrap();
        let psnap = primary.store().snapshot();
        assert_eq!(read.snapshot.len(), psnap.len());
        for q in probes() {
            assert_eq!(
                read.snapshot.query(&q).unwrap().sorted_ids(),
                psnap.query(&q).unwrap().sorted_ids()
            );
        }
    }

    #[test]
    fn checkpoint_truncation_reseeds_lagging_replica() {
        let _g = fault::serial_wal_tests();
        let (_pd, _rd, mut primary, mut replica) = primary_replica(40);
        let mut now = 0u64;
        settle(&mut primary, &mut replica, &mut now);
        // Mutate while the replica is not polling, then checkpoint: the
        // shipped-but-unacked frames vanish with the truncated segments.
        for i in 0..10 {
            primary
                .store()
                .insert_point(&[2.0 + i as f64, 3.0])
                .unwrap();
        }
        primary.store().checkpoint().unwrap();
        for i in 0..5 {
            primary
                .store()
                .insert_point(&[3.0 + i as f64, 2.0])
                .unwrap();
        }
        settle(&mut primary, &mut replica, &mut now);
        let appended = primary.store().wal_health().appended_lsn;
        assert_eq!(replica.applied_lsn(), appended);
        let read = replica.follower_read(ReadConsistency::Any).unwrap();
        let psnap = primary.store().snapshot();
        assert_eq!(read.snapshot.len(), psnap.len());
    }

    /// A re-seed supersedes the replica's older snapshot generation, and
    /// the replica's directory reopens, through ordinary recovery, to the
    /// answers its follower reads served.
    #[test]
    fn reseeded_replica_keeps_one_snapshot_and_reopens() {
        let _g = fault::serial_wal_tests();
        let (_pd, rd, mut primary, mut replica) = primary_replica(40);
        let mut now = 0u64;
        settle(&mut primary, &mut replica, &mut now);
        for i in 0..10 {
            primary
                .store()
                .insert_point(&[2.0 + i as f64, 3.0])
                .unwrap();
        }
        primary.store().checkpoint().unwrap();
        for i in 0..5 {
            primary
                .store()
                .insert_point(&[3.0 + i as f64, 2.0])
                .unwrap();
        }
        settle(&mut primary, &mut replica, &mut now);
        assert_eq!(
            replica.stats().snapshots,
            2,
            "the truncation forced a re-seed"
        );

        let dir = rd.path().join("r0");
        let snapshots = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                let name = name.to_string_lossy();
                name.starts_with("snapshot-") && name.ends_with(".plnr")
            })
            .count();
        assert_eq!(snapshots, 1, "superseded snapshot generations are swept");

        let read = replica.follower_read(ReadConsistency::Any).unwrap();
        let served: Vec<Vec<u32>> = probes()
            .iter()
            .map(|q| read.snapshot.query(q).unwrap().sorted_ids())
            .collect();
        drop(read);
        drop(replica);
        let (reopened, _) = ConcurrentDurableShardedIndexSet::<VecStore>::open(
            &dir,
            WalOptions::default(),
            ConcurrencyConfig::default(),
        )
        .unwrap();
        let snap = reopened.snapshot();
        for (q, want) in probes().iter().zip(&served) {
            assert_eq!(&snap.query(q).unwrap().sorted_ids(), want);
        }
    }

    #[test]
    fn promotion_fences_the_old_primary() {
        let _g = fault::serial_wal_tests();
        let (_pd, _rd, mut primary, mut replica) = primary_replica(40);
        let mut now = 0u64;
        settle(&mut primary, &mut replica, &mut now);
        for i in 0..8 {
            primary
                .store()
                .insert_point(&[2.0 + i as f64, 3.0])
                .unwrap();
        }
        settle(&mut primary, &mut replica, &mut now);
        let old_term = primary.term();
        assert!(!replica.primary_alive(now + 10_000), "lease must expire");

        let acked = replica.acked_lsn();
        let promoted = replica.promote(ConcurrencyConfig::default()).unwrap();
        assert_eq!(promoted.term(), old_term + 1);
        assert_eq!(promoted.store().wal_health().appended_lsn, acked);

        // The promoted store keeps accepting writes under the new term.
        promoted.store().insert_point(&[9.0, 9.0]).unwrap();

        // The old primary's next ship is rejected by the promoted
        // replica's peer... simulate with a fresh replica that adopted
        // the new term via a heartbeat from the promoted primary.
        let mut promoted = promoted;
        let (down_tx, down_rx) = pipe();
        let (up_tx, up_rx) = pipe();
        promoted.add_replica(down_tx, up_rx);
        let mut r2: Replica<VecStore> = Replica::new(
            _rd.path().join("r2"),
            2,
            down_rx,
            up_tx,
            WalOptions::default().fsync(FsyncPolicy::EveryN(4)),
            FailoverConfig::default(),
        );
        settle(&mut promoted, &mut r2, &mut now);
        assert_eq!(r2.term(), old_term + 1);

        // Rewire the old primary to r2: its stale-term traffic draws a
        // Reject, and the old primary fences itself.
        let (down_tx, down_rx) = pipe();
        let (up_tx, up_rx) = pipe();
        primary.add_replica(down_tx, up_rx);
        let mut old_link_replica = r2;
        old_link_replica.down = down_rx;
        old_link_replica.up = up_tx;
        primary.store().insert_point(&[8.0, 8.0]).unwrap();
        let mut fenced = None;
        for _ in 0..32 {
            now += 200;
            match primary.pump(now) {
                Ok(()) => {}
                Err(e) => {
                    fenced = Some(e);
                    break;
                }
            }
            let _ = old_link_replica.poll(now);
        }
        match fenced {
            Some(PlanarError::Fenced { term, observed }) => {
                assert_eq!(term, old_term);
                assert_eq!(observed, old_term + 1);
            }
            other => panic!("expected Fenced, got {other:?}"),
        }
    }

    #[test]
    fn elect_prefers_highest_acked_then_lowest_index() {
        let _g = fault::serial_wal_tests();
        let rdir = TempDir::new("repl_elect").unwrap();
        let mk = |i: u32| -> Replica<VecStore> {
            let (down, _) = pipe();
            let (up, _) = pipe();
            Replica::new(
                rdir.path().join(format!("r{i}")),
                i,
                down,
                up,
                WalOptions::default(),
                FailoverConfig::default(),
            )
        };
        let replicas: Vec<Replica<VecStore>> = (0..3).map(mk).collect();
        // None seeded: nothing electable.
        assert_eq!(elect(&replicas), None);
    }

    #[test]
    fn promoted_replica_serves_identically_and_accepts_reopen() {
        let _g = fault::serial_wal_tests();
        let (_pd, _rd, mut primary, mut replica) = primary_replica(50);
        let mut now = 0u64;
        settle(&mut primary, &mut replica, &mut now);
        for i in 0..12 {
            primary
                .store()
                .insert_point(&[2.0 + i as f64, 3.0])
                .unwrap();
        }
        settle(&mut primary, &mut replica, &mut now);
        let expected: Vec<Vec<u32>> = {
            let snap = primary.store().snapshot();
            probes()
                .iter()
                .map(|q| snap.query(q).unwrap().sorted_ids())
                .collect()
        };
        let promoted = replica.promote(ConcurrencyConfig::default()).unwrap();
        let snap = promoted.store().snapshot();
        for (q, want) in probes().iter().zip(&expected) {
            assert_eq!(&snap.query(q).unwrap().sorted_ids(), want);
        }
        // The promoted store is a fully working durable set.
        promoted.store().insert_point(&[6.0, 6.0]).unwrap();
        promoted.store().reopen_wal().unwrap();
    }
}
