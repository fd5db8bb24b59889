//! # planar-serve — a network front-end for the planar index
//!
//! A std-only, long-running query service wrapping the concurrent engine
//! ([`planar_core::ConcurrentShardedIndexSet`] or its durable sibling):
//! thread-per-connection on [`std::net::TcpListener`], one port, three
//! wire surfaces sniffed from the first eight bytes —
//!
//! * the compact [`wire`] binary protocol (`PLNRQRY1` preamble, CRC-64
//!   sealed frames via the shared [`planar_core::frame`] helpers);
//! * a minimal `http` JSON surface (`GET /metrics`, `POST /query`,
//!   `POST /topk`);
//! * the `PLNRSHP1` replication ship protocol ([`planar_core::SHIP_MAGIC`]
//!   banner): the connection becomes a [`planar_core::ShipEndpoint`] the
//!   embedding process attaches to its [`planar_core::Primary`] (or
//!   [`planar_core::Replica`]) via [`ServerHandle::accept_replica`], so
//!   queries, metrics, and replication share one port.
//!
//! The performance core is the [`batcher`]: concurrent clients' decoded
//! requests coalesce into `query_batch` / `top_k_batch` calls against a
//! single epoch snapshot, recovering the batch-execution amortization the
//! engine already measures offline. The batch-close policy adapts to the
//! observed arrival rate — closing early when traffic is sparse (no added
//! latency), filling deeper as load rises (more amortization exactly when
//! it pays). Per-request deadlines ride into
//! [`planar_core::ExecutionConfig::with_deadline`], so the engine's
//! partial-answer contract ([`planar_core::ServedBy::Partial`]) reaches
//! the client as a `partial` provenance flag instead of a timeout.
//!
//! Overload is governed by [`admit`]: a bounded request queue (typed
//! `Overload` rejections) and per-tenant token quotas (typed `Retry` with
//! a backoff hint) — the service degrades to explicit rejections, never
//! to unbounded queues or hangs.
//!
//! ```no_run
//! use planar_core::{
//!     Cmp, ConcurrencyConfig, ConcurrentShardedIndexSet, FeatureTable, IndexConfig,
//!     ParameterDomain, ShardConfig, ShardedIndexSet, VecStore,
//! };
//! use planar_serve::{Client, Response, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let table = FeatureTable::from_rows(2, vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
//! let set = ShardedIndexSet::<VecStore>::build(
//!     table, domain, IndexConfig::with_budget(3), ShardConfig::round_robin(1),
//! ).unwrap();
//! let engine = Arc::new(ConcurrentShardedIndexSet::new(set, ConcurrencyConfig::default()));
//! let server = Server::start(engine, ServeConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! match client.query(&[1.0, 1.0], Cmp::Leq, 5.0).unwrap() {
//!     Response::Matches { ids, .. } => println!("{ids:?}"),
//!     other => panic!("{other:?}"),
//! }
//! server.shutdown();
//! ```

pub mod admit;
pub mod batcher;
pub mod client;
mod http;
pub mod json;
pub mod metrics;
pub mod wire;

pub use admit::{Admission, AdmissionConfig};
pub use batcher::{BatchPolicy, MicroBatcher, Work};
pub use client::Client;
pub use metrics::{LatencyHistogram, ServerMetrics};
pub use wire::{error_code, Provenance, Request, Response};

use planar_core::{
    endpoint_pair, ConcurrentDurableShardedIndexSet, ConcurrentShardedIndexSet, ExecutionConfig,
    InequalityQuery, JsonObject, ShardedIndexSet, ShipEndpoint, ShipEndpointDriver, Snapshot,
    StatsAggregator, TopKQuery, VecStore, SHIP_MAGIC,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll interval for shutdown checks on idle connections.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Budget for reading the rest of a frame once its first byte arrived.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// What the server needs from an engine: epoch-snapshot reads plus a
/// read-only hook that renders its lifecycle state (epochs, WAL, group
/// commit) into the `/metrics` engine block at scrape time.
pub trait Engine: Send + Sync + 'static {
    /// Pin the current epoch for one coalesced batch.
    fn snapshot(&self) -> Snapshot<ShardedIndexSet<VecStore>>;
    /// Append the engine's lifecycle fields to `doc`.
    fn write_lifecycle(&self, doc: JsonObject) -> JsonObject;
}

impl Engine for ConcurrentShardedIndexSet<VecStore> {
    fn snapshot(&self) -> Snapshot<ShardedIndexSet<VecStore>> {
        ConcurrentShardedIndexSet::snapshot(self)
    }

    fn write_lifecycle(&self, doc: JsonObject) -> JsonObject {
        self.epoch_stats().write_json(doc)
    }
}

impl Engine for ConcurrentDurableShardedIndexSet<VecStore> {
    fn snapshot(&self) -> Snapshot<ShardedIndexSet<VecStore>> {
        ConcurrentDurableShardedIndexSet::snapshot(self)
    }

    fn write_lifecycle(&self, doc: JsonObject) -> JsonObject {
        let doc = self.wal_health().write_json(doc);
        let doc = self.epoch_stats().write_json(doc);
        self.group_commit_stats().write_json(doc)
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Micro-batcher close policy.
    pub batch: BatchPolicy,
    /// Admission control (queue bound, connection cap, tenant quotas).
    pub admission: AdmissionConfig,
    /// Execution configuration for coalesced batches (threads etc.);
    /// per-request deadlines are layered on top per batch.
    pub exec: ExecutionConfig,
    /// Dispatcher threads draining the batcher queue. One is right for
    /// almost everything — the engine parallelizes inside a batch.
    pub dispatchers: usize,
    /// Most requests served on one HTTP keep-alive connection before the
    /// server answers with `Connection: close` and recycles it — bounds
    /// how long one client can pin a connection slot.
    pub http_max_requests: usize,
    /// How long an HTTP keep-alive connection may sit idle between
    /// requests before the server closes it.
    pub http_idle_timeout: Duration,
    /// Largest framed ship message accepted on a replication connection.
    /// A length above this is stream desync: the connection is closed
    /// (the dialing [`planar_core::TcpTransport`] reconnects and heals).
    pub ship_max_message: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            batch: BatchPolicy::default(),
            admission: AdmissionConfig::default(),
            exec: ExecutionConfig::default(),
            dispatchers: 1,
            http_max_requests: 1024,
            http_idle_timeout: Duration::from_secs(30),
            ship_max_message: 1 << 30,
        }
    }
}

/// Shared server state (batcher, admission, metrics, shutdown flag).
pub(crate) struct Inner<E: Engine> {
    pub(crate) batcher: MicroBatcher<E>,
    pub(crate) admission: Admission,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) http_max_requests: usize,
    pub(crate) http_idle_timeout: Duration,
    ship_max_message: usize,
    /// Replication endpoints sniffed off the listener, waiting for the
    /// embedding process to claim them ([`ServerHandle::accept_replica`]).
    ships: Mutex<VecDeque<ShipEndpoint>>,
    /// Live ship-connection drivers: closed on shutdown so their relay
    /// loops drain and exit instead of waiting out a dead socket.
    ship_drivers: Mutex<Vec<ShipEndpointDriver>>,
}

/// Decode-independent request handling shared by both wire surfaces:
/// admission, query construction, enqueue, response.
pub(crate) fn process<E: Engine>(inner: &Inner<E>, req: Request) -> Response {
    let (work, tenant, deadline_us) = match req {
        Request::Metrics => {
            return Response::Metrics {
                json: inner.batcher.metrics_json(),
            }
        }
        Request::Query {
            tenant,
            deadline_us,
            a,
            cmp,
            b,
        } => match InequalityQuery::new(a, cmp, b) {
            Ok(q) => (Work::Query(q), tenant, deadline_us),
            Err(e) => return batcher::error_response(&e),
        },
        Request::TopK {
            tenant,
            deadline_us,
            a,
            cmp,
            b,
            k,
        } => {
            let q = InequalityQuery::new(a, cmp, b).and_then(|q| TopKQuery::new(q, k as usize));
            match q {
                Ok(q) => (Work::TopK(q), tenant, deadline_us),
                Err(e) => return batcher::error_response(&e),
            }
        }
    };

    if let Err(backoff) = inner.admission.admit(tenant) {
        inner.metrics.rejected_quota.fetch_add(1, Relaxed);
        return Response::Retry {
            retry_after_us: (backoff.as_micros().min(u32::MAX as u128) as u32).max(1),
        };
    }
    let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us as u64));
    match inner.batcher.enqueue(work, deadline) {
        Ok(rx) => {
            inner.metrics.accepted.fetch_add(1, Relaxed);
            match rx.recv() {
                Ok(resp) => resp,
                Err(_) => Response::Error {
                    code: error_code::INTERNAL,
                    message: "dispatcher exited before answering".to_string(),
                },
            }
        }
        Err(depth) => {
            inner.metrics.rejected_overload.fetch_add(1, Relaxed);
            Response::Overload {
                queue_depth: depth as u32,
            }
        }
    }
}

/// The server factory. [`Server::start`] binds, spawns the accept loop
/// and dispatcher threads, and returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Start serving `engine` per `cfg`. Non-blocking: the accept loop
    /// runs on its own thread.
    pub fn start<E: Engine>(engine: Arc<E>, cfg: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::new());
        let stats = Arc::new(Mutex::new(StatsAggregator::new()));
        let batcher = MicroBatcher::new(
            engine,
            cfg.batch.clone(),
            cfg.exec,
            cfg.admission.max_queue,
            Arc::clone(&metrics),
            stats,
        );
        let inner = Arc::new(Inner {
            batcher,
            admission: Admission::new(cfg.admission),
            metrics,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            http_max_requests: cfg.http_max_requests.max(1),
            http_idle_timeout: cfg.http_idle_timeout,
            ship_max_message: cfg.ship_max_message,
            ships: Mutex::new(VecDeque::new()),
            ship_drivers: Mutex::new(Vec::new()),
        });

        let mut dispatchers = Vec::with_capacity(cfg.dispatchers.max(1));
        for i in 0..cfg.dispatchers.max(1) {
            let b = inner.batcher.clone();
            dispatchers.push(
                std::thread::Builder::new()
                    .name(format!("planar-dispatch-{i}"))
                    .spawn(move || b.run())?,
            );
        }

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("planar-accept".to_string())
            .spawn(move || accept_loop(listener, accept_inner))?;

        Ok(ServerHandle {
            addr,
            control: inner,
            accept: Some(accept),
            dispatchers,
        })
    }
}

/// Handle on a running server: its address, metrics, and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    control: Arc<dyn Control>,
    accept: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        self.control.metrics_handle()
    }

    /// Claim the next replication connection sniffed off the listener
    /// (a peer dialed with the `PLNRSHP1` banner), waiting up to
    /// `timeout`. Box clones of the returned endpoint as a link's `down`
    /// and `up` — e.g. `primary.add_replica_pending(...)` for an inbound
    /// replica, or `Replica::rewire` when following an upstream primary
    /// through this port. `None` on timeout or shutdown.
    pub fn accept_replica(&self, timeout: Duration) -> Option<ShipEndpoint> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ep) = self.control.take_ship() {
                return Some(ep);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stop accepting, drain the batcher, join the worker threads.
    /// Connection handler threads observe the flag within one poll
    /// interval and exit on their own.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.control.signal_shutdown() {
            return; // already shut down
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.dispatchers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Object-safe control surface over [`Inner`] so [`ServerHandle`] need
/// not be generic over the engine; the hot path stays monomorphized.
trait Control: Send + Sync {
    /// Shared metrics handle.
    fn metrics_handle(&self) -> Arc<ServerMetrics>;
    /// Set the shutdown flag and wake the dispatchers; returns whether it
    /// was already set.
    fn signal_shutdown(&self) -> bool;
    /// Pop the next unclaimed replication endpoint, if any.
    fn take_ship(&self) -> Option<ShipEndpoint>;
}

impl<E: Engine> Control for Inner<E> {
    fn metrics_handle(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    fn signal_shutdown(&self) -> bool {
        let was = self.shutdown.swap(true, Relaxed);
        if !was {
            self.batcher.shutdown();
            // Close every live ship connection so its relay threads
            // drain queued outbound messages and exit within one poll
            // interval — a long-lived replication link must not pin
            // shutdown the way it pins a connection slot.
            for driver in self
                .ship_drivers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
            {
                driver.close();
            }
        }
        was
    }

    fn take_ship(&self) -> Option<ShipEndpoint> {
        self.ships
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }
}

fn accept_loop<E: Engine>(listener: TcpListener, inner: Arc<Inner<E>>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(_) => continue,
        };
        if inner.shutdown.load(Relaxed) {
            return;
        }
        inner.metrics.connections.fetch_add(1, Relaxed);
        let max = inner.admission.config().max_connections;
        let conn_inner = Arc::clone(&inner);
        if inner.active.load(Relaxed) >= max {
            inner.metrics.connections_rejected.fetch_add(1, Relaxed);
            // Sniff briefly so the rejection is typed on either surface.
            let _ = std::thread::Builder::new()
                .name("planar-reject".to_string())
                .spawn(move || reject_conn(stream, &conn_inner));
            continue;
        }
        inner.active.fetch_add(1, Relaxed);
        let _ = std::thread::Builder::new()
            .name("planar-conn".to_string())
            .spawn(move || {
                let _ = handle_conn(stream, &conn_inner);
                conn_inner.active.fetch_sub(1, Relaxed);
            });
    }
}

/// Tell an over-cap connection it is rejected, on whichever protocol it
/// speaks, then close it.
fn reject_conn<E: Engine>(mut stream: TcpStream, inner: &Inner<E>) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let Ok(Some(preamble)) = read_preamble(&mut stream, inner) else {
        return;
    };
    let depth = inner.batcher.depth() as u32;
    if &preamble == SHIP_MAGIC {
        // A replication peer over the connection cap: closing without a
        // banner response makes its TcpTransport back off and redial.
    } else if &preamble == wire::MAGIC {
        let frame = wire::encode_response(&Response::Overload { queue_depth: depth });
        let _ = stream.write_all(&frame);
    } else {
        let body = format!("{{\"error\":\"overloaded\",\"queue_depth\":{depth}}}");
        let _ = stream.write_all(
            format!(
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
}

/// Read the 8-byte protocol preamble, tolerating read timeouts while
/// watching the shutdown flag. `Ok(None)` = connection closed early or
/// shutdown.
fn read_preamble<E: Engine>(
    stream: &mut TcpStream,
    inner: &Inner<E>,
) -> io::Result<Option<[u8; 8]>> {
    let mut preamble = [0u8; 8];
    let mut got = 0;
    while got < preamble.len() {
        match stream.read(&mut preamble[got..]) {
            Ok(0) => return Ok(None),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if inner.shutdown.load(Relaxed) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(preamble))
}

/// Per-connection entry: sniff the protocol, then run its loop.
fn handle_conn<E: Engine>(mut stream: TcpStream, inner: &Inner<E>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let Some(preamble) = read_preamble(&mut stream, inner)? else {
        return Ok(());
    };
    if &preamble == wire::MAGIC {
        binary_loop(stream, inner)
    } else if &preamble == SHIP_MAGIC {
        ship_loop(stream, inner)
    } else {
        http::serve_conn(stream, preamble.to_vec(), inner)
    }
}

/// The replication relay: ferry `u32`-length-prefixed ship messages
/// between this socket and a [`ShipEndpoint`] the embedding process
/// claims via [`ServerHandle::accept_replica`]. The reader runs on the
/// connection thread under the 50 ms poll timeout (so shutdown is
/// observed on an idle link); one writer thread drains the endpoint's
/// outbound queue. Framing violations close the connection — the dialing
/// [`planar_core::TcpTransport`] reconnects and the replication layer
/// heals by `Hello`/resume or re-seed.
fn ship_loop<E: Engine>(mut stream: TcpStream, inner: &Inner<E>) -> io::Result<()> {
    inner.metrics.ship_connections.fetch_add(1, Relaxed);
    let (endpoint, driver) = endpoint_pair();
    {
        let mut ships = inner.ships.lock().unwrap_or_else(|e| e.into_inner());
        ships.push_back(endpoint);
    }
    {
        let mut drivers = inner.ship_drivers.lock().unwrap_or_else(|e| e.into_inner());
        // Compact out connections that already finished.
        drivers.retain(|d| !d.is_closed());
        drivers.push(driver.clone());
    }

    let writer = {
        let stream = stream.try_clone()?;
        let driver = driver.clone();
        let metrics = Arc::clone(&inner.metrics);
        std::thread::Builder::new()
            .name("planar-ship-writer".to_string())
            .spawn(move || ship_writer(stream, &driver, &metrics))?
    };

    // Reader loop. The socket inherited handle_conn's IDLE_POLL read
    // timeout, so every 50 ms it re-checks shutdown and driver state.
    let max_message = inner.ship_max_message;
    let mut rx: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    'conn: loop {
        if inner.shutdown.load(Relaxed) || driver.is_closed() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                rx.extend_from_slice(&chunk[..n]);
                // Drain every complete frame that arrived.
                loop {
                    if rx.len() < 4 {
                        break;
                    }
                    let len = u32::from_le_bytes(rx[..4].try_into().expect("4 bytes")) as usize;
                    if len < SHIP_MAGIC.len() + 1 || len > max_message {
                        break 'conn; // stream desync: close, peer reconnects
                    }
                    if rx.len() < 4 + len {
                        break;
                    }
                    let msg: Vec<u8> = rx[4..4 + len].to_vec();
                    rx.drain(..4 + len);
                    if &msg[..SHIP_MAGIC.len()] != SHIP_MAGIC {
                        break 'conn; // not a ship message: desync
                    }
                    inner.metrics.ship_messages_in.fetch_add(1, Relaxed);
                    driver.push_inbound(msg);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    driver.close();
    let _ = writer.join();
    inner.metrics.ship_disconnects.fetch_add(1, Relaxed);
    Ok(())
}

/// Writer half of a ship relay: frame and send outbound messages until
/// the connection closes, then drain whatever is still queued so a clean
/// shutdown never drops acknowledged progress.
fn ship_writer(mut stream: TcpStream, driver: &ShipEndpointDriver, metrics: &ServerMetrics) {
    loop {
        match driver.wait_outbound(IDLE_POLL) {
            Some(msg) => {
                let mut framed = Vec::with_capacity(4 + msg.len());
                framed.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                framed.extend_from_slice(&msg);
                if stream.write_all(&framed).is_err() {
                    driver.close();
                    return;
                }
                metrics.ship_messages_out.fetch_add(1, Relaxed);
            }
            None => {
                if driver.is_closed() {
                    let _ = stream.flush();
                    return;
                }
            }
        }
    }
}

/// The binary-protocol request loop: one frame in, one frame out.
fn binary_loop<E: Engine>(mut stream: TcpStream, inner: &Inner<E>) -> io::Result<()> {
    loop {
        // Wait for the next frame's first byte without holding a blocking
        // read, so shutdown is observed on idle connections.
        let mut probe = [0u8; 1];
        loop {
            match stream.peek(&mut probe) {
                Ok(0) => return Ok(()),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if inner.shutdown.load(Relaxed) {
                        return Ok(());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // A frame is arriving: read it whole under a generous budget
        // (clients write frames in one piece; a stalled sender is fatal
        // for this connection only).
        stream.set_read_timeout(Some(FRAME_READ_TIMEOUT))?;
        let frame = wire::read_frame(&mut stream)?;
        stream.set_read_timeout(Some(IDLE_POLL))?;
        let Some((kind, body)) = frame else {
            return Ok(());
        };
        let resp = match wire::decode_request(kind, &body) {
            Some(req) => process(inner, req),
            None => {
                inner.metrics.malformed.fetch_add(1, Relaxed);
                Response::Error {
                    code: error_code::MALFORMED,
                    message: "unparseable request frame".to_string(),
                }
            }
        };
        wire::write_frame(&mut stream, &wire::encode_response(&resp))?;
    }
}
