//! The `PLNRQRY1` compact binary protocol.
//!
//! A connection opens with the 8-byte magic `PLNRQRY1` (the server uses
//! it to tell binary clients from HTTP ones on the same port), then
//! carries a sequence of frames in each direction:
//!
//! ```text
//! | body_len u32 | kind u8 | body | crc64 u64 |      (integers LE)
//! ```
//!
//! The CRC-64/XZ seals everything before it (header + body) with the
//! shared [`planar_core::frame`] helpers — the same trailer the WAL
//! frames, snapshot sections, and replication messages use, so in-flight
//! corruption is detected the same way everywhere. `body_len` is bounded
//! by [`MAX_BODY`] before any allocation, so a corrupt length can neither
//! OOM the peer nor index past a buffer.
//!
//! Each frame is built and read in one buffer: [`encode_response`] and
//! [`encode_request`] write the header (with a `body_len` placeholder
//! patched at the end), the body and the seal straight into the frame
//! they return, and [`read_frame`] reads header, body and seal into one
//! allocation, verifies it, and trims it to the body in place.
//!
//! Requests carry the tenant (for admission control) and an optional
//! deadline budget in microseconds, measured from server receipt; the
//! deadline propagates into
//! [`planar_core::ExecutionConfig::with_deadline`], and answers the
//! engine could not start in time come back flagged `partial` — the
//! client-visible face of [`planar_core::ServedBy::Partial`].

use planar_core::frame::{open_sealed, seal_vec, CRC_LEN};
use planar_core::{Cmp, ServedBy};
use std::io::{self, Read, Write};

/// Connection preamble identifying the binary protocol.
pub const MAGIC: &[u8; 8] = b"PLNRQRY1";

/// Frame header: body length + kind tag.
const FRAME_HEADER: usize = 4 + 1;
/// Hard bound on a frame body. Large enough for a 100k-id answer, small
/// enough that a corrupt length field cannot provoke a huge allocation.
pub const MAX_BODY: usize = 16 << 20;

/// Request kinds.
const REQ_QUERY: u8 = 0x01;
const REQ_TOPK: u8 = 0x02;
const REQ_METRICS: u8 = 0x03;

/// Response kinds.
const RESP_MATCHES: u8 = 0x81;
const RESP_NEIGHBORS: u8 = 0x82;
const RESP_RETRY: u8 = 0x83;
const RESP_OVERLOAD: u8 = 0x84;
const RESP_ERROR: u8 = 0x85;
const RESP_METRICS: u8 = 0x86;

/// Provenance flag bits on answer responses.
const FLAG_PARTIAL: u8 = 0x1;
const FLAG_DEGRADED: u8 = 0x2;

/// Typed error codes on [`Response::Error`].
pub mod error_code {
    /// The request was malformed at the wire level (bad lengths, unknown
    /// comparison tag, …).
    pub const MALFORMED: u8 = 1;
    /// The query failed the engine's typed validation
    /// (`PlanarError::InvalidQuery` and friends) — a client error.
    pub const INVALID_QUERY: u8 = 2;
    /// The engine failed internally (worker panic, poisoned state).
    pub const INTERNAL: u8 = 3;
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An inequality query: all points with `⟨a, φ(x)⟩ cmp b`.
    Query {
        /// Tenant for per-tenant admission quotas (0 = anonymous).
        tenant: u32,
        /// Deadline budget in µs from server receipt (0 = none).
        deadline_us: u32,
        /// Query coefficients.
        a: Vec<f64>,
        /// Comparison direction.
        cmp: Cmp,
        /// Threshold.
        b: f64,
    },
    /// A top-k query over the same predicate.
    TopK {
        /// Tenant for per-tenant admission quotas (0 = anonymous).
        tenant: u32,
        /// Deadline budget in µs from server receipt (0 = none).
        deadline_us: u32,
        /// Query coefficients.
        a: Vec<f64>,
        /// Comparison direction.
        cmp: Cmp,
        /// Threshold.
        b: f64,
        /// Neighbors requested.
        k: u32,
    },
    /// Fetch the metrics document (same payload as `GET /metrics`).
    Metrics,
}

/// Serving provenance summarized per response, as flag bits + a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Some shard's slot was a deadline placeholder: the answer is
    /// missing that shard's contribution (empty matches for fully
    /// skipped queries).
    pub partial: bool,
    /// Some shard served degraded (exact scan, every index quarantined).
    pub degraded: bool,
    /// Batch slots that completed before the deadline (meaningful when
    /// `partial`; equals the coalesced batch size otherwise).
    pub completed: u32,
}

impl Provenance {
    /// Summarize per-shard provenance into the wire form.
    pub fn from_served_by(served_by: &[ServedBy]) -> Self {
        let mut p = Provenance {
            partial: false,
            degraded: false,
            completed: 0,
        };
        for sb in served_by {
            match sb {
                ServedBy::Partial { completed, .. } => {
                    p.partial = true;
                    p.completed = *completed as u32;
                }
                ServedBy::Degraded => p.degraded = true,
                _ => {}
            }
        }
        p
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Inequality answer: matching global ids in the engine's canonical
    /// order (ascending shard, interval order within) — byte-identical
    /// to a direct `query_batch` call's `matches`.
    Matches {
        /// Matching ids.
        ids: Vec<u32>,
        /// Serving provenance.
        provenance: Provenance,
    },
    /// Top-k answer: `(id, distance)` ascending by `(distance, id)`,
    /// distances bit-exact (encoded via `f64::to_le_bytes`).
    Neighbors {
        /// Neighbors.
        neighbors: Vec<(u32, f64)>,
        /// Serving provenance.
        provenance: Provenance,
    },
    /// Admission control: the tenant's quota is exhausted — retry after
    /// the given backoff. Typed, not an error: overload degrades to
    /// explicit rejections, never to hangs.
    Retry {
        /// Suggested backoff before retrying, µs.
        retry_after_us: u32,
    },
    /// Admission control: the request queue is full — shed load.
    Overload {
        /// Queue depth observed at rejection.
        queue_depth: u32,
    },
    /// A typed per-request error (see [`error_code`]); the connection
    /// stays usable.
    Error {
        /// One of [`error_code`].
        code: u8,
        /// Human-readable message.
        message: String,
    },
    /// The metrics document (JSON text).
    Metrics {
        /// JSON payload.
        json: String,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `items` as fixed-width little-endian records of `W` bytes in
/// one pass: grow the buffer once, then fill it record by record.
fn put_records<T: Copy, const W: usize>(buf: &mut Vec<u8>, items: &[T], le: impl Fn(T) -> [u8; W]) {
    let start = buf.len();
    buf.resize(start + items.len() * W, 0);
    for (dst, &item) in buf[start..].chunks_exact_mut(W).zip(items) {
        dst.copy_from_slice(&le(item));
    }
}

fn cmp_tag(cmp: Cmp) -> u8 {
    match cmp {
        Cmp::Leq => 0,
        Cmp::Geq => 1,
    }
}

fn encode_predicate(buf: &mut Vec<u8>, tenant: u32, deadline_us: u32, a: &[f64], cmp: Cmp, b: f64) {
    put_u32(buf, tenant);
    put_u32(buf, deadline_us);
    buf.push(cmp_tag(cmp));
    put_f64(buf, b);
    put_u32(buf, a.len() as u32);
    put_records(buf, a, f64::to_le_bytes);
}

/// Start a frame of `kind` whose body will take about `body_cap` bytes:
/// the header with a `body_len` placeholder that [`seal_frame`] patches.
fn begin_frame(kind: u8, body_cap: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + body_cap + CRC_LEN);
    put_u32(&mut out, 0);
    out.push(kind);
    out
}

/// Finish a frame started by [`begin_frame`]: patch `body_len` to the
/// bytes written after the header, then append the CRC seal.
fn seal_frame(mut out: Vec<u8>) -> Vec<u8> {
    let body_len = out.len() - FRAME_HEADER;
    debug_assert!(body_len <= MAX_BODY);
    out[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    seal_vec(&mut out);
    out
}

/// Encode a request into one sealed frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let out = match req {
        Request::Query {
            tenant,
            deadline_us,
            a,
            cmp,
            b,
        } => {
            let mut out = begin_frame(REQ_QUERY, 21 + a.len() * 8);
            encode_predicate(&mut out, *tenant, *deadline_us, a, *cmp, *b);
            out
        }
        Request::TopK {
            tenant,
            deadline_us,
            a,
            cmp,
            b,
            k,
        } => {
            let mut out = begin_frame(REQ_TOPK, 25 + a.len() * 8);
            encode_predicate(&mut out, *tenant, *deadline_us, a, *cmp, *b);
            put_u32(&mut out, *k);
            out
        }
        Request::Metrics => begin_frame(REQ_METRICS, 0),
    };
    seal_frame(out)
}

/// Encode a response into one sealed frame: header, body and seal are
/// written straight into the returned buffer, with no intermediate body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let out = match resp {
        Response::Matches { ids, provenance } => {
            let mut out = begin_frame(RESP_MATCHES, 9 + ids.len() * 4);
            put_provenance(&mut out, provenance);
            put_u32(&mut out, ids.len() as u32);
            put_records(&mut out, ids, u32::to_le_bytes);
            out
        }
        Response::Neighbors {
            neighbors,
            provenance,
        } => {
            let mut out = begin_frame(RESP_NEIGHBORS, 9 + neighbors.len() * 12);
            put_provenance(&mut out, provenance);
            put_u32(&mut out, neighbors.len() as u32);
            put_records(&mut out, neighbors, |(id, dist)| {
                let mut rec = [0u8; 12];
                rec[..4].copy_from_slice(&id.to_le_bytes());
                rec[4..].copy_from_slice(&dist.to_le_bytes());
                rec
            });
            out
        }
        Response::Retry { retry_after_us } => {
            let mut out = begin_frame(RESP_RETRY, 4);
            put_u32(&mut out, *retry_after_us);
            out
        }
        Response::Overload { queue_depth } => {
            let mut out = begin_frame(RESP_OVERLOAD, 4);
            put_u32(&mut out, *queue_depth);
            out
        }
        Response::Error { code, message } => {
            let mut out = begin_frame(RESP_ERROR, 5 + message.len());
            out.push(*code);
            put_u32(&mut out, message.len() as u32);
            out.extend_from_slice(message.as_bytes());
            out
        }
        Response::Metrics { json } => {
            let mut out = begin_frame(RESP_METRICS, 4 + json.len());
            put_u32(&mut out, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
            out
        }
    };
    seal_frame(out)
}

fn put_provenance(buf: &mut Vec<u8>, p: &Provenance) {
    let mut flags = 0u8;
    if p.partial {
        flags |= FLAG_PARTIAL;
    }
    if p.degraded {
        flags |= FLAG_DEGRADED;
    }
    buf.push(flags);
    put_u32(buf, p.completed);
}

/// A cursor over a frame body with length-bounded reads.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.take(8)
            .map(|s| f64::from_le_bytes(s.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn parse_cmp(tag: u8) -> Option<Cmp> {
    match tag {
        0 => Some(Cmp::Leq),
        1 => Some(Cmp::Geq),
        _ => None,
    }
}

fn parse_predicate(c: &mut Cursor) -> Option<(u32, u32, Vec<f64>, Cmp, f64)> {
    let tenant = c.u32()?;
    let deadline_us = c.u32()?;
    let cmp = parse_cmp(c.u8()?)?;
    let b = c.f64()?;
    let dim = c.u32()? as usize;
    // Bound before allocating: dim f64s must fit in what remains.
    if dim > (c.bytes.len() - c.pos) / 8 {
        return None;
    }
    let a = (0..dim).map(|_| c.f64()).collect::<Option<Vec<_>>>()?;
    Some((tenant, deadline_us, a, cmp, b))
}

/// Decode a request frame body. `None` means malformed.
pub fn decode_request(kind: u8, body: &[u8]) -> Option<Request> {
    let mut c = Cursor::new(body);
    let req = match kind {
        REQ_QUERY => {
            let (tenant, deadline_us, a, cmp, b) = parse_predicate(&mut c)?;
            Request::Query {
                tenant,
                deadline_us,
                a,
                cmp,
                b,
            }
        }
        REQ_TOPK => {
            let (tenant, deadline_us, a, cmp, b) = parse_predicate(&mut c)?;
            let k = c.u32()?;
            Request::TopK {
                tenant,
                deadline_us,
                a,
                cmp,
                b,
                k,
            }
        }
        REQ_METRICS => Request::Metrics,
        _ => return None,
    };
    c.done().then_some(req)
}

fn parse_provenance(c: &mut Cursor) -> Option<Provenance> {
    let flags = c.u8()?;
    let completed = c.u32()?;
    Some(Provenance {
        partial: flags & FLAG_PARTIAL != 0,
        degraded: flags & FLAG_DEGRADED != 0,
        completed,
    })
}

/// Decode a response frame body. `None` means malformed.
pub fn decode_response(kind: u8, body: &[u8]) -> Option<Response> {
    let mut c = Cursor::new(body);
    let resp = match kind {
        RESP_MATCHES => {
            let provenance = parse_provenance(&mut c)?;
            let n = c.u32()? as usize;
            if n > (c.bytes.len() - c.pos) / 4 {
                return None;
            }
            let ids = c
                .take(n * 4)?
                .chunks_exact(4)
                .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte id")))
                .collect();
            Response::Matches { ids, provenance }
        }
        RESP_NEIGHBORS => {
            let provenance = parse_provenance(&mut c)?;
            let n = c.u32()? as usize;
            if n > (c.bytes.len() - c.pos) / 12 {
                return None;
            }
            let neighbors = c
                .take(n * 12)?
                .chunks_exact(12)
                .map(|s| {
                    let (id, dist) = s.split_at(4);
                    (
                        u32::from_le_bytes(id.try_into().expect("4-byte id")),
                        f64::from_le_bytes(dist.try_into().expect("8-byte distance")),
                    )
                })
                .collect();
            Response::Neighbors {
                neighbors,
                provenance,
            }
        }
        RESP_RETRY => Response::Retry {
            retry_after_us: c.u32()?,
        },
        RESP_OVERLOAD => Response::Overload {
            queue_depth: c.u32()?,
        },
        RESP_ERROR => {
            let code = c.u8()?;
            let len = c.u32()? as usize;
            let message = String::from_utf8(c.take(len)?.to_vec()).ok()?;
            Response::Error { code, message }
        }
        RESP_METRICS => {
            let len = c.u32()? as usize;
            let json = String::from_utf8(c.take(len)?.to_vec()).ok()?;
            Response::Metrics { json }
        }
        _ => return None,
    };
    c.done().then_some(resp)
}

/// Read one frame off a stream: `Ok(Some((kind, body)))` on a sealed,
/// length-bounded frame; `Ok(None)` on clean EOF at a frame boundary;
/// `Err` on I/O failure, an oversized length, or a CRC mismatch (the
/// connection is then unusable — framing is lost).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let body_len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let kind = header[4];
    if body_len > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {body_len} bytes exceeds the {MAX_BODY} bound"),
        ));
    }
    // One buffer for header, body and seal: verify it whole, then trim
    // it down to the body in place.
    let mut frame = vec![0u8; FRAME_HEADER + body_len + CRC_LEN];
    frame[..FRAME_HEADER].copy_from_slice(&header);
    r.read_exact(&mut frame[FRAME_HEADER..])?;
    if open_sealed(&frame).is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame failed its CRC",
        ));
    }
    frame.truncate(FRAME_HEADER + body_len);
    frame.drain(..FRAME_HEADER);
    Ok(Some((kind, frame)))
}

/// Write one pre-encoded frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let frame = encode_request(&req);
        let mut r = io::Cursor::new(frame);
        let (kind, body) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(decode_request(kind, &body), Some(req));
    }

    fn round_trip_response(resp: Response) {
        let frame = encode_response(&resp);
        let mut r = io::Cursor::new(frame);
        let (kind, body) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(decode_response(kind, &body), Some(resp));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Response frames pinned byte for byte, so a framing edit that
    /// drifts the protocol fails here, not in a mixed-version deployment.
    /// The hex was produced by the per-field encoder that preceded the
    /// single-buffer one.
    #[test]
    fn golden_matches_frame() {
        let resp = Response::Matches {
            ids: vec![3, 1, 4, 1_000_000, 0xDEAD_BEEF],
            provenance: Provenance {
                partial: true,
                degraded: false,
                completed: 17,
            },
        };
        let frame = encode_response(&resp);
        assert_eq!(
            hex(&frame),
            "1d000000810111000000050000000300000001000000040000004042\
             0f00efbeadde271df6904b6a3c6c"
        );
        let (kind, body) = read_frame(&mut frame.as_slice()).unwrap().unwrap();
        assert_eq!(decode_response(kind, &body), Some(resp));
    }

    #[test]
    fn golden_neighbors_frame() {
        let resp = Response::Neighbors {
            neighbors: vec![(9, 0.125), (2, f64::MAX), (0x0102_0304, -1.5)],
            provenance: Provenance {
                partial: false,
                degraded: true,
                completed: 3,
            },
        };
        let frame = encode_response(&resp);
        assert_eq!(
            hex(&frame),
            "2d00000082020300000003000000090000000000000000\
             00c03f02000000ffffffffffffef7f04030201000000000000f8bf\
             1a945df924491a9c"
        );
        let (kind, body) = read_frame(&mut frame.as_slice()).unwrap().unwrap();
        assert_eq!(decode_response(kind, &body), Some(resp));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query {
            tenant: 7,
            deadline_us: 250,
            a: vec![1.0, -2.5, f64::MIN_POSITIVE],
            cmp: Cmp::Leq,
            b: 9.25,
        });
        round_trip_request(Request::TopK {
            tenant: 0,
            deadline_us: 0,
            a: vec![0.5; 16],
            cmp: Cmp::Geq,
            b: -3.0,
            k: 12,
        });
        round_trip_request(Request::Metrics);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Matches {
            ids: vec![3, 1, 4, 1_000_000],
            provenance: Provenance {
                partial: true,
                degraded: false,
                completed: 17,
            },
        });
        round_trip_response(Response::Neighbors {
            neighbors: vec![(9, 0.125), (2, f64::MAX)],
            provenance: Provenance::default(),
        });
        round_trip_response(Response::Retry { retry_after_us: 42 });
        round_trip_response(Response::Overload { queue_depth: 512 });
        round_trip_response(Response::Error {
            code: error_code::INVALID_QUERY,
            message: "zero coefficient on axis 2".into(),
        });
        round_trip_response(Response::Metrics {
            json: "{\"count\":0}".into(),
        });
    }

    #[test]
    fn distances_are_bit_exact() {
        let vals = [0.1 + 0.2, f64::MIN_POSITIVE, 1e-300, 1.0 / 3.0];
        let resp = Response::Neighbors {
            neighbors: vals
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u32, v))
                .collect(),
            provenance: Provenance::default(),
        };
        let frame = encode_response(&resp);
        let mut r = io::Cursor::new(frame);
        let (kind, body) = read_frame(&mut r).unwrap().unwrap();
        let Some(Response::Neighbors { neighbors, .. }) = decode_response(kind, &body) else {
            panic!("wrong variant");
        };
        for (got, want) in neighbors.iter().zip(&vals) {
            assert_eq!(got.1.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let frame = encode_request(&Request::Metrics);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            let mut r = io::Cursor::new(bad);
            match read_frame(&mut r) {
                Err(_) => {}
                Ok(Some((kind, body))) => {
                    // A flip inside the length header can still parse as a
                    // longer/shorter frame only if the CRC also matched —
                    // impossible for a single flip, so anything that
                    // decodes must be a *different* frame. Reject it at
                    // the decode layer instead.
                    assert!(
                        decode_request(kind, &body).is_none(),
                        "flip at {i} produced a valid frame"
                    );
                }
                Ok(None) => {}
            }
        }
    }

    #[test]
    fn truncated_stream_is_eof_not_a_frame() {
        let frame = encode_request(&Request::Metrics);
        let mut r = io::Cursor::new(frame[..frame.len() - 1].to_vec());
        assert!(read_frame(&mut r).is_err());
        let mut empty = io::Cursor::new(Vec::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn oversized_length_is_bounded() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        bad.push(REQ_QUERY);
        let mut r = io::Cursor::new(bad);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn predicate_dim_is_length_bounded() {
        // A body claiming 2^29 coefficients with no bytes behind it must
        // fail before allocating.
        let mut body = Vec::new();
        put_u32(&mut body, 0);
        put_u32(&mut body, 0);
        body.push(0);
        put_f64(&mut body, 1.0);
        put_u32(&mut body, 1 << 29);
        assert_eq!(decode_request(REQ_QUERY, &body), None);
    }
}
