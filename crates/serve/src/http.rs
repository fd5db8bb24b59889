//! Minimal HTTP/1.1 surface sharing the binary protocol's port.
//!
//! The server sniffs the first eight bytes of each connection: the
//! `PLNRQRY1` magic selects the binary protocol, anything else is fed to
//! this hand-rolled HTTP/1.1 handler (std-only — no hyper). Three
//! routes:
//!
//! * `GET /metrics` — server counters + engine stats snapshot, JSON;
//! * `POST /query` — body `{"a": [..], "cmp": "leq"|"geq", "b": n,
//!   "tenant"?: n, "deadline_us"?: n}` → `{"ids": [..], "partial": b,
//!   "degraded": b, "completed": n}`;
//! * `POST /topk` — same body plus `"k": n` →
//!   `{"neighbors": [[id, dist], ..], ..}`.
//!
//! Admission rejections map onto HTTP the obvious way: quota exhaustion
//! is `429` with a `Retry-After` header, queue-depth backpressure is
//! `503`. Both carry the same typed JSON bodies the binary protocol
//! returns, so a load balancer and a binary client see one overload
//! story. Keep-alive is honored (`Connection: close` respected) but
//! bounded: a connection serves at most
//! [`crate::ServeConfig::http_max_requests`] requests (the final
//! response carries `Connection: close`) and is dropped after
//! [`crate::ServeConfig::http_idle_timeout`] without a new request, so
//! no client pins a connection slot forever. Header and body sizes are
//! bounded before allocation.

use crate::json::Json;
use crate::wire::{error_code, Request, Response};
use crate::{Engine, Inner};
use planar_core::stats::{json_array, json_f64};
use planar_core::{Cmp, JsonObject};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// Bound on the request head (request line + headers).
const MAX_HEAD: usize = 8 * 1024;
/// Bound on a request body.
const MAX_BODY: usize = 1024 * 1024;

/// Serve one HTTP connection. `carry` holds bytes already consumed by
/// protocol sniffing (the non-magic preamble).
pub(crate) fn serve_conn<E: Engine>(
    mut stream: TcpStream,
    carry: Vec<u8>,
    inner: &Inner<E>,
) -> io::Result<()> {
    let mut buf = carry;
    let mut served = 0usize;
    loop {
        // Accumulate the request head. Between requests (empty buffer,
        // nothing in flight) an idle deadline applies: a keep-alive
        // connection that sends nothing for http_idle_timeout is closed
        // so it cannot pin a connection slot forever.
        let mut idle_deadline = Some(Instant::now() + inner.http_idle_timeout);
        let head_end = loop {
            if let Some(pos) = find_double_crlf(&buf) {
                break pos;
            }
            if !buf.is_empty() {
                idle_deadline = None; // a request started arriving
            }
            if buf.len() > MAX_HEAD {
                write_response(
                    &mut stream,
                    431,
                    "Request Header Fields Too Large",
                    &[],
                    "{}",
                    true,
                )?;
                return Ok(());
            }
            match fill(&mut stream, &mut buf, inner, idle_deadline)? {
                Filled::Data => {}
                Filled::Eof => {
                    if buf.is_empty() {
                        return Ok(()); // clean close between requests
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside an HTTP request head",
                    ));
                }
                Filled::Shutdown => return Ok(()),
                Filled::Idle => {
                    inner.metrics.http_idle_closed.fetch_add(1, Relaxed);
                    return Ok(());
                }
            }
        };

        let head = match std::str::from_utf8(&buf[..head_end]) {
            Ok(h) => h.to_string(),
            Err(_) => {
                write_response(&mut stream, 400, "Bad Request", &[], "{}", true)?;
                return Ok(());
            }
        };
        let Some(parsed) = ParsedHead::parse(&head) else {
            write_response(&mut stream, 400, "Bad Request", &[], "{}", true)?;
            return Ok(());
        };
        if parsed.content_length > MAX_BODY {
            write_response(&mut stream, 413, "Payload Too Large", &[], "{}", true)?;
            return Ok(());
        }

        // Accumulate the body.
        let body_start = head_end + 4;
        let total = body_start + parsed.content_length;
        while buf.len() < total {
            match fill(&mut stream, &mut buf, inner, None)? {
                Filled::Data => {}
                Filled::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside an HTTP request body",
                    ))
                }
                Filled::Shutdown => return Ok(()),
                Filled::Idle => unreachable!("no idle deadline inside a request"),
            }
        }
        let body = buf[body_start..total].to_vec();
        buf.drain(..total);

        served += 1;
        // The final keep-alive response on a connection that hit the
        // per-connection request cap announces the close.
        let close = !parsed.keep_alive || served >= inner.http_max_requests;
        route(&mut stream, &parsed, &body, inner, close)?;
        if close {
            if parsed.keep_alive {
                inner.metrics.http_recycled.fetch_add(1, Relaxed);
            }
            return Ok(());
        }
    }
}

enum Filled {
    Data,
    Eof,
    Shutdown,
    /// The idle deadline passed with no request bytes in flight.
    Idle,
}

/// Read more bytes, tolerating read timeouts while watching shutdown —
/// and, when `idle_deadline` is set, the keep-alive idle cutoff.
fn fill<E: Engine>(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    inner: &Inner<E>,
    idle_deadline: Option<Instant>,
) -> io::Result<Filled> {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(Filled::Eof),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(Filled::Data);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if inner.shutdown.load(Relaxed) {
                    return Ok(Filled::Shutdown);
                }
                if idle_deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(Filled::Idle);
                }
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

struct ParsedHead {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
}

impl ParsedHead {
    fn parse(head: &str) -> Option<ParsedHead> {
        let mut lines = head.split("\r\n");
        let request_line = lines.next()?;
        let mut parts = request_line.split(' ');
        let method = parts.next()?.to_string();
        let path = parts.next()?.to_string();
        let version = parts.next()?;
        if !version.starts_with("HTTP/1.") {
            return None;
        }
        let mut content_length = 0usize;
        let mut keep_alive = version == "HTTP/1.1";
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            match name.as_str() {
                "content-length" => content_length = value.parse().ok()?,
                "connection" => {
                    let v = value.to_ascii_lowercase();
                    if v.contains("close") {
                        keep_alive = false;
                    } else if v.contains("keep-alive") {
                        keep_alive = true;
                    }
                }
                _ => {}
            }
        }
        Some(ParsedHead {
            method,
            path,
            content_length,
            keep_alive,
        })
    }
}

/// Dispatch one parsed HTTP request and write the response. `close`
/// announces `Connection: close` on the response (last request the
/// server will serve on this connection).
fn route<E: Engine>(
    stream: &mut TcpStream,
    head: &ParsedHead,
    body: &[u8],
    inner: &Inner<E>,
    close: bool,
) -> io::Result<()> {
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/metrics") => {
            let json = crate::process(inner, Request::Metrics);
            let Response::Metrics { json } = json else {
                unreachable!("metrics request always yields a metrics response");
            };
            write_response(stream, 200, "OK", &[], &json, close)
        }
        ("POST", "/query") => match parse_query_body(body, false) {
            Ok(req) => respond(stream, crate::process(inner, req), close),
            Err(msg) => {
                inner.metrics.malformed.fetch_add(1, Relaxed);
                bad_request(stream, &msg, close)
            }
        },
        ("POST", "/topk") => match parse_query_body(body, true) {
            Ok(req) => respond(stream, crate::process(inner, req), close),
            Err(msg) => {
                inner.metrics.malformed.fetch_add(1, Relaxed);
                bad_request(stream, &msg, close)
            }
        },
        ("GET" | "POST", _) => write_response(stream, 404, "Not Found", &[], "{}", close),
        _ => write_response(stream, 405, "Method Not Allowed", &[], "{}", close),
    }
}

/// Decode a `/query` or `/topk` JSON body into a wire request.
fn parse_query_body(body: &[u8], want_k: bool) -> Result<Request, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = Json::parse(text)?;
    let a = v
        .get("a")
        .and_then(Json::as_arr)
        .ok_or("missing \"a\" array")?
        .iter()
        .map(|x| x.as_f64().ok_or("non-numeric coefficient"))
        .collect::<Result<Vec<f64>, _>>()?;
    let cmp = match v.get("cmp").and_then(Json::as_str) {
        Some("leq") => Cmp::Leq,
        Some("geq") => Cmp::Geq,
        _ => return Err("\"cmp\" must be \"leq\" or \"geq\"".into()),
    };
    let b = v.get("b").and_then(Json::as_f64).ok_or("missing \"b\"")?;
    let tenant = v.get("tenant").and_then(Json::as_u64).unwrap_or(0) as u32;
    let deadline_us = v.get("deadline_us").and_then(Json::as_u64).unwrap_or(0) as u32;
    if want_k {
        let k = v.get("k").and_then(Json::as_u64).ok_or("missing \"k\"")? as u32;
        Ok(Request::TopK {
            tenant,
            deadline_us,
            a,
            cmp,
            b,
            k,
        })
    } else {
        Ok(Request::Query {
            tenant,
            deadline_us,
            a,
            cmp,
            b,
        })
    }
}

/// Map a wire response onto HTTP status + JSON body.
fn respond(stream: &mut TcpStream, resp: Response, close: bool) -> io::Result<()> {
    match resp {
        Response::Matches { ids, provenance } => {
            let body = JsonObject::new()
                .field_raw("ids", &json_array(&ids))
                .field_bool("partial", provenance.partial)
                .field_bool("degraded", provenance.degraded)
                .field_u64("completed", provenance.completed as u64)
                .finish();
            write_response(stream, 200, "OK", &[], &body, close)
        }
        Response::Neighbors {
            neighbors,
            provenance,
        } => {
            let nn = json_array(
                neighbors
                    .iter()
                    .map(|(id, d)| json_array([id.to_string(), json_f64(*d)])),
            );
            let body = JsonObject::new()
                .field_raw("neighbors", &nn)
                .field_bool("partial", provenance.partial)
                .field_bool("degraded", provenance.degraded)
                .field_u64("completed", provenance.completed as u64)
                .finish();
            write_response(stream, 200, "OK", &[], &body, close)
        }
        Response::Retry { retry_after_us } => {
            let secs = (retry_after_us as u64).div_ceil(1_000_000).max(1);
            let body = JsonObject::new()
                .field_str("error", "quota exhausted")
                .field_u64("retry_after_us", retry_after_us as u64)
                .finish();
            write_response(
                stream,
                429,
                "Too Many Requests",
                &[("Retry-After", &secs.to_string())],
                &body,
                close,
            )
        }
        Response::Overload { queue_depth } => {
            let body = JsonObject::new()
                .field_str("error", "overloaded")
                .field_u64("queue_depth", queue_depth as u64)
                .finish();
            write_response(stream, 503, "Service Unavailable", &[], &body, close)
        }
        Response::Error { code, message } => {
            let body = JsonObject::new()
                .field_u64("code", code as u64)
                .field_str("error", &message)
                .finish();
            let (status, reason) = if code == error_code::INTERNAL {
                (500, "Internal Server Error")
            } else {
                (400, "Bad Request")
            };
            write_response(stream, status, reason, &[], &body, close)
        }
        Response::Metrics { json } => write_response(stream, 200, "OK", &[], &json, close),
    }
}

fn bad_request(stream: &mut TcpStream, msg: &str, close: bool) -> io::Result<()> {
    let body = JsonObject::new()
        .field_u64("code", error_code::MALFORMED as u64)
        .field_str("error", msg)
        .finish();
    write_response(stream, 400, "Bad Request", &[], &body, close)
}

/// Write one HTTP/1.1 response with a JSON body. `close` adds
/// `Connection: close` — the server stops reading this connection after
/// the write, and the client should too.
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra: &[(&str, &str)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    if close {
        out.push_str("Connection: close\r\n");
    }
    for (name, value) in extra {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}
