//! Hand-rolled HTTP/1.1: bounded request reading and response writing.
//!
//! The parser speaks exactly the subset the service needs — one request
//! per connection (`Connection: close` on every response), methods and
//! paths as opaque tokens, and `Content-Length`-delimited bodies — and
//! treats the peer as hostile the way the binary decoders treat blobs:
//!
//! * the head (request line + headers) may not exceed
//!   [`crate::ServeConfig::max_header_bytes`];
//! * the declared `Content-Length` is bounded through the same
//!   division-form [`checked_len`] used by the `RLC3`/`RSH1` decoders
//!   before a single body byte is believed;
//! * reading runs against an **absolute deadline** — a slow-loris client
//!   trickling one byte per poll still hits the cutoff, because each
//!   `read` gets only the remaining budget, not a fresh timeout.
//!
//! The shed responses ([`SHED_OVERLOAD`], [`DEADLINE_EXCEEDED`], …) are
//! preformatted `&'static` byte strings written by [`write_static_response`]
//! with no per-request allocation: an overloaded server must be able to say
//! "go away" without asking the allocator for anything (the
//! `crates/serve/tests/shed_alloc.rs` test proves this with a counting
//! global allocator, not a heuristic).

use rlc_graph::checked_len;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Bounds under which [`read_request`] trusts the wire.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Cap on the request line + headers.
    pub max_header_bytes: usize,
    /// Cap on the declared `Content-Length`.
    pub max_body_bytes: usize,
    /// Absolute budget for reading the whole request.
    pub read_deadline: Duration,
}

/// One parsed request. The method and path are kept as raw tokens; routing
/// matches them exactly.
#[derive(Debug)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path (`/query`, …), as sent.
    pub path: String,
    /// The `Content-Length`-delimited body (empty when the header is
    /// absent).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Each variant maps to exactly one
/// response (or, for [`HttpError::Disconnected`], to none).
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or body framing → `400`.
    BadRequest(String),
    /// Head exceeded [`HttpLimits::max_header_bytes`] → `431`.
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded [`HttpLimits::max_body_bytes`]
    /// → `413`.
    BodyTooLarge,
    /// The read deadline expired before the request arrived → `408`.
    Timeout,
    /// The peer vanished (clean close or reset); nothing to answer.
    Disconnected,
}

/// Reads one request from `stream` under `limits`.
pub fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<HttpRequest, HttpError> {
    let deadline = Instant::now() + limits.read_deadline;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        read_some(stream, &mut buf, deadline)?;
    };

    let (method, path, content_length) = parse_head(&buf[..head_end], limits)?;

    let mut body = buf.split_off(head_end + 4);
    while body.len() < content_length {
        read_some(stream, &mut body, deadline)?;
    }
    if body.len() > content_length {
        // One request per connection: trailing bytes are either framing
        // corruption or an attempt to pipeline, both rejected.
        return Err(HttpError::BadRequest(
            "request body exceeds its declared content-length".to_owned(),
        ));
    }
    Ok(HttpRequest { method, path, body })
}

/// Position of the `\r\n\r\n` head terminator, if fully buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One bounded read: the socket timeout is set to the *remaining* budget,
/// so repeated slow reads cannot extend the absolute deadline.
fn read_some(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    deadline: Instant,
) -> Result<(), HttpError> {
    let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
        return Err(HttpError::Timeout);
    };
    // `set_read_timeout(Some(0))` is an error by contract; clamp up.
    let timeout = remaining.max(Duration::from_millis(1));
    if stream.set_read_timeout(Some(timeout)).is_err() {
        return Err(HttpError::Disconnected);
    }
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Err(HttpError::Disconnected),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Err(HttpError::Timeout)
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
        Err(_) => Err(HttpError::Disconnected),
    }
}

/// Parses the request line and headers; returns the bounded body length.
fn parse_head(head: &[u8], limits: &HttpLimits) -> Result<(String, String, usize), HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::BadRequest("request head is not valid UTF-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header line {line:?}"
            )));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| {
                HttpError::BadRequest(format!("unparseable content-length {:?}", value.trim()))
            })?;
        }
    }
    // The same overflow-immune bound the binary decoders use: believe the
    // declared length only if `content_length * 1 ≤ max_body_bytes`.
    checked_len(content_length, 1, limits.max_body_bytes).map_err(|_| HttpError::BodyTooLarge)?;
    Ok((method.to_owned(), path.to_owned(), content_length))
}

/// Writes a response with the given status, reason, content type, and body.
/// Every response closes the connection (`Connection: close`).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// How long a shed write may block on a slow peer before the connection is
/// abandoned — an unread 503 must not pin a listener or worker.
const STATIC_WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// Preformatted `503 Service Unavailable` + `Retry-After` for queue-full
/// shedding. `&'static`, complete with framing: writing it allocates
/// nothing.
pub static SHED_OVERLOAD: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Type: application/json\r\nContent-Length: 40\r\nConnection: close\r\n\r\n{\"ok\":false,\"error\":\"server overloaded\"}";

/// Preformatted `504 Gateway Timeout` for requests that missed their
/// deadline.
pub static DEADLINE_EXCEEDED: &[u8] = b"HTTP/1.1 504 Gateway Timeout\r\nContent-Type: application/json\r\nContent-Length: 40\r\nConnection: close\r\n\r\n{\"ok\":false,\"error\":\"deadline exceeded\"}";

/// Preformatted `408 Request Timeout` for slow-loris reads.
pub static REQUEST_TIMEOUT: &[u8] = b"HTTP/1.1 408 Request Timeout\r\nContent-Type: application/json\r\nContent-Length: 38\r\nConnection: close\r\n\r\n{\"ok\":false,\"error\":\"request timeout\"}";

/// Preformatted `431` for heads over [`HttpLimits::max_header_bytes`].
pub static HEADERS_TOO_LARGE: &[u8] = b"HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Type: application/json\r\nContent-Length: 40\r\nConnection: close\r\n\r\n{\"ok\":false,\"error\":\"headers too large\"}";

/// Preformatted `413` for bodies over [`HttpLimits::max_body_bytes`].
pub static BODY_TOO_LARGE: &[u8] = b"HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\nContent-Length: 37\r\nConnection: close\r\n\r\n{\"ok\":false,\"error\":\"body too large\"}";

/// Writes a preformatted response without allocating: a socket-option
/// syscall plus `write_all` of a `&'static` buffer. Failures are swallowed
/// — the peer of a shed response gets best-effort service by definition.
pub fn write_static_response(stream: &mut TcpStream, response: &'static [u8]) {
    let _ = stream.set_write_timeout(Some(STATIC_WRITE_TIMEOUT));
    let _ = stream.write_all(response);
}

/// How long a shed may wait to empty the peer's already-sent bytes.
const SHED_DRAIN_TIMEOUT: Duration = Duration::from_millis(5);

/// Sheds a connection whose request was never read: writes the
/// preformatted response, then empties what the peer already sent (one
/// bounded stack-buffer read). Closing a socket with unread received data
/// sends RST instead of FIN, and an RST can discard the shed response
/// still in flight — the drain makes the common small-request case close
/// cleanly. Allocation-free like [`write_static_response`].
pub fn drain_and_shed(stream: &mut TcpStream, response: &'static [u8]) {
    write_static_response(stream, response);
    let mut scratch = [0u8; 1024];
    let _ = stream.set_read_timeout(Some(SHED_DRAIN_TIMEOUT));
    let _ = stream.read(&mut scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits a preformatted response into (status line, headers, body).
    fn parse_static(response: &'static [u8]) -> (String, Vec<(String, String)>, Vec<u8>) {
        let pos = find_head_end(response).expect("static response has a head terminator");
        let head = std::str::from_utf8(&response[..pos]).expect("head is UTF-8");
        let mut lines = head.split("\r\n");
        let status = lines.next().expect("status line").to_owned();
        let headers = lines
            .map(|l| {
                let (name, value) = l.split_once(':').expect("header line");
                (name.trim().to_owned(), value.trim().to_owned())
            })
            .collect();
        (status, headers, response[pos + 4..].to_vec())
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> &'a str {
        headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
            .expect("header present")
    }

    #[test]
    fn static_responses_are_internally_consistent() {
        // The preformatted responses hand-count their Content-Length; this
        // pins the counts (and the framing) so an edit cannot desync them.
        for (response, status_prefix) in [
            (SHED_OVERLOAD, "HTTP/1.1 503 "),
            (DEADLINE_EXCEEDED, "HTTP/1.1 504 "),
            (REQUEST_TIMEOUT, "HTTP/1.1 408 "),
            (HEADERS_TOO_LARGE, "HTTP/1.1 431 "),
            (BODY_TOO_LARGE, "HTTP/1.1 413 "),
        ] {
            let (status, headers, body) = parse_static(response);
            assert!(status.starts_with(status_prefix), "{status}");
            let declared: usize = header(&headers, "content-length").parse().unwrap();
            assert_eq!(declared, body.len(), "{status}: content-length matches");
            assert_eq!(header(&headers, "connection"), "close", "{status}");
            let body = String::from_utf8(body).unwrap();
            assert!(body.starts_with("{\"ok\":false,"), "{status}: {body}");
            assert!(body.ends_with('}'), "{status}: JSON body");
        }
        let (_, headers, _) = parse_static(SHED_OVERLOAD);
        assert_eq!(header(&headers, "retry-after"), "1", "503 asks to back off");
    }

    #[test]
    fn head_terminator_is_found_only_when_complete() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn parse_head_accepts_a_minimal_post() {
        let limits = HttpLimits {
            max_header_bytes: 1024,
            max_body_bytes: 1024,
            read_deadline: Duration::from_secs(1),
        };
        let head = b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 12";
        let (method, path, len) = parse_head(head, &limits).unwrap();
        assert_eq!(
            (method.as_str(), path.as_str(), len),
            ("POST", "/query", 12)
        );
    }

    #[test]
    fn parse_head_rejects_hostile_shapes() {
        let limits = HttpLimits {
            max_header_bytes: 1024,
            max_body_bytes: 100,
            read_deadline: Duration::from_secs(1),
        };
        // Oversized declared body: bounded before any byte is read.
        assert!(matches!(
            parse_head(b"POST / HTTP/1.1\r\nContent-Length: 101", &limits),
            Err(HttpError::BodyTooLarge)
        ));
        // Absurd declared body: the division-form bound cannot overflow.
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}", u64::MAX);
        assert!(matches!(
            parse_head(huge.as_bytes(), &limits),
            Err(HttpError::BadRequest(_)) | Err(HttpError::BodyTooLarge)
        ));
        for bad in [
            &b"GARBAGE"[..],
            b"GET  HTTP/1.1",
            b"GET / HTTP/9.9",
            b"GET / HTTP/1.1 extra",
            b"POST / HTTP/1.1\r\nContent-Length: nope",
            b"POST / HTTP/1.1\r\nno-colon-here",
            b"GET noslash HTTP/1.1",
        ] {
            assert!(
                matches!(parse_head(bad, &limits), Err(HttpError::BadRequest(_))),
                "{:?} must be rejected",
                String::from_utf8_lossy(bad)
            );
        }
    }
}
