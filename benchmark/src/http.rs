//! The load generator: raw HTTP/1.1 exchanges over loopback, closed and open
//! loops, and the server's own numbers read back from `GET /metrics`.
//!
//! A closed loop sends a client's next request when the previous one has
//! completed, so a slow server is offered less load. An open loop sends on a
//! schedule fixed beforehand; each request is timed *from when it was due*,
//! which counts the wait a stall imposes on the requests behind it, and the
//! generator reports how late it ran so that its own delay is not read as the
//! server's.

use rlc_core::Query;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Encodes a query as the compact JSON `POST /query` parses.
pub fn encode_query(query: &Query) -> Vec<u8> {
    let blocks: Vec<String> = query
        .constraint()
        .blocks()
        .iter()
        .map(|block| {
            let labels: Vec<String> = block.iter().map(|l| l.0.to_string()).collect();
            format!("[{}]", labels.join(","))
        })
        .collect();
    format!(
        "{{\"source\":{},\"target\":{},\"constraint\":{{\"blocks\":[{}]}}}}",
        query.source,
        query.target,
        blocks.join(",")
    )
    .into_bytes()
}

/// Encodes `{"queries":[...]}` for `POST /batch`.
pub fn encode_batch(queries: &[Query]) -> Vec<u8> {
    let mut out = b"{\"queries\":[".to_vec();
    for (i, query) in queries.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend(encode_query(query));
    }
    out.extend(b"]}");
    out
}

/// The body `POST /query` must answer with: the envelope rebuilt from direct
/// evaluation.
pub fn query_envelope(answer: bool, generation: u64) -> String {
    format!("{{\"ok\":true,\"answer\":{answer},\"generation\":{generation}}}")
}

/// One request as the client saw it. Times are nanoseconds since the loop's
/// origin; `status` is 0 when the transport failed or the response was cut.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sample {
    /// Position in the operation list.
    pub index: usize,
    /// When the request was due (equals `sent_ns` in a closed loop).
    pub due_ns: u64,
    /// When the client began connecting.
    pub sent_ns: u64,
    /// When the connection was established.
    pub connected_ns: u64,
    /// When the first response byte arrived.
    pub first_byte_ns: u64,
    /// When the response was complete.
    pub done_ns: u64,
    /// HTTP status, 0 for none.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Sample {
    /// Latency as a user sees it: from when the request was due.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// When the `index`-th request of an open loop at `rate_per_s` is due,
/// in nanoseconds after the loop's origin.
pub fn due_ns(index: usize, rate_per_s: u64) -> u64 {
    (index as u128 * 1_000_000_000 / rate_per_s.max(1) as u128) as u64
}

/// Splits a raw response into status and body, requiring the body to be as
/// long as `Content-Length` declares: a cut response is no response.
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let text = std::str::from_utf8(raw).ok()?;
    let status: u16 = text.split(' ').nth(1)?.parse().ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let declared: usize = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })?;
    (body.len() == declared).then(|| (status, body.to_owned()))
}

/// One request on a fresh connection (the server answers one request per
/// connection and closes). `origin` is the loop's time zero.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    origin: Instant,
    index: usize,
    due_ns: Option<u64>,
) -> Sample {
    let stamp = || origin.elapsed().as_nanos() as u64;
    let mut sample = Sample {
        index,
        sent_ns: stamp(),
        ..Sample::default()
    };
    sample.due_ns = due_ns.unwrap_or(sample.sent_ns);
    let mut raw = Vec::with_capacity(256);
    // A read error after the whole response arrived (a reset as the server
    // closes) is not a failed exchange: parse what arrived and let the
    // Content-Length check decide.
    let _ = TcpStream::connect(addr).and_then(|mut stream| {
        sample.connected_ns = stamp();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        stream.write_all(&request)?;
        let mut first = [0u8; 1];
        stream.read_exact(&mut first)?;
        sample.first_byte_ns = stamp();
        raw.push(first[0]);
        stream.read_to_end(&mut raw)
    });
    sample.done_ns = stamp();
    if let Some((status, body)) = parse_response(&raw) {
        sample.status = status;
        sample.body = body;
    }
    sample
}

/// The requests of one loop.
#[derive(Debug)]
pub struct Loop {
    /// One sample per request, in due (open loop) or send (closed loop) order.
    pub samples: Vec<Sample>,
    /// The instant the samples' times count from.
    pub origin: Instant,
    /// Seconds from the origin to the last response.
    pub seconds: f64,
}

/// `POST /query` for each of `indices` into `bodies`, closed loop on
/// `clients` threads (client `c` owns every `clients`-th index).
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    indices: &[usize],
    clients: usize,
) -> Loop {
    let origin = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    indices
                        .iter()
                        .skip(client)
                        .step_by(clients)
                        .map(|&i| exchange(addr, "POST", "/query", &bodies[i], origin, i, None))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread does not panic"))
            .collect()
    });
    let seconds = origin.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.sent_ns);
    Loop {
        samples,
        origin,
        seconds,
    }
}

/// Sleeps until `at`: coarse sleep first, then a short spin, because a bare
/// `sleep` overshoots by tens of microseconds and that would be read as
/// generator lateness.
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let Some(left) = at.checked_duration_since(Instant::now()) else {
            return;
        };
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// `POST /query` for each of `indices` at a fixed `rate_per_s`, open loop:
/// request `j` is due `j / rate` seconds after the origin whatever happened
/// to the requests before it, and a client that is behind sends at once.
/// The `clients` threads take the requests in turn.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    indices: &[usize],
    rate_per_s: u64,
    clients: usize,
) -> Loop {
    let origin = Instant::now() + Duration::from_millis(2);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (j, &i) in indices.iter().enumerate().skip(client).step_by(clients) {
                        let due = due_ns(j, rate_per_s);
                        wait_until(origin + Duration::from_nanos(due));
                        mine.push(exchange(
                            addr,
                            "POST",
                            "/query",
                            &bodies[i],
                            origin,
                            i,
                            Some(due),
                        ));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread does not panic"))
            .collect()
    });
    samples.sort_by_key(|s| s.due_ns);
    Loop {
        samples,
        origin,
        seconds: origin.elapsed().as_secs_f64(),
    }
}

/// The server's numbers at one instant.
#[derive(Debug)]
pub struct ServerMetrics {
    exposition: rlc_obs::expo::Exposition,
}

impl ServerMetrics {
    /// Reads `GET /metrics`.
    pub fn fetch(addr: SocketAddr) -> Result<ServerMetrics, String> {
        let sample = exchange(addr, "GET", "/metrics", b"", Instant::now(), 0, None);
        if sample.status != 200 {
            return Err(format!("GET /metrics answered {}", sample.status));
        }
        Ok(ServerMetrics {
            exposition: rlc_obs::expo::parse(&sample.body)?,
        })
    }

    /// An unlabelled counter or gauge, 0 when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.exposition.value(name).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_graph::Label;

    #[test]
    fn queries_encode_as_the_server_parses_them() {
        let q = Query::concat(3, 9, vec![vec![Label(0)], vec![Label(2), Label(1)]]).unwrap();
        assert_eq!(
            String::from_utf8(encode_query(&q)).unwrap(),
            r#"{"source":3,"target":9,"constraint":{"blocks":[[0],[2,1]]}}"#
        );
        let parsed: Query =
            serde_json::from_str(std::str::from_utf8(&encode_query(&q)).unwrap()).unwrap();
        assert_eq!(parsed, q);
        let batch = String::from_utf8(encode_batch(&[q.clone(), q])).unwrap();
        assert!(batch.starts_with(r#"{"queries":[{"source":3"#) && batch.ends_with("[2,1]]}}]}"));
        assert_eq!(
            query_envelope(true, 7),
            r#"{"ok":true,"answer":true,"generation":7}"#
        );
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_and_lateness_is_separate() {
        // 500 requests a second: one every 2 ms.
        assert_eq!(due_ns(0, 500), 0);
        assert_eq!(due_ns(1, 500), 2_000_000);
        assert_eq!(due_ns(250, 500), 500_000_000);
        // The generator sent request 1 0.3 ms late and the server took 1 ms:
        // the user waited 1.3 ms, of which 0.3 ms is the generator's.
        let late = Sample {
            index: 1,
            due_ns: 2_000_000,
            sent_ns: 2_300_000,
            done_ns: 3_300_000,
            ..Sample::default()
        };
        assert_eq!(late.latency_ns(), 1_300_000);
        assert_eq!(late.late_ns(), 300_000);
        // A stall: request 2 was due at 4 ms but its client was stuck until
        // 9 ms. Timing from the send would hide the 5 ms the stall cost.
        let stalled = Sample {
            index: 2,
            due_ns: 4_000_000,
            sent_ns: 9_000_000,
            done_ns: 10_000_000,
            ..Sample::default()
        };
        assert_eq!(stalled.latency_ns(), 6_000_000);
        assert_eq!(stalled.late_ns(), 5_000_000);
        // A closed-loop sample is due when it is sent: never late.
        let closed = Sample {
            due_ns: 5,
            sent_ns: 5,
            done_ns: 9,
            ..Sample::default()
        };
        assert_eq!((closed.latency_ns(), closed.late_ns()), (4, 0));
    }

    #[test]
    fn responses_must_be_complete() {
        let ok =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_response(ok), Some((200, "{}".to_owned())));
        let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}";
        assert_eq!(parse_response(cut), None);
        assert_eq!(parse_response(b""), None);
        let shed = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        assert_eq!(parse_response(shed), Some((503, String::new())));
    }
}
