//! End-to-end tests of `rlc-serve` over real loopback TCP.
//!
//! Each test boots a server on an ephemeral port and speaks raw HTTP/1.1
//! from scratch — the client below shares no code with the server's parser,
//! so framing bugs cannot cancel out.
//!
//! The hot-reload test is the acceptance proof for the swap design: under
//! concurrent load, every response across a `POST /admin/reload` must be
//! well-formed, correct *for the generation it is stamped with*, and
//! stamped with either the old or the new generation — zero failed
//! requests, zero stale answers (an answer computed on one index but
//! stamped with the other would show up as a probe inconsistency).

use rlc::prelude::*;
use rlc::serve::{Epoch, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fig2() -> Arc<LabeledGraph> {
    Arc::new(rlc::graph::examples::fig2_graph())
}

/// Boots a default-config server over a fresh k-index of Fig. 2.
fn boot(k: usize) -> (Arc<LabeledGraph>, Server) {
    let graph = fig2();
    let (index, _) = build_index(&graph, &BuildConfig::new(k));
    let server = Server::start(
        ServeConfig::default(),
        Epoch::rlc(Arc::clone(&graph), index),
    )
    .expect("server boots on an ephemeral port");
    (graph, server)
}

/// One raw HTTP exchange: connect, write, read to EOF, split the response.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let raw = exchange_raw(addr, method, path, body).expect("request succeeds");
    parse_response(&raw).expect("response parses")
}

/// Like [`exchange`] but surfacing transport errors instead of panicking.
///
/// A server may answer and close before it has read everything sent (a shed
/// `503`, an oversized body), and the close can reset the connection. So a
/// failed write or read is an error only when no response byte arrived;
/// otherwise the bytes are returned and [`parse_response`] judges them.
fn exchange_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let sent = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body));
    let mut response = Vec::new();
    let read = stream.read_to_end(&mut response);
    if response.is_empty() {
        sent?;
        read?;
    }
    Ok(response)
}

/// Splits a raw response into (status, body). `None` on malformed, empty,
/// or truncated responses: the body must be exactly as long as the declared
/// `Content-Length`.
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let text = std::str::from_utf8(raw).ok()?;
    let status: u16 = text.split(' ').nth(1)?.parse().ok()?;
    let head_end = text.find("\r\n\r\n")?;
    let (head, body) = (&text[..head_end], &text[head_end + 4..]);
    let declared: usize = head
        .lines()
        .find_map(|line| {
            let lower = line.to_ascii_lowercase();
            lower
                .strip_prefix("content-length:")
                .map(|value| value.trim().to_owned())
        })?
        .parse()
        .ok()?;
    (body.len() == declared).then(|| (status, body.to_owned()))
}

/// Extracts `"key":<u64>` from a compact JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn query_body(source: u32, target: u32, labels: &[u16]) -> Vec<u8> {
    let blocks: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
    format!(
        "{{\"source\":{source},\"target\":{target},\"constraint\":{{\"blocks\":[[{}]]}}}}",
        blocks.join(",")
    )
    .into_bytes()
}

#[test]
fn single_queries_answer_like_the_direct_engine() {
    let (graph, server) = boot(2);
    let addr = server.addr();
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let engine = IndexEngine::new(&graph, &index);
    let generation = server.slot().generation_value();
    for source in 0..6u32 {
        for target in 0..6u32 {
            let expected = engine
                .evaluate(&Query::rlc(source, target, vec![Label(1)]).unwrap())
                .unwrap();
            let (status, body) =
                exchange(addr, "POST", "/query", &query_body(source, target, &[1]));
            assert_eq!(status, 200, "{body}");
            assert!(
                body.contains(&format!("\"answer\":{expected}")),
                "({source},{target}): served answer must equal direct evaluation, got {body}"
            );
            assert_eq!(json_u64(&body, "generation"), Some(generation));
        }
    }
    server.shutdown();
}

#[test]
fn batches_constraint_errors_and_malformed_requests_map_to_envelopes() {
    let (graph, server) = boot(2);
    let addr = server.addr();

    // A batch mixing answers and a per-query rejection.
    let batch = format!(
        "{{\"queries\":[{},{},{}]}}",
        String::from_utf8(query_body(0, 5, &[1])).unwrap(),
        String::from_utf8(query_body(5, 0, &[1])).unwrap(),
        String::from_utf8(query_body(0, 5, &[0, 1, 2])).unwrap(), // len 3 > k = 2
    );
    let (status, body) = exchange(addr, "POST", "/batch", batch.as_bytes());
    assert_eq!(status, 200, "{body}");
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let engine = IndexEngine::new(&graph, &index);
    let a0 = engine
        .evaluate(&Query::rlc(0, 5, vec![Label(1)]).unwrap())
        .unwrap();
    let a1 = engine
        .evaluate(&Query::rlc(5, 0, vec![Label(1)]).unwrap())
        .unwrap();
    assert!(
        body.contains(&format!("\"answers\":[{a0},{a1},{{\"error\":")),
        "answers in submission order with the rejection in-place: {body}"
    );

    // A single query with a rejected constraint: 400 + rendered QueryError.
    let (status, body) = exchange(addr, "POST", "/query", &query_body(0, 5, &[0, 1, 2]));
    assert_eq!(status, 400);
    assert!(body.contains("\"ok\":false"), "{body}");
    assert!(
        body.contains("supports k = 2"),
        "rendered QueryError: {body}"
    );
    assert!(
        json_u64(&body, "generation").is_some(),
        "rejections are stamped too: {body}"
    );

    // Malformed JSON, wrong shapes, unknown routes, wrong methods.
    let (status, body) = exchange(addr, "POST", "/query", b"{\"source\":0");
    assert_eq!(status, 400, "{body}");
    let (status, _) = exchange(addr, "POST", "/query", b"{\"source\":0,\"target\":1}");
    assert_eq!(status, 400, "missing constraint field");
    let (status, _) = exchange(addr, "POST", "/batch", b"{\"nope\":[]}");
    assert_eq!(status, 400);
    let (status, body) = exchange(addr, "GET", "/nope", b"");
    assert_eq!(status, 404, "{body}");
    let (status, body) = exchange(addr, "GET", "/query", b"");
    assert_eq!(status, 405, "{body}");

    // Health and metrics.
    let (status, body) = exchange(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "{body}");
    let (status, body) = exchange(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(body.contains("rlc_serve_ok_total "), "{body}");
    let expo = rlc::obs::expo::parse(&body).expect("the exposition parses");
    assert!(
        expo.families
            .keys()
            .all(|family| !family.starts_with("plan_cache_")),
        "serve runs no plan cache, so it exports no plan_cache_ family: {body}"
    );
    server.shutdown();
}

#[test]
fn oversized_and_slow_requests_are_bounded() {
    let graph = fig2();
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let config = ServeConfig {
        max_body_bytes: 256,
        max_header_bytes: 512,
        read_deadline: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::start(config, Epoch::rlc(Arc::clone(&graph), index)).unwrap();
    let addr = server.addr();

    // Declared body over the cap: rejected from the Content-Length alone.
    let (status, body) = exchange(addr, "POST", "/query", &vec![b'x'; 300]);
    assert_eq!(status, 413, "{body}");

    // Head over the cap.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n", "y".repeat(600)).as_bytes())
        .unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let (status, _) = parse_response(&response).expect("431 response");
    assert_eq!(status, 431);

    // Slow-loris: trickle and stall; the absolute read deadline answers 408.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"POST /query HTTP/1.1\r\n").unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let (status, _) = parse_response(&response).expect("408 response");
    assert_eq!(status, 408);

    // A valid request still works under the tightened limits.
    let (status, _) = exchange(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn hostile_json_nesting_is_a_400_not_a_crash() {
    // A megabyte of `[` is within the default body cap. The parser must
    // refuse it by depth: recursing once per byte would overflow the
    // worker's stack, and a stack overflow aborts the whole process.
    let (_graph, server) = boot(2);
    let addr = server.addr();
    let hostile = vec![b'['; 1 << 20];
    let (status, body) = exchange(addr, "POST", "/query", &hostile);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");
    let (status, body) = exchange(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200, "the server survived: {body}");
    server.shutdown();
}

#[test]
fn missed_deadlines_answer_504_not_silence() {
    let graph = fig2();
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let config = ServeConfig {
        // The batch window alone exceeds the request budget: every single
        // query must come back as a preformatted 504.
        request_deadline: Duration::from_millis(20),
        batch_window: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::start(config, Epoch::rlc(Arc::clone(&graph), index)).unwrap();
    let addr = server.addr();
    let (status, body) = exchange(addr, "POST", "/query", &query_body(0, 5, &[1]));
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline exceeded"), "{body}");
    assert!(server.metrics().get(rlc::serve::Counter::Deadline504) >= 1);
    server.shutdown();
}

#[test]
fn overload_sheds_503s_within_the_queue_bound_and_answers_what_it_admits() {
    // A deliberately tiny server (one worker, four queue slots, a 20 ms
    // batch window) answers about one request per window, so a burst of
    // concurrent single queries must overflow the admission queue. The
    // overflow is shed at the accept loop with the preformatted 503, the
    // queue never grows past its structural bound, and every request that
    // was admitted is still answered exactly like the direct engine.
    const REQUESTS: u32 = 40;
    let graph = fig2();
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let config = ServeConfig {
        threads: 1,
        queue_depth: 4,
        batch_window: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let server = Server::start(config, Epoch::rlc(Arc::clone(&graph), index)).unwrap();
    let addr = server.addr();
    let pair = |i: u32| (i % 6, (i / 6) % 6);

    let responses: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..REQUESTS)
            .map(|i| {
                scope.spawn(move || {
                    let (source, target) = pair(i);
                    exchange_raw(addr, "POST", "/query", &query_body(source, target, &[1]))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });

    let (direct, _) = build_index(&graph, &BuildConfig::new(2));
    let engine = IndexEngine::new(&graph, &direct);
    let mut shed = 0u64;
    for (i, response) in (0..REQUESTS).zip(responses) {
        let raw = response.unwrap_or_else(|error| panic!("request {i} got no response: {error}"));
        let (status, body) = parse_response(&raw)
            .unwrap_or_else(|| panic!("request {i}: incomplete response {raw:?}"));
        match status {
            200 => {
                let (source, target) = pair(i);
                let expected = engine
                    .evaluate(&Query::rlc(source, target, vec![Label(1)]).unwrap())
                    .unwrap();
                assert!(
                    body.contains(&format!("\"answer\":{expected}")),
                    "({source},{target}): an admitted request must be answered like the \
                     direct engine, got {body}"
                );
            }
            503 => shed += 1,
            504 => {}
            other => panic!("request {i}: only 200/503/504 may appear, got {other}: {body}"),
        }
    }
    assert!(
        shed > 0,
        "{REQUESTS} concurrent requests must overflow the queue"
    );
    assert_eq!(
        server.metrics().get(rlc::serve::Counter::Shed503),
        shed,
        "every 503 seen was counted as a shed, and no other"
    );
    let bound = (config.queue_depth + config.threads + 1) as u64;
    let high_water = server.metrics().queue_depth_max();
    assert!(
        high_water <= bound,
        "queue high-water {high_water} exceeds the structural bound {bound}"
    );
    server.shutdown();
}

#[test]
fn hot_reload_under_concurrent_load_drops_and_stales_nothing() {
    let (graph, server) = boot(2);
    let addr = server.addr();
    let gen_old = server.slot().generation_value();

    // The valid stream's expected answer is identical under both indexes
    // (k only gates constraint length); the probe constraint [0,1,2] flips
    // outcome: k = 2 rejects it (400), k = 3 answers it (200).
    let (direct, _) = build_index(&graph, &BuildConfig::new(2));
    let expected = IndexEngine::new(&graph, &direct)
        .evaluate(&Query::rlc(0, 5, vec![Label(1)]).unwrap())
        .unwrap();

    // Per client thread: (probing, responses, transport failures).
    type ClientOutcome = (bool, Vec<(u16, String)>, usize);
    let stop = Arc::new(AtomicBool::new(false));
    let outcome = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for worker in 0..4 {
            let stop = Arc::clone(&stop);
            let probing = worker % 2 == 1;
            clients.push(scope.spawn(move || {
                // Returns (responses, transport_failures, generations seen).
                let mut responses = Vec::new();
                let mut failures = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let body = if probing {
                        query_body(0, 5, &[0, 1, 2])
                    } else {
                        query_body(0, 5, &[1])
                    };
                    match exchange_raw(addr, "POST", "/query", &body) {
                        Ok(raw) => match parse_response(&raw) {
                            Some(parsed) => responses.push(parsed),
                            None => failures += 1,
                        },
                        Err(_) => failures += 1,
                    }
                }
                (probing, responses, failures)
            }));
        }

        // Let load build, then swap to k = 3 mid-flight over HTTP.
        std::thread::sleep(Duration::from_millis(50));
        let (k3, _) = build_index(&graph, &BuildConfig::new(3));
        let blob = k3.to_bytes();
        let (status, body) = exchange(addr, "POST", "/admin/reload", &blob);
        assert_eq!(status, 200, "reload must succeed: {body}");
        let gen_new = json_u64(&body, "generation").expect("reload reports the new stamp");
        assert_ne!(gen_new, gen_old);
        // Keep the load running past the swap so both generations appear.
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::SeqCst);

        let mut all: Vec<ClientOutcome> = Vec::new();
        for client in clients {
            all.push(client.join().expect("client thread"));
        }
        (gen_new, all)
    });
    let (gen_new, all) = outcome;

    let mut total = 0usize;
    let mut saw_new = false;
    for (probing, responses, failures) in &all {
        assert_eq!(*failures, 0, "zero failed requests across the swap");
        for (status, body) in responses {
            total += 1;
            let generation =
                json_u64(body, "generation").unwrap_or_else(|| panic!("unstamped: {body}"));
            assert!(
                generation == gen_old || generation == gen_new,
                "generation {generation} is neither epoch: {body}"
            );
            saw_new |= generation == gen_new;
            if *probing {
                // The probe's outcome must match its stamp — a 200 stamped
                // old or a 400 stamped new would be a stale/torn answer.
                if generation == gen_old {
                    assert_eq!(*status, 400, "k=2 rejects the probe: {body}");
                } else {
                    assert_eq!(*status, 200, "k=3 answers the probe: {body}");
                    assert!(body.contains("\"answer\":"), "{body}");
                }
            } else {
                assert_eq!(*status, 200, "valid stream never fails: {body}");
                assert!(
                    body.contains(&format!("\"answer\":{expected}")),
                    "wrong answer during swap: {body}"
                );
            }
        }
    }
    assert!(total > 0, "the load generator actually ran");
    assert!(saw_new, "responses after the swap carry the new stamp");

    // The swap is complete: a fresh request must serve the new generation.
    let (status, body) = exchange(addr, "POST", "/query", &query_body(0, 5, &[1]));
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "generation"), Some(gen_new));
    server.shutdown();
}

#[test]
fn reload_swaps_in_an_rlc3_blob() {
    let (graph, server) = boot(2);
    let addr = server.addr();
    let gen_old = server.slot().generation_value();
    let (k3, _) = build_index(&graph, &BuildConfig::new(3));
    let blob = k3.to_bytes();
    assert_eq!(&blob[..4], b"3CLR", "little-endian \"RLC3\" magic");
    let (status, body) = exchange(addr, "POST", "/admin/reload", &blob);
    assert_eq!(status, 200, "reload must succeed: {body}");
    let gen_new = json_u64(&body, "generation").expect("reload reports the new stamp");
    assert_ne!(gen_new, gen_old);
    // The reloaded index serves: a three-label constraint only k = 3 takes,
    // answered like the index the blob came from.
    let expected = IndexEngine::new(&graph, &k3)
        .evaluate(&Query::rlc(0, 5, vec![Label(0), Label(1), Label(2)]).unwrap())
        .unwrap();
    let (status, body) = exchange(addr, "POST", "/query", &query_body(0, 5, &[0, 1, 2]));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&format!("\"answer\":{expected}")), "{body}");
    assert_eq!(json_u64(&body, "generation"), Some(gen_new));
    server.shutdown();
}

#[test]
fn reload_refuses_retired_formats_with_a_version_error() {
    let (graph, server) = boot(2);
    let addr = server.addr();
    let gen_old = server.slot().generation_value();
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    for (magic, version) in [(b"2CLR", "version 2"), (b"1CLR", "version 1")] {
        let mut blob = index.to_bytes();
        blob[..4].copy_from_slice(magic);
        let (status, body) = exchange(addr, "POST", "/admin/reload", &blob);
        assert_eq!(status, 400, "a retired format is a client error: {body}");
        assert!(
            body.contains(version),
            "the index loader's own version error is served: {body}"
        );
    }
    assert!(server.metrics().get(rlc::serve::Counter::ReloadFailures) >= 2);
    // Nothing was swapped and the server still answers on the old epoch.
    let (status, body) = exchange(addr, "POST", "/query", &query_body(0, 5, &[1]));
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "generation"), Some(gen_old));
    server.shutdown();
}

/// Minimal structural JSON validator — objects, arrays, strings, numbers,
/// literals — enough to prove a served body is well-formed JSON without a
/// JSON dependency in the test (the client must share no code with the
/// server's renderer).
fn json_is_well_formed(text: &str) -> bool {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    fn string(b: &[u8], i: usize) -> Option<usize> {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let mut i = i + 1;
        while i < b.len() {
            match b[i] {
                b'\\' => i += 2,
                b'"' => return Some(i + 1),
                _ => i += 1,
            }
        }
        None
    }
    fn value(b: &[u8], i: usize) -> Option<usize> {
        let i = skip_ws(b, i);
        match b.get(i)? {
            b'{' => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Some(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return None;
                    }
                    i = value(b, i + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i)? {
                        b',' => i += 1,
                        b'}' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'[' => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Some(i + 1);
                }
                loop {
                    i = value(b, i)?;
                    i = skip_ws(b, i);
                    match b.get(i)? {
                        b',' => i += 1,
                        b']' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'"' => string(b, i),
            b't' => b[i..].starts_with(b"true").then(|| i + 4),
            b'f' => b[i..].starts_with(b"false").then(|| i + 5),
            b'n' => b[i..].starts_with(b"null").then(|| i + 4),
            _ => {
                let start = i;
                let mut i = i;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                (i > start).then_some(i)
            }
        }
    }
    let b = text.as_bytes();
    value(b, 0).map(|end| skip_ws(b, end) == b.len()) == Some(true)
}

#[test]
fn metrics_exposition_parses_with_cumulative_histograms() {
    // The observability acceptance half for `/metrics`: after real traffic,
    // the document must survive the strict exposition parser (every family
    // declared exactly once, every histogram with cumulative buckets, a
    // `+Inf` terminal, and a matching `_count`), serve at least three
    // histogram families, and the request histogram must have counted the
    // traffic we just sent.
    let (_graph, server) = boot(2);
    let addr = server.addr();
    for i in 0..4u32 {
        let (status, _) = exchange(
            addr,
            "POST",
            "/query",
            &query_body(i % 6, (i + 3) % 6, &[1]),
        );
        assert_eq!(status, 200);
    }
    let batch = format!(
        "{{\"queries\":[{}]}}",
        String::from_utf8(query_body(0, 5, &[1])).unwrap()
    );
    let (status, _) = exchange(addr, "POST", "/batch", batch.as_bytes());
    assert_eq!(status, 200);

    let (status, text) = exchange(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let expo = rlc::obs::expo::parse(&text)
        .unwrap_or_else(|error| panic!("the exposition must parse: {error}\n{text}"));

    let histograms = expo.histogram_families();
    assert!(
        histograms.len() >= 3,
        "at least three histogram families, got {histograms:?}"
    );
    for family in [
        "rlc_serve_request_seconds",
        "rlc_serve_queue_wait_seconds",
        "rlc_serve_parse_seconds",
        "rlc_serve_execute_seconds",
        "rlc_serve_write_seconds",
    ] {
        assert!(histograms.contains(&family), "missing family {family}");
    }
    // The gauges promised by the satellite: generation and resident index
    // bytes.
    assert_eq!(
        expo.families
            .get("rlc_serve_index_bytes")
            .map(String::as_str),
        Some("gauge")
    );
    assert!(expo.value("rlc_serve_generation").is_some());
    let index_bytes = expo
        .samples
        .iter()
        .find(|s| s.name == "rlc_serve_index_bytes")
        .expect("index footprint gauge");
    assert!(index_bytes.value > 0.0, "the index is resident");
    assert!(
        index_bytes
            .labels
            .iter()
            .any(|(k, v)| k == "kind" && v == "rlc"),
        "the footprint gauge names the epoch kind"
    );
    // The request histogram really observed the five requests above.
    let query_count = expo
        .samples
        .iter()
        .find(|s| {
            s.name == "rlc_serve_request_seconds_count"
                && s.labels.iter().any(|(k, v)| k == "route" && v == "query")
        })
        .map(|s| s.value)
        .unwrap_or(0.0);
    assert!(query_count >= 4.0, "route=query counted {query_count}");
    server.shutdown();
}

#[test]
fn admin_explain_serves_trace_trees_through_the_sharded_stitcher() {
    // The EXPLAIN acceptance: a server over a two-shard hash-partitioned
    // epoch with every batch sampled must (a) answer exactly like an
    // unsharded engine and (b) serve, on `GET /admin/explain`, a valid
    // JSON tree per sampled batch whose query nodes carry their constraint
    // group, the shard route (with cross-shard pairs really routed through
    // the stitcher), and the per-phase wall-clock.
    use rlc::shard::{ShardBuildConfig, ShardedIndex};

    let graph = fig2();
    let shard_config =
        ShardBuildConfig::new(2, 2).with_strategy(PartitionStrategy::Hash { seed: 5 });
    let (sharded, _) = ShardedIndex::build(&graph, &shard_config).unwrap();
    assert!(
        !sharded.cut_edges().is_empty(),
        "the hash split must cut Fig. 2 so stitched routes exist"
    );
    let server = Server::start(
        ServeConfig {
            explain_capacity: 64,
            explain_sample: 1,
            ..ServeConfig::default()
        },
        Epoch::sharded(Arc::clone(&graph), sharded),
    )
    .unwrap();
    let addr = server.addr();

    // Tracing every batch must not change a single answer.
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let engine = IndexEngine::new(&graph, &index);
    for source in 0..6u32 {
        for target in 0..6u32 {
            let expected = engine
                .evaluate(&Query::rlc(source, target, vec![Label(1)]).unwrap())
                .unwrap();
            let (status, body) =
                exchange(addr, "POST", "/query", &query_body(source, target, &[1]));
            assert_eq!(status, 200, "{body}");
            assert!(
                body.contains(&format!("\"answer\":{expected}")),
                "({source},{target}): traced sharded answer must equal direct evaluation: {body}"
            );
        }
    }

    // An unparseable `last` is a 400, not a guess.
    let (status, _) = exchange(addr, "GET", "/admin/explain?last=bogus", b"");
    assert_eq!(status, 400);

    let (status, body) = exchange(addr, "GET", "/admin/explain?last=64", b"");
    assert_eq!(status, 200, "{body}");
    assert!(
        json_is_well_formed(&body),
        "the explain body must be valid JSON: {body}"
    );
    assert!(body.starts_with("{\"ok\":true,\"count\":"), "{body}");
    assert!(body.contains("\"name\":\"batch\""), "{body}");
    assert!(
        body.contains("\"origin\":\"microbatch\""),
        "traces come from the sampled micro-batcher: {body}"
    );
    assert!(body.contains("\"generation\":"), "{body}");
    for phase in ["prepare_ns", "execute_ns", "scatter_ns"] {
        assert!(
            body.contains(&format!("\"{phase}\":")),
            "per-phase timing {phase} missing: {body}"
        );
    }
    let query_nodes = body.matches("\"name\":\"query\"").count();
    assert!(query_nodes > 0, "{body}");
    for key in ["group", "group_size", "batch_index"] {
        assert_eq!(
            body.matches(&format!("\"{key}\":\"")).count(),
            query_nodes,
            "every explained query node carries {key}: {body}"
        );
    }
    assert!(
        body.contains("\"route\":\"stitched\""),
        "a cross-shard pair must be routed through the stitcher: {body}"
    );
    assert!(
        body.contains("\"route\":\"local\""),
        "a same-shard pair must take the local fast path: {body}"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_everything_admitted() {
    let graph = fig2();
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let config = ServeConfig {
        threads: 2,
        batch_window: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let server = Server::start(config, Epoch::rlc(Arc::clone(&graph), index)).unwrap();
    let addr = server.addr();

    let results = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    exchange_raw(
                        addr,
                        "POST",
                        "/query",
                        &query_body(i % 6, (i + 5) % 6, &[1]),
                    )
                })
            })
            .collect();
        // Give the requests a moment to be admitted, then shut down while
        // some are still in flight; shutdown must drain, not drop, them.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect::<Vec<_>>()
    });

    let mut answered = 0usize;
    for result in results {
        match result {
            Ok(raw) => {
                if raw.is_empty() {
                    // Accepted by the OS backlog but never admitted before
                    // shutdown: a clean EOF, never a torn response.
                    continue;
                }
                let (status, body) = parse_response(&raw).expect("complete response");
                assert_eq!(status, 200, "admitted requests get full answers: {body}");
                assert!(body.contains("\"answer\":"), "{body}");
                answered += 1;
            }
            Err(_) => {
                // Connection refused after the listener closed — also clean.
            }
        }
    }
    assert!(
        answered >= 1,
        "at least the in-flight requests were admitted and answered"
    );
}
