//! The server: accept loop, routing, and JSON envelopes.
//!
//! ## Wire protocol
//!
//! One request per connection, every response `Connection: close`:
//!
//! | Route                | Body                        | Success                                        |
//! |----------------------|-----------------------------|------------------------------------------------|
//! | `POST /query`        | a `Query` JSON object       | `{"ok":true,"answer":b,"generation":g}`        |
//! | `POST /batch`        | `{"queries":[Query,…]}`     | `{"ok":true,"answers":[…],"generation":g}`     |
//! | `POST /admin/reload` | raw `RLC3`/`RSH1` blob      | `{"ok":true,"generation":g}`                   |
//! | `GET /healthz`       | —                           | `{"ok":true,"generation":g}`                   |
//! | `GET /metrics`       | —                           | text: `name value` lines                       |
//!
//! Failures: malformed JSON or framing → `400`; a constraint the engine
//! rejects → `400` with the rendered [`QueryError`] (and the generation it
//! was rejected under); unknown path → `404`; known path, wrong method →
//! `405`; slow read → `408`; oversized body/head → `413`/`431`; queue full
//! → preformatted `503` + `Retry-After`; missed deadline → preformatted
//! `504`. In `/batch` answers, per-query rejections appear in-place as
//! `{"error":"…"}` so one bad query cannot fail its neighbors.

use crate::batcher::{self, BatcherClient, MicroBatcher};
use crate::http::{self, HttpError, HttpLimits, HttpRequest};
use crate::metrics::{Counter, ServerMetrics};
use crate::obs::{Route, ServeObs};
use crate::pool::WorkerPool;
use crate::swap::{Epoch, IndexSlot};
use crate::ServeConfig;
use rlc_core::Query;
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything a worker needs to answer a request.
struct Ctx {
    config: ServeConfig,
    slot: Arc<IndexSlot>,
    metrics: Arc<ServerMetrics>,
    obs: Arc<ServeObs>,
    batcher: BatcherClient,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the listener, drains the admitted queue, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    stop_flag: Arc<AtomicBool>,
    listener_thread: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
    batcher: Option<MicroBatcher>,
    slot: Arc<IndexSlot>,
    metrics: Arc<ServerMetrics>,
    obs: Arc<ServeObs>,
}

impl Server {
    /// Boots a server for `epoch` on `config.port` of loopback.
    pub fn start(config: ServeConfig, epoch: Epoch) -> io::Result<Server> {
        let slot = Arc::new(IndexSlot::new(epoch));
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, config.port))?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::new());
        let obs = Arc::new(ServeObs::new(
            config.explain_capacity,
            config.explain_sample,
        ));
        // A serving process wants the engine-side span histograms and
        // stitch counters live in `GET /metrics`. Observation never
        // changes answers (the engine differential runs with this on).
        rlc_obs::set_global_enabled(true);
        let (batcher, batcher_client) = MicroBatcher::start(
            config.batch_window,
            Arc::clone(&slot),
            Arc::clone(&metrics),
            Arc::clone(&obs),
        )?;
        let ctx = Arc::new(Ctx {
            config,
            slot: Arc::clone(&slot),
            metrics: Arc::clone(&metrics),
            obs: Arc::clone(&obs),
            batcher: batcher_client,
        });
        let (pool, pool_client) = WorkerPool::start(
            config.threads,
            config.queue_depth,
            Arc::clone(&metrics),
            move |conn, enqueued| handle_connection(&ctx, conn, enqueued),
        )?;
        let stop_flag = Arc::new(AtomicBool::new(false));
        let listener_thread = {
            let stop_flag = Arc::clone(&stop_flag);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("rlc-serve-listener".to_owned())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop_flag.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(mut stream) = conn else { continue };
                        metrics.bump(Counter::Accepted);
                        if let Err(bounced) = pool_client.try_submit(stream) {
                            // Queue full: shed allocation-free and move on.
                            metrics.bump(Counter::Shed503);
                            stream = bounced;
                            http::drain_and_shed(&mut stream, http::SHED_OVERLOAD);
                        }
                    }
                    // `pool_client` drops here: the channel disconnects and
                    // the workers drain whatever was admitted, then exit.
                })?
        };
        Ok(Server {
            addr,
            stop_flag,
            listener_thread: Some(listener_thread),
            pool: Some(pool),
            batcher: Some(batcher),
            slot,
            metrics,
            obs,
        })
    }

    /// The bound address (read the ephemeral port back from here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters (shared with the serving threads).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The server's observability block (histograms + EXPLAIN journal).
    pub fn obs(&self) -> &Arc<ServeObs> {
        &self.obs
    }

    /// The epoch slot (for out-of-band swaps in tests and benches).
    pub fn slot(&self) -> &Arc<IndexSlot> {
        &self.slot
    }

    /// Graceful shutdown: stop accepting, answer everything already
    /// admitted, drain the batcher, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(listener_thread) = self.listener_thread.take() else {
            return;
        };
        self.stop_flag.store(true, Ordering::SeqCst);
        // Poke the accept loop out of its blocking `accept`.
        let _ = TcpStream::connect(self.addr);
        let _ = listener_thread.join();
        if let Some(pool) = self.pool.take() {
            // The listener thread has exited, so the last queue sender is
            // gone: joining waits exactly for the admitted drain.
            pool.join();
        }
        if let Some(batcher) = self.batcher.take() {
            // Workers are joined: no submitter remains, the drain is finite.
            batcher.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A JSON tree that renders as-is (the vendored serde's `Value` does not
/// implement `Serialize` itself).
struct Envelope(Value);

impl Serialize for Envelope {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Renders a JSON envelope; serialization of a `Value` tree cannot fail.
fn render(value: Value) -> String {
    serde_json::to_string(&Envelope(value)).unwrap_or_default()
}

/// `{"ok":false,"error":…}` with the generation when the failure was
/// answered under a specific epoch.
fn error_body(message: &str, generation: Option<u64>) -> String {
    let mut fields = vec![
        ("ok".to_owned(), Value::Bool(false)),
        ("error".to_owned(), Value::Str(message.to_owned())),
    ];
    if let Some(generation) = generation {
        fields.push(("generation".to_owned(), Value::UInt(generation)));
    }
    render(Value::Map(fields))
}

/// Writes a JSON response, counting it under `counter` and recording the
/// serialize-and-write span.
fn respond_json(
    ctx: &Ctx,
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    counter: Counter,
    body: &str,
) {
    ctx.metrics.bump(counter);
    let write_started = Instant::now();
    let _ = http::write_response(stream, status, reason, "application/json", body.as_bytes());
    ctx.obs.record_write(write_started.elapsed());
}

/// Splits a request target into its path and query string (empty if none).
fn split_path(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    }
}

/// First value of `key` in an `a=1&b=2` query string.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// One connection, end to end: read within limits, route, answer, close.
/// `enqueued` is when the listener queued the connection — the gap to now
/// is the admission queue wait.
fn handle_connection(ctx: &Ctx, mut stream: TcpStream, enqueued: Instant) {
    let started = Instant::now();
    ctx.obs
        .record_queue_wait(started.saturating_duration_since(enqueued));
    let deadline = started + ctx.config.request_deadline;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(ctx.config.read_deadline));
    let limits = HttpLimits {
        max_header_bytes: ctx.config.max_header_bytes,
        max_body_bytes: ctx.config.max_body_bytes,
        read_deadline: ctx.config.read_deadline,
    };
    let request = match http::read_request(&mut stream, &limits) {
        Ok(request) => {
            ctx.obs.record_parse(started.elapsed());
            request
        }
        Err(HttpError::Timeout) => {
            ctx.metrics.bump(Counter::Timeout408);
            http::write_static_response(&mut stream, http::REQUEST_TIMEOUT);
            return;
        }
        Err(HttpError::HeadersTooLarge) => {
            ctx.metrics.bump(Counter::HeadersTooLarge431);
            http::write_static_response(&mut stream, http::HEADERS_TOO_LARGE);
            return;
        }
        Err(HttpError::BodyTooLarge) => {
            ctx.metrics.bump(Counter::BodyTooLarge413);
            http::write_static_response(&mut stream, http::BODY_TOO_LARGE);
            return;
        }
        Err(HttpError::BadRequest(message)) => {
            respond_json(
                ctx,
                &mut stream,
                400,
                "Bad Request",
                Counter::BadRequest400,
                &error_body(&message, None),
            );
            return;
        }
        Err(HttpError::Disconnected) => return,
    };
    let (path, query_string) = split_path(request.path.as_str());
    let route = match path {
        "/query" => Route::Query,
        "/batch" => Route::Batch,
        p if p.starts_with("/admin/") => Route::Admin,
        _ => Route::Other,
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let body = render(Value::Map(vec![
                ("ok".to_owned(), Value::Bool(true)),
                (
                    "generation".to_owned(),
                    Value::UInt(ctx.slot.generation_value()),
                ),
            ]));
            respond_json(ctx, &mut stream, 200, "OK", Counter::Ok200, &body);
        }
        ("GET", "/metrics") => {
            let epoch = ctx.slot.snapshot();
            let text = ctx
                .obs
                .render_metrics(&ctx.metrics, ctx.slot.generation_value(), &epoch);
            ctx.metrics.bump(Counter::Ok200);
            let _ = http::write_response(&mut stream, 200, "OK", "text/plain", text.as_bytes());
        }
        ("GET", "/admin/explain") => handle_explain(ctx, &mut stream, query_string),
        ("POST", "/query") => handle_query(ctx, &mut stream, &request, deadline),
        ("POST", "/batch") => handle_batch(ctx, &mut stream, &request, deadline),
        ("POST", "/admin/reload") => handle_reload(ctx, &mut stream, &request),
        (_, "/healthz" | "/metrics" | "/query" | "/batch" | "/admin/reload" | "/admin/explain") => {
            respond_json(
                ctx,
                &mut stream,
                405,
                "Method Not Allowed",
                Counter::MethodNotAllowed405,
                &error_body("method not allowed for this path", None),
            );
        }
        (_, path) => {
            respond_json(
                ctx,
                &mut stream,
                404,
                "Not Found",
                Counter::NotFound404,
                &error_body(&format!("no such path {path:?}"), None),
            );
        }
    }
    ctx.obs.record_request(route, started.elapsed());
}

/// `GET /admin/explain?last=N`: the newest `N` journaled EXPLAIN traces
/// (`N` defaults to the journal capacity).
fn handle_explain(ctx: &Ctx, stream: &mut TcpStream, query_string: &str) {
    let last = match query_param(query_string, "last") {
        None => ctx.config.explain_capacity.max(1),
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                respond_json(
                    ctx,
                    stream,
                    400,
                    "Bad Request",
                    Counter::BadRequest400,
                    &error_body(
                        &format!("last must be an unsigned integer, got {raw:?}"),
                        None,
                    ),
                );
                return;
            }
        },
    };
    let body = ctx.obs.explain_body(last);
    respond_json(ctx, stream, 200, "OK", Counter::Ok200, &body);
}

/// Parses a JSON body as UTF-8 text.
fn body_text(request: &HttpRequest) -> Result<&str, String> {
    std::str::from_utf8(&request.body).map_err(|_| "request body is not valid UTF-8".to_owned())
}

/// `POST /query`: one query through the micro-batcher.
fn handle_query(ctx: &Ctx, stream: &mut TcpStream, request: &HttpRequest, deadline: Instant) {
    let query: Query = match body_text(request)
        .and_then(|text| serde_json::from_str(text).map_err(|e| format!("malformed query: {e}")))
    {
        Ok(query) => query,
        Err(message) => {
            respond_json(
                ctx,
                stream,
                400,
                "Bad Request",
                Counter::BadRequest400,
                &error_body(&message, None),
            );
            return;
        }
    };
    ctx.metrics.bump(Counter::Queries);
    match ctx.batcher.submit(query, deadline) {
        None => {
            ctx.metrics.bump(Counter::Deadline504);
            http::write_static_response(stream, http::DEADLINE_EXCEEDED);
        }
        Some(outcome) => match outcome.answer {
            Ok(answer) => {
                let body = render(Value::Map(vec![
                    ("ok".to_owned(), Value::Bool(true)),
                    ("answer".to_owned(), Value::Bool(answer)),
                    ("generation".to_owned(), Value::UInt(outcome.generation)),
                ]));
                respond_json(ctx, stream, 200, "OK", Counter::Ok200, &body);
            }
            Err(error) => {
                respond_json(
                    ctx,
                    stream,
                    400,
                    "Bad Request",
                    Counter::BadRequest400,
                    &error_body(&error.to_string(), Some(outcome.generation)),
                );
            }
        },
    }
}

/// `POST /batch`: an explicit batch, executed directly as one plan (it is
/// already a batch — the micro-batch window would only add latency).
fn handle_batch(ctx: &Ctx, stream: &mut TcpStream, request: &HttpRequest, deadline: Instant) {
    let queries: Vec<Query> = match body_text(request).and_then(parse_batch) {
        Ok(queries) => queries,
        Err(message) => {
            respond_json(
                ctx,
                stream,
                400,
                "Bad Request",
                Counter::BadRequest400,
                &error_body(&message, None),
            );
            return;
        }
    };
    ctx.metrics.bump(Counter::BatchRequests);
    if Instant::now() >= deadline {
        ctx.metrics.bump(Counter::Deadline504);
        http::write_static_response(stream, http::DEADLINE_EXCEEDED);
        return;
    }
    let epoch = ctx.slot.snapshot();
    let generation = epoch.generation().value();
    let answers = batcher::execute_batch(&ctx.obs, &epoch, &queries, "batch");
    let rendered: Vec<Value> = answers
        .into_iter()
        .map(|answer| match answer {
            Ok(reachable) => Value::Bool(reachable),
            Err(error) => Value::Map(vec![("error".to_owned(), Value::Str(error.to_string()))]),
        })
        .collect();
    let body = render(Value::Map(vec![
        ("ok".to_owned(), Value::Bool(true)),
        ("answers".to_owned(), Value::Seq(rendered)),
        ("generation".to_owned(), Value::UInt(generation)),
    ]));
    respond_json(ctx, stream, 200, "OK", Counter::Ok200, &body);
}

/// Parses `{"queries":[Query,…]}`.
fn parse_batch(text: &str) -> Result<Vec<Query>, String> {
    let value: Value = serde_json::from_str::<Envelope>(text)
        .map(|e| e.0)
        .map_err(|e| format!("malformed batch: {e}"))?;
    let queries = value
        .get("queries")
        .ok_or_else(|| "batch request must be {\"queries\":[…]}".to_owned())?;
    Vec::<Query>::from_value(queries).map_err(|e| format!("malformed batch: {e}"))
}

impl Deserialize for Envelope {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Envelope(value.clone()))
    }
}

/// `POST /admin/reload`: load the blob for the serving graph, swap it in.
/// In-flight batches finish on their snapshot of the old epoch; every new
/// snapshot serves the new one. Nothing is dropped either way.
fn handle_reload(ctx: &Ctx, stream: &mut TcpStream, request: &HttpRequest) {
    let graph = Arc::clone(ctx.slot.snapshot().graph());
    match Epoch::from_blob(&graph, &request.body) {
        Ok(next) => {
            let generation = next.generation().value();
            ctx.slot.swap(next);
            ctx.metrics.bump(Counter::Reloads);
            let body = render(Value::Map(vec![
                ("ok".to_owned(), Value::Bool(true)),
                ("generation".to_owned(), Value::UInt(generation)),
            ]));
            respond_json(ctx, stream, 200, "OK", Counter::Ok200, &body);
        }
        Err(message) => {
            ctx.metrics.bump(Counter::ReloadFailures);
            respond_json(
                ctx,
                stream,
                400,
                "Bad Request",
                Counter::BadRequest400,
                &error_body(&message, None),
            );
        }
    }
}
