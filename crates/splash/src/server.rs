//! The wire front end: a hand-rolled HTTP/1.1 server over
//! [`std::net::TcpListener`] that puts a socket in front of
//! [`SplashService`].
//!
//! The offline build has no async runtime, so the design is the honest
//! thread-per-core one the sharded engine already uses: a bounded pool of
//! **connection workers** parses requests, and a single **engine thread**
//! owns the (deliberately `!Sync`) service and executes them in arrival
//! order — which is exactly what makes a stream replayed over the wire
//! **bit-identical** to the same stream driven in-process (pinned by
//! `tests/server.rs` at shard counts 1 and 3).
//!
//! Between the workers and the engine sits a **bounded job queue**, and
//! that queue is the admission-control surface:
//!
//! * **Load shedding** — when the queue is full, a request is answered
//!   `429 Too Many Requests` immediately instead of building unbounded
//!   backlog ([`crate::service::ServiceStats::requests_shed`] counts them).
//! * **Deadlines** — every request carries its arrival instant; if it
//!   waited longer than [`ServerConfig::deadline`] before the engine got
//!   to it, the engine answers `504 Gateway Timeout` without touching the
//!   model ([`crate::service::ServiceStats::deadlines_expired`]).
//! * **Latency** — executed requests are timed arrival-to-completion into
//!   the fixed-bucket [`crate::service::LatencyHistogram`] (zero
//!   allocations on the record path).
//!
//! Every counter the front end keeps lives in the service's shared
//! [`Telemetry`] plane, and the **observability routes** are answered by
//! the worker that parsed them — straight off the telemetry atomics,
//! never queued behind the engine: `GET /metrics` (Prometheus text
//! exposition), `GET /statz.json` (`?timing=0` gates the
//! latency-histogram fields off for byte-deterministic replays), and
//! `GET /trace?n=K` (the last K request spans as JSON, queue-wait and
//! engine-execute separated). `GET /healthz` is counted — probes and
//! their non-queued latency — without touching the engine thread.
//!
//! # Wire protocol
//!
//! HTTP/1.1 with length-delimited bodies (`content-length` required on
//! bodies; no chunked encoding), `text/plain` payloads in the repo's CSV
//! interchange formats, keep-alive by default. Errors carry the
//! [`SplashError`] taxonomy: the status code comes from
//! [`SplashError::http_status`] and the machine-readable variant name is
//! echoed in the `x-splash-error` response header. The full route ↔
//! service-call and error ↔ status tables live in ARCHITECTURE.md
//! ("Wire protocol & backpressure").
//!
//! | Route | Service call |
//! |---|---|
//! | `GET /healthz` | (answered by the worker, never queued; counted) |
//! | `GET /metrics` | (worker-direct: Prometheus text exposition) |
//! | `GET /statz.json` | (worker-direct: counters as JSON, `?timing=0`) |
//! | `GET /trace` | (worker-direct: last `?n=K` request spans as JSON) |
//! | `GET /stats` | [`SplashService::stats`] |
//! | `GET /models` | [`SplashService::models_info`] |
//! | `POST /models/{name}/ingest` | [`SplashService::ingest`] |
//! | `POST /models/{name}/predict` | [`SplashService::predict_batch_into`] |
//! | `POST /models/{name}/labels` | [`SplashService::observe_labels`] |
//! | `POST /models/{name}/fine-tune` | [`SplashService::fine_tune`] |
//! | `POST /models/{name}/publish` | [`SplashService::publish`] |
//! | `POST /models/{name}/load` | [`SplashService::load_saved`] (hot-swap) |
//!
//! ```no_run
//! use splash::server::{ServerConfig, SplashServer};
//! use splash::{SplashConfig, SplashService};
//!
//! let service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
//! let handle = SplashServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("serving on {}", handle.addr());
//! let service = handle.shutdown(); // joins every thread, returns the service
//! # let _ = service;
//! ```

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctdg::{Label, PropertyQuery, TemporalEdge};
use datasets::{queries_from_csv, Dataset, Task};
use nn::Matrix;

use crate::error::SplashError;
use crate::persist::SavedModel;
use crate::service::{IngestRequest, SplashService};
use crate::telemetry::Telemetry;

/// Limits and knobs of one [`SplashServer`] deployment.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Connection-worker threads parsing requests and writing responses
    /// (the engine thread executing them is always exactly one — that is
    /// the determinism contract). Must be positive.
    pub workers: usize,
    /// Capacity of the bounded job queue between workers and the engine.
    /// A request arriving while the queue holds this many is shed with
    /// `429`. Must be positive.
    pub queue_depth: usize,
    /// Per-request deadline, measured from arrival at the worker to the
    /// moment the engine picks the job up. Expired jobs are answered `504`
    /// without executing. Must be non-zero.
    pub deadline: Duration,
    /// Largest accepted request body; a `content-length` above this is
    /// answered `413` without reading the body.
    pub max_body: usize,
    /// Socket read timeout: an idle keep-alive connection is re-polled at
    /// this cadence (so shutdown is never blocked on a silent client), and
    /// a client that stalls mid-request — e.g. a `content-length` lying
    /// about a body it never sends — is disconnected after it.
    pub read_timeout: Duration,
    /// When `true`, the engine honors an `x-splash-delay-ms` request
    /// header by sleeping before the deadline check — a deterministic way
    /// for tests and benches to simulate slow requests. Off by default;
    /// never enable it on a real deployment.
    pub allow_test_delay: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 128,
            deadline: Duration::from_secs(2),
            max_body: 16 << 20,
            read_timeout: Duration::from_millis(500),
            allow_test_delay: false,
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<(), SplashError> {
        if self.workers == 0 {
            return Err(SplashError::InvalidConfig {
                what: "server workers must be positive".into(),
            });
        }
        if self.queue_depth == 0 {
            return Err(SplashError::InvalidConfig {
                what: "server queue_depth must be positive".into(),
            });
        }
        if self.deadline.is_zero() {
            return Err(SplashError::InvalidConfig {
                what: "server deadline must be non-zero".into(),
            });
        }
        if self.read_timeout.is_zero() {
            return Err(SplashError::InvalidConfig {
                what: "server read_timeout must be non-zero".into(),
            });
        }
        Ok(())
    }
}

/// One HTTP response on its way back to a worker.
#[derive(Debug, Clone)]
struct Response {
    status: u16,
    /// `x-splash-error` header value on failures (a [`SplashError::kind`]
    /// or a wire-level kind like `QueueFull` / `DeadlineExpired`).
    kind: Option<&'static str>,
    content_type: &'static str,
    body: String,
}

const TEXT_PLAIN: &str = "text/plain; charset=utf-8";
/// The Prometheus text exposition content type (scrapers key on the
/// `version` parameter).
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";
const APPLICATION_JSON: &str = "application/json";

impl Response {
    fn ok(body: String) -> Self {
        Self { status: 200, kind: None, content_type: TEXT_PLAIN, body }
    }

    fn ok_typed(body: String, content_type: &'static str) -> Self {
        Self { status: 200, kind: None, content_type, body }
    }

    fn err(status: u16, kind: &'static str, msg: impl Into<String>) -> Self {
        let mut body = msg.into();
        body.push('\n');
        Self { status, kind: Some(kind), content_type: TEXT_PLAIN, body }
    }

    fn splash(e: &SplashError) -> Self {
        Self::err(e.http_status(), e.kind(), format!("error: {e}"))
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Which service call a request maps to (resolved by the worker so that
/// path/method garbage never reaches the engine queue).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Route {
    Stats,
    Models,
    Ingest(String),
    Predict(String),
    Labels(String),
    FineTune(String),
    Publish(String),
    Load(String),
}

impl Route {
    /// The span label for this route (static — span recording allocates
    /// nothing).
    fn label(&self) -> &'static str {
        match self {
            Route::Stats => "stats",
            Route::Models => "models",
            Route::Ingest(_) => "ingest",
            Route::Predict(_) => "predict",
            Route::Labels(_) => "labels",
            Route::FineTune(_) => "fine-tune",
            Route::Publish(_) => "publish",
            Route::Load(_) => "load",
        }
    }

    /// The model a route addresses (empty for registry-wide routes).
    fn model(&self) -> &str {
        match self {
            Route::Stats | Route::Models => "",
            Route::Ingest(n)
            | Route::Predict(n)
            | Route::Labels(n)
            | Route::FineTune(n)
            | Route::Publish(n)
            | Route::Load(n) => n,
        }
    }
}

/// An observability route the worker answers itself, straight off the
/// shared [`Telemetry`] atomics — never queued behind the engine, so
/// health probes and metric scrapes stay responsive under full load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirectRoute {
    Healthz,
    Metrics,
    /// `timing: false` (`?timing=0`) gates the latency-histogram fields
    /// off, making the dump byte-deterministic across identical replays.
    Statz { timing: bool },
    /// The last `n` request spans as JSON.
    Trace { n: usize },
}

/// Where a request goes: through the engine queue, or answered by the
/// worker directly.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Routed {
    Engine(Route),
    Direct(DirectRoute),
}

/// The value of `key` in a raw query string (`a=1&b=2`), if present.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// One queued request: everything the engine needs to execute and reply.
struct Job {
    route: Route,
    body: Vec<u8>,
    arrival: Instant,
    delay_ms: u64,
    reply: SyncSender<Response>,
}

/// A parsed request as the worker hands it to routing.
struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
    delay_ms: u64,
}

/// Why reading a request off a connection stopped without one.
enum ReadOutcome {
    /// A complete request.
    Request(HttpRequest),
    /// Clean end of stream before any request bytes.
    Eof,
    /// The socket idled past the read timeout between requests — poll the
    /// stop flag and keep waiting.
    Idle,
    /// The client disconnected or stalled mid-request; nothing can be
    /// answered.
    Disconnect,
    /// The bytes were not a usable request; answer `resp` and close.
    Malformed(Response),
}

const MAX_HEADER_LINE: usize = 8 * 1024;
const MAX_HEADERS: usize = 64;

/// Reads one CRLF-delimited line with a length cap. `Ok(None)` is EOF.
fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    first_byte_of_request: bool,
) -> Result<Option<String>, ReadOutcome> {
    let mut line = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(if first_byte_of_request && line.is_empty() {
                    ReadOutcome::Idle
                } else {
                    ReadOutcome::Disconnect
                });
            }
            Err(_) => return Err(ReadOutcome::Disconnect),
        };
        if available.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(ReadOutcome::Disconnect)
            };
        }
        let nl = available.iter().position(|&b| b == b'\n');
        let take = nl.map_or(available.len(), |i| i + 1);
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        if line.len() > MAX_HEADER_LINE {
            return Err(ReadOutcome::Malformed(Response::err(
                431,
                "HeaderTooLarge",
                format!("error: header line exceeds {MAX_HEADER_LINE} bytes"),
            )));
        }
        if nl.is_some() {
            while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
                line.pop();
            }
            return match String::from_utf8(line) {
                Ok(s) => Ok(Some(s)),
                Err(_) => Err(ReadOutcome::Malformed(Response::err(
                    400,
                    "BadRequest",
                    "error: request header is not valid UTF-8",
                ))),
            };
        }
    }
}

/// Parses one request (request line, headers, length-delimited body) off
/// the connection.
fn read_request(reader: &mut BufReader<TcpStream>, max_body: usize) -> ReadOutcome {
    let request_line = match read_line_capped(reader, true) {
        Ok(None) => return ReadOutcome::Eof,
        Ok(Some(line)) => line,
        Err(out) => return out,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => {
            return ReadOutcome::Malformed(Response::err(
                400,
                "BadRequest",
                format!("error: malformed request line {request_line:?}"),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return ReadOutcome::Malformed(Response::err(
            400,
            "BadRequest",
            format!("error: unsupported protocol {version:?}"),
        ));
    }

    let mut content_length: Option<usize> = None;
    let mut keep_alive = true;
    let mut delay_ms = 0u64;
    let mut headers = 0usize;
    loop {
        let line = match read_line_capped(reader, false) {
            Ok(None) => return ReadOutcome::Disconnect,
            Ok(Some(line)) => line,
            Err(out) => return out,
        };
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return ReadOutcome::Malformed(Response::err(
                431,
                "HeaderTooLarge",
                format!("error: more than {MAX_HEADERS} headers"),
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return ReadOutcome::Malformed(Response::err(
                400,
                "BadRequest",
                format!("error: malformed header line {line:?}"),
            ));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => match value.parse::<usize>() {
                Ok(n) => content_length = Some(n),
                Err(_) => {
                    return ReadOutcome::Malformed(Response::err(
                        400,
                        "BadRequest",
                        format!("error: unparsable content-length {value:?}"),
                    ))
                }
            },
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            "transfer-encoding" => {
                // Only length-delimited bodies are spoken here.
                return ReadOutcome::Malformed(Response::err(
                    400,
                    "BadRequest",
                    format!("error: transfer-encoding {value:?} is not supported \
                             (use content-length)"),
                ));
            }
            "x-splash-delay-ms" => delay_ms = value.parse().unwrap_or(0),
            _ => {}
        }
    }

    let len = content_length.unwrap_or(0);
    if len > max_body {
        return ReadOutcome::Malformed(Response::err(
            413,
            "BodyTooLarge",
            format!("error: body of {len} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut body = vec![0u8; len];
    if len > 0 {
        // A lying content-length (more promised than sent) stalls here and
        // resolves to a disconnect after the read timeout — never a hang.
        if reader.read_exact(&mut body).is_err() {
            return ReadOutcome::Disconnect;
        }
    }
    ReadOutcome::Request(HttpRequest { method, path, body, keep_alive, delay_ms })
}

/// Resolves method + path (query string included) to a route; errors are
/// complete responses.
fn route_of(method: &str, path: &str) -> Result<Routed, Response> {
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    let model_route = |name: &str, verb: &str| -> Option<Route> {
        if name.is_empty() {
            return None;
        }
        let name = name.to_string();
        match verb {
            "ingest" => Some(Route::Ingest(name)),
            "predict" => Some(Route::Predict(name)),
            "labels" => Some(Route::Labels(name)),
            "fine-tune" => Some(Route::FineTune(name)),
            "publish" => Some(Route::Publish(name)),
            "load" => Some(Route::Load(name)),
            _ => None,
        }
    };
    let post_route = |path: &str| -> Option<Route> {
        let rest = path.strip_prefix("/models/")?;
        let (name, verb) = rest.split_once('/')?;
        if verb.contains('/') {
            return None;
        }
        model_route(name, verb)
    };
    match method {
        "GET" => match path {
            "/healthz" => Ok(Routed::Direct(DirectRoute::Healthz)),
            "/metrics" => Ok(Routed::Direct(DirectRoute::Metrics)),
            "/statz.json" => {
                let timing = query_param(query, "timing") != Some("0");
                Ok(Routed::Direct(DirectRoute::Statz { timing }))
            }
            "/trace" => {
                let n = query_param(query, "n")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_TRACE_SPANS);
                Ok(Routed::Direct(DirectRoute::Trace { n }))
            }
            "/stats" => Ok(Routed::Engine(Route::Stats)),
            "/models" => Ok(Routed::Engine(Route::Models)),
            other if post_route(other).is_some() => Err(Response::err(
                405,
                "MethodNotAllowed",
                format!("error: {other} expects POST"),
            )),
            other => Err(Response::err(404, "NotFound", format!("error: no route {other}"))),
        },
        "POST" => match post_route(path) {
            Some(route) => Ok(Routed::Engine(route)),
            None if matches!(
                path,
                "/healthz" | "/metrics" | "/statz.json" | "/trace" | "/stats" | "/models"
            ) =>
            {
                Err(Response::err(
                    405,
                    "MethodNotAllowed",
                    format!("error: {path} expects GET"),
                ))
            }
            None => Err(Response::err(404, "NotFound", format!("error: no route {path}"))),
        },
        other => Err(Response::err(
            405,
            "MethodNotAllowed",
            format!("error: method {other:?} is not served here (GET or POST)"),
        )),
    }
}

/// Spans returned by `GET /trace` when the request names no `n`.
const DEFAULT_TRACE_SPANS: usize = 32;

/// Answers an observability route off the telemetry plane. Health probes
/// are counted here — requests and their (non-queued) latency — which is
/// what makes them visible in `/metrics` at all: they never reach the
/// engine thread.
fn serve_direct(route: DirectRoute, tel: &Telemetry, arrival: Instant) -> Response {
    match route {
        DirectRoute::Healthz => {
            let resp = Response::ok("ok\n".into());
            tel.healthz_requests.inc();
            tel.healthz_latency.record_ns(arrival.elapsed().as_nanos() as u64);
            resp
        }
        DirectRoute::Metrics => {
            Response::ok_typed(tel.registry().render_prometheus(), PROMETHEUS_TEXT)
        }
        DirectRoute::Statz { timing } => {
            Response::ok_typed(tel.registry().render_statz_json(timing), APPLICATION_JSON)
        }
        DirectRoute::Trace { n } => {
            Response::ok_typed(tel.render_trace_json(n), APPLICATION_JSON)
        }
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response, keep_alive: bool) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(kind) = resp.kind {
        head.push_str("x-splash-error: ");
        head.push_str(kind);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Request bodies: the repo's CSV interchange formats.

/// Parses an ingest body: the edge CSV interchange format (`src,dst,time,
/// weight[,feat...]` under a header line). Unlike `datasets::edges_from_csv`
/// this does **not** require the batch to be internally sorted — ordering
/// policy belongs to the service's [`crate::LateEdgePolicy`].
fn parse_edges(text: &str) -> Result<Vec<TemporalEdge>, String> {
    let mut edges = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() < 4 {
            return Err(format!("line {}: expected at least src,dst,time,weight", i + 1));
        }
        let field = |j: usize, what: &str| -> Result<f64, String> {
            cells[j]
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("line {}: {what} {:?}: {e}", i + 1, cells[j]))
        };
        let src = cells[0]
            .trim()
            .parse::<u32>()
            .map_err(|e| format!("line {}: src {:?}: {e}", i + 1, cells[0]))?;
        let dst = cells[1]
            .trim()
            .parse::<u32>()
            .map_err(|e| format!("line {}: dst {:?}: {e}", i + 1, cells[1]))?;
        let time = field(2, "time")?;
        let weight = field(3, "weight")? as f32;
        let feat: Vec<f32> = (4..cells.len())
            .map(|j| field(j, "feat").map(|v| v as f32))
            .collect::<Result<_, _>>()?;
        edges.push(TemporalEdge { src, dst, feat: feat.into(), weight, time });
    }
    Ok(edges)
}

/// Parses a predict body: one `node,time` pair per line (an optional
/// literal `node,time` header line is skipped). Labels are placeholders;
/// predictions ignore them.
fn parse_predict(text: &str) -> Result<Vec<PropertyQuery>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || (i == 0 && line == "node,time") {
            continue;
        }
        let Some((node, time)) = line.split_once(',') else {
            return Err(format!("line {}: expected node,time", i + 1));
        };
        let node = node
            .trim()
            .parse::<u32>()
            .map_err(|e| format!("line {}: node {node:?}: {e}", i + 1))?;
        let time = time
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("line {}: time {time:?}: {e}", i + 1))?;
        out.push(PropertyQuery { node, time, label: Label::Class(0) });
    }
    Ok(out)
}

/// Parses a load body: `key=value` lines naming server-local files
/// (`model`, `edges`, `queries`, `task`, optional `classes`).
fn parse_load(text: &str) -> Result<(String, String, String, Task, Option<usize>), String> {
    let (mut model, mut edges, mut queries, mut task, mut classes) =
        (None, None, None, None, None);
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected key=value", i + 1));
        };
        let value = value.trim().to_string();
        match key.trim() {
            "model" => model = Some(value),
            "edges" => edges = Some(value),
            "queries" => queries = Some(value),
            "task" => {
                task = Some(match value.as_str() {
                    "anomaly" => Task::Anomaly,
                    "classification" => Task::Classification,
                    "affinity" => Task::Affinity,
                    other => return Err(format!("unknown task {other:?}")),
                })
            }
            "classes" => {
                classes = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("classes {value:?}: {e}"))?,
                )
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    match (model, edges, queries, task) {
        (Some(m), Some(e), Some(q), Some(t)) => Ok((m, e, q, t, classes)),
        _ => Err("a load body needs model=, edges=, queries= and task= lines".into()),
    }
}

// ---------------------------------------------------------------------------
// The engine thread: sole owner of the service.

fn execute(service: &mut SplashService, route: &Route, body: &[u8]) -> Response {
    let text = match route {
        Route::Stats | Route::Models | Route::FineTune(_) | Route::Publish(_) => "",
        _ => match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => {
                return Response::err(400, "BadRequest", "error: body is not valid UTF-8")
            }
        },
    };
    match route {
        // Shedding happens on the worker threads, but they and the
        // service count into the same registry atomics — no overlay.
        Route::Stats => Response::ok(format!("{}", service.stats())),
        Route::Models => {
            let mut body = String::new();
            for info in service.models_info() {
                body.push_str(&info.to_string());
                body.push('\n');
            }
            Response::ok(body)
        }
        Route::Ingest(name) => {
            let edges = match parse_edges(text) {
                Ok(e) => e,
                Err(msg) => {
                    return Response::err(400, "BadRequest", format!("error: bad edge csv: {msg}"))
                }
            };
            match service.ingest(name, IngestRequest::new(&edges)) {
                Ok(r) => Response::ok(format!(
                    "ingested={} dropped={} last_time={}\n",
                    r.ingested, r.dropped, r.last_time
                )),
                Err(e) => Response::splash(&e),
            }
        }
        Route::Predict(name) => {
            let queries = match parse_predict(text) {
                Ok(q) => q,
                Err(msg) => {
                    return Response::err(400, "BadRequest", format!("error: bad query: {msg}"))
                }
            };
            // One batched forward for the whole body: bit-identical to a
            // `predict_into` per query, with the same first error (the
            // batch is checked in body order) and the same served count.
            let mut logits = Matrix::default();
            if let Err(e) = service.predict_batch_into(name, &queries, &mut logits) {
                return Response::splash(&e);
            }
            let mut body = String::new();
            for i in 0..logits.rows() {
                for (j, v) in logits.row(i).iter().enumerate() {
                    if j > 0 {
                        body.push(',');
                    }
                    // `{v}` prints the shortest exactly-roundtripping
                    // decimal, so logits survive the wire bit-for-bit.
                    let _ = write!(body, "{v}");
                }
                body.push('\n');
            }
            Response::ok(body)
        }
        Route::Labels(name) => {
            let task = match service.trainer(name) {
                Ok(t) => t.task(),
                Err(e) => return Response::splash(&e),
            };
            let queries = match queries_from_csv(text, task) {
                Ok(q) => q,
                Err(e) => {
                    return Response::err(400, "BadRequest", format!("error: bad label csv: {e}"))
                }
            };
            match service.observe_labels(name, &queries) {
                Ok(r) => Response::ok(format!(
                    "buffered={} dropped={} tunes={} steps={}\n",
                    r.buffered, r.dropped, r.tunes, r.steps
                )),
                Err(e) => Response::splash(&e),
            }
        }
        Route::FineTune(name) => match service.fine_tune(name) {
            Ok(r) => Response::ok(format!(
                "steps={} examples={} published={}\n",
                r.steps, r.examples, r.published
            )),
            Err(e) => Response::splash(&e),
        },
        Route::Publish(name) => match service.publish(name) {
            Ok(()) => Response::ok("published\n".into()),
            Err(e) => Response::splash(&e),
        },
        Route::Load(name) => {
            let (model, edges, queries, task, classes) = match parse_load(text) {
                Ok(parts) => parts,
                Err(msg) => {
                    return Response::err(400, "BadRequest", format!("error: bad load body: {msg}"))
                }
            };
            match load_for(&model, &edges, &queries, task, classes) {
                Ok((saved, dataset)) => match service.load_saved(name, saved, &dataset) {
                    Ok(()) => Response::ok(format!("loaded {name} from {model}\n")),
                    Err(e) => Response::splash(&e),
                },
                Err(resp) => resp,
            }
        }
    }
}

/// Decodes the artifact and loads the dataset a `/load` request names,
/// reading the artifact once. Its own `out_dim` caps the label universe
/// when the request does not name `classes` explicitly; when it does,
/// the dataset is checked first. The artifact carries its own streaming
/// state; the service reads only the dataset's task.
fn load_for(
    model: &str,
    edges: &str,
    queries: &str,
    task: Task,
    classes: Option<usize>,
) -> Result<(SavedModel, Dataset), Response> {
    let decode = || crate::persist::load_model(Path::new(model)).map_err(|e| Response::splash(&e));
    Ok(match classes {
        Some(c) => {
            let dataset = load_dataset_for(edges, queries, task, c)?;
            (decode()?, dataset)
        }
        None => {
            let saved = decode()?;
            let dataset = load_dataset_for(edges, queries, task, saved.out_dim)?;
            (saved, dataset)
        }
    })
}

/// Loads the dataset a `/load` request names, checking every label
/// against `classes`.
fn load_dataset_for(
    edges: &str,
    queries: &str,
    task: Task,
    classes: usize,
) -> Result<Dataset, Response> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| Response::err(422, "Io", format!("error: {p}: {e}")))
    };
    let stream = datasets::edges_from_csv(&read(edges)?)
        .map_err(|e| Response::err(400, "BadRequest", format!("error: {edges}: {e}")))?;
    let parsed = queries_from_csv(&read(queries)?, task)
        .map_err(|e| Response::err(400, "BadRequest", format!("error: {queries}: {e}")))?;
    if parsed.is_empty() {
        return Err(Response::err(400, "BadRequest", "error: the query file has no queries"));
    }
    for q in &parsed {
        let fits = match (&q.label, task) {
            (Label::Affinity(a), Task::Affinity) => a.len() == classes,
            (Label::Class(c), Task::Anomaly | Task::Classification) => *c < classes,
            _ => false,
        };
        if !fits {
            return Err(Response::err(
                400,
                "BadRequest",
                format!("error: query at t={} has a label incompatible with task/classes", q.time),
            ));
        }
    }
    Ok(Dataset {
        name: "wire-load".into(),
        task,
        stream,
        queries: parsed,
        num_classes: classes,
        node_feats: None,
    })
}

fn engine_loop(mut service: SplashService, rx: Receiver<Job>, cfg: ServerConfig) -> SplashService {
    let tel = service.telemetry();
    // Drain WAL-commit time staged before serving started (e.g. by a
    // make_durable bootstrap) so the first span is not over-attributed.
    let _ = tel.take_wal_commit_ns();
    while let Ok(job) = rx.recv() {
        if cfg.allow_test_delay && job.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(job.delay_ms));
        }
        let waited = job.arrival.elapsed();
        if waited > cfg.deadline {
            service.note_deadline_expired();
            let resp = Response::err(
                504,
                "DeadlineExpired",
                format!(
                    "error: request waited {}ms, past its {}ms deadline",
                    waited.as_millis(),
                    cfg.deadline.as_millis()
                ),
            );
            tel.record_span(
                job.route.label(),
                job.route.model(),
                waited.as_nanos() as u64,
                0,
                0,
                job.body.len() as u64,
                resp.body.len() as u64,
                resp.status,
                "DeadlineExpired",
            );
            let _ = job.reply.send(resp);
            continue;
        }
        let started = Instant::now();
        let resp = execute(&mut service, &job.route, &job.body);
        let execute_ns = started.elapsed().as_nanos() as u64;
        // Whatever the durable seam staged during this execute belongs to
        // this request's span.
        let wal_commit_ns = tel.take_wal_commit_ns();
        service.record_request_latency_ns(job.arrival.elapsed().as_nanos() as u64);
        tel.record_span(
            job.route.label(),
            job.route.model(),
            waited.as_nanos() as u64,
            execute_ns,
            wal_commit_ns,
            job.body.len() as u64,
            resp.body.len() as u64,
            resp.status,
            resp.kind.unwrap_or("ok"),
        );
        let _ = job.reply.send(resp);
    }
    service
}

// ---------------------------------------------------------------------------
// Workers and acceptor.

fn handle_connection(
    stream: TcpStream,
    job_tx: &SyncSender<Job>,
    cfg: &ServerConfig,
    stop: &AtomicBool,
    tel: &Telemetry,
) {
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err() {
        return;
    }
    stream.set_nodelay(true).ok();
    let Ok(write_half) = stream.try_clone() else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, cfg.max_body) {
            ReadOutcome::Eof | ReadOutcome::Disconnect => return,
            ReadOutcome::Idle => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            ReadOutcome::Malformed(resp) => {
                let _ = write_response(&mut write_half, &resp, false);
                let _ = write_half.shutdown(Shutdown::Both);
                return;
            }
            ReadOutcome::Request(req) => {
                let arrival = Instant::now();
                let resp = match route_of(&req.method, &req.path) {
                    Err(resp) => resp,
                    Ok(Routed::Direct(route)) => serve_direct(route, tel, arrival),
                    Ok(Routed::Engine(route)) => {
                        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
                        let job = Job {
                            route,
                            body: req.body,
                            arrival,
                            delay_ms: req.delay_ms,
                            reply: reply_tx,
                        };
                        match job_tx.try_send(job) {
                            Ok(()) => reply_rx.recv().unwrap_or_else(|_| {
                                Response::err(503, "Shutdown", "error: server is shutting down")
                            }),
                            Err(TrySendError::Full(_)) => {
                                tel.requests_shed.inc();
                                Response::err(
                                    429,
                                    "QueueFull",
                                    "error: request queue is full, retry later",
                                )
                            }
                            Err(TrySendError::Disconnected(_)) => Response::err(
                                503,
                                "Shutdown",
                                "error: server is shutting down",
                            ),
                        }
                    }
                };
                if write_response(&mut write_half, &resp, req.keep_alive).is_err() {
                    return;
                }
                if !req.keep_alive {
                    let _ = write_half.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
    }
}

/// Binds and runs [`SplashService`] behind a socket. See the
/// [module docs](self) for the design and protocol.
#[derive(Debug)]
pub struct SplashServer;

impl SplashServer {
    /// Validates `cfg`, binds `addr` (use port 0 for an ephemeral port),
    /// spawns the acceptor, the connection workers, and the engine thread,
    /// and hands back the running server's [`ServerHandle`]. The service —
    /// with every model already installed — moves into the engine thread
    /// and comes back out of [`ServerHandle::shutdown`].
    pub fn bind(
        service: SplashService,
        addr: &str,
        cfg: ServerConfig,
    ) -> Result<ServerHandle, SplashError> {
        cfg.validate()?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let tel = service.telemetry();
        // Deployment-shape gauges: registered every bind, so a service
        // re-served under a different config re-exposes the new shape.
        tel.registry()
            .gauge("splash_server_workers", "Connection-worker threads parsing requests.")
            .set(cfg.workers as u64);
        tel.registry()
            .gauge(
                "splash_server_queue_depth",
                "Capacity of the bounded job queue between workers and the engine.",
            )
            .set(cfg.queue_depth as u64);

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(cfg.queue_depth);
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let engine = std::thread::Builder::new()
            .name("splash-engine".into())
            .spawn(move || engine_loop(service, job_rx, cfg))
            .map_err(SplashError::Io)?;

        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let conn_rx = Arc::clone(&conn_rx);
            let job_tx = job_tx.clone();
            let stop = Arc::clone(&stop);
            let tel = Arc::clone(&tel);
            let worker = std::thread::Builder::new()
                .name(format!("splash-worker-{i}"))
                .spawn(move || loop {
                    let next = conn_rx.lock().expect("worker lock poisoned").recv();
                    match next {
                        Ok(stream) => handle_connection(stream, &job_tx, &cfg, &stop, &tel),
                        Err(_) => return,
                    }
                })
                .map_err(SplashError::Io)?;
            workers.push(worker);
        }
        // Workers hold the only long-lived job senders: when the acceptor
        // drops `conn_tx` and the workers drain out, the engine's receiver
        // disconnects and the engine loop returns the service.
        drop(job_tx);

        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("splash-acceptor".into())
                .spawn(move || {
                    for accepted in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Ok(stream) = accepted {
                            if conn_tx.send(stream).is_err() {
                                break;
                            }
                        }
                    }
                })
                .map_err(SplashError::Io)?
        };

        Ok(ServerHandle {
            addr: local,
            stop,
            tel,
            acceptor: Some(acceptor),
            workers,
            engine: Some(engine),
        })
    }
}

/// A running [`SplashServer`]: the bound address plus the thread handles.
///
/// Dropping the handle shuts the server down (discarding the service);
/// call [`ServerHandle::shutdown`] to get the service back for inspection.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    tel: Arc<Telemetry>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    engine: Option<JoinHandle<SplashService>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wire requests shed so far by admission control — the same registry
    /// counter `/stats` and `/metrics` report.
    pub fn requests_shed(&self) -> u64 {
        self.tel.requests_shed.get()
    }

    /// The service's telemetry plane, observable while the server runs
    /// (the engine thread owns the service itself until
    /// [`ServerHandle::shutdown`]).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.tel)
    }

    /// Stops accepting, drains queued requests, joins every thread, and
    /// returns the service. Every counter — including worker-side sheds
    /// and health probes — already lives in the service's shared registry,
    /// so the returned service's [`SplashService::stats`] needs no
    /// overlay.
    ///
    /// In-flight requests are answered before their connections close; a
    /// shutdown never loses an accepted request.
    pub fn shutdown(mut self) -> SplashService {
        self.stop_threads();
        self.engine
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("engine thread panicked")
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with one throwaway
        // connection; it then sees the stop flag and exits, dropping the
        // connection channel the workers drain from.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_threads();
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_is_typed() {
        let bad = ServerConfig { workers: 0, ..ServerConfig::default() };
        assert!(matches!(bad.validate(), Err(SplashError::InvalidConfig { .. })));
        let bad = ServerConfig { queue_depth: 0, ..ServerConfig::default() };
        assert!(matches!(bad.validate(), Err(SplashError::InvalidConfig { .. })));
        let bad = ServerConfig { deadline: Duration::ZERO, ..ServerConfig::default() };
        assert!(matches!(bad.validate(), Err(SplashError::InvalidConfig { .. })));
        assert!(ServerConfig::default().validate().is_ok());
    }

    #[test]
    fn routes_resolve_and_reject() {
        assert_eq!(route_of("GET", "/healthz").unwrap(), Routed::Direct(DirectRoute::Healthz));
        assert_eq!(route_of("GET", "/metrics").unwrap(), Routed::Direct(DirectRoute::Metrics));
        assert_eq!(route_of("GET", "/stats").unwrap(), Routed::Engine(Route::Stats));
        assert_eq!(
            route_of("POST", "/models/live/ingest").unwrap(),
            Routed::Engine(Route::Ingest("live".into()))
        );
        assert_eq!(
            route_of("POST", "/models/a b/predict").unwrap(),
            Routed::Engine(Route::Predict("a b".into()))
        );
        assert_eq!(route_of("GET", "/models/live/ingest").unwrap_err().status, 405);
        assert_eq!(route_of("POST", "/stats").unwrap_err().status, 405);
        assert_eq!(route_of("POST", "/metrics").unwrap_err().status, 405);
        assert_eq!(route_of("PUT", "/stats").unwrap_err().status, 405);
        assert_eq!(route_of("GET", "/nope").unwrap_err().status, 404);
        assert_eq!(route_of("POST", "/models//ingest").unwrap_err().status, 404);
        assert_eq!(route_of("POST", "/models/live/frobnicate").unwrap_err().status, 404);
    }

    #[test]
    fn observability_routes_parse_their_query_strings() {
        assert_eq!(
            route_of("GET", "/statz.json").unwrap(),
            Routed::Direct(DirectRoute::Statz { timing: true })
        );
        assert_eq!(
            route_of("GET", "/statz.json?timing=0").unwrap(),
            Routed::Direct(DirectRoute::Statz { timing: false })
        );
        assert_eq!(
            route_of("GET", "/trace?n=7").unwrap(),
            Routed::Direct(DirectRoute::Trace { n: 7 })
        );
        assert_eq!(
            route_of("GET", "/trace").unwrap(),
            Routed::Direct(DirectRoute::Trace { n: DEFAULT_TRACE_SPANS })
        );
        assert_eq!(
            route_of("GET", "/trace?n=bogus").unwrap(),
            Routed::Direct(DirectRoute::Trace { n: DEFAULT_TRACE_SPANS })
        );
    }

    #[test]
    fn edge_bodies_parse_without_ordering_requirements() {
        let text = "src,dst,time,weight\n1,2,5.0,1.0\n3,4,3.0,0.5\n";
        let edges = parse_edges(text).unwrap();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[1].time, 3.0, "late rows are the service's call, not the parser's");
        assert!(parse_edges("src,dst,time,weight\n1,2\n").is_err());
        assert!(parse_edges("src,dst,time,weight\nx,2,1.0,1.0\n").is_err());
    }

    #[test]
    fn predict_bodies_parse() {
        let pairs = |text| -> Vec<(u32, f64)> {
            parse_predict(text).unwrap().iter().map(|q| (q.node, q.time)).collect()
        };
        assert_eq!(pairs("node,time\n3,17.5\n4,18\n"), vec![(3, 17.5), (4, 18.0)]);
        assert_eq!(pairs("3,17.5\n"), vec![(3, 17.5)]);
        assert!(parse_predict("nope\n").is_err());
    }

    #[test]
    fn load_bodies_parse() {
        let (m, e, q, t, c) =
            parse_load("model=/a.bin\nedges=/e.csv\nqueries=/q.csv\ntask=anomaly\nclasses=2\n")
                .unwrap();
        assert_eq!((m.as_str(), e.as_str(), q.as_str()), ("/a.bin", "/e.csv", "/q.csv"));
        assert_eq!(t, Task::Anomaly);
        assert_eq!(c, Some(2));
        assert!(parse_load("model=/a.bin\n").is_err());
        assert!(parse_load("task=frob\n").is_err());
    }
}
