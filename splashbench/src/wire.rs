//! `wire_stream`: the `server_load` round over HTTP on one kept-alive
//! loopback connection — `POST /ingest` of 64 edges, then `POST /predict`
//! of 16 queries at the stream clock — against a single, non-durable,
//! frozen engine.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use splash::{
    PredictRequest, PredictResponse, ServerConfig, ServerHandle, SplashServer, SplashService,
    TraceSpan,
};

use crate::layers::{record_setup, same_bits, time_slim, time_stream, unseen_share};
use crate::stats::{median, ns_since, Phase};
use crate::traffic::{deploy, Ctx, Res, SetupCosts, Sizes, Traffic, WorkDir, MODEL, PAUSES};
use crate::{alloc, procfs, Opts, Outcome};

const EDGES: usize = 64;
const QUERIES: usize = 16;
const STRIDE: u64 = (EDGES / QUERIES) as u64;
const INGEST: &str = "/models/live/ingest";
const PREDICT: &str = "/models/live/predict";
/// Every `CHECK_EVERY`-th of the first `2 × fixed_rounds` rounds is
/// compared against the in-process replay.
const CHECK_EVERY: u64 = 8;
/// Rounds per throughput window (~2 ms on a 2-vCPU host).
const WINDOW: u64 = 4;

/// A blocking HTTP/1.1 client on one kept-alive connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
    /// The last response body.
    body: Vec<u8>,
    /// Request bytes written (head + body).
    bytes_out: u64,
    /// Response bytes read (status line + headers + body).
    bytes_in: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Res<Self> {
        let stream = TcpStream::connect(addr).ctx("connecting")?;
        stream.set_nodelay(true).ctx("setting TCP_NODELAY")?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .ctx("setting a read timeout")?;
        let writer = stream.try_clone().ctx("cloning the socket")?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            out: Vec::with_capacity(16 << 10),
            line: String::with_capacity(256),
            body: Vec::with_capacity(16 << 10),
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Sends one request and reads the reply into `self.body`; returns
    /// the status.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Res<u16> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .ctx("formatting a request")?;
        self.out.extend_from_slice(body.as_bytes());
        self.writer.write_all(&self.out).ctx("sending a request")?;
        self.bytes_out += self.out.len() as u64;

        self.line.clear();
        self.bytes_in += self
            .reader
            .read_line(&mut self.line)
            .ctx("reading a status")? as u64;
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line {:?}", self.line))?;
        let mut len = 0usize;
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .ctx("reading a header")?;
            self.bytes_in += n as u64;
            let header = self.line.trim_end();
            if n == 0 || header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse().ctx("parsing content-length")?;
                }
            }
        }
        self.body.resize(len, 0);
        self.reader
            .read_exact(&mut self.body)
            .ctx("reading a body")?;
        self.bytes_in += len as u64;
        Ok(status)
    }
}

/// Builds the 16-query predict body of round `r` at `clock`.
fn predict_body(traffic: &Traffic, r: u64, clock: f64, out: &mut String) {
    use std::fmt::Write as _;
    out.clear();
    for j in 0..QUERIES as u64 {
        let _ = writeln!(
            out,
            "{},{clock}",
            traffic.query_node(r * EDGES as u64 + j * STRIDE)
        );
    }
}

/// Closes the client first, so its connection worker sees EOF at once
/// instead of waiting out its read timeout, then stops the server.
fn close(handle: ServerHandle, client: Client) -> SplashService {
    drop(client);
    handle.shutdown()
}

/// Binds `service`, connects, and answers one warm-up predict at `clock`.
fn serve(service: SplashService, traffic: &Traffic, clock: f64) -> Res<(ServerHandle, Client)> {
    let handle =
        SplashServer::bind(service, "127.0.0.1:0", ServerConfig::default()).ctx("binding")?;
    let mut client = Client::connect(handle.addr())?;
    let mut body = String::new();
    predict_body(traffic, 0, clock, &mut body);
    let status = client.request("POST", PREDICT, &body)?;
    if status != 200 {
        return Err(format!("warm-up predict answered {status}"));
    }
    Ok((handle, client))
}

/// One restart: a fresh service loads the artifact, binds, and answers
/// its first predict; returns the time that took, ms.
fn restart(sizes: &Sizes, artifact: &std::path::Path, traffic: &Traffic, clock: f64) -> Res<f64> {
    let t = Instant::now();
    let mut service = SplashService::builder(sizes.cfg)
        .build()
        .ctx("restart build")?;
    service
        .load_model(MODEL, artifact, &traffic.dataset)
        .ctx("restart load")?;
    let (handle, client) = serve(service, traffic, clock)?;
    let ms = ns_since(t) / 1e6;
    close(handle, client);
    Ok(ms)
}

/// Per-request server spans of the traced half, by route.
#[derive(Default)]
struct Spans {
    queue: [Vec<f64>; 2],
    execute: [Vec<f64>; 2],
    wire: [Vec<f64>; 2],
}

impl Spans {
    fn note(&mut self, route: usize, rtt_ns: f64, span: Option<TraceSpan>) {
        if let Some(s) = span {
            let (q, e) = (s.queue_wait_ns as f64, s.execute_ns as f64);
            self.queue[route].push(q);
            self.execute[route].push(e);
            self.wire[route].push(rtt_ns - q - e);
        }
    }
}

/// Runs `wire_stream`.
pub fn run(opts: &Opts) -> Res<Outcome> {
    let sizes = opts.sizes;
    let work = WorkDir::create("wire_stream")?;
    let mut costs = SetupCosts::default();
    let mut live = None;
    for rep in 0..sizes.setup_reps {
        if let Some((_, handle, client, _, _)) = live.take() {
            close(handle, client);
        }
        let artifact = work.join(&format!("model{rep}.bin"));
        let serving = SplashService::builder(sizes.cfg);
        let dep = deploy(opts.seed, &sizes, 0, &artifact, serving, &mut costs)?;
        let clock0 = dep
            .service
            .model_last_time(MODEL)
            .ctx("reading the clock")?;
        let (handle, client) = serve(dep.service, &dep.traffic, clock0)?;
        costs.total_s.push(ns_since(dep.started) / 1e9);
        live = Some((dep.traffic, handle, client, artifact, clock0));
    }
    let (traffic, handle, mut client, artifact, clock0) = live.ok_or("no deployment")?;
    let mut out = Outcome::default();
    let tally = &mut out.tally;
    let values = &mut out.values;
    values.set("setup_s", costs.setup_s());
    record_setup(&costs, values);
    // Set-up ran on every CPU; the measured part runs on one.
    procfs::pin_to_one_cpu();

    // The timed phase: one untraced half and, when traced, a second half
    // that also reads each request's server span.
    let halves: &[bool] = if opts.traced {
        &[false, true]
    } else {
        &[false]
    };
    let length = Duration::from_secs_f64(opts.seconds / halves.len() as f64);
    let check_rounds = 2 * sizes.fixed_rounds;
    let mut wire_logits: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut phases = Vec::new();
    let mut spans = Spans::default();
    let (mut body, mut qbody) = (String::new(), String::new());
    let tel = handle.telemetry();
    let mut r = 0u64;
    let (mut engine_busy, mut ctx_per_round) = (0.0, 0.0);
    let (mut restarts, mut paused) = (Vec::new(), 0);
    for &traced in halves {
        let mut phase = Phase::new(length, WINDOW);
        let cpu0 = procfs::thread_cpu_ns("splash-engine");
        let ctx0 = procfs::ctx_switches();
        while !phase.done() {
            if !traced && phase.pause_due(paused, PAUSES) {
                phase.interrupt(|| -> Res<()> {
                    for _ in 0..sizes.restarts {
                        restarts.push(restart(&sizes, &artifact, &traffic, clock0)?);
                        tally.note(true);
                    }
                    Ok(())
                })?;
                paused += 1;
            }
            let g0 = r * EDGES as u64;
            let clock = traffic.time(g0 + EDGES as u64 - 1);
            traffic.edges_csv(g0, EDGES, &mut body);
            let t = Instant::now();
            let status = client.request("POST", INGEST, &body)?;
            let ingest = ns_since(t);
            tally.note(status == 200);
            if traced {
                spans.note(0, ingest, tel.last_spans(1).pop());
            }
            predict_body(&traffic, r, clock, &mut qbody);
            let t = Instant::now();
            let status = client.request("POST", PREDICT, &qbody)?;
            let predict = ns_since(t);
            tally.note(status == 200);
            if traced {
                spans.note(1, predict, tel.last_spans(1).pop());
            }
            if r < check_rounds && r.is_multiple_of(CHECK_EVERY) {
                wire_logits.push((r, client.body.clone()));
            }
            phase.ingest_ns.push(ingest);
            phase.predict_ns.push(predict);
            phase.end_round(EDGES as u64, ingest + predict);
            r += 1;
        }
        if traced {
            let wall_ns = phase.wall_s() * 1e9;
            if let (Some(a), Some(b)) = (cpu0, procfs::thread_cpu_ns("splash-engine")) {
                engine_busy = b.saturating_sub(a) as f64 / wall_ns;
            }
            let switches = procfs::ctx_switches().saturating_sub(ctx0);
            ctx_per_round = switches as f64 / phase.rounds.max(1) as f64;
        }
        phases.push(phase);
    }
    values.set("rss_mb", procfs::peak_rss_mb());
    crate::record_phases(&phases, true, values);

    if opts.traced {
        let p50_us = |v: &[f64]| median(v) / 1e3;
        values.set("server.ingest_queue_wait_us", p50_us(&spans.queue[0]));
        values.set("server.ingest_execute_us", p50_us(&spans.execute[0]));
        values.set("server.ingest_wire_us", p50_us(&spans.wire[0]));
        values.set("server.predict_queue_wait_us", p50_us(&spans.queue[1]));
        values.set("server.predict_execute_us", p50_us(&spans.execute[1]));
        values.set("server.predict_wire_us", p50_us(&spans.wire[1]));
        values.set("server.engine_busy", engine_busy);
        values.set("server.ctx_switches_per_round", ctx_per_round);
    }
    drop(close(handle, client));

    if opts.traced {
        // Exact counts on a fresh deployment fed the first fixed rounds:
        // allocator calls in every thread of the process, and bytes on
        // the wire as the server sees them (in = requests, out = responses).
        let mut service = SplashService::builder(sizes.cfg).build().ctx("building")?;
        service
            .load_model(MODEL, &artifact, &traffic.dataset)
            .ctx("loading")?;
        let (handle, mut client) = serve(service, &traffic, clock0)?;
        let rounds = sizes.fixed_rounds;
        let (sent0, read0) = (client.bytes_out, client.bytes_in);
        let (res, allocs) = alloc::count(|| -> Res<()> {
            for k in 0..rounds {
                let g0 = k * EDGES as u64;
                let clock = traffic.time(g0 + EDGES as u64 - 1);
                traffic.edges_csv(g0, EDGES, &mut body);
                let status = client.request("POST", INGEST, &body)?;
                tally.note(status == 200);
                predict_body(&traffic, k, clock, &mut qbody);
                let status = client.request("POST", PREDICT, &qbody)?;
                tally.note(status == 200);
            }
            Ok(())
        });
        res?;
        let per_round = |n: u64| n as f64 / rounds as f64;
        values.set("server.alloc_calls_per_round", per_round(allocs));
        values.set(
            "server.bytes_in_per_round",
            per_round(client.bytes_out - sent0),
        );
        values.set(
            "server.bytes_out_per_round",
            per_round(client.bytes_in - read0),
        );
        close(handle, client);
    }

    // In-process replay of the first rounds from the same artifact: the
    // bit-identity check, and the service/io layer timers.
    let mut replay = SplashService::builder(sizes.cfg)
        .build()
        .ctx("building the replay")?;
    replay
        .load_model(MODEL, &artifact, &traffic.dataset)
        .ctx("loading the replay")?;
    let replay_rounds = r.min(check_rounds);
    let mut resp = PredictResponse::default();
    let mut logits: Vec<f32> = Vec::with_capacity(QUERIES * 8);
    let (mut parse, mut ingest, mut predict, mut round) = (vec![], vec![], vec![], vec![]);
    let (mut allocs, mut compared, mut mismatched) = (0u64, 0usize, 0usize);
    let mut nodes = Vec::new();
    let mut sampled = wire_logits.iter().peekable();
    for rr in 0..replay_rounds {
        let g0 = rr * EDGES as u64;
        let clock = traffic.time(g0 + EDGES as u64 - 1);
        traffic.edges_csv(g0, EDGES, &mut body);
        let t = Instant::now();
        let stream = datasets::edges_from_csv(&body).ctx("parsing a request body")?;
        parse.push(ns_since(t) / EDGES as f64);
        let (res, n) = alloc::count(|| -> Res<(f64, f64)> {
            let t = Instant::now();
            replay
                .ingest(MODEL, splash::IngestRequest::new(stream.edges()))
                .ctx("replay ingest")?;
            let ingest_ns = ns_since(t);
            logits.clear();
            let t = Instant::now();
            for j in 0..QUERIES as u64 {
                let node = traffic.query_node(g0 + j * STRIDE);
                replay
                    .predict_into(MODEL, PredictRequest::new(node, clock), &mut resp)
                    .ctx("replay predict")?;
                logits.extend_from_slice(&resp.logits);
            }
            Ok((ingest_ns, ns_since(t)))
        });
        let (i_ns, p_ns) = res?;
        allocs += n;
        ingest.push(i_ns);
        predict.push(p_ns / QUERIES as f64);
        round.push(i_ns + p_ns);
        for j in 0..QUERIES as u64 {
            nodes.push(traffic.query_node(g0 + j * STRIDE));
        }
        if let Some((_, wire)) = sampled.next_if(|(sr, _)| *sr == rr) {
            compared += 1;
            if !same_bits(&parse_logits(wire)?, &logits) {
                mismatched += 1;
            }
        }
    }
    out.checks.push((
        format!(
            "wire logits bit-identical to the in-process replay \
             ({compared} sampled rounds, {mismatched} differ)"
        ),
        compared > 0 && mismatched == 0,
    ));
    if opts.traced {
        values.set("io.parse_us_per_edge", median(&parse) / 1e3);
        values.set("service.ingest_us", median(&ingest) / 1e3);
        values.set("service.predict_us_per_query", median(&predict) / 1e3);
        values.set("service.round_us", median(&round) / 1e3);
        values.set(
            "service.alloc_calls_per_round",
            allocs as f64 / replay_rounds.max(1) as f64,
        );
        values.set("stream.unseen_node_share", unseen_share(&traffic, &nodes));
        let mut engine = replay.model(MODEL).ctx("the replay engine")?.clone();
        let start = replay_rounds * EDGES as u64;
        let captured = time_stream(
            &mut engine,
            &traffic,
            start,
            sizes.fixed_rounds / 4,
            EDGES,
            values,
        )?;
        time_slim(&artifact, &captured, values)?;
    }
    drop(replay);

    for _ in 0..sizes.restarts {
        restarts.push(restart(&sizes, &artifact, &traffic, clock0)?);
        tally.note(true);
    }
    values.set("recovery_ms", crate::stats::clean_latency(&restarts));
    Ok(out)
}

/// Parses a predict response body: one comma-separated logit row per
/// query, flattened.
fn parse_logits(body: &[u8]) -> Res<Vec<f32>> {
    let text = std::str::from_utf8(body).ctx("predict body is not UTF-8")?;
    text.lines()
        .flat_map(|l| l.split(','))
        .map(|v| v.parse::<f32>().ctx("parsing a logit"))
        .collect()
}
