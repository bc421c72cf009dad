//! Socket-level contract of the `splash::server` wire front end.
//!
//! Three pins, all against a **real** server on an ephemeral port driven
//! by raw `TcpStream` clients:
//!
//! 1. **Wire ≡ in-process, bit for bit** — a stream replayed over HTTP
//!    yields byte-identical predictions and the identical streamed metric
//!    as the same stream driven through `SplashService` directly, at shard
//!    counts 1 and 3.
//! 2. **Malformed requests never kill the server** — a proptest-driven
//!    grammar of truncated, lying, oversized, and garbage requests each
//!    gets a typed 4xx (or a clean disconnect) and the server keeps
//!    serving.
//! 3. **Backpressure is typed and accounted** — a saturated queue sheds
//!    with `429` while accepted requests all complete; an expired deadline
//!    is `504` and counted; latency percentiles are deterministic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use ctdg::{replay, Event, Label, TemporalEdge};
use datasets::Dataset;
use proptest::prelude::*;
use splash::{
    seen_end_time, truncate_to_available, FeatureProcess, IngestRequest, LatencyHistogram,
    PredictRequest, PredictResponse, ServerConfig, ServerHandle, SplashConfig, SplashServer,
    SplashService, SEEN_FRAC,
};

// ---------------------------------------------------------------------------
// A minimal raw-socket HTTP/1.1 client (keep-alive, length-delimited).

struct Client {
    stream: TcpStream,
}

struct Reply {
    status: u16,
    kind: Option<String>,
    ctype: Option<String>,
    body: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        Self { stream }
    }

    fn request(&mut self, method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Reply {
        let mut req = format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n", body.len());
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        req.push_str(body);
        self.stream.write_all(req.as_bytes()).expect("write request");
        read_reply(&mut self.stream)
    }
}

fn read_reply(stream: &mut TcpStream) -> Reply {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line {line:?}"));
    let mut content_length = 0usize;
    let mut kind = None;
    let mut ctype = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => content_length = value.trim().parse().expect("length"),
                "x-splash-error" => kind = Some(value.trim().to_string()),
                "content-type" => ctype = Some(value.trim().to_string()),
                _ => {}
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    // Hand any buffered spillover back? BufReader dies here, but replies
    // are read whole per request and the next request starts fresh on the
    // raw stream, so nothing is ever left buffered.
    assert!(reader.buffer().is_empty(), "reply left unread bytes in the buffer");
    Reply { status, kind, ctype, body: String::from_utf8(body).expect("utf-8 body") }
}

// ---------------------------------------------------------------------------
// Fixture: the deterministic service pair (training is seeded, so two
// builds are bit-identical twins).

fn fixture() -> (Dataset, SplashConfig) {
    let dataset = truncate_to_available(&datasets::synthetic_shift(40, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;
    (dataset, cfg)
}

fn trained_service(dataset: &Dataset, cfg: &SplashConfig, shards: usize) -> SplashService {
    let mut service = SplashService::builder(*cfg).shards(shards).build().unwrap();
    service
        .train_model_with_process("live", dataset, FeatureProcess::Random)
        .unwrap();
    service
}

fn edges_csv(edges: &[TemporalEdge]) -> String {
    let mut csv = String::from("src,dst,time,weight\n");
    for e in edges {
        csv.push_str(&format!("{},{},{},{}", e.src, e.dst, e.time, e.weight));
        for f in e.feat.iter() {
            csv.push_str(&format!(",{f}"));
        }
        csv.push('\n');
    }
    csv
}

/// Replays the post-training tail through the in-process service:
/// micro-batched ingests between queries, logits collected bitwise.
fn replay_in_process(service: &mut SplashService, dataset: &Dataset) -> (Vec<u32>, f64) {
    let t_live = seen_end_time(dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_live);
    let mut pending: Vec<TemporalEdge> = Vec::new();
    let mut resp = PredictResponse::default();
    let mut bits = Vec::new();
    let mut flat: Vec<f32> = Vec::new();
    let mut labels: Vec<&Label> = Vec::new();
    for event in replay(&dataset.stream, &dataset.queries) {
        match event {
            Event::Edge(idx, edge) => {
                if idx >= prefix {
                    pending.push(edge.clone());
                }
            }
            Event::Query(_, q) => {
                if q.time < t_live {
                    continue;
                }
                if !pending.is_empty() {
                    service.ingest("live", IngestRequest::new(&pending)).unwrap();
                    pending.clear();
                }
                service
                    .predict_into("live", PredictRequest::new(q.node, q.time), &mut resp)
                    .unwrap();
                bits.extend(resp.logits.iter().map(|v| v.to_bits()));
                flat.extend_from_slice(&resp.logits);
                labels.push(&q.label);
            }
        }
    }
    let out_dim = flat.len() / labels.len();
    let metric = splash::task::evaluate(
        dataset.task,
        &nn::Matrix::from_vec(labels.len(), out_dim, flat),
        &labels,
    );
    (bits, metric)
}

fn flush_edges_wire(client: &mut Client, pending: &mut Vec<TemporalEdge>) {
    if pending.is_empty() {
        return;
    }
    let reply = client.request("POST", "/models/live/ingest", &[], &edges_csv(pending));
    assert_eq!(reply.status, 200, "{}", reply.body);
    pending.clear();
}

fn flush_queries_wire<'a>(
    client: &mut Client,
    pending: &mut Vec<(u32, f64, &'a Label)>,
    bits: &mut Vec<u32>,
    flat: &mut Vec<f32>,
    labels: &mut Vec<&'a Label>,
) {
    if pending.is_empty() {
        return;
    }
    let mut body = String::new();
    for (node, time, _) in pending.iter() {
        body.push_str(&format!("{node},{time}\n"));
    }
    let reply = client.request("POST", "/models/live/predict", &[], &body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let rows: Vec<&str> = reply.body.lines().collect();
    assert_eq!(rows.len(), pending.len());
    for row in rows {
        for cell in row.split(',') {
            let v: f32 = cell.parse().expect("logit cell");
            bits.push(v.to_bits());
            flat.push(v);
        }
    }
    for (_, _, label) in pending.iter() {
        labels.push(label);
    }
    pending.clear();
}

/// The same replay, but spoken over the socket: edge batches as ingest
/// CSVs, query batches as predict bodies, logits parsed back from text.
/// Rust's `{}` float formatting prints the shortest exactly-roundtripping
/// decimal, so the wire preserves every bit.
fn replay_over_wire(client: &mut Client, dataset: &Dataset) -> (Vec<u32>, f64) {
    let t_live = seen_end_time(dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_live);
    let mut pending_edges: Vec<TemporalEdge> = Vec::new();
    let mut pending_queries: Vec<(u32, f64, &Label)> = Vec::new();
    let mut bits = Vec::new();
    let mut flat: Vec<f32> = Vec::new();
    let mut labels: Vec<&Label> = Vec::new();

    for event in replay(&dataset.stream, &dataset.queries) {
        match event {
            Event::Edge(idx, edge) => {
                if idx >= prefix {
                    flush_queries_wire(
                        client,
                        &mut pending_queries,
                        &mut bits,
                        &mut flat,
                        &mut labels,
                    );
                    pending_edges.push(edge.clone());
                }
            }
            Event::Query(_, q) => {
                if q.time < t_live {
                    continue;
                }
                flush_edges_wire(client, &mut pending_edges);
                pending_queries.push((q.node, q.time, &q.label));
            }
        }
    }
    flush_edges_wire(client, &mut pending_edges);
    flush_queries_wire(client, &mut pending_queries, &mut bits, &mut flat, &mut labels);

    let out_dim = flat.len() / labels.len();
    let metric = splash::task::evaluate(
        dataset.task,
        &nn::Matrix::from_vec(labels.len(), out_dim, flat),
        &labels,
    );
    (bits, metric)
}

fn assert_wire_matches_in_process(shards: usize) {
    let (dataset, cfg) = fixture();
    let mut in_proc = trained_service(&dataset, &cfg, shards);
    let served = trained_service(&dataset, &cfg, shards);

    let handle = SplashServer::bind(served, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    let (wire_bits, wire_metric) = replay_over_wire(&mut client, &dataset);
    let (local_bits, local_metric) = replay_in_process(&mut in_proc, &dataset);

    assert!(!local_bits.is_empty(), "fixture produced no live queries");
    assert_eq!(
        wire_bits, local_bits,
        "wire-replayed predictions diverged bitwise from in-process (shards={shards})"
    );
    assert_eq!(
        wire_metric.to_bits(),
        local_metric.to_bits(),
        "streamed metric diverged: wire {wire_metric} vs in-process {local_metric}"
    );

    // The served engine saw exactly the same traffic as the in-process one.
    let served = handle.shutdown();
    let (wire_stats, local_stats) = (served.stats(), in_proc.stats());
    assert_eq!(wire_stats.edges_ingested, local_stats.edges_ingested);
    assert_eq!(wire_stats.queries_served, local_stats.queries_served);
    assert_eq!(wire_stats.deadlines_expired, 0);
    assert!(wire_stats.latency.count() > 0, "wire requests must be timed");
}

#[test]
fn wire_replay_is_bit_identical_single_engine() {
    assert_wire_matches_in_process(1);
}

#[test]
fn wire_replay_is_bit_identical_three_shards() {
    assert_wire_matches_in_process(3);
}

/// `/load` without `classes=` (the artifact's own `out_dim` caps the
/// labels) installs the same engine as an in-process `load_model` of the
/// same file: the replayed tail is bit-identical over the wire.
#[test]
fn wire_load_without_classes_serves_like_in_process_load() {
    let (dataset, cfg) = fixture();
    let dir = std::env::temp_dir().join(format!("splash-wire-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (model, edges, queries) =
        (dir.join("model.bin"), dir.join("edges.csv"), dir.join("queries.csv"));
    trained_service(&dataset, &cfg, 1).save_model("live", &model).unwrap();
    std::fs::write(&edges, datasets::edges_to_csv(&dataset)).unwrap();
    std::fs::write(&queries, datasets::queries_to_csv(&dataset)).unwrap();
    let empty = || SplashService::builder(cfg).build().unwrap();

    let mut in_proc = empty();
    in_proc.load_model("live", &model, &dataset).unwrap();
    let handle = SplashServer::bind(empty(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());
    let task = match dataset.task {
        datasets::Task::Anomaly => "anomaly",
        datasets::Task::Classification => "classification",
        datasets::Task::Affinity => "affinity",
    };
    let body = format!(
        "model={}\nedges={}\nqueries={}\ntask={task}\n",
        model.display(),
        edges.display(),
        queries.display()
    );
    let reply = client.request("POST", "/models/live/load", &[], &body);
    assert_eq!(reply.status, 200, "{}", reply.body);

    let (wire_bits, _) = replay_over_wire(&mut client, &dataset);
    let (local_bits, _) = replay_in_process(&mut in_proc, &dataset);
    assert!(!local_bits.is_empty(), "fixture produced no live queries");
    assert_eq!(wire_bits, local_bits, "wire-loaded model diverged bitwise from load_model");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A K-query `/predict` runs as one batched forward. Its rows must equal K
/// single-query predicts bit for bit — on a SPLASH slot and on an external
/// baseline slot — and it must count the same served queries.
#[test]
fn batched_wire_predict_matches_single_predicts_bitwise() {
    let (dataset, cfg) = fixture();
    let mut service = trained_service(&dataset, &cfg, 1);
    let variant = baselines::parse_variant("jodie+RF").unwrap();
    let engine = baselines::BaselineEngine::new(variant, &dataset, &cfg).unwrap();
    service.register_engine("base", Box::new(engine)).unwrap();
    let t_seen = seen_end_time(&dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let tail = &dataset.stream.edges()[prefix..prefix + 64];
    for slot in ["live", "base"] {
        service.ingest(slot, IngestRequest::new(tail)).unwrap();
    }
    let t0 = tail.last().unwrap().time;
    let known = service.model("live").unwrap().known_nodes() as u32;

    let handle = SplashServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());
    // 13 queries: three full 4-row tiles and a remainder, repeated nodes
    // and one timestamp shared by several queries.
    let queries: Vec<(u32, f64)> =
        (0..13u32).map(|i| ((i * 37) % known, t0 + (i / 2) as f64)).collect();
    for slot in ["live", "base"] {
        let path = format!("/models/{slot}/predict");
        let body: String = queries.iter().map(|(n, t)| format!("{n},{t}\n")).collect();
        let batched = client.request("POST", &path, &[], &body);
        assert_eq!(batched.status, 200, "{}", batched.body);
        let mut singles = String::new();
        for (n, t) in &queries {
            let reply = client.request("POST", &path, &[], &format!("{n},{t}\n"));
            assert_eq!(reply.status, 200, "{}", reply.body);
            singles.push_str(&reply.body);
        }
        assert_eq!(batched.body.lines().count(), queries.len());
        assert_eq!(batched.body, singles, "slot {slot}: batched rows differ from single predicts");
    }
    let served = handle.shutdown();
    assert_eq!(served.stats().queries_served, 2 * 2 * queries.len() as u64);
}

/// A rejected K-query `/predict` names the error a per-query loop would
/// stop at first: queries are checked in body order, each for an unknown
/// node (strict mode) and then for a past timestamp.
#[test]
fn batched_wire_predict_reports_the_first_error_in_body_order() {
    let (dataset, cfg) = fixture();
    let mut service = SplashService::builder(cfg).strict_nodes(true).build().unwrap();
    service
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .unwrap();
    let t0 = service.model_last_time("live").unwrap();
    let known = service.model("live").unwrap().known_nodes();
    let handle = SplashServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());
    let (past, unknown) = (format!("1,{}\n", t0 - 1.0), format!("{known},{t0}\n"));
    let ok = format!("2,{t0}\n");
    for (body, status, kind) in [
        (format!("{ok}{past}{unknown}"), 409, "PastQuery"),
        (format!("{ok}{unknown}{past}"), 422, "UnknownNode"),
    ] {
        let reply = client.request("POST", "/models/live/predict", &[], &body);
        assert_eq!((reply.status, reply.kind.as_deref()), (status, Some(kind)), "{}", reply.body);
    }
    // Nothing was served by the rejected batches.
    assert_eq!(handle.shutdown().stats().queries_served, 0);
}

/// The typed error taxonomy crosses the wire: status codes from
/// `SplashError::http_status`, machine-readable kinds in `x-splash-error`.
#[test]
fn error_taxonomy_maps_to_statuses_over_the_wire() {
    let (dataset, cfg) = fixture();
    let mut service = trained_service(&dataset, &cfg, 1);
    let tail: Vec<TemporalEdge> = {
        let t_seen = seen_end_time(&dataset, SEEN_FRAC);
        let prefix = dataset.stream.prefix_len_at(t_seen);
        dataset.stream.edges()[prefix..prefix + 8].to_vec()
    };
    service.ingest("live", IngestRequest::new(&tail)).unwrap();
    let t0 = tail.last().unwrap().time;

    let handle = SplashServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    // Unknown model → 404 UnknownModel.
    let reply = client.request("POST", "/models/nope/predict", &[], "0,1e12\n");
    assert_eq!((reply.status, reply.kind.as_deref()), (404, Some("UnknownModel")));

    // An edge behind the stream clock → 409 OutOfOrderEdge, and the
    // rejected batch leaves the model serving.
    let stale = [TemporalEdge::plain(0, 1, t0 - 1e6)];
    let reply = client.request("POST", "/models/live/ingest", &[], &edges_csv(&stale));
    assert_eq!((reply.status, reply.kind.as_deref()), (409, Some("OutOfOrderEdge")));

    // A query in the past → 409 PastQuery.
    let reply = client.request("POST", "/models/live/predict", &[], &format!("0,{}\n", t0 - 1e6));
    assert_eq!((reply.status, reply.kind.as_deref()), (409, Some("PastQuery")));

    // Labels without an online trainer → 409 OnlineDisabled.
    let reply = client.request(
        "POST",
        "/models/live/labels",
        &[],
        &format!("node,time,label\n0,{},1\n", t0 + 1.0),
    );
    assert_eq!((reply.status, reply.kind.as_deref()), (409, Some("OnlineDisabled")));
    let reply = client.request("POST", "/models/live/fine-tune", &[], "");
    assert_eq!((reply.status, reply.kind.as_deref()), (409, Some("OnlineDisabled")));

    // The model list (with per-slot engine kind) and a live prediction
    // still answer after the errors.
    let reply = client.request("GET", "/models", &[], "");
    assert_eq!(
        (reply.status, reply.body.as_str()),
        (200, "live engine=splash shards=1 online=off durable=off\n")
    );
    let reply = client.request("POST", "/models/live/predict", &[], &format!("3,{t0}\n"));
    assert_eq!(reply.status, 200, "{}", reply.body);
    handle.shutdown();
}

/// A wire ingest whose edges lack the model's edge-feature columns is
/// refused with 400 `EdgeFeatureWidth` before any state changes — such an
/// edge used to be accepted and then panic the engine thread on the next
/// predict — and the server keeps answering with bit-identical logits.
#[test]
fn featureless_ingest_is_rejected_and_server_keeps_serving() {
    let dataset = truncate_to_available(
        &datasets::generate_anomaly(&datasets::AnomalySpec {
            name: "wiki",
            num_users: 60,
            num_items: 12,
            num_edges: 1_500,
            edge_feat_dim: 8,
            abnormal_frac: 0.05,
            burst: 5.0,
            seed: 7,
        }),
        0.5,
    );
    let (_, cfg) = fixture();
    let service = trained_service(&dataset, &cfg, 1);
    let t0 = service.model_last_time("live").unwrap();
    let handle = SplashServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    let query = format!("3,{}\n", t0 + 1.0);
    let before = client.request("POST", "/models/live/predict", &[], &query);
    assert_eq!(before.status, 200, "{}", before.body);

    let featureless = [TemporalEdge::plain(3, 61, t0 + 0.5)];
    let reply = client.request("POST", "/models/live/ingest", &[], &edges_csv(&featureless));
    assert_eq!((reply.status, reply.kind.as_deref()), (400, Some("EdgeFeatureWidth")));

    let after = client.request("POST", "/models/live/predict", &[], &query);
    assert_eq!((after.status, after.body), (200, before.body));
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Malformed-request fuzz-lite: the server outlives every request the
// grammar below can produce. One shared server across all cases — a leak
// or a dead worker in any case fails every later liveness probe.

fn fuzz_server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        let service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
        let cfg = ServerConfig {
            workers: 2,
            queue_depth: 8,
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        SplashServer::bind(service, "127.0.0.1:0", cfg).unwrap()
    })
}

/// One malformed exchange: bytes to send, and the status the server must
/// answer (`None`: the server may only disconnect — truncation cases).
#[derive(Debug, Clone)]
struct MalformedCase {
    payload: Vec<u8>,
    expect: Option<u16>,
}

fn malformed_cases(filler: u8) -> Vec<MalformedCase> {
    let junk = (b'a' + filler % 26) as char;
    vec![
        MalformedCase { payload: b"GARBAGE\r\n\r\n".to_vec(), expect: Some(400) },
        MalformedCase { payload: b"GET /stats\r\n\r\n".to_vec(), expect: Some(400) },
        MalformedCase { payload: b"GET /stats HTTP/2.0\r\n\r\n".to_vec(), expect: Some(400) },
        MalformedCase {
            payload: format!("BREW{junk} /stats HTTP/1.1\r\n\r\n").into_bytes(),
            expect: Some(405),
        },
        MalformedCase {
            payload: format!("GET /no-such-{junk} HTTP/1.1\r\n\r\n").into_bytes(),
            expect: Some(404),
        },
        MalformedCase {
            payload: b"POST /stats HTTP/1.1\r\ncontent-length: 0\r\n\r\n".to_vec(),
            expect: Some(405),
        },
        MalformedCase {
            payload: b"POST /models/m/ingest HTTP/1.1\r\ncontent-length: banana\r\n\r\n".to_vec(),
            expect: Some(400),
        },
        // A content-length larger than the server will ever read.
        MalformedCase {
            payload: b"POST /models/m/ingest HTTP/1.1\r\ncontent-length: 999999999999\r\n\r\n"
                .to_vec(),
            expect: Some(413),
        },
        MalformedCase {
            payload: b"POST /models/m/ingest HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
                .to_vec(),
            expect: Some(400),
        },
        MalformedCase {
            payload: b"GET /stats HTTP/1.1\r\nthis header has no colon\r\n\r\n".to_vec(),
            expect: Some(400),
        },
        MalformedCase { payload: b"GET /st\xffats HTTP/1.1\r\n\r\n".to_vec(), expect: Some(400) },
        // A header line past any sane cap.
        MalformedCase {
            payload: {
                let mut p = b"GET /".to_vec();
                p.extend(std::iter::repeat_n(junk as u8, 9000));
                p.extend_from_slice(b" HTTP/1.1\r\n\r\n");
                p
            },
            expect: Some(431),
        },
        // Bad CSV into a real route: rejected at the body parser (the
        // first line is the header, so the garbage row must come second).
        MalformedCase {
            payload: b"POST /models/m/ingest HTTP/1.1\r\ncontent-length: 13\r\n\r\nhdr\nnot,a,csv"
                .to_vec(),
            expect: Some(400),
        },
        // Truncated mid-request-line, then hang up.
        MalformedCase { payload: b"GET /sta".to_vec(), expect: None },
        // A content-length that promises more than the client ever writes.
        MalformedCase {
            payload: b"POST /models/m/ingest HTTP/1.1\r\ncontent-length: 50\r\n\r\nabc".to_vec(),
            expect: None,
        },
        // Partial headers, then hang up.
        MalformedCase {
            payload: b"POST /models/m/ingest HTTP/1.1\r\ncontent-le".to_vec(),
            expect: None,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every malformed request draws a typed 4xx (or a clean disconnect for
    /// truncations) and the server still answers `/healthz` and `/stats`
    /// afterwards — no panic, no wedged worker.
    #[test]
    fn malformed_requests_never_kill_the_server(
        case_idx in 0usize..16,
        filler in any::<u32>(),
    ) {
        let cases = malformed_cases(filler as u8);
        let case = &cases[case_idx % cases.len()];
        let addr = fuzz_server().addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.write_all(&case.payload).expect("write payload");
        match case.expect {
            Some(status) => {
                let reply = read_reply(&mut stream);
                prop_assert_eq!(
                    reply.status, status,
                    "payload {:?}: got {} {:?}",
                    String::from_utf8_lossy(&case.payload), reply.status, reply.body
                );
                prop_assert!(reply.kind.is_some(), "typed errors carry x-splash-error");
            }
            None => {
                // Truncation: hang up mid-request; the server must just
                // drop the connection.
                stream.shutdown(Shutdown::Write).ok();
            }
        }
        drop(stream);

        // Liveness probe on a fresh connection.
        let mut probe = Client::connect(addr);
        let reply = probe.request("GET", "/healthz", &[], "");
        prop_assert_eq!(reply.status, 200);
        let reply = probe.request("GET", "/stats", &[], "");
        prop_assert_eq!(reply.status, 200);
    }
}

// ---------------------------------------------------------------------------
// Backpressure, deadlines, histogram determinism.

/// A saturated queue sheds with `429 QueueFull`; every accepted request
/// completes; the shed counter matches the rejections exactly.
#[test]
fn saturated_queue_sheds_typed_rejections() {
    let service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
    let cfg = ServerConfig {
        workers: 8,
        queue_depth: 2,
        deadline: Duration::from_secs(10),
        allow_test_delay: true,
        ..ServerConfig::default()
    };
    let handle = SplashServer::bind(service, "127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 8;
    let replies: Vec<(u16, Option<String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    // The engine sleeps 150ms per request, so 8 concurrent
                    // requests against a depth-2 queue must overflow it.
                    let reply =
                        client.request("GET", "/stats", &[("x-splash-delay-ms", "150")], "");
                    (reply.status, reply.kind)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });

    let served = replies.iter().filter(|(s, _)| *s == 200).count();
    let shed = replies.iter().filter(|(s, _)| *s == 429).count();
    assert_eq!(served + shed, CLIENTS, "only 200 or 429 may come back: {replies:?}");
    assert!(served >= 1, "at least the in-flight request must complete");
    assert!(shed >= 1, "a depth-2 queue cannot absorb 8 concurrent slow requests");
    for (status, kind) in &replies {
        if *status == 429 {
            assert_eq!(kind.as_deref(), Some("QueueFull"));
        }
    }
    assert_eq!(handle.requests_shed(), shed as u64);

    // The shed counter lives in the shared telemetry registry, so every
    // surface reads the same cell: the rendered stats, the Prometheus
    // exposition, and the post-shutdown `ServiceStats` snapshot.
    let mut client = Client::connect(addr);
    let reply = client.request("GET", "/stats", &[], "");
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains(&format!("{shed} shed")), "{}", reply.body);
    let metrics = client.request("GET", "/metrics", &[], "");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains(&format!("splash_requests_shed_total {shed}\n")),
        "{}",
        metrics.body
    );

    let service = handle.shutdown();
    let stats = service.stats();
    assert_eq!(stats.requests_shed, shed as u64);
    // Every executed request was timed: the slow ones plus the final probe.
    assert_eq!(stats.latency.count(), served as u64 + 1);
    assert_eq!(stats.deadlines_expired, 0);
}

/// A request that outlives its deadline is answered `504 DeadlineExpired`
/// without executing, and the service counts it.
#[test]
fn expired_deadline_is_typed_and_counted() {
    let service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
    let cfg = ServerConfig {
        workers: 2,
        queue_depth: 8,
        deadline: Duration::from_millis(50),
        allow_test_delay: true,
        ..ServerConfig::default()
    };
    let handle = SplashServer::bind(service, "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr());

    let reply = client.request("GET", "/stats", &[("x-splash-delay-ms", "200")], "");
    assert_eq!((reply.status, reply.kind.as_deref()), (504, Some("DeadlineExpired")));

    // The next request is on time and sees the counter.
    let reply = client.request("GET", "/stats", &[], "");
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains("1 past deadline"), "{}", reply.body);

    let service = handle.shutdown();
    let stats = service.stats();
    assert_eq!(stats.deadlines_expired, 1);
    assert_eq!(stats.latency.count(), 1, "an expired request must not be timed as served");
}

/// Percentiles of the fixed-bucket histogram are a pure function of the
/// recorded sequence — pinned against hand-computed bucket bounds.
#[test]
fn histogram_percentiles_are_deterministic() {
    let mut h = LatencyHistogram::default();
    assert_eq!((h.count(), h.p50_ns(), h.max_ns()), (0, 0, 0));

    for _ in 0..100 {
        h.record_ns(1_500); // bucket 1: bound 2_048
    }
    for _ in 0..10 {
        h.record_ns(1_000_000); // bucket 10: bound 1_048_576
    }
    h.record_ns(100_000_000); // bucket 17: bound 134_217_728

    assert_eq!(h.count(), 111);
    assert_eq!(h.p50_ns(), 2_048);
    assert_eq!(h.p99_ns(), 1_048_576);
    assert_eq!(h.p999_ns(), 134_217_728);
    assert_eq!(h.max_ns(), 100_000_000);
    assert_eq!(h.mean_ns(), (100 * 1_500 + 10 * 1_000_000 + 100_000_000) / 111);

    // Recording the same sequence again moves no percentile: the quantile
    // read is scale-invariant over bucket counts.
    let snapshot = h;
    for _ in 0..100 {
        h.record_ns(1_500);
    }
    for _ in 0..10 {
        h.record_ns(1_000_000);
    }
    h.record_ns(100_000_000);
    assert_eq!(
        (h.p50_ns(), h.p99_ns(), h.p999_ns()),
        (snapshot.p50_ns(), snapshot.p99_ns(), snapshot.p999_ns()),
    );

    // Sub-microsecond samples land in bucket 0.
    let mut tiny = LatencyHistogram::default();
    tiny.record_ns(0);
    tiny.record_ns(1_023);
    assert_eq!((tiny.count(), tiny.p50_ns(), tiny.p999_ns()), (2, 1_024, 1_024));
}

// ---------------------------------------------------------------------------
// Observability surface: /metrics, /statz.json, /trace, worker-direct probes.

/// The value of an unlabelled sample line in a Prometheus dump.
fn metric_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{exposition}"))
}

/// One `u64` field out of a flat JSON object/array body.
fn json_field(body: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    body.match_indices(&pat)
        .map(|(i, _)| {
            body[i + pat.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("numeric json field")
        })
        .collect()
}

/// `GET /metrics` renders the same counters the stats snapshot carries —
/// one registry behind every surface — and worker-direct probes
/// (`/healthz`, `/metrics` itself) are counted without ever entering the
/// engine queue.
#[test]
fn metrics_exposition_agrees_with_stats() {
    let (dataset, cfg) = fixture();
    let mut service = trained_service(&dataset, &cfg, 2);
    let tail: Vec<TemporalEdge> = {
        let t_seen = seen_end_time(&dataset, SEEN_FRAC);
        let prefix = dataset.stream.prefix_len_at(t_seen);
        dataset.stream.edges()[prefix..prefix + 8].to_vec()
    };
    service.ingest("live", IngestRequest::new(&tail)).unwrap();
    let t0 = tail.last().unwrap().time;

    let handle = SplashServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());

    for _ in 0..3 {
        let reply = client.request("POST", "/models/live/predict", &[], &format!("3,{t0}\n"));
        assert_eq!(reply.status, 200, "{}", reply.body);
    }
    for _ in 0..2 {
        assert_eq!(client.request("GET", "/healthz", &[], "").status, 200);
    }

    let reply = client.request("GET", "/metrics", &[], "");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.ctype.as_deref(), Some("text/plain; version=0.0.4; charset=utf-8"));
    let body = &reply.body;
    assert!(body.contains("# TYPE splash_queries_served_total counter"), "{body}");
    assert!(body.contains("# TYPE splash_request_latency_seconds histogram"), "{body}");
    assert_eq!(metric_value(body, "splash_queries_served_total"), 3);
    assert_eq!(metric_value(body, "splash_edges_ingested_total"), 8);
    assert_eq!(metric_value(body, "splash_healthz_requests_total"), 2);
    assert_eq!(metric_value(body, "splash_models"), 1);
    assert_eq!(metric_value(body, "splash_shard_engines"), 2);
    // The per-shard series carry the model label; the queries land on the
    // owning shard, so the labelled series sum to the family total.
    for shard in 0..2 {
        assert!(
            body.contains(&format!("splash_shard_queries_total{{model=\"live\",shard=\"{shard}\"}}")),
            "{body}"
        );
    }
    let shard_queries: u64 = body
        .lines()
        .filter(|l| l.starts_with("splash_shard_queries_total{model=\"live\""))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(shard_queries, 3);

    // Worker-direct routes never enter the engine queue: the request
    // histogram only counts the 3 predicts, while the healthz probes have
    // their own (non-queued) histogram.
    let snapshot = handle.telemetry();
    assert_eq!(snapshot.request_latency.snapshot().count(), 3);
    assert_eq!(snapshot.healthz_latency.snapshot().count(), 2);

    // The post-shutdown stats snapshot reads the same registry cells.
    let service = handle.shutdown();
    let stats = service.stats();
    assert_eq!(stats.queries_served, 3);
    assert_eq!(stats.edges_ingested, 8);
    assert_eq!(stats.latency.count(), 3);
}

/// `GET /trace` separates queue-wait from engine-execute: a request
/// stalled behind a slow one shows its stall as queue time, not execute
/// time, and the slow one shows the inverse.
#[test]
fn trace_separates_queue_wait_from_execute() {
    let service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
    let cfg = ServerConfig {
        workers: 4,
        queue_depth: 8,
        deadline: Duration::from_secs(10),
        allow_test_delay: true,
        ..ServerConfig::default()
    };
    let handle = SplashServer::bind(service, "127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        let slow = scope.spawn(move || {
            let mut c = Client::connect(addr);
            c.request("GET", "/stats", &[("x-splash-delay-ms", "200")], "").status
        });
        // Arrive while the slow request holds the (single) engine thread.
        std::thread::sleep(Duration::from_millis(50));
        let fast = scope.spawn(move || {
            let mut c = Client::connect(addr);
            c.request("GET", "/stats", &[], "").status
        });
        assert_eq!(slow.join().unwrap(), 200);
        assert_eq!(fast.join().unwrap(), 200);
    });

    let mut client = Client::connect(addr);
    let reply = client.request("GET", "/trace?n=10", &[], "");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.ctype.as_deref(), Some("application/json"));
    let waits = json_field(&reply.body, "queue_wait_ns");
    let execs = json_field(&reply.body, "execute_ns");
    assert_eq!(waits.len(), 2, "{}", reply.body);
    // The injected delay sleeps before the deadline check, so it is
    // accounted as queue time — and the fast request genuinely queued
    // behind it. Both spans show their stall as queue-wait (the slow one
    // its full 200ms, the fast one the ~150ms left when it arrived) while
    // the /stats execution itself stays fast.
    assert!(waits.iter().all(|&ns| ns >= 100_000_000), "waits {waits:?}");
    assert!(execs.iter().all(|&ns| ns < 100_000_000), "execs {execs:?}");

    // Both spans carry the route and a 200 outcome.
    assert_eq!(reply.body.matches("\"route\":\"stats\"").count(), 2, "{}", reply.body);
    assert_eq!(reply.body.matches("\"outcome\":\"ok\"").count(), 2, "{}", reply.body);
    handle.shutdown();
}

/// `GET /statz.json?timing=0` is byte-deterministic: two servers fed the
/// identical request sequence produce identical bodies, because every
/// timing-dependent field is gated off.
#[test]
fn statz_json_is_byte_identical_with_timing_gated() {
    let dump = || {
        let service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
        let handle = SplashServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr());
        for _ in 0..3 {
            assert_eq!(client.request("GET", "/healthz", &[], "").status, 200);
        }
        assert_eq!(client.request("GET", "/stats", &[], "").status, 200);
        let gated = client.request("GET", "/statz.json?timing=0", &[], "");
        assert_eq!(gated.status, 200);
        assert_eq!(gated.ctype.as_deref(), Some("application/json"));
        let timed = client.request("GET", "/statz.json", &[], "");
        handle.shutdown();
        (gated.body, timed.body)
    };
    let (gated_a, timed_a) = dump();
    let (gated_b, _) = dump();
    assert_eq!(gated_a, gated_b, "timing-gated statz must be byte-identical across runs");
    assert!(!gated_a.contains("splash_request_latency_seconds"), "{gated_a}");
    assert!(timed_a.contains("splash_request_latency_seconds"), "{timed_a}");
    assert!(gated_a.contains("\"splash_healthz_requests_total\":3"), "{gated_a}");
}

/// Keep-alive and `connection: close` both work; a second request on a
/// kept-alive connection reuses the same socket.
#[test]
fn keep_alive_serves_sequential_requests() {
    let service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
    let handle = SplashServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut client = Client::connect(handle.addr());
    for _ in 0..5 {
        let reply = client.request("GET", "/healthz", &[], "");
        assert_eq!((reply.status, reply.body.as_str()), (200, "ok\n"));
    }

    // connection: close is honored — the server hangs up after answering.
    let reply = client.request("GET", "/healthz", &[("connection", "close")], "");
    assert_eq!(reply.status, 200);
    let mut probe = [0u8; 1];
    client.stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(client.stream.read(&mut probe).unwrap_or(0), 0, "server must close the socket");

    handle.shutdown();
}
