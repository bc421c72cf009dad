//! Behavioral contract of ring partitioning (sharding): artifacts saved by
//! a sharded engine restore that engine at any shard count, corruption is
//! typed, the service façade serves sharded engines bit-identically to
//! unsharded ones, and the late-edge policy matrix holds under sharding.

use ctdg::{Label, PropertyQuery, TemporalEdge};
use datasets::Dataset;
use splash::{
    seen_end_time, truncate_to_available, FeatureProcess, IngestRequest,
    LateEdgePolicy, PredictRequest, PredictResponse, SplashConfig, SplashError, SplashService,
    StreamingPredictor, SEEN_FRAC,
};

fn fixture() -> (Dataset, SplashConfig, Vec<TemporalEdge>) {
    let dataset = truncate_to_available(&datasets::synthetic_shift(40, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;
    let t_seen = seen_end_time(&dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let tail = dataset.stream.edges()[prefix..].to_vec();
    assert!(tail.len() > 20, "fixture too small");
    (dataset, cfg, tail)
}

fn spread_queries(t0: f64, n_nodes: u32) -> Vec<PropertyQuery> {
    (0..32u32)
        .map(|i| PropertyQuery {
            node: (i * 7) % (n_nodes + 12), // includes never-seen ids
            time: t0 + i as f64,
            label: Label::Class(0),
        })
        .collect()
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("splash-shard-{tag}-{}.bin", std::process::id()))
}

/// Loads the artifact at `path` and serves it from `shards` partitions.
fn load(path: &std::path::Path, dataset: &Dataset, shards: usize) -> Result<StreamingPredictor, SplashError> {
    StreamingPredictor::try_from_saved(splash::load_model(path)?, dataset)?.reshard(shards)
}

/// An engine saved at N shards loads and serves identically at M shards —
/// for M below, equal to, and above N — and identically to the unsharded
/// engine that never restarted, both right after the load and after the
/// rest of the stream. This is the persistence half of the bit-identity
/// acceptance contract.
#[test]
fn sharded_artifact_reshards_on_load_bitwise() {
    let (dataset, cfg, tail) = fixture();
    let (live, rest) = tail.split_at(tail.len() / 2);
    let mut single =
        StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Positional);
    let mut sharded = single.clone().reshard(3).unwrap();
    sharded.try_push_edges(live).unwrap();
    single.try_push_edges(live).unwrap();

    let path = tmp("reshard");
    sharded.save(&path).unwrap();
    // One artifact, the same bytes an unsharded engine in the same state
    // writes: the rings are stored merged.
    let single_path = tmp("reshard-single");
    single.save(&single_path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&single_path).unwrap());

    let n_nodes = dataset.stream.num_nodes() as u32;
    let saved_at = spread_queries(single.last_time(), n_nodes);
    let expected_saved = single.try_predict_batch(&saved_at).unwrap();
    single.try_push_edges(rest).unwrap();
    let after = spread_queries(single.last_time(), n_nodes);
    let expected_after = single.try_predict_batch(&after).unwrap();

    for m in [1usize, 2, 3, 7] {
        let mut restored = load(&path, &dataset, m).unwrap();
        assert_eq!(restored.num_shards(), m);
        let got = restored.try_predict_batch(&saved_at).unwrap();
        assert_eq!(
            got.data(),
            expected_saved.data(),
            "engine saved at 3 shards diverged when loaded at {m}"
        );
        restored.try_push_edges(rest).unwrap();
        let got = restored.try_predict_batch(&after).unwrap();
        assert_eq!(
            got.data(),
            expected_after.data(),
            "engine saved at 3 shards diverged served on at {m}"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&single_path).ok();
}

/// The artifact a sharded engine saves is a plain single-engine artifact:
/// `load_model` + `StreamingPredictor::try_from_saved` restore it, and the
/// restored engine serves on exactly like the sharded one.
#[test]
fn shared_model_file_is_independently_loadable() {
    let (dataset, cfg, tail) = fixture();
    let (live, rest) = tail.split_at(tail.len() / 2);
    let mut sharded = StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random)
        .reshard(2)
        .unwrap();
    sharded.try_push_edges(live).unwrap();
    let path = tmp("standalone");
    sharded.save(&path).unwrap();

    let saved = splash::load_model(&path).unwrap();
    let mut solo = StreamingPredictor::try_from_saved(saved, &dataset).unwrap();
    assert_eq!(solo.last_time(), sharded.last_time());
    sharded.try_push_edges(rest).unwrap();
    solo.try_push_edges(rest).unwrap();
    let queries = spread_queries(sharded.last_time(), dataset.stream.num_nodes() as u32);
    let expected = sharded.try_predict_batch(&queries).unwrap();
    let got = solo.try_predict_batch(&queries).unwrap();
    assert_eq!(got.data(), expected.data(), "single engine diverged from the sharded one");
    std::fs::remove_file(&path).ok();
}

/// Damage to an artifact a sharded engine saved is typed through
/// `load`: truncation and a flipped byte load as `CorruptModel` (the
/// flip names the checksum), a foreign format revision and a retired
/// `SPLASHS` shard manifest as `PersistVersionMismatch`, a missing file as
/// `Io` — never a panic, never a half-built engine. Section-by-section
/// coverage lives in the `persist` unit tests.
#[test]
fn corrupt_sharded_artifacts_are_typed() {
    let (dataset, cfg, tail) = fixture();
    let mut sharded = StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random)
        .reshard(2)
        .unwrap();
    sharded.try_push_edges(&tail[..tail.len() / 2]).unwrap();
    let path = tmp("corrupt");
    sharded.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    for keep in [0usize, 9, 13, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let err = load(&path, &dataset, 2).unwrap_err();
        assert!(
            matches!(err, SplashError::CorruptModel { .. }),
            "truncation to {keep} bytes: {err:?}"
        );
    }

    // A foreign format revision reports the found/supported pair.
    let mut versioned = bytes.clone();
    versioned[8..12].copy_from_slice(&42u32.to_le_bytes());
    std::fs::write(&path, &versioned).unwrap();
    match load(&path, &dataset, 2).unwrap_err() {
        SplashError::PersistVersionMismatch { found, supported } => {
            assert_eq!(found, 42);
            assert_eq!(supported, 3);
        }
        other => panic!("expected PersistVersionMismatch, got {other:?}"),
    }

    // A retired shard manifest (magic `SPLASHS`, revision 2).
    let mut manifest = b"SPLASHS\x01".to_vec();
    manifest.extend_from_slice(&2u32.to_le_bytes());
    manifest.extend_from_slice(&2u64.to_le_bytes());
    std::fs::write(&path, &manifest).unwrap();
    let err = load(&path, &dataset, 2).unwrap_err();
    assert!(
        matches!(err, SplashError::PersistVersionMismatch { found: 2, supported: 3 }),
        "{err:?}"
    );

    // A flipped byte fails the checksum, by name.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    std::fs::write(&path, &flipped).unwrap();
    match load(&path, &dataset, 2).unwrap_err() {
        SplashError::CorruptModel { what } => assert!(what.contains("checksum"), "{what}"),
        other => panic!("expected CorruptModel, got {other:?}"),
    }

    // A missing file is plain I/O.
    std::fs::remove_file(&path).unwrap();
    let err = load(&path, &dataset, 2).unwrap_err();
    assert!(matches!(err, SplashError::Io(_)), "{err:?}");
}

/// The service façade over a sharded engine: ingest/predict/batch are
/// bit-identical to an unsharded service, `model` returns the engine at
/// any shard count, and the counters mean the same at every count.
#[test]
fn sharded_service_matches_single_service_bitwise() {
    let (dataset, cfg, tail) = fixture();
    let mut single = SplashService::builder(cfg).build().unwrap();
    single
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .unwrap();
    let mut sharded = SplashService::builder(cfg).shards(3).build().unwrap();
    sharded
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .unwrap();

    let a = single.ingest("live", IngestRequest::new(&tail)).unwrap();
    let b = sharded.ingest("live", IngestRequest::new(&tail)).unwrap();
    assert_eq!(a, b, "ingest reports diverged");

    let t0 = b.last_time;
    let queries = spread_queries(t0, dataset.stream.num_nodes() as u32);
    let mut resp_a = PredictResponse::default();
    let mut resp_b = PredictResponse::default();
    for q in &queries {
        let req = PredictRequest::new(q.node, q.time);
        single.predict_into("live", req, &mut resp_a).unwrap();
        sharded.predict_into("live", req, &mut resp_b).unwrap();
        assert_eq!(resp_a.logits, resp_b.logits, "node {} diverged", q.node);
    }
    let batch_a = single.predict_batch("live", &queries).unwrap();
    let batch_b = sharded.predict_batch("live", &queries).unwrap();
    assert_eq!(batch_a.data(), batch_b.data(), "batched path diverged");
    let mut batch_c = nn::Matrix::default();
    sharded.predict_batch_into("live", &queries, &mut batch_c).unwrap();
    assert_eq!(batch_c.data(), batch_a.data(), "batch-into path diverged");

    // One engine type: `model` returns it at any shard count.
    assert_eq!(single.model("live").unwrap().num_shards(), 1);
    assert_eq!(sharded.model("live").unwrap().num_shards(), 3);
    assert_eq!(single.model_last_time("live").unwrap(), t0);
    assert_eq!(sharded.model_last_time("live").unwrap(), t0);

    // Per-shard counters: every edge lands on 1–2 owner shards, every
    // query on exactly one; the witness watches each edge exactly once,
    // globally (not per shard).
    let stats = sharded.shard_stats("live").unwrap();
    assert_eq!(stats.len(), 3);
    let owned: u64 = stats.iter().map(|s| s.owned_edges).sum();
    assert!(owned >= tail.len() as u64 && owned <= 2 * tail.len() as u64, "{owned}");
    let served: u64 = stats.iter().map(|s| s.queries_served).sum();
    // predict_into + predict_batch + predict_batch_into passes above.
    assert_eq!(served, 3 * queries.len() as u64);
    // The unsharded engine reports the same counters, as one shard.
    let stats = single.shard_stats("live").unwrap();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].owned_edges, tail.len() as u64);
    assert_eq!(stats[0].queries_served, 2 * queries.len() as u64);

    // Service-level counters count shard engines and the global witness.
    assert_eq!(sharded.stats().shards, 3);
    assert_eq!(single.stats().shards, 1);
    assert_eq!(sharded.stats().edges_witnessed, tail.len() as u64);
    assert_eq!(single.stats().edges_witnessed, tail.len() as u64);
    let rendered = sharded.stats().to_string();
    assert!(rendered.contains("shard engines  : 3"), "{rendered}");
    assert!(rendered.contains(&format!("edges witnessed: {}", tail.len())), "{rendered}");
    assert!(rendered.contains("edges ingested"), "{rendered}");
}

/// Save/load through the service registry, across engine forms: a sharded
/// slot's artifact hot-swaps back bit-identically into services configured
/// with *different* shard counts (including 1), and a single-engine
/// artifact loads into a sharded service. Each loaded slot carries on
/// from the saved state, without the stream it had already seen.
#[test]
fn service_registry_roundtrips_sharded_artifacts() {
    let (dataset, cfg, tail) = fixture();
    let (live, rest) = tail.split_at(tail.len() / 2);
    let mut origin = SplashService::builder(cfg).shards(3).build().unwrap();
    origin
        .train_model_with_process("live", &dataset, FeatureProcess::Positional)
        .unwrap();
    origin.ingest("live", IngestRequest::new(live)).unwrap();
    let path = tmp("svc");
    origin.save_model("live", &path).unwrap();
    let t_saved = origin.model_last_time("live").unwrap() + 1.0;
    let at_save = origin.predict("live", PredictRequest::new(5, t_saved)).unwrap();
    origin.ingest("live", IngestRequest::new(rest)).unwrap();
    let t_q = origin.model_last_time("live").unwrap() + 1.0;
    let expected = origin.predict("live", PredictRequest::new(5, t_q)).unwrap();

    for shards in [1usize, 2, 5] {
        let mut svc = SplashService::builder(cfg).shards(shards).build().unwrap();
        svc.load_model("serving", &path, &dataset).unwrap();
        let got = svc.predict("serving", PredictRequest::new(5, t_saved)).unwrap();
        assert_eq!(at_save.logits, got.logits, "diverged at load at {shards} shards");
        svc.ingest("serving", IngestRequest::new(rest)).unwrap();
        let got = svc.predict("serving", PredictRequest::new(5, t_q)).unwrap();
        assert_eq!(expected.logits, got.logits, "diverged at {shards} shards");
        assert_eq!(svc.stats().shards, shards as u64);
    }

    // Single-engine artifact → sharded service.
    let single_path = tmp("svc-single");
    let mut single_svc = SplashService::builder(cfg).build().unwrap();
    single_svc
        .train_model_with_process("live", &dataset, FeatureProcess::Positional)
        .unwrap();
    single_svc.ingest("live", IngestRequest::new(live)).unwrap();
    single_svc.save_model("live", &single_path).unwrap();
    let mut svc = SplashService::builder(cfg).shards(4).build().unwrap();
    svc.load_model("serving", &single_path, &dataset).unwrap();
    svc.ingest("serving", IngestRequest::new(rest)).unwrap();
    let got = svc.predict("serving", PredictRequest::new(5, t_q)).unwrap();
    assert_eq!(expected.logits, got.logits, "single-engine artifact diverged sharded");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&single_path).ok();
}

/// The `DropLate` policy under sharding: a messy batch leaves a 3-shard
/// service exactly where the chronologically filtered stream leaves a
/// single-engine service.
#[test]
fn sharded_drop_late_matches_filtered_stream() {
    let (dataset, cfg, tail) = fixture();
    let mut messy = SplashService::builder(cfg)
        .late_edge_policy(LateEdgePolicy::DropLate)
        .shards(3)
        .build()
        .unwrap();
    messy
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .unwrap();
    let mut clean = SplashService::builder(cfg).build().unwrap();
    clean
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .unwrap();

    let mut batch = Vec::new();
    let mut expect_dropped = 0usize;
    for (i, edge) in tail.iter().enumerate() {
        batch.push(edge.clone());
        if i % 4 == 1 {
            let mut stale = edge.clone();
            stale.time = edge.time - 1e6;
            batch.push(stale);
            expect_dropped += 1;
        }
    }
    let report = messy.ingest("live", IngestRequest::new(&batch)).unwrap();
    assert_eq!(report.dropped, expect_dropped);
    assert_eq!(report.ingested, tail.len());
    clean.ingest("live", IngestRequest::new(&tail)).unwrap();

    let t0 = report.last_time;
    let mut resp_m = PredictResponse::default();
    let mut resp_c = PredictResponse::default();
    for node in 0..45u32 {
        let req = PredictRequest::new(node, t0 + node as f64);
        messy.predict_into("live", req, &mut resp_m).unwrap();
        clean.predict_into("live", req, &mut resp_c).unwrap();
        assert_eq!(resp_m.logits, resp_c.logits, "node {node} diverged");
    }
}

/// Engine-level edge cases: empty batches are no-ops with matching
/// shapes, a rejected batch leaves every shard untouched (atomicity), and
/// a zero shard count is a typed config error at the service builder.
#[test]
fn sharded_edge_cases_are_typed_and_atomic() {
    let (dataset, cfg, tail) = fixture();
    let mut sharded = StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random)
        .reshard(3)
        .unwrap();
    sharded.try_push_edges(&[]).unwrap();
    assert_eq!(sharded.try_predict_batch(&[]).unwrap().shape(), (0, 0));

    sharded.try_push_edges(&tail).unwrap();
    let t0 = sharded.last_time();
    let before = sharded.try_predict(3, t0 + 1.0).unwrap();

    // A batch that goes backwards mid-way is rejected atomically.
    let bad = [
        TemporalEdge::plain(0, 1, t0 + 2.0),
        TemporalEdge::plain(1, 2, t0 - 100.0),
    ];
    let err = sharded.try_push_edges(&bad).unwrap_err();
    assert!(matches!(err, SplashError::OutOfOrderEdge { .. }), "{err:?}");
    assert_eq!(sharded.last_time(), t0, "clock must not advance on a rejected batch");
    assert_eq!(
        before,
        sharded.try_predict(3, t0 + 1.0).unwrap(),
        "rejected batch must not mutate any shard"
    );

    // A past-time query in a batch rejects the whole batch.
    let err = sharded
        .try_predict_batch(&[
            PropertyQuery { node: 0, time: t0 + 1.0, label: Label::Class(0) },
            PropertyQuery { node: 1, time: t0 - 50.0, label: Label::Class(0) },
        ])
        .unwrap_err();
    assert!(matches!(err, SplashError::PastQuery { .. }), "{err:?}");

    let err = SplashService::builder(cfg).shards(0).build().unwrap_err();
    assert!(matches!(err, SplashError::InvalidConfig { .. }), "{err:?}");
}
