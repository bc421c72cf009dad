//! Behavioral contract of the `SplashService` façade: typed errors leave
//! the process (and the model state) intact, the late-edge policy matrix
//! behaves as documented, hot-swapped models restore bit-for-bit, and the
//! façade never changes a prediction relative to the streaming core.

use ctdg::{Label, PropertyQuery, TemporalEdge};
use datasets::Dataset;
use splash::{
    seen_end_time, truncate_to_available, FeatureProcess, IngestRequest, LateEdgePolicy,
    PredictRequest, PredictResponse, SplashConfig, SplashError, SplashService,
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

fn service_with(
    dataset: &Dataset,
    cfg: &SplashConfig,
    policy: LateEdgePolicy,
) -> SplashService {
    let mut service = SplashService::builder(*cfg)
        .late_edge_policy(policy)
        .build()
        .unwrap();
    service
        .train_model_with_process("live", dataset, FeatureProcess::Random)
        .unwrap();
    service
}

/// Under the `Error` policy a bad batch is rejected wholesale, the model
/// state stays exactly as it was, and the service keeps serving — the
/// process-abort the old `assert!` surface caused is gone.
#[test]
fn error_policy_rejects_batch_and_service_survives() {
    let (dataset, cfg, tail) = fixture();
    let mut service = service_with(&dataset, &cfg, LateEdgePolicy::Error);
    let report = service.ingest("live", IngestRequest::new(&tail)).unwrap();
    assert_eq!(report.ingested, tail.len());
    assert_eq!(report.dropped, 0);

    let t0 = report.last_time;
    let before = service.predict("live", PredictRequest::new(3, t0 + 1.0)).unwrap();

    // A batch that goes backwards in time mid-way.
    let bad = [
        TemporalEdge::plain(0, 1, t0 + 2.0),
        TemporalEdge::plain(1, 2, t0 - 100.0),
    ];
    let err = service.ingest("live", IngestRequest::new(&bad)).unwrap_err();
    assert!(matches!(err, SplashError::OutOfOrderEdge { .. }), "{err:?}");

    // Nothing was applied: the same query answers identically, and a
    // corrected batch ingests fine.
    let after = service.predict("live", PredictRequest::new(3, t0 + 1.0)).unwrap();
    assert_eq!(before.logits, after.logits, "rejected batch must not mutate state");
    let good = [
        TemporalEdge::plain(0, 1, t0 + 2.0),
        TemporalEdge::plain(1, 2, t0 + 3.0),
    ];
    let report = service.ingest("live", IngestRequest::new(&good)).unwrap();
    assert_eq!(report.ingested, 2);

    let stats = service.stats();
    assert_eq!(stats.edges_ingested, (tail.len() + 2) as u64);
    assert_eq!(stats.edges_dropped, 0);
    assert_eq!(stats.queries_served, 2);
}

/// Under `DropLate`, late edges are counted and skipped, and the model is
/// left exactly as if it had consumed the chronologically filtered
/// stream — predictions are bit-identical to a model fed the clean
/// stream.
#[test]
fn drop_late_matches_filtered_stream() {
    let (dataset, cfg, tail) = fixture();
    let mut messy_service = service_with(&dataset, &cfg, LateEdgePolicy::DropLate);
    let mut clean_service = service_with(&dataset, &cfg, LateEdgePolicy::Error);

    // Build a messy batch: the real tail with stale duplicates spliced in
    // (each re-dated before its predecessor, so it must be dropped).
    let mut messy = Vec::new();
    let mut expect_dropped = 0usize;
    for (i, edge) in tail.iter().enumerate() {
        messy.push(edge.clone());
        if i % 5 == 2 {
            let mut stale = edge.clone();
            stale.time = edge.time - 1e6;
            messy.push(stale);
            expect_dropped += 1;
        }
    }

    let report = messy_service.ingest("live", IngestRequest::new(&messy)).unwrap();
    assert_eq!(report.dropped, expect_dropped);
    assert_eq!(report.ingested, tail.len());
    let clean_report = clean_service.ingest("live", IngestRequest::new(&tail)).unwrap();
    assert_eq!(report.last_time, clean_report.last_time);

    // The two models must now be indistinguishable, bit for bit.
    let t0 = report.last_time;
    let mut messy_resp = PredictResponse::default();
    let mut clean_resp = PredictResponse::default();
    for node in 0..40u32 {
        let req = PredictRequest::new(node, t0 + node as f64);
        messy_service.predict_into("live", req, &mut messy_resp).unwrap();
        clean_service.predict_into("live", req, &mut clean_resp).unwrap();
        assert_eq!(
            messy_resp.logits, clean_resp.logits,
            "node {node}: DropLate diverged from the filtered stream"
        );
    }
    assert_eq!(messy_service.stats().edges_dropped, expect_dropped as u64);
}

/// The façade adds policy and accounting, never arithmetic: single and
/// batched predictions through the service are bit-identical to the
/// underlying `StreamingPredictor`.
#[test]
fn service_predictions_match_core_bit_for_bit() {
    let (dataset, cfg, tail) = fixture();
    let mut service = service_with(&dataset, &cfg, LateEdgePolicy::Error);
    let mut core = StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);

    service.ingest("live", IngestRequest::new(&tail)).unwrap();
    core.try_push_edges(&tail).unwrap();

    let t0 = core.last_time();
    let queries: Vec<PropertyQuery> = (0..30u32)
        .map(|i| PropertyQuery {
            node: (i * 7) % 45, // includes ids past the training universe
            time: t0 + i as f64,
            label: Label::Class(0),
        })
        .collect();

    let mut resp = PredictResponse::default();
    for q in &queries {
        service.predict_into("live", PredictRequest::new(q.node, q.time), &mut resp).unwrap();
        assert_eq!(
            resp.logits,
            core.try_predict(q.node, q.time).unwrap(),
            "node {} diverged",
            q.node
        );
    }
    let batched = service.predict_batch("live", &queries).unwrap();
    let expected = core.try_predict_batch(&queries).unwrap();
    assert_eq!(batched.data(), expected.data(), "batched façade path diverged");
}

/// Models hot-swap by name: a persisted artifact loaded over a live slot
/// replaces it, and replaying the same stream reproduces the original
/// model's predictions exactly.
#[test]
fn hot_swap_restores_persisted_model_bitwise() {
    let (dataset, cfg, tail) = fixture();
    let mut service = service_with(&dataset, &cfg, LateEdgePolicy::Error);
    let path = std::env::temp_dir()
        .join(format!("splash-service-swap-{}.bin", std::process::id()));

    // Persist the freshly trained model, then serve the tail and remember
    // an answer.
    service.save_model("live", &path).unwrap();
    let report = service.ingest("live", IngestRequest::new(&tail)).unwrap();
    let t_q = report.last_time + 1.0;
    let original = service.predict("live", PredictRequest::new(5, t_q)).unwrap();

    // Hot-swap: retrain the slot with a *different* augmentation process.
    service
        .train_model_with_process("live", &dataset, FeatureProcess::Positional)
        .unwrap();
    service.ingest("live", IngestRequest::new(&tail)).unwrap();
    let swapped = service.predict("live", PredictRequest::new(5, t_q)).unwrap();
    assert_ne!(
        original.logits, swapped.logits,
        "a different process must serve different logits"
    );

    // Hot-swap back from the artifact and replay: bit-identical to the
    // original model.
    service.load_model("live", &path, &dataset).unwrap();
    std::fs::remove_file(&path).ok();
    service.ingest("live", IngestRequest::new(&tail)).unwrap();
    let restored = service.predict("live", PredictRequest::new(5, t_q)).unwrap();
    assert_eq!(original.logits, restored.logits, "restored model must predict identically");
    assert_eq!(service.model_names().collect::<Vec<_>>(), vec!["live"]);
}

/// `strict_nodes` turns out-of-universe queries into `UnknownNode`; the
/// default (lenient) service serves them from propagated features.
#[test]
fn strict_nodes_rejects_out_of_universe_queries() {
    let (dataset, cfg, tail) = fixture();
    let mut strict = SplashService::builder(cfg).strict_nodes(true).build().unwrap();
    strict
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .unwrap();
    let report = strict.ingest("live", IngestRequest::new(&tail)).unwrap();
    let t0 = report.last_time;

    let known = strict.model("live").unwrap().known_nodes();
    let err = strict
        .predict("live", PredictRequest::new(known as u32 + 10, t0 + 1.0))
        .unwrap_err();
    assert!(matches!(err, SplashError::UnknownNode { .. }), "{err:?}");
    let err = strict
        .predict_batch(
            "live",
            &[PropertyQuery { node: known as u32, time: t0 + 1.0, label: Label::Class(0) }],
        )
        .unwrap_err();
    assert!(matches!(err, SplashError::UnknownNode { .. }), "{err:?}");
    strict.predict("live", PredictRequest::new(0, t0 + 1.0)).unwrap();

    let lenient = service_with(&dataset, &cfg, LateEdgePolicy::Error);
    let resp = lenient
        .predict("live", PredictRequest::new(1_000_000, lenient.model("live").unwrap().last_time()))
        .unwrap();
    assert!(resp.logits.iter().all(|v| v.is_finite()));
}

/// A query about the past comes back as a typed error and the service
/// keeps answering valid queries afterwards.
#[test]
fn past_query_is_typed_and_survivable() {
    let (dataset, cfg, tail) = fixture();
    let mut service = service_with(&dataset, &cfg, LateEdgePolicy::Error);
    let report = service.ingest("live", IngestRequest::new(&tail)).unwrap();
    let t0 = report.last_time;

    let err = service.predict("live", PredictRequest::new(0, t0 - 50.0)).unwrap_err();
    assert!(matches!(err, SplashError::PastQuery { .. }), "{err:?}");
    let resp = service.predict("live", PredictRequest::new(0, t0 + 1.0)).unwrap();
    assert_eq!(resp.logits.len(), dataset.num_classes);
    assert_eq!(resp.top_class().unwrap(), splash::task::argmax(&resp.logits));
    // The failed query was not counted as served.
    assert_eq!(service.stats().queries_served, 1);
}

/// An edge of the wrong feature width is a typed error under both late
/// policies, and the whole batch is refused: under `DropLate` the late edge
/// in front of it is not dropped and the good one is not applied either.
#[test]
fn wrong_edge_feature_width_rejects_the_whole_batch() {
    let (dataset, cfg, tail) = fixture();
    for policy in [LateEdgePolicy::Error, LateEdgePolicy::DropLate] {
        let mut service = service_with(&dataset, &cfg, policy);
        let t0 = service.ingest("live", IngestRequest::new(&tail)).unwrap().last_time;
        let before = service.predict("live", PredictRequest::new(3, t0 + 9.0)).unwrap();
        let stats = service.stats();

        let mixed = [
            TemporalEdge::plain(0, 1, t0 + 1.0),
            TemporalEdge::plain(1, 2, t0 - 1e6), // late
            TemporalEdge { feat: vec![1.0].into(), ..TemporalEdge::plain(2, 3, t0 + 2.0) },
        ];
        let batch = if policy == LateEdgePolicy::Error { &mixed[2..] } else { &mixed[..] };
        let err = service.ingest("live", IngestRequest::new(batch)).unwrap_err();
        assert!(
            matches!(err, SplashError::EdgeFeatureWidth { expected: 0, got: 1 }),
            "{policy:?}: {err:?}"
        );
        assert_eq!((err.kind(), err.http_status()), ("EdgeFeatureWidth", 400));

        let after = service.predict("live", PredictRequest::new(3, t0 + 9.0)).unwrap();
        assert_eq!(before.logits, after.logits, "{policy:?}: rejected batch mutated state");
        let now = service.stats();
        assert_eq!(
            (now.edges_ingested, now.edges_dropped),
            (stats.edges_ingested, stats.edges_dropped),
            "{policy:?}"
        );
    }
}

/// A per-request policy override beats the service-wide policy.
#[test]
fn per_request_policy_override() {
    let (dataset, cfg, tail) = fixture();
    let mut service = service_with(&dataset, &cfg, LateEdgePolicy::Error);
    service.ingest("live", IngestRequest::new(&tail)).unwrap();
    let t0 = service.model("live").unwrap().last_time();

    let mixed = [
        TemporalEdge::plain(0, 1, t0 + 1.0),
        TemporalEdge::plain(1, 2, t0 - 1e6), // late
        TemporalEdge::plain(2, 3, t0 + 2.0),
    ];
    let report = service
        .ingest(
            "live",
            IngestRequest::new(&mixed).with_policy(LateEdgePolicy::DropLate),
        )
        .unwrap();
    assert_eq!((report.ingested, report.dropped), (2, 1));
}
