//! Online continual learning behind the service: policy behavior and the
//! checkpoint/resume bit-identity contract.
//!
//! The load-bearing test is `resume_after_restart_is_bit_identical…`: a
//! fine-tune → checkpoint → restart → resume deployment must produce
//! exactly the weights and predictions of the run that never restarted —
//! at shard count 1 *and* 3, and sharded must equal unsharded. The
//! `SAVEDOPT` optimizer section plus deterministic tune rounds are what
//! make this hold; any hidden nondeterminism (shuffling, unpersisted
//! optimizer state, shard-dependent capture) breaks it immediately.

use ctdg::{Label, PropertyQuery, TemporalEdge};
use datasets::{synthetic_shift, Dataset};
use splash::{
    seen_end_time, truncate_to_available, FeatureProcess, FineTunePolicy, IngestRequest,
    LateEdgePolicy, OnlineConfig, PredictRequest, SplashConfig, SplashService, SEEN_FRAC,
};

const MODEL: &str = "live";
const NODES: u32 = 40;

fn fixture() -> (Dataset, SplashConfig, Vec<TemporalEdge>, Vec<TemporalEdge>) {
    let dataset = truncate_to_available(&synthetic_shift(NODES, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;
    let t_seen = seen_end_time(&dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let tail = &dataset.stream.edges()[prefix..];
    assert!(tail.len() > 40, "fixture too small");
    let mid = tail.len() / 2;
    (dataset.clone(), cfg, tail[..mid].to_vec(), tail[mid..].to_vec())
}

fn online_cfg(policy: FineTunePolicy) -> OnlineConfig {
    OnlineConfig {
        policy,
        buffer_capacity: 64,
        batch_size: 16,
        steps_per_tune: 5,
        lr: 5e-3,
    }
}

fn build_service(cfg: &SplashConfig, shards: usize) -> SplashService {
    SplashService::builder(*cfg)
        .shards(shards)
        .online(online_cfg(FineTunePolicy::Manual))
        .build()
        .unwrap()
}

/// Synthetic ground-truth observations arriving at/after `t0` (labels do
/// not advance the stream clock, so later edge ingest stays valid).
fn labels_at(t0: f64, n: usize) -> Vec<PropertyQuery> {
    (0..n)
        .map(|i| PropertyQuery {
            node: (i as u32 * 7) % NODES,
            time: t0 + i as f64 * 0.25,
            label: Label::Class(i % 2),
        })
        .collect()
}

/// One full deployment: train → ingest phase 1 → labels → fine-tune →
/// (optionally: save, restart into a fresh service, load) → ingest
/// phase 2 → labels → fine-tune → probe predictions.
/// Returns the concatenated probe logits plus the trainer's Adam clock.
fn deploy(shards: usize, restart: bool, tag: &str) -> (Vec<f32>, u64) {
    let (dataset, cfg, phase1, phase2) = fixture();
    let mut service = build_service(&cfg, shards);
    service
        .train_model_with_process(MODEL, &dataset, FeatureProcess::Random)
        .unwrap();
    service.ingest(MODEL, IngestRequest::new(&phase1)).unwrap();
    let t1 = service.model_last_time(MODEL).unwrap();
    service.observe_labels(MODEL, &labels_at(t1, 24)).unwrap();
    let report = service.fine_tune(MODEL).unwrap();
    assert_eq!(report.steps, 5);
    assert_eq!(report.examples, 24);
    assert!(report.published);

    if restart {
        let path = std::env::temp_dir().join(format!(
            "splash-online-{tag}-{shards}-{}.bin",
            std::process::id()
        ));
        service.save_model(MODEL, &path).unwrap();
        drop(service);
        let mut fresh = build_service(&cfg, shards);
        fresh.load_model(MODEL, &path, &dataset).unwrap();
        std::fs::remove_file(&path).ok();
        // The artifact carries the streaming state at save time, so the
        // restarted deployment carries on with phase 2 directly.
        service = fresh;
    }

    service.ingest(MODEL, IngestRequest::new(&phase2)).unwrap();
    let t2 = service.model_last_time(MODEL).unwrap();
    service.observe_labels(MODEL, &labels_at(t2, 24)).unwrap();
    service.fine_tune(MODEL).unwrap();

    let mut logits = Vec::new();
    for i in 0..12u32 {
        let resp = service
            .predict(MODEL, PredictRequest::new((i * 3) % NODES, t2 + 100.0 + i as f64))
            .unwrap();
        assert!(resp.logits.iter().all(|v| v.is_finite()));
        logits.extend(resp.logits);
    }
    (logits, service.trainer(MODEL).unwrap().steps())
}

/// The acceptance matrix: checkpoint/restart/resume is bit-identical to
/// the uninterrupted run at shard counts 1 and 3, and the sharded
/// deployment is bit-identical to the single-engine one.
#[test]
fn resume_after_restart_is_bit_identical_at_shards_1_and_3() {
    let single = deploy(1, false, "base");
    for shards in [1usize, 3] {
        let uninterrupted = if shards == 1 { single.clone() } else { deploy(shards, false, "base") };
        let resumed = deploy(shards, true, "resume");
        assert_eq!(
            uninterrupted.1, resumed.1,
            "shards={shards}: Adam step clock diverged across the restart"
        );
        assert_eq!(
            uninterrupted.0, resumed.0,
            "shards={shards}: predictions diverged across the restart"
        );
        if shards != 1 {
            assert_eq!(
                single.0, uninterrupted.0,
                "sharded deployment must be bit-identical to the single engine"
            );
        }
    }
}

/// Fine-tuning on real labels actually moves the served model (the whole
/// point), and hot weights only change at publish time.
#[test]
fn fine_tune_updates_served_predictions() {
    let (dataset, cfg, phase1, _) = fixture();
    let mut service = build_service(&cfg, 1);
    service
        .train_model_with_process(MODEL, &dataset, FeatureProcess::Random)
        .unwrap();
    service.ingest(MODEL, IngestRequest::new(&phase1)).unwrap();
    let t1 = service.model_last_time(MODEL).unwrap();
    let probe = PredictRequest::new(3, t1 + 500.0);
    let frozen = service.predict(MODEL, probe).unwrap();
    service.observe_labels(MODEL, &labels_at(t1, 24)).unwrap();
    // Labels alone change nothing...
    assert_eq!(service.predict(MODEL, probe).unwrap().logits, frozen.logits);
    // ...fine_tune (which publishes) does.
    let report = service.fine_tune(MODEL).unwrap();
    assert!(report.steps > 0 && report.mean_loss.is_finite());
    assert_ne!(service.predict(MODEL, probe).unwrap().logits, frozen.logits);
}

/// `EveryLabels(n)` fires automatically during label ingest, drains the
/// buffer each round, and shows up in the reports and counters.
#[test]
fn automatic_fine_tune_policy_fires_on_cadence() {
    let (dataset, cfg, phase1, _) = fixture();
    let mut service = SplashService::builder(cfg)
        .online(online_cfg(FineTunePolicy::EveryLabels(10)))
        .build()
        .unwrap();
    service
        .train_model_with_process(MODEL, &dataset, FeatureProcess::Random)
        .unwrap();
    service.ingest(MODEL, IngestRequest::new(&phase1)).unwrap();
    let t1 = service.model_last_time(MODEL).unwrap();
    let report = service.observe_labels(MODEL, &labels_at(t1, 25)).unwrap();
    assert_eq!(report.buffered, 25);
    assert_eq!(report.tunes, 2, "25 labels at cadence 10 → 2 automatic rounds");
    assert_eq!(report.steps, 10);
    assert_eq!(service.trainer(MODEL).unwrap().buffered(), 5, "rounds drain the buffer");
    let stats = service.stats();
    assert_eq!(stats.labels_buffered, 25);
    assert_eq!(stats.fine_tunes, 2);
    assert_eq!(stats.fine_tune_steps, 10);
    assert_eq!(stats.publishes, 2);
}

/// Past-time labels follow the service's late policy: batch-atomic
/// rejection under `Error`, drop-and-count under `DropLate`.
#[test]
fn past_labels_follow_the_late_policy() {
    let (dataset, cfg, phase1, _) = fixture();
    for policy in [LateEdgePolicy::Error, LateEdgePolicy::DropLate] {
        let mut service = SplashService::builder(cfg)
            .late_edge_policy(policy)
            .online(online_cfg(FineTunePolicy::Manual))
            .build()
            .unwrap();
        service
            .train_model_with_process(MODEL, &dataset, FeatureProcess::Random)
            .unwrap();
        service.ingest(MODEL, IngestRequest::new(&phase1)).unwrap();
        let t1 = service.model_last_time(MODEL).unwrap();
        let mut labels = labels_at(t1, 6);
        labels[3].time = t1 - 50.0; // in the past
        match policy {
            LateEdgePolicy::Error => {
                let err = service.observe_labels(MODEL, &labels).unwrap_err();
                assert!(matches!(err, splash::SplashError::PastQuery { .. }), "{err:?}");
                assert_eq!(service.trainer(MODEL).unwrap().buffered(), 0, "batch-atomic");
            }
            LateEdgePolicy::DropLate => {
                let report = service.observe_labels(MODEL, &labels).unwrap();
                assert_eq!(report.buffered, 5);
                assert_eq!(report.dropped, 1);
                assert_eq!(service.stats().labels_dropped, 1);
            }
        }
    }
}

/// The label-ingest write path honors the same guardrails as the read
/// paths, batch-atomically: a task-mismatched label is `LabelMismatch`,
/// and under strict node checking an unknown node is `UnknownNode` —
/// in both cases nothing from the batch is absorbed.
#[test]
fn label_ingest_validates_batches_atomically() {
    let (dataset, cfg, phase1, _) = fixture();
    let mut service = SplashService::builder(cfg)
        .strict_nodes(true)
        .online(online_cfg(FineTunePolicy::Manual))
        .build()
        .unwrap();
    service
        .train_model_with_process(MODEL, &dataset, FeatureProcess::Random)
        .unwrap();
    service.ingest(MODEL, IngestRequest::new(&phase1)).unwrap();
    let t1 = service.model_last_time(MODEL).unwrap();

    // One affinity label hidden inside an otherwise clean batch.
    let mut labels = labels_at(t1, 5);
    labels[4].label = Label::Affinity(Box::new([0.5, 0.5]));
    let err = service.observe_labels(MODEL, &labels).unwrap_err();
    assert!(matches!(err, splash::SplashError::LabelMismatch { .. }), "{err:?}");
    assert_eq!(service.trainer(MODEL).unwrap().buffered(), 0, "batch-atomic");

    // One unknown node inside an otherwise clean batch (strict mode).
    let mut labels = labels_at(t1, 5);
    labels[2].node = 9_999;
    let err = service.observe_labels(MODEL, &labels).unwrap_err();
    assert!(matches!(err, splash::SplashError::UnknownNode { .. }), "{err:?}");
    assert_eq!(service.trainer(MODEL).unwrap().buffered(), 0, "batch-atomic");

    // The clean version of the same batch lands in full.
    assert_eq!(service.observe_labels(MODEL, &labels_at(t1, 5)).unwrap().buffered, 5);
}

/// Continual-learning calls on a service built without `.online(..)`
/// report the typed `OnlineDisabled` error.
#[test]
fn online_calls_without_a_trainer_are_typed_errors() {
    let (dataset, cfg, _, _) = fixture();
    let mut service = SplashService::builder(cfg).build().unwrap();
    service
        .train_model_with_process(MODEL, &dataset, FeatureProcess::Random)
        .unwrap();
    let t = service.model_last_time(MODEL).unwrap();
    for err in [
        service.observe_labels(MODEL, &labels_at(t, 2)).unwrap_err(),
        service.fine_tune(MODEL).unwrap_err(),
        service.publish(MODEL).unwrap_err(),
        service.trainer(MODEL).err().unwrap(),
    ] {
        assert!(matches!(err, splash::SplashError::OnlineDisabled { .. }), "{err:?}");
    }
}
