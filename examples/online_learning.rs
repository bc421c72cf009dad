//! Online continual learning behind the service: a deployed model keeps
//! fine-tuning itself from the live label stream — without downtime — and
//! a checkpointed deployment resumes bit-identically after a restart.
//!
//! ```sh
//! cargo run --release --example online_learning
//! ```

use splash_repro::ctdg::{Label, PropertyQuery};
use splash_repro::datasets::synthetic_shift;
use splash_repro::splash::{
    seen_end_time, truncate_to_available, FeatureProcess, FineTunePolicy, IngestRequest,
    OnlineConfig, PredictRequest, SplashConfig, SplashService, SEEN_FRAC,
};

fn main() {
    let dataset = truncate_to_available(&synthetic_shift(40, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;

    // A service with continual learning on: fine-tune (and publish)
    // automatically after every 20 absorbed labels.
    let online = OnlineConfig {
        policy: FineTunePolicy::EveryLabels(20),
        ..OnlineConfig::default()
    };
    let mut service = SplashService::builder(cfg)
        .online(online)
        .build()
        .expect("stock config is valid");
    service
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .expect("training succeeds");

    // Go live: stream the unseen tail in, prequentially — predict first,
    // then reveal the ground truth to the trainer.
    let t_seen = seen_end_time(&dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let tail = &dataset.stream.edges()[prefix..];
    let mid = tail.len() / 2;
    service.ingest("live", IngestRequest::new(&tail[..mid])).expect("clean batch");
    let t_now = service.model_last_time("live").expect("model exists");

    let frozen_answer = service.predict("live", PredictRequest::new(3, t_now + 500.0)).unwrap();
    let labels: Vec<PropertyQuery> = (0..50u32)
        .map(|i| PropertyQuery {
            node: (i * 7) % 40,
            time: t_now + i as f64 * 0.1,
            label: Label::Class((i % 2) as usize),
        })
        .collect();
    let report = service.observe_labels("live", &labels).expect("labels absorb");
    println!(
        "absorbed {} labels → {} automatic fine-tune rounds ({} Adam steps)",
        report.buffered, report.tunes, report.steps
    );
    let tuned_answer = service.predict("live", PredictRequest::new(3, t_now + 500.0)).unwrap();
    assert_ne!(
        frozen_answer.logits, tuned_answer.logits,
        "published fine-tuned weights change the served predictions"
    );
    println!("served logits moved after publish: the model is learning in place");

    // Checkpoint mid-deployment. The artifact carries the weights, the
    // optimizer (SAVEDOPT section) and the streaming state — but not the
    // replay buffer, so flush it first: fine_tune consumes the 10 labels
    // still waiting (50 labels at cadence 20 leave a remainder) and
    // publishes. From a drained buffer, a restarted service continues
    // bit-identically to one that never stopped.
    service.fine_tune("live").expect("flush before checkpoint");
    let artifact = std::env::temp_dir()
        .join(format!("splash-online-example-{}.bin", std::process::id()));
    service.save_model("live", &artifact).expect("checkpoint writes");

    let mut restarted = SplashService::builder(cfg)
        .online(online)
        .build()
        .expect("stock config is valid");
    restarted.load_model("live", &artifact, &dataset).expect("checkpoint restores");
    std::fs::remove_file(&artifact).ok();

    // Both deployments now live through the same second phase...
    for svc in [&mut service, &mut restarted] {
        svc.ingest("live", IngestRequest::new(&tail[mid..])).expect("clean batch");
        let t2 = svc.model_last_time("live").unwrap();
        let labels2: Vec<PropertyQuery> = (0..40u32)
            .map(|i| PropertyQuery {
                node: (i * 3) % 40,
                time: t2 + i as f64 * 0.1,
                label: Label::Class(((i / 2) % 2) as usize),
            })
            .collect();
        svc.observe_labels("live", &labels2).expect("labels absorb");
        svc.fine_tune("live").expect("manual round");
    }

    // ...and answer identically, bit for bit.
    let t_end = service.model_last_time("live").unwrap();
    for node in [0u32, 7, 19, 33] {
        let a = service.predict("live", PredictRequest::new(node, t_end + 1.0)).unwrap();
        let b = restarted.predict("live", PredictRequest::new(node, t_end + 1.0)).unwrap();
        assert_eq!(a.logits, b.logits, "resume must be bit-identical");
    }
    println!("checkpoint → restart → resume: predictions bit-identical to never restarting");
    print!("{}", service.stats());
}
