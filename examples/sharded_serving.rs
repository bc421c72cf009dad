//! Scale-out serving with the sharding subsystem: hash-partition a trained
//! model across N engines, route a live stream through the scatter–gather
//! service, persist the sharded artifact, and reload it at a *different*
//! shard count — all with predictions bit-identical to the single engine.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use splash_repro::ctdg::{Label, PropertyQuery, TemporalEdge};
use splash_repro::datasets::synthetic_shift;
use splash_repro::nn::Matrix;
use splash_repro::splash::{
    truncate_to_available, FeatureProcess, IngestRequest, ShardedPredictor, SplashConfig,
    SplashService, StreamingPredictor,
};

fn main() {
    let dataset = truncate_to_available(&synthetic_shift(40, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;

    // One training run; the single engine below is the ground truth the
    // sharded engines must reproduce bit for bit.
    println!("training SPLASH once…");
    let mut single =
        StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);

    // A service serving the same weights from 4 hash-partitioned shards.
    let mut service = SplashService::builder(cfg).shards(4).build().expect("valid config");
    service
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .expect("training succeeds");

    // Go live: the unseen tail arrives as one micro-batch. The shared
    // witness observes each edge exactly once and materializes its ring
    // snapshots; the owner shard(s) of its endpoints consume them.
    let tail: Vec<TemporalEdge> =
        dataset.stream.edges()[dataset.stream.len() / 2..].to_vec();
    single.try_push_edges(&tail).expect("tail is chronological");
    let report = service.ingest("live", IngestRequest::new(&tail)).expect("tail is clean");
    println!("ingested {} edges across 4 shards", report.ingested);

    // Scatter–gather queries: answered by owner shards, gathered back in
    // query order, byte-for-byte the single engine's logits.
    let t0 = report.last_time;
    let queries: Vec<PropertyQuery> = (0..48u32)
        .map(|i| PropertyQuery {
            node: (i * 5) % 50, // includes ids past the training universe
            time: t0 + i as f64,
            label: Label::Class(0),
        })
        .collect();
    let expected = single.try_predict_batch(&queries).expect("valid queries");
    let mut gathered = Matrix::default();
    service
        .predict_batch_into("live", &queries, &mut gathered)
        .expect("scatter-gather succeeds");
    assert_eq!(
        expected.data(),
        gathered.data(),
        "sharded predictions must be bit-identical to the single engine"
    );
    println!("48 scattered queries match the single engine bit for bit");

    // The partition at work: each shard owns a slice of the ring state and
    // answered only its own nodes' queries; the witness watched each edge
    // exactly once, globally.
    for s in service.shard_stats("live").expect("sharded model") {
        println!(
            "  shard {}: {} ring nodes, {} owned edges, {} queries",
            s.shard, s.owned_nodes, s.owned_edges, s.queries_served
        );
    }
    println!("  witness : {} edges observed once", service.stats().edges_witnessed);

    // Persistence: one self-contained artifact (weights, the witness, and
    // every shard's rings merged) — and resharding-on-load, here 4 → 2
    // engines serving identically, without re-sending the stream.
    let artifact = std::env::temp_dir()
        .join(format!("splash-sharded-serving-{}.bin", std::process::id()));
    service.save_model("live", &artifact).expect("artifact writes");
    let resharded =
        ShardedPredictor::try_load(&artifact, &dataset, 2).expect("artifact reshards");
    let restored = resharded.try_predict_batch(&queries).expect("valid queries");
    assert_eq!(
        expected.data(),
        restored.data(),
        "an engine saved at 4 shards must serve identically at 2"
    );
    println!("artifact saved at 4 shards reloaded at 2: still bit-identical");
    let size = std::fs::metadata(&artifact).map(|m| m.len()).unwrap_or(0);
    println!("artifact on disk: {size} B (weights once, witness once, rings merged)");
    std::fs::remove_file(&artifact).ok();

    let stats = service.stats();
    print!("{stats}");
}
