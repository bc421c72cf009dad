//! Scale-out serving: hash-partition a trained model's ring state across N
//! partitions of one engine, route a live stream through the service,
//! persist the artifact, and reload it at a *different* shard count — all
//! with predictions bit-identical to the unpartitioned engine.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use splash_repro::ctdg::{Label, PropertyQuery, TemporalEdge};
use splash_repro::datasets::synthetic_shift;
use splash_repro::nn::Matrix;
use splash_repro::splash::{
    load_model, truncate_to_available, FeatureProcess, IngestRequest, SplashConfig,
    SplashService, StreamingPredictor,
};

fn main() {
    let dataset = truncate_to_available(&synthetic_shift(40, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;

    // One training run; the one-partition engine below is the ground truth
    // every shard count must reproduce bit for bit.
    println!("training SPLASH once…");
    let mut single =
        StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);

    // A service serving the same weights with 4 hash-partitioned ring
    // partitions (the weights and the witness are held once).
    let mut service = SplashService::builder(cfg).shards(4).build().expect("valid config");
    service
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .expect("training succeeds");

    // Go live: the unseen tail arrives as one micro-batch. The witness
    // observes each edge exactly once; only the owner partition(s) of its
    // endpoints take ring writes.
    let tail: Vec<TemporalEdge> =
        dataset.stream.edges()[dataset.stream.len() / 2..].to_vec();
    single.try_push_edges(&tail).expect("tail is chronological");
    let report = service.ingest("live", IngestRequest::new(&tail)).expect("tail is clean");
    println!("ingested {} edges across 4 shards", report.ingested);

    // Batched queries: each reads its node's owner partition, and the
    // logits come back in query order, byte-for-byte the single engine's.
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
        .expect("batched predict succeeds");
    assert_eq!(
        expected.data(),
        gathered.data(),
        "sharded predictions must be bit-identical to the single engine"
    );
    println!("48 queries across 4 shards match the single engine bit for bit");

    // The partition at work: each shard owns a slice of the ring state and
    // answered only its own nodes' queries; the witness watched each edge
    // exactly once, globally.
    for s in service.shard_stats("live").expect("a SPLASH model") {
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
    let saved = load_model(&artifact).expect("artifact loads");
    let resharded = StreamingPredictor::try_from_saved(saved, &dataset)
        .and_then(|engine| engine.reshard(2))
        .expect("artifact reshards");
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
