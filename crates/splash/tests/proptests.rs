//! Property-based tests for the SPLASH core invariants.

use ctdg::{EdgeStream, Label, PropertyQuery, TemporalEdge};
use datasets::{Dataset, Task};
use proptest::prelude::*;
use splash::{
    capture, encodings, Augmenter, FeatureProcess, InputFeatures, SplashConfig, SplashError,
    SplashService, StreamingPredictor,
};

fn arb_dataset(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec((0..max_nodes, 0..max_nodes, 0.0f64..500.0), 2..max_edges),
        prop::collection::vec((0..max_nodes, 0.0f64..500.0, 0..3usize), 1..40),
    )
        .prop_map(|(mut raw_edges, mut raw_queries)| {
            raw_edges.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
            raw_queries.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let edges: Vec<TemporalEdge> = raw_edges
                .into_iter()
                .map(|(s, d, t)| TemporalEdge::plain(s, d, t))
                .collect();
            let num_nodes = edges
                .iter()
                .map(|e| e.src.max(e.dst) + 1)
                .max()
                .unwrap_or(1);
            let queries: Vec<PropertyQuery> = raw_queries
                .into_iter()
                .map(|(v, t, c)| PropertyQuery {
                    node: v % num_nodes,
                    time: t,
                    label: Label::Class(c),
                })
                .collect();
            Dataset {
                name: "prop".into(),
                task: Task::Classification,
                stream: EdgeStream::new_unchecked(edges),
                queries,
                num_classes: 3,
                node_feats: None,
            }
        })
}

/// Shard counts every sharding property is checked at (1 is the identity
/// case; 7 exceeds the base fixture's per-shard node density).
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// One trained streaming predictor per test thread, cloned per proptest
/// case: training is deterministic and by far the most expensive step, so
/// the property loops only pay for ingest + inference.
fn base_dataset() -> Dataset {
    splash::truncate_to_available(&datasets::synthetic_shift(40, 6), 0.5)
}

fn base_config() -> SplashConfig {
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;
    cfg
}

fn base_predictor() -> StreamingPredictor {
    thread_local! {
        static BASE: std::cell::OnceCell<StreamingPredictor> =
            const { std::cell::OnceCell::new() };
    }
    BASE.with(|cell| {
        cell.get_or_init(|| {
            StreamingPredictor::train_with_process(
                &base_dataset(),
                &base_config(),
                FeatureProcess::Structural,
            )
        })
        .clone()
    })
}

/// A random live tail: per-edge (src, dst, Δt ≥ 0) offsets accumulated from
/// the predictor's clock, so the stream is always chronologically valid.
/// Node ids run past the training universe to exercise unseen-node
/// propagation across shard boundaries.
fn arb_tail(max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0u32..60, 0u32..60, 0.0f64..3.0), 1..max_edges)
}

/// Turns `arb_tail` offsets into edges continuing from clock `t`.
fn tail_from(t: f64, raw: &[(u32, u32, f64)]) -> Vec<TemporalEdge> {
    let mut t = t;
    raw.iter()
        .map(|&(s, d, dt)| {
            t += dt;
            TemporalEdge::plain(s, d, t)
        })
        .collect()
}

/// Queries at offsets past clock `t`.
fn queries_after(t: f64, raw: &[(u32, f64)]) -> Vec<PropertyQuery> {
    raw.iter()
        .map(|&(v, dt)| PropertyQuery { node: v, time: t + dt, label: Label::Class(0) })
        .collect()
}

/// A per-test, per-process temp path.
fn tmp_artifact(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("splash-prop-{tag}-{}.bin", std::process::id()))
}

/// Loads the artifact at `path` and serves it from `shards` partitions.
fn load_at(path: &std::path::Path, shards: usize) -> StreamingPredictor {
    let saved = splash::load_model(path).unwrap();
    StreamingPredictor::try_from_saved(saved, &base_dataset()).unwrap().reshard(shards).unwrap()
}

/// The artifact a service writes right after training the base model
/// (`SplashService::train_model_with_process` + `save_model`), trained
/// once per test thread.
fn fresh_service_artifact() -> Vec<u8> {
    thread_local! {
        static BYTES: std::cell::OnceCell<Vec<u8>> = const { std::cell::OnceCell::new() };
    }
    BYTES.with(|cell| {
        cell.get_or_init(|| {
            let mut service = SplashService::builder(base_config()).build().unwrap();
            service
                .train_model_with_process("m", &base_dataset(), FeatureProcess::Structural)
                .unwrap();
            let path = tmp_artifact("fresh-service");
            service.save_model("m", &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        })
        .clone()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharding acceptance contract: for every shard count, partitioned
    /// ingest + `predict_batch`/`predict_batch_into`/`predict_into` are
    /// byte-for-byte the unsharded results, on any valid stream.
    #[test]
    fn sharded_matches_unsharded_bitwise(
        raw_tail in arb_tail(60),
        raw_queries in prop::collection::vec((0u32..70, 0.0f64..4.0), 1..25),
        chunk in 1usize..9,
    ) {
        let mut single = base_predictor();
        let mut t = single.last_time();
        let tail: Vec<TemporalEdge> = raw_tail
            .iter()
            .map(|&(s, d, dt)| {
                t += dt;
                TemporalEdge::plain(s, d, t)
            })
            .collect();
        for c in tail.chunks(chunk) {
            single.try_push_edges(c).unwrap();
        }
        let t_end = single.last_time();
        let queries: Vec<PropertyQuery> = raw_queries
            .iter()
            .map(|&(v, dt)| PropertyQuery { node: v, time: t_end + dt, label: Label::Class(0) })
            .collect();
        let expected = single.try_predict_batch(&queries).unwrap();

        for shards in SHARD_COUNTS {
            let mut sharded = base_predictor().reshard(shards).unwrap();
            for c in tail.chunks(chunk) {
                sharded.try_push_edges(c).unwrap();
            }
            prop_assert_eq!(sharded.last_time(), t_end);

            // Batch rows must be the unsharded engine's.
            let got = sharded.try_predict_batch(&queries).unwrap();
            prop_assert_eq!(got.shape(), expected.shape());
            prop_assert_eq!(got.data(), expected.data(), "batch diverged at {} shards", shards);

            // The zero-alloc batch form and the single-query route agree.
            let mut gathered = nn::Matrix::default();
            sharded.try_predict_batch_into(&queries, &mut gathered).unwrap();
            prop_assert_eq!(gathered.data(), expected.data());
            let mut out = Vec::new();
            for (i, q) in queries.iter().enumerate() {
                sharded.try_predict_into(q.node, q.time, &mut out).unwrap();
                prop_assert_eq!(&out[..], expected.row(i), "query {} diverged", i);
            }
        }
    }

    /// Sharded-artifact round-trip under the shared witness: ingest a
    /// random live prefix at N shards, save the artifact, reload it at
    /// every shard count M (resharding-on-load), and the batch
    /// must be byte-identical to the single engine that never restarted —
    /// right after the load and after a random continuation, with the
    /// global witness seeing each continued edge exactly once regardless
    /// of M.
    #[test]
    fn sharded_artifact_roundtrips_across_shard_counts(
        raw_live in arb_tail(40),
        raw_rest in arb_tail(20),
        raw_queries in prop::collection::vec((0u32..70, 0.0f64..4.0), 1..15),
        save_at in 0usize..SHARD_COUNTS.len(),
    ) {
        let mut single = base_predictor();
        let live = tail_from(single.last_time(), &raw_live);
        single.try_push_edges(&live).unwrap();
        let saved_at = queries_after(single.last_time(), &raw_queries);
        let expected_saved = single.try_predict_batch(&saved_at).unwrap();
        let rest = tail_from(single.last_time(), &raw_rest);
        single.try_push_edges(&rest).unwrap();
        let after = queries_after(single.last_time(), &raw_queries);
        let expected_after = single.try_predict_batch(&after).unwrap();

        let n = SHARD_COUNTS[save_at];
        let mut origin = base_predictor().reshard(n).unwrap();
        origin.try_push_edges(&live).unwrap();
        let path = tmp_artifact(&format!("reshard-{n}"));
        origin.save(&path).unwrap();

        for m in SHARD_COUNTS {
            let mut loaded = load_at(&path, m);
            let got = loaded.try_predict_batch(&saved_at).unwrap();
            prop_assert_eq!(
                got.data(),
                expected_saved.data(),
                "artifact saved at {} shards diverged loaded at {}",
                n, m
            );
            let witnessed_before = loaded.witnessed_edges();
            loaded.try_push_edges(&rest).unwrap();
            prop_assert_eq!(
                loaded.witnessed_edges() - witnessed_before,
                rest.len() as u64,
                "witness must observe each edge exactly once at {} shards",
                m
            );
            let got = loaded.try_predict_batch(&after).unwrap();
            prop_assert_eq!(
                got.data(),
                expected_after.data(),
                "artifact saved at {} shards diverged served on at {}",
                n, m
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Save after a random live prefix at N ∈ {1, 3} shards, load at every
    /// M through the service and the engine: the loaded engine is the one
    /// that saved — same logits on random queries, and it saves the same
    /// bytes again.
    #[test]
    fn artifact_restores_the_engine_that_saved_it(
        raw_live in arb_tail(40),
        raw_queries in prop::collection::vec((0u32..70, 0.0f64..4.0), 1..15),
        sharded in any::<bool>(),
    ) {
        let dataset = base_dataset();
        let saver = base_predictor();
        let live = tail_from(saver.last_time(), &raw_live);
        let queries = queries_after(live.last().unwrap().time, &raw_queries);
        let n = if sharded { 3 } else { 1 };
        let path = tmp_artifact(&format!("saver-{n}"));
        let mut engine = saver.reshard(n).unwrap();
        engine.try_push_edges(&live).unwrap();
        engine.save(&path).unwrap();
        let expected = engine.try_predict_batch(&queries).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        let resaved = tmp_artifact(&format!("resaved-{n}"));
        for m in SHARD_COUNTS {
            let mut service = SplashService::builder(base_config()).shards(m).build().unwrap();
            service.load_model("m", &path, &dataset).unwrap();
            let got = service.predict_batch("m", &queries).unwrap();
            prop_assert_eq!(got.data(), expected.data(), "saved at {}, served at {}", n, m);

            let mut engine = load_at(&path, m);
            prop_assert_eq!(engine.try_predict_batch(&queries).unwrap().data(), expected.data());
            engine.save(&resaved).unwrap();
            prop_assert!(
                std::fs::read(&resaved).unwrap() == bytes,
                "saved at {}, loaded at {}: the re-saved artifact differs",
                n, m
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&resaved).ok();
    }

    /// In-memory resharding from any count: a live engine at N ∈ {1, 3}
    /// resharded to every M answers random queries with the same logits,
    /// serves a random continuation identically, and saves the same
    /// artifact bytes.
    #[test]
    fn live_reshard_matches_the_original(
        raw_live in arb_tail(40),
        raw_rest in arb_tail(20),
        raw_queries in prop::collection::vec((0u32..70, 0.0f64..4.0), 1..15),
        sharded in any::<bool>(),
    ) {
        let n = if sharded { 3 } else { 1 };
        let mut origin = base_predictor().reshard(n).unwrap();
        let live = tail_from(origin.last_time(), &raw_live);
        origin.try_push_edges(&live).unwrap();
        let queries = queries_after(origin.last_time(), &raw_queries);
        let expected = origin.try_predict_batch(&queries).unwrap();
        let path = tmp_artifact(&format!("live-{n}"));
        origin.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let rest = tail_from(origin.last_time(), &raw_rest);
        let mut continued = origin.clone();
        continued.try_push_edges(&rest).unwrap();
        let after = queries_after(continued.last_time(), &raw_queries);
        let expected_after = continued.try_predict_batch(&after).unwrap();

        for m in SHARD_COUNTS {
            let mut engine = origin.clone().reshard(m).unwrap();
            prop_assert_eq!(engine.num_shards(), m);
            let mut got = nn::Matrix::default();
            engine.try_predict_batch_into(&queries, &mut got).unwrap();
            prop_assert_eq!(got.data(), expected.data(), "resharded {} -> {}", n, m);
            engine.save(&path).unwrap();
            prop_assert!(
                std::fs::read(&path).unwrap() == bytes,
                "resharded {} -> {}: the re-saved artifact differs",
                n, m
            );
            engine.try_push_edges(&rest).unwrap();
            prop_assert_eq!(
                engine.try_predict_batch(&after).unwrap().data(),
                expected_after.data(),
                "resharded {} -> {} diverged on the continuation",
                n, m
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A freshly trained artifact loads as the engine in-process training
    /// builds: the service's training-prefix state ≡
    /// `StreamingPredictor::train_with_process` on the same dataset, on
    /// any continuation of the stream. This pins what the retired
    /// rebuild-from-the-training-stream load used to compute.
    #[test]
    fn fresh_artifact_matches_train_with_process(
        raw_tail in arb_tail(40),
        raw_queries in prop::collection::vec((0u32..70, 0.0f64..4.0), 1..15),
    ) {
        let path = tmp_artifact("fresh");
        std::fs::write(&path, fresh_service_artifact()).unwrap();
        let saved = splash::load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut loaded = StreamingPredictor::try_from_saved(saved, &base_dataset()).unwrap();
        let mut trained = base_predictor();
        prop_assert_eq!(loaded.last_time(), trained.last_time());
        let tail = tail_from(trained.last_time(), &raw_tail);
        trained.try_push_edges(&tail).unwrap();
        loaded.try_push_edges(&tail).unwrap();
        let queries = queries_after(trained.last_time(), &raw_queries);
        prop_assert_eq!(
            loaded.try_predict_batch(&queries).unwrap().data(),
            trained.try_predict_batch(&queries).unwrap().data()
        );
    }

    /// `DropLate`-shaped streams (some edges stale): every shard shares the
    /// single engine's clock, so per-edge drop decisions — and the state
    /// that survives them — are identical at every shard count.
    #[test]
    fn sharded_drop_decisions_match_unsharded(
        raw_tail in prop::collection::vec((0u32..60, 0u32..60, -2.0f64..2.0), 1..50),
        raw_queries in prop::collection::vec((0u32..70, 0.0f64..4.0), 1..15),
    ) {
        let mut single = base_predictor();
        let mut t = single.last_time();
        let tail: Vec<TemporalEdge> = raw_tail
            .iter()
            .map(|&(s, d, dt)| {
                t += dt; // may go backwards: stale edges to drop
                TemporalEdge::plain(s, d, t)
            })
            .collect();
        let mut dropped = Vec::new();
        for e in &tail {
            match single.try_observe_edge(e) {
                Ok(()) => dropped.push(false),
                Err(SplashError::OutOfOrderEdge { .. }) => dropped.push(true),
                Err(other) => return Err(TestCaseError::Fail(format!("{other}"))),
            }
        }
        let t_end = single.last_time();
        let queries: Vec<PropertyQuery> = raw_queries
            .iter()
            .map(|&(v, dt)| PropertyQuery { node: v, time: t_end + dt, label: Label::Class(0) })
            .collect();
        let expected = single.try_predict_batch(&queries).unwrap();

        for shards in SHARD_COUNTS {
            let mut sharded = base_predictor().reshard(shards).unwrap();
            for (e, &was_dropped) in tail.iter().zip(&dropped) {
                let verdict = sharded.try_observe_edge(e);
                prop_assert_eq!(
                    verdict.is_err(),
                    was_dropped,
                    "drop decision diverged at {} shards",
                    shards
                );
            }
            let got = sharded.try_predict_batch(&queries).unwrap();
            prop_assert_eq!(got.data(), expected.data(), "post-drop state diverged at {} shards", shards);
        }
    }

    /// Propagated features are convex combinations of seen features, so
    /// their magnitude never exceeds the largest seen-feature magnitude.
    #[test]
    fn propagation_stays_in_convex_hull(dataset in arb_dataset(10, 60)) {
        let cfg = SplashConfig::tiny();
        let prefix = dataset.stream.len() / 2;
        let mut aug = Augmenter::new(
            &dataset.stream, prefix, dataset.stream.num_nodes(),
            cfg.feat_dim, &cfg.node2vec, cfg.degree_alpha, 1,
        );
        let mut max_seen = 0.0f32;
        for v in 0..dataset.stream.num_nodes() as u32 {
            if aug.is_seen(v) {
                for x in aug.feature(FeatureProcess::Random, v) {
                    max_seen = max_seen.max(x.abs());
                }
            }
        }
        for e in &dataset.stream.edges()[prefix..] {
            aug.observe(e);
        }
        for v in 0..dataset.stream.num_nodes() as u32 {
            if !aug.is_seen(v) {
                for x in aug.feature(FeatureProcess::Random, v) {
                    prop_assert!(
                        x.abs() <= max_seen + 1e-4,
                        "propagated |{x}| exceeds seen max {max_seen}"
                    );
                }
            }
        }
    }

    /// Capture respects k, produces finite features, and aligns 1:1 with
    /// the dataset's queries.
    #[test]
    fn capture_invariants(dataset in arb_dataset(12, 80)) {
        let cfg = SplashConfig::tiny();
        for mode in [
            InputFeatures::Zero,
            InputFeatures::RawRandom,
            InputFeatures::Process(FeatureProcess::Structural),
            InputFeatures::Joint,
        ] {
            let cap = capture(&dataset, mode, &cfg, 0.5);
            prop_assert_eq!(cap.queries.len(), dataset.queries.len());
            for (cq, dq) in cap.queries.iter().zip(&dataset.queries) {
                prop_assert_eq!(cq.node, dq.node);
                prop_assert!(cq.neighbors.len() <= cfg.k);
                prop_assert!(cq.target_feat.iter().all(|v| v.is_finite()));
                prop_assert!(cq
                    .neighbors
                    .iter()
                    .all(|nb| nb.time <= cq.time && nb.feat.iter().all(|v| v.is_finite())));
            }
        }
    }

    /// Node encodings (Eq. 7) are finite and have the documented width.
    #[test]
    fn encoding_shape_and_finiteness(dataset in arb_dataset(8, 50)) {
        let cfg = SplashConfig::tiny();
        let cap = capture(
            &dataset,
            InputFeatures::Process(FeatureProcess::Random),
            &cfg,
            0.5,
        );
        let enc = encodings(&cap);
        prop_assert_eq!(enc.shape(), (dataset.queries.len(), 2 * cfg.feat_dim));
        prop_assert!(enc.data().iter().all(|v| v.is_finite()));
    }

    /// The augmenter is insensitive to how the stream suffix is chunked:
    /// observing edges one-by-one equals observing them in any grouping.
    #[test]
    fn augmenter_is_incremental(dataset in arb_dataset(8, 40), split in 0usize..40) {
        let cfg = SplashConfig::tiny();
        let prefix = dataset.stream.len() / 3;
        let make = || Augmenter::new(
            &dataset.stream, prefix, dataset.stream.num_nodes(),
            cfg.feat_dim, &cfg.node2vec, cfg.degree_alpha, 2,
        );
        let tail = &dataset.stream.edges()[prefix..];
        let split = split.min(tail.len());
        let mut a = make();
        for e in tail { a.observe(e); }
        let mut b = make();
        for e in &tail[..split] { b.observe(e); }
        for e in &tail[split..] { b.observe(e); }
        for v in 0..dataset.stream.num_nodes() as u32 {
            for p in FeatureProcess::ALL {
                prop_assert_eq!(a.feature(p, v), b.feature(p, v));
            }
        }
    }
}
