//! SPLASH — Simple node Property prediction via representation Learning
//! with Augmented features under distribution SHifts (Lee et al., ICDE
//! 2025), reproduced from scratch in Rust.
//!
//! The pipeline (paper Fig. 5):
//!
//! 1. [`augment`] — random / positional / structural feature augmentation
//!    for seen nodes, with incremental feature propagation for unseen nodes;
//! 2. [`select`] — automatic feature selection via linear models over
//!    multiple chronological splits of the available property set;
//! 3. [`slim`] — the lightweight MLP-only TGNN trained on the selected
//!    features;
//! 4. [`pipeline`] — the 10/10/80 protocol tying it together.
//!
//! ```
//! use datasets::synthetic_shift;
//! use splash::{run_splash, SplashConfig};
//!
//! let dataset = synthetic_shift(50, 7);
//! let out = run_splash(&dataset, &SplashConfig::tiny());
//! assert!(out.metric > 0.2);
//! ```
//!
//! For **deployment**, the [`service`] module wraps the streaming core in
//! the [`SplashService`] façade: a registry of named, hot-swappable
//! models behind a fallible, typed request/response API ([`error`] holds
//! the [`SplashError`] taxonomy). The core speaks `try_*` / service forms
//! exclusively — bad input comes back as a value, never as an aborted
//! process. (The old infallible wrappers are gone; panicking call sites
//! spell the policy themselves with `try_* + unwrap`.)
//!
//! For **scale-out**, one [`StreamingPredictor`] holds the model once, one
//! witness — the global feature tracker and stream clock, updated once
//! per edge — and N ring partitions hash-partitioned by [`shard_of`]
//! ([`StreamingPredictor::reshard`]): ingest writes each edge's rings on
//! their owner partitions only, batched predicts fan out one thread per
//! partition, and an artifact is the same file at any partition count —
//! output bit-identical at every count.
//!
//! For **continual learning**, the [`online`] module fine-tunes a served
//! model from the live label stream without downtime: a hot-standby
//! [`OnlineTrainer`] buffers labeled snapshots, runs bounded Adam steps,
//! and publishes weights atomically into the serving engine(s);
//! checkpoints carry the optimizer (`SAVEDOPT`), so a restarted
//! deployment resumes bit-identically.
//!
//! For **networked serving**, the [`server`] module puts a hand-rolled
//! HTTP/1.1 front end ([`SplashServer`]) over the service: a bounded
//! worker pool, admission control with load shedding (`429`) and
//! per-request deadlines (`504`), and a zero-alloc latency histogram in
//! [`ServiceStats`] — with wire replay bit-identical to in-process calls.
//!
//! For **observability**, the [`telemetry`] module is the plane the whole
//! stack reports through: a metrics [`Registry`] of
//! flat atomics (zero-alloc, lock-free recording — the same counting-
//! allocator contract as `predict_into`), a fixed ring of per-request
//! [`TraceSpan`]s with queue-wait / engine-execute
//! / WAL-commit decomposed, and deterministic exposition: `GET /metrics`
//! (Prometheus text), `GET /statz.json`, `GET /trace?n=K`. Every counter
//! surface — `/stats`, [`ServiceStats`], the CLI serve report — renders
//! from this one source of truth.
//!
//! For **durability**, the [`durable`] module checkpoints the streaming
//! state as it evolves — per-node rings, augmenter and degree-tracker
//! state, the stream clock, the online replay buffer — and fills the gap
//! between checkpoints with an append-only, checksummed edge WAL. A
//! `kill -9` at *any* byte restarts bit-identically to a process that
//! never crashed, in O(state + WAL tail) instead of O(stream); the
//! [`FaultPlan`] / [`DurableWriter`] seam lets the test suite prove
//! exactly that, one injected crash offset at a time.

#![deny(missing_docs)]

pub mod augment;
pub mod capture;
pub mod config;
pub mod durable;
pub mod error;
pub mod online;
pub mod persist;
pub mod pipeline;
pub mod scenarios;
pub mod select;
pub mod server;
pub mod service;
pub mod shard;
pub mod slim;
pub mod stream;
pub mod task;
pub mod telemetry;

pub use augment::{Augmenter, FeatureProcess};
pub use capture::{
    capture, encodings, seen_end_time, Capture, CaptureStream, CapturedNeighbor, CapturedQuery,
    InputFeatures,
};
pub use config::{PositionalSource, SplashConfig};
pub use durable::{DurabilityConfig, DurableWriter, FaultPlan, RecoveryReport};
pub use error::SplashError;
pub use online::{FineTunePolicy, FineTuneReport, OnlineConfig, OnlineTrainer};
pub use persist::{load_model, save_model, SavedModel};
pub use pipeline::{
    predict_slim, represent_slim, run_slim_with, run_slim_with_frac, run_splash,
    run_splash_frac, split_bounds, split_bounds_frac, train_slim, try_run_slim_with,
    try_run_splash, SplashOutput, SEEN_FRAC, TRAIN_FRAC,
};
pub use scenarios::{
    run_matrix, run_scenario, EngineFactory, EngineSpec, ModelSpec, RegimeReport, ScenarioCell,
    ScenarioConfig, ScenarioReport, ScenarioSpec,
};
pub use select::{
    select_features, select_features_with_splits, truncate_to_available, SelectionReport,
    SPLIT_FRACTIONS,
};
pub use server::{ServerConfig, ServerHandle, SplashServer};
pub use service::{
    CheckpointPolicy, IngestReport, IngestRequest, LabelReport, LatencyHistogram, LateEdgePolicy,
    ModelInfo, PredictRequest, PredictResponse, ServeEngine, ServiceStats, SplashService,
    SplashServiceBuilder,
};
pub use shard::{shard_of, ShardStats};
pub use slim::{AdamState, SlimBatch, SlimCache, SlimModel};
pub use stream::StreamingPredictor;
pub use telemetry::{Counter, Gauge, Histogram, Registry, Telemetry, TraceSpan};
