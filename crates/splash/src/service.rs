//! The serving façade: [`SplashService`].
//!
//! [`crate::stream::StreamingPredictor`] is the numeric core of
//! deployment; this module is the *operational* surface a production
//! system actually talks to. The service owns a registry of **named
//! models** (train in place, load from a persisted artifact, hot-swap
//! either way while serving), speaks **typed requests and responses**
//! ([`IngestRequest`]/[`IngestReport`], [`PredictRequest`]/
//! [`PredictResponse`]), reports every input problem as a
//! [`SplashError`] instead of aborting the process, and keeps cheap
//! serving counters ([`ServiceStats`]).
//!
//! Two properties are pinned by tests and worth relying on:
//!
//! * **Bit-identity** — a prediction served through the façade is exactly
//!   the prediction the underlying [`StreamingPredictor`] would produce;
//!   the service adds policy and accounting, never arithmetic.
//! * **Zero-alloc steady state** — [`SplashService::predict_into`] with a
//!   reused [`PredictResponse`] performs no heap allocation after warm-up
//!   (enforced by the counting-allocator test in
//!   `crates/splash/tests/alloc.rs`).
//!
//! ```
//! use datasets::synthetic_shift;
//! use splash::service::{IngestRequest, PredictRequest, SplashService};
//! use splash::{truncate_to_available, FeatureProcess, SplashConfig};
//!
//! let dataset = truncate_to_available(&synthetic_shift(40, 6), 0.5);
//! let mut cfg = SplashConfig::tiny();
//! cfg.epochs = 2;
//!
//! let mut service = SplashService::builder(cfg).build().unwrap();
//! service
//!     .train_model_with_process("live", &dataset, FeatureProcess::Random)
//!     .unwrap();
//!
//! // Serve: ingest the unseen tail, then answer a query.
//! let tail = &dataset.stream.edges()[dataset.stream.len() / 2..];
//! let report = service.ingest("live", IngestRequest::new(tail)).unwrap();
//! assert_eq!(report.dropped, 0);
//! let resp = service
//!     .predict("live", PredictRequest::new(0, report.last_time + 1.0))
//!     .unwrap();
//! assert!(resp.logits.iter().all(|v| v.is_finite()));
//! ```

use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ctdg::{NodeId, PropertyQuery, TemporalEdge};
use datasets::Dataset;
use nn::Matrix;

use crate::augment::FeatureProcess;
use crate::capture::{CapturedNeighbor, CapturedQuery};
use crate::config::SplashConfig;
use crate::durable::{
    CheckpointData, DurabilityConfig, DurableLog, PersistedCounters, RecoveryReport, WalEntry,
    WalRecord,
};
use crate::error::SplashError;
use crate::online::{FineTuneReport, OnlineConfig, OnlineTrainer};
use crate::persist::SavedModel;
use crate::shard::ShardStats;
use crate::slim::{AdamState, SlimModel};
use crate::stream::{check_edge_width, StreamingPredictor};
use crate::telemetry::{escape_label_value, Gauge, Telemetry};
use crate::task::argmax;
use ctdg::Label;
use datasets::Task;

/// What a durable checkpoint does when the online replay buffer still
/// holds captured labels ([`SplashServiceBuilder::checkpoint_policy`]).
///
/// Plain artifact saves ([`SplashService::save_model`]) are unaffected by
/// this choice: the artifact format cannot carry the buffer, so a
/// non-empty buffer always refuses with
/// [`SplashError::CheckpointUnflushed`] there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Serialize the buffer into the checkpoint (the default): a restored
    /// trainer resumes with the exact buffered examples, cursors and
    /// cadence, so nothing is lost and replayed tune rounds stay
    /// bit-identical.
    #[default]
    PersistBuffer,
    /// Refuse to checkpoint while labels are buffered
    /// ([`SplashError::CheckpointUnflushed`]); the caller drains with
    /// [`SplashService::fine_tune`] first. Automatic (WAL-threshold)
    /// checkpoints are deferred — not failed — until the buffer drains;
    /// the WAL keeps every request durable in the meantime.
    Refuse,
}

/// What [`SplashService::ingest`] does with an edge whose timestamp
/// precedes the model's last observed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LateEdgePolicy {
    /// Reject the whole batch with [`SplashError::OutOfOrderEdge`],
    /// leaving the model's state exactly as it was (the default: loud,
    /// lossless, lets the caller repair and retry).
    #[default]
    Error,
    /// Silently drop late edges, count them in [`IngestReport::dropped`],
    /// and ingest the rest — the model behaves exactly as if it had been
    /// fed the chronologically filtered stream.
    DropLate,
}

/// A micro-batch of edges for [`SplashService::ingest`].
#[derive(Debug, Clone, Copy)]
pub struct IngestRequest<'a> {
    /// The edges, expected in chronological order.
    pub edges: &'a [TemporalEdge],
    /// Per-request override of the service's [`LateEdgePolicy`].
    pub policy: Option<LateEdgePolicy>,
}

impl<'a> IngestRequest<'a> {
    /// A request carrying `edges` under the service's configured policy.
    pub fn new(edges: &'a [TemporalEdge]) -> Self {
        Self { edges, policy: None }
    }

    /// Overrides the late-edge policy for this request only.
    pub fn with_policy(mut self, policy: LateEdgePolicy) -> Self {
        self.policy = Some(policy);
        self
    }
}

/// What [`SplashService::ingest`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// Edges applied to the model.
    pub ingested: usize,
    /// Late edges dropped (always 0 under [`LateEdgePolicy::Error`]).
    pub dropped: usize,
    /// The model's stream clock after the batch.
    pub last_time: f64,
}

/// One label query for [`SplashService::predict`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictRequest {
    /// The node whose property is queried.
    pub node: NodeId,
    /// Query time; must not precede the model's last observed edge.
    pub time: f64,
}

impl PredictRequest {
    /// A query for `node` at `time`.
    pub fn new(node: NodeId, time: f64) -> Self {
        Self { node, time }
    }
}

/// The answer to a [`PredictRequest`].
///
/// Reuse one response across calls ([`SplashService::predict_into`]) and
/// the logits buffer is recycled — that is the allocation-free serving
/// path.
#[derive(Debug, Clone, Default)]
pub struct PredictResponse {
    /// Property logits, one per class (width = the model's output dim).
    pub logits: Vec<f32>,
}

impl PredictResponse {
    /// Index of the highest logit, or `None` before the first prediction.
    pub fn top_class(&self) -> Option<usize> {
        if self.logits.is_empty() {
            None
        } else {
            Some(argmax(&self.logits))
        }
    }
}

/// What [`SplashService::observe_labels`] did with a batch of ground-truth
/// observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LabelReport {
    /// Labels captured into the model's replay buffer.
    pub buffered: usize,
    /// Past-time labels dropped (always 0 under [`LateEdgePolicy::Error`]).
    pub dropped: usize,
    /// Automatic tune rounds the batch triggered
    /// ([`crate::online::FineTunePolicy::EveryLabels`]); each one published.
    pub tunes: usize,
    /// Adam steps those rounds executed in total.
    pub steps: usize,
}

// The histogram moved into the telemetry plane (PR 9); the re-export
// keeps `splash::service::LatencyHistogram` paths working.
pub use crate::telemetry::{LatencyHistogram, LATENCY_BUCKETS};

/// Cheap serving counters, snapshotted by [`SplashService::stats`].
/// Aggregated across all models in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Edges applied to any model.
    pub edges_ingested: u64,
    /// Late edges dropped under [`LateEdgePolicy::DropLate`].
    pub edges_dropped: u64,
    /// Predictions served (single + batched).
    pub queries_served: u64,
    /// Ring partitions (shards) across the registry; an unsharded or
    /// external model counts 1.
    pub shards: u64,
    /// Edges observed by the witnesses of the SPLASH engines — exactly one
    /// count per edge per engine, whatever its shard count.
    pub edges_witnessed: u64,
    /// Ground-truth labels captured for continual learning.
    pub labels_buffered: u64,
    /// Past-time labels dropped under [`LateEdgePolicy::DropLate`].
    pub labels_dropped: u64,
    /// Online tune rounds completed (manual + automatic).
    pub fine_tunes: u64,
    /// Adam steps executed across all tune rounds.
    pub fine_tune_steps: u64,
    /// Weight publications into serving engines (every fine-tune publishes
    /// once; explicit [`SplashService::publish`] calls count too).
    pub publishes: u64,
    /// Wire requests rejected by admission control (a full request queue
    /// sheds load with a typed 429 instead of building unbounded backlog).
    /// Always 0 for a purely in-process service; the wire front end
    /// ([`crate::server`]) counts them into the shared telemetry registry,
    /// so this snapshot and the server's own report are the same number.
    pub requests_shed: u64,
    /// Wire requests whose per-request deadline expired while they queued —
    /// answered with a typed 504, never executed against the model.
    pub deadlines_expired: u64,
    /// End-to-end request latency (arrival to completion) of executed wire
    /// requests. Empty for a purely in-process service.
    pub latency: LatencyHistogram,
    /// Durable checkpoints committed (epoch-0 creations, WAL-threshold
    /// rotations and explicit [`SplashService::checkpoint`] calls).
    pub snapshots_written: u64,
    /// Write-ahead-log records group-committed since the service started.
    pub wal_records_appended: u64,
    /// WAL records replayed on top of recovered snapshots.
    pub wal_records_replayed: u64,
    /// Crash recoveries completed ([`SplashService::make_durable`] finding
    /// a committed checkpoint and restoring from it).
    pub recoveries: u64,
    /// Torn WAL tails truncated at the last valid record during recovery.
    pub wal_truncations: u64,
}

impl fmt::Display for ServiceStats {
    /// The operator-facing rendering the CLI `serve` report embeds — one
    /// aligned `label : value` line per counter, newline-terminated. The
    /// continual-learning block renders only once labels have flowed, so a
    /// frozen-model report stays as terse as before.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "edges ingested : {} (+{} dropped)",
            self.edges_ingested, self.edges_dropped
        )?;
        writeln!(f, "queries served : {}", self.queries_served)?;
        writeln!(f, "shard engines  : {}", self.shards)?;
        if self.edges_witnessed > 0 {
            writeln!(f, "edges witnessed: {} (shared witness, counted once)", self.edges_witnessed)?;
        }
        if self.labels_buffered > 0 || self.labels_dropped > 0 || self.publishes > 0 {
            writeln!(
                f,
                "labels absorbed: {} (+{} dropped)",
                self.labels_buffered, self.labels_dropped
            )?;
            writeln!(
                f,
                "fine-tunes     : {} ({} steps, {} publishes)",
                self.fine_tunes, self.fine_tune_steps, self.publishes
            )?;
        }
        if self.snapshots_written > 0 || self.recoveries > 0 || self.wal_records_appended > 0 {
            writeln!(
                f,
                "durability     : {} snapshots, {} WAL records ({} replayed), \
                 {} recoveries, {} torn tails",
                self.snapshots_written,
                self.wal_records_appended,
                self.wal_records_replayed,
                self.recoveries,
                self.wal_truncations
            )?;
        }
        if self.latency.count() > 0 || self.requests_shed > 0 || self.deadlines_expired > 0 {
            writeln!(
                f,
                "wire requests  : {} served, {} shed, {} past deadline",
                self.latency.count(),
                self.requests_shed,
                self.deadlines_expired
            )?;
            let ms = |ns: u64| ns as f64 / 1e6;
            writeln!(
                f,
                "wire latency   : p50 {:.3}ms / p99 {:.3}ms / p999 {:.3}ms (max {:.3}ms)",
                ms(self.latency.p50_ns()),
                ms(self.latency.p99_ns()),
                ms(self.latency.p999_ns()),
                ms(self.latency.max_ns()),
            )?;
        }
        Ok(())
    }
}

/// An externally implemented serving engine, pluggable into a
/// [`SplashService`] registry slot next to the built-in SPLASH engines via
/// [`SplashService::register_engine`].
///
/// This is the seam that turns the registry into a genuinely multi-model,
/// multi-tenant serving plane: any model that can consume a chronological
/// edge stream and answer `(node, time)` property queries — the
/// `baselines` crate's Table III competitors, for instance — serves
/// through the **same** slots, policies ([`LateEdgePolicy`], strict node
/// checking), counters ([`ServiceStats`]) and typed [`SplashError`]
/// surface as SPLASH itself.
///
/// Contract expected of implementors (the same one the SPLASH engines
/// honor): edges arrive chronologically and a violated batch is rejected
/// **atomically** with [`SplashError::OutOfOrderEdge`] before any state
/// changes; queries before the stream clock are [`SplashError::PastQuery`];
/// prediction is read-only and deterministic for a given observed stream.
///
/// External engines are serving-only: they have no online trainer (label
/// feedback reports [`SplashError::OnlineDisabled`]) and no persistence
/// (saving or checkpointing the slot reports a typed error instead of
/// silently writing an artifact that could not restore the engine).
pub trait ServeEngine: std::fmt::Debug + Send {
    /// Short engine-kind label shown in [`ModelInfo`] and `GET /models`
    /// (e.g. `"baseline:tgn+rf"`).
    fn kind(&self) -> String;

    /// Arrival time of the most recently observed edge
    /// (`f64::NEG_INFINITY` before the first).
    fn last_time(&self) -> f64;

    /// Size of the known node universe (valid ids are `0..known`), used by
    /// strict node checking.
    fn known_nodes(&self) -> usize;

    /// Validates and applies a chronological edge batch atomically: a
    /// rejected batch ([`SplashError::OutOfOrderEdge`]) leaves the engine
    /// untouched.
    fn try_push_edges(&mut self, edges: &[TemporalEdge]) -> Result<(), SplashError>;

    /// Observes one edge, advancing the stream clock.
    fn try_observe_edge(&mut self, edge: &TemporalEdge) -> Result<(), SplashError>;

    /// Answers one query, writing the logits into `out` (cleared first;
    /// buffer reused across calls).
    fn try_predict_into(
        &self,
        node: NodeId,
        time: f64,
        out: &mut Vec<f32>,
    ) -> Result<(), SplashError>;

    /// Answers a micro-batch of queries; row `i` holds the logits for
    /// `queries[i]` (labels are ignored).
    fn try_predict_batch(&self, queries: &[PropertyQuery]) -> Result<Matrix, SplashError>;
}

/// Descriptive snapshot of one registry slot
/// ([`SplashService::models_info`]): which engine serves it and with what
/// capabilities — the inspectable face of a multi-tenant registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The registry name.
    pub name: String,
    /// Engine kind: `"splash"` for the built-in streaming engines, or the
    /// external engine's own label (e.g. `"baseline:tgn+rf"`).
    pub engine: String,
    /// How many hash-partitioned shards serve the slot (1 = single).
    pub shards: usize,
    /// Whether the slot has a hot-standby online trainer attached.
    pub online: bool,
    /// Whether the slot has a durable checkpoint + WAL log attached.
    pub durable: bool,
}

impl fmt::Display for ModelInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let onoff = |b: bool| if b { "on" } else { "off" };
        write!(
            f,
            "{} engine={} shards={} online={} durable={}",
            self.name,
            self.engine,
            self.shards,
            onoff(self.online),
            onoff(self.durable),
        )
    }
}

/// The serving engine behind one registry slot: the SPLASH streaming
/// engine (at any shard count) or an externally implemented
/// [`ServeEngine`]. The enum delegates the handful of calls the façade
/// makes, so the policy/accounting code above it is engine-agnostic.
#[derive(Debug)]
enum Engine {
    /// The SPLASH engine. Boxed so the enum stays small.
    Splash(Box<StreamingPredictor>),
    /// An externally implemented engine behind the same slot surface
    /// (serving-only: no trainer, no persistence).
    External(Box<dyn ServeEngine>),
}

impl Engine {
    /// The [`ModelInfo`] engine-kind label.
    fn kind_label(&self) -> String {
        match self {
            Engine::Splash(_) => "splash".to_string(),
            Engine::External(e) => e.kind(),
        }
    }

    fn shards(&self) -> usize {
        match self {
            Engine::Splash(p) => p.num_shards(),
            Engine::External(_) => 1,
        }
    }

    /// Edges the engine's witness has observed — one global count per
    /// SPLASH engine; 0 for an external engine, whose ingest shows in
    /// `edges_ingested`.
    fn witnessed_edges(&self) -> u64 {
        match self {
            Engine::Splash(p) => p.witnessed_edges(),
            Engine::External(_) => 0,
        }
    }

    fn last_time(&self) -> f64 {
        match self {
            Engine::Splash(p) => p.last_time(),
            Engine::External(e) => e.last_time(),
        }
    }

    fn known_nodes(&self) -> usize {
        match self {
            Engine::Splash(p) => p.known_nodes(),
            Engine::External(e) => e.known_nodes(),
        }
    }

    fn try_push_edges(&mut self, edges: &[TemporalEdge]) -> Result<(), SplashError> {
        match self {
            Engine::Splash(p) => p.try_push_edges(edges),
            Engine::External(e) => e.try_push_edges(edges),
        }
    }

    /// Width-checks a whole batch before the per-edge `DropLate` path
    /// touches the engine, so that path stays batch-atomic too (an
    /// external engine validates its own input).
    fn check_edge_widths(&self, edges: &[TemporalEdge]) -> Result<(), SplashError> {
        match self {
            Engine::Splash(p) => {
                edges.iter().try_for_each(|e| check_edge_width(e, p.edge_feat_dim()))
            }
            Engine::External(_) => Ok(()),
        }
    }

    fn try_observe_edge(&mut self, edge: &TemporalEdge) -> Result<(), SplashError> {
        match self {
            Engine::Splash(p) => p.try_observe_edge(edge),
            Engine::External(e) => e.try_observe_edge(edge),
        }
    }

    fn try_predict_into(
        &self,
        node: NodeId,
        time: f64,
        out: &mut Vec<f32>,
    ) -> Result<(), SplashError> {
        match self {
            Engine::Splash(p) => p.try_predict_into(node, time, out),
            Engine::External(e) => e.try_predict_into(node, time, out),
        }
    }

    fn try_predict_batch(&self, queries: &[PropertyQuery]) -> Result<Matrix, SplashError> {
        match self {
            Engine::Splash(p) => p.try_predict_batch(queries),
            Engine::External(e) => e.try_predict_batch(queries),
        }
    }

    fn try_predict_batch_into(
        &mut self,
        queries: &[PropertyQuery],
        out: &mut Matrix,
    ) -> Result<(), SplashError> {
        match self {
            Engine::Splash(p) => p.try_predict_batch_into(queries, out),
            Engine::External(e) => {
                *out = e.try_predict_batch(queries)?;
                Ok(())
            }
        }
    }

    /// The SPLASH engine, for the paths an external engine cannot take
    /// (persistence): `Err` names the external engine's kind and `what` it
    /// cannot be.
    fn splash_mut(&mut self, what: &str) -> Result<&mut StreamingPredictor, SplashError> {
        match self {
            Engine::Splash(p) => Ok(p),
            Engine::External(e) => Err(SplashError::InvalidConfig {
                what: format!("external engine {:?} cannot be {what} (serving-only slot)", e.kind()),
            }),
        }
    }

    /// Assembles a labeled training example from the engine's current
    /// streaming state (read from the owner partition of `node`).
    fn capture_labeled_into(
        &self,
        node: NodeId,
        time: f64,
        label: &Label,
        q: &mut CapturedQuery,
        spare: &mut Vec<CapturedNeighbor>,
    ) -> Result<(), SplashError> {
        match self {
            Engine::Splash(p) => p.capture_labeled_into(node, time, label, q, spare),
            // Unreachable in practice: external slots carry no trainer, so
            // nothing ever captures through them — but keep it typed.
            Engine::External(e) => Err(SplashError::OnlineDisabled { name: e.kind() }),
        }
    }

    /// Atomically replaces the served weights (held once, whatever the
    /// shard count). Streaming state is untouched, so the next query runs
    /// the new weights over exactly the state the old weights saw.
    fn set_weights(&mut self, src: &SlimModel) {
        match self {
            Engine::Splash(p) => p.set_model_weights(src),
            // No SLIM weights to publish into; unreachable because external
            // slots have no trainer, and harmless if that ever changes.
            Engine::External(_) => {}
        }
    }
}

/// One named slot in the registry.
#[derive(Debug)]
struct ModelEntry {
    name: String,
    engine: Engine,
    /// The hot-standby continual learner, present when the service was
    /// built with [`SplashServiceBuilder::online`].
    trainer: Option<OnlineTrainer>,
    /// The durable checkpoint + WAL log, present after
    /// [`SplashService::make_durable`].
    durable: Option<DurableLog>,
}

/// Configures and checks a [`SplashService`] before it starts serving.
#[derive(Debug, Clone, Copy)]
pub struct SplashServiceBuilder {
    cfg: SplashConfig,
    policy: LateEdgePolicy,
    strict_nodes: bool,
    shards: usize,
    online: Option<OnlineConfig>,
    checkpoint_policy: CheckpointPolicy,
}

impl SplashServiceBuilder {
    /// Sets the service-wide late-edge policy (default:
    /// [`LateEdgePolicy::Error`]).
    pub fn late_edge_policy(mut self, policy: LateEdgePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// When `true`, a [`PredictRequest`] naming a node outside the model's
    /// known universe is rejected with [`SplashError::UnknownNode`]
    /// instead of served from zero/propagated features (default: `false`,
    /// the paper's unseen-node semantics).
    pub fn strict_nodes(mut self, strict: bool) -> Self {
        self.strict_nodes = strict;
        self
    }

    /// How many ring partitions (shards) serve each registered model
    /// (default 1 = unpartitioned). Any count produces bit-identical
    /// predictions; more shards split the ring state and, with threads
    /// available, the ingest and batched-predict work
    /// ([`StreamingPredictor::reshard`]). Must be positive — checked by
    /// [`SplashServiceBuilder::build`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables online continual learning: every model installed from now
    /// on gets a hot-standby [`OnlineTrainer`] behind it, fed by
    /// [`SplashService::observe_labels`] and flushed by
    /// [`SplashService::fine_tune`] (or automatically, per
    /// `online.policy`). Default: disabled — models stay frozen.
    pub fn online(mut self, online: OnlineConfig) -> Self {
        self.online = Some(online);
        self
    }

    /// What durable checkpoints do when the online replay buffer is
    /// non-empty (default: [`CheckpointPolicy::PersistBuffer`]).
    pub fn checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint_policy = policy;
        self
    }

    /// Validates the configuration and produces an empty service; add
    /// models with [`SplashService::train_model`] /
    /// [`SplashService::load_model`].
    pub fn build(self) -> Result<SplashService, SplashError> {
        self.cfg.validate()?;
        if self.shards == 0 {
            return Err(SplashError::InvalidConfig {
                what: "shard count must be positive".into(),
            });
        }
        if let Some(online) = &self.online {
            online.validate()?;
        }
        Ok(SplashService {
            cfg: self.cfg,
            policy: self.policy,
            strict_nodes: self.strict_nodes,
            shards: self.shards,
            online: self.online,
            checkpoint_policy: self.checkpoint_policy,
            models: Vec::new(),
            tel: Arc::new(Telemetry::new()),
        })
    }
}

/// A serving façade over a registry of named streaming models.
///
/// See the [module docs](self) for the full contract; in short: typed
/// fallible requests in, bit-identical predictions out, and the process
/// never aborts on bad input.
#[derive(Debug)]
pub struct SplashService {
    cfg: SplashConfig,
    policy: LateEdgePolicy,
    strict_nodes: bool,
    /// Shard count applied to every model installed from now on.
    shards: usize,
    /// Continual-learning knobs; `Some` attaches a trainer to every model
    /// installed from now on.
    online: Option<OnlineConfig>,
    /// Durable-checkpoint policy toward a non-empty replay buffer.
    checkpoint_policy: CheckpointPolicy,
    models: Vec<ModelEntry>,
    /// The unified telemetry plane: every counter the service keeps is a
    /// handle into this shared registry (atomics, so counting works
    /// through `&self` on the predict path and from the wire front end's
    /// worker threads). `Arc` so [`SplashService::telemetry`] can hand the
    /// same plane to the server without the service giving up ownership.
    tel: Arc<Telemetry>,
}

impl SplashService {
    /// Starts configuring a service around `cfg` (used by the in-service
    /// training entry points; loaded models carry their own config).
    pub fn builder(cfg: SplashConfig) -> SplashServiceBuilder {
        SplashServiceBuilder {
            cfg,
            policy: LateEdgePolicy::default(),
            strict_nodes: false,
            shards: 1,
            online: None,
            checkpoint_policy: CheckpointPolicy::default(),
        }
    }

    /// Builds the hot-standby trainer for a model about to be installed
    /// (`None` when the service has continual learning disabled). `saved`
    /// carries a checkpointed optimizer from a `SAVEDOPT` artifact section.
    fn trainer_for(
        &self,
        predictor: &StreamingPredictor,
        task: Task,
        saved: Option<&AdamState>,
    ) -> Result<Option<OnlineTrainer>, SplashError> {
        match &self.online {
            None => Ok(None),
            Some(cfg) => Ok(Some(OnlineTrainer::resume(
                *cfg,
                predictor.model().clone(),
                task,
                saved,
            )?)),
        }
    }

    /// Serves a freshly built predictor at the service's shard count.
    fn engine_for(&self, predictor: StreamingPredictor) -> Result<Engine, SplashError> {
        Ok(Engine::Splash(Box::new(predictor.reshard(self.shards)?)))
    }

    /// Trains a model on `dataset` with automatic feature selection and
    /// installs it under `name` (replacing — hot-swapping — any model
    /// already there). Returns the selected augmentation process.
    pub fn train_model(
        &mut self,
        name: &str,
        dataset: &Dataset,
    ) -> Result<FeatureProcess, SplashError> {
        let predictor = StreamingPredictor::train(dataset, &self.cfg);
        let process = predictor.process();
        let trainer = self.trainer_for(&predictor, dataset.task, None)?;
        let engine = self.engine_for(predictor)?;
        let idx = self.install(name, engine, trainer);
        self.checkpoint_barrier(idx)?;
        Ok(process)
    }

    /// Like [`SplashService::train_model`], but the installed copy never
    /// gets a continual-learning trainer — even when the service was built
    /// with [`SplashServiceBuilder::online`]. Training is deterministic,
    /// so a frozen slot and an online slot trained from the same dataset
    /// and config start from bit-identical weights; only the online copy
    /// then moves. This is what lets one multi-tenant service hold the
    /// frozen-vs-adapted comparison the scenario matrix reports.
    pub fn train_frozen_model(
        &mut self,
        name: &str,
        dataset: &Dataset,
    ) -> Result<FeatureProcess, SplashError> {
        let predictor = StreamingPredictor::train(dataset, &self.cfg);
        let process = predictor.process();
        let engine = self.engine_for(predictor)?;
        let idx = self.install(name, engine, None);
        self.checkpoint_barrier(idx)?;
        Ok(process)
    }

    /// Like [`SplashService::train_model`] but with a fixed augmentation
    /// process (skipping selection).
    pub fn train_model_with_process(
        &mut self,
        name: &str,
        dataset: &Dataset,
        process: FeatureProcess,
    ) -> Result<(), SplashError> {
        let predictor = StreamingPredictor::train_with_process(dataset, &self.cfg, process);
        let trainer = self.trainer_for(&predictor, dataset.task, None)?;
        let engine = self.engine_for(predictor)?;
        let idx = self.install(name, engine, trainer);
        self.checkpoint_barrier(idx)?;
        Ok(())
    }

    /// Loads an artifact from `path` and installs it under `name`
    /// (hot-swapping any model already there — in-flight state of the
    /// replaced model is discarded).
    ///
    /// The artifact is self-contained: its streaming state (witness and
    /// rings) is decoded, not rebuilt, so the installed engine is exactly
    /// the one that was saved — a checkpoint without a WAL. It is served
    /// with the *service's* configured shard count whatever count saved
    /// it (resharding-on-load: the rings are stored merged and ownership
    /// is recomputed here). `dataset` is not replayed; the service reads
    /// only its `task`, for the online trainer's loss.
    ///
    /// The saved file's own config is validated and used; the service's
    /// config only governs models trained in-service.
    ///
    /// When the service has continual learning enabled and the artifact
    /// carries a `SAVEDOPT` optimizer section, the restored trainer
    /// continues the checkpointed run's Adam schedule — resuming a
    /// fine-tuning deployment is bit-identical to never restarting it.
    pub fn load_model(
        &mut self,
        name: &str,
        path: &Path,
        dataset: &Dataset,
    ) -> Result<(), SplashError> {
        self.load_saved(name, crate::persist::load_model(path)?, dataset)
    }

    /// [`SplashService::load_model`] from an artifact already decoded with
    /// [`crate::persist::load_model`], for callers that read its header
    /// first (e.g. its `out_dim` to check labels against): the file is then
    /// read and decoded once per load, not twice.
    pub fn load_saved(
        &mut self,
        name: &str,
        mut saved: SavedModel,
        dataset: &Dataset,
    ) -> Result<(), SplashError> {
        saved.cfg.validate()?;
        let opt = saved.opt.take();
        let predictor = StreamingPredictor::try_from_saved(saved, dataset)?;
        let trainer = self.trainer_for(&predictor, dataset.task, opt.as_ref())?;
        let engine = self.engine_for(predictor)?;
        let idx = self.install(name, engine, trainer);
        self.checkpoint_barrier(idx)?;
        Ok(())
    }

    /// Persists the named model to `path` as one self-contained artifact
    /// at any shard count: weights, the engine's witness and every ring
    /// (merged across shards). It restores through
    /// [`SplashService::load_model`] at any shard count, as the engine is
    /// now.
    ///
    /// A model with an online trainer also writes the trainer's optimizer
    /// checkpoint (`SAVEDOPT` section), making the artifact a true
    /// continual-learning checkpoint.
    ///
    /// A non-empty online replay buffer refuses the save with
    /// [`SplashError::CheckpointUnflushed`]: the artifact format cannot
    /// carry buffered labels, so persisting now would silently drop them.
    /// Drain with [`SplashService::fine_tune`] first, or use a durable
    /// checkpoint ([`SplashService::checkpoint`]) under
    /// [`CheckpointPolicy::PersistBuffer`], which persists the buffer.
    pub fn save_model(&mut self, name: &str, path: &Path) -> Result<(), SplashError> {
        let idx = self.index(name)?;
        let ModelEntry { engine, trainer, .. } = &mut self.models[idx];
        if let Some(buffered) = trainer.as_ref().map(|t| t.buffered()).filter(|&b| b > 0) {
            return Err(SplashError::CheckpointUnflushed { buffered });
        }
        let opt = trainer.as_mut().map(|t| t.checkpoint());
        engine.splash_mut("persisted")?.save_with_opt(path, opt.as_ref())
    }

    /// Removes the named model from the registry, dropping its per-model
    /// telemetry series (per-shard counters, online buffer gauge) from
    /// exposition.
    pub fn remove_model(&mut self, name: &str) -> Result<(), SplashError> {
        let idx = self.index(name)?;
        self.models.remove(idx);
        self.tel
            .registry()
            .remove_series_with_label(&format!("model=\"{}\"", escape_label_value(name)));
        self.sync_registry_gauges();
        Ok(())
    }

    /// The registered model names, in installation order.
    pub fn model_names(&self) -> impl Iterator<Item = &str> {
        self.models.iter().map(|e| e.name.as_str())
    }

    /// One [`ModelInfo`] row per registered slot, in installation order —
    /// the machine-readable registry inventory behind `GET /models` and
    /// the CLI `serve` report.
    pub fn models_info(&self) -> Vec<ModelInfo> {
        self.models
            .iter()
            .map(|e| ModelInfo {
                name: e.name.clone(),
                engine: e.engine.kind_label(),
                shards: e.engine.shards(),
                online: e.trainer.is_some(),
                durable: e.durable.is_some(),
            })
            .collect()
    }

    /// Registers an external engine (anything implementing
    /// [`ServeEngine`] — e.g. a baseline model adapted to streamed
    /// serving) under `name`, hot-swapping any model already there.
    ///
    /// External slots are serving-only tenants: they share the registry,
    /// [`ServiceStats`], late-edge policies, and typed-error surface with
    /// SPLASH slots, but carry no online trainer (labels observed on them
    /// report [`SplashError::OnlineDisabled`]) and cannot be persisted or
    /// made durable (typed [`SplashError::InvalidConfig`]).
    pub fn register_engine(
        &mut self,
        name: &str,
        engine: Box<dyn ServeEngine>,
    ) -> Result<(), SplashError> {
        let idx = self.install(name, Engine::External(engine), None);
        self.checkpoint_barrier(idx)?;
        Ok(())
    }

    /// Direct (read-only) access to a registered SPLASH engine, at any
    /// shard count — the escape hatch for callers that need core APIs the
    /// façade does not wrap (representations, `predict_many`, per-shard
    /// stats, …). An external engine has no [`StreamingPredictor`] at all
    /// and reports [`SplashError::InvalidConfig`].
    pub fn model(&self, name: &str) -> Result<&StreamingPredictor, SplashError> {
        match &self.entry(name)?.engine {
            Engine::Splash(p) => Ok(p),
            Engine::External(e) => Err(SplashError::InvalidConfig {
                what: format!(
                    "model {name:?} is served by an external engine ({:?}); direct \
                     predictor access applies only to SPLASH engines",
                    e.kind()
                ),
            }),
        }
    }

    /// The same engine as [`SplashService::model`]. Kept only because the
    /// repo benchmark (`splashbench`) calls it; the next change to the
    /// benchmark switches it to `model` and deletes this.
    pub fn sharded_model(&self, name: &str) -> Result<&StreamingPredictor, SplashError> {
        self.model(name)
    }

    /// Per-shard serving counters of the named model: one [`ShardStats`]
    /// row per ring partition of a SPLASH engine (one at `shards == 1`),
    /// an empty vector for an external engine (whose counters are the
    /// service-level [`ServiceStats`]).
    pub fn shard_stats(&self, name: &str) -> Result<Vec<ShardStats>, SplashError> {
        match &self.entry(name)?.engine {
            Engine::Splash(p) => Ok(p.shard_stats()),
            Engine::External(_) => Ok(Vec::new()),
        }
    }

    /// The stream clock of the named model: arrival time of its most
    /// recently observed edge (engine-agnostic, unlike the
    /// [`SplashService::model`] escape hatch).
    pub fn model_last_time(&self, name: &str) -> Result<f64, SplashError> {
        Ok(self.entry(name)?.engine.last_time())
    }

    /// Applies a batch of edges to the named model under the request's (or
    /// the service's) [`LateEdgePolicy`].
    ///
    /// Under [`LateEdgePolicy::Error`] the whole batch is validated before
    /// any state changes, so a rejected batch leaves the model untouched
    /// and the service keeps serving. Under [`LateEdgePolicy::DropLate`]
    /// the model ends up exactly as if it had consumed the
    /// chronologically filtered stream.
    pub fn ingest(
        &mut self,
        name: &str,
        req: IngestRequest<'_>,
    ) -> Result<IngestReport, SplashError> {
        let policy = req.policy.unwrap_or(self.policy);
        let idx = self.index(name)?;
        let report = self.apply_ingest(idx, req.edges, policy)?;
        if !req.edges.is_empty() {
            self.append_wal(
                idx,
                WalRecord::Edges {
                    edges: req.edges,
                    drop_late: policy == LateEdgePolicy::DropLate,
                },
            )?;
        }
        Ok(report)
    }

    /// The engine-and-counter core of [`SplashService::ingest`], shared
    /// with WAL replay (which must reproduce the live path exactly, minus
    /// the re-append).
    fn apply_ingest(
        &mut self,
        idx: usize,
        edges: &[TemporalEdge],
        policy: LateEdgePolicy,
    ) -> Result<IngestReport, SplashError> {
        let engine = &mut self.models[idx].engine;
        let dropped = match policy {
            LateEdgePolicy::Error => {
                engine.try_push_edges(edges)?;
                0
            }
            LateEdgePolicy::DropLate => {
                // A clean batch (the common case) takes the batched path
                // with its single-pass validation and up-front ring
                // growth; only a batch that actually contains late edges
                // pays the per-edge filter.
                let mut prev = engine.last_time();
                let mut clean = true;
                for edge in edges {
                    if edge.time < prev {
                        clean = false;
                        break;
                    }
                    prev = edge.time;
                }
                if clean {
                    engine.try_push_edges(edges)?;
                    0
                } else {
                    engine.check_edge_widths(edges)?;
                    let mut dropped = 0usize;
                    for edge in edges {
                        match engine.try_observe_edge(edge) {
                            Ok(()) => {}
                            Err(SplashError::OutOfOrderEdge { .. }) => dropped += 1,
                            Err(other) => return Err(other),
                        }
                    }
                    dropped
                }
            }
        };
        let ingested = edges.len() - dropped;
        self.tel.edges_ingested.add(ingested as u64);
        self.tel.edges_dropped.add(dropped as u64);
        Ok(IngestReport {
            ingested,
            dropped,
            last_time: self.models[idx].engine.last_time(),
        })
    }

    /// Feeds ground-truth observations from the live stream into the named
    /// model's continual learner: each `(node, time, label)` query is
    /// captured — against the model's *current* streaming state, exactly
    /// what a prediction at that instant would have seen — into the
    /// bounded replay buffer.
    ///
    /// The whole batch is validated **before anything is absorbed**
    /// (batch atomicity): a label that does not fit the model's task or
    /// output width is [`SplashError::LabelMismatch`] (training on it
    /// would panic deep in the loss), and under strict node checking
    /// ([`SplashServiceBuilder::strict_nodes`]) an unknown node is
    /// [`SplashError::UnknownNode`] — the write path that mutates weights
    /// honors the same guardrails as the read paths. Past-time labels
    /// (time before the model's last observed edge) follow the service's
    /// [`LateEdgePolicy`]: under `Error` they also reject the whole
    /// batch; under `DropLate` they are dropped and counted.
    ///
    /// Under [`crate::online::FineTunePolicy::EveryLabels`] this is also
    /// where automatic fine-tuning fires: the moment the cadence is
    /// reached mid-batch, a tune round runs and its weights publish — the
    /// remaining labels of the batch are then captured against the same
    /// streaming state (capture reads rings, not weights, so ordering
    /// stays deterministic).
    ///
    /// Steady-state absorption performs zero heap allocations (pinned in
    /// `crates/splash/tests/alloc.rs`).
    pub fn observe_labels(
        &mut self,
        name: &str,
        queries: &[PropertyQuery],
    ) -> Result<LabelReport, SplashError> {
        let idx = self.index(name)?;
        let report = self.apply_labels(idx, queries)?;
        if !queries.is_empty() {
            self.append_wal(idx, WalRecord::Labels(queries))?;
        }
        Ok(report)
    }

    /// The validate-capture-tune core of [`SplashService::observe_labels`],
    /// shared with WAL replay.
    fn apply_labels(
        &mut self,
        idx: usize,
        queries: &[PropertyQuery],
    ) -> Result<LabelReport, SplashError> {
        let policy = self.policy;
        let ModelEntry { name, engine, trainer, .. } = &mut self.models[idx];
        let Some(trainer) = trainer.as_mut() else {
            return Err(SplashError::OnlineDisabled { name: name.clone() });
        };
        for q in queries {
            trainer.validate_observation(q.time, &q.label)?;
        }
        if self.strict_nodes {
            let known = engine.known_nodes();
            if let Some(q) = queries.iter().find(|q| q.node as usize >= known) {
                return Err(SplashError::UnknownNode { node: q.node, known });
            }
        }
        let last = engine.last_time();
        if policy == LateEdgePolicy::Error {
            if let Some(q) = queries.iter().find(|q| q.time < last) {
                return Err(SplashError::PastQuery { got: q.time, last });
            }
        }
        let mut report = LabelReport::default();
        for q in queries {
            if q.time < last {
                report.dropped += 1;
                continue;
            }
            trainer.absorb_with(|slot, spare| {
                engine.capture_labeled_into(q.node, q.time, &q.label, slot, spare)
            })?;
            report.buffered += 1;
            if trainer.tune_due() {
                let r = trainer.fine_tune();
                engine.set_weights(trainer.model());
                report.tunes += 1;
                report.steps += r.steps;
            }
        }
        self.tel.labels_buffered.add(report.buffered as u64);
        self.tel.labels_dropped.add(report.dropped as u64);
        self.tel.fine_tunes.add(report.tunes as u64);
        self.tel.fine_tune_steps.add(report.steps as u64);
        self.tel.publishes.add(report.tunes as u64);
        Ok(report)
    }

    /// Runs one bounded tune round on the named model's continual learner
    /// and atomically publishes the updated weights into its serving
    /// engine (held once, whatever the shard count). An empty replay buffer is a cheap no-op (0 steps, but
    /// the publish still happens, making `fine_tune` idempotent).
    pub fn fine_tune(&mut self, name: &str) -> Result<FineTuneReport, SplashError> {
        let idx = self.index(name)?;
        let report = self.apply_fine_tune(idx)?;
        self.append_wal(idx, WalRecord::FineTune)?;
        Ok(report)
    }

    /// The tune-and-publish core of [`SplashService::fine_tune`], shared
    /// with WAL replay.
    fn apply_fine_tune(&mut self, idx: usize) -> Result<FineTuneReport, SplashError> {
        let ModelEntry { name, engine, trainer, .. } = &mut self.models[idx];
        let Some(trainer) = trainer.as_mut() else {
            return Err(SplashError::OnlineDisabled { name: name.clone() });
        };
        let mut report = trainer.fine_tune();
        engine.set_weights(trainer.model());
        report.published = true;
        self.tel.fine_tunes.inc();
        self.tel.fine_tune_steps.add(report.steps as u64);
        self.tel.publishes.inc();
        Ok(report)
    }

    /// Publishes the named model's trainer weights into its serving
    /// engine without running any steps — for callers that want to
    /// decouple tuning cadence from publication cadence.
    pub fn publish(&mut self, name: &str) -> Result<(), SplashError> {
        let idx = self.index(name)?;
        self.apply_publish(idx)?;
        self.append_wal(idx, WalRecord::Publish)?;
        Ok(())
    }

    /// The publish core of [`SplashService::publish`], shared with WAL
    /// replay.
    fn apply_publish(&mut self, idx: usize) -> Result<(), SplashError> {
        let ModelEntry { name, engine, trainer, .. } = &mut self.models[idx];
        let Some(trainer) = trainer.as_mut() else {
            return Err(SplashError::OnlineDisabled { name: name.clone() });
        };
        engine.set_weights(trainer.model());
        self.tel.publishes.inc();
        Ok(())
    }

    /// Read-only access to the named model's continual learner (buffer
    /// fill, lifetime counters, the unpublished model). Reports
    /// [`SplashError::OnlineDisabled`] when the service was built without
    /// [`SplashServiceBuilder::online`].
    pub fn trainer(&self, name: &str) -> Result<&OnlineTrainer, SplashError> {
        self.entry(name)?
            .trainer
            .as_ref()
            .ok_or_else(|| SplashError::OnlineDisabled { name: name.to_string() })
    }

    /// Answers one query, writing the logits into `resp` (whose buffer is
    /// reused across calls — the allocation-free serving path).
    ///
    /// The logits are bit-identical to
    /// [`StreamingPredictor::try_predict_into`] on the same model.
    pub fn predict_into(
        &self,
        name: &str,
        req: PredictRequest,
        resp: &mut PredictResponse,
    ) -> Result<(), SplashError> {
        let entry = self.entry(name)?;
        if self.strict_nodes {
            let known = entry.engine.known_nodes();
            if req.node as usize >= known {
                return Err(SplashError::UnknownNode { node: req.node, known });
            }
        }
        entry.engine.try_predict_into(req.node, req.time, &mut resp.logits)?;
        self.tel.queries_served.inc();
        Ok(())
    }

    /// Convenience form of [`SplashService::predict_into`] returning a
    /// fresh response (allocates the logits vector).
    pub fn predict(
        &self,
        name: &str,
        req: PredictRequest,
    ) -> Result<PredictResponse, SplashError> {
        let mut resp = PredictResponse::default();
        self.predict_into(name, req, &mut resp)?;
        Ok(resp)
    }

    /// Answers a micro-batch of queries in one forward pass; row `i` holds
    /// the logits for `queries[i]` (labels are ignored). Bit-identical to
    /// [`StreamingPredictor::try_predict_batch`].
    ///
    /// A rejected batch reports the error a [`SplashService::predict_into`]
    /// loop over `queries` would stop at first: queries are checked in
    /// order, each for an unknown node (under strict node checking) and
    /// then for a past timestamp.
    pub fn predict_batch(
        &self,
        name: &str,
        queries: &[PropertyQuery],
    ) -> Result<Matrix, SplashError> {
        let entry = self.entry(name)?;
        self.check_batch(&entry.engine, queries)?;
        let out = entry.engine.try_predict_batch(queries)?;
        self.tel.queries_served.add(queries.len() as u64);
        Ok(out)
    }

    /// [`SplashService::predict_batch`] into a caller-owned matrix — the
    /// zero-allocation batched serving path (buffers reused across calls),
    /// bit-identical to the allocating form. Takes `&mut self` because on
    /// a sharded model the per-shard forwards may fan out thread-per-shard
    /// (see [`StreamingPredictor::try_predict_batch_into`]). Errors as
    /// [`SplashService::predict_batch`] reports them.
    pub fn predict_batch_into(
        &mut self,
        name: &str,
        queries: &[PropertyQuery],
        out: &mut Matrix,
    ) -> Result<(), SplashError> {
        let idx = self.index(name)?;
        self.check_batch(&self.models[idx].engine, queries)?;
        self.models[idx].engine.try_predict_batch_into(queries, out)?;
        self.tel.queries_served.add(queries.len() as u64);
        Ok(())
    }

    /// The first error a per-query [`SplashService::predict_into`] loop
    /// would report, in query order: an unknown node under strict node
    /// checking, else a query time behind the engine's stream clock.
    fn check_batch(&self, engine: &Engine, queries: &[PropertyQuery]) -> Result<(), SplashError> {
        let (known, last) = (engine.known_nodes(), engine.last_time());
        for q in queries {
            if self.strict_nodes && q.node as usize >= known {
                return Err(SplashError::UnknownNode { node: q.node, known });
            }
            if q.time < last {
                return Err(SplashError::PastQuery { got: q.time, last });
            }
        }
        Ok(())
    }

    /// A snapshot of the serving counters, read out of the shared
    /// [`Telemetry`] plane — `/stats`, `GET /metrics`, and this method all
    /// render the same atomics and can no longer disagree.
    pub fn stats(&self) -> ServiceStats {
        let tel = &self.tel;
        ServiceStats {
            edges_ingested: tel.edges_ingested.get(),
            edges_dropped: tel.edges_dropped.get(),
            queries_served: tel.queries_served.get(),
            shards: self.models.iter().map(|e| e.engine.shards() as u64).sum(),
            edges_witnessed: self.models.iter().map(|e| e.engine.witnessed_edges()).sum(),
            labels_buffered: tel.labels_buffered.get(),
            labels_dropped: tel.labels_dropped.get(),
            fine_tunes: tel.fine_tunes.get(),
            fine_tune_steps: tel.fine_tune_steps.get(),
            publishes: tel.publishes.get(),
            requests_shed: tel.requests_shed.get(),
            deadlines_expired: tel.deadlines_expired.get(),
            snapshots_written: tel.snapshots_written.get(),
            wal_records_appended: tel.wal_records_appended.get(),
            wal_records_replayed: tel.wal_records_replayed.get(),
            recoveries: tel.recoveries.get(),
            wal_truncations: tel.wal_truncations.get(),
            latency: tel.request_latency.snapshot(),
        }
    }

    /// The service's telemetry plane. The wire front end
    /// ([`crate::server`]) clones this `Arc` so worker threads can count
    /// sheds and health probes and serve `/metrics`, `/statz.json`, and
    /// `/trace` without queueing behind the engine thread.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.tel)
    }

    /// Counts one executed wire request that took `ns` nanoseconds end to
    /// end (arrival to completion). Called by the wire front end
    /// ([`crate::server`]); a single atomic increment, never allocates.
    pub fn record_request_latency_ns(&self, ns: u64) {
        self.tel.request_latency.record_ns(ns);
    }

    /// Counts one wire request whose deadline expired before execution
    /// (the front end answers it 504 without touching the model).
    pub fn note_deadline_expired(&self) {
        self.tel.deadlines_expired.inc();
    }

    /// The service-wide late-edge policy.
    pub fn late_edge_policy(&self) -> LateEdgePolicy {
        self.policy
    }

    /// Attaches a durable checkpoint + WAL log to the named model.
    ///
    /// If `cfg.dir` holds a committed checkpoint, the model is **recovered
    /// from disk**: the restored model is installed under `name` (hot-
    /// swapping any model already deployed there) with its streaming
    /// state, counters and replay buffer, at the service's configured
    /// shard count — resharding-on-restore. The WAL's surviving records
    /// are replayed through the exact live code paths, a torn tail is
    /// truncated at the last valid record, and the summary comes back as
    /// `Some(report)`. Recovery needs **no dataset and no prior model** —
    /// a freshly built service restarts in O(state + WAL tail), not
    /// O(stream).
    ///
    /// Otherwise the installed model's state is written as the directory's
    /// first checkpoint (epoch 0) and `None` comes back. Either way, every
    /// subsequent mutating request (ingest, labels, fine-tune, publish) is
    /// group-committed to the WAL before it is acknowledged, and a fresh
    /// snapshot is cut every `cfg.checkpoint_every` records (or on
    /// [`SplashService::checkpoint`]).
    ///
    /// Caveats: one durable directory serves one model (the durable
    /// counters are service-wide, so durability is designed for
    /// single-model deployments); the builder's `SplashConfig` /
    /// [`OnlineConfig`] must match across restarts (the buffer capacity
    /// and stream clock are validated, the rest is the deployment's
    /// contract); a service without [`SplashServiceBuilder::online`]
    /// cannot recover a checkpoint that carries a replay buffer, and vice
    /// versa.
    pub fn make_durable(
        &mut self,
        name: &str,
        cfg: DurabilityConfig,
    ) -> Result<Option<RecoveryReport>, SplashError> {
        cfg.validate()?;
        if let Ok(idx) = self.index(name) {
            if self.models[idx].durable.is_some() {
                return Err(SplashError::InvalidConfig {
                    what: format!("model {name:?} is already durable"),
                });
            }
        }
        if !DurableLog::exists(&cfg.dir) {
            // Nothing to recover: the *installed* model seeds epoch 0 (a
            // missing name is the usual typed error — an empty directory
            // cannot conjure a model).
            let idx = self.index(name)?;
            let data = self.checkpoint_data(idx)?;
            let log = DurableLog::create(&cfg, data)?;
            self.models[idx].durable = Some(log);
            self.tel.snapshots_written.inc();
            return Ok(None);
        }

        let (log, recovered) = DurableLog::recover(&cfg)?;
        let mut saved = recovered.saved;
        saved.cfg.validate()?;
        let opt = saved.opt.take();
        let state =
            crate::stream::assemble_stream_state(recovered.witness, recovered.ring_shards)?;
        let predictor =
            StreamingPredictor::try_from_saved_state(saved, state)?.reshard(self.shards)?;
        let trainer = match (&self.online, recovered.trainer) {
            (None, None) => None,
            (None, Some(_)) => {
                return Err(SplashError::InvalidConfig {
                    what: "checkpoint carries an online replay buffer but this service \
                           has continual learning disabled"
                        .into(),
                });
            }
            (Some(_), None) => {
                return Err(SplashError::InvalidConfig {
                    what: "this service has continual learning enabled but the \
                           checkpoint was written without it"
                        .into(),
                });
            }
            (Some(ocfg), Some(state)) => {
                let model = predictor.model().clone();
                let mut trainer = OnlineTrainer::resume(*ocfg, model, state.task, opt.as_ref())?;
                trainer.restore_durable_state(state)?;
                Some(trainer)
            }
        };
        let idx = self.install(name, Engine::Splash(Box::new(predictor)), trainer);

        let counters = recovered.counters;
        self.tel.edges_ingested.set(counters.edges_ingested);
        self.tel.edges_dropped.set(counters.edges_dropped);
        self.tel.labels_buffered.set(counters.labels_buffered);
        self.tel.labels_dropped.set(counters.labels_dropped);
        self.tel.fine_tunes.set(counters.fine_tunes);
        self.tel.fine_tune_steps.set(counters.fine_tune_steps);
        self.tel.publishes.set(counters.publishes);

        for (i, entry) in recovered.entries.into_iter().enumerate() {
            self.apply_wal_entry(idx, entry).map_err(|e| SplashError::WalCorrupt {
                what: format!("replaying record {i} failed: {e}"),
            })?;
        }
        let report = recovered.report;
        self.models[idx].durable = Some(log);
        self.tel.recoveries.inc();
        self.tel.wal_records_replayed.add(report.wal_records_replayed);
        self.tel.wal_truncations.add(u64::from(report.wal_tail_truncated));
        Ok(Some(report))
    }

    /// Cuts a fresh durable checkpoint of the named model now (snapshot +
    /// empty WAL + atomic `CURRENT` commit), independent of the automatic
    /// WAL-record threshold. Requires a prior
    /// [`SplashService::make_durable`].
    ///
    /// Under [`CheckpointPolicy::Refuse`], a non-empty online replay
    /// buffer refuses with [`SplashError::CheckpointUnflushed`].
    pub fn checkpoint(&mut self, name: &str) -> Result<(), SplashError> {
        let idx = self.index(name)?;
        if self.models[idx].durable.is_none() {
            return Err(SplashError::InvalidConfig {
                what: format!("model {name:?} has no durable log (call make_durable first)"),
            });
        }
        self.checkpoint_idx(idx)
    }

    /// The committed checkpoint epoch of the named model's durable log,
    /// `None` before [`SplashService::make_durable`].
    pub fn checkpoint_epoch(&self, name: &str) -> Result<Option<u64>, SplashError> {
        Ok(self.entry(name)?.durable.as_ref().map(|log| log.epoch()))
    }

    /// Writes epoch `current + 1` from the entry's live state and swaps
    /// the WAL. On error the previous epoch stays committed and appends
    /// continue against it.
    fn checkpoint_idx(&mut self, idx: usize) -> Result<(), SplashError> {
        let data = self.checkpoint_data(idx)?;
        let log = self.models[idx]
            .durable
            .as_mut()
            .expect("checkpoint_idx requires an attached durable log");
        log.checkpoint(data)?;
        self.tel.snapshots_written.inc();
        Ok(())
    }

    /// Assembles everything one checkpoint persists, honoring the
    /// [`CheckpointPolicy`] toward a non-empty replay buffer.
    fn checkpoint_data(&mut self, idx: usize) -> Result<CheckpointData, SplashError> {
        let counters = PersistedCounters {
            edges_ingested: self.tel.edges_ingested.get(),
            edges_dropped: self.tel.edges_dropped.get(),
            labels_buffered: self.tel.labels_buffered.get(),
            labels_dropped: self.tel.labels_dropped.get(),
            fine_tunes: self.tel.fine_tunes.get(),
            fine_tune_steps: self.tel.fine_tune_steps.get(),
            publishes: self.tel.publishes.get(),
        };
        let policy = self.checkpoint_policy;
        let ModelEntry { engine, trainer, .. } = &mut self.models[idx];
        if policy == CheckpointPolicy::Refuse {
            if let Some(buffered) = trainer.as_ref().map(|t| t.buffered()).filter(|&b| b > 0) {
                return Err(SplashError::CheckpointUnflushed { buffered });
            }
        }
        let engine = engine.splash_mut("checkpointed")?;
        let opt = trainer.as_mut().map(|t| t.checkpoint());
        let model_bytes = engine.artifact_bytes(opt.as_ref(), None)?;
        let (witness, ring_shards) = (engine.durable_witness(), engine.durable_ring_shards());
        let trainer_state = trainer.as_ref().map(|t| t.durable_state());
        Ok(CheckpointData { model_bytes, witness, ring_shards, counters, trainer: trainer_state })
    }

    /// Group-commits one accepted mutating request to the entry's WAL (a
    /// no-op for non-durable entries), then cuts a snapshot if the WAL
    /// has crossed the configured threshold. A threshold checkpoint that
    /// [`CheckpointPolicy::Refuse`] would reject is deferred, not failed —
    /// the WAL keeps the backlog durable until the buffer drains.
    fn append_wal(&mut self, idx: usize, record: WalRecord<'_>) -> Result<(), SplashError> {
        let entry = &mut self.models[idx];
        let Some(log) = entry.durable.as_mut() else {
            return Ok(());
        };
        let start = Instant::now();
        log.append(record)?;
        // Stage the fsync cost for the span the engine thread is about to
        // record — the wire front end drains it per request.
        self.tel.note_wal_commit_ns(start.elapsed().as_nanos() as u64);
        self.tel.wal_records_appended.inc();
        let due = self.models[idx]
            .durable
            .as_ref()
            .is_some_and(|log| log.should_checkpoint());
        if due {
            let refused = self.checkpoint_policy == CheckpointPolicy::Refuse
                && self.models[idx]
                    .trainer
                    .as_ref()
                    .is_some_and(|t| t.buffered() > 0);
            if !refused {
                self.checkpoint_idx(idx)?;
            }
        }
        Ok(())
    }

    /// Re-applies one recovered WAL entry through the live code paths
    /// (minus the re-append) — replay is the same computation the original
    /// request ran, so the restored process is bit-identical to one that
    /// never crashed.
    fn apply_wal_entry(&mut self, idx: usize, entry: WalEntry) -> Result<(), SplashError> {
        match entry {
            WalEntry::Edges { edges, drop_late } => {
                let policy = if drop_late {
                    LateEdgePolicy::DropLate
                } else {
                    LateEdgePolicy::Error
                };
                self.apply_ingest(idx, &edges, policy)?;
            }
            WalEntry::Labels(queries) => {
                self.apply_labels(idx, &queries)?;
            }
            WalEntry::FineTune => {
                self.apply_fine_tune(idx)?;
            }
            WalEntry::Publish => {
                self.apply_publish(idx)?;
            }
        }
        Ok(())
    }

    /// Installs (or hot-swaps) a registry entry, preserving any attached
    /// durable log, and returns the entry's index.
    fn install(&mut self, name: &str, engine: Engine, trainer: Option<OnlineTrainer>) -> usize {
        let idx = match self.models.iter_mut().position(|e| e.name == name) {
            Some(idx) => {
                self.models[idx].engine = engine;
                self.models[idx].trainer = trainer;
                idx
            }
            None => {
                self.models.push(ModelEntry {
                    name: name.to_string(),
                    engine,
                    trainer,
                    durable: None,
                });
                self.models.len() - 1
            }
        };
        self.register_model_telemetry(idx);
        idx
    }

    /// (Re-)exposes one entry's per-model series in the shared registry —
    /// a SPLASH engine's witness and per-shard counters, the online
    /// replay-buffer fill gauge — and refreshes the registry-shape gauges.
    /// Hot-swap safe: stale series under the same model label are dropped
    /// first, so a model re-installed at a different shard count does not
    /// leave orphan shard series behind.
    fn register_model_telemetry(&mut self, idx: usize) {
        let needle = format!("model=\"{}\"", escape_label_value(&self.models[idx].name));
        self.tel.registry().remove_series_with_label(&needle);
        let entry = &mut self.models[idx];
        if let Engine::Splash(p) = &entry.engine {
            p.register_telemetry(self.tel.registry(), &entry.name);
        }
        if let Some(trainer) = entry.trainer.as_mut() {
            let gauge = Gauge::new();
            self.tel.registry().register_gauge(
                "splash_online_buffered",
                &needle,
                "Labeled snapshots currently held in the model's bounded replay buffer.",
                &gauge,
            );
            trainer.attach_buffer_gauge(gauge);
        }
        self.sync_registry_gauges();
    }

    /// Refreshes the registry-shape gauges (`splash_models`,
    /// `splash_shard_engines`) from the current model table.
    fn sync_registry_gauges(&self) {
        self.tel.models.set(self.models.len() as u64);
        self.tel
            .shards
            .set(self.models.iter().map(|e| e.engine.shards() as u64).sum());
    }

    /// After hot-swapping a durable model, the on-disk snapshot describes
    /// the *old* model and the WAL must not straddle the swap — write a
    /// fresh checkpoint immediately (the load/train route is a checkpoint
    /// barrier). A no-op for non-durable entries.
    fn checkpoint_barrier(&mut self, idx: usize) -> Result<(), SplashError> {
        if self.models[idx].durable.is_some() {
            self.checkpoint_idx(idx)?;
        }
        Ok(())
    }

    fn entry(&self, name: &str) -> Result<&ModelEntry, SplashError> {
        self.models
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| SplashError::UnknownModel { name: name.to_string() })
    }

    fn index(&self, name: &str) -> Result<usize, SplashError> {
        self.models
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| SplashError::UnknownModel { name: name.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_invalid_config() {
        let mut cfg = SplashConfig::tiny();
        cfg.k = 0;
        let err = SplashService::builder(cfg).build().unwrap_err();
        assert!(matches!(err, SplashError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn unknown_model_is_typed() {
        let mut service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
        let err = service.predict("nope", PredictRequest::new(0, 0.0)).unwrap_err();
        assert!(matches!(err, SplashError::UnknownModel { .. }), "{err:?}");
        let err = service.ingest("nope", IngestRequest::new(&[])).unwrap_err();
        assert!(matches!(err, SplashError::UnknownModel { .. }), "{err:?}");
        let err = service.remove_model("nope").unwrap_err();
        assert!(matches!(err, SplashError::UnknownModel { .. }), "{err:?}");
    }

    #[test]
    fn empty_response_has_no_top_class() {
        assert_eq!(PredictResponse::default().top_class(), None);
    }

    /// A minimal [`ServeEngine`] honoring the streaming contract: the
    /// stream clock advances monotonically, batches reject atomically, and
    /// predictions are a pure function of `(node, time)`.
    #[derive(Debug)]
    struct MockEngine {
        last: f64,
        nodes: usize,
        edges_seen: usize,
    }

    impl ServeEngine for MockEngine {
        fn kind(&self) -> String {
            "mock".to_string()
        }

        fn last_time(&self) -> f64 {
            self.last
        }

        fn known_nodes(&self) -> usize {
            self.nodes
        }

        fn try_push_edges(&mut self, edges: &[TemporalEdge]) -> Result<(), SplashError> {
            let mut prev = self.last;
            for e in edges {
                if e.time < prev {
                    return Err(SplashError::OutOfOrderEdge { got: e.time, last: prev });
                }
                prev = e.time;
            }
            for e in edges {
                self.try_observe_edge(e)?;
            }
            Ok(())
        }

        fn try_observe_edge(&mut self, edge: &TemporalEdge) -> Result<(), SplashError> {
            if edge.time < self.last {
                return Err(SplashError::OutOfOrderEdge { got: edge.time, last: self.last });
            }
            self.last = edge.time;
            self.edges_seen += 1;
            self.nodes = self.nodes.max(edge.src as usize + 1).max(edge.dst as usize + 1);
            Ok(())
        }

        fn try_predict_into(
            &self,
            node: NodeId,
            time: f64,
            out: &mut Vec<f32>,
        ) -> Result<(), SplashError> {
            if time < self.last {
                return Err(SplashError::PastQuery { got: time, last: self.last });
            }
            out.clear();
            out.extend_from_slice(&[node as f32, time as f32]);
            Ok(())
        }

        fn try_predict_batch(&self, queries: &[PropertyQuery]) -> Result<Matrix, SplashError> {
            let mut data = Vec::with_capacity(queries.len() * 2);
            let mut scratch = Vec::new();
            for q in queries {
                self.try_predict_into(q.node, q.time, &mut scratch)?;
                data.extend_from_slice(&scratch);
            }
            Ok(Matrix::from_vec(queries.len(), 2, data))
        }
    }

    fn edge(src: NodeId, dst: NodeId, time: f64) -> TemporalEdge {
        TemporalEdge { src, dst, time, weight: 1.0, feat: Box::new([]) }
    }

    #[test]
    fn external_engine_serves_through_registry_slots() {
        let mut service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
        service
            .register_engine("mock", Box::new(MockEngine { last: f64::NEG_INFINITY, nodes: 4, edges_seen: 0 }))
            .unwrap();

        // Same ingest path and counters as a SPLASH slot.
        let report =
            service.ingest("mock", IngestRequest::new(&[edge(0, 1, 1.0), edge(1, 2, 2.0)])).unwrap();
        assert_eq!((report.ingested, report.dropped), (2, 0));
        assert_eq!(service.model_last_time("mock").unwrap(), 2.0);

        // Late-edge policy applies: whole batch rejected atomically.
        let err = service.ingest("mock", IngestRequest::new(&[edge(2, 3, 0.5)])).unwrap_err();
        assert!(matches!(err, SplashError::OutOfOrderEdge { .. }), "{err:?}");

        // Queries serve and count.
        let resp = service.predict("mock", PredictRequest::new(3, 5.0)).unwrap();
        assert_eq!(resp.logits, vec![3.0, 5.0]);
        let stats = service.stats();
        assert_eq!(stats.edges_ingested, 2);
        assert_eq!(stats.queries_served, 1);

        // Serving-only: no trainer, no persistence, no direct predictor.
        let q = PropertyQuery { node: 0, time: 9.0, label: ctdg::Label::Class(0) };
        let err = service.observe_labels("mock", std::slice::from_ref(&q)).unwrap_err();
        assert!(matches!(err, SplashError::OnlineDisabled { .. }), "{err:?}");
        let err = service.save_model("mock", Path::new("/tmp/never-written")).unwrap_err();
        assert!(matches!(err, SplashError::InvalidConfig { .. }), "{err:?}");
        let err = service.model("mock").unwrap_err();
        assert!(matches!(err, SplashError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn models_info_reports_engine_kinds() {
        let mut service = SplashService::builder(SplashConfig::tiny()).build().unwrap();
        service
            .register_engine("mock", Box::new(MockEngine { last: f64::NEG_INFINITY, nodes: 1, edges_seen: 0 }))
            .unwrap();
        let info = service.models_info();
        assert_eq!(info.len(), 1);
        assert_eq!(
            info[0],
            ModelInfo {
                name: "mock".into(),
                engine: "mock".into(),
                shards: 1,
                online: false,
                durable: false,
            }
        );
        assert_eq!(info[0].to_string(), "mock engine=mock shards=1 online=off durable=off");
    }
}
