//! Online streaming inference (paper Fig. 4).
//!
//! The batch pipeline in [`crate::pipeline`] trains and evaluates over
//! captured snapshots. Deployment looks different: temporal edges arrive one
//! at a time, each label query must be answered *immediately* from state
//! maintained so far, and the state must stay sub-linear in the number of
//! edges. [`StreamingPredictor`] packages a trained SLIM model with exactly
//! that state — the feature [`Augmenter`] (fixed seen-node features,
//! propagated unseen-node features, incremental degrees) and a per-node ring
//! of the `k` most recent incident edges with feature snapshots.
//!
//! The *witness* half of that state — the augmenter plus the stream clock —
//! is a global, single-writer function of the edge stream, factored into
//! its own `WitnessState` component: a standalone predictor owns one, while
//! the ring partitions inside a [`crate::shard::ShardedPredictor`] stay
//! witness-less — the engine's single shared witness either writes their
//! ring slots directly (serial ingest) or hands them pre-materialized
//! `EdgeSnapshot`s (thread-parallel ingest), so per-shard ingest work is
//! O(owned endpoints), not O(edges).
//!
//! Predictions are bit-identical to the batch pipeline's (verified by the
//! `streaming_matches_batch_pipeline` test): both paths snapshot neighbor
//! features at edge-arrival time, as Eq. 14 requires.

use std::cell::RefCell;

use ctdg::{Label, NodeId, PropertyQuery, TemporalEdge};
use datasets::Dataset;
use nn::{Matrix, Workspace};

use crate::augment::{Augmenter, FeatureProcess};
use crate::capture::{capture, seen_end_time, CapturedNeighbor, CapturedQuery, InputFeatures};
use crate::config::SplashConfig;
use crate::error::SplashError;
use crate::pipeline::{split_bounds, train_slim, SEEN_FRAC};
use crate::select::select_features;
use crate::slim::{SlimBatch, SlimModel};
use crate::task::output_dim;

/// Chunk size [`StreamingPredictor::try_predict_batch`] hands to the
/// (chunk-parallel) batched forward pass.
const STREAM_BATCH: usize = 256;

/// A ring of the `k` most recent incident edges, with feature snapshots.
#[derive(Debug, Clone, Default)]
struct Ring {
    entries: Vec<CapturedNeighbor>,
    head: usize,
}

/// One node's ring as a durable checkpoint sees it: the owning node id, the
/// overwrite cursor, and the captured entries in *storage* order (the
/// oldest-first read order is `entries[head..]` then `entries[..head]`, and
/// restoring both fields verbatim preserves it bit for bit).
#[derive(Debug, Clone)]
pub(crate) struct RingState {
    /// Node id owning this ring.
    pub node: NodeId,
    /// Overwrite cursor (0 while the ring is still filling).
    pub head: usize,
    /// Captured neighbor snapshots in storage order.
    pub entries: Vec<CapturedNeighbor>,
}

/// Everything a [`StreamingPredictor`] holds that `persist::SavedModel`
/// does not: augmenter/tracker state, the non-empty per-node rings, and the
/// stream clock. Assembled by `assemble_stream_state` from a recovered
/// witness + ring partitions and consumed by
/// [`StreamingPredictor::try_from_saved_state`].
#[derive(Debug, Clone)]
pub(crate) struct StreamState {
    /// Feature-augmentation state (seen tables, propagated features, degrees).
    pub augmenter: crate::augment::AugmenterState,
    /// Non-empty rings only (empty rings are implicit).
    pub rings: Vec<RingState>,
    /// Ring capacity `k` at capture time (must match the model's config).
    pub k: usize,
    /// Arrival time of the most recently observed edge.
    pub last_time: f64,
}

/// Rejects an edge whose feature vector is not `expected` columns wide. A
/// ring slot carries the vector into the model's fixed-width input row, so
/// a mismatch must be refused at ingest, before it reaches a predict.
pub(crate) fn check_edge_width(edge: &TemporalEdge, expected: usize) -> Result<(), SplashError> {
    if edge.feat.len() == expected {
        Ok(())
    } else {
        Err(SplashError::EdgeFeatureWidth { expected, got: edge.feat.len() })
    }
}

/// Reassembles one unsharded [`StreamState`] from a recovered witness
/// snapshot plus the per-shard ring partitions: the single witness carries
/// the augmenter/clock, and the ring union restores every node's ring.
/// Rejects duplicate ring ownership — a shard set spliced together from
/// two different checkpoints.
pub(crate) fn assemble_stream_state(
    witness: WitnessSnapshot,
    ring_shards: Vec<Vec<RingState>>,
) -> Result<StreamState, SplashError> {
    let mut rings: Vec<RingState> = ring_shards.into_iter().flatten().collect();
    rings.sort_unstable_by_key(|r| r.node);
    if rings.windows(2).any(|w| w[0].node == w[1].node) {
        return Err(SplashError::CorruptModel {
            what: "two shard state files claim rings for the same node".into(),
        });
    }
    Ok(StreamState {
        augmenter: witness.augmenter,
        rings,
        k: witness.k,
        last_time: witness.last_time,
    })
}

/// The global *witness* state of an edge stream: the feature [`Augmenter`]
/// plus the stream clock. Degree encodings and propagated features are
/// global functions of the whole stream (the paper's core observation), so
/// there is exactly one writer of this state per logical model — a
/// standalone [`StreamingPredictor`] owns one, a
/// [`crate::shard::ShardedPredictor`] owns one shared by all of its ring
/// partitions.
#[derive(Debug, Clone)]
pub(crate) struct WitnessState {
    /// Feature tracker (seen tables, propagated features, degrees).
    pub augmenter: Augmenter,
    /// Arrival time of the most recently observed edge.
    pub last_time: f64,
}

impl WitnessState {
    /// Witnesses one edge: updates the tracker and the stream clock, and
    /// materializes everything a ring partition needs — the post-update
    /// endpoint feature snapshots, the edge payload, and the precomputed
    /// ring owners under an `shards`-way partition — into the reusable
    /// `snap` buffer. One call per edge per *batch*, shared by every
    /// shard; the snapshot buffers are reused across batches, so
    /// steady-state witnessing is allocation-free. Only the
    /// thread-parallel ingest path materializes snapshots (serial ingest
    /// writes ring slots directly), so this is unused without `parallel`.
    #[cfg_attr(not(feature = "parallel"), allow(dead_code))]
    pub fn observe_into(
        &mut self,
        edge: &TemporalEdge,
        process: FeatureProcess,
        shards: usize,
        snap: &mut EdgeSnapshot,
    ) {
        self.augmenter.observe(edge);
        snap.src = edge.src;
        snap.dst = edge.dst;
        // Ring slots snapshot the *other* endpoint's post-observe features
        // (Eq. 14 snapshot-at-arrival): the src ring reads dst's, the dst
        // ring reads src's. A self-loop writes only the src ring.
        self.augmenter.feature_into(process, edge.dst, &mut snap.dst_feat);
        if edge.src != edge.dst {
            self.augmenter.feature_into(process, edge.src, &mut snap.src_feat);
        }
        snap.edge_feat.clear();
        snap.edge_feat.extend_from_slice(&edge.feat);
        snap.time = edge.time;
        snap.weight = edge.weight;
        snap.owner_src = crate::shard::shard_of(edge.src, shards);
        snap.owner_dst = crate::shard::shard_of(edge.dst, shards);
        self.last_time = edge.time;
    }
}

/// Everything one witnessed edge contributes to the ring partitions,
/// materialized once by `WitnessState::observe_into` and consumed by
/// `StreamingPredictor::apply_snapshots` on each shard. Plain owned data
/// (no references into the witness), so a batch of snapshots can be read
/// by every shard thread concurrently. Serial ingest bypasses snapshots
/// entirely (`StreamingPredictor::remember_side`), so the fields are only
/// read with the `parallel` feature.
#[derive(Debug, Clone, Default)]
#[cfg_attr(not(feature = "parallel"), allow(dead_code))]
pub(crate) struct EdgeSnapshot {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// `src`'s post-observe features (what the dst ring snapshots); left
    /// stale on self-loops, which never read it.
    pub src_feat: Vec<f32>,
    /// `dst`'s post-observe features (what the src ring snapshots).
    pub dst_feat: Vec<f32>,
    /// The edge's own feature payload.
    pub edge_feat: Vec<f32>,
    /// Edge arrival time.
    pub time: f64,
    /// Edge weight.
    pub weight: f32,
    /// Ring owner of `src` under the batch's shard count.
    pub owner_src: usize,
    /// Ring owner of `dst` under the batch's shard count.
    pub owner_dst: usize,
}

/// The witness half of a durable checkpoint: augmenter state, ring
/// capacity, and the stream clock — written once per checkpoint regardless
/// of the shard count (the rings travel separately, one file per shard).
#[derive(Debug, Clone)]
pub(crate) struct WitnessSnapshot {
    /// Feature-augmentation state (seen tables, propagated features, degrees).
    pub augmenter: crate::augment::AugmenterState,
    /// Ring capacity `k` at capture time (must match the model's config).
    pub k: usize,
    /// Arrival time of the most recently observed edge.
    pub last_time: f64,
}

/// Reusable buffers for steady-state query answering: assembled query
/// inputs, the packed batch, the model's workspace, and the logits buffer.
/// Warmed up by the first few predictions, then reused verbatim, so
/// [`StreamingPredictor::try_predict_into`] stays off the allocator.
#[derive(Debug, Clone, Default)]
struct PredictScratch {
    query: CapturedQuery,
    queries: Vec<CapturedQuery>,
    /// Parked neighbor slots: when a query has fewer neighbors than the
    /// previous one, the surplus slots move here instead of being dropped,
    /// keeping their feature buffers alive for the next longer query.
    spare: Vec<CapturedNeighbor>,
    batch: SlimBatch,
    ws: Workspace,
    logits: Matrix,
}

/// A trained SPLASH model plus all streaming state, ready to consume a live
/// edge stream and answer label queries in real time.
#[derive(Debug, Clone)]
pub struct StreamingPredictor {
    model: SlimModel,
    /// The global witness state. `Some` for a predictor that owns its
    /// stream (the standalone case); `None` for a ring-partition member
    /// inside a [`crate::shard::ShardedPredictor`], which reads the
    /// engine's single shared witness instead of carrying a copy.
    witness: Option<WitnessState>,
    process: FeatureProcess,
    rings: Vec<Ring>,
    k: usize,
    /// The full training config, kept so the predictor can persist itself
    /// ([`StreamingPredictor::save`]) without the caller re-supplying it.
    cfg: SplashConfig,
    feat_dim: usize,
    edge_feat_dim: usize,
    out_dim: usize,
    /// Interior-mutable so the `&self` prediction methods can reuse their
    /// assembly buffers across calls. This makes the predictor
    /// single-threaded (`!Sync`) by design; for concurrent serving, clone
    /// one predictor per worker (cloning isolates the scratch) or use
    /// [`StreamingPredictor::try_predict_batch`], which parallelizes over
    /// query chunks internally.
    scratch: RefCell<PredictScratch>,
}

impl StreamingPredictor {
    /// Trains SPLASH on the dataset's training period (with automatic
    /// feature selection) and returns a predictor primed with every edge up
    /// to the end of the seen period, ready to continue from there.
    pub fn train(dataset: &Dataset, cfg: &SplashConfig) -> Self {
        let report = select_features(dataset, cfg, SEEN_FRAC);
        Self::train_with_process(dataset, cfg, report.selected)
    }

    /// Like [`StreamingPredictor::train`] but with a fixed augmentation
    /// process (skipping selection).
    pub fn train_with_process(
        dataset: &Dataset,
        cfg: &SplashConfig,
        process: FeatureProcess,
    ) -> Self {
        let cap = capture(dataset, InputFeatures::Process(process), cfg, SEEN_FRAC);
        let (train_end, _) = split_bounds(cap.queries.len());
        let (model, _) = train_slim(&cap, dataset, &cap.queries[..train_end], cfg);

        let t_seen = seen_end_time(dataset, SEEN_FRAC);
        let prefix = dataset.stream.prefix_len_at(t_seen);
        let augmenter = Augmenter::with_source(
            &dataset.stream,
            prefix,
            dataset.stream.num_nodes(),
            cfg.feat_dim,
            &cfg.node2vec,
            cfg.positional,
            cfg.degree_alpha,
            cfg.seed,
        );
        let mut predictor = Self {
            model,
            witness: Some(WitnessState { augmenter, last_time: f64::NEG_INFINITY }),
            process,
            rings: Vec::new(),
            k: cfg.k,
            cfg: *cfg,
            feat_dim: cap.feat_dim,
            edge_feat_dim: cap.edge_feat_dim,
            out_dim: output_dim(dataset.task, dataset.num_classes),
            scratch: RefCell::new(PredictScratch::default()),
        };
        // Prime the neighbor rings with the seen-period edges. The
        // augmenter already observed them in `Augmenter::new`, so only the
        // rings are updated here.
        let w = predictor.witness.as_mut().expect("just constructed with an owned witness");
        for edge in &dataset.stream.edges()[..prefix] {
            Self::remember(&mut predictor.rings, cfg.k, &w.augmenter, process, edge);
            w.last_time = edge.time;
        }
        predictor
    }

    /// Rebuilds a predictor from a model restored with
    /// [`crate::persist::load_model`], skipping training entirely: the
    /// augmenter is reconstructed deterministically from the training
    /// stream and the stored (seeded) config, so the result is identical to
    /// the predictor that existed when the model was saved.
    ///
    /// Returns [`SplashError::NotStreamable`] when the saved model's
    /// feature mode is not a single augmentation process (streaming state
    /// is defined per process).
    pub fn try_from_saved(
        saved: crate::persist::SavedModel,
        dataset: &Dataset,
    ) -> Result<Self, SplashError> {
        let Some(process) = saved.selected() else {
            return Err(SplashError::NotStreamable { mode: saved.mode.name() });
        };
        let cfg = saved.cfg;
        let t_seen = seen_end_time(dataset, SEEN_FRAC);
        let prefix = dataset.stream.prefix_len_at(t_seen);
        let augmenter = Augmenter::with_source(
            &dataset.stream,
            prefix,
            dataset.stream.num_nodes(),
            cfg.feat_dim,
            &cfg.node2vec,
            cfg.positional,
            cfg.degree_alpha,
            cfg.seed,
        );
        let mut predictor = Self {
            model: saved.model,
            witness: Some(WitnessState { augmenter, last_time: f64::NEG_INFINITY }),
            process,
            rings: Vec::new(),
            k: cfg.k,
            cfg,
            feat_dim: saved.feat_dim,
            edge_feat_dim: saved.edge_feat_dim,
            out_dim: saved.out_dim,
            scratch: RefCell::new(PredictScratch::default()),
        };
        let w = predictor.witness.as_mut().expect("just constructed with an owned witness");
        for edge in &dataset.stream.edges()[..prefix] {
            Self::remember(&mut predictor.rings, cfg.k, &w.augmenter, process, edge);
            w.last_time = edge.time;
        }
        Ok(predictor)
    }

    /// Clones the witness half of the streaming state a durable checkpoint
    /// must persist on top of the saved model: augmenter state, ring
    /// capacity, and the stream clock. Requires an owned witness (a shard
    /// member's witness lives on its `ShardedPredictor`).
    pub(crate) fn durable_witness(&self) -> WitnessSnapshot {
        let w = self.witness();
        WitnessSnapshot { augmenter: w.augmenter.durable_state(), k: self.k, last_time: w.last_time }
    }

    /// Clones this predictor's non-empty rings (in storage order, with
    /// cursors) — the partition half of a durable checkpoint.
    pub(crate) fn durable_rings(&self) -> Vec<RingState> {
        self.rings
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.entries.is_empty())
            .map(|(i, r)| RingState {
                node: i as NodeId,
                head: r.head,
                entries: r.entries.clone(),
            })
            .collect()
    }

    /// Rebuilds a predictor from a restored model *plus* a captured
    /// [`StreamState`] — the fast-restart path. Unlike
    /// [`StreamingPredictor::try_from_saved`], this neither rebuilds the
    /// positional embedding nor replays the training prefix: the cost is
    /// O(state), independent of the stream length, and the result is
    /// bit-identical to the predictor that produced the state.
    ///
    /// Dimension agreement between the model and the state is the caller's
    /// contract; the cheap invariants (process mode, feature dimension,
    /// ring capacity) are re-checked here and report
    /// [`SplashError::CorruptModel`] on mismatch.
    pub(crate) fn try_from_saved_state(
        saved: crate::persist::SavedModel,
        state: StreamState,
    ) -> Result<Self, SplashError> {
        let Some(process) = saved.selected() else {
            return Err(SplashError::NotStreamable { mode: saved.mode.name() });
        };
        let cfg = saved.cfg;
        if state.augmenter.dv != cfg.feat_dim {
            return Err(SplashError::CorruptModel {
                what: format!(
                    "state feature dim {} does not match the model's {}",
                    state.augmenter.dv, cfg.feat_dim
                ),
            });
        }
        if state.k != cfg.k {
            return Err(SplashError::CorruptModel {
                what: format!(
                    "state ring capacity {} does not match the model's k={}",
                    state.k, cfg.k
                ),
            });
        }
        let mut predictor = Self {
            model: saved.model,
            witness: Some(WitnessState {
                augmenter: Augmenter::from_durable_state(state.augmenter, cfg.degree_alpha),
                last_time: state.last_time,
            }),
            process,
            rings: Vec::new(),
            k: cfg.k,
            cfg,
            feat_dim: saved.feat_dim,
            edge_feat_dim: saved.edge_feat_dim,
            out_dim: saved.out_dim,
            scratch: RefCell::new(PredictScratch::default()),
        };
        for ring in state.rings {
            if ring.entries.len() > predictor.k
                || ring.head >= ring.entries.len().max(1)
                || (ring.entries.len() < predictor.k && ring.head != 0)
            {
                return Err(SplashError::CorruptModel {
                    what: format!(
                        "ring for node {} is inconsistent ({} entries, head {}, k={})",
                        ring.node,
                        ring.entries.len(),
                        ring.head,
                        predictor.k
                    ),
                });
            }
            Self::grow_rings(&mut predictor.rings, ring.node);
            let slot = &mut predictor.rings[ring.node as usize];
            slot.head = ring.head;
            slot.entries = ring.entries;
            // Keep the one-allocation-per-ring discipline: a partially
            // filled restored ring must not regrow through doubling.
            slot.entries.reserve_exact(predictor.k - slot.entries.len());
        }
        Ok(predictor)
    }

    /// Persists this predictor's model (and everything needed to restore
    /// it with [`StreamingPredictor::try_from_saved`]) to `path`.
    ///
    /// `&mut self` only because parameter access goes through
    /// `Parameterized::params_mut`; no value changes.
    pub fn save(&mut self, path: &std::path::Path) -> Result<(), SplashError> {
        self.save_with_opt(path, None)
    }

    /// [`StreamingPredictor::save`] plus an optional checkpoint of the
    /// online-fine-tuning optimizer (`SAVEDOPT` section — see
    /// [`crate::persist::save_model_with_opt`]).
    pub fn save_with_opt(
        &mut self,
        path: &std::path::Path,
        opt: Option<&crate::slim::AdamState>,
    ) -> Result<(), SplashError> {
        crate::persist::save_model_with_opt(
            path,
            &mut self.model,
            &self.cfg,
            InputFeatures::Process(self.process),
            self.feat_dim,
            self.edge_feat_dim,
            self.out_dim,
            opt,
        )
    }

    /// Serializes this predictor's model artifact (the exact bytes
    /// [`StreamingPredictor::save_with_opt`] would write) into memory, for
    /// the durable checkpoint layer to write through its crash-injection
    /// seam.
    pub(crate) fn model_artifact_bytes(
        &mut self,
        opt: Option<&crate::slim::AdamState>,
    ) -> Result<Vec<u8>, SplashError> {
        crate::persist::model_artifact_bytes(
            &mut self.model,
            &self.cfg,
            InputFeatures::Process(self.process),
            self.feat_dim,
            self.edge_feat_dim,
            self.out_dim,
            opt,
        )
    }

    /// Persists this predictor's model as a *sharded* artifact (manifest +
    /// `shards` model files); the sharded counterpart of
    /// [`StreamingPredictor::save`], used by
    /// [`crate::shard::ShardedPredictor::save`].
    pub(crate) fn save_sharded(
        &mut self,
        path: &std::path::Path,
        shards: usize,
        opt: Option<&crate::slim::AdamState>,
    ) -> Result<(), SplashError> {
        crate::persist::save_sharded_model_with_opt(
            path,
            &mut self.model,
            &self.cfg,
            InputFeatures::Process(self.process),
            self.feat_dim,
            self.edge_feat_dim,
            self.out_dim,
            shards,
            opt,
        )
    }

    /// The trained SLIM model this predictor serves (read-only; the online
    /// trainer clones it as its hot-standby training copy).
    pub(crate) fn model(&self) -> &SlimModel {
        &self.model
    }

    /// Atomically replaces the served weights with `src`'s (same
    /// architecture; allocation-free). The weight-publish half of online
    /// continual learning: streaming state (rings, augmenter, clock) is
    /// untouched, so the very next query runs the new weights over exactly
    /// the state the old weights saw.
    pub(crate) fn set_model_weights(&mut self, src: &SlimModel) {
        self.model.copy_weights_from(src);
    }

    /// The selected (or fixed) augmentation process this predictor uses.
    pub fn process(&self) -> FeatureProcess {
        self.process
    }

    /// Arrival time of the most recently observed edge.
    pub fn last_time(&self) -> f64 {
        self.witness().last_time
    }

    /// Number of node ids with allocated state (training universe plus
    /// everything ingested since); valid ids are `0..known_nodes()`.
    pub fn known_nodes(&self) -> usize {
        self.witness().augmenter.known_nodes()
    }

    /// The owned witness view every public query/ingest method reads.
    ///
    /// Panics on a detached shard member — by construction only
    /// [`crate::shard::ShardedPredictor`] holds witness-less predictors,
    /// and it routes every call through its shared witness via the
    /// `*_with` variants instead.
    fn witness(&self) -> &WitnessState {
        self.witness
            .as_ref()
            .expect("detached shard member: route through the ShardedPredictor")
    }

    /// Takes ownership of this predictor's witness state, leaving it a
    /// witness-less ring partition. Used once by
    /// [`crate::shard::ShardedPredictor`] construction: the base
    /// predictor's witness becomes the engine's single shared witness.
    pub(crate) fn detach_witness(&mut self) -> WitnessState {
        self.witness.take().expect("witness already detached")
    }

    /// Output (logit) width of the model: one column per class.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Edge-feature width the model was trained with; every ingested
    /// edge's `feat` must have exactly this length.
    pub fn edge_feat_dim(&self) -> usize {
        self.edge_feat_dim
    }

    /// The configuration this predictor was trained (or restored) with.
    pub fn config(&self) -> &SplashConfig {
        &self.cfg
    }

    /// Grows the ring table to cover `node` (a free function over the
    /// `rings` field so callers can keep borrowing the augmenter).
    fn grow_rings(rings: &mut Vec<Ring>, node: NodeId) {
        let need = node as usize + 1;
        if rings.len() < need {
            rings.resize_with(need, Ring::default);
        }
    }

    /// Pre-grows the ring table to cover `node`, so a following
    /// [`StreamingPredictor::apply_snapshots`] never reallocates.
    /// Unwritten entries stay default (empty) rings — invisible to
    /// queries and to durable snapshots, which skip empty rings. Only
    /// the thread-parallel ingest path pre-grows (serial ingest grows on
    /// demand inside `push_slot`), so this is unused without `parallel`.
    #[cfg_attr(not(feature = "parallel"), allow(dead_code))]
    pub(crate) fn ensure_ring_capacity(&mut self, node: NodeId) {
        Self::grow_rings(&mut self.rings, node);
    }

    /// Hands out the ring slot the next entry for `node` should overwrite,
    /// growing the ring table only during warm-up.
    fn push_slot(rings: &mut Vec<Ring>, k: usize, node: NodeId) -> &mut CapturedNeighbor {
        Self::grow_rings(rings, node);
        let ring = &mut rings[node as usize];
        if ring.entries.len() < k {
            if ring.entries.capacity() == 0 {
                // One allocation per ring, ever: the ring can only hold k
                // entries, so reserve them all on first touch instead of
                // growing through the doubling sequence.
                ring.entries.reserve_exact(k);
            }
            ring.entries.push(CapturedNeighbor::default());
            ring.entries.last_mut().expect("just pushed")
        } else {
            let head = ring.head;
            ring.head = (ring.head + 1) % k;
            &mut ring.entries[head]
        }
    }

    /// Fills one (reused) ring slot with the snapshot of `other` as seen
    /// from the slot owner's side of `edge` — a free function over the
    /// augmenter so the caller can keep its mutable borrow of the rings.
    fn fill_slot(
        augmenter: &Augmenter,
        process: FeatureProcess,
        slot: &mut CapturedNeighbor,
        other: NodeId,
        edge: &TemporalEdge,
    ) {
        slot.other = other;
        augmenter.feature_into(process, other, &mut slot.feat);
        slot.edge_feat.clear();
        slot.edge_feat.extend_from_slice(&edge.feat);
        slot.time = edge.time;
        slot.weight = edge.weight;
    }

    /// The *serial* sharded-ingest primitive: writes this engine's ring
    /// slot for one side of `edge` directly from the (just-updated)
    /// witness augmenter — the same single-copy path the unsharded
    /// [`StreamingPredictor::try_push_edges`] takes, so serial routed
    /// ingest materializes no intermediate snapshots at all. The
    /// thread-parallel path goes through
    /// [`StreamingPredictor::apply_snapshots`] instead (shard threads
    /// cannot read the witness while it advances).
    pub(crate) fn remember_side(
        &mut self,
        augmenter: &Augmenter,
        process: FeatureProcess,
        node: NodeId,
        other: NodeId,
        edge: &TemporalEdge,
    ) {
        let slot = Self::push_slot(&mut self.rings, self.k, node);
        Self::fill_slot(augmenter, process, slot, other, edge);
    }

    /// Snapshots both endpoints' current features into the rings, writing
    /// each snapshot directly into its (reused) ring slot — steady-state
    /// edge ingestion touches the allocator only when a ring or the ring
    /// table itself grows. An associated function over the ring fields so
    /// callers can keep borrowing the witness they just updated.
    fn remember(
        rings: &mut Vec<Ring>,
        k: usize,
        augmenter: &Augmenter,
        process: FeatureProcess,
        edge: &TemporalEdge,
    ) {
        let slot = Self::push_slot(rings, k, edge.src);
        Self::fill_slot(augmenter, process, slot, edge.dst, edge);
        if edge.src != edge.dst {
            let slot = Self::push_slot(rings, k, edge.dst);
            Self::fill_slot(augmenter, process, slot, edge.src, edge);
        }
    }

    /// Ingests one live temporal edge: O(d_v) feature propagation plus O(1)
    /// ring updates — independent of the total stream length. Returns
    /// [`SplashError::OutOfOrderEdge`] when the edge travels back in time
    /// and [`SplashError::EdgeFeatureWidth`] when its feature vector does
    /// not fit the model, leaving all state untouched either way.
    pub fn try_observe_edge(&mut self, edge: &TemporalEdge) -> Result<(), SplashError> {
        let w = self
            .witness
            .as_mut()
            .expect("detached shard member: route through the ShardedPredictor");
        if edge.time < w.last_time {
            return Err(SplashError::OutOfOrderEdge { got: edge.time, last: w.last_time });
        }
        check_edge_width(edge, self.edge_feat_dim)?;
        w.augmenter.observe(edge);
        Self::remember(&mut self.rings, self.k, &w.augmenter, self.process, edge);
        w.last_time = edge.time;
        Ok(())
    }

    /// Ingests a chronologically ordered micro-batch of edges.
    ///
    /// Equivalent to calling [`StreamingPredictor::try_observe_edge`] on
    /// each edge in order — feature snapshots are still taken per edge, as
    /// Eq. 14 requires — but the fixed costs are paid once per batch
    /// instead of once per edge: the chronology check is a single pass,
    /// and the per-node ring table is grown to the batch's maximum
    /// endpoint up front so no ring push ever reallocates mid-batch.
    ///
    /// The whole batch is validated *before* any state changes, so on
    /// [`SplashError::OutOfOrderEdge`] or [`SplashError::EdgeFeatureWidth`]
    /// the predictor is exactly as it was — the caller can drop or repair
    /// the batch and carry on serving.
    pub fn try_push_edges(&mut self, edges: &[TemporalEdge]) -> Result<(), SplashError> {
        let w = self
            .witness
            .as_mut()
            .expect("detached shard member: route through the ShardedPredictor");
        let Some(last) = edges.last() else { return Ok(()) };
        let mut prev = w.last_time;
        let mut max_node = 0;
        for edge in edges {
            if edge.time < prev {
                return Err(SplashError::OutOfOrderEdge { got: edge.time, last: prev });
            }
            check_edge_width(edge, self.edge_feat_dim)?;
            prev = edge.time;
            max_node = max_node.max(edge.src).max(edge.dst);
        }
        Self::grow_rings(&mut self.rings, max_node);
        for edge in edges {
            w.augmenter.observe(edge);
            Self::remember(&mut self.rings, self.k, &w.augmenter, self.process, edge);
        }
        w.last_time = last.time;
        Ok(())
    }

    /// The sharded-ingest primitive behind [`crate::shard::ShardedPredictor`]:
    /// writes the ring snapshots this shard owns out of a batch of
    /// pre-materialized `EdgeSnapshot`s (one shared witness pass produced
    /// them — see `WitnessState::observe_into`). `idx` lists the snapshot
    /// indices routed to this shard (built once by that same pass), so
    /// work is O(edges owned): snapshots no endpoint of which this shard
    /// owns are never even looked at. The caller must have grown the ring
    /// table past the batch's highest node id
    /// ([`StreamingPredictor::ensure_ring_capacity`]) — computed once in
    /// the serial pass, not re-scanned per shard. Ring slots copy the
    /// snapshot buffers via `clone_from`, so steady-state application is
    /// allocation-free.
    ///
    /// For any partition of the node space, rings written this way are
    /// bit-identical to [`StreamingPredictor::try_push_edges`] over the
    /// same edges — the snapshots *are* the post-observe features that
    /// path would have read. Serial sharded ingest takes the direct
    /// [`StreamingPredictor::remember_side`] path instead, so this is
    /// unused without `parallel`.
    #[cfg_attr(not(feature = "parallel"), allow(dead_code))]
    pub(crate) fn apply_snapshots(&mut self, snaps: &[EdgeSnapshot], idx: &[u32], shard: usize) {
        for &i in idx {
            let s = &snaps[i as usize];
            if s.owner_src == shard {
                let slot = Self::push_slot(&mut self.rings, self.k, s.src);
                slot.other = s.dst;
                slot.feat.clone_from(&s.dst_feat);
                slot.edge_feat.clone_from(&s.edge_feat);
                slot.time = s.time;
                slot.weight = s.weight;
            }
            if s.owner_dst == shard && s.src != s.dst {
                let slot = Self::push_slot(&mut self.rings, self.k, s.dst);
                slot.other = s.src;
                slot.feat.clone_from(&s.src_feat);
                slot.edge_feat.clone_from(&s.edge_feat);
                slot.time = s.time;
                slot.weight = s.weight;
            }
        }
    }

    /// Drops the ring state of every node `owns` disclaims, keeping the
    /// (global) feature tracker intact. [`crate::shard::ShardedPredictor`]
    /// applies this right after cloning the base predictor so each shard
    /// carries only its partition's rings — the dominant per-node memory.
    pub(crate) fn retain_ring_nodes(&mut self, owns: impl Fn(NodeId) -> bool) {
        for (i, ring) in self.rings.iter_mut().enumerate() {
            if !owns(i as NodeId) {
                *ring = Ring::default();
            }
        }
    }

    /// Number of nodes currently holding at least one ring entry (the
    /// shard-local state a partition actually pays for).
    pub(crate) fn active_rings(&self) -> usize {
        self.rings.iter().filter(|r| !r.entries.is_empty()).count()
    }

    /// Builds the model input for `node` as of time `t` into the reused
    /// query buffer: the target feature vector and every neighbor slot keep
    /// their allocations, and the ring is copied as (at most) two
    /// contiguous slices — oldest-first is `entries[head..]` then
    /// `entries[..head]` — instead of a per-entry modulo walk.
    fn query_input_into(
        &self,
        aug: &Augmenter,
        node: NodeId,
        time: f64,
        q: &mut CapturedQuery,
        spare: &mut Vec<CapturedNeighbor>,
    ) {
        q.node = node;
        q.time = time;
        // `q.label` is deliberately left as-is: predictions ignore labels,
        // and the labeled-capture path overwrites it via `Label::clone_from`
        // right after — resetting it here would drop a reusable affinity
        // buffer and force an allocation per absorbed label.
        aug.feature_into(self.process, node, &mut q.target_feat);
        let (older, newer) = match self.rings.get(node as usize) {
            None => (&[][..], &[][..]),
            Some(ring) => (&ring.entries[ring.head..], &ring.entries[..ring.head]),
        };
        // Shrink by parking surplus slots (keeping their buffers), grow by
        // unparking; every slot is overwritten via `clone_from`, which
        // reuses its feature allocations.
        let n = older.len() + newer.len();
        while q.neighbors.len() > n {
            spare.push(q.neighbors.pop().expect("len checked"));
        }
        for (i, src) in older.iter().chain(newer).enumerate() {
            match q.neighbors.get_mut(i) {
                Some(slot) => slot.clone_from(src),
                None => {
                    let mut slot = spare.pop().unwrap_or_default();
                    slot.clone_from(src);
                    q.neighbors.push(slot);
                }
            }
        }
    }

    /// Label-carrying ingest: assembles the model input for `node` at
    /// `time` — exactly the state a prediction at that instant would read —
    /// into the caller-owned `q`, and stamps it with `label`. This is how
    /// the online trainer turns a ground-truth observation from the live
    /// stream into an immutable training example (Eq. 14 snapshot
    /// semantics: the example is fixed at capture time, so later edges
    /// cannot leak into it).
    ///
    /// `q`'s buffers (and the `spare` slot pool) are reused across calls,
    /// so steady-state capture performs zero heap allocations. A `time`
    /// before the last observed edge reports [`SplashError::PastQuery`] —
    /// the ring state needed to honor it is already gone.
    pub fn capture_labeled_into(
        &self,
        node: NodeId,
        time: f64,
        label: &Label,
        q: &mut CapturedQuery,
        spare: &mut Vec<CapturedNeighbor>,
    ) -> Result<(), SplashError> {
        self.capture_labeled_into_with(self.witness(), node, time, label, q, spare)
    }

    /// [`StreamingPredictor::capture_labeled_into`] against an explicit
    /// witness view — how a witness-less shard member captures labels for
    /// nodes it owns, reading the sharded engine's shared witness.
    pub(crate) fn capture_labeled_into_with(
        &self,
        w: &WitnessState,
        node: NodeId,
        time: f64,
        label: &Label,
        q: &mut CapturedQuery,
        spare: &mut Vec<CapturedNeighbor>,
    ) -> Result<(), SplashError> {
        if time < w.last_time {
            return Err(SplashError::PastQuery { got: time, last: w.last_time });
        }
        self.query_input_into(&w.augmenter, node, time, q, spare);
        q.label.clone_from(label);
        Ok(())
    }

    /// Predicts the property logits of `node` at time `time` (which must
    /// not precede the last observed edge — a past-time query reports
    /// [`SplashError::PastQuery`]). Allocates only the returned vector;
    /// [`StreamingPredictor::try_predict_into`] is the fully
    /// allocation-free form.
    pub fn try_predict(&self, node: NodeId, time: f64) -> Result<Vec<f32>, SplashError> {
        let mut out = Vec::new();
        self.try_predict_into(node, time, &mut out)?;
        Ok(out)
    }

    /// [`StreamingPredictor::try_predict`] into a caller-owned vector. This
    /// is the steady-state serving path: query assembly, batch packing, and
    /// the SLIM forward all run in buffers reused across calls, so after a
    /// few warm-up queries it performs **zero heap allocations** (pinned by
    /// the `alloc` regression test); the [`SplashError::PastQuery`] error
    /// path allocates nothing either.
    pub fn try_predict_into(
        &self,
        node: NodeId,
        time: f64,
        out: &mut Vec<f32>,
    ) -> Result<(), SplashError> {
        self.try_predict_into_with(self.witness(), node, time, out)
    }

    /// [`StreamingPredictor::try_predict_into`] against an explicit witness
    /// view — the single-query serving path of a witness-less shard member.
    pub(crate) fn try_predict_into_with(
        &self,
        w: &WitnessState,
        node: NodeId,
        time: f64,
        out: &mut Vec<f32>,
    ) -> Result<(), SplashError> {
        if time < w.last_time {
            return Err(SplashError::PastQuery { got: time, last: w.last_time });
        }
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        self.query_input_into(&w.augmenter, node, time, &mut s.query, &mut s.spare);
        self.model.build_batch_into(&[&s.query], &mut s.batch);
        self.model.infer_into(&s.batch, &mut s.logits, &mut s.ws);
        out.clear();
        out.extend_from_slice(s.logits.row(0));
        Ok(())
    }

    /// Predicts logits for several nodes at once (single shared timestamp;
    /// a past timestamp reports [`SplashError::PastQuery`]).
    pub fn try_predict_many(&self, nodes: &[NodeId], time: f64) -> Result<Matrix, SplashError> {
        let w = self.witness();
        if time < w.last_time {
            return Err(SplashError::PastQuery { got: time, last: w.last_time });
        }
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        if s.queries.len() < nodes.len() {
            s.queries.resize_with(nodes.len(), CapturedQuery::default);
        }
        for (q, &v) in s.queries.iter_mut().zip(nodes) {
            self.query_input_into(&w.augmenter, v, time, q, &mut s.spare);
        }
        let refs: Vec<&CapturedQuery> = s.queries[..nodes.len()].iter().collect();
        self.model.build_batch_into(&refs, &mut s.batch);
        let mut out = Matrix::default();
        self.model.infer_into(&s.batch, &mut out, &mut s.ws);
        Ok(out)
    }

    /// Answers a micro-batch of label queries in one SLIM forward pass;
    /// row `i` of the result holds the logits for `queries[i]` (labels on
    /// the queries are ignored).
    ///
    /// Bit-identical to calling [`StreamingPredictor::try_predict`] per
    /// query (the `predict_batch_matches_single_predictions` test pins
    /// this): batching amortizes input assembly and lets the
    /// blocked/parallel matmul backend work on tall matrices instead of
    /// single rows, but every query's logits are still computed from
    /// exactly the same captured state. Queries may carry distinct
    /// timestamps; every query time is validated *before* any assembly
    /// work, and a past-time query reports [`SplashError::PastQuery`].
    pub fn try_predict_batch(&self, queries: &[PropertyQuery]) -> Result<Matrix, SplashError> {
        let w = self.witness();
        for q in queries {
            if q.time < w.last_time {
                return Err(SplashError::PastQuery { got: q.time, last: w.last_time });
            }
        }
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        // The assembled-query buffers persist across batches at their
        // high-water count; only a batch larger than any before grows them.
        if s.queries.len() < queries.len() {
            s.queries.resize_with(queries.len(), CapturedQuery::default);
        }
        for (dst, q) in s.queries.iter_mut().zip(queries) {
            self.query_input_into(&w.augmenter, q.node, q.time, dst, &mut s.spare);
        }
        Ok(crate::pipeline::predict_slim(
            &self.model,
            &s.queries[..queries.len()],
            STREAM_BATCH,
        ))
    }

    /// [`StreamingPredictor::try_predict_batch`] into a caller-owned
    /// matrix: row `i` holds the logits for `queries[i]` (labels ignored).
    ///
    /// This is the steady-state batched serving path — query assembly, the
    /// packed batch, the workspace, and the per-chunk logits all live in
    /// buffers reused across calls, and `out` is resized in place, so a
    /// warmed-up caller performs **zero** heap allocations per batch
    /// (pinned by the `alloc` regression test). Bit-identical to
    /// [`StreamingPredictor::try_predict_batch`]: each row depends only on
    /// its own query, so chunking never changes bits.
    pub fn try_predict_batch_into(
        &self,
        queries: &[PropertyQuery],
        out: &mut Matrix,
    ) -> Result<(), SplashError> {
        self.try_predict_batch_into_with(self.witness(), queries, out)
    }

    /// [`StreamingPredictor::try_predict_batch_into`] against an explicit
    /// witness view — the batched serving path of a witness-less shard
    /// member inside the sharded scatter–gather.
    pub(crate) fn try_predict_batch_into_with(
        &self,
        w: &WitnessState,
        queries: &[PropertyQuery],
        out: &mut Matrix,
    ) -> Result<(), SplashError> {
        for q in queries {
            if q.time < w.last_time {
                return Err(SplashError::PastQuery { got: q.time, last: w.last_time });
            }
        }
        if queries.is_empty() {
            // Match `try_predict_batch` (whose chunk map yields a 0×0
            // matrix) so the two forms are interchangeable bit for bit.
            out.resize_zeroed(0, 0);
            return Ok(());
        }
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        out.resize_zeroed(queries.len(), self.out_dim);
        let mut pos = 0;
        while pos < queries.len() {
            let end = (pos + STREAM_BATCH).min(queries.len());
            let m = end - pos;
            if s.queries.len() < m {
                s.queries.resize_with(m, CapturedQuery::default);
            }
            for (dst, q) in s.queries.iter_mut().zip(&queries[pos..end]) {
                self.query_input_into(&w.augmenter, q.node, q.time, dst, &mut s.spare);
            }
            self.model.build_batch_into(&s.queries[..m], &mut s.batch);
            self.model.infer_into(&s.batch, &mut s.logits, &mut s.ws);
            for i in 0..m {
                out.row_mut(pos + i).copy_from_slice(s.logits.row(i));
            }
            pos = end;
        }
        Ok(())
    }

    /// The dynamic representation `h_i(t)` of a node (Eq. 18). Reuses the
    /// predict scratch; allocates only the returned vector.
    pub fn represent(&self, node: NodeId, time: f64) -> Vec<f32> {
        let w = self.witness();
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        self.query_input_into(&w.augmenter, node, time, &mut s.query, &mut s.spare);
        self.model.build_batch_into(&[&s.query], &mut s.batch);
        self.model.represent_into(&s.batch, &mut s.logits, &mut s.ws);
        s.logits.row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::predict_slim;
    use crate::truncate_to_available;
    use ctdg::{replay, Event};
    use datasets::synthetic_shift;

    fn setup() -> (Dataset, SplashConfig) {
        let dataset = truncate_to_available(&synthetic_shift(50, 8), 0.4);
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 3;
        (dataset, cfg)
    }

    /// The streaming path must produce exactly the batch pipeline's logits
    /// at every test query.
    #[test]
    fn streaming_matches_batch_pipeline() {
        let (dataset, cfg) = setup();
        let process = FeatureProcess::Random;

        // Batch path.
        let cap = capture(&dataset, InputFeatures::Process(process), &cfg, SEEN_FRAC);
        let (train_end, val_end) = split_bounds(cap.queries.len());
        let (model, _) = train_slim(&cap, &dataset, &cap.queries[..train_end], &cfg);
        let batch_logits = predict_slim(&model, &cap.queries[val_end..], 64);

        // Streaming path: same trained weights arrive via the same seeds.
        let mut predictor = StreamingPredictor::train_with_process(&dataset, &cfg, process);
        let t_seen = seen_end_time(&dataset, SEEN_FRAC);
        let prefix = dataset.stream.prefix_len_at(t_seen);

        // Replay the post-seen period event by event.
        let events = replay(&dataset.stream, &dataset.queries);
        let mut qi = 0usize;
        let mut checked = 0usize;
        for ev in events {
            match ev {
                Event::Edge(idx, edge) => {
                    if idx >= prefix {
                        predictor.try_observe_edge(edge).unwrap();
                    }
                }
                Event::Query(_, q) => {
                    if qi >= val_end {
                        let logits = predictor.try_predict(q.node, q.time).unwrap();
                        let expected = batch_logits.row(qi - val_end);
                        for (a, b) in logits.iter().zip(expected) {
                            assert!(
                                (a - b).abs() < 1e-4,
                                "query {qi}: streaming {a} vs batch {b}"
                            );
                        }
                        checked += 1;
                    }
                    qi += 1;
                }
            }
        }
        assert!(checked > 50, "only {checked} queries compared");
    }

    /// A predictor rebuilt from a saved model must behave exactly like the
    /// predictor trained in-process — including on edges observed after the
    /// save point.
    #[test]
    fn from_saved_matches_in_process_training() {
        let (dataset, cfg) = setup();
        let process = FeatureProcess::Positional;
        let mut live = StreamingPredictor::train_with_process(&dataset, &cfg, process);

        // Save the equivalent model through the lower-level path (training
        // is deterministic, so the weights are identical).
        let cap = capture(&dataset, InputFeatures::Process(process), &cfg, SEEN_FRAC);
        let (train_end, _) = split_bounds(cap.queries.len());
        let (mut model, _) = train_slim(&cap, &dataset, &cap.queries[..train_end], &cfg);
        let path = std::env::temp_dir()
            .join(format!("splash-stream-saved-{}.bin", std::process::id()));
        crate::persist::save_model(
            &path,
            &mut model,
            &cfg,
            InputFeatures::Process(process),
            cap.feat_dim,
            cap.edge_feat_dim,
            dataset.num_classes,
        )
        .unwrap();
        let saved = crate::persist::load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut restored = StreamingPredictor::try_from_saved(saved, &dataset)
            .expect("process-mode models restore");

        // Continue both predictors over the unseen tail and compare.
        let t_seen = seen_end_time(&dataset, SEEN_FRAC);
        let prefix = dataset.stream.prefix_len_at(t_seen);
        let tail = &dataset.stream.edges()[prefix..];
        for (i, edge) in tail.iter().enumerate() {
            live.try_observe_edge(edge).unwrap();
            restored.try_observe_edge(edge).unwrap();
            if i % 97 == 0 {
                let t = edge.time;
                for node in [edge.src, edge.dst] {
                    assert_eq!(
                        live.try_predict(node, t).unwrap(),
                        restored.try_predict(node, t).unwrap(),
                        "diverged at edge {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_saved_requires_a_process_mode() {
        let (dataset, cfg) = setup();
        let cap = capture(&dataset, InputFeatures::RawRandom, &cfg, SEEN_FRAC);
        let (train_end, _) = split_bounds(cap.queries.len());
        let (mut model, _) = train_slim(&cap, &dataset, &cap.queries[..train_end], &cfg);
        let path = std::env::temp_dir()
            .join(format!("splash-stream-rf-{}.bin", std::process::id()));
        crate::persist::save_model(
            &path,
            &mut model,
            &cfg,
            InputFeatures::RawRandom,
            cap.feat_dim,
            cap.edge_feat_dim,
            dataset.num_classes,
        )
        .unwrap();
        let saved = crate::persist::load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(StreamingPredictor::try_from_saved(saved, &dataset).is_err());
    }

    #[test]
    fn streaming_predictor_trains_end_to_end() {
        let (dataset, cfg) = setup();
        let predictor = StreamingPredictor::train(&dataset, &cfg);
        // It can predict for any node, including ones it has never seen.
        let logits = predictor.try_predict(0, predictor.last_time() + 1.0).unwrap();
        assert_eq!(logits.len(), dataset.num_classes);
        assert!(logits.iter().all(|v| v.is_finite()));
        let unseen = dataset.stream.num_nodes() as u32 - 1;
        assert!(predictor
            .try_predict(unseen, predictor.last_time() + 1.0)
            .unwrap()
            .iter()
            .all(|v| v.is_finite()));
    }

    /// Batched ingestion + batched prediction must be *bit-identical* to
    /// the one-edge/one-query path: batching buys throughput, not a
    /// different model.
    #[test]
    fn predict_batch_matches_single_predictions() {
        let (dataset, cfg) = setup();
        let process = FeatureProcess::Random;
        let mut single = StreamingPredictor::train_with_process(&dataset, &cfg, process);
        let mut batched = single.clone();

        let t_seen = seen_end_time(&dataset, SEEN_FRAC);
        let prefix = dataset.stream.prefix_len_at(t_seen);
        let tail = &dataset.stream.edges()[prefix..];
        assert!(tail.len() > 20, "fixture too small to exercise batching");

        // Ingest the tail edge-by-edge on one predictor and in micro-batches
        // on its clone.
        for edge in tail {
            single.try_observe_edge(edge).unwrap();
        }
        for chunk in tail.chunks(17) {
            batched.try_push_edges(chunk).unwrap();
        }
        assert_eq!(single.last_time(), batched.last_time());

        // Query a spread of nodes (some never seen) at staggered times.
        let t0 = single.last_time();
        let queries: Vec<PropertyQuery> = (0..40u32)
            .map(|i| PropertyQuery {
                node: (i * 3) % dataset.stream.num_nodes() as u32,
                time: t0 + i as f64,
                label: Label::Class(0),
            })
            .collect();
        let logits = batched.try_predict_batch(&queries).unwrap();
        assert_eq!(logits.rows(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let one = single.try_predict(q.node, q.time).unwrap();
            assert_eq!(
                logits.row(i),
                &one[..],
                "query {i} (node {}, t {}) diverged",
                q.node,
                q.time
            );
        }
    }

    #[test]
    fn predict_batch_empty_is_empty() {
        let (dataset, cfg) = setup();
        let predictor =
            StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);
        assert_eq!(predictor.try_predict_batch(&[]).unwrap().shape(), (0, 0));
    }

    /// Pins the out-of-order batch rejection (and that unwrapping it
    /// panics with the chronology message a caller would log).
    #[test]
    #[should_panic(expected = "chronologically")]
    fn push_edges_rejects_out_of_order_batches() {
        let (dataset, cfg) = setup();
        let mut predictor =
            StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);
        let t = predictor.last_time();
        let batch = [
            TemporalEdge::plain(0, 1, t + 2.0),
            TemporalEdge::plain(1, 2, t + 1.0), // goes backwards inside the batch
        ];
        predictor.try_push_edges(&batch).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn predict_many_matches_predict() {
        let (dataset, cfg) = setup();
        let predictor =
            StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Structural);
        let t = predictor.last_time() + 5.0;
        let many = predictor.try_predict_many(&[0, 1, 2], t).unwrap();
        for (i, node) in [0u32, 1, 2].iter().enumerate() {
            let one = predictor.try_predict(*node, t).unwrap();
            for (a, b) in many.row(i).iter().zip(&one) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    /// Pins the out-of-order single-edge rejection (and that unwrapping it
    /// panics with the chronology message a caller would log).
    #[test]
    #[should_panic(expected = "chronologically")]
    fn rejects_out_of_order_edges() {
        let (dataset, cfg) = setup();
        let mut predictor =
            StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);
        let stale = TemporalEdge::plain(0, 1, predictor.last_time() - 100.0);
        predictor.try_observe_edge(&stale).unwrap_or_else(|e| panic!("{e}"));
    }

    /// An edge whose feature vector does not fit the model is refused
    /// with a typed error by every ingest path — batch and per-edge, single
    /// and sharded — before any state changes: the next predict is
    /// bit-identical to the one before the bad input.
    #[test]
    fn wrong_edge_feature_width_is_rejected_atomically() {
        let (dataset, cfg) = setup();
        let mut single =
            StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);
        let mut sharded =
            crate::shard::ShardedPredictor::from_predictor(single.clone(), 2).unwrap();
        assert_eq!((single.edge_feat_dim(), sharded.edge_feat_dim()), (0, 0));
        let t = single.last_time();
        let wide = TemporalEdge { feat: vec![1.0].into(), ..TemporalEdge::plain(2, 3, t + 2.0) };
        let batch = [TemporalEdge::plain(0, 1, t + 1.0), wide.clone()];
        let bits = |logits: Vec<f32>| logits.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let is_width =
            |e: SplashError| matches!(e, SplashError::EdgeFeatureWidth { expected: 0, got: 1 });

        let before = bits(single.try_predict(0, t + 5.0).unwrap());
        assert!(is_width(single.try_push_edges(&batch).unwrap_err()));
        assert!(is_width(single.try_observe_edge(&wide).unwrap_err()));
        assert_eq!(single.last_time(), t);
        assert_eq!(bits(single.try_predict(0, t + 5.0).unwrap()), before);

        let before = bits(sharded.try_predict(0, t + 5.0).unwrap());
        assert!(is_width(sharded.try_push_edges(&batch).unwrap_err()));
        assert!(is_width(sharded.try_observe_edge(&wide).unwrap_err()));
        assert_eq!(sharded.last_time(), t);
        assert_eq!(bits(sharded.try_predict(0, t + 5.0).unwrap()), before);
    }

    #[test]
    fn representations_have_model_width() {
        let (dataset, cfg) = setup();
        let predictor =
            StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);
        let h = predictor.represent(3, predictor.last_time() + 1.0);
        assert_eq!(h.len(), cfg.hidden);
    }
}
