//! Online streaming inference (paper Fig. 4).
//!
//! The batch pipeline in [`crate::pipeline`] trains and evaluates over
//! captured snapshots. Deployment looks different: temporal edges arrive one
//! at a time, each label query must be answered *immediately* from state
//! maintained so far, and the state must stay sub-linear in the number of
//! edges. [`StreamingPredictor`] packages a trained SLIM model with exactly
//! that state, in two parts:
//!
//! * the *witness* — the feature [`Augmenter`] (fixed seen-node features,
//!   propagated unseen-node features, incremental degrees) plus the stream
//!   clock. Degree encodings and propagated features are global functions
//!   of the whole stream (the paper's core observation), so the engine
//!   holds exactly one witness, updated once per edge in stream order;
//! * the per-node *rings* of the `k` most recent incident edges with
//!   feature snapshots (Eq. 14), hash-partitioned ([`crate::shard::shard_of`])
//!   across `N ≥ 1` ring partitions. `N = 1` is the plain single engine;
//!   [`StreamingPredictor::reshard`] moves every ring to its owner at any
//!   other `N`.
//!
//! # One witness, N ring partitions — and why every N gives the same bits
//!
//! Each ring entry stores the **neighbor's** feature as of edge-arrival
//! time, read from the one witness right after it observes the edge. What
//! a partition writes into a ring slot — directly from the augmenter
//! (serial ingest) or from a materialized `EdgeSnapshot` (thread-parallel
//! ingest) — is therefore byte-for-byte what one unpartitioned table would
//! hold; rings fill in the same edge order; and a query reads the witness
//! for its target feature and its owner partition's ring for neighbors.
//! Each logit row depends only on its own query, so splitting a batch
//! across partitions and threads never changes a bit. Predictions are
//! bit-identical at every `N` (the `sharded_matches_unsharded_*`
//! proptests) and to the batch pipeline (`streaming_matches_batch_pipeline`).
//!
//! The cost model: the witness pass is the serial prefix of ingest — one
//! tracker update plus one feature materialization per endpoint, paid once
//! whatever `N` is — and the ring writes are O(edges owned) per partition.
//! With the `parallel` feature, more than one partition and more than one
//! available thread, ingest materializes snapshots that one thread per
//! partition consumes, and a batched predict answers each partition's
//! queries on its own thread. The weights are held once, so a publish
//! copies them once at any `N`.

use std::cell::RefCell;

use ctdg::{Label, NodeId, PropertyQuery, TemporalEdge};
use datasets::Dataset;
use nn::{Matrix, Workspace};

use crate::augment::{Augmenter, FeatureProcess};
use crate::capture::{
    capture, seen_end_time, CapturedNeighbor, CapturedQuery, InputFeatures, Ring, Rings,
};
use crate::config::SplashConfig;
use crate::error::SplashError;
use crate::pipeline::{split_bounds, train_slim, SEEN_FRAC};
use crate::select::select_features;
use crate::shard::{shard_of, ShardStats};
use crate::slim::{SlimBatch, SlimModel};
use crate::task::output_dim;
use crate::telemetry::{escape_label_value, Counter, Registry};

/// Chunk size of the batched forward passes.
const STREAM_BATCH: usize = 256;

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

/// Everything a [`StreamingPredictor`] holds beyond its weights:
/// augmenter/tracker state, the non-empty per-node rings, and the stream
/// clock. Assembled by `assemble_stream_state` from a decoded witness +
/// ring partitions (an artifact's sections or a durable checkpoint's
/// files) and consumed by [`StreamingPredictor::try_from_saved_state`].
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

/// Reassembles one [`StreamState`] from a recovered witness snapshot plus
/// the per-partition ring files: the single witness carries the
/// augmenter/clock, and the ring union restores every node's ring.
/// Rejects duplicate ring ownership — a partition set spliced together
/// from two different checkpoints.
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

/// Checks a decoded [`StreamState`] against the model that is to serve
/// it, before any engine is built: the feature dimension and ring
/// capacity must be the model's, every ring's cursor must be consistent,
/// and every ring entry must be exactly as wide as the model's node- and
/// edge-feature inputs (a wider entry would overrun the input row).
/// Mismatches report [`SplashError::CorruptModel`].
fn check_stream_state(
    state: &StreamState,
    cfg: &SplashConfig,
    feat_dim: usize,
    edge_feat_dim: usize,
) -> Result<(), SplashError> {
    let corrupt = |what: String| Err(SplashError::CorruptModel { what });
    if state.augmenter.dv != cfg.feat_dim {
        return corrupt(format!(
            "state feature dim {} does not match the model's {}",
            state.augmenter.dv, cfg.feat_dim
        ));
    }
    if state.k != cfg.k {
        return corrupt(format!(
            "state ring capacity {} does not match the model's k={}",
            state.k, cfg.k
        ));
    }
    for ring in &state.rings {
        let len = ring.entries.len();
        if len > state.k || ring.head >= len.max(1) || (len < state.k && ring.head != 0) {
            return corrupt(format!(
                "ring for node {} is inconsistent ({len} entries, head {}, k={})",
                ring.node, ring.head, state.k
            ));
        }
        if let Some(e) = ring
            .entries
            .iter()
            .find(|e| e.feat.len() != feat_dim || e.edge_feat.len() != edge_feat_dim)
        {
            return corrupt(format!(
                "ring entry of node {} is {}+{} wide, the model's input is \
                 {feat_dim}+{edge_feat_dim}",
                ring.node,
                e.feat.len(),
                e.edge_feat.len()
            ));
        }
    }
    Ok(())
}

/// Whether an `n`-partition call fans out one thread per partition: only
/// with the `parallel` feature, more than one partition and more than one
/// available thread, and not under `nn::backend::with_serial_backend`
/// (`NN_THREADS=1` pins the serial path too).
#[cfg(feature = "parallel")]
fn fans_out(n: usize) -> bool {
    n > 1 && nn::backend::num_threads() > 1 && !nn::backend::serial_pinned()
}

/// Without the `parallel` feature every call is serial.
#[cfg(not(feature = "parallel"))]
fn fans_out(_n: usize) -> bool {
    false
}

/// The global *witness* state of an edge stream: the feature [`Augmenter`]
/// plus the stream clock, one per engine whatever its partition count.
#[derive(Debug)]
struct WitnessState {
    /// Feature tracker (seen tables, propagated features, degrees).
    augmenter: Augmenter,
    /// Arrival time of the most recently observed edge.
    last_time: f64,
    /// Edges observed since the engine was built (each exactly once).
    edges: Counter,
}

impl Clone for WitnessState {
    /// A clone gets a **detached** copy of the edge counter: counter
    /// handles share their atomic, so a derived clone would leave two
    /// engines counting into one registry series.
    fn clone(&self) -> Self {
        Self {
            augmenter: self.augmenter.clone(),
            last_time: self.last_time,
            edges: self.edges.detached_copy(),
        }
    }
}

impl WitnessState {
    fn new(augmenter: Augmenter, last_time: f64) -> Self {
        Self { augmenter, last_time, edges: Counter::new() }
    }

    /// Witnesses one edge: updates the tracker and the stream clock, and
    /// materializes everything a ring partition needs — the post-update
    /// endpoint feature snapshots, the edge payload, and the ring owners
    /// under an `n`-way partition — into the reusable `snap` buffer. Only
    /// the thread-parallel ingest path materializes snapshots (serial
    /// ingest writes ring slots directly); the snapshot buffers are reused
    /// across batches, so steady-state witnessing is allocation-free.
    fn observe_into(
        &mut self,
        edge: &TemporalEdge,
        process: FeatureProcess,
        n: usize,
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
        snap.owner_src = shard_of(edge.src, n);
        snap.owner_dst = shard_of(edge.dst, n);
        self.last_time = edge.time;
    }
}

/// Everything one witnessed edge contributes to the ring partitions,
/// materialized once by `WitnessState::observe_into` and consumed by the
/// owner partitions' threads. Plain owned data (no references into the
/// witness), so a batch of snapshots can be read by every partition thread
/// concurrently.
#[derive(Debug, Clone, Default)]
struct EdgeSnapshot {
    src: NodeId,
    dst: NodeId,
    /// `src`'s post-observe features (what the dst ring snapshots); left
    /// stale on self-loops, which never read it.
    src_feat: Vec<f32>,
    /// `dst`'s post-observe features (what the src ring snapshots).
    dst_feat: Vec<f32>,
    edge_feat: Vec<f32>,
    time: f64,
    weight: f32,
    /// Ring owner of `src` under the batch's partition count.
    owner_src: usize,
    /// Ring owner of `dst` under the batch's partition count.
    owner_dst: usize,
}

/// The witness half of a durable checkpoint: augmenter state, ring
/// capacity, and the stream clock — written once per checkpoint regardless
/// of the partition count (the rings travel separately, one file per
/// partition).
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
/// Warmed up by the first few predictions, then reused verbatim, so the
/// `*_into` predict paths stay off the allocator.
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

/// Per-partition counters, held as [`Counter`] handles (atomics) so
/// predictions count through `&self` and an installed engine can expose
/// the same cells as registry series on `/metrics`
/// ([`StreamingPredictor::register_telemetry`]).
#[derive(Debug, Default)]
struct ShardCounters {
    owned_edges: Counter,
    queries: Counter,
}

impl Clone for ShardCounters {
    /// A clone gets **detached** copies of the cells (see
    /// [`WitnessState`]'s `Clone`).
    fn clone(&self) -> Self {
        Self {
            owned_edges: self.owned_edges.detached_copy(),
            queries: self.queries.detached_copy(),
        }
    }
}

/// One ring partition: the rings of the nodes [`shard_of`] assigns to it,
/// its serving counters and its predict scratch, plus the buffers of the
/// multi-partition paths.
#[derive(Debug, Clone)]
struct RingPartition {
    rings: Rings,
    counters: ShardCounters,
    /// Interior-mutable so the `&self` prediction methods can reuse their
    /// assembly buffers across calls. This makes the engine single-threaded
    /// (`!Sync`) by design; clone one engine per worker for concurrent
    /// serving (cloning isolates the scratch).
    scratch: RefCell<PredictScratch>,
    /// Indices of the batch's edges with an endpoint owned here (written
    /// by every batched ingest; its length is the batch's owned-edge
    /// count, and the threaded path applies exactly these snapshots).
    route: Vec<u32>,
    /// Thread-per-partition batched predict: this partition's queries, the
    /// batch row each one answers, and their logits.
    sub: Vec<PropertyQuery>,
    index: Vec<usize>,
    rows: Matrix,
}

impl RingPartition {
    fn new(rings: Rings) -> Self {
        Self {
            rings,
            counters: ShardCounters::default(),
            scratch: RefCell::new(PredictScratch::default()),
            route: Vec::new(),
            sub: Vec::new(),
            index: Vec::new(),
            rows: Matrix::default(),
        }
    }

    /// Writes `node`'s ring slot for `edge` (whose other endpoint is
    /// `other`) straight from the just-updated witness augmenter: the
    /// single-copy serial ingest path, no intermediate snapshot.
    fn remember(
        &mut self,
        augmenter: &Augmenter,
        process: FeatureProcess,
        node: NodeId,
        other: NodeId,
        edge: &TemporalEdge,
    ) {
        let slot = self.rings.push_slot(node);
        slot.set_edge(other, edge);
        augmenter.feature_into(process, other, &mut slot.feat);
    }

    /// Writes the ring snapshots partition `p` owns out of a batch of
    /// snapshots, visiting only the indices routed to it. The ring table
    /// must already cover the batch's nodes. Slots copy the snapshot
    /// buffers via `clone_from`, so steady-state application is
    /// allocation-free, and the result is bit-identical to
    /// [`RingPartition::remember`] over the same edges — the snapshots
    /// *are* the post-observe features that path reads.
    fn apply_snapshots(&mut self, snaps: &[EdgeSnapshot], p: usize) {
        for &i in &self.route {
            let s = &snaps[i as usize];
            let mut write = |node, other, feat: &Vec<f32>| {
                let slot = self.rings.push_slot(node);
                slot.other = other;
                slot.feat.clone_from(feat);
                slot.edge_feat.clone_from(&s.edge_feat);
                slot.time = s.time;
                slot.weight = s.weight;
            };
            if s.owner_src == p {
                write(s.src, s.dst, &s.dst_feat);
            }
            if s.owner_dst == p && s.src != s.dst {
                write(s.dst, s.src, &s.src_feat);
            }
        }
    }
}

/// What query answering reads besides the rings: the weights, the witness
/// and the feature process. `Copy` and `Sync`, so every partition thread
/// of a batched predict holds one.
#[derive(Clone, Copy)]
struct Reader<'a> {
    model: &'a SlimModel,
    witness: &'a WitnessState,
    process: FeatureProcess,
    out_dim: usize,
}

impl Reader<'_> {
    /// Builds the model input for `node` as of time `time` into the reused
    /// query buffer: the target feature vector and every neighbor slot keep
    /// their allocations, and the ring is copied oldest first as (at most)
    /// two contiguous slices.
    fn query_input_into(
        &self,
        rings: &Rings,
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
        self.witness.augmenter.feature_into(self.process, node, &mut q.target_feat);
        let (older, newer) = rings.oldest_first(node);
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

    /// Answers `queries` into `out` (row `i` for `queries[i]`), in
    /// [`STREAM_BATCH`]-query chunks through `s`; `rings(v)` is the ring
    /// table holding node `v`.
    fn predict_rows<'r>(
        &self,
        rings: impl Fn(NodeId) -> &'r Rings,
        s: &mut PredictScratch,
        queries: &[PropertyQuery],
        out: &mut Matrix,
    ) {
        out.resize_zeroed(queries.len(), self.out_dim);
        for (c, chunk) in queries.chunks(STREAM_BATCH).enumerate() {
            if s.queries.len() < chunk.len() {
                s.queries.resize_with(chunk.len(), CapturedQuery::default);
            }
            for (dst, q) in s.queries.iter_mut().zip(chunk) {
                self.query_input_into(rings(q.node), q.node, q.time, dst, &mut s.spare);
            }
            self.model.build_batch_into(&s.queries[..chunk.len()], &mut s.batch);
            self.model.infer_into(&s.batch, &mut s.logits, &mut s.ws);
            for i in 0..chunk.len() {
                out.row_mut(c * STREAM_BATCH + i).copy_from_slice(s.logits.row(i));
            }
        }
    }
}

/// A trained SPLASH model plus all streaming state, ready to consume a live
/// edge stream and answer label queries in real time: one [`SlimModel`],
/// one witness, and `N ≥ 1` ring partitions (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct StreamingPredictor {
    model: SlimModel,
    witness: WitnessState,
    process: FeatureProcess,
    /// The full training config, kept so the predictor can persist itself
    /// ([`StreamingPredictor::save`]) without the caller re-supplying it.
    cfg: SplashConfig,
    feat_dim: usize,
    edge_feat_dim: usize,
    out_dim: usize,
    /// The ring partitions; never empty.
    parts: Vec<RingPartition>,
    /// The snapshot batch the thread-parallel witness pass materializes
    /// and the partition threads consume; grown to the high-water batch
    /// size, then reused allocation-free.
    snaps: Vec<EdgeSnapshot>,
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
        // Prime the neighbor rings with the seen-period edges. The
        // augmenter already observed them in `Augmenter::with_source`, so
        // only the rings are updated here.
        let mut part = RingPartition::new(Rings::new(cfg.k));
        let mut last_time = f64::NEG_INFINITY;
        for edge in &dataset.stream.edges()[..prefix] {
            part.remember(&augmenter, process, edge.src, edge.dst, edge);
            if edge.src != edge.dst {
                part.remember(&augmenter, process, edge.dst, edge.src, edge);
            }
            last_time = edge.time;
        }
        Self {
            model,
            witness: WitnessState::new(augmenter, last_time),
            process,
            cfg: *cfg,
            feat_dim: cap.feat_dim,
            edge_feat_dim: cap.edge_feat_dim,
            out_dim: output_dim(dataset.task, dataset.num_classes),
            parts: vec![part],
            snaps: Vec::new(),
        }
    }

    /// Rebuilds the predictor that saved an artifact restored with
    /// [`crate::persist::load_model`], with one ring partition: the
    /// artifact's witness and rings are decoded, not recomputed, so the
    /// result is bit-identical to the saving engine at save time (a
    /// checkpoint without a WAL), at O(state) cost — no positional
    /// embedding, no prefix replay. [`StreamingPredictor::reshard`] serves
    /// it at any other partition count.
    ///
    /// `_dataset` is not read: the artifact is self-contained. The
    /// argument stays for callers that pass the deployment's dataset.
    ///
    /// Returns [`SplashError::NotStreamable`] when the saved model's
    /// feature mode is not a single augmentation process (streaming state
    /// is defined per process), and [`SplashError::CorruptModel`] for a
    /// weights-only file, which carries no streaming state.
    pub fn try_from_saved(
        mut saved: crate::persist::SavedModel,
        _dataset: &Dataset,
    ) -> Result<Self, SplashError> {
        if saved.selected().is_none() {
            return Err(SplashError::NotStreamable { mode: saved.mode.name() });
        }
        let state = saved.state.take().ok_or_else(|| SplashError::CorruptModel {
            what: "the file holds weights only, no streaming state (save it from a \
                   streaming engine)"
                .into(),
        })?;
        Self::try_from_saved_state(saved, state)
    }

    /// Rebuilds a one-partition predictor from a restored model *plus* a
    /// decoded [`StreamState`] — the restore path of artifacts and durable
    /// checkpoints alike. It neither rebuilds the positional embedding nor
    /// replays any stream: the cost is O(state), independent of the stream
    /// length, and the result is bit-identical to the predictor that
    /// produced the state. The state is checked against the model
    /// ([`check_stream_state`]) before anything is built.
    pub(crate) fn try_from_saved_state(
        saved: crate::persist::SavedModel,
        state: StreamState,
    ) -> Result<Self, SplashError> {
        let Some(process) = saved.selected() else {
            return Err(SplashError::NotStreamable { mode: saved.mode.name() });
        };
        let cfg = saved.cfg;
        check_stream_state(&state, &cfg, saved.feat_dim, saved.edge_feat_dim)?;
        let mut rings = Rings::new(cfg.k);
        for ring in state.rings {
            let mut entries = ring.entries;
            // Keep the one-allocation-per-ring discipline: a partially
            // filled restored ring must not regrow through doubling.
            entries.reserve_exact(cfg.k - entries.len());
            rings.insert(ring.node, Ring { entries, head: ring.head });
        }
        Ok(Self {
            model: saved.model,
            witness: WitnessState::new(
                Augmenter::from_durable_state(state.augmenter, cfg.degree_alpha),
                state.last_time,
            ),
            process,
            cfg,
            feat_dim: saved.feat_dim,
            edge_feat_dim: saved.edge_feat_dim,
            out_dim: saved.out_dim,
            parts: vec![RingPartition::new(rings)],
            snaps: Vec::new(),
        })
    }

    /// Serves this engine from `shards` ring partitions: every ring moves
    /// (not copies) to its [`shard_of`] owner, from any current count.
    /// Predictions are bit-identical at every count (see the module docs).
    /// The witness and its edge counter carry over; the per-partition
    /// counters start at zero unless the count is unchanged, which returns
    /// the engine as it is. `shards` must be positive
    /// ([`SplashError::InvalidConfig`] otherwise).
    pub fn reshard(mut self, shards: usize) -> Result<Self, SplashError> {
        if shards == 0 {
            return Err(SplashError::InvalidConfig {
                what: "shard count must be positive".into(),
            });
        }
        if shards == self.parts.len() {
            return Ok(self);
        }
        let mut parts: Vec<RingPartition> =
            (0..shards).map(|_| RingPartition::new(Rings::new(self.cfg.k))).collect();
        for part in &mut self.parts {
            for (node, ring) in part.rings.drain() {
                parts[shard_of(node, shards)].rings.insert(node, ring);
            }
        }
        self.parts = parts;
        Ok(self)
    }

    /// The witness half of a durable checkpoint: augmenter state, ring
    /// capacity, and the stream clock.
    pub(crate) fn durable_witness(&self) -> WitnessSnapshot {
        WitnessSnapshot {
            augmenter: self.witness.augmenter.durable_state(),
            k: self.cfg.k,
            last_time: self.witness.last_time,
        }
    }

    /// The ring half of a durable checkpoint: element `i` is partition
    /// `i`'s non-empty rings, in node order, in storage order with cursors.
    pub(crate) fn durable_ring_shards(&self) -> Vec<Vec<RingState>> {
        self.parts
            .iter()
            .map(|p| {
                p.rings
                    .iter()
                    .map(|(node, r)| RingState { node, head: r.head, entries: r.entries.clone() })
                    .collect()
            })
            .collect()
    }

    /// Every non-empty ring across the partitions, in node order — the
    /// ring section of an artifact, the same at every partition count.
    pub(crate) fn durable_rings(&self) -> Vec<RingState> {
        let mut rings: Vec<RingState> = self.durable_ring_shards().into_iter().flatten().collect();
        rings.sort_unstable_by_key(|r| r.node);
        rings
    }

    /// Persists this predictor to `path` as a self-contained artifact:
    /// weights plus its streaming state (witness and every ring, merged in
    /// node order — the same bytes at any partition count), restored as it
    /// is now by [`StreamingPredictor::try_from_saved`].
    ///
    /// `&mut self` only because parameter access goes through
    /// `Parameterized::params_mut`; no value changes.
    pub fn save(&mut self, path: &std::path::Path) -> Result<(), SplashError> {
        self.save_with_opt(path, None)
    }

    /// [`StreamingPredictor::save`] plus an optional checkpoint of the
    /// online-fine-tuning optimizer (the artifact's `SAVEDOPT` section).
    pub fn save_with_opt(
        &mut self,
        path: &std::path::Path,
        opt: Option<&crate::slim::AdamState>,
    ) -> Result<(), SplashError> {
        let witness = self.durable_witness();
        let rings = self.durable_rings();
        let bytes = self.artifact_bytes(opt, Some((&witness, &rings)))?;
        std::fs::write(path, bytes)?;
        Ok(())
    }

    /// This predictor's weights (and optional `SAVEDOPT` section) as an
    /// artifact in memory, with `state` as its streaming-state sections —
    /// the durable checkpoint passes `None` (its witness and rings travel
    /// in their own files).
    pub(crate) fn artifact_bytes(
        &mut self,
        opt: Option<&crate::slim::AdamState>,
        state: Option<(&WitnessSnapshot, &[RingState])>,
    ) -> Result<Vec<u8>, SplashError> {
        crate::persist::artifact_bytes(
            &mut self.model,
            &self.cfg,
            InputFeatures::Process(self.process),
            self.feat_dim,
            self.edge_feat_dim,
            self.out_dim,
            opt,
            state,
        )
    }

    /// The trained SLIM model this predictor serves (read-only; the online
    /// trainer clones it as its hot-standby training copy).
    pub(crate) fn model(&self) -> &SlimModel {
        &self.model
    }

    /// Atomically replaces the served weights with `src`'s (same
    /// architecture; allocation-free), once at any partition count. The
    /// weight-publish half of online continual learning: streaming state
    /// (rings, augmenter, clock) is untouched, so the very next query runs
    /// the new weights over exactly the state the old weights saw.
    pub(crate) fn set_model_weights(&mut self, src: &SlimModel) {
        self.model.copy_weights_from(src);
    }

    /// The selected (or fixed) augmentation process this predictor uses.
    pub fn process(&self) -> FeatureProcess {
        self.process
    }

    /// Arrival time of the most recently observed edge.
    pub fn last_time(&self) -> f64 {
        self.witness.last_time
    }

    /// Number of node ids with allocated state (training universe plus
    /// everything ingested since); valid ids are `0..known_nodes()`.
    pub fn known_nodes(&self) -> usize {
        self.witness.augmenter.known_nodes()
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

    /// Number of ring partitions (shards) serving this predictor.
    pub fn num_shards(&self) -> usize {
        self.parts.len()
    }

    /// Per-partition serving counters, in partition order (one row at
    /// `N = 1`).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.parts
            .iter()
            .enumerate()
            .map(|(shard, p)| ShardStats {
                shard,
                owned_nodes: p.rings.iter().count(),
                owned_edges: p.counters.owned_edges.get(),
                queries_served: p.counters.queries.get(),
            })
            .collect()
    }

    /// Edges the witness has observed since the engine was built — each
    /// exactly once, whatever the partition count.
    pub fn witnessed_edges(&self) -> u64 {
        self.witness.edges.get()
    }

    /// Exposes the engine's counters as labelled series in `registry`: the
    /// global `splash_witness_edges_total{model="..."}` (one witness, one
    /// series) plus per-partition
    /// `splash_shard_edges_owned_total{model="...",shard="N"}` and
    /// `splash_shard_queries_total{model="...",shard="N"}`. The handles
    /// share the engine's own cells — counting on the serving path stays a
    /// plain atomic add; registration (at install time) is the only step
    /// that allocates.
    pub(crate) fn register_telemetry(&self, registry: &Registry, model: &str) {
        let model = escape_label_value(model);
        registry.register_counter(
            "splash_witness_edges_total",
            &format!("model=\"{model}\""),
            "Edges observed by the engine's single shared witness (feature tracker).",
            &self.witness.edges,
        );
        for (shard, p) in self.parts.iter().enumerate() {
            let labels = format!("model=\"{model}\",shard=\"{shard}\"");
            registry.register_counter(
                "splash_shard_edges_owned_total",
                &labels,
                "Edges whose ring snapshot was written on this shard (owner writes).",
                &p.counters.owned_edges,
            );
            registry.register_counter(
                "splash_shard_queries_total",
                &labels,
                "Queries answered by this shard (owner of the queried node).",
                &p.counters.queries,
            );
        }
    }

    fn reader(&self) -> Reader<'_> {
        Reader {
            model: &self.model,
            witness: &self.witness,
            process: self.process,
            out_dim: self.out_dim,
        }
    }

    /// The partition holding `node`'s ring.
    fn part_of(&self, node: NodeId) -> &RingPartition {
        &self.parts[shard_of(node, self.parts.len())]
    }

    fn check_time(&self, time: f64) -> Result<(), SplashError> {
        let last = self.witness.last_time;
        if time < last {
            return Err(SplashError::PastQuery { got: time, last });
        }
        Ok(())
    }

    /// Ingests one live temporal edge: O(d_v) feature propagation plus O(1)
    /// ring updates on the owner partition(s) — independent of the total
    /// stream length. Returns [`SplashError::OutOfOrderEdge`] when the edge
    /// travels back in time and [`SplashError::EdgeFeatureWidth`] when its
    /// feature vector does not fit the model, leaving all state untouched
    /// either way. The drop decision reads the one stream clock, so it is
    /// the same at every partition count.
    pub fn try_observe_edge(&mut self, edge: &TemporalEdge) -> Result<(), SplashError> {
        let w = &mut self.witness;
        if edge.time < w.last_time {
            return Err(SplashError::OutOfOrderEdge { got: edge.time, last: w.last_time });
        }
        check_edge_width(edge, self.edge_feat_dim)?;
        w.augmenter.observe(edge);
        let n = self.parts.len();
        let os = shard_of(edge.src, n);
        self.parts[os].remember(&w.augmenter, self.process, edge.src, edge.dst, edge);
        self.parts[os].counters.owned_edges.inc();
        if edge.src != edge.dst {
            let od = shard_of(edge.dst, n);
            self.parts[od].remember(&w.augmenter, self.process, edge.dst, edge.src, edge);
            if od != os {
                self.parts[od].counters.owned_edges.inc();
            }
        }
        w.last_time = edge.time;
        w.edges.inc();
        Ok(())
    }

    /// Ingests a chronologically ordered micro-batch of edges.
    ///
    /// Equivalent to calling [`StreamingPredictor::try_observe_edge`] on
    /// each edge in order — feature snapshots are still taken per edge, as
    /// Eq. 14 requires — but the fixed costs are paid once per batch
    /// instead of once per edge: the chronology check is a single pass,
    /// the ring tables are grown to the batch's maximum endpoint up front
    /// so no ring push reallocates mid-batch, and the counters are added
    /// once per partition.
    ///
    /// The whole batch is validated *before* any state changes, so on
    /// [`SplashError::OutOfOrderEdge`] or [`SplashError::EdgeFeatureWidth`]
    /// the predictor is exactly as it was — the caller can drop or repair
    /// the batch and carry on serving.
    pub fn try_push_edges(&mut self, edges: &[TemporalEdge]) -> Result<(), SplashError> {
        let Some(last) = edges.last() else { return Ok(()) };
        let mut prev = self.witness.last_time;
        let mut max_node = 0;
        for edge in edges {
            if edge.time < prev {
                return Err(SplashError::OutOfOrderEdge { got: edge.time, last: prev });
            }
            check_edge_width(edge, self.edge_feat_dim)?;
            prev = edge.time;
            max_node = max_node.max(edge.src).max(edge.dst);
        }
        for part in &mut self.parts {
            part.rings.grow(max_node);
        }
        if fans_out(self.parts.len()) {
            self.push_threaded(edges);
        } else {
            self.push_serial(edges);
        }
        self.witness.last_time = last.time;
        self.witness.edges.add(edges.len() as u64);
        Ok(())
    }

    /// Serial ingest: the witness pass writes each owner's ring slot
    /// directly from the augmenter — no intermediate snapshot. Src slot
    /// before dst slot, the same write order at every partition count.
    fn push_serial(&mut self, edges: &[TemporalEdge]) {
        let (aug, process, n) = (&mut self.witness.augmenter, self.process, self.parts.len());
        for part in &mut self.parts {
            part.route.clear();
        }
        for (i, edge) in edges.iter().enumerate() {
            aug.observe(edge);
            let os = shard_of(edge.src, n);
            self.parts[os].remember(aug, process, edge.src, edge.dst, edge);
            self.parts[os].route.push(i as u32);
            if edge.src != edge.dst {
                let od = shard_of(edge.dst, n);
                self.parts[od].remember(aug, process, edge.dst, edge.src, edge);
                if od != os {
                    self.parts[od].route.push(i as u32);
                }
            }
        }
        for part in &self.parts {
            part.counters.owned_edges.add(part.route.len() as u64);
        }
    }

    /// Thread-parallel ingest: the witness pass materializes each edge's
    /// snapshots plus each partition's route, then one thread per
    /// partition writes its routed snapshots (disjoint rings, read-only
    /// batch — the same bits as the serial path, less wall clock).
    fn push_threaded(&mut self, edges: &[TemporalEdge]) {
        let n = self.parts.len();
        // The snapshot batch persists at its high-water length; only a
        // batch larger than any before grows it.
        if self.snaps.len() < edges.len() {
            self.snaps.resize_with(edges.len(), EdgeSnapshot::default);
        }
        for (edge, snap) in edges.iter().zip(&mut self.snaps) {
            self.witness.observe_into(edge, self.process, n, snap);
        }
        let snaps = &self.snaps[..edges.len()];
        for part in &mut self.parts {
            part.route.clear();
        }
        for (i, s) in snaps.iter().enumerate() {
            self.parts[s.owner_src].route.push(i as u32);
            if s.owner_dst != s.owner_src {
                self.parts[s.owner_dst].route.push(i as u32);
            }
        }
        std::thread::scope(|scope| {
            for (p, part) in self.parts.iter_mut().enumerate() {
                scope.spawn(move || part.apply_snapshots(snaps, p));
            }
        });
        for part in &self.parts {
            part.counters.owned_edges.add(part.route.len() as u64);
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
        self.check_time(time)?;
        self.reader().query_input_into(&self.part_of(node).rings, node, time, q, spare);
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

    /// [`StreamingPredictor::try_predict`] into a caller-owned vector,
    /// answered by `node`'s owner partition. This is the steady-state
    /// serving path: query assembly, batch packing, and the SLIM forward
    /// all run in buffers reused across calls, so after a few warm-up
    /// queries it performs **zero heap allocations** (pinned by the `alloc`
    /// regression test); the [`SplashError::PastQuery`] error path
    /// allocates nothing either.
    pub fn try_predict_into(
        &self,
        node: NodeId,
        time: f64,
        out: &mut Vec<f32>,
    ) -> Result<(), SplashError> {
        self.check_time(time)?;
        let part = self.part_of(node);
        let s = &mut *part.scratch.borrow_mut();
        self.reader().query_input_into(&part.rings, node, time, &mut s.query, &mut s.spare);
        self.model.build_batch_into(&[&s.query], &mut s.batch);
        self.model.infer_into(&s.batch, &mut s.logits, &mut s.ws);
        out.clear();
        out.extend_from_slice(s.logits.row(0));
        part.counters.queries.inc();
        Ok(())
    }

    /// Predicts logits for several nodes at once (single shared timestamp;
    /// a past timestamp reports [`SplashError::PastQuery`]).
    pub fn try_predict_many(&self, nodes: &[NodeId], time: f64) -> Result<Matrix, SplashError> {
        let queries: Vec<PropertyQuery> = nodes
            .iter()
            .map(|&node| PropertyQuery { node, time, label: Label::Class(0) })
            .collect();
        self.try_predict_batch(&queries)
    }

    /// Answers a micro-batch of label queries in one SLIM forward pass;
    /// row `i` of the result holds the logits for `queries[i]` (labels on
    /// the queries are ignored).
    ///
    /// Bit-identical to calling [`StreamingPredictor::try_predict`] per
    /// query (the `predict_batch_matches_single_predictions` test pins
    /// this): batching amortizes input assembly and the fused inference
    /// kernel's per-call work (its scan of the weights for non-finite
    /// values) over the batch and fills the kernel's 4-row tiles, but
    /// every query's logits are still computed from exactly the same
    /// captured state. Queries may carry distinct timestamps; every query
    /// time is validated *before* any assembly work, and a past-time query
    /// reports [`SplashError::PastQuery`].
    pub fn try_predict_batch(&self, queries: &[PropertyQuery]) -> Result<Matrix, SplashError> {
        let mut out = Matrix::default();
        self.predict_in_place(queries, &mut out)?;
        Ok(out)
    }

    /// [`StreamingPredictor::try_predict_batch`] into a caller-owned
    /// matrix: row `i` holds the logits for `queries[i]` (labels ignored).
    ///
    /// This is the steady-state batched serving path — query assembly, the
    /// packed batch, the workspace, and the per-chunk logits all live in
    /// buffers reused across calls, and `out` is resized in place, so a
    /// warmed-up caller performs **zero** heap allocations per batch
    /// (pinned by the `alloc` regression test). Serially, queries are
    /// answered in place in batch order. With more than one partition and
    /// thread-per-partition fan-out available (see the module docs), each
    /// partition answers its own queries on its own thread and the rows
    /// are gathered back in batch order — `&mut self` is what lets the
    /// (`!Sync`) partitions fan out. Both forms are bit-identical to
    /// [`StreamingPredictor::try_predict_batch`]: each row depends only on
    /// its own query.
    pub fn try_predict_batch_into(
        &mut self,
        queries: &[PropertyQuery],
        out: &mut Matrix,
    ) -> Result<(), SplashError> {
        let n = self.parts.len();
        if !fans_out(n) || queries.is_empty() {
            return self.predict_in_place(queries, out);
        }
        for q in queries {
            self.check_time(q.time)?;
        }
        // Scatter: each partition's queries (labels replaced by a class-0
        // placeholder, which never allocates) and the rows they answer.
        for part in &mut self.parts {
            part.sub.clear();
            part.index.clear();
        }
        for (i, q) in queries.iter().enumerate() {
            let part = &mut self.parts[shard_of(q.node, n)];
            part.sub.push(PropertyQuery { node: q.node, time: q.time, label: Label::Class(0) });
            part.index.push(i);
        }
        let reader = Reader {
            model: &self.model,
            witness: &self.witness,
            process: self.process,
            out_dim: self.out_dim,
        };
        std::thread::scope(|scope| {
            for part in &mut self.parts {
                scope.spawn(move || {
                    nn::backend::with_serial_backend(|| {
                        let RingPartition { rings, scratch, sub, rows, .. } = part;
                        let rings = &*rings;
                        reader.predict_rows(|_| rings, scratch.get_mut(), sub, rows);
                    })
                });
            }
        });
        // Gather the row blocks back into batch order.
        out.resize_zeroed(queries.len(), self.out_dim);
        for part in &self.parts {
            for (local, &row) in part.index.iter().enumerate() {
                out.row_mut(row).copy_from_slice(part.rows.row(local));
            }
            part.counters.queries.add(part.index.len() as u64);
        }
        Ok(())
    }

    /// The serial form of both batch predicts: validates every query time,
    /// then answers the batch into `out` in batch order, each query from
    /// its owner's rings, through partition 0's scratch.
    fn predict_in_place(
        &self,
        queries: &[PropertyQuery],
        out: &mut Matrix,
    ) -> Result<(), SplashError> {
        for q in queries {
            self.check_time(q.time)?;
        }
        if queries.is_empty() {
            out.resize_zeroed(0, 0);
            return Ok(());
        }
        let (parts, n) = (&self.parts, self.parts.len());
        let s = &mut *parts[0].scratch.borrow_mut();
        self.reader().predict_rows(|v| &parts[shard_of(v, n)].rings, s, queries, out);
        for q in queries {
            parts[shard_of(q.node, n)].counters.queries.inc();
        }
        Ok(())
    }

    /// The dynamic representation `h_i(t)` of a node (Eq. 18). Reuses the
    /// predict scratch; allocates only the returned vector.
    pub fn represent(&self, node: NodeId, time: f64) -> Vec<f32> {
        let part = self.part_of(node);
        let s = &mut *part.scratch.borrow_mut();
        self.reader().query_input_into(&part.rings, node, time, &mut s.query, &mut s.spare);
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

        // Save the freshly trained engine (weights plus its training-prefix
        // state).
        let path = std::env::temp_dir()
            .join(format!("splash-stream-saved-{}.bin", std::process::id()));
        live.save(&path).unwrap();
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
        let mut sharded = single.clone().reshard(2).unwrap();
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
