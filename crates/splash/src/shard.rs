//! Horizontal scale-out: hash-partitioned sharding over the streaming
//! engine.
//!
//! A [`crate::stream::StreamingPredictor`] is single-threaded by design
//! (interior scratch makes it `!Sync`), so one engine caps throughput at
//! one core. [`ShardedPredictor`] multiplies that: nodes are
//! hash-partitioned across `N` shards ([`shard_of`]), each shard owning the
//! rings of its partition, and
//!
//! * **ingest** runs one shared *witness pass* — a single writer updates
//!   the engine's one `WitnessState` (feature tracker + stream clock),
//!   and only the owner shard(s) of each edge's endpoints take ring
//!   writes. Serially the pass writes those ring slots directly from the
//!   augmenter (the unsharded engine's single-copy path); with threads it
//!   materializes each edge's feature snapshots into a reusable batch of
//!   `EdgeSnapshot`s that the shard threads consume concurrently;
//! * **queries** scatter to the owner shard of each queried node and
//!   gather back into the caller's buffers, so the expensive part — the
//!   SLIM forward — fans out across engines (thread-per-shard under the
//!   `parallel` feature).
//!
//! # One witness, N ring partitions — and why this is exactly bit-identical
//!
//! SPLASH's per-node state is a ring of *snapshots*: each entry stores the
//! **neighbor's** feature as of edge-arrival time (Eq. 14), and the
//! structural process encodes the neighbor's **global** degree. Both are
//! functions of the whole stream, not of the owned partition — so they are
//! computed exactly once, by the engine's single witness, in stream order.
//! What a shard writes into a ring slot — directly or via a snapshot — is
//! byte-for-byte the feature vector the unsharded engine would have read
//! from its own tracker at the same instant; the rings are filled in the
//! same edge order; and every query routes to the owner shard, which reads the
//! shared witness for the target feature and its own rings for neighbors.
//! Sharded output is the unsharded output, bit for bit, for **any** shard
//! count and any valid stream — pinned by the
//! `sharded_matches_unsharded_*` proptests.
//!
//! The cost model: the witness pass is the *serial prefix* of ingest —
//! O(E) tracker updates plus one feature materialization per endpoint,
//! paid once regardless of shard count — and the per-shard ring writes
//! are O(E_owned), so total routed ingest work is O(E), ~flat in N
//! instead of growing linearly (the pre-refactor design re-ran the
//! witness on every shard). State per shard is its partition's rings
//! only; the flat feature tables live once, on the shared witness.
//! Threaded ring writes are safe because shards touch disjoint rings and
//! the snapshot batch is read-only during the scatter.
//!
//! Persistence stores the model bytes once: [`ShardedPredictor::save`]
//! writes a manifest plus a single shard file ([`crate::persist`]), and
//! [`ShardedPredictor::try_load`] reshards on load — an artifact saved at
//! `N` shards serves identically at any `M`. Durable checkpoints mirror
//! the split: one witness file plus `N` ring-partition files.

use std::cell::RefCell;
use std::path::Path;

use ctdg::{NodeId, PropertyQuery, TemporalEdge};
use datasets::Dataset;
use nn::Matrix;

use crate::augment::FeatureProcess;
use crate::config::SplashConfig;
use crate::error::SplashError;
use crate::persist::SavedModel;
use crate::stream::{check_edge_width, EdgeSnapshot, StreamingPredictor, WitnessState};
use crate::telemetry::{escape_label_value, Counter, Registry};

/// The owner shard of `node` under an `shards`-way partition.
///
/// A splitmix64-style finalizer avalanches the (dense) node ids so
/// consecutive ids spread across shards instead of striping; the function
/// is pure and version-independent *within a process*, and nothing
/// persisted depends on it — ownership is recomputed from scratch when an
/// artifact loads, which is what makes resharding-on-load free.
pub fn shard_of(node: NodeId, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut x = (node as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// A snapshot of one shard's serving counters
/// ([`ShardedPredictor::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Which shard this row describes.
    pub shard: usize,
    /// Nodes whose rings live on this shard (at least one entry).
    pub owned_nodes: usize,
    /// Edges with at least one endpoint owned here (ring writes).
    pub owned_edges: u64,
    /// Queries answered by this shard.
    pub queries_served: u64,
}

/// Per-shard counters, held as [`Counter`] handles (atomics) so
/// predictions count through `&self` and an installed engine can expose
/// the same cells as registry series on `/metrics`
/// ([`ShardedPredictor::register_telemetry`]).
#[derive(Debug, Default)]
struct ShardCounters {
    owned_edges: Counter,
    queries: Counter,
}

impl Clone for ShardCounters {
    /// A clone gets **detached** copies of the cells: counter handles
    /// share their atomic, so a derived clone would leave two predictors
    /// double-counting into one registry series.
    fn clone(&self) -> Self {
        Self {
            owned_edges: self.owned_edges.detached_copy(),
            queries: self.queries.detached_copy(),
        }
    }
}

/// Reusable scatter–gather buffers: per-shard query sub-batches, the
/// original row index of each scattered query, and per-shard logit blocks.
/// Warmed up by the first batches, then reused verbatim, so
/// [`ShardedPredictor::try_predict_batch_into`] stays off the allocator.
#[derive(Debug, Clone, Default)]
struct GatherScratch {
    queries: Vec<Vec<PropertyQuery>>,
    index: Vec<Vec<usize>>,
    rows: Vec<Matrix>,
}

/// `N` hash-partitioned ring engines behind one shared witness and one
/// ingest/query surface.
///
/// See the [module docs](self) for the partitioning and determinism
/// contract; in short: same API shape as [`StreamingPredictor`], same bits
/// out, state and query compute split `N` ways.
#[derive(Debug)]
pub struct ShardedPredictor {
    /// The engine's single witness: one feature tracker + stream clock,
    /// written by the serial ingest prefix, read by every query path.
    witness: WitnessState,
    /// Witness-less ring partitions (their `witness` field is `None`; all
    /// shared state routes through [`ShardedPredictor::witness`]).
    shards: Vec<StreamingPredictor>,
    counters: Vec<ShardCounters>,
    /// Total edges witnessed (each edge is witnessed exactly once).
    witnessed: Counter,
    /// The reusable snapshot batch the *thread-parallel* witness pass
    /// materializes and the shard threads consume (serial ingest writes
    /// ring slots directly and never touches it); grown to the high-water
    /// batch size, then reused allocation-free.
    snaps: Vec<EdgeSnapshot>,
    /// Per-shard routing built by the same parallel-path witness pass:
    /// element `s` lists the indices into the snapshot batch that shard
    /// `s` owns (src- or dst-side). Shard threads iterate only their own
    /// list, so per-shard ingest touches O(edges owned) snapshots instead
    /// of scanning the batch. Reused allocation-free like the batch.
    routes: Vec<Vec<u32>>,
    scratch: RefCell<GatherScratch>,
}

impl Clone for ShardedPredictor {
    /// A clone gets a **detached** copy of the witnessed-edges cell (like
    /// the per-shard `ShardCounters`): counter handles share their atomic, so a derived
    /// clone would double-count into one registry series.
    fn clone(&self) -> Self {
        Self {
            witness: self.witness.clone(),
            shards: self.shards.clone(),
            counters: self.counters.clone(),
            witnessed: self.witnessed.detached_copy(),
            snaps: self.snaps.clone(),
            routes: self.routes.clone(),
            scratch: self.scratch.clone(),
        }
    }
}

impl ShardedPredictor {
    /// Splits a (trained or restored) predictor into one shared witness
    /// plus `shards` ring partitions: the base predictor's witness is
    /// detached onto the engine, and each (witness-less) shard keeps only
    /// its partition's rings. `shards` must be positive.
    pub fn from_predictor(
        mut predictor: StreamingPredictor,
        shards: usize,
    ) -> Result<Self, SplashError> {
        if shards == 0 {
            return Err(SplashError::InvalidConfig {
                what: "shard count must be positive".into(),
            });
        }
        let witness = predictor.detach_witness();
        let mut parts = Vec::with_capacity(shards);
        for s in 0..shards - 1 {
            let mut p = predictor.clone();
            p.retain_ring_nodes(|v| shard_of(v, shards) == s);
            parts.push(p);
        }
        let mut p = predictor;
        p.retain_ring_nodes(|v| shard_of(v, shards) == shards - 1);
        parts.push(p);
        Ok(Self {
            witness,
            shards: parts,
            counters: vec![ShardCounters::default(); shards],
            witnessed: Counter::new(),
            snaps: Vec::new(),
            routes: vec![Vec::new(); shards],
            scratch: RefCell::new(GatherScratch {
                queries: vec![Vec::new(); shards],
                index: vec![Vec::new(); shards],
                rows: vec![Matrix::default(); shards],
            }),
        })
    }

    /// Trains SPLASH (with automatic feature selection) and shards the
    /// result `shards` ways. See [`StreamingPredictor::train`].
    pub fn train(dataset: &Dataset, cfg: &SplashConfig, shards: usize) -> Result<Self, SplashError> {
        Self::from_predictor(StreamingPredictor::train(dataset, cfg), shards)
    }

    /// Like [`ShardedPredictor::train`] with a fixed augmentation process.
    pub fn train_with_process(
        dataset: &Dataset,
        cfg: &SplashConfig,
        process: FeatureProcess,
        shards: usize,
    ) -> Result<Self, SplashError> {
        Self::from_predictor(
            StreamingPredictor::train_with_process(dataset, cfg, process),
            shards,
        )
    }

    /// Rebuilds a sharded predictor from a restored model; the streaming
    /// state is reconstructed from `dataset`'s training prefix exactly as
    /// in [`StreamingPredictor::try_from_saved`], then partitioned.
    pub fn try_from_saved(
        saved: SavedModel,
        dataset: &Dataset,
        shards: usize,
    ) -> Result<Self, SplashError> {
        Self::from_predictor(StreamingPredictor::try_from_saved(saved, dataset)?, shards)
    }

    /// The witness half of a durable checkpoint: the engine's single
    /// feature-tracker state, ring capacity, and stream clock — written
    /// once per checkpoint, not once per shard.
    pub(crate) fn durable_witness(&self) -> crate::stream::WitnessSnapshot {
        crate::stream::WitnessSnapshot {
            augmenter: self.witness.augmenter.durable_state(),
            k: self.config().k,
            last_time: self.witness.last_time,
        }
    }

    /// The ring half of a durable checkpoint: element `i` is shard `i`'s
    /// partition of the per-node rings (non-empty rings only, in storage
    /// order with cursors).
    pub(crate) fn durable_ring_shards(&self) -> Vec<Vec<crate::stream::RingState>> {
        self.shards.iter().map(|s| s.durable_rings()).collect()
    }

    /// Rebuilds a sharded predictor from a restored model plus an
    /// assembled [`crate::stream::StreamState`] (one recovered witness +
    /// the ring union). The rings are repartitioned for `shards` engines,
    /// so a checkpoint taken at any shard count restores at any other
    /// (resharding-on-restore, mirroring [`ShardedPredictor::try_load`]).
    pub(crate) fn try_from_saved_state(
        saved: SavedModel,
        state: crate::stream::StreamState,
        shards: usize,
    ) -> Result<Self, SplashError> {
        let predictor = StreamingPredictor::try_from_saved_state(saved, state)?;
        Self::from_predictor(predictor, shards)
    }

    /// The model-artifact bytes of this engine's weights (every shard
    /// shares them), with an optional `SAVEDOPT` optimizer trailer.
    pub(crate) fn model_artifact_bytes(
        &mut self,
        opt: Option<&crate::slim::AdamState>,
    ) -> Result<Vec<u8>, SplashError> {
        self.shards[0].model_artifact_bytes(opt)
    }

    /// Loads a sharded artifact (manifest + model file, written by
    /// [`ShardedPredictor::save`]) and serves it with `shards` engines —
    /// `None` keeps the artifact's saved count. This is resharding-on-load:
    /// ownership is recomputed, state is rebuilt from the training stream,
    /// so any saved count loads at any serving count with identical output.
    pub fn try_load(
        path: &Path,
        dataset: &Dataset,
        shards: Option<usize>,
    ) -> Result<Self, SplashError> {
        let (manifest, saved) = crate::persist::load_sharded_model(path)?;
        saved.cfg.validate()?;
        Self::try_from_saved(saved, dataset, shards.unwrap_or(manifest.shards))
    }

    /// Persists this predictor as a sharded artifact at `path`: the
    /// manifest (which records the shard count) plus one model file
    /// (`<path>.shard0`) — shards share weights, so the bytes are stored
    /// once. Restores through [`ShardedPredictor::try_load`] at any shard
    /// count, or the model file alone through
    /// [`crate::persist::load_model`].
    pub fn save(&mut self, path: &Path) -> Result<(), SplashError> {
        self.save_with_opt(path, None)
    }

    /// [`ShardedPredictor::save`] plus an optional checkpoint of the
    /// online-fine-tuning optimizer; the model file carries the `SAVEDOPT`
    /// section (shards share weights *and* their optimizer).
    pub fn save_with_opt(
        &mut self,
        path: &Path,
        opt: Option<&crate::slim::AdamState>,
    ) -> Result<(), SplashError> {
        let shards = self.shards.len();
        self.shards[0].save_sharded(path, shards, opt)
    }

    /// Atomically publishes `src`'s weights into **every** shard engine
    /// (shards share weights by construction — see the module docs — so
    /// one publish fans out N ways; allocation-free per shard). Streaming
    /// state is untouched.
    pub(crate) fn set_weights(&mut self, src: &crate::slim::SlimModel) {
        for shard in &mut self.shards {
            shard.set_model_weights(src);
        }
    }

    /// Label-carrying ingest, routed: the owner shard of `node` holds its
    /// rings, so it (and only it) assembles the training example — which
    /// makes the captured bits identical to the unsharded capture. See
    /// [`StreamingPredictor::capture_labeled_into`].
    pub(crate) fn capture_labeled_into(
        &self,
        node: NodeId,
        time: f64,
        label: &ctdg::Label,
        q: &mut crate::capture::CapturedQuery,
        spare: &mut Vec<crate::capture::CapturedNeighbor>,
    ) -> Result<(), SplashError> {
        let s = shard_of(node, self.shards.len());
        self.shards[s].capture_labeled_into_with(&self.witness, node, time, label, q, spare)
    }

    /// Number of shards serving this predictor.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Arrival time of the most recently observed edge (the engine's one
    /// shared stream clock).
    pub fn last_time(&self) -> f64 {
        self.witness.last_time
    }

    /// Number of node ids with allocated state; see
    /// [`StreamingPredictor::known_nodes`].
    pub fn known_nodes(&self) -> usize {
        self.witness.augmenter.known_nodes()
    }

    /// Output (logit) width of the model: one column per class.
    pub fn out_dim(&self) -> usize {
        self.shards[0].out_dim()
    }

    /// Edge-feature width the model was trained with; see
    /// [`StreamingPredictor::edge_feat_dim`].
    pub fn edge_feat_dim(&self) -> usize {
        self.shards[0].edge_feat_dim()
    }

    /// The configuration the underlying model was trained (or restored)
    /// with.
    pub fn config(&self) -> &SplashConfig {
        self.shards[0].config()
    }

    /// The augmentation process the underlying model consumes.
    pub fn process(&self) -> FeatureProcess {
        self.shards[0].process()
    }

    /// Read-only access to one shard's engine, or `None` past the shard
    /// count. Crate-internal: shard members are witness-less, so their
    /// stream-dependent methods panic — the service façade uses this only
    /// to clone the shared model weights.
    pub(crate) fn shard(&self, index: usize) -> Option<&StreamingPredictor> {
        self.shards.get(index)
    }

    /// Per-shard serving counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .zip(&self.counters)
            .enumerate()
            .map(|(shard, (engine, c))| ShardStats {
                shard,
                owned_nodes: engine.active_rings(),
                owned_edges: c.owned_edges.get(),
                queries_served: c.queries.get(),
            })
            .collect()
    }

    /// Total edges the shared witness has observed — a single global
    /// counter (each edge is witnessed exactly once, by the engine's one
    /// witness, regardless of the shard count).
    pub fn witnessed_edges(&self) -> u64 {
        self.witnessed.get()
    }

    /// Total queries answered across all shards.
    pub fn queries_served(&self) -> u64 {
        self.counters.iter().map(|c| c.queries.get()).sum()
    }

    /// Exposes the engine's counters as labelled series in `registry`: the
    /// global `splash_witness_edges_total{model="..."}` (one witness, one
    /// series) plus per-shard
    /// `splash_shard_edges_owned_total{model="...",shard="N"}` and
    /// `splash_shard_queries_total{model="...",shard="N"}`. The handles
    /// share the engine's own cells — counting on the serving path stays a
    /// plain atomic increment; registration (here, at install time) is the
    /// only step that allocates.
    pub(crate) fn register_telemetry(&self, registry: &Registry, model: &str) {
        let model = escape_label_value(model);
        registry.register_counter(
            "splash_witness_edges_total",
            &format!("model=\"{model}\""),
            "Edges observed by the engine's single shared witness (feature tracker).",
            &self.witnessed,
        );
        for (shard, c) in self.counters.iter().enumerate() {
            let labels = format!("model=\"{model}\",shard=\"{shard}\"");
            registry.register_counter(
                "splash_shard_edges_owned_total",
                &labels,
                "Edges whose ring snapshot was written on this shard (owner writes).",
                &c.owned_edges,
            );
            registry.register_counter(
                "splash_shard_queries_total",
                &labels,
                "Queries answered by this shard (owner of the queried node).",
                &c.queries,
            );
        }
    }

    /// Ingests a chronologically ordered micro-batch through the one
    /// shared witness: each edge is observed exactly once, and only its
    /// endpoints' owner shard(s) take ring writes — total ingest work is
    /// O(E) regardless of the shard count.
    ///
    /// Batch-atomic like [`StreamingPredictor::try_push_edges`]: the whole
    /// batch is validated against the stream clock and the model's
    /// edge-feature width before anything mutates, so on
    /// [`SplashError::OutOfOrderEdge`] or [`SplashError::EdgeFeatureWidth`]
    /// the engine is exactly as it was. Serially, the witness pass writes
    /// the owner shards' ring slots directly from the augmenter — the same
    /// single-copy path the unsharded engine takes. With the `parallel`
    /// feature and more than one available thread, the witness pass
    /// instead materializes per-edge `EdgeSnapshot`s plus per-shard
    /// routing index lists, and one thread per shard consumes its routed
    /// snapshots (disjoint rings, read-only batch — same bits, less wall
    /// clock).
    pub fn try_push_edges(&mut self, edges: &[TemporalEdge]) -> Result<(), SplashError> {
        let mut prev = self.witness.last_time;
        let mut max_node = 0;
        let width = self.edge_feat_dim();
        for edge in edges {
            if edge.time < prev {
                return Err(SplashError::OutOfOrderEdge { got: edge.time, last: prev });
            }
            check_edge_width(edge, width)?;
            prev = edge.time;
            max_node = max_node.max(edge.src).max(edge.dst);
        }
        let Some(last) = edges.last() else { return Ok(()) };
        let n = self.shards.len();
        let process = self.process();
        #[cfg(feature = "parallel")]
        {
            if n > 1 && nn::backend::num_threads() > 1 && !nn::backend::serial_pinned() {
                // The snapshot batch persists at its high-water length;
                // only a batch larger than any before grows it.
                if self.snaps.len() < edges.len() {
                    self.snaps.resize_with(edges.len(), EdgeSnapshot::default);
                }
                for (edge, snap) in edges.iter().zip(&mut self.snaps) {
                    self.witness.observe_into(edge, process, n, snap);
                }
                let snaps = &self.snaps[..edges.len()];
                // Route each snapshot to its owner shard(s) once, so every
                // shard iterates only the indices it owns instead of
                // scanning the batch.
                for r in self.routes.iter_mut() {
                    r.clear();
                }
                for (i, s) in snaps.iter().enumerate() {
                    self.routes[s.owner_src].push(i as u32);
                    if s.owner_dst != s.owner_src {
                        self.routes[s.owner_dst].push(i as u32);
                    }
                }
                // Ring tables are sized up front so the shard threads only
                // ever write into existing rings.
                for shard in self.shards.iter_mut() {
                    shard.ensure_ring_capacity(max_node);
                }
                let routes = &self.routes;
                std::thread::scope(|scope| {
                    for (s, shard) in self.shards.iter_mut().enumerate() {
                        scope.spawn(move || shard.apply_snapshots(snaps, &routes[s], s));
                    }
                });
                for s in snaps {
                    self.counters[s.owner_src].owned_edges.inc();
                    if s.owner_dst != s.owner_src {
                        self.counters[s.owner_dst].owned_edges.inc();
                    }
                }
                self.witnessed.add(edges.len() as u64);
                return Ok(());
            }
        }
        // Serial: the witness pass writes each owner's ring slot directly
        // from the augmenter — no intermediate snapshot, no per-shard
        // batch scan. Src slot before dst slot, exactly the unsharded
        // engine's write order.
        for edge in edges {
            self.witness.augmenter.observe(edge);
            let owner_src = shard_of(edge.src, n);
            self.shards[owner_src]
                .remember_side(&self.witness.augmenter, process, edge.src, edge.dst, edge);
            self.counters[owner_src].owned_edges.inc();
            if edge.src != edge.dst {
                let owner_dst = shard_of(edge.dst, n);
                self.shards[owner_dst]
                    .remember_side(&self.witness.augmenter, process, edge.dst, edge.src, edge);
                if owner_dst != owner_src {
                    self.counters[owner_dst].owned_edges.inc();
                }
            }
        }
        self.witness.last_time = last.time;
        self.witnessed.add(edges.len() as u64);
        Ok(())
    }

    /// Ingests one edge (the per-edge path a `DropLate` serving layer
    /// uses): a late edge reports [`SplashError::OutOfOrderEdge`] with
    /// the engine untouched — the drop decision lives on the one shared
    /// stream clock, so it is identical to the unsharded engine's. An edge
    /// of the wrong feature width reports [`SplashError::EdgeFeatureWidth`],
    /// also with the engine untouched.
    pub fn try_observe_edge(&mut self, edge: &TemporalEdge) -> Result<(), SplashError> {
        if edge.time < self.witness.last_time {
            return Err(SplashError::OutOfOrderEdge {
                got: edge.time,
                last: self.witness.last_time,
            });
        }
        check_edge_width(edge, self.edge_feat_dim())?;
        let n = self.shards.len();
        let process = self.process();
        // Only the owner shard(s) take ring writes, straight from the
        // augmenter — the same direct path as serial batch ingest.
        self.witness.augmenter.observe(edge);
        let owner_src = shard_of(edge.src, n);
        self.shards[owner_src]
            .remember_side(&self.witness.augmenter, process, edge.src, edge.dst, edge);
        self.counters[owner_src].owned_edges.inc();
        if edge.src != edge.dst {
            let owner_dst = shard_of(edge.dst, n);
            self.shards[owner_dst]
                .remember_side(&self.witness.augmenter, process, edge.dst, edge.src, edge);
            if owner_dst != owner_src {
                self.counters[owner_dst].owned_edges.inc();
            }
        }
        self.witness.last_time = edge.time;
        self.witnessed.inc();
        Ok(())
    }

    /// Predicts the property logits of `node` at `time`, answered by the
    /// owner shard. Bit-identical to the unsharded predictor; zero heap
    /// allocations after warm-up (the owner's scratch is reused).
    pub fn try_predict_into(
        &self,
        node: NodeId,
        time: f64,
        out: &mut Vec<f32>,
    ) -> Result<(), SplashError> {
        let s = shard_of(node, self.shards.len());
        self.shards[s].try_predict_into_with(&self.witness, node, time, out)?;
        self.counters[s].queries.inc();
        Ok(())
    }

    /// Convenience form of [`ShardedPredictor::try_predict_into`]
    /// (allocates only the returned vector).
    pub fn try_predict(&self, node: NodeId, time: f64) -> Result<Vec<f32>, SplashError> {
        let mut out = Vec::new();
        self.try_predict_into(node, time, &mut out)?;
        Ok(out)
    }

    /// Answers a micro-batch of label queries: scatter to owner shards,
    /// one batched forward per shard, gather rows back into query order.
    /// Row `i` holds the logits for `queries[i]`; bit-identical to
    /// [`StreamingPredictor::try_predict_batch`] on the unsharded engine.
    ///
    /// Allocates the returned matrix; the reusing (and, with `parallel`,
    /// thread-per-shard) form is
    /// [`ShardedPredictor::try_predict_batch_into`].
    pub fn try_predict_batch(&self, queries: &[PropertyQuery]) -> Result<Matrix, SplashError> {
        let mut out = Matrix::default();
        self.validate_and_scatter(queries)?;
        let out_dim = self.out_dim();
        let witness = &self.witness;
        let mut guard = self.scratch.borrow_mut();
        let scratch = &mut *guard;
        for ((shard, qs), rows) in
            self.shards.iter().zip(&scratch.queries).zip(&mut scratch.rows)
        {
            shard
                .try_predict_batch_into_with(witness, qs, rows)
                .expect("query times validated before the scatter");
        }
        gather_rows(scratch, &self.counters, out_dim, queries.len(), &mut out);
        Ok(out)
    }

    /// [`ShardedPredictor::try_predict_batch`] into a caller-owned matrix —
    /// the scatter–gather serving path. Per-shard sub-batches, index maps,
    /// and logit blocks are all reused across calls, so a warmed-up caller
    /// performs **zero** heap allocations per batch (pinned by the `alloc`
    /// regression test).
    ///
    /// Takes `&mut self` so that, under the `parallel` feature with more
    /// than one available thread, each shard's forward pass can run on its
    /// own thread (the engines are `!Sync` by design; exclusive access is
    /// what lets them fan out). The serial and threaded paths are
    /// bit-identical.
    pub fn try_predict_batch_into(
        &mut self,
        queries: &[PropertyQuery],
        out: &mut Matrix,
    ) -> Result<(), SplashError> {
        self.validate_and_scatter(queries)?;
        let out_dim = self.shards[0].out_dim();
        let witness = &self.witness;
        let scratch = self.scratch.get_mut();
        #[cfg(feature = "parallel")]
        {
            let n = self.shards.len();
            if n > 1 && nn::backend::num_threads() > 1 && !nn::backend::serial_pinned() {
                std::thread::scope(|scope| {
                    for ((shard, qs), rows) in
                        self.shards.iter_mut().zip(&scratch.queries).zip(&mut scratch.rows)
                    {
                        scope.spawn(move || {
                            nn::backend::with_serial_backend(|| {
                                shard
                                    .try_predict_batch_into_with(witness, qs, rows)
                                    .expect("query times validated before the scatter");
                            });
                        });
                    }
                });
                gather_rows(scratch, &self.counters, out_dim, queries.len(), out);
                return Ok(());
            }
        }
        for ((shard, qs), rows) in
            self.shards.iter().zip(&scratch.queries).zip(&mut scratch.rows)
        {
            shard
                .try_predict_batch_into_with(witness, qs, rows)
                .expect("query times validated before the scatter");
        }
        gather_rows(scratch, &self.counters, out_dim, queries.len(), out);
        Ok(())
    }

    /// Validates every query time (batch atomicity: nothing runs if any
    /// query is in the past), then partitions the batch into the reused
    /// per-shard sub-batches. Labels are replaced by a class-0 placeholder —
    /// predictions ignore them, and cloning a placeholder never allocates.
    fn validate_and_scatter(&self, queries: &[PropertyQuery]) -> Result<(), SplashError> {
        let last = self.last_time();
        for q in queries {
            if q.time < last {
                return Err(SplashError::PastQuery { got: q.time, last });
            }
        }
        let n = self.shards.len();
        let mut guard = self.scratch.borrow_mut();
        let scratch = &mut *guard;
        for (qs, ix) in scratch.queries.iter_mut().zip(&mut scratch.index) {
            qs.clear();
            ix.clear();
        }
        for (i, q) in queries.iter().enumerate() {
            let s = shard_of(q.node, n);
            scratch.queries[s].push(PropertyQuery {
                node: q.node,
                time: q.time,
                label: ctdg::Label::Class(0),
            });
            scratch.index[s].push(i);
        }
        Ok(())
    }

}

/// Copies the per-shard logit blocks back into query order and bumps the
/// per-shard query counters (a free function so the caller can keep its
/// exclusive borrow of the scatter scratch).
fn gather_rows(
    scratch: &GatherScratch,
    counters: &[ShardCounters],
    out_dim: usize,
    n_queries: usize,
    out: &mut Matrix,
) {
    if n_queries == 0 {
        // Match the unsharded batch path's 0×0 result bit for bit.
        out.resize_zeroed(0, 0);
        return;
    }
    out.resize_zeroed(n_queries, out_dim);
    for ((ix, rows), c) in scratch.index.iter().zip(&scratch.rows).zip(counters) {
        for (local, &orig) in ix.iter().enumerate() {
            out.row_mut(orig).copy_from_slice(rows.row(local));
        }
        c.queries.add(ix.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_partitions_every_node() {
        for shards in [1usize, 2, 3, 7, 16] {
            let mut hit = vec![0usize; shards];
            for v in 0..10_000u32 {
                let s = shard_of(v, shards);
                assert!(s < shards);
                hit[s] += 1;
            }
            // The hash must actually spread dense ids: no shard may be
            // starved below half of a perfectly uniform share.
            let floor = 10_000 / shards / 2;
            for (s, &count) in hit.iter().enumerate() {
                assert!(count >= floor, "shard {s}/{shards} got {count} of 10000");
            }
        }
    }

    #[test]
    fn shard_of_is_stable() {
        // Routing is a pure function: the same node maps to the same shard
        // on every call (ingest and query sides must agree).
        for v in [0u32, 1, 17, 1 << 20, u32::MAX] {
            assert_eq!(shard_of(v, 7), shard_of(v, 7));
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let dataset =
            crate::truncate_to_available(&datasets::synthetic_shift(30, 5), 0.5);
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 1;
        let p = StreamingPredictor::train_with_process(
            &dataset,
            &cfg,
            FeatureProcess::Random,
        );
        let err = ShardedPredictor::from_predictor(p, 0).unwrap_err();
        assert!(matches!(err, SplashError::InvalidConfig { .. }), "{err:?}");
    }
}
