//! Streaming capture of per-query model inputs.
//!
//! TGNN training and inference on a CTDG are defined over the memory state
//! *at each query's time* (paper Fig. 4). This module replays edges and
//! queries chronologically once, snapshotting — at the moment each edge
//! arrives — the features its endpoints have *then* (Eq. 7 and Eq. 14 use
//! `x_j(t^{(l)})`, the neighbor feature at edge time). The captured inputs
//! are immutable afterwards, so models can train for multiple epochs over
//! minibatches without violating streaming semantics.

use ctdg::{replay, Event, Label, NodeId, TemporalEdge};
use datasets::Dataset;
use nn::{Matrix, randn_matrix};
use rand::{rngs::StdRng, SeedableRng};

use crate::augment::{Augmenter, FeatureProcess};
use crate::config::SplashConfig;
use crate::error::SplashError;

/// Which node features a model receives as input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFeatures {
    /// Zero vectors (featureless baselines; the SLIM+ZF ablation).
    Zero,
    /// A fixed random vector per node, *including* unseen nodes, without
    /// propagation — the paper's `+RF` baselines and the SLIM+RF ablation.
    RawRandom,
    /// External dataset node features when present, zeros otherwise
    /// (what plain baselines consume on GDELT).
    External,
    /// One augmented process with propagation for unseen nodes (§IV-A).
    Process(FeatureProcess),
    /// All three augmented processes concatenated (the SLIM+Joint ablation).
    Joint,
}

impl InputFeatures {
    /// Short display name used in harness tables.
    pub fn name(self) -> &'static str {
        match self {
            InputFeatures::Zero => "ZF",
            InputFeatures::RawRandom => "RF",
            InputFeatures::External => "ext",
            InputFeatures::Process(FeatureProcess::Random) => "R",
            InputFeatures::Process(FeatureProcess::Positional) => "P",
            InputFeatures::Process(FeatureProcess::Structural) => "S",
            InputFeatures::Joint => "joint",
        }
    }
}

/// One remembered incident edge with feature snapshots taken at its arrival.
#[derive(Debug, Default)]
pub struct CapturedNeighbor {
    /// The other endpoint.
    pub other: NodeId,
    /// The other endpoint's node feature at edge time, `x_j(t^{(l)})`.
    pub feat: Vec<f32>,
    /// The edge's feature `x_ij`.
    pub edge_feat: Vec<f32>,
    /// The edge's arrival time `t^{(l)}`.
    pub time: f64,
    /// The edge's weight `w_ij`.
    pub weight: f32,
}

impl Clone for CapturedNeighbor {
    fn clone(&self) -> Self {
        Self {
            other: self.other,
            feat: self.feat.clone(),
            edge_feat: self.edge_feat.clone(),
            time: self.time,
            weight: self.weight,
        }
    }

    /// Allocation-reusing overwrite: the feature vectors keep their heap
    /// buffers (the streaming predictor leans on this for zero-allocation
    /// steady-state query assembly).
    fn clone_from(&mut self, source: &Self) {
        self.other = source.other;
        self.feat.clone_from(&source.feat);
        self.edge_feat.clone_from(&source.edge_feat);
        self.time = source.time;
        self.weight = source.weight;
    }
}

/// Everything a model needs to answer one label query.
#[derive(Debug, Clone)]
pub struct CapturedQuery {
    /// The queried node.
    pub node: NodeId,
    /// Query time `t`.
    pub time: f64,
    /// The queried node's feature at query time, `x_i(t)`.
    pub target_feat: Vec<f32>,
    /// `N_i(t)`: the `k` most recent incident edges, oldest first.
    pub neighbors: Vec<CapturedNeighbor>,
    /// Ground truth `Y_i(t)`.
    pub label: Label,
}

impl Default for CapturedQuery {
    /// An empty query (class-0 placeholder label) whose buffers are meant
    /// to be refilled in place by streaming query assembly.
    fn default() -> Self {
        Self {
            node: 0,
            time: 0.0,
            target_feat: Vec::new(),
            neighbors: Vec::new(),
            label: Label::Class(0),
        }
    }
}

/// A full capture: one entry per dataset query, in chronological order.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Captured inputs, aligned with the dataset's query order.
    pub queries: Vec<CapturedQuery>,
    /// Node feature dimension of the captured features.
    pub feat_dim: usize,
    /// Edge feature dimension.
    pub edge_feat_dim: usize,
}

impl CapturedNeighbor {
    /// Overwrites everything but `feat` with `edge` as seen from the ring
    /// whose neighbor is `other`, reusing the edge-feature buffer.
    pub(crate) fn set_edge(&mut self, other: NodeId, edge: &TemporalEdge) {
        self.other = other;
        self.edge_feat.clear();
        self.edge_feat.extend_from_slice(&edge.feat);
        self.time = edge.time;
        self.weight = edge.weight;
    }
}

/// One node's Eq. 14 neighbor memory: the `k` most recent incident edges
/// with their feature snapshots. Offline capture, baseline serving
/// ([`CaptureStream`]) and the streaming engine all keep their rings in
/// this one type.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ring {
    /// Captured neighbors in *storage* order: the oldest-first read order
    /// is `entries[head..]` then `entries[..head]`.
    pub(crate) entries: Vec<CapturedNeighbor>,
    /// Overwrite cursor (0 while the ring is still filling).
    pub(crate) head: usize,
}

impl Ring {
    /// The slot the next entry overwrites: a fresh slot while the ring
    /// fills, then the oldest one. A full ring reuses the slot's buffers,
    /// so steady-state writes stay off the allocator.
    pub(crate) fn push_slot(&mut self, k: usize) -> &mut CapturedNeighbor {
        if self.entries.len() < k {
            if self.entries.capacity() == 0 {
                // One allocation per ring, ever: the ring can only hold k
                // entries, so reserve them all on first touch instead of
                // growing through the doubling sequence.
                self.entries.reserve_exact(k);
            }
            self.entries.push(CapturedNeighbor::default());
            self.entries.last_mut().expect("just pushed")
        } else {
            let head = self.head;
            self.head = (self.head + 1) % k;
            &mut self.entries[head]
        }
    }

    /// The entries oldest first, as two contiguous slices (no per-entry
    /// modulo walk).
    pub(crate) fn oldest_first(&self) -> (&[CapturedNeighbor], &[CapturedNeighbor]) {
        (&self.entries[self.head..], &self.entries[..self.head])
    }
}

/// Per-node [`Ring`]s of capacity `k`, indexed by node id and grown on
/// demand; a node without a ring reads as empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rings {
    rings: Vec<Ring>,
    k: usize,
}

impl Rings {
    /// An empty table of capacity-`k` rings.
    pub(crate) fn new(k: usize) -> Self {
        Self { rings: Vec::new(), k }
    }

    /// Grows the table to cover `node`. Unwritten rings stay empty,
    /// invisible to queries and to saves.
    pub(crate) fn grow(&mut self, node: NodeId) {
        let need = node as usize + 1;
        if self.rings.len() < need {
            self.rings.resize_with(need, Ring::default);
        }
    }

    /// [`Ring::push_slot`] on `node`'s ring, growing the table if needed.
    pub(crate) fn push_slot(&mut self, node: NodeId) -> &mut CapturedNeighbor {
        self.grow(node);
        self.rings[node as usize].push_slot(self.k)
    }

    /// [`Ring::oldest_first`] on `node`'s ring (empty without one).
    pub(crate) fn oldest_first(&self, node: NodeId) -> (&[CapturedNeighbor], &[CapturedNeighbor]) {
        match self.rings.get(node as usize) {
            Some(ring) => ring.oldest_first(),
            None => (&[], &[]),
        }
    }

    /// Length of the table (one past the highest node id it covers).
    pub(crate) fn len(&self) -> usize {
        self.rings.len()
    }

    /// The non-empty rings with their node ids, in node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &Ring)> {
        self.rings
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.entries.is_empty())
            .map(|(i, r)| (i as NodeId, r))
    }

    /// Moves the non-empty rings out, in node order, leaving the table
    /// empty.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (NodeId, Ring)> + '_ {
        self.rings
            .drain(..)
            .enumerate()
            .filter(|(_, r)| !r.entries.is_empty())
            .map(|(i, r)| (i as NodeId, r))
    }

    /// Installs `ring` as `node`'s ring.
    pub(crate) fn insert(&mut self, node: NodeId, ring: Ring) {
        self.grow(node);
        self.rings[node as usize] = ring;
    }
}

/// The feature provider behind a capture run.
enum Provider {
    Constant { table: ConstantTable },
    Augmented { aug: Augmenter, process: FeatureProcess },
    Joint { aug: Augmenter },
}

#[derive(Debug)]
enum ConstantTable {
    Zero(usize),
    Random { dv: usize, seed: u64 },
    External { feats: Matrix },
}

impl ConstantTable {
    fn feat(&self, node: NodeId) -> Vec<f32> {
        match self {
            ConstantTable::Zero(dv) => vec![0.0; *dv],
            ConstantTable::Random { dv, seed } => {
                // Deterministic per-node Gaussian, lazily derived so unseen
                // nodes get features too (the +RF convention).
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9E37_79B9));
                randn_matrix(1, *dv, 1.0, &mut rng).row(0).to_vec()
            }
            ConstantTable::External { feats } => {
                if (node as usize) < feats.rows() {
                    feats.row(node as usize).to_vec()
                } else {
                    vec![0.0; feats.cols()]
                }
            }
        }
    }

    fn dim(&self) -> usize {
        match self {
            ConstantTable::Zero(dv) | ConstantTable::Random { dv, .. } => *dv,
            ConstantTable::External { feats } => feats.cols(),
        }
    }
}

impl Provider {
    fn observe(&mut self, edge: &TemporalEdge) {
        match self {
            Provider::Constant { .. } => {}
            Provider::Augmented { aug, .. } | Provider::Joint { aug } => aug.observe(edge),
        }
    }

    fn feat(&self, node: NodeId) -> Vec<f32> {
        match self {
            Provider::Constant { table } => table.feat(node),
            Provider::Augmented { aug, process } => aug.feature(*process, node),
            Provider::Joint { aug } => aug.joint_feature(node),
        }
    }

    fn dim(&self) -> usize {
        match self {
            Provider::Constant { table } => table.dim(),
            Provider::Augmented { aug, .. } => aug.feat_dim(),
            Provider::Joint { aug } => 3 * aug.feat_dim(),
        }
    }
}

/// The timestamp ending the "seen" period: the time of the last query in the
/// first `seen_frac` of queries (train + validation under 10/10/80).
pub fn seen_end_time(dataset: &Dataset, seen_frac: f64) -> f64 {
    if dataset.queries.is_empty() {
        return f64::NEG_INFINITY;
    }
    let idx = (((dataset.queries.len() as f64) * seen_frac) as usize)
        .saturating_sub(1)
        .min(dataset.queries.len() - 1);
    dataset.queries[idx].time
}

fn build_provider(dataset: &Dataset, mode: InputFeatures, cfg: &SplashConfig, seen_frac: f64) -> Provider {
    match mode {
        InputFeatures::Zero => {
            Provider::Constant { table: ConstantTable::Zero(cfg.feat_dim) }
        }
        InputFeatures::RawRandom => Provider::Constant {
            table: ConstantTable::Random { dv: cfg.feat_dim, seed: cfg.seed ^ 0x0BAD_F00D },
        },
        InputFeatures::External => match &dataset.node_feats {
            Some(f) => Provider::Constant { table: ConstantTable::External { feats: f.clone() } },
            None => Provider::Constant { table: ConstantTable::Zero(cfg.feat_dim) },
        },
        InputFeatures::Process(process) => {
            let aug = make_augmenter(dataset, cfg, seen_frac);
            Provider::Augmented { aug, process }
        }
        InputFeatures::Joint => {
            let aug = make_augmenter(dataset, cfg, seen_frac);
            Provider::Joint { aug }
        }
    }
}

fn make_augmenter(dataset: &Dataset, cfg: &SplashConfig, seen_frac: f64) -> Augmenter {
    let t_seen = seen_end_time(dataset, seen_frac);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    Augmenter::with_source(
        &dataset.stream,
        prefix,
        dataset.stream.num_nodes(),
        cfg.feat_dim,
        &cfg.node2vec,
        cfg.positional,
        cfg.degree_alpha,
        cfg.seed,
    )
}

/// Replays `dataset` chronologically and captures every query's model input
/// under feature mode `mode`. `seen_frac` is the fraction of queries whose
/// period defines `V_seen` (0.2 under the 10/10/80 protocol).
pub fn capture(dataset: &Dataset, mode: InputFeatures, cfg: &SplashConfig, seen_frac: f64) -> Capture {
    let mut provider = build_provider(dataset, mode, cfg, seen_frac);
    let t_seen = seen_end_time(dataset, seen_frac);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let feat_dim = provider.dim();
    let edge_feat_dim = dataset.stream.feat_dim();

    let mut rings = Rings::new(cfg.k);
    let mut captured = Vec::with_capacity(dataset.queries.len());

    // Augmented providers were already fed the training prefix by
    // `Augmenter::new`; feed constant providers nothing. Track which edges
    // still need `observe`.
    let events = replay(&dataset.stream, &dataset.queries);
    for event in events {
        match event {
            Event::Edge(idx, edge) => {
                let needs_observe = match &provider {
                    Provider::Constant { .. } => false,
                    _ => idx >= prefix,
                };
                if needs_observe {
                    provider.observe(edge);
                }
                // Snapshot post-edge features (degrees include this edge).
                let src_feat = provider.feat(edge.src);
                let slot = rings.push_slot(edge.src);
                slot.set_edge(edge.dst, edge);
                slot.feat = provider.feat(edge.dst);
                if edge.src != edge.dst {
                    let slot = rings.push_slot(edge.dst);
                    slot.set_edge(edge.src, edge);
                    slot.feat = src_feat;
                }
            }
            Event::Query(_, q) => {
                let (older, newer) = rings.oldest_first(q.node);
                captured.push(CapturedQuery {
                    node: q.node,
                    time: q.time,
                    target_feat: provider.feat(q.node),
                    neighbors: older.iter().chain(newer).cloned().collect(),
                    label: q.label.clone(),
                });
            }
        }
    }
    Capture { queries: captured, feat_dim, edge_feat_dim }
}

/// A *streaming* counterpart of [`capture`] for the constant feature modes
/// ([`InputFeatures::Zero`], [`InputFeatures::RawRandom`],
/// [`InputFeatures::External`]): edges arrive one batch at a time, and a
/// query's model input can be assembled at any instant — bit-identical to
/// what the offline [`capture`] pass would have produced for the same
/// `(node, time)` against the same edge order.
///
/// This is the state behind serving a *baseline* TGNN through the
/// [`crate::SplashService`] registry: the `baselines` crate wraps a
/// trained model plus one `CaptureStream` into an engine
/// ([`crate::service::ServeEngine`]), giving every Table III competitor
/// the same streamed, Eq. 14-snapshotted inputs SPLASH sees. Augmented
/// modes ([`InputFeatures::Process`], [`InputFeatures::Joint`]) need the
/// full [`crate::StreamingPredictor`] (their features evolve with the
/// stream) and are rejected with [`SplashError::NotStreamable`].
#[derive(Debug)]
pub struct CaptureStream {
    table: ConstantTable,
    rings: Rings,
    /// Initial node-universe size (rings may grow past it as unseen nodes
    /// stream in).
    initial_nodes: usize,
    edge_feat_dim: usize,
    last_time: f64,
}

impl CaptureStream {
    /// A stream over `dataset`'s node universe under constant feature mode
    /// `mode`, with **no edges observed yet**. Feed the training prefix
    /// with [`CaptureStream::try_push_edges`] to reach the state a
    /// deployment starts serving from.
    pub fn try_new(
        dataset: &Dataset,
        mode: InputFeatures,
        cfg: &SplashConfig,
    ) -> Result<Self, SplashError> {
        let table = match build_provider(dataset, mode, cfg, 0.0) {
            Provider::Constant { table } => table,
            Provider::Augmented { .. } | Provider::Joint { .. } => {
                return Err(SplashError::NotStreamable { mode: mode.name() })
            }
        };
        Ok(Self {
            table,
            rings: Rings::new(cfg.k),
            initial_nodes: dataset.stream.num_nodes(),
            edge_feat_dim: dataset.stream.feat_dim(),
            last_time: f64::NEG_INFINITY,
        })
    }

    /// Arrival time of the most recently observed edge
    /// (`f64::NEG_INFINITY` before the first).
    pub fn last_time(&self) -> f64 {
        self.last_time
    }

    /// Size of the known node universe (initial nodes plus any later ids
    /// the stream has touched).
    pub fn known_nodes(&self) -> usize {
        self.initial_nodes.max(self.rings.len())
    }

    /// Node feature dimension of the captured features.
    pub fn feat_dim(&self) -> usize {
        self.table.dim()
    }

    /// Edge feature dimension.
    pub fn edge_feat_dim(&self) -> usize {
        self.edge_feat_dim
    }

    /// Observes one edge, snapshotting both endpoints' features at its
    /// arrival (Eq. 14) into the endpoint rings. Rejects time travel with
    /// [`SplashError::OutOfOrderEdge`], leaving the state untouched.
    pub fn try_observe_edge(&mut self, edge: &TemporalEdge) -> Result<(), SplashError> {
        if edge.time < self.last_time {
            return Err(SplashError::OutOfOrderEdge { got: edge.time, last: self.last_time });
        }
        self.last_time = edge.time;
        let slot = self.rings.push_slot(edge.src);
        slot.set_edge(edge.dst, edge);
        slot.feat = self.table.feat(edge.dst);
        if edge.src != edge.dst {
            let slot = self.rings.push_slot(edge.dst);
            slot.set_edge(edge.src, edge);
            slot.feat = self.table.feat(edge.src);
        }
        Ok(())
    }

    /// Observes a chronological batch atomically: the whole batch is
    /// validated against the stream clock before any state changes, so a
    /// rejected batch leaves the stream exactly as it was.
    pub fn try_push_edges(&mut self, edges: &[TemporalEdge]) -> Result<(), SplashError> {
        let mut prev = self.last_time;
        for edge in edges {
            if edge.time < prev {
                return Err(SplashError::OutOfOrderEdge { got: edge.time, last: prev });
            }
            prev = edge.time;
        }
        for edge in edges {
            self.try_observe_edge(edge)?;
        }
        Ok(())
    }

    /// Assembles the model input for `node` at `time` into `q` (buffers
    /// reused across calls), exactly as the offline [`capture`] pass would
    /// have: current target feature, ring neighbors oldest-first, `label`
    /// attached. A query before the stream clock is
    /// [`SplashError::PastQuery`] — the rings it would need are gone.
    pub fn capture_into(
        &self,
        node: NodeId,
        time: f64,
        label: &Label,
        q: &mut CapturedQuery,
    ) -> Result<(), SplashError> {
        if time < self.last_time {
            return Err(SplashError::PastQuery { got: time, last: self.last_time });
        }
        q.node = node;
        q.time = time;
        q.target_feat.clear();
        q.target_feat.extend_from_slice(&self.table.feat(node));
        let (older, newer) = self.rings.oldest_first(node);
        q.neighbors.clear();
        q.neighbors.extend_from_slice(older);
        q.neighbors.extend_from_slice(newer);
        q.label = label.clone();
        Ok(())
    }
}

/// Fills one Eq. 7 encoding row: `[x_i(t) ‖ mean_{δ ∈ N_i(t)} x_j(t^{(l)})]`.
fn encoding_row(q: &CapturedQuery, dv: usize, row: &mut [f32]) {
    row[..dv].copy_from_slice(&q.target_feat);
    if !q.neighbors.is_empty() {
        for nb in &q.neighbors {
            for (j, &v) in nb.feat.iter().enumerate() {
                row[dv + j] += v;
            }
        }
        let inv = 1.0 / q.neighbors.len() as f32;
        for v in &mut row[dv..] {
            *v *= inv;
        }
    }
}

/// The node encoding of Eq. 7, one row per captured query. Zero mean part
/// when `N_i(t)` is empty. Rows are independent, so under the `parallel`
/// feature they are filled by scoped threads (identical output either way).
pub fn encodings(capture: &Capture) -> Matrix {
    let dv = capture.feat_dim;
    let width = 2 * dv;
    let mut out = Matrix::zeros(capture.queries.len(), width);

    #[cfg(feature = "parallel")]
    {
        // Row fills are cheap; only fan out when there is real work.
        // par_rows honors the shared num_threads()/NN_THREADS policy.
        if capture.queries.len() * width >= 1 << 16 {
            nn::backend::par_rows(&mut out, |rows, row0| {
                for (r, row) in rows.chunks_mut(width.max(1)).enumerate() {
                    encoding_row(&capture.queries[row0 + r], dv, row);
                }
            });
            return out;
        }
    }

    for (i, q) in capture.queries.iter().enumerate() {
        encoding_row(q, dv, out.row_mut(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctdg::{EdgeStream, PropertyQuery, TemporalEdge};
    use datasets::Task;

    fn tiny_dataset() -> Dataset {
        let edges = vec![
            TemporalEdge::plain(0, 1, 1.0),
            TemporalEdge::plain(1, 2, 2.0),
            TemporalEdge::plain(0, 2, 3.0),
            TemporalEdge::plain(3, 0, 10.0),
            TemporalEdge::plain(3, 1, 11.0),
        ];
        let queries = vec![
            PropertyQuery { node: 0, time: 1.5, label: Label::Class(0) },
            PropertyQuery { node: 1, time: 2.5, label: Label::Class(1) },
            PropertyQuery { node: 3, time: 10.5, label: Label::Class(0) },
            PropertyQuery { node: 3, time: 12.0, label: Label::Class(1) },
        ];
        Dataset {
            name: "tiny".into(),
            task: Task::Classification,
            stream: EdgeStream::new(edges).unwrap(),
            queries,
            num_classes: 2,
            node_feats: None,
        }
    }

    #[test]
    fn queries_see_only_past_edges() {
        let d = tiny_dataset();
        let cfg = SplashConfig::tiny();
        let cap = capture(&d, InputFeatures::RawRandom, &cfg, 0.5);
        // Query 0 at t=1.5: node 0 has one incident edge (t=1).
        assert_eq!(cap.queries[0].neighbors.len(), 1);
        assert_eq!(cap.queries[0].neighbors[0].other, 1);
        // Query 2 at t=10.5: node 3 has one incident edge (t=10).
        assert_eq!(cap.queries[2].neighbors.len(), 1);
        // Query 3 at t=12: node 3 has two.
        assert_eq!(cap.queries[3].neighbors.len(), 2);
    }

    #[test]
    fn k_bounds_neighbor_lists() {
        let d = tiny_dataset();
        let mut cfg = SplashConfig::tiny();
        cfg.k = 1;
        let cap = capture(&d, InputFeatures::Zero, &cfg, 0.5);
        assert!(cap.queries.iter().all(|q| q.neighbors.len() <= 1));
        // With k = 1, node 3's last query sees only the latest edge (t=11).
        assert_eq!(cap.queries[3].neighbors[0].time, 11.0);
    }

    #[test]
    fn raw_random_is_deterministic_and_distinct() {
        let d = tiny_dataset();
        let cfg = SplashConfig::tiny();
        let a = capture(&d, InputFeatures::RawRandom, &cfg, 0.5);
        let b = capture(&d, InputFeatures::RawRandom, &cfg, 0.5);
        assert_eq!(a.queries[0].target_feat, b.queries[0].target_feat);
        // Distinct nodes get distinct features.
        assert_ne!(a.queries[0].target_feat, a.queries[1].target_feat);
    }

    #[test]
    fn zero_mode_is_all_zero() {
        let d = tiny_dataset();
        let cfg = SplashConfig::tiny();
        let cap = capture(&d, InputFeatures::Zero, &cfg, 0.5);
        for q in &cap.queries {
            assert!(q.target_feat.iter().all(|&v| v == 0.0));
            for nb in &q.neighbors {
                assert!(nb.feat.iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn structural_snapshots_freeze_edge_time_degrees() {
        let d = tiny_dataset();
        let cfg = SplashConfig::tiny();
        let cap = capture(
            &d,
            InputFeatures::Process(FeatureProcess::Structural),
            &cfg,
            0.5,
        );
        // Node 3's second query: the first remembered edge snapshotted node
        // 0's structural feature at t=10, when node 0 had degree 3.
        let enc = nn::DegreeEncode::new(cfg.feat_dim, cfg.degree_alpha);
        let q3 = &cap.queries[3];
        assert_eq!(q3.neighbors[0].feat, enc.encode(3));
        // And the target feature reflects node 3's current degree (2).
        assert_eq!(q3.target_feat, enc.encode(2));
    }

    #[test]
    fn encodings_shape_and_mean() {
        let d = tiny_dataset();
        let cfg = SplashConfig::tiny();
        let cap = capture(&d, InputFeatures::RawRandom, &cfg, 0.5);
        let enc = encodings(&cap);
        assert_eq!(enc.shape(), (4, 2 * cfg.feat_dim));
        // Row 3: mean of two neighbor snapshots.
        let q = &cap.queries[3];
        for j in 0..cfg.feat_dim {
            let expected = (q.neighbors[0].feat[j] + q.neighbors[1].feat[j]) / 2.0;
            assert!((enc.get(3, cfg.feat_dim + j) - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn joint_dim_is_triple() {
        let d = tiny_dataset();
        let cfg = SplashConfig::tiny();
        let cap = capture(&d, InputFeatures::Joint, &cfg, 0.5);
        assert_eq!(cap.feat_dim, 3 * cfg.feat_dim);
        assert_eq!(cap.queries[0].target_feat.len(), 3 * cfg.feat_dim);
    }

    /// The streamed constant-mode capture must reproduce the offline pass
    /// bit for bit: same rings, same snapshot features, same ordering —
    /// this is the contract that lets a baseline served through the
    /// registry see exactly the inputs its offline harness saw.
    #[test]
    fn capture_stream_matches_offline_capture() {
        for mode in [InputFeatures::RawRandom, InputFeatures::Zero, InputFeatures::External] {
            let d = tiny_dataset();
            let mut cfg = SplashConfig::tiny();
            cfg.k = 2;
            let offline = capture(&d, mode, &cfg, 0.5);

            let mut stream = CaptureStream::try_new(&d, mode, &cfg).unwrap();
            let mut pending: Vec<TemporalEdge> = Vec::new();
            let mut q = CapturedQuery::default();
            let mut qi = 0usize;
            for event in replay(&d.stream, &d.queries) {
                match event {
                    Event::Edge(_, edge) => pending.push(edge.clone()),
                    Event::Query(_, query) => {
                        stream.try_push_edges(&pending).unwrap();
                        pending.clear();
                        stream
                            .capture_into(query.node, query.time, &query.label, &mut q)
                            .unwrap();
                        let want = &offline.queries[qi];
                        assert_eq!(q.target_feat, want.target_feat, "{mode:?} query {qi}");
                        assert_eq!(q.neighbors.len(), want.neighbors.len());
                        for (a, b) in q.neighbors.iter().zip(&want.neighbors) {
                            assert_eq!(a.other, b.other);
                            assert_eq!(a.feat, b.feat);
                            assert_eq!(a.edge_feat, b.edge_feat);
                            assert_eq!(a.time, b.time);
                            assert_eq!(a.weight, b.weight);
                        }
                        qi += 1;
                    }
                }
            }
            assert_eq!(qi, offline.queries.len());
        }
    }

    #[test]
    fn capture_stream_rejects_what_it_cannot_stream() {
        let d = tiny_dataset();
        let cfg = SplashConfig::tiny();
        let err = CaptureStream::try_new(&d, InputFeatures::Joint, &cfg).unwrap_err();
        assert!(matches!(err, SplashError::NotStreamable { .. }), "{err:?}");

        let mut s = CaptureStream::try_new(&d, InputFeatures::Zero, &cfg).unwrap();
        s.try_push_edges(d.stream.edges()).unwrap();
        let last = d.stream.end_time().unwrap();
        let err = s.try_observe_edge(&TemporalEdge::plain(0, 1, last - 1.0)).unwrap_err();
        assert!(matches!(err, SplashError::OutOfOrderEdge { .. }), "{err:?}");
        let mut q = CapturedQuery::default();
        let err = s.capture_into(0, last - 1.0, &Label::Class(0), &mut q).unwrap_err();
        assert!(matches!(err, SplashError::PastQuery { .. }), "{err:?}");
    }

    #[test]
    fn external_falls_back_to_zero() {
        let d = tiny_dataset();
        let cfg = SplashConfig::tiny();
        let cap = capture(&d, InputFeatures::External, &cfg, 0.5);
        assert!(cap.queries[0].target_feat.iter().all(|&v| v == 0.0));
    }
}
