//! Node feature augmentation for CTDGs (paper §IV-A).
//!
//! Three augmentation processes produce candidate node features:
//!
//! * **Random** (`R`): fixed Gaussian vectors for seen nodes — stable
//!   absolute positions in feature space;
//! * **Positional** (`P`): node2vec over the training-prefix snapshot
//!   (Eq. 1) — stable relative positions;
//! * **Structural** (`S`): sinusoidal encodings of the incrementally
//!   maintained node degree (Eqs. 2–3) — time-varying structural roles.
//!
//! Nodes unseen during training get structural features directly from their
//! degree; their random/positional features start at zero and are filled by
//! *feature propagation* (Eqs. 4–5): each new incident edge linearly
//! interpolates the neighbor's feature into the unseen node's feature, in
//! `O(d_v)` per edge.

use ctdg::{DegreeTracker, EdgeStream, GraphSnapshot, NodeId, TemporalEdge};
use embed::{grarep, node2vec, Node2VecConfig};
use nn::{randn_matrix, DegreeEncode, Matrix};
use rand::{rngs::StdRng, SeedableRng};

use crate::config::PositionalSource;

/// The three feature augmentation processes `X ∈ {R, P, S}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureProcess {
    /// Random Gaussian features (process `R`).
    Random,
    /// node2vec positional features (process `P`).
    Positional,
    /// Sinusoidal degree (structural) features (process `S`).
    Structural,
}

impl FeatureProcess {
    /// All processes, in the paper's order.
    pub const ALL: [FeatureProcess; 3] =
        [FeatureProcess::Random, FeatureProcess::Positional, FeatureProcess::Structural];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FeatureProcess::Random => "R",
            FeatureProcess::Positional => "P",
            FeatureProcess::Structural => "S",
        }
    }
}

/// Streaming feature-augmentation state: fixed features for seen nodes,
/// propagated features plus incremental degrees for everything else.
#[derive(Debug, Clone)]
pub struct Augmenter {
    dv: usize,
    /// Nodes that appeared during the training period (`V_seen`).
    seen: Vec<bool>,
    random_seen: Matrix,
    positional_seen: Matrix,
    /// Propagated features for unseen nodes, keyed by node id; `None` until
    /// first touched.
    random_prop: Vec<Option<Vec<f32>>>,
    positional_prop: Vec<Option<Vec<f32>>>,
    degrees: DegreeTracker,
    degree_enc: DegreeEncode,
    /// Reusable pre-update feature snapshots for [`Augmenter::observe`] so
    /// steady-state edge ingestion performs no heap allocation.
    scratch: ObserveScratch,
}

/// Scratch buffers holding the endpoints' pre-update features during one
/// [`Augmenter::observe`] call.
#[derive(Debug, Clone, Default)]
struct ObserveScratch {
    src_rand: Vec<f32>,
    src_pos: Vec<f32>,
    dst_rand: Vec<f32>,
    dst_pos: Vec<f32>,
}

impl Augmenter {
    /// Builds augmentation state from the training prefix (`prefix_len`
    /// edges) of `stream`, then replays those edges through the incremental
    /// path so degrees are current as of the end of the prefix.
    ///
    /// `num_nodes_hint` must cover every node id that can ever appear
    /// (seen or unseen).
    pub fn new(
        stream: &EdgeStream,
        prefix_len: usize,
        num_nodes_hint: usize,
        dv: usize,
        n2v: &Node2VecConfig,
        degree_alpha: f32,
        seed: u64,
    ) -> Self {
        Self::with_source(
            stream,
            prefix_len,
            num_nodes_hint,
            dv,
            n2v,
            PositionalSource::Node2Vec,
            degree_alpha,
            seed,
        )
    }

    /// [`Augmenter::new`] with an explicit positional `Embedding` function
    /// for Eq. 1 (node2vec or GraRep; see [`PositionalSource`]).
    #[allow(clippy::too_many_arguments)]
    pub fn with_source(
        stream: &EdgeStream,
        prefix_len: usize,
        num_nodes_hint: usize,
        dv: usize,
        n2v: &Node2VecConfig,
        positional: PositionalSource,
        degree_alpha: f32,
        seed: u64,
    ) -> Self {
        let n = num_nodes_hint.max(stream.num_nodes());
        let prefix_len = prefix_len.min(stream.len());
        let mut seen = vec![false; n];
        for e in &stream.edges()[..prefix_len] {
            seen[e.src as usize] = true;
            seen[e.dst as usize] = true;
        }

        // Process R: fixed Gaussian rows for every node slot; only seen
        // nodes' rows are ever served as "seen" features.
        let mut rng = StdRng::seed_from_u64(seed);
        let random_seen = randn_matrix(n, dv, 1.0, &mut rng);

        // Process P: the selected Embedding over the training snapshot
        // (Eq. 1); node2vec by default.
        let snapshot = GraphSnapshot::from_stream_prefix(stream, prefix_len);
        let emb = match positional {
            PositionalSource::Node2Vec => {
                let mut n2v_cfg = *n2v;
                n2v_cfg.sgns.dim = dv;
                node2vec(&snapshot, &n2v_cfg, seed ^ 0x5EED)
            }
            PositionalSource::GraRep(mut gr_cfg) => {
                gr_cfg.dim = dv;
                grarep(&snapshot, &gr_cfg, seed ^ 0x5EED)
            }
        };
        let mut positional_seen = Matrix::zeros(n, dv);
        for i in 0..emb.rows().min(n) {
            positional_seen.set_row(i, emb.row(i));
        }

        let mut aug = Self {
            dv,
            seen,
            random_seen,
            positional_seen,
            random_prop: vec![None; n],
            positional_prop: vec![None; n],
            degrees: DegreeTracker::new(n),
            degree_enc: DegreeEncode::new(dv, degree_alpha),
            scratch: ObserveScratch::default(),
        };
        for e in &stream.edges()[..prefix_len] {
            aug.observe(e);
        }
        aug
    }

    /// Feature dimension `d_v`.
    pub fn feat_dim(&self) -> usize {
        self.dv
    }

    /// Whether `node` was seen during the training period.
    pub fn is_seen(&self, node: NodeId) -> bool {
        self.seen.get(node as usize).copied().unwrap_or(false)
    }

    /// Number of node ids this augmenter has allocated state for: the
    /// training stream's node universe, grown by every ingested edge.
    /// Valid ids are `0..known_nodes()`; larger ids are still servable
    /// (they get zero/propagated features) but a strict caller can use
    /// this bound to reject them.
    pub fn known_nodes(&self) -> usize {
        self.seen.len()
    }

    /// Current degree of `node`.
    pub fn degree(&self, node: NodeId) -> u64 {
        self.degrees.degree(node)
    }

    fn grow(&mut self, node: NodeId) {
        let need = node as usize + 1;
        if self.seen.len() < need {
            self.seen.resize(need, false);
            self.random_prop.resize(need, None);
            self.positional_prop.resize(need, None);
            // Seen matrices stay fixed; out-of-range unseen nodes only use
            // the propagated tables.
        }
    }

    /// Ingests one temporal edge: updates degrees and propagates
    /// random/positional features into unseen endpoints (Eqs. 4–5).
    ///
    /// Must be called exactly once per edge, in chronological order,
    /// *including* the training-prefix edges (handled by [`Augmenter::new`]).
    pub fn observe(&mut self, edge: &TemporalEdge) {
        self.grow(edge.src.max(edge.dst));
        // Pre-update degrees and features (Eqs. 4–5 use t(n−1) values).
        // Feature snapshots land in the reusable scratch (taken out of
        // `self` for the duration so `feature_into` can borrow `&self`),
        // and only the snapshots a propagation will read are computed.
        let deg_src = self.degrees.degree(edge.src);
        let deg_dst = self.degrees.degree(edge.dst);
        let src_unseen = !self.is_seen(edge.src);
        let dst_unseen = !self.is_seen(edge.dst) && edge.src != edge.dst;
        let mut s = std::mem::take(&mut self.scratch);
        if src_unseen {
            self.feature_into(FeatureProcess::Random, edge.dst, &mut s.dst_rand);
            self.feature_into(FeatureProcess::Positional, edge.dst, &mut s.dst_pos);
        }
        if dst_unseen {
            self.feature_into(FeatureProcess::Random, edge.src, &mut s.src_rand);
            self.feature_into(FeatureProcess::Positional, edge.src, &mut s.src_pos);
        }
        if src_unseen {
            propagate(&mut self.random_prop[edge.src as usize], deg_src, &s.dst_rand);
            propagate(&mut self.positional_prop[edge.src as usize], deg_src, &s.dst_pos);
        }
        if dst_unseen {
            propagate(&mut self.random_prop[edge.dst as usize], deg_dst, &s.src_rand);
            propagate(&mut self.positional_prop[edge.dst as usize], deg_dst, &s.src_pos);
        }
        self.scratch = s;
        self.degrees.update(edge);
    }

    /// The current feature `x_i(t) = X(v_i(t))` of `node` under `process`.
    pub fn feature(&self, process: FeatureProcess, node: NodeId) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dv);
        self.feature_into(process, node, &mut out);
        out
    }

    /// [`Augmenter::feature`] into a caller-owned vector: `out` is cleared
    /// and refilled, reusing its allocation. The streaming hot paths call
    /// this per edge/query, so after warm-up it performs no heap
    /// allocation.
    pub fn feature_into(&self, process: FeatureProcess, node: NodeId, out: &mut Vec<f32>) {
        out.clear();
        let idx = node as usize;
        let fixed_or_propagated =
            |seen: &Matrix, prop: &[Option<Vec<f32>>], out: &mut Vec<f32>| {
                if self.is_seen(node) {
                    out.extend_from_slice(seen.row(idx));
                } else {
                    match prop.get(idx).and_then(|o| o.as_deref()) {
                        Some(f) => out.extend_from_slice(f),
                        None => out.resize(self.dv, 0.0),
                    }
                }
            };
        match process {
            FeatureProcess::Random => {
                fixed_or_propagated(&self.random_seen, &self.random_prop, out)
            }
            FeatureProcess::Positional => {
                fixed_or_propagated(&self.positional_seen, &self.positional_prop, out)
            }
            FeatureProcess::Structural => {
                out.resize(self.dv, 0.0);
                self.degree_enc.encode_into(self.degrees.degree(node), out);
            }
        }
    }

    /// Clones every field a durable checkpoint must persist. Scratch buffers
    /// and the degree encoder are excluded: both are rebuilt from the config
    /// on restore ([`Augmenter::from_durable_state`]).
    pub(crate) fn durable_state(&self) -> AugmenterState {
        AugmenterState {
            dv: self.dv,
            seen: self.seen.clone(),
            random_seen: self.random_seen.clone(),
            positional_seen: self.positional_seen.clone(),
            random_prop: self.random_prop.clone(),
            positional_prop: self.positional_prop.clone(),
            degrees: self.degrees.degrees_raw().to_vec(),
            degrees_total: self.degrees.total(),
        }
    }

    /// Rebuilds an augmenter from a captured [`AugmenterState`], bypassing
    /// the embedding build and prefix replay of [`Augmenter::with_source`]
    /// entirely — this is what makes loading an artifact or a checkpoint
    /// O(state) instead of O(stream).
    pub(crate) fn from_durable_state(state: AugmenterState, degree_alpha: f32) -> Self {
        Self {
            dv: state.dv,
            seen: state.seen,
            random_seen: state.random_seen,
            positional_seen: state.positional_seen,
            random_prop: state.random_prop,
            positional_prop: state.positional_prop,
            degrees: DegreeTracker::from_raw(state.degrees, state.degrees_total),
            degree_enc: DegreeEncode::new(state.dv, degree_alpha),
            scratch: ObserveScratch::default(),
        }
    }

    /// Concatenated `[R || P || S]` feature (the SLIM+Joint ablation input).
    pub fn joint_feature(&self, node: NodeId) -> Vec<f32> {
        let mut out = self.feature(FeatureProcess::Random, node);
        out.extend(self.feature(FeatureProcess::Positional, node));
        out.extend(self.feature(FeatureProcess::Structural, node));
        out
    }
}

/// Owned snapshot of an [`Augmenter`]'s persistent state, produced by
/// [`Augmenter::durable_state`] and consumed by
/// [`Augmenter::from_durable_state`]. The degree encoder and observe
/// scratch are derived state and deliberately absent.
#[derive(Debug, Clone)]
pub(crate) struct AugmenterState {
    /// Feature dimension `d_v`.
    pub dv: usize,
    /// Training-period visibility flags (`V_seen`), grown by ingestion.
    pub seen: Vec<bool>,
    /// Fixed Gaussian features for seen nodes (process `R`).
    pub random_seen: Matrix,
    /// Positional embedding rows for seen nodes (process `P`, Eq. 1).
    pub positional_seen: Matrix,
    /// Propagated random features for unseen nodes (Eqs. 4–5).
    pub random_prop: Vec<Option<Vec<f32>>>,
    /// Propagated positional features for unseen nodes (Eqs. 4–5).
    pub positional_prop: Vec<Option<Vec<f32>>>,
    /// Raw per-node degree counts (Eq. 2).
    pub degrees: Vec<u64>,
    /// Sum of all degrees (2 × ingested edges).
    pub degrees_total: u64,
}

/// Eq. 4/5: `x_i ← (deg_i · x_i + x_j) / (deg_i + 1)` with zero
/// initialization on first touch.
fn propagate(slot: &mut Option<Vec<f32>>, degree: u64, neighbor_feat: &[f32]) {
    match slot {
        None => {
            // x_i(t^(n-1)) = 0 ⇒ update reduces to x_j / (deg + 1).
            let denom = (degree + 1) as f32;
            *slot = Some(neighbor_feat.iter().map(|&v| v / denom).collect());
        }
        Some(cur) => {
            let d = degree as f32;
            let denom = d + 1.0;
            for (c, &nf) in cur.iter_mut().zip(neighbor_feat) {
                *c = (d * *c + nf) / denom;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctdg::TemporalEdge;
    use embed::Node2VecConfig;

    fn make_stream() -> EdgeStream {
        // Seen period: nodes 0..4 interact; later node 10 (unseen) arrives.
        EdgeStream::new(vec![
            TemporalEdge::plain(0, 1, 1.0),
            TemporalEdge::plain(1, 2, 2.0),
            TemporalEdge::plain(2, 3, 3.0),
            TemporalEdge::plain(0, 3, 4.0),
            TemporalEdge::plain(10, 0, 10.0),
            TemporalEdge::plain(10, 1, 11.0),
        ])
        .unwrap()
    }

    fn augmenter(prefix: usize) -> Augmenter {
        let stream = make_stream();
        Augmenter::new(&stream, prefix, 12, 8, &Node2VecConfig::fast(8), 50.0, 3)
    }

    #[test]
    fn seen_random_features_are_fixed() {
        let stream = make_stream();
        let mut aug = augmenter(4);
        let before = aug.feature(FeatureProcess::Random, 0);
        aug.observe(&stream.edges()[4]);
        aug.observe(&stream.edges()[5]);
        assert_eq!(aug.feature(FeatureProcess::Random, 0), before);
    }

    #[test]
    fn structural_features_track_degree() {
        let stream = make_stream();
        let mut aug = augmenter(4);
        // Node 10 has degree 0 → encoding of 0.
        let enc = DegreeEncode::new(8, 50.0);
        assert_eq!(aug.feature(FeatureProcess::Structural, 10), enc.encode(0));
        aug.observe(&stream.edges()[4]);
        assert_eq!(aug.feature(FeatureProcess::Structural, 10), enc.encode(1));
        aug.observe(&stream.edges()[5]);
        assert_eq!(aug.feature(FeatureProcess::Structural, 10), enc.encode(2));
    }

    #[test]
    fn propagation_matches_example_9() {
        // Reproduces the paper's worked Example 9 exactly.
        let stream = EdgeStream::new(vec![
            TemporalEdge::plain(1, 2, 1.0), // training edge making 1, 2 seen
            TemporalEdge::plain(11, 1, 10.0),
            TemporalEdge::plain(11, 2, 11.0),
        ])
        .unwrap();
        let mut aug = Augmenter::new(&stream, 1, 12, 2, &Node2VecConfig::fast(2), 50.0, 0);
        // Overwrite seen features with the example's values.
        aug.random_seen.set_row(1, &[0.1, -0.2]);
        aug.random_seen.set_row(2, &[0.1, 0.3]);
        assert_eq!(aug.feature(FeatureProcess::Random, 11), vec![0.0, 0.0]);
        aug.observe(&stream.edges()[1]);
        let r = aug.feature(FeatureProcess::Random, 11);
        assert!((r[0] - 0.1).abs() < 1e-6 && (r[1] + 0.2).abs() < 1e-6, "{r:?}");
        aug.observe(&stream.edges()[2]);
        let r = aug.feature(FeatureProcess::Random, 11);
        assert!((r[0] - 0.1).abs() < 1e-6 && (r[1] - 0.05).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn unseen_features_live_in_seen_feature_space() {
        let stream = make_stream();
        let mut aug = augmenter(4);
        for e in &stream.edges()[4..] {
            aug.observe(e);
        }
        // Node 10's propagated random feature is the average of nodes 0 and 1.
        let r10 = aug.feature(FeatureProcess::Random, 10);
        let r0 = aug.feature(FeatureProcess::Random, 0);
        let r1 = aug.feature(FeatureProcess::Random, 1);
        for i in 0..8 {
            assert!((r10[i] - (r0[i] + r1[i]) / 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn positional_features_cover_seen_nodes() {
        let aug = augmenter(4);
        for v in [0u32, 1, 2, 3] {
            let p = aug.feature(FeatureProcess::Positional, v);
            assert!(p.iter().any(|&x| x != 0.0), "node {v} positional feature is zero");
        }
    }

    #[test]
    fn joint_concatenates_all_processes() {
        let aug = augmenter(4);
        let j = aug.joint_feature(1);
        assert_eq!(j.len(), 24);
        assert_eq!(&j[..8], aug.feature(FeatureProcess::Random, 1).as_slice());
        assert_eq!(&j[8..16], aug.feature(FeatureProcess::Positional, 1).as_slice());
        assert_eq!(&j[16..], aug.feature(FeatureProcess::Structural, 1).as_slice());
    }

    #[test]
    fn grarep_source_swaps_the_positional_embedding_only() {
        let stream = make_stream();
        let n2v = Node2VecConfig::fast(8);
        let gr = crate::PositionalSource::GraRep(embed::GraRepConfig {
            dim: 8,
            transition_steps: 2,
            svd_iters: 3,
        });
        let a = Augmenter::with_source(&stream, 4, 12, 8, &n2v, gr, 50.0, 3);
        let b = augmenter(4); // node2vec source, same seed
        // Positional features differ (different embedding function)…
        assert_ne!(
            a.feature(FeatureProcess::Positional, 0),
            b.feature(FeatureProcess::Positional, 0)
        );
        // …while random and structural features are identical.
        for v in [0u32, 1, 2, 3] {
            assert_eq!(
                a.feature(FeatureProcess::Random, v),
                b.feature(FeatureProcess::Random, v)
            );
            assert_eq!(
                a.feature(FeatureProcess::Structural, v),
                b.feature(FeatureProcess::Structural, v)
            );
        }
        // GraRep positional features are live for the connected seen nodes.
        assert!(a
            .feature(FeatureProcess::Positional, 1)
            .iter()
            .any(|&x| x != 0.0));
    }

    #[test]
    fn durable_state_round_trips_bit_identically() {
        let stream = make_stream();
        let mut aug = augmenter(4);
        for e in &stream.edges()[4..] {
            aug.observe(e);
        }
        let restored = Augmenter::from_durable_state(aug.durable_state(), 50.0);
        for v in 0..12u32 {
            for p in FeatureProcess::ALL {
                assert_eq!(aug.feature(p, v), restored.feature(p, v), "node {v} {}", p.name());
            }
        }
        assert_eq!(aug.known_nodes(), restored.known_nodes());
        assert_eq!(aug.degree(10), restored.degree(10));
    }

    #[test]
    fn never_touched_unseen_node_is_zero() {
        let aug = augmenter(4);
        assert_eq!(aug.feature(FeatureProcess::Random, 11), vec![0.0; 8]);
        assert_eq!(aug.feature(FeatureProcess::Positional, 11), vec![0.0; 8]);
    }
}
