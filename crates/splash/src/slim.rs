//! SLIM — Simple MLP-based model with Integration of Messages (paper §IV-C).
//!
//! SLIM computes a node's dynamic representation from its `k` most recent
//! incident edges with nothing but MLPs:
//!
//! * message encoding (Eqs. 14–16): each recent edge yields a raw message
//!   `[x*_j(t^{(l)}) ‖ x_ij ‖ φ_t(t − t^{(l)})]`, passed through `MLP₁` and
//!   scaled by the edge weight;
//! * aggregation (Eqs. 17–18): the mean message is concatenated with the
//!   target's own feature and passed through `MLP₂`; LayerNorm plus a
//!   weighted skip connection over the message *sum* gives the final
//!   representation;
//! * prediction (Eq. 19): an MLP decoder maps the representation to the
//!   predicted property.

use nn::{
    FixedTimeEncode, LayerNorm, LayerNormCache, Matrix, Mlp, MlpCache, Param, Parameterized,
    Workspace,
};
use rand::Rng;

/// A checkpoint of the Adam optimizer driving a [`SlimModel`]: the step
/// count and, per parameter (in [`Parameterized::params_mut`] order), the
/// first/second moment estimates.
///
/// Carrying this across a save/load makes resume-after-restart
/// **bit-identical** to never restarting: the restored optimizer continues
/// the exact bias-correction schedule and moment trajectories of the saved
/// one (pinned by the resume-equivalence tests in
/// `crates/splash/tests/online.rs`).
#[derive(Debug, Clone)]
pub struct AdamState {
    /// Optimizer steps taken so far (Adam's bias-correction clock `t`).
    pub steps: u64,
    /// `(m, v)` moment matrices, one pair per parameter, in the model's
    /// stable parameter order.
    pub moments: Vec<(Matrix, Matrix)>,
}

use crate::capture::CapturedQuery;
use crate::config::SplashConfig;

/// The SLIM model.
#[derive(Debug, Clone)]
pub struct SlimModel {
    mlp1: Mlp,
    mlp2: Mlp,
    ln1: LayerNorm,
    ln2: LayerNorm,
    decoder: Mlp,
    time_enc: FixedTimeEncode,
    lambda_s: f32,
    k: usize,
    feat_dim: usize,
    edge_feat_dim: usize,
}

/// A packed minibatch of captured queries.
///
/// `Default` yields an empty batch meant to be (re)filled with
/// [`SlimModel::build_batch_into`], reusing its buffers across steps.
#[derive(Debug, Clone, Default)]
pub struct SlimBatch {
    /// Raw messages `(B·k, d_v + d_e + d_t)`; zero rows pad short lists.
    raw: Matrix,
    /// Per-row edge weights (0 for padding).
    weights: Vec<f32>,
    /// Valid message count per query.
    lens: Vec<usize>,
    /// Target features `(B, d_v)`.
    target: Matrix,
}

/// Backward cache for one SLIM forward.
///
/// `Default` yields an empty cache that [`SlimModel::forward_into`] sizes
/// and reuses — carry one across training steps.
#[derive(Debug, Default)]
pub struct SlimCache {
    mlp1: MlpCache,
    mlp2: MlpCache,
    ln1: LayerNormCache,
    ln2: LayerNormCache,
    decoder: MlpCache,
    weights: Vec<f32>,
    lens: Vec<usize>,
}

impl SlimModel {
    /// Builds SLIM for inputs of node-feature width `feat_dim`, edge-feature
    /// width `edge_feat_dim`, and output width `out_dim`.
    pub fn new<R: Rng + ?Sized>(
        cfg: &SplashConfig,
        feat_dim: usize,
        edge_feat_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let dh = cfg.hidden;
        let raw_dim = feat_dim + edge_feat_dim + cfg.time_dim;
        Self {
            mlp1: Mlp::new(&[raw_dim, dh, dh], nn::Activation::Relu, rng),
            mlp2: Mlp::new(&[feat_dim + dh, dh, dh], nn::Activation::Relu, rng),
            ln1: LayerNorm::new(dh),
            ln2: LayerNorm::new(dh),
            decoder: Mlp::new(&[dh, dh, out_dim], nn::Activation::Relu, rng),
            time_enc: FixedTimeEncode::new(cfg.time_dim, cfg.time_alpha, cfg.time_beta),
            lambda_s: cfg.lambda_s,
            k: cfg.k,
            feat_dim,
            edge_feat_dim,
        }
    }

    /// Recent-edge capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output (logit) width: one column per class / affinity candidate.
    pub fn out_dim(&self) -> usize {
        self.decoder.out_dim()
    }

    /// Packs captured queries into a dense batch.
    pub fn build_batch(&self, queries: &[&CapturedQuery]) -> SlimBatch {
        let mut batch = SlimBatch::default();
        self.build_batch_into(queries, &mut batch);
        batch
    }

    /// [`SlimModel::build_batch`] into a reusable batch: every buffer is
    /// resized in place, so repacking with a steady batch size performs no
    /// heap allocation after the first call.
    ///
    /// Generic over [`std::borrow::Borrow`] so callers can pass either a
    /// slice of references (`&[&CapturedQuery]`, the training loop's shape)
    /// or a plain slice of owned queries (`&[CapturedQuery]`, the
    /// zero-allocation streaming paths — no per-call reference vector).
    pub fn build_batch_into<Q: std::borrow::Borrow<CapturedQuery>>(
        &self,
        queries: &[Q],
        batch: &mut SlimBatch,
    ) {
        let b = queries.len();
        let raw_dim = self.feat_dim + self.edge_feat_dim + self.time_enc.dim();
        batch.raw.resize_zeroed(b * self.k, raw_dim);
        batch.weights.clear();
        batch.weights.resize(b * self.k, 0.0);
        batch.lens.clear();
        batch.lens.resize(b, 0);
        batch.target.resize_zeroed(b, self.feat_dim);
        for (qi, q) in queries.iter().enumerate() {
            let q = q.borrow();
            batch.target.set_row(qi, &q.target_feat);
            let len = q.neighbors.len().min(self.k);
            batch.lens[qi] = len;
            // Use the most recent `len` entries (they are oldest-first).
            let skip = q.neighbors.len() - len;
            for (slot, nb) in q.neighbors[skip..].iter().enumerate() {
                let row = batch.raw.row_mut(qi * self.k + slot);
                row[..self.feat_dim].copy_from_slice(&nb.feat);
                row[self.feat_dim..self.feat_dim + self.edge_feat_dim]
                    .copy_from_slice(&nb.edge_feat);
                self.time_enc.encode_into(
                    q.time - nb.time,
                    &mut row[self.feat_dim + self.edge_feat_dim..],
                );
                batch.weights[qi * self.k + slot] = nb.weight;
            }
        }
    }

    /// Sums the (weighted) messages of each query into `sum` (pre-sized
    /// `(B, d_h)` and zeroed), in slot order.
    fn sum_messages(&self, m: &Matrix, lens: &[usize], sum: &mut Matrix) {
        for (qi, &len) in lens.iter().enumerate() {
            for slot in 0..len {
                let src = m.row(qi * self.k + slot);
                let s = sum.row_mut(qi);
                for (o, &v) in s.iter_mut().zip(src) {
                    *o += v;
                }
            }
        }
    }

    /// Writes each query's mean message `sum / len` into `mean` (pre-sized
    /// `(B, d_h)` and zeroed; rows of message-less queries stay zero).
    fn mean_messages(lens: &[usize], sum: &Matrix, mean: &mut Matrix) {
        for (qi, &len) in lens.iter().enumerate() {
            if len > 0 {
                let inv = 1.0 / len as f32;
                for (o, &v) in mean.row_mut(qi).iter_mut().zip(sum.row(qi)) {
                    *o = v * inv;
                }
            }
        }
    }

    /// Fills `concat` (pre-sized `(B, d_v + d_h)`) with `[target ‖ mean]`.
    fn fill_concat(&self, target: &Matrix, mean: &Matrix, concat: &mut Matrix) {
        let dv = self.feat_dim;
        for qi in 0..target.rows() {
            let row = concat.row_mut(qi);
            row[..dv].copy_from_slice(target.row(qi));
            row[dv..].copy_from_slice(mean.row(qi));
        }
    }

    /// Forward pass producing `(logits, representation, cache)`.
    pub fn forward(&self, batch: &SlimBatch) -> (Matrix, Matrix, SlimCache) {
        let mut cache = SlimCache::default();
        let mut logits = Matrix::default();
        let mut h = Matrix::default();
        self.forward_into(batch, &mut logits, &mut h, &mut cache, &mut Workspace::new());
        (logits, h, cache)
    }

    /// [`SlimModel::forward`] into caller-owned `logits`/`h` buffers with a
    /// reusable cache, drawing intermediates from `ws`. Allocation-free
    /// once the buffers have warmed up to the batch shape; bit-identical to
    /// [`SlimModel::forward`].
    pub fn forward_into(
        &self,
        batch: &SlimBatch,
        logits: &mut Matrix,
        h: &mut Matrix,
        cache: &mut SlimCache,
        ws: &mut Workspace,
    ) {
        let b = batch.lens.len();
        let dh = self.ln1.dim();
        let mut m = ws.take(0, 0);
        self.mlp1.forward_into(&batch.raw, &mut m, &mut cache.mlp1, ws);
        m.scale_rows_assign(&batch.weights);
        let mut sum = ws.take(b, dh);
        self.sum_messages(&m, &batch.lens, &mut sum);
        let mut mean = ws.take(b, dh);
        Self::mean_messages(&batch.lens, &sum, &mut mean);
        let mut concat = ws.take(b, self.feat_dim + dh);
        self.fill_concat(&batch.target, &mean, &mut concat);
        let mut h_tilde = ws.take(0, 0);
        self.mlp2.forward_into(&concat, &mut h_tilde, &mut cache.mlp2, ws);
        let mut n1 = ws.take(0, 0);
        self.ln1.forward_into(&h_tilde, &mut n1, &mut cache.ln1);
        let mut n2 = ws.take(0, 0);
        self.ln2.forward_into(&sum, &mut n2, &mut cache.ln2);
        // h = LN1(h̃) + λ_s · LN2(sum), fused in place (same mul-then-add
        // per element as the allocating `n1.add(&n2.scale(λ_s))`).
        h.copy_from(&n1);
        h.axpy(self.lambda_s, &n2);
        self.decoder.forward_into(h, logits, &mut cache.decoder, ws);
        cache.weights.clone_from(&batch.weights);
        cache.lens.clone_from(&batch.lens);
        ws.give(m);
        ws.give(mean);
        ws.give(sum);
        ws.give(concat);
        ws.give(h_tilde);
        ws.give(n1);
        ws.give(n2);
    }

    /// Cache-free representation `h_i(t)` (Eq. 18) into `h` — the shared
    /// trunk of the inference paths. The message sum (Eqs. 14–17) runs
    /// MLP₁ over the valid message rows only, fused with the edge-weight
    /// scaling and the per-query sum ([`Mlp::infer_weighted_sum_into`]);
    /// MLP₂ here and the decoder in [`SlimModel::infer_into`] run the same
    /// fused kernel with a store epilogue ([`Mlp::infer_into`]). The
    /// training forward keeps the unfused sequence its backward needs.
    fn represent_core(&self, batch: &SlimBatch, h: &mut Matrix, ws: &mut Workspace) {
        let b = batch.lens.len();
        let dh = self.ln1.dim();
        let mut sum = ws.take(b, dh);
        self.mlp1.infer_weighted_sum_into(
            &batch.raw,
            &batch.weights,
            &batch.lens,
            self.k,
            &mut sum,
            ws,
        );
        let mut mean = ws.take(b, dh);
        Self::mean_messages(&batch.lens, &sum, &mut mean);
        let mut concat = ws.take(b, self.feat_dim + dh);
        self.fill_concat(&batch.target, &mean, &mut concat);
        let mut h_tilde = ws.take(0, 0);
        self.mlp2.infer_into(&concat, &mut h_tilde, ws);
        let mut n2 = ws.take(0, 0);
        self.ln1.infer_into(&h_tilde, h);
        self.ln2.infer_into(&sum, &mut n2);
        h.axpy(self.lambda_s, &n2);
        ws.give(mean);
        ws.give(sum);
        ws.give(concat);
        ws.give(h_tilde);
        ws.give(n2);
    }

    /// Inference-only logits.
    pub fn infer(&self, batch: &SlimBatch) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(batch, &mut out, &mut Workspace::new());
        out
    }

    /// [`SlimModel::infer`] into a caller-owned buffer, drawing every
    /// intermediate from `ws`: the streaming predictor's steady-state path,
    /// which performs zero heap allocations once warmed up. Bit-identical
    /// to `forward(batch).0`.
    pub fn infer_into(&self, batch: &SlimBatch, out: &mut Matrix, ws: &mut Workspace) {
        let mut h = ws.take(0, 0);
        self.represent_core(batch, &mut h, ws);
        self.decoder.infer_into(&h, out, ws);
        ws.give(h);
    }

    /// Inference-only representation `h_i(t)` (Eq. 18), for qualitative
    /// analysis (paper Fig. 14).
    pub fn represent(&self, batch: &SlimBatch) -> Matrix {
        let mut h = Matrix::default();
        self.represent_core(batch, &mut h, &mut Workspace::new());
        h
    }

    /// [`SlimModel::represent`] into a caller-owned buffer, drawing every
    /// intermediate from `ws` (allocation-free after warm-up).
    pub fn represent_into(&self, batch: &SlimBatch, h: &mut Matrix, ws: &mut Workspace) {
        self.represent_core(batch, h, ws);
    }

    /// Backward pass from `dlogits`; accumulates all parameter gradients.
    pub fn backward(&mut self, cache: &SlimCache, dlogits: &Matrix) {
        self.backward_ws(cache, dlogits, &mut Workspace::new());
    }

    /// [`SlimModel::backward`] drawing every gradient temporary from `ws`
    /// (allocation-free after warm-up, bit-identical gradients).
    pub fn backward_ws(&mut self, cache: &SlimCache, dlogits: &Matrix, ws: &mut Workspace) {
        let b = cache.lens.len();
        let dh_width = self.ln1.dim();
        let mut dh = ws.take(0, 0);
        self.decoder.backward_into(&cache.decoder, dlogits, &mut dh, ws);
        // h = LN1(h̃) + λ_s · LN2(sum)
        let mut dh_tilde = ws.take(0, 0);
        self.ln1.backward_into(&cache.ln1, &dh, &mut dh_tilde);
        let mut dh_scaled = ws.take(0, 0);
        dh_scaled.copy_from(&dh);
        dh_scaled.scale_assign(self.lambda_s);
        let mut dsum = ws.take(0, 0);
        self.ln2.backward_into(&cache.ln2, &dh_scaled, &mut dsum);
        // h̃ = MLP2([target ‖ mean])
        let mut dconcat = ws.take(0, 0);
        self.mlp2.backward_into(&cache.mlp2, &dh_tilde, &mut dconcat, ws);
        // mean/sum → per-message gradients; the mean block of `dconcat` is
        // read in place instead of sliced into a copy.
        let mut dm = ws.take(b * self.k, dh_width);
        for qi in 0..b {
            let len = cache.lens[qi];
            if len == 0 {
                continue;
            }
            let inv = 1.0 / len as f32;
            for slot in 0..len {
                let row = dm.row_mut(qi * self.k + slot);
                let dmean_row = &dconcat.row(qi)[self.feat_dim..self.feat_dim + dh_width];
                let dsum_row = dsum.row(qi);
                for j in 0..dh_width {
                    row[j] = dmean_row[j] * inv + dsum_row[j];
                }
            }
        }
        // m = MLP1(raw) ⊙ w
        dm.scale_rows_assign(&cache.weights);
        let mut dx_sink = ws.take(0, 0);
        self.mlp1.backward_into(&cache.mlp1, &dm, &mut dx_sink, ws);
        ws.give(dh);
        ws.give(dh_tilde);
        ws.give(dh_scaled);
        ws.give(dsum);
        ws.give(dconcat);
        ws.give(dm);
        ws.give(dx_sink);
    }
}

impl SlimModel {
    /// Overwrites this model's parameter *values* with `other`'s (same
    /// architecture required; gradients and optimizer moments untouched),
    /// reusing every existing buffer — the allocation-free weight-publish
    /// primitive behind [`crate::service::SplashService::publish`].
    pub fn copy_weights_from(&mut self, other: &SlimModel) {
        self.mlp1.copy_weights_from(&other.mlp1);
        self.mlp2.copy_weights_from(&other.mlp2);
        self.ln1.copy_weights_from(&other.ln1);
        self.ln2.copy_weights_from(&other.ln2);
        self.decoder.copy_weights_from(&other.decoder);
    }

    /// Snapshots the Adam moments attached to this model's parameters as an
    /// [`AdamState`] at optimizer step `steps` (checkpoint side; `&mut`
    /// only because parameter access goes through
    /// [`Parameterized::params_mut`]).
    pub fn extract_adam_state(&mut self, steps: u64) -> AdamState {
        let moments = self
            .params_mut()
            .into_iter()
            .map(|p| {
                let (m, v) = p.adam_state();
                (m.clone(), v.clone())
            })
            .collect();
        AdamState { steps, moments }
    }

    /// Restores checkpointed Adam moments into this model's parameters
    /// (resume side). Panics on a parameter-count or shape mismatch — the
    /// persistence layer validates states against the architecture before
    /// they get here.
    pub fn restore_adam_state(&mut self, state: &AdamState) {
        let params = self.params_mut();
        assert_eq!(
            params.len(),
            state.moments.len(),
            "optimizer state does not match the architecture"
        );
        for (p, (m, v)) in params.into_iter().zip(&state.moments) {
            assert_eq!(p.value.shape(), m.shape(), "moment shape mismatch");
            assert_eq!(p.value.shape(), v.shape(), "moment shape mismatch");
            let (pm, pv) = p.adam_state_mut();
            pm.copy_from(m);
            pv.copy_from(v);
        }
    }
}

impl Parameterized for SlimModel {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.mlp1.params_mut();
        out.extend(self.mlp2.params_mut());
        out.extend(self.ln1.params_mut());
        out.extend(self.ln2.params_mut());
        out.extend(self.decoder.params_mut());
        out
    }

    fn num_params(&self) -> usize {
        self.mlp1.num_params()
            + self.mlp2.num_params()
            + self.ln1.num_params()
            + self.ln2.num_params()
            + self.decoder.num_params()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Same stable order as `params_mut` (the visitor-based Adam step
        // and the checkpoint layout both depend on it).
        self.mlp1.visit_params(f);
        self.mlp2.visit_params(f);
        self.ln1.visit_params(f);
        self.ln2.visit_params(f);
        self.decoder.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CapturedNeighbor;
    use ctdg::Label;
    use nn::{softmax_cross_entropy, Adam};
    use rand::{rngs::StdRng, SeedableRng};

    fn query(feat: Vec<f32>, neighbors: Vec<CapturedNeighbor>) -> CapturedQuery {
        CapturedQuery { node: 0, time: 100.0, target_feat: feat, neighbors, label: Label::Class(0) }
    }

    fn neighbor(feat: Vec<f32>, t: f64, w: f32) -> CapturedNeighbor {
        CapturedNeighbor { other: 1, feat, edge_feat: vec![], time: t, weight: w }
    }

    fn tiny_model(seed: u64) -> SlimModel {
        let mut cfg = SplashConfig::tiny();
        cfg.k = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        SlimModel::new(&cfg, 4, 0, 2, &mut rng)
    }

    #[test]
    fn shapes() {
        let model = tiny_model(0);
        let q1 = query(vec![1.0, 0.0, 0.0, 0.0], vec![neighbor(vec![0.5; 4], 90.0, 1.0)]);
        let q2 = query(vec![0.0; 4], vec![]);
        let batch = model.build_batch(&[&q1, &q2]);
        let (logits, h, _) = model.forward(&batch);
        assert_eq!(logits.shape(), (2, 2));
        assert_eq!(h.shape(), (2, 16));
    }

    #[test]
    fn truncates_to_k_most_recent() {
        let model = tiny_model(1);
        let neighbors: Vec<CapturedNeighbor> =
            (0..5).map(|i| neighbor(vec![i as f32; 4], i as f64, 1.0)).collect();
        let q = query(vec![0.0; 4], neighbors);
        let batch = model.build_batch(&[&q]);
        assert_eq!(batch.lens[0], 3);
        // First used neighbor is the one at t=2 (the 3 most recent of 5).
        assert_eq!(batch.raw.get(0, 0), 2.0);
    }

    #[test]
    fn zero_weight_messages_do_not_contribute() {
        let model = tiny_model(2);
        let q_with = query(vec![0.1; 4], vec![neighbor(vec![9.0; 4], 90.0, 0.0)]);
        let q_empty = query(vec![0.1; 4], vec![]);
        // A zero-weight message contributes zero to sum and mean... but the
        // *mean* divides by len=1, so both give zero message aggregate.
        let (l1, _, _) = model.forward(&model.build_batch(&[&q_with]));
        let (l2, _, _) = model.forward(&model.build_batch(&[&q_empty]));
        for (a, b) in l1.data().iter().zip(l2.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_train_a_separable_task() {
        // Two query archetypes distinguishable by neighbor features.
        let mut rng = StdRng::seed_from_u64(3);
        let mut cfg = SplashConfig::tiny();
        cfg.k = 3;
        let mut model = SlimModel::new(&cfg, 4, 0, 2, &mut rng);
        let make = |sign: f32| {
            query(
                vec![0.0; 4],
                vec![
                    neighbor(vec![sign, -sign, sign, 0.3], 95.0, 1.0),
                    neighbor(vec![sign, sign, -sign, -0.2], 97.0, 1.0),
                ],
            )
        };
        let qs = [make(1.0), make(-1.0), make(1.0), make(-1.0)];
        let targets = [0usize, 1, 0, 1];
        let refs: Vec<&CapturedQuery> = qs.iter().collect();
        let batch = model.build_batch(&refs);
        let mut opt = Adam::new(0.01);
        let mut last = f32::MAX;
        for _ in 0..300 {
            let (logits, _, cache) = model.forward(&batch);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &targets);
            last = loss;
            model.backward(&cache, &dlogits);
            opt.step(model.params_mut());
        }
        assert!(last < 0.05, "SLIM failed to fit separable data: loss {last}");
    }

    #[test]
    fn gradient_matches_finite_differences_on_params() {
        // End-to-end FD check through the full SLIM stack on a few params.
        let mut model = tiny_model(4);
        let q1 = query(
            vec![0.3, -0.2, 0.5, 0.1],
            vec![neighbor(vec![0.4, 0.1, -0.3, 0.2], 95.0, 1.3), neighbor(vec![0.1; 4], 97.0, 0.7)],
        );
        let q2 = query(vec![-0.4, 0.2, 0.0, 0.6], vec![neighbor(vec![-0.2, 0.3, 0.1, 0.0], 99.0, 2.0)]);
        let batch = model.build_batch(&[&q1, &q2]);
        let (logits, _, cache) = model.forward(&batch);
        let coef = nn::test_util::probe_coefficients(logits.rows(), logits.cols());
        model.zero_grad();
        model.backward(&cache, &coef);
        let grads: Vec<Matrix> = model.params_mut().iter().map(|p| p.grad.clone()).collect();
        let eps = 5e-3f32;
        // Spot-check a handful of parameters from every module.
        let n_params = grads.len();
        for pi in (0..n_params).step_by(3) {
            let n_elems = grads[pi].len();
            for ei in (0..n_elems).step_by(7) {
                let orig = {
                    let mut ps = model.params_mut();
                    let v = ps[pi].value.data_mut();
                    let o = v[ei];
                    v[ei] = o + eps;
                    o
                };
                let lp = model.infer(&batch).hadamard(&coef).sum();
                {
                    model.params_mut()[pi].value.data_mut()[ei] = orig - eps;
                }
                let lm = model.infer(&batch).hadamard(&coef).sum();
                {
                    model.params_mut()[pi].value.data_mut()[ei] = orig;
                }
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[pi].data()[ei];
                assert!(
                    (analytic - numeric).abs() < 5e-2 * 1.0f32.max(analytic.abs()),
                    "param[{pi}][{ei}]: {analytic} vs {numeric}"
                );
            }
        }
    }

    /// The cache-free inference trunk (`represent_core`, behind `infer` /
    /// `represent` / `*_into`) and the cache-building `forward` are two
    /// code paths over the same math; this pins them bit-equal so an edit
    /// to one that misses the other fails immediately.
    #[test]
    fn infer_and_represent_match_forward_bitwise() {
        let model = tiny_model(6);
        let q1 = query(
            vec![0.2, -0.4, 0.6, 0.0],
            vec![neighbor(vec![0.3, 0.1, -0.2, 0.5], 96.0, 1.1), neighbor(vec![0.2; 4], 98.0, 0.4)],
        );
        let q2 = query(vec![0.9, 0.0, -0.1, 0.3], vec![]);
        let batch = model.build_batch(&[&q1, &q2]);
        let (logits, h, _) = model.forward(&batch);
        assert_eq!(logits.data(), model.infer(&batch).data());
        assert_eq!(h.data(), model.represent(&batch).data());
        let mut ws = nn::Workspace::new();
        let mut out = nn::Matrix::default();
        model.infer_into(&batch, &mut out, &mut ws);
        assert_eq!(logits.data(), out.data());
        model.represent_into(&batch, &mut out, &mut ws);
        assert_eq!(h.data(), out.data());
    }

    /// [`infer_and_represent_match_forward_bitwise`] at the paper's default
    /// size (d_v=32, k=10, hidden=64; 8-d edge features, out_dim 2), where
    /// every inference MLP runs the fused kernel with full-width register
    /// blocks, on every kernel body the host supports. Every parameter is
    /// perturbed (so biases and LayerNorm affines are not at their
    /// initial zeros/ones), ~30% of the inputs are exact zeros, and the
    /// neighbor lists are ragged, some longer than `k`.
    #[test]
    fn default_size_infer_matches_forward_bitwise_on_every_body() {
        use rand::RngExt;
        let cfg = SplashConfig::default();
        let (dv, de) = (cfg.feat_dim, 8);
        let mut rng = StdRng::seed_from_u64(19);
        let mut model = SlimModel::new(&cfg, dv, de, 2, &mut rng);
        for p in model.params_mut() {
            for v in p.value.data_mut() {
                *v += rng.random_range(-0.2f32..0.2);
            }
        }
        let feat = |n: usize, rng: &mut StdRng| -> Vec<f32> {
            (0..n)
                .map(|_| match rng.random_range(0.0f32..1.0) < 0.3 {
                    true => 0.0,
                    false => rng.random_range(-2.0f32..2.0),
                })
                .collect()
        };
        let queries: Vec<CapturedQuery> = (0..37)
            .map(|_| {
                let neighbors = (0..rng.random_range(0..=cfg.k + 2))
                    .map(|i| CapturedNeighbor {
                        other: 1,
                        feat: feat(dv, &mut rng),
                        edge_feat: feat(de, &mut rng),
                        time: 50.0 + i as f64,
                        weight: rng.random_range(0.0f32..2.0),
                    })
                    .collect();
                query(feat(dv, &mut rng), neighbors)
            })
            .collect();
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for b in [1, queries.len()] {
            let mut batch = SlimBatch::default();
            model.build_batch_into(&queries[..b], &mut batch);
            let (logits, h, _) = model.forward(&batch);
            for isa in nn::Isa::supported() {
                nn::with_isa(isa, || {
                    assert_eq!(bits(&logits), bits(&model.infer(&batch)), "{isa:?} b={b}");
                    assert_eq!(bits(&h), bits(&model.represent(&batch)), "{isa:?} b={b}");
                    let mut ws = nn::Workspace::new();
                    let mut out = nn::Matrix::default();
                    model.infer_into(&batch, &mut out, &mut ws);
                    assert_eq!(bits(&logits), bits(&out), "{isa:?} b={b}");
                });
            }
        }
    }

    /// The visitor traversal must enumerate exactly the `params_mut`
    /// sequence — the optimizer step and the checkpoint layout both assume
    /// the two orders agree.
    #[test]
    fn visit_params_matches_params_mut_order() {
        let mut a = tiny_model(7);
        let mut b = a.clone();
        let shapes: Vec<(usize, usize)> =
            a.params_mut().iter().map(|p| p.value.shape()).collect();
        let mut visited = Vec::new();
        b.visit_params(&mut |p| visited.push(p.value.shape()));
        assert_eq!(shapes, visited);
        assert_eq!(shapes.len(), 16, "SLIM is 3 two-layer MLPs + 2 LayerNorms");
    }

    #[test]
    fn copy_weights_from_transfers_values_only() {
        let mut src = tiny_model(8);
        let mut dst = tiny_model(9);
        // Give src a non-trivial moment so we can check it is NOT copied.
        src.params_mut()[0].grad.data_mut()[0] = 1.0;
        let mut opt = nn::Adam::new(0.01);
        opt.step_visit(&mut src);
        dst.copy_weights_from(&src);
        let q = query(vec![0.3, -0.2, 0.5, 0.1], vec![neighbor(vec![0.4; 4], 95.0, 1.0)]);
        let batch = src.build_batch(&[&q]);
        assert_eq!(src.infer(&batch).data(), dst.infer(&batch).data());
        // Moments stayed put: dst's are still all zero.
        let params = dst.params_mut();
        let (m, _) = params[0].adam_state();
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    /// Extract → restore round-trips the optimizer clock and moments so a
    /// resumed Adam continues bit-identically.
    #[test]
    fn adam_state_round_trips() {
        let mut trained = tiny_model(10);
        let q = query(vec![0.1; 4], vec![neighbor(vec![0.2; 4], 90.0, 1.0)]);
        let batch = trained.build_batch(&[&q]);
        let mut opt = nn::Adam::new(0.02);
        for _ in 0..3 {
            let (logits, _, cache) = trained.forward(&batch);
            let (_, dlogits) = nn::softmax_cross_entropy(&logits, &[1]);
            trained.backward(&cache, &dlogits);
            opt.step_visit(&mut trained);
        }
        let state = trained.extract_adam_state(opt.steps());
        assert_eq!(state.steps, 3);
        let mut resumed = tiny_model(10);
        resumed.copy_weights_from(&trained);
        resumed.restore_adam_state(&state);

        // One more identical step on both must produce identical weights.
        let mut opt2 = nn::Adam::new(0.02);
        opt2.set_steps(state.steps);
        for (model, o) in [(&mut trained, &mut opt), (&mut resumed, &mut opt2)] {
            let (logits, _, cache) = model.forward(&batch);
            let (_, dlogits) = nn::softmax_cross_entropy(&logits, &[1]);
            model.backward(&cache, &dlogits);
            o.step_visit(model);
        }
        for (p, q) in trained.params_mut().into_iter().zip(resumed.params_mut()) {
            assert_eq!(p.value.data(), q.value.data());
        }
    }

    #[test]
    fn param_count_is_reported() {
        let model = tiny_model(5);
        assert!(Parameterized::num_params(&model) > 0);
        // MLP-only model: params = Σ layer params; spot-check it is small.
        assert!(Parameterized::num_params(&model) < 5000);
    }
}
