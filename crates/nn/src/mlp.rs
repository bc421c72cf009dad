//! Multi-layer perceptron: a stack of [`Linear`] layers with a hidden
//! activation and a linear (identity) output layer.

use rand::Rng;

use crate::activation::{ActCache, Activation};
use crate::linear::{Linear, LinearCache};
use crate::matrix::Matrix;
use crate::param::{Param, Parameterized};
use crate::workspace::Workspace;

/// An MLP `in → hidden → … → out` with `activation` after every layer except
/// the last.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

/// Backward cache for [`Mlp`].
///
/// `Default` yields an empty cache that [`Mlp::forward_into`] sizes on
/// first use and reuses afterwards — carry one across training steps for
/// allocation-free forward passes.
#[derive(Debug, Default)]
pub struct MlpCache {
    linear: Vec<LinearCache>,
    act: Vec<ActCache>,
}

impl Mlp {
    /// Builds an MLP from the full dimension sequence, e.g. `[16, 64, 8]`
    /// gives one hidden layer of width 64. `dims.len() >= 2`.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self { layers, activation }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim()
    }

    /// Number of affine layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass `(B, in) → (B, out)`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, MlpCache) {
        let mut cache = MlpCache::default();
        let mut out = Matrix::default();
        self.forward_into(x, &mut out, &mut cache, &mut Workspace::new());
        (out, cache)
    }

    /// [`Mlp::forward`] into a caller-owned output, reusing `cache` and
    /// drawing layer intermediates from `ws`. Allocation-free once the
    /// buffers have warmed up to the batch shape; bit-identical to
    /// [`Mlp::forward`].
    pub fn forward_into(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        cache: &mut MlpCache,
        ws: &mut Workspace,
    ) {
        let last = self.layers.len() - 1;
        cache.linear.resize_with(self.layers.len(), Default::default);
        cache.act.resize_with(last, Default::default);
        let mut h = ws.take(0, 0);
        let mut next = ws.take(0, 0);
        for (i, layer) in self.layers.iter().enumerate() {
            let input = if i == 0 { x } else { &h };
            let dst = if i == last { &mut *out } else { &mut next };
            layer.forward_into(input, dst, &mut cache.linear[i]);
            if i < last {
                self.activation.forward_inplace(&mut next, &mut cache.act[i]);
                std::mem::swap(&mut h, &mut next);
            }
        }
        ws.give(h);
        ws.give(next);
    }

    /// Inference-only forward.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(x, &mut out, &mut Workspace::new());
        out
    }

    /// [`Mlp::infer`] into a caller-owned output, drawing intermediates
    /// from `ws` (allocation-free after warm-up, bit-identical results).
    ///
    /// A two-layer ReLU MLP with finite weights runs the fused,
    /// register-tiled kernel, which never materializes the `(rows, hidden)`
    /// intermediate; any other MLP (or one holding a NaN/±inf weight) runs
    /// layer by layer on the matmul backend. Both give the same bits.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
        self.infer_fused_into(x, out, ws);
    }

    /// [`Mlp::infer_into`]; returns whether the fused kernel ran.
    pub(crate) fn infer_fused_into(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        ws: &mut Workspace,
    ) -> bool {
        if let Some((l1, l2)) = self.fusable() {
            if crate::fused::store(l1, l2, x, out, ws) {
                return true;
            }
        }
        self.infer_layered_into(x, out, ws);
        false
    }

    /// [`Mlp::infer_into`] layer by layer on the matmul backend: the
    /// unfused path, and the reference the fused kernel is checked against.
    pub(crate) fn infer_layered_into(&self, x: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
        let last = self.layers.len() - 1;
        let mut h = ws.take(0, 0);
        let mut next = ws.take(0, 0);
        for (i, layer) in self.layers.iter().enumerate() {
            let input = if i == 0 { x } else { &h };
            let dst = if i == last { &mut *out } else { &mut next };
            layer.infer_into(input, dst);
            if i < last {
                self.activation.infer_inplace(&mut next);
                std::mem::swap(&mut h, &mut next);
            }
        }
        ws.give(h);
        ws.give(next);
    }

    /// The two layers of a two-layer ReLU MLP, the shape the fused kernel
    /// covers.
    fn fusable(&self) -> Option<(&Linear, &Linear)> {
        match (self.layers.as_slice(), self.activation) {
            ([l1, l2], Activation::Relu) => Some((l1, l2)),
            _ => None,
        }
    }

    /// Weighted per-segment sums of the inference outputs over ragged
    /// row lists: `x` holds `k` rows per segment, segment `q` has
    /// `lens[q] ≤ k` valid rows, and `sum` becomes `(lens.len(), out)`
    /// with `sum[q] = Σ_{s < lens[q]} weights[q·k+s] · infer(x)[q·k+s]`,
    /// added in slot order. Rows past `lens[q]` are never read.
    ///
    /// Bit-identical to [`Mlp::infer_into`] over all of `x`, then
    /// [`Matrix::scale_rows_assign`], then adding each segment's valid rows
    /// into a zeroed `sum` in slot order. A two-layer ReLU MLP with finite
    /// weights runs the fused kernel over the valid rows only; any other
    /// MLP (or one holding a NaN/±inf weight) runs exactly that unfused
    /// sequence. Allocation-free once `sum` and `ws` have warmed up.
    pub fn infer_weighted_sum_into(
        &self,
        x: &Matrix,
        weights: &[f32],
        lens: &[usize],
        k: usize,
        sum: &mut Matrix,
        ws: &mut Workspace,
    ) {
        self.weighted_sum_fused_into(x, weights, lens, k, sum, ws);
    }

    /// [`Mlp::infer_weighted_sum_into`]; returns whether the fused kernel
    /// ran.
    pub(crate) fn weighted_sum_fused_into(
        &self,
        x: &Matrix,
        weights: &[f32],
        lens: &[usize],
        k: usize,
        sum: &mut Matrix,
        ws: &mut Workspace,
    ) -> bool {
        assert_eq!(
            x.shape(),
            (lens.len() * k, self.in_dim()),
            "message matrix shape"
        );
        sum.resize_zeroed(lens.len(), self.out_dim());
        if let Some((l1, l2)) = self.fusable() {
            let data = sum.data_mut();
            if crate::fused::message_sum(l1, l2, x.data(), weights, lens, k, data, ws) {
                return true;
            }
        }
        let mut m = ws.take(0, 0);
        self.infer_layered_into(x, &mut m, ws);
        m.scale_rows_assign(weights);
        for (q, &len) in lens.iter().enumerate() {
            assert!(len <= k, "segment {q}: {len} rows exceed k = {k}");
            for slot in 0..len {
                for (o, &v) in sum.row_mut(q).iter_mut().zip(m.row(q * k + slot)) {
                    *o += v;
                }
            }
        }
        ws.give(m);
        false
    }

    /// Backward pass: accumulates parameter gradients, returns `dx`.
    pub fn backward(&mut self, cache: &MlpCache, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(cache, dy, &mut dx, &mut Workspace::new());
        dx
    }

    /// [`Mlp::backward`] into a caller-owned `dx`, drawing gradient
    /// temporaries from `ws` (allocation-free after warm-up, bit-identical
    /// to [`Mlp::backward`]).
    pub fn backward_into(
        &mut self,
        cache: &MlpCache,
        dy: &Matrix,
        dx: &mut Matrix,
        ws: &mut Workspace,
    ) {
        let last = self.layers.len() - 1;
        let mut grad = ws.take(0, 0);
        grad.copy_from(dy);
        let mut next = ws.take(0, 0);
        for i in (0..self.layers.len()).rev() {
            if i < last {
                self.activation.backward_inplace(&cache.act[i], &mut grad);
            }
            let dst = if i == 0 { &mut *dx } else { &mut next };
            self.layers[i].backward_into(&cache.linear[i], &grad, dst, ws);
            if i > 0 {
                std::mem::swap(&mut grad, &mut next);
            }
        }
        ws.give(grad);
        ws.give(next);
    }
}

impl Mlp {
    /// Overwrites every layer's *values* with `other`'s (same architecture
    /// required; gradients and optimizer moments untouched), reusing the
    /// existing buffers — allocation-free. See [`Linear::copy_weights_from`].
    pub fn copy_weights_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len(), "MLP depth mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.copy_weights_from(src);
        }
    }
}

impl Parameterized for Mlp {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::randn_matrix;
    use crate::loss::softmax_cross_entropy;
    use crate::param::Adam;
    use crate::test_util::grad_check;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[6, 16, 16, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.num_layers(), 3);
        let x = randn_matrix(5, 6, 1.0, &mut rng);
        let (y, _) = mlp.forward(&x);
        assert_eq!(y.shape(), (5, 3));
        assert_eq!(mlp.infer(&x), y);
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        // Tanh avoids the ReLU kink issue in finite differences.
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut rng);
        let x = randn_matrix(3, 4, 1.0, &mut rng);
        grad_check(
            mlp,
            x,
            |m, x| m.forward(x),
            |m, c, dy| m.backward(c, dy),
            3e-2,
        );
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&[2, 16, 2], Activation::Relu, &mut rng);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let targets = [0usize, 1, 1, 0];
        let mut opt = Adam::new(0.02);
        let mut final_loss = f32::MAX;
        for _ in 0..400 {
            let (logits, cache) = mlp.forward(&x);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &targets);
            final_loss = loss;
            mlp.backward(&cache, &dlogits);
            opt.step(mlp.params_mut());
        }
        assert!(final_loss < 0.05, "XOR loss stayed at {final_loss}");
        let logits = mlp.infer(&x);
        for (i, &t) in targets.iter().enumerate() {
            let row = logits.row(i);
            let pred = if row[1] > row[0] { 1 } else { 0 };
            assert_eq!(pred, t, "sample {i}");
        }
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng);
        assert_eq!(Parameterized::num_params(&mlp), (3 * 5 + 5) + (5 * 2 + 2));
    }
}
