//! Fused inference kernel for a two-layer ReLU MLP applied to ragged
//! message lists: `sum[q] = Σ_{s < lens[q]} w[q·k+s] · MLP(x[q·k+s])`.
//!
//! This is SLIM's message path (Eqs. 14–17) at inference time. The
//! unfused form runs the MLP over all `B·k` rows of `x` (padding
//! included), materializes two `(B·k, d_h)` intermediates, scales every
//! row by its weight and sums each query's valid rows. The fused kernel
//! instead:
//!
//! * visits only the valid rows (`slot < lens[q]`), in query-then-slot
//!   order, and takes them [`TILE`] at a time;
//! * computes layer 1, bias and ReLU for the tile into a `TILE × d_h`
//!   hidden buffer, then layer 2 and its bias, keeping a `TILE × 16`
//!   output block in registers across the whole depth loop;
//! * multiplies each output row by its edge weight and adds it into its
//!   query's `sum` row right away, in slot order.
//!
//! **Bits.** Every output element still accumulates in ascending depth
//! order, one multiply then one add per step (never an FMA), from a `+0.0`
//! start, with the bias added after the sum — the chain of the
//! [`crate::backend`] kernels. The one difference is that the fused loops
//! are branch-free: a zero input adds `0 · w` instead of being skipped.
//! The module docs of [`crate::backend`] ("Determinism") show why that
//! cannot change a bit as long as every weight is finite, so the kernel
//! checks both weight matrices on each call and reports `false` (having
//! written nothing) when any weight is NaN or infinite; the caller then
//! runs the unfused path.
//!
//! **Dispatch.** One `#[inline(always)]` source body is compiled twice: in
//! an `avx2`-enabled wrapper, picked at run time with
//! `is_x86_feature_detected!`, and in a plain wrapper for every other
//! host. Both make the same floating-point operations in the same order.

use crate::linear::Linear;
use crate::workspace::Workspace;

/// Message rows per tile (layer-1 and layer-2 register blocks are
/// `TILE` rows tall).
const TILE: usize = 4;

/// Output columns per register block; narrower remainders run as one
/// 8-wide block and then single columns.
const COLS: usize = 16;

/// One affine layer's operands: `w` is `(d_in, d_out)` row-major.
#[derive(Clone, Copy)]
struct Dense<'a> {
    w: &'a [f32],
    b: &'a [f32],
    d_in: usize,
    d_out: usize,
}

impl<'a> Dense<'a> {
    fn of(layer: &'a Linear) -> Self {
        Dense {
            w: layer.w.value.data(),
            b: layer.b.value.row(0),
            d_in: layer.in_dim(),
            d_out: layer.out_dim(),
        }
    }
}

/// The operands of one fused call (see [`message_sum`]).
#[derive(Clone, Copy)]
struct Job<'a> {
    l1: Dense<'a>,
    l2: Dense<'a>,
    x: &'a [f32],
    weights: &'a [f32],
    lens: &'a [usize],
    k: usize,
}

/// Accumulates `sum[q] += w[q·k+s] · (relu(x[q·k+s]·W₁ + b₁)·W₂ + b₂)` for
/// every valid slot `s < lens[q]`, in slot order — bit-identical to
/// running [`crate::Mlp::infer_into`] over all rows, scaling each row by
/// its weight and adding the valid rows into `sum` in slot order.
///
/// `x` is `(lens.len()·k, l1.in_dim())` row-major and `sum` is
/// `(lens.len(), l2.out_dim())`, holding the values to accumulate onto.
/// Returns `false`, with `sum` untouched, when any entry of either weight
/// matrix is non-finite (the fused loops' precondition); the caller must
/// then take the unfused path. The tile's hidden rows are drawn from
/// `ws`. `avx2` selects the `avx2` body and must only be set when
/// [`use_avx2`] is true; tests clear it to run the portable body here too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn message_sum(
    l1: &Linear,
    l2: &Linear,
    x: &[f32],
    weights: &[f32],
    lens: &[usize],
    k: usize,
    sum: &mut [f32],
    ws: &mut Workspace,
    avx2: bool,
) -> bool {
    let job = Job {
        l1: Dense::of(l1),
        l2: Dense::of(l2),
        x,
        weights,
        lens,
        k,
    };
    let mut hidden = ws.take(TILE, job.l1.d_out);
    let done = dispatch(&job, sum, hidden.data_mut(), avx2);
    ws.give(hidden);
    done
}

/// Whether the running CPU takes the `avx2` body (cached by `std`).
pub(crate) fn use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs the `avx2` body when `avx2` is set, the portable body otherwise.
fn dispatch(job: &Job, sum: &mut [f32], hidden: &mut [f32], avx2: bool) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        assert!(use_avx2(), "the avx2 body needs an avx2 CPU");
        // SAFETY: the CPU reported avx2 (checked just above).
        return unsafe { body_avx2(job, sum, hidden) };
    }
    let _ = avx2;
    body_portable(job, sum, hidden)
}

/// [`body`] compiled with `avx2` enabled.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn body_avx2(job: &Job, sum: &mut [f32], hidden: &mut [f32]) -> bool {
    body(job, sum, hidden)
}

fn body_portable(job: &Job, sum: &mut [f32], hidden: &mut [f32]) -> bool {
    body(job, sum, hidden)
}

/// True when no element of `v` is NaN or ±inf. Branch-free (an exponent
/// test OR-reduced over the slice) so it vectorizes.
#[inline(always)]
fn all_finite(v: &[f32]) -> bool {
    const EXP: u32 = 0x7f80_0000;
    let mut bad = 0u32;
    for x in v {
        bad |= ((x.to_bits() & EXP) == EXP) as u32;
    }
    bad == 0
}

#[inline(always)]
fn body(job: &Job, sum: &mut [f32], hidden: &mut [f32]) -> bool {
    let (l1, l2) = (job.l1, job.l2);
    if !(all_finite(l1.w) && all_finite(l2.w)) {
        return false;
    }
    assert_eq!(l1.d_out, l2.d_in, "fused MLP layers do not chain");
    assert_eq!(
        job.x.len(),
        job.lens.len() * job.k * l1.d_in,
        "message matrix shape"
    );
    assert_eq!(
        job.weights.len(),
        job.lens.len() * job.k,
        "one weight per message row"
    );
    assert_eq!(sum.len(), job.lens.len() * l2.d_out, "sum shape");
    assert_eq!(hidden.len(), TILE * l1.d_out, "hidden tile shape");
    // (message row, query) of each tile slot.
    let mut tile = [(0usize, 0usize); TILE];
    let mut n = 0;
    for (q, &len) in job.lens.iter().enumerate() {
        assert!(
            len <= job.k,
            "query {q}: {len} messages exceed k = {}",
            job.k
        );
        for slot in 0..len {
            tile[n] = (q * job.k + slot, q);
            n += 1;
            if n == TILE {
                run_tile(job, &tile, TILE, sum, hidden);
                n = 0;
            }
        }
    }
    if n > 0 {
        // Pad the short tile with its last row; only `n` rows are summed.
        for t in n..TILE {
            tile[t] = tile[n - 1];
        }
        run_tile(job, &tile, n, sum, hidden);
    }
    true
}

/// Both layers for one tile; the first `live` tile rows are added into
/// `sum` (in tile order, which is slot order within a query).
#[inline(always)]
fn run_tile(
    job: &Job,
    tile: &[(usize, usize); TILE],
    live: usize,
    sum: &mut [f32],
    hidden: &mut [f32],
) {
    let (l1, l2) = (job.l1, job.l2);
    let rows: [&[f32]; TILE] = tile.map(|(r, _)| &job.x[r * l1.d_in..(r + 1) * l1.d_in]);
    let dh = l1.d_out;
    let mut j = 0;
    while j + COLS <= dh {
        layer1_block::<COLS>(l1, &rows, j, hidden);
        j += COLS;
    }
    if j + 8 <= dh {
        layer1_block::<8>(l1, &rows, j, hidden);
        j += 8;
    }
    while j < dh {
        layer1_block::<1>(l1, &rows, j, hidden);
        j += 1;
    }
    let hrows: [&[f32]; TILE] = std::array::from_fn(|r| &hidden[r * dh..(r + 1) * dh]);
    let mut j = 0;
    while j + COLS <= l2.d_out {
        layer2_block::<COLS>(job, &hrows, tile, live, j, sum);
        j += COLS;
    }
    if j + 8 <= l2.d_out {
        layer2_block::<8>(job, &hrows, tile, live, j, sum);
        j += 8;
    }
    while j < l2.d_out {
        layer2_block::<1>(job, &hrows, tile, live, j, sum);
        j += 1;
    }
}

/// `TILE × W` dot products over the full depth of `layer`, starting at
/// output column `j`: one `+0.0`-started accumulator per element, one
/// multiply then one add per depth step, ascending.
#[inline(always)]
fn block<const W: usize>(layer: Dense, rows: &[&[f32]; TILE], j: usize) -> [[f32; W]; TILE] {
    let mut acc = [[0.0f32; W]; TILE];
    // Lets the compiler drop the bounds checks on `row[kk]` below.
    for r in rows {
        assert_eq!(r.len(), layer.d_in);
    }
    for kk in 0..layer.d_in {
        let w = &layer.w[kk * layer.d_out + j..][..W];
        for (acc_r, row) in acc.iter_mut().zip(rows) {
            let xv = row[kk];
            for l in 0..W {
                acc_r[l] += xv * w[l];
            }
        }
    }
    acc
}

/// Layer 1 columns `j..j+W` of the tile: bias, then ReLU, into `hidden`.
#[inline(always)]
fn layer1_block<const W: usize>(l1: Dense, rows: &[&[f32]; TILE], j: usize, hidden: &mut [f32]) {
    let acc = block::<W>(l1, rows, j);
    let b = &l1.b[j..][..W];
    for (r, acc_r) in acc.iter().enumerate() {
        let out = &mut hidden[r * l1.d_out + j..][..W];
        for l in 0..W {
            out[l] = (acc_r[l] + b[l]).max(0.0);
        }
    }
}

/// Layer 2 columns `j..j+W` of the tile: bias, edge weight, and the
/// slot-ordered add into each live row's query sum.
#[inline(always)]
fn layer2_block<const W: usize>(
    job: &Job,
    hrows: &[&[f32]; TILE],
    tile: &[(usize, usize); TILE],
    live: usize,
    j: usize,
    sum: &mut [f32],
) {
    let l2 = job.l2;
    let acc = block::<W>(l2, hrows, j);
    let b = &l2.b[j..][..W];
    for (acc_r, &(row, q)) in acc.iter().zip(tile).take(live) {
        let wt = job.weights[row];
        let s = &mut sum[q * l2.d_out + j..][..W];
        for l in 0..W {
            s[l] += (acc_r[l] + b[l]) * wt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::use_avx2;
    use crate::activation::Activation;
    use crate::matrix::Matrix;
    use crate::mlp::Mlp;
    use crate::param::Parameterized;
    use crate::workspace::Workspace;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A ragged message batch: `x` is `(lens.len()·k, d_in)`.
    struct Case {
        x: Matrix,
        weights: Vec<f32>,
        lens: Vec<usize>,
        k: usize,
    }

    /// Random messages with ~30% exact-zero inputs and some zero edge
    /// weights; padding rows hold nonzero garbage, which no path may read.
    fn case(rng: &mut StdRng, b: usize, k: usize, d_in: usize) -> Case {
        let lens: Vec<usize> = (0..b).map(|_| rng.random_range(0..=k)).collect();
        let x = Matrix::from_fn(b * k, d_in, |_, _| {
            if rng.random_range(0.0f32..1.0) < 0.3 {
                0.0
            } else {
                rng.random_range(-2.0f32..2.0)
            }
        });
        let weights = (0..b * k)
            .map(|_| {
                if rng.random_range(0u32..8) == 0 {
                    0.0
                } else {
                    rng.random_range(0.1f32..3.0)
                }
            })
            .collect();
        Case {
            x,
            weights,
            lens,
            k,
        }
    }

    /// An MLP with random biases too (`Mlp::new` zeroes them, which would
    /// hide any slip in where a bias is added).
    fn random_mlp(rng: &mut StdRng, dims: &[usize], act: Activation) -> Mlp {
        let mut mlp = Mlp::new(dims, act, rng);
        for (i, p) in mlp.params_mut().into_iter().enumerate() {
            if i % 2 == 1 {
                for v in p.value.data_mut() {
                    *v = rng.random_range(-0.5f32..0.5);
                }
            }
        }
        mlp
    }

    /// The unfused reference: `infer_into` over every row, scale each row
    /// by its weight, add the valid rows of each query in slot order.
    fn reference(mlp: &Mlp, c: &Case) -> Matrix {
        let mut m = Matrix::default();
        mlp.infer_into(&c.x, &mut m, &mut Workspace::new());
        m.scale_rows_assign(&c.weights);
        let mut sum = Matrix::zeros(c.lens.len(), mlp.out_dim());
        for (q, &len) in c.lens.iter().enumerate() {
            for slot in 0..len {
                for (o, &v) in sum.row_mut(q).iter_mut().zip(m.row(q * c.k + slot)) {
                    *o += v;
                }
            }
        }
        sum
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs both bodies (the avx2 one only on an avx2 CPU) against the
    /// reference; returns whether the fused kernel ran (the same for both).
    fn check(mlp: &Mlp, c: &Case) -> Result<bool, TestCaseError> {
        let want = bits(&reference(mlp, c));
        let mut fused = None;
        for avx2 in [false, use_avx2()] {
            // A dirty output and a warm workspace must not leak into the sum.
            let mut sum = Matrix::filled(3, 5, f32::NAN);
            let mut ws = Workspace::new();
            ws.give(Matrix::filled(7, 9, f32::NAN));
            let ran =
                mlp.weighted_sum_with(&c.x, &c.weights, &c.lens, c.k, &mut sum, &mut ws, avx2);
            prop_assert_eq!(sum.shape(), (c.lens.len(), mlp.out_dim()));
            prop_assert_eq!(bits(&sum), want.clone(), "avx2={}", avx2);
            prop_assert!(fused.is_none_or(|f| f == ran));
            fused = Some(ran);
        }
        Ok(fused.unwrap())
    }

    const HIDDEN: [usize; 5] = [16, 20, 24, 64, 72];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Fused ≡ unfused, bit for bit, over hidden widths with every
        /// column remainder (16-blocks, an 8-block, single columns), k in
        /// {1, 3, 10}, ragged lens including all-padding queries, and batch
        /// sizes hitting every tile remainder.
        #[test]
        fn fused_matches_unfused_bitwise(
            h1 in prop::sample::select(HIDDEN.to_vec()),
            h2 in prop::sample::select(HIDDEN.to_vec()),
            k in prop::sample::select(vec![1usize, 3, 10]),
            b in 0usize..14,
            d_in in 1usize..60,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mlp = random_mlp(&mut rng, &[d_in, h1, h2], Activation::Relu);
            let c = case(&mut rng, b, k, d_in);
            prop_assert!(check(&mlp, &c)?, "finite weights must take the fused kernel");
        }

        /// A NaN or ±inf anywhere in W₁ or W₂ takes the unfused fallback,
        /// which matches the reference bit for bit.
        #[test]
        fn non_finite_weight_takes_the_fallback(
            h in prop::sample::select(HIDDEN.to_vec()),
            k in prop::sample::select(vec![1usize, 3, 10]),
            b in 1usize..9,
            bad in prop::sample::select(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
            layer in 0usize..2,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mlp = random_mlp(&mut rng, &[12, h, h], Activation::Relu);
            let c = case(&mut rng, b, k, 12);
            {
                // params_mut order: W₁, b₁, W₂, b₂.
                let w = &mut mlp.params_mut()[2 * layer].value;
                let i = rng.random_range(0..w.len());
                w.data_mut()[i] = bad;
            }
            prop_assert!(!check(&mlp, &c)?, "a non-finite weight must take the fallback");
        }
    }

    /// The case the finiteness check exists for: a NaN in W₁ row `c`
    /// meets only exact-zero inputs in column `c`. The reference skips
    /// those zeros, so its output is finite; a branch-free kernel would
    /// add `0 · NaN` and poison the sum. The fallback must keep the
    /// reference's finite bits.
    #[test]
    fn nan_hidden_behind_a_zero_input_is_kept_out() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mlp = random_mlp(&mut rng, &[6, 24, 16], Activation::Relu);
        let mut c = case(&mut rng, 5, 3, 6);
        for r in 0..c.x.rows() {
            c.x.set(r, 2, 0.0);
        }
        c.lens = vec![3, 1, 0, 2, 3];
        mlp.params_mut()[0].value.set(2, 7, f32::NAN);
        let want = reference(&mlp, &c);
        assert!(
            want.data().iter().all(|v| v.is_finite()),
            "the reference skips the NaN"
        );
        assert!(!check(&mlp, &c).unwrap());
    }

    /// Every count of valid rows modulo the tile height, one row per query.
    #[test]
    fn every_tile_remainder() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = random_mlp(&mut rng, &[9, 16, 24], Activation::Relu);
        for b in 0..=9 {
            let mut c = case(&mut rng, b, 1, 9);
            c.lens = vec![1; b];
            assert!(check(&mlp, &c).unwrap(), "b = {b}");
        }
    }

    /// MLPs the kernel does not cover (other depths, other activations)
    /// take the same unfused sequence.
    #[test]
    fn other_architectures_take_the_fallback() {
        let mut rng = StdRng::seed_from_u64(9);
        for (dims, act) in [
            (vec![7, 16, 16, 8], Activation::Relu),
            (vec![7, 16], Activation::Relu),
            (vec![7, 16, 8], Activation::Tanh),
        ] {
            let mlp = random_mlp(&mut rng, &dims, act);
            let c = case(&mut rng, 6, 3, 7);
            assert!(!check(&mlp, &c).unwrap(), "{dims:?} {act:?}");
        }
    }
}
