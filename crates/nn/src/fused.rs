//! Fused inference kernel for a two-layer ReLU MLP,
//! `y = relu(x·W₁ + b₁)·W₂ + b₂`, with two epilogues for what becomes of
//! each output row `y[r]`:
//!
//! * **store** — `out[r] = y[r]`: the plain MLP output, behind
//!   [`crate::Mlp::infer_into`] (SLIM's MLP₂ and decoder, Eqs. 18–19);
//! * **weighted segment sum** — `sum[q] += w[q·k+s] · y[q·k+s]` over the
//!   valid slots `s < lens[q]` of a ragged message list, in slot order,
//!   behind [`crate::Mlp::infer_weighted_sum_into`] (SLIM's message path,
//!   Eqs. 14–17). Padding rows are never read.
//!
//! Either way the kernel takes the rows [`TILE`] at a time, computes
//! layer 1, bias and ReLU for the tile into a `TILE × d_h` hidden buffer,
//! then layer 2 and its bias, keeping a `TILE × C` output block in
//! registers across the whole depth loop, and hands each finished row to
//! the epilogue. No `(rows, d_h)` intermediate is ever materialized.
//!
//! **Bits.** Every output element still accumulates in ascending depth
//! order, one multiply then one add per step (never an FMA), from a `+0.0`
//! start, with the bias added after the sum — the chain of the
//! [`crate::backend`] kernels. The one difference is that the fused loops
//! are branch-free: a zero input adds `0 · w` instead of being skipped.
//! The module docs of [`crate::backend`] ("Determinism") show why that
//! cannot change a bit as long as every weight is finite, so the kernel
//! checks both weight matrices on each call and reports `false` (having
//! written no row) when any weight is NaN or infinite; the caller then
//! runs the unfused path.
//!
//! **Bodies.** One `#[inline(always)]` source body is compiled three
//! times ([`Isa`]): with `avx512f` and 4×32 register blocks (eight zmm
//! accumulators), with `avx2` and 4×16 blocks (eight ymm accumulators),
//! and for the baseline target with 4×16 blocks. The best body the CPU
//! supports is picked once per process and cached; [`with_isa`] overrides
//! it on one thread. Every body makes the same floating-point operations
//! on every output element in the same order, so the choice changes
//! speed, never bits.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::workspace::Workspace;

/// Rows per tile (layer-1 and layer-2 register blocks are `TILE` rows
/// tall).
const TILE: usize = 4;

/// Output columns per register block of the portable and `avx2` bodies.
const COLS: usize = 16;

/// Output columns per register block of the `avx512f` body.
#[cfg(target_arch = "x86_64")]
const COLS_512: usize = 32;

/// An instruction set the fused kernel's body is compiled for. A process
/// runs the fastest body its CPU supports, or the one the `NN_ISA`
/// environment variable names ([`Isa::name`]) when the CPU supports that;
/// [`with_isa`] overrides the choice on one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The baseline target, 4×16 register blocks.
    Portable,
    /// x86-64 `avx2`, 4×16 register blocks.
    Avx2,
    /// x86-64 `avx512f`, 4×32 register blocks.
    Avx512f,
}

impl Isa {
    /// Every body, slowest first.
    const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512f];

    /// Lower-case name (`portable`, `avx2`, `avx512f`), as `NN_ISA` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512f => "avx512f",
        }
    }

    /// Whether the running CPU can execute this body.
    fn is_supported(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The bodies the running CPU can execute, slowest first.
    pub fn supported() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|isa| isa.is_supported())
    }

    /// The process-wide choice, resolved once: the body the `NN_ISA`
    /// environment variable names when the CPU supports it, else the
    /// fastest supported body.
    fn detected() -> Isa {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let fastest = Isa::supported().last().unwrap_or(Isa::Portable);
            std::env::var("NN_ISA")
                .ok()
                .and_then(|name| Isa::supported().find(|isa| isa.name() == name))
                .unwrap_or(fastest)
        })
    }

    /// The body fused calls on this thread run: the one [`with_isa`] set,
    /// else [`Isa::detected`].
    fn active() -> Isa {
        FORCED.with(Cell::get).unwrap_or_else(Isa::detected)
    }
}

thread_local! {
    static FORCED: Cell<Option<Isa>> = const { Cell::new(None) };
}

/// Runs `f` with every fused kernel call on the current thread using the
/// `isa` body — the seam that lets tests check each body the host
/// supports against the same reference bits. Panics when the CPU does
/// not support `isa`.
pub fn with_isa<T>(isa: Isa, f: impl FnOnce() -> T) -> T {
    assert!(
        isa.is_supported(),
        "this CPU cannot run the {} body",
        isa.name()
    );
    let prev = FORCED.with(|c| c.replace(Some(isa)));
    let out = f();
    FORCED.with(|c| c.set(prev));
    out
}

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

/// What becomes of each finished output row.
#[derive(Clone, Copy)]
enum Epilogue<'a> {
    /// `out[r] = y[r]`; `out` is `(rows, d_out)`.
    Store,
    /// `sum[q] += weights[q·k+s] · y[q·k+s]` for `s < lens[q]`; `sum` is
    /// `(lens.len(), d_out)`.
    WeightedSum {
        weights: &'a [f32],
        lens: &'a [usize],
        k: usize,
    },
}

/// The operands of one fused call.
#[derive(Clone, Copy)]
struct Job<'a> {
    l1: Dense<'a>,
    l2: Dense<'a>,
    /// `(rows, l1.d_in)` row-major.
    x: &'a [f32],
    rows: usize,
    epilogue: Epilogue<'a>,
}

/// `out = relu(x·W₁ + b₁)·W₂ + b₂` — bit-identical to
/// [`Linear::infer_into`], ReLU, [`Linear::infer_into`]. `out` is resized
/// to `(x.rows(), l2.out_dim())`. Returns `false`, having written no row,
/// when any entry of either weight matrix is non-finite; the caller must
/// then take the unfused path. The tile's hidden rows are drawn from `ws`.
pub(crate) fn store(
    l1: &Linear,
    l2: &Linear,
    x: &Matrix,
    out: &mut Matrix,
    ws: &mut Workspace,
) -> bool {
    assert_eq!(x.cols(), l1.in_dim(), "input width");
    out.resize_for_overwrite(x.rows(), l2.out_dim());
    let job = Job {
        l1: Dense::of(l1),
        l2: Dense::of(l2),
        x: x.data(),
        rows: x.rows(),
        epilogue: Epilogue::Store,
    };
    run(&job, out.data_mut(), ws)
}

/// Accumulates `sum[q] += w[q·k+s] · (relu(x[q·k+s]·W₁ + b₁)·W₂ + b₂)` for
/// every valid slot `s < lens[q]`, in slot order — bit-identical to
/// running the unfused MLP over all rows, scaling each row by its weight
/// and adding the valid rows into `sum` in slot order.
///
/// `x` is `(lens.len()·k, l1.in_dim())` row-major and `sum` is
/// `(lens.len(), l2.out_dim())`, holding the values to accumulate onto.
/// Returns `false`, with `sum` untouched, when any entry of either weight
/// matrix is non-finite; the caller must then take the unfused path. The
/// tile's hidden rows are drawn from `ws`.
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
) -> bool {
    let job = Job {
        l1: Dense::of(l1),
        l2: Dense::of(l2),
        x,
        rows: lens.len() * k,
        epilogue: Epilogue::WeightedSum { weights, lens, k },
    };
    run(&job, sum, ws)
}

/// Runs `job` on the [`Isa::active`] body.
fn run(job: &Job, out: &mut [f32], ws: &mut Workspace) -> bool {
    let mut hidden = ws.take(TILE, job.l1.d_out);
    let h = hidden.data_mut();
    let isa = Isa::active();
    assert!(
        isa.is_supported(),
        "this CPU cannot run the {} body",
        isa.name()
    );
    let done = match isa {
        // SAFETY: the CPU supports avx512f (asserted just above).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f => unsafe { body_avx512f(job, out, h) },
        // SAFETY: the CPU supports avx2 (asserted just above).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { body_avx2(job, out, h) },
        _ => body::<COLS>(job, out, h),
    };
    ws.give(hidden);
    done
}

/// [`body`] compiled with `avx512f` enabled, 32-column blocks.
///
/// # Safety
///
/// The CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn body_avx512f(job: &Job, out: &mut [f32], hidden: &mut [f32]) -> bool {
    body::<COLS_512>(job, out, hidden)
}

/// [`body`] compiled with `avx2` enabled, 16-column blocks.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn body_avx2(job: &Job, out: &mut [f32], hidden: &mut [f32]) -> bool {
    body::<COLS>(job, out, hidden)
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

/// Checks the operands, then runs every tile: `C` is the register block
/// width. (No closures below: a closure is compiled as a function of its
/// own, without the caller's target features.)
#[inline(always)]
fn body<const C: usize>(job: &Job, out: &mut [f32], hidden: &mut [f32]) -> bool {
    let (l1, l2) = (job.l1, job.l2);
    if !(all_finite(l1.w) && all_finite(l2.w)) {
        return false;
    }
    assert_eq!(l1.d_out, l2.d_in, "fused MLP layers do not chain");
    assert_eq!(job.x.len(), job.rows * l1.d_in, "input shape");
    assert_eq!(hidden.len(), TILE * l1.d_out, "hidden tile shape");
    // The store epilogue is the segment sum's walk with one single-row
    // segment per row: segment `q`'s valid rows are `q·k + s` for
    // `s < len(q)`, and its output row is `q`.
    let (segments, k) = match job.epilogue {
        Epilogue::Store => (job.rows, 1),
        Epilogue::WeightedSum { weights, lens, k } => {
            assert_eq!(weights.len(), job.rows, "one weight per message row");
            (lens.len(), k)
        }
    };
    assert_eq!(out.len(), segments * l2.d_out, "output shape");
    // (source row, output row) of each tile slot.
    let mut tile = [(0usize, 0usize); TILE];
    let mut n = 0;
    for q in 0..segments {
        let len = match job.epilogue {
            Epilogue::Store => 1,
            Epilogue::WeightedSum { lens, .. } => lens[q],
        };
        assert!(len <= k, "query {q}: {len} messages exceed k = {k}");
        for slot in 0..len {
            tile[n] = (q * k + slot, q);
            n += 1;
            if n == TILE {
                run_tile::<C>(job, &tile, TILE, out, hidden);
                n = 0;
            }
        }
    }
    if n > 0 {
        // Pad the short tile with its last row; only `n` rows are emitted.
        for t in n..TILE {
            tile[t] = tile[n - 1];
        }
        run_tile::<C>(job, &tile, n, out, hidden);
    }
    true
}

/// Calls `$block::<W>(j, args…)` for the column blocks covering `0..$d`:
/// `$c`-wide blocks, then one 16- and one 8-wide block where they fit,
/// then single columns.
macro_rules! column_blocks {
    ($c:ident, $d:expr, $block:ident($($arg:expr),*)) => {{
        let d = $d;
        let mut j = 0;
        while j + $c <= d {
            $block::<$c>(j, $($arg),*);
            j += $c;
        }
        if 16 < $c && j + 16 <= d {
            $block::<16>(j, $($arg),*);
            j += 16;
        }
        if j + 8 <= d {
            $block::<8>(j, $($arg),*);
            j += 8;
        }
        while j < d {
            $block::<1>(j, $($arg),*);
            j += 1;
        }
    }};
}

/// Both layers for one tile; the first `live` tile rows go to the
/// epilogue (in tile order, which is slot order within a query).
#[inline(always)]
fn run_tile<const C: usize>(
    job: &Job,
    tile: &[(usize, usize); TILE],
    live: usize,
    out: &mut [f32],
    hidden: &mut [f32],
) {
    let (l1, l2) = (job.l1, job.l2);
    let rows: [&[f32]; TILE] = tile.map(|(r, _)| &job.x[r * l1.d_in..(r + 1) * l1.d_in]);
    column_blocks!(C, l1.d_out, layer1_block(l1, &rows, hidden));
    let dh = l1.d_out;
    let hrows: [&[f32]; TILE] = std::array::from_fn(|r| &hidden[r * dh..(r + 1) * dh]);
    column_blocks!(C, l2.d_out, layer2_block(job, &hrows, tile, live, out));
}

/// `TILE × W` dot products over the full depth of `layer`, starting at
/// output column `j`: one `+0.0`-started accumulator per element, one
/// multiply then one add per depth step, ascending.
#[inline(always)]
fn block<const W: usize>(j: usize, layer: Dense, rows: &[&[f32]; TILE]) -> [[f32; W]; TILE] {
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
fn layer1_block<const W: usize>(j: usize, l1: Dense, rows: &[&[f32]; TILE], hidden: &mut [f32]) {
    let acc = block::<W>(j, l1, rows);
    let b = &l1.b[j..][..W];
    for (r, acc_r) in acc.iter().enumerate() {
        let out = &mut hidden[r * l1.d_out + j..][..W];
        for l in 0..W {
            out[l] = (acc_r[l] + b[l]).max(0.0);
        }
    }
}

/// Layer 2 columns `j..j+W` of the tile: bias, then the epilogue for each
/// live row.
#[inline(always)]
fn layer2_block<const W: usize>(
    j: usize,
    job: &Job,
    hrows: &[&[f32]; TILE],
    tile: &[(usize, usize); TILE],
    live: usize,
    out: &mut [f32],
) {
    let l2 = job.l2;
    let acc = block::<W>(j, l2, hrows);
    let b = &l2.b[j..][..W];
    for (acc_r, &(row, dst)) in acc.iter().zip(tile).take(live) {
        let o = &mut out[dst * l2.d_out + j..][..W];
        match job.epilogue {
            Epilogue::Store => {
                for l in 0..W {
                    o[l] = acc_r[l] + b[l];
                }
            }
            Epilogue::WeightedSum { weights, .. } => {
                let wt = weights[row];
                for l in 0..W {
                    o[l] += (acc_r[l] + b[l]) * wt;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{with_isa, Isa};
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

    /// Inputs with ~30% exact zeros.
    fn inputs(rng: &mut StdRng, rows: usize, d_in: usize) -> Matrix {
        Matrix::from_fn(rows, d_in, |_, _| {
            if rng.random_range(0.0f32..1.0) < 0.3 {
                0.0
            } else {
                rng.random_range(-2.0f32..2.0)
            }
        })
    }

    /// Random messages with ~30% exact-zero inputs and some zero edge
    /// weights; padding rows hold nonzero garbage, which no path may read.
    fn case(rng: &mut StdRng, b: usize, k: usize, d_in: usize) -> Case {
        let lens: Vec<usize> = (0..b).map(|_| rng.random_range(0..=k)).collect();
        let x = inputs(rng, b * k, d_in);
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

    /// Sets one random entry of W₁ (`layer` 0) or W₂ (`layer` 1) to `bad`.
    fn poison(rng: &mut StdRng, mlp: &mut Mlp, layer: usize, bad: f32) {
        // params_mut order: W₁, b₁, W₂, b₂.
        let w = &mut mlp.params_mut()[2 * layer].value;
        let i = rng.random_range(0..w.len());
        w.data_mut()[i] = bad;
    }

    /// The unfused message sum: the layered MLP over every row, scale each
    /// row by its weight, add the valid rows of each query in slot order.
    fn reference(mlp: &Mlp, c: &Case) -> Matrix {
        let mut m = Matrix::default();
        mlp.infer_layered_into(&c.x, &mut m, &mut Workspace::new());
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

    /// A dirty output and a warm workspace, neither of which may leak into
    /// a result.
    fn dirty() -> (Matrix, Workspace) {
        let mut ws = Workspace::new();
        ws.give(Matrix::filled(7, 9, f32::NAN));
        (Matrix::filled(3, 5, f32::NAN), ws)
    }

    /// Runs `f` on every body the host supports and checks that all of
    /// them return `want` and agree on whether the fused kernel ran.
    fn on_every_body(
        want: &[u32],
        f: impl Fn(&mut Matrix, &mut Workspace) -> bool,
    ) -> Result<bool, TestCaseError> {
        let mut fused = None;
        for isa in Isa::supported() {
            let (mut out, mut ws) = dirty();
            let ran = with_isa(isa, || f(&mut out, &mut ws));
            prop_assert_eq!(bits(&out), want.to_vec(), "{:?}", isa);
            prop_assert!(fused.is_none_or(|f| f == ran), "{:?}", isa);
            fused = Some(ran);
        }
        Ok(fused.unwrap())
    }

    /// The weighted-sum epilogue against [`reference`] on every body;
    /// returns whether the fused kernel ran.
    fn check(mlp: &Mlp, c: &Case) -> Result<bool, TestCaseError> {
        let want = bits(&reference(mlp, c));
        on_every_body(&want, |sum, ws| {
            let ran = mlp.weighted_sum_fused_into(&c.x, &c.weights, &c.lens, c.k, sum, ws);
            assert_eq!(sum.shape(), (c.lens.len(), mlp.out_dim()));
            ran
        })
    }

    /// The store epilogue against the layered MLP on every body; returns
    /// whether the fused kernel ran.
    fn check_store(mlp: &Mlp, x: &Matrix) -> Result<bool, TestCaseError> {
        let mut want = Matrix::default();
        mlp.infer_layered_into(x, &mut want, &mut Workspace::new());
        on_every_body(&bits(&want), |out, ws| {
            let ran = mlp.infer_fused_into(x, out, ws);
            assert_eq!(out.shape(), (x.rows(), mlp.out_dim()));
            ran
        })
    }

    const HIDDEN: [usize; 5] = [16, 20, 24, 64, 72];

    /// Output widths hitting every column remainder of every body: 32-,
    /// 16- and 8-wide blocks and single columns.
    const OUT: [usize; 8] = [1, 2, 8, 16, 32, 40, 64, 72];

    const NON_FINITE: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

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

        /// The store epilogue ≡ the layered MLP, bit for bit, over output
        /// widths with every column remainder and row counts hitting every
        /// tile remainder.
        #[test]
        fn store_matches_layered_bitwise(
            h in prop::sample::select(HIDDEN.to_vec()),
            out in prop::sample::select(OUT.to_vec()),
            rows in 0usize..14,
            d_in in 1usize..100,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mlp = random_mlp(&mut rng, &[d_in, h, out], Activation::Relu);
            let x = inputs(&mut rng, rows, d_in);
            prop_assert!(check_store(&mlp, &x)?, "finite weights must take the fused kernel");
        }

        /// A NaN or ±inf anywhere in W₁ or W₂ takes the unfused fallback,
        /// which matches the reference bit for bit.
        #[test]
        fn non_finite_weight_takes_the_fallback(
            h in prop::sample::select(HIDDEN.to_vec()),
            k in prop::sample::select(vec![1usize, 3, 10]),
            b in 1usize..9,
            bad in prop::sample::select(NON_FINITE.to_vec()),
            layer in 0usize..2,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mlp = random_mlp(&mut rng, &[12, h, h], Activation::Relu);
            let c = case(&mut rng, b, k, 12);
            poison(&mut rng, &mut mlp, layer, bad);
            prop_assert!(!check(&mlp, &c)?, "a non-finite weight must take the fallback");
        }

        /// The same for the store epilogue.
        #[test]
        fn store_non_finite_weight_takes_the_fallback(
            h in prop::sample::select(HIDDEN.to_vec()),
            out in prop::sample::select(OUT.to_vec()),
            rows in 1usize..9,
            bad in prop::sample::select(NON_FINITE.to_vec()),
            layer in 0usize..2,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mlp = random_mlp(&mut rng, &[12, h, out], Activation::Relu);
            let x = inputs(&mut rng, rows, 12);
            poison(&mut rng, &mut mlp, layer, bad);
            prop_assert!(!check_store(&mlp, &x)?, "a non-finite weight must take the fallback");
        }
    }

    /// The case the finiteness check exists for: a NaN in W₁ row `c`
    /// meets only exact-zero inputs in column `c`. The reference skips
    /// those zeros, so its output is finite; a branch-free kernel would
    /// add `0 · NaN` and poison the result. The fallback must keep the
    /// reference's finite bits, in both epilogues.
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
        assert!(!check_store(&mlp, &c.x).unwrap());
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
            assert!(check_store(&mlp, &c.x).unwrap(), "b = {b}");
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
            assert!(!check_store(&mlp, &c.x).unwrap(), "{dims:?} {act:?}");
        }
    }

    /// FNV-1a over the bits of every output, in order.
    fn fnv(outs: &[Matrix]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for m in outs {
            for v in m.data() {
                for byte in v.to_bits().to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// SLIM's default MLP shapes (d_v=32, k=10, hidden=64, out_dim 2):
    /// MLP₁ 56→64→64, MLP₂ 96→64→64 and the decoder 64→64→2, with random
    /// biases, over fixed inputs with ~30% exact zeros and ragged `lens`.
    /// Returns the hashes of `infer_into` (each MLP over 37 rows) and of
    /// `infer_weighted_sum_into` (each MLP over 37 queries × k=10).
    fn golden_hashes() -> (u64, u64) {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut infer = Vec::new();
        let mut sums = Vec::new();
        for dims in [[56, 64, 64], [96, 64, 64], [64, 64, 2]] {
            let mlp = random_mlp(&mut rng, &dims, Activation::Relu);
            let c = case(&mut rng, 37, 10, dims[0]);
            let rows = Matrix::from_fn(37, dims[0], |r, j| c.x.get(r * 3 % c.x.rows(), j));
            let mut ws = Workspace::new();
            let mut out = Matrix::default();
            mlp.infer_into(&rows, &mut out, &mut ws);
            infer.push(out);
            let mut sum = Matrix::default();
            mlp.infer_weighted_sum_into(&c.x, &c.weights, &c.lens, c.k, &mut sum, &mut ws);
            sums.push(sum);
        }
        (fnv(&infer), fnv(&sums))
    }

    /// The outputs at SLIM's default shapes hash to the constants recorded
    /// before the fused kernel covered `infer_into` (when it ran layer by
    /// layer on the matmul backend), on every body the host supports.
    #[test]
    fn golden_bits() {
        let names: Vec<&str> = Isa::supported().map(Isa::name).collect();
        for isa in Isa::supported() {
            let (infer, sums) = with_isa(isa, golden_hashes);
            assert_eq!(infer, 0xeb21_9132_940c_239f, "infer_into on {isa:?}");
            assert_eq!(
                sums, 0xa94b_930a_3437_214e,
                "infer_weighted_sum_into on {isa:?}"
            );
        }
        eprintln!("fused bodies checked: {}", names.join(" "));
    }
}
