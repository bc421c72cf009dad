//! Pluggable linear-algebra backends for [`Matrix`] products.
//!
//! Every dense product in the workspace (SLIM forward/backward, every
//! baseline, the embedding solvers) funnels through the three kernels on
//! this trait, so swapping the execution strategy here retunes the whole
//! stack. Three backends ship today:
//!
//! * [`NaiveBackend`] — the original reference triple loops, kept as the
//!   semantic ground truth and for debugging;
//! * [`BlockedBackend`] — serial cache-blocked kernels (row-chunked with a
//!   depth-blocked inner loop) with register-tiled microkernels: the
//!   `nn`/`tn` products run a 4-way `k`-unrolled fused rank-1 update that
//!   keeps each output element in a register across four `k` steps (4×
//!   less output traffic, SIMD-friendly row sweeps), and the `nt` product
//!   runs a 4×4 tile of sixteen *independent* dot-product chains, hiding
//!   the floating-point add latency that serializes a lone accumulator;
//! * [`ParallelBackend`] (feature `parallel`, on by default) — the blocked
//!   kernels fanned out over scoped threads, partitioned by output row.
//!
//! **Buffer ownership.** The primitive operations are the `*_into` methods,
//! which write into a caller-owned, pre-shaped output matrix and never
//! allocate; the allocating `matmul*` methods are provided wrappers that
//! create the output and delegate. Hot loops hold their outputs in a
//! [`crate::Workspace`] and call the `*_into` form ([`Matrix::matmul_into`]
//! resizes the buffer for you). The `*_into` methods panic when the operand
//! shapes disagree or `out` has the wrong shape; `out`'s *contents* are
//! irrelevant (they are overwritten, not accumulated into).
//!
//! **Determinism.** All three backends accumulate every output element in
//! ascending-`k` order with a single `f32` accumulation chain, so their
//! results are *bit-identical* — to each other and to the pre-backend
//! scalar code. Register tiling preserves this: every accumulator is
//! loaded from the output element it owns, receives the same multiplies
//! and additions in the same ascending-`k` order as the scalar loop
//! (unrolling fuses loop iterations, never reassociates sums), and is
//! stored back. The naive kernels' zero-skip (`a` elements that are
//! exactly `0.0` contribute no addition) is likewise preserved: the fused
//! fast path only runs when its `a` quad is zero-free. Parallelism only
//! changes which thread computes a row, never the order of floating-point
//! operations within it. Tests therefore pass unchanged with
//! any backend, and `--no-default-features` builds are a scheduling
//! fallback, not a numeric fork.
//!
//! **Skipping zeros vs. adding them.** The fused inference kernel behind
//! [`crate::Mlp::infer_into`] and [`crate::Mlp::infer_weighted_sum_into`]
//! (two-layer ReLU MLPs) is branch-free: it adds `a·b` for every `a`,
//! zeros included, where these kernels skip `a == 0.0`. The two agree bit
//! for bit whenever every `b` is finite, for this reason. An accumulator
//! starts at `+0.0`, and it receives multiply-then-add steps (no FMA).
//! In round-to-nearest, `x + y` is `−0.0` only when
//! both `x` and `y` are `−0.0`, so an accumulator that starts at `+0.0`
//! can never become `−0.0`. A skipped step has `a = ±0`, so its product
//! `a·b` is `±0` when `b` is finite, and adding `±0` to any value that is
//! not `−0.0` leaves it unchanged (NaN and ±inf included). So the extra
//! additions change nothing, and the bias is added after the sum in both
//! forms. A non-finite `b` breaks this (`0·inf` and `0·NaN` are NaN), so
//! the fused kernel scans its weight matrices on every call and hands any
//! model with a NaN or ±inf weight to the unfused path instead. The
//! argument holds lane by lane, so it covers each of the kernel's
//! compiled bodies (portable, `avx2`, `avx512f`; [`crate::Isa`]): a
//! vector lane makes exactly the scalar multiply and add of its element,
//! and no body contracts them into an FMA.
//!
//! Future SIMD or GPU backends slot in by implementing [`Backend`]; batch
//! call sites that want an explicit choice use [`Matrix::matmul_with`].

use crate::matrix::Matrix;

/// Rows of the left operand processed per cache block.
const MC: usize = 32;
/// Depth (`k`) elements processed per cache block.
const KC: usize = 256;
/// `k`-unroll factor of the fused rank-1 microkernel (`nn`/`tn` kernels).
const UK: usize = 4;
/// Output rows per register tile in the dot-product (`nt`) microkernel.
const MR: usize = 4;
/// Output columns per register tile in the dot-product (`nt`) microkernel.
const NR: usize = 4;
/// Minimum multiply-add count before [`ParallelBackend`] spawns threads;
/// below this the fork/join overhead outweighs the speedup.
#[cfg(feature = "parallel")]
const PAR_MIN_FLOPS: usize = 1 << 18;

/// A linear-algebra execution strategy for the three dense products the
/// layers need. Implementations must return results bit-identical to
/// [`NaiveBackend`] (ascending-`k` single-chain accumulation per element).
///
/// The `*_into` methods are the required primitives: they overwrite a
/// caller-owned output and perform no heap allocation. The allocating
/// `matmul*` methods are provided wrappers.
pub trait Backend: Send + Sync {
    /// Human-readable backend name (used by benchmarks and diagnostics).
    fn name(&self) -> &'static str;

    /// `a · b` into `out`; shapes `(m,n)·(n,p) → (m,p)`.
    ///
    /// Panics unless `a.cols() == b.rows()` and `out` is already `(m,p)`.
    /// `out`'s contents are overwritten; no allocation is performed.
    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// `aᵀ · b` into `out`; shapes `(m,n)ᵀ·(m,p) → (n,p)` (weight
    /// gradients). Panics unless `a.rows() == b.rows()` and `out` is
    /// `(n,p)`. `out` is overwritten; no allocation is performed.
    fn matmul_tn_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// `a · bᵀ` into `out`; shapes `(m,n)·(p,n)ᵀ → (m,p)` (input
    /// gradients). Panics unless `a.cols() == b.cols()` and `out` is
    /// `(m,p)`. `out` is overwritten; no allocation is performed.
    fn matmul_nt_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// `a · b`; shapes `(m,n)·(n,p) → (m,p)`.
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        check_nn(a, b);
        let mut out = Matrix::zeros(a.rows(), b.cols());
        self.matmul_into(a, b, &mut out);
        out
    }

    /// `aᵀ · b`; shapes `(m,n)ᵀ·(m,p) → (n,p)` (weight gradients).
    fn matmul_tn(&self, a: &Matrix, b: &Matrix) -> Matrix {
        check_tn(a, b);
        let mut out = Matrix::zeros(a.cols(), b.cols());
        self.matmul_tn_into(a, b, &mut out);
        out
    }

    /// `a · bᵀ`; shapes `(m,n)·(p,n)ᵀ → (m,p)` (input gradients).
    fn matmul_nt(&self, a: &Matrix, b: &Matrix) -> Matrix {
        check_nt(a, b);
        let mut out = Matrix::zeros(a.rows(), b.rows());
        self.matmul_nt_into(a, b, &mut out);
        out
    }
}

fn check_nn(a: &Matrix, b: &Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
}

fn check_tn(a: &Matrix, b: &Matrix) {
    assert_eq!(a.rows(), b.rows(), "matmul_tn shape mismatch");
}

fn check_nt(a: &Matrix, b: &Matrix) {
    assert_eq!(a.cols(), b.cols(), "matmul_nt shape mismatch");
}

fn check_out(out: &Matrix, rows: usize, cols: usize) {
    assert_eq!(out.shape(), (rows, cols), "matmul_into output shape mismatch");
}

/// The original single-threaded scalar loops, kept verbatim as the
/// reference implementation every other backend must match bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveBackend;

impl Backend for NaiveBackend {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nn(a, b);
        let (m, n) = (a.rows(), a.cols());
        check_out(out, m, b.cols());
        out.fill_zero();
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &av) in a_row.iter().enumerate().take(n) {
                if av == 0.0 {
                    continue;
                }
                let b_row = b.row(k);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    fn matmul_tn_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_tn(a, b);
        let (m, n) = (a.rows(), a.cols());
        check_out(out, n, b.cols());
        out.fill_zero();
        for k in 0..m {
            let a_row = a.row(k);
            let b_row = b.row(k);
            for (i, &av) in a_row.iter().enumerate().take(n) {
                if av == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    fn matmul_nt_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nt(a, b);
        let (m, n) = (a.rows(), a.cols());
        check_out(out, m, b.rows());
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += a_row[k] * b_row[k];
                }
                *o = acc;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared blocked kernels. Each writes a contiguous *chunk* of output rows,
// so the serial backend passes the whole output and the parallel backend
// passes per-thread slices. `row0` is the absolute index of the chunk's
// first output row. The accumulating `nn`/`tn` kernels assume `out_chunk`
// arrives zeroed (their `*_into` entry points zero it); the `nt` kernel
// assigns every output element, so its entry points skip the zeroing pass.
//
// The inner loops are 4×4 register-tiled: a tile of MR×NR output elements
// is loaded into scalar accumulators, swept over a `k` block in ascending
// order, and stored back. Loading the accumulators from `out` (rather than
// starting at zero and adding at the end) is what keeps each element's
// floating-point chain identical to the naive loop across `k` blocks.

/// One zero-skipping scalar-times-row update — the naive kernel's inner
/// loop, shared by the fallback and remainder paths.
#[inline(always)]
fn saxpy_row(av: f32, b_row: &[f32], out_row: &mut [f32]) {
    if av == 0.0 {
        return;
    }
    for (o, &bv) in out_row.iter_mut().zip(b_row) {
        *o += av * bv;
    }
}

/// `a · b` into `out_chunk` (rows `row0 ..`), depth-blocked by [`KC`],
/// row-chunked by [`MC`], with an [`UK`]-way `k`-unrolled register
/// microkernel: when the next [`UK`] elements of the `a` row are all
/// nonzero, their four rank-1 updates run fused in one pass over the output
/// row, so each output element is read and written once per [`UK`] `k`
/// steps instead of once per step. The fused pass performs the same
/// multiplies and additions in the same ascending-`k` order as the scalar
/// path, so the result is bit-identical; any zero in the quad falls back to
/// the zero-skipping scalar updates.
fn nn_chunk(a: &[f32], n: usize, b: &[f32], p: usize, out_chunk: &mut [f32], row0: usize) {
    let rows = out_chunk.len() / p.max(1);
    for rr in (0..rows).step_by(MC) {
        let rend = (rr + MC).min(rows);
        for kk in (0..n).step_by(KC) {
            let kend = (kk + KC).min(n);
            for r in rr..rend {
                let a_row = &a[(row0 + r) * n..(row0 + r) * n + n];
                let out_row = &mut out_chunk[r * p..(r + 1) * p];
                let mut k = kk;
                while k + UK <= kend {
                    let av = [a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]];
                    if av[0] != 0.0 && av[1] != 0.0 && av[2] != 0.0 && av[3] != 0.0 {
                        let b0 = &b[k * p..k * p + p];
                        let b1 = &b[(k + 1) * p..(k + 1) * p + p];
                        let b2 = &b[(k + 2) * p..(k + 2) * p + p];
                        let b3 = &b[(k + 3) * p..(k + 3) * p + p];
                        for j in 0..p {
                            let mut o = out_row[j];
                            o += av[0] * b0[j];
                            o += av[1] * b1[j];
                            o += av[2] * b2[j];
                            o += av[3] * b3[j];
                            out_row[j] = o;
                        }
                    } else {
                        for (dk, &v) in av.iter().enumerate() {
                            saxpy_row(v, &b[(k + dk) * p..(k + dk) * p + p], out_row);
                        }
                    }
                    k += UK;
                }
                for k in k..kend {
                    saxpy_row(a_row[k], &b[k * p..k * p + p], out_row);
                }
            }
        }
    }
}

/// `aᵀ · b` into `out_chunk` (output rows `row0 ..`, i.e. columns of `a`).
/// Streams `a` and `b` [`UK`] rows at a time (fully sequential access, no
/// transpose materialized) and scatters fused quad updates into the chunk's
/// rows: when the quad's four `a` values for an output row are all nonzero,
/// the four rank-1 contributions run in one pass over that row, quartering
/// the output-row traffic; otherwise the zero-skipping scalar updates run.
/// Either way each element's additions happen in ascending-`k` order —
/// bit-identical to the naive kernel.
fn tn_chunk(
    a: &[f32],
    m: usize,
    n: usize,
    b: &[f32],
    p: usize,
    out_chunk: &mut [f32],
    row0: usize,
) {
    let rows = out_chunk.len() / p.max(1);
    let mut k = 0;
    while k + UK <= m {
        let a0 = &a[k * n..k * n + n];
        let a1 = &a[(k + 1) * n..(k + 1) * n + n];
        let a2 = &a[(k + 2) * n..(k + 2) * n + n];
        let a3 = &a[(k + 3) * n..(k + 3) * n + n];
        let b0 = &b[k * p..k * p + p];
        let b1 = &b[(k + 1) * p..(k + 1) * p + p];
        let b2 = &b[(k + 2) * p..(k + 2) * p + p];
        let b3 = &b[(k + 3) * p..(k + 3) * p + p];
        for r in 0..rows {
            let i = row0 + r;
            let av = [a0[i], a1[i], a2[i], a3[i]];
            let out_row = &mut out_chunk[r * p..(r + 1) * p];
            if av[0] != 0.0 && av[1] != 0.0 && av[2] != 0.0 && av[3] != 0.0 {
                for j in 0..p {
                    let mut o = out_row[j];
                    o += av[0] * b0[j];
                    o += av[1] * b1[j];
                    o += av[2] * b2[j];
                    o += av[3] * b3[j];
                    out_row[j] = o;
                }
            } else {
                saxpy_row(av[0], b0, out_row);
                saxpy_row(av[1], b1, out_row);
                saxpy_row(av[2], b2, out_row);
                saxpy_row(av[3], b3, out_row);
            }
        }
        k += UK;
    }
    for k in k..m {
        let a_row = &a[k * n..k * n + n];
        let b_row = &b[k * p..k * p + p];
        for r in 0..rows {
            saxpy_row(a_row[row0 + r], b_row, &mut out_chunk[r * p..(r + 1) * p]);
        }
    }
}

/// Computes output rows `r..r+MR`, cols `j..j+NR` of the `a · bᵀ` chunk:
/// 16 dot products sharing 4 streams of `a` and 4 streams of `b`.
///
/// The flat scalar parameter list is deliberate: the microkernel is
/// monomorphic and `inline(always)`, and bundling the operands into a
/// struct buys nothing but indirection here.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nt_tile(
    a: &[f32],
    n: usize,
    b: &[f32],
    p: usize,
    out_chunk: &mut [f32],
    row0: usize,
    r: usize,
    j: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    let abase = [
        (row0 + r) * n,
        (row0 + r + 1) * n,
        (row0 + r + 2) * n,
        (row0 + r + 3) * n,
    ];
    let bbase = [j * n, (j + 1) * n, (j + 2) * n, (j + 3) * n];
    for k in 0..n {
        let av = [
            a[abase[0] + k],
            a[abase[1] + k],
            a[abase[2] + k],
            a[abase[3] + k],
        ];
        let bv = [
            b[bbase[0] + k],
            b[bbase[1] + k],
            b[bbase[2] + k],
            b[bbase[3] + k],
        ];
        for ri in 0..MR {
            acc[ri][0] += av[ri] * bv[0];
            acc[ri][1] += av[ri] * bv[1];
            acc[ri][2] += av[ri] * bv[2];
            acc[ri][3] += av[ri] * bv[3];
        }
    }
    for (ri, accr) in acc.iter().enumerate() {
        let o = (r + ri) * p + j;
        out_chunk[o..o + NR].copy_from_slice(accr);
    }
}

/// Scalar dot product for `a · bᵀ` tile remainders — the naive chain.
/// (Same flat-parameter rationale as [`nt_tile`].)
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nt_elem(
    a: &[f32],
    n: usize,
    b: &[f32],
    p: usize,
    out_chunk: &mut [f32],
    row0: usize,
    r: usize,
    j: usize,
) {
    let a_row = &a[(row0 + r) * n..(row0 + r) * n + n];
    let b_row = &b[j * n..j * n + n];
    let mut acc = 0.0f32;
    for k in 0..n {
        acc += a_row[k] * b_row[k];
    }
    out_chunk[r * p + j] = acc;
}

/// `a · bᵀ` into `out_chunk` (rows `row0 ..`): blocked dot products with a
/// 4×4 register tile; one single-chain accumulator per element
/// (bit-identical to the naive loop).
fn nt_chunk(a: &[f32], n: usize, b: &[f32], p: usize, out_chunk: &mut [f32], row0: usize) {
    let rows = out_chunk.len() / p.max(1);
    for rr in (0..rows).step_by(MC) {
        let rend = (rr + MC).min(rows);
        for jj in (0..p).step_by(MC) {
            let jend = (jj + MC).min(p);
            let jt = jj + (jend - jj) - (jend - jj) % NR;
            let mut r = rr;
            while r + MR <= rend {
                let mut j = jj;
                while j < jt {
                    nt_tile(a, n, b, p, out_chunk, row0, r, j);
                    j += NR;
                }
                for j in jt..jend {
                    for ri in 0..MR {
                        nt_elem(a, n, b, p, out_chunk, row0, r + ri, j);
                    }
                }
                r += MR;
            }
            for rt in r..rend {
                for j in jj..jend {
                    nt_elem(a, n, b, p, out_chunk, row0, rt, j);
                }
            }
        }
    }
}

/// Serial cache-blocked, register-tiled kernels; the single-thread fallback
/// of [`ParallelBackend`] and the default when the `parallel` feature is
/// off.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockedBackend;

impl Backend for BlockedBackend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nn(a, b);
        let (m, n, p) = (a.rows(), a.cols(), b.cols());
        check_out(out, m, p);
        out.fill_zero();
        nn_chunk(a.data(), n, b.data(), p, out.data_mut(), 0);
    }

    fn matmul_tn_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_tn(a, b);
        let (m, n, p) = (a.rows(), a.cols(), b.cols());
        check_out(out, n, p);
        out.fill_zero();
        tn_chunk(a.data(), m, n, b.data(), p, out.data_mut(), 0);
    }

    fn matmul_nt_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nt(a, b);
        let (m, n, p) = (a.rows(), a.cols(), b.rows());
        check_out(out, m, p);
        // No zeroing pass: nt_chunk assigns every output element.
        nt_chunk(a.data(), n, b.data(), p, out.data_mut(), 0);
    }
}

#[cfg(feature = "parallel")]
thread_local! {
    static SERIAL_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with [`ParallelBackend`] pinned to its serial blocked kernels
/// on the current thread.
///
/// For callers that already fan out at a coarser grain (e.g. chunk-parallel
/// batched inference): nesting thread spawns inside worker threads
/// oversubscribes the machine without changing any result, so workers wrap
/// their inner loop in this guard. Results are unaffected — serial and
/// parallel kernels are bit-identical by contract.
#[cfg(feature = "parallel")]
pub fn with_serial_backend<T>(f: impl FnOnce() -> T) -> T {
    let prev = SERIAL_ONLY.with(|c| c.replace(true));
    let out = f();
    SERIAL_ONLY.with(|c| c.set(prev));
    out
}

/// No-`parallel` builds are always serial; the guard is a plain call.
#[cfg(not(feature = "parallel"))]
pub fn with_serial_backend<T>(f: impl FnOnce() -> T) -> T {
    f()
}

/// Whether [`with_serial_backend`] has pinned the current thread to the
/// serial kernels. Coarse-grained fan-outs (chunk-parallel inference,
/// thread-per-shard scatter) consult this so a caller that pinned serial
/// execution — a worker thread, or an allocation-count harness — is obeyed
/// at every grain, not just inside the matmul backend.
#[cfg(feature = "parallel")]
pub fn serial_pinned() -> bool {
    SERIAL_ONLY.with(|c| c.get())
}

/// No-`parallel` builds are always serial.
#[cfg(not(feature = "parallel"))]
pub fn serial_pinned() -> bool {
    true
}

/// Worker-thread count for [`ParallelBackend`]: the machine's available
/// parallelism, resolved once. The `NN_THREADS` environment variable
/// overrides it (useful for pinning benchmark comparisons and for
/// exercising the threaded code path on small machines).
#[cfg(feature = "parallel")]
pub fn num_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("NN_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Splits `out`'s rows into contiguous per-thread chunks and runs `kernel`
/// on each chunk in a scoped thread (`kernel(chunk, row0)` receives the
/// chunk's backing slice and the absolute index of its first row). Chunks
/// are disjoint, so no synchronization is needed beyond the scope join.
///
/// Shared by the matmul kernels and by coarser-grained callers (e.g.
/// `splash::capture::encodings`) so every fan-out in the workspace honors
/// the same [`num_threads`] / `NN_THREADS` policy.
#[cfg(feature = "parallel")]
pub fn par_rows(out: &mut Matrix, kernel: impl Fn(&mut [f32], usize) + Sync) {
    par_rows_threads(out, num_threads(), kernel);
}

/// [`par_rows`] with an explicit thread count — the testable seam: unit
/// tests force uneven thread/row splits regardless of the host's cores.
#[cfg(feature = "parallel")]
fn par_rows_threads(out: &mut Matrix, threads: usize, kernel: impl Fn(&mut [f32], usize) + Sync) {
    let rows = out.rows();
    let p = out.cols();
    let threads = threads.min(rows).max(1);
    if threads <= 1 || p == 0 {
        kernel(out.data_mut(), 0);
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, chunk) in out.data_mut().chunks_mut(chunk_rows * p).enumerate() {
            let kernel = &kernel;
            scope.spawn(move || kernel(chunk, ci * chunk_rows));
        }
    });
}

/// The blocked, register-tiled kernels partitioned over output rows across
/// scoped threads. Small products (fewer than ~2¹⁸ multiply-adds) run
/// serially, where the blocked kernel already wins; either way the bits are
/// identical.
#[cfg(feature = "parallel")]
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelBackend;

#[cfg(feature = "parallel")]
impl Backend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nn(a, b);
        let (m, n, p) = (a.rows(), a.cols(), b.cols());
        if m * n * p < PAR_MIN_FLOPS || SERIAL_ONLY.with(|c| c.get()) {
            return BlockedBackend.matmul_into(a, b, out);
        }
        check_out(out, m, p);
        out.fill_zero();
        par_rows(out, |chunk, row0| {
            nn_chunk(a.data(), n, b.data(), p, chunk, row0)
        });
    }

    fn matmul_tn_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_tn(a, b);
        let (m, n, p) = (a.rows(), a.cols(), b.cols());
        if m * n * p < PAR_MIN_FLOPS || SERIAL_ONLY.with(|c| c.get()) {
            return BlockedBackend.matmul_tn_into(a, b, out);
        }
        check_out(out, n, p);
        out.fill_zero();
        par_rows(out, |chunk, row0| {
            tn_chunk(a.data(), m, n, b.data(), p, chunk, row0)
        });
    }

    fn matmul_nt_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nt(a, b);
        let (m, n, p) = (a.rows(), a.cols(), b.rows());
        if m * n * p < PAR_MIN_FLOPS || SERIAL_ONLY.with(|c| c.get()) {
            return BlockedBackend.matmul_nt_into(a, b, out);
        }
        check_out(out, m, p);
        // No zeroing pass: nt_chunk assigns every output element.
        par_rows(out, |chunk, row0| {
            nt_chunk(a.data(), n, b.data(), p, chunk, row0)
        });
    }
}

/// The backend behind [`Matrix::matmul`] and friends: [`ParallelBackend`]
/// when the `parallel` feature is on (the default), [`BlockedBackend`]
/// otherwise.
pub fn default_backend() -> &'static dyn Backend {
    #[cfg(feature = "parallel")]
    {
        static BACKEND: ParallelBackend = ParallelBackend;
        &BACKEND
    }
    #[cfg(not(feature = "parallel"))]
    {
        static BACKEND: BlockedBackend = BlockedBackend;
        &BACKEND
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::randn_matrix;
    use rand::{rngs::StdRng, SeedableRng};

    fn cases() -> Vec<(Matrix, Matrix, Matrix)> {
        let mut rng = StdRng::seed_from_u64(99);
        let mut out = Vec::new();
        for &(m, n, p) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 4),
            (7, 5, 9),
            (16, 16, 16),
            (33, 65, 17),
            (70, 129, 48),
            // Tile-remainder shapes: every combination of rows/cols mod 4,
            // tall/skinny, single-row and single-column outputs.
            (4, 4, 4),
            (5, 6, 7),
            (6, 3, 5),
            (3, 2, 3),
            (1, 40, 1),
            (1, 7, 23),
            (41, 3, 1),
            (97, 2, 2),
            (2, 2, 97),
            (39, 257, 6),
        ] {
            out.push((
                randn_matrix(m, n, 1.0, &mut rng),
                randn_matrix(n, p, 1.0, &mut rng),
                randn_matrix(m, p, 1.0, &mut rng),
            ));
        }
        out
    }

    #[test]
    fn blocked_matches_naive_bitwise() {
        for (a, b, _) in cases() {
            assert_eq!(
                NaiveBackend.matmul(&a, &b).data(),
                BlockedBackend.matmul(&a, &b).data()
            );
        }
    }

    #[test]
    fn blocked_tn_nt_match_naive_bitwise() {
        for (a, b, c) in cases() {
            // aᵀ·c : (m,n)ᵀ·(m,p); a·bᵀ needs matching cols: use (m,n)·(p,n).
            assert_eq!(
                NaiveBackend.matmul_tn(&a, &c).data(),
                BlockedBackend.matmul_tn(&a, &c).data()
            );
            let bt = b.transpose();
            assert_eq!(
                NaiveBackend.matmul_nt(&a, &bt).data(),
                BlockedBackend.matmul_nt(&a, &bt).data()
            );
        }
    }

    /// Exact zeros in `a` must take the skip path in the tiled kernels and
    /// still match the reference bit-for-bit (0·x can be −0.0, so skipping
    /// vs. adding is an observable difference the contract forbids).
    #[test]
    fn tiled_kernels_preserve_zero_skip_semantics() {
        let mut rng = StdRng::seed_from_u64(123);
        for &(m, n, p) in &[(9usize, 10usize, 11usize), (4, 4, 4), (13, 5, 6)] {
            let mut a = randn_matrix(m, n, 1.0, &mut rng);
            for (i, v) in a.data_mut().iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = 0.0;
                }
            }
            let b = randn_matrix(n, p, 1.0, &mut rng);
            assert_eq!(
                NaiveBackend.matmul(&a, &b).data(),
                BlockedBackend.matmul(&a, &b).data()
            );
            let c = randn_matrix(m, p, 1.0, &mut rng);
            assert_eq!(
                NaiveBackend.matmul_tn(&a, &c).data(),
                BlockedBackend.matmul_tn(&a, &c).data()
            );
        }
    }

    /// The `_into` forms must overwrite whatever garbage the caller's
    /// buffer holds and match the allocating forms exactly.
    #[test]
    fn into_forms_overwrite_dirty_buffers() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = randn_matrix(10, 6, 1.0, &mut rng);
        let b = randn_matrix(6, 9, 1.0, &mut rng);
        for backend in [&NaiveBackend as &dyn Backend, &BlockedBackend] {
            let mut out = Matrix::filled(10, 9, f32::NAN);
            backend.matmul_into(&a, &b, &mut out);
            assert_eq!(out.data(), backend.matmul(&a, &b).data());

            let c = randn_matrix(10, 9, 1.0, &mut rng);
            let mut out = Matrix::filled(6, 9, f32::NAN);
            backend.matmul_tn_into(&a, &c, &mut out);
            assert_eq!(out.data(), backend.matmul_tn(&a, &c).data());

            let d = randn_matrix(9, 6, 1.0, &mut rng);
            let mut out = Matrix::filled(10, 9, f32::NAN);
            backend.matmul_nt_into(&a, &d, &mut out);
            assert_eq!(out.data(), backend.matmul_nt(&a, &d).data());
        }
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn into_rejects_misshapen_output() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 5);
        BlockedBackend.matmul_into(&a, &b, &mut out);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        // Big enough to cross PAR_MIN_FLOPS and exercise real threading.
        let a = randn_matrix(130, 90, 1.0, &mut rng);
        let b = randn_matrix(90, 110, 1.0, &mut rng);
        assert_eq!(
            NaiveBackend.matmul(&a, &b).data(),
            ParallelBackend.matmul(&a, &b).data()
        );
        let c = randn_matrix(130, 110, 1.0, &mut rng);
        assert_eq!(
            NaiveBackend.matmul_tn(&a, &c).data(),
            ParallelBackend.matmul_tn(&a, &c).data()
        );
        let bt = b.transpose();
        assert_eq!(
            NaiveBackend.matmul_nt(&a, &bt).data(),
            ParallelBackend.matmul_nt(&a, &bt).data()
        );
    }

    /// Forces the scoped-thread chunking (uneven splits included) no matter
    /// how many cores the host has: the row0/chunk arithmetic must place
    /// every output row exactly where the serial kernel would.
    #[cfg(feature = "parallel")]
    #[test]
    fn forced_thread_counts_match_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let (m, n, p) = (37usize, 29usize, 23usize); // awkward, non-divisible
        let a = randn_matrix(m, n, 1.0, &mut rng);
        let b = randn_matrix(n, p, 1.0, &mut rng);
        let reference = NaiveBackend.matmul(&a, &b);
        for threads in [2usize, 3, 5, 16, 64] {
            let mut out = Matrix::zeros(m, p);
            super::par_rows_threads(&mut out, threads, |chunk, row0| {
                super::nn_chunk(a.data(), n, b.data(), p, chunk, row0)
            });
            assert_eq!(reference.data(), out.data(), "threads = {threads}");
        }
    }

    #[test]
    fn zero_sized_products() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(BlockedBackend.matmul(&a, &b).shape(), (0, 3));
        let e = Matrix::zeros(3, 0);
        let f = Matrix::zeros(0, 2);
        assert_eq!(BlockedBackend.matmul(&e, &f).shape(), (3, 2));
    }
}
