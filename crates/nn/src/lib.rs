//! Minimal neural-network substrate with hand-written backpropagation.
//!
//! The SPLASH paper and its baselines need MLPs, layer normalization, GRU
//! cells, multi-head (cross- and self-) attention, MLP-mixer blocks, a
//! learnable frequency filter, and fixed/learnable time encodings — all
//! trainable with Adam. No ML framework is available offline, so this crate
//! implements exactly that surface on top of dense `f32` matrices.
//!
//! Layers follow a *functional* convention: `forward(&self, …) -> (output,
//! cache)` and `backward(&mut self, &cache, dy) -> dinput`, with parameter
//! gradients accumulated inside each layer's [`param::Param`]s. This allows
//! a layer to be applied many times per training step (e.g. a message MLP
//! applied to every remembered edge) with correct gradient accumulation.
//! Every layer's backward pass is verified against central finite
//! differences in its unit tests.
//!
//! Execution is pluggable: every dense product dispatches through the
//! [`backend`] seam ([`Matrix::matmul`] → [`default_backend`]), whose
//! implementations — naive reference loops, cache-blocked serial kernels,
//! and a row-partitioned parallel path (feature `parallel`, on by
//! default) — are **bit-identical** by contract. Training and inference
//! therefore stay deterministic for a fixed seed regardless of thread
//! count; see the [`backend`] module docs for how that is guaranteed.
//!
//! ```
//! use nn::{Matrix, BlockedBackend, NaiveBackend};
//!
//! let a = Matrix::from_fn(64, 32, |i, j| (i + j) as f32 * 0.01);
//! let b = Matrix::from_fn(32, 48, |i, j| (i * j) as f32 * 0.001);
//! // Same bits from every backend, and from the default path:
//! assert_eq!(a.matmul(&b).data(), a.matmul_with(&b, &NaiveBackend).data());
//! assert_eq!(a.matmul(&b).data(), a.matmul_with(&b, &BlockedBackend).data());
//! ```

#![deny(missing_docs)]

pub mod activation;
pub mod attention;
pub mod backend;
pub mod dft;
mod fused;
pub mod gru;
pub mod init;
pub mod layer_norm;
pub mod linear;
pub mod loss;
pub mod matrix;
pub mod mixer;
pub mod mlp;
pub mod param;
pub mod svd;
pub mod test_util;
pub mod time_encode;
pub mod workspace;

pub use activation::{sigmoid, ActCache, Activation};
#[cfg(feature = "parallel")]
pub use backend::ParallelBackend;
pub use backend::{default_backend, with_serial_backend, Backend, BlockedBackend, NaiveBackend};
pub use attention::{
    CrossAttention, CrossAttentionCache, SelfAttention, SelfAttentionCache, TransformerBlock,
    TransformerBlockCache,
};
pub use dft::{FrequencyFilter, FrequencyFilterCache};
pub use fused::{with_isa, Isa};
pub use gru::{GruCache, GruCell};
pub use init::{he, randn, randn_matrix, xavier};
pub use layer_norm::{LayerNorm, LayerNormCache};
pub use linear::{Linear, LinearCache};
pub use loss::{
    bce_with_logits, log_softmax, mse, soft_cross_entropy, soft_cross_entropy_into, softmax,
    softmax_cross_entropy, softmax_cross_entropy_into,
};
pub use matrix::Matrix;
pub use mixer::{MixerBlock, MixerCache};
pub use mlp::{Mlp, MlpCache};
pub use param::{clip_global_norm, Adam, Param, Parameterized};
pub use svd::{truncated_svd, TruncatedSvd};
pub use time_encode::{
    DegreeEncode, FixedTimeEncode, LearnableTimeEncode, TimeEncodeCache,
};
pub use workspace::Workspace;
