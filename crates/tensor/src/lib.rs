#![warn(missing_docs)]

//! # ncl-tensor
//!
//! Dense `f32` linear-algebra substrate for the NCL reproduction of
//! *Fine-grained Concept Linking using Neural Networks in Healthcare*
//! (Dai et al., SIGMOD 2018).
//!
//! The paper's original system implements its neural networks in a custom
//! C++ library; this crate is the Rust equivalent. It provides:
//!
//! * [`Vector`] and [`Matrix`] — row-major dense containers with the BLAS-1/2/3
//!   kernels (`axpy`, `dot`, `gemv`, `gemm`, outer products) that LSTM
//!   forward/backward passes need,
//! * [`ops`] — numerically careful activations (`sigmoid`, `tanh`,
//!   `softmax`, `log_softmax`) and their derivatives,
//! * [`libm`] — the repo's own `expf` / `tanhf` (exact ports of the two
//!   algorithms every pinned digest was recorded through), scalar and
//!   eight lanes wide, behind every activation above,
//! * [`simd`] — runtime-dispatched AVX2/SSE2/scalar kernels behind the
//!   hot `Matrix`/`Vector` paths, bit-identical to the scalar reference
//!   (vectorised across outputs, never across a reduction),
//! * [`init`] — Xavier/uniform parameter initialisation,
//! * [`pca`] — principal component analysis by power iteration, used to
//!   regenerate the representation-shift snapshots of Figure 10,
//! * [`stats`] — mean/std-dev/percentile helpers used by the feedback
//!   controller (Appendix A) and the experiment harness.
//!
//! Everything is deliberately dependency-light (only `rand`) and fully
//! deterministic given a seeded RNG, so experiments are reproducible.

pub mod init;
pub mod libm;
pub mod matrix;
pub mod ops;
pub mod pca;
pub mod pool;
pub mod simd;
pub mod stats;
pub mod vector;
pub mod wire;

pub use matrix::Matrix;
pub use vector::Vector;
pub use wire::{Reader, Wire, WireError};

/// Tolerance used throughout the crate's internal assertions.
pub const EPS: f32 = 1e-6;
