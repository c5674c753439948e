//! # ttg-mra — multiresolution analysis of 3D Gaussians over TTG
//!
//! Reimplements the paper's MRA mini-app (Section V-E): "computes the
//! order-10 multi-wavelet representation of 3D Gaussian functions …
//! The computation comprises three steps: *projection* results in a 3D
//! spatial data structure; *compression* flows data up the tree; and
//! *reconstruction* flows data down the tree. Of those three steps, the
//! projection step is the most costly part, each computing a GEMM on 20^3
//! double precision matrices."
//!
//! ## Mathematical machinery (all built from scratch)
//!
//! * [`quadrature`] — Gauss–Legendre nodes/weights on [0, 1].
//! * [`basis`] — normalized Legendre scaling functions
//!   φ_j(x) = √(2j+1)·P_j(2x−1), j < k.
//! * [`twoscale`] — the two-scale filter matrices H⁰, H¹ with
//!   φ_j(x) = √2 Σ_i H^c_{ji} φ_i(2x−c); computed exactly by quadrature
//!   and orthonormal by construction (verified in tests).
//! * [`function`] — the Gaussians, with the per-axis factor that makes
//!   them separable.
//! * [`tensor`] — k³ coefficient tensors and the one kernel, a
//!   single-mode pass: a GEMM of shape k×k · k×k², k⁴ multiply-adds.
//!   A filter of eight children is 14 passes and an unfilter into
//!   eight children 14 — sum-factorised, where eight separate mode
//!   products would take 24. MADNESS gathers the children into one
//!   (2k)³ tensor instead — the paper's "GEMM on 20^3" at k = 10; that
//!   form is not implemented here.
//! * [`tree`] — the adaptive octree: projection with refinement control,
//!   compression (filter children → parent + per-child residuals), and
//!   reconstruction (unfilter + residual). A Gaussian is separable, so
//!   a refinement step — project the eight children, filter them, take
//!   the detail norm — is done per axis in rank-1 form: 6k `exp`s and
//!   O(k²) arithmetic, where the k³-point form took 8k³ `exp`s and nine
//!   mode products. The paper's "most costly part" is therefore not the
//!   projection here but compression and reconstruction.
//!
//! **Substitution note (see DESIGN.md):** MADNESS stores wavelet
//! (difference) coefficients in Alpert's multiwavelet basis. Here the
//! difference information is stored as per-child *residual tensors*
//! r_c = s_child − unfilter_c(s_parent), which span exactly the same
//! complement space (the two-scale relation is orthonormal, so
//! Σ‖s_child‖² = ‖s_parent‖² + Σ‖r_c‖², verified in tests) — the task
//! graph shape and GEMM kernels are unchanged, only the basis of the
//! stored residuals differs.
//!
//! ## The TTG pipeline
//!
//! [`ttg_pipeline::MraTtg`] runs Project → Compress → Reconstruct as
//! three template tasks over keys `(function, box)`, with Compress
//! aggregating exactly 8 child contributions per box (aggregator
//! terminals) and Reconstruct broadcasting down the tree. A serial
//! implementation ([`serial`]) provides the correctness oracle: the TTG
//! pipeline must reproduce its leaf coefficients bit-for-bit-close.

#![warn(missing_docs)]
// Explicit index loops mirror the mathematical notation in tensor code.
#![allow(clippy::needless_range_loop)]

pub mod basis;
pub mod function;
pub mod quadrature;
pub mod serial;
pub mod tensor;
pub mod tree;
pub mod ttg_pipeline;
pub mod twoscale;

pub use function::Gaussian3;
pub use tensor::{Matrix, Tensor3};
pub use tree::{BoxKey, MraParams};
pub use ttg_pipeline::MraTtg;

/// Default multiwavelet order (the paper's "order-10").
pub const DEFAULT_K: usize = 10;
