//! # bltc-core — the barycentric Lagrange treecode (BLTC)
//!
//! Kernel-independent `O(N log N)` fast summation of particle interactions
//!
//! ```text
//!   phi(x_i) = sum_j G(x_i, y_j) q_j ,   i = 1..N
//! ```
//!
//! following Vaughn, Wilson & Krasny, *A GPU-Accelerated Barycentric
//! Lagrange Treecode* (2020). Well-separated particle–cluster interactions
//! are approximated by barycentric Lagrange interpolation of the kernel at
//! Chebyshev points of the second kind: the cluster's sources are replaced
//! by `(n+1)^3` Chebyshev proxy points carrying *modified charges*, and the
//! approximation keeps the same direct-sum form as the exact interaction —
//! the property that makes the method map efficiently onto GPUs.
//!
//! This crate contains the full sequential and shared-memory-parallel
//! algorithm: geometry, interpolation, kernels, the source-cluster octree,
//! target batches, the multipole acceptance criterion (MAC), modified
//! charge computation, dual traversal into interaction lists, and the CPU
//! compute engines. The GPU mapping lives in `bltc-gpu` (on top of the
//! `gpu-sim` execution model) and the distributed pipeline in `bltc-dist`.
//!
//! ## Module map
//!
//! - [`geometry`] — points and bounding boxes
//! - [`interp`] — Chebyshev points, barycentric weights, 1D/3D evaluation
//! - [`kernel`] — the [`kernel::Kernel`] trait and concrete potentials
//! - [`particles`] — SoA particle storage and random generators
//! - [`tree`] — source-cluster octree and target batches
//! - [`mac`] — the two-condition multipole acceptance criterion (Eq. 13)
//! - [`charges`] — modified charges via the two-phase scheme (Eq. 14–15)
//! - [`traversal`] — batch × tree traversal producing interaction lists
//! - [`p2p`] — the batch × cluster loop (Eq. 9 and Eq. 11) every engine runs
//! - [`pairs`] — mutual near-field leaf pairs, evaluated once per pair
//! - [`engine`] — serial and parallel CPU engines, plus direct summation
//! - [`error`] — relative 2-norm error (Eq. 16)
//! - [`cost`] — analytic op-count → seconds models shared with the GPU sim
//!
//! ## Example
//!
//! The whole method in five lines — treecode potentials within MAC
//! accuracy of the `O(N²)` direct sum:
//!
//! ```
//! use bltc_core::prelude::*;
//!
//! let ps = ParticleSet::random_cube(1_000, 42);
//! let engine = SerialEngine::new(BltcParams::new(0.7, 6, 100, 100));
//! let approx = engine.compute(&ps, &ps, &Coulomb);
//! let exact = direct_sum(&ps, &ps, &Coulomb);
//! assert!(relative_l2_error(&exact, &approx.potentials) < 1e-4);
//! ```

pub mod charges;
pub mod config;
pub mod cost;
pub mod engine;
pub mod error;
pub mod field;
pub mod geometry;
pub mod interp;
pub mod kernel;
pub mod mac;
pub mod p2p;
pub mod pairs;
pub mod particles;
pub mod traversal;
pub mod tree;
pub mod variants;

/// Convenient glob-import of the public API surface.
pub mod prelude {
    pub use crate::charges::ClusterCharges;
    pub use crate::config::BltcParams;
    pub use crate::cost::{CpuSpec, OpCounts};
    pub use crate::engine::{
        direct_sum, direct_sum_subset, ComputeResult, ParallelEngine, PreparedTreecode,
        SerialEngine, TreecodeEngine,
    };
    pub use crate::error::{relative_l2_error, sampled_relative_l2_error};
    pub use crate::field::{direct_sum_field, FieldResult};
    pub use crate::geometry::{BoundingBox, Point3};
    pub use crate::interp::chebyshev::ChebyshevGrid1D;
    pub use crate::interp::tensor::TensorGrid;
    pub use crate::kernel::{
        Coulomb, Gaussian, GradientKernel, Kernel, RegularizedCoulomb, RegularizedYukawa, Yukawa,
    };
    pub use crate::mac::Mac;
    pub use crate::particles::ParticleSet;
    pub use crate::traversal::{InteractionKind, InteractionLists};
    pub use crate::tree::{batch::TargetBatches, SourceTree};
    pub use crate::variants::TreecodeVariant;
}
