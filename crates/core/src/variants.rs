//! Barycentric **cluster-particle** and **cluster-cluster** treecode
//! variants — the §5 future-work direction the paper cites as
//! \[30\]–\[32\].
//!
//! The particle-cluster (PC) scheme of the paper interpolates the kernel
//! over the *source* cluster. Its duals:
//!
//! - **cluster-particle (CP)**: interpolate over the *target* batch —
//!   compute "modified potentials" `Φ_k` at the batch's Chebyshev points
//!   from the raw sources, then interpolate `φ(x) ≈ Σ_k L_k(x) Φ_k`
//!   back to the targets. Pair cost `(n+1)³ · N_C`.
//! - **cluster-cluster (CC)**: interpolate over both — batch proxies
//!   interact with source proxies carrying modified charges. Pair cost
//!   `(n+1)⁶`, independent of both populations: the cheapest option
//!   when both sides are large (the stepping stone toward FMM-like
//!   complexity).
//!
//! All three share the tree, batches, MAC, interaction lists and
//! modified charges of [`crate::engine::PreparedTreecode`]; only the
//! evaluation of the *approximated* pairs differs (direct pairs are
//! identical).

use crate::engine::{eval_batch_into, PreparedTreecode};
use crate::interp::barycentric::lagrange_values;
use crate::interp::tensor::TensorGrid;
use crate::kernel::Kernel;
use crate::p2p::{Sources, Targets};
use crate::traversal::BatchLists;

/// Which interpolation scheme evaluates the well-separated pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreecodeVariant {
    /// The paper's scheme: source-side interpolation (Eq. 11).
    ParticleCluster,
    /// Target-side interpolation (dual scheme).
    ClusterParticle,
    /// Interpolation on both sides.
    ClusterCluster,
}

impl PreparedTreecode {
    /// Evaluate potentials under the chosen variant (serial). Returns
    /// potentials in original target order.
    ///
    /// `ParticleCluster` reproduces [`PreparedTreecode::evaluate_serial`]
    /// bitwise; the other variants agree to the interpolation accuracy.
    pub fn evaluate_variant(&self, kernel: &dyn Kernel, variant: TreecodeVariant) -> Vec<f64> {
        if variant == TreecodeVariant::ParticleCluster {
            return self.evaluate_serial(kernel).0;
        }
        let tp = self.batches.particles();
        let sp = self.tree.particles();
        let m = self.params.degree + 1;
        let m3 = self.params.proxy_count();
        let mut reordered = vec![0.0; tp.len()];

        // Scratch for per-dimension Lagrange values at a target.
        let mut l1 = vec![0.0; m];
        let mut l2 = vec![0.0; m];
        let mut l3 = vec![0.0; m];

        for (b, bl) in self.batches.batches().iter().zip(&self.lists.per_batch) {
            let out = &mut reordered[b.start..b.end];

            // Direct pairs: identical to the PC path.
            let direct_only = BatchLists {
                approx: Vec::new(),
                direct: bl.direct.clone(),
            };
            eval_batch_into(b, &direct_only, &self.tree, &self.charges, tp, kernel, out);

            if bl.approx.is_empty() {
                continue;
            }

            // Modified potentials at the batch's Chebyshev points.
            let bgrid = TensorGrid::new(self.params.degree, &b.bbox);
            let mut bproxies = Default::default();
            bgrid.extend_proxy_columns(&mut bproxies);
            let [px, py, pz] = &bproxies;
            let proxies = Targets::new(px, py, pz);
            let mut phi = vec![0.0; m3];
            for &ci in &bl.approx {
                let ci = ci as usize;
                let sources = match variant {
                    // Batch proxies × raw cluster sources.
                    TreecodeVariant::ClusterParticle => {
                        let node = self.tree.node(ci);
                        Sources::of(sp, node.start..node.end)
                    }
                    // Batch proxies × source proxies (modified charges).
                    TreecodeVariant::ClusterCluster => self.charges.proxy_sources(ci),
                    TreecodeVariant::ParticleCluster => unreachable!(),
                };
                kernel.p2p_potential(proxies, sources, &mut phi);
            }

            // Interpolate the accumulated far-field back to the targets:
            // φ(x) += Σ_k L_{k1}(x₁) L_{k2}(x₂) L_{k3}(x₃) Φ_k.
            for (t, slot) in (b.start..b.end).zip(out.iter_mut()) {
                lagrange_values(bgrid.dim(0), tp.x[t], &mut l1);
                lagrange_values(bgrid.dim(1), tp.y[t], &mut l2);
                lagrange_values(bgrid.dim(2), tp.z[t], &mut l3);
                let mut acc = 0.0;
                // Explicit indices: `(k1·m + k2)·m + k3` is the linear
                // proxy layout shared with the GPU buffers.
                #[allow(clippy::needless_range_loop)]
                for k1 in 0..m {
                    if l1[k1] == 0.0 {
                        continue;
                    }
                    let base1 = k1 * m;
                    for k2 in 0..m {
                        let c12 = l1[k1] * l2[k2];
                        if c12 == 0.0 {
                            continue;
                        }
                        let base = (base1 + k2) * m;
                        for (k3, &l) in l3.iter().enumerate() {
                            acc += c12 * l * phi[base + k3];
                        }
                    }
                }
                *slot += acc;
            }
        }
        self.batches.scatter_to_original(&reordered)
    }

    /// Kernel evaluations the *approximated* pairs cost under a variant
    /// (direct pairs cost the same in all three). Lets harnesses compare
    /// the crossover structure of the three schemes.
    pub fn approx_evals_for_variant(&self, variant: TreecodeVariant) -> u64 {
        let m3 = self.params.proxy_count() as u64;
        let mut total = 0u64;
        for (b, bl) in self.batches.batches().iter().zip(&self.lists.per_batch) {
            let nb = b.num_targets() as u64;
            for &ci in &bl.approx {
                let nc = self.tree.node(ci as usize).num_particles() as u64;
                total += match variant {
                    TreecodeVariant::ParticleCluster => nb * m3,
                    TreecodeVariant::ClusterParticle => m3 * nc,
                    TreecodeVariant::ClusterCluster => m3 * m3,
                };
            }
            // CP/CC also pay the back-interpolation, kernel-free:
            // counted separately by callers if needed.
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BltcParams;
    use crate::engine::direct_sum;
    use crate::error::relative_l2_error;
    use crate::kernel::{Coulomb, Yukawa};
    use crate::particles::ParticleSet;

    fn prep(
        n: usize,
        seed: u64,
        theta: f64,
        degree: usize,
        cap: usize,
    ) -> (ParticleSet, PreparedTreecode) {
        let ps = ParticleSet::random_cube(n, seed);
        let p = PreparedTreecode::new(&ps, &ps, BltcParams::new(theta, degree, cap, cap));
        (ps, p)
    }

    #[test]
    fn pc_variant_is_the_default_path_bitwise() {
        let (_, p) = prep(2000, 600, 0.8, 5, 100);
        let a = p.evaluate_variant(&Coulomb, TreecodeVariant::ParticleCluster);
        let (b, _) = p.evaluate_serial(&Coulomb);
        assert_eq!(a, b);
    }

    #[test]
    fn all_variants_converge_to_direct_sum() {
        let (ps, p) = prep(2500, 601, 0.7, 7, 120);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        for variant in [
            TreecodeVariant::ParticleCluster,
            TreecodeVariant::ClusterParticle,
            TreecodeVariant::ClusterCluster,
        ] {
            let pot = p.evaluate_variant(&Coulomb, variant);
            let err = relative_l2_error(&exact, &pot);
            assert!(err < 1e-4, "{variant:?}: error {err}");
        }
    }

    #[test]
    fn variants_agree_with_each_other() {
        // Degree 4 with 100-particle leaves: internal clusters qualify
        // under MAC-2, so the approximation path is exercised.
        let (_, p) = prep(2000, 602, 0.7, 4, 100);
        assert!(p.ops.approx_interactions > 0, "approx path must engage");
        let pc = p.evaluate_variant(&Yukawa::default(), TreecodeVariant::ParticleCluster);
        let cp = p.evaluate_variant(&Yukawa::default(), TreecodeVariant::ClusterParticle);
        let cc = p.evaluate_variant(&Yukawa::default(), TreecodeVariant::ClusterCluster);
        assert!(relative_l2_error(&pc, &cp) < 1e-4);
        assert!(relative_l2_error(&pc, &cc) < 1e-4);
        // CC carries both interpolations' error: it cannot beat CP.
        assert_ne!(cp, cc);
    }

    #[test]
    fn variant_errors_improve_with_degree() {
        let ps = ParticleSet::random_cube(2000, 603);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        for variant in [
            TreecodeVariant::ClusterParticle,
            TreecodeVariant::ClusterCluster,
        ] {
            let mut prev = f64::INFINITY;
            for degree in [2usize, 4, 6] {
                let p = PreparedTreecode::new(&ps, &ps, BltcParams::new(0.8, degree, 100, 100));
                let pot = p.evaluate_variant(&Coulomb, variant);
                let err = relative_l2_error(&exact, &pot);
                assert!(err < prev, "{variant:?} degree {degree}: {err} !< {prev}");
                prev = err;
            }
        }
    }

    #[test]
    fn cc_approx_cost_is_population_independent() {
        let (_, p) = prep(4000, 604, 0.8, 4, 200);
        let m3 = p.params.proxy_count() as u64;
        let pairs: u64 = p
            .lists
            .per_batch
            .iter()
            .map(|bl| bl.approx.len() as u64)
            .sum();
        assert_eq!(
            p.approx_evals_for_variant(TreecodeVariant::ClusterCluster),
            pairs * m3 * m3
        );
        // PC cost scales with batch population, CP with cluster population.
        let pc = p.approx_evals_for_variant(TreecodeVariant::ParticleCluster);
        let cp = p.approx_evals_for_variant(TreecodeVariant::ClusterParticle);
        assert!(pc > 0 && cp > 0);
    }
}
