//! Interaction kernels `G(x, y)`.
//!
//! The treecode is *kernel-independent*: it needs only point evaluations
//! of `G`, never kernel-specific expansions. Any non-oscillatory kernel
//! that is smooth for `x ≠ y` works. The paper evaluates the Coulomb and
//! Yukawa potentials; we also ship a regularized Coulomb and a Gaussian to
//! exercise the kernel-independence claim (and to give the examples some
//! physical variety).
//!
//! ## Singularity policy
//!
//! For singular kernels the self-interaction term (`x == y`, which occurs
//! when targets and sources are the same particle set) is defined as `0`.
//! All engines — direct summation, CPU treecode, GPU treecode — share this
//! convention, so errors measured between them are not polluted by the
//! excluded term. The MAC guarantees proxy points of an *approximated*
//! cluster never coincide with a target (the boxes are well separated for
//! `θ < 1`), so the guard only fires on the direct paths.
//!
//! ## Cost accounting
//!
//! Each kernel reports an estimated flop-equivalent count per evaluation
//! for the CPU and for the GPU cost models. Transcendental functions are
//! far cheaper on GPU special-function units than in `libm`, which is
//! exactly why the paper observes Yukawa/Coulomb run-time ratios of ≈1.8×
//! on CPU but only ≈1.5× on GPU; the per-device numbers below encode that.
//!
//! ## Block evaluation
//!
//! Engines never loop over pairs themselves: they hand a whole batch ×
//! cluster block to [`Kernel::p2p_potential`] or
//! [`GradientKernel::p2p_field`]. The provided bodies are the shared
//! [`crate::p2p`] loop, monomorphized for each implementor, so a call
//! through `&dyn Kernel` costs one dynamic dispatch per block and the
//! per-pair `eval` inlines. Kernels keep the provided bodies; wrappers
//! that delegate `eval` to a kernel behind a reference forward the block
//! methods too (see the `&K` impls below), or they would fall back to
//! one dynamic call per pair.
//!
//! ## Symmetry
//!
//! [`Kernel::symmetric`] is an opt-in promise, `false` by default: for
//! every displacement `d`, `eval(−d)` and `eval_f32(−d)` return the
//! bits of `eval(d)` and `eval_f32(d)`; for a [`GradientKernel`],
//! `eval_with_grad(−d)` returns `g` bit for bit and the exactly negated
//! gradient `(−gx, −gy, −gz)` of `eval_with_grad(d) = (g, gx, gy, gz)`;
//! and the block methods keep the provided bodies. Zeros may differ in
//! sign: a zero term cannot change a sum that starts from `+0.0`. Radial
//! kernels written in `dx·dx + dy·dy + dz·dz`, with the gradient as
//! `c·dx`, meet the promise: negation is exact, squares ignore the
//! sign, and a product's sign is the XOR of its factors' signs. Engines
//! then evaluate a mutual near-field leaf pair once
//! ([`Kernel::p2p_potential_pair`]) instead of as two blocks, with the
//! same bits in every output that is not NaN (Rust does not pin the
//! sign of a NaN, and negating one flips it). A kernel that breaks the
//! promise would make the two evaluation orders disagree.

use crate::p2p::{self, FieldOut, Sources, Targets};

/// A pairwise interaction kernel evaluated on the displacement `x - y`.
pub trait Kernel: Sync + Send {
    /// Evaluate `G(x, y)` given the displacement components `dx = x1 - y1`
    /// etc. Implementations must return `0.0` for a zero displacement if
    /// the kernel is singular at the origin (see the module docs).
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64;

    /// Single-precision evaluation, for the mixed-precision mode the
    /// paper lists as future work (§5). The default round-trips through
    /// `eval`; performance-honest kernels override it with genuine `f32`
    /// arithmetic.
    fn eval_f32(&self, dx: f32, dy: f32, dz: f32) -> f32 {
        self.eval(dx as f64, dy as f64, dz as f64) as f32
    }

    /// Short human-readable name (used in harness output).
    fn name(&self) -> &'static str;

    /// Flop-equivalents per evaluation on a CPU core (libm transcendentals).
    fn flops_per_eval_cpu(&self) -> f64;

    /// Flop-equivalents per evaluation on a GPU (special-function units).
    fn flops_per_eval_gpu(&self) -> f64;

    /// Accumulate `out[i] += Σ_j G(t_i, s_j) q_j` over one batch ×
    /// cluster block (see [`crate::p2p::potential`]).
    fn p2p_potential(&self, targets: Targets<'_>, sources: Sources<'_>, out: &mut [f64]) {
        p2p::potential(self, targets, sources, out)
    }

    /// Whether `G(−d)` equals `G(d)` bit for bit (see the module docs
    /// for the full contract). Defaults to `false`, which keeps every
    /// block on the one-sided path.
    fn symmetric(&self) -> bool {
        false
    }

    /// Evaluate one mutual pair of particle blocks once, delivering both
    /// block sums (see [`crate::p2p::potential_pair`]). Engines call it
    /// only for kernels that declare [`Kernel::symmetric`].
    fn p2p_potential_pair(
        &self,
        a: Sources<'_>,
        b: Sources<'_>,
        out_a: &mut [f64],
        sums_b: &mut [f64],
    ) {
        p2p::potential_pair(self, a, b, out_a, sums_b)
    }
}

/// A kernel with an analytic gradient — what force computations need
/// (the paper's intro: "electrostatic or gravitational potentials and
/// forces"). The gradient is taken with respect to the **target**
/// coordinates; the force on a unit charge at the target is `-∇φ`.
pub trait GradientKernel: Kernel {
    /// Evaluate `(G, ∂G/∂x₁, ∂G/∂x₂, ∂G/∂x₃)` at displacement
    /// `(dx, dy, dz) = x - y`. Must return all zeros at zero displacement
    /// for singular kernels (the self-interaction convention).
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64);

    /// Flop-equivalents per gradient evaluation on the GPU. A field
    /// evaluation produces four outputs (potential + three derivatives)
    /// and quadruples the multiply/accumulate traffic even though the
    /// radial subexpressions are shared — ~4× a potential-only
    /// evaluation, which is what the device clock charges.
    fn grad_flops_per_eval_gpu(&self) -> f64 {
        self.flops_per_eval_gpu() * 4.0
    }

    /// Flop-equivalents per gradient evaluation on a CPU core (same ~4×
    /// argument as [`GradientKernel::grad_flops_per_eval_gpu`]).
    fn grad_flops_per_eval_cpu(&self) -> f64 {
        self.flops_per_eval_cpu() * 4.0
    }

    /// Accumulate potentials and target gradients over one batch ×
    /// cluster block (see [`crate::p2p::field`]).
    fn p2p_field(&self, targets: Targets<'_>, sources: Sources<'_>, out: FieldOut<'_>) {
        p2p::field(self, targets, sources, out)
    }

    /// Field counterpart of [`Kernel::p2p_potential_pair`] (see
    /// [`crate::p2p::field_pair`]).
    fn p2p_field_pair(
        &self,
        a: Sources<'_>,
        b: Sources<'_>,
        out_a: FieldOut<'_>,
        sums_b: FieldOut<'_>,
    ) {
        p2p::field_pair(self, a, b, out_a, sums_b)
    }
}

/// A reference to a kernel is a kernel; every method forwards, the block
/// methods included, so `&dyn Kernel` behind a generic `&K` still
/// dispatches once per block.
impl<K: Kernel + ?Sized> Kernel for &K {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        (**self).eval(dx, dy, dz)
    }

    fn eval_f32(&self, dx: f32, dy: f32, dz: f32) -> f32 {
        (**self).eval_f32(dx, dy, dz)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn flops_per_eval_cpu(&self) -> f64 {
        (**self).flops_per_eval_cpu()
    }

    fn flops_per_eval_gpu(&self) -> f64 {
        (**self).flops_per_eval_gpu()
    }

    fn p2p_potential(&self, targets: Targets<'_>, sources: Sources<'_>, out: &mut [f64]) {
        (**self).p2p_potential(targets, sources, out)
    }

    fn symmetric(&self) -> bool {
        (**self).symmetric()
    }

    fn p2p_potential_pair(
        &self,
        a: Sources<'_>,
        b: Sources<'_>,
        out_a: &mut [f64],
        sums_b: &mut [f64],
    ) {
        (**self).p2p_potential_pair(a, b, out_a, sums_b)
    }
}

impl<K: GradientKernel + ?Sized> GradientKernel for &K {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        (**self).eval_with_grad(dx, dy, dz)
    }

    fn grad_flops_per_eval_gpu(&self) -> f64 {
        (**self).grad_flops_per_eval_gpu()
    }

    fn grad_flops_per_eval_cpu(&self) -> f64 {
        (**self).grad_flops_per_eval_cpu()
    }

    fn p2p_field(&self, targets: Targets<'_>, sources: Sources<'_>, out: FieldOut<'_>) {
        (**self).p2p_field(targets, sources, out)
    }

    fn p2p_field_pair(
        &self,
        a: Sources<'_>,
        b: Sources<'_>,
        out_a: FieldOut<'_>,
        sums_b: FieldOut<'_>,
    ) {
        (**self).p2p_field_pair(a, b, out_a, sums_b)
    }
}

impl GradientKernel for Coulomb {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let inv_r = 1.0 / r2.sqrt();
        // ∂(1/r)/∂dx = -dx / r³
        let c = -inv_r / r2;
        (inv_r, c * dx, c * dy, c * dz)
    }
}

impl GradientKernel for Yukawa {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let r = r2.sqrt();
        let g = (-self.kappa * r).exp() / r;
        // ∂(e^{-κr}/r)/∂dx = -dx (κ r + 1) e^{-κr} / r³
        let c = -g * (self.kappa * r + 1.0) / r2;
        (g, c * dx, c * dy, c * dz)
    }
}

impl GradientKernel for RegularizedCoulomb {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let d2 = dx * dx + dy * dy + dz * dz + self.epsilon * self.epsilon;
        let inv_d = 1.0 / d2.sqrt();
        let c = -inv_d / d2;
        (inv_d, c * dx, c * dy, c * dz)
    }
}

impl GradientKernel for Gaussian {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let r2 = dx * dx + dy * dy + dz * dz;
        let g = (-r2 / (self.sigma * self.sigma)).exp();
        let c = -2.0 / (self.sigma * self.sigma) * g;
        (g, c * dx, c * dy, c * dz)
    }
}

/// Mixed-precision wrapper (§5 future work): kernel evaluations in
/// `f32`, accumulation kept in `f64` by the engines.
///
/// On GPUs of the paper's era single-precision throughput is ≥2× the
/// double-precision rate (Titan V: 13.8 vs 6.9 TFLOP/s), which the GPU
/// flop estimate reflects; the price is an error floor near the `f32`
/// rounding level (~1e-7 relative), visible in the
/// `ablation_precision` harness.
///
/// The wrapper keeps the provided [`Kernel::p2p_potential`] and
/// [`Kernel::p2p_potential_pair`]: they are monomorphized over
/// `MixedPrecision<K>`, so the block loops inline the `f32` evaluation.
/// Forwarding to `K`'s block methods would evaluate in `f64` instead. It
/// is symmetric when `K` is: `(−d) as f32` is exactly `−(d as f32)`.
#[derive(Debug, Clone, Copy)]
pub struct MixedPrecision<K: Kernel>(pub K);

impl<K: Kernel> Kernel for MixedPrecision<K> {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        self.0.eval_f32(dx as f32, dy as f32, dz as f32) as f64
    }

    fn eval_f32(&self, dx: f32, dy: f32, dz: f32) -> f32 {
        self.0.eval_f32(dx, dy, dz)
    }

    fn name(&self) -> &'static str {
        "mixed-precision"
    }

    // f32 SIMD lanes double CPU throughput too.
    fn flops_per_eval_cpu(&self) -> f64 {
        self.0.flops_per_eval_cpu() * 0.5
    }

    fn flops_per_eval_gpu(&self) -> f64 {
        self.0.flops_per_eval_gpu() * 0.5
    }

    fn symmetric(&self) -> bool {
        self.0.symmetric()
    }
}

/// The Coulomb potential `G(x, y) = 1 / |x - y|` (also the gravitational
/// monopole kernel when charges are masses).
#[derive(Debug, Clone, Copy, Default)]
pub struct Coulomb;

impl Kernel for Coulomb {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            1.0 / r2.sqrt()
        }
    }

    #[inline]
    fn eval_f32(&self, dx: f32, dy: f32, dz: f32) -> f32 {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            1.0 / r2.sqrt()
        }
    }

    fn name(&self) -> &'static str {
        "coulomb"
    }

    fn symmetric(&self) -> bool {
        true
    }

    // 3 mul + 2 add for r², sqrt ≈ 4, div ≈ 3 ⇒ ~12 flop-equivalents.
    fn flops_per_eval_cpu(&self) -> f64 {
        12.0
    }

    // rsqrt is a single SFU op on the GPU: 3 mul + 2 add + rsqrt(1) + mul.
    fn flops_per_eval_gpu(&self) -> f64 {
        7.0
    }
}

/// The Yukawa (screened Coulomb) potential `G(x, y) = e^{-κ|x-y|} / |x-y|`
/// with inverse Debye length `κ`.
#[derive(Debug, Clone, Copy)]
pub struct Yukawa {
    /// Inverse Debye length κ.
    pub kappa: f64,
}

impl Yukawa {
    /// Construct with screening parameter `κ >= 0` (the paper uses 0.5).
    pub fn new(kappa: f64) -> Self {
        assert!(kappa >= 0.0 && kappa.is_finite(), "invalid kappa: {kappa}");
        Self { kappa }
    }
}

impl Default for Yukawa {
    /// The paper's choice, κ = 0.5.
    fn default() -> Self {
        Self { kappa: 0.5 }
    }
}

impl Kernel for Yukawa {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            let r = r2.sqrt();
            (-self.kappa * r).exp() / r
        }
    }

    #[inline]
    fn eval_f32(&self, dx: f32, dy: f32, dz: f32) -> f32 {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            let r = r2.sqrt();
            (-(self.kappa as f32) * r).exp() / r
        }
    }

    fn name(&self) -> &'static str {
        "yukawa"
    }

    fn symmetric(&self) -> bool {
        true
    }

    // Coulomb cost + libm exp ≈ 9 ⇒ ≈ 1.8× the Coulomb CPU cost.
    fn flops_per_eval_cpu(&self) -> f64 {
        21.6
    }

    // Coulomb cost + SFU exp ≈ 3.5 ⇒ ≈ 1.5× the Coulomb GPU cost.
    fn flops_per_eval_gpu(&self) -> f64 {
        10.5
    }
}

/// Regularized (softened) Yukawa
/// `G = e^{-κ d} / d` with `d = sqrt(|x-y|² + ε²)` — the screened
/// electrostatic kernel with a finite-ion-size core, the standard
/// interaction for electrolyte / coarse-grained MD boxes where bare
/// Yukawa ion pairs would collapse into the singularity. Smooth
/// everywhere; reduces to [`Yukawa`] as `ε → 0` and to
/// [`RegularizedCoulomb`] at `κ = 0`.
#[derive(Debug, Clone, Copy)]
pub struct RegularizedYukawa {
    /// Inverse Debye length κ ≥ 0.
    pub kappa: f64,
    /// Softening (ion-core) length ε > 0.
    pub epsilon: f64,
}

impl RegularizedYukawa {
    /// Construct with screening `κ ≥ 0` and softening `ε > 0`.
    pub fn new(kappa: f64, epsilon: f64) -> Self {
        assert!(kappa >= 0.0 && kappa.is_finite(), "invalid kappa: {kappa}");
        assert!(epsilon > 0.0 && epsilon.is_finite(), "invalid epsilon");
        Self { kappa, epsilon }
    }
}

impl Kernel for RegularizedYukawa {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let d2 = dx * dx + dy * dy + dz * dz + self.epsilon * self.epsilon;
        let d = d2.sqrt();
        (-self.kappa * d).exp() / d
    }

    fn name(&self) -> &'static str {
        "regularized-yukawa"
    }

    fn symmetric(&self) -> bool {
        true
    }

    // Yukawa cost + the softening add.
    fn flops_per_eval_cpu(&self) -> f64 {
        23.6
    }

    fn flops_per_eval_gpu(&self) -> f64 {
        11.5
    }
}

impl GradientKernel for RegularizedYukawa {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let d2 = dx * dx + dy * dy + dz * dz + self.epsilon * self.epsilon;
        let d = d2.sqrt();
        let g = (-self.kappa * d).exp() / d;
        // ∂(e^{-κd}/d)/∂dx = -dx (κ d + 1) e^{-κd} / d³
        let c = -g * (self.kappa * d + 1.0) / d2;
        (g, c * dx, c * dy, c * dz)
    }
}

/// Regularized (Plummer-softened) Coulomb `G = 1 / sqrt(|x-y|² + ε²)`,
/// ubiquitous in gravitational N-body codes; smooth everywhere, so no
/// singularity guard is needed.
#[derive(Debug, Clone, Copy)]
pub struct RegularizedCoulomb {
    /// Softening length ε > 0.
    pub epsilon: f64,
}

impl RegularizedCoulomb {
    /// Construct with softening length `ε > 0`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon.is_finite(), "invalid epsilon");
        Self { epsilon }
    }
}

impl Kernel for RegularizedCoulomb {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz + self.epsilon * self.epsilon;
        1.0 / r2.sqrt()
    }

    fn name(&self) -> &'static str {
        "regularized-coulomb"
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn flops_per_eval_cpu(&self) -> f64 {
        14.0
    }

    fn flops_per_eval_gpu(&self) -> f64 {
        8.0
    }
}

/// Gaussian kernel `G = e^{-|x-y|²/σ²}`; smooth, rapidly decaying —
/// representative of RBF interpolation workloads.
#[derive(Debug, Clone, Copy)]
pub struct Gaussian {
    /// Length scale σ > 0.
    pub sigma: f64,
}

impl Gaussian {
    /// Construct with length scale `σ > 0`.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "invalid sigma");
        Self { sigma }
    }
}

impl Kernel for Gaussian {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz;
        (-r2 / (self.sigma * self.sigma)).exp()
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn flops_per_eval_cpu(&self) -> f64 {
        16.0
    }

    fn flops_per_eval_gpu(&self) -> f64 {
        9.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coulomb_values() {
        let g = Coulomb;
        assert_eq!(g.eval(1.0, 0.0, 0.0), 1.0);
        assert!((g.eval(3.0, 4.0, 0.0) - 0.2).abs() < 1e-15);
        assert_eq!(g.eval(0.0, 0.0, 0.0), 0.0, "self-interaction is zero");
    }

    #[test]
    fn yukawa_reduces_to_coulomb_at_zero_kappa() {
        let y = Yukawa::new(0.0);
        let c = Coulomb;
        for &(dx, dy, dz) in &[(1.0, 2.0, 3.0), (0.5, 0.0, 0.0), (-2.0, 1.0, -1.0)] {
            assert!((y.eval(dx, dy, dz) - c.eval(dx, dy, dz)).abs() < 1e-15);
        }
    }

    #[test]
    fn yukawa_screens() {
        let y = Yukawa::default();
        assert_eq!(y.kappa, 0.5);
        let r1 = y.eval(1.0, 0.0, 0.0);
        assert!((r1 - (-0.5f64).exp()).abs() < 1e-15);
        // Stronger screening at larger distance relative to Coulomb.
        let c = Coulomb;
        assert!(y.eval(10.0, 0.0, 0.0) / c.eval(10.0, 0.0, 0.0) < 0.01);
        assert_eq!(y.eval(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn regularized_yukawa_limits() {
        // ε → 0 recovers Yukawa away from the origin.
        let ry = RegularizedYukawa::new(0.5, 1e-9);
        let y = Yukawa::new(0.5);
        assert!((ry.eval(1.0, 2.0, -0.5) - y.eval(1.0, 2.0, -0.5)).abs() < 1e-12);
        // κ = 0 recovers the regularized Coulomb exactly.
        let rc = RegularizedCoulomb::new(0.1);
        let r0 = RegularizedYukawa::new(0.0, 0.1);
        assert_eq!(r0.eval(0.3, -0.4, 0.5), rc.eval(0.3, -0.4, 0.5));
        // Finite (no singularity guard needed) at zero displacement.
        let r = RegularizedYukawa::new(2.0, 0.1);
        assert!((r.eval(0.0, 0.0, 0.0) - (-0.2f64).exp() * 10.0).abs() < 1e-12);
    }

    #[test]
    fn regularized_yukawa_gradient_matches_finite_differences() {
        let k = RegularizedYukawa::new(2.0, 0.1);
        let (x, y, z) = (0.3, -0.7, 0.4);
        let h = 1e-6;
        let (_, gx, gy, gz) = k.eval_with_grad(x, y, z);
        let fd = |f: f64, b: f64| (f - b) / (2.0 * h);
        let dx = fd(k.eval(x + h, y, z), k.eval(x - h, y, z));
        let dy = fd(k.eval(x, y + h, z), k.eval(x, y - h, z));
        let dz = fd(k.eval(x, y, z + h), k.eval(x, y, z - h));
        assert!((gx - dx).abs() < 1e-7, "gx {gx} vs fd {dx}");
        assert!((gy - dy).abs() < 1e-7);
        assert!((gz - dz).abs() < 1e-7);
    }

    #[test]
    fn regularized_coulomb_is_finite_at_origin() {
        let g = RegularizedCoulomb::new(0.1);
        assert!((g.eval(0.0, 0.0, 0.0) - 10.0).abs() < 1e-12);
        // Approaches Coulomb at large r.
        let far = g.eval(100.0, 0.0, 0.0);
        assert!((far - 0.01).abs() < 1e-6);
    }

    #[test]
    fn gaussian_peaks_at_origin() {
        let g = Gaussian::new(2.0);
        assert_eq!(g.eval(0.0, 0.0, 0.0), 1.0);
        assert!(g.eval(2.0, 0.0, 0.0) < 1.0);
        assert!((g.eval(2.0, 0.0, 0.0) - (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn cost_ratios_match_paper_observations() {
        // §4: Yukawa is ≈1.8× Coulomb on CPU, ≈1.5× on GPU.
        let c = Coulomb;
        let y = Yukawa::default();
        let cpu_ratio = y.flops_per_eval_cpu() / c.flops_per_eval_cpu();
        let gpu_ratio = y.flops_per_eval_gpu() / c.flops_per_eval_gpu();
        assert!((cpu_ratio - 1.8).abs() < 0.05, "cpu ratio {cpu_ratio}");
        assert!((gpu_ratio - 1.5).abs() < 0.05, "gpu ratio {gpu_ratio}");
    }

    #[test]
    fn gradient_flop_model_is_4x_per_device() {
        // Force kernels (potential + three derivatives) charge ~4× the
        // potential-only flops on both device classes — the cost the
        // distributed field pipeline's clocks must reflect.
        let kernels: Vec<Box<dyn GradientKernel>> = vec![
            Box::new(Coulomb),
            Box::new(Yukawa::default()),
            Box::new(RegularizedCoulomb::new(0.1)),
            Box::new(Gaussian::new(1.0)),
        ];
        for k in &kernels {
            assert_eq!(k.grad_flops_per_eval_gpu(), k.flops_per_eval_gpu() * 4.0);
            assert_eq!(k.grad_flops_per_eval_cpu(), k.flops_per_eval_cpu() * 4.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid kappa")]
    fn negative_kappa_panics() {
        let _ = Yukawa::new(-1.0);
    }

    #[test]
    fn mixed_precision_tracks_f64_kernel() {
        let m = MixedPrecision(Coulomb);
        let exact = Coulomb.eval(0.3, -0.7, 1.1);
        let mixed = m.eval(0.3, -0.7, 1.1);
        let rel = ((exact - mixed) / exact).abs();
        assert!(rel > 0.0, "f32 path must actually round");
        assert!(rel < 1e-6, "f32 relative error too large: {rel}");
        assert_eq!(m.eval(0.0, 0.0, 0.0), 0.0);
        // Half the flop cost on both device classes.
        assert_eq!(m.flops_per_eval_gpu(), Coulomb.flops_per_eval_gpu() * 0.5);
        assert_eq!(m.flops_per_eval_cpu(), Coulomb.flops_per_eval_cpu() * 0.5);
    }

    #[test]
    fn mixed_precision_yukawa_screens_like_f64() {
        let y = Yukawa::new(0.5);
        let m = MixedPrecision(y);
        for &(dx, dy, dz) in &[(1.0, 0.0, 0.0), (0.2, -0.4, 0.6), (3.0, 3.0, 3.0)] {
            let rel = ((y.eval(dx, dy, dz) - m.eval(dx, dy, dz)) / y.eval(dx, dy, dz)).abs();
            assert!(rel < 1e-5, "rel {rel} at ({dx},{dy},{dz})");
        }
    }

    #[test]
    fn default_eval_f32_roundtrips_through_f64() {
        // Kernels without a native f32 path fall back to the f64 one.
        let g = Gaussian::new(1.0);
        let v32 = g.eval_f32(0.5, 0.5, 0.5);
        let v64 = g.eval(0.5, 0.5, 0.5);
        assert!((v32 as f64 - v64).abs() < 1e-7);
    }

    #[test]
    fn kernels_are_object_safe() {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Coulomb),
            Box::new(Yukawa::default()),
            Box::new(RegularizedCoulomb::new(0.05)),
            Box::new(Gaussian::new(1.0)),
        ];
        for k in &kernels {
            assert!(k.eval(1.0, 1.0, 1.0).is_finite());
            assert!(!k.name().is_empty());
        }
    }
}
