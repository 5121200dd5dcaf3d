//! The P2P (batch × cluster) microkernel — the one loop behind every
//! engine.
//!
//! Eq. 9 (targets × cluster sources) and Eq. 11 (targets × Chebyshev
//! proxies carrying modified charges) have the same direct-sum form;
//! that is the paper's "inner level of parallelism". [`potential`] and
//! [`field`] are that loop, over structure-of-arrays slices: target
//! `x/y/z` plus source `x/y/z/q`. The CPU engines, the simulated-GPU
//! launches and the distributed LET evaluation all reach it through
//! [`Kernel::p2p_potential`] / [`GradientKernel::p2p_field`], whose
//! provided bodies call these functions and are monomorphized for each
//! kernel: one dynamic dispatch per batch × cluster pair, none per
//! evaluation.
//!
//! ## Bitwise contract
//!
//! Targets are blocked in [`LANES`]-wide groups with one accumulator per
//! target; every target sums its sources in slice order, starting from
//! `0.0`, exactly as the per-pair reference `direct_sum` does, and adds
//! the block sum to its output slot once. Lanes span targets only, never
//! sources, so no sum is reassociated. Tail targets run the same body at
//! width 1. There is no fused multiply-add and no intrinsic: `sqrt` and
//! division are correctly rounded in every SIMD lane, so whatever the
//! compiler vectorizes produces the scalar bits. The portable body
//! auto-vectorizes close to hand-written intrinsics, so there is no
//! per-ISA path to keep in step with it.
//!
//! ## Mutual pairs
//!
//! When the targets are the sources, a near-field leaf pair `(A, B)`
//! sits on both batches' direct lists and the two blocks evaluate the
//! kernel at the same `|a_i − b_j|`. [`potential_pair`] and
//! [`field_pair`] evaluate each particle pair once and deliver both
//! block sums: `A`'s rows are summed over `j` in source order exactly as
//! [`potential`] sums them, and `B`'s columns are summed over `i`
//! ascending from `0.0`, which is the order [`potential`] would use with
//! `A` as the sources. `b_j − a_i` is exactly `−(a_i − b_j)`, so for a
//! kernel that declares [`Kernel::symmetric`] both sums carry the bits
//! of the two separate blocks (a NaN output may differ in sign: the
//! partner's gradient is the negated one).

use std::ops::Range;

use crate::kernel::{GradientKernel, Kernel};
use crate::particles::ParticleSet;

/// Targets per block: independent accumulators the compiler keeps in
/// vector registers.
pub const LANES: usize = 4;

/// Target coordinates of one P2P block (equal-length columns).
#[derive(Debug, Clone, Copy)]
pub struct Targets<'a> {
    x: &'a [f64],
    y: &'a [f64],
    z: &'a [f64],
}

impl<'a> Targets<'a> {
    /// Wrap three coordinate columns; panics if their lengths differ.
    pub fn new(x: &'a [f64], y: &'a [f64], z: &'a [f64]) -> Self {
        assert!(
            x.len() == y.len() && x.len() == z.len(),
            "target columns differ in length"
        );
        Self { x, y, z }
    }

    /// The particles `range` of `ps` as targets.
    pub fn of(ps: &'a ParticleSet, range: Range<usize>) -> Self {
        Self::new(&ps.x[range.clone()], &ps.y[range.clone()], &ps.z[range])
    }

    fn len(&self) -> usize {
        self.x.len()
    }
}

/// Source coordinates and charges of one P2P block — a cluster's
/// particles (Eq. 9) or its proxies and modified charges (Eq. 11).
#[derive(Debug, Clone, Copy)]
pub struct Sources<'a> {
    x: &'a [f64],
    y: &'a [f64],
    z: &'a [f64],
    q: &'a [f64],
}

impl<'a> Sources<'a> {
    /// Wrap four columns; panics if their lengths differ.
    pub fn new(x: &'a [f64], y: &'a [f64], z: &'a [f64], q: &'a [f64]) -> Self {
        assert!(
            x.len() == y.len() && x.len() == z.len() && x.len() == q.len(),
            "source columns differ in length"
        );
        Self { x, y, z, q }
    }

    /// The particles `range` of `ps` as sources.
    pub fn of(ps: &'a ParticleSet, range: Range<usize>) -> Self {
        Self::new(
            &ps.x[range.clone()],
            &ps.y[range.clone()],
            &ps.z[range.clone()],
            &ps.q[range],
        )
    }

    fn len(&self) -> usize {
        self.x.len()
    }
}

/// The four accumulator columns of a field block: potential and the
/// target gradient.
#[derive(Debug)]
pub struct FieldOut<'a> {
    pot: &'a mut [f64],
    gx: &'a mut [f64],
    gy: &'a mut [f64],
    gz: &'a mut [f64],
}

impl<'a> FieldOut<'a> {
    /// Wrap four output columns; panics if their lengths differ.
    pub fn new(
        pot: &'a mut [f64],
        gx: &'a mut [f64],
        gy: &'a mut [f64],
        gz: &'a mut [f64],
    ) -> Self {
        assert!(
            pot.len() == gx.len() && pot.len() == gy.len() && pot.len() == gz.len(),
            "field columns differ in length"
        );
        Self { pot, gx, gy, gz }
    }

    fn len(&self) -> usize {
        self.pot.len()
    }
}

/// A kernel bound to one of the two P2P output kinds, for engine code
/// that runs one body for potentials and fields alike.
#[derive(Clone, Copy)]
pub enum BlockKernel<'k> {
    /// Potentials: one output column.
    Potential(&'k dyn Kernel),
    /// Potentials and target gradients: `[pot, gx, gy, gz]`.
    Field(&'k dyn GradientKernel),
}

impl BlockKernel<'_> {
    /// Output columns per target: 1 for potentials, 4 for fields.
    pub fn columns(self) -> usize {
        match self {
            Self::Potential(_) => 1,
            Self::Field(_) => 4,
        }
    }

    /// Zeroed output columns for `n` targets.
    pub fn zeros(self, n: usize) -> Vec<Vec<f64>> {
        vec![vec![0.0; n]; self.columns()]
    }

    /// Modeled GPU flop-equivalents per evaluation (a field evaluation
    /// charges the gradient cost).
    pub fn flops_per_eval_gpu(self) -> f64 {
        match self {
            Self::Potential(k) => k.flops_per_eval_gpu(),
            Self::Field(k) => k.grad_flops_per_eval_gpu(),
        }
    }

    /// Whether the kernel declares [`Kernel::symmetric`], so mutual
    /// pairs may run through [`Self::accumulate_pair`].
    pub fn symmetric(self) -> bool {
        match self {
            Self::Potential(k) => k.symmetric(),
            Self::Field(k) => k.symmetric(),
        }
    }

    /// Accumulate one batch × cluster block into `out`, which holds
    /// [`Self::columns`] columns of one slot per target.
    pub fn accumulate<C: AsMut<[f64]>>(
        self,
        targets: Targets<'_>,
        sources: Sources<'_>,
        out: &mut [C],
    ) {
        match (self, out) {
            (Self::Potential(k), [pot]) => k.p2p_potential(targets, sources, pot.as_mut()),
            (Self::Field(k), [pot, gx, gy, gz]) => k.p2p_field(
                targets,
                sources,
                FieldOut::new(pot.as_mut(), gx.as_mut(), gy.as_mut(), gz.as_mut()),
            ),
            (_, out) => panic!(
                "{} output columns for a {}-column kernel",
                out.len(),
                self.columns()
            ),
        }
    }

    /// Evaluate one mutual pair (see [`potential_pair`]): accumulate
    /// `a`'s block into `out_a` and overwrite `sums_b` with `b`'s block
    /// sums, both in [`Self::columns`] columns. Only valid for a
    /// [`Self::symmetric`] kernel.
    pub fn accumulate_pair(
        self,
        a: Sources<'_>,
        b: Sources<'_>,
        out_a: &mut [Vec<f64>],
        sums_b: &mut [Vec<f64>],
    ) {
        match (self, out_a, sums_b) {
            (Self::Potential(k), [pot], [bpot]) => k.p2p_potential_pair(a, b, pot, bpot),
            (Self::Field(k), [pot, gx, gy, gz], [bpot, bgx, bgy, bgz]) => k.p2p_field_pair(
                a,
                b,
                FieldOut::new(pot, gx, gy, gz),
                FieldOut::new(bpot, bgx, bgy, bgz),
            ),
            (_, out, _) => panic!(
                "{} output columns for a {}-column kernel",
                out.len(),
                self.columns()
            ),
        }
    }
}

/// `out[i] += Σ_j G(t_i, s_j) q_j` — Eq. 9 or Eq. 11 for one batch ×
/// cluster pair. Engines call it through [`Kernel::p2p_potential`].
pub fn potential<K: Kernel + ?Sized>(
    kernel: &K,
    targets: Targets<'_>,
    sources: Sources<'_>,
    out: &mut [f64],
) {
    assert_eq!(out.len(), targets.len(), "one output slot per target");
    let full = targets.len() - targets.len() % LANES;
    for i in (0..full).step_by(LANES) {
        potential_block::<K, LANES>(kernel, targets, i, sources, out);
    }
    for i in full..targets.len() {
        potential_block::<K, 1>(kernel, targets, i, sources, out);
    }
}

/// Potential and target gradient: `pot[i] += Σ_j G q_j` and
/// `g·[i] += Σ_j ∂G/∂x· q_j`. Engines call it through
/// [`GradientKernel::p2p_field`].
pub fn field<K: GradientKernel + ?Sized>(
    kernel: &K,
    targets: Targets<'_>,
    sources: Sources<'_>,
    mut out: FieldOut<'_>,
) {
    assert_eq!(out.len(), targets.len(), "one output slot per target");
    let full = targets.len() - targets.len() % LANES;
    for i in (0..full).step_by(LANES) {
        field_block::<K, LANES>(kernel, targets, i, sources, &mut out);
    }
    for i in full..targets.len() {
        field_block::<K, 1>(kernel, targets, i, sources, &mut out);
    }
}

/// One mutual pair with `A`'s points as targets and sources alike:
/// `out_a[i] += Σ_j G(a_i − b_j) qb_j` and `sums_b[j] = Σ_i G(b_j − a_i)
/// qa_i`, each kernel value computed once. `out_a` gets the bits of
/// [`potential`] with `b` as the sources; `sums_b` (overwritten) holds
/// the block sums [`potential`] would add to `B`'s slots with `a` as the
/// sources, provided the kernel is [`Kernel::symmetric`]. Engines call
/// it through [`Kernel::p2p_potential_pair`].
pub fn potential_pair<K: Kernel + ?Sized>(
    kernel: &K,
    a: Sources<'_>,
    b: Sources<'_>,
    out_a: &mut [f64],
    sums_b: &mut [f64],
) {
    assert_eq!(out_a.len(), a.len(), "one output slot per target");
    assert_eq!(sums_b.len(), b.len(), "one partner slot per source");
    sums_b.fill(0.0);
    let full = a.len() - a.len() % LANES;
    for i in (0..full).step_by(LANES) {
        potential_pair_block::<K, LANES>(kernel, a, i, b, out_a, sums_b);
    }
    for i in full..a.len() {
        potential_pair_block::<K, 1>(kernel, a, i, b, out_a, sums_b);
    }
}

/// Field counterpart of [`potential_pair`]: the partner's gradient
/// columns take the exactly negated gradient, which is what
/// `eval_with_grad(−d)` returns for a symmetric kernel. Engines call it
/// through [`GradientKernel::p2p_field_pair`].
pub fn field_pair<K: GradientKernel + ?Sized>(
    kernel: &K,
    a: Sources<'_>,
    b: Sources<'_>,
    mut out_a: FieldOut<'_>,
    mut sums_b: FieldOut<'_>,
) {
    assert_eq!(out_a.len(), a.len(), "one output slot per target");
    assert_eq!(sums_b.len(), b.len(), "one partner slot per source");
    for col in [
        &mut *sums_b.pot,
        &mut *sums_b.gx,
        &mut *sums_b.gy,
        &mut *sums_b.gz,
    ] {
        col.fill(0.0);
    }
    let full = a.len() - a.len() % LANES;
    for i in (0..full).step_by(LANES) {
        field_pair_block::<K, LANES>(kernel, a, i, b, &mut out_a, &mut sums_b);
    }
    for i in full..a.len() {
        field_pair_block::<K, 1>(kernel, a, i, b, &mut out_a, &mut sums_b);
    }
}

/// Targets `i..i + W` against every source, one accumulator per target.
#[inline(always)]
fn potential_block<K: Kernel + ?Sized, const W: usize>(
    kernel: &K,
    t: Targets<'_>,
    i: usize,
    s: Sources<'_>,
    out: &mut [f64],
) {
    let tx: [f64; W] = std::array::from_fn(|l| t.x[i + l]);
    let ty: [f64; W] = std::array::from_fn(|l| t.y[i + l]);
    let tz: [f64; W] = std::array::from_fn(|l| t.z[i + l]);
    let mut acc = [0.0f64; W];
    for (((&sx, &sy), &sz), &q) in s.x.iter().zip(s.y).zip(s.z).zip(s.q) {
        for l in 0..W {
            acc[l] += kernel.eval(tx[l] - sx, ty[l] - sy, tz[l] - sz) * q;
        }
    }
    for (slot, a) in out[i..i + W].iter_mut().zip(acc) {
        *slot += a;
    }
}

/// Field counterpart of [`potential_block`]: four accumulators per
/// target, `[pot, gx, gy, gz]`.
#[inline(always)]
fn field_block<K: GradientKernel + ?Sized, const W: usize>(
    kernel: &K,
    t: Targets<'_>,
    i: usize,
    s: Sources<'_>,
    out: &mut FieldOut<'_>,
) {
    let tx: [f64; W] = std::array::from_fn(|l| t.x[i + l]);
    let ty: [f64; W] = std::array::from_fn(|l| t.y[i + l]);
    let tz: [f64; W] = std::array::from_fn(|l| t.z[i + l]);
    let mut acc = [[0.0f64; W]; 4];
    for (((&sx, &sy), &sz), &q) in s.x.iter().zip(s.y).zip(s.z).zip(s.q) {
        for l in 0..W {
            let (g, dgx, dgy, dgz) = kernel.eval_with_grad(tx[l] - sx, ty[l] - sy, tz[l] - sz);
            acc[0][l] += g * q;
            acc[1][l] += dgx * q;
            acc[2][l] += dgy * q;
            acc[3][l] += dgz * q;
        }
    }
    let cols = [&mut *out.pot, &mut *out.gx, &mut *out.gy, &mut *out.gz];
    for (col, a) in cols.into_iter().zip(acc) {
        for (slot, v) in col[i..i + W].iter_mut().zip(a) {
            *slot += v;
        }
    }
}

/// Rows `i..i + W` of a mutual pair: the rows sum like
/// [`potential_block`]; each partner column `j` continues its running
/// sum over `i` in ascending order.
#[inline(always)]
fn potential_pair_block<K: Kernel + ?Sized, const W: usize>(
    kernel: &K,
    a: Sources<'_>,
    i: usize,
    b: Sources<'_>,
    out_a: &mut [f64],
    sums_b: &mut [f64],
) {
    let ax: [f64; W] = std::array::from_fn(|l| a.x[i + l]);
    let ay: [f64; W] = std::array::from_fn(|l| a.y[i + l]);
    let az: [f64; W] = std::array::from_fn(|l| a.z[i + l]);
    let aq: [f64; W] = std::array::from_fn(|l| a.q[i + l]);
    let mut acc = [0.0f64; W];
    let sources = b.x.iter().zip(b.y).zip(b.z).zip(b.q);
    for ((((&bx, &by), &bz), &bq), col) in sources.zip(sums_b.iter_mut()) {
        let g: [f64; W] = std::array::from_fn(|l| kernel.eval(ax[l] - bx, ay[l] - by, az[l] - bz));
        let mut c = *col;
        for l in 0..W {
            acc[l] += g[l] * bq;
            c += g[l] * aq[l];
        }
        *col = c;
    }
    for (slot, v) in out_a[i..i + W].iter_mut().zip(acc) {
        *slot += v;
    }
}

/// Field counterpart of [`potential_pair_block`].
#[inline(always)]
fn field_pair_block<K: GradientKernel + ?Sized, const W: usize>(
    kernel: &K,
    a: Sources<'_>,
    i: usize,
    b: Sources<'_>,
    out_a: &mut FieldOut<'_>,
    sums_b: &mut FieldOut<'_>,
) {
    let ax: [f64; W] = std::array::from_fn(|l| a.x[i + l]);
    let ay: [f64; W] = std::array::from_fn(|l| a.y[i + l]);
    let az: [f64; W] = std::array::from_fn(|l| a.z[i + l]);
    let aq: [f64; W] = std::array::from_fn(|l| a.q[i + l]);
    let mut acc = [[0.0f64; W]; 4];
    for j in 0..b.len() {
        let (bx, by, bz, bq) = (b.x[j], b.y[j], b.z[j], b.q[j]);
        let e: [(f64, f64, f64, f64); W] =
            std::array::from_fn(|l| kernel.eval_with_grad(ax[l] - bx, ay[l] - by, az[l] - bz));
        let mut c = [sums_b.pot[j], sums_b.gx[j], sums_b.gy[j], sums_b.gz[j]];
        for l in 0..W {
            let (g, dgx, dgy, dgz) = e[l];
            acc[0][l] += g * bq;
            acc[1][l] += dgx * bq;
            acc[2][l] += dgy * bq;
            acc[3][l] += dgz * bq;
            c[0] += g * aq[l];
            c[1] += -dgx * aq[l];
            c[2] += -dgy * aq[l];
            c[3] += -dgz * aq[l];
        }
        [sums_b.pot[j], sums_b.gx[j], sums_b.gy[j], sums_b.gz[j]] = c;
    }
    let cols = [
        &mut *out_a.pot,
        &mut *out_a.gx,
        &mut *out_a.gy,
        &mut *out_a.gz,
    ];
    for (col, v) in cols.into_iter().zip(acc) {
        for (slot, v) in col[i..i + W].iter_mut().zip(v) {
            *slot += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::direct_sum;
    use crate::field::direct_sum_field;
    use crate::geometry::Point3;
    use crate::kernel::{
        Coulomb, Gaussian, MixedPrecision, RegularizedCoulomb, RegularizedYukawa, Yukawa,
    };

    /// Sources every engine must survive bit for bit: coincident with
    /// targets (r² = 0), negative and signed-zero charges, subnormal and
    /// underflowing displacements, and separations whose squares
    /// overflow.
    fn adversarial_sources() -> ParticleSet {
        let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
        let mut s = ParticleSet::random_cube(7, 901);
        for q in s.q.iter_mut().step_by(2) {
            *q = -*q;
        }
        let extra = [
            (Point3::new(0.0, 0.0, 0.0), 0.0),
            (Point3::new(tiny, 0.0, -tiny), -1.5),
            (Point3::new(1e-160, 0.0, 0.0), 2.0),
            (Point3::new(0.25, 0.5, 0.75), -0.0),
            (Point3::new(1e300, -1e300, 0.5), 3.0),
            (Point3::new(-1e150, 0.0, 1e150), -0.25),
            (Point3::new(1e-300, 1e-300, 1e-300), 1.0),
        ];
        for (p, q) in extra {
            s.push(p, q);
        }
        s
    }

    /// `2·LANES + 1` targets: some coincide with sources, some sit a
    /// subnormal or an overflowing distance away.
    fn adversarial_targets(sources: &ParticleSet) -> ParticleSet {
        let mut t = ParticleSet::random_cube(2 * LANES + 1, 902);
        for (i, j) in [(0, 7), (2, 0), (3, 10), (5, 8)] {
            t.x[i] = sources.x[j];
            t.y[i] = sources.y[j];
            t.z[i] = sources.z[j];
        }
        t.x[1] = f64::MIN_POSITIVE / 2.0;
        t.y[1] = 0.0;
        t.z[1] = 0.0;
        t.x[4] = -1e300;
        t.x[6] = 1e160;
        t
    }

    fn prefix(ps: &ParticleSet, n: usize) -> ParticleSet {
        let mut out = ParticleSet::default();
        for i in 0..n {
            out.push(Point3::new(ps.x[i], ps.y[i], ps.z[i]), ps.q[i]);
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn check_potential(kernel: &dyn Kernel) {
        let s = adversarial_sources();
        let pool = adversarial_targets(&s);
        for n in 0..=2 * LANES + 1 {
            let t = prefix(&pool, n);
            let mut out = vec![0.0; n];
            kernel.p2p_potential(Targets::of(&t, 0..n), Sources::of(&s, 0..s.len()), &mut out);
            let reference = direct_sum(&t, &s, kernel);
            assert_eq!(bits(&out), bits(&reference), "{} n={n}", kernel.name());
        }
    }

    fn check_field(kernel: &dyn GradientKernel) {
        let s = adversarial_sources();
        let pool = adversarial_targets(&s);
        for n in 0..=2 * LANES + 1 {
            let t = prefix(&pool, n);
            let block = BlockKernel::Field(kernel);
            let mut cols = block.zeros(n);
            block.accumulate(
                Targets::of(&t, 0..n),
                Sources::of(&s, 0..s.len()),
                &mut cols,
            );
            let r = direct_sum_field(&t, &s, kernel);
            for (got, want) in cols.iter().zip([&r.potentials, &r.gx, &r.gy, &r.gz]) {
                assert_eq!(bits(got), bits(want), "{} n={n}", kernel.name());
            }
        }
    }

    #[test]
    fn potential_matches_per_pair_reference_bitwise() {
        check_potential(&Coulomb);
        check_potential(&Yukawa::new(0.5));
        check_potential(&RegularizedCoulomb::new(0.1));
        check_potential(&RegularizedYukawa::new(2.0, 0.1));
        check_potential(&Gaussian::new(1.3));
        check_potential(&MixedPrecision(Coulomb));
    }

    #[test]
    fn field_matches_per_pair_reference_bitwise() {
        check_field(&Coulomb);
        check_field(&Yukawa::new(0.5));
        check_field(&RegularizedCoulomb::new(0.1));
        check_field(&RegularizedYukawa::new(2.0, 0.1));
        check_field(&Gaussian::new(1.3));
    }

    /// Two blocks for the pair tests: the adversarial sources, and
    /// targets (with charges) some of which coincide with them.
    fn pair_blocks() -> (ParticleSet, ParticleSet) {
        let a = adversarial_sources();
        let mut b = adversarial_targets(&a);
        for (i, q) in b.q.iter_mut().enumerate() {
            if i % 3 == 0 {
                *q = -*q;
            }
        }
        b.q[2] = -0.0;
        (a, b)
    }

    /// The pair body against two one-sided blocks, for every prefix
    /// length of both sides.
    fn check_potential_pair(kernel: &dyn Kernel) {
        assert!(kernel.symmetric(), "{}", kernel.name());
        let (pa, pb) = pair_blocks();
        for na in 0..=2 * LANES + 1 {
            for nb in 0..=2 * LANES + 1 {
                let (a, b) = (prefix(&pa, na.min(pa.len())), prefix(&pb, nb));
                let (sa, sb) = (Sources::of(&a, 0..a.len()), Sources::of(&b, 0..nb));
                let mut rows = vec![0.5; a.len()];
                let mut half = vec![f64::NAN; nb];
                kernel.p2p_potential_pair(sa, sb, &mut rows, &mut half);
                let mut want_rows = vec![0.5; a.len()];
                kernel.p2p_potential(Targets::of(&a, 0..a.len()), sb, &mut want_rows);
                let mut want_half = vec![0.0; nb];
                kernel.p2p_potential(Targets::of(&b, 0..nb), sa, &mut want_half);
                let ctx = format!("{} na={na} nb={nb}", kernel.name());
                assert_eq!(bits(&rows), bits(&want_rows), "{ctx} rows");
                assert_eq!(bits(&half), bits(&want_half), "{ctx} partner");
            }
        }
    }

    fn check_field_pair(kernel: &dyn GradientKernel) {
        assert!(kernel.symmetric(), "{}", kernel.name());
        let block = BlockKernel::Field(kernel);
        let (pa, pb) = pair_blocks();
        for na in 0..=2 * LANES + 1 {
            for nb in 0..=2 * LANES + 1 {
                let (a, b) = (prefix(&pa, na.min(pa.len())), prefix(&pb, nb));
                let (sa, sb) = (Sources::of(&a, 0..a.len()), Sources::of(&b, 0..nb));
                let mut rows = block.zeros(a.len());
                let mut half = vec![vec![f64::NAN; nb]; 4];
                block.accumulate_pair(sa, sb, &mut rows, &mut half);
                let mut want_rows = block.zeros(a.len());
                block.accumulate(Targets::of(&a, 0..a.len()), sb, &mut want_rows);
                let mut want_half = block.zeros(nb);
                block.accumulate(Targets::of(&b, 0..nb), sa, &mut want_half);
                let ctx = format!("{} na={na} nb={nb}", kernel.name());
                for c in 0..4 {
                    assert_eq!(bits(&rows[c]), bits(&want_rows[c]), "{ctx} rows {c}");
                    // Yukawa's gradient at an overflowing separation is
                    // NaN, whose sign bit negation flips.
                    let half = nan_canonical(&half[c]);
                    assert_eq!(half, nan_canonical(&want_half[c]), "{ctx} partner {c}");
                }
            }
        }
    }

    #[test]
    fn potential_pair_matches_two_blocks_bitwise() {
        check_potential_pair(&Coulomb);
        check_potential_pair(&Yukawa::new(0.5));
        check_potential_pair(&RegularizedCoulomb::new(0.1));
        check_potential_pair(&RegularizedYukawa::new(2.0, 0.1));
        check_potential_pair(&Gaussian::new(1.3));
        check_potential_pair(&MixedPrecision(Coulomb));
    }

    #[test]
    fn field_pair_matches_two_blocks_bitwise() {
        check_field_pair(&Coulomb);
        check_field_pair(&Yukawa::new(0.5));
        check_field_pair(&RegularizedCoulomb::new(0.1));
        check_field_pair(&RegularizedYukawa::new(2.0, 0.1));
        check_field_pair(&Gaussian::new(1.3));
    }

    #[test]
    fn pair_fixture_has_coincident_points_across_blocks() {
        let (a, b) = pair_blocks();
        let coincide = (0..b.len())
            .any(|i| (0..a.len()).any(|j| (a.x[j], a.y[j], a.z[j]) == (b.x[i], b.y[i], b.z[i])));
        assert!(coincide);
        assert!(a.len() > 2 * LANES + 1, "every prefix length of a exists");
    }

    /// Bits with every NaN replaced by one canonical NaN.
    fn nan_canonical(v: &[f64]) -> Vec<u64> {
        let canon = |x: f64| if x.is_nan() { f64::NAN } else { x };
        v.iter().map(|&x| canon(x).to_bits()).collect()
    }

    /// Every displacement of the adversarial fixture.
    fn displacements() -> Vec<(f64, f64, f64)> {
        let s = adversarial_sources();
        let t = adversarial_targets(&s);
        let mut d = Vec::new();
        for i in 0..t.len() {
            for j in 0..s.len() {
                d.push((t.x[i] - s.x[j], t.y[i] - s.y[j], t.z[i] - s.z[j]));
            }
        }
        d
    }

    #[test]
    fn symmetric_kernels_are_bitwise_even() {
        let potentials: [&dyn Kernel; 6] = [
            &Coulomb,
            &Yukawa::new(0.5),
            &RegularizedCoulomb::new(0.1),
            &RegularizedYukawa::new(2.0, 0.1),
            &Gaussian::new(1.3),
            &MixedPrecision(Yukawa::new(0.5)),
        ];
        let gradients: [&dyn GradientKernel; 5] = [
            &Coulomb,
            &Yukawa::new(0.5),
            &RegularizedCoulomb::new(0.1),
            &RegularizedYukawa::new(2.0, 0.1),
            &Gaussian::new(1.3),
        ];
        for (dx, dy, dz) in displacements() {
            for k in potentials.iter().filter(|k| k.symmetric()) {
                let (p, m) = (k.eval(dx, dy, dz), k.eval(-dx, -dy, -dz));
                assert_eq!(p.to_bits(), m.to_bits(), "{} at {dx:e}", k.name());
                let (f, g) = (dx as f32, dy as f32);
                let (p32, m32) = (k.eval_f32(f, g, 0.5), k.eval_f32(-f, -g, -0.5));
                assert_eq!(p32.to_bits(), m32.to_bits(), "{} f32", k.name());
            }
            for k in gradients.iter().filter(|k| k.symmetric()) {
                // Zeros may differ in sign and NaNs in sign bit: neither
                // changes a sum that starts from +0.0 (see the contract).
                let canon = |v: f64| if v == 0.0 || v.is_nan() { v.abs() } else { v };
                let (g, x, y, z) = k.eval_with_grad(dx, dy, dz);
                let (gm, xm, ym, zm) = k.eval_with_grad(-dx, -dy, -dz);
                assert_eq!(g.to_bits(), gm.to_bits(), "{}", k.name());
                let want = [-x, -y, -z].map(|v| canon(v).to_bits());
                assert_eq!(
                    [xm, ym, zm].map(|v| canon(v).to_bits()),
                    want,
                    "{}",
                    k.name()
                );
            }
        }
        assert!(potentials.iter().all(|k| k.symmetric()));
    }

    #[test]
    fn kernels_are_asymmetric_by_default() {
        struct Shifted;
        impl Kernel for Shifted {
            fn eval(&self, dx: f64, _: f64, _: f64) -> f64 {
                dx
            }
            fn name(&self) -> &'static str {
                "shifted"
            }
            fn flops_per_eval_cpu(&self) -> f64 {
                1.0
            }
            fn flops_per_eval_gpu(&self) -> f64 {
                1.0
            }
        }
        assert!(!Shifted.symmetric());
        let by_ref: &dyn Kernel = &&Shifted;
        assert!(!by_ref.symmetric());
        let by_ref: &dyn Kernel = &&Coulomb;
        assert!(by_ref.symmetric(), "&K forwards");
    }

    #[test]
    fn inputs_are_adversarial() {
        // Guard the fixture itself: it must keep producing zero
        // displacements, subnormal squares and overflowing squares.
        let s = adversarial_sources();
        let t = adversarial_targets(&s);
        let r2 = |i: usize, j: usize| {
            let (dx, dy, dz) = (t.x[i] - s.x[j], t.y[i] - s.y[j], t.z[i] - s.z[j]);
            dx * dx + dy * dy + dz * dz
        };
        let all: Vec<f64> = (0..t.len())
            .flat_map(|i| (0..s.len()).map(move |j| (i, j)))
            .map(|(i, j)| r2(i, j))
            .collect();
        assert!(all.contains(&0.0));
        assert!(all.iter().any(|v| v.is_infinite()));
        assert!(all.iter().any(|v| v.is_subnormal()));
        assert!(s.q.iter().any(|q| q.to_bits() == (-0.0f64).to_bits()));
        assert!(s.q.iter().any(|&q| q < 0.0));
    }

    #[test]
    fn reference_wrapper_forwards_block_methods() {
        // `&K` forwards to K's block method: same bits as the kernel
        // itself and as the generic body.
        let s = adversarial_sources();
        let t = adversarial_targets(&s);
        let (ts, ss) = (Targets::of(&t, 0..t.len()), Sources::of(&s, 0..s.len()));
        let k = Yukawa::new(0.5);
        let mut direct = vec![0.0; t.len()];
        k.p2p_potential(ts, ss, &mut direct);
        let mut by_ref = vec![0.0; t.len()];
        (&&k as &dyn Kernel).p2p_potential(ts, ss, &mut by_ref);
        let mut generic = vec![0.0; t.len()];
        potential(&k, ts, ss, &mut generic);
        assert_eq!(bits(&direct), bits(&by_ref));
        assert_eq!(bits(&direct), bits(&generic));
    }

    #[test]
    fn blocks_accumulate_into_existing_output() {
        let s = ParticleSet::random_cube(20, 903);
        let t = ParticleSet::random_cube(LANES + 3, 904);
        let (ts, ss) = (Targets::of(&t, 0..t.len()), Sources::of(&s, 0..s.len()));
        let mut once = vec![0.0; t.len()];
        Coulomb.p2p_potential(ts, ss, &mut once);
        let mut twice = once.clone();
        Coulomb.p2p_potential(ts, ss, &mut twice);
        for (a, b) in once.iter().zip(&twice) {
            assert_eq!(*b, a + a);
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn ragged_source_columns_are_rejected() {
        let _ = Sources::new(&[0.0; 3], &[0.0; 3], &[0.0; 2], &[1.0; 3]);
    }
}
