//! Modified charges `q̂_k` (Eq. 12), computed with the paper's two-phase
//! scheme (Eq. 14–15).
//!
//! Phase 1 computes per-source intermediates
//! `q̃_j = q_j / (D_1 D_2 D_3)` where `D_ℓ = Σ_k w_k / (y_{jℓ} - s_kℓ)`
//! is the barycentric denominator in dimension ℓ. Phase 2 accumulates
//! `q̂_k = Σ_j t_{k1}(y_{j1}) t_{k2}(y_{j2}) t_{k3}(y_{j3}) q̃_j` with
//! `t_k(y) = w_k / (y - s_k)`. The product of the two phases is exactly
//! the tensor Lagrange basis `L_{k1} L_{k2} L_{k3}` of Eq. 12.
//!
//! Removable singularities: a source coordinate on a box face coincides
//! with an endpoint node (guaranteed by minimal bounding boxes). Per §2.3
//! the coincident dimension's factor collapses to a Kronecker delta; the
//! `DimEval` machinery of [`crate::interp::barycentric`] implements this
//! for both phases.
//!
//! Because `Σ_k L_k(y) = 1` in every dimension, the transform conserves
//! total charge: `Σ_k q̂_k = Σ_j q_j` — a key test invariant.

use rayon::prelude::*;

use crate::interp::barycentric::{dim_eval, dim_term, phase1_factor, DimEval};
use crate::interp::tensor::TensorGrid;
use crate::mac::can_approximate;
use crate::p2p::Sources;
use crate::tree::SourceTree;

/// Per-cluster interpolation data: the tensor grid and, for computed
/// clusters, its proxy-coordinate columns and the `(n+1)³` modified
/// charges in linear index order.
#[derive(Debug, Clone)]
pub struct ClusterCharges {
    degree: usize,
    grids: Vec<TensorGrid>,
    /// Per node, the proxy `[x, y, z]` columns and the modified charges
    /// `q̂`, all empty until the node's charges are computed or set —
    /// built once so no evaluation loop rebuilds a proxy point.
    clusters: Vec<[Vec<f64>; 4]>,
}

impl ClusterCharges {
    /// Compute the tensor grids for every node and the modified charges
    /// of every node a MAC can accept ([`can_approximate`]; the paper
    /// precomputes the clusters of the rank's subtree up front, §3.2 —
    /// one OpenMP task per cluster; here one pool task per cluster).
    /// Every other node is evaluated directly by every batch on every
    /// rank, so its charges are never read and stay uncomputed
    /// ([`Self::is_computed`] is false; [`Self::compute_node`] fills one
    /// on demand). Each node's charges depend only on that node's
    /// particles and grid and land in that node's slot, so the result is
    /// bitwise identical at any pool size.
    pub fn compute_all(tree: &SourceTree, degree: usize) -> Self {
        let mut s = Self::grids_only(tree, degree);
        for (idx, q) in approximable_charges(tree, degree).into_iter().enumerate() {
            if !q.is_empty() {
                s.set_node_charges(idx, q);
            }
        }
        s
    }

    /// Build only the grids; charges can then be filled selectively with
    /// [`ClusterCharges::compute_node`] (used by ablation studies and by
    /// the distributed pipeline for remote LET clusters whose charges
    /// arrive over the wire).
    pub fn grids_only(tree: &SourceTree, degree: usize) -> Self {
        let grids: Vec<TensorGrid> = tree
            .nodes()
            .iter()
            .map(|n| TensorGrid::new(degree, &n.bbox))
            .collect();
        let clusters = vec![Default::default(); grids.len()];
        Self {
            degree,
            grids,
            clusters,
        }
    }

    /// Compute (or recompute) the charges of a single node.
    pub fn compute_node(&mut self, tree: &SourceTree, idx: usize) {
        let charges = compute_node_charges(tree, &self.grids[idx], idx);
        self.set_node_charges(idx, charges);
    }

    /// Install externally computed charges for a node (distributed LET),
    /// building its proxy columns.
    pub fn set_node_charges(&mut self, idx: usize, charges: Vec<f64>) {
        assert_eq!(
            charges.len(),
            self.grids[idx].len(),
            "charge count mismatch"
        );
        let mut proxies = Default::default();
        self.grids[idx].extend_proxy_columns(&mut proxies);
        let [x, y, z] = proxies;
        self.clusters[idx] = [x, y, z, charges];
    }

    /// Interpolation degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The tensor grid of a node.
    #[inline]
    pub fn grid(&self, idx: usize) -> &TensorGrid {
        &self.grids[idx]
    }

    /// The modified charges of a node (empty if not computed).
    #[inline]
    pub fn charges(&self, idx: usize) -> &[f64] {
        &self.clusters[idx][3]
    }

    /// A node's proxies and modified charges as one P2P source block
    /// (Eq. 11). Panics if the node's charges have not been computed.
    pub fn proxy_sources(&self, idx: usize) -> Sources<'_> {
        assert!(
            self.is_computed(idx),
            "modified charges missing for cluster {idx}"
        );
        let [x, y, z, q] = &self.clusters[idx];
        Sources::new(x, y, z, q)
    }

    /// Whether a node's charges have been computed.
    #[inline]
    pub fn is_computed(&self, idx: usize) -> bool {
        !self.clusters[idx][3].is_empty()
    }

    /// Number of nodes tracked.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.grids.len()
    }
}

/// The modified charges of every node a MAC can accept, empty for the
/// rest — one pool task per node.
fn approximable_charges(tree: &SourceTree, degree: usize) -> Vec<Vec<f64>> {
    let m3 = (degree + 1).pow(3);
    (0..tree.num_nodes())
        .into_par_iter()
        .map(|idx| {
            let node = tree.node(idx);
            if !can_approximate(m3, node.num_particles()) {
                return Vec::new();
            }
            compute_node_charges(tree, &TensorGrid::new(degree, &node.bbox), idx)
        })
        .collect()
}

/// Write the modified charges of every node a MAC can accept into `out`,
/// `(n+1)³` slots per node in node order, without building proxy
/// columns (the distributed modified-charge window). The slots of the
/// other nodes are left as they are.
pub fn write_approximable_charges(tree: &SourceTree, degree: usize, out: &mut [f64]) {
    let m3 = (degree + 1).pow(3);
    assert_eq!(
        out.len(),
        tree.num_nodes() * m3,
        "one charge window per node"
    );
    for (slot, q) in out.chunks_mut(m3).zip(approximable_charges(tree, degree)) {
        if !q.is_empty() {
            slot.copy_from_slice(&q);
        }
    }
}

/// Compute the modified charges of one cluster. Public (crate-visible via
/// re-export) so the GPU engine can reuse the identical scalar math inside
/// its simulated kernels.
pub fn compute_node_charges(tree: &SourceTree, grid: &TensorGrid, idx: usize) -> Vec<f64> {
    let (xs, ys, zs, qs) = tree.node_particles(idx);
    compute_charges_from_slices(grid, xs, ys, zs, qs)
}

/// The two-phase computation over raw coordinate slices:
/// phase 1 (Eq. 14) then phase 2 (Eq. 15).
pub fn compute_charges_from_slices(
    grid: &TensorGrid,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
) -> Vec<f64> {
    let qt = phase1_intermediates(grid, xs, ys, zs, qs);
    phase2_accumulate(grid, xs, ys, zs, &qt)
}

/// Phase 1 (Eq. 14): the per-source intermediates
/// `q̃_j = q_j / (D_1 D_2 D_3)` (coincident dimensions contribute factor
/// 1 — their basis is already a Kronecker delta).
///
/// This is exactly the work of the paper's first preprocessing kernel;
/// the GPU engine calls it from inside its simulated kernel body so CPU
/// and GPU results agree bit-for-bit.
pub fn phase1_intermediates(
    grid: &TensorGrid,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
) -> Vec<f64> {
    let mut qt = Vec::with_capacity(xs.len());
    for j in 0..xs.len() {
        let e1 = dim_eval(grid.dim(0), xs[j]);
        let e2 = dim_eval(grid.dim(1), ys[j]);
        let e3 = dim_eval(grid.dim(2), zs[j]);
        qt.push(qs[j] * phase1_factor(&e1) * phase1_factor(&e2) * phase1_factor(&e3));
    }
    qt
}

/// Phase 2 (Eq. 15): accumulate the modified charges from the
/// intermediates, `q̂_k = Σ_j t_{k1} t_{k2} t_{k3} q̃_j`.
///
/// The accumulation order (ascending `j` for every `k`) and the product
/// association `((t1·q̃)·t2)·t3` are fixed so the CPU and simulated-GPU
/// paths produce identical bits.
pub fn phase2_accumulate(
    grid: &TensorGrid,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qt: &[f64],
) -> Vec<f64> {
    assert_eq!(qt.len(), xs.len(), "intermediate count mismatch");
    let m = grid.nodes_per_dim();
    let mut qhat = vec![0.0; grid.len()];
    // Per-particle term vectors, reused across particles.
    let mut t1 = vec![0.0; m];
    let mut t2 = vec![0.0; m];
    let mut t3 = vec![0.0; m];
    for j in 0..xs.len() {
        let e1 = dim_eval(grid.dim(0), xs[j]);
        let e2 = dim_eval(grid.dim(1), ys[j]);
        let e3 = dim_eval(grid.dim(2), zs[j]);
        fill_terms(grid, 0, &e1, xs[j], &mut t1);
        fill_terms(grid, 1, &e2, ys[j], &mut t2);
        fill_terms(grid, 2, &e3, zs[j], &mut t3);
        // Index arithmetic (`(k1·m + k2)·m + k3`) is the linear proxy
        // layout shared with the GPU buffers; keep the explicit indices.
        #[allow(clippy::needless_range_loop)]
        for k1 in 0..m {
            let c1 = t1[k1] * qt[j];
            if c1 == 0.0 {
                continue;
            }
            let base1 = k1 * m;
            for k2 in 0..m {
                let c12 = c1 * t2[k2];
                if c12 == 0.0 {
                    continue;
                }
                let base = (base1 + k2) * m;
                for (k3, &t) in t3.iter().enumerate() {
                    qhat[base + k3] += c12 * t;
                }
            }
        }
    }
    qhat
}

#[inline]
fn fill_terms(grid: &TensorGrid, dim: usize, eval: &DimEval, y: f64, out: &mut [f64]) {
    let g = grid.dim(dim);
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = dim_term(g, eval, k, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BltcParams;
    use crate::geometry::Point3;
    use crate::kernel::{Coulomb, Kernel};
    use crate::particles::ParticleSet;

    fn tree_of(ps: &ParticleSet, leaf_cap: usize) -> SourceTree {
        SourceTree::build(ps, &BltcParams::new(0.7, 4, leaf_cap, leaf_cap))
    }

    #[test]
    fn total_charge_is_conserved_per_cluster() {
        let ps = ParticleSet::random_cube(2000, 31);
        let tree = tree_of(&ps, 100);
        // compute_all skips the nodes no MAC can accept (every leaf
        // here); conservation holds for those too.
        let mut cc = ClusterCharges::compute_all(&tree, 5);
        for idx in 0..tree.num_nodes() {
            if !cc.is_computed(idx) {
                cc.compute_node(&tree, idx);
            }
            let (_, _, _, qs) = tree.node_particles(idx);
            let direct: f64 = qs.iter().sum();
            let hat: f64 = cc.charges(idx).iter().sum();
            assert!(
                (direct - hat).abs() < 1e-9 * qs.len() as f64,
                "node {idx}: Σq = {direct}, Σq̂ = {hat}"
            );
        }
    }

    #[test]
    fn proxy_potential_approximates_cluster_potential() {
        // A far-away target evaluated against the proxies must match the
        // direct particle sum to interpolation accuracy.
        let ps = ParticleSet::random_cube(1000, 32);
        let tree = tree_of(&ps, 2000); // single node = whole cloud
        let mut cc = ClusterCharges::grids_only(&tree, 10);
        cc.compute_node(&tree, 0);
        let kernel = Coulomb;
        let target = Point3::new(8.0, 1.5, -3.0);
        let (xs, ys, zs, qs) = tree.node_particles(0);
        let exact: f64 = (0..xs.len())
            .map(|j| kernel.eval(target.x - xs[j], target.y - ys[j], target.z - zs[j]) * qs[j])
            .sum();
        let grid = cc.grid(0);
        let approx: f64 = (0..grid.len())
            .map(|k| {
                let s = grid.point_linear(k);
                kernel.eval(target.x - s.x, target.y - s.y, target.z - s.z) * cc.charges(0)[k]
            })
            .sum();
        assert!(
            (exact - approx).abs() / exact.abs() < 1e-8,
            "exact {exact} vs approx {approx}"
        );
    }

    #[test]
    fn approximation_improves_with_degree() {
        let ps = ParticleSet::random_cube(500, 33);
        let tree = tree_of(&ps, 2000);
        let kernel = Coulomb;
        let target = Point3::new(5.0, 0.0, 0.0);
        let (xs, ys, zs, qs) = tree.node_particles(0);
        let exact: f64 = (0..xs.len())
            .map(|j| kernel.eval(target.x - xs[j], target.y - ys[j], target.z - zs[j]) * qs[j])
            .sum();
        let mut prev = f64::INFINITY;
        for degree in [2, 4, 6, 8] {
            let mut cc = ClusterCharges::grids_only(&tree, degree);
            cc.compute_node(&tree, 0);
            let grid = cc.grid(0);
            let approx: f64 = (0..grid.len())
                .map(|k| {
                    let s = grid.point_linear(k);
                    kernel.eval(target.x - s.x, target.y - s.y, target.z - s.z) * cc.charges(0)[k]
                })
                .sum();
            let err = (exact - approx).abs() / exact.abs();
            assert!(err < prev, "degree {degree}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 1e-7, "degree-8 error {prev}");
    }

    #[test]
    fn face_particles_hit_singularity_path_and_stay_finite() {
        // Particles exactly on the box corners/faces trigger the Exact
        // branch (minimal bbox ⇒ coincidence with endpoint nodes).
        let mut ps = ParticleSet::default();
        ps.push(Point3::new(0.0, 0.0, 0.0), 1.0); // corner = node (n,n,n)
        ps.push(Point3::new(1.0, 1.0, 1.0), -2.0); // corner = node (0,0,0)
        ps.push(Point3::new(0.5, 0.5, 0.5), 3.0);
        ps.push(Point3::new(1.0, 0.25, 0.75), 0.5); // face x = max
        let tree = tree_of(&ps, 100);
        let mut cc = ClusterCharges::grids_only(&tree, 4);
        cc.compute_node(&tree, 0);
        for &v in cc.charges(0) {
            assert!(v.is_finite());
        }
        let total: f64 = cc.charges(0).iter().sum();
        assert!((total - 2.5).abs() < 1e-12, "Σq̂ = {total}");
    }

    #[test]
    fn corner_particle_charge_lands_on_corner_node() {
        // A single particle at the (max,max,max) corner must put all its
        // charge on proxy (0,0,0) — pure Kronecker in all three dims...
        // but a single particle has a degenerate (point) box, where every
        // node coincides. Use two particles to make the box real.
        let mut ps = ParticleSet::default();
        ps.push(Point3::new(1.0, 1.0, 1.0), 5.0);
        ps.push(Point3::new(0.0, 0.0, 0.0), 0.0); // zero charge anchor
        let tree = tree_of(&ps, 100);
        let mut cc = ClusterCharges::grids_only(&tree, 3);
        cc.compute_node(&tree, 0);
        let grid = cc.grid(0);
        let idx = grid.flatten(0, 0, 0);
        assert_eq!(cc.charges(0)[idx], 5.0);
        let sum_abs: f64 = cc.charges(0).iter().map(|v| v.abs()).sum();
        assert_eq!(sum_abs, 5.0, "no charge leaked off the corner node");
    }

    #[test]
    fn grids_only_defers_computation() {
        let ps = ParticleSet::random_cube(300, 34);
        let tree = tree_of(&ps, 50);
        let mut cc = ClusterCharges::grids_only(&tree, 4);
        assert!(!cc.is_computed(0));
        cc.compute_node(&tree, 0);
        assert!(cc.is_computed(0));
        let full = ClusterCharges::compute_all(&tree, 4);
        assert_eq!(cc.charges(0), full.charges(0));
    }

    #[test]
    fn only_clusters_a_mac_can_accept_are_computed() {
        use crate::engine::PreparedTreecode;
        let ps = ParticleSet::random_cube(4000, 38);
        let prep = PreparedTreecode::new(&ps, &ps, BltcParams::new(0.7, 3, 50, 50));
        let m3 = prep.params.proxy_count();
        let mut skipped = 0;
        for idx in 0..prep.tree.num_nodes() {
            let accepts = can_approximate(m3, prep.tree.node(idx).num_particles());
            assert_eq!(prep.charges.is_computed(idx), accepts, "node {idx}");
            skipped += usize::from(!accepts);
        }
        assert!(skipped > 0, "some clusters must be too small");
        let approx = prep.lists.per_batch.iter().flat_map(|b| &b.approx);
        for &ci in approx {
            assert!(prep.charges.is_computed(ci as usize), "approx entry {ci}");
        }
    }

    #[test]
    fn window_holds_the_computed_charges() {
        let ps = ParticleSet::random_cube(2000, 39);
        let tree = tree_of(&ps, 100);
        let degree = 3usize;
        let m3 = (degree + 1).pow(3);
        let cc = ClusterCharges::compute_all(&tree, degree);
        let mut window = vec![-1.0; tree.num_nodes() * m3];
        write_approximable_charges(&tree, degree, &mut window);
        for (idx, slot) in window.chunks(m3).enumerate() {
            if cc.is_computed(idx) {
                assert_eq!(slot, cc.charges(idx));
            } else {
                assert!(slot.iter().all(|&v| v == -1.0), "node {idx} untouched");
            }
        }
    }

    #[test]
    fn set_node_charges_validates_length() {
        let ps = ParticleSet::random_cube(100, 35);
        let tree = tree_of(&ps, 200);
        let mut cc = ClusterCharges::grids_only(&tree, 2);
        cc.set_node_charges(0, vec![0.0; 27]);
        assert!(cc.is_computed(0));
    }

    #[test]
    fn phase_split_equals_fused_computation() {
        let ps = ParticleSet::random_cube(400, 37);
        let tree = tree_of(&ps, 1000);
        let (xs, ys, zs, qs) = tree.node_particles(0);
        let grid = TensorGrid::new(6, &tree.node(0).bbox);
        let fused = compute_charges_from_slices(&grid, xs, ys, zs, qs);
        let qt = phase1_intermediates(&grid, xs, ys, zs, qs);
        let split = phase2_accumulate(&grid, xs, ys, zs, &qt);
        assert_eq!(fused, split, "split phases must be bitwise identical");
        // Intermediates must all be finite (singularity handling works).
        assert!(qt.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "charge count mismatch")]
    fn set_node_charges_rejects_bad_length() {
        let ps = ParticleSet::random_cube(100, 36);
        let tree = tree_of(&ps, 200);
        let mut cc = ClusterCharges::grids_only(&tree, 2);
        cc.set_node_charges(0, vec![0.0; 5]);
    }
}
