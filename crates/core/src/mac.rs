//! The multipole acceptance criterion (MAC) of Eq. 13.
//!
//! A batch–cluster pair is approximated when **both**
//!
//! 1. `(r_B + r_C) / R < θ` — geometric well-separation (accuracy), and
//! 2. `(n+1)³ < N_C` — the cluster holds more sources than proxy points
//!    (efficiency: otherwise the *exact* interaction is both cheaper and
//!    more accurate, because the approximation has the same direct-sum
//!    form).
//!
//! The MAC is applied to the **batch as a whole** — the design decision
//! that eliminates GPU thread divergence (§3.2): every target in a batch
//! follows the same interaction list.

use crate::config::BltcParams;
use crate::geometry::Point3;
use crate::tree::ClusterNode;

/// Outcome of assessing one batch–cluster pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacDecision {
    /// MAC satisfied: use the barycentric approximation (Eq. 11).
    Approximate,
    /// Compute the exact interaction (Eq. 9) — either the cluster is a
    /// leaf that failed separation, or it is too small to be worth
    /// approximating.
    Direct,
    /// Separation failed on an internal node: recurse into the children.
    Subdivide,
}

/// MAC condition 2 on its own: whether a cluster of `num_particles`
/// sources can ever be approximated with `proxy_count` proxies. A
/// cluster that fails it is evaluated directly by every batch on every
/// rank, so its modified charges are never read.
#[inline]
pub fn can_approximate(proxy_count: usize, num_particles: usize) -> bool {
    proxy_count < num_particles
}

/// The evaluator for Eq. 13.
#[derive(Debug, Clone, Copy)]
pub struct Mac {
    /// Opening parameter θ.
    pub theta: f64,
    /// Proxy-point count `(n+1)³`.
    pub proxy_count: usize,
}

impl Mac {
    /// Build from treecode parameters.
    pub fn new(params: &BltcParams) -> Self {
        Self {
            theta: params.theta,
            proxy_count: params.proxy_count(),
        }
    }

    /// Geometric separation test `(r_B + r_C) < θ·R`, written without the
    /// division so `R = 0` (concentric batch and cluster) is safely
    /// "not separated".
    #[inline]
    pub fn well_separated(
        &self,
        batch_center: &Point3,
        batch_radius: f64,
        cluster: &ClusterNode,
    ) -> bool {
        let r = batch_center.dist(&cluster.center);
        batch_radius + cluster.radius < self.theta * r
    }

    /// Full decision per the BLTC algorithm (lines 10–20).
    pub fn assess(
        &self,
        batch_center: &Point3,
        batch_radius: f64,
        cluster: &ClusterNode,
    ) -> MacDecision {
        if !self.well_separated(batch_center, batch_radius, cluster) {
            // MAC fails on separation: direct for a leaf, recurse otherwise.
            if cluster.is_leaf() {
                MacDecision::Direct
            } else {
                MacDecision::Subdivide
            }
        } else if !can_approximate(self.proxy_count, cluster.num_particles()) {
            // Separated but the cluster is too small: exact interaction is
            // cheaper *and* more accurate.
            MacDecision::Direct
        } else {
            MacDecision::Approximate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BoundingBox;

    fn cluster(center: Point3, radius: f64, particles: usize, leaf: bool) -> ClusterNode {
        // Build a synthetic node with a cubic box of the right radius.
        let h = radius / 3f64.sqrt();
        let bbox = BoundingBox::new(
            Point3::new(center.x - h, center.y - h, center.z - h),
            Point3::new(center.x + h, center.y + h, center.z + h),
        );
        ClusterNode {
            bbox,
            center,
            radius,
            start: 0,
            end: particles,
            children: [0; 8],
            num_children: if leaf { 0 } else { 2 },
            level: 0,
        }
    }

    fn mac(theta: f64, degree: usize) -> Mac {
        Mac::new(&BltcParams::new(theta, degree, 100, 100))
    }

    #[test]
    fn far_large_cluster_is_approximated() {
        let m = mac(0.5, 2); // proxy = 27
        let c = cluster(Point3::new(10.0, 0.0, 0.0), 0.5, 1000, false);
        assert_eq!(
            m.assess(&Point3::new(0.0, 0.0, 0.0), 0.5, &c),
            MacDecision::Approximate
        );
    }

    #[test]
    fn near_internal_cluster_subdivides() {
        let m = mac(0.5, 2);
        let c = cluster(Point3::new(1.0, 0.0, 0.0), 0.5, 1000, false);
        assert_eq!(
            m.assess(&Point3::new(0.0, 0.0, 0.0), 0.5, &c),
            MacDecision::Subdivide
        );
    }

    #[test]
    fn near_leaf_cluster_is_direct() {
        let m = mac(0.5, 2);
        let c = cluster(Point3::new(1.0, 0.0, 0.0), 0.5, 50, true);
        assert_eq!(
            m.assess(&Point3::new(0.0, 0.0, 0.0), 0.5, &c),
            MacDecision::Direct
        );
    }

    #[test]
    fn small_far_cluster_is_direct() {
        // Separated, but N_C <= (n+1)^3 ⇒ exact interaction.
        let m = mac(0.5, 2); // proxy = 27
        let c = cluster(Point3::new(10.0, 0.0, 0.0), 0.5, 27, false);
        assert_eq!(
            m.assess(&Point3::new(0.0, 0.0, 0.0), 0.5, &c),
            MacDecision::Direct
        );
        let c = cluster(Point3::new(10.0, 0.0, 0.0), 0.5, 28, false);
        assert_eq!(
            m.assess(&Point3::new(0.0, 0.0, 0.0), 0.5, &c),
            MacDecision::Approximate
        );
    }

    #[test]
    fn concentric_pair_never_separated() {
        let m = mac(0.9, 2);
        let c = cluster(Point3::new(0.0, 0.0, 0.0), 0.0, 1000, false);
        // R = 0, r_B = r_C = 0: 0 < θ·0 is false.
        assert!(!m.well_separated(&Point3::new(0.0, 0.0, 0.0), 0.0, &c));
        assert_eq!(
            m.assess(&Point3::new(0.0, 0.0, 0.0), 0.0, &c),
            MacDecision::Subdivide
        );
    }

    #[test]
    fn theta_monotonicity() {
        // A pair separated at θ=0.5 is also separated at θ=0.9.
        let c = cluster(Point3::new(4.0, 0.0, 0.0), 0.5, 1000, false);
        let b = Point3::new(0.0, 0.0, 0.0);
        let tight = mac(0.5, 2);
        let loose = mac(0.9, 2);
        assert!(tight.well_separated(&b, 0.5, &c));
        assert!(loose.well_separated(&b, 0.5, &c));
        // A borderline pair: separated only under the looser θ.
        let c2 = cluster(Point3::new(2.0, 0.0, 0.0), 0.5, 1000, false);
        assert!(!tight.well_separated(&b, 0.5, &c2));
        assert!(loose.well_separated(&b, 0.5, &c2));
    }

    #[test]
    fn fig1_geometry() {
        // The schematic of Fig. 1: batch radius r_B, cluster radius r_C,
        // center distance R. Verify the acceptance boundary R = (r_B+r_C)/θ.
        let (rb, rc, theta) = (0.3, 0.6, 0.75);
        let m = mac(theta, 2);
        let boundary = (rb + rc) / theta;
        let just_inside = cluster(Point3::new(boundary * 0.999, 0.0, 0.0), rc, 1000, false);
        let just_outside = cluster(Point3::new(boundary * 1.001, 0.0, 0.0), rc, 1000, false);
        let b = Point3::new(0.0, 0.0, 0.0);
        assert!(!m.well_separated(&b, rb, &just_inside));
        assert!(m.well_separated(&b, rb, &just_outside));
    }
}
