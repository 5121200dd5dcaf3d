//! Bit-exact digests of every engine that runs the P2P (batch × cluster)
//! loop: potentials, fields, modeled clocks and op counts, hashed by
//! their IEEE bit patterns with FNV-1a.
//!
//! The constants were recorded before the engines moved onto the shared
//! `bltc_core::p2p` body and must never change: a moved bit in any
//! target's sum, a reordered accumulation or a contracted multiply-add
//! shows up here. They hold at every host-pool size.

use bltc::core::kernel::RegularizedYukawa;
use bltc::core::prelude::*;
use bltc::core::variants::TreecodeVariant;
use bltc::dist::{run_distributed, DistConfig};
use bltc::gpu::GpuEngine;
use bltc::service::{field_digest, fnv1a};

fn bits(v: &[f64]) -> u64 {
    fnv1a(v.iter().map(|x| x.to_bits()))
}

fn cube() -> ParticleSet {
    ParticleSet::random_cube(2500, 1301)
}

fn params() -> BltcParams {
    BltcParams::new(0.7, 5, 100, 100)
}

const PARALLEL_COULOMB: u64 = 0x8bc9_641f_8c88_5c74;
const PARALLEL_YUKAWA: u64 = 0xaa71_b9c9_fefd_c2c6;
const FIELD_REG_COULOMB: u64 = 0x0220_ab58_06dd_c5ba;
const FIELD_REG_YUKAWA: u64 = 0x0cc9_a466_beca_59c4;
const GPU_POTENTIAL: u64 = 0x8873_02ad_b946_1485;
const GPU_FIELD: u64 = 0xfa1e_0d23_992f_f253;
const DIST_4_RANKS: u64 = 0x8699_7d23_8d78_98ac;
const VARIANT_CP: u64 = 0x9831_b1fd_98bf_979f;
const VARIANT_CC: u64 = 0xe7de_3fcb_64c7_9e4b;

#[test]
fn parallel_engine_potentials_are_pinned() {
    let ps = cube();
    let c = ParallelEngine::new(params()).compute(&ps, &ps, &Coulomb);
    assert_eq!(bits(&c.potentials), PARALLEL_COULOMB, "Coulomb");
    let y = ParallelEngine::new(params()).compute(&ps, &ps, &Yukawa::new(0.5));
    assert_eq!(bits(&y.potentials), PARALLEL_YUKAWA, "Yukawa");
}

#[test]
fn parallel_fields_are_pinned() {
    let ps = ParticleSet::plummer(2000, 1.0, 1302);
    let prep = PreparedTreecode::new(&ps, &ps, BltcParams::new(0.8, 4, 64, 64));
    let rc = prep.evaluate_field_parallel(&RegularizedCoulomb::new(0.05));
    assert_eq!(field_digest(&rc), FIELD_REG_COULOMB, "RegularizedCoulomb");
    let ry = prep.evaluate_field_parallel(&RegularizedYukawa::new(2.0, 0.1));
    assert_eq!(field_digest(&ry), FIELD_REG_YUKAWA, "RegularizedYukawa");
}

#[test]
fn gpu_engine_results_and_modeled_clocks_are_pinned() {
    let ps = cube();
    let engine = GpuEngine::new(params());
    let clocks = |s: &bltc::gpu::GpuSimBreakdown| {
        // Every device-side phase; `setup_host_s` is measured wall time.
        [
            s.htod_sources_s,
            s.precompute_s,
            s.dtoh_charges_s,
            s.htod_let_s,
            s.compute_s,
            s.dtoh_potentials_s,
        ]
        .map(f64::to_bits)
    };
    let p = engine.compute_detailed(&ps, &ps, &Coulomb);
    let pot = fnv1a(
        p.result
            .potentials
            .iter()
            .map(|v| v.to_bits())
            .chain(clocks(&p.sim))
            .chain([p.kernel_launches]),
    );
    assert_eq!(pot, GPU_POTENTIAL, "compute_detailed");
    let f = engine.compute_field_detailed(&ps, &ps, &Yukawa::new(0.5));
    let field = fnv1a(
        [field_digest(&f.field), f.kernel_launches]
            .into_iter()
            .chain(clocks(&f.sim)),
    );
    assert_eq!(field, GPU_FIELD, "compute_field_detailed");
}

#[test]
fn distributed_four_ranks_are_pinned() {
    let ps = cube();
    let r = run_distributed(&ps, 4, &DistConfig::comet(params()), &Coulomb);
    let ops = r.total_ops();
    let words = r
        .potentials
        .iter()
        .map(|v| v.to_bits())
        .chain(r.ranks.iter().flat_map(|rr| {
            [
                rr.let_messages,
                rr.let_bytes,
                rr.peak_let_bytes,
                rr.precompute_s.to_bits(),
                rr.compute_s.to_bits(),
                rr.pipelined_s().to_bits(),
            ]
        }))
        .chain([
            ops.direct_interactions,
            ops.approx_interactions,
            ops.kernel_launches,
        ]);
    assert_eq!(fnv1a(words), DIST_4_RANKS);
}

#[test]
fn cluster_particle_and_cluster_cluster_variants_are_pinned() {
    let ps = ParticleSet::random_cube(2000, 1303);
    let prep = PreparedTreecode::new(&ps, &ps, BltcParams::new(0.7, 4, 100, 100));
    let cp = prep.evaluate_variant(&Yukawa::new(0.5), TreecodeVariant::ClusterParticle);
    assert_eq!(bits(&cp), VARIANT_CP, "cluster-particle");
    let cc = prep.evaluate_variant(&Coulomb, TreecodeVariant::ClusterCluster);
    assert_eq!(bits(&cc), VARIANT_CC, "cluster-cluster");
}
