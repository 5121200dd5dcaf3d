//! The single-rank GPU engine: the full pipeline of §3.2 on one device.
//!
//! ```text
//!  build tree/batches/lists (host)            — setup
//!  HtD: source particles                      — setup
//!  for each cluster: phase1 + phase2 kernels  — precompute
//!  DtH: modified charges                      — precompute
//!  HtD: targets (the rank's LET)              — setup
//!  for each batch: walk interaction list,
//!     launching direct/approx kernels,
//!     cycling streamID                        — compute
//!  DtH: potentials                            — compute
//! ```
//!
//! The engine reports both the measured host wall time of the setup work
//! and the simulated device clock of every GPU phase.

use std::time::Instant;

use bltc_core::config::BltcParams;
use bltc_core::cost::OpCounts;
use bltc_core::engine::{ComputeResult, PhaseTimings, TreecodeEngine};
use bltc_core::field::FieldResult;
use bltc_core::interp::tensor::TensorGrid;
use bltc_core::kernel::{GradientKernel, Kernel};
use bltc_core::mac::can_approximate;
use bltc_core::p2p::{BlockKernel, Sources, Targets};
use bltc_core::pairs::MutualPairs;
use bltc_core::particles::ParticleSet;
use bltc_core::traversal::InteractionLists;
use bltc_core::tree::{batch::TargetBatches, SourceTree, TreeStats};
use gpu_sim::{Device, DeviceSpec, LaunchConfig, WorkEstimate};

use crate::kernels::{
    launch_approx_kernel, launch_direct_kernel, launch_precompute_phase1, launch_precompute_phase2,
    DeviceArrays, EvalScratch, PairEntry, THREADS_PER_BLOCK,
};

/// Simulated-clock breakdown of one GPU run (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuSimBreakdown {
    /// Measured host wall time for tree/batch/list construction.
    pub setup_host_s: f64,
    /// HtD copy of the source particles.
    pub htod_sources_s: f64,
    /// Modified-charge kernels (both phases).
    pub precompute_s: f64,
    /// DtH copy of the modified charges (to the host RMA windows).
    pub dtoh_charges_s: f64,
    /// HtD copy of targets / LET.
    pub htod_let_s: f64,
    /// Potential-evaluation kernels.
    pub compute_s: f64,
    /// DtH copy of the potentials.
    pub dtoh_potentials_s: f64,
}

impl GpuSimBreakdown {
    /// Total modeled run time (host setup + all simulated device phases).
    pub fn total(&self) -> f64 {
        self.setup_host_s
            + self.htod_sources_s
            + self.precompute_s
            + self.dtoh_charges_s
            + self.htod_let_s
            + self.compute_s
            + self.dtoh_potentials_s
    }

    /// The paper's three reporting phases:
    /// setup (host work + data staging), precompute, compute.
    pub fn as_three_phases(&self) -> PhaseTimings {
        PhaseTimings {
            setup: self.setup_host_s + self.htod_sources_s + self.htod_let_s,
            precompute: self.precompute_s + self.dtoh_charges_s,
            compute: self.compute_s + self.dtoh_potentials_s,
        }
    }
}

/// Full report of a GPU engine run.
pub struct GpuRunReport {
    /// Potentials (original target order), op counts and phase timings
    /// (the timings here are the *modeled* three-phase split).
    pub result: ComputeResult,
    /// Fine-grained simulated breakdown.
    pub sim: GpuSimBreakdown,
    /// Per-kernel-class profile table.
    pub profile_table: String,
    /// Total kernel launches issued.
    pub kernel_launches: u64,
}

/// Full report of a GPU **field** (potential + gradient) run.
pub struct GpuFieldRunReport {
    /// Potentials and gradients in original target order — bitwise
    /// identical to [`bltc_core::engine::PreparedTreecode::evaluate_field`].
    pub field: FieldResult,
    /// Exact op counts (interaction pairs are identical to the
    /// potential-only run; the *flops per pair* differ, see
    /// [`OpCounts::field_flops`]).
    pub ops: OpCounts,
    /// Modeled three-phase split.
    pub timings: PhaseTimings,
    /// Source-tree shape statistics.
    pub tree_stats: TreeStats,
    /// Fine-grained simulated breakdown. `compute_s` reflects the ~4×
    /// gradient-kernel flop cost.
    pub sim: GpuSimBreakdown,
    /// Per-kernel-class profile table.
    pub profile_table: String,
    /// Total kernel launches issued.
    pub kernel_launches: u64,
}

/// Full report of a [`GpuEngine::compute_block`] run, potentials or
/// field.
pub struct GpuBlockReport {
    /// Output columns in original target order: `[potentials]`, or
    /// `[potentials, gx, gy, gz]` for a field run.
    pub columns: Vec<Vec<f64>>,
    /// Exact op counts.
    pub ops: OpCounts,
    /// Source-tree shape statistics.
    pub tree_stats: TreeStats,
    /// Fine-grained simulated breakdown.
    pub sim: GpuSimBreakdown,
    /// Per-kernel-class profile table.
    pub profile_table: String,
    /// Total kernel launches issued.
    pub kernel_launches: u64,
}

/// Shared prologue of every GPU pipeline run: host setup, HtD staging,
/// the two precompute kernels, DtH of the modified charges, and the
/// target (LET) copy. The compute phase — potential-only or field —
/// continues from `mark`.
struct StagedPipeline {
    tree: SourceTree,
    batches: TargetBatches,
    lists: InteractionLists,
    pairs: MutualPairs,
    dev: Device,
    arrays: DeviceArrays,
    sim: GpuSimBreakdown,
    mark: f64,
}

/// The GPU treecode engine.
#[derive(Debug, Clone, Copy)]
pub struct GpuEngine {
    /// Treecode parameters.
    pub params: BltcParams,
    /// Device model.
    pub spec: DeviceSpec,
    /// Number of asynchronous streams to cycle through (clamped to the
    /// device's stream count; 1 disables overlap — the ablation knob).
    pub streams: usize,
}

impl GpuEngine {
    /// Engine on a Titan V with all four streams (the paper's Fig. 4
    /// configuration).
    pub fn new(params: BltcParams) -> Self {
        let spec = DeviceSpec::titan_v();
        Self {
            params,
            spec,
            streams: spec.num_streams,
        }
    }

    /// Engine on an explicit device model.
    pub fn with_spec(params: BltcParams, spec: DeviceSpec) -> Self {
        Self {
            params,
            spec,
            streams: spec.num_streams,
        }
    }

    /// Restrict stream cycling (ablation of §3.2's async streams).
    pub fn with_streams(mut self, streams: usize) -> Self {
        assert!(streams >= 1, "need at least one stream");
        self.streams = streams.min(self.spec.num_streams);
        self
    }

    /// Run every phase up to (and including) the target/LET staging;
    /// kernel-independent, shared by the potential-only and field paths.
    fn stage(&self, targets: &ParticleSet, sources: &ParticleSet) -> StagedPipeline {
        self.params.validate();
        let mut sim = GpuSimBreakdown::default();

        // ---- host setup -------------------------------------------------
        let t_host = Instant::now();
        let tree = SourceTree::build(sources, &self.params);
        let batches = TargetBatches::for_tree(targets, sources, &tree, &self.params);
        let lists = InteractionLists::build(&batches, &tree, &self.params);
        let pairs = MutualPairs::build(&batches, &tree, &lists);
        let grids: Vec<TensorGrid> = tree
            .nodes()
            .iter()
            .map(|n| TensorGrid::new(self.params.degree, &n.bbox))
            .collect();
        sim.setup_host_s = t_host.elapsed().as_secs_f64();

        let mut dev = Device::new(self.spec);
        let m3 = self.params.proxy_count();
        let num_nodes = tree.num_nodes();

        // ---- HtD: source data -------------------------------------------
        let sp = tree.particles();
        let sx = dev.htod_f64(sp.x.clone());
        let sy = dev.htod_f64(sp.y.clone());
        let sz = dev.htod_f64(sp.z.clone());
        let sq = dev.htod_f64(sp.q.clone());
        dev.synchronize();
        let mut mark = dev.now();
        sim.htod_sources_s = mark;

        // Device-resident interpolation state (generated on device): the
        // proxy columns of the clusters a MAC can accept — the only ones
        // an approximation launch reads — packed in node order, with a
        // node → slot table.
        let mut cols: [Vec<f64>; 3] = Default::default();
        let mut slots = vec![u32::MAX; num_nodes];
        let mut next_slot = 0;
        for ((grid, node), slot) in grids.iter().zip(tree.nodes()).zip(&mut slots) {
            if can_approximate(m3, node.num_particles()) {
                grid.extend_proxy_columns(&mut cols);
                *slot = next_slot;
                next_slot += 1;
            }
        }
        let [px, py, pz] = cols;
        let proxy_x = dev.alloc_f64(px);
        let proxy_y = dev.alloc_f64(py);
        let proxy_z = dev.alloc_f64(pz);
        let proxy_slot = dev.alloc_u32(slots);
        let qhat = dev.alloc_f64(vec![0.0; num_nodes * m3]);
        let qtilde = dev.alloc_f64(vec![0.0; sp.len()]);

        // Target staging happens later (after precompute, like the LET
        // copy in the distributed pipeline); allocate placeholders now.
        let tp = batches.particles();
        let tx = dev.alloc_f64(vec![0.0; tp.len()]);
        let ty = dev.alloc_f64(vec![0.0; tp.len()]);
        let tz = dev.alloc_f64(vec![0.0; tp.len()]);
        let pot = dev.alloc_f64(vec![0.0; tp.len()]);

        let arrays = DeviceArrays {
            sx,
            sy,
            sz,
            sq,
            tx,
            ty,
            tz,
            pot,
            proxy_x,
            proxy_y,
            proxy_z,
            proxy_slot,
            qhat,
            qtilde,
            proxy_per_node: m3,
        };

        // ---- precompute: modified charges for every cluster --------------
        for (ni, node) in tree.nodes().iter().enumerate() {
            let stream = ni % self.streams;
            launch_precompute_phase1(
                &mut dev,
                &arrays,
                &grids[ni],
                (node.start, node.end),
                stream,
            );
            launch_precompute_phase2(
                &mut dev,
                &arrays,
                &grids[ni],
                ni,
                (node.start, node.end),
                stream,
            );
        }
        dev.synchronize();
        sim.precompute_s = dev.now() - mark;
        mark = dev.now();

        // ---- DtH: modified charges (host RMA windows in the MPI version) -
        let _qhat_host = dev.dtoh_f64(qhat);
        sim.dtoh_charges_s = dev.now() - mark;
        mark = dev.now();

        // ---- HtD: targets (the LET copy) ---------------------------------
        dev.htod_update_f64(tx, &tp.x);
        dev.htod_update_f64(ty, &tp.y);
        dev.htod_update_f64(tz, &tp.z);
        dev.synchronize();
        sim.htod_let_s = dev.now() - mark;
        mark = dev.now();

        StagedPipeline {
            tree,
            batches,
            lists,
            pairs,
            dev,
            arrays,
            sim,
            mark,
        }
    }

    /// Run the full pipeline, returning the detailed report.
    pub fn compute_detailed(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> GpuRunReport {
        let mut run = self.compute_block(targets, sources, BlockKernel::Potential(kernel));
        GpuRunReport {
            result: ComputeResult {
                potentials: run.columns.swap_remove(0),
                ops: run.ops,
                timings: run.sim.as_three_phases(),
                tree_stats: run.tree_stats,
            },
            sim: run.sim,
            profile_table: run.profile_table,
            kernel_launches: run.kernel_launches,
        }
    }

    /// Run the full **field** pipeline: identical setup/precompute, then
    /// the gradient-capable batch–cluster kernels (four outputs per
    /// target, ~4× the flops — visible in `sim.compute_s`), then DtH of
    /// potentials *and* the three gradient components.
    pub fn compute_field_detailed(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn GradientKernel,
    ) -> GpuFieldRunReport {
        let run = self.compute_block(targets, sources, BlockKernel::Field(kernel));
        GpuFieldRunReport {
            field: FieldResult::from_columns(run.columns),
            ops: run.ops,
            timings: run.sim.as_three_phases(),
            tree_stats: run.tree_stats,
            sim: run.sim,
            profile_table: run.profile_table,
            kernel_launches: run.kernel_launches,
        }
    }

    /// Run the full pipeline for either output kind: the shared staging,
    /// then the batch–cluster kernels over the interaction lists
    /// (cycling streams), then DtH of every output column.
    pub fn compute_block(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: BlockKernel<'_>,
    ) -> GpuBlockReport {
        let StagedPipeline {
            tree,
            batches,
            lists,
            pairs,
            mut dev,
            arrays,
            mut sim,
            mut mark,
        } = self.stage(targets, sources);

        // Potentials live in the staged arrays; a field run adds the
        // three gradient accumulators.
        let n = batches.particles().len();
        let mut outs = vec![arrays.pot];
        for _ in 1..kernel.columns() {
            outs.push(dev.alloc_f64(vec![0.0; n]));
        }

        // ---- compute: walk interaction lists, cycling streams -------------
        // A symmetric kernel evaluates each mutual leaf pair at its first
        // launch; the partner's launch flushes the parked half.
        let reuse = kernel.symmetric();
        let mut scratch = EvalScratch::new(&pairs);
        let mut launch_counter = 0usize;
        for (bi, (b, bl)) in batches.batches().iter().zip(&lists.per_batch).enumerate() {
            let batch = (b.start, b.end);
            for &ci in &bl.approx {
                let stream = launch_counter % self.streams;
                launch_counter += 1;
                let (ci, s) = (ci as usize, &mut scratch);
                launch_approx_kernel(&mut dev, &arrays, &outs, batch, ci, kernel, stream, s);
            }
            for (k, &ci) in bl.direct.iter().enumerate() {
                let stream = launch_counter % self.streams;
                launch_counter += 1;
                let node = tree.node(ci as usize);
                let cluster = (node.start, node.end);
                let pair = pairs
                    .partner(bi, k)
                    .filter(|_| reuse)
                    .map(|(_, mate)| PairEntry {
                        entry: pairs.entry(bi, k),
                        mate,
                    });
                launch_direct_kernel(
                    &mut dev,
                    &arrays,
                    &outs,
                    batch,
                    cluster,
                    kernel,
                    stream,
                    &mut scratch,
                    pair,
                );
            }
        }
        scratch.finish();
        dev.synchronize();
        sim.compute_s = dev.now() - mark;
        mark = dev.now();

        // ---- DtH: potentials (+ gradients) --------------------------------
        let host: Vec<Vec<f64>> = outs.iter().map(|&buf| dev.dtoh_f64(buf)).collect();
        sim.dtoh_potentials_s = dev.now() - mark;

        GpuBlockReport {
            columns: host
                .iter()
                .map(|c| batches.scatter_to_original(c))
                .collect(),
            ops: OpCounts::from_lists(&lists, &batches, &tree, &self.params),
            tree_stats: tree.stats(),
            sim,
            profile_table: dev.profiler().table(),
            kernel_launches: dev.profiler().total_launches(),
        }
    }
}

impl TreecodeEngine for GpuEngine {
    fn compute(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> ComputeResult {
        self.compute_detailed(targets, sources, kernel).result
    }

    fn name(&self) -> &'static str {
        "gpu-sim"
    }
}

/// Result of the single-launch GPU direct sum.
pub struct GpuDirectSumResult {
    /// Potentials in target order.
    pub potentials: Vec<f64>,
    /// Total simulated seconds (transfers + the one kernel).
    pub sim_seconds: f64,
}

/// Analytic simulated time of the single-launch GPU direct sum, without
/// executing the `O(N²)` body — used by the figure harnesses to draw the
/// Fig. 4 reference line at particle counts too large to evaluate on the
/// host. Matches [`gpu_direct_sum`]'s clock exactly.
pub fn gpu_direct_sum_modeled_seconds(
    spec: DeviceSpec,
    n_targets: usize,
    n_sources: usize,
    kernel: &dyn Kernel,
) -> f64 {
    let mut t = 0.0;
    // Seven HtD transfers (sources x/y/z/q, targets x/y/z).
    for len in [
        n_sources, n_sources, n_sources, n_sources, n_targets, n_targets, n_targets,
    ] {
        t += spec.transfer_seconds((len * 8) as f64);
    }
    t += spec.host_enqueue_s + spec.launch_latency_s;
    let flops = n_targets as f64 * n_sources as f64 * kernel.flops_per_eval_gpu();
    let bytes = ((n_targets + n_sources) * 4 * 8) as f64;
    t += spec.exec_seconds(flops, bytes) / spec.occupancy(n_targets.max(1)).max(1e-6);
    // DtH of the potentials.
    t += spec.transfer_seconds((n_targets * 8) as f64);
    t
}

/// GPU direct summation: "one launch of the batch-cluster direct sum
/// kernel for a batch consisting of all target particles and a cluster
/// consisting of all source particles" (§4) — the red dashed reference
/// line of Fig. 4.
pub fn gpu_direct_sum(
    spec: DeviceSpec,
    targets: &ParticleSet,
    sources: &ParticleSet,
    kernel: &dyn Kernel,
) -> GpuDirectSumResult {
    let mut dev = Device::new(spec);
    let sx = dev.htod_f64(sources.x.clone());
    let sy = dev.htod_f64(sources.y.clone());
    let sz = dev.htod_f64(sources.z.clone());
    let sq = dev.htod_f64(sources.q.clone());
    let tx = dev.htod_f64(targets.x.clone());
    let ty = dev.htod_f64(targets.y.clone());
    let tz = dev.htod_f64(targets.z.clone());
    let pot = dev.alloc_f64(vec![0.0; targets.len()]);
    let nb = targets.len();
    let nc = sources.len();
    let work = WorkEstimate::new(
        nb as f64 * nc as f64 * kernel.flops_per_eval_gpu(),
        ((nb + nc) * 4 * 8) as f64,
    );
    let cfg = LaunchConfig::new("direct_sum_full", nb.max(1), THREADS_PER_BLOCK);
    dev.launch(cfg, work, |mem| {
        let mut acc = vec![0.0; nb];
        kernel.p2p_potential(
            Targets::new(mem.f64(tx), mem.f64(ty), mem.f64(tz)),
            Sources::new(mem.f64(sx), mem.f64(sy), mem.f64(sz), mem.f64(sq)),
            &mut acc,
        );
        mem.f64_mut(pot).copy_from_slice(&acc);
    });
    let potentials = dev.dtoh_f64(pot);
    GpuDirectSumResult {
        potentials,
        sim_seconds: dev.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::engine::{direct_sum, SerialEngine};
    use bltc_core::error::relative_l2_error;
    use bltc_core::kernel::{Coulomb, GradientKernel, Kernel, Yukawa};

    fn cube(n: usize, seed: u64) -> ParticleSet {
        ParticleSet::random_cube(n, seed)
    }

    #[test]
    fn gpu_engine_matches_cpu_engine_bitwise() {
        let ps = cube(2000, 80);
        let params = BltcParams::new(0.8, 4, 60, 60);
        let cpu = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
        let gpu = GpuEngine::new(params).compute(&ps, &ps, &Coulomb);
        assert_eq!(
            cpu.potentials, gpu.potentials,
            "CPU and simulated-GPU engines must agree bitwise"
        );
        assert_eq!(cpu.ops, gpu.ops);
    }

    #[test]
    fn gpu_engine_accuracy_vs_direct_sum() {
        let ps = cube(2500, 81);
        let params = BltcParams::new(0.7, 6, 80, 80);
        let gpu = GpuEngine::new(params).compute(&ps, &ps, &Yukawa::default());
        let exact = direct_sum(&ps, &ps, &Yukawa::default());
        let err = relative_l2_error(&exact, &gpu.potentials);
        assert!(err < 1e-4, "gpu engine error {err}");
    }

    #[test]
    fn simulated_phases_are_populated() {
        let ps = cube(1500, 82);
        let params = BltcParams::new(0.8, 4, 60, 60);
        let report = GpuEngine::new(params).compute_detailed(&ps, &ps, &Coulomb);
        let s = report.sim;
        assert!(s.setup_host_s > 0.0);
        assert!(s.htod_sources_s > 0.0);
        assert!(s.precompute_s > 0.0);
        assert!(s.dtoh_charges_s > 0.0);
        assert!(s.htod_let_s > 0.0);
        assert!(s.compute_s > 0.0);
        assert!(s.dtoh_potentials_s > 0.0);
        assert!((s.total() - s.as_three_phases().total()).abs() < 1e-12);
        assert!(report.kernel_launches > 0);
        assert!(report.profile_table.contains("batch_cluster_direct"));
        assert!(report.profile_table.contains("precompute_phase1"));
    }

    #[test]
    fn gpu_field_matches_cpu_field_bitwise() {
        use bltc_core::engine::PreparedTreecode;
        let ps = cube(2000, 90);
        let params = BltcParams::new(0.7, 5, 80, 80);
        let prep = PreparedTreecode::new(&ps, &ps, params);
        let cpu = prep.evaluate_field(&Yukawa::default());
        let gpu = GpuEngine::new(params).compute_field_detailed(&ps, &ps, &Yukawa::default());
        assert_eq!(cpu.potentials, gpu.field.potentials);
        assert_eq!(cpu.gx, gpu.field.gx);
        assert_eq!(cpu.gy, gpu.field.gy);
        assert_eq!(cpu.gz, gpu.field.gz);
        assert!(gpu.profile_table.contains("batch_cluster_direct_field"));
    }

    #[test]
    fn field_potentials_match_potential_only_run() {
        let ps = cube(1500, 91);
        let params = BltcParams::new(0.8, 4, 60, 60);
        let pot = GpuEngine::new(params).compute_detailed(&ps, &ps, &Coulomb);
        let fld = GpuEngine::new(params).compute_field_detailed(&ps, &ps, &Coulomb);
        // Same lists, same order, same scalar potential expressions.
        assert_eq!(pot.result.potentials, fld.field.potentials);
        assert_eq!(pot.result.ops, fld.ops);
    }

    #[test]
    fn gradient_kernels_cost_about_4x_on_the_device_clock() {
        // §cost model: a field launch charges grad_flops (~4× potential
        // flops). On a compute-bound configuration the modeled compute
        // phase must inflate accordingly (launch overhead dilutes it a
        // little, so accept a broad band around 4×).
        // Single batch vs single (root) cluster: one large launch, so
        // per-launch overhead is negligible next to the kernel flops.
        let ps = cube(4000, 92);
        let params = BltcParams::new(0.7, 6, 4000, 4000);
        let pot = GpuEngine::new(params)
            .with_streams(1)
            .compute_detailed(&ps, &ps, &Coulomb);
        let fld = GpuEngine::new(params)
            .with_streams(1)
            .compute_field_detailed(&ps, &ps, &Coulomb);
        let ratio = fld.sim.compute_s / pot.sim.compute_s;
        assert!(
            ratio > 2.0 && ratio < 4.5,
            "field/potential compute ratio {ratio} not ~4x"
        );
        // DtH returns four arrays instead of one.
        assert!(fld.sim.dtoh_potentials_s > pot.sim.dtoh_potentials_s * 2.0);
    }

    #[test]
    fn field_stream_count_never_changes_results() {
        let ps = cube(2000, 93);
        let params = BltcParams::new(0.8, 4, 100, 100);
        let one = GpuEngine::new(params)
            .with_streams(1)
            .compute_field_detailed(&ps, &ps, &Coulomb);
        let four = GpuEngine::new(params)
            .with_streams(4)
            .compute_field_detailed(&ps, &ps, &Coulomb);
        assert_eq!(one.field.gx, four.field.gx);
        assert_eq!(one.field.gy, four.field.gy);
        assert_eq!(one.field.gz, four.field.gz);
        assert!(four.sim.compute_s <= one.sim.compute_s);
    }

    #[test]
    fn four_streams_beat_one_stream() {
        // §3.2: asynchronous streams reduce compute time by ~25% on the
        // Fig. 4 workload; at minimum they must not be slower.
        let ps = cube(4000, 83);
        let params = BltcParams::new(0.8, 4, 100, 100);
        let one = GpuEngine::new(params)
            .with_streams(1)
            .compute_detailed(&ps, &ps, &Coulomb);
        let four = GpuEngine::new(params)
            .with_streams(4)
            .compute_detailed(&ps, &ps, &Coulomb);
        assert!(
            four.sim.compute_s < one.sim.compute_s,
            "4 streams {} !< 1 stream {}",
            four.sim.compute_s,
            one.sim.compute_s
        );
        // Results must be identical regardless of stream count.
        assert_eq!(one.result.potentials, four.result.potentials);
    }

    #[test]
    fn gpu_direct_sum_matches_reference() {
        let ps = cube(600, 84);
        let gpu = gpu_direct_sum(DeviceSpec::titan_v(), &ps, &ps, &Coulomb);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let err = relative_l2_error(&exact, &gpu.potentials);
        assert!(err < 1e-14, "gpu direct sum must be exact, err {err}");
        assert!(gpu.sim_seconds > 0.0);
    }

    #[test]
    fn treecode_vs_direct_crossover_trend() {
        // Fig. 4, conclusion (4): the GPU direct sum wins at small N (the
        // treecode is launch-overhead bound) but loses at large N because
        // its O(N²) growth is quadratic while the treecode's is ~linear.
        // Verify the growth *rates* that force the crossover.
        let params = BltcParams::new(0.8, 3, 1000, 1000);
        let time_tc = |n: usize, seed: u64| {
            let ps = cube(n, seed);
            let r = GpuEngine::new(params).compute_detailed(&ps, &ps, &Coulomb);
            r.sim.total() - r.sim.setup_host_s
        };
        let time_ds =
            |n: usize| gpu_direct_sum_modeled_seconds(DeviceSpec::titan_v(), n, n, &Coulomb);
        let (tc1, tc2) = (time_tc(10_000, 85), time_tc(20_000, 86));
        let (ds1, ds2) = (time_ds(10_000), time_ds(20_000));
        let tc_growth = tc2 / tc1;
        let ds_growth = ds2 / ds1;
        assert!(
            ds_growth > 3.0,
            "direct sum growth {ds_growth} should be ~4 (quadratic)"
        );
        assert!(
            tc_growth < 3.0,
            "treecode growth {tc_growth} should be ~2 (quasi-linear)"
        );
        assert!(tc_growth < ds_growth);
    }

    #[test]
    fn modeled_direct_sum_matches_executed_clock() {
        let ps = cube(700, 89);
        let executed = gpu_direct_sum(DeviceSpec::titan_v(), &ps, &ps, &Coulomb);
        let modeled =
            gpu_direct_sum_modeled_seconds(DeviceSpec::titan_v(), ps.len(), ps.len(), &Coulomb);
        let rel = (executed.sim_seconds - modeled).abs() / executed.sim_seconds;
        assert!(
            rel < 1e-9,
            "model {modeled} vs executed {} (rel {rel})",
            executed.sim_seconds
        );
    }

    #[test]
    fn disjoint_targets_sources_on_gpu() {
        let sources = cube(1500, 86);
        let mut targets = cube(400, 87);
        for z in &mut targets.z {
            *z -= 0.25;
        }
        let params = BltcParams::new(0.7, 5, 80, 80);
        let gpu = GpuEngine::new(params).compute(&targets, &sources, &Coulomb);
        let exact = direct_sum(&targets, &sources, &Coulomb);
        assert!(relative_l2_error(&exact, &gpu.potentials) < 1e-4);
    }

    /// A kernel forwarding to `K` pointwise but keeping the default
    /// `symmetric() == false`: every block takes the one-sided path.
    struct OneSided<K>(K);

    impl<K: GradientKernel> Kernel for OneSided<K> {
        fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
            self.0.eval(dx, dy, dz)
        }
        fn name(&self) -> &'static str {
            "one-sided"
        }
        fn flops_per_eval_cpu(&self) -> f64 {
            self.0.flops_per_eval_cpu()
        }
        fn flops_per_eval_gpu(&self) -> f64 {
            self.0.flops_per_eval_gpu()
        }
    }

    impl<K: GradientKernel> GradientKernel for OneSided<K> {
        fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
            self.0.eval_with_grad(dx, dy, dz)
        }
    }

    #[test]
    fn mutual_pair_launches_keep_bits_clocks_and_counts() {
        // Launches end with `EvalScratch::finish`, which panics if a
        // parked half was never flushed.
        let ps = cube(2500, 94);
        let params = BltcParams::new(0.7, 4, 80, 80);
        let engine = GpuEngine::new(params);
        let k = Yukawa::new(0.5);
        let pot = engine.compute_detailed(&ps, &ps, &k);
        let one = engine.compute_detailed(&ps, &ps, &OneSided(k));
        assert_eq!(pot.result.potentials, one.result.potentials);
        assert_eq!(pot.result.ops, one.result.ops);
        assert_eq!(pot.kernel_launches, one.kernel_launches);
        assert_eq!(pot.sim.compute_s, one.sim.compute_s);
        assert_eq!(pot.sim.precompute_s, one.sim.precompute_s);
        let fld = engine.compute_field_detailed(&ps, &ps, &k);
        let one = engine.compute_field_detailed(&ps, &ps, &OneSided(k));
        assert_eq!(fld.field, one.field);
        assert_eq!(fld.sim.compute_s, one.sim.compute_s);
    }

    #[test]
    fn p100_is_slower_than_titan_v() {
        let ps = cube(3000, 88);
        let params = BltcParams::new(0.8, 4, 80, 80);
        let tv = GpuEngine::with_spec(params, DeviceSpec::titan_v())
            .compute_detailed(&ps, &ps, &Coulomb);
        let p1 =
            GpuEngine::with_spec(params, DeviceSpec::p100()).compute_detailed(&ps, &ps, &Coulomb);
        assert!(p1.sim.compute_s > tv.sim.compute_s);
        assert_eq!(tv.result.potentials, p1.result.potentials);
    }
}
