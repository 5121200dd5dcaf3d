//! CPU compute engines: a serial reference and a shared-memory-parallel
//! engine (rayon task per target batch — the analogue of the paper's
//! OpenMP port, which assigns each batch to one OpenMP thread), plus
//! direct summation as the accuracy/performance baseline.
//!
//! The expensive, kernel-*independent* state (tree, batches, interaction
//! lists, modified charges) is factored into [`PreparedTreecode`] so a
//! single preparation can be evaluated under several kernels — exactly
//! what the Fig. 4 sweep does with Coulomb and Yukawa.

use std::sync::OnceLock;
use std::time::Instant;

use rayon::prelude::*;

use crate::charges::ClusterCharges;
use crate::config::BltcParams;
use crate::cost::OpCounts;
use crate::kernel::Kernel;
use crate::p2p::{BlockKernel, Sources, Targets};
use crate::pairs::{MutualPairs, PairStash};
use crate::particles::ParticleSet;
use crate::traversal::{BatchLists, InteractionLists};
use crate::tree::{
    batch::{Batch, TargetBatches},
    SourceTree, TreeStats,
};

/// Measured wall-clock seconds per algorithm phase (§4's reporting
/// categories: setup, precompute, compute).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Tree + batch construction and interaction-list creation.
    pub setup: f64,
    /// Modified-charge computation.
    pub precompute: f64,
    /// Potential evaluation.
    pub compute: f64,
}

impl PhaseTimings {
    /// Total wall time.
    pub fn total(&self) -> f64 {
        self.setup + self.precompute + self.compute
    }
}

/// Result of one treecode evaluation.
#[derive(Debug, Clone)]
pub struct ComputeResult {
    /// Potentials in the *original* target order.
    pub potentials: Vec<f64>,
    /// Exact operation counts.
    pub ops: OpCounts,
    /// Measured wall-clock phase timings.
    pub timings: PhaseTimings,
    /// Source-tree shape statistics.
    pub tree_stats: TreeStats,
}

/// Kernel-independent preparation: everything up to (and including) the
/// modified charges.
pub struct PreparedTreecode {
    /// The parameters used.
    pub params: BltcParams,
    /// Source cluster tree.
    pub tree: SourceTree,
    /// Target batches.
    pub batches: TargetBatches,
    /// Per-batch interaction lists.
    pub lists: InteractionLists,
    /// Per-cluster grids and modified charges.
    pub charges: ClusterCharges,
    /// Mutual direct leaf pairs (empty unless the targets are the
    /// sources and `N_B = N_L`).
    pub pairs: MutualPairs,
    /// Operation counts implied by the lists.
    pub ops: OpCounts,
    /// Measured setup seconds (tree + batches + lists).
    pub setup_seconds: f64,
    /// Measured precompute seconds (modified charges).
    pub precompute_seconds: f64,
}

impl PreparedTreecode {
    /// Build trees, batches, interaction lists and modified charges.
    pub fn new(targets: &ParticleSet, sources: &ParticleSet, params: BltcParams) -> Self {
        params.validate();
        let t0 = Instant::now();
        let tree = SourceTree::build(sources, &params);
        let batches = TargetBatches::for_tree(targets, sources, &tree, &params);
        let lists = InteractionLists::build(&batches, &tree, &params);
        let pairs = MutualPairs::build(&batches, &tree, &lists);
        let setup_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let charges = ClusterCharges::compute_all(&tree, params.degree);
        let precompute_seconds = t1.elapsed().as_secs_f64();

        let ops = OpCounts::from_lists(&lists, &batches, &tree, &params);
        Self {
            params,
            tree,
            batches,
            lists,
            charges,
            pairs,
            ops,
            setup_seconds,
            precompute_seconds,
        }
    }

    /// Evaluate the potentials serially. Returns (potentials in original
    /// target order, measured compute seconds).
    pub fn evaluate_serial(&self, kernel: &dyn Kernel) -> (Vec<f64>, f64) {
        let t0 = Instant::now();
        let mut cols = self.evaluate_block(BlockKernel::Potential(kernel), false);
        (cols.swap_remove(0), t0.elapsed().as_secs_f64())
    }

    /// Evaluate the potentials with pool tasks: bitwise identical to the
    /// serial path at any pool size.
    pub fn evaluate_parallel(&self, kernel: &dyn Kernel) -> (Vec<f64>, f64) {
        let t0 = Instant::now();
        let mut cols = self.evaluate_block(BlockKernel::Potential(kernel), true);
        (cols.swap_remove(0), t0.elapsed().as_secs_f64())
    }

    /// Evaluate every output column of `kernel` at every target, in
    /// original target order — the one body behind the potential and
    /// field evaluations, serial (`parallel == false`) or with pool
    /// tasks.
    ///
    /// Each batch sums from zero and adds one block sum per list entry:
    /// approximations first, then direct entries, both in list order.
    /// For a [`Kernel::symmetric`] kernel with mutual pairs
    /// ([`MutualPairs`]) the direct entries are folded by
    /// [`Self::fold_mutual_pairs`], which evaluates each mutual pair once
    /// and adds the same block sums in the same order; otherwise every
    /// batch runs its whole list as one task. Batches own disjoint
    /// target ranges, so the result never depends on the schedule.
    pub(crate) fn evaluate_block(&self, kernel: BlockKernel<'_>, parallel: bool) -> Vec<Vec<f64>> {
        let (batches, perm) = (self.batches.batches(), self.batches.perm());
        let tp = self.batches.particles();
        let reuse = kernel.symmetric() && !self.pairs.is_empty();
        let outs = batches
            .iter()
            .map(|b| kernel.zeros(b.num_targets()))
            .collect();
        let per_batch = run_tasks(parallel, outs, |b, mut out| {
            let (batch, lists) = (&batches[b], &self.lists.per_batch[b]);
            let direct: &[u32] = if reuse { &[] } else { &lists.direct };
            let (tree, charges) = (&self.tree, &self.charges);
            eval_lists_into(
                batch,
                &lists.approx,
                direct,
                tree,
                charges,
                tp,
                kernel,
                &mut out,
            );
            out
        });
        let mut columns = kernel.zeros(perm.len());
        let mut finished = |b: usize, out: Vec<Vec<f64>>| {
            let range = batches[b].start..batches[b].end;
            for (col, sums) in columns.iter_mut().zip(out) {
                for (&orig, v) in perm[range.clone()].iter().zip(sums) {
                    col[orig] = v;
                }
            }
        };
        if reuse {
            self.fold_mutual_pairs(kernel, parallel, per_batch, finished);
        } else {
            for (b, out) in per_batch.into_iter().enumerate() {
                finished(b, out);
            }
        }
        columns
    }

    /// Add every batch's direct block sums to its approximation sums in
    /// `per_batch`, evaluating each mutual pair once, and hand each
    /// finished batch to `finished`.
    ///
    /// Batches are stepped in traversal order: a serial step is one
    /// batch; a parallel one, at least one batch per pool worker and
    /// enough evaluations for several tasks each. A step evaluates, in
    /// pool tasks of at least [`TASK_EVALS`] evaluations, every direct
    /// block of its batches except the mutual ones whose partner comes
    /// earlier in traversal order: those halves are already parked. A
    /// mutual block evaluates the pair and parks the partner's half.
    /// Then each batch of the step adds its blocks in list order. The
    /// stash thus holds only the halves whose partner lies beyond the
    /// current step.
    fn fold_mutual_pairs(
        &self,
        kernel: BlockKernel<'_>,
        parallel: bool,
        per_batch: Vec<Vec<Vec<f64>>>,
        mut finished: impl FnMut(usize, Vec<Vec<f64>>),
    ) {
        let (batches, lists, pairs) = (self.batches.batches(), &self.lists.per_batch, &self.pairs);
        let (tp, sp) = (self.batches.particles(), self.tree.particles());
        let mut per_batch: Vec<Option<_>> = per_batch.into_iter().map(Some).collect();
        let mut rank = vec![0; batches.len()];
        for (r, &b) in pairs.order().iter().enumerate() {
            rank[b as usize] = r;
        }
        // Whether batch b's k-th direct block is evaluated at b's step.
        let evaluated_here = |b: usize, k: usize| match pairs.partner(b, k) {
            Some((c, _)) => rank[c] > rank[b],
            None => true,
        };
        let node_of = |b: usize, k: usize| self.tree.node(lists[b].direct[k] as usize);
        let evals = |b: usize, k: usize| batches[b].num_targets() * node_of(b, k).num_particles();
        let threads = if parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        let step_evals = if threads > 1 {
            4 * threads * TASK_EVALS
        } else {
            0
        };
        let order = pairs.order();
        let mut stash = PairStash::new(pairs);
        let mut next = 0;
        while next < order.len() {
            let (start, mut work) = (next, 0);
            while next < order.len() && (next - start < threads || work < step_evals) {
                let b = order[next] as usize;
                let here = (0..lists[b].direct.len()).filter(|&k| evaluated_here(b, k));
                work += here.map(|k| evals(b, k)).sum::<usize>();
                next += 1;
            }
            let group = &order[start..next];
            // Block sums and partner halves are allocated here, on the
            // calling thread: buffers freed across pool threads' malloc
            // arenas measurably raised peak RSS.
            let mut tasks: Vec<Vec<WalkBlock>> = Vec::new();
            let mut task_evals = TASK_EVALS;
            for &b in group {
                let b = b as usize;
                for k in (0..lists[b].direct.len()).filter(|&k| evaluated_here(b, k)) {
                    let sums = kernel.zeros(batches[b].num_targets());
                    let half = pairs
                        .partner(b, k)
                        .map(|(c, mate)| (mate, kernel.zeros(batches[c].num_targets())));
                    if task_evals >= TASK_EVALS {
                        tasks.push(Vec::new());
                        task_evals = 0;
                    }
                    task_evals += evals(b, k);
                    tasks
                        .last_mut()
                        .expect("a task is open")
                        .push((b, k, sums, half));
                }
            }
            let results = run_tasks(parallel, tasks, |_, task| {
                let run = |(b, k, mut sums, mut half): WalkBlock| {
                    let batch = &batches[b];
                    let node = node_of(b, k);
                    let sources = Sources::of(sp, node.start..node.end);
                    if let Some((_, half)) = &mut half {
                        let own = Sources::of(sp, batch.start..batch.end);
                        kernel.accumulate_pair(own, sources, &mut sums, half);
                    } else {
                        let targets = Targets::of(tp, batch.start..batch.end);
                        kernel.accumulate(targets, sources, &mut sums);
                    }
                    (sums, half)
                };
                task.into_iter().map(run).collect::<Vec<_>>()
            });
            let results: Vec<_> = results.into_iter().flatten().collect();
            let mut evaluated = Vec::with_capacity(results.len());
            for (sums, half) in results {
                if let Some((mate, half)) = half {
                    stash.put(mate, half);
                }
                evaluated.push(sums);
            }
            let mut evaluated = evaluated.into_iter();
            for &b in group {
                let b = b as usize;
                let mut out = per_batch[b].take().expect("each batch folds once");
                for k in 0..lists[b].direct.len() {
                    let block = if evaluated_here(b, k) {
                        evaluated.next().expect("one evaluated block per entry")
                    } else {
                        stash
                            .take(pairs.entry(b, k))
                            .expect("the partner parked this half")
                    };
                    for (col, sums) in out.iter_mut().zip(&block) {
                        for (slot, v) in col.iter_mut().zip(sums) {
                            *slot += v;
                        }
                    }
                }
                finished(b, out);
            }
        }
        stash.finish();
    }
}

/// One direct block of the mutual-pair walk: batch, direct entry, block
/// sums, and for a mutual entry the partner's entry and half.
type WalkBlock = (usize, usize, Vec<Vec<f64>>, Option<(usize, Vec<Vec<f64>>)>);

/// Kernel evaluations a pool task of the mutual-pair walk gathers at
/// least: below this, a task per block would cost more in scheduling
/// than it gains in balance.
const TASK_EVALS: usize = 1 << 16;

/// `f(i, input_i)` for every input, collected in input order: one pool
/// task each when `parallel` and the pool has more than one worker, so
/// uneven tasks balance to within one task; in order on this thread
/// otherwise.
fn run_tasks<I: Send, T: Send + Sync>(
    parallel: bool,
    inputs: Vec<I>,
    f: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    if !parallel || inputs.len() <= 1 || rayon::current_num_threads() <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let slots: Vec<OnceLock<T>> = inputs.iter().map(|_| OnceLock::new()).collect();
    rayon::scope(|s| {
        for (i, (input, slot)) in inputs.into_iter().zip(&slots).enumerate() {
            let f = &f;
            s.spawn(move |_| {
                let _ = slot.set(f(i, input));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every task ran"))
        .collect()
}

/// Evaluate one batch against its interaction lists, writing potentials
/// for the batch's (reordered) targets into `out`.
pub fn eval_batch_into(
    batch: &Batch,
    lists: &BatchLists,
    tree: &SourceTree,
    charges: &ClusterCharges,
    targets: &ParticleSet,
    kernel: &dyn Kernel,
    out: &mut [f64],
) {
    let (approx, direct) = (&lists.approx, &lists.direct);
    let kernel = BlockKernel::Potential(kernel);
    eval_lists_into(
        batch,
        approx,
        direct,
        tree,
        charges,
        targets,
        kernel,
        &mut [out],
    );
}

/// Accumulate one batch's `approx` then `direct` blocks, each in list
/// order, into `out` ([`BlockKernel::columns`] columns of the batch's
/// length).
#[allow(clippy::too_many_arguments)]
fn eval_lists_into<C: AsMut<[f64]>>(
    batch: &Batch,
    approx: &[u32],
    direct: &[u32],
    tree: &SourceTree,
    charges: &ClusterCharges,
    targets: &ParticleSet,
    kernel: BlockKernel<'_>,
    out: &mut [C],
) {
    let t = Targets::of(targets, batch.start..batch.end);
    // Approximation path (Eq. 11): targets × Chebyshev proxies.
    for &ci in approx {
        kernel.accumulate(t, charges.proxy_sources(ci as usize), out);
    }
    // Direct path (Eq. 9): targets × cluster sources.
    let sp = tree.particles();
    for &ci in direct {
        let node = tree.node(ci as usize);
        kernel.accumulate(t, Sources::of(sp, node.start..node.end), out);
    }
}

/// A treecode engine: the object-safe entry point shared by the CPU
/// engines here and the GPU engine in `bltc-gpu`.
pub trait TreecodeEngine {
    /// Compute `phi(x_i) = Σ_j G(x_i, y_j) q_j` for all targets.
    fn compute(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> ComputeResult;

    /// Engine name for harness output.
    fn name(&self) -> &'static str;
}

/// Single-threaded reference engine.
#[derive(Debug, Clone, Copy)]
pub struct SerialEngine {
    /// Treecode parameters.
    pub params: BltcParams,
}

impl SerialEngine {
    /// Construct with the given parameters.
    pub fn new(params: BltcParams) -> Self {
        Self { params }
    }
}

impl TreecodeEngine for SerialEngine {
    fn compute(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> ComputeResult {
        let prep = PreparedTreecode::new(targets, sources, self.params);
        let (potentials, compute) = prep.evaluate_serial(kernel);
        ComputeResult {
            potentials,
            ops: prep.ops,
            timings: PhaseTimings {
                setup: prep.setup_seconds,
                precompute: prep.precompute_seconds,
                compute,
            },
            tree_stats: prep.tree.stats(),
        }
    }

    fn name(&self) -> &'static str {
        "cpu-serial"
    }
}

/// Shared-memory parallel engine (rayon task per batch — the OpenMP
/// analogue of §4's CPU baseline).
#[derive(Debug, Clone, Copy)]
pub struct ParallelEngine {
    /// Treecode parameters.
    pub params: BltcParams,
}

impl ParallelEngine {
    /// Construct with the given parameters.
    pub fn new(params: BltcParams) -> Self {
        Self { params }
    }
}

impl TreecodeEngine for ParallelEngine {
    fn compute(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> ComputeResult {
        let prep = PreparedTreecode::new(targets, sources, self.params);
        let (potentials, compute) = prep.evaluate_parallel(kernel);
        ComputeResult {
            potentials,
            ops: prep.ops,
            timings: PhaseTimings {
                setup: prep.setup_seconds,
                precompute: prep.precompute_seconds,
                compute,
            },
            tree_stats: prep.tree.stats(),
        }
    }

    fn name(&self) -> &'static str {
        "cpu-parallel"
    }
}

/// Direct summation (Eq. 1): the `O(N²)` accuracy reference, parallelized
/// over targets.
pub fn direct_sum(targets: &ParticleSet, sources: &ParticleSet, kernel: &dyn Kernel) -> Vec<f64> {
    let n = targets.len();
    (0..n)
        .into_par_iter()
        .map(|i| {
            let (tx, ty, tz) = (targets.x[i], targets.y[i], targets.z[i]);
            let mut acc = 0.0;
            for j in 0..sources.len() {
                acc += kernel.eval(tx - sources.x[j], ty - sources.y[j], tz - sources.z[j])
                    * sources.q[j];
            }
            acc
        })
        .collect()
}

/// Direct summation restricted to the targets at `indices` (in `indices`
/// order) — the paper's sampled-error protocol for ≥8M-particle systems.
pub fn direct_sum_subset(
    targets: &ParticleSet,
    indices: &[usize],
    sources: &ParticleSet,
    kernel: &dyn Kernel,
) -> Vec<f64> {
    indices
        .par_iter()
        .map(|&i| {
            let (tx, ty, tz) = (targets.x[i], targets.y[i], targets.z[i]);
            let mut acc = 0.0;
            for j in 0..sources.len() {
                acc += kernel.eval(tx - sources.x[j], ty - sources.y[j], tz - sources.z[j])
                    * sources.q[j];
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::relative_l2_error;
    use crate::kernel::{Coulomb, Gaussian, RegularizedCoulomb, Yukawa};

    fn cube(n: usize, seed: u64) -> ParticleSet {
        ParticleSet::random_cube(n, seed)
    }

    #[test]
    fn treecode_matches_direct_sum_to_mac_accuracy() {
        let ps = cube(3000, 60);
        let params = BltcParams::new(0.8, 6, 60, 60);
        let engine = SerialEngine::new(params);
        let result = engine.compute(&ps, &ps, &Coulomb);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let err = relative_l2_error(&exact, &result.potentials);
        assert!(err < 1e-4, "error {err} too large for θ=0.8, n=6");
        assert!(err > 0.0, "suspiciously exact — approximation unused?");
        assert!(result.ops.approx_interactions > 0);
    }

    #[test]
    fn serial_and_parallel_engines_agree_bitwise() {
        let ps = cube(2000, 61);
        let params = BltcParams::new(0.7, 5, 100, 100);
        let s = SerialEngine::new(params).compute(&ps, &ps, &Yukawa::default());
        let p = ParallelEngine::new(params).compute(&ps, &ps, &Yukawa::default());
        assert_eq!(s.potentials, p.potentials, "engines must agree bitwise");
        assert_eq!(s.ops, p.ops);
    }

    #[test]
    fn error_decreases_with_degree() {
        let ps = cube(2500, 62);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let mut prev = f64::INFINITY;
        for degree in [1, 3, 5, 7] {
            let params = BltcParams::new(0.8, degree, 120, 120);
            let r = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
            let err = relative_l2_error(&exact, &r.potentials);
            assert!(
                err < prev,
                "degree {degree}: error {err} did not decrease from {prev}"
            );
            prev = err;
        }
    }

    #[test]
    fn error_decreases_with_tighter_theta() {
        let ps = cube(2500, 63);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let err_at = |theta: f64| {
            let params = BltcParams::new(theta, 4, 120, 120);
            let r = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
            relative_l2_error(&exact, &r.potentials)
        };
        let e_loose = err_at(0.9);
        let e_tight = err_at(0.5);
        assert!(
            e_tight < e_loose,
            "θ=0.5 error {e_tight} !< θ=0.9 error {e_loose}"
        );
    }

    #[test]
    fn kernel_independence_all_kernels_converge() {
        let ps = cube(1500, 64);
        let params = BltcParams::new(0.7, 7, 100, 100);
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Coulomb),
            Box::new(Yukawa::new(0.5)),
            Box::new(RegularizedCoulomb::new(0.05)),
            Box::new(Gaussian::new(1.5)),
        ];
        for k in &kernels {
            let r = SerialEngine::new(params).compute(&ps, &ps, k.as_ref());
            let exact = direct_sum(&ps, &ps, k.as_ref());
            let err = relative_l2_error(&exact, &r.potentials);
            assert!(err < 1e-4, "{}: error {err}", k.name());
        }
    }

    #[test]
    fn disjoint_targets_and_sources() {
        // §2.4: targets and sources may be different sets.
        let sources = cube(2000, 65);
        let targets = {
            // Shifted cloud, partially overlapping the sources.
            let mut t = cube(500, 66);
            for x in &mut t.x {
                *x += 0.5;
            }
            t
        };
        let params = BltcParams::new(0.7, 6, 100, 100);
        let r = SerialEngine::new(params).compute(&targets, &sources, &Coulomb);
        let exact = direct_sum(&targets, &sources, &Coulomb);
        let err = relative_l2_error(&exact, &r.potentials);
        assert!(err < 1e-4, "disjoint sets error {err}");
        assert_eq!(r.potentials.len(), 500);
    }

    #[test]
    fn prepared_treecode_reuse_across_kernels() {
        let ps = cube(1200, 67);
        let prep = PreparedTreecode::new(&ps, &ps, BltcParams::new(0.7, 5, 100, 100));
        let (pc, _) = prep.evaluate_serial(&Coulomb);
        let (py, _) = prep.evaluate_serial(&Yukawa::default());
        // Same preparation must serve both kernels correctly.
        let ec = direct_sum(&ps, &ps, &Coulomb);
        let ey = direct_sum(&ps, &ps, &Yukawa::default());
        assert!(relative_l2_error(&ec, &pc) < 1e-4);
        assert!(relative_l2_error(&ey, &py) < 1e-4);
        assert_ne!(pc, py);
    }

    #[test]
    fn nonuniform_distributions_work() {
        let ps = ParticleSet::plummer(3000, 1.0, 68);
        let params = BltcParams::new(0.7, 6, 100, 100);
        let r = ParallelEngine::new(params).compute(&ps, &ps, &Coulomb);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let err = relative_l2_error(&exact, &r.potentials);
        assert!(err < 1e-4, "plummer error {err}");
        // Plummer potential of an all-positive-mass system is positive.
        assert!(r.potentials.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn small_problem_degenerates_to_direct() {
        // Everything under one leaf: result must equal direct sum exactly.
        let ps = cube(100, 69);
        let params = BltcParams::new(0.7, 4, 1000, 1000);
        let r = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        for (a, b) in r.potentials.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1.0));
        }
        assert_eq!(r.ops.approx_interactions, 0);
    }

    #[test]
    fn direct_sum_subset_matches_full() {
        let ps = cube(400, 70);
        let full = direct_sum(&ps, &ps, &Coulomb);
        let idx = vec![3usize, 17, 399, 0];
        let sub = direct_sum_subset(&ps, &idx, &ps, &Coulomb);
        for (s, &i) in sub.iter().zip(&idx) {
            assert_eq!(*s, full[i]);
        }
    }

    #[test]
    fn timings_are_recorded() {
        let ps = cube(1000, 71);
        let r = SerialEngine::new(BltcParams::default()).compute(&ps, &ps, &Coulomb);
        assert!(r.timings.setup > 0.0);
        assert!(r.timings.precompute > 0.0);
        assert!(r.timings.compute > 0.0);
        assert!(r.timings.total() < 60.0, "unexpectedly slow");
    }

    /// Today's per-block path, assembled by hand: every batch runs
    /// `eval_batch_into` over its whole lists.
    fn per_block(prep: &PreparedTreecode, kernel: &dyn Kernel) -> Vec<f64> {
        let tp = prep.batches.particles();
        let mut reordered = vec![0.0; tp.len()];
        for (b, bl) in prep.batches.batches().iter().zip(&prep.lists.per_batch) {
            let out = &mut reordered[b.start..b.end];
            eval_batch_into(b, bl, &prep.tree, &prep.charges, tp, kernel, out);
        }
        prep.batches.scatter_to_original(&reordered)
    }

    /// Coulomb behind a wrapper that keeps the default
    /// `symmetric() == false`, made odd in `dx` so that evaluating a
    /// mutual pair once would change the partner's sums.
    struct OddCoulomb;

    impl Kernel for OddCoulomb {
        fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
            Coulomb.eval(dx, dy, dz) * (1.0 + 0.25 * dx.tanh())
        }
        fn name(&self) -> &'static str {
            "odd-coulomb"
        }
        fn flops_per_eval_cpu(&self) -> f64 {
            20.0
        }
        fn flops_per_eval_gpu(&self) -> f64 {
            10.0
        }
    }

    #[test]
    fn mutual_pairs_keep_per_block_bits() {
        // Each walk ends with `PairStash::finish`, which panics if a
        // parked half was never delivered.
        let ps = cube(3000, 72);
        let prep = PreparedTreecode::new(&ps, &ps, BltcParams::new(0.7, 4, 80, 80));
        assert!(prep.pairs.num_pairs() > 0);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        for k in [
            &Coulomb as &dyn Kernel,
            &Yukawa::new(0.5),
            &Gaussian::new(1.5),
        ] {
            let want = per_block(&prep, k);
            assert_eq!(prep.evaluate_serial(k).0, want, "{} serial", k.name());
            let par = pool.install(|| prep.evaluate_parallel(k).0);
            assert_eq!(par, want, "{} parallel", k.name());
        }
    }

    #[test]
    fn non_mutual_cases_take_the_per_block_path() {
        let ps = cube(3000, 73);
        // An asymmetric kernel: pairs exist but must not be used.
        let prep = PreparedTreecode::new(&ps, &ps, BltcParams::new(0.7, 4, 80, 80));
        assert!(prep.pairs.num_pairs() > 0);
        let want = per_block(&prep, &OddCoulomb);
        assert_eq!(prep.evaluate_serial(&OddCoulomb).0, want);
        assert_eq!(prep.evaluate_parallel(&OddCoulomb).0, want);
        // N_B != N_L, and distinct target and source sets: no pairs.
        let mut shifted = cube(3000, 74);
        for x in &mut shifted.x {
            *x += 0.3;
        }
        for prep in [
            PreparedTreecode::new(&ps, &ps, BltcParams::new(0.7, 4, 80, 30)),
            PreparedTreecode::new(&shifted, &ps, BltcParams::new(0.7, 4, 80, 80)),
        ] {
            assert!(prep.pairs.is_empty());
            let want = per_block(&prep, &Coulomb);
            assert_eq!(prep.evaluate_serial(&Coulomb).0, want);
            assert_eq!(prep.evaluate_parallel(&Coulomb).0, want);
        }
    }

    #[test]
    fn engine_names() {
        assert_eq!(
            SerialEngine::new(BltcParams::default()).name(),
            "cpu-serial"
        );
        assert_eq!(
            ParallelEngine::new(BltcParams::default()).name(),
            "cpu-parallel"
        );
    }
}
