//! The four BLTC compute kernels on the simulated device: the two
//! modified-charge phases and the batch–cluster direct and approximation
//! kernels, each of the latter in a potential and a field form.
//!
//! Each launch carries the paper's grid/block geometry and an exact work
//! estimate; the body runs the CPU engines' P2P block
//! ([`bltc_core::p2p`]) on borrowed device slices, so results are
//! bitwise identical. Evaluation bodies accumulate per-target block sums
//! in one reused host scratch ([`EvalScratch`]) and flush them with one
//! atomic update per output slot. The first launch of a mutual
//! near-field leaf pair evaluates the pair once and parks the partner's
//! block sums; the partner's launch flushes them (see
//! [`bltc_core::pairs`]). Launch geometry and work estimates do not
//! depend on either, so every modeled clock is unchanged. Cluster proxy
//! data lives in concatenated device buffers: node `i` owns the
//! modified charges `[i·(n+1)³, (i+1)·(n+1)³)`, and a node a MAC can
//! accept owns the proxy coordinates of its slot in a node → slot table
//! (no other node's proxies are ever read, so none are generated).

use bltc_core::charges::{phase1_intermediates, phase2_accumulate};
use bltc_core::cost::{PHASE1_FLOPS_PER_TERM, PHASE2_FLOPS_PER_TERM};
use bltc_core::interp::tensor::TensorGrid;
use bltc_core::mac::can_approximate;
use bltc_core::p2p::{BlockKernel, Sources, Targets};
use bltc_core::pairs::{MutualPairs, PairStash};
use gpu_sim::{BufF64, BufU32, Device, DeviceMemory, LaunchConfig, WorkEstimate};

/// Threads per block used by all four kernels (the inner parallel width).
pub const THREADS_PER_BLOCK: usize = 128;

/// Device-resident treecode state shared by the kernels.
#[derive(Debug, Clone, Copy)]
pub struct DeviceArrays {
    /// Source coordinates/charges (tree order).
    pub sx: BufF64,
    /// Source y.
    pub sy: BufF64,
    /// Source z.
    pub sz: BufF64,
    /// Source charges.
    pub sq: BufF64,
    /// Target coordinates (batch order).
    pub tx: BufF64,
    /// Target y.
    pub ty: BufF64,
    /// Target z.
    pub tz: BufF64,
    /// Potentials (batch order), accumulated by the eval kernels; the
    /// first of a launch's output buffers.
    pub pot: BufF64,
    /// Concatenated proxy x-coordinates, `(n+1)³` per slot.
    pub proxy_x: BufF64,
    /// Concatenated proxy y-coordinates.
    pub proxy_y: BufF64,
    /// Concatenated proxy z-coordinates.
    pub proxy_z: BufF64,
    /// Proxy slot of each node (`u32::MAX` for a node no MAC can
    /// accept, which has no proxies).
    pub proxy_slot: BufU32,
    /// Concatenated modified charges, `(n+1)³` per node.
    pub qhat: BufF64,
    /// Per-source intermediates `q̃` (tree order).
    pub qtilde: BufF64,
    /// Proxy points per node, `(n+1)³`.
    pub proxy_per_node: usize,
}

/// Preprocessing kernel 1 (Eq. 14): intermediates `q̃_j` for one cluster.
///
/// Grid: one block per source particle; threads parallelize over the
/// `n+1` terms of each dimension's denominator sum, then reduce. The
/// host body skips a cluster no MAC can accept (its charges are never
/// read); the launch and its work estimate stay, so the modeled clock
/// still charges it.
pub fn launch_precompute_phase1(
    dev: &mut Device,
    arrays: &DeviceArrays,
    grid: &TensorGrid,
    node_range: (usize, usize),
    stream: usize,
) {
    let (start, end) = node_range;
    let nc = end - start;
    debug_assert!(nc > 0);
    let nper = (grid.degree() + 1) as f64;
    let work = WorkEstimate::new(
        nc as f64 * nper * PHASE1_FLOPS_PER_TERM,
        (nc * 4 * 8) as f64,
    );
    let cfg = LaunchConfig::new("precompute_phase1", nc, THREADS_PER_BLOCK).stream(stream);
    let (sx, sy, sz, sq, qt) = (arrays.sx, arrays.sy, arrays.sz, arrays.sq, arrays.qtilde);
    let needed = can_approximate(arrays.proxy_per_node, nc);
    dev.launch(cfg, work, move |mem| {
        if !needed {
            return;
        }
        let r = start..end;
        let vals = phase1_intermediates(
            grid,
            &mem.f64(sx)[r.clone()],
            &mem.f64(sy)[r.clone()],
            &mem.f64(sz)[r.clone()],
            &mem.f64(sq)[r.clone()],
        );
        mem.f64_mut(qt)[r].copy_from_slice(&vals);
    });
}

/// Preprocessing kernel 2 (Eq. 15): modified charges `q̂_k` for one
/// cluster from its intermediates.
///
/// Grid: one block per Chebyshev point; threads parallelize over the
/// cluster's sources, then reduce into `q̂_k`. Skipped on the host like
/// phase 1.
pub fn launch_precompute_phase2(
    dev: &mut Device,
    arrays: &DeviceArrays,
    grid: &TensorGrid,
    node_idx: usize,
    node_range: (usize, usize),
    stream: usize,
) {
    let (start, end) = node_range;
    let nc = end - start;
    debug_assert!(nc > 0);
    let m3 = arrays.proxy_per_node;
    let work = WorkEstimate::new(
        nc as f64 * m3 as f64 * PHASE2_FLOPS_PER_TERM,
        ((nc * 4 + m3) * 8) as f64,
    );
    let cfg = LaunchConfig::new("precompute_phase2", m3, THREADS_PER_BLOCK).stream(stream);
    let (sx, sy, sz, qt, qhat) = (arrays.sx, arrays.sy, arrays.sz, arrays.qtilde, arrays.qhat);
    let needed = can_approximate(m3, nc);
    dev.launch(cfg, work, move |mem| {
        if !needed {
            return;
        }
        let r = start..end;
        let vals = phase2_accumulate(
            grid,
            &mem.f64(sx)[r.clone()],
            &mem.f64(sy)[r.clone()],
            &mem.f64(sz)[r.clone()],
            &mem.f64(qt)[r],
        );
        let base = node_idx * m3;
        mem.f64_mut(qhat)[base..base + m3].copy_from_slice(&vals);
    });
}

/// Batch–cluster **direct sum** kernel (Eq. 9, Fig. 3).
///
/// Grid: one block per target in the batch; one thread per source in the
/// cluster; block reduction; atomic accumulate into the target outputs.
/// `outs` holds one device array per output column of `kernel`: the
/// potentials, then for a [`BlockKernel::Field`] the three gradient
/// components — four outputs per target, same launch geometry, ~4× the
/// flops (see `GradientKernel::grad_flops_per_eval_gpu`).
///
/// `pair` marks a mutual entry (`kernel` must be symmetric, and the
/// batch's targets must be the sources of the same range): the launch
/// flushes the half its partner parked, or evaluates the pair and parks
/// the partner's half.
#[allow(clippy::too_many_arguments)]
pub fn launch_direct_kernel(
    dev: &mut Device,
    arrays: &DeviceArrays,
    outs: &[BufF64],
    batch_range: (usize, usize),
    cluster_range: (usize, usize),
    kernel: BlockKernel<'_>,
    stream: usize,
    scratch: &mut EvalScratch,
    pair: Option<PairEntry>,
) {
    let names = ["batch_cluster_direct", "batch_cluster_direct_field"];
    let (s0, s1) = cluster_range;
    let cluster = match pair {
        Some(entry) => Cluster::Mutual(s0, s1, entry),
        None => Cluster::Particles(s0, s1),
    };
    launch_eval(
        dev,
        arrays,
        outs,
        names,
        batch_range,
        cluster,
        kernel,
        stream,
        scratch,
    );
}

/// Batch–cluster **approximation** kernel (Eq. 11).
///
/// Identical structure to the direct-sum kernel with the cluster's
/// `(n+1)³` Chebyshev proxies (and their modified charges) in place of
/// the sources — the paper's key GPU-enabling property.
#[allow(clippy::too_many_arguments)]
pub fn launch_approx_kernel(
    dev: &mut Device,
    arrays: &DeviceArrays,
    outs: &[BufF64],
    batch_range: (usize, usize),
    node_idx: usize,
    kernel: BlockKernel<'_>,
    stream: usize,
    scratch: &mut EvalScratch,
) {
    let names = ["batch_cluster_approx", "batch_cluster_approx_field"];
    let cluster = Cluster::Proxies(node_idx);
    launch_eval(
        dev,
        arrays,
        outs,
        names,
        batch_range,
        cluster,
        kernel,
        stream,
        scratch,
    );
}

/// A mutual direct entry: its own id and its partner's, as numbered by
/// [`MutualPairs`].
#[derive(Debug, Clone, Copy)]
pub struct PairEntry {
    /// This launch's entry id.
    pub entry: usize,
    /// The partner's entry id.
    pub mate: usize,
}

/// Host scratch shared by the evaluation launches of one pass over the
/// interaction lists: one set of per-target accumulators, reused by
/// every launch, and the stash of parked mutual-pair halves.
#[derive(Debug)]
pub struct EvalScratch {
    acc: Vec<Vec<f64>>,
    stash: PairStash,
}

impl EvalScratch {
    /// Scratch for a pass over lists whose mutual entries `pairs` numbers.
    pub fn new(pairs: &MutualPairs) -> Self {
        Self {
            acc: Vec::new(),
            stash: PairStash::new(pairs),
        }
    }

    /// End the pass; panics if a parked half was never flushed. Returns
    /// the peak parked bytes.
    pub fn finish(self) -> usize {
        self.stash.finish()
    }

    /// The accumulators, zeroed for `columns` columns of `n` targets.
    fn zeroed(&mut self, columns: usize, n: usize) -> &mut [Vec<f64>] {
        self.acc.resize_with(columns, Vec::new);
        for col in &mut self.acc {
            col.clear();
            col.resize(n, 0.0);
        }
        &mut self.acc
    }
}

/// The source side of one evaluation launch.
#[derive(Clone, Copy)]
enum Cluster {
    /// Source particles `start..end` (tree order).
    Particles(usize, usize),
    /// Source particles `start..end` forming a mutual pair with the batch.
    Mutual(usize, usize, PairEntry),
    /// A node's proxies and modified charges.
    Proxies(usize),
}

impl Cluster {
    fn len(self, a: &DeviceArrays) -> usize {
        match self {
            Self::Particles(s0, s1) | Self::Mutual(s0, s1, _) => s1 - s0,
            Self::Proxies(_) => a.proxy_per_node,
        }
    }

    fn sources<'m>(self, mem: &'m DeviceMemory, a: &DeviceArrays) -> Sources<'m> {
        match self {
            Self::Particles(s0, s1) | Self::Mutual(s0, s1, _) => particles(mem, a, s0, s1),
            Self::Proxies(i) => {
                let m3 = a.proxy_per_node;
                let slot = mem.u32(a.proxy_slot)[i] as usize;
                let p = slot * m3..(slot + 1) * m3;
                Sources::new(
                    &mem.f64(a.proxy_x)[p.clone()],
                    &mem.f64(a.proxy_y)[p.clone()],
                    &mem.f64(a.proxy_z)[p],
                    &mem.f64(a.qhat)[i * m3..(i + 1) * m3],
                )
            }
        }
    }
}

/// Source particles `s0..s1` (tree order) as one source block.
fn particles<'m>(mem: &'m DeviceMemory, a: &DeviceArrays, s0: usize, s1: usize) -> Sources<'m> {
    Sources::new(
        &mem.f64(a.sx)[s0..s1],
        &mem.f64(a.sy)[s0..s1],
        &mem.f64(a.sz)[s0..s1],
        &mem.f64(a.sq)[s0..s1],
    )
}

/// Shared body of the evaluation launches: one P2P block on borrowed
/// device slices into per-target block sums, flushed with one atomic
/// update per output array per target. A mutual launch flushes its
/// parked half instead, or evaluates the pair and parks the partner's.
#[allow(clippy::too_many_arguments)]
fn launch_eval(
    dev: &mut Device,
    arrays: &DeviceArrays,
    outs: &[BufF64],
    names: [&'static str; 2],
    batch_range: (usize, usize),
    cluster: Cluster,
    kernel: BlockKernel<'_>,
    stream: usize,
    scratch: &mut EvalScratch,
) {
    let (t0, t1) = batch_range;
    let nb = t1 - t0;
    let nc = cluster.len(arrays);
    debug_assert!(nb > 0 && nc > 0);
    debug_assert_eq!(outs.len(), kernel.columns());
    let work = WorkEstimate::new(
        nb as f64 * nc as f64 * kernel.flops_per_eval_gpu(),
        ((nb * (3 + kernel.columns()) + nc * 4) * 8) as f64,
    );
    let name = match kernel {
        BlockKernel::Potential(_) => names[0],
        BlockKernel::Field(_) => names[1],
    };
    let cfg = LaunchConfig::new(name, nb, THREADS_PER_BLOCK).stream(stream);
    let a = *arrays;
    dev.launch(cfg, work, move |mem| {
        // Block i: target t0+i; threads j over sources; the in-order sum
        // models the deterministic block reduction.
        let parked = match cluster {
            Cluster::Mutual(_, _, pair) => scratch.stash.take(pair.entry),
            _ => None,
        };
        if let Some(half) = parked {
            flush(mem, outs, t0, &half);
            return;
        }
        let sources = cluster.sources(mem, &a);
        let columns = kernel.columns();
        if let Cluster::Mutual(_, _, pair) = cluster {
            // The batch's targets are the sources of its own range.
            let own = particles(mem, &a, t0, t1);
            let mut half = kernel.zeros(nc);
            kernel.accumulate_pair(own, sources, scratch.zeroed(columns, nb), &mut half);
            scratch.stash.put(pair.mate, half);
        } else {
            let targets = Targets::new(
                &mem.f64(a.tx)[t0..t1],
                &mem.f64(a.ty)[t0..t1],
                &mem.f64(a.tz)[t0..t1],
            );
            kernel.accumulate(targets, sources, scratch.zeroed(columns, nb));
        }
        flush(mem, outs, t0, &scratch.acc);
    });
}

/// The #pragma acc atomic update: add per-target block sums to the
/// output arrays from target `t0` on.
fn flush(mem: &mut DeviceMemory, outs: &[BufF64], t0: usize, sums: &[Vec<f64>]) {
    for (&buf, vals) in outs.iter().zip(sums) {
        for (slot, v) in mem.f64_mut(buf)[t0..].iter_mut().zip(vals) {
            *slot += v;
        }
    }
}
