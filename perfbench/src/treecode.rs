//! `treecode_uniform`: one full potential evaluation per sample.
//!
//! Why: it isolates `bltc-core` — no mpi-sim, dist or service code runs —
//! and the P2P kernel is nearly all of a sample. With degree 6 there are
//! 343 proxy points per cluster, so a cluster can only be approximated
//! once it holds more than 343 particles. At `N_L = N_B = 500` the leaves
//! cross that size near N ≈ 64 · 343 ≈ 22 000; at N = 24 000 about 60% of
//! the kernel evaluations take the approximation path and the rest the
//! direct path, so a change to either P2P path shows here. (The ROADMAP
//! reference problem at θ 0.7 is almost all direct.) The exact counts are
//! reported by the traced run.

use std::hint::black_box;
use std::time::Instant;

use bltc_core::charges::ClusterCharges;
use bltc_core::config::BltcParams;
use bltc_core::cost::OpCounts;
use bltc_core::engine::{direct_sum_subset, eval_batch_into, PreparedTreecode};
use bltc_core::error::{relative_l2_error, sample_indices, sampled_relative_l2_error};
use bltc_core::kernel::Coulomb;
use bltc_core::particles::ParticleSet;
use bltc_core::traversal::{BatchLists, InteractionLists};
use bltc_core::tree::{batch::TargetBatches, SourceTree};
use rayon::prelude::*;

use crate::metrics::{Results, TC};
use crate::stats::median;
use crate::{record_ops, Ctx, Workload};

pub const WORKLOAD: Workload = Workload {
    name: "treecode_uniform",
    bit: TC,
    why: "bltc-core alone: full Coulomb potential of a uniform cube with about half the kernel \
          evaluations on the approximation path, so a change to either P2P path shows",
    rank_threads: 0,
    run,
};

const N: usize = 24_000;
const THETA: f64 = 0.8;
const DEGREE: usize = 6;
const CAP: usize = 500;
/// Targets at which the potential is checked against direct summation.
const ERR_SAMPLES: usize = 1000;
/// Sampled relative L2 error every evaluation must meet.
const REL_ERR_BOUND: f64 = 1e-4;
/// Samples an untraced run takes at least: enough for a tail (p50 with
/// ten beyond). A sample takes about 2 s, so every run takes exactly
/// this many and reports the same tail percentile.
const MIN_SAMPLES: usize = 20;
/// Rounds of layer calls a traced run takes at least.
const MIN_ROUNDS: usize = 5;
/// Targets of the direct-summation calibration loop.
const CALIBRATION_TARGETS: usize = 500;
/// Stated bound on the reconciliation residual: the layer times plus
/// ns/eval × exact counts must match the whole evaluation within it.
const RECONCILE_BOUND: f64 = 0.25;

struct Inputs {
    ps: ParticleSet,
    params: BltcParams,
    idx: Vec<usize>,
    exact: Vec<f64>,
}

fn run(ctx: &mut Ctx, r: &mut Results) {
    let ps = ParticleSet::random_cube(N, ctx.input_seed("particles"));
    let idx = sample_indices(N, ERR_SAMPLES, ctx.input_seed("error_targets"));
    let exact = direct_sum_subset(&ps, &idx, &ps, &Coulomb);
    let inputs = Inputs {
        ps,
        params: BltcParams::new(THETA, DEGREE, CAP, CAP),
        idx,
        exact,
    };
    if ctx.traced {
        traced(ctx, r, &inputs);
    } else {
        untraced(ctx, r, &inputs);
    }
}

/// The whole operation: `ParallelEngine::compute` split at its two calls.
fn evaluate(inp: &Inputs) -> (PreparedTreecode, Vec<f64>, f64, f64) {
    let t0 = Instant::now();
    let prep = PreparedTreecode::new(&inp.ps, &inp.ps, inp.params);
    let setup = t0.elapsed().as_secs_f64();
    let (pot, _) = prep.evaluate_parallel(&Coulomb);
    let total = t0.elapsed().as_secs_f64();
    (prep, black_box(pot), setup, total)
}

/// Check one evaluation: finite, within the error bound, and bitwise
/// equal to the run's first evaluation. Returns the sampled error.
fn check(r: &mut Results, inp: &Inputs, pot: &[f64], first: &mut Option<Vec<f64>>) -> (bool, f64) {
    let finite = r.check(pot.iter().all(|v| v.is_finite()), || {
        "non-finite potential".into()
    });
    let err = sampled_relative_l2_error(&inp.exact, pot, &inp.idx);
    let accurate = r.check(err <= REL_ERR_BOUND, || {
        format!("sampled relative error {err:e} exceeds {REL_ERR_BOUND:e}")
    });
    let same = match first {
        Some(f) => r.check(f.as_slice() == pot, || {
            "evaluation differs from the first one on the same input".into()
        }),
        None => {
            *first = Some(pot.to_vec());
            true
        }
    };
    (finite && accurate && same, err)
}

fn untraced(ctx: &mut Ctx, r: &mut Results, inp: &Inputs) {
    let (mut setup, mut ops) = (Vec::new(), Vec::new());
    let mut first = None;
    let start = Instant::now();
    let mut last_ops = None;
    while start.elapsed().as_secs_f64() < ctx.seconds || ops.len() < MIN_SAMPLES {
        let (prep, pot, s, t) = evaluate(inp);
        setup.push(s);
        ops.push(t);
        let (ok, _) = check(r, inp, &pot, &mut first);
        r.op(ok);
        last_ops = Some(prep.ops);
    }
    let elapsed = start.elapsed().as_secs_f64();
    record_ops(
        r,
        &setup,
        &ops,
        elapsed,
        "one potential evaluation (PreparedTreecode::new + evaluate_parallel)",
    );
    if let Some(o) = last_ops {
        note_counts(r, &o);
    }
}

fn note_counts(r: &mut Results, o: &OpCounts) {
    let evals = o.kernel_evals() as f64;
    r.note(format!(
        "N = {N}, theta {THETA}, degree {DEGREE}, N_L = N_B = {CAP}: {} direct + {} approx \
         evaluations (approx share {:.3}, {:.3} of N^2)",
        o.direct_interactions,
        o.approx_interactions,
        o.approx_interactions as f64 / evals,
        evals / (N as f64 * N as f64)
    ));
}

/// Evaluate every batch against `lists` on the pool, one output vector
/// per batch (the same per-batch task shape as `evaluate_parallel`).
fn eval_lists(
    batches: &TargetBatches,
    lists: &[BatchLists],
    tree: &SourceTree,
    charges: &ClusterCharges,
) -> Vec<Vec<f64>> {
    let tp = batches.particles();
    batches
        .batches()
        .par_iter()
        .zip(lists)
        .map(|(b, bl)| {
            let mut out = vec![0.0; b.num_targets()];
            eval_batch_into(b, bl, tree, charges, tp, &Coulomb, &mut out);
            out
        })
        .collect()
}

#[derive(Default)]
struct Layers {
    tree: Vec<f64>,
    lists: Vec<f64>,
    charges: Vec<f64>,
    direct_ns: Vec<f64>,
    approx_ns: Vec<f64>,
    direct_sum_ns: Vec<f64>,
}

/// One round of layer calls, each timed on its own.
fn layer_round(
    ctx: &mut Ctx,
    r: &mut Results,
    inp: &Inputs,
    plain: &[f64],
    l: &mut Layers,
    id: u64,
) -> OpCounts {
    let sp = &mut ctx.spans;
    let p = sp.open("layers", None, id);
    let ((tree, batches), t) = sp.time(
        "SourceTree::build+TargetBatches::build",
        Some(p),
        id,
        || {
            (
                SourceTree::build(&inp.ps, &inp.params),
                TargetBatches::build(&inp.ps, &inp.params),
            )
        },
    );
    l.tree.push(t);
    let (lists, t) = sp.time("InteractionLists::build", Some(p), id, || {
        InteractionLists::build(&batches, &tree, &inp.params)
    });
    l.lists.push(t);
    let (charges, t) = sp.time("ClusterCharges::compute_all", Some(p), id, || {
        ClusterCharges::compute_all(&tree, DEGREE)
    });
    l.charges.push(t);
    let ops = OpCounts::from_lists(&lists, &batches, &tree, &inp.params);

    let only = |approx: bool| -> Vec<BatchLists> {
        lists
            .per_batch
            .iter()
            .map(|bl| BatchLists {
                approx: if approx {
                    bl.approx.clone()
                } else {
                    Vec::new()
                },
                direct: if approx {
                    Vec::new()
                } else {
                    bl.direct.clone()
                },
            })
            .collect()
    };
    let (approx_lists, direct_lists) = (only(true), only(false));
    let (approx, t) = sp.time("eval_batch_into[approx]", Some(p), id, || {
        eval_lists(&batches, &approx_lists, &tree, &charges)
    });
    l.approx_ns.push(t * 1e9 / ops.approx_interactions as f64);
    let (direct, t) = sp.time("eval_batch_into[direct]", Some(p), id, || {
        eval_lists(&batches, &direct_lists, &tree, &charges)
    });
    l.direct_ns.push(t * 1e9 / ops.direct_interactions as f64);

    let targets = &inp.idx[..CALIBRATION_TARGETS];
    let (cal, t) = sp.time("direct_sum_subset", Some(p), id, || {
        direct_sum_subset(&inp.ps, targets, &inp.ps, &Coulomb)
    });
    black_box(cal);
    l.direct_sum_ns.push(t * 1e9 / (targets.len() * N) as f64);
    sp.close(p);

    // The split passes add approx and direct parts in another order than
    // the fused kernel, so they agree to rounding, not bitwise.
    let mut summed = vec![0.0; N];
    for ((b, a), d) in batches.batches().iter().zip(&approx).zip(&direct) {
        for ((slot, x), y) in summed[b.start..b.end].iter_mut().zip(a).zip(d) {
            *slot = x + y;
        }
    }
    let layered = batches.scatter_to_original(&summed);
    let diff = relative_l2_error(plain, &layered);
    let ok = r.check(diff <= 1e-12, || {
        format!("per-kind P2P passes differ from the fused evaluation by {diff:e}")
    });
    r.op(ok);
    ops
}

fn traced(ctx: &mut Ctx, r: &mut Results, inp: &Inputs) {
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut layers = Layers::default();
    let mut first = None;
    let mut err = 0.0;
    let mut ops = None;
    let start = Instant::now();
    let mut id = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds || layers.tree.len() < MIN_ROUNDS {
        // The same operation without and with spans around its calls.
        let (_, pot, _, t) = evaluate(inp);
        plain.push(t);
        let (ok, e) = check(r, inp, &pot, &mut first);
        r.op(ok);
        err = e;

        let sp = &mut ctx.spans;
        let p = sp.open("evaluation", None, id);
        let (prep, _) = sp.time("PreparedTreecode::new", Some(p), id, || {
            PreparedTreecode::new(&inp.ps, &inp.ps, inp.params)
        });
        let ((pot, _), _) = sp.time("evaluate_parallel", Some(p), id, || {
            prep.evaluate_parallel(&Coulomb)
        });
        spanned.push(sp.close(p));
        let (ok, _) = check(r, inp, &black_box(pot), &mut first);
        r.op(ok);
        id += 1;

        let fused = first.as_deref().expect("the first evaluation is kept");
        let counts = layer_round(ctx, r, inp, fused, &mut layers, id);
        id += 1;
        if let Some(prev) = ops {
            r.check(prev == counts, || {
                "operation counts changed between rounds".into()
            });
        }
        ops = Some(counts);
    }
    let Some(ops) = ops else { return };
    note_counts(r, &ops);

    let eval_p50 = median(&plain);
    let (tree, lists, charges) = (
        median(&layers.tree),
        median(&layers.lists),
        median(&layers.charges),
    );
    let (direct_ns, approx_ns) = (median(&layers.direct_ns), median(&layers.approx_ns));
    r.set("core.tree_s", tree);
    r.set("core.lists_s", lists);
    r.set("core.charges_s", charges);
    r.set("core.p2p_direct_ns_per_eval", direct_ns);
    r.set("core.p2p_approx_ns_per_eval", approx_ns);
    r.set("core.direct_sum_ns_per_eval", median(&layers.direct_sum_ns));
    r.set("core.evals_direct", ops.direct_interactions as f64);
    r.set("core.evals_approx", ops.approx_interactions as f64);
    r.set("core.launches", ops.kernel_launches as f64);
    r.set(
        "core.evals_frac_n2",
        ops.kernel_evals() as f64 / (N as f64 * N as f64),
    );
    r.set("core.eval_s.p50", eval_p50);
    r.set("core.rel_err", err);
    r.set(
        "bench.trace_overhead_frac",
        median(&spanned) / eval_p50 - 1.0,
    );

    let parts = tree
        + lists
        + charges
        + 1e-9
            * (direct_ns * ops.direct_interactions as f64
                + approx_ns * ops.approx_interactions as f64);
    let residual = (parts - eval_p50).abs() / eval_p50;
    r.set("core.reconcile_residual_frac", residual);
    r.note(format!(
        "reconciliation: tree {tree:.4} + lists {lists:.4} + charges {charges:.4} + P2P \
         {:.4} s = {parts:.4} s vs core.eval_s.p50 {eval_p50:.4} s; residual {residual:.3} \
         (bound {RECONCILE_BOUND}) over {} rounds",
        parts - tree - lists - charges,
        layers.tree.len()
    ));
    r.check(residual <= RECONCILE_BOUND, || {
        format!("layer times do not reconcile with the evaluation: residual {residual:.3}")
    });
}
