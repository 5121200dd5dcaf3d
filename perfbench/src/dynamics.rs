//! `dynamics_yukawa`: velocity-Verlet steps of a screened-electrolyte box
//! through `PersistentIntegrator` on two simulated ranks.
//!
//! Why: one step runs the whole distributed stack — kick–drift and
//! evaluation epochs on the mpi-sim session, LET build and landing in
//! `bltc-dist`, the GPU-engine field kernels on each rank, and, every
//! second step, an RCB repartition with delta migration. Each step waits
//! on the slower rank. The regularized Yukawa kernel's `exp` keeps P2P on
//! the scalar path, so a Coulomb-only kernel change should leave this
//! workload flat. A thermal speed of 1 moves ions far enough between
//! repartitions that migrations move particles.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bltc_core::config::BltcParams;
use bltc_dist::{DistConfig, FieldSession, RankReport, SessionFieldReport};
use bltc_gpu::GpuEngine;
use bltc_service::Scenario;
use bltc_sim::{ForceModel, PersistentIntegrator, SimConfig, SimState, StepReport};
use bltc_trace::TraceRecorder;
use mpi_sim::Session;

use crate::metrics::{Results, DY};
use crate::spans::median_time;
use crate::stats::median;
use crate::{record_ops, Ctx, Workload};

pub const WORKLOAD: Workload = Workload {
    name: "dynamics_yukawa",
    bit: DY,
    why: "2-rank velocity-Verlet on a Yukawa electrolyte box: LET build, mpi-sim epochs, RCB \
          migration and GPU-engine field kernels; the exp keeps P2P off any Coulomb-only path",
    rank_threads: RANKS,
    run,
};

const N: usize = 4000;
const RANKS: usize = 2;
const SCENARIO: Scenario = Scenario::Electrolyte {
    kappa: 2.0,
    softening: 0.1,
    thermal_speed: 1.0,
};
const DT: f64 = 1e-3;
const REPARTITION_EVERY: u64 = 2;
const THETA: f64 = 0.8;
const DEGREE: usize = 4;
const CAP: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Repartition cycles a run takes at least (about 15 s): 40 puts the
/// tail at p75 in every run.
const MIN_CYCLES: usize = 40;
/// Bound on `SimReport::max_relative_energy_drift` over a run.
const DRIFT_BOUND: f64 = 5e-2;
/// Repetitions of each probe call in the traced run.
const PROBE_REPS: usize = 3;
/// Rounds of step cycles the traced run takes at least.
const MIN_ROUNDS: usize = 5;

fn config() -> SimConfig {
    SimConfig::new(
        DistConfig::comet(BltcParams::new(THETA, DEGREE, CAP, CAP)),
        RANKS,
        DT,
    )
    .with_repartition_every(REPARTITION_EVERY)
}

/// One step, with its traffic reconciled: every rank's RMA tallies must
/// equal the runtime traffic matrix.
fn step(r: &mut Results, integ: &mut PersistentIntegrator) -> (StepReport, f64) {
    let t0 = Instant::now();
    let rep = integ.step();
    let t = t0.elapsed().as_secs_f64();
    let ok = r.check(
        rep.rank_msgs == rep.matrix_msgs && rep.rank_bytes == rep.matrix_bytes,
        || {
            format!(
                "step {}: rank tallies {} msgs / {} B differ from the matrix {} / {}",
                rep.step, rep.rank_msgs, rep.rank_bytes, rep.matrix_msgs, rep.matrix_bytes
            )
        },
    );
    r.op(ok);
    (rep, t)
}

fn check_run(r: &mut Results, integ: &PersistentIntegrator, migrated_after_first: u64) -> f64 {
    let drift = integ.report().max_relative_energy_drift();
    if !r.check(drift <= DRIFT_BOUND, || {
        format!("relative energy drift {drift:e} exceeds {DRIFT_BOUND:e}")
    }) {
        r.failed += 1;
    }
    r.check(migrated_after_first > 0, || {
        "no repartition after the first migrated any particle".into()
    });
    drift
}

fn run(ctx: &mut Ctx, r: &mut Results) {
    let seed = ctx.input_seed("electrolyte");
    if ctx.traced {
        traced(ctx, r, seed);
    } else {
        untraced(ctx, r, seed);
    }
}

fn untraced(ctx: &mut Ctx, r: &mut Results, seed: u64) {
    let cfg = config();
    let mut setup = Vec::new();
    let mut integ = None;
    for _ in 0..SETUPS {
        drop(integ.take());
        let t0 = Instant::now();
        let (state, model) = SCENARIO.build(N, seed);
        integ = Some(PersistentIntegrator::new(cfg, &state, &model));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut integ = integ.expect("set up at least once");

    // One operation is a whole repartition cycle, reported per step: half
    // the steps of a cycle migrate, so single steps are bimodal.
    let mut times = Vec::new();
    let mut migrated = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || times.len() < MIN_CYCLES {
        let mut cycle = 0.0;
        for _ in 0..REPARTITION_EVERY {
            let (rep, t) = step(r, &mut integ);
            cycle += t;
            if rep.repartitioned && rep.step > REPARTITION_EVERY {
                migrated += rep.migrated_particles;
            }
        }
        times.push(cycle / REPARTITION_EVERY as f64);
    }
    let elapsed = start.elapsed().as_secs_f64();
    record_ops(
        r,
        &setup,
        &times,
        elapsed / REPARTITION_EVERY as f64,
        "one velocity-Verlet step, timed as the mean over one repartition cycle",
    );
    let drift = check_run(r, &integ, migrated);
    r.note(format!(
        "N = {N} ions on {RANKS} ranks, {} steps, relative energy drift {drift:.3e} (bound \
         {DRIFT_BOUND:e}), {migrated} particles migrated after the first repartition",
        integ.steps()
    ));
}

/// Calls into rcb, mpi-sim, dist and gpu-engine, one at a time, on the
/// run's own positions: `s2` and `s4` are the states after steps 2 and 4,
/// so migrating `s4` from the partition of `s2` is one real repartition.
/// Returns a session on `s4` for the evaluations interleaved with steps.
fn probe(
    ctx: &mut Ctx,
    r: &mut Results,
    model: &ForceModel,
    s2: &SimState,
    s4: &SimState,
) -> FieldSession {
    let cfg = config().dist;
    let sp = &mut ctx.spans;
    let id = u64::MAX;
    let p = sp.open("probe", None, id);

    let part_t = median_time(sp, "DistConfig::partition", Some(p), id, PROBE_REPS, || {
        black_box(cfg.partition(&s4.particles, RANKS));
    });
    r.set("rcb.partition_s", part_t);
    let part4 = cfg.partition(&s4.particles, RANKS);
    let (big, small) = part4.balance();
    r.set("rcb.imbalance", big as f64 / small as f64);

    let mut spawn = Vec::new();
    for _ in 0..PROBE_REPS {
        let (session, t) = sp.time("Session::spawn", Some(p), id, || Session::spawn(RANKS));
        spawn.push(t);
        drop(session);
    }
    r.set("mpi_sim.spawn_s", median(&spawn));

    let part2 = cfg.partition(&s2.particles, RANKS);
    let mut migrate = Vec::new();
    for _ in 0..PROBE_REPS {
        let mut fs =
            FieldSession::launch_reusing(&s4.particles, &[], RANKS, &cfg, None, Some(&part2));
        let (_, t) = sp.time("FieldSession::migrate", Some(p), id, || fs.migrate());
        migrate.push(t);
    }
    r.set("dist.migrate_s.p50", median(&migrate));

    // Each rank's own part, local interactions only.
    let engine = GpuEngine::with_spec(cfg.params, cfg.spec).with_streams(cfg.streams);
    let mut per_rank = Vec::new();
    let mut modeled = 0.0f64;
    for part in rcb::partition_particles(&s4.particles, &part4) {
        let mut times = Vec::new();
        let mut counts = (0, 0);
        for _ in 0..PROBE_REPS {
            let (rep, t) = sp.time("GpuEngine::compute_field_detailed", Some(p), id, || {
                engine.compute_field_detailed(&part, &part, model.kernel())
            });
            times.push(t);
            counts = (rep.kernel_launches, rep.ops.kernel_evals());
            modeled = modeled.max(rep.sim.compute_s);
        }
        per_rank.push((median(&times), counts));
    }
    let &(field_s, (launches, evals)) = per_rank
        .iter()
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one rank");
    let fastest = per_rank.iter().map(|x| x.0).fold(f64::INFINITY, f64::min);
    r.set("gpu.field_s", field_s);
    r.set("gpu.field_ns_per_eval", field_s * 1e9 / evals as f64);
    r.set("gpu.launches", launches as f64);
    r.set("gpu.field_skew", field_s / fastest);
    r.set("gpu_sim.modeled_compute_s", modeled);
    sp.close(p);
    FieldSession::launch(&s4.particles, &[], RANKS, &cfg)
}

/// Per-layer numbers of the probe session's evaluations.
fn record_eval(r: &mut Results, rep: &SessionFieldReport, eval: &[f64]) {
    let eval_p50 = median(eval);
    r.set("dist.eval_field_s.p50", eval_p50);
    r.set(
        "dist.let_overhead_s",
        eval_p50 - r.get("gpu.field_s").unwrap_or(f64::NAN),
    );
    r.set("dist.modeled_pipelined_s", rep.pipelined_s);
    let sum = |f: fn(&RankReport) -> u64| rep.ranks.iter().map(f).sum::<u64>();
    r.set("dist.let_messages", sum(|rr| rr.let_messages) as f64);
    r.set("dist.let_bytes", sum(|rr| rr.let_bytes) as f64);
    r.set(
        "dist.fetched_particles",
        sum(|rr| rr.let_stats.fetched_particles) as f64,
    );
    let peak = rep
        .ranks
        .iter()
        .map(|rr| rr.peak_let_bytes)
        .max()
        .unwrap_or(0);
    r.set("dist.peak_let_bytes", peak as f64);
    r.check(
        sum(|rr| rr.let_bytes) == rep.traffic.total_remote_bytes(),
        || "LET bytes of the probe evaluation differ from its traffic matrix".into(),
    );
}

fn traced(ctx: &mut Ctx, r: &mut Results, seed: u64) {
    let cfg = config();
    let mut build = Vec::new();
    let mut setup = None;
    for k in 0..SETUPS {
        drop(setup.take());
        let sp = &mut ctx.spans;
        let p = sp.open("setup", None, k as u64);
        let ((state, model), t) = sp.time("Scenario::build", Some(p), k as u64, || {
            SCENARIO.build(N, seed)
        });
        build.push(t);
        let (integ, _) = sp.time("PersistentIntegrator::new", Some(p), k as u64, || {
            PersistentIntegrator::new(cfg, &state, &model)
        });
        sp.close(p);
        setup = Some((integ, model));
    }
    r.set("sim.scenario_build_s", median(&build));
    let (mut integ, model) = setup.expect("set up at least once");

    // Steps 1–4: the probe's inputs and the fixed-window counts.
    let mut early = Vec::new();
    let mut s2 = None;
    for _ in 0..2 * REPARTITION_EVERY {
        early.push(step(r, &mut integ).0);
        if integ.steps() == REPARTITION_EVERY {
            s2 = Some(integ.snapshot());
        }
    }
    let s4 = integ.snapshot();
    let cycle = &early[REPARTITION_EVERY as usize..];
    let per_step =
        |f: fn(&StepReport) -> u64| cycle.iter().map(f).sum::<u64>() as f64 / cycle.len() as f64;
    r.set("mpi_sim.rma_messages", per_step(|s| s.rank_msgs));
    r.set("mpi_sim.rma_bytes", per_step(|s| s.rank_bytes));
    let mig = cycle.last().expect("a repartition step");
    r.set("dist.migrated_particles", mig.migrated_particles as f64);
    r.set("dist.migration_bytes", mig.migration_bytes as f64);
    r.set(
        "dist.migration_saving",
        mig.migration_bytes as f64 / mig.full_exchange_bytes as f64,
    );
    let mut fs = probe(ctx, r, &model, &s2.expect("snapshot at step 2"), &s4);
    let kernel = model.kernel_shared();

    // Rounds of three whole cycles — default, session spans off, default
    // with a benchmark span around each step — then one probe evaluation
    // and two empty epochs, so every kind sees the same machine state.
    let mut times: [Vec<f64>; 3] = Default::default();
    let (mut eval, mut epoch, mut last) = (Vec::new(), Vec::new(), None);
    let mut migrated = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || eval.len() < MIN_ROUNDS {
        for (kind, kind_times) in times.iter_mut().enumerate() {
            integ.field_session().set_tracing(kind != 1);
            for _ in 0..REPARTITION_EVERY {
                let (rep, t) = if kind == 2 {
                    let sp = &mut ctx.spans;
                    let p = sp.open("step", None, integ.steps() + 1);
                    let out = step(r, &mut integ);
                    (out.0, sp.close(p))
                } else {
                    step(r, &mut integ)
                };
                kind_times.push(t);
                if rep.repartitioned {
                    migrated += rep.migrated_particles;
                }
            }
        }
        integ.field_session().set_tracing(true);
        let sp = &mut ctx.spans;
        let id = integ.steps();
        let (rep, t) = sp.time("FieldSession::eval_field", None, id, || {
            fs.eval_field(&kernel)
        });
        eval.push(t);
        last = Some(rep);
        for _ in 0..2 {
            epoch.push(
                sp.time("FieldSession::run_epoch", None, id, || {
                    fs.run_epoch(|_, _| ())
                })
                .1,
            );
        }
    }
    drop(fs);
    record_eval(r, &last.expect("evaluated"), &eval);
    r.set("mpi_sim.epoch_s.p50", median(&epoch));
    let step_p50 = median(&times[0]);
    r.set("sim.step_overhead_s", step_p50 - median(&eval));
    r.set(
        "trace.session_spans_overhead_frac",
        step_p50 / median(&times[1]) - 1.0,
    );
    r.set(
        "bench.trace_overhead_frac",
        median(&times[2]) / step_p50 - 1.0,
    );
    r.note(format!(
        "{} rounds of 3 x {REPARTITION_EVERY} steps; step p50 {step_p50:.4} s, session spans off \
         {:.4} s, benchmark spans on {:.4} s",
        eval.len(),
        median(&times[1]),
        median(&times[2])
    ));

    let (mut ck_t, mut restore_t) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let sp = &mut ctx.spans;
        let id = integ.steps();
        let (ck, t) = sp.time("PersistentIntegrator::checkpoint", None, id, || {
            integ.checkpoint()
        });
        ck_t.push(t);
        let ((restored, _), t) = sp.time("PersistentIntegrator::restore", None, id, || {
            PersistentIntegrator::restore(cfg, &model, &ck, None)
        });
        restore_t.push(t);
        r.check(restored.report() == ck.report(), || {
            "restored integrator's report differs from its checkpoint".into()
        });
        integ = restored;
        step(r, &mut integ);
    }
    r.set("sim.checkpoint_s", median(&ck_t));
    r.set("sim.restore_s", median(&restore_t));

    let recorder = Arc::new(TraceRecorder::new());
    integ.set_tracer(Some(Arc::clone(&recorder)));
    for _ in 0..REPARTITION_EVERY {
        step(r, &mut integ);
    }
    integ.set_tracer(None);
    r.set(
        "trace.spans_per_step",
        recorder.len() as f64 / REPARTITION_EVERY as f64,
    );

    let drift = check_run(r, &integ, migrated);
    r.set("sim.energy_drift", drift);
}
