//! `service_mix`: a closed loop of small jobs on `SimService`.
//!
//! Why: per-job fixed costs only carry weight at small N — admission,
//! the preparation cache, warm-world checkout, the launch evaluation and
//! checkpoint recovery — so this workload leans on the service layer and
//! little on P2P. One client thread keeps [`OUTSTANDING`] jobs in flight
//! on [`WORKERS`] workers, so one job's queue wait is part of each job's
//! latency: lower per-job overhead moves latency before throughput.
//!
//! The mix repeats every [`PERIOD`] jobs over four tenants: 12 jobs reuse
//! one of [`HOT`] hot preparations (cache hits), 3 use a fresh seed
//! (misses), and 1 reuses a hot preparation with a checkpoint every step
//! and a rank panic at step 2, so checkpoint recovery runs. Half the hot
//! preparations are Plummer spheres, half electrolyte boxes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use bltc_core::config::BltcParams;
use bltc_dist::DistConfig;
use bltc_gpu::GpuEngine;
use bltc_service::{
    state_digest, Fault, JobError, JobOutcome, JobOutput, JobSpec, JobTicket, Scenario,
    ServiceConfig, SimService,
};
use bltc_sim::PersistentIntegrator;
use mpi_sim::Session;

use crate::metrics::{Results, SV};
use crate::stats::median;
use crate::{record_ops, Ctx, Workload};

pub const WORKLOAD: Workload = Workload {
    name: "service_mix",
    bit: SV,
    why: "closed loop of small jobs on SimService: admission, prep-cache hits and misses, \
          warm-world reuse and checkpoint recovery carry the weight, P2P little",
    rank_threads: WORKERS,
    run,
};

const WORKERS: usize = 2;
const OUTSTANDING: usize = 4;
const TENANTS: u64 = 4;
const N: usize = 500;
const STEPS: u64 = 3;
const HOT: usize = 8;
const PERIOD: u64 = 16;
/// Positions within a period that use a fresh seed.
const MISS_AT: [u64; 3] = [3, 8, 13];
/// The position within a period that recovers from a rank panic.
const RECOVER_AT: u64 = 15;
const SETUPS: usize = 7;
/// Periods a run takes at least: 13 periods (208 jobs) put the tail at
/// p95, the percentile an 8 s run reaches (about 600 jobs), so a slow run
/// reports the same one.
const MIN_PERIODS: u64 = 13;
/// Timed solo runs per hot preparation in the traced run.
const SOLO_REPS: usize = 2;
const PROBE_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Recover,
}

fn hot_specs(seed: u64) -> Vec<JobSpec> {
    let dist = DistConfig::comet(BltcParams::new(0.7, 4, 100, 100));
    (0..HOT)
        .map(|k| JobSpec {
            scenario: if k % 2 == 0 {
                Scenario::Plummer {
                    a: 1.0,
                    softening: 0.05,
                }
            } else {
                Scenario::Electrolyte {
                    kappa: 0.5,
                    softening: 0.05,
                    thermal_speed: 0.1,
                }
            },
            n: N,
            seed: seed.wrapping_add(k as u64),
            ranks: 1,
            steps: STEPS,
            dt: 1e-3,
            repartition_every: 2,
            dist,
            fault: Fault::None,
            checkpoint_every: None,
            deadline_s: None,
            allow_degraded: false,
        })
        .collect()
}

/// Job `i` of the mix: its kind, tenant and spec.
fn job(i: u64, hot: &[JobSpec], fresh_seed: u64) -> (Kind, u64, JobSpec) {
    let pos = i % PERIOD;
    let tenant = i % TENANTS;
    let mut spec = hot[(i as usize) % HOT];
    let kind = if pos == RECOVER_AT {
        spec = hot[((i / PERIOD) as usize) % HOT];
        spec.checkpoint_every = Some(1);
        spec.fault = Fault::PanicOnceAtStep(2);
        Kind::Recover
    } else if MISS_AT.contains(&pos) {
        spec.seed = fresh_seed.wrapping_add(i);
        Kind::Miss
    } else {
        Kind::Hit
    };
    (kind, tenant, spec)
}

/// The spec without its resilience policy, which never changes the bits.
fn clean(spec: &JobSpec) -> JobSpec {
    JobSpec {
        fault: Fault::None,
        checkpoint_every: None,
        ..*spec
    }
}

fn replay_key(spec: &JobSpec) -> String {
    format!(
        "{}|steps={}|dt={:?}|every={}",
        spec.prep_key(),
        spec.steps,
        spec.dt,
        spec.repartition_every
    )
}

/// The reference: the same spec straight through the persistent
/// integrator, as the service's workers drive it.
fn solo_digest(spec: &JobSpec) -> u64 {
    let (state, model) = spec.scenario.build(spec.n, spec.seed);
    let mut integ = PersistentIntegrator::new(spec.sim_config(), &state, &model);
    integ.run(spec.steps as usize);
    state_digest(&integ.snapshot())
}

struct Pending {
    submitted: Instant,
    kind: Kind,
    spec: JobSpec,
    span: Option<usize>,
}

#[derive(Default)]
struct Done {
    latency: Vec<f64>,
    /// Latencies by [`Kind`], in declaration order.
    kind_latency: [Vec<f64>; 3],
    recovered_latency: Vec<f64>,
    spanned_latency: Vec<f64>,
    plain_latency: Vec<f64>,
    submit: Vec<f64>,
    cache_hits: u64,
    world_reuses: u64,
    retries: u64,
    rejected: u64,
    recovered: u64,
    max_drift: f64,
    /// Service digests per distinct clean spec.
    digests: BTreeMap<String, (JobSpec, Vec<u64>)>,
}

impl Done {
    fn finish(&mut self, r: &mut Results, p: &Pending, res: Result<JobOutput, JobError>, lat: f64) {
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                r.problem(format!("job failed: {e:?}"));
                r.op(false);
                return;
            }
        };
        let expect_retries = u32::from(p.kind == Kind::Recover);
        let ok = r.check(out.outcome == JobOutcome::Completed, || {
            format!("job {} finished as {:?}", out.job_id, out.outcome)
        }) & r.check(out.retries == expect_retries, || {
            format!(
                "job {} ({:?}) took {} retries",
                out.job_id, p.kind, out.retries
            )
        });
        r.op(ok);
        self.latency.push(lat);
        self.kind_latency[p.kind as usize].push(lat);
        self.cache_hits += u64::from(out.cache_hit);
        self.world_reuses += u64::from(out.world_reused);
        self.retries += u64::from(out.retries);
        if out.recovery.recoveries > 0 {
            self.recovered += 1;
            self.recovered_latency.push(lat);
        }
        self.max_drift = self.max_drift.max(out.report.max_relative_energy_drift());
        let clean = clean(&p.spec);
        self.digests
            .entry(replay_key(&clean))
            .or_insert_with(|| (clean, Vec::new()))
            .1
            .push(out.state_digest);
    }

    /// Every distinct spec's service digests must equal a solo replay.
    /// Replays run on two threads sharing the run's host pool.
    fn check_digests(&self, r: &mut Results) {
        let pool = rayon::current_pool();
        let specs: Vec<&(JobSpec, Vec<u64>)> = self.digests.values().collect();
        let half = specs.len().div_ceil(2);
        let solo: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = specs
                .chunks(half.max(1))
                .map(|chunk| {
                    let pool = &pool;
                    s.spawn(move || {
                        pool.install(|| {
                            chunk
                                .iter()
                                .map(|(spec, _)| solo_digest(spec))
                                .collect::<Vec<_>>()
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("replay thread panicked"))
                .collect()
        });
        for ((spec, got), want) in specs.iter().zip(solo) {
            let bad = got.iter().filter(|&&d| d != want).count() as u64;
            if bad > 0 {
                r.failed += bad;
                r.problem(format!(
                    "{bad} service results differ from the solo replay of {}",
                    replay_key(spec)
                ));
            }
        }
    }
}

/// Submit job `i`; a refusal counts as a failed operation.
fn submit(
    ctx: &mut Ctx,
    r: &mut Results,
    done: &mut Done,
    svc: &SimService,
    hot: &[JobSpec],
    fresh: u64,
    i: u64,
) -> Option<(Pending, JobTicket)> {
    let (kind, tenant, spec) = job(i, hot, fresh);
    let spanned = ctx.traced && (i / PERIOD) % 2 == 1;
    let span = spanned.then(|| ctx.spans.open("job", None, i));
    let submitted = Instant::now();
    let res = if let Some(p) = span {
        ctx.spans
            .time("SimService::submit", Some(p), i, || {
                svc.submit(tenant, spec)
            })
            .0
    } else {
        svc.submit(tenant, spec)
    };
    done.submit.push(submitted.elapsed().as_secs_f64());
    match res {
        Ok(ticket) => Some((
            Pending {
                submitted,
                kind,
                spec,
                span,
            },
            ticket,
        )),
        Err(e) => {
            done.rejected += 1;
            r.problem(format!("job {i} refused: {e}"));
            r.op(false);
            None
        }
    }
}

/// Closed loop: keep `OUTSTANDING` jobs in flight until `more` says stop
/// (asked only at period boundaries), then drain. One waiter thread per
/// job blocks on its ticket and stamps the completion time, so the client
/// thread sleeps until a job completes instead of polling.
fn closed_loop(
    ctx: &mut Ctx,
    r: &mut Results,
    done: &mut Done,
    svc: &SimService,
    hot: &[JobSpec],
    fresh: u64,
    mut more: impl FnMut(u64) -> bool,
) {
    type Completion = (u64, Instant, Result<JobOutput, JobError>);
    let (tx, rx) = mpsc::channel::<Completion>();
    std::thread::scope(|s| {
        let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
        let mut i = 0;
        loop {
            while pending.len() < OUTSTANDING && (i % PERIOD != 0 || more(i)) {
                if let Some((p, ticket)) = submit(ctx, r, done, svc, hot, fresh, i) {
                    let tx = tx.clone();
                    s.spawn(move || {
                        let res = ticket.wait();
                        // The receiver outlives every waiter (scoped threads).
                        let _ = tx.send((i, Instant::now(), res));
                    });
                    pending.insert(i, p);
                }
                i += 1;
            }
            if pending.is_empty() {
                break;
            }
            let (j, at, res) = rx.recv().expect("a waiter holds a sender");
            let p = pending.remove(&j).expect("completion of a pending job");
            let lat = at.duration_since(p.submitted).as_secs_f64();
            if let Some(sp) = p.span {
                ctx.spans.close_at(sp, at);
                done.spanned_latency.push(lat);
            } else {
                done.plain_latency.push(lat);
            }
            done.finish(r, &p, res, lat);
        }
    });
}

/// The payload of the rank panic `Fault::PanicOnceAtStep` injects.
const INJECTED_PANIC: &str = "injected tenant fault";

fn run(ctx: &mut Ctx, r: &mut Results) {
    // The injected panics are expected and recovered from; keep their
    // messages off stderr, and report every other panic as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<&str>() != Some(&INJECTED_PANIC) {
            default_hook(info);
        }
    }));
    mix(ctx, r);
    drop(std::panic::take_hook());
}

fn mix(ctx: &mut Ctx, r: &mut Results) {
    let hot = hot_specs(ctx.input_seed("hot_jobs"));
    let fresh = ctx.input_seed("fresh_jobs");
    r.note(format!(
        "mix per {PERIOD} jobs: {} cache-hit jobs, {} fresh-seed jobs, 1 recovering job; {HOT} hot \
         preparations, {TENANTS} tenants, {WORKERS} workers, {OUTSTANDING} jobs in flight, N = \
         {N}, {STEPS} steps, 1 rank",
        PERIOD - 1 - MISS_AT.len() as u64,
        MISS_AT.len()
    ));

    // Set-up: start the service and run one job per hot preparation.
    let mut setup = Vec::new();
    let mut svc = None;
    for _ in 0..SETUPS {
        if let Some(old) = svc.take() {
            SimService::shutdown(old);
        }
        let t0 = Instant::now();
        let s = SimService::start(ServiceConfig::with_workers(WORKERS));
        for (c, chunk) in hot.chunks(OUTSTANDING).enumerate() {
            let tickets: Vec<_> = chunk
                .iter()
                .enumerate()
                .map(|(k, spec)| s.submit((c * OUTSTANDING + k) as u64 % TENANTS, *spec))
                .collect();
            for t in tickets {
                match t.map(JobTicket::wait) {
                    Ok(Ok(_)) => {}
                    Ok(Err(e)) => r.problem(format!("warm-up job failed: {e:?}")),
                    Err(e) => r.problem(format!("warm-up job refused: {e}")),
                }
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let svc = svc.expect("set up at least once");

    let mut done = Done::default();
    let start = Instant::now();
    let seconds = ctx.seconds;
    closed_loop(ctx, r, &mut done, &svc, &hot, fresh, |i| {
        i < MIN_PERIODS * PERIOD || start.elapsed().as_secs_f64() < seconds
    });
    let elapsed = start.elapsed().as_secs_f64();
    let stats = svc.shutdown();
    r.check(stats.jobs_failed == 0, || {
        format!("{} jobs failed inside the service", stats.jobs_failed)
    });
    done.check_digests(r);

    let jobs = done.latency.len() as f64;
    r.note(format!(
        "{} jobs: cache hits {:.3}, warm-world reuse {:.3}, {} recovered, {} distinct specs replayed solo",
        done.latency.len(),
        done.cache_hits as f64 / jobs,
        done.world_reuses as f64 / jobs,
        done.recovered,
        done.digests.len()
    ));
    for (kind, lat) in ["cache-hit", "fresh-seed", "recovering"]
        .iter()
        .zip(&done.kind_latency)
    {
        if !lat.is_empty() {
            r.note(format!(
                "{kind} jobs: {} of them, latency p50 {:.4} s, p90 {:.4} s, max {:.4} s",
                lat.len(),
                median(lat),
                crate::stats::quantile(lat, 0.9),
                lat.iter().copied().fold(0.0, f64::max)
            ));
        }
    }
    if !ctx.traced {
        record_ops(
            r,
            &setup,
            &done.latency,
            elapsed,
            "one job, submit to result",
        );
        return;
    }

    let jobs_per_s = jobs / elapsed;
    r.set("service.submit_s.p50", median(&done.submit));
    r.set("service.cache_hit_ratio", done.cache_hits as f64 / jobs);
    r.set("service.world_reuse_ratio", done.world_reuses as f64 / jobs);
    r.set("service.retries", done.retries as f64);
    r.set("service.rejected", done.rejected as f64);
    r.set("chaos.recovered_jobs", done.recovered as f64);
    r.set("chaos.recovered_job_s.p50", median(&done.recovered_latency));
    r.set("sim.energy_drift", done.max_drift);
    r.set(
        "bench.trace_overhead_frac",
        median(&done.spanned_latency) / median(&done.plain_latency) - 1.0,
    );
    solo_layers(ctx, r, &hot, jobs_per_s);
}

/// Calls into sim, mpi-sim and gpu-engine on the workload's own job
/// inputs, one at a time.
fn solo_layers(ctx: &mut Ctx, r: &mut Results, hot: &[JobSpec], jobs_per_s: f64) {
    let sp = &mut ctx.spans;
    let id = u64::MAX;
    let p = sp.open("solo", None, id);
    let (mut solo, mut build, mut ck_t, mut restore_t) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for spec in hot.iter().cycle().take(HOT * SOLO_REPS) {
        let t0 = Instant::now();
        let ((state, model), t) = sp.time("Scenario::build", Some(p), id, || {
            spec.scenario.build(spec.n, spec.seed)
        });
        build.push(t);
        let (mut integ, _) = sp.time("PersistentIntegrator::new", Some(p), id, || {
            PersistentIntegrator::new(spec.sim_config(), &state, &model)
        });
        integ.run(spec.steps as usize);
        black_box(state_digest(&integ.snapshot()));
        solo.push(t0.elapsed().as_secs_f64());

        let (ck, t) = sp.time("PersistentIntegrator::checkpoint", Some(p), id, || {
            integ.checkpoint()
        });
        ck_t.push(t);
        drop(integ);
        let ((restored, _), t) = sp.time("PersistentIntegrator::restore", Some(p), id, || {
            PersistentIntegrator::restore(spec.sim_config(), &model, &ck, None)
        });
        restore_t.push(t);
        r.check(restored.report() == ck.report(), || {
            "restored integrator's report differs from its checkpoint".into()
        });
    }
    let solo_p50 = median(&solo);
    r.set("service.solo_job_s.p50", solo_p50);
    r.set(
        "service.capacity_use",
        jobs_per_s * solo_p50 / WORKERS as f64,
    );
    r.set("sim.scenario_build_s", median(&build));
    r.set("sim.checkpoint_s", median(&ck_t));
    r.set("sim.restore_s", median(&restore_t));

    let mut spawn = Vec::new();
    for _ in 0..PROBE_REPS {
        let (session, t) = sp.time("Session::spawn", Some(p), id, || Session::spawn(1));
        spawn.push(t);
        drop(session);
    }
    r.set("mpi_sim.spawn_s", median(&spawn));

    let spec = &hot[0];
    let (state, model) = spec.scenario.build(spec.n, spec.seed);
    let cfg = spec.dist;
    let engine = GpuEngine::with_spec(cfg.params, cfg.spec).with_streams(cfg.streams);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let (rep, t) = sp.time("GpuEngine::compute_field_detailed", Some(p), id, || {
            engine.compute_field_detailed(&state.particles, &state.particles, model.kernel())
        });
        times.push(t);
        last = Some(rep);
    }
    let rep = last.expect("evaluated");
    let field_s = median(&times);
    r.set("gpu.field_s", field_s);
    r.set(
        "gpu.field_ns_per_eval",
        field_s * 1e9 / rep.ops.kernel_evals() as f64,
    );
    r.set("gpu.launches", rep.kernel_launches as f64);
    r.set("gpu_sim.modeled_compute_s", rep.sim.compute_s);
    sp.close(p);
}
