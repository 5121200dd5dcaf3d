//! The bltc repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n|held-out> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` calls each
//! layer's public functions one at a time on the workload's own inputs
//! and prints the per-layer metrics. Both check the program's outputs.
//! The last line of standard output is the result object; the lines
//! above it record the environment and every metric with its unit and
//! direction. Only host wall time is performance; the modeled GPU and
//! network clocks are printed as a separate, deterministic view.

mod dynamics;
mod metrics;
mod service;
mod spans;
mod stats;
mod treecode;

use std::path::PathBuf;
use std::process::ExitCode;

use bltc_bench::json::Json;
use bltc_bench::Args;

use metrics::{Results, END_TO_END, PER_LAYER};
use spans::Spans;

/// The seed later performance claims must also hold on. Do not use it
/// while developing a change, so it stays unseen until the claim is made.
pub const HELD_OUT_SEED: u64 = 0x5eed_0b17;

/// Everything a workload receives.
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Spans of the traced run.
    pub spans: Spans,
    /// Input seeds the workload derived, for the environment record.
    pub input_seeds: Vec<(&'static str, u64)>,
}

impl Ctx {
    /// A reproducible input seed for input `what`, recorded.
    pub fn input_seed(&mut self, what: &'static str) -> u64 {
        let tag = what.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        let s = splitmix64(self.seed ^ tag);
        self.input_seeds.push((what, s));
        s
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One benchmark workload.
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Bit in the metric registry's workload sets.
    pub bit: u8,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Rank threads that can be busy at once.
    pub rank_threads: usize,
    /// The measurement.
    pub run: fn(&mut Ctx, &mut Results),
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[treecode::WORKLOAD, dynamics::WORKLOAD, service::WORKLOAD];

/// Record the common end-to-end timings of one run.
pub fn record_ops(r: &mut Results, setup: &[f64], ops: &[f64], elapsed_s: f64, op: &str) {
    r.set("setup_s", stats::median(setup));
    r.set("ops_per_s", ops.len() as f64 / elapsed_s);
    match stats::summarize(ops) {
        Some(s) => {
            r.set("op_s.p50", s.p50);
            r.set("op_s.tail", s.tail);
            let [q1, q2, q3] = stats::quartiles(ops);
            r.note(format!(
                "op = {op}; op_s.tail is p{} of {} samples; quartiles {q1:.6} {q2:.6} {q3:.6} s; \
                 setup_s is the median of {} set-ups",
                s.tail_p * 100.0,
                s.n,
                setup.len()
            ));
        }
        None => r.problem(format!(
            "{} samples of {op}: too few for a tail with {} beyond",
            ops.len(),
            stats::TAIL_BEYOND
        )),
    }
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; "unknown" elsewhere.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Cli {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &Args) -> Result<Cli, String> {
    let name = args.get_opt("workload").ok_or("missing --workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = match args.get_opt("seed").ok_or("missing --seed")?.as_str() {
        "held-out" => HELD_OUT_SEED,
        s => s.parse().map_err(|_| format!("bad --seed {s}"))?,
    };
    let seconds: f64 = args
        .get_opt("seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let traced = match args.get_opt("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace {t}")),
    };
    Ok(Cli {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = cli.workload;
    let pool = bltc_bench::host_pool(&args);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_workers = pool.current_num_threads();
    let oversubscribed = pool_workers > nproc || w.rank_threads > nproc;

    let mut ctx = Ctx {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        spans: Spans::new(),
        input_seeds: Vec::new(),
    };
    let mut r = Results::default();
    pool.install(|| (w.run)(&mut ctx, &mut r));

    match peak_rss_mib() {
        Some(v) => r.set("peak_rss_mib", v),
        None => r.problem("VmHWM unavailable in /proc/self/status"),
    }
    r.set(
        "bench.failed_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
    );
    if r.attempted == 0 {
        r.problem("no operation was attempted");
    }

    let seeds = ctx
        .input_seeds
        .iter()
        .fold(Json::obj(), |o, (k, v)| o.field(*k, Json::u(*v)));
    let env = Json::obj()
        .field("workload", Json::s(w.name))
        .field("why", Json::s(w.why))
        .field("traced", Json::b(cli.traced))
        .field("seed", Json::u(cli.seed))
        .field("held_out_seed", Json::u(HELD_OUT_SEED))
        .field("input_seeds", seeds)
        .field("seconds", Json::Num(format!("{}", cli.seconds)))
        .field("available_parallelism", Json::u(nproc as u64))
        .field(
            "BLTC_HOST_THREADS",
            std::env::var("BLTC_HOST_THREADS").map_or(Json::Null, Json::s),
        )
        .field("pool_workers", Json::u(pool_workers as u64))
        .field("rank_threads", Json::u(w.rank_threads as u64))
        .field("main_threads", Json::u(1))
        .field("oversubscribed", Json::b(oversubscribed))
        .field("cpu_model", Json::s(cpu_model()))
        .field("commit", Json::s(commit()));
    println!("env {}", env.render_compact());
    if oversubscribed {
        println!("WARNING: busy threads exceed available_parallelism = {nproc}");
    }

    if cli.traced {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("{}-seed{}.spans.json", w.name, cli.seed));
        match ctx.spans.write(&path, w.name, cli.seed) {
            Ok(()) => println!("spans: {} written to {}", ctx.spans.len(), path.display()),
            Err(e) => r.problem(format!("writing {}: {e}", path.display())),
        }
    }

    let set = if cli.traced { PER_LAYER } else { END_TO_END };
    let resolved = r.resolve(set, w.bit);
    for note in &r.notes {
        println!("note: {note}");
    }
    println!("{:<36} {:>16} {:<6} better", "metric", "value", "unit");
    for (metric, value) in &resolved {
        let foreign = if metric.on & w.bit == 0 {
            "  (layer not exercised by this workload)"
        } else {
            ""
        };
        println!(
            "{:<36} {:>16.6e} {:<6} {}{foreign}",
            metric.name,
            value,
            metric.unit,
            metric.better.label()
        );
    }
    for p in &r.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = r.problems.is_empty() && r.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, r.attempted, r.failed, &resolved)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_benchmark_json() {
        let listed = metrics::tests::listed("workloads", &["name", "why"]);
        let declared: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(listed, declared);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn input_seeds_depend_on_seed_and_input() {
        let ctx = |seed| Ctx {
            seed,
            seconds: 1.0,
            traced: false,
            spans: Spans::new(),
            input_seeds: Vec::new(),
        };
        let (mut a, mut b) = (ctx(1), ctx(2));
        assert_eq!(a.input_seed("x"), ctx(1).input_seed("x"));
        assert_ne!(a.input_seed("x"), b.input_seed("x"));
        assert_ne!(a.input_seed("x"), a.input_seed("y"));
    }
}
