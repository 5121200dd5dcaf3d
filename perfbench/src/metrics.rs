//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit, its direction, and the workloads that measure it. `BENCHMARK.json`
//! lists the same names (a unit test keeps the two in step). End-to-end
//! metrics are measured on every workload. A per-layer metric belongs to
//! the workloads that call into its layer; on the others it reads `0`,
//! meaning "this workload does no work in that layer".

use std::collections::BTreeMap;

use bltc_bench::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Workload bit: `treecode_uniform`.
pub const TC: u8 = 1;
/// Workload bit: `dynamics_yukawa`.
pub const DY: u8 = 2;
/// Workload bit: `service_mix`.
pub const SV: u8 = 4;
/// Every workload.
pub const ALL: u8 = TC | DY | SV;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Workloads (bit set of [`TC`], [`DY`], [`SV`]) that measure it.
    pub on: u8,
}

const fn m(name: &'static str, unit: &'static str, better: Better, on: u8) -> Metric {
    Metric {
        name,
        unit,
        better,
        on,
    }
}

use Better::{Higher as H, Lower as L};

/// End-to-end metrics, printed by the untraced run. What "one operation"
/// is depends on the workload: one potential evaluation
/// (`treecode_uniform`), one velocity-Verlet step (`dynamics_yukawa`), one
/// job from submit to result (`service_mix`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", L, ALL),
    m("op_s.p50", "s", L, ALL),
    m("op_s.tail", "s", L, ALL),
    m("ops_per_s", "1/s", H, ALL),
    m("peak_rss_mib", "MiB", L, ALL),
];

/// Per-layer metrics, printed by the traced run.
pub const PER_LAYER: &[Metric] = &[
    // bltc-core
    m("core.tree_s", "s", L, TC),
    m("core.lists_s", "s", L, TC),
    m("core.charges_s", "s", L, TC),
    m("core.p2p_direct_ns_per_eval", "ns", L, TC),
    m("core.p2p_approx_ns_per_eval", "ns", L, TC),
    m("core.direct_sum_ns_per_eval", "ns", L, TC),
    m("core.evals_direct", "count", L, TC),
    m("core.evals_approx", "count", L, TC),
    m("core.launches", "count", L, TC),
    m("core.evals_frac_n2", "ratio", L, TC),
    m("core.eval_s.p50", "s", L, TC),
    m("core.reconcile_residual_frac", "ratio", L, TC),
    m("core.rel_err", "ratio", L, TC),
    // bltc-gpu (simulated device, host wall time)
    m("gpu.field_s", "s", L, DY | SV),
    m("gpu.field_ns_per_eval", "ns", L, DY | SV),
    m("gpu.field_skew", "ratio", L, DY),
    m("gpu.launches", "count", L, DY | SV),
    // modeled clocks: deterministic, never a speed-up
    m("gpu_sim.modeled_compute_s", "s", L, DY | SV),
    m("dist.modeled_pipelined_s", "s", L, DY),
    // mpi-sim
    m("mpi_sim.spawn_s", "s", L, DY | SV),
    m("mpi_sim.epoch_s.p50", "s", L, DY),
    m("mpi_sim.rma_messages", "count", L, DY),
    m("mpi_sim.rma_bytes", "bytes", L, DY),
    // rcb
    m("rcb.partition_s", "s", L, DY),
    m("rcb.imbalance", "ratio", L, DY),
    // bltc-dist
    m("dist.eval_field_s.p50", "s", L, DY),
    m("dist.let_overhead_s", "s", L, DY),
    m("dist.migrate_s.p50", "s", L, DY),
    m("dist.let_messages", "count", L, DY),
    m("dist.let_bytes", "bytes", L, DY),
    m("dist.fetched_particles", "count", L, DY),
    m("dist.peak_let_bytes", "bytes", L, DY),
    m("dist.migrated_particles", "count", L, DY),
    m("dist.migration_bytes", "bytes", L, DY),
    m("dist.migration_saving", "ratio", L, DY),
    // bltc-sim
    m("sim.step_overhead_s", "s", L, DY),
    m("sim.scenario_build_s", "s", L, DY | SV),
    m("sim.checkpoint_s", "s", L, DY | SV),
    m("sim.restore_s", "s", L, DY | SV),
    m("sim.energy_drift", "ratio", L, DY | SV),
    // bltc-service
    m("service.submit_s.p50", "s", L, SV),
    m("service.solo_job_s.p50", "s", L, SV),
    m("service.capacity_use", "ratio", H, SV),
    m("service.cache_hit_ratio", "ratio", H, SV),
    m("service.world_reuse_ratio", "ratio", H, SV),
    m("service.retries", "count", L, SV),
    m("service.rejected", "count", L, SV),
    // bltc-chaos recovery, driven through the service
    m("chaos.recovered_jobs", "count", L, SV),
    m("chaos.recovered_job_s.p50", "s", L, SV),
    // tracing cost
    m("trace.session_spans_overhead_frac", "ratio", L, DY),
    m("trace.spans_per_step", "count", L, DY),
    m("bench.trace_overhead_frac", "ratio", L, ALL),
    m("bench.failed_frac", "ratio", L, ALL),
];

/// One workload run's measured values and failures.
#[derive(Debug, Default)]
pub struct Results {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Checks that failed, with the reason (a failing check also makes
    /// `correct` false).
    pub problems: Vec<String>,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

impl Results {
    /// Record a metric value.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not declared in the registry.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Count one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Check a condition; a failure is recorded with `msg`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problem(msg());
        }
        ok
    }

    /// Add a note line.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Resolve the metric set for one workload: every metric of `set`,
    /// with metrics foreign to `workload` at 0. A metric the workload
    /// should measure but did not, or a non-finite value, is a problem.
    pub fn resolve(&mut self, set: &[Metric], workload: u8) -> Vec<(Metric, f64)> {
        let mut out = Vec::with_capacity(set.len());
        for metric in set {
            let value = if metric.on & workload == 0 {
                0.0
            } else {
                match self.values.get(metric.name) {
                    Some(v) if v.is_finite() => *v,
                    Some(v) => {
                        self.problem(format!("{} is not finite ({v})", metric.name));
                        0.0
                    }
                    None => {
                        self.problem(format!("{} was not measured", metric.name));
                        0.0
                    }
                }
            };
            out.push((*metric, value));
        }
        out
    }
}

/// The result line: one compact JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Metric, f64)],
) -> String {
    let mut obj = Json::obj();
    for (metric, value) in metrics {
        // `{}` on f64 prints the shortest decimal that round-trips, so
        // every measured digit survives.
        obj = obj.field(
            metric.name,
            Json::obj()
                .field("value", Json::Num(format!("{value}")))
                .field("unit", Json::s(metric.unit)),
        );
    }
    Json::obj()
        .field("correct", Json::b(correct))
        .field("attempted", Json::u(attempted))
        .field("failed", Json::u(failed))
        .field("metrics", obj)
        .render_compact()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The string fields `keys` of every entry in one array of
    /// `BENCHMARK.json`, read by scanning the text (no JSON parser is
    /// available offline; the file keeps one flat object per entry).
    pub(crate) fn listed(section: &str, keys: &[&str]) -> Vec<Vec<String>> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("entry without {key}: {entry}"));
            let rest = &entry[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes");
            rest[open..open + close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| keys.iter().map(|k| field(entry, k)).collect())
            .collect()
    }

    fn declared(set: &[Metric]) -> Vec<Vec<String>> {
        set.iter()
            .map(|m| vec![m.name.into(), m.unit.into(), m.better.label().into()])
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_metrics() {
        let keys = ["name", "unit", "better"];
        assert_eq!(listed("end_to_end", &keys), declared(END_TO_END));
        assert_eq!(listed("per_layer", &keys), declared(PER_LAYER));
    }
    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut uniq = all.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.on == ALL));
    }

    #[test]
    fn result_line_emits_every_metric_of_the_set() {
        for (set, workload) in [(END_TO_END, TC), (PER_LAYER, DY), (PER_LAYER, SV)] {
            let mut r = Results::default();
            for metric in set.iter().filter(|m| m.on & workload != 0) {
                r.set(metric.name, 1.5);
            }
            let resolved = r.resolve(set, workload);
            assert!(r.problems.is_empty(), "{:?}", r.problems);
            let line = result_line(true, 3, 0, &resolved);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{")
            );
            for metric in set {
                let key = format!("\"{}\":{{\"value\":", metric.name);
                assert!(line.contains(&key), "{} missing from {line}", metric.name);
            }
        }
    }

    #[test]
    fn unmeasured_metric_is_a_problem() {
        let mut r = Results::default();
        r.resolve(END_TO_END, SV);
        assert_eq!(r.problems.len(), END_TO_END.len());
    }
}
