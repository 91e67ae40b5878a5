//! The benchmark's vocabulary: every metric it reports, with its unit, its
//! direction, and — for per-layer metrics — the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` at the repository
//! root lists the same names and units (a test keeps the two in step);
//! this table is where the layer → end-to-end map lives, since the
//! `BENCHMARK.json` schema has no field for it.

/// Whether a larger or a smaller value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed next to every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For per-layer metrics: the end-to-end metric it should move, and
    /// on which workload. For end-to-end metrics: what it means.
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better, note: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m(
        "jobs_per_s",
        "jobs/s",
        Higher,
        "simulated jobs completed per host second: the run's jobs over the sum of each trace's median cell time",
    ),
    m(
        "setup_s",
        "s",
        Lower,
        "trace generation plus cell and driver/backend construction, mean over traces of each trace's median",
    ),
    m(
        "peak_rss_mb",
        "MiB",
        Lower,
        "process high-water mark (VmHWM) at the end of the run",
    ),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Layers a
/// workload does not execute report 0.
pub const PER_LAYER: &[Metric] = &[
    m(
        "workload.generate_s",
        "s",
        Lower,
        "setup_s on every workload",
    ),
    m(
        "core.driver.build_s",
        "s",
        Lower,
        "setup_s and peak_rss_mb; largest on hawk-50k",
    ),
    m(
        "core.driver.events",
        "count",
        Lower,
        "jobs_per_s; highest per job on sparrow-1k",
    ),
    m(
        "core.driver.events_per_job",
        "events/job",
        Lower,
        "jobs_per_s; highest on sparrow-1k",
    ),
    m(
        "core.driver.step_ns_per_event_p50",
        "ns",
        Lower,
        "jobs_per_s on every simulator workload",
    ),
    m(
        "core.driver.step_ns_per_event_p99",
        "ns",
        Lower,
        "jobs_per_s on every simulator workload",
    ),
    m(
        "core.driver.self_s",
        "s",
        Lower,
        "jobs_per_s on every simulator workload",
    ),
    m(
        "core.driver.steal_attempts",
        "count",
        Lower,
        "jobs_per_s on hawk-50k and hawk-churn-fattree-5k; 0 on sparrow-1k",
    ),
    m(
        "core.driver.steals",
        "count",
        Higher,
        "jobs_per_s on hawk-50k and hawk-churn-fattree-5k; 0 on sparrow-1k",
    ),
    m(
        "core.driver.steal_success_ratio",
        "ratio",
        Higher,
        "jobs_per_s on hawk-50k and hawk-churn-fattree-5k; 0 on sparrow-1k",
    ),
    m(
        "core.driver.migrations",
        "count",
        Lower,
        "jobs_per_s on hawk-churn-fattree-5k only",
    ),
    m(
        "core.driver.abandons",
        "count",
        Lower,
        "jobs_per_s on hawk-churn-fattree-5k only",
    ),
    m(
        "core.scheduler.victim_calls",
        "count",
        Lower,
        "jobs_per_s on hawk-50k; no change on sparrow-1k",
    ),
    m(
        "core.scheduler.victim_s",
        "s",
        Lower,
        "jobs_per_s on hawk-50k; no change on sparrow-1k",
    ),
    m(
        "core.scheduler.victim_ns_per_call",
        "ns",
        Lower,
        "jobs_per_s on hawk-50k; no change on sparrow-1k",
    ),
    m(
        "core.scheduler.probe_calls",
        "count",
        Lower,
        "jobs_per_s, mostly on sparrow-1k",
    ),
    m(
        "core.scheduler.probe_s",
        "s",
        Lower,
        "jobs_per_s, mostly on sparrow-1k",
    ),
    m(
        "core.scheduler.probe_ns_per_call",
        "ns",
        Lower,
        "jobs_per_s, mostly on sparrow-1k",
    ),
    m(
        "core.metrics.report_s",
        "s",
        Lower,
        "peak_rss_mb and, slightly, jobs_per_s on every simulator workload",
    ),
    m(
        "cluster.steal_scan_ns",
        "ns",
        Lower,
        "jobs_per_s on hawk-50k (standalone estimate)",
    ),
    m(
        "cluster.random_enqueue_ns",
        "ns",
        Lower,
        "jobs_per_s on hawk-50k, not on sparrow-1k (standalone estimate)",
    ),
    m(
        "simcore.wheel_ns_per_op",
        "ns",
        Lower,
        "jobs_per_s, most on sparrow-1k (standalone estimate)",
    ),
    m(
        "net.msgs",
        "count",
        Lower,
        "jobs_per_s on hawk-churn-fattree-5k; 0 under the constant model",
    ),
    m(
        "net.delay_ns",
        "ns",
        Lower,
        "jobs_per_s on hawk-churn-fattree-5k; no change elsewhere (standalone estimate)",
    ),
    m(
        "proto.messages",
        "count",
        Lower,
        "jobs_per_s on proto-hawk-1k only",
    ),
    m(
        "proto.msgs_per_job",
        "msgs/job",
        Lower,
        "jobs_per_s on proto-hawk-1k only",
    ),
    m(
        "proto.steals",
        "count",
        Higher,
        "jobs_per_s on proto-hawk-1k only",
    ),
    m(
        "sim.short_p50_s",
        "sim_s",
        Lower,
        "model output (Figure 5 axis): identical per seed for a pure speed-up; too seed-dependent to bound",
    ),
    m(
        "sim.short_p90_s",
        "sim_s",
        Lower,
        "model output (Figure 5 axis): identical per seed for a pure speed-up; too seed-dependent to bound",
    ),
    m(
        "sim.long_p50_s",
        "sim_s",
        Lower,
        "model output: identical per seed for a pure speed-up; too seed-dependent to bound",
    ),
    m(
        "sim.long_p90_s",
        "sim_s",
        Lower,
        "model output: identical per seed for a pure speed-up; too seed-dependent to bound",
    ),
    m(
        "trace.overhead_frac",
        "ratio",
        Lower,
        "cost of tracing: traced run time / untraced run time - 1",
    ),
];

/// True if `name` is a valid metric or workload name: non-empty, at most
/// 64 characters of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
