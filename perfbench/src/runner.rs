//! One benchmark run: untraced cells for the end-to-end metrics, or
//! untraced and traced cells in alternation for the per-layer metrics.
//!
//! A run cycles through [`TRACES`] traces derived from its seed, so one
//! run's figures average over several inputs rather than riding on one
//! trace's bursts. Each cell regenerates its trace and rebuilds its driver
//! (that is the set-up the run times), and every cell's report is checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hawk_core::{Driver, MetricsReport, Scheduler};
use hawk_proto::{run_prototype, ProtoBackend};
use hawk_workload::{JobClass, Trace};

use crate::check::{check_report, check_same};
use crate::spans::SpanLog;
use crate::spec::PER_LAYER;
use crate::standalone;
use crate::timed::{CallTotals, TimedScheduler};
use crate::workloads::Workload;

/// Distinct traces one run cycles through.
pub const TRACES: usize = 8;

/// Fewest untraced/traced cell pairs a traced run makes.
pub const TRACED_PAIRS: usize = 2;

/// Events per traced `Driver::step_events` slice.
pub const SLICE_EVENTS: u64 = 4_096;

/// The seed of the `k`-th trace of a run seeded `seed`. Distinct runs'
/// seeds give disjoint trace seeds.
pub fn trace_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(TRACES as u64).wrapping_add(k as u64)
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed the run's traces and cells derive from.
    pub seed: u64,
    /// Host time to spend repeating cells (every trace runs at least once
    /// however long that takes).
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Jobs per cell.
    pub jobs: usize,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Cells run.
    pub attempted: u64,
    /// Cells that panicked or failed their output check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable notes: sample counts and check failures.
    pub notes: Vec<String>,
    /// The traced cells' spans (empty for an untraced run).
    pub spans: SpanLog,
}

/// Runs the benchmark as `options` asks.
pub fn run(options: &Options) -> Outcome {
    if options.trace {
        run_traced(options)
    } else {
        run_plain(options)
    }
}

/// Median of `values` (the lower one for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values`; 0 when empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The simulated model's outputs, in [`sim_percentiles`] order.
const SIM_NAMES: [&str; 4] = [
    "sim.short_p50_s",
    "sim.short_p90_s",
    "sim.long_p50_s",
    "sim.long_p90_s",
];

/// Short and long job runtime p50/p90 in simulated seconds: the model's
/// output, identical for a pure speed-up.
fn sim_percentiles(report: &MetricsReport) -> [f64; 4] {
    let short = report.summary(JobClass::Short);
    let long = report.summary(JobClass::Long);
    [short.p50, short.p90, long.p50, long.p90].map(|v| v.unwrap_or(0.0))
}

/// One untraced cell.
struct Plain {
    setup_s: f64,
    run_s: f64,
    trace: Arc<Trace>,
    report: MetricsReport,
}

/// Builds and runs one cell with tracing off. Trace generation and cell
/// and driver (or backend) construction are the set-up; the run is timed
/// alone.
fn plain_cell(workload: Workload, jobs: usize, seed: u64) -> Plain {
    let start = Instant::now();
    let trace = Arc::new(workload.trace(jobs, seed));
    let cell = workload.cell(Arc::clone(&trace), workload.scheduler(), seed);
    let (setup_s, run, report) = if workload.is_proto() {
        let backend = ProtoBackend::deterministic();
        let setup_s = start.elapsed().as_secs_f64();
        let run = Instant::now();
        (setup_s, run, cell.run_on(&backend))
    } else {
        let driver = Driver::with_scheduler(cell.trace(), Arc::clone(cell.scheduler()), cell.sim());
        let setup_s = start.elapsed().as_secs_f64();
        let run = Instant::now();
        (setup_s, run, driver.run())
    };
    Plain {
        setup_s,
        run_s: run.elapsed().as_secs_f64(),
        trace,
        report,
    }
}

/// One traced cell.
struct Traced {
    /// Host seconds from the first step (or the prototype start) to the
    /// finished report: comparable with [`Plain::run_s`].
    run_s: f64,
    /// The cell's per-layer values (all but the standalone estimates and
    /// the tracing overhead).
    layers: Vec<(&'static str, f64)>,
    trace: Arc<Trace>,
    report: MetricsReport,
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 * 1e-9
}

fn ns_per_call(totals: CallTotals) -> f64 {
    totals.nanos as f64 / totals.calls.max(1) as f64
}

/// Builds and runs one cell with the timing wrapper around its policy,
/// recording spans into `log`.
fn traced_cell(workload: Workload, jobs: usize, seed: u64, log: &mut SpanLog) -> Traced {
    let root = log.open("run", None);
    let span = log.open("workload.generate", Some(root));
    let trace = Arc::new(workload.trace(jobs, seed));
    log.close(span, trace.len() as u64);
    let generate_s = secs(log.spans()[span].nanos());

    let timed = Arc::new(TimedScheduler::new(workload.scheduler()));
    let policy: Arc<dyn Scheduler> = Arc::clone(&timed) as Arc<dyn Scheduler>;
    let cell = workload.cell(Arc::clone(&trace), policy, seed);
    let mut layers = vec![("workload.generate_s", generate_s)];

    let (run_s, report) = if workload.is_proto() {
        let config = ProtoBackend::deterministic().config_for(cell.sim());
        let run = log.open("proto.run", Some(root));
        let proto = run_prototype(cell.trace(), Arc::clone(cell.scheduler()), &config);
        log.close(run, proto.messages);
        log.aggregate("core.scheduler.probe", run, timed.probe());
        log.aggregate("core.scheduler.victim", run, timed.victim());
        layers.extend([
            ("proto.messages", proto.messages as f64),
            ("proto.msgs_per_job", proto.messages as f64 / jobs as f64),
            ("proto.steals", proto.steals as f64),
        ]);
        let report = proto.into_metrics(timed.name(), workload.nodes());
        (secs(log.spans()[run].nanos()), report)
    } else {
        let span = log.open("core.driver.build", Some(root));
        let mut driver =
            Driver::with_scheduler(cell.trace(), Arc::clone(cell.scheduler()), cell.sim());
        log.close(span, 0);
        layers.push(("core.driver.build_s", secs(log.spans()[span].nanos())));

        let start = Instant::now();
        let mut slice_ns_per_event = Vec::new();
        let mut self_nanos = 0;
        loop {
            let (probe, victim) = (timed.probe(), timed.victim());
            let slice = log.open("core.driver.step", Some(root));
            let events = driver.step_events(SLICE_EVENTS);
            log.close(slice, events);
            let (probe, victim) = (timed.probe().since(probe), timed.victim().since(victim));
            log.aggregate("core.scheduler.probe", slice, probe);
            log.aggregate("core.scheduler.victim", slice, victim);
            let nanos = log.spans()[slice].nanos();
            self_nanos += nanos.saturating_sub(probe.nanos + victim.nanos);
            if events < SLICE_EVENTS {
                break;
            }
            slice_ns_per_event.push(nanos as f64 / events as f64);
        }
        let span = log.open("core.metrics.report", Some(root));
        let report = driver.run();
        log.close(span, 0);
        let run_s = start.elapsed().as_secs_f64();

        let steal_ratio = report.steals as f64 / report.steal_attempts.max(1) as f64;
        layers.extend([
            ("core.driver.events", report.events as f64),
            (
                "core.driver.events_per_job",
                report.events as f64 / jobs as f64,
            ),
            (
                "core.driver.step_ns_per_event_p50",
                percentile(&slice_ns_per_event, 50.0),
            ),
            (
                "core.driver.step_ns_per_event_p99",
                percentile(&slice_ns_per_event, 99.0),
            ),
            ("core.driver.self_s", secs(self_nanos)),
            ("core.driver.steal_attempts", report.steal_attempts as f64),
            ("core.driver.steals", report.steals as f64),
            ("core.driver.steal_success_ratio", steal_ratio),
            ("core.driver.migrations", report.migrations as f64),
            ("core.driver.abandons", report.abandons as f64),
            ("core.metrics.report_s", secs(log.spans()[span].nanos())),
            ("net.msgs", report.network.total_msgs() as f64),
        ]);
        (run_s, report)
    };
    log.close(root, 0);

    let (probe, victim) = (timed.probe(), timed.victim());
    layers.extend([
        ("core.scheduler.victim_calls", victim.calls as f64),
        ("core.scheduler.victim_s", secs(victim.nanos)),
        ("core.scheduler.victim_ns_per_call", ns_per_call(victim)),
        ("core.scheduler.probe_calls", probe.calls as f64),
        ("core.scheduler.probe_s", secs(probe.nanos)),
        ("core.scheduler.probe_ns_per_call", ns_per_call(probe)),
    ]);
    layers.extend(SIM_NAMES.into_iter().zip(sim_percentiles(&report)));
    Traced {
        run_s,
        layers,
        trace,
        report,
    }
}

/// Counts cells and failures, and holds each trace's reference report.
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// The first passing report of each trace; later cells of the same
    /// trace must reproduce it exactly.
    references: Vec<Option<MetricsReport>>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            references: vec![None; TRACES],
        }
    }

    /// Runs `cell` on trace `k`, catching a panic, and checks its report
    /// against the trace and against the trace's reference report. Returns
    /// the cell only if every check passed.
    fn attempt<T>(
        &mut self,
        what: &str,
        k: usize,
        cell: impl FnOnce() -> T,
        parts: impl Fn(&T) -> (&Trace, &MetricsReport),
    ) -> Option<T> {
        self.attempted += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(cell)) {
            Err(_) => Err("the cell panicked".to_string()),
            Ok(result) => {
                let (trace, report) = parts(&result);
                let checked = check_report(report, trace).and_then(|()| {
                    self.references[k]
                        .as_ref()
                        .map_or(Ok(()), |reference| check_same(report, reference))
                });
                if checked.is_ok() && self.references[k].is_none() {
                    self.references[k] = Some(report.clone());
                }
                checked.map(|()| result)
            }
        };
        match verdict {
            Ok(result) => Some(result),
            Err(reason) => {
                self.failed += 1;
                self.notes
                    .push(format!("{what} on trace {k} failed its check: {reason}"));
                None
            }
        }
    }
}

fn plain_parts(p: &Plain) -> (&Trace, &MetricsReport) {
    (&p.trace, &p.report)
}

fn traced_parts(t: &Traced) -> (&Trace, &MetricsReport) {
    (&t.trace, &t.report)
}

fn run_plain(options: &Options) -> Outcome {
    let Options {
        workload,
        seed,
        jobs,
        ..
    } = *options;
    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let mut tally = Tally::new();
    let mut setup = vec![Vec::new(); TRACES];
    let mut run = vec![Vec::new(); TRACES];
    let mut cells = 0;
    while cells < TRACES || start.elapsed() < budget {
        let k = cells % TRACES;
        cells += 1;
        let plain = tally.attempt(
            "cell",
            k,
            || plain_cell(workload, jobs, trace_seed(seed, k)),
            plain_parts,
        );
        if let Some(plain) = plain {
            setup[k].push(plain.setup_s);
            run[k].push(plain.run_s);
        }
    }

    // Each trace's median, then jobs over the summed medians: a noisy
    // cell cannot move the result, and every trace weighs the same.
    let measured: Vec<usize> = (0..TRACES).filter(|&k| !run[k].is_empty()).collect();
    let run_total: f64 = measured.iter().map(|&k| median(&run[k])).sum();
    let setup_total: f64 = measured.iter().map(|&k| median(&setup[k])).sum();
    let traces = measured.len().max(1) as f64;
    let metrics = vec![
        (
            "jobs_per_s",
            (measured.len() * jobs) as f64 / run_total.max(1e-12),
        ),
        ("setup_s", setup_total / traces),
        ("peak_rss_mb", peak_rss_mb()),
    ];

    let mut notes = tally.notes;
    notes.push(format!(
        "{cells} cells over {TRACES} traces of {jobs} jobs; {} passed their check",
        run.iter().map(Vec::len).sum::<usize>()
    ));
    let references: Vec<&MetricsReport> = tally.references.iter().flatten().collect();
    let jobs_of = |class| -> usize { references.iter().map(|r| r.summary(class).jobs).sum() };
    notes.push(format!(
        "simulated runtimes, median over traces of {} short and {} long jobs in all:",
        jobs_of(JobClass::Short),
        jobs_of(JobClass::Long)
    ));
    let sims: Vec<[f64; 4]> = references.iter().map(|r| sim_percentiles(r)).collect();
    for (i, name) in SIM_NAMES.iter().enumerate() {
        let values: Vec<f64> = sims.iter().map(|sim| sim[i]).collect();
        notes.push(format!("  {name} {} sim_s", median(&values)));
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        spans: SpanLog::default(),
    }
}

fn run_traced(options: &Options) -> Outcome {
    let Options {
        workload,
        seed,
        jobs,
        ..
    } = *options;
    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let mut tally = Tally::new();
    let mut log = SpanLog::default();
    let mut overhead = Vec::new();
    let mut cells: Vec<Traced> = Vec::new();
    let mut pairs = 0;
    // Alternate untraced and traced cells of the same trace so both see
    // the same machine state; the traced report must equal the untraced.
    while pairs < TRACED_PAIRS || start.elapsed() < budget {
        let k = pairs % TRACES;
        pairs += 1;
        let cell_seed = trace_seed(seed, k);
        let plain = tally.attempt(
            "untraced cell",
            k,
            || plain_cell(workload, jobs, cell_seed),
            plain_parts,
        );
        let traced = tally.attempt(
            "traced cell",
            k,
            || traced_cell(workload, jobs, cell_seed, &mut log),
            traced_parts,
        );
        if let (Some(plain), Some(traced)) = (&plain, &traced) {
            overhead.push(traced.run_s / plain.run_s.max(1e-12) - 1.0);
        }
        cells.extend(traced);
    }

    // Standalone estimates at the workload's size, on the run's first
    // trace: the wheel holds about half the arrivals plus one completion
    // per server mid-run.
    let nodes = workload.nodes();
    let short_fraction = workload.scheduler().short_partition_fraction();
    let sample = workload.trace(jobs, trace_seed(seed, 0));
    let standalone = [
        (
            "cluster.steal_scan_ns",
            standalone::steal_scan_ns(nodes, short_fraction, seed),
        ),
        (
            "cluster.random_enqueue_ns",
            standalone::random_enqueue_ns(nodes, short_fraction, seed),
        ),
        (
            "simcore.wheel_ns_per_op",
            standalone::wheel_ns_per_op(&sample, jobs / 2 + nodes, seed),
        ),
        (
            "net.delay_ns",
            standalone::delay_ns(&workload.topology(), nodes, &sample, seed),
        ),
        ("trace.overhead_frac", median(&overhead)),
    ];

    // Every other layer value is the median over the traced cells; a
    // layer the workload does not run reports 0.
    let cell_median = |name: &str| {
        let values: Vec<f64> = cells
            .iter()
            .filter_map(|c| c.layers.iter().find(|(n, _)| *n == name).map(|p| p.1))
            .collect();
        median(&values)
    };
    let metrics = PER_LAYER
        .iter()
        .map(|metric| {
            let value = standalone
                .iter()
                .find(|(name, _)| *name == metric.name)
                .map_or_else(|| cell_median(metric.name), |&(_, v)| v);
            (metric.name, value)
        })
        .collect();
    let mut notes = tally.notes;
    notes.push(format!(
        "{pairs} untraced/traced pairs over {TRACES} traces of {jobs} jobs; \
         {} traced cells passed their check; step percentiles over slices of \
         {SLICE_EVENTS} events; cluster.*, simcore.* and net.delay_ns are standalone estimates",
        cells.len()
    ));
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        spans: log,
    }
}

/// The process's peak resident set (`VmHWM`), MiB; 0 where `/proc` does
/// not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
