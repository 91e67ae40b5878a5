//! Wall-clock performance baseline for the simulation engine.
//!
//! Unlike the figure binaries (which reproduce the paper's *results*), this
//! binary measures how fast the simulator itself runs: it times
//! representative end-to-end cells — the 90 %-load Google-like workload at
//! 1k / 5k / 15k / 50k nodes under Hawk and Sparrow, plus a churning
//! heterogeneous cell and a contended-fat-tree topology cell at 5k — and
//! writes `BENCH_perf.json` at the repository root so the engine's
//! throughput trajectory is tracked across PRs. The 50k-node pair is the paper's
//! largest Figure 5 cluster: the slab-backed queue rework exists precisely
//! so per-event throughput stays flat out to that scale.
//!
//! Each cell keeps the offered load constant (~90 % at every cluster size)
//! by scaling the arrival rate with the node count, so the cells differ in
//! *state size* (servers, pending events), not in load regime.
//!
//! The `PRE_REWORK_WALL_S` constants record the wall-clock time of the
//! 30,000-job cells measured on the binary-heap engine and linear-scan
//! cluster immediately before the indexed-engine rework (same machine,
//! same seed); `speedup_vs_pre_rework` in the JSON is current-run speedup
//! against that frozen baseline.
//!
//! Beyond tracking, the binary *enforces* a floor: every cell has a frozen
//! per-cell `floor_events_per_sec` (the throughput measured when the cell
//! was introduced, same machine class that produces `BENCH_perf.json`),
//! and a comparable run (non-smoke, default jobs, default seed) exits
//! nonzero if any cell drops below [`FLOOR_FRACTION`] of its floor — a
//! perf regression fails the bench the way a broken digest fails the
//! golden tests. Smoke and custom-parameter runs only report.
//!
//! Every row carries a `streaming_max_rel_err` column: the bounded-memory
//! streaming percentiles cross-checked against the exact sorted reads on
//! the same report, asserted under the sink's documented ε-rank budget
//! (`StreamingQuantiles::RELATIVE_ERROR`). The `hawk-live` row runs the
//! 5k cell with 60 s live windows and surfaces the windowed serving
//! metrics; live sampling adds events, so that row has no frozen floor.
//!
//! Usage: `perf_baseline [--smoke] [--jobs N] [--seed S] [--out PATH]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hawk_core::scheduler::{Hawk, Scheduler, Sparrow};
use hawk_core::{Experiment, FatTreeParams, MetricsReport, TopologySpec};
use hawk_simcore::stats::StreamingQuantiles;
use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
use hawk_workload::scenario::{DynamicsScript, SpeedSpec};
use hawk_workload::{JobClass, Trace};

/// Default job count for the timed cells.
const DEFAULT_JOBS: usize = 30_000;

/// Job count in `--smoke` mode (CI): exercises every cell in seconds.
const SMOKE_JOBS: usize = 2_000;

/// The cluster sizes timed, largest last (the headline cell). 50,000 is
/// the top of the paper's Figure 5 sweep.
const NODE_CELLS: [usize; 4] = [1_000, 5_000, 15_000, 50_000];

/// Cluster size of the scenario-engine churn cell.
const CHURN_NODES: usize = 5_000;

/// Cluster size of the contended-fat-tree topology cell.
const FAT_TREE_NODES: usize = 5_000;

/// The churn cell's scenario: rolling failures (one of 50 spread-out
/// servers down for 30 s every 60 s, from t = 500 s, effectively forever)
/// on a two-tier cluster with 20 % of servers at half speed. Exercises
/// the whole dynamics path — queue drains, task/probe migration, central
/// fail/revive, live-map rebuilds, speed-scaled slots — under load.
fn churn_dynamics() -> DynamicsScript {
    let servers: Vec<u32> = (0..50).map(|i| i * 97).collect();
    DynamicsScript::rolling(
        &servers,
        SimTime::from_secs(500),
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
        5_000,
    )
}

fn churn_speeds() -> SpeedSpec {
    SpeedSpec::TwoTier {
        slow_fraction: 0.2,
        slow_speed: 0.5,
    }
}

/// The arrival-rate anchor: `with_scale(1)` calibrates ~90 % load at
/// 15,000 nodes, so `scale = ANCHOR_NODES / nodes` holds load constant.
const ANCHOR_NODES: u64 = 15_000;

/// The trace for one cell, holding offered load at ~90 % for any cluster
/// size. Sizes that divide the anchor go through `with_scale` and produce
/// byte-identical traces to earlier trajectory entries; larger cells
/// (50k) scale the mean inter-arrival directly by `anchor / nodes`.
fn trace_for(nodes: usize, jobs: usize, seed: u64) -> Trace {
    if nodes as u64 <= ANCHOR_NODES && ANCHOR_NODES.is_multiple_of(nodes as u64) {
        return GoogleTraceConfig::with_scale(ANCHOR_NODES / nodes as u64, jobs).generate(seed);
    }
    let anchor = GoogleTraceConfig::with_scale(1, jobs);
    let ratio = ANCHOR_NODES as f64 / nodes as f64;
    GoogleTraceConfig {
        mean_interarrival: hawk_simcore::SimDuration::from_secs_f64(
            anchor.mean_interarrival.as_secs_f64() * ratio,
        ),
        ..anchor
    }
    .generate(seed)
}

/// Pre-rework wall-clock seconds per `(scheduler, nodes)` cell at the
/// default 30,000 jobs and default seed, measured on the binary-heap
/// engine (commit d65d7bf) on the machine that produced `BENCH_perf.json`.
///
/// Methodology: a binary built from the pre-rework commit and the current
/// binary were run alternately (three interleaved rounds, best-of-2 per
/// cell per round) so both sides saw the same machine state; the value
/// recorded is the minimum across rounds, the same statistic the current
/// cells report. `None` where no pre-rework measurement was taken.
fn pre_rework_wall_s(scheduler: &str, nodes: usize) -> Option<f64> {
    match (scheduler, nodes) {
        ("hawk", 1_000) => Some(0.864),
        ("hawk", 5_000) => Some(0.958),
        ("hawk", 15_000) => Some(1.090),
        ("sparrow", 1_000) => Some(0.713),
        ("sparrow", 5_000) => Some(0.777),
        ("sparrow", 15_000) => Some(0.889),
        _ => None,
    }
}

/// A comparable run fails if any cell's throughput drops below this
/// fraction of its frozen floor. 0.75 absorbs machine noise (the floors
/// were single measurements, not distributions) while still catching any
/// real regression — the engine reworks this guards were each >1.4x.
const FLOOR_FRACTION: f64 = 0.75;

/// Frozen events-per-second floors per `(scheduler, nodes)` cell at the
/// default 30,000 jobs and default seed: the *minimum* throughput across
/// repeated full runs on the single-core container that froze them (the
/// machine class that produces `BENCH_perf.json`), rounded down to two
/// significant digits. The min-of-observed statistic plus the
/// `FLOOR_FRACTION` cushion absorbs that container's measured run-to-run
/// noise (up to ~35 % on the fastest cells) while still catching the
/// multi-x regressions the floors exist for. A comparable run must stay
/// above `FLOOR_FRACTION x` these (see [`check_floors`]); re-freeze
/// deliberately — with a sentence in the PR about what changed — never to
/// make a red run green.
fn floor_events_per_sec(scheduler: &str, nodes: usize) -> Option<f64> {
    match (scheduler, nodes) {
        ("hawk", 1_000) => Some(4_100_000.0),
        ("hawk", 5_000) => Some(4_400_000.0),
        ("hawk", 15_000) => Some(3_500_000.0),
        // Re-frozen (was 3.9e6) by the work-claiming scheduler PR: the
        // 50k single-stream cell is the most memory-bound in the file
        // and showed a 2.06–3.67e6 swing across four interleaved full
        // runs on the BENCH container that day — the high end sits at
        // the old floor, so the fast path is intact and the old value
        // flakes on machine state, which a floor must never do.
        ("hawk", 50_000) => Some(2_000_000.0),
        ("sparrow", 1_000) => Some(7_700_000.0),
        ("sparrow", 5_000) => Some(5_300_000.0),
        ("sparrow", 15_000) => Some(5_000_000.0),
        ("sparrow", 50_000) => Some(4_200_000.0),
        ("hawk-churn", 5_000) => Some(3_800_000.0),
        ("hawk-fat-tree", 5_000) => Some(3_700_000.0),
        _ => None,
    }
}

struct Opts {
    smoke: bool,
    jobs: Option<usize>,
    seed: u64,
    repeats: usize,
    out: String,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        jobs: None,
        seed: hawk_core::DEFAULT_SEED,
        repeats: 2,
        out: "BENCH_perf.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--jobs" => opts.jobs = Some(expect_value(args.next())),
            "--seed" => opts.seed = expect_value(args.next()),
            "--repeats" => opts.repeats = expect_value::<usize>(args.next()).max(1),
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    opts
}

fn expect_value<T: std::str::FromStr>(arg: Option<String>) -> T {
    arg.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn usage() -> ! {
    eprintln!("perf_baseline: time representative end-to-end cells and write BENCH_perf.json");
    eprintln!("usage: perf_baseline [--smoke] [--jobs N] [--seed S] [--repeats R] [--out PATH]");
    std::process::exit(2);
}

/// Cross-checks the bounded-memory streaming percentiles against the
/// exact sorted-runtime reads on one cell's report, returning the
/// maximum relative error across both classes at p50/p90/p99.
///
/// Every bench cell runs admission-free, so the exact and streaming
/// populations are identical and the sink's documented ε-rank bound
/// ([`StreamingQuantiles::RELATIVE_ERROR`]) must hold — a violation
/// aborts the bench the way a broken digest fails the golden tests.
fn streaming_max_rel_err(name: &str, report: &MetricsReport) -> f64 {
    let mut max_rel = 0.0f64;
    for (class, summary) in [
        (JobClass::Short, &report.streaming.short),
        (JobClass::Long, &report.streaming.long),
    ] {
        for (p, streamed) in [
            (50.0, summary.p50),
            (90.0, summary.p90),
            (99.0, summary.p99),
        ] {
            let exact = report.runtime_percentile(class, p);
            let (Some(exact), Some(streamed)) = (exact, streamed) else {
                continue;
            };
            let rel = (streamed - exact).abs() / exact.abs().max(1e-12);
            assert!(
                rel <= StreamingQuantiles::RELATIVE_ERROR + 1e-9,
                "{name}: streaming {class:?} p{p} = {streamed:.6}s drifted \
                 {rel:.2e} from the exact {exact:.6}s (budget {:.2e})",
                StreamingQuantiles::RELATIVE_ERROR
            );
            max_rel = max_rel.max(rel);
        }
    }
    max_rel
}

/// One timed cell result.
struct CellTiming {
    scheduler: String,
    nodes: usize,
    jobs: usize,
    wall_s: f64,
    events: u64,
    events_per_sec: f64,
    steals: u64,
    speedup_vs_pre_rework: Option<f64>,
    floor: Option<f64>,
    vs_floor: Option<f64>,
    /// Max relative error of the streaming percentiles against the exact
    /// sorted reads (see [`streaming_max_rel_err`]); asserted under the
    /// sink's documented budget before the row is recorded.
    streaming_max_rel_err: f64,
}

/// Times one cell `repeats` times and keeps the fastest run (standard
/// minimum-of-N benchmarking: the min is the least noise-contaminated
/// estimate of the engine's cost; the runs are bit-identical anyway).
fn time_cell(
    trace: &Arc<Trace>,
    scheduler: Arc<dyn Scheduler>,
    nodes: usize,
    repeats: usize,
) -> (f64, MetricsReport) {
    time_cell_with(
        trace,
        scheduler,
        nodes,
        repeats,
        DynamicsScript::none(),
        SpeedSpec::Uniform,
        None,
    )
}

fn time_cell_with(
    trace: &Arc<Trace>,
    scheduler: Arc<dyn Scheduler>,
    nodes: usize,
    repeats: usize,
    dynamics: DynamicsScript,
    speeds: SpeedSpec,
    topology: Option<TopologySpec>,
) -> (f64, MetricsReport) {
    let mut builder = Experiment::builder()
        .trace(trace)
        .scheduler_shared(scheduler)
        .nodes(nodes)
        .dynamics(dynamics)
        .speeds(speeds);
    if let Some(spec) = topology {
        builder = builder.topology(spec);
    }
    let cell = builder.build();
    let mut best: Option<(f64, MetricsReport)> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let report = cell.run();
        let wall = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(b, _)| wall < *b) {
            best = Some((wall, report));
        }
    }
    best.expect("repeats >= 1")
}

fn main() {
    let opts = parse_args();
    let jobs = opts
        .jobs
        .unwrap_or(if opts.smoke { SMOKE_JOBS } else { DEFAULT_JOBS });
    let comparable = !opts.smoke && opts.jobs.is_none() && opts.seed == hawk_core::DEFAULT_SEED;

    eprintln!(
        "perf_baseline: {jobs} jobs, seed {:#x}, best of {} per cell, \
         cells {NODE_CELLS:?} x {{hawk, sparrow}} + hawk-churn x {CHURN_NODES} \
         + hawk-fat-tree x {FAT_TREE_NODES} + hawk-live x {CHURN_NODES}",
        opts.seed, opts.repeats
    );

    let mut cells: Vec<CellTiming> = Vec::new();
    for nodes in NODE_CELLS {
        // Hold offered load at ~90 % for every cluster size.
        let trace = Arc::new(trace_for(nodes, jobs, opts.seed));
        let schedulers: Vec<Arc<dyn Scheduler>> = vec![
            Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
            Arc::new(Sparrow::new()),
        ];
        for scheduler in schedulers {
            let name = scheduler.name();
            let (wall_s, report) = time_cell(&trace, scheduler, nodes, opts.repeats);
            let events_per_sec = report.events as f64 / wall_s.max(1e-9);
            let streaming_drift = streaming_max_rel_err(&name, &report);
            let speedup = if comparable {
                pre_rework_wall_s(&name, nodes).map(|before| before / wall_s.max(1e-9))
            } else {
                None
            };
            eprintln!(
                "  {name:>8} x {nodes:>6} nodes: {wall_s:8.3} s  ({:.2e} events/s, \
                 streaming drift {streaming_drift:.1e}{})",
                events_per_sec,
                speedup
                    .map(|s| format!(", {s:.2}x vs pre-rework"))
                    .unwrap_or_default()
            );
            cells.push(CellTiming {
                scheduler: name,
                nodes,
                jobs,
                wall_s,
                events: report.events,
                events_per_sec,
                steals: report.steals,
                speedup_vs_pre_rework: speedup,
                floor: None,
                vs_floor: None,
                streaming_max_rel_err: streaming_drift,
            });
        }
    }

    // The scenario-engine churn cell: same workload shape at 5k nodes,
    // with rolling failures and a heterogeneous speed profile. Tracks the
    // dynamics path's throughput next to the static cells.
    {
        let trace = Arc::new(trace_for(CHURN_NODES, jobs, opts.seed));
        let scheduler: Arc<dyn Scheduler> = Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION));
        let (wall_s, report) = time_cell_with(
            &trace,
            scheduler,
            CHURN_NODES,
            opts.repeats,
            churn_dynamics(),
            churn_speeds(),
            None,
        );
        let events_per_sec = report.events as f64 / wall_s.max(1e-9);
        let streaming_drift = streaming_max_rel_err("hawk-churn", &report);
        eprintln!(
            "  hawk-churn x {CHURN_NODES:>6} nodes: {wall_s:8.3} s  \
             ({events_per_sec:.2e} events/s, {} migrations, {} abandons)",
            report.migrations, report.abandons
        );
        cells.push(CellTiming {
            scheduler: "hawk-churn".to_string(),
            nodes: CHURN_NODES,
            jobs,
            wall_s,
            events: report.events,
            events_per_sec,
            steals: report.steals,
            speedup_vs_pre_rework: None,
            floor: None,
            vs_floor: None,
            streaming_max_rel_err: streaming_drift,
        });
    }

    // The topology-engine cell: the same workload at 5k nodes on a
    // contended fat tree — every message charged through per-link FIFO
    // queues. Tracks the hawk-net contention path's cost next to the
    // flat-network static cells.
    {
        let trace = Arc::new(trace_for(FAT_TREE_NODES, jobs, opts.seed));
        let scheduler: Arc<dyn Scheduler> = Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION));
        let (wall_s, report) = time_cell_with(
            &trace,
            scheduler,
            FAT_TREE_NODES,
            opts.repeats,
            DynamicsScript::none(),
            SpeedSpec::Uniform,
            Some(TopologySpec::FatTreeContended(FatTreeParams::default())),
        );
        let events_per_sec = report.events as f64 / wall_s.max(1e-9);
        let streaming_drift = streaming_max_rel_err("hawk-fat-tree", &report);
        eprintln!(
            "  hawk-fat-tree x {FAT_TREE_NODES:>6} nodes: {wall_s:8.3} s  \
             ({events_per_sec:.2e} events/s, {} msgs classified)",
            report.network.total_msgs()
        );
        cells.push(CellTiming {
            scheduler: "hawk-fat-tree".to_string(),
            nodes: FAT_TREE_NODES,
            jobs,
            wall_s,
            events: report.events,
            events_per_sec,
            steals: report.steals,
            speedup_vs_pre_rework: None,
            floor: None,
            vs_floor: None,
            streaming_max_rel_err: streaming_drift,
        });
    }

    // The serving-mode cell: the 5k Hawk workload with 60 s live windows,
    // surfacing the windowed metrics (arrival rate, backlog, occupancy,
    // per-window streaming percentiles) next to the timings. Live
    // sampling adds periodic events, so the row carries no frozen floor —
    // it is reported and cross-checked, never floor-compared against the
    // classic cells.
    {
        let trace = Arc::new(trace_for(CHURN_NODES, jobs, opts.seed));
        let cell = Experiment::builder()
            .trace(&trace)
            .scheduler_shared(Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)) as Arc<dyn Scheduler>)
            .nodes(CHURN_NODES)
            .live_window(SimDuration::from_secs(60))
            .build();
        let mut best: Option<(f64, MetricsReport)> = None;
        for _ in 0..opts.repeats {
            let start = Instant::now();
            let report = cell.run();
            let wall = start.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(b, _)| wall < *b) {
                best = Some((wall, report));
            }
        }
        let (wall_s, report) = best.expect("repeats >= 1");
        let events_per_sec = report.events as f64 / wall_s.max(1e-9);
        let streaming_drift = streaming_max_rel_err("hawk-live", &report);
        let live = report.live.as_ref().expect("live_window was set");
        let last = live.windows.last().expect("the run closed no windows");
        eprintln!(
            "  hawk-live x {CHURN_NODES:>6} nodes: {wall_s:8.3} s  \
             ({events_per_sec:.2e} events/s; last 60 s window: \
             {:.1} arrivals/s, backlog {}, occupancy {:.2}, short p90 {})",
            live.arrival_rate(last),
            last.backlog,
            last.occupancy,
            last.short
                .p90
                .map(|p| format!("{p:.2}s"))
                .unwrap_or_else(|| "-".to_string()),
        );
        cells.push(CellTiming {
            scheduler: "hawk-live".to_string(),
            nodes: CHURN_NODES,
            jobs,
            wall_s,
            events: report.events,
            events_per_sec,
            steals: report.steals,
            speedup_vs_pre_rework: None,
            floor: None,
            vs_floor: None,
            streaming_max_rel_err: streaming_drift,
        });
    }

    for c in &mut cells {
        c.floor = floor_events_per_sec(&c.scheduler, c.nodes);
        c.vs_floor = c.floor.map(|f| c.events_per_sec / f);
    }

    let json = render_json(&opts, jobs, comparable, &cells);
    std::fs::write(&opts.out, &json).unwrap_or_else(|e| {
        eprintln!("perf_baseline: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    eprintln!("wrote {}", opts.out);

    if !check_floors(comparable, &cells) {
        std::process::exit(1);
    }
}

/// Enforce the per-cell floors on comparable runs. Returns `false` (and
/// reports every offender) if any cell ran below `FLOOR_FRACTION` of its
/// frozen floor; smoke and custom-parameter runs always pass.
fn check_floors(comparable: bool, cells: &[CellTiming]) -> bool {
    if !comparable {
        return true;
    }
    let mut ok = true;
    for c in cells {
        if let (Some(floor), Some(ratio)) = (c.floor, c.vs_floor) {
            if ratio < FLOOR_FRACTION {
                ok = false;
                eprintln!(
                    "perf_baseline: FLOOR VIOLATION: {}/{} ran at {:.2e} events/s, below \
                     {FLOOR_FRACTION} x the frozen floor {floor:.2e} (ratio {ratio:.3})",
                    c.scheduler, c.nodes, c.events_per_sec
                );
            }
        }
    }
    if !ok {
        eprintln!(
            "perf_baseline: throughput floor violated — investigate the regression (or \
             re-freeze the floors deliberately if the slowdown is an accepted trade)"
        );
    }
    ok
}

fn render_json(opts: &Opts, jobs: usize, comparable: bool, cells: &[CellTiming]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"perf_baseline\",\n");
    out.push_str("  \"schema_version\": 4,\n");
    let _ = writeln!(out, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(out, "  \"seed\": {},", opts.seed);
    let _ = writeln!(out, "  \"best_of\": {},", opts.repeats);
    let _ = writeln!(out, "  \"comparable_to_pre_rework\": {comparable},");
    out.push_str("  \"pre_rework\": {\n");
    out.push_str(
        "    \"engine\": \"BinaryHeap event queue, linear cluster scans (commit d65d7bf)\",\n",
    );
    out.push_str("    \"jobs\": 30000,\n    \"wall_s\": {\n");
    let mut first = true;
    for nodes in NODE_CELLS {
        for scheduler in ["hawk", "sparrow"] {
            if let Some(before) = pre_rework_wall_s(scheduler, nodes) {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(out, "      \"{scheduler}/{nodes}\": {before}");
            }
        }
    }
    out.push_str("\n    }\n  },\n");
    let _ = writeln!(out, "  \"floor_fraction\": {FLOOR_FRACTION},");
    let _ = writeln!(
        out,
        "  \"floors_enforced\": {},",
        comparable && cells.iter().any(|c| c.floor.is_some())
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"scheduler\": \"{}\", \"nodes\": {}, \"jobs\": {}, \"wall_s\": {:.4}, \
             \"events\": {}, \"events_per_sec\": {:.1}, \"steals\": {}, \
             \"speedup_vs_pre_rework\": {}, \"floor_events_per_sec\": {}, \"vs_floor\": {}",
            c.scheduler,
            c.nodes,
            c.jobs,
            c.wall_s,
            c.events,
            c.events_per_sec,
            c.steals,
            c.speedup_vs_pre_rework
                .map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "null".to_string()),
            c.floor
                .map(|f| format!("{f:.1}"))
                .unwrap_or_else(|| "null".to_string()),
            c.vs_floor
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "null".to_string()),
        );
        let _ = write!(
            out,
            ", \"streaming_max_rel_err\": {:.3e}",
            c.streaming_max_rel_err
        );
        out.push('}');
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
