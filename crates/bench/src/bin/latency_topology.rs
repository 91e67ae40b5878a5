//! Topology-latency ablation: the paper's §4.8 network-latency study on a
//! congesting fat tree.
//!
//! The paper varies the flat message delay and observes that Hawk's
//! short-job tail degrades gracefully while remaining ahead of Sparrow
//! (§4.8, "impact of network latency"). This bench re-runs that ablation
//! on the `hawk-net` contended fat tree instead of the flat model: the
//! cluster keeps its default rack/pod geometry and per-link transmission
//! queues, and the sweep grows the **cross-pod propagation cost** — the
//! long-haul hops a placement-blind prober cannot avoid — from the flat
//! 0.5 ms up to the same latency : task-duration ratio as the paper's
//! worst studied point (see `CROSS_POD_US`).
//!
//! Reported per sweep point, for Hawk and Sparrow on the same trace:
//! short-job p50/p90, the Hawk/Sparrow p90 ratio, Hawk's rack-local steal
//! hit rate, and the per-link-class message counts from
//! `MetricsReport::network` (how much of the traffic actually crossed
//! pods).
//!
//! Usage: `latency_topology [--smoke | --quick | --full-trace] [--jobs N]
//! [--seed S]` — `--smoke` is the CI spelling of `--quick`.

use hawk_bench::{
    base, fmt, fmt4, google_sensitivity_nodes, google_setup, run_cells, tsv_header, tsv_row,
    HarnessOpts, RunMode,
};
use hawk_core::scheduler::{Hawk, Sparrow};
use hawk_core::{FatTreeParams, TopologySpec};
use hawk_simcore::SimDuration;
use hawk_workload::google::GOOGLE_SHORT_PARTITION;
use hawk_workload::JobClass;

/// Cross-pod propagation costs to sweep, in microseconds. The first point
/// matches the paper's flat 0.5 ms delay. The synthetic Google-like trace
/// has ~150 s median short tasks (real deployments: sub-second), so the
/// tail scales the delay proportionally — what the ablation studies is the
/// latency : task-duration ratio, and 5 s of cross-pod cost against 150 s
/// tasks corresponds to ~10 ms against sub-second tasks, the worst case
/// the paper considers.
const CROSS_POD_US: [u64; 5] = [500, 100_000, 1_000_000, 2_500_000, 5_000_000];

fn parse() -> HarnessOpts {
    let mut opts = HarnessOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `--smoke` is what CI passes; keep the shared `--quick` too.
            "--smoke" | "--quick" => opts.mode = RunMode::Quick,
            "--full-trace" | "--paper-scale" => opts.mode = RunMode::FullTrace,
            "--jobs" => opts.jobs = args.next().and_then(|v| v.parse().ok()).or_else(|| usage()),
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.seed = s,
                None => usage(),
            },
            _ => usage(),
        }
    }
    opts
}

fn usage() -> ! {
    eprintln!("latency_topology: §4.8 network-latency ablation on a contended fat tree");
    eprintln!("usage: latency_topology [--smoke | --quick | --full-trace] [--jobs N] [--seed S]");
    std::process::exit(2);
}

fn main() {
    let opts = parse();
    let (trace, _) = google_setup(&opts);
    let nodes = google_sensitivity_nodes(&opts);

    let mut cells = Vec::new();
    for us in CROSS_POD_US {
        let params = FatTreeParams::default().cross_pod(SimDuration::from_micros(us));
        let env = base(&opts)
            .nodes(nodes)
            .trace(&trace)
            .topology(TopologySpec::FatTreeContended(params));
        cells.push(
            env.clone()
                .scheduler(Hawk::new(GOOGLE_SHORT_PARTITION))
                .build(),
        );
        cells.push(env.scheduler(Sparrow::new()).build());
    }
    eprintln!(
        "latency_topology: running {} contended-fat-tree cells at {nodes} nodes in parallel...",
        cells.len()
    );
    let results = run_cells(cells);

    tsv_header(&[
        "cross_pod_ms",
        "hawk_p50_short_s",
        "hawk_p90_short_s",
        "sparrow_p50_short_s",
        "sparrow_p90_short_s",
        "hawk_over_sparrow_p90_short",
        "hawk_rack_local_steal_rate",
        "hawk_rack_local_msgs",
        "hawk_cross_rack_msgs",
        "hawk_cross_pod_msgs",
    ]);
    assert_eq!(results.cells.len(), 2 * CROSS_POD_US.len());
    let mut hawk_p90s = Vec::new();
    for (i, us) in CROSS_POD_US.iter().enumerate() {
        let hawk = &results.cells[2 * i].report;
        let sparrow = &results.cells[2 * i + 1].report;
        // Guard the index pairing against any future cell-order change.
        assert_eq!(hawk.scheduler, "hawk");
        assert_eq!(sparrow.scheduler, "sparrow");
        let hawk_p90 = hawk.runtime_percentile(JobClass::Short, 90.0);
        let sparrow_p90 = sparrow.runtime_percentile(JobClass::Short, 90.0);
        if let Some(p) = hawk_p90 {
            hawk_p90s.push(p);
        }
        let ratio = match (hawk_p90, sparrow_p90) {
            (Some(h), Some(s)) if s > 0.0 => Some(h / s),
            _ => None,
        };
        tsv_row(&[
            fmt(*us as f64 / 1_000.0),
            fmt4(hawk.runtime_percentile(JobClass::Short, 50.0)),
            fmt4(hawk_p90),
            fmt4(sparrow.runtime_percentile(JobClass::Short, 50.0)),
            fmt4(sparrow_p90),
            fmt4(ratio),
            fmt4(hawk.network.rack_local_steal_rate()),
            fmt(hawk.network.rack_local_msgs),
            fmt(hawk.network.cross_rack_msgs),
            fmt(hawk.network.cross_pod_msgs),
        ]);
    }

    // Commentary: the §4.8 claim is graceful degradation, not immunity —
    // the tail should grow with the cross-pod cost without exploding past
    // the worst-case sum of the added hops.
    if let (Some(first), Some(last)) = (hawk_p90s.first(), hawk_p90s.last()) {
        eprintln!(
            "latency_topology: Hawk short p90 {first:.2}s at {}ms cross-pod → {last:.2}s at {}ms",
            CROSS_POD_US[0] as f64 / 1_000.0,
            CROSS_POD_US[CROSS_POD_US.len() - 1] as f64 / 1_000.0,
        );
    }

    eprintln!("latency_topology: done (absolute runtimes in seconds)");
}
