//! The four benchmark workloads. Each is the Google-like trace at about
//! 90 % offered load on its node count, built from the run's seed.

use std::sync::Arc;

use hawk_core::scheduler::{Hawk, Scheduler, Sparrow};
use hawk_core::{Experiment, FatTreeParams, TopologySpec};
use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::google::{GoogleTraceConfig, GOOGLE_SHORT_PARTITION};
use hawk_workload::scenario::{DynamicsScript, SpeedSpec};
use hawk_workload::Trace;

/// Jobs per cell, the same for every workload.
pub const JOBS: usize = 40_000;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hawk, paper defaults, 50,000 nodes: the largest Figure 5 cluster.
    Hawk50k,
    /// Sparrow, 1,000 nodes: cache-resident state, no stealing.
    Sparrow1k,
    /// Hawk, 5,000 nodes, contended fat tree, rolling failures and
    /// two-tier speeds.
    HawkChurnFatTree5k,
    /// Hawk on the deterministic virtual-clock prototype, 1,000 nodes,
    /// 10 distributed scheduler daemons.
    ProtoHawk1k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Hawk50k,
        Workload::Sparrow1k,
        Workload::HawkChurnFatTree5k,
        Workload::ProtoHawk1k,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hawk50k => "hawk-50k",
            Workload::Sparrow1k => "sparrow-1k",
            Workload::HawkChurnFatTree5k => "hawk-churn-fattree-5k",
            Workload::ProtoHawk1k => "proto-hawk-1k",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cluster size.
    pub fn nodes(self) -> usize {
        match self {
            Workload::Hawk50k => 50_000,
            Workload::Sparrow1k | Workload::ProtoHawk1k => 1_000,
            Workload::HawkChurnFatTree5k => 5_000,
        }
    }

    /// True if the workload runs on the prototype backend.
    pub fn is_proto(self) -> bool {
        self == Workload::ProtoHawk1k
    }

    /// The scheduling policy.
    pub fn scheduler(self) -> Arc<dyn Scheduler> {
        match self {
            Workload::Sparrow1k => Arc::new(Sparrow::new()),
            _ => Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
        }
    }

    /// The network topology the cell runs over.
    pub fn topology(self) -> TopologySpec {
        match self {
            Workload::HawkChurnFatTree5k => {
                TopologySpec::FatTreeContended(FatTreeParams::default())
            }
            _ => TopologySpec::paper_default(),
        }
    }

    /// The trace for one cell of `jobs` jobs.
    pub fn trace(self, jobs: usize, seed: u64) -> Trace {
        trace_for(self.nodes(), jobs, seed)
    }

    /// The experiment cell over `trace`, seeded with `seed`, running
    /// `scheduler` (the workload's own policy, or a wrapper around it).
    pub fn cell(self, trace: Arc<Trace>, scheduler: Arc<dyn Scheduler>, seed: u64) -> Experiment {
        let mut builder = Experiment::builder()
            .trace(trace)
            .scheduler_shared(scheduler)
            .nodes(self.nodes())
            .topology(self.topology())
            .seed(seed);
        if self == Workload::HawkChurnFatTree5k {
            builder = builder
                .dynamics(rolling_failures())
                .speeds(SpeedSpec::TwoTier {
                    slow_fraction: 0.2,
                    slow_speed: 0.5,
                });
        }
        builder.build()
    }
}

/// The rolling-failure script of the `perf_baseline` churn cell: one of 50
/// spread-out servers down for 30 s every 60 s, from t = 500 s.
fn rolling_failures() -> DynamicsScript {
    let servers: Vec<u32> = (0..50).map(|i| i * 97).collect();
    DynamicsScript::rolling(
        &servers,
        SimTime::from_secs(500),
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
        5_000,
    )
}

/// `GoogleTraceConfig::with_scale(1)` calibrates ~90 % load at this many
/// nodes.
const ANCHOR_NODES: u64 = 15_000;

/// The Google-like trace at ~90 % offered load for `nodes` servers, scaled
/// as `perf_baseline::trace_for` scales it: sizes dividing the anchor use
/// `with_scale`, larger ones shrink the mean inter-arrival by
/// `anchor / nodes`.
pub fn trace_for(nodes: usize, jobs: usize, seed: u64) -> Trace {
    if nodes as u64 <= ANCHOR_NODES && ANCHOR_NODES.is_multiple_of(nodes as u64) {
        return GoogleTraceConfig::with_scale(ANCHOR_NODES / nodes as u64, jobs).generate(seed);
    }
    let anchor = GoogleTraceConfig::with_scale(1, jobs);
    let ratio = ANCHOR_NODES as f64 / nodes as f64;
    GoogleTraceConfig {
        mean_interarrival: SimDuration::from_secs_f64(
            anchor.mean_interarrival.as_secs_f64() * ratio,
        ),
        ..anchor
    }
    .generate(seed)
}
