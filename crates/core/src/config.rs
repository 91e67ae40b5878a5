//! The policy-independent simulation parameters and the routing
//! vocabulary policies speak.
//!
//! Every evaluation cell in the paper is a `(trace, scheduler, cluster
//! size)` triple plus the classification cutoff. The scheduler is an
//! `Arc<dyn Scheduler>` (see [`crate::scheduler`]); everything else a cell
//! needs lives in [`SimConfig`]. A policy routes each job class with a
//! [`Route`] over a [`Scope`] of the cluster's partition.

use crate::admission::AdmissionPolicy;
use hawk_cluster::Partition;
use hawk_net::TopologySpec;
use hawk_simcore::SimDuration;
use hawk_workload::classify::{Cutoff, MisestimateRange};
use hawk_workload::scenario::{DynamicsScript, SpeedSpec};
use serde::{Deserialize, Serialize};

/// Which servers a placement may target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// The entire cluster.
    Whole,
    /// The general partition only (long tasks in Hawk, §3.4).
    General,
    /// The reserved short partition only (split-cluster short jobs, §4.6).
    ShortReserved,
}

impl Scope {
    /// The contiguous server-id range `(start, len)` this scope covers on
    /// `partition`: the general partition is the id prefix, the reserved
    /// short partition the suffix.
    pub fn range(self, partition: &Partition) -> (u32, usize) {
        match self {
            Scope::Whole => (0, partition.total()),
            Scope::General => (0, partition.general_count()),
            Scope::ShortReserved => (partition.general_count() as u32, partition.short_count()),
        }
    }
}

/// How one job class is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Route {
    /// Placed by the centralized waiting-time scheduler (§3.7) over the
    /// given scope.
    Central(Scope),
    /// Scheduled by per-job distributed schedulers with batch probing and
    /// late binding (§3.5) over the given scope.
    Distributed(Scope),
}

/// Processing cost of the centralized scheduler.
///
/// The paper's §1 motivation — "the very large number of scheduling
/// decisions … can overwhelm centralized schedulers" — is not modeled in
/// its simulator ("the scheduling decisions … do not incur additional
/// costs", §4.1). This extension makes the cost explicit: the central
/// scheduler processes jobs serially, spending `per_job + per_task·t`
/// before a job's placements go out; a backlog delays later jobs. With
/// both costs zero (the default) the behaviour is exactly the paper's.
/// See the `ablation_central_latency` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CentralOverhead {
    /// Fixed per-job decision cost.
    pub per_job: SimDuration,
    /// Additional cost per task placed.
    pub per_task: SimDuration,
}

impl CentralOverhead {
    /// The paper's model: free decisions.
    pub const FREE: CentralOverhead = CentralOverhead {
        per_job: SimDuration::ZERO,
        per_task: SimDuration::ZERO,
    };

    /// Total processing time for a job with `tasks` tasks.
    pub fn cost(&self, tasks: usize) -> SimDuration {
        self.per_job + self.per_task * tasks as u64
    }

    /// True when decisions are free (no serialization modeled).
    pub fn is_free(&self) -> bool {
        self.per_job.is_zero() && self.per_task.is_zero()
    }
}

/// The policy-independent parameters of one simulation run: cluster size,
/// classification/estimation settings, network model and seed — everything
/// an experiment cell needs besides the scheduler and the trace.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// Cluster size in servers.
    pub nodes: usize,
    /// Short/long cutoff on estimated task runtime (§3.3).
    pub cutoff: Cutoff,
    /// Estimation error model (§4.8); `None` for exact estimates.
    pub misestimate: Option<MisestimateRange>,
    /// Network topology every message delay is charged against. The
    /// default, [`TopologySpec::paper_default`], is the paper's flat
    /// constant 0.5 ms network (§4.1); a fat tree (optionally contended)
    /// makes delays placement-aware. Both backends build their runtime
    /// topology from this field.
    pub topology: TopologySpec,
    /// Centralized-scheduler decision cost (default: free, as in the
    /// paper's simulator).
    pub central_overhead: CentralOverhead,
    /// Utilization sampling interval (paper: 100 s).
    pub util_interval: SimDuration,
    /// Scripted cluster dynamics (node down/up events) the driver replays;
    /// empty (the default) is the classic static cluster.
    pub dynamics: DynamicsScript,
    /// Per-server execution-speed profile; [`SpeedSpec::Uniform`] (the
    /// default) is the paper's homogeneous cluster.
    pub speeds: SpeedSpec,
    /// RNG seed for probe placement, stealing and misestimation.
    pub seed: u64,
    /// Serving-mode admission control. `None` (the default) disables the
    /// seam entirely — no plan is computed, no arrival is deferred or
    /// shed, and runs are byte-identical to every pinned golden digest.
    /// `Some` applies the precomputed
    /// [`AdmissionPlan`](crate::AdmissionPlan) in every backend.
    pub admission: Option<AdmissionPolicy>,
    /// Live-metrics window length. `None` (the default) disables windowed
    /// sampling — no extra events, no recorder — keeping runs
    /// byte-identical to the classic digests; `Some(W)` fills
    /// [`MetricsReport::live`](crate::MetricsReport) with the last
    /// [`LIVE_RING`](crate::LIVE_RING) closed `W`-long windows.
    pub live_window: Option<SimDuration>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 1_500,
            cutoff: Cutoff::GOOGLE_DEFAULT,
            misestimate: None,
            topology: TopologySpec::paper_default(),
            central_overhead: CentralOverhead::FREE,
            util_interval: SimDuration::from_secs(100),
            dynamics: DynamicsScript::none(),
            speeds: SpeedSpec::Uniform,
            seed: DEFAULT_SEED,
            admission: None,
            live_window: None,
        }
    }
}

/// Default experiment seed; an arbitrary constant so runs are reproducible.
pub const DEFAULT_SEED: u64 = 0x4a77_2015;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_overhead_cost_model() {
        let free = CentralOverhead::FREE;
        assert!(free.is_free());
        assert_eq!(free.cost(1_000), SimDuration::ZERO);

        let o = CentralOverhead {
            per_job: SimDuration::from_millis(2),
            per_task: SimDuration::from_micros(50),
        };
        assert!(!o.is_free());
        assert_eq!(
            o.cost(100),
            SimDuration::from_millis(2) + SimDuration::from_micros(5_000)
        );
    }
}
