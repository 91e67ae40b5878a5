//! Admission control for serving mode: accept / defer / shed decisions
//! when offered load exceeds usable capacity.
//!
//! The policy is evaluated over tumbling *gate windows*: each window gets a
//! work budget of `usable_nodes × window × headroom` node-seconds (usable
//! nodes read from the scenario's [`DynamicsScript`] at the window's
//! start), and arrivals admit against it in submission order. Short jobs
//! are protected by default — they always admit (the paper's whole point
//! is short-job latency, §3.4), though their work still consumes budget so
//! that a short-heavy overload sheds longs. A long job that does not fit
//! is *deferred* to the start of the next window (retried in FIFO order
//! ahead of that window's fresh arrivals) up to
//! [`AdmissionPolicy::max_defer_windows`] times, then *shed*: it completes
//! instantly at its submission time with zero runtime and is counted in
//! [`AdmissionStats`], so queues stay bounded instead of growing without
//! limit.
//!
//! # Why a precomputed plan
//!
//! The whole plan is a pure function of the trace (arrival times, true
//! classes, task-seconds), the cluster size, the dynamics script, and the
//! policy — no RNG and no runtime feedback. That is deliberate: the sim
//! driver and both proto transports apply the *same*
//! [`AdmissionPlan`], so shed counts agree exactly per seed across
//! backends (asserted by `tests/backend_conformance.rs`), and rescheduling
//! a deferred arrival perturbs no RNG stream (job estimates are drawn at
//! driver construction, before any arrival fires). Capacity is the
//! *nominal* usable-node count — per-server speed profiles are ignored.

use std::collections::VecDeque;

use hawk_simcore::{SimDuration, SimTime};
use hawk_workload::classify::Cutoff;
use hawk_workload::scenario::{DynamicsScript, NodeChange};
use hawk_workload::{JobId, Trace};
use serde::Serialize;

use crate::metrics::AdmissionStats;

/// Configuration of the admission-control seam. `None` on
/// [`SimConfig::admission`](crate::SimConfig) (the default) disables
/// admission entirely — no plan is computed and runs are byte-identical
/// to the classic digests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AdmissionPolicy {
    /// Tumbling gate-window length over which offered work is compared to
    /// capacity.
    pub window: SimDuration,
    /// Fraction of nominal capacity (`usable_nodes × window`) admissible
    /// per window. `1.0` admits up to exactly full utilization.
    pub headroom: f64,
    /// How many window boundaries a non-fitting job may wait before it is
    /// shed. `0` sheds immediately on overflow.
    pub max_defer_windows: u32,
    /// When true (the default), short jobs always admit — overload is
    /// absorbed by deferring and shedding longs only.
    pub protect_short: bool,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            window: SimDuration::from_secs(10),
            headroom: 1.0,
            max_defer_windows: 4,
            protect_short: true,
        }
    }
}

/// The planned fate of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admitted at its natural submission time.
    Admit,
    /// Admitted late: the arrival is replayed at `until` (always strictly
    /// after the job's submission).
    Defer {
        /// Start of the gate window that finally had budget.
        until: SimTime,
    },
    /// Rejected: the job completes instantly at submission with zero
    /// runtime and never schedules.
    Shed,
}

/// Per-job admission decisions for one run, precomputed from the trace —
/// see the module docs for why this is a pure upfront plan rather than a
/// runtime feedback loop.
#[derive(Debug, Clone)]
pub struct AdmissionPlan {
    decisions: Vec<AdmissionDecision>,
    stats: AdmissionStats,
}

impl AdmissionPlan {
    /// Computes the plan for `trace` on a cluster of `nodes` servers whose
    /// usable count follows `dynamics`. Classes are *true* classes
    /// (`cutoff` over exact mean task durations), so every backend — with
    /// or without misestimation — derives the identical plan.
    pub fn compute(
        trace: &Trace,
        nodes: usize,
        cutoff: Cutoff,
        dynamics: &DynamicsScript,
        policy: AdmissionPolicy,
    ) -> AdmissionPlan {
        let window_micros = policy.window.as_micros().max(1);
        let mut decisions = vec![AdmissionDecision::Admit; trace.len()];

        // Usable-capacity trajectory, mirroring the cluster's down-bit
        // lifecycle (duplicate downs/ups are no-ops).
        let mut events: Vec<(SimTime, NodeChange)> =
            dynamics.events().iter().map(|e| (e.at, e.change)).collect();
        events.sort_by_key(|e| e.0);
        let mut next_event = 0usize;
        let mut down = vec![false; nodes];
        let mut usable = nodes as u64;
        let mut apply_until = |limit_micros: u64, down: &mut [bool], usable: &mut u64| {
            while next_event < events.len() && events[next_event].0.as_micros() <= limit_micros {
                match events[next_event].1 {
                    NodeChange::Down(s) => {
                        if let Some(bit) = down.get_mut(s as usize) {
                            if !*bit {
                                *bit = true;
                                *usable -= 1;
                            }
                        }
                    }
                    NodeChange::Up(s) => {
                        if let Some(bit) = down.get_mut(s as usize) {
                            if *bit {
                                *bit = false;
                                *usable += 1;
                            }
                        }
                    }
                }
                next_event += 1;
            }
        };
        let budget_of =
            |usable: u64| usable as f64 * (window_micros as f64 / 1e6) * policy.headroom;

        apply_until(0, &mut down, &mut usable);
        let mut window = 0u64;
        let mut budget = budget_of(usable);
        let mut admitted_work = 0.0f64;
        // Jobs waiting for a later window: (job, boundaries waited so far).
        let mut deferred: VecDeque<(JobId, u32)> = VecDeque::new();

        // Advances to the next gate window: refresh capacity and budget,
        // then retry the deferral queue in FIFO order ahead of the new
        // window's fresh arrivals.
        let mut open_next_window =
            |window: &mut u64,
             budget: &mut f64,
             admitted_work: &mut f64,
             deferred: &mut VecDeque<(JobId, u32)>,
             down: &mut [bool],
             usable: &mut u64,
             decisions: &mut [AdmissionDecision]| {
                *window += 1;
                let start = *window * window_micros;
                apply_until(start, down, usable);
                *budget = budget_of(*usable);
                *admitted_work = 0.0;
                for _ in 0..deferred.len() {
                    let (id, waited) = deferred.pop_front().expect("len-bounded loop");
                    let work = trace.job(id).task_seconds().as_secs_f64();
                    if *admitted_work + work <= *budget {
                        decisions[id.index()] = AdmissionDecision::Defer {
                            until: SimTime::from_micros(start),
                        };
                        *admitted_work += work;
                    } else if waited >= policy.max_defer_windows {
                        decisions[id.index()] = AdmissionDecision::Shed;
                    } else {
                        deferred.push_back((id, waited + 1));
                    }
                }
            };

        for job in trace.jobs() {
            let target = job.submission.as_micros() / window_micros;
            while window < target {
                open_next_window(
                    &mut window,
                    &mut budget,
                    &mut admitted_work,
                    &mut deferred,
                    &mut down,
                    &mut usable,
                    &mut decisions,
                );
            }
            let class = cutoff.classify(job.mean_task_duration());
            let work = job.task_seconds().as_secs_f64();
            if admitted_work + work <= budget || (policy.protect_short && class.is_short()) {
                admitted_work += work;
            } else if policy.max_defer_windows == 0 {
                decisions[job.id.index()] = AdmissionDecision::Shed;
            } else {
                deferred.push_back((job.id, 1));
            }
        }
        // Resolve stragglers past the last arrival; each round either
        // admits a job or advances its wait counter toward the shed
        // bound, so this terminates.
        while !deferred.is_empty() {
            open_next_window(
                &mut window,
                &mut budget,
                &mut admitted_work,
                &mut deferred,
                &mut down,
                &mut usable,
                &mut decisions,
            );
        }

        let mut stats = AdmissionStats::default();
        for job in trace.jobs() {
            let short = cutoff.classify(job.mean_task_duration()).is_short();
            match decisions[job.id.index()] {
                AdmissionDecision::Admit => {}
                AdmissionDecision::Defer { .. } => {
                    if short {
                        stats.deferrals_short += 1;
                    } else {
                        stats.deferrals_long += 1;
                    }
                }
                AdmissionDecision::Shed => {
                    if short {
                        stats.sheds_short += 1;
                    } else {
                        stats.sheds_long += 1;
                    }
                }
            }
        }
        AdmissionPlan { decisions, stats }
    }

    /// The planned fate of `job`.
    pub fn decision(&self, job: JobId) -> AdmissionDecision {
        self.decisions[job.index()]
    }

    /// Outcome counters, derived once from the plan (a job deferred
    /// across several windows still counts once).
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_workload::Job;

    const CUTOFF: Cutoff = Cutoff(SimDuration::from_secs(100));

    fn job(id: u32, at_secs: u64, tasks: &[u64]) -> Job {
        Job {
            id: JobId(id),
            submission: SimTime::from_secs(at_secs),
            tasks: tasks.iter().map(|&s| SimDuration::from_secs(s)).collect(),
            generated_class: None,
        }
    }

    fn policy(window_secs: u64, max_defer: u32) -> AdmissionPolicy {
        AdmissionPolicy {
            window: SimDuration::from_secs(window_secs),
            headroom: 1.0,
            max_defer_windows: max_defer,
            protect_short: true,
        }
    }

    fn plan(trace: &Trace, nodes: usize, policy: AdmissionPolicy) -> AdmissionPlan {
        AdmissionPlan::compute(trace, nodes, CUTOFF, &DynamicsScript::none(), policy)
    }

    #[test]
    fn underloaded_trace_admits_everything() {
        let trace = Trace::new(vec![job(0, 0, &[1]), job(1, 1, &[2]), job(2, 2, &[3])]).unwrap();
        let p = plan(&trace, 10, policy(10, 4));
        for id in 0..3 {
            assert_eq!(p.decision(JobId(id)), AdmissionDecision::Admit);
        }
        assert_eq!(p.stats(), AdmissionStats::default());
    }

    #[test]
    fn overflowing_long_defers_to_next_window() {
        // 1 node × 10 s window = 10 node-seconds of budget. The first
        // long fills it; the second must wait for the next window.
        let trace = Trace::new(vec![job(0, 0, &[1000]), job(1, 1, &[1000])]).unwrap();
        let p = plan(&trace, 100, policy(10, 4));
        assert_eq!(p.decision(JobId(0)), AdmissionDecision::Admit);
        assert_eq!(
            p.decision(JobId(1)),
            AdmissionDecision::Defer {
                until: SimTime::from_secs(10)
            }
        );
        assert_eq!(p.stats().deferrals_long, 1);
        assert_eq!(p.stats().sheds(), 0);
    }

    #[test]
    fn exhausted_deferrals_shed() {
        // Budget 10 node-s per window; job 0 can never fit alongside the
        // repeating arrivals, so after max_defer_windows it sheds.
        let jobs: Vec<Job> = (0..10).map(|i| job(i, i as u64, &[2000])).collect();
        let trace = Trace::new(jobs).unwrap();
        let p = plan(&trace, 200, policy(10, 2));
        let stats = p.stats();
        assert!(stats.sheds_long > 0, "expected sheds, got {stats:?}");
        assert_eq!(stats.sheds_short, 0);
        // Every decision resolved (no job left provisional).
        for j in trace.jobs() {
            if let AdmissionDecision::Defer { until } = p.decision(j.id) {
                assert!(until > j.submission);
            }
        }
    }

    #[test]
    fn shorts_are_protected_even_over_budget() {
        // Shorts (10 s tasks, under the 100 s cutoff) overflow the budget
        // but still admit; the long pays instead.
        let mut jobs: Vec<Job> = (0..30).map(|i| job(i, 0, &[10, 10, 10, 10])).collect();
        jobs.push(job(30, 0, &[5000]));
        let trace = Trace::new(jobs).unwrap();
        let p = plan(&trace, 50, policy(10, 0));
        for id in 0..30 {
            assert_eq!(p.decision(JobId(id)), AdmissionDecision::Admit);
        }
        assert_eq!(p.decision(JobId(30)), AdmissionDecision::Shed);
        assert_eq!(p.stats().sheds_short, 0);
        assert_eq!(p.stats().sheds_long, 1);
    }

    #[test]
    fn dynamics_shrink_the_budget() {
        // Two identical longs in consecutive windows; after the node-down
        // event halves capacity, the second no longer fits and sheds.
        let trace = Trace::new(vec![job(0, 0, &[19]), job(1, 10, &[19])]).unwrap();
        let dynamics = DynamicsScript::none().down_at(SimTime::from_secs(5), 1);
        let p = AdmissionPlan::compute(
            &trace,
            2,
            Cutoff(SimDuration::from_secs(1)),
            &dynamics,
            policy(10, 0),
        );
        assert_eq!(p.decision(JobId(0)), AdmissionDecision::Admit);
        assert_eq!(p.decision(JobId(1)), AdmissionDecision::Shed);
    }

    #[test]
    fn plan_is_deterministic() {
        let jobs: Vec<Job> = (0..50).map(|i| job(i, i as u64 / 3, &[200, 50])).collect();
        let trace = Trace::new(jobs).unwrap();
        let a = plan(&trace, 20, policy(5, 2));
        let b = plan(&trace, 20, policy(5, 2));
        for j in trace.jobs() {
            assert_eq!(a.decision(j.id), b.decision(j.id));
        }
        assert_eq!(a.stats(), b.stats());
    }
}
