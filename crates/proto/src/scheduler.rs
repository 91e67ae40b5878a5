//! Distributed and centralized scheduler daemons.
//!
//! Both daemons delegate every *policy* decision to the shared
//! abstractions from `hawk-core`:
//!
//! * A [`DistScheduler`] owns the jobs submitted to it (each job
//!   conceptually has its own scheduler, §3.5) and places probes by
//!   calling [`Scheduler::probe_targets_into`] over a [`PlacementView`] of
//!   its **shadow cluster** — a membership-only
//!   [`hawk_cluster::Cluster`] mirror kept current by scenario dynamics
//!   notifications. On a static cluster the shadow is the identity; under
//!   churn it is exactly the live-server view the simulator's driver
//!   exposes, so failed servers are never probed. (Queue depths in the
//!   shadow are zero: a real distributed scheduler has no global queue
//!   state — load-aware policies see a uniform view, which is the honest
//!   distributed-systems answer.)
//! * The [`CentralDaemon`] *is* the simulator's §3.7 waiting-time
//!   scheduler: it wraps [`hawk_core::CentralScheduler`] — the identical
//!   placement, completion, failure-penalty and migration bookkeeping —
//!   and adds only per-job completion counting and message plumbing.
//!
//! # The hardened protocol
//!
//! With a [`TimeoutSpec`] (the fault-injecting router's companion), both
//! daemons track per-task launch state keyed by `(job, task, attempt)`
//! and run a **per-job timer chain**: a self-timer armed at submission
//! and re-armed with exponential backoff (capped at 8× the base) until
//! the job completes. Each fire re-probes a fresh server while unlaunched
//! tasks remain (counted as `retries`) and relaunches handed-out tasks
//! presumed lost — older than [`TimeoutSpec::launch_deadline`] — under a
//! bumped attempt number (counted as `relaunched`). Completions dedup by
//! task index, first report wins, so duplicated messages and
//! doubly-executed relaunches are harmless. Without a `TimeoutSpec` the
//! daemons run the exact historical code path: no timers, no clock reads,
//! no extra state.

use std::collections::HashMap;
use std::sync::Arc;

use hawk_cluster::{Cluster, QueueEntry, ServerId, TaskSpec};
use hawk_core::{CentralScheduler, PlacementView, Route, Scheduler, Scope};
use hawk_simcore::{SimDuration, SimRng, SimTime};
use hawk_workload::scenario::NodeChange;
use hawk_workload::{JobClass, JobId};

use crate::fault::TimeoutSpec;
use crate::msg::{CentralMsg, DistMsg, Net, WorkerMsg};

impl TimeoutSpec {
    /// How long a handed-out task may stay unconfirmed before the per-job
    /// chain presumes it lost: four times its duration (covers slow
    /// servers, queue noise and delay spikes) plus the chain base,
    /// doubled per prior attempt so spurious relaunches of merely-slow
    /// tasks decay geometrically.
    pub(crate) fn launch_deadline(&self, duration: SimDuration, attempt: u32) -> SimDuration {
        let base = duration
            .as_micros()
            .saturating_mul(4)
            .saturating_add(self.probe.as_micros());
        SimDuration::from_micros(base.saturating_mul(1u64 << attempt.min(5)))
    }

    /// The chain's next interval: exponential backoff capped at 8× base.
    pub(crate) fn next_interval(&self, current: SimDuration) -> SimDuration {
        let cap = self.probe.as_micros().saturating_mul(8);
        SimDuration::from_micros(current.as_micros().saturating_mul(2).min(cap))
    }
}

/// Hardened per-task launch state at a distributed scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    /// Not held by any worker (never handed out, or relaunch-pending).
    Unlaunched,
    /// Handed out via a bind reply at `since`.
    Outstanding {
        /// Virtual time the task was handed out.
        since: SimTime,
    },
    /// First completion recorded; later reports are duplicates.
    Done,
}

/// Hardened extension of a [`DistJob`]: per-task state, attempt counters
/// and the chain's current backoff interval.
struct HardJob {
    state: Vec<TaskState>,
    attempts: Vec<u32>,
    interval: SimDuration,
}

/// Per-job late-binding state held by a distributed scheduler.
struct DistJob {
    tasks: Vec<SimDuration>,
    estimate: SimDuration,
    class: JobClass,
    next_task: usize,
    remaining: usize,
    /// `Some` iff the hardened protocol is on.
    hard: Option<HardJob>,
}

impl DistJob {
    /// True while the job still has a task no worker holds — the
    /// condition under which a displaced probe is worth replacing.
    fn has_unlaunched(&self) -> bool {
        match &self.hard {
            Some(hard) => hard.state.contains(&TaskState::Unlaunched),
            None => self.next_task < self.tasks.len(),
        }
    }
}

/// Counters a scheduler daemon folds into the
/// [`ProtoReport`](crate::ProtoReport).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SchedStats {
    pub migrations: u64,
    pub abandons: u64,
    pub handled: u64,
    /// Hardened protocol: timer-driven fresh probes sent.
    pub retries: u64,
    /// Hardened protocol: chain fires that found overdue handed-out work.
    pub timeouts_fired: u64,
    /// Hardened protocol: tasks relaunched under a bumped attempt.
    pub relaunched: u64,
}

/// A distributed scheduler daemon: Sparrow batch probing with late
/// binding (§3.5), probe placement via the shared [`Scheduler`] trait.
pub(crate) struct DistScheduler {
    /// This daemon's index — the address its self-timers route back to.
    index: usize,
    scheduler: Arc<dyn Scheduler>,
    /// Membership-only mirror of the cluster (see module docs).
    shadow: Cluster,
    jobs: HashMap<JobId, DistJob>,
    rng: SimRng,
    timeouts: Option<TimeoutSpec>,
    probe_buf: Vec<ServerId>,
    drain_scratch: Vec<QueueEntry>,
    pub(crate) stats: SchedStats,
}

impl DistScheduler {
    pub(crate) fn new(
        index: usize,
        scheduler: Arc<dyn Scheduler>,
        workers: usize,
        rng: SimRng,
        timeouts: Option<TimeoutSpec>,
    ) -> Self {
        let shadow = Cluster::new(workers, scheduler.short_partition_fraction());
        DistScheduler {
            index,
            scheduler,
            shadow,
            jobs: HashMap::new(),
            rng,
            timeouts,
            probe_buf: Vec::new(),
            drain_scratch: Vec::new(),
            stats: SchedStats::default(),
        }
    }

    /// The scope `class` probes over under this policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy routes `class` centrally — such jobs are never
    /// submitted to a distributed scheduler.
    fn probe_scope(&self, class: JobClass) -> Scope {
        match self.scheduler.route(class) {
            Route::Distributed(scope) => scope,
            Route::Central(_) => unreachable!("probes imply a distributed route"),
        }
    }

    /// Sends one fresh zero-bounce probe for `job` to a random live server
    /// of its scope.
    fn send_fresh_probe(&mut self, job: JobId, class: JobClass, net: &mut impl Net) {
        let view = PlacementView::new(&self.shadow, self.probe_scope(class));
        let target = view.random_server(&mut self.rng);
        net.send_worker(
            target.index(),
            WorkerMsg::Probe {
                job,
                class,
                bounces: 0,
            },
        );
    }

    /// Handles one message; returns `true` on shutdown.
    pub(crate) fn handle(&mut self, msg: DistMsg, net: &mut impl Net) -> bool {
        self.stats.handled += 1;
        match msg {
            DistMsg::Submit {
                job,
                tasks,
                estimate,
                class,
            } => self.submit(job, tasks, estimate, class, net),
            DistMsg::TaskRequest { job, worker } => self.bind(job, worker, net),
            DistMsg::TaskDone { job, task } => self.complete(job, task, net),
            DistMsg::ReProbe { job, class } => self.reprobe(job, class, net),
            DistMsg::Bounce {
                job,
                class,
                bounces,
            } => {
                // Forward the bounced probe to a fresh random live server
                // of its scope, preserving the hop count.
                let view = PlacementView::new(&self.shadow, self.probe_scope(class));
                let target = view.random_server(&mut self.rng);
                net.send_worker(
                    target.index(),
                    WorkerMsg::Probe {
                        job,
                        class,
                        bounces,
                    },
                );
            }
            DistMsg::JobTimeout { job } => self.on_job_timeout(job, net),
            DistMsg::Node(change) => self.on_node(change),
            DistMsg::Shutdown => return true,
        }
        false
    }

    fn submit(
        &mut self,
        job: JobId,
        tasks: Vec<SimDuration>,
        estimate: SimDuration,
        class: JobClass,
        net: &mut impl Net,
    ) {
        let t = tasks.len();
        let hard = self.timeouts.map(|to| HardJob {
            state: vec![TaskState::Unlaunched; t],
            attempts: vec![0; t],
            interval: to.probe,
        });
        self.jobs.insert(
            job,
            DistJob {
                tasks,
                estimate,
                class,
                next_task: 0,
                remaining: t,
                hard,
            },
        );
        // Probe placement is the policy's own hook — the same call the
        // simulation driver makes on a job arrival.
        let view = PlacementView::new(&self.shadow, self.probe_scope(class));
        let mut probes = std::mem::take(&mut self.probe_buf);
        self.scheduler
            .probe_targets_into(&view, t, &mut self.rng, &mut probes);
        for &server in &probes {
            net.send_worker(
                server.index(),
                WorkerMsg::Probe {
                    job,
                    class,
                    bounces: 0,
                },
            );
        }
        self.probe_buf = probes;
        if let Some(to) = self.timeouts {
            net.self_timer_dist(self.index, to.probe, DistMsg::JobTimeout { job });
        }
    }

    fn bind(&mut self, job: JobId, worker: usize, net: &mut impl Net) {
        let reply = match self.jobs.get_mut(&job) {
            Some(state) if state.remaining > 0 => {
                let (estimate, class) = (state.estimate, state.class);
                match &mut state.hard {
                    None if state.next_task < state.tasks.len() => {
                        let idx = state.next_task;
                        state.next_task += 1;
                        Some(TaskSpec {
                            job,
                            duration: state.tasks[idx],
                            estimate,
                            class,
                            task: idx as u32,
                            attempt: 0,
                        })
                    }
                    // Hardened: hand out the first task no worker holds —
                    // relaunched tasks re-enter here under a bumped
                    // attempt.
                    Some(hard) => {
                        match hard.state.iter().position(|s| *s == TaskState::Unlaunched) {
                            Some(idx) => {
                                hard.state[idx] = TaskState::Outstanding { since: net.now() };
                                Some(TaskSpec {
                                    job,
                                    duration: state.tasks[idx],
                                    estimate,
                                    class,
                                    task: idx as u32,
                                    attempt: hard.attempts[idx],
                                })
                            }
                            None => None,
                        }
                    }
                    // All tasks given out: cancel (§3.5).
                    None => None,
                }
            }
            // Unknown job, or known and fully complete: cancel.
            _ => None,
        };
        net.send_worker(worker, WorkerMsg::BindReply { job, task: reply });
    }

    fn complete(&mut self, job: JobId, task: u32, net: &mut impl Net) {
        let state = self.jobs.get_mut(&job).expect("completion for known job");
        if let Some(hard) = &mut state.hard {
            // Idempotent completion: dedup by task index, first report
            // wins — network dups and doubly-executed relaunches fall
            // through silently.
            if state.remaining == 0 || hard.state[task as usize] == TaskState::Done {
                return;
            }
            hard.state[task as usize] = TaskState::Done;
            state.remaining -= 1;
            if state.remaining == 0 {
                net.job_done(job);
            }
            return;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            net.job_done(job);
            // Keep the entry so late probes still get cancels; mark
            // drained.
            state.next_task = state.tasks.len();
        }
    }

    /// A displaced probe: re-probe a random live server if the job still
    /// has unlaunched tasks (it may be needed for liveness), abandon it
    /// otherwise — a bind would only have produced a cancel. Mirrors the
    /// driver's `relocate`.
    fn reprobe(&mut self, job: JobId, class: JobClass, net: &mut impl Net) {
        let alive = self.jobs.get(&job).is_some_and(DistJob::has_unlaunched);
        if !alive {
            self.stats.abandons += 1;
            return;
        }
        self.stats.migrations += 1;
        self.send_fresh_probe(job, class, net);
    }

    /// The per-job chain fires: relaunch overdue handed-out tasks,
    /// re-probe while unlaunched work remains, and re-arm with backoff —
    /// the chain ends only with the job.
    fn on_job_timeout(&mut self, job: JobId, net: &mut impl Net) {
        let Some(to) = self.timeouts else { return };
        let now = net.now();
        let Some(state) = self.jobs.get_mut(&job) else {
            return;
        };
        if state.remaining == 0 {
            return;
        }
        let hard = state.hard.as_mut().expect("hardened job state");
        let mut relaunched = 0u64;
        for (i, s) in hard.state.iter_mut().enumerate() {
            if let TaskState::Outstanding { since } = *s {
                if now - since >= to.launch_deadline(state.tasks[i], hard.attempts[i]) {
                    // Presumed lost (the bind reply, the worker, or its
                    // completion report): back in play, next attempt.
                    *s = TaskState::Unlaunched;
                    hard.attempts[i] += 1;
                    relaunched += 1;
                }
            }
        }
        let interval = hard.interval;
        hard.interval = to.next_interval(interval);
        let unlaunched = hard.state.contains(&TaskState::Unlaunched);
        let class = state.class;
        self.stats.relaunched += relaunched;
        if relaunched > 0 {
            self.stats.timeouts_fired += 1;
        }
        if unlaunched {
            // A reservation may have died with a dropped probe or a
            // relaunch above: keep one fresh reservation trickling in
            // until every task is handed out.
            self.stats.retries += 1;
            self.send_fresh_probe(job, class, net);
        }
        net.self_timer_dist(self.index, interval, DistMsg::JobTimeout { job });
    }

    fn on_node(&mut self, change: NodeChange) {
        match change {
            NodeChange::Down(server) => {
                // The shadow holds no queue state; the drain is empty.
                self.shadow
                    .fail_server(ServerId(server), &mut self.drain_scratch);
                debug_assert!(self.drain_scratch.is_empty());
            }
            NodeChange::Up(server) => {
                self.shadow.revive_server(ServerId(server));
            }
        }
    }
}

/// Hardened per-task state of a centrally-placed task.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CentralTask {
    /// Assigned to `worker` at `since` under `attempt`.
    Outstanding {
        worker: usize,
        since: SimTime,
        attempt: u32,
        /// The §3.7 estimated queue wait of `worker` when the task was
        /// placed there. A centrally-placed task legitimately waits this
        /// long before it even starts, so the relaunch deadline starts
        /// counting *after* it — otherwise a backlogged (but healthy)
        /// cell mass-relaunches queued work and amplifies its own load.
        expected: SimDuration,
    },
    /// First completion recorded.
    Done,
}

/// Per-job state at the centralized daemon. Fault-free runs use only
/// `remaining`; the rest powers the hardened relaunch chain.
struct CentralJob {
    remaining: usize,
    estimate: SimDuration,
    class: JobClass,
    durations: Vec<SimDuration>,
    /// Empty unless hardened.
    state: Vec<CentralTask>,
    interval: SimDuration,
}

/// The centralized scheduler daemon: the shared §3.7 waiting-time
/// algorithm ([`hawk_core::CentralScheduler`]) behind a mailbox.
pub(crate) struct CentralDaemon {
    inner: CentralScheduler,
    jobs: HashMap<JobId, CentralJob>,
    timeouts: Option<TimeoutSpec>,
    place_buf: Vec<ServerId>,
    pub(crate) stats: SchedStats,
}

impl CentralDaemon {
    pub(crate) fn new(scope: usize, timeouts: Option<TimeoutSpec>) -> Self {
        CentralDaemon {
            inner: CentralScheduler::new(scope),
            jobs: HashMap::new(),
            timeouts,
            place_buf: Vec::new(),
            stats: SchedStats::default(),
        }
    }

    /// Handles one message; returns `true` on shutdown.
    pub(crate) fn handle(&mut self, msg: CentralMsg, net: &mut impl Net) -> bool {
        self.stats.handled += 1;
        match msg {
            CentralMsg::Submit {
                job,
                tasks,
                estimate,
                class,
            } => self.submit(job, tasks, estimate, class, net),
            CentralMsg::TaskDone {
                job,
                worker,
                estimate,
                task,
            } => self.complete(job, worker, estimate, task, net),
            CentralMsg::Relocate { from, spec } => self.relocate(from, spec, net),
            CentralMsg::JobTimeout { job } => self.on_job_timeout(job, net),
            CentralMsg::Node(change) => match change {
                NodeChange::Down(server) if (server as usize) < self.inner.scope() => {
                    self.inner.fail(ServerId(server));
                }
                NodeChange::Up(server) if (server as usize) < self.inner.scope() => {
                    self.inner.revive(ServerId(server));
                }
                _ => {}
            },
            CentralMsg::Shutdown => return true,
        }
        false
    }

    fn submit(
        &mut self,
        job: JobId,
        tasks: Vec<SimDuration>,
        estimate: SimDuration,
        class: JobClass,
        net: &mut impl Net,
    ) {
        let t = tasks.len();
        let mut placement = std::mem::take(&mut self.place_buf);
        self.inner.assign_job_into(t, estimate, &mut placement);
        let state: Vec<CentralTask> = if self.timeouts.is_some() {
            let now = net.now();
            placement
                .iter()
                .map(|s| CentralTask::Outstanding {
                    worker: s.index(),
                    since: now,
                    attempt: 0,
                    // Read after the whole job charged: conservative (it
                    // includes sibling tasks queued ahead on the same
                    // worker).
                    expected: self.inner.estimated_wait(*s),
                })
                .collect()
        } else {
            Vec::new()
        };
        for (i, &server) in placement.iter().enumerate() {
            net.send_worker(
                server.index(),
                WorkerMsg::Assign(TaskSpec {
                    job,
                    duration: tasks[i],
                    estimate,
                    class,
                    task: i as u32,
                    attempt: 0,
                }),
            );
        }
        self.place_buf = placement;
        let interval = self
            .timeouts
            .map(|to| to.probe)
            .unwrap_or(SimDuration::ZERO);
        self.jobs.insert(
            job,
            CentralJob {
                remaining: t,
                estimate,
                class,
                durations: tasks,
                state,
                interval,
            },
        );
        if let Some(to) = self.timeouts {
            net.self_timer_central(to.probe, CentralMsg::JobTimeout { job });
        }
    }

    fn complete(
        &mut self,
        job: JobId,
        worker: usize,
        estimate: SimDuration,
        task: u32,
        net: &mut impl Net,
    ) {
        if self.timeouts.is_some() {
            // Idempotent: dedup by task index. The waiting-time charge is
            // released from the *currently charged* worker (a relaunch
            // may have moved it off the reporting one), so the §3.7
            // bookkeeping never leaks.
            let state = self.jobs.get_mut(&job).expect("completion for known job");
            let charged = match state.state[task as usize] {
                CentralTask::Done => return,
                CentralTask::Outstanding { worker, .. } => worker,
            };
            self.inner
                .on_task_complete(ServerId(charged as u32), estimate);
            state.state[task as usize] = CentralTask::Done;
            state.remaining -= 1;
            if state.remaining == 0 {
                // Keep the entry: late duplicates must keep resolving as
                // no-ops, not panics.
                net.job_done(job);
            }
            return;
        }
        self.inner
            .on_task_complete(ServerId(worker as u32), estimate);
        let state = self.jobs.get_mut(&job).expect("completion for known job");
        state.remaining -= 1;
        if state.remaining == 0 {
            self.jobs.remove(&job);
            net.job_done(job);
        }
    }

    fn relocate(&mut self, from: usize, spec: TaskSpec, net: &mut impl Net) {
        if self.timeouts.is_some() {
            // A stale relocation (the chain already relaunched this task,
            // or it completed) must not double-place it.
            let Some(state) = self.jobs.get_mut(&spec.job) else {
                return;
            };
            match state.state[spec.task as usize] {
                CentralTask::Outstanding {
                    worker, attempt, ..
                } if worker == from && attempt == spec.attempt => {
                    let target = self.inner.least_loaded();
                    self.inner
                        .reassign(ServerId(from as u32), target, spec.estimate);
                    self.stats.migrations += 1;
                    state.state[spec.task as usize] = CentralTask::Outstanding {
                        worker: target.index(),
                        since: net.now(),
                        attempt: spec.attempt,
                        expected: self.inner.estimated_wait(target),
                    };
                    net.send_worker(target.index(), WorkerMsg::Assign(spec));
                }
                _ => {}
            }
            return;
        }
        // The driver's task-migration policy: the live server the §3.7
        // queue would pick next, bookkeeping following the task.
        let target = self.inner.least_loaded();
        self.inner
            .reassign(ServerId(from as u32), target, spec.estimate);
        self.stats.migrations += 1;
        net.send_worker(target.index(), WorkerMsg::Assign(spec));
    }

    /// The per-job chain fires: relaunch at most one overdue task — the
    /// most overdue, rate-limiting duplication since a relaunch of a
    /// merely-slow task wastes a slot — and re-arm with backoff until the
    /// job completes.
    fn on_job_timeout(&mut self, job: JobId, net: &mut impl Net) {
        let Some(to) = self.timeouts else { return };
        let now = net.now();
        let Some(state) = self.jobs.get_mut(&job) else {
            return;
        };
        if state.remaining == 0 {
            return;
        }
        let mut pick: Option<(usize, usize, u32, SimDuration)> = None;
        for (i, s) in state.state.iter().enumerate() {
            if let CentralTask::Outstanding {
                worker,
                since,
                attempt,
                expected,
            } = *s
            {
                // The task legitimately queues for `expected` before it
                // can start: the loss deadline counts from there.
                let deadline = expected + to.launch_deadline(state.durations[i], attempt);
                let age = now - since;
                if age >= deadline {
                    let overdue = age - deadline;
                    if pick.is_none_or(|(.., worst)| overdue > worst) {
                        pick = Some((i, worker, attempt, overdue));
                    }
                }
            }
        }
        if let Some((i, old_worker, attempt, _)) = pick {
            let target = self.inner.least_loaded();
            self.inner
                .reassign(ServerId(old_worker as u32), target, state.estimate);
            let attempt = attempt + 1;
            state.state[i] = CentralTask::Outstanding {
                worker: target.index(),
                since: now,
                attempt,
                expected: self.inner.estimated_wait(target),
            };
            self.stats.relaunched += 1;
            self.stats.timeouts_fired += 1;
            net.send_worker(
                target.index(),
                WorkerMsg::Assign(TaskSpec {
                    job,
                    duration: state.durations[i],
                    estimate: state.estimate,
                    class: state.class,
                    task: i as u32,
                    attempt,
                }),
            );
        }
        let interval = state.interval;
        state.interval = to.next_interval(interval);
        net.self_timer_central(interval, CentralMsg::JobTimeout { job });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_core::scheduler::{Hawk, Sparrow};

    #[derive(Default)]
    struct RecordingNet {
        now: SimTime,
        worker_msgs: Vec<(usize, WorkerMsg)>,
        dist_timers: Vec<(usize, SimDuration, DistMsg)>,
        central_timers: Vec<(SimDuration, CentralMsg)>,
        done: Vec<JobId>,
    }

    impl Net for RecordingNet {
        fn send_worker(&mut self, to: usize, msg: WorkerMsg) {
            self.worker_msgs.push((to, msg));
        }
        fn send_dist(&mut self, _to: usize, _msg: DistMsg) {}
        fn send_central(&mut self, _msg: CentralMsg) {}
        fn schedule_finish(&mut self, _worker: usize, _occupancy: SimDuration) {}
        fn job_done(&mut self, job: JobId) {
            self.done.push(job);
        }
        fn add_running(&mut self, _delta: i64) {}
        fn add_capacity(&mut self, _delta: i64) {}
        fn now(&self) -> SimTime {
            self.now
        }
        fn self_timer_dist(&mut self, to: usize, after: SimDuration, msg: DistMsg) {
            self.dist_timers.push((to, after, msg));
        }
        fn self_timer_central(&mut self, after: SimDuration, msg: CentralMsg) {
            self.central_timers.push((after, msg));
        }
    }

    fn dist(scheduler: Arc<dyn Scheduler>, workers: usize, seed: u64) -> DistScheduler {
        DistScheduler::new(0, scheduler, workers, SimRng::seed_from_u64(seed), None)
    }

    fn submit(job: u32, tasks: usize, secs: u64, class: JobClass) -> DistMsg {
        DistMsg::Submit {
            job: JobId(job),
            tasks: vec![SimDuration::from_secs(secs); tasks],
            estimate: SimDuration::from_secs(secs),
            class,
        }
    }

    #[test]
    fn submit_sends_probe_ratio_times_tasks_probes() {
        let mut sched = dist(Arc::new(Sparrow::new()), 50, 3);
        let mut net = RecordingNet::default();
        sched.handle(submit(1, 4, 10, JobClass::Short), &mut net);
        assert_eq!(net.worker_msgs.len(), 8, "2t probes");
        let mut targets: Vec<usize> = net.worker_msgs.iter().map(|(to, _)| *to).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), 8, "distinct while the scope allows");
        assert!(net.dist_timers.is_empty(), "no timers unless hardened");
    }

    #[test]
    fn hawk_short_probes_cover_the_whole_cluster() {
        // Hawk shorts probe Scope::Whole — including the reserved
        // partition — which is what makes stealing able to rescue them.
        let mut sched = dist(Arc::new(Hawk::new(0.5)), 10, 1);
        let mut net = RecordingNet::default();
        for j in 0..20 {
            sched.handle(submit(j, 2, 1, JobClass::Short), &mut net);
        }
        assert!(
            net.worker_msgs.iter().any(|(to, _)| *to >= 5),
            "short probes must reach the reserved partition"
        );
    }

    #[test]
    fn late_binding_hands_out_tasks_then_cancels() {
        let mut sched = dist(Arc::new(Sparrow::new()), 10, 5);
        let mut net = RecordingNet::default();
        sched.handle(submit(1, 1, 7, JobClass::Short), &mut net);
        net.worker_msgs.clear();
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 4,
            },
            &mut net,
        );
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 6,
            },
            &mut net,
        );
        match (&net.worker_msgs[0], &net.worker_msgs[1]) {
            (
                (
                    4,
                    WorkerMsg::BindReply {
                        task: Some(spec), ..
                    },
                ),
                (6, WorkerMsg::BindReply { task: None, .. }),
            ) => {
                assert_eq!(spec.job, JobId(1));
                assert_eq!(spec.duration, SimDuration::from_secs(7));
                assert_eq!((spec.task, spec.attempt), (0, 0));
            }
            other => panic!("expected a task then a cancel, got {other:?}"),
        }
        // Completion of the single task completes the job.
        sched.handle(
            DistMsg::TaskDone {
                job: JobId(1),
                task: 0,
            },
            &mut net,
        );
        assert_eq!(net.done, vec![JobId(1)]);
    }

    #[test]
    fn shadow_cluster_keeps_probes_off_failed_servers() {
        let mut sched = dist(Arc::new(Sparrow::new()), 4, 9);
        let mut net = RecordingNet::default();
        for s in [0u32, 1] {
            sched.handle(DistMsg::Node(NodeChange::Down(s)), &mut net);
        }
        for j in 0..10 {
            sched.handle(submit(j, 2, 1, JobClass::Short), &mut net);
        }
        assert!(
            net.worker_msgs.iter().all(|(to, _)| *to >= 2),
            "probes must avoid down servers"
        );
        // Revival restores the full scope.
        sched.handle(DistMsg::Node(NodeChange::Up(0)), &mut net);
        net.worker_msgs.clear();
        for j in 10..40 {
            sched.handle(submit(j, 2, 1, JobClass::Short), &mut net);
        }
        assert!(net.worker_msgs.iter().any(|(to, _)| *to == 0));
        assert!(net.worker_msgs.iter().all(|(to, _)| *to != 1));
    }

    #[test]
    fn reprobe_migrates_live_jobs_and_abandons_drained_ones() {
        let mut sched = dist(Arc::new(Sparrow::new()), 8, 2);
        let mut net = RecordingNet::default();
        sched.handle(submit(1, 1, 5, JobClass::Short), &mut net);
        net.worker_msgs.clear();
        // Unlaunched task left: re-probe.
        sched.handle(
            DistMsg::ReProbe {
                job: JobId(1),
                class: JobClass::Short,
            },
            &mut net,
        );
        assert_eq!(net.worker_msgs.len(), 1);
        assert_eq!(sched.stats.migrations, 1);
        // Launch the task; now a displaced spare reservation is dead.
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 0,
            },
            &mut net,
        );
        net.worker_msgs.clear();
        sched.handle(
            DistMsg::ReProbe {
                job: JobId(1),
                class: JobClass::Short,
            },
            &mut net,
        );
        assert!(net.worker_msgs.is_empty());
        assert_eq!(sched.stats.abandons, 1);
    }

    #[test]
    fn central_daemon_places_like_the_shared_scheduler() {
        let mut daemon = CentralDaemon::new(4, None);
        let mut net = RecordingNet::default();
        daemon.handle(
            CentralMsg::Submit {
                job: JobId(1),
                tasks: vec![SimDuration::from_secs(100); 4],
                estimate: SimDuration::from_secs(100),
                class: JobClass::Long,
            },
            &mut net,
        );
        // Waiting-time balancing: one task per server.
        let mut targets: Vec<usize> = net.worker_msgs.iter().map(|(to, _)| *to).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1, 2, 3]);
        // Completions drain the job.
        for w in 0..4 {
            daemon.handle(
                CentralMsg::TaskDone {
                    job: JobId(1),
                    worker: w,
                    estimate: SimDuration::from_secs(100),
                    task: w as u32,
                },
                &mut net,
            );
        }
        assert_eq!(net.done, vec![JobId(1)]);
    }

    #[test]
    fn central_daemon_relocates_off_failed_workers() {
        let mut daemon = CentralDaemon::new(2, None);
        let mut net = RecordingNet::default();
        daemon.handle(
            CentralMsg::Submit {
                job: JobId(1),
                tasks: vec![SimDuration::from_secs(50)],
                estimate: SimDuration::from_secs(50),
                class: JobClass::Long,
            },
            &mut net,
        );
        let placed_on = net.worker_msgs[0].0;
        daemon.handle(
            CentralMsg::Node(NodeChange::Down(placed_on as u32)),
            &mut net,
        );
        net.worker_msgs.clear();
        let spec = TaskSpec {
            job: JobId(1),
            duration: SimDuration::from_secs(50),
            estimate: SimDuration::from_secs(50),
            class: JobClass::Long,
            task: 0,
            attempt: 0,
        };
        daemon.handle(
            CentralMsg::Relocate {
                from: placed_on,
                spec,
            },
            &mut net,
        );
        let (target, msg) = &net.worker_msgs[0];
        assert_ne!(*target, placed_on, "relocation must pick a live server");
        assert!(matches!(msg, WorkerMsg::Assign(_)));
        assert_eq!(daemon.stats.migrations, 1);
    }

    // --- Hardened-protocol units ---

    fn hardened_spec() -> TimeoutSpec {
        TimeoutSpec {
            probe: SimDuration::from_secs(10),
            bind: SimDuration::from_secs(1),
            steal: SimDuration::from_secs(1),
            retries: 2,
        }
    }

    #[test]
    fn hardened_submit_arms_the_job_chain_and_dedups_completions() {
        let mut sched = DistScheduler::new(
            3,
            Arc::new(Sparrow::new()),
            8,
            SimRng::seed_from_u64(7),
            Some(hardened_spec()),
        );
        let mut net = RecordingNet::default();
        sched.handle(submit(1, 2, 5, JobClass::Short), &mut net);
        assert_eq!(
            net.dist_timers,
            vec![(
                3,
                SimDuration::from_secs(10),
                DistMsg::JobTimeout { job: JobId(1) }
            )]
        );
        // Hand out both tasks.
        for w in [0, 1] {
            sched.handle(
                DistMsg::TaskRequest {
                    job: JobId(1),
                    worker: w,
                },
                &mut net,
            );
        }
        // A duplicated completion of task 0 must not steal task 1's slot.
        for _ in 0..2 {
            sched.handle(
                DistMsg::TaskDone {
                    job: JobId(1),
                    task: 0,
                },
                &mut net,
            );
        }
        assert!(net.done.is_empty(), "job completed off a duplicate");
        sched.handle(
            DistMsg::TaskDone {
                job: JobId(1),
                task: 1,
            },
            &mut net,
        );
        assert_eq!(net.done, vec![JobId(1)]);
        // Late duplicates after completion stay no-ops.
        sched.handle(
            DistMsg::TaskDone {
                job: JobId(1),
                task: 1,
            },
            &mut net,
        );
        assert_eq!(net.done, vec![JobId(1)]);
    }

    #[test]
    fn hardened_chain_relaunches_overdue_tasks_under_a_new_attempt() {
        let mut sched = DistScheduler::new(
            0,
            Arc::new(Sparrow::new()),
            8,
            SimRng::seed_from_u64(11),
            Some(hardened_spec()),
        );
        let mut net = RecordingNet::default();
        sched.handle(submit(1, 1, 5, JobClass::Short), &mut net);
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 2,
            },
            &mut net,
        );
        // Not yet overdue: the chain re-arms but relaunches nothing.
        net.now = SimTime::ZERO + SimDuration::from_secs(15);
        net.worker_msgs.clear();
        sched.handle(DistMsg::JobTimeout { job: JobId(1) }, &mut net);
        assert_eq!(sched.stats.relaunched, 0);
        assert!(
            net.worker_msgs.is_empty(),
            "no re-probe while all handed out"
        );
        // Past 4×duration + probe = 30 s: relaunched and re-probed.
        net.now = SimTime::ZERO + SimDuration::from_secs(31);
        sched.handle(DistMsg::JobTimeout { job: JobId(1) }, &mut net);
        assert_eq!(sched.stats.relaunched, 1);
        assert_eq!(sched.stats.retries, 1);
        assert_eq!(net.worker_msgs.len(), 1, "one fresh probe");
        // The next bind hands the task out under attempt 1.
        net.worker_msgs.clear();
        sched.handle(
            DistMsg::TaskRequest {
                job: JobId(1),
                worker: 5,
            },
            &mut net,
        );
        match &net.worker_msgs[0].1 {
            WorkerMsg::BindReply {
                task: Some(spec), ..
            } => {
                assert_eq!((spec.task, spec.attempt), (0, 1));
            }
            other => panic!("expected a bind, got {other:?}"),
        }
        // Either attempt's completion finishes the job exactly once.
        for _ in 0..2 {
            sched.handle(
                DistMsg::TaskDone {
                    job: JobId(1),
                    task: 0,
                },
                &mut net,
            );
        }
        assert_eq!(net.done, vec![JobId(1)]);
    }

    #[test]
    fn hardened_central_relaunches_and_charges_the_current_worker() {
        let mut daemon = CentralDaemon::new(4, Some(hardened_spec()));
        let mut net = RecordingNet::default();
        daemon.handle(
            CentralMsg::Submit {
                job: JobId(2),
                tasks: vec![SimDuration::from_secs(5)],
                estimate: SimDuration::from_secs(5),
                class: JobClass::Long,
            },
            &mut net,
        );
        assert_eq!(net.central_timers.len(), 1);
        let first = net.worker_msgs[0].0;
        // Past the deadline — expected wait (5 s, the task's own charge)
        // plus the launch deadline (4×5 s + 10 s probe) — the chain
        // relaunches on a fresh worker.
        net.now = SimTime::ZERO + SimDuration::from_secs(36);
        net.worker_msgs.clear();
        daemon.handle(CentralMsg::JobTimeout { job: JobId(2) }, &mut net);
        assert_eq!(daemon.stats.relaunched, 1);
        let (second, msg) = net.worker_msgs[0].clone();
        assert_ne!(second, first, "relaunch must move off the charged worker");
        match msg {
            WorkerMsg::Assign(spec) => assert_eq!((spec.task, spec.attempt), (0, 1)),
            other => panic!("expected an assign, got {other:?}"),
        }
        // The original worker still finishes first: the completion is
        // accepted once (releasing the relaunch worker's charge); the
        // duplicate from the relaunch is dropped.
        daemon.handle(
            CentralMsg::TaskDone {
                job: JobId(2),
                worker: first,
                estimate: SimDuration::from_secs(5),
                task: 0,
            },
            &mut net,
        );
        daemon.handle(
            CentralMsg::TaskDone {
                job: JobId(2),
                worker: second,
                estimate: SimDuration::from_secs(5),
                task: 0,
            },
            &mut net,
        );
        assert_eq!(net.done, vec![JobId(2)]);
        // A stale relocate for the superseded attempt is ignored.
        net.worker_msgs.clear();
        daemon.handle(
            CentralMsg::Relocate {
                from: first,
                spec: TaskSpec {
                    job: JobId(2),
                    duration: SimDuration::from_secs(5),
                    estimate: SimDuration::from_secs(5),
                    class: JobClass::Long,
                    task: 0,
                    attempt: 0,
                },
            },
            &mut net,
        );
        assert!(
            net.worker_msgs.is_empty(),
            "stale relocate re-placed a task"
        );
    }
}
