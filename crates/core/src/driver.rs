//! The simulation driver: a policy-agnostic discrete-event loop that runs
//! any [`Scheduler`] over the cluster substrate.
//!
//! The driver owns the event loop and all per-run state:
//!
//! * per-job late-binding state (which tasks are still unlaunched) for the
//!   distributed schedulers (§3.5) — each job conceptually has its own
//!   scheduler, so there is no shared state between jobs;
//! * the centralized waiting-time scheduler (§3.7) when the policy routes
//!   a class centrally;
//! * the RNG streams every policy hook draws from, so runs stay
//!   bit-deterministic for a given seed regardless of the policy.
//!
//! Everything *policy* — routing, probe placement, steal capability and
//! victim choice, probe bouncing — is delegated to the [`Scheduler`]
//! trait; adding a new scheduling policy requires no driver changes.
//!
//! Messages (probes, placements, bind requests/responses) incur the
//! delay the configured network [`Topology`] charges for their endpoint
//! pair; under the default constant topology that is the flat one-way
//! delay of §4.1, and scheduling decisions and steal transfers stay free.
//! Every message asks the topology exactly once, in event order, so
//! contended topologies (per-link FIFO queueing) remain deterministic.

use std::sync::Arc;

use hawk_cluster::{Cluster, QueueEntry, ServerAction, ServerId, TaskSpec, UtilizationTracker};
use hawk_net::{Endpoint, Topology};
use hawk_simcore::stats::StreamingQuantiles;
use hawk_simcore::{BatchHandle, BatchPool, Engine, SimRng, SimTime};
use hawk_workload::classify::JobEstimates;
use hawk_workload::scenario::NodeChange;
use hawk_workload::{JobClass, JobId, Trace};

use crate::admission::{AdmissionDecision, AdmissionPlan};
use crate::centralized::CentralScheduler;
use crate::config::{Route, Scope, SimConfig};
use crate::live::LiveRecorder;
use crate::metrics::{JobResult, MetricsReport, StreamingStats, StreamingSummary};
use crate::scheduler::{PlacementView, Scheduler, StealSpec};

/// A simulation event.
///
/// `Copy`: since the steal pipeline moved stolen groups into the driver's
/// batch pool, every variant is a few plain words — which also lets the
/// timing wheel store events in its recycled slab arena.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A job was submitted (at its trace submission time).
    JobArrival(JobId),
    /// A probe message reached a server.
    ProbeArrive {
        /// Destination server.
        server: ServerId,
        /// Job the probe reserves for.
        job: JobId,
        /// The job's scheduled class.
        class: JobClass,
        /// How many times this probe has bounced off servers holding long
        /// work (always 0 under the paper's configuration).
        bounces: u8,
    },
    /// A centrally-placed task reached a server.
    TaskArrive {
        /// Destination server.
        server: ServerId,
        /// The task.
        spec: TaskSpec,
    },
    /// A server's task request reached the job's scheduler.
    BindRequest {
        /// Requesting server.
        server: ServerId,
        /// Job whose scheduler is asked.
        job: JobId,
    },
    /// The scheduler's response reached the server: a task or a cancel.
    BindResponse {
        /// Destination server.
        server: ServerId,
        /// `Some` launches the task, `None` cancels the reservation.
        task: Option<TaskSpec>,
    },
    /// The running task on a server completed.
    TaskFinish {
        /// The server whose slot finished.
        server: ServerId,
    },
    /// Stolen queue entries reached the thief (only with a non-zero steal
    /// transfer delay; transfers are instantaneous by default).
    ///
    /// The event carries a 4-byte handle into the driver's
    /// [`BatchPool`], not an owned `Vec`: the stolen group waits in a
    /// recycled pool slot while in flight, so the steal pipeline allocates
    /// nothing in steady state.
    StolenArrive {
        /// The thief.
        server: ServerId,
        /// The in-flight stolen group (original queue order), redeemed
        /// against the driver's batch pool on delivery.
        batch: BatchHandle,
    },
    /// The centralized scheduler finished processing a job and emits its
    /// placements (only with a non-zero [`crate::config::CentralOverhead`];
    /// decisions are free by default, as in the paper).
    CentralPlace(JobId),
    /// A scripted scenario event: the server leaves service. Its queue is
    /// drained and migrated (or abandoned, for reservations whose job has
    /// no unlaunched tasks left); a running task finishes on its own.
    NodeDown(ServerId),
    /// A scripted scenario event: the server rejoins, idle and empty.
    NodeUp(ServerId),
    /// Periodic utilization snapshot.
    UtilSample,
    /// Periodic live-metrics window close (only scheduled when
    /// [`SimConfig::live_window`] is set, so classic runs see no new
    /// events).
    LiveSample,
}

/// Per-job dynamic state (the job's "distributed scheduler" plus
/// completion bookkeeping).
#[derive(Debug, Clone, Copy)]
struct JobRun {
    /// Class the policy scheduled this job as.
    class: JobClass,
    /// Next unlaunched task index (late binding hands tasks out in order).
    next_task: u32,
    /// Tasks not yet finished.
    remaining: u32,
    /// Whether this job's tasks update the centralized bookkeeping.
    central: bool,
    /// Completion time, once all tasks finished.
    completion: Option<SimTime>,
}

/// The simulation driver. Construct with [`Driver::with_scheduler`],
/// consume with [`Driver::run`].
pub struct Driver<'t> {
    trace: &'t Trace,
    scheduler: Arc<dyn Scheduler>,
    sim: SimConfig,
    estimates: JobEstimates,
    engine: Engine<Event>,
    cluster: Cluster,
    jobs: Vec<JobRun>,
    central: Option<CentralScheduler>,
    steal_spec: Option<StealSpec>,
    probe_rng: SimRng,
    steal_rng: SimRng,
    util: UtilizationTracker,
    unfinished: usize,
    steals: u64,
    steal_attempts: u64,
    /// Queue entries relocated off failed servers (tasks re-placed, live
    /// probes re-probed).
    migrations: u64,
    /// Reservations dropped at node failure because their job had no
    /// unlaunched tasks left (a bind would have been cancelled anyway).
    abandons: u64,
    /// RNG stream for scenario bookkeeping (migration re-probing). A
    /// separate stream so dynamics-off runs draw exactly as before the
    /// scenario layer existed — the golden digests pin this.
    scenario_rng: SimRng,
    /// Recycled buffer for queue drains at node failure.
    drain_buf: Vec<QueueEntry>,
    /// Reused buffers for the per-idle-transition victim selection (the
    /// steal path runs hundreds of thousands of times per cell; reusing
    /// the buffers keeps it allocation-free).
    victim_scratch: Vec<usize>,
    victim_buf: Vec<ServerId>,
    /// Recycled batch buffer every steal scan writes into; drained into
    /// the thief (or parked in `stolen_pool`) on success.
    steal_buf: Vec<QueueEntry>,
    /// In-flight stolen groups under a non-zero steal-transfer delay;
    /// [`Event::StolenArrive`] carries handles into this pool.
    stolen_pool: BatchPool<QueueEntry>,
    /// Recycled probe-target buffer (one fill per distributed job
    /// arrival).
    probe_buf: Vec<ServerId>,
    /// Recycled placement buffer (one fill per centrally-placed job).
    place_buf: Vec<ServerId>,
    /// Time at which the centralized scheduler's serial processing queue
    /// drains (only advances under a non-free [`CentralOverhead`]).
    central_ready: SimTime,
    /// The network topology every message delay is routed through, built
    /// from [`SimConfig::topology`].
    topology: Box<dyn Topology>,
    /// Rack geometry for fabric-aware victim picking; `None` under
    /// placement-blind topologies.
    rack_geometry: Option<hawk_net::RackGeometry>,
    /// Precomputed admission decisions; `None` admits everything (the
    /// classic, digest-pinned behavior).
    admission: Option<AdmissionPlan>,
    /// Cumulative streaming runtime sinks by true class, always on: the
    /// record path is allocation-free and draws no RNG, and the derived
    /// report fields are digest-excluded.
    short_sink: StreamingQuantiles,
    long_sink: StreamingQuantiles,
    /// Windowed live-metrics recorder, present only under
    /// [`SimConfig::live_window`].
    live: Option<LiveRecorder>,
}

impl<'t> Driver<'t> {
    /// Builds a driver running `scheduler` under the policy-independent
    /// parameters `sim`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration: a centralized route over an
    /// empty scope, or a short-reserved route with no reserved servers.
    pub fn with_scheduler(
        trace: &'t Trace,
        scheduler: Arc<dyn Scheduler>,
        sim: &SimConfig,
    ) -> Self {
        let mut root = SimRng::seed_from_u64(sim.seed);
        let mut estimate_rng = root.split();
        let probe_rng = root.split();
        let steal_rng = root.split();
        // Split *after* the pre-scenario streams so adding the scenario
        // layer leaves every dynamics-off draw sequence untouched.
        let scenario_rng = root.split();

        let estimates = match sim.misestimate {
            Some(range) => JobEstimates::misestimated(trace, range, &mut estimate_rng),
            None => JobEstimates::exact(trace),
        };

        let mut cluster = match sim.speeds.resolve(sim.nodes) {
            Some(speeds) => {
                Cluster::with_speeds(sim.nodes, scheduler.short_partition_fraction(), &speeds)
            }
            None => Cluster::new(sim.nodes, scheduler.short_partition_fraction()),
        };
        // Worst-case concurrent queue population: every task can occupy
        // one entry (central placements, steal hand-offs, bound shorts)
        // plus up to ceil(probe_ratio × tasks) outstanding probes per
        // distributed job (ratio ≤ 2 for every built-in policy). Under
        // sustained overload queues grow monotonically, so no warm-up
        // bounds the arena's peak — reserve it up front to keep the
        // steady-state loop allocation-free.
        cluster.reserve_queue_nodes(trace.total_tasks() as usize * 3 + trace.len());
        let partition = cluster.partition();

        let long_route = scheduler.route(JobClass::Long);
        let short_route = scheduler.route(JobClass::Short);

        // Validate scopes against the partition.
        for route in [long_route, short_route] {
            if let Route::Distributed(Scope::ShortReserved) | Route::Central(Scope::ShortReserved) =
                route
            {
                assert!(
                    partition.short_count() > 0,
                    "route targets the short partition but none is reserved"
                );
            }
        }
        let central = Self::central_scope(&long_route, &short_route).map(|scope| {
            assert_ne!(
                scope,
                Scope::ShortReserved,
                "central routes never target the short partition"
            );
            let (_, len) = scope.range(&partition);
            assert!(len > 0, "centralized route over an empty scope");
            CentralScheduler::new(len)
        });

        // The +64 covers the driver's own periodic events (utilization
        // snapshot, live-metrics close, deferred re-arrivals in flight):
        // without the slack, enabling the live window pushes the pending
        // population exactly one past the arena reserve and the wheel
        // grows mid-run — breaking the zero-alloc steady-state guarantee.
        let mut engine = Engine::with_capacity(trace.len() * 2 + 64);
        for job in trace.jobs() {
            engine.schedule_at(job.submission, Event::JobArrival(job.id));
        }
        // Replay the scenario's dynamics script as ordinary events.
        if let Some(max) = sim.dynamics.max_server() {
            assert!(
                (max as usize) < sim.nodes,
                "dynamics script touches server {max} but the cluster has {} servers",
                sim.nodes
            );
        }
        for scripted in sim.dynamics.events() {
            let event = match scripted.change {
                NodeChange::Down(server) => Event::NodeDown(ServerId(server)),
                NodeChange::Up(server) => Event::NodeUp(ServerId(server)),
            };
            engine.schedule_at(scripted.at, event);
        }
        let util = UtilizationTracker::new(sim.util_interval);
        engine.schedule(sim.util_interval, Event::UtilSample);
        if let Some(window) = sim.live_window {
            engine.schedule(window, Event::LiveSample);
        }
        let admission = sim.admission.map(|policy| {
            AdmissionPlan::compute(trace, sim.nodes, sim.cutoff, &sim.dynamics, policy)
        });

        let jobs = trace
            .jobs()
            .iter()
            .map(|j| JobRun {
                class: JobClass::Short, // finalized at arrival
                next_task: 0,
                remaining: j.num_tasks() as u32,
                central: false,
                completion: None,
            })
            .collect();

        // Pre-size the recycled hot-path buffers from the trace so the
        // steady-state loop starts warm (growth would still be correct,
        // just a one-time allocation).
        let max_tasks = trace
            .jobs()
            .iter()
            .map(|j| j.num_tasks())
            .max()
            .unwrap_or(0);

        Driver {
            trace,
            steal_spec: scheduler.steal(),
            scheduler,
            sim: sim.clone(),
            estimates,
            engine,
            cluster,
            jobs,
            central,
            probe_rng,
            steal_rng,
            util,
            unfinished: trace.len(),
            steals: 0,
            steal_attempts: 0,
            migrations: 0,
            abandons: 0,
            scenario_rng,
            // Pre-sized like the probe buffer: a failing server's queue
            // holds at most a few batches of probes/tasks, and churn
            // windows must stay off the allocator.
            drain_buf: Vec::with_capacity(4 * max_tasks + 64),
            victim_scratch: Vec::new(),
            victim_buf: Vec::new(),
            steal_buf: Vec::with_capacity(64),
            stolen_pool: BatchPool::new(),
            probe_buf: Vec::with_capacity(4 * max_tasks + 8),
            place_buf: Vec::with_capacity(max_tasks),
            central_ready: SimTime::ZERO,
            topology: sim.topology.build(sim.nodes),
            rack_geometry: sim.topology.rack_geometry(),
            admission,
            short_sink: StreamingQuantiles::new(),
            long_sink: StreamingQuantiles::new(),
            live: sim.live_window.map(LiveRecorder::new),
        }
    }

    /// The single scope used by centralized routes, if any. Both routes
    /// being central implies an identical scope (the centralized baseline).
    fn central_scope(long: &Route, short: &Route) -> Option<Scope> {
        match (long, short) {
            (Route::Central(a), Route::Central(b)) => {
                assert_eq!(a, b, "central routes must share a scope");
                Some(*a)
            }
            (Route::Central(a), _) => Some(*a),
            (_, Route::Central(b)) => Some(*b),
            _ => None,
        }
    }

    /// Runs the simulation to completion and reports metrics.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains before every job completes, which
    /// indicates a scheduling-liveness bug.
    pub fn run(self) -> MetricsReport {
        self.run_with_estimates().0
    }

    /// Like [`Driver::run`], but also returns the (possibly misestimated)
    /// per-job estimates the scheduler actually used — the source of truth
    /// for analyses that need to know how jobs were classified (§4.8).
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains before every job completes, which
    /// indicates a scheduling-liveness bug.
    pub fn run_with_estimates(mut self) -> (MetricsReport, JobEstimates) {
        while self.unfinished > 0 {
            let Some((_, event)) = self.engine.pop() else {
                panic!(
                    "event queue drained with {} unfinished jobs",
                    self.unfinished
                );
            };
            self.dispatch(event);
        }
        self.report()
    }

    /// Processes up to `max` pending events and returns how many ran
    /// (fewer only when every job completed or the queue drained).
    ///
    /// The stepping interface exists for harnesses that observe the loop
    /// mid-run — the allocation-regression test warms a cell to steady
    /// state and then measures an exact event window; co-simulation
    /// adapters can interleave external work the same way. [`Driver::run`]
    /// is the normal entry point.
    pub fn step_events(&mut self, max: u64) -> u64 {
        let mut processed = 0;
        while processed < max && self.unfinished > 0 {
            let Some((_, event)) = self.engine.pop() else {
                break;
            };
            self.dispatch(event);
            processed += 1;
        }
        processed
    }

    /// Number of jobs that have not yet completed.
    pub fn unfinished_jobs(&self) -> usize {
        self.unfinished
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::JobArrival(job) => self.on_job_arrival(job),
            Event::ProbeArrive {
                server,
                job,
                class,
                bounces,
            } => {
                if self.cluster.is_down(server) {
                    // The server failed while the probe was in flight:
                    // treat it like a drained queue entry.
                    self.relocate(server, QueueEntry::Probe { job, class });
                    return;
                }
                if self
                    .scheduler
                    .bounce_probe(self.cluster.server(server), class, bounces)
                {
                    // Long-aware probe avoidance (extension): retry on a
                    // fresh random server at the cost of one network hop.
                    let scope = match self.scheduler.route(class) {
                        Route::Distributed(scope) => scope,
                        Route::Central(_) => unreachable!("probes imply a distributed route"),
                    };
                    let view = PlacementView::new(&self.cluster, scope);
                    let retry = view.random_server(&mut self.probe_rng);
                    let delay = self.topology.delay(
                        self.engine.now(),
                        Endpoint::Server(server),
                        Endpoint::Server(retry),
                    );
                    self.engine.schedule(
                        delay,
                        Event::ProbeArrive {
                            server: retry,
                            job,
                            class,
                            bounces: bounces + 1,
                        },
                    );
                    return;
                }
                let action = self
                    .cluster
                    .enqueue(server, QueueEntry::Probe { job, class });
                if let Some(action) = action {
                    self.on_action(server, action);
                }
            }
            Event::TaskArrive { server, spec } => {
                if self.cluster.is_down(server) {
                    self.relocate(server, QueueEntry::Task(spec));
                    return;
                }
                let action = self.cluster.enqueue(server, QueueEntry::Task(spec));
                if let Some(action) = action {
                    self.on_action(server, action);
                }
            }
            Event::BindRequest { server, job } => self.on_bind_request(server, job),
            Event::BindResponse { server, task } => {
                let action = self.cluster.on_bind_response(server, task);
                self.on_action(server, action);
            }
            Event::TaskFinish { server } => self.on_task_finish(server),
            Event::StolenArrive { server, batch } => {
                self.stolen_pool.take_into(batch, &mut self.steal_buf);
                if self.cluster.is_down(server) {
                    // The thief failed mid-transfer: relocate the group in
                    // queue order, like a drained queue.
                    let mut batch = std::mem::take(&mut self.steal_buf);
                    for entry in batch.drain(..) {
                        self.relocate(server, entry);
                    }
                    self.steal_buf = batch;
                    return;
                }
                if let Some(action) = self.cluster.give_stolen_drain(server, &mut self.steal_buf) {
                    self.on_action(server, action);
                }
            }
            Event::CentralPlace(job) => self.place_centrally(job),
            Event::NodeDown(server) => self.on_node_down(server),
            Event::NodeUp(server) => {
                if self.cluster.revive_server(server) {
                    if let Some(central) = &mut self.central {
                        if server.index() < central.scope() {
                            central.revive(server);
                        }
                    }
                }
            }
            Event::UtilSample => {
                self.util.record(self.cluster.utilization());
                self.engine
                    .schedule(self.sim.util_interval, Event::UtilSample);
            }
            Event::LiveSample => {
                let occupancy = self.cluster.utilization();
                let window = self
                    .sim
                    .live_window
                    .expect("LiveSample implies a live window");
                let live = self.live.as_mut().expect("LiveSample implies a recorder");
                live.close_up_to(
                    self.engine.now(),
                    occupancy,
                    self.steals,
                    self.steal_attempts,
                );
                self.engine.schedule(window, Event::LiveSample);
            }
        }
    }

    fn on_job_arrival(&mut self, job: JobId) {
        if let Some(plan) = &self.admission {
            let now = self.engine.now();
            match plan.decision(job) {
                AdmissionDecision::Admit => {
                    if let Some(live) = &mut self.live {
                        live.on_arrival();
                    }
                }
                AdmissionDecision::Defer { until } if now < until => {
                    // First firing: count the offer once, replay the
                    // arrival at its admitted window. The job's estimates
                    // were drawn at construction, so postponing perturbs
                    // no RNG stream.
                    if let Some(live) = &mut self.live {
                        live.on_arrival();
                        live.on_deferral();
                    }
                    self.engine.schedule_at(until, Event::JobArrival(job));
                    return;
                }
                AdmissionDecision::Defer { .. } => {} // re-fired: admit now
                AdmissionDecision::Shed => {
                    if let Some(live) = &mut self.live {
                        live.on_arrival();
                        live.on_shed();
                    }
                    // The job completes instantly at submission with zero
                    // runtime and never schedules. Shed jobs are excluded
                    // from the streaming sinks (the exact summary still
                    // carries their zero runtime).
                    let class = self.estimates.class(job, self.sim.cutoff);
                    let run = &mut self.jobs[job.index()];
                    run.class = class;
                    run.completion = Some(now);
                    self.unfinished -= 1;
                    return;
                }
            }
        } else if let Some(live) = &mut self.live {
            live.on_arrival();
        }
        let spec = self.trace.job(job);
        let class = self.estimates.class(job, self.sim.cutoff);
        self.jobs[job.index()].class = class;
        let route = self.scheduler.route(class);
        match route {
            Route::Central(_) => {
                self.jobs[job.index()].central = true;
                let overhead = self.sim.central_overhead;
                if overhead.is_free() {
                    self.place_centrally(job);
                } else {
                    // The central scheduler processes jobs serially: this
                    // job waits for the backlog, then pays its own cost.
                    let now = self.engine.now();
                    let ready = self.central_ready.max(now) + overhead.cost(spec.num_tasks());
                    self.central_ready = ready;
                    self.engine.schedule_at(ready, Event::CentralPlace(job));
                }
            }
            Route::Distributed(scope) => {
                let view = PlacementView::new(&self.cluster, scope);
                self.scheduler.probe_targets_into(
                    &view,
                    spec.num_tasks(),
                    &mut self.probe_rng,
                    &mut self.probe_buf,
                );
                // The job's distributed scheduler is the probes' source
                // endpoint; each probe is committed to the fabric
                // individually, in target order.
                let now = self.engine.now();
                let src = Endpoint::Scheduler(job.0);
                for &server in &self.probe_buf {
                    let delay = self.topology.delay(now, src, Endpoint::Server(server));
                    self.engine.schedule(
                        delay,
                        Event::ProbeArrive {
                            server,
                            job,
                            class,
                            bounces: 0,
                        },
                    );
                }
            }
        }
    }

    /// Runs the §3.7 placement for `job` and sends its tasks out.
    fn place_centrally(&mut self, job: JobId) {
        let spec = self.trace.job(job);
        let class = self.jobs[job.index()].class;
        let estimate = self.estimates.estimate(job);
        let central = self
            .central
            .as_mut()
            .expect("central route requires a central scheduler");
        central.assign_job_into(spec.num_tasks(), estimate, &mut self.place_buf);
        let now = self.engine.now();
        for (i, &server) in self.place_buf.iter().enumerate() {
            let task = TaskSpec {
                job,
                duration: spec.tasks[i],
                estimate,
                class,
                task: i as u32,
                attempt: 0,
            };
            let delay = self
                .topology
                .delay(now, Endpoint::Central, Endpoint::Server(server));
            self.engine
                .schedule(delay, Event::TaskArrive { server, spec: task });
        }
    }

    /// Takes `server` out of service (§ scenario dynamics): the cluster
    /// drains its queue, the central scheduler stops placing there, and
    /// every drained entry is migrated to a live server or abandoned.
    fn on_node_down(&mut self, server: ServerId) {
        debug_assert!(self.drain_buf.is_empty(), "stale drain buffer");
        let mut drained = std::mem::take(&mut self.drain_buf);
        if !self.cluster.fail_server(server, &mut drained) {
            self.drain_buf = drained;
            return; // already down: duplicate script entry
        }
        if let Some(central) = &mut self.central {
            if server.index() < central.scope() {
                central.fail(server);
            }
        }
        for entry in drained.drain(..) {
            self.relocate(server, entry);
        }
        self.drain_buf = drained;
    }

    /// Migrates one queue entry off the failed server `from`, or abandons
    /// it.
    ///
    /// * **Tasks** carry real committed work: they move to the live server
    ///   the centralized scheduler would pick next, with the waiting-time
    ///   bookkeeping following the task.
    /// * **Probes** are late-binding reservations. If the job still has
    ///   unlaunched tasks the probe re-probes a random live server of its
    ///   route's scope (it may be needed for liveness); otherwise it is
    ///   abandoned — binding it would only have produced a cancel.
    ///
    /// Every relocation costs one network hop, like any other message.
    fn relocate(&mut self, from: ServerId, entry: QueueEntry) {
        let now = self.engine.now();
        match entry {
            QueueEntry::Task(spec) => {
                let central = self
                    .central
                    .as_mut()
                    .expect("directly-placed tasks imply a central scheduler");
                let target = central.least_loaded();
                // The fail() penalty dwarfs any real work sum, so the
                // minimum key is a down server only when the whole scope
                // is down — in which case relocation would ping-pong
                // forever. Fail loudly, like the probe path's
                // "no live servers" guard.
                assert!(
                    !self.cluster.is_down(target),
                    "central scope has no live servers to migrate a task to \
                     (the dynamics script took down the entire scope)"
                );
                central.reassign(from, target, spec.estimate);
                self.migrations += 1;
                let delay =
                    self.topology
                        .delay(now, Endpoint::Server(from), Endpoint::Server(target));
                self.engine.schedule(
                    delay,
                    Event::TaskArrive {
                        server: target,
                        spec,
                    },
                );
            }
            QueueEntry::Probe { job, class } => {
                let launched = self.jobs[job.index()].next_task as usize;
                if launched >= self.trace.job(job).num_tasks() {
                    self.abandons += 1;
                    return;
                }
                self.migrations += 1;
                let scope = match self.scheduler.route(class) {
                    Route::Distributed(scope) => scope,
                    Route::Central(_) => unreachable!("probes imply a distributed route"),
                };
                let view = PlacementView::new(&self.cluster, scope);
                let target = view.random_server(&mut self.scenario_rng);
                let delay =
                    self.topology
                        .delay(now, Endpoint::Server(from), Endpoint::Server(target));
                self.engine.schedule(
                    delay,
                    Event::ProbeArrive {
                        server: target,
                        job,
                        class,
                        bounces: 0,
                    },
                );
            }
        }
    }

    fn on_bind_request(&mut self, server: ServerId, job: JobId) {
        // The response travels scheduler → server, the reverse of the
        // request hop that produced this event.
        let delay = self.topology.delay(
            self.engine.now(),
            Endpoint::Scheduler(job.0),
            Endpoint::Server(server),
        );
        let estimate = self.estimates.estimate(job);
        let spec = self.trace.job(job);
        let run = &mut self.jobs[job.index()];
        let task = if (run.next_task as usize) < spec.num_tasks() {
            let idx = run.next_task as usize;
            run.next_task += 1;
            Some(TaskSpec {
                job,
                duration: spec.tasks[idx],
                estimate,
                class: run.class,
                task: idx as u32,
                attempt: 0,
            })
        } else {
            None // all tasks given out: cancel (§3.5)
        };
        self.engine
            .schedule(delay, Event::BindResponse { server, task });
    }

    fn on_task_finish(&mut self, server: ServerId) {
        let now = self.engine.now();
        let (spec, action) = self.cluster.on_task_finish(server);
        let run = &mut self.jobs[spec.job.index()];
        if run.central {
            self.central
                .as_mut()
                .expect("central bookkeeping for a centrally-routed job")
                .on_task_complete(server, spec.estimate);
        }
        run.remaining -= 1;
        if run.remaining == 0 {
            run.completion = Some(now);
            self.unfinished -= 1;
            let job = self.trace.job(spec.job);
            let true_class = self.sim.cutoff.classify(job.mean_task_duration());
            let micros = (now - job.submission).as_micros();
            match true_class {
                JobClass::Short => self.short_sink.record(micros),
                JobClass::Long => self.long_sink.record(micros),
            }
            if let Some(live) = &mut self.live {
                live.on_completion(true_class, micros);
            }
        }
        self.on_action(server, action);
    }

    fn on_action(&mut self, server: ServerId, action: ServerAction) {
        match action {
            ServerAction::StartTask(spec) => {
                // Heterogeneous scenarios: slot occupancy is the nominal
                // duration scaled by the server's speed factor (identity
                // at speed 1.0).
                let occupancy = self.cluster.server(server).scale_duration(spec.duration);
                self.engine
                    .schedule(occupancy, Event::TaskFinish { server });
            }
            ServerAction::RequestBind { job } => {
                let delay = self.topology.delay(
                    self.engine.now(),
                    Endpoint::Server(server),
                    Endpoint::Scheduler(job.0),
                );
                self.engine
                    .schedule(delay, Event::BindRequest { server, job });
            }
            ServerAction::BecameIdle => self.try_steal(server),
        }
    }

    /// One steal attempt for an idle thief (§3.6): contact the victims the
    /// policy picks and steal from the first with an eligible group.
    ///
    /// Victim selection draws from `steal_rng` exactly as before the
    /// indexed-cluster rework; the long-work index is consulted only
    /// *after* those draws, to skip scans that provably cannot yield an
    /// eligible group (no long work ⇒ nothing is blocked behind a long
    /// task). Skipped scans perform no RNG draws of their own, so the
    /// filter is behavior-preserving — the golden-digest suite pins this.
    fn try_steal(&mut self, thief: ServerId) {
        let Some(spec) = self.steal_spec else { return };
        if self.cluster.is_down(thief) {
            // A draining server's slot emptied: it goes dark instead of
            // stealing new work.
            return;
        }
        self.steal_attempts += 1;
        let partition = self.cluster.partition();
        let granularity = spec.granularity;
        let mut victims = std::mem::take(&mut self.victim_buf);
        self.scheduler.pick_victims_in_fabric_into(
            &partition,
            thief,
            self.rack_geometry,
            &mut self.steal_rng,
            &mut self.victim_scratch,
            &mut victims,
        );
        if self.cluster.long_holder_count() == 0 {
            // No server anywhere holds long work: every victim scan would
            // come back empty. O(1) via the index.
            self.victim_buf = victims;
            return;
        }
        debug_assert!(self.steal_buf.is_empty(), "stale steal batch");
        let mut robbed = None;
        for &victim in &victims {
            if !self.cluster.holds_long_work(victim) {
                // One bitmap load instead of a cold walk of the victim's
                // queue state.
                continue;
            }
            self.cluster.steal_from_with_into(
                victim,
                granularity,
                &mut self.steal_rng,
                &mut self.steal_buf,
            );
            if !self.steal_buf.is_empty() {
                robbed = Some(victim);
                break;
            }
        }
        self.victim_buf = victims;
        let Some(victim) = robbed else {
            return;
        };
        self.steals += 1;
        // The topology prices the transfer (free under the paper's model,
        // §4.1) and records steal-locality counters for placement-aware
        // fabrics.
        let transfer = self.topology.steal_transfer(
            self.engine.now(),
            Endpoint::Server(victim),
            Endpoint::Server(thief),
        );
        if transfer.is_zero() {
            if let Some(action) = self.cluster.give_stolen_drain(thief, &mut self.steal_buf) {
                self.on_action(thief, action);
            }
        } else {
            // Park the group in a recycled pool slot while it is in
            // flight; the event carries only the 4-byte handle.
            let batch = self.stolen_pool.put(&mut self.steal_buf);
            self.engine.schedule(
                transfer,
                Event::StolenArrive {
                    server: thief,
                    batch,
                },
            );
        }
    }

    fn report(self) -> (MetricsReport, JobEstimates) {
        let cutoff = self.sim.cutoff;
        let mut makespan = SimTime::ZERO;
        // Sized once from the trace; the per-job completion check compiles
        // to a branch to a cold panic path instead of an `expect` in the
        // hot map.
        let mut results: Vec<JobResult> = Vec::with_capacity(self.trace.len());
        for job in self.trace.jobs() {
            let run = &self.jobs[job.id.index()];
            let Some(completion) = run.completion else {
                unreachable!("job {} unfinished at report time", job.id);
            };
            makespan = makespan.max(completion);
            results.push(JobResult {
                job: job.id,
                true_class: cutoff.classify(job.mean_task_duration()),
                scheduled_class: run.class,
                submission: job.submission,
                completion,
                num_tasks: job.num_tasks(),
            });
        }
        let report = MetricsReport {
            scheduler: self.scheduler.name(),
            nodes: self.sim.nodes,
            results,
            median_utilization: self.util.median().unwrap_or(0.0),
            max_utilization: self.util.max().unwrap_or(0.0),
            utilization_samples: self.util.samples().to_vec(),
            makespan,
            events: self.engine.processed(),
            steals: self.steals,
            steal_attempts: self.steal_attempts,
            migrations: self.migrations,
            abandons: self.abandons,
            network: self.topology.stats(),
            streaming: StreamingStats {
                short: StreamingSummary::from_sink(&self.short_sink),
                long: StreamingSummary::from_sink(&self.long_sink),
            },
            live: self.live.as_ref().map(LiveRecorder::report),
            admission: self
                .admission
                .as_ref()
                .map(AdmissionPlan::stats)
                .unwrap_or_default(),
        };
        (report, self.estimates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Centralized, Hawk, Sparrow, SplitCluster};
    use hawk_simcore::SimDuration;
    use hawk_workload::Job;

    /// A trace with explicit jobs for micro-level checks.
    fn tiny_trace(jobs: Vec<(u64, Vec<u64>)>) -> Trace {
        let jobs = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (at, tasks))| Job {
                id: JobId(i as u32),
                submission: SimTime::from_secs(at),
                tasks: tasks.into_iter().map(SimDuration::from_secs).collect(),
                generated_class: None,
            })
            .collect();
        Trace::new(jobs).unwrap()
    }

    fn run_arc(trace: &Trace, scheduler: Arc<dyn Scheduler>, nodes: usize) -> MetricsReport {
        let sim = SimConfig {
            nodes,
            ..SimConfig::default()
        };
        Driver::with_scheduler(trace, scheduler, &sim).run()
    }

    fn run(trace: &Trace, scheduler: impl Scheduler + 'static, nodes: usize) -> MetricsReport {
        run_arc(trace, Arc::new(scheduler), nodes)
    }

    #[test]
    fn single_short_job_runs_at_probe_latency() {
        // One 2-task job on 4 idle nodes under Sparrow: runtime is the task
        // duration plus probe (0.5 ms) + bind round trip (1 ms).
        let trace = tiny_trace(vec![(0, vec![10, 10])]);
        let report = run(&trace, Sparrow::new(), 4);
        let r = report.results[0];
        let runtime = r.runtime().as_secs_f64();
        assert!(
            (runtime - 10.0015).abs() < 1e-9,
            "runtime {runtime} != 10.0015"
        );
    }

    #[test]
    fn single_long_job_central_placement_has_one_way_latency() {
        // A long job placed centrally: placement message (0.5 ms), no bind
        // round trip.
        let trace = tiny_trace(vec![(0, vec![2000, 2000])]);
        let report = run(&trace, Hawk::new(0.25), 4);
        let r = report.results[0];
        assert_eq!(r.true_class, JobClass::Long);
        let runtime = r.runtime().as_secs_f64();
        assert!(
            (runtime - 2000.0005).abs() < 1e-9,
            "runtime {runtime} != 2000.0005"
        );
    }

    #[test]
    fn all_jobs_complete_under_every_scheduler() {
        let trace = tiny_trace(vec![
            (0, vec![5; 8]),
            (1, vec![2000; 6]),
            (2, vec![3, 4, 5]),
            (4, vec![1500, 1600]),
            (6, vec![1; 10]),
        ]);
        let schedulers: Vec<Arc<dyn Scheduler>> = vec![
            Arc::new(Hawk::new(0.25)),
            Arc::new(Sparrow::new()),
            Arc::new(Centralized::new()),
            Arc::new(SplitCluster::new(0.25)),
            Arc::new(Hawk::new(0.25).without_centralized()),
            Arc::new(Hawk::new(0.25).without_partition()),
            Arc::new(Hawk::new(0.25).without_stealing()),
        ];
        for scheduler in schedulers {
            let name = scheduler.name();
            let report = run_arc(&trace, scheduler, 8);
            assert_eq!(report.results.len(), 5, "{name}");
            for r in &report.results {
                assert!(r.completion >= r.submission);
            }
        }
    }

    #[test]
    fn centralized_balances_long_tasks() {
        // Two long jobs of 4 tasks each on 8 nodes: every task should land
        // on its own server (waiting-time queue balances), so each job's
        // runtime is its task duration + placement delay.
        let trace = tiny_trace(vec![(0, vec![2000; 4]), (0, vec![3000; 4])]);
        let report = run(&trace, Centralized::new(), 8);
        let r0 = report.results[0].runtime().as_secs_f64();
        let r1 = report.results[1].runtime().as_secs_f64();
        assert!((r0 - 2000.0005).abs() < 1e-9, "job0 runtime {r0}");
        assert!((r1 - 3000.0005).abs() < 1e-9, "job1 runtime {r1}");
    }

    #[test]
    fn head_of_line_blocking_without_stealing_and_rescue_with() {
        // 2 nodes, no short partition. A 2-task long job occupies both
        // servers; a short job then probes behind it. Without stealing it
        // waits for the long tasks; Hawk cannot steal either (no idle
        // server exists), so instead make the long job 1 task so one server
        // stays free to steal.
        let trace = tiny_trace(vec![(0, vec![2000]), (1, vec![10])]);
        // Force the short job's both probes onto the long job's server by
        // using a 1-node... not possible with 2 nodes; rely on seeds: with
        // 2 nodes, probes go to both servers, and the idle one binds
        // immediately. So instead verify end-to-end: the short job finishes
        // quickly under Hawk.
        let report = run(&trace, Hawk::new(0.5), 2);
        let short = report.results[1];
        assert!(short.runtime().as_secs_f64() < 100.0);
    }

    #[test]
    fn stealing_rescues_blocked_short_tasks() {
        // 10 nodes, 20 % short partition: the general partition (servers
        // 0..8) is filled by an 8-task, 5000 s long job placed centrally.
        // Five 4-task short jobs then probe the whole cluster; only the two
        // short-partition servers can execute them, so most short probes
        // queue behind the 5000 s tasks. Without stealing at least one
        // short job is blocked for thousands of seconds; with stealing the
        // short-partition servers rescue the blocked probes whenever they
        // go idle.
        let mut jobs = vec![(0, vec![5000u64; 8])];
        for i in 0..5 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let with_steal = run(&trace, Hawk::new(0.2), 10);
        let without = run(&trace, Hawk::new(0.2).without_stealing(), 10);
        let max_short = |r: &MetricsReport| {
            r.results[1..]
                .iter()
                .map(|j| j.runtime().as_secs_f64())
                .fold(0.0f64, f64::max)
        };
        let blocked = max_short(&without);
        let rescued = max_short(&with_steal);
        assert!(
            blocked > 1_000.0,
            "expected head-of-line blocking without stealing, got {blocked}"
        );
        assert!(
            rescued < 1_000.0,
            "stealing should rescue all short jobs: worst runtime {rescued}"
        );
        assert!(with_steal.steals > 0);
        assert_eq!(without.steals, 0);
    }

    #[test]
    fn split_cluster_confines_short_jobs() {
        // Short jobs probe only the reserved partition: with a huge long
        // job hogging the general partition, shorts still finish fast.
        let trace = tiny_trace(vec![(0, vec![5000; 4]), (0, vec![10, 10])]);
        let report = run(&trace, SplitCluster::new(0.5), 8);
        let short = report.results[1];
        assert!(short.runtime().as_secs_f64() < 50.0);
    }

    #[test]
    fn utilization_sampled_and_bounded() {
        let trace = tiny_trace(vec![(0, vec![200; 4]), (50, vec![200; 4])]);
        let report = run(&trace, Sparrow::new(), 4);
        assert!(!report.utilization_samples.is_empty());
        for &u in &report.utilization_samples {
            assert!((0.0..=1.0).contains(&u));
        }
        assert!(report.max_utilization > 0.0);
    }

    #[test]
    fn misestimation_changes_scheduled_class_not_true_class() {
        use hawk_workload::classify::MisestimateRange;
        // A job right above the cutoff: underestimated 0.5× it schedules
        // as short but reports as long.
        let trace = tiny_trace(vec![(0, vec![1200, 1200])]);
        let sim = SimConfig {
            nodes: 4,
            misestimate: Some(MisestimateRange { lo: 0.5, hi: 0.5 }),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.25)), &sim).run();
        let r = report.results[0];
        assert_eq!(r.true_class, JobClass::Long);
        assert_eq!(r.scheduled_class, JobClass::Short);
    }

    #[test]
    fn events_counted() {
        let trace = tiny_trace(vec![(0, vec![10, 10])]);
        let report = run(&trace, Sparrow::new(), 4);
        // 1 arrival + 4 probes + binds + finishes + util samples.
        assert!(report.events >= 10, "events {}", report.events);
    }

    #[test]
    fn single_node_cluster_serializes_everything() {
        // One server: every task queues FIFO; total makespan equals total
        // work plus binding overheads.
        let trace = tiny_trace(vec![(0, vec![10]), (0, vec![20]), (0, vec![30])]);
        let report = run(&trace, Sparrow::new(), 1);
        assert_eq!(report.results.len(), 3);
        let makespan = report.makespan.as_secs_f64();
        assert!(makespan >= 60.0, "makespan {makespan} below serial bound");
        assert!(makespan < 61.0, "makespan {makespan} has phantom idle time");
    }

    #[test]
    fn zero_duration_tasks_complete() {
        // Degenerate durations must not wedge the event loop.
        let trace = tiny_trace(vec![(0, vec![0, 0, 0]), (1, vec![0])]);
        let schedulers: Vec<Arc<dyn Scheduler>> = vec![
            Arc::new(Sparrow::new()),
            Arc::new(Hawk::new(0.25)),
            Arc::new(Centralized::new()),
        ];
        for scheduler in schedulers {
            let name = scheduler.name();
            let report = run_arc(&trace, scheduler, 4);
            assert_eq!(report.results.len(), 2, "{name}");
        }
    }

    #[test]
    fn simultaneous_arrivals_all_complete() {
        let trace = tiny_trace(vec![
            (5, vec![10, 10]),
            (5, vec![2_000]),
            (5, vec![7]),
            (5, vec![2_500, 2_500]),
        ]);
        let report = run(&trace, Hawk::new(0.25), 8);
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert_eq!(r.submission, SimTime::from_secs(5));
        }
    }

    #[test]
    fn probe_ratio_one_still_binds_every_task() {
        // Exactly t probes: no slack, every probe must bind (no cancels
        // for a lone job) and the job completes.
        let trace = tiny_trace(vec![(0, vec![10; 6])]);
        let report = run(&trace, Sparrow::new().probe_ratio(1.0), 12);
        assert_eq!(report.results.len(), 1);
        assert!(report.results[0].runtime().as_secs_f64() < 11.0);
    }

    #[test]
    fn more_tasks_than_cluster_completes_in_waves() {
        // 10 tasks of 10 s on 2 nodes: ≥ 5 serial waves.
        let trace = tiny_trace(vec![(0, vec![10; 10])]);
        let schedulers: Vec<Arc<dyn Scheduler>> =
            vec![Arc::new(Sparrow::new()), Arc::new(Centralized::new())];
        for scheduler in schedulers {
            let name = scheduler.name();
            let report = run_arc(&trace, scheduler, 2);
            let rt = report.results[0].runtime().as_secs_f64();
            assert!(rt >= 50.0, "{name}: runtime {rt}");
        }
    }

    #[test]
    fn steal_transfer_delay_still_delivers_entries() {
        use hawk_cluster::NetworkModel;
        use hawk_net::TopologySpec;
        // Same blocked-shorts scenario as the stealing test, but stolen
        // entries take 1 ms to move between queues.
        let mut jobs = vec![(0, vec![5_000u64; 8])];
        for i in 0..5 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let sim = SimConfig {
            nodes: 10,
            topology: TopologySpec::Constant(NetworkModel {
                steal_transfer_delay: SimDuration::from_millis(1),
                ..NetworkModel::paper_default()
            }),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.2)), &sim).run();
        assert!(report.steals > 0);
        let worst_short = report.results[1..]
            .iter()
            .map(|r| r.runtime().as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(
            worst_short < 1_000.0,
            "delayed steals failed: {worst_short}"
        );
    }

    #[test]
    fn utilization_counts_only_executing_servers() {
        // During the 1 ms bind round trip a server is not "running"; a
        // cluster of probing-only jobs shows bounded utilization samples.
        let trace = tiny_trace(vec![(0, vec![500; 4])]);
        let sim = SimConfig {
            nodes: 4,
            util_interval: SimDuration::from_secs(100),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        assert!(report.max_utilization <= 1.0);
        assert!(report.max_utilization >= 0.9, "4 busy servers expected");
    }

    #[test]
    fn probe_avoidance_bounces_off_long_work() {
        // 4 nodes, servers 0..3 general (no partition wrinkles): a 3-task
        // long job occupies servers 0–2; one free server remains. With
        // bouncing, a 1-task short job finds server 3 even when its probes
        // first land on long-occupied servers; the bounce limit guarantees
        // completion regardless.
        let trace = tiny_trace(vec![(0, vec![5_000, 5_000, 5_000]), (1, vec![10])]);
        let avoid = run(&trace, Hawk::new(0.0).probe_avoidance(4), 4);
        let short = avoid.results[1];
        assert!(
            short.runtime().as_secs_f64() < 100.0,
            "bounced probe should reach the free server: {}",
            short.runtime()
        );
    }

    #[test]
    fn probe_avoidance_limit_zero_matches_plain_hawk() {
        let trace = tiny_trace(vec![
            (0, vec![2_000; 4]),
            (1, vec![10, 10]),
            (2, vec![5; 3]),
        ]);
        let plain = run(&trace, Hawk::new(0.25), 8);
        let zero_limit = run(&trace, Hawk::new(0.25).probe_avoidance(0), 8);
        assert_eq!(plain.results, zero_limit.results);
    }

    #[test]
    fn probe_avoidance_all_long_cluster_still_completes() {
        // Every server holds long work: probes exhaust their bounce budget
        // and must queue anyway (liveness).
        let trace = tiny_trace(vec![(0, vec![3_000; 8]), (1, vec![10, 10])]);
        let report = run(&trace, Hawk::new(0.0).probe_avoidance(3), 4);
        assert_eq!(report.results.len(), 2);
    }

    #[test]
    fn central_overhead_serializes_placements() {
        use crate::config::CentralOverhead;
        // Two simultaneous long jobs, 1 s of decision cost each: the
        // second job's placement waits behind the first, so its runtime
        // grows by one extra second of queueing at the scheduler.
        let trace = tiny_trace(vec![(0, vec![2_000]), (0, vec![2_000])]);
        let overhead = CentralOverhead {
            per_job: SimDuration::from_secs(1),
            per_task: SimDuration::ZERO,
        };
        let sim = SimConfig {
            nodes: 4,
            central_overhead: overhead,
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Centralized::new()), &sim).run();
        let r0 = report.results[0].runtime().as_secs_f64();
        let r1 = report.results[1].runtime().as_secs_f64();
        assert!((r0 - 2001.0005).abs() < 1e-9, "job 0 runtime {r0}");
        assert!((r1 - 2002.0005).abs() < 1e-9, "job 1 runtime {r1}");
    }

    #[test]
    fn free_central_overhead_matches_paper_model() {
        use crate::config::CentralOverhead;
        let trace = tiny_trace(vec![(0, vec![2_000, 2_000]), (1, vec![1_500])]);
        let base = SimConfig {
            nodes: 4,
            ..SimConfig::default()
        };
        let hawk: Arc<dyn Scheduler> = Arc::new(Hawk::new(0.25));
        let paper = Driver::with_scheduler(&trace, hawk.clone(), &base).run();
        let explicit_free = Driver::with_scheduler(
            &trace,
            hawk,
            &SimConfig {
                central_overhead: CentralOverhead::FREE,
                ..base
            },
        )
        .run();
        assert_eq!(paper.results, explicit_free.results);
    }

    #[test]
    fn node_down_migrates_queued_work_and_drains_the_slot() {
        use hawk_workload::scenario::DynamicsScript;
        // 2 nodes, Sparrow: a 2-task job saturates both servers, a second
        // job queues behind them. Server 1 then fails: its queued probes
        // must migrate to server 0 and every job still completes.
        let trace = tiny_trace(vec![(0, vec![500, 500]), (1, vec![100, 100])]);
        let sim = SimConfig {
            nodes: 2,
            dynamics: DynamicsScript::none().down_at(SimTime::from_secs(10), 1),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        assert_eq!(report.results.len(), 2);
        assert!(
            report.migrations + report.abandons > 0,
            "server 1's queue held probes at failure"
        );
    }

    #[test]
    fn node_down_then_up_restores_capacity() {
        use hawk_workload::scenario::DynamicsScript;
        // One server fails before any work arrives and rejoins later;
        // jobs submitted during the outage run on the survivor.
        let trace = tiny_trace(vec![(5, vec![10, 10]), (100, vec![10, 10])]);
        let script = DynamicsScript::none()
            .down_at(SimTime::from_secs(1), 1)
            .up_at(SimTime::from_secs(50), 1);
        let sim = SimConfig {
            nodes: 2,
            dynamics: script,
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        assert_eq!(report.results.len(), 2);
        for r in &report.results {
            assert!(r.completion >= r.submission);
        }
    }

    #[test]
    fn central_placement_avoids_failed_servers() {
        use hawk_workload::scenario::DynamicsScript;
        // Centralized baseline on 4 nodes; servers 0 and 1 fail first. A
        // 2-task long job must land on servers 2 and 3 only.
        let trace = tiny_trace(vec![(10, vec![2_000, 2_000])]);
        let sim = SimConfig {
            nodes: 4,
            dynamics: DynamicsScript::none()
                .down_at(SimTime::from_secs(1), 0)
                .down_at(SimTime::from_secs(1), 1),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Centralized::new()), &sim).run();
        let r = report.results[0];
        // Two live servers, one task each: runtime = duration + one-way.
        let runtime = r.runtime().as_secs_f64();
        assert!(
            (runtime - 2000.0005).abs() < 1e-9,
            "tasks should run in parallel on the live servers: {runtime}"
        );
        assert_eq!(report.migrations, 0, "nothing was ever placed on 0/1");
    }

    #[test]
    #[should_panic(expected = "central scope has no live servers")]
    fn whole_central_scope_down_fails_loudly_instead_of_livelocking() {
        use hawk_workload::scenario::DynamicsScript;
        // Every server in the centralized baseline's scope fails while
        // tasks are queued: migration has nowhere to go. Without the
        // guard this ping-pongs TaskArrive ↔ relocate forever.
        let trace = tiny_trace(vec![(0, vec![1_000; 4])]);
        let sim = SimConfig {
            nodes: 2,
            dynamics: DynamicsScript::none()
                .down_at(SimTime::from_secs(1), 0)
                .down_at(SimTime::from_secs(1), 1),
            ..SimConfig::default()
        };
        Driver::with_scheduler(&trace, Arc::new(Centralized::new()), &sim).run();
    }

    #[test]
    fn dead_reservations_are_abandoned_not_migrated() {
        use hawk_workload::scenario::DynamicsScript;
        // Sparrow sends 2t probes; with one 1-task job on 4 nodes, one of
        // the two probes binds and the other stays queued somewhere. If
        // the server holding the spare reservation fails after the task
        // ran, the reservation is dead and must be abandoned.
        let trace = tiny_trace(vec![(0, vec![10_000])]);
        let mut down = DynamicsScript::none();
        for server in 0..3 {
            down = down.down_at(SimTime::from_secs(100), server);
        }
        let sim = SimConfig {
            nodes: 4,
            dynamics: down,
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.migrations, 0, "the job had no unlaunched tasks");
    }

    #[test]
    fn heterogeneous_speeds_stretch_runtimes() {
        use hawk_workload::scenario::SpeedSpec;
        // One 1-task job on a 1-server cluster at half speed: the task
        // occupies the slot twice as long.
        let trace = tiny_trace(vec![(0, vec![100])]);
        let sim = SimConfig {
            nodes: 1,
            speeds: SpeedSpec::PerServer(vec![0.5]),
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Sparrow::new()), &sim).run();
        let runtime = report.results[0].runtime().as_secs_f64();
        assert!(
            (runtime - 200.0015).abs() < 1e-6,
            "half-speed server should take 200 s: {runtime}"
        );
    }

    #[test]
    fn uniform_speed_spec_is_bit_identical_to_default() {
        use hawk_workload::scenario::SpeedSpec;
        let trace = tiny_trace(vec![(0, vec![5; 8]), (1, vec![2_000; 4]), (3, vec![7, 9])]);
        let base = SimConfig {
            nodes: 8,
            ..SimConfig::default()
        };
        let explicit = SimConfig {
            speeds: SpeedSpec::PerServer(vec![1.0; 8]),
            ..base.clone()
        };
        let a = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.25)), &base).run();
        let b = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.25)), &explicit).run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn churn_with_stealing_keeps_every_job_completing() {
        use hawk_workload::scenario::DynamicsScript;
        // A loaded Hawk cell with rolling churn across the general
        // partition: liveness under failures + stealing + migration.
        let mut jobs = vec![(0, vec![3_000u64; 6])];
        for i in 0..6 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let script = DynamicsScript::rolling(
            &[0, 1, 2],
            SimTime::from_secs(5),
            SimDuration::from_secs(40),
            SimDuration::from_secs(20),
            8,
        );
        let sim = SimConfig {
            nodes: 10,
            dynamics: script,
            ..SimConfig::default()
        };
        let report = Driver::with_scheduler(&trace, Arc::new(Hawk::new(0.2)), &sim).run();
        assert_eq!(report.results.len(), trace.len());
        for r in &report.results {
            assert!(r.completion >= r.submission);
        }
    }

    #[test]
    fn steal_granularities_all_complete_and_differ_in_steals() {
        use hawk_cluster::StealGranularity;
        // A loaded scenario with plenty of blocked shorts.
        let mut jobs = vec![(0, vec![5_000u64; 8])];
        for i in 0..6 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let mut steals = Vec::new();
        for granularity in [
            StealGranularity::FirstBlockedGroup,
            StealGranularity::RandomBlockedEntry,
            StealGranularity::AllBlockedShorts,
        ] {
            let report = run(&trace, Hawk::new(0.2).steal_granularity(granularity), 10);
            assert_eq!(report.results.len(), trace.len());
            // Short jobs must still be rescued under every policy.
            let worst_short = report.results[1..]
                .iter()
                .map(|r| r.runtime().as_secs_f64())
                .fold(0.0f64, f64::max);
            assert!(
                worst_short < 1_000.0,
                "{granularity:?} left shorts blocked: {worst_short}"
            );
            steals.push(report.steals);
        }
        // Random-single steals at finer granularity, so it needs at least
        // as many successful steals as the group policy.
        assert!(steals[1] >= steals[0]);
    }
}
