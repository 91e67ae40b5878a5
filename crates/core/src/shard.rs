//! Sharded parallel driver: conservative discrete-event simulation for
//! 100k+-node cells.
//!
//! [`ShardedDriver`] partitions the cluster into `K` contiguous shards.
//! Each shard owns a slice of servers and runs its own [`Engine`], RNG
//! streams, recycled buffers and topology instance; shards advance in
//! *epochs* bounded by a conservative lookahead horizon and exchange
//! messages only between epochs, through a deterministic merge. Epochs
//! are executed by a work-claiming pool: each epoch publishes the set
//! of *runnable* shards (those with an event below their horizon),
//! workers claim them one at a time from a shared queue, and whichever
//! worker reports the last result merges inline and publishes the next
//! epoch — no barrier, so an epoch that runs one shard costs one lock
//! round-trip, not a K-thread rendezvous. The result is deterministic
//! for a fixed shard count `K` regardless of how many OS threads
//! execute the shards — worker count is a pure throughput knob.
//!
//! # Synchronization contract
//!
//! Lookahead is a per-shard-pair matrix `D`, not one global constant.
//! The one-hop floor `Δ[i][j]` is the cheapest message any endpoint
//! hosted in shard `i` can deliver to shard `j`: under a rack-aligned
//! map on a fat tree this is [`TopologySpec::min_delay_between`] of the
//! two owned ranges (cross-pod pairs are far "wider apart" than
//! neighbours), otherwise the global
//! [`TopologySpec::min_message_delay`]. `D` is the shortest-*walk*
//! closure of `Δ` (Floyd–Warshall with an unreachable diagonal), so
//! `D[i][j]` also lower-bounds multi-epoch relay chains `i → m → j`,
//! and `D[j][j]` is the cheapest cycle by which shard `j`'s own
//! emission can come back to haunt it. Each epoch:
//!
//! 1. every *runnable* shard `j` (one with an event strictly below its
//!    horizon `H[j]`) processes its local events up to `H[j]`,
//!    buffering cross-shard messages in an outbox kept sorted by
//!    `(firing time, send sequence)`; shards with nothing below their
//!    horizon are skipped entirely;
//! 2. once every runnable shard has reported, the finishing worker
//!    k-way-merges the outbox streams in `(firing time, source shard,
//!    send sequence)` order — a total order independent of thread
//!    interleaving, and the exact order a concat-and-sort would
//!    produce — injecting each envelope directly into its destination
//!    engine without sorting or allocating;
//! 3. the next horizons are `H'[j] = min over i of t[i] + D[i][j]`,
//!    where `t[i]` is the firing time of shard `i`'s next pending event
//!    (re-peeked after injection, so delivered envelopes are counted).
//!
//! Any event shard `i` processes fires at `≥ t[i]`, so any message it
//! sends (or causes, transitively) into shard `j` arrives at
//! `≥ t[i] + D[i][j] ≥ H'[j]` — never inside the receiving shard's
//! processed past. Inbox injection therefore uses
//! [`Engine::try_schedule_at`], which turns any violation of this
//! argument into a hard error in **both** build profiles instead of the
//! release-mode clamp that would silently reorder causality.
//!
//! **Quiescence fast-path:** when exactly one shard has a pending event
//! (`t[i] = ∞` for every other `i`), no horizon can bind before that
//! shard emits — the merge publishes `H[j] = ∞` and the sole active
//! shard *free-runs*: it processes events without a horizon until it
//! emits a cross-shard envelope, finishes its last home job, or
//! exhausts a large event budget. Utilization sampling is lazy (see
//! below) so an idle shard's queue really is empty rather than ticking
//! a sampling clock, which is what lets the fast path fire.
//!
//! **Lazy utilization sampling:** the single-threaded driver schedules
//! a `UtilSample` event every `util_interval`. Here that would keep
//! every idle shard's `t[i]` finite forever (and a self-rescheduling
//! event would livelock a free-run), so samples are not events: each
//! shard records all sample points `≤ t` immediately before processing
//! an event at `t`, and catches up to its horizon at epoch end —
//! sound, because no arrival can land below the horizon, so the
//! sampled state cannot change there. Sample *values* are identical to
//! the eager scheme (cluster state only changes at events); sampled
//! events are no longer counted in `events`.
//!
//! # Shadow clusters
//!
//! Every shard holds a *full-size* [`Cluster`] and replays the complete
//! dynamics script, but only ever enqueues work on the servers it owns.
//! Global server ids therefore need no translation, liveness-aware
//! placement (`PlacementView`, victim filters) sees correct membership
//! everywhere, and non-owned servers simply look idle. The built-in
//! policies sample placement targets randomly, so an idle-looking
//! remote server is indistinguishable from a real one; a future
//! depth-aware policy would need shard-aware load views.
//!
//! # Rack-aligned partitioning
//!
//! When the topology exposes rack geometry
//! ([`TopologySpec::rack_geometry`]), the shard map aligns shard
//! boundaries to the largest geometry unit that still leaves at least
//! one unit per shard — pods when the cluster has enough of them,
//! racks otherwise, plain servers as the degenerate fallback. Racks are
//! then never split across shards, every shard pair sits a full
//! cross-rack (usually cross-pod) hop apart — which is exactly what
//! makes the lookahead matrix wide — and under rack-first stealing a
//! thief's rack-local victims are always shard-local. Distributed jobs
//! are homed on the shard that owns the host of their scheduler
//! endpoint (`job id mod nodes`) so every scheduler-source message
//! originates in its home shard and the per-pair floors apply to
//! scheduler traffic too; without geometry the home stays
//! `job id mod K`.
//!
//! # Divergences from the single-threaded [`Driver`]
//!
//! `shards = 1` run through [`ShardedDriver`] is event-for-event
//! identical to [`Driver`] *except* for the bookkeeping-message timing
//! below, which is why [`crate::Experiment::run`] routes `shards <= 1`
//! to [`Driver`] (byte-identical to every pinned golden digest) and
//! `K > 1` here. For `K > 1` the simulated system is the same, but:
//!
//! * task-completion bookkeeping travels server → scheduler as a
//!   message, so a job's recorded completion time is one network delay
//!   after its last task finished;
//! * relocation off a failed server detours through the deciding
//!   scheduler (central for tasks, the job's scheduler for probes)
//!   instead of moving point-to-point — probe re-probes are sent from
//!   the job's scheduler endpoint, not the failed server;
//! * an idle thief scans only shard-local victims synchronously; the
//!   remote victims from the same scan (up to four) are tried
//!   asynchronously one at a time, each failed request forwarding to
//!   the next candidate;
//! * each shard's topology instance tracks contention for the messages
//!   it sends, so contended fat-trees approximate global link state;
//! * per-shard RNG streams replace the global ones (split order below);
//! * utilization samples are taken lazily (identical values, different
//!   tail truncation at run end) and not counted as engine events.
//!
//! Headline metrics stay within a few percent of the single-threaded
//! driver (the conformance suite pins a bound); digests are comparable
//! only between runs with the same `K`.
//!
//! [`Driver`]: crate::Driver
//! [`TopologySpec::min_message_delay`]: hawk_net::TopologySpec::min_message_delay

use std::sync::{Arc, Condvar, Mutex};

use hawk_cluster::{Cluster, QueueEntry, ServerAction, ServerId, TaskSpec, UtilizationTracker};
use hawk_net::{Endpoint, NetworkStats, RackGeometry, Topology, TopologySpec};
use hawk_simcore::stats::StreamingQuantiles;
use hawk_simcore::{BatchHandle, BatchPool, Engine, SimDuration, SimRng, SimTime};
use hawk_workload::classify::{Cutoff, JobEstimates};
use hawk_workload::scenario::NodeChange;
use hawk_workload::{JobClass, JobId, Trace};

use crate::admission::{AdmissionDecision, AdmissionPlan};
use crate::centralized::CentralScheduler;
use crate::config::{Route, Scope, SimConfig};
use crate::live::LiveRecorder;
use crate::metrics::{JobResult, MetricsReport, ShardedStats, StreamingStats, StreamingSummary};
use crate::scheduler::{PlacementView, Scheduler, StealSpec};

/// The number of simulation worker threads the process should use, the
/// budget the sharded driver and [`crate::Sweep`] divide between cells
/// and shards.
///
/// Defaults to [`std::thread::available_parallelism`]; the
/// `HAWK_WORKER_BUDGET` environment variable overrides it explicitly
/// (clamped to at least 1). The override exists both to pin CI runners
/// to a known width and to stop oversubscription when several
/// simulations share a machine.
pub fn worker_budget() -> usize {
    if let Ok(raw) = std::env::var("HAWK_WORKER_BUDGET") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Contiguous-range shard map: shard `s` owns a run of server ids, with
/// boundaries aligned to multiples of `align` servers. With `align = 1`
/// (no topology geometry) the first `nodes % shards` shards are one
/// server larger — the original placement-blind map. With `align > 1`
/// the cluster is split into `ceil(nodes / align)` alignment units
/// (racks or pods) and whole units are dealt to shards the same way, so
/// no unit is ever split across a shard boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardMap {
    nodes: usize,
    shards: usize,
    align: usize,
}

impl ShardMap {
    #[cfg(test)]
    fn new(nodes: usize, shards: usize) -> Self {
        ShardMap::aligned(nodes, shards, 1)
    }

    fn aligned(nodes: usize, shards: usize, align: usize) -> Self {
        let align = align.max(1);
        let units = nodes.max(1).div_ceil(align);
        let shards = shards.clamp(1, units);
        ShardMap {
            nodes,
            shards,
            align,
        }
    }

    /// The alignment unit (servers per indivisible block) that keeps at
    /// least one block per shard: pods when the cluster has enough,
    /// racks otherwise, single servers as the degenerate fallback.
    fn pick_align(nodes: usize, shards: usize, geometry: Option<RackGeometry>) -> usize {
        let Some(geo) = geometry else { return 1 };
        let rack = geo.hosts_per_rack.max(1);
        let pod = rack * geo.racks_per_pod.max(1);
        if nodes.div_ceil(pod) >= shards.max(1) {
            pod
        } else if nodes.div_ceil(rack) >= shards.max(1) {
            rack
        } else {
            1
        }
    }

    /// Whether shard boundaries are aligned to topology geometry (and
    /// therefore scheduler endpoints are homed by owner, and the
    /// lookahead matrix may use per-pair range floors).
    fn rack_aligned(&self) -> bool {
        self.align > 1
    }

    fn units(&self) -> usize {
        self.nodes.max(1).div_ceil(self.align)
    }

    /// Owned id range of shard `s` as `[start, end)`.
    fn range(&self, s: usize) -> (u32, u32) {
        let units = self.units();
        let q = units / self.shards;
        let r = units % self.shards;
        let start_u = s * q + s.min(r);
        let len_u = q + usize::from(s < r);
        let start = (start_u * self.align).min(self.nodes);
        let end = ((start_u + len_u) * self.align).min(self.nodes);
        (start as u32, end as u32)
    }

    /// The shard owning server `id`.
    fn owner(&self, id: ServerId) -> usize {
        let units = self.units();
        let q = units / self.shards;
        let r = units % self.shards;
        let unit = (id.index() / self.align).min(units - 1);
        let wide = r * (q + 1);
        if unit < wide {
            unit / (q + 1)
        } else {
            r + (unit - wide) / q
        }
    }
}

/// A shard-local simulation event. Mirrors [`crate::driver::Event`] with
/// the cross-shard bookkeeping messages the single-threaded driver
/// performs as direct state access.
#[derive(Debug, Clone, Copy)]
enum SEvent {
    /// A job was submitted (scheduled only in its home shard).
    Arrival(JobId),
    /// A probe reached an owned server.
    Probe {
        server: ServerId,
        job: JobId,
        class: JobClass,
        bounces: u8,
    },
    /// A centrally-placed (or relocated) task reached an owned server.
    Task { server: ServerId, spec: TaskSpec },
    /// A server's task request reached the job's home shard.
    BindRequest { server: ServerId, job: JobId },
    /// The home shard's response reached the owned server.
    BindResponse {
        server: ServerId,
        task: Option<TaskSpec>,
    },
    /// The running task on an owned server completed.
    Finish { server: ServerId },
    /// Stolen entries reached an owned thief (handle into the shard's
    /// local batch pool; never crosses the wire as-is).
    Stolen {
        server: ServerId,
        batch: BatchHandle,
    },
    /// A remote thief asks the victim's owner for one steal scan.
    /// `rest` holds the thief's remaining remote candidates from the
    /// same victim scan (`u32::MAX`-padded): when the scan fails, the
    /// victim's owner forwards the request to `rest[0]` so one idle
    /// transition can try several remote victims without a round-trip
    /// through the thief.
    StealRequest {
        thief: ServerId,
        victim: ServerId,
        rest: [u32; 3],
    },
    /// A distributed job's task finished; counts down at the home shard.
    TaskDone { job: JobId },
    /// A central job's task finished; shard 0 updates the waiting-time
    /// bookkeeping and the job's completion state in one message.
    CentralTaskDone { job: JobId, server: ServerId },
    /// A task drained off a failed server asks shard 0 for a new home.
    TaskRelocate { from: ServerId, spec: TaskSpec },
    /// A probe drained off a failed server asks the job's home shard to
    /// re-probe or abandon it.
    ProbeRelocate {
        from: ServerId,
        job: JobId,
        class: JobClass,
    },
    /// The centralized scheduler's serial queue reaches this job.
    CentralPlace(JobId),
    /// Scripted dynamics, replayed in every shard's shadow cluster.
    NodeDown(ServerId),
    /// Scripted dynamics, replayed in every shard's shadow cluster.
    NodeUp(ServerId),
}

/// Sentinel padding for [`SEvent::StealRequest::rest`].
const NO_VICTIM: u32 = u32::MAX;

/// A cross-shard message payload.
#[derive(Debug)]
enum WireMsg {
    /// An ordinary event for the destination shard's engine.
    Ev(SEvent),
    /// A remote steal's stolen group. The only steady-state allocation
    /// of the sharded driver: remote steals carry their entries in an
    /// owned `Vec` (local steals stay in the recycled batch pool).
    Stolen {
        thief: ServerId,
        entries: Vec<QueueEntry>,
    },
}

/// A cross-shard message in flight between epochs.
#[derive(Debug)]
struct Envelope {
    at: SimTime,
    dest: u32,
    src: u32,
    /// Per-source send sequence; `(at, src, seq)` totally orders all
    /// envelopes of a run independently of thread interleaving.
    seq: u64,
    msg: WireMsg,
}

/// Per-job dynamic state; only the entry in the job's *home* shard is
/// authoritative.
#[derive(Debug, Clone, Copy)]
struct JobRun {
    class: JobClass,
    next_task: u32,
    remaining: u32,
    completion: Option<SimTime>,
}

/// One raw utilization sample of a shard's owned slice.
#[derive(Debug, Clone, Copy)]
struct UtilSampleRaw {
    running: u32,
    down_running: u32,
    owned_down: u32,
}

/// Shared state of one sharded run: the shards themselves (locked by
/// whichever worker claims them each epoch), the work queue driving the
/// epoch protocol, and the read-only lookahead matrix.
struct SharedState<'t> {
    shards: Vec<Mutex<Shard<'t>>>,
    work: Mutex<WorkQueue>,
    /// Parked workers wait here; signalled when an epoch with work for
    /// more than one thread is published, and at stop.
    available: Condvar,
    /// Shortest-walk closure of the per-shard-pair one-hop delay
    /// floors, row-major `[src * K + dst]`, raw microseconds. The
    /// diagonal is the cheapest cycle back to the shard itself (never
    /// zero), so a shard's own emissions bound its horizon too.
    delta: Vec<u64>,
    /// How many *peers* of the finishing worker are worth waking per
    /// epoch: the machine's available parallelism minus the one thread
    /// already running. Waking is purely a throughput heuristic (the
    /// finishing worker claims from the fresh schedule itself), so on
    /// a single-core host this is zero and surplus workers park for
    /// the whole run instead of forcing a context switch per epoch.
    wake_cap: usize,
}

/// The epoch scheduler. One mutex guards the whole epoch protocol:
/// workers claim runnable shards from it, report back when a shard has
/// run to its horizon, and the worker whose report completes the epoch
/// merges and publishes the next one *while still holding the lock* —
/// so in sparse phases (almost every epoch has exactly one runnable
/// shard) a single thread runs claim → shard → report → merge → claim
/// with two uncontended lock acquisitions per epoch and no barrier or
/// cross-thread handoff at all. Workers that find nothing to claim
/// park on the condvar and are only woken for epochs that actually
/// have work for a second thread.
struct WorkQueue {
    /// Shard ids with work this epoch (`t[j] < H[j]`), ascending.
    runnable: Vec<u32>,
    /// Claim cursor into `runnable`.
    next: usize,
    /// Shards claimed but not yet reported back.
    inflight: usize,
    /// Per-shard horizons, raw microseconds; `u64::MAX` is the
    /// free-run sentinel (quiescence fast-path).
    horizons: Vec<u64>,
    /// `t[i]`: shard `i`'s next pending event (`u64::MAX` = drained).
    t: Vec<u64>,
    /// Cached per-shard unfinished-home-job counts, plus their sum
    /// (maintained incrementally from epoch reports).
    unfinished: Vec<usize>,
    total_unfinished: usize,
    /// Shards whose outbox holds envelopes awaiting the merge.
    outbox_full: Vec<bool>,
    /// Per-source outbox streams, swapped in from the shards at merge.
    streams: Vec<Vec<Envelope>>,
    /// Read cursor per stream.
    cursors: Vec<usize>,
    /// Recycled per-destination delivery buffers.
    inboxes: Vec<Vec<Envelope>>,
    stopped: bool,
    /// Workers currently waiting on [`SharedState::available`].
    parked: usize,
    epochs: u64,
    merge_envelopes: u64,
    span_accum: u64,
    last_base: u64,
}

/// One shard: a slice of owned servers with its own engine, shadow
/// cluster, RNG streams and recycled buffers.
struct Shard<'t> {
    id: usize,
    map: ShardMap,
    own_start: u32,
    own_end: u32,
    trace: &'t Trace,
    scheduler: Arc<dyn Scheduler>,
    estimates: Arc<JobEstimates>,
    engine: Engine<SEvent>,
    cluster: Cluster,
    jobs: Vec<JobRun>,
    /// Present only on shard 0, which owns all centralized decisions.
    central: Option<CentralScheduler>,
    steal_spec: Option<StealSpec>,
    probe_rng: SimRng,
    steal_rng: SimRng,
    scenario_rng: SimRng,
    cutoff: Cutoff,
    central_overhead: crate::config::CentralOverhead,
    util_interval: SimDuration,
    /// Next lazy utilization sample point (see the module docs).
    next_sample: SimTime,
    /// Topology geometry for rack-first victim picking; `None` under
    /// placement-blind topologies.
    rack_geometry: Option<RackGeometry>,
    /// Shared admission plan (computed once, applied at home-shard
    /// arrivals); `None` runs byte-identically to the pre-admission
    /// driver.
    admission: Option<Arc<AdmissionPlan>>,
    /// Streaming runtime sink for home jobs whose true class is short.
    short_sink: StreamingQuantiles,
    /// Streaming runtime sink for home jobs whose true class is long.
    long_sink: StreamingQuantiles,
    /// Per-shard live-metrics recorder, closed lazily alongside
    /// utilization sampling (never an engine event — a self-rescheduling
    /// sample would break the quiescence free-run).
    live: Option<LiveRecorder>,
    unfinished_home: usize,
    steals: u64,
    steal_attempts: u64,
    migrations: u64,
    abandons: u64,
    /// Owned servers currently out of service (shadow failures of other
    /// shards' servers are not counted here).
    owned_down: usize,
    samples: Vec<UtilSampleRaw>,
    drain_buf: Vec<QueueEntry>,
    victim_scratch: Vec<usize>,
    victim_buf: Vec<ServerId>,
    steal_buf: Vec<QueueEntry>,
    stolen_pool: BatchPool<QueueEntry>,
    probe_buf: Vec<ServerId>,
    place_buf: Vec<ServerId>,
    central_ready: SimTime,
    topology: Box<dyn Topology>,
    outbox: Vec<Envelope>,
    out_seq: u64,
}

impl<'t> Shard<'t> {
    fn owns(&self, server: ServerId) -> bool {
        (self.own_start..self.own_end).contains(&(server.0))
    }

    /// Home shard of a *distributed* job. Under a rack-aligned map the
    /// home is the shard owning the host of the job's scheduler
    /// endpoint (`job id mod nodes`, see [`Endpoint::host`]), so every
    /// scheduler-source message originates in its home shard and the
    /// per-pair lookahead floors hold; otherwise jobs are dealt
    /// round-robin so scheduler-side work spreads evenly. Central jobs
    /// live on shard 0 (which owns host 0, the central endpoint).
    fn distributed_home(&self, job: JobId) -> usize {
        distributed_home(&self.map, job)
    }

    fn scope_range(&self, scope: Scope) -> (u32, usize) {
        let p = self.cluster.partition();
        match scope {
            Scope::Whole => (0, p.total()),
            Scope::General => (0, p.general_count()),
            Scope::ShortReserved => (p.general_count() as u32, p.short_count()),
        }
    }

    /// Routes an event: scheduled directly when `dest` is this shard,
    /// buffered in the outbox for the epoch merge otherwise.
    fn send_ev(&mut self, delay: SimDuration, dest: usize, ev: SEvent) {
        let at = self.engine.now() + delay;
        if dest == self.id {
            self.engine.schedule_at(at, ev);
        } else {
            self.out_seq += 1;
            self.outbox.push(Envelope {
                at,
                dest: dest as u32,
                src: self.id as u32,
                seq: self.out_seq,
                msg: WireMsg::Ev(ev),
            });
        }
    }

    /// Commits one epoch's merged inbox into the engine. Every envelope
    /// must fire at or after the local clock — the epoch horizon
    /// guarantees it, and `try_schedule_at` makes any violation a hard
    /// error in both build profiles.
    fn inject(&mut self, inbox: &mut Vec<Envelope>) {
        for env in inbox.drain(..) {
            let result = match env.msg {
                WireMsg::Ev(ev) => self.engine.try_schedule_at(env.at, ev),
                WireMsg::Stolen { thief, mut entries } => {
                    let batch = self.stolen_pool.put(&mut entries);
                    self.engine.try_schedule_at(
                        env.at,
                        SEvent::Stolen {
                            server: thief,
                            batch,
                        },
                    )
                }
            };
            if let Err(err) = result {
                panic!(
                    "cross-shard event delivered in shard {}'s past \
                     (epoch-horizon violation): {err}",
                    self.id
                );
            }
        }
    }

    /// Records every lazy utilization sample point at or before `limit`
    /// with the *current* cluster state. Callers guarantee no event
    /// below `limit` remains unprocessed, and state between events is
    /// constant, so the values match the single-threaded driver's eager
    /// `UtilSample` events (a sample coinciding with an event reads the
    /// pre-event state).
    fn sample_up_to(&mut self, limit: SimTime) {
        while self.next_sample <= limit {
            self.samples.push(UtilSampleRaw {
                running: self.cluster.running_count() as u32,
                down_running: self.cluster.down_running_count() as u32,
                owned_down: self.owned_down as u32,
            });
            self.next_sample += self.util_interval;
        }
        // Live-metrics windows close on the same lazy schedule. The
        // shadow cluster only ever runs owned tasks, so its utilization
        // is this shard's *share* of the whole-cluster occupancy —
        // [`LiveRecorder::merge`] sums the shares at report time.
        if let Some(live) = &mut self.live {
            live.close_up_to(
                limit,
                self.cluster.utilization(),
                self.steals,
                self.steal_attempts,
            );
        }
    }

    /// Processes every local event strictly below `horizon`, then
    /// catches utilization sampling up to the horizon (no cross-shard
    /// arrival can land below it, so the state there is final).
    fn run_until(&mut self, horizon: SimTime) {
        while let Some(t) = self.engine.peek_time() {
            if t >= horizon {
                break;
            }
            self.sample_up_to(t);
            let (_, ev) = self.engine.pop().expect("peeked event vanished");
            self.dispatch(ev);
        }
        self.sample_up_to(horizon);
    }

    /// The quiescence fast-path: this shard is the only one with a
    /// pending event, so nothing can interfere before it emits. Process
    /// events without a horizon until the first cross-shard envelope is
    /// buffered, the last home job completes (its queue may still be
    /// draining bookkeeping that another shard waits on), or a large
    /// budget runs out (a backstop bounding epoch length).
    fn run_free(&mut self) {
        const FREE_RUN_EVENT_BUDGET: u32 = 1 << 22;
        let entered_unfinished = self.unfinished_home > 0;
        let mut budget = FREE_RUN_EVENT_BUDGET;
        while let Some(t) = self.engine.peek_time() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            self.sample_up_to(t);
            let (_, ev) = self.engine.pop().expect("peeked event vanished");
            self.dispatch(ev);
            if !self.outbox.is_empty() || (entered_unfinished && self.unfinished_home == 0) {
                break;
            }
        }
    }

    fn dispatch(&mut self, event: SEvent) {
        match event {
            SEvent::Arrival(job) => self.on_job_arrival(job),
            SEvent::Probe {
                server,
                job,
                class,
                bounces,
            } => self.on_probe(server, job, class, bounces),
            SEvent::Task { server, spec } => {
                debug_assert!(self.owns(server));
                if self.cluster.is_down(server) {
                    self.relocate_task(server, spec);
                    return;
                }
                if let Some(action) = self.cluster.enqueue(server, QueueEntry::Task(spec)) {
                    self.on_action(server, action);
                }
            }
            SEvent::BindRequest { server, job } => self.on_bind_request(server, job),
            SEvent::BindResponse { server, task } => {
                debug_assert!(self.owns(server));
                let action = self.cluster.on_bind_response(server, task);
                self.on_action(server, action);
            }
            SEvent::Finish { server } => self.on_task_finish(server),
            SEvent::Stolen { server, batch } => self.on_stolen(server, batch),
            SEvent::StealRequest {
                thief,
                victim,
                rest,
            } => self.on_steal_request(thief, victim, rest),
            SEvent::TaskDone { job } => self.on_task_done(job),
            SEvent::CentralTaskDone { job, server } => {
                let estimate = self.estimates.estimate(job);
                self.central
                    .as_mut()
                    .expect("central bookkeeping lives on shard 0")
                    .on_task_complete(server, estimate);
                self.on_task_done(job);
            }
            SEvent::TaskRelocate { from, spec } => self.on_task_relocate(from, spec),
            SEvent::ProbeRelocate { from, job, class } => self.on_probe_relocate(from, job, class),
            SEvent::CentralPlace(job) => self.place_centrally(job),
            SEvent::NodeDown(server) => self.on_node_down(server),
            SEvent::NodeUp(server) => {
                if self.cluster.revive_server(server) {
                    if self.owns(server) {
                        self.owned_down -= 1;
                    }
                    if let Some(central) = &mut self.central {
                        if server.index() < central.scope() {
                            central.revive(server);
                        }
                    }
                }
            }
        }
    }

    fn on_job_arrival(&mut self, job: JobId) {
        // Admission control, applied at the home shard (`Arrival` only
        // ever fires there). The plan is a pure function of the
        // experiment inputs, so no RNG stream advances on any path and
        // admission-off runs are byte-identical to the classic digests.
        if let Some(plan) = &self.admission {
            match plan.decision(job) {
                AdmissionDecision::Admit => {
                    if let Some(live) = &mut self.live {
                        live.on_arrival();
                    }
                }
                AdmissionDecision::Defer { until } => {
                    let now = self.engine.now();
                    if now < until {
                        // First firing: postpone locally. The re-fire at
                        // `until` falls through without double-counting.
                        if let Some(live) = &mut self.live {
                            live.on_arrival();
                            live.on_deferral();
                        }
                        self.engine.schedule_at(until, SEvent::Arrival(job));
                        return;
                    }
                }
                AdmissionDecision::Shed => {
                    if let Some(live) = &mut self.live {
                        live.on_arrival();
                        live.on_shed();
                    }
                    let class = self.estimates.class(job, self.cutoff);
                    let run = &mut self.jobs[job.index()];
                    run.class = class;
                    run.completion = Some(self.engine.now());
                    self.unfinished_home -= 1;
                    return;
                }
            }
        } else if let Some(live) = &mut self.live {
            live.on_arrival();
        }
        let spec = self.trace.job(job);
        let class = self.estimates.class(job, self.cutoff);
        self.jobs[job.index()].class = class;
        match self.scheduler.route(class) {
            Route::Central(_) => {
                debug_assert_eq!(self.id, 0, "central jobs are homed on shard 0");
                if self.central_overhead.is_free() {
                    self.place_centrally(job);
                } else {
                    let now = self.engine.now();
                    let ready =
                        self.central_ready.max(now) + self.central_overhead.cost(spec.num_tasks());
                    self.central_ready = ready;
                    self.engine.schedule_at(ready, SEvent::CentralPlace(job));
                }
            }
            Route::Distributed(scope) => {
                let (start, len) = self.scope_range(scope);
                let view = PlacementView::new(&self.cluster, start, len);
                self.scheduler.probe_targets_into(
                    &view,
                    spec.num_tasks(),
                    &mut self.probe_rng,
                    &mut self.probe_buf,
                );
                let now = self.engine.now();
                let src = Endpoint::Scheduler(job.0);
                let targets = std::mem::take(&mut self.probe_buf);
                for &server in &targets {
                    let delay = self.topology.delay(now, src, Endpoint::Server(server));
                    let dest = self.map.owner(server);
                    self.send_ev(
                        delay,
                        dest,
                        SEvent::Probe {
                            server,
                            job,
                            class,
                            bounces: 0,
                        },
                    );
                }
                self.probe_buf = targets;
            }
        }
    }

    fn on_probe(&mut self, server: ServerId, job: JobId, class: JobClass, bounces: u8) {
        debug_assert!(self.owns(server));
        if self.cluster.is_down(server) {
            self.relocate_probe(server, job, class);
            return;
        }
        if self
            .scheduler
            .bounce_probe(self.cluster.server(server), class, bounces)
        {
            let scope = match self.scheduler.route(class) {
                Route::Distributed(scope) => scope,
                Route::Central(_) => unreachable!("probes imply a distributed route"),
            };
            let (start, len) = self.scope_range(scope);
            let retry =
                PlacementView::new(&self.cluster, start, len).random_server(&mut self.probe_rng);
            let delay = self.topology.delay(
                self.engine.now(),
                Endpoint::Server(server),
                Endpoint::Server(retry),
            );
            let dest = self.map.owner(retry);
            self.send_ev(
                delay,
                dest,
                SEvent::Probe {
                    server: retry,
                    job,
                    class,
                    bounces: bounces + 1,
                },
            );
            return;
        }
        if let Some(action) = self
            .cluster
            .enqueue(server, QueueEntry::Probe { job, class })
        {
            self.on_action(server, action);
        }
    }

    /// Runs the §3.7 placement for `job` on shard 0 and sends the tasks
    /// to their owners.
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
        let placements = std::mem::take(&mut self.place_buf);
        for (i, &server) in placements.iter().enumerate() {
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
            let dest = self.map.owner(server);
            self.send_ev(delay, dest, SEvent::Task { server, spec: task });
        }
        self.place_buf = placements;
    }

    /// A task stranded on a down server: ask shard 0's central scheduler
    /// for a new placement (one hop to the scheduler, one hop out — the
    /// single-threaded driver moves it point-to-point in one hop).
    fn relocate_task(&mut self, from: ServerId, spec: TaskSpec) {
        let delay =
            self.topology
                .delay(self.engine.now(), Endpoint::Server(from), Endpoint::Central);
        self.send_ev(delay, 0, SEvent::TaskRelocate { from, spec });
    }

    /// A probe stranded on a down server: its re-probe (or abandon)
    /// decision belongs to the job's home shard.
    fn relocate_probe(&mut self, from: ServerId, job: JobId, class: JobClass) {
        let home = self.distributed_home(job);
        let delay = self.topology.delay(
            self.engine.now(),
            Endpoint::Server(from),
            Endpoint::Scheduler(job.0),
        );
        self.send_ev(delay, home, SEvent::ProbeRelocate { from, job, class });
    }

    fn on_task_relocate(&mut self, from: ServerId, spec: TaskSpec) {
        let central = self
            .central
            .as_mut()
            .expect("directly-placed tasks imply a central scheduler");
        let target = central.least_loaded();
        assert!(
            !self.cluster.is_down(target),
            "central scope has no live servers to migrate a task to \
             (the dynamics script took down the entire scope)"
        );
        central.reassign(from, target, spec.estimate);
        self.migrations += 1;
        let delay = self.topology.delay(
            self.engine.now(),
            Endpoint::Central,
            Endpoint::Server(target),
        );
        let dest = self.map.owner(target);
        self.send_ev(
            delay,
            dest,
            SEvent::Task {
                server: target,
                spec,
            },
        );
    }

    fn on_probe_relocate(&mut self, _from: ServerId, job: JobId, class: JobClass) {
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
        let (start, len) = self.scope_range(scope);
        let target =
            PlacementView::new(&self.cluster, start, len).random_server(&mut self.scenario_rng);
        // The re-probe is sent from the job's scheduler endpoint — this
        // shard hosts it (the relocation already detoured here, see the
        // module docs) — not from the failed server, which may live in
        // a shard whose delay floors don't cover this send.
        let delay = self.topology.delay(
            self.engine.now(),
            Endpoint::Scheduler(job.0),
            Endpoint::Server(target),
        );
        let dest = self.map.owner(target);
        self.send_ev(
            delay,
            dest,
            SEvent::Probe {
                server: target,
                job,
                class,
                bounces: 0,
            },
        );
    }

    fn on_bind_request(&mut self, server: ServerId, job: JobId) {
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
        let dest = self.map.owner(server);
        self.send_ev(delay, dest, SEvent::BindResponse { server, task });
    }

    fn on_task_finish(&mut self, server: ServerId) {
        debug_assert!(self.owns(server));
        let now = self.engine.now();
        let (spec, action) = self.cluster.on_task_finish(server);
        let job = spec.job;
        if matches!(self.scheduler.route(spec.class), Route::Central(_)) {
            // Central jobs are homed on shard 0, which also owns the
            // waiting-time bookkeeping: one message covers both.
            let delay = self
                .topology
                .delay(now, Endpoint::Server(server), Endpoint::Central);
            self.send_ev(delay, 0, SEvent::CentralTaskDone { job, server });
        } else {
            let delay =
                self.topology
                    .delay(now, Endpoint::Server(server), Endpoint::Scheduler(job.0));
            let home = self.distributed_home(job);
            self.send_ev(delay, home, SEvent::TaskDone { job });
        }
        self.on_action(server, action);
    }

    fn on_task_done(&mut self, job: JobId) {
        let run = &mut self.jobs[job.index()];
        run.remaining -= 1;
        if run.remaining == 0 {
            let now = self.engine.now();
            run.completion = Some(now);
            self.unfinished_home -= 1;
            // Streaming runtime sinks, keyed by *true* class like the
            // exact per-class summaries (digest-excluded, RNG-free).
            let spec = self.trace.job(job);
            let true_class = self.cutoff.classify(spec.mean_task_duration());
            let micros = (now - spec.submission).as_micros();
            match true_class {
                JobClass::Short => self.short_sink.record(micros),
                JobClass::Long => self.long_sink.record(micros),
            }
            if let Some(live) = &mut self.live {
                live.on_completion(true_class, micros);
            }
        }
    }

    fn on_action(&mut self, server: ServerId, action: ServerAction) {
        match action {
            ServerAction::StartTask(spec) => {
                let occupancy = self.cluster.server(server).scale_duration(spec.duration);
                self.engine.schedule(occupancy, SEvent::Finish { server });
            }
            ServerAction::RequestBind { job } => {
                let delay = self.topology.delay(
                    self.engine.now(),
                    Endpoint::Server(server),
                    Endpoint::Scheduler(job.0),
                );
                let home = self.distributed_home(job);
                self.send_ev(delay, home, SEvent::BindRequest { server, job });
            }
            ServerAction::BecameIdle => self.try_steal(server),
        }
    }

    /// One steal attempt for an idle owned thief (§3.6). Victim draws
    /// use this shard's steal stream exactly like the single-threaded
    /// driver uses its global one (rack-first when the scheduler says
    /// so and the topology has geometry); shard-local victims are
    /// scanned synchronously in pick order, and if none yields a group,
    /// the remote victims from the same scan (up to four, in pick
    /// order) are chained into one asynchronous
    /// [`SEvent::StealRequest`] that each failed hop forwards onward.
    fn try_steal(&mut self, thief: ServerId) {
        let Some(spec) = self.steal_spec else { return };
        if self.cluster.is_down(thief) {
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
        // The long-work index only covers owned servers faithfully (the
        // shadow slices never enqueue), so it can short-circuit local
        // scans but not the remote attempt.
        let local_scan = self.cluster.long_holder_count() > 0;
        debug_assert!(self.steal_buf.is_empty(), "stale steal batch");
        let mut robbed = None;
        let mut remotes = [NO_VICTIM; 4];
        let mut remote_count = 0;
        for &victim in &victims {
            if !self.owns(victim) {
                if remote_count < remotes.len() {
                    remotes[remote_count] = victim.0;
                    remote_count += 1;
                }
                continue;
            }
            if !local_scan || !self.cluster.holds_long_work(victim) {
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
        if let Some(victim) = robbed {
            self.steals += 1;
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
                let batch = self.stolen_pool.put(&mut self.steal_buf);
                self.engine.schedule(
                    transfer,
                    SEvent::Stolen {
                        server: thief,
                        batch,
                    },
                );
            }
        } else if remote_count > 0 {
            let victim = ServerId(remotes[0]);
            let delay = self.topology.delay(
                self.engine.now(),
                Endpoint::Server(thief),
                Endpoint::Server(victim),
            );
            let dest = self.map.owner(victim);
            self.send_ev(
                delay,
                dest,
                SEvent::StealRequest {
                    thief,
                    victim,
                    rest: [remotes[1], remotes[2], remotes[3]],
                },
            );
        }
    }

    /// A remote thief's steal request against an owned victim. A failed
    /// scan forwards the request to the next candidate in `rest` (sent
    /// from the owned victim, so the per-pair delay floors hold); when
    /// the chain is exhausted no reply is sent, like an unsuccessful
    /// local scan.
    fn on_steal_request(&mut self, thief: ServerId, victim: ServerId, rest: [u32; 3]) {
        debug_assert!(self.owns(victim));
        let Some(spec) = self.steal_spec else { return };
        let useless = self.cluster.is_down(victim) || !self.cluster.holds_long_work(victim);
        if !useless {
            debug_assert!(self.steal_buf.is_empty(), "stale steal batch");
            self.cluster.steal_from_with_into(
                victim,
                spec.granularity,
                &mut self.steal_rng,
                &mut self.steal_buf,
            );
        }
        if useless || self.steal_buf.is_empty() {
            if rest[0] != NO_VICTIM {
                let next = ServerId(rest[0]);
                let delay = self.topology.delay(
                    self.engine.now(),
                    Endpoint::Server(victim),
                    Endpoint::Server(next),
                );
                let dest = self.map.owner(next);
                self.send_ev(
                    delay,
                    dest,
                    SEvent::StealRequest {
                        thief,
                        victim: next,
                        rest: [rest[1], rest[2], NO_VICTIM],
                    },
                );
            }
            return;
        }
        self.steals += 1;
        let now = self.engine.now();
        let transfer =
            self.topology
                .steal_transfer(now, Endpoint::Server(victim), Endpoint::Server(thief));
        let delay = self
            .topology
            .delay(now, Endpoint::Server(victim), Endpoint::Server(thief))
            + transfer;
        let entries: Vec<QueueEntry> = self.steal_buf.drain(..).collect();
        self.out_seq += 1;
        self.outbox.push(Envelope {
            at: now + delay,
            dest: self.map.owner(thief) as u32,
            src: self.id as u32,
            seq: self.out_seq,
            msg: WireMsg::Stolen { thief, entries },
        });
    }

    fn on_stolen(&mut self, server: ServerId, batch: BatchHandle) {
        debug_assert!(self.owns(server));
        self.stolen_pool.take_into(batch, &mut self.steal_buf);
        if self.cluster.is_down(server) {
            let mut group = std::mem::take(&mut self.steal_buf);
            for entry in group.drain(..) {
                match entry {
                    QueueEntry::Task(spec) => self.relocate_task(server, spec),
                    QueueEntry::Probe { job, class } => self.relocate_probe(server, job, class),
                }
            }
            self.steal_buf = group;
            return;
        }
        if let Some(action) = self.cluster.give_stolen_drain(server, &mut self.steal_buf) {
            self.on_action(server, action);
        }
    }

    fn on_node_down(&mut self, server: ServerId) {
        debug_assert!(self.drain_buf.is_empty(), "stale drain buffer");
        let mut drained = std::mem::take(&mut self.drain_buf);
        if !self.cluster.fail_server(server, &mut drained) {
            self.drain_buf = drained;
            return; // already down: duplicate script entry
        }
        if self.owns(server) {
            self.owned_down += 1;
        } else {
            debug_assert!(drained.is_empty(), "shadow server held queue entries");
        }
        if let Some(central) = &mut self.central {
            if server.index() < central.scope() {
                central.fail(server);
            }
        }
        for entry in drained.drain(..) {
            match entry {
                QueueEntry::Task(spec) => self.relocate_task(server, spec),
                QueueEntry::Probe { job, class } => self.relocate_probe(server, job, class),
            }
        }
        self.drain_buf = drained;
    }
}

/// The sharded parallel driver. Construct with [`ShardedDriver::new`],
/// consume with [`ShardedDriver::run`]; see the module docs for the
/// synchronization contract and the divergences from [`crate::Driver`].
pub struct ShardedDriver<'t> {
    shards: Vec<Shard<'t>>,
    trace: &'t Trace,
    scheduler: Arc<dyn Scheduler>,
    /// Home shard of every job, by job index.
    homes: Vec<u32>,
    /// Closure of the per-pair lookahead floors (see [`SharedState`]).
    delta: Vec<u64>,
    workers: usize,
    nodes: usize,
    cutoff: Cutoff,
    /// Empty until report time; built up front so a zero sampling
    /// interval is rejected before any shard runs.
    util: UtilizationTracker,
    stats: ShardedStats,
    /// Shared admission plan (also cloned into every shard); kept here
    /// for the report-time outcome counters.
    admission: Option<Arc<AdmissionPlan>>,
}

impl<'t> ShardedDriver<'t> {
    /// Builds a sharded driver for `sim.shards` shards (clamped to the
    /// node or alignment-unit count), defaulting the worker-thread
    /// count to `min(shards, worker_budget())`. When the topology
    /// exposes rack geometry the shard map aligns to it and the
    /// lookahead matrix uses per-pair range floors (module docs).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (like [`crate::Driver`]) and
    /// when any shard pair's minimum message delay is zero —
    /// conservative parallel execution requires positive lookahead.
    pub fn new(trace: &'t Trace, scheduler: Arc<dyn Scheduler>, sim: &SimConfig) -> Self {
        let util = UtilizationTracker::new(sim.util_interval);
        let spec = sim.topology_spec();
        let rack_geometry = spec.rack_geometry();
        let align = ShardMap::pick_align(sim.nodes, sim.shards.max(1), rack_geometry);
        let map = ShardMap::aligned(sim.nodes, sim.shards, align);
        let shards = map.shards;
        let delta = lookahead_closure(&spec, &map);

        // RNG split order (frozen, see ARCHITECTURE.md): root →
        // estimate stream → per shard s in 0..K: (probe_s, steal_s,
        // scenario_s). The estimate stream splits first so estimates
        // match the single-threaded driver bit-for-bit.
        let mut root = SimRng::seed_from_u64(sim.seed);
        let mut estimate_rng = root.split();
        let mut shard_rngs: Vec<(SimRng, SimRng, SimRng)> = (0..shards)
            .map(|_| (root.split(), root.split(), root.split()))
            .collect();

        let estimates = Arc::new(match sim.misestimate {
            Some(range) => JobEstimates::misestimated(trace, range, &mut estimate_rng),
            None => JobEstimates::exact(trace),
        });

        // One admission plan for the whole cell, shared by every shard:
        // a pure function of the experiment inputs, so the shards agree
        // on every decision without exchanging a single message.
        let admission = sim.admission.map(|policy| {
            Arc::new(AdmissionPlan::compute(
                trace,
                sim.nodes,
                sim.cutoff,
                &sim.dynamics,
                policy,
            ))
        });

        let speeds = sim.speeds.resolve(sim.nodes);
        let long_route = scheduler.route(JobClass::Long);
        let short_route = scheduler.route(JobClass::Short);

        // Home assignment is computable up front: class (and therefore
        // route) depends only on the precomputed estimates.
        let mut homes = Vec::with_capacity(trace.len());
        for job in trace.jobs() {
            let class = estimates.class(job.id, sim.cutoff);
            let home = match scheduler.route(class) {
                Route::Central(_) => 0,
                Route::Distributed(_) => distributed_home(&map, job.id),
            };
            homes.push(home as u32);
        }

        if let Some(max) = sim.dynamics.max_server() {
            assert!(
                (max as usize) < sim.nodes,
                "dynamics script touches server {max} but the cluster has {} servers",
                sim.nodes
            );
        }

        let max_tasks = trace
            .jobs()
            .iter()
            .map(|j| j.num_tasks())
            .max()
            .unwrap_or(0);

        let mut built = Vec::with_capacity(shards);
        for (s, rng_slot) in shard_rngs.iter_mut().enumerate() {
            let cluster = match &speeds {
                Some(speeds) => {
                    Cluster::with_speeds(sim.nodes, scheduler.short_partition_fraction(), speeds)
                }
                None => Cluster::new(sim.nodes, scheduler.short_partition_fraction()),
            };
            let partition = cluster.partition();
            for route in [long_route, short_route] {
                if let Route::Distributed(Scope::ShortReserved)
                | Route::Central(Scope::ShortReserved) = route
                {
                    assert!(
                        partition.short_count() > 0,
                        "route targets the short partition but none is reserved"
                    );
                }
            }
            // Centralized decisions (placement, waiting-time queue,
            // migration targets) all live on shard 0.
            let central = if s == 0 {
                central_scope(&long_route, &short_route).map(|scope| {
                    let len = match scope {
                        Scope::Whole => partition.total(),
                        Scope::General => partition.general_count(),
                        Scope::ShortReserved => {
                            unreachable!("central routes never target the short partition")
                        }
                    };
                    assert!(len > 0, "centralized route over an empty scope");
                    CentralScheduler::new(len)
                })
            } else {
                None
            };

            let mut engine = Engine::with_capacity(trace.len() * 2 / shards + 64);
            let mut unfinished_home = 0;
            for job in trace.jobs() {
                if homes[job.id.index()] as usize == s {
                    engine.schedule_at(job.submission, SEvent::Arrival(job.id));
                    unfinished_home += 1;
                }
            }
            // Every shard replays the full dynamics script so shadow
            // membership stays globally correct. Utilization sampling
            // is lazy, not an engine event (module docs).
            for scripted in sim.dynamics.events() {
                let event = match scripted.change {
                    NodeChange::Down(server) => SEvent::NodeDown(ServerId(server)),
                    NodeChange::Up(server) => SEvent::NodeUp(ServerId(server)),
                };
                engine.schedule_at(scripted.at, event);
            }

            let jobs = trace
                .jobs()
                .iter()
                .map(|j| JobRun {
                    class: JobClass::Short, // finalized at arrival
                    next_task: 0,
                    remaining: j.num_tasks() as u32,
                    completion: None,
                })
                .collect();

            let (probe_rng, steal_rng, scenario_rng) = (
                std::mem::replace(&mut rng_slot.0, SimRng::seed_from_u64(0)),
                std::mem::replace(&mut rng_slot.1, SimRng::seed_from_u64(0)),
                std::mem::replace(&mut rng_slot.2, SimRng::seed_from_u64(0)),
            );
            let (own_start, own_end) = map.range(s);
            built.push(Shard {
                id: s,
                map,
                own_start,
                own_end,
                trace,
                scheduler: Arc::clone(&scheduler),
                estimates: Arc::clone(&estimates),
                engine,
                cluster,
                jobs,
                central,
                steal_spec: scheduler.steal(),
                probe_rng,
                steal_rng,
                scenario_rng,
                cutoff: sim.cutoff,
                central_overhead: sim.central_overhead,
                util_interval: sim.util_interval,
                next_sample: SimTime::ZERO + sim.util_interval,
                rack_geometry,
                admission: admission.clone(),
                short_sink: StreamingQuantiles::new(),
                long_sink: StreamingQuantiles::new(),
                live: sim.live_window.map(LiveRecorder::new),
                unfinished_home,
                steals: 0,
                steal_attempts: 0,
                migrations: 0,
                abandons: 0,
                owned_down: 0,
                samples: Vec::with_capacity(256),
                drain_buf: Vec::with_capacity(4 * max_tasks + 64),
                victim_scratch: Vec::new(),
                victim_buf: Vec::new(),
                steal_buf: Vec::with_capacity(64),
                stolen_pool: BatchPool::new(),
                probe_buf: Vec::with_capacity(4 * max_tasks + 8),
                place_buf: Vec::with_capacity(max_tasks),
                central_ready: SimTime::ZERO,
                topology: sim.topology_spec().build(sim.nodes),
                outbox: Vec::new(),
                out_seq: 0,
            });
        }

        ShardedDriver {
            shards: built,
            trace,
            scheduler,
            homes,
            delta,
            workers: worker_budget().clamp(1, shards),
            nodes: sim.nodes,
            cutoff: sim.cutoff,
            util,
            stats: ShardedStats::default(),
            admission,
        }
    }

    /// Overrides the number of OS worker threads (clamped to
    /// `1..=shards`). Results are identical for every worker count; the
    /// determinism suite pins it.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.clamp(1, self.shards.len());
        self
    }

    /// The number of shards this driver was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Runs the simulation to completion and reports merged metrics.
    ///
    /// # Panics
    ///
    /// Panics if every event queue drains before all jobs complete, or
    /// if a cross-shard message violates the epoch-horizon contract.
    pub fn run(mut self) -> MetricsReport {
        let shard_count = self.shards.len();
        let total_unfinished: usize = self.shards.iter().map(|s| s.unfinished_home).sum();
        if total_unfinished > 0 {
            let t: Vec<u64> = self
                .shards
                .iter()
                .map(|s| s.engine.peek_time().map_or(u64::MAX, SimTime::as_micros))
                .collect();
            let base = t.iter().copied().min().expect("at least one shard");
            assert!(base != u64::MAX, "unfinished jobs but no pending events");
            let mut wq = WorkQueue {
                runnable: Vec::with_capacity(shard_count),
                next: 0,
                inflight: 0,
                horizons: vec![0; shard_count],
                unfinished: self.shards.iter().map(|s| s.unfinished_home).collect(),
                total_unfinished,
                outbox_full: vec![false; shard_count],
                streams: (0..shard_count).map(|_| Vec::new()).collect(),
                cursors: vec![0; shard_count],
                inboxes: (0..shard_count).map(|_| Vec::new()).collect(),
                t,
                stopped: false,
                parked: 0,
                epochs: 0,
                merge_envelopes: 0,
                span_accum: 0,
                last_base: base,
            };
            let delta = std::mem::take(&mut self.delta);
            publish_schedule(&mut wq, &delta);
            // Shards are claimed per epoch, not statically assigned:
            // any worker may run any shard, and the merge order depends
            // only on epoch content, so every worker count yields
            // identical results.
            let shared = SharedState {
                shards: self.shards.drain(..).map(Mutex::new).collect(),
                work: Mutex::new(wq),
                available: Condvar::new(),
                delta,
                wake_cap: std::thread::available_parallelism()
                    .map_or(1, std::num::NonZeroUsize::get)
                    .saturating_sub(1),
            };
            let shared_ref = &shared;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.workers)
                    .map(|_| scope.spawn(move || worker_loop(shared_ref)))
                    .collect();
                for handle in handles {
                    handle.join().expect("shard worker panicked");
                }
            });
            self.shards = shared
                .shards
                .into_iter()
                .map(|m| m.into_inner().expect("shard poisoned"))
                .collect();
            let wq = shared.work.into_inner().expect("work queue poisoned");
            self.stats = ShardedStats {
                epochs: wq.epochs,
                merge_envelopes: wq.merge_envelopes,
                avg_epoch_span_micros: wq.span_accum / wq.epochs.max(1),
            };
        }
        self.report()
    }

    fn report(self) -> MetricsReport {
        let cutoff = self.cutoff;
        let mut makespan = SimTime::ZERO;
        let mut results: Vec<JobResult> = Vec::with_capacity(self.trace.len());
        for job in self.trace.jobs() {
            let home = self.homes[job.id.index()] as usize;
            let run = &self.shards[home].jobs[job.id.index()];
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

        // Merge utilization: every shard samples on the same schedule,
        // so sample i exists in all shards (truncate defensively) and
        // the cluster-wide ratio is the summed numerator over the
        // summed usable capacity of the owned slices.
        let mut util = self.util;
        let sample_count = self
            .shards
            .iter()
            .map(|s| s.samples.len())
            .min()
            .unwrap_or(0);
        for i in 0..sample_count {
            let mut running = 0u64;
            let mut usable = 0u64;
            for shard in &self.shards {
                let sample = shard.samples[i];
                let own_len = (shard.own_end - shard.own_start) as u64;
                running += sample.running as u64;
                usable += own_len - sample.owned_down as u64 + sample.down_running as u64;
            }
            util.record(running as f64 / usable.max(1) as f64);
        }

        let mut network = NetworkStats::default();
        for shard in &self.shards {
            let stats = shard.topology.stats();
            network.rack_local_msgs += stats.rack_local_msgs;
            network.cross_rack_msgs += stats.cross_rack_msgs;
            network.cross_pod_msgs += stats.cross_pod_msgs;
            network.rack_local_steals += stats.rack_local_steals;
            network.steal_transfers += stats.steal_transfers;
        }

        // Merging the per-shard streaming sinks is exact: the merged
        // histogram is bit-identical to one global sink fed the same
        // runtimes, so the summary carries the same `1/128` guarantee.
        let mut short_sink = StreamingQuantiles::new();
        let mut long_sink = StreamingQuantiles::new();
        for shard in &self.shards {
            short_sink.merge(&shard.short_sink);
            long_sink.merge(&shard.long_sink);
        }
        let recorders: Vec<&LiveRecorder> =
            self.shards.iter().filter_map(|s| s.live.as_ref()).collect();
        let live = (!recorders.is_empty()).then(|| LiveRecorder::merge(&recorders));

        MetricsReport {
            scheduler: self.scheduler.name(),
            nodes: self.nodes,
            results,
            median_utilization: util.median().unwrap_or(0.0),
            max_utilization: util.max().unwrap_or(0.0),
            utilization_samples: util.samples().to_vec(),
            makespan,
            events: self.shards.iter().map(|s| s.engine.processed()).sum(),
            steals: self.shards.iter().map(|s| s.steals).sum(),
            steal_attempts: self.shards.iter().map(|s| s.steal_attempts).sum(),
            migrations: self.shards.iter().map(|s| s.migrations).sum(),
            abandons: self.shards.iter().map(|s| s.abandons).sum(),
            network,
            sharded: Some(self.stats),
            streaming: StreamingStats {
                short: StreamingSummary::from_sink(&short_sink),
                long: StreamingSummary::from_sink(&long_sink),
            },
            live,
            admission: self
                .admission
                .as_ref()
                .map(|plan| plan.stats())
                .unwrap_or_default(),
        }
    }
}

/// Home shard of a distributed job under `map`
/// (see [`Shard::distributed_home`]).
fn distributed_home(map: &ShardMap, job: JobId) -> usize {
    if map.rack_aligned() {
        map.owner(ServerId((job.index() % map.nodes.max(1)) as u32))
    } else {
        job.index() % map.shards
    }
}

/// Builds the lookahead matrix: per-pair one-hop delay floors closed
/// under shortest walks (Floyd–Warshall), row-major `[src * K + dst]`,
/// raw microseconds. Under a rack-aligned map the one-hop floor of a
/// pair is the minimum delay between the two owned host ranges (every
/// endpoint hosted in shard `i` — servers by ownership, schedulers by
/// the homing rule — maps to a host in `i`'s range); otherwise
/// scheduler endpoints are scattered and only the global minimum is a
/// valid floor. The closed diagonal is the cheapest cycle through each
/// shard, bounding the feedback of a shard's own emissions.
///
/// # Panics
///
/// Panics when any one-hop floor is zero: conservative parallel
/// execution requires positive lookahead.
fn lookahead_closure(spec: &TopologySpec, map: &ShardMap) -> Vec<u64> {
    let k = map.shards;
    let global = spec.min_message_delay().as_micros();
    let mut delta = vec![u64::MAX; k * k];
    for i in 0..k {
        for j in 0..k {
            if i == j {
                continue;
            }
            let floor = if map.rack_aligned() {
                let (a0, a1) = map.range(i);
                let (b0, b1) = map.range(j);
                spec.min_delay_between((a0 as usize, a1 as usize), (b0 as usize, b1 as usize))
                    .as_micros()
            } else {
                global
            };
            assert!(
                floor > 0,
                "sharded execution requires a positive minimum network delay \
                 between shards {i} and {j} (the lookahead of conservative \
                 parallel simulation)"
            );
            delta[i * k + j] = floor;
        }
    }
    for m in 0..k {
        for i in 0..k {
            let im = delta[i * k + m];
            if im == u64::MAX {
                continue;
            }
            for j in 0..k {
                let mj = delta[m * k + j];
                if mj == u64::MAX {
                    continue;
                }
                let via = im.saturating_add(mj);
                if via < delta[i * k + j] {
                    delta[i * k + j] = via;
                }
            }
        }
    }
    delta
}

/// Publishes the next epoch's schedule from the merged `t` vector:
/// horizon `H[j] = min over i of t[i] + D[i][j]`, or the `u64::MAX`
/// free-run sentinel for everyone when at most one shard has anything
/// pending (the quiescence fast-path — with no second actor, no bound
/// binds before the sole active shard emits). Only shards with work
/// strictly below their horizon enter the runnable list; the rest are
/// skipped outright — their lazy utilization samples catch up with
/// identical values once they do run, so skipping is invisible.
fn publish_schedule(wq: &mut WorkQueue, delta: &[u64]) {
    let k = wq.t.len();
    let active = wq.t.iter().filter(|&&ti| ti != u64::MAX).count();
    wq.runnable.clear();
    wq.next = 0;
    for j in 0..k {
        let horizon = if active > 1 {
            (0..k)
                .map(|i| wq.t[i].saturating_add(delta[i * k + j]))
                .min()
                .expect("at least one shard")
        } else {
            u64::MAX
        };
        wq.horizons[j] = horizon;
        if wq.t[j] < horizon {
            wq.runnable.push(j as u32);
        }
    }
}

/// The single scope used by centralized routes, if any (mirrors the
/// single-threaded driver's rule).
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

/// One worker's claim loop. All workers run the same loop: claim the
/// next runnable shard under the work lock, run it to its horizon
/// under its own shard lock, report back under the work lock. The
/// worker whose report completes the epoch merges inline (still
/// holding the work lock) and publishes the next schedule, then loops
/// straight into claiming — so a sparse epoch (one runnable shard)
/// costs one work-lock round and one shard-lock round, with every
/// other worker parked on the condvar.
///
/// Lock order is always work → shard: the claim path drops the work
/// lock before locking its shard, and the done-report drops the shard
/// lock before re-taking the work lock; only the merge holds both,
/// and it is the sole holder of the work lock at that moment.
fn worker_loop(shared: &SharedState<'_>) {
    let mut guard = shared.work.lock().expect("work queue poisoned");
    loop {
        if guard.stopped {
            return;
        }
        if guard.next < guard.runnable.len() {
            let id = guard.runnable[guard.next] as usize;
            guard.next += 1;
            guard.inflight += 1;
            let horizon = guard.horizons[id];
            drop(guard);
            let (next_micros, unfinished, outbox_full) = {
                let mut shard = shared.shards[id].lock().expect("shard poisoned");
                if horizon == u64::MAX {
                    shard.run_free();
                } else {
                    shard.run_until(SimTime::from_micros(horizon));
                }
                // Keep the outbox a sorted stream for the k-way merge.
                // Under constant delays it already is (pdqsort detects
                // the run in O(n)); topology delays can reorder.
                shard
                    .outbox
                    .sort_unstable_by_key(|env| (env.at.as_micros(), env.seq));
                (
                    shard
                        .engine
                        .peek_time()
                        .map_or(u64::MAX, SimTime::as_micros),
                    shard.unfinished_home,
                    !shard.outbox.is_empty(),
                )
            };
            guard = shared.work.lock().expect("work queue poisoned");
            let wq = &mut *guard;
            wq.t[id] = next_micros;
            wq.total_unfinished += unfinished;
            wq.total_unfinished -= wq.unfinished[id];
            wq.unfinished[id] = unfinished;
            wq.outbox_full[id] = outbox_full;
            wq.inflight -= 1;
            if wq.inflight == 0 && wq.next == wq.runnable.len() {
                merge_epoch(shared, wq);
                if wq.stopped {
                    shared.available.notify_all();
                    return;
                }
                // Waking peers is a throughput heuristic, never a
                // correctness requirement: this worker claims from the
                // fresh schedule itself on the next loop iteration.
                let wake = shared
                    .wake_cap
                    .min(wq.parked)
                    .min(wq.runnable.len().saturating_sub(1));
                for _ in 0..wake {
                    shared.available.notify_one();
                }
            }
        } else {
            guard.parked += 1;
            guard = shared.available.wait(guard).expect("work queue poisoned");
            guard.parked -= 1;
        }
    }
}

/// The zero-sort merge core: drains the per-source outbox `streams`
/// (each already sorted by `(firing time, send sequence)`) into the
/// per-destination `inboxes` in global `(firing time, source shard,
/// send sequence)` order — exactly what concatenating every stream and
/// sorting by that key would produce, without sorting or allocating.
/// `cursors[src]` must be zeroed for every non-empty stream. Returns
/// the number of envelopes moved.
///
/// Linear argmin over the stream heads: k is small (≤ tens), so this
/// beats a binary heap and keeps the order trivially equal to the sort
/// key. Consumed slots are back-filled with an inert placeholder
/// instead of shifting the stream.
fn kway_merge_streams(
    streams: &mut [Vec<Envelope>],
    cursors: &mut [usize],
    inboxes: &mut [Vec<Envelope>],
) -> u64 {
    let mut moved = 0u64;
    loop {
        let mut best: Option<(usize, (u64, u32, u64))> = None;
        for (src, stream) in streams.iter().enumerate() {
            if let Some(env) = stream.get(cursors[src]) {
                let key = (env.at.as_micros(), env.src, env.seq);
                if best.is_none_or(|(_, bk)| key < bk) {
                    best = Some((src, key));
                }
            }
        }
        let Some((src, _)) = best else { break };
        let env = std::mem::replace(
            &mut streams[src][cursors[src]],
            Envelope {
                at: SimTime::ZERO,
                dest: 0,
                src: 0,
                seq: 0,
                msg: WireMsg::Ev(SEvent::TaskDone { job: JobId(0) }),
            },
        );
        cursors[src] += 1;
        moved += 1;
        inboxes[env.dest as usize].push(env);
    }
    moved
}

/// The epoch merge, run inline by whichever worker finished the epoch
/// (the work lock is held throughout). K-way-merges the sorted outbox
/// streams in `(firing time, source shard, send sequence)` order —
/// exactly the order the old concat-and-sort produced, so per-inbox
/// envelope order is unchanged — injects them directly into the
/// destination engines, then publishes the next schedule (or stops).
/// Epochs that moved no envelopes skip the merge machinery entirely,
/// which is the common case for sparse workloads.
fn merge_epoch(shared: &SharedState<'_>, wq: &mut WorkQueue) {
    if wq.total_unfinished == 0 {
        wq.stopped = true;
        return;
    }
    let k = wq.t.len();
    if wq.runnable.iter().any(|&id| wq.outbox_full[id as usize]) {
        for r in 0..wq.runnable.len() {
            let id = wq.runnable[r] as usize;
            if !wq.outbox_full[id] {
                continue;
            }
            wq.outbox_full[id] = false;
            let mut shard = shared.shards[id].lock().expect("shard poisoned");
            debug_assert!(wq.streams[id].is_empty(), "stale merge stream");
            std::mem::swap(&mut wq.streams[id], &mut shard.outbox);
            wq.cursors[id] = 0;
        }
        wq.merge_envelopes += kway_merge_streams(&mut wq.streams, &mut wq.cursors, &mut wq.inboxes);
        for dest in 0..k {
            if wq.inboxes[dest].is_empty() {
                continue;
            }
            let mut shard = shared.shards[dest].lock().expect("shard poisoned");
            let mut inbox = std::mem::take(&mut wq.inboxes[dest]);
            shard.inject(&mut inbox);
            // Hand the drained Vec back so the next epoch reuses its
            // capacity, and re-peek: injected envelopes may precede
            // the engine's previous head.
            wq.inboxes[dest] = inbox;
            wq.t[dest] = shard
                .engine
                .peek_time()
                .map_or(u64::MAX, SimTime::as_micros);
        }
        for s in &mut wq.streams {
            s.clear();
        }
    }
    let base = wq.t.iter().copied().min().expect("at least one shard");
    assert!(
        base != u64::MAX,
        "event queues drained with {} unfinished jobs",
        wq.total_unfinished
    );
    wq.epochs += 1;
    wq.span_accum += base.saturating_sub(wq.last_base);
    wq.last_base = base;
    publish_schedule(wq, &shared.delta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Centralized, Hawk, Sparrow, SplitCluster};
    use hawk_workload::Job;

    #[test]
    fn shard_map_ranges_partition_every_cluster() {
        for nodes in [1usize, 2, 3, 7, 10, 100, 101] {
            for shards in [1usize, 2, 3, 4, 7, 16, 200] {
                let map = ShardMap::new(nodes, shards);
                assert!(map.shards >= 1 && map.shards <= nodes.max(1));
                let mut next = 0u32;
                for s in 0..map.shards {
                    let (start, end) = map.range(s);
                    assert_eq!(start, next, "nodes={nodes} shards={shards} s={s}");
                    assert!(end > start, "empty shard: nodes={nodes} shards={shards}");
                    for id in start..end {
                        assert_eq!(
                            map.owner(ServerId(id)),
                            s,
                            "nodes={nodes} shards={shards} id={id}"
                        );
                    }
                    next = end;
                }
                assert_eq!(next as usize, nodes);
            }
        }
    }

    /// Exhaustive rack-alignment partition math: with `align > 1` no
    /// alignment unit (rack or pod) is ever split across a shard
    /// boundary — every boundary except the cluster end is a multiple
    /// of `align` — the ranges still tile the cluster exactly, whole
    /// units are dealt as evenly as possible (unit counts differ by at
    /// most one), and the trailing partial unit (the remainder rack)
    /// stays glued to the last shard.
    #[test]
    fn aligned_shard_map_never_splits_a_unit() {
        for nodes in [1usize, 4, 15, 16, 17, 63, 64, 65, 100, 1000, 1001] {
            for shards in [1usize, 2, 3, 4, 7, 16] {
                for align in [1usize, 4, 16, 128] {
                    let map = ShardMap::aligned(nodes, shards, align);
                    let ctx = format!("nodes={nodes} shards={shards} align={align}");
                    assert!(map.shards >= 1, "{ctx}");
                    assert!(map.shards <= nodes.max(1).div_ceil(align), "{ctx}");
                    let mut next = 0u32;
                    let mut unit_counts = Vec::new();
                    for s in 0..map.shards {
                        let (start, end) = map.range(s);
                        assert_eq!(start, next, "{ctx} s={s}: ranges must tile");
                        assert!(end > start, "{ctx} s={s}: empty shard");
                        assert_eq!(
                            start as usize % align,
                            0,
                            "{ctx} s={s}: start splits a unit"
                        );
                        if (end as usize) < nodes {
                            assert_eq!(
                                end as usize % align,
                                0,
                                "{ctx} s={s}: boundary splits a unit"
                            );
                        }
                        unit_counts.push((end as usize - start as usize).div_ceil(align));
                        for id in start..end {
                            assert_eq!(map.owner(ServerId(id)), s, "{ctx} id={id}");
                        }
                        next = end;
                    }
                    assert_eq!(next as usize, nodes, "{ctx}: ranges must cover");
                    let lo = unit_counts.iter().min().unwrap();
                    let hi = unit_counts.iter().max().unwrap();
                    assert!(hi - lo <= 1, "{ctx}: uneven deal {unit_counts:?}");
                }
            }
        }
    }

    /// The alignment-unit picker prefers the coarsest geometry that
    /// still gives every shard at least one block: pods, then racks,
    /// then single servers.
    #[test]
    fn pick_align_prefers_pods_then_racks() {
        let geo = RackGeometry {
            hosts_per_rack: 16,
            racks_per_pod: 8,
        };
        // 1024 hosts = 8 pods: enough pods for 4 shards.
        assert_eq!(ShardMap::pick_align(1024, 4, Some(geo)), 128);
        // But not for 16 shards; 64 racks are plenty.
        assert_eq!(ShardMap::pick_align(1024, 16, Some(geo)), 16);
        // 48 hosts = 3 racks < 4 shards: degenerate to single servers.
        assert_eq!(ShardMap::pick_align(48, 4, Some(geo)), 1);
        // No geometry: always single servers.
        assert_eq!(ShardMap::pick_align(1024, 4, None), 1);
    }

    fn env(at: u64, src: u32, seq: u64, dest: u32) -> Envelope {
        Envelope {
            at: SimTime::from_micros(at),
            dest,
            src,
            seq,
            msg: WireMsg::Ev(SEvent::TaskDone { job: JobId(0) }),
        }
    }

    proptest::proptest! {
        /// The zero-sort k-way merge against its model: concatenating
        /// every outbox stream and sorting by `(firing time, source
        /// shard, send sequence)` must route exactly the same envelopes
        /// to each destination inbox, in exactly the same order.
        #[test]
        fn kway_merge_matches_sort_model(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u64..200, 0u32..5), 0..40),
                1..6,
            ),
        ) {
            let k = raw.len() as u32;
            let mut streams: Vec<Vec<Envelope>> = raw
                .iter()
                .enumerate()
                .map(|(src, sends)| {
                    // seq is assigned in send order, then the outbox is
                    // sorted by (at, seq) — exactly what a shard does.
                    let mut stream: Vec<Envelope> = sends
                        .iter()
                        .enumerate()
                        .map(|(i, &(at, dest))| env(at, src as u32, i as u64, dest % k))
                        .collect();
                    stream.sort_unstable_by_key(|e| (e.at.as_micros(), e.seq));
                    stream
                })
                .collect();
            let mut model: Vec<(u64, u32, u64, u32)> = streams
                .iter()
                .flatten()
                .map(|e| (e.at.as_micros(), e.src, e.seq, e.dest))
                .collect();
            model.sort_unstable();
            let mut model_inboxes: Vec<Vec<(u64, u32, u64)>> = vec![Vec::new(); k as usize];
            for (at, src, seq, dest) in &model {
                model_inboxes[*dest as usize].push((*at, *src, *seq));
            }

            let mut cursors = vec![0usize; k as usize];
            let mut inboxes: Vec<Vec<Envelope>> = (0..k).map(|_| Vec::new()).collect();
            let moved = kway_merge_streams(&mut streams, &mut cursors, &mut inboxes);

            proptest::prop_assert_eq!(moved as usize, model.len());
            for dest in 0..k as usize {
                let got: Vec<(u64, u32, u64)> = inboxes[dest]
                    .iter()
                    .map(|e| (e.at.as_micros(), e.src, e.seq))
                    .collect();
                proptest::prop_assert_eq!(&got, &model_inboxes[dest], "dest {}", dest);
            }
        }
    }

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

    fn run_sharded(
        trace: &Trace,
        scheduler: Arc<dyn Scheduler>,
        nodes: usize,
        shards: usize,
        workers: usize,
    ) -> MetricsReport {
        let sim = SimConfig {
            nodes,
            shards,
            ..SimConfig::default()
        };
        ShardedDriver::new(trace, scheduler, &sim)
            .with_workers(workers)
            .run()
    }

    #[test]
    fn all_jobs_complete_under_every_scheduler_and_shard_count() {
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
        ];
        for scheduler in schedulers {
            for shards in [1, 2, 3, 4] {
                let name = scheduler.name();
                let report = run_sharded(&trace, Arc::clone(&scheduler), 8, shards, 2);
                assert_eq!(report.results.len(), 5, "{name} shards={shards}");
                for r in &report.results {
                    assert!(r.completion >= r.submission, "{name} shards={shards}");
                }
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let trace = tiny_trace(vec![
            (0, vec![5; 12]),
            (0, vec![2_000; 4]),
            (1, vec![10, 20, 30]),
            (3, vec![1_800, 1_900]),
            (5, vec![2; 16]),
        ]);
        let hawk: Arc<dyn Scheduler> = Arc::new(Hawk::new(0.25));
        let one = run_sharded(&trace, Arc::clone(&hawk), 12, 4, 1);
        let four = run_sharded(&trace, hawk, 12, 4, 4);
        assert_eq!(one.results, four.results);
        assert_eq!(one.events, four.events);
        assert_eq!(one.steals, four.steals);
        assert_eq!(one.utilization_samples, four.utilization_samples);
    }

    #[test]
    fn sharded_run_is_self_deterministic() {
        let trace = tiny_trace(vec![
            (0, vec![5_000u64; 8]),
            (1, vec![20; 4]),
            (2, vec![20; 4]),
            (3, vec![20; 4]),
        ]);
        let hawk: Arc<dyn Scheduler> = Arc::new(Hawk::new(0.2));
        let a = run_sharded(&trace, Arc::clone(&hawk), 10, 3, 2);
        let b = run_sharded(&trace, hawk, 10, 3, 2);
        assert_eq!(a.results, b.results);
        assert_eq!(a.events, b.events);
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn remote_steals_rescue_blocked_shorts_across_shards() {
        // The head-of-line scenario from the driver tests, but sharded
        // so the short-partition servers (ids 8–9, last shard) must
        // steal from general-partition victims in other shards.
        let mut jobs = vec![(0, vec![5_000u64; 8])];
        for i in 0..5 {
            jobs.push((1 + i, vec![20u64; 4]));
        }
        let trace = tiny_trace(jobs);
        let report = run_sharded(&trace, Arc::new(Hawk::new(0.2)), 10, 4, 2);
        let worst_short = report.results[1..]
            .iter()
            .map(|r| r.runtime().as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(
            worst_short < 1_000.0,
            "cross-shard stealing should rescue shorts: {worst_short}"
        );
        assert!(report.steals > 0);
    }

    #[test]
    fn churn_under_sharding_keeps_every_job_completing() {
        use hawk_workload::scenario::DynamicsScript;
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
            shards: 3,
            dynamics: script,
            ..SimConfig::default()
        };
        let report = ShardedDriver::new(&trace, Arc::new(Hawk::new(0.2)), &sim)
            .with_workers(3)
            .run();
        assert_eq!(report.results.len(), trace.len());
        for r in &report.results {
            assert!(r.completion >= r.submission);
        }
    }

    #[test]
    fn worker_budget_env_override_wins() {
        // Serialize against other env-reading tests via a named lock.
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("HAWK_WORKER_BUDGET", "3");
        assert_eq!(worker_budget(), 3);
        std::env::set_var("HAWK_WORKER_BUDGET", "0");
        assert_eq!(worker_budget(), 1, "zero clamps to one worker");
        std::env::set_var("HAWK_WORKER_BUDGET", "nonsense");
        let fallback = worker_budget();
        assert!(fallback >= 1);
        std::env::remove_var("HAWK_WORKER_BUDGET");
    }

    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn shards_clamp_to_node_count() {
        let trace = tiny_trace(vec![(0, vec![10, 10])]);
        let sim = SimConfig {
            nodes: 2,
            shards: 64,
            ..SimConfig::default()
        };
        let driver = ShardedDriver::new(&trace, Arc::new(Sparrow::new()), &sim);
        assert_eq!(driver.shard_count(), 2);
        let report = driver.run();
        assert_eq!(report.results.len(), 1);
    }
}
