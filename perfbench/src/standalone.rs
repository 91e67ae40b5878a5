//! Standalone estimates for the layers the driver calls only from inside
//! its event loop (`hawk-cluster`, `hawk-simcore`, `hawk-net`): each times
//! the layer's public functions directly, at the workload's size. They are
//! estimates of the in-program cost, not measurements of it.

use std::hint::black_box;
use std::time::Instant;

use hawk_cluster::{Cluster, QueueEntry, ServerId, StealGranularity, TaskSpec};
use hawk_net::{Endpoint, TopologySpec};
use hawk_simcore::{Engine, SimDuration, SimRng, SimTime};
use hawk_workload::{JobClass, JobId, Trace};

use crate::runner::median;

/// Timed batches per estimate; the estimate is their median.
const BATCHES: usize = 5;

/// Operations per timed batch.
const OPS: usize = 200_000;

fn task(job: u32, class: JobClass) -> QueueEntry {
    let duration = match class {
        JobClass::Short => SimDuration::from_secs(1),
        JobClass::Long => SimDuration::from_secs(1_000),
    };
    QueueEntry::Task(TaskSpec {
        job: JobId(job),
        duration,
        estimate: duration,
        class,
        task: 0,
        attempt: 0,
    })
}

/// Nanoseconds per `Cluster::enqueue` + `Cluster::on_task_finish` pair on
/// uniformly random servers of a `nodes`-server cluster in which every
/// server is running a task.
pub fn random_enqueue_ns(nodes: usize, short_fraction: f64, seed: u64) -> f64 {
    let mut cluster = Cluster::new(nodes, short_fraction);
    cluster.reserve_queue_nodes(2 * nodes);
    for id in 0..nodes {
        cluster.enqueue(ServerId(id as u32), task(id as u32, JobClass::Short));
    }
    let mut rng = SimRng::seed_from_u64(seed);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for op in 0..OPS {
                let server = ServerId(rng.index(nodes) as u32);
                black_box(cluster.enqueue(server, task(op as u32, JobClass::Short)));
                black_box(cluster.on_task_finish(server));
            }
            start.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(&batches)
}

/// Long/short groups queued on every loaded victim: each steal from a
/// victim removes one group, so a victim stays eligible for this many
/// steals.
const GROUPS_PER_VICTIM: usize = 4;

/// Nanoseconds per `Cluster::steal_from_with_into` (paper granularity) on
/// uniformly random loaded victims. Every general-partition server runs a
/// long task with [`GROUPS_PER_VICTIM`] groups of two blocked shorts and
/// one long queued behind it; each batch steals once per victim on
/// average from a freshly loaded cluster.
pub fn steal_scan_ns(nodes: usize, short_fraction: f64, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut stolen = Vec::with_capacity(16);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut cluster = Cluster::new(nodes, short_fraction);
            let victims = cluster.partition().general_count();
            cluster.reserve_queue_nodes(victims * (1 + 3 * GROUPS_PER_VICTIM));
            for id in 0..victims {
                let server = ServerId(id as u32);
                cluster.enqueue(server, task(id as u32, JobClass::Long));
                for _ in 0..GROUPS_PER_VICTIM {
                    cluster.enqueue(server, task(id as u32, JobClass::Short));
                    cluster.enqueue(server, task(id as u32, JobClass::Short));
                    cluster.enqueue(server, task(id as u32, JobClass::Long));
                }
            }
            let start = Instant::now();
            for _ in 0..victims {
                let victim = ServerId(rng.index(victims) as u32);
                cluster.steal_from_with_into(
                    victim,
                    StealGranularity::FirstBlockedGroup,
                    &mut rng,
                    &mut stolen,
                );
                black_box(&stolen);
                stolen.clear();
            }
            start.elapsed().as_nanos() as f64 / victims as f64
        })
        .collect();
    median(&batches)
}

/// Nanoseconds per `Engine::schedule` + `Engine::pop` pair (the classic
/// hold model) with `population` events pending, delays drawn from the
/// trace's task durations.
pub fn wheel_ns_per_op(trace: &Trace, population: usize, seed: u64) -> f64 {
    let durations: Vec<SimDuration> = trace
        .jobs()
        .iter()
        .flat_map(|job| job.tasks.iter().copied())
        .take(1 << 16)
        .collect();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut engine: Engine<u32> = Engine::with_capacity(population + 1);
    for event in 0..population {
        engine.schedule(durations[rng.index(durations.len())], event as u32);
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..OPS {
                let (_, event) = engine.pop().expect("the hold model keeps events pending");
                engine.schedule(durations[rng.index(durations.len())], black_box(event));
            }
            start.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(&batches)
}

/// Messages per job the simulated clock is advanced by in
/// [`delay_ns`]: the contended fat tree charged about 95 per job on the
/// churn workload.
const MSGS_PER_JOB: u64 = 95;

/// Nanoseconds per `Topology::delay` from a random scheduler front-end to
/// a random server, on `spec` built for `nodes` hosts. Simulated time
/// advances so that the messages span the trace the way the workload's
/// own messages would.
pub fn delay_ns(spec: &TopologySpec, nodes: usize, trace: &Trace, seed: u64) -> f64 {
    let mut topology = spec.build(nodes);
    let step = (trace.span().as_micros() / (MSGS_PER_JOB * trace.len() as u64).max(1)).max(1);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut now = 0u64;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..OPS {
                now += step;
                let src = Endpoint::Scheduler(rng.index(trace.len()) as u32);
                let dst = Endpoint::Server(ServerId(rng.index(nodes) as u32));
                black_box(topology.delay(SimTime::from_micros(now), src, dst));
            }
            start.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(&batches)
}
