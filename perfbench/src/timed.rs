//! A transparent timing wrapper around any [`Scheduler`].
//!
//! The simulation driver and the prototype daemons reach the policy only
//! through the `Scheduler` trait, so a wrapper that forwards every method
//! sees every policy call in both backends. It times the two hot hooks —
//! probe placement and victim choice — and forwards the rest untouched.
//! Forwarding goes straight to the inner policy's own method of the same
//! name, so overridden and default trait methods behave exactly as they
//! would unwrapped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hawk_cluster::{Partition, Server, ServerId};
use hawk_core::scheduler::{PlacementView, Scheduler, StealSpec};
use hawk_core::Route;
use hawk_net::RackGeometry;
use hawk_simcore::SimRng;
use hawk_workload::JobClass;

/// Calls made to one hook and the host time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    /// Number of calls.
    pub calls: u64,
    /// Host nanoseconds spent inside the calls.
    pub nanos: u64,
}

impl CallTotals {
    /// The calls made between `earlier` and `self`.
    pub fn since(self, earlier: CallTotals) -> CallTotals {
        CallTotals {
            calls: self.calls - earlier.calls,
            nanos: self.nanos - earlier.nanos,
        }
    }
}

/// Running totals for one hook. The counters are statistics that publish
/// no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
struct Counter {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Counter {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let nanos = start.elapsed().as_nanos() as u64;
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn totals(&self) -> CallTotals {
        CallTotals {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

/// A [`Scheduler`] that forwards to `inner` and times its probe and
/// victim hooks.
pub struct TimedScheduler {
    inner: Arc<dyn Scheduler>,
    probe: Counter,
    victim: Counter,
}

impl TimedScheduler {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            probe: Counter::default(),
            victim: Counter::default(),
        }
    }

    /// Probe-placement calls so far (`probe_targets` and
    /// `probe_targets_into`).
    pub fn probe(&self) -> CallTotals {
        self.probe.totals()
    }

    /// Victim-choice calls so far (every `pick_victims*` variant).
    pub fn victim(&self) -> CallTotals {
        self.victim.totals()
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn short_partition_fraction(&self) -> f64 {
        self.inner.short_partition_fraction()
    }

    fn route(&self, class: JobClass) -> Route {
        self.inner.route(class)
    }

    fn probe_targets(
        &self,
        view: &PlacementView<'_>,
        tasks: usize,
        rng: &mut SimRng,
    ) -> Vec<ServerId> {
        self.probe
            .time(|| self.inner.probe_targets(view, tasks, rng))
    }

    fn probe_targets_into(
        &self,
        view: &PlacementView<'_>,
        tasks: usize,
        rng: &mut SimRng,
        out: &mut Vec<ServerId>,
    ) {
        self.probe
            .time(|| self.inner.probe_targets_into(view, tasks, rng, out))
    }

    fn steal(&self) -> Option<StealSpec> {
        self.inner.steal()
    }

    fn pick_victims(
        &self,
        partition: &Partition,
        thief: ServerId,
        rng: &mut SimRng,
    ) -> Vec<ServerId> {
        self.victim
            .time(|| self.inner.pick_victims(partition, thief, rng))
    }

    fn pick_victims_into(
        &self,
        partition: &Partition,
        thief: ServerId,
        rng: &mut SimRng,
        scratch: &mut Vec<usize>,
        out: &mut Vec<ServerId>,
    ) {
        self.victim.time(|| {
            self.inner
                .pick_victims_into(partition, thief, rng, scratch, out)
        })
    }

    fn pick_victims_in_fabric_into(
        &self,
        partition: &Partition,
        thief: ServerId,
        racks: Option<RackGeometry>,
        rng: &mut SimRng,
        scratch: &mut Vec<usize>,
        out: &mut Vec<ServerId>,
    ) {
        self.victim.time(|| {
            self.inner
                .pick_victims_in_fabric_into(partition, thief, racks, rng, scratch, out)
        })
    }

    fn bounce_probe(&self, server: &Server, class: JobClass, bounces: u8) -> bool {
        self.inner.bounce_probe(server, class, bounces)
    }
}
