//! Microbenchmark: future-event-list throughput.
//!
//! The simulator's hot loop is dominated by event-queue pushes and pops;
//! a paper-scale Figure 5 sweep processes hundreds of millions of events.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hawk_simcore::{EventQueue, SimDuration, SimRng, SimTime};

fn bench_push_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("push_then_drain", n), &n, |b, &n| {
            let mut rng = SimRng::seed_from_u64(1);
            let times: Vec<SimTime> = (0..n)
                .map(|_| SimTime::from_micros(rng.gen_range(0, 1_000_000_000)))
                .collect();
            b.iter(|| {
                let mut q = EventQueue::with_capacity(n);
                for (i, &t) in times.iter().enumerate() {
                    q.push(t, i as u32);
                }
                let mut last = SimTime::ZERO;
                while let Some((t, _)) = q.pop() {
                    debug_assert!(t >= last);
                    last = t;
                }
                last
            });
        });
        // The steady-state pattern: interleaved push/pop at constant size.
        group.bench_with_input(BenchmarkId::new("steady_state", n), &n, |b, &n| {
            let mut rng = SimRng::seed_from_u64(2);
            b.iter(|| {
                let mut q = EventQueue::with_capacity(n);
                for i in 0..n {
                    q.push(SimTime::from_micros(rng.gen_range(0, 1 << 30)), i as u32);
                }
                let mut acc = 0u64;
                for _ in 0..n {
                    let (t, _) = q.pop().expect("non-empty");
                    acc = acc.wrapping_add(t.as_micros());
                    q.push(t + SimDuration::from_micros(rng.gen_range(1, 1_000)), 0);
                }
                acc
            });
        });
        // The simulator's measured mix at a steady population: about 80%
        // fixed 0.5 ms network hops (probes, bind requests and responses,
        // placements), which the hop lane serves, and 20% task-duration
        // timers, which go to the wheel.
        group.bench_with_input(BenchmarkId::new("hop_mix", n), &n, |b, &n| {
            let mut rng = SimRng::seed_from_u64(3);
            let mut delay = move || {
                SimDuration::from_micros(if rng.index(5) == 0 {
                    rng.gen_range(1_000, 10_000_000)
                } else {
                    500
                })
            };
            b.iter(|| {
                let mut q = EventQueue::with_capacity(n);
                for i in 0..n {
                    q.push(SimTime::ZERO + delay(), i as u32);
                }
                let mut acc = 0u64;
                for _ in 0..n {
                    let (t, e) = q.pop().expect("non-empty");
                    acc = acc.wrapping_add(t.as_micros());
                    q.push(t + delay(), e);
                }
                acc
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_push_pop);
criterion_main!(benches);
