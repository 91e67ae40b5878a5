//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use hawk_simcore::stats::{cdf, cdf_at, percentile};
use hawk_simcore::{Engine, EventQueue, IndexedMinHeap, SimDuration, SimRng, SimTime};

/// The fixed one-way delay of a `Hop` op: the paper's 0.5 ms network hop,
/// which the queue's hop lane serves when pushes stay sorted.
const HOP: u64 = 500;

/// One step of a generated queue workload.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule an event this many µs past an era base chosen to exercise
    /// every wheel path (same-µs buckets, near future, cascade range,
    /// beyond-span overflow).
    Push(u64),
    /// Schedule an event `HOP` µs past the last popped time: the hop-lane
    /// pattern, and a wheel entry whenever the lane tail is later.
    Hop,
    Pop,
    Peek,
}

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    let op = (0u8..6, 0usize..8, 0u64..200).prop_map(|(kind, era, fine)| match kind {
        0 => QueueOp::Pop,
        1 => QueueOp::Peek,
        2 => QueueOp::Hop,
        _ => {
            // Eras as (base, width): exact-tie region, one-bucket region,
            // cascade region, overflow region (beyond the wheel span of
            // 2^49 µs), then narrow eras that line pushes up with `Hop`s
            // and bucket windows: one hop past the origin, the lane span
            // (a level-2 window start a later push can tie in the lane),
            // one hop before the 2^49 µs boundary (lane entries past it,
            // overflow entries before them) and just past it.
            let (base, width) = [
                (0, 200),
                (1 << 10, 200),
                (1 << 30, 200),
                (1 << 55, 200),
                (HOP, 8),
                (1 << 14, 8),
                ((1 << 49) - HOP, 8),
                (1 << 49, 8),
            ][era];
            QueueOp::Push(base + fine % width)
        }
    });
    proptest::collection::vec(op, 1..300)
}

proptest! {
    /// The timing-wheel queue, with its hop lane, pops every pending
    /// event in (time, seq) order and peeks the earliest time under
    /// arbitrary interleaved schedule/hop/pop/peek sequences, matching a
    /// naive sort-based model exactly. Push times are clamped to the
    /// engine's monotone regime (never before the last pop), like
    /// `Engine::schedule_at` guarantees.
    #[test]
    fn wheel_queue_matches_sorted_model(ops in queue_ops()) {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (time, seq) pending
        let mut seq = 0u64;
        let mut floor = 0u64; // last popped time: the monotone clamp
        let mut last: Option<(u64, u64)> = None;
        for op in ops {
            match op {
                QueueOp::Push(_) | QueueOp::Hop => {
                    let t = if let QueueOp::Push(t) = op { t.max(floor) } else { floor + HOP };
                    q.push(SimTime::from_micros(t), seq);
                    model.push((t, seq));
                    seq += 1;
                }
                QueueOp::Peek => {
                    let expect = model.iter().map(|&(t, _)| t).min();
                    prop_assert_eq!(q.peek_time().map(SimTime::as_micros), expect);
                    prop_assert_eq!(q.len(), model.len());
                }
                QueueOp::Pop => {
                    let expect = model.iter().copied().min();
                    if let Some(pair) = expect {
                        model.retain(|&p| p != pair);
                    }
                    let got = q.pop().map(|(t, s)| (t.as_micros(), s));
                    prop_assert_eq!(got, expect);
                    if let Some((t, s)) = got {
                        // The pop sequence is globally (time, seq) sorted:
                        // the clock never regresses.
                        if let Some((lt, ls)) = last {
                            prop_assert!(t > lt || (t == lt && s > ls));
                        }
                        last = Some((t, s));
                        floor = t;
                    }
                }
            }
        }
        // Drain the remainder: still perfectly sorted and complete.
        model.sort_unstable();
        for pair in model {
            prop_assert_eq!(q.pop().map(|(t, s)| (t.as_micros(), s)), Some(pair));
        }
        prop_assert!(q.pop().is_none());
        prop_assert_eq!(q.len(), 0);
    }

    /// The engine clock is monotone non-decreasing across any schedule of
    /// delays, including zero delays and large jumps.
    #[test]
    fn engine_clock_never_regresses(
        delays in proptest::collection::vec(0u64..1 << 40, 1..100),
    ) {
        let mut e: Engine<u32> = Engine::new();
        let mut clock = SimTime::ZERO;
        for (i, &d) in delays.iter().enumerate() {
            e.schedule(SimDuration::from_micros(d), i as u32);
            // Interleave pops with schedules to move the clock forward.
            if i % 2 == 0 {
                if let Some((t, _)) = e.pop() {
                    prop_assert!(t >= clock, "clock regressed: {t} < {clock}");
                    prop_assert_eq!(e.now(), t);
                    clock = t;
                }
            }
        }
        while let Some((t, _)) = e.pop() {
            prop_assert!(t >= clock);
            clock = t;
        }
    }
    /// Events pop in non-decreasing time order, FIFO among equal times.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_micros(t));
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated for equal times");
                }
            }
            last = Some((t, i));
        }
    }

    /// The indexed heap agrees with a naive argmin after any op sequence.
    #[test]
    fn indexed_heap_matches_naive(
        n in 1usize..40,
        ops in proptest::collection::vec((0usize..40, 0u64..10_000, 0u8..3), 1..200),
    ) {
        let mut heap = IndexedMinHeap::new(n, 0);
        let mut naive = vec![0u64; n];
        for (id, value, kind) in ops {
            let id = id % n;
            match kind {
                0 => {
                    heap.add(id, value);
                    naive[id] += value;
                }
                1 => {
                    heap.sub(id, value);
                    naive[id] = naive[id].saturating_sub(value);
                }
                _ => {
                    heap.set(id, value);
                    naive[id] = value;
                }
            }
            let expect = (0..n).min_by_key(|&i| (naive[i], i)).unwrap();
            prop_assert_eq!(heap.min_id(), expect);
            prop_assert_eq!(heap.min_key(), naive[expect]);
            prop_assert!(heap.check_invariants());
        }
    }

    /// `gen_range` respects bounds for arbitrary non-empty ranges.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), lo in 0u64..1_000_000, span in 1u64..1_000_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = rng.gen_range(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
        }
    }

    /// `sample_distinct` returns exactly `k` distinct in-bounds indices.
    #[test]
    fn rng_sample_distinct_props(seed in any::<u64>(), n in 1usize..500, k_frac in 0.0f64..1.0) {
        let k = ((n as f64) * k_frac) as usize;
        let mut rng = SimRng::seed_from_u64(seed);
        let s = rng.sample_distinct(n, k);
        prop_assert_eq!(s.len(), k);
        let set: std::collections::HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// The empirical CDF is a valid distribution function.
    #[test]
    fn cdf_is_monotone_distribution(
        values in proptest::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        let points = cdf(&values);
        prop_assert!(!points.is_empty());
        for w in points.windows(2) {
            prop_assert!(w[0].value < w[1].value);
            prop_assert!(w[0].fraction < w[1].fraction);
        }
        let last = points.last().unwrap();
        prop_assert!((last.fraction - 1.0).abs() < 1e-9);
        // Evaluating at any sample returns its cumulative fraction > 0.
        for &v in values.iter().take(10) {
            prop_assert!(cdf_at(&points, v) > 0.0);
        }
    }

    /// The median lies between the 25th and 75th percentiles.
    #[test]
    fn percentile_ordering(values in proptest::collection::vec(0.0f64..1e9, 1..100)) {
        let p25 = percentile(&values, 25.0).unwrap();
        let p50 = percentile(&values, 50.0).unwrap();
        let p75 = percentile(&values, 75.0).unwrap();
        prop_assert!(p25 <= p50 + 1e-9);
        prop_assert!(p50 <= p75 + 1e-9);
    }

    /// Identical seeds generate identical streams; the stream is unchanged
    /// by interleaved splits (split consumes exactly one draw).
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        let _ = a.split();
        let _ = b.next_u64();
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
