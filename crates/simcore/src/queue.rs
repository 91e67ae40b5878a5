//! Future event list with deterministic tie-breaking.
//!
//! The queue is a hierarchical timing wheel (the calendar-queue family of
//! structures used by high-throughput discrete-event simulators and kernel
//! timer subsystems), replacing the original `BinaryHeap` implementation.
//! The public contract is unchanged: events pop in `(time, seq)` order,
//! where `seq` is the insertion sequence number, so simultaneous events are
//! delivered FIFO and simulations stay bit-for-bit reproducible.
//!
//! # Why a wheel
//!
//! Popping or pushing a binary heap of `n` pending events costs `O(log n)`
//! comparisons *and moves* of full event payloads — at simulation scale
//! (tens of thousands of pending events, millions of total events) that is
//! the single hottest path of the engine. The wheel makes both operations
//! amortized `O(1)`: an event is appended to the tail of the bucket for its
//! firing time, and the pop path reads the earliest non-empty bucket
//! straight out of a per-level occupancy bitmap.
//!
//! # Structure
//!
//! Seven levels of 128 buckets each. A bucket at level `L` spans `128^L`
//! microseconds; an event lands at the lowest level whose bucket span still
//! separates it from the `cursor` (the firing time of the last event popped
//! from the wheel). Level-0 buckets therefore hold events of one exact
//! microsecond each, in insertion order; higher-level buckets are cascaded
//! down — preserving insertion order — when the cursor reaches their span.
//! Each event cascades at most six times, so the amortized cost per event
//! is constant.
//!
//! # The hop lane
//!
//! Most events in this simulator are network hops (probes, bind requests
//! and responses, placements), each charged one fixed one-way delay, so they
//! are pushed in non-decreasing time order. A hop of 0.5 ms is past level
//! 0's 128 µs span: the wheel would write it at level 1, cascade it down and
//! read it again. Instead, a push joins the *lane* — a ring buffer of
//! `(time, seq, event)` — when it keeps the lane sorted (it fires no
//! earlier than the lane's tail) and fires within the level-1 span
//! (`128^2` µs) of the cursor. Every other push goes to the wheel.
//!
//! `pop` takes whichever of the lane head and the wheel's earliest entry is
//! smaller by exact `(time, seq)`. When level 0 is empty, the start of the
//! earliest higher-level bucket's window bounds every wheel entry from
//! below, so the wheel cascades only when that window starts at or before
//! the lane head. Lane pops leave the cursor alone, so the wheel's
//! placement invariants never see the lane. Every pop therefore returns the
//! pending minimum by `(time, seq)`, and the pop order is exactly the one
//! the wheel alone would give.
//!
//! # Edges
//!
//! Two small binary heaps catch the edges the wheel does not cover:
//!
//! * `past` — events pushed with a time before the cursor. [`Engine`]
//!   (which clamps schedule times to *now*) never produces these, but a
//!   bare `EventQueue` accepts them, exactly as the heap implementation
//!   did.
//! * `overflow` — events more than `128^7` µs (≈ 17 simulated years) beyond
//!   the cursor. They re-enter the wheel when the cursor approaches. The
//!   lane holds no such bound, so an empty wheel compares the lane head
//!   with the overflow minimum before jumping the cursor.
//!
//! [`Engine`]: crate::Engine

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::slab::EntrySlab;
use crate::time::SimTime;

/// Bits per wheel level: 128 buckets each (occupancy fits one `u128`).
const LEVEL_BITS: u32 = 7;

/// Buckets per level.
const SLOTS: usize = 1 << LEVEL_BITS;

/// Number of levels; the wheel spans `2^(7·7)` µs ≈ 17 simulated years
/// past the cursor before the overflow heap takes over. Wider levels keep
/// events from cascading through as many intermediate buckets: a constant
/// +0.5 ms network hop lands one level up, a task-finish timer at most
/// four.
const LEVELS: usize = 7;

/// The hop lane admits pushes firing less than this many µs past the
/// cursor: the span of level 1 (128 buckets of 128 µs).
const LANE_SPAN: u64 = 1 << (2 * LEVEL_BITS);

/// A pending event in the `past`/`overflow` heaps: fires at `time`; `seq`
/// breaks ties FIFO.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Equal timestamps pop in insertion order, which makes runs
        // bit-for-bit reproducible.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One wheel entry: `(firing micros, insertion seq, event)`.
type Entry<E> = (u64, u64, E);

/// A min-ordered future event list.
///
/// Events scheduled for the same [`SimTime`] are delivered in the order they
/// were scheduled (FIFO), which keeps simulations deterministic without
/// requiring `E: Ord`.
///
/// # Examples
///
/// ```
/// use hawk_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Bucket storage: one slab arena whose list `level * SLOTS + slot`
    /// holds that bucket's pending entries in `seq` order. Nodes recycle
    /// through the slab's free list, so the wheel allocates only while the
    /// pending-event population is still reaching new peaks — the
    /// steady-state schedule/pop/cascade cycle performs zero heap
    /// allocations (enforced by `tests/alloc_regression.rs` at the
    /// workspace root).
    wheel: EntrySlab<Entry<E>>,
    /// Per-level bitmap of non-empty buckets.
    occupied: [u128; LEVELS],
    /// The wheel floor: the firing time (µs) of the last event popped from
    /// the wheel. Every wheel and lane entry fires at or after this time.
    cursor: u64,
    /// The hop lane: entries in `(time, seq)` order, all within
    /// [`LANE_SPAN`] of the cursor when pushed. Not pre-reserved: a ring
    /// touches all of its capacity, so it grows to the in-flight peak
    /// during warm-up instead.
    lane: VecDeque<Entry<E>>,
    /// Events pushed with a firing time before the cursor.
    past: BinaryHeap<Scheduled<E>>,
    /// Events beyond the wheel span; strictly later than every wheel entry.
    overflow: BinaryHeap<Scheduled<E>>,
    len: usize,
    next_seq: u64,
}

/// The wheel level for an event at `t` µs given the cursor: the position of
/// the highest differing bit, in `LEVEL_BITS`-wide digits. `LEVELS` or more
/// means the event is beyond the wheel span (overflow).
fn level_for(t: u64, cursor: u64) -> usize {
    let diff = t ^ cursor;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: EntrySlab::new(LEVELS * SLOTS),
            occupied: [0; LEVELS],
            cursor: 0,
            lane: VecDeque::new(),
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Creates an empty queue with the bucket arena pre-warmed for
    /// `capacity` simultaneously pending events, so a simulation whose
    /// pending population stays under it never grows the wheel. The hop
    /// lane is left to grow to its own peak during warm-up.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.wheel.reserve_nodes(capacity);
        q
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let t = time.as_micros();
        if t < self.cursor {
            self.past.push(Scheduled { time, seq, event });
        } else if t - self.cursor < LANE_SPAN && self.lane.back().is_none_or(|&(b, _, _)| b <= t) {
            self.lane.push_back((t, seq, event));
        } else {
            self.place(t, seq, event);
        }
    }

    /// The start (µs) of the window of bucket `slot` at `level >= 1`: every
    /// entry of that bucket fires at or after it, and every entry of a
    /// later bucket or a higher level fires after it. Entries at `level`
    /// share all digits above `level` with the cursor.
    fn window_start(&self, level: usize, slot: usize) -> u64 {
        let shift = LEVEL_BITS * level as u32;
        let above = shift + LEVEL_BITS;
        (self.cursor >> above << above) | ((slot as u64) << shift)
    }

    /// Pops the lane head. The cursor stays put: it tracks the wheel only.
    fn pop_lane(&mut self) -> Option<(SimTime, E)> {
        let (t, _, event) = self.lane.pop_front().expect("lane head exists");
        Some((SimTime::from_micros(t), event))
    }

    /// Buckets an entry with `t >= cursor` into the wheel, or the overflow
    /// heap when it is beyond the wheel span.
    fn place(&mut self, t: u64, seq: u64, event: E) {
        debug_assert!(t >= self.cursor);
        let level = level_for(t, self.cursor);
        if level >= LEVELS {
            self.overflow.push(Scheduled {
                time: SimTime::from_micros(t),
                seq,
                event,
            });
            return;
        }
        let slot = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let bucket = level * SLOTS + slot;
        // Pushes and cascades arrive in increasing seq order, so appending
        // keeps the bucket sorted; only overflow re-bucketing can arrive
        // out of order (when an event pushed long ago re-enters the wheel)
        // and pays for a list walk + sorted insert.
        // The tail holds the bucket's largest seq (buckets are seq-sorted),
        // so the in-order common case is one O(1) tail read.
        let append = match self.wheel.tail(bucket) {
            None => true,
            Some(tail) => self.wheel.value(tail).1 <= seq,
        };
        if append {
            self.wheel.push_back(bucket, (t, seq, event));
        } else {
            // Walk to the last node with a smaller seq and insert after it.
            let mut prev: Option<u32> = None;
            let mut cur = self.wheel.head(bucket);
            while let Some(node) = cur {
                if self.wheel.value(node).1 >= seq {
                    break;
                }
                prev = Some(node);
                cur = self.wheel.next(node);
            }
            self.wheel.insert_after(bucket, prev, (t, seq, event));
        }
        self.occupied[level] |= 1 << slot;
    }

    /// Moves every overflow event now within the wheel span back into the
    /// wheel. Called only after the cursor jumps (the overflow minimum is
    /// strictly later than every wheel entry, so overflow events can never
    /// become due while the wheel still holds anything).
    fn rebucket_overflow(&mut self) {
        while let Some(s) = self.overflow.peek() {
            if level_for(s.time.as_micros(), self.cursor) >= LEVELS {
                break;
            }
            let s = self.overflow.pop().expect("peeked entry exists");
            self.place(s.time.as_micros(), s.seq, s.event);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // Past events fire strictly before the cursor, and so before every
        // lane, wheel or overflow entry.
        if let Some(s) = self.past.pop() {
            return Some((s.time, s.event));
        }
        loop {
            let lane = self.lane.front().map(|&(t, seq, _)| (t, seq));
            // Fast path: a level-0 bucket holds events of one exact
            // microsecond, already in seq order; its head is the wheel's
            // earliest entry.
            if self.occupied[0] != 0 {
                let slot = self.occupied[0].trailing_zeros() as usize;
                let head = self.wheel.head(slot).expect("occupied bucket is non-empty");
                let &(t, seq, _) = self.wheel.value(head);
                if lane.is_some_and(|l| l < (t, seq)) {
                    return self.pop_lane();
                }
                let (t, _, event) = self.wheel.pop_front(slot).expect("head exists");
                if self.wheel.is_empty(slot) {
                    self.occupied[0] &= !(1 << slot);
                }
                self.cursor = t;
                return Some((SimTime::from_micros(t), event));
            }
            // Cascade the earliest bucket of the lowest occupied level down
            // to finer levels (in order, so FIFO ties are preserved): pop
            // each node and re-place it — nodes recycle through the slab's
            // free list, so cascading allocates nothing. Its window start
            // bounds the whole wheel from below, so a lane head before it
            // pops without cascading.
            if let Some(level) = (1..LEVELS).find(|&l| self.occupied[l] != 0) {
                let slot = self.occupied[level].trailing_zeros() as usize;
                let window_start = self.window_start(level, slot);
                if lane.is_some_and(|(lt, _)| lt < window_start) {
                    return self.pop_lane();
                }
                self.occupied[level] &= !(1 << slot);
                let bucket = level * SLOTS + slot;
                // Advance the cursor to the window start so the
                // redistribution lands below `level`.
                debug_assert!(window_start >= self.cursor);
                self.cursor = window_start;
                while let Some((t, seq, event)) = self.wheel.pop_front(bucket) {
                    self.place(t, seq, event);
                }
                continue;
            }
            // Wheel drained: the overflow minimum may still precede the
            // lane head. If so, jump the cursor to it and refill.
            let next = match (lane, self.overflow.peek()) {
                (Some(l), Some(o)) if (o.time.as_micros(), o.seq) < l => o.time.as_micros(),
                (Some(_), _) => return self.pop_lane(),
                (None, Some(o)) => o.time.as_micros(),
                (None, None) => unreachable!("len > 0 with nothing pending"),
            };
            self.cursor = next;
            self.rebucket_overflow();
        }
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.past.peek() {
            return Some(s.time);
        }
        let lane = self.lane.front().map(|&(t, _, _)| t);
        let wheel = if self.occupied[0] != 0 {
            let slot = self.occupied[0].trailing_zeros() as usize;
            self.wheel.iter(slot).next().map(|&(t, _, _)| t)
        } else if let Some(level) = (1..LEVELS).find(|&l| self.occupied[l] != 0) {
            let slot = self.occupied[level].trailing_zeros() as usize;
            if lane.is_some_and(|lt| lt < self.window_start(level, slot)) {
                return lane.map(SimTime::from_micros);
            }
            // Higher-level buckets are seq-ordered, not time-ordered; the
            // earliest firing time needs a scan.
            self.wheel
                .iter(level * SLOTS + slot)
                .map(|&(t, _, _)| t)
                .min()
        } else {
            self.overflow.peek().map(|s| s.time.as_micros())
        };
        match (lane, wheel) {
            (Some(l), Some(w)) => Some(l.min(w)),
            (l, w) => l.or(w),
        }
        .map(SimTime::from_micros)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for t in [5u64, 1, 3, 2, 4] {
            q.push(SimTime::from_secs(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "a");
        q.push(SimTime::from_secs(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(15), "c");
        q.push(SimTime::from_secs(5), "d");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn push_before_cursor_still_pops_first() {
        // A bare queue accepts times before the last popped time; such
        // events pop before everything else, as with the old binary heap.
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(100), "late");
        q.push(SimTime::from_micros(200), "later");
        assert_eq!(q.pop().unwrap().1, "late");
        q.push(SimTime::from_micros(50), "past-a");
        q.push(SimTime::from_micros(60), "past-b");
        q.push(SimTime::from_micros(50), "past-a2");
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(50), "past-a"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(50), "past-a2"));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(60)));
        assert_eq!(q.pop().unwrap().1, "past-b");
        assert_eq!(q.pop().unwrap().1, "later");
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        // 2^43 µs is beyond the wheel span from cursor 0: exercises the
        // overflow heap and the cursor jump that refills the wheel.
        let far = 1u64 << 43;
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(far + 7), "far-b");
        q.push(SimTime::from_micros(far), "far-a");
        q.push(SimTime::from_micros(3), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(far), "far-a"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(far + 7), "far-b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cascades_preserve_fifo_within_equal_times() {
        // Events at the same far time land in a high-level bucket together
        // and must still pop in push order after cascading.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1_000_000_007);
        for i in 0..50 {
            q.push(t, i);
        }
        q.push(SimTime::from_micros(5), 999);
        assert_eq!(q.pop().unwrap().1, 999);
        for i in 0..50 {
            assert_eq!(q.pop().unwrap(), (t, i));
        }
    }

    #[test]
    fn sorted_near_pushes_take_the_lane() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(500), 0);
        q.push(SimTime::from_micros(500), 1);
        q.push(SimTime::from_micros(900), 2);
        // Out of lane order, and beyond the lane span: both to the wheel.
        q.push(SimTime::from_micros(600), 3);
        q.push(SimTime::from_micros(LANE_SPAN), 4);
        assert_eq!(q.lane.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(500)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 3, 2, 4]);
    }

    #[test]
    fn lane_and_level_zero_ties_pop_by_seq() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(50), "lane-50");
        q.push(SimTime::from_micros(90), "lane-90");
        // Behind the lane tail: level 0 of the wheel.
        q.push(SimTime::from_micros(50), "wheel-50");
        q.push(SimTime::from_micros(60), "wheel-60");
        q.push(SimTime::from_micros(90), "lane-90b");
        assert_eq!(q.lane.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec!["lane-50", "wheel-50", "wheel-60", "lane-90", "lane-90b"]
        );
    }

    #[test]
    fn lane_head_at_a_window_start_waits_for_the_cascade() {
        // `early` lands at level 2 (beyond the lane span from cursor 0);
        // after the cursor moves to 100, `late` fires at the same time,
        // joins the lane, and must pop after `early` (smaller seq).
        let w = LANE_SPAN;
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(w), "early");
        q.push(SimTime::from_micros(200), "lane-200");
        q.push(SimTime::from_micros(100), "wheel-100");
        assert_eq!(q.pop().unwrap().1, "wheel-100");
        q.push(SimTime::from_micros(w), "late");
        assert_eq!(q.lane.len(), 2);
        assert_eq!(q.pop().unwrap().1, "lane-200");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(w)));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(w), "early"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(w), "late"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_entry_before_the_lane_head_pops_first() {
        // With the cursor just below 2^49, a push a few µs later crosses
        // the wheel's span boundary into overflow, while the lane takes a
        // later push (the lane is not bounded by the wheel's span).
        let edge = 1u64 << 49;
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(edge - 10), "wheel");
        assert_eq!(q.pop().unwrap().1, "wheel");
        q.push(SimTime::from_micros(edge + 100), "lane");
        q.push(SimTime::from_micros(edge + 5), "overflow");
        assert_eq!(q.overflow.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(edge + 5)));
        assert_eq!(q.pop().unwrap().1, "overflow");
        assert_eq!(q.pop().unwrap().1, "lane");
        assert!(q.pop().is_none());
    }

    #[test]
    fn large_random_workload_pops_sorted() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(0xCAFE);
        let mut q = EventQueue::new();
        // Mixed magnitudes: same-µs bursts, near future, and overflow-range
        // times, interleaved with pops.
        let mut pending = 0usize;
        let mut last: Option<(SimTime, u64)> = None;
        for round in 0u64..10_000 {
            let t = match rng.index(4) {
                0 => rng.gen_range(0, 100),
                1 => rng.gen_range(0, 1_000_000),
                2 => rng.gen_range(0, 1 << 30),
                _ => rng.gen_range(1 << 40, 1 << 45),
            };
            // Clamp to the queue's monotone regime (engine semantics).
            let t = SimTime::from_micros(t.max(last.map_or(0, |(lt, _)| lt.as_micros())));
            q.push(t, round);
            pending += 1;
            if round % 3 == 0 {
                let (pt, seq) = q.pop().unwrap();
                pending -= 1;
                if let Some((lt, lseq)) = last {
                    assert!(pt > lt || (pt == lt && seq > lseq), "order violated");
                }
                last = Some((pt, seq));
            }
        }
        while let Some((pt, seq)) = q.pop() {
            pending -= 1;
            if let Some((lt, lseq)) = last {
                assert!(pt > lt || (pt == lt && seq > lseq), "order violated");
            }
            last = Some((pt, seq));
        }
        assert_eq!(pending, 0);
        assert_eq!(q.len(), 0);
    }
}
