//! The simulator's discrete-event queue: a monotone FIFO run plus a
//! binary heap.
//!
//! # Determinism contract
//!
//! Events pop in exact `(time, push-seq)` order — the earliest time
//! first, ties in push order — byte-identical to a `BinaryHeap` min-heap
//! over `(time, seq)`, the scheduler the simulator started with.
//!
//! # Structure
//!
//! A push at or after the run's last time joins the back of the run;
//! any other push goes to the heap. The run is therefore sorted by
//! `(time, seq)` by construction, and `pop` takes the smaller of the
//! two heads. The split is an access-pattern bet: the trial engine
//! pre-schedules a simulation's genuine arrivals in nearly ascending
//! time order, so they fill the run at O(1) per push and pop, and the
//! heap holds only the few in-flight packet and controller events.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One queued event: its time, global push sequence number and payload.
#[derive(Debug)]
struct Queued<T> {
    time: f64,
    seq: u64,
    value: T,
}

impl<T> Queued<T> {
    /// `(time, seq)` order: earlier time first, ties in push order.
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Heap order is reversed so that `BinaryHeap` (a max-heap) pops the
/// minimum `(time, seq)`.
impl<T> Ord for Queued<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key_cmp(self)
    }
}

impl<T> PartialOrd for Queued<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Queued<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Queued<T> {}

/// A discrete-event queue with exact `(time, push-order)` pop order. See
/// the module docs for the run-plus-heap layout.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// Events in push order with non-decreasing times (under
    /// `f64::total_cmp`); the front is the run's minimum.
    run: VecDeque<Queued<T>>,
    /// Events pushed earlier than the run's last time.
    heap: BinaryHeap<Queued<T>>,
    /// Monotone push counter (the tie-break).
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of queued events.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether no event is queued.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Enqueues `value` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn push(&mut self, time: f64, value: T) {
        assert!(time.is_finite(), "event time must be finite");
        self.seq += 1;
        let ev = Queued {
            time,
            seq: self.seq,
            value,
        };
        match self.run.back() {
            Some(last) if time.total_cmp(&last.time).is_lt() => self.heap.push(ev),
            _ => self.run.push_back(ev),
        }
    }

    /// Whether the next event comes from the run rather than the heap.
    fn run_first(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => r.key_cmp(h).is_lt(),
            (run, _) => run.is_some(),
        }
    }

    /// The earliest queued event time, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        if self.run_first() {
            self.run.front().map(|e| e.time)
        } else {
            self.heap.peek().map(|e| e.time)
        }
    }

    /// Removes and returns the earliest event (ties in time resolve in
    /// push order).
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let ev = if self.run_first() {
            self.run.pop_front()
        } else {
            self.heap.pop()
        };
        ev.map(|e| (e.time, e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn queue_matches_binary_heap_on_random_workload() {
        // Reference: the exact ordering the simulator's original
        // BinaryHeap implemented — min by (time, seq).
        #[derive(PartialEq)]
        struct Ev(f64, u64);
        impl Eq for Ev {}
        impl Ord for Ev {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .0
                    .total_cmp(&self.0)
                    .then_with(|| other.1.cmp(&self.1))
            }
        }
        impl PartialOrd for Ev {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut q = EventQueue::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for _ in 0..2000 {
            if rng.gen::<f64>() < 0.55 || heap.is_empty() {
                // Mix of immediate, near and far times.
                let dt = match rng.gen_range(0..4) {
                    0 => rng.gen::<f64>() * 1e-5,
                    1 => rng.gen::<f64>() * 1e-2,
                    2 => rng.gen::<f64>() * 10.0,
                    _ => rng.gen::<f64>() * 1e7,
                };
                let t = now + dt;
                seq += 1;
                q.push(t, seq);
                heap.push(Ev(t, seq));
            } else {
                let Ev(ht, hseq) = heap.pop().unwrap();
                let (qt, qv) = q.pop().unwrap();
                assert_eq!(qt.to_bits(), ht.to_bits(), "pop times must match");
                assert_eq!(qv, hseq, "pop order must match");
                now = ht;
            }
        }
        while let Some(Ev(ht, hseq)) = heap.pop() {
            let (qt, qv) = q.pop().unwrap();
            assert_eq!(qt.to_bits(), ht.to_bits());
            assert_eq!(qv, hseq);
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_behind_the_run_keep_order() {
        let mut q = EventQueue::new();
        q.push(1.0, "first");
        q.push(3.0, "run");
        assert_eq!(q.pop(), Some((1.0, "first")));
        // Earlier than the run's tail: these go to the heap.
        q.push(0.5, "past");
        q.push(2.0, "between");
        // Ties with the run's tail join the run, after it.
        q.push(3.0, "tie");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(0.5));
        assert_eq!(q.pop(), Some((0.5, "past")));
        assert_eq!(q.pop(), Some((2.0, "between")));
        assert_eq!(q.pop(), Some((3.0, "run")));
        assert_eq!(q.pop(), Some((3.0, "tie")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    // ---- EventQueue vs the verbatim (time, seq) binary heap ----

    struct QueueEv {
        time: f64,
        seq: u64,
        value: u32,
    }

    impl PartialEq for QueueEv {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for QueueEv {}
    impl Ord for QueueEv {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap via reversal, ties broken by push order.
            other
                .time
                .total_cmp(&self.time)
                .then(other.seq.cmp(&self.seq))
        }
    }
    impl PartialOrd for QueueEv {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The event queue's pop stream is byte-identical to the binary
        /// heap, including events pushed at or before the time of an event
        /// already popped, exact-tie times from a coarse grid, and
        /// non-decreasing runs — with exact ties to the run's last time —
        /// broken by pushes earlier than the run's tail. The runs exercise
        /// the queue's split: a push at or after its run's last time joins
        /// the run, any other goes to the heap, and pops interleave both.
        #[test]
        fn event_queue_matches_binary_heap(
            ops in vec((0u8..4, 0u32..64, 0.0f64..1.0), 1..300),
        ) {
            let mut queue: EventQueue<u32> = EventQueue::new();
            let mut heap: BinaryHeap<QueueEv> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut next_value = 0u32;
            let mut last_pop = 0.0f64;
            // Last time of the non-decreasing push run (sel % 8 == 1 | 5).
            let mut run_tail = 0.0f64;
            for &(kind, sel, a) in &ops {
                if kind % 4 < 3 {
                    let time = match sel % 8 {
                        // Near (possibly before) the last popped time.
                        0 | 4 => (last_pop - 0.5 + a).max(0.0),
                        // Extend the run: an exact tie with its tail a
                        // quarter of the time, else a step forward.
                        1 | 5 => {
                            if a >= 0.25 {
                                run_tail += a * 0.5;
                            }
                            run_tail
                        }
                        // Break the run: earlier than its tail.
                        3 => (run_tail - 0.01 - a).max(0.0),
                        // Grid times force ties.
                        _ => f64::from(sel % 16) * 0.25,
                    };
                    seq += 1;
                    queue.push(time, next_value);
                    heap.push(QueueEv { time, seq, value: next_value });
                    next_value += 1;
                } else {
                    prop_assert_eq!(
                        queue.peek_time().map(f64::to_bits),
                        heap.peek().map(|e| e.time.to_bits()),
                    );
                    let got = queue.pop();
                    let want = heap.pop().map(|e| (e.time, e.value));
                    prop_assert_eq!(
                        got.map(|(t, v)| (t.to_bits(), v)),
                        want.map(|(t, v)| (t.to_bits(), v)),
                    );
                    if let Some((t, _)) = want {
                        last_pop = t;
                    }
                }
                prop_assert_eq!(queue.len(), heap.len());
            }
            // Drain the tails in lockstep.
            loop {
                let got = queue.pop();
                let want = heap.pop().map(|e| (e.time, e.value));
                prop_assert_eq!(
                    got.map(|(t, v)| (t.to_bits(), v)),
                    want.map(|(t, v)| (t.to_bits(), v)),
                );
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
