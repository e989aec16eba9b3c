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
pub struct EventQueue<T> {
    /// Events in push order with non-decreasing times (under
    /// `f64::total_cmp`); the front is the run's minimum.
    run: VecDeque<Queued<T>>,
    /// Events pushed earlier than the run's last time.
    heap: BinaryHeap<Queued<T>>,
    /// Monotone push counter (the tie-break).
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
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
    #[must_use]
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether no event is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
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
}
