//! Bench-side spans: one around every call the traced replica makes into
//! a layer. Spans are kept in memory as `(name, start, end, parent)` and
//! reduced to per-name self times once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals of one trace.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Span time not covered by child spans, summed over calls.
    pub self_ns: u64,
    /// Number of spans.
    pub calls: u64,
    /// Every span's full duration, for percentiles.
    pub durations_ns: Vec<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// The innermost span open on the calling thread.
    #[must_use]
    pub fn current() -> Option<usize> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`, child of the innermost span
    /// open on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(name, Self::current(), f)
    }

    /// Runs `f` inside a span with an explicit parent, for work handed to
    /// another thread.
    pub fn span_under<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        let end = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans()[id].end_ns = end;
        out
    }

    /// Self time, call count and durations per span name.
    #[must_use]
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let spans = self.spans();
        let mut covered = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, child_ns) in spans.iter().zip(covered) {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.self_ns += d.saturating_sub(child_ns);
            e.calls += 1;
            e.durations_ns.push(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let tr = Tracer::default();
        tr.span("root", || {
            tr.span("a", || {
                spin(200_000);
                tr.span("b", || spin(300_000));
            });
            let parent = Tracer::current();
            let tr = &tr;
            std::thread::scope(|s| {
                s.spawn(move || tr.span_under("c", parent, || spin(100_000)));
            });
        });
        let m = tr.by_name();
        let total: u64 = m.values().map(|s| s.self_ns).sum();
        assert_eq!(total, m["root"].durations_ns[0]);
        assert!(m["b"].self_ns >= 300_000);
        assert!(m["a"].self_ns >= 200_000 && m["a"].self_ns < m["a"].durations_ns[0]);
        assert_eq!(m["c"].calls, 1);
    }
}
