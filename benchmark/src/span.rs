//! Benchmark-local spans around the calls into each layer.
//!
//! The toolkit's own `graphct-trace` sessions stay off: these spans are
//! recorded from the benchmark's side of each public entry point, kept
//! in memory, and written to `trace-<workload>.jsonl` when the run ends.
//! With the tracer disabled `span` is a plain call, which is what the
//! end-to-end runs use.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.  `id` is the rep (offline workloads) or request
/// number (serve workloads) the span belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder (one thread's: the offline reps run on the
/// caller, and the serve workloads record their requests after the fact).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` on this
    /// tracer become its children.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                id,
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a span from timestamps taken elsewhere (the load generator
    /// times a request first and attributes its parts afterwards).
    /// Returns the span's index for use as a later `parent`.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            id,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        Some(spans.len() - 1)
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time in seconds of the spans called `name`, summed per `id`:
    /// one entry per rep or request in which the name occurs.
    pub fn self_seconds_by_id(&self, name: &str) -> Vec<(u64, f64)> {
        let spans = self.spans.borrow();
        let selfs = self_times_ns(&spans);
        let mut per_id: Vec<(u64, u64)> = Vec::new();
        for (span, self_ns) in spans.iter().zip(selfs) {
            if span.name != name {
                continue;
            }
            match per_id.iter_mut().find(|(id, _)| *id == span.id) {
                Some((_, total)) => *total += self_ns,
                None => per_id.push((span.id, self_ns)),
            }
        }
        per_id
            .into_iter()
            .map(|(id, ns)| (id, ns as f64 / 1e9))
            .collect()
    }

    /// Write one JSON object per span to `path`.
    pub fn dump(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let selfs = self_times_ns(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"span\":{index},\"parent\":{parent},\
                 \"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// and a child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            id: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the previous child: 10..50 covered once
            span(90, 120, Some(0)), // clipped to the parent: 90..100
            span(25, 28, Some(2)), // a grandchild does not reduce the root's self time
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 27, 30, 3]);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_disabled_tracers_record_nothing() {
        let t = Tracer::new(true);
        let out = t.span("rep", 3, || t.span("kernels.bc", 3, || 7));
        assert_eq!(out, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("rep", None));
        assert_eq!((spans[1].name, spans[1].parent), ("kernels.bc", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.self_seconds_by_id("kernels.bc").len(), 1);
        assert_eq!(t.self_seconds_by_id("kernels.bc")[0].0, 3);

        let off = Tracer::new(false);
        assert_eq!(off.span("rep", 0, || 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn recorded_spans_take_the_parent_they_are_given() {
        let t = Tracer::new(true);
        let now = Instant::now();
        let request = t.record(
            "request",
            1,
            now,
            now + std::time::Duration::from_millis(2),
            None,
        );
        t.record(
            "obs.connect",
            1,
            now,
            now + std::time::Duration::from_millis(1),
            request,
        );
        let spans = t.spans();
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(self_times_ns(&spans), vec![1_000_000, 1_000_000]);
        assert_eq!(
            Tracer::new(false).record("request", 1, now, now, None),
            None
        );
    }
}
