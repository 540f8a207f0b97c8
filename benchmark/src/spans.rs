//! In-memory spans around the calls into each layer.
//!
//! The harness opens a span before it calls a layer's public function
//! and closes it after, so a layer is timed from outside. Spans nest:
//! a span's self time is its duration minus the part of it that its
//! children cover (children of a parallel fan-out overlap, so the
//! cover is the union of their intervals, not their sum).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The timed iteration the span belongs to.
    pub iter: u32,
    /// Units of work done inside the span (references, events,
    /// touches…), recorded at the same boundary as the times.
    pub count: u64,
}

/// A clock worker threads can carry: nanoseconds since the tracer's
/// epoch, so their spans line up with the caller's.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn now_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Handle of an open span; `None` while tracing is off.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<u32>,
    iter: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            clock: Clock(Instant::now()),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// Turns recording on or off for the iterations that follow.
    pub fn record(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    pub fn next_iteration(&mut self) {
        self.iter += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            iter: self.iter,
            count: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = self.clock.now_ns();
        span.count = count;
    }

    /// Times one call into a layer; `f` returns its result and the
    /// units of work it did.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let open = self.enter(name);
        let (result, count) = f();
        self.exit(open, count);
        result
    }

    /// Adds a span timed elsewhere (a grid cell on a worker thread,
    /// read off [`Tracer::clock`]) under the innermost open span.
    pub fn child(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                iter: self.iter,
                count,
            });
        }
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// What all spans of one name add up to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

impl Total {
    /// Nanoseconds of span time per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
        t.count += s.count;
    }
    out
}

/// The trace file: every span, then the per-name totals with self
/// time. Names are metric-style identifiers, so nothing needs escaping.
pub fn render_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\",\n \"spans\": ["
    );
    let selfs = self_times(spans);
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \
             \"iteration\": {}, \"count\": {}, \"self\": {self_ns}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns,
            s.end_ns,
            s.iter,
            s.count
        );
    }
    out.push_str("\n ],\n \"totals\": {");
    for (i, (name, t)) in totals(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  \"{name}\": {{\"calls\": {}, \"total\": {}, \"self\": {}, \"count\": {}}}",
            if i == 0 { "" } else { "," },
            t.calls,
            t.total_ns,
            t.self_ns,
            t.count
        );
    }
    out.push_str("\n }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("iteration", 0, 100, None),
            span("grid", 10, 90, Some(0)),
            span("cell", 20, 50, Some(1)),
            span("cell", 60, 80, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
        let t = totals(&spans);
        assert_eq!(t["cell"].calls, 2);
        assert_eq!(t["cell"].total_ns, 50);
        assert_eq!(t["grid"].self_ns, 30);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two workers' cells overlap in time; a third sticks out of
        // the parent and is clipped to it.
        let spans = [
            span("grid", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("cell", 40, 80, Some(0)),
            span("cell", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_records_only_while_on() {
        let mut t = Tracer::new();
        let off = t.enter("a");
        t.exit(off, 1);
        assert!(t.spans().is_empty());
        t.record(true);
        let outer = t.enter("outer");
        let got = t.timed("inner", || (7, 3));
        t.child("cell", 1, 2, 5);
        t.exit(outer, 9);
        assert_eq!(got, 7);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("cell", Some(0))]
        );
        assert_eq!(t.spans()[0].count, 9);
        assert_eq!(t.spans()[1].count, 3);
        let json = render_json("w", 1, t.spans());
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"totals\""));
    }
}
