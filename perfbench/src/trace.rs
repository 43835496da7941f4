//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. Untraced runs call the layers without a tracer.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `[start, end)` in seconds since the tracer origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Request id (serve-mix only).
    pub request: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Open(id)
    }

    /// Close a span opened by [`Tracer::enter`] (innermost first).
    pub fn exit(&mut self, open: Open) {
        assert_eq!(
            self.open.pop(),
            Some(open.0),
            "spans must close innermost first"
        );
        self.spans[open.0].end = self.origin.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, None);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another thread's spans into this tracer (same origin).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Summed self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0.0) += t;
    }
    by_name
}

/// Share of the spans named `root` covered by none of their
/// descendants: the part of a traced pass no layer span accounts for.
pub fn unattributed_frac(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0.0, 0.0);
    for (s, t) in spans.iter().zip(selfs) {
        if s.name == root {
            own += t;
            total += s.duration();
        }
    }
    if total > 0.0 {
        own / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // pass [0,10) ⊃ launch [1,4) ⊃ inner [2,3); pass ⊃ fold [5,6).
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("launch", 1.0, 4.0, Some(0)),
            span("inner", 2.0, 3.0, Some(1)),
            span("fold", 5.0, 6.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![6.0, 2.0, 1.0, 1.0]);
        assert_eq!(unattributed_frac(&spans, "pass"), 0.6);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["launch"], 2.0);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Children from two client threads can overlap in time.
        let spans = vec![
            span("loop", 0.0, 10.0, None),
            span("req", 1.0, 5.0, Some(0)),
            span("req", 3.0, 7.0, Some(0)),
            span("req", 9.0, 12.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 6.0 - 1.0);
        assert_eq!(self_time_by_name(&spans)["req"], 11.0);
    }

    #[test]
    fn nested_recording_links_parents_and_absorb_rebases_them() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let outer = a.enter("outer", None);
        let x = a.span("inner", || 7);
        a.exit(outer);
        assert_eq!(x, 7);
        assert_eq!(a.spans()[1].parent, Some(0));
        assert!(a.spans().iter().all(|s| s.end >= s.start));

        let mut b = Tracer::new(origin);
        let r = b.enter("req", Some(42));
        b.span("child", || ());
        b.exit(r);
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[2].request, Some(42));
    }
}
