//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing is recorded inside the program. Each
//! span has a name, a start and end (ns since the recorder was created),
//! the span that was open when it began, and the request id shared by all
//! spans of one request. The spans are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `atomgen` or `store.hit`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub req: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. A disabled recorder runs the
/// closures and records nothing, so the same code path can be timed with
/// tracing on and off.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the request id stamped on the spans that begin from now on.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs `f` inside a span named after its result by `name` (for
    /// calls whose outcome, e.g. hit or miss, is known only afterwards).
    pub fn span_named<T>(
        &mut self,
        f: impl FnOnce(&mut Tracer) -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        let id = self.spans.len();
        let out = self.span("", f);
        if let Some(s) = self.spans.get_mut(id) {
            s.name = name(&out);
        }
        out
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines with their self times.
    ///
    /// # Errors
    ///
    /// File creation or write errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Overlapping children (spans recorded on
/// several threads under one parent) count their union once, and a child
/// reaching outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of self time per span name, in ns.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Durations of every span called `name`, in ns.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two children overlapping on [20, 30), one disjoint.
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild: counts against `b`, not against `root`.
            span("d", 25, 35, Some(2)),
        ];
        let st = self_times(&spans);
        // root: 100 − |[10,40) ∪ [60,70)| = 100 − 40.
        assert_eq!(st, vec![60, 20, 10, 10, 10]);
    }

    #[test]
    fn nested_and_contained_children_count_once() {
        let spans = vec![
            span("root", 0, 50, None),
            span("outer", 5, 45, Some(0)),
            // Fully inside `outer`'s interval but a sibling of it.
            span("inner", 10, 20, Some(0)),
            // Reaches past the parent's end: only [40, 50) counts.
            span("late", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_and_self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        t.span("root", |t| {
            t.span("a", |t| t.span("a1", |_| std::hint::black_box(1)));
            t.span("b", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 7));
        // Non-overlapping children: the self times sum to the root's span.
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }
}
