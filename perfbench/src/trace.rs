//! In-memory spans for the traced run: name, start, end, parent and cell
//! id, kept in a vector while the run lasts and summarised (or written
//! out) at its end. A span's self time is its duration minus the part of
//! its interval that its direct children cover.

use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell (or request) this span belongs to.
    pub cell: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. `enter`/`exit` nest; `record` adds a finished child of
/// the innermost open span.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    cell: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Subsequent spans belong to `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    /// Open a span; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now_ns();
        let i = self.push(name, start, start);
        self.open.push(i);
        i
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Run `f` inside a span named `name`; its result and the span's
    /// duration in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let i = self.enter(name);
        let out = f();
        self.exit();
        (out, self.spans[i].dur_ns())
    }

    /// Add a finished span as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.push(name, start_ns, end_ns);
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let i = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        i
    }

    /// Total duration of all spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The spans as tab-separated lines: name, start, end, parent, cell.
    pub fn dump(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\tcell\n");
        for s in &self.spans {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                s.name, s.start_ns, s.end_ns, parent, s.cell
            ));
        }
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to the span itself (children may
/// overlap each other, e.g. when recorded from several threads).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cell: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("play", 0, 100, None),
            span("probe", 10, 20, Some(0)),
            span("probe", 50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("cell", 0, 60, Some(0)),
            span("cell", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn children_are_clipped_and_grandchildren_ignored() {
        let spans = vec![
            span("a", 10, 50, None),
            span("b", 0, 20, Some(0)),
            span("c", 12, 18, Some(1)),
        ];
        // b covers 10..20 of a; c is b's child, not a's.
        assert_eq!(self_times(&spans), vec![30, 14, 6]);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new();
        t.set_cell(7);
        t.enter("play");
        let s = t.now_ns();
        t.record("probe", s, s + 1);
        t.exit();
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].cell, 7);
        let own = self_times(&t.spans)[0];
        let dur = t.total_ns("play");
        assert!(own <= dur && dur - own <= 1);
        assert_eq!(t.count("probe"), 1);
        assert!(t.dump().lines().count() == 3);
        let (v, ns) = t.span("build", || 5);
        assert_eq!(v, 5);
        assert_eq!(t.spans[2].dur_ns(), ns);
        assert_eq!(t.spans[2].parent, None);
    }
}
