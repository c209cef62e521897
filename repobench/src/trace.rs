//! In-memory spans recorded by the benchmark around calls into the
//! simulator's layers, and the per-layer time split they give.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: its name, interval, the span that caused it (`0` for
/// a root), and the cell or request it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within one [`Tracer`]; never `0`.
    pub id: u64,
    /// The enclosing span's id, or `0`.
    pub parent: u64,
    /// The public call, e.g. `workload.generate`.
    pub name: &'static str,
    /// Cell or request id.
    pub op: u64,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads; each thread buffers its
/// spans in a [`SpanBuf`] and hands them over once per cell or request.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A buffer for the spans of operation `op`.
    pub fn buf(&self, op: u64) -> SpanBuf<'_> {
        SpanBuf {
            tracer: self,
            op,
            spans: Vec::new(),
        }
    }

    /// All spans recorded so far, in hand-over order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// A parent reference inside a [`SpanBuf`]: `None` for a root span.
pub type Parent = Option<usize>;

/// The spans of one operation, kept local to the thread running it
/// until [`SpanBuf::finish`] hands them to the tracer.
pub struct SpanBuf<'a> {
    tracer: &'a Tracer,
    op: u64,
    spans: Vec<Span>,
}

impl SpanBuf<'_> {
    /// Starts a span; close it with [`SpanBuf::close`]. Returns its
    /// handle for children and for closing.
    pub fn open(&mut self, name: &'static str, parent: Parent) -> usize {
        let parent = parent.map_or(0, |p| self.spans[p].id);
        let now = self.tracer.now_ns();
        self.spans.push(Span {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            op: self.op,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// The tracer's clock, in ns since its epoch.
    pub fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }

    /// Records a span whose interval was measured by the caller.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Parent,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let h = self.open(name, parent);
        self.spans[h].start_ns = start_ns;
        self.spans[h].end_ns = end_ns;
        h
    }

    /// Ends span `handle` now.
    pub fn close(&mut self, handle: usize) {
        self.spans[handle].end_ns = self.tracer.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, parent: Parent, f: impl FnOnce() -> T) -> T {
        let h = self.open(name, parent);
        let out = f();
        self.close(h);
        out
    }

    /// Duration of span `handle` in ns.
    pub fn dur_ns(&self, handle: usize) -> u64 {
        self.spans[handle].dur_ns()
    }

    /// Hands the spans to the tracer.
    pub fn finish(self) {
        self.tracer
            .spans
            .lock()
            .expect("tracer lock poisoned")
            .extend(self.spans);
    }
}

/// The part of `parent`'s interval that none of `children` covers.
/// Children are clipped to the parent's interval first, and time that
/// several children cover is subtracted once.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    parts.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in parts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.dur_ns() - covered
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, in ns.
    pub total_ns: u64,
    /// Sum of their self times (see [`self_time_ns`]), in ns.
    pub self_ns: u64,
}

/// Count, total and self time of every span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_time_ns(s, kids);
    }
    out
}

/// Writes the spans as tab-separated lines (`id parent name op start_ns
/// end_ns`), one per span.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\top\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let p = span(1, 0, 100, 200);
        let a = span(2, 1, 110, 130);
        let b = span(3, 1, 150, 160);
        assert_eq!(self_time_ns(&p, &[&a, &b]), 70);
        assert_eq!(self_time_ns(&p, &[]), 100);
    }

    #[test]
    fn self_time_clips_children_overlapping_the_parent_edges() {
        let p = span(1, 0, 100, 200);
        // Starts before the parent and ends inside it.
        let early = span(2, 1, 50, 120);
        // Starts inside and ends after the parent.
        let late = span(3, 1, 190, 260);
        assert_eq!(self_time_ns(&p, &[&early, &late]), 70);
        // A child covering the whole parent and more leaves nothing.
        let wide = span(4, 1, 0, 1_000);
        assert_eq!(self_time_ns(&p, &[&wide]), 0);
        // A child wholly outside the parent takes nothing away.
        let outside = span(5, 1, 300, 400);
        assert_eq!(self_time_ns(&p, &[&outside]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let p = span(1, 0, 0, 100);
        let a = span(2, 1, 10, 50);
        let b = span(3, 1, 40, 70);
        let inner = span(4, 1, 20, 30);
        assert_eq!(self_time_ns(&p, &[&b, &inner, &a]), 40);
    }

    #[test]
    fn layer_times_split_nested_spans() {
        let tracer = Tracer::new();
        let mut buf = tracer.buf(7);
        let cell = buf.open("cell", None);
        buf.time("child", Some(cell), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        buf.close(cell);
        buf.finish();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[1].parent, spans[0].id);
        let t = layer_times(&spans);
        let (cell, child) = (t["cell"], t["child"]);
        assert_eq!(child.total_ns, child.self_ns, "a leaf is all self time");
        assert_eq!(cell.self_ns, cell.total_ns - child.total_ns);
        assert!(child.total_ns >= 2_000_000);
    }
}
