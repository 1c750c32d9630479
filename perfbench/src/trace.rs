//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded from the benchmark's side of each library call:
//! name, start, end, parent, and an op id shared by the spans of one
//! operation. They are kept in memory (up to [`KEEP`] of them; the
//! rest are only aggregated) and written out as JSON lines when the
//! run ends. A span's *self time* is its duration minus the part of it
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the output file; later spans are aggregated only.
pub const KEEP: usize = 1 << 16;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The operation this span belongs to.
    pub op: u64,
    /// The span's name.
    pub name: &'static str,
    /// Index of the parent span within the same op, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Self-time totals for one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, ns.
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64, self.count as f64)
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    open: Vec<Span>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, SelfTime>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between threads so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            op: 0,
            open: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Now, in ns since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span of the current op and returns its index, for
    /// children to name as their parent.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.open.push(Span {
            op: self.op,
            name,
            parent,
            start,
            end,
        });
        self.open.len() - 1
    }

    /// Closes the current op: folds each of its spans' self time into
    /// the totals, keeps the spans if there is room, and starts the
    /// next op.
    pub fn end_op(&mut self) {
        for (i, s) in self.open.iter().enumerate() {
            let mut children: Vec<(u64, u64)> = self
                .open
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in children {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let t = self.totals.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += (s.end - s.start).saturating_sub(covered);
        }
        let room = KEEP.saturating_sub(self.kept.len());
        self.kept.extend(self.open.drain(..).take(room));
        self.open.clear();
        self.op += 1;
    }

    /// Self-time totals by span name.
    pub fn totals(&self) -> &BTreeMap<&'static str, SelfTime> {
        &self.totals
    }

    /// The self-time totals of `name` (zero if never recorded).
    pub fn self_time(&self, name: &str) -> SelfTime {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Folds another thread's tracer into this one. Its op ids are
    /// offset past this tracer's, so they stay distinct.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.op;
        let room = KEEP.saturating_sub(self.kept.len());
        self.kept
            .extend(other.kept.into_iter().take(room).map(|mut s| {
                s.op += offset;
                s
            }));
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.self_ns += t.self_ns;
        }
        self.op += other.op;
    }

    /// Writes the kept spans to `path` as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, parent, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.span("test", None, 0, 100);
        t.span("gen", Some(root), 10, 30);
        t.span("prop", Some(root), 40, 90);
        t.end_op();
        assert_eq!(t.self_time("test").self_ns, 30);
        assert_eq!(t.self_time("gen").self_ns, 20);
        assert_eq!(t.self_time("prop").self_ns, 50);
        assert_eq!(t.op, 1);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut t = Tracer::new(Instant::now());
        let root = t.span("op", None, 0, 100);
        t.span("a", Some(root), 10, 50);
        t.span("b", Some(root), 40, 60);
        t.end_op();
        assert_eq!(t.self_time("op").self_ns, 50);
    }

    #[test]
    fn merge_offsets_ops_and_sums_totals() {
        let mut a = Tracer::new(Instant::now());
        a.span("x", None, 0, 5);
        a.end_op();
        let mut b = Tracer::new(Instant::now());
        b.span("x", None, 0, 7);
        b.end_op();
        a.merge(b);
        assert_eq!(a.op, 2);
        assert_eq!(a.self_time("x").self_ns, 12);
        assert_eq!(a.kept[1].op, 1);
    }
}
