//! In-memory spans recorded around calls into the program's public
//! functions, and the self-time arithmetic over them.
//!
//! Spans stay in memory while the replay runs and are written out once
//! at the end. A span's self time is its duration minus the part of its
//! interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The replayed operation this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Span recorder. When disabled it records root spans only, so the same
/// replay gives the untraced per-op times the tracing overhead is
/// measured against.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation id.
    pub fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` belonging to operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled && !self.open.is_empty() {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Record an already-measured interval as a leaf span of the open one.
    pub fn record(&mut self, name: &'static str, op: u64, start: u64, end: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            op,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "idx\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
        let selfs = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.op, s.start, s.end, selfs[i]
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Self times in milliseconds, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t as f64 / 1e6);
    }
    out
}

/// Whole durations in milliseconds, grouped by span name.
pub fn dur_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.dur() as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: [10,80) + [90,100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_disabled_keeps_roots_only() {
        let mut t = Tracer::new(true);
        t.span("root", 7, |t| {
            t.span("child", 7, |t| t.span("leaf", 7, |_| ()));
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(1)));
        assert!(s.iter().all(|x| x.op == 7 && x.end >= x.start));
        let selfs = self_times(s);
        assert_eq!(selfs[0] + selfs[1] + selfs[2], s[0].dur());

        let mut off = Tracer::new(false);
        off.span("root", 1, |t| t.span("child", 1, |_| ()));
        assert_eq!(off.spans().len(), 1);
    }
}
