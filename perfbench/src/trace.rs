//! In-memory spans recorded by the benchmark around its own calls
//! into each layer's public functions.
//!
//! Each task owns a [`Tracer`] (no sharing, no locks on the measured
//! path); tracers merge when the task ends. A span records its name
//! (`<layer>.<what>`), start, end, the span that caused it and the
//! request it belongs to. At the end the spans are written out as a
//! tab-separated file and each layer's *self time* is computed: a
//! span's duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Causing span, 0 for a root.
    pub parent: u64,
    /// Request the span belongs to.
    pub req: u64,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start time (runtime clock, ns or simulated cycles).
    pub start: u64,
    /// End time.
    pub end: u64,
}

/// Per-task span buffer; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start at `task << 40`, so tracers of
    /// different tasks never hand out the same id.
    pub fn new(on: bool, task: u64) -> Tracer {
        Tracer {
            on,
            next: (task << 40) | 1,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose children are recorded before
    /// it ends (0 when tracing is off).
    pub fn id(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        id
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: u64,
        end: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                req,
                name,
                start,
                end,
            });
        }
    }

    /// Records a leaf span.
    pub fn leaf(&mut self, name: &'static str, parent: u64, req: u64, start: u64, end: u64) {
        let id = self.id();
        self.record(id, name, parent, req, start, end);
    }

    /// Moves another tracer's spans into this one.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Total self time per layer (the part of `name` before the first
    /// `.`), in the spans' time unit.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get_mut(&s.id)
                .map(|c| covered_within(c, s.start, s.end))
                .unwrap_or(0);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += (s.end - s.start).saturating_sub(covered);
        }
        out
    }
}

/// Writes the spans of `tracers` to `path`, one tab-separated line
/// each; returns how many.
pub fn write_tsv(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<usize> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id\tparent\treq\tname\tstart\tend")?;
    let mut n = 0;
    for s in tracers.iter().flat_map(|t| &t.spans) {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start, s.end
        )?;
        n += 1;
    }
    f.flush()?;
    Ok(n)
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map(|(s, e)| e - s).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::new(true, 1);
        let root = t.id();
        t.leaf("kernel.open", root, 1, 10, 30);
        t.leaf("kernel.read", root, 1, 20, 40);
        t.leaf("kernel.close", root, 1, 90, 200); // clipped to the root
        t.record(root, "bench.chain", 0, 1, 0, 100);
        let by_layer = t.self_time_by_layer();
        assert_eq!(by_layer["bench"], 100 - 30 - 10);
        assert_eq!(by_layer["kernel"], 20 + 20 + 110);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        let id = t.id();
        t.record(id, "bench.chain", 0, 1, 0, 1);
        assert_eq!((id, t.spans.len()), (0, 0));
    }
}
