//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! (and, where a call returns its own phase timings in a report, as child
//! spans carved out of the caller's span). Nothing is recorded when
//! tracing is off; the clock reads that time the end-to-end metrics happen
//! in both modes.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Batch or request id the span belongs to.
    pub id: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a span and returns its index, or `None` with tracing off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a child span of known duration that ended when `parent`
    /// ended (a phase a public call reports about itself).
    pub fn record_tail(
        &mut self,
        name: &'static str,
        seconds: f64,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        let p = self.spans.get(parent?)?;
        let end = p.end;
        self.record(name, (end - seconds).max(p.start), end, parent, id)
    }

    /// Records a child span of known duration that started when `parent`
    /// started.
    pub fn record_head(
        &mut self,
        name: &'static str,
        seconds: f64,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        let p = self.spans.get(parent?)?;
        let start = p.start;
        self.record(name, start, (start + seconds).min(p.end), parent, id)
    }

    /// Self time of every span, grouped by name: the span's duration minus
    /// the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.entry(s.name)
                .or_default()
                .push((s.end - s.start - covered[i]).max(0.0));
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start, s.end, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let root = t.record("batch", 0.0, 10.0, None, 1);
        t.record_head("apply", 2.0, root, 1);
        t.record_tail("publish", 5.0, root, 1);
        let st = t.self_times();
        assert_eq!(st["batch"], vec![3.0]);
        assert_eq!(st["apply"], vec![2.0]);
        assert_eq!(st["publish"], vec![5.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert!(t.record("x", 0.0, 1.0, None, 0).is_none());
        assert!(t.self_times().is_empty());
    }
}
