//! In-memory spans for the traced run, recorded around calls into the
//! library from the benchmark's side. Spans stay in memory and are
//! written as JSONL once the traced run ends; self times come from the
//! spans (a span's duration minus the durations of its children).

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval.
pub struct Span {
    /// Which in-process pass recorded it (`layers`, `replay`, `open_loop`).
    pub pass: &'static str,
    /// Layer name, `module.stage`.
    pub name: &'static str,
    /// The corpus line the span belongs to.
    pub request: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A finished span.
    pub fn record(
        &mut self,
        pass: &'static str,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            pass,
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Trace::end`].
    pub fn start(
        &mut self,
        pass: &'static str,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
    ) -> usize {
        let now = self.now();
        self.record(pass, name, request, parent, now, now)
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Self time of every span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Summed self time per span name, within one pass.
    pub fn self_time_by_name(&self, pass: &str) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if s.pass == pass {
                *out.entry(s.name).or_insert(0) += own;
            }
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"pass\":\"{}\",\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.pass, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        let root = t.record("layers", "request", 0, None, 0, 100);
        t.record("layers", "a", 0, Some(root), 10, 40);
        t.record("layers", "b", 0, Some(root), 50, 60);
        assert_eq!(t.self_times(), vec![60, 30, 10]);
        let by_name = t.self_time_by_name("layers");
        assert_eq!(by_name["request"] + by_name["a"] + by_name["b"], 100);
    }
}
