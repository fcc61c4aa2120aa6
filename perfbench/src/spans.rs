//! In-memory spans around the benchmark's calls into each layer, written
//! out once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: the layer function's name, its interval in ns since
/// the recorder's origin, the id of the span that caused it (0 = none) and
/// the request it served (0 = none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span store; a span's id is its index plus one.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(&mut self, span: Span) -> u64 {
        self.spans.push(span);
        self.spans.len() as u64
    }

    /// Overwrites the end of span `id`, opened earlier with a placeholder.
    pub fn close(&mut self, id: u64, end_ns: u64) {
        self.spans[(id - 1) as usize].end_ns = end_ns;
    }

    /// Mean duration of the spans named `name`, µs, minus the part of each
    /// covered by its children (self time). 0 when there are none.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let selfs: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i + 1]) as f64 / 1e3)
            .collect();
        crate::stats::mean(&selfs)
    }

    /// Writes the spans as JSON lines: `[id, name, start_ns, end_ns,
    /// parent, req]`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "[{},\"{}\",{},{},{},{}]",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(Instant::now());
        let parent = s.push(Span {
            name: "outer",
            start_ns: 0,
            end_ns: 100,
            parent: 0,
            req: 0,
        });
        s.push(Span {
            name: "inner",
            start_ns: 10,
            end_ns: 40,
            parent,
            req: 7,
        });
        s.push(Span {
            name: "outer",
            start_ns: 200,
            end_ns: 260,
            parent: 0,
            req: 0,
        });
        assert!((s.mean_self_us("outer") - 0.065).abs() < 1e-12);
        assert!((s.mean_self_us("inner") - 0.030).abs() < 1e-12);
        assert_eq!(s.mean_self_us("absent"), 0.0);
    }
}
