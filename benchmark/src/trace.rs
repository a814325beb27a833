//! In-memory spans recorded from outside the program — around calls into
//! its public API, or converted from the span records it already exports
//! (`Trainer::set_tracer`, the wire protocol's trace extension) — and
//! written to `benchmark/out/trace-<workload>.json` when the run ends.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Spans kept per run. A hot serving phase completes ~20 k requests a
/// second; past the cap spans are counted in `dropped_spans`, not stored,
/// so the traced run's own memory stays bounded.
const MAX_SPANS: usize = 100_000;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Epoch number or request id: spans of one unit share it.
    pub unit_id: u64,
}

#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// Whether `n` more spans fit; callers check once per unit so a unit's
    /// tree is stored whole or not at all.
    pub fn has_room(&mut self, n: usize) -> bool {
        let fits = self.spans.len() + n <= MAX_SPANS;
        if !fits {
            self.dropped += n as u64;
        }
        fits
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// `(self time, duration)` summed over the roots called `root`: a
    /// root's self time is its duration minus the part of it its direct
    /// children cover (overlapping children are not counted twice).
    pub fn root_self_time(&self, root: &str) -> (u64, u64) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let (mut self_ns, mut total_ns) = (0, 0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() || s.name != root {
                continue;
            }
            let kids = &mut children[i];
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let dur = s.end_ns - s.start_ns;
            self_ns += dur - covered;
            total_ns += dur;
        }
        (self_ns, total_ns)
    }

    /// Writes the span file; `notes` are `(key, already-rendered JSON
    /// value)` pairs recorded beside the spans (shapes, phase layout).
    pub fn write(
        &self,
        workload: &str,
        seed: u64,
        notes: &[(&str, String)],
    ) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("benchmark/out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"dropped_spans\": {}",
            self.dropped
        );
        for (key, value) in notes {
            let _ = write!(out, ", \"{key}\": {value}");
        }
        out.push_str(", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"unit_id\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.unit_id
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            unit_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::default();
        let root = spans.push(span("unit", 100, 200, None));
        // Overlapping children cover [110, 150); one pokes past the root.
        spans.push(span("a", 110, 140, Some(root)));
        spans.push(span("b", 120, 150, Some(root)));
        spans.push(span("c", 190, 230, Some(root)));
        // A grandchild and a differently named root change nothing.
        spans.push(span("a.inner", 111, 112, Some(1)));
        spans.push(span("other", 0, 1_000, None));
        assert_eq!(spans.root_self_time("unit"), (100 - 40 - 10, 100));
    }
}
