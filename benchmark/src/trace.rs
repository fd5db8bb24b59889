//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, written out as JSON lines when the run ends.

use planar_core::JsonObject;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `shard.batch`.
    pub name: &'static str,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin; `start` until the span ends.
    pub end: Duration,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request the span belongs to; spans of one request share it.
    pub rid: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder; span times are offsets from one origin.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer measuring from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Open a span now; returns its index for [`Tracer::end`] and children.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, rid: u64) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            rid,
        });
        self.spans.len() - 1
    }

    /// Close the span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rid: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, rid);
        let out = f();
        self.end(id);
        out
    }

    /// Summed duration of every span named `name`, in µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.named(name).map(|s| micros(s.duration())).sum()
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Write every span with its self time as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let line = JsonObject::new()
                .field_usize("id", id)
                .field_str("name", s.name)
                .field_raw("parent", &parent)
                .field_u64("rid", s.rid)
                .field_f64("start_us", micros(s.start))
                .field_f64("end_us", micros(s.end))
                .field_f64("self_us", micros(own))
                .finish();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Microseconds as a float.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (calls on
/// parallel threads), so their intervals are merged before subtracting.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = Duration::ZERO;
            let mut cursor = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            parent,
            rid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Children cover [10, 60) (two overlapping calls) and [90, 100)
        // (clipped to the parent): 60 of the parent's 100 µs.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 120, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_micros(40));
        assert_eq!(own[1], Duration::from_micros(30));
        assert_eq!(own[3], Duration::from_micros(30));
    }

    #[test]
    fn nested_child_inside_another_child_counts_once() {
        let spans = vec![
            span(0, 50, None),
            span(5, 45, Some(0)),
            span(10, 20, Some(0)),
            span(12, 18, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_micros(10));
        assert_eq!(own[1], Duration::from_micros(34));
    }
}
