//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end and the span that was open when it
//! started (its parent). Spans are kept in memory and written out once the
//! run ends; a layer's self time is its span's duration minus the part of
//! that interval its child spans cover. With tracing off, [`Tracer::span`]
//! just calls the closure.

use std::collections::BTreeMap;
use std::time::Instant;

use tage_bench::jsonish;

/// One closed span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span wraps (`tage_sim::phase::build_plan`, ...).
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans on one thread; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e9)
            .collect()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Per span name: `(count, total seconds, self seconds)`.
pub fn summary(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = out.entry(span.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns() as f64 / 1e9;
        entry.2 += self_ns as f64 / 1e9;
    }
    out
}

/// The spans as a JSON document: one object per span with its index,
/// parent, root (the top-level span it belongs to) and self time.
pub fn to_json(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let lines: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(index, span)| {
            let mut root = index;
            while let Some(parent) = spans[root].parent {
                root = parent;
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            format!(
                "  {{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"root\": {root}, \"self_ns\": {}}}",
                jsonish::escape(&span.name),
                span.start_ns,
                span.end_ns,
                self_ns[index]
            )
        })
        .collect();
    format!("{{\"spans\": [\n{}\n]}}\n", lines.join(",\n"))
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
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("campaign", 0, 100, None),
            span("cell", 10, 40, Some(0)),
            span("decode", 12, 20, Some(1)),
            span("cell", 50, 90, Some(0)),
            // Overlapping siblings (a child of the second cell) count once.
            span("open", 55, 70, Some(3)),
            span("open", 60, 80, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 22, 8, 15, 15, 20]);
        let summary = summary(&spans);
        let cell = summary["cell"];
        assert_eq!(cell.0, 2);
        assert!((cell.1 - 70e-9).abs() < 1e-15);
        assert!((cell.2 - 37e-9).abs() < 1e-15);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("outer", 10, 20, None), span("inner", 5, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 25]);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let value = tracer.span("outer", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(value, 8);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.durations_s("inner").len(), 1);
        let json = to_json(spans);
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"root\": 0"));
        jsonish::validate_document(&json, jsonish::DEFAULT_MAX_DEPTH).unwrap();

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
