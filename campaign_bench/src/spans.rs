//! Spans recorded from outside the program, around each public call.
//!
//! A span is (id, parent, name, start, end). Spans are kept in memory and
//! written out when the run ends; a layer's time is its spans' self time:
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within one [`Tracer`].
    pub id: u32,
    /// The span that made the call; `None` for a root.
    pub parent: Option<u32>,
    /// Layer name, with an index in brackets where there are many
    /// (`trial[7]`).
    pub name: String,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// The name without its bracketed index: the layer it times.
    pub fn layer(&self) -> &str {
        self.name.split('[').next().unwrap_or(&self.name)
    }

    fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] just runs
/// the call, so traced and untraced code paths are the same code.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, passing it the
    /// new span's id to parent its own calls. Safe to call from several
    /// threads at once (trial pools do).
    pub fn span<R>(&self, parent: Option<u32>, name: &str, f: impl FnOnce(Option<u32>) -> R) -> R {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let result = f(Some(id));
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
        });
        result
    }

    /// The recorded spans, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .map(|m| m.into_inner().expect("span list poisoned"))
            .unwrap_or_default()
    }
}

/// Self time in milliseconds, summed per layer name.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|c| covered_us(c, s.start_us, s.end_us))
            .unwrap_or(0.0);
        *out.entry(s.layer().to_string()).or_insert(0.0) += (s.duration_us() - covered) / 1e3;
    }
    out
}

/// Total wall time in milliseconds of the spans of one layer.
pub fn wall_ms(spans: &[Span], layer: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer() == layer)
        .map(|s| s.duration_us() / 1e3)
        .sum()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`. Children on
/// a trial pool overlap each other, so their durations cannot simply be
/// summed.
fn covered_us(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, None, "phase2", 0.0, 10_000.0),
            span(1, Some(0), "trial[0]", 1_000.0, 6_000.0),
            span(2, Some(0), "trial[1]", 2_000.0, 8_000.0),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert_eq!(by_layer["phase2"], 3.0, "7 ms of 10 covered by two trials");
        assert_eq!(by_layer["trial"], 11.0);
        assert_eq!(wall_ms(&spans, "trial"), 11.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_runs_the_call() {
        let tracer = Tracer::new(false);
        assert!(tracer.span(None, "x", |id| id.is_none()));
        assert!(tracer.into_spans().is_empty());
        let tracer = Tracer::new(true);
        tracer.span(None, "root", |root| tracer.span(root, "child", |_| ()));
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
