//! In-memory spans for the traced run: one span per call into a layer,
//! with the evaluation or request it served and the span that caused it.
//! Spans are kept in memory and written out once, when the run ends.

use crate::stats::Reconciliation;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A span's handle; 0 means "no span" (a disabled tracer's handles).
pub type SpanId = u32;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, from 1.
    pub id: SpanId,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<SpanId>,
    /// The evaluation or request this span served.
    pub item: u64,
    /// The layer (or root kind) this span measures.
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start_s: f64,
    /// Seconds since the tracer started.
    pub end_s: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Collects spans from any thread. A disabled tracer records nothing, so
/// the untraced run shares the traced run's code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    next: SpanId,
    open: BTreeMap<SpanId, (Option<SpanId>, u64, &'static str, f64)>,
    done: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Opens a span named `name` for `item` under `parent` (0 for none).
    pub fn begin(&self, name: &'static str, item: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start = self.origin.elapsed().as_secs_f64();
        let mut state = self.state.lock().expect("tracer poisoned");
        state.next += 1;
        let id = state.next;
        let parent = (parent != 0).then_some(parent);
        state.open.insert(id, (parent, item, name, start));
        id
    }

    /// Closes span `id` (a no-op for 0).
    pub fn end(&self, id: SpanId) {
        if id == 0 {
            return;
        }
        let end_s = self.origin.elapsed().as_secs_f64();
        let mut state = self.state.lock().expect("tracer poisoned");
        let (parent, item, name, start_s) = state
            .open
            .remove(&id)
            .expect("each span is closed exactly once");
        state.done.push(Span {
            id,
            parent,
            item,
            name,
            start_s,
            end_s,
        });
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        item: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, item, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every finished span, in id order.
    pub fn finished(&self) -> Vec<Span> {
        let mut spans = self.state.lock().expect("tracer poisoned").done.clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Each span's self time: its duration minus its children's. Children
/// in this benchmark run one after another on their parent's thread, so
/// their durations never overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, f64> {
    let mut times: BTreeMap<SpanId, f64> = spans.iter().map(|s| (s.id, s.duration())).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            if let Some(t) = times.get_mut(&parent) {
                *t -= span.duration();
            }
        }
    }
    times
}

/// Total self time per layer name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let times = self_times(spans);
    let mut by_name = BTreeMap::new();
    for span in spans {
        *by_name.entry(span.name).or_insert(0.0) += times[&span.id];
    }
    by_name
}

/// Total duration per span name.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for span in spans {
        *by_name.entry(span.name).or_insert(0.0) += span.duration();
    }
    by_name
}

/// The roots named `root` against the self times of every span below
/// them.
pub fn reconcile(spans: &[Span], root: &str) -> Reconciliation {
    let times = self_times(spans);
    let parents: BTreeMap<SpanId, Option<SpanId>> =
        spans.iter().map(|s| (s.id, s.parent)).collect();
    let names: BTreeMap<SpanId, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let under_root = |mut id: SpanId| {
        while let Some(Some(parent)) = parents.get(&id) {
            if names[parent] == root && parents[parent].is_none() {
                return true;
            }
            id = *parent;
        }
        false
    };
    let wall_s = spans
        .iter()
        .filter(|s| s.name == root && s.parent.is_none())
        .map(Span::duration)
        .sum();
    let layer_sum_s = spans
        .iter()
        .filter(|s| under_root(s.id))
        .map(|s| times[&s.id])
        .sum();
    Reconciliation {
        wall_s,
        layer_sum_s,
    }
}

/// Writes `spans` as JSON lines to `path`.
///
/// # Errors
///
/// Returns the I/O error.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"item\": {}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}}}",
            s.id, s.item, s.name, s.start_s, s.end_s
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            item: 1,
            name,
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, None, "eval", 0.0, 10.0),
            span(2, Some(1), "models.build", 0.5, 6.5),
            span(3, Some(1), "sim.session", 6.5, 9.5),
            span(4, Some(3), "inner", 7.0, 8.0),
        ];
        let times = self_times(&spans);
        assert!((times[&1] - 1.0).abs() < 1e-12);
        assert!((times[&2] - 6.0).abs() < 1e-12);
        assert!((times[&3] - 2.0).abs() < 1e-12);
        assert!((times[&4] - 1.0).abs() < 1e-12);
        let by_name = self_time_by_name(&spans);
        assert!((by_name["sim.session"] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reconciliation_counts_layers_under_roots_only() {
        let spans = vec![
            span(1, None, "eval", 0.0, 10.0),
            span(2, Some(1), "models.build", 0.0, 6.0),
            span(3, Some(1), "sim.session", 6.0, 9.0),
            // A side measurement outside any eval root is not a layer of
            // the traced wall.
            span(4, None, "sim.tile", 10.0, 12.0),
            span(5, None, "eval", 12.0, 14.0),
            span(6, Some(5), "serde.json", 12.0, 14.0),
        ];
        let r = reconcile(&spans, "eval");
        assert!((r.wall_s - 12.0).abs() < 1e-12);
        assert!((r.layer_sum_s - 11.0).abs() < 1e-12);
        assert!((r.unaccounted_pct() - 100.0 / 12.0).abs() < 1e-9);
        assert!(r.within(10.0));
    }

    #[test]
    fn tracer_links_parents_and_disabled_tracers_record_nothing() {
        let tracer = Tracer::enabled();
        let root = tracer.begin("eval", 7, 0);
        assert_eq!(tracer.span("models.build", 7, root, || 41), 41);
        tracer.end(root);
        let spans = tracer.finished();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.item == 7 && s.end_s >= s.start_s));

        let off = Tracer::disabled();
        assert_eq!(off.begin("eval", 1, 0), 0);
        assert_eq!(off.span("eval", 1, 0, || 3), 3);
        assert!(off.finished().is_empty());
    }
}
