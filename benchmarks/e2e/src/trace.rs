//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. Spans of
//! one request share its number; each names the span that caused it.
//! Nothing below `Engine::search` is visible from outside while the call
//! runs, so a miss is followed by **replay spans**: the same work done
//! again through the lower layers' public functions, timed, and placed
//! inside the real `engine.engine.search` span as its children (their
//! timestamps are rebased; `replay: true` says so). A layer's self time
//! is its span's duration minus what its children cover, clamped at 0.

use crate::json::Value;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so
/// the same code path timed both ways gives the recording's overhead.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; returns its id (0 when disabled).
    pub fn open(&mut self, parent: Option<u32>, request: u32, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
            replay: false,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        parent: Option<u32>,
        request: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let id = self.open(parent, request, name);
        let result = f();
        self.close(id);
        (result, id)
    }

    /// Places a replay span of `duration_ns` inside `parent`, starting
    /// `offset_ns` after the parent's start. Returns its id.
    pub fn place_replay(
        &mut self,
        parent: u32,
        name: &'static str,
        offset_ns: u64,
        duration_ns: u64,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        let (request, start_ns) = {
            let p = &self.spans[parent as usize];
            (p.request, p.start_ns + offset_ns)
        };
        self.spans.push(Span {
            id,
            parent: Some(parent),
            request,
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            replay: true,
        });
        id
    }
}

/// The layer a span's self time is charged to; the root `request` span's
/// own remainder is the harness's glue and belongs to no layer.
pub fn layer_of(name: &str) -> Option<&'static str> {
    match name {
        "engine.engine.search" => Some("engine.engine"),
        "text.segments.search" => Some("text.segments"),
        "text.sources.drain" => Some("text.sources"),
        "core.framework.replay" => Some("core.framework"),
        "core.cut.search" => Some("core.cut"),
        n if n.starts_with("engine.proto.") => Some("engine.proto"),
        _ => None,
    }
}

pub const LAYERS: [&str; 6] = [
    "engine.proto",
    "engine.engine",
    "text.segments",
    "text.sources",
    "core.framework",
    "core.cut",
];

/// Per span: self time in ns, and whether its children cover more than
/// the span itself (self time clamped at 0).
pub fn self_times(spans: &[Span]) -> Vec<(u64, bool)> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        // A parent that does not exist is reported by `summarize`.
        if let Some(covered) = span.parent.and_then(|p| children_ns.get_mut(p as usize)) {
            *covered += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children_ns)
        .map(|(span, covered)| {
            let duration = span.duration_ns();
            (duration.saturating_sub(covered), covered > duration)
        })
        .collect()
}

/// What the layer table and the validity metrics are computed from.
pub struct Summary {
    /// Per layer: p50 of the per-request self time in µs, and the
    /// layer's share of all `request` time.
    pub layers: BTreeMap<&'static str, (f64, f64)>,
    pub clamped_share: f64,
    /// Share of requests all of whose spans lie inside their parents.
    pub nested_share: f64,
    /// Every span's parent exists and belongs to the same request.
    pub well_formed: bool,
    pub requests: usize,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let selfs = self_times(spans);
    let mut per_request: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    let mut request_ns: BTreeMap<u32, u64> = BTreeMap::new();
    let mut escaped: BTreeMap<u32, bool> = BTreeMap::new();
    let mut well_formed = true;
    for (span, &(self_ns, _)) in spans.iter().zip(&selfs) {
        escaped.entry(span.request).or_insert(false);
        match span.parent {
            None => *request_ns.entry(span.request).or_insert(0) += span.duration_ns(),
            Some(parent) => match spans.get(parent as usize) {
                Some(p) if p.request == span.request && p.id < span.id => {
                    if span.start_ns < p.start_ns || span.end_ns > p.end_ns {
                        escaped.insert(span.request, true);
                    }
                }
                _ => well_formed = false,
            },
        }
        if let Some(layer) = layer_of(span.name) {
            *per_request
                .entry(span.request)
                .or_default()
                .entry(layer)
                .or_insert(0) += self_ns;
        }
    }
    let total_ns: u64 = request_ns.values().sum();
    let requests = request_ns.len();
    let layers = LAYERS
        .iter()
        .map(|&layer| {
            let each: Vec<u64> = request_ns
                .keys()
                .map(|r| {
                    per_request
                        .get(r)
                        .and_then(|l| l.get(layer))
                        .copied()
                        .unwrap_or(0)
                })
                .collect();
            let sum: u64 = each.iter().sum();
            let sorted_us: Vec<f64> = stats::sorted_ms(&each).iter().map(|ms| ms * 1e3).collect();
            (
                layer,
                (
                    stats::percentile(&sorted_us, 0.5),
                    sum as f64 / total_ns.max(1) as f64,
                ),
            )
        })
        .collect();
    let share = |count: usize, of: usize| count as f64 / of.max(1) as f64;
    Summary {
        layers,
        clamped_share: share(selfs.iter().filter(|s| s.1).count(), spans.len()),
        nested_share: share(escaped.values().filter(|&&e| !e).count(), escaped.len()),
        well_formed,
        requests,
    }
}

/// The span file: written once, when the run ends.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    Value::object([
        ("workload", workload.into()),
        (
            "spans",
            Value::Array(
                spans
                    .iter()
                    .map(|s| {
                        Value::object([
                            ("id", Value::Number(f64::from(s.id))),
                            (
                                "parent",
                                s.parent
                                    .map_or(Value::Null, |p| Value::Number(f64::from(p))),
                            ),
                            ("request", Value::Number(f64::from(s.request))),
                            ("name", s.name.into()),
                            ("start_ns", Value::Number(s.start_ns as f64)),
                            ("end_ns", Value::Number(s.end_ns as f64)),
                            ("replay", Value::Bool(s.replay)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
            replay: parent.is_some_and(|p| p >= 1),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_clamped_at_zero() {
        let spans = vec![
            span(0, None, "request", 0, 1000),
            span(1, Some(0), "engine.engine.search", 100, 900),
            span(2, Some(1), "text.segments.search", 100, 700),
            span(3, Some(2), "text.sources.drain", 100, 300),
            // The replay ran longer than its parent: clamped.
            span(4, Some(2), "core.framework.replay", 300, 1100),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], (200, false));
        assert_eq!(selfs[1], (200, false));
        assert_eq!(selfs[2], (0, true), "children cover 1000 of 600 ns");
        assert_eq!(selfs[3], (200, false));
        assert_eq!(selfs[4], (800, false));

        let summary = summarize(&spans);
        assert!(summary.well_formed);
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.clamped_share, 0.2);
        assert_eq!(summary.nested_share, 0.0, "span 4 ends after its parent");
        assert_eq!(summary.layers["text.sources"], (0.2, 0.2));
        assert_eq!(summary.layers["engine.engine"].1, 0.2);
        assert_eq!(summary.layers["core.cut"], (0.0, 0.0));
    }

    #[test]
    fn a_missing_parent_is_malformed() {
        let spans = vec![span(0, None, "request", 0, 10), span(1, Some(7), "x", 1, 2)];
        assert!(!summarize(&spans).well_formed);
    }

    #[test]
    fn tracer_nests_places_replays_and_can_be_switched_off() {
        let mut t = Tracer::new(true);
        let root = t.open(None, 3, "request");
        let (value, search) = t.time(Some(root), 3, "engine.engine.search", || 41 + 1);
        t.close(root);
        assert_eq!(value, 42);
        let replay = t.place_replay(search, "text.segments.search", 5, 10);
        let (s, r) = (&t.spans[search as usize], &t.spans[replay as usize]);
        assert_eq!((r.parent, r.request, r.replay), (Some(search), 3, true));
        assert_eq!((r.start_ns, r.end_ns), (s.start_ns + 5, s.start_ns + 15));
        assert!(t.spans[root as usize].end_ns >= s.end_ns);

        let mut off = Tracer::new(false);
        let root = off.open(None, 0, "request");
        let (value, _) = off.time(Some(root), 0, "x", || 7);
        off.close(root);
        assert_eq!(value, 7);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn span_file_parses_back() {
        let spans = vec![span(0, None, "request", 0, 10), span(1, Some(0), "x", 1, 2)];
        let text = to_json("hot_serve", &spans).render();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(parsed.get("workload").unwrap().as_str(), Some("hot_serve"));
        let Some(Value::Array(items)) = parsed.get("spans") else {
            panic!("no spans array");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("parent"), Some(&Value::Null));
        assert_eq!(items[1].get("end_ns").unwrap().as_f64(), Some(2.0));
    }
}
