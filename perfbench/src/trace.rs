//! In-memory span recording for the traced run.
//!
//! Every span is one call from the benchmark into a layer's public
//! function: its layer, the layer of the span that caused it, and its host
//! start and duration. Spans are kept in memory and summarised when the run
//! ends; a layer's self time is its spans' duration minus what their child
//! spans cover.

use std::time::Instant;

/// The layers the traced runner puts spans around, named by module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The runtime loop itself (`runtime`): one span per grid point.
    Runtime,
    /// `CoreWorkload::next_op` / the `timed_ops` iterator.
    WorkloadGen,
    /// `CoreWorkload::new`.
    WorkloadNew,
    /// `Cluster::new`.
    ClusterNew,
    /// `Cluster::load_records`.
    ClusterLoad,
    /// `Cluster::advance`.
    ClusterAdvance,
    /// `Cluster::submit_*` and `Cluster::submit_batch`.
    ClusterSubmit,
    /// Control calls into the cluster: ticks, level changes, fault actions,
    /// propagation-sample drains and the end-of-run metric reads.
    ClusterControl,
    /// `AccessMonitor::new` / `record_*` / `snapshot`.
    Monitor,
    /// `ConsistencyPolicy::decide` (Harmony's estimator runs inside it).
    PolicyDecide,
    /// `ResourceUsage::from_cluster` + `Bill::compute`.
    CostBill,
}

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; 11] = [
        Layer::Runtime,
        Layer::WorkloadGen,
        Layer::WorkloadNew,
        Layer::ClusterNew,
        Layer::ClusterLoad,
        Layer::ClusterAdvance,
        Layer::ClusterSubmit,
        Layer::ClusterControl,
        Layer::Monitor,
        Layer::PolicyDecide,
        Layer::CostBill,
    ];

    /// The span name, after the module the layer lives in.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Runtime => "runtime.run",
            Layer::WorkloadGen => "workload.gen",
            Layer::WorkloadNew => "workload.new",
            Layer::ClusterNew => "cluster.new",
            Layer::ClusterLoad => "cluster.load",
            Layer::ClusterAdvance => "cluster.advance",
            Layer::ClusterSubmit => "cluster.submit",
            Layer::ClusterControl => "cluster.control",
            Layer::Monitor => "monitor",
            Layer::PolicyDecide => "policy.decide",
            Layer::CostBill => "cost.bill",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The layer of the enclosing span, if any.
    pub parent: Option<Layer>,
    /// Host nanoseconds from the tracer's origin to the call.
    pub start_ns: u64,
    /// Host nanoseconds the call took.
    pub dur_ns: u64,
}

/// A span recorder for one grid point (one thread).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span starts are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Host nanoseconds since the tracer's origin: a span's start mark.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Add a span recorded elsewhere against this tracer's origin.
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Close a span opened at `start` (a [`Tracer::now`] mark).
    pub fn finish(&mut self, layer: Layer, parent: Option<Layer>, start: u64) {
        let end = self.now();
        self.spans.push(Span {
            layer,
            parent,
            start_ns: start,
            dur_ns: end.saturating_sub(start),
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, layer: Layer, parent: Option<Layer>, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        self.finish(layer, parent, start);
        out
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summarise the recorded spans per layer.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::from_spans(&self.spans)
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of the durations of spans whose parent is this layer, ns.
    pub child_ns: u64,
    /// Every span duration, ns (for percentiles).
    pub durations_ns: Vec<u64>,
}

impl LayerTotals {
    /// Total time in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Self time in seconds: duration minus what child spans cover.
    pub fn self_s(&self) -> f64 {
        self.total_ns.saturating_sub(self.child_ns) as f64 / 1e9
    }
}

/// Per-layer summary of a trace (or of several traces merged).
#[derive(Debug, Clone)]
pub struct TraceSummary {
    layers: Vec<LayerTotals>,
}

impl Default for TraceSummary {
    fn default() -> Self {
        TraceSummary {
            layers: vec![LayerTotals::default(); Layer::ALL.len()],
        }
    }
}

impl TraceSummary {
    /// Summarise spans (child time is attributed to each span's parent).
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut summary = TraceSummary::default();
        for s in spans {
            let l = &mut summary.layers[s.layer.index()];
            l.calls += 1;
            l.total_ns += s.dur_ns;
            l.durations_ns.push(s.dur_ns);
            if let Some(p) = s.parent {
                summary.layers[p.index()].child_ns += s.dur_ns;
            }
        }
        summary
    }

    /// Fold another summary into this one.
    pub fn merge(&mut self, other: &TraceSummary) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.child_ns += b.child_ns;
            a.durations_ns.extend_from_slice(&b.durations_ns);
        }
    }

    /// The totals of one layer.
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.layers[layer.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<Layer>, dur_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let spans = [
            span(Layer::WorkloadGen, Some(Layer::ClusterSubmit), 30),
            span(Layer::ClusterSubmit, Some(Layer::Runtime), 100),
            span(Layer::ClusterAdvance, Some(Layer::Runtime), 200),
            span(Layer::Runtime, None, 1_000),
        ];
        let s = TraceSummary::from_spans(&spans);
        assert_eq!(s.layer(Layer::Runtime).child_ns, 300);
        assert!((s.layer(Layer::Runtime).self_s() - 700e-9).abs() < 1e-15);
        assert!((s.layer(Layer::ClusterSubmit).self_s() - 70e-9).abs() < 1e-15);
        assert_eq!(s.layer(Layer::WorkloadGen).calls, 1);
        let mut merged = s.clone();
        merged.merge(&s);
        assert_eq!(merged.layer(Layer::ClusterAdvance).calls, 2);
        assert_eq!(merged.layer(Layer::ClusterAdvance).durations_ns, [200, 200]);
    }

    #[test]
    fn spans_nest_in_completion_order() {
        let mut t = Tracer::new();
        t.span(Layer::Runtime, None, || ());
        t.span(Layer::Monitor, Some(Layer::Runtime), || ());
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].layer, Layer::Monitor);
        assert!(t.spans()[1].start_ns >= t.spans()[0].start_ns);
    }
}
