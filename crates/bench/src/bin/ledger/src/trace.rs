//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records op id, layer, name, parent, start and end.  When a run is
//! traced, a span around a call into the program also carries the deltas of
//! the program's own telemetry across the call — the `ndlog_phase_*_ns`
//! histograms become the span's children, the counters its work.  No timer
//! is added inside the program: everything here wraps public calls.

use crate::json::Json;
use ndlog::telemetry::{MetricData, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations for the `allocs_per_*`
/// metrics.  One relaxed atomic increment per allocation is cheap enough
/// to leave on in untraced runs too.
pub struct CountingAlloc;

// SAFETY: every call defers to `System`; the counter does not influence
// allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations so far in this process.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Telemetry families that count work or time, read from one snapshot.
/// Label suffixes are summed away, so per-node and per-shard series
/// aggregate to one value; histograms contribute their sum.  Gauges are
/// levels, not work, and are left out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Probe(BTreeMap<String, f64>);

impl Probe {
    pub fn of(snap: &Snapshot) -> Probe {
        let mut m = BTreeMap::new();
        for (name, data) in snap.entries() {
            let v = match data {
                MetricData::Counter(c) => *c as f64,
                MetricData::Histogram(h) => h.sum as f64,
                MetricData::Gauge(_) => continue,
            };
            let family = name.split('{').next().unwrap_or(name);
            *m.entry(family.to_string()).or_insert(0.0) += v;
        }
        Probe(m)
    }

    /// Family-wise `self - before`.
    pub fn since(&self, before: &Probe) -> Probe {
        Probe(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    pub fn get(&self, family: &str) -> f64 {
        self.0.get(family).copied().unwrap_or(0.0)
    }

    pub fn add(&mut self, family: &str, v: f64) {
        *self.0.entry(family.to_string()).or_insert(0.0) += v;
    }

    /// Nanoseconds in the program's named phases (`ndlog_phase_*_ns`).
    pub fn phase_ns(&self) -> f64 {
        self.phases().map(|(_, v)| v).sum()
    }

    fn phases(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with("ndlog_phase_") && k.ends_with("_ns"))
            .map(|(k, v)| (k.as_str(), *v))
    }
}

/// Sum of a gauge family in a snapshot (e.g. snapshot bytes over nodes).
pub fn gauge_sum(snap: &Snapshot, family: &str) -> f64 {
    snap.entries()
        .iter()
        .filter(|(name, _)| name.split('{').next() == Some(family))
        .map(|(_, d)| match d {
            MetricData::Gauge(g) => *g as f64,
            _ => 0.0,
        })
        .sum()
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: usize,
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    /// Program telemetry deltas across the call, plus counts the benchmark
    /// read from the call's result.
    pub work: Probe,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Times operations and, when traced, keeps every span in memory.
///
/// A top-level span is one operation: its wall time is one latency sample
/// in both modes.  Nested spans and telemetry probes exist only when traced.
pub struct Recorder {
    traced: bool,
    epoch: Instant,
    open: Vec<usize>,
    depth: usize,
    ops: usize,
    last: Option<usize>,
    pub spans: Vec<Span>,
    pub op_ms: Vec<f64>,
    pub levels: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            epoch: Instant::now(),
            open: Vec::new(),
            depth: 0,
            ops: 0,
            last: None,
            spans: Vec::new(),
            op_ms: Vec::new(),
            levels: BTreeMap::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Time `f` as a span of `layer`; spans opened inside `f` nest under it.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.traced.then(|| {
            self.spans.push(Span {
                op: self.ops,
                layer,
                name,
                parent: self.open.last().copied(),
                start_ns: 0,
                end_ns: 0,
                allocs: 0,
                work: Probe::default(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        self.depth += 1;
        let a0 = allocs();
        let t0 = Instant::now();
        let r = f(self);
        let t1 = Instant::now();
        let a1 = allocs();
        self.depth -= 1;
        if let Some(i) = idx {
            self.open.pop();
            let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
            let s = &mut self.spans[i];
            s.start_ns = start_ns;
            s.end_ns = end_ns;
            s.allocs = a1 - a0;
        }
        self.last = idx;
        if self.depth == 0 {
            self.op_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
            self.ops += 1;
        }
        r
    }

    /// Time `f(target)` as a span; when traced, attach the telemetry that
    /// `metrics` reports moving across the call.
    pub fn call<T, R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        target: &mut T,
        metrics: impl Fn(&T) -> Snapshot,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let before = self.traced.then(|| Probe::of(&metrics(target)));
        let r = self.span(layer, name, |_| f(target));
        if let Some(before) = before {
            let delta = Probe::of(&metrics(target)).since(&before);
            self.attach(delta);
        }
        r
    }

    /// Add work to the span that closed last (no-op untraced).
    pub fn attach(&mut self, work: Probe) {
        if let Some(i) = self.last {
            for (k, v) in work.0 {
                self.spans[i].work.add(&k, v);
            }
        }
    }

    /// Add one count to the span that closed last (no-op untraced).
    pub fn note(&mut self, key: &str, v: f64) {
        if let Some(i) = self.last {
            self.spans[i].work.add(key, v);
        }
    }

    /// Record a finished call made where the recorder was out of reach
    /// (inside a model-checker callback), as a child of the open span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        (start, end): (Instant, Instant),
        allocs: u64,
        work: Probe,
    ) {
        if self.traced {
            self.spans.push(Span {
                op: self.ops,
                layer,
                name,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                allocs,
                work,
            });
        }
    }

    /// Set an end-of-run value (a size, or a one-off timing).
    pub fn level(&mut self, key: &'static str, v: f64) {
        self.levels.insert(key, v);
    }

    /// The spans as JSON, with each span's phase children and self time:
    /// its duration minus its child spans, or minus its program phases when
    /// it has no child spans.
    pub fn spans_json(&self) -> Json {
        let mut kids_ns: Vec<Option<u64>> = vec![None; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                *kids_ns[p].get_or_insert(0) += s.end_ns - s.start_ns;
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .zip(&kids_ns)
                .enumerate()
                .map(|(i, (s, kids))| {
                    let children: Vec<(String, Json)> = s
                        .work
                        .phases()
                        .filter(|(_, ns)| *ns > 0.0)
                        .map(|(k, ns)| (k.to_string(), Json::Num(ns / 1e3)))
                        .collect();
                    let dur = (s.end_ns - s.start_ns) as f64;
                    let below = kids.map_or(s.work.phase_ns(), |k| k as f64);
                    let self_us = (dur - below).max(0.0) / 1e3;
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("op", Json::Num(s.op as f64)),
                        ("layer", s.layer.into()),
                        ("name", s.name.into()),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                        ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                        ("self_us", Json::Num(self_us)),
                        ("children_us", Json::Obj(children)),
                    ])
                })
                .collect(),
        )
    }
}

/// Every per-layer metric: name, unit, and which direction is better.
/// Unless the unit says otherwise, values are averages per operation of
/// the traced pass.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("safety.analyze_ms", "ms", "lower"),
    ("algo.busy_ms", "ms/op", "lower"),
    ("algo.invocations", "count/op", "lower"),
    ("algo.fallbacks", "count/op", "lower"),
    ("algo.output_tuples", "count/op", "lower"),
    ("algo.fallback_share", "ratio", "lower"),
    ("incremental.counting_ms", "ms/op", "lower"),
    ("incremental.zset_propagate_ms", "ms/op", "lower"),
    ("incremental.zset_verify_ms", "ms/op", "lower"),
    ("incremental.aggregates_ms", "ms/op", "lower"),
    ("incremental.derivations", "count/op", "lower"),
    ("incremental.rounds", "count/op", "lower"),
    ("incremental.batches", "count/op", "lower"),
    ("incremental.inserted", "count/op", "lower"),
    ("incremental.deleted", "count/op", "lower"),
    ("incremental.zset_retraction_work", "count/op", "lower"),
    ("incremental.net_change_share", "ratio", "higher"),
    ("update.commit_ms", "ms/op", "lower"),
    ("update.self_ms", "ms/op", "lower"),
    ("update.updates", "count/op", "lower"),
    ("update.flushes", "count/op", "lower"),
    ("update.allocs_per_commit", "allocs", "lower"),
    ("query.busy_ms", "ms/op", "lower"),
    ("query.derivations_per_query", "count", "lower"),
    ("query.seeded_per_query", "count", "lower"),
    ("query.iterations", "count", "lower"),
    ("query.demanded", "count", "lower"),
    ("query.answers", "count", "lower"),
    ("query.rewritten_share", "ratio", "higher"),
    ("query.allocs_per_query", "allocs", "lower"),
    ("storage.tuples", "count", "lower"),
    ("storage.snapshot_bytes", "bytes", "lower"),
    ("runtime.run_ms", "ms/op", "lower"),
    ("runtime.self_ms", "ms/op", "lower"),
    ("runtime.sent", "count/op", "lower"),
    ("runtime.received", "count/op", "lower"),
    ("runtime.retransmits", "count/op", "lower"),
    ("runtime.dup_suppressed", "count/op", "lower"),
    ("runtime.reships", "count/op", "lower"),
    ("runtime.snapshot_bytes", "bytes", "lower"),
    ("runtime.goodput_share", "ratio", "higher"),
    ("netsim.events", "count/op", "lower"),
    ("netsim.dropped", "count/op", "lower"),
    ("netsim.duplicated", "count/op", "lower"),
    ("netsim.end_time", "ticks/op", "lower"),
    ("netsim.messages", "count/op", "lower"),
    ("netsim.converge_ticks", "ticks/op", "lower"),
    ("mc.successors_ms", "ms/op", "lower"),
    ("mc.invariant_ms", "ms/op", "lower"),
    ("mc.self_ms", "ms/op", "lower"),
    ("mc.states", "count/op", "lower"),
    ("mc.transitions", "count/op", "lower"),
    ("mc.new_state_share", "ratio", "higher"),
    ("mc.allocs_per_transition", "allocs", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
];

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Derive every [`PER_LAYER`] metric from a traced pass; `overhead_pct` is
/// its cost over an untraced pass of the same operations.
pub fn per_layer(rec: &Recorder, overhead_pct: f64) -> BTreeMap<&'static str, f64> {
    let spans = &rec.spans;
    let ops = rec.op_ms.len() as f64;
    let op_ms: f64 = rec.op_ms.iter().sum();
    let of = |layer: &'static str, name: &'static str| {
        spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    };
    let time = |layer: &'static str, name: &'static str| of(layer, name).map(Span::ms).sum::<f64>();
    let count = |layer: &'static str, name: &'static str| of(layer, name).count() as f64;
    let span_allocs = |layer: &'static str, name: &'static str| {
        of(layer, name).map(|s| s.allocs as f64).sum::<f64>()
    };
    let phase_ms = |layer: &'static str, name: &'static str| {
        of(layer, name).map(|s| s.work.phase_ns()).sum::<f64>() / 1e6
    };
    let total = |family: &str| spans.iter().map(|s| s.work.get(family)).sum::<f64>();
    let per_op = |family: &str| ratio(total(family), ops);
    let ms_per_op = |family: &str| ratio(total(family) / 1e6, ops);

    // Coverage: the share of operation time attributed to a named layer
    // below the operation — program phases where a span has them, else the
    // whole duration of a nested (leaf) benchmark span.
    let covered: f64 = spans
        .iter()
        .map(|s| match (s.work.phase_ns(), s.parent) {
            (ns, _) if ns > 0.0 => ns / 1e6,
            (_, Some(_)) => s.ms(),
            _ => 0.0,
        })
        .sum();

    let invocations = total("ndlog_algo_invocations_total");
    let fallbacks = total("ndlog_algo_fallbacks_total");
    let derivations = total("ndlog_derivations_total");
    let sent = total("runtime_node_sent_total");
    let queries = count("query", "query");
    let commits = count("update", "commit");
    let transitions = total("mc_transitions");
    let level = |k: &str| rec.levels.get(k).copied().unwrap_or(0.0);

    let values: [(&'static str, f64); 56] = [
        ("safety.analyze_ms", level("safety.analyze_ms")),
        ("algo.busy_ms", ms_per_op("ndlog_phase_algo_ns")),
        ("algo.invocations", ratio(invocations, ops)),
        ("algo.fallbacks", ratio(fallbacks, ops)),
        (
            "algo.output_tuples",
            per_op("ndlog_algo_output_tuples_total"),
        ),
        (
            "algo.fallback_share",
            ratio(fallbacks, invocations + fallbacks),
        ),
        (
            "incremental.counting_ms",
            ms_per_op("ndlog_phase_counting_ns"),
        ),
        (
            "incremental.zset_propagate_ms",
            ms_per_op("ndlog_phase_zset_propagate_ns"),
        ),
        (
            "incremental.zset_verify_ms",
            ms_per_op("ndlog_phase_zset_verify_ns"),
        ),
        (
            "incremental.aggregates_ms",
            ms_per_op("ndlog_phase_aggregates_ns"),
        ),
        ("incremental.derivations", ratio(derivations, ops)),
        (
            "incremental.rounds",
            per_op("ndlog_maintenance_rounds_total"),
        ),
        ("incremental.batches", per_op("ndlog_batches_total")),
        (
            "incremental.inserted",
            per_op("ndlog_tuples_inserted_total"),
        ),
        ("incremental.deleted", per_op("ndlog_tuples_deleted_total")),
        (
            "incremental.zset_retraction_work",
            per_op("ndlog_zset_retraction_work"),
        ),
        (
            "incremental.net_change_share",
            ratio(
                total("ndlog_tuples_inserted_total") + total("ndlog_tuples_deleted_total"),
                derivations,
            ),
        ),
        ("update.commit_ms", ratio(time("update", "commit"), ops)),
        (
            "update.self_ms",
            ratio(time("update", "commit") - phase_ms("update", "commit"), ops),
        ),
        ("update.updates", per_op("session_updates_total")),
        ("update.flushes", per_op("session_flushes_total")),
        (
            "update.allocs_per_commit",
            ratio(span_allocs("update", "commit"), commits),
        ),
        ("query.busy_ms", ratio(time("query", "query"), ops)),
        (
            "query.derivations_per_query",
            ratio(total("query_derivations"), queries),
        ),
        (
            "query.seeded_per_query",
            ratio(total("query_seeded"), queries),
        ),
        (
            "query.iterations",
            ratio(total("query_iterations"), queries),
        ),
        ("query.demanded", ratio(total("query_demanded"), queries)),
        ("query.answers", ratio(total("query_answers"), queries)),
        (
            "query.rewritten_share",
            ratio(total("query_rewritten"), queries),
        ),
        (
            "query.allocs_per_query",
            ratio(span_allocs("query", "query"), queries),
        ),
        ("storage.tuples", level("storage.tuples")),
        ("storage.snapshot_bytes", level("storage.snapshot_bytes")),
        ("runtime.run_ms", ratio(time("runtime", "run"), ops)),
        (
            "runtime.self_ms",
            ratio(time("runtime", "run") - phase_ms("runtime", "run"), ops),
        ),
        ("runtime.sent", ratio(sent, ops)),
        ("runtime.received", per_op("runtime_node_received_total")),
        (
            "runtime.retransmits",
            per_op("runtime_node_retransmits_total"),
        ),
        (
            "runtime.dup_suppressed",
            per_op("runtime_node_dup_suppressed_total"),
        ),
        ("runtime.reships", per_op("runtime_node_reships_total")),
        ("runtime.snapshot_bytes", level("runtime.snapshot_bytes")),
        (
            "runtime.goodput_share",
            ratio(sent - total("runtime_node_retransmits_total"), sent),
        ),
        ("netsim.events", per_op("netsim_events")),
        ("netsim.dropped", per_op("netsim_dropped")),
        ("netsim.duplicated", per_op("netsim_duplicated")),
        ("netsim.end_time", per_op("netsim_end_time")),
        ("netsim.messages", per_op("netsim_messages")),
        ("netsim.converge_ticks", per_op("netsim_converge_ticks")),
        ("mc.successors_ms", ratio(time("mc", "successors"), ops)),
        ("mc.invariant_ms", ratio(time("mc", "invariant"), ops)),
        (
            "mc.self_ms",
            ratio(
                time("mc", "check") - time("mc", "successors") - time("mc", "invariant"),
                ops,
            ),
        ),
        ("mc.states", per_op("mc_states")),
        ("mc.transitions", ratio(transitions, ops)),
        ("mc.new_state_share", ratio(total("mc_states"), transitions)),
        (
            "mc.allocs_per_transition",
            ratio(span_allocs("mc", "successors"), transitions),
        ),
        ("trace.overhead_pct", overhead_pct),
        ("trace.coverage", ratio(covered, op_ms)),
    ];
    // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
    values.into_iter().map(|(k, v)| (k, v + 0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_top_level_spans_are_ops() {
        let mut rec = Recorder::new(true);
        rec.span("mc", "check", |rec| {
            rec.span("mc", "successors", |_| ());
            rec.note("mc_transitions", 3.0);
        });
        rec.span("update", "commit", |_| ());
        assert_eq!(rec.op_ms.len(), 2);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!((rec.spans[1].op, rec.spans[2].op), (0, 1));
        let m = per_layer(&rec, 0.0);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["mc.transitions"], 1.5);
        assert!(PER_LAYER.iter().all(|(name, _, _)| m.contains_key(name)));

        let mut plain = Recorder::new(false);
        plain.span("update", "commit", |rec| rec.span("query", "query", |_| ()));
        assert_eq!((plain.op_ms.len(), plain.spans.len()), (1, 0));
    }

    #[test]
    fn probes_sum_label_series_and_diff() {
        let t = ndlog::telemetry::Telemetry::enabled();
        t.counter("runtime_node_sent_total{node=\"0\"}").add(2);
        t.counter("runtime_node_sent_total{node=\"1\"}").add(3);
        t.histogram("ndlog_phase_counting_ns").record(500);
        t.gauge("runtime_node_snapshot_bytes{node=\"1\"}").set(64);
        let before = Probe::of(&t.snapshot());
        assert_eq!(before.get("runtime_node_sent_total"), 5.0);
        assert_eq!(before.phase_ns(), 500.0);
        t.counter("runtime_node_sent_total{node=\"1\"}").add(1);
        let d = Probe::of(&t.snapshot()).since(&before);
        assert_eq!(d.get("runtime_node_sent_total"), 1.0);
        assert_eq!(d.phase_ns(), 0.0);
        assert_eq!(
            gauge_sum(&t.snapshot(), "runtime_node_snapshot_bytes"),
            64.0
        );
    }
}
