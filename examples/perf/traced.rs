//! The traced run: one workload under spans and the counting allocator,
//! then the layer table — every per-layer metric of `BENCHMARK.json`.
//!
//! Separate from the timed run on purpose: end-to-end metrics are measured
//! with none of this switched on, and `bench.trace_overhead_frac` reports
//! what switching it on costs. Each wall figure here is a single rep, so
//! the derived ratios carry that rep's host noise (a few percent); the
//! counts are exact.

use netfence::experiments::prelude::{Runner, TelemetryConfig, TopoSpec};

use crate::alloc;
use crate::bench::{setup_sample, timed_rep, Ledger};
use crate::clock;
use crate::layers;
use crate::report::{Metric, RunResult};
use crate::trace::Tracer;
use crate::workloads::{fold, transit_stub_of, Workload};

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn run_traced(
    w: &Workload,
    seed: u64,
    layer_batches: usize,
    small: bool,
    tracer: &mut Tracer,
) -> RunResult {
    let mut ledger = Ledger::new();
    // Wall seconds of: the plain rep, the rep under the counting allocator,
    // one zero-horizon run, the telemetry-on rep, the serial sweep.
    let (mut plain, mut counted, mut setup, mut observed, mut serial) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let (mut trace_events, mut jsonl_bytes) = (0usize, 0usize);
    let full_run =
        if w.spec().is_some() { "experiments.run" } else { "experiments.sweep_parallel" };

    tracer.span("bench.workload", |t| {
        t.span("experiments.warm_up", |_| {
            if let Some(records) = timed_rep(w).1 {
                ledger.reference = Some(fold(&records));
            }
        });
        t.span(full_run, |t| {
            let (wall, records) = timed_rep(w);
            plain = wall;
            if let Some(f) = ledger.record(w, records) {
                t.count("packets", f.packets as f64);
                t.count("events", f.engine.events as f64);
            }
        });
        t.span(&format!("{full_run}_counted"), |t| {
            let ((wall, records), n, bytes) = alloc::counted(|| timed_rep(w));
            (counted, allocs, alloc_bytes) = (wall, n, bytes);
            ledger.record(w, records);
            t.count("allocs", n as f64);
            t.count("alloc_bytes", bytes as f64);
        });
        t.span("experiments.zero_horizon", |_| {
            let mut runs_per_batch = 1;
            setup_sample(w, &mut runs_per_batch);
            setup = setup_sample(w, &mut runs_per_batch);
        });
        if let Some(stub) = w.spec().and_then(transit_stub_of) {
            t.span("topo.build", |t| {
                let built = TopoSpec::TransitStub(stub).build();
                t.count("nodes", built.net.nodes.len() as f64);
                t.count("links", built.net.links.len() as f64);
            });
        }
        if let Some(spec) = w.spec() {
            t.span("telemetry.run_traced", |t| {
                let runner = Runner::new(spec.clone().traced(TelemetryConfig::full(4)));
                let ((record, dump), wall) = clock::time(|| runner.run_with_telemetry());
                observed = wall;
                trace_events = dump.trace_events;
                jsonl_bytes = dump.trace_jsonl.len() + dump.timeline_jsonl.len();
                t.count("trace_events", trace_events as f64);
                let same = Some(fold(&[record])) == ledger.reference;
                ledger.require("traced_record_equals_untraced", same);
            });
        }
        if w.spec().is_none() {
            let (records, wall) = t.span("experiments.sweep_serial", |_| w.run_serial_sweep());
            serial = wall;
            let same = records.map(|r| fold(&r)) == ledger.reference;
            ledger.require("serial_sweep_equals_parallel", same);
        }
    });
    let (mut metrics, _) =
        tracer.span("bench.layers", |t| layers::run(seed, layer_batches, small, t));

    let f = ledger.reference.clone().unwrap_or_default();
    let (pkts, events) = (f.packets as f64, f.engine.events as f64);
    let simulate_ns = (plain - setup).max(0.0) * 1e9;
    let count = |name: &str, v: u64| Metric::exact(name, "count", v as f64);
    metrics.extend([
        count("sim.events", f.engine.events),
        count("sim.forwards", f.engine.forwards),
        count("sim.enqueues", f.engine.enqueues),
        count("sim.dequeues", f.engine.dequeues),
        count("sim.drops", f.engine.drops),
        count("sim.link_events", f.engine.link_events),
        count("sim.flow_events", f.engine.flow_events),
        Metric::exact("sim.events_per_pkt", "ratio", ratio(events, pkts)),
        Metric::exact("sim.ns_per_event", "ns", ratio(simulate_ns, events)),
        Metric::exact("sim.ns_per_forward", "ns", ratio(simulate_ns, f.engine.forwards as f64)),
        Metric::exact("sim.allocs_per_pkt", "ratio", ratio(allocs as f64, pkts)),
        Metric::exact("sim.alloc_bytes_per_pkt", "bytes", ratio(alloc_bytes as f64, pkts)),
        count("systems.rate_limiters", f.rate_limiters),
        count("systems.stamped_decr", f.stamped_decr),
        count("systems.request_drops", f.request_drops),
        count("systems.regular_drops", f.regular_drops),
        count("ctrl.delivered", f.control_delivered),
        count("ctrl.retransmits", f.control_retransmits),
        count("ctrl.lost", f.control_lost),
        count("faults.invalid_feedback", f.invalid_feedback),
        Metric::exact(
            "adversary.flow_events_per_pkt",
            "ratio",
            ratio(f.engine.flow_events as f64, pkts),
        ),
        // Zero where the workload has no such run: the sweep returns no
        // telemetry dump, a single cell has no serial/parallel pair.
        Metric::exact(
            "telemetry.trace_overhead_frac",
            "ratio",
            if observed > 0.0 { ratio(observed, plain) - 1.0 } else { 0.0 },
        ),
        count("telemetry.trace_events", trace_events as u64),
        Metric::exact("telemetry.jsonl_bytes", "bytes", jsonl_bytes as f64),
        Metric::exact("experiments.sweep_parallel_speedup", "ratio", ratio(serial, plain)),
        Metric::exact("bench.trace_overhead_frac", "ratio", ratio(counted, plain) - 1.0),
    ]);
    ledger.into_result(w, seed, true, metrics)
}
