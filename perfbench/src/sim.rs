//! The simulator workloads: `sim_scale` (sharded engine with the broker
//! parent, telemetry off) and `sim_observed` (flat engine carrying the
//! `metrics_only` telemetry handle that `qad` runs).

use crate::check::SimSummary;
use crate::spans::Spans;
use qa_core::MechanismKind;
use qa_sim::experiments::{scale_trace, scale_world, two_class_trace};
use qa_sim::{
    BrokerConfig, Federation, RunMetrics, Scenario, ShardPlan, ShardRunOptions, SimConfig,
    TwoClassParams,
};
use qa_simnet::telemetry::MetricsRegistry;
use qa_simnet::{Telemetry, TelemetryEvent};
use qa_workload::Trace;
use std::collections::BTreeMap;

/// Frequency of the two-class sinusoid (Hz).
const SINUSOID_HZ: f64 = 0.05;

/// Which engine a simulator workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// `ShardPlan` at this shard count with the QA-NT broker parent; the
    /// scaling world and trace (0.75 of capacity); telemetry off.
    Sharded {
        /// Shard count.
        shards: usize,
    },
    /// The flat `Federation` on the two-class world at `load` × capacity,
    /// carrying `Telemetry::metrics_only()`.
    Observed {
        /// Offered load as a fraction of capacity.
        load: f64,
    },
}

/// Size of a simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    /// Federation size.
    pub nodes: usize,
    /// Simulated horizon (s).
    pub horizon_s: u64,
    /// Engine and its settings.
    pub engine: Engine,
    /// Wall time one repetition nominally takes (s), which sizes the
    /// repetition count of a run.
    pub nominal_rep_s: f64,
}

/// Set-up and run of one repetition.
#[derive(Debug, Clone)]
pub struct SimRep {
    /// Set-up wall time (s): scenario, trace, plan and, on the flat
    /// engine, `Federation::with_telemetry`.
    pub setup_s: f64,
    /// Run wall time (s); 0 for a set-up-only repetition.
    pub run_s: f64,
    /// Timing-free outcome (`None` for a set-up-only repetition).
    pub summary: Option<SimSummary>,
    /// Per-layer readings (times in the metric's unit, counts exact).
    pub layers: BTreeMap<&'static str, f64>,
}

fn summarize(m: &RunMetrics, queries: usize) -> SimSummary {
    SimSummary {
        queries: queries as u64,
        completed: m.completed,
        unserved: m.unserved,
        retries: m.retries,
        messages: m.messages,
        cross_messages: 0,
        escalated_units: 0,
        parent_rounds: 0,
        mean_response_ms: m.mean_response_ms().unwrap_or(f64::NAN),
        max_response_ms: m.response.max().unwrap_or(f64::NAN),
        mean_assign_ms: m.assign_latency.mean().unwrap_or(f64::NAN),
    }
}

/// Total microseconds and count of the registry span `name`.
fn span_total(registry: &MetricsRegistry, name: &str) -> (f64, u64) {
    let w = registry.welford(&format!("span.{name}_us")).snapshot();
    (w.mean().unwrap_or(0.0) * w.count() as f64, w.count())
}

/// Runs one repetition of `shape` at `seed`: set-up, then (with `run`)
/// the engine. `traced` adds the readings only a traced run takes.
pub fn rep(shape: &SimShape, seed: u64, spans: &Spans, run: bool, traced: bool) -> SimRep {
    match shape.engine {
        Engine::Sharded { shards } => sharded_rep(shape, shards, seed, spans, run, traced),
        Engine::Observed { load } => observed_rep(shape, load, seed, spans, run),
    }
}

fn sharded_rep(
    shape: &SimShape,
    shards: usize,
    seed: u64,
    spans: &Spans,
    run: bool,
    traced: bool,
) -> SimRep {
    let mut layers = BTreeMap::new();
    let (scenario, scenario_s) = spans.time("sim.scenario", || scale_world(shape.nodes, seed));
    let (trace, trace_s) = spans.time("workload.trace_gen", || {
        scale_trace(&scenario, shape.horizon_s)
    });
    let (plan, plan_s) = spans.time("sim.plan", || ShardPlan::build(&scenario, shards));
    layers.insert("sim.scenario_ms", scenario_s * 1e3);
    layers.insert("workload.trace_gen_ms", trace_s * 1e3);
    layers.insert("sim.plan_ms", plan_s * 1e3);
    let setup_s = scenario_s + trace_s + plan_s;
    if !run {
        return SimRep {
            setup_s,
            run_s: 0.0,
            summary: None,
            layers,
        };
    }
    if traced {
        // The shard engines are built inside the run; build them once
        // more, the same way, to time that step on its own.
        let empty = Trace::from_events(Vec::new());
        let (engines, engine_s) = spans.time("sim.engine_new", || {
            plan.shards()
                .iter()
                .map(|sh| {
                    Federation::with_telemetry(
                        &sh.scenario,
                        MechanismKind::QaNt,
                        &empty,
                        Telemetry::disabled(),
                    )
                })
                .collect::<Vec<_>>()
        });
        drop(engines);
        layers.insert("sim.engine_new_ms", engine_s * 1e3);
    }
    let (telemetry, buffer) = if traced {
        let (t, b) = Telemetry::buffered();
        (t, Some(b))
    } else {
        (Telemetry::disabled(), None)
    };
    let options = ShardRunOptions {
        broker: Some(BrokerConfig::qant()),
        telemetry,
        ..ShardRunOptions::default()
    };
    let (out, run_s) = spans.time("sim.run", || plan.run_with_options(&trace, &options));
    let mut summary = summarize(&out.outcome.metrics, trace.len());
    summary.cross_messages = out.cross_messages;
    summary.escalated_units = out.escalated_units;
    summary.parent_rounds = out.parent_rounds;
    layers.insert("sim.periods", out.periods as f64);
    if let Some(buffer) = buffer {
        let (mut bids, mut rounds, mut units) = (0u64, 0u64, 0u64);
        for r in buffer.records() {
            match r.event {
                TelemetryEvent::BrokerBid { .. } => bids += 1,
                TelemetryEvent::ParentCleared { rounds: n, .. } => rounds += u64::from(n),
                TelemetryEvent::DemandEscalated { units: n, .. } => units += n,
                _ => {}
            }
        }
        layers.insert("broker.bids", bids as f64);
        layers.insert("broker.parent_rounds", rounds as f64);
        layers.insert("broker.escalated_units", units as f64);
    }
    SimRep {
        setup_s,
        run_s,
        summary: Some(summary),
        layers,
    }
}

fn observed_rep(shape: &SimShape, load: f64, seed: u64, spans: &Spans, run: bool) -> SimRep {
    let mut layers = BTreeMap::new();
    let (scenario, scenario_s) = spans.time("sim.scenario", || {
        Scenario::two_class(
            SimConfig::scaled(shape.nodes, seed),
            TwoClassParams::default(),
        )
    });
    let (trace, trace_s) = spans.time("workload.trace_gen", || {
        two_class_trace(&scenario, SINUSOID_HZ, load, shape.horizon_s)
    });
    let telemetry = Telemetry::metrics_only();
    let (fed, engine_s) = spans.time("sim.engine_new", || {
        Federation::with_telemetry(&scenario, MechanismKind::QaNt, &trace, telemetry.clone())
    });
    layers.insert("sim.scenario_ms", scenario_s * 1e3);
    layers.insert("workload.trace_gen_ms", trace_s * 1e3);
    layers.insert("sim.engine_new_ms", engine_s * 1e3);
    let setup_s = scenario_s + trace_s + engine_s;
    if !run {
        return SimRep {
            setup_s,
            run_s: 0.0,
            summary: None,
            layers,
        };
    }
    let registry = telemetry
        .registry()
        .expect("a metrics_only handle carries a registry");
    // The t=0 supply solves ran during construction, outside any period
    // update; count only what the run adds.
    let (solve0_us, _) = span_total(registry, "qant.supply_solve");
    let (price0_us, _) = span_total(registry, "qant.price_update");
    let (out, run_s) = spans.time("sim.run", || fed.run(&trace));
    let summary = summarize(&out.metrics, trace.len());
    let (allocate_us, allocate_calls) = span_total(registry, "federation.allocate");
    let (period_us, periods) = span_total(registry, "federation.period_update");
    let solve_us = span_total(registry, "qant.supply_solve").0 - solve0_us;
    let price_us = span_total(registry, "qant.price_update").0 - price0_us;
    layers.insert("sim.periods", periods as f64);
    layers.insert("federation.allocate.calls", allocate_calls as f64);
    layers.insert("federation.allocate.self_us", allocate_us);
    // The supply solves and price updates nest inside the period update.
    layers.insert(
        "federation.period_update.self_us",
        period_us - solve_us - price_us,
    );
    layers.insert("qant.supply_solve.us", solve_us);
    layers.insert("qant.price_update.us", price_us);
    SimRep {
        setup_s,
        run_s,
        summary: Some(summary),
        layers,
    }
}
