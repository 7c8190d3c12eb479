//! End-to-end telemetry contracts across the stack:
//!
//! * the trace-dump JSONL is **byte-deterministic** — two runs of the
//!   same spec produce identical bytes (sim-time clock + seeded
//!   randomness; no wall-clock leaks into the event stream),
//! * every emitted line survives the strict parser and re-dumps to the
//!   exact input bytes (the canonical-form contract `check_trace`
//!   enforces in CI),
//! * observation is passive — enabling telemetry does not change what
//!   the simulation computes,
//! * the cluster driver emits the same wire schema from real threads.

use qa_sim::{run_trace_dump, TraceDumpSpec};
use qa_simnet::json::ToJson;
use qa_simnet::telemetry::{TelemetryEvent, TraceRecord};

#[test]
fn trace_dump_is_byte_deterministic() {
    let spec = TraceDumpSpec::ci(2007);
    let a = run_trace_dump(&spec);
    let b = run_trace_dump(&spec);
    assert!(!a.jsonl.is_empty());
    assert_eq!(
        a.jsonl, b.jsonl,
        "same-seed trace dumps must be byte-identical"
    );
    // The convergence report is a pure function of the records, so it
    // agrees too.
    assert_eq!(a.report.to_json().dump(), b.report.to_json().dump());

    // A different seed must actually change the trace (the determinism
    // above is not vacuous).
    let c = run_trace_dump(&TraceDumpSpec::ci(2008));
    assert_ne!(a.jsonl, c.jsonl, "seed must steer the trace");
}

#[test]
fn trace_dump_lines_are_canonical_jsonl() {
    let dump = run_trace_dump(&TraceDumpSpec::ci(11));
    assert_eq!(dump.jsonl.lines().count(), dump.records.len());
    let mut last_t = 0u64;
    for (line, record) in dump.jsonl.lines().zip(&dump.records) {
        let parsed = TraceRecord::parse_line(line).expect("strict parse of emitted line");
        assert_eq!(parsed, *record);
        assert_eq!(
            parsed.to_json().dump(),
            line,
            "re-dump must reproduce the emitted bytes"
        );
        assert!(parsed.t_us >= last_t, "timestamps must be monotone");
        last_t = parsed.t_us;
    }
}

/// The three observation levels: no handle, the metrics plane alone
/// (what `qad` runs), and the metrics plane plus an event sink.
fn observation_levels() -> Vec<(&'static str, qa_simnet::telemetry::Telemetry)> {
    use qa_simnet::telemetry::Telemetry;
    vec![
        ("disabled", Telemetry::disabled()),
        ("metrics_only", Telemetry::metrics_only()),
        ("buffered", Telemetry::buffered().0),
    ]
}

#[test]
fn observation_does_not_perturb_the_simulation() {
    use qa_core::MechanismKind;
    use qa_sim::federation::Federation;
    use qa_sim::scenario::{Scenario, TwoClassParams};
    use qa_sim::{BrokerConfig, ShardPlan, ShardRunOptions, SimConfig};

    // A small world under light load, and a 96-node one at 1.5x capacity:
    // past the 64-node parallel-solve threshold and refusing enough that
    // the refusal memo and rejection deferral do real work.
    let cells = [
        ("small", SimConfig::small_test(5), 0.8, 10),
        ("overloaded", SimConfig::scaled(96, 7), 1.5, 6),
    ];
    for (cell, cfg, load, secs) in cells {
        let scenario = Scenario::two_class(cfg, TwoClassParams::default());
        let trace = qa_sim::experiments::two_class_trace(&scenario, 0.05, load, secs);
        let plan = ShardPlan::build(&scenario, 4);
        // The full timing-free outcome of each engine, as bytes.
        let outcomes = |telemetry: &qa_simnet::telemetry::Telemetry| {
            let mut fed = Federation::with_telemetry(
                &scenario,
                MechanismKind::QaNt,
                &trace,
                telemetry.clone(),
            );
            fed.set_intra_threads(2);
            let flat = fed.run(&trace);
            let sharded = |broker: Option<BrokerConfig>| {
                let options = ShardRunOptions {
                    budget: 2,
                    broker,
                    telemetry: telemetry.clone(),
                    ..ShardRunOptions::default()
                };
                format!("{:?}", plan.run_with_options(&trace, &options))
            };
            (
                flat.metrics.retries,
                [
                    format!("{flat:?}"),
                    sharded(None),
                    sharded(Some(BrokerConfig::qant())),
                ],
            )
        };
        let (retries, silent) = outcomes(&qa_simnet::telemetry::Telemetry::disabled());
        if cell == "overloaded" {
            assert!(retries > 0, "the overloaded cell must refuse requests");
        }
        for (level, telemetry) in observation_levels() {
            let (_, observed) = outcomes(&telemetry);
            for (engine, (a, b)) in ["flat", "S=4", "S=4 broker"]
                .iter()
                .zip(silent.iter().zip(&observed))
            {
                assert!(a == b, "{cell}/{engine}: a {level} run changed the outcome");
            }
        }
    }
}

#[test]
fn federation_flushes_its_allocate_span_into_the_registry() {
    use qa_core::MechanismKind;
    use qa_sim::federation::Federation;
    use qa_sim::scenario::{Scenario, TwoClassParams};
    use qa_sim::SimConfig;

    let scenario = Scenario::two_class(SimConfig::scaled(80, 3), TwoClassParams::default());
    let trace = qa_sim::experiments::two_class_trace(&scenario, 0.05, 1.5, 4);
    for (level, telemetry) in observation_levels().into_iter().skip(1) {
        let out =
            Federation::with_telemetry(&scenario, MechanismKind::QaNt, &trace, telemetry.clone())
                .run(&trace);
        // One allocation per arrival plus one per resubmission.
        let allocations = trace.len() as u64 + out.metrics.retries;
        assert!(out.metrics.retries > 0);
        let registry = telemetry.registry().unwrap();
        let count = |name: &str| registry.welford(name).snapshot().count();
        assert_eq!(
            count("span.federation.allocate_us"),
            allocations,
            "{level}: the engine-local allocate accumulator must be flushed"
        );
        assert!(count("span.federation.period_update_us") > 0);
        assert!(count("span.qant.supply_solve_us") >= 80);
        assert!(count("span.qant.price_update_us") > 0);
    }
}

#[test]
fn cluster_trace_speaks_the_same_wire_schema() {
    use qa_cluster::{run_experiment, ClusterConfig, ClusterMechanism, ClusterSpec};
    use qa_simnet::telemetry::Telemetry;

    let spec = ClusterSpec::generate(4, 4, 6, 10, 5, 60);
    let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 31);
    cfg.num_queries = 12;
    let (telemetry, buffer) = Telemetry::buffered();
    cfg.telemetry = telemetry;
    run_experiment(&spec, &cfg).expect("healthy spec");

    let records = buffer.records();
    assert!(!records.is_empty());
    for record in &records {
        let line = record.to_json().dump();
        let parsed = TraceRecord::parse_line(&line).expect("cluster line parses strictly");
        assert_eq!(parsed, *record);
    }
    // Market activity from node threads made it into the shared buffer.
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TelemetryEvent::SupplyComputed { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TelemetryEvent::QueryCompleted { .. })));
}
