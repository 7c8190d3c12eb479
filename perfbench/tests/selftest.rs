//! Self-tests of the benchmark: every workload emits its metrics at a
//! tiny shape, and the output checks reject tampered outcomes.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use perfbench::check::{check_executed, check_fleet_outcomes, DigestBook, SimSummary};
use perfbench::sim::{self, SimShape};
use perfbench::spans::Spans;
use perfbench::{measure, result_json, Env, Shape, Workload, END_TO_END, PER_LAYER};
use qa_cluster::driver::QueryOutcome;
use std::path::PathBuf;

fn env(name: &str) -> Env {
    let state_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&state_dir).unwrap();
    Env {
        qad_bin: PathBuf::from(env!("CARGO_BIN_EXE_qad")),
        state_dir,
    }
}

fn tiny_sim(w: Workload) -> SimShape {
    match w.shape(true) {
        Shape::Sim(s) => s,
        Shape::Fleet(_) => panic!("{} is not a simulator workload", w.name()),
    }
}

fn summary(w: Workload, seed: u64) -> SimSummary {
    sim::rep(&tiny_sim(w), seed, &Spans::new(false), true, false)
        .summary
        .expect("a run repetition has an outcome")
}

/// Runs `w` at its tiny shape, traced, and checks that every end-to-end
/// metric reads a positive number and that the layers it crosses report.
fn emits_every_metric(w: Workload, layers: &[&str]) {
    let env = env(w.name());
    let spans = Spans::new(true);
    let m = measure(
        w,
        w.shape(true),
        7,
        0.3,
        &spans,
        &mut DigestBook::empty(),
        &env,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert!(m.problems.is_empty(), "{}: {:?}", w.name(), m.problems);
    assert!(m.attempted > 0);
    assert!(!spans.is_empty(), "{}: no span recorded", w.name());
    for &(name, _) in END_TO_END {
        let v = m.end_to_end.get(name).copied().unwrap_or(f64::NAN);
        assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
    }
    for name in layers {
        let v = m.layers.get(name).copied();
        assert!(
            v.is_some_and(|v| v.is_finite() && v > 0.0),
            "{}: layer metric {name} = {v:?}",
            w.name()
        );
    }
    let line = result_json(true, m.attempted, m.failed, PER_LAYER, &m.layers).dump();
    for &(name, unit) in PER_LAYER {
        assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
        assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "{unit}");
    }
}

#[test]
fn tiny_sim_scale_emits_every_metric() {
    emits_every_metric(
        Workload::SimScale,
        &[
            "workload.trace_gen_ms",
            "sim.scenario_ms",
            "sim.plan_ms",
            "sim.engine_new_ms",
            "sim.run_s",
            "sim.us_per_query",
            "sim.ms_per_period",
            "sim.periods",
            "sim.messages",
            "sim.cross_messages",
            "broker.bids",
            "broker.parent_rounds",
        ],
    );
}

#[test]
fn tiny_sim_observed_emits_every_metric() {
    emits_every_metric(
        Workload::SimObserved,
        &[
            "workload.trace_gen_ms",
            "sim.scenario_ms",
            "sim.engine_new_ms",
            "sim.run_s",
            "sim.periods",
            "sim.retries",
            "federation.allocate.calls",
            "federation.allocate.self_us",
            "federation.period_update.self_us",
            "qant.supply_solve.us",
            "qant.price_update.us",
        ],
    );
}

/// Both fleet workloads in one test: the hygiene check counts every
/// child of this process, so two fleets must not overlap.
#[test]
fn tiny_fleets_emit_every_metric() {
    let fleet_layers = [
        "driver.assign_p50_ms",
        "driver.total_p99_ms",
        "driver.rpc_p50_ms",
        "driver.poll_rounds",
        "driver.threads_peak",
        "qad.exec_p50_ms",
        "qad.offers_made",
        "qad.queries_executed",
        "qad.threads_peak",
    ];
    emits_every_metric(Workload::FleetPaced, &fleet_layers);
    emits_every_metric(Workload::FleetOverload, &fleet_layers);
    assert!(
        perfbench::procfs::children().is_empty(),
        "a qad child outlived its round"
    );
}

#[test]
fn tampered_sim_outcome_fails_the_check() {
    let good = summary(Workload::SimScale, 3);
    let mut book = DigestBook::empty();
    book.check("sim_scale", 3, &good.digest()).unwrap();
    book.check("sim_scale", 3, &good.digest()).unwrap();
    let mut tampered = good.clone();
    tampered.completed -= 1;
    assert!(book.check("sim_scale", 3, &tampered.digest()).is_err());
    assert!(
        !tampered.problems().is_empty(),
        "conservation must fail too"
    );
    let mut tampered = good;
    tampered.mean_response_ms = f64::from_bits(tampered.mean_response_ms.to_bits() + 1);
    assert!(book.check("sim_scale", 3, &tampered.digest()).is_err());
}

#[test]
fn another_seed_changes_the_sim_digest() {
    for w in [Workload::SimScale, Workload::SimObserved] {
        let a = summary(w, 1).digest();
        assert_eq!(
            a,
            summary(w, 1).digest(),
            "{}: same seed, same outcome",
            w.name()
        );
        assert_ne!(a, summary(w, 2).digest(), "{}: seed ignored", w.name());
    }
}

fn outcome(query: usize, ok: bool) -> QueryOutcome {
    QueryOutcome {
        query,
        class: 0,
        node: ok.then_some(0),
        assign_ms: 1.0,
        total_ms: 2.0,
        retries: 0,
        error: (!ok).then(|| "rejected".to_string()),
    }
}

#[test]
fn double_counted_fleet_outcome_fails_the_check() {
    let good = vec![outcome(0, true), outcome(1, false), outcome(2, true)];
    assert_eq!(check_fleet_outcomes(&good, 3), Ok(2));
    let doubled = vec![outcome(0, true), outcome(1, true), outcome(1, true)];
    assert!(check_fleet_outcomes(&doubled, 3).is_err());
    let extra = vec![
        outcome(0, true),
        outcome(1, true),
        outcome(2, true),
        outcome(2, true),
    ];
    assert!(check_fleet_outcomes(&extra, 3).is_err());
    assert!(check_fleet_outcomes(&good[..2], 3).is_err(), "a lost query");
    assert!(check_executed(2, 2, 0).is_ok());
    assert!(
        check_executed(2, 3, 0).is_err(),
        "executed twice, counted once"
    );
    assert!(
        check_executed(2, 1, 1).is_ok(),
        "a crashed node loses its count"
    );
}
