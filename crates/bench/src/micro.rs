//! Microbenchmarks for the hot paths of the allocation stack:
//!
//! * the eq.-4 supply solvers (greedy vs exact DP, uncached vs the
//!   density-order cache),
//! * the non-tâtonnement price adjustment,
//! * one full market period of the federation (supply solves + per-query
//!   allocation for every arrival of a 500 ms window),
//! * the event queue's schedule/pop cycle,
//! * the per-query allocation decision of each mechanism (end-to-end
//!   simulator arrival handling),
//! * telemetry: the disabled-path overhead contract (an emit with no
//!   sink installed must cost one `Option` branch — the closure never
//!   runs) against the enabled path for contrast, plus the 500-node
//!   federation period under the metrics-only handle `qad` runs,
//! * minidb: parse/plan/execute of a representative star query.
//!
//! A plain timing loop (the hermetic-build substitute for criterion):
//! each case is warmed up, then timed over enough iterations to smooth
//! scheduler noise, reporting mean ns/iter. Set `QA_BENCH_SECONDS` to
//! change the per-case time budget (default 1 s). Both the
//! `harness = false` bench binary (`benches/micro.rs`) and the
//! `perf_baseline` bin run this suite, so the pinned baseline and ad-hoc
//! runs measure the same cases.

use qa_core::MechanismKind;
use qa_economics::{
    solve_supply_greedy, solve_supply_greedy_cached, solve_supply_optimal, DensityOrderCache,
    LinearCapacitySet, NonTatonnementPricer, PriceVector, PricerConfig, QuantityVector,
};
use qa_sim::config::{BrokerConfig, SimConfig};
use qa_sim::experiments::two_class_trace;
use qa_sim::federation::Federation;
use qa_sim::metrics::RunMetrics;
use qa_sim::scenario::{Scenario, TwoClassParams};
use qa_sim::sharded::{ShardPlan, ShardRunOptions};
use qa_sim::BrokerTier;
use qa_simnet::telemetry::Telemetry;
use qa_simnet::{EventQueue, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed case: mean nanoseconds per iteration of the final batch.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Case name (`area/case` convention).
    pub name: String,
    /// Mean ns/iter of the last (largest) batch.
    pub ns_per_iter: f64,
}

qa_simnet::impl_to_json!(MicroResult { name, ns_per_iter });

/// Per-case time budget from `QA_BENCH_SECONDS` (default 1 s, clamped to
/// 0.05–120 s).
pub fn budget() -> Duration {
    let secs = std::env::var("QA_BENCH_SECONDS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0);
    Duration::from_secs_f64(secs.clamp(0.05, 120.0))
}

/// Times `f` in batches until the budget is spent; prints and returns the
/// *minimum* mean ns/iter across batches. The batch sizing shrinks
/// geometrically as the budget runs out (the last batch can be a single
/// iteration), so the last batch is the noisiest — the per-batch minimum
/// is the stable statistic for regression gating: noise only ever
/// inflates a timing, never deflates it.
fn bench<R>(out: &mut Vec<MicroResult>, name: &str, f: impl FnMut() -> R) {
    bench_scaled(out, name, 1.0, f)
}

/// Like [`bench`], but reports `ns/iter ÷ units` — for cases where one
/// closure call covers `units` repetitions of the thing being measured
/// (e.g. a 16-period simulation timed once, reported per period).
fn bench_scaled<R>(out: &mut Vec<MicroResult>, name: &str, units: f64, mut f: impl FnMut() -> R) {
    let budget = budget();
    // Warm-up: one call, also yields a duration estimate.
    let start = Instant::now();
    black_box(f());
    let mut per_iter = start.elapsed().max(Duration::from_nanos(1));

    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut iters_total: u64 = 0;
    while started.elapsed() < budget {
        // Size the batch to ~1/4 of the remaining budget, at least 1.
        let remaining = budget.saturating_sub(started.elapsed());
        let batch =
            ((remaining.as_secs_f64() / 4.0 / per_iter.as_secs_f64()) as u64).clamp(1, 1 << 24);
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64 / batch as f64;
        best = best.min(ns);
        iters_total += batch;
        per_iter = Duration::from_secs_f64((ns / 1e9).max(1e-9));
    }
    let best = best / units;
    println!("{name:<44} {best:>12.0} ns/iter  ({iters_total} iters)");
    out.push(MicroResult {
        name: name.to_string(),
        ns_per_iter: best,
    });
}

fn bench_supply_solvers(out: &mut Vec<MicroResult>) {
    // 100 classes, realistic cost spread.
    let costs: Vec<Option<f64>> = (0..100)
        .map(|i| {
            if i % 10 == 0 {
                None
            } else {
                Some(50.0 + (i as f64 * 37.0) % 2_000.0)
            }
        })
        .collect();
    let set = LinearCapacitySet::new(costs, 500.0);
    let prices = PriceVector::from_prices((0..100).map(|i| 0.5 + (i as f64 % 7.0)).collect());

    bench(out, "supply/greedy_100_classes", || {
        solve_supply_greedy(black_box(&prices), black_box(&set), None)
    });
    // The steady-state QA-NT shape: prices unchanged between solves, so
    // the density-order cache skips the sort entirely.
    let mut cache = DensityOrderCache::new();
    bench(out, "supply/greedy_100_classes_cached", || {
        solve_supply_greedy_cached(black_box(&prices), black_box(&set), None, &mut cache)
    });
    bench(out, "supply/optimal_dp_100_classes", || {
        solve_supply_optimal(black_box(&prices), black_box(&set), None, 500)
    });
}

fn bench_price_adjustment(out: &mut Vec<MicroResult>) {
    let leftover = QuantityVector::from_counts((0..100).map(|i| i % 3).collect());
    bench(out, "pricer/reject_and_period_end_100_classes", || {
        let mut p = NonTatonnementPricer::new(100, PricerConfig::default());
        for k in 0..100 {
            if k % 2 == 0 {
                p.on_rejection(k);
            }
        }
        p.on_period_end(black_box(&leftover));
        p
    });
}

fn bench_event_queue(out: &mut Vec<MicroResult>) {
    // The kernel's innermost loop: schedule a burst, drain it in time
    // order. 256 events per iteration keeps the heap realistically deep.
    bench(out, "event_queue/schedule_pop_256", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..256u64 {
            // Scattered (not sorted) insertion order exercises sift-up.
            q.schedule(SimTime::from_micros((i * 7919) % 4096), i);
        }
        let mut acc = 0u64;
        while let Some(ev) = q.pop() {
            acc = acc.wrapping_add(ev.payload);
        }
        acc
    });
    // The simulator's actual event shape: schedule/pop interleaved, with
    // most inserts landing near the clock (completions ~one period out)
    // so the calendar's bucket ring absorbs them without growth.
    bench(out, "event_queue/calendar_pop_256", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..64u64 {
            q.schedule(SimTime::from_micros(i * 13), i);
        }
        let mut acc = 0u64;
        for i in 0..192u64 {
            let ev = q.pop().expect("queue stays non-empty");
            acc = acc.wrapping_add(ev.payload);
            q.schedule(
                ev.time + qa_simnet::SimDuration::from_micros(500 + (i * 7919) % 4096),
                i,
            );
        }
        while let Some(ev) = q.pop() {
            acc = acc.wrapping_add(ev.payload);
        }
        acc
    });
}

fn bench_federation_period(out: &mut Vec<MicroResult>) {
    // Steady-state market period: each closure call simulates sixteen
    // 500 ms periods under 0.8 load and the reported figure is the
    // amortized per-period cost (total ÷ 16). Sixteen periods dilute the
    // one-off federation construction to a few percent, so the number
    // tracks what the throughput work targets: arrival handling, offer
    // sweeps, boundary price updates and eq.-4 supply solves.
    const PERIODS: f64 = 16.0;
    let mut cfg = SimConfig::small_test(42);
    cfg.num_nodes = 50;
    let scenario = Scenario::two_class(cfg, TwoClassParams::default());
    let trace = two_class_trace(&scenario, 0.05, 0.8, 8);
    bench_scaled(out, "federation/single_period_50_nodes", PERIODS, || {
        Federation::new(black_box(&scenario), MechanismKind::QaNt, black_box(&trace)).run(&trace)
    });
    // Paper-scale-plus federation: 500 nodes stresses the struct-of-arrays
    // sweeps (capable filter, offer collection) and the per-period supply
    // solves far past the 50-node case.
    let mut cfg500 = SimConfig::small_test(42);
    cfg500.num_nodes = 500;
    let scenario500 = Scenario::two_class(cfg500, TwoClassParams::default());
    let trace500 = two_class_trace(&scenario500, 0.05, 0.8, 8);
    bench_scaled(out, "federation/single_period_500_nodes", PERIODS, || {
        Federation::new(
            black_box(&scenario500),
            MechanismKind::QaNt,
            black_box(&trace500),
        )
        .run(&trace500)
    });
    // Its twin carrying the metrics-only handle every `qad` runs: span
    // timers on, event plane off, so every fast path stays on.
    // `perf_baseline --check-against` holds it within a same-run ratio of
    // the disabled case above.
    let metrics = Telemetry::metrics_only();
    bench_scaled(
        out,
        "federation/single_period_500_nodes_metrics_only",
        PERIODS,
        || {
            Federation::with_telemetry(
                black_box(&scenario500),
                MechanismKind::QaNt,
                black_box(&trace500),
                metrics.clone(),
            )
            .run(&trace500)
        },
    );
}

fn bench_sharded(out: &mut Vec<MicroResult>) {
    // The regression gate for the sharded engine: the same 1000-node
    // world per period, flat (S = 1 event loop) vs sharded (8 shards,
    // boundary-batched signals). The sharded figure must stay well under
    // the flat one — shorter per-query capable sweeps are the point.
    const PERIODS: f64 = 16.0;
    let mut cfg = SimConfig::small_test(42);
    cfg.num_nodes = 1_000;
    let scenario = Scenario::two_class(cfg, TwoClassParams::default());
    let trace = two_class_trace(&scenario, 0.05, 0.8, 8);
    bench_scaled(out, "federation/single_period_1000_nodes", PERIODS, || {
        Federation::new(black_box(&scenario), MechanismKind::QaNt, black_box(&trace)).run(&trace)
    });
    let plan = ShardPlan::build(&scenario, 8);
    bench_scaled(
        out,
        "federation/single_period_1000_nodes_sharded",
        PERIODS,
        || plan.run(black_box(&trace)),
    );
    // Same world with the broker tier on top: the marginal cost of the
    // two-tier market over the raw-signal router must stay small — the
    // parent clears once per boundary, not per query.
    let broker_opts = ShardRunOptions {
        broker: Some(BrokerConfig::qant()),
        ..ShardRunOptions::default()
    };
    bench_scaled(
        out,
        "federation/single_period_1000_nodes_broker",
        PERIODS,
        || plan.run_with_options(black_box(&trace), &broker_opts),
    );
    // The epilogue's shard-index-order metrics merge, isolated: 8 shards'
    // worth of per-period series, per-class stats and origin Welfords
    // folded into one.
    let shard_metrics: Vec<RunMetrics> = (0..8)
        .map(|s| {
            let mut m = RunMetrics::new(qa_simnet::SimDuration::from_millis(500), 2);
            for i in 0..500u64 {
                m.record_completion_from(
                    qa_workload::ClassId((i % 2) as u32),
                    qa_workload::NodeId(((s * 37 + i as usize) % 125) as u32),
                    SimTime::from_millis(i * 16),
                    SimTime::from_millis(i * 16 + 900),
                );
            }
            m.messages = 4_000 + s as u64;
            m
        })
        .collect();
    bench(out, "shard/cross_shard_merge", || {
        let mut acc = shard_metrics[0].clone();
        for m in &shard_metrics[1..] {
            acc.merge_from(black_box(m));
        }
        acc
    });
}

fn bench_broker(out: &mut Vec<MicroResult>) {
    // One parent-market boundary clearing at realistic width: 16 broker
    // bids over 8 classes, demand sized to leave some excess so both the
    // fill loop and the price adjustment run. The tier persists across
    // iterations — steady-state clearing, the shape the sharded window
    // loop pays once per period.
    let mut tier = BrokerTier::new(
        8,
        &BrokerConfig::qant(),
        qa_simnet::telemetry::Telemetry::disabled(),
    );
    let home_shards: Vec<Vec<usize>> = (0..8).map(|_| (0..16).collect()).collect();
    let supply: Vec<Vec<u64>> = (0..16u64)
        .map(|s| (0..8u64).map(|k| 3 + (s * 7 + k) % 20).collect())
        .collect();
    let lnp: Vec<Vec<f64>> = (0..16)
        .map(|s| {
            (0..8)
                .map(|k| ((s * 13 + k * 5) % 17) as f64 / 8.0 - 1.0)
                .collect()
        })
        .collect();
    let demand: Vec<u64> = (0..8u64).map(|k| 150 + k * 10).collect();
    let mut weights: Vec<Vec<f64>> = (0..8).map(|_| vec![1.0; 16]).collect();
    bench(out, "broker/parent_clear_16_shards", || {
        tier.clear_window(
            black_box(&home_shards),
            black_box(&supply),
            black_box(&lnp),
            black_box(&demand),
            &mut weights,
        )
    });
}

fn bench_allocation(out: &mut Vec<MicroResult>) {
    let mut cfg = SimConfig::small_test(42);
    cfg.num_nodes = 50;
    let scenario = Scenario::two_class(cfg, TwoClassParams::default());
    let trace = two_class_trace(&scenario, 0.05, 0.6, 10);
    for m in [
        MechanismKind::QaNt,
        MechanismKind::Greedy,
        MechanismKind::Random,
    ] {
        bench(out, &format!("allocate_run_10s_50_nodes/{m}"), || {
            Federation::new(black_box(&scenario), m, black_box(&trace)).run(&trace)
        });
    }
}

fn bench_telemetry(out: &mut Vec<MicroResult>) {
    use qa_simnet::telemetry::{CountingSink, PriceReason, TelemetryEvent};

    // The zero-cost contract: with no sink installed, an emit is one
    // `Option` branch and the event-building closure never runs. Compare
    // against the pricer baseline above (which runs with telemetry
    // disabled) to see the overhead is unmeasurable.
    let disabled = Telemetry::disabled();
    bench(out, "telemetry/emit_disabled", || {
        disabled.emit(|| TelemetryEvent::PriceAdjusted {
            node: black_box(3),
            class: 7,
            old: 1.0,
            new: 1.1,
            reason: PriceReason::Rejection,
        });
    });
    bench(out, "telemetry/span_disabled", || {
        disabled.span("bench.noop")
    });

    // Enabled path for contrast: event built, sink invoked (counting
    // sink, so no allocation growth distorts the numbers).
    let enabled = Telemetry::with_sink(Box::new(CountingSink::new()));
    bench(out, "telemetry/emit_enabled_counting_sink", || {
        enabled.emit(|| TelemetryEvent::PriceAdjusted {
            node: black_box(3),
            class: 7,
            old: 1.0,
            new: 1.1,
            reason: PriceReason::Rejection,
        });
    });
    bench(out, "telemetry/span_enabled", || enabled.span("bench.span"));
    // The same span with its registry entry resolved once, as the
    // simulator's span sites hold it.
    let timer = enabled.span_timer("bench.span");
    bench(out, "telemetry/span_timer_enabled", || timer.start());

    // The full pricer loop with telemetry attached to a counting sink —
    // the realistic "tracing a run" cost next to
    // pricer/reject_and_period_end_100_classes.
    let leftover = QuantityVector::from_counts((0..100).map(|i| i % 3).collect());
    bench(out, "pricer/reject_and_period_end_traced", || {
        let mut p = NonTatonnementPricer::new(100, PricerConfig::default());
        p.set_telemetry(enabled.with_label(0));
        for k in 0..100 {
            if k % 2 == 0 {
                p.on_rejection(k);
            }
        }
        p.on_period_end(black_box(&leftover));
        p
    });
}

fn bench_minidb(out: &mut Vec<MicroResult>) {
    use qa_minidb::{Database, Value};
    let mut db = Database::new();
    db.execute("CREATE TABLE fact (id INT, a INT, b FLOAT, g INT)")
        .unwrap();
    db.execute("CREATE TABLE dim (id INT, v FLOAT)").unwrap();
    db.load_rows(
        "fact",
        (0..2_000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 997),
                    Value::Float(i as f64),
                    Value::Int(i % 20),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.load_rows(
        "dim",
        (0..500)
            .map(|i| vec![Value::Int(i * 4), Value::Float(i as f64)])
            .collect(),
    )
    .unwrap();
    let sql = "SELECT f.g, COUNT(*), SUM(d.v) FROM fact AS f JOIN dim AS d ON f.id = d.id \
               WHERE f.a > 100 GROUP BY f.g ORDER BY f.g";

    bench(out, "minidb/plan_star_query", || {
        db.plan(black_box(sql)).unwrap()
    });
    bench(out, "minidb/explain_star_query", || {
        db.explain(black_box(sql)).unwrap()
    });
    bench(out, "minidb/execute_star_query_2k_rows", || {
        db.query(black_box(sql)).unwrap()
    });
}

/// Runs every case, printing one line per case and returning the
/// measurements.
pub fn run_all() -> Vec<MicroResult> {
    println!("qa-bench micro (budget {:?}/case)\n", budget());
    let mut out = Vec::new();
    bench_supply_solvers(&mut out);
    bench_price_adjustment(&mut out);
    bench_event_queue(&mut out);
    bench_federation_period(&mut out);
    bench_sharded(&mut out);
    bench_broker(&mut out);
    bench_allocation(&mut out);
    bench_telemetry(&mut out);
    bench_minidb(&mut out);
    out
}
