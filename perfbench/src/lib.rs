//! End-to-end benchmark of the query-markets system.
//!
//! Four seeded workloads drive the system only through its public entry
//! points and time each layer by wrapping those calls (see `README.md`
//! beside this crate for why each workload exists and which layer metric
//! should move which end-to-end metric):
//!
//! * `sim_scale` — 10k-node sharded engine with the QA-NT broker parent;
//! * `sim_observed` — 500-node flat engine under 1.5× overload carrying
//!   `Telemetry::metrics_only()`;
//! * `fleet_paced` — five `qad` processes at 100 queries/s;
//! * `fleet_overload` — the same fleet at 1,000 queries/s.

pub mod check;
pub mod fleet;
pub mod procfs;
pub mod sim;
pub mod spans;

use check::DigestBook;
use fleet::FleetShape;
use qa_simnet::stats::LogHistogram;
use qa_simnet::Json;
use sim::{Engine, SimShape};
use spans::Spans;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Set-ups measured per run at least, for the median `setup_s`.
const MIN_SETUPS: usize = 5;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("completion", "ratio"),
    ("peak_rss_mb", "MB"),
    ("alloc_efficiency", "ratio"),
    ("response_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.trace_gen_ms", "ms"),
    ("sim.scenario_ms", "ms"),
    ("sim.plan_ms", "ms"),
    ("sim.engine_new_ms", "ms"),
    ("sim.run_s", "s"),
    ("sim.us_per_query", "us"),
    ("sim.ms_per_period", "ms"),
    ("sim.periods", "count"),
    ("sim.retries", "count"),
    ("sim.messages", "count"),
    ("sim.cross_messages", "count"),
    ("broker.bids", "count"),
    ("broker.parent_rounds", "count"),
    ("broker.escalated_units", "count"),
    ("federation.allocate.calls", "count"),
    ("federation.allocate.self_us", "us"),
    ("federation.period_update.self_us", "us"),
    ("qant.supply_solve.us", "us"),
    ("qant.price_update.us", "us"),
    ("driver.assign_p50_ms", "ms"),
    ("driver.assign_p99_ms", "ms"),
    ("driver.total_p50_ms", "ms"),
    ("driver.total_p99_ms", "ms"),
    ("driver.rpc_p50_ms", "ms"),
    ("driver.rpc_p99_ms", "ms"),
    ("driver.poll_rounds", "count"),
    ("driver.retries", "count"),
    ("driver.threads_peak", "count"),
    ("driver.schedule_slip_ms", "ms"),
    ("qad.exec_p50_ms", "ms"),
    ("qad.exec_p99_ms", "ms"),
    ("qad.offers_made", "count"),
    ("qad.offers_rejected", "count"),
    ("qad.queries_executed", "count"),
    ("qad.threads_peak", "count"),
    ("qad.crashed", "count"),
    ("trace.overhead_qps", "1/s"),
    ("trace.spans", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10k-node sharded engine with the QA-NT broker parent.
    SimScale,
    /// 500-node flat engine under overload with `metrics_only` telemetry.
    SimObserved,
    /// Five `qad` processes at 100 queries/s.
    FleetPaced,
    /// Five `qad` processes at 1,000 queries/s.
    FleetOverload,
}

/// The input size of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A simulator workload.
    Sim(SimShape),
    /// A fleet workload.
    Fleet(FleetShape),
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SimScale,
        Workload::SimObserved,
        Workload::FleetPaced,
        Workload::FleetOverload,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimScale => "sim_scale",
            Workload::SimObserved => "sim_observed",
            Workload::FleetPaced => "fleet_paced",
            Workload::FleetOverload => "fleet_overload",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's input size, or with `tiny` a seconds-scale shape
    /// of the same workload for the self-tests.
    pub fn shape(self, tiny: bool) -> Shape {
        match (self, tiny) {
            (Workload::SimScale, false) => Shape::Sim(SimShape {
                nodes: 10_000,
                horizon_s: 100,
                engine: Engine::Sharded { shards: 16 },
                nominal_rep_s: 4.2,
            }),
            (Workload::SimScale, true) => Shape::Sim(SimShape {
                nodes: 200,
                horizon_s: 10,
                engine: Engine::Sharded { shards: 4 },
                nominal_rep_s: 0.1,
            }),
            (Workload::SimObserved, false) => Shape::Sim(SimShape {
                nodes: 500,
                horizon_s: 20,
                engine: Engine::Observed { load: 1.5 },
                nominal_rep_s: 4.2,
            }),
            (Workload::SimObserved, true) => Shape::Sim(SimShape {
                nodes: 40,
                horizon_s: 10,
                engine: Engine::Observed { load: 1.5 },
                nominal_rep_s: 0.1,
            }),
            (Workload::FleetPaced, false) => Shape::Fleet(FleetShape {
                queries: 1_000,
                gap_ms: 10,
                nominal_round_s: 10.5,
            }),
            (Workload::FleetOverload, false) => Shape::Fleet(FleetShape {
                queries: 2_000,
                gap_ms: 1,
                nominal_round_s: 12.0,
            }),
            (Workload::FleetPaced, true) => Shape::Fleet(FleetShape {
                queries: 30,
                gap_ms: 5,
                nominal_round_s: 0.2,
            }),
            (Workload::FleetOverload, true) => Shape::Fleet(FleetShape {
                queries: 30,
                gap_ms: 1,
                nominal_round_s: 0.2,
            }),
        }
    }
}

/// Where a run finds the `qad` binary and keeps its files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `qad` node binary.
    pub qad_bin: PathBuf,
    /// Directory for fleet configs, the digest ledger and trace files.
    pub state_dir: PathBuf,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that did not complete.
    pub failed: u64,
    /// Output-check failures (empty = correct).
    pub problems: Vec<String>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank `q`-quantile of `xs`; 0 when empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Repetitions of a workload per run: `seconds` divided by the time one
/// repetition nominally takes on a 2-core host, at least one. The count
/// depends only on `seconds`, so a run does the same work on every
/// commit and a faster program finishes sooner.
fn repetitions(shape: &Shape, seconds: f64) -> usize {
    let nominal_s = match shape {
        Shape::Sim(s) => s.nominal_rep_s,
        Shape::Fleet(f) => f.nominal_round_s,
    };
    ((seconds / nominal_s).round() as usize).max(1)
}

/// The seed of repetition `rep` of a run at `seed`. Each repetition runs
/// its own inputs, so a run's figures average over several worlds.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(rep as u64)
}

/// Runs `workload` at `shape` for about `seconds`, checking its output.
///
/// # Errors
/// A failure that leaves nothing to measure (a fleet that cannot be
/// spawned or a `qad` child that survives shutdown).
pub fn measure(
    workload: Workload,
    shape: Shape,
    seed: u64,
    seconds: f64,
    spans: &Spans,
    book: &mut DigestBook,
    env: &Env,
) -> Result<Measurement, String> {
    let reps = repetitions(&shape, seconds);
    match shape {
        Shape::Sim(s) => Ok(measure_sim(workload, &s, seed, reps, spans, book)),
        Shape::Fleet(f) => measure_fleet(workload, &f, seed, reps, spans, env),
    }
}

fn measure_sim(
    workload: Workload,
    shape: &SimShape,
    seed: u64,
    count: usize,
    spans: &Spans,
    book: &mut DigestBook,
) -> Measurement {
    let traced = spans.enabled();
    let mut m = Measurement::default();
    let mut reps = Vec::new();
    let mut peak_kb = 0;
    for i in 0..count {
        spans.set_rep(i);
        let rep = sim::rep(shape, rep_seed(seed, i), spans, true, traced);
        let summary = rep
            .summary
            .as_ref()
            .expect("a run repetition has an outcome");
        m.problems.extend(
            summary
                .problems()
                .into_iter()
                .map(|p| format!("repetition {i}: {p}")),
        );
        let digest = summary.digest();
        if let Err(e) = book.check(workload.name(), rep_seed(seed, i), &digest) {
            m.problems.push(e);
        }
        if i == 0 {
            // What one simulation costs; later repetitions only add the
            // allocator's fragmentation.
            peak_kb = procfs::self_peak_rss_kb();
        }
        m.lines.push(format!(
            "repetition {i} (seed {}): outcome digest {digest}, {} arrivals, \
             {} completed, {} retries, mean response {:.3} ms, run {:.3} s",
            rep_seed(seed, i),
            summary.queries,
            summary.completed,
            summary.retries,
            summary.mean_response_ms,
            rep.run_s
        ));
        reps.push(rep);
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let i = setups.len();
        spans.set_rep(i);
        setups.push(sim::rep(shape, rep_seed(seed, i), spans, false, false).setup_s);
    }

    let summaries: Vec<&check::SimSummary> =
        reps.iter().filter_map(|r| r.summary.as_ref()).collect();
    let sum = |f: fn(&check::SimSummary) -> u64| summaries.iter().map(|s| f(s)).sum::<u64>();
    let queries = sum(|s| s.queries);
    let completed = sum(|s| s.completed);
    let retries = sum(|s| s.retries);
    let run_s: f64 = reps.iter().map(|r| r.run_s).sum();
    // An unserved query counts as slower than every completed one.
    let response_sum: f64 = summaries
        .iter()
        .map(|s| s.mean_response_ms * s.completed as f64 + s.max_response_ms * s.unserved as f64)
        .sum();
    m.attempted = queries;
    m.failed = sum(|s| s.unserved);
    m.lines.push(format!(
        "{completed} of {queries} arrivals completed after {retries} resubmissions \
         in {run_s:.3} s of runs: {:.1} completed queries per host-second",
        completed as f64 / run_s
    ));
    let e = &mut m.end_to_end;
    e.insert("setup_s", median(&setups));
    // The engine's work is one offer sweep per submission, and the number
    // of resubmissions swings with the seed, so the simulator's throughput
    // counts every submission: arrivals plus market resubmissions. The
    // median over repetitions damps bursts of interference from the host.
    let rates: Vec<f64> = reps
        .iter()
        .filter_map(|r| {
            let s = r.summary.as_ref()?;
            Some((s.queries + s.retries) as f64 / r.run_s)
        })
        .collect();
    e.insert("qps", median(&rates));
    e.insert("completion", completed as f64 / queries as f64);
    e.insert("peak_rss_mb", peak_kb as f64 / 1024.0);
    e.insert(
        "alloc_efficiency",
        completed as f64 / (completed + retries) as f64,
    );
    e.insert("response_ms", response_sum / queries as f64);

    // Times are per-repetition medians; counts are run totals.
    let keys: Vec<&'static str> = reps[0].layers.keys().copied().collect();
    for key in keys {
        let values: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.layers.get(key).copied())
            .collect();
        let is_count = PER_LAYER
            .iter()
            .any(|&(name, unit)| name == key && unit == "count");
        let value = if is_count {
            values.iter().sum()
        } else {
            median(&values)
        };
        m.layers.insert(key, value);
    }
    let periods = m.layers.get("sim.periods").copied().unwrap_or(0.0);
    let l = &mut m.layers;
    l.insert(
        "sim.run_s",
        median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>()),
    );
    l.insert("sim.us_per_query", run_s * 1e6 / queries as f64);
    if periods > 0.0 {
        l.insert("sim.ms_per_period", run_s * 1e3 / periods);
    }
    l.insert("sim.retries", retries as f64);
    l.insert("sim.messages", sum(|s| s.messages) as f64);
    l.insert("sim.cross_messages", sum(|s| s.cross_messages) as f64);
    if traced && matches!(shape.engine, Engine::Sharded { .. }) {
        // The broker counters read from the event stream must agree
        // with the ones the engine returns.
        for (layer, direct) in [
            ("broker.parent_rounds", sum(|s| s.parent_rounds)),
            ("broker.escalated_units", sum(|s| s.escalated_units)),
        ] {
            let from_events = m.layers.get(layer).copied().unwrap_or(0.0);
            if from_events != direct as f64 {
                m.problems.push(format!(
                    "{layer}: {from_events} from events, {direct} from the outcome"
                ));
            }
        }
    }
    m
}

fn measure_fleet(
    workload: Workload,
    shape: &FleetShape,
    seed: u64,
    count: usize,
    spans: &Spans,
    env: &Env,
) -> Result<Measurement, String> {
    let traced = spans.enabled();
    let mut rounds = Vec::new();
    let mut peak_kb = 0u64;
    let mut last_config = None;
    for i in 0..count {
        spans.set_rep(i);
        let fed = fleet::fed_config(shape, rep_seed(seed, i));
        let config_path = env.state_dir.join(format!(
            "fed-{}-{}.json",
            workload.name(),
            rep_seed(seed, i)
        ));
        std::fs::write(&config_path, fed.dump())
            .map_err(|e| format!("write {}: {e}", config_path.display()))?;
        let r = fleet::round(&fed, &env.qad_bin, &config_path, spans, traced)?;
        if i == 0 {
            let children_kb: u64 = r.samples.child_peak_kb.values().sum();
            peak_kb = procfs::self_peak_rss_kb() + children_kb;
        }
        rounds.push(r);
        last_config = Some((fed, config_path));
    }
    let (fed, config_path) = last_config.expect("at least one round");
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        spans.set_rep(setups.len());
        let (f, setup_s) = fleet::spawn(
            &fed,
            &env.qad_bin,
            &config_path,
            &qa_simnet::Telemetry::disabled(),
            spans,
        )?;
        f.stop(spans)?;
        setups.push(setup_s);
    }

    let mut m = Measurement::default();
    let (mut assign, mut total) = (Vec::new(), Vec::new());
    let mut retries = 0u64;
    let mut completed = 0u64;
    let mut run_total_s = 0.0;
    for (i, r) in rounds.iter().enumerate() {
        m.problems
            .extend(r.problems.iter().map(|p| format!("round {i}: {p}")));
        m.attempted += r.outcomes.len() as u64;
        completed += r.completed;
        run_total_s += r.run_s;
        // A failed query counts as slower than every completed one: it
        // waited the whole round without an answer.
        let round_ms = r.run_s * 1e3;
        for o in &r.outcomes {
            retries += u64::from(o.retries);
            if o.error.is_none() {
                assign.push(o.assign_ms);
                total.push(o.total_ms);
            } else {
                assign.push(round_ms);
                total.push(round_ms);
            }
        }
        m.lines.push(format!(
            "round {i} (seed {}): {} issued, {} completed, {} crashed, \
             clean shutdown {}, run {:.3} s",
            rep_seed(seed, i),
            r.outcomes.len(),
            r.completed,
            r.crashed,
            r.clean,
            r.run_s
        ));
    }
    m.failed = m.attempted - completed;
    let e = &mut m.end_to_end;
    e.insert("setup_s", median(&setups));
    e.insert("qps", completed as f64 / run_total_s);
    e.insert("completion", completed as f64 / m.attempted as f64);
    e.insert("peak_rss_mb", peak_kb as f64 / 1024.0);
    e.insert(
        "alloc_efficiency",
        completed as f64 / (completed + retries).max(1) as f64,
    );
    // The median, not the mean: a few scheduling hiccups of the host move
    // the fleet's mean latency by several percent from run to run.
    e.insert("response_ms", quantile(&total, 0.5));

    let rounds_total = |f: &dyn Fn(&fleet::Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let merged = |name: &str, driver: bool| {
        let mut h = LogHistogram::new();
        for r in &rounds {
            let registry = if driver {
                r.driver_registry.as_ref()
            } else {
                Some(&r.fleet_registry)
            };
            if let Some(reg) = registry {
                h.merge(&reg.histogram(name).snapshot());
            }
        }
        h
    };
    let nominal_ms = (shape.queries as u64 * shape.gap_ms) as f64;
    let slip = median(
        &rounds
            .iter()
            .map(|r| r.run_s * 1e3 - nominal_ms)
            .collect::<Vec<_>>(),
    );
    let l = &mut m.layers;
    l.insert("driver.assign_p50_ms", quantile(&assign, 0.5));
    l.insert("driver.assign_p99_ms", quantile(&assign, 0.99));
    l.insert("driver.total_p50_ms", quantile(&total, 0.5));
    l.insert("driver.total_p99_ms", quantile(&total, 0.99));
    l.insert("driver.schedule_slip_ms", slip);
    l.insert("driver.retries", retries as f64);
    l.insert(
        "driver.threads_peak",
        rounds
            .iter()
            .map(|r| r.samples.self_threads_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    l.insert(
        "qad.threads_peak",
        rounds
            .iter()
            .map(|r| r.samples.child_threads_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    l.insert("qad.crashed", rounds_total(&|r| r.crashed as f64));
    for name in [
        "qad.offers_made",
        "qad.offers_rejected",
        "qad.queries_executed",
    ] {
        l.insert(
            name,
            rounds_total(&|r| r.fleet_registry.counter(name).get() as f64),
        );
    }
    let exec = merged("qad.exec_ms", false);
    l.insert("qad.exec_p50_ms", exec.quantile(0.5).unwrap_or(0.0));
    l.insert("qad.exec_p99_ms", exec.quantile(0.99).unwrap_or(0.0));
    if traced {
        let rpc = merged("driver.rpc_ms", true);
        l.insert("driver.rpc_p50_ms", rpc.quantile(0.5).unwrap_or(0.0));
        l.insert("driver.rpc_p99_ms", rpc.quantile(0.99).unwrap_or(0.0));
        l.insert("driver.poll_rounds", rpc.count() as f64);
    }
    m.lines.push(format!(
        "fleet latency over {} attempted queries (failed count as slowest): \
         assign p50 {:.3} ms, p99 {:.3} ms; total p50 {:.3} ms, p99 {:.3} ms; \
         schedule slip {slip:.1} ms (latencies exclude generator lateness)",
        total.len(),
        l["driver.assign_p50_ms"],
        l["driver.assign_p99_ms"],
        l["driver.total_p50_ms"],
        l["driver.total_p99_ms"],
    ));
    Ok(m)
}

/// The host record every result carries.
pub fn host_record(seed: u64, revision: &str) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::object([
        ("nproc", Json::Int(nproc as i64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").to_string())),
        ("revision", Json::Str(revision.to_string())),
        ("seed", Json::Int(seed as i64)),
        (
            "thread_budget",
            Json::Int(qa_simnet::thread_budget() as i64),
        ),
    ])
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `names`, each with its unit. A metric missing from `values` reads 0.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Json {
    let metrics = names.iter().map(|&(name, unit)| {
        let value = values.get(name).copied().unwrap_or(0.0);
        (
            name,
            Json::object([
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    });
    Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::object(metrics)),
    ])
}
