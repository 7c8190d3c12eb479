//! Pins the performance baseline: wall-clock of every sweep-shaped bench
//! bin (serial `QA_THREADS=1` vs parallel at the full thread budget) plus
//! the micro-bench suite, written to `bench_results/perf_baseline.json`.
//!
//! Each bin is timed as a subprocess (found next to this executable), so
//! the numbers include exactly what a user-invoked run pays. The real
//! cluster bin (`fig7_real_cluster`) is excluded — it spawns its own
//! threads and sleeps on wall-clock timers, so its duration measures the
//! experiment design, not the simulator.
//!
//! Scale and budget follow the usual env vars: `QA_SCALE` (ci/full) for
//! the bins, `QA_BENCH_SECONDS` for the micro cases.
//! `scripts/bench_baseline.sh` wraps this with a `--quick` mode for CI.
//!
//! ## Check mode
//!
//! `perf_baseline --check-against <pinned.json>` runs only the micro
//! suite and compares each case against the pinned file's `ns_per_iter`,
//! failing (exit 1) when any case regressed by more than
//! [`CHECK_TOLERANCE`]× or a pinned case disappeared from the suite. The
//! sweep-bin wall-clocks are informational only — they measure the
//! machine as much as the code — so the gate is the micro suite, whose
//! generous tolerance absorbs CI-runner noise while still catching
//! order-of-magnitude regressions.
//!
//! The check also holds each [`RATIO_GATES`] case within a bound of its
//! twin measured in the same run. A same-run ratio is immune to host
//! drift, so its bound can be much tighter than the pinned tolerance.

use qa_bench::micro::{self, MicroResult};
use qa_bench::write_json;
use qa_simnet::{thread_budget, Json};
use std::process::{Command, Stdio};
use std::time::Instant;

/// A micro case fails the check when it is slower than `tolerance ×
/// pinned`. 3× is deliberately loose: shared CI runners jitter by
/// integer factors, and the gate exists to catch structural regressions
/// (an accidental O(n²), a lost fast path), not percent-level drift.
const CHECK_TOLERANCE: f64 = 3.0;

/// Same-run ratio gates, `(case, twin, bound)`: the check fails when
/// `case` is slower than `bound ×` `twin` in the same run. The
/// metrics-only federation period must stay close to its unobserved
/// twin — observation must not switch the engine onto slower paths.
const RATIO_GATES: [(&str, &str, f64); 1] = [(
    "federation/single_period_500_nodes_metrics_only",
    "federation/single_period_500_nodes",
    2.0,
)];

/// The sweep-shaped bins the parallel runner accelerates.
const SWEEP_BINS: [&str; 11] = [
    "fig3_sinusoid_workload",
    "fig4_all_algorithms",
    "fig5a_load_sweep",
    "fig5b_frequency_sweep",
    "fig5c_tracking",
    "fig6_zipf_sweep",
    "table2_comparison",
    "table3_parameters",
    "ablation_market",
    "ext_fairness",
    "ext_resilience",
];

#[derive(Debug, Clone)]
struct BinTiming {
    bin: String,
    serial_s: f64,
    parallel_s: f64,
    speedup: f64,
}

qa_simnet::impl_to_json!(BinTiming {
    bin,
    serial_s,
    parallel_s,
    speedup
});

struct PerfBaseline {
    scale: String,
    threads: usize,
    bins: Vec<BinTiming>,
    micro: Vec<MicroResult>,
}

qa_simnet::impl_to_json!(PerfBaseline {
    scale,
    threads,
    bins,
    micro
});

/// Runs a sibling bin once with the given thread budget, returning its
/// wall-clock seconds. Output is discarded — only the JSON the bin writes
/// under `bench_results/` remains, same as a user run.
fn time_bin(name: &str, threads: Option<usize>) -> f64 {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin directory");
    let mut cmd = Command::new(dir.join(name));
    match threads {
        Some(n) => {
            cmd.env("QA_THREADS", n.to_string());
        }
        None => {
            cmd.env_remove("QA_THREADS");
        }
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
    let t = Instant::now();
    let status = cmd.status().unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    assert!(status.success(), "{name} exited with {status}");
    t.elapsed().as_secs_f64()
}

/// Parses the `micro` section of a pinned `perf_baseline.json` into
/// `(name, ns_per_iter)` pairs.
fn pinned_micro(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read pinned baseline {path}: {e}"));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    let cases = json
        .get("micro")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{path}: no `micro` array"));
    cases
        .iter()
        .map(|c| {
            let name = match c.get("name") {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{path}: bad case name {other:?}"),
            };
            let ns = match c.get("ns_per_iter") {
                Some(Json::Float(v)) => *v,
                Some(Json::Int(v)) => *v as f64,
                other => panic!("{path}: bad ns_per_iter {other:?}"),
            };
            (name, ns)
        })
        .collect()
}

/// Runs the micro suite and diffs it against the pinned baseline.
/// Returns the process exit code.
fn check_against(path: &str) -> i32 {
    let pinned = pinned_micro(path);
    println!("checking micro suite against {path} (tolerance {CHECK_TOLERANCE}x)\n");
    let current = micro::run_all();
    println!();
    let mut failures = 0;
    for (name, pinned_ns) in &pinned {
        match current.iter().find(|c| &c.name == name) {
            None => {
                println!("FAIL {name}: pinned case missing from the current suite");
                failures += 1;
            }
            Some(c) => {
                let ratio = c.ns_per_iter / pinned_ns.max(1e-9);
                if ratio > CHECK_TOLERANCE {
                    println!(
                        "FAIL {name}: {:.0} ns vs pinned {:.0} ns ({ratio:.2}x > {CHECK_TOLERANCE}x)",
                        c.ns_per_iter, pinned_ns
                    );
                    failures += 1;
                } else {
                    println!(
                        "ok   {name}: {:.0} ns vs pinned {:.0} ns ({ratio:.2}x)",
                        c.ns_per_iter, pinned_ns
                    );
                }
            }
        }
    }
    for c in &current {
        if !pinned.iter().any(|(n, _)| n == &c.name) {
            println!("note {}: not pinned yet (informational)", c.name);
        }
    }
    let ns_of = |name: &str| {
        current
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.ns_per_iter)
    };
    for (case, twin, bound) in RATIO_GATES {
        match (ns_of(case), ns_of(twin)) {
            (Some(ns), Some(twin_ns)) => {
                let ratio = ns / twin_ns.max(1e-9);
                if ratio > bound {
                    println!("FAIL {case}: {ratio:.2}x its twin {twin} in this run (> {bound}x)");
                    failures += 1;
                } else {
                    println!("ok   {case}: {ratio:.2}x its twin {twin} in this run");
                }
            }
            _ => {
                println!("FAIL {case}: ratio gate needs both {case} and {twin} in the suite");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        println!("\nperf check FAILED: {failures} case(s) regressed past their bound");
        1
    } else {
        println!(
            "\nperf check passed: {} pinned case(s) and {} ratio gate(s) within bounds",
            pinned.len(),
            RATIO_GATES.len()
        );
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check-against") {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("--check-against needs a path"));
        std::process::exit(check_against(path));
    }
    let scale = match qa_bench::scale() {
        qa_bench::Scale::Ci => "ci",
        qa_bench::Scale::Full => "full",
    };
    let threads = thread_budget();
    println!("perf baseline — scale {scale}, thread budget {threads}\n");

    let mut bins = Vec::new();
    for name in SWEEP_BINS {
        let serial_s = time_bin(name, Some(1));
        let parallel_s = time_bin(name, None);
        let speedup = serial_s / parallel_s.max(1e-9);
        println!("{name:<28} serial {serial_s:>8.3}s   parallel {parallel_s:>8.3}s   speedup {speedup:>5.2}x");
        bins.push(BinTiming {
            bin: name.to_string(),
            serial_s,
            parallel_s,
            speedup,
        });
    }
    println!();

    let micro = micro::run_all();

    let baseline = PerfBaseline {
        scale: scale.to_string(),
        threads,
        bins,
        micro,
    };
    let path = write_json("perf_baseline", &baseline).expect("write result");
    println!("\nwrote {}", path.display());
}
