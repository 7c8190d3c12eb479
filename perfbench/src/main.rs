//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--state-dir DIR] [--digests FILE] [--revision REV]
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The exit code is 0 only when the run's output checks pass.

use perfbench::check::DigestBook;
use perfbench::spans::Spans;
use perfbench::{
    host_record, measure, result_json, Env, Measurement, Workload, END_TO_END, PER_LAYER,
};
use std::path::PathBuf;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
    digests: PathBuf,
    revision: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut state_dir = PathBuf::from(".bench_build/perfbench");
    let mut digests = PathBuf::from("perfbench/digests.tsv");
    let mut revision = "unknown".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{arg} requires a value"))?
            .clone();
        match arg.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--state-dir" => state_dir = PathBuf::from(value),
            "--digests" => digests = PathBuf::from(value),
            "--revision" => revision = value,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        state_dir,
        digests,
        revision,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.state_dir)
        .map_err(|e| format!("create {}: {e}", args.state_dir.display()))?;
    // The `qad` node binary is built beside this one.
    let qad_bin = std::env::current_exe()
        .map_err(|e| format!("locate own binary: {e}"))?
        .with_file_name("qad");
    let env = Env {
        qad_bin,
        state_dir: args.state_dir.clone(),
    };
    let mut book = DigestBook::load(&args.digests, &args.state_dir.join("digests.tsv"));
    let host = host_record(args.seed, &args.revision);
    let w = args.workload;
    let shape = w.shape(false);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host.dump());

    let (m, names, spans): (Measurement, &[(&str, &str)], Option<Spans>) = if args.trace {
        // Half the time untraced, half traced: the difference in qps is
        // the tracing overhead.
        let half = args.seconds / 2.0;
        let base = measure(
            w,
            shape,
            args.seed,
            half,
            &Spans::new(false),
            &mut book,
            &env,
        )?;
        let spans = Spans::new(true);
        let mut m = measure(w, shape, args.seed, half, &spans, &mut book, &env)?;
        let overhead = m.end_to_end["qps"] - base.end_to_end["qps"];
        m.layers.insert("trace.overhead_qps", overhead);
        m.layers.insert("trace.spans", spans.len() as f64);
        m.lines.push(format!(
            "tracing overhead: traced qps {:.3} minus untraced qps {:.3} = {overhead:.3}",
            m.end_to_end["qps"], base.end_to_end["qps"]
        ));
        m.problems.extend(base.problems);
        (m, PER_LAYER, Some(spans))
    } else {
        let m = measure(
            w,
            shape,
            args.seed,
            args.seconds,
            &Spans::new(false),
            &mut book,
            &env,
        )?;
        (m, END_TO_END, None)
    };
    let mut problems = m.problems.clone();
    for &(name, _) in END_TO_END {
        let v = m.end_to_end.get(name).copied().unwrap_or(f64::NAN);
        if !(v.is_finite() && v > 0.0) {
            problems.push(format!("end-to-end metric {name} reads {v}"));
        }
    }
    for line in &m.lines {
        println!("{line}");
    }
    let values = if args.trace { &m.layers } else { &m.end_to_end };
    for &(name, unit) in names {
        println!(
            "metric {name} = {} {unit}",
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    if let Some(spans) = spans {
        let path = args
            .state_dir
            .join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        let text = format!("{}\n{}", host.dump(), spans.to_jsonl());
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    for p in &problems {
        println!("check FAILED: {p}");
    }
    if problems.is_empty() {
        println!("check ok");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        result_json(correct, m.attempted, m.failed, names, values).dump()
    );
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args).and_then(|a| run(&a)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
