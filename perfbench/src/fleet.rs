//! The fleet workloads: five `qad` processes over loopback TCP (the
//! `FedConfig::example()` deployment), loaded open loop by one
//! `run_workload` call per round.
//!
//! Each round spawns a fresh fleet, replays the workload, scrapes every
//! node's registry with `collect_stats`, shuts the fleet down and reaps
//! it. A round fails when any `qad` child is still running afterwards,
//! so a crashed round cannot slow the next one.

use crate::check::{check_executed, check_fleet_outcomes};
use crate::procfs::{self, Sampler, Samples};
use crate::spans::Spans;
use qa_cluster::ctl::{collect_stats, Federation};
use qa_cluster::driver::QueryOutcome;
use qa_cluster::{run_workload, FedConfig, TcpTransport, Transport};
use qa_simnet::json::Json;
use qa_simnet::telemetry::MetricsRegistry;
use qa_simnet::Telemetry;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// How long the post-load stats scrape waits for each node.
const STATS_TIMEOUT: Duration = Duration::from_secs(5);

/// Size and offered rate of a fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// Queries per round.
    pub queries: usize,
    /// Mean gap between query issues (ms); the open-loop rate is
    /// `1000 / gap_ms` queries/s.
    pub gap_ms: u64,
    /// Wall time one round nominally takes (s), which sizes the round
    /// count of a run.
    pub nominal_round_s: f64,
}

/// The federation config of one fleet workload at `seed`: the example
/// deployment with the workload's size, rate and seed.
pub fn fed_config(shape: &FleetShape, seed: u64) -> FedConfig {
    FedConfig {
        seed,
        num_queries: shape.queries,
        mean_interarrival_ms: shape.gap_ms,
        ..FedConfig::example()
    }
}

/// A spawned, connected fleet.
pub struct Fleet {
    federation: Federation,
    transport: Arc<TcpTransport>,
    /// The `qad` child pids.
    pub pids: Vec<u32>,
}

/// Spawns the fleet and connects the driver transport.
///
/// # Errors
/// Spawn or connect failures.
pub fn spawn(
    fed: &FedConfig,
    qad_bin: &Path,
    config_path: &Path,
    telemetry: &Telemetry,
    spans: &Spans,
) -> Result<(Fleet, f64), String> {
    let config = config_path.to_str().ok_or("config path is not UTF-8")?;
    let (federation, spawn_s) = spans.time("fleet.spawn", || {
        Federation::spawn(fed, qad_bin, config, None)
    });
    let federation = federation?;
    let (transport, connect_s) = spans.time("fleet.connect", || federation.connect(telemetry));
    let pids = procfs::children();
    let transport = match transport {
        Ok(t) => Arc::new(t),
        Err(e) => {
            federation.wait();
            return Err(format!("connect: {e}"));
        }
    };
    Ok((
        Fleet {
            federation,
            transport,
            pids,
        },
        spawn_s + connect_s,
    ))
}

impl Fleet {
    /// Shuts the fleet down, reaps every child and checks that none is
    /// left running. Returns whether every child exited cleanly.
    ///
    /// # Errors
    /// A `qad` child that survived shutdown.
    pub fn stop(self, spans: &Spans) -> Result<bool, String> {
        let Fleet {
            federation,
            transport,
            pids,
        } = self;
        let (clean, _) = spans.time("fleet.shutdown", || {
            transport.shutdown();
            drop(transport);
            federation.wait()
        });
        let survivors: Vec<u32> = pids
            .into_iter()
            .filter(|&p| procfs::is_running_child(p))
            .collect();
        if survivors.is_empty() {
            Ok(clean)
        } else {
            Err(format!("qad children {survivors:?} survived shutdown"))
        }
    }
}

/// One round of load against a fresh fleet.
#[derive(Debug, Clone)]
pub struct Round {
    /// Spawn plus connect (s).
    pub setup_s: f64,
    /// Wall time of the `run_workload` call (s).
    pub run_s: f64,
    /// Per-query outcomes, in issue order.
    pub outcomes: Vec<QueryOutcome>,
    /// Completed queries.
    pub completed: u64,
    /// Nodes that exited before shutdown or never answered the scrape.
    pub crashed: u64,
    /// Whether every child exited cleanly after shutdown.
    pub clean: bool,
    /// The nodes' registries merged (from `collect_stats`).
    pub fleet_registry: MetricsRegistry,
    /// The driver's registry (traced rounds only).
    pub driver_registry: Option<MetricsRegistry>,
    /// `/proc` readings taken while the fleet served the load.
    pub samples: Samples,
    /// Problems the round's output check found.
    pub problems: Vec<String>,
}

/// Runs one round: spawn, load, scrape, shut down, check.
///
/// # Errors
/// Spawn, connect or workload failures, or a child left running.
pub fn round(
    fed: &FedConfig,
    qad_bin: &Path,
    config_path: &Path,
    spans: &Spans,
    traced: bool,
) -> Result<Round, String> {
    let telemetry = if traced {
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    };
    let spec = fed.spec();
    let config = fed.cluster_config(telemetry.clone());
    let (fleet, setup_s) = spawn(fed, qad_bin, config_path, &telemetry, spans)?;
    let sampler = Sampler::start(fleet.pids.clone());
    let transport: Arc<dyn Transport> = fleet.transport.clone();
    let (result, run_s) = spans.time("driver.run_workload", || {
        run_workload(&spec, &config, transport)
    });
    let (stats, _) = spans.time("fleet.collect_stats", || {
        collect_stats(&fleet.transport, STATS_TIMEOUT)
    });
    let samples = sampler.finish();
    let clean = fleet.stop(spans)?;
    let result = result.map_err(|e| format!("workload: {e}"))?;

    let fleet_registry = MetricsRegistry::new();
    let mut silent = 0;
    for s in &stats {
        match s.as_ref().and_then(|s| Json::parse(&s.json).ok()) {
            Some(snapshot) => {
                fleet_registry.merge_snapshot(&snapshot);
            }
            None => silent += 1,
        }
    }
    // A node counts as crashed when it exited before shutdown or never
    // answered the scrape.
    let crashed = silent.max(samples.child_exited.len() as u64);

    let mut problems = Vec::new();
    let completed = match check_fleet_outcomes(&result.outcomes, fed.num_queries) {
        Ok(c) => c,
        Err(e) => {
            problems.push(e);
            0
        }
    };
    let executed = fleet_registry.counter("qad.queries_executed").get();
    if let Err(e) = check_executed(completed, executed, crashed) {
        problems.push(e);
    }
    Ok(Round {
        setup_s,
        run_s,
        outcomes: result.outcomes,
        completed,
        crashed,
        clean,
        fleet_registry,
        driver_registry: telemetry.registry().cloned(),
        samples,
        problems,
    })
}
