//! The driver's thread count is bounded by the fleet, not the workload:
//! `run_workload` steps every query on the caller's thread and spawns
//! none, so a flood of queries cannot exhaust the process's threads.
//!
//! A test binary of its own, so that no other test's threads share the
//! process whose `/proc/self/task` it samples.
#![cfg(target_os = "linux")]

use qa_cluster::{
    run_workload, spawn_fleet, ClusterConfig, ClusterMechanism, ClusterSpec, Transport,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[test]
fn a_query_flood_completes_without_a_thread_per_query() {
    let spec = ClusterSpec::generate(5, 5, 8, 12, 6, 60);
    let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::Greedy, 7);
    cfg.num_queries = 2_000;
    cfg.mean_interarrival = Duration::from_micros(200);
    let transport: Arc<dyn Transport> = Arc::new(spawn_fleet(&spec, &cfg, Instant::now()));

    let peak = Arc::new(AtomicUsize::new(threads()));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (peak, stop) = (Arc::clone(&peak), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    let result = run_workload(&spec, &cfg, Arc::clone(&transport)).expect("runnable config");
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler");
    transport.shutdown();

    assert_eq!(result.outcomes.len(), cfg.num_queries);
    assert_eq!(
        result.failed,
        0,
        "{:?}",
        result.outcomes.iter().find(|o| o.error.is_some())
    );
    // The test harness, this test, the sampler and one thread per node.
    let peak = peak.load(Ordering::Relaxed);
    assert!(
        peak <= spec.num_nodes + 4,
        "{peak} threads for a {}-node fleet",
        spec.num_nodes
    );
}
