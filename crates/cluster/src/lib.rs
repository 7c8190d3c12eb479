//! # qa-cluster — the "real implementation" of QA-NT (§5.2)
//!
//! The paper deploys its pricing mechanism on five heterogeneous Windows
//! PCs running a commercial RDBMS: 20 tables (1 GB), 80 select-project
//! views with 2–4 copies each, a 300-query workload of
//! select-join-project-group star queries, uniform inter-arrival, and a
//! two-step cost estimator (`EXPLAIN PLAN` + per-plan execution history).
//!
//! This crate is the open equivalent: five nodes, each owning a live
//! [`qa_minidb::Database`] instance — as threads behind `std::sync::mpsc`
//! mailboxes in-process, or as `qad` processes over TCP — and one driver
//! that steps every query on a single thread. Heterogeneity comes from
//! per-node slowdown factors (the paper's 1.3–3.06 GHz spread, where the
//! same query took 1 s on the fastest and 14 s on the slowest machine) and
//! one high-latency link (the paper's 54 Mb wireless PC). Because nodes are single-threaded — like a
//! DBMS worker saturated by a query — a busy node answers `EXPLAIN`
//! requests late, reproducing the paper's observation that assignment took
//! seconds because "the slowest of the PCs took up to 3 seconds to evaluate
//! an EXPLAIN PLAN statement".
//!
//! Scale substitution: data sizes and timings are scaled down ~100× (tables
//! of hundreds of rows, queries of milliseconds) so the experiment runs in
//! CI; all comparisons are relative, which is what Figure 7 reports.
//!
//! * [`setup`] — deployment generator: tables, views, copies, query classes,
//! * [`node`] — the node thread: minidb + QA-NT market state + estimator,
//!   optionally behind a lossy link ([`spawn_node_with_faults`]),
//! * [`driver`] — the experiment driver: the sans-IO per-query protocol
//!   machine (Greedy and QA-NT) and the event loop that replays the
//!   workload through it, with Figure-7 measurements, crash injection and
//!   loss-tolerant reply collection,
//! * [`transport`] — the fleet seam: one-shot reply handles over
//!   in-process channels, TCP, or the model checker's virtual network
//!   ([`simtransport`], driven by [`explore`]),
//! * [`error`] — the [`ClusterError`] taxonomy for environmental failures
//!   (the protocol paths never panic).

pub mod ctl;
pub mod driver;
pub mod error;
pub mod explore;
pub mod metrics_http;
pub mod node;
pub mod qad;
pub mod setup;
pub mod simtransport;
pub mod transport;

pub use driver::{
    qant_config_for, run_experiment, run_workload, spawn_fleet, ClusterConfig, ClusterMechanism,
    ExperimentResult,
};
pub use error::ClusterError;
pub use explore::{
    explore_random, explore_systematic, run_schedule, run_seed, run_trail, ExploreConfig,
    ExploreReport, ScheduleOutcome, Violation,
};
pub use node::{spawn_node, spawn_node_with_faults, NodeHandle, NodeMsg};
pub use qad::FedConfig;
pub use setup::{ClusterSpec, QueryClassSpec};
pub use simtransport::{SharedSchedule, SimNodeState, SimTransport};
pub use transport::{
    ChannelTransport, Delivery, NodeStats, Reply, ReplyTag, ReplyTo, TcpTransport, Transport,
};
