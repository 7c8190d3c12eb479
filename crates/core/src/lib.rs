//! # qa-core — autonomic query allocation by microeconomics
//!
//! The primary contribution of *Autonomic Query Allocation based on
//! Microeconomics Principles* (Pentaris & Ioannidis, ICDE 2007), plus every
//! baseline the paper compares against (§4, Table 2):
//!
//! | Mechanism | Module | Paper row |
//! |---|---|---|
//! | **QA-NT** (query markets, non-tâtonnement) | [`qant`] | "QA-NT — Very Good, distributed, autonomous" |
//! | Greedy (least completion time) | [`client`] | "Greedy — Very Good, violates autonomy" |
//! | Random | [`client`] | "Random — Poor" |
//! | Round-robin | [`client`] | "Round-robin — Poor" |
//! | BNQRD (central unbalance factor, Carey et al.) | [`bnqrd`] | "BNQRD — Poor, violates autonomy" |
//! | Two random probes (Mitzenmacher) | [`client`] | "(two-random probes) — between Round-robin and BNQRD" |
//! | Markov/stochastic optimal (Drenick & Smith) | [`markov`] | "Markov — Excellent, static only, centralized" |
//!
//! The crate holds the *decision logic* only; the drivers live in `qa-sim`
//! (discrete-event, 100 nodes, §5.1) and `qa-cluster` (threaded deployment
//! over live `qa-minidb` engines, §5.2). Both drive the same negotiation
//! protocol, whose messages ([`messages`]) deliberately carry **no prices**
//! — QA-NT's prices are private per-node state, which is the autonomy
//! argument of the paper.
//!
//! The mapping onto microeconomics (Table 1) is provided by `qa-economics`:
//! queries ↔ commodities, client nodes ↔ buyers, server nodes ↔ sellers,
//! virtual query prices ↔ commodity values.

pub mod bnqrd;
pub mod client;
pub mod estimator;
pub mod hier;
pub mod markov;
pub mod mechanism;
pub mod messages;
pub mod qant;

/// In-tree JSON support (hosted in `qa-simnet` so the workload layer can
/// use it too; re-exported here as the canonical entry point for the
/// upper layers — see DESIGN.md, "Hermetic build").
pub use qa_simnet::json;
pub use qa_simnet::telemetry;

pub use bnqrd::BnqrdCoordinator;
pub use client::{choose_best_offer, RoundRobinState, TwoProbesChooser};
pub use estimator::{EstimatorStats, PlanHistoryEstimator};
pub use hier::{escalation_cap, mean_abs_delta_ln, ShardSignal};
pub use markov::MarkovAllocator;
pub use mechanism::MechanismKind;
pub use messages::{Offer, Request};
pub use qant::{QantConfig, QantNode, QantSpans};
