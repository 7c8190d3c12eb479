//! Model-checking harness for the cluster driver protocol.
//!
//! [`run_schedule`] executes one deterministic episode of the allocation
//! protocol — the shipped [`Driver`] state machine that
//! [`crate::driver::run_workload`] also steps (poll → collect under a
//! deadline → assign → execute → crash re-entry with a retry budget) —
//! against the [`SimTransport`] virtual network, with **every**
//! nondeterministic decision (which message is delivered, what is
//! dropped, when a node crashes, when a timer fires, when the driver
//! takes a reply) resolved by one shared [`Schedule`]. After the episode,
//! four machine-checked invariants audit the final state:
//!
//! 1. **conservation** — every query ends exactly once (completed or
//!    unserved, totals match the workload), and each completed query's
//!    committed `(query, generation)` appears exactly once in its
//!    assignee's execution log;
//! 2. **double assignment** — across crash re-entry, no
//!    `(query, generation)` pair is ever executed twice, on any node or
//!    across nodes (re-allocation must bump the generation);
//! 3. **price consistency** — after recovering crashed nodes and
//!    reconnecting, each node's dumped price vector is finite, positive,
//!    stable across two consecutive dumps, and byte-identical to the
//!    node's internal market state;
//! 4. **termination** — the episode finishes within the action budget
//!    (the virtual watchdog): no schedule may wedge the driver.
//!
//! [`explore_random`] sweeps seeded-random schedules (each reproducible
//! from its printed seed via [`run_seed`]); [`explore_systematic`] runs
//! the bounded DFS enumeration from [`SystematicExplorer`]. A failing
//! schedule's seed or choice trail replays the identical interleaving.

use crate::driver::{perform, Action, ClusterConfig, ClusterMechanism, Driver};
use crate::simtransport::{NetStats, SharedSchedule, SimTransport};
use crate::transport::{Reply, ReplyTag, ReplyTo, Transport};
use qa_simnet::sched::{ChoiceTrail, RandomSchedule, ReplaySchedule, Schedule, SystematicExplorer};
use qa_simnet::telemetry::{Telemetry, TelemetryEvent};
use qa_workload::ClassId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

/// Shape of one explored episode. Small on purpose: model checking pays
/// for breadth in schedules, not size of any single run.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Fleet size.
    pub num_nodes: usize,
    /// Query classes (query `i` has class `i % num_classes`).
    pub num_classes: usize,
    /// Queries in the episode.
    pub num_queries: usize,
    /// Per-class supply units restored each period.
    pub supply_per_period: u32,
    /// Re-allocation attempts before a query is declared unserved.
    pub max_retries: u32,
    /// Schedule-chosen crash injections available to the adversary.
    pub crash_budget: u32,
    /// A period tick is broadcast before every `tick_every`-th issue.
    pub tick_every: usize,
    /// Driver-action budget — the virtual watchdog behind invariant 4.
    pub max_actions: u64,
    /// The protocol under test.
    pub mechanism: ClusterMechanism,
    /// Harness self-test: arm the model nodes' deliberate double-commit
    /// bug; the invariant checker must flag every such run.
    pub inject_double_exec: bool,
}

impl ExploreConfig {
    /// The default episode: 3 nodes × 2 classes × 4 queries with one
    /// adversarial crash — small enough that systematic enumeration
    /// covers real depth, rich enough to exercise re-entry.
    pub fn small() -> ExploreConfig {
        ExploreConfig {
            num_nodes: 3,
            num_classes: 2,
            num_queries: 4,
            supply_per_period: 2,
            max_retries: 3,
            crash_budget: 1,
            tick_every: 3,
            max_actions: 10_000,
            mechanism: ClusterMechanism::QaNt,
            inject_double_exec: false,
        }
    }
}

/// One failed invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

/// Everything observed under one schedule.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The schedule's self-description (`random seed N`, `systematic #K`).
    pub description: String,
    /// Full choice trail (replayable via [`run_trail`]).
    pub trail: ChoiceTrail,
    /// Queries that completed.
    pub completed: u64,
    /// Queries declared unserved.
    pub unserved: u64,
    /// Driver actions taken.
    pub actions: u64,
    /// Virtual-network counters (deliveries, drops, crash steps).
    pub net: NetStats,
    /// Invariant violations (empty = the schedule passed).
    pub violations: Vec<Violation>,
}

impl ScheduleOutcome {
    /// `true` iff every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A runner step whose turn order the schedule controls.
enum Step {
    /// Let the virtual network take one step.
    Net,
    /// Issue the next query.
    Issue,
    /// Hand the driver the oldest reply report it has not taken yet.
    Reply,
    /// Fire the armed timer due first (a reply deadline, a backoff or an
    /// execution timeout), as the event loop of
    /// [`crate::driver::run_workload`] would.
    Timer,
}

/// Runs one episode under `schedule` and audits the invariants. The
/// schedule is consumed; its full trail comes back in the outcome.
pub fn run_schedule(
    cfg: &ExploreConfig,
    schedule: Box<dyn Schedule + Send>,
    telemetry: &Telemetry,
    schedule_id: u64,
    mode: &str,
) -> ScheduleOutcome {
    run_episode(cfg, schedule, telemetry, schedule_id, mode, |sim| sim)
}

/// [`run_schedule`] with the driver's sends going through `wrap`'s
/// transport around the virtual network.
fn run_episode(
    cfg: &ExploreConfig,
    schedule: Box<dyn Schedule + Send>,
    telemetry: &Telemetry,
    schedule_id: u64,
    mode: &str,
    wrap: impl FnOnce(Arc<SimTransport>) -> Arc<dyn Transport>,
) -> ScheduleOutcome {
    let shared = SharedSchedule::new(schedule);
    let sim = Arc::new(SimTransport::new(
        cfg.num_nodes,
        cfg.num_classes,
        cfg.supply_per_period,
        cfg.crash_budget,
        shared.clone(),
        telemetry.clone(),
    ));
    if cfg.inject_double_exec {
        sim.inject_double_exec();
    }
    let transport = wrap(Arc::clone(&sim));
    telemetry.emit(|| TelemetryEvent::ScheduleStarted {
        schedule: schedule_id,
        mode: mode.to_string(),
    });

    let config = ClusterConfig {
        max_retries: cfg.max_retries,
        telemetry: telemetry.clone(),
        ..ClusterConfig::ci_scale(cfg.mechanism, 0)
    };
    let mut driver = Driver::new(&config, cfg.num_nodes);
    let (replies, inbox) = channel();
    let mut reports = VecDeque::new();
    // Each running query's one armed timer: (due, tag).
    let mut armed: Vec<Option<(Duration, ReplyTag)>> = vec![None; cfg.num_queries];
    let (mut issued, mut done, mut actions) = (0, 0, 0u64);
    loop {
        perform(
            &mut driver,
            transport.as_ref(),
            &replies,
            |action| match action {
                Action::Timer { tag, at } => armed[tag.id as usize] = Some((at, tag)),
                Action::Done(outcome) => {
                    armed[outcome.query] = None;
                    done += 1;
                }
                _ => {}
            },
        );
        reports.extend(inbox.try_iter());
        if done == cfg.num_queries || actions >= cfg.max_actions {
            break;
        }
        // The enabled steps, in a fixed order that puts the benign choice
        // first: timers fire only when nothing else can happen.
        let mut enabled = Vec::new();
        if sim.pending_messages() > 0 {
            enabled.push(Step::Net);
        }
        if issued < cfg.num_queries {
            enabled.push(Step::Issue);
        }
        if !reports.is_empty() {
            enabled.push(Step::Reply);
        }
        if armed.iter().any(Option::is_some) {
            enabled.push(Step::Timer);
        }
        if enabled.is_empty() {
            // Unreachable by construction (every running query has an
            // armed timer) — but a model checker must never trust
            // "unreachable": fall through and let the termination
            // invariant report the wedge.
            break;
        }
        actions += 1;
        let now = Duration::from_millis(actions);
        match enabled[shared.choose("action", enabled.len())] {
            Step::Net => {
                sim.step();
            }
            Step::Issue => {
                if issued > 0 && issued.is_multiple_of(cfg.tick_every) {
                    driver.period_tick();
                }
                let class = ClassId((issued % cfg.num_classes) as u32);
                driver.issue(class, String::new(), (0..cfg.num_nodes).collect(), now);
                issued += 1;
            }
            Step::Reply => {
                if let Some(report) = reports.pop_front() {
                    driver.on_delivery(report, now);
                }
            }
            Step::Timer => {
                if let Some(first) = armed.iter_mut().filter(|t| t.is_some()).min() {
                    let (_, tag) = first.take().expect("filtered to armed timers");
                    driver.on_timer(tag, now);
                }
            }
        }
    }

    let mut violations = check_invariants(cfg, &driver, &sim, actions);
    for v in &violations {
        let (invariant, detail) = (v.invariant.to_string(), v.detail.clone());
        telemetry.emit(|| TelemetryEvent::InvariantViolated { invariant, detail });
    }
    // Attach the trail to the first violation's detail so a printed
    // failure is self-contained.
    let trail_string = shared.trail_string();
    if let Some(first) = violations.first_mut() {
        first.detail = format!("{} [trail {}]", first.detail, trail_string);
    }

    let placements: Vec<_> = (0..cfg.num_queries).map(|q| driver.placement(q)).collect();
    let completed = placements
        .iter()
        .filter(|p| matches!(p, Some(Some(_))))
        .count() as u64;
    let unserved = placements
        .iter()
        .filter(|p| matches!(p, Some(None)))
        .count() as u64;
    let net = sim.stats();
    let description = shared.describe();
    drop(transport);
    drop(sim);
    let trail = shared.into_inner().trail().clone();
    ScheduleOutcome {
        description,
        trail,
        completed,
        unserved,
        actions,
        net,
        violations,
    }
}

/// The four invariant audits. Termination first: a wedged episode's
/// partial state would make the others report noise, so they only run on
/// episodes that finished.
fn check_invariants(
    cfg: &ExploreConfig,
    driver: &Driver,
    transport: &SimTransport,
    actions: u64,
) -> Vec<Violation> {
    let mut violations = Vec::new();

    // 4. Termination under the (virtual) watchdog.
    let unfinished = (0..cfg.num_queries)
        .filter(|&q| driver.placement(q).is_none())
        .count();
    if unfinished > 0 {
        violations.push(Violation {
            invariant: "termination",
            detail: format!(
                "{unfinished}/{} queries unfinished after {actions} driver actions \
                 (budget {})",
                cfg.num_queries, cfg.max_actions
            ),
        });
        return violations;
    }

    // Quiesce before auditing: recover crashed nodes (reconnect) and
    // deliver whatever the schedule left in flight — in-flight ticks and
    // offers legitimately mutate prices, so the state snapshot must come
    // after the network settles.
    transport.recover_all();
    transport.drain();
    let nodes = transport.node_states();

    // 1. Conservation: one outcome per query, totals match, and every
    // committed execution is present exactly once on its assignee.
    let mut done = 0usize;
    for i in 0..cfg.num_queries {
        let Some(outcome) = driver.placement(i) else {
            continue;
        };
        done += 1;
        if let Some((node, generation)) = outcome {
            let hits = nodes[node]
                .executions
                .iter()
                .filter(|e| e.query == i as u64 && e.generation == generation)
                .count();
            if hits != 1 {
                violations.push(Violation {
                    invariant: "conservation",
                    detail: format!(
                        "query {i} committed on node {node} gen {generation} \
                         appears {hits}× in its execution log (want exactly 1)"
                    ),
                });
            }
        }
    }
    if done != cfg.num_queries {
        violations.push(Violation {
            invariant: "conservation",
            detail: format!("{done} outcomes for {} queries", cfg.num_queries),
        });
    }

    // 2. No double assignment across crash re-entry: a (query, generation)
    // pair executes at most once, fleet-wide.
    let mut seen: BTreeMap<(u64, u32), Vec<usize>> = BTreeMap::new();
    for n in &nodes {
        for e in &n.executions {
            seen.entry((e.query, e.generation)).or_default().push(n.id);
        }
    }
    for ((query, generation), on_nodes) in &seen {
        if on_nodes.len() > 1 {
            violations.push(Violation {
                invariant: "double_assignment",
                detail: format!(
                    "query {query} gen {generation} executed {}× (nodes {on_nodes:?})",
                    on_nodes.len()
                ),
            });
        }
    }

    // 3. Price consistency after reconnect: the dumped vector must be
    // sane, stable across dumps, and identical to the node's internal
    // state (nodes were recovered and the network drained above).
    let dump = |node: usize| -> Option<Vec<f64>> {
        let (tx, rx) = channel();
        let tag = ReplyTag {
            id: node as u64,
            generation: 0,
        };
        transport.dump_prices(node, ReplyTo::new(tag, tx)).ok()?;
        transport.drain();
        match rx.try_recv().ok()?.reply {
            Some(Reply::Prices(p)) => Some(p.prices),
            _ => None,
        }
    };
    for n in &nodes {
        let (first, second) = (dump(n.id), dump(n.id));
        match (first, second) {
            (Some(a), Some(b)) => {
                if a != b {
                    violations.push(Violation {
                        invariant: "price_consistency",
                        detail: format!(
                            "node {} dumps differ across reconnect: {a:?} vs {b:?}",
                            n.id
                        ),
                    });
                } else if a != n.prices {
                    violations.push(Violation {
                        invariant: "price_consistency",
                        detail: format!(
                            "node {} dumped {a:?} but market state holds {:?}",
                            n.id, n.prices
                        ),
                    });
                } else if a.iter().any(|p| !p.is_finite() || *p <= 0.0) {
                    violations.push(Violation {
                        invariant: "price_consistency",
                        detail: format!("node {} price vector not finite-positive: {a:?}", n.id),
                    });
                }
            }
            _ => violations.push(Violation {
                invariant: "price_consistency",
                detail: format!("node {} did not answer the post-recovery price dump", n.id),
            }),
        }
    }

    violations
}

/// Replays a seeded-random schedule — the reproduction path for a printed
/// failure seed.
pub fn run_seed(cfg: &ExploreConfig, seed: u64) -> ScheduleOutcome {
    run_schedule(
        cfg,
        Box::new(RandomSchedule::new(seed)),
        &Telemetry::disabled(),
        seed,
        "random",
    )
}

/// Replays a recorded choice trail.
pub fn run_trail(cfg: &ExploreConfig, indices: Vec<u32>, label: &str) -> ScheduleOutcome {
    run_schedule(
        cfg,
        Box::new(ReplaySchedule::new(indices, label)),
        &Telemetry::disabled(),
        0,
        "replay",
    )
}

/// A schedule that failed, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FailedSchedule {
    /// The schedule's identity (`random seed N`, `systematic #K …`).
    pub description: String,
    /// Compact `point:chosen/arity` trail.
    pub trail: String,
    /// The violations it triggered.
    pub violations: Vec<Violation>,
}

/// Aggregates over an exploration sweep.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Schedules run.
    pub schedules: u64,
    /// Sum of completed queries.
    pub completed: u64,
    /// Sum of unserved queries.
    pub unserved: u64,
    /// Total requests dropped by the adversary.
    pub dropped_requests: u64,
    /// Total replies dropped by the adversary.
    pub dropped_replies: u64,
    /// Total crashes injected.
    pub crashes: u64,
    /// Distinct network-step indices at which a crash was injected —
    /// the crash-point coverage measure.
    pub crash_points: BTreeSet<u64>,
    /// Schedules that violated an invariant (capped at
    /// [`ExploreReport::MAX_FAILURES`]; `schedules_failed` keeps the
    /// true count).
    pub failures: Vec<FailedSchedule>,
    /// True number of failing schedules.
    pub schedules_failed: u64,
    /// `true` when a systematic sweep enumerated its whole bounded tree
    /// (as opposed to hitting the schedule budget).
    pub exhausted: bool,
}

impl ExploreReport {
    /// Failing schedules kept verbatim in [`ExploreReport::failures`].
    pub const MAX_FAILURES: usize = 8;

    fn absorb(&mut self, outcome: &ScheduleOutcome) {
        self.schedules += 1;
        self.completed += outcome.completed;
        self.unserved += outcome.unserved;
        self.dropped_requests += outcome.net.dropped_requests;
        self.dropped_replies += outcome.net.dropped_replies;
        self.crashes += outcome.net.crash_steps.len() as u64;
        self.crash_points.extend(outcome.net.crash_steps.iter());
        if !outcome.passed() {
            self.schedules_failed += 1;
            if self.failures.len() < Self::MAX_FAILURES {
                self.failures.push(FailedSchedule {
                    description: outcome.description.clone(),
                    trail: outcome.trail.to_string(),
                    violations: outcome.violations.clone(),
                });
            }
        }
    }

    /// `true` iff no schedule violated an invariant.
    pub fn passed(&self) -> bool {
        self.schedules_failed == 0
    }
}

/// Sweeps `count` seeded-random schedules starting at `base_seed`.
pub fn explore_random(cfg: &ExploreConfig, base_seed: u64, count: u64) -> ExploreReport {
    let mut report = ExploreReport::default();
    for i in 0..count {
        let outcome = run_seed(cfg, base_seed.wrapping_add(i));
        report.absorb(&outcome);
    }
    report
}

/// Bounded systematic enumeration: DFS over the first `depth_bound`
/// choice points, visiting at most `budget` schedules.
pub fn explore_systematic(cfg: &ExploreConfig, depth_bound: usize, budget: u64) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut explorer = SystematicExplorer::new(depth_bound, budget);
    while let Some(schedule) = explorer.begin() {
        let id = schedule.index();
        let outcome = run_schedule(
            cfg,
            Box::new(schedule),
            &Telemetry::disabled(),
            id,
            "systematic",
        );
        explorer.finish(&outcome.trail);
        report.absorb(&outcome);
    }
    report.exhausted = explorer.exhausted();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_schedule_completes_everything() {
        // All-zero choices: FIFO delivery, no drops, no crash.
        let cfg = ExploreConfig::small();
        let out = run_trail(&cfg, vec![], "benign");
        assert!(out.passed(), "{:?}", out.violations);
        assert_eq!(out.completed, cfg.num_queries as u64);
        assert_eq!(out.unserved, 0);
        assert!(out.net.crash_steps.is_empty());
    }

    #[test]
    fn seeded_runs_are_reproducible_and_seed_sensitive() {
        let cfg = ExploreConfig::small();
        let fingerprint = |seed: u64| {
            let o = run_seed(&cfg, seed);
            (
                o.completed,
                o.unserved,
                o.actions,
                o.net.clone(),
                o.trail.indices(),
                o.violations.clone(),
            )
        };
        assert_eq!(fingerprint(11), fingerprint(11), "same seed ⇒ same episode");
        let distinct: std::collections::BTreeSet<Vec<u32>> =
            (0..16).map(|s| fingerprint(s).4).collect();
        assert!(distinct.len() > 1, "seeds must vary the interleaving");
    }

    #[test]
    fn recorded_trail_replays_the_identical_episode() {
        let cfg = ExploreConfig::small();
        let original = run_seed(&cfg, 1234);
        let replayed = run_trail(&cfg, original.trail.indices(), "seed 1234");
        assert_eq!(replayed.completed, original.completed);
        assert_eq!(replayed.unserved, original.unserved);
        assert_eq!(replayed.actions, original.actions);
        assert_eq!(replayed.net, original.net);
        assert_eq!(replayed.trail.indices(), original.trail.indices());
    }

    #[test]
    fn random_sweep_holds_all_invariants_under_both_mechanisms() {
        for mechanism in [ClusterMechanism::QaNt, ClusterMechanism::Greedy] {
            let cfg = ExploreConfig {
                mechanism,
                ..ExploreConfig::small()
            };
            let report = explore_random(&cfg, 7, 150);
            assert!(
                report.passed(),
                "{mechanism:?}: {:#?}",
                report.failures.first()
            );
            assert_eq!(report.schedules, 150);
            assert!(
                report.crashes > 0,
                "{mechanism:?}: adversary never crashed a node"
            );
            assert!(
                report.dropped_requests + report.dropped_replies > 0,
                "{mechanism:?}: adversary never dropped anything"
            );
        }
    }

    #[test]
    fn systematic_sweep_explores_and_passes() {
        let cfg = ExploreConfig::small();
        let report = explore_systematic(&cfg, 6, 400);
        assert!(report.passed(), "{:#?}", report.failures.first());
        assert!(
            report.schedules >= 100,
            "only {} schedules",
            report.schedules
        );
        assert!(
            !report.crash_points.is_empty(),
            "systematic sweep must cover crash injection points"
        );
    }

    #[test]
    fn injected_double_commit_is_caught() {
        // The checker must detect the deliberately broken node — on the
        // *benign* schedule, so detection cannot depend on adversarial luck.
        let cfg = ExploreConfig {
            inject_double_exec: true,
            ..ExploreConfig::small()
        };
        let out = run_trail(&cfg, vec![], "self-test");
        assert!(
            out.violations
                .iter()
                .any(|v| v.invariant == "double_assignment" || v.invariant == "conservation"),
            "checker missed the double commit: {:?}",
            out.violations
        );
    }

    #[test]
    fn starved_action_budget_reports_termination() {
        let cfg = ExploreConfig {
            max_actions: 3,
            ..ExploreConfig::small()
        };
        let out = run_trail(&cfg, vec![], "starved");
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].invariant, "termination");
    }

    #[test]
    fn schedule_events_flow_through_telemetry() {
        let (telemetry, buffer) = Telemetry::buffered();
        let cfg = ExploreConfig::small();
        let out = run_schedule(
            &cfg,
            Box::new(RandomSchedule::new(99)),
            &telemetry,
            99,
            "random",
        );
        assert!(out.passed(), "{:?}", out.violations);
        let records = buffer.records();
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TelemetryEvent::ScheduleStarted { schedule: 99, mode } if mode == "random")));
        // Every record round-trips through the strict parser.
        for r in &records {
            let line = qa_simnet::json::ToJson::to_json(r).dump();
            qa_simnet::telemetry::TraceRecord::parse_line(&line).unwrap();
        }
    }

    /// A driver bug planted in the transport seam: every re-allocation
    /// re-sends the query's first execution generation instead of the
    /// fresh one.
    struct ReusedGeneration {
        inner: Arc<SimTransport>,
        first: std::sync::Mutex<BTreeMap<u64, u32>>,
    }

    impl Transport for ReusedGeneration {
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn estimate(
            &self,
            node: usize,
            class: ClassId,
            sql: &str,
            reply: ReplyTo,
        ) -> Result<(), crate::ClusterError> {
            self.inner.estimate(node, class, sql, reply)
        }
        fn call_for_offers(
            &self,
            node: usize,
            class: ClassId,
            sql: &str,
            reply: ReplyTo,
        ) -> Result<(), crate::ClusterError> {
            self.inner.call_for_offers(node, class, sql, reply)
        }
        fn execute(
            &self,
            node: usize,
            class: ClassId,
            sql: &str,
            mut reply: ReplyTo,
        ) -> Result<(), crate::ClusterError> {
            let mut first = self.first.lock().unwrap();
            reply.tag.generation = *first.entry(reply.tag.id).or_insert(reply.tag.generation);
            self.inner.execute(node, class, sql, reply)
        }
        fn period_tick(&self, node: usize) -> Result<(), crate::ClusterError> {
            self.inner.period_tick(node)
        }
        fn dump_prices(&self, node: usize, reply: ReplyTo) -> Result<(), crate::ClusterError> {
            self.inner.dump_prices(node, reply)
        }
        fn shutdown_node(&self, node: usize) {
            self.inner.shutdown_node(node)
        }
        fn shutdown(&self) {
            self.inner.shutdown()
        }
    }

    #[test]
    fn reusing_a_generation_on_reallocation_is_caught() {
        // Every schedule one choice away from the benign one: some of
        // them lose an execution's reply and force a re-allocation. The
        // shipped driver passes them all; the mutant trips invariant 2.
        let cfg = ExploreConfig::small();
        let mut caught = 0;
        for at in 0..200 {
            let mut trail = vec![0; at + 1];
            trail[at] = 1;
            let run = |mutant: bool| {
                run_episode(
                    &cfg,
                    Box::new(ReplaySchedule::new(trail.clone(), "one deviation")),
                    &Telemetry::disabled(),
                    at as u64,
                    "replay",
                    |inner| -> Arc<dyn Transport> {
                        if mutant {
                            Arc::new(ReusedGeneration {
                                inner,
                                first: Default::default(),
                            })
                        } else {
                            inner
                        }
                    },
                )
            };
            let shipped = run(false);
            assert!(
                shipped.passed(),
                "deviation at {at}: {:?}",
                shipped.violations
            );
            if run(true)
                .violations
                .iter()
                .any(|v| v.invariant == "double_assignment")
            {
                caught += 1;
            }
        }
        assert!(
            caught > 0,
            "invariant 2 missed a driver that reuses generations"
        );
    }
}
