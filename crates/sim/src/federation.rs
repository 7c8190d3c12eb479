//! The federation event loop.
//!
//! Drives one mechanism over one trace in one scenario. Arrivals trigger
//! the allocation protocol (messages are charged latency and counted, the
//! decision itself is instantaneous at the simulated timescale);
//! assignments occupy the chosen node's FIFO queue; completions free it;
//! period boundaries advance QA-NT's market (end period → price decay →
//! new supply vectors) and decay BNQRD's load reports.
//!
//! A query rejected by every QA-NT server is re-submitted at the start of
//! the next period (§2.2: "If all available servers reject a request for a
//! query, the respective client resubmits it in the next time period").
//!
//! ## Fault injection
//!
//! A [`FaultPlan`] (see [`qa_simnet::fault`]) makes links lossy: any
//! negotiation message may be dropped, links may jitter, and scheduled
//! outage windows can take a link down entirely. Crash schedules
//! ([`Federation::kill_node_at`] / [`Federation::recover_node_at`]) kill
//! and revive nodes mid-run. The negotiation is loss-tolerant: clients
//! work with whatever offers actually arrive, a lost assignment message
//! turns into a next-period resubmission, and the queries a crashed node
//! owned re-enter the next period's demand (§2.2 semantics) instead of
//! silently vanishing — each with a bounded retry budget so nothing
//! livelocks. All fault randomness flows from its own seeded stream, so
//! faulty runs are exactly as reproducible as clean ones, and the
//! disabled plan never draws from it at all (the fault-free path is
//! bit-identical to a build without fault injection).

use crate::metrics::RunMetrics;
use crate::node::NodeSoa;
use crate::scenario::Scenario;
use qa_core::messages::{OFFER_BYTES, REQUEST_BYTES, RESPONSE_BYTES};
use qa_core::{
    BnqrdCoordinator, MarkovAllocator, MechanismKind, RoundRobinState, TwoProbesChooser,
};
use qa_simnet::telemetry::{SpanAccumulator, SpanTimer, Telemetry, TelemetryEvent};
use qa_simnet::{par_for_each_chunk_mut, DetRng, EventQueue, FaultPlan, SimDuration, SimTime};
use qa_workload::{ClassId, NodeId, QueryEvent, Trace};

/// Cap on resubmissions per query (QA-NT rejections, fault losses, and
/// crash re-entries all count); beyond it the query counts as unserved.
/// High enough that in practice only a permanently-unservable query (all
/// capable nodes refusing forever) hits it — dropping queries early would
/// bias the mean-response comparison in QA-NT's favour.
const MAX_RETRIES: u32 = 20_000;

/// Salt separating the fault-injection RNG stream from the mechanism's.
const FAULT_SALT: u64 = 0xFA17_0001;

/// Below this many nodes a period's supply solves are cheaper than the
/// scoped-thread fork–join that would parallelize them, so the period
/// update stays inline.
const INTRA_PAR_MIN_NODES: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Query `idx` (into the trace) asks for allocation. `retries` counts
    /// prior attempts.
    Arrival { idx: usize, retries: u32 },
    /// Query `idx` finished on `node`. `gen` is the assignment generation
    /// at scheduling time: a crash that orphans the query bumps the
    /// generation, turning this into a stale no-op.
    Completion { idx: usize, node: NodeId, gen: u32 },
    /// A period boundary.
    PeriodStart,
    /// Failure injection: node dies.
    Kill { node: NodeId },
    /// Failure injection: node comes back (empty queue, same hardware).
    Recover { node: NodeId },
}

enum MechState {
    /// QA-NT; `None` entries are non-participating nodes that always offer
    /// (the §4 partial-deployment case).
    QaNt {
        nodes: Vec<Option<qa_core::QantNode>>,
        /// Column-major availability mirror, `avail[class * N + node]`:
        /// how many more class-`k` requests node `n` will answer with an
        /// offer this period (`u64::MAX` for non-participating nodes).
        /// Kept in sync by [`sync_avail`] at period boundaries and
        /// decremented alongside `on_accept`, it lets the hot path
        /// resolve the common supply-available case with one contiguous
        /// array read instead of a market call.
        avail: Vec<u64>,
    },
    Greedy {
        /// Stale backlog snapshot (refreshed each period): clients cannot
        /// observe live queues, only periodically collected estimates —
        /// the "old information" effect of the paper's reference [10].
        snapshot: Vec<SimDuration>,
        snapshot_at: SimTime,
    },
    Random,
    RoundRobin {
        per_client: Vec<RoundRobinState>,
    },
    TwoProbes,
    Bnqrd {
        coordinator: BnqrdCoordinator,
    },
    Markov {
        allocator: MarkovAllocator,
    },
}

/// Result of one allocation attempt.
enum Allocation {
    /// Assigned to `node`; finishes at `finish`; assignment latency
    /// `delay`.
    Assigned {
        node: NodeId,
        finish: SimTime,
        delay: SimDuration,
    },
    /// Every server refused (QA-NT): resubmit next period.
    NoOffers,
    /// No capable node is alive: the query can never run.
    Impossible,
}

/// Outcome of one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The mechanism that ran.
    pub mechanism: MechanismKind,
    /// All measurements.
    pub metrics: RunMetrics,
    /// Total busy time summed over nodes (utilization diagnostics).
    pub total_busy: SimDuration,
}

/// The simulator for one (scenario, mechanism) pair.
pub struct Federation<'a> {
    scenario: &'a Scenario,
    mechanism: MechanismKind,
    /// Dynamic per-node state, struct-of-arrays (see [`NodeSoa`]).
    nodes: NodeSoa,
    /// Flattened execution-time matrix, `exec[class * N + node]`
    /// (pre-converted from the scenario's `exec_times_ms`; incapable
    /// pairs hold a zero sentinel and are never read — `allocate` only
    /// looks up capable nodes). One row is exactly the slice the offer
    /// sweep walks.
    exec: Vec<SimDuration>,
    /// Worker budget for the per-period supply solves (see the
    /// `PeriodStart` arm). Defaults to [`qa_simnet::thread_budget`].
    intra_threads: usize,
    /// Owned arrival buffer. Trace arrivals are pre-sorted, so they never
    /// enter the event queue: a cursor drains them in order between
    /// dynamic events. The flat [`Federation::run`] copies the whole
    /// trace in at once; the sharded engine injects one period window at
    /// a time via `push_arrivals`.
    arrivals: Vec<QueryEvent>,
    /// Cursor into `arrivals`: the next not-yet-processed arrival.
    next_arrival: usize,
    /// The dynamic event queue (completions, period boundaries, retries,
    /// failure injections).
    queue: EventQueue<Event>,
    /// Stepped mode only: further `push_arrivals` calls may follow, so
    /// the period chain must stay alive across boundaries even when the
    /// currently-injected arrivals are exhausted. Always `false` in flat
    /// runs — there the full buffer answers the question exactly.
    more_arrivals: bool,
    state: MechState,
    rng: DetRng,
    metrics: RunMetrics,
    /// Per-class request counts of the running period (QA-NT demand caps).
    period_demand: Vec<u64>,
    /// Which node each query ended up on (for failure bookkeeping).
    owners: Vec<Option<NodeId>>,
    /// Whether each query completed.
    done: Vec<bool>,
    /// Allocation attempts already spent per query (crash re-entry resumes
    /// from here).
    attempts: Vec<u32>,
    /// Assignment generation per query; bumped when a crash orphans the
    /// query so the stale completion event is ignored.
    assign_gen: Vec<u32>,
    /// Failure injections to schedule.
    kills: Vec<(SimTime, NodeId)>,
    /// Recovery injections to schedule.
    recoveries: Vec<(SimTime, NodeId)>,
    /// Link-fault schedule (disabled by default).
    faults: FaultPlan,
    /// Dedicated stream for fault draws; never touched while `faults` is
    /// the disabled plan, keeping fault-free runs bit-identical.
    fault_rng: DetRng,
    /// Structured event sink; disabled by default (one branch per emit
    /// site). The run loop stamps sim-time on its shared clock, so trace
    /// timestamps are exactly as deterministic as the simulation itself.
    /// Only its event plane ([`Telemetry::records_events`]) switches the
    /// run onto the eager per-rejection paths; a metrics-only handle
    /// keeps every fast path.
    telemetry: Telemetry,
    /// `span.federation.period_update_us`, resolved at construction.
    period_span: SpanTimer,
    /// `span.federation.allocate_us`: timed into an engine-owned
    /// accumulator (about a million calls per run) and flushed into the
    /// registry at every period boundary and in `finish`.
    allocate_span: SpanAccumulator,
    /// Scratch buffers reused across `allocate` calls so the per-query hot
    /// path stops allocating once they reach steady-state capacity.
    scratch_capable: Vec<NodeId>,
    scratch_reachable: Vec<NodeId>,
    /// QA-NT refusal memo, one flag per class: set when a request saw a
    /// full refusal this period under stable conditions (no faults, no
    /// dead nodes, event plane off). Prices are non-decreasing and supply
    /// non-increasing within a period, so a fully-refused class stays
    /// fully refused until the next period boundary — later requests
    /// short-circuit to `NoOffers` and only count a deferred rejection.
    /// Cleared at every period start and on any kill/recover event.
    refused_classes: Vec<bool>,
    /// Refusals owed to the market while the memo short-circuits, per
    /// class; flushed into every capable node's pricer (bit-identical
    /// stepwise price rises) before the period-end price update.
    deferred_rejections: Vec<u64>,
    /// Pure-market rejection deferral (set once per run): with no §5.1
    /// threshold, event plane off and no fault schedule, a within-period
    /// price rise is unobservable — `on_request` answers from supply
    /// alone — so per-poll rejections can be counted here and replayed
    /// stepwise at the period boundary instead of calling into the
    /// market per poll. Same multiplication sequence, same final prices.
    defer_rejections: bool,
    /// Deferred per-poll rejection counts, `class-major [class × node]`,
    /// drained by `flush_deferred_rejections`.
    deferred_node_rejections: Vec<u64>,
    /// Per-class flag: some entry of the class' `deferred_node_rejections`
    /// row is non-zero. Lets the flush skip untouched rows without
    /// scanning the (classes × nodes) matrix every period.
    deferred_dirty: Vec<bool>,
}

impl<'a> Federation<'a> {
    /// Builds a run. The trace is needed at build time for sizing and, for
    /// the Markov allocator, its static per-class rates.
    pub fn new(scenario: &'a Scenario, mechanism: MechanismKind, trace: &Trace) -> Federation<'a> {
        Federation::with_telemetry(scenario, mechanism, trace, Telemetry::disabled())
    }

    /// [`Federation::new`] with a telemetry handle. Must be used (rather
    /// than installing a sink later) to capture the market's t=0 supply
    /// solves: QA-NT nodes begin their first period during construction.
    pub fn with_telemetry(
        scenario: &'a Scenario,
        mechanism: MechanismKind,
        trace: &Trace,
        telemetry: Telemetry,
    ) -> Federation<'a> {
        let cfg = &scenario.config;
        let nodes = NodeSoa::new(cfg.num_nodes);
        let k = scenario.templates.num_classes();
        let mut exec = vec![SimDuration::ZERO; k * cfg.num_nodes];
        for (n, row) in scenario.exec_times_ms.iter().enumerate() {
            for (c, t) in row.iter().enumerate() {
                if let Some(ms) = t {
                    exec[c * cfg.num_nodes + n] = SimDuration::from_millis_f64(*ms);
                }
            }
        }
        let state = match mechanism {
            MechanismKind::QaNt => {
                let mut price_rng = DetRng::seed_from_u64(cfg.seed).derive("qant-prices");
                let spans = qa_core::QantSpans::resolve(&telemetry);
                MechState::QaNt {
                    nodes: (0..cfg.num_nodes)
                        .map(|i| {
                            let mut n = qa_core::QantNode::with_jitter(k, cfg.qant, &mut price_rng);
                            n.set_telemetry_with_spans(telemetry.with_label(i as u32), &spans);
                            n.begin_period(&scenario.exec_times_ms[i], None);
                            Some(n)
                        })
                        .collect(),
                    avail: vec![0; k * cfg.num_nodes],
                }
            }
            MechanismKind::Greedy => MechState::Greedy {
                snapshot: vec![SimDuration::ZERO; cfg.num_nodes],
                snapshot_at: SimTime::ZERO,
            },
            MechanismKind::Random => MechState::Random,
            MechanismKind::RoundRobin => MechState::RoundRobin {
                per_client: (0..cfg.num_nodes).map(|_| RoundRobinState::new()).collect(),
            },
            MechanismKind::TwoProbes => MechState::TwoProbes,
            MechanismKind::Bnqrd => MechState::Bnqrd {
                coordinator: BnqrdCoordinator::new(cfg.num_nodes),
            },
            MechanismKind::Markov => {
                let horizon_s = trace.horizon().as_secs_f64().max(1e-9);
                let rates: Vec<f64> = (0..k)
                    .map(|c| trace.count_class(ClassId(c as u32)) as f64 / horizon_s)
                    .collect();
                MechState::Markov {
                    allocator: MarkovAllocator::build(&rates, &scenario.exec_times_ms, 100),
                }
            }
        };
        Federation {
            scenario,
            mechanism,
            nodes,
            exec,
            intra_threads: qa_simnet::thread_budget(),
            arrivals: Vec::new(),
            next_arrival: 0,
            queue: EventQueue::new(),
            more_arrivals: false,
            state,
            rng: DetRng::seed_from_u64(cfg.seed ^ mechanism_salt(mechanism)),
            metrics: RunMetrics::new(cfg.period, k),
            period_demand: vec![0; k],
            owners: vec![None; trace.len()],
            done: vec![false; trace.len()],
            attempts: vec![0; trace.len()],
            assign_gen: vec![0; trace.len()],
            kills: Vec::new(),
            recoveries: Vec::new(),
            faults: FaultPlan::none(),
            fault_rng: DetRng::seed_from_u64(cfg.seed ^ mechanism_salt(mechanism) ^ FAULT_SALT),
            period_span: telemetry.span_timer("federation.period_update"),
            allocate_span: SpanAccumulator::new(&telemetry, "federation.allocate"),
            telemetry,
            scratch_capable: Vec::new(),
            scratch_reachable: Vec::new(),
            refused_classes: vec![false; k],
            deferred_rejections: vec![0; k],
            defer_rejections: false,
            deferred_node_rejections: vec![0; k * cfg.num_nodes],
            deferred_dirty: vec![false; k],
        }
    }

    /// Schedules a node failure at `at` (failure-injection experiments).
    /// The node's queued work is lost; every query it owned re-enters the
    /// next period's demand (§2.2) with its retry budget decremented.
    pub fn kill_node_at(&mut self, node: NodeId, at: SimTime) {
        self.kills.push((at, node));
    }

    /// Schedules a node recovery at `at`: the node rejoins with an empty
    /// queue and resumes offering (its market re-arms at the next period
    /// boundary).
    pub fn recover_node_at(&mut self, node: NodeId, at: SimTime) {
        self.recoveries.push((at, node));
    }

    /// Installs a link-fault schedule. The default is [`FaultPlan::none`],
    /// which is a strict zero-cost path: no fault RNG draw is ever made
    /// and the run is bit-identical to one without fault injection.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Reseeds the fault stream independently of the scenario seed, so the
    /// same world can be replayed under different loss realizations.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_rng = DetRng::seed_from_u64(seed ^ FAULT_SALT);
    }

    /// Converts a QA-NT run into a *partial deployment*: only nodes for
    /// which `participates` returns `true` run the market; the rest always
    /// offer (§4: QA-NT "can even work without problems in cases where
    /// only a subset of the nodes is using QA-NT").
    ///
    /// # Panics
    /// Panics when the mechanism is not QA-NT.
    pub fn restrict_market_to<F: Fn(NodeId) -> bool>(&mut self, participates: F) {
        match &mut self.state {
            MechState::QaNt { nodes, avail } => {
                for (i, slot) in nodes.iter_mut().enumerate() {
                    if !participates(NodeId(i as u32)) {
                        *slot = None;
                    }
                }
                sync_avail(nodes, avail);
            }
            _ => panic!("partial deployment applies to QA-NT only"),
        }
    }

    /// Overrides the worker budget for the per-period supply solves
    /// (default: [`qa_simnet::thread_budget`]). The output is identical at
    /// any budget — the solves are independent per node — so this only
    /// matters for oversubscription control and determinism tests.
    pub fn set_intra_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "thread budget must be at least 1");
        self.intra_threads = threads;
    }

    /// Runs the trace to completion and returns the measurements.
    pub fn run(mut self, trace: &Trace) -> RunOutcome {
        self.push_arrivals(trace.events());
        self.begin_run();
        while self.process_next() {}
        self.finish()
    }

    /// Appends arrivals to the run's input buffer (time-ordered within
    /// and across calls) and grows the per-query bookkeeping to match.
    /// The flat [`Federation::run`] injects the whole trace at once; the
    /// sharded engine injects one period window at a time.
    ///
    /// # Panics
    /// Panics when the new arrivals start before already-buffered ones.
    pub(crate) fn push_arrivals(&mut self, events: &[QueryEvent]) {
        if let (Some(last), Some(first)) = (self.arrivals.last(), events.first()) {
            assert!(
                last.at <= first.at,
                "arrivals must be injected in time order"
            );
        }
        debug_assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        self.arrivals.extend_from_slice(events);
        let n = self.arrivals.len();
        self.owners.resize(n, None);
        self.done.resize(n, false);
        self.attempts.resize(n, 0);
        self.assign_gen.resize(n, 0);
    }

    /// Stepped mode: marks whether further [`Federation::push_arrivals`]
    /// calls may follow. While set, the period chain stays alive across
    /// boundaries even when the currently-injected arrivals are
    /// exhausted — exactly the condition the flat run reads off its full
    /// arrival buffer.
    pub(crate) fn set_more_arrivals(&mut self, more: bool) {
        self.more_arrivals = more;
    }

    /// Starts a run: fixes the rejection-deferral mode, seeds the event
    /// queue with the failure schedule and the first period boundary.
    pub(crate) fn begin_run(&mut self) {
        let cfg_period = self.scenario.config.period;
        // Fixed for the whole run: fault schedules and kill/recover
        // events are installed before `run`, and the telemetry handle at
        // construction.
        self.defer_rejections = self.kills.is_empty()
            && self.recoveries.is_empty()
            && self.faults.is_none()
            && self.scenario.config.qant.price_threshold.is_none()
            && !self.telemetry.records_events();
        if let MechState::QaNt { nodes, avail } = &mut self.state {
            sync_avail(nodes, avail);
        }
        for &(at, node) in &self.kills {
            self.queue.schedule(at, Event::Kill { node });
        }
        for &(at, node) in &self.recoveries {
            self.queue.schedule(at, Event::Recover { node });
        }
        // Periods matter for QA-NT (market), BNQRD (report decay) and
        // Greedy (stale load snapshots).
        if matches!(
            self.state,
            MechState::QaNt { .. } | MechState::Bnqrd { .. } | MechState::Greedy { .. }
        ) {
            self.queue
                .schedule(SimTime::ZERO + cfg_period, Event::PeriodStart);
        }
    }

    /// Earliest pending event time — the arrival cursor head or the queue
    /// head, whichever the run loop would take next.
    pub(crate) fn peek_next_time(&self) -> Option<SimTime> {
        let arrival = self.arrivals.get(self.next_arrival).map(|e| e.at);
        match (arrival, self.queue.peek_time()) {
            (Some(a), Some(q)) => Some(a.min(q)),
            (a, q) => a.or(q),
        }
    }

    /// Processes every pending event with `time <= until`, in exactly the
    /// order the flat run processes them (the arrival cursor wins ties,
    /// then queue key order). The caller must have injected all arrivals
    /// belonging to the window first; `until` is normally a period
    /// boundary, so the `PeriodStart` at exactly `until` is processed
    /// before returning.
    pub(crate) fn step_through(&mut self, until: SimTime) {
        while self.peek_next_time().is_some_and(|t| t <= until) {
            self.process_next();
        }
    }

    /// Processes everything that is left (stepped mode epilogue: retries
    /// and completions past the last injected window).
    pub(crate) fn drain(&mut self) {
        while self.process_next() {}
    }

    /// Ends the run: pays the final partial period's deferred refusals
    /// and returns the measurements.
    pub(crate) fn finish(mut self) -> RunOutcome {
        // The final (partial) period never reaches another boundary; pay
        // its deferred refusals so post-run market state matches an eager
        // run.
        self.flush_deferred_rejections();
        self.allocate_span.flush();
        RunOutcome {
            mechanism: self.mechanism,
            metrics: self.metrics,
            total_busy: self.nodes.total_busy(),
        }
    }

    /// Processes the single next event — the arrival cursor head or the
    /// queue head. Returns `false` when nothing is pending.
    ///
    /// Because arrivals used to be scheduled first (lowest sequence
    /// numbers), an arrival always preceded any same-time dynamic
    /// event — the cursor rule `arrival.at <= peek_time` reproduces
    /// that order exactly.
    fn process_next(&mut self) -> bool {
        let cfg_period = self.scenario.config.period;
        if self.next_arrival < self.arrivals.len()
            && self
                .queue
                .peek_time()
                .is_none_or(|t| self.arrivals[self.next_arrival].at <= t)
        {
            let idx = self.next_arrival;
            self.next_arrival += 1;
            let now = self.arrivals[idx].at;
            self.telemetry.set_now_us(now.as_micros());
            self.handle_arrival(now, idx, 0, cfg_period);
            return true;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        let now = ev.time;
        self.telemetry.set_now_us(now.as_micros());
        match ev.payload {
            Event::Arrival { idx, retries } => {
                self.handle_arrival(now, idx, retries, cfg_period);
            }
            Event::Completion { idx, node, gen } => {
                // Stale completion: the query was orphaned by a crash
                // (generation bumped) or already finished elsewhere.
                if self.done[idx] || gen != self.assign_gen[idx] {
                    return true;
                }
                self.nodes.complete(node.index());
                self.done[idx] = true;
                let q = self.arrivals[idx];
                self.metrics
                    .record_completion_from(q.class, q.origin, q.at, now);
                self.telemetry.emit(|| TelemetryEvent::QueryCompleted {
                    query: idx as u64,
                    class: q.class.0,
                    node: node.0,
                    response_ms: now.saturating_since(q.at).as_millis_f64(),
                });
                if let MechState::Bnqrd { coordinator } = &mut self.state {
                    let ref_cost = self
                        .scenario
                        .templates
                        .get(q.class)
                        .base_cost
                        .as_millis_f64();
                    coordinator.report_completion(node, ref_cost);
                }
            }
            Event::PeriodStart => {
                self.telemetry.emit(|| TelemetryEvent::PeriodStarted {
                    index: now.period_index(cfg_period),
                });
                let _span = self.period_span.start();
                self.allocate_span.flush();
                // Deferred refusals belong to the closing period:
                // charge them before its price update, then re-arm
                // the memo for the fresh supply.
                self.flush_deferred_rejections();
                self.refused_classes.fill(false);
                match &mut self.state {
                    MechState::QaNt { nodes, avail } => {
                        // Sellers have no reason to reserve more supply
                        // for a class than anyone asked for last period
                        // (with headroom for growth): the caps steer
                        // leftover capacity to classes with live demand.
                        let caps = qa_economics::QuantityVector::from_counts(
                            self.period_demand
                                .iter()
                                .map(|&d| d.saturating_mul(2).max(2))
                                .collect(),
                        );
                        let period_ms = cfg_period.as_millis_f64();
                        // Work-conserving budget. In the §5.1 threshold
                        // mode it is floored at T/2 so a node that
                        // queued work while the bypass was active does
                        // not reject everything while draining; in pure
                        // market mode backlog never exceeds ~2T and the
                        // floor must not oversell. Dead nodes get no
                        // budget: they end their period and go quiet.
                        let floor = if self.scenario.config.qant.price_threshold.is_some() {
                            0.5 * period_ms
                        } else {
                            0.0
                        };
                        let soa = &self.nodes;
                        let budgets: Vec<Option<f64>> = (0..nodes.len())
                            .map(|i| {
                                soa.alive(i).then(|| {
                                    let backlog = soa.backlog(i, now).as_millis_f64();
                                    (2.0 * period_ms - backlog).clamp(floor, 2.0 * period_ms)
                                })
                            })
                            .collect();
                        // The eq.-4 solves are independent per node, so
                        // they fan over scoped workers; results are
                        // identical at any thread count — the split
                        // only decides which worker solves which node.
                        // Event emission order is part of the
                        // byte-deterministic contract, so the parallel
                        // path only engages when the event plane is off.
                        let threads = if self.telemetry.records_events()
                            || nodes.len() < INTRA_PAR_MIN_NODES
                        {
                            1
                        } else {
                            self.intra_threads
                        };
                        let exec_times = &self.scenario.exec_times_ms;
                        par_for_each_chunk_mut(threads, nodes, |offset, chunk| {
                            for (j, slot) in chunk.iter_mut().enumerate() {
                                let Some(n) = slot else { continue };
                                n.end_period();
                                if let Some(budget) = budgets[offset + j] {
                                    n.begin_period_with_budget(
                                        &exec_times[offset + j],
                                        Some(&caps),
                                        budget,
                                    );
                                }
                            }
                        });
                        sync_avail(nodes, avail);
                        self.period_demand.iter_mut().for_each(|d| *d = 0);
                    }
                    MechState::Bnqrd { coordinator } => coordinator.tick(0.9),
                    MechState::Greedy {
                        snapshot,
                        snapshot_at,
                    } => {
                        for (i, s) in snapshot.iter_mut().enumerate() {
                            *s = self.nodes.backlog(i, now);
                        }
                        *snapshot_at = now;
                    }
                    _ => {}
                }
                if !self.queue.is_empty()
                    || self.next_arrival < self.arrivals.len()
                    || self.more_arrivals
                {
                    self.queue.schedule(now + cfg_period, Event::PeriodStart);
                }
            }
            Event::Kill { node } => {
                // Membership changed: the refusal memo's "conditions
                // cannot improve" argument no longer holds.
                self.refused_classes.fill(false);
                self.nodes.kill(node.index());
                self.telemetry
                    .emit(|| TelemetryEvent::NodeCrashed { node: node.0 });
                // §2.2 semantics for crash victims: whatever the dead
                // node owned re-enters the next period's demand vector
                // as a fresh arrival, rather than silently vanishing.
                let orphans: Vec<usize> = self
                    .owners
                    .iter()
                    .enumerate()
                    .filter(|(q, owner)| **owner == Some(node) && !self.done[*q])
                    .map(|(q, _)| q)
                    .collect();
                for q in orphans {
                    self.assign_gen[q] = self.assign_gen[q].wrapping_add(1);
                    self.owners[q] = None;
                    let tried = self.attempts[q];
                    if tried >= MAX_RETRIES {
                        self.metrics.unserved += 1;
                        self.telemetry.emit(|| TelemetryEvent::QueryUnserved {
                            query: q as u64,
                            class: self.arrivals[q].class.0,
                            retries: tried,
                        });
                    } else {
                        self.metrics.retries += 1;
                        let next = SimTime::from_micros(
                            (now.period_index(cfg_period) + 1) * cfg_period.as_micros(),
                        ) + SimDuration::from_micros(1);
                        self.queue.schedule(
                            next,
                            Event::Arrival {
                                idx: q,
                                retries: tried + 1,
                            },
                        );
                    }
                }
            }
            Event::Recover { node } => {
                self.refused_classes.fill(false);
                self.nodes.revive(node.index(), now);
                self.telemetry
                    .emit(|| TelemetryEvent::NodeRecovered { node: node.0 });
            }
        }
        true
    }

    /// Processes the arrival (or resubmission) of query `idx` at `now`:
    /// one allocation attempt, then completion scheduling, next-period
    /// resubmission, or an unserved verdict.
    fn handle_arrival(&mut self, now: SimTime, idx: usize, retries: u32, cfg_period: SimDuration) {
        self.attempts[idx] = retries;
        let q = self.arrivals[idx];
        match self.allocate(now, q.class, q.origin, idx) {
            Allocation::Assigned {
                node,
                finish,
                delay,
            } => {
                self.metrics.assign_latency.add(delay.as_millis_f64());
                self.telemetry.emit(|| TelemetryEvent::QueryAssigned {
                    query: idx as u64,
                    class: q.class.0,
                    node: node.0,
                    retries,
                });
                let gen = self.assign_gen[idx];
                self.queue
                    .schedule(finish, Event::Completion { idx, node, gen });
            }
            Allocation::NoOffers => {
                if retries >= MAX_RETRIES {
                    self.metrics.unserved += 1;
                    self.telemetry.emit(|| TelemetryEvent::QueryUnserved {
                        query: idx as u64,
                        class: q.class.0,
                        retries,
                    });
                } else {
                    self.metrics.retries += 1;
                    let next = SimTime::from_micros(
                        (now.period_index(cfg_period) + 1) * cfg_period.as_micros(),
                    ) + SimDuration::from_micros(1);
                    self.queue.schedule(
                        next,
                        Event::Arrival {
                            idx,
                            retries: retries + 1,
                        },
                    );
                }
            }
            Allocation::Impossible => {
                self.metrics.unserved += 1;
                self.telemetry.emit(|| TelemetryEvent::QueryUnserved {
                    query: idx as u64,
                    class: q.class.0,
                    retries,
                });
            }
        }
    }

    /// Pays the refusals the memo short-circuited into every capable
    /// node's pricer. Must run before any period-end price update (the
    /// deferred rises belong to the closing period) and after the run
    /// loop exits (so post-run market state matches an eager run).
    fn flush_deferred_rejections(&mut self) {
        if let MechState::QaNt { nodes, .. } = &mut self.state {
            let n_total = self.nodes.len();
            for (k, class_d) in self.deferred_rejections.iter_mut().enumerate() {
                let dirty = std::mem::replace(&mut self.deferred_dirty[k], false);
                if *class_d == 0 && !dirty {
                    continue;
                }
                let row = &mut self.deferred_node_rejections[k * n_total..(k + 1) * n_total];
                // Fold the full-refusal memo's class-level count into the
                // per-node row: every capable node refused each of those
                // requests. The raises are identical ×(1+λ) steps, so
                // replay order across the two ledgers is immaterial —
                // only the per-(node, class) totals reach the price.
                if *class_d > 0 {
                    for &n in &self.scenario.capable[k] {
                        row[n.index()] += *class_d;
                    }
                    *class_d = 0;
                }
                qa_core::QantNode::apply_rejections_batch(nodes, ClassId(k as u32), row);
                row.fill(0);
            }
        }
    }

    /// Per-class market signals for the sharded router, written into
    /// `supply[k]` / `ln_price[k]` (both sized to the class count):
    /// remaining supply units summed over this federation's capable
    /// nodes, and the mean log price over the same nodes (the log of the
    /// geometric-mean price — the aggregate each shard reports upward in
    /// the WALRAS-style decomposition). Reads only: calling this never
    /// perturbs the market.
    ///
    /// # Panics
    /// Panics for non-QA-NT mechanisms.
    pub(crate) fn qant_signals_into(&self, supply: &mut [u64], ln_price: &mut [f64]) {
        let MechState::QaNt { nodes, avail } = &self.state else {
            panic!("market signals apply to QA-NT only");
        };
        let n_total = self.nodes.len();
        let k_count = supply.len();
        for (k, s) in supply.iter_mut().enumerate() {
            let mut units: u64 = 0;
            for &node in &self.scenario.capable[k] {
                let a = avail[k * n_total + node.index()];
                if a != u64::MAX {
                    units = units.saturating_add(a);
                }
            }
            *s = units;
        }
        let mut sums = vec![0.0; k_count];
        let mut counts = vec![0u32; k_count];
        let mut node_lnp = vec![0.0; k_count];
        for (i, slot) in nodes.iter().enumerate() {
            let Some(market) = slot else { continue };
            market.ln_prices_into(&mut node_lnp);
            for (k, &lnp) in node_lnp.iter().enumerate() {
                if self.scenario.exec_times_ms[i][k].is_some() {
                    sums[k] += lnp;
                    counts[k] += 1;
                }
            }
        }
        for (k, lnp) in ln_price.iter_mut().enumerate() {
            *lnp = if counts[k] > 0 {
                sums[k] / counts[k] as f64
            } else {
                0.0
            };
        }
    }

    /// Runs the allocation protocol for one query at `now`, timed into
    /// `span.federation.allocate_us`.
    fn allocate(&mut self, now: SimTime, class: ClassId, origin: NodeId, idx: usize) -> Allocation {
        let started = self.allocate_span.start();
        let allocation = self.negotiate(now, class, origin, idx);
        self.allocate_span.stop(started);
        allocation
    }

    /// The untimed body of [`Federation::allocate`].
    fn negotiate(
        &mut self,
        now: SimTime,
        class: ClassId,
        origin: NodeId,
        idx: usize,
    ) -> Allocation {
        // Refusal memo hit: this class was fully refused earlier this
        // period under conditions that cannot improve before the next
        // boundary. Charge the same messages and defer the per-node price
        // rises (see `flush_deferred_rejections`).
        if self.refused_classes[class.index()] {
            self.period_demand[class.index()] += 1;
            self.deferred_rejections[class.index()] += 1;
            self.metrics.messages += self.scenario.capable[class.index()].len() as u64;
            return Allocation::NoOffers;
        }
        let scenario = self.scenario;
        let link = scenario.config.link;
        // Fault injection: the polling mechanisms (QA-NT, Greedy,
        // two-probes) exchange a request/reply pair with every candidate;
        // either direction can be lost, removing that candidate from this
        // attempt. The client collects whatever actually arrives — it
        // never blocks on the full candidate set. `faults_on` gates every
        // draw so the disabled plan stays bit-identical to no-fault runs.
        let faults_on = !self.faults.is_none();
        // Common case — no link faults, no dead nodes: the scenario's
        // static capable list *is* both the capable and the reachable set,
        // so neither scratch copy is needed.
        let (capable, reachable): (&[NodeId], &[NodeId]) = if !faults_on && self.nodes.all_alive() {
            let c = scenario.capable[class.index()].as_slice();
            if c.is_empty() {
                return Allocation::Impossible;
            }
            (c, c)
        } else {
            self.scratch_capable.clear();
            let alive = self.nodes.alive_slice();
            self.scratch_capable.extend(
                scenario.capable[class.index()]
                    .iter()
                    .copied()
                    .filter(|n| alive[n.index()]),
            );
            if self.scratch_capable.is_empty() {
                return Allocation::Impossible;
            }
            let polls = matches!(
                self.state,
                MechState::QaNt { .. } | MechState::Greedy { .. } | MechState::TwoProbes
            );
            self.scratch_reachable.clear();
            if faults_on && polls {
                for &n in &self.scratch_capable {
                    let request_ok = self.faults.delivers(n.index(), now, &mut self.fault_rng);
                    let reply_ok = self.faults.delivers(n.index(), now, &mut self.fault_rng);
                    if request_ok && reply_ok {
                        self.scratch_reachable.push(n);
                    } else {
                        self.metrics.lost_messages += 1;
                        self.telemetry.emit(|| TelemetryEvent::MessageDropped {
                            node: n.0,
                            context: "poll".to_string(),
                        });
                    }
                }
            } else {
                let capable = &self.scratch_capable;
                self.scratch_reachable.extend_from_slice(capable);
            }
            (&self.scratch_capable, &self.scratch_reachable)
        };

        let n_total = self.nodes.len();
        let exec_row = &self.exec[class.index() * n_total..(class.index() + 1) * n_total];
        let exec_of = move |n: NodeId| exec_row[n.index()];

        let rtt = link.transfer_time(REQUEST_BYTES)
            + link.transfer_time(OFFER_BYTES)
            + link.transfer_time(RESPONSE_BYTES);
        let one_way = link.transfer_time(REQUEST_BYTES);

        let (choice, mut delay) = match &mut self.state {
            MechState::QaNt { nodes, avail } => {
                self.period_demand[class.index()] += 1;
                let avail_row = &mut avail[class.index() * n_total..(class.index() + 1) * n_total];
                let soa = &self.nodes;
                // Single fused sweep: collect offers and pick the winner
                // in one pass. The winner is the first minimum under
                // `(estimated_completion, server)` — exactly what
                // `qa_core::client::choose_best_offer` computes over a
                // materialized offer list, without building the list.
                let mut offers: u64 = 0;
                let mut best: Option<(SimDuration, NodeId)> = None;
                // Fast path inside either loop: the availability mirror
                // says the node still has supply, so `on_request` would
                // return `true` without touching market state or
                // telemetry — skip the call. Non-participating nodes sit
                // at `u64::MAX` and always take this path (§4).
                if self.defer_rejections {
                    // Pure-market deferral: an exhausted node's refusal
                    // is just a counter bump (the price rise is replayed
                    // at the boundary), so the sweep never touches market
                    // state — it reads three flat rows.
                    let deferred = &mut self.deferred_node_rejections
                        [class.index() * n_total..(class.index() + 1) * n_total];
                    let backlog = soa.backlog_until_slice();
                    if reachable.len() == n_total {
                        // Every node is a candidate: sweep the full rows
                        // in lockstep (capable lists are ascending, so a
                        // full-length list is exactly 0..N) — no index
                        // gather, no bounds checks.
                        for (i, ((&a, d), (&b, &exec))) in avail_row
                            .iter()
                            .zip(deferred.iter_mut())
                            .zip(backlog.iter().zip(exec_row.iter()))
                            .enumerate()
                        {
                            if a > 0 {
                                offers += 1;
                                let est = b.saturating_since(now) + exec;
                                let n = NodeId(i as u32);
                                if best.is_none_or(|x| (est, n) < x) {
                                    best = Some((est, n));
                                }
                            } else {
                                *d += 1;
                            }
                        }
                    } else {
                        for &n in reachable {
                            if avail_row[n.index()] > 0 {
                                offers += 1;
                                let est =
                                    backlog[n.index()].saturating_since(now) + exec_row[n.index()];
                                if best.is_none_or(|b| (est, n) < b) {
                                    best = Some((est, n));
                                }
                            } else {
                                deferred[n.index()] += 1;
                            }
                        }
                    }
                    if (offers as usize) < reachable.len() {
                        self.deferred_dirty[class.index()] = true;
                    }
                } else if reachable.len() == n_total {
                    // Eager market round-trips (event plane, §5.1
                    // threshold or faults active), full candidate set.
                    let backlog = soa.backlog_until_slice();
                    for (i, ((market, &a), (&b, &exec))) in nodes
                        .iter_mut()
                        .zip(avail_row.iter())
                        .zip(backlog.iter().zip(exec_row.iter()))
                        .enumerate()
                    {
                        let offered = a > 0
                            || match market {
                                Some(market) => market.on_request(class),
                                None => true,
                            };
                        if offered {
                            offers += 1;
                            let est = b.saturating_since(now) + exec;
                            let n = NodeId(i as u32);
                            if best.is_none_or(|x| (est, n) < x) {
                                best = Some((est, n));
                            }
                        }
                    }
                } else {
                    for &n in reachable {
                        let offered = avail_row[n.index()] > 0
                            || match &mut nodes[n.index()] {
                                Some(market) => market.on_request(class),
                                None => true,
                            };
                        if offered {
                            offers += 1;
                            let est = soa.estimated_completion(n.index(), now, exec_of(n));
                            if best.is_none_or(|b| (est, n) < b) {
                                best = Some((est, n));
                            }
                        }
                    }
                }
                // One call-for-offers per capable node (unreachable ones
                // were still sent, they just never produced an offer),
                // one offer back per offering node, then the accept plus
                // the declines.
                self.metrics.messages += capable.len() as u64 + 2 * offers;
                match best {
                    None => {
                        // Full refusal. Under stable conditions the
                        // outcome is locked in for the rest of the
                        // period: supply only falls, prices only rise
                        // (so every node's threshold bypass stays off),
                        // and the reachable set cannot change without a
                        // kill/recover event (which clears the memo).
                        // The event plane must be off — the eager path
                        // emits per-request rejection events.
                        if !faults_on && self.nodes.all_alive() && !self.telemetry.records_events()
                        {
                            self.refused_classes[class.index()] = true;
                        }
                        return Allocation::NoOffers;
                    }
                    Some((_, server)) => {
                        if let Some(market) = &mut nodes[server.index()] {
                            market.on_accept(class);
                            let a = &mut avail_row[server.index()];
                            *a = a.saturating_sub(1);
                        }
                        (server, rtt)
                    }
                }
            }
            MechState::Greedy {
                snapshot,
                snapshot_at,
            } => {
                // §4: "immediately assign queries to server nodes that can
                // evaluate them in the least time. A small amount of
                // randomization may also be used." The client combines
                // EXPLAIN-style execution estimates with *stale* load
                // information — queue lengths as of the last collection
                // period, discounted for elapsed time — because live queues
                // of other clients' work are unobservable (the "old
                // information" herding effect of the paper's ref. [10]).
                // Assignment is unilateral: the §4 autonomy violation.
                self.metrics.messages += 2 * capable.len() as u64 + 1;
                let _ = (snapshot, snapshot_at);
                let err = self.scenario.config.greedy_estimate_error;
                let mut best: Option<(SimDuration, NodeId)> = None;
                // Only nodes whose estimate round-trip survived the link
                // are candidates this attempt.
                if reachable.len() == n_total {
                    // Full candidate set: lockstep row sweep, same as the
                    // QA-NT arm (ascending capable list of full length is
                    // exactly 0..N).
                    let backlog = self.nodes.backlog_until_slice();
                    for (i, (&b, &exec)) in backlog.iter().zip(exec_row.iter()).enumerate() {
                        let raw = b.saturating_since(now) + exec;
                        let noisy = if err > 0.0 {
                            raw * (1.0 + self.rng.float_in(-err, err))
                        } else {
                            raw
                        };
                        let n = NodeId(i as u32);
                        if best.is_none() || (noisy, n) < best.unwrap() {
                            best = Some((noisy, n));
                        }
                    }
                } else {
                    for &n in reachable {
                        let raw = self.nodes.estimated_completion(n.index(), now, exec_of(n));
                        let noisy = if err > 0.0 {
                            raw * (1.0 + self.rng.float_in(-err, err))
                        } else {
                            raw
                        };
                        if best.is_none() || (noisy, n) < best.unwrap() {
                            best = Some((noisy, n));
                        }
                    }
                }
                match best {
                    Some((_, n)) => (n, rtt),
                    // Every estimate lost: the client learned nothing and
                    // tries again next period.
                    None => return Allocation::NoOffers,
                }
            }
            MechState::Random => {
                self.metrics.messages += 1;
                (
                    qa_core::client::choose_random(&mut self.rng, capable),
                    one_way,
                )
            }
            MechState::RoundRobin { per_client } => {
                self.metrics.messages += 1;
                (per_client[origin.index()].choose(capable), one_way)
            }
            MechState::TwoProbes => {
                self.metrics.messages += 5;
                if reachable.is_empty() {
                    return Allocation::NoOffers;
                }
                let soa = &self.nodes;
                let pick = TwoProbesChooser::choose(&mut self.rng, reachable, |n| {
                    soa.backlog(n.index(), now).as_millis_f64()
                });
                (pick, rtt)
            }
            MechState::Bnqrd { coordinator } => {
                self.metrics.messages += 3;
                let ref_cost = self.scenario.templates.get(class).base_cost.as_millis_f64();
                (coordinator.assign(capable, ref_cost), rtt)
            }
            MechState::Markov { allocator } => {
                self.metrics.messages += 1;
                // The static distribution may name a dead node; fall back
                // to a random capable one.
                let pick = allocator.choose(class, &mut self.rng);
                let pick = if self.nodes.alive(pick.index()) && capable.contains(&pick) {
                    pick
                } else {
                    qa_core::client::choose_random(&mut self.rng, capable)
                };
                (pick, one_way)
            }
        };

        if faults_on {
            // The final assignment message can be lost too. The client
            // times out and resubmits next period; for QA-NT the accepted
            // supply stays committed on the server — the price a market of
            // autonomous nodes pays for an unreliable network.
            if !self
                .faults
                .delivers(choice.index(), now, &mut self.fault_rng)
            {
                self.metrics.lost_messages += 1;
                self.telemetry.emit(|| TelemetryEvent::MessageDropped {
                    node: choice.0,
                    context: "assign".to_string(),
                });
                return Allocation::NoOffers;
            }
            delay += self
                .faults
                .sample_jitter(choice.index(), &mut self.fault_rng);
        }

        let start = now + delay;
        self.metrics
            .chosen_exec_ms
            .add(exec_of(choice).as_millis_f64());
        self.metrics
            .chosen_backlog_ms
            .add(self.nodes.backlog(choice.index(), start).as_millis_f64());
        let finish = self.nodes.accept(choice.index(), start, exec_of(choice));
        self.owners[idx] = Some(choice);
        Allocation::Assigned {
            node: choice,
            finish,
            delay,
        }
    }
}

/// Rebuilds the QA-NT availability mirror from the authoritative per-node
/// supplies: `avail[class * N + node]` is how many more class requests the
/// node will answer with an offer this period. Skipping `on_request` while
/// the mirror is positive is exact because that call, with supply
/// available, mutates nothing and emits nothing; every event that *can*
/// change supply (period boundaries, partial-deployment restriction,
/// accepts) resyncs or decrements the mirror.
fn sync_avail(nodes: &[Option<qa_core::QantNode>], avail: &mut [u64]) {
    let num_nodes = nodes.len();
    let classes = avail.len().checked_div(num_nodes).unwrap_or(0);
    for (n, slot) in nodes.iter().enumerate() {
        match slot.as_ref().map(|q| q.supply()) {
            Some(Some(s)) => {
                for (k, &units) in s.as_slice().iter().enumerate() {
                    avail[k * num_nodes + n] = units;
                }
            }
            // Market node between periods (e.g. it died and its period
            // was ended without a successor): no supply, no offers.
            Some(None) => {
                for k in 0..classes {
                    avail[k * num_nodes + n] = 0;
                }
            }
            // Non-participating node (§4 partial deployment): always
            // offers; the sentinel is never meaningfully decremented.
            None => {
                for k in 0..classes {
                    avail[k * num_nodes + n] = u64::MAX;
                }
            }
        }
    }
}

fn mechanism_salt(m: MechanismKind) -> u64 {
    match m {
        MechanismKind::QaNt => 0x9E37_79B9_0001,
        MechanismKind::Greedy => 0x9E37_79B9_0002,
        MechanismKind::Random => 0x9E37_79B9_0003,
        MechanismKind::RoundRobin => 0x9E37_79B9_0004,
        MechanismKind::TwoProbes => 0x9E37_79B9_0005,
        MechanismKind::Bnqrd => 0x9E37_79B9_0006,
        MechanismKind::Markov => 0x9E37_79B9_0007,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::scenario::TwoClassParams;
    use qa_workload::arrival::{ArrivalProcess, SinusoidProcess};

    fn scenario() -> Scenario {
        Scenario::two_class(SimConfig::small_test(11), TwoClassParams::default())
    }

    /// A moderate two-class sinusoid trace over `secs` seconds at roughly
    /// `frac` of system capacity.
    fn trace_for(s: &Scenario, secs: u64, frac: f64) -> Trace {
        let mix = [2.0 / 3.0, 1.0 / 3.0];
        let capacity = s.capacity_qps(&mix);
        let peak_q1 = frac * capacity / 0.75;
        let (p1, p2) = SinusoidProcess::paper_pair(0.05, peak_q1);
        let mut rng = DetRng::seed_from_u64(s.config.seed).derive("trace");
        let horizon = SimTime::from_secs(secs);
        let mut arrivals = p1.generate(horizon, &mut rng);
        arrivals.extend(p2.generate(horizon, &mut rng));
        Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng)
    }

    fn run(s: &Scenario, m: MechanismKind, t: &Trace) -> RunOutcome {
        Federation::new(s, m, t).run(t)
    }

    #[test]
    fn all_mechanisms_complete_a_light_workload() {
        let s = scenario();
        let t = trace_for(&s, 20, 0.3);
        assert!(t.len() > 10);
        for m in MechanismKind::ALL {
            let out = run(&s, m, &t);
            assert_eq!(
                out.metrics.completed as usize,
                t.len(),
                "{m} left queries unserved: {:?}",
                out.metrics.unserved
            );
            assert!(out.metrics.mean_response_ms().unwrap() > 0.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let s = scenario();
        let t = trace_for(&s, 10, 0.4);
        let a = run(&s, MechanismKind::QaNt, &t);
        let b = run(&s, MechanismKind::QaNt, &t);
        assert_eq!(a.metrics.mean_response_ms(), b.metrics.mean_response_ms());
        assert_eq!(a.metrics.messages, b.metrics.messages);
    }

    #[test]
    fn greedy_beats_random_under_heterogeneity() {
        let s = scenario();
        let t = trace_for(&s, 30, 0.7);
        let g = run(&s, MechanismKind::Greedy, &t);
        let r = run(&s, MechanismKind::Random, &t);
        let gm = g.metrics.mean_response_ms().unwrap();
        let rm = r.metrics.mean_response_ms().unwrap();
        assert!(rm > gm, "random {rm} should be slower than greedy {gm}");
    }

    #[test]
    fn qant_tracks_greedy_or_better_under_overload() {
        let s = scenario();
        let t = trace_for(&s, 40, 1.2);
        let q = run(&s, MechanismKind::QaNt, &t);
        let g = run(&s, MechanismKind::Greedy, &t);
        let qm = q.metrics.mean_response_ms().unwrap();
        let gm = g.metrics.mean_response_ms().unwrap();
        // The paper's central claim, in loose form for a small federation:
        // under overload QA-NT is competitive with greedy (within 25%) or
        // better.
        assert!(
            qm < gm * 1.25,
            "QA-NT {qm}ms should be competitive with Greedy {gm}ms"
        );
    }

    #[test]
    fn message_counts_reflect_protocols() {
        let s = scenario();
        let t = trace_for(&s, 10, 0.3);
        let per_query = |m: MechanismKind| {
            let out = run(&s, m, &t);
            out.metrics.messages as f64 / out.metrics.completed as f64
        };
        let random = per_query(MechanismKind::Random);
        let probes = per_query(MechanismKind::TwoProbes);
        let greedy = per_query(MechanismKind::Greedy);
        let qant = per_query(MechanismKind::QaNt);
        assert!(random < probes, "random {random} < probes {probes}");
        assert!(probes < greedy, "probes {probes} < greedy {greedy}");
        // QA-NT needs more messages than random/probes ("Although QA-NT
        // requires more network messages…", §4).
        assert!(qant > probes);
    }

    #[test]
    fn qant_defers_when_all_supply_exhausted() {
        // Strict market mode (no §5.1 threshold bypass): a burst must
        // exhaust the period supply and defer.
        let mut cfg = SimConfig::small_test(11);
        cfg.qant.price_threshold = None;
        let s = Scenario::two_class(cfg, TwoClassParams::default());
        // Huge burst at t=0: supply for the period runs out, retries occur.
        let mut rng = DetRng::seed_from_u64(3).derive("burst");
        let burst: Vec<(SimTime, ClassId)> = (0..200)
            .map(|i| (SimTime::from_micros(i), ClassId(0)))
            .collect();
        let t = Trace::from_arrivals(burst, s.config.num_nodes, &mut rng);
        let out = run(&s, MechanismKind::QaNt, &t);
        assert!(out.metrics.retries > 0, "burst should exceed period supply");
        assert!(out.metrics.completed > 0);
    }

    #[test]
    fn node_failure_orphans_queries_and_system_survives() {
        let s = scenario();
        let t = trace_for(&s, 20, 0.5);
        let mut f = Federation::new(&s, MechanismKind::Greedy, &t);
        f.kill_node_at(NodeId(0), SimTime::from_secs(5));
        let out = f.run(&t);
        assert_eq!(
            out.metrics.completed + out.metrics.unserved,
            t.len() as u64,
            "every query accounted for"
        );
        // The system keeps completing queries after the failure.
        assert!(out.metrics.completed > 0);
    }

    #[test]
    fn crash_reentry_resubmits_next_period_and_conserves() {
        let s = scenario();
        // Five Q1 queries arrive at t=100ms; every node dies at 101ms —
        // before anything can finish — and recovers at 400ms. §2.2: the
        // orphans re-enter the next period (500ms boundary) and complete.
        let mut rng = DetRng::seed_from_u64(9).derive("reentry");
        let arrivals: Vec<(SimTime, ClassId)> = (0..5)
            .map(|_| (SimTime::from_millis(100), ClassId(0)))
            .collect();
        let t = Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng);
        let mut f = Federation::new(&s, MechanismKind::Random, &t);
        for i in 0..s.config.num_nodes {
            f.kill_node_at(NodeId(i as u32), SimTime::from_millis(101));
            f.recover_node_at(NodeId(i as u32), SimTime::from_millis(400));
        }
        let out = f.run(&t);
        assert_eq!(out.metrics.completed, 5, "orphans complete after recovery");
        assert_eq!(out.metrics.unserved, 0);
        assert!(out.metrics.retries >= 5, "each orphan was resubmitted");
    }

    #[test]
    fn lossy_run_is_deterministic_per_fault_seed() {
        let s = scenario();
        let t = trace_for(&s, 15, 0.5);
        let run_with = |fault_seed: Option<u64>| {
            let mut f = Federation::new(&s, MechanismKind::QaNt, &t);
            f.set_fault_plan(FaultPlan::uniform(qa_simnet::LinkFaults::lossy(0.2)));
            if let Some(seed) = fault_seed {
                f.set_fault_seed(seed);
            }
            let out = f.run(&t);
            (
                out.metrics.mean_response_ms(),
                out.metrics.messages,
                out.metrics.lost_messages,
                out.metrics.completed,
            )
        };
        let a = run_with(None);
        let b = run_with(None);
        assert_eq!(a, b, "same seed + same plan ⇒ identical run");
        assert!(a.2 > 0, "a 20% plan must actually lose messages");
        let c = run_with(Some(0xDEAD));
        assert_ne!(a, c, "different fault seed ⇒ different loss realization");
    }

    #[test]
    fn disabled_fault_plan_is_bit_identical_to_no_plan() {
        let s = scenario();
        let t = trace_for(&s, 15, 0.6);
        for m in MechanismKind::ALL {
            let plain = run(&s, m, &t);
            let mut f = Federation::new(&s, m, &t);
            f.set_fault_plan(FaultPlan::none());
            f.set_fault_seed(0xF00D); // must be irrelevant: never drawn
            let gated = f.run(&t);
            assert_eq!(
                plain.metrics.mean_response_ms(),
                gated.metrics.mean_response_ms(),
                "{m}"
            );
            assert_eq!(plain.metrics.messages, gated.metrics.messages, "{m}");
            assert_eq!(gated.metrics.lost_messages, 0, "{m}");
            assert_eq!(plain.metrics.completed, gated.metrics.completed, "{m}");
        }
    }

    #[test]
    fn qant_completes_under_ten_percent_loss() {
        let s = scenario();
        let t = trace_for(&s, 20, 0.5);
        let mut f = Federation::new(&s, MechanismKind::QaNt, &t);
        f.set_fault_plan(FaultPlan::uniform(qa_simnet::LinkFaults::lossy(0.1)));
        let out = f.run(&t);
        assert_eq!(
            out.metrics.completed + out.metrics.unserved,
            t.len() as u64,
            "conservation under loss"
        );
        assert!(
            out.metrics.completed as f64 >= 0.95 * t.len() as f64,
            "QA-NT should complete ≥95% under 10% loss: {}/{}",
            out.metrics.completed,
            t.len()
        );
    }

    #[test]
    fn outage_window_defers_queries_until_link_returns() {
        let s = scenario();
        // All arrivals land inside a [1s, 2s) outage on every link; they
        // must retry until the network returns, then all complete.
        let mut rng = DetRng::seed_from_u64(4).derive("outage");
        let arrivals: Vec<(SimTime, ClassId)> = (0..8)
            .map(|i| (SimTime::from_millis(1_000 + i * 10), ClassId(0)))
            .collect();
        let t = Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng);
        let mut f = Federation::new(&s, MechanismKind::QaNt, &t);
        f.set_fault_plan(FaultPlan::uniform(qa_simnet::LinkFaults {
            drop_prob: 0.0,
            jitter: SimDuration::ZERO,
            outages: vec![qa_simnet::OutageWindow::new(
                SimTime::from_secs(1),
                SimTime::from_secs(2),
            )],
        }));
        let out = f.run(&t);
        assert_eq!(out.metrics.completed, 8);
        assert!(
            out.metrics.retries >= 8,
            "every query deferred past the outage"
        );
        assert!(out.metrics.lost_messages > 0);
    }

    #[test]
    fn telemetry_captures_market_and_query_lifecycle() {
        let s = scenario();
        let t = trace_for(&s, 10, 0.8);
        let (tel, buf) = Telemetry::buffered();
        let mut f = Federation::with_telemetry(&s, MechanismKind::QaNt, &t, tel);
        f.kill_node_at(NodeId(0), SimTime::from_secs(3));
        f.recover_node_at(NodeId(0), SimTime::from_secs(6));
        let out = f.run(&t);
        assert!(out.metrics.completed > 0);
        let records = buf.records();
        let kinds: std::collections::BTreeSet<&str> =
            records.iter().map(|r| r.event.kind()).collect();
        for expected in [
            "supply_computed",
            "price_adjusted",
            "query_assigned",
            "query_completed",
            "period_started",
            "node_crashed",
            "node_recovered",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        // Timestamps follow the event loop's sim-clock: non-decreasing.
        assert!(records.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        // The t=0 supply solves of all 10 nodes were captured (telemetry
        // was installed before construction's first begin_period).
        let t0_supplies = records
            .iter()
            .filter(|r| r.t_us == 0 && matches!(r.event, TelemetryEvent::SupplyComputed { .. }))
            .count();
        assert_eq!(t0_supplies, s.config.num_nodes);
    }

    #[test]
    fn telemetry_enabled_run_matches_disabled_run() {
        // Observing the market must not change it.
        let s = scenario();
        let t = trace_for(&s, 10, 0.6);
        let plain = run(&s, MechanismKind::QaNt, &t);
        let (tel, buf) = Telemetry::buffered();
        let traced = Federation::with_telemetry(&s, MechanismKind::QaNt, &t, tel).run(&t);
        assert!(!buf.is_empty());
        assert_eq!(
            plain.metrics.mean_response_ms(),
            traced.metrics.mean_response_ms()
        );
        assert_eq!(plain.metrics.messages, traced.metrics.messages);
        assert_eq!(plain.metrics.completed, traced.metrics.completed);
    }

    #[test]
    fn impossible_class_counts_unserved() {
        let s = scenario();
        // Kill every Q2-capable node up front, then send Q2 queries.
        let q2_nodes = s.capable[1].clone();
        let mut rng = DetRng::seed_from_u64(5).derive("imp");
        let arrivals: Vec<(SimTime, ClassId)> = (0..5)
            .map(|i| (SimTime::from_secs(1 + i), ClassId(1)))
            .collect();
        let t = Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng);
        let mut f = Federation::new(&s, MechanismKind::Random, &t);
        for n in q2_nodes {
            f.kill_node_at(n, SimTime::from_millis(1));
        }
        let out = f.run(&t);
        assert_eq!(out.metrics.unserved, 5);
        assert_eq!(out.metrics.completed, 0);
    }
}
