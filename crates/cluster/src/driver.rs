//! The §5.2 experiment driver.
//!
//! Replays a uniform-inter-arrival workload of star queries against the
//! node fleet under either allocation mechanism, measuring per query:
//!
//! * **assignment time** — from issue until a node is chosen (the paper's
//!   "time required by Greedy and QA-NT to assign a query to a node"; both
//!   protocols poll every capable node, so a busy slow node stretches
//!   this),
//! * **total time** — assignment plus execution ("time to assign + execute
//!   query").
//!
//! These are exactly Figure 7's two bars per mechanism.
//!
//! ## One sans-IO protocol machine
//!
//! The per-query protocol (poll → collect under a deadline → assign →
//! execute → crash re-entry) lives in [`Driver`], a state machine with no
//! threads, clocks or channels. Time, node replies and timer expiries come
//! in as inputs; sends, timers and each final [`QueryOutcome`] go out as
//! [`Action`]s. Two runners step it:
//!
//! * [`run_workload`], on the caller's thread: one event loop that reads
//!   a single reply channel until the next due time — a query issue, a
//!   reply deadline, a backoff, [`EXEC_TIMEOUT`], a QA-NT period tick or a
//!   scheduled crash. It spawns no thread.
//! * [`crate::explore::run_schedule`], the model checker, which fires the
//!   same inputs as schedule-chosen actions.
//!
//! Every request carries a [`ReplyTo`] tagged with `(query, generation)`.
//! Each phase change bumps the query's generation, so a late reply or a
//! stale timer from an earlier round is recognised and ignored, and every
//! re-allocated execution carries a fresh generation.
//!
//! ## Resilience
//!
//! The driver never assumes the fleet is healthy. Negotiation replies are
//! collected under a deadline ([`ClusterConfig::reply_timeout`]) — a lost
//! or late reply is treated as a non-offer, not a protocol failure. A node
//! whose mailbox disconnects (crash injection via
//! [`ClusterConfig::crashes`], or a dead worker) is dropped from the
//! candidate set and the run finishes without it; a query that was
//! executing there is re-allocated. Failed attempts retry with capped
//! exponential backoff and a bounded budget ([`ClusterConfig::max_retries`])
//! so nothing livelocks. All environmental failures surface as
//! [`ClusterError`] values in the per-query outcomes — the request, offer
//! and execute paths never panic.

use crate::error::ClusterError;
use crate::node::{spawn_node_with_faults, ExecReply, NodeHandle};
use crate::setup::ClusterSpec;
use crate::transport::{ChannelTransport, Delivery, Reply, ReplyTag, ReplyTo, Transport};
use qa_core::QantConfig;
use qa_simnet::telemetry::{HistogramHandle, Telemetry, TelemetryEvent, WelfordHandle};
use qa_simnet::{DetRng, FaultPlan, SimDuration};
use qa_workload::ClassId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard ceiling on one query execution (a node may legitimately be slow,
/// but past this the run must move on).
pub const EXEC_TIMEOUT: Duration = Duration::from_secs(60);

/// Which mechanism drives allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMechanism {
    /// Greedy: poll execution estimates from every capable node, assign to
    /// the minimum unilaterally.
    Greedy,
    /// QA-NT: call-for-offers; servers offer while market supply lasts;
    /// rejected queries resubmit next period.
    QaNt,
}

impl std::fmt::Display for ClusterMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterMechanism::Greedy => write!(f, "Greedy"),
            ClusterMechanism::QaNt => write!(f, "QA-NT"),
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Master seed.
    pub seed: u64,
    /// Queries to issue (paper: 300).
    pub num_queries: usize,
    /// Mean inter-arrival time (paper: 300 ms and 400 ms; scale down for
    /// CI).
    pub mean_interarrival: Duration,
    /// QA-NT market period (paper: 500 ms; scale with the workload).
    pub period: Duration,
    /// Rows per base table (scale).
    pub rows_per_table: usize,
    /// The mechanism under test.
    pub mechanism: ClusterMechanism,
    /// Maximum resubmissions before giving up on a query (QA-NT
    /// rejections, lost negotiations and crash re-allocations all spend
    /// from this budget).
    pub max_retries: u32,
    /// Deadline for collecting negotiation replies. Replies missing at the
    /// deadline count as non-offers; the protocol no longer blocks on the
    /// full candidate set.
    pub reply_timeout: Duration,
    /// Link-fault schedule keyed by node ([`FaultPlan::none`] = healthy).
    /// Outage-window offsets are measured from experiment start.
    pub faults: FaultPlan,
    /// Crash schedule: `(node, delay after start)`. Crashed nodes drop out
    /// of the candidate set; the run finishes without them.
    pub crashes: Vec<(usize, Duration)>,
    /// Telemetry sink observing the run ([`Telemetry::disabled`] by
    /// default). Market events carry per-node labels; timestamps are
    /// wall-clock microseconds since experiment start, so — unlike the
    /// simulator's traces — cluster traces are not byte-deterministic.
    pub telemetry: Telemetry,
}

impl ClusterConfig {
    /// CI-scale defaults (~100× smaller than the paper's deployment).
    pub fn ci_scale(mechanism: ClusterMechanism, seed: u64) -> ClusterConfig {
        ClusterConfig {
            seed,
            num_queries: 40,
            mean_interarrival: Duration::from_millis(5),
            period: Duration::from_millis(40),
            rows_per_table: 80,
            mechanism,
            max_retries: 100,
            reply_timeout: Duration::from_secs(60),
            faults: FaultPlan::none(),
            crashes: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Paper-shaped run (time-scaled ~10×: 300 queries at 30/40 ms mean
    /// inter-arrival against ~100 ms-class queries — the paper's 300/400 ms
    /// against 1–14 s queries, preserving the ~3× offered-load ratio).
    pub fn paper_scale(
        mechanism: ClusterMechanism,
        seed: u64,
        mean_interarrival_ms: u64,
    ) -> ClusterConfig {
        ClusterConfig {
            seed,
            num_queries: 300,
            mean_interarrival: Duration::from_millis(mean_interarrival_ms),
            period: Duration::from_millis(100),
            rows_per_table: 50_000,
            mechanism,
            max_retries: 2_000,
            reply_timeout: Duration::from_secs(60),
            faults: FaultPlan::none(),
            crashes: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Per-query measurement.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Query index in issue order.
    pub query: usize,
    /// Its class.
    pub class: u32,
    /// The node that executed it, if any.
    pub node: Option<usize>,
    /// Time from issue to assignment decision (ms).
    pub assign_ms: f64,
    /// Time from issue to result (ms).
    pub total_ms: f64,
    /// Resubmissions needed (rejections, losses and re-allocations).
    pub retries: u32,
    /// Error text if the query failed or was never assigned.
    pub error: Option<String>,
}

qa_simnet::impl_to_json!(QueryOutcome {
    query,
    class,
    node,
    assign_ms,
    total_ms,
    retries,
    error
});

/// Aggregate experiment result (one Figure-7 bar pair).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Mechanism name.
    pub mechanism: String,
    /// Per-query outcomes.
    pub outcomes: Vec<QueryOutcome>,
    /// Mean assignment time over successful queries (ms).
    pub mean_assign_ms: f64,
    /// Mean total time over successful queries (ms).
    pub mean_total_ms: f64,
    /// Queries that never completed.
    pub failed: usize,
    /// Fraction of issued queries that completed.
    pub completion_rate: f64,
}

qa_simnet::impl_to_json!(ExperimentResult {
    mechanism,
    outcomes,
    mean_assign_ms,
    mean_total_ms,
    failed,
    completion_rate
});

/// Driver-side latency histograms, resolved once per run from the
/// telemetry registry (`None` without one). These go to the *registry
/// only* — never the event stream — so enabling them cannot perturb
/// trace byte-determinism.
struct DriverMetrics {
    /// Issue-to-assignment latency per query (ms).
    assign_ms: HistogramHandle,
    /// Issue-to-result latency per query (ms).
    total_ms: HistogramHandle,
    /// One negotiation round trip: fan-out to last collected reply (ms).
    rpc_ms: HistogramHandle,
    /// The same round in µs, as the `cluster.poll_round` span.
    poll_round_us: WelfordHandle,
}

impl DriverMetrics {
    fn resolve(telemetry: &Telemetry) -> Option<DriverMetrics> {
        let r = telemetry.registry()?;
        Some(DriverMetrics {
            assign_ms: r.histogram("driver.assign_ms"),
            total_ms: r.histogram("driver.total_ms"),
            rpc_ms: r.histogram("driver.rpc_ms"),
            poll_round_us: r.welford("span.cluster.poll_round_us"),
        })
    }
}

/// Capped exponential backoff between allocation attempts: one period,
/// doubling per retry, never more than eight periods.
fn backoff(period: Duration, attempt: u32) -> Duration {
    let factor = 1u32 << attempt.min(3);
    period.saturating_mul(factor)
}

/// The [`QantConfig`] a fleet node runs under a given mechanism and
/// market period — `None` for Greedy. Shared by the in-process spawner
/// and the `qad` server so a multi-process federation prices exactly like
/// the threaded one.
pub fn qant_config_for(mechanism: ClusterMechanism, period: Duration) -> Option<QantConfig> {
    match mechanism {
        ClusterMechanism::QaNt => Some(QantConfig {
            period: SimDuration::from_millis(period.as_millis() as u64),
            // §5.1 deployment mode: restrict supply only once prices
            // inflate past 2× their initial level (renormalization is
            // incompatible with thresholds — see QantConfig docs).
            price_threshold: Some(2.0),
            renormalize_prices: false,
            ..QantConfig::default()
        }),
        ClusterMechanism::Greedy => None,
    }
}

/// Spawns the in-process fleet for a spec + config: one node thread per
/// fleet member, with the config's faults and telemetry wired in.
pub fn spawn_fleet(spec: &ClusterSpec, config: &ClusterConfig, epoch: Instant) -> ChannelTransport {
    let qant_cfg = qant_config_for(config.mechanism, config.period);
    let nodes: Vec<NodeHandle> = (0..spec.num_nodes)
        .map(|n| {
            spawn_node_with_faults(
                spec,
                n,
                config.seed,
                qant_cfg,
                config.faults.link(n).clone(),
                epoch,
                config.telemetry.clone(),
            )
        })
        .collect();
    ChannelTransport::new(nodes)
}

/// Runs one experiment: builds the in-process fleet, replays the
/// workload, tears the fleet down, returns measurements.
///
/// # Errors
/// As [`run_workload`]. Per-query environmental failures (crashes,
/// losses, timeouts) do *not* fail the experiment — they are recorded in
/// the outcomes.
pub fn run_experiment(
    spec: &ClusterSpec,
    config: &ClusterConfig,
) -> Result<ExperimentResult, ClusterError> {
    let transport: Arc<dyn Transport> = Arc::new(spawn_fleet(spec, config, Instant::now()));
    let result = run_workload(spec, config, Arc::clone(&transport));
    transport.shutdown();
    result
}

/// Replays the workload against an already-connected fleet — in-process
/// threads ([`ChannelTransport`]) or real `qad` processes
/// ([`crate::transport::TcpTransport`]) behave identically here. Does
/// **not** tear the transport down: the caller may keep using it (e.g. to
/// dump post-run price vectors) and owns the final
/// [`Transport::shutdown`].
///
/// Runs on the caller's thread and spawns none: one event loop steps the
/// [`Driver`], issuing queries at absolute due times (the running sum of
/// the pre-generated gaps) and reading every reply from one channel.
///
/// # Errors
/// Returns [`ClusterError::InvalidConfig`] for a config it cannot run (a
/// zero mean inter-arrival or market period), and
/// [`ClusterError::NoCandidates`] when the spec has no evaluable query
/// class; per-query environmental failures are recorded in the outcomes
/// instead.
pub fn run_workload(
    spec: &ClusterSpec,
    config: &ClusterConfig,
    transport: Arc<dyn Transport>,
) -> Result<ExperimentResult, ClusterError> {
    if config.mean_interarrival.is_zero() {
        return Err(ClusterError::InvalidConfig(
            "mean_interarrival must be positive",
        ));
    }
    if config.period.is_zero() {
        return Err(ClusterError::InvalidConfig("period must be positive"));
    }
    // Pre-generate the workload: (due time, class, sql).
    let mut rng = DetRng::seed_from_u64(config.seed).derive("cluster-workload");
    let usable: Vec<&crate::setup::QueryClassSpec> = spec
        .classes
        .iter()
        .filter(|c| !spec.capable_nodes(c.id).is_empty())
        .collect();
    if usable.is_empty() {
        return Err(ClusterError::NoCandidates);
    }
    let mean_ms = config.mean_interarrival.as_secs_f64() * 1e3;
    let mut due = Duration::ZERO;
    let mut workload: Vec<(Duration, ClassId, String)> = (0..config.num_queries)
        .map(|_| {
            due += Duration::from_secs_f64(rng.float_in(0.5 * mean_ms, 1.5 * mean_ms) / 1e3);
            let class = usable[rng.index(usable.len())];
            (due, class.id, class.sample(&mut rng))
        })
        .collect();
    let num_nodes = transport.num_nodes();
    let mut crashes: Vec<(Duration, usize)> = config
        .crashes
        .iter()
        .filter(|&&(node, _)| node < num_nodes)
        .map(|&(node, delay)| (delay, node))
        .collect();
    crashes.sort();

    let mut driver = Driver::new(config, num_nodes);
    let ticking = config.mechanism == ClusterMechanism::QaNt;
    let (replies, inbox) = channel::<Delivery>();
    let mut timers: BinaryHeap<Reverse<(Duration, ReplyTag)>> = BinaryHeap::new();
    let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(workload.len());
    let (mut issued, mut crashed, mut next_tick) = (0, 0, config.period);
    let epoch = Instant::now();
    loop {
        perform(
            &mut driver,
            transport.as_ref(),
            &replies,
            |action| match action {
                Action::Timer { tag, at } => timers.push(Reverse((at, tag))),
                Action::Done(outcome) => outcomes.push(outcome),
                _ => {}
            },
        );
        if outcomes.len() == workload.len() {
            break;
        }
        let now = epoch.elapsed();
        config.telemetry.set_now_us(now.as_micros() as u64);
        let crash_at = crashes.get(crashed).map(|c| c.0);
        let issue_at = workload.get(issued).map(|w| w.0);
        let tick_at = ticking.then_some(next_tick);
        let timer_at = timers.peek().map(|t| t.0 .0);
        let is_due = |at: Option<Duration>| at.is_some_and(|at| at <= now);
        if is_due(crash_at) {
            // Crash injection kills the node through the transport —
            // shutting the mailbox in-process, terminating the remote
            // process over TCP — exactly like a process death.
            let node = crashes[crashed].1;
            crashed += 1;
            driver.crash(node);
            transport.shutdown_node(node);
        } else if is_due(issue_at) {
            let class = workload[issued].1;
            let sql = std::mem::take(&mut workload[issued].2);
            driver.issue(class, sql, spec.capable_nodes(class), now);
            issued += 1;
        } else if is_due(tick_at) {
            driver.period_tick();
            next_tick = now + config.period;
        } else if let Ok(delivery) = inbox.try_recv() {
            // Replies before timers: one that arrived before its deadline
            // counts.
            driver.on_delivery(delivery, now);
        } else if is_due(timer_at) {
            if let Some(Reverse((_, tag))) = timers.pop() {
                driver.on_timer(tag, now);
            }
        } else {
            let next = [crash_at, issue_at, tick_at, timer_at]
                .into_iter()
                .flatten()
                .min();
            let wait = next.map_or(EXEC_TIMEOUT, |at| at.saturating_sub(now));
            if let Ok(delivery) = inbox.recv_timeout(wait) {
                driver.on_delivery(delivery, epoch.elapsed());
            }
        }
    }
    outcomes.sort_by_key(|o| o.query);

    let ok: Vec<&QueryOutcome> = outcomes.iter().filter(|o| o.error.is_none()).collect();
    let mean = |f: fn(&QueryOutcome) -> f64| {
        if ok.is_empty() {
            f64::NAN
        } else {
            ok.iter().map(|o| f(o)).sum::<f64>() / ok.len() as f64
        }
    };
    let completion_rate = if outcomes.is_empty() {
        1.0
    } else {
        ok.len() as f64 / outcomes.len() as f64
    };
    Ok(ExperimentResult {
        mechanism: config.mechanism.to_string(),
        mean_assign_ms: mean(|o| o.assign_ms),
        mean_total_ms: mean(|o| o.total_ms),
        failed: outcomes.len() - ok.len(),
        completion_rate,
        outcomes,
    })
}

/// Carries out the driver's sends and period ticks over `transport`,
/// handing every reply handle `replies` and reporting failed sends back to
/// the driver. Timers and outcomes go to `rest`.
pub fn perform(
    driver: &mut Driver,
    transport: &dyn Transport,
    replies: &Sender<Delivery>,
    mut rest: impl FnMut(Action),
) {
    while let Some(action) = driver.actions.pop_front() {
        let (node, sent, context) = match action {
            Action::Send { node, request, tag } => {
                let query = &driver.queries[tag.id as usize];
                let (class, sql) = (query.class, query.sql.as_str());
                let reply = ReplyTo::new(tag, replies.clone());
                let (sent, context) = match request {
                    Request::Estimate => (transport.estimate(node, class, sql, reply), "estimate"),
                    Request::Offer => (transport.call_for_offers(node, class, sql, reply), "offer"),
                    Request::Execute => (transport.execute(node, class, sql, reply), "execute"),
                };
                (node, sent, context)
            }
            Action::Tick { node } => (node, transport.period_tick(node), "tick"),
            other => {
                rest(other);
                continue;
            }
        };
        if sent.is_err() {
            driver.on_send_failed(node, context);
        }
    }
}

/// A request the driver sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Greedy's estimate poll.
    Estimate,
    /// QA-NT's call-for-offers.
    Offer,
    /// The assignment.
    Execute,
}

/// What the [`Driver`] asks its runner to do.
#[derive(Debug)]
pub enum Action {
    /// Send `request` for query `tag.id` to `node`, with a reply handle
    /// tagged `tag`.
    Send {
        /// The addressee.
        node: usize,
        /// What to ask.
        request: Request,
        /// The reply handle's tag.
        tag: ReplyTag,
    },
    /// Announce a QA-NT period boundary to `node`.
    Tick {
        /// The addressee.
        node: usize,
    },
    /// Call [`Driver::on_timer`] with `tag` at `at` (a timer the query
    /// has moved past is ignored).
    Timer {
        /// The query and generation the timer belongs to.
        tag: ReplyTag,
        /// Due time, on the runner's clock.
        at: Duration,
    },
    /// A query finished.
    Done(QueryOutcome),
}

/// Where one query is in the protocol.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// A poll round is out: `expect` reply handles went out at `started`,
    /// `got` have reported, and `best` is the best `(cost, node)` bid.
    Polling {
        started: Duration,
        expect: usize,
        got: usize,
        best: Option<(f64, usize)>,
    },
    /// Waiting out a backoff before the next poll round.
    Backoff,
    /// The assignment is out at `node`.
    Executing { node: usize },
    /// Finished; `Some(node)` when it executed there.
    Done(Option<usize>),
}

/// One query's protocol state.
struct Query {
    class: ClassId,
    sql: String,
    capable: Vec<usize>,
    issued: Duration,
    /// Bumped on every phase change; replies and timers carry it.
    generation: u32,
    retries: u32,
    assign_ms: f64,
    phase: Phase,
}

/// The sans-IO cluster driver: every query's protocol state plus the
/// fleet's dead-node set. See the module docs.
pub struct Driver {
    mechanism: ClusterMechanism,
    period: Duration,
    reply_timeout: Duration,
    max_retries: u32,
    telemetry: Telemetry,
    metrics: Option<DriverMetrics>,
    /// Nodes written off: a failed send, a lost execution or a crash.
    dead: Vec<bool>,
    queries: Vec<Query>,
    periods: u64,
    actions: VecDeque<Action>,
}

impl Driver {
    /// A driver for `num_nodes` nodes under `config`'s mechanism, market
    /// period, reply deadline, retry budget and telemetry.
    pub fn new(config: &ClusterConfig, num_nodes: usize) -> Driver {
        Driver {
            mechanism: config.mechanism,
            period: config.period,
            reply_timeout: config.reply_timeout,
            max_retries: config.max_retries,
            telemetry: config.telemetry.clone(),
            metrics: DriverMetrics::resolve(&config.telemetry),
            dead: vec![false; num_nodes],
            queries: Vec::new(),
            periods: 0,
            actions: VecDeque::new(),
        }
    }

    /// Issues a query at `now` and opens its first poll round over the
    /// live nodes among `capable`. Returns the query's index.
    pub fn issue(
        &mut self,
        class: ClassId,
        sql: String,
        capable: Vec<usize>,
        now: Duration,
    ) -> usize {
        let q = self.queries.len();
        self.queries.push(Query {
            class,
            sql,
            capable,
            issued: now,
            generation: 0,
            retries: 0,
            assign_ms: 0.0,
            phase: Phase::Backoff,
        });
        self.poll(q, now);
        q
    }

    /// Feeds one reply handle's report. A report for an earlier
    /// generation is stale and ignored.
    pub fn on_delivery(&mut self, delivery: Delivery, now: Duration) {
        let Some(q) = self.current(delivery.tag) else {
            return;
        };
        match &mut self.queries[q].phase {
            Phase::Polling {
                expect, got, best, ..
            } => {
                *got += 1;
                let bid = match delivery.reply {
                    Some(Reply::Estimate(r)) if self.mechanism == ClusterMechanism::Greedy => {
                        Some((r.exec_ms, r.node))
                    }
                    Some(Reply::Offer(r))
                        if self.mechanism == ClusterMechanism::QaNt && r.offered =>
                    {
                        Some((r.completion_ms, r.node))
                    }
                    _ => None,
                };
                // Cheapest bid wins; ties go to the lowest node.
                if let Some(bid) = bid {
                    if best.is_none_or(|b| bid < b) {
                        *best = Some(bid);
                    }
                }
                if *got == *expect {
                    self.end_round(q, now);
                }
            }
            &mut Phase::Executing { node } => match delivery.reply {
                Some(Reply::Exec(reply)) => self.complete(q, node, reply, now),
                // The assignee crashed with the query (or lost its
                // reply): write it off and re-allocate.
                _ => {
                    self.dead[node] = true;
                    self.retry(q, now, Some(node));
                }
            },
            Phase::Backoff | Phase::Done(_) => {}
        }
    }

    /// Fires the timer tagged `tag`: a reply deadline, a backoff or
    /// [`EXEC_TIMEOUT`]. A timer the query has moved past is ignored.
    pub fn on_timer(&mut self, tag: ReplyTag, now: Duration) {
        let Some(q) = self.current(tag) else {
            return;
        };
        match self.queries[q].phase {
            Phase::Polling { .. } => self.end_round(q, now),
            Phase::Backoff => self.poll(q, now),
            Phase::Executing { node } => self.fail(
                q,
                now,
                ClusterError::Timeout {
                    phase: "execute",
                    node,
                },
            ),
            Phase::Done(_) => {}
        }
    }

    /// A `request` send to `node` failed: the peer is gone. (Its reply
    /// handle reports the loss on its own.)
    pub fn on_send_failed(&mut self, node: usize, request: &'static str) {
        self.dead[node] = true;
        self.telemetry.emit(|| TelemetryEvent::MessageDropped {
            node: node as u32,
            context: format!("{request}_send"),
        });
    }

    /// A QA-NT period boundary: ticks every live node.
    pub fn period_tick(&mut self) {
        self.periods += 1;
        let index = self.periods;
        self.telemetry
            .emit(|| TelemetryEvent::PeriodStarted { index });
        let live = (0..self.dead.len()).filter(|&n| !self.dead[n]);
        self.actions.extend(live.map(|node| Action::Tick { node }));
    }

    /// Crash injection: writes `node` off. The runner kills it.
    pub fn crash(&mut self, node: usize) {
        self.dead[node] = true;
        self.telemetry
            .emit(|| TelemetryEvent::NodeCrashed { node: node as u32 });
    }

    /// How query `q` ended: `None` while it runs, `Some(None)` when it
    /// failed, and `Some(Some((node, generation)))` for the execution it
    /// committed.
    pub fn placement(&self, q: usize) -> Option<Option<(usize, u32)>> {
        let query = self.queries.get(q)?;
        match query.phase {
            Phase::Done(node) => Some(node.map(|n| (n, query.generation))),
            _ => None,
        }
    }

    /// The query `tag` addresses, if `tag` is its current generation.
    fn current(&self, tag: ReplyTag) -> Option<usize> {
        let q = tag.id as usize;
        let query = self.queries.get(q)?;
        (query.generation == tag.generation).then_some(q)
    }

    /// Moves query `q` into `phase` under a fresh generation, arming its
    /// timer for `at`.
    fn enter(&mut self, q: usize, phase: Phase, at: Duration) -> ReplyTag {
        let query = &mut self.queries[q];
        query.generation += 1;
        query.phase = phase;
        let tag = ReplyTag {
            id: q as u64,
            generation: query.generation,
        };
        self.actions.push_back(Action::Timer { tag, at });
        tag
    }

    /// Opens a poll round over the live capable nodes.
    fn poll(&mut self, q: usize, now: Duration) {
        let live: Vec<usize> = self.queries[q]
            .capable
            .iter()
            .copied()
            .filter(|&n| !self.dead[n])
            .collect();
        if live.is_empty() {
            return self.fail(q, now, ClusterError::NoCandidates);
        }
        let phase = Phase::Polling {
            started: now,
            expect: live.len(),
            got: 0,
            best: None,
        };
        let tag = self.enter(q, phase, now + self.reply_timeout);
        let request = match self.mechanism {
            ClusterMechanism::Greedy => Request::Estimate,
            ClusterMechanism::QaNt => Request::Offer,
        };
        self.actions.extend(
            live.into_iter()
                .map(|node| Action::Send { node, request, tag }),
        );
    }

    /// Closes a poll round (every handle reported, or the deadline hit):
    /// assign to the best bid, or back off and resubmit — §2.2's
    /// next-period retry.
    fn end_round(&mut self, q: usize, now: Duration) {
        let Phase::Polling { started, best, .. } = self.queries[q].phase else {
            return;
        };
        if let Some(m) = &self.metrics {
            let round = now.saturating_sub(started).as_secs_f64();
            m.rpc_ms.observe(round * 1e3);
            m.poll_round_us.observe(round * 1e6);
        }
        match best {
            Some((_, node)) => self.assign(q, node, now),
            None => self.retry(q, now, None),
        }
    }

    /// Spends one retry on a backoff — capped exponential, so a
    /// partitioned network is not spammed — or fails the query once the
    /// budget is gone. `lost_at` names the node an execution was lost on.
    fn retry(&mut self, q: usize, now: Duration, lost_at: Option<usize>) {
        let query = &mut self.queries[q];
        query.retries += 1;
        let retries = query.retries;
        if retries > self.max_retries {
            let err = match lost_at {
                Some(node) => ClusterError::ChannelClosed {
                    phase: "execute",
                    node,
                },
                None => ClusterError::RetriesExhausted { retries },
            };
            return self.fail(q, now, err);
        }
        self.enter(q, Phase::Backoff, now + backoff(self.period, retries - 1));
    }

    fn assign(&mut self, q: usize, node: usize, now: Duration) {
        let query = &mut self.queries[q];
        query.assign_ms = now.saturating_sub(query.issued).as_secs_f64() * 1e3;
        if let Some(m) = &self.metrics {
            m.assign_ms.observe(query.assign_ms);
        }
        let (class, retries) = (query.class.0, query.retries);
        self.telemetry.emit(|| TelemetryEvent::QueryAssigned {
            query: q as u64,
            class,
            node: node as u32,
            retries,
        });
        let tag = self.enter(q, Phase::Executing { node }, now + EXEC_TIMEOUT);
        self.actions.push_back(Action::Send {
            node,
            request: Request::Execute,
            tag,
        });
    }

    fn complete(&mut self, q: usize, node: usize, reply: ExecReply, now: Duration) {
        let query = &self.queries[q];
        let total_ms = now.saturating_sub(query.issued).as_secs_f64() * 1e3;
        if let Some(m) = &self.metrics {
            m.total_ms.observe(total_ms);
        }
        let class = query.class.0;
        self.telemetry.emit(|| TelemetryEvent::QueryCompleted {
            query: q as u64,
            class,
            node: node as u32,
            response_ms: total_ms,
        });
        self.finish(q, Some(node), query.assign_ms, total_ms, reply.error);
    }

    fn fail(&mut self, q: usize, now: Duration, err: ClusterError) {
        let query = &self.queries[q];
        let elapsed_ms = now.saturating_sub(query.issued).as_secs_f64() * 1e3;
        let (class, retries) = (query.class.0, query.retries);
        self.telemetry.emit(|| TelemetryEvent::QueryUnserved {
            query: q as u64,
            class,
            retries,
        });
        self.finish(q, None, elapsed_ms, elapsed_ms, Some(err.to_string()));
    }

    fn finish(
        &mut self,
        q: usize,
        node: Option<usize>,
        assign_ms: f64,
        total_ms: f64,
        error: Option<String>,
    ) {
        let query = &mut self.queries[q];
        query.phase = Phase::Done(node);
        self.actions.push_back(Action::Done(QueryOutcome {
            query: q,
            class: query.class.0,
            node,
            assign_ms,
            total_ms,
            retries: query.retries,
            error,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::generate(5, 5, 8, 12, 6, 60)
    }

    #[test]
    fn greedy_experiment_completes_all_queries() {
        let s = spec();
        let cfg = ClusterConfig::ci_scale(ClusterMechanism::Greedy, 11);
        let r = run_experiment(&s, &cfg).expect("healthy spec");
        assert_eq!(r.outcomes.len(), cfg.num_queries);
        assert_eq!(
            r.failed,
            0,
            "{:?}",
            r.outcomes.iter().find(|o| o.error.is_some())
        );
        assert_eq!(r.completion_rate, 1.0);
        assert!(r.mean_assign_ms > 0.0);
        assert!(r.mean_total_ms >= r.mean_assign_ms);
    }

    #[test]
    fn qant_experiment_completes_all_queries() {
        let s = spec();
        let cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 11);
        let r = run_experiment(&s, &cfg).expect("healthy spec");
        assert_eq!(r.outcomes.len(), cfg.num_queries);
        assert_eq!(
            r.failed,
            0,
            "{:?}",
            r.outcomes.iter().find(|o| o.error.is_some())
        );
        assert!(r.mean_total_ms.is_finite());
    }

    #[test]
    fn both_mechanisms_use_only_capable_nodes() {
        let s = spec();
        for mech in [ClusterMechanism::Greedy, ClusterMechanism::QaNt] {
            let mut cfg = ClusterConfig::ci_scale(mech, 13);
            cfg.num_queries = 15;
            let r = run_experiment(&s, &cfg).expect("healthy spec");
            for o in &r.outcomes {
                if let Some(n) = o.node {
                    let capable = s.capable_nodes(ClassId(o.class));
                    assert!(
                        capable.contains(&n),
                        "query {} on incapable node {n}",
                        o.query
                    );
                }
            }
        }
    }

    #[test]
    fn backoff_is_capped() {
        let p = Duration::from_millis(40);
        assert_eq!(backoff(p, 0), p);
        assert_eq!(backoff(p, 1), p * 2);
        assert_eq!(backoff(p, 3), p * 8);
        assert_eq!(backoff(p, 30), p * 8, "cap at eight periods");
    }

    #[test]
    fn crashed_node_is_dropped_and_run_finishes() {
        let s = spec();
        let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::Greedy, 17);
        cfg.num_queries = 25;
        cfg.reply_timeout = Duration::from_secs(5);
        // Kill two nodes early; the rest of the fleet must finish the run.
        // (Inter-arrival gaps are ≥ 2.5 ms, so query 10 is provably issued
        // after both crashes.)
        cfg.crashes = vec![
            (0, Duration::from_millis(10)),
            (1, Duration::from_millis(20)),
        ];
        let r = run_experiment(&s, &cfg).expect("spec has classes");
        assert_eq!(r.outcomes.len(), cfg.num_queries);
        // Queries issued well after the crashes never land on the dead
        // nodes (index 15 is issued ≥ 40 ms in, leaving slack for the
        // injector's 5 ms poll granularity and scheduler jitter).
        for o in r.outcomes.iter().filter(|o| o.query >= 15) {
            if let Some(n) = o.node {
                assert!(n > 1, "query {} assigned to crashed node {n}", o.query);
            }
        }
        // Classes only nodes 0/1 could evaluate are correctly unservable;
        // everything else must finish.
        let stranded: Vec<u32> = s
            .classes
            .iter()
            .filter(|c| {
                let cap = s.capable_nodes(c.id);
                !cap.is_empty() && cap.iter().all(|&m| m <= 1)
            })
            .map(|c| c.id.0)
            .collect();
        let eligible: Vec<_> = r
            .outcomes
            .iter()
            .filter(|o| !stranded.contains(&o.class) && o.query >= 15)
            .collect();
        let ok = eligible.iter().filter(|o| o.error.is_none()).count();
        assert!(
            ok * 10 >= eligible.len() * 9,
            "servable post-crash queries must complete: {ok}/{}",
            eligible.len()
        );
    }

    #[test]
    fn lossy_links_degrade_gracefully() {
        use qa_simnet::LinkFaults;
        let s = spec();
        let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 19);
        cfg.num_queries = 20;
        cfg.reply_timeout = Duration::from_secs(5);
        cfg.faults = FaultPlan::uniform(LinkFaults::lossy(0.2));
        let r = run_experiment(&s, &cfg).expect("spec has classes");
        assert_eq!(r.outcomes.len(), cfg.num_queries);
        assert!(
            r.completion_rate >= 0.95,
            "QA-NT must ride out 20% negotiation loss: {}",
            r.completion_rate
        );
    }

    #[test]
    fn telemetry_captures_cluster_market_and_query_lifecycle() {
        let s = spec();
        let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 29);
        cfg.num_queries = 20;
        cfg.reply_timeout = Duration::from_secs(5);
        cfg.crashes = vec![(0, Duration::from_millis(30))];
        let (telemetry, buffer) = Telemetry::buffered();
        cfg.telemetry = telemetry.clone();
        let r = run_experiment(&s, &cfg).expect("healthy spec");
        assert_eq!(r.outcomes.len(), cfg.num_queries);

        let records = buffer.records();
        let kinds: std::collections::BTreeSet<&str> =
            records.iter().map(|r| r.event.kind()).collect();
        for expected in [
            "supply_computed",
            "query_assigned",
            "query_completed",
            "node_crashed",
            "period_started",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        // Market events carry the emitting node's label; the crash event
        // names the scheduled victim.
        assert!(records.iter().any(
            |rec| matches!(rec.event, TelemetryEvent::SupplyComputed { node, .. } if node > 0)
        ));
        assert!(records
            .iter()
            .any(|rec| matches!(rec.event, TelemetryEvent::NodeCrashed { node: 0 })));
        // Negotiation rounds were timed into the registry.
        let snapshot = telemetry.registry().expect("enabled handle").snapshot();
        let stats = snapshot.get("stats").expect("stats section");
        assert!(
            stats.get("span.cluster.poll_round_us").is_some(),
            "poll_round span missing: {}",
            snapshot.dump()
        );
    }

    #[test]
    fn all_classes_impossible_is_an_error() {
        // A spec whose only class has no capable nodes cannot run.
        let mut s = spec();
        s.classes.truncate(1);
        let id = s.classes[0].id;
        // Remove every copy of the tables the class needs.
        let needed: Vec<usize> = s.classes[0].tables.clone();
        for (i, t) in s.tables.iter_mut().enumerate() {
            if needed.contains(&i) {
                t.copies.clear();
            }
        }
        assert!(s.capable_nodes(id).is_empty());
        let cfg = ClusterConfig::ci_scale(ClusterMechanism::Greedy, 23);
        match run_experiment(&s, &cfg) {
            Err(ClusterError::NoCandidates) => {}
            other => panic!("expected NoCandidates, got {other:?}"),
        }
    }

    #[test]
    fn configs_it_cannot_run_are_typed_errors() {
        let s = spec();
        let fleet: Arc<dyn Transport> = Arc::new(ChannelTransport::new(Vec::new()));
        let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 23);
        cfg.mean_interarrival = Duration::ZERO;
        match run_workload(&s, &cfg, Arc::clone(&fleet)) {
            Err(ClusterError::InvalidConfig(msg)) => assert!(msg.contains("mean_interarrival")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        cfg.mean_interarrival = Duration::from_millis(5);
        cfg.period = Duration::ZERO;
        assert!(matches!(
            run_workload(&s, &cfg, fleet),
            Err(ClusterError::InvalidConfig(_))
        ));
    }

    // The sans-IO machine on its own: inputs in, actions out, with no
    // threads, clocks or sleeps.

    fn machine() -> Driver {
        Driver::new(&ClusterConfig::ci_scale(ClusterMechanism::QaNt, 1), 2)
    }

    fn drain(driver: &mut Driver) -> Vec<Action> {
        std::iter::from_fn(|| driver.actions.pop_front()).collect()
    }

    fn sends(actions: &[Action]) -> Vec<(usize, Request, ReplyTag)> {
        actions
            .iter()
            .filter_map(|a| match *a {
                Action::Send { node, request, tag } => Some((node, request, tag)),
                _ => None,
            })
            .collect()
    }

    fn timer(actions: &[Action]) -> Option<(ReplyTag, Duration)> {
        actions.iter().find_map(|a| match *a {
            Action::Timer { tag, at } => Some((tag, at)),
            _ => None,
        })
    }

    fn offer(tag: ReplyTag, node: usize) -> Delivery {
        let reply = crate::node::OfferReply {
            node,
            offered: true,
            completion_ms: 1.0 + node as f64,
        };
        Delivery {
            tag,
            reply: Some(Reply::Offer(reply)),
        }
    }

    fn executed(tag: ReplyTag, node: usize) -> Delivery {
        let reply = ExecReply {
            node,
            rows: 1,
            exec_ms: 1.0,
            error: None,
        };
        Delivery {
            tag,
            reply: Some(Reply::Exec(reply)),
        }
    }

    const T: Duration = Duration::from_millis(1);

    #[test]
    fn every_reallocation_bumps_the_generation() {
        let mut d = machine();
        d.issue(ClassId(0), String::new(), vec![0, 1], T);
        let poll = sends(&drain(&mut d));
        assert_eq!(poll.len(), 2, "one call-for-offers per capable node");
        let g1 = poll[0].2;
        d.on_delivery(offer(g1, 1), T);
        d.on_delivery(offer(g1, 0), T);
        // Both bids in: the cheaper node 0 gets the execution.
        let exec = sends(&drain(&mut d));
        assert_eq!(exec.len(), 1);
        let (node, request, g2) = exec[0];
        assert_eq!((node, request), (0, Request::Execute));
        assert!(g2.generation > g1.generation);

        // The execution is lost: node 0 is written off and the query
        // backs off under a fresh generation.
        d.on_delivery(
            Delivery {
                tag: g2,
                reply: None,
            },
            T,
        );
        let (g3, _) = timer(&drain(&mut d)).expect("backoff armed");
        assert!(g3.generation > g2.generation);
        d.on_timer(g3, 2 * T);
        let poll = sends(&drain(&mut d));
        assert_eq!(poll.len(), 1, "the dead node is not polled again");
        let g4 = poll[0].2;
        assert!(g4.generation > g3.generation);
        d.on_delivery(offer(g4, 1), 2 * T);
        let exec = sends(&drain(&mut d));
        let (node, _, g5) = exec[0];
        assert_eq!(node, 1);
        assert!(g5.generation > g4.generation, "re-allocation bumps");

        d.on_delivery(executed(g5, 1), 3 * T);
        assert_eq!(d.placement(0), Some(Some((1, g5.generation))));
        match drain(&mut d).as_slice() {
            [Action::Done(o)] => {
                assert_eq!((o.node, o.retries), (Some(1), 1));
                assert!(o.error.is_none());
            }
            other => panic!("expected one outcome, got {other:?}"),
        }
    }

    #[test]
    fn stale_generation_replies_and_timers_are_ignored() {
        let mut d = machine();
        d.issue(ClassId(0), String::new(), vec![0, 1], T);
        let actions = drain(&mut d);
        let g1 = sends(&actions)[0].2;
        let (deadline, _) = timer(&actions).expect("reply deadline armed");
        d.on_delivery(offer(g1, 0), T);
        d.on_delivery(offer(g1, 1), T);
        let g2 = sends(&drain(&mut d))[0].2;

        // A late reply, a late execution result and the old deadline,
        // all from the finished poll round.
        d.on_delivery(offer(g1, 1), 2 * T);
        d.on_delivery(executed(g1, 0), 2 * T);
        d.on_timer(deadline, 2 * T);
        assert!(drain(&mut d).is_empty(), "stale inputs produce no actions");
        assert_eq!(d.placement(0), None, "the query still waits on {g2:?}");

        d.on_delivery(executed(g2, 0), 3 * T);
        assert_eq!(d.placement(0), Some(Some((0, g2.generation))));
    }

    #[test]
    fn a_dropped_reply_handle_ends_the_poll_round_before_its_deadline() {
        let mut d = machine();
        let (tx, rx) = channel();
        d.issue(ClassId(0), String::new(), vec![0, 1], T);
        let actions = drain(&mut d);
        let (_, deadline) = timer(&actions).expect("reply deadline armed");
        // Both requests are lost in flight: their handles drop unanswered.
        for (_, _, tag) in sends(&actions) {
            drop(ReplyTo::new(tag, tx.clone()));
        }
        for report in rx.try_iter() {
            d.on_delivery(report, 2 * T);
        }
        // The round closed at once with no bid: the query backs off
        // instead of waiting out the deadline.
        let (_, at) = timer(&drain(&mut d)).expect("backoff armed");
        assert_eq!(at, 2 * T + backoff(d.period, 0));
        assert!(at < deadline);
    }
}
