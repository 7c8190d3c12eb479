//! Structured market telemetry: typed events, sinks, a metrics registry,
//! and convergence diagnostics.
//!
//! The paper's central claim (§3, §5) is that QA-NT's decentralized price
//! adjustments *converge*; end-of-run aggregates cannot show that. This
//! module is the observability plane shared by the simulator and the real
//! cluster:
//!
//! * [`TelemetryEvent`] — the typed market-event taxonomy (price
//!   adjustments, supply solves, rejections, assignments, faults),
//! * [`Telemetry`] — a cloneable handle over two planes. The **metrics
//!   plane** (a registry plus span timers) is always cheap; the **event
//!   plane** (a sink of [`TraceRecord`]s) is opt-in. Every emit site
//!   compiles to a branch on whether a sink exists, and event
//!   construction is deferred behind a closure, so no formatting or
//!   allocation happens unless one is installed — a
//!   [`Telemetry::metrics_only`] handle pays no more per emit than a
//!   disabled one,
//! * [`EventSink`] / [`TraceBuffer`] / [`WriterSink`] /
//!   [`CountingSink`] — pluggable destinations (in-memory for tests and
//!   `trace_dump`, JSONL writers for files/stderr, a counter for
//!   overhead benches),
//! * [`MetricsRegistry`] — named counters, gauges, [`Welford`] handles
//!   and log-bucket [`HistogramHandle`]s with a deterministic JSON
//!   snapshot; snapshots from different processes merge exactly, which
//!   is what the fleet stats scrape (`qa-ctl stats`) builds on,
//! * [`Span`] / [`SpanTimer`] / [`SpanAccumulator`] — wall-clock timing
//!   around hot paths (supply solve, assignment round, price update) that
//!   records into the registry, *not* the event stream, so traces stay
//!   byte-deterministic. Hot sites resolve their registry entry once
//!   ([`Telemetry::span_timer`]), so a timed call allocates nothing and
//!   never takes the registry lock,
//! * [`ConvergenceReport`] — per-class cross-node price-variance series
//!   and time-to-stabilization computed from a trace.
//!
//! # Time
//!
//! Events are stamped from a shared microsecond clock set by the driver:
//! the simulator writes sim-time before dispatching each event, the
//! cluster writes wall-clock-since-epoch. Timestamps are therefore
//! deterministic exactly when the driver's clock is (sim yes, cluster no).
//!
//! # Serialization
//!
//! Records serialize as flattened JSONL objects
//! (`{"t_us":…,"type":"price_adjusted",…}`) through the in-tree
//! [`crate::json`] module, and parse back via [`TraceRecord::from_json`]
//! for strict round-trip validation (`scripts/check_trace.sh`).

use crate::json::{Json, ToJson};
use crate::stats::{LogHistogram, Welford};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Why a price moved (§3.1 rejection raises, §3.2 leftover-supply decay,
/// plus the implementation's periodic renormalization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriceReason {
    /// A rejected request raised the price by `×(1 + λ)`.
    Rejection,
    /// Leftover supply at period end lowered the price.
    PeriodDecay,
    /// Geometric-mean renormalization rescaled the whole vector.
    Renormalize,
}

impl PriceReason {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            PriceReason::Rejection => "rejection",
            PriceReason::PeriodDecay => "period_decay",
            PriceReason::Renormalize => "renormalize",
        }
    }

    fn parse(s: &str) -> Result<PriceReason, String> {
        match s {
            "rejection" => Ok(PriceReason::Rejection),
            "period_decay" => Ok(PriceReason::PeriodDecay),
            "renormalize" => Ok(PriceReason::Renormalize),
            other => Err(format!("unknown price reason {other:?}")),
        }
    }
}

/// Severity of a [`TelemetryEvent::Diag`] message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Verbose diagnostics.
    Debug,
    /// Normal progress notes.
    Info,
    /// Something surprising but survivable.
    Warn,
    /// Something went wrong.
    Error,
}

impl Severity {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    fn parse(s: &str) -> Result<Severity, String> {
        match s {
            "debug" => Ok(Severity::Debug),
            "info" => Ok(Severity::Info),
            "warn" => Ok(Severity::Warn),
            "error" => Ok(Severity::Error),
            other => Err(format!("unknown severity {other:?}")),
        }
    }
}

/// A typed market event. Field names are the wire schema; changing them
/// breaks `scripts/check_trace.sh` deliberately.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A node's private price for one class changed.
    PriceAdjusted {
        /// The adjusting node.
        node: u32,
        /// The query class whose price moved.
        class: u32,
        /// Price before the adjustment.
        old: f64,
        /// Price after the adjustment.
        new: f64,
        /// What triggered the move.
        reason: PriceReason,
    },
    /// A node solved its per-period supply (§3.2 quantity allocation).
    SupplyComputed {
        /// The supplying node.
        node: u32,
        /// The period's capacity budget in milliseconds.
        budget_ms: f64,
        /// Offered units per class.
        supply: Vec<u64>,
    },
    /// A node refused a request it was capable of serving (out of supply).
    RequestRejected {
        /// The refusing node.
        node: u32,
        /// The class of the refused request.
        class: u32,
    },
    /// The allocation protocol assigned a query to a node.
    QueryAssigned {
        /// Trace index of the query.
        query: u64,
        /// The query's class.
        class: u32,
        /// The chosen node.
        node: u32,
        /// Resubmissions before this assignment.
        retries: u32,
    },
    /// A query finished executing.
    QueryCompleted {
        /// Trace index of the query.
        query: u64,
        /// The query's class.
        class: u32,
        /// The node that executed it.
        node: u32,
        /// Arrival-to-completion response time in milliseconds.
        response_ms: f64,
    },
    /// A query exhausted its retries (or had no capable node).
    QueryUnserved {
        /// Trace index of the query.
        query: u64,
        /// The query's class.
        class: u32,
        /// Resubmissions spent before giving up.
        retries: u32,
    },
    /// A protocol message to/from a node was lost (fault injection or a
    /// dead mailbox).
    MessageDropped {
        /// The unreachable node.
        node: u32,
        /// Which protocol step lost the message.
        context: String,
    },
    /// A node crashed (§2.2 autonomy: the market must route around it).
    NodeCrashed {
        /// The crashed node.
        node: u32,
    },
    /// A crashed node rejoined the federation.
    NodeRecovered {
        /// The recovered node.
        node: u32,
    },
    /// A new market period began.
    PeriodStarted {
        /// Zero-based period index.
        index: u64,
    },
    /// A free-form severity-tagged diagnostic (replaces `eprintln!`).
    Diag {
        /// Message severity.
        severity: Severity,
        /// Emitting component, e.g. `"sim.federation"`.
        component: String,
        /// Human-readable message.
        message: String,
    },
    /// A transport connection to a peer was established (TCP federation).
    PeerConnected {
        /// The peer node.
        node: u32,
        /// The peer's socket address.
        addr: String,
    },
    /// The magic + protocol-version handshake with a peer completed.
    HandshakeCompleted {
        /// The peer node.
        node: u32,
        /// The negotiated protocol version.
        version: u32,
    },
    /// A connection attempt failed and will be retried after backoff.
    ConnectRetried {
        /// The peer node.
        node: u32,
        /// One-based attempt number that just failed.
        attempt: u32,
        /// Backoff delay before the next attempt, in milliseconds.
        delay_ms: u64,
    },
    /// An undecodable or unwritable wire frame was discarded.
    FrameDropped {
        /// The peer node.
        node: u32,
        /// What was wrong with the frame.
        context: String,
    },
    /// A transport peer died (handshake failure, heartbeat timeout, or a
    /// closed socket).
    PeerDied {
        /// The dead peer.
        node: u32,
        /// Why the transport declared it dead.
        reason: String,
    },
    /// A protocol-exploration schedule began (model-checking harness).
    ScheduleStarted {
        /// Zero-based schedule index within the exploration.
        schedule: u64,
        /// Schedule family: `"random"`, `"systematic"`, or `"replay"`.
        mode: String,
    },
    /// A machine-checked protocol invariant failed under an explored
    /// schedule. The trail in `detail` replays the interleaving.
    InvariantViolated {
        /// Which invariant broke (e.g. `"conservation"`).
        invariant: String,
        /// What was observed, plus the choice trail for replay.
        detail: String,
    },
    /// A shard broker submitted its sealed bid for the next parent-market
    /// clearing (hierarchical tier, DESIGN.md §12).
    BrokerBid {
        /// The bidding broker (= its shard index).
        broker: u32,
        /// Aggregate remaining supply per class across the shard.
        supply: Vec<u64>,
        /// Mean ln-price per class across the shard's live nodes.
        mean_ln_price: Vec<f64>,
    },
    /// The parent market cleared one window over the broker bids.
    ParentCleared {
        /// Price-adjustment rounds the clearing spent (internal to the
        /// parent — not cross-tier messages).
        rounds: u32,
        /// Clearing ln-price per class after the window.
        ln_prices: Vec<f64>,
        /// Demand per class the market could not place this window.
        unserved: Vec<u64>,
    },
    /// Unplaced parent-tier demand was escalated into the next window's
    /// clearing (excess demand flowing up).
    DemandEscalated {
        /// The class whose demand is carried over.
        class: u32,
        /// Units carried into the next window.
        units: u64,
    },
}

impl TelemetryEvent {
    /// The stable `"type"` discriminator used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::PriceAdjusted { .. } => "price_adjusted",
            TelemetryEvent::SupplyComputed { .. } => "supply_computed",
            TelemetryEvent::RequestRejected { .. } => "request_rejected",
            TelemetryEvent::QueryAssigned { .. } => "query_assigned",
            TelemetryEvent::QueryCompleted { .. } => "query_completed",
            TelemetryEvent::QueryUnserved { .. } => "query_unserved",
            TelemetryEvent::MessageDropped { .. } => "message_dropped",
            TelemetryEvent::NodeCrashed { .. } => "node_crashed",
            TelemetryEvent::NodeRecovered { .. } => "node_recovered",
            TelemetryEvent::PeriodStarted { .. } => "period_started",
            TelemetryEvent::Diag { .. } => "diag",
            TelemetryEvent::PeerConnected { .. } => "peer_connected",
            TelemetryEvent::HandshakeCompleted { .. } => "handshake_completed",
            TelemetryEvent::ConnectRetried { .. } => "connect_retried",
            TelemetryEvent::FrameDropped { .. } => "frame_dropped",
            TelemetryEvent::PeerDied { .. } => "peer_died",
            TelemetryEvent::ScheduleStarted { .. } => "schedule_started",
            TelemetryEvent::InvariantViolated { .. } => "invariant_violated",
            TelemetryEvent::BrokerBid { .. } => "broker_bid",
            TelemetryEvent::ParentCleared { .. } => "parent_cleared",
            TelemetryEvent::DemandEscalated { .. } => "demand_escalated",
        }
    }
}

/// One timestamped event, as written to a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Timestamp in microseconds (sim-time or wall-clock-since-epoch,
    /// depending on the driver).
    pub t_us: u64,
    /// The event payload.
    pub event: TelemetryEvent,
}

impl ToJson for TraceRecord {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("t_us".into(), self.t_us.to_json()),
            ("type".into(), Json::Str(self.event.kind().into())),
        ];
        match &self.event {
            TelemetryEvent::PriceAdjusted {
                node,
                class,
                old,
                new,
                reason,
            } => {
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("class".into(), class.to_json()));
                pairs.push(("old".into(), old.to_json()));
                pairs.push(("new".into(), new.to_json()));
                pairs.push(("reason".into(), Json::Str(reason.as_str().into())));
            }
            TelemetryEvent::SupplyComputed {
                node,
                budget_ms,
                supply,
            } => {
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("budget_ms".into(), budget_ms.to_json()));
                pairs.push(("supply".into(), Json::array(supply.iter().copied())));
            }
            TelemetryEvent::RequestRejected { node, class } => {
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("class".into(), class.to_json()));
            }
            TelemetryEvent::QueryAssigned {
                query,
                class,
                node,
                retries,
            } => {
                pairs.push(("query".into(), query.to_json()));
                pairs.push(("class".into(), class.to_json()));
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("retries".into(), retries.to_json()));
            }
            TelemetryEvent::QueryCompleted {
                query,
                class,
                node,
                response_ms,
            } => {
                pairs.push(("query".into(), query.to_json()));
                pairs.push(("class".into(), class.to_json()));
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("response_ms".into(), response_ms.to_json()));
            }
            TelemetryEvent::QueryUnserved {
                query,
                class,
                retries,
            } => {
                pairs.push(("query".into(), query.to_json()));
                pairs.push(("class".into(), class.to_json()));
                pairs.push(("retries".into(), retries.to_json()));
            }
            TelemetryEvent::MessageDropped { node, context } => {
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("context".into(), Json::Str(context.clone())));
            }
            TelemetryEvent::NodeCrashed { node } => {
                pairs.push(("node".into(), node.to_json()));
            }
            TelemetryEvent::NodeRecovered { node } => {
                pairs.push(("node".into(), node.to_json()));
            }
            TelemetryEvent::PeriodStarted { index } => {
                pairs.push(("index".into(), index.to_json()));
            }
            TelemetryEvent::Diag {
                severity,
                component,
                message,
            } => {
                pairs.push(("severity".into(), Json::Str(severity.as_str().into())));
                pairs.push(("component".into(), Json::Str(component.clone())));
                pairs.push(("message".into(), Json::Str(message.clone())));
            }
            TelemetryEvent::PeerConnected { node, addr } => {
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("addr".into(), Json::Str(addr.clone())));
            }
            TelemetryEvent::HandshakeCompleted { node, version } => {
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("version".into(), version.to_json()));
            }
            TelemetryEvent::ConnectRetried {
                node,
                attempt,
                delay_ms,
            } => {
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("attempt".into(), attempt.to_json()));
                pairs.push(("delay_ms".into(), delay_ms.to_json()));
            }
            TelemetryEvent::FrameDropped { node, context } => {
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("context".into(), Json::Str(context.clone())));
            }
            TelemetryEvent::PeerDied { node, reason } => {
                pairs.push(("node".into(), node.to_json()));
                pairs.push(("reason".into(), Json::Str(reason.clone())));
            }
            TelemetryEvent::ScheduleStarted { schedule, mode } => {
                pairs.push(("schedule".into(), schedule.to_json()));
                pairs.push(("mode".into(), Json::Str(mode.clone())));
            }
            TelemetryEvent::InvariantViolated { invariant, detail } => {
                pairs.push(("invariant".into(), Json::Str(invariant.clone())));
                pairs.push(("detail".into(), Json::Str(detail.clone())));
            }
            TelemetryEvent::BrokerBid {
                broker,
                supply,
                mean_ln_price,
            } => {
                pairs.push(("broker".into(), broker.to_json()));
                pairs.push(("supply".into(), Json::array(supply.iter().copied())));
                pairs.push((
                    "mean_ln_price".into(),
                    Json::array(mean_ln_price.iter().copied()),
                ));
            }
            TelemetryEvent::ParentCleared {
                rounds,
                ln_prices,
                unserved,
            } => {
                pairs.push(("rounds".into(), rounds.to_json()));
                pairs.push(("ln_prices".into(), Json::array(ln_prices.iter().copied())));
                pairs.push(("unserved".into(), Json::array(unserved.iter().copied())));
            }
            TelemetryEvent::DemandEscalated { class, units } => {
                pairs.push(("class".into(), class.to_json()));
                pairs.push(("units".into(), units.to_json()));
            }
        }
        Json::Obj(pairs)
    }
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not a non-negative integer"))
}

fn u32_field(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(v, key)?).map_err(|_| format!("field {key:?} exceeds u32"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    match req(v, key)? {
        Json::Float(x) => Ok(*x),
        Json::Int(x) => Ok(*x as f64),
        _ => Err(format!("field {key:?} is not a number")),
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    match req(v, key)? {
        Json::Str(s) => Ok(s),
        _ => Err(format!("field {key:?} is not a string")),
    }
}

fn u64_array_field(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} is not an array"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| format!("field {key:?} has a non-integer element"))
        })
        .collect()
}

fn f64_array_field(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} is not an array"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("field {key:?} has a non-numeric element"))
        })
        .collect()
}

impl TraceRecord {
    /// Parses a record back from its JSON form (strict: unknown `type`
    /// or a missing/ill-typed field is an error).
    pub fn from_json(v: &Json) -> Result<TraceRecord, String> {
        let t_us = u64_field(v, "t_us")?;
        let event = match str_field(v, "type")? {
            "price_adjusted" => TelemetryEvent::PriceAdjusted {
                node: u32_field(v, "node")?,
                class: u32_field(v, "class")?,
                old: f64_field(v, "old")?,
                new: f64_field(v, "new")?,
                reason: PriceReason::parse(str_field(v, "reason")?)?,
            },
            "supply_computed" => TelemetryEvent::SupplyComputed {
                node: u32_field(v, "node")?,
                budget_ms: f64_field(v, "budget_ms")?,
                supply: u64_array_field(v, "supply")?,
            },
            "request_rejected" => TelemetryEvent::RequestRejected {
                node: u32_field(v, "node")?,
                class: u32_field(v, "class")?,
            },
            "query_assigned" => TelemetryEvent::QueryAssigned {
                query: u64_field(v, "query")?,
                class: u32_field(v, "class")?,
                node: u32_field(v, "node")?,
                retries: u32_field(v, "retries")?,
            },
            "query_completed" => TelemetryEvent::QueryCompleted {
                query: u64_field(v, "query")?,
                class: u32_field(v, "class")?,
                node: u32_field(v, "node")?,
                response_ms: f64_field(v, "response_ms")?,
            },
            "query_unserved" => TelemetryEvent::QueryUnserved {
                query: u64_field(v, "query")?,
                class: u32_field(v, "class")?,
                retries: u32_field(v, "retries")?,
            },
            "message_dropped" => TelemetryEvent::MessageDropped {
                node: u32_field(v, "node")?,
                context: str_field(v, "context")?.to_string(),
            },
            "node_crashed" => TelemetryEvent::NodeCrashed {
                node: u32_field(v, "node")?,
            },
            "node_recovered" => TelemetryEvent::NodeRecovered {
                node: u32_field(v, "node")?,
            },
            "period_started" => TelemetryEvent::PeriodStarted {
                index: u64_field(v, "index")?,
            },
            "diag" => TelemetryEvent::Diag {
                severity: Severity::parse(str_field(v, "severity")?)?,
                component: str_field(v, "component")?.to_string(),
                message: str_field(v, "message")?.to_string(),
            },
            "peer_connected" => TelemetryEvent::PeerConnected {
                node: u32_field(v, "node")?,
                addr: str_field(v, "addr")?.to_string(),
            },
            "handshake_completed" => TelemetryEvent::HandshakeCompleted {
                node: u32_field(v, "node")?,
                version: u32_field(v, "version")?,
            },
            "connect_retried" => TelemetryEvent::ConnectRetried {
                node: u32_field(v, "node")?,
                attempt: u32_field(v, "attempt")?,
                delay_ms: u64_field(v, "delay_ms")?,
            },
            "frame_dropped" => TelemetryEvent::FrameDropped {
                node: u32_field(v, "node")?,
                context: str_field(v, "context")?.to_string(),
            },
            "peer_died" => TelemetryEvent::PeerDied {
                node: u32_field(v, "node")?,
                reason: str_field(v, "reason")?.to_string(),
            },
            "schedule_started" => TelemetryEvent::ScheduleStarted {
                schedule: u64_field(v, "schedule")?,
                mode: str_field(v, "mode")?.to_string(),
            },
            "invariant_violated" => TelemetryEvent::InvariantViolated {
                invariant: str_field(v, "invariant")?.to_string(),
                detail: str_field(v, "detail")?.to_string(),
            },
            "broker_bid" => TelemetryEvent::BrokerBid {
                broker: u32_field(v, "broker")?,
                supply: u64_array_field(v, "supply")?,
                mean_ln_price: f64_array_field(v, "mean_ln_price")?,
            },
            "parent_cleared" => TelemetryEvent::ParentCleared {
                rounds: u32_field(v, "rounds")?,
                ln_prices: f64_array_field(v, "ln_prices")?,
                unserved: u64_array_field(v, "unserved")?,
            },
            "demand_escalated" => TelemetryEvent::DemandEscalated {
                class: u32_field(v, "class")?,
                units: u64_field(v, "units")?,
            },
            other => return Err(format!("unknown event type {other:?}")),
        };
        Ok(TraceRecord { t_us, event })
    }

    /// Parses one JSONL line (strict JSON, then [`TraceRecord::from_json`]).
    pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
        TraceRecord::from_json(&Json::parse(line)?)
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Destination for emitted records. Implementations must tolerate being
/// called from multiple threads in turn (the handle serializes calls
/// behind a mutex).
pub trait EventSink: Send {
    /// Consumes one record.
    fn record(&mut self, record: &TraceRecord);
}

#[derive(Default)]
struct BufferSink {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl EventSink for BufferSink {
    fn record(&mut self, record: &TraceRecord) {
        self.records.lock().unwrap().push(record.clone());
    }
}

/// Shared view of an in-memory trace, returned by [`Telemetry::buffered`].
#[derive(Clone, Default)]
pub struct TraceBuffer {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl TraceBuffer {
    /// Snapshot of the records captured so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// `true` iff nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the whole buffer as JSONL (one compact object per line,
    /// each line newline-terminated).
    pub fn to_jsonl(&self) -> String {
        let records = self.records.lock().unwrap();
        let mut out = String::new();
        for r in records.iter() {
            out.push_str(&r.to_json().dump());
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("len", &self.len())
            .finish()
    }
}

/// Streams each record as a compact JSONL line to any writer
/// (`stderr`, a file, …).
pub struct WriterSink<W: std::io::Write + Send> {
    writer: W,
}

impl<W: std::io::Write + Send> WriterSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        WriterSink { writer }
    }
}

impl<W: std::io::Write + Send> EventSink for WriterSink<W> {
    fn record(&mut self, record: &TraceRecord) {
        // Telemetry is best-effort: a broken pipe must not kill the run.
        let _ = writeln!(self.writer, "{}", record.to_json().dump());
    }
}

/// Counts records without storing them — the enabled-path overhead bench
/// uses this so the buffer doesn't grow unboundedly.
#[derive(Clone, Default)]
pub struct CountingSink {
    count: Arc<AtomicU64>,
}

impl CountingSink {
    /// A fresh counter.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Records seen so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl EventSink for CountingSink {
    fn record(&mut self, _record: &TraceRecord) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A named monotonic counter.
#[derive(Clone, Default, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named last-write-wins float gauge.
#[derive(Clone, Default, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, x: f64) {
        self.bits.store(x.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A named streaming mean/variance accumulator.
#[derive(Clone, Default, Debug)]
pub struct WelfordHandle {
    inner: Arc<Mutex<Welford>>,
}

impl WelfordHandle {
    /// Adds one observation.
    pub fn observe(&self, x: f64) {
        self.inner.lock().unwrap().add(x);
    }

    /// Merges a whole accumulator in.
    pub fn merge(&self, other: &Welford) {
        self.inner.lock().unwrap().merge(other);
    }

    /// Snapshot of the accumulator.
    pub fn snapshot(&self) -> Welford {
        self.inner.lock().unwrap().clone()
    }
}

/// A named log-bucket distribution ([`LogHistogram`]). The fixed bucket
/// layout makes any two handles — including one rebuilt from a scraped
/// snapshot — exactly mergeable.
#[derive(Clone, Default, Debug)]
pub struct HistogramHandle {
    inner: Arc<Mutex<LogHistogram>>,
}

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, x: f64) {
        self.inner.lock().unwrap().record(x);
    }

    /// Merges a whole histogram in.
    pub fn merge(&self, other: &LogHistogram) {
        self.inner.lock().unwrap().merge(other);
    }

    /// Snapshot of the histogram.
    pub fn snapshot(&self) -> LogHistogram {
        self.inner.lock().unwrap().clone()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    stats: BTreeMap<String, WelfordHandle>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// The handle named `name`, created on first use. Looking up an existing
/// name allocates nothing: only a new entry pays for its owned key.
fn get_or_create<T: Clone + Default>(map: &mut BTreeMap<String, T>, name: &str) -> T {
    if let Some(handle) = map.get(name) {
        return handle.clone();
    }
    map.entry(name.to_string()).or_default().clone()
}

/// Registry of named metrics. Cloning shares the underlying store;
/// `BTreeMap` keys make [`MetricsRegistry::snapshot`] order-deterministic.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Gets or creates the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&mut self.inner.lock().unwrap().counters, name)
    }

    /// Gets or creates the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&mut self.inner.lock().unwrap().gauges, name)
    }

    /// Gets or creates the Welford accumulator named `name`.
    pub fn welford(&self, name: &str) -> WelfordHandle {
        get_or_create(&mut self.inner.lock().unwrap().stats, name)
    }

    /// Gets or creates the log-bucket histogram named `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        get_or_create(&mut self.inner.lock().unwrap().histograms, name)
    }

    /// JSON snapshot:
    /// `{"counters":{…},"gauges":{…},"stats":{…},"histograms":{…}}`, keys
    /// sorted, empty sections omitted from their maps but the four keys
    /// always present. Histogram entries include `p50`/`p90`/`p99`
    /// quantiles plus the sparse bucket counts that
    /// [`MetricsRegistry::merge_snapshot`] rebuilds from.
    pub fn snapshot(&self) -> Json {
        let inner = self.inner.lock().unwrap();
        let counters = Json::object(
            inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get().to_json())),
        );
        let gauges = Json::object(
            inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get().to_json())),
        );
        let stats = Json::object(
            inner
                .stats
                .iter()
                .map(|(k, w)| (k.clone(), w.snapshot().to_json())),
        );
        let histograms = Json::object(
            inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot().to_json())),
        );
        Json::object([
            ("counters", counters),
            ("gauges", gauges),
            ("stats", stats),
            ("histograms", histograms),
        ])
    }

    /// Merges another registry's [`snapshot`](Self::snapshot) into this
    /// one: counters add, gauges take the incoming value (last write
    /// wins), Welford summaries reconstruct-and-merge, histograms merge
    /// by bucket. This is the fleet-aggregation primitive behind
    /// `qa-ctl stats`: scrape each node's snapshot off the wire, merge
    /// them all into a fresh registry, snapshot that. Unparseable
    /// entries are skipped (a malformed node must not poison the fleet
    /// view); returns the number of entries merged.
    pub fn merge_snapshot(&self, snap: &Json) -> usize {
        let mut merged = 0;
        if let Some(Json::Obj(pairs)) = snap.get("counters") {
            for (name, v) in pairs {
                if let Some(n) = v.as_u64() {
                    self.counter(name).add(n);
                    merged += 1;
                }
            }
        }
        if let Some(Json::Obj(pairs)) = snap.get("gauges") {
            for (name, v) in pairs {
                if let Some(x) = v.as_f64() {
                    self.gauge(name).set(x);
                    merged += 1;
                }
            }
        }
        if let Some(Json::Obj(pairs)) = snap.get("stats") {
            for (name, v) in pairs {
                let Some(n) = v.get("count").and_then(Json::as_u64) else {
                    continue;
                };
                if n == 0 {
                    // An empty accumulator serializes its optionals as
                    // null; merging it is a no-op, but still register the
                    // name so the merged snapshot lists every family.
                    self.welford(name);
                    merged += 1;
                    continue;
                }
                let field = |k: &str| v.get(k).and_then(Json::as_f64);
                let (Some(mean), Some(min), Some(max)) =
                    (field("mean"), field("min"), field("max"))
                else {
                    continue;
                };
                let std_dev = field("std_dev").unwrap_or(0.0);
                self.welford(name)
                    .merge(&Welford::from_summary(n, mean, std_dev, min, max));
                merged += 1;
            }
        }
        if let Some(Json::Obj(pairs)) = snap.get("histograms") {
            for (name, v) in pairs {
                if let Some(h) = LogHistogram::from_json(v) {
                    self.histogram(name).merge(&h);
                    merged += 1;
                }
            }
        }
        merged
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricsRegistry({})", self.snapshot().dump())
    }
}

// ---------------------------------------------------------------------------
// Telemetry handle
// ---------------------------------------------------------------------------

struct TelemetryInner {
    now_us: AtomicU64,
    /// The event plane: `None` on a [`Telemetry::metrics_only`] handle.
    sink: Option<Mutex<Box<dyn EventSink>>>,
    /// The metrics plane, present on every live handle.
    registry: MetricsRegistry,
}

/// Cloneable telemetry handle over two planes:
///
/// * the **metrics plane** — a [`MetricsRegistry`] plus span timers,
///   present on every live handle and cheap enough to leave on;
/// * the **event plane** — an opt-in [`EventSink`]. Only this plane
///   builds [`TraceRecord`]s or takes the sink mutex.
///
/// A disabled handle (the default) carries a `None`, and every
/// [`Telemetry::emit`] / [`Telemetry::span`] call is a single branch.
/// Clones share the sink, clock and registry. Code that must take an
/// eager path so that every event is emitted asks
/// [`Telemetry::records_events`], never [`Telemetry::is_enabled`]: a
/// metrics-only handle has nothing to emit to.
///
/// `label` is the node id stamped on market events emitted *by* that
/// node's pricer/market state; derive per-node handles with
/// [`Telemetry::with_label`].
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
    label: u32,
}

impl Telemetry {
    /// A handle that drops everything (the zero-cost default).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// A handle with a live [`MetricsRegistry`] and no event plane:
    /// [`Telemetry::emit`] never builds a record, and
    /// [`Telemetry::records_events`] is `false`, so every simulator fast
    /// path stays on. This is what `qad` runs by default — the stats
    /// scrape and `/metrics` endpoint always have a registry to answer
    /// from, without paying for (or leaking) JSONL traces nobody asked
    /// for.
    pub fn metrics_only() -> Telemetry {
        Telemetry::with_planes(None)
    }

    /// A handle writing into an in-memory buffer; returns the buffer too.
    pub fn buffered() -> (Telemetry, TraceBuffer) {
        let buffer = TraceBuffer::default();
        let sink = BufferSink {
            records: Arc::clone(&buffer.records),
        };
        (Telemetry::with_sink(Box::new(sink)), buffer)
    }

    /// A handle driving an arbitrary sink.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Telemetry {
        Telemetry::with_planes(Some(sink))
    }

    fn with_planes(sink: Option<Box<dyn EventSink>>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                now_us: AtomicU64::new(0),
                sink: sink.map(Mutex::new),
                registry: MetricsRegistry::new(),
            })),
            label: 0,
        }
    }

    /// Builds a handle from the `QA_TELEMETRY` environment variable:
    /// `stderr` / `stdout` stream JSONL there; anything else (or unset)
    /// is disabled. This is how opt-in diagnostics replace `eprintln!`.
    pub fn from_env() -> Telemetry {
        match std::env::var("QA_TELEMETRY").as_deref() {
            Ok("stderr") => Telemetry::with_sink(Box::new(WriterSink::new(std::io::stderr()))),
            Ok("stdout") => Telemetry::with_sink(Box::new(WriterSink::new(std::io::stdout()))),
            _ => Telemetry::disabled(),
        }
    }

    /// A handle streaming JSONL into a file (truncated on open). Each
    /// record is written immediately, so a process that exits without
    /// explicit teardown still leaves a complete trace — this is what the
    /// multi-process federation bins (`qad --trace`, `qa-ctl --trace`)
    /// use.
    pub fn to_file<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Telemetry> {
        let file = std::fs::File::create(path)?;
        Ok(Telemetry::with_sink(Box::new(WriterSink::new(file))))
    }

    /// `true` iff the handle is live: it has a metrics plane, with or
    /// without an event plane.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` iff an event sink is installed — the only condition under
    /// which [`Telemetry::emit`] builds a record, and so the only one
    /// that may switch a caller onto a per-event eager path.
    #[inline]
    pub fn records_events(&self) -> bool {
        self.sink().is_some()
    }

    #[inline]
    fn sink(&self) -> Option<&Mutex<Box<dyn EventSink>>> {
        self.inner.as_ref().and_then(|inner| inner.sink.as_ref())
    }

    /// The node label stamped by this handle.
    #[inline]
    pub fn label(&self) -> u32 {
        self.label
    }

    /// A clone of this handle that stamps `node` as its label.
    pub fn with_label(&self, node: u32) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            label: node,
        }
    }

    /// Advances the shared event clock (microseconds). The simulator
    /// writes sim-time here before dispatching each event; the cluster
    /// writes wall-clock-since-epoch. The clock is **monotone**: a stamp
    /// below the current value is ignored (`fetch_max`), so concurrent
    /// wall-clock stampers racing between `elapsed()` and the store can
    /// never make trace timestamps regress — which `check_trace` rejects.
    /// The clock only stamps records, so without an event plane this is
    /// a no-op.
    #[inline]
    pub fn set_now_us(&self, t_us: u64) {
        if let Some(inner) = &self.inner {
            if inner.sink.is_some() {
                inner.now_us.fetch_max(t_us, Ordering::Relaxed);
            }
        }
    }

    /// The current event clock (0 without an event plane).
    #[inline]
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.now_us.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Emits one event. The closure only runs when a sink is installed,
    /// so a disabled or metrics-only handle pays one branch — no
    /// allocation, no formatting, no lock.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TelemetryEvent) {
        if let Some(sink) = self.sink() {
            let record = TraceRecord {
                t_us: self.now_us(),
                event: build(),
            };
            sink.lock().unwrap().record(&record);
        }
    }

    /// Severity-tagged diagnostic; the message closure only runs when a
    /// sink is installed (no `format!` cost otherwise).
    #[inline]
    pub fn diag(&self, severity: Severity, component: &str, message: impl FnOnce() -> String) {
        self.emit(|| TelemetryEvent::Diag {
            severity,
            component: component.to_string(),
            message: message(),
        });
    }

    /// The shared metrics registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// Resolves the registry Welford named `span.{name}_us` once, for a
    /// site that times many calls: each [`SpanTimer::start`] then costs
    /// two clock reads and one uncontended lock, with no key formatting,
    /// allocation or registry lookup. Inert on a disabled handle.
    pub fn span_timer(&self, name: &'static str) -> SpanTimer {
        SpanTimer {
            stat: self
                .registry()
                .map(|r| r.welford(&format!("span.{name}_us"))),
            name,
        }
    }

    /// Starts a wall-clock timing span. On drop the elapsed microseconds
    /// are recorded into the registry Welford named `span.{name}_us` —
    /// *not* the event stream, which keeps traces byte-deterministic.
    /// Disabled handles return an inert guard without reading the clock.
    /// Each call looks the name up afresh; hot sites pre-resolve it with
    /// [`Telemetry::span_timer`].
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        if self.inner.is_none() {
            return Span { state: None, name };
        }
        self.span_timer(name).start()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("records_events", &self.records_events())
            .field("label", &self.label)
            .finish()
    }
}

/// A span site with its registry entry resolved once (see
/// [`Telemetry::span_timer`]). Cloning shares the entry.
#[derive(Clone)]
pub struct SpanTimer {
    stat: Option<WelfordHandle>,
    name: &'static str,
}

impl SpanTimer {
    /// Starts one timed call; the guard records on drop. An inert timer
    /// returns an inert guard without reading the clock.
    #[inline]
    pub fn start(&self) -> Span {
        Span {
            state: self.stat.clone().map(|stat| (stat, Instant::now())),
            name: self.name,
        }
    }
}

impl fmt::Debug for SpanTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanTimer")
            .field("name", &self.name)
            .field("enabled", &self.stat.is_some())
            .finish()
    }
}

/// Timing guard returned by [`Telemetry::span`] and [`SpanTimer::start`].
pub struct Span {
    state: Option<(WelfordHandle, Instant)>,
    name: &'static str,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((stat, start)) = self.state.take() {
            stat.observe(start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.name)
            .field("enabled", &self.state.is_some())
            .finish()
    }
}

/// An owner-local span accumulator for a site too hot for even one lock
/// per call (the simulator's per-query allocation). Timed calls add into
/// a private [`Welford`]; [`SpanAccumulator::flush`] merges it into the
/// registry's `span.{name}_us`, so counts stay exact and the registry
/// lags by at most one flush interval.
#[derive(Debug)]
pub struct SpanAccumulator {
    timer: SpanTimer,
    local: Welford,
}

impl SpanAccumulator {
    /// Resolves `span.{name}_us` on `telemetry` (inert when disabled).
    pub fn new(telemetry: &Telemetry, name: &'static str) -> SpanAccumulator {
        SpanAccumulator {
            timer: telemetry.span_timer(name),
            local: Welford::new(),
        }
    }

    /// Starts one timed call: `None` (no clock read) when inert.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.timer.stat.as_ref().map(|_| Instant::now())
    }

    /// Ends the call begun by [`SpanAccumulator::start`].
    #[inline]
    pub fn stop(&mut self, started: Option<Instant>) {
        if let Some(start) = started {
            self.local.add(start.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// Merges the calls timed since the last flush into the registry.
    pub fn flush(&mut self) {
        if let Some(stat) = &self.timer.stat {
            if self.local.count() > 0 {
                stat.merge(&std::mem::take(&mut self.local));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Convergence diagnostics
// ---------------------------------------------------------------------------

/// Per-class convergence series extracted from a trace.
#[derive(Debug, Clone)]
pub struct ClassConvergence {
    /// The query class.
    pub class: u32,
    /// Total price adjustments for this class across all nodes.
    pub adjustments: u64,
    /// Mean final price across nodes that ever priced this class.
    pub final_mean_price: f64,
    /// Per-period population variance of `ln(price)` across nodes —
    /// the paper's price-dispersion view of convergence.
    pub log_price_variance: Vec<f64>,
    /// Per-period mean `|Δ ln(price)|` over the period's adjustments
    /// (0 for quiet periods).
    pub mean_abs_log_step: Vec<f64>,
    /// First period after which `mean_abs_log_step` stays at or below
    /// the tolerance for the rest of the run; `None` if prices were
    /// still moving in the final period.
    pub stabilized_at_period: Option<u64>,
}

impl ToJson for ClassConvergence {
    fn to_json(&self) -> Json {
        crate::json_obj! {
            "class": self.class,
            "adjustments": self.adjustments,
            "final_mean_price": self.final_mean_price,
            "log_price_variance": self.log_price_variance,
            "mean_abs_log_step": self.mean_abs_log_step,
            "stabilized_at_period": self.stabilized_at_period,
        }
    }
}

/// Convergence summary computed from a trace: did the decentralized
/// price adjustments settle, and how fast?
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Period length (µs) the trace was bucketed by.
    pub period_us: u64,
    /// Number of periods covered.
    pub periods: u64,
    /// Distinct nodes that emitted price or supply events.
    pub nodes: u64,
    /// Total price-adjustment events.
    pub price_adjustments: u64,
    /// Total request-rejection events.
    pub rejections: u64,
    /// Total supply-solve events.
    pub supply_events: u64,
    /// Total dropped-message events.
    pub dropped_messages: u64,
    /// Total node-crash events.
    pub crashes: u64,
    /// Total broker-bid events (hierarchical tier).
    pub broker_bids: u64,
    /// Total parent-market clearings (hierarchical tier).
    pub parent_clearings: u64,
    /// Total units of demand escalated across clearing windows.
    pub escalated_units: u64,
    /// Per-class series, sorted by class id.
    pub per_class: Vec<ClassConvergence>,
}

impl ToJson for ConvergenceReport {
    fn to_json(&self) -> Json {
        crate::json_obj! {
            "period_us": self.period_us,
            "periods": self.periods,
            "nodes": self.nodes,
            "price_adjustments": self.price_adjustments,
            "rejections": self.rejections,
            "supply_events": self.supply_events,
            "dropped_messages": self.dropped_messages,
            "crashes": self.crashes,
            "broker_bids": self.broker_bids,
            "parent_clearings": self.parent_clearings,
            "escalated_units": self.escalated_units,
            "per_class": self.per_class,
        }
    }
}

/// Population variance of `ln(x)` over the *positive* values.
/// Non-positive prices have no logarithm — a node that zeroes a price
/// (e.g. while crashed) would otherwise inject `−∞`/NaN into the series
/// and, through it, `null`-holes into the report JSON.
fn log_variance(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let mut n = 0u64;
    let mut sum = 0.0;
    for v in values.clone() {
        if v <= 0.0 {
            continue;
        }
        n += 1;
        sum += v.ln();
    }
    if n == 0 {
        return 0.0;
    }
    let mean = sum / n as f64;
    let mut ss = 0.0;
    for v in values {
        if v <= 0.0 {
            continue;
        }
        let d = v.ln() - mean;
        ss += d * d;
    }
    ss / n as f64
}

impl ConvergenceReport {
    /// Computes the report from a trace. Records must be in emission
    /// order (traces are); `period_us` buckets them, `tol` is the
    /// `mean_abs_log_step` threshold below which a period counts as
    /// quiet.
    ///
    /// # Panics
    /// Panics if `period_us == 0`.
    pub fn from_records(records: &[TraceRecord], period_us: u64, tol: f64) -> ConvergenceReport {
        assert!(period_us > 0, "period_us must be positive");
        // Latest price per (class, node), plus per-class/per-period step
        // accumulators.
        let mut prices: BTreeMap<u32, BTreeMap<u32, f64>> = BTreeMap::new();
        let mut variance: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        let mut steps: BTreeMap<u32, Vec<Welford>> = BTreeMap::new();
        let mut nodes: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut price_adjustments = 0u64;
        let mut rejections = 0u64;
        let mut supply_events = 0u64;
        let mut dropped_messages = 0u64;
        let mut crashes = 0u64;
        let mut broker_bids = 0u64;
        let mut parent_clearings = 0u64;
        let mut escalated_units = 0u64;
        let mut adjustments: BTreeMap<u32, u64> = BTreeMap::new();

        let mut cur_period = 0u64;
        let close_period = |prices: &BTreeMap<u32, BTreeMap<u32, f64>>,
                            variance: &mut BTreeMap<u32, Vec<f64>>,
                            period: u64| {
            for (&class, by_node) in prices {
                let series = variance.entry(class).or_default();
                let v = log_variance(by_node.values().copied());
                while (series.len() as u64) <= period {
                    // Pad with the last known value so late-appearing
                    // classes still get a full-length series.
                    let last = series.last().copied().unwrap_or(0.0);
                    series.push(last);
                }
                series[period as usize] = v;
            }
        };

        for rec in records {
            let period = rec.t_us / period_us;
            while cur_period < period {
                close_period(&prices, &mut variance, cur_period);
                cur_period += 1;
            }
            match &rec.event {
                TelemetryEvent::PriceAdjusted {
                    node,
                    class,
                    old,
                    new,
                    ..
                } => {
                    price_adjustments += 1;
                    *adjustments.entry(*class).or_default() += 1;
                    nodes.insert(*node);
                    prices.entry(*class).or_default().insert(*node, *new);
                    if *old > 0.0 && *new > 0.0 {
                        let series = steps.entry(*class).or_default();
                        while (series.len() as u64) <= period {
                            series.push(Welford::new());
                        }
                        series[period as usize].add((new.ln() - old.ln()).abs());
                    }
                }
                TelemetryEvent::RequestRejected { node, .. } => {
                    rejections += 1;
                    nodes.insert(*node);
                }
                TelemetryEvent::SupplyComputed { node, .. } => {
                    supply_events += 1;
                    nodes.insert(*node);
                }
                TelemetryEvent::MessageDropped { .. } => dropped_messages += 1,
                TelemetryEvent::NodeCrashed { .. } => crashes += 1,
                TelemetryEvent::BrokerBid { .. } => broker_bids += 1,
                TelemetryEvent::ParentCleared { .. } => parent_clearings += 1,
                TelemetryEvent::DemandEscalated { units, .. } => escalated_units += units,
                _ => {}
            }
        }
        close_period(&prices, &mut variance, cur_period);
        let periods = cur_period + 1;

        let per_class = prices
            .iter()
            .map(|(&class, by_node)| {
                let var_series = variance.get(&class).cloned().unwrap_or_default();
                let mut step_series: Vec<f64> = steps
                    .get(&class)
                    .map(|ws| ws.iter().map(|w| w.mean().unwrap_or(0.0)).collect())
                    .unwrap_or_default();
                step_series.resize(periods as usize, 0.0);
                // Trailing-quiet scan: the first period of the final
                // all-quiet suffix.
                let mut stabilized = Some(0u64);
                for (i, &s) in step_series.iter().enumerate() {
                    if s > tol {
                        stabilized = if i + 1 < step_series.len() {
                            Some(i as u64 + 1)
                        } else {
                            None
                        };
                    }
                }
                let final_mean_price = if by_node.is_empty() {
                    0.0
                } else {
                    by_node.values().sum::<f64>() / by_node.len() as f64
                };
                ClassConvergence {
                    class,
                    adjustments: adjustments.get(&class).copied().unwrap_or(0),
                    final_mean_price,
                    log_price_variance: var_series,
                    mean_abs_log_step: step_series,
                    stabilized_at_period: stabilized,
                }
            })
            .collect();

        ConvergenceReport {
            period_us,
            periods,
            nodes: nodes.len() as u64,
            price_adjustments,
            rejections,
            supply_events,
            dropped_messages,
            crashes,
            broker_bids,
            parent_clearings,
            escalated_units,
            per_class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_event_kinds() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::PriceAdjusted {
                node: 3,
                class: 1,
                old: 1.0,
                new: 1.25,
                reason: PriceReason::Rejection,
            },
            TelemetryEvent::SupplyComputed {
                node: 3,
                budget_ms: 500.0,
                supply: vec![4, 0, 7],
            },
            TelemetryEvent::RequestRejected { node: 2, class: 0 },
            TelemetryEvent::QueryAssigned {
                query: 42,
                class: 1,
                node: 5,
                retries: 2,
            },
            TelemetryEvent::QueryCompleted {
                query: 42,
                class: 1,
                node: 5,
                response_ms: 123.5,
            },
            TelemetryEvent::QueryUnserved {
                query: 43,
                class: 0,
                retries: 8,
            },
            TelemetryEvent::MessageDropped {
                node: 7,
                context: "poll".to_string(),
            },
            TelemetryEvent::NodeCrashed { node: 7 },
            TelemetryEvent::NodeRecovered { node: 7 },
            TelemetryEvent::PeriodStarted { index: 9 },
            TelemetryEvent::Diag {
                severity: Severity::Warn,
                component: "sim.federation".to_string(),
                message: "something \"quoted\"".to_string(),
            },
            TelemetryEvent::PeerConnected {
                node: 4,
                addr: "127.0.0.1:4410".to_string(),
            },
            TelemetryEvent::HandshakeCompleted {
                node: 4,
                version: 1,
            },
            TelemetryEvent::ConnectRetried {
                node: 4,
                attempt: 2,
                delay_ms: 160,
            },
            TelemetryEvent::FrameDropped {
                node: 4,
                context: "unknown tag 0xfe".to_string(),
            },
            TelemetryEvent::PeerDied {
                node: 4,
                reason: "heartbeat timeout".to_string(),
            },
            TelemetryEvent::ScheduleStarted {
                schedule: 17,
                mode: "systematic".to_string(),
            },
            TelemetryEvent::InvariantViolated {
                invariant: "conservation".to_string(),
                detail: "query 3 committed twice; trail deliver:1/3".to_string(),
            },
            TelemetryEvent::BrokerBid {
                broker: 2,
                supply: vec![14, 0, 3],
                mean_ln_price: vec![0.25, -1.5, 3.0],
            },
            TelemetryEvent::ParentCleared {
                rounds: 6,
                ln_prices: vec![0.5, -0.125],
                unserved: vec![0, 11],
            },
            TelemetryEvent::DemandEscalated {
                class: 1,
                units: 11,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_strict_parser() {
        for (i, event) in all_event_kinds().into_iter().enumerate() {
            let rec = TraceRecord {
                t_us: i as u64 * 500_000,
                event,
            };
            let line = rec.to_json().dump();
            let back = TraceRecord::parse_line(&line)
                .unwrap_or_else(|e| panic!("round-trip failed for {line}: {e}"));
            assert_eq!(back, rec);
            // Canonical: re-serializing the parsed record reproduces the
            // exact line (this is what check_trace enforces).
            assert_eq!(back.to_json().dump(), line);
        }
    }

    #[test]
    fn clock_is_monotone_under_stale_stamps() {
        let (tel, buf) = Telemetry::buffered();
        tel.set_now_us(1_000);
        // A racing thread that computed its elapsed time earlier must not
        // drag the clock (and hence trace timestamps) backwards.
        tel.set_now_us(400);
        tel.emit(|| TelemetryEvent::PeriodStarted { index: 0 });
        assert_eq!(buf.records()[0].t_us, 1_000);
    }

    #[test]
    fn parse_rejects_unknown_type_and_missing_fields() {
        assert!(TraceRecord::parse_line(r#"{"t_us":0,"type":"nope"}"#).is_err());
        assert!(TraceRecord::parse_line(r#"{"t_us":0,"type":"node_crashed"}"#).is_err());
        assert!(TraceRecord::parse_line(r#"{"type":"node_crashed","node":1}"#).is_err());
        assert!(TraceRecord::parse_line("not json").is_err());
    }

    #[test]
    fn disabled_handle_runs_no_closures() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.emit(|| panic!("closure must not run when disabled"));
        tel.diag(Severity::Error, "x", || {
            panic!("message must not build when disabled")
        });
        tel.set_now_us(123);
        assert_eq!(tel.now_us(), 0);
        let _span = tel.span("noop");
        assert!(tel.registry().is_none());
    }

    #[test]
    fn buffered_handle_captures_in_order_with_clock_and_label() {
        let (tel, buf) = Telemetry::buffered();
        let node3 = tel.with_label(3);
        tel.set_now_us(1_000);
        node3.emit(|| TelemetryEvent::NodeCrashed {
            node: node3.label(),
        });
        // The clock is shared across labeled clones.
        node3.set_now_us(2_000);
        tel.emit(|| TelemetryEvent::NodeRecovered { node: 3 });
        let records = buf.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].t_us, 1_000);
        assert_eq!(records[0].event, TelemetryEvent::NodeCrashed { node: 3 });
        assert_eq!(records[1].t_us, 2_000);
        let jsonl = buf.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            TraceRecord::parse_line(line).unwrap();
        }
    }

    #[test]
    fn registry_snapshot_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count").add(2);
        reg.counter("a.count").incr();
        reg.gauge("fairness").set(0.5);
        reg.welford("latency_us").observe(10.0);
        reg.welford("latency_us").observe(20.0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("counters").unwrap().keys().unwrap(),
            vec!["a.count", "b.count"]
        );
        assert_eq!(
            snap.get("counters").unwrap().get("b.count").unwrap(),
            &Json::Int(2)
        );
        assert_eq!(
            snap.get("stats")
                .unwrap()
                .get("latency_us")
                .unwrap()
                .get("count")
                .unwrap(),
            &Json::Int(2)
        );
        assert_eq!(reg.welford("latency_us").snapshot().count(), 2);
        // All four sections are present even when empty.
        assert_eq!(
            snap.keys().unwrap(),
            vec!["counters", "gauges", "stats", "histograms"]
        );
        assert_eq!(snap.get("histograms").unwrap().keys().unwrap().len(), 0);
    }

    #[test]
    fn registry_histograms_snapshot_with_quantiles() {
        let reg = MetricsRegistry::new();
        for i in 0..100 {
            reg.histogram("alloc_ms").observe(i as f64);
        }
        let snap = reg.snapshot();
        let h = snap.get("histograms").unwrap().get("alloc_ms").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(100));
        assert!(h.get("p50").unwrap().as_f64().unwrap() >= 49.0);
        assert!(h.get("p99").unwrap().as_f64().unwrap() >= 99.0);
        assert_eq!(reg.histogram("alloc_ms").snapshot().count(), 100);
    }

    #[test]
    fn registry_merge_snapshot_aggregates_across_processes() {
        // Two "remote" registries, scraped as JSON, merged into a fresh one.
        let (a, b, fleet) = (
            MetricsRegistry::new(),
            MetricsRegistry::new(),
            MetricsRegistry::new(),
        );
        a.counter("qad.queries").add(3);
        b.counter("qad.queries").add(4);
        a.gauge("qad.backlog_ms").set(10.0);
        b.gauge("qad.backlog_ms").set(20.0);
        for x in [1.0, 2.0, 3.0] {
            a.welford("lat").observe(x);
            a.histogram("lat_h").observe(x);
        }
        for x in [4.0, 5.0] {
            b.welford("lat").observe(x);
            b.histogram("lat_h").observe(x);
        }
        b.welford("empty_family").snapshot(); // registered, never observed
        for snap in [a.snapshot(), b.snapshot()] {
            // Round-trip through the dump, as the wire does.
            let parsed = Json::parse(&snap.dump()).unwrap();
            assert!(fleet.merge_snapshot(&parsed) > 0);
        }
        assert_eq!(fleet.counter("qad.queries").get(), 7);
        assert_eq!(fleet.gauge("qad.backlog_ms").get(), 20.0);
        let lat = fleet.welford("lat").snapshot();
        assert_eq!(lat.count(), 5);
        assert!((lat.mean().unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(lat.min(), Some(1.0));
        assert_eq!(lat.max(), Some(5.0));
        let lat_h = fleet.histogram("lat_h").snapshot();
        assert_eq!(lat_h.count(), 5);
        assert!((lat_h.sum() - 15.0).abs() < 1e-9);
        // Empty families still appear in the merged snapshot.
        assert!(fleet
            .snapshot()
            .get("stats")
            .unwrap()
            .get("empty_family")
            .is_some());
        // Garbage input merges nothing and does not panic.
        assert_eq!(fleet.merge_snapshot(&Json::Null), 0);
    }

    #[test]
    fn metrics_only_has_registry_but_silent_event_stream() {
        // A live metrics plane with no event plane: no sink, so nothing is
        // built, stamped or recorded, and no caller is pushed off a fast
        // path by it.
        let tel = Telemetry::metrics_only();
        assert!(tel.is_enabled());
        assert!(!tel.records_events());
        tel.emit(|| TelemetryEvent::PeriodStarted { index: 0 });
        tel.set_now_us(5_000);
        assert_eq!(tel.now_us(), 0, "the event clock only stamps records");
        let reg = tel.registry().expect("metrics-only handle has a registry");
        reg.counter("x").incr();
        assert_eq!(reg.counter("x").get(), 1);
    }

    #[test]
    fn metrics_only_never_runs_an_emit_closure() {
        let tel = Telemetry::metrics_only().with_label(7);
        tel.emit(|| panic!("a metrics-only handle must not build events"));
        tel.diag(Severity::Error, "x", || {
            panic!("a metrics-only handle must not build messages")
        });
    }

    #[test]
    fn records_events_tracks_the_event_plane() {
        assert!(!Telemetry::disabled().records_events());
        assert!(!Telemetry::metrics_only().records_events());
        let (tel, _buf) = Telemetry::buffered();
        assert!(tel.records_events());
        assert!(tel.with_label(3).records_events());
        assert!(Telemetry::with_sink(Box::new(CountingSink::new())).records_events());
    }

    #[test]
    fn pre_resolved_span_records_exact_count() {
        let tel = Telemetry::metrics_only();
        let timer = tel.span_timer("solve");
        for _ in 0..37 {
            let _span = timer.start();
        }
        // A clone shares the resolved entry, and the ad-hoc path lands in
        // the same family.
        drop(timer.clone().start());
        drop(tel.span("solve"));
        let stat = tel.registry().unwrap().welford("span.solve_us").snapshot();
        assert_eq!(stat.count(), 39);
        assert!(stat.min().unwrap() >= 0.0);

        let mut acc = SpanAccumulator::new(&tel, "allocate");
        for _ in 0..1_000 {
            let started = acc.start();
            acc.stop(started);
        }
        let reg = tel.registry().unwrap();
        assert_eq!(reg.welford("span.allocate_us").snapshot().count(), 0);
        acc.flush();
        acc.flush(); // nothing new: a no-op
        assert_eq!(reg.welford("span.allocate_us").snapshot().count(), 1_000);

        // Disabled handles resolve inert timers that never read the clock.
        let off = Telemetry::disabled();
        let _span = off.span_timer("solve").start();
        let mut acc = SpanAccumulator::new(&off, "allocate");
        assert!(acc.start().is_none());
        acc.stop(None);
        acc.flush();
    }

    #[test]
    fn span_records_into_registry() {
        let (tel, _buf) = Telemetry::buffered();
        {
            let _span = tel.span("work");
        }
        let snap = tel.registry().unwrap().snapshot();
        let count = snap
            .get("stats")
            .unwrap()
            .get("span.work_us")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(count, 1);
        // Spans never touch the event stream (byte-determinism contract).
        assert!(_buf.is_empty());
    }

    #[test]
    fn counting_sink_counts_without_storing() {
        let sink = CountingSink::new();
        let tel = Telemetry::with_sink(Box::new(sink.clone()));
        for _ in 0..5 {
            tel.emit(|| TelemetryEvent::PeriodStarted { index: 0 });
        }
        assert_eq!(sink.count(), 5);
    }

    fn adj(t_us: u64, node: u32, class: u32, old: f64, new: f64) -> TraceRecord {
        TraceRecord {
            t_us,
            event: TelemetryEvent::PriceAdjusted {
                node,
                class,
                old,
                new,
                reason: PriceReason::Rejection,
            },
        }
    }

    #[test]
    fn convergence_report_detects_stabilization() {
        let period = 1_000u64;
        // Class 0: big moves in periods 0–1 on two nodes, silent after.
        let records = vec![
            adj(0, 0, 0, 1.0, 2.0),
            adj(10, 1, 0, 1.0, 1.5),
            adj(1_500, 0, 0, 2.0, 2.5),
            TraceRecord {
                t_us: 3_500,
                event: TelemetryEvent::SupplyComputed {
                    node: 0,
                    budget_ms: 500.0,
                    supply: vec![1],
                },
            },
        ];
        let report = ConvergenceReport::from_records(&records, period, 1e-3);
        assert_eq!(report.periods, 4);
        assert_eq!(report.nodes, 2);
        assert_eq!(report.price_adjustments, 3);
        assert_eq!(report.supply_events, 1);
        let c0 = &report.per_class[0];
        assert_eq!(c0.class, 0);
        assert_eq!(c0.adjustments, 3);
        assert_eq!(c0.mean_abs_log_step.len(), 4);
        assert!(c0.mean_abs_log_step[0] > 0.0);
        assert!(c0.mean_abs_log_step[1] > 0.0);
        assert_eq!(c0.mean_abs_log_step[2], 0.0);
        // Quiet from period 2 onward.
        assert_eq!(c0.stabilized_at_period, Some(2));
        // Final prices 2.5 and 1.5 → mean 2.0, nonzero dispersion.
        assert!((c0.final_mean_price - 2.0).abs() < 1e-12);
        assert!(c0.log_price_variance[3] > 0.0);
    }

    #[test]
    fn convergence_report_counts_broker_tier_events() {
        let records = vec![
            TraceRecord {
                t_us: 0,
                event: TelemetryEvent::BrokerBid {
                    broker: 0,
                    supply: vec![4],
                    mean_ln_price: vec![0.0],
                },
            },
            TraceRecord {
                t_us: 1,
                event: TelemetryEvent::BrokerBid {
                    broker: 1,
                    supply: vec![2],
                    mean_ln_price: vec![0.5],
                },
            },
            TraceRecord {
                t_us: 2,
                event: TelemetryEvent::ParentCleared {
                    rounds: 1,
                    ln_prices: vec![0.1],
                    unserved: vec![3],
                },
            },
            TraceRecord {
                t_us: 3,
                event: TelemetryEvent::DemandEscalated { class: 0, units: 3 },
            },
            TraceRecord {
                t_us: 1_200,
                event: TelemetryEvent::DemandEscalated { class: 0, units: 2 },
            },
        ];
        let report = ConvergenceReport::from_records(&records, 1_000, 1e-3);
        assert_eq!(report.broker_bids, 2);
        assert_eq!(report.parent_clearings, 1);
        assert_eq!(report.escalated_units, 5);
        let dump = report.to_json().dump();
        assert!(dump.contains("\"broker_bids\":2"));
    }

    #[test]
    fn convergence_report_unstable_to_the_end_is_none() {
        let records = vec![adj(0, 0, 0, 1.0, 2.0), adj(2_500, 0, 0, 2.0, 4.0)];
        let report = ConvergenceReport::from_records(&records, 1_000, 1e-3);
        assert_eq!(report.per_class[0].stabilized_at_period, None);
    }

    #[test]
    fn convergence_report_empty_trace() {
        let report = ConvergenceReport::from_records(&[], 1_000, 1e-3);
        assert_eq!(report.periods, 1);
        assert_eq!(report.nodes, 0);
        assert!(report.per_class.is_empty());
        // The report itself serializes.
        assert!(report.to_json().dump().contains("\"periods\":1"));
    }

    #[test]
    fn convergence_report_single_period_trace() {
        // Every record lands in period 0; nothing to pad, nothing NaN.
        let records = vec![adj(0, 0, 7, 1.0, 2.0), adj(500, 1, 7, 1.0, 3.0)];
        let report = ConvergenceReport::from_records(&records, 1_000, 1e-3);
        assert_eq!(report.periods, 1);
        assert_eq!(report.nodes, 2);
        let c = &report.per_class[0];
        assert_eq!(c.class, 7);
        assert_eq!(c.log_price_variance.len(), 1);
        assert_eq!(c.mean_abs_log_step.len(), 1);
        assert!(c.log_price_variance[0].is_finite());
        assert!(c.mean_abs_log_step[0].is_finite());
        // A single still-moving period never counts as stabilized.
        assert_eq!(c.stabilized_at_period, None);
        report.to_json().dump();
    }

    #[test]
    fn convergence_report_zero_price_class_has_no_nans() {
        // A class whose every market node reports a non-positive price
        // (e.g. zeroed while crashed): ln() is undefined there, but the
        // report must stay finite — no NaN/±∞ leaking into JSON as
        // spurious nulls.
        let records = vec![
            adj(0, 0, 3, 1.0, 0.0),
            adj(10, 1, 3, 1.0, 0.0),
            adj(2_500, 0, 3, 0.0, 0.0),
        ];
        let report = ConvergenceReport::from_records(&records, 1_000, 1e-3);
        let c = &report.per_class[0];
        assert_eq!(c.class, 3);
        assert_eq!(c.final_mean_price, 0.0);
        assert!(c.log_price_variance.iter().all(|v| v.is_finite()));
        assert!(c.mean_abs_log_step.iter().all(|v| v.is_finite()));
        // Mixed case: one live node (positive price), one zeroed — the
        // variance is computed over the positive prices only.
        let mixed = vec![adj(0, 0, 3, 1.0, 2.0), adj(10, 1, 3, 1.0, 0.0)];
        let report = ConvergenceReport::from_records(&mixed, 1_000, 1e-3);
        let c = &report.per_class[0];
        assert!(c.log_price_variance.iter().all(|v| v.is_finite()));
        let dump = report.to_json().dump();
        assert!(!dump.contains("NaN") && !dump.contains("inf"));
    }
}
