//! `qad` — one federation node as an OS process.
//!
//! The paper's deployment is five autonomous PCs; `qad` is that: a server
//! process owning one node's data shard, estimator and QA-NT market
//! state, reachable only over TCP. A federation is N `qad` processes plus
//! a driver (`qa-ctl`, or any [`crate::transport::TcpTransport`] user).
//!
//! ## Federation config
//!
//! Every process of a federation — servers and driver alike — is pointed
//! at the same JSON config file ([`FedConfig`]). The file carries the
//! *generation parameters*, not the data: each side regenerates the
//! deterministic [`ClusterSpec`] from `spec_seed`, so a node process
//! loads exactly the shard the in-process fleet would have given it, and
//! the driver prices/allocates identically. This is how the multi-process
//! federation stays seed-for-seed comparable with the threaded one.
//!
//! ## Process contract
//!
//! `qad --listen 127.0.0.1:0 --node-id 3 --config fed.json` binds,
//! prints `qad listening <addr>` on stdout (the ephemeral-port discovery
//! contract `qa-ctl` relies on), and serves drivers until a `Shutdown`
//! frame arrives. A driver that disconnects without `Shutdown` is not
//! fatal — the server goes back to accepting, so a crashed driver can
//! reconnect to a still-warm market.

use crate::driver::qant_config_for;
use crate::node::{spawn_node_with_faults, NodeMsg};
use crate::setup::ClusterSpec;
use crate::transport::{Delivery, NodeStats, Reply, ReplyTag, ReplyTo};
use crate::ClusterMechanism;
use qa_net::{ConnConfig, Connection, WireMsg};
use qa_simnet::json::Json;
use qa_simnet::telemetry::Telemetry;
use qa_simnet::{FaultPlan, LinkFaults};
use qa_workload::ClassId;
use std::io::Write;
use std::net::TcpListener;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A federation description: everything needed to regenerate the
/// deterministic deployment ([`ClusterSpec`]) and drive the workload,
/// shared verbatim by every process of the federation.
#[derive(Debug, Clone, PartialEq)]
pub struct FedConfig {
    /// Seed for [`ClusterSpec::generate`] (tables, views, copies,
    /// classes, slowdowns).
    pub spec_seed: u64,
    /// Fleet size.
    pub num_nodes: usize,
    /// Base tables (paper: 20).
    pub num_tables: usize,
    /// Views (paper: 80).
    pub num_views: usize,
    /// Query classes.
    pub num_classes: usize,
    /// Rows per base table.
    pub rows_per_table: usize,
    /// Allocation mechanism.
    pub mechanism: ClusterMechanism,
    /// Workload/data seed ([`crate::ClusterConfig::seed`]).
    pub seed: u64,
    /// Queries to issue.
    pub num_queries: usize,
    /// Mean inter-arrival (ms).
    pub mean_interarrival_ms: u64,
    /// QA-NT market period (ms).
    pub period_ms: u64,
    /// Resubmission budget per query.
    pub max_retries: u32,
    /// Negotiation reply deadline (ms).
    pub reply_timeout_ms: u64,
    /// Uniform negotiation-reply loss probability on every node's link.
    pub drop_prob: f64,
}

impl FedConfig {
    /// A CI-scale example federation (the `qa-ctl init` template).
    pub fn example() -> FedConfig {
        FedConfig {
            spec_seed: 5,
            num_nodes: 5,
            num_tables: 8,
            num_views: 12,
            num_classes: 6,
            rows_per_table: 60,
            mechanism: ClusterMechanism::QaNt,
            seed: 11,
            num_queries: 40,
            mean_interarrival_ms: 5,
            period_ms: 40,
            max_retries: 100,
            // Over real sockets the reply deadline *is* the loss
            // detector (an in-process fleet hangs up dropped-reply
            // senders; a network cannot), so it stays at period scale:
            // a lost negotiation costs one deadline, then §2.2 resubmits.
            reply_timeout_ms: 250,
            drop_prob: 0.0,
        }
    }

    /// Parses a config from JSON text. Unknown keys are rejected so a
    /// typo cannot silently fall back to a default.
    ///
    /// # Errors
    /// A human-readable description of the first problem found.
    pub fn parse(text: &str) -> Result<FedConfig, String> {
        let json = Json::parse(text)?;
        let keys = json.keys().ok_or("config must be a JSON object")?;
        const KNOWN: &[&str] = &[
            "spec_seed",
            "num_nodes",
            "num_tables",
            "num_views",
            "num_classes",
            "rows_per_table",
            "mechanism",
            "seed",
            "num_queries",
            "mean_interarrival_ms",
            "period_ms",
            "max_retries",
            "reply_timeout_ms",
            "drop_prob",
        ];
        for k in keys {
            if !KNOWN.contains(&k) {
                return Err(format!("unknown config key {k:?}"));
            }
        }
        let u = |key: &str, default: u64| -> Result<u64, String> {
            match json.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("{key} must be a non-negative integer")),
            }
        };
        let d = FedConfig::example();
        let mechanism = match json.get("mechanism") {
            None => d.mechanism,
            Some(Json::Str(s)) if s == "qant" => ClusterMechanism::QaNt,
            Some(Json::Str(s)) if s == "greedy" => ClusterMechanism::Greedy,
            Some(other) => {
                return Err(format!(
                    "mechanism must be \"qant\" or \"greedy\", got {}",
                    other.dump()
                ))
            }
        };
        let drop_prob = match json.get("drop_prob") {
            None => d.drop_prob,
            Some(Json::Float(p)) if (0.0..=1.0).contains(p) => *p,
            Some(Json::Int(0)) => 0.0,
            Some(Json::Int(1)) => 1.0,
            Some(other) => {
                return Err(format!("drop_prob must be in [0, 1], got {}", other.dump()))
            }
        };
        let cfg = FedConfig {
            spec_seed: u("spec_seed", d.spec_seed)?,
            num_nodes: u("num_nodes", d.num_nodes as u64)? as usize,
            num_tables: u("num_tables", d.num_tables as u64)? as usize,
            num_views: u("num_views", d.num_views as u64)? as usize,
            num_classes: u("num_classes", d.num_classes as u64)? as usize,
            rows_per_table: u("rows_per_table", d.rows_per_table as u64)? as usize,
            mechanism,
            seed: u("seed", d.seed)?,
            num_queries: u("num_queries", d.num_queries as u64)? as usize,
            mean_interarrival_ms: u("mean_interarrival_ms", d.mean_interarrival_ms)?,
            period_ms: u("period_ms", d.period_ms)?,
            max_retries: u("max_retries", u64::from(d.max_retries))? as u32,
            reply_timeout_ms: u("reply_timeout_ms", d.reply_timeout_ms)?,
            drop_prob,
        };
        if cfg.num_nodes < 2 {
            return Err("num_nodes must be at least 2".to_string());
        }
        if cfg.period_ms == 0 {
            return Err("period_ms must be positive".to_string());
        }
        if cfg.mean_interarrival_ms == 0 {
            return Err("mean_interarrival_ms must be positive".to_string());
        }
        Ok(cfg)
    }

    /// Reads and parses a config file.
    ///
    /// # Errors
    /// IO problems and parse problems, as readable text.
    pub fn load(path: &str) -> Result<FedConfig, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        FedConfig::parse(&text)
    }

    /// Serializes (the `qa-ctl init` output; `parse` round-trips it).
    pub fn dump(&self) -> String {
        Json::object([
            ("spec_seed", Json::Int(self.spec_seed as i64)),
            ("num_nodes", Json::Int(self.num_nodes as i64)),
            ("num_tables", Json::Int(self.num_tables as i64)),
            ("num_views", Json::Int(self.num_views as i64)),
            ("num_classes", Json::Int(self.num_classes as i64)),
            ("rows_per_table", Json::Int(self.rows_per_table as i64)),
            (
                "mechanism",
                Json::Str(
                    match self.mechanism {
                        ClusterMechanism::QaNt => "qant",
                        ClusterMechanism::Greedy => "greedy",
                    }
                    .to_string(),
                ),
            ),
            ("seed", Json::Int(self.seed as i64)),
            ("num_queries", Json::Int(self.num_queries as i64)),
            (
                "mean_interarrival_ms",
                Json::Int(self.mean_interarrival_ms as i64),
            ),
            ("period_ms", Json::Int(self.period_ms as i64)),
            ("max_retries", Json::Int(i64::from(self.max_retries))),
            ("reply_timeout_ms", Json::Int(self.reply_timeout_ms as i64)),
            ("drop_prob", Json::Float(self.drop_prob)),
        ])
        .pretty()
    }

    /// Regenerates the deterministic deployment this config describes.
    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec::generate(
            self.spec_seed,
            self.num_nodes,
            self.num_tables,
            self.num_views,
            self.num_classes,
            self.rows_per_table,
        )
    }

    /// The fault plan every fleet node runs under (uniform loss).
    pub fn fault_plan(&self) -> FaultPlan {
        if self.drop_prob > 0.0 {
            FaultPlan::uniform(LinkFaults::lossy(self.drop_prob))
        } else {
            FaultPlan::none()
        }
    }

    /// The driver-side experiment config equivalent to this federation.
    pub fn cluster_config(&self, telemetry: Telemetry) -> crate::ClusterConfig {
        crate::ClusterConfig {
            seed: self.seed,
            num_queries: self.num_queries,
            mean_interarrival: Duration::from_millis(self.mean_interarrival_ms),
            period: Duration::from_millis(self.period_ms),
            rows_per_table: self.rows_per_table,
            mechanism: self.mechanism,
            max_retries: self.max_retries,
            reply_timeout: Duration::from_millis(self.reply_timeout_ms),
            faults: self.fault_plan(),
            crashes: Vec::new(),
            telemetry,
        }
    }
}

/// Why one driver session ended.
enum SessionEnd {
    /// The driver asked the whole node to shut down.
    Shutdown,
    /// The driver disconnected (or died); the node keeps serving.
    PeerGone,
}

/// Binds `listen`, announces the bound address on stdout, spawns the node
/// worker, and serves driver connections until a `Shutdown` frame.
///
/// With `metrics_addr` set, a second listener serves `GET /metrics`
/// (Prometheus text format) from this node's registry, announced as a
/// `qad metrics <addr>` stdout line after the listening announcement.
///
/// # Errors
/// Socket-level failures (bind/accept) as readable text. Per-session
/// failures are not fatal — the server returns to accepting.
pub fn serve(
    node: usize,
    listen: &str,
    metrics_addr: Option<&str>,
    fed: &FedConfig,
    telemetry: Telemetry,
) -> Result<(), String> {
    let spec = fed.spec();
    if node >= spec.num_nodes {
        return Err(format!(
            "node id {node} out of range (federation has {} nodes)",
            spec.num_nodes
        ));
    }
    let epoch = Instant::now();
    let qant_cfg = qant_config_for(fed.mechanism, Duration::from_millis(fed.period_ms));
    let fault_plan = fed.fault_plan();
    let handle = spawn_node_with_faults(
        &spec,
        node,
        fed.seed,
        qant_cfg,
        fault_plan.link(node).clone(),
        epoch,
        telemetry.clone(),
    );

    let listener = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // The discovery contract: qa-ctl (and the loopback tests) parse this
    // exact line to learn the ephemeral port. It must stay the *first*
    // line — `read_announced_addr` reads exactly one.
    println!("qad listening {bound}");
    let _ = std::io::stdout().flush();

    if let Some(addr) = metrics_addr {
        let registry = telemetry
            .registry()
            .cloned()
            .ok_or("--metrics-addr requires live telemetry (registry missing)")?;
        let metrics_bound = crate::metrics_http::serve_metrics(addr, registry)?;
        println!("qad metrics {metrics_bound}");
        let _ = std::io::stdout().flush();
    }

    let conn_cfg = ConnConfig {
        epoch,
        ..ConnConfig::default()
    };
    loop {
        let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let session = match Connection::accept(stream, node as u32, &conn_cfg, &telemetry) {
            Ok((conn, rx)) => {
                serve_session(Arc::new(conn), rx, &handle.sender, node as u32, &telemetry)
            }
            // A failed handshake (wrong version, port scanner, truncated
            // hello) poisons only that socket.
            Err(_) => SessionEnd::PeerGone,
        };
        if matches!(session, SessionEnd::Shutdown) {
            break;
        }
    }
    handle.shutdown();
    Ok(())
}

/// Pumps one driver connection: requests fan in to the node worker's
/// mailbox, each with a reply handle tagged by its wire token, and one
/// forwarder thread per session writes every reply back over the wire.
/// The *node* processes strictly in order (saturated single-worker
/// semantics); a fault-dropped reply just never reaches the forwarder.
fn serve_session(
    conn: Arc<Connection>,
    rx: std::sync::mpsc::Receiver<WireMsg>,
    mailbox: &std::sync::mpsc::Sender<NodeMsg>,
    node: u32,
    telemetry: &Telemetry,
) -> SessionEnd {
    let (replies, reports) = channel::<Delivery>();
    // Ends once the session and every queued request have let go of
    // their handles.
    std::thread::spawn(move || {
        for report in reports {
            if let Some(reply) = report.reply {
                let _ = conn.send(reply.into_wire(report.tag.id));
            }
        }
    });
    let reply_to = |token: u64| {
        let tag = ReplyTag {
            id: token,
            generation: 0,
        };
        ReplyTo::new(tag, replies.clone())
    };
    for msg in rx {
        let request = match msg {
            WireMsg::Estimate { token, sql } => NodeMsg::Estimate {
                sql,
                reply: reply_to(token),
            },
            WireMsg::CallForOffers { token, class, sql } => NodeMsg::CallForOffers {
                class: ClassId(class),
                sql,
                reply: reply_to(token),
            },
            WireMsg::Execute { token, class, sql } => NodeMsg::Execute {
                sql,
                class: ClassId(class),
                reply: reply_to(token),
            },
            WireMsg::DumpPrices { token } => NodeMsg::DumpPrices {
                reply: reply_to(token),
            },
            WireMsg::PeriodTick => NodeMsg::PeriodTick,
            WireMsg::StatsRequest { token } => {
                // Answered from the registry, *not* via the node mailbox:
                // a stats scrape must stay responsive even when the
                // single-worker node is saturated by a long query.
                let json = telemetry
                    .registry()
                    .map(|r| r.snapshot().dump())
                    .unwrap_or_else(|| "{}".to_string());
                let node = node as usize;
                reply_to(token).send(Reply::Stats(NodeStats { node, json }));
                continue;
            }
            WireMsg::Shutdown => return SessionEnd::Shutdown,
            // Handshake frames are consumed by Connection::accept; reply
            // frames are never driver → server. Ignore rather than die:
            // a confused peer costs nothing.
            _ => continue,
        };
        if mailbox.send(request).is_err() {
            return SessionEnd::Shutdown;
        }
    }
    SessionEnd::PeerGone
}

/// Entry point for the `qad` binary. Returns the process exit code.
///
/// Usage: `qad --listen ADDR --node-id N --config FILE [--trace FILE]
/// [--metrics-addr ADDR]`
pub fn qad_main(args: &[String]) -> i32 {
    let mut listen = None;
    let mut node_id = None;
    let mut config = None;
    let mut trace = None;
    let mut metrics_addr = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let parsed = match arg.as_str() {
            "--listen" => take("--listen").map(|v| listen = Some(v)),
            "--node-id" => take("--node-id").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| node_id = Some(n))
                    .map_err(|e| format!("--node-id: {e}"))
            }),
            "--config" => take("--config").map(|v| config = Some(v)),
            "--trace" => take("--trace").map(|v| trace = Some(v)),
            "--metrics-addr" => take("--metrics-addr").map(|v| metrics_addr = Some(v)),
            "--help" | "-h" => {
                println!(
                    "usage: qad --listen ADDR --node-id N --config FILE \
                     [--trace FILE] [--metrics-addr ADDR]"
                );
                return 0;
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("qad: {e}");
            return 2;
        }
    }
    let (Some(listen), Some(node), Some(config)) = (listen, node_id, config) else {
        eprintln!("qad: --listen, --node-id and --config are required (see --help)");
        return 2;
    };
    let fed = match FedConfig::load(&config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("qad: config: {e}");
            return 2;
        }
    };
    // Metrics are always live (the stats scrape and `--metrics-addr`
    // both read the registry); only the *event stream* is opt-in.
    let telemetry = match &trace {
        None => Telemetry::metrics_only(),
        Some(path) => match Telemetry::to_file(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("qad: trace {path}: {e}");
                return 2;
            }
        },
    };
    match serve(node, &listen, metrics_addr.as_deref(), &fed, telemetry) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("qad: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_json() {
        let cfg = FedConfig::example();
        let parsed = FedConfig::parse(&cfg.dump()).expect("own dump must parse");
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        assert!(FedConfig::parse("{\"num_nodez\": 5}").is_err(), "typo key");
        assert!(FedConfig::parse("{\"mechanism\": \"qnat\"}").is_err());
        assert!(FedConfig::parse("{\"drop_prob\": 1.5}").is_err());
        assert!(FedConfig::parse("{\"num_nodes\": 1}").is_err());
        assert!(FedConfig::parse("[]").is_err(), "must be an object");
    }

    #[test]
    fn zero_interarrival_gap_is_rejected() {
        let err = FedConfig::parse("{\"mean_interarrival_ms\": 0}").unwrap_err();
        assert!(err.contains("mean_interarrival_ms"), "{err}");
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let cfg = FedConfig::parse("{\"mechanism\": \"greedy\", \"seed\": 77}").unwrap();
        assert_eq!(cfg.mechanism, ClusterMechanism::Greedy);
        assert_eq!(cfg.seed, 77);
        assert_eq!(cfg.num_nodes, FedConfig::example().num_nodes);
    }

    #[test]
    fn spec_regeneration_is_deterministic() {
        let cfg = FedConfig::example();
        let a = cfg.spec();
        let b = cfg.spec();
        assert_eq!(a.num_nodes, b.num_nodes);
        assert_eq!(a.slowdown, b.slowdown);
        assert_eq!(
            a.classes.iter().map(|c| c.id).collect::<Vec<_>>(),
            b.classes.iter().map(|c| c.id).collect::<Vec<_>>()
        );
    }
}
