//! Transport abstraction: how the driver reaches the node fleet.
//!
//! [`Transport`] is the seam between the driver's protocol logic and the
//! fleet, with three implementations:
//!
//! * [`ChannelTransport`] — the in-process fleet: one OS thread per node,
//!   mpsc mailboxes, zero serialization.
//! * [`TcpTransport`] — real processes: each node is a `qad` server
//!   reached over a [`qa_net::Connection`], every protocol message
//!   crossing the wire as a [`WireMsg`] frame.
//! * [`crate::simtransport::SimTransport`] — the schedule-driven virtual
//!   network under the model checker.
//!
//! ## Contract
//!
//! Request methods (`estimate`, `call_for_offers`, `execute`,
//! `dump_prices`) are **asynchronous sends** carrying one [`ReplyTo`]
//! handle. The handle is one-shot and reports exactly once to the
//! requester's single reply channel, as a [`Delivery`] tagged with the
//! requester's [`ReplyTag`]:
//!
//! * with the reply, when the node answers;
//! * with no reply, when the handle is dropped unanswered — a
//!   fault-dropped reply, a node that died with the request queued, a
//!   send that failed, or a peer connection that went down. The wait for
//!   that reply ends at once.
//!
//! A reply lost on a real network (no handle to drop) is bounded by the
//! driver's reply deadline. A send to a dead peer also returns a
//! [`ClusterError`] immediately, and the caller marks the node dead and
//! re-allocates. `shutdown_node` is crash injection: over channels it shuts
//! the mailbox, over TCP it terminates the remote process.
//!
//! No thread waits per request: the driver reads one channel, and
//! [`TcpTransport`] parks each handle under a `u64` wire token in a
//! per-peer pending map that one dispatcher thread per peer drains.
//! Tokens are registered *before* the request is sent, so a reply can
//! never race its own registration.

use crate::error::ClusterError;
use crate::node::{EstimateReply, ExecReply, NodeHandle, NodeMsg, OfferReply, PricesReply};
use qa_net::{ConnConfig, Connection, NetError, WireMsg};
use qa_simnet::telemetry::Telemetry;
use qa_workload::ClassId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an unanswered request token is kept before the dispatcher
/// garbage-collects it (longer than any driver deadline, so a slow reply
/// is never orphaned while someone still waits for it).
const PENDING_TTL: Duration = Duration::from_secs(120);

/// The requester's correlation tag, returned with every [`Delivery`]. The
/// driver tags a request with its query and that query's generation;
/// `qad` tags with the wire token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReplyTag {
    /// Query index (driver) or wire token (`qad`).
    pub id: u64,
    /// The query's generation when the request left.
    pub generation: u32,
}

/// Any node reply.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Greedy's execution estimate.
    Estimate(EstimateReply),
    /// QA-NT's offer or refusal.
    Offer(OfferReply),
    /// An execution result.
    Exec(ExecReply),
    /// A price vector.
    Prices(PricesReply),
    /// A metrics-registry snapshot.
    Stats(NodeStats),
}

impl Reply {
    /// Splits a reply frame into its wire token and reply; `None` for a
    /// frame that is not a reply.
    pub fn from_wire(msg: WireMsg) -> Option<(u64, Reply)> {
        Some(match msg {
            WireMsg::EstimateReply {
                token,
                node,
                exec_ms,
            } => (
                token,
                Reply::Estimate(EstimateReply {
                    node: node as usize,
                    exec_ms,
                }),
            ),
            WireMsg::OfferReply {
                token,
                node,
                offered,
                completion_ms,
            } => (
                token,
                Reply::Offer(OfferReply {
                    node: node as usize,
                    offered,
                    completion_ms,
                }),
            ),
            WireMsg::ExecReply {
                token,
                node,
                rows,
                exec_ms,
                error,
            } => (
                token,
                Reply::Exec(ExecReply {
                    node: node as usize,
                    rows: rows as usize,
                    exec_ms,
                    error,
                }),
            ),
            WireMsg::Prices {
                token,
                node,
                prices,
            } => (
                token,
                Reply::Prices(PricesReply {
                    node: node as usize,
                    prices,
                }),
            ),
            WireMsg::StatsReply { token, node, json } => (
                token,
                Reply::Stats(NodeStats {
                    node: node as usize,
                    json,
                }),
            ),
            _ => return None,
        })
    }

    /// The reply frame carrying this reply under `token`.
    pub fn into_wire(self, token: u64) -> WireMsg {
        match self {
            Reply::Estimate(r) => WireMsg::EstimateReply {
                token,
                node: r.node as u32,
                exec_ms: r.exec_ms,
            },
            Reply::Offer(r) => WireMsg::OfferReply {
                token,
                node: r.node as u32,
                offered: r.offered,
                completion_ms: r.completion_ms,
            },
            Reply::Exec(r) => WireMsg::ExecReply {
                token,
                node: r.node as u32,
                rows: r.rows as u64,
                exec_ms: r.exec_ms,
                error: r.error,
            },
            Reply::Prices(r) => WireMsg::Prices {
                token,
                node: r.node as u32,
                prices: r.prices,
            },
            Reply::Stats(r) => WireMsg::StatsReply {
                token,
                node: r.node as u32,
                json: r.json,
            },
        }
    }
}

/// What a [`ReplyTo`] reports: its tag, and the reply (`None` when the
/// handle was dropped unanswered).
#[derive(Debug)]
pub struct Delivery {
    /// The requester's tag.
    pub tag: ReplyTag,
    /// The reply, or `None` for a lost one.
    pub reply: Option<Reply>,
}

/// A one-shot reply handle: reports exactly one [`Delivery`] to the
/// requester's channel, with the reply via [`ReplyTo::send`] or without
/// one when dropped unanswered.
pub struct ReplyTo {
    pub(crate) tag: ReplyTag,
    tx: Option<Sender<Delivery>>,
}

impl ReplyTo {
    /// A handle reporting to `tx` under `tag`.
    pub fn new(tag: ReplyTag, tx: Sender<Delivery>) -> ReplyTo {
        ReplyTo { tag, tx: Some(tx) }
    }

    /// Answers the request.
    pub fn send(mut self, reply: Reply) {
        self.report(Some(reply));
    }

    fn report(&mut self, reply: Option<Reply>) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Delivery {
                tag: self.tag,
                reply,
            });
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        self.report(None);
    }
}

/// A fleet-facing message channel; see the module docs for the contract.
pub trait Transport: Send + Sync {
    /// Fleet size (dead peers included — indices are stable).
    fn num_nodes(&self) -> usize;

    /// Greedy's estimate poll.
    ///
    /// # Errors
    /// [`ClusterError`] when the send itself fails (peer dead).
    fn estimate(
        &self,
        node: usize,
        class: ClassId,
        sql: &str,
        reply: ReplyTo,
    ) -> Result<(), ClusterError>;

    /// QA-NT's call-for-offers.
    ///
    /// # Errors
    /// [`ClusterError`] when the send itself fails (peer dead).
    fn call_for_offers(
        &self,
        node: usize,
        class: ClassId,
        sql: &str,
        reply: ReplyTo,
    ) -> Result<(), ClusterError>;

    /// Executes an accepted assignment.
    ///
    /// # Errors
    /// [`ClusterError`] when the send itself fails (peer dead).
    fn execute(
        &self,
        node: usize,
        class: ClassId,
        sql: &str,
        reply: ReplyTo,
    ) -> Result<(), ClusterError>;

    /// Announces a QA-NT period boundary.
    ///
    /// # Errors
    /// [`ClusterError`] when the send itself fails (peer dead).
    fn period_tick(&self, node: usize) -> Result<(), ClusterError>;

    /// Requests the node's current per-class price vector.
    ///
    /// # Errors
    /// [`ClusterError`] when the send itself fails (peer dead).
    fn dump_prices(&self, node: usize, reply: ReplyTo) -> Result<(), ClusterError>;

    /// Terminates one node (crash injection / targeted shutdown). Best
    /// effort; a node that is already gone is not an error.
    fn shutdown_node(&self, node: usize);

    /// Gracefully tears the whole fleet connection down. Idempotent.
    fn shutdown(&self);
}

// ---------------------------------------------------------------------------
// In-process channels
// ---------------------------------------------------------------------------

/// The historical in-process fleet: node threads behind mpsc mailboxes.
pub struct ChannelTransport {
    senders: Vec<Sender<NodeMsg>>,
    handles: Mutex<Vec<NodeHandle>>,
}

impl ChannelTransport {
    /// Wraps already-spawned node threads.
    pub fn new(nodes: Vec<NodeHandle>) -> ChannelTransport {
        ChannelTransport {
            senders: nodes.iter().map(|n| n.sender.clone()).collect(),
            handles: Mutex::new(nodes),
        }
    }

    fn send(&self, phase: &'static str, node: usize, msg: NodeMsg) -> Result<(), ClusterError> {
        self.senders[node]
            .send(msg)
            .map_err(|_| ClusterError::ChannelClosed { phase, node })
    }
}

impl Transport for ChannelTransport {
    fn num_nodes(&self) -> usize {
        self.senders.len()
    }

    fn estimate(
        &self,
        node: usize,
        _class: ClassId,
        sql: &str,
        reply: ReplyTo,
    ) -> Result<(), ClusterError> {
        let sql = sql.to_string();
        self.send("estimate", node, NodeMsg::Estimate { sql, reply })
    }

    fn call_for_offers(
        &self,
        node: usize,
        class: ClassId,
        sql: &str,
        reply: ReplyTo,
    ) -> Result<(), ClusterError> {
        let sql = sql.to_string();
        self.send("offer", node, NodeMsg::CallForOffers { class, sql, reply })
    }

    fn execute(
        &self,
        node: usize,
        class: ClassId,
        sql: &str,
        reply: ReplyTo,
    ) -> Result<(), ClusterError> {
        let sql = sql.to_string();
        self.send("execute", node, NodeMsg::Execute { sql, class, reply })
    }

    fn period_tick(&self, node: usize) -> Result<(), ClusterError> {
        self.send("tick", node, NodeMsg::PeriodTick)
    }

    fn dump_prices(&self, node: usize, reply: ReplyTo) -> Result<(), ClusterError> {
        self.send("prices", node, NodeMsg::DumpPrices { reply })
    }

    fn shutdown_node(&self, node: usize) {
        let _ = self.senders[node].send(NodeMsg::Shutdown);
    }

    fn shutdown(&self) {
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        for h in handles {
            h.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// One node's metrics-registry snapshot, scraped over the wire.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The responding fleet node.
    pub node: usize,
    /// Its `MetricsRegistry::snapshot()` as compact JSON.
    pub json: String,
}

/// Shared between a peer's handle and its dispatcher thread.
struct PeerState {
    addr: String,
    pending: Mutex<HashMap<u64, (ReplyTo, Instant)>>,
}

impl PeerState {
    /// Fails every outstanding request now: dropping the parked handles
    /// reports each as lost, so waiters observe dead-peer semantics
    /// immediately instead of aging out via the TTL sweep.
    fn fail_pending(&self) {
        self.pending.lock().unwrap().clear();
    }
}

struct Peer {
    state: Arc<PeerState>,
    conn: Mutex<Option<Connection>>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

/// The fleet over real sockets: one [`Connection`] per `qad` server.
pub struct TcpTransport {
    peers: Vec<Peer>,
    next_token: AtomicU64,
}

impl TcpTransport {
    /// Dials every node of the fleet (`addrs[i]` must host fleet node
    /// `i`) and completes the handshakes. Connection retry/backoff and
    /// handshake policy come from `cfg`; transport telemetry (connects,
    /// retries, deaths) flows through `telemetry`.
    ///
    /// # Errors
    /// [`ClusterError::Net`] naming the first peer that could not be
    /// reached or failed its handshake.
    pub fn connect(
        addrs: &[String],
        cfg: &ConnConfig,
        telemetry: &Telemetry,
    ) -> Result<TcpTransport, ClusterError> {
        let mut peers = Vec::with_capacity(addrs.len());
        for (node, addr) in addrs.iter().enumerate() {
            let (conn, rx) =
                Connection::dial(addr, qa_net::wire::CLIENT_NODE, node as u32, cfg, telemetry)
                    .map_err(|e| ClusterError::net("connect", node, addr.clone(), e))?;
            let state = Arc::new(PeerState {
                addr: addr.clone(),
                pending: Mutex::new(HashMap::new()),
            });
            let dispatcher = {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("qa-dispatch-{node}"))
                    .spawn(move || dispatch_replies(state, rx))
                    .map_err(|e| {
                        ClusterError::net("connect", node, addr.clone(), NetError::io("spawn", &e))
                    })?
            };
            peers.push(Peer {
                state,
                conn: Mutex::new(Some(conn)),
                dispatcher: Mutex::new(Some(dispatcher)),
            });
        }
        Ok(TcpTransport {
            peers,
            next_token: AtomicU64::new(1),
        })
    }

    /// Drops every connection *without* sending `Shutdown`: the servers
    /// stay up and keep accepting (a driver crash looks exactly like
    /// this). A later `shutdown` becomes a no-op on the closed peers.
    pub fn disconnect(&self) {
        for peer in &self.peers {
            if let Some(c) = peer.conn.lock().unwrap().take() {
                c.close();
            }
            // Fail waiters before joining the dispatcher: the join can
            // block on connection teardown, and nobody may wait out the
            // TTL for a reply that can no longer arrive.
            peer.state.fail_pending();
            if let Some(d) = peer.dispatcher.lock().unwrap().take() {
                let _ = d.join();
            }
        }
    }

    fn send(&self, phase: &'static str, node: usize, msg: WireMsg) -> Result<(), ClusterError> {
        let peer = &self.peers[node];
        let guard = peer.conn.lock().unwrap();
        let conn = guard.as_ref().ok_or_else(|| {
            ClusterError::net(phase, node, peer.state.addr.clone(), NetError::PeerClosed)
        })?;
        conn.send(msg)
            .map_err(|e| ClusterError::net(phase, node, peer.state.addr.clone(), e))
    }

    /// Requests one node's metrics-registry snapshot (the fleet stats
    /// scrape). Answered by the `qad` session loop directly — never the
    /// node worker — so a saturated market still reports its stats.
    ///
    /// # Errors
    /// [`ClusterError`] when the send itself fails (peer dead).
    pub fn request_stats(&self, node: usize, reply: ReplyTo) -> Result<(), ClusterError> {
        self.request("stats", node, reply, |token| WireMsg::StatsRequest {
            token,
        })
    }

    /// Parks the reply handle under a fresh token, then sends. On a
    /// failed send the handle is withdrawn again (and so reports the
    /// loss) so the map cannot leak.
    fn request(
        &self,
        phase: &'static str,
        node: usize,
        reply: ReplyTo,
        make_msg: impl FnOnce(u64) -> WireMsg,
    ) -> Result<(), ClusterError> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.peers[node]
            .state
            .pending
            .lock()
            .unwrap()
            .insert(token, (reply, Instant::now()));
        match self.send(phase, node, make_msg(token)) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.peers[node]
                    .state
                    .pending
                    .lock()
                    .unwrap()
                    .remove(&token);
                Err(e)
            }
        }
    }
}

impl Transport for TcpTransport {
    fn num_nodes(&self) -> usize {
        self.peers.len()
    }

    fn estimate(
        &self,
        node: usize,
        _class: ClassId,
        sql: &str,
        reply: ReplyTo,
    ) -> Result<(), ClusterError> {
        let sql = sql.to_string();
        self.request("estimate", node, reply, |token| WireMsg::Estimate {
            token,
            sql,
        })
    }

    fn call_for_offers(
        &self,
        node: usize,
        class: ClassId,
        sql: &str,
        reply: ReplyTo,
    ) -> Result<(), ClusterError> {
        let sql = sql.to_string();
        self.request("offer", node, reply, |token| WireMsg::CallForOffers {
            token,
            class: class.0,
            sql,
        })
    }

    fn execute(
        &self,
        node: usize,
        class: ClassId,
        sql: &str,
        reply: ReplyTo,
    ) -> Result<(), ClusterError> {
        let sql = sql.to_string();
        self.request("execute", node, reply, |token| WireMsg::Execute {
            token,
            class: class.0,
            sql,
        })
    }

    fn period_tick(&self, node: usize) -> Result<(), ClusterError> {
        self.send("tick", node, WireMsg::PeriodTick)
    }

    fn dump_prices(&self, node: usize, reply: ReplyTo) -> Result<(), ClusterError> {
        self.request("prices", node, reply, |token| WireMsg::DumpPrices { token })
    }

    fn shutdown_node(&self, node: usize) {
        let _ = self.send("shutdown", node, WireMsg::Shutdown);
        let conn = self.peers[node].conn.lock().unwrap().take();
        if let Some(c) = conn {
            c.close();
        }
        // As in `disconnect`: pending replies can never arrive once the
        // connection is gone, so fail them immediately.
        self.peers[node].state.fail_pending();
        let dispatcher = self.peers[node].dispatcher.lock().unwrap().take();
        if let Some(d) = dispatcher {
            let _ = d.join();
        }
    }

    fn shutdown(&self) {
        for node in 0..self.peers.len() {
            self.shutdown_node(node);
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Routes reply frames back to their parked handles by token. Runs until
/// the connection dies, then drops every outstanding handle so waiting
/// drivers see each request lost (dead-peer semantics).
fn dispatch_replies(state: Arc<PeerState>, rx: Receiver<WireMsg>) {
    loop {
        // The timeout is only the GC cadence: expired tokens (replies
        // that will never come, e.g. fault-dropped remotely) are swept so
        // the map stays bounded on long runs.
        let msg = match rx.recv_timeout(PENDING_TTL / 8) {
            Ok(m) => m,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                state
                    .pending
                    .lock()
                    .unwrap()
                    .retain(|_, (_, born)| born.elapsed() < PENDING_TTL);
                continue;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        };
        // Anything but a reply is ignored; a well-behaved qad never sends
        // those to a driver.
        let Some((token, reply)) = Reply::from_wire(msg) else {
            continue;
        };
        let slot = state.pending.lock().unwrap().remove(&token);
        if let Some((handle, _)) = slot {
            handle.send(reply);
        }
    }
    state.fail_pending();
}
