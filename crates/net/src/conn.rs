//! A per-peer TCP connection with dedicated IO threads.
//!
//! A [`Connection`] owns one handshaken socket and two threads:
//!
//! * the **reader** decodes incoming frames, answers `Ping`s, and hands
//!   every protocol message to the consumer over an mpsc channel — when
//!   the connection dies the channel disconnects, which is exactly the
//!   signal the loss-tolerant cluster driver already understands;
//! * the **writer** drains the outgoing send queue, and doubles as the
//!   keepalive: when the queue stays idle for one heartbeat interval it
//!   sends a `Ping`, and when nothing at all has arrived from the peer
//!   within the idle deadline it declares the peer dead and tears the
//!   socket down (which also unblocks the reader).
//!
//! Dialing retries with the same capped exponential backoff the cluster
//! driver uses for allocation attempts (base × 2^attempt, capped at 8×),
//! emitting a `connect_retried` telemetry event per failed attempt.
//! Liveness transitions emit `peer_connected` / `handshake_completed` /
//! `peer_died`; undecodable frames emit `frame_dropped` before the
//! (unrecoverable — TCP has no resync point) teardown.
//!
//! When the telemetry handle carries a metrics registry, every
//! connection also feeds the process-wide `net.*` transport counters
//! (frames/bytes in and out, dropped frames, dial retries, heartbeats
//! sent, heartbeat misses) — the transport family of the fleet stats
//! scrape. Counter handles are resolved once at handshake/dial time, so
//! the steady-state cost is one atomic add per frame.

use crate::frame::{read_frame, recv_msg, send_msg, write_frame, MAX_FRAME, PROTOCOL_VERSION};
use crate::wire::{NetError, WireMsg};
use qa_simnet::telemetry::{Counter, Telemetry, TelemetryEvent};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capped exponential backoff between connection attempts: `base`
/// doubling per attempt, never more than eight times `base` — the same
/// semantics as the cluster driver's allocation backoff.
pub fn backoff(base: Duration, attempt: u32) -> Duration {
    let factor = 1u32 << attempt.min(3);
    base.saturating_mul(factor)
}

/// Connection tuning knobs.
#[derive(Debug, Clone)]
pub struct ConnConfig {
    /// Send a `Ping` after this much outgoing-queue idleness.
    pub heartbeat: Duration,
    /// Declare the peer dead when no frame (data or pong) has arrived
    /// for this long.
    pub idle_timeout: Duration,
    /// Socket read/write deadline during the handshake only.
    pub handshake_timeout: Duration,
    /// Maximum accepted frame payload.
    pub max_frame: u32,
    /// Total dial attempts before [`NetError::ConnectFailed`] (≥ 1).
    pub connect_attempts: u32,
    /// Backoff base between dial attempts.
    pub backoff_base: Duration,
    /// Wall-clock origin for telemetry timestamps (share the driver's
    /// epoch so transport events interleave correctly with market
    /// events).
    pub epoch: Instant,
}

impl Default for ConnConfig {
    fn default() -> ConnConfig {
        ConnConfig {
            heartbeat: Duration::from_millis(250),
            idle_timeout: Duration::from_secs(15),
            handshake_timeout: Duration::from_secs(5),
            max_frame: MAX_FRAME,
            connect_attempts: 5,
            backoff_base: Duration::from_millis(20),
            epoch: Instant::now(),
        }
    }
}

/// Process-wide `net.*` transport counters, resolved from the telemetry
/// registry once per connection. `None` when telemetry is disabled — the
/// hot paths then pay a single branch, exactly like `Telemetry::emit`.
struct NetCounters {
    frames_sent: Counter,
    frames_received: Counter,
    frames_dropped: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    heartbeats_sent: Counter,
    heartbeat_misses: Counter,
}

impl NetCounters {
    fn resolve(telemetry: &Telemetry) -> Option<NetCounters> {
        let reg = telemetry.registry()?;
        Some(NetCounters {
            frames_sent: reg.counter("net.frames_sent"),
            frames_received: reg.counter("net.frames_received"),
            frames_dropped: reg.counter("net.frames_dropped"),
            bytes_sent: reg.counter("net.bytes_sent"),
            bytes_received: reg.counter("net.bytes_received"),
            heartbeats_sent: reg.counter("net.heartbeats_sent"),
            heartbeat_misses: reg.counter("net.heartbeat_misses"),
        })
    }
}

/// State shared between the connection handle and its IO threads.
struct ConnState {
    alive: AtomicBool,
    /// Set by a deliberate [`Connection::close`]; suppresses the
    /// `peer_died` event for the EOF we caused ourselves.
    closing: AtomicBool,
    /// Microseconds-since-epoch of the last frame received.
    last_seen_us: AtomicU64,
    epoch: Instant,
    stream: TcpStream,
    telemetry: Telemetry,
    peer_node: u32,
    peer_addr: SocketAddr,
    idle_timeout: Duration,
    counters: Option<NetCounters>,
}

impl ConnState {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn emit(&self, build: impl FnOnce() -> TelemetryEvent) {
        if self.telemetry.records_events() {
            self.telemetry.set_now_us(self.now_us());
        }
        self.telemetry.emit(build);
    }

    fn touch(&self) {
        self.last_seen_us
            .fetch_max(self.now_us(), Ordering::Relaxed);
    }

    fn idle_exceeded(&self) -> bool {
        let seen = self.last_seen_us.load(Ordering::Relaxed);
        self.now_us().saturating_sub(seen) > self.idle_timeout.as_micros() as u64
    }

    /// Marks the connection dead exactly once: tears the socket down
    /// (unblocking both threads) and emits `peer_died` unless this was a
    /// deliberate local close.
    fn mark_dead(&self, reason: &str) {
        if self.alive.swap(false, Ordering::SeqCst) {
            if self.closing.load(Ordering::SeqCst) {
                // Deliberate local close: close_inner owns the teardown
                // sequence (drain writer first, then shut the socket), so
                // neither a premature shutdown nor a peer_died is wanted.
                return;
            }
            let _ = self.stream.shutdown(Shutdown::Both);
            let node = self.peer_node;
            let reason = reason.to_string();
            self.emit(|| TelemetryEvent::PeerDied { node, reason });
        }
    }
}

/// A live, handshaken peer connection. Incoming protocol messages arrive
/// on the [`Receiver`] returned by [`Connection::dial`] /
/// [`Connection::accept`]; heartbeats are invisible to the consumer.
pub struct Connection {
    state: Arc<ConnState>,
    out: Option<Sender<WireMsg>>,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("peer_node", &self.state.peer_node)
            .field("peer_addr", &self.state.peer_addr)
            .field("alive", &self.is_alive())
            .finish()
    }
}

impl Connection {
    /// Dials `addr`, retrying with capped exponential backoff, and runs
    /// the dialer side of the handshake (`Hello` → `HelloAck`).
    ///
    /// `my_node` is announced to the peer
    /// ([`CLIENT_NODE`](crate::wire::CLIENT_NODE) for drivers);
    /// `expect_node` is the fleet id we believe lives at `addr` — used to
    /// label telemetry and, unless it is `u32::MAX`, verified against the
    /// `HelloAck`.
    ///
    /// # Errors
    /// [`NetError::ConnectFailed`] when every attempt failed;
    /// [`NetError::Handshake`] / [`NetError::Codec`] when a socket was
    /// established but the peer did not complete a valid handshake.
    pub fn dial(
        addr: &str,
        my_node: u32,
        expect_node: u32,
        cfg: &ConnConfig,
        telemetry: &Telemetry,
    ) -> Result<(Connection, Receiver<WireMsg>), NetError> {
        let attempts = cfg.connect_attempts.max(1);
        let mut last_err = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                let delay = backoff(cfg.backoff_base, attempt - 1);
                if let Some(reg) = telemetry.registry() {
                    reg.counter("net.dial_retries").incr();
                }
                if telemetry.records_events() {
                    telemetry.set_now_us(cfg.epoch.elapsed().as_micros() as u64);
                }
                telemetry.emit(|| TelemetryEvent::ConnectRetried {
                    node: expect_node,
                    attempt,
                    delay_ms: delay.as_millis() as u64,
                });
                std::thread::sleep(delay);
            }
            let stream = match connect_once(addr, cfg.handshake_timeout) {
                Ok(s) => s,
                Err(e) => {
                    last_err = e.to_string();
                    continue;
                }
            };
            // Handshake failures are not retried: the peer is reachable
            // but speaks the wrong protocol — backoff will not fix that.
            return handshake(
                stream,
                HandshakeRole::Dialer,
                my_node,
                expect_node,
                cfg,
                telemetry,
            );
        }
        Err(NetError::ConnectFailed {
            addr: addr.to_string(),
            attempts,
            detail: last_err,
        })
    }

    /// Runs the listener side of the handshake on an accepted socket and
    /// wraps it. Returns the connection and the incoming-message channel;
    /// the dialer's announced node id is available as
    /// [`Connection::peer_node`].
    pub fn accept(
        stream: TcpStream,
        my_node: u32,
        cfg: &ConnConfig,
        telemetry: &Telemetry,
    ) -> Result<(Connection, Receiver<WireMsg>), NetError> {
        handshake(
            stream,
            HandshakeRole::Listener,
            my_node,
            u32::MAX,
            cfg,
            telemetry,
        )
    }

    /// Enqueues one message for sending.
    ///
    /// # Errors
    /// [`NetError::PeerClosed`] when the connection is already dead.
    pub fn send(&self, msg: WireMsg) -> Result<(), NetError> {
        if !self.is_alive() {
            return Err(NetError::PeerClosed);
        }
        match &self.out {
            Some(out) => out.send(msg).map_err(|_| NetError::PeerClosed),
            None => Err(NetError::PeerClosed),
        }
    }

    /// `false` once the peer died or the connection was closed.
    pub fn is_alive(&self) -> bool {
        self.state.alive.load(Ordering::SeqCst)
    }

    /// The peer's node id (from its handshake).
    pub fn peer_node(&self) -> u32 {
        self.state.peer_node
    }

    /// The peer's socket address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.state.peer_addr
    }

    /// Gracefully closes: flushes every queued outgoing frame, then tears
    /// the socket down and joins both IO threads. Quiet — no `peer_died`
    /// is emitted for a deliberate close.
    pub fn close(mut self) {
        self.close_inner();
    }

    fn close_inner(&mut self) {
        self.state.closing.store(true, Ordering::SeqCst);
        // Unblock the reader so it releases its queue sender; the writer
        // then drains whatever is still queued and exits.
        let _ = self.state.stream.shutdown(Shutdown::Read);
        drop(self.out.take());
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        self.state.alive.store(false, Ordering::SeqCst);
        let _ = self.state.stream.shutdown(Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        if self.writer.is_some() || self.reader.is_some() {
            self.close_inner();
        }
    }
}

/// Resolves and connects one attempt, with the handshake deadline as the
/// connect timeout.
fn connect_once(addr: &str, timeout: Duration) -> Result<TcpStream, NetError> {
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| NetError::io("resolve", &e))?
        .next()
        .ok_or_else(|| NetError::Io {
            op: "resolve",
            detail: format!("{addr}: no addresses"),
        })?;
    TcpStream::connect_timeout(&resolved, timeout).map_err(|e| NetError::io("connect", &e))
}

enum HandshakeRole {
    Dialer,
    Listener,
}

/// Completes the handshake and spawns the IO threads.
fn handshake(
    stream: TcpStream,
    role: HandshakeRole,
    my_node: u32,
    expect_node: u32,
    cfg: &ConnConfig,
    telemetry: &Telemetry,
) -> Result<(Connection, Receiver<WireMsg>), NetError> {
    let peer_addr = stream
        .peer_addr()
        .map_err(|e| NetError::io("peer_addr", &e))?;
    stream
        .set_read_timeout(Some(cfg.handshake_timeout))
        .map_err(|e| NetError::io("set handshake timeout", &e))?;
    stream
        .set_write_timeout(Some(cfg.handshake_timeout))
        .map_err(|e| NetError::io("set handshake timeout", &e))?;
    let mut hs = stream
        .try_clone()
        .map_err(|e| NetError::io("clone stream", &e))?;

    let peer_node = match role {
        HandshakeRole::Dialer => {
            send_msg(&mut hs, &WireMsg::Hello { node: my_node })?;
            match recv_msg(&mut hs, cfg.max_frame)? {
                WireMsg::HelloAck { node } => {
                    if expect_node != u32::MAX && node != expect_node {
                        return Err(NetError::Handshake {
                            reason: format!(
                                "peer at {peer_addr} is node {node}, expected {expect_node}"
                            ),
                        });
                    }
                    node
                }
                other => {
                    return Err(NetError::Handshake {
                        reason: format!("expected hello_ack, got {}", other.kind()),
                    })
                }
            }
        }
        HandshakeRole::Listener => match recv_msg(&mut hs, cfg.max_frame)? {
            WireMsg::Hello { node } => {
                send_msg(&mut hs, &WireMsg::HelloAck { node: my_node })?;
                node
            }
            other => {
                return Err(NetError::Handshake {
                    reason: format!("expected hello, got {}", other.kind()),
                })
            }
        },
    };

    // Steady state: reads block indefinitely (the writer's idle deadline
    // is the liveness authority), writes keep a generous deadline so a
    // peer that stops draining cannot wedge the writer forever.
    stream
        .set_read_timeout(None)
        .map_err(|e| NetError::io("clear read timeout", &e))?;
    stream
        .set_nodelay(true)
        .map_err(|e| NetError::io("set nodelay", &e))?;

    let state = Arc::new(ConnState {
        alive: AtomicBool::new(true),
        closing: AtomicBool::new(false),
        last_seen_us: AtomicU64::new(cfg.epoch.elapsed().as_micros() as u64),
        epoch: cfg.epoch,
        stream,
        telemetry: telemetry.clone(),
        peer_node,
        peer_addr,
        idle_timeout: cfg.idle_timeout,
        counters: NetCounters::resolve(telemetry),
    });
    state.emit(|| TelemetryEvent::PeerConnected {
        node: peer_node,
        addr: peer_addr.to_string(),
    });
    state.emit(|| TelemetryEvent::HandshakeCompleted {
        node: peer_node,
        version: PROTOCOL_VERSION as u32,
    });

    let (out_tx, out_rx) = channel::<WireMsg>();
    let (in_tx, in_rx) = channel::<WireMsg>();

    let reader = {
        let state = Arc::clone(&state);
        let out_tx = out_tx.clone();
        let read_stream = state
            .stream
            .try_clone()
            .map_err(|e| NetError::io("clone stream", &e))?;
        let max_frame = cfg.max_frame;
        std::thread::Builder::new()
            .name(format!("qa-net-read-{peer_node}"))
            .spawn(move || reader_loop(state, read_stream, out_tx, in_tx, max_frame))
            .map_err(|e| NetError::io("spawn reader", &e))?
    };
    let writer = {
        let state = Arc::clone(&state);
        let write_stream = state
            .stream
            .try_clone()
            .map_err(|e| NetError::io("clone stream", &e))?;
        let heartbeat = cfg.heartbeat;
        std::thread::Builder::new()
            .name(format!("qa-net-write-{peer_node}"))
            .spawn(move || writer_loop(state, write_stream, out_rx, heartbeat))
            .map_err(|e| NetError::io("spawn writer", &e))?
    };

    Ok((
        Connection {
            state,
            out: Some(out_tx),
            reader: Some(reader),
            writer: Some(writer),
        },
        in_rx,
    ))
}

fn reader_loop(
    state: Arc<ConnState>,
    mut stream: impl Read,
    out_tx: Sender<WireMsg>,
    in_tx: Sender<WireMsg>,
    max_frame: u32,
) {
    loop {
        // Read the raw frame first so byte/frame counters see the wire
        // size; decode is a separate step (its errors count as drops).
        let decoded = read_frame(&mut stream, max_frame).map(|payload| {
            if let Some(c) = &state.counters {
                c.frames_received.incr();
                c.bytes_received.add(payload.len() as u64 + 4);
            }
            WireMsg::decode(&payload).map_err(NetError::Codec)
        });
        match decoded {
            Ok(Ok(WireMsg::Ping { nonce })) => {
                state.touch();
                if out_tx.send(WireMsg::Pong { nonce }).is_err() {
                    break;
                }
            }
            Ok(Ok(WireMsg::Pong { .. })) => state.touch(),
            Ok(Ok(msg)) => {
                state.touch();
                if in_tx.send(msg).is_err() {
                    // Consumer hung up; nothing left to read for.
                    state.mark_dead("receiver dropped");
                    break;
                }
            }
            Err(NetError::PeerClosed) => {
                state.mark_dead("peer closed connection");
                break;
            }
            Ok(Err(NetError::Codec(e))) | Err(NetError::Codec(e)) => {
                // A desynced TCP stream has no resync point: record the
                // bad frame, then the connection is unrecoverable.
                if let Some(c) = &state.counters {
                    c.frames_dropped.incr();
                }
                let node = state.peer_node;
                let context = e.to_string();
                state.emit(|| TelemetryEvent::FrameDropped { node, context });
                state.mark_dead(&format!("codec desync: {e}"));
                break;
            }
            Ok(Err(e)) | Err(e) => {
                state.mark_dead(&e.to_string());
                break;
            }
        }
    }
    // in_tx drops here: the consumer's channel disconnects.
}

fn writer_loop(
    state: Arc<ConnState>,
    mut stream: impl Write,
    out_rx: Receiver<WireMsg>,
    heartbeat: Duration,
) {
    let mut nonce = 0u64;
    // Encode-then-write (instead of `send_msg`) so the counters see the
    // framed wire size. The frame is counted before the write: once it is
    // on the wire the peer may answer, and the answer be read, before a
    // count taken after `write_frame` returns. A failed write marks the
    // connection dead, so over-counting its last frame is harmless.
    let put = |mut stream: &mut dyn Write, msg: &WireMsg| -> Result<(), NetError> {
        let payload = msg.encode();
        if let Some(c) = &state.counters {
            c.frames_sent.incr();
            c.bytes_sent.add(payload.len() as u64 + 4);
        }
        write_frame(&mut stream, &payload)
    };
    loop {
        match out_rx.recv_timeout(heartbeat) {
            Ok(msg) => {
                if let Err(e) = put(&mut stream, &msg) {
                    state.mark_dead(&e.to_string());
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if !state.alive.load(Ordering::SeqCst) {
                    break;
                }
                if state.idle_exceeded() {
                    if let Some(c) = &state.counters {
                        c.heartbeat_misses.incr();
                    }
                    state.mark_dead("heartbeat timeout");
                    break;
                }
                nonce += 1;
                if let Some(c) = &state.counters {
                    c.heartbeats_sent.incr();
                }
                if let Err(e) = put(&mut stream, &WireMsg::Ping { nonce }) {
                    state.mark_dead(&e.to_string());
                    break;
                }
            }
            // Every sender is gone and the queue is drained: graceful
            // close, flushed.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::CLIENT_NODE;
    use std::net::TcpListener;

    fn fast_cfg() -> ConnConfig {
        ConnConfig {
            heartbeat: Duration::from_millis(20),
            idle_timeout: Duration::from_millis(400),
            handshake_timeout: Duration::from_secs(5),
            connect_attempts: 3,
            backoff_base: Duration::from_millis(10),
            ..ConnConfig::default()
        }
    }

    /// Accepts one connection as fleet node `node` on its own thread.
    fn accept_one(
        listener: TcpListener,
        node: u32,
    ) -> std::thread::JoinHandle<(Connection, Receiver<WireMsg>)> {
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            Connection::accept(stream, node, &fast_cfg(), &Telemetry::disabled())
                .expect("handshake")
        })
    }

    #[test]
    fn loopback_pair_exchanges_messages_both_ways() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = accept_one(listener, 4);

        let (client, client_rx) =
            Connection::dial(&addr, CLIENT_NODE, 4, &fast_cfg(), &Telemetry::disabled()).unwrap();
        let (server_conn, server_rx) = server.join().unwrap();
        assert_eq!(client.peer_node(), 4);
        assert_eq!(server_conn.peer_node(), CLIENT_NODE);

        client
            .send(WireMsg::Estimate {
                token: 1,
                sql: "SELECT 1".into(),
            })
            .unwrap();
        let got = server_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            got,
            WireMsg::Estimate {
                token: 1,
                sql: "SELECT 1".into()
            }
        );
        server_conn
            .send(WireMsg::EstimateReply {
                token: 1,
                node: 4,
                exec_ms: 2.5,
            })
            .unwrap();
        let reply = client_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            reply,
            WireMsg::EstimateReply {
                token: 1,
                node: 4,
                exec_ms: 2.5
            }
        );
        client.close();
        server_conn.close();
    }

    #[test]
    fn heartbeats_keep_an_idle_connection_alive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = accept_one(listener, 1);
        let (client, _client_rx) =
            Connection::dial(&addr, CLIENT_NODE, 1, &fast_cfg(), &Telemetry::disabled()).unwrap();
        let (server_conn, _server_rx) = server.join().unwrap();
        // Much longer than the idle deadline; only ping/pong traffic flows.
        std::thread::sleep(Duration::from_millis(900));
        assert!(client.is_alive(), "pings must keep the client alive");
        assert!(server_conn.is_alive(), "pings must keep the server alive");
        client.close();
        server_conn.close();
    }

    #[test]
    fn queued_messages_flush_before_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = accept_one(listener, 2);
        let (client, _client_rx) =
            Connection::dial(&addr, CLIENT_NODE, 2, &fast_cfg(), &Telemetry::disabled()).unwrap();
        let (server_conn, server_rx) = server.join().unwrap();
        for token in 0..100 {
            client
                .send(WireMsg::DumpPrices { token })
                .expect("queue while alive");
        }
        client.close();
        let mut got = 0;
        while let Ok(msg) = server_rx.recv_timeout(Duration::from_secs(5)) {
            assert_eq!(msg, WireMsg::DumpPrices { token: got });
            got += 1;
            if got == 100 {
                break;
            }
        }
        assert_eq!(got, 100, "graceful close must flush the queue");
        server_conn.close();
    }

    #[test]
    fn unreachable_peer_fails_with_retries_and_telemetry() {
        // Bind, learn the port, drop the listener: nothing listens there.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let (telemetry, buffer) = Telemetry::buffered();
        let started = Instant::now();
        let err = match Connection::dial(&addr, CLIENT_NODE, 9, &fast_cfg(), &telemetry) {
            Err(e) => e,
            Ok(_) => panic!("dial must fail with no listener"),
        };
        match err {
            NetError::ConnectFailed { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
        // Two retries after the first failure, with 10 ms then 20 ms
        // backoff.
        let retries: Vec<_> = buffer
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                TelemetryEvent::ConnectRetried {
                    node,
                    attempt,
                    delay_ms,
                } => Some((*node, *attempt, *delay_ms)),
                _ => None,
            })
            .collect();
        assert_eq!(retries, vec![(9, 1, 10), (9, 2, 20)]);
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn silent_peer_is_declared_dead() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // A "peer" that completes the handshake by hand and then goes
        // silent: never reads, never writes, never pongs.
        let zombie = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = recv_msg(&mut stream, MAX_FRAME).unwrap();
            assert!(matches!(hello, WireMsg::Hello { .. }));
            send_msg(&mut stream, &WireMsg::HelloAck { node: 6 }).unwrap();
            // Hold the socket open without servicing it.
            std::thread::sleep(Duration::from_secs(3));
            drop(stream);
        });
        let (telemetry, buffer) = Telemetry::buffered();
        let (client, client_rx) =
            Connection::dial(&addr, CLIENT_NODE, 6, &fast_cfg(), &telemetry).unwrap();
        // The idle deadline (400 ms) must fire long before the zombie
        // releases the socket.
        let deadline = Instant::now() + Duration::from_secs(2);
        while client.is_alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!client.is_alive(), "idle deadline must declare peer dead");
        assert!(
            matches!(
                client_rx.recv_timeout(Duration::from_secs(2)),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
            ),
            "death must disconnect the incoming channel"
        );
        assert!(
            buffer
                .records()
                .iter()
                .any(|r| matches!(&r.event, TelemetryEvent::PeerDied { node: 6, .. })),
            "peer_died must be emitted"
        );
        assert!(
            client.send(WireMsg::PeriodTick).is_err(),
            "sends must fail once dead"
        );
        drop(client);
        zombie.join().unwrap();
    }

    #[test]
    fn transport_counters_feed_the_registry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (server_tel, _buf) = Telemetry::buffered();
        let server = {
            let tel = server_tel.clone();
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("accept");
                Connection::accept(stream, 5, &fast_cfg(), &tel).expect("handshake")
            })
        };
        let client_tel = Telemetry::metrics_only();
        let (client, client_rx) =
            Connection::dial(&addr, CLIENT_NODE, 5, &fast_cfg(), &client_tel).unwrap();
        let (server_conn, server_rx) = server.join().unwrap();

        client.send(WireMsg::StatsRequest { token: 1 }).unwrap();
        let got = server_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, WireMsg::StatsRequest { token: 1 });
        server_conn
            .send(WireMsg::StatsReply {
                token: 1,
                node: 5,
                json: "{}".into(),
            })
            .unwrap();
        client_rx.recv_timeout(Duration::from_secs(5)).unwrap();

        let creg = client_tel.registry().unwrap();
        assert!(creg.counter("net.frames_sent").get() >= 1);
        assert!(creg.counter("net.frames_received").get() >= 1);
        // Framed wire size: payload + 4-byte length prefix per frame.
        assert!(creg.counter("net.bytes_sent").get() >= 13);
        assert!(creg.counter("net.bytes_received").get() >= 13);
        let sreg = server_tel.registry().unwrap();
        assert!(sreg.counter("net.frames_received").get() >= 1);
        assert!(sreg.counter("net.frames_sent").get() >= 1);
        client.close();
        server_conn.close();
    }

    #[test]
    fn dial_retries_and_heartbeat_misses_are_counted() {
        // Nothing listens: every attempt fails, two retries are counted.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let tel = Telemetry::metrics_only();
        assert!(Connection::dial(&addr, CLIENT_NODE, 9, &fast_cfg(), &tel).is_err());
        let reg = tel.registry().unwrap();
        assert_eq!(reg.counter("net.dial_retries").get(), 2);

        // A zombie peer that never pongs: the idle deadline fires and the
        // miss is counted, along with the heartbeats we sent chasing it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let zombie = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            recv_msg(&mut stream, MAX_FRAME).unwrap();
            send_msg(&mut stream, &WireMsg::HelloAck { node: 9 }).unwrap();
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let (client, _rx) = Connection::dial(&addr, CLIENT_NODE, 9, &fast_cfg(), &tel).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while client.is_alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!client.is_alive());
        assert_eq!(reg.counter("net.heartbeat_misses").get(), 1);
        assert!(reg.counter("net.heartbeats_sent").get() >= 1);
        drop(client);
        zombie.join().unwrap();
    }

    #[test]
    fn backoff_caps_at_eight_times_base() {
        let base = Duration::from_millis(10);
        assert_eq!(backoff(base, 0), base);
        assert_eq!(backoff(base, 1), base * 2);
        assert_eq!(backoff(base, 3), base * 8);
        assert_eq!(backoff(base, 31), base * 8);
    }
}
