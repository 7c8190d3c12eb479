//! qa-net codec error paths, end to end.
//!
//! A peer that completes the handshake and then misbehaves — sends a
//! mangled frame, or simply never answers — must surface through the
//! transport as typed errors and promptly reported reply losses, never as
//! a hang that waits out the idle-death timer or the pending-reply TTL.

use query_markets::cluster::{ClusterError, Delivery, ReplyTag, ReplyTo, TcpTransport, Transport};
use query_markets::net::{
    recv_msg, send_msg, write_frame, ConnConfig, NetError, WireMsg, MAX_FRAME,
};
use query_markets::simnet::telemetry::Telemetry;
use query_markets::simnet::with_watchdog;
use query_markets::workload::ClassId;
use std::error::Error as _;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the fake server does after completing a valid handshake.
enum Misbehaviour {
    /// Answer the first request frame with a frame whose payload starts
    /// with an unknown message tag, then hold the socket open.
    MangledFrame,
    /// Read requests forever, never replying, socket held open.
    NeverReply,
}

/// A minimal `qad` impostor: accepts one connection, completes a real
/// handshake (Hello in, HelloAck out), then misbehaves as told. Holds
/// the socket open afterwards so nothing but the misbehaviour itself can
/// kill the connection.
fn fake_server(mis: Misbehaviour) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut stream = stream;
        serve(&mut stream, mis);
    });
    (addr, handle)
}

fn serve(stream: &mut TcpStream, mis: Misbehaviour) {
    match recv_msg(stream, MAX_FRAME) {
        Ok(WireMsg::Hello { .. }) => {}
        other => panic!("fake server: expected hello, got {other:?}"),
    }
    send_msg(stream, &WireMsg::HelloAck { node: 0 }).expect("hello_ack");
    loop {
        let msg = match recv_msg(stream, MAX_FRAME) {
            Ok(m) => m,
            // Client tore the connection down; our job is done.
            Err(_) => return,
        };
        match (&mis, msg) {
            // Pings keep the client's idle deadline satisfied: the only
            // way the connection may die in these tests is the codec
            // error or a deliberate local disconnect.
            (_, WireMsg::Ping { nonce }) => {
                if send_msg(stream, &WireMsg::Pong { nonce }).is_err() {
                    return;
                }
            }
            (Misbehaviour::MangledFrame, _) => {
                // A syntactically valid frame (honest length prefix)
                // whose payload starts with a tag no protocol version
                // has ever assigned.
                write_frame(stream, &[0xFE, 1, 2, 3]).expect("mangled frame");
                let _ = stream.flush();
                // Hold the socket open; drain until the client closes.
            }
            (Misbehaviour::NeverReply, _) => {}
        }
    }
}

/// A reply handle reporting to `tx`.
fn reply_to(tx: &mpsc::Sender<Delivery>) -> ReplyTo {
    let tag = ReplyTag {
        id: 0,
        generation: 0,
    };
    ReplyTo::new(tag, tx.clone())
}

fn connect(addr: &str) -> TcpTransport {
    let cfg = ConnConfig::default();
    TcpTransport::connect(&[addr.to_string()], &cfg, &Telemetry::disabled()).expect("connect")
}

#[test]
fn mangled_frame_fails_fast_with_typed_source_chain() {
    with_watchdog("mangled frame surfaces as ClusterError::Net", 60, || {
        let (addr, server) = fake_server(Misbehaviour::MangledFrame);
        let transport = connect(&addr);

        let (tx, rx) = mpsc::channel();
        transport
            .estimate(0, ClassId(0), "SELECT 1", reply_to(&tx))
            .expect("send ok");

        // The mangled reply must kill the connection and report the
        // parked handle lost well before the 15 s idle-death deadline (the
        // server answers pings, so idle death cannot fire here at all).
        let start = Instant::now();
        let got = rx.recv_timeout(Duration::from_secs(10));
        assert!(
            matches!(got, Ok(Delivery { reply: None, .. })),
            "no valid reply can exist: {got:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the loss must be reported promptly, not time out"
        );

        // The connection is now dead: a follow-up request errors
        // immediately and the error is typed all the way down.
        let err = transport
            .estimate(0, ClassId(0), "SELECT 2", reply_to(&tx))
            .expect_err("connection must be dead");
        match &err {
            ClusterError::Net {
                phase,
                node,
                source,
                ..
            } => {
                assert_eq!(*phase, "estimate");
                assert_eq!(*node, 0);
                assert_eq!(*source, NetError::PeerClosed);
            }
            other => panic!("expected ClusterError::Net, got {other}"),
        }
        // `source()` chaining stays intact through the cluster layer.
        let chained = err.source().expect("Net must expose its NetError");
        assert_eq!(chained.to_string(), NetError::PeerClosed.to_string());

        transport.disconnect();
        server.join().expect("fake server exits");
    });
}

#[test]
fn codec_errors_chain_through_cluster_error_source() {
    // Unit-level companion to the e2e path above: a decode failure keeps
    // its full chain, ClusterError::Net -> NetError::Codec -> CodecError.
    let decode_err = WireMsg::decode(&[0xFE, 1, 2, 3]).expect_err("unknown tag must not decode");
    let err = ClusterError::net("estimate", 0, "127.0.0.1:1", decode_err.into());
    let net = err.source().expect("cluster error exposes net error");
    assert!(net.to_string().contains("codec error"), "{net}");
    let codec = net.source().expect("net error exposes codec error");
    assert!(codec.to_string().contains("unknown message tag"), "{codec}");
    assert!(codec.to_string().contains("0xfe"), "{codec}");
}

#[test]
fn disconnect_fails_pending_requests_immediately() {
    with_watchdog("disconnect fails pending requests", 60, || {
        let (addr, server) = fake_server(Misbehaviour::NeverReply);
        let transport = connect(&addr);

        let (tx, rx) = mpsc::channel();
        transport
            .estimate(0, ClassId(0), "SELECT 1", reply_to(&tx))
            .expect("send ok");
        // Give the request time to actually reach the server, so the
        // pending slot is genuinely outstanding when we disconnect.
        std::thread::sleep(Duration::from_millis(50));

        let start = Instant::now();
        transport.disconnect();
        // Regression: the pending map must be failed on disconnect, not
        // aged out by the TTL sweep — the waiter observes dead-peer
        // semantics (the handle reports the loss) right away.
        let got = rx.recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(got, Ok(Delivery { reply: None, .. })),
            "pending reply must be failed by disconnect, got {got:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "disconnect must fail waiters immediately"
        );
        server.join().expect("fake server exits");
    });
}
