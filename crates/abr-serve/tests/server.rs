//! Server-level robustness: handshake enforcement, typed application
//! errors, mid-session disconnect cleanup, capacity fallback, and clean
//! shutdown. Each test spins a real server on an ephemeral loopback port
//! and speaks raw frames at it.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_serve::loadgen;
use abr_serve::protocol::{
    read_frame, write_frame, ErrorCode, Frame, StatsSnapshot, PROTOCOL_VERSION,
};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::{Server, ServerConfig};
use abr_sim::DecisionRequest;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};

struct TestServer {
    addr: SocketAddr,
    handle: JoinHandle<StatsSnapshot>,
}

fn spawn(config: ServerConfig) -> TestServer {
    let bound = Server::bind("127.0.0.1:0", config, dataset_provider()).unwrap();
    let addr = bound.addr();
    let handle = thread::spawn(move || bound.serve());
    TestServer { addr, handle }
}

fn small_config() -> ServerConfig {
    ServerConfig {
        threads: 4,
        store: StoreConfig {
            capacity: 16,
            idle_ticks: 1_000_000,
            // Legacy semantics for the disconnect tests below: a dropped
            // connection reaps its sessions immediately, no orphan grace.
            orphan_grace_ticks: 0,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    }
}

impl TestServer {
    /// Shut the server down and return its final counters.
    fn stop(self) -> StatsSnapshot {
        loadgen::shutdown_server(self.addr).unwrap();
        self.handle.join().unwrap()
    }
}

struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        Client {
            stream: TcpStream::connect(addr).unwrap(),
        }
    }

    fn connect_and_hello(addr: SocketAddr) -> Client {
        let mut c = Client::connect(addr);
        let reply = c.call(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        assert_eq!(
            reply,
            Frame::HelloOk {
                version: PROTOCOL_VERSION
            }
        );
        c
    }

    fn send(&mut self, frame: &Frame) {
        write_frame(&mut self.stream, frame).unwrap();
        self.stream.flush().unwrap();
    }

    fn recv(&mut self) -> Frame {
        read_frame(&mut self.stream).unwrap()
    }

    fn call(&mut self, frame: &Frame) -> Frame {
        self.send(frame);
        self.recv()
    }

    fn open(&mut self, session_id: u64, video: &str, scheme: &str) -> Frame {
        self.call(&Frame::OpenSession {
            session_id,
            video: video.to_string(),
            scheme: scheme.to_string(),
            vmaf_model: 0,
        })
    }
}

fn first_request(visible_chunks: usize) -> DecisionRequest {
    DecisionRequest {
        chunk_index: 0,
        buffer_s: 0.0,
        estimated_bandwidth_bps: None,
        last_level: None,
        latest_throughput_bps: None,
        wall_time_s: 0.0,
        startup_complete: false,
        visible_chunks,
    }
}

#[test]
fn version_mismatch_is_rejected_with_unknown_version() {
    let server = spawn(small_config());
    let mut c = Client::connect(server.addr);
    let reply = c.call(&Frame::Hello { version: 9999 });
    let Frame::Error { code, .. } = reply else {
        panic!("expected Error, got {reply:?}");
    };
    assert_eq!(code, ErrorCode::UnknownVersion);
    drop(c);
    let stats = server.stop();
    assert_eq!(stats.open_sessions, 0);
}

#[test]
fn first_frame_must_be_hello() {
    let server = spawn(small_config());
    let mut c = Client::connect(server.addr);
    let reply = c.call(&Frame::StatsReq);
    assert!(
        matches!(
            reply,
            Frame::Error {
                code: ErrorCode::BadFrame,
                ..
            }
        ),
        "got {reply:?}"
    );
    drop(c);
    server.stop();
}

#[test]
fn garbage_bytes_get_a_typed_error_and_count_as_protocol_errors() {
    let server = spawn(small_config());
    {
        let mut c = Client::connect_and_hello(server.addr);
        // A length prefix far beyond MAX_FRAME_LEN.
        c.stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        c.stream.flush().unwrap();
        let reply = c.recv();
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::BadFrame,
                    ..
                }
            ),
            "got {reply:?}"
        );
        // The server hangs up after a wire-level error.
        assert!(read_frame(&mut c.stream).is_err());
    }
    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn application_errors_keep_the_connection_usable() {
    let server = spawn(small_config());
    let mut c = Client::connect_and_hello(server.addr);

    let reply = c.open(1, "no-such-video", "cava");
    assert!(matches!(
        reply,
        Frame::Error {
            code: ErrorCode::UnknownVideo,
            ..
        }
    ));
    let reply = c.open(1, "ED-youtube-h264", "no-such-scheme");
    assert!(matches!(
        reply,
        Frame::Error {
            code: ErrorCode::UnknownScheme,
            ..
        }
    ));
    let reply = c.call(&Frame::Decide {
        session_id: 42,
        request: first_request(1),
    });
    assert!(matches!(
        reply,
        Frame::Error {
            code: ErrorCode::UnknownSession,
            ..
        }
    ));
    let reply = c.call(&Frame::CloseSession { session_id: 42 });
    assert!(matches!(
        reply,
        Frame::Error {
            code: ErrorCode::UnknownSession,
            ..
        }
    ));

    // After all those errors the connection still serves a full lifecycle.
    let Frame::OpenOk {
        degraded, n_chunks, ..
    } = c.open(7, "ED-youtube-h264", "cava")
    else {
        panic!("open failed after recoverable errors");
    };
    assert!(!degraded);
    let reply = c.open(7, "ED-youtube-h264", "cava");
    assert!(matches!(
        reply,
        Frame::Error {
            code: ErrorCode::DuplicateSession,
            ..
        }
    ));
    let reply = c.call(&Frame::Decide {
        session_id: 7,
        request: first_request(n_chunks as usize),
    });
    assert!(matches!(reply, Frame::Decision { session_id: 7, .. }));
    let reply = c.call(&Frame::CloseSession { session_id: 7 });
    assert_eq!(
        reply,
        Frame::Closed {
            session_id: 7,
            decisions: 1
        }
    );
    drop(c);
    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);
}

#[test]
fn mid_session_disconnect_reaps_the_sessions() {
    let server = spawn(small_config());
    {
        let mut c = Client::connect_and_hello(server.addr);
        assert!(matches!(
            c.open(1, "ED-youtube-h264", "cava"),
            Frame::OpenOk { .. }
        ));
        assert!(matches!(
            c.open(2, "ED-youtube-h264", "bola"),
            Frame::OpenOk { .. }
        ));
        // Drop mid-session: no CloseSession frames.
    }
    // Poll stats until the worker has finished the disconnect cleanup.
    let mut stats = loadgen::fetch_stats(server.addr).unwrap();
    for _ in 0..200 {
        if stats.sessions_aborted == 2 {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(2));
        stats = loadgen::fetch_stats(server.addr).unwrap();
    }
    assert_eq!(stats.sessions_aborted, 2);
    assert_eq!(stats.open_sessions, 0);
    // The reaped ids are free for reuse.
    let mut c = Client::connect_and_hello(server.addr);
    assert!(matches!(
        c.open(1, "ED-youtube-h264", "cava"),
        Frame::OpenOk { .. }
    ));
    drop(c);
    server.stop();
}

#[test]
fn over_capacity_opens_degrade_gracefully() {
    let mut config = small_config();
    config.store.capacity = 2;
    let server = spawn(config);
    let mut c = Client::connect_and_hello(server.addr);
    for id in 1..=2 {
        let Frame::OpenOk { degraded, .. } = c.open(id, "ED-youtube-h264", "cava") else {
            panic!("open {id} failed");
        };
        assert!(!degraded);
    }
    let Frame::OpenOk {
        degraded, n_chunks, ..
    } = c.open(3, "ED-youtube-h264", "bola")
    else {
        panic!("over-capacity open should degrade, not fail");
    };
    assert!(degraded);
    let Frame::Decision { response, .. } = c.call(&Frame::Decide {
        session_id: 3,
        request: first_request(n_chunks as usize),
    }) else {
        panic!("degraded session should still decide");
    };
    assert!(response.degraded);
    drop(c);
    let stats = server.stop();
    assert_eq!(stats.degraded_opens, 1);
    assert_eq!(stats.degraded_decisions, 1);
}

#[test]
fn shutdown_is_acknowledged_and_joins_cleanly() {
    let server = spawn(small_config());
    let mut c = Client::connect_and_hello(server.addr);
    assert_eq!(c.call(&Frame::Shutdown), Frame::ShutdownOk);
    drop(c);
    // serve() returns: workers drained, scope joined.
    let stats = server.handle.join().unwrap();
    assert_eq!(stats.open_sessions, 0);
    assert!(stats.frames_in >= 2);
}

#[test]
fn a_stalled_client_is_reaped_while_others_progress() {
    let mut config = small_config();
    config.read_deadline_ms = 150;
    config.poll_ms = 10;
    let server = spawn(config);

    // Client A completes the handshake, then wedges mid-frame: it ships a
    // bare length prefix and never sends the body (slow-loris shape).
    let mut stalled = Client::connect_and_hello(server.addr);
    stalled.stream.write_all(&8u32.to_le_bytes()).unwrap();
    stalled.stream.flush().unwrap();

    // Client B, on the same worker pool, runs a full lifecycle while A is
    // wedged — a stalled peer must not block other connections.
    let mut live = Client::connect_and_hello(server.addr);
    let Frame::OpenOk { n_chunks, .. } = live.open(1, "ED-youtube-h264", "cava") else {
        panic!("live client blocked by the stalled one");
    };
    let reply = live.call(&Frame::Decide {
        session_id: 1,
        request: first_request(n_chunks as usize),
    });
    assert!(matches!(reply, Frame::Decision { session_id: 1, .. }));
    assert_eq!(
        live.call(&Frame::CloseSession { session_id: 1 }),
        Frame::Closed {
            session_id: 1,
            decisions: 1
        }
    );

    // Within the configured deadline the server reaps A: a courtesy
    // timeout notice arrives, then the socket closes. This read blocks at
    // most ~read_deadline_ms; a hang here means the reaper is broken.
    let reply = read_frame(&mut stalled.stream);
    assert!(
        matches!(
            reply,
            Ok(Frame::Error {
                code: ErrorCode::Timeout,
                ..
            })
        ),
        "expected a timeout notice, got {reply:?}"
    );
    assert!(read_frame(&mut stalled.stream).is_err());

    drop(live);
    drop(stalled);
    let stats = server.stop();
    assert!(
        stats.connections_reaped >= 1,
        "reaped {} connections",
        stats.connections_reaped
    );
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.open_sessions, 0);
}

#[test]
fn an_orphaned_session_survives_reconnect_and_resumes() {
    let mut config = small_config();
    config.store.orphan_grace_ticks = 1_000_000;
    let server = spawn(config);

    let n_chunks;
    {
        let mut c = Client::connect_and_hello(server.addr);
        let Frame::OpenOk { n_chunks: n, .. } = c.open(5, "ED-youtube-h264", "cava") else {
            panic!("open failed");
        };
        n_chunks = n;
        let reply = c.call(&Frame::Decide {
            session_id: 5,
            request: first_request(n_chunks as usize),
        });
        assert!(matches!(reply, Frame::Decision { session_id: 5, .. }));
        // Vanish without closing: under a grace window the session is
        // orphaned, not reaped.
    }
    let mut stats = loadgen::fetch_stats(server.addr).unwrap();
    for _ in 0..200 {
        if stats.sessions_orphaned == 1 {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(2));
        stats = loadgen::fetch_stats(server.addr).unwrap();
    }
    assert_eq!(stats.sessions_orphaned, 1);
    assert_eq!(stats.sessions_aborted, 0);
    assert_eq!(stats.open_sessions, 1);

    // A fresh connection adopts the orphan with its state intact...
    let mut c = Client::connect_and_hello(server.addr);
    let reply = c.call(&Frame::ResumeSession { session_id: 5 });
    let Frame::ResumeOk {
        session_id: 5,
        degraded,
        decisions,
        n_chunks: resumed_chunks,
        ..
    } = reply
    else {
        panic!("resume failed: {reply:?}");
    };
    assert!(!degraded);
    assert_eq!(decisions, 1);
    assert_eq!(resumed_chunks, n_chunks);

    // ...while resuming a session that never existed stays a clean error.
    let reply = c.call(&Frame::ResumeSession { session_id: 99 });
    assert!(matches!(
        reply,
        Frame::Error {
            code: ErrorCode::UnknownSession,
            ..
        }
    ));

    // The adopted session keeps serving from where it left off.
    let reply = c.call(&Frame::Decide {
        session_id: 5,
        request: DecisionRequest {
            chunk_index: 1,
            buffer_s: 4.0,
            estimated_bandwidth_bps: Some(3.0e6),
            last_level: Some(0),
            latest_throughput_bps: Some(3.0e6),
            wall_time_s: 4.0,
            startup_complete: true,
            visible_chunks: n_chunks as usize,
        },
    });
    assert!(matches!(reply, Frame::Decision { session_id: 5, .. }));
    assert_eq!(
        c.call(&Frame::CloseSession { session_id: 5 }),
        Frame::Closed {
            session_id: 5,
            decisions: 2
        }
    );
    drop(c);
    let stats = server.stop();
    assert_eq!(stats.sessions_resumed, 1);
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.sessions_aborted, 0);
    assert_eq!(stats.open_sessions, 0);
}
