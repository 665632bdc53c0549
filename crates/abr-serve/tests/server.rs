//! Server-level robustness: handshake enforcement, typed application
//! errors, mid-session disconnect cleanup, capacity fallback, and clean
//! shutdown. Each test spins a real server on an ephemeral loopback port
//! and speaks raw frames at it.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_serve::loadgen;
use abr_serve::protocol::{
    decode_frame, encode_frame, read_frame, write_frame, ErrorCode, Frame, StatsSnapshot,
    PROTOCOL_VERSION,
};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::{Server, ServerConfig};
use abr_sim::DecisionRequest;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

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

/// One reactor thread whose idle wait times out only every 10 s: any
/// reply that takes a sizeable fraction of that was held up by the wait,
/// not by work, so these tests tell a readiness wake from a timeout.
fn slow_poll_config() -> ServerConfig {
    ServerConfig {
        threads: 1,
        poll_ms: 10_000,
        ..small_config()
    }
}

/// Pipeline `batch` (whole frames, repeated) on a nonblocking `stream`
/// without reading a reply until the socket refuses more for 100 ms, and
/// return the bytes written. The reactor reads everything it is sent until
/// its unflushed replies pass its soft cap, so a send window that stays
/// shut that long means the server has stopped reading: the kernel buffers
/// are full of replies and the rest sit in its write buffer.
fn pipeline_until_server_stops_reading(stream: &mut TcpStream, batch: &[u8]) -> usize {
    stream.set_nonblocking(true).unwrap();
    let mut written = 0usize;
    let mut last_progress = Instant::now();
    while last_progress.elapsed() < Duration::from_millis(100) {
        match stream.write(&batch[written % batch.len()..]) {
            Ok(n) => {
                written += n;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("pipelining failed: {e}"),
        }
    }
    written
}

/// Dial and hang up every `every` until the returned flag is set; the
/// thread returns how many connections it made. Each dial makes the
/// listener every reactor thread waits on readable.
fn churn(addr: SocketAddr, every: Duration) -> (Arc<AtomicBool>, JoinHandle<u64>) {
    let stop = Arc::new(AtomicBool::new(false));
    let dialer = {
        let stop = stop.clone();
        thread::spawn(move || {
            let mut dials = 0u64;
            while !stop.load(Ordering::Relaxed) {
                drop(TcpStream::connect(addr).unwrap());
                dials += 1;
                thread::sleep(every);
            }
            dials
        })
    };
    (stop, dialer)
}

/// A handshaken client that then ships a bare length prefix and never the
/// body (slow-loris shape).
fn stalled_client(addr: SocketAddr) -> Client {
    let mut stalled = Client::connect_and_hello(addr);
    stalled.stream.write_all(&8u32.to_le_bytes()).unwrap();
    stalled.stream.flush().unwrap();
    stalled
        .stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled
}

/// Wait for `stalled`'s timeout notice and return how long after `t0` it
/// came; a reactor that let other traffic hold the peer's deadline clock
/// leaves the read to its 10 s timeout, which fails here.
fn await_reap_notice(stalled: &mut Client, t0: Instant) -> Duration {
    let reply = read_frame(&mut stalled.stream);
    let waited = t0.elapsed();
    assert!(
        matches!(
            reply,
            Ok(Frame::Error {
                code: ErrorCode::Timeout,
                ..
            })
        ),
        "expected a timeout notice, got {reply:?} after {waited:?}"
    );
    waited
}

/// Open session `session_id` and return the `Decide` frame for its first
/// chunk.
fn open_for_decide(c: &mut Client, session_id: u64) -> Frame {
    let Frame::OpenOk { n_chunks, .. } = c.open(session_id, "ED-youtube-h264", "cava") else {
        panic!("open {session_id} failed");
    };
    Frame::Decide {
        session_id,
        request: first_request(n_chunks as usize),
    }
}

#[test]
fn a_request_wakes_a_reactor_blocked_in_its_idle_wait() {
    let server = spawn(slow_poll_config());
    let mut c = Client::connect_and_hello(server.addr);
    let decide = open_for_decide(&mut c, 1);
    // Long enough for the thread to run out of work and block in its wait.
    thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    let reply = c.call(&decide);
    let waited = t0.elapsed();
    assert!(matches!(reply, Frame::Decision { session_id: 1, .. }));
    assert!(
        waited < Duration::from_secs(1),
        "a request to an idle reactor waited {waited:?} (poll_ms 10000)"
    );
    drop(c);
    let stats = server.stop();
    assert_eq!(stats.decisions, 1);
}

#[test]
fn a_peer_draining_a_capped_write_buffer_wakes_the_reactor() {
    // The reactor's soft cap on unflushed reply bytes per connection.
    const WBUF_SOFT_CAP: usize = 256 * 1024;
    let server = spawn(slow_poll_config());
    let mut c = Client::connect_and_hello(server.addr);
    let decide = encode_frame(&open_for_decide(&mut c, 1)).unwrap();
    // Every Decide after the first is a retransmission of it, so every
    // reply is byte-identical to the first one.
    let batch = decide.repeat(1024);

    let written = pipeline_until_server_stops_reading(&mut c.stream, &batch);
    let frames = written.div_ceil(decide.len());
    let start = written % batch.len();
    let mut tail = &batch[start..start + (frames * decide.len() - written)];

    // Drain every reply. Each read frees send room on the server, and only
    // its write readiness (not a 10 s timeout) can get the reactor flushing
    // and reading again.
    let t0 = Instant::now();
    let mut inbox: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut reply: Option<Vec<u8>> = None;
    let mut replies = 0usize;
    let mut reply_bytes = 0usize;
    while replies < frames {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "{replies} of {frames} replies after 30 s"
        );
        if !tail.is_empty() {
            match c.stream.write(tail) {
                Ok(n) => tail = &tail[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("finishing the last frame failed: {e}"),
            }
            if tail.is_empty() {
                c.stream.set_nonblocking(false).unwrap();
            }
        }
        match c.stream.read(&mut chunk) {
            Ok(0) => panic!("server closed after {replies} of {frames} replies"),
            Ok(n) => inbox.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::yield_now(),
            Err(e) => panic!("draining failed: {e}"),
        }
        let mut at = 0;
        while inbox.len() - at >= 4 {
            let len = u32::from_le_bytes(inbox[at..at + 4].try_into().unwrap()) as usize;
            if inbox.len() - at < 4 + len {
                break;
            }
            let wire = &inbox[at..at + 4 + len];
            match &reply {
                Some(first) => assert_eq!(wire, &first[..], "reply {replies} differs"),
                None => {
                    let frame = decode_frame(&wire[4..]).unwrap();
                    assert!(
                        matches!(frame, Frame::Decision { session_id: 1, .. }),
                        "{frame:?}"
                    );
                    reply = Some(wire.to_vec());
                }
            }
            replies += 1;
            reply_bytes += wire.len();
            at += 4 + len;
        }
        inbox.drain(..at);
    }
    let drained = t0.elapsed();
    assert!(
        reply_bytes > WBUF_SOFT_CAP,
        "only {reply_bytes} reply bytes: the write buffer never reached its cap"
    );
    assert!(
        drained < Duration::from_secs(3),
        "draining {frames} replies ({reply_bytes} bytes) took {drained:?} (poll_ms 10000)"
    );
    drop(c);
    let stats = server.stop();
    assert_eq!(stats.decisions, frames as u64);
}

#[test]
fn a_stalled_client_is_reaped_while_a_sibling_on_its_thread_trickles_decisions() {
    // Deadline ticks come from their own clock, so a sibling on the same
    // reactor thread that wakes it — now and then, or faster than one
    // poll interval — never holds the stalled peer's deadline.
    const DEADLINE_MS: u64 = 200;
    const POLL_MS: u64 = 20;
    for every_ms in [3 * POLL_MS, POLL_MS / 2] {
        let mut config = small_config();
        config.threads = 1;
        config.read_deadline_ms = DEADLINE_MS;
        config.poll_ms = POLL_MS;
        let server = spawn(config);

        let mut sibling = Client::connect_and_hello(server.addr);
        let decide = open_for_decide(&mut sibling, 1);
        let mut stalled = stalled_client(server.addr);
        let t0 = Instant::now();

        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let stop = stop.clone();
            thread::spawn(move || {
                let mut decisions = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(every_ms));
                    let reply = sibling.call(&decide);
                    assert!(matches!(reply, Frame::Decision { session_id: 1, .. }));
                    decisions += 1;
                }
                decisions
            })
        };
        let waited = await_reap_notice(&mut stalled, t0);
        stop.store(true, Ordering::Relaxed);
        let decisions = trickle.join().unwrap();
        // The deadline is a floor; a tick and the wait that notices it
        // add at most two poll intervals on top.
        assert!(
            waited >= Duration::from_millis(DEADLINE_MS),
            "sibling every {every_ms} ms: reaped after {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(4 * DEADLINE_MS),
            "sibling every {every_ms} ms: reaped after {waited:?}"
        );
        assert!(decisions >= 2, "sibling made only {decisions} decisions");
        drop(stalled);
        let stats = server.stop();
        assert_eq!(stats.connections_reaped, 1);
        assert_eq!(stats.decisions, decisions);
    }
}

#[test]
fn connection_churn_on_the_shared_listener_does_not_hold_a_read_deadline() {
    // Two reactor threads both wait on the listener, and four stalled
    // peers spread over them. A dial every quarter poll interval wakes
    // whichever thread accepts it far more often than its wait could time
    // out, so a deadline charged only by timed-out waits would never trip.
    const DEADLINE_MS: u64 = 200;
    const POLL_MS: u64 = 20;
    let mut config = small_config();
    config.threads = 2;
    config.read_deadline_ms = DEADLINE_MS;
    config.poll_ms = POLL_MS;
    let server = spawn(config);

    let mut stalled: Vec<Client> = (0..4).map(|_| stalled_client(server.addr)).collect();
    let t0 = Instant::now();
    let (stop, dialer) = churn(server.addr, Duration::from_millis(POLL_MS / 4));
    let waited: Vec<Duration> = stalled
        .iter_mut()
        .map(|c| await_reap_notice(c, t0))
        .collect();
    stop.store(true, Ordering::Relaxed);
    let dials = dialer.join().unwrap();
    for w in &waited {
        assert!(
            *w >= Duration::from_millis(DEADLINE_MS) && *w < Duration::from_millis(4 * DEADLINE_MS),
            "reaped after {waited:?}"
        );
    }
    assert!(dials >= 10, "only {dials} dials");
    drop(stalled);
    let stats = server.stop();
    assert_eq!(stats.connections_reaped, 4);
}

#[test]
fn connection_churn_on_the_shared_listener_does_not_hold_a_write_deadline() {
    // A peer that pipelines requests and never reads a reply: once the
    // server stops reading it, only the write deadline can free it. The
    // read deadline is off so nothing else reaps it.
    const DEADLINE_MS: u64 = 300;
    const POLL_MS: u64 = 20;
    let mut config = small_config();
    config.threads = 2;
    config.read_deadline_ms = 0;
    config.write_deadline_ms = DEADLINE_MS;
    config.poll_ms = POLL_MS;
    let server = spawn(config);

    let (stop, dialer) = churn(server.addr, Duration::from_millis(POLL_MS / 4));
    let mut clogged = Client::connect_and_hello(server.addr);
    let decide = encode_frame(&open_for_decide(&mut clogged, 1)).unwrap();
    pipeline_until_server_stops_reading(&mut clogged.stream, &decide.repeat(1024));
    let t0 = Instant::now();
    let mut reaped = loadgen::fetch_stats(server.addr)
        .unwrap()
        .connections_reaped;
    while reaped == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "a peer that stopped draining was not reaped within 10 s"
        );
        thread::sleep(Duration::from_millis(5));
        reaped = loadgen::fetch_stats(server.addr)
            .unwrap()
            .connections_reaped;
    }
    let waited = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    dialer.join().unwrap();
    // The send window closed at most 100 ms before `t0`, and the server's
    // flushes stalled no earlier than that.
    assert!(
        waited < Duration::from_millis(4 * DEADLINE_MS),
        "reaped {waited:?} after the pipelining stopped"
    );
    drop(clogged);
    let stats = server.stop();
    assert_eq!(stats.connections_reaped, 1);
}
