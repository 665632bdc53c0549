//! Allocation discipline on the decision hot path, proven with a counting
//! global allocator (the `counted-alloc` feature builds this suite; see
//! CONTRIBUTING.md "The allocation gate").
//!
//! The binary installs [`counted_alloc::CountingAlloc`] and asserts that
//! steady-state decisions — after a per-session warm-up decision that is
//! allowed to build scheme caches — perform **zero** allocations, both
//! in-process (`SessionStore::decide`) and through a real socket against
//! the reactor server.
#![cfg(feature = "counted-alloc")]
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_serve::protocol::{
    decode_frame, encode_frame_into, read_frame, write_frame, Frame, PROTOCOL_VERSION,
};
use abr_serve::store::{dataset_provider, SessionStore, StoreConfig};
use abr_serve::{Server, ServerConfig};
use abr_sim::DecisionRequest;
use counted_alloc::AllocScope;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread;

#[global_allocator]
static ALLOC: counted_alloc::CountingAlloc = counted_alloc::CountingAlloc::new();

/// The process-global scope measurements need a quiet process, and the test
/// harness runs tests on several threads — so every test here serializes on
/// this lock for its whole duration.
static QUIET: Mutex<()> = Mutex::new(());

fn quiet() -> std::sync::MutexGuard<'static, ()> {
    QUIET
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const VIDEO: &str = "ED-youtube-h264";
const SCHEMES: [&str; 3] = ["cava", "bola", "rba"];
/// The MPC family, gated in-process only: their plan-search tables are
/// sized by the first decision and reused after it.
const MPC_FAMILY: [&str; 4] = ["mpc", "robustmpc", "panda-max-sum", "panda-max-min"];
/// Decisions measured per session after the warm-up decision.
const MEASURED: usize = 48;

fn request_for_chunk(chunk: usize, n_chunks: usize) -> DecisionRequest {
    DecisionRequest {
        chunk_index: chunk,
        buffer_s: (chunk as f64 * 1.5).min(30.0),
        estimated_bandwidth_bps: Some(4.0e6),
        last_level: if chunk == 0 { None } else { Some(0) },
        latest_throughput_bps: Some(4.0e6 + chunk as f64),
        wall_time_s: chunk as f64 * 4.0,
        startup_complete: chunk > 0,
        visible_chunks: n_chunks,
    }
}

#[test]
fn store_decide_is_allocation_free_after_first_decision() {
    let _quiet = quiet();
    assert!(counted_alloc::counting_enabled());
    let n_chunks = dataset_provider()(VIDEO).unwrap().manifest.n_chunks();
    assert!(n_chunks > 1 + MEASURED, "video too short for this test");
    for scheme in SCHEMES.into_iter().chain(MPC_FAMILY) {
        let store = SessionStore::new(
            StoreConfig {
                capacity: 8,
                idle_ticks: u64::MAX,
                ..StoreConfig::default()
            },
            dataset_provider(),
        );
        store.open(1, 7, VIDEO, scheme, 0).unwrap();
        // The first decision may build per-session scheme caches.
        store.decide(7, &request_for_chunk(0, n_chunks)).unwrap();
        let scope = AllocScope::thread();
        for chunk in 1..=MEASURED {
            let response = store
                .decide(7, &request_for_chunk(chunk, n_chunks))
                .unwrap();
            std::hint::black_box(response);
        }
        let delta = scope.delta();
        assert_eq!(
            delta.allocs, 0,
            "scheme {scheme}: {MEASURED} steady-state decisions allocated {} times ({} bytes)",
            delta.allocs, delta.bytes
        );
    }
}

/// One allocation-free decision round trip: encode into a reused wire
/// buffer, read the reply into a reused body buffer, decode in place.
fn decide_roundtrip(
    stream: &mut TcpStream,
    wire: &mut Vec<u8>,
    body: &mut Vec<u8>,
    session_id: u64,
    chunk: usize,
    n_chunks: usize,
) {
    wire.clear();
    encode_frame_into(
        wire,
        &Frame::Decide {
            session_id,
            request: request_for_chunk(chunk, n_chunks),
        },
    )
    .unwrap();
    stream.write_all(wire).unwrap();
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).unwrap();
    let len = u32::from_le_bytes(prefix) as usize;
    body.clear();
    body.resize(len, 0);
    stream.read_exact(body).unwrap();
    match decode_frame(body).unwrap() {
        Frame::Decision {
            session_id: sid, ..
        } => assert_eq!(sid, session_id),
        other => panic!("expected Decision, got {other:?}"),
    }
}

#[test]
fn reactor_socket_decisions_are_allocation_free() {
    let _quiet = quiet();
    assert!(counted_alloc::counting_enabled());
    let config = ServerConfig {
        threads: 2,
        read_deadline_ms: 0,
        write_deadline_ms: 0,
        poll_ms: 1,
        store: StoreConfig {
            capacity: 8,
            idle_ticks: u64::MAX,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    let bound = Server::bind("127.0.0.1:0", config, dataset_provider()).unwrap();
    let addr = bound.addr();
    let handle = thread::spawn(move || bound.serve());

    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::HelloOk { .. }
    ));
    let mut n_chunks = 0usize;
    for (i, scheme) in SCHEMES.iter().enumerate() {
        write_frame(
            &mut stream,
            &Frame::OpenSession {
                session_id: i as u64 + 1,
                video: VIDEO.to_string(),
                scheme: scheme.to_string(),
                vmaf_model: 0,
            },
        )
        .unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::OpenOk {
                n_chunks: n,
                degraded: false,
                ..
            } => n_chunks = n as usize,
            other => panic!("expected OpenOk, got {other:?}"),
        }
    }
    assert!(n_chunks > 1 + MEASURED, "video too short for this test");

    let mut wire = Vec::with_capacity(256);
    let mut body = Vec::with_capacity(64);
    // Warm-up: the first decision per session may build scheme caches, and
    // the connection's read/write buffers reach steady-state capacity.
    for sid in 1..=SCHEMES.len() as u64 {
        decide_roundtrip(&mut stream, &mut wire, &mut body, sid, 0, n_chunks);
    }

    let scope = AllocScope::global();
    for chunk in 1..=MEASURED {
        for sid in 1..=SCHEMES.len() as u64 {
            decide_roundtrip(&mut stream, &mut wire, &mut body, sid, chunk, n_chunks);
        }
    }
    let delta = scope.delta();

    // Teardown after the measurement window: hang up first — the reactor
    // serves existing connections until they close, even mid-shutdown.
    drop(stream);
    abr_serve::loadgen::shutdown_server(addr).unwrap();
    handle.join().unwrap();

    assert_eq!(
        delta.allocs,
        0,
        "{} steady-state decisions allocated {} times ({} bytes) process-wide",
        MEASURED * SCHEMES.len(),
        delta.allocs,
        delta.bytes
    );
}
