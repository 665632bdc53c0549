//! Byte pins for both hand-written codecs: every wire `Frame` variant and
//! every CAVR `Event` variant is encoded and compared with a committed hex
//! string, and the pinned bytes are decoded and re-encoded to the same
//! string. A round-trip test cannot see a field moved in the encoder and
//! the decoder alike; these pins can. Edge values ride along: a NaN with a
//! payload, both zeros and infinities, a subnormal, `u64::MAX`, an error
//! code newer than this build and a non-ASCII string.
//!
//! Hex is grouped as `prefix type payload` for frames and
//! `prefix type tick payload` for records.
#![allow(clippy::unwrap_used)]

use abr_serve::protocol::{decode_frame, encode_frame, ErrorCode, Frame, StatsSnapshot};
use abr_serve::replay::{decode_log, encode_event, Event, REPLAY_MAGIC, REPLAY_VERSION};
use abr_sim::{DecisionRequest, DecisionResponse};

/// A quiet NaN with a nonzero payload: only a bit-exact codec keeps it.
const NAN_WITH_PAYLOAD: u64 = 0x7FF8_0000_0000_0ABC;

/// A non-ASCII name: two-, three- and four-byte UTF-8 sequences.
const NON_ASCII: &str = "Ünï-视频-🎬";

/// Lowercase hex of `bytes`, with a space before each offset in `breaks`.
fn hex(bytes: &[u8], breaks: &[usize]) -> String {
    let mut out = String::new();
    for (i, b) in bytes.iter().enumerate() {
        if breaks.contains(&i) {
            out.push(' ');
        }
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn unhex(pinned: &str) -> Vec<u8> {
    let digits: Vec<u8> = pinned.bytes().filter(|b| *b != b' ').collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn request(buffer_s: f64, estimate: Option<f64>, latest: Option<f64>) -> DecisionRequest {
    DecisionRequest {
        chunk_index: 17,
        buffer_s,
        estimated_bandwidth_bps: estimate,
        last_level: Some(2),
        latest_throughput_bps: latest,
        wall_time_s: f64::from_bits(1),
        startup_complete: true,
        visible_chunks: 633,
    }
}

fn cold_request() -> DecisionRequest {
    DecisionRequest {
        chunk_index: 0,
        buffer_s: -0.0,
        estimated_bandwidth_bps: None,
        last_level: None,
        latest_throughput_bps: None,
        wall_time_s: 0.0,
        startup_complete: false,
        visible_chunks: usize::MAX,
    }
}

fn frame_pins() -> Vec<(Frame, &'static str)> {
    vec![
        (Frame::Hello { version: 2 }, "03000000 01 0200"),
        (Frame::HelloOk { version: 0xBEEF }, "03000000 02 efbe"),
        (
            Frame::OpenSession {
                session_id: 0x0102_0304_0506_0708,
                video: "ED-youtube-h264".into(),
                scheme: NON_ASCII.into(),
                vmaf_model: 1,
            },
            "2e000000 03 08070605040302010f0045442d796f75747562652d683236341100c39c6ec3af2de8a786e9a2912df09f8eac01",
        ),
        (
            Frame::OpenOk {
                session_id: 9,
                degraded: true,
                n_tracks: 5,
                n_chunks: u32::MAX,
            },
            "12000000 04 09000000000000000105000000ffffffff",
        ),
        (
            Frame::Decide {
                session_id: u64::MAX,
                request: request(
                    f64::from_bits(NAN_WITH_PAYLOAD),
                    Some(f64::INFINITY),
                    Some(f64::NEG_INFINITY),
                ),
            },
            "45000000 05 ffffffffffffffff1100000000000000bc0a00000000f87f01000000000000f07f01020000000000000001000000000000f0ff0100000000000000017902000000000000",
        ),
        (
            Frame::Decide {
                session_id: 1,
                request: cold_request(),
            },
            "2d000000 05 010000000000000000000000000000000000000000000080000000000000000000000000ffffffffffffffff",
        ),
        (
            Frame::Decision {
                session_id: 9,
                response: DecisionResponse {
                    level: 4,
                    degraded: true,
                },
            },
            "12000000 06 0900000000000000040000000000000001",
        ),
        (Frame::CloseSession { session_id: 9 }, "09000000 07 0900000000000000"),
        (
            Frame::Closed {
                session_id: 9,
                decisions: 633,
            },
            "11000000 08 09000000000000007902000000000000",
        ),
        (Frame::StatsReq, "01000000 09"),
        (
            Frame::StatsReply(StatsSnapshot {
                connections: 1,
                open_sessions: 2,
                peak_sessions: 3,
                sessions_opened: 4,
                sessions_closed: 5,
                sessions_aborted: 6,
                sessions_evicted: 7,
                degraded_opens: 8,
                decisions: 9,
                degraded_decisions: 10,
                frames_in: 11,
                frames_out: 12,
                protocol_errors: 13,
                connections_reaped: 14,
                sessions_orphaned: 15,
                sessions_resumed: 16,
                sockopt_errors: 17,
            }),
            "89000000 0a 0100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f0000000000000010000000000000001100000000000000",
        ),
        (
            Frame::Error {
                code: ErrorCode::SessionBusy,
                message: NON_ASCII.into(),
            },
            "16000000 0b 08001100c39c6ec3af2de8a786e9a2912df09f8eac",
        ),
        (
            Frame::Error {
                code: ErrorCode::Other(0xBEEF),
                message: String::new(),
            },
            "05000000 0b efbe0000",
        ),
        (Frame::Shutdown, "01000000 0c"),
        (Frame::ShutdownOk, "01000000 0d"),
        (Frame::ResumeSession { session_id: 9 }, "09000000 0e 0900000000000000"),
        (
            Frame::ResumeOk {
                session_id: 9,
                degraded: false,
                decisions: 21,
                n_tracks: 5,
                n_chunks: 633,
            },
            "1a000000 0f 09000000000000000015000000000000000500000079020000",
        ),
    ]
}

fn event_pins() -> Vec<(u64, Event, &'static str)> {
    vec![
        (
            1,
            Event::RunMeta {
                label: NON_ASCII.into(),
                seed: u64::MAX,
            },
            "24000000 01 0100000000000000 1100c39c6ec3af2de8a786e9a2912df09f8eacffffffffffffffff",
        ),
        (
            2,
            Event::SessionOpened {
                conn: 3,
                session_id: 7,
                video: "ED-youtube-h264".into(),
                scheme: "cava".into(),
                vmaf_model: 1,
                degraded: true,
                n_tracks: 5,
                n_chunks: 120,
            },
            "3a000000 02 0200000000000000 030000000000000007000000000000000f0045442d796f75747562652d6832363404006361766101010500000078000000",
        ),
        (
            3,
            Event::Decision {
                session_id: 7,
                retransmit: true,
                request: request(f64::MAX, Some(-0.0), Some(f64::MIN_POSITIVE)),
                response: DecisionResponse {
                    level: 3,
                    degraded: false,
                },
            },
            "57000000 03 0300000000000000 0700000000000000011100000000000000ffffffffffffef7f0100000000000000800102000000000000000100000000000010000100000000000000017902000000000000030000000000000000",
        ),
        (
            4,
            Event::Decision {
                session_id: 7,
                retransmit: false,
                request: cold_request(),
                response: DecisionResponse {
                    level: 0,
                    degraded: true,
                },
            },
            "3f000000 03 0400000000000000 07000000000000000000000000000000000000000000000080000000000000000000000000ffffffffffffffff000000000000000001",
        ),
        (
            5,
            Event::SessionClosed {
                session_id: 7,
                decisions: 2,
            },
            "19000000 04 0500000000000000 07000000000000000200000000000000",
        ),
        (
            6,
            Event::SessionOrphaned {
                session_id: 8,
                conn: 2,
            },
            "19000000 05 0600000000000000 08000000000000000200000000000000",
        ),
        (
            7,
            Event::SessionResumed {
                session_id: 8,
                conn: 3,
                decisions: 4,
            },
            "21000000 06 0700000000000000 080000000000000003000000000000000400000000000000",
        ),
        (8, Event::SessionEvicted { session_id: 9 }, "11000000 07 0800000000000000 0900000000000000"),
        (9, Event::OrphanReaped { session_id: 10 }, "11000000 08 0900000000000000 0a00000000000000"),
        (
            10,
            Event::SessionAborted {
                session_id: 11,
                conn: 4,
            },
            "19000000 09 0a00000000000000 0b000000000000000400000000000000",
        ),
        (
            11,
            Event::FrameIn {
                conn: 1,
                frame_type: 0x05,
                wire_len: 80,
            },
            "16000000 0a 0b00000000000000 01000000000000000550000000",
        ),
        (
            12,
            Event::FrameOut {
                conn: 1,
                frame_type: 0x06,
                wire_len: 26,
            },
            "16000000 0b 0c00000000000000 0100000000000000061a000000",
        ),
        (
            13,
            Event::FaultInjected {
                conn_index: 0,
                kind: 2,
                send_seq: 15,
            },
            "1a000000 0c 0d00000000000000 0000000000000000020f00000000000000",
        ),
        (
            14,
            Event::SessionAbandon {
                session_id: 7,
                watched_s: f64::from_bits(NAN_WITH_PAYLOAD),
                chunks: 41,
            },
            "21000000 0e 0e00000000000000 0700000000000000bc0a00000000f87f2900000000000000",
        ),
        (
            15,
            Event::Seek {
                session_id: 7,
                to_chunk: 80,
                at_s: f64::NEG_INFINITY,
            },
            "21000000 0f 0f00000000000000 07000000000000005000000000000000000000000000f0ff",
        ),
        (u64::MAX, Event::RunEnd { events: 15 }, "11000000 0d ffffffffffffffff 0f00000000000000"),
    ]
}

#[test]
fn every_frame_encodes_to_its_pinned_bytes() {
    let mut moved = Vec::new();
    for (frame, pinned) in frame_pins() {
        let wire = encode_frame(&frame).unwrap();
        let got = hex(&wire, &[4, 5]);
        if got != pinned {
            moved.push(format!("{frame:?}\n  pinned {pinned}\n  now    {got}"));
            continue;
        }
        let decoded = decode_frame(&unhex(pinned)[4..]).unwrap();
        assert_eq!(
            hex(&encode_frame(&decoded).unwrap(), &[4, 5]),
            pinned,
            "decoding the pinned bytes of {frame:?} read its fields back in another order"
        );
    }
    assert!(
        moved.is_empty(),
        "frame encodings moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn every_record_encodes_to_its_pinned_bytes() {
    let mut moved = Vec::new();
    for (tick, event, pinned) in event_pins() {
        let record = encode_event(tick, &event).unwrap();
        let got = hex(&record, &[4, 5, 13]);
        if got != pinned {
            moved.push(format!("{event:?}\n  pinned {pinned}\n  now    {got}"));
            continue;
        }
        let mut log = REPLAY_MAGIC.to_vec();
        log.push(REPLAY_VERSION);
        log.extend_from_slice(&unhex(pinned));
        let decoded = decode_log(&log).unwrap();
        assert_eq!(decoded.events.len(), 1);
        let back = &decoded.events[0];
        assert_eq!(back.tick, tick);
        assert_eq!(
            hex(&encode_event(back.tick, &back.event).unwrap(), &[4, 5, 13]),
            pinned,
            "decoding the pinned bytes of {event:?} read its fields back in another order"
        );
    }
    assert!(
        moved.is_empty(),
        "record encodings moved:\n{}",
        moved.join("\n")
    );
}
