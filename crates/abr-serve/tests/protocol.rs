//! Wire-protocol robustness: round-trips for every frame, plus the
//! hostile-input matrix — truncations, oversized prefixes, unknown types,
//! trailing bytes, and seeded fuzz. Decoding must always return a typed
//! [`WireError`], never panic, never hang.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_serve::protocol::{
    decode_frame, encode_frame, read_frame, write_frame, ErrorCode, Frame, StatsSnapshot,
    WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use abr_sim::{DecisionRequest, DecisionResponse};
use std::io::Cursor;

fn sample_request() -> DecisionRequest {
    DecisionRequest {
        chunk_index: 17,
        buffer_s: 42.125,
        estimated_bandwidth_bps: Some(3.9e6),
        last_level: Some(2),
        latest_throughput_bps: Some(4.05e6),
        wall_time_s: 88.0625,
        startup_complete: true,
        visible_chunks: 633,
    }
}

fn every_frame() -> Vec<Frame> {
    vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
        },
        Frame::HelloOk { version: 7 },
        Frame::OpenSession {
            session_id: 9,
            video: "ED-youtube-h264".to_string(),
            scheme: "cava".to_string(),
            vmaf_model: 1,
        },
        Frame::OpenOk {
            session_id: 9,
            degraded: true,
            n_tracks: 5,
            n_chunks: 633,
        },
        Frame::Decide {
            session_id: u64::MAX,
            request: sample_request(),
        },
        Frame::Decide {
            session_id: 1,
            request: DecisionRequest {
                chunk_index: 0,
                buffer_s: 0.0,
                estimated_bandwidth_bps: None,
                last_level: None,
                latest_throughput_bps: None,
                wall_time_s: 0.0,
                startup_complete: false,
                visible_chunks: 1,
            },
        },
        Frame::Decision {
            session_id: 9,
            response: DecisionResponse {
                level: 4,
                degraded: false,
            },
        },
        Frame::CloseSession { session_id: 9 },
        Frame::Closed {
            session_id: 9,
            decisions: 633,
        },
        Frame::StatsReq,
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
        Frame::ResumeSession { session_id: 9 },
        Frame::ResumeOk {
            session_id: 9,
            degraded: false,
            decisions: 21,
            n_tracks: 5,
            n_chunks: 633,
        },
        Frame::Error {
            code: ErrorCode::UnknownVideo,
            message: "unknown video \"x\"".to_string(),
        },
        Frame::Error {
            code: ErrorCode::Other(999),
            message: String::new(),
        },
        Frame::Shutdown,
        Frame::ShutdownOk,
    ]
}

#[test]
fn every_frame_round_trips() {
    for frame in every_frame() {
        let wire = encode_frame(&frame).unwrap();
        let body = &wire[4..];
        assert_eq!(
            decode_frame(body).unwrap(),
            frame,
            "decode_frame({frame:?})"
        );
        let mut cursor = Cursor::new(wire.clone());
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            frame,
            "read_frame({frame:?})"
        );
        // write_frame emits exactly the encode_frame bytes.
        let mut written = Vec::new();
        write_frame(&mut written, &frame).unwrap();
        assert_eq!(written, wire);
    }
}

#[test]
fn floats_survive_bit_exactly() {
    for value in [0.1_f64, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -0.0] {
        let frame = Frame::Decide {
            session_id: 1,
            request: DecisionRequest {
                buffer_s: value,
                ..sample_request()
            },
        };
        let wire = encode_frame(&frame).unwrap();
        let Frame::Decide { request, .. } = decode_frame(&wire[4..]).unwrap() else {
            panic!("wrong frame type back");
        };
        assert_eq!(request.buffer_s.to_bits(), value.to_bits());
    }
}

#[test]
fn a_stream_of_frames_reads_back_in_order() {
    let frames = every_frame();
    let mut wire = Vec::new();
    for frame in &frames {
        write_frame(&mut wire, frame).unwrap();
    }
    let mut cursor = Cursor::new(wire);
    for frame in &frames {
        assert_eq!(&read_frame(&mut cursor).unwrap(), frame);
    }
    assert_eq!(read_frame(&mut cursor), Err(WireError::Closed));
}

#[test]
fn clean_eof_is_closed_partial_is_truncated() {
    assert_eq!(
        read_frame(&mut Cursor::new(Vec::<u8>::new())),
        Err(WireError::Closed)
    );
    let wire = encode_frame(&Frame::StatsReq).unwrap();
    // Every strict prefix of a frame is a truncation, wherever it is cut.
    for cut in 1..wire.len() {
        let err = read_frame(&mut Cursor::new(wire[..cut].to_vec())).unwrap_err();
        assert_eq!(err, WireError::Truncated, "cut at {cut}");
    }
}

#[test]
fn every_truncation_of_every_frame_is_rejected() {
    for frame in every_frame() {
        let wire = encode_frame(&frame).unwrap();
        for cut in 1..wire.len() {
            let result = read_frame(&mut Cursor::new(wire[..cut].to_vec()));
            assert!(
                result.is_err(),
                "truncated {frame:?} at {cut}/{} decoded to {result:?}",
                wire.len()
            );
        }
    }
}

#[test]
fn oversized_and_zero_length_prefixes_are_rejected_before_allocation() {
    for len in [0u32, MAX_FRAME_LEN + 1, u32::MAX] {
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            read_frame(&mut Cursor::new(wire)),
            Err(WireError::Oversized { len })
        );
    }
}

#[test]
fn unknown_frame_types_and_trailing_bytes_are_typed_errors() {
    for ty in [0x00u8, 0x10, 0x7F, 0xFF] {
        assert_eq!(decode_frame(&[ty]), Err(WireError::UnknownFrameType(ty)));
    }
    let mut body = encode_frame(&Frame::Shutdown).unwrap()[4..].to_vec();
    body.extend_from_slice(&[1, 2, 3]);
    assert_eq!(decode_frame(&body), Err(WireError::Trailing { extra: 3 }));
    assert_eq!(
        decode_frame(&[]),
        Err(WireError::BadPayload("empty frame body"))
    );
}

#[test]
fn bad_tags_and_bad_utf8_are_rejected() {
    // OpenOk with a bool byte outside {0,1}.
    let mut body = encode_frame(&Frame::OpenOk {
        session_id: 1,
        degraded: false,
        n_tracks: 3,
        n_chunks: 10,
    })
    .unwrap()[4..]
        .to_vec();
    body[9] = 2; // the `degraded` byte (type + u64 session id precede it)
    assert!(matches!(decode_frame(&body), Err(WireError::BadPayload(_))));

    // OpenSession whose video string is invalid UTF-8.
    let mut body = vec![0x03];
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&2u16.to_le_bytes());
    body.extend_from_slice(&[0xFF, 0xFE]); // not UTF-8
    body.extend_from_slice(&0u16.to_le_bytes());
    body.push(0);
    assert_eq!(
        decode_frame(&body),
        Err(WireError::BadPayload("invalid UTF-8"))
    );

    // A string whose declared length runs past the payload.
    let mut body = vec![0x03];
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&500u16.to_le_bytes());
    body.push(b'x');
    assert!(matches!(decode_frame(&body), Err(WireError::BadPayload(_))));
}

/// Deterministic fuzz source.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

#[test]
fn fuzzed_bodies_never_panic() {
    let mut rng = Lcg(0xF00D);
    for _ in 0..20_000 {
        let len = (rng.next() % 80) as usize;
        let body: Vec<u8> = (0..len).map(|_| (rng.next() >> 32) as u8).collect();
        // Either a frame or a typed error; the assertion is "no panic".
        let _ = decode_frame(&body);
    }
}

#[test]
fn fuzzed_mutations_of_valid_frames_never_panic_and_reencode_identically() {
    let mut rng = Lcg(0xBEEF);
    for frame in every_frame() {
        let wire = encode_frame(&frame).unwrap();
        for _ in 0..500 {
            let mut mutated = wire.clone();
            let at = (rng.next() as usize) % mutated.len();
            mutated[at] ^= 1 << (rng.next() % 8);
            if let Ok(decoded) = read_frame(&mut Cursor::new(mutated)) {
                // Whatever decodes must re-encode to a decodable frame —
                // the codec is internally consistent even on mutants.
                let rewire = encode_frame(&decoded).unwrap();
                assert_eq!(decode_frame(&rewire[4..]).unwrap(), decoded);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Encode-side length guard (regression: the old encoder cast body.len()
// straight to u32, so an over-long body shipped a wrapped/oversized prefix
// the peer would choke on instead of failing at the source).
// ---------------------------------------------------------------------------

#[test]
fn oversized_bodies_are_rejected_at_encode_time() {
    // type byte + u16 code + u16 string length + 65535 bytes of message =
    // 65540 body bytes, just past MAX_FRAME_LEN (64 KiB).
    let frame = Frame::Error {
        code: ErrorCode::BadFrame,
        message: "x".repeat(u16::MAX as usize),
    };
    assert_eq!(
        encode_frame(&frame),
        Err(WireError::TooLong { len: 65_540 }),
        "encode must reject what decode would refuse"
    );
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &frame),
        Err(WireError::TooLong { .. })
    ));
    assert!(
        sink.is_empty(),
        "no bytes may hit the wire for a rejected frame"
    );

    // Symmetry: the biggest encodable Error frame still round-trips.
    let frame = Frame::Error {
        code: ErrorCode::BadFrame,
        message: "x".repeat(u16::MAX as usize - 4),
    };
    let wire = encode_frame(&frame).unwrap();
    assert_eq!(decode_frame(&wire[4..]).unwrap(), frame);
}

// ---------------------------------------------------------------------------
// Partial-frame delivery: slow peers against the blocking reader.
// ---------------------------------------------------------------------------

/// A reader that trickles its bytes out in tiny chunks with a fixed number
/// of interrupted reads (`Interrupted`, a signal landing mid-`read`)
/// between them — a slow peer as a blocking socket delivers it.
struct Trickle {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
    stalls_between: usize,
    pending_stalls: usize,
}

impl Trickle {
    fn new(data: Vec<u8>, chunk: usize, stalls_between: usize) -> Trickle {
        Trickle {
            data,
            pos: 0,
            chunk,
            stalls_between,
            pending_stalls: 0,
        }
    }
}

impl std::io::Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending_stalls > 0 {
            self.pending_stalls -= 1;
            return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
        }
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let n = self.chunk.min(self.data.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        self.pending_stalls = self.stalls_between;
        Ok(n)
    }
}

#[test]
fn trickled_frame_with_stalls_decodes_exactly_one_frame() {
    let frame = Frame::Decide {
        session_id: 7,
        request: sample_request(),
    };
    let wire = encode_frame(&frame).unwrap();
    // One byte per read, three interrupted reads between bytes: dozens of
    // partial deliveries reassemble into exactly one frame.
    let mut slow = Trickle::new(wire, 1, 3);
    assert_eq!(read_frame(&mut slow).unwrap(), frame);
    // No spurious second frame, no leftover error: the stream now ends.
    assert_eq!(read_frame(&mut slow), Err(WireError::Closed));
}

#[test]
fn mid_body_eof_is_truncation_not_a_hang() {
    let wire = encode_frame(&Frame::Decide {
        session_id: 7,
        request: sample_request(),
    })
    .unwrap();
    // Cut the stream in the middle of the body (after the prefix).
    let cut = wire[..wire.len() / 2].to_vec();
    let mut slow = Trickle::new(cut, 1, 2);
    assert_eq!(read_frame(&mut slow), Err(WireError::Truncated));
}

#[test]
fn a_read_timeout_surfaces_as_an_io_error() {
    /// Delivers a fixed prefix, then times out on every read.
    struct Stalled {
        head: Vec<u8>,
        pos: usize,
    }
    impl std::io::Read for Stalled {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos < self.head.len() {
                let n = (self.head.len() - self.pos).min(buf.len());
                buf[..n].copy_from_slice(&self.head[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            Err(std::io::Error::from(std::io::ErrorKind::TimedOut))
        }
    }
    // The blocking reader retries only interrupted reads; a timeout armed
    // on the socket is the caller's deadline and comes back as an error,
    // between frames or mid-frame alike.
    let timed_out = Err(WireError::Io(std::io::ErrorKind::TimedOut));
    let mut mute = Stalled {
        head: Vec::new(),
        pos: 0,
    };
    assert_eq!(read_frame(&mut mute), timed_out);
    let wire = encode_frame(&Frame::StatsReq).unwrap();
    let mut loris = Stalled {
        head: wire[..wire.len() - 1].to_vec(),
        pos: 0,
    };
    assert_eq!(read_frame(&mut loris), timed_out);
}
