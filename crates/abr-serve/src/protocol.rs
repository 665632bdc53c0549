//! The versioned, length-prefixed binary wire protocol.
//!
//! Every frame on the wire is `[u32 length][u8 frame-type][payload]`, all
//! integers little-endian; the length covers the frame-type byte plus the
//! payload. Encoding is written out field by field — no ambient
//! serialization framework — so the wire format is exactly what this file
//! says and nothing more. Floats travel as their IEEE-754 bit patterns
//! ([`f64::to_bits`]), which is what makes **decision parity** possible:
//! a buffer level survives the round trip bit-for-bit.
//!
//! Decoding is total: any byte sequence either parses into a [`Frame`] or
//! yields a typed [`WireError`] — truncated frames, oversized length
//! prefixes, unknown frame types, and trailing garbage are all distinct,
//! and nothing panics (see the fuzz-ish round-trip tests in
//! `tests/protocol.rs`).
//!
//! [`read_frame`] is the blocking reader the client side uses. The server
//! never blocks on a peer: its reactor decodes frames incrementally out of
//! nonblocking read buffers, with the same length-prefix checks.

use abr_sim::{DecisionRequest, DecisionResponse};
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version spoken by this build. The `Hello`/`HelloOk` handshake
/// pins it before any session traffic; a mismatch is rejected with
/// [`ErrorCode::UnknownVersion`].
///
/// Version history: v1 was the original PR-3 wire format; v2 added the
/// `ResumeSession`/`ResumeOk` frames, the deadline/fault counters in
/// [`StatsSnapshot`], and the [`ErrorCode::Timeout`] /
/// [`ErrorCode::SessionBusy`] codes.
pub const PROTOCOL_VERSION: u16 = 2;

/// Hard ceiling on the length prefix. Every legitimate frame is tiny
/// (strings are capped at `u16` length); anything larger is a corrupt or
/// hostile prefix and is rejected *before* allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024;

/// Application-level error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake version not spoken by the server.
    UnknownVersion,
    /// `OpenSession` named a video the provider cannot resolve.
    UnknownVideo,
    /// `OpenSession` named no [`crate::scheme::SchemeKind`] wire name.
    UnknownScheme,
    /// A frame referenced a session id the store does not hold.
    UnknownSession,
    /// `OpenSession` reused a live session id.
    DuplicateSession,
    /// The frame was well-formed but not valid at this point in the
    /// conversation (e.g. a second `Hello`, or a malformed predecessor).
    BadFrame,
    /// The connection blew its read or write deadline and is being reaped.
    Timeout,
    /// `ResumeSession` named a session still owned by a live connection.
    SessionBusy,
    /// A code minted by a newer peer; preserved verbatim.
    Other(u16),
}

impl ErrorCode {
    /// Wire representation.
    pub fn to_u16(self) -> u16 {
        match self {
            ErrorCode::UnknownVersion => 1,
            ErrorCode::UnknownVideo => 2,
            ErrorCode::UnknownScheme => 3,
            ErrorCode::UnknownSession => 4,
            ErrorCode::DuplicateSession => 5,
            ErrorCode::BadFrame => 6,
            ErrorCode::Timeout => 7,
            ErrorCode::SessionBusy => 8,
            ErrorCode::Other(raw) => raw,
        }
    }

    /// Total inverse of [`ErrorCode::to_u16`]: unknown codes round-trip
    /// through [`ErrorCode::Other`] instead of failing the decode.
    pub fn from_u16(raw: u16) -> ErrorCode {
        match raw {
            1 => ErrorCode::UnknownVersion,
            2 => ErrorCode::UnknownVideo,
            3 => ErrorCode::UnknownScheme,
            4 => ErrorCode::UnknownSession,
            5 => ErrorCode::DuplicateSession,
            6 => ErrorCode::BadFrame,
            7 => ErrorCode::Timeout,
            8 => ErrorCode::SessionBusy,
            other => ErrorCode::Other(other),
        }
    }
}

/// Server counters reported by [`Frame::StatsReply`]. Seventeen `u64`s on
/// the wire, in declaration order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted since startup.
    pub connections: u64,
    /// Sessions currently held by the store.
    pub open_sessions: u64,
    /// High-water mark of concurrently open sessions.
    pub peak_sessions: u64,
    /// Sessions ever admitted (full or degraded).
    pub sessions_opened: u64,
    /// Sessions closed by an explicit `CloseSession`.
    pub sessions_closed: u64,
    /// Sessions reaped because their connection dropped mid-stream.
    pub sessions_aborted: u64,
    /// Sessions reclaimed by idle eviction under capacity pressure.
    pub sessions_evicted: u64,
    /// Admissions that fell back to degraded (stateless) service.
    pub degraded_opens: u64,
    /// Decide frames answered.
    pub decisions: u64,
    /// Decide frames answered by the stateless fallback.
    pub degraded_decisions: u64,
    /// Frames successfully decoded from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// Connections torn down by a wire-level decode error.
    pub protocol_errors: u64,
    /// Connections closed by the slow-client reaper (read or write
    /// deadline exceeded).
    pub connections_reaped: u64,
    /// Sessions parked ownerless when their connection died, awaiting a
    /// `ResumeSession` within the orphan grace window.
    pub sessions_orphaned: u64,
    /// Sessions re-attached to a new connection by `ResumeSession`.
    pub sessions_resumed: u64,
    /// Socket-option failures (`set_nodelay`, timeout configuration) —
    /// surfaced instead of silently dropped.
    pub sockopt_errors: u64,
}

/// One protocol frame. Client→server frames: `Hello`, `OpenSession`,
/// `Decide`, `CloseSession`, `StatsReq`, `Shutdown`. Server→client frames:
/// the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake; must be the first frame on every connection.
    Hello {
        /// Version the client speaks.
        version: u16,
    },
    /// Server handshake acknowledgement.
    HelloOk {
        /// Version the server will speak on this connection.
        version: u16,
    },
    /// Admit a session: bind an id to a (video, scheme) pair.
    OpenSession {
        /// Client-chosen id, unique among the client's live sessions.
        session_id: u64,
        /// Dataset video name (see `cava list-videos`).
        video: String,
        /// Scheme wire name ([`crate::scheme::SchemeKind::wire`]).
        scheme: String,
        /// VMAF device model: 0 = TV, 1 = phone.
        vmaf_model: u8,
    },
    /// Session admitted.
    OpenOk {
        /// Echoed session id.
        session_id: u64,
        /// True when the store was over capacity and admitted the session
        /// in stateless graceful-degradation mode.
        degraded: bool,
        /// Track count of the bound manifest.
        n_tracks: u32,
        /// Chunk count of the bound manifest.
        n_chunks: u32,
    },
    /// Ask the session's algorithm for the next track level.
    Decide {
        /// Target session.
        session_id: u64,
        /// Per-step player state snapshot.
        request: DecisionRequest,
    },
    /// Answer to [`Frame::Decide`].
    Decision {
        /// Echoed session id.
        session_id: u64,
        /// The chosen level and whether the fallback produced it.
        response: DecisionResponse,
    },
    /// Retire a session and release its state.
    CloseSession {
        /// Target session.
        session_id: u64,
    },
    /// Answer to [`Frame::CloseSession`].
    Closed {
        /// Echoed session id.
        session_id: u64,
        /// Decisions served over the session's lifetime.
        decisions: u64,
    },
    /// Request a [`Frame::StatsReply`].
    StatsReq,
    /// Server counter snapshot.
    StatsReply(StatsSnapshot),
    /// Application-level error; the connection stays usable unless the
    /// error was a wire-level decode failure.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Ask the server to stop accepting and drain.
    Shutdown,
    /// Acknowledges [`Frame::Shutdown`]; sent before the listener closes.
    ShutdownOk,
    /// Re-attach an orphaned session after a reconnect. The session must
    /// have been opened on a connection that has since died; its algorithm
    /// state survives untouched, so decisions continue exactly where they
    /// left off.
    ResumeSession {
        /// The id the session was opened under.
        session_id: u64,
    },
    /// Answer to [`Frame::ResumeSession`].
    ResumeOk {
        /// Echoed session id.
        session_id: u64,
        /// Whether the session is (still) in degraded stateless mode.
        degraded: bool,
        /// Decisions served before the reconnect.
        decisions: u64,
        /// Track count of the bound manifest.
        n_tracks: u32,
        /// Chunk count of the bound manifest.
        n_chunks: u32,
    },
}

const TY_HELLO: u8 = 0x01;
const TY_HELLO_OK: u8 = 0x02;
const TY_OPEN_SESSION: u8 = 0x03;
const TY_OPEN_OK: u8 = 0x04;
const TY_DECIDE: u8 = 0x05;
const TY_DECISION: u8 = 0x06;
const TY_CLOSE_SESSION: u8 = 0x07;
const TY_CLOSED: u8 = 0x08;
const TY_STATS_REQ: u8 = 0x09;
const TY_STATS_REPLY: u8 = 0x0A;
const TY_ERROR: u8 = 0x0B;
const TY_SHUTDOWN: u8 = 0x0C;
const TY_SHUTDOWN_OK: u8 = 0x0D;
const TY_RESUME_SESSION: u8 = 0x0E;
const TY_RESUME_OK: u8 = 0x0F;

/// Typed decode/transport failure. Everything a hostile or broken peer can
/// do maps onto one of these — the read path never panics and never hangs
/// on a frame boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Clean EOF exactly between frames — the peer hung up politely.
    Closed,
    /// EOF in the middle of a frame (inside the prefix or the body).
    Truncated,
    /// Length prefix above [`MAX_FRAME_LEN`] (or zero).
    Oversized {
        /// The offending declared length.
        len: u32,
    },
    /// Encode-side twin of [`WireError::Oversized`]: the frame being
    /// *written* would need a body longer than [`MAX_FRAME_LEN`], so it is
    /// rejected before a single byte hits the wire (the peer would refuse
    /// the prefix anyway).
    TooLong {
        /// Body length (type byte + payload) the frame would have needed.
        len: usize,
    },
    /// Frame-type byte outside the protocol.
    UnknownFrameType(u8),
    /// Handshake version this build does not speak.
    UnknownVersion(u16),
    /// Payload too short, invalid UTF-8, bad bool/option tag, …
    BadPayload(&'static str),
    /// Payload decoded but bytes were left over.
    Trailing {
        /// How many undecoded bytes followed the frame.
        extra: usize,
    },
    /// Transport-level I/O failure other than EOF.
    Io(io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized { len } => {
                write!(f, "length prefix {len} outside 1..={MAX_FRAME_LEN}")
            }
            WireError::TooLong { len } => {
                write!(
                    f,
                    "frame body {len} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
                )
            }
            WireError::UnknownFrameType(ty) => write!(f, "unknown frame type 0x{ty:02X}"),
            WireError::UnknownVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after frame"),
            WireError::Io(kind) => write!(f, "io error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

pub(crate) fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
    }
}

pub(crate) fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
    }
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
    put_u16(out, len);
    out.extend_from_slice(&bytes[..usize::from(len)]);
}

pub(crate) fn put_request(out: &mut Vec<u8>, req: &DecisionRequest) {
    put_u64(out, req.chunk_index as u64);
    put_f64(out, req.buffer_s);
    put_opt_f64(out, req.estimated_bandwidth_bps);
    put_opt_u64(out, req.last_level.map(|l| l as u64));
    put_opt_f64(out, req.latest_throughput_bps);
    put_f64(out, req.wall_time_s);
    put_bool(out, req.startup_complete);
    put_u64(out, req.visible_chunks as u64);
}

fn put_stats(out: &mut Vec<u8>, s: &StatsSnapshot) {
    for v in [
        s.connections,
        s.open_sessions,
        s.peak_sessions,
        s.sessions_opened,
        s.sessions_closed,
        s.sessions_aborted,
        s.sessions_evicted,
        s.degraded_opens,
        s.decisions,
        s.degraded_decisions,
        s.frames_in,
        s.frames_out,
        s.protocol_errors,
        s.connections_reaped,
        s.sessions_orphaned,
        s.sessions_resumed,
        s.sockopt_errors,
    ] {
        put_u64(out, v);
    }
}

/// Encode a frame to its full wire form: length prefix, type byte, payload.
///
/// Rejects frames whose body would exceed [`MAX_FRAME_LEN`] with
/// [`WireError::TooLong`] — the symmetric twin of the decode-side
/// [`WireError::Oversized`] check, so an encoder can never emit a frame the
/// decoder is guaranteed to refuse (reachable today: two maximum-length
/// strings in one `OpenSession` overflow the cap).
// abr-lint: hot-path
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let mut wire = Vec::with_capacity(64);
    encode_frame_into(&mut wire, frame)?;
    Ok(wire)
}

/// Append one frame's full wire form (length prefix, type byte, payload) to
/// `out`, returning `(wire_len, type_byte)` — the two trace facts the
/// recorder wants. The steady-state twin of [`encode_frame`]: with a reused
/// buffer this encodes without touching the allocator (once the buffer has
/// grown past the largest frame it carries). On error `out` is truncated
/// back to its original length, so a failed encode never leaves partial
/// bytes in a batching buffer.
// abr-lint: hot-path
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) -> Result<(u32, u8), WireError> {
    let start = out.len();
    // Length prefix + type byte, both patched below once the payload length
    // is known.
    out.extend_from_slice(&[0u8; 5]);
    let ty = match frame {
        Frame::Hello { version } => {
            put_u16(out, *version);
            TY_HELLO
        }
        Frame::HelloOk { version } => {
            put_u16(out, *version);
            TY_HELLO_OK
        }
        Frame::OpenSession {
            session_id,
            video,
            scheme,
            vmaf_model,
        } => {
            put_u64(out, *session_id);
            put_str(out, video);
            put_str(out, scheme);
            out.push(*vmaf_model);
            TY_OPEN_SESSION
        }
        Frame::OpenOk {
            session_id,
            degraded,
            n_tracks,
            n_chunks,
        } => {
            put_u64(out, *session_id);
            put_bool(out, *degraded);
            put_u32(out, *n_tracks);
            put_u32(out, *n_chunks);
            TY_OPEN_OK
        }
        Frame::Decide {
            session_id,
            request,
        } => {
            put_u64(out, *session_id);
            put_request(out, request);
            TY_DECIDE
        }
        Frame::Decision {
            session_id,
            response,
        } => {
            put_u64(out, *session_id);
            put_u64(out, response.level as u64);
            put_bool(out, response.degraded);
            TY_DECISION
        }
        Frame::CloseSession { session_id } => {
            put_u64(out, *session_id);
            TY_CLOSE_SESSION
        }
        Frame::Closed {
            session_id,
            decisions,
        } => {
            put_u64(out, *session_id);
            put_u64(out, *decisions);
            TY_CLOSED
        }
        Frame::StatsReq => TY_STATS_REQ,
        Frame::StatsReply(stats) => {
            put_stats(out, stats);
            TY_STATS_REPLY
        }
        Frame::Error { code, message } => {
            put_u16(out, code.to_u16());
            put_str(out, message);
            TY_ERROR
        }
        Frame::Shutdown => TY_SHUTDOWN,
        Frame::ShutdownOk => TY_SHUTDOWN_OK,
        Frame::ResumeSession { session_id } => {
            put_u64(out, *session_id);
            TY_RESUME_SESSION
        }
        Frame::ResumeOk {
            session_id,
            degraded,
            decisions,
            n_tracks,
            n_chunks,
        } => {
            put_u64(out, *session_id);
            put_bool(out, *degraded);
            put_u64(out, *decisions);
            put_u32(out, *n_tracks);
            put_u32(out, *n_chunks);
            TY_RESUME_OK
        }
    };
    // The declared length covers the type byte plus payload, mirroring the
    // decode-side convention.
    let body_len = out.len() - start - 4;
    let Some(len) = u32::try_from(body_len)
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
    else {
        out.truncate(start);
        return Err(WireError::TooLong { len: body_len });
    };
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4] = ty;
    Ok((4 + len, ty))
}

/// Write one frame (length prefix included) to `w`. Does **not** flush —
/// callers batching frames flush once. Oversized frames are rejected
/// before any byte is written, so a failed encode never corrupts the
/// stream.
// abr-lint: hot-path
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame)?)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over a frame body; every accessor fails with
/// [`WireError::BadPayload`] instead of slicing out of range. Shared with
/// the [`crate::replay`] event-log decoder, which speaks the same
/// little-endian field grammar.
pub(crate) struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::BadPayload("payload shorter than declared"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadPayload("index exceeds usize"))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadPayload("bool tag outside {0,1}")),
        }
    }

    pub(crate) fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(WireError::BadPayload("option tag outside {0,1}")),
        }
    }

    pub(crate) fn opt_usize(&mut self) -> Result<Option<usize>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            _ => Err(WireError::BadPayload("option tag outside {0,1}")),
        }
    }

    pub(crate) fn string(&mut self) -> Result<String, WireError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        // Validate in place, then make exactly one right-sized copy — only
        // string-bearing frames (OpenSession/Error) ever reach here; the
        // steady-state Decide/Decision grammar is string-free.
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::BadPayload("invalid UTF-8"))
    }

    pub(crate) fn request(&mut self) -> Result<DecisionRequest, WireError> {
        Ok(DecisionRequest {
            chunk_index: self.usize()?,
            buffer_s: self.f64()?,
            estimated_bandwidth_bps: self.opt_f64()?,
            last_level: self.opt_usize()?,
            latest_throughput_bps: self.opt_f64()?,
            wall_time_s: self.f64()?,
            startup_complete: self.bool()?,
            visible_chunks: self.usize()?,
        })
    }

    pub(crate) fn stats(&mut self) -> Result<StatsSnapshot, WireError> {
        Ok(StatsSnapshot {
            connections: self.u64()?,
            open_sessions: self.u64()?,
            peak_sessions: self.u64()?,
            sessions_opened: self.u64()?,
            sessions_closed: self.u64()?,
            sessions_aborted: self.u64()?,
            sessions_evicted: self.u64()?,
            degraded_opens: self.u64()?,
            decisions: self.u64()?,
            degraded_decisions: self.u64()?,
            frames_in: self.u64()?,
            frames_out: self.u64()?,
            protocol_errors: self.u64()?,
            connections_reaped: self.u64()?,
            sessions_orphaned: self.u64()?,
            sessions_resumed: self.u64()?,
            sockopt_errors: self.u64()?,
        })
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Decode one frame body (type byte + payload, **without** the length
/// prefix). Rejects trailing bytes so an encoder bug cannot hide.
// abr-lint: hot-path
pub fn decode_frame(body: &[u8]) -> Result<Frame, WireError> {
    let mut cur = Cur::new(body);
    let ty = cur
        .u8()
        .map_err(|_| WireError::BadPayload("empty frame body"))?;
    let frame = match ty {
        TY_HELLO => Frame::Hello {
            version: cur.u16()?,
        },
        TY_HELLO_OK => Frame::HelloOk {
            version: cur.u16()?,
        },
        TY_OPEN_SESSION => Frame::OpenSession {
            session_id: cur.u64()?,
            video: cur.string()?,
            scheme: cur.string()?,
            vmaf_model: cur.u8()?,
        },
        TY_OPEN_OK => Frame::OpenOk {
            session_id: cur.u64()?,
            degraded: cur.bool()?,
            n_tracks: cur.u32()?,
            n_chunks: cur.u32()?,
        },
        TY_DECIDE => Frame::Decide {
            session_id: cur.u64()?,
            request: cur.request()?,
        },
        TY_DECISION => Frame::Decision {
            session_id: cur.u64()?,
            response: DecisionResponse {
                level: cur.usize()?,
                degraded: cur.bool()?,
            },
        },
        TY_CLOSE_SESSION => Frame::CloseSession {
            session_id: cur.u64()?,
        },
        TY_CLOSED => Frame::Closed {
            session_id: cur.u64()?,
            decisions: cur.u64()?,
        },
        TY_STATS_REQ => Frame::StatsReq,
        TY_STATS_REPLY => Frame::StatsReply(cur.stats()?),
        TY_ERROR => Frame::Error {
            code: ErrorCode::from_u16(cur.u16()?),
            message: cur.string()?,
        },
        TY_SHUTDOWN => Frame::Shutdown,
        TY_SHUTDOWN_OK => Frame::ShutdownOk,
        TY_RESUME_SESSION => Frame::ResumeSession {
            session_id: cur.u64()?,
        },
        TY_RESUME_OK => Frame::ResumeOk {
            session_id: cur.u64()?,
            degraded: cur.bool()?,
            decisions: cur.u64()?,
            n_tracks: cur.u32()?,
            n_chunks: cur.u32()?,
        },
        other => return Err(WireError::UnknownFrameType(other)),
    };
    if cur.remaining() != 0 {
        return Err(WireError::Trailing {
            extra: cur.remaining(),
        });
    }
    Ok(frame)
}

/// Fill `buf` completely. `at_boundary` selects the EOF flavor: a clean
/// hangup before the first byte of a frame is [`WireError::Closed`],
/// anywhere else it is [`WireError::Truncated`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], at_boundary: bool) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::from(e)),
        }
    }
    Ok(())
}

/// Read one frame from `r`, blocking until it has fully arrived, and
/// enforce [`MAX_FRAME_LEN`]. A clean EOF at a frame boundary is
/// [`WireError::Closed`]; EOF anywhere inside a frame is
/// [`WireError::Truncated`]. This is the client-side reader: the server
/// decodes incrementally out of its nonblocking read buffers (see
/// [`crate::reactor`]) and never blocks on a peer.
// abr-lint: hot-path
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut prefix = [0u8; 4];
    read_full(r, &mut prefix, true)?;
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    let mut body = Vec::with_capacity(64);
    body.resize(len as usize, 0);
    read_full(r, &mut body, false)?;
    decode_frame(&body)
}
