//! The versioned, length-prefixed binary wire protocol.
//!
//! Every frame on the wire is `[u32 length][u8 frame-type][payload]`, all
//! integers little-endian; the length covers the frame-type byte plus the
//! payload. The frames are declared once, in the [`Frame`] table below:
//! each row gives a variant its type byte and its fields in wire order,
//! and the enum, the encoder and the decoder are all generated from it
//! (see `codec.rs`). No ambient serialization framework is involved, so
//! the wire format is exactly what the table says. Floats travel as their
//! IEEE-754 bit patterns ([`f64::to_bits`]), which is what makes
//! **decision parity** possible: a buffer level survives the round trip
//! bit-for-bit. `tests/codec_pins.rs` pins every frame's bytes.
//!
//! Decoding is total: any byte sequence either parses into a [`Frame`] or
//! yields a typed [`WireError`] — truncated frames, oversized length
//! prefixes, unknown frame types, and trailing garbage are all distinct,
//! and nothing panics (see the fuzz-ish round-trip tests in
//! `tests/protocol.rs`).
//!
//! [`read_frame`] is the blocking reader the client side uses. The server
//! never blocks on a peer: its reactor decodes frames incrementally out of
//! nonblocking read buffers, with the same length-prefix rule.

use crate::codec::{body_len, put_prefixed, wire_enum, wire_struct, Cur, Wire};
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

impl Wire for ErrorCode {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_u16().put(out);
    }

    fn get(cur: &mut Cur<'_>) -> Result<ErrorCode, WireError> {
        u16::get(cur).map(ErrorCode::from_u16)
    }
}

wire_struct! {
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
}

wire_enum! {
    /// One protocol frame, and the one declaration of the frame format:
    /// each row's `0xNN` is its type byte, and its fields travel in row
    /// order. Client→server frames: `Hello`, `OpenSession`, `Decide`,
    /// `CloseSession`, `StatsReq`, `Shutdown`, `ResumeSession`.
    /// Server→client frames: the rest.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Frame {
        /// Client handshake; must be the first frame on every connection.
        Hello = 0x01 {
            /// Version the client speaks.
            version: u16,
        },
        /// Server handshake acknowledgement.
        HelloOk = 0x02 {
            /// Version the server will speak on this connection.
            version: u16,
        },
        /// Admit a session: bind an id to a (video, scheme) pair.
        OpenSession = 0x03 {
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
        OpenOk = 0x04 {
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
        Decide = 0x05 {
            /// Target session.
            session_id: u64,
            /// Per-step player state snapshot.
            request: DecisionRequest,
        },
        /// Answer to [`Frame::Decide`].
        Decision = 0x06 {
            /// Echoed session id.
            session_id: u64,
            /// The chosen level and whether the fallback produced it.
            response: DecisionResponse,
        },
        /// Retire a session and release its state.
        CloseSession = 0x07 {
            /// Target session.
            session_id: u64,
        },
        /// Answer to [`Frame::CloseSession`].
        Closed = 0x08 {
            /// Echoed session id.
            session_id: u64,
            /// Decisions served over the session's lifetime.
            decisions: u64,
        },
        /// Request a [`Frame::StatsReply`].
        StatsReq = 0x09,
        /// Server counter snapshot.
        StatsReply = 0x0A (stats: StatsSnapshot),
        /// Application-level error; the connection stays usable unless the
        /// error was a wire-level decode failure.
        Error = 0x0B {
            /// Machine-readable cause.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
        /// Ask the server to stop accepting and drain.
        Shutdown = 0x0C,
        /// Acknowledges [`Frame::Shutdown`]; sent before the listener closes.
        ShutdownOk = 0x0D,
        /// Re-attach an orphaned session after a reconnect. The session must
        /// have been opened on a connection that has since died; its algorithm
        /// state survives untouched, so decisions continue exactly where they
        /// left off.
        ResumeSession = 0x0E {
            /// The id the session was opened under.
            session_id: u64,
        },
        /// Answer to [`Frame::ResumeSession`].
        ResumeOk = 0x0F {
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
}

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
    put_prefixed(out, |out| frame.put_fields(out)).map_err(|len| WireError::TooLong { len })
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

/// Decode one frame body (type byte + payload, **without** the length
/// prefix). Rejects trailing bytes so an encoder bug cannot hide.
// abr-lint: hot-path
pub fn decode_frame(body: &[u8]) -> Result<Frame, WireError> {
    let mut cur = Cur::new(body);
    let ty = u8::get(&mut cur).map_err(|_| WireError::BadPayload("empty frame body"))?;
    let frame = Frame::get_fields(ty, &mut cur)?.ok_or(WireError::UnknownFrameType(ty))?;
    cur.all_read()?;
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
    let mut body = Vec::with_capacity(64);
    body.resize(body_len(prefix)?, 0);
    read_full(r, &mut body, false)?;
    decode_frame(&body)
}
