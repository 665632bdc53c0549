//! Wire frames of the serving workloads, the replies they must draw, and
//! the in-process replay of those frames through the protocol codec and
//! the session store.

use crate::inputs::{Template, VIDEO};
use crate::spans::SpanBuf;
use abr_serve::protocol::{decode_frame, encode_frame, encode_frame_into};
use abr_serve::store::{SessionStore, StoreConfig, VideoProvider};
use abr_serve::Frame;
use abr_sim::DecisionRequest;
use std::time::Instant;

/// Byte offset of the session id in `OpenSession`, `Decide` and
/// `CloseSession` frames: after the 4-byte length and the type byte.
const ID_AT: usize = 5;

/// Encode a client frame.
pub fn frame_bytes(frame: &Frame) -> Vec<u8> {
    encode_frame(frame).expect("client frames are far below the frame cap")
}

/// Overwrite the session id of an encoded id-carrying client frame.
pub fn patch_id(frame: &mut [u8], id: u64) {
    frame[ID_AT..ID_AT + 8].copy_from_slice(&id.to_le_bytes());
}

/// A template's `Decide` frames, encoded once with session id 0.
pub struct EncodedTemplate {
    /// Concatenated frames.
    pub bytes: Vec<u8>,
    /// Start offset of each frame in `bytes`, plus the end as last entry.
    pub starts: Vec<usize>,
    /// `OpenSession` frame for the template's video, scheme and model.
    pub open: Vec<u8>,
}

impl EncodedTemplate {
    /// Encode every request of `t`.
    pub fn new(t: &Template) -> EncodedTemplate {
        let mut bytes = Vec::new();
        let mut starts = vec![0];
        for request in &t.requests {
            bytes.extend_from_slice(&frame_bytes(&Frame::Decide {
                session_id: 0,
                request: *request,
            }));
            starts.push(bytes.len());
        }
        let open = frame_bytes(&Frame::OpenSession {
            session_id: 0,
            video: VIDEO.to_string(),
            scheme: t.scheme.to_string(),
            vmaf_model: t.vmaf_code,
        });
        EncodedTemplate {
            bytes,
            starts,
            open,
        }
    }

    /// Frame `k`.
    pub fn decide(&self, k: usize) -> &[u8] {
        &self.bytes[self.starts[k]..self.starts[k + 1]]
    }
}

/// The reply a client frame must draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `OpenOk` for this id, not degraded.
    Opened(u64),
    /// `Decision` for this id at this level, not degraded.
    Decision {
        /// Session id.
        id: u64,
        /// The in-process level.
        level: usize,
    },
    /// `Closed` for this id after this many decisions.
    Closed {
        /// Session id.
        id: u64,
        /// Decisions served over the session's life.
        decisions: u64,
    },
}

impl Expect {
    /// Whether `reply` is what this expectation asks for.
    pub fn matches(&self, reply: &Frame) -> bool {
        match (*self, reply) {
            (
                Expect::Opened(id),
                Frame::OpenOk {
                    session_id,
                    degraded,
                    ..
                },
            ) => *session_id == id && !*degraded,
            (
                Expect::Decision { id, level },
                Frame::Decision {
                    session_id,
                    response,
                },
            ) => *session_id == id && response.level == level && !response.degraded,
            (
                Expect::Closed { id, decisions },
                Frame::Closed {
                    session_id,
                    decisions: served,
                },
            ) => *session_id == id && *served == decisions,
            _ => false,
        }
    }
}

/// Split complete frames off the front of a read buffer.
#[derive(Default)]
pub struct ReplyReader {
    buf: Vec<u8>,
    pos: usize,
}

impl ReplyReader {
    /// Append bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 1 << 16 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, decoded.
    pub fn next_frame(&mut self) -> Option<Result<Frame, String>> {
        let rest = &self.buf[self.pos..];
        if rest.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if rest.len() < 4 + len {
            return None;
        }
        self.pos += 4 + len;
        Some(decode_frame(&rest[4..4 + len]).map_err(|e| format!("undecodable reply: {e:?}")))
    }
}

/// Cost of the server-side frame work, measured by [`replay`].
#[derive(Debug, Clone, Default)]
pub struct WireCost {
    /// Sessions opened.
    pub opens: u64,
    /// Decisions replayed.
    pub decisions: u64,
    /// Summed `SessionStore::open` time.
    pub open_ns: u64,
    /// Summed `decode_frame` time over the `Decide` frames.
    pub decode_ns: u64,
    /// Summed `SessionStore::decide` time.
    pub decide_ns: u64,
    /// Summed `encode_frame_into` time over the `Decision` replies.
    pub encode_ns: u64,
    /// Decisions whose store level differs from the template's.
    pub mismatches: u64,
    /// The first such difference.
    pub first_mismatch: Option<String>,
}

impl WireCost {
    /// Decode + decide + encode nanoseconds per decision.
    pub fn frame_ns_per_decision(&self) -> f64 {
        (self.decode_ns + self.decide_ns + self.encode_ns) as f64 / self.decisions.max(1) as f64
    }
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Replay every template's frames in process, one session per template:
/// `SessionStore::open`, then decode every `Decide` frame, decide every
/// request and encode every reply — each stage a timed batch per
/// session, so the clock's own cost stays out of per-call figures — and
/// count the levels that differ from the template's. The store is sized and sharded
/// like the served one.
pub fn replay(
    templates: &[Template],
    encoded: &[EncodedTemplate],
    provider: VideoProvider,
    config: StoreConfig,
    mut spans: Option<&mut SpanBuf>,
) -> Result<WireCost, String> {
    let store = SessionStore::new(config, provider);
    let mut cost = WireCost::default();
    let mut requests: Vec<(u64, DecisionRequest)> = Vec::new();
    let mut levels: Vec<usize> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut frames: Vec<u8> = Vec::new();
    for (i, (t, enc)) in templates.iter().zip(encoded).enumerate() {
        let id = i as u64 + 1;
        frames.clear();
        frames.extend_from_slice(&enc.bytes);
        for &start in &enc.starts[..t.requests.len()] {
            patch_id(&mut frames[start..], id);
        }
        let t0 = Instant::now();
        store
            .open(1, id, VIDEO, t.scheme, t.vmaf_code)
            .map_err(|e| format!("in-process open of session {id}: {e}"))?;
        let t1 = Instant::now();
        requests.clear();
        for k in 0..t.requests.len() {
            match decode_frame(&frames[enc.starts[k] + 4..enc.starts[k + 1]]) {
                Ok(Frame::Decide {
                    session_id,
                    request,
                }) => requests.push((session_id, request)),
                other => return Err(format!("session {id} frame {k} decoded to {other:?}")),
            }
        }
        let t2 = Instant::now();
        levels.clear();
        for (session_id, request) in &requests {
            let response = store
                .decide(*session_id, request)
                .map_err(|e| format!("in-process decide on session {id}: {e}"))?;
            levels.push(response.level);
        }
        let t3 = Instant::now();
        out.clear();
        for &level in &levels {
            let response = abr_sim::DecisionResponse {
                level,
                degraded: false,
            };
            encode_frame_into(
                &mut out,
                &Frame::Decision {
                    session_id: id,
                    response,
                },
            )
            .map_err(|e| format!("encode: {e:?}"))?;
        }
        let t4 = Instant::now();
        store
            .close(id)
            .map_err(|e| format!("in-process close of session {id}: {e}"))?;
        if requests.iter().map(|(_, r)| r).ne(t.requests.iter()) {
            return Err(format!("session {id}: requests changed across the codec"));
        }
        let wrong = levels.iter().zip(&t.levels).filter(|(a, b)| a != b).count();
        if wrong > 0 {
            cost.mismatches += wrong as u64;
            if cost.first_mismatch.is_none() {
                let k = levels.iter().zip(&t.levels).position(|(a, b)| a != b);
                cost.first_mismatch = Some(format!(
                    "in-process replay: session {id} ({}) decided differently through \
                     SessionStore::decide than in process, first at request {k:?}",
                    t.scheme
                ));
            }
        }
        if let Some(s) = spans.as_mut() {
            let root = s.record("replay.session", id, None, t0, t4);
            s.record("store.open", id, Some(root), t0, t1);
            s.record("codec.decode", id, Some(root), t1, t2);
            s.record("store.decide", id, Some(root), t2, t3);
            s.record("codec.encode", id, Some(root), t3, t4);
        }
        cost.opens += 1;
        cost.decisions += levels.len() as u64;
        cost.open_ns += ns(t0, t1);
        cost.decode_ns += ns(t1, t2);
        cost.decide_ns += ns(t2, t3);
        cost.encode_ns += ns(t3, t4);
    }
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_id_sits_where_patch_id_writes_it() {
        for frame in [
            Frame::CloseSession { session_id: 0 },
            Frame::Decide {
                session_id: 0,
                request: DecisionRequest {
                    chunk_index: 4,
                    buffer_s: 12.5,
                    estimated_bandwidth_bps: Some(3e6),
                    last_level: Some(2),
                    latest_throughput_bps: Some(2.5e6),
                    wall_time_s: 20.0,
                    startup_complete: true,
                    visible_chunks: 120,
                },
            },
            Frame::OpenSession {
                session_id: 0,
                video: VIDEO.to_string(),
                scheme: "cava".to_string(),
                vmaf_model: 1,
            },
        ] {
            let mut bytes = frame_bytes(&frame);
            patch_id(&mut bytes, 0xDEAD_BEEF_0123);
            match decode_frame(&bytes[4..]).unwrap() {
                Frame::CloseSession { session_id }
                | Frame::OpenSession { session_id, .. }
                | Frame::Decide { session_id, .. } => {
                    assert_eq!(session_id, 0xDEAD_BEEF_0123)
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn reply_reader_splits_partial_frames() {
        let a = frame_bytes(&Frame::Closed {
            session_id: 3,
            decisions: 9,
        });
        let b = frame_bytes(&Frame::ShutdownOk);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let mut r = ReplyReader::default();
        r.push(&all[..3]);
        assert!(r.next_frame().is_none());
        r.push(&all[3..a.len() + 1]);
        let first = r.next_frame().unwrap().unwrap();
        assert!(Expect::Closed {
            id: 3,
            decisions: 9
        }
        .matches(&first));
        assert!(!Expect::Closed {
            id: 3,
            decisions: 8
        }
        .matches(&first));
        assert!(r.next_frame().is_none());
        r.push(&all[a.len() + 1..]);
        assert_eq!(r.next_frame().unwrap().unwrap(), Frame::ShutdownOk);
    }
}
