#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
//! # abr-serve — the serving layer
//!
//! Everything below this crate is batch/offline: the simulator replays one
//! session at a time, the bench harness fans sessions out over threads, but
//! nothing *serves*. This crate hosts CAVA and the baselines behind a
//! long-lived, stateful, concurrent decision service — the shape real
//! deployments use when ABR logic runs server-side — without giving up the
//! repo's determinism contract: the very same decisions an algorithm makes
//! in-process must come back over the wire, byte for byte.
//!
//! * [`protocol`] — the versioned, length-prefixed binary wire protocol:
//!   one declared frame table that the enum, encoder and decoder are
//!   generated from (the table macros, field codecs and the one
//!   length-prefix rule live in the private `codec` module, shared with
//!   [`replay`]), typed [`protocol::WireError`]s, no ambient serialization.
//! * [`scheme`] — the scheme catalog ([`scheme::SchemeKind`]) and the
//!   dataset video loader, shared with the CLI and the experiments.
//! * [`store`] — the multi-tenant session store: per-session boxed
//!   [`abr_sim::AbrAlgorithm`] state behind one decision step that replay
//!   shares, shared manifest handles, capacity-bounded admission with idle
//!   eviction and a stateless RBA graceful-degradation fallback, and every
//!   session counter.
//! * [`server`] — the TCP front end: the frame core, served by the
//!   readiness-driven non-blocking [`reactor`] (a few threads multiplexing whole
//!   fleets of nonblocking connections), with clean frame-level shutdown.
//! * [`reactor`] — the readiness-sweep event loop behind
//!   [`server::BoundServer::serve`]: per-connection read/write buffers,
//!   incremental frame decode, batched responses, an idle wait in
//!   `poll(2)`, and deadlines counted in ticks of a sleeping clock thread.
//! * [`loadgen`] — the deterministic fleet load generator: N simulated
//!   players from `abr-sim` driven over real sockets with a seeded arrival
//!   process, checking **decision parity** against same-seed in-process runs.
//! * [`replay`] — deterministic record/replay: a versioned, length-prefixed
//!   event log of every frame, store transition, and fault injection, plus a
//!   [`replay::ReplayPlayer`] that re-executes recorded runs tick-for-tick
//!   through the store's own decision step (`step_forward` /
//!   `seek_to_tick` / `diff`). Spec in `docs/REPLAY.md`.
//!
//! The crate reads no wall clock (it is in `abr-lint`'s simulation scope);
//! latency measurement is injected by the caller as a monotonic
//! seconds-closure, which `bench` and `cli` back with the journal
//! [`Stopwatch`](../abr_bench/journal/struct.Stopwatch.html) authority.

mod codec;
pub mod loadgen;
pub mod protocol;
pub mod reactor;
pub mod replay;
pub mod scheme;
pub mod server;
pub mod store;

pub use loadgen::{
    ClientStats, FaultConfig, LoadgenConfig, LoadgenError, LoadgenReport, SessionOutcome,
    SessionPlan,
};
pub use protocol::{Frame, StatsSnapshot, WireError, PROTOCOL_VERSION};
pub use replay::{
    decode_log, diff_logs, read_log, Event, EventLog, MemoryLog, Recorder, ReplayError,
    ReplayPlayer, REPLAY_VERSION,
};
pub use server::{Backend, BoundServer, Server, ServerConfig};
pub use store::{ResumeOutcome, SessionStore, StoreConfig, StoreError, VideoHandle, VideoProvider};

use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, recovering the data from a poisoned lock instead of
/// propagating the panic (library code may not unwrap; a poisoned session
/// slot is still structurally valid because every mutation below completes
/// or never starts).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
