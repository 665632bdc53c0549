//! R10 fixture decoder: one record table of five rows, in sync with
//! `r10_spec.md`. Tests introduce drift by editing copies of these
//! fixtures.

wire_enum! {
    /// The record table.
    pub enum Event {
        /// A row in a comment is not a row: Bogus = 0x99.
        RunMeta = 0x01 { label: String, seed: u64 },
        Decision = 0x02 { tick: u64, level: u64 },
        RunEnd = 0x03 { events: u64 },
        SessionAbandon = 0x04 { session_id: u64, watched_s: f64 },
        Seek = 0x05 { session_id: u64, to_chunk: u64 },
    }
}
