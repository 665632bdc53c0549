//! Host-speed reference for the simulation workloads.
//!
//! The benchmark host's CPU speed drifts by up to ±15% over seconds, with
//! no steal time (measured on the 2-vCPU bench box: a fixed compute loop
//! took 38 to 55 ms from one 2-second window to the next), so raw
//! compute-bound timings move between runs whatever the code does. A run
//! therefore interleaves a fixed probe — benchmark-owned code that no change
//! to the program can alter — with its sessions, and scales each session's
//! time by how slow the probe currently runs relative to a nominal probe
//! time. Reported figures are "at reference speed"; raw figures are printed
//! alongside.

use std::hint::black_box;
use std::time::Instant;

/// Probes the factor is the median of: long enough to ride over a single
/// preempted probe, short enough to follow drift within a run.
const WINDOW: usize = 5;

/// What a probe runs, matched to the work it scales: the host's slowdown
/// is not uniform across instruction mixes, and a probe shaped like the
/// measured work tracks it best (over eight 10 s `sim-grid` runs the
/// enumeration alone left a ±2.5% spread, the full mix ±6%; on
/// `serve-flood` the full mix left ±4.5%, the enumeration alone ±10%).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The floating-point enumeration only: `sim-grid`, where MPC-family
    /// `choose_level` is almost all the time.
    Enumeration,
    /// Enumeration, short-lived vectors and a table walk: `sim-population`
    /// and `serve-flood`, where allocation, trace generation, stepping,
    /// codec and socket work share the time.
    Mixed,
}

impl Probe {
    /// Probe time on the reference host in its fast state; scaled figures
    /// read as if every probe had taken this long.
    pub fn nominal_ns(self) -> f64 {
        match self {
            Probe::Enumeration => 200_000.0,
            Probe::Mixed => 400_000.0,
        }
    }

    fn run(self) -> f64 {
        match self {
            Probe::Enumeration => enumeration(),
            Probe::Mixed => enumeration() + vectors() + table_walk(),
        }
    }
}

/// A dynamic-programming enumeration over a 6-level, 5-chunk horizon in
/// floating point: the shape of the MPC family's `choose_level`.
fn enumeration() -> f64 {
    let sizes = black_box([0.3f64, 0.7, 1.2, 2.0, 3.1, 4.5]);
    let mut best = f64::MIN;
    for seq in 0..6usize.pow(5) {
        let (mut code, mut buffer, mut score, mut last) = (seq, 10.0f64, 0.0f64, sizes[seq % 6]);
        for _ in 0..5 {
            let size = sizes[code % 6];
            code /= 6;
            let download = size / 2.5;
            score += size.ln() - (size - last).abs() * 0.5 - (download - buffer).max(0.0);
            buffer = (buffer - download).max(0.0) + 5.0;
            last = size;
        }
        best = best.max(score);
    }
    best
}

/// A small xorshift generator.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Short-lived vectors filled from a pseudo-random generator and reduced
/// with harmonic means: the shape of trace generation, player stepping
/// and QoE scoring.
fn vectors() -> f64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut out = 0.0;
    for _ in 0..16 {
        let trace: Vec<f64> = (0..600)
            .map(|_| 1e6 + (xorshift(&mut x) >> 44) as f64)
            .collect();
        let window: Vec<f64> = trace
            .windows(5)
            .map(|w| 5.0 / w.iter().map(|v| 1.0 / v).sum::<f64>())
            .collect();
        out += black_box(window)[0] * 1e-9;
    }
    out
}

/// A dependent walk over a 64 KiB table: the memory traffic of the above.
fn table_walk() -> f64 {
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    let mut table: Vec<u64> = (0..8192).map(|_| xorshift(&mut x)).collect();
    let (mut i, mut acc) = (0usize, 0u64);
    for _ in 0..32_768 {
        i = (table[i] as usize ^ i) & 8191;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc;
    }
    (acc % 7) as f64
}

/// Running estimate of the host's speed.
pub struct Speed {
    probe: Probe,
    recent: Vec<f64>,
    probes: Vec<f64>,
}

impl Speed {
    /// Probe twice (the first warms caches and is discarded).
    pub fn new(probe: Probe) -> Speed {
        let mut s = Speed {
            probe,
            recent: Vec::with_capacity(WINDOW),
            probes: Vec::new(),
        };
        black_box(probe.run());
        s.probe();
        s
    }

    /// Time one probe.
    pub fn probe(&mut self) {
        let t0 = Instant::now();
        black_box(self.probe.run());
        let ns = t0.elapsed().as_nanos() as f64;
        if self.recent.len() == WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(ns);
        self.probes.push(ns);
    }

    /// How much slower than nominal the host runs now (median of the
    /// recent probes over the nominal time; above 1 is slower).
    pub fn slowdown(&self) -> f64 {
        let mut r = self.recent.clone();
        r.sort_by(f64::total_cmp);
        r[r.len() / 2] / self.probe.nominal_ns()
    }

    /// Median probe time of the whole run, in nanoseconds.
    pub fn median_probe_ns(&self) -> f64 {
        let mut p = self.probes.clone();
        p.sort_by(f64::total_cmp);
        p[p.len() / 2]
    }

    /// Probes taken.
    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    /// A one-line summary for the report.
    pub fn describe(&self) -> String {
        format!(
            "host speed: {:?} probe median {:.1} us over {} probes (nominal {:.1} us)",
            self.probe,
            self.median_probe_ns() / 1e3,
            self.probes(),
            self.probe.nominal_ns() / 1e3
        )
    }
}
