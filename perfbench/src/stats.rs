//! Order statistics and open-loop timing arithmetic.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it — so p99
/// needs at least 1000 samples, p90 at least 100 and the median 20.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = sorted.len();
    // Nearest rank: the smallest sample with at least p% of samples at or
    // below it. The epsilon keeps 0.99 * 1000 from rounding up to 991.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort a sample vector in place (total order; the samples are finite).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The nominal send time of request `k` on an open-loop schedule at
/// `rate_per_s`, in nanoseconds from the schedule start.
pub fn due_ns(k: u64, rate_per_s: f64) -> u64 {
    (k as f64 * 1e9 / rate_per_s).round() as u64
}

/// One open-loop request's timing, all in nanoseconds from the schedule
/// start: `latency` runs from when the request was *due* (not when the
/// generator got round to sending it) to its reply, so a generator or
/// server stall is charged to every request it delayed; `lateness` is how
/// far behind schedule the generator sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopTiming {
    /// Reply time minus due time.
    pub latency_ns: u64,
    /// Send time minus due time.
    pub lateness_ns: u64,
}

/// Time one open-loop request from its due, send and reply instants.
pub fn open_loop_timing(due_ns: u64, sent_ns: u64, replied_ns: u64) -> OpenLoopTiming {
    OpenLoopTiming {
        latency_ns: replied_ns.saturating_sub(due_ns),
        lateness_ns: sent_ns.saturating_sub(due_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // 1000 samples: rank 990, ten samples (991..=1000) beyond it.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(5000), 99.0), Some(4950.0));
    }

    #[test]
    fn lower_percentiles_need_proportionally_fewer_samples() {
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn latency_runs_from_due_time_not_send_time() {
        // 500 requests/s: one due every 2 ms. The generator stalls for
        // 10 ms before request 3, then sends 3..=7 back to back; the
        // server answers each 100 us after it arrives.
        let rate = 500.0;
        let stall_end = due_ns(3, rate) + 10_000_000;
        let timings: Vec<OpenLoopTiming> = (0..8)
            .map(|k| {
                let due = due_ns(k, rate);
                let sent = if k < 3 { due } else { due.max(stall_end) };
                open_loop_timing(due, sent, sent + 100_000)
            })
            .collect();
        assert_eq!(due_ns(1, rate), 2_000_000);
        for t in &timings[..3] {
            assert_eq!(
                *t,
                OpenLoopTiming {
                    latency_ns: 100_000,
                    lateness_ns: 0
                }
            );
        }
        // Request 3 waited out the whole stall; request 7 (due 8 ms after
        // request 3) still waited 2 ms of it.
        assert_eq!(timings[3].lateness_ns, 10_000_000);
        assert_eq!(timings[3].latency_ns, 10_100_000);
        assert_eq!(timings[7].lateness_ns, 2_000_000);
        assert_eq!(timings[7].latency_ns, 2_100_000);
        // Timing from the send instant instead would have hidden the stall.
        assert!(timings
            .iter()
            .all(|t| t.latency_ns - t.lateness_ns == 100_000));
    }

    #[test]
    fn a_reply_before_its_due_time_reads_as_zero() {
        assert_eq!(
            open_loop_timing(5_000, 5_000, 4_000),
            OpenLoopTiming {
                latency_ns: 0,
                lateness_ns: 0
            }
        );
    }
}
