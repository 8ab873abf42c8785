//! What the benchmark derives from each client's own observations
//! ([`ClientLog`]): request latencies, the stall spanning a crash, and
//! the percentiles reported from them.

use simnet::time::SimTime;
use sttcp_apps::client::ClientLog;

/// Length of every `ReqResp` response: the 16-byte request line
/// reversed, `:`, eight hex digits and `\n`.
pub const RESPONSE_LEN: u64 = 26;

/// Appends the latency (µs) of each completed request of an open-loop
/// `ReqResp` client to `out` and returns how many completed.
///
/// Request `i` is due at `connect + (i+1)·period`, whether or not earlier
/// replies arrived, and completes at the first progress sample whose
/// stream position covers its response. Timing from the due instant
/// counts the wait a stall imposes on every later request.
pub fn request_latencies(log: &ClientLog, period_us: u64, count: u32, out: &mut Vec<u64>) -> u32 {
    let Some(&connect) = log.connects.first() else {
        return 0;
    };
    let mut done = 0u64;
    for &(t, pos) in &log.progress {
        while done < u64::from(count) && pos >= RESPONSE_LEN * (done + 1) {
            let due = connect.as_micros() + (done + 1) * period_us;
            out.push(t.as_micros().saturating_sub(due));
            done += 1;
        }
    }
    done as u32
}

/// The client-observed failover stall: the longest progress gap (see
/// [`ClientLog::longest_stall_window`]) from the last byte received at
/// or before `crash` (the connect instant if there was none) to the
/// first byte received after `took_over`. Bytes already in flight at the
/// crash can land in between; they split the gap but do not end the
/// stall. `None` if the client never progressed after the takeover.
pub fn stall_across(
    log: &ClientLog,
    crash: SimTime,
    took_over: SimTime,
) -> Option<(SimTime, SimTime)> {
    let to = log.progress.iter().find(|&&(t, _)| t > took_over)?.0;
    let from = match log.progress.iter().rev().find(|&&(t, _)| t <= crash) {
        Some(&(t, _)) => t,
        None => *log.connects.first()?,
    };
    log.longest_stall_window(from, to)
}

/// Nearest-rank percentile of ascending `sorted` (`q` in `(0, 1]`).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles tried, highest first, for the supported tail.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// The highest percentile of the ladder with at least ten samples
/// beyond its rank, or `None` when fewer than 11 samples exist.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// A timing distribution as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms (nearest rank; see `tail` for its support).
    pub p99_ms: f64,
    /// The highest percentile with ten samples beyond it, and its value
    /// in ms; `None` below 11 samples.
    pub tail: Option<(f64, f64)>,
    /// Largest sample, ms.
    pub max_ms: f64,
}

/// Summarizes µs samples. `None` when there are none.
pub fn summarize(samples_us: &mut [u64]) -> Option<Summary> {
    if samples_us.is_empty() {
        return None;
    }
    samples_us.sort_unstable();
    let ms = |us: u64| us as f64 / 1e3;
    Some(Summary {
        n: samples_us.len(),
        p50_ms: ms(nearest_rank(samples_us, 0.5)),
        p99_ms: ms(nearest_rank(samples_us, 0.99)),
        tail: supported_tail(samples_us.len()).map(|q| (q, ms(nearest_rank(samples_us, q)))),
        max_ms: ms(*samples_us.last().expect("non-empty")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn log(connect_ms: u64, samples: &[(u64, u64)]) -> ClientLog {
        ClientLog {
            connects: vec![at(connect_ms)],
            progress: samples.iter().map(|&(t, pos)| (at(t), pos)).collect(),
            ..ClientLog::default()
        }
    }

    #[test]
    fn latency_runs_from_the_due_instant_to_the_covering_sample() {
        // Period 100 ms, connected at 1000: requests due at 1100, 1200, 1300.
        // The first reply lands at 1101; the second and third arrive
        // together at 1450 after a stall, so both count the wait.
        let l = log(1000, &[(1101, 26), (1450, 78)]);
        let mut out = Vec::new();
        assert_eq!(request_latencies(&l, 100_000, 3, &mut out), 3);
        assert_eq!(out, vec![1_000, 250_000, 150_000]);
    }

    #[test]
    fn partial_response_does_not_complete_a_request() {
        let l = log(0, &[(105, 26), (210, 40)]);
        let mut out = Vec::new();
        assert_eq!(request_latencies(&l, 100_000, 5, &mut out), 1);
        assert_eq!(out, vec![5_000]);
    }

    #[test]
    fn latency_ignores_bytes_past_the_request_count_and_unconnected_logs() {
        let l = log(0, &[(150, 26 * 4)]);
        let mut out = Vec::new();
        assert_eq!(request_latencies(&l, 100_000, 2, &mut out), 2);
        assert_eq!(out, vec![50_000, 0]);
        let mut none = Vec::new();
        assert_eq!(
            request_latencies(&ClientLog::default(), 100_000, 2, &mut none),
            0
        );
        assert!(none.is_empty());
    }

    #[test]
    fn stall_runs_from_last_byte_before_the_crash_to_first_after_takeover() {
        let l = log(0, &[(100, 1), (200, 2), (1_300, 3), (1_400, 4)]);
        assert_eq!(
            stall_across(&l, at(250), at(900)),
            Some((at(200), at(1_300)))
        );
        // A crash exactly on a sample: that sample is "before".
        assert_eq!(
            stall_across(&l, at(200), at(900)),
            Some((at(200), at(1_300)))
        );
    }

    #[test]
    fn bytes_in_flight_at_the_crash_do_not_end_the_stall() {
        // Crash at 250, takeover at 1000; a segment already on the wire
        // lands at 251, then nothing until 1300.
        let l = log(0, &[(200, 1), (251, 2), (1_300, 3), (1_350, 4)]);
        assert_eq!(
            stall_across(&l, at(250), at(1_000)),
            Some((at(251), at(1_300)))
        );
        // Gaps after the first byte past the takeover are not the stall.
        let l = log(0, &[(200, 1), (1_100, 2), (3_000, 3)]);
        assert_eq!(
            stall_across(&l, at(250), at(1_000)),
            Some((at(200), at(1_100)))
        );
    }

    #[test]
    fn stall_before_any_byte_starts_at_connect_and_needs_a_byte_after_takeover() {
        let l = log(50, &[(900, 1)]);
        assert_eq!(stall_across(&l, at(60), at(800)), Some((at(50), at(900))));
        assert_eq!(stall_across(&l, at(60), at(900)), None);
        assert_eq!(stall_across(&l, at(900), at(950)), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn summary_uses_nearest_rank() {
        let mut v: Vec<u64> = (1..=1_000).rev().map(|i| i * 1_000).collect();
        let s = summarize(&mut v).unwrap();
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50_ms, 500.0);
        assert_eq!(s.p99_ms, 990.0);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(s.max_ms, 1_000.0);
        let mut one = vec![7_000];
        let s = summarize(&mut one).unwrap();
        assert_eq!((s.p50_ms, s.p99_ms, s.tail), (7.0, 7.0, None));
        assert!(summarize(&mut []).is_none());
    }
}
