//! Order statistics, the tail rule and the growing-backlog detector.

/// Fewest samples that must lie beyond a reported percentile.
const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` (0..=100) in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond the
/// nearest-rank percentile `p`, so that the percentile may be reported.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_TAIL_SAMPLES
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean, 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether an open-loop phase built a growing backlog.
///
/// `due_ns` are the send times of the phase's requests and `done_ns` the
/// times their responses arrived (`u64::MAX` if one never did), both
/// relative to the phase start; `span_ns` is the phase length. The
/// backlog at time `t` is the number of requests due by `t` minus those
/// answered by `t`, sampled every millisecond. The first half of the
/// phase lets the queues settle; the backlog grows when its median over
/// the last quarter exceeds its median over the third quarter by more
/// than 5% of the requests due in that half, and by more than 32. Medians
/// keep one stall from reading as a trend.
pub fn backlog_grows(due_ns: &[u64], done_ns: &[u64], span_ns: u64) -> bool {
    const STEP_NS: u64 = 1_000_000;
    let mut due = due_ns.to_vec();
    let mut done = done_ns.to_vec();
    due.sort_unstable();
    done.sort_unstable();
    let count_le = |v: &[u64], t: u64| v.partition_point(|&x| x <= t) as f64;
    let backlog = |from: u64, to: u64| -> Vec<f64> {
        (from / STEP_NS..=to / STEP_NS)
            .map(|k| k * STEP_NS)
            .filter(|&t| t >= from && t <= to)
            .map(|t| count_le(&due, t) - count_le(&done, t))
            .collect()
    };
    let (half, three_q) = (span_ns / 2, span_ns / 4 * 3);
    let (third, fourth) = (backlog(half, three_q), backlog(three_q, span_ns));
    if third.is_empty() || fourth.is_empty() {
        return false;
    }
    let due_in_half = count_le(&due, span_ns) - count_le(&due, half);
    median(&fourth) - median(&third) > (0.05 * due_in_half).max(32.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&w, 50.0), 2.0, "rank ceil(0.5*4)=2");
        assert_eq!(percentile(&w, 51.0), 3.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(19, 50.0));
        assert!(!tail_supported(0, 50.0));
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    /// Requests every 100 µs for one second, each answered `lat(i)` later.
    fn phase(lat: impl Fn(u64) -> u64) -> (Vec<u64>, Vec<u64>) {
        let due: Vec<u64> = (0..10_000).map(|i| i * 100_000).collect();
        let done = due
            .iter()
            .enumerate()
            .map(|(i, d)| d + lat(i as u64))
            .collect();
        (due, done)
    }

    #[test]
    fn steady_queue_is_not_a_growing_backlog() {
        let (due, done) = phase(|i| 2_000_000 + (i % 7) * 300_000);
        assert!(!backlog_grows(&due, &done, 1_000_000_000));
    }

    #[test]
    fn one_stall_is_not_a_growing_backlog() {
        // Every response due in a 40 ms window waits for its end.
        let (due, done) = phase(|i| {
            let t = i * 100_000;
            if (700_000_000..740_000_000).contains(&t) {
                740_000_000 - t + 1_000_000
            } else {
                1_000_000
            }
        });
        assert!(!backlog_grows(&due, &done, 1_000_000_000));
    }

    #[test]
    fn server_falling_behind_is_a_growing_backlog() {
        // Service takes 120 µs per request against 100 µs arrivals, so
        // request i waits for the i requests ahead of it.
        let (due, done) = phase(|i| i * 20_000);
        assert!(backlog_grows(&due, &done, 1_000_000_000));
        // Responses that never came are backlog too.
        let (due, mut done) = phase(|_| 1_000_000);
        for d in done.iter_mut().skip(6_000) {
            *d = u64::MAX;
        }
        assert!(backlog_grows(&due, &done, 1_000_000_000));
    }
}
