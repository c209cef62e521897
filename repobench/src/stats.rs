//! The benchmark's own statistics: percentiles with a support rule,
//! medians, and failure accounting.

/// Percentiles a report may quote, highest first.
pub const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that, the tail is a handful of samples, not a
/// distribution.
pub const MIN_BEYOND: usize = 10;

/// 0-based nearest-rank index of the `p`-th percentile among `n` sorted
/// samples (`n > 0`). The tolerance keeps `99.9 / 100 * 10_000` from
/// rounding up past an exact rank.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-6).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond the `p`-th percentile of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n) - 1
    }
}

/// The `p`-th percentile (nearest rank) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(p, samples.len()) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len())])
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// How one attempted operation (a sweep cell or a served request) ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Completed with a correct result after this many seconds.
    Ok(f64),
    /// Refused by the server (`BUSY`).
    Busy,
    /// Hit a deadline or watchdog (`TIMEOUT`).
    Timeout,
    /// Failed outright (`ERR`, a transport error, or a lost cell).
    Error,
    /// Completed, but the result differs from the reference.
    Mismatch,
}

/// Operations attempted, failed, and missing their latency limit. A
/// failed operation has no latency and counts as missing any limit.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end in [`Outcome::Ok`].
    pub failed: u64,
    /// Operations slower than their limit, failed ones included.
    pub limit_misses: u64,
    /// Latencies (seconds) of the successful operations.
    pub latencies: Vec<f64>,
}

impl Tally {
    /// Counts one operation against a latency `limit` in seconds.
    pub fn record(&mut self, outcome: Outcome, limit: f64) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok(latency) => {
                if latency > limit {
                    self.limit_misses += 1;
                }
                self.latencies.push(latency);
            }
            Outcome::Busy | Outcome::Timeout | Outcome::Error | Outcome::Mismatch => {
                self.failed += 1;
                self.limit_misses += 1;
            }
        }
    }

    /// Adds another tally's counts and samples to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.limit_misses += other.limit_misses;
        self.latencies.extend_from_slice(&other.latencies);
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// Operations that missed their latency limit over attempted ones.
    pub fn limit_miss_frac(&self) -> f64 {
        ratio(self.limit_misses as f64, self.attempted as f64)
    }

    /// The `p`-th latency percentile in milliseconds, if supported.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        percentile(&self.latencies, p).map(|s| s * 1e3)
    }

    /// One report line: sample count, median, and the highest supported
    /// percentile.
    pub fn summary(&self, what: &str) -> String {
        let n = self.latencies.len();
        let p50 = self.percentile_ms(50.0);
        let top = highest_supported(n).and_then(|p| Some((p, self.percentile_ms(p)?)));
        let mut line = format!(
            "{what}: n={n} attempted={} failed={} limit_miss_frac={:.4}",
            self.attempted,
            self.failed,
            self.limit_miss_frac()
        );
        if let Some(p50) = p50 {
            line.push_str(&format!(" p50={p50:.3}ms"));
        }
        if let Some((p, v)) = top {
            line.push_str(&format!(" p{p}={v:.3}ms"));
        }
        line
    }
}

/// Service times of items that `width` servers take up in index order,
/// each as soon as a server is free, from their completion times since
/// the start (`NaN` = never completed). Item `i` starts at 0 if
/// `i < width`, and otherwise at the `(i - width)`-th earliest
/// completion, when a server freed up for it.
pub fn service_times(done: &[f64], width: usize) -> Vec<f64> {
    let mut sorted: Vec<f64> = done.iter().copied().filter(|t| !t.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    done.iter()
        .enumerate()
        .map(|(i, &t)| match i.checked_sub(width) {
            None => t,
            Some(k) => t - sorted.get(k).copied().unwrap_or(f64::NAN),
        })
        .collect()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(99.0, 1000), 10);
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(percentile(&samples[..999], 99.0), None, "9 beyond");
        assert_eq!(percentile(&samples[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&samples[..99], 90.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_supported_percentile_follows_the_count() {
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&samples, 90.0);
        samples.reverse();
        assert_eq!(a, percentile(&samples, 90.0));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn summary_states_count_and_highest_percentile() {
        let mut t = Tally::default();
        for i in 1..=100 {
            t.record(Outcome::Ok(f64::from(i) / 1e3), 1.0);
        }
        let s = t.summary("cold");
        assert!(s.contains("n=100"), "{s}");
        assert!(s.contains("p90=90.000ms"), "{s}");
        assert!(!s.contains("p99="), "{s}");
    }

    #[test]
    fn service_times_start_each_item_when_a_server_frees_up() {
        // One server: each item starts at the previous completion.
        assert_eq!(service_times(&[1.0, 3.0, 6.0], 1), vec![1.0, 2.0, 3.0]);
        // Two servers: items 0 and 1 start at 0; item 2 takes the
        // server item 1 freed at 2.0, item 3 the one item 0 freed at 5.0.
        assert_eq!(
            service_times(&[5.0, 2.0, 4.0, 9.0], 2),
            vec![5.0, 2.0, 2.0, 5.0]
        );
        // A lost item has no service time.
        assert!(service_times(&[1.0, f64::NAN], 1)[1].is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn busy_and_timeout_count_as_failures_and_limit_misses() {
        let mut t = Tally::default();
        t.record(Outcome::Ok(0.010), 0.050);
        t.record(Outcome::Ok(0.080), 0.050);
        t.record(Outcome::Busy, 0.050);
        t.record(Outcome::Timeout, 0.050);
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed, 2);
        assert_eq!(t.limit_misses, 3, "slow success plus both refusals");
        assert_eq!(t.fail_frac(), 0.5);
        assert_eq!(t.limit_miss_frac(), 0.75);
        assert_eq!(t.latencies.len(), 2, "failures carry no latency sample");
    }

    #[test]
    fn errors_and_mismatches_fail_and_absorb_adds_up() {
        let mut a = Tally::default();
        a.record(Outcome::Error, f64::INFINITY);
        let mut b = Tally::default();
        b.record(Outcome::Mismatch, f64::INFINITY);
        b.record(Outcome::Ok(1.0), f64::INFINITY);
        a.absorb(&b);
        assert_eq!((a.attempted, a.failed, a.limit_misses), (3, 2, 2));
        assert_eq!(Tally::default().fail_frac(), 0.0, "nothing attempted");
    }
}
