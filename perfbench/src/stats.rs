//! Small statistics the harness reports: percentiles under the
//! ten-samples-beyond rule, open-loop latency accounting, generator lag,
//! and the sign-free ability correlation.

/// Percentiles the report may use, lowest first.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest of [`PERCENTILES`] that has at least ten samples beyond it
/// in a sample of `n` (`None` when even the median has fewer).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Timestamps of one open-loop command, nanoseconds on the run's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub scheduled_ns: u64,
    /// When the sender actually sent it (late when the sender stalled).
    pub sent_ns: u64,
    /// When the reply was observed.
    pub done_ns: u64,
}

impl Timing {
    /// Latency as the user sees it: from the *scheduled* send, so a stall
    /// that delays later sends is charged to every command it delayed
    /// (no coordinated omission).
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.scheduled_ns)
    }

    /// How late the generator sent the command.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.scheduled_ns)
    }
}

/// How far the load generator fell behind its schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LagReport {
    /// 99th-percentile send lag, milliseconds.
    pub p99_ms: f64,
    /// Commands still unsent when the schedule ended.
    pub backlog_end: usize,
}

impl LagReport {
    /// Lag over the open-loop phase whose schedule ends at `end_ns`.
    pub fn of(timings: &[Timing], end_ns: u64) -> LagReport {
        let mut lags: Vec<f64> = timings.iter().map(|t| t.lag_ns() as f64 / 1e6).collect();
        lags.sort_by(f64::total_cmp);
        LagReport {
            p99_ms: if lags.is_empty() {
                0.0
            } else {
                percentile_sorted(&lags, 99.0)
            },
            backlog_end: timings.iter().filter(|t| t.sent_ns > end_ns).count(),
        }
    }

    /// A run whose generator fell behind — still sending when its
    /// schedule ended — offered less than the workload's load: its
    /// figures are invalid rather than slow. A late send alone does not
    /// invalidate the run, since latency is timed from the schedule.
    pub fn valid(&self, max_backlog: usize) -> bool {
        self.backlog_end <= max_backlog
    }
}

/// Spearman correlation between a ranking's scores and the true
/// abilities, sign removed: a spectral ranking is defined up to
/// orientation, and the paper scores it by how well it *orders* users.
pub fn ability_spearman(scores: &[f64], abilities: &[f64]) -> f64 {
    hnd_eval::spearman(scores, abilities).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scores from rank positions (0 = best, as `rank_of` reports them):
    /// the best-ranked user must get the highest score.
    fn scores_from_positions(positions: &[usize]) -> Vec<f64> {
        positions.iter().map(|&p| -(p as f64)).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500.0);
        assert_eq!(percentile_sorted(&v, 99.0), 990.0);
        // Exactly ten samples lie beyond the p99.
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    /// A single FIFO server with a fixed service time and one stall, fed
    /// by an open-loop schedule: every command that arrives during the
    /// stall must be charged the wait, even though the server's own view
    /// (service start to done) shows no delay at all.
    #[test]
    fn open_loop_latency_counts_the_stall() {
        let gap = 1_000_000; // one command per ms
        let service = 100_000; // 0.1 ms each
        let stall_at = 10 * gap;
        let stall = 20 * gap;
        let mut free_at = 0u64;
        let timings: Vec<Timing> = (0..100u64)
            .map(|i| {
                let scheduled = i * gap;
                let start = scheduled.max(free_at);
                let start = if start >= stall_at && start < stall_at + stall {
                    stall_at + stall
                } else {
                    start
                };
                free_at = start + service;
                Timing {
                    scheduled_ns: scheduled,
                    sent_ns: scheduled,
                    done_ns: free_at,
                }
            })
            .collect();
        let delayed = timings
            .iter()
            .filter(|t| t.latency_ns() > 2 * service)
            .count();
        // Commands due at 10..30 ms all waited for the stall to end…
        for t in &timings[10..30] {
            assert!(t.latency_ns() >= stall_at + stall - t.scheduled_ns);
        }
        // …and three more queued behind the backlog it left.
        assert_eq!(delayed, 23);
        let worst = timings.iter().map(Timing::latency_ns).max().unwrap();
        assert!(
            worst >= stall,
            "the first command in the stall waits it out"
        );
    }

    #[test]
    fn latency_is_measured_from_the_schedule_not_the_send() {
        let t = Timing {
            scheduled_ns: 1_000,
            sent_ns: 5_000,
            done_ns: 6_000,
        };
        assert_eq!(t.latency_ns(), 5_000);
        assert_eq!(t.lag_ns(), 4_000);
    }

    #[test]
    fn generator_lag_is_accounted() {
        let on_time: Vec<Timing> = (0..200u64)
            .map(|i| Timing {
                scheduled_ns: i * 1_000_000,
                sent_ns: i * 1_000_000 + 50_000,
                done_ns: i * 1_000_000 + 80_000,
            })
            .collect();
        let end = 200 * 1_000_000;
        let report = LagReport::of(&on_time, end);
        assert!((report.p99_ms - 0.05).abs() < 1e-9);
        assert_eq!(report.backlog_end, 0);
        assert!(report.valid(0));

        // The sender froze for 50 ms near the end: the last commands went
        // out after the schedule ended.
        let mut stalled = on_time.clone();
        for t in stalled.iter_mut().skip(180) {
            t.sent_ns = end + 30_000_000;
        }
        let report = LagReport::of(&stalled, end);
        assert_eq!(report.backlog_end, 20);
        assert!(report.p99_ms > 30.0);
        assert!(!report.valid(0));
        assert!(!report.valid(10));
        assert!(report.valid(20));
    }

    #[test]
    fn ability_spearman_ignores_orientation_and_aligns_ranks() {
        let abilities = [0.1, 0.9, 0.5, 0.3, 0.7];
        assert!((ability_spearman(&abilities, &abilities) - 1.0).abs() < 1e-12);
        let flipped: Vec<f64> = abilities.iter().map(|a| -a).collect();
        assert!((ability_spearman(&flipped, &abilities) - 1.0).abs() < 1e-12);
        // Positions 0 = best: the most able user (index 1) is at 0.
        let positions = [4, 0, 2, 3, 1];
        let scores = scores_from_positions(&positions);
        assert!((hnd_eval::spearman(&scores, &abilities) - 1.0).abs() < 1e-12);
        // A partly wrong ranking scores below 1 either way round.
        let noisy = [0.2, 0.9, 0.3, 0.5, 0.7];
        let rho = ability_spearman(&noisy, &abilities);
        assert!(rho < 1.0 && rho > 0.5);
        let noisy_flipped: Vec<f64> = noisy.iter().map(|a| -a).collect();
        assert!((ability_spearman(&noisy_flipped, &abilities) - rho).abs() < 1e-12);
    }
}
