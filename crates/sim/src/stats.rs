//! Streaming statistics used by the experiment harnesses.
//!
//! * [`OnlineStats`] — Welford mean/variance/min/max without storing samples.
//! * [`TimeWeighted`] — time-weighted average of a piecewise-constant signal
//!   (the power and load traces of Figures 14/15).
//! * [`Histogram`] — fixed-bin histogram (the droop-magnitude bins of
//!   Figure 6 and the pfail voltage sweeps of Figure 5).

use crate::time::{SimDuration, SimTime};

/// Welford's online mean/variance plus min/max.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Feed it `(time, new_value)` change points; it integrates the previous
/// value over the elapsed span. Used for average power and average load.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
    started: bool,
    start_time: SimTime,
}

impl TimeWeighted {
    /// Creates an accumulator starting at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_time: t0,
            last_value: v0,
            integral: 0.0,
            started: true,
            start_time: t0,
        }
    }

    /// Records that the signal changed to `value` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous change point.
    pub fn set(&mut self, time: SimTime, value: f64) {
        assert!(
            time >= self.last_time,
            "time went backwards: {time} < {}",
            self.last_time
        );
        let dt = (time - self.last_time).as_secs_f64();
        self.integral += self.last_value * dt;
        self.last_time = time;
        self.last_value = value;
    }

    /// Integral of the signal from the start through `time` (value·seconds).
    pub fn integral_through(&self, time: SimTime) -> f64 {
        let dt = time.saturating_since(self.last_time).as_secs_f64();
        self.integral + self.last_value * dt
    }

    /// Time-weighted mean from the start through `time`.
    pub fn mean_through(&self, time: SimTime) -> f64 {
        let span = time.saturating_since(self.start_time).as_secs_f64();
        if span <= 0.0 {
            self.last_value
        } else {
            self.integral_through(time) / span
        }
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

/// A fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `nbins` equal bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `nbins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "invalid histogram range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            // Floating point can land exactly on bins.len() for x just below hi.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `[lo, hi)` edges of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Number of bins (excluding under/overflow).
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples, including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// A simple fixed-window moving average over scalar samples.
///
/// Used to render the 1-minute moving average of Figure 15.
#[derive(Debug, Clone, PartialEq)]
pub struct MovingAverage {
    window: usize,
    buf: Vec<f64>,
    next: usize,
    filled: bool,
}

impl MovingAverage {
    /// Creates a moving average over the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MovingAverage {
            window,
            buf: Vec::with_capacity(window),
            next: 0,
            filled: false,
        }
    }

    /// Pushes a sample and returns the current average.
    pub fn push(&mut self, x: f64) -> f64 {
        if self.buf.len() < self.window {
            self.buf.push(x);
            if self.buf.len() == self.window {
                self.filled = true;
            }
        } else {
            self.buf[self.next] = x;
            self.next = (self.next + 1) % self.window;
        }
        self.value()
    }

    /// The current average over the samples seen (up to the window size).
    pub fn value(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.buf.iter().sum::<f64>() / self.buf.len() as f64
        }
    }

    /// Whether a full window of samples has been seen.
    pub fn is_warm(&self) -> bool {
        self.filled
    }
}

/// Helper: duration-weighted mean of `(duration, value)` pairs.
pub fn weighted_mean(pairs: &[(SimDuration, f64)]) -> f64 {
    let total: f64 = pairs.iter().map(|(d, _)| d.as_secs_f64()).sum();
    if total <= 0.0 {
        return 0.0;
    }
    pairs.iter().map(|(d, v)| d.as_secs_f64() * v).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let s: OnlineStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let mut a: OnlineStats = (0..100).map(|i| i as f64).collect();
        let b: OnlineStats = (100..250).map(|i| (i as f64).sqrt()).collect();
        let all: OnlineStats = (0..100)
            .map(|i| i as f64)
            .chain((100..250).map(|i| (i as f64).sqrt()))
            .collect();
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 10.0);
        tw.set(SimTime::from_secs(10), 20.0); // 10s at 10.0
        tw.set(SimTime::from_secs(20), 0.0); // 10s at 20.0
                                             // Through t=30: 10s at 10 + 10s at 20 + 10s at 0 = 300 over 30s.
        assert!((tw.mean_through(SimTime::from_secs(30)) - 10.0).abs() < 1e-12);
        assert!((tw.integral_through(SimTime::from_secs(30)) - 300.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_backwards_time() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5), 1.0);
        tw.set(SimTime::from_secs(4), 2.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99, 10.0, -0.1] {
            h.push(x);
        }
        assert_eq!(h.bin_count(0), 2); // 0.0, 1.9
        assert_eq!(h.bin_count(1), 1); // 2.0
        assert_eq!(h.bin_count(4), 1); // 9.99
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 6);
        assert_eq!(h.bin_edges(1), (2.0, 4.0));
    }

    #[test]
    fn moving_average_window() {
        let mut ma = MovingAverage::new(3);
        assert_eq!(ma.push(3.0), 3.0);
        assert_eq!(ma.push(6.0), 4.5);
        assert!(!ma.is_warm());
        assert_eq!(ma.push(9.0), 6.0);
        assert!(ma.is_warm());
        // Window slides: oldest (3.0) replaced by 12.0 -> (6+9+12)/3 = 9.
        assert_eq!(ma.push(12.0), 9.0);
    }

    #[test]
    fn weighted_mean_of_pairs() {
        let pairs = [
            (SimDuration::from_secs(1), 10.0),
            (SimDuration::from_secs(3), 2.0),
        ];
        assert!((weighted_mean(&pairs) - 4.0).abs() < 1e-12);
        assert_eq!(weighted_mean(&[]), 0.0);
    }
}
