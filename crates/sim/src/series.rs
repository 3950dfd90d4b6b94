//! Time-series recording for experiment traces.
//!
//! [`TimeSeries`] stores `(time, value)` samples and supports resampling to
//! a fixed cadence, which is how the 1-second power/load traces of
//! Figures 14 and 15 are produced.

use crate::time::{SimDuration, SimTime};

/// An append-only series of `(time, value)` samples with non-decreasing
/// times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last recorded sample.
    #[inline]
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(time >= last, "series time went backwards: {time} < {last}");
        }
        self.times.push(time);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The value in effect at `t`, treating the series as piecewise
    /// constant (last sample at or before `t`). `None` before the first
    /// sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.times.partition_point(|&x| x <= t) {
            0 => None,
            n => Some(self.values[n - 1]),
        }
    }

    /// Resamples the series to a fixed `step` cadence over `[start, end]`,
    /// holding the last value (zero-order hold). Times before the first
    /// sample yield `fill`.
    pub fn resample(&self, start: SimTime, end: SimTime, step: SimDuration, fill: f64) -> Vec<f64> {
        assert!(!step.is_zero(), "resample step must be positive");
        let mut out = Vec::new();
        let mut t = start;
        while t <= end {
            out.push(self.value_at(t).unwrap_or(fill));
            t += step;
        }
        out
    }

    /// Simple mean of the recorded values (not time-weighted).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// The last sample, or `None` when empty.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        match (self.times.last(), self.values.last()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }

    /// Raw access to the value column.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Raw access to the time column.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }
}

impl Extend<(SimTime, f64)> for TimeSeries {
    fn extend<I: IntoIterator<Item = (SimTime, f64)>>(&mut self, iter: I) {
        for (t, v) in iter {
            self.push(t, v);
        }
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_iterate() {
        let s: TimeSeries = [(secs(0), 1.0), (secs(1), 2.0)].into_iter().collect();
        assert_eq!(s.len(), 2);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(secs(0), 1.0), (secs(1), 2.0)]);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_backwards_time() {
        let mut s = TimeSeries::new();
        s.push(secs(2), 1.0);
        s.push(secs(1), 2.0);
    }

    #[test]
    fn value_at_is_zero_order_hold() {
        let s: TimeSeries = [(secs(1), 10.0), (secs(3), 30.0)].into_iter().collect();
        assert_eq!(s.value_at(secs(0)), None);
        assert_eq!(s.value_at(secs(1)), Some(10.0));
        assert_eq!(s.value_at(secs(2)), Some(10.0));
        assert_eq!(s.value_at(secs(3)), Some(30.0));
        assert_eq!(s.value_at(secs(9)), Some(30.0));
    }

    #[test]
    fn resample_fills_before_first_sample() {
        let s: TimeSeries = [(secs(2), 5.0)].into_iter().collect();
        let r = s.resample(secs(0), secs(4), SimDuration::from_secs(1), 0.0);
        assert_eq!(r, vec![0.0, 0.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn mean_max_last() {
        let s: TimeSeries = [(secs(0), 1.0), (secs(1), 3.0)].into_iter().collect();
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.last(), Some((secs(1), 3.0)));
        assert_eq!(TimeSeries::new().max(), None);
    }
}
