//! [`TimeWeighted`]: the time-weighted average of a piecewise-constant
//! signal, which `System` uses to integrate power into energy.

use crate::time::SimTime;

/// Time-weighted average of a piecewise-constant signal.
///
/// Feed it `(time, new_value)` change points; it integrates the previous
/// value over the elapsed span. Used for average power and average load.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
    start_time: SimTime,
}

impl TimeWeighted {
    /// Creates an accumulator starting at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_time: t0,
            last_value: v0,
            integral: 0.0,
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
