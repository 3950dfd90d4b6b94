//! CPU- vs memory-intensive classification (§IV-B).
//!
//! The paper classifies a running process by its L3-cache access rate,
//! measured as L2-miss PMU counts over 1 M-cycle windows: at or above
//! 3000 accesses per million cycles the process is memory-intensive,
//! below it is CPU-intensive (Figure 9). The daemon re-evaluates the
//! class continuously and reacts to changes; a small hysteresis band
//! avoids flapping near the threshold.

use std::fmt;

/// The paper's classification threshold: L3 accesses per 1 M cycles.
pub const L3C_THRESHOLD_PER_MCYCLE: f64 = 3_000.0;

/// Coarse-grain workload class (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntensityClass {
    /// The core pipeline (and L1/L2) is the bottleneck; performance scales
    /// with core frequency.
    CpuIntensive,
    /// L3/DRAM is the bottleneck; core frequency reduction is largely
    /// hidden behind memory latency.
    MemoryIntensive,
}

impl fmt::Display for IntensityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntensityClass::CpuIntensive => write!(f, "CPU-intensive"),
            IntensityClass::MemoryIntensive => write!(f, "memory-intensive"),
        }
    }
}

/// Classifies a measured L3 access rate against the paper's threshold.
pub fn classify(l3c_per_mcycle: f64) -> IntensityClass {
    if l3c_per_mcycle >= L3C_THRESHOLD_PER_MCYCLE {
        IntensityClass::MemoryIntensive
    } else {
        IntensityClass::CpuIntensive
    }
}

/// A classifier with hysteresis: the class only flips when the rate
/// crosses the threshold by more than `band` in the new direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisClassifier {
    threshold: f64,
    band: f64,
    current: Option<IntensityClass>,
}

impl HysteresisClassifier {
    /// Creates a classifier around the paper's threshold with the given
    /// hysteresis half-width.
    ///
    /// # Panics
    ///
    /// Panics if `band` is negative or at least as large as `threshold`.
    pub fn new(threshold: f64, band: f64) -> Self {
        assert!(band >= 0.0 && band < threshold, "invalid hysteresis band");
        HysteresisClassifier {
            threshold,
            band,
            current: None,
        }
    }

    /// A classifier with the paper's threshold and a 10 % band.
    pub fn paper_default() -> Self {
        HysteresisClassifier::new(L3C_THRESHOLD_PER_MCYCLE, 0.1 * L3C_THRESHOLD_PER_MCYCLE)
    }

    /// Feeds one measurement; returns the (possibly unchanged) class.
    pub fn observe(&mut self, l3c_per_mcycle: f64) -> IntensityClass {
        let next = match self.current {
            None => classify(l3c_per_mcycle),
            Some(IntensityClass::CpuIntensive) => {
                if l3c_per_mcycle >= self.threshold + self.band {
                    IntensityClass::MemoryIntensive
                } else {
                    IntensityClass::CpuIntensive
                }
            }
            Some(IntensityClass::MemoryIntensive) => {
                if l3c_per_mcycle < self.threshold - self.band {
                    IntensityClass::CpuIntensive
                } else {
                    IntensityClass::MemoryIntensive
                }
            }
        };
        self.current = Some(next);
        next
    }

    /// The current class, if any measurement has been observed.
    pub fn current(&self) -> Option<IntensityClass> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_semantics() {
        assert_eq!(classify(2_999.9), IntensityClass::CpuIntensive);
        assert_eq!(classify(3_000.0), IntensityClass::MemoryIntensive);
        assert_eq!(classify(0.0), IntensityClass::CpuIntensive);
        assert_eq!(classify(40_000.0), IntensityClass::MemoryIntensive);
    }

    #[test]
    fn hysteresis_suppresses_flapping() {
        let mut c = HysteresisClassifier::paper_default();
        assert_eq!(c.observe(2_000.0), IntensityClass::CpuIntensive);
        // Rate wobbles just above the bare threshold but inside the band:
        // class must not flip.
        assert_eq!(c.observe(3_100.0), IntensityClass::CpuIntensive);
        assert_eq!(c.observe(3_250.0), IntensityClass::CpuIntensive);
        // A clear crossing flips it.
        assert_eq!(c.observe(3_400.0), IntensityClass::MemoryIntensive);
        // Wobble just below the threshold: stays memory-intensive.
        assert_eq!(c.observe(2_800.0), IntensityClass::MemoryIntensive);
        // A clear drop flips back.
        assert_eq!(c.observe(2_600.0), IntensityClass::CpuIntensive);
    }

    #[test]
    fn first_observation_uses_bare_threshold() {
        let mut c = HysteresisClassifier::paper_default();
        assert_eq!(c.current(), None);
        assert_eq!(c.observe(3_100.0), IntensityClass::MemoryIntensive);
        assert_eq!(c.current(), Some(IntensityClass::MemoryIntensive));
    }

    #[test]
    #[should_panic(expected = "invalid hysteresis band")]
    fn rejects_band_wider_than_threshold() {
        let _ = HysteresisClassifier::new(3_000.0, 3_000.0);
    }

    #[test]
    fn display_strings() {
        assert_eq!(IntensityClass::CpuIntensive.to_string(), "CPU-intensive");
        assert_eq!(
            IntensityClass::MemoryIntensive.to_string(),
            "memory-intensive"
        );
    }
}
