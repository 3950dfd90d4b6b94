//! Voltage newtype and the regulated PCP rail.

use crate::error::ChipError;
use std::fmt;
use std::ops::{Add, Sub};

/// A supply voltage in millivolts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Millivolts(u32);

impl Millivolts {
    /// Creates a voltage from raw millivolts.
    pub const fn new(mv: u32) -> Self {
        Millivolts(mv)
    }

    /// Raw millivolts.
    pub const fn as_mv(self) -> u32 {
        self.0
    }

    /// Subtracts, saturating at zero.
    pub fn saturating_sub(self, mv: Millivolts) -> Millivolts {
        Millivolts(self.0.saturating_sub(mv.0))
    }

    /// Adds an offset that may be negative, saturating at zero.
    pub fn offset(self, delta_mv: i32) -> Millivolts {
        Millivolts(self.0.saturating_add_signed(delta_mv))
    }

    /// The larger of two voltages.
    pub fn max(self, other: Millivolts) -> Millivolts {
        Millivolts(self.0.max(other.0))
    }

    /// The smaller of two voltages.
    pub fn min(self, other: Millivolts) -> Millivolts {
        Millivolts(self.0.min(other.0))
    }
}

impl Add<u32> for Millivolts {
    type Output = Millivolts;
    fn add(self, rhs: u32) -> Millivolts {
        Millivolts(self.0 + rhs)
    }
}

impl Sub for Millivolts {
    type Output = i64;
    /// Signed difference in millivolts.
    fn sub(self, rhs: Millivolts) -> i64 {
        self.0 as i64 - rhs.0 as i64
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}mV", self.0)
    }
}

impl From<u32> for Millivolts {
    fn from(mv: u32) -> Self {
        Millivolts(mv)
    }
}

/// The PCP-domain voltage rail: one regulated supply shared by all cores,
/// caches, and memory controllers (the paper's key constraint — voltage is
/// chip-wide while frequency is per-PMD).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoltageRail {
    nominal: Millivolts,
    floor: Millivolts,
    current: Millivolts,
}

impl VoltageRail {
    /// Creates a rail regulated between `floor` and `nominal`, initially at
    /// nominal.
    ///
    /// # Panics
    ///
    /// Panics if `floor > nominal`.
    pub fn new(nominal: Millivolts, floor: Millivolts) -> Self {
        assert!(
            floor <= nominal,
            "rail floor {floor} above nominal {nominal}"
        );
        VoltageRail {
            nominal,
            floor,
            current: nominal,
        }
    }

    /// The nominal (maximum) voltage.
    pub fn nominal(&self) -> Millivolts {
        self.nominal
    }

    /// The regulator's lower limit.
    pub fn floor(&self) -> Millivolts {
        self.floor
    }

    /// The currently regulated voltage.
    pub fn current(&self) -> Millivolts {
        self.current
    }

    /// Requests a new voltage.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::VoltageOutOfWindow`] (carrying the allowed
    /// window) if `mv` is outside `[floor, nominal]`. Like the real
    /// SLIMpro, the rail refuses to go *above* nominal.
    pub fn set(&mut self, mv: Millivolts) -> Result<(), ChipError> {
        if mv < self.floor || mv > self.nominal {
            return Err(ChipError::VoltageOutOfWindow {
                requested: mv,
                floor: self.floor,
                nominal: self.nominal,
            });
        }
        self.current = mv;
        debug_assert!(
            self.current >= self.floor && self.current <= self.nominal,
            "rail left its regulated window: {} outside [{}, {}]",
            self.current,
            self.floor,
            self.nominal
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millivolt_conversions() {
        let v = Millivolts::new(980);
        assert_eq!(v.as_mv(), 980);
    }

    #[test]
    fn offset_and_saturation() {
        let v = Millivolts::new(800);
        assert_eq!(v.offset(-50).as_mv(), 750);
        assert_eq!(v.offset(20).as_mv(), 820);
        assert_eq!(
            Millivolts::new(10)
                .saturating_sub(Millivolts::new(20))
                .as_mv(),
            0
        );
    }

    #[test]
    fn signed_difference() {
        assert_eq!(Millivolts::new(900) - Millivolts::new(950), -50);
        assert_eq!(Millivolts::new(950) - Millivolts::new(900), 50);
    }

    #[test]
    fn rail_accepts_in_range_rejects_outside() {
        let mut rail = VoltageRail::new(Millivolts::new(980), Millivolts::new(600));
        assert_eq!(rail.current().as_mv(), 980);
        assert!(rail.set(Millivolts::new(850)).is_ok());
        assert_eq!(rail.current().as_mv(), 850);
        // Above nominal is refused.
        assert!(rail.set(Millivolts::new(990)).is_err());
        // Below the floor is refused.
        assert!(rail.set(Millivolts::new(500)).is_err());
        // Current unchanged by failed requests.
        assert_eq!(rail.current().as_mv(), 850);
    }

    #[test]
    #[should_panic(expected = "above nominal")]
    fn rail_rejects_inverted_range() {
        let _ = VoltageRail::new(Millivolts::new(600), Millivolts::new(980));
    }

    #[test]
    fn min_max_helpers() {
        let a = Millivolts::new(800);
        let b = Millivolts::new(820);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
