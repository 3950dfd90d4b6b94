//! Per-PMD cpufreq governors.
//!
//! The paper's Baseline and Safe-Vmin configurations run Linux's
//! `ondemand` governor; the Placement and Optimal configurations disable
//! it ("ondemand governor disabled", §VI-B) and let the daemon set
//! frequencies directly — modelled as the `Userspace` mode.

use avfs_chip::freq::FreqStep;
use std::fmt;

/// Which entity controls per-PMD frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GovernorMode {
    /// Kernel `ondemand`: busy PMDs ramp to fmax, idle PMDs drop to the
    /// lowest step. (On CPPC hardware the kernel requests a continuous
    /// performance level; busy periods saturate it, which is why Baseline
    /// effectively runs at fmax under load.)
    Ondemand,
    /// Always the maximum step.
    Performance,
    /// Always the minimum step.
    Powersave,
    /// Frequencies are whatever software last requested (the daemon's
    /// mode; the governor never overrides).
    Userspace,
}

impl GovernorMode {
    /// The step this governor wants for a PMD with the given business,
    /// or `None` if the governor does not override (Userspace).
    pub fn desired_step(self, pmd_busy: bool) -> Option<FreqStep> {
        match self {
            GovernorMode::Ondemand => Some(if pmd_busy {
                FreqStep::MAX
            } else {
                FreqStep::MIN
            }),
            GovernorMode::Performance => Some(FreqStep::MAX),
            GovernorMode::Powersave => Some(FreqStep::MIN),
            GovernorMode::Userspace => None,
        }
    }
}

impl fmt::Display for GovernorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GovernorMode::Ondemand => "ondemand",
            GovernorMode::Performance => "performance",
            GovernorMode::Powersave => "powersave",
            GovernorMode::Userspace => "userspace",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ondemand_tracks_business() {
        assert_eq!(
            GovernorMode::Ondemand.desired_step(true),
            Some(FreqStep::MAX)
        );
        assert_eq!(
            GovernorMode::Ondemand.desired_step(false),
            Some(FreqStep::MIN)
        );
    }

    #[test]
    fn fixed_governors() {
        assert_eq!(
            GovernorMode::Performance.desired_step(false),
            Some(FreqStep::MAX)
        );
        assert_eq!(
            GovernorMode::Powersave.desired_step(true),
            Some(FreqStep::MIN)
        );
    }

    #[test]
    fn userspace_never_overrides() {
        assert_eq!(GovernorMode::Userspace.desired_step(true), None);
        assert_eq!(GovernorMode::Userspace.desired_step(false), None);
    }

    #[test]
    fn names_match_linux() {
        assert_eq!(GovernorMode::Ondemand.to_string(), "ondemand");
        assert_eq!(GovernorMode::Userspace.to_string(), "userspace");
    }
}
