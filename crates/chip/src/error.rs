//! Error type for chip-model operations.

use crate::topology::{CoreId, PmdId};
use crate::voltage::Millivolts;
use std::error::Error;
use std::fmt;

/// Errors returned by chip-model operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChipError {
    /// A core index beyond the chip's core count.
    InvalidCore(CoreId),
    /// A PMD index beyond the chip's PMD count.
    InvalidPmd(PmdId),
    /// A requested voltage outside the rail's regulated window.
    VoltageOutOfWindow {
        /// The rejected request.
        requested: Millivolts,
        /// The lowest voltage the regulator can produce.
        floor: Millivolts,
        /// The highest voltage the regulator can produce (the nominal).
        nominal: Millivolts,
    },
    /// A frequency request that does not map onto a 1/8-of-fmax step.
    InvalidFreqStep(u8),
    /// The SLIMpro mailbox refused an otherwise valid request (e.g. the
    /// management processor was busy). Distinct from
    /// [`ChipError::VoltageOutOfWindow`]: the request could have been
    /// honoured and a retry may succeed.
    MailboxRefused {
        /// The refusal reason reported by the management processor.
        reason: String,
    },
    /// A SLIMpro mailbox request (or its response) was lost in flight;
    /// the caller cannot tell whether it was applied and must retry
    /// idempotently.
    MailboxDropped,
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipError::InvalidCore(c) => write!(f, "core {c} does not exist on this chip"),
            ChipError::InvalidPmd(p) => write!(f, "PMD {p} does not exist on this chip"),
            ChipError::VoltageOutOfWindow {
                requested,
                floor,
                nominal,
            } => write!(
                f,
                "requested voltage {requested} outside regulated window [{floor}, {nominal}]"
            ),
            ChipError::InvalidFreqStep(s) => {
                write!(f, "frequency step {s} is not in the valid range 1..=8")
            }
            ChipError::MailboxRefused { reason } => {
                write!(f, "SLIMpro mailbox refused the request: {reason}")
            }
            ChipError::MailboxDropped => {
                write!(f, "SLIMpro mailbox request lost in flight (no response)")
            }
        }
    }
}

impl Error for ChipError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ChipError::VoltageOutOfWindow {
            requested: Millivolts::new(1200),
            floor: Millivolts::new(700),
            nominal: Millivolts::new(980),
        };
        let s = e.to_string();
        assert!(s.contains("1200"));
        assert!(s.contains("700"));
        assert!(s.contains("980"));
    }

    #[test]
    fn mailbox_errors_are_distinct_and_typed() {
        let refused = ChipError::MailboxRefused {
            reason: "management processor busy".into(),
        };
        assert!(refused.to_string().contains("busy"));
        assert_ne!(refused, ChipError::MailboxDropped);
        assert!(ChipError::MailboxDropped.to_string().contains("lost"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<ChipError>();
    }
}
