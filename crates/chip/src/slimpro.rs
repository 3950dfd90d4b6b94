//! SLIMpro management-processor interface.
//!
//! Both X-Gene chips carry a Scalable Lightweight Intelligent Management
//! processor (SLIMpro) that monitors sensors and regulates the PCP supply
//! voltage; the running kernel talks to it through a mailbox (§II-A). The
//! paper's daemon adjusts voltage exclusively through this path, so the
//! model's one rail write, [`crate::chip::Chip::set_voltage`], goes
//! through the same mailbox — with its traffic counted, and its refusals
//! and drops injectable — rather than letting software poke the rail
//! directly.

/// Statistics the SLIMpro keeps about mailbox traffic; useful for
/// verifying the daemon is "minimally intrusive" (§VI-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Total requests processed.
    pub requests: u64,
    /// Voltage-change requests that were applied.
    pub voltage_changes: u64,
    /// Requests refused.
    pub refusals: u64,
    /// Requests (or responses) lost in flight.
    pub drops: u64,
}
