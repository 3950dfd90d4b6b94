//! Static analysis and dynamic invariant exploration for the AVFS
//! workspace.
//!
//! The reproduction's correctness rests on a handful of domain facts the
//! paper takes for granted — safe Vmin is monotone in frequency class,
//! droop class, and utilized-PMD count; the characterized policy table is
//! total and covers the model; every intermediate state of a daemon
//! transition is safe. This crate makes those facts *checkable*:
//!
//! * [`invariant`] — an [`invariant::Invariant`] trait plus a registry of
//!   domain invariants evaluated against a constructed
//!   [`context::AnalysisContext`] (a chip, its raw Vmin tables, and its
//!   characterized policy table). Violations carry a location and an
//!   explanation, so a table hole or inversion is reported as data, not a
//!   panic.
//! * [`lint`] — a source-level lint driver that walks the workspace's
//!   non-test library code and flags banned patterns (`unwrap`/`expect`,
//!   float `==`, `thread::sleep` in sim-clocked paths, truncating `as`
//!   casts near voltage/frequency arithmetic) against a committed
//!   allowlist, so existing debt is frozen and new debt fails the build.
//! * [`fleet`] — cluster-level checks over `avfs-fleet`: job
//!   conservation through admission/shedding/drain, per-node safety
//!   under cluster-induced load, aggregate consistency, and the
//!   determinism contract: a same-seed rerun is byte-identical.
//! * [`model`] + [`statespace`] — a bounded explicit-state model
//!   checker over the Daemon↔Chip↔Sched shared state. [`statespace`]'s
//!   `World` runs the simulator's kernel (`avfs_sched::kernel`), applies
//!   the daemon's actions one atomic step at a time and asserts the
//!   shared-state invariants (no torn V/F pair, no mid-migration mask,
//!   rail in range) after every step and every kernel admission — the
//!   property the fail-safe ordering exists to maintain. [`model`]
//!   searches every event interleaving breadth-first up to a depth bound,
//!   scripted mailbox faults included, expanding each distinct state
//!   once: a clean run at depth `d` covers every schedule of at most `d`
//!   events, and a violation comes back as every shortest, seedlessly
//!   replayable counterexample.
//! * [`proof`] — exhaustive enumeration of the finite voltage-policy
//!   domain (frequency class × utilized PMDs × threads × intensity ×
//!   droop guard × recovery state) proving the chooser never
//!   undervolts the physical worst case and never costs more power
//!   than nominal, cell by cell — for the model-derived table or any
//!   supplied one ([`proof::prove_preset_with_table`]).
//! * [`margins`] — the measured-table audit: runs an
//!   `avfs-characterize` campaign per preset, replays the compiled
//!   table against the hidden ground truth the campaign never read,
//!   checks monotonicity and same-seed determinism, and feeds the
//!   measured table through the full policy-domain proof.
//!
//! Run everything from the binary:
//!
//! ```text
//! cargo run -p avfs-analyze -- invariants
//! cargo run -p avfs-analyze -- lint
//! cargo run -p avfs-analyze -- model --depth 6
//! cargo run -p avfs-analyze -- prove-policy
//! ```
//!
//! Every subcommand prints a text report and exits 0 (clean),
//! 1 (violations), or 2 (usage error).

pub mod context;
pub mod fleet;
pub mod invariant;
pub mod invariants;
pub mod lint;
pub mod margins;
pub mod model;
pub mod proof;
#[cfg(test)]
mod race;
#[cfg(test)]
mod shrink;
pub mod statespace;

pub use context::AnalysisContext;
pub use invariant::{check_all, registry, Invariant, Violation};
