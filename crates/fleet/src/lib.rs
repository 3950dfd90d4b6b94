//! # avfs-fleet — deterministic multi-node cluster layer
//!
//! The paper's daemon ([`avfs_core`]) saves energy on one machine; this
//! crate lifts placement one level up, to a cluster of heterogeneous
//! machines, which is where a production deployment actually decides
//! where work runs. A [`Fleet`] owns N nodes — each a full
//! [`avfs_sched::System`] with its own chip preset, seed, driver, and
//! telemetry hub — behind a front door with bounded admission and
//! pluggable [`RoutingPolicy`] implementations:
//!
//! * [`RoundRobin`] — the heterogeneity-blind baseline;
//! * [`LeastQueued`] — load balancing on live threads per core;
//! * [`EnergyAware`] — classifies each job with the daemon's own
//!   L3-rate signal and routes CPU-intensive work to machines with the
//!   most undervolt headroom and memory-intensive work to machines
//!   whose divided clock (and its deeper Vmin) is cheapest.
//!
//! Execution is epoch-synchronized: arrivals are admitted at epoch
//! boundaries, then the coordinator steps every node to the next
//! boundary in `NodeId` order. Results are **byte-identical for the
//! same seed** — see the determinism rules on [`engine`]. Cluster results aggregate into a [`FleetSummary`]
//! (energy, makespan, admission/shedding counters, daemon recovery
//! stats, per-node metrics) with a [`FleetSummary::fingerprint`] digest
//! and an optional merged telemetry journal.
//!
//! # Fleet resilience
//!
//! Nodes are mortal. A seeded [`NodeFaultPlan`] injects node-scoped
//! failures at epoch boundaries — crash, stall, degrade — and the
//! engine degrades gracefully instead of stranding work:
//!
//! * **Health-gated routing** ([`health`]): a per-node heartbeat-driven
//!   state machine (Healthy → Suspect → Fenced, Probation on return)
//!   mirrors avfs-core's recovery machine at cluster scope; fenced
//!   nodes receive zero new work, enforced for *every* policy by the
//!   [`HealthGated`] circuit breaker (typed
//!   [`FleetError::RoutedToFencedNode`] rejections, counted and
//!   re-picked).
//! * **Exactly-once re-dispatch** ([`redispatch`]): when a crashed node
//!   is fenced, its queued and stranded-running jobs drain into a
//!   re-dispatch queue with bounded retry budgets and generation tags —
//!   never lost, never double-completed, never re-routed to the failed
//!   origin. [`FleetSummary::conserves_jobs`] proves the accounting.

pub mod engine;
pub mod health;
pub mod node;
pub mod redispatch;
pub mod routing;

pub use engine::{
    AdmissionStats, AppliedFaults, EpochAudit, Fleet, FleetBuilder, FleetConfig, FleetSummary,
};
pub use health::{
    HealthConfig, HealthState, HealthTracker, HealthTransition, NodeFaultKind, NodeFaultPlan,
    NodeFaultRates, NodeFaultStats, ScriptedFault,
};
pub use node::{EnergyDescriptor, NodeConfig, NodeId, NodeKind, NodeSummary, NodeView};
pub use redispatch::{CompletionLedger, JobId, RedispatchQueue, RedispatchStats, TrackedJob};
pub use routing::{
    EnergyAware, FleetError, HealthGated, JobView, LeastQueued, RoundRobin, RoutingPolicy,
};
