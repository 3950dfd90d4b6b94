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
//! and an optional merged telemetry journal. Nodes never fail: the
//! cluster models placement only, and [`FleetSummary::conserves_jobs`]
//! checks that every submitted job is shed at the front door or
//! completed.

pub mod engine;
pub mod node;
pub mod routing;

pub use engine::{AdmissionStats, Fleet, FleetBuilder, FleetConfig, FleetSummary};
pub use node::{EnergyDescriptor, NodeConfig, NodeId, NodeKind, NodeSummary, NodeView};
pub use routing::{EnergyAware, JobView, LeastQueued, RoundRobin, RoutingPolicy};
