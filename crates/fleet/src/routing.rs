//! Pluggable cluster routing policies.
//!
//! A [`RoutingPolicy`] sees one arriving job ([`JobView`]) and the
//! sanitized state of every node ([`NodeView`], in `NodeId` order) and
//! either names a node or declines (the front door then sheds the job).
//! Policies are consulted one arrival at a time, in trace order, at
//! epoch boundaries — the sequence of (job, views) pairs is a pure
//! function of the trace and the node configurations, so any
//! deterministic policy keeps the whole fleet run deterministic.
//!
//! Three built-ins:
//!
//! * [`RoundRobin`] — cycles node ids, skipping full nodes.
//! * [`LeastQueued`] — picks the node with the lowest live-threads per
//!   core ratio (ties to the lowest id).
//! * [`EnergyAware`] — classifies the job with the L3-rate classifier
//!   (the daemon's own signal, Figure 9) and sends CPU-intensive work to
//!   the node with the cheapest undervolted full-clock energy and
//!   memory-intensive work to the node with the cheapest divided-clock
//!   energy, inflated by a congestion term so load still spreads.

use crate::node::{NodeId, NodeView};
use avfs_workloads::{classify, Benchmark, IntensityClass};

/// What a routing policy sees of one arriving job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobView {
    /// The benchmark the job runs.
    pub bench: Benchmark,
    /// Thread count requested.
    pub threads: usize,
    /// Work scale factor from the trace.
    pub scale: f64,
    /// Solo L3 accesses per 1 M cycles (the classification signal).
    pub l3c_per_mcycle: f64,
    /// Front-door classification of the job from its solo L3 rate.
    pub class: IntensityClass,
}

impl JobView {
    /// Builds the view for an arriving job, classifying it by the same
    /// L3-rate threshold the per-node daemons use.
    pub fn of(bench: Benchmark, threads: usize, scale: f64) -> Self {
        let profile = bench.profile();
        JobView {
            bench,
            threads,
            scale,
            l3c_per_mcycle: profile.l3c_per_mcycle,
            class: classify(profile.l3c_per_mcycle),
        }
    }
}

/// A cluster admission/placement policy.
pub trait RoutingPolicy {
    /// Stable policy label (appears in summaries and tables).
    fn name(&self) -> &'static str;

    /// Chooses a node for `job`, or `None` to shed it. `nodes` is every
    /// node's sanitized view, in `NodeId` order. Returning a full or
    /// unknown node also sheds the job (counted separately).
    fn route(&mut self, job: &JobView, nodes: &[NodeView]) -> Option<NodeId>;
}

/// Cycles through nodes in id order, skipping nodes without admission
/// space. The classic baseline: ignores both load and heterogeneity.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// A fresh round-robin cursor.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _job: &JobView, nodes: &[NodeView]) -> Option<NodeId> {
        if nodes.is_empty() {
            return None;
        }
        for offset in 0..nodes.len() {
            let i = (self.cursor + offset) % nodes.len();
            if nodes[i].has_space() {
                self.cursor = (i + 1) % nodes.len();
                return Some(nodes[i].id);
            }
        }
        None
    }
}

/// Sends each job to the node with the lowest live-threads-per-core
/// ratio among those with admission space; ties go to the lowest id.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastQueued;

impl LeastQueued {
    /// The stateless least-queued balancer.
    pub fn new() -> Self {
        LeastQueued
    }
}

impl RoutingPolicy for LeastQueued {
    fn name(&self) -> &'static str {
        "least-queued"
    }

    fn route(&mut self, _job: &JobView, nodes: &[NodeView]) -> Option<NodeId> {
        let mut best: Option<(f64, NodeId)> = None;
        for n in nodes.iter().filter(|n| n.has_space()) {
            let load = n.load_ratio();
            // Strict `<` keeps ties on the lowest id (iteration order).
            if best.is_none_or(|(b, _)| load < b) {
                best = Some((load, n.id));
            }
        }
        best.map(|(_, id)| id)
    }
}

/// Routes by estimated marginal energy on each machine, using the
/// per-node [`crate::EnergyDescriptor`]s: CPU-intensive jobs go where
/// the undervolted full-clock energy is cheapest, memory-intensive jobs
/// where the divided-clock energy is cheapest. A multiplicative
/// congestion factor `1 + weight * projected_load` spreads load once the
/// preferred machines fill up, bounding the makespan cost.
#[derive(Debug, Clone, Copy)]
pub struct EnergyAware {
    /// Congestion weight: 0 routes purely on energy; larger values
    /// converge toward least-queued behavior.
    pub congestion_weight: f64,
}

impl EnergyAware {
    /// The default balance between energy preference and congestion.
    pub fn new() -> Self {
        EnergyAware {
            congestion_weight: 2.0,
        }
    }
}

impl Default for EnergyAware {
    fn default() -> Self {
        EnergyAware::new()
    }
}

impl RoutingPolicy for EnergyAware {
    fn name(&self) -> &'static str {
        "energy-aware"
    }

    fn route(&mut self, job: &JobView, nodes: &[NodeView]) -> Option<NodeId> {
        let mut best: Option<(f64, NodeId)> = None;
        for n in nodes.iter().filter(|n| n.has_space()) {
            let base = match job.class {
                IntensityClass::CpuIntensive => n.descriptor.cpu_job_cost_j,
                IntensityClass::MemoryIntensive => n.descriptor.mem_job_cost_j,
            };
            let projected = n.projected_load(job.threads);
            // Over-subscription is punished sharply: queued work delays
            // every job on the node, and the idle floor elsewhere keeps
            // burning while the cluster waits for the stragglers.
            let crowding = if projected > 1.0 {
                1.0 + self.congestion_weight * projected * projected
            } else {
                1.0 + self.congestion_weight * projected
            };
            let score = base * crowding;
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, n.id));
            }
        }
        best.map(|(_, id)| id)
    }
}
