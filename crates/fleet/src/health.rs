//! Node fault injection and the per-node health state machine.
//!
//! # Fault plan
//!
//! [`NodeFaultPlan`] injects *node-scoped* failures at epoch boundaries,
//! one tier above the per-chip [`avfs_chip::fault::FaultPlan`]: a node
//! can **crash** (permanently dead — its simulator is never stepped
//! again), **stall** (miss `K` epochs of stepping, then return and catch
//! up), or **degrade** (its chip is pessimized by a permanently-armed
//! droop excursion and its energy descriptors are re-characterized).
//! The plan draws from its own [`RngStream`] (label `"node-fault-plan"`)
//! and always burns exactly three draws per node per boundary, so the
//! sampled schedule is a pure function of `(seed, epoch, node)` — never
//! of routing decisions or prior fault outcomes. A plan with all-zero
//! rates and no scripted events is a no-op: the run is byte-identical
//! to one with no plan at all.
//!
//! # Health machine
//!
//! The coordinator cannot see inside a node; it only observes whether
//! the node participated in the last epoch step (its *heartbeat*). The
//! per-node [`HealthTracker`] mirrors avfs-core's recovery machine
//! (Optimized → SafeMode → Probation) at cluster granularity:
//!
//! ```text
//!            misses >= suspect_after      misses >= fence_after
//!  Healthy ──────────────────────▶ Suspect ─────────────────▶ Fenced ◀──┐
//!     ▲                              │beat                      │beat   │miss
//!     │                              ▼                          ▼       │
//!     └──────────────────────── (cleared)                   Probation ──┘
//!     ▲                                                         │
//!     └──────────────── beats >= probation_beats ───────────────┘
//! ```
//!
//! Fenced nodes are excluded from routing (see
//! [`NodeView::routable`](crate::NodeView::routable)); Suspect and
//! Probation nodes stay routable — like the daemon's Probation state,
//! they serve while being watched.

use crate::node::NodeId;
use avfs_sim::RngStream;
use std::fmt;

/// Per-category node-fault probabilities, each per node per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaultRates {
    /// Probability a node crashes (permanently dead).
    pub crash: f64,
    /// Probability a node stalls (misses the plan's stall window).
    pub stall: f64,
    /// Probability a node's chip degrades (pessimized, re-characterized).
    pub degrade: f64,
}

impl NodeFaultRates {
    /// No node faults at all.
    pub const ZERO: NodeFaultRates = NodeFaultRates {
        crash: 0.0,
        stall: 0.0,
        degrade: 0.0,
    };

    /// The same rate for every fault category.
    pub fn uniform(rate: f64) -> Self {
        let r = rate.clamp(0.0, 1.0);
        NodeFaultRates {
            crash: r,
            stall: r,
            degrade: r,
        }
    }
}

/// One node-scoped fault, fired at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// The node dies permanently: never stepped again, never heartbeats
    /// again. Its stranded jobs are drained once the health machine
    /// fences it.
    Crash,
    /// The node misses `epochs` epoch steps, then returns and catches up
    /// in one deterministic `step_until` to the current horizon (a
    /// partition, not a compute freeze: parked jobs resume afterwards).
    Stall {
        /// Epoch steps missed before the node returns.
        epochs: u32,
    },
    /// The node's chip is pessimized (a permanently-armed droop
    /// excursion raises its effective Vmin) and its
    /// [`EnergyDescriptor`](crate::EnergyDescriptor) is re-characterized
    /// so energy-aware routing sees the new, worse costs.
    Degrade,
}

impl NodeFaultKind {
    /// Stable label for traces and tables.
    pub fn name(self) -> &'static str {
        match self {
            NodeFaultKind::Crash => "crash",
            NodeFaultKind::Stall { .. } => "stall",
            NodeFaultKind::Degrade => "degrade",
        }
    }
}

/// A fault scripted to fire at an exact epoch boundary on an exact node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedFault {
    /// Epoch boundary at which the fault fires.
    pub epoch: u64,
    /// Which node it hits.
    pub node: NodeId,
    /// What happens to it.
    pub kind: NodeFaultKind,
}

/// Counters of every event the plan has emitted (before the engine's
/// dead-node filtering).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeFaultStats {
    /// Crash events emitted.
    pub crashes: u64,
    /// Stall events emitted.
    pub stalls: u64,
    /// Degrade events emitted.
    pub degrades: u64,
}

/// How many epochs a *sampled* stall lasts. Longer than the default
/// [`HealthConfig::fence_after`], so an injected stall reliably drives
/// the node through Fenced and back out via Probation.
const STALL_EPOCHS: u32 = 6;

/// A seeded, deterministic node-fault schedule.
#[derive(Debug, Clone)]
pub struct NodeFaultPlan {
    rates: NodeFaultRates,
    rng: RngStream,
    scripted: Vec<ScriptedFault>,
    stats: NodeFaultStats,
}

impl NodeFaultPlan {
    /// A plan with explicit per-category rates.
    pub fn new(seed: u64, rates: NodeFaultRates) -> Self {
        NodeFaultPlan {
            rates,
            rng: RngStream::from_root(seed, "node-fault-plan"),
            scripted: Vec::new(),
            stats: NodeFaultStats::default(),
        }
    }

    /// A plan with one rate for every category.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        NodeFaultPlan::new(seed, NodeFaultRates::uniform(rate))
    }

    /// A purely scripted plan: zero sampled rates, only the given events.
    pub fn scripted(events: Vec<ScriptedFault>) -> Self {
        let mut plan = NodeFaultPlan::new(0, NodeFaultRates::ZERO);
        plan.scripted = events;
        plan
    }

    /// Appends one scripted fault.
    pub fn push(&mut self, fault: ScriptedFault) {
        self.scripted.push(fault);
    }

    /// The configured rates.
    pub fn rates(&self) -> NodeFaultRates {
        self.rates
    }

    /// Everything emitted so far.
    pub fn stats(&self) -> NodeFaultStats {
        self.stats
    }

    /// The events firing at `epoch` for a fleet of `nodes` nodes:
    /// scripted events first (in insertion order), then sampled events in
    /// node-id order. Exactly three RNG draws are burned per node per
    /// call, regardless of outcome, so the schedule is independent of
    /// everything but the seed.
    pub fn events_at(&mut self, epoch: u64, nodes: usize) -> Vec<(NodeId, NodeFaultKind)> {
        let mut events: Vec<(NodeId, NodeFaultKind)> = self
            .scripted
            .iter()
            .filter(|s| s.epoch == epoch && s.node.index() < nodes)
            .map(|s| (s.node, s.kind))
            .collect();
        for i in 0..nodes {
            let crash = self.rng.chance(self.rates.crash);
            let stall = self.rng.chance(self.rates.stall);
            let degrade = self.rng.chance(self.rates.degrade);
            let id = NodeId(u16::try_from(i).unwrap_or(u16::MAX));
            if crash {
                events.push((id, NodeFaultKind::Crash));
            }
            if stall {
                events.push((
                    id,
                    NodeFaultKind::Stall {
                        epochs: STALL_EPOCHS,
                    },
                ));
            }
            if degrade {
                events.push((id, NodeFaultKind::Degrade));
            }
        }
        for (_, kind) in &events {
            match kind {
                NodeFaultKind::Crash => self.stats.crashes += 1,
                NodeFaultKind::Stall { .. } => self.stats.stalls += 1,
                NodeFaultKind::Degrade => self.stats.degrades += 1,
            }
        }
        events
    }
}

/// The coordinator's belief about one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Heartbeating normally; fully routable.
    #[default]
    Healthy,
    /// Missed at least `suspect_after` consecutive heartbeats; still
    /// routable but one step from fencing.
    Suspect,
    /// Missed at least `fence_after` consecutive heartbeats; receives
    /// zero new work until it beats again.
    Fenced,
    /// Beat again after being fenced; routable, but one miss re-fences.
    Probation,
}

impl HealthState {
    /// Stable label for summaries and fingerprints.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Fenced => "fenced",
            HealthState::Probation => "probation",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Thresholds of the health machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive missed heartbeats before Healthy demotes to Suspect.
    pub suspect_after: u32,
    /// Consecutive missed heartbeats before the node is fenced.
    pub fence_after: u32,
    /// Consecutive heartbeats a fenced node must deliver (through
    /// Probation) before it is Healthy again.
    pub probation_beats: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            suspect_after: 2,
            fence_after: 4,
            probation_beats: 2,
        }
    }
}

/// A state change the engine may want to trace or act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTransition {
    /// Healthy → Suspect.
    Suspected,
    /// Suspect → Healthy (beat before fencing).
    Cleared,
    /// → Fenced (from Suspect on the fencing miss, or from Probation on
    /// any miss).
    Fenced,
    /// Fenced → Probation (first beat after fencing).
    Probation,
    /// Probation → Healthy (probation served).
    Recovered,
}

/// Per-node health bookkeeping: feed it one heartbeat observation per
/// epoch and it walks the state machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthTracker {
    state: HealthState,
    misses: u32,
    beats: u32,
    fenced_epochs: u64,
}

impl HealthTracker {
    /// A fresh, Healthy tracker.
    pub fn new() -> Self {
        HealthTracker::default()
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Total epochs spent Fenced so far.
    pub fn fenced_epochs(&self) -> u64 {
        self.fenced_epochs
    }

    /// Observes one epoch's heartbeat (`beat` = the node participated in
    /// the step that just ended) and returns the transition it caused,
    /// if any.
    pub fn observe(&mut self, beat: bool, cfg: &HealthConfig) -> Option<HealthTransition> {
        if self.state == HealthState::Fenced {
            self.fenced_epochs += 1;
        }
        match (self.state, beat) {
            (HealthState::Healthy, true) => {
                self.misses = 0;
                None
            }
            (HealthState::Healthy | HealthState::Suspect, false) => {
                self.misses += 1;
                if self.misses >= cfg.fence_after {
                    self.state = HealthState::Fenced;
                    Some(HealthTransition::Fenced)
                } else if self.state == HealthState::Healthy && self.misses >= cfg.suspect_after {
                    self.state = HealthState::Suspect;
                    Some(HealthTransition::Suspected)
                } else {
                    None
                }
            }
            (HealthState::Suspect, true) => {
                self.misses = 0;
                self.state = HealthState::Healthy;
                Some(HealthTransition::Cleared)
            }
            (HealthState::Fenced, true) => {
                self.misses = 0;
                self.beats = 1;
                if self.beats >= cfg.probation_beats {
                    self.state = HealthState::Healthy;
                    self.beats = 0;
                    Some(HealthTransition::Recovered)
                } else {
                    self.state = HealthState::Probation;
                    Some(HealthTransition::Probation)
                }
            }
            (HealthState::Fenced, false) => None,
            (HealthState::Probation, true) => {
                self.beats += 1;
                if self.beats >= cfg.probation_beats {
                    self.state = HealthState::Healthy;
                    self.beats = 0;
                    Some(HealthTransition::Recovered)
                } else {
                    None
                }
            }
            (HealthState::Probation, false) => {
                self.state = HealthState::Fenced;
                self.beats = 0;
                self.misses = cfg.fence_after;
                Some(HealthTransition::Fenced)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    #[test]
    fn healthy_node_stays_healthy() {
        let mut t = HealthTracker::new();
        for _ in 0..100 {
            assert_eq!(t.observe(true, &cfg()), None);
            assert_eq!(t.state(), HealthState::Healthy);
        }
        assert_eq!(t.fenced_epochs(), 0);
    }

    #[test]
    fn misses_walk_suspect_then_fenced() {
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(false, &cfg()), None);
        assert_eq!(t.observe(false, &cfg()), Some(HealthTransition::Suspected));
        assert_eq!(t.state(), HealthState::Suspect);
        assert_eq!(t.observe(false, &cfg()), None);
        assert_eq!(t.observe(false, &cfg()), Some(HealthTransition::Fenced));
        assert_eq!(t.state(), HealthState::Fenced);
        // Further misses keep it fenced without re-announcing.
        assert_eq!(t.observe(false, &cfg()), None);
        assert!(t.fenced_epochs() > 0);
    }

    #[test]
    fn suspect_clears_on_one_beat() {
        let mut t = HealthTracker::new();
        t.observe(false, &cfg());
        t.observe(false, &cfg());
        assert_eq!(t.state(), HealthState::Suspect);
        assert_eq!(t.observe(true, &cfg()), Some(HealthTransition::Cleared));
        assert_eq!(t.state(), HealthState::Healthy);
    }

    #[test]
    fn fenced_serves_probation_then_recovers() {
        let mut t = HealthTracker::new();
        for _ in 0..4 {
            t.observe(false, &cfg());
        }
        assert_eq!(t.state(), HealthState::Fenced);
        assert_eq!(t.observe(true, &cfg()), Some(HealthTransition::Probation));
        assert_eq!(t.state(), HealthState::Probation);
        assert_eq!(t.observe(true, &cfg()), Some(HealthTransition::Recovered));
        assert_eq!(t.state(), HealthState::Healthy);
    }

    #[test]
    fn probation_miss_refences() {
        let mut t = HealthTracker::new();
        for _ in 0..4 {
            t.observe(false, &cfg());
        }
        t.observe(true, &cfg());
        assert_eq!(t.state(), HealthState::Probation);
        assert_eq!(t.observe(false, &cfg()), Some(HealthTransition::Fenced));
        assert_eq!(t.state(), HealthState::Fenced);
        // One beat re-enters probation; it must serve the full term again.
        assert_eq!(t.observe(true, &cfg()), Some(HealthTransition::Probation));
    }

    #[test]
    fn single_beat_probation_recovers_immediately() {
        let short = HealthConfig {
            probation_beats: 1,
            ..HealthConfig::default()
        };
        let mut t = HealthTracker::new();
        for _ in 0..4 {
            t.observe(false, &short);
        }
        assert_eq!(t.observe(true, &short), Some(HealthTransition::Recovered));
        assert_eq!(t.state(), HealthState::Healthy);
    }

    #[test]
    fn zero_rate_plan_emits_nothing() {
        let mut plan = NodeFaultPlan::uniform(9, 0.0);
        for epoch in 0..500 {
            assert!(plan.events_at(epoch, 8).is_empty());
        }
        assert_eq!(plan.stats(), NodeFaultStats::default());
    }

    #[test]
    fn full_rate_plan_hits_every_node() {
        let mut plan = NodeFaultPlan::uniform(9, 1.0);
        let events = plan.events_at(0, 3);
        // Three categories on each of three nodes.
        assert_eq!(events.len(), 9);
        assert_eq!(plan.stats().crashes, 3);
        assert_eq!(plan.stats().stalls, 3);
        assert_eq!(plan.stats().degrades, 3);
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let run = |seed| {
            let mut plan = NodeFaultPlan::uniform(seed, 0.2);
            let events: Vec<_> = (0..100).flat_map(|e| plan.events_at(e, 4)).collect();
            (events, plan.stats())
        };
        assert_eq!(run(41), run(41));
        assert_ne!(run(41).0, run(42).0);
    }

    #[test]
    fn scripted_faults_fire_exactly_once() {
        let mut plan = NodeFaultPlan::scripted(vec![ScriptedFault {
            epoch: 3,
            node: NodeId(1),
            kind: NodeFaultKind::Crash,
        }]);
        assert!(plan.events_at(2, 4).is_empty());
        assert_eq!(
            plan.events_at(3, 4),
            vec![(NodeId(1), NodeFaultKind::Crash)]
        );
        assert!(plan.events_at(4, 4).is_empty());
    }

    #[test]
    fn scripted_fault_outside_fleet_is_dropped() {
        let mut plan = NodeFaultPlan::scripted(vec![ScriptedFault {
            epoch: 0,
            node: NodeId(9),
            kind: NodeFaultKind::Degrade,
        }]);
        assert!(plan.events_at(0, 4).is_empty());
    }
}
