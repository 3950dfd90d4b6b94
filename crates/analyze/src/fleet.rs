//! Dynamic fleet checks: cluster-level invariants and the same-seed
//! determinism contract.
//!
//! The fleet layer promises that (a) the cluster front door never loses
//! a job — every submission is admitted or shed, and every admitted job
//! completes once the fleet drains; (b) per-node daemons stay inside
//! their safety envelope under cluster-induced load patterns (batched
//! epoch admissions, oversubscription); and (c) a same-seed rerun is
//! byte-identical. This module replays one seeded
//! mixed-cluster workload under each built-in routing policy and
//! asserts all three, plus shed accounting on an overloaded cluster,
//! reporting violations as data the same way the static invariants do.

use crate::invariant::Violation;
use avfs_fleet::{
    EnergyAware, Fleet, FleetConfig, FleetSummary, LeastQueued, NodeConfig, NodeKind, RoundRobin,
    RoutingPolicy,
};
use avfs_sim::time::SimDuration;
use avfs_workloads::{GeneratorConfig, WorkloadTrace};
use std::fmt;

/// Outcome of one fleet exploration run.
#[derive(Debug)]
pub struct FleetReport {
    /// Policies exercised.
    pub policies: Vec<&'static str>,
    /// Jobs submitted per policy run (identical trace each time).
    pub submitted: u64,
    /// Violations found across all runs.
    pub violations: Vec<Violation>,
}

impl FleetReport {
    /// True when no run violated a fleet invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fleet: {} policies x {} jobs, {} violation(s)",
            self.policies.len(),
            self.submitted,
            self.violations.len()
        )
    }
}

fn violation(name: &'static str, location: String, message: String) -> Violation {
    Violation {
        invariant: name,
        location,
        message,
    }
}

/// The small mixed cluster every check runs against.
fn cluster(seed: u64) -> FleetConfig {
    let nodes = vec![
        NodeConfig::new(NodeKind::XGene2, seed.wrapping_add(1)),
        NodeConfig::new(NodeKind::XGene2, seed.wrapping_add(2)),
        NodeConfig::new(NodeKind::XGene3, seed.wrapping_add(3)),
    ];
    let mut cfg = FleetConfig::new(nodes);
    cfg.telemetry = true;
    cfg
}

fn trace(seed: u64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(48, seed);
    cfg.duration = SimDuration::from_secs(60);
    cfg.job_scale = 0.3;
    WorkloadTrace::generate(&cfg)
}

/// Per-summary invariants: conservation, safety, aggregate consistency.
fn check_summary(policy: &'static str, s: &FleetSummary, out: &mut Vec<Violation>) {
    let a = s.admission;
    if a.submitted != a.admitted + a.shed_full + a.shed_unroutable {
        out.push(violation(
            "fleet-conservation",
            format!("policy {policy}"),
            format!(
                "submitted {} != admitted {} + shed {}",
                a.submitted,
                a.admitted,
                a.shed()
            ),
        ));
    }
    if !s.conserves_jobs() {
        out.push(violation(
            "fleet-conservation",
            format!("policy {policy}"),
            format!(
                "admitted {} but completed {} after drain",
                a.admitted, s.completed
            ),
        ));
    }
    if s.failures != 0 || s.unsafe_time_s > 0.0 {
        out.push(violation(
            "fleet-safety",
            format!("policy {policy}"),
            format!(
                "cluster ran unsafely: failures={} unsafe_time={}s",
                s.failures, s.unsafe_time_s
            ),
        ));
    }
    let node_energy: f64 = s.nodes.iter().map(|n| n.metrics.energy_j).sum();
    if (node_energy - s.cluster_energy_j).abs() > 1e-6 * s.cluster_energy_j.max(1.0) {
        out.push(violation(
            "fleet-aggregation",
            format!("policy {policy}"),
            format!(
                "cluster energy {} != sum of node energies {}",
                s.cluster_energy_j, node_energy
            ),
        ));
    }
    let max_makespan = s
        .nodes
        .iter()
        .map(|n| n.metrics.makespan)
        .max()
        .unwrap_or(SimDuration::ZERO);
    if s.cluster_makespan != max_makespan {
        out.push(violation(
            "fleet-aggregation",
            format!("policy {policy}"),
            format!(
                "cluster makespan {:?} != max node makespan {:?}",
                s.cluster_makespan, max_makespan
            ),
        ));
    }
}

/// Runs the fleet checks: every policy once, plus a same-seed rerun per
/// policy.
pub fn explore(seed: u64) -> FleetReport {
    let t = trace(seed);
    let mut violations = Vec::new();
    let policies: Vec<&'static str> = vec!["round-robin", "least-queued", "energy-aware"];
    let fresh = |name: &str| -> Box<dyn RoutingPolicy> {
        match name {
            "round-robin" => Box::new(RoundRobin::new()),
            "least-queued" => Box::new(LeastQueued::new()),
            _ => Box::new(EnergyAware::new()),
        }
    };
    let mut submitted = 0;
    for &name in &policies {
        let run = || {
            Fleet::builder()
                .config(cluster(seed))
                .build()
                .run(&t, fresh(name).as_mut())
        };
        let first = run();
        submitted = first.admission.submitted;
        check_summary(name, &first, &mut violations);
        let rerun = run();
        if first.fingerprint() != rerun.fingerprint() {
            violations.push(violation(
                "fleet-determinism",
                format!("policy {name}"),
                "summary fingerprint diverged on a same-seed rerun".to_string(),
            ));
        }
        if first.journal != rerun.journal {
            violations.push(violation(
                "fleet-determinism",
                format!("policy {name}"),
                "telemetry journal diverged on a same-seed rerun".to_string(),
            ));
        }
    }
    check_shed_accounting(seed, &mut violations);
    FleetReport {
        policies,
        submitted,
        violations,
    }
}

/// Overload run with tiny admission bounds: the journal's `fleet_shed`
/// count and the summary's shed counters are incremented together on the
/// single shed path, so they must agree exactly.
fn check_shed_accounting(seed: u64, out: &mut Vec<Violation>) {
    let mut cfg = cluster(seed);
    for n in &mut cfg.nodes {
        n.admit_capacity = 1;
    }
    let mut gen = GeneratorConfig::paper_default(48, seed);
    gen.duration = SimDuration::from_secs(30);
    gen.job_scale = 0.6;
    let summary = Fleet::builder()
        .config(cfg)
        .build()
        .run(&WorkloadTrace::generate(&gen), &mut RoundRobin::new());
    let shed = summary.admission.shed();
    if shed == 0 {
        out.push(violation(
            "fleet-shed-accounting",
            "overload run".to_string(),
            "capacity-1 cluster shed nothing — check is vacuous".to_string(),
        ));
    }
    let traced = summary
        .journal
        .as_deref()
        .unwrap_or("")
        .lines()
        .filter(|l| l.contains("\"kind\":\"fleet_shed\""))
        .count() as u64;
    if traced != shed {
        out.push(violation(
            "fleet-shed-accounting",
            "overload run".to_string(),
            format!("journal saw {traced} sheds, summary counted {shed}"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_checks_are_clean() {
        let report = explore(0xF1EE7);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.submitted > 0);
    }
}
