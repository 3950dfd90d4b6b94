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
//! asserts all three, reporting violations as data the same way the
//! static invariants do.

use crate::invariant::Violation;
use avfs_fleet::{
    EnergyAware, Fleet, FleetConfig, FleetSummary, LeastQueued, NodeConfig, NodeFaultKind,
    NodeFaultPlan, NodeId, NodeKind, RoundRobin, RoutingPolicy, ScriptedFault,
};
use avfs_sim::time::SimDuration;
use avfs_workloads::{GeneratorConfig, WorkloadTrace};
use std::collections::BTreeSet;
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
    check_resilience(seed, &mut violations);
    check_shed_accounting(seed, &mut violations);
    FleetReport {
        policies,
        submitted,
        violations,
    }
}

/// The scripted-failure cluster: four nodes, one of each fault kind.
/// The degrade and stall are fixed; the crash placement is supplied by
/// the caller (see `check_resilience`'s candidate probe).
fn failing_cluster(seed: u64, crash: ScriptedFault) -> FleetConfig {
    let nodes = vec![
        NodeConfig::new(NodeKind::XGene2, seed.wrapping_add(1)),
        NodeConfig::new(NodeKind::XGene2, seed.wrapping_add(2)),
        NodeConfig::new(NodeKind::XGene3, seed.wrapping_add(3)),
        NodeConfig::new(NodeKind::XGene3, seed.wrapping_add(4)),
    ];
    let mut cfg = FleetConfig::new(nodes);
    cfg.telemetry = true;
    cfg.audit = true;
    cfg.fault_plan = Some(NodeFaultPlan::scripted(vec![
        ScriptedFault {
            epoch: 2,
            node: NodeId(0),
            kind: NodeFaultKind::Degrade,
        },
        crash,
        ScriptedFault {
            epoch: 5,
            node: NodeId(2),
            kind: NodeFaultKind::Stall { epochs: 6 },
        },
    ]));
    cfg
}

/// Denser, longer jobs than the clean-run trace so nodes hold live work
/// through the early epochs where the scripted faults land.
fn failing_trace(seed: u64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(48, seed);
    cfg.duration = SimDuration::from_secs(60);
    cfg.job_scale = 0.5;
    WorkloadTrace::generate(&cfg)
}

/// Crash placements tried in order until one strands live work. Which
/// node holds jobs at a given epoch depends on the seed's arrival
/// pattern, so a single fixed placement would make the drain check
/// vacuous for some seeds; the probe keeps the gate meaningful for any
/// `--seed` while staying fully deterministic (fixed candidate order,
/// first hit wins). Node2 is skipped — it carries the scripted stall.
const CRASH_CANDIDATES: [(u16, u64); 9] = [
    (3, 6),
    (1, 6),
    (3, 10),
    (1, 10),
    (0, 10),
    (3, 14),
    (1, 14),
    (0, 14),
    (3, 20),
];

/// Extracts the u64 after `"key":` in a JSONL trace line, if present.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Replays the fleet journal in sequence order and asserts the fencing
/// contract: between a node's `node_fenced` and its `node_recovered`,
/// no `fleet_route` line may name it (re-dispatch hops included via
/// `job_redispatch`'s `to` field).
fn check_fencing_journal(journal: &str, out: &mut Vec<Violation>) {
    let mut fenced: BTreeSet<u64> = BTreeSet::new();
    for line in journal.lines() {
        if line.contains("\"kind\":\"node_fenced\"") {
            if let Some(n) = field_u64(line, "node") {
                fenced.insert(n);
            }
        } else if line.contains("\"kind\":\"node_recovered\"") {
            if let Some(n) = field_u64(line, "node") {
                fenced.remove(&n);
            }
        } else if line.contains("\"kind\":\"fleet_route\"") {
            if let Some(n) = field_u64(line, "node") {
                if fenced.contains(&n) {
                    out.push(violation(
                        "fleet-fencing",
                        format!("node{n}"),
                        format!("fleet_route named a fenced node: {line}"),
                    ));
                }
            }
        } else if line.contains("\"kind\":\"job_redispatch\"")
            && line.contains("\"outcome\":\"reassigned\"")
        {
            if let Some(n) = field_u64(line, "to") {
                if fenced.contains(&n) {
                    out.push(violation(
                        "fleet-fencing",
                        format!("node{n}"),
                        format!("job_redispatch reassigned onto a fenced node: {line}"),
                    ));
                }
            }
        }
    }
}

/// Scripted degrade/crash/stall run: conservation and exactly-once must
/// hold at every epoch and at the end, re-dispatch must actually move
/// work, fenced nodes must get zero new work (proved from the journal),
/// and a same-seed rerun must be byte-identical.
fn check_resilience(seed: u64, out: &mut Vec<Violation>) {
    let t = failing_trace(seed);
    let mut chosen = None;
    for &(node, epoch) in &CRASH_CANDIDATES {
        let crash = ScriptedFault {
            epoch,
            node: NodeId(node),
            kind: NodeFaultKind::Crash,
        };
        let s = Fleet::builder()
            .config(failing_cluster(seed, crash))
            .build()
            .run(&t, &mut EnergyAware::new());
        if s.redispatch.drained > 0 && s.redispatch.reassigned > 0 {
            chosen = Some((crash, s));
            break;
        }
    }
    let Some((crash, one)) = chosen else {
        out.push(violation(
            "fleet-resilience",
            "re-dispatch".to_string(),
            format!(
                "no scripted crash in {CRASH_CANDIDATES:?} stranded+reassigned live work \
                 for seed {seed:#x} — the drain path went unexercised"
            ),
        ));
        return;
    };

    if one.faults.crashes != 1 || one.faults.stalls != 1 || one.faults.degrades != 1 {
        out.push(violation(
            "fleet-resilience",
            "scripted faults".to_string(),
            format!("expected one fault of each kind, applied {:?}", one.faults),
        ));
    }
    if one.duplicate_completions != 0 || one.lost_jobs != 0 {
        out.push(violation(
            "fleet-exactly-once",
            "scripted faults".to_string(),
            format!(
                "lost={} duplicated={}",
                one.lost_jobs, one.duplicate_completions
            ),
        ));
    }
    if !one.conserves_jobs() {
        out.push(violation(
            "fleet-conservation",
            "scripted faults".to_string(),
            format!(
                "admission={:?} completed={} redispatch={:?}",
                one.admission, one.completed, one.redispatch
            ),
        ));
    }
    for audit in one.failed_audits() {
        out.push(violation(
            "fleet-conservation",
            format!("epoch {}", audit.epoch),
            format!("per-epoch ledger broke: {audit:?}"),
        ));
    }
    check_fencing_journal(one.journal.as_deref().unwrap_or(""), out);

    let rerun = Fleet::builder()
        .config(failing_cluster(seed, crash))
        .build()
        .run(&t, &mut EnergyAware::new());
    if one.fingerprint() != rerun.fingerprint() || one.journal != rerun.journal {
        out.push(violation(
            "fleet-determinism",
            "scripted faults".to_string(),
            "failure run diverged on a same-seed rerun".to_string(),
        ));
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
