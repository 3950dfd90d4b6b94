//! Cluster-level evaluation: the `exp fleet` artifact.
//!
//! Beyond the paper: a ≥4-node mixed X-Gene 2/3 cluster replays one
//! generated server workload through the avfs-fleet front door under
//! each built-in routing policy, with every node running the paper's
//! Optimal daemon, and compares cluster energy/makespan against a
//! default-governor baseline cluster (Baseline nodes, round-robin
//! routing). The energy-aware run executes twice with the same seed and
//! the experiment checks the two runs are byte-identical, turning the
//! fleet determinism contract into a release gate.

use crate::report::{Cell, Table};
use crate::Scale;
use avfs_core::configs::EvalConfig;
use avfs_fleet::{
    EnergyAware, Fleet, FleetConfig, FleetSummary, LeastQueued, NodeConfig, NodeKind, RoundRobin,
    RoutingPolicy,
};
use avfs_sim::rng::fnv1a_64;
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};

/// Total cores across the default cluster (2×8 + 2×32).
const CLUSTER_CORES: usize = 80;

/// The default cluster: two X-Gene 2 and two X-Gene 3 nodes, seeds
/// derived per node so their stochastic models are independent.
pub fn node_configs(seed: u64, eval: EvalConfig) -> Vec<NodeConfig> {
    [
        NodeKind::XGene2,
        NodeKind::XGene2,
        NodeKind::XGene3,
        NodeKind::XGene3,
    ]
    .iter()
    .enumerate()
    .map(|(i, &kind)| {
        let node_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64);
        let mut nc = NodeConfig::new(kind, node_seed);
        nc.eval = eval;
        nc
    })
    .collect()
}

fn fleet_config(seed: u64, eval: EvalConfig, telemetry: bool) -> FleetConfig {
    let mut cfg = FleetConfig::new(node_configs(seed, eval));
    cfg.telemetry = telemetry;
    cfg
}

/// One server workload sized for the whole cluster's core count; the
/// same trace replays under every policy, which is what makes the rows
/// comparable.
pub fn cluster_trace(scale: Scale, seed: u64) -> WorkloadTrace {
    let mut gen = GeneratorConfig::paper_default(CLUSTER_CORES, seed);
    gen.duration = scale.server_window();
    if scale == Scale::Quick {
        gen.job_scale = 0.25;
    }
    WorkloadTrace::generate(&gen)
}

/// Results of the cluster evaluation.
#[derive(Debug, Clone)]
pub struct FleetEvalResults {
    /// Baseline cluster: Baseline nodes, round-robin routing.
    pub baseline: FleetSummary,
    /// Optimal-daemon cluster under each policy: round-robin,
    /// least-queued, energy-aware (this order).
    pub runs: Vec<FleetSummary>,
    /// Fingerprints of the energy-aware run and its same-seed rerun.
    pub determinism: (String, String),
    /// Whether the two energy-aware journals matched byte for byte.
    pub journals_match: bool,
}

impl FleetEvalResults {
    /// The summary for a policy by name.
    pub fn policy(&self, name: &str) -> Option<&FleetSummary> {
        self.runs.iter().find(|s| s.policy == name)
    }

    /// The energy-aware run (byte-identical to its rerun by
    /// [`validate`]).
    pub fn energy_aware(&self) -> &FleetSummary {
        &self.runs[2]
    }
}

/// Runs the full cluster evaluation: baseline cluster, the three
/// policies over Optimal-daemon nodes, and the same-seed rerun of the
/// energy-aware run.
pub fn evaluate(scale: Scale, seed: u64) -> FleetEvalResults {
    let trace = cluster_trace(scale, seed);
    let run = |eval: EvalConfig, telemetry: bool, p: &mut dyn RoutingPolicy| {
        Fleet::builder()
            .config(fleet_config(seed, eval, telemetry))
            .build()
            .run(&trace, p)
    };

    let baseline = run(EvalConfig::Baseline, false, &mut RoundRobin::new());
    let rr = run(EvalConfig::Optimal, false, &mut RoundRobin::new());
    let lq = run(EvalConfig::Optimal, false, &mut LeastQueued::new());
    let ea = run(EvalConfig::Optimal, true, &mut EnergyAware::new());
    let rerun = run(EvalConfig::Optimal, true, &mut EnergyAware::new());

    let determinism = (ea.fingerprint(), rerun.fingerprint());
    let journals_match = ea.journal == rerun.journal;
    FleetEvalResults {
        baseline,
        runs: vec![rr, lq, ea],
        determinism,
        journals_match,
    }
}

/// Acceptance checks for the `fleet` artifact. Returns the first
/// violated expectation.
pub fn validate(results: &FleetEvalResults) -> Result<(), String> {
    let all = std::iter::once(&results.baseline).chain(results.runs.iter());
    for s in all {
        if !s.conserves_jobs() {
            return Err(format!(
                "{}: job conservation broke ({:?}, completed={})",
                s.policy, s.admission, s.completed
            ));
        }
        if s.failures != 0 || s.unsafe_time_s > 0.0 {
            return Err(format!(
                "{}: unsafe operation (failures={}, unsafe_time={}s)",
                s.policy, s.failures, s.unsafe_time_s
            ));
        }
    }
    let rr = &results.runs[0];
    let ea = results.energy_aware();
    if ea.cluster_energy_j >= rr.cluster_energy_j {
        return Err(format!(
            "energy-aware did not beat round-robin on cluster energy \
             ({:.1} J vs {:.1} J)",
            ea.cluster_energy_j, rr.cluster_energy_j
        ));
    }
    let penalty = ea.time_penalty_vs(rr);
    if penalty > 8.0 {
        return Err(format!(
            "energy-aware perf cost vs round-robin exceeds the paper-scale \
             bound: {penalty:.2}% > 8%"
        ));
    }
    if results.determinism.0 != results.determinism.1 {
        return Err(format!(
            "same-seed rerun diverged:\n--- first\n{}\n--- rerun\n{}",
            results.determinism.0, results.determinism.1
        ));
    }
    if !results.journals_match {
        return Err("same-seed rerun diverged: journals differ".into());
    }
    Ok(())
}

/// The per-policy comparison table (savings vs the baseline cluster).
pub fn policy_table(results: &FleetEvalResults) -> Table {
    let mut t = Table::new(
        "fleet-policies",
        "Cluster energy/performance by routing policy (2x X-Gene 2 + 2x X-Gene 3, Optimal daemon per node; baseline = default governors, round-robin)",
        &[
            "policy",
            "energy (J)",
            "makespan (s)",
            "energy savings (%)",
            "time penalty (%)",
            "completed",
            "shed",
            "migrations",
            "volt changes",
            "safe-mode entries",
        ],
    );
    let row = |s: &FleetSummary, label: &str| -> Vec<Cell> {
        vec![
            Cell::from(label.to_string()),
            Cell::f(s.cluster_energy_j, 1),
            Cell::f(s.cluster_makespan.as_secs_f64(), 1),
            Cell::f(s.energy_savings_vs(&results.baseline), 2),
            Cell::f(s.time_penalty_vs(&results.baseline), 2),
            Cell::from(s.completed),
            Cell::from(s.admission.shed()),
            Cell::from(s.migrations),
            Cell::from(s.voltage_changes),
            Cell::from(s.daemon.safe_mode_entries),
        ]
    };
    t.push_row(row(&results.baseline, "baseline (ondemand)"));
    for s in &results.runs {
        t.push_row(row(s, s.policy));
    }
    t
}

/// Per-node split of the energy-aware run: where the router actually
/// sent CPU- vs memory-intensive work.
pub fn node_table(results: &FleetEvalResults) -> Table {
    let mut t = Table::new(
        "fleet-nodes",
        "Energy-aware routing: per-node placement and energy",
        &[
            "node",
            "kind",
            "cores",
            "admitted",
            "cpu jobs",
            "mem jobs",
            "energy (J)",
            "makespan (s)",
            "volt changes",
        ],
    );
    for n in &results.energy_aware().nodes {
        t.push_row(vec![
            Cell::from(n.id.to_string()),
            Cell::from(n.kind.to_string()),
            Cell::from(n.cores),
            Cell::from(n.admitted),
            Cell::from(n.cpu_jobs),
            Cell::from(n.mem_jobs),
            Cell::f(n.metrics.energy_j, 1),
            Cell::f(n.metrics.makespan.as_secs_f64(), 1),
            Cell::from(n.metrics.voltage_changes),
        ]);
    }
    t
}

/// The determinism gate as a table: FNV-1a digests of the energy-aware
/// run and its same-seed rerun (equal rows = byte-identical runs).
pub fn determinism_table(results: &FleetEvalResults) -> Table {
    let mut t = Table::new(
        "fleet-determinism",
        "Same-seed rerun determinism (energy-aware run)",
        &["run", "summary digest", "journal"],
    );
    let digest = |s: &str| format!("{:016x}", fnv1a_64(s.as_bytes()));
    let journal_note = if results.journals_match {
        "byte-identical"
    } else {
        "DIVERGED"
    };
    t.push_row(vec![
        Cell::from("first"),
        Cell::from(digest(&results.determinism.0)),
        Cell::from(journal_note),
    ]);
    t.push_row(vec![
        Cell::from("rerun"),
        Cell::from(digest(&results.determinism.1)),
        Cell::from(journal_note),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fleet_eval_validates() {
        let results = evaluate(Scale::Quick, 2024);
        validate(&results).unwrap_or_else(|e| panic!("fleet validation failed: {e}"));
        // The baseline comparison is the headline: the daemon cluster
        // must save energy against default governors under every policy.
        for s in &results.runs {
            assert!(
                s.energy_savings_vs(&results.baseline) > 0.0,
                "{}: no savings vs baseline cluster",
                s.policy
            );
        }
    }
}
