//! Fleet fault tolerance under load: the `exp fleet-resilience` artifact.
//!
//! Beyond the paper: the same mixed X-Gene 2/3 cluster as `exp fleet`,
//! but with nodes that fail. Four self-validating pieces:
//!
//! 1. **Rate-0 anchor** — a run with an *armed* all-zero
//!    [`NodeFaultPlan`] must be bit-identical (fingerprint and merged
//!    journal) to a run with no plan at all: arming the resilience
//!    machinery costs nothing when nothing fails.
//! 2. **Degradation curve** — sweeping the node-failure rate, how much
//!    of the daemon cluster's energy savings (vs a default-governor
//!    baseline cluster) survives as crashes/stalls/degrades pile up,
//!    with job conservation and exactly-once delivery asserted at every
//!    point.
//! 3. **Crash drill** — a scripted crash of one node in four: at least
//!    90% of submitted jobs must still complete via health-gated
//!    re-dispatch, with zero lost and zero duplicated jobs.
//! 4. **Determinism under failure** — the crash drill and its same-seed
//!    rerun must produce byte-identical summaries and journals.

use crate::fleet::{cluster_trace, node_configs};
use crate::report::{Cell, Table};
use crate::Scale;
use avfs_core::configs::EvalConfig;
use avfs_fleet::{
    EnergyAware, Fleet, FleetConfig, FleetSummary, NodeFaultKind, NodeFaultPlan, NodeId,
    RoundRobin, ScriptedFault,
};
use avfs_sim::rng::fnv1a_64;

/// Node-fault rates swept by the full artifact (per category, per node,
/// per epoch; the quick window is ~600 epochs, so 0.002 already crashes
/// most of the cluster).
pub const FULL_RATES: [f64; 4] = [0.0, 0.0005, 0.001, 0.002];

/// The trimmed sweep `--smoke` runs: the rate-0 anchor plus one failing
/// point.
pub const SMOKE_RATES: [f64; 2] = [0.0, 0.001];

/// Which epoch the scripted crash drill kills its node.
const DRILL_CRASH_EPOCH: u64 = 6;

/// Everything the artifact measured.
#[derive(Debug, Clone)]
pub struct FleetResilienceResults {
    /// Default-governor cluster (Baseline nodes, round-robin, no
    /// faults): the savings reference.
    pub governor: FleetSummary,
    /// Optimal cluster, energy-aware routing, *no* fault plan — the
    /// pre-resilience code path.
    pub unarmed: FleetSummary,
    /// Same run with an armed all-zero plan; must match `unarmed`
    /// byte for byte.
    pub armed_zero: FleetSummary,
    /// Whether the unarmed and armed-zero journals matched exactly.
    pub zero_journals_match: bool,
    /// The degradation sweep: (rate, summary) per point, rate 0 first.
    pub sweep: Vec<(f64, FleetSummary)>,
    /// The scripted 1-of-4 crash drill.
    pub drill: FleetSummary,
    /// Fingerprints of the crash drill and its same-seed rerun.
    pub determinism: (String, String),
    /// Whether the two drill journals matched exactly.
    pub drill_journals_match: bool,
}

fn config(
    seed: u64,
    eval: EvalConfig,
    telemetry: bool,
    plan: Option<NodeFaultPlan>,
) -> FleetConfig {
    let mut cfg = FleetConfig::new(node_configs(seed, eval));
    cfg.telemetry = telemetry;
    cfg.audit = true;
    cfg.fault_plan = plan;
    cfg
}

/// The scripted drill plan: one X-Gene 3 node (the energy-aware
/// router's busiest target) dies mid-run.
fn drill_plan() -> NodeFaultPlan {
    NodeFaultPlan::scripted(vec![ScriptedFault {
        epoch: DRILL_CRASH_EPOCH,
        node: NodeId(3),
        kind: NodeFaultKind::Crash,
    }])
}

/// Runs the whole artifact.
pub fn evaluate(scale: Scale, seed: u64, rates: &[f64]) -> FleetResilienceResults {
    let trace = cluster_trace(scale, seed);
    let run = |eval: EvalConfig, telemetry: bool, plan: Option<NodeFaultPlan>| {
        Fleet::builder()
            .config(config(seed, eval, telemetry, plan))
            .build()
            .run(&trace, &mut EnergyAware::new())
    };

    let governor = Fleet::builder()
        .config(config(seed, EvalConfig::Baseline, false, None))
        .build()
        .run(&trace, &mut RoundRobin::new());
    let unarmed = run(EvalConfig::Optimal, true, None);
    let armed_zero = run(
        EvalConfig::Optimal,
        true,
        Some(NodeFaultPlan::uniform(seed, 0.0)),
    );
    let zero_journals_match = unarmed.journal == armed_zero.journal;

    let mut sweep = Vec::with_capacity(rates.len());
    for &rate in rates {
        let s = if rate > 0.0 {
            run(
                EvalConfig::Optimal,
                false,
                Some(NodeFaultPlan::uniform(seed, rate)),
            )
        } else {
            armed_zero.clone()
        };
        sweep.push((rate, s));
    }

    let drill = run(EvalConfig::Optimal, true, Some(drill_plan()));
    let rerun = run(EvalConfig::Optimal, true, Some(drill_plan()));
    let determinism = (drill.fingerprint(), rerun.fingerprint());
    let drill_journals_match = drill.journal == rerun.journal;

    FleetResilienceResults {
        governor,
        unarmed,
        armed_zero,
        zero_journals_match,
        sweep,
        drill,
        determinism,
        drill_journals_match,
    }
}

impl FleetResilienceResults {
    /// Acceptance checks; returns the first violated expectation.
    pub fn validate(&self) -> Result<(), String> {
        if self.unarmed.fingerprint() != self.armed_zero.fingerprint() {
            return Err(format!(
                "armed all-zero fault plan changed the run:\n--- unarmed\n{}\n--- armed\n{}",
                self.unarmed.fingerprint(),
                self.armed_zero.fingerprint()
            ));
        }
        if !self.zero_journals_match {
            return Err("armed all-zero fault plan changed the telemetry journal".into());
        }
        for (rate, s) in
            std::iter::once((0.0, &self.drill)).chain(self.sweep.iter().map(|(r, s)| (*r, s)))
        {
            if !s.conserves_jobs() {
                return Err(format!(
                    "rate {rate}: job conservation broke \
                     (admission={:?} completed={} redispatch={:?} lost={} dups={})",
                    s.admission, s.completed, s.redispatch, s.lost_jobs, s.duplicate_completions
                ));
            }
            let failed = s.failed_audits();
            if !failed.is_empty() {
                return Err(format!(
                    "rate {rate}: per-epoch conservation broke at {} boundaries, first: {:?}",
                    failed.len(),
                    failed[0]
                ));
            }
        }
        let d = &self.drill;
        if d.faults.crashes != 1 {
            return Err(format!(
                "crash drill applied {} crashes, expected exactly 1",
                d.faults.crashes
            ));
        }
        if d.redispatch.drained == 0 || d.redispatch.reassigned == 0 {
            return Err(format!(
                "crash drill stranded no work — the drill is vacuous: {:?}",
                d.redispatch
            ));
        }
        let completed = d.completed as f64;
        let submitted = d.admission.submitted as f64;
        if completed < 0.9 * submitted {
            return Err(format!(
                "crash drill completed only {completed}/{submitted} jobs (< 90%)"
            ));
        }
        if self.determinism.0 != self.determinism.1 {
            return Err(format!(
                "crash drill rerun diverged:\n--- first\n{}\n--- rerun\n{}",
                self.determinism.0, self.determinism.1
            ));
        }
        if !self.drill_journals_match {
            return Err("crash drill rerun journals differ".into());
        }
        Ok(())
    }
}

/// The savings-vs-node-failure-rate degradation curve.
pub fn degradation_curve(results: &FleetResilienceResults) -> Table {
    let mut t = Table::new(
        "fleet-resilience-curve",
        "Cluster energy savings vs node-failure rate (energy-aware routing, Optimal daemon per node; savings vs default-governor cluster)",
        &[
            "fault rate (/node/epoch)",
            "crashes",
            "stalls",
            "degrades",
            "submitted",
            "completed",
            "shed",
            "reassigned",
            "exhausted",
            "energy (J)",
            "savings (%)",
            "lost",
            "dup",
        ],
    );
    for (rate, s) in &results.sweep {
        t.push_row(vec![
            Cell::f(*rate, 4),
            Cell::from(s.faults.crashes),
            Cell::from(s.faults.stalls),
            Cell::from(s.faults.degrades),
            Cell::from(s.admission.submitted),
            Cell::from(s.completed),
            Cell::from(s.admission.shed()),
            Cell::from(s.redispatch.reassigned),
            Cell::from(s.redispatch.exhausted),
            Cell::f(s.cluster_energy_j, 1),
            Cell::f(s.energy_savings_vs(&results.governor), 2),
            Cell::from(s.lost_jobs),
            Cell::from(s.duplicate_completions),
        ]);
    }
    t
}

/// The crash drill, node by node: who died, who was fenced, where the
/// stranded work went.
pub fn drill_table(results: &FleetResilienceResults) -> Table {
    let mut t = Table::new(
        "fleet-resilience-drill",
        "Scripted 1-of-4 node crash: health states and exactly-once re-dispatch",
        &[
            "node",
            "kind",
            "health",
            "dead",
            "fenced epochs",
            "admitted",
            "completed",
            "drained",
        ],
    );
    for n in &results.drill.nodes {
        t.push_row(vec![
            Cell::from(n.id.to_string()),
            Cell::from(n.kind.to_string()),
            Cell::from(n.health.as_str()),
            Cell::from(u64::from(n.dead)),
            Cell::from(n.fenced_epochs),
            Cell::from(n.admitted),
            Cell::from(n.completed),
            Cell::from(n.drained_jobs),
        ]);
    }
    let d = &results.drill;
    t.push_row(vec![
        Cell::from("cluster"),
        Cell::from(format!(
            "gate rejections={} max generation={}",
            d.routed_to_fenced, d.redispatch.max_generation
        )),
        Cell::from(""),
        Cell::from(d.faults.crashes),
        Cell::from(""),
        Cell::from(d.admission.admitted),
        Cell::from(d.completed),
        Cell::from(d.redispatch.drained),
    ]);
    t
}

/// The two bit-identity gates as a table: unarmed vs armed-zero, and
/// the crash drill vs its same-seed rerun.
pub fn identity_table(results: &FleetResilienceResults) -> Table {
    let mut t = Table::new(
        "fleet-resilience-identity",
        "Bit-identity gates (equal digests = byte-identical runs)",
        &["comparison", "left digest", "right digest", "journals"],
    );
    let digest = |s: &str| format!("{:016x}", fnv1a_64(s.as_bytes()));
    t.push_row(vec![
        Cell::from("no plan vs armed zero-rate plan"),
        Cell::from(digest(&results.unarmed.fingerprint())),
        Cell::from(digest(&results.armed_zero.fingerprint())),
        Cell::from(if results.zero_journals_match {
            "byte-identical"
        } else {
            "DIVERGED"
        }),
    ]);
    t.push_row(vec![
        Cell::from("crash drill vs same-seed rerun"),
        Cell::from(digest(&results.determinism.0)),
        Cell::from(digest(&results.determinism.1)),
        Cell::from(if results.drill_journals_match {
            "byte-identical"
        } else {
            "DIVERGED"
        }),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_resilience_validates() {
        let results = evaluate(Scale::Quick, 2024, &SMOKE_RATES);
        results
            .validate()
            .unwrap_or_else(|e| panic!("fleet-resilience acceptance failed: {e}"));
        // The curve is the headline: at rate 0 the cluster must still
        // beat the governor baseline on energy.
        assert!(
            results.sweep[0].1.energy_savings_vs(&results.governor) > 0.0,
            "no savings at rate 0"
        );
    }
}
