//! Fleet fault tolerance: conservation and exactly-once delivery under
//! seeded node failures, bit-identical same-seed reruns with failures
//! active, scripted crash/stall recovery paths, the
//! health-gated circuit breaker, and shed accounting (journal vs
//! summary).

use avfs_fleet::{
    EnergyAware, Fleet, FleetConfig, FleetError, FleetSummary, HealthGated, JobView, LeastQueued,
    NodeConfig, NodeFaultKind, NodeFaultPlan, NodeId, NodeKind, NodeView, RoundRobin,
    RoutingPolicy, ScriptedFault,
};
use avfs_sim::time::SimDuration;
use avfs_workloads::{GeneratorConfig, WorkloadTrace};
use proptest::prelude::*;

fn cluster() -> FleetConfig {
    let nodes = vec![
        NodeConfig::new(NodeKind::XGene2, 101),
        NodeConfig::new(NodeKind::XGene2, 102),
        NodeConfig::new(NodeKind::XGene3, 103),
        NodeConfig::new(NodeKind::XGene3, 104),
    ];
    let mut cfg = FleetConfig::new(nodes);
    cfg.telemetry = true;
    cfg
}

fn trace(seed: u64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(32, seed);
    cfg.duration = SimDuration::from_secs(90);
    cfg.job_scale = 0.15;
    WorkloadTrace::generate(&cfg)
}

fn crash(epoch: u64, node: u16) -> ScriptedFault {
    ScriptedFault {
        epoch,
        node: NodeId(node),
        kind: NodeFaultKind::Crash,
    }
}

proptest! {
    /// Under any sampled fault schedule, every epoch's conservation
    /// ledger holds (admitted = completed + live + queued + exhausted)
    /// and the final summary proves exactly-once delivery: nothing lost,
    /// nothing double-completed.
    #[test]
    fn conservation_holds_under_any_fault_plan(
        seed in 0u64..500,
        rate_mil in 0u64..30,
        which in 0u8..3,
    ) {
        let rate = rate_mil as f64 / 1_000.0;
        let mut cfg = cluster();
        cfg.telemetry = false;
        cfg.audit = true;
        cfg.fault_plan = Some(NodeFaultPlan::uniform(seed, rate));
        let mut rr = RoundRobin::new();
        let mut lq = LeastQueued::new();
        let mut ea = EnergyAware::new();
        let policy: &mut dyn RoutingPolicy = match which {
            0 => &mut rr,
            1 => &mut lq,
            _ => &mut ea,
        };
        let summary = Fleet::builder().config(cfg).build().run(&trace(seed), policy);
        prop_assert!(summary.admission.submitted > 0);
        prop_assert!(!summary.audits.is_empty(), "audit mode recorded nothing");
        let failed = summary.failed_audits();
        prop_assert!(
            failed.is_empty(),
            "per-epoch conservation broke: {:?}",
            failed
        );
        prop_assert_eq!(summary.duplicate_completions, 0, "a JobId completed twice");
        prop_assert_eq!(summary.lost_jobs, 0, "a JobId vanished");
        prop_assert!(
            summary.conserves_jobs(),
            "summary conservation broke: admission={:?} completed={} redispatch={:?}",
            summary.admission,
            summary.completed,
            summary.redispatch
        );
    }
}

/// With failures active, a same-seed rerun is still byte-identical:
/// same fingerprint, same merged journal, same per-epoch audits.
#[test]
fn failures_do_not_break_determinism() {
    let run = || -> FleetSummary {
        let mut cfg = cluster();
        cfg.audit = true;
        let mut plan = NodeFaultPlan::uniform(23, 0.01);
        plan.push(crash(4, 1));
        cfg.fault_plan = Some(plan);
        Fleet::builder()
            .config(cfg)
            .build()
            .run(&trace(23), &mut EnergyAware::new())
    };
    let first = run();
    assert!(
        first.faults.total() > 0,
        "fault schedule fired nothing — test is vacuous"
    );
    let rerun = run();
    assert_eq!(first.fingerprint(), rerun.fingerprint(), "summary diverged");
    assert_eq!(first.journal, rerun.journal, "journal diverged");
    assert_eq!(first.audits, rerun.audits);
}

/// One crashed node out of four: its stranded jobs drain and re-dispatch
/// to survivors, at least 90% of all submitted jobs still complete, and
/// exactly-once holds throughout.
#[test]
fn crashed_node_jobs_redispatch_to_survivors() {
    let mut cfg = cluster();
    cfg.fault_plan = Some(NodeFaultPlan::scripted(vec![crash(5, 1)]));
    let summary = Fleet::builder()
        .config(cfg)
        .build()
        .run(&trace(7), &mut EnergyAware::new());

    assert_eq!(summary.faults.crashes, 1);
    let dead = &summary.nodes[1];
    assert!(dead.dead, "scripted crash did not kill node1");
    assert_eq!(dead.health.as_str(), "fenced");
    assert!(dead.fenced_epochs > 0);
    assert!(
        summary.redispatch.drained > 0 && summary.redispatch.reassigned > 0,
        "crash stranded no work: {:?}",
        summary.redispatch
    );
    assert!(summary.redispatch.max_generation >= 1);
    assert_eq!(summary.duplicate_completions, 0);
    assert_eq!(summary.lost_jobs, 0);
    assert!(summary.conserves_jobs());

    // The ≥90% completion bar from the acceptance criteria.
    let completed = summary.completed as f64;
    let submitted = summary.admission.submitted as f64;
    assert!(
        completed >= 0.9 * submitted,
        "only {completed}/{submitted} jobs completed after the crash"
    );

    // The journal narrates the drain: fence first, then per-job drained
    // and reassigned hops.
    let journal = summary.journal.as_deref().unwrap_or("");
    assert!(journal.contains("\"kind\":\"node_fenced\""));
    assert!(journal.contains("\"outcome\":\"drained\""));
    assert!(journal.contains("\"outcome\":\"reassigned\""));
}

/// A stalled node walks Suspect → Fenced → Probation → Healthy once it
/// returns, its parked jobs complete after the catch-up step, and
/// nothing is drained off it (stall is a partition, not a crash).
#[test]
fn stalled_node_recovers_through_probation() {
    let mut cfg = cluster();
    cfg.fault_plan = Some(NodeFaultPlan::scripted(vec![ScriptedFault {
        epoch: 3,
        node: NodeId(2),
        kind: NodeFaultKind::Stall { epochs: 6 },
    }]));
    let summary = Fleet::builder()
        .config(cfg)
        .build()
        .run(&trace(7), &mut EnergyAware::new());

    assert_eq!(summary.faults.stalls, 1);
    let stalled = &summary.nodes[2];
    assert!(!stalled.dead);
    assert!(
        stalled.fenced_epochs > 0,
        "a 6-epoch stall must outlast fence_after=4"
    );
    assert_eq!(
        stalled.health.as_str(),
        "healthy",
        "node did not recover after the stall window"
    );
    assert_eq!(stalled.drained_jobs, 0, "stall must not drain jobs");
    assert_eq!(summary.redispatch.drained, 0);
    assert_eq!(summary.duplicate_completions, 0);
    assert_eq!(summary.lost_jobs, 0);
    assert!(summary.conserves_jobs());
    let journal = summary.journal.as_deref().unwrap_or("");
    assert!(journal.contains("\"kind\":\"node_fenced\""));
    assert!(journal.contains("\"kind\":\"node_recovered\""));
}

/// A policy that always names one pinned node, health be damned.
struct Pinned(NodeId);

impl RoutingPolicy for Pinned {
    fn name(&self) -> &'static str {
        "pinned"
    }

    fn route(&mut self, _job: &JobView, nodes: &[NodeView]) -> Option<NodeId> {
        // When the pin is excluded/fenced out of the view set, fall back
        // to the first open node so the fleet still makes progress.
        if nodes.iter().any(|n| n.id == self.0) {
            Some(self.0)
        } else {
            nodes.iter().find(|n| n.has_space()).map(|n| n.id)
        }
    }
}

/// The circuit breaker surfaces a typed error when a policy names a
/// fenced node, and the engine's re-pick keeps fenced nodes at zero new
/// work without shedding the rejected jobs.
#[test]
fn health_gate_rejects_fenced_choices_with_typed_error() {
    // Unit-level: an empty view set routes to None without a rejection.
    let mut gate = HealthGated::new(Pinned(NodeId(0)));
    let job = JobView::of(
        avfs_fleet::JobId(0),
        avfs_workloads::Benchmark::SpecNamd,
        1,
        1.0,
    );
    assert_eq!(gate.try_route(&job, &[]), Ok(None));
    assert_eq!(gate.rejections(), 0);

    // Engine-level: crash the pinned node; once fenced, every further
    // pinned choice is rejected (typed, counted) and re-picked, so the
    // fenced node gets zero new work and jobs keep completing elsewhere.
    let mut cfg = cluster();
    cfg.fault_plan = Some(NodeFaultPlan::scripted(vec![crash(3, 0)]));
    let summary = Fleet::builder()
        .config(cfg)
        .build()
        .run(&trace(7), &mut Pinned(NodeId(0)));
    assert!(
        summary.routed_to_fenced > 0,
        "pinned policy never hit the gate: {:?}",
        summary.admission
    );
    let dead = &summary.nodes[0];
    // No admissions after the fence: admitted on node0 == jobs placed
    // before the crash was detected; everything after went elsewhere.
    assert!(dead.dead);
    assert_eq!(summary.duplicate_completions, 0);
    assert_eq!(summary.lost_jobs, 0);
    assert!(summary.conserves_jobs());
    assert!(
        summary.completed + summary.redispatch.exhausted == summary.admission.admitted,
        "re-pick path lost work"
    );
}

/// The Display/Error impls on the typed rejection are stable.
#[test]
fn fleet_error_formats_stably() {
    let err = FleetError::RoutedToFencedNode {
        node: NodeId(3),
        job: avfs_fleet::JobId(12),
    };
    assert_eq!(err.to_string(), "policy routed job12 to fenced node3");
    let as_std: &dyn std::error::Error = &err;
    assert!(as_std.source().is_none());
}

/// Satellite: the journal and the summary must agree about shedding —
/// every shed increments a counter AND emits a FleetShed trace, so the
/// two counts are equal by construction.
#[test]
fn shed_counter_and_journal_agree() {
    let mut nodes = vec![
        NodeConfig::new(NodeKind::XGene2, 11),
        NodeConfig::new(NodeKind::XGene2, 12),
    ];
    for n in &mut nodes {
        n.admit_capacity = 1; // force heavy shedding
    }
    let mut cfg = FleetConfig::new(nodes);
    cfg.telemetry = true;
    let mut dense = GeneratorConfig::paper_default(32, 5);
    dense.duration = SimDuration::from_secs(30);
    dense.job_scale = 0.6;
    let summary = Fleet::builder()
        .config(cfg)
        .build()
        .run(&WorkloadTrace::generate(&dense), &mut RoundRobin::new());
    let shed = summary.admission.shed();
    assert!(shed > 0, "capacity-1 cluster did not shed");
    let journal = summary.journal.as_deref().unwrap_or("");
    let traced = journal
        .lines()
        .filter(|l| l.contains("\"kind\":\"fleet_shed\""))
        .count() as u64;
    assert_eq!(
        traced, shed,
        "journal saw {traced} sheds, summary counted {shed}"
    );
}
