//! Fleet determinism: same seed ⇒ byte-identical `FleetSummary`
//! fingerprint and telemetry journal under every built-in routing
//! policy, pinned to golden digests so a refactor cannot move a bit.

use avfs_fleet::{
    EnergyAware, Fleet, FleetConfig, FleetSummary, LeastQueued, NodeConfig, NodeKind, RoundRobin,
    RoutingPolicy,
};
use avfs_sim::rng::fnv1a_64;
use avfs_sim::time::SimDuration;
use avfs_workloads::{GeneratorConfig, WorkloadTrace};

fn small_cluster() -> FleetConfig {
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

fn small_trace(seed: u64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(32, seed);
    cfg.duration = SimDuration::from_secs(90);
    cfg.job_scale = 0.15;
    WorkloadTrace::generate(&cfg)
}

/// Fresh policy per run: routing state (e.g. the round-robin cursor)
/// belongs to one run.
fn policy(which: &str) -> Box<dyn RoutingPolicy> {
    match which {
        "rr" => Box::new(RoundRobin::new()),
        "lq" => Box::new(LeastQueued::new()),
        _ => Box::new(EnergyAware::new()),
    }
}

fn run_with(policy: &mut dyn RoutingPolicy) -> FleetSummary {
    let fleet = Fleet::builder().config(small_cluster()).build();
    fleet.run(&small_trace(7), policy)
}

/// Absolute results of the small cluster, pinned per policy as two
/// digests: 64-bit FNV-1a over the merged journal and over the summary
/// fingerprint. Both were re-pinned when the simulator's run integrals
/// were anchored at change points (results moved once, by rounding and
/// by the monitor grid restarting with the first arrival after an idle
/// gap) and inert monitor ticks stopped reaching the journal. A change
/// that is meant to move results must update them and say why.
#[test]
fn golden_results_are_pinned() {
    for (label, want_journal, want_fingerprint) in [
        ("rr", 0xd94a_d636_b1eb_b30au64, 0x19fc_1c01_fce2_ea3bu64),
        ("lq", 0xe825_dd9f_2918_1dcb, 0x7a34_0092_4606_7786),
        ("ea", 0xd5f9_ccf5_fc09_eedf, 0x95d4_fb08_afcc_e55b),
    ] {
        let s = run_with(policy(label).as_mut());
        assert!(s.admission.submitted > 0, "{label}: empty trace");
        assert!(s.completed > 0, "{label}: nothing completed");
        let journal = fnv1a_64(s.journal.as_deref().unwrap_or("").as_bytes());
        assert_eq!(
            journal, want_journal,
            "{label}: journal moved (digest {journal:#018x})"
        );
        let fingerprint = fnv1a_64(s.fingerprint().as_bytes());
        assert_eq!(
            fingerprint, want_fingerprint,
            "{label}: summary moved (digest {fingerprint:#018x})"
        );
    }
}

/// The builder's per-knob setters and a prepared configuration build
/// the same fleet.
#[test]
fn piecewise_builder_matches_wholesale_config() {
    let wholesale = run_with(&mut EnergyAware::new());
    let piecewise = Fleet::builder()
        .node(NodeConfig::new(NodeKind::XGene2, 101))
        .node(NodeConfig::new(NodeKind::XGene2, 102))
        .node(NodeConfig::new(NodeKind::XGene3, 103))
        .node(NodeConfig::new(NodeKind::XGene3, 104))
        .telemetry(true)
        .build()
        .run(&small_trace(7), &mut EnergyAware::new());
    assert_eq!(piecewise.fingerprint(), wholesale.fingerprint());
    assert_eq!(piecewise.journal, wholesale.journal);
}

#[test]
fn journal_is_present_and_tagged() {
    let summary = run_with(&mut EnergyAware::new());
    let journal = summary.journal.as_deref().unwrap_or("");
    assert!(!journal.is_empty());
    assert!(
        journal.contains("\"kind\":\"fleet_route\""),
        "no routing events in journal"
    );
    // Node-tagged lines from every node, in id order after the
    // coordinator block.
    for id in 0..4 {
        assert!(
            journal.contains(&format!("\"node\":{id}")),
            "node {id} missing from merged journal"
        );
    }
}

#[test]
fn identical_seeds_identical_runs() {
    let a = run_with(&mut EnergyAware::new());
    let b = run_with(&mut EnergyAware::new());
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.journal, b.journal);
    assert!(a.conserves_jobs());
}

#[test]
fn policies_differ_in_placement() {
    // Sanity that the policies are not all aliases of each other: the
    // energy-aware router must produce a different per-node admission
    // split than round-robin on a heterogeneous cluster.
    let rr = run_with(&mut RoundRobin::new());
    let ea = run_with(&mut EnergyAware::new());
    let split = |s: &FleetSummary| -> Vec<u64> { s.nodes.iter().map(|n| n.admitted).collect() };
    assert_ne!(split(&rr), split(&ea), "policies placed jobs identically");
}
