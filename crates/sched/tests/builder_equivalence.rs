//! The builder is the blessed construction path; with no options set it
//! must build exactly the system `System::new` builds (same seed in,
//! identical `RunMetrics::fingerprint` out).

use avfs_chip::presets;
use avfs_sched::driver::DefaultPolicy;
use avfs_sched::system::{System, SystemConfig};
use avfs_sim::time::SimDuration;
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};
use avfs_workloads::PerfModel;

fn trace(seed: u64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(8, seed);
    cfg.duration = SimDuration::from_secs(180);
    cfg.job_scale = 0.2;
    WorkloadTrace::generate(&cfg)
}

#[test]
fn builder_defaults_match_plain_new() {
    let seed = 11;
    let telemetry_less = System::builder(presets::xgene3().build(), PerfModel::xgene3()).build();
    let mut plain = System::new(
        presets::xgene3().build(),
        PerfModel::xgene3(),
        SystemConfig::default(),
    );
    let mut built = telemetry_less;
    let m_new = built.run(&trace(seed), &mut DefaultPolicy::ondemand());
    let m_old = plain.run(&trace(seed), &mut DefaultPolicy::ondemand());
    assert_eq!(m_new.fingerprint(), m_old.fingerprint());
}
