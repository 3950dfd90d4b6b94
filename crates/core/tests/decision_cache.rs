//! The replan decision cache is *transparent*: a run with the cache
//! enabled (the default) is byte-identical — journal, counters, and
//! run metrics down to float bits — to the same run with every lookup
//! forced down the full planning path.

use avfs_chip::presets;
use avfs_core::daemon::{Daemon, DaemonStats, DECISION_CACHE_CAP};
use avfs_sched::system::{System, SystemConfig};
use avfs_sched::RunMetrics;
use avfs_sim::time::SimDuration;
use avfs_telemetry::Telemetry;
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};
use avfs_workloads::PerfModel;
use proptest::prelude::*;

/// Which chip preset a case runs on.
#[derive(Debug, Clone, Copy)]
enum Preset {
    XGene2,
    XGene3,
}

/// One traced Optimal run; returns the journal, the daemon counters,
/// the run metrics, and the cache's `(hits, misses)`.
fn traced_run(
    preset: Preset,
    seed: u64,
    secs: u64,
    cache: bool,
) -> (String, DaemonStats, RunMetrics, (u64, u64)) {
    let telemetry = Telemetry::hub();
    let mut cfg = GeneratorConfig::paper_default(8, seed);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.job_scale = 0.2;
    let trace = WorkloadTrace::generate(&cfg);
    let (chip, perf) = match preset {
        Preset::XGene2 => (presets::xgene2().build(), PerfModel::xgene2()),
        Preset::XGene3 => (presets::xgene3().build(), PerfModel::xgene3()),
    };
    let mut daemon = Daemon::optimal(&chip);
    daemon.set_decision_cache(cache);
    daemon.set_telemetry(telemetry.clone());
    let mut system = System::builder(chip, perf)
        .config(SystemConfig::default())
        .observer(telemetry.clone())
        .build();
    let metrics = system.run(&trace, &mut daemon);
    let jsonl = telemetry.export_jsonl().expect("hub journal");
    let stats = daemon.stats();
    (jsonl, stats, metrics, daemon.decision_cache_stats())
}

/// Bit-exact metric comparison (floats via `to_bits`).
fn assert_metrics_identical(a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    assert_eq!(a.avg_power_w.to_bits(), b.avg_power_w.to_bits());
    assert_eq!(a.unsafe_time_s.to_bits(), b.unsafe_time_s.to_bits());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.voltage_changes, b.voltage_changes);
    assert_eq!(a.failures, b.failures);
}

#[test]
fn cache_is_transparent_on_both_presets() {
    for preset in [Preset::XGene2, Preset::XGene3] {
        let (j_on, s_on, m_on, (hits, misses)) = traced_run(preset, 42, 300, true);
        let (j_off, s_off, m_off, off_stats) = traced_run(preset, 42, 300, false);
        assert_eq!(j_on, j_off, "{preset:?}: journal diverged under caching");
        assert_eq!(s_on, s_off, "{preset:?}: counters diverged under caching");
        assert_metrics_identical(&m_on, &m_off);
        assert!(
            hits > 0,
            "{preset:?}: cache never hit (hits={hits} misses={misses})"
        );
        // More misses than entries: the cache filled, and later misses
        // refilled evicted entries' buffers under the byte-identity
        // checks above.
        assert!(
            misses > DECISION_CACHE_CAP as u64,
            "{preset:?}: {misses} misses never filled the {DECISION_CACHE_CAP}-entry cache"
        );
        assert_eq!(off_stats, (0, 0), "disabled cache must not count");
    }
}

proptest! {
    /// Across arbitrary seeds, the cached run's observable output is
    /// byte-identical to the forced-miss run's.
    #[test]
    fn cache_never_changes_observable_output(seed in 0u64..10_000) {
        let (j_on, s_on, m_on, _) = traced_run(Preset::XGene2, seed, 90, true);
        let (j_off, s_off, m_off, _) = traced_run(Preset::XGene2, seed, 90, false);
        prop_assert_eq!(j_on, j_off);
        prop_assert_eq!(s_on, s_off);
        prop_assert_eq!(m_on.energy_j.to_bits(), m_off.energy_j.to_bits());
        prop_assert_eq!(m_on.makespan, m_off.makespan);
        prop_assert_eq!(m_on.migrations, m_off.migrations);
        prop_assert_eq!(m_on.voltage_changes, m_off.voltage_changes);
    }
}
