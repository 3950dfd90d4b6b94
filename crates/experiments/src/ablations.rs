//! Beyond-paper ablations of the design choices DESIGN.md calls out.
//!
//! * [`fail_safe_ablation`] — what happens if the daemon applies voltage
//!   *after* placement instead of the paper's raise-before ordering:
//!   unsafe transition windows appear (and failures, when injection is
//!   enabled).
//! * [`guardband_sweep`] — how the Optimal savings scale with the width
//!   of the factory guardband.
//! * [`threshold_sweep`] — sensitivity of the Optimal savings to the
//!   CPU/memory classification threshold around the paper's 3000
//!   L3C/1M-cycles.
//! * [`migration_cost_sweep`] — robustness of the placement policy to
//!   the cost of a process migration.
//! * [`cross_specimen`] — one characterized policy table deployed on
//!   other chip specimens (static-variation re-draws): quantifies why
//!   the paper characterizes each server individually.

use crate::report::{Cell, Table};
use crate::{Machine, Scale};
use avfs_core::daemon::Daemon;
use avfs_sched::metrics::RunMetrics;
use avfs_sched::system::{System, SystemConfig};
use avfs_sim::time::SimDuration;
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};

fn quick_trace(machine: Machine, scale: Scale, seed: u64) -> WorkloadTrace {
    let cores = machine.chip_builder().spec().cores as usize;
    let mut gen = GeneratorConfig::paper_default(cores, seed);
    gen.duration = scale.server_window();
    gen.job_scale = match scale {
        Scale::Quick => 0.25,
        Scale::Paper => 1.0,
    };
    WorkloadTrace::generate(&gen)
}

fn run_with(
    machine: Machine,
    trace: &WorkloadTrace,
    mut daemon: Daemon,
    config: SystemConfig,
) -> RunMetrics {
    let chip = machine.chip_builder().build();
    let mut system = System::new(chip, machine.perf_model(), config);
    system.run(trace, &mut daemon)
}

/// Fail-safe-ordering ablation: optimal daemon with and without the
/// raise-before-reconfigure rule, with failure injection enabled.
pub fn fail_safe_ablation(machine: Machine, scale: Scale, seed: u64) -> Table {
    let trace = quick_trace(machine, scale, seed);
    let chip = machine.chip_builder().build();
    let sys_config = SystemConfig {
        inject_failures: true,
        ..SystemConfig::default()
    };

    let safe = run_with(machine, &trace, Daemon::optimal(&chip), sys_config.clone());
    let mut unsafe_daemon = Daemon::optimal(&chip);
    unsafe_daemon.set_fail_safe_ordering(false);
    let unsafe_run = run_with(machine, &trace, unsafe_daemon, sys_config);

    let mut t = Table::new(
        &format!(
            "ablation-failsafe-{}",
            machine.name().to_lowercase().replace(' ', "")
        ),
        &format!("Ablation — fail-safe voltage ordering, {machine}"),
        &["variant", "energy (J)", "unsafe time (s)", "failures"],
    );
    t.push_row(vec![
        "raise-before (paper)".into(),
        Cell::f(safe.energy_j, 1),
        Cell::f(safe.unsafe_time_s, 3),
        Cell::Int(safe.failures as i64),
    ]);
    t.push_row(vec![
        "voltage-last (ablated)".into(),
        Cell::f(unsafe_run.energy_j, 1),
        Cell::f(unsafe_run.unsafe_time_s, 3),
        Cell::Int(unsafe_run.failures as i64),
    ]);
    t
}

/// Guardband-width sweep: shift every Vmin table entry and measure the
/// Optimal configuration's savings against the unshifted Baseline.
pub fn guardband_sweep(machine: Machine, scale: Scale, seed: u64) -> Table {
    let trace = quick_trace(machine, scale, seed);
    let mut t = Table::new(
        &format!(
            "ablation-guardband-{}",
            machine.name().to_lowercase().replace(' ', "")
        ),
        &format!("Ablation — savings vs guardband width, {machine}"),
        &[
            "guardband shift (mV)",
            "optimal energy (J)",
            "savings vs baseline (%)",
        ],
    );
    // Baseline on the stock chip.
    let base = {
        let chip = machine.chip_builder().build();
        let mut driver = avfs_sched::driver::DefaultPolicy::ondemand();
        let mut system = System::new(chip, machine.perf_model(), SystemConfig::default());
        system.run(&trace, &mut driver)
    };
    for shift in [-30i32, -15, 0, 15, 30] {
        let builder = machine.chip_builder().guardband_shift_mv(shift);
        let chip = builder.build();
        let mut daemon = Daemon::optimal(&chip);
        let mut system = System::new(chip, machine.perf_model(), SystemConfig::default());
        let m = system.run(&trace, &mut daemon);
        t.push_row(vec![
            Cell::Int(shift as i64),
            Cell::f(m.energy_j, 1),
            Cell::f(m.energy_savings_vs(&base) * 100.0, 1),
        ]);
    }
    t
}

/// Cross-specimen robustness: characterize the policy table on one chip
/// specimen, deploy the daemon on others with re-drawn static variation.
///
/// The paper characterizes each server individually; this sweep probes
/// what happens if a vendor shipped one table for the whole fleet. The
/// deployment stays safe as long as the characterized specimen's margins
/// cover the deployed specimen's weakest PMD — unsafe time appears
/// exactly when they do not, quantifying why per-chip characterization
/// matters (§III-A's chip-to-chip variation).
pub fn cross_specimen(machine: Machine, scale: Scale, seed: u64) -> Table {
    let trace = quick_trace(machine, scale, seed);
    // Characterize once, on the stock specimen.
    let reference_chip = machine.chip_builder().build();
    let mut t = Table::new(
        &format!(
            "ablation-specimen-{}",
            machine.name().to_lowercase().replace(' ', "")
        ),
        &format!("Ablation — one policy table deployed across chip specimens, {machine}"),
        &[
            "specimen seed",
            "energy (J)",
            "unsafe time (s)",
            "weakest PMD offset (mV)",
        ],
    );
    for spec_seed in [0u64, 1, 2, 3, 4] {
        let builder = if spec_seed == 0 {
            machine.chip_builder() // the characterized specimen itself
        } else {
            machine.chip_builder().static_variation_seed(spec_seed)
        };
        let chip = builder.build();
        let worst_offset = chip
            .spec()
            .all_pmds()
            .map(|p| chip.vmin_model().pmd_offset_mv(p))
            .max()
            .unwrap_or(0);
        // Daemon carries the *reference* chip's characterization.
        let daemon = Daemon::optimal(&reference_chip);
        let mut system = System::new(chip, machine.perf_model(), SystemConfig::default());
        let mut boxed: Box<dyn avfs_sched::driver::Driver> = Box::new(daemon);
        let m = system.run(&trace, boxed.as_mut());
        t.push_row(vec![
            Cell::Int(spec_seed as i64),
            Cell::f(m.energy_j, 1),
            Cell::f(m.unsafe_time_s, 3),
            Cell::Int(worst_offset as i64),
        ]);
    }
    t
}

/// Classification-threshold sweep: how sensitive the Optimal savings are
/// to the L3C-per-1M-cycles cut-off (the paper picks 3000 from Figure 9).
pub fn threshold_sweep(machine: Machine, scale: Scale, seed: u64) -> Table {
    let trace = quick_trace(machine, scale, seed);
    let mut t = Table::new(
        &format!(
            "ablation-threshold-{}",
            machine.name().to_lowercase().replace(' ', "")
        ),
        &format!("Ablation — Optimal vs classification threshold, {machine}"),
        &[
            "threshold (L3C/1Mcyc)",
            "energy (J)",
            "time (s)",
            "migrations",
        ],
    );
    for threshold in [500.0f64, 1_500.0, 3_000.0, 6_000.0, 12_000.0] {
        let chip = machine.chip_builder().build();
        let daemon = Daemon::optimal(&chip);
        let config = SystemConfig {
            l3c_threshold: threshold,
            ..SystemConfig::default()
        };
        let m = run_with(machine, &trace, daemon, config);
        t.push_row(vec![
            Cell::f(threshold, 0),
            Cell::f(m.energy_j, 1),
            Cell::f(m.makespan.as_secs_f64(), 1),
            Cell::Int(m.migrations as i64),
        ]);
    }
    t
}

/// Migration-cost sweep: the Optimal savings as the per-migration pause
/// grows from free to very expensive.
pub fn migration_cost_sweep(machine: Machine, scale: Scale, seed: u64) -> Table {
    let trace = quick_trace(machine, scale, seed);
    let mut t = Table::new(
        &format!(
            "ablation-migration-{}",
            machine.name().to_lowercase().replace(' ', "")
        ),
        &format!("Ablation — Optimal vs migration pause, {machine}"),
        &["pause (ms)", "energy (J)", "time (s)", "migrations"],
    );
    for pause_ms in [0u64, 2, 20, 200] {
        let chip = machine.chip_builder().build();
        let daemon = Daemon::optimal(&chip);
        let config = SystemConfig {
            migration_pause: SimDuration::from_millis(pause_ms),
            ..SystemConfig::default()
        };
        let m = run_with(machine, &trace, daemon, config);
        t.push_row(vec![
            Cell::Int(pause_ms as i64),
            Cell::f(m.energy_j, 1),
            Cell::f(m.makespan.as_secs_f64(), 1),
            Cell::Int(m.migrations as i64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_safe_prevents_unsafe_time() {
        let t = fail_safe_ablation(Machine::XGene3, Scale::Quick, 11);
        let safe_unsafe = t.value("raise-before (paper)", "unsafe time (s)").unwrap();
        let ablated_unsafe = t
            .value("voltage-last (ablated)", "unsafe time (s)")
            .unwrap();
        assert_eq!(safe_unsafe, 0.0);
        assert!(ablated_unsafe > 0.0, "ablation produced no unsafe time");
    }

    /// Pins the Paper-scale, seed-2024 fail-safe rows that EXPERIMENTS.md
    /// quotes, so the document cannot drift from the code silently. A
    /// change that moves results must update this test and that text
    /// together.
    #[test]
    fn paper_scale_fail_safe_rows_match_the_documented_rows() {
        // (variant, unsafe time s, failures) per machine.
        let documented = [
            (
                Machine::XGene2,
                [
                    ("raise-before (paper)", 0.0, 0.0),
                    ("voltage-last (ablated)", 11.614, 7.0),
                ],
            ),
            (
                Machine::XGene3,
                [
                    ("raise-before (paper)", 0.0, 0.0),
                    ("voltage-last (ablated)", 21.189, 8.0),
                ],
            ),
        ];
        for (machine, rows) in documented {
            let t = fail_safe_ablation(machine, Scale::Paper, 2024);
            for (variant, unsafe_s, failures) in rows {
                let got = t.value(variant, "unsafe time (s)").unwrap();
                assert!(
                    (got - unsafe_s).abs() <= 0.005,
                    "{machine} {variant} unsafe time {got} s"
                );
                let got = t.value(variant, "failures").unwrap();
                assert_eq!(got, failures, "{machine} {variant} failures");
            }
        }
    }

    #[test]
    fn wider_guardband_means_more_savings() {
        let t = guardband_sweep(Machine::XGene2, Scale::Quick, 13);
        let col = t.column("savings vs baseline (%)");
        // Shifting Vmin down (more headroom) increases savings;
        // monotone across the sweep.
        for w in col.windows(2) {
            assert!(
                w[1] <= w[0] + 0.5,
                "savings should fall as Vmin rises: {col:?}"
            );
        }
        assert!(col.first().unwrap() > col.last().unwrap());
    }

    #[test]
    fn threshold_extremes_change_behaviour() {
        // With an absurdly high threshold nothing classifies as
        // memory-intensive, so the daemon slows nothing: faster but less
        // saving than the paper threshold.
        let t = threshold_sweep(Machine::XGene2, Scale::Quick, 19);
        let energies = t.column("energy (J)");
        let times = t.column("time (s)");
        // Paper threshold (index 2) saves at least as much energy as the
        // never-memory extreme (last row).
        assert!(energies[2] <= energies[4] * 1.02, "{energies:?}");
        // The never-memory extreme is the fastest configuration.
        let min_time = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(times[4] <= min_time + 1.0, "{times:?}");
    }

    #[test]
    fn own_specimen_is_safe_others_may_not_be() {
        let t = cross_specimen(Machine::XGene2, Scale::Quick, 23);
        // The characterized specimen itself (seed 0) is always safe.
        let own = t.rows[0][2].as_f64().unwrap();
        assert_eq!(own, 0.0);
        // Specimens with a weaker PMD than the reference's margin may go
        // unsafe; either way the column must be present and non-negative.
        for row in &t.rows {
            assert!(row[2].as_f64().unwrap() >= 0.0);
        }
    }

    #[test]
    fn migration_cost_is_tolerable() {
        let t = migration_cost_sweep(Machine::XGene2, Scale::Quick, 17);
        let times = t.column("time (s)");
        // 2 ms pauses (the paper's "equal impact as a process migration")
        // must not move the makespan meaningfully vs free migrations.
        let ratio = times[1] / times[0];
        assert!(ratio < 1.01, "2ms pause inflated makespan by {ratio}");
        // Very expensive migrations are visible but not catastrophic.
        let ratio_extreme = times[3] / times[0];
        assert!(ratio_extreme < 1.25, "200ms pause ratio {ratio_extreme}");
    }
}
