//! Exhaustive policy-safety proof (`avfs-analyze prove-policy`).
//!
//! The daemon's voltage policy is a pure function of a *finite* domain:
//! frequency class × utilized-PMD count × active-thread count ×
//! intensity class × droop-guard flag × recovery state. That makes
//! "never undervolts" a statement that can be *proved* by enumeration
//! rather than sampled by simulation: for every cell, the voltage
//! [`avfs_core::daemon::Daemon::chosen_voltage`] returns (the exact
//! chooser `replan` uses) must cover the chip's physical worst case —
//! the most voltage-sensitive workload (sensitivity +1.0) placed on the
//! `u` weakest PMDs of the chip, with the droop-excursion guard applied
//! through the same [`FaultPlan::effective_vmin`] arithmetic the fault
//! layer uses.
//!
//! Alongside safety the sweep proves EDP-monotonicity cell by cell: at
//! a fixed frequency the chosen voltage must not cost more power than
//! running the same cell at nominal (at fixed performance, less power
//! is less EDP), evaluated through the preset's calibrated
//! [`avfs_chip::power::PowerModel`].
//!
//! Thread counts range over `u..=u·cores_per_pmd`: fewer than `u`
//! threads cannot utilize `u` PMDs, and more than `u·cores_per_pmd`
//! cannot fit on them — cells outside that band are physically
//! unreachable and the characterization deliberately carries no margin
//! for them.

use std::cmp::Reverse;
use std::fmt;

use avfs_chip::chip::Chip;
use avfs_chip::fault::{FaultPlan, FaultRates};
use avfs_chip::freq::{FreqStep, FreqVminClass, FrequencyMhz};
use avfs_chip::power::{PmdLoad, PowerInputs};
use avfs_chip::topology::PmdId;
use avfs_chip::vmin::VminQuery;
use avfs_chip::voltage::Millivolts;
use avfs_core::daemon::Daemon;
use avfs_workloads::classify::IntensityClass;

/// The three frequency classes, in required-voltage order.
const FREQ_CLASSES: [FreqVminClass; 3] = [
    FreqVminClass::Divided,
    FreqVminClass::Reduced,
    FreqVminClass::Max,
];

/// Recovery-state dimension: label and whether the daemon pessimizes
/// voltage (safe mode and probation both pin to nominal).
const RECOVERY_STATES: [(&str, bool); 3] = [
    ("optimized", false),
    ("safe-mode", true),
    ("probation", true),
];

/// The voltage chooser under proof: `(freq_class, utilized_pmds,
/// threads, droop_guard, pessimize) -> voltage`.
pub type Chooser<'a> = &'a dyn Fn(FreqVminClass, usize, usize, bool, bool) -> Millivolts;

/// Proof result for one chip preset.
#[derive(Debug, Clone)]
pub struct PresetProofReport {
    /// Preset name ("X-Gene 2" / "X-Gene 3").
    pub name: String,
    /// Number of domain cells enumerated.
    pub cells: u64,
    /// The smallest `chosen - required` slack observed across all cells,
    /// in millivolts (negative iff some cell is unsafe).
    pub min_guardband_mv: i64,
    /// Unsafe or non-monotone cells, with full coordinates.
    pub violations: Vec<String>,
}

impl PresetProofReport {
    /// True when every cell proved safe and EDP-monotone.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for PresetProofReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {}: {} cells enumerated, min guardband {} mV, {} violation(s)",
            self.name,
            self.cells,
            self.min_guardband_mv,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "    UNSAFE {v}")?;
        }
        Ok(())
    }
}

/// Proof results across every preset.
#[derive(Debug, Clone)]
pub struct ProofReport {
    /// Per-preset results.
    pub presets: Vec<PresetProofReport>,
}

impl ProofReport {
    /// True when every preset proved clean.
    pub fn is_clean(&self) -> bool {
        self.presets.iter().all(PresetProofReport::is_clean)
    }

    /// Total cells enumerated across presets.
    pub fn cells(&self) -> u64 {
        self.presets.iter().map(|p| p.cells).sum()
    }
}

impl fmt::Display for ProofReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "policy-domain proof: {} cells across {} preset(s)",
            self.cells(),
            self.presets.len()
        )?;
        for p in &self.presets {
            write!(f, "{p}")?;
        }
        if self.is_clean() {
            writeln!(f, "  every cell proved safe and EDP-monotone")?;
        }
        Ok(())
    }
}

/// An armed droop excursion for worst-case Vmin arithmetic: rate 1.0
/// guarantees the first check opens it.
fn armed_excursion() -> FaultPlan {
    let mut plan = FaultPlan::new(
        0,
        FaultRates {
            droop: 1.0,
            ..FaultRates::ZERO
        },
    );
    plan.droop_check();
    debug_assert!(plan.droop_excursion_active());
    plan
}

/// The frequency step a cell's class runs at (the daemon's own
/// class-to-step mapping: full speed, half speed, or deep division).
fn step_for_class(fc: FreqVminClass) -> FreqStep {
    match fc {
        FreqVminClass::Max => FreqStep::MAX,
        FreqVminClass::Reduced => FreqStep::HALF,
        FreqVminClass::Divided => FreqStep::new_clamped(3),
    }
}

/// PCP power of one domain cell at the given rail voltage.
fn cell_power_w(
    chip: &Chip,
    fc: FreqVminClass,
    utilized: usize,
    threads: usize,
    class: IntensityClass,
    voltage: Millivolts,
) -> f64 {
    let spec = chip.spec();
    let freq = step_for_class(fc).frequency(FrequencyMhz::new(spec.fmax_mhz));
    let (activity, mem_traffic) = match class {
        IntensityClass::CpuIntensive => (0.9, 0.1),
        IntensityClass::MemoryIntensive => (0.45, 0.9),
    };
    let per = threads / utilized;
    let extra = threads % utilized;
    let mut pmd_loads = vec![PmdLoad::IDLE; spec.pmds() as usize];
    for (i, load) in pmd_loads.iter_mut().take(utilized).enumerate() {
        let cores = per + usize::from(i < extra);
        *load = PmdLoad {
            freq_mhz: freq.as_mhz(),
            active_cores: u8::try_from(cores).unwrap_or(u8::MAX),
            activity,
        };
    }
    chip.power_model().power_w(&PowerInputs {
        voltage,
        pmd_loads,
        mem_traffic,
    })
}

/// Proves one preset's policy over the full domain with an arbitrary
/// chooser. Split from [`prove`] so tests can feed a deliberately
/// broken chooser and watch the unsafe cells surface with coordinates.
pub fn prove_preset_with(name: &str, chip: &Chip, chooser: Chooser<'_>) -> PresetProofReport {
    let spec = chip.spec();
    let model = chip.vmin_model();
    let nominal = chip.nominal_voltage();
    let excursion = armed_excursion();

    // PMDs sorted weakest (largest static offset) first: the physical
    // worst case for any u-PMD placement.
    let mut by_weakness: Vec<PmdId> = (0..spec.pmds()).map(PmdId::new).collect();
    by_weakness.sort_by_key(|&p| Reverse(model.pmd_offset_mv(p)));

    let mut cells = 0u64;
    let mut min_guardband = i64::MAX;
    let mut violations = Vec::new();

    for fc in FREQ_CLASSES {
        for utilized in 1..=spec.pmds() as usize {
            let worst_pmds = &by_weakness[..utilized];
            for threads in utilized..=utilized * spec.cores_per_pmd as usize {
                let required_base = model.safe_vmin_on(
                    &VminQuery {
                        freq_class: fc,
                        utilized_pmds: utilized,
                        active_threads: threads,
                        workload_sensitivity: 1.0,
                    },
                    worst_pmds.iter().copied(),
                );
                for class in [
                    IntensityClass::CpuIntensive,
                    IntensityClass::MemoryIntensive,
                ] {
                    for droop_guard in [false, true] {
                        let required = if droop_guard {
                            excursion.effective_vmin(required_base, nominal)
                        } else {
                            required_base
                        };
                        for (recovery, pessimize) in RECOVERY_STATES {
                            cells += 1;
                            let chosen = chooser(fc, utilized, threads, droop_guard, pessimize);
                            let coords = format!(
                                "{name}: fc={fc} u={utilized} t={threads} class={} droop={} recovery={recovery}",
                                match class {
                                    IntensityClass::CpuIntensive => "cpu",
                                    IntensityClass::MemoryIntensive => "mem",
                                },
                                if droop_guard { "on" } else { "off" },
                            );
                            let slack = chosen - required;
                            min_guardband = min_guardband.min(slack);
                            if slack < 0 {
                                violations.push(format!(
                                    "{coords}: chosen {} mV < required {} mV",
                                    chosen.as_mv(),
                                    required.as_mv()
                                ));
                            }
                            let p_chosen = cell_power_w(chip, fc, utilized, threads, class, chosen);
                            let p_nominal =
                                cell_power_w(chip, fc, utilized, threads, class, nominal);
                            if p_chosen > p_nominal + 1e-9 {
                                violations.push(format!(
                                    "{coords}: power at chosen {p_chosen:.3} W exceeds nominal {p_nominal:.3} W (EDP regression)"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    PresetProofReport {
        name: name.to_string(),
        cells,
        min_guardband_mv: if cells == 0 { 0 } else { min_guardband },
        violations,
    }
}

/// Proves a *supplied* policy table on one preset, through the same
/// daemon chooser the production proof uses. This is how measured
/// tables (compiled from `avfs-characterize` margin maps) get the same
/// exhaustive treatment as the model-derived characterization: install
/// the table in a daemon, enumerate the full domain.
pub fn prove_preset_with_table(
    name: &str,
    chip: &Chip,
    table: avfs_core::PolicyTable,
) -> PresetProofReport {
    let daemon = Daemon::optimal(chip).with_table(table);
    let chooser = |fc: FreqVminClass, u: usize, t: usize, dg: bool, pess: bool| {
        daemon.chosen_voltage(fc, u, t, dg, pess)
    };
    prove_preset_with(name, chip, &chooser)
}

/// Proves the production policy (the `optimal` daemon's chooser) over
/// both presets.
pub fn prove() -> ProofReport {
    let mut presets = Vec::new();
    for (name, builder) in [
        ("X-Gene 2", avfs_chip::presets::xgene2()),
        ("X-Gene 3", avfs_chip::presets::xgene3()),
    ] {
        let chip = builder.build();
        let daemon = Daemon::optimal(&chip);
        let chooser = |fc: FreqVminClass, u: usize, t: usize, dg: bool, pess: bool| {
            daemon.chosen_voltage(fc, u, t, dg, pess)
        };
        presets.push(prove_preset_with(name, &chip, &chooser));
    }
    ProofReport { presets }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_policy_proves_clean_on_both_presets() {
        let report = prove();
        assert!(report.is_clean(), "{report}");
        assert!(report.presets.iter().all(|p| p.min_guardband_mv >= 0));
    }

    #[test]
    fn cell_counts_cover_the_exact_domain() {
        // 3 fc × Σ_{u=1..pmds}(u·cpp − u + 1) threads × 2 classes ×
        // 2 droop × 3 recovery.
        let report = prove();
        let expect = |pmds: usize, cpp: usize| -> u64 {
            let thread_cells: usize = (1..=pmds).map(|u| u * cpp - u + 1).sum();
            (3 * thread_cells * 2 * 2 * 3) as u64
        };
        assert_eq!(report.presets[0].cells, expect(4, 2), "X-Gene 2");
        assert_eq!(report.presets[1].cells, expect(16, 2), "X-Gene 3");
        assert_eq!(
            report.cells(),
            report.presets[0].cells + report.presets[1].cells
        );
    }

    #[test]
    fn broken_chooser_fails_with_cell_coordinates() {
        let chip = avfs_chip::presets::xgene2().build();
        let floor = Millivolts::new(chip.spec().vreg_floor_mv);
        // A chooser that always returns the regulator floor: unsafe in
        // essentially every cell.
        let chooser = |_fc: FreqVminClass, _u: usize, _t: usize, _dg: bool, _p: bool| floor;
        let report = prove_preset_with("X-Gene 2", &chip, &chooser);
        assert!(!report.is_clean());
        assert!(report.min_guardband_mv < 0);
        let sample = &report.violations[0];
        for needle in ["fc=", "u=", "t=", "class=", "droop=", "recovery=", "chosen"] {
            assert!(sample.contains(needle), "{sample}");
        }
    }

    #[test]
    fn droop_guard_cells_demand_the_excursion_bump() {
        // A chooser that ignores the droop guard must fail exactly in
        // droop=on cells (the optimal chooser minus the emergency bump).
        let chip = avfs_chip::presets::xgene2().build();
        let daemon = Daemon::optimal(&chip);
        let chooser = |fc: FreqVminClass, u: usize, t: usize, _dg: bool, pess: bool| {
            daemon.chosen_voltage(fc, u, t, false, pess)
        };
        let report = prove_preset_with("X-Gene 2", &chip, &chooser);
        assert!(!report.is_clean());
        assert!(report.violations.iter().all(|v| v.contains("droop=on")));
    }
}
