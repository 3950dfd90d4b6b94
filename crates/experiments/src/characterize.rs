//! Beyond-paper characterization experiment: what measuring the margin
//! buys over presetting it, and what drift costs a table that never
//! re-measures.
//!
//! Three artifacts per machine:
//!
//! * **Reclaimed savings** — an `avfs-characterize` campaign measures
//!   the chip's margin map and compiles it with the default guardband;
//!   the foil is the model-derived characterization padded with a
//!   conservative static margin (what a vendor ships when it cannot
//!   afford per-part measurement). The measured table must undervolt
//!   strictly deeper on average while still covering the hidden ground
//!   truth in every measured cell.
//! * **Drift drill** — a daemon deployed on the measured table runs
//!   busy windows, the silicon ages mid-run, the droop guard absorbs the
//!   shift while the [`Recharacterizer`] waits for an idle window, and a
//!   fresh campaign swaps in a re-proven table. Zero unsafe windows
//!   end to end, exactly one swap.
//! * **Drift-degradation curve** — the same stale table replayed
//!   against progressively drifted ground truth: violations must start
//!   at zero, grow monotonically, and be strictly positive by the end
//!   of the sweep — the quantitative case for recharacterizing at all.

use crate::report::{Cell, Table};
use crate::Machine;
use avfs_characterize::{
    Campaign, CampaignConfig, GuardbandPolicy, MarginMap, Recharacterizer, TableCompiler,
};
use avfs_chip::chip::Chip;
use avfs_chip::freq::FreqVminClass;
use avfs_chip::topology::{CoreSet, PmdId};
use avfs_chip::vmin::{DroopClass, VminDrift, VminQuery};
use avfs_core::daemon::Daemon;
use avfs_core::recharacterize::RecharacterizeTrigger;
use avfs_core::PolicyTable;
use std::cmp::Reverse;

/// Vmin drift magnitudes swept by the degradation curve, mV.
pub const DRIFT_SWEEP_MV: [i32; 6] = [0, 5, 10, 15, 20, 25];

/// The drift the drill injects mid-run, mV. Must sit inside the droop
/// guard's emergency margin so the stale table stays safe while the
/// trigger waits for an idle window.
pub const DRILL_DRIFT_MV: i32 = 15;

/// Frequency classes in policy-table row order.
const FREQ_CLASSES: [FreqVminClass; 3] = [
    FreqVminClass::Divided,
    FreqVminClass::Reduced,
    FreqVminClass::Max,
];

/// The static extra margin the conservative preset foil ships with, mV.
/// Chosen per machine to represent a vendor guardband generous enough to
/// absorb part-to-part spread without measurement.
fn conservative_extra(machine: Machine) -> u32 {
    match machine {
        Machine::XGene2 => 30,
        Machine::XGene3 => 25,
    }
}

/// Measured-vs-preset comparison for one machine.
#[derive(Debug, Clone)]
pub struct ReclaimEntry {
    /// Which machine.
    pub machine: String,
    /// Measured cells in the campaign's margin map.
    pub cells: u64,
    /// Stress probes the campaign spent.
    pub probes: u64,
    /// The conservative foil's static extra margin, mV.
    pub conservative_extra_mv: u32,
    /// Mean undervolt depth (nominal − cell) of the measured table over
    /// the measured cells, mV.
    pub measured_depth_mv: f64,
    /// Mean undervolt depth of the conservative preset over the same
    /// cells, mV.
    pub conservative_depth_mv: f64,
    /// Depth the measured table reclaims per cell on average, mV.
    pub reclaimed_mv: f64,
    /// Smallest `compiled − truth` slack over the measured cells, mV
    /// (negative iff the measured table undercuts the hidden truth).
    pub min_truth_slack_mv: i64,
}

/// One monitor window of the drift drill.
#[derive(Debug, Clone)]
pub struct DrillWindow {
    /// Window index.
    pub index: usize,
    /// Drill phase: `steady`, `drifted`, or `recharacterized`.
    pub phase: String,
    /// Whether the machine was busy (all cores) or idle this window.
    pub busy: bool,
    /// Whether the droop guard was engaged.
    pub droop_guard: bool,
    /// Rail voltage the daemon chose, mV.
    pub voltage_mv: u32,
    /// The chip's true current safe Vmin for the active set, mV.
    pub true_vmin_mv: u32,
    /// The rail covered the true safe Vmin all window.
    pub safe: bool,
    /// A recharacterization pass completed and swapped the table here.
    pub swapped: bool,
}

/// Drift drill results for one machine.
#[derive(Debug, Clone)]
pub struct DrillResults {
    /// Which machine.
    pub machine: String,
    /// Injected drift, mV.
    pub drift_mv: i32,
    /// Every monitor window, in order.
    pub windows: Vec<DrillWindow>,
    /// Completed table swaps.
    pub swaps: u64,
    /// Windows where the rail sat below the true safe Vmin.
    pub unsafe_windows: usize,
    /// Rail requests the chip rejected.
    pub rail_errors: usize,
    /// Static safe voltage of the stale table at max frequency, mV.
    pub stale_static_mv: u32,
    /// Static safe voltage of the swapped-in table, mV.
    pub fresh_static_mv: u32,
    /// Smallest `chosen − drifted truth` slack of the post-swap chooser
    /// over the whole policy domain (no droop guard), mV.
    pub post_swap_slack_mv: i64,
}

/// One point of the drift-degradation curve.
#[derive(Debug, Clone)]
pub struct DriftPoint {
    /// Ground-truth drift, mV.
    pub drift_mv: i32,
    /// Measured cells whose stale compiled voltage undercuts the
    /// drifted truth.
    pub stale_violations: u64,
    /// Worst undercut depth (drifted truth − compiled), mV; negative
    /// when every cell still covers the truth.
    pub max_undercut_mv: i64,
}

/// Stale-table degradation curve for one machine.
#[derive(Debug, Clone)]
pub struct DriftCurve {
    /// Which machine.
    pub machine: String,
    /// One point per swept drift, in sweep order.
    pub points: Vec<DriftPoint>,
}

/// Everything `exp characterize` produces.
#[derive(Debug, Clone)]
pub struct CharacterizeResults {
    /// Campaign seed.
    pub seed: u64,
    /// Measured-vs-preset comparison, one entry per machine.
    pub reclaim: Vec<ReclaimEntry>,
    /// Drift drill, one per machine.
    pub drills: Vec<DrillResults>,
    /// Stale-table degradation, one curve per machine.
    pub curves: Vec<DriftCurve>,
}

impl CharacterizeResults {
    /// Checks the experiment's acceptance properties.
    ///
    /// # Errors
    ///
    /// Returns the first violated property: a measured table that fails
    /// to reclaim savings or undercuts the truth, a drill window that
    /// went unsafe or a drill that did not swap exactly once, or a
    /// degradation curve that is non-monotone, starts dirty, or never
    /// degrades.
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.reclaim {
            if r.cells == 0 {
                return Err(format!("{}: campaign measured no cells", r.machine));
            }
            if r.min_truth_slack_mv < 0 {
                return Err(format!(
                    "{}: measured table undercuts the hidden truth by {} mV",
                    r.machine, -r.min_truth_slack_mv
                ));
            }
            if r.reclaimed_mv <= 0.0 {
                return Err(format!(
                    "{}: measured table reclaimed {:.2} mV/cell — not strictly more than the conservative preset",
                    r.machine, r.reclaimed_mv
                ));
            }
        }
        for d in &self.drills {
            if d.unsafe_windows > 0 {
                return Err(format!(
                    "{} drill: {} window(s) ran below the true safe Vmin",
                    d.machine, d.unsafe_windows
                ));
            }
            if d.rail_errors > 0 {
                return Err(format!(
                    "{} drill: {} rail request(s) rejected",
                    d.machine, d.rail_errors
                ));
            }
            if d.swaps != 1 {
                return Err(format!(
                    "{} drill: {} table swaps, expected exactly 1",
                    d.machine, d.swaps
                ));
            }
            if d.fresh_static_mv <= d.stale_static_mv {
                return Err(format!(
                    "{} drill: fresh table static {} mV did not absorb the drift (stale {} mV)",
                    d.machine, d.fresh_static_mv, d.stale_static_mv
                ));
            }
            if d.post_swap_slack_mv < 0 {
                return Err(format!(
                    "{} drill: post-swap chooser undercuts the drifted truth by {} mV",
                    d.machine, -d.post_swap_slack_mv
                ));
            }
        }
        for c in &self.curves {
            let counts: Vec<u64> = c.points.iter().map(|p| p.stale_violations).collect();
            match counts.first() {
                Some(0) => {}
                _ => {
                    return Err(format!(
                        "{} curve: stale table dirty before any drift: {counts:?}",
                        c.machine
                    ))
                }
            }
            if counts.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!(
                    "{} curve: violations not monotone in drift: {counts:?}",
                    c.machine
                ));
            }
            if counts.last().copied().unwrap_or(0) == 0 {
                return Err(format!(
                    "{} curve: stale table never degraded across {:?} mV of drift",
                    c.machine,
                    DRIFT_SWEEP_MV.last()
                ));
            }
        }
        Ok(())
    }
}

/// The true worst-case safe Vmin of a measured cell's region on `chip`:
/// the genuinely weakest `utilized` PMDs, worst-case workload.
fn cell_truth(chip: &Chip, freq_class: FreqVminClass, utilized: usize, threads: usize) -> u32 {
    let model = chip.vmin_model();
    let mut by_weakness: Vec<PmdId> = (0..chip.spec().pmds()).map(PmdId::new).collect();
    by_weakness.sort_by_key(|&p| Reverse(model.pmd_offset_mv(p)));
    model
        .safe_vmin_on(
            &VminQuery {
                freq_class,
                utilized_pmds: utilized,
                active_threads: threads,
                workload_sensitivity: 1.0,
            },
            by_weakness[..utilized].iter().copied(),
        )
        .as_mv()
}

/// Runs the campaign once and compares the compiled table to the
/// conservative preset over the measured cells. Returns the entry plus
/// the map and table for reuse by the degradation curve.
fn reclaim_entry(
    machine: Machine,
    seed: u64,
) -> Result<(ReclaimEntry, MarginMap, PolicyTable), String> {
    let mut chip = machine.chip_builder().build();
    let map = Campaign::new(CampaignConfig::new(seed))
        .run(&mut chip)
        .map_err(|e| format!("{machine}: campaign aborted on a fault-free chip: {e}"))?;
    let table = TableCompiler::default()
        .compile(&map)
        .map_err(|e| format!("{machine}: margin map failed to compile: {e}"))?;
    let extra = conservative_extra(machine);
    let conservative = avfs_characterize::preset_conservative(
        chip.vmin_model(),
        GuardbandPolicy { margin_mv: extra },
    )
    .map_err(|e| format!("{machine}: conservative preset failed to build: {e}"))?;

    let nominal = f64::from(chip.nominal_voltage().as_mv());
    let mut measured_depth = 0.0;
    let mut conservative_depth = 0.0;
    let mut min_slack = i64::MAX;
    for cell in &map.cells {
        let fc = FREQ_CLASSES[cell.freq_row];
        let dc = DroopClass::ALL[cell.droop_index];
        let compiled = table.cell(fc, dc, cell.bucket);
        measured_depth += nominal - f64::from(compiled);
        conservative_depth += nominal - f64::from(conservative.cell(fc, dc, cell.bucket));
        let truth = cell_truth(&chip, fc, cell.utilized_pmds, cell.threads);
        min_slack = min_slack.min(i64::from(compiled) - i64::from(truth));
    }
    let n = map.cells.len().max(1) as f64;
    let entry = ReclaimEntry {
        machine: machine.name().to_string(),
        cells: map.cells.len() as u64,
        probes: map.cells.iter().map(|c| c.probes).sum(),
        conservative_extra_mv: extra,
        measured_depth_mv: measured_depth / n,
        conservative_depth_mv: conservative_depth / n,
        reclaimed_mv: (measured_depth - conservative_depth) / n,
        min_truth_slack_mv: if map.cells.is_empty() { 0 } else { min_slack },
    };
    Ok((entry, map, table))
}

/// Replays the stale compiled table against progressively drifted
/// ground truth.
fn drift_curve(machine: Machine, map: &MarginMap, stale: &PolicyTable) -> DriftCurve {
    let points = DRIFT_SWEEP_MV
        .iter()
        .map(|&drift| {
            let mut chip = machine.chip_builder().build();
            if drift > 0 {
                chip.apply_vmin_drift(VminDrift::aging(drift));
            }
            let mut violations = 0u64;
            let mut max_undercut = i64::MIN;
            for cell in &map.cells {
                let fc = FREQ_CLASSES[cell.freq_row];
                let truth = cell_truth(&chip, fc, cell.utilized_pmds, cell.threads);
                let compiled = stale.cell(fc, DroopClass::ALL[cell.droop_index], cell.bucket);
                let undercut = i64::from(truth) - i64::from(compiled);
                max_undercut = max_undercut.max(undercut);
                if undercut > 0 {
                    violations += 1;
                }
            }
            DriftPoint {
                drift_mv: drift,
                stale_violations: violations,
                max_undercut_mv: if map.cells.is_empty() {
                    0
                } else {
                    max_undercut
                },
            }
        })
        .collect();
    DriftCurve {
        machine: machine.name().to_string(),
        points,
    }
}

/// The post-swap chooser proven against the drifted truth over the
/// whole policy domain (no droop guard, no pessimization): smallest
/// `chosen − truth` slack.
fn post_swap_slack(chip: &Chip, daemon: &Daemon) -> i64 {
    let spec = chip.spec();
    let pmds = usize::from(spec.pmds());
    let per_pmd = usize::from(spec.cores) / pmds;
    let mut min_slack = i64::MAX;
    for fc in FREQ_CLASSES {
        for utilized in 1..=pmds {
            for threads in utilized..=utilized * per_pmd {
                let truth = cell_truth(chip, fc, utilized, threads);
                let chosen = daemon
                    .chosen_voltage(fc, utilized, threads, false, false)
                    .as_mv();
                min_slack = min_slack.min(i64::from(chosen) - i64::from(truth));
            }
        }
    }
    min_slack
}

/// Drives one monitor window: the daemon picks a voltage for the active
/// set, the rail moves, safety is judged against the chip's own ground
/// truth, and the window is fed to the recharacterization trigger.
#[allow(clippy::too_many_arguments)]
fn run_window(
    chip: &mut Chip,
    daemon: &mut Daemon,
    recharacterizer: &mut Recharacterizer,
    active: CoreSet,
    droop_guard: bool,
    phase: &str,
    results: &mut DrillResults,
) {
    let busy = !active.is_empty();
    let voltage = if busy {
        let utilized = active.utilized_pmds(chip.spec());
        let fc = chip.freq_vmin_class(utilized.iter());
        daemon.chosen_voltage(fc, utilized.len(), active.len(), droop_guard, false)
    } else {
        chip.nominal_voltage()
    };
    if chip.set_voltage(voltage).is_err() {
        results.rail_errors += 1;
    }
    let true_vmin = chip.current_safe_vmin(active);
    let safe = chip.is_voltage_safe_for(active);
    if !safe {
        results.unsafe_windows += 1;
    }
    let mut swapped = false;
    if recharacterizer.observe_window(droop_guard, !busy)
        && recharacterizer.recharacterize(chip, daemon).is_ok()
    {
        results.swaps += 1;
        swapped = true;
    }
    results.windows.push(DrillWindow {
        index: results.windows.len(),
        phase: phase.to_string(),
        busy,
        droop_guard,
        voltage_mv: voltage.as_mv(),
        true_vmin_mv: true_vmin.as_mv(),
        safe,
        swapped,
    });
}

/// The drift drill on one machine: measured table in a live daemon,
/// mid-run aging, guard-covered degradation, idle-window
/// recharacterization, re-proven table after the swap.
fn drill(machine: Machine, seed: u64) -> Result<DrillResults, String> {
    let mut chip = machine.chip_builder().build();
    let map = Campaign::new(CampaignConfig::new(seed))
        .run(&mut chip)
        .map_err(|e| format!("{machine}: drill campaign aborted: {e}"))?;
    let table = TableCompiler::default()
        .compile(&map)
        .map_err(|e| format!("{machine}: drill map failed to compile: {e}"))?;
    let mut daemon = Daemon::builder(&chip).table(table).build();
    let mut recharacterizer = Recharacterizer::new(
        CampaignConfig::new(seed.wrapping_add(1)),
        GuardbandPolicy::default(),
        RecharacterizeTrigger::new(3, 8),
    );
    let mut results = DrillResults {
        machine: machine.name().to_string(),
        drift_mv: DRILL_DRIFT_MV,
        windows: Vec::new(),
        swaps: 0,
        unsafe_windows: 0,
        rail_errors: 0,
        stale_static_mv: daemon
            .policy_table()
            .static_safe_voltage(FreqVminClass::Max)
            .as_mv(),
        fresh_static_mv: 0,
        post_swap_slack_mv: 0,
    };
    let all_cores = CoreSet::first_n(chip.spec().cores);

    // Phase 1 — steady state on the measured table.
    for _ in 0..4 {
        run_window(
            &mut chip,
            &mut daemon,
            &mut recharacterizer,
            all_cores,
            false,
            "steady",
            &mut results,
        );
    }
    // The machine drains; the silicon ages while the rail idles at
    // nominal.
    run_window(
        &mut chip,
        &mut daemon,
        &mut recharacterizer,
        CoreSet::EMPTY,
        false,
        "steady",
        &mut results,
    );
    chip.apply_vmin_drift(VminDrift::aging(DRILL_DRIFT_MV));

    // Phase 2 — the drifted truth sits above the stale table; the droop
    // guard's emergency margin keeps the busy windows covered while the
    // trigger accumulates its streak, then fires on the idle window.
    for _ in 0..3 {
        run_window(
            &mut chip,
            &mut daemon,
            &mut recharacterizer,
            all_cores,
            true,
            "drifted",
            &mut results,
        );
    }
    run_window(
        &mut chip,
        &mut daemon,
        &mut recharacterizer,
        CoreSet::EMPTY,
        true,
        "drifted",
        &mut results,
    );

    // Phase 3 — the swapped-in table absorbed the drift; the guard
    // disengages and the windows stay safe without it.
    for _ in 0..4 {
        run_window(
            &mut chip,
            &mut daemon,
            &mut recharacterizer,
            all_cores,
            false,
            "recharacterized",
            &mut results,
        );
    }

    results.fresh_static_mv = daemon
        .policy_table()
        .static_safe_voltage(FreqVminClass::Max)
        .as_mv();
    results.post_swap_slack_mv = post_swap_slack(&chip, &daemon);
    Ok(results)
}

/// Runs the full experiment on the given machines.
///
/// # Errors
///
/// Returns the first campaign or compile failure — on a fault-free
/// chip either is itself an acceptance failure.
pub fn evaluate(machines: &[Machine], seed: u64) -> Result<CharacterizeResults, String> {
    let mut reclaim = Vec::new();
    let mut drills = Vec::new();
    let mut curves = Vec::new();
    for &machine in machines {
        let (entry, map, table) = reclaim_entry(machine, seed)?;
        curves.push(drift_curve(machine, &map, &table));
        reclaim.push(entry);
        drills.push(drill(machine, seed)?);
    }
    Ok(CharacterizeResults {
        seed,
        reclaim,
        drills,
        curves,
    })
}

fn slug(machine_name: &str) -> String {
    machine_name.to_lowercase().replace(' ', "")
}

/// Measured-vs-preset table: one row per machine.
pub fn reclaim_table(results: &CharacterizeResults) -> Table {
    let mut t = Table::new(
        "characterize-reclaim",
        "Characterization — undervolt depth reclaimed by measured tables vs conservative preset",
        &[
            "machine",
            "cells",
            "probes",
            "preset extra (mV)",
            "measured depth (mV)",
            "preset depth (mV)",
            "reclaimed (mV/cell)",
            "min truth slack (mV)",
        ],
    );
    for r in &results.reclaim {
        t.push_row(vec![
            Cell::Text(r.machine.clone()),
            r.cells.into(),
            r.probes.into(),
            r.conservative_extra_mv.into(),
            Cell::f(r.measured_depth_mv, 1),
            Cell::f(r.conservative_depth_mv, 1),
            Cell::f(r.reclaimed_mv, 1),
            Cell::Int(r.min_truth_slack_mv),
        ]);
    }
    t
}

/// The drift drill window by window.
pub fn drill_table(results: &DrillResults) -> Table {
    let mut t = Table::new(
        &format!("characterize-drill-{}", slug(&results.machine)),
        &format!(
            "Characterization — {} mV drift drill ({} swaps, {} unsafe windows), {}",
            results.drift_mv, results.swaps, results.unsafe_windows, results.machine
        ),
        &[
            "window",
            "phase",
            "busy",
            "droop guard",
            "voltage (mV)",
            "true Vmin (mV)",
            "safe",
            "swapped",
        ],
    );
    for w in &results.windows {
        t.push_row(vec![
            w.index.into(),
            Cell::Text(w.phase.clone()),
            Cell::Int(i64::from(w.busy)),
            Cell::Int(i64::from(w.droop_guard)),
            w.voltage_mv.into(),
            w.true_vmin_mv.into(),
            Cell::Int(i64::from(w.safe)),
            Cell::Int(i64::from(w.swapped)),
        ]);
    }
    t
}

/// The stale-table degradation curve.
pub fn curve_table(curve: &DriftCurve) -> Table {
    let mut t = Table::new(
        &format!("characterize-drift-curve-{}", slug(&curve.machine)),
        &format!(
            "Characterization — stale-table violations vs ground-truth drift, {}",
            curve.machine
        ),
        &["drift (mV)", "stale violations", "max undercut (mV)"],
    );
    for p in &curve.points {
        t.push_row(vec![
            Cell::Int(i64::from(p.drift_mv)),
            p.stale_violations.into(),
            Cell::Int(p.max_undercut_mv),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xgene2_evaluates_clean() {
        let results = evaluate(&[Machine::XGene2], 2024).expect("campaigns run");
        results.validate().expect("acceptance");
        let drill = &results.drills[0];
        assert_eq!(drill.swaps, 1);
        assert!(drill.windows.iter().all(|w| w.safe));
        // The swap landed on the drifted phase's idle window.
        let swap_window = drill
            .windows
            .iter()
            .find(|w| w.swapped)
            .expect("a window swapped");
        assert_eq!(swap_window.phase, "drifted");
        assert!(!swap_window.busy);
    }

    #[test]
    fn both_machines_reclaim_savings_at_the_default_seed() {
        let results = evaluate(&Machine::BOTH, 2024).expect("campaigns run");
        results.validate().expect("acceptance");
        for r in &results.reclaim {
            assert!(r.reclaimed_mv > 0.0, "{}: {}", r.machine, r.reclaimed_mv);
            assert!(r.min_truth_slack_mv >= 0);
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let a = evaluate(&[Machine::XGene2], 7).expect("first");
        let b = evaluate(&[Machine::XGene2], 7).expect("second");
        assert_eq!(
            a.reclaim[0].measured_depth_mv.to_bits(),
            b.reclaim[0].measured_depth_mv.to_bits()
        );
        assert_eq!(a.drills[0].fresh_static_mv, b.drills[0].fresh_static_mv);
        assert_eq!(
            a.curves[0]
                .points
                .iter()
                .map(|p| p.stale_violations)
                .collect::<Vec<_>>(),
            b.curves[0]
                .points
                .iter()
                .map(|p| p.stale_violations)
                .collect::<Vec<_>>()
        );
    }
}
