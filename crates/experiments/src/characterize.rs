//! Beyond-paper characterization experiment: what measuring the margin
//! buys over presetting it.
//!
//! Per machine, an `avfs-characterize` campaign measures the chip's
//! margin map and compiles it with the default guardband; the foil is
//! the model-derived characterization padded with a conservative static
//! margin (what a vendor ships when it cannot afford per-part
//! measurement). The measured table must undervolt strictly deeper on
//! average while still covering the hidden ground truth in every
//! measured cell.

use crate::report::{Cell, Table};
use crate::Machine;
use avfs_characterize::{Campaign, CampaignConfig, GuardbandPolicy, TableCompiler};
use avfs_chip::chip::Chip;
use avfs_chip::freq::FreqVminClass;
use avfs_chip::topology::PmdId;
use avfs_chip::vmin::{DroopClass, VminQuery};
use std::cmp::Reverse;

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

/// Everything `exp characterize` produces.
#[derive(Debug, Clone)]
pub struct CharacterizeResults {
    /// Campaign seed.
    pub seed: u64,
    /// Measured-vs-preset comparison, one entry per machine.
    pub reclaim: Vec<ReclaimEntry>,
}

impl CharacterizeResults {
    /// Checks the experiment's acceptance properties.
    ///
    /// # Errors
    ///
    /// Returns the first violated property: a campaign that measured no
    /// cells, or a measured table that undercuts the truth or fails to
    /// reclaim savings.
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
/// conservative preset over the measured cells.
fn reclaim_entry(machine: Machine, seed: u64) -> Result<ReclaimEntry, String> {
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
    Ok(ReclaimEntry {
        machine: machine.name().to_string(),
        cells: map.cells.len() as u64,
        probes: map.cells.iter().map(|c| c.probes).sum(),
        conservative_extra_mv: extra,
        measured_depth_mv: measured_depth / n,
        conservative_depth_mv: conservative_depth / n,
        reclaimed_mv: (measured_depth - conservative_depth) / n,
        min_truth_slack_mv: if map.cells.is_empty() { 0 } else { min_slack },
    })
}

/// Runs the full experiment on the given machines.
///
/// # Errors
///
/// Returns the first campaign or compile failure — on a fault-free
/// chip either is itself an acceptance failure.
pub fn evaluate(machines: &[Machine], seed: u64) -> Result<CharacterizeResults, String> {
    let reclaim = machines
        .iter()
        .map(|&machine| reclaim_entry(machine, seed))
        .collect::<Result<_, _>>()?;
    Ok(CharacterizeResults { seed, reclaim })
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xgene2_evaluates_clean() {
        let results = evaluate(&[Machine::XGene2], 2024).expect("campaigns run");
        results.validate().expect("acceptance");
        // The X-Gene 2 row `exp characterize` prints at its default seed.
        let r = &results.reclaim[0];
        assert_eq!((r.cells, r.probes, r.min_truth_slack_mv), (36, 4481, 12));
        assert_eq!(format!("{:.1}", r.reclaimed_mv), "13.8");
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
    }
}
