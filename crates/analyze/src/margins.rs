//! Measured-table audit (`avfs-analyze check-margins`).
//!
//! `avfs-characterize` campaigns only ever see sampled pass/fail
//! outcomes; this gate replays a compiled table against the ground truth
//! the campaign was *not* allowed to read. Per preset it:
//!
//! 1. runs a seeded campaign on a fresh chip and compiles the map with
//!    the default guardband;
//! 2. checks every measured cell's compiled voltage against the model's
//!    true worst case for that cell's region (weakest PMDs, workload
//!    sensitivity +1) — the "chosen voltage covers the crash point plus
//!    margin" acceptance, stated in its strongest form (≥ the true safe
//!    Vmin itself);
//! 3. checks droop- and frequency-class monotonicity of the full grid;
//! 4. checks the determinism contract: a second campaign from the same
//!    seed measures an identical map;
//! 5. hands the table to [`crate::proof::prove_preset_with_table`] for
//!    the exhaustive policy-domain proof through the daemon chooser.

use std::cmp::Reverse;
use std::fmt;

use crate::proof::{self, PresetProofReport, ProofReport};
use avfs_characterize::{Campaign, CampaignConfig, TableCompiler};
use avfs_chip::chip::Chip;
use avfs_chip::freq::FreqVminClass;
use avfs_chip::topology::PmdId;
use avfs_chip::vmin::{DroopClass, VminQuery};
use avfs_core::PolicyTable;

/// Default campaign seed for the CI gate (any seed must pass; this one
/// is pinned so failures are replayable).
pub const DEFAULT_SEED: u64 = 7;

const FREQ_CLASSES: [FreqVminClass; 3] = [
    FreqVminClass::Divided,
    FreqVminClass::Reduced,
    FreqVminClass::Max,
];

/// Audit result for one preset.
#[derive(Debug, Clone)]
pub struct PresetMarginReport {
    /// Preset name ("X-Gene 2" / "X-Gene 3").
    pub name: String,
    /// Measured cells in the margin map.
    pub measured_cells: u64,
    /// Total stress probes the campaign spent.
    pub probes: u64,
    /// Observations the campaign discarded as unusable.
    pub discarded: u64,
    /// Smallest `compiled - truth` slack over the measured cells, mV
    /// (negative iff some compiled cell undercuts the hidden truth).
    pub min_truth_slack_mv: i64,
    /// The exhaustive policy-domain proof with the measured table
    /// installed (absent when the campaign itself failed).
    pub proof: Option<PresetProofReport>,
    /// Everything that went wrong, with coordinates.
    pub violations: Vec<String>,
}

impl PresetMarginReport {
    /// True when the table proved safe, monotone, and deterministic.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.proof.as_ref().is_some_and(PresetProofReport::is_clean)
    }
}

impl fmt::Display for PresetMarginReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {}: {} cells measured ({} probes, {} discarded), min truth slack {} mV, {} violation(s)",
            self.name,
            self.measured_cells,
            self.probes,
            self.discarded,
            self.min_truth_slack_mv,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "    VIOLATION {v}")?;
        }
        if let Some(p) = &self.proof {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Audit results across both presets.
#[derive(Debug, Clone)]
pub struct MarginCheckReport {
    /// Campaign seed the audit ran under.
    pub seed: u64,
    /// Per-preset results.
    pub presets: Vec<PresetMarginReport>,
}

impl MarginCheckReport {
    /// True when every preset audited clean.
    pub fn is_clean(&self) -> bool {
        self.presets.iter().all(PresetMarginReport::is_clean)
    }
}

impl fmt::Display for MarginCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "measured-margin audit (seed {}): {} preset(s)",
            self.seed,
            self.presets.len()
        )?;
        for p in &self.presets {
            write!(f, "{p}")?;
        }
        if self.is_clean() {
            writeln!(
                f,
                "  every compiled cell covers the hidden truth; measured tables proved over the full domain"
            )?;
        }
        Ok(())
    }
}

/// The true worst-case safe Vmin of one measured cell's proof region:
/// the genuinely weakest `utilized` PMDs, worst-case workload.
fn cell_truth(chip: &Chip, freq_row: usize, utilized: usize, threads: usize) -> u32 {
    let model = chip.vmin_model();
    let mut by_weakness: Vec<PmdId> = (0..chip.spec().pmds()).map(PmdId::new).collect();
    by_weakness.sort_by_key(|&p| Reverse(model.pmd_offset_mv(p)));
    model
        .safe_vmin_on(
            &VminQuery {
                freq_class: FREQ_CLASSES[freq_row],
                utilized_pmds: utilized,
                active_threads: threads,
                workload_sensitivity: 1.0,
            },
            by_weakness[..utilized].iter().copied(),
        )
        .as_mv()
}

/// Audits one preset: campaign, truth replay, monotonicity, determinism,
/// full-domain proof.
fn check_preset(
    name: &str,
    build: avfs_chip::presets::ChipBuilder,
    seed: u64,
) -> PresetMarginReport {
    let mut violations = Vec::new();
    let campaign = Campaign::new(CampaignConfig::new(seed));
    let mut chip = build.clone().build();
    let map = match campaign.run(&mut chip) {
        Ok(map) => map,
        Err(e) => {
            return PresetMarginReport {
                name: name.to_string(),
                measured_cells: 0,
                probes: 0,
                discarded: 0,
                min_truth_slack_mv: 0,
                proof: None,
                violations: vec![format!("campaign aborted on a fault-free chip: {e}")],
            }
        }
    };
    let table = match TableCompiler::default().compile(&map) {
        Ok(t) => t,
        Err(e) => {
            return PresetMarginReport {
                name: name.to_string(),
                measured_cells: map.cells.len() as u64,
                probes: map.cells.iter().map(|c| c.probes).sum(),
                discarded: map.cells.iter().map(|c| c.discarded).sum(),
                min_truth_slack_mv: 0,
                proof: None,
                violations: vec![format!("margin map failed to compile: {e}")],
            }
        }
    };

    // 2 — every measured cell's compiled voltage covers the hidden truth.
    let mut min_slack = i64::MAX;
    for cell in &map.cells {
        let truth = cell_truth(&chip, cell.freq_row, cell.utilized_pmds, cell.threads);
        let compiled = table.cell(
            FREQ_CLASSES[cell.freq_row],
            DroopClass::ALL[cell.droop_index],
            cell.bucket,
        );
        let slack = i64::from(compiled) - i64::from(truth);
        min_slack = min_slack.min(slack);
        if slack < 0 {
            violations.push(format!(
                "{name}: cell [fc {}][dc {}][bucket {}] compiled {compiled} mV < true safe Vmin {truth} mV",
                cell.freq_row, cell.droop_index, cell.bucket
            ));
        }
    }

    // 3 — monotonicity of the full compiled grid.
    for fc in FREQ_CLASSES {
        for bucket in 0..PolicyTable::THREAD_BUCKETS {
            for pair in DroopClass::ALL.windows(2) {
                if table.cell(fc, pair[0], bucket) > table.cell(fc, pair[1], bucket) {
                    violations.push(format!(
                        "{name}: droop monotonicity broken at [fc {fc}][{} -> {}][bucket {bucket}]",
                        pair[0], pair[1]
                    ));
                }
            }
        }
    }
    for dc in DroopClass::ALL {
        for bucket in 0..PolicyTable::THREAD_BUCKETS {
            let div = table.cell(FreqVminClass::Divided, dc, bucket);
            let red = table.cell(FreqVminClass::Reduced, dc, bucket);
            let max = table.cell(FreqVminClass::Max, dc, bucket);
            if !(div <= red && red <= max) {
                violations.push(format!(
                    "{name}: freq monotonicity broken at [{dc}][bucket {bucket}]: {div}/{red}/{max}"
                ));
            }
        }
    }

    // 4 — determinism: same seed → identical map.
    let mut replay_chip = build.build();
    match campaign.run(&mut replay_chip) {
        Ok(replay) if replay != map => {
            violations.push(format!(
                "{name}: same-seed campaigns measured different maps"
            ));
        }
        Ok(_) => {}
        Err(e) => violations.push(format!("{name}: replay campaign aborted: {e}")),
    }

    // 5 — exhaustive policy-domain proof with the measured table.
    let proof = proof::prove_preset_with_table(name, &chip, table);

    PresetMarginReport {
        name: name.to_string(),
        measured_cells: map.cells.len() as u64,
        probes: map.cells.iter().map(|c| c.probes).sum(),
        discarded: map.cells.iter().map(|c| c.discarded).sum(),
        min_truth_slack_mv: if map.cells.is_empty() { 0 } else { min_slack },
        proof: Some(proof),
        violations,
    }
}

/// Runs the full measured-margin audit on both presets.
pub fn check(seed: u64) -> MarginCheckReport {
    MarginCheckReport {
        seed,
        presets: vec![
            check_preset("X-Gene 2", avfs_chip::presets::xgene2(), seed),
            check_preset("X-Gene 3", avfs_chip::presets::xgene3(), seed),
        ],
    }
}

/// `prove-policy --measured`: the policy-domain proof with measured
/// tables (campaign + compile per preset) instead of the model-derived
/// characterization.
pub fn prove_measured(seed: u64) -> ProofReport {
    let mut presets = Vec::new();
    for (name, builder) in [
        ("X-Gene 2 (measured)", avfs_chip::presets::xgene2()),
        ("X-Gene 3 (measured)", avfs_chip::presets::xgene3()),
    ] {
        let mut chip = builder.build();
        let campaign = Campaign::new(CampaignConfig::new(seed));
        let table = campaign
            .run(&mut chip)
            .ok()
            .and_then(|map| TableCompiler::default().compile(&map).ok());
        match table {
            Some(table) => presets.push(proof::prove_preset_with_table(name, &chip, table)),
            None => presets.push(PresetProofReport {
                name: name.to_string(),
                cells: 0,
                min_guardband_mv: -1,
                violations: vec![format!(
                    "{name}: campaign or compile failed on a clean chip"
                )],
            }),
        }
    }
    ProofReport { presets }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_audits_clean_on_both_presets() {
        let report = check(DEFAULT_SEED);
        assert!(report.is_clean(), "{report}");
        for p in &report.presets {
            assert!(p.min_truth_slack_mv >= 0);
            assert!(p.measured_cells > 0);
            let proof = p.proof.as_ref().expect("proof ran");
            assert!(proof.min_guardband_mv >= 0);
        }
    }

    #[test]
    fn measured_proof_covers_the_same_domain_as_the_preset_proof() {
        let measured = prove_measured(DEFAULT_SEED);
        let modeled = proof::prove();
        assert!(measured.is_clean(), "{measured}");
        assert_eq!(measured.cells(), modeled.cells());
    }
}
