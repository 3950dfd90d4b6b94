//! Compiling a measured margin map into a deployable policy table.
//!
//! Raw measurements are *not* a policy: a measured level can sit a few
//! millivolts below the true safe Vmin (the confirmation ladder bounds
//! how far, it cannot make the bound zero), unachievable droop classes
//! are holes, and sampling noise can nick the table's monotonicity. The
//! [`TableCompiler`] closes all three gaps: it adds the guardband, fills
//! holes from the droop class above, restores droop- and frequency-class
//! monotonicity (only ever raising cells), and builds the final
//! [`PolicyTable`] through [`PolicyTable::from_raw`] so the regulator
//! floor is enforced by construction.

use crate::margin::MarginMap;
use avfs_chip::vmin::VminModel;
use avfs_core::policy::{PolicyError, PolicyTable};
use std::fmt;

/// How much pessimism the compiler adds on top of raw measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardbandPolicy {
    /// Margin added to every measured level, mV. Must cover the deepest
    /// level the confirmation ladder could plausibly certify below the
    /// true safe Vmin (≈12 mV at the default 24 passes) plus regulator
    /// noise.
    pub margin_mv: u32,
}

impl Default for GuardbandPolicy {
    fn default() -> Self {
        GuardbandPolicy { margin_mv: 20 }
    }
}

/// Why a margin map would not compile.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// The map carries no cells at all.
    EmptyMap,
    /// A cell lands outside a coordinate of the 3×4×4 policy grid.
    CellOutOfRange {
        /// Frequency-class row of the offending cell.
        freq_row: usize,
        /// Droop-class column of the offending cell.
        droop_index: usize,
        /// Thread bucket of the offending cell.
        bucket: usize,
    },
    /// The assembled table failed [`PolicyTable::from_raw`] validation.
    Policy(PolicyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyMap => write!(f, "margin map carries no cells"),
            CompileError::CellOutOfRange {
                freq_row,
                droop_index,
                bucket,
            } => write!(
                f,
                "cell [fc {freq_row}][dc {droop_index}][bucket {bucket}] outside the policy grid"
            ),
            CompileError::Policy(e) => write!(f, "compiled table rejected: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles measured margin maps into policy tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableCompiler {
    guardband: GuardbandPolicy,
}

impl TableCompiler {
    /// A compiler applying the given guardband.
    pub fn new(guardband: GuardbandPolicy) -> Self {
        TableCompiler { guardband }
    }

    /// The guardband this compiler applies.
    pub fn guardband(&self) -> GuardbandPolicy {
        self.guardband
    }

    /// Compiles a margin map: guardband, hole filling, monotonicity
    /// fixups (raising only), then [`PolicyTable::from_raw`] validation.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for an empty map, out-of-grid cells, or
    /// a table `from_raw` rejects (a populated cell below the regulator
    /// floor).
    pub fn compile(&self, map: &MarginMap) -> Result<PolicyTable, CompileError> {
        if map.cells.is_empty() {
            return Err(CompileError::EmptyMap);
        }
        let mut grid = [[[0u32; 4]; 4]; 3];
        for cell in &map.cells {
            let slot = grid
                .get_mut(cell.freq_row)
                .and_then(|row| row.get_mut(cell.droop_index))
                .and_then(|col| col.get_mut(cell.bucket))
                .ok_or(CompileError::CellOutOfRange {
                    freq_row: cell.freq_row,
                    droop_index: cell.droop_index,
                    bucket: cell.bucket,
                })?;
            *slot = cell
                .measured_safe_mv
                .saturating_add(self.guardband.margin_mv)
                .min(map.nominal_mv);
        }
        // Hole filling and droop monotonicity, per frequency row: an
        // unmeasured (unachievable) class inherits the class above it —
        // safe, since less droop never needs more voltage.
        for row in &mut grid {
            // The droop/bucket coordinates are the point of this
            // traversal; an iterator chain would obscure them.
            #[allow(clippy::needless_range_loop)]
            for bucket in 0..4 {
                for dc in (0..3).rev() {
                    if row[dc][bucket] == 0 {
                        row[dc][bucket] = row[dc + 1][bucket];
                    }
                }
                for dc in 1..4 {
                    row[dc][bucket] = row[dc][bucket].max(row[dc - 1][bucket]);
                }
            }
        }
        // Frequency-class monotonicity: sampling noise can nick the
        // Divided ≤ Reduced ≤ Max ordering where the true rows tie.
        // Indexing keeps the cross-row max readable.
        #[allow(clippy::needless_range_loop)]
        for dc in 0..4 {
            for bucket in 0..4 {
                grid[1][dc][bucket] = grid[1][dc][bucket].max(grid[0][dc][bucket]);
                grid[2][dc][bucket] = grid[2][dc][bucket].max(grid[1][dc][bucket]);
            }
        }
        PolicyTable::from_raw(grid, map.nominal_mv, map.floor_mv, map.pmds)
            .map_err(CompileError::Policy)
    }
}

/// The measured tables' foil: a preset table carrying the extra shipping
/// guardband an unmeasured part needs. Built from the chip's *modeled*
/// characterization with `extra` blanket pessimism on every cell
/// (capped at nominal) — what a vendor ships when it cannot afford a
/// per-part campaign.
///
/// # Errors
///
/// Returns [`CompileError::Policy`] if the widened table violates the
/// regulator floor (cannot happen for the built-in presets — widening
/// only raises cells).
pub fn preset_conservative(
    model: &VminModel,
    extra: GuardbandPolicy,
) -> Result<PolicyTable, CompileError> {
    use avfs_chip::freq::FreqVminClass;
    use avfs_chip::vmin::DroopClass;
    let spec = model.spec();
    let base = PolicyTable::from_characterization(model);
    let mut grid = [[[0u32; 4]; 4]; 3];
    for (fi, fc) in [
        FreqVminClass::Divided,
        FreqVminClass::Reduced,
        FreqVminClass::Max,
    ]
    .into_iter()
    .enumerate()
    {
        for dc in DroopClass::ALL {
            // The bucket coordinate is the point; keep the index.
            #[allow(clippy::needless_range_loop)]
            for bucket in 0..PolicyTable::THREAD_BUCKETS {
                grid[fi][dc.index()][bucket] = base
                    .cell(fc, dc, bucket)
                    .saturating_add(extra.margin_mv)
                    .min(spec.nominal_mv);
            }
        }
    }
    PolicyTable::from_raw(
        grid,
        spec.nominal_mv,
        spec.vreg_floor_mv,
        spec.pmds() as usize,
    )
    .map_err(CompileError::Policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use avfs_chip::freq::FreqVminClass;
    use avfs_chip::presets;
    use avfs_chip::vmin::DroopClass;

    fn measured_table(seed: u64) -> (avfs_chip::chip::Chip, PolicyTable) {
        let mut chip = presets::xgene2().build();
        let map = Campaign::new(CampaignConfig::new(seed))
            .run(&mut chip)
            .expect("clean chip");
        let table = TableCompiler::default().compile(&map).expect("compiles");
        (chip, table)
    }

    #[test]
    fn compiled_table_is_full_and_monotone() {
        let (_, table) = measured_table(7);
        for fc in [
            FreqVminClass::Divided,
            FreqVminClass::Reduced,
            FreqVminClass::Max,
        ] {
            for bucket in 0..PolicyTable::THREAD_BUCKETS {
                let mut prev = 0;
                for dc in DroopClass::ALL {
                    let v = table.cell(fc, dc, bucket);
                    assert!(v > 0, "hole at [{fc:?}][{dc:?}][{bucket}]");
                    assert!(v >= prev, "droop monotonicity broken");
                    prev = v;
                }
            }
        }
        for dc in DroopClass::ALL {
            for bucket in 0..PolicyTable::THREAD_BUCKETS {
                let div = table.cell(FreqVminClass::Divided, dc, bucket);
                let red = table.cell(FreqVminClass::Reduced, dc, bucket);
                let max = table.cell(FreqVminClass::Max, dc, bucket);
                assert!(div <= red && red <= max, "freq monotonicity broken");
            }
        }
    }

    #[test]
    fn compiled_cells_cover_the_hidden_truth() {
        // The safety contract: every compiled cell is at or above the
        // model's true worst-case safe Vmin for that cell's region.
        for (chip, preset) in [
            (presets::xgene2().build(), "xg2"),
            (presets::xgene3().build(), "xg3"),
        ] {
            let mut chip = chip;
            let map = Campaign::new(CampaignConfig::new(7))
                .run(&mut chip)
                .expect("clean chip");
            let table = TableCompiler::default().compile(&map).expect("compiles");
            let model = chip.vmin_model();
            let spec = chip.spec();
            for cell in &map.cells {
                let fc = [
                    FreqVminClass::Divided,
                    FreqVminClass::Reduced,
                    FreqVminClass::Max,
                ][cell.freq_row];
                // True worst case: the genuinely weakest PMDs by model
                // offset, worst-case workload.
                let mut by_offset: Vec<_> = (0..spec.pmds())
                    .map(avfs_chip::topology::PmdId::new)
                    .collect();
                by_offset.sort_by_key(|&p| std::cmp::Reverse(model.pmd_offset_mv(p)));
                let worst = &by_offset[..cell.utilized_pmds];
                let q = avfs_chip::vmin::VminQuery {
                    freq_class: fc,
                    utilized_pmds: cell.utilized_pmds,
                    active_threads: cell.threads,
                    workload_sensitivity: 1.0,
                };
                let truth = model.safe_vmin_on(&q, worst.iter().copied());
                let dc = DroopClass::ALL[cell.droop_index];
                let compiled = table.cell(fc, dc, cell.bucket);
                assert!(
                    compiled >= truth.as_mv(),
                    "{preset}: cell [{fc:?}][{dc:?}][{}] compiled {compiled} < truth {truth}",
                    cell.bucket
                );
            }
        }
    }

    #[test]
    fn recompiling_an_imported_map_is_bit_identical() {
        let mut chip = presets::xgene3().build();
        let map = Campaign::new(CampaignConfig::new(21))
            .run(&mut chip)
            .expect("clean chip");
        let direct = TableCompiler::default().compile(&map).expect("compiles");
        let imported = MarginMap::from_jsonl(&map.to_jsonl()).expect("round trip");
        assert_eq!(imported, map);
        let recompiled = TableCompiler::default()
            .compile(&imported)
            .expect("compiles");
        assert_eq!(recompiled, direct);
    }

    #[test]
    fn empty_map_is_rejected() {
        let map = MarginMap {
            chip: "x".to_string(),
            nominal_mv: 980,
            floor_mv: 600,
            pmds: 4,
            seed: 0,
            confirm_passes: 1,
            cells: Vec::new(),
        };
        assert_eq!(
            TableCompiler::default().compile(&map).expect_err("empty"),
            CompileError::EmptyMap
        );
    }

    #[test]
    fn out_of_grid_cell_is_rejected() {
        let mut chip = presets::xgene2().build();
        let mut map = Campaign::new(CampaignConfig::new(1))
            .run(&mut chip)
            .expect("clean chip");
        map.cells[0].bucket = 9;
        assert!(matches!(
            TableCompiler::default()
                .compile(&map)
                .expect_err("bad bucket"),
            CompileError::CellOutOfRange { bucket: 9, .. }
        ));
    }

    #[test]
    fn measured_tables_undercut_the_conservative_preset() {
        // The reclaimed-savings claim in miniature: on average the
        // measured table sits strictly lower than the shipping table
        // with its blanket extra guardband.
        let (chip, measured) = measured_table(7);
        let conservative =
            preset_conservative(chip.vmin_model(), GuardbandPolicy { margin_mv: 30 })
                .expect("widened preset");
        let avg = |t: &PolicyTable| {
            let mut sum = 0u64;
            for fc in [
                FreqVminClass::Divided,
                FreqVminClass::Reduced,
                FreqVminClass::Max,
            ] {
                for dc in DroopClass::ALL {
                    for bucket in 0..PolicyTable::THREAD_BUCKETS {
                        sum += u64::from(t.cell(fc, dc, bucket));
                    }
                }
            }
            sum
        };
        assert!(
            avg(&measured) < avg(&conservative),
            "measured {} >= conservative {}",
            avg(&measured),
            avg(&conservative)
        );
    }
}
