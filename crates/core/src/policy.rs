//! The characterized safe-Vmin policy table (Table II).
//!
//! The paper deliberately avoids model-based Vmin *prediction* ("the
//! prediction schemes ... are error-prone and can lead to system
//! failures", §VI-A) and instead bakes the offline characterization into
//! a table: for each voltage-droop class (utilized PMDs) and frequency
//! class, the safe Vmin measured across *all* workloads. [`PolicyTable`]
//! is that artifact: it is built from a chip's Vmin model by querying the
//! worst-case (most voltage-hungry) workload at every operating point, so
//! a daemon driving voltages from the table can never undervolt a
//! running configuration.

use avfs_chip::freq::FreqVminClass;
use avfs_chip::vmin::{DroopClass, VminModel, VminQuery};
use avfs_chip::voltage::Millivolts;
use std::fmt;

/// Typed rejection from [`PolicyTable::from_raw`]: the raw cells would
/// build a table the regulator can never honour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyError {
    /// A populated cell sits below the chip's absolute regulator floor —
    /// the daemon would request a voltage the rail refuses, so the table
    /// is rejected at construction instead of at `prove-policy` time.
    CellBelowFloor {
        /// Frequency-class row index (0 = Divided, 1 = Reduced, 2 = Max).
        freq_row: usize,
        /// Droop-class column index (`DroopClass::index()`).
        droop_index: usize,
        /// Thread-bucket index (`0..PolicyTable::THREAD_BUCKETS`).
        bucket: usize,
        /// The offending cell value.
        cell_mv: u32,
        /// The regulator floor the cell violates.
        floor_mv: u32,
    },
    /// A table characterized for a different chip shape was offered to a
    /// daemon: the PMD counts disagree, so every droop-class lookup
    /// would misclassify.
    PmdCountMismatch {
        /// PMDs the table was characterized for.
        table_pmds: usize,
        /// PMDs on the chip the daemon controls.
        chip_pmds: usize,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PolicyError::CellBelowFloor {
                freq_row,
                droop_index,
                bucket,
                cell_mv,
                floor_mv,
            } => write!(
                f,
                "policy cell [fc {freq_row}][dc {droop_index}][bucket {bucket}] = \
                 {cell_mv} mV is below the regulator floor {floor_mv} mV"
            ),
            PolicyError::PmdCountMismatch {
                table_pmds,
                chip_pmds,
            } => write!(
                f,
                "policy table characterized for {table_pmds} PMDs offered to a \
                 {chip_pmds}-PMD chip"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

/// Characterized safe-Vmin lookup for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTable {
    /// `vmin_mv[freq_class][droop_class][threads_bucket]` — worst-case
    /// safe Vmin in millivolts. Thread buckets: 0 → 1 thread, 1 → 2,
    /// 2 → 3–4, 3 → many (the workload-delta decay steps of §III-A).
    vmin_mv: [[[u32; 4]; 4]; 3],
    /// Nominal voltage of the characterized chip.
    nominal_mv: u32,
    /// Total PMDs of the characterized chip.
    pmds: usize,
}

fn freq_row(class: FreqVminClass) -> usize {
    match class {
        FreqVminClass::Divided => 0,
        FreqVminClass::Reduced => 1,
        FreqVminClass::Max => 2,
    }
}

fn thread_bucket(threads: usize) -> usize {
    match threads {
        0 | 1 => 0,
        2 => 1,
        3 | 4 => 2,
        _ => 3,
    }
}

/// Representative thread count per bucket used during characterization
/// (the worst case within the bucket).
fn bucket_rep_threads(bucket: usize) -> usize {
    match bucket {
        0 => 1,
        1 => 2,
        2 => 3, // decay(3) == decay(4); 3 is within the bucket
        _ => 5, // ≥5 threads: the multicore regime
    }
}

impl PolicyTable {
    /// Builds the table by "characterizing" a chip: for every frequency
    /// class, droop class, and thread bucket, record the safe Vmin of the
    /// most voltage-hungry workload (sensitivity +1) on the weakest PMD
    /// combination — exactly what a 1000-run campaign over all benchmarks
    /// converges to.
    pub fn from_characterization(model: &VminModel) -> Self {
        let spec = model.spec();
        let pmds = spec.pmds() as usize;
        let worst_pmd_offset = (0..spec.pmds())
            .map(|i| model.pmd_offset_mv(avfs_chip::topology::PmdId::new(i)))
            .max()
            .unwrap_or(0)
            .max(0);
        let mut vmin_mv = [[[0u32; 4]; 4]; 3];
        for fc in [
            FreqVminClass::Divided,
            FreqVminClass::Reduced,
            FreqVminClass::Max,
        ] {
            for dc in DroopClass::ALL {
                // The largest utilized-PMD count still in this class. On
                // small chips some classes are unachievable (a 4-PMD
                // X-Gene 2 never lands in D25 with ≥1 PMD busy); those
                // entries are filled from the neighbouring class below.
                let utilized = (1..=pmds).rfind(|&u| DroopClass::from_utilized_pmds(spec, u) == dc);
                // The fewest threads that can utilize this many PMDs —
                // combinations below that are physically impossible, so
                // margins need not cover them.
                let min_threads = (1..=pmds)
                    .filter(|&u| DroopClass::from_utilized_pmds(spec, u) == dc)
                    .min()
                    .unwrap_or(1);
                let Some(utilized) = utilized else {
                    continue;
                };
                for (bucket, cell) in vmin_mv[freq_row(fc)][dc.index()].iter_mut().enumerate() {
                    let threads = bucket_rep_threads(bucket).max(min_threads);
                    let q = VminQuery {
                        freq_class: fc,
                        utilized_pmds: utilized,
                        active_threads: threads,
                        workload_sensitivity: 1.0,
                    };
                    let base = model.safe_vmin(&q);
                    // Static variation is visible at low thread counts;
                    // cover the weakest PMD with the same decay the
                    // model applies.
                    let visibility = model.workload_decay(threads);
                    let static_margin = (worst_pmd_offset as f64 * visibility).ceil() as i32;
                    *cell = base.offset(static_margin).as_mv();
                }
            }
            // Fill unachievable classes from the class above (safe and
            // monotone), then enforce monotonicity explicitly.
            let row = &mut vmin_mv[freq_row(fc)];
            // Column-wise fixup across the [droop][bucket] grid; the
            // coordinates themselves are the point of the traversal.
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
        PolicyTable {
            vmin_mv,
            nominal_mv: spec.nominal_mv,
            pmds,
        }
    }

    /// Builds a table from raw cell values, bypassing characterization.
    ///
    /// Exists for the `avfs-characterize` table compiler (measured
    /// margin maps) and for the `avfs-analyze` invariant checker and its
    /// property tests, which construct deliberately broken tables
    /// (holes, inversions) and prove the checker flags them.
    ///
    /// Every populated cell is validated against `floor_mv`, the chip's
    /// absolute regulator floor: a non-zero cell below the floor is a
    /// table the rail can never honour and is rejected with
    /// [`PolicyError::CellBelowFloor`]. Zero cells stay legal — they are
    /// the "uncharacterized hole" sentinel the invariant checker exists
    /// to flag.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::CellBelowFloor`] for the first non-zero
    /// cell strictly below `floor_mv`.
    pub fn from_raw(
        vmin_mv: [[[u32; 4]; 4]; 3],
        nominal_mv: u32,
        floor_mv: u32,
        pmds: usize,
    ) -> Result<Self, PolicyError> {
        for (freq_row, per_droop) in vmin_mv.iter().enumerate() {
            for (droop_index, per_bucket) in per_droop.iter().enumerate() {
                for (bucket, &cell_mv) in per_bucket.iter().enumerate() {
                    if cell_mv != 0 && cell_mv < floor_mv {
                        return Err(PolicyError::CellBelowFloor {
                            freq_row,
                            droop_index,
                            bucket,
                            cell_mv,
                            floor_mv,
                        });
                    }
                }
            }
        }
        Ok(PolicyTable {
            vmin_mv,
            nominal_mv,
            pmds,
        })
    }

    /// Number of thread buckets per (frequency class, droop class) cell.
    pub const THREAD_BUCKETS: usize = 4;

    /// Raw cell value in millivolts, for exhaustive table audits.
    ///
    /// `bucket` indexes the thread buckets (`0..THREAD_BUCKETS`, in the
    /// same order [`PolicyTable::safe_voltage`] resolves thread counts).
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= THREAD_BUCKETS`.
    pub fn cell(&self, freq_class: FreqVminClass, droop_class: DroopClass, bucket: usize) -> u32 {
        assert!(
            bucket < Self::THREAD_BUCKETS,
            "bucket {bucket} out of range"
        );
        self.vmin_mv[freq_row(freq_class)][droop_class.index()][bucket]
    }

    /// The characterized safe voltage for a configuration: frequency
    /// class of the most demanding utilized PMD, droop class from the
    /// utilized-PMD count, and the active thread count (more threads →
    /// less workload spread → lower required margin).
    pub fn safe_voltage(
        &self,
        freq_class: FreqVminClass,
        droop_class: DroopClass,
        active_threads: usize,
    ) -> Millivolts {
        Millivolts::new(
            self.vmin_mv[freq_row(freq_class)][droop_class.index()][thread_bucket(active_threads)],
        )
    }

    /// Convenience: safe voltage from a utilized-PMD count (droop class
    /// computed with this chip's PMD total).
    pub fn safe_voltage_for_pmds(
        &self,
        freq_class: FreqVminClass,
        utilized_pmds: usize,
        active_threads: usize,
    ) -> Millivolts {
        let dc = self.droop_class(utilized_pmds);
        self.safe_voltage(freq_class, dc, active_threads)
    }

    /// Droop class of a utilized-PMD count on the characterized chip.
    pub fn droop_class(&self, utilized_pmds: usize) -> DroopClass {
        // Same fraction thresholds as the chip model (Table II), but
        // computed from the table's recorded PMD count so the policy is
        // self-contained.
        let x8 = utilized_pmds.min(self.pmds) * 8;
        if x8 <= self.pmds {
            DroopClass::D25
        } else if x8 <= 2 * self.pmds {
            DroopClass::D35
        } else if x8 <= 4 * self.pmds {
            DroopClass::D45
        } else {
            DroopClass::D55
        }
    }

    /// The characterized chip's nominal voltage.
    pub fn nominal(&self) -> Millivolts {
        Millivolts::new(self.nominal_mv)
    }

    /// The single voltage that is safe for *every* configuration at the
    /// given frequency class — the paper's "change the nominal voltage of
    /// the microprocessor to the safe Vmin" (§VI-B, the Safe Vmin
    /// configuration): the maximum table entry of the row.
    pub fn static_safe_voltage(&self, freq_class: FreqVminClass) -> Millivolts {
        let row = &self.vmin_mv[freq_row(freq_class)];
        let max = row
            .iter()
            .flat_map(|per_bucket| per_bucket.iter())
            .copied()
            .max()
            .unwrap_or(self.nominal_mv);
        Millivolts::new(max)
    }

    /// Total PMDs on the characterized chip.
    pub fn pmds(&self) -> usize {
        self.pmds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_chip::presets;
    use avfs_chip::topology::{CoreId, CoreSet};

    fn xg3_table() -> PolicyTable {
        PolicyTable::from_characterization(presets::xgene3().build().vmin_model())
    }

    fn xg2_table() -> PolicyTable {
        PolicyTable::from_characterization(presets::xgene2().build().vmin_model())
    }

    #[test]
    fn table_is_monotone_in_droop_class() {
        for table in [xg2_table(), xg3_table()] {
            for fc in [
                FreqVminClass::Divided,
                FreqVminClass::Reduced,
                FreqVminClass::Max,
            ] {
                for threads in [1usize, 2, 4, 32] {
                    let mut prev = Millivolts::new(0);
                    for dc in DroopClass::ALL {
                        let v = table.safe_voltage(fc, dc, threads);
                        assert!(v >= prev, "droop monotonicity violated");
                        prev = v;
                    }
                }
            }
        }
    }

    #[test]
    fn table_is_monotone_in_freq_class() {
        let table = xg3_table();
        for dc in DroopClass::ALL {
            for threads in [1usize, 8, 32] {
                let div = table.safe_voltage(FreqVminClass::Divided, dc, threads);
                let red = table.safe_voltage(FreqVminClass::Reduced, dc, threads);
                let max = table.safe_voltage(FreqVminClass::Max, dc, threads);
                assert!(div <= red && red <= max);
            }
        }
    }

    #[test]
    fn more_threads_need_no_more_margin() {
        let table = xg3_table();
        for dc in DroopClass::ALL {
            let one = table.safe_voltage(FreqVminClass::Max, dc, 1);
            let many = table.safe_voltage(FreqVminClass::Max, dc, 32);
            assert!(many <= one, "margin must shrink with thread count");
        }
    }

    #[test]
    fn table_voltage_covers_every_workload_on_the_chip() {
        // The whole point: driving voltage from the table must be safe for
        // any allocation in the matching class running any workload.
        let chip = presets::xgene3().build();
        let model = chip.vmin_model();
        let table = xg3_table();
        for utilized in 1..=16usize {
            let threads = utilized * 2; // clustered fill
            let dc = table.droop_class(utilized);
            let policy_v = table.safe_voltage(FreqVminClass::Max, dc, threads);
            // Worst-case workload on the weakest PMDs of that count.
            let q = VminQuery {
                freq_class: FreqVminClass::Max,
                utilized_pmds: utilized,
                active_threads: threads,
                workload_sensitivity: 1.0,
            };
            let pmd_ids = (0..utilized as u16).map(avfs_chip::topology::PmdId::new);
            let real_v = model.safe_vmin_on(&q, pmd_ids);
            assert!(
                policy_v >= real_v,
                "{utilized} PMDs: policy {policy_v} < real {real_v}"
            );
        }
    }

    #[test]
    fn single_thread_worst_case_is_covered() {
        // The table must also cover a single sensitive thread on the
        // weakest PMD — the hardest case for the margin logic.
        let chip = presets::xgene2().build();
        let model = chip.vmin_model();
        let table = xg2_table();
        let weakest = (0..4u16)
            .map(avfs_chip::topology::PmdId::new)
            .max_by_key(|&p| model.pmd_offset_mv(p))
            .unwrap();
        let q = VminQuery {
            freq_class: FreqVminClass::Max,
            utilized_pmds: 1,
            active_threads: 1,
            workload_sensitivity: 1.0,
        };
        let real = model.safe_vmin_on(&q, [weakest]);
        let policy = table.safe_voltage_for_pmds(FreqVminClass::Max, 1, 1);
        assert!(policy >= real, "policy {policy} < real {real}");
    }

    #[test]
    fn table_beats_nominal_everywhere() {
        // The guardband exists: every table entry is below nominal.
        for table in [xg2_table(), xg3_table()] {
            for fc in [
                FreqVminClass::Divided,
                FreqVminClass::Reduced,
                FreqVminClass::Max,
            ] {
                for dc in DroopClass::ALL {
                    for threads in [1usize, 2, 4, 16] {
                        assert!(table.safe_voltage(fc, dc, threads) < table.nominal());
                    }
                }
            }
        }
    }

    #[test]
    fn xgene3_multicore_values_track_table2() {
        // With margins, the multicore policy voltages sit at or slightly
        // above the Table II values (830/820 etc.), never below.
        let table = xg3_table();
        let v = table.safe_voltage_for_pmds(FreqVminClass::Max, 16, 32);
        assert!(v.as_mv() >= 830 && v.as_mv() <= 845, "got {v}");
        let v2 = table.safe_voltage_for_pmds(FreqVminClass::Reduced, 16, 32);
        assert!(v2.as_mv() >= 820 && v2.as_mv() <= 835, "got {v2}");
    }

    #[test]
    fn droop_class_matches_chip_model() {
        let chip = presets::xgene3().build();
        let table = xg3_table();
        let spec = chip.spec();
        for utilized in 0..=16usize {
            assert_eq!(
                table.droop_class(utilized),
                DroopClass::from_utilized_pmds(spec, utilized),
                "utilized={utilized}"
            );
        }
    }

    #[test]
    fn from_raw_rejects_cells_below_the_floor() {
        let chip = presets::xgene2().build();
        let good = xg2_table();
        let spec = chip.spec();
        let mut cells = [[[0u32; 4]; 4]; 3];
        for (fi, fc) in [
            FreqVminClass::Divided,
            FreqVminClass::Reduced,
            FreqVminClass::Max,
        ]
        .into_iter()
        .enumerate()
        {
            for dc in DroopClass::ALL {
                #[allow(clippy::needless_range_loop)]
                for bucket in 0..PolicyTable::THREAD_BUCKETS {
                    cells[fi][dc.index()][bucket] = good.cell(fc, dc, bucket);
                }
            }
        }
        // The clean copy round-trips.
        let rebuilt = PolicyTable::from_raw(
            cells,
            spec.nominal_mv,
            spec.vreg_floor_mv,
            spec.pmds() as usize,
        )
        .expect("clean table");
        assert_eq!(rebuilt, good);
        // A sub-floor cell is a typed error naming the coordinates.
        let mut bad = cells;
        bad[2][1][0] = spec.vreg_floor_mv - 1;
        let err = PolicyTable::from_raw(
            bad,
            spec.nominal_mv,
            spec.vreg_floor_mv,
            spec.pmds() as usize,
        )
        .expect_err("sub-floor cell");
        assert_eq!(
            err,
            PolicyError::CellBelowFloor {
                freq_row: 2,
                droop_index: 1,
                bucket: 0,
                cell_mv: spec.vreg_floor_mv - 1,
                floor_mv: spec.vreg_floor_mv,
            }
        );
        // A zeroed hole stays constructible — the invariant checker's job.
        let mut hole = cells;
        hole[0][0][0] = 0;
        PolicyTable::from_raw(
            hole,
            spec.nominal_mv,
            spec.vreg_floor_mv,
            spec.pmds() as usize,
        )
        .expect("holes are legal");
    }

    #[test]
    fn chip_accepts_policy_voltages() {
        // Every policy voltage is within the regulated range — the daemon
        // can actually program it.
        let mut chip = presets::xgene3().build();
        let table = xg3_table();
        let busy = CoreSet::from_bits((1u64 << 32) - 1);
        let v = table.safe_voltage_for_pmds(FreqVminClass::Max, 16, 32);
        chip.set_voltage(v).expect("in range");
        assert!(chip.is_voltage_safe_for(busy));
        let _ = CoreId::new(0);
    }
}
