//! The safe-Vmin surface: the paper's central empirical finding.
//!
//! §III–IV of the paper establish that in multicore executions the safe
//! minimum voltage is determined almost entirely by two factors:
//!
//! 1. the **frequency class** (clock skipping vs. division, [`crate::freq`]);
//! 2. the **voltage-droop class**, i.e. how many PMDs are utilized
//!    (Table II: 1–2, ≤4, ≤8, ≤16 PMDs on X-Gene 3).
//!
//! The *workload* contributes ≤1 % in multicore runs (Figure 3) and up to
//! ≈4 % in single/two-core runs (Figure 4), and individual PMDs carry a
//! static-variation offset (≤30 mV on 28 nm X-Gene 2, ≤20 mV on 16 nm
//! X-Gene 3). [`VminModel`] reproduces exactly that surface; Figure 10's
//! decomposition (division 12 %, skipping 3 %, allocation 4 %, workload
//! 1 %) falls out of the calibrated tables.

use crate::freq::FreqVminClass;
use crate::topology::{ChipSpec, PmdId};
use crate::voltage::Millivolts;
use std::fmt;

/// Voltage-droop magnitude class, Table II of the paper.
///
/// The class is determined by the fraction of the chip's PMDs that are
/// utilized; each class corresponds to a droop-magnitude band and a safe
/// Vmin per frequency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DroopClass {
    /// [25 mV, 35 mV): up to 1/8 of the PMDs utilized (1–2 PMDs on
    /// X-Gene 3; 1T/2T/4T-clustered in Table II).
    D25,
    /// [35 mV, 45 mV): up to 1/4 of the PMDs (4 PMDs on X-Gene 3;
    /// 8T-clustered / 4T-spreaded).
    D35,
    /// [45 mV, 55 mV): up to 1/2 of the PMDs (8 PMDs on X-Gene 3;
    /// 16T-clustered / 8T-spreaded).
    D45,
    /// [55 mV, 65 mV): more than half of the PMDs (16 PMDs on X-Gene 3;
    /// 32T / 16T-spreaded).
    D55,
}

impl DroopClass {
    /// All classes in ascending droop-magnitude order.
    pub const ALL: [DroopClass; 4] = [
        DroopClass::D25,
        DroopClass::D35,
        DroopClass::D45,
        DroopClass::D55,
    ];

    /// The droop-magnitude band `[lo, hi)` of this class, in millivolts.
    pub fn magnitude_band_mv(self) -> (u32, u32) {
        match self {
            DroopClass::D25 => (25, 35),
            DroopClass::D35 => (35, 45),
            DroopClass::D45 => (45, 55),
            DroopClass::D55 => (55, 65),
        }
    }

    /// Classifies an allocation by the fraction of PMDs it utilizes.
    ///
    /// Thresholds are fractions of the chip (1/8, 1/4, 1/2, 1) so the same
    /// rule covers the 4-PMD X-Gene 2 and the 16-PMD X-Gene 3; on X-Gene 3
    /// this reproduces Table II exactly (1–2 / 4 / 8 / 16 PMDs).
    ///
    /// Zero utilized PMDs (idle chip) classify as the lowest class.
    ///
    /// # Panics
    ///
    /// Panics if `utilized` exceeds the chip's PMD count.
    pub fn from_utilized_pmds(spec: &ChipSpec, utilized: usize) -> DroopClass {
        let total = spec.pmds() as usize;
        assert!(
            utilized <= total,
            "{utilized} utilized PMDs on a {total}-PMD chip"
        );
        // Compare as utilized*8 <=> total to avoid floating point.
        let x8 = utilized * 8;
        if x8 <= total {
            DroopClass::D25
        } else if x8 <= 2 * total {
            DroopClass::D35
        } else if x8 <= 4 * total {
            DroopClass::D45
        } else {
            DroopClass::D55
        }
    }

    /// Index of the class (0..4), for table lookups.
    pub fn index(self) -> usize {
        match self {
            DroopClass::D25 => 0,
            DroopClass::D35 => 1,
            DroopClass::D45 => 2,
            DroopClass::D55 => 3,
        }
    }

    /// The next-higher class, saturating at [`DroopClass::D55`].
    pub fn next_up(self) -> DroopClass {
        match self {
            DroopClass::D25 => DroopClass::D35,
            DroopClass::D35 => DroopClass::D45,
            DroopClass::D45 => DroopClass::D55,
            DroopClass::D55 => DroopClass::D55,
        }
    }
}

impl fmt::Display for DroopClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.magnitude_band_mv();
        write!(f, "[{lo}mV,{hi}mV)")
    }
}

/// Calibrated safe-Vmin tables and variation magnitudes for one chip.
///
/// `base_mv[freq_class][droop_class]` is the chip-level safe Vmin before
/// static-variation and workload corrections; rows are indexed by
/// [`FreqVminClass`] (`Divided`, `Reduced`, `Max`), columns by
/// [`DroopClass`].
#[derive(Debug, Clone, PartialEq)]
pub struct VminTables {
    /// Base safe Vmin per `[freq class][droop class]`, millivolts.
    pub base_mv: [[u32; 4]; 3],
    /// Per-PMD static-variation offsets, millivolts (positive = weaker
    /// PMD, needs more voltage). Indexed by PMD, one entry per PMD.
    pub pmd_offset_mv: Vec<i32>,
    /// Largest workload-induced Vmin delta at single-thread, millivolts.
    /// The delta decays with thread count (Figure 3 vs. Figure 4).
    pub workload_span_mv: u32,
    /// Voltage span below safe Vmin over which failure probability ramps
    /// from 0 to ~1 (the "unsafe region" width of Figures 4/5).
    pub unsafe_span_mv: u32,
}

fn freq_row(class: FreqVminClass) -> usize {
    match class {
        FreqVminClass::Divided => 0,
        FreqVminClass::Reduced => 1,
        FreqVminClass::Max => 2,
    }
}

/// A fully specified operating configuration whose safe Vmin is wanted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VminQuery {
    /// The frequency class of the most demanding active PMD.
    pub freq_class: FreqVminClass,
    /// Number of utilized PMDs.
    pub utilized_pmds: usize,
    /// Number of active threads (drives workload-delta decay).
    pub active_threads: usize,
    /// Workload sensitivity in `[-1, +1]`: the benchmark's position within
    /// the workload-to-workload Vmin spread (0 for "typical").
    pub workload_sensitivity: f64,
}

/// The safe-Vmin model for one chip instance.
#[derive(Debug, Clone, PartialEq)]
pub struct VminModel {
    spec: ChipSpec,
    tables: VminTables,
}

impl VminModel {
    /// Builds the model from a spec and its calibrated tables.
    ///
    /// # Panics
    ///
    /// Panics if the tables are not monotone (Vmin must not decrease with
    /// droop class or frequency class), or unless they hold exactly one
    /// static-variation offset per PMD of `spec`.
    pub fn new(spec: ChipSpec, tables: VminTables) -> Self {
        for row in &tables.base_mv {
            for w in row.windows(2) {
                assert!(w[0] <= w[1], "Vmin must be monotone in droop class");
            }
        }
        for col in 0..4 {
            assert!(
                tables.base_mv[0][col] <= tables.base_mv[1][col]
                    && tables.base_mv[1][col] <= tables.base_mv[2][col],
                "Vmin must be monotone in frequency class"
            );
        }
        assert_eq!(
            tables.pmd_offset_mv.len(),
            usize::from(spec.pmds()),
            "need exactly one PMD offset per PMD"
        );
        VminModel { spec, tables }
    }

    /// The chip spec this model was calibrated for.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// The calibrated tables.
    pub fn tables(&self) -> &VminTables {
        &self.tables
    }

    /// The static-variation offset of a PMD, in millivolts.
    ///
    /// # Panics
    ///
    /// Panics if `pmd` is out of range.
    pub fn pmd_offset_mv(&self, pmd: PmdId) -> i32 {
        self.tables.pmd_offset_mv[pmd.index()]
    }

    /// How much of the workload span applies at a given thread count.
    ///
    /// Mirrors the paper: full spread at 1–2 threads (Figure 4), ≈1 % of
    /// nominal at high thread counts (Figure 3).
    pub fn workload_decay(&self, active_threads: usize) -> f64 {
        match active_threads {
            0 | 1 => 1.0,
            2 => 0.75,
            3 | 4 => 0.35,
            _ => {
                // Fade towards the multicore floor of ~0.15 by half-chip
                // occupancy.
                let half = (self.spec.cores as f64 / 2.0).max(1.0);
                let t = (active_threads as f64 / half).min(1.0);
                (0.35 - 0.20 * t).max(0.15)
            }
        }
    }

    /// Chip-level safe Vmin for a configuration, *before* per-PMD static
    /// variation (i.e. the value Figure 3 reports per benchmark).
    pub fn safe_vmin(&self, q: &VminQuery) -> Millivolts {
        let droop = DroopClass::from_utilized_pmds(&self.spec, q.utilized_pmds);
        let base = self.tables.base_mv[freq_row(q.freq_class)][droop.index()];
        let decay = self.workload_decay(q.active_threads);
        let delta =
            q.workload_sensitivity.clamp(-1.0, 1.0) * self.tables.workload_span_mv as f64 * decay
                / 2.0;
        Millivolts::new(base).offset(delta.round() as i32)
    }

    /// Safe Vmin for a configuration pinned to specific PMDs, including
    /// their static-variation offsets (the per-core curves of Figure 4).
    ///
    /// The chip-wide rail must satisfy the weakest utilized PMD, so the
    /// maximum offset among `pmds` applies.
    pub fn safe_vmin_on(&self, q: &VminQuery, pmds: impl IntoIterator<Item = PmdId>) -> Millivolts {
        let base = self.safe_vmin(q);
        let worst = pmds
            .into_iter()
            .map(|p| self.pmd_offset_mv(p))
            .max()
            .unwrap_or(0);
        // Static variation is most visible at low thread counts; in
        // many-PMD runs the droop noise dominates and the per-PMD spread
        // washes out (paper §III-A).
        let visibility = self.workload_decay(q.active_threads);
        base.offset((worst as f64 * visibility).round() as i32)
    }

    /// The voltage below which execution is certain to fail (the bottom of
    /// the unsafe region / "system crash point").
    pub fn crash_point(&self, safe: Millivolts) -> Millivolts {
        safe.saturating_sub(Millivolts::new(self.tables.unsafe_span_mv))
    }

    /// The droop class of an allocation utilizing `utilized_pmds` PMDs.
    pub fn droop_class(&self, utilized_pmds: usize) -> DroopClass {
        DroopClass::from_utilized_pmds(&self.spec, utilized_pmds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Technology;

    fn xgene3_like() -> VminModel {
        let spec = ChipSpec {
            name: "xg3".into(),
            cores: 32,
            cores_per_pmd: 2,
            fmax_mhz: 3000,
            nominal_mv: 870,
            vreg_floor_mv: 600,
            l1i_kib: 32,
            l1d_kib: 32,
            l2_kib: 256,
            l3_kib: 32 * 1024,
            tdp_w: 125.0,
            technology: Technology::FinFet16nm,
        };
        let tables = VminTables {
            // rows: Divided, Reduced, Max — X-Gene 3 Table II values,
            // with Divided == Reduced (no benefit below half speed).
            base_mv: [
                [770, 780, 790, 820],
                [770, 780, 790, 820],
                [780, 800, 810, 830],
            ],
            pmd_offset_mv: vec![5, 0, -10, 3, 8, -5, 0, 2, -3, 6, 1, -8, 4, 0, -2, 7],
            workload_span_mv: 20,
            unsafe_span_mv: 50,
        };
        VminModel::new(spec, tables)
    }

    #[test]
    fn droop_class_matches_table2_on_xgene3() {
        let m = xgene3_like();
        let spec = m.spec();
        // Table II: 1–2 PMDs → [25,35); 4 → [35,45); 8 → [45,55); 16 → [55,65).
        assert_eq!(DroopClass::from_utilized_pmds(spec, 1), DroopClass::D25);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 2), DroopClass::D25);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 3), DroopClass::D35);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 4), DroopClass::D35);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 8), DroopClass::D45);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 9), DroopClass::D55);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 16), DroopClass::D55);
    }

    #[test]
    fn droop_class_scales_to_small_chips() {
        let mut m = xgene3_like();
        // Shrink to an X-Gene 2-like 4-PMD chip via a fresh spec.
        m.spec.cores = 8;
        let spec = &m.spec;
        assert_eq!(spec.pmds(), 4);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 0), DroopClass::D25);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 1), DroopClass::D35);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 2), DroopClass::D45);
        assert_eq!(DroopClass::from_utilized_pmds(spec, 4), DroopClass::D55);
    }

    #[test]
    fn table2_vmin_values_reproduce() {
        let m = xgene3_like();
        // 32T @3GHz: 16 PMDs, max class → 830 mV.
        let q = VminQuery {
            freq_class: FreqVminClass::Max,
            utilized_pmds: 16,
            active_threads: 32,
            workload_sensitivity: 0.0,
        };
        assert_eq!(m.safe_vmin(&q).as_mv(), 830);
        // 16T clustered @1.5GHz: 8 PMDs, reduced → 790 mV.
        let q2 = VminQuery {
            freq_class: FreqVminClass::Reduced,
            utilized_pmds: 8,
            active_threads: 16,
            workload_sensitivity: 0.0,
        };
        assert_eq!(m.safe_vmin(&q2).as_mv(), 790);
    }

    #[test]
    fn workload_delta_fades_with_threads() {
        let m = xgene3_like();
        let mk = |threads, sens: f64| VminQuery {
            freq_class: FreqVminClass::Max,
            utilized_pmds: 16,
            active_threads: threads,
            workload_sensitivity: sens,
        };
        let spread_1t = m.safe_vmin(&mk(1, 1.0)) - m.safe_vmin(&mk(1, -1.0));
        let spread_32t = m.safe_vmin(&mk(32, 1.0)) - m.safe_vmin(&mk(32, -1.0));
        assert!(spread_1t > spread_32t);
        // Multicore spread stays within ~1 % of nominal (Figure 3).
        assert!(spread_32t as f64 <= 0.012 * 870.0, "spread {spread_32t}mV");
        // Single-thread spread reaches the calibrated span.
        assert_eq!(spread_1t, 20);
    }

    #[test]
    fn pmd_static_variation_applies_at_low_thread_count() {
        let m = xgene3_like();
        let q = VminQuery {
            freq_class: FreqVminClass::Max,
            utilized_pmds: 1,
            active_threads: 1,
            workload_sensitivity: 0.0,
        };
        let weak = m.safe_vmin_on(&q, [PmdId::new(4)]); // +8 mV
        let strong = m.safe_vmin_on(&q, [PmdId::new(2)]); // -10 mV
        assert!(weak > strong);
        assert_eq!(weak - strong, 18);
    }

    #[test]
    fn rail_must_satisfy_weakest_pmd() {
        let m = xgene3_like();
        let q = VminQuery {
            freq_class: FreqVminClass::Max,
            utilized_pmds: 2,
            active_threads: 2,
            workload_sensitivity: 0.0,
        };
        let both = m.safe_vmin_on(&q, [PmdId::new(2), PmdId::new(4)]);
        let weak_only = m.safe_vmin_on(&q, [PmdId::new(4)]);
        assert_eq!(both, weak_only);
    }

    #[test]
    fn crash_point_below_safe() {
        let m = xgene3_like();
        let safe = Millivolts::new(800);
        assert_eq!(m.crash_point(safe).as_mv(), 750);
    }

    #[test]
    fn vmin_monotone_in_freq_class() {
        let m = xgene3_like();
        for pmds in [1usize, 4, 8, 16] {
            let mk = |fc| VminQuery {
                freq_class: fc,
                utilized_pmds: pmds,
                active_threads: pmds * 2,
                workload_sensitivity: 0.0,
            };
            let div = m.safe_vmin(&mk(FreqVminClass::Divided));
            let red = m.safe_vmin(&mk(FreqVminClass::Reduced));
            let max = m.safe_vmin(&mk(FreqVminClass::Max));
            assert!(div <= red && red <= max);
        }
    }

    #[test]
    #[should_panic(expected = "monotone in droop class")]
    fn rejects_non_monotone_tables() {
        let m = xgene3_like();
        let mut tables = m.tables().clone();
        tables.base_mv[2][0] = 900; // above column 1
        let _ = VminModel::new(m.spec().clone(), tables);
    }

    #[test]
    #[should_panic(expected = "one PMD offset per PMD")]
    fn rejects_an_offset_table_shorter_than_the_pmds() {
        let chip = crate::presets::xgene2().build();
        let mut tables = chip.vmin_model().tables().clone();
        assert_eq!(chip.spec().pmds(), 4);
        tables.pmd_offset_mv.truncate(3);
        let _ = VminModel::new(chip.spec().clone(), tables);
    }

    #[test]
    fn magnitude_bands_cover_25_to_65() {
        let mut lo_expected = 25;
        for c in DroopClass::ALL {
            let (lo, hi) = c.magnitude_band_mv();
            assert_eq!(lo, lo_expected);
            assert_eq!(hi, lo + 10);
            lo_expected = hi;
        }
    }

    #[test]
    fn next_up_saturates() {
        assert_eq!(DroopClass::D25.next_up(), DroopClass::D35);
        assert_eq!(DroopClass::D55.next_up(), DroopClass::D55);
    }
}
