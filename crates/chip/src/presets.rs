//! Calibrated presets for the two studied chips, plus a builder for
//! custom variants.
//!
//! The numeric tables here are the reproduction's stand-in for silicon:
//! Vmin rows match Table II (X-Gene 3) and the Figure 3/10 percentages
//! (X-Gene 2: ≈3 % at half speed, ≈15 % with clock division, ≈4 % from
//! core allocation, ≤1 % workload in multicore). Power constants land the
//! full-load and idle operating points near the paper's reported
//! TDP / average-power scales.

use crate::chip::Chip;
use crate::droop::DroopModel;
use crate::failure::FailureModel;
use crate::freq::CppcBehavior;
use crate::power::PowerModel;
use crate::topology::{ChipSpec, Technology};
use crate::vmin::{VminModel, VminTables};
use avfs_sim::RngStream;

/// Builder for a chip instance ([C-BUILDER]); obtain one from
/// [`xgene2`], [`xgene3`], or [`custom`].
#[derive(Debug, Clone)]
pub struct ChipBuilder {
    spec: ChipSpec,
    behavior: CppcBehavior,
    tables: VminTables,
    power: PowerModel,
    droop: DroopModel,
}

impl ChipBuilder {
    /// Re-draws the per-PMD static-variation offsets from `seed`,
    /// modelling a different chip specimen of the same part. The offset
    /// span depends on the process: ±15 mV on 28 nm bulk, ±10 mV on 16 nm
    /// FinFET (§III-A reports ≤30 mV / ≤20 mV core-to-core spreads).
    pub fn static_variation_seed(mut self, seed: u64) -> Self {
        let span = match self.spec.technology {
            Technology::Bulk28nm => 15.0,
            Technology::FinFet16nm => 10.0,
        };
        let mut rng = RngStream::from_root(seed, "chip-static-variation");
        self.tables.pmd_offset_mv = (0..self.spec.pmds())
            .map(|_| rng.uniform(-span, span).round() as i32)
            .collect();
        self
    }

    /// Narrows or widens the guardband: shifts every Vmin table entry by
    /// `delta_mv` (positive = more conservative). Used by the
    /// guardband-sensitivity ablation.
    pub fn guardband_shift_mv(mut self, delta_mv: i32) -> Self {
        for row in &mut self.tables.base_mv {
            for v in row.iter_mut() {
                *v = v.saturating_add_signed(delta_mv);
            }
        }
        self
    }

    /// Read-only view of the spec being built.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// Assembles the chip.
    pub fn build(&self) -> Chip {
        let failure = FailureModel::new(self.tables.unsafe_span_mv);
        let vmin = VminModel::new(self.spec.clone(), self.tables.clone());
        Chip::new(
            self.spec.clone(),
            self.behavior,
            vmin,
            self.power.clone(),
            self.droop.clone(),
            failure,
        )
    }
}

/// The X-Gene 2 preset: 8 cores / 4 PMDs, 2.4 GHz, 980 mV nominal, 28 nm.
pub fn xgene2() -> ChipBuilder {
    let spec = ChipSpec {
        name: "X-Gene 2".into(),
        cores: 8,
        cores_per_pmd: 2,
        fmax_mhz: 2400,
        nominal_mv: 980,
        vreg_floor_mv: 600,
        l1i_kib: 32,
        l1d_kib: 32,
        l2_kib: 256,
        l3_kib: 8 * 1024,
        tdp_w: 35.0,
        technology: Technology::Bulk28nm,
    };
    let tables = VminTables {
        // Rows: Divided (0.9 GHz), Reduced (1.2 GHz), Max (≥1.5 GHz).
        // Columns: droop classes D25/D35/D45/D55; on this 4-PMD chip the
        // utilized-PMD mapping is 1 PMD→D35, 2→D45, 3–4→D55.
        base_mv: [
            // Divided (0.9 GHz): ≈15 % below max (Fig. 10). The
            // core-allocation discount shrinks here — at the divided
            // clock the PDN stress is already low, so allocation buys
            // little extra headroom.
            [735, 745, 755, 765],
            [805, 822, 838, 870], // reduced: ≈3 % below max
            [830, 850, 865, 900], // max frequency
        ],
        // Fig. 4: PMD2 (cores 4,5) is the most robust; PMD0/PMD1 the most
        // sensitive. Spread ≈27 mV ≲ the reported 30 mV core-to-core.
        pmd_offset_mv: vec![12, 10, -15, 0],
        workload_span_mv: 40,
        unsafe_span_mv: 55,
    };
    let power = PowerModel {
        nominal_mv: 980,
        k_dyn_core_w_per_ghz: 1.20,
        k_pmd_w_per_ghz: 0.30,
        k_idle_core_w_per_ghz: 0.08,
        leak_w: 2.0,
        uncore_static_w: 1.2,
        uncore_dyn_w: 0.8,
        cores_per_pmd: 2,
    };
    ChipBuilder {
        spec,
        behavior: CppcBehavior::DivisionBelowHalf,
        tables,
        power,
        droop: DroopModel::default(),
    }
}

/// The X-Gene 3 preset: 32 cores / 16 PMDs, 3.0 GHz, 870 mV nominal,
/// 16 nm FinFET.
pub fn xgene3() -> ChipBuilder {
    let spec = ChipSpec {
        name: "X-Gene 3".into(),
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
        // Max and Reduced rows are Table II verbatim; X-Gene 3 gains
        // nothing below half speed, so Divided == Reduced (§II-B).
        base_mv: [
            [770, 780, 790, 820],
            [770, 780, 790, 820],
            [780, 800, 810, 830],
        ],
        pmd_offset_mv: vec![5, 2, -8, 3, 7, -4, 0, 2, -6, 6, 1, -9, 4, 0, -2, 8],
        workload_span_mv: 20,
        unsafe_span_mv: 45,
    };
    let power = PowerModel {
        nominal_mv: 870,
        k_dyn_core_w_per_ghz: 0.95,
        k_pmd_w_per_ghz: 0.25,
        k_idle_core_w_per_ghz: 0.06,
        leak_w: 8.0,
        uncore_static_w: 4.0,
        uncore_dyn_w: 2.5,
        cores_per_pmd: 2,
    };
    ChipBuilder {
        spec,
        behavior: CppcBehavior::NoBenefitBelowHalf,
        tables,
        power,
        droop: DroopModel::default(),
    }
}

/// A builder seeded from an arbitrary spec; Vmin tables and power
/// constants are scaled heuristically from the closest preset and should
/// be reviewed before drawing conclusions. The preset's per-PMD offsets
/// repeat (or are cut) to give one per PMD of `spec`.
pub fn custom(spec: ChipSpec, behavior: CppcBehavior) -> ChipBuilder {
    let base = match spec.technology {
        Technology::Bulk28nm => xgene2(),
        Technology::FinFet16nm => xgene3(),
    };
    let mut tables = base.tables;
    tables.pmd_offset_mv = tables
        .pmd_offset_mv
        .iter()
        .copied()
        .cycle()
        .take(usize::from(spec.pmds()))
        .collect();
    ChipBuilder {
        spec,
        behavior,
        tables,
        power: base.power,
        droop: base.droop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FreqVminClass;
    use crate::topology::CoreSet;
    use crate::vmin::VminQuery;
    use crate::voltage::Millivolts;

    #[test]
    fn xgene2_matches_table1() {
        let chip = xgene2().build();
        let s = chip.spec();
        assert_eq!(s.cores, 8);
        assert_eq!(s.pmds(), 4);
        assert_eq!(s.fmax_mhz, 2400);
        assert_eq!(s.nominal_mv, 980);
        assert_eq!(s.l3_kib, 8192);
        assert_eq!(s.tdp_w, 35.0);
    }

    #[test]
    fn xgene3_matches_table1() {
        let chip = xgene3().build();
        let s = chip.spec();
        assert_eq!(s.cores, 32);
        assert_eq!(s.pmds(), 16);
        assert_eq!(s.fmax_mhz, 3000);
        assert_eq!(s.nominal_mv, 870);
        assert_eq!(s.l3_kib, 32 * 1024);
        assert_eq!(s.tdp_w, 125.0);
    }

    #[test]
    fn xgene3_table2_values_verbatim() {
        let chip = xgene3().build();
        let m = chip.vmin_model();
        let cases = [
            // (utilized PMDs, threads, Vmin@3GHz, Vmin@1.5GHz) — Table II.
            (2usize, 4usize, 780, 770),
            (4, 8, 800, 780),
            (8, 16, 810, 790),
            (16, 32, 830, 820),
        ];
        for (pmds, threads, at_max, at_half) in cases {
            let q_max = VminQuery {
                freq_class: FreqVminClass::Max,
                utilized_pmds: pmds,
                active_threads: threads,
                workload_sensitivity: 0.0,
            };
            let q_half = VminQuery {
                freq_class: FreqVminClass::Reduced,
                ..q_max
            };
            assert_eq!(m.safe_vmin(&q_max).as_mv(), at_max, "{pmds} PMDs @3GHz");
            assert_eq!(m.safe_vmin(&q_half).as_mv(), at_half, "{pmds} PMDs @1.5GHz");
        }
    }

    #[test]
    fn xgene2_figure10_percentages() {
        let chip = xgene2().build();
        let m = chip.vmin_model();
        let mk = |fc| VminQuery {
            freq_class: fc,
            utilized_pmds: 4,
            active_threads: 8,
            workload_sensitivity: 0.0,
        };
        let vmax = m.safe_vmin(&mk(FreqVminClass::Max)).as_mv() as f64;
        let vred = m.safe_vmin(&mk(FreqVminClass::Reduced)).as_mv() as f64;
        let vdiv = m.safe_vmin(&mk(FreqVminClass::Divided)).as_mv() as f64;
        // Skipping step ≈3 %, division ≈15 % total (Fig. 10: 3 % + 12 %).
        let skip_pct = (vmax - vred) / vmax * 100.0;
        let div_pct = (vmax - vdiv) / vmax * 100.0;
        assert!((2.0..=4.5).contains(&skip_pct), "skip {skip_pct}%");
        assert!((13.0..=17.0).contains(&div_pct), "division {div_pct}%");
        // Core allocation (4 PMDs → 2 PMDs at max freq): ≈4 %.
        let q4 = VminQuery {
            freq_class: FreqVminClass::Max,
            utilized_pmds: 4,
            active_threads: 4,
            workload_sensitivity: 0.0,
        };
        let q2 = VminQuery {
            utilized_pmds: 2,
            ..q4
        };
        let alloc_pct =
            (m.safe_vmin(&q4).as_mv() as f64 - m.safe_vmin(&q2).as_mv() as f64) / vmax * 100.0;
        assert!((2.5..=5.5).contains(&alloc_pct), "allocation {alloc_pct}%");
    }

    #[test]
    fn power_operating_points_are_plausible() {
        let x2 = xgene2().build();
        let p2_full = x2
            .power_model()
            .full_load_power_w(Millivolts::new(980), 4, 2400, 1.0, 0.5);
        assert!(p2_full < 35.0 && p2_full > 20.0, "XG2 full load {p2_full}W");
        let p2_idle = x2.power_model().idle_power_w(Millivolts::new(980), 4);
        assert!(p2_idle < 6.0, "XG2 idle {p2_idle}W");

        let x3 = xgene3().build();
        let p3_full = x3
            .power_model()
            .full_load_power_w(Millivolts::new(870), 16, 3000, 1.0, 0.5);
        assert!(
            p3_full < 125.0 && p3_full > 80.0,
            "XG3 full load {p3_full}W"
        );
        let p3_idle = x3.power_model().idle_power_w(Millivolts::new(870), 16);
        assert!(p3_idle < 20.0, "XG3 idle {p3_idle}W");
    }

    #[test]
    fn static_variation_reseed_changes_offsets() {
        let a = xgene3().static_variation_seed(1);
        let b = xgene3().static_variation_seed(2);
        let chip_a = a.build();
        let chip_b = b.build();
        let offs_a: Vec<i32> = (0..16)
            .map(|i| {
                chip_a
                    .vmin_model()
                    .pmd_offset_mv(crate::topology::PmdId::new(i))
            })
            .collect();
        let offs_b: Vec<i32> = (0..16)
            .map(|i| {
                chip_b
                    .vmin_model()
                    .pmd_offset_mv(crate::topology::PmdId::new(i))
            })
            .collect();
        assert_ne!(offs_a, offs_b);
        // FinFET span bound: ±10 mV.
        assert!(offs_a.iter().all(|&o| (-10..=10).contains(&o)));
    }

    #[test]
    fn guardband_shift_moves_tables() {
        let shifted = xgene3().guardband_shift_mv(20).build();
        let base = xgene3().build();
        let cs = CoreSet::first_n(32);
        assert_eq!(
            shifted.current_safe_vmin(cs).as_mv(),
            base.current_safe_vmin(cs).as_mv() + 20
        );
    }

    #[test]
    fn custom_uses_matching_technology_base() {
        let mut spec = xgene2().spec().clone();
        spec.cores = 16;
        spec.name = "hypothetical-16".into();
        let chip = custom(spec, CppcBehavior::DivisionBelowHalf).build();
        assert_eq!(chip.spec().pmds(), 8);
        // Vmin tables inherited from the 28 nm preset.
        assert_eq!(chip.vmin_model().tables().workload_span_mv, 40);
    }
}
