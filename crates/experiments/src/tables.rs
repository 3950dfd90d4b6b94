//! Tables I and II of the paper.

use crate::report::{Cell, Table};
use crate::Machine;
use avfs_chip::freq::FreqVminClass;
use avfs_chip::vmin::DroopClass;
use avfs_core::policy::PolicyTable;

/// Table I: basic parameters of X-Gene 2 and X-Gene 3.
pub fn table1() -> Table {
    let x2 = Machine::XGene2.chip_builder().build();
    let x3 = Machine::XGene3.chip_builder().build();
    let (s2, s3) = (x2.spec().clone(), x3.spec().clone());
    let mut t = Table::new(
        "table1",
        "Table I — basic parameters of X-Gene 2 and X-Gene 3",
        &["parameter", "X-Gene 2", "X-Gene 3"],
    );
    let mut row = |name: &str, a: String, b: String| {
        t.push_row(vec![name.into(), a.into(), b.into()]);
    };
    row(
        "CPU",
        format!("{} cores", s2.cores),
        format!("{} cores", s3.cores),
    );
    row(
        "Core clock",
        format!("{:.1} GHz", s2.fmax_mhz as f64 / 1000.0),
        format!("{:.1} GHz", s3.fmax_mhz as f64 / 1000.0),
    );
    row(
        "L1 I-cache",
        format!("{}KB per core", s2.l1i_kib),
        format!("{}KB per core", s3.l1i_kib),
    );
    row(
        "L1 D-cache",
        format!("{}KB per core", s2.l1d_kib),
        format!("{}KB per core", s3.l1d_kib),
    );
    row(
        "L2 cache",
        format!("{}KB per PMD", s2.l2_kib),
        format!("{}KB per PMD", s3.l2_kib),
    );
    row(
        "L3 cache",
        format!("{}MB", s2.l3_kib / 1024),
        format!("{}MB", s3.l3_kib / 1024),
    );
    row(
        "Technology",
        s2.technology.to_string(),
        s3.technology.to_string(),
    );
    row("TDP", format!("{} W", s2.tdp_w), format!("{} W", s3.tdp_w));
    row(
        "Nominal voltage",
        format!("{} mV", s2.nominal_mv),
        format!("{} mV", s3.nominal_mv),
    );
    t
}

/// Table II: correlation of droop magnitude with utilized PMDs and the
/// safe Vmin at 3 GHz and 1.5 GHz (X-Gene 3).
pub fn table2() -> Table {
    let chip = Machine::XGene3.chip_builder().build();
    let model = chip.vmin_model();
    let mut t = Table::new(
        "table2",
        "Table II — droop magnitude vs utilized PMDs and safe Vmin, X-Gene 3",
        &[
            "droop magnitude",
            "utilized PMDs",
            "thread scaling",
            "Vmin @3GHz (mV)",
            "Vmin @1.5GHz (mV)",
        ],
    );
    let rows = [
        (
            DroopClass::D25,
            "1, 2 PMDs",
            "1T, 2T, 4T(clustered)",
            2usize,
            4usize,
        ),
        (
            DroopClass::D35,
            "4 PMDs",
            "8T(clustered), 4T(spreaded)",
            4,
            8,
        ),
        (
            DroopClass::D45,
            "8 PMDs",
            "16T(clustered), 8T(spreaded)",
            8,
            16,
        ),
        (DroopClass::D55, "16 PMDs", "32T, 16T(spreaded)", 16, 32),
    ];
    for (class, pmds_label, scaling, pmds, threads) in rows {
        let q = |fc| avfs_chip::vmin::VminQuery {
            freq_class: fc,
            utilized_pmds: pmds,
            active_threads: threads,
            workload_sensitivity: 0.0,
        };
        t.push_row(vec![
            class.to_string().into(),
            pmds_label.into(),
            scaling.into(),
            Cell::Int(model.safe_vmin(&q(FreqVminClass::Max)).as_mv() as i64),
            Cell::Int(model.safe_vmin(&q(FreqVminClass::Reduced)).as_mv() as i64),
        ]);
    }
    t
}

/// The daemon-facing version of Table II: the characterized policy table
/// actually deployed (includes workload/static margins).
pub fn table2_policy() -> Table {
    let chip = Machine::XGene3.chip_builder().build();
    let policy = PolicyTable::from_characterization(chip.vmin_model());
    let mut t = Table::new(
        "table2-policy",
        "Table II (deployed policy) — characterized safe voltages with margins, X-Gene 3",
        &[
            "droop class",
            "policy Vmin @3GHz (mV)",
            "policy Vmin @1.5GHz (mV)",
        ],
    );
    for (class, threads) in [
        (DroopClass::D25, 4usize),
        (DroopClass::D35, 8),
        (DroopClass::D45, 16),
        (DroopClass::D55, 32),
    ] {
        t.push_row(vec![
            class.to_string().into(),
            Cell::Int(
                policy
                    .safe_voltage(FreqVminClass::Max, class, threads)
                    .as_mv() as i64,
            ),
            Cell::Int(
                policy
                    .safe_voltage(FreqVminClass::Reduced, class, threads)
                    .as_mv() as i64,
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_verbatim() {
        let t = table1();
        let row = |label: &str| {
            t.row_by_label(label)
                .map(|r| (r[1].to_string(), r[2].to_string()))
                .unwrap()
        };
        assert_eq!(row("CPU"), ("8 cores".into(), "32 cores".into()));
        assert_eq!(row("Core clock"), ("2.4 GHz".into(), "3.0 GHz".into()));
        assert_eq!(row("L3 cache"), ("8MB".into(), "32MB".into()));
        assert_eq!(row("TDP"), ("35 W".into(), "125 W".into()));
        assert_eq!(row("Nominal voltage"), ("980 mV".into(), "870 mV".into()));
        assert_eq!(
            row("L2 cache"),
            ("256KB per PMD".into(), "256KB per PMD".into())
        );
    }

    #[test]
    fn table2_matches_the_paper_verbatim() {
        let t = table2();
        let cases = [
            ("[25mV,35mV)", 780.0, 770.0),
            ("[35mV,45mV)", 800.0, 780.0),
            ("[45mV,55mV)", 810.0, 790.0),
            ("[55mV,65mV)", 830.0, 820.0),
        ];
        for (label, at3, at15) in cases {
            assert_eq!(t.value(label, "Vmin @3GHz (mV)"), Some(at3), "{label}");
            assert_eq!(t.value(label, "Vmin @1.5GHz (mV)"), Some(at15), "{label}");
        }
    }

    #[test]
    fn deployed_policy_is_at_or_above_table2() {
        let raw = table2();
        let deployed = table2_policy();
        for (label, _, _) in [
            ("[25mV,35mV)", 0, 0),
            ("[35mV,45mV)", 0, 0),
            ("[45mV,55mV)", 0, 0),
            ("[55mV,65mV)", 0, 0),
        ] {
            let raw_v = raw.value(label, "Vmin @3GHz (mV)").unwrap();
            let dep_v = deployed.value(label, "policy Vmin @3GHz (mV)").unwrap();
            assert!(dep_v >= raw_v, "{label}: {dep_v} < {raw_v}");
            assert!(dep_v <= raw_v + 25.0, "{label}: margin too large");
        }
    }
}
