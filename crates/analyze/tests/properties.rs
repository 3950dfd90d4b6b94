//! Tests proving the invariant registry *detects* broken artifacts: for
//! each of three invariant classes (table monotonicity, guardband
//! positivity, policy-table totality) we inject every corruption of a
//! family into an otherwise-clean preset and assert the matching
//! invariant fires, while the untouched presets stay violation-free.
//! Each test enumerates its family and asserts how many cases it ran.

use avfs_analyze::invariant::check_all;
use avfs_analyze::AnalysisContext;
use avfs_core::policy::PolicyTable;

/// Names of the invariants that fired against `cx`.
fn fired(cx: &AnalysisContext) -> Vec<&'static str> {
    let mut names: Vec<_> = check_all(cx).into_iter().map(|v| v.invariant).collect();
    names.dedup();
    names
}

/// A full policy-table array everywhere equal to the clean preset's own
/// characterized cells, extracted through the public accessor.
fn raw_policy_cells(cx: &AnalysisContext) -> [[[u32; 4]; 4]; 3] {
    use avfs_chip::freq::FreqVminClass;
    use avfs_chip::vmin::DroopClass;
    let classes = [
        FreqVminClass::Divided,
        FreqVminClass::Reduced,
        FreqVminClass::Max,
    ];
    let mut cells = [[[0u32; 4]; 4]; 3];
    for (fi, fc) in classes.into_iter().enumerate() {
        for (di, dc) in DroopClass::ALL.into_iter().enumerate() {
            for (bucket, cell) in cells[fi][di].iter_mut().enumerate() {
                *cell = cx.policy.cell(fc, dc, bucket);
            }
        }
    }
    cells
}

#[test]
fn clean_presets_have_no_violations() {
    for cx in AnalysisContext::presets() {
        let violations = check_all(&cx);
        assert!(
            violations.is_empty(),
            "{}: unexpected violations: {violations:?}",
            cx.name
        );
    }
}

/// Class 1a (monotonicity): raising a base-Vmin cell above its
/// right-hand droop neighbour must trip the droop-monotonicity check.
#[test]
fn droop_monotonicity_inversions_are_detected() {
    let mut cases = 0;
    for cx in AnalysisContext::presets() {
        for fc in 0..3 {
            for dc in 0..3 {
                for delta in 1u32..60 {
                    let mut tables = cx.tables.clone();
                    tables.base_mv[fc][dc] = tables.base_mv[fc][dc + 1] + delta;
                    let broken = cx.clone().with_tables(tables);
                    assert!(
                        fired(&broken).contains(&"vmin-droop-monotone"),
                        "{}: inversion at base_mv[{fc}][{dc}] went undetected",
                        cx.name
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 1_062);
}

/// Class 1b (monotonicity): raising a cell above the same droop
/// column's next frequency class must trip the frequency-monotonicity
/// check.
#[test]
fn freq_monotonicity_inversions_are_detected() {
    let mut cases = 0;
    for cx in AnalysisContext::presets() {
        for fc in 0..2 {
            for dc in 0..4 {
                for delta in 1u32..60 {
                    let mut tables = cx.tables.clone();
                    tables.base_mv[fc][dc] = tables.base_mv[fc + 1][dc] + delta;
                    let broken = cx.clone().with_tables(tables);
                    assert!(
                        fired(&broken).contains(&"vmin-freq-monotone"),
                        "{}: inversion at base_mv[{fc}][{dc}] went undetected",
                        cx.name
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 944);
}

/// Class 2 (guardband): a non-positive unsafe-region span means the
/// crash point coincides with the safe Vmin — must always be caught.
#[test]
fn collapsed_guardbands_are_detected() {
    let mut cases = 0;
    for cx in AnalysisContext::presets() {
        let mut tables = cx.tables.clone();
        tables.unsafe_span_mv = 0;
        let broken = cx.clone().with_tables(tables);
        assert!(
            fired(&broken).contains(&"guardband-positive"),
            "{}: zero unsafe span went undetected",
            cx.name
        );
        cases += 1;
    }
    assert_eq!(cases, 2);
}

/// Class 2, stronger form: a guardband wider than the smallest base
/// Vmin saturates some crash point to 0mV, which is equally fatal.
#[test]
fn oversized_guardbands_are_detected() {
    let mut cases = 0;
    for cx in AnalysisContext::presets() {
        let min_base = cx
            .tables
            .base_mv
            .iter()
            .flatten()
            .copied()
            .min()
            .unwrap_or(0);
        for extra in 1u32..200 {
            let mut tables = cx.tables.clone();
            tables.unsafe_span_mv = min_base + extra;
            let broken = cx.clone().with_tables(tables);
            assert!(
                fired(&broken).contains(&"guardband-positive"),
                "{}: guardband {extra}mV wider than the smallest base Vmin went undetected",
                cx.name
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 398);
}

/// Class 3 (totality): zeroing any single policy cell leaves an
/// uncharacterized V/F operating point and must trip the totality
/// check.
#[test]
fn missing_policy_cells_are_detected() {
    let mut cases = 0;
    for cx in AnalysisContext::presets() {
        for fc in 0..3 {
            for dc in 0..4 {
                for bucket in 0..4 {
                    let mut cells = raw_policy_cells(&cx);
                    cells[fc][dc][bucket] = 0;
                    let hole = PolicyTable::from_raw(
                        cells,
                        cx.policy.nominal().as_mv(),
                        cx.spec.vreg_floor_mv,
                        cx.spec.pmds() as usize,
                    )
                    .expect("zero holes are legal raw cells");
                    let broken = cx.clone().with_policy(hole);
                    assert!(
                        fired(&broken).contains(&"policy-totality"),
                        "{}: missing policy cell [{fc}][{dc}][{bucket}] went undetected",
                        cx.name
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 96);
}

/// Rebuilding the policy from its own extracted cells changes nothing:
/// the clean round-trip stays violation-free, so the detections above
/// are caused by the injected corruption alone.
#[test]
fn policy_round_trip_stays_clean() {
    let mut cases = 0;
    for cx in AnalysisContext::presets() {
        let cells = raw_policy_cells(&cx);
        let rebuilt = PolicyTable::from_raw(
            cells,
            cx.policy.nominal().as_mv(),
            cx.spec.vreg_floor_mv,
            cx.spec.pmds() as usize,
        )
        .expect("extracted cells are above the floor");
        let cx = cx.with_policy(rebuilt);
        assert!(fired(&cx).is_empty(), "{}: {:?}", cx.name, fired(&cx));
        cases += 1;
    }
    assert_eq!(cases, 2);
}
