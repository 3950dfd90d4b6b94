//! The registered domain invariants.
//!
//! Grouped by the artifact they inspect:
//!
//! * **Tables** — the raw [`avfs_chip::vmin::VminTables`], checked without
//!   constructing a `VminModel` (whose constructor panics on bad tables,
//!   which would turn a finding into a crash).
//! * **Model** — queries against the built chip's validated model.
//! * **Topology** — structural well-formedness of the
//!   [`ChipSpec`](avfs_chip::topology::ChipSpec).
//! * **Policy** — the characterized [`PolicyTable`]: totality over every
//!   `FreqVminClass × DroopClass × thread-bucket` cell, the rail window,
//!   and monotonicity. That the table covers the model is proved by
//!   `prove-policy` ([`crate::proof`]), on the weakest PMDs at every
//!   thread count.
//! * **Power/EDP** — non-negativity and voltage monotonicity of the power
//!   model, and sanity of the ED²P scaling estimates.

use crate::context::AnalysisContext;
use crate::invariant::{Invariant, Violation};
use avfs_chip::freq::{FreqStep, FreqVminClass};
use avfs_chip::power::{PmdLoad, PowerInputs};
use avfs_chip::vmin::{DroopClass, VminQuery};
use avfs_chip::voltage::Millivolts;
use avfs_core::edp::scaling_estimate;
use avfs_core::policy::PolicyTable;

/// Frequency classes in ascending voltage-demand order, with the
/// matching row index of `VminTables::base_mv`.
const FREQ_CLASSES: [(FreqVminClass, usize, &str); 3] = [
    (FreqVminClass::Divided, 0, "Divided"),
    (FreqVminClass::Reduced, 1, "Reduced"),
    (FreqVminClass::Max, 2, "Max"),
];

const DROOP_NAMES: [&str; 4] = ["D25", "D35", "D45", "D55"];

fn violation(invariant: &'static str, location: String, message: String) -> Violation {
    Violation {
        invariant,
        location,
        message,
    }
}

/// Every registered invariant, in report order.
pub fn all() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(VminDroopMonotone),
        Box::new(VminFreqMonotone),
        Box::new(VminWithinRail),
        Box::new(VminPmdOffsets),
        Box::new(GuardbandPositive),
        Box::new(CrashPointBelowSafe),
        Box::new(VminPmdCountMonotone),
        Box::new(WorkloadDecayBounded),
        Box::new(TopologyWellFormed),
        Box::new(FreqClassTotalMonotone),
        Box::new(DroopClassTotalMonotone),
        Box::new(PolicyTotality),
        Box::new(PolicyWithinRail),
        Box::new(PolicyMonotone),
        Box::new(PowerNonNegative),
        Box::new(PowerMonotoneInVoltage),
        Box::new(EdpEstimatesSane),
    ]
}

// ---------------------------------------------------------------------
// Table-level invariants (raw VminTables).
// ---------------------------------------------------------------------

/// Safe Vmin must not decrease as the droop class rises (Table II reads
/// left to right: more utilized PMDs → larger droops → more voltage).
pub struct VminDroopMonotone;

impl Invariant for VminDroopMonotone {
    fn name(&self) -> &'static str {
        "vmin-droop-monotone"
    }
    fn description(&self) -> &'static str {
        "base Vmin is non-decreasing in droop class within each frequency class"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        for (_, row, fc_name) in FREQ_CLASSES {
            let cells = &cx.tables.base_mv[row];
            for col in 1..cells.len() {
                if cells[col] < cells[col - 1] {
                    out.push(violation(
                        self.name(),
                        format!("base_mv[{fc_name}][{}]", DROOP_NAMES[col]),
                        format!(
                            "{}mV drops below the {} entry {}mV: a wider allocation \
                             would be driven at a lower voltage than a narrower one",
                            cells[col],
                            DROOP_NAMES[col - 1],
                            cells[col - 1]
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Safe Vmin must not decrease as the frequency class rises
/// (Divided ≤ Reduced ≤ Max — the §II-B ordering).
pub struct VminFreqMonotone;

impl Invariant for VminFreqMonotone {
    fn name(&self) -> &'static str {
        "vmin-freq-monotone"
    }
    fn description(&self) -> &'static str {
        "base Vmin is non-decreasing in frequency class within each droop class"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        for (col, droop_name) in DROOP_NAMES.iter().enumerate() {
            for w in FREQ_CLASSES.windows(2) {
                let (lo, hi) = (&w[0], &w[1]);
                let (v_lo, v_hi) = (cx.tables.base_mv[lo.1][col], cx.tables.base_mv[hi.1][col]);
                if v_hi < v_lo {
                    out.push(violation(
                        self.name(),
                        format!("base_mv[{}][{droop_name}]", hi.2),
                        format!(
                            "{v_hi}mV is below the {} entry {v_lo}mV: a faster clock \
                             would be certified at a lower voltage than a slower one",
                            lo.2
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Every certifiable voltage — base cell plus the worst workload and
/// static-variation corrections — must fit inside the regulated rail.
pub struct VminWithinRail;

impl Invariant for VminWithinRail {
    fn name(&self) -> &'static str {
        "vmin-within-rail"
    }
    fn description(&self) -> &'static str {
        "base Vmin plus worst-case margins stays within [vreg floor, nominal]"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let floor = cx.spec.vreg_floor_mv;
        let nominal = cx.spec.nominal_mv;
        let worst_offset = cx.tables.pmd_offset_mv.iter().copied().max().unwrap_or(0);
        let headroom = cx.tables.workload_span_mv.div_ceil(2) + worst_offset.max(0) as u32;
        for (_, row, fc_name) in FREQ_CLASSES {
            for (col, &mv) in cx.tables.base_mv[row].iter().enumerate() {
                let loc = format!("base_mv[{fc_name}][{}]", DROOP_NAMES[col]);
                if mv < floor {
                    out.push(violation(
                        self.name(),
                        loc,
                        format!("{mv}mV is below the regulator floor {floor}mV"),
                    ));
                } else if mv + headroom > nominal {
                    out.push(violation(
                        self.name(),
                        loc,
                        format!(
                            "{mv}mV + {headroom}mV worst-case margin exceeds the \
                             nominal {nominal}mV the rail can deliver"
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Per-PMD static-variation offsets must give exactly one offset per PMD
/// and never push a safe Vmin below the regulator floor.
pub struct VminPmdOffsets;

impl Invariant for VminPmdOffsets {
    fn name(&self) -> &'static str {
        "vmin-pmd-offsets"
    }
    fn description(&self) -> &'static str {
        "static-variation offsets cover the chip's PMDs and keep Vmin above the floor"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let offsets = &cx.tables.pmd_offset_mv;
        let pmds = cx.spec.pmds() as usize;
        if offsets.len() != pmds {
            out.push(violation(
                self.name(),
                "pmd_offset_mv".to_string(),
                format!(
                    "{} offsets for {pmds} PMDs: the model needs exactly one per PMD",
                    offsets.len()
                ),
            ));
        }
        let min_base = cx
            .tables
            .base_mv
            .iter()
            .flatten()
            .copied()
            .min()
            .unwrap_or(0);
        for (i, &off) in offsets.iter().enumerate() {
            let adjusted = (min_base as i64) + off as i64;
            if adjusted < cx.spec.vreg_floor_mv as i64 {
                out.push(violation(
                    self.name(),
                    format!("pmd_offset_mv[{i}]"),
                    format!(
                        "offset {off}mV drags the lowest base Vmin {min_base}mV \
                         below the regulator floor {}mV",
                        cx.spec.vreg_floor_mv
                    ),
                ));
            }
        }
        out
    }
}

/// The unsafe region must have positive width, and subtracting it from
/// any safe Vmin must not saturate: `safe_vmin >= crash_point + span`
/// with the crash point still a real (nonzero) voltage.
pub struct GuardbandPositive;

impl Invariant for GuardbandPositive {
    fn name(&self) -> &'static str {
        "guardband-positive"
    }
    fn description(&self) -> &'static str {
        "the unsafe-region span is positive and crash points never saturate to 0mV"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let span = cx.tables.unsafe_span_mv;
        if span == 0 {
            out.push(violation(
                self.name(),
                "unsafe_span_mv".to_string(),
                "zero-width unsafe region: the crash point coincides with the safe \
                 Vmin, so any undervolt below 'safe' fails instantly and pfail \
                 curves degenerate"
                    .to_string(),
            ));
        }
        for (_, row, fc_name) in FREQ_CLASSES {
            for (col, &mv) in cx.tables.base_mv[row].iter().enumerate() {
                if mv <= span {
                    out.push(violation(
                        self.name(),
                        format!("base_mv[{fc_name}][{}]", DROOP_NAMES[col]),
                        format!(
                            "unsafe span {span}mV swallows the whole {mv}mV safe \
                             Vmin; the crash point would saturate at 0mV"
                        ),
                    ));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Model-level invariants (the built chip's validated model).
// ---------------------------------------------------------------------

/// `crash_point(safe) < safe` for every operating point the daemon can
/// reach — the failure model needs a strictly ordered pair.
pub struct CrashPointBelowSafe;

impl Invariant for CrashPointBelowSafe {
    fn name(&self) -> &'static str {
        "crash-below-safe"
    }
    fn description(&self) -> &'static str {
        "the crash point sits strictly below the safe Vmin everywhere"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let model = cx.chip.vmin_model();
        let pmds = cx.spec.pmds() as usize;
        for (fc, _, fc_name) in FREQ_CLASSES {
            for utilized in 1..=pmds {
                let q = VminQuery {
                    freq_class: fc,
                    utilized_pmds: utilized,
                    active_threads: utilized * cx.spec.cores_per_pmd as usize,
                    workload_sensitivity: 0.0,
                };
                let safe = model.safe_vmin(&q);
                let crash = model.crash_point(safe);
                if crash >= safe {
                    out.push(violation(
                        self.name(),
                        format!("safe_vmin[{fc_name}][{utilized} PMDs]"),
                        format!("crash point {crash} is not below safe Vmin {safe}"),
                    ));
                }
            }
        }
        out
    }
}

/// Utilizing more PMDs must never lower the safe Vmin (droops only grow
/// with utilized PMDs — the monotonicity Table II encodes), at every
/// thread count and at both ends and the middle of the workload
/// sensitivity range.
pub struct VminPmdCountMonotone;

impl Invariant for VminPmdCountMonotone {
    fn name(&self) -> &'static str {
        "vmin-pmd-count-monotone"
    }
    fn description(&self) -> &'static str {
        "model safe Vmin is non-decreasing in the utilized-PMD count"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let model = cx.chip.vmin_model();
        let pmds = cx.spec.pmds() as usize;
        for (fc, _, fc_name) in FREQ_CLASSES {
            for threads in 1..=cx.spec.cores as usize {
                for sensitivity in [-1.0, 0.0, 1.0] {
                    let mut prev = Millivolts::new(0);
                    for utilized in 1..=pmds {
                        let v = model.safe_vmin(&VminQuery {
                            freq_class: fc,
                            utilized_pmds: utilized,
                            active_threads: threads,
                            workload_sensitivity: sensitivity,
                        });
                        if v < prev {
                            out.push(violation(
                                self.name(),
                                format!(
                                    "safe_vmin[{fc_name}][{utilized} PMDs][{threads} threads]\
                                     [sensitivity {sensitivity}]"
                                ),
                                format!("{v} is below the {}-PMD value {prev}", utilized - 1),
                            ));
                        }
                        prev = v;
                    }
                }
            }
        }
        out
    }
}

/// The workload-delta decay is a fraction in `(0, 1]` and never grows
/// with thread count (Figure 3 vs Figure 4).
pub struct WorkloadDecayBounded;

impl Invariant for WorkloadDecayBounded {
    fn name(&self) -> &'static str {
        "workload-decay-bounded"
    }
    fn description(&self) -> &'static str {
        "workload decay stays in (0, 1] and is non-increasing in threads"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let model = cx.chip.vmin_model();
        let mut prev = f64::INFINITY;
        for threads in 0..=(cx.spec.cores as usize) {
            let d = model.workload_decay(threads);
            let loc = format!("workload_decay({threads})");
            if !(d > 0.0 && d <= 1.0) {
                out.push(violation(
                    self.name(),
                    loc.clone(),
                    format!("decay {d} leaves (0, 1]"),
                ));
            }
            if d > prev {
                out.push(violation(
                    self.name(),
                    loc,
                    format!("decay {d} exceeds the {}-thread value {prev}", threads - 1),
                ));
            }
            prev = d;
        }
        out
    }
}

// ---------------------------------------------------------------------
// Topology.
// ---------------------------------------------------------------------

/// The chip spec must describe a realizable machine: cores divide evenly
/// into PMDs, fit the 64-bit core mask, and the core↔PMD maps agree.
pub struct TopologyWellFormed;

impl Invariant for TopologyWellFormed {
    fn name(&self) -> &'static str {
        "topology-well-formed"
    }
    fn description(&self) -> &'static str {
        "the chip spec is structurally consistent (cores, PMDs, rail, clocks)"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let spec = &cx.spec;
        let mut structural = |cond: bool, loc: &str, msg: String| {
            if !cond {
                out.push(violation(self.name(), loc.to_string(), msg));
            }
        };
        structural(spec.cores > 0, "spec.cores", "chip has no cores".into());
        structural(
            spec.cores_per_pmd > 0,
            "spec.cores_per_pmd",
            "PMDs are empty".into(),
        );
        structural(
            spec.cores <= 64,
            "spec.cores",
            format!("{} cores exceed the 64-core CoreSet mask", spec.cores),
        );
        structural(
            spec.fmax_mhz > 0,
            "spec.fmax_mhz",
            "zero maximum frequency".into(),
        );
        structural(
            spec.vreg_floor_mv <= spec.nominal_mv,
            "spec.vreg_floor_mv",
            format!(
                "regulator floor {}mV above nominal {}mV",
                spec.vreg_floor_mv, spec.nominal_mv
            ),
        );
        if spec.cores_per_pmd > 0 && !spec.cores.is_multiple_of(spec.cores_per_pmd) {
            out.push(violation(
                self.name(),
                "spec.cores".to_string(),
                format!(
                    "{} cores do not divide into {}-core PMDs",
                    spec.cores, spec.cores_per_pmd
                ),
            ));
            return out; // pmd_of/cores_of would panic below
        }
        if spec.cores == 0 || spec.cores > 64 {
            return out;
        }
        for core in spec.all_cores() {
            let pmd = spec.pmd_of(core);
            if !spec.contains_pmd(pmd) || !spec.cores_of(pmd).contains(core) {
                out.push(violation(
                    self.name(),
                    format!("pmd_of({core})"),
                    format!("{core} maps to {pmd}, which does not map back"),
                ));
            }
        }
        for pmd in spec.all_pmds() {
            let n = spec.cores_of(pmd).len();
            if n != spec.cores_per_pmd as usize {
                out.push(violation(
                    self.name(),
                    format!("cores_of({pmd})"),
                    format!("{n} cores instead of {}", spec.cores_per_pmd),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Classification maps.
// ---------------------------------------------------------------------

/// The firmware step→class map is total over all 8 steps and
/// non-decreasing in the step numerator, with the anchors the paper
/// measured (full speed → Max, half speed → Reduced).
pub struct FreqClassTotalMonotone;

impl Invariant for FreqClassTotalMonotone {
    fn name(&self) -> &'static str {
        "freq-class-total-monotone"
    }
    fn description(&self) -> &'static str {
        "the CPPC step→Vmin-class map is monotone with the measured anchors"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut prev = FreqVminClass::Divided;
        for step in FreqStep::all() {
            let class = cx.behavior.vmin_class(step);
            if class < prev {
                out.push(violation(
                    self.name(),
                    format!("vmin_class({step})"),
                    format!("{class} is below the previous step's class {prev}"),
                ));
            }
            prev = class;
        }
        if cx.behavior.vmin_class(FreqStep::MAX) != FreqVminClass::Max {
            out.push(violation(
                self.name(),
                "vmin_class(8/8)".to_string(),
                "full speed must be in the Max class".to_string(),
            ));
        }
        if cx.behavior.vmin_class(FreqStep::HALF) != FreqVminClass::Reduced {
            out.push(violation(
                self.name(),
                "vmin_class(4/8)".to_string(),
                "half speed must earn the Reduced (clock-skipping) class".to_string(),
            ));
        }
        out
    }
}

/// Droop classification is total over `0..=pmds` utilized PMDs,
/// non-decreasing, and the policy table's self-contained copy agrees
/// with the chip model's.
pub struct DroopClassTotalMonotone;

impl Invariant for DroopClassTotalMonotone {
    fn name(&self) -> &'static str {
        "droop-class-total-monotone"
    }
    fn description(&self) -> &'static str {
        "droop classification is total, monotone, and consistent between model and policy"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let pmds = cx.spec.pmds() as usize;
        let mut prev = DroopClass::D25;
        for utilized in 0..=pmds {
            let dc = DroopClass::from_utilized_pmds(&cx.spec, utilized);
            if dc < prev {
                out.push(violation(
                    self.name(),
                    format!("from_utilized_pmds({utilized})"),
                    format!("class {dc} is below the {}-PMD class {prev}", utilized - 1),
                ));
            }
            prev = dc;
            if cx.policy.pmds() == pmds && cx.policy.droop_class(utilized) != dc {
                out.push(violation(
                    self.name(),
                    format!("policy.droop_class({utilized})"),
                    format!(
                        "policy says {}, the chip model says {dc}",
                        cx.policy.droop_class(utilized)
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Policy-table invariants.
// ---------------------------------------------------------------------

fn policy_cells(
    policy: &PolicyTable,
) -> impl Iterator<Item = (FreqVminClass, &'static str, DroopClass, usize, u32)> + '_ {
    FREQ_CLASSES.into_iter().flat_map(move |(fc, _, fc_name)| {
        DroopClass::ALL.into_iter().flat_map(move |dc| {
            (0..PolicyTable::THREAD_BUCKETS)
                .map(move |bucket| (fc, fc_name, dc, bucket, policy.cell(fc, dc, bucket)))
        })
    })
}

/// Every `FreqVminClass × DroopClass × thread-bucket` cell must be
/// characterized: a zero cell is a hole the daemon could fall through.
pub struct PolicyTotality;

impl Invariant for PolicyTotality {
    fn name(&self) -> &'static str {
        "policy-totality"
    }
    fn description(&self) -> &'static str {
        "the policy table has a characterized voltage for every cell"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        policy_cells(&cx.policy)
            .filter(|&(_, _, _, _, mv)| mv == 0)
            .map(|(_, fc_name, dc, bucket, _)| {
                violation(
                    self.name(),
                    format!(
                        "policy[{fc_name}][{}][bucket {bucket}]",
                        DROOP_NAMES[dc.index()]
                    ),
                    "uncharacterized (0mV) cell: the daemon would drive the rail \
                     to 0mV for this configuration"
                        .to_string(),
                )
            })
            .collect()
    }
}

/// Every policy voltage must be programmable: within the regulated
/// `[floor, nominal]` window of the characterized chip.
pub struct PolicyWithinRail;

impl Invariant for PolicyWithinRail {
    fn name(&self) -> &'static str {
        "policy-within-rail"
    }
    fn description(&self) -> &'static str {
        "every policy voltage fits the regulated rail window"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let nominal = cx.policy.nominal().as_mv();
        let floor = cx.spec.vreg_floor_mv;
        policy_cells(&cx.policy)
            .filter(|&(_, _, _, _, mv)| mv != 0 && (mv < floor || mv > nominal))
            .map(|(_, fc_name, dc, bucket, mv)| {
                violation(
                    self.name(),
                    format!(
                        "policy[{fc_name}][{}][bucket {bucket}]",
                        DROOP_NAMES[dc.index()]
                    ),
                    format!("{mv}mV is outside the regulated window [{floor}mV, {nominal}mV]"),
                )
            })
            .collect()
    }
}

/// Policy voltages are monotone: non-decreasing in droop class and
/// frequency class, non-increasing across thread buckets (more threads →
/// smaller workload margin, §III-A).
pub struct PolicyMonotone;

impl Invariant for PolicyMonotone {
    fn name(&self) -> &'static str {
        "policy-monotone"
    }
    fn description(&self) -> &'static str {
        "policy voltages are monotone in droop class, frequency class, and threads"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let p = &cx.policy;
        for (fc, _, fc_name) in FREQ_CLASSES {
            for bucket in 0..PolicyTable::THREAD_BUCKETS {
                for w in DroopClass::ALL.windows(2) {
                    let (lo, hi) = (p.cell(fc, w[0], bucket), p.cell(fc, w[1], bucket));
                    if hi < lo {
                        out.push(violation(
                            self.name(),
                            format!(
                                "policy[{fc_name}][{}][bucket {bucket}]",
                                DROOP_NAMES[w[1].index()]
                            ),
                            format!("{hi}mV drops below the narrower class's {lo}mV"),
                        ));
                    }
                }
            }
        }
        for dc in DroopClass::ALL {
            for bucket in 0..PolicyTable::THREAD_BUCKETS {
                for w in FREQ_CLASSES.windows(2) {
                    let (lo, hi) = (p.cell(w[0].0, dc, bucket), p.cell(w[1].0, dc, bucket));
                    if hi < lo {
                        out.push(violation(
                            self.name(),
                            format!(
                                "policy[{}][{}][bucket {bucket}]",
                                w[1].2,
                                DROOP_NAMES[dc.index()]
                            ),
                            format!("{hi}mV drops below the slower class's {lo}mV"),
                        ));
                    }
                }
            }
        }
        for (fc, _, fc_name) in FREQ_CLASSES {
            for dc in DroopClass::ALL {
                for bucket in 1..PolicyTable::THREAD_BUCKETS {
                    let (prev, cur) = (p.cell(fc, dc, bucket - 1), p.cell(fc, dc, bucket));
                    if cur > prev {
                        out.push(violation(
                            self.name(),
                            format!(
                                "policy[{fc_name}][{}][bucket {bucket}]",
                                DROOP_NAMES[dc.index()]
                            ),
                            format!(
                                "{cur}mV exceeds the smaller bucket's {prev}mV: more \
                                 threads must not need more margin"
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Power / EDP.
// ---------------------------------------------------------------------

fn load_grid(cx: &AnalysisContext) -> Vec<(String, PowerInputs)> {
    let pmds = cx.spec.pmds() as usize;
    let full = |voltage| PowerInputs {
        voltage,
        pmd_loads: vec![
            PmdLoad {
                freq_mhz: cx.spec.fmax_mhz,
                active_cores: cx.spec.cores_per_pmd as u8,
                activity: 1.0,
            };
            pmds
        ],
        mem_traffic: 1.0,
    };
    let idle = |voltage| PowerInputs {
        voltage,
        pmd_loads: vec![PmdLoad::IDLE; pmds],
        mem_traffic: 0.0,
    };
    let mixed = |voltage| {
        let mut loads = vec![PmdLoad::IDLE; pmds];
        loads[0] = PmdLoad {
            freq_mhz: cx.spec.fmax_mhz / 2,
            active_cores: 1,
            activity: 0.4,
        };
        PowerInputs {
            voltage,
            pmd_loads: loads,
            mem_traffic: 0.3,
        }
    };
    let floor = Millivolts::new(cx.spec.vreg_floor_mv);
    let nominal = Millivolts::new(cx.spec.nominal_mv);
    let mid = Millivolts::new((cx.spec.vreg_floor_mv + cx.spec.nominal_mv) / 2);
    let mut grid = Vec::new();
    for v in [floor, mid, nominal] {
        grid.push((format!("full load @ {v}"), full(v)));
        grid.push((format!("idle @ {v}"), idle(v)));
        grid.push((format!("mixed @ {v}"), mixed(v)));
    }
    grid
}

/// Power is finite and non-negative for every reachable load point, and
/// the idle chip never draws more than the fully loaded one.
pub struct PowerNonNegative;

impl Invariant for PowerNonNegative {
    fn name(&self) -> &'static str {
        "power-non-negative"
    }
    fn description(&self) -> &'static str {
        "the power model is finite and non-negative over the load grid"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let power = cx.chip.power_model();
        for (label, inputs) in load_grid(cx) {
            let w = power.power_w(&inputs);
            if !w.is_finite() || w < 0.0 {
                out.push(violation(
                    self.name(),
                    label,
                    format!("power {w}W is negative or non-finite"),
                ));
            }
        }
        let nominal = Millivolts::new(cx.spec.nominal_mv);
        let pmds = cx.spec.pmds() as usize;
        let idle = power.idle_power_w(nominal, pmds);
        let full = power.power_w(&load_grid(cx)[6].1); // full load @ nominal
        if idle > full {
            out.push(violation(
                self.name(),
                "idle vs full @ nominal".to_string(),
                format!("idle power {idle:.2}W exceeds full-load power {full:.2}W"),
            ));
        }
        out
    }
}

/// At fixed load, lowering the rail must never raise power — the fact
/// that makes undervolting worth doing at all.
pub struct PowerMonotoneInVoltage;

impl Invariant for PowerMonotoneInVoltage {
    fn name(&self) -> &'static str {
        "power-monotone-voltage"
    }
    fn description(&self) -> &'static str {
        "power is non-decreasing in rail voltage at fixed load"
    }
    fn check(&self, cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        let power = cx.chip.power_model();
        let pmds = cx.spec.pmds() as usize;
        let mut prev: Option<(u32, f64)> = None;
        let lo = cx.spec.vreg_floor_mv;
        let hi = cx.spec.nominal_mv;
        for i in 0..=8u32 {
            let mv = lo + (hi - lo) * i / 8;
            let inputs = PowerInputs {
                voltage: Millivolts::new(mv),
                pmd_loads: vec![
                    PmdLoad {
                        freq_mhz: cx.spec.fmax_mhz,
                        active_cores: cx.spec.cores_per_pmd as u8,
                        activity: 0.8,
                    };
                    pmds
                ],
                mem_traffic: 0.5,
            };
            let w = power.power_w(&inputs);
            if let Some((prev_mv, prev_w)) = prev {
                if w < prev_w {
                    out.push(violation(
                        self.name(),
                        format!("power({mv}mV)"),
                        format!("{w:.3}W is below the {prev_mv}mV point's {prev_w:.3}W"),
                    ));
                }
            }
            prev = Some((mv, w));
        }
        out
    }
}

/// The ED²P scaling estimates behave physically: delay never shrinks
/// under a frequency reduction, all multipliers are positive and finite,
/// and full speed at nominal voltage is the identity.
pub struct EdpEstimatesSane;

impl Invariant for EdpEstimatesSane {
    fn name(&self) -> &'static str {
        "edp-estimates-sane"
    }
    fn description(&self) -> &'static str {
        "ED2P scaling estimates are positive, finite, and identity at full speed"
    }
    fn check(&self, _cx: &AnalysisContext) -> Vec<Violation> {
        let mut out = Vec::new();
        for mem_x100 in [0u32, 20, 50, 85] {
            for ratio_x8 in 1..=8u32 {
                let mem = mem_x100 as f64 / 100.0;
                let ratio = ratio_x8 as f64 / 8.0;
                let est = scaling_estimate(mem, ratio, 0.7, 0.9);
                let loc = format!("scaling_estimate(m={mem}, r={ratio})");
                if !(est.delay.is_finite()
                    && est.dynamic_energy.is_finite()
                    && est.ed2p.is_finite())
                {
                    out.push(violation(
                        self.name(),
                        loc,
                        "non-finite scaling estimate".to_string(),
                    ));
                    continue;
                }
                if est.delay < 1.0 - 1e-9 {
                    out.push(violation(
                        self.name(),
                        loc.clone(),
                        format!("delay multiplier {} below 1 for a slowdown", est.delay),
                    ));
                }
                if est.dynamic_energy <= 0.0 || est.ed2p <= 0.0 {
                    out.push(violation(
                        self.name(),
                        loc,
                        format!(
                            "non-positive energy {} or ED2P {}",
                            est.dynamic_energy, est.ed2p
                        ),
                    ));
                }
            }
        }
        let identity = scaling_estimate(0.3, 1.0, 0.7, 1.0);
        if (identity.ed2p - 1.0).abs() > 1e-9 {
            out.push(violation(
                self.name(),
                "scaling_estimate(r=1, v=1)".to_string(),
                format!("full speed is not the identity: ED2P {}", identity.ed2p),
            ));
        }
        out
    }
}
