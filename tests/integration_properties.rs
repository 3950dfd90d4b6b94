//! Properties of the core data structures and model invariants. Each is
//! checked exhaustively where its domain is small enough to enumerate,
//! and otherwise over a seeded `RngStream` loop. Every enumeration
//! asserts how many cases it ran, so a narrowed range fails instead of
//! passing on fewer cases.

use avfs_chip::freq::FreqVminClass;
use avfs_chip::presets;
use avfs_chip::topology::{CoreId, CoreSet};
use avfs_chip::vmin::{DroopClass, VminQuery};
use avfs_chip::Millivolts;
use avfs_core::allocation::{plan_layout, PlanProc};
use avfs_sched::process::Pid;
use avfs_sim::rng::RngStream;
use avfs_sim::time::{cycles_in, duration_of_cycles, SimDuration};
use avfs_workloads::classify::IntensityClass;
use avfs_workloads::perf::{PerfModel, ThreadWork};
use std::collections::BTreeSet;

/// Draws per seeded loop.
const DRAWS: usize = 128;

/// The workload sensitivities at the ends and the middle of `[-1, +1]`.
/// The sensitivity term of a safe Vmin is one additive offset, equal
/// for every cell a monotonicity property compares.
const SENSITIVITIES: [f64; 3] = [-1.0, 0.0, 1.0];

#[test]
fn coreset_behaves_like_a_set() {
    let mut rng = RngStream::from_root(0, "coreset_behaves_like_a_set");
    for _ in 0..DRAWS {
        let mut cs = CoreSet::new();
        let mut model = BTreeSet::new();
        for _ in 0..rng.uniform_u64(0, 199) {
            let core = rng.uniform_u64(0, 63) as u16;
            if rng.chance(0.5) {
                assert_eq!(cs.insert(CoreId::new(core)), model.insert(core));
            } else {
                assert_eq!(cs.remove(CoreId::new(core)), model.remove(&core));
            }
            assert_eq!(cs.len(), model.len());
        }
        let elems: Vec<u16> = cs.iter().map(|c| c.index() as u16).collect();
        let expected: Vec<u16> = model.into_iter().collect();
        assert_eq!(elems, expected);
    }
}

#[test]
fn coreset_algebra_laws() {
    let laws = |a: u64, b: u64| {
        let x = CoreSet::from_bits(a);
        let y = CoreSet::from_bits(b);
        assert_eq!(x.union(y), y.union(x));
        assert_eq!(x.intersection(y), y.intersection(x));
        assert_eq!(x.difference(y).intersection(y), CoreSet::EMPTY);
        assert_eq!(
            x.union(y).len() + x.intersection(y).len(),
            x.len() + y.len()
        );
    };
    // Every pair of X-Gene 2 core sets, then full-width masks.
    let mut pairs = 0;
    for a in 0..=u64::from(u8::MAX) {
        for b in 0..=u64::from(u8::MAX) {
            laws(a, b);
            pairs += 1;
        }
    }
    assert_eq!(pairs, 65_536);
    let mut rng = RngStream::from_root(0, "coreset_algebra_laws");
    for _ in 0..DRAWS {
        laws(rng.next_u64(), rng.next_u64());
    }
}

#[test]
fn cycle_conversions_roundtrip() {
    let mut rng = RngStream::from_root(0, "cycle_conversions_roundtrip");
    let mut cases = 0;
    for freq in 1u32..4_000 {
        let cycles = rng.uniform_u64(0, 9_999_999_999);
        let d = duration_of_cycles(cycles, freq);
        let back = cycles_in(d, freq);
        // Round-up conversion may add at most one cycle's worth.
        assert!(back >= cycles, "{cycles} cycles at {freq} MHz");
        assert!(back <= cycles + freq as u64 / 1000 + 1);
        cases += 1;
    }
    assert_eq!(cases, 3_999);
}

#[test]
fn vmin_is_monotone_in_freq_class() {
    let chip = presets::xgene3().build();
    let model = chip.vmin_model();
    let mut cells = 0;
    for pmds in 1..=16 {
        for threads in 1..=32 {
            for sens in SENSITIVITIES {
                let v = |fc| {
                    model.safe_vmin(&VminQuery {
                        freq_class: fc,
                        utilized_pmds: pmds,
                        active_threads: threads,
                        workload_sensitivity: sens,
                    })
                };
                let (divided, reduced, max) = (
                    v(FreqVminClass::Divided),
                    v(FreqVminClass::Reduced),
                    v(FreqVminClass::Max),
                );
                assert!(
                    divided <= reduced && reduced <= max,
                    "{pmds} PMDs, {threads} threads, sensitivity {sens}: \
                     {divided} / {reduced} / {max}"
                );
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 1_536);
}

#[test]
fn layout_never_double_books_cores() {
    let mut rng = RngStream::from_root(0, "layout_never_double_books_cores");
    for spec in [presets::xgene2().spec(), presets::xgene3().spec()] {
        for _ in 0..DRAWS {
            let plan: Vec<PlanProc> = (0..rng.uniform_u64(0, 11))
                .map(|i| PlanProc {
                    pid: Pid(i),
                    threads: rng.uniform_u64(1, 4) as usize,
                    class: if rng.chance(0.5) {
                        IntensityClass::MemoryIntensive
                    } else {
                        IntensityClass::CpuIntensive
                    },
                })
                .collect();
            let layout = plan_layout(spec, &plan);
            // No overlapping assignments.
            let mut seen = CoreSet::EMPTY;
            for cores in layout.assignment.values() {
                assert!(seen.intersection(*cores).is_empty(), "double-booked cores");
                seen = seen.union(*cores);
            }
            // Every placed process has exactly its thread count.
            for p in &plan {
                if let Some(cores) = layout.assignment.get(&p.pid) {
                    assert_eq!(cores.len(), p.threads);
                }
            }
            // If total demand fits the chip, everything is placed.
            let demand: usize = plan.iter().map(|p| p.threads).sum();
            if demand <= spec.cores as usize {
                assert!(layout.unplaced.is_empty(), "unplaced despite capacity");
            }
        }
    }
}

#[test]
fn exec_time_monotone_in_frequency() {
    // Each drawn thread is swept over every MHz in [300, 3000): no
    // frequency may take longer than any lower one.
    let perf = PerfModel::xgene3();
    let mut rng = RngStream::from_root(0, "exec_time_monotone_in_frequency");
    let mut cases = 0;
    for _ in 0..DRAWS {
        let work = ThreadWork {
            core_gcycles: rng.uniform(0.1, 100.0),
            mem_s: rng.uniform(0.0, 50.0),
        };
        let mult = rng.uniform(1.0, 5.0);
        let mut fastest_below = f64::INFINITY;
        for freq in 300u32..3_000 {
            let t = perf.exec_time_s(&work, freq, mult);
            assert!(t <= fastest_below + 1e-12, "{work:?} at {freq} MHz");
            fastest_below = fastest_below.min(t);
            cases += 1;
        }
    }
    assert_eq!(cases, DRAWS * 2_700);
}

#[test]
fn pfail_is_a_probability_and_monotone() {
    let chip = presets::xgene3().build();
    let model = chip.failure_model();
    let mut cases = 0;
    for class in DroopClass::ALL {
        for safe in 700u32..900 {
            let safe_v = Millivolts::new(safe);
            let mut shallower = 0.0;
            for depth in 0u32..150 {
                let p = model.pfail(Millivolts::new(safe - depth), safe_v, class);
                assert!(
                    (0.0..=1.0).contains(&p),
                    "{class} {depth} mV under {safe_v}"
                );
                assert!(p >= shallower, "{class} {depth} mV under {safe_v}");
                shallower = p;
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 120_000);
}

#[test]
fn duration_scaling_is_linear() {
    let mut rng = RngStream::from_root(0, "duration_scaling_is_linear");
    let mut cases = 0;
    for k in 0u64..1_000 {
        let ms = rng.uniform_u64(0, 999_999);
        let d = SimDuration::from_millis(ms);
        assert_eq!(d * k, SimDuration::from_millis(ms * k));
        cases += 1;
    }
    assert_eq!(cases, 1_000);
}
