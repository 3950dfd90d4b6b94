//! Property-based tests on the core data structures and model
//! invariants, using proptest.

use avfs_chip::freq::{CppcBehavior, FreqStep, FreqVminClass};
use avfs_chip::presets;
use avfs_chip::topology::{CoreId, CoreSet, PmdId};
use avfs_chip::vmin::{DroopClass, VminQuery};
use avfs_core::allocation::{plan_layout, PlanProc};
use avfs_core::policy::PolicyTable;
use avfs_sched::process::Pid;
use avfs_sim::time::{cycles_in, duration_of_cycles, SimDuration};
use avfs_workloads::classify::IntensityClass;
use avfs_workloads::perf::{PerfModel, ThreadWork};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #[test]
    fn coreset_behaves_like_a_set(ops in proptest::collection::vec((0u16..64, any::<bool>()), 0..200)) {
        let mut cs = CoreSet::new();
        let mut model = BTreeSet::new();
        for (core, insert) in ops {
            if insert {
                prop_assert_eq!(cs.insert(CoreId::new(core)), model.insert(core));
            } else {
                prop_assert_eq!(cs.remove(CoreId::new(core)), model.remove(&core));
            }
            prop_assert_eq!(cs.len(), model.len());
        }
        let elems: Vec<u16> = cs.iter().map(|c| c.index() as u16).collect();
        let expected: Vec<u16> = model.into_iter().collect();
        prop_assert_eq!(elems, expected);
    }

    #[test]
    fn coreset_algebra_laws(a in any::<u64>(), b in any::<u64>()) {
        let x = CoreSet::from_bits(a);
        let y = CoreSet::from_bits(b);
        prop_assert_eq!(x.union(y), y.union(x));
        prop_assert_eq!(x.intersection(y), y.intersection(x));
        prop_assert_eq!(x.difference(y).intersection(y), CoreSet::EMPTY);
        prop_assert_eq!(x.union(y).len() + x.intersection(y).len(), x.len() + y.len());
    }

    #[test]
    fn cycle_conversions_roundtrip(cycles in 0u64..10_000_000_000, freq in 1u32..4_000) {
        let d = duration_of_cycles(cycles, freq);
        let back = cycles_in(d, freq);
        // Round-up conversion may add at most one cycle's worth.
        prop_assert!(back >= cycles);
        prop_assert!(back <= cycles + freq as u64 / 1000 + 1);
    }

    #[test]
    fn vmin_is_monotone_in_utilized_pmds(
        pmds_a in 1usize..=16,
        pmds_b in 1usize..=16,
        threads in 1usize..=32,
        sens in -1.0f64..=1.0,
    ) {
        let chip = presets::xgene3().build();
        let q = |pmds| VminQuery {
            freq_class: FreqVminClass::Max,
            utilized_pmds: pmds,
            active_threads: threads,
            workload_sensitivity: sens,
        };
        let (lo, hi) = (pmds_a.min(pmds_b), pmds_a.max(pmds_b));
        prop_assert!(
            chip.vmin_model().safe_vmin(&q(lo)) <= chip.vmin_model().safe_vmin(&q(hi))
        );
    }

    #[test]
    fn vmin_is_monotone_in_freq_class(
        pmds in 1usize..=16,
        threads in 1usize..=32,
        sens in -1.0f64..=1.0,
    ) {
        let chip = presets::xgene3().build();
        let q = |fc| VminQuery {
            freq_class: fc,
            utilized_pmds: pmds,
            active_threads: threads,
            workload_sensitivity: sens,
        };
        let model = chip.vmin_model();
        prop_assert!(model.safe_vmin(&q(FreqVminClass::Divided)) <= model.safe_vmin(&q(FreqVminClass::Reduced)));
        prop_assert!(model.safe_vmin(&q(FreqVminClass::Reduced)) <= model.safe_vmin(&q(FreqVminClass::Max)));
    }

    #[test]
    fn policy_table_always_covers_the_model(
        pmds in 1usize..=16,
        extra_threads in 0usize..=16,
        sens in -1.0f64..=1.0,
        step in 1u8..=8,
    ) {
        // For any physically consistent configuration (threads ≥ utilized
        // PMDs) and any workload, the deployed policy voltage is safe.
        let chip = presets::xgene3().build();
        let table = PolicyTable::from_characterization(chip.vmin_model());
        let threads = pmds + extra_threads.min(pmds); // up to 2 per PMD
        let step = FreqStep::new(step).unwrap();
        let fc = CppcBehavior::NoBenefitBelowHalf.vmin_class(step);
        let policy_v = table.safe_voltage_for_pmds(fc, pmds, threads);
        let q = VminQuery {
            freq_class: fc,
            utilized_pmds: pmds,
            active_threads: threads,
            workload_sensitivity: sens,
        };
        // Worst PMD subset of that size.
        let worst = (0..pmds as u16).map(PmdId::new);
        let real_v = chip.vmin_model().safe_vmin_on(&q, worst);
        prop_assert!(policy_v >= real_v, "policy {} < real {}", policy_v, real_v);
    }

    #[test]
    fn layout_never_double_books_cores(
        spec_is_big in any::<bool>(),
        procs in proptest::collection::vec((1usize..=4, any::<bool>()), 0..12),
    ) {
        let spec = if spec_is_big {
            presets::xgene3().spec().clone()
        } else {
            presets::xgene2().spec().clone()
        };
        let plan: Vec<PlanProc> = procs
            .iter()
            .enumerate()
            .map(|(i, &(threads, is_mem))| PlanProc {
                pid: Pid(i as u64),
                threads,
                class: if is_mem {
                    IntensityClass::MemoryIntensive
                } else {
                    IntensityClass::CpuIntensive
                },
            })
            .collect();
        let layout = plan_layout(&spec, &plan);
        // No overlapping assignments.
        let mut seen = CoreSet::EMPTY;
        for cores in layout.assignment.values() {
            prop_assert!(seen.intersection(*cores).is_empty(), "double-booked cores");
            seen = seen.union(*cores);
        }
        // Every placed process has exactly its thread count.
        for p in &plan {
            if let Some(cores) = layout.assignment.get(&p.pid) {
                prop_assert_eq!(cores.len(), p.threads);
            }
        }
        // If total demand fits the chip, everything is placed.
        let demand: usize = plan.iter().map(|p| p.threads).sum();
        if demand <= spec.cores as usize {
            prop_assert!(layout.unplaced.is_empty(), "unplaced despite capacity");
        }
    }

    #[test]
    fn exec_time_monotone_in_frequency(
        core in 0.1f64..100.0,
        mem in 0.0f64..50.0,
        f1 in 300u32..3_000,
        f2 in 300u32..3_000,
        mult in 1.0f64..5.0,
    ) {
        let perf = PerfModel::xgene3();
        let work = ThreadWork { core_gcycles: core, mem_s: mem };
        let (lo, hi) = (f1.min(f2), f1.max(f2));
        prop_assert!(perf.exec_time_s(&work, hi, mult) <= perf.exec_time_s(&work, lo, mult) + 1e-12);
    }

    #[test]
    fn pfail_is_a_probability_and_monotone(
        safe in 700u32..900,
        depth1 in 0u32..150,
        depth2 in 0u32..150,
    ) {
        let chip = presets::xgene3().build();
        let model = chip.failure_model();
        let safe_v = avfs_chip::Millivolts::new(safe);
        let (lo, hi) = (depth1.min(depth2), depth1.max(depth2));
        let p_shallow = model.pfail(
            safe_v.saturating_sub(avfs_chip::Millivolts::new(lo)),
            safe_v,
            DroopClass::D45,
        );
        let p_deep = model.pfail(
            safe_v.saturating_sub(avfs_chip::Millivolts::new(hi)),
            safe_v,
            DroopClass::D45,
        );
        prop_assert!((0.0..=1.0).contains(&p_shallow));
        prop_assert!((0.0..=1.0).contains(&p_deep));
        prop_assert!(p_deep >= p_shallow);
    }

    #[test]
    fn duration_scaling_is_linear(ms in 0u64..1_000_000, k in 0u64..1_000) {
        let d = SimDuration::from_millis(ms);
        prop_assert_eq!(d * k, SimDuration::from_millis(ms * k));
    }
}
