//! Program phases: time-varying workload character.
//!
//! The paper's daemon reacts to a process "chang\[ing\] its state (from
//! CPU-intensive to memory-intensive and vice versa)" (§VI-A, event
//! type (b)) — which presumes programs whose character changes over
//! their lifetime, as the phase literature it cites (\[21\], \[22\])
//! established. The catalog's scalar profiles cannot produce such
//! changes, so this module adds a phase schedule for the programs known
//! to alternate between compute- and memory-dominated regions.
//!
//! Phases modulate the *observable* character (L3 access rate, switching
//! activity, instantaneous memory pressure) as a function of job
//! progress; the total work split of the job is untouched so energy/time
//! accounting stays consistent with the catalog.

use crate::catalog::{BenchProfile, Benchmark};

/// One phase of a program's execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Progress fraction at which the phase ends (exclusive), `(0, 1]`.
    pub until_progress: f64,
    /// Multiplier on the profile's L3 access rate during this phase.
    pub l3c_mult: f64,
    /// Multiplier on the profile's memory fraction (pressure) during
    /// this phase, clamped so the result stays in `[0, 0.95]`.
    pub mem_mult: f64,
    /// Multiplier on the profile's switching activity, clamped to
    /// `[0, 1]` after application.
    pub activity_mult: f64,
}

/// The phase schedule of a benchmark, if it has one.
///
/// Schedules are defined for the programs whose phase behaviour the
/// DVFS-phase literature documents; all other programs are steady.
pub fn schedule(bench: Benchmark) -> Option<&'static [Phase]> {
    use Benchmark::*;
    // gcc alternates parsing/IR passes (compute) with whole-program
    // optimization sweeps (memory); xalancbmk alternates parse/transform;
    // bodytrack alternates per-frame feature extraction (memory) and
    // model fitting (compute); LU has a memory-heavy factorization start
    // and compute-heavy triangular solves.
    const GCC: &[Phase] = &[
        Phase {
            until_progress: 0.35,
            l3c_mult: 0.4,
            mem_mult: 0.5,
            activity_mult: 1.1,
        },
        Phase {
            until_progress: 0.75,
            l3c_mult: 2.2,
            mem_mult: 1.8,
            activity_mult: 0.85,
        },
        Phase {
            until_progress: 1.0,
            l3c_mult: 0.5,
            mem_mult: 0.6,
            activity_mult: 1.05,
        },
    ];
    const XALAN: &[Phase] = &[
        Phase {
            until_progress: 0.4,
            l3c_mult: 0.35,
            mem_mult: 0.5,
            activity_mult: 1.1,
        },
        Phase {
            until_progress: 1.0,
            l3c_mult: 1.8,
            mem_mult: 1.5,
            activity_mult: 0.9,
        },
    ];
    const BODYTRACK: &[Phase] = &[
        Phase {
            until_progress: 0.5,
            l3c_mult: 2.0,
            mem_mult: 1.8,
            activity_mult: 0.85,
        },
        Phase {
            until_progress: 1.0,
            l3c_mult: 0.4,
            mem_mult: 0.5,
            activity_mult: 1.1,
        },
    ];
    const LU: &[Phase] = &[
        Phase {
            until_progress: 0.3,
            l3c_mult: 1.6,
            mem_mult: 1.5,
            activity_mult: 0.9,
        },
        Phase {
            until_progress: 1.0,
            l3c_mult: 0.7,
            mem_mult: 0.8,
            activity_mult: 1.05,
        },
    ];
    match bench {
        SpecGcc => Some(GCC),
        SpecXalancbmk => Some(XALAN),
        ParsecBodytrack => Some(BODYTRACK),
        NpbLu => Some(LU),
        _ => None,
    }
}

/// The effective (phase-adjusted) profile of `bench` at a given job
/// progress in `[0, 1]`. Programs without a schedule return their
/// catalog profile unchanged.
#[inline]
pub fn effective_profile(bench: Benchmark, progress: f64) -> BenchProfile {
    let base = bench.profile();
    let Some(phases) = schedule(bench) else {
        return base;
    };
    let progress = progress.clamp(0.0, 1.0);
    let phase = phases
        .iter()
        .find(|p| progress < p.until_progress)
        .or_else(|| phases.last())
        .expect("schedules are non-empty");
    BenchProfile {
        mem_fraction: (base.mem_fraction * phase.mem_mult).clamp(0.0, 0.95),
        l3c_per_mcycle: base.l3c_per_mcycle * phase.l3c_mult,
        activity: (base.activity * phase.activity_mult).clamp(0.0, 1.0),
        ..base
    }
}

/// The index of the phase in effect at `progress` — the discrete key
/// under which [`effective_profile`] is piecewise constant. Programs
/// without a schedule are a single phase (index 0). Callers that cache
/// per-phase derived quantities key on this instead of the raw progress
/// float, with the exact same phase-selection rule as
/// [`effective_profile`].
pub fn phase_index(bench: Benchmark, progress: f64) -> u32 {
    let Some(phases) = schedule(bench) else {
        return 0;
    };
    let progress = progress.clamp(0.0, 1.0);
    phases
        .iter()
        .position(|p| progress < p.until_progress)
        .unwrap_or(phases.len() - 1) as u32
}

/// The progress at which the phase in effect at `progress` ends: the
/// next point where [`effective_profile`] changes. `None` in a program's
/// last (or only) phase.
#[inline]
pub fn phase_end(bench: Benchmark, progress: f64) -> Option<f64> {
    let phases = schedule(bench)?;
    let i = phase_index(bench, progress) as usize;
    (i + 1 < phases.len()).then(|| phases[i].until_progress)
}

/// Whether the benchmark's classification flips across its phases (at
/// the paper's 3000 L3C/1M-cycles threshold).
pub fn class_flips(bench: Benchmark) -> bool {
    use crate::classify::classify;
    let Some(phases) = schedule(bench) else {
        return false;
    };
    let mut classes = phases
        .iter()
        .map(|p| classify(bench.profile().l3c_per_mcycle * p.l3c_mult));
    let first = classes.next();
    classes.any(|c| Some(c) != first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, IntensityClass};

    #[test]
    fn steady_programs_are_unchanged() {
        for b in [Benchmark::SpecNamd, Benchmark::NpbCg, Benchmark::SpecMilc] {
            assert_eq!(schedule(b), None);
            assert_eq!(effective_profile(b, 0.0), b.profile());
            assert_eq!(effective_profile(b, 0.9), b.profile());
            assert!(!class_flips(b));
        }
    }

    #[test]
    fn gcc_flips_class_mid_run() {
        // gcc (base 4100 L3C/1M) is CPU-intensive while parsing
        // (×0.4 → 1640) and memory-intensive while optimizing
        // (×2.2 → 9020).
        let early = effective_profile(Benchmark::SpecGcc, 0.1);
        let mid = effective_profile(Benchmark::SpecGcc, 0.5);
        let late = effective_profile(Benchmark::SpecGcc, 0.9);
        assert_eq!(classify(early.l3c_per_mcycle), IntensityClass::CpuIntensive);
        assert_eq!(
            classify(mid.l3c_per_mcycle),
            IntensityClass::MemoryIntensive
        );
        assert_eq!(classify(late.l3c_per_mcycle), IntensityClass::CpuIntensive);
        assert!(class_flips(Benchmark::SpecGcc));
    }

    #[test]
    fn phase_boundaries_are_respected() {
        // Exactly at a boundary the next phase applies (until is
        // exclusive).
        let at_boundary = effective_profile(Benchmark::SpecGcc, 0.35);
        let mid = effective_profile(Benchmark::SpecGcc, 0.5);
        assert_eq!(at_boundary, mid);
        // Progress 1.0 (or beyond) uses the last phase.
        let done = effective_profile(Benchmark::SpecGcc, 1.0);
        let late = effective_profile(Benchmark::SpecGcc, 0.9);
        assert_eq!(done, late);
    }

    #[test]
    fn adjusted_fields_stay_in_valid_ranges() {
        for b in Benchmark::ALL {
            for p in [0.0, 0.2, 0.4, 0.6, 0.8, 0.99] {
                let e = effective_profile(b, p);
                assert!((0.0..=0.95).contains(&e.mem_fraction), "{b}@{p}");
                assert!((0.0..=1.0).contains(&e.activity), "{b}@{p}");
                assert!(e.l3c_per_mcycle >= 0.0, "{b}@{p}");
                // Work totals untouched.
                assert_eq!(e.ref_time_s, b.profile().ref_time_s);
            }
        }
    }

    #[test]
    fn phase_index_partitions_exactly_like_effective_profile() {
        // Equal indices must mean bit-equal profiles: the simulator's
        // slice cache keys on the index, so any divergence here breaks
        // bit-identical energy accounting.
        for b in Benchmark::ALL {
            let mut by_index: Vec<(u32, BenchProfile)> = Vec::new();
            for i in 0..=1000 {
                let p = i as f64 / 1000.0;
                let idx = phase_index(b, p);
                let prof = effective_profile(b, p);
                match by_index.iter().find(|(j, _)| *j == idx) {
                    Some((_, seen)) => assert_eq!(*seen, prof, "{b} at {p}"),
                    None => by_index.push((idx, prof)),
                }
            }
            let expected = schedule(b).map_or(1, <[Phase]>::len);
            assert_eq!(by_index.len(), expected, "{b}");
            // Out-of-range progress clamps like effective_profile.
            assert_eq!(phase_index(b, 1.5), phase_index(b, 1.0), "{b}");
            assert_eq!(phase_index(b, -0.5), phase_index(b, 0.0), "{b}");
        }
    }

    #[test]
    fn phase_end_is_where_the_index_advances() {
        for b in Benchmark::ALL {
            let mut progress = 0.0;
            while let Some(end) = phase_end(b, progress) {
                assert!(end > progress, "{b}");
                assert_eq!(phase_index(b, end), phase_index(b, progress) + 1, "{b}");
                progress = end;
            }
            assert_eq!(phase_index(b, progress), phase_index(b, 1.0), "{b}");
        }
    }

    #[test]
    fn phased_memory_phase_raises_pressure() {
        let base = Benchmark::ParsecBodytrack.profile();
        let mem_phase = effective_profile(Benchmark::ParsecBodytrack, 0.25);
        let cpu_phase = effective_profile(Benchmark::ParsecBodytrack, 0.75);
        assert!(mem_phase.mem_fraction > base.mem_fraction);
        assert!(cpu_phase.mem_fraction < base.mem_fraction);
    }
}
