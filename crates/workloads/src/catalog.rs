//! The benchmark catalog: 41 modelled programs.
//!
//! 25 of these are the paper's characterized set (§II-B): 6 NPB kernels,
//! 6 PARSEC applications, and 13 SPEC CPU2006 programs. The remaining 16
//! SPEC programs complete the 35-program pool the server-workload
//! generator draws from (§VI-B; 29 SPEC + 6 NPB).
//!
//! Profile values are synthetic but shaped to reproduce the paper's
//! orderings: *namd* and *EP* are the most CPU-intensive programs,
//! *milc*, *CG* and *FT* the most memory-intensive (Figures 8/9/11/12),
//! and the L3-access-rate threshold of 3000 per 1 M cycles separates the
//! two classes exactly as in Figure 9.

use std::fmt;

/// The benchmark suite a program belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// NAS Parallel Benchmarks v3.3.1 (OpenMP kernels).
    Npb,
    /// PARSEC v3.0 (pthread applications).
    Parsec,
    /// SPEC CPU2006 (single-threaded; multicore runs use N copies).
    SpecCpu2006,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::Npb => write!(f, "NPB"),
            Suite::Parsec => write!(f, "PARSEC"),
            Suite::SpecCpu2006 => write!(f, "SPEC CPU2006"),
        }
    }
}

/// One modelled benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Benchmark {
    // --- NPB v3.3.1 (parallel) ---
    /// Conjugate gradient: irregular memory access; most memory-intensive.
    NpbCg,
    /// Embarrassingly parallel: pure compute; most CPU-intensive.
    NpbEp,
    /// 3-D FFT: all-to-all communication, memory-heavy.
    NpbFt,
    /// Integer sort: bandwidth-bound histogramming.
    NpbIs,
    /// LU solver: mixed compute/memory.
    NpbLu,
    /// Multigrid: long-stride memory access.
    NpbMg,
    // --- PARSEC v3.0 (parallel) ---
    /// Monte-Carlo swaption pricing: compute-bound.
    ParsecSwaptions,
    /// Black-Scholes option pricing: compute-bound.
    ParsecBlackscholes,
    /// Fluid dynamics: cache-sensitive stencil.
    ParsecFluidanimate,
    /// Simulated-annealing place-and-route: pointer chasing, memory-bound.
    ParsecCanneal,
    /// Computer-vision body tracking: mixed.
    ParsecBodytrack,
    /// Stream deduplication: memory- and bandwidth-heavy.
    ParsecDedup,
    // --- SPEC CPU2006 INT ---
    /// Perl interpreter.
    SpecPerlbench,
    /// Compression.
    SpecBzip2,
    /// C compiler.
    SpecGcc,
    /// Combinatorial optimization (single-source shortest path); extreme
    /// cache-miss rate.
    SpecMcf,
    /// Go playing.
    SpecGobmk,
    /// Hidden Markov model search.
    SpecHmmer,
    /// Chess playing.
    SpecSjeng,
    /// Quantum computer simulation: streaming, bandwidth-bound.
    SpecLibquantum,
    /// Video encoding.
    SpecH264ref,
    /// Discrete-event simulation: pointer-heavy.
    SpecOmnetpp,
    /// Path-finding.
    SpecAstar,
    /// XML transformation.
    SpecXalancbmk,
    // --- SPEC CPU2006 FP ---
    /// Blast-wave fluid dynamics: bandwidth-bound.
    SpecBwaves,
    /// Quantum chemistry: compute-bound.
    SpecGamess,
    /// Lattice QCD: memory-bound; among the most memory-intensive.
    SpecMilc,
    /// Magnetohydrodynamics.
    SpecZeusmp,
    /// Molecular dynamics (GROMACS): compute-bound.
    SpecGromacs,
    /// Numerical relativity.
    SpecCactusAdm,
    /// Computational fluid dynamics: memory-heavy.
    SpecLeslie3d,
    /// Molecular dynamics (NAMD): the most CPU-intensive program.
    SpecNamd,
    /// Finite-element solver.
    SpecDealII,
    /// Linear programming: memory-heavy.
    SpecSoplex,
    /// Ray tracing: compute-bound.
    SpecPovray,
    /// Structural mechanics.
    SpecCalculix,
    /// Electromagnetics solver: memory-bound.
    SpecGemsFdtd,
    /// Quantum crystallography.
    SpecTonto,
    /// Lattice Boltzmann fluid simulation: streaming, memory-bound.
    SpecLbm,
    /// Weather modelling.
    SpecWrf,
    /// Speech recognition.
    SpecSphinx3,
}

/// The modelled properties of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchProfile {
    /// Which benchmark this is.
    pub id: Benchmark,
    /// Suite membership.
    pub suite: Suite,
    /// Whether the program is a parallel application (NPB/PARSEC: N
    /// threads share one job) or single-threaded (SPEC: N copies do N
    /// jobs; energy is normalized per instance, §II-B).
    pub parallel: bool,
    /// Fraction of solo execution time spent waiting on L3/DRAM at the
    /// reference frequency (3 GHz). The frequency-invariant part.
    pub mem_fraction: f64,
    /// Solo single-thread execution time at the 3 GHz reference with no
    /// contention, seconds.
    pub ref_time_s: f64,
    /// L3-cache accesses per 1 M cycles in solo execution — the daemon's
    /// classification signal (Figure 9).
    pub l3c_per_mcycle: f64,
    /// Core switching activity while not memory-stalled, `[0, 1]`
    /// (IPC-proportional; feeds the power model).
    pub activity: f64,
    /// Position within the workload-to-workload Vmin spread, `[-1, +1]`
    /// (+1 = needs the most voltage).
    pub vmin_sensitivity: f64,
}

impl BenchProfile {
    /// Core work of one solo thread, in giga-cycles (frequency-scalable
    /// part), derived from the 3 GHz reference split.
    pub fn core_gcycles(&self) -> f64 {
        (1.0 - self.mem_fraction) * self.ref_time_s * 3.0
    }

    /// Memory time of one solo thread, seconds (frequency-invariant part).
    pub fn mem_seconds(&self) -> f64 {
        self.mem_fraction * self.ref_time_s
    }
}

impl Benchmark {
    /// All 41 modelled benchmarks.
    pub const ALL: [Benchmark; 41] = [
        Benchmark::NpbCg,
        Benchmark::NpbEp,
        Benchmark::NpbFt,
        Benchmark::NpbIs,
        Benchmark::NpbLu,
        Benchmark::NpbMg,
        Benchmark::ParsecSwaptions,
        Benchmark::ParsecBlackscholes,
        Benchmark::ParsecFluidanimate,
        Benchmark::ParsecCanneal,
        Benchmark::ParsecBodytrack,
        Benchmark::ParsecDedup,
        Benchmark::SpecPerlbench,
        Benchmark::SpecBzip2,
        Benchmark::SpecGcc,
        Benchmark::SpecMcf,
        Benchmark::SpecGobmk,
        Benchmark::SpecHmmer,
        Benchmark::SpecSjeng,
        Benchmark::SpecLibquantum,
        Benchmark::SpecH264ref,
        Benchmark::SpecOmnetpp,
        Benchmark::SpecAstar,
        Benchmark::SpecXalancbmk,
        Benchmark::SpecBwaves,
        Benchmark::SpecGamess,
        Benchmark::SpecMilc,
        Benchmark::SpecZeusmp,
        Benchmark::SpecGromacs,
        Benchmark::SpecCactusAdm,
        Benchmark::SpecLeslie3d,
        Benchmark::SpecNamd,
        Benchmark::SpecDealII,
        Benchmark::SpecSoplex,
        Benchmark::SpecPovray,
        Benchmark::SpecCalculix,
        Benchmark::SpecGemsFdtd,
        Benchmark::SpecTonto,
        Benchmark::SpecLbm,
        Benchmark::SpecWrf,
        Benchmark::SpecSphinx3,
    ];

    /// The paper's 25 characterized benchmarks (§II-B): 6 NPB, 6 PARSEC,
    /// 13 SPEC CPU2006.
    pub fn characterized() -> Vec<Benchmark> {
        use Benchmark::*;
        vec![
            NpbCg,
            NpbEp,
            NpbFt,
            NpbIs,
            NpbLu,
            NpbMg,
            ParsecSwaptions,
            ParsecBlackscholes,
            ParsecFluidanimate,
            ParsecCanneal,
            ParsecBodytrack,
            ParsecDedup,
            SpecNamd,
            SpecMilc,
            SpecBzip2,
            SpecGcc,
            SpecMcf,
            SpecGobmk,
            SpecHmmer,
            SpecSjeng,
            SpecLibquantum,
            SpecH264ref,
            SpecLbm,
            SpecOmnetpp,
            SpecSoplex,
        ]
    }

    /// The 35-program server-workload pool (§VI-B): all 29 SPEC CPU2006
    /// programs plus the 6 NPB kernels.
    pub fn server_pool() -> Vec<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .filter(|b| b.profile().suite != Suite::Parsec)
            .collect()
    }

    /// The paper's shorthand name for the benchmark.
    pub fn name(self) -> &'static str {
        use Benchmark::*;
        match self {
            NpbCg => "CG",
            NpbEp => "EP",
            NpbFt => "FT",
            NpbIs => "IS",
            NpbLu => "LU",
            NpbMg => "MG",
            ParsecSwaptions => "swaptions",
            ParsecBlackscholes => "blackscholes",
            ParsecFluidanimate => "fluidanimate",
            ParsecCanneal => "canneal",
            ParsecBodytrack => "bodytrack",
            ParsecDedup => "dedup",
            SpecPerlbench => "perlbench",
            SpecBzip2 => "bzip2",
            SpecGcc => "gcc",
            SpecMcf => "mcf",
            SpecGobmk => "gobmk",
            SpecHmmer => "hmmer",
            SpecSjeng => "sjeng",
            SpecLibquantum => "libquantum",
            SpecH264ref => "h264ref",
            SpecOmnetpp => "omnetpp",
            SpecAstar => "astar",
            SpecXalancbmk => "xalancbmk",
            SpecBwaves => "bwaves",
            SpecGamess => "gamess",
            SpecMilc => "milc",
            SpecZeusmp => "zeusmp",
            SpecGromacs => "gromacs",
            SpecCactusAdm => "cactusADM",
            SpecLeslie3d => "leslie3d",
            SpecNamd => "namd",
            SpecDealII => "dealII",
            SpecSoplex => "soplex",
            SpecPovray => "povray",
            SpecCalculix => "calculix",
            SpecGemsFdtd => "GemsFDTD",
            SpecTonto => "tonto",
            SpecLbm => "lbm",
            SpecWrf => "wrf",
            SpecSphinx3 => "sphinx3",
        }
    }

    /// The modelled profile of this benchmark.
    pub fn profile(self) -> BenchProfile {
        use Benchmark::*;
        // (suite, parallel, mem_fraction, ref_time_s, l3c/Mcycle, activity, vmin sens)
        let (suite, parallel, m, t, l3c, act, sens) = match self {
            // --- NPB ---
            NpbCg => (Suite::Npb, true, 0.66, 90.0, 30_500.0, 0.60, -0.2),
            NpbEp => (Suite::Npb, true, 0.03, 110.0, 190.0, 0.97, 0.8),
            NpbFt => (Suite::Npb, true, 0.60, 95.0, 24_800.0, 0.60, -0.3),
            NpbIs => (Suite::Npb, true, 0.38, 60.0, 8_900.0, 0.68, 0.1),
            NpbLu => (Suite::Npb, true, 0.30, 120.0, 5_400.0, 0.70, 0.3),
            NpbMg => (Suite::Npb, true, 0.44, 85.0, 11_200.0, 0.65, -0.1),
            // --- PARSEC ---
            ParsecSwaptions => (Suite::Parsec, true, 0.05, 100.0, 320.0, 0.93, 0.6),
            ParsecBlackscholes => (Suite::Parsec, true, 0.08, 80.0, 610.0, 0.90, 0.5),
            ParsecFluidanimate => (Suite::Parsec, true, 0.28, 105.0, 4_700.0, 0.72, 0.0),
            ParsecCanneal => (Suite::Parsec, true, 0.50, 95.0, 14_600.0, 0.58, -0.4),
            ParsecBodytrack => (Suite::Parsec, true, 0.20, 90.0, 2_300.0, 0.80, 0.4),
            ParsecDedup => (Suite::Parsec, true, 0.36, 70.0, 7_800.0, 0.66, -0.1),
            // --- SPEC INT ---
            SpecPerlbench => (Suite::SpecCpu2006, false, 0.18, 95.0, 1_900.0, 0.82, 0.3),
            SpecBzip2 => (Suite::SpecCpu2006, false, 0.21, 85.0, 2_600.0, 0.78, 0.2),
            SpecGcc => (Suite::SpecCpu2006, false, 0.26, 75.0, 4_100.0, 0.74, 0.1),
            SpecMcf => (Suite::SpecCpu2006, false, 0.58, 100.0, 19_400.0, 0.58, -0.5),
            SpecGobmk => (Suite::SpecCpu2006, false, 0.12, 90.0, 1_250.0, 0.85, 0.4),
            SpecHmmer => (Suite::SpecCpu2006, false, 0.08, 80.0, 700.0, 0.92, 0.5),
            SpecSjeng => (Suite::SpecCpu2006, false, 0.12, 95.0, 1_100.0, 0.86, 0.5),
            SpecLibquantum => (Suite::SpecCpu2006, false, 0.52, 85.0, 16_300.0, 0.60, -0.4),
            SpecH264ref => (Suite::SpecCpu2006, false, 0.15, 90.0, 1_500.0, 0.84, 0.3),
            SpecOmnetpp => (Suite::SpecCpu2006, false, 0.45, 90.0, 12_100.0, 0.60, -0.2),
            SpecAstar => (Suite::SpecCpu2006, false, 0.30, 95.0, 5_200.0, 0.68, 0.0),
            SpecXalancbmk => (Suite::SpecCpu2006, false, 0.34, 85.0, 6_700.0, 0.65, -0.1),
            // --- SPEC FP ---
            SpecBwaves => (Suite::SpecCpu2006, false, 0.48, 110.0, 13_400.0, 0.60, -0.3),
            SpecGamess => (Suite::SpecCpu2006, false, 0.05, 105.0, 380.0, 0.94, 0.7),
            SpecMilc => (Suite::SpecCpu2006, false, 0.62, 95.0, 21_700.0, 0.58, -0.6),
            SpecZeusmp => (Suite::SpecCpu2006, false, 0.35, 100.0, 7_200.0, 0.64, 0.0),
            SpecGromacs => (Suite::SpecCpu2006, false, 0.10, 95.0, 900.0, 0.88, 0.5),
            SpecCactusAdm => (Suite::SpecCpu2006, false, 0.40, 105.0, 9_800.0, 0.62, -0.2),
            SpecLeslie3d => (Suite::SpecCpu2006, false, 0.46, 100.0, 12_700.0, 0.60, -0.3),
            SpecNamd => (Suite::SpecCpu2006, false, 0.02, 100.0, 140.0, 0.98, 1.0),
            SpecDealII => (Suite::SpecCpu2006, false, 0.16, 90.0, 1_700.0, 0.83, 0.2),
            SpecSoplex => (Suite::SpecCpu2006, false, 0.44, 85.0, 11_600.0, 0.62, -0.2),
            SpecPovray => (Suite::SpecCpu2006, false, 0.06, 95.0, 450.0, 0.93, 0.6),
            SpecCalculix => (Suite::SpecCpu2006, false, 0.13, 100.0, 1_350.0, 0.85, 0.3),
            SpecGemsFdtd => (Suite::SpecCpu2006, false, 0.50, 105.0, 14_100.0, 0.58, -0.4),
            SpecTonto => (Suite::SpecCpu2006, false, 0.17, 95.0, 1_800.0, 0.82, 0.2),
            SpecLbm => (Suite::SpecCpu2006, false, 0.55, 90.0, 17_900.0, 0.58, -0.5),
            SpecWrf => (Suite::SpecCpu2006, false, 0.35, 100.0, 6_900.0, 0.63, 0.0),
            SpecSphinx3 => (Suite::SpecCpu2006, false, 0.40, 90.0, 9_300.0, 0.62, -0.1),
        };
        BenchProfile {
            id: self,
            suite,
            parallel,
            mem_fraction: m,
            ref_time_s: t,
            l3c_per_mcycle: l3c,
            activity: act,
            vmin_sensitivity: sens,
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, IntensityClass, L3C_THRESHOLD_PER_MCYCLE};

    #[test]
    fn counts_match_the_paper() {
        assert_eq!(Benchmark::ALL.len(), 41);
        assert_eq!(Benchmark::characterized().len(), 25);
        assert_eq!(Benchmark::server_pool().len(), 35);
        let npb = Benchmark::ALL
            .iter()
            .filter(|b| b.profile().suite == Suite::Npb)
            .count();
        let parsec = Benchmark::ALL
            .iter()
            .filter(|b| b.profile().suite == Suite::Parsec)
            .count();
        let spec = Benchmark::ALL
            .iter()
            .filter(|b| b.profile().suite == Suite::SpecCpu2006)
            .count();
        assert_eq!((npb, parsec, spec), (6, 6, 29));
    }

    #[test]
    fn characterized_has_13_spec() {
        let spec = Benchmark::characterized()
            .into_iter()
            .filter(|b| b.profile().suite == Suite::SpecCpu2006)
            .count();
        assert_eq!(spec, 13);
    }

    #[test]
    fn server_pool_excludes_parsec() {
        assert!(Benchmark::server_pool()
            .iter()
            .all(|b| b.profile().suite != Suite::Parsec));
    }

    #[test]
    fn parallel_flag_follows_suite() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert_eq!(p.parallel, p.suite != Suite::SpecCpu2006, "{b}");
        }
    }

    #[test]
    fn extremes_match_figure8() {
        // namd and EP most CPU-intensive; milc, CG, FT most memory-intensive.
        let m = |b: Benchmark| b.profile().mem_fraction;
        let cpu_min = Benchmark::ALL
            .into_iter()
            .min_by(|a, b| m(*a).partial_cmp(&m(*b)).unwrap())
            .unwrap();
        assert_eq!(cpu_min, Benchmark::SpecNamd);
        let mem_max = Benchmark::ALL
            .into_iter()
            .max_by(|a, b| m(*a).partial_cmp(&m(*b)).unwrap())
            .unwrap();
        assert_eq!(mem_max, Benchmark::NpbCg);
        // EP below every other parallel benchmark.
        assert!(m(Benchmark::NpbEp) < 0.05);
        assert!(m(Benchmark::SpecMilc) > 0.55);
        assert!(m(Benchmark::NpbFt) > 0.55);
    }

    #[test]
    fn l3c_rate_orders_with_mem_fraction() {
        // Spearman-ish check: the most memory-bound programs have the
        // highest L3 rates (Figure 9's structure).
        let mut profiles: Vec<BenchProfile> = Benchmark::ALL.iter().map(|b| b.profile()).collect();
        profiles.sort_by(|a, b| a.mem_fraction.partial_cmp(&b.mem_fraction).unwrap());
        let first_ten_max = profiles[..10]
            .iter()
            .map(|p| p.l3c_per_mcycle)
            .fold(0.0f64, f64::max);
        let last_ten_min = profiles[31..]
            .iter()
            .map(|p| p.l3c_per_mcycle)
            .fold(f64::INFINITY, f64::min);
        assert!(first_ten_max < last_ten_min);
    }

    #[test]
    fn threshold_separates_classes_sensibly() {
        // The paper's threshold (3000/Mcycle) puts namd/EP/swaptions on the
        // CPU side and milc/CG/FT/mcf/lbm on the memory side.
        for b in [
            Benchmark::SpecNamd,
            Benchmark::NpbEp,
            Benchmark::ParsecSwaptions,
            Benchmark::SpecHmmer,
        ] {
            assert_eq!(
                classify(b.profile().l3c_per_mcycle),
                IntensityClass::CpuIntensive,
                "{b}"
            );
        }
        for b in [
            Benchmark::SpecMilc,
            Benchmark::NpbCg,
            Benchmark::NpbFt,
            Benchmark::SpecMcf,
            Benchmark::SpecLbm,
        ] {
            assert_eq!(
                classify(b.profile().l3c_per_mcycle),
                IntensityClass::MemoryIntensive,
                "{b}"
            );
        }
        // And both classes are populated among the characterized 25.
        let (cpu, mem): (Vec<_>, Vec<_>) = Benchmark::characterized()
            .into_iter()
            .partition(|b| b.profile().l3c_per_mcycle < L3C_THRESHOLD_PER_MCYCLE);
        assert!(cpu.len() >= 8, "cpu class too small: {}", cpu.len());
        assert!(mem.len() >= 8, "mem class too small: {}", mem.len());
    }

    #[test]
    fn profile_invariants_hold() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert!((0.0..1.0).contains(&p.mem_fraction), "{b} mem_fraction");
            assert!(p.ref_time_s > 0.0, "{b} ref_time");
            assert!(p.l3c_per_mcycle >= 0.0, "{b} l3c");
            assert!((0.0..=1.0).contains(&p.activity), "{b} activity");
            assert!((-1.0..=1.0).contains(&p.vmin_sensitivity), "{b} sens");
            // Work split reassembles the reference time at 3 GHz.
            let t = p.core_gcycles() / 3.0 + p.mem_seconds();
            assert!((t - p.ref_time_s).abs() < 1e-9, "{b} split");
        }
    }

    #[test]
    fn names_are_unique_and_paper_style() {
        let mut names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 41);
        assert_eq!(Benchmark::NpbCg.to_string(), "CG");
        assert_eq!(Benchmark::SpecCactusAdm.to_string(), "cactusADM");
    }

    #[test]
    fn activity_anticorrelates_with_mem_fraction() {
        for b in Benchmark::ALL {
            let p = b.profile();
            if p.mem_fraction > 0.5 {
                assert!(p.activity < 0.72, "{b}: stalled programs switch less");
            }
            if p.mem_fraction < 0.1 {
                assert!(p.activity > 0.85, "{b}: busy programs switch more");
            }
        }
    }
}
