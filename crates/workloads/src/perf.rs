//! The analytic performance model.
//!
//! Execution time decomposes into a frequency-scalable core part and a
//! frequency-invariant memory part (§IV-B: "reduced frequency in CPU
//! cores impacts their performance without affecting the lower memory
//! levels"):
//!
//! ```text
//! T(f) = core_cycles / f  +  mem_time × contention × L2-sharing
//! ```
//!
//! * **Memory contention** grows with the aggregate memory pressure of
//!   everything running on the chip relative to the L3/DRAM capacity —
//!   this produces the Figure 8 slowdowns under full-chip co-location.
//! * **L2 sharing** inflates a thread's memory part when the second core
//!   of its PMD is busy, proportional to the partner's memory intensity —
//!   this is why memory-intensive programs prefer *spreaded* allocations
//!   (Figure 7, right side) while CPU-intensive programs lose nothing by
//!   clustering.
//! * **Parallel scaling** of NPB/PARSEC jobs uses a per-doubling
//!   efficiency factor.

use crate::catalog::BenchProfile;

/// The remaining work of one thread, in model units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadWork {
    /// Core cycles still to retire, in giga-cycles.
    pub core_gcycles: f64,
    /// Memory time still to serve (uncontended), seconds.
    pub mem_s: f64,
}

impl ThreadWork {
    /// True when no work remains.
    pub fn is_done(&self) -> bool {
        self.core_gcycles <= 0.0 && self.mem_s <= 0.0
    }

    /// Total work scaled by a factor (used by the workload generator to
    /// vary job sizes).
    pub fn scaled(&self, factor: f64) -> ThreadWork {
        ThreadWork {
            core_gcycles: self.core_gcycles * factor,
            mem_s: self.mem_s * factor,
        }
    }
}

/// Calibrated performance/contention parameters for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModel {
    /// Aggregate memory pressure (sum of co-runner `mem_fraction`s) the
    /// L3/DRAM path sustains without slowdown.
    pub mem_capacity: f64,
    /// Memory-time inflation per unit of the PMD partner's
    /// `mem_fraction` when both cores of a PMD are busy.
    pub l2_share_penalty: f64,
    /// Parallel efficiency per thread-count doubling for NPB/PARSEC jobs.
    pub parallel_efficiency_per_doubling: f64,
}

impl PerfModel {
    /// Parameters calibrated for the X-Gene 2 (8-core) memory system.
    pub fn xgene2() -> Self {
        PerfModel {
            mem_capacity: 2.2,
            l2_share_penalty: 0.7,
            parallel_efficiency_per_doubling: 0.97,
        }
    }

    /// Parameters calibrated for the X-Gene 3 (32-core) memory system.
    pub fn xgene3() -> Self {
        PerfModel {
            mem_capacity: 7.0,
            l2_share_penalty: 0.7,
            parallel_efficiency_per_doubling: 0.97,
        }
    }

    /// The per-thread work of running `profile` with `threads` threads.
    ///
    /// Parallel jobs split their work across threads (with imperfect
    /// scaling); single-threaded jobs replicate it — each SPEC copy does
    /// the full job, matching the paper's N-copies methodology (§II-B).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn thread_work(&self, profile: &BenchProfile, threads: usize) -> ThreadWork {
        assert!(threads > 0, "a job needs at least one thread");
        let total = ThreadWork {
            core_gcycles: profile.core_gcycles(),
            mem_s: profile.mem_seconds(),
        };
        if !profile.parallel || threads == 1 {
            return total;
        }
        let doublings = (threads as f64).log2();
        let eff = self
            .parallel_efficiency_per_doubling
            .powf(doublings)
            .clamp(0.05, 1.0);
        ThreadWork {
            core_gcycles: total.core_gcycles / (threads as f64 * eff),
            mem_s: total.mem_s / (threads as f64 * eff),
        }
    }

    /// The memory pressure one thread of `profile` contributes when its
    /// core runs at full speed.
    pub fn pressure_of(&self, profile: &BenchProfile) -> f64 {
        profile.mem_fraction
    }

    /// Memory pressure at a reduced core clock. The compute-bound share
    /// of a thread issues requests at a rate proportional to its clock;
    /// the memory-bound share is limited by the memory system itself and
    /// barely slows. So pressure scales by `(1-m)·r + m` where `m` is the
    /// memory fraction and `r` the frequency ratio.
    ///
    /// # Panics
    ///
    /// Panics if `freq_ratio` is not in `(0, 1]`.
    #[inline]
    pub fn pressure_at(&self, profile: &BenchProfile, freq_ratio: f64) -> f64 {
        assert!(
            freq_ratio > 0.0 && freq_ratio <= 1.0,
            "freq ratio {freq_ratio} out of (0,1]"
        );
        let m = profile.mem_fraction;
        m * ((1.0 - m) * freq_ratio + m)
    }

    /// Memory-time multiplier at an aggregate pressure (≥ 1).
    #[inline]
    pub fn mem_contention_mult(&self, total_pressure: f64) -> f64 {
        (total_pressure / self.mem_capacity).max(1.0)
    }

    /// Memory-time multiplier from sharing a PMD's L2 with a busy partner
    /// of the given memory intensity (`None` = the other core is idle).
    #[inline]
    pub fn l2_share_mult(&self, partner_mem_fraction: Option<f64>) -> f64 {
        match partner_mem_fraction {
            Some(m) => 1.0 + self.l2_share_penalty * m.clamp(0.0, 1.0),
            None => 1.0,
        }
    }

    /// Execution time of `work` at `freq_mhz` under a combined
    /// memory-time multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` is zero while core work remains.
    #[inline]
    pub fn exec_time_s(&self, work: &ThreadWork, freq_mhz: u32, mem_mult: f64) -> f64 {
        let core_s = if work.core_gcycles > 0.0 {
            assert!(freq_mhz > 0, "core work cannot retire at 0 MHz");
            work.core_gcycles / (freq_mhz as f64 / 1_000.0)
        } else {
            0.0
        };
        core_s + work.mem_s * mem_mult.max(1.0)
    }

    /// Instantaneous progress rate (fraction of `work` per second) under
    /// the given conditions; the system simulator integrates this.
    #[inline]
    pub fn progress_rate(&self, work: &ThreadWork, freq_mhz: u32, mem_mult: f64) -> f64 {
        let t = self.exec_time_s(work, freq_mhz, mem_mult);
        if t <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / t
        }
    }

    /// Solo (uncontended, unclustered) execution time at a frequency.
    pub fn solo_time_s(&self, profile: &BenchProfile, freq_mhz: u32) -> f64 {
        let work = self.thread_work(profile, 1);
        self.exec_time_s(&work, freq_mhz, 1.0)
    }

    /// The fraction of wall time a thread spends memory-stalled under the
    /// given conditions; drives the power model's activity input.
    #[inline]
    pub fn stall_share(&self, work: &ThreadWork, freq_mhz: u32, mem_mult: f64) -> f64 {
        let total = self.exec_time_s(work, freq_mhz, mem_mult);
        if total <= 0.0 {
            0.0
        } else {
            (work.mem_s * mem_mult.max(1.0)) / total
        }
    }

    /// Effective switching activity for the power model.
    ///
    /// Memory-stalled OoO cores keep switching almost as hard as busy
    /// ones (deep speculation, MSHRs, prefetchers, clock trees): on the
    /// real machines the power of memory-bound programs drops far less
    /// than their IPC. Consequently core power is essentially
    /// `∝ activity × f`, which is exactly why reducing frequency pays for
    /// memory-intensive programs (energy ≈ f-ratio × delay-ratio < 1).
    #[inline]
    pub fn effective_activity(
        &self,
        profile: &BenchProfile,
        work: &ThreadWork,
        freq_mhz: u32,
        mem_mult: f64,
    ) -> f64 {
        // Stalled cycles switch at ~92 % of the program's busy activity.
        const STALL_DAMPING: f64 = 0.08;
        let stall = self.stall_share(work, freq_mhz, mem_mult);
        profile.activity * (1.0 - STALL_DAMPING * stall)
    }

    /// The L3 access rate a PMU observer sees under contention: extra
    /// stall cycles dilute the per-cycle rate mildly, keeping the
    /// Figure 9 ordering intact across thread counts.
    #[inline]
    pub fn observed_l3c_rate(&self, profile: &BenchProfile, mem_mult: f64) -> f64 {
        let mult = mem_mult.max(1.0);
        // `powf(1.0, y)` is exactly 1, so an uncontended rate skips it.
        if mult > 1.0 {
            profile.l3c_per_mcycle / mult.powf(0.15)
        } else {
            profile.l3c_per_mcycle
        }
    }

    /// The Figure 8 statistic: solo time divided by per-instance time
    /// when `copies` copies run on `total_cores` cores (clustered fill),
    /// at `freq_mhz`.
    pub fn contention_ratio(&self, profile: &BenchProfile, copies: usize, freq_mhz: u32) -> f64 {
        assert!(copies > 0, "need at least one copy");
        let work = ThreadWork {
            core_gcycles: profile.core_gcycles(),
            mem_s: profile.mem_seconds(),
        };
        let solo = self.exec_time_s(&work, freq_mhz, 1.0);
        let pressure = self.pressure_of(profile) * copies as f64;
        let mem_mult = self.mem_contention_mult(pressure)
            * self.l2_share_mult(if copies > 1 {
                Some(profile.mem_fraction)
            } else {
                None
            });
        let contended = self.exec_time_s(&work, freq_mhz, mem_mult);
        solo / contended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Benchmark;

    #[test]
    fn solo_time_matches_reference_at_3ghz() {
        let m = PerfModel::xgene3();
        for b in Benchmark::ALL {
            let p = b.profile();
            let t = m.solo_time_s(&p, 3_000);
            assert!(
                (t - p.ref_time_s).abs() < 1e-9,
                "{b}: {t} vs {}",
                p.ref_time_s
            );
        }
    }

    #[test]
    fn frequency_reduction_hurts_cpu_bound_more() {
        let m = PerfModel::xgene3();
        let namd = Benchmark::SpecNamd.profile();
        let cg = Benchmark::NpbCg.profile();
        let slowdown = |p: &BenchProfile| m.solo_time_s(p, 1_500) / m.solo_time_s(p, 3_000);
        let s_namd = slowdown(&namd);
        let s_cg = slowdown(&cg);
        // namd nearly doubles; CG barely moves (§IV-B).
        assert!(s_namd > 1.9, "namd slowdown {s_namd}");
        assert!(s_cg < 1.45, "CG slowdown {s_cg}");
    }

    #[test]
    fn figure8_extremes() {
        // namd/EP ratios near 1; CG/FT/milc much below 1 on a full chip.
        let m = PerfModel::xgene3();
        let ratio = |b: Benchmark| m.contention_ratio(&b.profile(), 32, 3_000);
        assert!(ratio(Benchmark::SpecNamd) > 0.95);
        assert!(ratio(Benchmark::NpbEp) > 0.93);
        assert!(ratio(Benchmark::NpbCg) < 0.45);
        assert!(ratio(Benchmark::NpbFt) < 0.5);
        assert!(ratio(Benchmark::SpecMilc) < 0.5);
        // Ratio ordering follows memory intensity.
        assert!(ratio(Benchmark::SpecGcc) > ratio(Benchmark::SpecMcf));
    }

    #[test]
    fn contention_ratio_is_one_for_single_copy() {
        let m = PerfModel::xgene2();
        for b in [Benchmark::SpecNamd, Benchmark::NpbCg] {
            let r = m.contention_ratio(&b.profile(), 1, 2_400);
            assert!((r - 1.0).abs() < 1e-12, "{b}: {r}");
        }
    }

    #[test]
    fn parallel_work_splits_with_imperfect_scaling() {
        let m = PerfModel::xgene3();
        let cg = Benchmark::NpbCg.profile();
        let w1 = m.thread_work(&cg, 1);
        let w8 = m.thread_work(&cg, 8);
        // More than 1/8 of the work per thread (efficiency < 1)...
        assert!(w8.core_gcycles > w1.core_gcycles / 8.0);
        // ...but far less than the whole job.
        assert!(w8.core_gcycles < w1.core_gcycles / 6.0);
    }

    #[test]
    fn spec_copies_replicate_work() {
        let m = PerfModel::xgene3();
        let milc = Benchmark::SpecMilc.profile();
        let w1 = m.thread_work(&milc, 1);
        let w8 = m.thread_work(&milc, 8);
        assert_eq!(w1, w8);
    }

    #[test]
    fn l2_sharing_penalizes_memory_partners() {
        let m = PerfModel::xgene3();
        assert_eq!(m.l2_share_mult(None), 1.0);
        let light = m.l2_share_mult(Some(0.02));
        let heavy = m.l2_share_mult(Some(0.66));
        assert!(light < 1.02);
        assert!(heavy > 1.3 && heavy < 1.6);
    }

    #[test]
    fn contention_mult_kicks_in_above_capacity() {
        let m = PerfModel::xgene3();
        assert_eq!(m.mem_contention_mult(0.5), 1.0);
        assert_eq!(m.mem_contention_mult(7.0), 1.0);
        assert!((m.mem_contention_mult(14.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stall_share_and_activity() {
        let m = PerfModel::xgene3();
        let cg = Benchmark::NpbCg.profile();
        let work = m.thread_work(&cg, 1);
        let stall = m.stall_share(&work, 3_000, 1.0);
        assert!((stall - cg.mem_fraction).abs() < 1e-9);
        // Under contention the stall share grows and activity falls.
        let act_free = m.effective_activity(&cg, &work, 3_000, 1.0);
        let act_cont = m.effective_activity(&cg, &work, 3_000, 3.0);
        assert!(act_cont < act_free);
        assert!(act_cont > 0.1);
    }

    #[test]
    fn observed_l3c_keeps_class_under_contention() {
        use crate::classify::{classify, IntensityClass};
        let m = PerfModel::xgene3();
        // Even heavily contended, memory-intensive programs stay above the
        // threshold and CPU-intensive stay below (Figure 9 holds at 32T).
        for b in [Benchmark::NpbCg, Benchmark::SpecMilc, Benchmark::SpecLbm] {
            let rate = m.observed_l3c_rate(&b.profile(), 3.5);
            assert_eq!(classify(rate), IntensityClass::MemoryIntensive, "{b}");
        }
        for b in [Benchmark::SpecNamd, Benchmark::NpbEp] {
            let rate = m.observed_l3c_rate(&b.profile(), 3.5);
            assert_eq!(classify(rate), IntensityClass::CpuIntensive, "{b}");
        }
    }

    #[test]
    fn progress_rate_inverts_time() {
        let m = PerfModel::xgene2();
        let lu = Benchmark::NpbLu.profile();
        let work = m.thread_work(&lu, 4);
        let t = m.exec_time_s(&work, 2_400, 1.2);
        let r = m.progress_rate(&work, 2_400, 1.2);
        assert!((t * r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_work() {
        let w = ThreadWork {
            core_gcycles: 10.0,
            mem_s: 5.0,
        };
        let half = w.scaled(0.5);
        assert_eq!(half.core_gcycles, 5.0);
        assert_eq!(half.mem_s, 2.5);
        assert!(!w.is_done());
        assert!(ThreadWork {
            core_gcycles: 0.0,
            mem_s: 0.0
        }
        .is_done());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let m = PerfModel::xgene3();
        let _ = m.thread_work(&Benchmark::NpbCg.profile(), 0);
    }
}
