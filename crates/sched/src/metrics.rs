//! Run metrics and traces: everything Tables III/IV and Figures 14/15
//! report.

use crate::process::Pid;
use avfs_sim::rng::{fnv1a_fold, FNV_OFFSET_BASIS};
use avfs_sim::series::TimeSeries;
use avfs_sim::time::{SimDuration, SimTime};

/// Per-process completion record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessRecord {
    /// Which process.
    pub pid: Pid,
    /// Arrival time.
    pub arrived_at: SimTime,
    /// Completion time.
    pub finished_at: SimTime,
    /// Threads used.
    pub threads: usize,
    /// Times the process was migrated.
    pub migrations: u32,
}

impl ProcessRecord {
    /// Turnaround time (arrival to completion).
    pub fn turnaround(&self) -> SimDuration {
        self.finished_at.saturating_since(self.arrived_at)
    }
}

/// Metrics of one full system run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMetrics {
    /// Completion time of the whole workload (last process finish), the
    /// "Time (s)" row of Tables III/IV.
    pub makespan: SimDuration,
    /// Total PCP energy over the run, joules.
    pub energy_j: f64,
    /// Time-weighted average power, watts.
    pub avg_power_w: f64,
    /// 1 Hz power trace (Figure 14).
    pub power_trace: TimeSeries,
    /// 1 Hz running-thread-count trace (Figure 15's load line, before the
    /// 1-minute moving average).
    pub load_trace: TimeSeries,
    /// 1 Hz count of running CPU-intensive processes (Figure 15).
    pub cpu_class_trace: TimeSeries,
    /// 1 Hz count of running memory-intensive processes (Figure 15).
    pub mem_class_trace: TimeSeries,
    /// Completion records, in finish order.
    pub completed: Vec<ProcessRecord>,
    /// Total process migrations.
    pub migrations: u64,
    /// Voltage changes applied through SLIMpro.
    pub voltage_changes: u64,
    /// Time (seconds) spent with the rail below the safe Vmin of the
    /// live configuration — must be 0 for a correct policy.
    pub unsafe_time_s: f64,
    /// Failure events injected while operating below safe Vmin.
    pub failures: u64,
}

impl RunMetrics {
    /// Energy–delay-squared product `E × D²` (J·s²), the paper's
    /// server-grade efficiency metric (§V-B).
    pub fn ed2p(&self) -> f64 {
        let d = self.makespan.as_secs_f64();
        self.energy_j * d * d
    }

    /// Energy–delay product `E × D` (J·s).
    pub fn edp(&self) -> f64 {
        self.energy_j * self.makespan.as_secs_f64()
    }

    /// Mean turnaround across completed processes, seconds.
    pub fn mean_turnaround_s(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .map(|r| r.turnaround().as_secs_f64())
            .sum::<f64>()
            / self.completed.len() as f64
    }

    /// Relative energy savings of `self` versus a baseline run
    /// (positive = this run used less energy).
    pub fn energy_savings_vs(&self, baseline: &RunMetrics) -> f64 {
        if baseline.energy_j <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy_j / baseline.energy_j
    }

    /// Relative makespan increase versus a baseline run
    /// (positive = this run was slower).
    pub fn time_penalty_vs(&self, baseline: &RunMetrics) -> f64 {
        let b = baseline.makespan.as_secs_f64();
        if b <= 0.0 {
            return 0.0;
        }
        self.makespan.as_secs_f64() / b - 1.0
    }

    /// Relative ED2P savings versus a baseline run.
    pub fn ed2p_savings_vs(&self, baseline: &RunMetrics) -> f64 {
        let b = baseline.ed2p();
        if b <= 0.0 {
            return 0.0;
        }
        1.0 - self.ed2p() / b
    }

    /// A deterministic digest of everything observable in the result.
    /// Two runs are byte-identical in this surface iff their
    /// fingerprints match (floats are compared via `to_bits`, so even
    /// sub-ulp drift is caught).
    pub fn fingerprint(&self) -> String {
        // Completion records folded positionally so the digest covers
        // every record without rendering them all.
        let mut rec_fold = FNV_OFFSET_BASIS;
        for r in &self.completed {
            for v in [
                r.pid.0,
                r.arrived_at.as_nanos(),
                r.finished_at.as_nanos(),
                r.threads as u64,
                u64::from(r.migrations),
            ] {
                rec_fold = fnv1a_fold(rec_fold, v);
            }
        }
        // The sampled series the same way: each series' length, then
        // every sample's time and value bits.
        let mut trace_fold = FNV_OFFSET_BASIS;
        for series in [
            &self.power_trace,
            &self.load_trace,
            &self.cpu_class_trace,
            &self.mem_class_trace,
        ] {
            trace_fold = fnv1a_fold(trace_fold, series.len() as u64);
            for (t, v) in series.iter() {
                trace_fold = fnv1a_fold(trace_fold, t.as_nanos());
                trace_fold = fnv1a_fold(trace_fold, v.to_bits());
            }
        }
        format!(
            "makespan_ns={} energy={:016x} avg_power={:016x} completed={} \
             records={rec_fold:016x} traces={trace_fold:016x} migrations={} vchanges={} \
             unsafe={:016x} failures={}",
            self.makespan.as_nanos(),
            self.energy_j.to_bits(),
            self.avg_power_w.to_bits(),
            self.completed.len(),
            self.migrations,
            self.voltage_changes,
            self.unsafe_time_s.to_bits(),
            self.failures,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(energy: f64, secs: u64) -> RunMetrics {
        RunMetrics {
            makespan: SimDuration::from_secs(secs),
            energy_j: energy,
            avg_power_w: energy / secs as f64,
            ..RunMetrics::default()
        }
    }

    fn sample() -> RunMetrics {
        RunMetrics {
            makespan: SimDuration::from_secs(10),
            energy_j: 123.5,
            avg_power_w: 12.35,
            completed: vec![ProcessRecord {
                pid: Pid(7),
                arrived_at: SimTime::from_secs(1),
                finished_at: SimTime::from_secs(4),
                threads: 2,
                migrations: 1,
            }],
            migrations: 1,
            voltage_changes: 3,
            unsafe_time_s: 0.0,
            failures: 0,
            power_trace: [
                (SimTime::from_secs(0), 11.5),
                (SimTime::from_secs(1), 12.25),
            ]
            .into_iter()
            .collect(),
            load_trace: [(SimTime::from_secs(0), 2.0)].into_iter().collect(),
            ..RunMetrics::default()
        }
    }

    #[test]
    fn ed2p_and_edp() {
        let m = metrics(100.0, 10);
        assert!((m.edp() - 1_000.0).abs() < 1e-9);
        assert!((m.ed2p() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn savings_comparisons() {
        let base = metrics(1_000.0, 100);
        let better = metrics(750.0, 103);
        assert!((better.energy_savings_vs(&base) - 0.25).abs() < 1e-12);
        assert!((better.time_penalty_vs(&base) - 0.03).abs() < 1e-12);
        let ed2p_savings = better.ed2p_savings_vs(&base);
        // 0.75 × 1.03² ≈ 0.7957 → ≈20.4 % ED2P savings.
        assert!((ed2p_savings - (1.0 - 0.75 * 1.03 * 1.03)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_baselines_dont_divide_by_zero() {
        let base = RunMetrics::default();
        let m = metrics(10.0, 1);
        assert_eq!(m.energy_savings_vs(&base), 0.0);
        assert_eq!(m.time_penalty_vs(&base), 0.0);
        assert_eq!(m.ed2p_savings_vs(&base), 0.0);
    }

    #[test]
    fn turnaround_and_mean() {
        let mut m = metrics(1.0, 10);
        assert_eq!(m.mean_turnaround_s(), 0.0);
        m.completed.push(ProcessRecord {
            pid: Pid(1),
            arrived_at: SimTime::from_secs(0),
            finished_at: SimTime::from_secs(30),
            threads: 1,
            migrations: 0,
        });
        m.completed.push(ProcessRecord {
            pid: Pid(2),
            arrived_at: SimTime::from_secs(10),
            finished_at: SimTime::from_secs(20),
            threads: 2,
            migrations: 1,
        });
        assert_eq!(m.completed[0].turnaround(), SimDuration::from_secs(30));
        assert!((m.mean_turnaround_s() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_is_sensitive_to_sub_ulp_energy_changes() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.energy_j = f64::from_bits(b.energy_j.to_bits() + 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // One ulp on one sample of a sampled series moves it too.
        let nudged = f64::from_bits(12.25f64.to_bits() + 1);
        let mut c = sample();
        c.power_trace = [
            (SimTime::from_secs(0), 11.5),
            (SimTime::from_secs(1), nudged),
        ]
        .into_iter()
        .collect();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
