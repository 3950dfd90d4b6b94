//! The simulated process table.
//!
//! A [`Process`] is one issued job: a benchmark instance with a thread
//! count, per-thread remaining work and an affinity/assignment mask. Its
//! PMU counters live with its monitoring window in the kernel. The
//! paper's daemon only ever sees what a kernel would expose — pids,
//! assignments, and counter rates — never the benchmark identity.

use avfs_chip::topology::CoreSet;
use avfs_sim::time::SimTime;
use avfs_workloads::catalog::Benchmark;
use avfs_workloads::perf::ThreadWork;
use std::fmt;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessState {
    /// Admitted but not yet assigned cores (queued).
    Waiting,
    /// Assigned and executing.
    Running,
    /// Completed.
    Finished,
}

/// One simulated process.
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    /// Kernel-visible identifier.
    pub pid: Pid,
    /// The program (visible to the simulator, *not* to drivers).
    pub bench: Benchmark,
    /// Threads the job runs with.
    pub threads: usize,
    /// Job-size scale applied to the reference input.
    pub scale: f64,
    /// Remaining per-thread work.
    pub work: ThreadWork,
    /// Completed fraction in `[0, 1]`.
    pub progress: f64,
    /// Lifecycle state.
    pub state: ProcessState,
    /// Cores currently assigned (empty while waiting; `threads` bits when
    /// running).
    pub assigned: CoreSet,
    /// Issue time.
    pub arrived_at: SimTime,
    /// First dispatch time.
    pub started_at: Option<SimTime>,
    /// Completion time.
    pub finished_at: Option<SimTime>,
    /// Migration pause: the process makes no progress until this time.
    pub stalled_until: SimTime,
    /// Number of times the process was migrated.
    pub migrations: u32,
}

impl Process {
    /// Creates a process in the waiting state.
    pub fn new(
        pid: Pid,
        bench: Benchmark,
        threads: usize,
        scale: f64,
        work: ThreadWork,
        arrived_at: SimTime,
    ) -> Self {
        Process {
            pid,
            bench,
            threads,
            scale,
            work,
            progress: 0.0,
            state: ProcessState::Waiting,
            assigned: CoreSet::EMPTY,
            arrived_at,
            started_at: None,
            finished_at: None,
            stalled_until: SimTime::ZERO,
            migrations: 0,
        }
    }

    /// True while the process should accrue progress.
    pub fn is_running(&self) -> bool {
        self.state == ProcessState::Running
    }

    /// Remaining fraction of the job.
    pub fn remaining(&self) -> f64 {
        (1.0 - self.progress).max(0.0)
    }

    /// Turnaround time (arrival → completion), if finished.
    pub fn turnaround(&self) -> Option<avfs_sim::time::SimDuration> {
        self.finished_at
            .map(|t| t.saturating_since(self.arrived_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_sim::time::SimDuration;
    use avfs_workloads::PerfModel;

    fn proc() -> Process {
        let perf = PerfModel::xgene2();
        let work = perf.thread_work(&Benchmark::NpbLu.profile(), 4);
        Process::new(
            Pid(1),
            Benchmark::NpbLu,
            4,
            1.0,
            work,
            SimTime::from_secs(10),
        )
    }

    #[test]
    fn new_process_is_waiting_and_unassigned() {
        let p = proc();
        assert_eq!(p.state, ProcessState::Waiting);
        assert!(p.assigned.is_empty());
        assert!(!p.is_running());
        assert_eq!(p.progress, 0.0);
        assert_eq!(p.remaining(), 1.0);
        assert_eq!(p.turnaround(), None);
    }

    #[test]
    fn turnaround_spans_arrival_to_finish() {
        let mut p = proc();
        p.finished_at = Some(SimTime::from_secs(70));
        assert_eq!(p.turnaround(), Some(SimDuration::from_secs(60)));
    }

    #[test]
    fn remaining_clamps_at_zero() {
        let mut p = proc();
        p.progress = 1.2;
        assert_eq!(p.remaining(), 0.0);
    }
}
