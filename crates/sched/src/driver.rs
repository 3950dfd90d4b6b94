//! The placement-driver interface: how policy code steers the system.
//!
//! The paper's daemon is invoked "after (a) either a new process is issued
//! to the system or when a process finishes its execution ... or (b) when
//! a process changes its state (from CPU-intensive to memory-intensive and
//! vice versa)" (§VI-A). [`SysEvent`] is exactly that event set plus the
//! periodic monitoring tick; a [`Driver`] receives each event with a
//! read-only [`SystemView`] and answers with [`Action`]s — pinning
//! processes, setting per-PMD frequency steps, and adjusting the rail
//! voltage through SLIMpro. The simulator applies actions in order, so a
//! driver can express the paper's fail-safe sequence (raise voltage
//! *before* raising frequency or widening the allocation) naturally.

use crate::governor::GovernorMode;
use crate::process::{Pid, ProcessState};
use avfs_chip::freq::FreqStep;
use avfs_chip::topology::{ChipSpec, CoreSet, PmdId, PmdSet};
use avfs_chip::voltage::Millivolts;
use avfs_sim::time::SimTime;
use avfs_workloads::classify::IntensityClass;

/// Events a driver is invoked on.
///
/// Non-exhaustive: new event kinds may be delivered in future versions,
/// so out-of-crate drivers must keep a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SysEvent {
    /// A new process entered the system (not yet placed).
    ProcessArrived(Pid),
    /// A process completed and released its cores.
    ProcessFinished(Pid),
    /// The monitoring window re-classified a process; its new class is
    /// in the view ([`ProcessView::class`]).
    ClassChanged(Pid),
    /// A monitoring window closed (counter sampling window elapsed).
    ///
    /// Windows close on a fixed grid while work is live, but the
    /// simulator delivers a boundary only when it can change something:
    /// it is one of the first two after a change point (an arrival,
    /// exit, admission, pin, voltage, frequency or governor write, class
    /// flip, phase boundary or stall edge), a fault plan is armed, or a
    /// process is stalled. Every other boundary closes a window whose
    /// rate repeats its predecessor's, so no class can flip, and it is
    /// skipped. A boundary that falls due while nothing is live fires
    /// with the next arrival, and the grid restarts there. The run's
    /// first event is a `MonitorTick` too.
    MonitorTick,
    /// One of the driver's own actions failed transiently (mailbox
    /// refusal or drop). Delivered synchronously after the failed batch,
    /// with the remainder of that batch discarded — the driver decides
    /// whether to retry, back off, or fall back to a safe mode.
    OperationFault(FaultNotice),
}

impl SysEvent {
    /// Stable snake_case label used in telemetry traces.
    pub fn label(&self) -> &'static str {
        match self {
            SysEvent::ProcessArrived(_) => "process_arrived",
            SysEvent::ProcessFinished(_) => "process_finished",
            SysEvent::ClassChanged(_) => "class_changed",
            SysEvent::MonitorTick => "monitor_tick",
            SysEvent::OperationFault(_) => "operation_fault",
        }
    }
}

/// What failed, as observed by the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNotice {
    /// A `SetVoltage` request was refused by the SLIMpro; the rail is
    /// unchanged.
    VoltageRefused(Millivolts),
    /// A `SetVoltage` request (or its response) was lost in flight; the
    /// rail may or may not have moved — only a fresh view tells.
    VoltageDropped(Millivolts),
}

impl FaultNotice {
    /// The voltage the failed request carried.
    pub fn requested(&self) -> Millivolts {
        match *self {
            FaultNotice::VoltageRefused(v) | FaultNotice::VoltageDropped(v) => v,
        }
    }
}

/// Steering actions a driver can request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Place (or migrate) a process onto an exact core set. The set's
    /// size must equal the process's thread count.
    PinProcess(Pid, CoreSet),
    /// Request a frequency step for one PMD (only honoured in
    /// `Userspace` governor mode; other modes re-assert their own choice).
    SetPmdStep(PmdId, FreqStep),
    /// Request a rail voltage through the SLIMpro mailbox.
    SetVoltage(Millivolts),
    /// Switch the cpufreq governor mode.
    SetGovernor(GovernorMode),
}

/// Kernel-style, sanitized view of one process: everything a real daemon
/// could learn from `/proc` and the PMU, and nothing more (in particular,
/// not the benchmark identity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessView {
    /// Process id.
    pub pid: Pid,
    /// Thread count.
    pub threads: usize,
    /// Lifecycle state.
    pub state: ProcessState,
    /// Assigned cores (empty while waiting).
    pub assigned: CoreSet,
    /// L3 accesses per 1 M cycles over the last monitoring window
    /// (`None` before the first window completes).
    pub l3c_per_mcycle: Option<f64>,
    /// Current classification, if any window has completed.
    pub class: Option<IntensityClass>,
    /// When the process arrived.
    pub arrived_at: SimTime,
    /// When the in-flight migration pause ends, if one is in progress
    /// (`None` when the process is executing normally). A hung migration
    /// shows up as a stall end far in the future — what the daemon's
    /// watchdog looks for.
    pub stalled_until: Option<SimTime>,
}

/// Read-only snapshot handed to drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemView {
    /// Current simulation time.
    pub now: SimTime,
    /// The chip's static description.
    pub spec: ChipSpec,
    /// Current rail voltage.
    pub voltage: Millivolts,
    /// Current per-PMD frequency steps.
    pub pmd_steps: Vec<FreqStep>,
    /// Governor mode in effect.
    pub governor: GovernorMode,
    /// True while a transient droop excursion is raising the effective
    /// safe Vmin (the chip's droop sensor output; §III-B). The daemon
    /// responds by bumping its guardband immediately.
    pub droop_alert: bool,
    /// Live processes (waiting or running), in pid order.
    pub processes: Vec<ProcessView>,
}

impl SystemView {
    /// The union of cores assigned to running processes.
    pub fn busy_cores(&self) -> CoreSet {
        self.processes
            .iter()
            .filter(|p| p.state == ProcessState::Running)
            .fold(CoreSet::EMPTY, |acc, p| acc.union(p.assigned))
    }

    /// The view of one process, if it is live.
    pub fn process(&self, pid: Pid) -> Option<&ProcessView> {
        self.processes.iter().find(|p| p.pid == pid)
    }

    /// PMDs with at least one busy core.
    pub fn utilized_pmds(&self) -> PmdSet {
        self.busy_cores().utilized_pmds(&self.spec)
    }
}

/// A placement policy: the system invokes it on every [`SysEvent`].
///
/// Implementations live both here ([`DefaultPolicy`]) and in the
/// `avfs-core` crate (the paper's daemon and its evaluation
/// configurations).
///
/// Arrivals, exits, class flips and operation faults are always
/// delivered; monitor ticks only where one can change something (see
/// [`SysEvent::MonitorTick`]). A driver must therefore not count ticks
/// as a clock: one that acts on the third quiet tick after a change
/// point, or on every n-th, never sees that tick unless a fault plan is
/// armed. Reacting to what the view shows is safe: a skipped tick would
/// have shown the same view as the delivered one before it, apart from
/// `now`.
pub trait Driver {
    /// Handles one event, returning the actions to apply (possibly none).
    fn on_event(&mut self, view: &SystemView, event: &SysEvent) -> Vec<Action>;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// The do-nothing policy: default kernel placement (the simulator's
/// spread-across-PMDs assignment) and whatever governor it was created
/// with. This is the paper's **Baseline** when created with
/// [`DefaultPolicy::ondemand`].
#[derive(Debug, Clone, Default)]
pub struct DefaultPolicy {
    switched: bool,
    mode: Option<GovernorMode>,
}

impl DefaultPolicy {
    /// Baseline: kernel placement + `ondemand` governor at nominal
    /// voltage.
    pub fn ondemand() -> Self {
        DefaultPolicy {
            switched: false,
            mode: Some(GovernorMode::Ondemand),
        }
    }

    /// Kernel placement with a specific governor mode.
    pub fn with_governor(mode: GovernorMode) -> Self {
        DefaultPolicy {
            switched: false,
            mode: Some(mode),
        }
    }
}

impl Driver for DefaultPolicy {
    fn on_event(&mut self, _view: &SystemView, _event: &SysEvent) -> Vec<Action> {
        match (self.switched, self.mode) {
            (false, Some(mode)) => {
                self.switched = true;
                vec![Action::SetGovernor(mode)]
            }
            _ => Vec::new(),
        }
    }

    fn name(&self) -> &str {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_chip::presets;
    use avfs_chip::topology::CoreId;

    fn view() -> SystemView {
        let spec = presets::xgene2().spec().clone();
        SystemView {
            now: SimTime::ZERO,
            spec,
            voltage: Millivolts::new(980),
            pmd_steps: vec![FreqStep::MAX; 4],
            governor: GovernorMode::Ondemand,
            droop_alert: false,
            processes: vec![
                ProcessView {
                    pid: Pid(1),
                    threads: 2,
                    state: ProcessState::Running,
                    assigned: [0u16, 1].into_iter().map(CoreId::new).collect(),
                    l3c_per_mcycle: Some(120.0),
                    class: Some(IntensityClass::CpuIntensive),
                    arrived_at: SimTime::ZERO,
                    stalled_until: None,
                },
                ProcessView {
                    pid: Pid(2),
                    threads: 1,
                    state: ProcessState::Waiting,
                    assigned: CoreSet::EMPTY,
                    l3c_per_mcycle: None,
                    class: None,
                    arrived_at: SimTime::from_secs(1),
                    stalled_until: None,
                },
            ],
        }
    }

    #[test]
    fn busy_and_free_cores_partition() {
        let v = view();
        let busy = v.busy_cores();
        assert_eq!(busy.len(), 2);
    }

    #[test]
    fn waiting_processes_occupy_nothing() {
        let v = view();
        assert!(!v.busy_cores().contains(CoreId::new(7)));
        assert_eq!(v.utilized_pmds().len(), 1);
    }

    #[test]
    fn process_lookup() {
        let v = view();
        assert_eq!(v.process(Pid(2)).unwrap().threads, 1);
        assert!(v.process(Pid(99)).is_none());
    }

    #[test]
    fn default_policy_sets_governor_once() {
        let v = view();
        let mut d = DefaultPolicy::ondemand();
        let first = d.on_event(&v, &SysEvent::MonitorTick);
        assert_eq!(first, vec![Action::SetGovernor(GovernorMode::Ondemand)]);
        let second = d.on_event(&v, &SysEvent::MonitorTick);
        assert!(second.is_empty());
        assert_eq!(d.name(), "baseline");
    }
}
