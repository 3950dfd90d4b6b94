//! Shared state-space machinery for the interleaving checks.
//!
//! The race explorer ([`crate::race`]) walks *seeded random* schedules;
//! the model checker ([`crate::model`]) instead enumerates a *symbolic*
//! event alphabet exhaustively. Both drive the same [`World`]; this
//! module holds what they and the counterexample shrinker need:
//!
//! * [`ModelEvent`] — a seedless, replayable event vocabulary. Finishes
//!   and class flips address processes by *slot* (arrival order), not
//!   pid, so a schedule prefix fully determines what each event means
//!   and any subsequence of a schedule is itself a schedule.
//! * [`World`] — the mirrored system (a real [`Chip`], a real [`Daemon`],
//!   the live process set) with deterministic event application. Every
//!   action of the daemon's plan is applied one atomic write at a time
//!   and the three torn-state properties are evaluated at every boundary.
//! * [`World::fingerprint`] — the state-hash the checker's cache and the
//!   DPOR commutation check key on: rail mV, per-PMD frequency program,
//!   masks, governor, and the daemon's control state (recovery machine,
//!   droop guard, class tracker). Observational state (counters,
//!   telemetry) is deliberately excluded: two worlds with equal
//!   fingerprints transition identically under equal events.
//!
//! No wall clock, no RNG: the whole state space is a pure function of
//! the initial world (including any fault plan armed on its chip) and
//! the event sequence.

use avfs_chip::chip::Chip;
use avfs_chip::error::ChipError;
use avfs_chip::freq::FreqStep;
use avfs_chip::topology::CoreSet;
use avfs_core::daemon::Daemon;
use avfs_sched::driver::{Action, Driver, FaultNotice, ProcessView, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::process::{Pid, ProcessState};
use avfs_sim::rng::{fnv1a_fold, FNV_OFFSET_BASIS};
use avfs_sim::time::SimTime;
use avfs_workloads::classify::IntensityClass;
use std::fmt;

/// Bound on synchronous fault→retry rounds per event (mirrors the
/// scheduler's own dispatch bound; without an armed fault plan the loop
/// runs exactly once).
const FAULT_ROUNDS: usize = 8;

/// One symbolic event in the model's alphabet. The vocabulary is
/// self-contained — no pids, no seeds — so any schedule (a `Vec` of
/// these) replays identically from the same initial [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelEvent {
    /// Periodic monitoring tick.
    Tick,
    /// A new process with `threads` threads of the given class arrives.
    Arrive {
        /// Thread count of the arriving process.
        threads: usize,
        /// Its intensity class (the kernel sampler reports a matching
        /// L3 rate).
        class: IntensityClass,
    },
    /// The `slot`-th live process (in arrival order) finishes.
    Finish {
        /// Index into the live process list.
        slot: usize,
    },
    /// The `slot`-th live process flips its intensity class.
    Flip {
        /// Index into the live process list.
        slot: usize,
    },
}

impl ModelEvent {
    /// Compact stable label for JSON output and schedule dumps.
    pub fn label(&self) -> String {
        match *self {
            ModelEvent::Tick => "tick".to_string(),
            ModelEvent::Arrive { threads, class } => {
                format!("arrive(threads={threads},class={})", class_label(class))
            }
            ModelEvent::Finish { slot } => format!("finish(slot={slot})"),
            ModelEvent::Flip { slot } => format!("flip(slot={slot})"),
        }
    }
}

fn class_label(class: IntensityClass) -> &'static str {
    match class {
        IntensityClass::CpuIntensive => "cpu",
        IntensityClass::MemoryIntensive => "mem",
    }
}

impl fmt::Display for ModelEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelEvent::Tick => write!(f, "monitor tick"),
            ModelEvent::Arrive { threads, class } => {
                write!(
                    f,
                    "a {threads}-thread {}-intensive process arrives",
                    class_label(class)
                )
            }
            ModelEvent::Finish { slot } => write!(f, "the process in slot {slot} finishes"),
            ModelEvent::Flip { slot } => {
                write!(f, "the process in slot {slot} flips intensity class")
            }
        }
    }
}

/// One live process in the world's mirror of the system.
#[derive(Debug, Clone)]
struct Proc {
    pid: Pid,
    threads: usize,
    state: ProcessState,
    assigned: CoreSet,
    class: IntensityClass,
}

impl Proc {
    fn view(&self) -> ProcessView {
        ProcessView {
            pid: self.pid,
            threads: self.threads,
            state: self.state,
            assigned: self.assigned,
            // The kernel sampler reports an L3 rate consistent with the
            // class (the daemon's 3000-accesses threshold sits between).
            l3c_per_mcycle: Some(match self.class {
                IntensityClass::CpuIntensive => 200.0,
                IntensityClass::MemoryIntensive => 15_000.0,
            }),
            class: Some(self.class),
            arrived_at: SimTime::ZERO,
            stalled_until: None,
        }
    }
}

/// What one event application did: check/action accounting, any
/// violations found at an interleaving boundary, and the write
/// *footprint* the DPOR independence filter keys on.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Atomic actions applied.
    pub actions: u64,
    /// Invariant evaluations (one before the plan, one per action).
    pub checks: u64,
    /// Mailbox faults the chip's fault plan injected (each one fed back
    /// to the daemon as a fault notice, not counted as a violation).
    pub faults: u64,
    /// Torn-state property violations, in discovery order.
    pub violations: Vec<String>,
    /// The step issued at least one `SetVoltage` (the rail is global:
    /// conflicts with everything).
    pub wrote_voltage: bool,
    /// The step switched governor mode (global: conflicts with
    /// everything).
    pub wrote_governor: bool,
    /// Bitmask of PMD indices whose frequency step was written.
    pub pmd_mask: u64,
    /// Union of core bits written by pins plus the prior masks of every
    /// pinned or removed process.
    pub core_mask: u64,
    /// Bitmask (pid mod 64) of processes created, removed, pinned, or
    /// re-classified. Pids stay far below 64 within any explored bound.
    pub pid_mask: u64,
    /// The step allocated a fresh pid (arrivals order-conflict with each
    /// other: pid labels differ across orders).
    pub arrived: bool,
}

impl StepReport {
    /// Conservative write-footprint disjointness: the *necessary* filter
    /// before the checker's exact commutation test. Anything touching
    /// the global rail or governor conflicts with everything.
    pub fn footprint_disjoint(&self, other: &StepReport) -> bool {
        !self.wrote_voltage
            && !other.wrote_voltage
            && !self.wrote_governor
            && !other.wrote_governor
            && self.pmd_mask & other.pmd_mask == 0
            && self.core_mask & other.core_mask == 0
            && self.pid_mask & other.pid_mask == 0
            && !(self.arrived && other.arrived)
    }
}

/// The mirrored system the checker explores: a real chip, a real daemon,
/// and the live process set. Cloning a `World` clones the whole state,
/// so exploration can branch freely.
#[derive(Clone)]
pub struct World {
    chip: Chip,
    daemon: Daemon,
    procs: Vec<Proc>,
    governor: GovernorMode,
    next_pid: u64,
    max_procs: usize,
}

impl World {
    /// A fresh world around `chip` driven by `daemon`, admitting at most
    /// `max_procs` concurrent processes (the branching bound).
    pub fn new(chip: Chip, daemon: Daemon, max_procs: usize) -> Self {
        World {
            chip,
            daemon,
            procs: Vec::new(),
            governor: GovernorMode::Ondemand,
            next_pid: 1,
            max_procs,
        }
    }

    /// The chip under control (read-only).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Number of live processes.
    pub fn live_procs(&self) -> usize {
        self.procs.len()
    }

    /// Threads across all live processes (arrivals fit while this stays
    /// within the chip's core count).
    pub fn live_threads(&self) -> usize {
        self.procs.iter().map(|p| p.threads).sum()
    }

    fn view(&self) -> SystemView {
        let spec = self.chip.spec();
        SystemView {
            now: SimTime::ZERO,
            spec: spec.clone(),
            voltage: self.chip.voltage(),
            pmd_steps: spec
                .all_pmds()
                .map(|p| self.chip.pmd_freq_step(p).unwrap_or(FreqStep::MAX))
                .collect(),
            governor: self.governor,
            droop_alert: self.chip.droop_excursion_active(),
            processes: self.procs.iter().map(Proc::view).collect(),
        }
    }

    fn busy_cores(&self) -> CoreSet {
        self.procs
            .iter()
            .filter(|p| p.state == ProcessState::Running)
            .fold(CoreSet::EMPTY, |acc, p| acc.union(p.assigned))
    }

    /// The events enabled in this state, in a fixed deterministic order:
    /// tick, arrivals (narrow before wide, cpu before mem), finishes,
    /// flips. Arrivals are gated by core capacity and the live-process
    /// bound.
    pub fn enabled_events(&self) -> Vec<ModelEvent> {
        let mut events = vec![ModelEvent::Tick];
        let total_threads = self.live_threads();
        let capacity = self.chip.spec().cores as usize;
        if self.procs.len() < self.max_procs {
            for threads in [1usize, 2] {
                if total_threads + threads <= capacity {
                    events.push(ModelEvent::Arrive {
                        threads,
                        class: IntensityClass::CpuIntensive,
                    });
                    events.push(ModelEvent::Arrive {
                        threads,
                        class: IntensityClass::MemoryIntensive,
                    });
                }
            }
        }
        for slot in 0..self.procs.len() {
            events.push(ModelEvent::Finish { slot });
        }
        for slot in 0..self.procs.len() {
            events.push(ModelEvent::Flip { slot });
        }
        events
    }

    /// Applies one symbolic event: updates the mirror, delivers the
    /// corresponding [`SysEvent`] to the daemon, and applies the plan one
    /// atomic action at a time with the torn-state properties evaluated
    /// at every boundary. Returns `None` when the event is not
    /// applicable in this state (out-of-range slot, no capacity) — the
    /// shrinker uses this to discard invalid schedule subsequences.
    pub fn apply_event(&mut self, event: ModelEvent) -> Option<StepReport> {
        let mut report = StepReport::default();
        let sys_event = match event {
            ModelEvent::Tick => SysEvent::MonitorTick,
            ModelEvent::Arrive { threads, class } => {
                let capacity = self.chip.spec().cores as usize;
                if self.procs.len() >= self.max_procs || self.live_threads() + threads > capacity {
                    return None;
                }
                let pid = Pid(self.next_pid);
                self.next_pid += 1;
                self.procs.push(Proc {
                    pid,
                    threads,
                    state: ProcessState::Waiting,
                    assigned: CoreSet::EMPTY,
                    class,
                });
                report.arrived = true;
                report.pid_mask |= 1u64 << (pid.0 % 64);
                SysEvent::ProcessArrived(pid)
            }
            ModelEvent::Finish { slot } => {
                if slot >= self.procs.len() {
                    return None;
                }
                let p = self.procs.remove(slot);
                report.pid_mask |= 1u64 << (p.pid.0 % 64);
                report.core_mask |= p.assigned.bits();
                SysEvent::ProcessFinished(p.pid)
            }
            ModelEvent::Flip { slot } => {
                let p = self.procs.get_mut(slot)?;
                p.class = match p.class {
                    IntensityClass::CpuIntensive => IntensityClass::MemoryIntensive,
                    IntensityClass::MemoryIntensive => IntensityClass::CpuIntensive,
                };
                report.pid_mask |= 1u64 << (p.pid.0 % 64);
                let (pid, class) = (p.pid, p.class);
                SysEvent::ClassChanged(pid, class)
            }
        };
        self.deliver(sys_event, &mut report);
        Some(report)
    }

    /// Delivers one event to the daemon and applies its plan under
    /// interleaved checks, feeding fault notices back for a bounded
    /// number of recovery rounds (inert unless a fault plan is armed).
    fn deliver(&mut self, event: SysEvent, report: &mut StepReport) {
        let mut event = event;
        for _round in 0..=FAULT_ROUNDS {
            let view = self.view();
            let actions = self.daemon.on_event(&view, &event);
            self.check_invariants("before plan", report);
            let mut notice = None;
            for (i, action) in actions.into_iter().enumerate() {
                let outcome = self.apply_action(action, report);
                let at = format!("after {event:?} action {i} ({action:?})");
                self.check_invariants(&at, report);
                if outcome.is_some() {
                    notice = outcome;
                    break;
                }
            }
            match notice {
                Some(n) => event = SysEvent::OperationFault(n),
                None => break,
            }
        }
    }

    /// Applies one atomic action — one mailbox/CPPC/affinity write —
    /// recording its write footprint.
    fn apply_action(&mut self, action: Action, report: &mut StepReport) -> Option<FaultNotice> {
        report.actions += 1;
        match action {
            Action::SetVoltage(mv) => {
                report.wrote_voltage = true;
                let notice = match self.chip.set_voltage(mv) {
                    Ok(()) => return None,
                    Err(ChipError::MailboxRefused { .. }) => FaultNotice::VoltageRefused(mv),
                    Err(ChipError::MailboxDropped) => FaultNotice::VoltageDropped(mv),
                    Err(e) => {
                        report
                            .violations
                            .push(format!("daemon requested an unprogrammable voltage: {e}"));
                        return None;
                    }
                };
                report.faults += 1;
                Some(notice)
            }
            Action::SetPmdStep(pmd, step) => {
                report.pmd_mask |= 1u64 << (pmd.index() % 64);
                if self.governor == GovernorMode::Userspace {
                    if let Err(e) = self.chip.set_pmd_freq_step(pmd, step) {
                        report
                            .violations
                            .push(format!("daemon requested an invalid step: {e}"));
                    }
                }
                None
            }
            Action::PinProcess(pid, cores) => {
                report.pid_mask |= 1u64 << (pid.0 % 64);
                report.core_mask |= cores.bits();
                if let Some(p) = self.procs.iter_mut().find(|p| p.pid == pid) {
                    report.core_mask |= p.assigned.bits();
                    p.assigned = cores;
                    p.state = ProcessState::Running;
                }
                None
            }
            Action::SetGovernor(mode) => {
                report.wrote_governor = true;
                self.governor = mode;
                None
            }
        }
    }

    /// The three torn-state properties, evaluated at one interleaving
    /// boundary.
    fn check_invariants(&self, at: &str, report: &mut StepReport) {
        report.checks += 1;

        // Rail within its regulated window.
        let v = self.chip.voltage();
        let (floor, nominal) = (self.chip.spec().vreg_floor_mv, self.chip.spec().nominal_mv);
        if v.as_mv() < floor || v.as_mv() > nominal {
            report
                .violations
                .push(format!("{at}: rail {v} outside [{floor}mV, {nominal}mV]"));
        }

        // No torn V/F pair: the rail covers the safe Vmin of what is
        // running right now at the frequency program right now.
        let busy = self.busy_cores();
        if !self.chip.is_voltage_safe_for(busy) {
            report.violations.push(format!(
                "{at}: torn V/F state — {v} below safe Vmin {} for busy cores {busy}",
                self.chip.current_safe_vmin(busy)
            ));
        }

        // No mid-migration mask: running masks are thread-sized and
        // pairwise disjoint.
        let mut seen = CoreSet::EMPTY;
        for p in self
            .procs
            .iter()
            .filter(|p| p.state == ProcessState::Running)
        {
            if p.assigned.len() != p.threads {
                report.violations.push(format!(
                    "{at}: {} holds {} cores for {} threads",
                    p.pid,
                    p.assigned.len(),
                    p.threads
                ));
            }
            if !seen.intersection(p.assigned).is_empty() {
                report.violations.push(format!(
                    "{at}: {} mask {} overlaps another process",
                    p.pid, p.assigned
                ));
            }
            seen = seen.union(p.assigned);
        }
    }

    /// The state-hash the checker's cache keys on: chip control state
    /// (rail, frequency program, droop flag), governor, pid allocator,
    /// every live process, and the daemon's control fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a_fold(FNV_OFFSET_BASIS, self.chip.state_digest());
        h = fnv1a_fold(
            h,
            match self.governor {
                GovernorMode::Ondemand => 0,
                GovernorMode::Performance => 1,
                GovernorMode::Powersave => 2,
                GovernorMode::Userspace => 3,
            },
        );
        h = fnv1a_fold(h, self.next_pid);
        for p in &self.procs {
            h = fnv1a_fold(h, p.pid.0);
            h = fnv1a_fold(h, p.threads as u64);
            h = fnv1a_fold(
                h,
                match p.state {
                    ProcessState::Waiting => 0,
                    ProcessState::Running => 1,
                    ProcessState::Finished => 2,
                },
            );
            h = fnv1a_fold(h, p.assigned.bits());
            h = fnv1a_fold(
                h,
                match p.class {
                    IntensityClass::CpuIntensive => 0,
                    IntensityClass::MemoryIntensive => 1,
                },
            );
        }
        fnv1a_fold(h, self.daemon.control_fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_chip::presets;

    fn world() -> World {
        let chip = presets::xgene2().build();
        let daemon = Daemon::optimal(&chip);
        World::new(chip, daemon, 2)
    }

    #[test]
    fn fresh_world_enables_tick_and_arrivals_only() {
        let w = world();
        let events = w.enabled_events();
        assert_eq!(events[0], ModelEvent::Tick);
        assert_eq!(events.len(), 5, "{events:?}");
        assert!(events
            .iter()
            .all(|e| !matches!(e, ModelEvent::Finish { .. } | ModelEvent::Flip { .. })));
    }

    #[test]
    fn apply_is_deterministic_and_fingerprint_stable() {
        let mut a = world();
        let mut b = world();
        for ev in [
            ModelEvent::Tick,
            ModelEvent::Arrive {
                threads: 2,
                class: IntensityClass::MemoryIntensive,
            },
            ModelEvent::Flip { slot: 0 },
            ModelEvent::Finish { slot: 0 },
        ] {
            let ra = a.apply_event(ev);
            let rb = b.apply_event(ev);
            assert_eq!(ra.is_some(), rb.is_some());
            assert_eq!(a.fingerprint(), b.fingerprint(), "after {ev}");
        }
    }

    #[test]
    fn inapplicable_events_return_none() {
        let mut w = world();
        assert!(w.apply_event(ModelEvent::Finish { slot: 0 }).is_none());
        assert!(w.apply_event(ModelEvent::Flip { slot: 3 }).is_none());
        // Fill to the process bound; further arrivals are inapplicable.
        for _ in 0..2 {
            let r = w.apply_event(ModelEvent::Arrive {
                threads: 1,
                class: IntensityClass::CpuIntensive,
            });
            assert!(r.is_some());
        }
        assert!(w
            .apply_event(ModelEvent::Arrive {
                threads: 1,
                class: IntensityClass::CpuIntensive,
            })
            .is_none());
    }

    #[test]
    fn fail_safe_daemon_holds_invariants_on_a_straightline_schedule() {
        let mut w = world();
        let schedule = [
            ModelEvent::Tick,
            ModelEvent::Arrive {
                threads: 2,
                class: IntensityClass::MemoryIntensive,
            },
            ModelEvent::Tick,
            ModelEvent::Arrive {
                threads: 1,
                class: IntensityClass::CpuIntensive,
            },
            ModelEvent::Flip { slot: 0 },
            ModelEvent::Finish { slot: 1 },
            ModelEvent::Tick,
        ];
        for ev in schedule {
            if let Some(r) = w.apply_event(ev) {
                assert!(r.violations.is_empty(), "{ev}: {:?}", r.violations);
            }
        }
    }

    #[test]
    fn footprint_disjointness_is_conservative_about_globals() {
        let voltage = StepReport {
            wrote_voltage: true,
            ..StepReport::default()
        };
        let pin = StepReport {
            core_mask: 0b11,
            pid_mask: 0b10,
            ..StepReport::default()
        };
        let other_pin = StepReport {
            core_mask: 0b1100,
            pid_mask: 0b100,
            ..StepReport::default()
        };
        assert!(!voltage.footprint_disjoint(&pin));
        assert!(pin.footprint_disjoint(&other_pin));
        assert!(!pin.footprint_disjoint(&pin));
    }
}
