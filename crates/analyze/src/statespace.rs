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
//! * [`World`] — a real [`Chip`] and a real [`Daemon`] behind the
//!   simulator's own change point, [`Kernel`]: the same view, action
//!   application, pin validation, fault-feedback rounds, admission and
//!   governor the simulator runs, with a zero migration pause (events
//!   are instantaneous). The three torn-state properties are evaluated
//!   at every atomic boundary the kernel reports to its [`Hook`]: after
//!   the driver answers, after each action, after each admission.
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
use avfs_chip::topology::CoreSet;
use avfs_core::daemon::Daemon;
use avfs_sched::driver::{Action, SysEvent};
use avfs_sched::governor::GovernorMode;
use avfs_sched::kernel::{Boundary, Hook, Kernel, Outcome};
use avfs_sched::process::{Pid, ProcessState};
use avfs_sim::rng::{fnv1a_fold, FNV_OFFSET_BASIS};
use avfs_sim::time::SimDuration;
use avfs_workloads::catalog::Benchmark;
use avfs_workloads::classify::{IntensityClass, L3C_THRESHOLD_PER_MCYCLE};
use avfs_workloads::perf::ThreadWork;
use std::fmt;

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

/// The L3-access rate the kernel's PMU sampler reports for a process of
/// `class` (the daemon's 3000-accesses threshold, hysteresis band
/// included, sits between the two).
fn l3_rate(class: IntensityClass) -> f64 {
    match class {
        IntensityClass::CpuIntensive => 200.0,
        IntensityClass::MemoryIntensive => 15_000.0,
    }
}

/// A process's bit in a footprint's pid mask.
fn pid_bit(pid: Pid) -> u64 {
    1u64 << (pid.0 % 64)
}

/// What one event application did: check/action accounting, any
/// violations found at an interleaving boundary, and the write
/// *footprint* the DPOR independence filter keys on.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Atomic actions applied.
    pub actions: u64,
    /// Invariant evaluations (one before each plan, one per action, one
    /// per kernel admission).
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
    /// Union of core bits written by pins and admissions plus the prior
    /// masks of every pinned or removed process.
    pub core_mask: u64,
    /// Bitmask (pid mod 64) of processes created, removed, pinned,
    /// admitted, or re-classified. Pids stay far below 64 within any
    /// explored bound.
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

    /// The three torn-state properties, evaluated at one interleaving
    /// boundary; `at` names it in any violation.
    fn check(&mut self, kernel: &Kernel, at: impl Fn() -> String) {
        self.checks += 1;
        let chip = kernel.chip();

        // Rail within its regulated window.
        let v = chip.voltage();
        let (floor, nominal) = (chip.spec().vreg_floor_mv, chip.spec().nominal_mv);
        if v.as_mv() < floor || v.as_mv() > nominal {
            self.violations.push(format!(
                "{}: rail {v} outside [{floor}mV, {nominal}mV]",
                at()
            ));
        }

        // No torn V/F pair: the rail covers the safe Vmin of what is
        // running right now at the frequency program right now.
        let busy = kernel.busy_cores();
        if !chip.is_voltage_safe_for(busy) {
            self.violations.push(format!(
                "{}: torn V/F state — {v} below safe Vmin {} for busy cores {busy}",
                at(),
                chip.current_safe_vmin(busy)
            ));
        }

        // No mid-migration mask: running masks are thread-sized and
        // pairwise disjoint.
        let mut seen = CoreSet::EMPTY;
        for p in kernel.processes().filter(|p| p.is_running()) {
            if p.assigned.len() != p.threads {
                self.violations.push(format!(
                    "{}: {} holds {} cores for {} threads",
                    at(),
                    p.pid,
                    p.assigned.len(),
                    p.threads
                ));
            }
            if !seen.intersection(p.assigned).is_empty() {
                self.violations.push(format!(
                    "{}: {} mask {} overlaps another process",
                    at(),
                    p.pid,
                    p.assigned
                ));
            }
            seen = seen.union(p.assigned);
        }
    }
}

/// The checker's hook: every atomic boundary of the kernel's change
/// point is checked and its write recorded in the footprint. A rejected
/// action is a violation too: the daemon asked for a pin, step or
/// voltage the kernel could not apply.
impl Hook for StepReport {
    fn at(&mut self, kernel: &Kernel, boundary: Boundary) {
        match boundary {
            Boundary::Planned(_) => self.check(kernel, || "before plan".to_string()),
            Boundary::Acted {
                event,
                index,
                action,
                outcome,
            } => {
                self.actions += 1;
                match action {
                    Action::SetVoltage(_) => self.wrote_voltage = true,
                    Action::SetPmdStep(pmd, _) => self.pmd_mask |= 1u64 << (pmd.index() % 64),
                    Action::PinProcess(pid, cores) => {
                        self.pid_mask |= pid_bit(pid);
                        self.core_mask |= cores.bits();
                    }
                    Action::SetGovernor(_) => self.wrote_governor = true,
                }
                let at = || format!("after {event:?} action {index} ({action:?})");
                match outcome {
                    Outcome::Applied => {}
                    Outcome::Pinned { from } => self.core_mask |= from.bits(),
                    Outcome::Faulted(_) => self.faults += 1,
                    Outcome::Rejected => self
                        .violations
                        .push(format!("{}: the kernel rejected it", at())),
                }
                self.check(kernel, at);
            }
            Boundary::Admitted { pid, cores } => {
                self.pid_mask |= pid_bit(pid);
                self.core_mask |= cores.bits();
                self.check(kernel, || format!("after admitting {pid} onto {cores}"));
            }
        }
    }
}

/// The system the checker explores: a real chip and a real daemon behind
/// the simulator's kernel. Cloning a `World` clones the whole state, so
/// exploration can branch freely.
#[derive(Clone)]
pub struct World {
    kernel: Kernel,
    daemon: Daemon,
    max_procs: usize,
}

impl World {
    /// A fresh world around `chip` driven by `daemon`, admitting at most
    /// `max_procs` concurrent processes (the branching bound).
    pub fn new(chip: Chip, daemon: Daemon, max_procs: usize) -> Self {
        World {
            kernel: Kernel::new(chip, SimDuration::ZERO, L3C_THRESHOLD_PER_MCYCLE),
            daemon,
            max_procs,
        }
    }

    /// The chip under control (read-only).
    pub fn chip(&self) -> &Chip {
        self.kernel.chip()
    }

    /// Number of live processes.
    pub fn live_procs(&self) -> usize {
        self.kernel.live().count()
    }

    /// Threads across all live processes (arrivals fit while this stays
    /// within the chip's core count).
    pub fn live_threads(&self) -> usize {
        self.kernel.live().map(|p| p.threads).sum()
    }

    /// The events enabled in this state, in a fixed deterministic order:
    /// tick, arrivals (narrow before wide, cpu before mem), finishes,
    /// flips. Arrivals are gated by core capacity and the live-process
    /// bound.
    pub fn enabled_events(&self) -> Vec<ModelEvent> {
        let mut events = vec![ModelEvent::Tick];
        let live = self.live_procs();
        let total_threads = self.live_threads();
        let capacity = self.chip().spec().cores as usize;
        if live < self.max_procs {
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
        for slot in 0..live {
            events.push(ModelEvent::Finish { slot });
        }
        for slot in 0..live {
            events.push(ModelEvent::Flip { slot });
        }
        events
    }

    /// Applies one symbolic event through the kernel's change point for
    /// it, with the torn-state properties evaluated at every atomic
    /// boundary. Returns `None` when the event is not applicable in this
    /// state (out-of-range slot, no capacity) — the shrinker uses this to
    /// discard invalid schedule subsequences.
    pub fn apply_event(&mut self, event: ModelEvent) -> Option<StepReport> {
        let mut report = StepReport::default();
        match event {
            ModelEvent::Tick => {
                self.kernel
                    .dispatch(&mut self.daemon, &mut report, SysEvent::MonitorTick);
                self.kernel.apply_governor();
            }
            ModelEvent::Arrive { threads, class } => {
                let capacity = self.chip().spec().cores as usize;
                if self.live_procs() >= self.max_procs || self.live_threads() + threads > capacity {
                    return None;
                }
                // The checker never integrates progress: the program and
                // its work only label the process.
                let no_work = ThreadWork {
                    core_gcycles: 0.0,
                    mem_s: 0.0,
                };
                let pid = self
                    .kernel
                    .submit(Benchmark::SpecNamd, threads, 1.0, no_work);
                self.kernel.observe_l3_rate(pid, l3_rate(class));
                report.arrived = true;
                report.pid_mask |= pid_bit(pid);
                self.kernel.arrive(&mut self.daemon, &mut report, pid);
            }
            ModelEvent::Finish { slot } => {
                let p = self.kernel.live().nth(slot)?;
                let pid = p.pid;
                report.pid_mask |= pid_bit(pid);
                report.core_mask |= p.assigned.bits();
                self.kernel.finish(&mut self.daemon, &mut report, pid);
            }
            ModelEvent::Flip { slot } => {
                let pid = self.kernel.live().nth(slot)?.pid;
                let class = match self.kernel.class(pid)? {
                    IntensityClass::CpuIntensive => IntensityClass::MemoryIntensive,
                    IntensityClass::MemoryIntensive => IntensityClass::CpuIntensive,
                };
                self.kernel.observe_l3_rate(pid, l3_rate(class));
                report.pid_mask |= pid_bit(pid);
                self.kernel.dispatch(
                    &mut self.daemon,
                    &mut report,
                    SysEvent::ClassChanged(pid, class),
                );
                self.kernel.apply_governor();
            }
        }
        Some(report)
    }

    /// The state-hash the checker's cache keys on: chip control state
    /// (rail, frequency program, droop flag), governor, pid allocator,
    /// every live process (state, mask, stall end, class), and the
    /// daemon's control fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let kernel = &self.kernel;
        let mut h = fnv1a_fold(FNV_OFFSET_BASIS, kernel.chip().state_digest());
        h = fnv1a_fold(
            h,
            match kernel.governor() {
                GovernorMode::Ondemand => 0,
                GovernorMode::Performance => 1,
                GovernorMode::Powersave => 2,
                GovernorMode::Userspace => 3,
            },
        );
        h = fnv1a_fold(h, kernel.next_pid().0);
        for p in kernel.live() {
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
            h = fnv1a_fold(h, p.stalled_until.as_nanos());
            h = fnv1a_fold(
                h,
                match kernel.class(p.pid) {
                    Some(IntensityClass::CpuIntensive) => 0,
                    Some(IntensityClass::MemoryIntensive) => 1,
                    None => 2,
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
    use avfs_chip::topology::CoreId;

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

    /// Kernel admission runs inside the checked change point. With three
    /// processes on X-Gene 2 the daemon leaves the third arrival waiting
    /// and the kernel starts it on default placement: core 1, the first
    /// free core of the first PMD at the lowest occupancy. That start is
    /// an atomic boundary of its own, checked and in the step's footprint.
    #[test]
    fn admission_is_a_checked_boundary_in_the_footprint() {
        let chip = presets::xgene2().build();
        let daemon = Daemon::optimal(&chip);
        let mut w = World::new(chip, daemon, 3);
        let arrive = |threads, class| ModelEvent::Arrive { threads, class };
        for ev in [
            arrive(2, IntensityClass::MemoryIntensive),
            arrive(2, IntensityClass::MemoryIntensive),
        ] {
            let step = w.apply_event(ev).expect("capacity");
            assert!(step.violations.is_empty(), "{ev}: {:?}", step.violations);
        }
        let step = w
            .apply_event(arrive(1, IntensityClass::CpuIntensive))
            .expect("capacity for a third process");
        assert!(step.violations.is_empty(), "{:?}", step.violations);
        assert_eq!(step.faults, 0);
        // One check before the plan, one per action, one at admission.
        assert_eq!(step.checks, step.actions + 2, "{step:?}");
        let admitted = w.kernel.process(Pid(3)).expect("pid 3 is live");
        assert_eq!(admitted.state, ProcessState::Running);
        let core_1: CoreSet = std::iter::once(CoreId::new(1)).collect();
        assert_eq!(admitted.assigned, core_1);
        assert_eq!(step.core_mask & core_1.bits(), core_1.bits(), "{step:?}");
        assert_ne!(step.pid_mask & pid_bit(Pid(3)), 0, "{step:?}");
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
