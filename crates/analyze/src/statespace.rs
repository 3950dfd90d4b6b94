//! The state space the model checker ([`crate::model`]) searches.
//!
//! * [`ModelEvent`] — a seedless, replayable event vocabulary. Finishes
//!   and class flips address processes by *slot* (arrival order), not
//!   pid, so a schedule prefix fully determines what each event means.
//!   Mailbox faults are events too: each queues one scripted fault on
//!   the chip, consumed by the next voltage request.
//! * [`World`] — a real [`Chip`] and a real [`Daemon`] behind the
//!   simulator's own change point, [`Kernel`]: the same view, action
//!   application, pin validation, fault-feedback rounds, admission and
//!   governor the simulator runs, with a zero migration pause (events
//!   are instantaneous). The three torn-state properties are evaluated
//!   at every atomic boundary the kernel reports to its [`Hook`]: after
//!   the driver answers, after each action, after each admission.
//! * [`World::fingerprint`] — the state-hash the search deduplicates on:
//!   rail mV, per-PMD frequency program, pending scripted faults, masks,
//!   each live process's class, governor, and the daemon's control state
//!   (recovery machine, droop guard). Observational state (counters,
//!   telemetry) is deliberately excluded: two worlds with equal
//!   fingerprints transition identically under equal events.
//!
//! No wall clock, no RNG: the chip's fault plan has zero rates, so the
//! whole state space is a pure function of the event sequence.

use avfs_chip::chip::Chip;
use avfs_chip::fault::{FaultPlan, FaultRates, MailboxFault, SCRIPT_CAPACITY};
use avfs_chip::topology::CoreSet;
use avfs_core::daemon::Daemon;
use avfs_core::recovery::RecoveryState;
use avfs_sched::driver::SysEvent;
use avfs_sched::governor::GovernorMode;
use avfs_sched::kernel::{Boundary, Hook, Kernel, Outcome};
use avfs_sched::process::ProcessState;
use avfs_sim::rng::splitmix64;
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
    /// One scripted mailbox fault joins the chip's queue; voltage
    /// requests consume the queue in order.
    Fault(MailboxFault),
}

/// Widest arrival in the alphabet, in threads.
const MAX_ARRIVAL_THREADS: usize = 4;

/// Every mailbox fault kind, in the order the alphabet lists them.
const MAILBOX_FAULTS: [MailboxFault; 3] = [
    MailboxFault::Refuse,
    MailboxFault::Drop,
    MailboxFault::LatencySpike,
];

fn fault_label(fault: MailboxFault) -> &'static str {
    match fault {
        MailboxFault::Refuse => "refusal",
        MailboxFault::Drop => "drop",
        MailboxFault::LatencySpike => "latency-spike",
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
            ModelEvent::Fault(fault) => write!(
                f,
                "a mailbox {} is queued for a later voltage request",
                fault_label(fault)
            ),
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

/// What one event application did: check/action accounting and any
/// violations found at an interleaving boundary.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Atomic actions applied.
    pub actions: u64,
    /// Invariant evaluations (one before each plan, one per action, one
    /// per kernel admission).
    pub checks: u64,
    /// Mailbox faults the chip injected (each one fed back to the daemon
    /// as a fault notice, not counted as a violation).
    pub faults: u64,
    /// Torn-state property violations, in discovery order.
    pub violations: Vec<String>,
}

impl StepReport {
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
/// point is checked. A rejected action is a violation too: the daemon
/// asked for a pin, step or voltage the kernel could not apply.
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
                let at = || format!("after {event:?} action {index} ({action:?})");
                match outcome {
                    Outcome::Applied | Outcome::Pinned { .. } => {}
                    Outcome::Faulted(_) => self.faults += 1,
                    Outcome::Rejected => self
                        .violations
                        .push(format!("{}: the kernel rejected it", at())),
                }
                self.check(kernel, at);
            }
            Boundary::Admitted { pid, cores } => {
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
    /// `max_procs` concurrent processes (the branching bound). The chip
    /// gets a zero-rate fault plan in place of any it carries: faults
    /// come only from [`ModelEvent::Fault`], so the fingerprint covers
    /// everything that decides a transition.
    pub fn new(mut chip: Chip, daemon: Daemon, max_procs: usize) -> Self {
        chip.set_fault_plan(Some(FaultPlan::new(0, FaultRates::ZERO)));
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
    fn live_procs(&self) -> usize {
        self.kernel.live().count()
    }

    /// Threads across all live processes.
    fn live_threads(&self) -> usize {
        self.kernel.live().map(|p| p.threads).sum()
    }

    /// Where the daemon's fault-recovery machine stands.
    pub fn recovery_state(&self) -> RecoveryState {
        self.daemon.recovery_state()
    }

    /// Scripted mailbox faults not yet consumed.
    fn pending_faults(&self) -> usize {
        self.chip()
            .fault_plan()
            .map_or(0, |plan| plan.scripted_mailbox().len())
    }

    /// A fault event fits while fewer faults are pending than it takes
    /// to trip the daemon's safe mode (and the script has room): one
    /// event can then carry a whole retry ladder into SafeMode.
    fn fault_fits(&self) -> bool {
        let threshold = self.daemon.config().recovery.safe_mode_threshold as usize;
        self.pending_faults() < threshold.min(SCRIPT_CAPACITY)
    }

    /// An arrival of `threads` threads fits while the live-process bound
    /// and the chip's cores allow it.
    fn arrival_fits(&self, threads: usize) -> bool {
        let capacity = self.chip().spec().cores as usize;
        self.live_procs() < self.max_procs && self.live_threads() + threads <= capacity
    }

    /// The events enabled in this state, in a fixed deterministic order:
    /// tick, arrivals (narrow before wide, cpu before mem), mailbox
    /// faults, finishes, flips. Arrivals are gated by core capacity and
    /// the live-process bound, faults by the safe-mode threshold.
    pub fn enabled_events(&self) -> Vec<ModelEvent> {
        let mut events = vec![ModelEvent::Tick];
        for threads in 1..=MAX_ARRIVAL_THREADS {
            if self.arrival_fits(threads) {
                for class in [
                    IntensityClass::CpuIntensive,
                    IntensityClass::MemoryIntensive,
                ] {
                    events.push(ModelEvent::Arrive { threads, class });
                }
            }
        }
        if self.fault_fits() {
            events.extend(MAILBOX_FAULTS.map(ModelEvent::Fault));
        }
        let live = self.live_procs();
        events.extend((0..live).map(|slot| ModelEvent::Finish { slot }));
        events.extend((0..live).map(|slot| ModelEvent::Flip { slot }));
        events
    }

    /// Applies one symbolic event through the kernel's change point for
    /// it, with the torn-state properties evaluated at every atomic
    /// boundary. Returns `None` when the event is not applicable in this
    /// state (out-of-range slot, no capacity, a full fault queue), so a
    /// replayed schedule that no longer fits is rejected, not misread.
    pub fn apply_event(&mut self, event: ModelEvent) -> Option<StepReport> {
        let mut report = StepReport::default();
        match event {
            ModelEvent::Tick => {
                self.kernel
                    .dispatch(&mut self.daemon, &mut report, SysEvent::MonitorTick);
                self.kernel.apply_governor();
            }
            ModelEvent::Arrive { threads, class } => {
                if !self.arrival_fits(threads) {
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
                self.kernel.arrive(&mut self.daemon, &mut report, pid);
            }
            ModelEvent::Finish { slot } => {
                let pid = self.kernel.live().nth(slot)?.pid;
                self.kernel.finish(&mut self.daemon, &mut report, pid);
            }
            ModelEvent::Flip { slot } => {
                let pid = self.kernel.live().nth(slot)?.pid;
                let class = match self.kernel.class(pid)? {
                    IntensityClass::CpuIntensive => IntensityClass::MemoryIntensive,
                    IntensityClass::MemoryIntensive => IntensityClass::CpuIntensive,
                };
                self.kernel.observe_l3_rate(pid, l3_rate(class));
                self.kernel
                    .dispatch(&mut self.daemon, &mut report, SysEvent::ClassChanged(pid));
                self.kernel.apply_governor();
            }
            ModelEvent::Fault(fault) => {
                if !self.fault_fits() || !self.kernel.fault_plan_mut()?.script_mailbox(fault) {
                    return None;
                }
            }
        }
        Some(report)
    }

    /// The state-hash the search deduplicates on: chip control state
    /// (rail, frequency program, droop flag, scripted faults), governor,
    /// pid allocator, every live process (state, mask, stall end, class),
    /// and the daemon's control fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let kernel = &self.kernel;
        let mut h = fold(0, kernel.chip().state_digest());
        h = fold(
            h,
            match kernel.governor() {
                GovernorMode::Ondemand => 0,
                GovernorMode::Performance => 1,
                GovernorMode::Powersave => 2,
                GovernorMode::Userspace => 3,
            },
        );
        h = fold(h, kernel.next_pid().0);
        for p in kernel.live() {
            h = fold(h, p.pid.0);
            h = fold(h, p.threads as u64);
            h = fold(
                h,
                match p.state {
                    ProcessState::Waiting => 0,
                    ProcessState::Running => 1,
                    ProcessState::Finished => 2,
                },
            );
            h = fold(h, p.assigned.bits());
            h = fold(h, p.stalled_until.as_nanos());
            h = fold(
                h,
                match kernel.class(p.pid) {
                    Some(IntensityClass::CpuIntensive) => 0,
                    Some(IntensityClass::MemoryIntensive) => 1,
                    None => 2,
                },
            );
        }
        fold(h, self.daemon.control_fingerprint())
    }
}

/// Folds one word into a fingerprint through splitmix64's finalizer.
/// The fingerprint combines two digests that are plain FNV-1a chains
/// (the chip's and the daemon's); an FNV fold would let equal
/// differences at the ends of both cancel, and two worlds that differ
/// only in one process's class did collide that way.
fn fold(h: u64, word: u64) -> u64 {
    splitmix64(h ^ word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_chip::presets;
    use avfs_chip::topology::CoreId;
    use avfs_core::recovery::RecoveryConfig;
    use avfs_sched::process::Pid;

    fn world() -> World {
        let chip = presets::xgene2().build();
        let daemon = Daemon::optimal(&chip);
        World::new(chip, daemon, 2)
    }

    #[test]
    fn fresh_world_enables_tick_arrivals_and_faults_only() {
        let w = world();
        let events = w.enabled_events();
        assert_eq!(events[0], ModelEvent::Tick);
        // Four widths x two classes, then the three fault kinds.
        assert_eq!(events.len(), 12, "{events:?}");
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
            ModelEvent::Fault(MailboxFault::LatencySpike),
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
        // The fault queue holds as many faults as trip safe mode.
        let refuse = ModelEvent::Fault(MailboxFault::Refuse);
        for _ in 0..3 {
            assert!(w.apply_event(refuse).is_some());
        }
        assert!(!w.enabled_events().contains(&refuse));
        assert!(w.apply_event(refuse).is_none());
    }

    #[test]
    fn a_queued_fault_changes_the_fingerprint() {
        let mut base = world();
        base.apply_event(ModelEvent::Tick).expect("tick");
        let queued = |fault| {
            let mut w = base.clone();
            w.apply_event(ModelEvent::Fault(fault))
                .expect("room to queue");
            w.fingerprint()
        };
        let prints = MAILBOX_FAULTS.map(queued);
        for (i, print) in prints.iter().enumerate() {
            assert_ne!(*print, base.fingerprint(), "{:?}", MAILBOX_FAULTS[i]);
            assert!(!prints[i + 1..].contains(print), "{:?}", MAILBOX_FAULTS[i]);
        }
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

    /// Three scripted faults carry one voltage request down the whole
    /// retry ladder into SafeMode; clean ticks then walk the daemon
    /// through Probation back to Optimized. Every boundary on the way is
    /// checked and clean.
    #[test]
    fn recovery_paths_hold_the_invariants_under_faults() {
        let mut w = world();
        let run = |w: &mut World, ev: ModelEvent| -> StepReport {
            let step = w.apply_event(ev).expect("applicable");
            assert!(step.violations.is_empty(), "{ev}: {:?}", step.violations);
            step
        };
        run(&mut w, ModelEvent::Tick);
        run(
            &mut w,
            ModelEvent::Arrive {
                threads: 2,
                class: IntensityClass::CpuIntensive,
            },
        );
        let undervolt = w.chip().voltage();
        let nominal = w.chip().nominal_voltage();
        assert!(undervolt < nominal);
        for fault in MAILBOX_FAULTS {
            run(&mut w, ModelEvent::Fault(fault));
        }
        assert_eq!(w.pending_faults(), 3);
        let step = run(
            &mut w,
            ModelEvent::Arrive {
                threads: 2,
                class: IntensityClass::CpuIntensive,
            },
        );
        assert_eq!(step.faults, 3, "{step:?}");
        assert_eq!(w.pending_faults(), 0);
        assert_eq!(w.recovery_state(), RecoveryState::SafeMode);
        assert_eq!(w.chip().voltage(), nominal);
        let recovery = RecoveryConfig::default();
        for _ in 0..recovery.safe_hold_events {
            run(&mut w, ModelEvent::Tick);
        }
        assert_eq!(w.recovery_state(), RecoveryState::Probation);
        assert_eq!(w.chip().voltage(), nominal);
        for _ in 0..recovery.probation_events {
            run(&mut w, ModelEvent::Tick);
        }
        assert_eq!(w.recovery_state(), RecoveryState::Optimized);
        assert!(w.chip().voltage() < nominal, "{}", w.chip().voltage());
    }

    /// Kernel admission runs inside the checked change point. With three
    /// processes on X-Gene 2 the daemon leaves the third arrival waiting
    /// and the kernel starts it on default placement: core 1, the first
    /// free core of the first PMD at the lowest occupancy. That start is
    /// an atomic boundary of its own, and checked.
    #[test]
    fn admission_is_a_checked_boundary() {
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
    }
}
