//! The kernel side of a change point.
//!
//! Every event a [`Driver`] hears runs the same kernel sequence: build
//! the driver's [`SystemView`], apply its plan one atomic write at a
//! time (feeding mailbox faults back for a bounded number of rounds),
//! start waiting processes on default placement, and re-assert the
//! kernel governor. [`Kernel`] owns the state that sequence touches —
//! the chip, the process table, the run queue and the governor — and is
//! the one implementation of it. [`crate::system::System`] drives it
//! between change points with the no-op hook `()`. The analyzer's
//! model checker drives it event by event with a zero migration pause,
//! observing every atomic boundary through its own [`Hook`].

use crate::driver::{Action, Driver, FaultNotice, ProcessView, SysEvent, SystemView};
use crate::governor::GovernorMode;
use crate::process::{Pid, Process, ProcessState};
use avfs_chip::chip::Chip;
use avfs_chip::error::ChipError;
use avfs_chip::fault::FaultPlan;
use avfs_chip::topology::{ChipSpec, CoreSet, PmdId};
use avfs_chip::FreqStep;
use avfs_sim::time::{SimDuration, SimTime};
use avfs_telemetry::{Telemetry, TraceKind, Value};
use avfs_workloads::catalog::Benchmark;
use avfs_workloads::classify::{HysteresisClassifier, IntensityClass};
use avfs_workloads::perf::ThreadWork;
use std::collections::VecDeque;

/// How long a hung migration stalls if nothing rescues it. Far beyond
/// any watchdog threshold, but finite so an undefended run still
/// terminates (monitor ticks keep the event loop alive meanwhile).
const HANG_STALL: SimDuration = SimDuration::from_secs(3_600);

/// Bound on synchronous fault-feedback rounds per event: each round
/// re-consults the driver with the [`SysEvent::OperationFault`]s its
/// previous actions provoked. Deep enough for a retry ladder to reach
/// safe mode, shallow enough to guarantee termination even against a
/// driver that retries forever at a 100% fault rate.
pub(crate) const FAULT_FEEDBACK_ROUNDS: usize = 8;

/// An atomic boundary inside a change point: a state a concurrent
/// observer (a monitor sample, another CPU) could see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Boundary {
    /// The driver answered this event; none of its plan has applied yet.
    Planned(SysEvent),
    /// One action of the driver's plan was attempted.
    Acted {
        /// The event the plan answers.
        event: SysEvent,
        /// The action's position in the plan.
        index: usize,
        /// The action itself.
        action: Action,
        /// What became of it.
        outcome: Outcome,
    },
    /// Admission started a waiting process on default placement.
    Admitted {
        /// The process started.
        pid: Pid,
        /// The cores it was placed on.
        cores: CoreSet,
    },
}

/// What became of one driver action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// A frequency, voltage or governor write took effect.
    Applied,
    /// A pin took effect; `from` is the mask the process held before
    /// (empty when it was waiting).
    Pinned {
        /// The process's previous core mask.
        from: CoreSet,
    },
    /// The kernel refused the action (invalid pin, a step outside
    /// `userspace` mode, an unprogrammable voltage).
    Rejected,
    /// The mailbox refused or lost a voltage request; the rest of the
    /// plan is discarded and the notice goes back to the driver.
    Faulted(FaultNotice),
}

/// Observes a change point at each of its atomic boundaries, with the
/// kernel state at that boundary. Statically dispatched: the
/// simulator's hook, `()`, compiles away.
pub trait Hook {
    /// Called at `boundary`; `kernel` shows the state right after it.
    fn at(&mut self, kernel: &Kernel, boundary: Boundary);
}

impl Hook for () {
    fn at(&mut self, _kernel: &Kernel, _boundary: Boundary) {}
}

/// Per-process monitoring state: the open PMU window and the classifier
/// it feeds.
#[derive(Debug, Clone)]
pub(crate) struct MonitorState {
    pub(crate) classifier: HysteresisClassifier,
    /// Core cycles counted in the open window.
    pub(crate) window_cycles: u64,
    /// L3 accesses counted in the open window.
    pub(crate) window_l3: u64,
    pub(crate) last_rate: Option<f64>,
}

impl MonitorState {
    /// Records one window's L3-access rate; returns the new class when
    /// it changed. The first classification is a change too — the
    /// daemon treats unmeasured processes as CPU-intensive, so learning
    /// otherwise must trigger a replan. The next class depends only on
    /// the current class and the rate, and a second observation of the
    /// same rate keeps the class the first one gave: a window that
    /// repeats its predecessor's rate cannot flip it.
    pub(crate) fn observe(&mut self, l3c_per_mcycle: f64) -> Option<IntensityClass> {
        self.last_rate = Some(l3c_per_mcycle);
        let before = self.classifier.current();
        let after = self.classifier.observe(l3c_per_mcycle);
        (before != Some(after)).then_some(after)
    }
}

/// One row of the process table: a process and its monitoring window.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) process: Process,
    pub(crate) monitor: MonitorState,
}

/// Reusable change-point buffers, cleared and refilled per event. Pure
/// capacity: nothing in here survives an event observably.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Recycled driver snapshot (its vecs keep their capacity).
    view: Option<SystemView>,
    /// Fault notices produced by the current action batch.
    notices: Vec<FaultNotice>,
    /// Fault notices accumulating for the next feedback round.
    notices_next: Vec<FaultNotice>,
    /// Governor frequency-step decisions staged before application.
    steps: Vec<(PmdId, FreqStep)>,
}

/// The kernel state a change point reads and writes, and the one
/// implementation of the change point's kernel side.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub(crate) chip: Chip,
    /// The process table, pid-sorted. Pids are issued in increasing
    /// order, so a submit appends; a process leaves the table once its
    /// completion has been dispatched.
    pub(crate) procs: Vec<Entry>,
    queue: VecDeque<Pid>,
    governor: GovernorMode,
    pub(crate) now: SimTime,
    migration_pause: SimDuration,
    l3c_threshold: f64,
    next_pid: u64,
    /// Migrations performed so far.
    pub(crate) migrations: u64,
    /// Driver actions rejected as invalid so far.
    pub(crate) rejected_actions: u64,
    /// Bumped whenever the process table changes in a way a driver or a
    /// rate can see: a submit, start, pin, stall restart, completion,
    /// class flip or governor switch. With the chip's state epoch it
    /// tells the simulator when a change point happened.
    pub(crate) epoch: u64,
    /// The kernel and chip epochs right after the last governor pass:
    /// while both hold, a pass would write exactly what is in force.
    governed: Option<(u64, u64)>,
    pub(crate) telemetry: Telemetry,
    scratch: Scratch,
}

/// Kernel-like placement of `threads` threads around `busy`: free cores
/// ordered by their PMD's occupancy, then PMD index, then core index,
/// so idle PMDs fill first. `None` when too few cores are free.
fn default_placement(spec: &ChipSpec, busy: CoreSet, threads: usize) -> Option<CoreSet> {
    let free = CoreSet::first_n(spec.cores).difference(busy);
    if free.len() < threads {
        return None;
    }
    let mut chosen = CoreSet::EMPTY;
    for occupancy in 0..=spec.cores_per_pmd as usize {
        for pmd in spec.all_pmds() {
            let cores = spec.cores_of(pmd);
            if cores.intersection(busy).len() != occupancy {
                continue;
            }
            for core in cores.difference(busy).iter() {
                if chosen.len() == threads {
                    return Some(chosen);
                }
                chosen.insert(core);
            }
        }
    }
    Some(chosen)
}

impl Kernel {
    /// An empty kernel around `chip` under the `ondemand` governor at
    /// time zero. A migrated process pauses for `migration_pause`; new
    /// processes classify against `l3c_threshold` (L3 accesses per 1M
    /// cycles). Reports through the chip's telemetry handle.
    pub fn new(chip: Chip, migration_pause: SimDuration, l3c_threshold: f64) -> Self {
        let telemetry = chip.telemetry().clone();
        Kernel {
            chip,
            procs: Vec::new(),
            queue: VecDeque::new(),
            governor: GovernorMode::Ondemand,
            now: SimTime::ZERO,
            migration_pause,
            l3c_threshold,
            next_pid: 1,
            migrations: 0,
            rejected_actions: 0,
            epoch: 0,
            governed: None,
            telemetry,
            scratch: Scratch::default(),
        }
    }

    /// The chip under control.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The chip's armed fault plan, for scripting faults between change
    /// points.
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.chip.fault_plan_mut()
    }

    /// Governor mode in effect.
    pub fn governor(&self) -> GovernorMode {
        self.governor
    }

    /// The pid the next submitted process will get.
    pub fn next_pid(&self) -> Pid {
        Pid(self.next_pid)
    }

    /// The process table in pid order. A completing process stays in it,
    /// `Finished`, until its change point ends.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.procs.iter().map(|e| &e.process)
    }

    /// Running processes in pid order.
    pub(crate) fn running(&self) -> impl Iterator<Item = &Process> {
        self.processes().filter(|p| p.is_running())
    }

    /// Live (waiting or running) processes in pid order.
    pub fn live(&self) -> impl Iterator<Item = &Process> {
        self.processes()
            .filter(|p| p.state != ProcessState::Finished)
    }

    /// Table index of `pid`, if it is in the table.
    pub(crate) fn slot(&self, pid: Pid) -> Option<usize> {
        self.procs
            .binary_search_by_key(&pid, |e| e.process.pid)
            .ok()
    }

    /// The process `pid`, if it is in the table.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.slot(pid).map(|i| &self.procs[i].process)
    }

    /// The current class of `pid`, once a monitoring window classified it.
    pub fn class(&self, pid: Pid) -> Option<IntensityClass> {
        self.slot(pid)
            .and_then(|i| self.procs[i].monitor.classifier.current())
    }

    /// Cores currently assigned to running processes.
    pub fn busy_cores(&self) -> CoreSet {
        self.running()
            .fold(CoreSet::EMPTY, |acc, p| acc.union(p.assigned))
    }

    /// Enqueues a waiting process running `bench` with `threads` threads
    /// of `work` each; returns its pid. No driver hears of it until
    /// [`Self::arrive`].
    pub fn submit(
        &mut self,
        bench: Benchmark,
        threads: usize,
        scale: f64,
        work: ThreadWork,
    ) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.push(Entry {
            process: Process::new(pid, bench, threads, scale, work, self.now),
            monitor: MonitorState {
                classifier: HysteresisClassifier::new(self.l3c_threshold, 0.1 * self.l3c_threshold),
                window_cycles: 0,
                window_l3: 0,
                last_rate: None,
            },
        });
        self.queue.push_back(pid);
        self.epoch += 1;
        pid
    }

    /// Feeds one monitoring window's L3-access rate for `pid` to its
    /// classifier; returns the new class when it changed.
    pub fn observe_l3_rate(&mut self, pid: Pid, l3c_per_mcycle: f64) -> Option<IntensityClass> {
        let i = self.slot(pid)?;
        let class = self.procs[i].monitor.observe(l3c_per_mcycle);
        self.epoch += u64::from(class.is_some());
        class
    }

    /// The arrival change point for a just-submitted `pid`: the driver
    /// hears [`SysEvent::ProcessArrived`], admission runs, and the
    /// governor is re-asserted.
    pub fn arrive<H: Hook>(&mut self, driver: &mut dyn Driver, hook: &mut H, pid: Pid) {
        self.dispatch(driver, hook, SysEvent::ProcessArrived(pid));
        self.try_admit(hook);
        self.apply_governor();
    }

    /// The completion change point: `pid` gives up its cores, the driver
    /// hears [`SysEvent::ProcessFinished`], admission runs, and the
    /// governor is re-asserted. The process then leaves the table: every
    /// observer filters on the `Finished` state, so dropping the row is
    /// invisible, and it keeps the table (scanned per loop iteration) from
    /// growing with run length.
    pub fn finish<H: Hook>(&mut self, driver: &mut dyn Driver, hook: &mut H, pid: Pid) {
        let Some(i) = self.slot(pid) else {
            return;
        };
        let p = &mut self.procs[i].process;
        p.state = ProcessState::Finished;
        p.finished_at = Some(self.now);
        p.assigned = CoreSet::EMPTY;
        self.epoch += 1;
        self.dispatch(driver, hook, SysEvent::ProcessFinished(pid));
        self.try_admit(hook);
        self.apply_governor();
        if let Some(i) = self.slot(pid) {
            self.procs.remove(i);
        }
    }

    /// Builds the sanitized snapshot for drivers. Allocates fresh
    /// buffers, sized for the current chip and process table; the
    /// dispatch loop recycles one snapshot through [`Self::fill_view`]
    /// instead.
    pub(crate) fn view(&self) -> SystemView {
        let mut view = SystemView {
            now: self.now,
            spec: self.chip.spec().clone(),
            voltage: self.chip.voltage(),
            pmd_steps: Vec::with_capacity(self.chip.spec().pmds() as usize),
            governor: self.governor,
            droop_alert: self.chip.droop_excursion_active(),
            processes: Vec::with_capacity(self.procs.len()),
        };
        self.fill_view(&mut view);
        view
    }

    /// Refreshes in place a snapshot that [`Self::view`] built, reusing
    /// its buffers, to exactly the view [`Self::view`] would build now.
    /// The chip's spec never changes, so the snapshot keeps its copy.
    fn fill_view(&self, view: &mut SystemView) {
        view.now = self.now;
        view.voltage = self.chip.voltage();
        view.governor = self.governor;
        view.droop_alert = self.chip.droop_excursion_active();
        view.pmd_steps.clear();
        view.pmd_steps.extend(
            self.chip
                .spec()
                .all_pmds()
                .map(|p| self.chip.pmd_freq_step(p).expect("valid pmd")),
        );
        view.processes.clear();
        view.processes.extend(
            self.procs
                .iter()
                .filter(|e| e.process.state != ProcessState::Finished)
                .map(|e| {
                    let p = &e.process;
                    ProcessView {
                        pid: p.pid,
                        threads: p.threads,
                        state: p.state,
                        assigned: p.assigned,
                        l3c_per_mcycle: e.monitor.last_rate,
                        class: e.monitor.classifier.current(),
                        arrived_at: p.arrived_at,
                        stalled_until: (p.is_running() && p.stalled_until > self.now)
                            .then_some(p.stalled_until),
                    }
                }),
        );
    }

    /// Delivers one event to the driver and applies its plan, then feeds
    /// any transient operation faults back as [`SysEvent::OperationFault`]
    /// events for a bounded number of rounds — the synchronous
    /// request/response loop a real daemon runs against the mailbox.
    /// With no fault plan armed, no notice is ever produced and the
    /// driver is consulted once.
    pub fn dispatch<H: Hook>(&mut self, driver: &mut dyn Driver, hook: &mut H, event: SysEvent) {
        self.telemetry.advance_to(self.now);
        self.telemetry.counter_inc("sched.events");
        let mut view = match self.scratch.view.take() {
            Some(mut view) => {
                self.fill_view(&mut view);
                view
            }
            None => self.view(),
        };
        let acts = driver.on_event(&view, &event);
        self.telemetry
            .histogram_observe("sched.actions_per_event", acts.len() as u64);
        let event_label = event.label();
        let n_acts = acts.len() as u64;
        self.telemetry.trace(TraceKind::ActionDispatch, || {
            vec![
                ("event", Value::Str(event_label)),
                ("actions", Value::U64(n_acts)),
            ]
        });
        let mut notices = std::mem::take(&mut self.scratch.notices);
        let mut next = std::mem::take(&mut self.scratch.notices_next);
        notices.clear();
        self.apply_actions_into(hook, event, &acts, &mut notices);
        for _ in 0..FAULT_FEEDBACK_ROUNDS {
            if notices.is_empty() {
                break;
            }
            next.clear();
            for &notice in &notices {
                self.telemetry.counter_inc("sched.fault_feedback_events");
                self.fill_view(&mut view);
                let event = SysEvent::OperationFault(notice);
                let acts = driver.on_event(&view, &event);
                self.apply_actions_into(hook, event, &acts, &mut next);
            }
            std::mem::swap(&mut notices, &mut next);
        }
        self.scratch.notices = notices;
        self.scratch.notices_next = next;
        self.scratch.view = Some(view);
    }

    /// Applies the driver's plan for `event` in order, appending the
    /// transient faults it hits to `notices` (a caller-recycled buffer).
    /// A failed voltage write aborts the remainder of the batch — the
    /// daemon's mailbox write is synchronous, so a raise that never
    /// landed must gate the reconfiguration it was meant to cover (the
    /// fail-safe ordering survives injected faults precisely because of
    /// this cut).
    fn apply_actions_into<H: Hook>(
        &mut self,
        hook: &mut H,
        event: SysEvent,
        actions: &[Action],
        notices: &mut Vec<FaultNotice>,
    ) {
        hook.at(self, Boundary::Planned(event));
        for (index, &action) in actions.iter().enumerate() {
            let outcome = match action {
                Action::PinProcess(pid, cores) => match self.pin_process(pid, cores) {
                    Some(from) => Outcome::Pinned { from },
                    None => Outcome::Rejected,
                },
                // Kernel governors own the frequency; refuse outside
                // userspace mode.
                Action::SetPmdStep(pmd, step) => {
                    if self.governor == GovernorMode::Userspace
                        && self.chip.set_pmd_freq_step(pmd, step).is_ok()
                    {
                        Outcome::Applied
                    } else {
                        Outcome::Rejected
                    }
                }
                Action::SetVoltage(mv) => match self.chip.set_voltage(mv) {
                    Ok(()) => Outcome::Applied,
                    Err(ChipError::MailboxRefused { .. }) => {
                        Outcome::Faulted(FaultNotice::VoltageRefused(mv))
                    }
                    Err(ChipError::MailboxDropped) => {
                        Outcome::Faulted(FaultNotice::VoltageDropped(mv))
                    }
                    Err(_) => Outcome::Rejected,
                },
                Action::SetGovernor(mode) => {
                    self.epoch += u64::from(self.governor != mode);
                    self.governor = mode;
                    self.apply_governor();
                    Outcome::Applied
                }
            };
            match outcome {
                Outcome::Applied | Outcome::Pinned { .. } => {
                    self.telemetry.counter_inc("sched.actions.applied");
                }
                Outcome::Rejected => {
                    self.rejected_actions += 1;
                    self.telemetry.counter_inc("sched.actions.rejected");
                }
                Outcome::Faulted(notice) => {
                    self.telemetry.counter_inc("sched.fault_notices");
                    notices.push(notice);
                }
            }
            hook.at(
                self,
                Boundary::Acted {
                    event,
                    index,
                    action,
                    outcome,
                },
            );
            if let Outcome::Faulted(_) = outcome {
                break;
            }
        }
    }

    /// Pins (places or migrates) a process. Returns the mask it held
    /// before, or `None` when the pin is invalid: unknown cores, an
    /// unknown or finished pid, a mask not sized to the thread count, or
    /// cores another running process holds.
    pub(crate) fn pin_process(&mut self, pid: Pid, cores: CoreSet) -> Option<CoreSet> {
        if cores.iter().any(|c| !self.chip.spec().contains_core(c)) {
            return None;
        }
        let i = self.slot(pid)?;
        let p = &self.procs[i].process;
        if p.state == ProcessState::Finished || cores.len() != p.threads {
            return None;
        }
        let from = p.assigned;
        let migrating = p.state == ProcessState::Running && from != cores;
        // Target cores must be free or already ours.
        let others = self
            .running()
            .filter(|q| q.pid != pid)
            .fold(CoreSet::EMPTY, |acc, q| acc.union(q.assigned));
        if !cores.intersection(others).is_empty() {
            return None;
        }
        let now = self.now;
        let pause = self.migration_pause;
        // A daemon-driven migration may hang mid-flight (injected fault).
        // Initial placement of a waiting process never hangs — only the
        // teardown/rebuild of a running process's mapping is at risk.
        let hangs = migrating
            && self
                .chip
                .fault_plan_mut()
                .is_some_and(|f| f.sample_migration_hang());
        let p = &mut self.procs[i].process;
        match p.state {
            ProcessState::Waiting => {
                p.state = ProcessState::Running;
                p.started_at = Some(now);
                p.assigned = cores;
                self.queue.retain(|&q| q != pid);
            }
            ProcessState::Running => {
                if p.assigned != cores {
                    p.assigned = cores;
                    p.stalled_until = now + if hangs { HANG_STALL } else { pause };
                    p.migrations += 1;
                    self.migrations += 1;
                } else if p.stalled_until.saturating_since(now) > pause {
                    // Re-pinning a hung process onto the cores it already
                    // holds cancels the stalled migration: the watchdog's
                    // rescue path. The normal migration pause still
                    // applies to the restart.
                    p.stalled_until = now + pause;
                } else {
                    return Some(from);
                }
            }
            ProcessState::Finished => return None,
        }
        self.epoch += 1;
        Some(from)
    }

    /// Default (kernel-like) placement for still-waiting processes:
    /// spread across PMDs, preferring idle PMDs — the CFS load-balancing
    /// behaviour the paper's Baseline runs under. Each start is an atomic
    /// boundary of its own.
    fn try_admit<H: Hook>(&mut self, hook: &mut H) {
        loop {
            let Some(&pid) = self.queue.front() else {
                return;
            };
            let waiting = self
                .process(pid)
                .filter(|p| p.state == ProcessState::Waiting);
            let Some(p) = waiting else {
                self.queue.pop_front();
                continue;
            };
            let Some(cores) = default_placement(self.chip.spec(), self.busy_cores(), p.threads)
            else {
                return; // head-of-line blocks until cores free up
            };
            // pin_process transitions the process to Running and removes
            // it from the queue itself.
            let placed = self.pin_process(pid, cores);
            debug_assert!(placed.is_some(), "default placement must be valid");
            hook.at(self, Boundary::Admitted { pid, cores });
        }
    }

    /// Re-asserts the kernel governor's frequency choices. Its writes
    /// depend only on the governor, the busy cores and the chip's
    /// frequency program, so it returns at once when neither the kernel
    /// epoch nor the chip epoch has moved since its last pass.
    pub fn apply_governor(&mut self) {
        let epochs = (self.epoch, self.chip.state_epoch());
        if self.governor == GovernorMode::Userspace || self.governed == Some(epochs) {
            return;
        }
        let spec = self.chip.spec();
        let busy_pmds = self.busy_cores().utilized_pmds(spec);
        let mut steps = std::mem::take(&mut self.scratch.steps);
        steps.clear();
        for pmd in spec.all_pmds() {
            if let Some(step) = self.governor.desired_step(busy_pmds.contains(pmd)) {
                steps.push((pmd, step));
            }
        }
        for &(pmd, step) in &steps {
            self.chip
                .set_pmd_freq_step(pmd, step)
                .expect("governor uses valid pmds");
        }
        self.scratch.steps = steps;
        self.governed = Some((self.epoch, self.chip.state_epoch()));
    }
}
