//! The Placement part of the daemon (Figure 13) as a system driver.
//!
//! The daemon reacts to the three event kinds of §VI-A — process issued,
//! process finished, process re-classified — by recomputing the target
//! layout ([`crate::allocation::plan_layout`]), the per-PMD frequency
//! program (CPU PMDs at full speed, memory PMDs at the reduced step), and
//! the rail voltage (from the characterized [`PolicyTable`]).
//!
//! **Fail-safe ordering.** Because the rail is chip-wide and the safe
//! Vmin depends on what is about to run, the daemon computes a
//! *transition* voltage that is safe for the current configuration, the
//! target configuration, and every intermediate step (the union of
//! utilized PMDs at the worse frequency class). If that exceeds the
//! current voltage it is raised *before* any placement or frequency
//! action; the final (possibly lower) voltage is applied only *after*
//! the new configuration is in place. This is the paper's "first
//! increase the voltage to the next safe Vmin level, then decrease
//! according to utilized PMDs" rule, and it is what keeps
//! `unsafe_time_s == 0` in every evaluation run.

use crate::allocation::{plan_layout_into, LayoutScratch, PlanProc, PmdRole};
use crate::policy::PolicyTable;
use crate::recovery::{FaultDecision, Recovery, RecoveryConfig, RecoveryState};
use avfs_chip::chip::Chip;
use avfs_chip::freq::{CppcBehavior, FreqStep, FreqVminClass};
use avfs_chip::topology::{ChipSpec, CoreSet, PmdSet};
use avfs_chip::voltage::Millivolts;
use avfs_sched::driver::{Action, Driver, ProcessView, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::process::ProcessState;
use avfs_sim::rng::{fnv1a_fold, FNV_OFFSET_BASIS};
use avfs_telemetry::{CounterRegistry, Telemetry, TraceKind, Value};
use avfs_workloads::classify::IntensityClass;
use std::fmt;
use std::sync::Arc;

/// Daemon tuning knobs; the constructors on [`Daemon`] pick the paper's
/// values per chip.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Steer placement and per-PMD frequency (the Placement part).
    pub control_placement: bool,
    /// Steer the rail voltage from the policy table.
    pub control_voltage: bool,
    /// Frequency step for memory-intensive PMDs (chip-specific: the
    /// deepest step whose Vmin class pays — 3/8 on X-Gene 2 thanks to
    /// clock division, 4/8 on X-Gene 3).
    pub mem_step: FreqStep,
    /// Apply the fail-safe raise-before / lower-after ordering. Disabling
    /// this (ablation) applies voltage last unconditionally and produces
    /// unsafe transitions.
    pub fail_safe_ordering: bool,
    /// Extra voltage guard added on top of the characterized table, mV.
    pub extra_margin_mv: u32,
    /// Fault-recovery tuning (retry/backoff, safe-mode thresholds,
    /// migration watchdog, droop guardband).
    pub recovery: RecoveryConfig,
}

/// Step parked on idle PMDs.
const IDLE_STEP: FreqStep = FreqStep::MIN;

/// Do not bother lowering voltage for gains smaller than this, mV
/// (limits SLIMpro traffic; raises are always applied).
const LOWER_HYSTERESIS_MV: i64 = 5;

/// Metric names of the daemon's counter registry, in slot order (the
/// same names appear in a shared `TelemetryHub` when one is attached,
/// so external tooling can key on them).
pub const DAEMON_COUNTERS: [&str; 13] = [
    "daemon.invocations",
    "daemon.plans",
    "daemon.pins",
    "daemon.voltage_raises",
    "daemon.voltage_lowers",
    "daemon.deferred_pins",
    "daemon.mailbox_faults",
    "daemon.retries",
    "daemon.backoff_us",
    "daemon.safe_mode_entries",
    "daemon.safe_mode_exits",
    "daemon.watchdog_fires",
    "daemon.droop_emergencies",
];

/// Registry slots, one per [`DAEMON_COUNTERS`] name.
#[derive(Debug, Clone, Copy)]
enum Dc {
    Invocations = 0,
    Plans,
    Pins,
    VoltageRaises,
    VoltageLowers,
    DeferredPins,
    MailboxFaults,
    Retries,
    BackoffUs,
    SafeModeEntries,
    SafeModeExits,
    WatchdogFires,
    DroopEmergencies,
}

/// Counters describing what the daemon has done.
///
/// Since the telemetry redesign this is a point-in-time *snapshot*
/// derived from the daemon's metrics registry (see [`Daemon::stats`]),
/// not a hand-maintained struct — every field mirrors one
/// [`DAEMON_COUNTERS`] slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Driver invocations.
    pub invocations: u64,
    /// Replans that produced at least one action.
    pub plans: u64,
    /// Pin actions emitted.
    pub pins: u64,
    /// Voltage raises emitted.
    pub voltage_raises: u64,
    /// Voltage lowers emitted.
    pub voltage_lowers: u64,
    /// Pins dropped because a conflict could not be sequenced this event.
    pub deferred_pins: u64,
    /// Fault notices received (mailbox refusals and drops combined).
    pub mailbox_faults: u64,
    /// Retries issued in response to fault notices.
    pub retries: u64,
    /// Total accounted retry backoff, microseconds.
    pub backoff_us: u64,
    /// Safe-mode entries (consecutive-fault threshold trips).
    pub safe_mode_entries: u64,
    /// Safe-mode exits (probation windows completed cleanly).
    pub safe_mode_exits: u64,
    /// Hung migrations rescued by the watchdog.
    pub watchdog_fires: u64,
    /// Droop-alert guardband engagements.
    pub droop_emergencies: u64,
}

impl fmt::Display for DaemonStats {
    /// One `key=value` line in [`DAEMON_COUNTERS`] order — greppable in
    /// logs and stable across runs with equal counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invocations={} plans={} pins={} voltage_raises={} voltage_lowers={} \
             deferred_pins={} mailbox_faults={} retries={} backoff_us={} \
             safe_mode_entries={} safe_mode_exits={} watchdog_fires={} droop_emergencies={}",
            self.invocations,
            self.plans,
            self.pins,
            self.voltage_raises,
            self.voltage_lowers,
            self.deferred_pins,
            self.mailbox_faults,
            self.retries,
            self.backoff_us,
            self.safe_mode_entries,
            self.safe_mode_exits,
            self.watchdog_fires,
            self.droop_emergencies
        )
    }
}

/// Reusable buffers for the replan pipeline, so a replan allocates
/// nothing for planner inputs, the layout, the frequency program or pin
/// sequencing.
#[derive(Debug, Clone, Default)]
struct PlanScratch {
    procs: Vec<PlanProc>,
    layout: LayoutScratch,
    steps: Vec<FreqStep>,
    /// Canonical plan order: rank → view index (see
    /// [`Daemon::canonical_order`]).
    order: Vec<usize>,
    /// Ordered pins of the plan, as (view index, target cores).
    pins: Vec<(usize, CoreSet)>,
    /// Pin sequencing: cores each view process occupies, by view index.
    occupied: Vec<CoreSet>,
    /// Pin sequencing: pins not yet placed, as (view index, cores).
    pending: Vec<(usize, CoreSet)>,
}

impl PlanScratch {
    /// Scratch whose chip-bounded buffers are sized once: a plan
    /// programs one step per PMD and pins at most one process per core,
    /// so these never grow. Buffers indexed by live process grow only
    /// when the process count reaches a new peak.
    fn for_chip(spec: &ChipSpec) -> Self {
        let cores = spec.cores as usize;
        PlanScratch {
            steps: Vec::with_capacity(spec.pmds() as usize),
            pins: Vec::with_capacity(cores),
            pending: Vec::with_capacity(cores),
            ..PlanScratch::default()
        }
    }
}

/// The online monitoring + placement daemon.
#[derive(Debug, Clone)]
pub struct Daemon {
    /// Shared by clones: the chip description never changes.
    spec: Arc<ChipSpec>,
    behavior: CppcBehavior,
    table: PolicyTable,
    config: DaemonConfig,
    initialized: bool,
    registry: CounterRegistry,
    telemetry: Telemetry,
    recovery: Recovery,
    droop_guard: bool,
    name: String,
    plan_scratch: PlanScratch,
    /// The action list under construction; [`Driver::on_event`] returns
    /// a copy, so the buffer keeps its capacity across events.
    actions: Vec<Action>,
}

impl Daemon {
    /// Builds a daemon for `chip` with explicit knobs and no observer
    /// attached. The policy table is produced by the characterization
    /// procedure of [`PolicyTable`].
    pub fn new(chip: &Chip, config: DaemonConfig) -> Self {
        let name = match (config.control_placement, config.control_voltage) {
            (true, true) => "optimal",
            (true, false) => "placement",
            (false, true) => "safe-vmin",
            (false, false) => "baseline-daemon",
        };
        let recovery = Recovery::new(config.recovery.clone(), 0x0DAE_0501);
        let spec = chip.spec();
        Daemon {
            spec: Arc::new(spec.clone()),
            behavior: chip.behavior(),
            table: PolicyTable::from_characterization(chip.vmin_model()),
            config,
            initialized: false,
            registry: CounterRegistry::new(&DAEMON_COUNTERS),
            telemetry: Telemetry::null(),
            recovery,
            droop_guard: false,
            name: name.to_string(),
            plan_scratch: PlanScratch::for_chip(spec),
            // The most one event can emit: the governor switch, a
            // transition raise, a settle and a lazy reconcile, a step
            // per PMD, and per core a replan pin plus a watchdog rescue.
            // Sized once, the buffer never grows.
            actions: Vec::with_capacity(4 + spec.pmds() as usize + 2 * spec.cores as usize),
        }
    }

    /// The chip-appropriate memory-PMD step: the deepest step that still
    /// buys a Vmin class (3/8 under clock division, otherwise 4/8).
    pub fn mem_step_for(chip: &Chip) -> FreqStep {
        match chip.behavior() {
            CppcBehavior::DivisionBelowHalf => FreqStep::new_clamped(3),
            // NoBenefitBelowHalf and any future firmware behaviour: going
            // below half speed buys no voltage, so stop at half.
            _ => FreqStep::HALF,
        }
    }

    /// The paper's **Optimal** configuration: placement + frequency +
    /// voltage control.
    pub fn optimal(chip: &Chip) -> Self {
        Daemon::new(
            chip,
            DaemonConfig {
                control_placement: true,
                control_voltage: true,
                mem_step: Self::mem_step_for(chip),
                fail_safe_ordering: true,
                extra_margin_mv: 0,
                recovery: RecoveryConfig::default(),
            },
        )
    }

    /// Drives voltage from a supplied policy table — typically one
    /// compiled from a measured margin map by `avfs-characterize` —
    /// instead of the model-derived characterization default.
    ///
    /// ```
    /// use avfs_chip::presets;
    /// use avfs_core::{Daemon, PolicyTable};
    /// use avfs_sched::driver::Driver;
    ///
    /// let chip = presets::xgene2().build();
    /// let table = PolicyTable::from_characterization(chip.vmin_model());
    /// let daemon = Daemon::optimal(&chip).with_table(table.clone());
    /// assert_eq!(daemon.name(), "optimal");
    /// assert_eq!(daemon.policy_table(), &table);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the table's PMD count disagrees with the chip's.
    #[must_use]
    pub fn with_table(mut self, table: PolicyTable) -> Self {
        assert_eq!(
            table.pmds(),
            self.spec.pmds() as usize,
            "policy table / chip PMD count mismatch"
        );
        self.table = table;
        self
    }

    /// The paper's **Placement** configuration: placement + frequency at
    /// nominal voltage.
    pub fn placement_only(chip: &Chip) -> Self {
        let mut d = Daemon::optimal(chip);
        d.config.control_voltage = false;
        d.name = "placement".to_string();
        d
    }

    /// The paper's **Safe Vmin** configuration: kernel placement +
    /// ondemand governor, voltage driven from the characterized table.
    pub fn safe_vmin_only(chip: &Chip) -> Self {
        let mut d = Daemon::optimal(chip);
        d.config.control_placement = false;
        d.name = "safe-vmin".to_string();
        d
    }

    /// Activity counters, snapshotted from the metrics registry.
    pub fn stats(&self) -> DaemonStats {
        DaemonStats {
            invocations: self.registry.get(Dc::Invocations as usize),
            plans: self.registry.get(Dc::Plans as usize),
            pins: self.registry.get(Dc::Pins as usize),
            voltage_raises: self.registry.get(Dc::VoltageRaises as usize),
            voltage_lowers: self.registry.get(Dc::VoltageLowers as usize),
            deferred_pins: self.registry.get(Dc::DeferredPins as usize),
            mailbox_faults: self.registry.get(Dc::MailboxFaults as usize),
            retries: self.registry.get(Dc::Retries as usize),
            backoff_us: self.registry.get(Dc::BackoffUs as usize),
            safe_mode_entries: self.registry.get(Dc::SafeModeEntries as usize),
            safe_mode_exits: self.registry.get(Dc::SafeModeExits as usize),
            watchdog_fires: self.registry.get(Dc::WatchdogFires as usize),
            droop_emergencies: self.registry.get(Dc::DroopEmergencies as usize),
        }
    }

    /// Installs (or replaces) the telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry handle in use (null unless an observer was
    /// attached).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Adds `delta` to one registry slot and mirrors it to the observer.
    fn count(&mut self, c: Dc, delta: u64) {
        let idx = c as usize;
        self.registry.add(idx, delta);
        self.telemetry.counter_add(DAEMON_COUNTERS[idx], delta);
    }

    /// Increments one registry slot.
    fn bump(&mut self, c: Dc) {
        self.count(c, 1);
    }

    /// Where the fault-recovery machine currently stands.
    pub fn recovery_state(&self) -> RecoveryState {
        self.recovery.state()
    }

    /// True while the droop-alert guardband is engaged.
    pub fn droop_guard_active(&self) -> bool {
        self.droop_guard
    }

    /// The voltage guard in effect: the configured margin, plus the
    /// droop-emergency bump while an excursion is alerting.
    fn margin_mv(&self) -> u32 {
        self.config.extra_margin_mv
            + if self.droop_guard {
                self.config.recovery.droop_emergency_mv
            } else {
                0
            }
    }

    /// The voltage the policy chooses for one configuration cell: the
    /// characterized table entry for (`freq_class`, `utilized_pmds`,
    /// `threads`), raised by the margin in effect (`droop_guard` adds
    /// the droop-emergency bump), capped at nominal — or pinned to
    /// nominal outright while recovery is degraded (`pessimize`).
    ///
    /// This is the *exact* chooser `replan` and the lazy ablated path
    /// use, factored out as a pure function of the daemon's static
    /// configuration so `avfs-analyze prove-policy` can sweep it over
    /// the entire finite policy domain.
    pub fn chosen_voltage(
        &self,
        freq_class: FreqVminClass,
        utilized_pmds: usize,
        threads: usize,
        droop_guard: bool,
        pessimize: bool,
    ) -> Millivolts {
        if pessimize {
            // Safe mode / probation: no undervolting until the mailbox
            // has proven itself through a clean window.
            return self.table.nominal();
        }
        let margin = self.config.extra_margin_mv
            + if droop_guard {
                self.config.recovery.droop_emergency_mv
            } else {
                0
            };
        self.table
            .safe_voltage_for_pmds(freq_class, utilized_pmds.max(1), threads.max(1))
            .offset(margin as i32)
            .min(self.table.nominal())
    }

    /// Deterministic fingerprint of the daemon's control-relevant
    /// mutable state: the init latch, the droop guard and the recovery
    /// machine. Activity counters and telemetry are observational and
    /// deliberately excluded — two daemons with equal fingerprints plan
    /// identically on equal views.
    pub fn control_fingerprint(&self) -> u64 {
        let mut h = fnv1a_fold(FNV_OFFSET_BASIS, u64::from(self.initialized));
        h = fnv1a_fold(h, u64::from(self.droop_guard));
        fnv1a_fold(h, self.recovery.fingerprint())
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Enables or disables the fail-safe raise-before ordering (ablation
    /// knob; disabling it makes transitions unsafe on purpose).
    pub fn set_fail_safe_ordering(&mut self, enabled: bool) {
        self.config.fail_safe_ordering = enabled;
    }

    /// Overrides the memory-PMD frequency step (threshold/step sweeps).
    pub fn set_mem_step(&mut self, step: FreqStep) {
        self.config.mem_step = step;
    }

    /// The policy table currently driving voltage decisions.
    pub fn policy_table(&self) -> &PolicyTable {
        &self.table
    }

    // ------------------------------------------------------------------

    /// The frequency-class of a step program restricted to `pmds`.
    fn freq_class_of(&self, steps: &[FreqStep], pmds: PmdSet) -> FreqVminClass {
        self.behavior
            .vmin_class_of_steps(pmds.iter().filter_map(|p| steps.get(p.index()).copied()))
    }

    /// Appends the full action list for the current view to `actions`.
    ///
    /// Only meaningful with placement control; the Safe Vmin
    /// configuration sets its single static voltage at initialization
    /// and never replans.
    fn replan(&mut self, view: &SystemView, actions: &mut Vec<Action>) {
        if !self.config.control_placement {
            return;
        }
        let first = actions.len();

        // --- Target layout & frequency program. ---
        // The scratch buffers persist across replans (taken out of self
        // so the planner can borrow them while `self` stays usable). The
        // whole pipeline runs in canonical order.
        let mut scratch = std::mem::take(&mut self.plan_scratch);
        Self::plan_layout(&self.spec, view, &mut scratch);
        // Running processes the layout could not re-fit (fragmentation
        // under oversubscription: a wide process cannot be packed around
        // a newly placed narrow one) keep executing on their current
        // cores. The program must keep those PMDs clocked and the rail
        // above their Vmin, or the final undervolt would dip below what
        // the cores that never vacated require.
        let stranded = view
            .processes
            .iter()
            .filter(|p| {
                p.state == ProcessState::Running && scratch.layout.assignment_of(p.pid).is_none()
            })
            .fold(CoreSet::EMPTY, |acc, p| acc.union(p.assigned));
        let stranded_pmds = stranded.utilized_pmds(&self.spec);
        scratch.steps.clear();
        for (pmd, role) in self.spec.all_pmds().zip(scratch.layout.pmd_roles()) {
            let planned = match role {
                PmdRole::Cpu => FreqStep::MAX,
                PmdRole::Mem => self.config.mem_step,
                PmdRole::Idle => IDLE_STEP,
            };
            scratch.steps.push(if stranded_pmds.contains(pmd) {
                // Never throttle a core a stranded process runs on.
                view.pmd_steps
                    .get(pmd.index())
                    .map_or(planned, |&current| planned.max(current))
            } else {
                planned
            });
        }
        let deferred = Self::sequence_pins(view, &mut scratch);
        self.count(Dc::DeferredPins, deferred);
        let target_busy = scratch.layout.busy_cores().union(stranded);
        let new_steps = &scratch.steps;

        // --- Voltage program. ---
        if self.config.control_voltage && !self.config.fail_safe_ordering {
            // Ablated mode: placement happens now; voltage is only
            // reconciled at the next monitoring tick (see
            // `lazy_voltage_action`), leaving a real unsafe window after
            // widening reconfigurations — the hazard the paper's
            // ordering rule exists to prevent.
            self.push_reconfig(actions, view, &scratch, new_steps);
        } else if self.config.control_voltage {
            let current_busy = view.busy_cores();
            let now_pmds = current_busy.utilized_pmds(&self.spec);
            let target_pmds = target_busy.utilized_pmds(&self.spec);

            let threads_now: usize = view
                .processes
                .iter()
                .filter(|p| p.state == ProcessState::Running)
                .map(|p| p.threads)
                .sum();
            let threads_target = target_busy.len();
            let margin_threads = threads_now.min(threads_target).max(1);

            // Frequency class: worst of the current program on current
            // PMDs and the new program on target PMDs.
            let fc_now = self.freq_class_of(&view.pmd_steps, now_pmds);
            let fc_target = self.freq_class_of(new_steps, target_pmds);
            let fc_transition = fc_now.max(fc_target);

            let pessimize = self.recovery.pessimize_voltage();
            // The union of the busy cores utilizes the union of the PMDs.
            let transition_v = self.chosen_voltage(
                fc_transition,
                now_pmds.union(target_pmds).len(),
                margin_threads,
                self.droop_guard,
                pessimize,
            );
            let final_v = self.chosen_voltage(
                fc_target,
                target_pmds.len(),
                threads_target,
                self.droop_guard,
                pessimize,
            );

            if self.config.fail_safe_ordering && transition_v > view.voltage {
                actions.push(Action::SetVoltage(transition_v));
                self.bump(Dc::VoltageRaises);
            }

            self.push_reconfig(actions, view, &scratch, new_steps);

            // Settle to the final voltage.
            let settle_from = if self.config.fail_safe_ordering {
                transition_v.max(view.voltage)
            } else {
                view.voltage
            };
            if final_v > settle_from || settle_from - final_v >= LOWER_HYSTERESIS_MV {
                actions.push(Action::SetVoltage(final_v));
                if final_v < settle_from {
                    self.bump(Dc::VoltageLowers);
                } else {
                    self.bump(Dc::VoltageRaises);
                }
            }
        } else {
            self.push_reconfig(actions, view, &scratch, new_steps);
        }

        let n_actions = actions.len() - first;
        if n_actions > 0 {
            self.bump(Dc::Plans);
            let recovery = self.recovery.state().as_str();
            let droop_guard = self.droop_guard;
            self.telemetry.trace(TraceKind::Replan, || {
                vec![
                    ("actions", Value::from(n_actions)),
                    ("recovery", Value::from(recovery)),
                    ("droop_guard", Value::from(droop_guard)),
                ]
            });
        }
        self.plan_scratch = scratch;
    }

    /// Plans the target layout of `view` into `scratch.layout`, placing
    /// processes in the canonical order left in `scratch.order`.
    fn plan_layout(spec: &ChipSpec, view: &SystemView, scratch: &mut PlanScratch) {
        Self::canonical_order(view, &mut scratch.order);
        scratch.procs.clear();
        scratch.procs.extend(scratch.order.iter().map(|&i| {
            let p = &view.processes[i];
            PlanProc {
                pid: p.pid,
                threads: p.threads,
                class: planned_class(p),
            }
        }));
        plan_layout_into(spec, &scratch.procs, &mut scratch.layout);
    }

    /// The canonical planning order: view indices sorted by process
    /// *shape* — run state (running first), current placement bits,
    /// width, planned class. The layout planner and pin sequencing run
    /// in this order, so it decides which process lands where; two
    /// views whose shape multisets match get the same layout, shape for
    /// shape, even when pid churn permutes the view. Equal-shape
    /// processes are interchangeable (running processes always differ in
    /// placement bits; tied waiting processes have the same width and
    /// class), so the tie order within the sort cannot affect the plan.
    fn canonical_order(view: &SystemView, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..view.processes.len());
        order.sort_unstable_by_key(|&i| {
            let p = &view.processes[i];
            let state_rank: u8 = match p.state {
                ProcessState::Running => 0,
                ProcessState::Waiting => 1,
                ProcessState::Finished => 2,
            };
            let class_rank: u8 = match planned_class(p) {
                IntensityClass::CpuIntensive => 0,
                IntensityClass::MemoryIntensive => 1,
            };
            (state_rank, p.assigned.bits(), p.threads, class_rank)
        });
    }

    /// Does nothing: every replan runs the full planning pipeline. Kept
    /// so existing callers compile; it will be removed.
    #[deprecated(note = "the daemon no longer caches replan decisions; drop the call")]
    pub fn set_decision_cache(&mut self, _enabled: bool) {}

    /// Always `(0, 0)`: every replan runs the full planning pipeline.
    /// Kept so existing callers compile; it will be removed.
    #[deprecated(note = "the daemon no longer caches replan decisions; drop the call")]
    pub fn decision_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Emits frequency-step changes (only the deltas), then the plan's
    /// pins from `scratch.pins`, mapped from view index to pid.
    fn push_reconfig(
        &mut self,
        actions: &mut Vec<Action>,
        view: &SystemView,
        scratch: &PlanScratch,
        new_steps: &[FreqStep],
    ) {
        // Frequency raises are applied before placement widens onto those
        // PMDs; lowering order is harmless (both covered by the
        // transition voltage anyway).
        if self.config.control_placement {
            for (pmd, (&new, &old)) in self
                .spec
                .all_pmds()
                .zip(new_steps.iter().zip(view.pmd_steps.iter()))
            {
                if new != old {
                    actions.push(Action::SetPmdStep(pmd, new));
                }
            }
        }
        for &(i, cores) in &scratch.pins {
            actions.push(Action::PinProcess(view.processes[i].pid, cores));
            self.bump(Dc::Pins);
        }
    }

    /// Ablated-mode voltage reconciliation: set the voltage the *current*
    /// configuration needs, with no awareness of in-flight transitions.
    fn lazy_voltage_action(&mut self, view: &SystemView, actions: &mut Vec<Action>) {
        if !self.config.control_voltage || !self.config.control_placement {
            return;
        }
        let busy = view.busy_cores();
        let pmds = busy.utilized_pmds(&self.spec);
        let target = self.chosen_voltage(
            self.freq_class_of(&view.pmd_steps, pmds),
            pmds.len(),
            busy.len(),
            self.droop_guard,
            self.recovery.pessimize_voltage(),
        );
        if target == view.voltage {
            return;
        }
        if target > view.voltage {
            self.bump(Dc::VoltageRaises);
        } else {
            self.bump(Dc::VoltageLowers);
        }
        actions.push(Action::SetVoltage(target));
    }

    /// Orders the layout's pins so each lands on cores free at its turn;
    /// conflicting pins are deferred to the next event. Targets are
    /// taken from `scratch.layout` in canonical order and the sequence
    /// is left in `scratch.pins`; returns the number of deferred pins.
    ///
    /// Running processes hold disjoint cores, and a pin lands only on
    /// cores no other process holds, so the occupancy stays disjoint and
    /// everyone else's cores are the union minus the process's own.
    fn sequence_pins(view: &SystemView, scratch: &mut PlanScratch) -> u64 {
        let PlanScratch {
            layout,
            order,
            pins,
            occupied,
            pending,
            ..
        } = scratch;
        // Current occupancy per view process.
        occupied.clear();
        occupied.extend(view.processes.iter().map(|p| {
            if p.state == ProcessState::Running {
                p.assigned
            } else {
                CoreSet::EMPTY
            }
        }));
        let mut all = occupied
            .iter()
            .fold(CoreSet::EMPTY, |acc, &cs| acc.union(cs));
        debug_assert_eq!(
            occupied.iter().map(|cs| cs.len()).sum::<usize>(),
            all.len(),
            "running processes share cores"
        );
        // Targets in canonical order, so the emitted pin order is
        // determined by process shapes, not by view order.
        pending.clear();
        for &i in order.iter() {
            if let Some(cores) = layout.assignment_of(view.processes[i].pid) {
                if occupied[i] != cores {
                    pending.push((i, cores));
                }
            }
        }
        pins.clear();
        // Greedy passes: apply any pin whose target is free of *other*
        // processes' current cores.
        for _ in 0..pending.len().max(1) {
            let mut progressed = false;
            pending.retain(|&(i, cores)| {
                let others = all.difference(occupied[i]);
                if cores.intersection(others).is_empty() {
                    pins.push((i, cores));
                    occupied[i] = cores;
                    all = others.union(cores);
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            if !progressed {
                break;
            }
        }
        pending.len() as u64
    }

    // --- Fault recovery -----------------------------------------------

    /// Safe-mode posture: hold (or restore) the nominal voltage. Nothing
    /// else moves — the aborted batch left the old configuration in
    /// place, and the old configuration is covered by the current rail
    /// voltage thanks to the fail-safe ordering.
    fn safe_mode_actions(&mut self, view: &SystemView, actions: &mut Vec<Action>) {
        if self.config.control_voltage && view.voltage < self.table.nominal() {
            actions.push(Action::SetVoltage(self.table.nominal()));
            self.bump(Dc::VoltageRaises);
        }
    }

    /// Tracks the chip's droop alert. Engaging or releasing the guard
    /// returns `true` so the caller replans with the new margin; the
    /// static safe-vmin configuration (which never replans) re-emits its
    /// voltage here directly.
    fn update_droop_guard(&mut self, view: &SystemView, actions: &mut Vec<Action>) -> bool {
        if view.droop_alert == self.droop_guard {
            return false;
        }
        self.droop_guard = view.droop_alert;
        if self.droop_guard {
            self.bump(Dc::DroopEmergencies);
        }
        let engaged = self.droop_guard;
        let margin_mv = self.margin_mv();
        self.telemetry.trace(TraceKind::DroopGuard, || {
            vec![
                ("engaged", Value::from(engaged)),
                ("margin_mv", Value::from(margin_mv)),
            ]
        });
        if self.config.control_voltage && !self.config.control_placement {
            let v = self
                .table
                .static_safe_voltage(FreqVminClass::Max)
                .offset(self.margin_mv() as i32)
                .min(self.table.nominal());
            if v != view.voltage {
                if v > view.voltage {
                    self.bump(Dc::VoltageRaises);
                } else {
                    self.bump(Dc::VoltageLowers);
                }
                actions.push(Action::SetVoltage(v));
            }
        }
        true
    }

    /// Rescues migrations whose stall end sits implausibly far in the
    /// future (a hung migration): re-pinning the same cores restarts the
    /// move with the normal pause.
    fn watchdog_actions(&mut self, view: &SystemView, actions: &mut Vec<Action>) {
        if !self.config.control_placement {
            return;
        }
        let timeout = self.config.recovery.watchdog_timeout;
        for p in &view.processes {
            if let Some(stall) = p.stalled_until {
                if stall.saturating_since(view.now) > timeout {
                    actions.push(Action::PinProcess(p.pid, p.assigned));
                    self.bump(Dc::WatchdogFires);
                    let pid = p.pid.0;
                    let stalled_ns = stall.as_nanos();
                    self.telemetry.trace(TraceKind::Watchdog, || {
                        vec![
                            ("pid", Value::from(pid)),
                            ("stalled_until_ns", Value::from(stalled_ns)),
                        ]
                    });
                }
            }
        }
    }

    /// Responds to one fault notice per the recovery machine: bounded
    /// jittered retry while below the threshold, nominal-voltage safe
    /// mode at and beyond it.
    fn on_operation_fault(
        &mut self,
        view: &SystemView,
        notice: avfs_sched::driver::FaultNotice,
        actions: &mut Vec<Action>,
    ) {
        self.bump(Dc::MailboxFaults);
        let before = self.recovery.state();
        let decision = self.recovery.on_fault();
        self.trace_recovery_transition(before, "fault");
        match decision {
            FaultDecision::Retry { backoff_us } => {
                self.bump(Dc::Retries);
                self.count(Dc::BackoffUs, backoff_us);
                self.telemetry
                    .histogram_observe("daemon.backoff_us", backoff_us);
                if self.config.control_placement {
                    // A replan against the fresh view recomputes exactly
                    // the deltas the aborted batch left outstanding
                    // (including the failed voltage request itself).
                    self.replan(view, actions);
                } else if self.config.control_voltage {
                    // Static configuration: re-issue the lost request.
                    actions.push(Action::SetVoltage(notice.requested()));
                }
            }
            FaultDecision::EnterSafeMode => {
                self.bump(Dc::SafeModeEntries);
                self.safe_mode_actions(view, actions);
            }
            FaultDecision::HoldSafe => self.safe_mode_actions(view, actions),
        }
    }

    /// Emits a `RecoveryTransition` trace if the recovery machine moved
    /// away from `before` (called right after feeding it an event).
    fn trace_recovery_transition(&mut self, before: RecoveryState, cause: &'static str) {
        let after = self.recovery.state();
        if before != after {
            self.telemetry.trace(TraceKind::RecoveryTransition, || {
                vec![
                    ("from", Value::from(before.as_str())),
                    ("to", Value::from(after.as_str())),
                    ("cause", Value::from(cause)),
                ]
            });
        }
    }

    /// Handles one driver event, appending its actions to `actions`.
    fn handle_event(&mut self, view: &SystemView, event: &SysEvent, actions: &mut Vec<Action>) {
        self.telemetry.advance_to(view.now);
        self.bump(Dc::Invocations);
        if !self.initialized {
            self.initialized = true;
            let mode = if self.config.control_placement {
                GovernorMode::Userspace
            } else {
                GovernorMode::Ondemand
            };
            actions.push(Action::SetGovernor(mode));
            if self.config.control_voltage && !self.config.control_placement {
                // The Safe Vmin configuration: one static undervolt to
                // the table's universal safe value (§VI-B); ondemand
                // keeps scheduling, the guardband is simply removed.
                let v = self
                    .table
                    .static_safe_voltage(FreqVminClass::Max)
                    .offset(self.margin_mv() as i32)
                    .min(self.table.nominal());
                actions.push(Action::SetVoltage(v));
                self.bump(Dc::VoltageLowers);
            }
        }
        if let SysEvent::OperationFault(notice) = event {
            self.on_operation_fault(view, *notice, actions);
            return;
        }
        // Any non-fault event means the previous action batch applied
        // cleanly (faults are delivered synchronously) — feed the
        // recovery machine and pick up droop-alert changes.
        let before = self.recovery.state();
        let exited_safe_mode = self.recovery.on_clean_event();
        self.trace_recovery_transition(before, "clean_window");
        if exited_safe_mode {
            self.bump(Dc::SafeModeExits);
        }
        let droop_changed = self.update_droop_guard(view, actions);
        match event {
            SysEvent::ClassChanged(_)
            | SysEvent::ProcessArrived(_)
            | SysEvent::ProcessFinished(_) => {
                self.replan(view, actions);
            }
            SysEvent::MonitorTick => {
                // The monitoring part runs inside the kernel window; the
                // placement part is only invoked on the three real events
                // (§VI-A). Except right after initialization (settle the
                // idle chip), when the droop guard or safe-mode posture
                // changed (re-aim the voltage program), or when the
                // watchdog found a hung migration.
                self.watchdog_actions(view, actions);
                if !actions.is_empty() || exited_safe_mode || droop_changed {
                    self.replan(view, actions);
                }
                if !self.config.fail_safe_ordering {
                    self.lazy_voltage_action(view, actions);
                }
            }
            // `OperationFault` returned above; `SysEvent` is
            // non-exhaustive, so any future event kind is a no-op here.
            _ => {}
        }
    }
}

/// The class the daemon plans a process as: its kernel class, or
/// CPU-intensive until a monitoring window has measured it — the
/// conservative choice (full frequency, clustered placement, no
/// undervolt assumption).
fn planned_class(p: &ProcessView) -> IntensityClass {
    p.class.unwrap_or(IntensityClass::CpuIntensive)
}

impl Driver for Daemon {
    /// Builds the action list in a recycled buffer and returns a copy
    /// sized to fit: the copy is the call's only allocation, and an
    /// empty list allocates nothing.
    fn on_event(&mut self, view: &SystemView, event: &SysEvent) -> Vec<Action> {
        let mut actions = std::mem::take(&mut self.actions);
        actions.clear();
        self.handle_event(view, event, &mut actions);
        let out = actions.to_vec();
        self.actions = actions;
        out
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_chip::presets;
    use avfs_chip::voltage::Millivolts;
    use avfs_sched::process::Pid;
    use avfs_sim::time::SimTime;
    use avfs_workloads::classify::IntensityClass;
    use std::collections::BTreeMap;

    fn xg3_chip() -> Chip {
        presets::xgene3().build()
    }

    fn mk_view(chip: &Chip, procs: Vec<ProcessView>) -> SystemView {
        SystemView {
            now: SimTime::ZERO,
            spec: chip.spec().clone(),
            voltage: chip.voltage(),
            pmd_steps: vec![FreqStep::MAX; chip.spec().pmds() as usize],
            governor: GovernorMode::Userspace,
            droop_alert: false,
            processes: procs,
        }
    }

    fn waiting(pid: u64, threads: usize) -> ProcessView {
        ProcessView {
            pid: Pid(pid),
            threads,
            state: ProcessState::Waiting,
            assigned: CoreSet::EMPTY,
            l3c_per_mcycle: None,
            class: None,
            arrived_at: SimTime::ZERO,
            stalled_until: None,
        }
    }

    fn running(pid: u64, cores: CoreSet, class: IntensityClass) -> ProcessView {
        ProcessView {
            pid: Pid(pid),
            threads: cores.len(),
            state: ProcessState::Running,
            assigned: cores,
            l3c_per_mcycle: Some(match class {
                IntensityClass::CpuIntensive => 200.0,
                IntensityClass::MemoryIntensive => 15_000.0,
            }),
            class: Some(class),
            arrived_at: SimTime::ZERO,
            stalled_until: None,
        }
    }

    fn cores(ids: &[u16]) -> CoreSet {
        ids.iter()
            .map(|&i| avfs_chip::topology::CoreId::new(i))
            .collect()
    }

    #[test]
    fn builder_installs_a_supplied_table() {
        let chip = xg3_chip();
        let shifted = presets::xgene3().guardband_shift_mv(10).build();
        let table = PolicyTable::from_characterization(shifted.vmin_model());
        let d = Daemon::optimal(&chip).with_table(table.clone());
        assert_eq!(d.policy_table(), &table);
    }

    #[test]
    #[should_panic(expected = "policy table / chip PMD count mismatch")]
    fn with_table_rejects_a_table_for_another_chip_shape() {
        let xg2 = presets::xgene2().build();
        let wrong = PolicyTable::from_characterization(xg2.vmin_model());
        let _ = Daemon::optimal(&xg3_chip()).with_table(wrong);
    }

    #[test]
    fn first_event_switches_governor() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let view = mk_view(&chip, vec![]);
        let acts = d.on_event(&view, &SysEvent::MonitorTick);
        assert!(matches!(
            acts.first(),
            Some(Action::SetGovernor(GovernorMode::Userspace))
        ));
        // Safe-vmin keeps ondemand.
        let mut sv = Daemon::safe_vmin_only(&chip);
        let acts = sv.on_event(&view, &SysEvent::MonitorTick);
        assert!(matches!(
            acts.first(),
            Some(Action::SetGovernor(GovernorMode::Ondemand))
        ));
    }

    #[test]
    fn arrival_raises_voltage_before_placement() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let view0 = mk_view(&chip, vec![]);
        let _ = d.on_event(&view0, &SysEvent::MonitorTick); // init & settle

        // Rail sits low for an idle chip; a 4-thread arrival must raise
        // voltage before the pin lands.
        let mut view = mk_view(&chip, vec![waiting(1, 4)]);
        view.voltage = Millivolts::new(790);
        let acts = d.on_event(&view, &SysEvent::ProcessArrived(Pid(1)));
        let v_pos = acts
            .iter()
            .position(|a| matches!(a, Action::SetVoltage(v) if *v > Millivolts::new(790)));
        let pin_pos = acts
            .iter()
            .position(|a| matches!(a, Action::PinProcess(..)));
        assert!(v_pos.is_some(), "no raise in {acts:?}");
        assert!(pin_pos.is_some(), "no pin in {acts:?}");
        assert!(v_pos.unwrap() < pin_pos.unwrap(), "raise must precede pin");
    }

    #[test]
    fn finish_lowers_voltage_after_reconfig() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);

        // One clustered cpu proc remains after another finished; the rail
        // still sits at the wider configuration's voltage.
        let mut view = mk_view(
            &chip,
            vec![running(1, cores(&[0, 1]), IntensityClass::CpuIntensive)],
        );
        view.voltage = Millivolts::new(830);
        let acts = d.on_event(&view, &SysEvent::ProcessFinished(Pid(9)));
        let lower = acts
            .iter()
            .filter_map(|a| match a {
                Action::SetVoltage(v) => Some(*v),
                _ => None,
            })
            .next_back();
        assert!(lower.is_some(), "expected a settle voltage in {acts:?}");
        assert!(lower.unwrap() < Millivolts::new(830));
        // And it must be the LAST action.
        assert!(matches!(acts.last(), Some(Action::SetVoltage(_))));
    }

    #[test]
    fn memory_class_gets_reduced_step_cpu_gets_max() {
        let chip = xg3_chip();
        let mut d = Daemon::placement_only(&chip);
        let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);
        let view = mk_view(
            &chip,
            vec![
                running(1, cores(&[0, 1]), IntensityClass::CpuIntensive),
                running(2, cores(&[30]), IntensityClass::MemoryIntensive),
            ],
        );
        let acts = d.on_event(&view, &SysEvent::ClassChanged(Pid(2)));
        // PMD15 (core 30) must be programmed to the mem step (HALF on XG3).
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::SetPmdStep(p, s) if p.index() == 15 && *s == FreqStep::HALF
            )),
            "no mem-step action in {acts:?}"
        );
        // No voltage actions in placement-only mode.
        assert!(!acts.iter().any(|a| matches!(a, Action::SetVoltage(_))));
    }

    #[test]
    fn unmeasured_processes_plan_as_cpu_intensive() {
        let chip = xg3_chip();
        let plan_for = |class: Option<IntensityClass>| {
            let mut d = Daemon::optimal(&chip);
            let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);
            let mut arrival = waiting(1, 2);
            arrival.class = class;
            d.on_event(
                &mk_view(&chip, vec![arrival]),
                &SysEvent::ProcessArrived(Pid(1)),
            )
        };
        let unmeasured = plan_for(None);
        assert_eq!(unmeasured, plan_for(Some(IntensityClass::CpuIntensive)));
        assert_ne!(unmeasured, plan_for(Some(IntensityClass::MemoryIntensive)));
    }

    #[test]
    fn xgene2_mem_step_uses_clock_division() {
        let x2 = presets::xgene2().build();
        assert_eq!(Daemon::mem_step_for(&x2).numerator(), 3);
        let x3 = xg3_chip();
        assert_eq!(Daemon::mem_step_for(&x3), FreqStep::HALF);
    }

    #[test]
    fn replan_is_quiescent_when_nothing_changes() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);

        // A view that already matches the daemon's plan: cpu proc
        // clustered on PMD0 at MAX, voltage settled.
        let mut view = mk_view(
            &chip,
            vec![running(1, cores(&[0, 1]), IntensityClass::CpuIntensive)],
        );
        view.pmd_steps = {
            let mut s = vec![FreqStep::MIN; 16];
            s[0] = FreqStep::MAX;
            s
        };
        view.voltage = d.table.safe_voltage_for_pmds(FreqVminClass::Max, 1, 2);
        let acts = d.on_event(&view, &SysEvent::MonitorTick);
        assert!(acts.is_empty(), "unexpected actions: {acts:?}");
    }

    #[test]
    fn sequencing_avoids_core_conflicts() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);
        // A mem proc currently sits on PMD0 (where cpu procs belong); a
        // cpu proc arrives. The plan moves mem to the top and cpu to the
        // bottom; pins must sequence so no pin targets occupied cores.
        let view = mk_view(
            &chip,
            vec![
                running(1, cores(&[0]), IntensityClass::MemoryIntensive),
                waiting(2, 2),
            ],
        );
        let acts = d.on_event(&view, &SysEvent::ProcessArrived(Pid(2)));
        // Replay the pins over an occupancy map and check validity.
        let mut occupancy: BTreeMap<Pid, CoreSet> = [(Pid(1), cores(&[0]))].into_iter().collect();
        for a in &acts {
            if let Action::PinProcess(pid, cs) = a {
                let others = occupancy
                    .iter()
                    .filter(|(&q, _)| q != *pid)
                    .fold(CoreSet::EMPTY, |acc, (_, &c)| acc.union(c));
                assert!(
                    cs.intersection(others).is_empty(),
                    "pin {pid}->{cs} conflicts"
                );
                occupancy.insert(*pid, *cs);
            }
        }
        // Both processes placed.
        assert_eq!(occupancy.len(), 2);
    }

    /// The pin sequencer as first written: for every pending pin, fold
    /// the other processes' current cores afresh.
    fn reference_sequence(
        view: &SystemView,
        scratch: &PlanScratch,
    ) -> (Vec<(usize, CoreSet)>, u64) {
        let mut occupied: Vec<CoreSet> = view
            .processes
            .iter()
            .map(|p| match p.state {
                ProcessState::Running => p.assigned,
                _ => CoreSet::EMPTY,
            })
            .collect();
        let mut pending: Vec<(usize, CoreSet)> = scratch
            .order
            .iter()
            .filter_map(|&i| {
                let cores = scratch.layout.assignment_of(view.processes[i].pid)?;
                (occupied[i] != cores).then_some((i, cores))
            })
            .collect();
        let mut pins = Vec::new();
        for _ in 0..pending.len().max(1) {
            let mut progressed = false;
            pending.retain(|&(i, cores)| {
                let others = occupied
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .fold(CoreSet::EMPTY, |acc, (_, &cs)| acc.union(cs));
                if cores.intersection(others).is_empty() {
                    pins.push((i, cores));
                    occupied[i] = cores;
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            if !progressed {
                break;
            }
        }
        (pins, pending.len() as u64)
    }

    /// X-Gene 3 views with up to six running processes on random
    /// disjoint cores and up to four waiting ones, each CPU-bound,
    /// memory-bound or unmeasured: the sequencer emits the reference's
    /// pins in the reference's order and defers as many.
    #[test]
    fn pin_sequencing_matches_the_folding_reference() {
        let chip = xg3_chip();
        let mut rng =
            avfs_sim::RngStream::from_root(0, "pin_sequencing_matches_the_folding_reference");
        for _ in 0..128 {
            // Owners 0..6 run; a core drawn to owner 6..10 is free.
            let owners: Vec<u64> = (0..32).map(|_| rng.uniform_u64(0, 9)).collect();
            let classes = rng.next_u64();
            let class = |k: usize| match (classes >> (2 * k)) & 3 {
                0 => None,
                1 => Some(IntensityClass::MemoryIntensive),
                _ => Some(IntensityClass::CpuIntensive),
            };
            let mut procs = Vec::new();
            for owner in 0..6 {
                let held: CoreSet = (0..32u16)
                    .filter(|&c| owners[usize::from(c)] == owner)
                    .map(avfs_chip::topology::CoreId::new)
                    .collect();
                if !held.is_empty() {
                    let mut p = running(procs.len() as u64 + 1, held, IntensityClass::CpuIntensive);
                    p.class = class(procs.len());
                    procs.push(p);
                }
            }
            for _ in 0..rng.uniform_u64(0, 4) {
                let mut p = waiting(procs.len() as u64 + 1, rng.uniform_u64(1, 8) as usize);
                p.class = class(procs.len());
                procs.push(p);
            }
            let view = mk_view(&chip, procs);
            let mut scratch = PlanScratch::for_chip(chip.spec());
            Daemon::plan_layout(chip.spec(), &view, &mut scratch);
            let (pins, deferred) = reference_sequence(&view, &scratch);
            assert_eq!(Daemon::sequence_pins(&view, &mut scratch), deferred);
            assert_eq!(scratch.pins, pins);
        }
    }

    #[test]
    fn safe_vmin_mode_sets_one_static_undervolt() {
        let chip = xg3_chip();
        let mut d = Daemon::safe_vmin_only(&chip);
        let view = mk_view(&chip, vec![]);
        let acts = d.on_event(&view, &SysEvent::MonitorTick);
        // Init: ondemand governor + one static voltage below nominal but
        // at or above the worst-case multicore Vmin (Table II: 830 mV).
        let v = acts
            .iter()
            .find_map(|a| match a {
                Action::SetVoltage(v) => Some(*v),
                _ => None,
            })
            .expect("static undervolt expected");
        assert!(v >= Millivolts::new(830) && v < Millivolts::new(870), "{v}");
        // Subsequent events are quiescent: no pins, no voltage churn.
        let view2 = mk_view(&chip, (1..=8).map(|i| waiting(i, 1)).collect());
        let acts2 = d.on_event(&view2, &SysEvent::ProcessArrived(Pid(8)));
        assert!(acts2.is_empty(), "unexpected actions: {acts2:?}");
    }

    #[test]
    fn static_undervolt_is_safe_for_any_allocation() {
        // The static Safe Vmin voltage must satisfy the chip's real safe
        // Vmin for every allocation width at full speed.
        let chip = xg3_chip();
        let d = Daemon::safe_vmin_only(&chip);
        let v = d.table.static_safe_voltage(FreqVminClass::Max);
        for n in 1..=32u16 {
            let busy = CoreSet::first_n(n);
            let mut c = presets::xgene3().build();
            c.set_voltage(v).unwrap();
            assert!(
                c.is_voltage_safe_for(busy),
                "static {v} unsafe for {n} cores"
            );
        }
    }

    #[test]
    fn stats_accumulate() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let view = mk_view(&chip, vec![waiting(1, 2)]);
        let _ = d.on_event(&view, &SysEvent::ProcessArrived(Pid(1)));
        let s = d.stats();
        assert_eq!(s.invocations, 1);
        assert!(s.plans >= 1);
        assert!(s.pins >= 1);
    }

    #[test]
    fn names_identify_configs() {
        let chip = xg3_chip();
        assert_eq!(Daemon::optimal(&chip).name(), "optimal");
        assert_eq!(Daemon::placement_only(&chip).name(), "placement");
        assert_eq!(Daemon::safe_vmin_only(&chip).name(), "safe-vmin");
    }

    // --- Fault recovery -----------------------------------------------

    use avfs_sched::driver::FaultNotice;
    use avfs_sim::time::SimDuration;

    fn last_voltage(acts: &[Action]) -> Option<Millivolts> {
        acts.iter().rev().find_map(|a| match a {
            Action::SetVoltage(v) => Some(*v),
            _ => None,
        })
    }

    #[test]
    fn consecutive_faults_trip_safe_mode_at_threshold() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);
        let mut view = mk_view(
            &chip,
            vec![running(1, cores(&[0, 1]), IntensityClass::CpuIntensive)],
        );
        view.voltage = Millivolts::new(800);
        let fault = SysEvent::OperationFault(FaultNotice::VoltageRefused(Millivolts::new(790)));
        let k = d.config().recovery.safe_mode_threshold;
        for i in 1..k {
            let _ = d.on_event(&view, &fault);
            assert_eq!(
                d.recovery_state(),
                RecoveryState::Optimized,
                "must still be optimized after fault {i} of k={k}"
            );
        }
        let acts = d.on_event(&view, &fault);
        assert_eq!(d.recovery_state(), RecoveryState::SafeMode);
        // The fallback raises the rail to nominal.
        assert_eq!(last_voltage(&acts), Some(d.table.nominal()));
        let s = d.stats();
        assert_eq!(s.mailbox_faults, u64::from(k));
        assert_eq!(s.retries, u64::from(k - 1));
        assert_eq!(s.safe_mode_entries, 1);
        assert!(s.backoff_us > 0, "retries must account backoff time");
    }

    #[test]
    fn probation_exit_restores_the_prefault_voltage_target() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);
        let view = mk_view(
            &chip,
            vec![running(1, cores(&[0, 1]), IntensityClass::CpuIntensive)],
        );
        let prefault =
            last_voltage(&d.on_event(&view, &SysEvent::ProcessFinished(Pid(9)))).unwrap();
        assert!(prefault < d.table.nominal(), "expected an undervolt");

        let fault = SysEvent::OperationFault(FaultNotice::VoltageRefused(prefault));
        for _ in 0..d.config().recovery.safe_mode_threshold {
            let _ = d.on_event(&view, &fault);
        }
        assert_eq!(d.recovery_state(), RecoveryState::SafeMode);
        // While pessimizing, no undervolt is attempted (rail already
        // nominal in this view).
        let safe_acts = d.on_event(&view, &SysEvent::ProcessFinished(Pid(8)));
        assert_eq!(last_voltage(&safe_acts), None);

        // Burn through the safe-mode hold and the probation window with
        // clean events; the exit replan must re-aim the exact pre-fault
        // target.
        let total = d.config().recovery.safe_hold_events + d.config().recovery.probation_events;
        let mut last = None;
        for _ in 0..total {
            last = last_voltage(&d.on_event(&view, &SysEvent::ProcessFinished(Pid(7))));
        }
        assert_eq!(d.recovery_state(), RecoveryState::Optimized);
        assert_eq!(last, Some(prefault));
        assert_eq!(d.stats().safe_mode_exits, 1);
    }

    #[test]
    fn watchdog_rescues_hung_migrations_only() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);
        let mut view = mk_view(
            &chip,
            vec![
                running(1, cores(&[0, 1]), IntensityClass::CpuIntensive),
                running(2, cores(&[2]), IntensityClass::CpuIntensive),
            ],
        );
        view.now = SimTime::from_secs(10);
        // Process 1's migration is wedged; process 2 is in a normal pause.
        view.processes[0].stalled_until = Some(SimTime::from_secs(3_600));
        view.processes[1].stalled_until = Some(view.now + SimDuration::from_millis(2));
        let acts = d.on_event(&view, &SysEvent::MonitorTick);
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::PinProcess(Pid(1), cs) if *cs == cores(&[0, 1]))),
            "expected a same-cores rescue pin in {acts:?}"
        );
        assert_eq!(d.stats().watchdog_fires, 1);
    }

    #[test]
    fn droop_alert_bumps_the_guardband_and_releases() {
        let chip = xg3_chip();
        let mut d = Daemon::optimal(&chip);
        let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);
        let view = mk_view(
            &chip,
            vec![running(1, cores(&[0, 1]), IntensityClass::CpuIntensive)],
        );
        let calm = last_voltage(&d.on_event(&view, &SysEvent::ProcessFinished(Pid(9)))).unwrap();

        let mut alert = view.clone();
        alert.droop_alert = true;
        let acts = d.on_event(&alert, &SysEvent::MonitorTick);
        assert!(d.droop_guard_active());
        assert_eq!(d.stats().droop_emergencies, 1);
        let bump = d.config().recovery.droop_emergency_mv as i32;
        assert_eq!(
            last_voltage(&acts),
            Some(calm.offset(bump).min(d.table.nominal()))
        );

        // Alert clears: the guard releases and the target settles back.
        let acts = d.on_event(&view, &SysEvent::MonitorTick);
        assert!(!d.droop_guard_active());
        assert_eq!(last_voltage(&acts), Some(calm));
    }

    #[test]
    fn static_config_retries_the_lost_request_verbatim() {
        let chip = xg3_chip();
        let mut d = Daemon::safe_vmin_only(&chip);
        let view = mk_view(&chip, vec![]);
        let target = last_voltage(&d.on_event(&view, &SysEvent::MonitorTick)).unwrap();
        let acts = d.on_event(
            &view,
            &SysEvent::OperationFault(FaultNotice::VoltageDropped(target)),
        );
        assert_eq!(last_voltage(&acts), Some(target));
        assert_eq!(d.stats().retries, 1);
    }
}
