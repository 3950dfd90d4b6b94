//! The full-system simulator.
//!
//! [`System`] binds a [`Chip`], the analytic performance model, and a
//! process table into a deterministic discrete-event simulation. Between
//! events every quantity is piecewise constant, so energy integration and
//! completion times are exact:
//!
//! * process progress accrues at `1 / T(config)` per second, where `T` is
//!   the analytic execution time under the current frequency, contention,
//!   and clustering conditions;
//! * PCP power is evaluated from the per-PMD loads and integrated over
//!   each slice;
//! * each process accrues core cycles and L3 accesses, the two counters
//!   the daemon's monitoring windows read (§VI-A).
//!
//! Droop events are not simulated per slice: nothing on the control loop
//! reads them. Figure 6 samples the chip's droop model on its own stream.
//!
//! Events: job arrivals (from a [`WorkloadTrace`]), process completions,
//! monitoring windows (classification), trace sampling, and migration
//! stalls ending. On arrival / completion / class-change events the
//! [`Kernel`] consults the configured [`Driver`] and applies its
//! [`Action`](crate::driver::Action)s — including the paper's fail-safe
//! ordering, because actions apply in order within one event.

use crate::driver::{Driver, SysEvent};
use crate::kernel::Kernel;
use crate::metrics::{ProcessRecord, RunMetrics};
use crate::process::{Pid, Process};
use avfs_chip::chip::Chip;
use avfs_chip::power::{PmdLoad, PowerInputs};
use avfs_chip::topology::{CoreId, CoreSet, PmdId};
use avfs_sim::time::{SimDuration, SimTime};
use avfs_sim::RngStream;
use avfs_telemetry::{Telemetry, TraceKind, Value};
use avfs_workloads::classify::IntensityClass;
use avfs_workloads::generator::WorkloadTrace;
use avfs_workloads::perf::PerfModel;
use avfs_workloads::phases;

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Trace sampling cadence (Figures 14/15 use 1 s).
    pub sample_interval: SimDuration,
    /// Monitoring window (the paper's 1 M-cycle counter window lands at
    /// 300–500 ms wall time; we use 400 ms).
    pub monitor_interval: SimDuration,
    /// Pause a process suffers when migrated.
    pub migration_pause: SimDuration,
    /// When true, operating below the safe Vmin injects failures drawn
    /// from the chip's failure model (used by ablations); when false,
    /// unsafe time is only recorded.
    pub inject_failures: bool,
    /// Root seed for sub-Vmin failure sampling, the simulator's only
    /// stochastic model.
    pub seed: u64,
    /// Classification threshold, L3 accesses per 1M cycles (the paper's
    /// 3000 by default; ablations sweep it).
    pub l3c_threshold: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            sample_interval: SimDuration::from_secs(1),
            monitor_interval: SimDuration::from_millis(400),
            migration_pause: SimDuration::from_millis(2),
            inject_failures: false,
            seed: 0xAE5F,
            l3c_threshold: avfs_workloads::classify::L3C_THRESHOLD_PER_MCYCLE,
        }
    }
}

/// Per-process effective conditions at one instant:
/// `(progress rate per second, min thread freq MHz, mem_mult)`.
type Cond = (f64, u32, f64);

/// Looks up `pid` in a pid-sorted conditions slice.
fn cond_of(conds: &[(Pid, Cond)], pid: Pid) -> Option<Cond> {
    conds
        .binary_search_by_key(&pid, |(p, _)| *p)
        .ok()
        .map(|i| conds[i].1)
}

/// One running process's contribution to the slice signature: the
/// complete set of per-process inputs that progress rates, power, and
/// safety are a function of. Progress enters only through the discrete
/// phase index — [`phases::effective_profile`] is piecewise constant in
/// progress, so two instants with equal signatures (and equal chip
/// epochs) yield bit-identical conditions and power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SigEntry {
    pid: Pid,
    assigned: CoreSet,
    phase: u32,
    stalled: bool,
}

/// Slice-invariant quantities memoized between change points: power and
/// safety. Valid only while the signature (process set, placement,
/// phases, stalls), the chip's state epoch, and the droop alert all
/// match — i.e. until the next V/F/allocation/arrival/finish/phase
/// boundary.
#[derive(Debug, Default)]
struct SliceCache {
    valid: bool,
    chip_epoch: u64,
    droop_alert: bool,
    /// Instantaneous chip power for the slice.
    watts: f64,
    /// True when the rail sits below the allocation's safe Vmin.
    unsafe_active: bool,
    /// Sub-Vmin failure probability per unit run (0 unless unsafe and
    /// failure injection is on).
    p_per_run: f64,
}

/// Per-process memo for the observed L3-access rate of a slice, keyed on
/// the end-of-slice phase plus the frequency/contention pair from the
/// conditions. Unlike [`SliceCache`] (start-of-slice state), the rate
/// follows the progress *after* integration, so it gets its own keys.
#[derive(Debug, Clone, Copy)]
struct PmuMemoEntry {
    pid: Pid,
    phase: u32,
    freq: u32,
    mult_bits: u64,
    l3_rate: f64,
}

/// Reusable hot-path buffers, cleared and refilled per event instead of
/// re-allocated. Pure caches of capacity — nothing in here survives an
/// event observably, so dropping the whole struct between any two events
/// would not change a single output byte. (The [`SliceCache`] inside is
/// a pure memo with the same property: every cached value is recomputed
/// bit-identically on a miss.) The change point's own buffers live in
/// the [`Kernel`].
#[derive(Debug, Default)]
struct Scratch {
    /// Pid-sorted per-process conditions for the current instant.
    conds: Vec<(Pid, Cond)>,
    /// Core-index → owning pid, for L2-partner lookups.
    owner: Vec<Option<Pid>>,
    /// Pids finishing at the current instant.
    finished: Vec<Pid>,
    /// Per-PMD load accumulator for power evaluation.
    loads: Vec<PmdLoad>,
    /// Per-PMD activity accumulator for power evaluation.
    act_sum: Vec<f64>,
    /// Signature the slice cache was computed under.
    sig: Vec<SigEntry>,
    /// Signature being probed this iteration (swapped with `sig`).
    sig_next: Vec<SigEntry>,
    /// Memoized slice-invariant power/safety quantities.
    slice: SliceCache,
    /// Per-process L3-rate memo (aligned with `conds`).
    pmu_memo: Vec<PmuMemoEntry>,
    /// Class changes from the monitoring window being closed.
    class_changes: Vec<(Pid, IntensityClass)>,
}

/// The full-system simulator.
#[derive(Debug)]
pub struct System {
    /// The chip, process table, run queue and governor, and the change
    /// point that drives them.
    kernel: Kernel,
    perf: PerfModel,
    config: SystemConfig,
    energy_j: f64,
    failure_rng: RngStream,
    unsafe_time_s: f64,
    failures: u64,
    scratch: Scratch,
    /// When true (the default), power/safety quantities are evaluated
    /// only at change points and reused across the piecewise-constant
    /// slices in between. Disabling forces a full re-evaluation every
    /// slice — the reference path the bit-identity tests compare
    /// against.
    change_point_integration: bool,
}

/// Bookkeeping for an in-progress incremental run (see
/// [`System::begin_run`]). Owns the accruing [`RunMetrics`] plus the
/// monitor/sample deadlines, so a coordinator can interleave
/// [`System::step_until`] and [`System::inject_arrival`] across many
/// systems while each keeps exactly the state [`System::run`] would have.
#[derive(Debug)]
pub struct RunState {
    metrics: RunMetrics,
    next_monitor: SimTime,
    next_sample: SimTime,
    last_finish: SimTime,
    iterations: u64,
}

impl RunState {
    /// The metrics accrued so far (finalized by [`System::finish_run`]).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> usize {
        self.metrics.completed.len()
    }

    /// Latest completion time seen so far.
    pub fn last_finish(&self) -> SimTime {
        self.last_finish
    }

    /// Event-loop iterations executed so far — the event count the
    /// allocation gate and the benchmark measure against.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

/// Builder for [`System`] — chip, performance model, configuration, and
/// observer in one fluent construction path (see [`System::builder`]).
#[derive(Debug)]
pub struct SystemBuilder {
    chip: Chip,
    perf: PerfModel,
    config: SystemConfig,
    telemetry: Option<Telemetry>,
}

impl SystemBuilder {
    /// Replaces the whole simulator configuration.
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Routes the system's (and the chip's) decision points through
    /// `telemetry`.
    pub fn observer(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Builds the system.
    pub fn build(self) -> System {
        let SystemBuilder {
            mut chip,
            perf,
            config,
            telemetry,
        } = self;
        if let Some(telemetry) = telemetry {
            chip.set_telemetry(telemetry);
        }
        System::new(chip, perf, config)
    }
}

impl System {
    /// Creates a system around a chip and its matching performance model.
    /// Inherits whatever telemetry handle the chip already carries (null
    /// by default), so a pre-instrumented chip keeps reporting.
    pub fn new(chip: Chip, perf: PerfModel, config: SystemConfig) -> Self {
        let failure_rng = RngStream::from_root(config.seed, "system-failures");
        System {
            kernel: Kernel::new(chip, config.migration_pause, config.l3c_threshold),
            perf,
            config,
            energy_j: 0.0,
            failure_rng,
            unsafe_time_s: 0.0,
            failures: 0,
            scratch: Scratch::default(),
            change_point_integration: true,
        }
    }

    /// Enables or disables change-point integration (enabled by
    /// default). Disabling re-derives power, conditions, and safety on
    /// every slice instead of only at change points; both modes produce
    /// bit-identical runs — the toggle exists so tests can prove it.
    pub fn set_change_point_integration(&mut self, enabled: bool) {
        self.change_point_integration = enabled;
        self.scratch.slice.valid = false;
    }

    /// Starts a [`SystemBuilder`] — the blessed construction path.
    ///
    /// ```
    /// use avfs_chip::presets;
    /// use avfs_sched::system::{System, SystemConfig};
    /// use avfs_workloads::PerfModel;
    ///
    /// let sys = System::builder(presets::xgene2().build(), PerfModel::xgene2())
    ///     .config(SystemConfig {
    ///         seed: 42,
    ///         ..SystemConfig::default()
    ///     })
    ///     .build();
    /// ```
    pub fn builder(chip: Chip, perf: PerfModel) -> SystemBuilder {
        SystemBuilder {
            chip,
            perf,
            config: SystemConfig::default(),
            telemetry: None,
        }
    }

    /// The telemetry handle this system reports through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.kernel.telemetry
    }

    /// The chip under simulation.
    pub fn chip(&self) -> &Chip {
        self.kernel.chip()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Live (waiting or running) process count.
    pub fn live_processes(&self) -> usize {
        self.kernel.live().count()
    }

    /// Total threads across live (waiting or running) processes — the
    /// load signal cluster-level routing policies balance on.
    pub fn live_threads(&self) -> usize {
        self.kernel.live().map(|p| p.threads).sum()
    }

    /// Cores currently assigned to running processes.
    pub fn busy_cores(&self) -> CoreSet {
        self.kernel.busy_cores()
    }

    /// Running processes in pid order.
    fn running(&self) -> impl Iterator<Item = &Process> {
        self.kernel.running()
    }

    /// Submits a job directly (outside a trace); returns its pid.
    pub fn submit(&mut self, bench: avfs_workloads::Benchmark, threads: usize, scale: f64) -> Pid {
        let work = self
            .perf
            .thread_work(&bench.profile(), threads)
            .scaled(scale);
        self.kernel.submit(bench, threads, scale, work)
    }

    /// Replays a workload trace to completion under `driver`, returning
    /// the run metrics. The system must be fresh (no live processes).
    ///
    /// Implemented on the incremental stepping API ([`Self::begin_run`],
    /// [`Self::step_until`], [`Self::inject_arrival`],
    /// [`Self::run_to_completion`], [`Self::finish_run`]), which external
    /// coordinators (the fleet layer) drive directly.
    ///
    /// # Panics
    ///
    /// Panics if called on a system that already has live processes.
    pub fn run(&mut self, trace: &WorkloadTrace, driver: &mut dyn Driver) -> RunMetrics {
        let mut st = self.begin_run(driver);
        let mut arrivals = trace.arrivals.iter().peekable();
        while let Some(a) = arrivals.peek() {
            let t = a.at.max(self.now());
            self.step_until(&mut st, driver, t);
            while let Some(a) = arrivals.peek() {
                if a.at <= self.now() {
                    let a = arrivals.next().expect("peeked");
                    self.inject_arrival(&mut st, driver, a.bench, a.threads, a.scale);
                } else {
                    break;
                }
            }
        }
        self.run_to_completion(&mut st, driver);
        self.finish_run(st)
    }

    /// Starts an incremental run: lets the driver initialize (e.g. switch
    /// governor) and returns the bookkeeping that [`Self::step_until`] /
    /// [`Self::run_to_completion`] advance. The system must be fresh.
    ///
    /// # Panics
    ///
    /// Panics if called on a system that already has live processes.
    pub fn begin_run(&mut self, driver: &mut dyn Driver) -> RunState {
        assert!(
            self.live_processes() == 0,
            "begin_run() requires a fresh system; use a new System per run"
        );
        let now = self.now();
        let st = RunState {
            metrics: RunMetrics::default(),
            next_monitor: now + self.config.monitor_interval,
            next_sample: now,
            last_finish: now,
            iterations: 0,
        };
        self.kernel.dispatch(driver, &mut (), SysEvent::MonitorTick);
        self.kernel.apply_governor();
        st
    }

    /// Submits a job mid-run as if it arrived from a trace at the current
    /// simulation time: the driver sees [`SysEvent::ProcessArrived`],
    /// admission runs, and the governor is re-applied. Returns the pid.
    /// An arrival changes none of the run's bookkeeping; `_st` names the
    /// run it joins so every stepping call takes the same arguments.
    pub fn inject_arrival(
        &mut self,
        _st: &mut RunState,
        driver: &mut dyn Driver,
        bench: avfs_workloads::Benchmark,
        threads: usize,
        scale: f64,
    ) -> Pid {
        let pid = self.submit(bench, threads, scale);
        self.kernel.arrive(driver, &mut (), pid);
        pid
    }

    /// Advances the simulation to exactly `horizon`, processing every
    /// internal event (completions, monitor windows, samples, stall ends)
    /// due strictly *before* it. Events due exactly at `horizon` are left
    /// pending and fire at the start of the next stepping call — after any
    /// [`Self::inject_arrival`] at `horizon` — which preserves the
    /// arrivals-before-completions ordering of [`Self::run`] and gives
    /// epoch-driven coordinators a deterministic injection point.
    pub fn step_until(&mut self, st: &mut RunState, driver: &mut dyn Driver, horizon: SimTime) {
        loop {
            if self.now() >= horizon {
                return;
            }
            self.bump_iterations(st);
            self.process_due(st, driver);

            // Conditions are validated (and recomputed only at change
            // points) once per iteration, then shared by the
            // completion-time scan and the slice integration below —
            // nothing between the two mutates state they depend on.
            self.refresh_slice();
            let conds = std::mem::take(&mut self.scratch.conds);

            // Candidate next event times, capped at the horizon.
            let now = self.now();
            let mut next = horizon;
            if self.live_processes() > 0 {
                next = next.min(st.next_monitor).min(st.next_sample);
            } else {
                // Sample through idle gaps too, for the Figure 15 traces.
                next = next.min(st.next_sample);
            }
            for p in self.running() {
                if p.stalled_until > now {
                    next = next.min(p.stalled_until);
                }
            }
            if let Some(t) = self.earliest_completion(&conds) {
                next = next.min(t);
            }
            let next = next.max(now);

            // Integrate the slice [now, next).
            self.advance_to(next, &conds);
            self.scratch.conds = conds;
        }
    }

    /// Drains the system: processes events until no live process remains.
    /// The counterpart of [`Self::step_until`] once all arrivals are in.
    pub fn run_to_completion(&mut self, st: &mut RunState, driver: &mut dyn Driver) {
        loop {
            if self.live_processes() == 0 {
                return;
            }
            self.bump_iterations(st);
            self.process_due(st, driver);
            if self.live_processes() == 0 {
                return;
            }

            self.refresh_slice();
            let conds = std::mem::take(&mut self.scratch.conds);

            // Candidate next event times (live > 0 here, so the monitor
            // and sampler are always candidates).
            let now = self.now();
            let mut next = st.next_monitor.min(st.next_sample);
            for p in self.running() {
                if p.stalled_until > now {
                    next = next.min(p.stalled_until);
                }
            }
            if let Some(t) = self.earliest_completion(&conds) {
                next = next.min(t);
            }
            assert!(next < SimTime::MAX, "simulation stuck with no next event");
            let next = next.max(now);
            self.advance_to(next, &conds);
            self.scratch.conds = conds;
        }
    }

    /// Finalizes an incremental run and returns its metrics.
    pub fn finish_run(&mut self, st: RunState) -> RunMetrics {
        let mut metrics = st.metrics;
        metrics.makespan = st.last_finish.saturating_since(SimTime::ZERO);
        metrics.energy_j = self.energy_j;
        metrics.avg_power_w = if metrics.makespan.as_secs_f64() > 0.0 {
            self.energy_j / metrics.makespan.as_secs_f64()
        } else {
            0.0
        };
        metrics.migrations = self.kernel.migrations;
        metrics.voltage_changes = self.chip().mailbox_stats().voltage_changes;
        metrics.unsafe_time_s = self.unsafe_time_s;
        metrics.failures = self.failures;
        metrics
    }

    /// Processes everything due at the current instant, in the fixed
    /// event order: completions, then the monitoring window, then trace
    /// sampling. (Arrivals, when due, are dispatched by the caller before
    /// this runs — see [`Self::step_until`].)
    fn process_due(&mut self, st: &mut RunState, driver: &mut dyn Driver) {
        let now = self.now();

        // Completions.
        let mut finished = std::mem::take(&mut self.scratch.finished);
        finished.clear();
        finished.extend(
            self.running()
                .filter(|p| p.progress >= 1.0 - 1e-9)
                .map(|p| p.pid),
        );
        for &pid in &finished {
            // Earlier completions in this batch left the table, so look
            // the process up afresh; a finishing pid is always present.
            let Some(p) = self.kernel.process(pid) else {
                continue;
            };
            st.metrics.completed.push(ProcessRecord {
                pid,
                arrived_at: p.arrived_at,
                finished_at: now,
                threads: p.threads,
                migrations: p.migrations,
            });
            st.last_finish = now;
            self.kernel.finish(driver, &mut (), pid);
        }
        self.scratch.finished = finished;

        // Monitoring window.
        if now >= st.next_monitor {
            st.next_monitor = now + self.config.monitor_interval;
            // Advance droop-excursion state *before* the driver is
            // consulted, so an excursion opening at this boundary is
            // visible (via `droop_alert`) in the very view the driver
            // reacts to — no unsafe window ever elapses in sim time.
            if let Some(plan) = self.kernel.chip.fault_plan_mut() {
                plan.droop_check();
            }
            self.close_monitor_windows();
            self.kernel.dispatch(driver, &mut (), SysEvent::MonitorTick);
            let changes = std::mem::take(&mut self.scratch.class_changes);
            for &(pid, class) in &changes {
                self.kernel.telemetry.trace(TraceKind::Classification, || {
                    vec![
                        ("pid", Value::U64(pid.0)),
                        (
                            "class",
                            Value::Str(match class {
                                IntensityClass::CpuIntensive => "cpu",
                                IntensityClass::MemoryIntensive => "memory",
                            }),
                        ),
                    ]
                });
                self.kernel
                    .dispatch(driver, &mut (), SysEvent::ClassChanged(pid, class));
            }
            self.scratch.class_changes = changes;
            self.kernel.apply_governor();
        }

        // Trace sampling.
        if now >= st.next_sample {
            st.next_sample = now + self.config.sample_interval;
            self.record_sample(&mut st.metrics);
        }
    }

    /// Guards against a wedged event loop.
    fn bump_iterations(&self, st: &mut RunState) {
        st.iterations += 1;
        assert!(
            st.iterations < 2_000_000,
            "event loop stuck at t={} with {} live processes",
            self.now(),
            self.live_processes()
        );
    }

    /// Number of driver actions that were rejected as invalid.
    pub fn rejected_actions(&self) -> u64 {
        self.kernel.rejected_actions
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Validates the slice memo against the current signature (process
    /// placement, phases, stalls), chip state epoch, and droop alert;
    /// recomputes conditions, power, and safety only on mismatch — i.e.
    /// only at change points. After this returns, `scratch.conds` and
    /// `scratch.slice` describe the slice starting at the current instant,
    /// bit-identically to an unconditional recompute.
    fn refresh_slice(&mut self) {
        let now = self.now();
        let mut sig_next = std::mem::take(&mut self.scratch.sig_next);
        sig_next.clear();
        sig_next.extend(self.running().map(|p| SigEntry {
            pid: p.pid,
            assigned: p.assigned,
            phase: phases::phase_index(p.bench, p.progress),
            stalled: p.stalled_until > now,
        }));
        let chip = self.chip();
        let epoch = chip.state_epoch();
        let droop_alert = chip.droop_excursion_active();
        let fresh = self.change_point_integration
            && self.scratch.slice.valid
            && self.scratch.slice.chip_epoch == epoch
            && self.scratch.slice.droop_alert == droop_alert
            && sig_next == self.scratch.sig;
        if fresh {
            self.scratch.sig_next = sig_next;
            return;
        }
        std::mem::swap(&mut self.scratch.sig, &mut sig_next);
        self.scratch.sig_next = sig_next;

        let mut conds = std::mem::take(&mut self.scratch.conds);
        let mut owner = std::mem::take(&mut self.scratch.owner);
        let loads = std::mem::take(&mut self.scratch.loads);
        let mut act_sum = std::mem::take(&mut self.scratch.act_sum);

        // One pressure evaluation feeds both the contention multiplier
        // and the memory-traffic term (they always read the same value).
        let pressure = self.total_pressure();
        self.fill_conditions(pressure, &mut conds, &mut owner);
        let inputs = self.power_inputs_into(pressure, &conds, loads, &mut act_sum);
        let watts = self.kernel.chip.evaluate_power_w(&inputs);

        let chip = self.chip();
        let busy = self.busy_cores();
        let unsafe_active = !busy.is_empty() && !chip.is_voltage_safe_for(busy);
        let mut p_per_run = 0.0;
        if unsafe_active && self.config.inject_failures {
            let safe = chip.current_safe_vmin(busy);
            let utilized = busy.utilized_pmd_count(chip.spec());
            let class = chip.vmin_model().droop_class(utilized);
            p_per_run = chip.failure_model().pfail(chip.voltage(), safe, class);
        }

        self.scratch.conds = conds;
        self.scratch.owner = owner;
        self.scratch.loads = inputs.pmd_loads;
        self.scratch.act_sum = act_sum;
        self.scratch.slice = SliceCache {
            valid: true,
            chip_epoch: epoch,
            droop_alert,
            watts,
            unsafe_active,
            p_per_run,
        };
    }

    /// Aggregate memory pressure of running processes, accounting for
    /// their current (possibly reduced) core clocks.
    fn total_pressure(&self) -> f64 {
        let chip = self.chip();
        let fmax = chip.spec().fmax_mhz as f64;
        self.running()
            .map(|p| {
                let freq = p
                    .assigned
                    .first()
                    .and_then(|c| {
                        let pmd = chip.spec().pmd_of(c);
                        chip.pmd_frequency(pmd).ok()
                    })
                    .map(|f| f.as_mhz() as f64)
                    .unwrap_or(fmax);
                self.perf.pressure_at(
                    &phases::effective_profile(p.bench, p.progress),
                    (freq / fmax).clamp(1e-6, 1.0),
                ) * p.threads as f64
            })
            .sum()
    }

    /// Computes per-running-process effective conditions for the current
    /// instant into `conds` (pid-sorted), using `owner` as core-owner
    /// scratch for L2-partner lookups.
    fn fill_conditions(
        &self,
        pressure: f64,
        conds: &mut Vec<(Pid, Cond)>,
        owner: &mut Vec<Option<Pid>>,
    ) {
        conds.clear();
        owner.clear();
        let chip = self.chip();
        let now = self.now();
        let base_mult = self.perf.mem_contention_mult(pressure);
        for p in self.running() {
            for c in p.assigned.iter() {
                if c.index() >= owner.len() {
                    owner.resize(c.index() + 1, None);
                }
                owner[c.index()] = Some(p.pid);
            }
        }
        for p in self.running() {
            let mut worst_rate = f64::INFINITY;
            let mut min_freq = u32::MAX;
            let mut worst_mult = base_mult;
            for core in p.assigned.iter() {
                let pmd = chip.spec().pmd_of(core);
                let freq = chip
                    .pmd_frequency(pmd)
                    .expect("assigned core on valid pmd")
                    .as_mhz();
                let partner_mem = self.l2_partner_mem(core, owner);
                let mult = base_mult * self.perf.l2_share_mult(partner_mem);
                let rate = self.perf.progress_rate(&p.work, freq, mult);
                if rate < worst_rate {
                    worst_rate = rate;
                    worst_mult = mult;
                }
                min_freq = min_freq.min(freq);
            }
            if p.assigned.is_empty() {
                continue;
            }
            let stalled = p.stalled_until > now;
            conds.push((
                p.pid,
                (if stalled { 0.0 } else { worst_rate }, min_freq, worst_mult),
            ));
        }
    }

    /// Memory intensity of the process on the other core of `core`'s PMD,
    /// if that core is busy with a *different* thread.
    fn l2_partner_mem(&self, core: CoreId, owner: &[Option<Pid>]) -> Option<f64> {
        let spec = self.chip().spec();
        let pmd = spec.pmd_of(core);
        spec.cores_of(pmd)
            .iter()
            .filter(|&c| c != core)
            .find_map(|c| owner.get(c.index()).copied().flatten())
            .and_then(|pid| self.kernel.process(pid))
            .map(|q| phases::effective_profile(q.bench, q.progress).mem_fraction)
    }

    /// The earliest running-process completion time, if any, given the
    /// current conditions.
    fn earliest_completion(&self, conds: &[(Pid, Cond)]) -> Option<SimTime> {
        let now = self.now();
        let mut earliest: Option<SimTime> = None;
        // `conds` is a pid-ordered subsequence of the table: one merge
        // pass pairs each condition with its process.
        let mut table = self.kernel.processes();
        for &(pid, (rate, _, _)) in conds {
            let Some(p) = table.find(|p| p.pid == pid) else {
                break;
            };
            if p.stalled_until > now {
                // Resumes later; completion considered after resume.
                continue;
            }
            if rate <= 0.0 {
                continue;
            }
            // At least 1 ns in the future so the event loop always
            // advances.
            let t = now + SimDuration::from_secs_f64((p.remaining() / rate).max(1e-9));
            earliest = Some(match earliest {
                None => t,
                Some(e) => e.min(t),
            });
        }
        earliest
    }

    /// Integrates state forward to `target` (progress, energy, the
    /// per-process cycle and L3 counters, safety accounting).
    fn advance_to(&mut self, target: SimTime, conds: &[(Pid, Cond)]) {
        let now = self.now();
        if target <= now {
            return;
        }
        let dt = (target - now).as_secs_f64();

        // Power for this slice: piecewise constant, so the value the
        // slice memo captured at the last change point is *the* value
        // for the whole slice — no re-evaluation.
        self.energy_j += self.scratch.slice.watts * dt;

        // Safety accounting (and optional failure injection), also
        // constant across the slice.
        if self.scratch.slice.unsafe_active {
            self.unsafe_time_s += dt;
            if self.config.inject_failures {
                // Treat each second below Vmin as one run opportunity.
                let lam = self.scratch.slice.p_per_run * dt;
                self.failures += self.failure_rng.poisson(lam);
            }
        }

        // Progress + counters. `conds` is a pid-ordered subsequence of the
        // table, so one merge pass pairs each condition with its process.
        let use_memo = self.change_point_integration;
        let mut memo = std::mem::take(&mut self.scratch.pmu_memo);
        let mut table = self.kernel.procs.iter_mut().map(|e| &mut e.process);
        for (i, &(pid, (rate, freq, mult))) in conds.iter().enumerate() {
            let Some(p) = table.find(|p| p.pid == pid) else {
                break;
            };
            let run_dt = if p.stalled_until > now {
                // Stall may end inside the slice (slice boundaries include
                // stall ends, so this is exact, not an approximation).
                let resume = p.stalled_until.min(target);
                (target - resume).as_secs_f64()
            } else {
                dt
            };
            if run_dt > 0.0 && rate > 0.0 {
                p.progress = (p.progress + rate * run_dt).min(1.0);
                // Snap to done when the residue is below the event
                // queue's nanosecond resolution — prevents a zero-length
                // event livelock from floating-point rounding.
                if p.remaining() <= rate * 2e-9 {
                    p.progress = 1.0;
                }
            }
            // Counters accrue whenever cores are clocked, stalled or not.
            // The L3 rate follows the program's current phase — sampled
            // *after* the progress update, so it keys on the end-of-slice
            // phase, unlike the start-of-slice slice memo.
            let cycles = (freq as f64 * 1e6 * dt) as u64 * p.threads as u64;
            let phase = phases::phase_index(p.bench, p.progress);
            let l3_rate = match memo.get(i) {
                Some(e)
                    if use_memo
                        && e.pid == pid
                        && e.phase == phase
                        && e.freq == freq
                        && e.mult_bits == mult.to_bits() =>
                {
                    e.l3_rate
                }
                _ => {
                    let profile = phases::effective_profile(p.bench, p.progress);
                    let l3_rate = self.perf.observed_l3c_rate(&profile, mult);
                    let entry = PmuMemoEntry {
                        pid,
                        phase,
                        freq,
                        mult_bits: mult.to_bits(),
                        l3_rate,
                    };
                    if i < memo.len() {
                        memo[i] = entry;
                    } else {
                        memo.push(entry);
                    }
                    l3_rate
                }
            };
            p.cycles += cycles;
            p.l3_accesses += (cycles as f64 / 1e6 * l3_rate) as u64;
        }
        self.scratch.pmu_memo = memo;

        self.kernel.now = target;
    }

    /// Builds the chip power inputs for the current instant. `loads`
    /// moves in and out through the returned [`PowerInputs`] so the
    /// caller can recycle it; `act_sum` is plain scratch. `pressure` is
    /// the caller's [`Self::total_pressure`] evaluation for the instant.
    fn power_inputs_into(
        &self,
        pressure: f64,
        conds: &[(Pid, Cond)],
        mut loads: Vec<PmdLoad>,
        act_sum: &mut Vec<f64>,
    ) -> PowerInputs {
        let chip = self.chip();
        let spec = chip.spec();
        loads.clear();
        loads.resize(spec.pmds() as usize, PmdLoad::IDLE);
        act_sum.clear();
        act_sum.resize(spec.pmds() as usize, 0.0);
        for p in self.running() {
            let profile = phases::effective_profile(p.bench, p.progress);
            let (_, freq, mult) = cond_of(conds, p.pid).unwrap_or((0.0, 0, 1.0));
            let act = self
                .perf
                .effective_activity(&profile, &p.work, freq.max(1), mult);
            for core in p.assigned.iter() {
                let pmd = spec.pmd_of(core).index();
                loads[pmd].active_cores += 1;
                act_sum[pmd] += act;
            }
        }
        for (i, load) in loads.iter_mut().enumerate() {
            if load.active_cores > 0 {
                load.freq_mhz = chip
                    .pmd_frequency(PmdId::new(i as u16))
                    .expect("valid pmd")
                    .as_mhz();
                load.activity = act_sum[i] / load.active_cores as f64;
            }
        }
        PowerInputs {
            voltage: chip.voltage(),
            pmd_loads: loads,
            mem_traffic: (pressure / self.perf.mem_capacity).min(1.0),
        }
    }

    /// Closes monitoring windows; processes whose class flipped are left
    /// in `scratch.class_changes` for the caller to dispatch.
    fn close_monitor_windows(&mut self) {
        let mut changes = std::mem::take(&mut self.scratch.class_changes);
        changes.clear();
        for e in &mut self.kernel.procs {
            let (p, mon) = (&e.process, &mut e.monitor);
            if !p.is_running() {
                continue;
            }
            let cycles = p.cycles - mon.window_start_cycles;
            let l3 = p.l3_accesses - mon.window_start_l3;
            mon.window_start_cycles = p.cycles;
            mon.window_start_l3 = p.l3_accesses;
            if cycles < 100_000 {
                continue; // window too small to classify
            }
            // An injected PMU glitch corrupts what this window reads
            // (saturated or dropped-out L3 counter); the classifier's
            // hysteresis is the daemon's defence against the resulting
            // churn.
            let (cycles, l3) = self
                .kernel
                .chip
                .fault_plan_mut()
                .and_then(|f| f.sample_pmu_glitch(cycles, l3))
                .unwrap_or((cycles, l3));
            if let Some(class) = mon.observe(l3 as f64 * 1e6 / cycles as f64) {
                changes.push((p.pid, class));
            }
        }
        self.scratch.class_changes = changes;
    }

    /// Records one trace sample (Figures 14/15).
    fn record_sample(&mut self, metrics: &mut RunMetrics) {
        self.refresh_slice();
        let now = self.now();
        let watts = self.scratch.slice.watts;
        metrics.power_trace.push(now, watts);
        let (mut running_threads, mut cpu, mut mem) = (0usize, 0u32, 0u32);
        for e in self.kernel.procs.iter().filter(|e| e.process.is_running()) {
            running_threads += e.process.threads;
            match e.monitor.classifier.current() {
                Some(IntensityClass::MemoryIntensive) => mem += 1,
                Some(IntensityClass::CpuIntensive) | None => cpu += 1,
            }
        }
        let voltage_mv = self.chip().voltage().as_mv();
        let telemetry = &self.kernel.telemetry;
        telemetry.advance_to(now);
        telemetry.trace(TraceKind::MonitorSample, || {
            vec![
                ("power_w", Value::F64(watts)),
                ("voltage_mv", Value::U64(u64::from(voltage_mv))),
                ("running_threads", Value::U64(running_threads as u64)),
            ]
        });
        metrics.load_trace.push(now, running_threads as f64);
        metrics.cpu_class_trace.push(now, cpu as f64);
        metrics.mem_class_trace.push(now, mem as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Action, DefaultPolicy};
    use crate::governor::GovernorMode;
    use crate::kernel::FAULT_FEEDBACK_ROUNDS;
    use avfs_chip::droop::DroopCounts;
    use avfs_chip::presets;
    use avfs_workloads::catalog::Benchmark;
    use avfs_workloads::generator::{Arrival, GeneratorConfig};

    fn small_trace(seed: u64) -> WorkloadTrace {
        let mut cfg = GeneratorConfig::paper_default(8, seed);
        cfg.duration = SimDuration::from_secs(120);
        cfg.job_scale = 0.15;
        WorkloadTrace::generate(&cfg)
    }

    fn xgene2_system() -> System {
        System::new(
            presets::xgene2().build(),
            PerfModel::xgene2(),
            SystemConfig::default(),
        )
    }

    #[test]
    fn single_job_runs_to_completion() {
        let trace = WorkloadTrace {
            arrivals: vec![Arrival {
                at: SimTime::ZERO,
                bench: Benchmark::SpecNamd,
                threads: 1,
                scale: 0.1,
            }],
            duration: SimDuration::from_secs(60),
        };
        let mut sys = xgene2_system();
        let m = sys.run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(m.completed.len(), 1);
        // namd at 0.1 scale: ~10 s of work, 3 GHz-reference core time at
        // 2.4 GHz → ~12.4 s; allow the monitor/sample granularity.
        let t = m.makespan.as_secs_f64();
        assert!((12.0..13.5).contains(&t), "makespan {t}s");
        assert!(m.energy_j > 0.0);
        assert_eq!(m.unsafe_time_s, 0.0);
        assert_eq!(m.failures, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = small_trace(11);
        let m1 = xgene2_system().run(&trace, &mut DefaultPolicy::ondemand());
        let m2 = xgene2_system().run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(m1.energy_j, m2.energy_j);
        assert_eq!(m1.makespan, m2.makespan);
        assert_eq!(m1.completed.len(), m2.completed.len());
    }

    #[test]
    fn step_api_replay_is_bit_identical_to_run() {
        // Driving the incremental stepping API by hand — step to each
        // arrival time, inject, then drain — must reproduce run() to the
        // last bit: run() is itself built on these primitives, and the
        // fleet layer depends on the equivalence.
        let trace = small_trace(23);
        let reference = xgene2_system().run(&trace, &mut DefaultPolicy::ondemand());

        let mut sys = xgene2_system();
        let mut driver = DefaultPolicy::ondemand();
        let mut st = sys.begin_run(&mut driver);
        for a in &trace.arrivals {
            let t = a.at.max(sys.now());
            sys.step_until(&mut st, &mut driver, t);
            sys.inject_arrival(&mut st, &mut driver, a.bench, a.threads, a.scale);
        }
        sys.run_to_completion(&mut st, &mut driver);
        let stepped = sys.finish_run(st);

        assert_eq!(reference.energy_j.to_bits(), stepped.energy_j.to_bits());
        assert_eq!(reference.makespan, stepped.makespan);
        assert_eq!(reference.completed.len(), stepped.completed.len());
        assert_eq!(reference.migrations, stepped.migrations);
        assert_eq!(reference.voltage_changes, stepped.voltage_changes);
        for (a, b) in reference.completed.iter().zip(&stepped.completed) {
            assert_eq!(a.pid, b.pid);
            assert_eq!(a.finished_at, b.finished_at);
        }
    }

    #[test]
    fn change_point_integration_is_bit_identical_to_per_slice() {
        // The slice memo must be a pure optimization: integrating power
        // only at change points has to reproduce the reference path
        // (full re-evaluation every slice) to the last bit, on both
        // chip presets, with failure injection on. Each seed runs under
        // the ondemand baseline at nominal voltage, which is never
        // unsafe, and again with the rail held at a per-preset voltage
        // below safe Vmin for most of the small traces' allocations, so
        // unsafe-time accounting and failure sampling run under the
        // check too.
        let presets = [
            (presets::xgene2(), PerfModel::xgene2(), 850),
            (presets::xgene3(), PerfModel::xgene3(), 790),
        ];
        for (chip, perf, undervolt_mv) in presets {
            let mut failures = 0;
            for seed in [11u64, 42, 97] {
                let trace = small_trace(seed);
                let cfg = SystemConfig {
                    inject_failures: true,
                    ..SystemConfig::default()
                };
                let run = |change_points: bool, driver: &mut dyn Driver| {
                    let mut sys = System::new(chip.build(), perf.clone(), cfg.clone());
                    sys.set_change_point_integration(change_points);
                    sys.run(&trace, driver)
                };
                let undervolt = || {
                    Scripted(vec![
                        Action::SetGovernor(GovernorMode::Ondemand),
                        Action::SetVoltage(avfs_chip::Millivolts::new(undervolt_mv)),
                    ])
                };
                let nominal = (
                    run(false, &mut DefaultPolicy::ondemand()),
                    run(true, &mut DefaultPolicy::ondemand()),
                );
                let unsafe_runs = (run(false, &mut undervolt()), run(true, &mut undervolt()));
                for (r, c) in [&nominal, &unsafe_runs] {
                    assert_eq!(r.energy_j.to_bits(), c.energy_j.to_bits(), "seed {seed}");
                    assert_eq!(r.makespan, c.makespan, "seed {seed}");
                    assert_eq!(r.unsafe_time_s.to_bits(), c.unsafe_time_s.to_bits());
                    assert_eq!(r.failures, c.failures, "seed {seed}");
                    assert_eq!(r.migrations, c.migrations, "seed {seed}");
                    assert_eq!(r.voltage_changes, c.voltage_changes, "seed {seed}");
                    assert_eq!(r.power_trace.len(), c.power_trace.len(), "seed {seed}");
                    for ((ta, va), (tb, vb)) in r.power_trace.iter().zip(c.power_trace.iter()) {
                        assert_eq!(ta, tb, "seed {seed}");
                        assert_eq!(va.to_bits(), vb.to_bits(), "seed {seed}");
                    }
                    for (a, b) in r.completed.iter().zip(&c.completed) {
                        assert_eq!(a.pid, b.pid, "seed {seed}");
                        assert_eq!(a.finished_at, b.finished_at, "seed {seed}");
                    }
                }
                assert!(
                    unsafe_runs.1.unsafe_time_s > 0.0,
                    "seed {seed}: never unsafe"
                );
                failures += unsafe_runs.1.failures;
            }
            assert!(failures > 0, "{undervolt_mv} mV injected no failures");
        }
    }

    #[test]
    fn idle_stepping_to_intermediate_horizons_still_drains() {
        // Horizons that land between events (an epoch grid rather than
        // the arrival grid) must not wedge or drop work.
        let trace = small_trace(7);
        let mut sys = xgene2_system();
        let mut driver = DefaultPolicy::ondemand();
        let mut st = sys.begin_run(&mut driver);
        let mut i = 0;
        let epoch = SimDuration::from_millis(250);
        let mut horizon = SimTime::ZERO + epoch;
        while i < trace.arrivals.len() {
            sys.step_until(&mut st, &mut driver, horizon);
            while i < trace.arrivals.len() && trace.arrivals[i].at <= sys.now() {
                let a = &trace.arrivals[i];
                sys.inject_arrival(&mut st, &mut driver, a.bench, a.threads, a.scale);
                i += 1;
            }
            horizon += epoch;
        }
        sys.run_to_completion(&mut st, &mut driver);
        let m = sys.finish_run(st);
        assert_eq!(m.completed.len(), trace.len());
        assert_eq!(sys.live_processes(), 0);
        assert!(m.energy_j > 0.0);
    }

    #[test]
    fn all_jobs_complete_and_metrics_are_consistent() {
        let trace = small_trace(3);
        let mut sys = xgene2_system();
        let m = sys.run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(m.completed.len(), trace.len());
        assert_eq!(sys.live_processes(), 0);
        // Energy equals avg power times makespan by construction.
        let expect = m.avg_power_w * m.makespan.as_secs_f64();
        assert!((m.energy_j - expect).abs() < 1e-6 * m.energy_j.max(1.0));
        // ED2P is consistent.
        let d = m.makespan.as_secs_f64();
        assert!((m.ed2p() - m.energy_j * d * d).abs() < 1e-6 * m.ed2p().max(1.0));
    }

    #[test]
    fn memory_job_is_classified_memory_intensive() {
        let trace = WorkloadTrace {
            arrivals: vec![Arrival {
                at: SimTime::ZERO,
                bench: Benchmark::SpecMilc,
                threads: 1,
                scale: 0.2,
            }],
            duration: SimDuration::from_secs(60),
        };
        let mut sys = xgene2_system();
        let m = sys.run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(m.completed.len(), 1);
        // The mem-class trace should have seen a memory-intensive process.
        assert!(m.mem_class_trace.max().unwrap_or(0.0) >= 1.0);
    }

    #[test]
    fn parallel_job_occupies_multiple_cores() {
        let trace = WorkloadTrace {
            arrivals: vec![Arrival {
                at: SimTime::ZERO,
                bench: Benchmark::NpbEp,
                threads: 4,
                scale: 0.1,
            }],
            duration: SimDuration::from_secs(120),
        };
        let mut sys = xgene2_system();
        let m = sys.run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(m.completed.len(), 1);
        assert!(m.load_trace.max().unwrap_or(0.0) >= 4.0);
        // Default placement spreads 4 threads over 4 PMDs: power trace
        // must exist and be positive.
        assert!(m.power_trace.max().unwrap_or(0.0) > 1.0);
    }

    #[test]
    fn ondemand_idles_between_jobs() {
        // Two jobs separated by a long idle gap: average power must dip
        // towards idle between them.
        let trace = WorkloadTrace {
            arrivals: vec![
                Arrival {
                    at: SimTime::ZERO,
                    bench: Benchmark::SpecHmmer,
                    threads: 1,
                    scale: 0.05,
                },
                Arrival {
                    at: SimTime::from_secs(60),
                    bench: Benchmark::SpecHmmer,
                    threads: 1,
                    scale: 0.05,
                },
            ],
            duration: SimDuration::from_secs(120),
        };
        let mut sys = xgene2_system();
        let m = sys.run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(m.completed.len(), 2);
        // Idle-gap samples exist with near-idle power.
        let idle_w = presets::xgene2()
            .build()
            .power_model()
            .idle_power_w(avfs_chip::Millivolts::new(980), 4);
        let min_sample = m
            .power_trace
            .values()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            (min_sample - idle_w).abs() < 0.5,
            "min sample {min_sample} vs idle {idle_w}"
        );
    }

    #[test]
    fn contention_slows_jobs_down() {
        // One milc copy vs eight: per-instance time must grow.
        let solo_trace = WorkloadTrace {
            arrivals: vec![Arrival {
                at: SimTime::ZERO,
                bench: Benchmark::SpecMilc,
                threads: 1,
                scale: 0.1,
            }],
            duration: SimDuration::from_secs(600),
        };
        let full_trace = WorkloadTrace {
            arrivals: (0..8)
                .map(|_| Arrival {
                    at: SimTime::ZERO,
                    bench: Benchmark::SpecMilc,
                    threads: 1,
                    scale: 0.1,
                })
                .collect(),
            duration: SimDuration::from_secs(600),
        };
        let solo = xgene2_system().run(&solo_trace, &mut DefaultPolicy::ondemand());
        let full = xgene2_system().run(&full_trace, &mut DefaultPolicy::ondemand());
        assert!(
            full.makespan.as_secs_f64() > 1.5 * solo.makespan.as_secs_f64(),
            "full {} vs solo {}",
            full.makespan,
            solo.makespan
        );
    }

    #[test]
    fn queueing_defers_jobs_beyond_capacity() {
        // Nine single-thread jobs on eight cores: one must wait.
        let trace = WorkloadTrace {
            arrivals: (0..9)
                .map(|_| Arrival {
                    at: SimTime::ZERO,
                    bench: Benchmark::SpecGamess,
                    threads: 1,
                    scale: 0.05,
                })
                .collect(),
            duration: SimDuration::from_secs(600),
        };
        let mut sys = xgene2_system();
        let m = sys.run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(m.completed.len(), 9);
        assert!(m.load_trace.max().unwrap_or(0.0) <= 8.0);
        // The ninth job's turnaround exceeds the others'.
        let max_turnaround = m
            .completed
            .iter()
            .map(|r| r.turnaround().as_secs_f64())
            .fold(0.0f64, f64::max);
        let min_turnaround = m
            .completed
            .iter()
            .map(|r| r.turnaround().as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        assert!(max_turnaround > 1.5 * min_turnaround);
    }

    #[test]
    fn nominal_voltage_is_never_unsafe() {
        let trace = small_trace(5);
        let mut sys = xgene2_system();
        let m = sys.run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(m.unsafe_time_s, 0.0);
        assert_eq!(m.failures, 0);
        assert_eq!(sys.rejected_actions(), 0);
    }

    /// The ondemand baseline, recording the time and busy cores of every
    /// view it is shown.
    struct AllocationRecorder(DefaultPolicy, Vec<(SimTime, CoreSet)>);

    impl crate::driver::Driver for AllocationRecorder {
        fn on_event(
            &mut self,
            view: &crate::driver::SystemView,
            event: &crate::driver::SysEvent,
        ) -> Vec<Action> {
            self.1.push((view.now, view.busy_cores()));
            self.0.on_event(view, event)
        }

        fn name(&self) -> &str {
            "allocation-recorder"
        }
    }

    #[test]
    fn droop_counters_populate() {
        // The simulator keeps no droop counters. Sampling the chip's
        // droop model at the droop class of each allocation a run passes
        // through, for as long as it holds, populates droop counts up to
        // the widest allocation's band.
        let mut driver = AllocationRecorder(DefaultPolicy::ondemand(), Vec::new());
        let mut sys = xgene2_system();
        let _ = sys.run(&small_trace(6), &mut driver);
        let chip = sys.chip();
        let class_of = |busy: CoreSet| {
            chip.vmin_model()
                .droop_class(busy.utilized_pmd_count(chip.spec()))
        };
        let mut rng = RngStream::from_root(6, "droops");
        let mut droops = DroopCounts::default();
        let mut widest = None;
        for pair in driver.1.windows(2) {
            let ((at, busy), (until, _)) = (pair[0], pair[1]);
            if busy.is_empty() {
                continue;
            }
            let class = class_of(busy);
            widest = widest.max(Some(class));
            let dt = until.saturating_since(at).as_secs_f64();
            let cycles = (f64::from(chip.spec().fmax_mhz) * 1e6 * dt) as u64;
            droops.add(&chip.droop_model().sample(class, 0.5, cycles, &mut rng));
        }
        assert!(droops.total() > 0);
        assert!(droops.max_band() >= widest, "{droops:?}");
    }

    /// A driver that emits a fixed action list on its first event, for
    /// negative-path tests.
    struct Scripted(Vec<Action>);

    impl crate::driver::Driver for Scripted {
        fn on_event(
            &mut self,
            _view: &crate::driver::SystemView,
            _event: &crate::driver::SysEvent,
        ) -> Vec<Action> {
            std::mem::take(&mut self.0)
        }

        fn name(&self) -> &str {
            "scripted"
        }
    }

    fn tiny_trace() -> WorkloadTrace {
        WorkloadTrace {
            arrivals: vec![Arrival {
                at: SimTime::ZERO,
                bench: Benchmark::SpecHmmer,
                threads: 1,
                scale: 0.02,
            }],
            duration: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn invalid_pins_are_rejected_and_counted() {
        let mut sys = xgene2_system();
        // Pin pid 1 to a nonexistent core, pin an unknown pid, and pin
        // pid 1 with the wrong width.
        let bad_core: CoreSet = [63u16].iter().map(|&i| CoreId::new(i)).collect();
        let two_cores: CoreSet = [0u16, 1].iter().map(|&i| CoreId::new(i)).collect();
        let mut driver = Scripted(vec![
            Action::PinProcess(Pid(1), bad_core),
            Action::PinProcess(Pid(99), two_cores),
            Action::PinProcess(Pid(1), two_cores),
        ]);
        let m = sys.run(&tiny_trace(), &mut driver);
        // The job still completes via default placement...
        assert_eq!(m.completed.len(), 1);
        // ...and all three bad actions were counted as rejected.
        assert_eq!(sys.rejected_actions(), 3);
    }

    #[test]
    fn freq_steps_are_refused_outside_userspace_mode() {
        let mut sys = xgene2_system();
        // Under ondemand, a direct step request must be refused — the
        // kernel governor owns the frequency.
        let mut driver = Scripted(vec![Action::SetPmdStep(
            PmdId::new(0),
            avfs_chip::FreqStep::MIN,
        )]);
        let _ = sys.run(&tiny_trace(), &mut driver);
        assert_eq!(sys.rejected_actions(), 1);
    }

    /// A driver that requests one undervolt and retries it a bounded
    /// number of times when told the request failed.
    struct RetryProbe {
        target: avfs_chip::Millivolts,
        attempted: bool,
        faults_seen: u64,
        retries_left: u32,
    }

    impl crate::driver::Driver for RetryProbe {
        fn on_event(
            &mut self,
            _view: &crate::driver::SystemView,
            event: &crate::driver::SysEvent,
        ) -> Vec<Action> {
            match event {
                SysEvent::OperationFault(notice) => {
                    self.faults_seen += 1;
                    if self.retries_left > 0 {
                        self.retries_left -= 1;
                        vec![Action::SetVoltage(notice.requested())]
                    } else {
                        Vec::new()
                    }
                }
                _ if !self.attempted => {
                    self.attempted = true;
                    vec![Action::SetVoltage(self.target)]
                }
                _ => Vec::new(),
            }
        }

        fn name(&self) -> &str {
            "retry-probe"
        }
    }

    #[test]
    fn voltage_faults_feed_back_as_operation_fault_events() {
        use avfs_chip::fault::{FaultPlan, FaultRates};
        let mut sys = xgene2_system();
        sys.kernel.chip.set_fault_plan(Some(FaultPlan::new(
            4,
            FaultRates {
                mailbox: 1.0,
                ..FaultRates::ZERO
            },
        )));
        let mut driver = RetryProbe {
            target: avfs_chip::Millivolts::new(900),
            attempted: false,
            faults_seen: 0,
            retries_left: 3,
        };
        let m = sys.run(&tiny_trace(), &mut driver);
        // The initial attempt and all three retries each produced a
        // fault notice; the run still completed at nominal voltage.
        assert_eq!(driver.faults_seen, 4);
        assert_eq!(m.completed.len(), 1);
        assert_eq!(sys.chip().voltage(), sys.chip().nominal_voltage());
        assert!(sys.chip().fault_stats().mailbox_total() >= 4);
    }

    #[test]
    fn fault_feedback_terminates_against_an_unbounded_retrier() {
        use avfs_chip::fault::{FaultPlan, FaultRates};
        let mut sys = xgene2_system();
        sys.kernel.chip.set_fault_plan(Some(FaultPlan::new(
            4,
            FaultRates {
                mailbox: 1.0,
                ..FaultRates::ZERO
            },
        )));
        let mut driver = RetryProbe {
            target: avfs_chip::Millivolts::new(900),
            attempted: false,
            faults_seen: 0,
            retries_left: u32::MAX,
        };
        let m = sys.run(&tiny_trace(), &mut driver);
        // The per-event round bound cut the infinite retry ladder.
        assert_eq!(m.completed.len(), 1);
        assert!(driver.faults_seen <= FAULT_FEEDBACK_ROUNDS as u64 + 1);
    }

    #[test]
    fn hung_migration_is_cancellable_by_repin() {
        use avfs_chip::fault::{FaultPlan, FaultRates};
        let mut sys = xgene2_system();
        let pid = sys.submit(Benchmark::SpecNamd, 1, 0.5);
        let first: CoreSet = [0u16].iter().map(|&i| CoreId::new(i)).collect();
        let second: CoreSet = [2u16].iter().map(|&i| CoreId::new(i)).collect();
        assert!(sys.kernel.pin_process(pid, first).is_some());
        sys.kernel.chip.set_fault_plan(Some(FaultPlan::new(
            3,
            FaultRates {
                migration: 1.0,
                ..FaultRates::ZERO
            },
        )));
        // The migration hangs: the stall end sits far in the future and
        // the driver view surfaces it.
        assert!(sys.kernel.pin_process(pid, second).is_some());
        let stall = sys.kernel.process(pid).unwrap().stalled_until;
        assert!(stall.saturating_since(sys.now()) > SimDuration::from_secs(1_000));
        let view = sys.kernel.view();
        assert_eq!(view.process(pid).and_then(|p| p.stalled_until), Some(stall));
        assert_eq!(sys.chip().fault_stats().migration_hangs, 1);
        // Re-pinning the same cores (the watchdog's rescue) restarts the
        // migration with the normal pause.
        assert!(sys.kernel.pin_process(pid, second).is_some());
        let rescued = sys.kernel.process(pid).unwrap().stalled_until;
        assert!(rescued.saturating_since(sys.now()) <= sys.config.migration_pause);
    }

    #[test]
    fn initial_placement_never_hangs() {
        use avfs_chip::fault::{FaultPlan, FaultRates};
        let mut sys = xgene2_system();
        sys.kernel.chip.set_fault_plan(Some(FaultPlan::new(
            3,
            FaultRates {
                migration: 1.0,
                ..FaultRates::ZERO
            },
        )));
        // Kernel admission pins a waiting process; at 100% migration
        // fault rate the run must still complete (placement is not a
        // migration).
        let m = sys.run(&tiny_trace(), &mut DefaultPolicy::ondemand());
        assert_eq!(m.completed.len(), 1);
        assert_eq!(sys.chip().fault_stats().migration_hangs, 0);
    }

    #[test]
    fn armed_zero_rate_plan_is_bit_identical_to_no_plan() {
        use avfs_chip::fault::FaultPlan;
        let trace = small_trace(11);
        let plain = xgene2_system().run(&trace, &mut DefaultPolicy::ondemand());
        let mut armed_sys = xgene2_system();
        armed_sys
            .kernel
            .chip
            .set_fault_plan(Some(FaultPlan::uniform(99, 0.0)));
        let armed = armed_sys.run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(plain.energy_j.to_bits(), armed.energy_j.to_bits());
        assert_eq!(plain.makespan, armed.makespan);
        assert_eq!(plain.completed.len(), armed.completed.len());
    }

    #[test]
    #[should_panic(expected = "fresh system")]
    fn run_requires_fresh_system() {
        let mut sys = xgene2_system();
        sys.submit(Benchmark::SpecNamd, 1, 0.1);
        let trace = small_trace(1);
        let _ = sys.run(&trace, &mut DefaultPolicy::ondemand());
    }
}
