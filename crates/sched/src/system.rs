//! The full-system simulator.
//!
//! [`System`] binds a [`Chip`], the analytic performance model, and a
//! process table into a deterministic discrete-event simulation. Every
//! rate is constant between change points, so each run integral is its
//! value at the last change point plus rate × elapsed time:
//!
//! * process progress accrues at `1 / T(config)` per second, where `T` is
//!   the analytic execution time under the current frequency, contention,
//!   and clustering conditions;
//! * energy is PCP power, evaluated once per change point from the
//!   per-PMD loads, times elapsed time; unsafe time accrues the same way,
//!   and sub-Vmin failures are drawn once per unsafe interval;
//! * each process counts core cycles (integer MHz × ns) and L3 accesses
//!   into its open monitoring window, the two counters the daemon's
//!   monitoring windows read (§VI-A).
//!
//! A change point is anything that can move a rate or what a driver
//! sees: an arrival, exit, admission, pin, V/F or governor write, class
//! flip, phase boundary or stall edge. Monitor boundaries and trace
//! samples only read state, so neither a sample nor a
//! [`System::step_until`] horizon can move a result.
//!
//! Trace samples are not loop iterations. The loop records every sample
//! due strictly inside a step straight from the regime in force; a
//! sample due exactly at a step's end waits for that instant, where it
//! is taken after the instant's arrivals, completions and monitor
//! boundary.
//!
//! A monitor boundary is delivered — windows closed, the driver consulted
//! with [`SysEvent::MonitorTick`] — only when it can change something:
//! it is one of the first two after a change point, a fault plan is
//! armed, or a process is stalled. Past the second boundary every window
//! lies inside one regime and reads the rate its predecessor read, which
//! cannot flip a class, so the loop advances the window grid past such a
//! boundary without visiting it.
//!
//! Droop events are not simulated: nothing on the control loop
//! reads them. Figure 6 samples the chip's droop model on its own stream.
//!
//! Events: job arrivals (from a [`WorkloadTrace`]), process completions,
//! phase boundaries, stall ends and monitoring windows (classification).
//! On arrival / completion / class-change events the
//! [`Kernel`] consults the configured [`Driver`] and applies its
//! [`Action`](crate::driver::Action)s — including the paper's fail-safe
//! ordering, because actions apply in order within one event.

use crate::driver::{Driver, SysEvent};
use crate::kernel::{Entry, Kernel};
use crate::metrics::{ProcessRecord, RunMetrics};
use crate::process::{Pid, Process};
use avfs_chip::chip::Chip;
use avfs_chip::power::{PmdLoad, PowerInputs};
use avfs_chip::topology::CoreSet;
use avfs_sim::time::{cycles_in, SimDuration, SimTime};
use avfs_sim::RngStream;
use avfs_telemetry::{Telemetry, TraceKind, Value};
use avfs_workloads::catalog::BenchProfile;
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

/// One running process's rates over the current regime.
#[derive(Debug, Clone, Copy)]
struct Rates {
    pid: Pid,
    /// Progress per second; zero while stalled.
    progress: f64,
    /// The slowest assigned core's clock, MHz.
    freq: u32,
    /// Threads, each counting cycles at `freq`.
    threads: u64,
    /// Observed L3 accesses per 1M cycles.
    l3c_per_mcycle: f64,
}

/// The rates in force since the last change point. The run integrals
/// accrue from `since` at these rates until the next change point
/// settles them. The default is an invalid regime with no rates.
#[derive(Debug, Default)]
struct Regime {
    /// False until computed, and again once its edge fired.
    valid: bool,
    /// The last change point.
    since: SimTime,
    /// The kernel epoch it was computed under.
    kernel_epoch: u64,
    /// The chip state epoch it was computed under.
    chip_epoch: u64,
    /// The droop alert it was computed under.
    droop_alert: bool,
    /// The busy cores it was computed for.
    busy: CoreSet,
    /// Chip power, watts.
    watts: f64,
    /// True when the rail sits below the allocation's safe Vmin. With
    /// `p_per_run` it depends only on `busy`, the chip state and the
    /// droop alert, so the next regime reuses both while those hold.
    unsafe_active: bool,
    /// Sub-Vmin failure probability per unit run (0 unless unsafe and
    /// failure injection is on).
    p_per_run: f64,
    /// True while some running process is stalled.
    stalled: bool,
    /// What a trace sample reads of the process table: the running
    /// processes' threads, and how many of them are memory-intensive
    /// and how many not (an unclassified process counts as CPU-bound).
    running_threads: usize,
    cpu: u32,
    mem: u32,
    /// The regime's predicted end: the earliest completion, phase
    /// boundary or stall end.
    edge: SimTime,
    /// Per running process, pid-sorted.
    rates: Vec<Rates>,
}

/// Reusable hot-path buffers, cleared and refilled per event instead of
/// re-allocated. Pure caches of capacity — nothing in here survives an
/// event observably. The change point's own buffers live in the
/// [`Kernel`].
#[derive(Debug, Default)]
struct Scratch {
    /// Per running process, pid-sorted: what the regime sweep derives
    /// once and its second pass reads.
    swept: Vec<Swept>,
    /// Core index → memory fraction of the running process on it, for
    /// L2-partner lookups.
    core_mem: Vec<Option<f64>>,
    /// Per-PMD clock, MHz.
    pmd_mhz: Vec<u32>,
    /// Pids finishing at the current instant.
    finished: Vec<Pid>,
    /// Per-PMD load accumulator for power evaluation.
    loads: Vec<PmdLoad>,
    /// Per-PMD activity accumulator for power evaluation.
    act_sum: Vec<f64>,
    /// Class changes from the monitoring window being closed.
    class_changes: Vec<(Pid, IntensityClass)>,
}

/// One running process as the regime sweep found it.
#[derive(Debug, Clone, Copy)]
struct Swept {
    /// Its row in the process table.
    slot: usize,
    /// Its phase profile at the current progress.
    profile: BenchProfile,
    /// The memory pressure its threads exert at their current clock.
    pressure: f64,
}

/// Pairs each of a regime's rates with its row of the process table.
/// Both are pid-sorted, so one forward walk finds every row; a process
/// that left the table since the regime was computed is skipped.
fn rows<'a>(
    procs: &'a mut [Entry],
    rates: &'a [Rates],
) -> impl Iterator<Item = (&'a Rates, &'a mut Entry)> {
    let mut procs = procs.iter_mut().peekable();
    rates.iter().filter_map(move |r| {
        while procs.next_if(|e| e.process.pid < r.pid).is_some() {}
        procs.next_if(|e| e.process.pid == r.pid).map(|e| (r, e))
    })
}

/// The full-system simulator.
#[derive(Debug)]
pub struct System {
    /// The chip, process table, run queue and governor, and the change
    /// point that drives them.
    kernel: Kernel,
    perf: PerfModel,
    config: SystemConfig,
    /// Energy, unsafe time and failures, settled up to `regime.since`.
    energy_j: f64,
    failure_rng: RngStream,
    unsafe_time_s: f64,
    failures: u64,
    regime: Regime,
    /// The open monitoring windows hold every cycle and L3 access up to
    /// this instant.
    window_settled: SimTime,
    scratch: Scratch,
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
    /// Monitor boundaries since the last change point, saturating at 2.
    quiet: u8,
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
    /// allocation gate and the benchmark measure against. The loop stops
    /// at change points, delivered monitor boundaries and step ends;
    /// trace samples between them are not iterations.
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
            regime: Regime::default(),
            window_settled: SimTime::ZERO,
            scratch: Scratch::default(),
        }
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

    /// Whether any process is live; stops at the first live row instead
    /// of counting the table.
    fn has_live(&self) -> bool {
        self.kernel.live().next().is_some()
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
    /// Panics if called on a system that already has live processes, or
    /// configured with a zero sample interval.
    pub fn begin_run(&mut self, driver: &mut dyn Driver) -> RunState {
        assert!(
            !self.has_live(),
            "begin_run() requires a fresh system; use a new System per run"
        );
        assert!(
            !self.config.sample_interval.is_zero(),
            "the sample interval must be positive"
        );
        let now = self.now();
        let st = RunState {
            metrics: RunMetrics::default(),
            next_monitor: now + self.config.monitor_interval,
            next_sample: now,
            last_finish: now,
            iterations: 0,
            quiet: 0,
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
    /// internal event (completions, phase boundaries, monitor windows,
    /// samples, stall ends) due strictly *before* it. Events due exactly
    /// at `horizon` are left pending and fire at the start of the next
    /// stepping call — after any [`Self::inject_arrival`] at `horizon` —
    /// which preserves the arrivals-before-completions ordering of
    /// [`Self::run`] and gives epoch-driven coordinators a deterministic
    /// injection point. Where horizons fall never moves a result.
    pub fn step_until(&mut self, st: &mut RunState, driver: &mut dyn Driver, horizon: SimTime) {
        while self.now() < horizon {
            self.bump_iterations(st);
            self.process_due(st, driver);
            self.advance(st, horizon);
        }
    }

    /// Drains the system: processes events until no live process remains.
    /// The counterpart of [`Self::step_until`] once all arrivals are in.
    pub fn run_to_completion(&mut self, st: &mut RunState, driver: &mut dyn Driver) {
        while self.has_live() {
            self.bump_iterations(st);
            self.process_due(st, driver);
            if !self.has_live() {
                return;
            }
            self.advance(st, SimTime::MAX);
        }
    }

    /// Finalizes an incremental run and returns its metrics.
    pub fn finish_run(&mut self, st: RunState) -> RunMetrics {
        self.settle();
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

        // A predicted completion, phase boundary or stall end is due:
        // settle, so progress reads its value at this instant.
        if now >= self.regime.edge {
            self.settle();
            self.regime.valid = false;
        }

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

        // Monitoring window, on its grid while work is live. A boundary
        // that fell due while nothing was live fires with the first work
        // to arrive, and the grid restarts there.
        if now >= st.next_monitor && self.has_live() {
            // A change point at this instant precedes the boundary.
            self.refresh(st);
            st.next_monitor = now + self.config.monitor_interval;
            let deliver = self.delivers_boundary(st);
            st.quiet = (st.quiet + 1).min(2);
            if deliver {
                self.deliver_boundary(driver);
            } else {
                self.restart_windows(now);
                self.kernel.telemetry.counter_inc("sched.monitor.elided");
            }
        }

        // A trace sample due at this instant reads it after its events.
        if now >= st.next_sample {
            st.next_sample = now + self.config.sample_interval;
            self.refresh(st);
            self.record_sample(&mut st.metrics, now);
        }
    }

    /// Closes every monitoring window at the current instant and consults
    /// the driver: the droop sensor first, then classification, the tick
    /// itself and any class flips, then the governor.
    fn deliver_boundary(&mut self, driver: &mut dyn Driver) {
        self.kernel.telemetry.counter_inc("sched.monitor.delivered");
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
                .dispatch(driver, &mut (), SysEvent::ClassChanged(pid));
        }
        self.scratch.class_changes = changes;
        self.kernel.apply_governor();
    }

    /// Whether the next monitor boundary can change anything: it is one
    /// of the first two after a change point, a fault plan is armed (its
    /// droop and PMU-glitch draws run per boundary), or a process is
    /// stalled (the watchdog's cue).
    fn delivers_boundary(&self, st: &RunState) -> bool {
        st.quiet < 2 || self.regime.stalled || self.chip().fault_plan().is_some()
    }

    /// Moves the clock to the next event before `horizon`: a completion,
    /// phase boundary or stall end, or a delivered monitor boundary.
    /// Boundaries the loop does not stop at are elided, and the trace
    /// samples due strictly before the stop are recorded from the current
    /// regime; one due at the stop is left to [`Self::process_due`].
    fn advance(&mut self, st: &mut RunState, horizon: SimTime) {
        self.refresh(st);
        let now = self.now();
        let live = self.has_live();
        let deliver = live && self.delivers_boundary(st);
        let mut next = horizon.min(self.regime.edge);
        if deliver {
            next = next.min(st.next_monitor);
        }
        assert!(next < SimTime::MAX, "simulation stuck with no next event");
        let next = next.max(now);
        if live && !deliver && st.next_monitor < next {
            // The grid advances exactly as delivered boundaries would
            // advance it, and the windows restart at the last boundary
            // passed.
            let interval = self.config.monitor_interval;
            let passed = (next - st.next_monitor)
                .as_nanos()
                .div_ceil(interval.as_nanos());
            let last = st.next_monitor + interval * (passed - 1);
            st.next_monitor = last + interval;
            self.restart_windows(last);
            self.kernel
                .telemetry
                .counter_add("sched.monitor.elided", passed);
        }
        while st.next_sample < next {
            self.record_sample(&mut st.metrics, st.next_sample);
            st.next_sample += self.config.sample_interval;
        }
        self.kernel.now = next;
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

    /// Makes the regime current. At a change point — its edge fired, or
    /// the kernel epoch, chip epoch or droop alert moved — settles the
    /// integrals at the old rates and computes the new ones.
    fn refresh(&mut self, st: &mut RunState) {
        let chip = self.chip();
        if self.regime.valid
            && self.regime.kernel_epoch == self.kernel.epoch
            && self.regime.chip_epoch == chip.state_epoch()
            && self.regime.droop_alert == chip.droop_excursion_active()
        {
            return;
        }
        self.settle();
        self.compute_regime();
        st.quiet = 0;
    }

    /// Settles energy, unsafe time, failures, progress and the open
    /// windows at the current instant, at the regime's rates.
    fn settle(&mut self) {
        let now = self.now();
        if now > self.regime.since {
            let dt = (now - self.regime.since).as_secs_f64();
            self.energy_j += self.regime.watts * dt;
            if self.regime.unsafe_active {
                self.unsafe_time_s += dt;
                if self.config.inject_failures {
                    // Treat each second below Vmin as one run opportunity.
                    self.failures += self.failure_rng.poisson(self.regime.p_per_run * dt);
                }
            }
            for (r, e) in rows(&mut self.kernel.procs, &self.regime.rates) {
                if r.progress <= 0.0 {
                    continue;
                }
                let p = &mut e.process;
                p.progress = (p.progress + r.progress * dt).min(1.0);
                // Snap to done, or onto the phase boundary, when the
                // residue is below the clock's nanosecond resolution —
                // prevents a zero-length event livelock from
                // floating-point rounding.
                let snap = r.progress * 2e-9;
                if p.remaining() <= snap {
                    p.progress = 1.0;
                } else if let Some(end) = phases::phase_end(p.bench, p.progress) {
                    if end - p.progress <= snap {
                        p.progress = end;
                    }
                }
            }
            self.regime.since = now;
        }
        self.accrue_windows();
    }

    /// Counts cycles and L3 accesses into the open windows up to the
    /// current instant. Counters run whenever cores are clocked, stalled
    /// or not.
    fn accrue_windows(&mut self) {
        let now = self.now();
        if now <= self.window_settled {
            return;
        }
        let piece = now - self.window_settled;
        for (r, e) in rows(&mut self.kernel.procs, &self.regime.rates) {
            let cycles = cycles_in(piece, r.freq) * r.threads;
            e.monitor.window_cycles += cycles;
            e.monitor.window_l3 += (cycles as f64 / 1e6 * r.l3c_per_mcycle) as u64;
        }
        self.window_settled = now;
    }

    /// Discards the open windows' counts; they restart at `at`.
    fn restart_windows(&mut self, at: SimTime) {
        for e in &mut self.kernel.procs {
            e.monitor.window_cycles = 0;
            e.monitor.window_l3 = 0;
        }
        self.window_settled = at;
    }

    /// Computes the regime starting at the current instant: each running
    /// process's rates, chip power and safety, and the predicted edge.
    ///
    /// One sweep over the process table derives each running process's
    /// phase profile and memory pressure once; a second pass over what it
    /// found computes the rates, the per-PMD loads and the edge. The
    /// floating-point order is fixed: pressure sums in pid order, PMD
    /// activity accumulates in pid × core order, and on a rate tie the
    /// first slowest core in mask order sets the memory multiplier.
    fn compute_regime(&mut self) {
        let mut rates = std::mem::take(&mut self.regime.rates);
        let mut swept = std::mem::take(&mut self.scratch.swept);
        let mut core_mem = std::mem::take(&mut self.scratch.core_mem);
        let mut pmd_mhz = std::mem::take(&mut self.scratch.pmd_mhz);
        let mut loads = std::mem::take(&mut self.scratch.loads);
        let mut act_sum = std::mem::take(&mut self.scratch.act_sum);
        let (chip, perf, now) = (self.chip(), &self.perf, self.now());
        let spec = chip.spec();
        let fmax = f64::from(spec.fmax_mhz);
        pmd_mhz.clear();
        pmd_mhz.extend(
            spec.all_pmds()
                .map(|pmd| chip.pmd_frequency(pmd).expect("valid pmd").as_mhz()),
        );

        // The sweep. Pressure reads the clock of a process's first core.
        swept.clear();
        core_mem.clear();
        core_mem.resize(usize::from(spec.cores), None);
        let mut busy = CoreSet::EMPTY;
        let (mut running_threads, mut cpu, mut mem) = (0, 0, 0);
        for (slot, e) in self.kernel.procs.iter().enumerate() {
            let p = &e.process;
            if !p.is_running() {
                continue;
            }
            running_threads += p.threads;
            match e.monitor.classifier.current() {
                Some(IntensityClass::MemoryIntensive) => mem += 1,
                Some(IntensityClass::CpuIntensive) | None => cpu += 1,
            }
            let profile = phases::effective_profile(p.bench, p.progress);
            let freq = p
                .assigned
                .first()
                .map_or(fmax, |c| f64::from(pmd_mhz[spec.pmd_of(c).index()]));
            for c in p.assigned.iter() {
                core_mem[c.index()] = Some(profile.mem_fraction);
            }
            busy = busy.union(p.assigned);
            swept.push(Swept {
                slot,
                profile,
                pressure: perf.pressure_at(&profile, (freq / fmax).clamp(1e-6, 1.0))
                    * p.threads as f64,
            });
        }
        // One pressure evaluation feeds both the contention multiplier
        // and the memory-traffic term.
        let pressure: f64 = swept.iter().map(|s| s.pressure).sum();
        let base_mult = perf.mem_contention_mult(pressure);

        rates.clear();
        loads.clear();
        loads.resize(usize::from(spec.pmds()), PmdLoad::IDLE);
        act_sum.clear();
        act_sum.resize(usize::from(spec.pmds()), 0.0);
        let (mut edge, mut stalled) = (SimTime::MAX, false);
        for s in &swept {
            let p = &self.kernel.procs[s.slot].process;
            if p.assigned.is_empty() {
                continue;
            }
            // The slowest core sets the pace; its L2 partner is the other
            // busy core of its PMD, if any.
            let (mut worst_rate, mut worst_mult, mut min_freq) =
                (f64::INFINITY, base_mult, u32::MAX);
            for core in p.assigned.iter() {
                let pmd = spec.pmd_of(core);
                let freq = pmd_mhz[pmd.index()];
                let partner_mem = spec
                    .cores_of(pmd)
                    .iter()
                    .filter(|&c| c != core)
                    .find_map(|c| core_mem[c.index()]);
                let mult = base_mult * perf.l2_share_mult(partner_mem);
                let rate = perf.progress_rate(&p.work, freq, mult);
                if rate < worst_rate {
                    worst_rate = rate;
                    worst_mult = mult;
                }
                min_freq = min_freq.min(freq);
            }
            let act = perf.effective_activity(&s.profile, &p.work, min_freq.max(1), worst_mult);
            for core in p.assigned.iter() {
                let pmd = spec.pmd_of(core).index();
                loads[pmd].active_cores += 1;
                act_sum[pmd] += act;
            }
            let progress = if p.stalled_until > now {
                // Resumes later; its completion is predicted then.
                stalled = true;
                edge = edge.min(p.stalled_until);
                0.0
            } else {
                worst_rate
            };
            if progress > 0.0 {
                // The next phase boundary, else completion; at least 1 ns
                // in the future so the event loop always advances.
                let end = phases::phase_end(p.bench, p.progress).unwrap_or(1.0);
                let dt = ((end - p.progress) / progress).max(1e-9);
                edge = edge.min(now + SimDuration::from_secs_f64(dt));
            }
            rates.push(Rates {
                pid: p.pid,
                progress,
                freq: min_freq,
                threads: p.threads as u64,
                l3c_per_mcycle: perf.observed_l3c_rate(&s.profile, worst_mult),
            });
        }
        for (load, (&mhz, &act)) in loads.iter_mut().zip(pmd_mhz.iter().zip(&act_sum)) {
            if load.active_cores > 0 {
                load.freq_mhz = mhz;
                load.activity = act / f64::from(load.active_cores);
            }
        }
        let inputs = PowerInputs {
            voltage: chip.voltage(),
            pmd_loads: loads,
            mem_traffic: (pressure / perf.mem_capacity).min(1.0),
        };
        let watts = chip.evaluate_power_w(&inputs);

        let (chip_epoch, droop_alert) = (chip.state_epoch(), chip.droop_excursion_active());
        let prev = &self.regime;
        let (unsafe_active, p_per_run) =
            if (prev.busy, prev.chip_epoch, prev.droop_alert) == (busy, chip_epoch, droop_alert) {
                (prev.unsafe_active, prev.p_per_run)
            } else {
                self.safety(busy)
            };

        self.scratch.swept = swept;
        self.scratch.core_mem = core_mem;
        self.scratch.pmd_mhz = pmd_mhz;
        self.scratch.loads = inputs.pmd_loads;
        self.scratch.act_sum = act_sum;
        self.regime = Regime {
            valid: true,
            since: now,
            kernel_epoch: self.kernel.epoch,
            chip_epoch,
            droop_alert,
            busy,
            watts,
            unsafe_active,
            p_per_run,
            stalled,
            running_threads,
            cpu,
            mem,
            edge,
            rates,
        };
    }

    /// Whether the rail sits below the safe Vmin of `busy`, and if so the
    /// sub-Vmin failure probability per unit run (0 unless failure
    /// injection is on).
    fn safety(&self, busy: CoreSet) -> (bool, f64) {
        let chip = self.chip();
        if busy.is_empty() || chip.is_voltage_safe_for(busy) {
            return (false, 0.0);
        }
        if !self.config.inject_failures {
            return (true, 0.0);
        }
        let safe = chip.current_safe_vmin(busy);
        let utilized = busy.utilized_pmds(chip.spec()).len();
        let class = chip.vmin_model().droop_class(utilized);
        (
            true,
            chip.failure_model().pfail(chip.voltage(), safe, class),
        )
    }

    /// Closes every running process's monitoring window at the current
    /// instant; processes whose class flipped are left in
    /// `scratch.class_changes` for the caller to dispatch.
    fn close_monitor_windows(&mut self) {
        self.accrue_windows();
        let mut changes = std::mem::take(&mut self.scratch.class_changes);
        changes.clear();
        for e in &mut self.kernel.procs {
            let (p, mon) = (&e.process, &mut e.monitor);
            let (cycles, l3) = (mon.window_cycles, mon.window_l3);
            mon.window_cycles = 0;
            mon.window_l3 = 0;
            if !p.is_running() || cycles < 100_000 {
                continue; // nothing ran, or too small to classify
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
        self.kernel.epoch += changes.len() as u64;
        self.scratch.class_changes = changes;
    }

    /// Records one trace sample (Figures 14/15) of the current regime,
    /// stamped `now`.
    fn record_sample(&self, metrics: &mut RunMetrics, now: SimTime) {
        let Regime {
            watts,
            running_threads,
            cpu,
            mem,
            ..
        } = self.regime;
        metrics.power_trace.push(now, watts);
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
    use crate::kernel::FAULT_FEEDBACK_ROUNDS;
    use avfs_chip::droop::DroopCounts;
    use avfs_chip::presets;
    use avfs_chip::topology::{CoreId, PmdId};
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
                .droop_class(busy.utilized_pmds(chip.spec()).len())
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
