//! Fleet nodes: one simulated machine each, with its own chip preset,
//! seed, driver, and telemetry hub.
//!
//! A `Node` wraps an [`avfs_sched::System`] plus the driver chosen by
//! its [`NodeConfig`] and the incremental [`RunState`] the fleet engine
//! advances epoch by epoch. Routing policies never see a `Node`
//! directly — they get the sanitized [`NodeView`] snapshot, which also
//! carries the node's precomputed energy descriptors (undervolt headroom
//! and reference per-job energy costs) so the energy-aware policy can
//! rank heterogeneous machines without touching simulator state.

use avfs_chip::chip::Chip;
use avfs_chip::freq::{FreqStep, FrequencyMhz};
use avfs_chip::power::{PmdLoad, PowerInputs};
use avfs_chip::presets;
use avfs_chip::topology::CoreSet;
use avfs_chip::voltage::Millivolts;
use avfs_core::configs::EvalConfig;
use avfs_core::daemon::{Daemon, DaemonStats};
use avfs_sched::driver::{DefaultPolicy, Driver};
use avfs_sched::metrics::RunMetrics;
use avfs_sched::system::{RunState, System, SystemConfig};
use avfs_sim::time::SimTime;
use avfs_telemetry::Telemetry;
use avfs_workloads::{Benchmark, PerfModel};
use std::fmt;

/// Identifies one node within a fleet. Assigned densely from zero in
/// configuration order; all cross-node merges happen in `NodeId` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index into the fleet's node vector.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The machine preset a node simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// X-Gene 2: 8 cores / 4 PMDs at 2.4 GHz, 28 nm bulk.
    XGene2,
    /// X-Gene 3: 32 cores / 16 PMDs at 3.0 GHz, 16 nm FinFET.
    XGene3,
}

impl NodeKind {
    /// Builds this preset's chip.
    pub fn build_chip(self) -> Chip {
        match self {
            NodeKind::XGene2 => presets::xgene2().build(),
            NodeKind::XGene3 => presets::xgene3().build(),
        }
    }

    /// The matching analytic performance model.
    pub fn perf_model(self) -> PerfModel {
        match self {
            NodeKind::XGene2 => PerfModel::xgene2(),
            NodeKind::XGene3 => PerfModel::xgene3(),
        }
    }

    /// Core count of the preset.
    pub fn cores(self) -> usize {
        match self {
            NodeKind::XGene2 => 8,
            NodeKind::XGene3 => 32,
        }
    }

    /// Short stable label.
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::XGene2 => "xgene2",
            NodeKind::XGene3 => "xgene3",
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Static per-kind energy descriptors used by the energy-aware router.
///
/// Both costs are for a reference single-thread job running alone with
/// the rail at the characterized safe Vmin (the operating point the
/// Optimal daemon converges to), so they capture exactly the per-node
/// heterogeneity the paper exploits: how far the rail can undervolt at
/// full clock (CPU-bound work) and how cheap the divided clock plus its
/// deeper Vmin is (memory-bound work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyDescriptor {
    /// Millivolts between nominal and the fully-loaded max-frequency
    /// safe Vmin: the undervolt headroom CPU-intensive jobs benefit from.
    pub undervolt_headroom_mv: u32,
    /// Estimated energy (J) of a reference CPU-bound job (namd) at fmax
    /// and the undervolted rail.
    pub cpu_job_cost_j: f64,
    /// Estimated energy (J) of a reference memory-bound job (milc) at
    /// the divided clock and its (deeper) safe Vmin.
    pub mem_job_cost_j: f64,
}

impl EnergyDescriptor {
    /// Characterizes a probe chip of the given kind. Deterministic: the
    /// probe is built from the preset builder with its default seeds.
    pub fn characterize(kind: NodeKind) -> Self {
        let mut probe = kind.build_chip();
        let perf = kind.perf_model();
        let spec = probe.spec().clone();
        let all_cores = CoreSet::first_n(spec.cores);
        let nominal = probe.nominal_voltage();

        // CPU-bound reference point: full clock, undervolted rail.
        let fmax = FrequencyMhz::new(spec.fmax_mhz);
        let v_cpu = probe.current_safe_vmin(all_cores);
        let cpu_profile = Benchmark::SpecNamd.profile();
        let t_cpu = perf.solo_time_s(&cpu_profile, fmax.as_mhz());
        let p_cpu = marginal_power_w(&probe, fmax, v_cpu, cpu_profile.activity, 0.05);

        // Memory-bound reference point: divided clock, divided-class Vmin.
        probe.set_all_freq_steps(FreqStep::MIN);
        let v_mem = probe.current_safe_vmin(all_cores);
        let f_div = FreqStep::MIN.frequency(fmax);
        let mem_profile = Benchmark::SpecMilc.profile();
        let t_mem = perf.solo_time_s(&mem_profile, f_div.as_mhz());
        let p_mem = marginal_power_w(&probe, f_div, v_mem, mem_profile.activity, 0.6);

        EnergyDescriptor {
            undervolt_headroom_mv: nominal.as_mv().saturating_sub(v_cpu.as_mv()),
            cpu_job_cost_j: p_cpu * t_cpu,
            mem_job_cost_j: p_mem * t_mem,
        }
    }
}

/// Marginal power of one busy core over the all-idle floor, at the given
/// clock and rail.
fn marginal_power_w(
    chip: &Chip,
    clock: FrequencyMhz,
    rail: Millivolts,
    activity: f64,
    mem_traffic: f64,
) -> f64 {
    let spec = chip.spec();
    let pmds = usize::from(spec.pmds());
    let mut loads: Vec<PmdLoad> = (0..pmds)
        .map(|_| PmdLoad {
            freq_mhz: clock.as_mhz(),
            active_cores: 0,
            activity: 0.0,
        })
        .collect();
    if let Some(first) = loads.first_mut() {
        first.active_cores = 1;
        first.activity = activity;
    }
    let inputs = PowerInputs {
        voltage: rail,
        pmd_loads: loads,
        mem_traffic,
    };
    let busy = chip.power_model().power_w(&inputs);
    let idle = chip.power_model().idle_power_w(rail, pmds);
    (busy - idle).max(0.0)
}

/// Configuration of one fleet node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Which machine preset to simulate.
    pub kind: NodeKind,
    /// Which evaluation configuration drives it (§VI-B).
    pub eval: EvalConfig,
    /// Root seed for the node's stochastic models.
    pub seed: u64,
    /// Bounded admission: maximum live (queued + running) jobs the front
    /// door may have outstanding on this node; beyond it, routing must
    /// pick another node or shed.
    pub admit_capacity: usize,
}

impl NodeConfig {
    /// A node of the given kind under the Optimal daemon, with a
    /// generous admission bound.
    pub fn new(kind: NodeKind, seed: u64) -> Self {
        NodeConfig {
            kind,
            eval: EvalConfig::Optimal,
            seed,
            admit_capacity: 64,
        }
    }
}

/// The driver owned by a node: either the stock governor policy or a
/// daemon, kept as the concrete type so recovery stats stay readable
/// after the run.
#[derive(Debug)]
pub(crate) enum NodeDriver {
    Baseline(DefaultPolicy),
    Daemon(Box<Daemon>),
}

impl NodeDriver {
    pub(crate) fn build(eval: EvalConfig, chip: &Chip, telemetry: &Telemetry) -> Self {
        let with = |mut d: Daemon| {
            d.set_telemetry(telemetry.clone());
            NodeDriver::Daemon(Box::new(d))
        };
        match eval {
            EvalConfig::Baseline => NodeDriver::Baseline(DefaultPolicy::ondemand()),
            EvalConfig::SafeVmin => with(Daemon::safe_vmin_only(chip)),
            EvalConfig::Placement => with(Daemon::placement_only(chip)),
            EvalConfig::Optimal => with(Daemon::optimal(chip)),
        }
    }

    pub(crate) fn as_dyn_mut(&mut self) -> &mut dyn Driver {
        match self {
            NodeDriver::Baseline(d) => d,
            NodeDriver::Daemon(d) => d.as_mut(),
        }
    }

    pub(crate) fn stats(&self) -> Option<DaemonStats> {
        match self {
            NodeDriver::Baseline(_) => None,
            NodeDriver::Daemon(d) => Some(d.stats()),
        }
    }
}

/// One live node: simulator, driver, run bookkeeping, and the front
/// door's admission accounting.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) id: NodeId,
    pub(crate) kind: NodeKind,
    pub(crate) capacity: usize,
    pub(crate) system: System,
    pub(crate) driver: NodeDriver,
    pub(crate) st: RunState,
    pub(crate) telemetry: Telemetry,
    pub(crate) descriptor: EnergyDescriptor,
    pub(crate) admitted: u64,
    pub(crate) cpu_jobs: u64,
    pub(crate) mem_jobs: u64,
}

impl Node {
    /// Builds and initializes a node (the driver observes its first
    /// monitor tick immediately, mirroring `System::run`).
    pub(crate) fn build(id: NodeId, cfg: &NodeConfig, telemetry: Telemetry) -> Node {
        let chip = cfg.kind.build_chip();
        let mut driver = NodeDriver::build(cfg.eval, &chip, &telemetry);
        let sys_cfg = SystemConfig {
            seed: cfg.seed,
            ..SystemConfig::default()
        };
        let mut system = System::builder(chip, cfg.kind.perf_model())
            .config(sys_cfg)
            .observer(telemetry.clone())
            .build();
        let st = system.begin_run(driver.as_dyn_mut());
        Node {
            id,
            kind: cfg.kind,
            capacity: cfg.admit_capacity,
            system,
            driver,
            st,
            telemetry,
            descriptor: EnergyDescriptor::characterize(cfg.kind),
            admitted: 0,
            cpu_jobs: 0,
            mem_jobs: 0,
        }
    }

    /// Advances the node's simulation to `horizon`.
    pub(crate) fn step_to(&mut self, horizon: SimTime) {
        self.system
            .step_until(&mut self.st, self.driver.as_dyn_mut(), horizon);
    }

    /// Drains the node after the last routing decision.
    pub(crate) fn drain(&mut self) {
        self.system
            .run_to_completion(&mut self.st, self.driver.as_dyn_mut());
    }

    /// The sanitized snapshot routing policies rank.
    pub(crate) fn view(&self) -> NodeView {
        NodeView {
            id: self.id,
            kind: self.kind,
            cores: self.kind.cores(),
            live_jobs: self.system.live_processes(),
            live_threads: self.system.live_threads(),
            admit_capacity: self.capacity,
            descriptor: self.descriptor,
        }
    }
}

/// What a routing policy sees of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// The node's identity (routing decisions name this).
    pub id: NodeId,
    /// Machine preset.
    pub kind: NodeKind,
    /// Core count.
    pub cores: usize,
    /// Live (queued + running) jobs.
    pub live_jobs: usize,
    /// Total threads across live jobs.
    pub live_threads: usize,
    /// Bounded-admission capacity, in jobs.
    pub admit_capacity: usize,
    /// Static energy descriptors (see [`EnergyDescriptor`]).
    pub descriptor: EnergyDescriptor,
}

impl NodeView {
    /// Whether the front door may admit one more job here.
    pub fn has_space(&self) -> bool {
        self.live_jobs < self.admit_capacity
    }

    /// Live threads per core — the congestion signal load-balancing
    /// policies minimize.
    pub fn load_ratio(&self) -> f64 {
        debug_assert!(self.cores > 0);
        to_f64(self.live_threads) / to_f64(self.cores.max(1))
    }

    /// Load ratio if a `threads`-wide job were admitted.
    pub fn projected_load(&self, threads: usize) -> f64 {
        to_f64(self.live_threads + threads) / to_f64(self.cores.max(1))
    }
}

/// Small-integer to f64 conversion (exact for every value we meet).
fn to_f64(n: usize) -> f64 {
    u32::try_from(n).map(f64::from).unwrap_or(f64::MAX)
}

/// Per-node slice of a [`crate::FleetSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// The node's identity.
    pub id: NodeId,
    /// Machine preset.
    pub kind: NodeKind,
    /// Core count.
    pub cores: usize,
    /// Jobs the front door admitted here.
    pub admitted: u64,
    /// Jobs that ran to completion here.
    pub completed: u64,
    /// Admitted jobs the front door classified CPU-intensive.
    pub cpu_jobs: u64,
    /// Admitted jobs the front door classified memory-intensive.
    pub mem_jobs: u64,
    /// The node's finalized run metrics.
    pub metrics: RunMetrics,
    /// Daemon recovery/decision counters (None for baseline nodes).
    pub daemon: Option<DaemonStats>,
}
