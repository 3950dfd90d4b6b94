//! Simulated OS substrate: processes, scheduling, cpufreq governors, and
//! the full-system simulator.
//!
//! This crate stands in for the Linux kernel pieces the paper's daemon
//! integrates with: the process list and affinity masks, process
//! migration, the per-PMD cpufreq subsystem with its `ondemand` governor,
//! and the kernel-module PMU sampling path. The [`system::System`]
//! simulator binds a [`avfs_chip::Chip`] and the analytic workload models
//! into a deterministic discrete-event simulation that replays a
//! [`avfs_workloads::WorkloadTrace`] under a pluggable placement
//! [`driver::Driver`] — the hook the paper's daemon (crate `avfs-core`)
//! plugs into. The kernel side of each change point (the driver's view,
//! action application, admission, the governor) is one unit,
//! [`kernel::Kernel`], which the simulator and the analyzer's model
//! checker both drive.
//!
//! # Example
//!
//! ```
//! use avfs_chip::presets;
//! use avfs_sched::driver::DefaultPolicy;
//! use avfs_sched::system::{System, SystemConfig};
//! use avfs_workloads::{GeneratorConfig, PerfModel, WorkloadTrace};
//! use avfs_sim::time::SimDuration;
//!
//! let mut cfg = GeneratorConfig::paper_default(8, 42);
//! cfg.duration = SimDuration::from_secs(120);
//! cfg.job_scale = 0.2;
//! let trace = WorkloadTrace::generate(&cfg);
//!
//! let chip = presets::xgene2().build();
//! let mut system = System::builder(chip, PerfModel::xgene2())
//!     .config(SystemConfig::default())
//!     .build();
//! let metrics = system.run(&trace, &mut DefaultPolicy::ondemand());
//! assert!(metrics.energy_j > 0.0);
//! ```

pub mod driver;
pub mod governor;
pub mod kernel;
pub mod metrics;
pub mod process;
pub mod system;

pub use driver::{Action, Driver, SysEvent, SystemView};
pub use governor::GovernorMode;
pub use metrics::RunMetrics;
pub use process::{Pid, Process, ProcessState};
pub use system::{RunState, System, SystemBuilder, SystemConfig};
