//! Parametric multicore chip model for the AVFS reproduction.
//!
//! This crate is the hardware substrate standing in for the two real ARMv8
//! micro-servers of the paper — AppliedMicro X-Gene 2 (8 cores, 28 nm) and
//! X-Gene 3 (32 cores, 16 nm FinFET). It models exactly the knobs and
//! observables the paper's daemon uses:
//!
//! * **Topology** ([`topology`]): cores grouped in PMDs (Processor
//!   MoDules — core pairs sharing an L2 and a clock domain), one PCP power
//!   domain with a single voltage rail.
//! * **Frequency control** ([`freq`]): per-PMD frequency in 1/8 steps of
//!   fmax, with the clock-skipping / clock-division semantics and the
//!   per-chip CPPC quirks described in §II-B of the paper.
//! * **Voltage control** ([`slimpro`]): a SLIMpro-style management
//!   interface that regulates the rail.
//! * **Safe-Vmin surface** ([`vmin`]): the empirical model of the minimum
//!   safe operating voltage as a function of frequency class, voltage-droop
//!   class (utilized PMDs, Table II), per-PMD static variation, and a small
//!   workload-dependent delta.
//! * **Voltage droops** ([`droop`]): a stochastic droop-event generator
//!   reproducing the magnitude-class structure of Figure 6.
//! * **Failures** ([`failure`]): the probabilistic outcome model for
//!   operation below the safe Vmin (Figures 4 and 5).
//! * **Power** ([`power`]): the PCP-domain power model used for all energy
//!   numbers (Figures 7, 11, 14; Tables III/IV).
//! * **PMU** ([`pmu`]): standalone per-core cycle / instruction /
//!   L3-access counters and the droop-band registers. The [`Chip`] holds
//!   none: the simulator keeps the daemon's two counters (cycles and L3
//!   accesses) per process, and Figure 6 samples [`droop`] directly.
//!
//! # Example
//!
//! ```
//! use avfs_chip::presets;
//! use avfs_chip::freq::FreqStep;
//! use avfs_chip::topology::PmdId;
//!
//! let mut chip = presets::xgene3().build();
//! // All PMDs default to fmax at the nominal voltage.
//! assert_eq!(chip.voltage().as_mv(), 870);
//! chip.set_pmd_freq_step(PmdId::new(0), FreqStep::HALF)?;
//! # Ok::<(), avfs_chip::ChipError>(())
//! ```

pub mod chip;
pub mod droop;
pub mod error;
pub mod failure;
pub mod fault;
pub mod freq;
pub mod pmu;
pub mod power;
pub mod presets;
pub mod slimpro;
pub mod topology;
pub mod vmin;
pub mod voltage;

pub use chip::Chip;
pub use error::ChipError;
pub use fault::{FaultPlan, FaultRates, FaultStats};
pub use freq::{FreqStep, FreqVminClass, FrequencyMhz};
pub use topology::{ChipSpec, CoreId, CoreSet, PmdId};
pub use vmin::{DroopClass, VminModel};
pub use voltage::Millivolts;
