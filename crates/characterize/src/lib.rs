//! Vmin characterization campaigns: measured margin maps compiled into
//! proven-safe policy tables.
//!
//! The paper's daemon drives voltage from a characterized table
//! (Table II). The rest of the workspace *models* that characterization
//! by reading the chip's Vmin surface directly
//! ([`avfs_core::policy::PolicyTable::from_characterization`]); this
//! crate closes the loop by actually **performing** it, the way the
//! authors did on real X-Gene silicon: seeded stress patterns per
//! (frequency class, droop class, thread bucket) cell, a voltage search
//! against observed pass/fail outcomes only, and enough repeated
//! confirmation passes that a certified level is trustworthy.
//!
//! * [`campaign`] — the measurement engine. [`Campaign`] ranks PMDs by
//!   measured single-PMD Vmin, then binary-searches each cell's safe
//!   level downward against the chip's sampled crash behaviour, through
//!   regulator noise, droop excursions, PMU glitches, and mailbox
//!   faults. Deterministic in its seed, bit for bit.
//! * [`margin`] — [`MarginMap`], the campaign's product: the measured
//!   safe level and probe bookkeeping of every cell, equal across
//!   same-seed campaigns.
//! * [`compiler`] — [`TableCompiler`] turns a map plus a
//!   [`GuardbandPolicy`] into a validated
//!   [`avfs_core::policy::PolicyTable`], and
//!   [`compiler::preset_conservative`] builds the unmeasured-part foil
//!   the experiments compare against.
//!
//! # Example
//!
//! ```
//! use avfs_characterize::{Campaign, CampaignConfig, TableCompiler};
//! use avfs_chip::presets;
//!
//! let mut chip = presets::xgene2().build();
//! let map = Campaign::new(CampaignConfig::new(7)).run(&mut chip).unwrap();
//! let table = TableCompiler::default().compile(&map).unwrap();
//! // The compiled table is usable anywhere a characterized one is.
//! let daemon = avfs_core::Daemon::optimal(&chip).with_table(table);
//! # let _ = daemon;
//! ```

pub mod campaign;
pub mod compiler;
pub mod margin;

pub use campaign::{Campaign, CampaignConfig, CampaignError};
pub use compiler::{preset_conservative, CompileError, GuardbandPolicy, TableCompiler};
pub use margin::{MarginCell, MarginMap};
