//! Deterministic discrete-event simulation kernel for the AVFS reproduction.
//!
//! This crate provides the time base, random-number streams, time series
//! and the time-weighted power accumulator shared by every other crate in the
//! workspace. The whole reproduction is a *simulation* of two ARMv8
//! micro-servers (see the workspace `DESIGN.md`), so determinism is a hard
//! requirement: every stochastic model draws from a [`rng::RngStream`]
//! derived from a root seed, and two runs with the same seed produce
//! bit-identical results.
//!
//! # Quick tour
//!
//! ```
//! use avfs_sim::time::SimTime;
//! use avfs_sim::rng::RngStream;
//!
//! // Virtual time.
//! let t = SimTime::from_millis(500);
//! assert_eq!(t.as_micros(), 500_000);
//!
//! // Deterministic random streams.
//! let mut rng = RngStream::from_root(42, "droop-model");
//! let a = rng.next_f64();
//! let mut rng2 = RngStream::from_root(42, "droop-model");
//! assert_eq!(a, rng2.next_f64());
//! ```

pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use rng::RngStream;
pub use series::TimeSeries;
pub use stats::TimeWeighted;
pub use time::{SimDuration, SimTime};
