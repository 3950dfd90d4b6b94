//! Deterministic fault injection over the chip model.
//!
//! Real silicon near the safe Vmin misbehaves in ways the paper's daemon
//! must survive: the SLIMpro mailbox can refuse or stall requests, PMU
//! counters can glitch or saturate, transient voltage droops can raise
//! the effective Vmin past the characterized table, and a core can hang
//! mid-migration (§III-B). [`FaultPlan`] injects all of these
//! deterministically from a seed so every failure a resilience run
//! provokes is replayable bit-for-bit.
//!
//! The plan draws from its **own** [`RngStream`] (label `"fault-plan"`),
//! never from the simulator's failure stream, so arming a plan —
//! even one whose rates are all zero — cannot perturb an existing run.
//! A chip without a plan ([`crate::chip::Chip::set_fault_plan`] never
//! called) behaves exactly as before this layer existed.

use crate::voltage::Millivolts;
use avfs_sim::RngStream;

/// Per-operation fault probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a mailbox request is refused, dropped, or delayed.
    pub mailbox: f64,
    /// Probability a closing monitor window reads glitched counters.
    pub pmu: f64,
    /// Probability a daemon-driven migration hangs mid-flight.
    pub migration: f64,
    /// Probability a droop check opens a transient excursion that raises
    /// the effective Vmin.
    pub droop: f64,
}

impl FaultRates {
    /// No faults at all.
    pub const ZERO: FaultRates = FaultRates {
        mailbox: 0.0,
        pmu: 0.0,
        migration: 0.0,
        droop: 0.0,
    };

    /// The same rate for every fault category.
    pub fn uniform(rate: f64) -> Self {
        let r = rate.clamp(0.0, 1.0);
        FaultRates {
            mailbox: r,
            pmu: r,
            migration: r,
            droop: r,
        }
    }
}

/// How an injected mailbox fault manifests to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MailboxFault {
    /// The management processor refuses the request; state is unchanged.
    Refuse,
    /// The request is lost in flight; state is unchanged and no response
    /// arrives.
    Drop,
    /// The request lands, but the response times out — the caller cannot
    /// distinguish this from a drop and must retry idempotently.
    LatencySpike,
}

/// Counters of everything a plan has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Mailbox requests refused outright.
    pub mailbox_refusals: u64,
    /// Mailbox requests dropped in flight.
    pub mailbox_drops: u64,
    /// Mailbox requests applied but whose response timed out.
    pub latency_spikes: u64,
    /// Monitor windows that read glitched or saturated counters.
    pub pmu_glitches: u64,
    /// Migrations that hung mid-flight.
    pub migration_hangs: u64,
    /// Droop excursions opened.
    pub droop_excursions: u64,
}

impl FaultStats {
    /// Total injected faults across all categories.
    pub fn total(&self) -> u64 {
        self.mailbox_refusals
            + self.mailbox_drops
            + self.latency_spikes
            + self.pmu_glitches
            + self.migration_hangs
            + self.droop_excursions
    }

    /// Mailbox faults only (the category the daemon's retry loop sees).
    pub fn mailbox_total(&self) -> u64 {
        self.mailbox_refusals + self.mailbox_drops + self.latency_spikes
    }
}

/// How many consecutive droop checks an excursion spans (two monitor
/// ticks ≈ 800 ms, the order of a thermal/load transient).
const EXCURSION_LEN_CHECKS: u32 = 2;

/// How far an active excursion raises the effective safe Vmin, mV.
const EXCURSION_GUARD_MV: u32 = 20;

/// A seeded, deterministic fault-injection plan.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rates: FaultRates,
    rng: RngStream,
    stats: FaultStats,
    /// Remaining droop checks of the currently active excursion.
    excursion_checks_left: u32,
}

impl FaultPlan {
    /// Creates a plan with explicit per-category rates.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            rates,
            rng: RngStream::from_root(seed, "fault-plan"),
            stats: FaultStats::default(),
            excursion_checks_left: 0,
        }
    }

    /// Creates a plan with one rate for every category.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan::new(seed, FaultRates::uniform(rate))
    }

    /// The configured rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Everything injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Samples the fate of one mailbox request. Refusals and drops are
    /// twice as likely as latency spikes (refuse 40% / drop 40% /
    /// spike 20% of injected faults).
    pub fn sample_mailbox(&mut self) -> Option<MailboxFault> {
        if !self.rng.chance(self.rates.mailbox) {
            return None;
        }
        let kind = match self.rng.next_u64() % 5 {
            0 | 1 => MailboxFault::Refuse,
            2 | 3 => MailboxFault::Drop,
            _ => MailboxFault::LatencySpike,
        };
        match kind {
            MailboxFault::Refuse => self.stats.mailbox_refusals += 1,
            MailboxFault::Drop => self.stats.mailbox_drops += 1,
            MailboxFault::LatencySpike => self.stats.latency_spikes += 1,
        }
        Some(kind)
    }

    /// Samples whether a migration hangs mid-flight.
    pub fn sample_migration_hang(&mut self) -> bool {
        let hang = self.rng.chance(self.rates.migration);
        if hang {
            self.stats.migration_hangs += 1;
        }
        hang
    }

    /// Samples a PMU glitch for one closing monitor window. Returns the
    /// corrupted `(cycles, l3)` pair to report instead of the real one:
    /// either the L3 counter saturates (reads as if every cycle missed)
    /// or it drops out entirely.
    pub fn sample_pmu_glitch(&mut self, cycles: u64, _l3: u64) -> Option<(u64, u64)> {
        if !self.rng.chance(self.rates.pmu) {
            return None;
        }
        self.stats.pmu_glitches += 1;
        if self.rng.chance(0.5) {
            // Saturation: the L3 counter pins at an absurd rate.
            Some((cycles, cycles))
        } else {
            // Dropout: the counter reads zero for the whole window.
            Some((cycles, 0))
        }
    }

    /// Advances the droop-excursion state by one check (call once per
    /// monitor boundary, *before* the driver is consulted): an active
    /// excursion burns down; otherwise a new one may open.
    pub fn droop_check(&mut self) {
        if self.excursion_checks_left > 0 {
            self.excursion_checks_left -= 1;
        } else if self.rng.chance(self.rates.droop) {
            self.stats.droop_excursions += 1;
            self.excursion_checks_left = EXCURSION_LEN_CHECKS;
        }
    }

    /// True while a droop excursion is raising the effective Vmin.
    pub fn droop_excursion_active(&self) -> bool {
        self.excursion_checks_left > 0
    }

    /// How far an active excursion raises the effective safe Vmin.
    pub fn excursion_guard_mv(&self) -> u32 {
        EXCURSION_GUARD_MV
    }

    /// Applies the excursion guard to a base Vmin, capped at `nominal`
    /// (nominal voltage is safe by construction, excursion or not).
    pub fn effective_vmin(&self, base: Millivolts, nominal: Millivolts) -> Millivolts {
        if self.droop_excursion_active() {
            base.offset(EXCURSION_GUARD_MV as i32).min(nominal)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_never_fires() {
        let mut plan = FaultPlan::uniform(7, 0.0);
        for _ in 0..1000 {
            assert_eq!(plan.sample_mailbox(), None);
            assert!(!plan.sample_migration_hang());
            assert_eq!(plan.sample_pmu_glitch(1_000_000, 5), None);
            plan.droop_check();
            assert!(!plan.droop_excursion_active());
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn full_rate_plan_always_fires() {
        let mut plan = FaultPlan::uniform(7, 1.0);
        for _ in 0..100 {
            assert!(plan.sample_mailbox().is_some());
            assert!(plan.sample_migration_hang());
            assert!(plan.sample_pmu_glitch(1_000_000, 5).is_some());
        }
        assert_eq!(plan.stats().mailbox_total(), 100);
        assert_eq!(plan.stats().migration_hangs, 100);
        assert_eq!(plan.stats().pmu_glitches, 100);
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let run = |seed| {
            let mut plan = FaultPlan::uniform(seed, 0.3);
            let faults: Vec<Option<MailboxFault>> =
                (0..200).map(|_| plan.sample_mailbox()).collect();
            (faults, plan.stats())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn rates_land_near_target() {
        let mut plan = FaultPlan::uniform(3, 0.05);
        for _ in 0..10_000 {
            let _ = plan.sample_mailbox();
        }
        let hits = plan.stats().mailbox_total();
        assert!((300..=700).contains(&hits), "5% of 10k draws, got {hits}");
    }

    #[test]
    fn excursions_open_and_burn_down() {
        let mut plan = FaultPlan::new(
            5,
            FaultRates {
                droop: 1.0,
                ..FaultRates::ZERO
            },
        );
        assert!(!plan.droop_excursion_active());
        plan.droop_check();
        assert!(plan.droop_excursion_active());
        // Burns down over EXCURSION_LEN_CHECKS further checks.
        plan.droop_check();
        assert!(plan.droop_excursion_active());
        plan.droop_check();
        assert!(!plan.droop_excursion_active());
        assert_eq!(plan.stats().droop_excursions, 1);
    }

    #[test]
    fn effective_vmin_caps_at_nominal() {
        let mut plan = FaultPlan::new(
            5,
            FaultRates {
                droop: 1.0,
                ..FaultRates::ZERO
            },
        );
        let nominal = Millivolts::new(870);
        let base = Millivolts::new(840);
        assert_eq!(plan.effective_vmin(base, nominal), base);
        plan.droop_check();
        assert_eq!(plan.effective_vmin(base, nominal), Millivolts::new(860));
        // A base near nominal is capped, not pushed past it.
        assert_eq!(plan.effective_vmin(Millivolts::new(865), nominal), nominal);
    }

    #[test]
    fn mailbox_fault_mix_covers_all_kinds() {
        let mut plan = FaultPlan::uniform(9, 1.0);
        for _ in 0..500 {
            let _ = plan.sample_mailbox();
        }
        let s = plan.stats();
        assert!(s.mailbox_refusals > 0);
        assert!(s.mailbox_drops > 0);
        assert!(s.latency_spikes > 0);
        assert!(s.mailbox_refusals > s.latency_spikes);
    }
}
