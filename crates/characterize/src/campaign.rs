//! The characterization campaign: measuring a chip's margin map.
//!
//! The campaign treats the chip's Vmin model as **hidden ground truth**:
//! it only ever sees what real silicon would show — a sampled
//! [`RunOutcome`] per stress probe, through a haze of regulator noise,
//! transient droop excursions, glitched PMU windows, and a mailbox that
//! sometimes refuses or drops requests. Everything is driven from one
//! seeded [`RngStream`] with per-cell substreams, so a campaign is
//! bit-replayable: same seed, same chip, same [`MarginMap`], byte for
//! byte.
//!
//! Per cell the search is *descend-then-confirm*: coarse single-probe
//! steps down from nominal until the first observed failure brackets the
//! unsafe region, then a 1 mV climb where each level must survive
//! [`CampaignConfig::confirm_passes`] consecutive clean probes before it
//! is accepted as the measured safe level. Any unusable observation — a
//! probe taken during a droop excursion, or one whose PMU window
//! glitched — is discarded and retaken; a bounded streak of glitches
//! conservatively counts as a failure rather than certifying blind.

use crate::margin::{MarginCell, MarginMap};
use avfs_chip::chip::{Chip, StressPattern};
use avfs_chip::error::ChipError;
use avfs_chip::failure::RunOutcome;
use avfs_chip::freq::FreqVminClass;
use avfs_chip::topology::PmdId;
use avfs_chip::vmin::{DroopClass, VminQuery};
use avfs_chip::voltage::Millivolts;
use avfs_core::PolicyTable;
use avfs_sim::RngStream;
use avfs_telemetry::{TraceKind, Value};
use std::fmt;

/// Tuning knobs of one characterization campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Root seed; every probe decision derives from it.
    pub seed: u64,
    /// Consecutive clean probes a level needs before it is accepted.
    pub confirm_passes: u32,
    /// Step of the coarse descent from nominal, mV.
    pub coarse_step_mv: u32,
    /// Worst-case regulator undershoot: each probe runs up to this far
    /// *below* the requested level (downward-only, so noise can only make
    /// the measurement pessimistic, never optimistic).
    pub noise_mv: u32,
    /// Retries per voltage request before the mailbox counts as down.
    pub mailbox_retries: u32,
    /// Droop checks to wait out an excursion before giving up.
    pub excursion_wait_checks: u32,
    /// Consecutive glitched PMU windows tolerated per observation before
    /// the probe conservatively counts as a failure.
    pub glitch_retries: u32,
}

impl CampaignConfig {
    /// Default knobs for a given seed. `confirm_passes` of 24 bounds the
    /// chance of certifying a level more than ~20 mV below the true safe
    /// Vmin (the compile-time guardband) below ~1e-4 per campaign.
    pub fn new(seed: u64) -> Self {
        CampaignConfig {
            seed,
            confirm_passes: 24,
            coarse_step_mv: 16,
            noise_mv: 3,
            mailbox_retries: 8,
            excursion_wait_checks: 64,
            glitch_retries: 16,
        }
    }
}

/// Why a campaign aborted. Aborts leave the rail restored to nominal
/// (best effort), so a daemon supervising the campaign can fall back to
/// safe mode without extra cleanup.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignError {
    /// A voltage request kept failing after all retries.
    MailboxUnavailable {
        /// The level being requested.
        level: Millivolts,
        /// Attempts spent before giving up.
        attempts: u32,
    },
    /// The rail refused a level as out of its regulated window — a
    /// campaign bug, since the search stays within `[floor, nominal]`.
    VoltageRejected {
        /// The rejected level.
        level: Millivolts,
    },
    /// A droop excursion refused to clear within the configured wait.
    ExcursionStuck {
        /// Droop checks waited before giving up.
        checks: u32,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::MailboxUnavailable { level, attempts } => {
                write!(
                    f,
                    "mailbox unavailable setting {level} after {attempts} attempts"
                )
            }
            CampaignError::VoltageRejected { level } => {
                write!(f, "rail rejected in-window level {level}")
            }
            CampaignError::ExcursionStuck { checks } => {
                write!(
                    f,
                    "droop excursion still active after {checks} waited checks"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// What one probe observation certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observation {
    /// The stress pattern completed correctly and the PMU window was
    /// clean.
    Pass,
    /// The run failed — or could not be certified (persistent glitches).
    Fail,
}

/// One cell's search result.
struct Measurement {
    measured_safe: Millivolts,
    highest_fail: Option<Millivolts>,
    probes: u64,
    discarded: u64,
}

/// Representative stressed thread count per policy-table bucket (the
/// worst case within the bucket, mirroring the table's characterization).
fn bucket_stress_threads(bucket: usize) -> usize {
    match bucket {
        0 => 1,
        1 => 2,
        2 => 3,
        _ => 5,
    }
}

/// A seeded characterization campaign over one chip.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// A campaign with the given knobs.
    pub fn new(config: CampaignConfig) -> Self {
        Campaign { config }
    }

    /// The campaign's knobs.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the full campaign: ranks the PMDs by measured single-PMD
    /// Vmin, then measures every achievable (frequency class, droop
    /// class, thread bucket) cell on the weakest PMDs of that cell's
    /// utilized count. The rail is left at nominal afterwards, including
    /// on abort (best effort — a dead mailbox cannot be forced).
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] when the chip stops cooperating; see
    /// the variants.
    pub fn run(&self, chip: &mut Chip) -> Result<MarginMap, CampaignError> {
        let result = self.run_inner(chip);
        // Best-effort restore: the campaign must never leave the rail at
        // a probe level, success or not.
        let nominal = chip.nominal_voltage();
        for _ in 0..=self.config.mailbox_retries {
            if chip.set_voltage(nominal).is_ok() {
                break;
            }
        }
        result
    }

    fn run_inner(&self, chip: &mut Chip) -> Result<MarginMap, CampaignError> {
        let telemetry = chip.telemetry().clone();
        let spec = chip.spec().clone();
        let pmds = spec.pmds() as usize;
        let root = RngStream::from_root(self.config.seed, "characterize");

        // Phase 1 — rank PMDs weakest-first by measured single-PMD Vmin.
        // The weakest-`u` prefix of this order is the worst-case stress
        // set for any `u`-PMD cell (the rail must satisfy its weakest
        // member, so only the maximum offset matters).
        let mut ranking: Vec<(u32, u16)> = Vec::with_capacity(pmds);
        for p in 0..spec.pmds() {
            let mut rng = root.substream(1_000 + u64::from(p));
            let q = VminQuery {
                freq_class: FreqVminClass::Max,
                utilized_pmds: 1,
                active_threads: 1,
                workload_sensitivity: 1.0,
            };
            let m = self.measure(chip, &q, &[PmdId::new(p)], &mut rng)?;
            ranking.push((m.measured_safe.as_mv(), p));
        }
        ranking.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let order: Vec<PmdId> = ranking.iter().map(|&(_, p)| PmdId::new(p)).collect();

        // Phase 2 — measure every achievable cell, in canonical order.
        let mut cells = Vec::new();
        let mut cell_idx = 0u64;
        for (freq_row, fc) in [
            FreqVminClass::Divided,
            FreqVminClass::Reduced,
            FreqVminClass::Max,
        ]
        .into_iter()
        .enumerate()
        {
            for dc in DroopClass::ALL {
                // The largest utilized-PMD count still inside this droop
                // class; small chips leave some classes unachievable and
                // the compiler later fills those from the class above.
                let utilized =
                    (1..=pmds).rfind(|&u| DroopClass::from_utilized_pmds(&spec, u) == dc);
                let Some(utilized) = utilized else {
                    continue;
                };
                let min_threads = (1..=pmds)
                    .filter(|&u| DroopClass::from_utilized_pmds(&spec, u) == dc)
                    .min()
                    .unwrap_or(1);
                let stress: Vec<PmdId> = order[..utilized].to_vec();
                for bucket in 0..PolicyTable::THREAD_BUCKETS {
                    let threads = bucket_stress_threads(bucket).max(min_threads);
                    let q = VminQuery {
                        freq_class: fc,
                        utilized_pmds: utilized,
                        active_threads: threads,
                        workload_sensitivity: 1.0,
                    };
                    let mut rng = root.substream(cell_idx);
                    let m = self.measure(chip, &q, &stress, &mut rng)?;
                    telemetry.counter_inc("characterize.cells");
                    telemetry.trace(TraceKind::CampaignCell, || {
                        vec![
                            ("fc", Value::U64(freq_row as u64)),
                            ("dc", Value::U64(dc.index() as u64)),
                            ("bucket", Value::U64(bucket as u64)),
                            (
                                "measured_safe_mv",
                                Value::U64(u64::from(m.measured_safe.as_mv())),
                            ),
                            ("probes", Value::U64(m.probes)),
                        ]
                    });
                    cells.push(MarginCell {
                        freq_row,
                        droop_index: dc.index(),
                        bucket,
                        utilized_pmds: utilized,
                        threads,
                        measured_safe_mv: m.measured_safe.as_mv(),
                        highest_fail_mv: m.highest_fail.map_or(0, Millivolts::as_mv),
                        probes: m.probes,
                        discarded: m.discarded,
                    });
                    cell_idx += 1;
                }
            }
        }
        Ok(MarginMap {
            chip: spec.name.clone(),
            nominal_mv: spec.nominal_mv,
            floor_mv: spec.vreg_floor_mv,
            pmds,
            seed: self.config.seed,
            confirm_passes: self.config.confirm_passes,
            cells,
        })
    }

    /// Measures one cell: pins its stress pattern once, then runs a
    /// coarse descent to a failure bracket and a 1 mV confirmation climb.
    fn measure(
        &self,
        chip: &mut Chip,
        q: &VminQuery,
        stress: &[PmdId],
        rng: &mut RngStream,
    ) -> Result<Measurement, CampaignError> {
        let pattern = chip.stress_pattern(q, stress);
        let nominal = chip.nominal_voltage();
        let floor = Millivolts::new(chip.spec().vreg_floor_mv);
        let mut probes = 0u64;
        let mut discarded = 0u64;
        let mut highest_fail: Option<Millivolts> = None;
        let record_fail = |level: Millivolts, highest: &mut Option<Millivolts>| {
            *highest = Some(highest.map_or(level, |h| h.max(level)));
        };

        // Coarse descent: single probes stepping down from nominal. Any
        // observed failure is conclusive (probes at or above the true
        // safe Vmin never fail), so the first one brackets the search.
        let mut level = nominal;
        let mut bracket = None;
        while level > floor {
            level = Millivolts::new(level.as_mv().saturating_sub(self.config.coarse_step_mv))
                .max(floor);
            let obs = self.probe(
                chip,
                &pattern,
                level,
                floor,
                rng,
                &mut probes,
                &mut discarded,
            )?;
            if obs == Observation::Fail {
                record_fail(level, &mut highest_fail);
                bracket = Some(level);
                break;
            }
        }

        // Confirmation climb: from just above the bracket (or from the
        // floor when nothing failed), accept the first level that
        // survives `confirm_passes` consecutive clean probes.
        let mut level = match bracket {
            Some(l) => l.offset(1),
            None => floor,
        };
        let measured_safe = loop {
            if level >= nominal {
                // Nominal is safe by construction.
                break nominal;
            }
            let mut confirmed = true;
            for _ in 0..self.config.confirm_passes {
                let obs = self.probe(
                    chip,
                    &pattern,
                    level,
                    floor,
                    rng,
                    &mut probes,
                    &mut discarded,
                )?;
                if obs == Observation::Fail {
                    record_fail(level, &mut highest_fail);
                    confirmed = false;
                    break;
                }
            }
            if confirmed {
                break level;
            }
            level = level.offset(1);
        };
        Ok(Measurement {
            measured_safe,
            highest_fail,
            probes,
            discarded,
        })
    }

    /// One certified observation at `level`: waits out droop excursions,
    /// applies downward regulator noise, programs the rail (with mailbox
    /// retries), runs the stress probe, and validates the PMU window.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        chip: &mut Chip,
        pattern: &StressPattern,
        level: Millivolts,
        floor: Millivolts,
        rng: &mut RngStream,
        probes: &mut u64,
        discarded: &mut u64,
    ) -> Result<Observation, CampaignError> {
        let mut glitch_streak = 0u32;
        loop {
            self.settle_droop(chip, discarded)?;
            // Downward-only undershoot: a pass at `level - jitter`
            // certifies `level` a fortiori; a jitter-induced failure only
            // makes the measurement pessimistic.
            let jitter = rng.uniform_u64(0, u64::from(self.config.noise_mv)) as u32;
            let target = Millivolts::new(level.as_mv().saturating_sub(jitter)).max(floor);
            self.set_rail(chip, target)?;
            let outcome = chip.probe_stress(pattern, rng);
            *probes += 1;
            let glitched = chip
                .fault_plan_mut()
                .and_then(|plan| plan.sample_pmu_glitch(1_000_000, 0))
                .is_some();
            if !glitched {
                return Ok(if outcome == RunOutcome::Correct {
                    Observation::Pass
                } else {
                    Observation::Fail
                });
            }
            // A glitched PMU window cannot certify anything: retake the
            // observation, and past the tolerated streak count it as a
            // failure (conservative — never certify blind).
            *discarded += 1;
            glitch_streak += 1;
            if glitch_streak > self.config.glitch_retries {
                return Ok(Observation::Fail);
            }
        }
    }

    /// Advances droop state one check and waits out any active excursion
    /// (probes taken during one are biased pessimistic and wasted).
    fn settle_droop(&self, chip: &mut Chip, discarded: &mut u64) -> Result<(), CampaignError> {
        let Some(plan) = chip.fault_plan_mut() else {
            return Ok(());
        };
        plan.droop_check();
        let mut waits = 0u32;
        while plan.droop_excursion_active() {
            if waits >= self.config.excursion_wait_checks {
                return Err(CampaignError::ExcursionStuck { checks: waits });
            }
            waits += 1;
            *discarded += 1;
            plan.droop_check();
        }
        Ok(())
    }

    /// Programs the rail with bounded retries over transient mailbox
    /// faults (refusals, drops; latency spikes apply and are retried
    /// idempotently).
    fn set_rail(&self, chip: &mut Chip, target: Millivolts) -> Result<(), CampaignError> {
        let mut attempts = 0u32;
        loop {
            match chip.set_voltage(target) {
                Ok(()) => return Ok(()),
                Err(ChipError::MailboxRefused { .. } | ChipError::MailboxDropped) => {
                    attempts += 1;
                    if attempts > self.config.mailbox_retries {
                        return Err(CampaignError::MailboxUnavailable {
                            level: target,
                            attempts,
                        });
                    }
                }
                Err(_) => return Err(CampaignError::VoltageRejected { level: target }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_chip::fault::{FaultPlan, FaultRates};
    use avfs_chip::presets;
    use avfs_sim::rng::fnv1a_64;
    use avfs_telemetry::{MetricsSnapshot, Telemetry};

    #[test]
    fn campaign_is_deterministic_in_the_seed() {
        let run = |seed| {
            let mut chip = presets::xgene2().build();
            Campaign::new(CampaignConfig::new(seed))
                .run(&mut chip)
                .expect("clean chip")
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        assert_ne!(run(8), a);
    }

    #[test]
    fn measured_levels_bracket_the_hidden_truth() {
        let mut chip = presets::xgene2().build();
        let map = Campaign::new(CampaignConfig::new(3))
            .run(&mut chip)
            .expect("clean chip");
        // 3 freq rows × 3 achievable droop classes × 4 buckets on X-Gene 2
        // (D25 needs under 1/8 of 4 PMDs busy — unachievable).
        assert_eq!(map.cells.len(), 36);
        for cell in &map.cells {
            assert!(cell.measured_safe_mv > cell.highest_fail_mv);
            assert!(cell.measured_safe_mv <= map.nominal_mv);
            assert!(cell.measured_safe_mv >= map.floor_mv);
            assert!(cell.probes >= u64::from(map.confirm_passes));
        }
        // The campaign must leave the rail back at nominal.
        assert_eq!(chip.voltage(), chip.nominal_voltage());
    }

    /// Mailbox, PMU and droop faults at rates a campaign survives.
    fn survivable_faults() -> FaultPlan {
        FaultPlan::new(
            11,
            FaultRates {
                mailbox: 0.10,
                pmu: 0.05,
                droop: 0.05,
                migration: 0.0,
            },
        )
    }

    #[test]
    fn faulty_chip_still_characterizes_and_rail_is_restored() {
        let mut chip = presets::xgene3().build();
        chip.set_fault_plan(Some(survivable_faults()));
        let map = Campaign::new(CampaignConfig::new(5))
            .run(&mut chip)
            .expect("survivable fault rates");
        assert_eq!(map.cells.len(), 48);
        let discarded: u64 = map.cells.iter().map(|c| c.discarded).sum();
        assert!(discarded > 0, "injected faults never discarded a probe");
        assert_eq!(chip.voltage(), chip.nominal_voltage());
    }

    /// Digest of every field of every cell, then the chip's mailbox and
    /// fault counters after the run: the probe sequence a campaign made.
    fn campaign_digest(map: &MarginMap, chip: &Chip) -> u64 {
        use avfs_sim::rng::{fnv1a_fold, FNV_OFFSET_BASIS};
        let mut words = Vec::new();
        for c in &map.cells {
            words.extend([
                c.freq_row as u64,
                c.droop_index as u64,
                c.bucket as u64,
                c.utilized_pmds as u64,
                c.threads as u64,
                u64::from(c.measured_safe_mv),
                u64::from(c.highest_fail_mv),
                c.probes,
                c.discarded,
            ]);
        }
        let m = chip.mailbox_stats();
        words.extend([m.requests, m.voltage_changes, m.refusals, m.drops]);
        let f = chip.fault_stats();
        words.extend([
            f.mailbox_refusals,
            f.mailbox_drops,
            f.latency_spikes,
            f.pmu_glitches,
            f.migration_hangs,
            f.droop_excursions,
        ]);
        words.into_iter().fold(FNV_OFFSET_BASIS, fnv1a_fold)
    }

    /// Both presets at three fault-free seeds, and at seed 5 under
    /// survivable faults.
    #[test]
    fn campaign_probe_sequences_are_pinned() {
        // (preset, seed, faulted, total probes, digest).
        let pins: [(&str, u64, bool, u64, u64); 8] = [
            ("xgene2", 0, false, 3813, 0x797d_8603_133b_4659),
            ("xgene2", 7, false, 4054, 0x7fe2_614c_2226_6d3a),
            ("xgene2", 2024, false, 4481, 0xd837_9d66_a824_daad),
            ("xgene2", 5, true, 4402, 0x00fd_5e9c_66b6_5711),
            ("xgene3", 0, false, 4606, 0x5195_3818_8855_405a),
            ("xgene3", 7, false, 5156, 0x54d4_9ade_0a5e_0a60),
            ("xgene3", 2024, false, 5106, 0x9cb2_92ee_d024_b226),
            ("xgene3", 5, true, 5021, 0xb169_5c1b_2d4f_2267),
        ];
        let got = pins.map(|(preset, seed, faulted, _, _)| {
            let mut chip = match preset {
                "xgene2" => presets::xgene2().build(),
                _ => presets::xgene3().build(),
            };
            if faulted {
                chip.set_fault_plan(Some(survivable_faults()));
            }
            let map = Campaign::new(CampaignConfig::new(seed))
                .run(&mut chip)
                .expect("campaign completes");
            let probes = map.cells.iter().map(|c| c.probes).sum();
            (preset, seed, faulted, probes, campaign_digest(&map, &chip))
        });
        assert_eq!(got, pins);
    }

    /// One X-Gene 2 campaign at `seed`, under `plan` if given, with a
    /// hub attached; asserts that the map and the chip's mailbox and
    /// fault stats equal a null-handle run's, then returns the journal
    /// export and the hub's snapshot.
    fn traced_campaign(seed: u64, plan: Option<FaultPlan>) -> (String, MetricsSnapshot) {
        let run = |telemetry: Telemetry| {
            let mut chip = presets::xgene2().build();
            chip.set_fault_plan(plan.clone());
            chip.set_telemetry(telemetry);
            let map = Campaign::new(CampaignConfig::new(seed))
                .run(&mut chip)
                .expect("campaign completes");
            (map, chip.mailbox_stats(), chip.fault_stats())
        };
        let telemetry = Telemetry::hub();
        let traced = run(telemetry.clone());
        assert_eq!(
            traced,
            run(Telemetry::null()),
            "the observer moved a result"
        );
        let jsonl = telemetry.export_jsonl().expect("hub journal");
        (jsonl, telemetry.snapshot().expect("hub snapshot"))
    }

    /// Asserts a journal's length, line count and FNV-1a-64 digest, and
    /// the snapshot's counters; campaigns record no histograms.
    fn assert_journal_pinned(
        (jsonl, snapshot): (String, MetricsSnapshot),
        (bytes, lines, digest): (usize, usize, u64),
        counters: &[(&'static str, u64)],
    ) {
        assert_eq!(jsonl.len(), bytes, "journal length");
        assert_eq!(jsonl.lines().count(), lines, "journal lines");
        assert_eq!(fnv1a_64(jsonl.as_bytes()), digest, "journal digest");
        let expected = MetricsSnapshot {
            counters: counters.iter().copied().collect(),
            histograms: Default::default(),
        };
        assert_eq!(snapshot, expected);
    }

    #[test]
    fn a_traced_campaign_is_pinned() {
        assert_journal_pinned(
            traced_campaign(7, None),
            (292_432, 4_635, 0xa51e_b1d9_28f9_87c4),
            &[
                ("characterize.cells", 36),
                ("chip.mailbox.requests", 4_599),
                ("chip.mailbox.voltage_sets", 4_599),
            ],
        );
    }

    #[test]
    fn a_traced_faulted_campaign_is_pinned() {
        let traced = traced_campaign(5, Some(survivable_faults()));
        for kind in ["campaign_cell", "mailbox_call", "mailbox_fault"] {
            assert!(
                traced.0.contains(&format!("\"kind\":\"{kind}\"")),
                "no {kind} record"
            );
        }
        assert_journal_pinned(
            traced,
            (391_835, 5_988, 0x0578_e321_1983_fc8c),
            &[
                ("characterize.cells", 36),
                ("chip.mailbox.injected_drops", 293),
                ("chip.mailbox.injected_refusals", 222),
                ("chip.mailbox.requests", 5_437),
                ("chip.mailbox.voltage_sets", 5_016),
            ],
        );
    }

    #[test]
    fn dead_mailbox_aborts_with_a_typed_error() {
        let mut chip = presets::xgene2().build();
        chip.set_fault_plan(Some(FaultPlan::new(
            1,
            FaultRates {
                mailbox: 1.0,
                ..FaultRates::ZERO
            },
        )));
        let err = Campaign::new(CampaignConfig::new(1))
            .run(&mut chip)
            .expect_err("every request faulted");
        assert!(matches!(err, CampaignError::MailboxUnavailable { .. }));
    }
}
