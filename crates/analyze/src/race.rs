//! Seeded long-schedule walks over the model checker's
//! [`World`](crate::statespace::World).
//!
//! The breadth-first search in [`crate::model`] covers every schedule
//! up to its bound; these tests reach past it. Each walk lets a seed
//! pick which enabled event wins the race to the daemon's queue,
//! schedule after schedule, with no bound on live processes and up to
//! forty events, and every atomic boundary is checked as in the search.
//! A faulted walk also queues scripted mailbox faults at a given rate,
//! so long schedules run the daemon's retry and safe-mode paths. Walks
//! are pure functions of their seed (a splitmix64 stream), so a
//! violation names the seed that replays it.

#[cfg(test)]
mod tests {
    use crate::statespace::{ModelEvent, World};
    use avfs_chip::fault::MailboxFault;
    use avfs_chip::presets;
    use avfs_core::daemon::Daemon;
    use avfs_core::recovery::RecoveryState;
    use avfs_sim::rng::{splitmix64, SPLITMIX64_GAMMA};
    use avfs_workloads::classify::IntensityClass;

    /// Totals of one campaign of walks.
    #[derive(Debug, Default)]
    struct Campaign {
        schedules: usize,
        events: u64,
        actions: u64,
        checks: u64,
        faults: u64,
        /// Schedules whose daemon entered SafeMode.
        safe_mode: usize,
        violations: Vec<String>,
    }

    impl Campaign {
        fn is_clean(&self) -> bool {
            self.violations.is_empty()
        }

        fn totals(&self) -> (usize, u64, u64, u64, u64) {
            (
                self.schedules,
                self.events,
                self.actions,
                self.checks,
                self.faults,
            )
        }
    }

    /// A schedule's choice stream: splitmix64 outputs reduced modulo the
    /// number of options.
    struct Choices(u64);

    impl Choices {
        fn next(&mut self) -> u64 {
            let z = splitmix64(self.0);
            self.0 = self.0.wrapping_add(SPLITMIX64_GAMMA);
            z
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound.max(1)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Draws the next event: a scripted fault at `fault_rate` while the
    /// world has room to queue one, otherwise a monitor tick, arrival,
    /// finish or flip, each kind equally likely among those enabled.
    fn next_event(world: &World, rng: &mut Choices, fault_rate: f64) -> ModelEvent {
        let enabled = world.enabled_events();
        if fault_rate > 0.0
            && rng.unit() < fault_rate
            && enabled.contains(&ModelEvent::Fault(MailboxFault::Refuse))
        {
            // The chip's own mix of random mailbox faults.
            return ModelEvent::Fault(match rng.below(5) {
                0 | 1 => MailboxFault::Refuse,
                2 | 3 => MailboxFault::Drop,
                _ => MailboxFault::LatencySpike,
            });
        }
        // With no process bound an arrival of `threads` threads is
        // enabled, in both classes, exactly when that many cores are free.
        let count = |kind: fn(&ModelEvent) -> bool| enabled.iter().filter(|e| kind(e)).count();
        let widths = count(|e| matches!(e, ModelEvent::Arrive { .. })) as u64 / 2;
        let live = count(|e| matches!(e, ModelEvent::Finish { .. })) as u64;
        // 0 = monitor tick (always possible), 1 = arrival, 2 = finish,
        // 3 = re-classification.
        let mut choices: Vec<u8> = vec![0];
        if widths > 0 {
            choices.push(1);
        }
        if live > 0 {
            choices.extend([2, 3]);
        }
        match choices[rng.below(choices.len() as u64) as usize] {
            1 => {
                let threads = 1 + rng.below(widths) as usize;
                let class = if rng.below(2) == 0 {
                    IntensityClass::CpuIntensive
                } else {
                    IntensityClass::MemoryIntensive
                };
                ModelEvent::Arrive { threads, class }
            }
            2 => ModelEvent::Finish {
                slot: rng.below(live) as usize,
            },
            3 => ModelEvent::Flip {
                slot: rng.below(live) as usize,
            },
            _ => ModelEvent::Tick,
        }
    }

    /// Feeds one event to the world and tallies its step, tagging
    /// violations with the schedule seed for replay.
    fn feed(world: &mut World, event: ModelEvent, seed: u64, totals: &mut Campaign) {
        totals.events += 1;
        let Some(step) = world.apply_event(event) else {
            totals
                .violations
                .push(format!("seed {seed}: {event} is not applicable"));
            return;
        };
        totals.actions += step.actions;
        totals.checks += step.checks;
        totals.faults += step.faults;
        totals.violations.extend(
            step.violations
                .into_iter()
                .map(|v| format!("seed {seed}: {v}")),
        );
    }

    /// Walks `schedules` seeded schedules of `events` events each from
    /// `base_seed`, alternating X-Gene 2 (even seeds) and X-Gene 3 (odd),
    /// each opened by an initialization tick.
    fn explore_with_faults(
        schedules: usize,
        events: usize,
        base_seed: u64,
        fault_rate: f64,
    ) -> Campaign {
        let mut totals = Campaign::default();
        for seed in (0..schedules as u64).map(|i| base_seed.wrapping_add(i)) {
            let preset = if seed.is_multiple_of(2) {
                presets::xgene2()
            } else {
                presets::xgene3()
            };
            let chip = preset.build();
            let daemon = Daemon::optimal(&chip);
            let mut world = World::new(chip, daemon, usize::MAX);
            let mut rng = Choices(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
            feed(&mut world, ModelEvent::Tick, seed, &mut totals);
            let mut safe_mode = false;
            for _ in 0..events {
                let event = next_event(&world, &mut rng, fault_rate);
                feed(&mut world, event, seed, &mut totals);
                safe_mode |= world.recovery_state() == RecoveryState::SafeMode;
            }
            totals.schedules += 1;
            totals.safe_mode += usize::from(safe_mode);
        }
        totals
    }

    fn explore(schedules: usize, events: usize, base_seed: u64) -> Campaign {
        explore_with_faults(schedules, events, base_seed, 0.0)
    }

    #[test]
    fn exploration_is_deterministic_in_the_seed() {
        let a = explore(4, 12, 7);
        let b = explore(4, 12, 7);
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn fail_safe_daemon_survives_many_schedules() {
        let r = explore(16, 20, 1);
        assert!(r.is_clean(), "violations: {:#?}", r.violations);
        assert!(r.checks > 0);
    }

    #[test]
    fn checks_interleave_every_action() {
        let r = explore(2, 10, 3);
        // One check before each plan plus one per action.
        assert!(r.checks >= r.actions, "{r:?}");
    }

    /// A zero rate draws nothing from the choice stream and the world's
    /// own fault plan has zero rates: the walk is the fault-free one.
    #[test]
    fn zero_fault_rate_matches_plain_exploration() {
        let plain = explore(4, 12, 7);
        let armed = explore_with_faults(4, 12, 7, 0.0);
        assert_eq!(plain.totals(), armed.totals());
        assert_eq!(armed.faults, 0);
        assert_eq!(plain.violations, armed.violations);
    }

    #[test]
    fn recovery_paths_hold_the_invariants_under_faults() {
        let r = explore_with_faults(12, 20, 1, 0.3);
        assert!(r.faults > 0, "a 30% rate must inject faults");
        assert!(r.safe_mode > 0, "{r:?}");
        assert!(r.is_clean(), "violations: {:#?}", r.violations);
        // Recovery rounds add checked actions beyond the original plans.
        assert!(r.checks >= r.actions, "{r:?}");
    }

    #[test]
    fn fault_exploration_is_deterministic_in_the_seed() {
        let a = explore_with_faults(6, 16, 9, 0.25);
        let b = explore_with_faults(6, 16, 9, 0.25);
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.violations, b.violations);
    }

    /// Totals of two campaigns, pinned: they fix which schedules the
    /// walk generates and what the world does along them, not only that
    /// two walks agree.
    #[test]
    fn fault_free_campaign_totals_are_pinned() {
        let r = explore(160, 24, 0xA5F5_0001);
        assert_eq!(r.totals(), (160, 4000, 12_306, 16_323, 0));
        assert!(r.is_clean(), "violations: {:#?}", r.violations);
    }

    #[test]
    fn faulted_campaign_totals_are_pinned() {
        let r = explore_with_faults(96, 24, 0xFA0F_0002, 0.10);
        assert_eq!(r.totals(), (96, 2400, 6656, 9028, 183));
        // Four schedules queue enough faults to carry the daemon into
        // SafeMode.
        assert_eq!(r.safe_mode, 4, "{r:?}");
        assert!(r.is_clean(), "violations: {:#?}", r.violations);
    }

    /// Both windows of ROADMAP item 1, reached by long walks. Schedules
    /// from seed 99 leave the rail under the cores a deferred pin left
    /// behind, once on X-Gene 2 (seed 216) and twice on X-Gene 3 (seed
    /// 245). At seed 125 (X-Gene 3) the daemon leaves two arrivals
    /// waiting, kernel admission starts them on idle-clocked cores the
    /// daemon did not pick, and a later finish lowers the rail below the
    /// safe Vmin of the cores they hold: the admission window, three
    /// times. This pins known bugs, not wanted behaviour: the fix for
    /// item 1 must flip this campaign to clean.
    #[test]
    fn long_schedules_reach_the_deferred_pin_window() {
        let r = explore(200, 40, 99);
        assert_eq!(r.totals(), (200, 8200, 24_097, 32_397, 0));
        let [admission @ .., xg2, xg3_after, xg3_before] = r.violations.as_slice() else {
            panic!("expected 6 violations: {:#?}", r.violations);
        };
        assert_eq!(admission.len(), 3, "{:#?}", r.violations);
        for v in admission {
            assert!(v.starts_with("seed 125: "), "{v}");
            assert!(
                v.ends_with("806mV below safe Vmin 812mV for busy cores {0,2,3,26,28,30}"),
                "{v}"
            );
        }
        assert!(xg2.starts_with("seed 216: "), "{xg2}");
        assert!(
            xg2.ends_with("877mV below safe Vmin 904mV for busy cores {0,5,6}"),
            "{xg2}"
        );
        for v in [xg3_after, xg3_before] {
            assert!(v.starts_with("seed 245: "), "{v}");
            assert!(v.contains("816mV below safe Vmin 832mV"), "{v}");
        }
    }
}
