//! Counterexamples that need no shrinking.
//!
//! A violating schedule used to be cut down by delta debugging until
//! dropping any one event lost the violation. The breadth-first search
//! in [`crate::model`] returns counterexamples that are already that
//! short: it checks every schedule of fewer events first. These tests
//! hold the search and [`crate::model::replay`] to what the shrinker
//! promised: a counterexample replays from a fresh world, is one-minimal,
//! and a schedule that no longer applies is rejected, not misread.

#[cfg(test)]
mod tests {
    use crate::model::{check_world, replay, ModelOptions};
    use crate::statespace::{ModelEvent, World};
    use avfs_core::daemon::Daemon;
    use avfs_workloads::classify::IntensityClass;

    fn broken_world() -> World {
        let chip = avfs_chip::presets::xgene2().build();
        let mut daemon = Daemon::optimal(&chip);
        daemon.set_fail_safe_ordering(false);
        World::new(chip, daemon, 2)
    }

    fn clean_world() -> World {
        let chip = avfs_chip::presets::xgene2().build();
        let daemon = Daemon::optimal(&chip);
        World::new(chip, daemon, 2)
    }

    #[test]
    fn replay_is_clean_on_the_correct_daemon() {
        let w = clean_world();
        let schedule = vec![
            ModelEvent::Tick,
            ModelEvent::Arrive {
                threads: 2,
                class: IntensityClass::MemoryIntensive,
            },
            ModelEvent::Tick,
            ModelEvent::Flip { slot: 0 },
        ];
        assert!(replay(&w, &schedule).is_none());
    }

    #[test]
    fn replay_rejects_inapplicable_subsequences() {
        let w = clean_world();
        // Finish with no live process: inapplicable, not a violation.
        assert!(replay(&w, &[ModelEvent::Finish { slot: 0 }]).is_none());
    }

    #[test]
    fn shrunken_schedule_is_one_minimal_and_reproduces() {
        let w = broken_world();
        // A deliberately padded schedule around the known hazard: without
        // raise-before ordering a cpu-intensive pin lands on a rail
        // parked low by the idle settle.
        let padded = vec![
            ModelEvent::Tick,
            ModelEvent::Arrive {
                threads: 1,
                class: IntensityClass::CpuIntensive,
            },
            ModelEvent::Finish { slot: 0 },
            ModelEvent::Arrive {
                threads: 2,
                class: IntensityClass::MemoryIntensive,
            },
            ModelEvent::Tick,
            ModelEvent::Tick,
            ModelEvent::Flip { slot: 0 },
        ];
        assert!(
            replay(&w, &padded).is_some(),
            "padded schedule must reproduce for this test to be meaningful"
        );
        let report = check_world("ablated", &w, &ModelOptions::default());
        // The search's counterexample for the padded hazard is one of
        // its subsequences.
        let shrunk = report
            .counterexamples
            .iter()
            .find(|cx| {
                let mut rest = padded.iter();
                cx.schedule.iter().all(|e| rest.any(|p| p == e))
            })
            .unwrap_or_else(|| panic!("no counterexample inside the padding: {report}"));
        assert!(shrunk.schedule.len() < padded.len(), "{shrunk}");
        for cx in &report.counterexamples {
            assert_eq!(
                replay(&w, &cx.schedule),
                Some(cx.violations.clone()),
                "{cx}"
            );
            // 1-minimality: dropping any single event loses the violation.
            for skip in 0..cx.schedule.len() {
                let candidate: Vec<ModelEvent> = cx
                    .schedule
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &e)| e)
                    .collect();
                assert!(
                    replay(&w, &candidate).is_none(),
                    "dropping event {skip} still reproduces: {candidate:?}"
                );
            }
        }
    }
}
