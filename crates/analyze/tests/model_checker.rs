//! End-to-end tests for the bounded model checker and the policy-domain
//! prover: the breadth-first search reaches exactly what an uncached
//! enumeration reaches, the clean daemon proves clean at the gate's
//! bound, a deliberately broken daemon ordering yields shortest
//! counterexamples that replay, with three processes the checker reaches
//! both known windows below safe Vmin and a deeper bound stops at the
//! same level, and a broken voltage chooser fails the proof with exact
//! cell coordinates.

use avfs_analyze::model::{check, check_world, replay, ModelOptions};
use avfs_analyze::proof::{prove, prove_preset_with};
use avfs_analyze::statespace::{ModelEvent, World};
use avfs_chip::freq::FreqVminClass;
use avfs_chip::voltage::Millivolts;
use avfs_core::daemon::Daemon;
use avfs_workloads::IntensityClass;
use std::collections::BTreeSet;

fn broken_world() -> World {
    let chip = avfs_chip::presets::xgene2().build();
    let mut daemon = Daemon::optimal(&chip);
    // The ablation knob: without raise-before ordering the daemon
    // reconciles voltage lazily, so a frequency raise can land on a
    // rail still parked at the previous (lower) safe voltage.
    daemon.set_fail_safe_ordering(false);
    World::new(chip, daemon, 2)
}

fn preset_worlds(max_procs: usize) -> [(&'static str, World); 2] {
    [
        ("X-Gene 2", avfs_chip::presets::xgene2()),
        ("X-Gene 3", avfs_chip::presets::xgene3()),
    ]
    .map(|(name, builder)| {
        let chip = builder.build();
        let daemon = Daemon::optimal(&chip);
        (name, World::new(chip, daemon, max_procs))
    })
}

/// Every schedule of at most `depth` events from `world`, without a
/// cache: the fingerprints it reaches and its violating transitions.
fn enumerate(world: &World, depth: usize, seen: &mut BTreeSet<u64>, violations: &mut usize) {
    seen.insert(world.fingerprint());
    if depth == 0 {
        return;
    }
    for event in world.enabled_events() {
        let mut child = world.clone();
        let step = child.apply_event(event).expect("enabled events apply");
        if step.violations.is_empty() {
            enumerate(&child, depth - 1, seen, violations);
        } else {
            *violations += 1;
        }
    }
}

/// The soundness reference: expanding each state once, at its shortest
/// depth, loses nothing that enumerating every schedule finds.
#[test]
fn breadth_first_search_reaches_what_enumeration_reaches() {
    let opts = ModelOptions {
        depth: 3,
        max_procs: 2,
    };
    for (name, root) in preset_worlds(opts.max_procs) {
        let mut seen = BTreeSet::new();
        let mut violations = 0;
        enumerate(&root, opts.depth, &mut seen, &mut violations);
        let report = check_world(name, &root, &opts);
        assert_eq!(report.states, seen.len() as u64, "{report}");
        assert_eq!(report.counterexamples.len(), violations, "{report}");
        assert!(report.is_clean(), "{report}");
    }
}

/// The gate's bound: every schedule of six events with at most two live
/// processes, scripted mailbox faults included. Those faults carry the
/// daemon into SafeMode and Probation, and every state on the way is
/// clean.
#[test]
fn exhaustive_depth_six_is_clean_on_both_presets() {
    let report = check(&ModelOptions {
        depth: 6,
        max_procs: 2,
    });
    assert!(report.is_clean());
    let [xg2, xg3] = report.presets.as_slice() else {
        panic!("expected two presets: {report:?}");
    };
    assert_eq!((xg2.states, xg2.degraded), (17_670, 1_329), "{xg2}");
    assert_eq!((xg3.states, xg3.degraded), (15_823, 1_162), "{xg3}");
    for p in &report.presets {
        assert!(p.revisits > 0, "{p}");
        assert!(!p.closed(), "{p}");
    }
}

#[test]
fn broken_ordering_yields_a_short_replayable_counterexample() {
    let root = broken_world();
    let opts = ModelOptions::default();
    let report = check_world("X-Gene 2 (fail-safe ordering off)", &root, &opts);
    let shortest = report
        .counterexamples
        .first()
        .unwrap_or_else(|| panic!("ablated daemon must violate within depth 6: {report}"))
        .schedule
        .len();
    assert!(shortest <= 2, "{report}");
    for cx in &report.counterexamples {
        // One level: every counterexample is as short as the first.
        assert_eq!(cx.schedule.len(), shortest, "{cx}");
        assert!(!cx.violations.is_empty());
        // The schedule replays seedlessly from a fresh world and
        // reproduces the same violations.
        assert_eq!(
            replay(&root, &cx.schedule),
            Some(cx.violations.clone()),
            "{cx}"
        );
    }
    // Shortest: one event fewer, the ablated daemon is clean.
    let shallower = check_world(
        "ablated",
        &root,
        &ModelOptions {
            depth: shortest - 1,
            ..opts
        },
    );
    assert!(shallower.is_clean(), "{shallower}");
}

/// Both causes of ROADMAP item 1, found by one search at depth 5 with
/// three live processes. On X-Gene 2 a pin the daemon defers leaves its
/// process on cores the final voltage does not count ({0,5,6}), and, on
/// another schedule, kernel admission starts an arrival the daemon left
/// waiting on core 1, which a later replan's voltage does not count
/// ({1,4,6}); both leave the rail at 877 mV against 904 mV. On X-Gene 3
/// the deferred-pin window leaves 806 mV against 812 mV.
/// These pin known bugs, not wanted behaviour: item 1's fix must flip
/// this test to clean on both presets.
#[test]
fn depth_five_reaches_both_causes_of_the_unsafe_windows() {
    let opts = ModelOptions {
        depth: 5,
        max_procs: 3,
    };
    let report = check(&opts);
    let [xg2, xg3] = report.presets.as_slice() else {
        panic!("expected two presets: {report:?}");
    };
    assert_eq!(xg2.counterexamples.len(), 6, "{xg2}");
    assert_eq!(xg3.counterexamples.len(), 27, "{xg3}");
    for p in &report.presets {
        for cx in &p.counterexamples {
            assert_eq!(cx.schedule.len(), 5, "{cx}");
        }
    }
    let find = |cxs: &[avfs_analyze::model::Counterexample], tail: &str| {
        cxs.iter()
            .find(|cx| cx.violations.iter().any(|v| v.ends_with(tail)))
            .cloned()
            .unwrap_or_else(|| panic!("no counterexample ends in {tail:?}"))
    };
    let [(_, xg2_root), (_, xg3_root)] = preset_worlds(opts.max_procs);
    let arrive = |threads, class| ModelEvent::Arrive { threads, class };
    let (cpu, mem) = (
        IntensityClass::CpuIntensive,
        IntensityClass::MemoryIntensive,
    );

    let deferred = find(
        &xg2.counterexamples,
        "877mV below safe Vmin 904mV for busy cores {0,5,6}",
    );
    assert_eq!(
        deferred.schedule,
        [
            arrive(1, cpu),
            arrive(4, cpu),
            arrive(2, cpu),
            ModelEvent::Flip { slot: 0 },
            ModelEvent::Finish { slot: 1 },
        ],
        "{deferred}"
    );
    assert_eq!(
        replay(&xg2_root, &deferred.schedule),
        Some(deferred.violations.clone())
    );

    let admission = find(
        &xg2.counterexamples,
        "877mV below safe Vmin 904mV for busy cores {1,4,6}",
    );
    assert_eq!(
        admission.schedule,
        [
            arrive(2, mem),
            arrive(2, mem),
            ModelEvent::Flip { slot: 0 },
            arrive(1, mem),
            ModelEvent::Finish { slot: 1 },
        ],
        "{admission}"
    );
    // The fourth event's change point has one admission boundary beyond
    // the plan's: the kernel, not the daemon, starts the arrival.
    let mut world = xg2_root.clone();
    for &event in &admission.schedule[..3] {
        world.apply_event(event).expect("applicable");
    }
    let step = world
        .apply_event(admission.schedule[3])
        .expect("applicable");
    assert_eq!(step.checks, step.actions + 2, "{step:?}");
    assert_eq!(
        replay(&xg2_root, &admission.schedule),
        Some(admission.violations.clone())
    );

    let xg3_window = find(
        &xg3.counterexamples,
        "806mV below safe Vmin 812mV for busy cores {0,24,26,28,30}",
    );
    assert_eq!(
        replay(&xg3_root, &xg3_window.schedule),
        Some(xg3_window.violations.clone())
    );
}

/// A deeper bound changes nothing once a level violates: at depth 7 with
/// three live processes the search still stops at five events, with the
/// deferred-pin window among its counterexamples on both presets (877 mV
/// against 904 mV on {0,5,6} on X-Gene 2, 806 mV against 812 mV on
/// X-Gene 3). Known bugs, as above: item 1's fix must flip this test.
#[test]
fn depth_seven_reaches_the_deferred_pin_window() {
    let report = check(&ModelOptions {
        depth: 7,
        max_procs: 3,
    });
    let [xg2, xg3] = report.presets.as_slice() else {
        panic!("expected two presets: {report:?}");
    };
    // The states of the five levels the depth-5 search expands, no more.
    assert_eq!(
        (xg2.states, xg2.counterexamples.len()),
        (20_856, 6),
        "{xg2}"
    );
    assert_eq!(
        (xg3.states, xg3.counterexamples.len()),
        (24_148, 27),
        "{xg3}"
    );
    for p in &report.presets {
        assert!(!p.closed(), "{p}");
        for cx in &p.counterexamples {
            assert_eq!(cx.schedule.len(), 5, "{cx}");
        }
    }
    for (p, tail) in [
        (xg2, "877mV below safe Vmin 904mV for busy cores {0,5,6}"),
        (
            xg3,
            "806mV below safe Vmin 812mV for busy cores {0,24,26,28,30}",
        ),
    ] {
        assert!(
            p.counterexamples
                .iter()
                .any(|cx| cx.violations.iter().any(|v| v.ends_with(tail))),
            "{p}: no counterexample ends in {tail:?}"
        );
    }
}

#[test]
fn counterexample_display_is_a_replayable_recipe() {
    let root = broken_world();
    let report = check_world("ablated", &root, &ModelOptions::default());
    let cx = report
        .counterexamples
        .first()
        .unwrap_or_else(|| panic!("expected a counterexample"));
    let rendered = format!("{cx}");
    assert!(
        rendered.contains("replay from a fresh system"),
        "{rendered}"
    );
    assert!(rendered.contains("violated:"), "{rendered}");
    // Every step is numbered.
    for i in 1..=cx.schedule.len() {
        assert!(rendered.contains(&format!("{i}. ")), "{rendered}");
    }
}

#[test]
fn prove_policy_is_exhaustive_and_clean() {
    let report = prove();
    assert!(report.is_clean(), "{report}");
    // The exact domain sizes: 3 freq classes x sum over u of the
    // feasible thread band x 2 intensity classes x 2 droop x 3 recovery.
    assert_eq!(report.presets[0].cells, 504, "X-Gene 2");
    assert_eq!(report.presets[1].cells, 5472, "X-Gene 3");
    assert_eq!(report.cells(), 5976);
}

#[test]
fn undervolting_chooser_fails_with_coordinates() {
    let chip = avfs_chip::presets::xgene3().build();
    let daemon = Daemon::optimal(&chip);
    // Shave 30 mV off every choice: guaranteed to dip below some
    // cell's physical worst-case Vmin.
    let chooser = |fc: FreqVminClass, u: usize, t: usize, dg: bool, pess: bool| {
        daemon
            .chosen_voltage(fc, u, t, dg, pess)
            .saturating_sub(Millivolts::new(30))
    };
    let report = prove_preset_with("X-Gene 3", &chip, &chooser);
    assert!(!report.is_clean());
    assert!(report.min_guardband_mv < 0);
    let sample = &report.violations[0];
    for needle in [
        "X-Gene 3",
        "fc=",
        "u=",
        "t=",
        "droop=",
        "recovery=",
        "chosen",
    ] {
        assert!(sample.contains(needle), "{sample}");
    }
}
