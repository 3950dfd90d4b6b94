//! Bounded explicit-state model checking of the Daemon↔Chip↔Sched loop.
//!
//! [`check`] searches *every* interleaving of the symbolic event alphabet
//! ([`crate::statespace::ModelEvent`]: ticks, arrivals of one to four
//! threads, finishes, class flips and scripted mailbox faults) up to a
//! depth bound, on both chip presets, evaluating the three torn-state
//! properties at every atomic-action boundary.
//!
//! The search is breadth-first over [`World::fingerprint`]: level `d`
//! holds the states first reached by `d` events, and each state is
//! expanded once, at that shortest depth. Two worlds with equal
//! fingerprints transition identically, so dropping a revisit loses no
//! behaviour, and because every state is expanded before the bound cuts
//! it off, a clean run is exhaustive within the bound: no schedule of at
//! most `depth` events reaches a torn state. When a level finds a
//! violation, the search finishes that level and reports every violating
//! transition on it, each with the schedule that first reached its
//! source; these are shortest counterexamples. When a level adds no new
//! state the reachable state space is closed, and the run reports the
//! fixpoint instead of a depth-bounded result.

use crate::statespace::{ModelEvent, World};
use avfs_chip::presets;
use avfs_core::daemon::Daemon;
use avfs_core::recovery::RecoveryState;
use std::collections::HashSet;
use std::fmt;

/// Exploration knobs.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Event-depth bound: every interleaving of at most this many events
    /// is covered.
    pub depth: usize,
    /// Maximum concurrently live processes (branching bound).
    pub max_procs: usize,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            depth: 6,
            max_procs: 2,
        }
    }
}

/// A shortest violating schedule.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The schedule (replay from a fresh world reproduces).
    pub schedule: Vec<ModelEvent>,
    /// Violations its last event produces.
    pub violations: Vec<String>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample ({} events; replay from a fresh system):",
            self.schedule.len()
        )?;
        for (i, ev) in self.schedule.iter().enumerate() {
            writeln!(f, "  {}. {ev}", i + 1)?;
        }
        for v in &self.violations {
            writeln!(f, "  violated: {v}")?;
        }
        Ok(())
    }
}

/// Exploration outcome for one preset.
#[derive(Debug, Clone, Default)]
pub struct PresetModelReport {
    /// Preset name.
    pub name: String,
    /// Distinct states reached, the initial one included.
    pub states: u64,
    /// Of those, states whose daemon is in SafeMode or Probation.
    pub degraded: u64,
    /// Event applications executed.
    pub transitions: u64,
    /// Transitions that reached an already known state.
    pub revisits: u64,
    /// Interleaved invariant evaluations.
    pub checks: u64,
    /// States the search reached but did not expand: those at the depth
    /// bound, or on the level a violation stopped it. Zero on a clean
    /// run means the reachable state space closed within the bound.
    pub frontier: u64,
    /// Every violating transition of the shallowest violating level,
    /// in search order; empty when clean.
    pub counterexamples: Vec<Counterexample>,
}

impl PresetModelReport {
    /// True when no explored transition violated a property.
    pub fn is_clean(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// True when the search expanded every reachable state: the result
    /// holds for every schedule, not only those within the bound.
    pub fn closed(&self) -> bool {
        self.frontier == 0
    }

    /// Counts `world` as a newly reached state.
    fn reach(&mut self, world: &World) {
        self.states += 1;
        self.degraded += u64::from(world.recovery_state() != RecoveryState::Optimized);
    }
}

impl fmt::Display for PresetModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} states ({} in safe mode or probation), {} transitions, {} revisits, \
             {} checks, ",
            self.name, self.states, self.degraded, self.transitions, self.revisits, self.checks,
        )?;
        if self.closed() {
            write!(f, "fixpoint closed, ")?;
        } else {
            write!(f, "{} unexpanded, ", self.frontier)?;
        }
        if self.is_clean() {
            write!(f, "no violations")
        } else {
            write!(f, "{} violation(s)", self.counterexamples.len())
        }
    }
}

/// Outcome of a full `model` run.
#[derive(Debug, Clone, Default)]
pub struct ModelReport {
    /// The depth bound explored.
    pub depth: usize,
    /// The live-process bound.
    pub max_procs: usize,
    /// Per-preset results.
    pub presets: Vec<PresetModelReport>,
}

impl ModelReport {
    /// True when every preset explored clean.
    pub fn is_clean(&self) -> bool {
        self.presets.iter().all(PresetModelReport::is_clean)
    }
}

/// Replays `schedule` from a clone of `initial`. Returns the violations
/// of the first failing event, or `None` when the schedule runs clean
/// or contains an inapplicable event.
pub fn replay(initial: &World, schedule: &[ModelEvent]) -> Option<Vec<String>> {
    let mut world = initial.clone();
    for &event in schedule {
        let report = world.apply_event(event)?;
        if !report.violations.is_empty() {
            return Some(report.violations);
        }
    }
    None
}

/// One reached state and the shortest schedule that reached it.
struct Node {
    world: World,
    path: Vec<ModelEvent>,
}

/// Searches one world breadth-first up to the bound.
pub fn check_world(name: &str, root: &World, opts: &ModelOptions) -> PresetModelReport {
    let mut report = PresetModelReport {
        name: name.to_string(),
        ..PresetModelReport::default()
    };
    let mut seen = HashSet::from([root.fingerprint()]);
    report.reach(root);
    let mut level = vec![Node {
        world: root.clone(),
        path: Vec::new(),
    }];
    for _ in 0..opts.depth {
        let mut next = Vec::new();
        for node in &level {
            for event in node.world.enabled_events() {
                let mut world = node.world.clone();
                let Some(step) = world.apply_event(event) else {
                    continue;
                };
                report.transitions += 1;
                report.checks += step.checks;
                let path = || [node.path.as_slice(), &[event]].concat();
                if !step.violations.is_empty() {
                    report.counterexamples.push(Counterexample {
                        schedule: path(),
                        violations: step.violations,
                    });
                } else if seen.insert(world.fingerprint()) {
                    report.reach(&world);
                    next.push(Node {
                        world,
                        path: path(),
                    });
                } else {
                    report.revisits += 1;
                }
            }
        }
        level = next;
        if level.is_empty() || !report.counterexamples.is_empty() {
            break;
        }
    }
    report.frontier = level.len() as u64;
    report
}

/// Runs the bounded checker on both chip presets with the paper's
/// Optimal daemon.
pub fn check(opts: &ModelOptions) -> ModelReport {
    let mut report = ModelReport {
        depth: opts.depth,
        max_procs: opts.max_procs,
        presets: Vec::new(),
    };
    for (name, builder) in [
        ("X-Gene 2", presets::xgene2()),
        ("X-Gene 3", presets::xgene3()),
    ] {
        let chip = builder.build();
        let daemon = Daemon::optimal(&chip);
        let root = World::new(chip, daemon, opts.max_procs);
        report.presets.push(check_world(name, &root, opts));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(depth: usize) -> ModelOptions {
        ModelOptions {
            depth,
            ..ModelOptions::default()
        }
    }

    #[test]
    fn shallow_exhaustive_exploration_is_clean_on_both_presets() {
        let report = check(&opts(3));
        assert!(
            report.is_clean(),
            "{:#?}",
            report
                .presets
                .iter()
                .map(|p| (&p.name, &p.counterexamples))
                .collect::<Vec<_>>()
        );
        for p in &report.presets {
            assert!(p.states > 1, "{p}");
            assert!(p.checks > 0, "{p}");
            assert!(p.frontier > 0, "{p}");
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = check(&opts(3));
        let b = check(&opts(3));
        for (pa, pb) in a.presets.iter().zip(&b.presets) {
            assert_eq!(pa.states, pb.states);
            assert_eq!(pa.transitions, pb.transitions);
            assert_eq!(pa.revisits, pb.revisits);
            assert_eq!(pa.checks, pb.checks);
        }
    }

    /// With no process to admit only ticks and scripted faults remain:
    /// the reachable states run out long before the bound, and the
    /// search reports the fixpoint.
    #[test]
    fn an_empty_frontier_closes_the_fixpoint() {
        let chip = avfs_chip::presets::xgene2().build();
        let daemon = Daemon::optimal(&chip);
        let root = World::new(chip, daemon, 0);
        let report = check_world("X-Gene 2", &root, &opts(40));
        assert!(report.closed() && report.is_clean(), "{report}");
        assert_eq!((report.states, report.degraded), (480, 320), "{report}");
    }
}
