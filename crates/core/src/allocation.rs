//! The core-allocation planner.
//!
//! §IV-B and §V of the paper establish the placement rules the daemon
//! enforces:
//!
//! * **CPU-intensive** processes run at full speed, and clustering them
//!   onto the fewest PMDs costs them nothing (no shared-L2 pressure)
//!   while shrinking the utilized-PMD count — which lowers the droop
//!   class and with it the safe Vmin (Table II), and saves per-PMD clock
//!   power (Figure 7, left).
//! * **Memory-intensive** processes run at reduced speed (their time
//!   barely suffers, Figures 11/12) and are *spreaded* so no two share an
//!   L2 (Figure 7, right).
//!
//! [`plan_layout`] computes a full assignment from scratch: CPU threads
//! pack PMDs from the bottom of the chip, memory threads take one core
//! per PMD from the top, overflowing into second cores only when the
//! chip is too full to keep them exclusive. The layout is deterministic
//! in the process order, so replanning after an event only migrates
//! processes whose placement actually changed.

use avfs_chip::topology::{ChipSpec, CoreSet, PmdId};
use avfs_sched::process::Pid;
use avfs_workloads::classify::IntensityClass;
use std::collections::BTreeMap;

/// What a PMD is used for in a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmdRole {
    /// No threads assigned.
    Idle,
    /// Hosts at least one CPU-intensive thread (runs at full speed).
    Cpu,
    /// Hosts only memory-intensive threads (runs at the reduced step).
    Mem,
}

/// One process the planner must place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanProc {
    /// Process id (ordering key — keep stable across replans).
    pub pid: Pid,
    /// Thread count.
    pub threads: usize,
    /// Classification driving the placement rule.
    pub class: IntensityClass,
}

/// A complete placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// Core assignment per process.
    pub assignment: BTreeMap<Pid, CoreSet>,
    /// Role of each PMD.
    pub pmd_roles: Vec<PmdRole>,
    /// Processes that could not be placed (insufficient cores).
    pub unplaced: Vec<Pid>,
}

impl Layout {
    /// Number of PMDs with at least one assigned thread.
    pub fn utilized_pmds(&self) -> usize {
        self.pmd_roles
            .iter()
            .filter(|r| **r != PmdRole::Idle)
            .count()
    }

    /// Total placed threads.
    pub fn placed_threads(&self) -> usize {
        self.assignment.values().map(|cs| cs.len()).sum()
    }

    /// The union of all assigned cores.
    pub fn busy_cores(&self) -> CoreSet {
        self.assignment
            .values()
            .fold(CoreSet::EMPTY, |acc, cs| acc.union(*cs))
    }
}

/// Reusable planner state for [`plan_layout_into`].
///
/// Holding one of these across replans turns the planner allocation-free
/// on the steady state: the assignment/roles/unplaced buffers are cleared
/// and refilled in place instead of re-allocated per call. The filled
/// scratch exposes the same queries as [`Layout`] (borrowed, not owned);
/// callers that need an owned snapshot call [`LayoutScratch::to_layout`].
#[derive(Debug, Default, Clone)]
pub struct LayoutScratch {
    assignment: Vec<(Pid, CoreSet)>,
    pmd_roles: Vec<PmdRole>,
    unplaced: Vec<Pid>,
}

impl LayoutScratch {
    /// Core assignment per placed process, sorted by pid.
    pub fn assignment(&self) -> &[(Pid, CoreSet)] {
        &self.assignment
    }

    /// Assigned cores for `pid`, if it was placed.
    pub fn assignment_of(&self, pid: Pid) -> Option<CoreSet> {
        self.assignment
            .binary_search_by_key(&pid, |(p, _)| *p)
            .ok()
            .map(|i| self.assignment[i].1)
    }

    /// Role of each PMD.
    pub fn pmd_roles(&self) -> &[PmdRole] {
        &self.pmd_roles
    }

    /// Processes that could not be placed (insufficient cores).
    pub fn unplaced(&self) -> &[Pid] {
        &self.unplaced
    }

    /// Number of PMDs with at least one assigned thread.
    pub fn utilized_pmds(&self) -> usize {
        self.pmd_roles
            .iter()
            .filter(|r| **r != PmdRole::Idle)
            .count()
    }

    /// The union of all assigned cores.
    pub fn busy_cores(&self) -> CoreSet {
        self.assignment
            .iter()
            .fold(CoreSet::EMPTY, |acc, (_, cs)| acc.union(*cs))
    }

    /// Owned [`Layout`] snapshot of the current plan.
    pub fn to_layout(&self) -> Layout {
        Layout {
            assignment: self.assignment.iter().copied().collect(),
            pmd_roles: self.pmd_roles.clone(),
            unplaced: self.unplaced.clone(),
        }
    }
}

/// Plans a full layout for `procs` on `spec`.
///
/// Processes are placed in the given order (callers should pass a stable
/// order, e.g. by pid): CPU-intensive first packing cores bottom-up,
/// memory-intensive then taking one core per free PMD from the top,
/// doubling up only when unavoidable. A process whose threads do not fit
/// in the remaining cores is reported in [`Layout::unplaced`].
///
/// Convenience wrapper over [`plan_layout_into`] that allocates a fresh
/// scratch per call; hot paths (the daemon's replan loop) should hold a
/// [`LayoutScratch`] and call [`plan_layout_into`] directly.
pub fn plan_layout(spec: &ChipSpec, procs: &[PlanProc]) -> Layout {
    let mut scratch = LayoutScratch::default();
    plan_layout_into(spec, procs, &mut scratch);
    scratch.to_layout()
}

/// Plans a full layout for `procs` on `spec` into caller-provided scratch
/// buffers, allocating nothing once the scratch has warmed up.
///
/// Semantics are identical to [`plan_layout`] (it is implemented on top
/// of this); the scratch is fully overwritten, so stale contents never
/// leak into the new plan.
pub fn plan_layout_into(spec: &ChipSpec, procs: &[PlanProc], scratch: &mut LayoutScratch) {
    let pmds = spec.pmds() as usize;
    let mut taken = CoreSet::EMPTY;
    scratch.pmd_roles.clear();
    scratch.pmd_roles.resize(pmds, PmdRole::Idle);
    scratch.assignment.clear();
    scratch.unplaced.clear();
    let roles = &mut scratch.pmd_roles;
    let assignment = &mut scratch.assignment;
    let unplaced = &mut scratch.unplaced;

    // --- Pass 1: CPU-intensive, clustered bottom-up. ---
    for p in procs
        .iter()
        .filter(|p| p.class == IntensityClass::CpuIntensive)
    {
        let mut chosen = CoreSet::EMPTY;
        // Fill partially-used CPU PMDs first, then fresh PMDs bottom-up.
        'outer: for preferred_partial in [true, false] {
            for pmd_idx in 0..pmds {
                let pmd = PmdId::new(pmd_idx as u16);
                if roles.get(pmd_idx) == Some(&PmdRole::Mem) {
                    continue;
                }
                let cores = spec.cores_of(pmd);
                let used = cores.intersection(taken).len();
                let partial = used > 0 && used < cores.len();
                if preferred_partial != partial {
                    continue;
                }
                for core in cores.iter() {
                    if chosen.len() == p.threads {
                        break 'outer;
                    }
                    if !taken.contains(core) && !chosen.contains(core) {
                        chosen.insert(core);
                    }
                }
                if chosen.len() == p.threads {
                    break 'outer;
                }
            }
        }
        if chosen.len() == p.threads {
            for c in chosen.iter() {
                taken.insert(c);
                roles[spec.pmd_of(c).index()] = PmdRole::Cpu;
            }
            assignment.push((p.pid, chosen));
        } else {
            unplaced.push(p.pid);
        }
    }

    // --- Pass 2: memory-intensive, spreaded top-down. ---
    for p in procs
        .iter()
        .filter(|p| p.class == IntensityClass::MemoryIntensive)
    {
        let mut chosen = CoreSet::EMPTY;
        // First sweep: one core per PMD with no threads yet (exclusive L2),
        // from the top of the chip. Second sweep: PMDs where only mem
        // threads live (keep away from CPU PMDs). Final sweep: anything.
        for sweep in 0..3 {
            for pmd_idx in (0..pmds).rev() {
                if chosen.len() == p.threads {
                    break;
                }
                let pmd = PmdId::new(pmd_idx as u16);
                let role = roles[pmd_idx];
                let cores = spec.cores_of(pmd);
                let used = cores.intersection(taken.union(chosen)).len();
                let eligible = match sweep {
                    0 => role != PmdRole::Cpu && used == 0,
                    1 => role != PmdRole::Cpu && used < cores.len(),
                    _ => used < cores.len(),
                };
                if !eligible {
                    continue;
                }
                // Take one core per PMD per sweep to keep spreading.
                if let Some(core) = cores.difference(taken.union(chosen)).first() {
                    chosen.insert(core);
                }
            }
            if chosen.len() == p.threads {
                break;
            }
        }
        if chosen.len() == p.threads {
            for c in chosen.iter() {
                taken.insert(c);
                let idx = spec.pmd_of(c).index();
                if roles[idx] == PmdRole::Idle {
                    roles[idx] = PmdRole::Mem;
                }
            }
            assignment.push((p.pid, chosen));
        } else {
            unplaced.push(p.pid);
        }
    }

    // CPU pids and mem pids interleave across the two passes; restore the
    // pid order the lookup API promises.
    assignment.sort_unstable_by_key(|(pid, _)| *pid);
    debug_assert_layout(spec, procs, scratch);
}

/// Structural invariants every layout must satisfy; checked at the end of
/// [`plan_layout`] in debug builds and re-verified by the `avfs-analyze`
/// invariant registry and model checker.
fn debug_assert_layout(spec: &ChipSpec, procs: &[PlanProc], layout: &LayoutScratch) {
    if cfg!(debug_assertions) {
        let mut seen = CoreSet::EMPTY;
        for (pid, cores) in &layout.assignment {
            debug_assert!(
                seen.intersection(*cores).is_empty(),
                "{pid} assignment {cores} overlaps another process"
            );
            debug_assert!(
                cores.iter().all(|c| spec.contains_core(c)),
                "{pid} assignment {cores} leaves the chip"
            );
            seen = seen.union(*cores);
        }
        for (pid, cores) in &layout.assignment {
            let threads = procs.iter().find(|p| p.pid == *pid).map(|p| p.threads);
            debug_assert!(
                threads == Some(cores.len()),
                "{pid} holds {} cores for {threads:?} threads",
                cores.len()
            );
        }
        for pmd in spec.all_pmds() {
            let busy = !spec.cores_of(pmd).intersection(seen).is_empty();
            debug_assert!(
                busy != (layout.pmd_roles[pmd.index()] == PmdRole::Idle),
                "{pmd} role {:?} disagrees with its occupancy",
                layout.pmd_roles[pmd.index()]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_chip::presets;
    use avfs_chip::topology::CoreId;

    fn spec32() -> ChipSpec {
        presets::xgene3().spec().clone()
    }

    fn spec8() -> ChipSpec {
        presets::xgene2().spec().clone()
    }

    fn cpu(pid: u64, threads: usize) -> PlanProc {
        PlanProc {
            pid: Pid(pid),
            threads,
            class: IntensityClass::CpuIntensive,
        }
    }

    fn mem(pid: u64, threads: usize) -> PlanProc {
        PlanProc {
            pid: Pid(pid),
            threads,
            class: IntensityClass::MemoryIntensive,
        }
    }

    #[test]
    fn cpu_processes_cluster_onto_fewest_pmds() {
        let spec = spec32();
        let layout = plan_layout(&spec, &[cpu(1, 2), cpu(2, 2)]);
        // 4 CPU threads → exactly 2 PMDs utilized (clustered).
        assert_eq!(layout.utilized_pmds(), 2);
        assert!(layout.unplaced.is_empty());
        assert_eq!(layout.placed_threads(), 4);
        // And they're the bottom PMDs.
        assert_eq!(layout.pmd_roles[0], PmdRole::Cpu);
        assert_eq!(layout.pmd_roles[1], PmdRole::Cpu);
    }

    #[test]
    fn mem_processes_spread_one_per_pmd() {
        let spec = spec32();
        let layout = plan_layout(&spec, &[mem(1, 1), mem(2, 1), mem(3, 1), mem(4, 1)]);
        // 4 memory threads → 4 PMDs, each exclusive.
        assert_eq!(layout.utilized_pmds(), 4);
        for (pid, cores) in &layout.assignment {
            assert_eq!(cores.len(), 1, "{pid}");
        }
        // They occupy the top of the chip.
        assert_eq!(layout.pmd_roles[15], PmdRole::Mem);
        assert_eq!(layout.pmd_roles[0], PmdRole::Idle);
    }

    #[test]
    fn mixed_classes_use_disjoint_pmds() {
        let spec = spec32();
        let layout = plan_layout(&spec, &[cpu(1, 4), mem(2, 4)]);
        assert!(layout.unplaced.is_empty());
        // CPU threads on 2 PMDs (clustered), mem threads on 4 (spreaded).
        let cpu_pmds = layout
            .pmd_roles
            .iter()
            .filter(|r| **r == PmdRole::Cpu)
            .count();
        let mem_pmds = layout
            .pmd_roles
            .iter()
            .filter(|r| **r == PmdRole::Mem)
            .count();
        assert_eq!(cpu_pmds, 2);
        assert_eq!(mem_pmds, 4);
        // No core double-booked.
        assert_eq!(layout.busy_cores().len(), 8);
    }

    #[test]
    fn mem_threads_double_up_only_when_chip_is_tight() {
        let spec = spec8(); // 4 PMDs
                            // 6 memory threads on 4 PMDs: 4 exclusive + 2 doubled.
        let layout = plan_layout(&spec, &[mem(1, 6)]);
        assert!(layout.unplaced.is_empty());
        assert_eq!(layout.utilized_pmds(), 4);
        assert_eq!(layout.placed_threads(), 6);
    }

    #[test]
    fn overflow_reports_unplaced() {
        let spec = spec8();
        let layout = plan_layout(&spec, &[cpu(1, 8), mem(2, 1)]);
        assert_eq!(layout.unplaced, vec![Pid(2)]);
        assert_eq!(layout.placed_threads(), 8);
    }

    #[test]
    fn layout_is_deterministic_and_stable() {
        let spec = spec32();
        let procs = [cpu(3, 2), mem(5, 1), cpu(7, 1), mem(9, 2)];
        let a = plan_layout(&spec, &procs);
        let b = plan_layout(&spec, &procs);
        assert_eq!(a, b);
        // Removing an unrelated mem process must not move the cpu ones.
        let fewer = [cpu(3, 2), cpu(7, 1), mem(9, 2)];
        let c = plan_layout(&spec, &fewer);
        assert_eq!(a.assignment[&Pid(3)], c.assignment[&Pid(3)]);
        assert_eq!(a.assignment[&Pid(7)], c.assignment[&Pid(7)]);
    }

    #[test]
    fn cpu_fill_prefers_partial_pmds() {
        let spec = spec32();
        // 1-thread then 1-thread: both should land on PMD0 (clustered).
        let layout = plan_layout(&spec, &[cpu(1, 1), cpu(2, 1)]);
        assert_eq!(layout.utilized_pmds(), 1);
    }

    #[test]
    fn full_chip_layout_places_everything() {
        let spec = spec32();
        let procs: Vec<PlanProc> = (0..16)
            .map(|i| cpu(i, 1))
            .chain((16..32).map(|i| mem(i, 1)))
            .collect();
        let layout = plan_layout(&spec, &procs);
        assert!(layout.unplaced.is_empty());
        assert_eq!(layout.placed_threads(), 32);
        assert_eq!(layout.utilized_pmds(), 16);
    }

    #[test]
    fn mem_avoids_cpu_pmds_until_forced() {
        let spec = spec8();
        // 2 cpu threads on PMD0; 3 mem threads: PMDs 3,2,1 exclusive.
        let layout = plan_layout(&spec, &[cpu(1, 2), mem(2, 3)]);
        assert!(layout.unplaced.is_empty());
        assert_eq!(layout.pmd_roles[0], PmdRole::Cpu);
        for idx in [1usize, 2, 3] {
            assert_eq!(layout.pmd_roles[idx], PmdRole::Mem, "PMD{idx}");
        }
        // 4th mem thread would be forced next to a mem sibling, not the
        // CPU PMD.
        let layout2 = plan_layout(&spec, &[cpu(1, 2), mem(2, 4)]);
        assert!(layout2.unplaced.is_empty());
        let pmd0_cores = spec.cores_of(PmdId::new(0));
        let mem_cores = layout2.assignment[&Pid(2)];
        assert!(mem_cores.intersection(pmd0_cores).is_empty());
    }

    #[test]
    fn single_core_helpers() {
        let spec = spec8();
        let layout = plan_layout(&spec, &[cpu(1, 1)]);
        assert_eq!(layout.busy_cores().len(), 1);
        assert!(layout.busy_cores().contains(CoreId::new(0)));
    }
}
