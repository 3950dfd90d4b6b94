//! Exhaustive tests of the daemon's fault-recovery behaviour:
//!
//! 1. Safe mode engages on exactly the configured number of
//!    *consecutive* faults — never on fewer, no matter how fault bursts
//!    below the threshold are interleaved with healthy events.
//! 2. Leaving safe mode through probation restores the exact pre-fault
//!    voltage target: the daemon's plan is a pure function of the system
//!    view, so recovery is lossless.

use avfs_chip::presets;
use avfs_chip::topology::{CoreId, CoreSet};
use avfs_chip::voltage::Millivolts;
use avfs_core::daemon::Daemon;
use avfs_core::recovery::{FaultDecision, Recovery, RecoveryConfig, RecoveryState};
use avfs_sched::driver::{Action, Driver, FaultNotice, ProcessView, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::process::{Pid, ProcessState};
use avfs_sim::time::SimTime;
use avfs_workloads::classify::IntensityClass;

fn mk_view(chip: &avfs_chip::Chip, procs: Vec<ProcessView>) -> SystemView {
    SystemView {
        now: SimTime::ZERO,
        spec: chip.spec().clone(),
        voltage: chip.voltage(),
        pmd_steps: vec![avfs_chip::FreqStep::MAX; chip.spec().pmds() as usize],
        governor: GovernorMode::Userspace,
        droop_alert: false,
        processes: procs,
    }
}

/// A 2-thread running process clustered on PMD `slot`.
fn running(pid: u64, slot: u16, class: IntensityClass) -> ProcessView {
    let cores: CoreSet = [2 * slot, 2 * slot + 1]
        .into_iter()
        .map(CoreId::new)
        .collect();
    ProcessView {
        pid: Pid(pid),
        threads: 2,
        state: ProcessState::Running,
        assigned: cores,
        l3c_per_mcycle: Some(match class {
            IntensityClass::CpuIntensive => 200.0,
            IntensityClass::MemoryIntensive => 15_000.0,
        }),
        class: Some(class),
        arrived_at: SimTime::ZERO,
        stalled_until: None,
    }
}

fn last_voltage(acts: &[Action]) -> Option<Millivolts> {
    acts.iter().rev().find_map(|a| match a {
        Action::SetVoltage(v) => Some(*v),
        _ => None,
    })
}

/// Every vector of up to `max_len` entries drawn from `values`, in
/// order of length.
fn every_vector(values: &[u32], max_len: usize) -> Vec<Vec<u32>> {
    let mut all = vec![Vec::new()];
    // Where in `all` the longest vectors so far sit.
    let mut longest = 0..1;
    for _ in 0..max_len {
        for i in longest.clone() {
            for &v in values {
                let mut next = all[i].clone();
                next.push(v);
                all.push(next);
            }
        }
        longest = longest.end..all.len();
    }
    all
}

/// The state machine alone: bursts strictly below the threshold,
/// separated by healthy events, never engage safe mode; the k-th
/// consecutive fault always does. Every threshold from 1 to 6, and
/// every sequence of up to five bursts, each followed by 0 to 4 extra
/// healthy events.
#[test]
fn safe_mode_engages_at_exactly_k_and_never_fewer() {
    let clean_runs = every_vector(&[0, 1, 2, 3, 4], 5);
    assert_eq!(clean_runs.len(), 3_906);
    let mut cases = 0;
    for k in 1u32..7 {
        let cfg = RecoveryConfig {
            safe_mode_threshold: k,
            ..RecoveryConfig::default()
        };
        for runs in &clean_runs {
            // The seed feeds only the backoff jitter, never a transition.
            let mut r = Recovery::new(cfg.clone(), cases);
            for &cleans in runs {
                for i in 1..k {
                    assert!(
                        matches!(r.on_fault(), FaultDecision::Retry { .. }),
                        "fault {i} of a below-threshold burst (k={k}, {runs:?}) must retry"
                    );
                }
                let _ = r.on_clean_event();
                for _ in 0..cleans {
                    let _ = r.on_clean_event();
                }
                assert_eq!(r.state(), RecoveryState::Optimized, "k={k}, {runs:?}");
            }
            for _ in 1..k {
                let _ = r.on_fault();
            }
            assert_eq!(
                r.on_fault(),
                FaultDecision::EnterSafeMode,
                "k={k}, {runs:?}"
            );
            assert_eq!(r.state(), RecoveryState::SafeMode);
            cases += 1;
        }
    }
    assert_eq!(cases, 23_436);
}

/// The full daemon: fault bursts below the default threshold (3),
/// each ended by a healthy event, never leave optimized planning.
/// Every sequence of one to five bursts of one or two faults.
#[test]
fn daemon_never_enters_safe_mode_below_threshold() {
    let chip = presets::xgene3().build();
    let view = mk_view(&chip, vec![running(1, 0, IntensityClass::CpuIntensive)]);
    let fault = SysEvent::OperationFault(FaultNotice::VoltageRefused(Millivolts::new(840)));
    let mut cases = 0;
    for bursts in every_vector(&[1, 2], 5).iter().filter(|b| !b.is_empty()) {
        let mut d = Daemon::optimal(&chip);
        let _ = d.on_event(&view, &SysEvent::MonitorTick);
        for &n in bursts {
            for _ in 0..n {
                let _ = d.on_event(&view, &fault);
            }
            assert_eq!(d.recovery_state(), RecoveryState::Optimized, "{bursts:?}");
            let _ = d.on_event(&view, &SysEvent::MonitorTick);
        }
        let k = d.config().recovery.safe_mode_threshold;
        for _ in 0..k {
            let _ = d.on_event(&view, &fault);
        }
        assert_eq!(d.recovery_state(), RecoveryState::SafeMode, "{bursts:?}");
        cases += 1;
    }
    assert_eq!(cases, 62);
}

/// The full daemon: for every mix of one to four running processes,
/// each CPU- or memory-bound, completing the probation window restores
/// the exact voltage target the daemon was aiming for before the fault
/// burst.
#[test]
fn probation_exit_restores_the_prefault_target_exactly() {
    let chip = presets::xgene3().build();
    let mut cases = 0;
    for nprocs in 1usize..5 {
        for mem_mask in 0u32..1 << nprocs {
            let mut d = Daemon::optimal(&chip);
            let procs: Vec<ProcessView> = (0..nprocs)
                .map(|i| {
                    let class = if mem_mask & (1 << i) != 0 {
                        IntensityClass::MemoryIntensive
                    } else {
                        IntensityClass::CpuIntensive
                    };
                    running(i as u64 + 1, i as u16, class)
                })
                .collect();
            let view = mk_view(&chip, procs);
            let _ = d.on_event(&mk_view(&chip, vec![]), &SysEvent::MonitorTick);
            let prefault = last_voltage(&d.on_event(&view, &SysEvent::ProcessFinished(Pid(99))))
                .expect("expected an undervolt target");

            let fault = SysEvent::OperationFault(FaultNotice::VoltageRefused(prefault));
            for _ in 0..d.config().recovery.safe_mode_threshold {
                let _ = d.on_event(&view, &fault);
            }
            assert_eq!(d.recovery_state(), RecoveryState::SafeMode);

            let total = d.config().recovery.safe_hold_events + d.config().recovery.probation_events;
            let mut last = None;
            for _ in 0..total {
                if let Some(v) =
                    last_voltage(&d.on_event(&view, &SysEvent::ProcessFinished(Pid(99))))
                {
                    last = Some(v);
                }
            }
            assert_eq!(d.recovery_state(), RecoveryState::Optimized);
            assert_eq!(
                last,
                Some(prefault),
                "{nprocs} processes, mem mask {mem_mask:#06b}"
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 30);
}
