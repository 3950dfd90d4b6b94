//! Coarse wall-clock guard for the telemetry seam: a daemon replan with
//! the default null telemetry must be repeatable and must not cost
//! several times a replan with a hub.
//!
//! Absolute thresholds would be machine-dependent, so both checks here are
//! **self-relative** within one process, each on the mean of 400 full
//! replans:
//!
//! * the null path is repeatable — two interleaved null measurements
//!   agree within 3× plus 20 µs, and
//! * the null path costs at most 3× the hub path plus 20 µs.
//!
//! So the guard fails only when a null replan is erratic or costs
//! several times a hub replan. A null path that did the hub's work would
//! pass, and so did a null hook that was a real call of a few ns instead
//! of an inlined branch. perfbench's `characterize` workload, which
//! fires three null hooks per stress probe, is the wall-clock witness of
//! the null path. Functional zero cost (the `trace` and `with_hub`
//! closures never run on a null handle) is asserted in
//! `avfs-telemetry`'s unit tests, and zero allocations by the allocation
//! gate.

use avfs_chip::presets;
use avfs_chip::topology::{CoreId, CoreSet};
use avfs_core::daemon::Daemon;
use avfs_sched::driver::{Driver, ProcessView, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::process::{Pid, ProcessState};
use avfs_sim::time::SimTime;
use avfs_telemetry::Telemetry;
use avfs_workloads::classify::IntensityClass;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The replan view the daemon benchmarks use: 32 running processes.
fn full_view() -> SystemView {
    let chip = presets::xgene3().build();
    let processes = (0..32u64)
        .map(|i| ProcessView {
            pid: Pid(i),
            threads: 1,
            state: ProcessState::Running,
            assigned: {
                let mut cs = CoreSet::EMPTY;
                cs.insert(CoreId::new(i as u16));
                cs
            },
            l3c_per_mcycle: Some(if i % 2 == 0 { 200.0 } else { 15_000.0 }),
            class: Some(if i % 2 == 0 {
                IntensityClass::CpuIntensive
            } else {
                IntensityClass::MemoryIntensive
            }),
            arrived_at: SimTime::ZERO,
            stalled_until: None,
        })
        .collect();
    SystemView {
        now: SimTime::from_secs(10),
        spec: chip.spec().clone(),
        voltage: chip.voltage(),
        pmd_steps: vec![avfs_chip::FreqStep::MAX; 16],
        governor: GovernorMode::Userspace,
        droop_alert: false,
        processes,
    }
}

/// Mean per-event time of `iters` replans on a daemon with `telemetry`.
fn time_daemon(telemetry: Telemetry, view: &SystemView, iters: u32) -> Duration {
    let chip = presets::xgene3().build();
    let mut daemon = Daemon::optimal(&chip);
    daemon.set_telemetry(telemetry);
    let _ = daemon.on_event(view, &SysEvent::MonitorTick);
    // Warm up caches and the allocator outside the timed window.
    for _ in 0..iters / 4 {
        black_box(daemon.on_event(view, &SysEvent::ProcessFinished(Pid(999))));
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(daemon.on_event(view, &SysEvent::ProcessFinished(Pid(999))));
    }
    start.elapsed() / iters
}

#[test]
fn null_observer_hot_path_is_within_noise() {
    let view = full_view();
    const ITERS: u32 = 400;

    // Interleave the measurements so slow machine-wide drift (thermal,
    // CI neighbors) hits both sides equally.
    let null_a = time_daemon(Telemetry::null(), &view, ITERS);
    let hub_a = time_daemon(Telemetry::hub(), &view, ITERS);
    let null_b = time_daemon(Telemetry::null(), &view, ITERS);
    let hub_b = time_daemon(Telemetry::hub(), &view, ITERS);

    let null = (null_a + null_b) / 2;
    let hub = (hub_a + hub_b) / 2;
    assert!(null > Duration::ZERO, "timer resolution too coarse");

    // Repeatability: the two null measurements bound this run's noise.
    // Factor 3 is deliberately loose — a shared CI box is noisy, and the
    // guard is after order-of-magnitude regressions (an accidentally
    // always-allocating trace path), not single-digit percents.
    let (lo, hi) = (null_a.min(null_b), null_a.max(null_b));
    assert!(
        hi <= lo * 3 + Duration::from_micros(20),
        "null path not repeatable: {null_a:?} vs {null_b:?}"
    );

    // The null path must not cost more than the fully-observed path
    // plus noise: if it does, the "disabled" branch is doing real work.
    assert!(
        null <= hub * 3 + Duration::from_micros(20),
        "null-telemetry path ({null:?}) costs more than the hub path ({hub:?})"
    );
}
