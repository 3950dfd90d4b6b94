//! Telemetry integration properties: the trace journal is a
//! deterministic function of the seeded run, and the daemon's counter
//! snapshots are monotone across invocations.

use avfs_chip::fault::FaultPlan;
use avfs_chip::presets;
use avfs_chip::voltage::Millivolts;
use avfs_chip::{Chip, FreqStep};
use avfs_core::daemon::{Daemon, DaemonStats};
use avfs_sched::driver::{Driver, FaultNotice, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::process::{Pid, ProcessState};
use avfs_sched::system::System;
use avfs_sim::rng::fnv1a_64;
use avfs_sim::time::{SimDuration, SimTime};
use avfs_telemetry::{Histogram, MetricsSnapshot, Telemetry};
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};
use avfs_workloads::PerfModel;

/// One Optimal run of `trace` on `chip` with a hub attached; returns
/// the JSONL journal, the final daemon stats and the hub.
fn traced(chip: Chip, perf: PerfModel, trace: &WorkloadTrace) -> (String, DaemonStats, Telemetry) {
    let telemetry = Telemetry::hub();
    let mut daemon = Daemon::optimal(&chip);
    daemon.set_telemetry(telemetry.clone());
    let mut system = System::builder(chip, perf)
        .observer(telemetry.clone())
        .build();
    let _ = system.run(trace, &mut daemon);
    let jsonl = telemetry.export_jsonl().expect("hub journal");
    (jsonl, daemon.stats(), telemetry)
}

/// One traced X-Gene 2 run over a seeded workload with a seeded fault
/// plan armed.
fn traced_run(seed: u64, rate: f64) -> (String, DaemonStats, Telemetry) {
    let mut cfg = GeneratorConfig::paper_default(8, seed);
    cfg.duration = SimDuration::from_secs(180);
    cfg.job_scale = 0.2;
    let mut chip = presets::xgene2().build();
    chip.set_fault_plan(Some(FaultPlan::uniform(seed, rate)));
    traced(chip, PerfModel::xgene2(), &WorkloadTrace::generate(&cfg))
}

/// Asserts a journal's length, line count and FNV-1a-64 digest, and the
/// run's whole metrics snapshot. Two runs of one binary can only be
/// compared with each other; these fixed values also catch a renderer
/// change that would alter every journal alike.
fn assert_pinned(
    jsonl: &str,
    telemetry: &Telemetry,
    (bytes, lines, digest): (usize, usize, u64),
    counters: &[(&'static str, u64)],
    histograms: &[(&'static str, Histogram)],
) {
    assert_eq!(jsonl.len(), bytes, "journal length");
    assert_eq!(jsonl.lines().count(), lines, "journal lines");
    assert_eq!(fnv1a_64(jsonl.as_bytes()), digest, "journal digest");
    let expected = MetricsSnapshot {
        counters: counters.iter().copied().collect(),
        histograms: histograms.iter().cloned().collect(),
    };
    assert_eq!(telemetry.snapshot(), Some(expected));
}

/// perfbench's `journal` unit 0 at seed 2024: X-Gene 3 under Optimal on
/// the 1-hour `paper_default(32, 2024)` trace.
#[test]
fn the_journal_workloads_first_unit_is_pinned() {
    let trace = WorkloadTrace::generate(&GeneratorConfig::paper_default(32, 2024));
    let (jsonl, _, telemetry) = traced(presets::xgene3().build(), PerfModel::xgene3(), &trace);
    assert_pinned(
        &jsonl,
        &telemetry,
        (806_292, 7_433, 0x64b6_e454_a3a9_02b6),
        &[
            ("chip.mailbox.requests", 246),
            ("chip.mailbox.voltage_sets", 246),
            ("daemon.deferred_pins", 4_317),
            ("daemon.invocations", 2_407),
            ("daemon.pins", 1_620),
            ("daemon.plans", 814),
            ("daemon.voltage_lowers", 117),
            ("daemon.voltage_raises", 129),
            ("sched.actions.applied", 2_989),
            ("sched.events", 2_407),
            ("sched.monitor.delivered", 1_428),
            ("sched.monitor.elided", 6_404),
        ],
        &[(
            "sched.actions_per_event",
            Histogram {
                buckets: [1_779, 595, 33, 0, 0, 0, 0, 0],
                count: 2_407,
                sum: 2_989,
                max: 18,
            },
        )],
    );
}

#[test]
fn a_faulted_journal_is_pinned() {
    let (jsonl, _, telemetry) = traced_run(7, 0.05);
    for kind in ["mailbox_fault", "droop_guard", "watchdog"] {
        assert!(
            jsonl.contains(&format!("\"kind\":\"{kind}\"")),
            "no {kind} record"
        );
    }
    assert_pinned(
        &jsonl,
        &telemetry,
        (110_614, 1_168, 0x9338_4cac_84ca_ec57),
        &[
            ("chip.mailbox.injected_drops", 5),
            ("chip.mailbox.injected_refusals", 3),
            ("chip.mailbox.requests", 133),
            ("chip.mailbox.voltage_sets", 126),
            ("daemon.backoff_us", 773),
            ("daemon.deferred_pins", 122),
            ("daemon.droop_emergencies", 23),
            ("daemon.invocations", 568),
            ("daemon.mailbox_faults", 8),
            ("daemon.pins", 134),
            ("daemon.plans", 150),
            ("daemon.retries", 8),
            ("daemon.voltage_lowers", 67),
            ("daemon.voltage_raises", 67),
            ("daemon.watchdog_fires", 2),
            ("sched.actions.applied", 393),
            ("sched.events", 560),
            ("sched.fault_feedback_events", 8),
            ("sched.fault_notices", 8),
            ("sched.monitor.delivered", 438),
        ],
        &[
            (
                "daemon.backoff_us",
                Histogram {
                    buckets: [0, 0, 4, 4, 0, 0, 0, 0],
                    count: 8,
                    sum: 773,
                    max: 117,
                },
            ),
            (
                "sched.actions_per_event",
                Histogram {
                    buckets: [463, 97, 0, 0, 0, 0, 0, 0],
                    count: 560,
                    sum: 394,
                    max: 8,
                },
            ),
        ],
    );
}

#[test]
fn identical_seeded_runs_emit_byte_identical_journals() {
    let (a, stats_a, _) = traced_run(7, 0.05);
    let (b, stats_b, _) = traced_run(7, 0.05);
    assert!(!a.is_empty(), "traced run recorded nothing");
    assert!(a.lines().count() > 50, "suspiciously small journal");
    assert_eq!(a, b, "identical seeded runs diverged");
    assert_eq!(stats_a, stats_b);
    // A different seed produces a different journal (the trace actually
    // depends on the run, not just on the instrumentation points).
    let (c, _, _) = traced_run(8, 0.05);
    assert_ne!(a, c);
}

#[test]
fn hub_counters_agree_with_the_daemon_stats_snapshot() {
    let (_, stats, telemetry) = traced_run(11, 0.05);
    let snapshot = telemetry.snapshot().expect("hub snapshot");
    assert!(stats.invocations > 0);
    assert_eq!(snapshot.counter("daemon.invocations"), stats.invocations);
    assert_eq!(snapshot.counter("daemon.plans"), stats.plans);
    assert_eq!(snapshot.counter("daemon.pins"), stats.pins);
    assert_eq!(
        snapshot.counter("daemon.mailbox_faults"),
        stats.mailbox_faults
    );
    assert_eq!(snapshot.counter("daemon.retries"), stats.retries);
    assert_eq!(
        snapshot.counter("daemon.safe_mode_entries"),
        stats.safe_mode_entries
    );
    // The backoff histogram observes exactly the retries.
    if stats.retries > 0 {
        let h = snapshot
            .histogram("daemon.backoff_us")
            .expect("backoff histogram");
        assert_eq!(h.count, stats.retries);
        assert_eq!(h.sum, stats.backoff_us);
    }
}

/// `a <= b` field-wise over every counter.
fn stats_le(a: &DaemonStats, b: &DaemonStats) -> bool {
    a.invocations <= b.invocations
        && a.plans <= b.plans
        && a.pins <= b.pins
        && a.voltage_raises <= b.voltage_raises
        && a.voltage_lowers <= b.voltage_lowers
        && a.deferred_pins <= b.deferred_pins
        && a.mailbox_faults <= b.mailbox_faults
        && a.retries <= b.retries
        && a.backoff_us <= b.backoff_us
        && a.safe_mode_entries <= b.safe_mode_entries
        && a.safe_mode_exits <= b.safe_mode_exits
        && a.watchdog_fires <= b.watchdog_fires
        && a.droop_emergencies <= b.droop_emergencies
}

/// A small synthetic view to poke the daemon with.
fn view_at(now_s: u64, with_proc: bool) -> SystemView {
    let chip = presets::xgene2().build();
    let processes = if with_proc {
        vec![avfs_sched::driver::ProcessView {
            pid: Pid(1),
            threads: 2,
            state: ProcessState::Waiting,
            assigned: avfs_chip::topology::CoreSet::EMPTY,
            l3c_per_mcycle: None,
            class: None,
            arrived_at: SimTime::ZERO,
            stalled_until: None,
        }]
    } else {
        Vec::new()
    };
    SystemView {
        now: SimTime::from_secs(now_s),
        spec: chip.spec().clone(),
        voltage: chip.voltage(),
        pmd_steps: vec![FreqStep::MAX; chip.spec().pmds() as usize],
        governor: GovernorMode::Userspace,
        droop_alert: false,
        processes,
    }
}

/// Event `i` of a run is kind `(start + i) % 4`, so the four starting
/// kinds, run for 32 steps each, contain every shorter run as a prefix.
#[test]
fn counter_snapshots_are_monotone_across_invocations() {
    let mut cases = 0;
    for start in 0u64..4 {
        let chip = presets::xgene2().build();
        let mut daemon = Daemon::optimal(&chip);
        let mut prev = daemon.stats();
        assert_eq!(prev, DaemonStats::default());
        for i in 0..32 {
            let pick = (start + i) % 4;
            let event = match pick {
                0 => SysEvent::MonitorTick,
                1 => SysEvent::ProcessArrived(Pid(1)),
                2 => SysEvent::ProcessFinished(Pid(1)),
                _ => SysEvent::OperationFault(FaultNotice::VoltageRefused(Millivolts::new(800))),
            };
            let view = view_at(i, pick == 1);
            let _ = daemon.on_event(&view, &event);
            let cur = daemon.stats();
            assert!(
                stats_le(&prev, &cur),
                "counters regressed at step {i} from offset {start}: {prev} -> {cur}"
            );
            assert_eq!(cur.invocations, prev.invocations + 1);
            prev = cur;
            cases += 1;
        }
    }
    assert_eq!(cases, 128);
}
