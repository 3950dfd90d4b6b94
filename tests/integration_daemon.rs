//! End-to-end daemon integration: the paper's configurations on the full
//! system simulator.

use avfs_chip::chip::Chip;
use avfs_chip::fault::FaultPlan;
use avfs_chip::presets;
use avfs_chip::Millivolts;
use avfs_core::configs::EvalConfig;
use avfs_core::daemon::Daemon;
use avfs_sched::driver::{Action, DefaultPolicy, Driver, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::system::{System, SystemConfig};
use avfs_sched::RunMetrics;
use avfs_sim::series::TimeSeries;
use avfs_sim::time::{SimDuration, SimTime};
use avfs_workloads::generator::{Arrival, GeneratorConfig, WorkloadTrace};
use avfs_workloads::{Benchmark, PerfModel};

fn trace(cores: usize, seed: u64, secs: u64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(cores, seed);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.job_scale = 0.2;
    WorkloadTrace::generate(&cfg)
}

fn run(machine_is_xg3: bool, t: &WorkloadTrace, cfg: EvalConfig) -> avfs_sched::RunMetrics {
    let (chip, perf) = preset(machine_is_xg3);
    let mut driver = cfg.driver(&chip);
    let mut system = System::new(chip, perf, SystemConfig::default());
    system.run(t, driver.as_mut())
}

#[test]
fn optimal_never_operates_below_safe_vmin() {
    // The paper's central reliability claim, across several seeds and
    // both machines.
    for seed in [1u64, 7, 42] {
        for xg3 in [false, true] {
            let cores = if xg3 { 32 } else { 8 };
            let t = trace(cores, seed, 400);
            let m = run(xg3, &t, EvalConfig::Optimal);
            assert_eq!(m.unsafe_time_s, 0.0, "seed {seed}, xg3={xg3}");
            assert_eq!(m.failures, 0, "seed {seed}, xg3={xg3}");
        }
    }
}

#[test]
fn all_configs_complete_identical_job_sets() {
    let t = trace(8, 3, 400);
    let mut finished: Vec<usize> = Vec::new();
    for cfg in EvalConfig::ALL {
        let m = run(false, &t, cfg);
        finished.push(m.completed.len());
    }
    assert!(finished.windows(2).all(|w| w[0] == w[1]), "{finished:?}");
    assert_eq!(finished[0], t.len());
}

#[test]
fn savings_ordering_matches_the_paper_shape() {
    // Optimal saves the most; both partial configurations save something;
    // time penalties stay small.
    for xg3 in [false, true] {
        let cores = if xg3 { 32 } else { 8 };
        let t = trace(cores, 2024, 600);
        let base = run(xg3, &t, EvalConfig::Baseline);
        let safe = run(xg3, &t, EvalConfig::SafeVmin);
        let plac = run(xg3, &t, EvalConfig::Placement);
        let opt = run(xg3, &t, EvalConfig::Optimal);
        let s = |m: &avfs_sched::RunMetrics| m.energy_savings_vs(&base);
        assert!(s(&opt) > 0.12, "xg3={xg3}: optimal {:.3}", s(&opt));
        assert!(s(&safe) > 0.02, "xg3={xg3}: safe-vmin {:.3}", s(&safe));
        assert!(s(&plac) > 0.0, "xg3={xg3}: placement {:.3}", s(&plac));
        assert!(s(&opt) > s(&safe), "xg3={xg3}");
        assert!(s(&opt) > s(&plac), "xg3={xg3}");
        assert!(
            opt.time_penalty_vs(&base) < 0.08,
            "xg3={xg3}: penalty {:.3}",
            opt.time_penalty_vs(&base)
        );
        // ED2P also improves (the paper's efficiency criterion).
        assert!(opt.ed2p_savings_vs(&base) > 0.10, "xg3={xg3}");
    }
}

#[test]
fn daemon_reacts_to_class_changes_with_migration() {
    // A single memory-intensive job starts (classified CPU by default,
    // placed clustered at fmax) and must be migrated to a reduced-speed
    // PMD once the monitor classifies it.
    let t = WorkloadTrace {
        arrivals: vec![Arrival {
            at: SimTime::ZERO,
            bench: Benchmark::SpecMilc,
            threads: 1,
            scale: 0.2,
        }],
        duration: SimDuration::from_secs(120),
    };
    let chip = presets::xgene3().build();
    let mut daemon = Daemon::optimal(&chip);
    let mut system = System::new(chip, PerfModel::xgene3(), SystemConfig::default());
    let m = system.run(&t, &mut daemon);
    assert_eq!(m.completed.len(), 1);
    assert!(m.migrations >= 1, "no migration happened");
    // The job ran (partly) at reduced frequency: makespan exceeds the
    // all-fmax solo time.
    let solo_at_fmax = PerfModel::xgene3().solo_time_s(&Benchmark::SpecMilc.profile(), 3_000) * 0.2;
    assert!(m.makespan.as_secs_f64() > solo_at_fmax * 1.05);
}

#[test]
fn cpu_jobs_keep_full_speed_under_optimal() {
    // A purely CPU-intensive job must not be slowed by the daemon.
    let t = WorkloadTrace {
        arrivals: vec![Arrival {
            at: SimTime::ZERO,
            bench: Benchmark::SpecNamd,
            threads: 1,
            scale: 0.2,
        }],
        duration: SimDuration::from_secs(200),
    };
    let base = run(false, &t, EvalConfig::Baseline);
    let opt = run(false, &t, EvalConfig::Optimal);
    let rel = opt.makespan.as_secs_f64() / base.makespan.as_secs_f64();
    assert!((0.99..=1.02).contains(&rel), "namd slowed by {rel}");
}

#[test]
fn phased_program_is_reclassified_and_migrated() {
    // gcc alternates compute and memory phases (avfs_workloads::phases);
    // the daemon must observe the flips (event type (b) of §VI-A) and
    // re-place the process at least twice: onto a reduced-speed PMD when
    // it turns memory-intensive, and back when it turns compute-bound.
    let t = WorkloadTrace {
        arrivals: vec![Arrival {
            at: SimTime::ZERO,
            bench: Benchmark::SpecGcc,
            threads: 1,
            scale: 0.6,
        }],
        duration: SimDuration::from_secs(300),
    };
    let chip = presets::xgene3().build();
    let mut daemon = Daemon::optimal(&chip);
    let mut system = System::new(chip, PerfModel::xgene3(), SystemConfig::default());
    let m = system.run(&t, &mut daemon);
    assert_eq!(m.completed.len(), 1);
    assert!(
        m.migrations >= 2,
        "expected phase-driven migrations, got {}",
        m.migrations
    );
    assert_eq!(m.unsafe_time_s, 0.0);
    // Both classes were observed at some point during the run.
    assert!(m.mem_class_trace.max().unwrap_or(0.0) >= 1.0);
    assert!(m.cpu_class_trace.max().unwrap_or(0.0) >= 1.0);
}

#[test]
fn steady_program_is_never_reclassified() {
    // namd has no phases: zero class-driven migrations under Optimal.
    let t = WorkloadTrace {
        arrivals: vec![Arrival {
            at: SimTime::ZERO,
            bench: Benchmark::SpecNamd,
            threads: 1,
            scale: 0.3,
        }],
        duration: SimDuration::from_secs(300),
    };
    let m = run(true, &t, EvalConfig::Optimal);
    assert_eq!(m.completed.len(), 1);
    assert_eq!(m.migrations, 0);
}

#[test]
fn daemon_actions_are_never_rejected() {
    for seed in [5u64, 9] {
        let t = trace(32, seed, 400);
        let chip = presets::xgene3().build();
        let mut daemon = Daemon::optimal(&chip);
        let mut system = System::new(chip, PerfModel::xgene3(), SystemConfig::default());
        let _ = system.run(&t, &mut daemon);
        assert_eq!(system.rejected_actions(), 0, "seed {seed}");
    }
}

#[test]
fn daemon_is_minimally_intrusive() {
    // §VI-A: the daemon's overhead is periodic counter reads plus
    // event-driven placement. Voltage-change traffic must stay far below
    // one change per second.
    let t = trace(32, 11, 600);
    let m = run(true, &t, EvalConfig::Optimal);
    let per_second = m.voltage_changes as f64 / m.makespan.as_secs_f64();
    assert!(per_second < 1.0, "{per_second} voltage changes/s");
    // Migrations stay bounded by a small multiple of the job count.
    assert!(
        (m.migrations as usize) < 6 * m.completed.len(),
        "{} migrations for {} jobs",
        m.migrations,
        m.completed.len()
    );
}

#[test]
fn safe_vmin_is_a_single_static_undervolt() {
    let t = trace(8, 13, 300);
    let m = run(false, &t, EvalConfig::SafeVmin);
    // One voltage change at initialization, none after.
    assert_eq!(m.voltage_changes, 1);
    assert_eq!(m.unsafe_time_s, 0.0);
}

#[test]
fn placement_runs_at_nominal_voltage() {
    let t = trace(8, 17, 300);
    let m = run(false, &t, EvalConfig::Placement);
    assert_eq!(m.voltage_changes, 0);
    assert_eq!(m.unsafe_time_s, 0.0);
}

#[test]
fn results_are_pinned_for_every_configuration() {
    // Bit-exact results for both presets under all four configurations,
    // plus an X-Gene 3 Optimal run with the fail-safe ordering ablated
    // and failure injection on, so the sub-Vmin failure path is pinned
    // too. A change that moves results on purpose re-pins the digest and
    // says so.
    let mut bytes = Vec::new();
    let mut fold = |m: &avfs_sched::RunMetrics| {
        for word in [
            m.energy_j.to_bits(),
            m.makespan.as_nanos(),
            m.migrations,
            m.voltage_changes,
            m.unsafe_time_s.to_bits(),
            m.failures,
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    };
    for xg3 in [false, true] {
        let t = trace(if xg3 { 32 } else { 8 }, 2024, 600);
        for cfg in EvalConfig::ALL {
            fold(&run(xg3, &t, cfg));
        }
    }
    let chip = presets::xgene3().build();
    let mut daemon = Daemon::optimal(&chip);
    daemon.set_fail_safe_ordering(false);
    let config = SystemConfig {
        inject_failures: true,
        ..SystemConfig::default()
    };
    let ablated =
        System::new(chip, PerfModel::xgene3(), config).run(&trace(32, 2024, 600), &mut daemon);
    assert!(ablated.unsafe_time_s > 0.0, "ablated run never went unsafe");
    assert!(ablated.failures > 0, "ablated run injected no failures");
    fold(&ablated);
    let got = avfs_sim::rng::fnv1a_64(&bytes);
    assert_eq!(
        got, 0x4b81_0665_4397_1677,
        "results moved (digest {got:#018x})"
    );
}

fn preset(xg3: bool) -> (Chip, PerfModel) {
    if xg3 {
        (presets::xgene3().build(), PerfModel::xgene3())
    } else {
        (presets::xgene2().build(), PerfModel::xgene2())
    }
}

/// A paper-default trace for one preset: `secs` long, jobs scaled by
/// `job_scale` (1.0 for the paper's mix, 0.05 for churn).
fn paper_trace(xg3: bool, seed: u64, secs: u64, job_scale: f64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(if xg3 { 32 } else { 8 }, seed);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.job_scale = job_scale;
    WorkloadTrace::generate(&cfg)
}

/// `config`'s driver and a system on one preset. With `armed`, a
/// zero-rate fault plan is installed: it injects nothing, but the
/// simulator then delivers every monitor boundary.
fn setup(
    xg3: bool,
    config: EvalConfig,
    sys: SystemConfig,
    armed: bool,
) -> (System, Box<dyn Driver + Send>) {
    let (mut chip, perf) = preset(xg3);
    let driver = config.driver(&chip);
    if armed {
        chip.set_fault_plan(Some(FaultPlan::uniform(0xA11, 0.0)));
    }
    (System::new(chip, perf, sys), driver)
}

/// Replays `t` through the step API: to each arrival, and with `epoch`
/// to every multiple of it as well, then drains. Returns the metrics and
/// the loop iterations.
fn stepped(
    sys: &mut System,
    driver: &mut dyn Driver,
    t: &WorkloadTrace,
    epoch: Option<SimDuration>,
) -> (RunMetrics, u64) {
    let mut st = sys.begin_run(driver);
    let mut grid = SimTime::ZERO;
    let mut arrivals = t.arrivals.iter().peekable();
    while let Some(a) = arrivals.peek() {
        let mut horizon = a.at.max(sys.now());
        if let Some(epoch) = epoch {
            while grid <= sys.now() {
                grid += epoch;
            }
            horizon = horizon.min(grid);
        }
        sys.step_until(&mut st, driver, horizon);
        while let Some(a) = arrivals.next_if(|a| a.at <= sys.now()) {
            sys.inject_arrival(&mut st, driver, a.bench, a.threads, a.scale);
        }
    }
    sys.run_to_completion(&mut st, driver);
    let iterations = st.iterations();
    (sys.finish_run(st), iterations)
}

/// Asserts that two runs agree on every `RunMetrics` field, floats to
/// the bit and the sampled series included.
fn assert_identical(a: &RunMetrics, b: &RunMetrics, what: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}");
    assert_eq!(a, b, "{what}: sampled series differ");
}

#[test]
fn eliding_inert_monitor_boundaries_is_unobservable() {
    // An armed zero-rate fault plan makes the simulator deliver every
    // monitor boundary; without it, boundaries that cannot change
    // anything are elided. Both must agree to the bit on every field,
    // whether driven by `run` or by the step API cut at 250 ms (so where
    // step horizons fall cannot matter either), and the elided runs must
    // really skip work.
    let epoch = SimDuration::from_millis(250);
    let (mut elided, mut delivered) = (0, 0);
    for xg3 in [false, true] {
        for seed in [3u64, 29, 2024] {
            let t = paper_trace(xg3, seed, 600, 1.0);
            for config in EvalConfig::ALL {
                let what = format!("xg3={xg3} seed {seed} {}", config.label());
                let mut reference: Option<RunMetrics> = None;
                for armed in [false, true] {
                    let cfg = SystemConfig::default();
                    let (mut sys, mut d) = setup(xg3, config, cfg.clone(), armed);
                    let (m, iterations) = stepped(&mut sys, d.as_mut(), &t, None);
                    if armed {
                        delivered += iterations;
                    } else {
                        elided += iterations;
                    }
                    let (mut sys, mut d) = setup(xg3, config, cfg.clone(), armed);
                    assert_identical(&m, &sys.run(&t, d.as_mut()), &what);
                    let (mut sys, mut d) = setup(xg3, config, cfg, armed);
                    assert_identical(&m, &stepped(&mut sys, d.as_mut(), &t, Some(epoch)).0, &what);
                    match &reference {
                        Some(r) => assert_identical(r, &m, &what),
                        None => reference = Some(m),
                    }
                }
            }
        }
    }
    assert!(
        elided * 10 <= delivered * 6,
        "elision saved too little: {elided} iterations vs {delivered}"
    );
}

/// Holds the rail at a fixed voltage from the first event on, under the
/// ondemand governor.
struct Undervolt(Vec<Action>);

impl Driver for Undervolt {
    fn on_event(&mut self, _view: &SystemView, _event: &SysEvent) -> Vec<Action> {
        std::mem::take(&mut self.0)
    }

    fn name(&self) -> &str {
        "undervolt"
    }
}

#[test]
fn the_sample_grid_never_moves_a_result() {
    // Samples only read the state: every field except the sampled series
    // must be bit-identical at a 0.25 s, 1 s and 3 s sampling cadence.
    // Covered: both presets under all four configurations, the ablated
    // failure-injecting Optimal run of the results pin, and a rail held
    // below safe Vmin (unsafe-time accounting and failure sampling).
    let agree = |what: &str, run: &dyn Fn(SystemConfig) -> RunMetrics| {
        let runs: Vec<RunMetrics> = [250, 1_000, 3_000]
            .map(|ms| {
                run(SystemConfig {
                    sample_interval: SimDuration::from_millis(ms),
                    inject_failures: true,
                    ..SystemConfig::default()
                })
            })
            .into();
        let unsampled = |m: &RunMetrics| {
            RunMetrics {
                power_trace: TimeSeries::new(),
                load_trace: TimeSeries::new(),
                cpu_class_trace: TimeSeries::new(),
                mem_class_trace: TimeSeries::new(),
                ..m.clone()
            }
            .fingerprint()
        };
        for r in &runs[1..] {
            assert_eq!(unsampled(&runs[0]), unsampled(r), "{what}");
        }
        runs.into_iter().next().expect("three runs")
    };
    for xg3 in [false, true] {
        let t = paper_trace(xg3, 2024, 600, 0.2);
        for config in EvalConfig::ALL {
            let what = format!("xg3={xg3} {}", config.label());
            agree(&what, &|cfg| {
                let (mut sys, mut d) = setup(xg3, config, cfg, false);
                sys.run(&t, d.as_mut())
            });
        }
        let ablated = agree(&format!("xg3={xg3} ablated"), &|cfg| {
            let (chip, perf) = preset(xg3);
            let mut daemon = Daemon::optimal(&chip);
            daemon.set_fail_safe_ordering(false);
            System::new(chip, perf, cfg).run(&t, &mut daemon)
        });
        assert!(
            ablated.unsafe_time_s > 0.0,
            "xg3={xg3}: ablated run never unsafe"
        );
        let undervolt_mv = if xg3 { 790 } else { 850 };
        let mut failures = 0;
        for seed in [11u64, 42, 97] {
            let mut gen = GeneratorConfig::paper_default(if xg3 { 32 } else { 8 }, seed);
            gen.duration = SimDuration::from_secs(120);
            gen.job_scale = 0.15;
            let small = WorkloadTrace::generate(&gen);
            let m = agree(
                &format!("xg3={xg3} {undervolt_mv} mV seed {seed}"),
                &|cfg| {
                    let (chip, perf) = preset(xg3);
                    let mut driver = Undervolt(vec![
                        Action::SetGovernor(GovernorMode::Ondemand),
                        Action::SetVoltage(Millivolts::new(undervolt_mv)),
                    ]);
                    System::new(chip, perf, cfg).run(&small, &mut driver)
                },
            );
            assert!(m.unsafe_time_s > 0.0, "seed {seed}: never unsafe");
            failures += m.failures;
        }
        assert!(failures > 0, "{undervolt_mv} mV injected no failures");
    }
}

/// Runs `config` on `t` with and without every monitor boundary
/// delivered and asserts both runs identical.
fn assert_elision_unobservable(xg3: bool, seed: u64, t: &WorkloadTrace) {
    for config in EvalConfig::ALL {
        let [elided, delivered] = [false, true].map(|armed| {
            let (mut sys, mut d) = setup(xg3, config, SystemConfig::default(), armed);
            sys.run(t, d.as_mut())
        });
        let what = format!("xg3={xg3} seed {seed} {}", config.label());
        assert_identical(&elided, &delivered, &what);
    }
}

#[test]
#[ignore = "release-mode sweep, run by scripts/check.sh"]
fn elision_is_unobservable_on_a_seed_sweep() {
    // 64 seeds of 1-hour paper traces and 16 of churn-scale traces
    // (jobs scaled to 5%), both presets, all four configurations: every
    // run with inert boundaries elided must match the run that delivers
    // every boundary. Split over two threads.
    let cases: Vec<(bool, u64, f64)> = (1..=64)
        .map(|seed| (seed, 1.0))
        .chain((1..=16).map(|seed| (seed, 0.05)))
        .flat_map(|(seed, scale)| [(false, seed, scale), (true, seed, scale)])
        .collect();
    std::thread::scope(|scope| {
        for half in cases.chunks(cases.len().div_ceil(2)) {
            scope.spawn(move || {
                for &(xg3, seed, scale) in half {
                    let t = paper_trace(xg3, seed, 3_600, scale);
                    assert_elision_unobservable(xg3, seed, &t);
                }
            });
        }
    });
}

/// Asserts that every sampled series holds exactly one sample per
/// `interval`, from 0 through the last completion.
fn assert_one_sample_per_interval(m: &RunMetrics, interval: SimDuration, what: &str) {
    let last = SimTime::ZERO + m.makespan;
    let grid: Vec<SimTime> = std::iter::successors(Some(SimTime::ZERO), |&t| Some(t + interval))
        .take_while(|&t| t <= last)
        .collect();
    for series in [
        &m.power_trace,
        &m.load_trace,
        &m.cpu_class_trace,
        &m.mem_class_trace,
    ] {
        assert_eq!(series.times(), &grid[..], "{what}: samples off the grid");
    }
}

/// Ondemand at nominal voltage, stepping the rail down 10 mV on every
/// class flip, so a boundary that flips a class also moves the power.
struct StepDownOnFlip {
    inner: DefaultPolicy,
    mv: u32,
}

impl Driver for StepDownOnFlip {
    fn on_event(&mut self, view: &SystemView, event: &SysEvent) -> Vec<Action> {
        let mut actions = self.inner.on_event(view, event);
        if let SysEvent::ClassChanged(_) = event {
            self.mv -= 10;
            actions.push(Action::SetVoltage(Millivolts::new(self.mv)));
        }
        actions
    }

    fn name(&self) -> &str {
        "step-down-on-flip"
    }
}

#[test]
fn a_sample_reads_its_instant_after_its_events() {
    // On a 400 ms sample grid that matches the monitor grid, job A
    // completes exactly on a sample instant, job B arrives exactly on a
    // later one, and the monitor boundary that first classifies B (and
    // makes the driver lower the rail) falls on the next. Each of those
    // samples must read the state after its instant's events: load,
    // classes and power as the next regime has them.
    let interval = SimDuration::from_millis(400);
    let config = SystemConfig {
        sample_interval: interval,
        ..SystemConfig::default()
    };
    let job = |at: SimTime| Arrival {
        at,
        bench: Benchmark::SpecMilc,
        threads: 1,
        scale: 0.02,
    };
    let run = |arrivals: Vec<Arrival>| {
        let (chip, perf) = preset(false);
        let mut driver = StepDownOnFlip {
            inner: DefaultPolicy::ondemand(),
            mv: 980,
        };
        let trace = WorkloadTrace {
            arrivals,
            duration: SimDuration::from_secs(60),
        };
        System::new(chip, perf, config.clone()).run(&trace, &mut driver)
    };
    // A run alone fixes A's duration; the monitor grid restarts with its
    // arrival after an idle start, so shifting the arrival shifts the
    // completion by the same amount.
    let probe_at = SimTime::from_secs(1);
    let lasted = run(vec![job(probe_at)]).completed[0].finished_at - probe_at;
    let grid_ns = interval.as_nanos();
    let on_grid = |k: u64| SimTime::from_nanos(k * grid_ns);
    let k_done = (probe_at + lasted).as_nanos().div_ceil(grid_ns);
    let done_at = on_grid(k_done);
    let b_at = on_grid(k_done + 2);
    let a_at = SimTime::from_nanos(done_at.as_nanos() - lasted.as_nanos());
    let m = run(vec![job(a_at), job(b_at)]);
    assert_eq!(m.completed[0].finished_at, done_at, "A off the grid");
    assert!(m.completed[1].finished_at > b_at + interval * 3);
    assert_one_sample_per_interval(&m, interval, "scripted trace");

    let at = |t: SimTime| {
        [
            &m.load_trace,
            &m.cpu_class_trace,
            &m.mem_class_trace,
            &m.power_trace,
        ]
        .map(|s| s.value_at(t).expect("sampled"))
    };
    let [load, cpu, mem, idle_w] = at(done_at);
    assert_eq!(
        [load, cpu, mem],
        [0.0, 0.0, 0.0],
        "completion: {:?}",
        at(done_at)
    );
    assert_eq!(at(on_grid(k_done - 1))[..3], [1.0, 0.0, 1.0]);
    assert_eq!(
        at(on_grid(k_done + 1))[3],
        idle_w,
        "completion: not the idle regime"
    );

    let [load, cpu, mem, running_w] = at(b_at);
    assert_eq!([load, cpu, mem], [1.0, 1.0, 0.0], "arrival: {:?}", at(b_at));
    assert_eq!(at(on_grid(k_done + 1)), [0.0, 0.0, 0.0, idle_w]);
    assert!(running_w > idle_w, "arrival: power {running_w} W");

    let flip = on_grid(k_done + 3);
    let [load, cpu, mem, lowered_w] = at(flip);
    assert_eq!(
        [load, cpu, mem],
        [1.0, 0.0, 1.0],
        "boundary: {:?}",
        at(flip)
    );
    assert!(lowered_w < running_w, "boundary: power {lowered_w} W");
    assert_eq!(at(on_grid(k_done + 4))[3], lowered_w);
}

#[test]
fn samples_and_journals_do_not_depend_on_step_horizons() {
    // `run` and the step API cut at 1 s (the fleet's epoch grid, on every
    // sample instant) and at 250 ms must record bit-identical sampled
    // series and byte-identical hub journals, one sample per second from
    // 0 through the last completion.
    let interval = SystemConfig::default().sample_interval;
    for xg3 in [false, true] {
        let t = paper_trace(xg3, 2024, 600, 0.2);
        for optimal in [false, true] {
            let what = format!("xg3={xg3} optimal={optimal}");
            let replay = |epoch: Option<SimDuration>| {
                let (chip, perf) = preset(xg3);
                let telemetry = avfs_telemetry::Telemetry::hub();
                let mut driver: Box<dyn Driver> = if optimal {
                    let mut daemon = Daemon::optimal(&chip);
                    daemon.set_telemetry(telemetry.clone());
                    Box::new(daemon)
                } else {
                    Box::new(DefaultPolicy::ondemand())
                };
                let mut sys = System::builder(chip, perf)
                    .observer(telemetry.clone())
                    .build();
                let m = match epoch {
                    Some(epoch) => stepped(&mut sys, driver.as_mut(), &t, Some(epoch)).0,
                    None => sys.run(&t, driver.as_mut()),
                };
                (m, telemetry.export_jsonl().expect("a hub"))
            };
            let (reference, journal) = replay(None);
            assert_one_sample_per_interval(&reference, interval, &what);
            assert!(
                journal.contains("\"monitor_sample\""),
                "{what}: no samples journaled"
            );
            for ms in [1_000, 250] {
                let (m, j) = replay(Some(SimDuration::from_millis(ms)));
                assert_identical(&reference, &m, &format!("{what} at {ms} ms"));
                assert!(j == journal, "{what}: journals differ at {ms} ms");
            }
        }
    }
}

/// Ondemand, lowering the rail to `low` at the third delivered monitor
/// tick and raising it back to nominal at the next one, with no pin in
/// between; records both ticks' instants.
struct DipOnTick {
    inner: DefaultPolicy,
    low: Millivolts,
    ticks: u32,
    dip: Vec<SimTime>,
}

impl Driver for DipOnTick {
    fn on_event(&mut self, view: &SystemView, event: &SysEvent) -> Vec<Action> {
        let mut actions = self.inner.on_event(view, event);
        if let SysEvent::MonitorTick = event {
            self.ticks += 1;
            let mv = match self.ticks {
                3 => Some(self.low),
                4 => Some(Millivolts::new(view.spec.nominal_mv)),
                _ => None,
            };
            if let Some(mv) = mv {
                self.dip.push(view.now);
                actions.push(Action::SetVoltage(mv));
            }
        }
        actions
    }

    fn name(&self) -> &str {
        "dip-on-tick"
    }
}

#[test]
fn a_voltage_only_change_point_rechecks_safety() {
    // A rail write that moves no core is a change point of its own: the
    // regime after it must re-check the safe Vmin even though the busy
    // cores are the ones the previous regime checked. Unsafe time then
    // accrues over exactly the dip, on both presets.
    for xg3 in [false, true] {
        let (chip, perf) = preset(xg3);
        let mut driver = DipOnTick {
            inner: DefaultPolicy::ondemand(),
            low: Millivolts::new(700),
            ticks: 0,
            dip: Vec::new(),
        };
        let trace = WorkloadTrace {
            arrivals: vec![Arrival {
                at: SimTime::from_secs(1),
                bench: Benchmark::SpecNamd,
                threads: 1,
                scale: 0.05,
            }],
            duration: SimDuration::from_secs(60),
        };
        let m = System::new(chip, perf, SystemConfig::default()).run(&trace, &mut driver);
        let [low, high] = driver.dip[..] else {
            panic!("xg3={xg3}: dip at {:?}", driver.dip);
        };
        assert!(low < high && high < SimTime::ZERO + m.makespan, "xg3={xg3}");
        assert_eq!(m.voltage_changes, 2, "xg3={xg3}");
        assert_eq!(m.unsafe_time_s, (high - low).as_secs_f64(), "xg3={xg3}");
    }
}
