//! Cross-crate integration: chip model + workloads + scheduler substrate.

use avfs_chip::chip::Chip;
use avfs_chip::droop::DroopCounts;
use avfs_chip::presets;
use avfs_chip::topology::CoreSet;
use avfs_sched::driver::{Action, DefaultPolicy, Driver, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::system::{System, SystemConfig};
use avfs_sim::time::{SimDuration, SimTime};
use avfs_sim::RngStream;
use avfs_workloads::generator::{Arrival, GeneratorConfig, WorkloadTrace};
use avfs_workloads::{Benchmark, PerfModel};

fn xg2_system() -> System {
    System::new(
        presets::xgene2().build(),
        PerfModel::xgene2(),
        SystemConfig::default(),
    )
}

fn xg3_system() -> System {
    System::new(
        presets::xgene3().build(),
        PerfModel::xgene3(),
        SystemConfig::default(),
    )
}

fn gen_trace(cores: usize, seed: u64, secs: u64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(cores, seed);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.job_scale = 0.2;
    WorkloadTrace::generate(&cfg)
}

#[test]
fn full_runs_are_bit_deterministic() {
    let trace = gen_trace(8, 99, 300);
    let a = xg2_system().run(&trace, &mut DefaultPolicy::ondemand());
    let b = xg2_system().run(&trace, &mut DefaultPolicy::ondemand());
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.power_trace, b.power_trace);
    assert_eq!(a.completed, b.completed);
}

#[test]
fn energy_is_the_integral_of_power() {
    // Cross-check the scalar energy metric against the sampled power
    // trace: a 1 Hz Riemann sum should land within a few percent.
    let trace = gen_trace(8, 5, 400);
    let m = xg2_system().run(&trace, &mut DefaultPolicy::ondemand());
    let trace_sum: f64 = m.power_trace.values().iter().sum();
    let rel = (trace_sum - m.energy_j).abs() / m.energy_j;
    assert!(
        rel < 0.08,
        "trace sum {trace_sum} vs energy {} ({rel})",
        m.energy_j
    );
}

#[test]
fn both_machines_run_the_same_generator_pool() {
    let t2 = gen_trace(8, 1, 300);
    let t3 = gen_trace(32, 1, 300);
    let m2 = xg2_system().run(&t2, &mut DefaultPolicy::ondemand());
    let m3 = xg3_system().run(&t3, &mut DefaultPolicy::ondemand());
    assert_eq!(m2.completed.len(), t2.len());
    assert_eq!(m3.completed.len(), t3.len());
    // The 32-core machine draws more power at similar relative load.
    assert!(m3.avg_power_w > m2.avg_power_w);
}

#[test]
fn performance_governor_beats_powersave_on_makespan() {
    let trace = gen_trace(8, 21, 300);
    let fast = xg2_system().run(
        &trace,
        &mut DefaultPolicy::with_governor(GovernorMode::Performance),
    );
    let slow = xg2_system().run(
        &trace,
        &mut DefaultPolicy::with_governor(GovernorMode::Powersave),
    );
    assert!(
        slow.makespan > fast.makespan,
        "powersave {} !> performance {}",
        slow.makespan,
        fast.makespan
    );
    // And the trade is visible in average power.
    assert!(slow.avg_power_w < fast.avg_power_w);
}

#[test]
fn mixed_job_sizes_and_threads_all_complete() {
    let arrivals = vec![
        Arrival {
            at: SimTime::ZERO,
            bench: Benchmark::NpbCg,
            threads: 8,
            scale: 0.1,
        },
        Arrival {
            at: SimTime::from_secs(2),
            bench: Benchmark::SpecNamd,
            threads: 1,
            scale: 0.05,
        },
        Arrival {
            at: SimTime::from_secs(4),
            bench: Benchmark::NpbEp,
            threads: 4,
            scale: 0.08,
        },
        Arrival {
            at: SimTime::from_secs(4),
            bench: Benchmark::SpecMcf,
            threads: 1,
            scale: 0.2,
        },
    ];
    let trace = WorkloadTrace {
        arrivals,
        duration: SimDuration::from_secs(300),
    };
    let mut sys = xg3_system();
    let m = sys.run(&trace, &mut DefaultPolicy::ondemand());
    assert_eq!(m.completed.len(), 4);
    assert_eq!(sys.live_processes(), 0);
    assert_eq!(sys.rejected_actions(), 0);
}

#[test]
fn oversubscription_queues_and_eventually_drains() {
    // 3× more single-thread jobs than cores, all at t=0.
    let arrivals: Vec<Arrival> = (0..24)
        .map(|i| Arrival {
            at: SimTime::ZERO,
            bench: if i % 2 == 0 {
                Benchmark::SpecHmmer
            } else {
                Benchmark::SpecLbm
            },
            threads: 1,
            scale: 0.05,
        })
        .collect();
    let trace = WorkloadTrace {
        arrivals,
        duration: SimDuration::from_secs(1_000),
    };
    let mut sys = xg2_system();
    let m = sys.run(&trace, &mut DefaultPolicy::ondemand());
    assert_eq!(m.completed.len(), 24);
    // Concurrency never exceeded the core count.
    assert!(m.load_trace.max().unwrap_or(0.0) <= 8.0);
}

/// The ondemand baseline, keeping a copy of every view it is shown:
/// what a monitoring daemon observes of a run.
struct Recorder {
    inner: DefaultPolicy,
    views: Vec<SystemView>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            inner: DefaultPolicy::ondemand(),
            views: Vec::new(),
        }
    }

    /// Droop counts over the recorded run. Each view's busy cores are
    /// the allocation until the next event; the chip's droop model is
    /// sampled at that allocation's droop class for the interval's fmax
    /// cycles.
    fn droops(&self, chip: &Chip, activity: f64) -> DroopCounts {
        let mut rng = RngStream::from_root(2024, "droops");
        let mut droops = DroopCounts::default();
        for pair in self.views.windows(2) {
            let busy = pair[0].busy_cores();
            if busy.is_empty() {
                continue;
            }
            let class = chip
                .vmin_model()
                .droop_class(busy.utilized_pmds(chip.spec()).len());
            let dt = pair[1].now.saturating_since(pair[0].now).as_secs_f64();
            let cycles = (f64::from(chip.spec().fmax_mhz) * 1e6 * dt) as u64;
            droops.add(&chip.droop_model().sample(class, activity, cycles, &mut rng));
        }
        droops
    }
}

impl Driver for Recorder {
    fn on_event(&mut self, view: &SystemView, event: &SysEvent) -> Vec<Action> {
        self.views.push(view.clone());
        self.inner.on_event(view, event)
    }

    fn name(&self) -> &str {
        "recorder"
    }
}

#[test]
fn pmu_counters_reflect_execution() {
    // The daemon reads each process's L3 accesses per 1M cycles over a
    // monitoring window. milc is memory-intensive: the rate it sees must
    // exceed the classification threshold.
    let trace = WorkloadTrace {
        arrivals: vec![Arrival {
            at: SimTime::ZERO,
            bench: Benchmark::SpecMilc,
            threads: 1,
            scale: 0.1,
        }],
        duration: SimDuration::from_secs(120),
    };
    let mut recorder = Recorder::new();
    let _ = xg2_system().run(&trace, &mut recorder);
    let rates: Vec<f64> = recorder
        .views
        .iter()
        .flat_map(|v| &v.processes)
        .filter_map(|p| p.l3c_per_mcycle)
        .collect();
    assert!(!rates.is_empty(), "no monitoring window closed");
    for rate in rates {
        assert!(rate > 3_000.0, "milc observed at {rate} L3/Mcycle");
    }
}

#[test]
fn droop_counters_track_utilization_width() {
    // Sampled over the allocations the kernel places, a full-chip run
    // reaches the top droop band; a single-PMD run does not.
    let full = WorkloadTrace {
        arrivals: (0..8)
            .map(|_| Arrival {
                at: SimTime::ZERO,
                bench: Benchmark::NpbLu,
                threads: 1,
                scale: 0.1,
            })
            .collect(),
        duration: SimDuration::from_secs(300),
    };
    let narrow = WorkloadTrace {
        arrivals: vec![Arrival {
            at: SimTime::ZERO,
            bench: Benchmark::NpbLu,
            threads: 1,
            scale: 0.1,
        }],
        duration: SimDuration::from_secs(300),
    };
    let activity = Benchmark::NpbLu.profile().activity;
    let chip = presets::xgene2().build();
    let mut full_run = Recorder::new();
    let _ = xg2_system().run(&full, &mut full_run);
    let mut narrow_run = Recorder::new();
    let _ = xg2_system().run(&narrow, &mut narrow_run);
    let top = avfs_chip::DroopClass::D55;
    let full_droops = full_run.droops(&chip, activity);
    let narrow_droops = narrow_run.droops(&chip, activity);
    assert!(full_droops.in_band(top) > 0);
    assert_eq!(narrow_droops.in_band(top), 0);
}

#[test]
fn nominal_runs_are_always_safe() {
    for seed in [1u64, 2, 3] {
        let trace = gen_trace(32, seed, 300);
        let m = xg3_system().run(&trace, &mut DefaultPolicy::ondemand());
        assert_eq!(m.unsafe_time_s, 0.0, "seed {seed}");
        assert_eq!(m.failures, 0, "seed {seed}");
    }
}

#[test]
fn busy_cores_reported_through_view_match_system() {
    let mut sys = xg2_system();
    let pid = sys.submit(Benchmark::SpecGcc, 2, 0.1);
    // Nothing is running until a trace/run admits it.
    assert_eq!(sys.busy_cores(), CoreSet::EMPTY);
    let _ = pid;
}
