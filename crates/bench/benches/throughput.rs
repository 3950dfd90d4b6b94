//! Event-throughput benches with a persistent baseline: the
//! highest-numbered `BENCH_<n>.json` at the repo root.
//!
//! Custom harness: measures end-to-end event throughput —
//! simulator events/sec under the Optimal daemon, fleet epochs/sec on
//! 4 nodes, characterization-campaign cells/sec on the
//! X-Gene 2 preset, and daemon replans/sec with the decision cache
//! on vs off — plus per-component microbenches (calendar-queue ops/sec,
//! power-LUT evaluations/sec) so a regression localizes to the layer
//! that caused it, and verifies the cache is *transparent* (telemetry
//! JSONL digests byte-identical cache-on vs cache-off on both presets).
//!
//! Modes:
//!
//! * default — measure and print the JSON report to stdout;
//! * `--write` — also persist the report over that baseline (the
//!   committed file the smoke gate compares against);
//! * `--smoke` — quick re-measure, compared against the committed
//!   baseline; exits non-zero if any throughput metric regressed by more
//!   than 20% (a metric the baseline lacks is reported as new);
//! * `--compare <baseline.json>` — A/B mode: measure, then print a
//!   per-metric delta table against the given baseline file (no gate).

use avfs_chip::presets::{self};
use avfs_chip::topology::{CoreId, CoreSet};
use avfs_chip::{Chip, FreqStep};
use avfs_core::daemon::Daemon;
use avfs_fleet::{EnergyAware, Fleet, NodeConfig, NodeKind};
use avfs_sched::driver::{Driver, ProcessView, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::process::{Pid, ProcessState};
use avfs_sched::system::System;
use avfs_sim::time::{SimDuration, SimTime};
use avfs_telemetry::Telemetry;
use avfs_workloads::classify::IntensityClass;
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};
use avfs_workloads::PerfModel;
use std::path::PathBuf;
use std::time::Instant;

/// Smoke gate: fail when a throughput metric drops below this fraction
/// of the committed baseline.
const SMOKE_FLOOR: f64 = 0.80;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The committed baseline: the highest-numbered `BENCH_<n>.json` at the
/// repo root, or `BENCH_1.json` when there is none yet.
fn latest_baseline() -> PathBuf {
    let root = repo_root();
    let newest = std::fs::read_dir(&root)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let n = name
                .to_str()?
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?;
            n.parse::<u32>().ok()
        })
        .max()
        .unwrap_or(1);
    root.join(format!("BENCH_{newest}.json"))
}

fn trace(cores: usize, seed: u64, secs: u64) -> WorkloadTrace {
    let mut cfg = GeneratorConfig::paper_default(cores, seed);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.job_scale = if cores >= 32 { 0.15 } else { 0.2 };
    WorkloadTrace::generate(&cfg)
}

fn preset_chip(name: &str) -> (Chip, PerfModel) {
    match name {
        "xgene2" => (presets::xgene2().build(), PerfModel::xgene2()),
        _ => (presets::xgene3().build(), PerfModel::xgene3()),
    }
}

/// Simulator events/sec: one full Optimal run driven through the
/// incremental stepping API so [`avfs_sched::RunState::iterations`]
/// counts every event-loop iteration. Best wall time of `reps`.
fn sim_events_per_sec(preset: &str, reps: usize) -> (f64, u64) {
    let t = trace(8, 5, 300);
    let mut best = f64::MAX;
    let mut events = 0u64;
    for _ in 0..reps {
        let (chip, perf) = preset_chip(preset);
        let mut daemon = Daemon::optimal(&chip);
        let mut system = System::builder(chip, perf).build();
        let t0 = Instant::now();
        let mut st = system.begin_run(&mut daemon);
        for a in &t.arrivals {
            system.step_until(&mut st, &mut daemon, a.at);
            system.inject_arrival(&mut st, &mut daemon, a.bench, a.threads, a.scale);
        }
        system.run_to_completion(&mut st, &mut daemon);
        events = st.iterations();
        let _ = system.finish_run(st);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (events as f64 / best, events)
}

/// Fleet epochs/sec on the reference shape: 4 heterogeneous nodes, 1 s
/// epochs, energy-aware routing.
fn fleet_epochs_per_sec(reps: usize) -> (f64, u64) {
    let t = trace(32, 7, 120);
    let mut best = f64::MAX;
    let mut epochs = 0u64;
    for _ in 0..reps {
        let fleet = Fleet::builder()
            .node(NodeConfig::new(NodeKind::XGene2, 101))
            .node(NodeConfig::new(NodeKind::XGene2, 102))
            .node(NodeConfig::new(NodeKind::XGene3, 103))
            .node(NodeConfig::new(NodeKind::XGene3, 104))
            .build();
        let t0 = Instant::now();
        let summary = fleet.run(&t, &mut EnergyAware::new());
        let wall = t0.elapsed().as_secs_f64();
        // 1 s epochs: the epoch count is the drain time in whole seconds.
        epochs = summary.cluster_makespan.as_secs_f64().ceil() as u64;
        best = best.min(wall);
    }
    (epochs as f64 / best, epochs)
}

/// Characterization-campaign cells/sec: a full measured-margin campaign
/// on the X-Gene 2 preset (36 cells, ~4-5k stress probes), compiled to
/// a policy table to keep the whole pipeline on the measured path.
/// Best wall time of `reps`.
fn campaign_cells_per_sec(reps: usize) -> (f64, u64) {
    use avfs_characterize::{Campaign, CampaignConfig, TableCompiler};
    let campaign = Campaign::new(CampaignConfig::new(7));
    let mut best = f64::MAX;
    let mut cells = 0u64;
    for _ in 0..reps {
        let mut chip = presets::xgene2().build();
        let t0 = Instant::now();
        let map = campaign.run(&mut chip).unwrap_or_else(|e| {
            panic!("campaign aborted on a fault-free chip: {e}");
        });
        let table = TableCompiler::default()
            .compile(&map)
            .unwrap_or_else(|e| panic!("margin map failed to compile: {e}"));
        let wall = t0.elapsed().as_secs_f64();
        std::hint::black_box(table);
        cells = map.cells.len() as u64;
        best = best.min(wall);
    }
    (cells as f64 / best, cells)
}

/// Calendar-queue ops/sec: a hold-model churn (schedule one, pop one)
/// over a standing population, with deterministic pseudo-random
/// horizons spanning ties, in-wheel buckets, and the overflow level.
fn queue_ops_per_sec(reps: usize) -> f64 {
    use avfs_sim::EventQueue;
    const POPULATION: u64 = 1_024;
    const CHURN: u64 = 1_000_000;
    let mut best = f64::MAX;
    for _ in 0..reps {
        let mut q = EventQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut horizon = |now: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // 0..128 ms ahead: ties (coarse grain), buckets, overflow.
            now + (x >> 33) % 128_000_000
        };
        let mut now = 0u64;
        for i in 0..POPULATION {
            q.schedule(SimTime::from_nanos(horizon(now)), i);
        }
        let t0 = Instant::now();
        for i in 0..CHURN {
            q.schedule(SimTime::from_nanos(horizon(now)), i);
            let e = q.pop().expect("standing population");
            now = now.max(e.time.as_nanos());
            std::hint::black_box(e.seq);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (2 * CHURN) as f64 / best
}

/// Power-LUT evaluations/sec: table-path `power_w` over a rotating set
/// of in-domain operating points on the X-Gene 2 preset.
fn power_lut_evals_per_sec(reps: usize) -> f64 {
    use avfs_chip::power::{PmdLoad, PowerInputs};
    use avfs_chip::voltage::Millivolts;
    const EVALS: u64 = 1_000_000;
    let chip = presets::xgene2().build();
    let spec = chip.spec().clone();
    let lut = chip.power_lut();
    let step_mhz: Vec<u32> = FreqStep::all()
        .map(|s| s.frequency(spec.fmax()).as_mhz())
        .collect();
    let mut best = f64::MAX;
    for _ in 0..reps {
        let mut inputs = PowerInputs {
            voltage: Millivolts::new(spec.nominal_mv),
            pmd_loads: vec![PmdLoad::IDLE; spec.pmds() as usize],
            mem_traffic: 0.4,
        };
        let t0 = Instant::now();
        let mut acc = 0.0f64;
        for i in 0..EVALS {
            let i = i as usize;
            let mv = spec.vreg_floor_mv + (i % 64) as u32 * 5;
            inputs.voltage = Millivolts::new(mv.min(spec.nominal_mv));
            for (p, load) in inputs.pmd_loads.iter_mut().enumerate() {
                *load = PmdLoad {
                    freq_mhz: step_mhz[(i + p) % step_mhz.len()],
                    active_cores: ((i + p) % (spec.cores_per_pmd as usize + 1)) as u8,
                    activity: 0.75,
                };
            }
            acc += lut.power_w(&inputs);
        }
        std::hint::black_box(acc);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    EVALS as f64 / best
}

/// A realistic 32-process view for the replan-rate measurement.
fn full_view(chip: &Chip) -> SystemView {
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
        pmd_steps: vec![FreqStep::MAX; 16],
        governor: GovernorMode::Userspace,
        droop_alert: false,
        processes,
    }
}

/// Replans/sec on a recurring 32-process view, with the decision cache
/// on or off. Returns the rate and the cache's `(hits, misses)`.
fn replans_per_sec(cache: bool, iters: u32) -> (f64, (u64, u64)) {
    let chip = presets::xgene3().build();
    let view = full_view(&chip);
    let mut daemon = Daemon::optimal(&chip);
    daemon.set_decision_cache(cache);
    let _ = daemon.on_event(&view, &SysEvent::MonitorTick);
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(daemon.on_event(&view, &SysEvent::ProcessFinished(Pid(999))));
    }
    let wall = t0.elapsed().as_secs_f64();
    (f64::from(iters) / wall, daemon.decision_cache_stats())
}

/// Byte-identity: the telemetry journal of a cached Optimal run equals
/// the forced-miss journal on `preset`. Returns the cache's hit count.
fn cache_transparent(preset: &str) -> (bool, u64, u64) {
    let run = |cache: bool| {
        let telemetry = Telemetry::hub();
        let (chip, perf) = preset_chip(preset);
        let mut daemon = Daemon::optimal(&chip);
        daemon.set_decision_cache(cache);
        daemon.set_telemetry(telemetry.clone());
        let mut system = System::builder(chip, perf)
            .observer(telemetry.clone())
            .build();
        let metrics = system.run(&trace(8, 42, 120), &mut daemon);
        let jsonl = telemetry.export_jsonl().unwrap_or_default();
        (jsonl, metrics, daemon.decision_cache_stats())
    };
    let (j_on, m_on, (hits, misses)) = run(true);
    let (j_off, m_off, _) = run(false);
    let equal = j_on == j_off && m_on.energy_j.to_bits() == m_off.energy_j.to_bits();
    (equal, hits, misses)
}

struct Measured {
    sim_eps_xgene2: f64,
    sim_events_xgene2: u64,
    sim_eps_xgene3: f64,
    sim_events_xgene3: u64,
    fleet_eps: f64,
    fleet_epochs: u64,
    campaign_cps: f64,
    campaign_cells: u64,
    replans_cache_on: f64,
    replans_cache_off: f64,
    queue_ops: f64,
    power_lut_evals: f64,
    cache_hits: u64,
    cache_misses: u64,
    digest_equal_xgene2: bool,
    digest_equal_xgene3: bool,
}

fn measure(reps: usize) -> Measured {
    let (sim_eps_xgene2, sim_events_xgene2) = sim_events_per_sec("xgene2", reps);
    let (sim_eps_xgene3, sim_events_xgene3) = sim_events_per_sec("xgene3", reps);
    let (fleet_eps, fleet_epochs) = fleet_epochs_per_sec(reps);
    let (campaign_cps, campaign_cells) = campaign_cells_per_sec(reps);
    let (replans_cache_on, _) = replans_per_sec(true, 20_000);
    let (replans_cache_off, _) = replans_per_sec(false, 20_000);
    let queue_ops = queue_ops_per_sec(reps);
    let power_lut_evals = power_lut_evals_per_sec(reps);
    let (digest_equal_xgene2, hits2, misses2) = cache_transparent("xgene2");
    let (digest_equal_xgene3, hits3, misses3) = cache_transparent("xgene3");
    Measured {
        sim_eps_xgene2,
        sim_events_xgene2,
        sim_eps_xgene3,
        sim_events_xgene3,
        fleet_eps,
        fleet_epochs,
        campaign_cps,
        campaign_cells,
        replans_cache_on,
        replans_cache_off,
        queue_ops,
        power_lut_evals,
        cache_hits: hits2 + hits3,
        cache_misses: misses2 + misses3,
        digest_equal_xgene2,
        digest_equal_xgene3,
    }
}

/// Every throughput metric as `(key, value)` — one source of truth for
/// the report, the smoke gate, and the `--compare` delta table.
fn metric_table(m: &Measured) -> [(&'static str, f64); 8] {
    [
        ("sim_events_per_sec_xgene2", m.sim_eps_xgene2),
        ("sim_events_per_sec_xgene3", m.sim_eps_xgene3),
        ("fleet_epochs_per_sec_4n", m.fleet_eps),
        ("campaign_cells_per_sec_xgene2", m.campaign_cps),
        ("daemon_replans_per_sec_cache_on", m.replans_cache_on),
        ("daemon_replans_per_sec_cache_off", m.replans_cache_off),
        ("queue_ops_per_sec", m.queue_ops),
        ("power_lut_evals_per_sec", m.power_lut_evals),
    ]
}

fn render_json(m: &Measured) -> String {
    let hit_rate = m.cache_hits as f64 / (m.cache_hits + m.cache_misses).max(1) as f64;
    let mut out = String::from("{\n  \"schema\": \"avfs-bench-9/v1\",\n  \"metrics\": {\n");
    let metrics = metric_table(m);
    for (i, (key, value)) in metrics.iter().enumerate() {
        let sep = if i + 1 < metrics.len() { "," } else { "" };
        out.push_str(&format!("    \"{key}\": {value:.0}{sep}\n"));
    }
    out.push_str(&format!(
        "  }},\n  \
         \"events\": {{\"sim_xgene2\": {}, \"sim_xgene3\": {}, \"fleet_epochs\": {}, \"campaign_cells\": {}}},\n  \
         \"speedup\": {{\"daemon_replan_cache\": {:.2}}},\n  \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3}}},\n  \
         \"identity\": {{\"telemetry_digest_equal_xgene2\": {}, \
         \"telemetry_digest_equal_xgene3\": {}}}\n}}\n",
        m.sim_events_xgene2,
        m.sim_events_xgene3,
        m.fleet_epochs,
        m.campaign_cells,
        m.replans_cache_on / m.replans_cache_off,
        m.cache_hits,
        m.cache_misses,
        hit_rate,
        m.digest_equal_xgene2,
        m.digest_equal_xgene3,
    ));
    out
}

/// Pulls `"key": <number>` out of the committed baseline (the report's
/// key set is static and flat, so a scan beats a JSON parser here).
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn smoke(m: &Measured, baseline: &str) -> Result<(), String> {
    let mut failures = Vec::new();
    for (key, now) in metric_table(m) {
        let Some(was) = extract_number(baseline, key) else {
            println!("smoke new: {key} {now:.0}/s (not in the baseline)");
            continue;
        };
        let floor = was * SMOKE_FLOOR;
        if now < floor {
            failures.push(format!(
                "{key}: {now:.0}/s is below {:.0}% of the baseline {was:.0}/s",
                SMOKE_FLOOR * 100.0
            ));
        } else {
            println!("smoke ok: {key} {now:.0}/s (baseline {was:.0}/s)");
        }
    }
    if !m.digest_equal_xgene2 || !m.digest_equal_xgene3 {
        failures.push("telemetry digest diverged under caching".to_string());
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// `--compare` A/B mode: per-metric deltas against an arbitrary
/// baseline report (e.g. one written on another branch with
/// `scripts/bench.sh --write`). Informational — never fails.
fn compare(m: &Measured, baseline: &str, label: &str) {
    println!("A/B vs {label}:");
    for (key, now) in metric_table(m) {
        match extract_number(baseline, key) {
            Some(was) if was > 0.0 => {
                let delta = (now / was - 1.0) * 100.0;
                println!("  {key}: {was:.0}/s -> {now:.0}/s ({delta:+.1}%)");
            }
            _ => println!("  {key}: new -> {now:.0}/s"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `cargo bench` passes `--bench`; ignore everything we don't know.
    let write = args.iter().any(|a| a == "--write");
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    // Cargo runs bench binaries from the package root, so resolve
    // relative baselines against the repo root when they don't exist
    // as given (lets `scripts/bench.sh --compare BENCH_8.json` work).
    let compare_path = args
        .windows(2)
        .find(|w| w[0] == "--compare")
        .map(|w| PathBuf::from(&w[1]))
        .map(|p| {
            if p.is_relative() && !p.exists() {
                repo_root().join(&p)
            } else {
                p
            }
        });
    let baseline_path = latest_baseline();

    let m = measure(if smoke_mode || compare_path.is_some() {
        2
    } else {
        3
    });
    assert!(
        m.digest_equal_xgene2 && m.digest_equal_xgene3,
        "decision cache changed the telemetry journal"
    );
    assert!(m.cache_hits > 0, "decision cache never hit");

    let report = render_json(&m);
    print!("{report}");

    if let Some(path) = &compare_path {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("no baseline at {}: {e}", path.display()));
        compare(&m, &baseline, &path.display().to_string());
    } else if smoke_mode {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("no committed {}: {e}", baseline_path.display()));
        if let Err(failures) = smoke(&m, &baseline) {
            eprintln!("bench smoke gate FAILED:\n{failures}");
            std::process::exit(1);
        }
        println!("bench smoke gate passed");
    } else if write {
        std::fs::write(&baseline_path, &report)
            .unwrap_or_else(|e| panic!("writing {}: {e}", baseline_path.display()));
        println!("wrote {}", baseline_path.display());
    }
}
