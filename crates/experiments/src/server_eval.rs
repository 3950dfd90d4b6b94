//! The system-level evaluation (§VI-B): Figures 14/15 and Tables III/IV.
//!
//! One random server workload per machine is generated and replayed under
//! the four configurations (Baseline / Safe Vmin / Placement / Optimal);
//! the same trace replays under every configuration, which is what makes
//! the rows comparable.

use crate::report::{Cell, Table};
use crate::{Machine, Scale};
use avfs_core::configs::EvalConfig;
use avfs_sched::metrics::RunMetrics;
use avfs_sched::system::{System, SystemConfig};
use avfs_sim::time::SimDuration;
use avfs_telemetry::{Telemetry, TraceKind, Value};
use avfs_workloads::generator::{GeneratorConfig, WorkloadTrace};

/// Results of the four-configuration evaluation on one machine.
#[derive(Debug, Clone)]
pub struct EvalResults {
    /// Which machine.
    pub machine: String,
    /// Metrics per configuration, in [`EvalConfig::ALL`] order.
    pub runs: Vec<(String, RunMetrics)>,
}

impl EvalResults {
    /// The Baseline run's metrics.
    pub fn baseline(&self) -> &RunMetrics {
        &self.runs[0].1
    }

    /// Metrics of a configuration by its table label.
    pub fn config(&self, label: &str) -> Option<&RunMetrics> {
        self.runs
            .iter()
            .find(|(name, _)| name == label)
            .map(|(_, m)| m)
    }
}

/// Runs the §VI-B evaluation for one machine: the same generated trace
/// under all four configurations.
pub fn evaluate(machine: Machine, scale: Scale, seed: u64) -> EvalResults {
    evaluate_with_observer(machine, scale, seed, &Telemetry::null())
}

/// [`evaluate`] with a telemetry handle installed into the **Optimal**
/// run's chip, scheduler, and daemon (the paper's headline
/// configuration; instrumenting all four would interleave their
/// journals on one monotone clock). The run opens with an `Init` trace.
pub fn evaluate_with_observer(
    machine: Machine,
    scale: Scale,
    seed: u64,
    telemetry: &Telemetry,
) -> EvalResults {
    let cores = machine.chip_builder().spec().cores as usize;
    let mut gen = GeneratorConfig::paper_default(cores, seed);
    gen.duration = scale.server_window();
    if scale == Scale::Quick {
        gen.job_scale = 0.25;
    }
    let trace = WorkloadTrace::generate(&gen);
    let runs = EvalConfig::ALL
        .iter()
        .map(|&cfg| {
            let chip = machine.chip_builder().build();
            let run_telemetry = if cfg == EvalConfig::Optimal {
                telemetry.clone()
            } else {
                Telemetry::null()
            };
            run_telemetry.trace(TraceKind::Init, || {
                vec![
                    ("experiment", Value::from("server_eval")),
                    ("machine", Value::from(machine.name())),
                    ("config", Value::from(cfg.label())),
                ]
            });
            let mut driver = cfg.driver_with_observer(&chip, run_telemetry.clone());
            let mut system = System::builder(chip, machine.perf_model())
                .config(SystemConfig::default())
                .observer(run_telemetry)
                .build();
            let metrics = system.run(&trace, driver.as_mut());
            (cfg.label().to_string(), metrics)
        })
        .collect();
    EvalResults {
        machine: machine.name().to_string(),
        runs,
    }
}

/// Tables III/IV: time, average power, energy, savings, and ED2P for the
/// four configurations.
pub fn table3_4(machine: Machine, scale: Scale, seed: u64) -> (Table, EvalResults) {
    table3_4_with_observer(machine, scale, seed, &Telemetry::null())
}

/// [`table3_4`] over [`evaluate_with_observer`]: the Optimal run reports
/// through `telemetry`.
pub fn table3_4_with_observer(
    machine: Machine,
    scale: Scale,
    seed: u64,
    telemetry: &Telemetry,
) -> (Table, EvalResults) {
    let results = evaluate_with_observer(machine, scale, seed, telemetry);
    let table_no = match machine {
        Machine::XGene2 => "III",
        Machine::XGene3 => "IV",
    };
    let mut t = Table::new(
        &format!(
            "table{}-{}",
            table_no.to_lowercase(),
            machine.name().to_lowercase().replace(' ', "")
        ),
        &format!("Table {table_no} — {machine} results for the 4 configurations"),
        &["metric", "Baseline", "Safe Vmin", "Placement", "Optimal"],
    );
    let base = results.baseline().clone();
    let row = |name: &str, f: &dyn Fn(&RunMetrics) -> Cell| {
        let mut cells: Vec<Cell> = vec![name.into()];
        for (_, m) in &results.runs {
            cells.push(f(m));
        }
        cells
    };
    t.push_row(row("Time (s)", &|m| Cell::f(m.makespan.as_secs_f64(), 0)));
    t.push_row(row("Avg. Power (W)", &|m| Cell::f(m.avg_power_w, 2)));
    t.push_row(row("Energy (J)", &|m| Cell::f(m.energy_j, 1)));
    t.push_row(row("Energy Savings (%)", &|m| {
        Cell::f(m.energy_savings_vs(&base) * 100.0, 1)
    }));
    t.push_row(row("ED2P (J·s²)", &|m| Cell::f(m.ed2p(), 0)));
    t.push_row(row("ED2P Savings (%)", &|m| {
        Cell::f(m.ed2p_savings_vs(&base) * 100.0, 1)
    }));
    t.push_row(row("Time penalty (%)", &|m| {
        Cell::f(m.time_penalty_vs(&base) * 100.0, 2)
    }));
    t.push_row(row("Unsafe time (s)", &|m| Cell::f(m.unsafe_time_s, 3)));
    t.push_row(row("Migrations", &|m| Cell::Int(m.migrations as i64)));
    t.push_row(row("Voltage changes", &|m| {
        Cell::Int(m.voltage_changes as i64)
    }));
    (t, results)
}

/// Figure 14: the 1 Hz average-power traces of Baseline vs Optimal,
/// resampled to `bucket_s`-second buckets for compact output.
pub fn fig14(results: &EvalResults, bucket_s: u64) -> Table {
    let base = results.baseline();
    let optimal = results.config("Optimal").expect("optimal run");
    let mut t = Table::new(
        &format!("fig14-{}", results.machine.to_lowercase().replace(' ', "")),
        &format!(
            "Figure 14 — average power (W), Baseline vs Optimal, {}",
            results.machine
        ),
        &["t (s)", "Baseline (W)", "Optimal (W)"],
    );
    let end = base
        .makespan
        .as_secs_f64()
        .max(optimal.makespan.as_secs_f64()) as u64;
    let step = SimDuration::from_secs(bucket_s);
    let start = avfs_sim::time::SimTime::ZERO;
    let horizon = avfs_sim::time::SimTime::from_secs(end);
    let b = base.power_trace.resample(start, horizon, step, 0.0);
    let o = optimal.power_trace.resample(start, horizon, step, 0.0);
    for (i, (pb, po)) in b.iter().zip(o.iter()).enumerate() {
        t.push_row(vec![
            Cell::Int((i as u64 * bucket_s) as i64),
            Cell::f(*pb, 2),
            Cell::f(*po, 2),
        ]);
    }
    t
}

/// Figure 15: system load (running threads) and CPU-/memory-intensive
/// process counts over time for the Optimal run.
pub fn fig15(results: &EvalResults, bucket_s: u64) -> Table {
    let optimal = results.config("Optimal").expect("optimal run");
    let mut t = Table::new(
        &format!("fig15-{}", results.machine.to_lowercase().replace(' ', "")),
        &format!(
            "Figure 15 — system load and process classes (Optimal run), {}",
            results.machine
        ),
        &[
            "t (s)",
            "running threads",
            "CPU-intensive procs",
            "memory-intensive procs",
        ],
    );
    let end = optimal.makespan.as_secs_f64() as u64;
    let step = SimDuration::from_secs(bucket_s);
    let start = avfs_sim::time::SimTime::ZERO;
    let horizon = avfs_sim::time::SimTime::from_secs(end);
    let load = optimal.load_trace.resample(start, horizon, step, 0.0);
    let cpu = optimal.cpu_class_trace.resample(start, horizon, step, 0.0);
    let mem = optimal.mem_class_trace.resample(start, horizon, step, 0.0);
    for i in 0..load.len() {
        t.push_row(vec![
            Cell::Int((i as u64 * bucket_s) as i64),
            Cell::f(load[i], 0),
            Cell::f(cpu[i], 0),
            Cell::f(mem[i], 0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_eval_reproduces_the_paper_shape() {
        let (t, _) = table3_4(Machine::XGene2, Scale::Quick, 7);
        // Optimal saves a substantial fraction of energy...
        let optimal_savings = t.value("Energy Savings (%)", "Optimal").unwrap();
        assert!(optimal_savings > 12.0, "optimal {optimal_savings}%");
        // ...with a small time penalty...
        let penalty = t.value("Time penalty (%)", "Optimal").unwrap();
        assert!((-0.5..=8.0).contains(&penalty), "penalty {penalty}%");
        // ...and zero unsafe time in every configuration.
        for cfg in ["Baseline", "Safe Vmin", "Placement", "Optimal"] {
            assert_eq!(t.value("Unsafe time (s)", cfg), Some(0.0), "{cfg}");
        }
        // Safe Vmin and Placement land between Baseline and Optimal.
        let sv = t.value("Energy Savings (%)", "Safe Vmin").unwrap();
        let pl = t.value("Energy Savings (%)", "Placement").unwrap();
        assert!(sv > 2.0 && sv < optimal_savings);
        assert!(pl > 0.0 && pl < optimal_savings);
    }

    /// Pins the Paper-scale, seed-2024 Tables III/IV rows that
    /// EXPERIMENTS.md and the ROADMAP quote as "measured", so the
    /// documents cannot drift from the code silently. A change that
    /// moves results must update this test and those tables together.
    #[test]
    fn paper_scale_tables_match_the_documented_rows() {
        // (config, energy savings %, time penalty %) per machine.
        let documented = [
            (
                Machine::XGene2,
                [("Placement", 8.6, 1.06), ("Optimal", 30.1, 1.06)],
            ),
            (
                Machine::XGene3,
                [("Placement", 8.2, 0.01), ("Optimal", 20.6, 0.01)],
            ),
        ];
        for (machine, rows) in documented {
            let (t, _) = table3_4(machine, Scale::Paper, 2024);
            for (cfg, savings, penalty) in rows {
                let got = t.value("Energy Savings (%)", cfg).unwrap();
                assert!(
                    (got - savings).abs() <= 0.05,
                    "{machine} {cfg} savings {got}%"
                );
                let got = t.value("Time penalty (%)", cfg).unwrap();
                assert!(
                    (got - penalty).abs() <= 0.05,
                    "{machine} {cfg} penalty {got}%"
                );
            }
        }
    }

    #[test]
    fn same_trace_replays_under_all_configs() {
        let results = evaluate(Machine::XGene2, Scale::Quick, 3);
        // Every run completed the same number of jobs.
        let counts: Vec<usize> = results
            .runs
            .iter()
            .map(|(_, m)| m.completed.len())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert!(counts[0] > 5);
    }

    #[test]
    fn traces_are_renderable() {
        let results = evaluate(Machine::XGene2, Scale::Quick, 5);
        let f14 = fig14(&results, 30);
        let f15 = fig15(&results, 30);
        assert!(f14.rows.len() > 5);
        assert!(f15.rows.len() > 5);
        // Optimal average power below baseline average power.
        let avg = |col: &str, t: &Table| {
            let v = t.column(col);
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg("Optimal (W)", &f14) < avg("Baseline (W)", &f14));
    }
}
