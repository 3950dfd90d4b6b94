//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! exp [--quick] [--smoke] [--csv DIR] [--seed N] [--trace FILE] <id>...
//! exp all                # every paper artifact (see note below)
//! exp table3 table4      # just the headline tables
//! exp resilience --smoke # short seeded fault soak (CI gate)
//! exp fleet --smoke      # quick cluster eval + determinism gate
//! exp resilience --smoke --trace out.jsonl  # + trace journal & summary
//! ```
//!
//! Artifact ids: `table1 table2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//! fig11 fig12 fig14 fig15 table3 table4 ablations resilience fleet
//! characterize`.
//!
//! `all` intentionally excludes the slow ids — `ablations`,
//! `resilience`, `fleet`, and `characterize` — which run long sweeps,
//! whole-cluster simulations, or measurement campaigns; request those
//! explicitly. Unknown ids are rejected before anything runs, with a
//! nonzero exit and the closest matches.
//!
//! `--smoke` implies `--quick` and trims the resilience sweep to its
//! rate-0 anchor plus the 5% acceptance point on one machine; the
//! resilience id exits nonzero if any run fails its acceptance checks
//! (all jobs drained, safe end state, strictly positive savings). The
//! fleet id likewise exits nonzero when a policy run breaks job
//! conservation, operates unsafely, loses to round-robin on energy, or
//! diverges on a same-seed rerun. The characterize id trims to one
//! machine under `--smoke` and exits nonzero unless measured tables
//! reclaim strictly more undervolt depth than the conservative preset
//! while covering the hidden ground truth.
//!
//! `--csv DIR` also writes every printed table to `DIR/<id>.csv`; CSV
//! is the one file format of the result tables.
//!
//! `--trace FILE` attaches a telemetry hub to the experiments that
//! support it (`table3`, `table4`, `fig14`, `fig15`, `resilience`,
//! `fleet`), writes the trace journal to FILE as JSONL — byte-identical
//! across identical seeded invocations — and appends the `telemetry
//! summary` tables (action mix, per-interval monitor summary,
//! fault/recovery timeline) to the output. For `fleet` the journal is
//! the energy-aware run's merged, node-tagged cluster journal. With
//! several traced ids, the last one's journal wins the file; trace one
//! id per invocation.

use avfs_chip::vmin::DroopClass;
use avfs_experiments::report::Table;
use avfs_experiments::{
    ablations, characterization, characterize, droops, energy, factors, fleet, perfchar,
    resilience, server_eval, tables, telemetry_report, Machine, Scale,
};
use avfs_telemetry::Telemetry;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    scale: Scale,
    csv_dir: Option<PathBuf>,
    seed: u64,
    smoke: bool,
    trace: Option<PathBuf>,
    ids: Vec<String>,
}

const ALL_IDS: [&str; 16] = [
    "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig14", "fig15", "table3", "table4",
];

/// Ids `all` deliberately leaves out: long sweeps and whole-cluster
/// simulations that would dominate an `exp all` run.
const SLOW_IDS: [&str; 4] = ["ablations", "resilience", "fleet", "characterize"];

/// Levenshtein distance, for `did you mean` suggestions on unknown ids.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The rejection message for an id nothing matches: nearest known ids
/// when any are plausible, the full list otherwise.
fn unknown_id_error(id: &str) -> String {
    let known: Vec<&str> = ALL_IDS
        .iter()
        .chain(SLOW_IDS.iter())
        .copied()
        .chain(std::iter::once("all"))
        .collect();
    let mut near: Vec<&str> = known
        .iter()
        .copied()
        .filter(|k| edit_distance(id, k) <= 2)
        .collect();
    near.sort_unstable();
    if near.is_empty() {
        format!(
            "unknown experiment id `{id}` (known ids: {})",
            known.join(" ")
        )
    } else {
        format!(
            "unknown experiment id `{id}` — did you mean {}?",
            near.join(", ")
        )
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::Paper,
        csv_dir: None,
        seed: 2024,
        smoke: false,
        trace: None,
        ids: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.scale = Scale::Quick,
            "--smoke" => {
                opts.scale = Scale::Quick;
                opts.smoke = true;
            }
            "--csv" => {
                let dir = args.next().ok_or("--csv needs a directory")?;
                opts.csv_dir = Some(PathBuf::from(dir));
            }
            "--seed" => {
                let seed = args.next().ok_or("--seed needs a value")?;
                opts.seed = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--trace" => {
                let path = args.next().ok_or("--trace needs a file path")?;
                opts.trace = Some(PathBuf::from(path));
            }
            // `all` is the paper reproduction set only: the slow ids
            // (`SLOW_IDS`) must be requested by name.
            "all" => opts.ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                println!(
                    "usage: exp [--quick] [--smoke] [--csv DIR] [--seed N] [--trace FILE] <id>...\n  ids: {} {} all\n  `all` runs the paper artifacts and intentionally excludes the slow\n  ids ({}); request those explicitly.",
                    ALL_IDS.join(" "),
                    SLOW_IDS.join(" "),
                    SLOW_IDS.join(", ")
                );
                std::process::exit(0);
            }
            id if ALL_IDS.contains(&id) || SLOW_IDS.contains(&id) => {
                opts.ids.push(id.to_string());
            }
            unknown => return Err(unknown_id_error(unknown)),
        }
    }
    if opts.ids.is_empty() {
        return Err("no experiment ids given (try `exp all` or `exp --help`)".into());
    }
    Ok(opts)
}

fn emit(tables: Vec<Table>, csv_dir: &Option<PathBuf>) {
    for t in tables {
        println!("{t}");
        if let Some(dir) = csv_dir {
            if let Err(e) = t.write_csv(dir) {
                eprintln!("warning: could not write {}.csv: {e}", t.id);
            }
        }
    }
}

/// Ids that accept a telemetry hub when `--trace` is given.
const TRACED_IDS: [&str; 6] = ["table3", "table4", "fig14", "fig15", "resilience", "fleet"];

/// Runs `run` with a hub-backed telemetry handle when `--trace` is set
/// (null otherwise); afterwards writes the JSONL journal and appends the
/// `telemetry summary` tables.
fn run_traced(
    opts: &Options,
    machine: Machine,
    run: impl FnOnce(&Telemetry) -> Result<Vec<Table>, String>,
) -> Result<Vec<Table>, String> {
    let telemetry = match &opts.trace {
        Some(_) => Telemetry::hub(),
        None => Telemetry::null(),
    };
    let mut out = run(&telemetry)?;
    if let Some(path) = &opts.trace {
        let jsonl = telemetry.export_jsonl().unwrap_or_default();
        std::fs::write(path, &jsonl)
            .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
        eprintln!(
            "trace journal: {} events -> {}",
            jsonl.lines().count(),
            path.display()
        );
        if let Some(snapshot) = telemetry.snapshot() {
            let journal: Vec<_> = telemetry
                .with_hub(|h| h.journal().cloned().collect())
                .unwrap_or_default();
            let nominal = machine.chip_builder().build().nominal_voltage();
            out.extend(telemetry_report::summary(&snapshot, &journal, nominal));
        }
    }
    Ok(out)
}

fn run_id(id: &str, opts: &Options) -> Result<Vec<Table>, String> {
    let scale = opts.scale;
    let seed = opts.seed;
    if opts.trace.is_some() && !TRACED_IDS.contains(&id) {
        eprintln!("note: --trace has no effect for `{id}`");
    }
    Ok(match id {
        "table1" => vec![tables::table1()],
        "table2" => vec![tables::table2(), tables::table2_policy()],
        "fig3" => Machine::BOTH
            .iter()
            .map(|&m| characterization::fig3(m, scale))
            .collect(),
        "fig4" => vec![characterization::fig4(scale)],
        "fig5" => Machine::BOTH
            .iter()
            .map(|&m| characterization::fig5(m, scale))
            .collect(),
        "fig6" => vec![
            droops::fig6(DroopClass::D55, scale),
            droops::fig6(DroopClass::D45, scale),
        ],
        "fig7" => vec![energy::fig7()],
        "fig8" => Machine::BOTH
            .iter()
            .map(|&m| perfchar::fig8(m, scale))
            .collect(),
        "fig9" => vec![perfchar::fig9(Machine::XGene3, scale)],
        "fig10" => Machine::BOTH.iter().map(|&m| factors::fig10(m)).collect(),
        "fig11" => Machine::BOTH.iter().map(|&m| energy::fig11(m)).collect(),
        "fig12" => Machine::BOTH.iter().map(|&m| energy::fig12(m)).collect(),
        "fig14" => run_traced(opts, Machine::XGene3, |tel| {
            let results = server_eval::evaluate_with_observer(Machine::XGene3, scale, seed, tel);
            Ok(vec![server_eval::fig14(&results, 60)])
        })?,
        "fig15" => run_traced(opts, Machine::XGene3, |tel| {
            let results = server_eval::evaluate_with_observer(Machine::XGene3, scale, seed, tel);
            Ok(vec![server_eval::fig15(&results, 60)])
        })?,
        "table3" => run_traced(opts, Machine::XGene2, |tel| {
            Ok(vec![
                server_eval::table3_4_with_observer(Machine::XGene2, scale, seed, tel).0,
            ])
        })?,
        "table4" => run_traced(opts, Machine::XGene3, |tel| {
            Ok(vec![
                server_eval::table3_4_with_observer(Machine::XGene3, scale, seed, tel).0,
            ])
        })?,
        "resilience" => {
            let rates: &[f64] = if opts.smoke {
                &resilience::SMOKE_RATES
            } else {
                &resilience::FULL_RATES
            };
            let machines: &[Machine] = if opts.smoke {
                &[Machine::XGene2]
            } else {
                &Machine::BOTH
            };
            // With --trace, the journal covers the last machine swept.
            let mut out = Vec::new();
            for &m in machines {
                out.extend(run_traced(opts, m, |tel| {
                    let results = resilience::sweep_with_observer(m, scale, seed, rates, tel);
                    results
                        .validate()
                        .map_err(|e| format!("resilience acceptance failed on {m}: {e}"))?;
                    Ok(vec![
                        resilience::degradation_curve(&results),
                        resilience::recovery_stats(&results),
                    ])
                })?);
            }
            out
        }
        "fleet" => {
            let results = fleet::evaluate(scale, seed);
            fleet::validate(&results).map_err(|e| format!("fleet acceptance failed: {e}"))?;
            if let Some(path) = &opts.trace {
                // The merged, node-tagged journal of the energy-aware
                // run (byte-identical on a same-seed rerun).
                let journal = results.energy_aware().journal.clone().unwrap_or_default();
                std::fs::write(path, &journal)
                    .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
                eprintln!(
                    "fleet journal: {} events -> {}",
                    journal.lines().count(),
                    path.display()
                );
            }
            vec![
                fleet::policy_table(&results),
                fleet::node_table(&results),
                fleet::determinism_table(&results),
            ]
        }
        "characterize" => {
            let machines: &[Machine] = if opts.smoke {
                &[Machine::XGene2]
            } else {
                &Machine::BOTH
            };
            let results = characterize::evaluate(machines, seed)?;
            results
                .validate()
                .map_err(|e| format!("characterize acceptance failed: {e}"))?;
            vec![characterize::reclaim_table(&results)]
        }
        "ablations" => {
            let mut out = Vec::new();
            for m in Machine::BOTH {
                out.push(ablations::fail_safe_ablation(m, scale, seed));
                out.push(ablations::guardband_sweep(m, scale, seed));
                out.push(ablations::threshold_sweep(m, scale, seed));
                out.push(ablations::migration_cost_sweep(m, scale, seed));
                out.push(ablations::cross_specimen(m, scale, seed));
            }
            out
        }
        other => return Err(format!("unknown experiment id `{other}`")),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for id in opts.ids.clone() {
        eprintln!("== running {id} ({:?} scale) ==", opts.scale);
        match run_id(&id, &opts) {
            Ok(tables) => emit(tables, &opts.csv_dir),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
