//! `avfs-analyze` — invariant checker, domain lints, fleet checks,
//! bounded model checker, and policy-domain prover.
//!
//! ```text
//! cargo run -p avfs-analyze -- invariants
//! cargo run -p avfs-analyze -- lint [--update-allowlist]
//! cargo run -p avfs-analyze -- fleet [--seed S]
//! cargo run -p avfs-analyze -- model [--depth N] [--max-procs N]
//! cargo run -p avfs-analyze -- prove-policy [--measured] [--seed S]
//! cargo run -p avfs-analyze -- check-margins [--seed S]
//! cargo run -p avfs-analyze -- all
//! ```
//!
//! Every subcommand prints a text report. Exit codes: 0 clean,
//! 1 violations found, 2 usage error — so CI can distinguish "the code
//! is broken" from "the invocation is broken". `scripts/check.sh` runs
//! every gate through `all`, which holds the only copy of their
//! arguments.

use avfs_analyze::invariant::{check_all, registry};
use avfs_analyze::{fleet, lint, margins, model, proof};
use std::collections::BTreeMap;
use std::process::ExitCode;

const EXIT_CLEAN: u8 = 0;
const EXIT_VIOLATIONS: u8 = 1;
const EXIT_USAGE: u8 = 2;

fn usage() {
    eprintln!(
        "usage: avfs-analyze <subcommand> [flags]\n\
         \n\
         subcommands:\n\
         \x20 invariants                 evaluate the domain-invariant registry on both presets\n\
         \x20 lint [--update-allowlist]  ratcheted source lints over crates/*/src\n\
         \x20 fleet [--seed S]           cluster-level conservation/safety checks\n\
         \x20 model [--depth N] [--max-procs N]\n\
         \x20                            breadth-first bounded model checking\n\
         \x20 prove-policy [--measured] [--seed S]\n\
         \x20                            enumerate the full voltage-policy domain\n\
         \x20                            (--measured proves campaign-compiled tables)\n\
         \x20 check-margins [--seed S]   audit measured margin maps against ground truth\n\
         \x20 all                        every gate above, in order\n\
         \n\
         exit codes: 0 clean, 1 violations, 2 usage error"
    );
}

/// Strict flag parsing: every argument must be a known flag; value
/// flags must have a value. Anything else is a usage error.
fn parse_args(
    args: &[String],
    value_flags: &[&str],
    bare_flags: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if bare_flags.contains(&a) {
            out.insert(a.to_string(), String::new());
            i += 1;
        } else if value_flags.contains(&a) {
            let Some(v) = args.get(i + 1) else {
                return Err(format!("flag {a} requires a value"));
            };
            out.insert(a.to_string(), v.clone());
            i += 2;
        } else {
            return Err(format!("unknown flag: {a}"));
        }
    }
    Ok(out)
}

fn get_usize(
    flags: &BTreeMap<String, String>,
    flag: &str,
    default: usize,
) -> Result<usize, String> {
    match flags.get(flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag {flag}: invalid value {v:?}")),
    }
}

fn get_u64(flags: &BTreeMap<String, String>, flag: &str, default: u64) -> Result<u64, String> {
    match flags.get(flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag {flag}: invalid value {v:?}")),
    }
}

fn run_invariants() -> bool {
    let checks = registry();
    println!("registered invariants: {}", checks.len());
    for inv in &checks {
        println!("  {:<26} {}", inv.name(), inv.description());
    }
    let mut clean = true;
    for cx in avfs_analyze::AnalysisContext::presets() {
        let violations = check_all(&cx);
        if violations.is_empty() {
            println!("{}: all {} invariants hold", cx.name, checks.len());
        } else {
            println!("{}: {} violation(s)", cx.name, violations.len());
            for v in &violations {
                println!("  {v}");
            }
        }
        clean &= violations.is_empty();
    }
    clean
}

fn run_lint(update_allowlist: bool) -> bool {
    let root = lint::workspace_root();
    let allowlist_path = root.join("crates/analyze/lint-allowlist.txt");
    let allowlist = std::fs::read_to_string(&allowlist_path)
        .map(|text| lint::parse_allowlist(&text))
        .unwrap_or_default();
    let report = lint::run(&root, &allowlist);
    println!(
        "linted {} files: {} finding(s), {} over the allowlist, {} stale allowlist entr{}",
        report.files,
        report.findings.len(),
        report.new_violations.len(),
        report.stale.len(),
        if report.stale.len() == 1 { "y" } else { "ies" }
    );
    if update_allowlist {
        let rendered = lint::render_allowlist(&report.findings);
        return match std::fs::write(&allowlist_path, rendered) {
            Ok(()) => {
                println!("allowlist regenerated at {}", allowlist_path.display());
                true
            }
            Err(e) => {
                eprintln!("failed to write {}: {e}", allowlist_path.display());
                false
            }
        };
    }
    for (rule, path, found, allowed) in &report.new_violations {
        println!("NEW [{rule}] {path}: {found} found, {allowed} allowlisted");
        for f in report
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.path == *path)
        {
            println!("  {f}");
        }
    }
    for (rule, path, found, allowed) in &report.stale {
        println!(
            "STALE [{rule}] {path}: allowlist froze {allowed} but only {found} remain — \
             tighten the allowlist to {found} (edit lint-allowlist.txt or rerun with --update-allowlist)"
        );
    }
    report.is_clean()
}

fn run_fleet(seed: u64) -> bool {
    let report = fleet::explore(seed);
    println!("{report}");
    for v in &report.violations {
        println!("  {v}");
    }
    report.is_clean()
}

fn run_model(depth: usize, max_procs: usize) -> bool {
    let report = model::check(&model::ModelOptions { depth, max_procs });
    println!(
        "bounded model check, depth {}, at most {} processes:",
        report.depth, report.max_procs
    );
    for p in &report.presets {
        println!("  {p}");
        for cx in &p.counterexamples {
            print!("{cx}");
        }
    }
    report.is_clean()
}

fn run_prove_policy(measured: bool, seed: u64) -> bool {
    let report = if measured {
        margins::prove_measured(seed)
    } else {
        proof::prove()
    };
    print!("{report}");
    report.is_clean()
}

fn run_check_margins(seed: u64) -> bool {
    let report = margins::check(seed);
    print!("{report}");
    report.is_clean()
}

/// Runs one subcommand; returns whether it was clean.
fn dispatch(cmd: &str, rest: &[String]) -> Result<bool, String> {
    match cmd {
        "invariants" => {
            parse_args(rest, &[], &[])?;
            Ok(run_invariants())
        }
        "lint" => {
            let flags = parse_args(rest, &[], &["--update-allowlist"])?;
            Ok(run_lint(flags.contains_key("--update-allowlist")))
        }
        "fleet" => {
            let flags = parse_args(rest, &["--seed"], &[])?;
            Ok(run_fleet(get_u64(&flags, "--seed", 0xF1EE_7001)?))
        }
        "model" => {
            let flags = parse_args(rest, &["--depth", "--max-procs"], &[])?;
            Ok(run_model(
                get_usize(&flags, "--depth", 6)?,
                get_usize(&flags, "--max-procs", 2)?,
            ))
        }
        "prove-policy" => {
            let flags = parse_args(rest, &["--seed"], &["--measured"])?;
            Ok(run_prove_policy(
                flags.contains_key("--measured"),
                get_u64(&flags, "--seed", margins::DEFAULT_SEED)?,
            ))
        }
        "check-margins" => {
            let flags = parse_args(rest, &["--seed"], &[])?;
            Ok(run_check_margins(get_u64(
                &flags,
                "--seed",
                margins::DEFAULT_SEED,
            )?))
        }
        "all" => {
            parse_args(rest, &[], &[])?;
            let clean = [
                run_invariants(),
                run_lint(false),
                run_fleet(0xF1EE_7001),
                run_model(6, 2),
                run_prove_policy(false, margins::DEFAULT_SEED),
                run_check_margins(margins::DEFAULT_SEED),
            ];
            Ok(clean.iter().all(|&c| c))
        }
        other => Err(format!("unknown subcommand: {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(EXIT_USAGE);
    };
    match dispatch(cmd, &args[1..]) {
        Ok(clean) => ExitCode::from(if clean { EXIT_CLEAN } else { EXIT_VIOLATIONS }),
        Err(msg) => {
            eprintln!("error: {msg}\n");
            usage();
            ExitCode::from(EXIT_USAGE)
        }
    }
}
