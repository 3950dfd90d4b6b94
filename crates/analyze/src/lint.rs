//! Source-level domain lints over the workspace's library code.
//!
//! Four patterns are banned in non-test library code because each has
//! already caused (or nearly caused) real defects in this codebase:
//!
//! * `unwrap()` / `expect(` — panicking accessors in daemon/simulator
//!   paths take the whole evaluation down instead of degrading;
//! * float `==` — voltage/energy comparisons must use ordered integer
//!   millivolts or explicit tolerances;
//! * `thread::sleep` — wall-clock sleeps inside sim-clocked code desync
//!   the simulation clock (channels and OS threads are fine, sleeping is
//!   not);
//! * truncating `as` casts near voltage/frequency identifiers — silently
//!   wrapping a millivolt or MHz value corrupts safety margins;
//! * raw integer unit parameters (`mv: u32`, `mhz: u64`) in function
//!   signatures — the `Millivolts`/`FrequencyMhz` newtypes exist so unit
//!   mix-ups fail to compile instead of corrupting a rail request;
//! * `Instant::now` / `SystemTime::now` — wall-clock reads in
//!   sim-clocked library code make runs irreproducible (the sim clock
//!   and seeded RNG streams are the only time/randomness sources);
//! * `HashMap` / `HashSet` in journal/export/fingerprint paths —
//!   iteration order is randomized per process, so any serialization or
//!   hashing that walks one breaks byte-identical determinism (use the
//!   `BTree` forms);
//! * `Vec::new()` in hot-path modules (the sched step loop, the core
//!   daemon, monitor and layout planner) — these run at every change
//!   point, where the counting-allocator bench gate allows only the
//!   action list a daemon call returns and the growth of run outputs,
//!   so new containers in those modules must come from the
//!   `PlanScratch`/`LayoutScratch` recycled-buffer pattern.
//!
//! Existing occurrences are frozen in `crates/analyze/lint-allowlist.txt`
//! (a ratchet: counts may only go down); anything above the allowlisted
//! count fails the run, and an allowlist entry above the current count
//! fails too — the ratchet must be tightened as debt is paid. Test
//! modules (`#[cfg(test)]`), `tests/`, `benches/` and `examples/` are
//! exempt.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint rule: a name, a per-line matcher, and an optional path
/// scope.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule id, used in the allowlist.
    pub name: &'static str,
    /// What the rule guards against.
    pub rationale: &'static str,
    matcher: fn(&str) -> usize,
    /// When set, the rule only applies to paths the filter accepts
    /// (e.g. determinism rules scoped to journal/export/fingerprint
    /// code). `None` applies everywhere.
    path_filter: Option<fn(&str) -> bool>,
}

/// A lint hit in one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.text
        )
    }
}

/// Result of a lint run compared against the allowlist.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every finding, allowlisted or not.
    pub findings: Vec<Finding>,
    /// (rule, path, found, allowed) tuples exceeding the allowlist.
    pub new_violations: Vec<(String, String, usize, usize)>,
    /// (rule, path, found, allowed) allowlist entries whose debt has
    /// shrunk below the frozen count — the ratchet must be tightened.
    pub stale: Vec<(String, String, usize, usize)>,
    /// Files scanned.
    pub files: usize,
}

impl LintReport {
    /// True when nothing exceeds the allowlist and no allowlist entry
    /// has gone stale.
    pub fn is_clean(&self) -> bool {
        self.new_violations.is_empty() && self.stale.is_empty()
    }
}

fn count_occurrences(line: &str, needle: &str) -> usize {
    line.match_indices(needle).count()
}

fn is_float_token(token: &str) -> bool {
    let t = token.trim_end_matches(&['f', '6', '4', '3', '2', '_'][..]);
    let mut seen_digit = false;
    let mut seen_dot = false;
    for c in t.chars() {
        match c {
            '0'..='9' => seen_digit = true,
            '.' => seen_dot = true,
            '-' | '+' => {}
            _ => return false,
        }
    }
    seen_digit && seen_dot
}

/// Flags `==` / `!=` where either operand is a float literal.
fn float_eq_matcher(line: &str) -> usize {
    let mut hits = 0;
    for op in ["==", "!="] {
        for (idx, _) in line.match_indices(op) {
            // Skip `<=`, `>=`, `!=` prefix overlap for `=`-search: the
            // two-char op itself is exact, but `!==`/`===` don't occur in
            // Rust, so position alone is enough.
            let before = line[..idx].trim_end();
            let after = line[idx + 2..].trim_start();
            let lhs = before
                .rsplit(|c: char| c.is_whitespace() || c == '(')
                .next();
            let rhs = after
                .split(|c: char| c.is_whitespace() || c == ')' || c == ',' || c == ';')
                .next();
            let lhs_float = lhs.is_some_and(is_float_token);
            let rhs_float = rhs.is_some_and(is_float_token);
            if lhs_float || rhs_float {
                hits += 1;
            }
        }
    }
    hits
}

/// Flags lossy `as` narrowing casts on lines handling voltage/frequency
/// quantities, where silent wrapping corrupts safety margins.
fn narrowing_cast_matcher(line: &str) -> usize {
    let lower = line.to_lowercase();
    let domain = ["mv", "mhz", "volt", "freq", "step", "vmin"]
        .iter()
        .any(|kw| lower.contains(kw));
    if !domain {
        return 0;
    }
    [" as u8", " as u16", " as i8", " as i16"]
        .iter()
        .map(|c| count_occurrences(&lower, c))
        .sum()
}

/// Flags function signatures that take voltage/frequency quantities as
/// raw integers instead of the unit newtypes. Only single-line `fn `
/// signatures are examined — a heuristic, but new API surface in this
/// workspace overwhelmingly fits on one line.
fn raw_unit_param_matcher(line: &str) -> usize {
    if !line.contains("fn ") {
        return 0;
    }
    ["mv: u32", "mv: u64", "mhz: u32", "mhz: u64"]
        .iter()
        .map(|p| count_occurrences(line, p))
        .sum()
}

/// Flags wall-clock reads: sim-clocked code must take time from the
/// simulation clock, never the host.
fn wall_clock_matcher(line: &str) -> usize {
    count_occurrences(line, "Instant::now") + count_occurrences(line, "SystemTime::now")
}

/// Flags randomized-iteration-order collections.
fn hash_order_matcher(line: &str) -> usize {
    count_occurrences(line, "HashMap") + count_occurrences(line, "HashSet")
}

/// Paths whose output must be byte-identical across runs: journals,
/// exports, fingerprints/digests, JSON rendering, trace files.
fn is_determinism_sensitive_path(path: &str) -> bool {
    let lower = path.to_lowercase();
    [
        "journal",
        "export",
        "fingerprint",
        "statespace",
        "json",
        "digest",
        "trace",
    ]
    .iter()
    .any(|kw| lower.contains(kw))
}

/// Hot-path modules, which run at every change point: the sched step
/// loop and the kernel side of its change points, the core daemon and
/// monitor, and the layout planner every replan runs. The
/// counting-allocator bench gate measures the composed loop on a
/// steady-state window and on churn traffic; this lint keeps fresh
/// `Vec::new()` sites from creeping back in between gate runs.
fn is_hot_path(path: &str) -> bool {
    [
        "crates/sched/src/system.rs",
        "crates/sched/src/kernel.rs",
        "crates/core/src/daemon.rs",
        "crates/core/src/allocation.rs",
    ]
    .iter()
    .any(|p| path.ends_with(p))
}

/// Flags fresh container construction in hot-path modules.
fn hot_path_alloc_matcher(line: &str) -> usize {
    count_occurrences(line, "Vec::new(")
}

/// The rule set, in report order.
pub fn rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "unwrap",
            rationale: "panicking accessor in library code",
            matcher: |line| count_occurrences(line, ".unwrap()"),
            path_filter: None,
        },
        Rule {
            name: "expect",
            rationale: "panicking accessor in library code",
            matcher: |line| count_occurrences(line, ".expect("),
            path_filter: None,
        },
        Rule {
            name: "float-eq",
            rationale: "exact float comparison against a literal",
            matcher: float_eq_matcher,
            path_filter: None,
        },
        Rule {
            name: "thread-sleep",
            rationale: "wall-clock sleep inside sim-clocked code",
            matcher: |line| count_occurrences(line, "thread::sleep"),
            path_filter: None,
        },
        Rule {
            name: "narrowing-cast",
            rationale: "truncating cast on a voltage/frequency quantity",
            matcher: narrowing_cast_matcher,
            path_filter: None,
        },
        Rule {
            name: "raw-unit-param",
            rationale: "raw integer unit parameter instead of a unit newtype",
            matcher: raw_unit_param_matcher,
            path_filter: None,
        },
        Rule {
            name: "wall-clock",
            rationale: "wall-clock read inside sim-clocked code",
            matcher: wall_clock_matcher,
            path_filter: None,
        },
        Rule {
            name: "hash-order",
            rationale: "randomized iteration order in a determinism-sensitive path",
            matcher: hash_order_matcher,
            path_filter: Some(is_determinism_sensitive_path),
        },
        Rule {
            name: "hot-path-alloc",
            rationale: "fresh container construction in an allocation-free hot-path module",
            matcher: hot_path_alloc_matcher,
            path_filter: Some(is_hot_path),
        },
    ]
}

/// Strips `//` comments and the contents of string literals so lints only
/// fire on code. Char literals and raw strings are handled coarsely; the
/// goal is no false positives from prose, not a full lexer.
fn strip_comments_and_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    let _ = chars.next();
                }
                '"' => {
                    in_string = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '"' => {
                in_string = true;
                out.push('"');
            }
            _ => out.push(c),
        }
    }
    out
}

/// Scans one file's source, skipping `#[cfg(test)]` regions via brace
/// tracking. Rules with a path filter only fire when `rel_path`
/// matches. Public so the matcher tests can drive it on fixture
/// strings.
pub fn scan_source(rules: &[Rule], rel_path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let rules: Vec<&Rule> = rules
        .iter()
        .filter(|r| r.path_filter.is_none_or(|f| f(rel_path)))
        .collect();
    // Depth of the brace nesting, and the depth at which a #[cfg(test)]
    // region opened (None when not inside one).
    let mut depth: i64 = 0;
    let mut test_region_depth: Option<i64> = None;
    let mut pending_test_attr = false;

    for (lineno, raw_line) in source.lines().enumerate() {
        let line = strip_comments_and_strings(raw_line);
        let trimmed = line.trim();

        if test_region_depth.is_none() && trimmed.contains("#[cfg(test)]") {
            pending_test_attr = true;
        }
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;

        if pending_test_attr && opens > 0 {
            // The item the attribute annotates just opened its brace.
            test_region_depth = Some(depth);
            pending_test_attr = false;
        }

        let in_test = test_region_depth.is_some();
        depth += opens - closes;

        if let Some(open_depth) = test_region_depth {
            if depth <= open_depth {
                test_region_depth = None;
            }
        }
        if in_test {
            continue;
        }

        for rule in &rules {
            let hits = (rule.matcher)(&line);
            for _ in 0..hits {
                findings.push(Finding {
                    rule: rule.name,
                    path: rel_path.to_string(),
                    line: lineno + 1,
                    text: raw_line.trim().to_string(),
                });
            }
        }
    }
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "tests" | "benches" | "examples" | "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Parses the allowlist: `rule<TAB>path<TAB>count` lines, `#` comments.
pub fn parse_allowlist(text: &str) -> Vec<(String, String, usize)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split('\t');
            let rule = parts.next()?.to_string();
            let path = parts.next()?.to_string();
            let count = parts.next()?.parse().ok()?;
            Some((rule, path, count))
        })
        .collect()
}

/// Serializes current findings into allowlist format.
pub fn render_allowlist(findings: &[Finding]) -> String {
    let mut counts: std::collections::BTreeMap<(&str, &str), usize> = Default::default();
    for f in findings {
        *counts.entry((f.rule, f.path.as_str())).or_default() += 1;
    }
    let mut out = String::from(
        "# avfs-analyze lint ratchet: rule<TAB>path<TAB>allowed-count.\n\
         # Counts may only decrease; regenerate with `cargo run -p avfs-analyze -- lint --update-allowlist`.\n",
    );
    for ((rule, path), count) in counts {
        out.push_str(&format!("{rule}\t{path}\t{count}\n"));
    }
    out
}

/// Lints the workspace's `crates/*/src` trees against `allowlist`.
pub fn run(root: &Path, allowlist: &[(String, String, usize)]) -> LintReport {
    let rules = rules();
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return LintReport::default();
    };
    let mut crate_dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        collect_rs_files(&crate_dir.join("src"), &mut files);
    }

    let mut report = LintReport {
        files: files.len(),
        ..LintReport::default()
    };
    for path in &files {
        let Ok(source) = fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        report.findings.extend(scan_source(&rules, &rel, &source));
    }

    // Ratchet comparison: per (rule, path), found must not exceed
    // allowed — and allowed must not exceed found, or the allowlist has
    // gone stale and must be tightened to the new count.
    let mut counts: std::collections::BTreeMap<(String, String), usize> = Default::default();
    for f in &report.findings {
        *counts
            .entry((f.rule.to_string(), f.path.clone()))
            .or_default() += 1;
    }
    for ((rule, path), &found) in &counts {
        let allowed = allowlist
            .iter()
            .find(|(r, p, _)| r == rule && p == path)
            .map(|&(_, _, c)| c)
            .unwrap_or(0);
        if found > allowed {
            report
                .new_violations
                .push((rule.clone(), path.clone(), found, allowed));
        }
    }
    for (rule, path, allowed) in allowlist {
        let found = counts
            .get(&(rule.clone(), path.clone()))
            .copied()
            .unwrap_or(0);
        if found < *allowed {
            report
                .stale
                .push((rule.clone(), path.clone(), found, *allowed));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_and_expect_are_flagged_outside_tests() {
        let src = "fn f() {\n    let x = y.unwrap();\n    let z = w.expect(\"msg\");\n}\n";
        let findings = scan_source(&rules(), "lib.rs", src);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].rule, "unwrap");
        assert_eq!(findings[1].rule, "expect");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\nfn h() { z.unwrap(); }\n";
        let findings = scan_source(&rules(), "lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_default(); c.unwrap_or_else(|| 1); }\n";
        assert!(scan_source(&rules(), "lib.rs", src).is_empty());
    }

    #[test]
    fn comments_and_strings_are_ignored() {
        let src = "fn f() {\n    // y.unwrap() in a comment\n    let s = \"x.unwrap()\";\n}\n";
        assert!(scan_source(&rules(), "lib.rs", src).is_empty());
    }

    #[test]
    fn float_literal_comparison_is_flagged() {
        let src = "fn f() { if x == 0.5 { } if 1.0 != y { } if a == b { } }\n";
        let findings = scan_source(&rules(), "lib.rs", src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "float-eq"));
    }

    #[test]
    fn narrowing_cast_fires_only_near_domain_identifiers() {
        let src = "fn f() {\n    let a = len as u8;\n    let b = vmin_mv as u16;\n}\n";
        let findings = scan_source(&rules(), "lib.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "narrowing-cast");
    }

    #[test]
    fn raw_unit_params_fire_on_fn_lines_only() {
        let src = "pub fn set(mv: u32) {}\nstruct S { margin_mv: u32 }\nfn freq(mhz: u64) {}\n";
        let findings = scan_source(&rules(), "lib.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "raw-unit-param"));
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 3);
    }

    #[test]
    fn thread_sleep_is_flagged() {
        let src = "fn f() { std::thread::sleep(d); }\n";
        let findings = scan_source(&rules(), "lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "thread-sleep");
    }

    #[test]
    fn allowlist_roundtrip_and_ratchet() {
        let findings = vec![
            Finding {
                rule: "unwrap",
                path: "crates/x/src/lib.rs".into(),
                line: 1,
                text: "x.unwrap()".into(),
            };
            2
        ];
        let rendered = render_allowlist(&findings);
        let parsed = parse_allowlist(&rendered);
        assert_eq!(
            parsed,
            vec![("unwrap".to_string(), "crates/x/src/lib.rs".to_string(), 2)]
        );
    }

    #[test]
    fn wall_clock_reads_are_flagged_everywhere() {
        let src =
            "fn f() {\n    let t = Instant::now();\n    let s = std::time::SystemTime::now();\n}\n";
        let findings = scan_source(&rules(), "crates/sim/src/clock.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "wall-clock"));
    }

    #[test]
    fn hash_collections_are_flagged_only_in_determinism_paths() {
        let src =
            "use std::collections::HashMap;\nfn f() { let s: HashSet<u32> = HashSet::new(); }\n";
        let sensitive = scan_source(&rules(), "crates/telemetry/src/journal.rs", src);
        assert_eq!(sensitive.len(), 3, "{sensitive:?}");
        assert!(sensitive.iter().all(|f| f.rule == "hash-order"));
        // The same source outside a determinism-sensitive path is fine.
        assert!(scan_source(&rules(), "crates/core/src/daemon.rs", src).is_empty());
    }

    #[test]
    fn hot_path_alloc_fires_only_in_hot_path_modules() {
        let src = "fn f() {\n    let v: Vec<u32> = Vec::new();\n}\n";
        for hot in [
            "crates/sched/src/system.rs",
            "crates/sched/src/kernel.rs",
            "crates/core/src/daemon.rs",
            "crates/core/src/allocation.rs",
        ] {
            let findings = scan_source(&rules(), hot, src);
            assert_eq!(findings.len(), 1, "{hot}: {findings:?}");
            assert!(findings.iter().all(|f| f.rule == "hot-path-alloc"));
        }
        // Cold modules may build fresh containers freely.
        assert!(scan_source(&rules(), "crates/chip/src/power.rs", src).is_empty());
    }

    #[test]
    fn hot_path_alloc_exempts_test_modules_and_with_capacity() {
        let src = "fn f() { let v = Vec::with_capacity(8); }\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { let q: Vec<u8> = Vec::new(); }\n}\n";
        assert!(scan_source(&rules(), "crates/core/src/daemon.rs", src).is_empty());
    }

    #[test]
    fn stale_allowlist_entries_fail_the_run() {
        let root = workspace_root();
        // A rule/path pair that certainly has zero current findings.
        let allowlist = vec![(
            "unwrap".to_string(),
            "crates/does-not-exist/src/lib.rs".to_string(),
            3,
        )];
        let report = run(&root, &allowlist);
        assert!(
            report
                .stale
                .iter()
                .any(|(r, p, found, allowed)| r == "unwrap"
                    && p == "crates/does-not-exist/src/lib.rs"
                    && *found == 0
                    && *allowed == 3),
            "{:?}",
            report.stale
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn wildcard_float_tokens_parse() {
        assert!(is_float_token("0.5"));
        assert!(is_float_token("1.0f64"));
        assert!(is_float_token("-2.25"));
        assert!(!is_float_token("x"));
        assert!(!is_float_token("5"));
        assert!(!is_float_token(""));
    }
}
