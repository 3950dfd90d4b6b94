//! Safe-Vmin characterization: Figures 3, 4, and 5.
//!
//! These harnesses replay the paper's §III methodology against the chip
//! model: descend the rail voltage step by step, execute each benchmark
//! many times per level, and record the lowest all-pass voltage (the
//! safe Vmin) and the failure probabilities below it.

use crate::report::{Cell, Table};
use crate::{Machine, Scale};
use avfs_chip::chip::Chip;
use avfs_chip::freq::FreqStep;
use avfs_chip::topology::{ChipSpec, PmdId};
use avfs_chip::vmin::VminQuery;
use avfs_chip::voltage::Millivolts;
use avfs_sim::RngStream;
use avfs_workloads::catalog::Benchmark;

/// How threads are laid out over PMDs in a characterization run (§II-B,
/// Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadAlloc {
    /// Consecutive cores: both cores of each PMD occupied.
    Clustered,
    /// One thread per PMD.
    Spreaded,
}

impl ThreadAlloc {
    /// Number of PMDs utilized by `threads` threads on `spec`.
    pub fn utilized_pmds(self, spec: &ChipSpec, threads: usize) -> usize {
        match self {
            ThreadAlloc::Clustered => threads.div_ceil(2).min(spec.pmds() as usize),
            ThreadAlloc::Spreaded => threads.min(spec.pmds() as usize),
        }
    }

    /// Short label, as in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ThreadAlloc::Clustered => "clustered",
            ThreadAlloc::Spreaded => "spreaded",
        }
    }
}

/// One characterization configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharConfig {
    /// Active threads.
    pub threads: usize,
    /// Core allocation.
    pub alloc: ThreadAlloc,
    /// Frequency step for all utilized PMDs.
    pub step: FreqStep,
}

impl CharConfig {
    /// Column label like `"8T(spreaded)@1.2GHz"`.
    pub fn label(&self, spec: &ChipSpec) -> String {
        let ghz = self.step.frequency(spec.fmax()).as_ghz();
        if self.threads == spec.cores as usize {
            format!("{}T@{:.1}GHz", self.threads, ghz)
        } else {
            format!("{}T({})@{:.1}GHz", self.threads, self.alloc.label(), ghz)
        }
    }

    /// The Vmin query describing this configuration for `bench`.
    pub fn query(&self, chip: &Chip, bench: Benchmark) -> VminQuery {
        VminQuery {
            freq_class: chip.behavior().vmin_class(self.step),
            utilized_pmds: self.alloc.utilized_pmds(chip.spec(), self.threads),
            active_threads: self.threads,
            workload_sensitivity: bench.profile().vmin_sensitivity,
        }
    }
}

/// Descends the voltage in 5 mV steps, sampling `runs` executions per
/// level, and returns the last level at which all runs passed — the
/// paper's safe-Vmin procedure (§III-A).
pub fn vmin_search(
    chip: &Chip,
    bench: Benchmark,
    config: &CharConfig,
    runs: u32,
    rng: &mut RngStream,
) -> Millivolts {
    let q = config.query(chip, bench);
    let model_safe = chip.vmin_model().safe_vmin(&q);
    let droop = chip.vmin_model().droop_class(q.utilized_pmds.max(1));
    let mut v = chip.nominal_voltage();
    let step = Millivolts::new(5);
    loop {
        let next = v.saturating_sub(step);
        let any_failure = (0..runs).any(|_| {
            chip.failure_model()
                .sample_outcome(next, model_safe, droop, rng)
                .is_failure()
        });
        if any_failure || next.as_mv() <= chip.spec().vreg_floor_mv {
            return v;
        }
        v = next;
    }
}

/// The Figure 3 configurations for a machine.
pub fn fig3_configs(machine: Machine) -> Vec<CharConfig> {
    let steps_xg2 = [FreqStep::MAX, FreqStep::HALF, FreqStep::new(3).unwrap()];
    let steps_xg3 = [FreqStep::MAX, FreqStep::HALF];
    let mut out = Vec::new();
    match machine {
        Machine::XGene2 => {
            for step in steps_xg2 {
                for threads in [8usize, 4, 2] {
                    out.push(CharConfig {
                        threads,
                        alloc: ThreadAlloc::Spreaded,
                        step,
                    });
                }
            }
        }
        Machine::XGene3 => {
            for step in steps_xg3 {
                for threads in [32usize, 16, 8] {
                    out.push(CharConfig {
                        threads,
                        alloc: ThreadAlloc::Spreaded,
                        step,
                    });
                }
            }
        }
    }
    out
}

/// Figure 3: the complete safe-Vmin characterization for one machine.
pub fn fig3(machine: Machine, scale: Scale) -> Table {
    let chip = machine.chip_builder().build();
    let configs = fig3_configs(machine);
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(configs.iter().map(|c| c.label(chip.spec())));
    let mut table = Table {
        id: format!("fig03-{}", machine.name().to_lowercase().replace(' ', "")),
        title: format!("Figure 3 — safe Vmin (mV), {machine}"),
        headers,
        rows: Vec::new(),
    };
    let mut rng = RngStream::from_root(31, "fig3");
    for bench in Benchmark::characterized() {
        let mut row: Vec<Cell> = vec![bench.name().into()];
        for config in &configs {
            let v = vmin_search(&chip, bench, config, scale.vmin_runs(), &mut rng);
            row.push(Cell::Int(v.as_mv() as i64));
        }
        table.push_row(row);
    }
    table
}

/// Figure 4: single-core and two-core safe regions on the X-Gene 2 at
/// 2.4 GHz, exposing per-PMD static variation.
pub fn fig4(scale: Scale) -> Table {
    let chip = Machine::XGene2.chip_builder().build();
    let spec = chip.spec().clone();
    let mut table = Table::new(
        "fig04-xgene2",
        "Figure 4 — single/two-core safe Vmin per core (mV), X-Gene 2 @2.4GHz",
        &[
            "cores",
            "pmd",
            "safe Vmin (min over benchmarks)",
            "safe Vmin (max over benchmarks)",
            "crash point",
        ],
    );
    let mut rng = RngStream::from_root(41, "fig4");
    // Single-core rows (one per core) then two-core rows (one per PMD).
    let mut cases: Vec<(String, PmdId, usize)> = spec
        .all_cores()
        .map(|c| (format!("core{}", c.index()), spec.pmd_of(c), 1usize))
        .collect();
    cases.extend(spec.all_pmds().map(|p| {
        let cores: Vec<String> = spec
            .cores_of(p)
            .iter()
            .map(|c| c.index().to_string())
            .collect();
        (format!("cores{}", cores.join(",")), p, 2usize)
    }));
    for (label, pmd, threads) in cases {
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        let mut crash = 0u32;
        for bench in Benchmark::characterized() {
            let q = VminQuery {
                freq_class: avfs_chip::freq::FreqVminClass::Max,
                utilized_pmds: 1,
                active_threads: threads,
                workload_sensitivity: bench.profile().vmin_sensitivity,
            };
            let model_safe = chip.vmin_model().safe_vmin_on(&q, [pmd]);
            // Verify by campaign: descend with the per-PMD safe value.
            let droop = chip.vmin_model().droop_class(1);
            let mut v = chip.nominal_voltage();
            loop {
                let next = v.saturating_sub(Millivolts::new(5));
                let fail = (0..scale.sweep_runs()).any(|_| {
                    chip.failure_model()
                        .sample_outcome(next, model_safe, droop, &mut rng)
                        .is_failure()
                });
                if fail {
                    break;
                }
                v = next;
            }
            lo = lo.min(v.as_mv());
            hi = hi.max(v.as_mv());
            crash = crash.max(chip.vmin_model().crash_point(model_safe).as_mv());
        }
        table.push_row(vec![
            label.into(),
            Cell::Int(pmd.index() as i64),
            Cell::Int(lo as i64),
            Cell::Int(hi as i64),
            Cell::Int(crash as i64),
        ]);
    }
    table
}

/// The Figure 5 configurations for a machine (thread scaling × allocation
/// at max frequency, plus reduced-frequency full-chip lines).
pub fn fig5_configs(machine: Machine) -> Vec<CharConfig> {
    match machine {
        Machine::XGene2 => vec![
            CharConfig {
                threads: 8,
                alloc: ThreadAlloc::Clustered,
                step: FreqStep::MAX,
            },
            CharConfig {
                threads: 4,
                alloc: ThreadAlloc::Spreaded,
                step: FreqStep::MAX,
            },
            CharConfig {
                threads: 4,
                alloc: ThreadAlloc::Clustered,
                step: FreqStep::MAX,
            },
            CharConfig {
                threads: 8,
                alloc: ThreadAlloc::Clustered,
                step: FreqStep::HALF,
            },
            CharConfig {
                threads: 8,
                alloc: ThreadAlloc::Clustered,
                step: FreqStep::new(3).unwrap(),
            },
        ],
        Machine::XGene3 => vec![
            CharConfig {
                threads: 32,
                alloc: ThreadAlloc::Clustered,
                step: FreqStep::MAX,
            },
            CharConfig {
                threads: 16,
                alloc: ThreadAlloc::Spreaded,
                step: FreqStep::MAX,
            },
            CharConfig {
                threads: 16,
                alloc: ThreadAlloc::Clustered,
                step: FreqStep::MAX,
            },
            CharConfig {
                threads: 8,
                alloc: ThreadAlloc::Spreaded,
                step: FreqStep::MAX,
            },
            CharConfig {
                threads: 8,
                alloc: ThreadAlloc::Clustered,
                step: FreqStep::MAX,
            },
            CharConfig {
                threads: 32,
                alloc: ThreadAlloc::Clustered,
                step: FreqStep::HALF,
            },
        ],
    }
}

/// Figure 5: cumulative probability of failure versus voltage, averaged
/// over the 25 characterized benchmarks.
pub fn fig5(machine: Machine, scale: Scale) -> Table {
    let chip = machine.chip_builder().build();
    let configs = fig5_configs(machine);
    let mut headers = vec!["voltage (mV)".to_string()];
    headers.extend(configs.iter().map(|c| c.label(chip.spec())));
    let mut table = Table {
        id: format!("fig05-{}", machine.name().to_lowercase().replace(' ', "")),
        title: format!("Figure 5 — probability of failure vs voltage, {machine}"),
        headers,
        rows: Vec::new(),
    };
    let mut rng = RngStream::from_root(51, "fig5");
    let benches = Benchmark::characterized();
    // Sweep from nominal down past the deepest crash point.
    let floor = configs
        .iter()
        .map(|c| {
            let q = c.query(&chip, Benchmark::SpecNamd);
            chip.vmin_model()
                .crash_point(chip.vmin_model().safe_vmin(&q))
                .as_mv()
        })
        .min()
        .unwrap_or(chip.spec().vreg_floor_mv)
        .saturating_sub(20);
    let mut v = chip.nominal_voltage().as_mv();
    while v >= floor {
        let voltage = Millivolts::new(v);
        let mut row: Vec<Cell> = vec![Cell::Int(v as i64)];
        for config in &configs {
            let mut pfail_sum = 0.0;
            for &bench in &benches {
                let q = config.query(&chip, bench);
                let safe = chip.vmin_model().safe_vmin(&q);
                let droop = chip.vmin_model().droop_class(q.utilized_pmds.max(1));
                pfail_sum += chip.failure_model().empirical_pfail(
                    voltage,
                    safe,
                    droop,
                    scale.sweep_runs(),
                    &mut rng,
                );
            }
            row.push(Cell::f(pfail_sum / benches.len() as f64, 3));
        }
        table.push_row(row);
        v -= 10;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_utilized_pmds() {
        let spec = Machine::XGene3.chip_builder().spec().clone();
        assert_eq!(ThreadAlloc::Clustered.utilized_pmds(&spec, 16), 8);
        assert_eq!(ThreadAlloc::Spreaded.utilized_pmds(&spec, 16), 16);
        assert_eq!(ThreadAlloc::Spreaded.utilized_pmds(&spec, 64), 16);
        assert_eq!(ThreadAlloc::Clustered.utilized_pmds(&spec, 1), 1);
    }

    #[test]
    fn vmin_search_finds_the_model_value() {
        let chip = Machine::XGene3.chip_builder().build();
        let config = CharConfig {
            threads: 32,
            alloc: ThreadAlloc::Clustered,
            step: FreqStep::MAX,
        };
        let mut rng = RngStream::from_root(1, "t");
        let found = vmin_search(&chip, Benchmark::NpbEp, &config, 200, &mut rng);
        let q = config.query(&chip, Benchmark::NpbEp);
        let model = chip.vmin_model().safe_vmin(&q);
        // The campaign lands within one 5 mV step of the model value
        // (sampling can pass a barely-unsafe level only with tiny pfail).
        let diff = (found - model).abs();
        assert!(diff <= 10, "found {found}, model {model}");
    }

    #[test]
    fn fig3_has_25_rows_and_expected_columns() {
        let t = fig3(Machine::XGene2, Scale::Quick);
        assert_eq!(t.rows.len(), 25);
        assert_eq!(t.headers.len(), 10); // benchmark + 3 threads × 3 freqs
    }

    #[test]
    fn fig3_multicore_workload_spread_is_small() {
        // The paper's headline: at max threads/max frequency the spread
        // across benchmarks is ~1 % of nominal.
        let t = fig3(Machine::XGene3, Scale::Quick);
        let col = t.column("32T@3.0GHz");
        let max = col.iter().cloned().fold(f64::MIN, f64::max);
        let min = col.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min <= 15.0, "spread {}mV", max - min);
    }

    #[test]
    fn fig5_pfail_monotone_in_voltage() {
        let t = fig5(Machine::XGene2, Scale::Quick);
        // For each configuration column the average pfail must not
        // decrease as voltage drops (allowing small sampling noise).
        for col in &t.headers[1..] {
            let vals = t.column(col);
            for w in vals.windows(2) {
                assert!(w[1] >= w[0] - 0.08, "{col}: {} -> {}", w[0], w[1]);
            }
        }
    }
}
