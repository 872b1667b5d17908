//! One sweep driver for the seeded chaos suites.
//!
//! A [`Suite`] says what is particular to one experiment — its texts, how
//! to run a seed on an [`Arm`], how reports fall into cohorts, what each
//! table column and summary field aggregates, and which seeds are pinned
//! as ablated-arm oracles. [`Suite::sweep`] is everything the experiments
//! share: the parallel sweep, the failed-seed tally, the per-cohort table,
//! the oracle re-runs, `E*_summary.json`, the verdict line. [`main`] is the
//! `chaos` binary: `chaos <suite|all> [seeds]`.

use crate::{header, par_sweep, row, sep, suites};
use flexnet_types::Result;
use std::fmt::Debug;
use std::process::ExitCode;

/// Which controller a seed runs against. The only harness option there is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Every protection the suite is about is armed; invariants are judged.
    Protected,
    /// Every protection off — the reference the oracle seeds need: the
    /// damage the protections exist to prevent must still show.
    Ablated,
}

/// What one seed's run produced.
pub trait Report: Debug + Send + Sync {
    /// Why the run failed (empty = it upheld every invariant).
    fn failures(&self) -> Vec<String>;

    /// Whether the run upheld every invariant.
    fn passed(&self) -> bool {
        self.failures().is_empty()
    }
}

/// A titled aggregate over a cohort of reports: one table column or one
/// per-scenario summary field.
pub struct Column<R> {
    /// Column header / JSON key.
    pub title: &'static str,
    /// The cell for a cohort.
    pub of: fn(&[&R]) -> String,
}

/// Builds a [`Column`].
pub fn col<R>(title: &'static str, of: fn(&[&R]) -> String) -> Column<R> {
    Column { title, of }
}

/// Sum of `f` over a cohort.
pub fn total<R>(cohort: &[&R], f: impl Fn(&R) -> u64) -> u64 {
    cohort.iter().map(|r| f(r)).sum()
}

/// How many reports of a cohort satisfy `f`.
pub fn count<R>(cohort: &[&R], f: impl Fn(&R) -> bool) -> usize {
    cohort.iter().filter(|r| f(r)).count()
}

/// Integer mean of `f` over the reports it is defined for.
pub fn mean<R>(cohort: &[&R], f: impl Fn(&R) -> Option<u64>) -> Option<u64> {
    let values: Vec<u64> = cohort.iter().filter_map(|r| f(r)).collect();
    (!values.is_empty()).then(|| values.iter().sum::<u64>() / values.len() as u64)
}

/// The ablated-arm regression oracle: pinned seeds that must keep showing
/// damage with protections off, or the suite has lost its teeth.
pub struct Oracle<R> {
    /// The pinned seeds.
    pub seeds: &'static [u64],
    /// Whether an ablated report shows the damage (diverged / collapsed).
    pub bites: fn(&R) -> bool,
    /// The line introducing the oracle section, given the seed count and
    /// every ablated report.
    pub intro: fn(u64, &[&R]) -> String,
    /// What each pinned seed's off-arm line reports in parentheses.
    /// `None`: the ablated arm runs the whole sweep, not only the pinned
    /// seeds — a census for `intro` — and prints no per-seed lines.
    pub detail: Option<fn(&R) -> String>,
    /// Completes "SOFT ORACLES: seeds [..] " when a pinned seed stops biting.
    pub soft: &'static str,
}

/// What the summary fields are computed from.
pub struct Tally<'a, R> {
    /// Seeds swept.
    pub seeds: u64,
    /// Seeds that neither failed nor erred.
    pub passed: u64,
    /// Every protected-arm report.
    pub on: &'a [&'a R],
    /// Every ablated-arm report.
    pub off: &'a [&'a R],
    /// Whether every pinned oracle seed still bites.
    pub oracles_hold: bool,
}

/// `(key, raw JSON value)` fields.
pub type Fields = Vec<(&'static str, String)>;

/// The shape of a suite's `E*_summary.json`.
pub struct Summary<R> {
    /// The `"experiment"` value.
    pub experiment: &'static str,
    /// Top-level fields before `"scenarios"`.
    pub head: fn(&Tally<'_, R>) -> Fields,
    /// Per-scenario fields after `"scenario"` and `"runs"`.
    pub cohort: Vec<Column<R>>,
    /// Top-level fields after `"scenarios"`.
    pub tail: fn(&Tally<'_, R>) -> Fields,
}

/// One seeded chaos experiment, as data.
pub struct Suite<R> {
    /// The `chaos` subcommand.
    pub name: &'static str,
    /// Experiment id (`E13`); also names `E*_summary.json`.
    pub id: &'static str,
    /// Header title.
    pub title: &'static str,
    /// The paper claim under test.
    pub claim: &'static str,
    /// What follows "sweep: seeds 0..N " in the header.
    pub sweep_note: &'static str,
    /// Runs one seed on one arm. Errors only on harness plumbing failures;
    /// protocol misbehaviour is a [`Report::failures`] entry.
    pub run: fn(u64, Arm) -> Result<R>,
    /// Header of the cohort column.
    pub cohort_title: &'static str,
    /// Cohort labels, in table order.
    pub cohorts: Vec<&'static str>,
    /// Index into `cohorts` of the cohort a report belongs to.
    pub cohort_of: fn(&R) -> usize,
    /// Table columns after the cohort label and `runs`.
    pub columns: Vec<Column<R>>,
    /// The line summing up the whole sweep, if the suite prints one.
    pub totals: Option<fn(&[&R]) -> String>,
    /// The ablated-arm oracle, if the suite has one.
    pub oracle: Option<Oracle<R>>,
    /// The summary file, if the suite writes one.
    pub summary: Option<Summary<R>>,
    /// What follows "P/N " in the closing line.
    pub verdict: &'static str,
    /// Qualifies "FAILED SEEDS" with the arm that failed.
    pub failed_note: &'static str,
}

/// How a sweep ended.
#[derive(Debug)]
pub struct Outcome {
    /// Seeds that ran to a report with no failures.
    pub passed: u64,
    /// Failed seeds with their reasons (violations or a harness error).
    pub failed: Vec<(u64, Vec<String>)>,
    /// Pinned oracle seeds that no longer bite on the ablated arm.
    pub soft: Vec<u64>,
}

impl Outcome {
    /// Whether the sweep is clean.
    pub fn ok(&self) -> bool {
        self.failed.is_empty() && self.soft.is_empty()
    }
}

impl<R: Report> Suite<R> {
    /// Sweeps seeds `0..seeds`, prints the experiment and writes its
    /// summary file.
    pub fn sweep(&self, seeds: u64) -> Outcome {
        header(self.id, self.title, self.claim);
        println!("sweep: seeds 0..{seeds} {}\n", self.sweep_note);

        // Seeds are independent: run them across all cores, tally in order.
        let mut failed: Vec<(u64, Vec<String>)> = Vec::new();
        let mut reports: Vec<R> = Vec::new();
        let results = par_sweep(seeds, |s| (self.run)(s, Arm::Protected));
        for (seed, result) in (0..seeds).zip(results) {
            match result {
                Ok(report) => {
                    if !report.passed() {
                        failed.push((seed, report.failures()));
                    }
                    reports.push(report);
                }
                Err(e) => failed.push((seed, vec![format!("harness error: {e}")])),
            }
        }
        let passed = seeds - failed.len() as u64;
        let on: Vec<&R> = reports.iter().collect();
        let cohorts: Vec<(&str, Vec<&R>)> = (self.cohorts.iter().enumerate())
            .map(|(i, label)| {
                let members = on.iter().filter(|r| (self.cohort_of)(r) == i);
                (*label, members.copied().collect())
            })
            .collect();

        let mut titles = vec![self.cohort_title, "runs"];
        titles.extend(self.columns.iter().map(|c| c.title));
        row(&titles);
        sep(titles.len());
        for (label, cohort) in &cohorts {
            let mut cells = vec![label.to_string(), cohort.len().to_string()];
            cells.extend(self.columns.iter().map(|c| (c.of)(cohort)));
            row(&cells.iter().map(String::as_str).collect::<Vec<_>>());
        }
        sep(titles.len());
        if let Some(totals) = self.totals {
            println!("\n{}", totals(&on));
        }

        // The ablated arm: the pinned seeds, or (without per-seed lines) a
        // census of the whole sweep.
        let run_ablated = |s| {
            (self.run)(s, Arm::Ablated)
                .unwrap_or_else(|e| panic!("ablated seed {s}: harness error: {e}"))
        };
        let ablated: Vec<(u64, R)> = match &self.oracle {
            None => Vec::new(),
            Some(Oracle { detail: None, .. }) => {
                (0..seeds).zip(par_sweep(seeds, run_ablated)).collect()
            }
            Some(oracle) => oracle.seeds.iter().map(|&s| (s, run_ablated(s))).collect(),
        };
        let off: Vec<&R> = ablated.iter().map(|(_, r)| r).collect();
        let mut soft: Vec<u64> = Vec::new();
        if let Some(oracle) = &self.oracle {
            println!("\n{}", (oracle.intro)(seeds, &off));
            for (seed, r) in ablated.iter().filter(|(s, _)| oracle.seeds.contains(s)) {
                let bites = (oracle.bites)(r);
                if let Some(detail) = oracle.detail {
                    let label = self.cohorts[(self.cohort_of)(r)];
                    let detail = detail(r);
                    println!("  seed {seed:3} [{label}] off-arm diverged={bites} ({detail})");
                }
                if !bites {
                    soft.push(*seed);
                }
            }
        }

        if let Some(summary) = &self.summary {
            let tally = Tally {
                seeds,
                passed,
                on: &on,
                off: &off,
                oracles_hold: soft.is_empty(),
            };
            let path = format!("{}_summary.json", self.id);
            std::fs::write(&path, summary.render(&tally, &cohorts))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
        }

        println!("\n{passed}/{seeds} {}", self.verdict);
        if !failed.is_empty() {
            println!("\nFAILED SEEDS{}:", self.failed_note);
            for (seed, why) in &failed {
                println!("  seed {seed}:");
                for v in why {
                    println!("    - {v}");
                }
            }
        }
        if let (false, Some(oracle)) = (soft.is_empty(), &self.oracle) {
            println!("\nSOFT ORACLES: seeds {soft:?} {}", oracle.soft);
        }
        Outcome {
            passed,
            failed,
            soft,
        }
    }
}

impl<R> Summary<R> {
    fn render(&self, tally: &Tally<'_, R>, cohorts: &[(&str, Vec<&R>)]) -> String {
        let line = |(key, value): &(&str, String)| format!("  \"{key}\": {value}");
        let mut top = vec![
            line(&("experiment", format!("\"{}\"", self.experiment))),
            line(&("seeds", tally.seeds.to_string())),
        ];
        top.extend((self.head)(tally).iter().map(line));
        let scenarios: Vec<String> = cohorts
            .iter()
            .map(|(label, cohort)| {
                let mut fields = vec![
                    format!("\"scenario\": \"{label}\""),
                    format!("\"runs\": {}", cohort.len()),
                ];
                let more = self.cohort.iter();
                fields.extend(more.map(|c| format!("\"{}\": {}", c.title, (c.of)(cohort))));
                format!("    {{ {} }}", fields.join(", "))
            })
            .collect();
        top.push(format!(
            "  \"scenarios\": [\n{}\n  ]",
            scenarios.join(",\n")
        ));
        top.extend((self.tail)(tally).iter().map(line));
        format!("{{\n{}\n}}\n", top.join(",\n"))
    }
}

/// A [`Suite`] with its report type erased: what the `chaos` binary and
/// the registry-driven tests need of every suite alike.
pub trait AnySuite {
    /// The `chaos` subcommand.
    fn name(&self) -> &'static str;
    /// [`Suite::sweep`].
    fn sweep(&self, seeds: u64) -> Outcome;
    /// The pinned ablated-arm oracle seeds (empty without an oracle).
    fn oracle_seeds(&self) -> &'static [u64];
    /// Runs one seed on one arm.
    fn probe(&self, seed: u64, arm: Arm) -> Result<Probe>;
}

/// One run, as far as a suite-agnostic caller can look into it.
#[derive(Debug, PartialEq, Eq)]
pub struct Probe {
    /// The report, `{:?}`-formatted: two runs of one seed must agree on it.
    pub debug: String,
    /// [`Report::failures`].
    pub failures: Vec<String>,
    /// Whether the suite's oracle sees its damage in this run.
    pub bites: bool,
}

impl<R: Report> AnySuite for Suite<R> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn sweep(&self, seeds: u64) -> Outcome {
        Suite::sweep(self, seeds)
    }

    fn oracle_seeds(&self) -> &'static [u64] {
        self.oracle.as_ref().map_or(&[], |o| o.seeds)
    }

    fn probe(&self, seed: u64, arm: Arm) -> Result<Probe> {
        let report = (self.run)(seed, arm)?;
        Ok(Probe {
            debug: format!("{report:?}"),
            failures: report.failures(),
            bites: self.oracle.as_ref().is_some_and(|o| (o.bites)(&report)),
        })
    }
}

/// Every chaos suite, in experiment order.
pub fn registry() -> Vec<Box<dyn AnySuite>> {
    vec![
        Box::new(suites::recovery::suite()),
        Box::new(suites::resync::suite()),
        Box::new(suites::canary::suite()),
        Box::new(suites::overload::suite()),
        Box::new(suites::sandbox::suite()),
        Box::new(suites::adversary::suite()),
        Box::new(suites::storage::suite()),
    ]
}

/// The `chaos` binary: `chaos <suite|all> [seeds]` (default 120 seeds).
pub fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_default();
    let seeds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(120);
    let suites = registry();
    let chosen: Vec<_> = (suites.iter())
        .filter(|s| which == "all" || which == s.name())
        .collect();
    if chosen.is_empty() {
        let names: Vec<_> = suites.iter().map(|s| s.name()).collect();
        eprintln!("usage: chaos <{}|all> [seeds]", names.join("|"));
        return ExitCode::from(2);
    }
    let mut clean = true;
    for suite in chosen {
        clean &= suite.sweep(seeds).ok();
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_types::FlexError;

    #[derive(Debug)]
    struct Stub(Vec<String>);

    impl Report for Stub {
        fn failures(&self) -> Vec<String> {
            self.0.clone()
        }
    }

    /// Errs on seeds 0, 1, 2 and 5, violates on seed 4, passes 3, 6, 7.
    fn stub(seed: u64, _arm: Arm) -> Result<Stub> {
        match seed {
            0..=2 | 5 => Err(FlexError::Sim(format!(
                "seed {seed} cannot build its fleet"
            ))),
            4 => Ok(Stub(vec!["an invariant broke".into()])),
            _ => Ok(Stub(Vec::new())),
        }
    }

    fn stub_suite() -> Suite<Stub> {
        Suite {
            name: "stub",
            id: "E0",
            title: "driver self-test",
            claim: "none",
            sweep_note: "(one cohort)",
            run: stub,
            cohort_title: "cohort",
            cohorts: vec!["all"],
            cohort_of: |_| 0,
            columns: vec![col("passed", |c| count(c, |r| r.passed()).to_string())],
            totals: None,
            oracle: None,
            summary: None,
            verdict: "runs passed",
            failed_note: "",
        }
    }

    #[test]
    fn passed_is_seeds_minus_failed_counting_harness_errors_once() {
        // The per-experiment drivers printed `reports − failed`, where
        // `failed` also held the seeds that never produced a report: k
        // harness errors were subtracted twice, and the count underflowed
        // once 2k + violations exceeded the seed count (here at 4 seeds:
        // 1 report − 3 failed).
        let four = stub_suite().sweep(4);
        assert_eq!(four.passed, 1);
        assert_eq!(four.failed.len(), 3);

        let eight = stub_suite().sweep(8);
        assert_eq!(eight.passed, 3, "8 seeds − 4 errors − 1 violation");
        let failed: Vec<u64> = eight.failed.iter().map(|(s, _)| *s).collect();
        assert_eq!(failed, vec![0, 1, 2, 4, 5]);
        assert!(eight.failed[0].1[0].starts_with("harness error: "));
        assert_eq!(eight.failed[3].1, vec!["an invariant broke".to_string()]);
        assert!(!eight.ok());
        assert!(stub_suite().sweep(0).ok());
    }

    #[test]
    fn summary_renders_head_scenarios_and_tail_as_one_object() {
        let summary: Summary<Stub> = Summary {
            experiment: "e0_stub",
            head: |t| vec![("passed", t.passed.to_string())],
            cohort: vec![col("clean", |c| count(c, |r| r.passed()).to_string())],
            tail: |t| vec![("oracles_hold", t.oracles_hold.to_string())],
        };
        let (a, b) = (Stub(Vec::new()), Stub(vec!["x".into()]));
        let on = [&a, &b];
        let tally = Tally {
            seeds: 2,
            passed: 1,
            on: &on,
            off: &[],
            oracles_hold: true,
        };
        let cohorts = [("even", vec![&a]), ("odd", vec![&b])];
        assert_eq!(
            summary.render(&tally, &cohorts),
            "{\n  \"experiment\": \"e0_stub\",\n  \"seeds\": 2,\n  \"passed\": 1,\n  \
             \"scenarios\": [\n    { \"scenario\": \"even\", \"runs\": 1, \"clean\": 1 },\n    \
             { \"scenario\": \"odd\", \"runs\": 1, \"clean\": 0 }\n  ],\n  \
             \"oracles_hold\": true\n}\n"
        );
    }
}
