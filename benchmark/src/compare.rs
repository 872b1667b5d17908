//! `flexbench compare <base.json> <new.json>`: one row per (end-to-end
//! metric, workload) from two **sets of runs**.
//!
//! Each file is what repeated `flexbench run --out FILE` invocations
//! appended to: several runs of every workload. A row shows each side's
//! median over its runs, their ratio with its base, the wider of the two
//! sides' run-to-run spreads (inter-quartile range over the median), the
//! metric's bound and a verdict:
//!
//! - **worse** / **better**: the new median is worse / better than the
//!   base's by more than the bound;
//! - **same**: the two agree within the bound;
//! - **unresolved**: a side has fewer than [`MIN_RUNS`] runs, or its
//!   run-to-run spread is wider than the bound, so the pair cannot say
//!   anything — never read as "same";
//! - **missing**: a side has no value for the pair (or a base of 0).
//!
//! One run says nothing about another on a shared host — identical code
//! has measured 1.45× apart in back-to-back runs — which is why a verdict
//! needs sets, and why the sets should be taken alternately.

use crate::json::Json;
use crate::metrics::{spec, EndToEnd};
use crate::stats::{iqr_pct, median};
use std::collections::BTreeMap;

/// Runs a side needs before a row can be resolved.
pub const MIN_RUNS: usize = 10;

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// Too few runs, or run-to-run spread wider than the bound.
    Unresolved,
    /// No value on one side, or a base of 0.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Missing => "MISSING",
        }
    }

    /// Whether the row lets the comparison pass.
    fn passes(self) -> bool {
        matches!(self, Verdict::Better | Verdict::Same)
    }
}

/// Judges the run-level values `new` against `base` for metric `m`.
/// Returns the verdict with both medians and the wider spread (a share).
pub fn judge(m: &EndToEnd, base: &[f64], new: &[f64]) -> (Verdict, f64, f64, f64) {
    let (b, n) = (median(base), median(new));
    let spread = iqr_pct(base).max(iqr_pct(new)) / 100.0;
    let verdict = if base.is_empty() || new.is_empty() || b == 0.0 {
        Verdict::Missing
    } else if base.len().min(new.len()) < MIN_RUNS || spread > m.bound {
        Verdict::Unresolved
    } else {
        let worse_by = if m.higher_is_better { b - n } else { n - b } / b;
        if worse_by > m.bound {
            Verdict::Worse
        } else if worse_by < -m.bound {
            Verdict::Better
        } else {
            Verdict::Same
        }
    };
    (verdict, b, n, spread)
}

/// The untraced results of a file written by `flexbench run --out` (or a
/// single `benchmark/out/<workload>.json`), grouped by workload.
fn untraced_results(path: &str) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results = match doc.get("results").and_then(Json::as_arr) {
        Some(list) => list.to_vec(),
        None => vec![doc],
    };
    let mut out: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for r in results {
        if r.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let name = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a result without a `workload`"))?
            .to_string();
        out.entry(name).or_default().push(r);
    }
    Ok(out)
}

/// Every run's value of `metric`.
fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Σ of a top-level count over runs.
fn total(runs: &[Json], key: &str) -> f64 {
    runs.iter()
        .filter_map(|r| r.get(key).and_then(Json::as_f64))
        .sum()
}

/// `sim_digest` by seed; `Err` names a seed whose runs disagree.
fn digests(runs: &[Json]) -> Result<BTreeMap<u64, String>, u64> {
    let mut out = BTreeMap::new();
    for r in runs {
        let seed = r
            .get("provenance")
            .and_then(|p| p.get("seed"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        let digest = r.get("sim_digest").and_then(Json::as_str).unwrap_or("?");
        if out
            .insert(seed, digest.to_string())
            .is_some_and(|d| d != digest)
        {
            return Err(seed);
        }
    }
    Ok(out)
}

/// Prints the comparison table; `Ok(true)` when every row is better or
/// the same and no workload fails more ops than before.
pub fn compare_files(base_path: &str, new_path: &str) -> Result<bool, String> {
    let base = untraced_results(base_path)?;
    let new = untraced_results(new_path)?;
    let none = Vec::new();
    let mut ok = true;
    println!(
        "{:<16} {:<20} {:>5} {:>14} {:>14} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "runs", "base median", "new median", "new/base", "spread", "bound"
    );
    let workloads = &spec().workloads;
    for (workload, _) in workloads {
        let (b, n) = (
            base.get(workload).unwrap_or(&none),
            new.get(workload).unwrap_or(&none),
        );
        if b.is_empty() && n.is_empty() {
            continue;
        }
        for m in &spec().end_to_end {
            let (bv, nv) = (values(b, &m.name), values(n, &m.name));
            let (verdict, bm, nm, spread) = judge(m, &bv, &nv);
            ok &= verdict.passes();
            println!(
                "{workload:<16} {:<20} {:>5} {bm:>14.4} {nm:>14.4} {:>9.4} {:>6.1}% {:>5.0}%  {}",
                m.name,
                format!("{}/{}", bv.len(), nv.len()),
                nm / bm,
                100.0 * spread,
                100.0 * m.bound,
                verdict.label(),
            );
        }
        let (failed_before, failed_now) = (total(b, "failed"), total(n, "failed"));
        // More failed ops void any gain; compare shares, the sets may differ in size.
        let share = |failed: f64, runs: &[Json]| failed / total(runs, "attempted").max(1.0);
        ok &= share(failed_now, n) <= share(failed_before, b);
        let model = match (digests(b), digests(n)) {
            (Err(seed), _) | (_, Err(seed)) => {
                ok = false;
                format!("DIFFERS between runs of seed {seed} on one side: not deterministic")
            }
            (Ok(db), Ok(dn)) => {
                let shared: Vec<_> = db.keys().filter(|s| dn.contains_key(s)).collect();
                if shared.is_empty() {
                    "no seed in common".to_string()
                } else if shared.iter().all(|s| db[s] == dn[s]) {
                    format!(
                        "identical on {} shared seeds (the model did not move)",
                        shared.len()
                    )
                } else {
                    "moved (the model changed: declare it)".to_string()
                }
            }
        };
        println!(
            "{workload:<16} failed/attempted {}/{} -> {}/{} · sim_digest {model}",
            failed_before,
            total(b, "attempted"),
            failed_now,
            total(n, "attempted"),
        );
    }
    if !workloads
        .iter()
        .any(|(w, _)| base.contains_key(w) || new.contains_key(w))
    {
        return Err("neither file holds an untraced workload result".into());
    }
    println!(
        "{}",
        if ok {
            "every pair within its bound"
        } else {
            "at least one pair is worse, unresolved or missing, or fails more ops"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound,
        }
    }

    /// Ten runs around `centre`, inter-quartile range `iqr_share` of it.
    fn runs(centre: f64, iqr_share: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre * (1.0 + iqr_share * (i as f64 - 4.5) / 5.5))
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_run_to_run_spread() {
        let verdict = |m: &EndToEnd, b: &[f64], n: &[f64]| judge(m, b, n).0;
        let tput = metric(true, 0.10);
        let base = runs(100.0, 0.02);
        assert_eq!(verdict(&tput, &base, &runs(95.0, 0.02)), Verdict::Same);
        assert_eq!(verdict(&tput, &base, &runs(85.0, 0.02)), Verdict::Worse);
        assert_eq!(verdict(&tput, &base, &runs(115.0, 0.02)), Verdict::Better);
        // Either side's own runs disagreeing by more than the bound.
        assert_eq!(
            verdict(&tput, &base, &runs(85.0, 0.15)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&tput, &runs(100.0, 0.15), &base),
            Verdict::Unresolved
        );
        let rss = metric(false, 0.05);
        let flat = vec![100.0; 10];
        assert_eq!(verdict(&rss, &flat, &[104.0; 10]), Verdict::Same);
        assert_eq!(verdict(&rss, &flat, &[106.0; 10]), Verdict::Worse);
        assert_eq!(verdict(&rss, &flat, &[90.0; 10]), Verdict::Better);
    }

    #[test]
    fn a_single_pair_or_a_missing_side_never_resolves() {
        let tput = metric(true, 0.10);
        // One run a side, 1.45x apart: says nothing.
        assert_eq!(judge(&tput, &[100.0], &[69.0]).0, Verdict::Unresolved);
        assert_eq!(
            judge(&tput, &[100.0; 9], &[100.0; 10]).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&tput, &[100.0; 10], &[]).0, Verdict::Missing);
        assert_eq!(judge(&tput, &[], &[100.0; 10]).0, Verdict::Missing);
        assert_eq!(judge(&tput, &[0.0; 10], &[1.0; 10]).0, Verdict::Missing);
    }
}
