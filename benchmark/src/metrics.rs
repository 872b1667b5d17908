//! The benchmark's definition, read from `BENCHMARK.json` at the repository
//! root — the one place workload names, metric names, units, directions
//! and bounds are written down. The file is compiled in, so the binary and
//! what the driver reads cannot drift apart. Which end-to-end metric each
//! layer metric should move is prose: `benchmark/README.md`.

use crate::json::Json;
use std::sync::OnceLock;

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the base's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric (traced run). Unbounded: it explains an end-to-end
/// move, it does not gate one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerLayer {
    /// `<crate>.<module>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// Everything `BENCHMARK.json` says.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// How long one run measures by default.
    pub run_seconds: f64,
    /// `(name, why)` of every workload, in the order they are run.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics, reported for every workload. "op" is a packet
    /// on `dev_*`/`fabric_*`, a converged control op on `ctl_txn`, a
    /// recovered scenario on `ctl_recover`.
    pub end_to_end: Vec<EndToEnd>,
    /// The per-layer ledger. A workload reports 0 for a layer that is not
    /// on its path.
    pub per_layer: Vec<PerLayer>,
}

/// Where a number comes from, printed beside every unit: the whole
/// benchmark is in-process — no real link, no loopback — so a "latency" is
/// either the model's or host CPU time, never wire time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or memory of this process (moves with the machine).
    Host,
    /// Simulated time or a count: a function of the seed alone, repeats
    /// bit for bit.
    Model,
}

impl Clock {
    /// Label used in reports and result files.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Model => "simulated/count",
        }
    }
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no `{key}` list"))
    };
    let field = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry without `{key}`"))
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("no `run_seconds`")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(EndToEnd {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    higher_is_better: field(m, "better")? == "higher",
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("an end-to-end metric without `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| {
                Ok(PerLayer {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

/// The compiled-in `BENCHMARK.json`.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` is usable as a metric or workload name: starts with a
    /// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is usable as a unit: 1–16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_charset() {
        let spec = spec();
        let mut seen = BTreeSet::new();
        let metrics = spec
            .end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit))
            .chain(spec.per_layer.iter().map(|m| (&m.name, &m.unit)));
        for (name, unit) in metrics {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "metric {name} defined twice");
        }
        for (name, why) in &spec.workloads {
            assert!(valid_name(name), "bad workload name {name:?}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for bad in ["", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be refused");
        }
        assert!(!valid_unit("") && !valid_unit("per second") && valid_unit("1/s"));
    }

    #[test]
    fn setup_is_an_end_to_end_metric_with_the_largest_bound() {
        let spec = spec();
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    }
}
