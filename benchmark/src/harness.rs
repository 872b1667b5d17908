//! Runs one workload in this process and turns what it observed into
//! metrics.
//!
//! One timing method for every host-time figure: the measured region is a
//! sequence of equal segments (a fixed op count each, spanning a whole
//! period of any recurring work), each segment gives one seconds-per-op
//! sample, and the reported figure is the **5th-percentile** sample
//! ([`fast_p5`]) — no minimum, no mean. The median the benchmark was first
//! specified with does not survive the host it was written on, a shared
//! machine that runs 1.3–2× slower for spells of a fraction of a second up
//! to minutes (README, "Why a low quantile", has the run-to-run spreads of
//! both). A neighbour can only add time, so the undisturbed speed is the
//! left edge of the samples; p5 reads it as long as a twentieth of the
//! run's segments were undisturbed. A run that never was reads slow, and
//! nothing inside one run can tell. So a
//! figure's `spread_pct` — the inter-quartile range of its samples over
//! their median — describes its own run only, and whether two sets of runs
//! differ is decided from run-to-run spread, by `compare`.
//!
//! A run is a whole number of **windows** (a fixed number of segments): it
//! stops at the first window boundary after `--seconds` of wall time.
//! Everything simulated or counted (`sim_latency_*`, `sim_digest`, peak
//! RSS, count-type layer metrics) is taken when the first window completes,
//! so it is a function of the seed alone and not of how fast the host
//! happens to be.

use crate::json::{obj, Json};
use crate::metrics::{spec, Clock};
use crate::stats::{fast_p5, iqr_pct, Distribution};
use crate::trace::{Ledger, Tracer};
use crate::workloads::{self, Model, Params, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Op-count divisor of `--smoke`.
pub const SMOKE_SCALE: u64 = 50;
/// Spans written to a trace file; the per-name totals cover all of them.
const TRACE_FILE_SPANS: usize = 100_000;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Wall seconds to keep measuring for.
    pub seconds: f64,
    /// Record spans on every other pair of segments and report per-layer
    /// metrics.
    pub traced: bool,
    /// Op-count divisor (1, or [`SMOKE_SCALE`] for `--smoke`).
    pub scale: u64,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The clock it was read from.
    pub clock: Clock,
    /// Value, with all its digits.
    pub value: f64,
    /// Inter-quartile range of the samples behind a host-time figure
    /// within this run, in percent of their median.
    pub spread_pct: Option<f64>,
    /// Samples behind it.
    pub samples: Option<usize>,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// What was run.
    pub spec: RunSpec,
    /// Ops attempted in the measured segments.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Failed self-checks (empty = correct).
    pub errors: Vec<String>,
    /// Segments in a window.
    pub window_segments: usize,
    /// Ops attempted in the first window.
    pub window_ops: u64,
    /// Host seconds of every measured segment, in order (a drift over the
    /// run, or the host changing speed, shows here).
    pub segment_seconds: Vec<f64>,
    /// Seconds of every cold set-up behind `setup_s`.
    pub setup_seconds: Vec<f64>,
    /// Seconds this process spent warming up, between set-up and the first
    /// timed op (not part of `setup_s`: it is the measured work itself).
    pub warmup_seconds: f64,
    /// Fingerprint of the simulated side after the first window.
    pub sim_digest: u64,
    /// Distribution of the modelled per-op latency.
    pub sim_latency: Distribution,
    /// The metrics: end-to-end for an untraced run, per-layer for a
    /// traced one.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every self-check passed and no op failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// One measured segment.
struct Segment {
    seconds: f64,
    traced: bool,
    ops: u64,
    allocs: u64,
}

/// Builds the workload and returns it with the set-up time in seconds:
/// construction up to, not including, the warm-up.
pub fn set_up(run: &RunSpec) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let w = workloads::build(
        &run.workload,
        Params {
            seed: run.seed,
            scale: run.scale,
        },
    )?;
    Ok((w, start.elapsed().as_secs_f64()))
}

/// `VmHWM` (peak) or `VmRSS` (current) of this process, in KiB.
pub fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs `run`. `setup_s` is the 5th percentile over this process's own
/// set-up and one `cold_setup()` — the set-up time of a sibling cold
/// process — after every window: the host changes speed for seconds at a
/// time, and samples taken in one burst all land in one of its moods.
pub fn measure(
    run: &RunSpec,
    cold_setup: &mut dyn FnMut() -> Result<f64, String>,
) -> Result<Report, String> {
    let (mut w, own_setup) = set_up(run)?;
    let mut tr = Tracer::new();
    let mut setups = vec![own_setup];
    let warm = Instant::now();
    w.warm_up(&mut tr)?;
    let warmup_seconds = warm.elapsed().as_secs_f64();

    let window = w.window_segments();
    let mut errors: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut segments: Vec<Segment> = Vec::new();
    let mut first_window: Option<(Model, u64, u64)> = None;

    let started = Instant::now();
    loop {
        // Traced and untraced segments alternate in pairs (T T U U …): both
        // kinds see the same drift, and work that recurs every second
        // segment lands in both.
        let traced = run.traced && (segments.len() / 2).is_multiple_of(2);
        tr.set_enabled(traced);
        w.prepare(&mut tr);
        let allocs_before = tr.allocs();
        let t0 = Instant::now();
        let out = w.segment(&mut tr);
        let seconds = t0.elapsed().as_secs_f64();
        let allocs = tr.allocs() - allocs_before;

        attempted += out.attempted;
        failed += out.failed;
        if let Err(e) = w.verify() {
            if errors.len() < 8 {
                errors.push(format!("segment {}: {e}", segments.len()));
            }
        }
        if traced {
            w.replay(&mut tr);
        }
        tr.set_enabled(false);
        segments.push(Segment {
            seconds,
            traced,
            ops: out.attempted,
            allocs,
        });
        if segments.len() == window {
            let peak_kib = proc_status_kib("VmHWM:");
            tr.set_enabled(run.traced);
            first_window = Some((w.model(&mut tr), attempted, peak_kib));
            tr.set_enabled(false);
        }
        if segments.len().is_multiple_of(window) {
            setups.push(cold_setup()?);
            if started.elapsed().as_secs_f64() >= run.seconds {
                break;
            }
        }
    }
    if let Err(e) = w.finish() {
        errors.push(format!("end of run: {e}"));
    }
    let (model, window_ops, peak_kib) = first_window.expect("the loop runs a whole window");
    let sim_latency = model.latency;
    if sim_latency.n == 0 {
        errors.push("no modelled latency samples".into());
    }

    // Seconds per op of every segment of one kind, in run order.
    let per_op = |want_traced: Option<bool>| -> Vec<f64> {
        segments
            .iter()
            .filter(|s| want_traced.is_none_or(|w| w == s.traced))
            .map(|s| s.seconds / s.ops.max(1) as f64)
            .collect()
    };

    let metrics = if run.traced {
        let (on, off) = (per_op(Some(true)), per_op(Some(false)));
        let traced_ops = |upto: usize| -> u64 {
            let some = segments[..upto].iter().filter(|s| s.traced);
            some.map(|s| s.ops).sum()
        };
        let ledger = Ledger::new(&tr);
        let mut values: Vec<(&'static str, f64, Clock)> = model
            .counts
            .iter()
            .map(|(n, v)| (*n, *v, Clock::Model))
            .collect();
        if let Some(name) = model.allocs_metric {
            let allocs: u64 = segments[..window].iter().map(|s| s.allocs).sum();
            let per_op = allocs as f64 / traced_ops(window).max(1) as f64;
            values.push((name, per_op, Clock::Model));
        }
        values.extend(
            w.timings(&ledger, traced_ops(segments.len()))
                .into_iter()
                .map(|(n, v)| (n, v, Clock::Host)),
        );
        values.push((
            "trace.overhead_pct",
            100.0 * (fast_p5(&on) / fast_p5(&off) - 1.0),
            Clock::Host,
        ));
        values.push((
            "flexbench.run.failed_ops_ppm",
            1e6 * failed as f64 / attempted.max(1) as f64,
            Clock::Model,
        ));
        values.push(("flexbench.run.window_ops", window_ops as f64, Clock::Model));
        values.push(("sim_latency_p50_ns", sim_latency.p50 as f64, Clock::Model));
        values.push(("sim_latency_p99_ns", sim_latency.p99 as f64, Clock::Model));
        write_trace_file(run, &tr, &ledger)?;
        if let Some((stray, ..)) = values
            .iter()
            .find(|(n, ..)| !spec().per_layer.iter().any(|m| m.name == *n))
        {
            return Err(format!("layer metric {stray} is not in BENCHMARK.json"));
        }
        spec()
            .per_layer
            .iter()
            .map(|m| {
                // A layer that is not on this workload's path reads 0.
                let (value, clock) = values
                    .iter()
                    .find(|(n, ..)| *n == m.name)
                    .map_or((0.0, Clock::Model), |(_, v, c)| (*v, *c));
                Metric {
                    name: m.name.clone(),
                    unit: m.unit.clone(),
                    clock,
                    value,
                    spread_pct: None,
                    samples: None,
                }
            })
            .collect()
    } else {
        let times = per_op(None);
        spec()
            .end_to_end
            .iter()
            .map(|m| {
                let host = |value, samples: &[f64]| {
                    (
                        value,
                        Clock::Host,
                        Some(iqr_pct(samples)),
                        Some(samples.len()),
                    )
                };
                let (value, clock, spread_pct, samples) = match m.name.as_str() {
                    "throughput_ops_s" => host(1.0 / fast_p5(&times), &times),
                    "peak_rss_mb" => (peak_kib as f64 / 1024.0, Clock::Host, None, None),
                    "setup_s" => host(fast_p5(&setups), &setups),
                    other => return Err(format!("no rule for end-to-end metric {other}")),
                };
                Ok(Metric {
                    name: m.name.clone(),
                    unit: m.unit.clone(),
                    clock,
                    value,
                    spread_pct,
                    samples,
                })
            })
            .collect::<Result<_, String>>()?
    };

    Ok(Report {
        spec: run.clone(),
        attempted,
        failed,
        errors,
        window_segments: window,
        window_ops,
        segment_seconds: segments.iter().map(|s| s.seconds).collect(),
        setup_seconds: setups,
        warmup_seconds,
        sim_digest: model.digest,
        sim_latency,
        metrics,
    })
}

/// Where result and trace files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result file of a run: `<workload>.json`, or `<workload>.layers.json`
/// for a traced run.
pub fn result_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}.{}json",
        if traced { "layers." } else { "" }
    ))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `<workload>.trace.json`: per-name totals over every span, and
/// the first [`TRACE_FILE_SPANS`] spans as `[name, start, end, parent, op]`.
fn write_trace_file(run: &RunSpec, tr: &Tracer, ledger: &Ledger<'_>) -> Result<(), String> {
    let names: Vec<&'static str> = ledger.totals().keys().copied().collect();
    let totals = Json::Obj(
        ledger
            .totals()
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    obj([
                        ("count", t.count.into()),
                        ("total_ns", t.total_ns.into()),
                        ("self_ns", t.self_ns.into()),
                    ]),
                )
            })
            .collect(),
    );
    let spans: Vec<Json> = tr
        .spans()
        .iter()
        .take(TRACE_FILE_SPANS)
        .map(|s| {
            let name = names.iter().position(|n| *n == s.name).unwrap_or(0) as u64;
            let parent = if s.parent == u32::MAX {
                Json::Null
            } else {
                (s.parent as u64).into()
            };
            Json::Arr(vec![
                name.into(),
                s.start_ns.into(),
                s.end_ns.into(),
                parent,
                (s.op as u64).into(),
            ])
        })
        .collect();
    let doc = obj([
        ("workload", run.workload.as_str().into()),
        ("seed", run.seed.into()),
        (
            "clock",
            "host ns since the recorder started; in-process, no real link or loopback".into(),
        ),
        (
            "totals_cover",
            "every span: the traced segments and their replays".into(),
        ),
        ("spans_recorded", (tr.spans().len() as u64).into()),
        ("spans_written", (spans.len() as u64).into()),
        ("totals", totals),
        (
            "names",
            Json::Arr(names.iter().map(|n| (*n).into()).collect()),
        ),
        (
            "span_columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "op"]
                    .map(Json::from)
                    .to_vec(),
            ),
        ),
        ("spans", Json::Arr(spans)),
    ]);
    let path = out_dir().join(format!("{}.trace.json", run.workload));
    // One span per line keeps the file greppable without a pretty-printer.
    write_file(&path, &doc.encode().replace("], [", "],\n["))
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a result was produced.
pub fn provenance(report: &Report) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    obj([
        (
            "git_commit",
            command_output("git", &["-C", manifest_dir, "rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into())
                .into(),
        ),
        ("seed", report.spec.seed.into()),
        ("seconds", report.spec.seconds.into()),
        ("smoke", (report.spec.scale != 1).into()),
        ("segments", (report.segment_seconds.len() as u64).into()),
        ("window_segments", (report.window_segments as u64).into()),
        ("window_ops", report.window_ops.into()),
        (
            "nproc",
            (std::thread::available_parallelism().map_or(1, |n| n.get()) as u64).into(),
        ),
        ("cpu_model", cpu_model.into()),
        (
            "rustc",
            command_output("rustc", &["-V"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        (
            "method",
            "single thread, in-process, no real link or loopback; a host-time figure is the 5th percentile over equal segments' seconds per op, and its spread_pct their inter-quartile range over their median; simulated and count figures are taken when the first window completes".into(),
        ),
    ])
}

fn metrics_json(report: &Report, full: bool) -> Json {
    Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), m.unit.as_str().into()),
                ];
                if full {
                    fields.push(("clock".to_string(), m.clock.label().into()));
                    if let Some(spread) = m.spread_pct {
                        fields.push(("spread_pct".to_string(), spread.into()));
                    }
                    if let Some(n) = m.samples {
                        fields.push(("samples".to_string(), (n as u64).into()));
                    }
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// The one-line object the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn contract_line(report: &Report) -> String {
    obj([
        ("correct", report.correct().into()),
        ("attempted", report.attempted.into()),
        ("failed", report.failed.into()),
        ("metrics", metrics_json(report, false)),
    ])
    .encode()
}

/// The full result object written to `benchmark/out/`.
pub fn result_json(report: &Report) -> Json {
    let tail = report.sim_latency.tail.map_or(Json::Null, |(p, v)| {
        obj([("percentile", p.into()), ("value_ns", v.into())])
    });
    obj([
        ("workload", report.spec.workload.as_str().into()),
        ("traced", report.spec.traced.into()),
        ("correct", report.correct().into()),
        ("attempted", report.attempted.into()),
        ("failed", report.failed.into()),
        (
            "errors",
            Json::Arr(report.errors.iter().map(|e| e.as_str().into()).collect()),
        ),
        ("sim_digest", format!("{:#018x}", report.sim_digest).into()),
        (
            "sim_latency",
            obj([
                ("samples", (report.sim_latency.n as u64).into()),
                ("p50_ns", report.sim_latency.p50.into()),
                ("p99_ns", report.sim_latency.p99.into()),
                ("highest_supported_tail", tail),
            ]),
        ),
        ("provenance", provenance(report)),
        ("metrics", metrics_json(report, true)),
        (
            "segment_seconds",
            Json::Arr(
                report
                    .segment_seconds
                    .iter()
                    .map(|s| Json::Num(*s))
                    .collect(),
            ),
        ),
        (
            "setup_seconds",
            Json::Arr(report.setup_seconds.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("warmup_seconds", report.warmup_seconds.into()),
    ])
}

/// Writes the result file and prints the human-readable report.
pub fn publish(report: &Report) -> Result<(), String> {
    let path = result_path(&report.spec.workload, report.spec.traced);
    write_file(&path, &result_json(report).pretty())?;

    let run = &report.spec;
    println!(
        "== {} · seed {} · {} · {} segments, {} ops per window of {}{}",
        run.workload,
        run.seed,
        if run.traced {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        report.segment_seconds.len(),
        report.window_ops,
        report.window_segments,
        if run.scale != 1 { " · SMOKE SIZE" } else { "" },
    );
    println!("   in-process, single thread, no real link or loopback; `host` = this machine's clock, `simulated/count` = the model's clock or a count");
    // A traced run lists only the layers on this workload's path.
    let shown = |m: &&Metric| !run.traced || m.value != 0.0;
    for m in report.metrics.iter().filter(shown) {
        let mut line = format!(
            "   {:<44} {:>18.4} {:<6} [{}]",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
        if let Some(spread) = m.spread_pct {
            line.push_str(&format!(" spread {spread:.2}%"));
        }
        if let Some(n) = m.samples {
            line.push_str(&format!(" n={n}"));
        }
        println!("{}", line.trim_end());
    }
    if run.traced {
        let off_path = report.metrics.len() - report.metrics.iter().filter(shown).count();
        println!("   ({off_path} layer metrics read 0: not on this workload's path)");
    }
    let d = &report.sim_latency;
    match d.tail {
        Some((p, v)) => println!(
            "   sim latency: n={} p50={} ns, highest supported tail p{p}={v} ns",
            d.n, d.p50
        ),
        None => println!(
            "   sim latency: n={} p50={} ns (too few samples for a tail)",
            d.n, d.p50
        ),
    }
    println!(
        "   sim_digest {:#018x} · attempted {} · failed {} · {}",
        report.sim_digest,
        report.attempted,
        report.failed,
        if report.correct() {
            "all self-checks passed"
        } else {
            "SELF-CHECK FAILED"
        }
    );
    for e in &report.errors {
        println!("   error: {e}");
    }
    println!("   wrote {}", path.display());
    Ok(())
}
