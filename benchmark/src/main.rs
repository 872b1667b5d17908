//! `flexbench` — FlexNet's benchmark.
//!
//! ```text
//! flexbench run [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//!               [--out FILE] [--workload NAME]... [NAME...]
//! flexbench compare <base.json> <new.json>
//! ```
//!
//! `run` measures each workload in its own child process, so
//! `peak_rss_mb` belongs to one workload alone; that process starts one
//! cold set-up-only process after every window, so `setup_s` rests on cold
//! set-ups spread evenly over the run. `--trace 0` (the default)
//! reports the end-to-end metrics, `--trace 1` the per-layer ones, a bare
//! `--trace` both. `--out FILE` appends every result to `FILE`, so that
//! repeated invocations build the set of runs `compare` needs. The last
//! line on standard output is the result object the driver reads.

use flexbench::compare::compare_files;
use flexbench::harness::{self, RunSpec, SMOKE_SCALE};
use flexbench::json::{obj, Json};
use flexbench::metrics::spec;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  flexbench run [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE] [--workload NAME]... [NAME...]
  flexbench compare <base.json> <new.json>
workloads: dev_acl dev_cms fabric_forward fabric_reconfig ctl_txn ctl_recover";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("child") => child(&args[1..]),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("flexbench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use `cargo run --release`".into());
    }
    Ok(())
}

#[derive(Debug)]
struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    /// Trace modes to run, in order.
    modes: Vec<bool>,
    scale: u64,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec().run_seconds,
        modes: vec![false],
        scale: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                parsed.seed = value(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value(&mut it, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.modes = match it.peek().map(|s| s.as_str()) {
                    Some("0") => vec![false],
                    Some("1") => vec![true],
                    _ => vec![false, true],
                };
                if parsed.modes.len() == 1 {
                    it.next();
                }
            }
            "--smoke" => parsed.scale = SMOKE_SCALE,
            "--out" => parsed.out = Some(value(&mut it, "--out")?),
            "--workload" => parsed.workloads.push(value(&mut it, "--workload")?),
            name if !name.starts_with('-') => parsed.workloads.push(name.to_string()),
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    let known = &spec().workloads;
    if parsed.workloads.is_empty() {
        parsed.workloads = known.iter().map(|(n, _)| n.clone()).collect();
    }
    for w in &parsed.workloads {
        if !known.iter().any(|(n, _)| n == w) {
            return Err(format!("unknown workload `{w}`\n{USAGE}"));
        }
    }
    Ok(parsed)
}

fn child_command(run: &RunSpec, mode: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", mode, &run.workload])
        .arg(run.seed.to_string())
        .arg(run.seconds.to_string())
        .arg(if run.traced { "1" } else { "0" })
        .arg(run.scale.to_string());
    Ok(cmd)
}

/// Times one cold set-up of `run` in a process of its own.
fn cold_setup(run: &RunSpec) -> Result<f64, String> {
    let out = child_command(run, "setup")?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| format!("{}: set-up child failed ({})", run.workload, out.status))
}

/// Runs every requested (workload, trace mode) in child processes.
fn run(args: &[String]) -> Result<bool, String> {
    refuse_debug_build()?;
    let args = parse_run_args(args)?;
    let mut all_ok = true;
    let mut result_files = Vec::new();
    for workload in &args.workloads {
        for &traced in &args.modes {
            let job = RunSpec {
                workload: workload.clone(),
                seed: args.seed,
                seconds: args.seconds,
                traced,
                scale: args.scale,
            };
            // Standard output is inherited: the child's last line is ours.
            let status = child_command(&job, "measure")?
                .status()
                .map_err(|e| format!("spawn measuring child: {e}"))?;
            all_ok &= status.success();
            result_files.push(harness::result_path(workload, traced));
        }
    }
    if let Some(out) = &args.out {
        // Append: one file holds every run of one side of a comparison.
        let mut results = match std::fs::read_to_string(out) {
            Ok(text) => Json::parse(&text)
                .ok()
                .and_then(|doc| {
                    doc.get("results")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::to_vec)
                })
                .ok_or_else(|| format!("{out}: not a flexbench result file"))?,
            Err(_) => Vec::new(),
        };
        for path in &result_files {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            results.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        eprintln!("flexbench: {out} now holds {} results", results.len());
        let doc = obj([("results", Json::Arr(results))]);
        std::fs::write(out, doc.pretty()).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(all_ok)
}

/// `child setup|measure <workload> <seed> <seconds> <trace> <scale>` — the
/// per-process half of `run`; not meant to be typed.
fn child(args: &[String]) -> Result<bool, String> {
    refuse_debug_build()?;
    let [mode, workload, seed, seconds, trace, scale] = args else {
        return Err(USAGE.to_string());
    };
    let job = RunSpec {
        workload: workload.clone(),
        seed: seed.parse().map_err(|e| format!("seed: {e}"))?,
        seconds: seconds.parse().map_err(|e| format!("seconds: {e}"))?,
        traced: trace == "1",
        scale: scale.parse().map_err(|e| format!("scale: {e}"))?,
    };
    match mode.as_str() {
        "setup" => {
            let (_workload, secs) = harness::set_up(&job)?;
            println!("{secs}");
            Ok(true)
        }
        "measure" => {
            let report = harness::measure(&job, &mut || cold_setup(&job))?;
            harness::publish(&report)?;
            println!("{}", harness::contract_line(&report));
            Ok(report.correct())
        }
        _ => Err(USAGE.to_string()),
    }
}
