//! `flexnetc` — the FlexBPF command-line toolchain.
//!
//! ```text
//! flexnetc check  <file>            parse + type-check + verify a program
//! flexnetc fmt    <file>            pretty-print (canonical formatting)
//! flexnetc demand <file>            per-element resource demand report
//! flexnetc patch  <base> <patch>    apply a patch, print the result
//! flexnetc diff   <old> <new>       runtime reconfiguration ops old -> new
//! flexnetc plan   <old> <new> [arch] transition plan + duration on a target
//! ```
//!
//! Arch names for `plan`: rmt, drmt (default), tiled, smartnic, host.

use flexnet::prelude::*;
use flexnet_lang::diff::diff_bundles;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "flexnetc — FlexBPF toolchain\n\
         usage:\n  \
         flexnetc check  <file.fbpf>\n  \
         flexnetc fmt    <file.fbpf>\n  \
         flexnetc demand <file.fbpf>\n  \
         flexnetc patch  <base.fbpf> <patch.fbpfp>\n  \
         flexnetc diff   <old.fbpf> <new.fbpf>\n  \
         flexnetc plan   <old.fbpf> <new.fbpf> [rmt|drmt|tiled|smartnic|host]"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String> {
    std::fs::read_to_string(path)
        .map_err(|e| FlexError::NotFound(format!("cannot read `{path}`: {e}")))
}

fn load_bundle(path: &str) -> Result<ProgramBundle> {
    let src = read(path)?;
    let file = parse_source(&src)?;
    let mut programs = file.programs;
    let program = programs.pop().ok_or(FlexError::Parse {
        line: 1,
        col: 1,
        msg: format!("`{path}` contains no program"),
    })?;
    if !programs.is_empty() {
        return Err(FlexError::Parse {
            line: 1,
            col: 1,
            msg: format!("`{path}` contains more than one program"),
        });
    }
    Ok(ProgramBundle {
        headers: file.headers,
        program,
    })
}

fn certify(bundle: &ProgramBundle) -> Result<flexnet_lang::verifier::VerifyReport> {
    let registry = HeaderRegistry::with_user_headers(&bundle.headers)?;
    check_program(&bundle.program, &registry)?;
    verify_program(&bundle.program, &registry)
}

fn cmd_check(path: &str) -> Result<()> {
    let bundle = load_bundle(path)?;
    let report = certify(&bundle)?;
    println!(
        "{}: OK — program `{}` ({}), {} state, {} tables, {} handlers",
        path,
        bundle.program.name,
        bundle.program.kind,
        bundle.program.states.len(),
        bundle.program.tables.len(),
        bundle.program.handlers.len(),
    );
    println!(
        "  certified: worst-case {} ops/packet; all paths produce a verdict: {}",
        report.max_ops, report.all_paths_verdict
    );
    for (h, ops) in &report.handler_ops {
        println!("  handler {h}: <= {ops} ops");
    }
    Ok(())
}

fn cmd_fmt(path: &str) -> Result<()> {
    let bundle = load_bundle(path)?;
    let file = flexnet_lang::ast::SourceFile {
        headers: bundle.headers,
        programs: vec![bundle.program],
    };
    print!("{}", file.to_source());
    Ok(())
}

fn cmd_demand(path: &str) -> Result<()> {
    let bundle = load_bundle(path)?;
    certify(&bundle)?;
    let registry = HeaderRegistry::with_user_headers(&bundle.headers)?;
    let elements = flexnet_lang::ir::program_elements(&bundle.program, &bundle.headers, &registry);
    println!("{path}: {} placeable elements", elements.len());
    let mut total = ResourceVec::new();
    for e in &elements {
        println!("  {:<24} {:?}  demand {}", e.name, e.kind, e.demand);
        total += e.demand;
    }
    println!("  {:<24} total   demand {total}", "");
    for (name, arch) in [
        ("rmt", Architecture::rmt_default()),
        ("drmt", Architecture::drmt_default()),
        ("tiled", Architecture::tiled_default()),
        ("smartnic", Architecture::smartnic_default()),
        ("host", Architecture::host_default()),
    ] {
        let norm = arch.normalize(&total);
        let fits = arch.capacity().covers(&norm);
        println!("  on {name:<9} -> {norm}  fits empty device: {fits}");
    }
    Ok(())
}

fn cmd_patch(base_path: &str, patch_path: &str) -> Result<()> {
    let base = load_bundle(base_path)?;
    let patch = parse_patch(&read(patch_path)?)?;
    let patched = apply_patch(&base, &patch)?;
    certify(&patched)?;
    eprintln!(
        "applied patch `{}` to `{}`: result certifies; {} ops to reach it at runtime",
        patch.name,
        base.program.name,
        diff_bundles(&base, &patched).len()
    );
    let file = flexnet_lang::ast::SourceFile {
        headers: patched.headers,
        programs: vec![patched.program],
    };
    print!("{}", file.to_source());
    Ok(())
}

fn cmd_diff(old_path: &str, new_path: &str) -> Result<()> {
    let old = load_bundle(old_path)?;
    let new = load_bundle(new_path)?;
    certify(&new)?;
    let ops = diff_bundles(&old, &new);
    if ops.is_empty() {
        println!("no changes");
        return Ok(());
    }
    println!("{} runtime reconfiguration ops:", ops.len());
    for op in &ops {
        println!("  {}", op.describe());
    }
    Ok(())
}

fn cmd_plan(old_path: &str, new_path: &str, arch_name: &str) -> Result<()> {
    let old = load_bundle(old_path)?;
    let new = load_bundle(new_path)?;
    certify(&new)?;
    let arch = match arch_name {
        "rmt" => Architecture::rmt_default(),
        "drmt" => Architecture::drmt_default(),
        "tiled" => Architecture::tiled_default(),
        "smartnic" => Architecture::smartnic_default(),
        "host" => Architecture::host_default(),
        other => {
            return Err(FlexError::NotFound(format!(
                "unknown architecture `{other}`"
            )))
        }
    };
    let cm = CostModel::for_arch(arch.class());
    let ops = diff_bundles(&old, &new);
    println!("transition plan on {} ({} ops):", arch.class(), ops.len());
    let mut total = SimDuration::ZERO;
    for op in &ops {
        let d = cm.op_duration(op);
        total += d;
        println!("  {:<44} {}", op.describe(), d);
    }
    println!("  {:<44} {}", "TOTAL (hitless, zero loss)", total);
    println!(
        "  {:<44} {}",
        "compile-time baseline downtime",
        cm.reflash_downtime()
    );
    // Dry-run the hitless reconfiguration on a fresh device.
    let mut dev = Device::new(NodeId(0), arch, StateEncoding::StatefulTable);
    dev.install(old)?;
    let rep = dev.begin_runtime_reconfig(new, SimTime::ZERO)?;
    println!(
        "  dry run: device accepts the transition, ready at t+{}",
        rep.duration
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, file] if cmd == "check" => cmd_check(file),
        [cmd, file] if cmd == "fmt" => cmd_fmt(file),
        [cmd, file] if cmd == "demand" => cmd_demand(file),
        [cmd, base, patch] if cmd == "patch" => cmd_patch(base, patch),
        [cmd, old, new] if cmd == "diff" => cmd_diff(old, new),
        [cmd, old, new] if cmd == "plan" => cmd_plan(old, new, "drmt"),
        [cmd, old, new, arch] if cmd == "plan" => cmd_plan(old, new, arch),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
