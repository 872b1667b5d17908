//! Integration tests for the `flexnetc` command-line toolchain.

use std::io::Write;
use std::process::Command;

const FIREWALL: &str = r#"
program firewall kind switch {
  map blocked : map<u32, u8>[1024];
  counter dropped;
  table acl {
    key { ipv4.src : exact; }
    action deny() { count(dropped); drop(); }
    action allow(port: u16) { forward(port); }
    default allow(1);
    size 256;
  }
  handler ingress(pkt) {
    if (map_get(blocked, ipv4.src) == 1) { drop(); }
    apply acl;
    forward(1);
  }
}
"#;

const HARDEN: &str = r#"
patch harden on firewall {
  add meter syn_meter rate 1000 burst 64;
  set_default acl deny();
}
"#;

fn write_tmp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("flexnetc_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}_{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

fn flexnetc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flexnetc"))
        .args(args)
        .output()
        .expect("flexnetc runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn check_accepts_valid_program() {
    let f = write_tmp("fw.fbpf", FIREWALL);
    let (ok, stdout, _) = flexnetc(&["check", f.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("OK"), "{stdout}");
    assert!(stdout.contains("ops/packet"), "{stdout}");
}

#[test]
fn check_rejects_invalid_program_with_nonzero_exit() {
    let f = write_tmp(
        "bad.fbpf",
        "program p { handler ingress(pkt) { apply nope; } }",
    );
    let (ok, _, stderr) = flexnetc(&["check", f.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn fmt_output_reparses_to_same_program() {
    let f = write_tmp("fmt.fbpf", FIREWALL);
    let (ok, formatted, _) = flexnetc(&["fmt", f.to_str().unwrap()]);
    assert!(ok);
    let f2 = write_tmp("fmt2.fbpf", &formatted);
    let (ok2, formatted2, _) = flexnetc(&["fmt", f2.to_str().unwrap()]);
    assert!(ok2);
    assert_eq!(formatted, formatted2, "fmt must be a fixpoint");
}

#[test]
fn patch_then_diff_then_plan_pipeline() {
    let base = write_tmp("base.fbpf", FIREWALL);
    let patch = write_tmp("h.fbpfp", HARDEN);
    let (ok, patched_src, stderr) =
        flexnetc(&["patch", base.to_str().unwrap(), patch.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(patched_src.contains("syn_meter"), "{patched_src}");

    let patched = write_tmp("patched.fbpf", &patched_src);
    let (ok, diff_out, _) = flexnetc(&["diff", base.to_str().unwrap(), patched.to_str().unwrap()]);
    assert!(ok);
    assert!(diff_out.contains("add state `syn_meter`"), "{diff_out}");
    assert!(diff_out.contains("modify table `acl`"), "{diff_out}");

    let (ok, plan_out, _) = flexnetc(&[
        "plan",
        base.to_str().unwrap(),
        patched.to_str().unwrap(),
        "rmt",
    ]);
    assert!(ok);
    assert!(plan_out.contains("TOTAL"), "{plan_out}");
    assert!(plan_out.contains("dry run"), "{plan_out}");
}

#[test]
fn demand_reports_all_architectures() {
    let f = write_tmp("d.fbpf", FIREWALL);
    let (ok, out, _) = flexnetc(&["demand", f.to_str().unwrap()]);
    assert!(ok);
    for arch in ["rmt", "drmt", "tiled", "smartnic", "host"] {
        assert!(out.contains(&format!("on {arch}")), "{out}");
    }
}

#[test]
fn usage_on_bad_invocation() {
    let (ok, _, stderr) = flexnetc(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    let (ok, _, _) = flexnetc(&[]);
    assert!(!ok);
}

#[test]
fn diff_identical_reports_no_changes() {
    let f = write_tmp("same.fbpf", FIREWALL);
    let (ok, out, _) = flexnetc(&["diff", f.to_str().unwrap(), f.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("no changes"), "{out}");
}

#[test]
fn plan_rejects_unknown_architecture() {
    let f = write_tmp("a.fbpf", FIREWALL);
    let (ok, _, stderr) = flexnetc(&["plan", f.to_str().unwrap(), f.to_str().unwrap(), "quantum"]);
    assert!(!ok);
    assert!(stderr.contains("unknown architecture"), "{stderr}");
}
