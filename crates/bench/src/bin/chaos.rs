//! `chaos <recovery|resync|canary|overload|sandbox|adversary|storage|all> [seeds]`
//! — sweeps one (or every) seeded chaos suite, experiments E13–E21, over
//! seeds `0..seeds` (default 120). Each suite prints its per-cohort table
//! and verdict; overload, sandbox, adversary and storage also write their
//! `E*_summary.json`. Exits non-zero when a protected seed fails or a
//! pinned ablated-arm oracle seed stops showing damage.
//!
//! `results/chaos_<suite>.txt` records each suite's output at the default
//! seed count; the run is deterministic, so CI diffs against it.

fn main() -> std::process::ExitCode {
    flexnet_bench::sweep::main()
}
