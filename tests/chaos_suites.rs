//! Registry-driven checks over every seeded chaos suite (experiments
//! E13–E21, `flexnet_bench::suites`). The test iterates
//! `flexnet_bench::sweep::registry()`, so a suite added there is covered
//! without touching this file:
//!
//! - the first seeds pass on the protected arm (they cycle through every
//!   cohort of every suite);
//! - a seed run twice yields the identical `{:?}` report — the whole stack
//!   (schedules, Raft, fabric, disks, workloads) is a function of the seed;
//! - every pinned oracle seed still shows its damage on the ablated arm
//!   (diverges or collapses), again identically across two runs — if one
//!   stops, the suite has lost its teeth.
//!
//! A failure reproduces with `chaos <suite> <seeds>`.

use flexnet_bench::sweep::registry;
use flexnet_bench::Arm;

#[test]
fn first_seeds_pass_and_replay_identically_on_the_protected_arm() {
    for suite in registry() {
        for seed in 0..8 {
            let name = suite.name();
            let first = suite.probe(seed, Arm::Protected).expect("harness runs");
            assert!(
                first.failures.is_empty(),
                "{name} seed {seed} failed: {:?}",
                first.failures
            );
            let again = suite.probe(seed, Arm::Protected).expect("harness runs");
            assert_eq!(first, again, "{name} seed {seed} is not deterministic");
        }
    }
}

#[test]
fn pinned_oracle_seeds_still_bite_on_the_ablated_arm() {
    let mut oracles = 0;
    for suite in registry() {
        for &seed in suite.oracle_seeds() {
            let name = suite.name();
            let off = suite.probe(seed, Arm::Ablated).expect("harness runs");
            assert!(
                off.bites,
                "{name} oracle seed {seed} no longer diverges/collapses with protections off"
            );
            let again = suite.probe(seed, Arm::Ablated).expect("harness runs");
            assert_eq!(
                off, again,
                "{name} seed {seed} (ablated) is not deterministic"
            );
            oracles += 1;
        }
    }
    assert!(oracles >= 14, "E17, E20 and E21 pin 6 + 4 + 4 oracle seeds");
}
