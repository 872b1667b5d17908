//! The FlexNet experiment harness: the rigs every claim-derived
//! experiment in EXPERIMENTS.md is regenerated with.
//!
//! - `src/bin/e1_hitless` … `e12_faults` each regenerate one experiment,
//!   printing the rows recorded there; this file holds
//!   their table-printing helpers, [`switch_scenario`] and [`par_sweep`].
//! - The seeded chaos experiments (E13–E21) are seven [`suites`] built on
//!   one [`fixture`] (fleets, programs, detector baselining, closing
//!   checks) and swept by one driver ([`sweep`]): the `chaos` binary,
//!   `chaos <suite|all> [seeds]`. A suite runs a seed on one [`Arm`] —
//!   protected, or ablated for the oracle seeds that must keep failing.
//! - A model only one experiment reaches lives beside that experiment:
//!   [`scale`] (E3's elastic scaler, also `examples/security_response.rs`)
//!   and [`replicate`] (E10's replication groups, also
//!   `tests/migration_and_control.rs`) here; E2's Mantis/HyPer4 baselines
//!   and E11's table merge and energy objective inside their binaries.
//!
//! The libraries ship none of this: a test rig or an experiment's model
//! linked into `flexnetc` and the benchmark is code nobody can delete.

pub mod fixture;
pub mod replicate;
pub mod scale;
pub mod sweep;
/// The seeded chaos suites, one module per experiment.
pub mod suites {
    pub mod adversary;
    pub mod canary;
    pub mod overload;
    pub mod recovery;
    pub mod resync;
    pub mod sandbox;
    pub mod storage;
}

pub use fixture::bundle;
pub use sweep::{Arm, Report};

use flexnet::prelude::*;

/// Prints an experiment header.
pub fn header(id: &str, title: &str, claim: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("paper claim: {claim}");
    println!("==================================================================");
}

/// Prints a table row of fixed-width columns.
pub fn row(cols: &[&str]) {
    let line = cols
        .iter()
        .map(|c| format!("{c:<18}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{}", line.trim_end());
}

/// Prints a separator sized for `n` columns.
pub fn sep(n: usize) {
    println!("{}", "-".repeat((18 + 1) * n));
}

/// The standard single-switch scenario: two hosts, CBR traffic.
pub fn switch_scenario(pps: u64, secs: u64, initial: ProgramBundle) -> (Simulation, NodeId) {
    let (topo, sw, hosts) = Topology::single_switch(2);
    let mut sim = Simulation::new(topo);
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: initial,
        },
    );
    sim.load(generate(
        &[FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            pps,
            SimTime::from_millis(1),
            SimDuration::from_secs(secs),
        )],
        42,
    ));
    (sim, sw)
}

/// Formats a ratio as `x.yz×`.
pub fn times(a: f64, b: f64) -> String {
    if b == 0.0 {
        return "inf".into();
    }
    format!("{:.1}x", a / b)
}

/// Runs `f(seed)` for every seed in `0..seeds` across all available cores
/// and returns the results **in seed order**.
///
/// Seeds are handed out through an atomic counter (work stealing), so
/// uneven per-seed cost doesn't idle workers; determinism is preserved
/// because each seed's run is independent and results are reassembled by
/// seed, never by completion order. Uses `std::thread::scope` — no
/// dependencies, and on a single-core host it degrades to the sequential
/// loop it replaced.
pub fn par_sweep<T, F>(seeds: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(seeds.max(1) as usize);
    if workers <= 1 {
        return (0..seeds).map(f).collect();
    }
    let next = std::sync::atomic::AtomicU64::new(0);
    let mut indexed: Vec<(u64, T)> = Vec::with_capacity(seeds as usize);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let seed = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if seed >= seeds {
                            break;
                        }
                        local.push((seed, f(seed)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("sweep worker panicked"));
        }
    });
    indexed.sort_by_key(|(seed, _)| *seed);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_do_not_panic() {
        header("E0", "smoke", "none");
        row(&["a", "b"]);
        sep(2);
        assert_eq!(times(10.0, 2.0), "5.0x");
        assert_eq!(times(1.0, 0.0), "inf");
        let b = bundle("program p kind any { handler ingress(pkt) { forward(0); } }");
        assert_eq!(b.program.name, "p");
        let (sim, _) = switch_scenario(10, 1, b);
        assert_eq!(sim.metrics.sent, 0, "nothing run yet");
    }

    #[test]
    fn par_sweep_preserves_seed_order() {
        let got = par_sweep(50, |seed| seed * seed);
        let want: Vec<u64> = (0..50).map(|s| s * s).collect();
        assert_eq!(got, want);
        assert!(par_sweep(0, |s| s).is_empty());
        assert_eq!(par_sweep(1, |s| s + 7), vec![7]);
    }
}
