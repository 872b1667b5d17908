//! E6 — Fungible compilation: GC + reallocation retry loop vs. one-shot
//! bin-packing (paper §3.3).
//!
//! "Since a runtime programmable network can dynamically remove unused
//! functions, device resources become fungible. … If compiling a FlexNet
//! datapath to its resource slice fails, the compiler recursively invokes
//! optimization primitives … to perform resource reallocation and garbage
//! collection, before attempting another round of compilation."
//!
//! Sweep offered program size against a fabric whose devices are partially
//! occupied by reclaimable (unused) programs; measure success rate and
//! iterations over randomized program mixes.

use flexnet::prelude::*;
use flexnet_bench::{header, row, sep};
use flexnet_compiler::Reclaimable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TRIALS: usize = 40;
const DEAD_FRACTION_NUM: u64 = 6; // 60% of each device is reclaimable junk

fn fabric() -> Vec<TargetView> {
    (0..4)
        .map(|i| TargetView::fresh(NodeId(i), Architecture::drmt_default()))
        .collect()
}

fn table_component(name: &str, entries: u64) -> Component {
    Component::new(
        name,
        flexnet_bench::bundle(&format!(
            "program {name} kind any {{
               table t {{ key {{ ipv4.src : exact; }} size {entries}; }}
               handler ingress(pkt) {{ apply t; forward(0); }}
             }}"
        )),
    )
}

fn main() {
    header(
        "E6",
        "fungible compilation loop",
        "GC+reallocation retry fits programs one-shot bin-packing rejects (paper \u{a7}3.3)",
    );
    println!(
        "\nfabric: 4 dRMT switches, {}0% of each occupied by reclaimable programs",
        DEAD_FRACTION_NUM
    );
    println!("workload: 6 random tables per trial, {TRIALS} seeded trials per point\n");
    row(&[
        "offered/capacity",
        "one-shot-ok",
        "fungible-ok",
        "avg-iterations",
        "avg-reclaimed",
    ]);
    sep(5);

    for load_pct in [20u64, 40, 60, 80, 100, 120] {
        let mut one_shot_ok = 0usize;
        let mut fungible_ok = 0usize;
        let mut iter_sum = 0usize;
        let mut reclaim_sum = 0usize;
        for trial in 0..TRIALS {
            let mut rng = StdRng::seed_from_u64((load_pct * 1000 + trial as u64) ^ 0xf1e2);
            // Build the occupied fabric.
            let mut targets = fabric();
            let mut reclaimable = Vec::new();
            for t in &mut targets {
                let dead_sram = t.free.get(ResourceKind::SramKb) * DEAD_FRACTION_NUM / 10;
                let dead = ResourceVec::of(ResourceKind::SramKb, dead_sram);
                t.free = t.free.saturating_sub(&dead);
                reclaimable.push(Reclaimable {
                    node: t.node,
                    name: format!("dead_{}", t.node),
                    canonical_demand: dead,
                });
            }
            // Random component mix summing to ~load_pct% of TOTAL capacity.
            let total_sram: u64 = fabric()
                .iter()
                .map(|t| t.free.get(ResourceKind::SramKb))
                .sum();
            let budget_kb = total_sram * load_pct / 100;
            let per = (budget_kb / 6).max(1);
            let comps: Vec<Component> = (0..6)
                .map(|i| {
                    // entries so that table ~ per KiB each, jittered ±30%.
                    let kb = (per as f64 * rng.gen_range(0.7..1.3)) as u64;
                    let entries = (kb * 1024 * 8 / 80).max(1); // 80 bits/entry
                    table_component(&format!("c{i}"), entries)
                })
                .collect();

            let opts_one = FungibleOptions {
                reclaimable: reclaimable.clone(),
                one_shot: true,
            };
            if compile_fungible(&comps, &targets, &opts_one).is_ok() {
                one_shot_ok += 1;
            }
            let opts = FungibleOptions {
                reclaimable,
                one_shot: false,
            };
            if let Ok(out) = compile_fungible(&comps, &targets, &opts) {
                fungible_ok += 1;
                iter_sum += out.iterations;
                reclaim_sum += out.reclaimed.len();
            }
        }
        row(&[
            &format!("{load_pct}%"),
            &format!("{}/{}", one_shot_ok, TRIALS),
            &format!("{}/{}", fungible_ok, TRIALS),
            &format!("{:.2}", iter_sum as f64 / fungible_ok.max(1) as f64),
            &format!("{:.1}", reclaim_sum as f64 / fungible_ok.max(1) as f64),
        ]);
    }
    println!(
        "\nshape check: one-shot success collapses once offered programs exceed \
         the ~40% non-reclaimed capacity; the fungible loop keeps succeeding up \
         to full physical capacity by garbage-collecting unused programs, at the \
         cost of extra compilation rounds."
    );
}
