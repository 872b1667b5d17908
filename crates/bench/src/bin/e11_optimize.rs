//! E11 — Performance/energy optimizations over fungible resources
//! (paper §3.3).
//!
//! "Merging two match/action tables … will lead to increased memory usage
//! due to a table 'cross product', but it saves one table lookup time and
//! reduces latency … By leveraging this fungibility layer, FlexNet is able
//! to shuffle resources around and optimize for the current workload
//! regarding network energy consumption."
//!
//! Part A sweeps table sizes through the merge transformation and reports
//! the memory-for-latency trade. Part B runs a diurnal load profile through
//! energy-aware vs latency-only placement and totals the energy.

use flexnet::prelude::*;
use flexnet_bench::{bundle, header, row, sep};
use flexnet_compiler::{choose_target, component_power_w, merge_tables, Objective};
use flexnet_lang::ast::TableDecl;
use std::sync::Arc;

fn two_tables(a_size: u64, b_size: u64) -> (Arc<TableDecl>, Arc<TableDecl>) {
    let p = bundle(&format!(
        "program p kind any {{
           table first {{
             key {{ ipv4.src : exact; }}
             action mark(m: u32) {{ meta.mark = m; }}
             default mark(0);
             size {a_size};
           }}
           table second {{
             key {{ tcp.dport : exact; }}
             action out(port: u16) {{ forward(port); }}
             default out(0);
             size {b_size};
           }}
           handler ingress(pkt) {{ apply first; apply second; forward(0); }}
         }}"
    ));
    (p.program.tables[0].clone(), p.program.tables[1].clone())
}

fn part_a() {
    println!("\n--- Part A: table merging (cross-product memory vs one fewer lookup) ---\n");
    row(&[
        "sizes(a x b)",
        "mem-before",
        "mem-after",
        "mem-cost",
        "latency-saved",
    ]);
    sep(5);
    let cm = CostModel::for_arch(ArchClass::Drmt);
    // One table apply ~ 4 interpreter ops under this cost model.
    let lookup_latency = cm.per_op.saturating_mul(4);
    let reg = HeaderRegistry::builtins();
    for (a, b) in [(16u64, 16u64), (64, 64), (256, 64), (256, 256), (1024, 256)] {
        let (ta, tb) = two_tables(a, b);
        let m = merge_tables(&ta, &tb, &reg).unwrap();
        let before = m.demand_before.get(ResourceKind::SramKb);
        let after = m.demand_after.get(ResourceKind::SramKb);
        row(&[
            &format!("{a} x {b}"),
            &format!("{before} KiB"),
            &format!("{after} KiB"),
            &flexnet_bench::times(after as f64, before as f64),
            &lookup_latency.to_string(),
        ]);
    }
    println!(
        "\n  -> merging is worthwhile for small tables (little memory, real \
         latency win) and prohibitive for large ones — the compiler's call, \
         made possible because freed/extra memory is fungible."
    );
}

fn part_b() {
    println!("\n--- Part B: energy-aware placement over a diurnal load profile ---\n");
    let candidates = vec![
        TargetView::fresh(NodeId(1), Architecture::drmt_default()), // ASIC
        TargetView::fresh(NodeId(2), Architecture::smartnic_default()), // NIC
        TargetView::fresh(NodeId(3), Architecture::host_default()), // host
    ];
    let names = ["asic", "nic", "host"];
    let comp = flexnet_compiler::Component::new(
        "telemetry",
        flexnet::apps::telemetry::heavy_hitter(1024, 1000).unwrap(),
    );

    // A day in 8 x 3-hour slots: offered load in pps.
    let profile: [(u64, u64); 8] = [
        (0, 200_000),
        (3, 80_000),
        (6, 500_000),
        (9, 5_000_000),
        (12, 20_000_000),
        (15, 60_000_000),
        (18, 20_000_000),
        (21, 2_000_000),
    ];

    row(&["hour", "load-pps", "energy-aware", "latency-only", "watts-saved"]);
    sep(5);
    let mut kwh_energy = 0.0f64;
    let mut kwh_latency = 0.0f64;
    for (hour, pps) in profile {
        let e_idx = choose_target(&comp, &candidates, Objective::Energy { offered_pps: pps })
            .expect("placeable");
        let l_idx = choose_target(&comp, &candidates, Objective::Latency).expect("placeable");
        let pw_e = component_power_w(&candidates[e_idx].cost_model(), pps);
        let pw_l = component_power_w(&candidates[l_idx].cost_model(), pps);
        kwh_energy += pw_e * 3.0 / 1000.0;
        kwh_latency += pw_l * 3.0 / 1000.0;
        row(&[
            &format!("{hour:02}:00"),
            &pps.to_string(),
            &format!("{} ({pw_e:.0} W)", names[e_idx]),
            &format!("{} ({pw_l:.0} W)", names[l_idx]),
            &format!("{:.0}", pw_l - pw_e),
        ]);
    }
    sep(5);
    println!(
        "daily energy: energy-aware {kwh_energy:.1} kWh vs latency-only \
         {kwh_latency:.1} kWh ({:.0}% saved)",
        (1.0 - kwh_energy / kwh_latency) * 100.0
    );
}

fn main() {
    header(
        "E11",
        "performance/energy optimization",
        "table merging trades cross-product memory for one fewer lookup; \
         energy-aware placement shifts work off high-power targets at low load \
         (paper \u{a7}3.3)",
    );
    part_a();
    part_b();
    println!(
        "\nshape check: merge memory cost grows multiplicatively while the \
         latency win is constant; the energy objective parks the function on \
         the low-envelope NIC at night and only activates the ASIC when load \
         exceeds NIC throughput."
    );
}
