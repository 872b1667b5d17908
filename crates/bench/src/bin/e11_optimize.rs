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
//!
//! Both models are this experiment's own: the merge prediction
//! ([`merge_tables`]) and the energy objective ([`choose_target`] under
//! [`Objective::Energy`], priced by [`component_power_w`]) over the
//! compiler's targets and the devices' cost models.

use flexnet::prelude::*;
use flexnet_bench::{bundle, header, row, sep};
use flexnet_compiler::split;
use flexnet_lang::ast::{ActionDecl, TableDecl};
use flexnet_lang::ir::table_demand;
use std::sync::Arc;

/// The predicted memory effect of merging two sequentially-applied tables
/// into one, which saves one table lookup per packet.
struct MergePrediction {
    /// Canonical demand before (both tables).
    demand_before: ResourceVec,
    /// Canonical demand after (the cross-product table).
    demand_after: ResourceVec,
}

/// Predicts merging `a` and `b` into one cross-product table: the keys
/// concatenated, every entry of `a` paired with every entry of `b` (`size =
/// a.size * b.size`, the "cross product" memory blow-up), and one action
/// per pair of actions (running `a`'s body, then `b`'s).
fn merge_tables(a: &TableDecl, b: &TableDecl, headers: &HeaderRegistry) -> Result<MergePrediction> {
    if a.name == b.name {
        return Err(FlexError::Compile(
            "cannot merge a table with itself".into(),
        ));
    }
    // The merged table as the demand model reads it: keys, size and the
    // number of actions.
    let pair = |x: &ActionDecl, y: &ActionDecl| ActionDecl {
        name: format!("{}__{}", x.name, y.name),
        params: Vec::new(),
        body: Vec::new(),
    };
    let merged = TableDecl {
        name: format!("{}__{}", a.name, b.name),
        keys: [&a.keys[..], &b.keys[..]].concat(),
        actions: (a.actions.iter())
            .flat_map(|x| b.actions.iter().map(move |y| pair(x, y)))
            .collect(),
        default_action: None,
        size: a.size.saturating_mul(b.size),
    };
    let mut demand_before = table_demand(a, headers);
    demand_before += table_demand(b, headers);
    Ok(MergePrediction {
        demand_before,
        demand_after: table_demand(&merged, headers),
    })
}

/// How placement weighs latency vs. energy when choosing a target.
enum Objective {
    /// Minimize added per-packet latency.
    Latency,
    /// Minimize energy for the given offered load.
    Energy {
        /// Offered load in packets/second the component will process.
        offered_pps: u64,
    },
}

/// Total power (watts) of running a component on a target at an offered
/// load, assuming the target is powered for this function: full idle power
/// plus the load-proportional envelope plus per-packet energy. Infinite
/// when the offered load exceeds the device's throughput (infeasible) —
/// this is the crossover in Part B: small loads are cheapest on
/// low-envelope targets (NICs), loads beyond their throughput force the
/// ASIC.
fn component_power_w(cost: &CostModel, offered_pps: u64) -> f64 {
    if offered_pps > cost.throughput_pps {
        return f64::INFINITY;
    }
    let util = (offered_pps as f64 / cost.throughput_pps as f64).clamp(0.0, 1.0);
    cost.power_at(util) + cost.energy_per_pkt_uj * offered_pps as f64 / 1e6
}

/// Picks the best target for `component` among `candidates` under the given
/// objective; `None` when nothing fits.
fn choose_target(
    component: &Component,
    candidates: &[TargetView],
    objective: Objective,
) -> Result<Option<usize>> {
    let demand = component.canonical_demand()?;
    let feasible = (0..candidates.len()).filter(|&i| candidates[i].fits(component.kind(), &demand));
    Ok(match objective {
        Objective::Latency => {
            let latency =
                |i: usize| split::component_latency(component, &candidates[i]).map(|l| (l, i));
            let latencies = feasible.map(latency).collect::<Result<Vec<_>>>()?;
            latencies.into_iter().min().map(|(_, i)| i)
        }
        Objective::Energy { offered_pps } => feasible.min_by(|&a, &b| {
            let pa = component_power_w(&candidates[a].cost_model(), offered_pps);
            let pb = component_power_w(&candidates[b].cost_model(), offered_pps);
            pa.total_cmp(&pb)
        }),
    })
}

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

    row(&[
        "hour",
        "load-pps",
        "energy-aware",
        "latency-only",
        "watts-saved",
    ]);
    sep(5);
    let mut kwh_energy = 0.0f64;
    let mut kwh_latency = 0.0f64;
    for (hour, pps) in profile {
        let e_idx = choose_target(&comp, &candidates, Objective::Energy { offered_pps: pps })
            .expect("builds")
            .expect("placeable");
        let l_idx = choose_target(&comp, &candidates, Objective::Latency)
            .expect("builds")
            .expect("placeable");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(kind: &str) -> Component {
        Component::new(
            "probe",
            bundle(&format!(
                "program probe kind {kind} {{ handler ingress(pkt) {{ forward(0); }} }}"
            )),
        )
    }

    #[test]
    fn merge_trades_cross_product_memory_for_a_lookup() {
        let (a, b) = two_tables(64, 32);
        let m = merge_tables(&a, &b, &HeaderRegistry::builtins()).unwrap();
        // 1 KiB each before; after, 64 x 32 entries of (32 + 16)-bit keys
        // plus a 32-bit action descriptor.
        assert_eq!(m.demand_before.get(ResourceKind::SramKb), 2);
        assert_eq!(m.demand_after.get(ResourceKind::SramKb), 20);
        // One action per pair of actions.
        assert_eq!(m.demand_after.get(ResourceKind::ActionSlots), 1);
        let (c, d) = two_tables(16, 16);
        let wide = TableDecl {
            actions: [&c.actions[..], &c.actions[..]].concat(),
            ..TableDecl::clone(&c)
        };
        let m = merge_tables(&wide, &d, &HeaderRegistry::builtins()).unwrap();
        assert_eq!(m.demand_after.get(ResourceKind::ActionSlots), 2);
    }

    #[test]
    fn self_merge_rejected() {
        let (a, _) = two_tables(4, 4);
        assert!(merge_tables(&a, &a, &HeaderRegistry::builtins()).is_err());
    }

    #[test]
    fn energy_objective_prefers_nic_at_low_load_asic_at_high() {
        // Marginal-power model: at low pps everything is cheap, but the
        // SmartNIC's small envelope wins; at very high pps the ASIC's tiny
        // per-packet energy wins despite its bigger envelope.
        let comp = probe("any");
        let candidates = vec![
            TargetView::fresh(NodeId(1), Architecture::drmt_default()),
            TargetView::fresh(NodeId(2), Architecture::smartnic_default()),
        ];
        let low = choose_target(
            &comp,
            &candidates,
            Objective::Energy {
                offered_pps: 10_000,
            },
        )
        .unwrap()
        .unwrap();
        assert_eq!(candidates[low].node, NodeId(2), "NIC wins at low load");
        let high = choose_target(
            &comp,
            &candidates,
            Objective::Energy {
                offered_pps: 500_000_000, // beyond the NIC's 50 Mpps
            },
        )
        .unwrap()
        .unwrap();
        assert_eq!(candidates[high].node, NodeId(1), "ASIC wins at high load");
    }

    #[test]
    fn latency_objective_prefers_asic() {
        let candidates = vec![
            TargetView::fresh(NodeId(1), Architecture::host_default()),
            TargetView::fresh(NodeId(2), Architecture::drmt_default()),
        ];
        let i = choose_target(&probe("any"), &candidates, Objective::Latency)
            .unwrap()
            .unwrap();
        assert_eq!(candidates[i].node, NodeId(2));
    }

    #[test]
    fn choose_target_none_when_nothing_fits() {
        let candidates = vec![TargetView::fresh(NodeId(1), Architecture::host_default())];
        assert!(
            choose_target(&probe("switch"), &candidates, Objective::Latency)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn component_power_monotone_in_load() {
        let cm = CostModel::for_arch(ArchClass::Host);
        assert!(component_power_w(&cm, 1_000_000) > component_power_w(&cm, 1_000));
    }
}
