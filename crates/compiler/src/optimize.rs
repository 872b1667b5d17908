//! Performance and energy optimizations over fungible resources.
//!
//! Paper §3.3: "the FlexNet compiler is able to explore additional
//! objectives beyond resource bin-packing. … our compiler must take
//! performance SLA into consideration … different targets also have varied
//! energy consumption envelopes … fungible resources also allow for
//! optimizations that trade performance/energy goals with resource
//! utilizations. Merging two match/action tables, for instance, will lead to
//! increased memory usage due to a table 'cross product', but it saves one
//! table lookup time and reduces latency."
//!
//! This module implements (a) the table-merge transformation with its
//! predicted memory/latency deltas (experiment E11a), and (b) energy-aware
//! target selection plus network power estimation (E11b).

use crate::target::{Component, TargetView};
use flexnet_dataplane::CostModel;
use flexnet_lang::ast::{ActionCall, ActionDecl, TableDecl};
use flexnet_lang::headers::HeaderRegistry;
use flexnet_lang::ir::table_demand;
use flexnet_types::{FlexError, ResourceVec, Result};

/// The predicted effect of merging two tables.
#[derive(Debug, Clone)]
pub struct MergePrediction {
    /// The merged table declaration.
    pub merged: TableDecl,
    /// Canonical memory demand before (sum of both tables).
    pub demand_before: ResourceVec,
    /// Canonical memory demand after (the cross-product table).
    pub demand_after: ResourceVec,
    /// Table lookups per packet before (2) and after (1).
    pub lookups_saved: u64,
}

/// Merges two sequentially-applied tables into one cross-product table.
///
/// Keys are concatenated; entries of the merged table pair every entry of
/// `a` with every entry of `b`, hence `size = a.size * b.size` (the
/// "cross product" memory blow-up). Each action pair becomes one action
/// `a_action__b_action` whose body runs both (with `b`'s body after `a`'s,
/// matching sequential application). Action bodies that terminate (drop/
/// forward) short-circuit exactly as sequential tables would, because the
/// concatenated body stops at the first verdict.
pub fn merge_tables(
    a: &TableDecl,
    b: &TableDecl,
    headers: &HeaderRegistry,
) -> Result<MergePrediction> {
    if a.name == b.name {
        return Err(FlexError::Compile("cannot merge a table with itself".into()));
    }
    let mut keys = a.keys.clone();
    keys.extend(b.keys.iter().cloned());

    let mut actions = Vec::new();
    for aa in &a.actions {
        for bb in &b.actions {
            let mut params = aa.params.clone();
            // Rename colliding parameter names from b.
            let mut body_b = bb.body.clone();
            let mut rename = std::collections::BTreeMap::new();
            for (p, w) in &bb.params {
                if params.iter().any(|(q, _)| q == p) {
                    let renamed = format!("{p}__b");
                    rename.insert(p.clone(), renamed.clone());
                    params.push((renamed, *w));
                } else {
                    params.push((p.clone(), *w));
                }
            }
            if !rename.is_empty() {
                rename_locals_in_block(&mut body_b, &rename);
            }
            let mut body = aa.body.clone();
            body.extend(body_b);
            actions.push(ActionDecl {
                name: format!("{}__{}", aa.name, bb.name),
                params,
                body,
            });
        }
    }

    let default_action = match (&a.default_action, &b.default_action) {
        (Some(da), Some(db)) => {
            let mut args = da.args.clone();
            args.extend(db.args.iter().copied());
            Some(ActionCall {
                action: format!("{}__{}", da.action, db.action),
                args,
            })
        }
        _ => None,
    };

    let merged = TableDecl {
        name: format!("{}__{}", a.name, b.name),
        keys,
        actions,
        default_action,
        size: a.size.saturating_mul(b.size),
    };

    let mut demand_before = table_demand(a, headers);
    demand_before += table_demand(b, headers);
    let demand_after = table_demand(&merged, headers);

    Ok(MergePrediction {
        merged,
        demand_before,
        demand_after,
        lookups_saved: 1,
    })
}

fn rename_locals_in_block(
    block: &mut flexnet_lang::ast::Block,
    map: &std::collections::BTreeMap<String, String>,
) {
    use flexnet_lang::ast::{Expr, Stmt};
    fn expr(e: &mut Expr, map: &std::collections::BTreeMap<String, String>) {
        match e {
            Expr::Local(n) => {
                if let Some(r) = map.get(n) {
                    *n = r.clone();
                }
            }
            Expr::MapGet(_, k) | Expr::MapHas(_, k) | Expr::RegRead(_, k)
            | Expr::MeterCheck(_, k) => expr(k, map),
            Expr::Hash(args) => args.iter_mut().for_each(|a| expr(a, map)),
            Expr::Bin(_, l, r) => {
                expr(l, map);
                expr(r, map);
            }
            Expr::Un(_, v) => expr(v, map),
            _ => {}
        }
    }
    for s in block {
        match s {
            Stmt::Let(n, e) | Stmt::AssignLocal(n, e) => {
                if let Some(r) = map.get(n) {
                    *n = r.clone();
                }
                expr(e, map);
            }
            Stmt::AssignField(_, e) | Stmt::Forward(e) => expr(e, map),
            Stmt::MapPut(_, k, v) | Stmt::RegWrite(_, k, v) => {
                expr(k, map);
                expr(v, map);
            }
            Stmt::MapDelete(_, k) => expr(k, map),
            Stmt::If(c, t, e) => {
                expr(c, map);
                rename_locals_in_block(t, map);
                rename_locals_in_block(e, map);
            }
            Stmt::Repeat(_, b) => rename_locals_in_block(b, map),
            Stmt::Invoke(_, args) => args.iter_mut().for_each(|a| expr(a, map)),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Energy
// ---------------------------------------------------------------------------

/// How the compiler weighs latency vs. energy when choosing a target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
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
/// this is the crossover in E11b: small loads are cheapest on low-envelope
/// targets (NICs), loads beyond their throughput force the ASIC.
pub fn component_power_w(cost: &CostModel, offered_pps: u64) -> f64 {
    if offered_pps > cost.throughput_pps {
        return f64::INFINITY;
    }
    let util = (offered_pps as f64 / cost.throughput_pps as f64).clamp(0.0, 1.0);
    cost.power_at(util) + cost.energy_per_pkt_uj * offered_pps as f64 / 1e6
}

/// Picks the best target for `component` among `candidates` under the given
/// objective; `None` when nothing fits.
pub fn choose_target(
    component: &Component,
    candidates: &[TargetView],
    objective: Objective,
) -> Option<usize> {
    let demand = component.canonical_demand().ok()?;
    let feasible: Vec<usize> = candidates
        .iter()
        .enumerate()
        .filter(|(_, t)| t.fits(component.kind(), &demand))
        .map(|(i, _)| i)
        .collect();
    match objective {
        Objective::Latency => feasible.into_iter().min_by_key(|&i| {
            crate::split::component_latency(component, &candidates[i])
        }),
        Objective::Energy { offered_pps } => feasible.into_iter().min_by(|&a, &b| {
            let pa = component_power_w(&candidates[a].cost_model(), offered_pps);
            let pb = component_power_w(&candidates[b].cost_model(), offered_pps);
            pa.total_cmp(&pb)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::Architecture;
    use flexnet_lang::diff::ProgramBundle;
    use flexnet_lang::parser::{parse_program, parse_source};
    use flexnet_types::{NodeId, ResourceKind};

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn two_tables() -> (TableDecl, TableDecl) {
        let p = parse_program(
            "program p kind any {
               table first {
                 key { ipv4.src : exact; }
                 action mark(m: u32) { meta.mark = m; }
                 action skip() { meta.mark = 0; }
                 default skip();
                 size 64;
               }
               table second {
                 key { tcp.dport : exact; }
                 action out(port: u16) { forward(port); }
                 action stop() { drop(); }
                 default out(0);
                 size 32;
               }
               handler ingress(pkt) { apply first; apply second; forward(0); }
             }",
        )
        .unwrap();
        (TableDecl::clone(&p.tables[0]), TableDecl::clone(&p.tables[1]))
    }

    #[test]
    fn merge_cross_product_size_and_keys() {
        let (a, b) = two_tables();
        let reg = HeaderRegistry::builtins();
        let m = merge_tables(&a, &b, &reg).unwrap();
        assert_eq!(m.merged.size, 64 * 32);
        assert_eq!(m.merged.keys.len(), 2);
        assert_eq!(m.merged.actions.len(), 4, "action cross product");
        assert_eq!(m.lookups_saved, 1);
        // Memory grows…
        assert!(
            m.demand_after.get(ResourceKind::SramKb)
                > m.demand_before.get(ResourceKind::SramKb)
        );
        // …and the default is the pair of defaults.
        assert_eq!(m.merged.default_action.as_ref().unwrap().action, "skip__out");
    }

    #[test]
    fn merged_actions_concatenate_bodies() {
        let (a, b) = two_tables();
        let reg = HeaderRegistry::builtins();
        let m = merge_tables(&a, &b, &reg).unwrap();
        let mo = m.merged.actions.iter().find(|x| x.name == "mark__out").unwrap();
        assert_eq!(mo.params.len(), 2);
        assert_eq!(mo.body.len(), 2, "both bodies present");
    }

    #[test]
    fn merge_renames_colliding_params() {
        let p = parse_program(
            "program p kind any {
               table x { key { ipv4.src : exact; }
                 action set(v: u32) { meta.a = v; } size 4; }
               table y { key { ipv4.dst : exact; }
                 action set(v: u32) { meta.b = v; } size 4; }
             }",
        )
        .unwrap();
        let reg = HeaderRegistry::builtins();
        let m = merge_tables(&p.tables[0], &p.tables[1], &reg).unwrap();
        let act = &m.merged.actions[0];
        assert_eq!(act.params.len(), 2);
        assert_ne!(act.params[0].0, act.params[1].0, "params deduplicated");
    }

    #[test]
    fn self_merge_rejected() {
        let (a, _) = two_tables();
        assert!(merge_tables(&a, &a, &HeaderRegistry::builtins()).is_err());
    }

    #[test]
    fn energy_objective_prefers_nic_at_low_load_asic_at_high() {
        // Marginal-power model: at low pps everything is cheap, but the
        // SmartNIC's small envelope wins; at very high pps the ASIC's tiny
        // per-packet energy wins despite its bigger envelope.
        let comp = Component::new(
            "probe",
            bundle(
                "program probe kind any { handler ingress(pkt) { forward(0); } }",
            ),
        );
        let candidates = vec![
            TargetView::fresh(NodeId(1), Architecture::drmt_default()),
            TargetView::fresh(NodeId(2), Architecture::smartnic_default()),
        ];
        let low = choose_target(&comp, &candidates, Objective::Energy { offered_pps: 10_000 })
            .unwrap();
        assert_eq!(candidates[low].node, NodeId(2), "NIC wins at low load");
        let high = choose_target(
            &comp,
            &candidates,
            Objective::Energy {
                offered_pps: 500_000_000, // beyond the NIC's 50 Mpps
            },
        )
        .unwrap();
        assert_eq!(candidates[high].node, NodeId(1), "ASIC wins at high load");
    }

    #[test]
    fn latency_objective_prefers_asic() {
        let comp = Component::new(
            "probe",
            bundle(
                "program probe kind any { handler ingress(pkt) { forward(0); } }",
            ),
        );
        let candidates = vec![
            TargetView::fresh(NodeId(1), Architecture::host_default()),
            TargetView::fresh(NodeId(2), Architecture::drmt_default()),
        ];
        let i = choose_target(&comp, &candidates, Objective::Latency).unwrap();
        assert_eq!(candidates[i].node, NodeId(2));
    }

    #[test]
    fn choose_target_none_when_nothing_fits() {
        let comp = Component::new(
            "sw_only",
            bundle(
                "program sw_only kind switch { handler ingress(pkt) { forward(0); } }",
            ),
        );
        let candidates = vec![TargetView::fresh(NodeId(1), Architecture::host_default())];
        assert!(choose_target(&comp, &candidates, Objective::Latency).is_none());
    }

    #[test]
    fn component_power_monotone_in_load() {
        let cm = CostModel::for_arch(flexnet_dataplane::ArchClass::Host);
        assert!(component_power_w(&cm, 1_000_000) > component_power_w(&cm, 1_000));
    }
}
