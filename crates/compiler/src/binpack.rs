//! Bin-packing placement.
//!
//! "Existing network compilers assume that device resource limits are an
//! unyielding constraint and primarily focus on bin-packing programs within
//! available resources" (paper §3.3). This module is that classical layer:
//! first-fit-decreasing and best-fit heuristics over [`TargetView`]s. The
//! fungible loop (`fungible.rs`) builds on top of it.

use crate::target::{Component, Placement, TargetView};
use flexnet_types::{FlexError, Result};

/// The packing heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackStrategy {
    /// First fit over targets in the given order, components sorted by
    /// decreasing demand weight.
    FirstFitDecreasing,
    /// Best fit: the target left fullest (tightest) after placement wins —
    /// concentrates load, leaving big holes elsewhere.
    BestFit,
    /// Worst fit: the target left emptiest wins — spreads load evenly.
    WorstFit,
}

/// Packs `components` onto `targets` (mutating their free capacity).
///
/// On failure the targets are left partially committed; callers that need
/// transactional behaviour should clone the target set first (the fungible
/// loop does).
pub fn pack(
    components: &[Component],
    targets: &mut [TargetView],
    strategy: PackStrategy,
) -> Result<Placement> {
    // Sort components by decreasing heuristic weight so large ones claim
    // space first (classical FFD).
    let mut order: Vec<(usize, u64)> = components
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let w = c
                .canonical_demand()
                .map(|d| d.heuristic_weight())
                .unwrap_or(0);
            (i, w)
        })
        .collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut placement = Placement::default();
    for (idx, _) in order {
        let c = &components[idx];
        let demand = c.canonical_demand()?;
        let kind = c.kind();
        let chosen = match strategy {
            PackStrategy::FirstFitDecreasing => targets.iter().position(|t| t.fits(kind, &demand)),
            PackStrategy::BestFit => targets
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.fill_after(kind, &demand).map(|f| (i, f)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i),
            PackStrategy::WorstFit => targets
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.fill_after(kind, &demand).map(|f| (i, f)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i),
        };
        let Some(i) = chosen else {
            return Err(FlexError::ResourceExhausted {
                needed: Box::new(demand),
                available: Box::new(targets.iter().fold(
                    flexnet_types::ResourceVec::new(),
                    |mut acc, t| {
                        acc += &t.free;
                        acc
                    },
                )),
                context: format!("component `{}` ({kind})", c.name),
            });
        };
        targets[i].commit(&demand);
        placement
            .assignments
            .insert(c.name.clone(), targets[i].node);
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::Architecture;
    use flexnet_lang::diff::ProgramBundle;
    use flexnet_lang::parser::parse_source;
    use flexnet_types::{NodeId, ResourceKind, ResourceVec};

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn comp(name: &str, table_size: u64) -> Component {
        Component::new(
            name,
            bundle(&format!(
                "program {name} kind any {{
                   table t {{ key {{ ipv4.src : exact; }} size {table_size}; }}
                   handler ingress(pkt) {{ apply t; forward(0); }}
                 }}"
            )),
        )
    }

    fn small_switch(node: u32, sram_kb: u64) -> TargetView {
        TargetView::fresh(
            NodeId(node),
            Architecture::Drmt {
                processors: 4,
                pool: ResourceVec::from_pairs([
                    (ResourceKind::SramKb, sram_kb),
                    (ResourceKind::ActionSlots, 4096),
                ]),
            },
        )
    }

    #[test]
    fn ffd_places_everything_when_it_fits() {
        let comps = vec![comp("a", 1024), comp("b", 1024), comp("c", 1024)];
        let mut targets = vec![small_switch(1, 64), small_switch(2, 64)];
        let p = pack(&comps, &mut targets, PackStrategy::FirstFitDecreasing).unwrap();
        assert_eq!(p.len(), 3);
        for c in &comps {
            assert!(p.node_of(&c.name).is_some());
        }
    }

    #[test]
    fn exhaustion_reports_component() {
        // Each 8192-entry exact table on ipv4.src is 64 KiB; a 64 KiB switch
        // fits exactly one.
        let comps = vec![comp("a", 8192), comp("b", 8192)];
        let mut targets = vec![small_switch(1, 64)];
        let err = pack(&comps, &mut targets, PackStrategy::FirstFitDecreasing).unwrap_err();
        assert!(err.to_string().contains('`'), "{err}");
    }

    #[test]
    fn best_fit_concentrates_worst_fit_spreads() {
        // Two identical targets, two small components.
        let comps = vec![comp("a", 512), comp("b", 512)];

        let mut bf_targets = vec![small_switch(1, 64), small_switch(2, 64)];
        let bf = pack(&comps, &mut bf_targets, PackStrategy::BestFit).unwrap();
        assert_eq!(
            bf.node_of("a"),
            bf.node_of("b"),
            "best-fit stacks onto one target"
        );

        let mut wf_targets = vec![small_switch(1, 64), small_switch(2, 64)];
        let wf = pack(&comps, &mut wf_targets, PackStrategy::WorstFit).unwrap();
        assert_ne!(
            wf.node_of("a"),
            wf.node_of("b"),
            "worst-fit spreads across targets"
        );
    }

    #[test]
    fn decreasing_order_avoids_ffd_trap() {
        // One 48K table + two 24K tables over two 64K bins only packs if the
        // big one goes first (48+24 | 24), not (24+24 | 48 doesn't fit 64?
        // it does… construct tighter: bins 64 and 32; items 48, 24, 24).
        let comps = vec![
            comp("small1", 3072),
            comp("big", 6144),
            comp("small2", 3072),
        ];
        // 6144 entries * 64 bits = 48 KiB; 3072 -> 24 KiB.
        let mut targets = vec![small_switch(1, 72), small_switch(2, 24)];
        let p = pack(&comps, &mut targets, PackStrategy::FirstFitDecreasing).unwrap();
        // big must share bin 1 with exactly one small.
        assert_eq!(p.node_of("big"), Some(NodeId(1)));
    }

    #[test]
    fn kind_gates_targets() {
        let c = Component::new(
            "hostfn",
            bundle("program hostfn kind host { handler ingress(pkt) { forward(0); } }"),
        );
        let mut switches = vec![small_switch(1, 64)];
        assert!(pack(
            std::slice::from_ref(&c),
            &mut switches,
            PackStrategy::FirstFitDecreasing
        )
        .is_err());
        let mut hosts = vec![TargetView::fresh(NodeId(2), Architecture::host_default())];
        let p = pack(&[c], &mut hosts, PackStrategy::FirstFitDecreasing).unwrap();
        assert_eq!(p.node_of("hostfn"), Some(NodeId(2)));
    }
}
