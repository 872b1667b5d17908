//! Incremental recompilation.
//!
//! Paper §3.3: "When compiling runtime changes into the network, FlexNet
//! also needs to perform incremental recompilation. FlexNet not only needs
//! to generate optimized programs, but also needs to minimize the amount of
//! resource reshuffling by identifying 'maximally adjacent reconfigurations'
//! that lead to non-intrusive redistribution. As resource shuffling may also
//! affect datapath performance, FlexNet needs to re-certify SLA objectives
//! as well."
//!
//! [`recompile_incremental`] keeps every still-fitting component exactly
//! where it was (the maximally adjacent choice), places only the new or
//! displaced ones, and re-certifies the latency SLA. Experiment E7 compares
//! its move count and cost against a from-scratch recompile.

use crate::binpack::{pack, PackStrategy};
use crate::split::component_latency;
use crate::target::{Component, Placement, TargetView};
use flexnet_types::{FlexError, Result, SimDuration};
use std::collections::BTreeMap;

/// What an incremental recompilation did.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// The new placement.
    pub placement: Placement,
    /// Components that stayed on their old device.
    pub kept: Vec<String>,
    /// Components that had to move devices.
    pub moved: Vec<String>,
    /// Components that are new in this version.
    pub added: Vec<String>,
    /// Old components no longer present (their resources are reclaimed).
    pub removed: Vec<String>,
    /// Re-certified end-to-end processing latency estimate.
    pub est_latency: SimDuration,
}

impl IncrementalResult {
    /// Reconfiguration intrusiveness: moved + added + removed (the number
    /// of devices-touching operations). Kept components cost nothing.
    pub fn churn(&self) -> usize {
        self.moved.len() + self.added.len() + self.removed.len()
    }
}

/// Recompiles `new_components` against `targets`, reusing `old` placements
/// wherever the component still exists, is unchanged in kind, and still
/// fits on its old device.
///
/// `targets` must describe free capacity *excluding* this datapath's own
/// current usage (the caller releases the old version first); the old
/// placement is only used as an affinity hint.
pub fn recompile_incremental(
    old: &Placement,
    old_components: &[Component],
    new_components: &[Component],
    targets: &[TargetView],
    latency_sla: Option<SimDuration>,
) -> Result<IncrementalResult> {
    let mut working: Vec<TargetView> = targets.to_vec();
    let mut placement = Placement::default();
    let mut kept = Vec::new();
    let mut moved = Vec::new();
    let mut added = Vec::new();

    let old_names: BTreeMap<&str, &Component> = old_components
        .iter()
        .map(|c| (c.name.as_str(), c))
        .collect();

    // Phase 1: pin still-valid components to their old device.
    let mut leftovers: Vec<Component> = Vec::new();
    for c in new_components {
        let demand = c.canonical_demand()?;
        let prior = old
            .node_of(&c.name)
            .filter(|_| old_names.contains_key(c.name.as_str()));
        match prior.and_then(|node| {
            working
                .iter_mut()
                .find(|t| t.node == node && t.fits(c.kind(), &demand))
        }) {
            Some(t) => {
                t.commit(&demand);
                placement.assignments.insert(c.name.clone(), t.node);
                kept.push(c.name.clone());
            }
            None => leftovers.push(c.clone()),
        }
    }

    // Phase 2: pack the leftovers (new components and displaced ones).
    if !leftovers.is_empty() {
        let sub = pack(&leftovers, &mut working, PackStrategy::FirstFitDecreasing)?;
        for c in &leftovers {
            let node = sub
                .node_of(&c.name)
                .ok_or_else(|| FlexError::Compile(format!("component `{}` unplaced", c.name)))?;
            placement.assignments.insert(c.name.clone(), node);
            if old.node_of(&c.name).is_some() {
                moved.push(c.name.clone());
            } else {
                added.push(c.name.clone());
            }
        }
    }

    let removed: Vec<String> = old
        .assignments
        .keys()
        .filter(|name| !new_components.iter().any(|c| &c.name == *name))
        .cloned()
        .collect();

    // SLA re-certification on the new placement.
    let mut est_latency = SimDuration::ZERO;
    for c in new_components {
        let node = placement.node_of(&c.name).expect("placed above");
        let t = working
            .iter()
            .find(|t| t.node == node)
            .expect("node from working set");
        est_latency += component_latency(c, t)?;
    }
    if let Some(sla) = latency_sla {
        if est_latency > sla {
            return Err(FlexError::SlaViolation(format!(
                "recompilation estimate {est_latency} exceeds SLA {sla}"
            )));
        }
    }

    Ok(IncrementalResult {
        placement,
        kept,
        moved,
        added,
        removed,
        est_latency,
    })
}

/// A from-scratch recompile of the same inputs (the E7 baseline): every
/// component is (re)placed with no affinity, so every placement change
/// counts as churn.
pub fn recompile_full(
    old: &Placement,
    new_components: &[Component],
    targets: &[TargetView],
) -> Result<IncrementalResult> {
    let mut working = targets.to_vec();
    let sub = pack(new_components, &mut working, PackStrategy::BestFit)?;
    let mut placement = Placement::default();
    let mut kept = Vec::new();
    let mut moved = Vec::new();
    let mut added = Vec::new();
    for c in new_components {
        let node = sub.node_of(&c.name).expect("packed");
        placement.assignments.insert(c.name.clone(), node);
        match old.node_of(&c.name) {
            Some(n) if n == node => kept.push(c.name.clone()),
            Some(_) => moved.push(c.name.clone()),
            None => added.push(c.name.clone()),
        }
    }
    let removed: Vec<String> = old
        .assignments
        .keys()
        .filter(|name| !new_components.iter().any(|c| &c.name == *name))
        .cloned()
        .collect();
    let mut est_latency = SimDuration::ZERO;
    for c in new_components {
        let node = placement.node_of(&c.name).expect("placed");
        if let Some(t) = working.iter().find(|t| t.node == node) {
            est_latency += component_latency(c, t)?;
        }
    }
    Ok(IncrementalResult {
        placement,
        kept,
        moved,
        added,
        removed,
        est_latency,
    })
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

    fn comp(name: &str, entries: u64) -> Component {
        Component::new(
            name,
            bundle(&format!(
                "program {name} kind any {{
                   table t {{ key {{ ipv4.src : exact; }} size {entries}; }}
                   handler ingress(pkt) {{ apply t; forward(0); }}
                 }}"
            )),
        )
    }

    fn switch(node: u32, sram_kb: u64) -> TargetView {
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

    fn initial_placement(comps: &[Component], targets: &[TargetView]) -> Placement {
        let mut working = targets.to_vec();
        pack(comps, &mut working, PackStrategy::FirstFitDecreasing).unwrap()
    }

    #[test]
    fn adding_one_component_moves_nothing() {
        let old_comps = vec![comp("a", 1024), comp("b", 1024)];
        let targets = vec![switch(1, 128), switch(2, 128)];
        let old = initial_placement(&old_comps, &targets);

        let mut new_comps = old_comps.clone();
        new_comps.push(comp("c", 1024));
        let r = recompile_incremental(&old, &old_comps, &new_comps, &targets, None).unwrap();
        assert_eq!(r.kept.len(), 2);
        assert!(r.moved.is_empty());
        assert_eq!(r.added, vec!["c".to_string()]);
        assert_eq!(r.churn(), 1);
        // Kept components stayed put.
        for name in ["a", "b"] {
            assert_eq!(r.placement.node_of(name), old.node_of(name));
        }
    }

    #[test]
    fn removal_reported() {
        let old_comps = vec![comp("a", 1024), comp("b", 1024)];
        let targets = vec![switch(1, 128)];
        let old = initial_placement(&old_comps, &targets);
        let new_comps = vec![comp("a", 1024)];
        let r = recompile_incremental(&old, &old_comps, &new_comps, &targets, None).unwrap();
        assert_eq!(r.removed, vec!["b".to_string()]);
        assert_eq!(r.kept, vec!["a".to_string()]);
    }

    #[test]
    fn grown_component_moves_when_old_home_too_small() {
        // a grows from 1024 to 8192 entries (8 KiB -> 64 KiB); device 1 only
        // has 32 KiB, device 2 has plenty.
        let old_comps = vec![comp("a", 1024)];
        let targets = vec![switch(1, 32), switch(2, 128)];
        let old = initial_placement(&old_comps, &targets);
        assert_eq!(old.node_of("a"), Some(NodeId(1)));

        let new_comps = vec![comp("a", 8192)];
        let r = recompile_incremental(&old, &old_comps, &new_comps, &targets, None).unwrap();
        assert_eq!(r.moved, vec!["a".to_string()]);
        assert_eq!(r.placement.node_of("a"), Some(NodeId(2)));
    }

    #[test]
    fn incremental_churn_at_most_full_churn() {
        // Several components; change one. Incremental must touch fewer (or
        // equal) components than a from-scratch best-fit recompile.
        let old_comps: Vec<Component> = (0..6).map(|i| comp(&format!("c{i}"), 2048)).collect();
        let targets = vec![switch(1, 128), switch(2, 128), switch(3, 128)];
        let old = initial_placement(&old_comps, &targets);

        let mut new_comps = old_comps.clone();
        new_comps[3] = comp("c3", 4096); // one component grows
        let inc = recompile_incremental(&old, &old_comps, &new_comps, &targets, None).unwrap();
        let full = recompile_full(&old, &new_comps, &targets).unwrap();
        assert!(
            inc.churn() <= full.churn(),
            "incremental churn {} vs full churn {}",
            inc.churn(),
            full.churn()
        );
        assert!(inc.churn() <= 2);
    }

    #[test]
    fn sla_recertified() {
        let old_comps = vec![comp("a", 1024)];
        let targets = vec![switch(1, 128)];
        let old = initial_placement(&old_comps, &targets);
        let err = recompile_incremental(
            &old,
            &old_comps,
            &old_comps,
            &targets,
            Some(SimDuration::from_nanos(1)),
        )
        .unwrap_err();
        assert!(matches!(err, FlexError::SlaViolation(_)));
        recompile_incremental(
            &old,
            &old_comps,
            &old_comps,
            &targets,
            Some(SimDuration::from_millis(10)),
        )
        .unwrap();
    }

    #[test]
    fn impossible_growth_fails() {
        let old_comps = vec![comp("a", 1024)];
        let targets = vec![switch(1, 16)];
        let old = initial_placement(&old_comps, &targets);
        let new_comps = vec![comp("a", 65536)];
        assert!(recompile_incremental(&old, &old_comps, &new_comps, &targets, None).is_err());
    }
}
