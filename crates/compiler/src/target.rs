//! The compiler's view of the network: placement targets.
//!
//! The compiler never mutates live devices; it plans against
//! [`TargetView`] snapshots (architecture + free capacity) and emits a
//! [`Placement`] that the controller then effects via runtime
//! reconfiguration. This mirrors the paper's split between the compiler
//! (§3.3) and the network controller that pilots changes (§3.4).

use flexnet_dataplane::{Architecture, CostModel, Device};
use flexnet_lang::ast::ProgramKind;
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::headers::HeaderRegistry;
use flexnet_lang::ir::program_demand;
use flexnet_types::{NodeId, ResourceVec, Result};
use std::collections::BTreeMap;

/// A placeable unit: one named component of a logical datapath.
#[derive(Debug, Clone)]
pub struct Component {
    /// Unique component name within the datapath.
    pub name: String,
    /// The FlexBPF bundle implementing it.
    pub bundle: ProgramBundle,
}

impl Component {
    /// Wraps a bundle under a name.
    pub fn new(name: &str, bundle: ProgramBundle) -> Component {
        Component {
            name: name.to_string(),
            bundle,
        }
    }

    /// The placement-constraining kind.
    pub fn kind(&self) -> ProgramKind {
        self.bundle.program.kind
    }

    /// Canonical (architecture-independent) resource demand.
    pub fn canonical_demand(&self) -> Result<ResourceVec> {
        let registry = HeaderRegistry::with_user_headers(&self.bundle.headers)?;
        Ok(program_demand(
            &self.bundle.program,
            &self.bundle.headers,
            &registry,
        ))
    }
}

/// A snapshot of one device as a placement target.
#[derive(Debug, Clone)]
pub struct TargetView {
    /// The device this snapshot describes.
    pub node: NodeId,
    /// Its architecture.
    pub arch: Architecture,
    /// Free capacity in the architecture's own resource kinds.
    pub free: ResourceVec,
}

impl TargetView {
    /// Snapshots a live device.
    pub fn of_device(device: &Device) -> TargetView {
        TargetView {
            node: device.id(),
            arch: device.architecture().clone(),
            free: device.capacity().saturating_sub(&device.used()),
        }
    }

    /// A fresh (empty) target of the given architecture.
    pub fn fresh(node: NodeId, arch: Architecture) -> TargetView {
        let free = arch.capacity();
        TargetView { node, arch, free }
    }

    /// The cost model of this target's class.
    pub fn cost_model(&self) -> CostModel {
        CostModel::for_arch(self.arch.class())
    }

    /// Whether a component of `kind` with `canonical` demand fits here.
    pub fn fits(&self, kind: ProgramKind, canonical: &ResourceVec) -> bool {
        self.arch.supports(kind) && self.free.covers(&self.arch.normalize(canonical))
    }

    /// Commits a canonical demand (after a successful `fits`).
    pub fn commit(&mut self, canonical: &ResourceVec) {
        self.free = self.free.saturating_sub(&self.arch.normalize(canonical));
    }

    /// Releases a canonical demand (GC / move-away).
    pub fn release(&mut self, canonical: &ResourceVec) {
        self.free += self.arch.normalize(canonical);
    }

    /// Max-component utilization if `canonical` were added (heuristic for
    /// best-fit ordering); `None` when it does not fit.
    pub fn fill_after(&self, kind: ProgramKind, canonical: &ResourceVec) -> Option<f64> {
        if !self.fits(kind, canonical) {
            return None;
        }
        let cap = self.arch.capacity();
        let used_after = cap.saturating_sub(&self.free) + self.arch.normalize(canonical);
        Some(used_after.utilization_of(&cap))
    }
}

/// The compiler's output: component → device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// Component name → node.
    pub assignments: BTreeMap<String, NodeId>,
}

impl Placement {
    /// Where a component landed.
    pub fn node_of(&self, component: &str) -> Option<NodeId> {
        self.assignments.get(component).copied()
    }

    /// Number of placed components.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::StateEncoding;
    use flexnet_lang::parser::parse_source;

    pub(crate) fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn comp(name: &str, kind: &str, table_size: u64) -> Component {
        Component::new(
            name,
            bundle(&format!(
                "program {name} kind {kind} {{
                   table t {{ key {{ ipv4.src : exact; }} size {table_size}; }}
                   handler ingress(pkt) {{ apply t; forward(0); }}
                 }}"
            )),
        )
    }

    #[test]
    fn component_demand_and_kind() {
        let c = comp("fw", "switch", 4096);
        assert_eq!(c.kind(), ProgramKind::Switch);
        assert_ne!(c.canonical_demand().unwrap(), ResourceVec::new());
    }

    #[test]
    fn fresh_target_fits_and_commits() {
        let mut t = TargetView::fresh(NodeId(1), Architecture::drmt_default());
        let c = comp("fw", "switch", 4096);
        let d = c.canonical_demand().unwrap();
        assert!(t.fits(c.kind(), &d));
        let before = t.free;
        t.commit(&d);
        assert!(before.covers(&t.free));
        assert_ne!(before, t.free);
        t.release(&d);
        assert_eq!(before, t.free);
    }

    #[test]
    fn kind_constraints_respected() {
        let t = TargetView::fresh(NodeId(1), Architecture::smartnic_default());
        let c = comp("fw", "switch", 64);
        assert!(!t.fits(c.kind(), &c.canonical_demand().unwrap()));
        let c2 = comp("off", "nic", 64);
        assert!(t.fits(c2.kind(), &c2.canonical_demand().unwrap()));
    }

    #[test]
    fn of_device_reflects_usage() {
        let mut dev = Device::new(
            NodeId(7),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        let empty_view = TargetView::of_device(&dev);
        dev.install(comp("x", "any", 8192).bundle).unwrap();
        let used_view = TargetView::of_device(&dev);
        assert!(empty_view.free.covers(&used_view.free));
        assert_ne!(empty_view.free, used_view.free);
    }

    #[test]
    fn fill_after_orders_best_fit() {
        let small = TargetView::fresh(
            NodeId(1),
            Architecture::Drmt {
                processors: 2,
                pool: ResourceVec::from_pairs([
                    (flexnet_types::ResourceKind::SramKb, 64),
                    (flexnet_types::ResourceKind::ActionSlots, 64),
                ]),
            },
        );
        let big = TargetView::fresh(NodeId(2), Architecture::drmt_default());
        let c = comp("fw", "any", 1024);
        let d = c.canonical_demand().unwrap();
        let f_small = small.fill_after(c.kind(), &d).unwrap();
        let f_big = big.fill_after(c.kind(), &d).unwrap();
        assert!(f_small > f_big, "smaller target fills more");
    }

    #[test]
    fn placement_queries() {
        let mut p = Placement::default();
        p.assignments.insert("a".into(), NodeId(1));
        p.assignments.insert("b".into(), NodeId(1));
        p.assignments.insert("c".into(), NodeId(2));
        assert_eq!(p.node_of("a"), Some(NodeId(1)));
        assert_eq!(p.node_of("z"), None);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}
