//! The "fungible datapath" abstraction and its vertical/horizontal splitter.
//!
//! Paper §3.1: "We call this abstraction a 'fungible datapath', which
//! logically models a whole-stack network device … Under the hood, it is
//! implemented on a physical slice of the end-to-end network. The compiler
//! analyzes the datapath program and determines which components should run
//! where."
//!
//! A [`LogicalDatapath`] is an ordered chain of FlexBPF components; the
//! splitter maps them onto an ordered *path* of physical devices
//! (host → NIC → switches → NIC → host), respecting two constraints:
//!
//! - **vertical**: a component's `kind` must be supported by the device's
//!   architecture (host code on hosts, switch code on ASICs, …);
//! - **horizontal**: components execute in datapath order, so a later
//!   component may not sit *earlier* on the path than its predecessor
//!   (traffic flows through devices in sequence, §3.3).

use crate::target::{Component, Placement, TargetView};
use flexnet_types::{FlexError, Result, SimDuration};

/// A whole-stack logical datapath: an ordered chain of components.
#[derive(Debug, Clone)]
pub struct LogicalDatapath {
    /// Datapath name (used as the app handle by the controller).
    pub name: String,
    /// Components, in traffic order.
    pub components: Vec<Component>,
    /// Optional end-to-end processing-latency SLA.
    pub latency_sla: Option<SimDuration>,
}

impl LogicalDatapath {
    /// A datapath with no SLA.
    pub fn new(name: &str, components: Vec<Component>) -> LogicalDatapath {
        LogicalDatapath {
            name: name.to_string(),
            components,
            latency_sla: None,
        }
    }
}

/// The result of splitting a datapath onto a path.
#[derive(Debug, Clone)]
pub struct SplitResult {
    /// Component → device placement.
    pub placement: Placement,
    /// Estimated added processing latency across the slice.
    pub est_latency: SimDuration,
}

/// Estimated per-packet processing latency a component adds on a target.
/// A component whose headers do not build has no estimate: the registry's
/// error, never a zero that would certify any SLA.
pub fn component_latency(component: &Component, target: &TargetView) -> Result<SimDuration> {
    // Worst-case ops of the component's handlers under this target's cost
    // model. (The verifier bound is computed per handler; use the program's
    // element decomposition.)
    let registry =
        flexnet_lang::headers::HeaderRegistry::with_user_headers(&component.bundle.headers)?;
    let ops = flexnet_lang::ir::program_elements(
        &component.bundle.program,
        &component.bundle.headers,
        &registry,
    )
    .iter()
    .map(|e| e.ops)
    .max()
    .unwrap_or(0);
    Ok(target.cost_model().packet_latency(ops))
}

/// Whether a target is the *native* tier for a component kind (vs. merely
/// capable of emulating it).
fn native_tier(kind: flexnet_lang::ast::ProgramKind, target: &TargetView) -> bool {
    use flexnet_dataplane::ArchClass;
    use flexnet_lang::ast::ProgramKind;
    match kind {
        ProgramKind::Switch => matches!(
            target.arch.class(),
            ArchClass::Rmt | ArchClass::Drmt | ArchClass::Tiled
        ),
        ProgramKind::Nic => target.arch.class() == ArchClass::SmartNic,
        ProgramKind::Host => target.arch.class() == ArchClass::Host,
        ProgramKind::Any => true,
    }
}

/// Splits `datapath` across the ordered device `path`, committing resources
/// on success. Checks the latency SLA when one is set.
pub fn split_datapath(datapath: &LogicalDatapath, path: &mut [TargetView]) -> Result<SplitResult> {
    let mut placement = Placement::default();
    let mut cursor = 0usize; // earliest admissible path index
    let mut est_latency = SimDuration::ZERO;
    // Transactional: stage commits, apply at the end.
    let mut staged: Vec<(usize, flexnet_types::ResourceVec)> = Vec::new();
    let mut shadow: Vec<TargetView> = path.to_vec();

    for c in &datapath.components {
        let demand = c.canonical_demand()?;
        // Prefer the component's native tier (a `nic` component goes to a
        // SmartNIC even though a host could run it in software), then fall
        // back to any supporting device.
        let native = (cursor..shadow.len())
            .find(|&i| native_tier(c.kind(), &shadow[i]) && shadow[i].fits(c.kind(), &demand));
        let found =
            native.or_else(|| (cursor..shadow.len()).find(|&i| shadow[i].fits(c.kind(), &demand)));
        let Some(i) = found else {
            return Err(FlexError::Compile(format!(
                "datapath `{}`: no device at or after path position {cursor} fits \
                 component `{}` ({})",
                datapath.name,
                c.name,
                c.kind()
            )));
        };
        est_latency += component_latency(c, &shadow[i])?;
        shadow[i].commit(&demand);
        staged.push((i, demand));
        placement.assignments.insert(c.name.clone(), shadow[i].node);
        cursor = i;
    }

    if let Some(sla) = datapath.latency_sla {
        if est_latency > sla {
            return Err(FlexError::SlaViolation(format!(
                "datapath `{}`: estimated latency {est_latency} exceeds SLA {sla}",
                datapath.name
            )));
        }
    }

    for (i, demand) in staged {
        path[i].commit(&demand);
    }
    Ok(SplitResult {
        placement,
        est_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::Architecture;
    use flexnet_lang::diff::ProgramBundle;
    use flexnet_lang::parser::parse_source;
    use flexnet_types::NodeId;

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn comp(name: &str, kind: &str) -> Component {
        Component::new(
            name,
            bundle(&format!(
                "program {name} kind {kind} {{
                   counter c;
                   handler ingress(pkt) {{ count(c); forward(0); }}
                 }}"
            )),
        )
    }

    fn stack_path() -> Vec<TargetView> {
        vec![
            TargetView::fresh(NodeId(0), Architecture::host_default()),
            TargetView::fresh(NodeId(1), Architecture::smartnic_default()),
            TargetView::fresh(NodeId(2), Architecture::drmt_default()),
            TargetView::fresh(NodeId(3), Architecture::smartnic_default()),
            TargetView::fresh(NodeId(4), Architecture::host_default()),
        ]
    }

    #[test]
    fn vertical_split_respects_kinds() {
        let dp = LogicalDatapath::new(
            "cc_stack",
            vec![
                comp("cc_host", "host"),
                comp("telemetry_nic", "nic"),
                comp("ecn_marking", "switch"),
            ],
        );
        let mut path = stack_path();
        let r = split_datapath(&dp, &mut path).unwrap();
        assert_eq!(r.placement.node_of("cc_host"), Some(NodeId(0)));
        assert_eq!(r.placement.node_of("telemetry_nic"), Some(NodeId(1)));
        assert_eq!(r.placement.node_of("ecn_marking"), Some(NodeId(2)));
        assert!(r.est_latency > SimDuration::ZERO);
    }

    #[test]
    fn horizontal_ordering_monotone() {
        // A switch component followed by a host component: the host must be
        // the FAR host (index 4), not the near one (index 0).
        let dp = LogicalDatapath::new(
            "ordered",
            vec![comp("sw_fn", "switch"), comp("sink_fn", "host")],
        );
        let mut path = stack_path();
        let r = split_datapath(&dp, &mut path).unwrap();
        assert_eq!(r.placement.node_of("sw_fn"), Some(NodeId(2)));
        assert_eq!(r.placement.node_of("sink_fn"), Some(NodeId(4)));
    }

    #[test]
    fn impossible_order_rejected() {
        // switch fn after the far host: nothing supports switch past idx 4.
        let dp = LogicalDatapath::new(
            "bad",
            vec![
                comp("h1", "host"),
                comp("h2", "host"), // takes index 4 (h1 took 0? no: cursor
                // moves to 0 then next host at >=0 is 0? fits checks free;
                // both host comps are small so both could land at index 0.
                comp("late_switch", "switch"),
            ],
        );
        // Force h2 onto the far host by filling index 0 after h1: simpler —
        // place switch component last after a component that only fits at
        // the far host.
        let mut path = stack_path();
        // h1 -> 0, h2 -> 0 (same device still has room), late_switch -> 2.
        // That actually succeeds; make a truly impossible chain instead:
        let r = split_datapath(&dp, &mut path);
        assert!(r.is_ok());
        let dp_bad = LogicalDatapath::new("bad2", vec![comp("far", "host"), comp("sw", "switch")]);
        // Fill every host except the far one is complex; instead use a path
        // whose only switch precedes the only host that fits `far`… easiest:
        // path = [switch, host]; component order [host, switch] cannot hold.
        let mut short = vec![
            TargetView::fresh(NodeId(2), Architecture::drmt_default()),
            TargetView::fresh(NodeId(4), Architecture::host_default()),
        ];
        let err = split_datapath(&dp_bad, &mut short).unwrap_err();
        assert!(matches!(err, FlexError::Compile(_)), "{err}");
    }

    #[test]
    fn failure_leaves_path_untouched() {
        let dp = LogicalDatapath::new(
            "partial",
            vec![comp("ok", "host"), comp("impossible", "switch")],
        );
        let mut short = vec![TargetView::fresh(NodeId(0), Architecture::host_default())];
        let before: Vec<_> = short.iter().map(|t| t.free).collect();
        assert!(split_datapath(&dp, &mut short).is_err());
        let after: Vec<_> = short.iter().map(|t| t.free).collect();
        assert_eq!(before, after, "transactional split must not leak commits");
    }

    #[test]
    fn sla_enforced() {
        let mut dp = LogicalDatapath::new("slow", vec![comp("h", "host")]);
        dp.latency_sla = Some(SimDuration::from_nanos(1));
        let mut path = stack_path();
        let err = split_datapath(&dp, &mut path).unwrap_err();
        assert!(matches!(err, FlexError::SlaViolation(_)), "{err}");

        dp.latency_sla = Some(SimDuration::from_millis(1));
        split_datapath(&dp, &mut path).unwrap();
    }

    #[test]
    fn latency_prefers_asic_over_host() {
        let c = comp("x", "any");
        let host = TargetView::fresh(NodeId(0), Architecture::host_default());
        let asic = TargetView::fresh(NodeId(2), Architecture::drmt_default());
        assert!(component_latency(&c, &asic).unwrap() < component_latency(&c, &host).unwrap());
    }

    #[test]
    fn headers_that_do_not_build_have_no_latency_and_no_placement() {
        let mut c = comp("dup", "any");
        let twice =
            bundle("header a { fields { x: 8; } } header a { fields { y: 8; } } program p { }");
        c.bundle.headers = twice.headers;
        let want = "type error: header `a` is already declared";
        let host = TargetView::fresh(NodeId(0), Architecture::host_default());
        let err = component_latency(&c, &host).unwrap_err();
        assert!(
            matches!(&err, FlexError::Type(_)) && err.to_string() == want,
            "{err}"
        );
        let mut path = stack_path();
        let err = split_datapath(&LogicalDatapath::new("dp", vec![c]), &mut path).unwrap_err();
        assert_eq!(err.to_string(), want);
    }
}
