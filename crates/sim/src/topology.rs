//! Network topology: nodes (hosts, SmartNICs, switches) and links.
//!
//! Nodes wrap runtime-programmable [`Device`]s; links carry latency,
//! bandwidth, and a bounded queue. Builders provide the shapes the
//! experiments use (single switch, line, leaf-spine).

use flexnet_dataplane::{Architecture, Device, StateEncoding};
use flexnet_types::{FlexError, LinkId, NodeId, Result, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The role of a node in the vertical stack (paper §3.1: host stacks vs.
/// NICs vs. switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host (kernel stack).
    Host,
    /// A SmartNIC attached to a host.
    Nic,
    /// A switch.
    Switch,
}

/// One topology node.
#[derive(Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Role.
    pub kind: NodeKind,
    /// The programmable device at this node.
    pub device: Device,
    /// Port number → outgoing link.
    pub ports: BTreeMap<u16, LinkId>,
    /// Device service backlog clears at this instant (throughput model).
    pub busy_until: SimTime,
}

/// One directed link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Link id.
    pub id: LinkId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Maximum queue depth in packets (tail drop beyond).
    pub queue_cap: u32,
    /// Serialization backlog clears at this instant.
    pub busy_until: SimTime,
    /// Whether the link is carrying traffic (fault injection).
    pub up: bool,
}

impl Link {
    /// Serialization delay of `bytes` on this link.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        if self.bandwidth_bps == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(
            (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps,
        )
    }
}

/// The physical network.
///
/// `NodeId`s and `LinkId`s are handed out sequentially from 0 and nothing
/// is ever removed (a crashed device or a cut link stays in place, marked
/// down), so an id *is* its index into these vectors.
#[derive(Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node with the given role and device architecture.
    pub fn add_node(&mut self, kind: NodeKind, arch: Architecture) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let encoding = match kind {
            NodeKind::Switch => StateEncoding::StatefulTable,
            NodeKind::Nic => StateEncoding::FlowInstructionSet,
            NodeKind::Host => StateEncoding::StatefulTable,
        };
        self.nodes.push(Node {
            id,
            kind,
            device: Device::new(id, arch, encoding),
            ports: BTreeMap::new(),
            busy_until: SimTime::ZERO,
        });
        id
    }

    /// Connects `a.port_a` to `b` and `b.port_b` back to `a` with symmetric
    /// characteristics. Returns the two directed link ids, which are always
    /// allocated as an adjacent pair (see [`Topology::reverse_link`]).
    pub fn connect(
        &mut self,
        a: NodeId,
        port_a: u16,
        b: NodeId,
        port_b: u16,
        latency: SimDuration,
        bandwidth_bps: u64,
    ) -> Result<(LinkId, LinkId)> {
        if self.node(a).is_none() || self.node(b).is_none() {
            return Err(FlexError::Sim("connect: unknown node".into()));
        }
        let mut mk = |from: NodeId, to: NodeId| {
            let id = LinkId(self.links.len() as u32);
            self.links.push(Link {
                id,
                from,
                to,
                latency,
                bandwidth_bps,
                queue_cap: 1000,
                busy_until: SimTime::ZERO,
                up: true,
            });
            id
        };
        let ab = mk(a, b);
        let ba = mk(b, a);
        self.nodes[a.0 as usize].ports.insert(port_a, ab);
        self.nodes[b.0 as usize].ports.insert(port_b, ba);
        Ok((ab, ba))
    }

    /// Borrows a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize)
    }

    /// Borrows a node mutably.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id.0 as usize)
    }

    /// Borrows a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.0 as usize)
    }

    /// Borrows a link mutably.
    pub fn link_mut(&mut self, id: LinkId) -> Option<&mut Link> {
        self.links.get_mut(id.0 as usize)
    }

    /// The opposite direction of `id`: [`Topology::connect`] is the only
    /// way to add links and always adds the two directions back to back.
    pub fn reverse_link(&self, id: LinkId) -> Option<LinkId> {
        self.link(id).map(|_| LinkId(id.0 ^ 1))
    }

    /// Iterates over nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterates mutably over nodes, in id order.
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.nodes.iter_mut()
    }

    /// Iterates over links, in id order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Whether `link` is usable: up, with both endpoint devices up.
    fn link_usable(&self, link: &Link) -> bool {
        link.up
            && self.node(link.from).is_some_and(|n| n.device.is_up())
            && self.node(link.to).is_some_and(|n| n.device.is_up())
    }

    /// All-pairs next hops by BFS (hop count), skipping down links and
    /// crashed devices — recomputing after a fault reroutes around it.
    /// Returns a map from `(at, destination)` to the link to take.
    pub fn compute_routes(&self) -> BTreeMap<(NodeId, NodeId), LinkId> {
        // Links are symmetric, so a BFS from each destination over the
        // reversed edges finds every node's next hop towards it. The
        // reverse adjacency lists links in id order, which is what breaks
        // ties between equal-length paths.
        let mut radj: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); self.nodes.len()];
        for l in self.links.iter().filter(|l| self.link_usable(l)) {
            radj[l.to.0 as usize].push((l.from, l.id));
        }
        let mut routes = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; self.nodes.len()];
        for dst in self.nodes.iter().map(|n| n.id) {
            seen.fill(false);
            seen[dst.0 as usize] = true;
            queue.push_back(dst);
            while let Some(n) = queue.pop_front() {
                for &(prev, link) in &radj[n.0 as usize] {
                    if !std::mem::replace(&mut seen[prev.0 as usize], true) {
                        routes.insert((prev, dst), link);
                        queue.push_back(prev);
                    }
                }
            }
        }
        routes
    }

    // -- builders -------------------------------------------------------------

    /// `n_hosts` hosts attached to one switch. Host i uses switch port i;
    /// each host's port 0 faces the switch.
    pub fn single_switch(n_hosts: usize) -> (Topology, NodeId, Vec<NodeId>) {
        let mut t = Topology::new();
        let sw = t.add_node(NodeKind::Switch, Architecture::drmt_default());
        let mut hosts = Vec::new();
        for i in 0..n_hosts {
            let h = t.add_node(NodeKind::Host, Architecture::host_default());
            t.connect(
                sw,
                i as u16,
                h,
                0,
                SimDuration::from_micros(1),
                10_000_000_000,
            )
            .expect("nodes exist");
            hosts.push(h);
        }
        (t, sw, hosts)
    }

    /// `n` independent src-host → switch → dst-host lanes. Each lane's
    /// traffic crosses exactly one switch, so a misbehaving program on
    /// one switch affects only its own lane — the topology used by the
    /// canary-rollout harness to make blast radius measurable per wave.
    /// Returns `(topology, switches, lanes)` where `lanes[i]` is the
    /// `(src, dst)` host pair behind `switches[i]`.
    #[allow(clippy::type_complexity)]
    pub fn parallel_lanes(n: usize) -> (Topology, Vec<NodeId>, Vec<(NodeId, NodeId)>) {
        let mut t = Topology::new();
        let lat = SimDuration::from_micros(1);
        let bw = 10_000_000_000u64;
        let mut switches = Vec::new();
        let mut lanes = Vec::new();
        for _ in 0..n {
            let src = t.add_node(NodeKind::Host, Architecture::host_default());
            let sw = t.add_node(NodeKind::Switch, Architecture::drmt_default());
            let dst = t.add_node(NodeKind::Host, Architecture::host_default());
            t.connect(src, 1, sw, 0, lat, bw).expect("nodes exist");
            t.connect(sw, 1, dst, 0, lat, bw).expect("nodes exist");
            switches.push(sw);
            lanes.push((src, dst));
        }
        (t, switches, lanes)
    }

    /// A host → NIC → switch → NIC → host line (the vertical stack).
    #[allow(clippy::type_complexity)]
    pub fn host_nic_switch_line() -> (Topology, [NodeId; 5]) {
        let mut t = Topology::new();
        let h1 = t.add_node(NodeKind::Host, Architecture::host_default());
        let n1 = t.add_node(NodeKind::Nic, Architecture::smartnic_default());
        let sw = t.add_node(NodeKind::Switch, Architecture::drmt_default());
        let n2 = t.add_node(NodeKind::Nic, Architecture::smartnic_default());
        let h2 = t.add_node(NodeKind::Host, Architecture::host_default());
        let lat = SimDuration::from_micros(1);
        let bw = 100_000_000_000;
        t.connect(h1, 1, n1, 0, lat, bw).expect("nodes exist");
        t.connect(n1, 1, sw, 0, lat, bw).expect("nodes exist");
        t.connect(sw, 1, n2, 0, lat, bw).expect("nodes exist");
        t.connect(n2, 1, h2, 0, lat, bw).expect("nodes exist");
        (t, [h1, n1, sw, n2, h2])
    }

    /// A two-tier leaf-spine fabric with hosts.
    pub fn leaf_spine(
        spines: usize,
        leaves: usize,
        hosts_per_leaf: usize,
    ) -> (Topology, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
        let mut t = Topology::new();
        let lat = SimDuration::from_micros(2);
        let bw = 40_000_000_000u64;
        let spine_ids: Vec<NodeId> = (0..spines)
            .map(|_| t.add_node(NodeKind::Switch, Architecture::drmt_default()))
            .collect();
        let leaf_ids: Vec<NodeId> = (0..leaves)
            .map(|_| t.add_node(NodeKind::Switch, Architecture::rmt_default()))
            .collect();
        let mut host_ids = Vec::new();
        for (li, &leaf) in leaf_ids.iter().enumerate() {
            for (si, &spine) in spine_ids.iter().enumerate() {
                t.connect(leaf, (100 + si) as u16, spine, li as u16, lat, bw)
                    .expect("nodes exist");
            }
            for hi in 0..hosts_per_leaf {
                let h = t.add_node(NodeKind::Host, Architecture::host_default());
                t.connect(
                    leaf,
                    hi as u16,
                    h,
                    0,
                    SimDuration::from_micros(1),
                    10_000_000_000,
                )
                .expect("nodes exist");
                host_ids.push(h);
            }
        }
        (t, spine_ids, leaf_ids, host_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_shape() {
        let (t, sw, hosts) = Topology::single_switch(4);
        assert_eq!(hosts.len(), 4);
        assert_eq!(t.node(sw).unwrap().ports.len(), 4);
        assert_eq!(t.nodes().count(), 5);
        assert_eq!(t.links().count(), 8, "4 bidirectional pairs");
    }

    #[test]
    fn connect_rejects_unknown_nodes() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, Architecture::host_default());
        assert!(t
            .connect(a, 0, NodeId(99), 0, SimDuration::ZERO, 1)
            .is_err());
    }

    #[test]
    fn serialization_delay() {
        let l = Link {
            id: LinkId(0),
            from: NodeId(0),
            to: NodeId(1),
            latency: SimDuration::ZERO,
            bandwidth_bps: 1_000_000_000, // 1 Gbps
            queue_cap: 10,
            busy_until: SimTime::ZERO,
            up: true,
        };
        // 1250 bytes = 10_000 bits = 10 us at 1 Gbps.
        assert_eq!(l.serialization(1250), SimDuration::from_micros(10));
    }

    #[test]
    fn routes_reach_all_destinations() {
        let (t, _, hosts) = Topology::single_switch(3);
        let routes = t.compute_routes();
        // From host 0 to host 2 there must be a next hop.
        assert!(routes.contains_key(&(hosts[0], hosts[2])));
        // And from the switch to each host.
        for h in &hosts {
            assert!(routes.keys().any(|(at, dst)| dst == h && at != h));
        }
    }

    #[test]
    fn leaf_spine_routes_cross_pod() {
        let (t, _spines, _leaves, hosts) = Topology::leaf_spine(2, 2, 2);
        assert_eq!(hosts.len(), 4);
        let routes = t.compute_routes();
        // Cross-pod host pair reachable.
        assert!(routes.contains_key(&(hosts[0], hosts[3])));
    }

    /// `compute_routes` as it was when the reverse adjacency was rebuilt
    /// inside the per-destination loop — the reference the single-build
    /// form must reproduce exactly, tie-breaks included.
    fn compute_routes_reference(t: &Topology) -> BTreeMap<(NodeId, NodeId), LinkId> {
        let mut routes = BTreeMap::new();
        for dst in t.nodes().map(|n| n.id) {
            let mut radj: BTreeMap<NodeId, Vec<(NodeId, LinkId)>> = BTreeMap::new();
            for l in t.links().filter(|l| t.link_usable(l)) {
                radj.entry(l.to).or_default().push((l.from, l.id));
            }
            let mut queue = std::collections::VecDeque::from([dst]);
            let mut seen = std::collections::BTreeSet::from([dst]);
            while let Some(n) = queue.pop_front() {
                for (prev, link) in radj.get(&n).into_iter().flatten() {
                    if seen.insert(*prev) {
                        routes.insert((*prev, dst), *link);
                        queue.push_back(*prev);
                    }
                }
            }
        }
        routes
    }

    #[test]
    fn routes_match_reference_before_and_after_faults() {
        let (mut t, spines, leaves, hosts) = Topology::leaf_spine(2, 4, 4);
        let intact = t.compute_routes();
        assert_eq!(intact, compute_routes_reference(&t));
        assert_eq!(intact.len(), 22 * 21, "every ordered pair is routable");

        // Cut leaf 0's uplink to spine 0, both directions.
        let uplink = t.node(leaves[0]).unwrap().ports[&100];
        let downlink = t.reverse_link(uplink).unwrap();
        assert_eq!(
            t.link(downlink).map(|l| (l.from, l.to)),
            Some((spines[0], leaves[0]))
        );
        for id in [uplink, downlink] {
            t.link_mut(id).unwrap().up = false;
        }
        let cut = t.compute_routes();
        assert_eq!(cut, compute_routes_reference(&t));
        assert_ne!(cut, intact);
        assert_eq!(cut.len(), intact.len(), "spine 1 still reaches everything");

        // Crash a spine on top of that: leaf 0 is now cut off from the rest.
        t.node_mut(spines[1]).unwrap().device.crash(SimTime::ZERO);
        let crashed = t.compute_routes();
        assert_eq!(crashed, compute_routes_reference(&t));
        assert!(!crashed.contains_key(&(hosts[0], hosts[4])));
        assert!(crashed.contains_key(&(hosts[4], hosts[8])));
    }

    #[test]
    fn line_topology_ports_wired() {
        let (t, [h1, n1, sw, _n2, _h2]) = Topology::host_nic_switch_line();
        // h1 port 1 leads to n1.
        let l = t.node(h1).unwrap().ports[&1];
        assert_eq!(t.link(l).unwrap().to, n1);
        let l = t.node(n1).unwrap().ports[&1];
        assert_eq!(t.link(l).unwrap().to, sw);
    }
}
