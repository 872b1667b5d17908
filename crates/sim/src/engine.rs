//! The discrete-event simulation engine.
//!
//! Packets traverse the topology hop by hop: each hop costs the device's
//! processing latency (from its cost model and the program's op count), the
//! link's serialization delay, queueing at both the device and the link, and
//! propagation. Control actions (runtime reconfigurations, reflashes, table
//! entry changes) are scheduled as timed [`Command`]s, so experiments can
//! reprogram the network *while traffic is in flight* — the whole point of
//! FlexNet.

use crate::metrics::{LossKind, Metrics};
use crate::topology::{NodeKind, Topology};
use crate::workload::Departure;
use flexnet_dataplane::reconfig::ReconfigReport;
use flexnet_dataplane::table::{KeyMatch, TableEntry};
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::{LinkId, NodeId, Packet, SimDuration, SimTime, Sym, Verdict};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum hops before a packet is declared looping.
pub const HOP_LIMIT: u64 = 32;
/// Device ingress queue bound, expressed as waiting time.
pub const DEVICE_QUEUE_BOUND: SimDuration = SimDuration::from_millis(1);

/// A scheduled control action.
#[derive(Debug, Clone)]
pub enum Command {
    /// Inject a packet at a node.
    Inject {
        /// Injecting node.
        node: NodeId,
        /// The packet.
        packet: Packet,
    },
    /// Install a program immediately (setup-time; not a live reconfig).
    Install {
        /// Target node.
        node: NodeId,
        /// The bundle to install.
        bundle: ProgramBundle,
    },
    /// Begin a hitless runtime reconfiguration.
    RuntimeReconfig {
        /// Target node.
        node: NodeId,
        /// The new bundle.
        bundle: ProgramBundle,
    },
    /// Begin a compile-time drain/reflash.
    Reflash {
        /// Target node.
        node: NodeId,
        /// The new bundle.
        bundle: ProgramBundle,
    },
    /// Begin the unsafe in-place ablation.
    UnsafeReconfig {
        /// Target node.
        node: NodeId,
        /// The new bundle.
        bundle: ProgramBundle,
    },
    /// Add a table entry.
    AddEntry {
        /// Target node.
        node: NodeId,
        /// Table name.
        table: String,
        /// The entry.
        entry: TableEntry,
    },
    /// Remove table entries matching exactly.
    RemoveEntry {
        /// Target node.
        node: NodeId,
        /// Table name.
        table: String,
        /// Key matches identifying the entries.
        matches: Vec<KeyMatch>,
    },
    /// Fault injection: crash a device. Packets arriving at it are lost,
    /// an in-flight reconfiguration is discarded, and routes recompute
    /// around it.
    CrashDevice {
        /// The device to crash.
        node: NodeId,
    },
    /// Fault injection: restart a crashed device with its runtime state
    /// wiped (counters, registers, maps, table entries).
    RestartDevice {
        /// The device to restart.
        node: NodeId,
    },
    /// Fault injection: take a link (and its reverse direction) up or
    /// down. Routes recompute around the change.
    SetLinkState {
        /// Either direction of the affected link pair.
        link: LinkId,
        /// `true` to restore the link, `false` to cut it.
        up: bool,
    },
    /// Fault injection: abort an in-flight reconfiguration on a device,
    /// rolling back to the exact pre-reconfig program and state.
    AbortReconfig {
        /// The device whose transition to abort.
        node: NodeId,
    },
}

/// What a queued event does when it fires.
#[derive(Debug)]
enum EventKind {
    Command(Command),
    /// A packet in flight reaches `node`, having crossed `hops` devices.
    Arrive {
        node: NodeId,
        packet: Packet,
        hops: u64,
    },
}

/// Heap key of a queued event: `(at, seq)` decides the pop order — time,
/// then schedule order — and `slot` finds the payload in the slab, so a
/// sift moves 24 bytes rather than a whole packet or program bundle.
type EventKey = Reverse<(SimTime, u64, u32)>;

/// Event payloads, parked while their keys wait in the heap. Freed slots
/// are reused, so the slab stays as large as the most events ever pending.
#[derive(Debug, Default)]
struct EventSlab {
    slots: Vec<Option<EventKind>>,
    free: Vec<u32>,
}

impl EventSlab {
    fn insert(&mut self, kind: EventKind) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        self.slots[slot as usize] = Some(kind);
        slot
    }

    fn take(&mut self, slot: u32) -> EventKind {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("every heap key owns a filled slot")
    }
}

/// Default capacity cap for the simulation's observability logs.
///
/// Generous enough that every experiment in `EXPERIMENTS.md` records every
/// event, but bounds memory on adversarial or very long runs (a punt storm
/// used to grow `punt_log` without limit). Overflow is *counted*, never
/// silent — see [`LogBuffer::dropped`].
pub const DEFAULT_LOG_CAP: usize = 100_000;

/// A bounded append-only event log: keeps the first `cap` records and
/// counts (rather than stores) everything past the cap.
///
/// Dereferences to a slice, so reading code treats it exactly like the
/// `Vec` it replaced (`len`, `is_empty`, indexing, iteration).
#[derive(Debug, Clone)]
pub struct LogBuffer<T> {
    items: Vec<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Default for LogBuffer<T> {
    fn default() -> Self {
        LogBuffer::with_cap(DEFAULT_LOG_CAP)
    }
}

impl<T> LogBuffer<T> {
    /// An empty log that stores at most `cap` records.
    pub fn with_cap(cap: usize) -> LogBuffer<T> {
        LogBuffer {
            items: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Appends a record, or counts it as dropped once the cap is reached.
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            self.dropped += 1;
        }
    }

    /// Number of records discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empties the log, retaining its allocation, so a long-lived buffer
    /// can serve as per-run scratch (e.g. the burst sweep driver's
    /// per-burst records) without reallocating each run.
    pub fn clear(&mut self) {
        self.items.clear();
        self.dropped = 0;
    }
}

impl<T> std::ops::Deref for LogBuffer<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<'a, T> IntoIterator for &'a LogBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// The simulation: topology + event queue + metrics.
#[derive(Debug)]
pub struct Simulation {
    /// The network.
    pub topo: Topology,
    /// Next hops, `routes[at][dst]`, both indexed by node id.
    routes: Vec<Vec<Option<LinkId>>>,
    queue: BinaryHeap<EventKey>,
    events: EventSlab,
    /// Collected metrics.
    pub metrics: Metrics,
    now: SimTime,
    seq: u64,
    /// Reconfiguration reports, in initiation order.
    pub reconfig_reports: Vec<(SimTime, NodeId, ReconfigReport)>,
    /// dRPC invocations observed at devices: (time, node, service, args).
    pub invocation_log: LogBuffer<(SimTime, NodeId, String, Vec<u64>)>,
    /// Packets punted to the controller: (time, node, packet).
    pub punt_log: LogBuffer<(SimTime, NodeId, Packet)>,
    /// Command errors (failed reconfigs etc.): (time, description).
    pub errors: LogBuffer<(SimTime, String)>,
}

impl Simulation {
    /// Builds a simulation over `topo`, computing shortest-path routes.
    pub fn new(topo: Topology) -> Simulation {
        let mut sim = Simulation {
            topo,
            routes: Vec::new(),
            queue: BinaryHeap::new(),
            events: EventSlab::default(),
            metrics: Metrics::default(),
            now: SimTime::ZERO,
            seq: 0,
            reconfig_reports: Vec::new(),
            invocation_log: LogBuffer::default(),
            punt_log: LogBuffer::default(),
            errors: LogBuffer::default(),
        };
        sim.recompute_routes();
        sim
    }

    /// Recomputes routes (after topology edits).
    pub fn recompute_routes(&mut self) {
        let n = self.topo.nodes().count();
        self.routes = vec![vec![None; n]; n];
        for ((at, dst), link) in self.topo.compute_routes() {
            self.routes[at.0 as usize][dst.0 as usize] = Some(link);
        }
    }

    /// The link to take at `at` towards `dst`, if `dst` is reachable.
    fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        *self.routes.get(at.0 as usize)?.get(dst.0 as usize)?
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        let slot = self.events.insert(kind);
        self.queue.push(Reverse((at, self.seq, slot)));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules a command at `at`.
    pub fn schedule(&mut self, at: SimTime, command: Command) {
        self.push_event(at, EventKind::Command(command));
    }

    /// Loads a generated packet schedule.
    pub fn load(&mut self, departures: Vec<Departure>) {
        for d in departures {
            self.schedule(
                d.at,
                Command::Inject {
                    node: d.node,
                    packet: d.packet,
                },
            );
        }
    }

    /// Runs until the queue is empty or time exceeds `until`.
    pub fn run(&mut self, until: SimTime) {
        while let Some(&Reverse((at, _, slot))) = self.queue.peek() {
            if at > until {
                break;
            }
            self.queue.pop();
            self.now = self.now.max(at);
            match self.events.take(slot) {
                EventKind::Command(cmd) => self.exec_command(cmd),
                EventKind::Arrive { node, packet, hops } => self.arrive(node, packet, hops),
            }
        }
        // Let devices commit any reconfig that completes before `until`.
        for n in self.topo.nodes_mut() {
            n.device.tick(until);
        }
        self.now = self.now.max(until);
    }

    /// Runs until no events remain.
    pub fn run_to_completion(&mut self) {
        self.run(SimTime::MAX);
    }

    fn exec_command(&mut self, cmd: Command) {
        let now = self.now;
        match cmd {
            Command::Inject { node, packet } => {
                self.metrics.record_sent();
                let mut packet = packet;
                if packet.ingress_time == SimTime::ZERO {
                    packet.ingress_time = now;
                }
                self.arrive(node, packet, 0);
            }
            Command::Install { node, bundle } => {
                let r = self
                    .topo
                    .node_mut(node)
                    .ok_or_else(|| flexnet_types::FlexError::NotFound(node.to_string()))
                    .and_then(|n| n.device.install(bundle));
                if let Err(e) = r {
                    self.errors.push((now, format!("install on {node}: {e}")));
                }
            }
            Command::RuntimeReconfig { node, bundle } => {
                match self.topo.node_mut(node) {
                    Some(n) => match n.device.begin_runtime_reconfig(bundle, now) {
                        Ok(rep) => self.reconfig_reports.push((now, node, rep)),
                        Err(e) => self
                            .errors
                            .push((now, format!("runtime reconfig on {node}: {e}"))),
                    },
                    None => self.errors.push((now, format!("unknown node {node}"))),
                }
            }
            Command::Reflash { node, bundle } => match self.topo.node_mut(node) {
                Some(n) => match n.device.begin_reflash(bundle, now) {
                    Ok(rep) => self.reconfig_reports.push((now, node, rep)),
                    Err(e) => self.errors.push((now, format!("reflash on {node}: {e}"))),
                },
                None => self.errors.push((now, format!("unknown node {node}"))),
            },
            Command::UnsafeReconfig { node, bundle } => match self.topo.node_mut(node) {
                Some(n) => match n.device.begin_unsafe_inplace(bundle, now) {
                    Ok(rep) => self.reconfig_reports.push((now, node, rep)),
                    Err(e) => self
                        .errors
                        .push((now, format!("unsafe reconfig on {node}: {e}"))),
                },
                None => self.errors.push((now, format!("unknown node {node}"))),
            },
            Command::AddEntry { node, table, entry } => {
                let r = self
                    .topo
                    .node_mut(node)
                    .ok_or_else(|| flexnet_types::FlexError::NotFound(node.to_string()))
                    .and_then(|n| n.device.add_entry(&table, entry));
                if let Err(e) = r {
                    self.errors.push((now, format!("add entry on {node}: {e}")));
                }
            }
            Command::RemoveEntry {
                node,
                table,
                matches,
            } => {
                let r = self
                    .topo
                    .node_mut(node)
                    .ok_or_else(|| flexnet_types::FlexError::NotFound(node.to_string()))
                    .and_then(|n| n.device.remove_entry(&table, &matches).map(|_| ()));
                if let Err(e) = r {
                    self.errors
                        .push((now, format!("remove entry on {node}: {e}")));
                }
            }
            Command::CrashDevice { node } => {
                match self.topo.node_mut(node) {
                    Some(n) => n.device.crash(now),
                    None => self.errors.push((now, format!("unknown node {node}"))),
                }
                self.recompute_routes();
            }
            Command::RestartDevice { node } => {
                let r = self
                    .topo
                    .node_mut(node)
                    .ok_or_else(|| flexnet_types::FlexError::NotFound(node.to_string()))
                    .and_then(|n| n.device.restart(now));
                if let Err(e) = r {
                    self.errors.push((now, format!("restart {node}: {e}")));
                }
                self.recompute_routes();
            }
            Command::SetLinkState { link, up } => {
                // Links come in symmetric pairs; flip both directions.
                match self.topo.reverse_link(link) {
                    Some(reverse) => {
                        for id in [link, reverse] {
                            if let Some(l) = self.topo.link_mut(id) {
                                l.up = up;
                            }
                        }
                    }
                    None => self.errors.push((now, format!("unknown link {link:?}"))),
                }
                self.recompute_routes();
            }
            Command::AbortReconfig { node } => match self.topo.node_mut(node) {
                Some(n) => match n.device.abort_reconfig(now) {
                    Ok(rep) => self.reconfig_reports.push((now, node, rep)),
                    Err(e) => self.errors.push((now, format!("abort on {node}: {e}"))),
                },
                None => self.errors.push((now, format!("unknown node {node}"))),
            },
        }
    }

    /// A packet reaches `node_id` having crossed `hops` devices so far. The
    /// hop count travels with the flight, not in packet metadata: programs
    /// neither see nor pay for it.
    fn arrive(&mut self, node_id: NodeId, mut pkt: Packet, hops: u64) {
        let now = self.now;
        // Hop limit guard.
        if hops >= HOP_LIMIT {
            self.metrics.record_lost(LossKind::HopLimit, now);
            return;
        }

        let Some(node) = self.topo.node_mut(node_id) else {
            self.metrics.record_lost(LossKind::NoRoute, now);
            return;
        };
        if !node.device.is_up() {
            self.metrics.record_lost(LossKind::DeviceDown, now);
            return;
        }

        // Device service (throughput) model: packets queue for the device;
        // bounded waiting, then serialized service time.
        let service = SimDuration::from_nanos(
            1_000_000_000 / node.device.cost_model().throughput_pps.max(1),
        );
        let start = now.max(node.busy_until);
        let wait = start.saturating_since(now);
        if wait > DEVICE_QUEUE_BOUND {
            self.metrics.record_lost(LossKind::DeviceOverload, now);
            return;
        }
        node.busy_until = start + service;

        let result = match node.device.process(&mut pkt, now) {
            Ok(r) => r,
            Err(e) => {
                self.errors.push((now, format!("process at {node_id}: {e}")));
                self.metrics.record_lost(LossKind::PolicyDrop, now);
                return;
            }
        };
        let node_kind = node.kind;
        for (svc, args) in node.device.take_invocations() {
            self.invocation_log.push((now, node_id, svc, args));
        }

        if result.refused {
            self.metrics.record_lost(LossKind::Refused, now);
            return;
        }

        let done_at = now + wait + result.latency;
        match result.verdict {
            Verdict::Drop => {
                self.metrics.record_lost(LossKind::PolicyDrop, now);
            }
            Verdict::ToController => {
                self.metrics.record_punted();
                self.punt_log.push((now, node_id, pkt));
            }
            Verdict::Recirculate => {
                // Devices bound recirculation internally; reaching here
                // means a device returned it anyway — drop defensively.
                self.metrics.record_lost(LossKind::PolicyDrop, now);
            }
            Verdict::Forward(port) => {
                let dst = pkt
                    .metadata
                    .get_sym(Sym::DST_NODE)
                    .map(|v| NodeId(v as u32));
                // Delivered when we are the destination host.
                if dst == Some(node_id) && node_kind == NodeKind::Host {
                    self.metrics.record_delivered(&pkt, done_at);
                    return;
                }
                // Resolve egress. Port 0 is the "routed" convention: the
                // program delegates next-hop selection to the routing
                // substrate. Any other port is explicit steering, with a
                // route fallback when the port is not wired.
                let routed = || dst.and_then(|d| self.next_hop(node_id, d));
                let link_id = if port == 0 {
                    routed()
                } else {
                    self.topo
                        .node(node_id)
                        .and_then(|n| n.ports.get(&port).copied())
                        .or_else(routed)
                };
                let Some(link_id) = link_id else {
                    self.metrics.record_lost(LossKind::NoRoute, now);
                    return;
                };
                let wire = pkt.wire_len();
                let (next, deliver_at, drop_queue) = {
                    let Some(link) = self.topo.link_mut(link_id) else {
                        self.metrics.record_lost(LossKind::NoRoute, now);
                        return;
                    };
                    if !link.up {
                        self.metrics.record_lost(LossKind::LinkDown, now);
                        return;
                    }
                    let ser = link.serialization(wire);
                    let tx_start = done_at.max(link.busy_until);
                    let backlog = tx_start.saturating_since(done_at);
                    let backlog_pkts = if ser.as_nanos() == 0 {
                        0
                    } else {
                        backlog.as_nanos() / ser.as_nanos()
                    };
                    if backlog_pkts > link.queue_cap as u64 {
                        (link.to, SimTime::ZERO, true)
                    } else {
                        link.busy_until = tx_start + ser;
                        (link.to, tx_start + ser + link.latency, false)
                    }
                };
                if drop_queue {
                    self.metrics.record_lost(LossKind::QueueDrop, now);
                    return;
                }
                let arrive = EventKind::Arrive {
                    node: next,
                    packet: pkt,
                    hops: hops + 1,
                };
                self.push_event(deliver_at, arrive);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, FlowSpec};
    use flexnet_lang::parser::parse_source;

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn forwarding() -> ProgramBundle {
        bundle("program fwd kind any { handler ingress(pkt) { forward(0); } }")
    }

    #[test]
    fn cbr_flow_fully_delivered() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            10_000,
            SimTime::from_millis(1),
            SimDuration::from_millis(100),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        assert_eq!(sim.metrics.sent, 1000);
        assert_eq!(sim.metrics.delivered, 1000, "errors: {:?}", sim.errors);
        assert_eq!(sim.metrics.total_lost(), 0);
        assert!(sim.metrics.latency_mean().unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn policy_drop_counts() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: bundle("program deny kind any { handler ingress(pkt) { drop(); } }"),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            1000,
            SimTime::from_millis(1),
            SimDuration::from_millis(10),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        assert_eq!(sim.metrics.delivered, 0);
        assert_eq!(
            sim.metrics.losses.get(&LossKind::PolicyDrop).copied(),
            Some(10)
        );
    }

    #[test]
    fn reflash_window_refuses_traffic() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        // Steady 1k pps for 40 s; reflash at 2 s.
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            1000,
            SimTime::from_millis(1),
            SimDuration::from_secs(40),
        );
        sim.load(generate(&[flow], 1));
        sim.schedule(
            SimTime::from_secs(2),
            Command::Reflash {
                node: sw,
                bundle: forwarding(),
            },
        );
        sim.run_to_completion();
        let refused = sim.metrics.losses.get(&LossKind::Refused).copied().unwrap_or(0);
        assert!(refused >= 25_000, "~30s of downtime at 1kpps, got {refused}");
        assert!(sim.metrics.disruption_window().unwrap() > SimDuration::from_secs(20));
    }

    #[test]
    fn runtime_reconfig_causes_no_loss() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            1000,
            SimTime::from_millis(1),
            SimDuration::from_secs(5),
        );
        sim.load(generate(&[flow], 1));
        sim.schedule(
            SimTime::from_secs(2),
            Command::RuntimeReconfig {
                node: sw,
                bundle: bundle(
                    "program fwd kind any {
                       counter seen;
                       handler ingress(pkt) { count(seen); forward(0); }
                     }",
                ),
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.metrics.total_lost(), 0, "hitless means zero loss");
        assert_eq!(sim.metrics.delivered, 5000);
        assert_eq!(sim.reconfig_reports.len(), 1);
        // Both versions processed some packets at the switch.
        let versions = sim.metrics.versions_seen(sw);
        assert_eq!(versions.len(), 2, "old and new versions observed");
    }

    #[test]
    fn hop_limit_breaks_loops() {
        // Two switches explicitly steering to each other forever.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Switch, flexnet_dataplane::Architecture::drmt_default());
        let b = topo.add_node(NodeKind::Switch, flexnet_dataplane::Architecture::drmt_default());
        topo.connect(a, 1, b, 1, SimDuration::from_micros(1), 1_000_000_000)
            .unwrap();
        let mut sim = Simulation::new(topo);
        for n in [a, b] {
            sim.schedule(
                SimTime::ZERO,
                Command::Install {
                    node: n,
                    bundle: bundle(
                        "program pingpong kind any { handler ingress(pkt) { forward(1); } }",
                    ),
                },
            );
        }
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        pkt.metadata.insert("dst_node".into(), 99); // unreachable dst
        sim.schedule(SimTime::from_millis(1), Command::Inject { node: a, packet: pkt });
        sim.run_to_completion();
        assert_eq!(
            sim.metrics.losses.get(&LossKind::HopLimit).copied(),
            Some(1)
        );
        assert_eq!(sim.metrics.total_lost(), 1, "the loop is the only loss");
        let crossed: u64 = sim.topo.nodes().map(|n| n.device.stats().processed).sum();
        assert_eq!(crossed, HOP_LIMIT, "not one device more than the limit");
    }

    #[test]
    fn hop_count_is_engine_state_not_packet_metadata() {
        let (topo, [h1, _n1, sw, _n2, h2]) = Topology::host_nic_switch_line();
        let mut sim = Simulation::new(topo);
        sim.metrics.keep_packets = true;
        let install = |node, src| Command::Install {
            node,
            bundle: bundle(src),
        };
        sim.schedule(
            SimTime::ZERO,
            install(
                h1,
                "program f kind any { handler ingress(pkt) { forward(0); } }",
            ),
        );
        // Punt every other packet at the switch so both exits are checked.
        sim.schedule(
            SimTime::ZERO,
            install(
                sw,
                "program p kind any { handler ingress(pkt) {
                   if (udp.sport % 2 == 1) { punt(); }
                   forward(0);
                 } }",
            ),
        );
        let mut flows = vec![
            FlowSpec::udp_cbr(
                h1,
                h2,
                1000,
                SimTime::from_millis(1),
                SimDuration::from_millis(4),
            ),
            FlowSpec::udp_cbr(
                h1,
                h2,
                1000,
                SimTime::from_millis(1),
                SimDuration::from_millis(4),
            ),
        ];
        flows[1].src_port += 1;
        sim.load(generate(&flows, 1));
        sim.run_to_completion();
        assert_eq!((sim.metrics.delivered, sim.metrics.punted), (4, 4));
        let exits = sim
            .metrics
            .delivered_packets
            .iter()
            .chain(sim.punt_log.iter().map(|(_, _, p)| p));
        for pkt in exits {
            assert!(!pkt.metadata.contains_key("hops"), "{:?}", pkt.metadata);
            assert_eq!(pkt.metadata.get("dst_node"), Some(&(h2.raw() as u64)));
        }
        assert_eq!(
            sim.metrics.delivered_packets[0].trace.len(),
            5,
            "five devices crossed"
        );
    }

    #[test]
    fn equal_time_events_fire_in_schedule_order_across_slot_reuse() {
        let (topo, _sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        let at = SimTime::from_millis(1);
        let inject = |id| {
            let mut packet = Packet::udp(id, 1, 2, 3, 4);
            packet
                .metadata
                .insert("dst_node".into(), hosts[1].raw() as u64);
            Command::Inject {
                node: hosts[0],
                packet,
            }
        };
        // Round 1 parks seven payloads; delivering them frees their slots,
        // and the free list hands those back last-freed-first — so round 2's
        // events sit in slots that run *against* their schedule order.
        for id in 0..7 {
            sim.schedule(at, inject(id));
        }
        sim.run(at + SimDuration::from_micros(500));
        assert_eq!(sim.metrics.delivered, 7);
        assert_eq!(
            sim.events.free.len(),
            7,
            "round 1's slots are free for reuse"
        );

        // Round 2, all at one instant: the injecting host's own program
        // alternates between drop and forward, with an inject after each
        // change and a failing control command (distinct per step) between.
        let at = SimTime::from_millis(2);
        let drop_all = "program d kind any { handler ingress(pkt) { drop(); } }";
        let fwd_all = "program f kind any { handler ingress(pkt) { forward(0); } }";
        for step in 0..6u32 {
            let src = if step % 2 == 0 { drop_all } else { fwd_all };
            sim.schedule(
                at,
                Command::Install {
                    node: hosts[0],
                    bundle: bundle(src),
                },
            );
            sim.schedule(at, inject(100 + step as u64));
            sim.schedule(
                at,
                Command::CrashDevice {
                    node: NodeId(900 + step),
                },
            );
        }
        assert_eq!(
            sim.events.slots.len(),
            18,
            "the seven freed slots were reused first"
        );
        sim.run_to_completion();

        // Each inject met exactly the program installed just before it.
        assert_eq!(sim.metrics.sent, 13);
        assert_eq!(
            sim.metrics.losses.get(&LossKind::PolicyDrop).copied(),
            Some(3)
        );
        assert_eq!(sim.metrics.delivered, 7 + 3);
        let errors: Vec<&str> = sim.errors.iter().map(|(_, e)| e.as_str()).collect();
        let want: Vec<String> = (0..6)
            .map(|s| format!("unknown node node{}", 900 + s))
            .collect();
        assert_eq!(errors, want, "control commands fired in schedule order");
        assert_eq!(
            sim.events.free.len(),
            sim.events.slots.len(),
            "every slot came back"
        );
    }

    #[test]
    fn no_route_detected() {
        let (topo, _sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        pkt.metadata.insert("dst_node".into(), 999);
        sim.schedule(
            SimTime::from_millis(1),
            Command::Inject {
                node: hosts[0],
                packet: pkt,
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.metrics.losses.get(&LossKind::NoRoute).copied(), Some(1));
    }

    #[test]
    fn punts_logged() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: bundle("program p kind any { handler ingress(pkt) { punt(); } }"),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            100,
            SimTime::from_millis(1),
            SimDuration::from_millis(50),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        assert_eq!(sim.metrics.punted, 5);
        assert_eq!(sim.punt_log.len(), 5);
        assert_eq!(sim.punt_log[0].1, sw);
    }

    #[test]
    fn failed_commands_recorded_not_fatal() {
        let (topo, sw, _hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: bundle("program bad kind any { handler ingress(pkt) { apply nope; } }"),
            },
        );
        sim.schedule(
            SimTime::from_millis(1),
            Command::AddEntry {
                node: NodeId(99),
                table: "t".into(),
                entry: TableEntry::exact(&[1], flexnet_lang::ast::ActionCall {
                    action: "a".into(),
                    args: vec![],
                }),
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.errors.len(), 2);
    }

    #[test]
    fn overload_drops_excess_traffic() {
        // Host devices do 5 Mpps; offer 2x that to force overload drops.
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            10_000_000,
            SimTime::from_millis(1),
            SimDuration::from_millis(20),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        assert!(
            sim.metrics
                .losses
                .get(&LossKind::DeviceOverload)
                .copied()
                .unwrap_or(0)
                > 0,
            "offered 10 Mpps to a 5 Mpps host: {:?}",
            sim.metrics.losses
        );
    }

    #[test]
    fn restart_during_in_flight_reconfig_discards_shadow_keeps_old_program() {
        use flexnet_dataplane::config_digest_of;
        let (topo, sw, _hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        let v1 = forwarding();
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: v1.clone(),
            },
        );
        // The crash lands at the same instant the reconfiguration
        // starts (commands are sequenced), so the shadow is guaranteed
        // still in flight — it dies with the device's volatile state.
        sim.schedule(
            SimTime::from_millis(10),
            Command::RuntimeReconfig {
                node: sw,
                bundle: bundle(
                    "program fwd kind any { counter c; handler ingress(pkt) { count(c); forward(0); } }",
                ),
            },
        );
        sim.schedule(SimTime::from_millis(10), Command::CrashDevice { node: sw });
        sim.schedule(SimTime::from_millis(20), Command::RestartDevice { node: sw });
        sim.run_to_completion();
        assert!(sim.errors.is_empty(), "{:?}", sim.errors);
        let dev = &sim.topo.node(sw).unwrap().device;
        assert!(dev.is_up());
        assert_eq!(dev.boot_id(), 2, "one restart bumps the boot id once");
        assert!(!dev.reconfig_in_progress(), "the shadow did not survive");
        assert!(dev.txn_in_doubt().is_none());
        assert_eq!(
            dev.config_digest(),
            config_digest_of(&v1, &[]),
            "the flashed v1 image survives the restart, v2 does not"
        );
    }

    #[test]
    fn double_restart_bumps_boot_id_monotonically_and_rejects_restart_while_up() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        // Two full crash/restart cycles before any reconciliation could
        // run, plus one bogus restart of an already-up device.
        sim.schedule(SimTime::from_millis(10), Command::CrashDevice { node: sw });
        sim.schedule(SimTime::from_millis(20), Command::RestartDevice { node: sw });
        sim.schedule(SimTime::from_millis(30), Command::CrashDevice { node: sw });
        sim.schedule(SimTime::from_millis(40), Command::RestartDevice { node: sw });
        sim.schedule(SimTime::from_millis(50), Command::RestartDevice { node: sw });
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            1000,
            SimTime::from_millis(60),
            SimDuration::from_millis(10),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        let dev = &sim.topo.node(sw).unwrap().device;
        assert_eq!(dev.boot_id(), 3, "two restarts: 1 -> 2 -> 3");
        assert_eq!(
            sim.errors.len(),
            1,
            "restarting an up device is an error, not a crash: {:?}",
            sim.errors
        );
        assert_eq!(sim.metrics.delivered, 10, "the final incarnation forwards");
    }

    #[test]
    fn log_buffer_caps_and_counts_overflow() {
        let mut log: LogBuffer<u64> = LogBuffer::with_cap(3);
        for i in 0..10 {
            log.push(i);
        }
        assert_eq!(log.len(), 3, "stores only up to the cap");
        assert_eq!(&log[..], &[0, 1, 2], "keeps the earliest records");
        assert_eq!(log.dropped(), 7, "overflow is counted, not silent");
        assert!(!log.is_empty());
        assert_eq!(log.iter().sum::<u64>(), 3);
        // The simulation's logs default to a cap high enough that no
        // experiment in this repo ever drops a record.
        let sim = Simulation::new(Topology::single_switch(1).0);
        assert_eq!(sim.errors.dropped(), 0);
        assert_eq!(sim.punt_log.dropped(), 0);
    }

    #[test]
    fn never_provisioned_device_restarts_with_empty_digest() {
        use flexnet_dataplane::EMPTY_CONFIG_DIGEST;
        let (topo, sw, _hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        // No Install: the device has never been provisioned.
        sim.schedule(SimTime::from_millis(10), Command::CrashDevice { node: sw });
        sim.schedule(SimTime::from_millis(20), Command::RestartDevice { node: sw });
        sim.run_to_completion();
        assert!(sim.errors.is_empty(), "{:?}", sim.errors);
        let dev = &sim.topo.node(sw).unwrap().device;
        assert!(dev.is_up());
        assert_eq!(dev.boot_id(), 2);
        assert!(dev.program().is_none(), "still nothing installed");
        assert_eq!(dev.config_digest(), EMPTY_CONFIG_DIGEST);
    }
}
