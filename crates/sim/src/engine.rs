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
use flexnet_dataplane::Device;
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::{LinkId, NodeId, Packet, SimDuration, SimTime, Sym, Verdict};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

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

/// Devices on a typical path (host, leaf, spine, leaf, host): the audit
/// trail reserved when a packet is injected, so a flight grows it once.
const TYPICAL_PATH: usize = 5;

/// What a queued event does when it fires. A packet is named by its slot
/// in the in-flight table, a command by its slot in the command slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fire {
    /// A loaded packet enters the network at `node`.
    Inject { node: NodeId, pkt: u32 },
    /// A packet in flight reaches `node`, having crossed `hops` devices.
    Arrive { node: NodeId, pkt: u32, hops: u32 },
    /// A scheduled command is due.
    Command(u32),
}

/// A queued event. `(at, seq)` decides the pop order — time, then schedule
/// order — and `seq` is unique, so `fire` never takes part in a
/// comparison's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: SimTime,
    seq: u64,
    fire: Fire,
}

/// How a hop that did not lose the packet ended.
enum Hop {
    /// Onto a link towards the next device.
    Forwarded,
    /// At its destination host; the device is done with it at the instant.
    Delivered(SimTime),
    /// To the controller.
    Punted,
}

/// Values parked while events name them by slot. Freed slots are reused,
/// so a slab stays as large as the most values ever parked at once.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn get_mut(&mut self, slot: u32) -> &mut T {
        self.slots[slot as usize]
            .as_mut()
            .expect("every queued event names a filled slot")
    }

    fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("every queued event names a filled slot")
    }
}

/// The event queue. A source that emits in time order keeps its events in
/// a FIFO lane — lane 0 is the loaded schedule, lane `l + 1` is link `l` —
/// and `heads` orders the non-empty lanes by their first event. `general`
/// holds what has no lane (commands) and any event that would land out of
/// order on its lane (an unsorted or overlapping `load`, a link whose
/// `latency` or `busy_until` was edited from outside). `(at, seq)` is
/// unique per event, so the pop sequence is the sorted one whichever
/// container an event sits in.
#[derive(Debug, Default)]
struct EventQueue {
    general: BinaryHeap<Reverse<Event>>,
    lanes: Vec<VecDeque<Event>>,
    /// `(at, seq, lane)` of the first event of every non-empty lane.
    heads: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
}

impl EventQueue {
    fn push_lane(&mut self, lane: usize, ev: Event) {
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let queue = &mut self.lanes[lane];
        match queue.back() {
            Some(last) if *last > ev => self.general.push(Reverse(ev)),
            Some(_) => queue.push_back(ev),
            None => {
                queue.push_back(ev);
                self.heads.push(Reverse((ev.at, ev.seq, lane as u32)));
            }
        }
    }

    /// Removes the earliest event, unless it fires after `until`.
    fn pop(&mut self, until: SimTime) -> Option<Event> {
        let general = self.general.peek().map(|Reverse(ev)| (ev.at, ev.seq));
        match self.heads.peek_mut() {
            Some(mut head) if general.is_none_or(|g| (head.0 .0, head.0 .1) < g) => {
                let Reverse((at, _, lane)) = *head;
                if at > until {
                    return None;
                }
                let queue = &mut self.lanes[lane as usize];
                let ev = queue.pop_front().expect("a lane in `heads` is non-empty");
                match queue.front() {
                    Some(next) => *head = Reverse((next.at, next.seq, lane)),
                    None => drop(PeekMut::pop(head)),
                }
                Some(ev)
            }
            _ => match general {
                Some((at, _)) if at <= until => self.general.pop().map(|Reverse(ev)| ev),
                _ => None,
            },
        }
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
    queue: EventQueue,
    /// Packets in flight: parked once at `load`/injection, borrowed in
    /// place by every device on the path, taken out where the flight ends.
    packets: Slab<Packet>,
    commands: Slab<Command>,
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
            queue: EventQueue::default(),
            packets: Slab::default(),
            commands: Slab::default(),
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

    /// The next event in schedule order: `seq` is what orders equal instants.
    fn event(&mut self, at: SimTime, fire: Fire) -> Event {
        self.seq += 1;
        Event {
            at,
            seq: self.seq,
            fire,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules a command at `at`.
    pub fn schedule(&mut self, at: SimTime, command: Command) {
        let fire = Fire::Command(self.commands.insert(command));
        let ev = self.event(at, fire);
        self.queue.general.push(Reverse(ev));
    }

    /// Loads a generated packet schedule.
    pub fn load(&mut self, departures: Vec<Departure>) {
        for d in departures {
            let pkt = self.packets.insert(d.packet);
            let ev = self.event(d.at, Fire::Inject { node: d.node, pkt });
            self.queue.push_lane(0, ev);
        }
    }

    /// Runs until the queue is empty or time exceeds `until`.
    pub fn run(&mut self, until: SimTime) {
        while let Some(ev) = self.queue.pop(until) {
            self.now = self.now.max(ev.at);
            match ev.fire {
                Fire::Inject { node, pkt } => self.inject(node, pkt),
                Fire::Arrive { node, pkt, hops } => self.arrive(node, pkt, hops),
                Fire::Command(slot) => {
                    let cmd = self.commands.take(slot);
                    self.exec_command(cmd);
                }
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
                let pkt = self.packets.insert(packet);
                self.inject(node, pkt);
            }
            Command::Install { node, bundle } => {
                self.on_device(node, "install on", |d| d.install(bundle));
            }
            Command::RuntimeReconfig { node, bundle } => {
                self.reconfig(node, "runtime reconfig on", |d| {
                    d.begin_runtime_reconfig(bundle, now)
                })
            }
            Command::Reflash { node, bundle } => {
                self.reconfig(node, "reflash on", |d| d.begin_reflash(bundle, now))
            }
            Command::UnsafeReconfig { node, bundle } => {
                self.reconfig(node, "unsafe reconfig on", |d| {
                    d.begin_unsafe_inplace(bundle, now)
                })
            }
            Command::AddEntry { node, table, entry } => {
                self.on_device(node, "add entry on", |d| d.add_entry(&table, entry));
            }
            Command::RemoveEntry {
                node,
                table,
                matches,
            } => {
                self.on_device(node, "remove entry on", |d| {
                    d.remove_entry(&table, &matches)
                });
            }
            Command::CrashDevice { node } => {
                self.on_device(node, "crash", |d| {
                    d.crash(now);
                    Ok(())
                });
                self.recompute_routes();
            }
            Command::RestartDevice { node } => {
                self.on_device(node, "restart", |d| d.restart(now));
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
            Command::AbortReconfig { node } => {
                self.reconfig(node, "abort on", |d| d.abort_reconfig(now))
            }
        }
    }

    /// Runs `op` on `node`'s device. A failure is recorded as
    /// `"{what} {node}: {error}"`, an absent node as `"unknown node {node}"`.
    fn on_device<T>(
        &mut self,
        node: NodeId,
        what: &str,
        op: impl FnOnce(&mut Device) -> flexnet_types::Result<T>,
    ) -> Option<T> {
        let error = match self.topo.node_mut(node) {
            None => format!("unknown node {node}"),
            Some(n) => match op(&mut n.device) {
                Ok(value) => return Some(value),
                Err(e) => format!("{what} {node}: {e}"),
            },
        };
        self.errors.push((self.now, error));
        None
    }

    /// [`Simulation::on_device`] for a reconfiguration, its report kept.
    fn reconfig(
        &mut self,
        node: NodeId,
        what: &str,
        op: impl FnOnce(&mut Device) -> flexnet_types::Result<ReconfigReport>,
    ) {
        if let Some(report) = self.on_device(node, what, op) {
            self.reconfig_reports.push((self.now, node, report));
        }
    }

    /// The packet in `slot` enters the network at `node`.
    fn inject(&mut self, node: NodeId, slot: u32) {
        self.metrics.record_sent();
        let pkt = self.packets.get_mut(slot);
        if pkt.ingress_time == SimTime::ZERO {
            pkt.ingress_time = self.now;
        }
        pkt.trace.reserve(TYPICAL_PATH);
        self.arrive(node, slot, 0);
    }

    /// The packet in `slot` reaches `node_id`. Unless it was forwarded, its
    /// flight ends here, and here only is it taken out of the table.
    fn arrive(&mut self, node_id: NodeId, slot: u32, hops: u32) {
        let now = self.now;
        match self.hop(node_id, slot, hops) {
            Ok(Hop::Forwarded) => {}
            Ok(Hop::Delivered(at)) => {
                let pkt = self.packets.take(slot);
                self.metrics.record_delivered(pkt, at);
            }
            Ok(Hop::Punted) => {
                self.metrics.record_punted();
                self.punt_log.push((now, node_id, self.packets.take(slot)));
            }
            Err(kind) => {
                drop(self.packets.take(slot));
                self.metrics.record_lost(kind, now);
            }
        }
    }

    /// One device and, if it forwards, one link; `Err` is a loss. The hop
    /// count travels with the flight, not in packet metadata: programs
    /// neither see nor pay for it.
    fn hop(&mut self, node_id: NodeId, slot: u32, hops: u32) -> Result<Hop, LossKind> {
        let now = self.now;
        // Hop limit guard.
        if hops as u64 >= HOP_LIMIT {
            return Err(LossKind::HopLimit);
        }
        let node = self.topo.node_mut(node_id).ok_or(LossKind::NoRoute)?;
        if !node.device.is_up() {
            return Err(LossKind::DeviceDown);
        }

        // Device service (throughput) model: packets queue for the device;
        // bounded waiting, then serialized service time.
        let service =
            SimDuration::from_nanos(1_000_000_000 / node.device.cost_model().throughput_pps.max(1));
        let start = now.max(node.busy_until);
        let wait = start.saturating_since(now);
        if wait > DEVICE_QUEUE_BOUND {
            return Err(LossKind::DeviceOverload);
        }
        node.busy_until = start + service;

        let pkt = self.packets.get_mut(slot);
        let result = node.device.process(pkt, now).map_err(|e| {
            self.errors
                .push((now, format!("process at {node_id}: {e}")));
            LossKind::PolicyDrop
        })?;
        let node_kind = node.kind;
        for (svc, args) in node.device.take_invocations() {
            self.invocation_log.push((now, node_id, svc, args));
        }
        if result.refused {
            return Err(LossKind::Refused);
        }

        let done_at = now + wait + result.latency;
        let port = match result.verdict {
            Verdict::Forward(port) => port,
            Verdict::ToController => return Ok(Hop::Punted),
            // Devices bound recirculation internally; one that returns it
            // anyway is dropped defensively.
            Verdict::Drop | Verdict::Recirculate => return Err(LossKind::PolicyDrop),
        };
        let dst = pkt
            .metadata
            .get_sym(Sym::DST_NODE)
            .map(|v| NodeId(v as u32));
        // Delivered when we are the destination host.
        if dst == Some(node_id) && node_kind == NodeKind::Host {
            return Ok(Hop::Delivered(done_at));
        }
        let wire = pkt.wire_len();
        // Resolve egress. Port 0 is the "routed" convention: the program
        // delegates next-hop selection to the routing substrate. Any other
        // port is explicit steering, with a route fallback when the port is
        // not wired.
        let routed = || dst.and_then(|d| self.next_hop(node_id, d));
        let link_id = if port == 0 {
            routed()
        } else {
            self.topo
                .node(node_id)
                .and_then(|n| n.ports.get(&port).copied())
                .or_else(routed)
        };
        let link_id = link_id.ok_or(LossKind::NoRoute)?;
        let link = self.topo.link_mut(link_id).ok_or(LossKind::NoRoute)?;
        if !link.up {
            return Err(LossKind::LinkDown);
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
            return Err(LossKind::QueueDrop);
        }
        link.busy_until = tx_start + ser;
        let (node, deliver_at) = (link.to, tx_start + ser + link.latency);
        let arrive = Fire::Arrive {
            node,
            pkt: slot,
            hops: hops + 1,
        };
        let ev = self.event(deliver_at, arrive);
        self.queue.push_lane(link_id.0 as usize + 1, ev);
        Ok(Hop::Forwarded)
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

    /// Packets parked, commands parked, events queued (lane heads included).
    fn parked(sim: &Simulation) -> (usize, usize, usize) {
        let q = &sim.queue;
        (
            sim.packets.slots.len() - sim.packets.free.len(),
            sim.commands.slots.len() - sim.commands.free.len(),
            q.general.len() + q.heads.len() + q.lanes.iter().map(VecDeque::len).sum::<usize>(),
        )
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
        let refused = sim
            .metrics
            .losses
            .get(&LossKind::Refused)
            .copied()
            .unwrap_or(0);
        assert!(
            refused >= 25_000,
            "~30s of downtime at 1kpps, got {refused}"
        );
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
        let a = topo.add_node(
            NodeKind::Switch,
            flexnet_dataplane::Architecture::drmt_default(),
        );
        let b = topo.add_node(
            NodeKind::Switch,
            flexnet_dataplane::Architecture::drmt_default(),
        );
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
        sim.schedule(
            SimTime::from_millis(1),
            Command::Inject {
                node: a,
                packet: pkt,
            },
        );
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
        // Round 1 parks seven commands and, as they fire, seven packets;
        // firing and delivering them frees their slots, and the free lists
        // hand those back last-freed-first — so round 2's events name slots
        // that run *against* their schedule order.
        for id in 0..7 {
            sim.schedule(at, inject(id));
        }
        sim.run(at + SimDuration::from_micros(500));
        assert_eq!(sim.metrics.delivered, 7);
        assert_eq!(
            (sim.commands.free.len(), sim.packets.free.len()),
            (7, 7),
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
            sim.commands.slots.len(),
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
        assert_eq!(sim.packets.slots.len(), 7, "packet slots were reused too");
        assert_eq!(parked(&sim), (0, 0, 0), "every slot came back");
    }

    #[test]
    fn queue_pops_what_one_heap_of_keys_would() {
        use flexnet_types::hash::{mix, mix_next};
        type Model = BinaryHeap<Reverse<(SimTime, u64)>>;
        // What both must answer to "the earliest event, if due by `until`".
        fn pop_both(queue: &mut EventQueue, model: &mut Model, until: SimTime) -> Option<SimTime> {
            let got = queue.pop(until).map(|ev| (ev.at, ev.seq));
            let due = model.peek().is_some_and(|Reverse((at, _))| *at <= until);
            let want = if due { model.pop() } else { None }.map(|Reverse(key)| key);
            assert_eq!(got, want, "until {until:?}");
            got.map(|(at, _)| at)
        }
        let (mut on_lane, mut fell_back, mut grew, mut not_due) = (0, 0, 0, 0);
        for seed in 0..256u64 {
            let mut rng = mix(seed);
            let mut draw = |n: u64| mix_next(&mut rng) % n;
            let mut queue = EventQueue::default();
            let mut model = Model::new();
            let (mut seq, mut now) = (0u64, 1_000u64);
            for _ in 0..300 {
                seq += 1;
                let fire = Fire::Command(seq as u32);
                match draw(8) {
                    // A lane push: mostly at or after the lane's tail, now
                    // and then before it, now and then on a lane never seen.
                    0..=3 => {
                        let known = queue.lanes.len();
                        let lane = match draw(12) {
                            0 => known + draw(3) as usize,
                            _ => draw(4) as usize,
                        };
                        let tail = queue.lanes.get(lane).and_then(|l| l.back());
                        let tail = tail.map_or(now, |ev| ev.at.as_nanos());
                        let at = match draw(4) {
                            0 => tail.saturating_sub(1 + draw(40)),
                            _ => tail + draw(40),
                        };
                        let at = SimTime::from_nanos(at);
                        let before = queue.general.len();
                        queue.push_lane(lane, Event { at, seq, fire });
                        model.push(Reverse((at, seq)));
                        grew += (lane >= known) as u32;
                        fell_back += (queue.general.len() > before) as u32;
                        on_lane += (queue.general.len() == before) as u32;
                    }
                    4 => {
                        let at = SimTime::from_nanos((now + draw(200)).saturating_sub(50));
                        queue.general.push(Reverse(Event { at, seq, fire }));
                        model.push(Reverse((at, seq)));
                    }
                    _ => {
                        let until = SimTime::from_nanos(now + draw(60));
                        for _ in 0..draw(5) {
                            match pop_both(&mut queue, &mut model, until) {
                                Some(at) => now = now.max(at.as_nanos()),
                                None => not_due += 1,
                            }
                        }
                    }
                }
            }
            while pop_both(&mut queue, &mut model, SimTime::MAX).is_some() {}
            assert!(queue.heads.is_empty() && queue.lanes.iter().all(VecDeque::is_empty));
        }
        assert!(
            on_lane > 10_000 && fell_back > 1_000 && grew > 256 && not_due > 1_000,
            "{on_lane} {fell_back} {grew} {not_due}"
        );
    }

    #[test]
    fn every_way_out_of_a_flight_frees_its_slot() {
        // Host 0 — switch — host 1, plus host 2 behind a link too slow for
        // a burst, host 3 behind a link that fails unannounced, and host 4
        // to bounce packets off.
        let (topo, sw, hosts) = Topology::single_switch(5);
        let mut sim = Simulation::new(topo);
        let at = SimTime::from_millis;
        let packet_to = |id: u64, dst: u32| {
            let mut packet = Packet::udp(id, 1, 2, id as u16, 4);
            packet.metadata.insert("dst_node".into(), dst as u64);
            packet
        };
        let to = |node: NodeId, id: u64, dst: NodeId| Command::Inject {
            node,
            packet: packet_to(id, dst.raw()),
        };
        let install = |node, src| Command::Install {
            node,
            bundle: bundle(src),
        };
        // Delivered, punted, dropped by policy, looped to the hop limit (the
        // switch steers to host 4, which routes the packet straight back).
        sim.schedule(
            SimTime::ZERO,
            install(
                sw,
                "program exits kind any { handler ingress(pkt) {
                   if (udp.sport == 1) { punt(); }
                   if (udp.sport == 2) { drop(); }
                   if (udp.sport == 3) { forward(4); }
                   forward(0);
                 } }",
            ),
        );
        for id in 0..4 {
            sim.schedule(at(1), to(hosts[0], id, hosts[1]));
        }
        // No route; a queue drop behind a burst on the slow link; a link
        // that is down while the routes still use it.
        sim.schedule(at(1), to(hosts[0], 10, NodeId(999)));
        let slow = sim.topo.node(sw).unwrap().ports[&2];
        let slow = sim.topo.link_mut(slow).unwrap();
        (slow.bandwidth_bps, slow.queue_cap) = (100_000_000, 2);
        for id in 20..30 {
            sim.schedule(at(1), to(hosts[0], id, hosts[2]));
        }
        let silent = sim.topo.node(sw).unwrap().ports[&3];
        sim.topo.link_mut(silent).unwrap().up = false;
        sim.schedule(at(1), to(hosts[0], 30, hosts[3]));
        sim.run(at(5));
        assert!(sim.metrics.delivered >= 2 && sim.metrics.punted == 1);

        // A host offered twice what it serves sheds the excess.
        let flow = FlowSpec::udp_cbr(
            hosts[1],
            hosts[0],
            10_000_000,
            at(10),
            SimDuration::from_millis(3),
        );
        sim.load(generate(&[flow], 1));
        // A program whose handler the device cannot enter fails `process`;
        // a reflashing device refuses; a crashed one is down.
        sim.schedule(
            at(20),
            install(
                hosts[1],
                "program h kind any { handler egress(pkt) { drop(); } }",
            ),
        );
        sim.schedule(at(21), to(hosts[1], 40, hosts[0]));
        sim.schedule(
            at(22),
            install(
                hosts[1],
                "program f kind any { handler ingress(pkt) { forward(0); } }",
            ),
        );
        sim.schedule(
            at(30),
            Command::Reflash {
                node: sw,
                bundle: forwarding(),
            },
        );
        sim.schedule(at(31), to(hosts[0], 50, hosts[1]));
        sim.schedule(at(40), Command::CrashDevice { node: hosts[2] });
        sim.schedule(at(41), to(hosts[2], 60, hosts[1]));
        sim.run_to_completion();

        let lost = |kind| sim.metrics.losses.get(&kind).copied().unwrap_or(0);
        use LossKind::*;
        for kind in [
            HopLimit,
            NoRoute,
            DeviceDown,
            DeviceOverload,
            Refused,
            PolicyDrop,
            LinkDown,
            QueueDrop,
        ] {
            assert!(lost(kind) > 0, "{kind:?}: {:?}", sim.metrics.losses);
        }
        assert_eq!(sim.errors.len(), 1, "{:?}", &sim.errors[..]);
        assert!(sim.errors[0].1.starts_with("process at"));
        let m = &sim.metrics;
        assert_eq!(m.sent, m.delivered + m.punted + m.total_lost());
        assert_eq!(
            parked(&sim),
            (0, 0, 0),
            "a leaked slot is memory a lossy run never returns"
        );
        assert!(
            sim.packets.slots.len() > 5_000,
            "the overload queued thousands at once"
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
                entry: TableEntry::exact(
                    &[1],
                    flexnet_lang::ast::ActionCall {
                        action: "a".into(),
                        args: vec![],
                    },
                ),
            },
        );
        sim.schedule(
            SimTime::from_millis(2),
            Command::RestartDevice { node: NodeId(98) },
        );
        sim.run_to_completion();
        let errors: Vec<&str> = sim.errors.iter().map(|(_, e)| e.as_str()).collect();
        assert_eq!(errors.len(), 3);
        assert!(
            errors[0].starts_with(&format!("install on {sw}: ")),
            "{errors:?}"
        );
        // An absent node reads the same whatever the command.
        assert_eq!(errors[1..], ["unknown node node99", "unknown node node98"]);
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
        sim.schedule(
            SimTime::from_millis(20),
            Command::RestartDevice { node: sw },
        );
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
        sim.schedule(
            SimTime::from_millis(20),
            Command::RestartDevice { node: sw },
        );
        sim.schedule(SimTime::from_millis(30), Command::CrashDevice { node: sw });
        sim.schedule(
            SimTime::from_millis(40),
            Command::RestartDevice { node: sw },
        );
        sim.schedule(
            SimTime::from_millis(50),
            Command::RestartDevice { node: sw },
        );
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
        sim.schedule(
            SimTime::from_millis(20),
            Command::RestartDevice { node: sw },
        );
        sim.run_to_completion();
        assert!(sim.errors.is_empty(), "{:?}", sim.errors);
        let dev = &sim.topo.node(sw).unwrap().device;
        assert!(dev.is_up());
        assert_eq!(dev.boot_id(), 2);
        assert!(dev.program().is_none(), "still nothing installed");
        assert_eq!(dev.config_digest(), EMPTY_CONFIG_DIGEST);
    }
}
