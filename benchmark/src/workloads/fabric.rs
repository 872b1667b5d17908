//! `fabric_forward` and `fabric_reconfig`: packets end to end through
//! `sim::Simulation`.
//!
//! `Topology::leaf_spine(2, 4, 4)` with `firewall(64)` on the leaves and
//! `l3_router(256)` on the spines; 16 cross-pod Poisson flows of
//! minimum-size TCP packets. Traffic is fed slice by slice
//! (`generate` → `Simulation::load` → `run(until)`); a segment is a few
//! slices. The event heap, routing, link/device queues, packet metadata
//! and `Metrics` do most of the work here and the device a minority of
//! each hop — the opposite of `dev_*`.
//!
//! `fabric_forward` offers load so the busiest modelled device (a host,
//! 5 Mpps) sits at 70 % of `CostModel::throughput_pps`.
//!
//! `fabric_reconfig` is the paper's headline: before every segment the
//! benchmark starts a hitless reconfiguration on the next leaf in rotation
//! (firewall → hardened firewall → firewall+sketch → firewall …) and
//! applies table inserts/removals. The calibrated cost model makes one such
//! change take 100–140 ms of simulated time, so this workload offers a
//! light load (0.4 Mpps) over segments of 25 ms simulated: every change
//! then completes under live traffic inside the run — and before its leaf's
//! next turn, 200 ms later — which the 70 % load could not show within the
//! benchmark's time budget.

use super::{Model, Params, SegmentOutcome, Workload};
use crate::harness::proc_status_kib;
use crate::stats::{highest_supported_percentile, percentile_sorted, Distribution, Fnv, SplitMix};
use crate::trace::{Ledger, Tracer};
use flexnet_dataplane::{
    Architecture, Device, InstalledProgram, KeyMatch, StateEncoding, TableEntry,
};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::diff::{diff_bundles, ProgramBundle};
use flexnet_sim::{generate, Departure, FlowSpec, LossKind, Pattern, Simulation, Topology};
use flexnet_types::{NodeId, Packet, ProgramVersion, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Packets of each traced slice replayed through stand-alone devices.
const REPLAYED: usize = 4096;
/// Entries the benchmark keeps installed per leaf ACL (table size 64).
const LIVE_ENTRIES: usize = 32;
/// Slack between a packet's ingress and its processing at any device when
/// judging which program version it must have seen.
const TRANSIT_SLACK: SimDuration = SimDuration::from_millis(1);

/// The firewall plus a SYN meter in front of the ACL — the hot-patch of
/// `apps::security::firewall_hardening_patch`, minus its default-deny (a
/// benchmark workload must not drop what it offers).
const HARDENED: &str = "program firewall kind any {
   map blocked : map<u32, u8>[1024];
   counter dropped;
   counter suspicious;
   meter syn_meter rate 1000 burst 64;
   table acl {
     key { ipv4.src : exact; tcp.dport : exact; }
     action deny() { count(dropped); drop(); }
     action allow() { forward(0); }
     default allow();
     size 64;
   }
   handler ingress(pkt) {
     if (valid(tcp) && (tcp.flags & 2) == 2) {
       if (!meter_check(syn_meter, ipv4.src)) { count(suspicious); drop(); }
     }
     if (map_get(blocked, ipv4.src) == 1) { count(dropped); drop(); }
     apply acl;
     forward(0);
   }
 }";

/// The firewall with a two-row count-min sketch folded in.
const WITH_SKETCH: &str = "program firewall kind any {
   map blocked : map<u32, u8>[1024];
   counter dropped;
   register cms_row0 : u64[1024];
   register cms_row1 : u64[1024];
   table acl {
     key { ipv4.src : exact; tcp.dport : exact; }
     action deny() { count(dropped); drop(); }
     action allow() { forward(0); }
     default allow();
     size 64;
   }
   handler ingress(pkt) {
     let i0 = hash(ipv4.src, ipv4.dst, ipv4.proto, 0) % 1024;
     reg_write(cms_row0, i0, reg_read(cms_row0, i0) + 1);
     let i1 = hash(ipv4.src, ipv4.dst, ipv4.proto, 1) % 1024;
     reg_write(cms_row1, i1, reg_read(cms_row1, i1) + 1);
     if (map_get(blocked, ipv4.src) == 1) { count(dropped); drop(); }
     apply acl;
     forward(0);
   }
 }";

/// Per-leaf state of the reconfiguration workload.
struct Leaf {
    node: NodeId,
    /// Index into `variants` of the program the leaf is heading to.
    variant: usize,
    /// Version before any change.
    base_version: ProgramVersion,
    /// Flip instants, in order; flip `i` activates `base_version + i + 1`.
    flips: Vec<SimTime>,
    /// Keys of the ACL entries the benchmark believes installed.
    live: Vec<u64>,
}

/// What the benchmark's own control calls did (reconfig workload only).
#[derive(Default)]
struct ControlTally {
    errors: u64,
    /// Simulated begin→flip windows, ns.
    windows_ns: Vec<u64>,
}

/// The fabric under load.
pub struct Fabric {
    reconfig: bool,
    sim: Simulation,
    flows: Vec<FlowSpec>,
    /// Simulated length of one `load` + `run(until)` step.
    slice: SimDuration,
    /// Steps per segment (one reconfiguration period on `fabric_reconfig`).
    slices_per_segment: u64,
    /// Slices generated so far; slice `n` covers `[n, n + 1) × slice`.
    slice_no: u64,
    seed: u64,
    next: Vec<Vec<Departure>>,
    next_id: u64,
    /// Stand-alone (host, leaf, spine) devices for the replay.
    replay_devs: [Device; 3],
    sample: Vec<Packet>,
    scratch: Vec<Packet>,
    /// Packets in the sample last replayed.
    replayed: usize,
    leaves: Vec<Leaf>,
    variants: Vec<ProgramBundle>,
    control: ControlTally,
    /// The (old, new) bundles of the last `begin`, for the lang replay.
    last_change: Option<(ProgramBundle, ProgramBundle)>,
    key_rng: SplitMix,
    mixed_version_pkts: u64,
    checked_pkts: u64,
    /// Counters when the warm-up ended: the base of per-packet ratios.
    hops_at_start: u64,
    sent_at_start: u64,
    rss_at_start_kib: u64,
    /// Resident-set growth per packet sent over the first window, in bytes.
    window_rss_bytes_per_pkt: f64,
}

fn app(result: flexnet_types::Result<ProgramBundle>, what: &str) -> Result<ProgramBundle, String> {
    result.map_err(|e| format!("{what} does not build: {e}"))
}

fn entry(key: u64) -> TableEntry {
    TableEntry::exact(
        &[key, 80],
        ActionCall {
            action: "deny".into(),
            args: vec![],
        },
    )
}

impl Fabric {
    /// Builds the fabric and installs the programs.
    pub fn build(reconfig: bool, p: Params) -> Result<Fabric, String> {
        let (topo, spines, leaf_ids, hosts) = Topology::leaf_spine(2, 4, 4);
        let mut sim = Simulation::new(topo);
        let firewall = app(flexnet_apps::security::firewall(64), "firewall")?;
        let router = app(flexnet_apps::routing::l3_router(256), "l3_router")?;
        let variants = vec![
            firewall.clone(),
            app(flexnet_apps::build(HARDENED), "hardened firewall")?,
            app(flexnet_apps::build(WITH_SKETCH), "firewall+sketch")?,
        ];
        let install = |sim: &mut Simulation, node: NodeId, b: &ProgramBundle| {
            sim.topo
                .node_mut(node)
                .ok_or_else(|| format!("no node {node}"))?
                .device
                .install(b.clone())
                .map_err(|e| format!("install on {node}: {e}"))
        };
        for leaf in &leaf_ids {
            install(&mut sim, *leaf, &firewall)?;
        }
        for spine in &spines {
            install(&mut sim, *spine, &router)?;
        }
        // The reconfiguration checks read each delivered packet's trace.
        sim.metrics.keep_packets = reconfig;

        // 16 cross-pod flows: host i sends to the host one pod over, so
        // every host sources one flow and sinks one (2 × rate per host).
        // Slices are kept to ~1–2 k packets: loading more at once pushes the
        // event heap out of the core's own cache, and throughput then
        // follows whatever the host's other tenants do to the shared one
        // (measured: 12 % spread across identical runs at 7 k per load).
        let (rate_pps, slice, slices_per_segment) = if reconfig {
            (25_000, SimDuration::from_millis(5), 5)
        } else {
            (1_750_000, SimDuration::from_micros(50), 4)
        };
        let slice = SimDuration::from_nanos(slice.as_nanos() / p.scale.max(1));
        let mut rng = SplitMix::new(p.seed, 0xFAB);
        let flows: Vec<FlowSpec> = (0..hosts.len())
            .map(|i| {
                let (src, dst) = (hosts[i], hosts[(i + 4) % hosts.len()]);
                FlowSpec {
                    src_node: src,
                    dst_node: dst,
                    src_ip: 0x0a00_0000 | src.raw(),
                    dst_ip: 0x0a00_0000 | dst.raw(),
                    src_port: 1024 + rng.below(60_000) as u16,
                    dst_port: 80,
                    proto: 6,
                    pattern: Pattern::Poisson { mean_pps: rate_pps },
                    start: SimTime::ZERO,
                    duration: slice,
                    payload: 0,
                }
            })
            .collect();

        let standalone = |arch: Architecture, b: Option<&ProgramBundle>| {
            let mut d = Device::new(NodeId(0), arch, StateEncoding::StatefulTable);
            match b {
                Some(b) => d.install(b.clone()).map(|()| d),
                None => Ok(d),
            }
            .map_err(|e| format!("replay device: {e}"))
        };
        let replay_devs = [
            standalone(Architecture::host_default(), None)?,
            standalone(Architecture::rmt_default(), Some(&firewall))?,
            standalone(Architecture::drmt_default(), Some(&router))?,
        ];

        let leaves = leaf_ids
            .iter()
            .map(|&node| Leaf {
                node,
                variant: 0,
                base_version: sim
                    .topo
                    .node(node)
                    .map_or(ProgramVersion::INITIAL, |n| n.device.version()),
                flips: Vec::new(),
                live: Vec::new(),
            })
            .collect();
        Ok(Fabric {
            reconfig,
            sim,
            flows,
            slice,
            slices_per_segment,
            slice_no: 0,
            seed: p.seed,
            next: Vec::new(),
            next_id: 1,
            replay_devs,
            sample: Vec::new(),
            scratch: Vec::new(),
            replayed: 0,
            leaves,
            variants,
            control: ControlTally::default(),
            last_change: None,
            key_rng: SplitMix::new(p.seed, 0xE47),
            mixed_version_pkts: 0,
            checked_pkts: 0,
            hops_at_start: 0,
            sent_at_start: 0,
            rss_at_start_kib: 0,
            window_rss_bytes_per_pkt: 0.0,
        })
    }

    fn hops(&self) -> u64 {
        self.sim
            .topo
            .nodes()
            .map(|n| n.device.stats().processed)
            .sum()
    }

    fn lost_unasked(&self) -> u64 {
        self.sim
            .metrics
            .losses
            .iter()
            .filter(|(kind, _)| **kind != LossKind::PolicyDrop)
            .map(|(_, n)| *n)
            .sum()
    }

    /// The benchmark's own control calls for this slice: one hitless
    /// reconfiguration on the next leaf in rotation and four table updates
    /// per simulated millisecond.
    fn control_plane(&mut self, tr: &mut Tracer, now: SimTime) {
        let op = self.slice_no;
        let turn = (self.slice_no / self.slices_per_segment) as usize % self.leaves.len();
        let leaf = &mut self.leaves[turn];
        let Some(node) = self.sim.topo.node_mut(leaf.node) else {
            self.control.errors += 1;
            return;
        };
        let dev = &mut node.device;

        if !dev.reconfig_in_progress() {
            let old = self.variants[leaf.variant].clone();
            leaf.variant = (leaf.variant + 1) % self.variants.len();
            let target = self.variants[leaf.variant].clone();
            let open = tr.begin("dataplane.reconfig.begin_runtime_reconfig", op);
            let begun = dev.begin_runtime_reconfig(target.clone(), now);
            tr.end(open);
            match begun {
                Ok(report) => {
                    self.control.windows_ns.push(report.duration.as_nanos());
                    leaf.flips.push(report.ready_at);
                    self.last_change = Some((old, target));
                }
                Err(_) => self.control.errors += 1,
            }
        }

        let period = self.slice.as_nanos() * self.slices_per_segment;
        let updates = 4 * (period / 1_000_000).max(1);
        for _ in 0..updates {
            if leaf.live.len() >= LIVE_ENTRIES {
                let key = leaf.live.remove(0);
                let matches = [KeyMatch::Exact(key), KeyMatch::Exact(80)];
                let open = tr.begin("dataplane.table.remove_entry", op);
                let removed = dev.remove_entry("acl", &matches);
                tr.end(open);
                self.control.errors += removed.is_err() as u64;
            } else {
                // Keys outside 10.0.0.0/8: no offered packet matches a
                // deny entry, so the updates never change a verdict.
                let key = 0xC000_0000 | (self.key_rng.next_u64() & 0x0FFF_FFFF);
                let open = tr.begin("dataplane.table.add_entry", op);
                let added = dev.add_entry("acl", entry(key));
                tr.end(open);
                match added {
                    Ok(()) => leaf.live.push(key),
                    Err(_) => self.control.errors += 1,
                }
            }
        }
    }

    /// Old-XOR-new: every device in a delivered packet's trace ran exactly
    /// the version that was active when the packet crossed it.
    fn check_versions(&mut self) {
        let delivered = std::mem::take(&mut self.sim.metrics.delivered_packets);
        for pkt in &delivered {
            self.checked_pkts += 1;
            let mut seen: BTreeMap<NodeId, ProgramVersion> = BTreeMap::new();
            let mut mixed = false;
            for (node, version) in &pkt.trace {
                if seen.insert(*node, *version).is_some_and(|v| v != *version) {
                    mixed = true;
                }
                let Some(leaf) = self.leaves.iter().find(|l| l.node == *node) else {
                    continue;
                };
                let flipped_by = |t: SimTime| leaf.flips.iter().filter(|f| **f <= t).count() as u64;
                let lo = leaf.base_version.0 + flipped_by(pkt.ingress_time);
                let hi = leaf.base_version.0 + flipped_by(pkt.ingress_time + TRANSIT_SLACK);
                mixed |= !(lo..=hi).contains(&version.0);
            }
            self.mixed_version_pkts += mixed as u64;
        }
    }
}

impl Workload for Fabric {
    fn warm_up(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // Untimed segments, checked like any other; on `fabric_reconfig`
        // one for every leaf, so each has its tables filled.
        for _ in 0..8 {
            self.prepare(tr);
            self.segment(tr);
            self.verify()?;
        }
        self.hops_at_start = self.hops();
        self.sent_at_start = self.sim.metrics.sent;
        self.rss_at_start_kib = proc_status_kib("VmRSS:");
        Ok(())
    }

    fn window_segments(&self) -> usize {
        if self.reconfig {
            20
        } else {
            50
        }
    }

    fn prepare(&mut self, tr: &mut Tracer) {
        self.next.clear();
        self.sample.clear();
        for _ in 0..self.slices_per_segment {
            self.slice_no += 1;
            let start = SimTime::from_nanos(self.slice_no * self.slice.as_nanos());
            for f in &mut self.flows {
                f.start = start;
            }
            let seed = SplitMix::new(self.seed, self.slice_no).next_u64();
            let open = tr.begin("sim.workload.generate", self.slice_no);
            let mut departures = generate(&self.flows, seed);
            tr.end(open);
            // `generate` numbers each call's packets from 1; keep ids
            // unique across slices.
            for d in &mut departures {
                d.packet.id = self.next_id;
                self.next_id += 1;
            }
            if tr.enabled() {
                let room = REPLAYED - self.sample.len();
                self.sample
                    .extend(departures.iter().take(room).map(|d| d.packet.clone()));
            }
            self.next.push(departures);
        }
    }

    fn segment(&mut self, tr: &mut Tracer) -> SegmentOutcome {
        let (sent, lost, errors) = (
            self.sim.metrics.sent,
            self.lost_unasked(),
            self.control.errors,
        );
        let first = self.slice_no + 1 - self.next.len() as u64;
        if self.reconfig {
            self.control_plane(tr, SimTime::from_nanos(first * self.slice.as_nanos()));
        }
        for (k, departures) in std::mem::take(&mut self.next).into_iter().enumerate() {
            let op = first + k as u64;
            let open = tr.begin("sim.engine.load", op);
            self.sim.load(departures);
            tr.end(open);
            let open = tr.begin("sim.engine.run", op);
            self.sim
                .run(SimTime::from_nanos((op + 1) * self.slice.as_nanos()));
            tr.end(open);
        }
        SegmentOutcome {
            attempted: self.sim.metrics.sent - sent,
            failed: (self.lost_unasked() - lost) + (self.control.errors - errors),
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        if self.reconfig {
            self.check_versions();
        }
        if self.mixed_version_pkts > 0 {
            return Err(format!(
                "{} delivered packets violate old-XOR-new",
                self.mixed_version_pkts
            ));
        }
        if !self.sim.errors.is_empty() {
            return Err(format!("simulation errors: {:?}", &self.sim.errors[..1]));
        }
        match self.sim.metrics.total_lost() {
            0 => Ok(()),
            n => Err(format!("{n} packets lost: {:?}", self.sim.metrics.losses)),
        }
    }

    fn replay(&mut self, tr: &mut Tracer) {
        // The device layer from outside: the slice's first packets through
        // stand-alone devices, weighted like a path (2 hosts, 2 leaves, 1
        // spine per packet).
        self.replayed = self.sample.len();
        for (dev, passes) in self.replay_devs.iter_mut().zip([2, 2, 1]) {
            for _ in 0..passes {
                self.scratch.clone_from(&self.sample);
                let open = tr.begin("dataplane.device.process", self.slice_no);
                for pkt in &mut self.scratch {
                    let _ = std::hint::black_box(dev.process(pkt, SimTime::ZERO));
                }
                tr.end(open);
            }
        }
        // The lang layer behind the last reconfiguration.
        if let Some((old, new)) = self.last_change.take() {
            let open = tr.begin("lang.diff.diff_bundles", self.slice_no);
            std::hint::black_box(diff_bundles(&old, &new));
            tr.end(open);
            let open = tr.begin("lang.bytecode.compile", self.slice_no);
            if let Ok(mut image) = InstalledProgram::new(new, StateEncoding::StatefulTable) {
                let _ = std::hint::black_box(image.recompile());
            }
            tr.end(open);
        }
    }

    fn model(&mut self, tr: &mut Tracer) -> Model {
        let m = &self.sim.metrics;
        let open = tr.begin("sim.metrics.latency_percentile", self.slice_no);
        let p99 = m.latency_percentile(99.0);
        tr.end(open);
        // `Metrics` keeps its samples private: ask it for each percentile.
        let ns = |d: Option<SimDuration>| d.map_or(0, |d| d.as_nanos());
        let n = m.delivered as usize;
        let latency = Distribution {
            n,
            p50: ns(m.latency_percentile(50.0)),
            p99: ns(p99),
            tail: highest_supported_percentile(n).map(|p| (p, ns(m.latency_percentile(p)))),
        };

        let mut h = Fnv::default();
        h.push(m.sent);
        h.push(m.delivered);
        for (kind, n) in &m.losses {
            h.push(*kind as u64);
            h.push(*n);
        }
        for ((node, version), n) in &m.version_counts {
            h.push(node.raw() as u64);
            h.push(version.0);
            h.push(*n);
        }
        h.push(m.latency_mean().map_or(0, |d| d.as_nanos()));
        h.push(self.hops());
        for leaf in &self.leaves {
            leaf.flips.iter().for_each(|f| h.push(f.as_nanos()));
        }

        let sent = (m.sent - self.sent_at_start).max(1);
        let overload = [LossKind::DeviceOverload, LossKind::QueueDrop]
            .iter()
            .map(|k| m.losses.get(k).copied().unwrap_or(0))
            .sum::<u64>();
        let rss_growth = proc_status_kib("VmRSS:").saturating_sub(self.rss_at_start_kib);
        self.window_rss_bytes_per_pkt = 1024.0 * rss_growth as f64 / sent as f64;
        let mut windows = self.control.windows_ns.clone();
        windows.sort_unstable();
        Model {
            latency,
            digest: h.finish(),
            counts: vec![
                (
                    "sim.engine.hops_per_pkt",
                    (self.hops() - self.hops_at_start) as f64 / sent as f64,
                ),
                (
                    "sim.engine.overload_drop_ppm",
                    1e6 * overload as f64 / m.sent.max(1) as f64,
                ),
                (
                    "dataplane.reconfig.sim_window_ms_p99",
                    percentile_sorted(&windows, 99.0) as f64 / 1e6,
                ),
                (
                    "dataplane.reconfig.mixed_version_pkts",
                    self.mixed_version_pkts as f64,
                ),
            ],
            allocs_metric: Some("sim.engine.allocs_per_pkt"),
        }
    }

    fn timings(&self, ledger: &Ledger<'_>, traced_ops: u64) -> Vec<(&'static str, f64)> {
        let hops_per_pkt = (self.hops() - self.hops_at_start) as f64
            / (self.sim.metrics.sent - self.sent_at_start).max(1) as f64;
        let traced_hops = (traced_ops as f64 * hops_per_pkt) as u64;
        let run = ledger.ns_per("sim.engine.run", traced_hops);
        // Every replay span covers one pass of a sample through a device.
        let device = ledger.ns_mean("dataplane.device.process") / self.replayed.max(1) as f64;
        vec![
            ("sim.engine.run_ns_per_hop", run),
            ("sim.metrics.bytes_per_pkt", self.window_rss_bytes_per_pkt),
            ("dataplane.device.process_ns_per_hop", device),
            ("sim.engine.self_ns_per_hop", run - device),
            (
                "sim.engine.load_ns_per_pkt",
                ledger.ns_per("sim.engine.load", traced_ops),
            ),
            (
                "sim.workload.generate_ns_per_pkt",
                ledger.ns_per("sim.workload.generate", traced_ops),
            ),
            (
                "sim.metrics.percentile_ns",
                ledger.ns_mean("sim.metrics.latency_percentile"),
            ),
            (
                "dataplane.reconfig.begin_ns",
                ledger.ns_mean("dataplane.reconfig.begin_runtime_reconfig"),
            ),
            (
                "dataplane.table.add_entry_ns",
                ledger.ns_mean("dataplane.table.add_entry"),
            ),
            (
                "dataplane.table.remove_entry_ns",
                ledger.ns_mean("dataplane.table.remove_entry"),
            ),
            ("lang.diff.ns", ledger.ns_mean("lang.diff.diff_bundles")),
            (
                "lang.bytecode.compile_ns",
                ledger.ns_mean("lang.bytecode.compile"),
            ),
        ]
    }

    fn finish(&mut self) -> Result<(), String> {
        // Drain what is still in flight, then account for every packet.
        self.sim.run_to_completion();
        self.verify()?;
        let m = &self.sim.metrics;
        if m.delivered != m.sent {
            return Err(format!("sent {} but delivered {}", m.sent, m.delivered));
        }
        if self.reconfig {
            if self.checked_pkts != m.delivered {
                return Err(format!(
                    "checked {} delivered packets of {}",
                    self.checked_pkts, m.delivered
                ));
            }
            let flips: usize = self.leaves.iter().map(|l| l.flips.len()).sum();
            if flips == 0 {
                return Err("no reconfiguration was started".into());
            }
            // Every leaf is where its flip history says it should be.
            for leaf in &self.leaves {
                let dev = &self.sim.topo.node(leaf.node).ok_or("leaf vanished")?.device;
                let due = leaf.flips.iter().filter(|f| **f <= self.sim.now()).count() as u64;
                if dev.version().0 != leaf.base_version.0 + due {
                    return Err(format!(
                        "{} is at version {} but {due} flips were due",
                        leaf.node,
                        dev.version().0
                    ));
                }
            }
        }
        Ok(())
    }
}
