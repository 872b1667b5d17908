//! `dev_acl` and `dev_cms`: bare forwarding through one device.
//!
//! A ring of pre-parsed minimum-size TCP packets is carried through
//! `ForwardingGraph::standard().run` in bursts of 64 on one dRMT device.
//! Nothing from `flexnet-sim` or `flexnet-controller` is on this path, so
//! these two workloads are where device-only work must show — and the
//! pair separates table reads (`dev_acl`) from register writes
//! (`dev_cms`).

use super::{Model, Params, SegmentOutcome, Workload};
use crate::stats::{distribution, Fnv, SplitMix};
use crate::trace::{Ledger, Tracer};
use flexnet_dataplane::{
    Architecture, Device, ForwardingGraph, LogicalState, ProcessResult, StateEncoding, TableEntry,
};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::{NodeId, Packet, SimTime, Verdict};
use std::collections::BTreeSet;

/// Packets per burst.
const BURST: usize = 64;
/// Packets in the ring (a whole number of bursts, so no burst wraps).
const RING: usize = 1024;
/// Distinct flows in the ring.
const FLOWS: u64 = 251;
/// Exact entries installed in the ACL.
const ACL_ENTRIES: u64 = 4096;
/// Untimed segments run before the first timed one.
const WARMUP_SEGMENTS: usize = 16;
/// Packets of the burst path re-run one by one through `Device::process`
/// on a twin device and compared (verdict, ops, latency, state, stats):
/// four turns of the ring.
const CHECKED: usize = 4096;

/// Which program the device runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// The e16 ACL firewall with 4096 exact entries.
    Acl,
    /// `apps::telemetry::count_min_sketch(4, 4096)`.
    Cms,
}

/// The ACL program `e16_fastpath` measures (map probe + exact table +
/// counter), sized for [`ACL_ENTRIES`].
const ACL_SOURCE: &str = "program fw kind any {
   map blocked : map<u32, u8>[1024];
   counter hits;
   table acl {
     key { ipv4.src : exact; }
     action deny() { count(hits); drop(); }
     action allow(port: u16) { forward(port); }
     default allow(1);
     size 4096;
   }
   handler ingress(pkt) {
     if (map_get(blocked, ipv4.src) == 1) { drop(); }
     apply acl;
     forward(1);
   }
 }";

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    packets: u64,
    vm_ops: u64,
    forwarded: u64,
    dropped: u64,
    trapped: u64,
    refused: u64,
}

impl Totals {
    #[inline]
    fn absorb(&mut self, r: &ProcessResult) {
        self.packets += 1;
        self.vm_ops += r.ops;
        self.refused += r.refused as u64;
        self.trapped += r.trap.is_some() as u64;
        match r.verdict {
            Verdict::Forward(_) => self.forwarded += 1,
            Verdict::Drop => self.dropped += 1,
            Verdict::ToController | Verdict::Recirculate => {}
        }
    }

    fn failed(&self) -> u64 {
        self.trapped + self.refused
    }
}

/// One device, one graph, one ring.
pub struct Dev {
    dev: Device,
    graph: ForwardingGraph,
    ring: Vec<Packet>,
    /// `ipv4.src` of each ring packet: the ACL's lookup key.
    keys: Vec<u64>,
    hits: Vec<u32>,
    cursor: usize,
    burst_no: u64,
    segment_packets: u64,
    totals: Totals,
    /// `ProcessResult::latency` of the checked packets, in simulated ns.
    /// A packet's modelled latency depends only on its path through the
    /// program, so these four turns of the ring have the distribution of
    /// any whole number of turns — the timed segments included — and the
    /// figure is a constant of (program, cost model, ring): it moves when
    /// one of those does, never with the host.
    latency_ns: Vec<u64>,
}

fn device() -> Device {
    Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    )
}

fn bundle_of(program: Program) -> Result<ProgramBundle, String> {
    match program {
        Program::Acl => flexnet_apps::build(ACL_SOURCE),
        Program::Cms => flexnet_apps::telemetry::count_min_sketch(4, 4096),
    }
    .map_err(|e| format!("program does not build: {e}"))
}

/// Installs `bundle` and, for the ACL, the seeded deny entries.
fn provision(dev: &mut Device, bundle: &ProgramBundle, deny: &[u64]) -> Result<(), String> {
    dev.install(bundle.clone())
        .map_err(|e| format!("install: {e}"))?;
    for key in deny {
        dev.add_entry(
            "acl",
            TableEntry::exact(
                &[*key],
                ActionCall {
                    action: "deny".into(),
                    args: vec![],
                },
            ),
        )
        .map_err(|e| format!("add_entry: {e}"))?;
    }
    Ok(())
}

/// Folds a logical-state snapshot into `h` (maps, registers, counters are
/// `BTreeMap`s, so the order is stable).
fn fold_state(h: &mut Fnv, state: &LogicalState) {
    for (name, map) in &state.maps {
        h.push_str(name);
        for (k, v) in map {
            h.push(*k);
            h.push(*v);
        }
    }
    for (name, cells) in &state.registers {
        h.push_str(name);
        cells.iter().for_each(|c| h.push(*c));
    }
    for (name, (pkts, bytes)) in &state.counters {
        h.push_str(name);
        h.push(*pkts);
        h.push(*bytes);
    }
}

impl Dev {
    /// Sets the device up and checks burst ≡ single-packet on the first
    /// [`CHECKED`] packets.
    pub fn build(program: Program, p: Params) -> Result<Dev, String> {
        let segment_packets = match program {
            Program::Acl => 1 << 16,
            Program::Cms => 1 << 14,
        } / p.scale.max(1);
        let segment_packets = (segment_packets / BURST as u64).max(1) * BURST as u64;

        // Inputs: 4096 distinct deny keys; 251 flows of which every 8th
        // carries a deny key as its source address.
        let mut rng = SplitMix::new(p.seed, 0xACE1);
        let mut deny = BTreeSet::new();
        while (deny.len() as u64) < ACL_ENTRIES {
            deny.insert(rng.next_u64() as u32 as u64);
        }
        let deny: Vec<u64> = deny.into_iter().collect();
        let flows: Vec<(u32, u32, u16)> = (0..FLOWS)
            .map(|f| {
                let src = if f % 8 == 0 {
                    deny[rng.below(ACL_ENTRIES) as usize] as u32
                } else {
                    loop {
                        let s = rng.next_u64() as u32;
                        if deny.binary_search(&(s as u64)).is_err() {
                            break s;
                        }
                    }
                };
                (src, rng.next_u64() as u32, 1024 + rng.below(60_000) as u16)
            })
            .collect();
        let ring: Vec<Packet> = (0..RING as u64)
            .map(|i| {
                let (src, dst, sport) = flows[(i % FLOWS) as usize];
                Packet::tcp(i, src, dst, sport, 80, 0)
            })
            .collect();
        let keys = ring
            .iter()
            .map(|p| p.get_field("ipv4.src").unwrap_or(0))
            .collect();

        let bundle = bundle_of(program)?;
        let deny_entries: &[u64] = if program == Program::Acl { &deny } else { &[] };
        let mut w = Dev {
            dev: device(),
            graph: ForwardingGraph::standard(),
            ring,
            keys,
            hits: Vec::new(),
            cursor: 0,
            burst_no: 0,
            segment_packets,
            totals: Totals::default(),
            latency_ns: Vec::new(),
        };
        provision(&mut w.dev, &bundle, deny_entries)?;

        // Self-check: the same packets one at a time through a twin.
        let mut twin = device();
        provision(&mut twin, &bundle, deny_entries)?;
        w.check_against(&mut twin)?;
        Ok(w)
    }

    /// Runs [`CHECKED`] packets through the burst path and through
    /// `twin.process`, and compares every observable.
    fn check_against(&mut self, twin: &mut Device) -> Result<(), String> {
        let mut single = self.ring.clone();
        for round in 0..CHECKED / RING {
            for start in (0..RING).step_by(BURST) {
                let slice = &mut self.ring[start..start + BURST];
                slice.iter_mut().for_each(|p| p.trace.clear());
                let lanes = self
                    .graph
                    .run(&mut self.dev, slice, SimTime::ZERO)
                    .map_err(|e| format!("burst path: {e}"))?;
                for (i, burst) in lanes.results.iter().enumerate() {
                    let pkt = &mut single[start + i];
                    pkt.trace.clear();
                    let one = twin
                        .process(pkt, SimTime::ZERO)
                        .map_err(|e| format!("single path: {e}"))?;
                    if *burst != one {
                        return Err(format!(
                            "burst and single-packet paths disagree on packet {} of round {round}: {burst:?} vs {one:?}",
                            start + i
                        ));
                    }
                    self.latency_ns.push(one.latency.as_nanos());
                    self.totals.absorb(burst);
                }
            }
        }
        if self.dev.stats() != twin.stats() {
            return Err(format!(
                "device stats diverge: burst {:?} vs single {:?}",
                self.dev.stats(),
                twin.stats()
            ));
        }
        if self.dev.snapshot_state() != twin.snapshot_state() {
            return Err("logical state diverges between burst and single-packet paths".into());
        }
        Ok(())
    }
}

impl Workload for Dev {
    fn warm_up(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for _ in 0..WARMUP_SEGMENTS {
            self.segment(tr);
        }
        self.verify()
    }

    fn window_segments(&self) -> usize {
        160
    }

    fn prepare(&mut self, _tr: &mut Tracer) {}

    fn segment(&mut self, tr: &mut Tracer) -> SegmentOutcome {
        let before = self.totals;
        let mut remaining = self.segment_packets as usize;
        while remaining > 0 {
            let chunk = BURST.min(RING - self.cursor).min(remaining);
            let slice = &mut self.ring[self.cursor..self.cursor + chunk];
            // `record_processing` appends to the trace; clearing keeps the
            // reused ring's memory flat.
            slice.iter_mut().for_each(|p| p.trace.clear());
            let open = tr.begin("dataplane.graph.run", self.burst_no);
            let run = self.graph.run(&mut self.dev, slice, SimTime::ZERO);
            tr.end(open);
            match run {
                Ok(lanes) => lanes.results.iter().for_each(|r| self.totals.absorb(r)),
                // A device error loses the whole burst.
                Err(_) => {
                    self.totals.packets += chunk as u64;
                    self.totals.refused += chunk as u64;
                }
            }
            self.burst_no += 1;
            self.cursor = (self.cursor + chunk) % RING;
            remaining -= chunk;
        }
        SegmentOutcome {
            attempted: self.totals.packets - before.packets,
            failed: self.totals.failed() - before.failed(),
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let stats = self.dev.stats();
        if stats.processed != self.totals.packets - self.totals.refused {
            return Err(format!(
                "device processed {} packets, benchmark counted {}",
                stats.processed, self.totals.packets
            ));
        }
        Ok(())
    }

    fn replay(&mut self, tr: &mut Tracer) {
        // The table layer from outside: the same keys, burst by burst,
        // through the installed table's batch lookup.
        let Some(table) = self.dev.table("acl") else {
            return;
        };
        let arity = table.key_arity();
        let open = tr.begin("dataplane.table.lookup_burst", self.burst_no);
        let mut found = 0usize;
        for _ in 0..self.segment_packets as usize / RING {
            for keys in self.keys.chunks(BURST) {
                table.lookup_burst(keys, arity, &mut self.hits);
                found += self.hits.len();
            }
        }
        std::hint::black_box(found);
        tr.end(open);
    }

    fn model(&mut self, _tr: &mut Tracer) -> Model {
        let t = self.totals;
        let mut h = Fnv::default();
        for v in [
            t.packets,
            t.vm_ops,
            t.forwarded,
            t.dropped,
            t.trapped,
            t.refused,
        ] {
            h.push(v);
        }
        if let Some(state) = self.dev.snapshot_state() {
            fold_state(&mut h, &state);
        }
        h.push(self.dev.config_digest());
        let per_pkt = |n: u64| n as f64 / t.packets.max(1) as f64;
        Model {
            latency: distribution(&mut self.latency_ns),
            digest: h.finish(),
            counts: vec![
                ("dataplane.device.vm_ops_per_pkt", per_pkt(t.vm_ops)),
                ("dataplane.device.drop_ppm", 1e6 * per_pkt(t.dropped)),
                ("dataplane.device.trap_ppm", 1e6 * per_pkt(t.trapped)),
            ],
            allocs_metric: Some("dataplane.device.allocs_per_pkt"),
        }
    }

    fn timings(&self, ledger: &Ledger<'_>, traced_ops: u64) -> Vec<(&'static str, f64)> {
        let lookups = ledger.of("dataplane.table.lookup_burst").count * self.segment_packets;
        vec![
            (
                "dataplane.graph.run_ns_per_pkt",
                ledger.ns_per("dataplane.graph.run", traced_ops),
            ),
            (
                "dataplane.table.lookup_ns_per_key",
                ledger.ns_per("dataplane.table.lookup_burst", lookups),
            ),
        ]
    }

    fn finish(&mut self) -> Result<(), String> {
        self.verify()
    }
}
