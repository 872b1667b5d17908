//! The forwarding graph: the device hot path over reusable burst lanes.
//!
//! A [`ForwardingGraph`] carries bursts of 64–256 packets through the
//! device over per-burst lanes ([`BurstLanes`]) that keep their capacity —
//! no per-packet allocation, no per-packet call chain. Two entries:
//!
//! ```text
//!   run         packets ──▶ exec ───────────────────────────▶ emit
//!   run_sealed  frames  ──▶ admission (checksum ▶ parse ▶ exec) ▶ emit
//! ```
//!
//! - **exec** is the device's one packet loop,
//!   [`crate::device::Device::process_burst`]: every packet through the
//!   same per-packet body a single [`crate::device::Device::process`] call
//!   runs (gas, traps, quarantine billed to the exact packet), with the
//!   preamble and engine resolution paid once per run.
//! - **Admission** is what [`ForwardingGraph::run_sealed`] does in place of
//!   exec ([`crate::device::Device::process_sealed_burst`]): checksum
//!   verification and wire parsing bill the exact offending frame, and
//!   surviving packets run the same packet loop in arrival order around
//!   each poison frame.
//! - **emit** fixes the egress order: the burst-local indices of the
//!   `Forward` verdicts, in arrival order.

use crate::device::{Device, FrameOutcome, ProcessResult};
use flexnet_types::{Packet, Result, SimTime, Verdict};

/// Reusable per-burst lanes.
///
/// Index-aligned with the burst's packets; all vectors retain capacity
/// across bursts, so a steady-state burst allocates nothing.
#[derive(Debug, Default)]
pub struct BurstLanes {
    /// One result per packet of the burst.
    pub results: Vec<ProcessResult>,
    /// Per-input-frame outcomes (wire entry only).
    pub frame_outcomes: Vec<FrameOutcome>,
    /// Egress order: burst-local indices of the packets with a `Forward`
    /// verdict, in arrival order.
    pub egress: Vec<u32>,
}

impl BurstLanes {
    fn begin(&mut self) {
        self.results.clear();
        self.frame_outcomes.clear();
        self.egress.clear();
    }

    fn emit(&mut self) {
        for (idx, r) in self.results.iter().enumerate() {
            if matches!(r.verdict, Verdict::Forward(_)) {
                self.egress.push(idx as u32);
            }
        }
    }
}

/// A device's forwarding graph: the reusable burst lanes plus the packet
/// storage of the sealed-frame entry.
#[derive(Debug)]
pub struct ForwardingGraph {
    lanes: BurstLanes,
    parsed: Vec<Packet>,
}

impl ForwardingGraph {
    /// The graph: exec → emit.
    pub fn standard() -> ForwardingGraph {
        ForwardingGraph {
            lanes: BurstLanes::default(),
            parsed: Vec::new(),
        }
    }

    /// The lanes of the most recent burst.
    pub fn lanes(&self) -> &BurstLanes {
        &self.lanes
    }

    /// Carries a burst of parsed packets through the device, returning the
    /// filled lanes.
    pub fn run(
        &mut self,
        dev: &mut Device,
        pkts: &mut [Packet],
        now: SimTime,
    ) -> Result<&BurstLanes> {
        self.lanes.begin();
        dev.process_burst(pkts, now, &mut self.lanes.results)?;
        self.lanes.emit();
        Ok(&self.lanes)
    }

    /// The wire entry: admission ([`Device::process_sealed_burst`] —
    /// checksum, parse, and exec with exact per-offender billing) takes
    /// exec's place. Per-frame outcomes land in
    /// [`BurstLanes::frame_outcomes`]; [`BurstLanes::results`] and
    /// [`BurstLanes::egress`] are index-aligned with the *admitted*
    /// packets.
    pub fn run_sealed(
        &mut self,
        dev: &mut Device,
        frames: &[Vec<u8>],
        first_id: u64,
        now: SimTime,
    ) -> Result<&BurstLanes> {
        let ForwardingGraph { lanes, parsed } = self;
        lanes.begin();
        dev.process_sealed_burst(frames, first_id, now, parsed, &mut lanes.frame_outcomes)?;
        lanes
            .results
            .extend(lanes.frame_outcomes.iter().filter_map(|o| match o {
                FrameOutcome::Processed(r) => Some(r.clone()),
                _ => None,
            }));
        lanes.emit();
        Ok(&self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::device::tests::bundle;
    use crate::state::StateEncoding;
    use crate::wire::{encode_wire, flip_bits, seal_frame};
    use flexnet_types::NodeId;

    /// Forwards everything except `ipv4.src == 3`, which drops.
    fn filter_dev() -> Device {
        let mut d = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        d.install(bundle(
            "program filter kind any {
               handler ingress(pkt) {
                 if (ipv4.src == 3) { drop(); }
                 forward(1);
               }
             }",
        ))
        .unwrap();
        d
    }

    fn burst(n: u64) -> Vec<Packet> {
        (0..n).map(|i| Packet::tcp(i, i as u32, 0, 1, 80, 0)).collect()
    }

    #[test]
    fn standard_graph_emits_forwards_in_arrival_order() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::standard();
        let mut pkts = burst(8);
        let lanes = g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        assert_eq!(lanes.results.len(), 8);
        assert_eq!(lanes.results[3].verdict, Verdict::Drop);
        // Dropped packet 3 is excluded; everyone else emits in order.
        assert_eq!(lanes.egress, vec![0, 1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn run_sealed_bills_the_poison_frame_and_emits_survivors_in_arrival_order() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::standard();
        let mut frames: Vec<Vec<u8>> = burst(8)
            .iter()
            .map(|p| seal_frame(&encode_wire(p)))
            .collect();
        flip_bits(&mut frames[5], 0xFEED, 2);
        let lanes = g.run_sealed(&mut dev, &frames, 0, SimTime::ZERO).unwrap();
        assert_eq!(lanes.frame_outcomes.len(), 8);
        assert_eq!(lanes.frame_outcomes[5], FrameOutcome::ChecksumDrop);
        assert_eq!(lanes.results.len(), 7, "results align with admitted packets");
        // Admitted index 3 (src 3) drops; the frame after the poison one is
        // admitted index 5.
        assert_eq!(lanes.results[3].verdict, Verdict::Drop);
        assert_eq!(lanes.egress, vec![0, 1, 2, 4, 5, 6]);
        assert_eq!(dev.stats().checksum_drops, 1);
        assert_eq!(dev.stats().processed, 7);
    }

    #[test]
    fn lanes_retain_capacity_across_bursts() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::standard();
        let mut pkts = burst(64);
        g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        let cap_before = g.lanes().results.capacity();
        for _ in 0..5 {
            let mut pkts = burst(64);
            g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        }
        assert_eq!(g.lanes().results.capacity(), cap_before);
        assert_eq!(g.lanes().results.len(), 64);
    }
}
