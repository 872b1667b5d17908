//! The forwarding graph: the device hot path over reusable burst lanes.
//!
//! A [`ForwardingGraph`] carries bursts of 64–256 packets through the
//! device over per-burst lanes ([`BurstLanes`]) that keep their capacity —
//! no per-packet allocation, no per-packet call chain. [`ForwardingGraph::run`]
//! is the device's one burst entry: it runs the device's one packet loop
//! over the burst, every packet through the same per-packet body a single
//! [`crate::device::Device::process`] call runs (gas, traps, quarantine
//! billed to the exact packet), with the preamble and engine resolution
//! paid once per run.

use crate::device::{Device, ProcessResult};
use flexnet_types::{Packet, Result, SimTime};

/// Reusable per-burst lanes.
///
/// Index-aligned with the burst's packets; the vector retains its capacity
/// across bursts, so a steady-state burst allocates nothing.
#[derive(Debug, Default)]
pub struct BurstLanes {
    /// One result per packet of the burst.
    pub results: Vec<ProcessResult>,
}

/// A device's forwarding graph: the reusable burst lanes.
#[derive(Debug)]
pub struct ForwardingGraph {
    lanes: BurstLanes,
}

impl ForwardingGraph {
    /// The graph, with empty lanes.
    pub fn standard() -> ForwardingGraph {
        ForwardingGraph {
            lanes: BurstLanes::default(),
        }
    }

    /// Carries a burst of parsed packets through the device, returning the
    /// filled lanes.
    pub fn run(
        &mut self,
        dev: &mut Device,
        pkts: &mut [Packet],
        now: SimTime,
    ) -> Result<&BurstLanes> {
        dev.process_burst(pkts, now, &mut self.lanes.results)?;
        Ok(&self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::device::tests::bundle;
    use crate::state::StateEncoding;
    use flexnet_types::{NodeId, Verdict};

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
        (0..n)
            .map(|i| Packet::tcp(i, i as u32, 0, 1, 80, 0))
            .collect()
    }

    #[test]
    fn a_burst_yields_one_result_per_packet_in_arrival_order() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::standard();
        let mut pkts = burst(8);
        let lanes = g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        let verdicts: Vec<Verdict> = lanes.results.iter().map(|r| r.verdict).collect();
        let mut want = vec![Verdict::Forward(1); 8];
        want[3] = Verdict::Drop;
        assert_eq!(verdicts, want);
    }

    #[test]
    fn lanes_retain_capacity_across_bursts() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::standard();
        let mut pkts = burst(64);
        let cap_before = g
            .run(&mut dev, &mut pkts, SimTime::ZERO)
            .unwrap()
            .results
            .capacity();
        for _ in 0..5 {
            let mut pkts = burst(64);
            let lanes = g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
            assert_eq!(lanes.results.capacity(), cap_before);
            assert_eq!(lanes.results.len(), 64);
        }
    }
}
