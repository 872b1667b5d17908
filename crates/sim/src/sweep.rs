//! The burst sweep driver: pumps a fixed packet ring through a device in
//! bursts, with every buffer reused across iterations.
//!
//! This is the zero-allocation half of the burst dataplane: the device
//! amortizes VM frames and dispatch across each burst
//! ([`flexnet_dataplane::Device::process_burst`]); this driver makes the
//! *driving* side allocation-free too. Steady state (after the first
//! pump), one [`BurstDriver::pump`] performs **no heap allocations**: the
//! packet ring is mutated in place (traces cleared, not reallocated), the
//! result vector and per-burst [`LogBuffer`] records reuse their
//! capacity, and the device's own VM scratch persists. The
//! `tests/burst_alloc.rs` counting-allocator test pins this.

use crate::engine::LogBuffer;
use flexnet_dataplane::Device;
use flexnet_dataplane::ProcessResult;
use flexnet_types::{Packet, Result, SimTime, Verdict};

/// Verdict/efficiency totals accumulated over one pump (or one burst).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTotals {
    /// Packets driven.
    pub packets: u64,
    /// VM ops executed.
    pub ops: u64,
    /// `Forward` verdicts.
    pub forwarded: u64,
    /// `Drop` verdicts (including trapped fail-closed drops).
    pub dropped: u64,
    /// `ToController` verdicts.
    pub punted: u64,
    /// Packets the device refused (drained).
    pub refused: u64,
    /// Packets that trapped.
    pub trapped: u64,
}

impl SweepTotals {
    fn absorb(&mut self, r: &ProcessResult) {
        self.packets += 1;
        self.ops += r.ops;
        if r.refused {
            self.refused += 1;
        }
        match r.verdict {
            Verdict::Forward(_) => self.forwarded += 1,
            Verdict::Drop => self.dropped += 1,
            Verdict::ToController => self.punted += 1,
            Verdict::Recirculate => {}
        }
        if r.trap.is_some() {
            self.trapped += 1;
        }
    }

    fn merge(&mut self, o: &SweepTotals) {
        self.packets += o.packets;
        self.ops += o.ops;
        self.forwarded += o.forwarded;
        self.dropped += o.dropped;
        self.punted += o.punted;
        self.refused += o.refused;
        self.trapped += o.trapped;
    }
}

/// Pumps a packet ring through a device in fixed-size bursts.
///
/// The ring is traversed cyclically in contiguous chunks of up to `burst`
/// packets (a chunk never wraps, so the device always sees one contiguous
/// slice); packet traces are cleared before each visit so the ring's
/// memory footprint stays flat forever.
#[derive(Debug)]
pub struct BurstDriver {
    ring: Vec<Packet>,
    results: Vec<ProcessResult>,
    log: LogBuffer<SweepTotals>,
    burst: usize,
    cursor: usize,
}

impl BurstDriver {
    /// A driver over `ring` (non-empty) issuing bursts of `burst` (≥ 1)
    /// packets.
    pub fn new(ring: Vec<Packet>, burst: usize) -> BurstDriver {
        assert!(!ring.is_empty(), "burst driver needs a non-empty ring");
        BurstDriver {
            ring,
            results: Vec::new(),
            log: LogBuffer::default(),
            burst: burst.max(1),
            cursor: 0,
        }
    }

    /// Per-burst totals of the most recent pump.
    pub fn log(&self) -> &LogBuffer<SweepTotals> {
        &self.log
    }

    /// Drives `packets` packets through `dev` at time `now`, returning the
    /// pump's totals. Allocation-free in steady state.
    pub fn pump(&mut self, dev: &mut Device, packets: u64, now: SimTime) -> Result<SweepTotals> {
        self.log.clear();
        let mut totals = SweepTotals::default();
        let mut remaining = packets;
        while remaining > 0 {
            let at_end = self.ring.len() - self.cursor;
            let chunk = self.burst.min(at_end).min(remaining as usize);
            let slice = &mut self.ring[self.cursor..self.cursor + chunk];
            for pkt in slice.iter_mut() {
                // `record_processing` appends to the trace; clearing keeps
                // the reused ring's memory flat instead of ever-growing.
                pkt.trace.clear();
            }
            dev.process_burst(slice, now, &mut self.results)?;
            let mut burst_totals = SweepTotals::default();
            for r in &self.results {
                burst_totals.absorb(r);
            }
            totals.merge(&burst_totals);
            self.log.push(burst_totals);
            self.cursor += chunk;
            if self.cursor == self.ring.len() {
                self.cursor = 0;
            }
            remaining -= chunk as u64;
        }
        Ok(totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::{Architecture, Device, StateEncoding};
    use flexnet_types::NodeId;

    fn ring(n: u64) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet::tcp(i, (i % 97) as u32, 5, 1, 80, 0))
            .collect()
    }

    #[test]
    fn pump_visits_exactly_the_requested_packet_count() {
        let mut dev = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        let mut drv = BurstDriver::new(ring(100), 64);
        let t = drv.pump(&mut dev, 1000, SimTime::ZERO).unwrap();
        assert_eq!(t.packets, 1000);
        assert_eq!(t.forwarded, 1000, "no program ⇒ transparent forward");
        assert_eq!(dev.stats().processed, 1000);
        // Chunks never wrap: 100-ring at burst 64 → chunks of 64, 36, ….
        assert!(drv.log().len() >= 1000 / 64);
        let logged: u64 = drv.log().iter().map(|b| b.packets).sum();
        assert_eq!(logged, 1000, "per-burst log covers every packet");
    }

    #[test]
    fn traces_stay_flat_across_pumps() {
        let mut dev = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        let mut drv = BurstDriver::new(ring(8), 4);
        for _ in 0..10 {
            drv.pump(&mut dev, 8, SimTime::ZERO).unwrap();
        }
        for pkt in &drv.ring {
            assert!(
                pkt.trace.len() <= 1,
                "trace must be cleared each visit, not accumulate"
            );
        }
    }
}
