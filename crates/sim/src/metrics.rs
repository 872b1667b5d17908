//! Measurement: per-packet accounting, latency percentiles, loss
//! timeseries, and disruption-window detection.

use flexnet_types::telemetry::{Histogram, Series};
use flexnet_types::{NodeId, Packet, ProgramVersion, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Why a packet left the simulation without being delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LossKind {
    /// Dropped by a program verdict (policy drop).
    PolicyDrop,
    /// Refused by a drained device (compile-time reflash window).
    Refused,
    /// Tail-dropped at a full link queue.
    QueueDrop,
    /// Tail-dropped at an overloaded device.
    DeviceOverload,
    /// Exceeded the hop limit (routing loop guard).
    HopLimit,
    /// No route to the destination.
    NoRoute,
    /// Arrived at a crashed device (fault injection).
    DeviceDown,
    /// Forwarded onto a link that is down (fault injection).
    LinkDown,
}

/// One time bucket of the delivery timeseries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Packets delivered in this bucket.
    pub delivered: u64,
    /// Packets lost (all causes) in this bucket.
    pub lost: u64,
    /// Packets refused by drained devices in this bucket.
    pub refused: u64,
}

/// Delivery/loss/latency statistics over a half-open time window
/// (see [`Metrics::window_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Packets delivered within the window.
    pub delivered: u64,
    /// Packets lost (all causes) within the window.
    pub lost: u64,
    /// p99 latency over deliveries in the window, `None` if none.
    pub p99: Option<SimDuration>,
}

impl WindowStats {
    /// Delivery attempts observed in the window.
    pub fn attempts(&self) -> u64 {
        self.delivered + self.lost
    }

    /// Loss fraction of attempts, in parts per million. Integer so guard
    /// thresholds and [`flexnet_types`] errors stay `Eq`-comparable.
    /// 0 for an empty window — no evidence is not evidence of loss.
    pub fn loss_ppm(&self) -> u64 {
        (self.lost * 1_000_000)
            .checked_div(self.attempts())
            .unwrap_or(0)
    }
}

/// Baseline-vs-observation deltas (see [`Metrics::window_delta`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowDelta {
    /// Observed loss ppm minus baseline loss ppm (positive = worse).
    pub loss_delta_ppm: i64,
    /// Observed p99 minus baseline p99 in ns (positive = slower); 0 when
    /// either window had no deliveries.
    pub p99_delta_ns: i64,
}

/// The width of a slot: a delivery or loss is counted in the millisecond
/// of simulated time it happened in.
const SLOT_NS: u64 = 1_000_000;
/// The width of a [`Metrics::timeseries`] bucket, in slots.
const SLOTS_PER_BUCKET: u64 = 10;

/// The losses one millisecond of simulated time saw. Its deliveries are
/// `Metrics::latency`'s histogram at the same index.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `at / SLOT_NS` of every event counted here.
    ms: u64,
    /// Losses (all causes), and the refusals among them.
    lost: u64,
    refused: u64,
}

/// Collected simulation metrics.
///
/// Deliveries and losses are counted in one slot per millisecond of
/// simulated time that saw one, with a log-linear histogram of the
/// deliveries' latencies ([`Histogram`]); no per-packet sample is kept, so
/// memory grows with the simulated milliseconds, not with the packets.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Packets injected.
    pub sent: u64,
    /// Packets delivered to their destination.
    pub delivered: u64,
    /// Losses by cause.
    pub losses: BTreeMap<LossKind, u64>,
    /// Packets punted to the controller.
    pub punted: u64,
    /// One slot per millisecond that saw an event, in time order. Events
    /// arrive almost in time order, so the last slot is where nearly every
    /// one is counted.
    slots: Vec<Slot>,
    /// The deliveries' latencies in ns, one histogram per slot.
    latency: Series,
    /// The latencies of every slot but the last, merged: with the last
    /// slot's, the whole run's.
    closed: Histogram,
    /// How many packets were processed by each (node, program version).
    pub version_counts: BTreeMap<(NodeId, ProgramVersion), u64>,
    /// First and last instants at which a refusal was observed.
    refusal_window: Option<(SimTime, SimTime)>,
    /// Optionally retained delivered packets (consistency analyses).
    pub delivered_packets: Vec<Packet>,
    /// Whether to retain delivered packets.
    pub keep_packets: bool,
}

impl Metrics {
    /// The index of `at`'s slot, opened if no event fell in its millisecond
    /// before. A slot opened after the last one closes the last: its
    /// latencies join `closed`.
    #[inline]
    fn slot(&mut self, at: SimTime) -> usize {
        let ms = at.as_nanos() / SLOT_NS;
        let n = self.slots.len();
        match self.slots.last() {
            Some(last) if last.ms == ms => n - 1,
            Some(last) if last.ms > ms => {
                let i = self.slots.partition_point(|s| s.ms < ms);
                if self.slots[i].ms != ms {
                    self.slots.insert(
                        i,
                        Slot {
                            ms,
                            ..Slot::default()
                        },
                    );
                    self.latency.insert(i);
                }
                i
            }
            _ => {
                self.latency
                    .merge_into(n.saturating_sub(1)..n, &mut self.closed);
                self.slots.push(Slot {
                    ms,
                    ..Slot::default()
                });
                self.latency.insert(n);
                n
            }
        }
    }

    /// Records an injection.
    pub fn record_sent(&mut self) {
        self.sent += 1;
    }

    /// Records a delivery with its end-to-end latency. The packet's flight
    /// is over: it is kept whole when `keep_packets`, dropped otherwise.
    pub fn record_delivered(&mut self, pkt: Packet, at: SimTime) {
        self.delivered += 1;
        let latency = at.saturating_since(pkt.ingress_time).as_nanos();
        let i = self.slot(at);
        self.latency.record(i, latency);
        if i + 1 < self.slots.len() {
            self.closed.record(latency);
        }
        for (node, version) in &pkt.trace {
            *self.version_counts.entry((*node, *version)).or_insert(0) += 1;
        }
        if self.keep_packets {
            self.delivered_packets.push(pkt);
        }
    }

    /// Records a loss.
    pub fn record_lost(&mut self, kind: LossKind, at: SimTime) {
        *self.losses.entry(kind).or_insert(0) += 1;
        let i = self.slot(at);
        let slot = &mut self.slots[i];
        slot.lost += 1;
        if kind == LossKind::Refused {
            slot.refused += 1;
            self.refusal_window = Some(match self.refusal_window {
                None => (at, at),
                Some((first, last)) => (first.min(at), last.max(at)),
            });
        }
    }

    /// Records a punt to the controller.
    pub fn record_punted(&mut self) {
        self.punted += 1;
    }

    /// Total losses across causes.
    pub fn total_lost(&self) -> u64 {
        self.losses.values().sum()
    }

    /// The latencies of every delivered packet, in ns, in one histogram.
    pub fn latencies(&self) -> Histogram {
        let mut all = self.closed.clone();
        let n = self.slots.len();
        self.latency.merge_into(n.saturating_sub(1)..n, &mut all);
        all
    }

    /// A latency percentile (p in [0, 100]) over delivered packets: the
    /// histogram's answer, never below the exact one and less than 1/128
    /// above it (see [`Histogram::percentile`]).
    pub fn latency_percentile(&self, p: f64) -> Option<SimDuration> {
        self.latencies().percentile(p).map(SimDuration::from_nanos)
    }

    /// Mean delivery latency (exact: the sum over the count).
    pub fn latency_mean(&self) -> Option<SimDuration> {
        self.latencies().mean().map(SimDuration::from_nanos)
    }

    /// Delivery, loss, and latency statistics over the half-open window
    /// `[from, to)`, merged from the 1 ms slots it overlaps: exact when
    /// both edges fall on whole milliseconds, otherwise widened to the
    /// milliseconds that enclose it. The p99 is the histogram's (see
    /// [`Histogram::percentile`]). An empty window (`from >= to`) is empty.
    pub fn window_stats(&self, from: SimTime, to: SimTime) -> WindowStats {
        if from >= to {
            return WindowStats::default();
        }
        let (first, end) = (from.as_nanos() / SLOT_NS, to.as_nanos().div_ceil(SLOT_NS));
        let lo = self.slots.partition_point(|s| s.ms < first);
        let hi = self.slots.partition_point(|s| s.ms < end);
        let mut latency = Histogram::default();
        self.latency.merge_into(lo..hi, &mut latency);
        WindowStats {
            delivered: latency.count(),
            lost: self.slots[lo..hi].iter().map(|s| s.lost).sum(),
            p99: latency.percentile(99.0).map(SimDuration::from_nanos),
        }
    }

    /// The change between a baseline window and an observation window:
    /// loss-rate delta in parts per million and p99 latency delta in
    /// nanoseconds (both signed; positive means the observation window is
    /// worse). When either window delivered nothing the p99 delta is 0 —
    /// an empty window proves nothing about latency.
    pub fn window_delta(
        &self,
        baseline: (SimTime, SimTime),
        observed: (SimTime, SimTime),
    ) -> WindowDelta {
        let base = self.window_stats(baseline.0, baseline.1);
        let obs = self.window_stats(observed.0, observed.1);
        let p99_delta_ns = match (base.p99, obs.p99) {
            (Some(b), Some(o)) => o.as_nanos() as i64 - b.as_nanos() as i64,
            _ => 0,
        };
        WindowDelta {
            loss_delta_ppm: obs.loss_ppm() as i64 - base.loss_ppm() as i64,
            p99_delta_ns,
        }
    }

    /// The observed service-disruption window: the span between the first
    /// and last refusal, if any (the compile-time baseline's downtime as
    /// actually experienced by traffic).
    pub fn disruption_window(&self) -> Option<SimDuration> {
        self.refusal_window
            .map(|(first, last)| last.saturating_since(first))
    }

    /// The delivery timeseries as `(bucket start, bucket)` pairs, one per
    /// 10 ms of simulated time that saw an event.
    pub fn timeseries(&self) -> Vec<(SimTime, Bucket)> {
        let mut series: Vec<(SimTime, Bucket)> = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let start = SimTime::from_nanos((slot.ms - slot.ms % SLOTS_PER_BUCKET) * SLOT_NS);
            if series.last().is_none_or(|(at, _)| *at != start) {
                series.push((start, Bucket::default()));
            }
            let (_, b) = series.last_mut().expect("pushed above");
            b.delivered += self.latency.count(i);
            b.lost += slot.lost;
            b.refused += slot.refused;
        }
        series
    }

    /// Distinct program versions observed at `node` among processed packets.
    pub fn versions_seen(&self, node: NodeId) -> Vec<ProgramVersion> {
        self.version_counts
            .range((node, ProgramVersion(0))..=(node, ProgramVersion(u64::MAX)))
            .map(|((_, v), _)| *v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt_at(id: u64, ingress: SimTime) -> Packet {
        let mut p = Packet::udp(id, 1, 2, 3, 4);
        p.ingress_time = ingress;
        p
    }

    #[test]
    fn counts_by_outcome() {
        let mut m = Metrics::default();
        for _ in 0..10 {
            m.record_sent();
        }
        for i in 0..7u64 {
            m.record_delivered(pkt_at(i, SimTime::ZERO), SimTime::from_micros(5));
        }
        m.record_lost(LossKind::PolicyDrop, SimTime::from_micros(1));
        m.record_lost(LossKind::Refused, SimTime::from_micros(2));
        m.record_lost(LossKind::QueueDrop, SimTime::from_micros(3));
        assert_eq!(m.delivered, 7);
        assert_eq!(m.total_lost(), 3);
    }

    #[test]
    fn percentiles_ordered() {
        let mut m = Metrics::default();
        for i in 1..=100u64 {
            m.record_delivered(pkt_at(i, SimTime::ZERO), SimTime::from_micros(i));
        }
        let p50 = m.latency_percentile(50.0).unwrap();
        let p99 = m.latency_percentile(99.0).unwrap();
        assert!(p50 < p99);
        assert_eq!(
            m.latency_percentile(100.0).unwrap(),
            SimDuration::from_micros(100)
        );
        assert!(m.latency_mean().unwrap() >= SimDuration::from_micros(50));
    }

    #[test]
    fn percentiles_are_the_histograms_through_every_entry() {
        // Ties and a spread through the public entry points; the exact
        // differential is the histogram's own (`flexnet_types::telemetry`).
        let samples: Vec<u64> = (0..1000u64).map(|i| 31_000 + (i * 7919) % 1_013).collect();
        let mut h = Histogram::default();
        let mut m = Metrics::default();
        for (i, &ns) in samples.iter().enumerate() {
            h.record(ns);
            let sent = SimTime::from_micros(i as u64);
            m.record_delivered(pkt_at(i as u64, sent), sent + SimDuration::from_nanos(ns));
        }
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let want = h.percentile(p).map(SimDuration::from_nanos);
            assert_eq!(m.latency_percentile(p), want);
        }
        assert_eq!(m.latencies(), h);
        assert_eq!(
            m.window_stats(SimTime::ZERO, SimTime::MAX).p99,
            h.percentile(99.0).map(SimDuration::from_nanos)
        );
        let sum: u64 = samples.iter().sum();
        assert_eq!(m.latency_mean(), Some(SimDuration::from_nanos(sum / 1000)));
    }

    #[test]
    fn a_window_off_the_millisecond_widens_to_the_slots_it_overlaps() {
        let mut m = Metrics::default();
        m.record_delivered(pkt_at(1, SimTime::ZERO), SimTime::from_micros(1_100));
        m.record_delivered(pkt_at(2, SimTime::ZERO), SimTime::from_micros(1_900));
        m.record_delivered(pkt_at(3, SimTime::ZERO), SimTime::from_micros(2_100));
        let w = m.window_stats(SimTime::from_micros(1_500), SimTime::from_micros(1_600));
        assert_eq!(w.delivered, 2, "[1.5, 1.6) ms reads the whole of slot 1 ms");
        let w = m.window_stats(SimTime::from_micros(1_500), SimTime::from_micros(1_500));
        assert_eq!(w, WindowStats::default(), "an empty window stays empty");
    }

    #[test]
    fn events_out_of_time_order_land_in_their_own_slots() {
        let mut m = Metrics::default();
        for at in [5, 3, 7, 3, 1, 7] {
            m.record_delivered(pkt_at(at, SimTime::ZERO), SimTime::from_millis(at));
        }
        m.record_lost(LossKind::Refused, SimTime::from_millis(2));
        assert_eq!(
            m.window_stats(SimTime::from_millis(3), SimTime::from_millis(4))
                .delivered,
            2
        );
        assert_eq!(
            m.window_stats(SimTime::ZERO, SimTime::from_millis(3)).lost,
            1
        );
        let all = m.latencies();
        assert_eq!(
            (all.count(), all.min(), all.max()),
            (6, Some(1_000_000), Some(7_000_000))
        );
        let ts = m.timeseries();
        assert_eq!(ts.len(), 1);
        assert_eq!(
            ts[0].1,
            Bucket {
                delivered: 6,
                lost: 1,
                refused: 1
            }
        );
    }

    #[test]
    fn empty_percentile_is_none() {
        let m = Metrics::default();
        assert!(m.latency_percentile(50.0).is_none());
        assert!(m.latency_mean().is_none());
        assert!(m.disruption_window().is_none());
    }

    #[test]
    fn disruption_window_spans_refusals() {
        let mut m = Metrics::default();
        m.record_lost(LossKind::Refused, SimTime::from_millis(100));
        m.record_lost(LossKind::Refused, SimTime::from_millis(350));
        m.record_lost(LossKind::PolicyDrop, SimTime::from_millis(900));
        assert_eq!(m.disruption_window(), Some(SimDuration::from_millis(250)));
    }

    #[test]
    fn timeseries_buckets() {
        let mut m = Metrics::default();
        m.record_delivered(pkt_at(1, SimTime::ZERO), SimTime::from_millis(5));
        m.record_delivered(pkt_at(2, SimTime::ZERO), SimTime::from_millis(15));
        m.record_lost(LossKind::QueueDrop, SimTime::from_millis(15));
        let ts = m.timeseries();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].1.delivered, 1);
        assert_eq!(ts[1].1.delivered, 1);
        assert_eq!(ts[1].1.lost, 1);
    }

    #[test]
    fn empty_window_is_neutral() {
        let mut m = Metrics::default();
        m.record_delivered(pkt_at(1, SimTime::ZERO), SimTime::from_millis(5));
        m.record_lost(LossKind::PolicyDrop, SimTime::from_millis(5));
        // A window covering no events at all.
        let w = m.window_stats(SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(w.delivered, 0);
        assert_eq!(w.lost, 0);
        assert_eq!(w.attempts(), 0);
        assert_eq!(w.loss_ppm(), 0, "no evidence is not evidence of loss");
        assert!(w.p99.is_none());
        // A delta against an empty observation window must not claim a
        // latency regression.
        let d = m.window_delta(
            (SimTime::ZERO, SimTime::from_millis(10)),
            (SimTime::from_secs(1), SimTime::from_secs(2)),
        );
        assert_eq!(d.p99_delta_ns, 0);
        assert_eq!(
            d.loss_delta_ppm, -500_000,
            "baseline lost half its attempts"
        );
    }

    #[test]
    fn single_bucket_window_edges_are_half_open() {
        // All events inside one timeseries bucket (width 10ms): window
        // math must still be exact, and [from, to) must include `from`
        // but exclude `to`.
        let mut m = Metrics::default();
        m.record_delivered(pkt_at(1, SimTime::ZERO), SimTime::from_millis(2));
        m.record_delivered(pkt_at(2, SimTime::ZERO), SimTime::from_millis(4));
        m.record_lost(LossKind::PolicyDrop, SimTime::from_millis(4));
        let w = m.window_stats(SimTime::from_millis(2), SimTime::from_millis(4));
        assert_eq!(w.delivered, 1, "2ms included, 4ms excluded");
        assert_eq!(w.lost, 0, "loss at the exclusive edge not counted");
        assert_eq!(w.p99, Some(SimDuration::from_millis(2)));
        let all = m.window_stats(SimTime::from_millis(2), SimTime::from_millis(5));
        assert_eq!(all.delivered, 2);
        assert_eq!(all.lost, 1);
        assert_eq!(all.loss_ppm(), 333_333);
    }

    #[test]
    fn window_delta_flags_regressions() {
        let mut m = Metrics::default();
        // Baseline [0, 10ms): fast, lossless.
        for i in 0..10u64 {
            m.record_delivered(
                pkt_at(i, SimTime::from_millis(i)),
                SimTime::from_millis(i) + SimDuration::from_micros(100),
            );
        }
        // Observation [100ms, 110ms): slower and lossy.
        for i in 0..8u64 {
            m.record_delivered(
                pkt_at(100 + i, SimTime::from_millis(100 + i)),
                SimTime::from_millis(100 + i) + SimDuration::from_micros(300),
            );
        }
        m.record_lost(LossKind::PolicyDrop, SimTime::from_millis(105));
        m.record_lost(LossKind::PolicyDrop, SimTime::from_millis(106));
        let d = m.window_delta(
            (SimTime::ZERO, SimTime::from_millis(10)),
            (SimTime::from_millis(100), SimTime::from_millis(110)),
        );
        assert_eq!(d.loss_delta_ppm, 200_000, "2 of 10 attempts lost");
        assert_eq!(d.p99_delta_ns, 200_000, "p99 rose 200µs");
    }

    #[test]
    fn version_tracking() {
        let mut m = Metrics::default();
        let mut p = pkt_at(1, SimTime::ZERO);
        p.record_processing(NodeId(3), ProgramVersion(1));
        m.record_delivered(p, SimTime::from_micros(1));
        let mut p2 = pkt_at(2, SimTime::ZERO);
        p2.record_processing(NodeId(3), ProgramVersion(2));
        m.record_delivered(p2, SimTime::from_micros(2));
        let vs = m.versions_seen(NodeId(3));
        assert_eq!(vs.len(), 2);
        assert!(m.versions_seen(NodeId(9)).is_empty());
    }

    #[test]
    fn keep_packets_retains_deliveries() {
        let mut m = Metrics {
            keep_packets: true,
            ..Metrics::default()
        };
        m.record_delivered(pkt_at(1, SimTime::ZERO), SimTime::from_micros(1));
        assert_eq!(m.delivered_packets.len(), 1);
    }
}
