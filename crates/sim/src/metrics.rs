//! Measurement: per-packet accounting, latency percentiles, loss
//! timeseries, and disruption-window detection.

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
        (self.lost * 1_000_000).checked_div(self.attempts()).unwrap_or(0)
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

/// The `p`-th percentile of `samples` — the value a full sort would leave
/// at rank `round(p% × (len − 1))` — found by selection, which reorders
/// `samples` but does not sort them.
fn percentile_of(samples: &mut [u64], p: f64) -> Option<SimDuration> {
    let last = samples.len().checked_sub(1)?;
    let rank = ((p / 100.0) * last as f64).round() as usize;
    let (_, value, _) = samples.select_nth_unstable(rank.min(last));
    Some(SimDuration::from_nanos(*value))
}

/// Collected simulation metrics.
#[derive(Debug)]
pub struct Metrics {
    /// Packets injected.
    pub sent: u64,
    /// Packets delivered to their destination.
    pub delivered: u64,
    /// Losses by cause.
    pub losses: BTreeMap<LossKind, u64>,
    /// Packets punted to the controller.
    pub punted: u64,
    /// End-to-end latencies of delivered packets as `(delivery time,
    /// latency ns)` — timestamped so rollout guards can compute
    /// percentiles over a soak window, not just the whole run.
    latencies_ns: Vec<(SimTime, u64)>,
    /// Timestamps of every loss (all causes), for windowed loss rates.
    lost_at: Vec<(SimTime, LossKind)>,
    /// Delivery/loss timeseries.
    buckets: BTreeMap<u64, Bucket>,
    bucket_width: SimDuration,
    /// How many packets were processed by each (node, program version).
    pub version_counts: BTreeMap<(NodeId, ProgramVersion), u64>,
    /// First and last instants at which a refusal was observed.
    refusal_window: Option<(SimTime, SimTime)>,
    /// Optionally retained delivered packets (consistency analyses).
    pub delivered_packets: Vec<Packet>,
    /// Whether to retain delivered packets.
    pub keep_packets: bool,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new(SimDuration::from_millis(10))
    }
}

impl Metrics {
    /// A collector with the given timeseries bucket width.
    pub fn new(bucket_width: SimDuration) -> Metrics {
        Metrics {
            sent: 0,
            delivered: 0,
            losses: BTreeMap::new(),
            punted: 0,
            latencies_ns: Vec::new(),
            lost_at: Vec::new(),
            buckets: BTreeMap::new(),
            bucket_width,
            version_counts: BTreeMap::new(),
            refusal_window: None,
            delivered_packets: Vec::new(),
            keep_packets: false,
        }
    }

    fn bucket(&mut self, at: SimTime) -> &mut Bucket {
        let idx = at.as_nanos() / self.bucket_width.as_nanos().max(1);
        self.buckets.entry(idx).or_default()
    }

    /// Records an injection.
    pub fn record_sent(&mut self) {
        self.sent += 1;
    }

    /// Records a delivery with its end-to-end latency. The packet's flight
    /// is over: it is kept whole when `keep_packets`, dropped otherwise.
    pub fn record_delivered(&mut self, pkt: Packet, at: SimTime) {
        self.delivered += 1;
        let latency = at.saturating_since(pkt.ingress_time);
        self.latencies_ns.push((at, latency.as_nanos()));
        self.bucket(at).delivered += 1;
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
        self.lost_at.push((at, kind));
        let b = self.bucket(at);
        b.lost += 1;
        if kind == LossKind::Refused {
            b.refused += 1;
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

    /// A latency percentile (p in [0, 100]) over delivered packets.
    pub fn latency_percentile(&self, p: f64) -> Option<SimDuration> {
        let mut v: Vec<u64> = self.latencies_ns.iter().map(|&(_, l)| l).collect();
        percentile_of(&mut v, p)
    }

    /// Mean delivery latency.
    pub fn latency_mean(&self) -> Option<SimDuration> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let sum: u128 = self.latencies_ns.iter().map(|&(_, l)| l as u128).sum();
        Some(SimDuration::from_nanos(
            (sum / self.latencies_ns.len() as u128) as u64,
        ))
    }

    /// Delivery, loss, and latency statistics over the half-open window
    /// `[from, to)`. Exact — computed from per-event timestamps, not the
    /// coarser timeseries buckets — so SLO guards can compare a soak
    /// window against a pre-rollout baseline without bucket-edge noise.
    pub fn window_stats(&self, from: SimTime, to: SimTime) -> WindowStats {
        let mut lat: Vec<u64> = self
            .latencies_ns
            .iter()
            .filter(|(at, _)| *at >= from && *at < to)
            .map(|&(_, l)| l)
            .collect();
        let delivered = lat.len() as u64;
        let lost = self
            .lost_at
            .iter()
            .filter(|(at, _)| *at >= from && *at < to)
            .count() as u64;
        WindowStats {
            delivered,
            lost,
            p99: percentile_of(&mut lat, 99.0),
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

    /// The delivery timeseries as `(bucket start, bucket)` pairs.
    pub fn timeseries(&self) -> Vec<(SimTime, Bucket)> {
        self.buckets
            .iter()
            .map(|(idx, b)| {
                (
                    SimTime::from_nanos(idx * self.bucket_width.as_nanos()),
                    *b,
                )
            })
            .collect()
    }

    /// Distinct program versions observed at `node` among processed packets.
    pub fn versions_seen(&self, node: NodeId) -> Vec<ProgramVersion> {
        self.version_counts
            .keys()
            .filter(|(n, _)| *n == node)
            .map(|(_, v)| *v)
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
        assert_eq!(m.latency_percentile(100.0).unwrap(), SimDuration::from_micros(100));
        assert!(m.latency_mean().unwrap() >= SimDuration::from_micros(50));
    }

    #[test]
    fn percentile_by_selection_equals_sort_based_answer() {
        fn by_sorting(samples: &[u64], p: f64) -> Option<SimDuration> {
            let mut sorted = samples.to_vec();
            sorted.sort_unstable();
            let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
            sorted
                .get(rank.min(sorted.len().saturating_sub(1)))
                .map(|v| SimDuration::from_nanos(*v))
        }
        // Seeded vectors of several lengths; `% 7` forces heavy ties.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut vectors: Vec<Vec<u64>> = vec![vec![], vec![42], vec![5; 100]];
        for len in [2usize, 3, 10, 101, 1000] {
            vectors.push((0..len).map(|_| next() % 1_000_000).collect());
            vectors.push((0..len).map(|_| next() % 7).collect());
        }
        for samples in &vectors {
            for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let want = by_sorting(samples, p);
                assert_eq!(
                    percentile_of(&mut samples.clone(), p),
                    want,
                    "p{p} of {} samples",
                    samples.len()
                );
                // And through the public entry points.
                let mut m = Metrics::default();
                for (i, &ns) in samples.iter().enumerate() {
                    let sent = SimTime::from_micros(i as u64);
                    m.record_delivered(pkt_at(i as u64, sent), sent + SimDuration::from_nanos(ns));
                }
                assert_eq!(m.latency_percentile(p), want);
                if p == 99.0 {
                    assert_eq!(m.window_stats(SimTime::ZERO, SimTime::MAX).p99, want);
                }
            }
        }
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
        let mut m = Metrics::new(SimDuration::from_millis(10));
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
        assert_eq!(d.loss_delta_ppm, -500_000, "baseline lost half its attempts");
    }

    #[test]
    fn single_bucket_window_edges_are_half_open() {
        // All events inside one timeseries bucket (width 10ms): window
        // math must still be exact, and [from, to) must include `from`
        // but exclude `to`.
        let mut m = Metrics::new(SimDuration::from_millis(10));
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
            m.record_delivered(pkt_at(i, SimTime::from_millis(i)), SimTime::from_millis(i) + SimDuration::from_micros(100));
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
