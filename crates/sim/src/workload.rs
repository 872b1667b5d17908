//! Workload generators.
//!
//! Substitutes for the production traffic the paper's scenarios assume:
//! constant-bit-rate and Poisson flows for steady load, on-off flows for
//! workload shifts (E4's CC study), SYN floods for the real-time security
//! use case (E3), and a tenant churn trace for E5. All generators are
//! seeded and fully deterministic.

use flexnet_types::{NodeId, Packet, SimDuration, SimTime, Sym};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The arrival process of a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Constant bit rate: exactly `pps` packets/second, evenly spaced.
    Cbr {
        /// Packets per second.
        pps: u64,
    },
    /// Poisson arrivals with the given mean rate.
    Poisson {
        /// Mean packets per second.
        mean_pps: u64,
    },
    /// On-off: `Cbr(pps)` during on periods, silent during off periods.
    OnOff {
        /// Packets per second while on.
        pps: u64,
        /// On-period length.
        on: SimDuration,
        /// Off-period length.
        off: SimDuration,
    },
}

/// A flow specification.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Source topology node.
    pub src_node: NodeId,
    /// Destination topology node.
    pub dst_node: NodeId,
    /// IPv4 source address.
    pub src_ip: u32,
    /// IPv4 destination address.
    pub dst_ip: u32,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub proto: u8,
    /// Arrival process.
    pub pattern: Pattern,
    /// First packet at or after this instant.
    pub start: SimTime,
    /// No packets at or after `start + duration`.
    pub duration: SimDuration,
    /// Payload bytes per packet.
    pub payload: u32,
}

impl FlowSpec {
    /// A UDP CBR flow between two hosts.
    pub fn udp_cbr(
        src_node: NodeId,
        dst_node: NodeId,
        pps: u64,
        start: SimTime,
        duration: SimDuration,
    ) -> FlowSpec {
        FlowSpec {
            src_node,
            dst_node,
            src_ip: 0x0a00_0000 | src_node.raw(),
            dst_ip: 0x0a00_0000 | dst_node.raw(),
            src_port: 10_000 + src_node.raw() as u16,
            dst_port: 80,
            proto: 17,
            pattern: Pattern::Cbr { pps },
            start,
            duration,
            payload: 1000,
        }
    }
}

/// One generated packet departure.
#[derive(Debug, Clone)]
pub struct Departure {
    /// Injection time.
    pub at: SimTime,
    /// The node injecting the packet.
    pub node: NodeId,
    /// The packet.
    pub packet: Packet,
}

/// Expands flow specs into a time-sorted packet schedule.
pub fn generate(flows: &[FlowSpec], seed: u64) -> Vec<Departure> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut next_id = 1u64;
    for f in flows {
        let end = f.start + f.duration;
        let mut t = f.start;
        loop {
            let (emit, step) = match f.pattern {
                Pattern::Cbr { pps } => {
                    if pps == 0 {
                        break;
                    }
                    (true, SimDuration::from_nanos(1_000_000_000 / pps.max(1)))
                }
                Pattern::Poisson { mean_pps } => {
                    if mean_pps == 0 {
                        break;
                    }
                    let mean_gap_ns = 1_000_000_000f64 / mean_pps as f64;
                    let u: f64 = rng.gen_range(1e-12..1.0);
                    let gap = (-u.ln() * mean_gap_ns).max(1.0) as u64;
                    (true, SimDuration::from_nanos(gap))
                }
                Pattern::OnOff { pps, on, off } => {
                    if pps == 0 {
                        break;
                    }
                    let cycle = (on + off).as_nanos().max(1);
                    let phase = t.saturating_since(f.start).as_nanos() % cycle;
                    if phase < on.as_nanos() {
                        (true, SimDuration::from_nanos(1_000_000_000 / pps.max(1)))
                    } else {
                        // Skip to the next on-period.
                        let to_next_on = cycle - phase;
                        (false, SimDuration::from_nanos(to_next_on))
                    }
                }
            };
            if t >= end {
                break;
            }
            if emit {
                let mut pkt = build_packet(next_id, f);
                pkt.ingress_time = t;
                next_id += 1;
                out.push(Departure {
                    at: t,
                    node: f.src_node,
                    packet: pkt,
                });
            }
            t += step;
        }
    }
    out.sort_by_key(|d| (d.at, d.packet.id));
    out
}

fn build_packet(id: u64, f: &FlowSpec) -> Packet {
    let mut pkt = if f.proto == 6 {
        Packet::tcp(id, f.src_ip, f.dst_ip, f.src_port, f.dst_port, 0x10)
    } else {
        Packet::udp(id, f.src_ip, f.dst_ip, f.src_port, f.dst_port)
    };
    pkt.payload_len = f.payload;
    pkt.metadata.insert(Sym::DST_NODE, f.dst_node.raw() as u64);
    pkt
}

/// Generates a SYN flood: `pps` TCP SYNs/second from random spoofed sources
/// toward `victim_ip`, injected at `attack_node`.
pub fn syn_flood(
    attack_node: NodeId,
    victim_node: NodeId,
    victim_ip: u32,
    pps: u64,
    start: SimTime,
    duration: SimDuration,
    seed: u64,
) -> Vec<Departure> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    if pps == 0 {
        return out;
    }
    let gap = SimDuration::from_nanos(1_000_000_000 / pps.max(1));
    let mut t = start;
    let end = start + duration;
    let mut id = 1_000_000_000u64;
    let attack = Sym::intern("attack");
    while t < end {
        let spoofed: u32 = rng.gen();
        let mut pkt = Packet::tcp(id, spoofed, victim_ip, rng.gen(), 80, 0x02);
        pkt.payload_len = 40;
        pkt.ingress_time = t;
        pkt.metadata.insert(Sym::DST_NODE, victim_node.raw() as u64);
        pkt.metadata.insert(attack, 1);
        out.push(Departure {
            at: t,
            node: attack_node,
            packet: pkt,
        });
        id += 1;
        t += gap;
    }
    out
}

/// One tenant lifecycle event in a churn trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A tenant arrives and wants its extension installed.
    Arrive(u32),
    /// A tenant departs and its extension must be reclaimed.
    Depart(u32),
}

/// Generates a Poisson tenant churn trace: arrivals at `arrival_rate_hz`,
/// each tenant staying for an exponential time with mean `mean_lifetime`.
pub fn tenant_churn(
    arrival_rate_hz: f64,
    mean_lifetime: SimDuration,
    duration: SimDuration,
    seed: u64,
) -> Vec<(SimTime, ChurnEvent)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let mut t_ns = 0f64;
    let end_ns = duration.as_nanos() as f64;
    let mut tenant = 1u32;
    if arrival_rate_hz <= 0.0 {
        return events;
    }
    loop {
        let u: f64 = rng.gen_range(1e-12..1.0);
        t_ns += -u.ln() / arrival_rate_hz * 1e9;
        if t_ns >= end_ns {
            break;
        }
        let arrive = SimTime::from_nanos(t_ns as u64);
        events.push((arrive, ChurnEvent::Arrive(tenant)));
        let v: f64 = rng.gen_range(1e-12..1.0);
        let life_ns = -v.ln() * mean_lifetime.as_nanos() as f64;
        let depart_ns = t_ns + life_ns;
        if depart_ns < end_ns {
            events.push((
                SimTime::from_nanos(depart_ns as u64),
                ChurnEvent::Depart(tenant),
            ));
        }
        tenant += 1;
    }
    events.sort_by_key(|(t, e)| (*t, matches!(e, ChurnEvent::Depart(_)) as u8));
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_spacing_is_exact() {
        let f = FlowSpec::udp_cbr(
            NodeId(1),
            NodeId(2),
            1000, // 1 pkt/ms
            SimTime::ZERO,
            SimDuration::from_millis(10),
        );
        let deps = generate(&[f], 42);
        assert_eq!(deps.len(), 10);
        assert_eq!(deps[1].at.saturating_since(deps[0].at), SimDuration::from_millis(1));
        assert!(deps.iter().all(|d| d.packet.has_header("udp")));
        assert_eq!(deps[0].packet.metadata["dst_node"], 2);
    }

    #[test]
    fn poisson_mean_rate_approximates() {
        let f = FlowSpec {
            pattern: Pattern::Poisson { mean_pps: 10_000 },
            ..FlowSpec::udp_cbr(
                NodeId(1),
                NodeId(2),
                0,
                SimTime::ZERO,
                SimDuration::from_secs(1),
            )
        };
        let deps = generate(&[f], 7);
        // 10k expected; allow generous tolerance.
        assert!((8_000..12_000).contains(&deps.len()), "{}", deps.len());
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let f = |s| {
            let spec = FlowSpec {
                pattern: Pattern::Poisson { mean_pps: 1000 },
                ..FlowSpec::udp_cbr(
                    NodeId(1),
                    NodeId(2),
                    0,
                    SimTime::ZERO,
                    SimDuration::from_millis(100),
                )
            };
            generate(&[spec], s).len()
        };
        assert_eq!(f(1), f(1));
    }

    #[test]
    fn onoff_is_silent_during_off() {
        let f = FlowSpec {
            pattern: Pattern::OnOff {
                pps: 1000,
                on: SimDuration::from_millis(10),
                off: SimDuration::from_millis(10),
            },
            ..FlowSpec::udp_cbr(
                NodeId(1),
                NodeId(2),
                0,
                SimTime::ZERO,
                SimDuration::from_millis(40),
            )
        };
        let deps = generate(&[f], 42);
        // Two on-periods of 10 packets each.
        assert_eq!(deps.len(), 20);
        assert!(deps.iter().all(|d| {
            let phase = d.at.as_nanos() % 20_000_000;
            phase < 10_000_000
        }));
    }

    #[test]
    fn syn_flood_marks_attack_traffic() {
        let deps = syn_flood(
            NodeId(1),
            NodeId(2),
            0x0a000002,
            10_000,
            SimTime::from_millis(100),
            SimDuration::from_millis(10),
            3,
        );
        assert_eq!(deps.len(), 100);
        for d in &deps {
            assert_eq!(d.packet.get_field("tcp.flags"), Some(0x02), "SYN set");
            assert_eq!(d.packet.metadata.get("attack"), Some(&1));
            assert!(d.at >= SimTime::from_millis(100));
        }
        // Spoofed sources vary.
        let srcs: std::collections::BTreeSet<_> = deps
            .iter()
            .map(|d| d.packet.get_field("ipv4.src").unwrap())
            .collect();
        assert!(srcs.len() > 50);
    }

    #[test]
    fn churn_trace_arrivals_precede_departures() {
        let events = tenant_churn(
            5.0,
            SimDuration::from_secs(2),
            SimDuration::from_secs(10),
            11,
        );
        assert!(!events.is_empty());
        use std::collections::BTreeSet;
        let mut alive = BTreeSet::new();
        for (_, e) in &events {
            match e {
                ChurnEvent::Arrive(t) => {
                    assert!(alive.insert(*t), "tenant {t} arrived twice");
                }
                ChurnEvent::Depart(t) => {
                    assert!(alive.remove(t), "tenant {t} departed before arriving");
                }
            }
        }
    }

    #[test]
    fn zero_rate_flows_generate_nothing() {
        let f = FlowSpec::udp_cbr(
            NodeId(1),
            NodeId(2),
            0,
            SimTime::ZERO,
            SimDuration::from_secs(1),
        );
        assert!(generate(&[f], 1).is_empty());
        assert!(syn_flood(
            NodeId(1),
            NodeId(2),
            1,
            0,
            SimTime::ZERO,
            SimDuration::from_secs(1),
            1
        )
        .is_empty());
    }
}
