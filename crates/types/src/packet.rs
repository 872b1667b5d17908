//! Packets, header stacks, and flow keys.
//!
//! FlexNet programs are protocol-independent (FlexBPF parsers can add and
//! remove header types at runtime, paper §2), so a packet carries a generic
//! *header stack*: an ordered list of named headers, each a flat list of
//! `(field, value)` pairs kept in field-name order. Names are interned
//! [`Sym`]s, so the packet path compares 4-byte ids; the string-keyed
//! accessors (`get_field("ipv4.src")`, `header("tcp")`, …) are a thin
//! lookup veneer over the `*_sym` forms for tests, tools and control code.
//! Well-known protocols get convenience constructors, but a tenant
//! extension is free to invent `myproto.flags` and a runtime parser update
//! will start extracting it — without recompiling this crate.

use crate::id::{NodeId, ProgramVersion};
use crate::sym::{Fields, Sym};
use crate::time::SimTime;
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// One parsed header instance in a packet's header stack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Protocol name, e.g. `ipv4`, `tcp`, or a tenant-defined name.
    pub proto: Sym,
    /// Field name → value. Field widths are declared in FlexBPF header
    /// declarations; the packet representation stores raw values.
    pub fields: Fields,
}

impl Header {
    /// Creates a header with the given protocol name and fields.
    pub fn new(proto: &str, fields: impl IntoIterator<Item = (&'static str, u64)>) -> Header {
        Header {
            proto: Sym::intern(proto),
            fields: fields
                .into_iter()
                .map(|(k, v)| (Sym::intern(k), v))
                .collect(),
        }
    }

    /// A well-known header from constants already in name order: one exact
    /// allocation, no interner access.
    fn well_known<const N: usize>(proto: Sym, fields: [(Sym, u64); N]) -> Header {
        Header {
            proto,
            fields: Fields::from_name_ordered(fields.to_vec()),
        }
    }

    /// Standard Ethernet header.
    pub fn ethernet(src: u64, dst: u64, ethertype: u64) -> Header {
        Header::well_known(
            Sym::ETH,
            [
                (Sym::DST, dst),
                (Sym::ETHERTYPE, ethertype),
                (Sym::SRC, src),
            ],
        )
    }

    /// 802.1Q VLAN tag.
    pub fn vlan(vid: u64) -> Header {
        Header::well_known(Sym::VLAN, [(Sym::PCP, 0), (Sym::VID, vid)])
    }

    /// IPv4 header (addresses as u32-in-u64, `proto` is the IP protocol
    /// number: 6 = TCP, 17 = UDP).
    pub fn ipv4(src: u32, dst: u32, proto: u8) -> Header {
        Header::well_known(
            Sym::IPV4,
            [
                (Sym::DSCP, 0),
                (Sym::DST, dst as u64),
                (Sym::ECN, 0),
                (Sym::PROTO, proto as u64),
                (Sym::SRC, src as u64),
                (Sym::TTL, 64),
            ],
        )
    }

    /// TCP header. `flags` uses the usual bit layout (0x02 = SYN, 0x10 = ACK,
    /// 0x01 = FIN, 0x04 = RST).
    pub fn tcp(sport: u16, dport: u16, flags: u8) -> Header {
        Header::well_known(
            Sym::TCP,
            [
                (Sym::ACK, 0),
                (Sym::DPORT, dport as u64),
                (Sym::FLAGS, flags as u64),
                (Sym::SEQ, 0),
                (Sym::SPORT, sport as u64),
                (Sym::WINDOW, 65_535),
            ],
        )
    }

    /// UDP header.
    pub fn udp(sport: u16, dport: u16) -> Header {
        Header::well_known(
            Sym::UDP,
            [(Sym::DPORT, dport as u64), (Sym::SPORT, sport as u64)],
        )
    }

    /// Nominal encoded size: the fixed size of a built-in protocol, four
    /// bytes per field (at least one) for any other.
    #[inline]
    pub fn wire_len(&self) -> u32 {
        match self.proto {
            Sym::ETH => 14,
            Sym::VLAN => 4,
            Sym::IPV4 => 20,
            Sym::TCP => 20,
            Sym::UDP => 8,
            _ => (4 * self.fields.len().max(1)) as u32,
        }
    }

    /// Reads a field value; `None` if the field is absent.
    #[inline]
    pub fn get_sym(&self, field: Sym) -> Option<u64> {
        self.fields.get_sym(field)
    }

    /// [`Header::get_sym`] by name; `None` for a name never interned.
    pub fn get(&self, field: &str) -> Option<u64> {
        self.fields.get(field).copied()
    }
}

/// The final disposition of a packet after data-plane processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// Forward out of the given egress port.
    Forward(u16),
    /// Silently discard.
    Drop,
    /// Punt to the control plane.
    ToController,
    /// Re-inject into the pipeline for another pass.
    Recirculate,
}

/// A packet traversing the simulated network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique packet id (assigned by the workload generator).
    pub id: u64,
    /// The parsed header stack, outermost first.
    pub headers: Vec<Header>,
    /// Payload length in bytes (wire size accounting includes headers via
    /// [`Packet::wire_len`]).
    pub payload_len: u32,
    /// Optional payload contents (most experiments only need lengths).
    #[serde(skip)]
    pub payload: Bytes,
    /// Per-packet scratch metadata written by programs (like P4 metadata or
    /// eBPF per-packet context).
    pub metadata: Fields,
    /// When the packet entered the network.
    pub ingress_time: SimTime,
    /// Audit trail: which device processed this packet with which program
    /// version. This is how experiment E1 verifies the paper's claim that
    /// during a transition "packets are either processed by the new program
    /// or old one in a consistent manner" (§2).
    pub trace: Vec<(NodeId, ProgramVersion)>,
}

impl Packet {
    /// Creates a packet with the given id and header stack.
    pub fn new(id: u64, headers: Vec<Header>, payload_len: u32) -> Packet {
        Packet {
            id,
            headers,
            payload_len,
            payload: Bytes::new(),
            metadata: Fields::new(),
            ingress_time: SimTime::ZERO,
            trace: Vec::new(),
        }
    }

    /// Convenience: a TCP packet with the given 5-tuple and flags.
    pub fn tcp(id: u64, src: u32, dst: u32, sport: u16, dport: u16, flags: u8) -> Packet {
        Packet::new(
            id,
            vec![
                Header::ethernet(1, 2, 0x0800),
                Header::ipv4(src, dst, 6),
                Header::tcp(sport, dport, flags),
            ],
            1000,
        )
    }

    /// Convenience: a UDP packet with the given 5-tuple.
    pub fn udp(id: u64, src: u32, dst: u32, sport: u16, dport: u16) -> Packet {
        Packet::new(
            id,
            vec![
                Header::ethernet(1, 2, 0x0800),
                Header::ipv4(src, dst, 17),
                Header::udp(sport, dport),
            ],
            512,
        )
    }

    /// Total wire length: headers are charged their nominal encoded size
    /// ([`Header::wire_len`]) plus the payload.
    #[inline]
    pub fn wire_len(&self) -> u32 {
        let hdr: u32 = self.headers.iter().map(Header::wire_len).sum();
        hdr + self.payload_len
    }

    /// Finds the first header of the given protocol.
    #[inline]
    pub fn header_sym(&self, proto: Sym) -> Option<&Header> {
        self.headers.iter().find(|h| h.proto == proto)
    }

    /// Whether the stack contains a header of the given protocol.
    #[inline]
    pub fn has_header_sym(&self, proto: Sym) -> bool {
        self.header_sym(proto).is_some()
    }

    /// Reads `proto.field` (the pseudo-protocol `meta` reads packet
    /// metadata).
    #[inline]
    pub fn get_field_sym(&self, proto: Sym, field: Sym) -> Option<u64> {
        if proto == Sym::META {
            return self.metadata.get_sym(field);
        }
        self.header_sym(proto)?.get_sym(field)
    }

    /// Writes `proto.field`, creating the field if the header lacks it;
    /// returns `false` when the header does not exist (metadata writes
    /// always succeed).
    #[inline]
    pub fn set_field_sym(&mut self, proto: Sym, field: Sym, value: u64) -> bool {
        let fields = if proto == Sym::META {
            &mut self.metadata
        } else {
            match self.headers.iter_mut().find(|h| h.proto == proto) {
                Some(h) => &mut h.fields,
                None => return false,
            }
        };
        fields.insert(field, value);
        true
    }

    /// Pushes a header after the outermost header of `after`
    /// (or at the top of the stack when `after` is `None` or absent).
    pub fn insert_header_sym(&mut self, header: Header, after: Option<Sym>) {
        let at = after
            .and_then(|p| self.headers.iter().position(|h| h.proto == p))
            .map_or(0, |idx| idx + 1);
        self.headers.insert(at, header);
    }

    /// Removes the first header of the given protocol; returns it if present.
    pub fn remove_header_sym(&mut self, proto: Sym) -> Option<Header> {
        let idx = self.headers.iter().position(|h| h.proto == proto)?;
        Some(self.headers.remove(idx))
    }

    // The string-keyed forms below resolve names with `Sym::lookup` — a
    // name that was never interned cannot be in any packet — and intern
    // only where a store creates a field.

    /// Finds the first header with the given protocol name.
    pub fn header(&self, proto: &str) -> Option<&Header> {
        self.header_sym(Sym::lookup(proto)?)
    }

    /// Whether the stack contains a header of the given protocol.
    pub fn has_header(&self, proto: &str) -> bool {
        self.header(proto).is_some()
    }

    /// Reads a field by dotted path, e.g. `"ipv4.src"` or `"meta.mark"`
    /// (the pseudo-protocol `meta` reads packet metadata).
    pub fn get_field(&self, path: &str) -> Option<u64> {
        let (proto, field) = path.split_once('.')?;
        self.get_field_sym(Sym::lookup(proto)?, Sym::lookup(field)?)
    }

    /// Writes a field by dotted path; returns `false` when the header does
    /// not exist (metadata writes always succeed).
    pub fn set_field(&mut self, path: &str, value: u64) -> bool {
        let Some((proto, field)) = path.split_once('.') else {
            return false;
        };
        Sym::lookup(proto).is_some_and(|p| self.set_field_sym(p, Sym::intern(field), value))
    }

    /// Pushes a header after the outermost header of `after_proto`
    /// (or at the top of the stack when `after_proto` is `None`).
    pub fn insert_header(&mut self, header: Header, after_proto: Option<&str>) {
        self.insert_header_sym(header, after_proto.and_then(Sym::lookup));
    }

    /// Removes the first header of the given protocol; returns it if present.
    pub fn remove_header(&mut self, proto: &str) -> Option<Header> {
        self.remove_header_sym(Sym::lookup(proto)?)
    }

    /// Records that `node` processed this packet under `version`.
    pub fn record_processing(&mut self, node: NodeId, version: ProgramVersion) {
        self.trace.push((node, version));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_constructor_builds_full_stack() {
        let p = Packet::tcp(1, 0x0a000001, 0x0a000002, 1234, 80, 0x02);
        assert!(p.has_header("eth"));
        assert!(p.has_header("ipv4"));
        assert!(p.has_header("tcp"));
        assert_eq!(p.get_field("tcp.dport"), Some(80));
        assert_eq!(p.get_field("ipv4.proto"), Some(6));
    }

    #[test]
    fn field_paths_read_and_write() {
        let mut p = Packet::tcp(1, 1, 2, 3, 4, 0);
        assert!(p.set_field("ipv4.ttl", 10));
        assert_eq!(p.get_field("ipv4.ttl"), Some(10));
        assert!(!p.set_field("ipv6.src", 1), "missing header rejected");
        assert!(p.set_field("meta.mark", 7), "metadata always writable");
        assert_eq!(p.get_field("meta.mark"), Some(7));
        assert_eq!(p.get_field("nodots"), None);
    }

    #[test]
    fn fields_iterate_in_name_order_whatever_the_interning_order() {
        // Interned in reverse name order, so ids run against names.
        for name in ["pkt_test_z", "pkt_test_m", "pkt_test_a"] {
            Sym::intern(name);
        }
        let h = Header::new(
            "pkt_test_hdr",
            [
                ("pkt_test_m", 2),
                ("pkt_test_z", 3),
                ("pkt_test_a", 1),
                ("pkt_test_m", 4),
            ],
        );
        let names: Vec<&str> = h.fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["pkt_test_a", "pkt_test_m", "pkt_test_z"]);
        assert_eq!(h.get("pkt_test_m"), Some(4), "later duplicate wins");
        assert_eq!(
            format!("{h:?}"),
            r#"Header { proto: "pkt_test_hdr", fields: {"pkt_test_a": 1, "pkt_test_m": 4, "pkt_test_z": 3} }"#
        );
        for h in [
            Header::ethernet(1, 2, 3),
            Header::vlan(1),
            Header::ipv4(1, 2, 6),
            Header::tcp(1, 2, 0),
            Header::udp(1, 2),
        ] {
            let names: Vec<&str> = h.fields.iter().map(|(n, _)| n.as_str()).collect();
            assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        }
    }

    #[test]
    fn metadata_keeps_its_map_veneer() {
        let mut p = Packet::udp(1, 1, 2, 3, 4);
        assert_eq!(p.metadata.insert("mark".into(), 7), None);
        assert_eq!(p.metadata.insert(Sym::DST_NODE, 3), None);
        assert_eq!(p.metadata.insert("mark".into(), 8), Some(7));
        assert_eq!(p.metadata["mark"], 8);
        assert_eq!(p.metadata.get("dst_node"), Some(&3));
        assert!(!p.metadata.contains_key("pkt_test_never_interned"));
        assert_eq!(p.metadata.len(), 2);
        assert_eq!(format!("{:?}", p.metadata), r#"{"dst_node": 3, "mark": 8}"#);
    }

    #[test]
    fn insert_and_remove_headers() {
        let mut p = Packet::tcp(1, 1, 2, 3, 4, 0);
        p.insert_header(Header::vlan(42), Some("eth"));
        assert_eq!(p.headers[1].proto, "vlan");
        assert_eq!(p.get_field("vlan.vid"), Some(42));
        let v = p.remove_header("vlan").unwrap();
        assert_eq!(v.get("vid"), Some(42));
        assert!(!p.has_header("vlan"));
        assert!(p.remove_header("vlan").is_none());
    }

    #[test]
    fn insert_header_top_of_stack() {
        let mut p = Packet::new(1, vec![Header::ipv4(1, 2, 6)], 10);
        p.insert_header(Header::ethernet(9, 9, 0x0800), None);
        assert_eq!(p.headers[0].proto, "eth");
    }

    #[test]
    fn wire_len_counts_headers_and_payload() {
        let p = Packet::tcp(1, 1, 2, 3, 4, 0);
        // eth(14) + ipv4(20) + tcp(20) + payload(1000)
        assert_eq!(p.wire_len(), 1054);
    }

    #[test]
    fn custom_header_wire_len_scales_with_fields() {
        let mut p = Packet::new(1, vec![], 0);
        p.insert_header(Header::new("custom", [("a", 1), ("b", 2)]), None);
        assert_eq!(p.wire_len(), 8);
    }

    #[test]
    fn processing_trace_records_versions() {
        let mut p = Packet::udp(1, 1, 2, 3, 4);
        p.record_processing(NodeId(7), ProgramVersion(2));
        assert_eq!(p.trace, vec![(NodeId(7), ProgramVersion(2))]);
    }
}
