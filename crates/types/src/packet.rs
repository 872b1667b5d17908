//! Packets, header stacks, and flow keys.
//!
//! FlexNet programs are protocol-independent (FlexBPF parsers can add and
//! remove header types at runtime, paper §2), so a packet carries a generic
//! *header stack*: an ordered list of headers, each a protocol name and
//! its `(field, value)` pairs in field-name order. Which fields a header
//! has is its interned layout (`crate::layout`), resolved once per process,
//! so the stack is one buffer of values: each header is a layout word
//! followed by its values, the packet header vector of a
//! protocol-independent pipeline. Names are interned [`Sym`]s, so the
//! packet path compares 4-byte ids; the string-keyed accessors
//! (`get_field("ipv4.src")`, `header("tcp")`, …) are a thin lookup veneer
//! over the `*_sym` forms for tests, tools and control code. Well-known
//! protocols get convenience constructors, but a tenant extension is free
//! to invent `myproto.flags` and a runtime parser update will start
//! extracting it — without recompiling this crate.

use crate::id::{NodeId, ProgramVersion};
use crate::layout::Layout;
use crate::sym::{Fields, Sym};
use crate::time::SimTime;
use bytes::Bytes;
use std::fmt;

/// One header, owned: built to be pushed onto a packet's stack, or taken
/// off one. A header *in* a packet is read through a [`HeaderRef`].
#[derive(Clone, PartialEq, Eq)]
pub struct Header {
    /// The header in stack form: its layout word, then its values.
    words: Vec<u64>,
}

impl Header {
    /// Creates a header with the given protocol name and fields (a later
    /// duplicate name overwrites an earlier one, as in a map).
    pub fn new<K: Into<Sym>>(
        proto: impl Into<Sym>,
        fields: impl IntoIterator<Item = (K, u64)>,
    ) -> Header {
        let fields: Fields = fields.into_iter().map(|(k, v)| (k.into(), v)).collect();
        let names: Vec<Sym> = fields.iter().map(|(k, _)| k).collect();
        let layout = Layout::of(proto.into(), &names);
        Header {
            words: std::iter::once(layout.word())
                .chain(fields.iter().map(|(_, v)| v))
                .collect(),
        }
    }

    /// A well-known header: one exact allocation, no interner access.
    fn well_known(layout: Layout, values: &[u64]) -> Header {
        Header {
            words: stack_of(&[(layout, values)]),
        }
    }

    /// Standard Ethernet header.
    pub fn ethernet(src: u64, dst: u64, ethertype: u64) -> Header {
        Header::well_known(Layout::ETH, &ethernet(src, dst, ethertype))
    }

    /// 802.1Q VLAN tag.
    pub fn vlan(vid: u64) -> Header {
        Header::well_known(Layout::VLAN, &[0, vid])
    }

    /// IPv4 header (addresses as u32-in-u64, `proto` is the IP protocol
    /// number: 6 = TCP, 17 = UDP).
    pub fn ipv4(src: u32, dst: u32, proto: u8) -> Header {
        Header::well_known(Layout::IPV4, &ipv4(src, dst, proto))
    }

    /// TCP header. `flags` uses the usual bit layout (0x02 = SYN, 0x10 = ACK,
    /// 0x01 = FIN, 0x04 = RST).
    pub fn tcp(sport: u16, dport: u16, flags: u8) -> Header {
        Header::well_known(Layout::TCP, &tcp(sport, dport, flags))
    }

    /// UDP header.
    pub fn udp(sport: u16, dport: u16) -> Header {
        Header::well_known(Layout::UDP, &udp(sport, dport))
    }

    /// Reads the header.
    pub fn view(&self) -> HeaderRef<'_> {
        HeaderRef::at(&self.words, 0)
    }

    /// Writes a field, creating it if the header lacks it.
    pub fn set_sym(&mut self, field: Sym, value: u64) {
        store(&mut self.words, 0, field, value);
    }
}

impl fmt::Debug for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// Headers in stack form, in one exact allocation.
fn stack_of(headers: &[(Layout, &[u64])]) -> Vec<u64> {
    let mut words = Vec::with_capacity(headers.iter().map(|(_, v)| 1 + v.len()).sum());
    for (layout, values) in headers {
        words.push(layout.word());
        words.extend_from_slice(values);
    }
    words
}

// The values of the well-known headers, in their layouts' (name) order.

fn ethernet(src: u64, dst: u64, ethertype: u64) -> [u64; 3] {
    [dst, ethertype, src]
}

fn ipv4(src: u32, dst: u32, proto: u8) -> [u64; 6] {
    // dscp, dst, ecn, proto, src, ttl
    [0, dst.into(), 0, proto.into(), src.into(), 64]
}

fn tcp(sport: u16, dport: u16, flags: u8) -> [u64; 6] {
    // ack, dport, flags, seq, sport, window
    [0, dport.into(), flags.into(), 0, sport.into(), 65_535]
}

fn udp(sport: u16, dport: u16) -> [u64; 2] {
    [dport.into(), sport.into()]
}

/// One header of a packet's stack, borrowed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HeaderRef<'a> {
    layout: Layout,
    values: &'a [u64],
}

impl<'a> HeaderRef<'a> {
    /// The header whose layout word is `words[at]`.
    #[inline]
    fn at(words: &'a [u64], at: usize) -> HeaderRef<'a> {
        let layout = Layout::from_word(words[at]);
        HeaderRef {
            layout,
            values: &words[at + 1..at + 1 + layout.len()],
        }
    }

    /// Protocol name, e.g. `ipv4`, `tcp`, or a tenant-defined name.
    #[inline]
    pub fn proto(self) -> Sym {
        self.layout.proto()
    }

    /// Reads a field value; `None` if the field is absent.
    #[inline]
    pub fn get_sym(self, field: Sym) -> Option<u64> {
        let i = self.layout.index(field)?;
        Some(self.values[i])
    }

    /// [`HeaderRef::get_sym`] by name; `None` for a name never interned.
    pub fn get(self, field: &str) -> Option<u64> {
        self.get_sym(Sym::lookup(field)?)
    }

    /// The fields in name order. Field widths are declared in FlexBPF
    /// header declarations; the packet representation stores raw values.
    pub fn fields(self) -> impl Iterator<Item = (Sym, u64)> + 'a {
        let names = self.layout.fields();
        names.iter().copied().zip(self.values.iter().copied())
    }

    /// Nominal encoded size: the fixed size of a built-in protocol, four
    /// bytes per field (at least one) for any other.
    #[inline]
    pub fn wire_len(self) -> u32 {
        self.layout.wire_len()
    }
}

impl fmt::Debug for HeaderRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct FieldMap<'a>(HeaderRef<'a>);
        impl fmt::Debug for FieldMap<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.fields()).finish()
            }
        }
        f.debug_struct("Header")
            .field("proto", &self.proto())
            .field("fields", &FieldMap(*self))
            .finish()
    }
}

/// Writes `field` of the header whose layout word is `words[at]`, creating
/// the field if the header lacks it.
#[inline]
fn store(words: &mut Vec<u64>, at: usize, field: Sym, value: u64) {
    let layout = Layout::from_word(words[at]);
    match layout.index(field) {
        Some(i) => words[at + 1 + i] = value,
        None => add_field(words, at, layout, field, value),
    }
}

/// Re-lays the header at `at` out with one more field. Out of line: the
/// packet path only ever overwrites fields a header has.
#[cold]
#[inline(never)]
fn add_field(words: &mut Vec<u64>, at: usize, layout: Layout, field: Sym, value: u64) {
    let (layout, i) = layout.with(field);
    words[at] = layout.word();
    words.insert(at + 1 + i, value);
}

/// Headers split off the bottom of a packet's stack by
/// [`Packet::split_off_headers`], to be put back by
/// [`Packet::rejoin_headers`].
#[derive(Default)]
pub struct HeaderTail {
    /// Where the first of them stood in the stack, counted in headers.
    index: usize,
    /// The headers in stack form.
    words: Vec<u64>,
}

impl HeaderTail {
    /// Whether no header was split off.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// How many headers were split off.
    pub fn len(&self) -> usize {
        spans(&self.words).count()
    }

    /// Their nominal encoded size, as [`Packet::wire_len`] counts it.
    pub fn wire_len(&self) -> u32 {
        spans(&self.words)
            .map(|(_, layout)| layout.wire_len())
            .sum()
    }
}

/// Each header of a stack: the offset of its layout word, and its layout.
#[inline]
fn spans(words: &[u64]) -> impl Iterator<Item = (usize, Layout)> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let layout = Layout::from_word(*words.get(at)?);
        let here = at;
        at += 1 + layout.len();
        Some((here, layout))
    })
}

/// The final disposition of a packet after data-plane processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique packet id (assigned by the workload generator).
    pub id: u64,
    /// The parsed header stack, outermost first: each header is its layout
    /// word followed by its values. Read through [`Packet::headers`] and
    /// the field accessors. Layouts are interned, so two stacks are equal
    /// exactly when their headers are.
    stack: Vec<u64>,
    /// Payload length in bytes (wire size accounting includes headers via
    /// [`Packet::wire_len`]).
    pub payload_len: u32,
    /// Optional payload contents (most experiments only need lengths).
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
        let mut stack = Vec::with_capacity(headers.iter().map(|h| h.words.len()).sum());
        for h in &headers {
            stack.extend_from_slice(&h.words);
        }
        Packet::with_stack(id, stack, payload_len)
    }

    fn with_stack(id: u64, stack: Vec<u64>, payload_len: u32) -> Packet {
        Packet {
            id,
            stack,
            payload_len,
            payload: Bytes::new(),
            metadata: Fields::new(),
            ingress_time: SimTime::ZERO,
            trace: Vec::new(),
        }
    }

    /// Convenience: a TCP packet with the given 5-tuple and flags.
    pub fn tcp(id: u64, src: u32, dst: u32, sport: u16, dport: u16, flags: u8) -> Packet {
        let stack = stack_of(&[
            (Layout::ETH, &ethernet(1, 2, 0x0800)),
            (Layout::IPV4, &ipv4(src, dst, 6)),
            (Layout::TCP, &tcp(sport, dport, flags)),
        ]);
        Packet::with_stack(id, stack, 1000)
    }

    /// Convenience: a UDP packet with the given 5-tuple.
    pub fn udp(id: u64, src: u32, dst: u32, sport: u16, dport: u16) -> Packet {
        let stack = stack_of(&[
            (Layout::ETH, &ethernet(1, 2, 0x0800)),
            (Layout::IPV4, &ipv4(src, dst, 17)),
            (Layout::UDP, &udp(sport, dport)),
        ]);
        Packet::with_stack(id, stack, 512)
    }

    /// Total wire length: headers are charged their nominal encoded size
    /// ([`HeaderRef::wire_len`]) plus the payload.
    #[inline]
    pub fn wire_len(&self) -> u32 {
        let hdr: u32 = spans(&self.stack)
            .map(|(_, layout)| layout.wire_len())
            .sum();
        hdr + self.payload_len
    }

    /// The header stack, outermost first.
    pub fn headers(&self) -> impl Iterator<Item = HeaderRef<'_>> + '_ {
        spans(&self.stack).map(|(at, _)| HeaderRef::at(&self.stack, at))
    }

    /// The offset and layout of the first header of the given protocol: a
    /// walk over layout words that reads nothing else.
    #[inline]
    fn find(&self, proto: Sym) -> Option<(usize, Layout)> {
        spans(&self.stack).find(|(_, layout)| layout.proto() == proto)
    }

    /// Where the `index`-th header starts, or the end of the stack.
    fn offset_of(&self, index: usize) -> usize {
        spans(&self.stack)
            .nth(index)
            .map_or(self.stack.len(), |(at, _)| at)
    }

    /// Finds the first header of the given protocol.
    #[inline]
    pub fn header_sym(&self, proto: Sym) -> Option<HeaderRef<'_>> {
        let (at, _) = self.find(proto)?;
        Some(HeaderRef::at(&self.stack, at))
    }

    /// Whether the stack contains a header of the given protocol.
    #[inline]
    pub fn has_header_sym(&self, proto: Sym) -> bool {
        self.find(proto).is_some()
    }

    /// Reads `proto.field` (the pseudo-protocol `meta` reads packet
    /// metadata).
    #[inline]
    pub fn get_field_sym(&self, proto: Sym, field: Sym) -> Option<u64> {
        if proto == Sym::META {
            return self.metadata.get_sym(field);
        }
        let (at, layout) = self.find(proto)?;
        let i = layout.index(field)?;
        Some(self.stack[at + 1 + i])
    }

    /// Writes `proto.field`, creating the field if the header lacks it;
    /// returns `false` when the header does not exist (metadata writes
    /// always succeed).
    #[inline]
    pub fn set_field_sym(&mut self, proto: Sym, field: Sym, value: u64) -> bool {
        if proto == Sym::META {
            self.metadata.insert(field, value);
            return true;
        }
        let Some((at, _)) = self.find(proto) else {
            return false;
        };
        store(&mut self.stack, at, field, value);
        true
    }

    /// Pushes a header after the outermost header of `after`
    /// (or at the top of the stack when `after` is `None` or absent).
    pub fn insert_header_sym(&mut self, header: Header, after: Option<Sym>) {
        let at = after
            .and_then(|p| self.find(p))
            .map_or(0, |(at, layout)| at + 1 + layout.len());
        self.stack.splice(at..at, header.words);
    }

    /// Removes the first header of the given protocol; returns it if present.
    pub fn remove_header_sym(&mut self, proto: Sym) -> Option<Header> {
        let (at, layout) = self.find(proto)?;
        let words = self.stack.drain(at..at + 1 + layout.len()).collect();
        Some(Header { words })
    }

    /// Pushes a header at the bottom of the stack.
    pub fn push_header(&mut self, header: Header) {
        self.stack.extend_from_slice(&header.words);
    }

    /// Splits the headers from the `index`-th on off the stack (none when
    /// the stack is shorter).
    pub fn split_off_headers(&mut self, index: usize) -> HeaderTail {
        let at = self.offset_of(index);
        HeaderTail {
            index,
            words: self.stack.split_off(at),
        }
    }

    /// Puts split-off headers back, in order, where they stood — or at the
    /// bottom, if the stack has since become shorter than that.
    #[inline]
    pub fn rejoin_headers(&mut self, tail: HeaderTail) {
        if tail.is_empty() {
            return;
        }
        let at = self.offset_of(tail.index);
        self.stack.splice(at..at, tail.words);
    }

    /// Reads a field by dotted path, e.g. `"ipv4.src"` or `"meta.mark"`
    /// (the pseudo-protocol `meta` reads packet metadata). Names resolve
    /// with `Sym::lookup`: a name that was never interned cannot be in any
    /// packet, and the read interns nothing.
    pub fn get_field(&self, path: &str) -> Option<u64> {
        let (proto, field) = path.split_once('.')?;
        self.get_field_sym(Sym::lookup(proto)?, Sym::lookup(field)?)
    }

    /// Records that `node` processed this packet under `version`.
    pub fn record_processing(&mut self, node: NodeId, version: ProgramVersion) {
        self.trace.push((node, version));
    }
}

impl fmt::Debug for Packet {
    /// The derived form of the stack as a list of headers, so the text
    /// names every protocol and field and never shows a layout word.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Headers<'a>(&'a Packet);
        impl fmt::Debug for Headers<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.headers()).finish()
            }
        }
        f.debug_struct("Packet")
            .field("id", &self.id)
            .field("headers", &Headers(self))
            .field("payload_len", &self.payload_len)
            .field("payload", &self.payload)
            .field("metadata", &self.metadata)
            .field("ingress_time", &self.ingress_time)
            .field("trace", &self.trace)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_constructor_builds_full_stack() {
        let p = Packet::tcp(1, 0x0a000001, 0x0a000002, 1234, 80, 0x02);
        for proto in [Sym::ETH, Sym::IPV4, Sym::TCP] {
            assert!(p.header_sym(proto).is_some(), "{proto:?}");
        }
        assert_eq!(p.get_field("tcp.dport"), Some(80));
        assert_eq!(p.get_field("ipv4.proto"), Some(6));
    }

    #[test]
    fn field_paths_read_and_write() {
        let mut p = Packet::tcp(1, 1, 2, 3, 4, 0);
        assert!(p.set_field_sym(Sym::IPV4, Sym::TTL, 10));
        assert_eq!(p.get_field("ipv4.ttl"), Some(10));
        let ipv6 = Sym::intern("ipv6");
        assert!(
            !p.set_field_sym(ipv6, Sym::SRC, 1),
            "missing header rejected"
        );
        let mark = Sym::intern("mark");
        assert!(
            p.set_field_sym(Sym::META, mark, 7),
            "metadata always writable"
        );
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
        let names: Vec<&str> = h.view().fields().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["pkt_test_a", "pkt_test_m", "pkt_test_z"]);
        assert_eq!(h.view().get("pkt_test_m"), Some(4), "later duplicate wins");
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
            let names: Vec<&str> = h.view().fields().map(|(n, _)| n.as_str()).collect();
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
        p.insert_header_sym(Header::vlan(42), Some(Sym::ETH));
        assert_eq!(p.headers().nth(1).unwrap().proto(), "vlan");
        assert_eq!(p.get_field("vlan.vid"), Some(42));
        let v = p.remove_header_sym(Sym::VLAN).unwrap();
        assert_eq!(v, Header::vlan(42));
        assert!(p.header_sym(Sym::VLAN).is_none());
        assert!(p.remove_header_sym(Sym::VLAN).is_none());
    }

    #[test]
    fn insert_header_top_of_stack() {
        let mut p = Packet::new(1, vec![Header::ipv4(1, 2, 6)], 10);
        p.insert_header_sym(Header::ethernet(9, 9, 0x0800), None);
        assert_eq!(p.headers().next().unwrap().proto(), "eth");
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
        p.insert_header_sym(Header::new("custom", [("a", 1), ("b", 2)]), None);
        assert_eq!(p.wire_len(), 8);
    }

    #[test]
    fn processing_trace_records_versions() {
        let mut p = Packet::udp(1, 1, 2, 3, 4);
        p.record_processing(NodeId(7), ProgramVersion(2));
        assert_eq!(p.trace, vec![(NodeId(7), ProgramVersion(2))]);
    }
}
