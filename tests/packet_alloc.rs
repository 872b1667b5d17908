//! Allocation budget for the packet representation.
//!
//! A packet is a `Vec` of headers, each one flat allocation of
//! `(Sym, u64)` pairs, plus one for metadata: building or cloning a TCP
//! packet with its `dst_node` is five allocations (it was 27 and 24 when
//! every name was a `String` in a `BTreeMap`), and reading or storing an
//! existing field — by id or by name — allocates nothing.
//!
//! This file holds exactly one test (see `common/counting_alloc.rs`).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count;
use flexnet_types::{NodeId, Packet, ProgramVersion, Sym};

#[test]
fn packet_build_clone_and_field_access_stay_within_budget() {
    let (built, mut pkt) = count(|| {
        let mut p = Packet::tcp(1, 0x0a00_0001, 0x0a00_0002, 1234, 80, 0x10);
        p.metadata.insert(Sym::DST_NODE, 7);
        p
    });
    assert!(
        built <= 6,
        "Packet::tcp + dst_node made {built} allocations"
    );

    let (cloned, copy) = count(|| pkt.clone());
    assert!(cloned <= 6, "clone made {cloned} allocations");
    assert_eq!(copy, pkt);

    let (accessed, ()) = count(|| {
        assert_eq!(pkt.get_field("ipv4.ttl"), Some(64));
        assert!(pkt.set_field("ipv4.ttl", 63));
        assert_eq!(pkt.get_field_sym(Sym::IPV4, Sym::TTL), Some(63));
        assert!(pkt.set_field_sym(Sym::META, Sym::DST_NODE, 8));
        assert_eq!(pkt.get_field("meta.dst_node"), Some(8));
        assert_eq!(pkt.get_field("ipv4.never_interned_field"), None);
        assert!(!pkt.has_header("never_interned_proto"));
    });
    assert_eq!(accessed, 0, "field access on existing fields allocated");

    pkt.trace.reserve(4);
    let (recorded, ()) = count(|| pkt.record_processing(NodeId(3), ProgramVersion(1)));
    assert_eq!(recorded, 0, "record_processing within capacity allocated");
}
