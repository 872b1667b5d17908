//! Allocation budget for the packet representation.
//!
//! A packet's headers are one buffer — each header an interned layout word
//! followed by its values — and its metadata one exactly-sized list of
//! `(Sym, u64)` pairs: building or cloning a TCP packet with its
//! `dst_node` is two allocations of 144 + 16 bytes. (It was five of 400
//! bytes while each header was its own list of `(Sym, u64)` pairs inside a
//! `Vec` of headers, and 27 and 24 allocations when every name was a
//! `String` in a `BTreeMap`.) Reading or storing an existing field — by id
//! or by name — allocates nothing.
//!
//! This file holds exactly one test (see `common/counting_alloc.rs`).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{count, count_bytes};
use flexnet_types::{NodeId, Packet, ProgramVersion, Sym};

#[test]
fn packet_build_clone_and_field_access_stay_within_budget() {
    let (built, built_bytes, mut pkt) = count_bytes(|| {
        let mut p = Packet::tcp(1, 0x0a00_0001, 0x0a00_0002, 1234, 80, 0x10);
        p.metadata.insert(Sym::DST_NODE, 7);
        p
    });
    assert!(
        built <= 2 && built_bytes <= 176,
        "Packet::tcp + dst_node made {built} allocations of {built_bytes} bytes"
    );

    let (cloned, cloned_bytes, copy) = count_bytes(|| pkt.clone());
    assert!(
        cloned <= 2 && cloned_bytes <= 176,
        "clone made {cloned} allocations of {cloned_bytes} bytes"
    );
    assert_eq!(copy, pkt);
    println!(
        "Packet::tcp + dst_node: {built} allocations, {built_bytes} B; clone: {cloned}, {cloned_bytes} B"
    );

    let (accessed, ()) = count(|| {
        assert_eq!(pkt.get_field("ipv4.ttl"), Some(64));
        assert!(pkt.set_field_sym(Sym::IPV4, Sym::TTL, 63));
        assert_eq!(pkt.get_field_sym(Sym::IPV4, Sym::TTL), Some(63));
        assert!(pkt.set_field_sym(Sym::META, Sym::DST_NODE, 8));
        assert_eq!(pkt.get_field("meta.dst_node"), Some(8));
        assert_eq!(pkt.get_field("ipv4.never_interned_field"), None);
        assert_eq!(pkt.get_field("never_interned_proto.src"), None);
    });
    assert_eq!(accessed, 0, "field access on existing fields allocated");

    pkt.trace.reserve(4);
    let (recorded, ()) = count(|| pkt.record_processing(NodeId(3), ProgramVersion(1)));
    assert_eq!(recorded, 0, "record_processing within capacity allocated");
}
