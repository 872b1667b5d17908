//! A `Sym`'s id depends on interning order and must never be observable.
//!
//! This binary interns a thousand junk names — sorting before, between and
//! after every real name — *before anything else touches the interner*, so
//! every real name gets a different id than in any other test binary. The
//! pinned simulation, a config digest, the wire codec and `Debug` output
//! must still reproduce, byte for byte, what they produced when packets
//! stored `String`s (the constants below were captured on that commit).
//!
//! This file holds exactly one test: a sibling would race it to the
//! interner.

#[path = "common/fabric.rs"]
mod fabric;
#[path = "common/pinned.rs"]
mod pinned;

use flexnet_dataplane::config_digest_of;
use flexnet_dataplane::table::TableEntry;
use flexnet_dataplane::wire::{encode_wire, parse_wire};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::parser::parse_source;
use flexnet_types::{Header, NodeId, Packet, ProgramVersion, Sym};

#[test]
fn outputs_are_identical_when_every_name_gets_a_different_id() {
    for i in 0..1_000u32 {
        let prefix = ["a", "d", "e", "i", "m", "s", "t", "z"][i as usize % 8];
        Sym::intern(&format!("{prefix}{}", (i * 7919) % 1_000));
    }

    pinned::assert_seeded_leaf_spine_run_matches_pinned_numbers();

    let file = parse_source(
        "header tun { fields { id: 16; tag: 8; } follows udp when udp.dport == 4789; }
         program app kind any {
           counter seen;
           table acl {
             key { tun.id : exact; ipv4.src : exact; }
             action deny() { drop(); }
             action allow() { forward(1); }
             default allow();
             size 16;
           }
           handler ingress(pkt) { if (valid(tun)) { count(seen); apply acl; } forward(1); }
         }",
    )
    .expect("parses");
    let bundle = ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    };
    let deny = |id, src| {
        let action = ActionCall {
            action: "deny".into(),
            args: vec![],
        };
        ("acl".to_string(), TableEntry::exact(&[id, src], action))
    };
    assert_eq!(
        config_digest_of(&bundle, &[deny(7, 1), deny(9, 2)]),
        CONFIG_DIGEST
    );

    let mut pkt = Packet::tcp(42, 0x0a00_0001, 0x0a00_0002, 1234, 80, 0x12);
    pkt.payload_len = 3;
    pkt.payload = vec![1, 2, 3].into();
    pkt.insert_header(Header::vlan(300), Some("eth"));
    assert!(pkt.set_field("vlan.pcp", 5));
    assert!(pkt.set_field("ipv4.dscp", 10));
    let wire = encode_wire(&pkt);
    let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, WIRE_HEX);
    let parsed = parse_wire(&wire, 42).expect("round-trips");
    assert_eq!(parsed.headers, pkt.headers);
    assert_eq!(format!("{parsed:?}"), PARSED_DEBUG);

    pkt.headers
        .push(Header::new("tun", [("zeta", 1), ("alpha", 2), ("mid", 3)]));
    assert!(pkt.set_field("tun.beta", 4));
    assert!(pkt.set_field("meta.out_port", 9));
    pkt.metadata.insert("dst_node".into(), 3);
    assert!(pkt.set_field("meta.aaa", 1));
    pkt.record_processing(NodeId(5), ProgramVersion(2));
    assert_eq!(format!("{pkt:?}"), PACKET_DEBUG);
    assert_eq!(pkt.wire_len(), 14 + 4 + 20 + 20 + 16 + 3);
}

const CONFIG_DIGEST: u64 = 8429650424925101556;
const WIRE_HEX: &str = "0000000000020000000000018100a12c08004528002b00000000400600000a0000010a00000204d2005000000000000000005012ffff00000000010203";
const PARSED_DEBUG: &str = r#"Packet { id: 42, headers: [Header { proto: "eth", fields: {"dst": 2, "ethertype": 2048, "src": 1} }, Header { proto: "vlan", fields: {"pcp": 5, "vid": 300} }, Header { proto: "ipv4", fields: {"dscp": 10, "dst": 167772162, "ecn": 0, "proto": 6, "src": 167772161, "ttl": 64} }, Header { proto: "tcp", fields: {"ack": 0, "dport": 80, "flags": 18, "seq": 0, "sport": 1234, "window": 65535} }], payload_len: 3, payload: Bytes { data: [1, 2, 3] }, metadata: {}, ingress_time: SimTime(0), trace: [] }"#;
const PACKET_DEBUG: &str = r#"Packet { id: 42, headers: [Header { proto: "eth", fields: {"dst": 2, "ethertype": 2048, "src": 1} }, Header { proto: "vlan", fields: {"pcp": 5, "vid": 300} }, Header { proto: "ipv4", fields: {"dscp": 10, "dst": 167772162, "ecn": 0, "proto": 6, "src": 167772161, "ttl": 64} }, Header { proto: "tcp", fields: {"ack": 0, "dport": 80, "flags": 18, "seq": 0, "sport": 1234, "window": 65535} }, Header { proto: "tun", fields: {"alpha": 2, "beta": 4, "mid": 3, "zeta": 1} }], payload_len: 3, payload: Bytes { data: [1, 2, 3] }, metadata: {"aaa": 1, "dst_node": 3, "out_port": 9}, ingress_time: SimTime(0), trace: [(NodeId(5), ProgramVersion(2))] }"#;
