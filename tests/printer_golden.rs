//! The pretty-printer's bytes, pinned.
//!
//! `Program::write_source` is what `to_source()` collects and what the
//! configuration digest folds, so every recording, every resync and every
//! intended-state comparison reads these bytes. The table pins, for every
//! gallery program, the three `ctl_txn` tenant flavours and the 8-tenant
//! composition the `ctl_txn` churn ships, the source's byte length, its
//! FNV-1a and `config_digest_of(bundle, &[])`, all computed before the
//! printer wrote its pieces without format strings. A changed row is a
//! changed byte in the printed source, never noise.

#[path = "common/gallery.rs"]
mod gallery;
#[path = "common/tenants.rs"]
mod tenants;

use flexnet::apps;
use flexnet::prelude::*;
use flexnet_dataplane::config_digest_of;
use flexnet_lang::parser::parse_source;
use std::collections::VecDeque;

/// (name, source length, FNV-1a of the source, `config_digest_of`).
#[rustfmt::skip]
const PINNED: &[(&str, usize, u64, u64)] = &[
    ("cms", 729, 0x6aab8ab9e5d8c79a, 0x6aab8ab9e5d8c79a),
    ("heavy_hitter", 277, 0x658787bc49529f8e, 0x658787bc49529f8e),
    ("path_tracer", 259, 0x43a09acdab8aff39, 0x43a09acdab8aff39),
    ("firewall", 440, 0xe16721260055526d, 0xe16721260055526d),
    ("syn_defense", 555, 0x0f96df5de7317ee1, 0x0f96df5de7317ee1),
    ("rate_limiter", 215, 0x2f31286d825df6f1, 0x2f31286d825df6f1),
    ("l3_router", 415, 0xfef51cdc337af0d1, 0xfef51cdc337af0d1),
    ("vlan_gateway", 366, 0xa676406a7422d772, 0xa676406a7422d772),
    ("ecmp", 180, 0x4c6312fcada0dded, 0x4c6312fcada0dded),
    ("hula", 476, 0x3abcaf63525c2a03, 0x3abcaf63525c2a03),
    ("ecn_marking", 199, 0xa9670da9c5906a84, 0xa9670da9c5906a84),
    ("dctcp_host", 420, 0xe90c5922a597c7b7, 0xe90c5922a597c7b7),
    ("hpcc_nic", 528, 0x8f456790648aab6c, 0x8f456790648aab6c),
    ("bbr_host", 322, 0xb7d32121682b8c7c, 0xb7d32121682b8c7c),
    ("ctl_txn_flavour_0", 239, 0x4f39c2e98a07e3c8, 0x4f39c2e98a07e3c8),
    ("ctl_txn_flavour_1", 333, 0xf33ab4dab4a5155b, 0xf33ab4dab4a5155b),
    ("ctl_txn_flavour_2", 224, 0xaff39f8df999d569, 0xaff39f8df999d569),
    ("ctl_txn_composed_8", 2392, 0xc2bf37769bbb795e, 0xc2bf37769bbb795e),
    ("every_construct", 1203, 0x65e12c40fcccbf11, 0x649e3678488ddce7),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The 8-tenant composition after the `ctl_txn` churn's first 40 ops (the
/// one `lang/seal/composed_8` seals).
fn composed_8() -> ProgramBundle {
    let infra = apps::build(tenants::INFRA).unwrap();
    let mut ctl = Controller::new(infra, NodeId(1), SimTime::ZERO).unwrap();
    let mut live = VecDeque::new();
    let mut composed = None;
    for op in 0..40 {
        let extension = apps::build(&tenants::tenant_source(op)).unwrap();
        let now = SimTime::from_millis(op + 1);
        composed = Some(tenants::churn(&mut ctl, &mut live, op, extension, now));
    }
    composed.unwrap()
}

/// Every statement, expression, declaration and operator the printer
/// writes, with a header type, parsed but not checked.
const EVERY_CONSTRUCT: &str =
    "header vxlan { fields { vni: 24; flags: 8; } follows udp when udp.dport == 4789; }
program every kind nic {
  map m : map<u32, u64>[1024];
  counter c;
  register r : u16[8];
  meter mt rate 1000 burst 64;
  service provide scrub(level: u8, depth: u32);
  service require migrate_state(dst: u32);
  table t {
    key { ipv4.dst : lpm; tcp.dport : exact; meta.mark : ternary; udp.sport : range; }
    action set(port: u16, tag: u32) { meta.mark = tag; forward(port); }
    action none() { }
    default set(7, 18446744073709551615);
    size 4096;
  }
  handler ingress(pkt) {
    let x = ((((1 + 2) - 3) * 4) / 5) % 6;
    x = ((((x & 7) | 8) ^ 9) << 2) >> 1;
    meta.m = (((x == 1) && (x != 2)) || (((x < 3) && (x <= 4)) && ((x > 5) && (x >= 6))));
    map_put(m, hash(ipv4.src, ipv4.dst, 0), pktlen());
    map_del(m, map_get(m, 1));
    reg_write(r, reg_read(r, 0), counter_read(c));
    count(c);
    if (!valid(vxlan)) { drop(); } else { if (map_has(m, ~x)) { punt(); } }
    if (meter_check(mt, -x) == 0) { recirculate(); }
    repeat (3) { apply t; }
    invoke migrate_state(x);
    add_header(vlan);
    remove_header(vxlan);
    return;
  }
  handler egress(pkt) { forward(vxlan.vni); }
}";

fn programs() -> Vec<(String, ProgramBundle)> {
    let mut all: Vec<(String, ProgramBundle)> = gallery::gallery()
        .into_iter()
        .map(|(name, bundle)| (name.to_string(), bundle))
        .collect();
    for op in 0..3 {
        let name = format!("ctl_txn_flavour_{op}");
        all.push((name, apps::build(&tenants::tenant_source(op)).unwrap()));
    }
    all.push(("ctl_txn_composed_8".to_string(), composed_8()));
    let file = parse_source(EVERY_CONSTRUCT).unwrap();
    let program = file.programs.into_iter().next().unwrap();
    let every = ProgramBundle {
        headers: file.headers,
        program,
    };
    all.push(("every_construct".to_string(), every));
    all
}

#[test]
fn printed_sources_and_digests_are_pinned() {
    let got: Vec<(String, usize, u64, u64)> = programs()
        .into_iter()
        .map(|(name, bundle)| {
            let src = bundle.program.to_source();
            (
                name,
                src.len(),
                fnv1a(src.as_bytes()),
                config_digest_of(&bundle, &[]),
            )
        })
        .collect();
    let want: Vec<(String, usize, u64, u64)> = PINNED
        .iter()
        .map(|&(name, len, fnv, digest)| (name.to_string(), len, fnv, digest))
        .collect();
    assert_eq!(got, want);
}
