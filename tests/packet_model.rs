//! Reference-model test for the packet representation.
//!
//! A packet's header stack is one buffer of interned layouts and values;
//! this test holds it to the semantics it replaced, kept here as a model:
//! a `Vec` of `(proto, BTreeMap<field, value>)` plus a metadata map.
//! Random sequences of builds and clones, header inserts (after a given
//! protocol) and removals, field reads and stores — on existing and new
//! fields, metadata included, through the `Sym`-keyed entry points, and
//! reads also by dotted path — and `strip_invisible` with its restore run
//! over well-known and runtime-declared headers. After every step the
//! packet must agree with the model in its field values, its `Debug` text,
//! its `wire_len`, and `==` with a packet built afresh from the model (so
//! a header edited into a layout equals one built with it). Names that were
//! never interned stay so.

use flexnet_dataplane::ParserGraph;
use flexnet_lang::ast::{FieldDecl, HeaderDecl};
use flexnet_types::{Header, Packet, Sym};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const PROTOS: [&str; 9] = [
    "eth",
    "vlan",
    "ipv4",
    "tcp",
    "udp",
    "model_alpha",
    "model_beta",
    "meta",
    GHOST,
];
/// Field names: every well-known one, a few runtime ones, and a ghost.
const FIELDS: [&str; 14] = [
    "src",
    "dst",
    "ethertype",
    "vid",
    "pcp",
    "ttl",
    "dport",
    "sport",
    "a",
    "m",
    "z",
    "aa",
    "dscp",
    GHOST_FIELD,
];
/// Only ever read by dotted path: must still be unknown at the end.
const GHOST: &str = "model_never_interned_proto";
const GHOST_FIELD: &str = "model_never_interned_field";
/// The one runtime header the test parser has a state for; `model_beta`
/// and everything after it is hidden from a program.
const PARSED_RUNTIME: &str = "model_alpha";

type Map = BTreeMap<String, u64>;

#[derive(Clone, Default)]
struct Model {
    id: u64,
    headers: Vec<(String, Map)>,
    meta: Map,
    payload_len: u32,
}

impl Model {
    fn fields(&mut self, proto: &str) -> Option<&mut Map> {
        if proto == "meta" {
            return Some(&mut self.meta);
        }
        self.headers
            .iter_mut()
            .find(|(p, _)| p == proto)
            .map(|(_, f)| f)
    }

    fn get(&mut self, proto: &str, field: &str) -> Option<u64> {
        self.fields(proto)?.get(field).copied()
    }

    fn set(&mut self, proto: &str, field: &str, value: u64) -> bool {
        self.fields(proto)
            .map(|f| f.insert(field.to_string(), value))
            .is_some()
    }

    fn insert(&mut self, proto: &str, fields: Map, after: Option<&str>) {
        let at = after
            .and_then(|a| self.headers.iter().position(|(p, _)| p == a))
            .map_or(0, |i| i + 1);
        self.headers.insert(at, (proto.to_string(), fields));
    }

    fn remove(&mut self, proto: &str) -> Option<Map> {
        let at = self.headers.iter().position(|(p, _)| p == proto)?;
        Some(self.headers.remove(at).1)
    }

    fn wire_len(&self) -> u32 {
        let nominal = |(proto, fields): &(String, Map)| match proto.as_str() {
            "eth" => 14,
            "vlan" => 4,
            "ipv4" | "tcp" => 20,
            "udp" => 8,
            _ => 4 * fields.len().max(1) as u32,
        };
        self.headers.iter().map(nominal).sum::<u32>() + self.payload_len
    }

    /// What the derived `Debug` of the replaced representation printed.
    fn debug(&self) -> String {
        let map = |m: &Map| {
            let entries: Vec<String> = m.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
            format!("{{{}}}", entries.join(", "))
        };
        let headers: Vec<String> = self
            .headers
            .iter()
            .map(|(p, f)| format!("Header {{ proto: {p:?}, fields: {} }}", map(f)))
            .collect();
        format!(
            "Packet {{ id: {}, headers: [{}], payload_len: {}, payload: Bytes {{ data: [] }}, \
             metadata: {}, ingress_time: SimTime(0), trace: [] }}",
            self.id,
            headers.join(", "),
            self.payload_len,
            map(&self.meta)
        )
    }

    /// A packet built afresh from the model.
    fn build(&self) -> Packet {
        let header = |(p, f): &(String, Map)| {
            Header::new(p.as_str(), f.iter().map(|(k, v)| (k.as_str(), *v)))
        };
        let mut pkt = Packet::new(
            self.id,
            self.headers.iter().map(header).collect(),
            self.payload_len,
        );
        for (k, v) in &self.meta {
            pkt.metadata.insert(k.as_str().into(), *v);
        }
        pkt
    }
}

fn named<'a>(fields: impl Iterator<Item = (Sym, u64)> + 'a) -> Vec<(String, u64)> {
    fields.map(|(k, v)| (k.to_string(), v)).collect()
}

fn assert_same(pkt: &Packet, model: &Model, step: usize) {
    let got: Vec<(String, Vec<(String, u64)>)> = pkt
        .headers()
        .map(|h| (h.proto().to_string(), named(h.fields())))
        .collect();
    let want: Vec<(String, Vec<(String, u64)>)> = model
        .headers
        .iter()
        .map(|(p, f)| (p.clone(), f.clone().into_iter().collect()))
        .collect();
    assert_eq!(got, want, "headers after step {step}");
    let want_meta: Vec<(String, u64)> = model.meta.clone().into_iter().collect();
    assert_eq!(
        named(pkt.metadata.iter()),
        want_meta,
        "metadata after step {step}"
    );
    assert_eq!(format!("{pkt:?}"), model.debug(), "Debug after step {step}");
    assert_eq!(
        pkt.wire_len(),
        model.wire_len(),
        "wire_len after step {step}"
    );
    assert!(*pkt == model.build(), "== a fresh build after step {step}");
}

/// A random header: a well-known constructor, or `Header::new` with up to
/// four random fields (duplicates included: the later one wins, as in a
/// map). Returns the model's view of it too.
fn random_header(rng: &mut StdRng, proto: &str, value: u64) -> (Header, Map) {
    let v = value & 0xff;
    let well_known = match (proto, rng.gen_range(0..3u32)) {
        ("eth", 0) => Some(Header::ethernet(v, v + 1, 0x0800)),
        ("vlan", 0) => Some(Header::vlan(v)),
        ("ipv4", 0) => Some(Header::ipv4(v as u32, 2, 6)),
        ("tcp", 0) => Some(Header::tcp(v as u16, 80, 2)),
        ("udp", 0) => Some(Header::udp(v as u16, 53)),
        _ => None,
    };
    if let Some(h) = well_known {
        let map = h.view().fields().map(|(k, v)| (k.to_string(), v)).collect();
        return (h, map);
    }
    let n = rng.gen_range(0..5usize);
    let fields: Vec<(&'static str, u64)> = (0..n)
        .map(|i| (FIELDS[rng.gen_range(0..FIELDS.len() - 1)], value + i as u64))
        .collect();
    let map = fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    (Header::new(proto, fields.iter().copied()), map)
}

#[test]
fn random_edits_agree_with_the_string_keyed_model() {
    let mut parser = ParserGraph::new();
    parser
        .add_state(&HeaderDecl {
            name: PARSED_RUNTIME.into(),
            fields: vec![FieldDecl {
                name: "a".into(),
                width: 8,
            }],
            follows: None,
        })
        .expect("a state with no predecessor installs");
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pkt = if seed % 2 == 0 {
            Packet::tcp(seed, 1, 2, 3, 4, 0x10)
        } else {
            Packet::udp(seed, 1, 2, 3, 4)
        };
        let mut model = Model {
            id: seed,
            headers: named_headers(&pkt),
            payload_len: pkt.payload_len,
            ..Model::default()
        };
        assert_same(&pkt, &model, 0);
        for step in 1..4_000usize {
            let proto = PROTOS[rng.gen_range(0..PROTOS.len())];
            let field = FIELDS[rng.gen_range(0..FIELDS.len())];
            // A ghost name has no `Sym`; it can only be read by dotted path.
            let by_sym = rng.gen_bool(0.5) && proto != GHOST && field != GHOST_FIELD;
            let value = rng.gen_range(0..1_000u64);
            match rng.gen_range(0..13u32) {
                0..=2 => {
                    let got = if by_sym {
                        pkt.get_field_sym(Sym::intern(proto), Sym::intern(field))
                    } else {
                        pkt.get_field(&format!("{proto}.{field}"))
                    };
                    assert_eq!(got, model.get(proto, field), "step {step}");
                }
                3..=5 if by_sym => {
                    let got = pkt.set_field_sym(Sym::intern(proto), Sym::intern(field), value);
                    assert_eq!(got, model.set(proto, field, value), "step {step}");
                }
                6..=7 if proto != GHOST && proto != "meta" && model.headers.len() < 6 => {
                    let (header, fields) = random_header(&mut rng, proto, value);
                    let after = rng
                        .gen_bool(0.7)
                        .then(|| PROTOS[rng.gen_range(0..PROTOS.len())]);
                    // A ghost names no header: the new one goes on top.
                    let after_sym = after.filter(|&a| a != GHOST).map(Sym::intern);
                    pkt.insert_header_sym(header, after_sym);
                    model.insert(proto, fields, after);
                }
                8..=9 if by_sym => {
                    let got = pkt.remove_header_sym(Sym::intern(proto));
                    let want = if proto == "meta" {
                        None
                    } else {
                        model.remove(proto)
                    };
                    assert_eq!(
                        got.map(|h| named(h.view().fields())),
                        want.map(|f| f.into_iter().collect()),
                        "step {step}"
                    );
                }
                10 => {
                    // A clone is equal and independent: edits to it leave
                    // the original as it was.
                    let copy = pkt.clone();
                    assert!(copy == pkt, "step {step}");
                    assert_eq!(format!("{copy:?}"), format!("{pkt:?}"), "step {step}");
                    let original = std::mem::replace(&mut pkt, copy);
                    let snapshot = model.clone();
                    if pkt.set_field_sym(Sym::TCP, Sym::intern("m"), value) {
                        model.set("tcp", "m", value);
                    }
                    assert_same(&original, &snapshot, step);
                }
                11 => {
                    // What a device does around a program run: hide what
                    // the parser cannot see, let the program edit the
                    // visible headers, put the hidden ones back.
                    let whole = pkt.wire_len();
                    let hidden = parser.strip_invisible(&mut pkt);
                    let visible = model
                        .headers
                        .iter()
                        .position(|(p, _)| !parser.can_parse(p))
                        .unwrap_or(model.headers.len());
                    let tail = model.headers.split_off(visible);
                    let tail_len: u32 = Model {
                        headers: tail.clone(),
                        ..Model::default()
                    }
                    .wire_len();
                    assert_eq!(hidden.len(), tail.len(), "step {step}");
                    model.payload_len += tail_len;
                    assert_same(&pkt, &model, step);
                    assert_eq!(
                        pkt.wire_len(),
                        whole,
                        "hidden headers are payload, not gone"
                    );
                    if rng.gen_bool(0.5) && pkt.remove_header_sym(Sym::ETH).is_some() {
                        model.remove("eth");
                    } else if pkt.set_field_sym(Sym::IPV4, Sym::TTL, value) {
                        model.set("ipv4", "ttl", value);
                    }
                    parser.reattach(&mut pkt, hidden);
                    model.payload_len -= tail_len;
                    let at = visible.min(model.headers.len());
                    model.headers.splice(at..at, tail);
                }
                _ if by_sym => {
                    let want = proto != "meta" && model.headers.iter().any(|(p, _)| p == proto);
                    let got = pkt.header_sym(Sym::intern(proto)).is_some();
                    assert_eq!(got, want, "step {step}");
                }
                _ => {}
            }
            assert_same(&pkt, &model, step);
        }
    }
    assert_eq!(Sym::lookup(GHOST), None);
    assert_eq!(Sym::lookup(GHOST_FIELD), None);
}

fn named_headers(pkt: &Packet) -> Vec<(String, Map)> {
    pkt.headers()
        .map(|h| {
            (
                h.proto().to_string(),
                h.fields().map(|(k, v)| (k.to_string(), v)).collect(),
            )
        })
        .collect()
}
