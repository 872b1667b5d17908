//! Model test for the interned packet representation.
//!
//! Random sequences of field reads and stores, header inserts and removals
//! and metadata writes — through both the string-keyed and the `Sym`-keyed
//! entry points — must agree at every step with the representation they
//! replaced: a `Vec` of `(proto, BTreeMap<field, value>)` plus a metadata
//! map. That covers names that were never interned, fields created by a
//! store, stores to absent headers, and iteration in field-*name* order.

use flexnet_types::{Header, Packet, Sym};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const PROTOS: [&str; 6] = ["eth", "ipv4", "model_alpha", "model_beta", "meta", GHOST];
const FIELDS: [&str; 8] = ["src", "dst", "ttl", "a", "m", "z", "aa", GHOST_FIELD];
/// Only ever passed to the string API: must still be unknown at the end.
const GHOST: &str = "model_never_interned_proto";
const GHOST_FIELD: &str = "model_never_interned_field";

#[derive(Default)]
struct Model {
    headers: Vec<(String, BTreeMap<String, u64>)>,
    meta: BTreeMap<String, u64>,
}

impl Model {
    fn fields(&mut self, proto: &str) -> Option<&mut BTreeMap<String, u64>> {
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

    fn insert(&mut self, proto: &str, fields: &[(&'static str, u64)], after: Option<&str>) {
        let at = after
            .and_then(|a| self.headers.iter().position(|(p, _)| p == a))
            .map_or(0, |i| i + 1);
        let fields = fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        self.headers.insert(at, (proto.to_string(), fields));
    }

    fn remove(&mut self, proto: &str) -> Option<BTreeMap<String, u64>> {
        let at = self.headers.iter().position(|(p, _)| p == proto)?;
        Some(self.headers.remove(at).1)
    }
}

fn named(fields: &flexnet_types::Fields) -> Vec<(String, u64)> {
    fields.iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn assert_same(pkt: &Packet, model: &Model, step: usize) {
    let got: Vec<(String, Vec<(String, u64)>)> = pkt
        .headers
        .iter()
        .map(|h| (h.proto.to_string(), named(&h.fields)))
        .collect();
    let want: Vec<(String, Vec<(String, u64)>)> = model
        .headers
        .iter()
        .map(|(p, f)| (p.clone(), f.clone().into_iter().collect()))
        .collect();
    assert_eq!(got, want, "headers after step {step}");
    let want_meta: Vec<(String, u64)> = model.meta.clone().into_iter().collect();
    assert_eq!(
        named(&pkt.metadata),
        want_meta,
        "metadata after step {step}"
    );
}

#[test]
fn random_edits_agree_with_the_string_keyed_model() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pkt = Packet::new(seed, Vec::new(), 0);
        let mut model = Model::default();
        for step in 0..4_000usize {
            let proto = PROTOS[rng.gen_range(0..PROTOS.len())];
            let field = FIELDS[rng.gen_range(0..FIELDS.len())];
            // A ghost name has no `Sym`; it can only come in as a string.
            let by_sym = rng.gen_bool(0.5) && proto != GHOST && field != GHOST_FIELD;
            let value = rng.gen_range(0..1_000u64);
            match rng.gen_range(0..10u32) {
                0..=2 => {
                    let got = if by_sym {
                        pkt.get_field_sym(Sym::intern(proto), Sym::intern(field))
                    } else {
                        pkt.get_field(&format!("{proto}.{field}"))
                    };
                    assert_eq!(got, model.get(proto, field), "step {step}");
                }
                3..=5 if field != GHOST_FIELD => {
                    let got = if by_sym {
                        pkt.set_field_sym(Sym::intern(proto), Sym::intern(field), value)
                    } else {
                        pkt.set_field(&format!("{proto}.{field}"), value)
                    };
                    assert_eq!(got, model.set(proto, field, value), "step {step}");
                }
                6..=7 if proto != GHOST && proto != "meta" && model.headers.len() < 6 => {
                    let n = rng.gen_range(0..4usize);
                    let fields: Vec<(&'static str, u64)> = (0..n)
                        .map(|i| (FIELDS[rng.gen_range(0..7usize)], value + i as u64))
                        .collect();
                    let after = rng
                        .gen_bool(0.7)
                        .then(|| PROTOS[rng.gen_range(0..PROTOS.len())]);
                    let header = Header::new(proto, fields.iter().copied());
                    match after {
                        Some(a) if by_sym && a != GHOST => {
                            pkt.insert_header_sym(header, Some(Sym::intern(a)))
                        }
                        _ => pkt.insert_header(header, after),
                    }
                    // `Header::new` keeps the last of duplicate names, as a
                    // map does.
                    model.insert(proto, &fields, after);
                }
                8..=9 => {
                    let got = if by_sym {
                        pkt.remove_header_sym(Sym::intern(proto))
                    } else {
                        pkt.remove_header(proto)
                    };
                    let want = if proto == "meta" {
                        None
                    } else {
                        model.remove(proto)
                    };
                    assert_eq!(
                        got.map(|h| named(&h.fields)),
                        want.map(|f| f.into_iter().collect()),
                        "step {step}"
                    );
                }
                _ => {
                    let want = proto != "meta" && model.headers.iter().any(|(p, _)| p == proto);
                    assert_eq!(pkt.has_header(proto), want, "step {step}");
                }
            }
            assert_same(&pkt, &model, step);
        }
    }
    assert_eq!(Sym::lookup(GHOST), None);
    assert_eq!(Sym::lookup(GHOST_FIELD), None);
}
