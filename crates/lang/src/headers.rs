//! The header-type registry.
//!
//! FlexBPF is protocol-independent: besides a small set of built-in header
//! types (Ethernet, VLAN, IPv4, TCP, UDP), programs bring their own `header`
//! declarations, and runtime parser reconfiguration (paper §2) installs or
//! removes them on live devices. The registry is the single source of truth
//! for "which fields does protocol X have", shared by the type checker, the
//! verifier, and the data-plane parser model.

use crate::ast::{FieldDecl, FollowsClause, HeaderDecl};
use flexnet_types::{FlexError, Result};
use std::sync::{Arc, LazyLock};

/// The built-in protocols in name order: one table for the whole process,
/// built on first use and never changed.
static BUILTINS: LazyLock<[HeaderDecl; 5]> = LazyLock::new(|| {
    [
        builtin("eth", &[("src", 48), ("dst", 48), ("ethertype", 16)], None),
        builtin(
            "ipv4",
            &[
                ("src", 32),
                ("dst", 32),
                ("proto", 8),
                ("ttl", 8),
                ("ecn", 2),
                ("dscp", 6),
            ],
            Some(("eth", "ethertype", 0x0800)),
        ),
        builtin(
            "tcp",
            &[
                ("sport", 16),
                ("dport", 16),
                ("flags", 8),
                ("seq", 32),
                ("ack", 32),
                ("window", 16),
            ],
            Some(("ipv4", "proto", 6)),
        ),
        builtin(
            "udp",
            &[("sport", 16), ("dport", 16)],
            Some(("ipv4", "proto", 17)),
        ),
        builtin(
            "vlan",
            &[("vid", 12), ("pcp", 3)],
            Some(("eth", "ethertype", 0x8100)),
        ),
    ]
});

/// A registry of known header types: the built-ins, plus the user
/// declarations it owns.
#[derive(Debug, Clone)]
pub struct HeaderRegistry {
    /// User declarations in name order, shared with the bundle they came
    /// from; none has a built-in's name.
    user: Vec<Arc<HeaderDecl>>,
}

fn builtin(name: &str, fields: &[(&str, u8)], follows: Option<(&str, &str, u64)>) -> HeaderDecl {
    HeaderDecl {
        name: name.to_string(),
        fields: fields
            .iter()
            .map(|(n, w)| FieldDecl {
                name: n.to_string(),
                width: *w,
            })
            .collect(),
        follows: follows.map(|(p, f, v)| FollowsClause {
            prev_proto: p.to_string(),
            select_field: f.to_string(),
            value: v,
        }),
    }
}

impl HeaderRegistry {
    /// A registry with only the built-in protocols.
    pub fn builtins() -> HeaderRegistry {
        HeaderRegistry { user: Vec::new() }
    }

    /// Registers a user header declaration. The `follows` predecessor, if
    /// any, must already be known. Redeclaring an existing protocol is an
    /// error (runtime parser updates go through the reconfiguration engine,
    /// not the registry).
    pub fn register(&mut self, decl: Arc<HeaderDecl>) -> Result<()> {
        if self.has_proto(&decl.name) {
            return Err(FlexError::Type(format!(
                "header `{}` is already declared",
                decl.name
            )));
        }
        if decl.fields.is_empty() {
            return Err(FlexError::Type(format!(
                "header `{}` declares no fields",
                decl.name
            )));
        }
        if let Some(f) = &decl.follows {
            let Some(prev) = self.decl(&f.prev_proto) else {
                return Err(FlexError::Type(format!(
                    "header `{}` follows unknown protocol `{}`",
                    decl.name, f.prev_proto
                )));
            };
            if !prev.fields.iter().any(|fd| fd.name == f.select_field) {
                return Err(FlexError::Type(format!(
                    "header `{}` selects on `{}.{}` which does not exist",
                    decl.name, f.prev_proto, f.select_field
                )));
            }
        }
        let (Ok(at) | Err(at)) = self.user_index(&decl.name);
        self.user.insert(at, decl);
        Ok(())
    }

    /// A registry seeded with builtins plus the given user declarations.
    pub fn with_user_headers(headers: &[Arc<HeaderDecl>]) -> Result<HeaderRegistry> {
        let mut r = HeaderRegistry::builtins();
        for h in headers {
            r.register(h.clone())?;
        }
        Ok(r)
    }

    /// Where `proto` sits among the user declarations (`Err`: where it
    /// would go).
    fn user_index(&self, proto: &str) -> std::result::Result<usize, usize> {
        self.user.binary_search_by(|d| d.name.as_str().cmp(proto))
    }

    /// Whether `proto` is a known header type.
    pub fn has_proto(&self, proto: &str) -> bool {
        self.decl(proto).is_some()
    }

    /// Looks up a field declaration.
    pub fn field(&self, proto: &str, field: &str) -> Option<&FieldDecl> {
        self.decl(proto)?.fields.iter().find(|f| f.name == field)
    }

    /// The full declaration for `proto`.
    pub fn decl(&self, proto: &str) -> Option<&HeaderDecl> {
        match BUILTINS.iter().find(|b| b.name == proto) {
            Some(b) => Some(b),
            None => self.user_index(proto).ok().map(|i| &*self.user[i]),
        }
    }

    /// Iterates over all known declarations in name order.
    pub fn iter(&self) -> impl Iterator<Item = &HeaderDecl> {
        let mut builtins = BUILTINS.iter().peekable();
        let mut user = self.user.iter().map(|d| &**d).peekable();
        std::iter::from_fn(move || match (builtins.peek(), user.peek()) {
            (Some(b), Some(u)) if u.name < b.name => user.next(),
            (Some(_), _) => builtins.next(),
            (None, _) => user.next(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_present() {
        let r = HeaderRegistry::builtins();
        for p in ["eth", "vlan", "ipv4", "tcp", "udp"] {
            assert!(r.has_proto(p), "missing builtin {p}");
        }
        assert_eq!(r.field("ipv4", "src").unwrap().width, 32);
        assert!(r.field("ipv4", "nonesuch").is_none());
        assert!(r.field("nonesuch", "src").is_none());
    }

    #[test]
    fn registering_custom_header() {
        let mut r = HeaderRegistry::builtins();
        let vxlan = builtin("vxlan", &[("vni", 24)], Some(("udp", "dport", 4789)));
        r.register(vxlan.into()).unwrap();
        assert!(r.has_proto("vxlan"));
        assert_eq!(
            r.decl("vxlan").unwrap().follows.as_ref().unwrap().value,
            4789
        );
    }

    #[test]
    fn rejects_duplicate_and_dangling() {
        let mut r = HeaderRegistry::builtins();
        let dup = builtin("ipv4", &[("x", 8)], None);
        assert!(r.register(dup.into()).is_err());
        let dangling = builtin("x", &[("y", 8)], Some(("nope", "f", 1)));
        assert!(r.register(dangling.into()).is_err());
        let bad_select = builtin("x", &[("y", 8)], Some(("udp", "nofield", 1)));
        assert!(r.register(bad_select.into()).is_err());
        let empty = builtin("e", &[], None);
        assert!(r.register(empty.into()).is_err());
    }

    #[test]
    fn with_user_headers_builds_registry() {
        let vxlan = builtin("vxlan", &[("vni", 24)], Some(("udp", "dport", 4789)));
        let r = HeaderRegistry::with_user_headers(&[vxlan.into()]).unwrap();
        assert!(r.has_proto("vxlan"));
        assert_eq!(r.iter().count(), 6);
    }

    #[test]
    fn iteration_is_in_name_order_across_builtins_and_user_headers() {
        let user = [
            builtin("vxlan", &[("vni", 24)], Some(("udp", "dport", 4789))),
            builtin("arp", &[("op", 16)], Some(("eth", "ethertype", 0x0806))),
            builtin("mpls", &[("label", 20)], Some(("eth", "ethertype", 0x8847))),
        ];
        let r = HeaderRegistry::with_user_headers(&user.map(Arc::new)).unwrap();
        let names: Vec<&str> = r.iter().map(|d| d.name.as_str()).collect();
        let expected = ["arp", "eth", "ipv4", "mpls", "tcp", "udp", "vlan", "vxlan"];
        assert_eq!(names, expected);
        assert_eq!(r.decl("mpls").unwrap().fields[0].name, "label");
        assert!(r.field("arp", "op").is_some() && r.field("arp", "src").is_none());
        let builtins = HeaderRegistry::builtins();
        let names: Vec<&str> = builtins.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["eth", "ipv4", "tcp", "udp", "vlan"]);
    }
}
