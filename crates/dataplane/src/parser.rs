//! The device parser graph with runtime state add/remove.
//!
//! Paper §2: "Parser states can be similarly manipulated to add and remove
//! header types and protocols" while the device stays live. The parser graph
//! determines which headers of an arriving packet are *visible* to the
//! installed program: a protocol with no parser state is carried opaquely —
//! `valid(proto)` is false and its fields read as absent.

use flexnet_lang::ast::HeaderDecl;
use flexnet_lang::headers::HeaderRegistry;
use flexnet_types::{FlexError, Header, Packet, ResourceKind, ResourceVec, Result, Sym};
use std::collections::BTreeMap;

/// A device's parser: the set of header types it can extract.
#[derive(Debug, Clone)]
pub struct ParserGraph {
    /// Every parseable protocol: the built-ins (always parseable), then the
    /// runtime-installed user states. Names are interned when a state is
    /// installed, so the per-packet membership test is an id compare.
    accept: Vec<Sym>,
    /// Runtime-installed user header states.
    user: BTreeMap<String, HeaderDecl>,
}

impl Default for ParserGraph {
    fn default() -> Self {
        ParserGraph::new()
    }
}

impl ParserGraph {
    /// A parser that recognizes only the built-in protocols.
    pub fn new() -> ParserGraph {
        ParserGraph {
            accept: HeaderRegistry::builtins()
                .iter()
                .map(|d| Sym::intern(&d.name))
                .collect(),
            user: BTreeMap::new(),
        }
    }

    /// Installs a parser state for a user header type. The `follows`
    /// predecessor must already be parseable.
    pub fn add_state(&mut self, decl: &HeaderDecl) -> Result<()> {
        if self.can_parse(&decl.name) {
            return Err(FlexError::Reconfig(format!(
                "parser already has a state for `{}`",
                decl.name
            )));
        }
        if let Some(f) = &decl.follows {
            if !self.can_parse(&f.prev_proto) {
                return Err(FlexError::Reconfig(format!(
                    "parser state `{}` follows `{}` which is not parseable",
                    decl.name, f.prev_proto
                )));
            }
        }
        self.accept.push(Sym::intern(&decl.name));
        self.user.insert(decl.name.clone(), decl.clone());
        Ok(())
    }

    /// Removes a user parser state. Built-in protocols cannot be removed,
    /// and neither can a state that another installed state follows.
    pub fn remove_state(&mut self, proto: &str) -> Result<()> {
        if self.can_parse(proto) && !self.user.contains_key(proto) {
            return Err(FlexError::Reconfig(format!(
                "cannot remove built-in parser state `{proto}`"
            )));
        }
        if let Some(dependent) = self
            .user
            .values()
            .find(|d| d.follows.as_ref().is_some_and(|f| f.prev_proto == proto))
        {
            return Err(FlexError::Reconfig(format!(
                "parser state `{}` still follows `{proto}`",
                dependent.name
            )));
        }
        if self.user.remove(proto).is_none() {
            return Err(FlexError::NotFound(format!("parser state `{proto}`")));
        }
        self.accept.retain(|p| *p != proto);
        Ok(())
    }

    /// Whether a protocol is parseable.
    pub fn can_parse(&self, proto: &str) -> bool {
        Sym::lookup(proto).is_some_and(|p| self.can_parse_sym(p))
    }

    /// Whether a protocol is parseable — the per-packet form.
    #[inline]
    pub fn can_parse_sym(&self, proto: Sym) -> bool {
        self.accept.contains(&proto)
    }

    /// Parser resource consumption (TCAM entries).
    pub fn used(&self) -> ResourceVec {
        let entries: u64 = self
            .user
            .values()
            .map(|d| 1 + d.fields.len() as u64)
            .sum();
        ResourceVec::of(ResourceKind::ParserEntries, entries)
    }

    /// Splits a packet's header stack into the *visible* prefix the program
    /// sees and the hidden remainder, returning the hidden headers with
    /// their original positions so they can be reattached after processing.
    /// When every header is parseable nothing is stripped and the returned
    /// list is empty and unallocated.
    ///
    /// Mirrors real parsers: parsing proceeds front-to-back and *stops* at
    /// the first unrecognized header — everything after it is payload.
    #[inline]
    pub fn strip_invisible(&self, pkt: &mut Packet) -> Vec<(usize, Header)> {
        let Some(visible) = pkt
            .headers
            .iter()
            .position(|h| !self.can_parse_sym(h.proto))
        else {
            return Vec::new();
        };
        pkt.headers
            .drain(visible..)
            .enumerate()
            .map(|(i, h)| (visible + i, h))
            .collect()
    }

    /// Reattaches headers previously removed by [`ParserGraph::strip_invisible`].
    #[inline]
    pub fn reattach(&self, pkt: &mut Packet, hidden: Vec<(usize, Header)>) {
        for (pos, h) in hidden {
            let idx = pos.min(pkt.headers.len());
            pkt.headers.insert(idx, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_lang::ast::{FieldDecl, FollowsClause};

    fn vxlan() -> HeaderDecl {
        HeaderDecl {
            name: "vxlan".into(),
            fields: vec![FieldDecl {
                name: "vni".into(),
                width: 24,
            }],
            follows: Some(FollowsClause {
                prev_proto: "udp".into(),
                select_field: "dport".into(),
                value: 4789,
            }),
        }
    }

    fn inner(prev: &str) -> HeaderDecl {
        HeaderDecl {
            name: "inner".into(),
            fields: vec![FieldDecl {
                name: "x".into(),
                width: 8,
            }],
            follows: Some(FollowsClause {
                prev_proto: prev.into(),
                select_field: "vni".into(),
                value: 1,
            }),
        }
    }

    #[test]
    fn builtins_always_parseable() {
        let p = ParserGraph::new();
        for proto in ["eth", "vlan", "ipv4", "tcp", "udp"] {
            assert!(p.can_parse(proto));
        }
        assert!(!p.can_parse("vxlan"));
    }

    #[test]
    fn add_and_remove_states() {
        let mut p = ParserGraph::new();
        p.add_state(&vxlan()).unwrap();
        assert!(p.can_parse("vxlan"));
        assert!(p.add_state(&vxlan()).is_err(), "duplicate rejected");
        p.remove_state("vxlan").unwrap();
        assert!(!p.can_parse("vxlan"));
        assert!(p.remove_state("vxlan").is_err());
    }

    #[test]
    fn dependency_ordering_enforced() {
        let mut p = ParserGraph::new();
        assert!(p.add_state(&inner("vxlan")).is_err(), "predecessor missing");
        p.add_state(&vxlan()).unwrap();
        p.add_state(&inner("vxlan")).unwrap();
        assert!(
            p.remove_state("vxlan").is_err(),
            "cannot remove a state another one follows"
        );
        p.remove_state("inner").unwrap();
        p.remove_state("vxlan").unwrap();
    }

    #[test]
    fn builtins_cannot_be_removed() {
        let mut p = ParserGraph::new();
        assert!(p.remove_state("ipv4").is_err());
    }

    #[test]
    fn used_counts_entries() {
        let mut p = ParserGraph::new();
        assert!(p.used().is_zero());
        p.add_state(&vxlan()).unwrap();
        assert_eq!(p.used().get(ResourceKind::ParserEntries), 2);
    }

    #[test]
    fn strip_stops_at_first_unknown() {
        let p = ParserGraph::new();
        let mut pkt = Packet::udp(1, 1, 2, 3, 4789);
        pkt.headers.push(Header::new("vxlan", [("vni", 7u64)]));
        pkt.headers.push(Header::new("tcp", [("sport", 1u64)])); // after unknown: hidden too

        let hidden = p.strip_invisible(&mut pkt);
        assert_eq!(hidden.len(), 2);
        assert!(!pkt.has_header("vxlan"));
        assert!(pkt.has_header("udp"));

        p.reattach(&mut pkt, hidden);
        assert!(pkt.has_header("vxlan"));
        assert_eq!(pkt.headers.last().unwrap().proto, "tcp");
        assert_eq!(pkt.get_field("vxlan.vni"), Some(7));
    }

    #[test]
    fn strip_with_installed_state_sees_header() {
        let mut p = ParserGraph::new();
        p.add_state(&vxlan()).unwrap();
        let mut pkt = Packet::udp(1, 1, 2, 3, 4789);
        pkt.headers.push(Header::new("vxlan", [("vni", 7u64)]));
        let hidden = p.strip_invisible(&mut pkt);
        assert!(hidden.is_empty());
        assert!(pkt.has_header("vxlan"));
    }
}
