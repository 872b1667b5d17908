//! The device parser graph with runtime state add/remove.
//!
//! Paper §2: "Parser states can be similarly manipulated to add and remove
//! header types and protocols" while the device stays live. The parser graph
//! determines which headers of an arriving packet are *visible* to the
//! installed program: a protocol with no parser state is carried opaquely —
//! `valid(proto)` is false and its fields read as absent.

use flexnet_lang::ast::HeaderDecl;
use flexnet_lang::headers::HeaderRegistry;
use flexnet_types::{FlexError, HeaderTail, Packet, Result, Sym};
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

    /// Splits a packet's header stack into the *visible* prefix the program
    /// sees and the hidden remainder, returning the hidden headers so they
    /// can be reattached after processing. When every header is parseable
    /// nothing is stripped and the returned tail is empty and unallocated.
    ///
    /// Mirrors real parsers: parsing proceeds front-to-back and *stops* at
    /// the first unrecognized header — everything after it is payload, and
    /// is counted as payload: the hidden headers' bytes move into
    /// `payload_len`, so [`Packet::wire_len`] (what `count` adds and
    /// `pktlen()` reads) still covers the whole frame.
    #[inline]
    pub fn strip_invisible(&self, pkt: &mut Packet) -> HeaderTail {
        let Some(visible) = pkt.headers().position(|h| !self.can_parse_sym(h.proto())) else {
            return HeaderTail::default();
        };
        Self::hide_from(pkt, visible)
    }

    /// Splits the headers from `visible` on off the stack, and moves their
    /// bytes into the payload. Out of line: most packets hide nothing, and
    /// the packet loop that inlines [`ParserGraph::strip_invisible`] should
    /// not carry this body.
    #[cold]
    #[inline(never)]
    fn hide_from(pkt: &mut Packet, visible: usize) -> HeaderTail {
        let hidden = pkt.split_off_headers(visible);
        pkt.payload_len += hidden.wire_len();
        hidden
    }

    /// Reattaches headers previously removed by
    /// [`ParserGraph::strip_invisible`] where they stood, taking their
    /// bytes back out of the payload.
    #[inline]
    pub fn reattach(&self, pkt: &mut Packet, hidden: HeaderTail) {
        if !hidden.is_empty() {
            pkt.payload_len -= hidden.wire_len();
            pkt.rejoin_headers(hidden);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_lang::ast::{FieldDecl, FollowsClause};
    use flexnet_types::Header;

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
    fn strip_stops_at_first_unknown() {
        let p = ParserGraph::new();
        let mut pkt = Packet::udp(1, 1, 2, 3, 4789);
        pkt.push_header(Header::new("vxlan", [("vni", 7u64)]));
        pkt.push_header(Header::new("tcp", [("sport", 1u64)])); // after unknown: hidden too

        let whole = pkt.wire_len();
        let hidden = p.strip_invisible(&mut pkt);
        assert_eq!(hidden.len(), 2);
        let vxlan = Sym::intern("vxlan");
        assert!(pkt.header_sym(vxlan).is_none());
        assert!(pkt.header_sym(Sym::UDP).is_some());
        assert_eq!(
            pkt.wire_len(),
            whole,
            "the hidden headers are payload, not gone"
        );

        p.reattach(&mut pkt, hidden);
        assert_eq!((pkt.wire_len(), pkt.payload_len), (whole, 512));
        assert!(pkt.header_sym(vxlan).is_some());
        assert_eq!(pkt.headers().last().unwrap().proto(), "tcp");
        assert_eq!(pkt.get_field("vxlan.vni"), Some(7));
    }

    #[test]
    fn strip_with_installed_state_sees_header() {
        let mut p = ParserGraph::new();
        p.add_state(&vxlan()).unwrap();
        let mut pkt = Packet::udp(1, 1, 2, 3, 4789);
        pkt.push_header(Header::new("vxlan", [("vni", 7u64)]));
        let hidden = p.strip_invisible(&mut pkt);
        assert!(hidden.is_empty());
        assert!(pkt.header_sym(Sym::intern("vxlan")).is_some());
    }
}
