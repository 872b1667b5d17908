//! Program elements and resource-demand estimation.
//!
//! The compiler (paper §3.3) places *program elements* — tables, state
//! objects, handlers, and parser additions — onto physical devices, and the
//! fungible-compilation loop moves them around. This module decomposes a
//! FlexBPF program into its elements and estimates each element's canonical
//! resource demand as a [`ResourceVec`]. Device models translate canonical
//! demands into architecture-specific resources (e.g. a SmartNIC satisfies
//! SRAM demand from DRAM; a tiled ASIC satisfies an exact-match table with
//! hash tiles).

use crate::ast::*;
use crate::headers::HeaderRegistry;
use crate::verifier::block_ops;
use flexnet_types::{ResourceKind, ResourceVec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What kind of program element this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElementKind {
    /// A match/action table.
    Table,
    /// A state object (map, counter, register, meter).
    State,
    /// A packet handler (control block).
    Handler,
    /// A parser addition for one user-declared header type.
    Parser,
}

/// One placeable unit of a program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Element {
    /// Element name (table/state/handler/header name).
    pub name: String,
    /// The element's kind.
    pub kind: ElementKind,
    /// Canonical resource demand.
    pub demand: ResourceVec,
    /// Whether this element requires TCAM (non-exact table keys).
    pub needs_tcam: bool,
    /// Worst-case per-packet ops attributable to this element.
    pub ops: u64,
    /// Names of elements this one must be co-located with or ordered after
    /// (a handler depends on the tables it applies and the state it uses).
    pub deps: Vec<String>,
}

/// Total key width of a table in bits.
fn table_key_bits(t: &TableDecl, headers: &HeaderRegistry) -> u64 {
    t.keys
        .iter()
        .map(|k| match &k.field {
            FieldPath::Header(p, f) => headers
                .field(p, f)
                .map(|fd| fd.width as u64)
                .unwrap_or(32),
            FieldPath::Meta(_) => 32,
        })
        .sum()
}

/// Estimates the resource demand of a table.
///
/// Cost model: each entry stores the key plus a 32-bit action descriptor;
/// exact keys live in SRAM, any lpm/ternary/range key moves the whole table
/// to TCAM (as on real ASICs). Sizes are rounded up to 1 KiB.
pub fn table_demand(t: &TableDecl, headers: &HeaderRegistry) -> ResourceVec {
    let key_bits = table_key_bits(t, headers);
    let entry_bits = key_bits + 32;
    let kib = (t.size.saturating_mul(entry_bits) / 8).div_ceil(1024).max(1);
    let mut v = ResourceVec::new();
    if t.needs_tcam() {
        v.set(ResourceKind::TcamKb, kib);
    } else {
        v.set(ResourceKind::SramKb, kib);
    }
    // One action slot per declared action (VLIW slots on RMT).
    v.set(ResourceKind::ActionSlots, t.actions.len().max(1) as u64);
    v
}

/// Estimates the resource demand of a state object.
pub fn state_demand(s: &StateDecl) -> ResourceVec {
    let mut v = ResourceVec::new();
    match &s.kind {
        StateKind::Map {
            key_width,
            value_width,
        } => {
            let bits = (*key_width as u64 + *value_width as u64).max(8);
            let kib = (s.size.saturating_mul(bits) / 8).div_ceil(1024).max(1);
            v.set(ResourceKind::SramKb, kib);
        }
        StateKind::Counter => {
            v.set(ResourceKind::MeterSlots, 1);
        }
        StateKind::Register { .. } => {
            v.set(ResourceKind::RegisterCells, s.size.max(1));
        }
        StateKind::Meter { .. } => {
            v.set(ResourceKind::MeterSlots, 1);
        }
    }
    v
}

/// Estimates the resource demand of a handler: its worst-case op count as
/// action slots (compute demand).
pub fn handler_demand(h: &Handler) -> ResourceVec {
    ResourceVec::of(ResourceKind::ActionSlots, block_ops(&h.body).max(1))
}

/// Estimates the demand of installing one user header type into a parser.
pub fn parser_demand(h: &HeaderDecl) -> ResourceVec {
    // One parser TCAM entry per transition into the header, plus one per
    // field extracted (PHV allocation proxy).
    ResourceVec::of(
        ResourceKind::ParserEntries,
        1 + h.fields.len() as u64,
    )
}

/// Names of state objects and tables referenced by a block.
fn block_refs(block: &Block, out: &mut Vec<String>) {
    fn expr_refs(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::MapGet(n, k) | Expr::MapHas(n, k) | Expr::RegRead(n, k)
            | Expr::MeterCheck(n, k) => {
                out.push(n.clone());
                expr_refs(k, out);
            }
            Expr::CounterRead(n) => out.push(n.clone()),
            Expr::Hash(args) => args.iter().for_each(|a| expr_refs(a, out)),
            Expr::Bin(_, l, r) => {
                expr_refs(l, out);
                expr_refs(r, out);
            }
            Expr::Un(_, v) => expr_refs(v, out),
            _ => {}
        }
    }
    for s in block {
        match s {
            Stmt::Let(_, e) | Stmt::AssignLocal(_, e) | Stmt::AssignField(_, e)
            | Stmt::Forward(e) => expr_refs(e, out),
            Stmt::MapPut(n, k, v) | Stmt::RegWrite(n, k, v) => {
                out.push(n.clone());
                expr_refs(k, out);
                expr_refs(v, out);
            }
            Stmt::MapDelete(n, k) => {
                out.push(n.clone());
                expr_refs(k, out);
            }
            Stmt::Count(n) => out.push(n.clone()),
            Stmt::If(c, t, e) => {
                expr_refs(c, out);
                block_refs(t, out);
                block_refs(e, out);
            }
            Stmt::Repeat(_, b) => block_refs(b, out),
            Stmt::Apply(t) => out.push(t.clone()),
            Stmt::Invoke(_, args) => args.iter().for_each(|a| expr_refs(a, out)),
            _ => {}
        }
    }
}

/// Decomposes a program (plus the user headers it relies on) into placeable
/// elements with demand estimates.
pub fn program_elements(
    program: &Program,
    user_headers: &[Arc<HeaderDecl>],
    headers: &HeaderRegistry,
) -> Vec<Element> {
    let mut out = Vec::new();
    for h in user_headers {
        out.push(Element {
            name: h.name.clone(),
            kind: ElementKind::Parser,
            demand: parser_demand(h),
            needs_tcam: false,
            ops: 0,
            deps: Vec::new(),
        });
    }
    for s in &program.states {
        out.push(Element {
            name: s.name.clone(),
            kind: ElementKind::State,
            demand: state_demand(s),
            needs_tcam: false,
            ops: 0,
            deps: Vec::new(),
        });
    }
    for t in &program.tables {
        let mut deps = Vec::new();
        for a in &t.actions {
            block_refs(&a.body, &mut deps);
        }
        deps.sort();
        deps.dedup();
        out.push(Element {
            name: t.name.clone(),
            kind: ElementKind::Table,
            demand: table_demand(t, headers),
            needs_tcam: t.needs_tcam(),
            ops: t
                .actions
                .iter()
                .map(|a| block_ops(&a.body))
                .max()
                .unwrap_or(0),
            deps,
        });
    }
    for h in &program.handlers {
        let mut deps = Vec::new();
        block_refs(&h.body, &mut deps);
        deps.sort();
        deps.dedup();
        out.push(Element {
            name: h.name.clone(),
            kind: ElementKind::Handler,
            demand: handler_demand(h),
            needs_tcam: false,
            ops: block_ops(&h.body),
            deps,
        });
    }
    out
}

/// Total canonical demand of a program (sum over elements).
pub fn program_demand(
    program: &Program,
    user_headers: &[Arc<HeaderDecl>],
    headers: &HeaderRegistry,
) -> ResourceVec {
    let mut total = ResourceVec::new();
    for e in program_elements(program, user_headers, headers) {
        total += e.demand;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_source};
    use crate::typecheck::check_program;
    use crate::verifier::verify_program;

    /// The elements of a checked and verified program.
    fn elements(src: &str) -> Vec<Element> {
        let file = parse_source(src).unwrap();
        let headers = HeaderRegistry::with_user_headers(&file.headers).unwrap();
        let program = file.programs.into_iter().next().unwrap();
        check_program(&program, &headers).unwrap();
        verify_program(&program, &headers).unwrap();
        program_elements(&program, &file.headers, &headers)
    }

    fn element<'a>(elements: &'a [Element], name: &str) -> &'a Element {
        elements.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn exact_table_demands_sram() {
        let p = parse_program(
            "program p { table t { key { ipv4.src : exact; } size 1024; } }",
        )
        .unwrap();
        let d = table_demand(&p.tables[0], &HeaderRegistry::builtins());
        assert!(d.get(ResourceKind::SramKb) > 0);
        assert_eq!(d.get(ResourceKind::TcamKb), 0);
    }

    #[test]
    fn lpm_table_demands_tcam() {
        let p = parse_program(
            "program p { table t { key { ipv4.dst : lpm; } size 1024; } }",
        )
        .unwrap();
        let d = table_demand(&p.tables[0], &HeaderRegistry::builtins());
        assert_eq!(d.get(ResourceKind::SramKb), 0);
        assert!(d.get(ResourceKind::TcamKb) > 0);
    }

    #[test]
    fn table_demand_scales_with_size() {
        let small = parse_program(
            "program p { table t { key { ipv4.src : exact; } size 1024; } }",
        )
        .unwrap();
        let large = parse_program(
            "program p { table t { key { ipv4.src : exact; } size 65536; } }",
        )
        .unwrap();
        let reg = HeaderRegistry::builtins();
        assert!(
            table_demand(&large.tables[0], &reg).get(ResourceKind::SramKb)
                > table_demand(&small.tables[0], &reg).get(ResourceKind::SramKb)
        );
    }

    #[test]
    fn state_demands_by_kind() {
        let p = parse_program(
            "program p {
               map m : map<u64, u64>[8192];
               counter c;
               register r : u32[512];
               meter lim rate 1 burst 1;
             }",
        )
        .unwrap();
        assert!(state_demand(&p.states[0]).get(ResourceKind::SramKb) > 0);
        assert_eq!(state_demand(&p.states[1]).get(ResourceKind::MeterSlots), 1);
        assert_eq!(
            state_demand(&p.states[2]).get(ResourceKind::RegisterCells),
            512
        );
        assert_eq!(state_demand(&p.states[3]).get(ResourceKind::MeterSlots), 1);
    }

    #[test]
    fn elements_cover_all_parts_with_deps() {
        let elements = elements(
            "header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }
             program p {
               counter c;
               table t {
                 key { ipv4.src : exact; }
                 action a() { count(c); drop(); }
                 size 4;
               }
               handler ingress(pkt) { apply t; forward(1); }
             }",
        );
        let names: Vec<_> = elements.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["vxlan", "c", "t", "ingress"]);
        assert_eq!(element(&elements, "t").deps, vec!["c"]);
        assert_eq!(element(&elements, "ingress").deps, vec!["t"]);
        assert_eq!(element(&elements, "vxlan").kind, ElementKind::Parser);
    }

    #[test]
    fn handler_demand_tracks_ops() {
        let elements =
            elements("program p { handler h(pkt) { repeat (8) { meta.x = meta.x + 1; } forward(1); } }");
        assert!(element(&elements, "h").demand.get(ResourceKind::ActionSlots) > 8);
    }
}
