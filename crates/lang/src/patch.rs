//! The incremental-change DSL ("patch programs").
//!
//! Paper §3.2: "Our goal is to develop a domain-specific language that
//! concisely specif\[ies\] where, when, and how an existing FlexNet program is
//! updated. Programs in this DSL precisely model the changes that need to be
//! made, without having to re-specify the entire stacks all over again. For
//! instance, this DSL may expose name matching utilities (e.g., via pattern
//! matches on match/action tables and actions) to programmatically select
//! and modify" parts of the base program.
//!
//! Syntax:
//!
//! ```text
//! patch add_rate_limit on firewall {
//!   add map seen : map<u64, u64>[256];
//!   add table rate before acl { key { ipv4.src : exact; } size 64; }
//!   add handler egress(pkt) { forward(1); }
//!   modify handler ingress { prepend { if (meta.x == 1) { drop(); } } }
//!   resize table acl to 512;
//!   set_default acl deny();
//!   remove table old_table;
//!   remove tables matching "tmp_*";
//! }
//! ```
//!
//! Applying a patch produces a *new* [`ProgramBundle`] that shares every
//! declaration the patch leaves alone with its base and un-shares
//! (`Arc::make_mut`) each one it edits; callers re-run the
//! type checker and verifier on the result, then diff old vs. new
//! ([`crate::diff::diff_bundles`]) to obtain the runtime reconfiguration
//! operations. The patch itself never touches a live device.

use crate::ast::*;
use crate::diff::ProgramBundle;
use crate::lexer::lex;
use crate::parser::Parser;
use crate::token::TokenKind;
use flexnet_types::{FlexError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Where an added table goes relative to existing tables (placement
/// adjacency matters for incremental recompilation, paper §3.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TablePosition {
    /// Append after all existing tables.
    Append,
    /// Insert before the named table.
    Before(String),
    /// Insert after the named table.
    After(String),
}

/// How a handler body is modified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModifyMode {
    /// New statements run before the existing body.
    Prepend,
    /// New statements run after the existing body.
    Append,
    /// The body is replaced outright.
    Replace,
}

/// One operation of a patch program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatchOp {
    /// `add map|counter|register|meter …`
    AddState(Arc<StateDecl>),
    /// `add header …`
    AddHeader(Arc<HeaderDecl>),
    /// `add table [before|after NAME] { … }`
    AddTable(Arc<TableDecl>, TablePosition),
    /// `add service …`
    AddService(Arc<ServiceDecl>),
    /// `add handler NAME(pkt) { … }`
    AddHandler(Arc<Handler>),
    /// `remove table NAME;`
    RemoveTable(String),
    /// `remove state NAME;`
    RemoveState(String),
    /// `remove header NAME;`
    RemoveHeader(String),
    /// `remove handler NAME;`
    RemoveHandler(String),
    /// `remove service NAME;`
    RemoveService(String),
    /// `remove tables matching "GLOB";`
    RemoveTablesMatching(String),
    /// `resize table NAME to SIZE;`
    ResizeTable(String, u64),
    /// `set_default TABLE ACTION(args…);`
    SetDefault(String, ActionCall),
    /// `modify handler NAME { prepend|append|replace { … } }`
    ModifyHandler(String, ModifyMode, Block),
}

/// A parsed patch program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Patch {
    /// Patch name (for management/audit).
    pub name: String,
    /// Name of the program this patch applies to.
    pub target: String,
    /// Operations, applied in order.
    pub ops: Vec<PatchOp>,
}

/// Parses a patch program.
pub fn parse_patch(src: &str) -> Result<Patch> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let patch = parse_patch_body(&mut p)?;
    if !p.at_eof() {
        return Err(p.error_here("trailing input after patch"));
    }
    Ok(patch)
}

fn parse_patch_body(p: &mut Parser) -> Result<Patch> {
    p.keyword("patch")?;
    let name = p.ident()?;
    p.keyword("on")?;
    let target = p.ident()?;
    p.expect(&TokenKind::LBrace)?;
    let mut ops = Vec::new();
    loop {
        if p.expect(&TokenKind::RBrace).is_ok() {
            break;
        }
        if p.eat_keyword("add") {
            if let Some(state) = p.try_parse_state_decl()? {
                ops.push(PatchOp::AddState(Arc::new(state)));
            } else if matches!(peek_kw(p).as_deref(), Some("header")) {
                ops.push(PatchOp::AddHeader(Arc::new(p.parse_header_decl()?)));
            } else if matches!(peek_kw(p).as_deref(), Some("service")) {
                ops.push(PatchOp::AddService(Arc::new(p.parse_service_decl()?)));
            } else if matches!(peek_kw(p).as_deref(), Some("handler")) {
                ops.push(PatchOp::AddHandler(Arc::new(p.parse_handler()?)));
            } else if matches!(peek_kw(p).as_deref(), Some("table")) {
                // `add table NAME [before|after OTHER] { … }` — we parse the
                // name, then an optional position, then hand the body to the
                // table parser by re-synthesizing the header tokens. Simpler:
                // parse position between name and `{`.
                ops.push(parse_add_table(p)?);
            } else {
                return Err(p.error_here("expected a declaration after `add`"));
            }
        } else if p.eat_keyword("remove") {
            if p.eat_keyword("table") {
                let n = p.ident()?;
                p.expect(&TokenKind::Semi)?;
                ops.push(PatchOp::RemoveTable(n));
            } else if p.eat_keyword("tables") {
                p.keyword("matching")?;
                let pat = p.string()?;
                p.expect(&TokenKind::Semi)?;
                ops.push(PatchOp::RemoveTablesMatching(pat));
            } else if p.eat_keyword("state") {
                let n = p.ident()?;
                p.expect(&TokenKind::Semi)?;
                ops.push(PatchOp::RemoveState(n));
            } else if p.eat_keyword("header") {
                let n = p.ident()?;
                p.expect(&TokenKind::Semi)?;
                ops.push(PatchOp::RemoveHeader(n));
            } else if p.eat_keyword("handler") {
                let n = p.ident()?;
                p.expect(&TokenKind::Semi)?;
                ops.push(PatchOp::RemoveHandler(n));
            } else if p.eat_keyword("service") {
                let n = p.ident()?;
                p.expect(&TokenKind::Semi)?;
                ops.push(PatchOp::RemoveService(n));
            } else {
                return Err(p.error_here(
                    "expected table/tables/state/header/handler/service after `remove`",
                ));
            }
        } else if p.eat_keyword("resize") {
            p.keyword("table")?;
            let n = p.ident()?;
            p.keyword("to")?;
            let size = p.int()?;
            p.expect(&TokenKind::Semi)?;
            ops.push(PatchOp::ResizeTable(n, size));
        } else if p.eat_keyword("set_default") {
            let table = p.ident()?;
            let action = p.ident()?;
            p.expect(&TokenKind::LParen)?;
            let mut args = Vec::new();
            if p.expect(&TokenKind::RParen).is_err() {
                loop {
                    args.push(p.int()?);
                    if p.expect(&TokenKind::RParen).is_ok() {
                        break;
                    }
                    p.expect(&TokenKind::Comma)?;
                }
            }
            p.expect(&TokenKind::Semi)?;
            ops.push(PatchOp::SetDefault(table, ActionCall { action, args }));
        } else if p.eat_keyword("modify") {
            p.keyword("handler")?;
            let n = p.ident()?;
            p.expect(&TokenKind::LBrace)?;
            let mode = if p.eat_keyword("prepend") {
                ModifyMode::Prepend
            } else if p.eat_keyword("append") {
                ModifyMode::Append
            } else if p.eat_keyword("replace") {
                ModifyMode::Replace
            } else {
                return Err(p.error_here("expected prepend/append/replace"));
            };
            let body = p.parse_block()?;
            p.expect(&TokenKind::RBrace)?;
            ops.push(PatchOp::ModifyHandler(n, mode, body));
        } else {
            return Err(p.error_here("expected a patch operation"));
        }
    }
    Ok(Patch { name, target, ops })
}

fn peek_kw(p: &Parser) -> Option<String> {
    p.peek_ident()
}

fn parse_add_table(p: &mut Parser) -> Result<PatchOp> {
    // The table parser expects `table NAME { … }`; we intercept the optional
    // position between the name and the brace.
    p.keyword("table")?;
    let name = p.ident()?;
    let position = if p.eat_keyword("before") {
        TablePosition::Before(p.ident()?)
    } else if p.eat_keyword("after") {
        TablePosition::After(p.ident()?)
    } else {
        TablePosition::Append
    };
    let mut decl = p.parse_table_body()?;
    decl.name = name;
    Ok(PatchOp::AddTable(Arc::new(decl), position))
}

/// A simple glob matcher supporting `*` (any run) and `?` (any one char).
pub fn glob_match(pattern: &str, name: &str) -> bool {
    fn inner(p: &[u8], n: &[u8]) -> bool {
        match (p.first(), n.first()) {
            (None, None) => true,
            (Some(b'*'), _) => {
                inner(&p[1..], n) || (!n.is_empty() && inner(p, &n[1..]))
            }
            (Some(b'?'), Some(_)) => inner(&p[1..], &n[1..]),
            (Some(a), Some(b)) if a == b => inner(&p[1..], &n[1..]),
            _ => false,
        }
    }
    inner(pattern.as_bytes(), name.as_bytes())
}

/// Applies `patch` to `base`, producing the patched bundle.
///
/// The result must be re-checked (`typecheck`) and re-certified (`verifier`)
/// before installation; `apply_patch` validates only structural properties
/// (names exist, no duplicates).
pub fn apply_patch(base: &ProgramBundle, patch: &Patch) -> Result<ProgramBundle> {
    if base.program.name != patch.target {
        return Err(FlexError::Patch(format!(
            "patch `{}` targets `{}` but base program is `{}`",
            patch.name, patch.target, base.program.name
        )));
    }
    let mut out = base.clone();
    for op in &patch.ops {
        apply_op(&mut out, op, &patch.name)?;
    }
    Ok(out)
}

fn apply_op(out: &mut ProgramBundle, op: &PatchOp, patch_name: &str) -> Result<()> {
    let missing = |what: &str, name: &str| {
        FlexError::Patch(format!("patch `{patch_name}`: {what} `{name}` does not exist"))
    };
    let duplicate = |what: &str, name: &str| {
        FlexError::Patch(format!("patch `{patch_name}`: {what} `{name}` already exists"))
    };
    match op {
        PatchOp::AddState(s) => {
            if out.program.state(&s.name).is_some() {
                return Err(duplicate("state", &s.name));
            }
            out.program.states.push(s.clone());
        }
        PatchOp::AddHeader(h) => {
            if out.headers.iter().any(|x| x.name == h.name) {
                return Err(duplicate("header", &h.name));
            }
            out.headers.push(h.clone());
        }
        PatchOp::AddTable(t, pos) => {
            if out.program.table(&t.name).is_some() {
                return Err(duplicate("table", &t.name));
            }
            let idx = match pos {
                TablePosition::Append => out.program.tables.len(),
                TablePosition::Before(other) => out
                    .program
                    .tables
                    .iter()
                    .position(|x| &x.name == other)
                    .ok_or_else(|| missing("table", other))?,
                TablePosition::After(other) => {
                    out.program
                        .tables
                        .iter()
                        .position(|x| &x.name == other)
                        .ok_or_else(|| missing("table", other))?
                        + 1
                }
            };
            out.program.tables.insert(idx, t.clone());
        }
        PatchOp::AddService(s) => {
            if out.program.services.iter().any(|x| x.name == s.name) {
                return Err(duplicate("service", &s.name));
            }
            out.program.services.push(s.clone());
        }
        PatchOp::AddHandler(h) => {
            if out.program.handler(&h.name).is_some() {
                return Err(duplicate("handler", &h.name));
            }
            out.program.handlers.push(h.clone());
        }
        PatchOp::RemoveTable(n) => {
            let before = out.program.tables.len();
            out.program.tables.retain(|t| &t.name != n);
            if out.program.tables.len() == before {
                return Err(missing("table", n));
            }
        }
        PatchOp::RemoveState(n) => {
            let before = out.program.states.len();
            out.program.states.retain(|s| &s.name != n);
            if out.program.states.len() == before {
                return Err(missing("state", n));
            }
        }
        PatchOp::RemoveHeader(n) => {
            let before = out.headers.len();
            out.headers.retain(|h| &h.name != n);
            if out.headers.len() == before {
                return Err(missing("header", n));
            }
        }
        PatchOp::RemoveHandler(n) => {
            let before = out.program.handlers.len();
            out.program.handlers.retain(|h| &h.name != n);
            if out.program.handlers.len() == before {
                return Err(missing("handler", n));
            }
        }
        PatchOp::RemoveService(n) => {
            let before = out.program.services.len();
            out.program.services.retain(|s| &s.name != n);
            if out.program.services.len() == before {
                return Err(missing("service", n));
            }
        }
        PatchOp::RemoveTablesMatching(pat) => {
            // Pattern removals are allowed to match nothing: patches written
            // against a family of deployments use them for cleanup.
            out.program.tables.retain(|t| !glob_match(pat, &t.name));
        }
        PatchOp::ResizeTable(n, size) => {
            if *size == 0 {
                return Err(FlexError::Patch(format!(
                    "patch `{patch_name}`: cannot resize table `{n}` to 0"
                )));
            }
            let t = out
                .program
                .tables
                .iter_mut()
                .find(|t| &t.name == n)
                .ok_or_else(|| missing("table", n))?;
            Arc::make_mut(t).size = *size;
        }
        PatchOp::SetDefault(n, call) => {
            let t = out
                .program
                .tables
                .iter_mut()
                .find(|t| &t.name == n)
                .ok_or_else(|| missing("table", n))?;
            let Some(decl) = t.action(&call.action) else {
                return Err(FlexError::Patch(format!(
                    "patch `{patch_name}`: table `{n}` has no action `{}`",
                    call.action
                )));
            };
            if decl.params.len() != call.args.len() {
                return Err(FlexError::Patch(format!(
                    "patch `{patch_name}`: default `{}` arity mismatch",
                    call.action
                )));
            }
            Arc::make_mut(t).default_action = Some(call.clone());
        }
        PatchOp::ModifyHandler(n, mode, body) => {
            let h = out
                .program
                .handlers
                .iter_mut()
                .find(|h| &h.name == n)
                .ok_or_else(|| missing("handler", n))?;
            let h = Arc::make_mut(h);
            match mode {
                ModifyMode::Prepend => {
                    let mut nb = body.clone();
                    nb.append(&mut h.body);
                    h.body = nb;
                }
                ModifyMode::Append => h.body.extend(body.iter().cloned()),
                ModifyMode::Replace => h.body = body.clone(),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn base() -> ProgramBundle {
        let file = parse_source(
            "program fw kind switch {
               counter dropped;
               table acl {
                 key { ipv4.src : exact; }
                 action deny() { drop(); }
                 action allow() { forward(1); }
                 default allow();
                 size 128;
               }
               table tmp_probe { key { ipv4.dst : exact; } size 4; }
               table tmp_trace { key { tcp.dport : exact; } size 4; }
               handler ingress(pkt) { apply acl; forward(1); }
             }",
        )
        .unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    #[test]
    fn parse_and_apply_full_patch() {
        let patch = parse_patch(
            r#"patch hardening on fw {
                 add map seen : map<u64, u64>[256];
                 add counter syns;
                 add table rate before acl {
                   key { ipv4.src : exact; }
                   action limit() { drop(); }
                   size 64;
                 }
                 add handler egress(pkt) { forward(2); }
                 modify handler ingress { prepend { if (valid(tcp)) { count(syns); } } }
                 resize table acl to 512;
                 set_default acl deny();
                 remove tables matching "tmp_*";
               }"#,
        )
        .unwrap();
        assert_eq!(patch.name, "hardening");
        assert_eq!(patch.target, "fw");
        assert_eq!(patch.ops.len(), 8);

        let out = apply_patch(&base(), &patch).unwrap();
        // New table inserted before acl.
        assert_eq!(out.program.tables[0].name, "rate");
        assert_eq!(out.program.tables[1].name, "acl");
        // tmp_* removed.
        assert!(out.program.table("tmp_probe").is_none());
        assert!(out.program.table("tmp_trace").is_none());
        // acl resized, default switched.
        let acl = out.program.table("acl").unwrap();
        assert_eq!(acl.size, 512);
        assert_eq!(acl.default_action.as_ref().unwrap().action, "deny");
        // Handler prepended.
        let h = out.program.handler("ingress").unwrap();
        assert!(matches!(&h.body[0], Stmt::If(..)));
        assert_eq!(h.body.len(), 3);
        // New handler and state.
        assert!(out.program.handler("egress").is_some());
        assert!(out.program.state("seen").is_some());
        assert!(out.program.state("syns").is_some());
        // Patched result still type checks and verifies.
        let reg = crate::headers::HeaderRegistry::with_user_headers(&out.headers).unwrap();
        crate::typecheck::check_program(&out.program, &reg).unwrap();
        crate::verifier::verify_program(&out.program, &reg).unwrap();
    }

    #[test]
    fn wrong_target_rejected() {
        let patch = parse_patch("patch x on other { remove table acl; }").unwrap();
        assert!(apply_patch(&base(), &patch).is_err());
    }

    #[test]
    fn missing_and_duplicate_names_rejected() {
        let p = parse_patch("patch x on fw { remove table nope; }").unwrap();
        assert!(apply_patch(&base(), &p).is_err());
        let p = parse_patch("patch x on fw { add counter dropped; }").unwrap();
        assert!(apply_patch(&base(), &p).is_err());
        let p = parse_patch("patch x on fw { modify handler nope { append { drop(); } } }")
            .unwrap();
        assert!(apply_patch(&base(), &p).is_err());
        let p = parse_patch(
            "patch x on fw { add table t after nope { key { ipv4.src : exact; } size 4; } }",
        )
        .unwrap();
        assert!(apply_patch(&base(), &p).is_err());
    }

    #[test]
    fn set_default_validates_action() {
        let p = parse_patch("patch x on fw { set_default acl nope(); }").unwrap();
        assert!(apply_patch(&base(), &p).is_err());
        let p = parse_patch("patch x on fw { set_default acl deny(7); }").unwrap();
        assert!(apply_patch(&base(), &p).is_err(), "arity mismatch");
    }

    #[test]
    fn replace_and_append_handler_modes() {
        let p = parse_patch(
            "patch x on fw { modify handler ingress { replace { drop(); } } }",
        )
        .unwrap();
        let out = apply_patch(&base(), &p).unwrap();
        assert_eq!(out.program.handler("ingress").unwrap().body, vec![Stmt::Drop]);

        let p = parse_patch(
            "patch x on fw { modify handler ingress { append { punt(); } } }",
        )
        .unwrap();
        let out = apply_patch(&base(), &p).unwrap();
        let body = &out.program.handler("ingress").unwrap().body;
        assert!(matches!(body.last(), Some(Stmt::Punt)));
    }

    #[test]
    fn add_table_after_position() {
        let p = parse_patch(
            "patch x on fw { add table t2 after acl { key { ipv4.src : exact; } size 4; } }",
        )
        .unwrap();
        let out = apply_patch(&base(), &p).unwrap();
        let names: Vec<_> = out.program.tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["acl", "t2", "tmp_probe", "tmp_trace"]);
    }

    #[test]
    fn glob_matcher() {
        assert!(glob_match("tmp_*", "tmp_probe"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("a?c", "abbc"));
        assert!(!glob_match("tmp_*", "temp"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("*_*", "a_b"));
    }

    #[test]
    fn remove_header_roundtrip() {
        let mut b = base();
        b.headers.push(HeaderDecl {
            name: "vxlan".into(),
            fields: vec![FieldDecl {
                name: "vni".into(),
                width: 24,
            }],
            follows: None,
        }.into());
        let p = parse_patch("patch x on fw { remove header vxlan; }").unwrap();
        let out = apply_patch(&b, &p).unwrap();
        assert!(out.headers.is_empty());
        assert!(apply_patch(&out, &p).is_err(), "double remove fails");
    }

    #[test]
    fn resize_to_zero_rejected() {
        let p = parse_patch("patch x on fw { resize table acl to 0; }").unwrap();
        assert!(apply_patch(&base(), &p).is_err());
    }
}
