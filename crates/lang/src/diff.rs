//! Program diffing: computing the reconfiguration operations that turn one
//! installed program into another.
//!
//! Runtime changes "are simply additions, deletions, or changes to the
//! existing programs" (paper §3.2). The data plane applies changes as a
//! sequence of [`ReconfigOp`]s — the same primitives the paper reports for
//! Spectrum switches (§2: "match/action tables can be added and removed
//! on-the-fly … parser states can be similarly manipulated").

use crate::ast::*;
use std::sync::Arc;

/// A program together with the user header types it requires — the unit
/// installed on a device. Every declaration sits behind an `Arc`, so a
/// clone copies six vectors of pointers and a name, never a declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramBundle {
    /// User-declared header types (parser additions).
    pub headers: Vec<Arc<HeaderDecl>>,
    /// The program.
    pub program: Program,
}

impl ProgramBundle {
    /// Wraps a program with no user headers.
    pub fn new(program: Program) -> ProgramBundle {
        ProgramBundle {
            headers: Vec::new(),
            program,
        }
    }
}

/// One primitive runtime reconfiguration of a device program. An op that
/// brings a declaration shares the target bundle's, it does not copy it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigOp {
    /// Install a new match/action table.
    AddTable(Arc<TableDecl>),
    /// Remove a table (and its entries).
    RemoveTable(String),
    /// Replace a table's definition in place (keys/actions/size changed).
    ModifyTable(Arc<TableDecl>),
    /// Install a new state object.
    AddState(Arc<StateDecl>),
    /// Remove a state object (its contents are lost).
    RemoveState(String),
    /// Replace a state object's declaration (size/kind changed).
    ModifyState(Arc<StateDecl>),
    /// Add a parser state for a new header type.
    AddParserState(Arc<HeaderDecl>),
    /// Remove a parser state.
    RemoveParserState(String),
    /// Install or replace a handler.
    SetHandler(Arc<Handler>),
    /// Remove a handler.
    RemoveHandler(String),
    /// Add a service binding.
    AddService(Arc<ServiceDecl>),
    /// Remove a service binding.
    RemoveService(String),
}

impl ReconfigOp {
    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            ReconfigOp::AddTable(t) => format!("add table `{}`", t.name),
            ReconfigOp::RemoveTable(n) => format!("remove table `{n}`"),
            ReconfigOp::ModifyTable(t) => format!("modify table `{}`", t.name),
            ReconfigOp::AddState(s) => format!("add state `{}`", s.name),
            ReconfigOp::RemoveState(n) => format!("remove state `{n}`"),
            ReconfigOp::ModifyState(s) => format!("modify state `{}`", s.name),
            ReconfigOp::AddParserState(h) => format!("add parser state `{}`", h.name),
            ReconfigOp::RemoveParserState(n) => format!("remove parser state `{n}`"),
            ReconfigOp::SetHandler(h) => format!("set handler `{}`", h.name),
            ReconfigOp::RemoveHandler(n) => format!("remove handler `{n}`"),
            ReconfigOp::AddService(s) => format!("add service `{}`", s.name),
            ReconfigOp::RemoveService(n) => format!("remove service `{n}`"),
        }
    }
}

/// Looks declarations up by name in one list, trying first the entry
/// after the last one found. Two successive compositions list what they
/// share in the same order, so walking one list finds each name of it in
/// the other at the cursor: one comparison, not a scan. A miss there scans
/// the list. Names are unique in a program the checker passed, so the
/// entry found either way is the only one of that name.
struct Lookup<'a, T> {
    decls: &'a [Arc<T>],
    next: usize,
    name: fn(&T) -> &str,
}

impl<'a, T> Lookup<'a, T> {
    fn new(decls: &'a [Arc<T>], name: fn(&T) -> &str) -> Lookup<'a, T> {
        Lookup {
            decls,
            next: 0,
            name,
        }
    }

    fn find(&mut self, name: &str) -> Option<&'a Arc<T>> {
        let named = |d: &Arc<T>| (self.name)(d) == name;
        let at = match self.decls.get(self.next) {
            Some(d) if named(d) => self.next,
            _ => self.decls.iter().position(named)?,
        };
        self.next = at + 1;
        Some(&self.decls[at])
    }
}

/// Computes the ops that transform `old` into `new`.
///
/// The returned sequence is ordered additions-first (state before tables
/// before handlers, so new handlers never reference missing elements),
/// removals last — matching how a hitless reconfiguration engine must stage
/// changes so that both the old and the new program are runnable throughout
/// the transition. A declaration both bundles share is recognised by
/// address (`Arc`'s `==` looks there first) before it is compared by value.
/// Both programs are expected to have passed the checker, so that each
/// name names one declaration; for an `old` that declares a name twice,
/// which of the two a declaration of `new` is compared with is unspecified.
pub fn diff_bundles(old: &ProgramBundle, new: &ProgramBundle) -> Vec<ReconfigOp> {
    let mut ops = Vec::new();
    let (old_p, new_p) = (&old.program, &new.program);

    // Parser additions first: new tables/handlers may match on new headers.
    let mut olds = Lookup::new(&old.headers, |h| &h.name);
    for h in &new.headers {
        match olds.find(&h.name) {
            None => ops.push(ReconfigOp::AddParserState(h.clone())),
            Some(o) if o != h => {
                // Header redefinition = remove + add (parsers have no
                // in-place modify on real hardware).
                ops.push(ReconfigOp::RemoveParserState(h.name.clone()));
                ops.push(ReconfigOp::AddParserState(h.clone()));
            }
            _ => {}
        }
    }

    let mut olds = Lookup::new(&old_p.states, |s| &s.name);
    for s in &new_p.states {
        match olds.find(&s.name) {
            None => ops.push(ReconfigOp::AddState(s.clone())),
            Some(o) if o != s => ops.push(ReconfigOp::ModifyState(s.clone())),
            _ => {}
        }
    }

    let mut olds = Lookup::new(&old_p.tables, |t| &t.name);
    for t in &new_p.tables {
        match olds.find(&t.name) {
            None => ops.push(ReconfigOp::AddTable(t.clone())),
            Some(o) if o != t => ops.push(ReconfigOp::ModifyTable(t.clone())),
            _ => {}
        }
    }

    let mut olds = Lookup::new(&old_p.services, |s| &s.name);
    for svc in &new_p.services {
        match olds.find(&svc.name) {
            None => ops.push(ReconfigOp::AddService(svc.clone())),
            Some(o) if o != svc => {
                ops.push(ReconfigOp::RemoveService(svc.name.clone()));
                ops.push(ReconfigOp::AddService(svc.clone()));
            }
            _ => {}
        }
    }

    let mut olds = Lookup::new(&old_p.handlers, |h| &h.name);
    for h in &new_p.handlers {
        match olds.find(&h.name) {
            None => ops.push(ReconfigOp::SetHandler(h.clone())),
            Some(o) if o != h => ops.push(ReconfigOp::SetHandler(h.clone())),
            _ => {}
        }
    }

    // Removals, in reverse dependency order: handlers, services, tables,
    // state, parser states.
    let mut news = Lookup::new(&new_p.handlers, |h| &h.name);
    for h in &old_p.handlers {
        if news.find(&h.name).is_none() {
            ops.push(ReconfigOp::RemoveHandler(h.name.clone()));
        }
    }
    let mut news = Lookup::new(&new_p.services, |s| &s.name);
    for svc in &old_p.services {
        if news.find(&svc.name).is_none() {
            ops.push(ReconfigOp::RemoveService(svc.name.clone()));
        }
    }
    let mut news = Lookup::new(&new_p.tables, |t| &t.name);
    for t in &old_p.tables {
        if news.find(&t.name).is_none() {
            ops.push(ReconfigOp::RemoveTable(t.name.clone()));
        }
    }
    let mut news = Lookup::new(&new_p.states, |s| &s.name);
    for s in &old_p.states {
        if news.find(&s.name).is_none() {
            ops.push(ReconfigOp::RemoveState(s.name.clone()));
        }
    }
    let mut news = Lookup::new(&new.headers, |h| &h.name);
    for h in &old.headers {
        if news.find(&h.name).is_none() {
            ops.push(ReconfigOp::RemoveParserState(h.name.clone()));
        }
    }

    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    #[test]
    fn identical_programs_diff_to_nothing() {
        let a = bundle("program p { counter c; handler h(pkt) { count(c); forward(1); } }");
        assert!(diff_bundles(&a, &a.clone()).is_empty());
    }

    #[test]
    fn added_table_and_state_detected() {
        let old = bundle("program p { handler h(pkt) { forward(1); } }");
        let new = bundle(
            "program p {
               counter c;
               table t { key { ipv4.src : exact; } size 4; }
               handler h(pkt) { apply t; forward(1); }
             }",
        );
        let ops = diff_bundles(&old, &new);
        assert!(ops.contains(&ReconfigOp::AddState(new.program.states[0].clone())));
        assert!(ops.contains(&ReconfigOp::AddTable(new.program.tables[0].clone())));
        // Handler changed, so it is re-set.
        assert!(ops
            .iter()
            .any(|o| matches!(o, ReconfigOp::SetHandler(h) if h.name == "h")));
        // Additions come before the (here absent) removals, and state
        // precedes tables precedes handlers.
        let idx = |pred: &dyn Fn(&ReconfigOp) -> bool| ops.iter().position(pred).unwrap();
        assert!(
            idx(&|o| matches!(o, ReconfigOp::AddState(_)))
                < idx(&|o| matches!(o, ReconfigOp::AddTable(_)))
        );
        assert!(
            idx(&|o| matches!(o, ReconfigOp::AddTable(_)))
                < idx(&|o| matches!(o, ReconfigOp::SetHandler(_)))
        );
    }

    #[test]
    fn removed_elements_detected_after_additions() {
        let old = bundle(
            "program p {
               counter c;
               table t { key { ipv4.src : exact; } size 4; }
               handler h(pkt) { forward(1); }
             }",
        );
        let new = bundle("program p { handler h(pkt) { forward(1); } }");
        let ops = diff_bundles(&old, &new);
        assert_eq!(
            ops,
            vec![
                ReconfigOp::RemoveTable("t".into()),
                ReconfigOp::RemoveState("c".into()),
            ]
        );
    }

    #[test]
    fn modified_table_uses_modify_op() {
        let old = bundle("program p { table t { key { ipv4.src : exact; } size 4; } }");
        let new = bundle("program p { table t { key { ipv4.src : exact; } size 99; } }");
        let ops = diff_bundles(&old, &new);
        assert_eq!(ops.len(), 1);
        assert!(matches!(&ops[0], ReconfigOp::ModifyTable(t) if t.size == 99));
    }

    #[test]
    fn parser_states_tracked() {
        let old = bundle("program p { handler h(pkt) { forward(1); } }");
        let new = bundle(
            "header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }
             program p { handler h(pkt) { forward(1); } }",
        );
        let ops = diff_bundles(&old, &new);
        assert!(matches!(&ops[0], ReconfigOp::AddParserState(h) if h.name == "vxlan"));
        let back = diff_bundles(&new, &old);
        assert!(matches!(&back[0], ReconfigOp::RemoveParserState(n) if n == "vxlan"));
    }

    #[test]
    fn header_redefinition_is_remove_then_add() {
        let old = bundle(
            "header x { fields { a: 8; } }
             program p { handler h(pkt) { forward(1); } }",
        );
        let new = bundle(
            "header x { fields { a: 16; } }
             program p { handler h(pkt) { forward(1); } }",
        );
        let ops = diff_bundles(&old, &new);
        assert_eq!(
            ops,
            vec![
                ReconfigOp::RemoveParserState("x".into()),
                ReconfigOp::AddParserState(new.headers[0].clone()),
            ]
        );
    }

    #[test]
    fn describe_is_human_readable() {
        assert_eq!(
            ReconfigOp::RemoveTable("acl".into()).describe(),
            "remove table `acl`"
        );
    }
}
