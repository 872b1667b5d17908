//! The FlexBPF type checker.
//!
//! FlexBPF has a deliberately small type system — packet fields, map values,
//! registers, and locals are unsigned integers of declared widths; conditions
//! are booleans produced by comparisons and logical operators. The checker
//! validates that every name resolves (headers, fields, state, tables,
//! services, locals), that state objects are used according to their kind
//! (you can't `count()` a map), and that booleans and integers don't mix.
//!
//! Keeping the language "analyzable to certify bounded execution \[and\]
//! well-behavedness" (paper §3.1) starts here: anything the checker admits
//! has fully resolved, kind-correct state access, which the verifier and
//! compiler build on.

use crate::ast::*;
use crate::headers::HeaderRegistry;
use flexnet_types::{FlexError, Result};
use std::collections::BTreeMap;

/// The type of a FlexBPF expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// An unsigned integer (widths are advisory; arithmetic is u64).
    Int,
    /// A boolean, produced by comparisons/logical ops and `valid()`.
    Bool,
}

/// Type-checks `program` against the given header registry.
pub fn check_program(program: &Program, headers: &HeaderRegistry) -> Result<()> {
    Checker::new(program, headers)?.check()
}

struct Checker<'a> {
    program: &'a Program,
    headers: &'a HeaderRegistry,
}

impl<'a> Checker<'a> {
    fn new(program: &'a Program, headers: &'a HeaderRegistry) -> Result<Checker<'a>> {
        Ok(Checker { program, headers })
    }

    fn check(&self) -> Result<()> {
        self.check_unique_names()?;
        for t in &self.program.tables {
            self.check_table(t)?;
        }
        for h in &self.program.handlers {
            let mut scope = Scope::default();
            self.check_block(&h.body, &mut scope)
                .map_err(|e| prefix(e, &format!("handler `{}`", h.name)))?;
        }
        Ok(())
    }

    fn check_unique_names(&self) -> Result<()> {
        let mut seen = BTreeMap::new();
        for s in &self.program.states {
            if seen.insert(s.name.clone(), "state").is_some() {
                return Err(FlexError::Type(format!("duplicate name `{}`", s.name)));
            }
        }
        for t in &self.program.tables {
            if seen.insert(t.name.clone(), "table").is_some() {
                return Err(FlexError::Type(format!("duplicate name `{}`", t.name)));
            }
        }
        for svc in &self.program.services {
            if seen.insert(svc.name.clone(), "service").is_some() {
                return Err(FlexError::Type(format!("duplicate name `{}`", svc.name)));
            }
        }
        let mut handlers = BTreeMap::new();
        for h in &self.program.handlers {
            if handlers.insert(h.name.clone(), ()).is_some() {
                return Err(FlexError::Type(format!(
                    "duplicate handler `{}`",
                    h.name
                )));
            }
        }
        Ok(())
    }

    fn state(&self, name: &str) -> Result<&StateDecl> {
        match self.program.state(name) {
            Some(s) => Ok(s),
            None => Err(FlexError::Type(format!("unknown state object `{name}`"))),
        }
    }

    fn expect_state_kind(
        &self,
        name: &str,
        want: &str,
        pred: impl Fn(&StateKind) -> bool,
    ) -> Result<&StateDecl> {
        let s = self.state(name)?;
        if !pred(&s.kind) {
            return Err(FlexError::Type(format!(
                "state `{name}` is not a {want}"
            )));
        }
        Ok(s)
    }

    fn check_field(&self, path: &FieldPath) -> Result<()> {
        match path {
            FieldPath::Header(proto, field) => {
                if !self.headers.has_proto(proto) {
                    return Err(FlexError::Type(format!("unknown protocol `{proto}`")));
                }
                if self.headers.field(proto, field).is_none() {
                    return Err(FlexError::Type(format!(
                        "protocol `{proto}` has no field `{field}`"
                    )));
                }
                Ok(())
            }
            // Metadata slots are dynamically created integer scratch.
            FieldPath::Meta(_) => Ok(()),
        }
    }

    fn check_table(&self, t: &TableDecl) -> Result<()> {
        if t.size == 0 {
            return Err(FlexError::Type(format!("table `{}` has size 0", t.name)));
        }
        if t.keys.is_empty() {
            return Err(FlexError::Type(format!(
                "table `{}` declares no keys",
                t.name
            )));
        }
        for k in &t.keys {
            self.check_field(&k.field)
                .map_err(|e| prefix(e, &format!("table `{}`", t.name)))?;
        }
        let mut action_names = BTreeMap::new();
        for a in &t.actions {
            if action_names.insert(a.name.clone(), ()).is_some() {
                return Err(FlexError::Type(format!(
                    "table `{}` declares action `{}` twice",
                    t.name, a.name
                )));
            }
            let mut scope = Scope::default();
            for (p, _) in &a.params {
                scope.declare(p, Ty::Int)?;
            }
            self.check_block(&a.body, &mut scope)
                .map_err(|e| prefix(e, &format!("action `{}.{}`", t.name, a.name)))?;
        }
        if let Some(d) = &t.default_action {
            let Some(decl) = t.action(&d.action) else {
                return Err(FlexError::Type(format!(
                    "table `{}` default action `{}` is not declared",
                    t.name, d.action
                )));
            };
            if decl.params.len() != d.args.len() {
                return Err(FlexError::Type(format!(
                    "table `{}` default `{}` takes {} args, {} given",
                    t.name,
                    d.action,
                    decl.params.len(),
                    d.args.len()
                )));
            }
        }
        Ok(())
    }

    fn check_block(&self, block: &Block, scope: &mut Scope) -> Result<()> {
        scope.push();
        for stmt in block {
            self.check_stmt(stmt, scope)?;
        }
        scope.pop();
        Ok(())
    }

    fn check_stmt(&self, stmt: &Stmt, scope: &mut Scope) -> Result<()> {
        match stmt {
            Stmt::Let(n, e) => {
                let ty = self.check_expr(e, scope)?;
                scope.declare(n, ty)
            }
            Stmt::AssignLocal(n, e) => {
                let ty = self.check_expr(e, scope)?;
                let declared = scope
                    .lookup(n)
                    .ok_or_else(|| FlexError::Type(format!("unknown local `{n}`")))?;
                if declared != ty {
                    return Err(FlexError::Type(format!(
                        "local `{n}` was {declared:?}, assigned {ty:?}"
                    )));
                }
                Ok(())
            }
            Stmt::AssignField(p, e) => {
                self.check_field(p)?;
                self.expect_int(e, scope, "field assignment")
            }
            Stmt::MapPut(m, k, v) => {
                self.expect_state_kind(m, "map", |k| matches!(k, StateKind::Map { .. }))?;
                self.expect_int(k, scope, "map key")?;
                self.expect_int(v, scope, "map value")
            }
            Stmt::MapDelete(m, k) => {
                self.expect_state_kind(m, "map", |k| matches!(k, StateKind::Map { .. }))?;
                self.expect_int(k, scope, "map key")
            }
            Stmt::RegWrite(r, i, v) => {
                self.expect_state_kind(r, "register", |k| {
                    matches!(k, StateKind::Register { .. })
                })?;
                self.expect_int(i, scope, "register index")?;
                self.expect_int(v, scope, "register value")
            }
            Stmt::Count(c) => {
                self.expect_state_kind(c, "counter", |k| matches!(k, StateKind::Counter))?;
                Ok(())
            }
            Stmt::If(cond, then, els) => {
                let t = self.check_expr(cond, scope)?;
                if t != Ty::Bool {
                    return Err(FlexError::Type(
                        "if condition must be boolean".to_string(),
                    ));
                }
                self.check_block(then, scope)?;
                self.check_block(els, scope)
            }
            Stmt::Repeat(n, body) => {
                if *n == 0 {
                    return Err(FlexError::Type("repeat count must be >= 1".to_string()));
                }
                self.check_block(body, scope)
            }
            Stmt::Apply(t) => {
                if self.program.table(t).is_none() {
                    return Err(FlexError::Type(format!("unknown table `{t}`")));
                }
                Ok(())
            }
            Stmt::Forward(e) => self.expect_int(e, scope, "forward port"),
            Stmt::Drop | Stmt::Punt | Stmt::Recirculate | Stmt::Return => Ok(()),
            Stmt::Invoke(s, args) => {
                let Some(svc) = self.program.services.iter().find(|x| x.name == *s) else {
                    return Err(FlexError::Type(format!("unknown service `{s}`")));
                };
                if svc.params.len() != args.len() {
                    return Err(FlexError::Type(format!(
                        "service `{s}` takes {} args, {} given",
                        svc.params.len(),
                        args.len()
                    )));
                }
                for a in args {
                    self.expect_int(a, scope, "service argument")?;
                }
                Ok(())
            }
            Stmt::AddHeader(p) | Stmt::RemoveHeader(p) => {
                if !self.headers.has_proto(p) {
                    return Err(FlexError::Type(format!("unknown protocol `{p}`")));
                }
                Ok(())
            }
        }
    }

    fn expect_int(&self, e: &Expr, scope: &Scope, what: &str) -> Result<()> {
        match self.check_expr(e, scope)? {
            Ty::Int => Ok(()),
            Ty::Bool => Err(FlexError::Type(format!("{what} must be an integer"))),
        }
    }

    fn check_expr(&self, e: &Expr, scope: &Scope) -> Result<Ty> {
        match e {
            Expr::Int(_) | Expr::PktLen => Ok(Ty::Int),
            Expr::Local(n) => scope
                .lookup(n)
                .ok_or_else(|| FlexError::Type(format!("unknown local `{n}`"))),
            Expr::Field(p) => {
                self.check_field(p)?;
                Ok(Ty::Int)
            }
            Expr::Valid(p) => {
                if !self.headers.has_proto(p) {
                    return Err(FlexError::Type(format!("unknown protocol `{p}`")));
                }
                Ok(Ty::Bool)
            }
            Expr::MapGet(m, k) => {
                self.expect_state_kind(m, "map", |k| matches!(k, StateKind::Map { .. }))?;
                self.expect_int(k, scope, "map key")?;
                Ok(Ty::Int)
            }
            Expr::MapHas(m, k) => {
                self.expect_state_kind(m, "map", |k| matches!(k, StateKind::Map { .. }))?;
                self.expect_int(k, scope, "map key")?;
                Ok(Ty::Bool)
            }
            Expr::RegRead(r, i) => {
                self.expect_state_kind(r, "register", |k| {
                    matches!(k, StateKind::Register { .. })
                })?;
                self.expect_int(i, scope, "register index")?;
                Ok(Ty::Int)
            }
            Expr::CounterRead(c) => {
                self.expect_state_kind(c, "counter", |k| matches!(k, StateKind::Counter))?;
                Ok(Ty::Int)
            }
            Expr::MeterCheck(m, k) => {
                self.expect_state_kind(m, "meter", |k| matches!(k, StateKind::Meter { .. }))?;
                self.expect_int(k, scope, "meter key")?;
                Ok(Ty::Bool)
            }
            Expr::Hash(args) => {
                if args.is_empty() {
                    return Err(FlexError::Type("hash() needs at least one argument".into()));
                }
                for a in args {
                    self.expect_int(a, scope, "hash argument")?;
                }
                Ok(Ty::Int)
            }
            Expr::Bin(op, l, r) => {
                let lt = self.check_expr(l, scope)?;
                let rt = self.check_expr(r, scope)?;
                if op.is_logical() {
                    if lt != Ty::Bool || rt != Ty::Bool {
                        return Err(FlexError::Type(format!(
                            "`{}` requires boolean operands",
                            op.symbol()
                        )));
                    }
                    Ok(Ty::Bool)
                } else if op.is_comparison() {
                    if lt != Ty::Int || rt != Ty::Int {
                        return Err(FlexError::Type(format!(
                            "`{}` requires integer operands",
                            op.symbol()
                        )));
                    }
                    Ok(Ty::Bool)
                } else {
                    if lt != Ty::Int || rt != Ty::Int {
                        return Err(FlexError::Type(format!(
                            "`{}` requires integer operands",
                            op.symbol()
                        )));
                    }
                    Ok(Ty::Int)
                }
            }
            Expr::Un(op, v) => {
                let t = self.check_expr(v, scope)?;
                match op {
                    UnOp::Not => {
                        if t != Ty::Bool {
                            return Err(FlexError::Type("`!` requires a boolean".into()));
                        }
                        Ok(Ty::Bool)
                    }
                    UnOp::BitNot | UnOp::Neg => {
                        if t != Ty::Int {
                            return Err(FlexError::Type("`~`/`-` require integers".into()));
                        }
                        Ok(Ty::Int)
                    }
                }
            }
        }
    }
}

fn prefix(e: FlexError, ctx: &str) -> FlexError {
    match e {
        FlexError::Type(m) => FlexError::Type(format!("in {ctx}: {m}")),
        other => other,
    }
}

/// A lexical scope stack for locals.
#[derive(Default)]
struct Scope {
    frames: Vec<BTreeMap<String, Ty>>,
}

impl Scope {
    fn push(&mut self) {
        self.frames.push(BTreeMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn declare(&mut self, name: &str, ty: Ty) -> Result<()> {
        if self.lookup(name).is_some() {
            return Err(FlexError::Type(format!(
                "local `{name}` is already declared (shadowing is not allowed)"
            )));
        }
        if self.frames.is_empty() {
            self.frames.push(BTreeMap::new());
        }
        self.frames
            .last_mut()
            .expect("frame pushed above")
            .insert(name.to_string(), ty);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Ty> {
        self.frames.iter().rev().find_map(|f| f.get(name).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_source};

    fn check(src: &str) -> Result<()> {
        let file = parse_source(src)?;
        let registry = HeaderRegistry::with_user_headers(&file.headers)?;
        file.programs.iter().try_for_each(|p| check_program(p, &registry))
    }

    #[test]
    fn accepts_well_typed_program() {
        check(
            "program ok kind switch {
               map m : map<u32, u8>[16];
               counter c;
               register r : u64[8];
               meter lim rate 100 burst 10;
               table t {
                 key { ipv4.src : exact; }
                 action a(port: u16) { forward(port); }
                 default a(1);
                 size 8;
               }
               handler ingress(pkt) {
                 let x = map_get(m, ipv4.src) + 1;
                 if (x > 3 && valid(tcp)) {
                   map_put(m, ipv4.src, x);
                   reg_write(r, 0, reg_read(r, 0) + 1);
                   count(c);
                 }
                 if (!meter_check(lim, ipv4.src)) { drop(); }
                 apply t;
               }
             }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(check("program p { handler h(pkt) { apply nope; } }").is_err());
        assert!(check("program p { handler h(pkt) { count(nope); } }").is_err());
        assert!(check("program p { handler h(pkt) { let x = map_get(nope, 1); } }").is_err());
        assert!(check("program p { handler h(pkt) { let x = ipv9.src; } }").is_err());
        assert!(check("program p { handler h(pkt) { let x = ipv4.nofield; } }").is_err());
        assert!(check("program p { handler h(pkt) { invoke nosvc(1); } }").is_err());
    }

    #[test]
    fn rejects_kind_confusion() {
        // counting a map
        assert!(check(
            "program p { map m : map<u32,u8>[4]; handler h(pkt) { count(m); } }"
        )
        .is_err());
        // reading a counter as a register
        assert!(check(
            "program p { counter c; handler h(pkt) { let x = reg_read(c, 0); } }"
        )
        .is_err());
    }

    #[test]
    fn rejects_bool_int_mixing() {
        assert!(check("program p { handler h(pkt) { if (1 + 2) { drop(); } } }").is_err());
        assert!(check("program p { handler h(pkt) { forward(1 == 1); } }").is_err());
        assert!(check("program p { handler h(pkt) { let x = valid(ipv4) + 1; } }").is_err());
        assert!(check("program p { handler h(pkt) { let x = !3; } }").is_err());
        assert!(
            check("program p { handler h(pkt) { let b = 1 == 1; let y = ~b; } }").is_err()
        );
    }

    #[test]
    fn rejects_duplicate_names() {
        assert!(check("program p { counter c; counter c; }").is_err());
        assert!(check(
            "program p { handler h(pkt) { drop(); } handler h(pkt) { drop(); } }"
        )
        .is_err());
        assert!(check(
            "program p { counter x; table x { key { ipv4.src : exact; } size 4; } }"
        )
        .is_err());
    }

    #[test]
    fn rejects_shadowing_and_type_changing_assignment() {
        assert!(check("program p { handler h(pkt) { let x = 1; let x = 2; } }").is_err());
        assert!(
            check("program p { handler h(pkt) { let x = 1; x = 1 == 1; } }").is_err()
        );
        assert!(check("program p { handler h(pkt) { x = 1; } }").is_err());
    }

    #[test]
    fn block_scoping_drops_locals() {
        // `y` declared inside the if-body is not visible after it.
        assert!(check(
            "program p { handler h(pkt) {
               if (valid(ipv4)) { let y = 1; }
               forward(y);
             } }"
        )
        .is_err());
    }

    #[test]
    fn table_validation() {
        assert!(check("program p { table t { key { ipv4.src : exact; } size 0; } }").is_err());
        assert!(check("program p { table t { size 4; } }").is_err(), "no keys");
        assert!(check(
            "program p { table t { key { ipv4.src : exact; }
               action a() { drop(); } action a() { drop(); } size 4; } }"
        )
        .is_err());
        assert!(check(
            "program p { table t { key { ipv4.src : exact; }
               action a(x: u16) { forward(x); } default a(); size 4; } }"
        )
        .is_err());
        assert!(check(
            "program p { table t { key { ipv4.src : exact; } default nope(); size 4; } }"
        )
        .is_err());
    }

    #[test]
    fn service_arity_checked() {
        assert!(check(
            "program p { service require s(a: u32, b: u32);
               handler h(pkt) { invoke s(1); } }"
        )
        .is_err());
    }

    #[test]
    fn user_headers_become_known() {
        check(
            "header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }
             program p { handler h(pkt) { if (valid(vxlan)) { let v = vxlan.vni; } } }",
        )
        .unwrap();
    }

    #[test]
    fn action_params_usable_in_bodies() {
        let p = parse_program(
            "program p { table t { key { ipv4.src : exact; }
               action set(port: u16, mark: u32) { meta.m = mark; forward(port); }
               size 4; } }",
        )
        .unwrap();
        check_program(&p, &HeaderRegistry::builtins()).unwrap();
    }

    #[test]
    fn repeat_zero_rejected() {
        // Parses (it's an INT token) but the checker rejects it.
        assert!(check("program p { handler h(pkt) { repeat (0) { drop(); } } }").is_err());
    }

    #[test]
    fn hash_requires_args() {
        assert!(check("program p { handler h(pkt) { let x = hash(); } }").is_err());
        check("program p { handler h(pkt) { let x = hash(ipv4.src, ipv4.dst); } }").unwrap();
    }
}
