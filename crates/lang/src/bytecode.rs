//! Slot-resolved bytecode: the packet path's one engine.
//!
//! A program that walked the AST per packet would resolve every table/map/
//! register/counter/meter/service reference by *name* — exactly the cost
//! the paper says runtime programmability must not impose on the data
//! plane. This module lowers a type-checked program **once, at
//! install/flip time**, into a flat instruction array in which every symbol
//! is a dense `u16` slot index and every protocol and field name is an
//! interned [`flexnet_types::Sym`]. Devices keep a matching slot-indexed
//! state plane and swap whole compiled images atomically on a flip, so the
//! old-XOR-new reconfiguration semantics are untouched.
//!
//! The lowering is **exactly** semantics- and ops-count-preserving with
//! respect to the source: every AST node that ticks the abstract op counter
//! compiles to exactly one ticking instruction (jump/glue instructions tick
//! zero), short-circuit evaluation skips the same sub-expressions, and
//! runtime error messages on the reachable error paths (action arity
//! mismatches) are byte-identical. The tests hold this line against a
//! tree-walking reference interpreter (`tests/common/interp.rs`) run in
//! lockstep.
//!
//! Name resolution failures surface here, at compile time, as
//! [`FlexError::UnresolvedSymbol`] — never as a silent per-packet miss.

use crate::ast::*;
use crate::headers::HeaderRegistry;
use flexnet_types::hash::{fnv_step, FNV_OFFSET};
use flexnet_types::{FlexError, Header, Packet, Result, Sym, Trap, Verdict};
use std::collections::BTreeMap;

/// The widest table key (in field count) the VM will build at runtime.
/// Statically-typechecked programs never get near it; a runtime
/// reconfiguration that grafts a wider table onto a live program trips
/// [`Trap::KeyOverflow`] instead of unbounded key-build work.
pub const MAX_TABLE_KEY_WIDTH: usize = 16;

/// The result of running one handler over one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// The verdict, or `None` when the handler fell through / `return`ed
    /// without one (the device applies its default behaviour), and always
    /// `None` when the packet trapped.
    pub verdict: Option<Verdict>,
    /// Abstract operations executed (for device latency models). On a trap
    /// this is the gas consumed up to and including the trapping operation.
    pub ops: u64,
    /// The trap that ended execution, if any. A trapped packet carries no
    /// verdict; the device fails closed (drops) and accounts the trap.
    pub trap: Option<Trap>,
}

/// The kind of symbol a [`SlotResolver`] is asked to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A match/action table.
    Table,
    /// A key/value map state object.
    Map,
    /// A register array state object.
    Register,
    /// A counter state object.
    Counter,
    /// A meter state object.
    Meter,
    /// A dRPC service.
    Service,
}

impl SymbolKind {
    /// The single-token label used in [`FlexError::UnresolvedSymbol`].
    pub fn as_str(&self) -> &'static str {
        match self {
            SymbolKind::Table => "table",
            SymbolKind::Map => "map",
            SymbolKind::Register => "register",
            SymbolKind::Counter => "counter",
            SymbolKind::Meter => "meter",
            SymbolKind::Service => "service",
        }
    }
}

/// Maps symbol names to the dense slot indices of a concrete state plane.
///
/// The device models implement this over their slot-indexed table sets and
/// state planes.
pub trait SlotResolver {
    /// Resolves `name` of `kind` to its slot, or `None` if the target
    /// image does not provide it.
    fn resolve(&self, kind: SymbolKind, name: &str) -> Option<u16>;
}

/// The environment compiled programs execute against: the device's state
/// plane addressed by dense slot indices instead of names.
///
/// Mirrors the reference interpreter's name-keyed environment operation
/// for operation; the only structural change is `table_lookup`, which
/// returns the matched entry's *resolved action index* and a borrow of its
/// argument vector, so the hot path neither hashes a string nor clones an
/// `ActionCall`.
pub trait SlotEnv {
    /// Looks up `keys` in table `table`, returning `(action index within
    /// the table's declared actions, action arguments)` on a hit.
    fn table_lookup(&mut self, table: u16, keys: &[u64]) -> Option<(u16, &[u64])>;
    /// Reads a map; `None` on a miss.
    fn map_get(&mut self, map: u16, key: u64) -> Option<u64>;
    /// Inserts/updates a map entry. May fail when the map is full.
    fn map_put(&mut self, map: u16, key: u64, value: u64) -> Result<()>;
    /// Deletes a map entry (no-op on a miss).
    fn map_del(&mut self, map: u16, key: u64);
    /// Reads a register cell. Returns [`Trap::StateOutOfBounds`] when a
    /// post-verification reconfiguration shrank the register under the
    /// program's static proof.
    fn reg_read(&mut self, reg: u16, idx: u64) -> Result<u64>;
    /// Writes a register cell (same bounds contract as [`SlotEnv::reg_read`]).
    fn reg_write(&mut self, reg: u16, idx: u64, val: u64) -> Result<()>;
    /// Adds to a counter.
    fn counter_add(&mut self, counter: u16, pkts: u64, bytes: u64);
    /// Reads a counter's packet count.
    fn counter_read(&mut self, counter: u16) -> u64;
    /// Checks a meter for `key`; `true` when conforming.
    fn meter_check(&mut self, meter: u16, key: u64) -> bool;
    /// Invokes a dRPC service (fire-and-forget).
    fn invoke_service(&mut self, service: u16, args: &[u64]);
}

/// One flat instruction. Instructions that correspond to an AST node tick
/// the op counter by the same amount the interpreter does for that node;
/// pure control glue ([`Insn::Jump`], [`Insn::BoolCast`], [`Insn::LoopTest`],
/// [`Insn::ActionEnd`], [`Insn::EndHandler`]) ticks zero, keeping the two
/// engines' op counts identical on every path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// Push an integer literal.
    PushInt(u64),
    /// Push a local slot's value.
    PushLocal(u16),
    /// Push a packet field (index into [`CompiledProgram::fields`]); absent
    /// fields read 0.
    PushField(u32),
    /// Push 1 if the header (interned proto id) is present, else 0.
    PushValid(u32),
    /// Pop a key; push the map value or 0 on a miss.
    MapGet(u16),
    /// Pop a key; push 1 if present, else 0.
    MapHas(u16),
    /// Pop an index; push the register cell.
    RegRead(u16),
    /// Push a counter's packet count.
    CounterRead(u16),
    /// Pop a key; push 1 when the meter conforms, else 0.
    MeterCheck(u16),
    /// Pop the top `n` values (in push order) and push their FNV-1a hash.
    Hash(u16),
    /// Push the packet's wire length.
    PktLen,
    /// Pop `b` then `a`; push `a op b` (wrapping semantics; division and
    /// modulo by zero raise [`Trap::DivisionByZero`]).
    Bin(BinOp),
    /// Pop `a`; push the unary result.
    Un(UnOp),
    /// Short-circuit `&&`: pop `a`; if zero, push 0 and jump to the target,
    /// else fall through to the right-hand side. Ticks the `&&` node's op.
    LAndProbe(u32),
    /// Short-circuit `||`: pop `a`; if nonzero, push 1 and jump to the
    /// target, else fall through. Ticks the `||` node's op.
    LOrProbe(u32),
    /// Pop `b`; push `b != 0` (completes a non-short-circuited `&&`/`||`).
    BoolCast,
    /// Unconditional jump (glue; ticks zero).
    Jump(u32),
    /// Pop a value into a local slot (`let` / local assignment).
    StoreLocal(u16),
    /// Pop a value into a packet field (index into
    /// [`CompiledProgram::fields`]).
    StoreField(u32),
    /// Pop value then key; insert into the map (full maps drop the insert).
    MapPut(u16),
    /// Pop a key; delete it from the map.
    MapDelete(u16),
    /// Pop value then index; write the register cell.
    RegWrite(u16),
    /// Bump a counter by one packet / the packet's wire length.
    Count(u16),
    /// Pop the condition; jump to the target when it is zero (the `if`).
    BranchIfZero(u32),
    /// Begin a `repeat`: push the iteration count on the loop stack.
    LoopEnter(u64),
    /// Loop head: exit to the target when the count hits zero, else
    /// decrement and fall into the body (glue; ticks zero).
    LoopTest(u32),
    /// Apply a table: build keys, look up, dispatch the matched or default
    /// action (ticks the interpreter's `1 + 3` apply ops).
    Apply(u16),
    /// Return from an action body to the apply site (glue; ticks zero).
    ActionEnd,
    /// Halt with a fixed verdict (`drop()` / `punt()` / `recirculate()`).
    HaltVerdict(Verdict),
    /// Pop the port; halt with `Forward(port)`.
    HaltForward,
    /// Halt with no verdict (`return;`).
    HaltNone,
    /// Fell off the end of the handler: no verdict (glue; ticks zero).
    EndHandler,
    /// Pop the top `n` values (in push order) and invoke the service.
    Invoke(u16, u16),
    /// Add a header from the interned template if not already present.
    AddHeader(u32),
    /// Remove a header (interned proto id).
    RemoveHeader(u32),
}

/// An action's compiled footprint inside a [`TableMeta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionMeta {
    /// The action's declared name (kept for runtime error messages).
    pub name: String,
    /// Entry pc of the compiled body.
    pub entry: u32,
    /// First local slot of the parameter block.
    pub param_base: u16,
    /// Declared parameter count.
    pub arity: u16,
}

/// A table's compiled metadata, referenced by [`Insn::Apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// The table's declared name (kept for runtime error messages).
    pub name: String,
    /// The state-plane slot passed to [`SlotEnv::table_lookup`].
    pub slot: u16,
    /// The match keys as indices into [`CompiledProgram::fields`], in
    /// declaration order.
    pub key_fields: Vec<u32>,
    /// Compiled actions, indexed by declaration position.
    pub actions: Vec<ActionMeta>,
    /// The default action (index + args), resolved at compile time.
    pub default: Option<(u16, Vec<u64>)>,
}

/// A header-insertion template precomputed from the registry, so
/// `add_header` allocates nothing but the header itself on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderTemplate {
    /// The header with all declared fields, zeroed.
    pub header: Header,
    /// Where to insert: after this protocol, or at the top of the stack.
    pub after: Option<Sym>,
}

/// A program lowered to slot-resolved bytecode.
///
/// Everything name-shaped was resolved at compile time — packet names to
/// interned [`Sym`]s, state names to slots. Only services keep their names
/// (slot → name), for the device's invocation log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledProgram {
    /// The source program's name.
    pub name: String,
    /// The flat instruction array.
    pub insns: Vec<Insn>,
    /// Handler entry points: `(name, pc)`.
    pub handlers: Vec<(String, u32)>,
    /// The `ingress` handler's entry pc, resolved once at compile time so
    /// a device does not look it up by name per packet run.
    pub ingress: Option<u32>,
    /// Table metadata, indexed by [`Insn::Apply`]'s operand.
    pub tables: Vec<TableMeta>,
    /// The `(proto, field)` of every field path the program touches
    /// (`ipv4.src`, `meta.mark`, …), indexed by the field operands.
    pub fields: Vec<(Sym, Sym)>,
    /// Protocol names (for `valid` / `remove_header`).
    pub protos: Vec<Sym>,
    /// Header-insertion templates (for `add_header`).
    pub header_templates: Vec<HeaderTemplate>,
    /// Service names by slot (for invocation logging).
    pub service_names: Vec<String>,
    /// Local slot count (the VM's frame size).
    pub n_locals: u16,
}

/// The index of the first item matching `is`, appending `make()` if none
/// does: how the compiler dedups the few names a program mentions.
fn index_of<T>(items: &mut Vec<T>, is: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> u32 {
    let at = items.iter().position(is).unwrap_or_else(|| {
        items.push(make());
        items.len() - 1
    });
    at as u32
}

fn unresolved(kind: SymbolKind, name: &str) -> FlexError {
    FlexError::UnresolvedSymbol {
        kind: kind.as_str().into(),
        name: name.into(),
    }
}

/// Compiles `program` to bytecode, resolving every symbol through
/// `resolver`. The program must already have passed the type checker; the
/// compiler still reports dangling names as
/// [`FlexError::UnresolvedSymbol`] rather than panicking, because runtime
/// reconfiguration rebuilds images against a *device's* slot layout, which
/// adversarial tests deliberately desynchronize.
pub fn compile(
    program: &Program,
    registry: &HeaderRegistry,
    resolver: &dyn SlotResolver,
) -> Result<CompiledProgram> {
    let mut c = Compiler {
        registry,
        resolver,
        out: CompiledProgram {
            name: program.name.clone(),
            ..CompiledProgram::default()
        },
        scopes: Vec::new(),
        next_local: 0,
    };

    // Dangling state/service declarations are impossible against the
    // program's own layout but possible against a foreign (device) layout —
    // surface them now, not per packet. Services keep slot → name for the
    // invocation log.
    for s in &program.states {
        let kind = match s.kind {
            StateKind::Map { .. } => SymbolKind::Map,
            StateKind::Register { .. } => SymbolKind::Register,
            StateKind::Counter => SymbolKind::Counter,
            StateKind::Meter { .. } => SymbolKind::Meter,
        };
        c.slot(kind, &s.name)?;
    }
    for s in &program.services {
        let slot = c
            .resolver
            .resolve(SymbolKind::Service, &s.name)
            .ok_or_else(|| unresolved(SymbolKind::Service, &s.name))? as usize;
        if c.out.service_names.len() <= slot {
            c.out.service_names.resize(slot + 1, String::new());
        }
        c.out.service_names[slot] = s.name.clone();
    }

    // Pass 1: compile every table's actions as subroutines and build the
    // table metadata (including the resolved default action).
    for t in &program.tables {
        let slot = c
            .resolver
            .resolve(SymbolKind::Table, &t.name)
            .ok_or_else(|| unresolved(SymbolKind::Table, &t.name))?;
        let key_fields = t.keys.iter().map(|k| c.intern_field(&k.field)).collect();
        let mut actions = Vec::with_capacity(t.actions.len());
        for a in &t.actions {
            let param_base = c.next_local;
            c.scopes.clear();
            c.scopes.push(BTreeMap::new());
            for (p, _) in &a.params {
                let s = c.alloc_local()?;
                c.scopes.last_mut().expect("frame").insert(p.clone(), s);
            }
            let entry = c.out.insns.len() as u32;
            c.compile_block(&a.body)?;
            c.out.insns.push(Insn::ActionEnd);
            actions.push(ActionMeta {
                name: a.name.clone(),
                entry,
                param_base,
                arity: a.params.len() as u16,
            });
        }
        let default = match &t.default_action {
            Some(call) => {
                let idx = actions
                    .iter()
                    .position(|a| a.name == call.action)
                    .ok_or_else(|| FlexError::UnresolvedSymbol {
                        kind: "action".into(),
                        name: call.action.clone(),
                    })?;
                if actions[idx].arity as usize != call.args.len() {
                    return Err(FlexError::Compile(format!(
                        "table `{}` default action `{}` arity mismatch",
                        t.name, call.action
                    )));
                }
                Some((idx as u16, call.args.clone()))
            }
            None => None,
        };
        c.out.tables.push(TableMeta {
            name: t.name.clone(),
            slot,
            key_fields,
            actions,
            default,
        });
    }

    // Pass 2: compile the handlers.
    for h in &program.handlers {
        c.scopes.clear();
        c.scopes.push(BTreeMap::new());
        let entry = c.out.insns.len() as u32;
        c.compile_block(&h.body)?;
        c.out.insns.push(Insn::EndHandler);
        c.out.handlers.push((h.name.clone(), entry));
        if h.name == "ingress" && c.out.ingress.is_none() {
            c.out.ingress = Some(entry);
        }
    }

    c.out.n_locals = c.next_local;
    Ok(c.out)
}

struct Compiler<'a> {
    registry: &'a HeaderRegistry,
    resolver: &'a dyn SlotResolver,
    out: CompiledProgram,
    /// Lexical frames, innermost last — mirrors the type checker exactly,
    /// which is what makes compile-time slot assignment sound.
    scopes: Vec<BTreeMap<String, u16>>,
    next_local: u16,
}

impl Compiler<'_> {
    fn alloc_local(&mut self) -> Result<u16> {
        let s = self.next_local;
        self.next_local = self
            .next_local
            .checked_add(1)
            .ok_or_else(|| FlexError::Compile("too many locals".into()))?;
        Ok(s)
    }

    fn local(&self, name: &str) -> Result<u16> {
        self.scopes
            .iter()
            .rev()
            .find_map(|f| f.get(name).copied())
            .ok_or_else(|| FlexError::UnresolvedSymbol {
                kind: "local".into(),
                name: name.into(),
            })
    }

    fn intern_field(&mut self, p: &FieldPath) -> u32 {
        let syms = p.syms();
        index_of(&mut self.out.fields, |f| *f == syms, || syms)
    }

    fn intern_proto(&mut self, proto: &str) -> u32 {
        let proto = Sym::intern(proto);
        index_of(&mut self.out.protos, |p| *p == proto, || proto)
    }

    fn intern_template(&mut self, name: &str) -> u32 {
        let proto = Sym::intern(name);
        // Mirrors the interpreter: unknown protos insert an empty-field
        // header at the top of the stack.
        let decl = self.registry.decl(name);
        index_of(
            &mut self.out.header_templates,
            |t| t.header.view().proto() == proto,
            || HeaderTemplate {
                header: Header::new(
                    proto,
                    decl.into_iter()
                        .flat_map(|d| &d.fields)
                        .map(|f| (f.name.as_str(), 0)),
                ),
                after: decl
                    .and_then(|d| d.follows.as_ref())
                    .map(|f| Sym::intern(&f.prev_proto)),
            },
        )
    }

    fn slot(&self, kind: SymbolKind, name: &str) -> Result<u16> {
        self.resolver
            .resolve(kind, name)
            .ok_or_else(|| unresolved(kind, name))
    }

    fn here(&self) -> u32 {
        self.out.insns.len() as u32
    }

    /// Emits a placeholder jump operand, returning its position for
    /// [`Self::patch`].
    fn emit_patched(&mut self, make: fn(u32) -> Insn) -> usize {
        self.out.insns.push(make(u32::MAX));
        self.out.insns.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        let insn = &mut self.out.insns[at];
        match insn {
            Insn::Jump(t)
            | Insn::BranchIfZero(t)
            | Insn::LoopTest(t)
            | Insn::LAndProbe(t)
            | Insn::LOrProbe(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn compile_block(&mut self, block: &Block) -> Result<()> {
        self.scopes.push(BTreeMap::new());
        for stmt in block {
            self.compile_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Let(n, e) => {
                self.compile_expr(e)?;
                // A fresh slot per `let`, even when an outer block already
                // used the name (the checker forbids reads across the gap,
                // so distinct slots are unobservable).
                let s = self.alloc_local()?;
                self.scopes.last_mut().expect("frame").insert(n.clone(), s);
                self.out.insns.push(Insn::StoreLocal(s));
            }
            Stmt::AssignLocal(n, e) => {
                self.compile_expr(e)?;
                let s = self.local(n)?;
                self.out.insns.push(Insn::StoreLocal(s));
            }
            Stmt::AssignField(p, e) => {
                self.compile_expr(e)?;
                let f = self.intern_field(p);
                self.out.insns.push(Insn::StoreField(f));
            }
            Stmt::MapPut(m, k, v) => {
                self.compile_expr(k)?;
                self.compile_expr(v)?;
                let s = self.slot(SymbolKind::Map, m)?;
                self.out.insns.push(Insn::MapPut(s));
            }
            Stmt::MapDelete(m, k) => {
                self.compile_expr(k)?;
                let s = self.slot(SymbolKind::Map, m)?;
                self.out.insns.push(Insn::MapDelete(s));
            }
            Stmt::RegWrite(r, i, v) => {
                self.compile_expr(i)?;
                self.compile_expr(v)?;
                let s = self.slot(SymbolKind::Register, r)?;
                self.out.insns.push(Insn::RegWrite(s));
            }
            Stmt::Count(c) => {
                let s = self.slot(SymbolKind::Counter, c)?;
                self.out.insns.push(Insn::Count(s));
            }
            Stmt::If(cond, then, els) => {
                self.compile_expr(cond)?;
                let br = self.emit_patched(Insn::BranchIfZero);
                self.compile_block(then)?;
                if els.is_empty() {
                    let end = self.here();
                    self.patch(br, end);
                } else {
                    let skip = self.emit_patched(Insn::Jump);
                    let else_at = self.here();
                    self.patch(br, else_at);
                    self.compile_block(els)?;
                    let end = self.here();
                    self.patch(skip, end);
                }
            }
            Stmt::Repeat(n, body) => {
                self.out.insns.push(Insn::LoopEnter(*n));
                let head = self.here();
                let test = self.emit_patched(Insn::LoopTest);
                self.compile_block(body)?;
                self.out.insns.push(Insn::Jump(head));
                let end = self.here();
                self.patch(test, end);
            }
            Stmt::Apply(tname) => {
                let idx = self
                    .out
                    .tables
                    .iter()
                    .position(|t| t.name == *tname)
                    .ok_or_else(|| unresolved(SymbolKind::Table, tname))?;
                self.out.insns.push(Insn::Apply(idx as u16));
            }
            Stmt::Drop => self.out.insns.push(Insn::HaltVerdict(Verdict::Drop)),
            Stmt::Forward(e) => {
                self.compile_expr(e)?;
                self.out.insns.push(Insn::HaltForward);
            }
            Stmt::Punt => self
                .out
                .insns
                .push(Insn::HaltVerdict(Verdict::ToController)),
            Stmt::Recirculate => self.out.insns.push(Insn::HaltVerdict(Verdict::Recirculate)),
            Stmt::Invoke(svc, args) => {
                for a in args {
                    self.compile_expr(a)?;
                }
                let s = self.slot(SymbolKind::Service, svc)?;
                self.out.insns.push(Insn::Invoke(s, args.len() as u16));
            }
            Stmt::AddHeader(proto) => {
                let t = self.intern_template(proto);
                self.out.insns.push(Insn::AddHeader(t));
            }
            Stmt::RemoveHeader(proto) => {
                let p = self.intern_proto(proto);
                self.out.insns.push(Insn::RemoveHeader(p));
            }
            Stmt::Return => self.out.insns.push(Insn::HaltNone),
        }
        Ok(())
    }

    fn compile_expr(&mut self, e: &Expr) -> Result<()> {
        match e {
            Expr::Int(v) => self.out.insns.push(Insn::PushInt(*v)),
            Expr::Local(n) => {
                let s = self.local(n)?;
                self.out.insns.push(Insn::PushLocal(s));
            }
            Expr::Field(p) => {
                let f = self.intern_field(p);
                self.out.insns.push(Insn::PushField(f));
            }
            Expr::Valid(proto) => {
                let p = self.intern_proto(proto);
                self.out.insns.push(Insn::PushValid(p));
            }
            Expr::MapGet(m, k) => {
                self.compile_expr(k)?;
                let s = self.slot(SymbolKind::Map, m)?;
                self.out.insns.push(Insn::MapGet(s));
            }
            Expr::MapHas(m, k) => {
                self.compile_expr(k)?;
                let s = self.slot(SymbolKind::Map, m)?;
                self.out.insns.push(Insn::MapHas(s));
            }
            Expr::RegRead(r, i) => {
                self.compile_expr(i)?;
                let s = self.slot(SymbolKind::Register, r)?;
                self.out.insns.push(Insn::RegRead(s));
            }
            Expr::CounterRead(c) => {
                let s = self.slot(SymbolKind::Counter, c)?;
                self.out.insns.push(Insn::CounterRead(s));
            }
            Expr::MeterCheck(m, k) => {
                self.compile_expr(k)?;
                let s = self.slot(SymbolKind::Meter, m)?;
                self.out.insns.push(Insn::MeterCheck(s));
            }
            Expr::Hash(args) => {
                for a in args {
                    self.compile_expr(a)?;
                }
                self.out.insns.push(Insn::Hash(args.len() as u16));
            }
            Expr::PktLen => self.out.insns.push(Insn::PktLen),
            Expr::Bin(BinOp::LAnd, l, r) => {
                self.compile_expr(l)?;
                let probe = self.emit_patched(Insn::LAndProbe);
                self.compile_expr(r)?;
                self.out.insns.push(Insn::BoolCast);
                let end = self.here();
                self.patch(probe, end);
            }
            Expr::Bin(BinOp::LOr, l, r) => {
                self.compile_expr(l)?;
                let probe = self.emit_patched(Insn::LOrProbe);
                self.compile_expr(r)?;
                self.out.insns.push(Insn::BoolCast);
                let end = self.here();
                self.patch(probe, end);
            }
            Expr::Bin(op, l, r) => {
                self.compile_expr(l)?;
                self.compile_expr(r)?;
                self.out.insns.push(Insn::Bin(*op));
            }
            Expr::Un(op, v) => {
                self.compile_expr(v)?;
                self.out.insns.push(Insn::Un(*op));
            }
        }
        Ok(())
    }
}

/// Reusable VM frame storage: operand stack, locals, loop counters, call
/// frames, the table-key staging buffer, and the prefetched field lane.
///
/// A device keeps one `VmScratch` alive across every packet it runs —
/// single or burst — so the per-packet frame setup is a handful of
/// `clear()`s on already-sized buffers instead of heap allocations.
#[derive(Debug, Default)]
pub struct VmScratch {
    stack: Vec<u64>,
    locals: Vec<u64>,
    loops: Vec<u64>,
    calls: Vec<usize>,
    keys: Vec<u64>,
    /// Prefetched field values, index-aligned with
    /// [`CompiledProgram::fields`].
    fields: Vec<u64>,
    /// The last [`Insn::Hash`]'s arguments, each paired with the FNV state
    /// after it. The state after a prefix depends on the prefix values
    /// alone, so the memo is exact across packets, handlers and programs
    /// and never needs invalidating; it holds at most the widest `hash()`.
    hash_memo: Vec<(u64, u64)>,
}

impl VmScratch {
    /// An empty scratch with the historical initial capacities.
    pub fn new() -> VmScratch {
        VmScratch {
            stack: Vec::with_capacity(16),
            locals: Vec::new(),
            loops: Vec::new(),
            calls: Vec::new(),
            keys: Vec::with_capacity(4),
            fields: Vec::new(),
            hash_memo: Vec::new(),
        }
    }
}

/// Executes a compiled program over `pkt` against `env` from the handler
/// entry pc `entry` (e.g. [`CompiledProgram::ingress`]) under a gas budget
/// of `gas` abstract operations (`u64::MAX` never runs out), with frame
/// storage supplied by the caller. The environment type is generic so a
/// device's concrete [`SlotEnv`] monomorphizes state access into direct
/// calls instead of vtable dispatch.
///
/// Every interned field is read once into the scratch's field lane at
/// handler entry, refreshed after a header is added or removed and written
/// through on a field store, so `PushField` and table-key gathering are
/// single indexed loads instead of a header scan plus field scan per
/// access. The prefetch is free under the gas meter — it only relocates
/// reads.
///
/// Verdicts, op counts, state effects, and traps are identical to the
/// reference interpreter's (`tests/common/interp.rs`) on the same program
/// — the differential suite in `tests/` asserts this over every example
/// program, randomized packets, and trapping inputs. Faults attributable to
/// the packet or to a post-verification reconfiguration come back as `Ok`
/// outcomes carrying a [`Trap`]; an inconsistent image itself (stack/pc/
/// frame invariants broken) traps as [`Trap::CorruptImage`] so a device can
/// fail closed rather than crash its sweep.
#[inline]
pub fn execute_compiled<E: SlotEnv + ?Sized>(
    prog: &CompiledProgram,
    entry: u32,
    pkt: &mut Packet,
    env: &mut E,
    gas: u64,
    scratch: &mut VmScratch,
) -> Result<ExecOutcome> {
    let mut pc = entry as usize;
    let mut ops: u64 = 0;
    scratch.stack.clear();
    scratch.loops.clear();
    scratch.calls.clear();
    scratch.keys.clear();
    scratch.locals.clear();
    scratch.locals.resize(prog.n_locals as usize, 0);
    let VmScratch {
        stack,
        locals,
        loops,
        calls,
        keys,
        fields,
        hash_memo,
    } = scratch;

    // (Re)loads the field lane from the live packet.
    macro_rules! refetch {
        () => {
            fields.clear();
            for &(proto, field) in &prog.fields {
                fields.push(pkt.get_field_sym(proto, field).unwrap_or(0));
            }
        };
    }
    refetch!();

    // Unwind to the packet boundary with a fail-closed trap outcome.
    macro_rules! trap {
        ($t:expr) => {
            return Ok(ExecOutcome {
                verdict: None,
                ops,
                trap: Some($t),
            })
        };
    }

    // Charge gas at exactly the interpreter's checkpoints; exhaustion fires
    // at the identical cumulative count in both engines.
    macro_rules! tick {
        ($n:expr) => {
            ops += $n;
            if ops > gas {
                trap!(Trap::GasExhausted { limit: gas });
            }
        };
    }

    // The start of the top `n` stack values, or a corrupt-image trap.
    macro_rules! top_n {
        ($n:expr) => {
            match stack.len().checked_sub($n as usize) {
                Some(at) => at,
                None => trap!(Trap::CorruptImage {
                    reason: "bytecode stack underflow",
                }),
            }
        };
    }

    macro_rules! pop {
        () => {
            match stack.pop() {
                Some(v) => v,
                None => trap!(Trap::CorruptImage {
                    reason: "bytecode stack underflow",
                }),
            }
        };
    }

    loop {
        let insn = match prog.insns.get(pc) {
            Some(i) => i,
            None => trap!(Trap::CorruptImage {
                reason: "bytecode pc out of range",
            }),
        };
        pc += 1;
        match insn {
            Insn::PushInt(v) => {
                tick!(1);
                stack.push(*v);
            }
            Insn::PushLocal(s) => {
                tick!(1);
                stack.push(locals[*s as usize]);
            }
            Insn::PushField(f) => {
                tick!(1);
                stack.push(fields[*f as usize]);
            }
            Insn::PushValid(p) => {
                tick!(1);
                stack.push(pkt.has_header_sym(prog.protos[*p as usize]) as u64);
            }
            Insn::MapGet(m) => {
                tick!(1);
                let k = pop!();
                stack.push(env.map_get(*m, k).unwrap_or(0));
            }
            Insn::MapHas(m) => {
                tick!(1);
                let k = pop!();
                stack.push(env.map_get(*m, k).is_some() as u64);
            }
            Insn::RegRead(r) => {
                tick!(1);
                let i = pop!();
                match env.reg_read(*r, i) {
                    Ok(v) => stack.push(v),
                    Err(FlexError::Trap(t)) => trap!(t),
                    Err(e) => return Err(e),
                }
            }
            Insn::CounterRead(c) => {
                tick!(1);
                stack.push(env.counter_read(*c));
            }
            Insn::MeterCheck(m) => {
                tick!(1);
                let k = pop!();
                stack.push(env.meter_check(*m, k) as u64);
            }
            Insn::Hash(n) => {
                tick!(1);
                let at = top_n!(*n);
                // Resume FNV from the longest prefix shared with the last
                // `hash()` (a sketch's rows differ only in their salt).
                let args = &stack[at..];
                let same = hash_memo
                    .iter()
                    .zip(args)
                    .take_while(|(m, a)| m.0 == **a)
                    .count();
                hash_memo.truncate(same);
                let mut h = hash_memo.last().map_or(FNV_OFFSET, |m| m.1);
                for &v in &args[same..] {
                    h = fnv_step(h, v);
                    hash_memo.push((v, h));
                }
                stack.truncate(at);
                stack.push(h);
            }
            Insn::PktLen => {
                tick!(1);
                stack.push(pkt.wire_len() as u64);
            }
            Insn::Bin(op) => {
                tick!(1);
                let b = pop!();
                let a = pop!();
                match op.eval(a, b) {
                    Ok(v) => stack.push(v),
                    Err(FlexError::Trap(t)) => trap!(t),
                    Err(e) => return Err(e),
                }
            }
            Insn::Un(op) => {
                tick!(1);
                let a = pop!();
                stack.push(match op {
                    UnOp::Not => (a == 0) as u64,
                    UnOp::BitNot => !a,
                    UnOp::Neg => a.wrapping_neg(),
                });
            }
            Insn::LAndProbe(t) => {
                tick!(1);
                let a = pop!();
                if a == 0 {
                    stack.push(0);
                    pc = *t as usize;
                }
            }
            Insn::LOrProbe(t) => {
                tick!(1);
                let a = pop!();
                if a != 0 {
                    stack.push(1);
                    pc = *t as usize;
                }
            }
            Insn::BoolCast => {
                let b = pop!();
                stack.push((b != 0) as u64);
            }
            Insn::Jump(t) => pc = *t as usize,
            Insn::StoreLocal(s) => {
                tick!(1);
                locals[*s as usize] = pop!();
            }
            Insn::StoreField(f) => {
                tick!(1);
                let v = pop!();
                let (proto, field) = prog.fields[*f as usize];
                pkt.set_field_sym(proto, field, v);
                // Write-through: refresh just this lane slot from the packet
                // (a store to a missing header is a no-op, which the re-read
                // reproduces exactly).
                fields[*f as usize] = pkt.get_field_sym(proto, field).unwrap_or(0);
            }
            Insn::MapPut(m) => {
                tick!(1);
                let v = pop!();
                let k = pop!();
                // A full map drops the insert; data planes degrade, not trap.
                let _ = env.map_put(*m, k, v);
            }
            Insn::MapDelete(m) => {
                tick!(1);
                let k = pop!();
                env.map_del(*m, k);
            }
            Insn::RegWrite(r) => {
                tick!(1);
                let v = pop!();
                let i = pop!();
                match env.reg_write(*r, i, v) {
                    Ok(()) => {}
                    Err(FlexError::Trap(t)) => trap!(t),
                    Err(e) => return Err(e),
                }
            }
            Insn::Count(c) => {
                tick!(1);
                env.counter_add(*c, 1, pkt.wire_len() as u64);
            }
            Insn::BranchIfZero(t) => {
                tick!(1);
                if pop!() == 0 {
                    pc = *t as usize;
                }
            }
            Insn::LoopEnter(n) => {
                tick!(1);
                loops.push(*n);
            }
            Insn::LoopTest(t) => {
                let top = match loops.last_mut() {
                    Some(t) => t,
                    None => trap!(Trap::CorruptImage {
                        reason: "bytecode loop underflow",
                    }),
                };
                if *top == 0 {
                    loops.pop();
                    pc = *t as usize;
                } else {
                    *top -= 1;
                }
            }
            Insn::Apply(t) => {
                // 1 for the statement + 3 for key build, lookup, dispatch —
                // matching the interpreter's accounting.
                tick!(4);
                let meta = &prog.tables[*t as usize];
                if meta.key_fields.len() > MAX_TABLE_KEY_WIDTH {
                    trap!(Trap::KeyOverflow {
                        table: meta.name.clone(),
                        width: meta.key_fields.len() as u64,
                        max: MAX_TABLE_KEY_WIDTH as u64,
                    });
                }
                keys.clear();
                keys.extend(meta.key_fields.iter().map(|&f| fields[f as usize]));
                let dispatch = match env.table_lookup(meta.slot, keys) {
                    Some((aidx, args)) => {
                        let Some(am) = meta.actions.get(aidx as usize) else {
                            // Only the index is known here; the interpreter
                            // reports the (unresolvable) name instead, so the
                            // differential suite compares this variant by
                            // kind, not payload.
                            let action = format!("#{aidx}");
                            trap!(Trap::UnknownAction {
                                table: meta.name.clone(),
                                action,
                            });
                        };
                        if am.arity as usize != args.len() {
                            let action = am.name.clone();
                            trap!(Trap::ArityMismatch {
                                table: meta.name.clone(),
                                action,
                            });
                        }
                        let base = am.param_base as usize;
                        locals[base..base + args.len()].copy_from_slice(args);
                        Some(am.entry)
                    }
                    None => match &meta.default {
                        Some((aidx, args)) => {
                            let am = &meta.actions[*aidx as usize];
                            let base = am.param_base as usize;
                            locals[base..base + args.len()].copy_from_slice(args);
                            Some(am.entry)
                        }
                        None => None,
                    },
                };
                if let Some(entry) = dispatch {
                    calls.push(pc);
                    pc = entry as usize;
                }
            }
            Insn::ActionEnd => {
                pc = match calls.pop() {
                    Some(p) => p,
                    None => trap!(Trap::CorruptImage {
                        reason: "bytecode call underflow",
                    }),
                };
            }
            Insn::HaltVerdict(v) => {
                tick!(1);
                return Ok(ExecOutcome {
                    verdict: Some(*v),
                    ops,
                    trap: None,
                });
            }
            Insn::HaltForward => {
                tick!(1);
                let port = pop!();
                return Ok(ExecOutcome {
                    verdict: Some(Verdict::Forward(port as u16)),
                    ops,
                    trap: None,
                });
            }
            Insn::HaltNone => {
                tick!(1);
                return Ok(ExecOutcome {
                    verdict: None,
                    ops,
                    trap: None,
                });
            }
            Insn::EndHandler => {
                return Ok(ExecOutcome {
                    verdict: None,
                    ops,
                    trap: None,
                })
            }
            Insn::Invoke(s, n) => {
                tick!(1);
                let at = top_n!(*n);
                env.invoke_service(*s, &stack[at..]);
                stack.truncate(at);
            }
            Insn::AddHeader(t) => {
                tick!(1);
                let tpl = &prog.header_templates[*t as usize];
                if !pkt.has_header_sym(tpl.header.view().proto()) {
                    pkt.insert_header_sym(tpl.header.clone(), tpl.after);
                    refetch!();
                }
            }
            Insn::RemoveHeader(p) => {
                tick!(1);
                pkt.remove_header_sym(prog.protos[*p as usize]);
                refetch!();
            }
        }
    }
}
