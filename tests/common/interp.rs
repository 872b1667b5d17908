//! The FlexBPF reference interpreter: the tests' oracle for the bytecode
//! VM, which is the only engine a device runs.
//!
//! The interpreter walks a handler's AST over a packet, resolving every
//! name at the moment it is used and delegating all *stateful* operations
//! (table lookups, maps, registers, counters, meters, dRPC invocations) to
//! an [`ExecEnv`] addressed by name. `oracle.rs` runs it in lockstep with a
//! device; `properties.rs` and `engines.rs` run it against [`MemEnv`].
//!
//! Execution counts abstract operations and charges gas at exactly the
//! VM's checkpoints, so the two engines agree on `ops` to the operation,
//! traps included. Operator semantics come from the one definition both
//! engines call, [`BinOp::eval`]. A packet's fields and headers are
//! resolved by name ([`set_field`], [`has_header`], ...): with
//! `Sym::lookup`, since a name never interned is in no packet, and with
//! `Sym::intern` only where a store creates a field.

// Each test binary that includes this file uses a different part of it.
#![allow(dead_code)]

use flexnet_lang::ast::*;
use flexnet_lang::bytecode::{ExecOutcome, MAX_TABLE_KEY_WIDTH};
use flexnet_lang::headers::HeaderRegistry;
use flexnet_types::hash::hash_values;
use flexnet_types::{FlexError, Header, Packet, Result, Sym, Trap, Verdict};
use std::collections::BTreeMap;

/// Sentinel gas budget meaning "no limit". The metering checkpoints still
/// run (so a limited and an unlimited budget share one code path and one
/// op accounting), but the budget can never be exceeded.
pub const GAS_UNLIMITED: u64 = u64::MAX;

/// The environment a program executes against: the device's state plane.
pub trait ExecEnv {
    /// Looks up `keys` (one value per declared table key, in declaration
    /// order) in `table`, returning the matched entry's action on a hit.
    fn table_lookup(&mut self, table: &str, keys: &[u64]) -> Option<ActionCall>;
    /// Reads a map; `None` on a miss.
    fn map_get(&mut self, map: &str, key: u64) -> Option<u64>;
    /// Inserts/updates a map entry. May fail when the map is full.
    fn map_put(&mut self, map: &str, key: u64, value: u64) -> Result<()>;
    /// Deletes a map entry (no-op on a miss).
    fn map_del(&mut self, map: &str, key: u64);
    /// Reads a register cell. The verifier proved `idx` in bounds against
    /// the *install-time* layout; a runtime reconfiguration can shrink the
    /// register afterwards, so the environment re-checks and returns
    /// [`Trap::StateOutOfBounds`] when the static proof no longer holds.
    fn reg_read(&mut self, reg: &str, idx: u64) -> Result<u64>;
    /// Writes a register cell (same bounds contract as [`ExecEnv::reg_read`]).
    fn reg_write(&mut self, reg: &str, idx: u64, val: u64) -> Result<()>;
    /// Adds to a counter.
    fn counter_add(&mut self, counter: &str, pkts: u64, bytes: u64);
    /// Reads a counter's packet count.
    fn counter_read(&mut self, counter: &str) -> u64;
    /// Checks a meter for `key`; `true` when conforming.
    fn meter_check(&mut self, meter: &str, key: u64) -> bool;
    /// Invokes a dRPC service (paper §3.4). Fire-and-forget at the data
    /// plane; delivery is the device/controller's concern.
    fn invoke_service(&mut self, service: &str, args: &[u64]);
}

/// Executes `handler` of `program` over `pkt` against `env` under a gas
/// budget of `gas` abstract operations.
///
/// The program must have passed the type checker and verifier; the
/// interpreter still fails gracefully on internal inconsistencies rather
/// than panicking, since runtime reconfiguration can race a packet with a
/// program swap in adversarial tests. Faults attributable to the packet or
/// to a post-verification reconfiguration are returned as `Ok` outcomes
/// carrying a [`Trap`] (verdict `None`); only faults that indict the
/// *program image* itself (unknown handler, dangling table reference)
/// surface as `Err`.
///
/// Gas is charged at exactly the same checkpoints as the bytecode VM, so a
/// trapping packet exhausts at the identical `ops` count in both engines —
/// the differential suite pins this.
pub fn execute_metered(
    program: &Program,
    handler: &str,
    pkt: &mut Packet,
    env: &mut dyn ExecEnv,
    headers: &HeaderRegistry,
    gas: u64,
) -> Result<ExecOutcome> {
    let h = program
        .handler(handler)
        .ok_or_else(|| FlexError::NotFound(format!("handler `{handler}`")))?;
    let mut interp = Interp {
        program,
        env,
        headers,
        ops: 0,
        gas,
        locals: BTreeMap::new(),
    };
    match interp.run_block(&h.body, pkt) {
        Ok(flow) => {
            let verdict = match flow {
                Flow::Verdict(v) => Some(v),
                Flow::Continue | Flow::Return => None,
            };
            Ok(ExecOutcome {
                verdict,
                ops: interp.ops,
                trap: None,
            })
        }
        // Traps unwind to the packet boundary and become a fail-closed
        // outcome; everything else is a real error for the caller.
        Err(FlexError::Trap(t)) => Ok(ExecOutcome {
            verdict: None,
            ops: interp.ops,
            trap: Some(t),
        }),
        Err(e) => Err(e),
    }
}

enum Flow {
    Continue,
    Return,
    Verdict(Verdict),
}

struct Interp<'a> {
    program: &'a Program,
    env: &'a mut dyn ExecEnv,
    headers: &'a HeaderRegistry,
    ops: u64,
    gas: u64,
    locals: BTreeMap<String, u64>,
}

impl<'a> Interp<'a> {
    /// Charges `n` gas. Both engines charge at the same checkpoints with
    /// the same amounts, so exhaustion fires at the identical cumulative
    /// count — trap/gas parity is by construction, not by test luck.
    fn tick(&mut self, n: u64) -> Result<()> {
        self.ops += n;
        if self.ops > self.gas {
            return Err(Trap::GasExhausted { limit: self.gas }.into());
        }
        Ok(())
    }

    fn run_block(&mut self, block: &Block, pkt: &mut Packet) -> Result<Flow> {
        for stmt in block {
            match self.run_stmt(stmt, pkt)? {
                Flow::Continue => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Continue)
    }

    /// Each arm charges gas exactly where the bytecode VM's corresponding
    /// instruction does — operands first, the operation's own tick at the
    /// store/branch/env-call point — so any trap (gas or fault) fires at
    /// the identical cumulative count in both engines. Per-construct op
    /// *totals* are unchanged; only the checkpoint positions are aligned.
    fn run_stmt(&mut self, stmt: &Stmt, pkt: &mut Packet) -> Result<Flow> {
        match stmt {
            Stmt::Let(n, e) | Stmt::AssignLocal(n, e) => {
                let v = self.eval(e, pkt)?;
                self.tick(1)?; // StoreLocal
                self.locals.insert(n.clone(), v);
                Ok(Flow::Continue)
            }
            Stmt::AssignField(p, e) => {
                let v = self.eval(e, pkt)?;
                self.tick(1)?; // StoreField
                set_field(pkt, &dotted(p), v);
                Ok(Flow::Continue)
            }
            Stmt::MapPut(m, k, val) => {
                let k = self.eval(k, pkt)?;
                let v = self.eval(val, pkt)?;
                self.tick(1)?; // MapPut
                               // A full map drops the insert; data planes degrade, not trap.
                let _ = self.env.map_put(m, k, v);
                Ok(Flow::Continue)
            }
            Stmt::MapDelete(m, k) => {
                let k = self.eval(k, pkt)?;
                self.tick(1)?; // MapDelete
                self.env.map_del(m, k);
                Ok(Flow::Continue)
            }
            Stmt::RegWrite(r, i, val) => {
                let i = self.eval(i, pkt)?;
                let v = self.eval(val, pkt)?;
                self.tick(1)?; // RegWrite
                self.env.reg_write(r, i, v)?;
                Ok(Flow::Continue)
            }
            Stmt::Count(c) => {
                self.tick(1)?; // Count
                self.env.counter_add(c, 1, pkt.wire_len() as u64);
                Ok(Flow::Continue)
            }
            Stmt::If(cond, then, els) => {
                let c = self.eval(cond, pkt)?;
                self.tick(1)?; // BranchIfZero
                if c != 0 {
                    self.run_block(then, pkt)
                } else {
                    self.run_block(els, pkt)
                }
            }
            Stmt::Repeat(n, body) => {
                self.tick(1)?; // LoopEnter
                for _ in 0..*n {
                    match self.run_block(body, pkt)? {
                        Flow::Continue => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Continue)
            }
            Stmt::Apply(tname) => {
                // 1 for the statement + 3 for key build, lookup, dispatch —
                // one charge, like the VM's single Apply instruction.
                self.tick(4)?;
                let table = self
                    .program
                    .table(tname)
                    .ok_or_else(|| FlexError::Sim(format!("apply of unknown table `{tname}`")))?
                    .clone();
                if table.keys.len() > MAX_TABLE_KEY_WIDTH {
                    return Err(Trap::KeyOverflow {
                        table: tname.clone(),
                        width: table.keys.len() as u64,
                        max: MAX_TABLE_KEY_WIDTH as u64,
                    }
                    .into());
                }
                let keys: Vec<u64> = table
                    .keys
                    .iter()
                    .map(|k| pkt.get_field(&dotted(&k.field)).unwrap_or(0))
                    .collect();
                let call = self
                    .env
                    .table_lookup(tname, &keys)
                    .or_else(|| table.default_action.clone());
                if let Some(call) = call {
                    let Some(action) = table.action(&call.action) else {
                        return Err(Trap::UnknownAction {
                            table: tname.clone(),
                            action: call.action.clone(),
                        }
                        .into());
                    };
                    if action.params.len() != call.args.len() {
                        return Err(Trap::ArityMismatch {
                            table: tname.clone(),
                            action: call.action.clone(),
                        }
                        .into());
                    }
                    // Action bodies are lexically scoped (the type checker
                    // gives them a fresh params-only scope), so neither the
                    // params nor any `let` inside the body may leak into the
                    // caller's locals: snapshot and restore the whole frame.
                    let saved = self.locals.clone();
                    for ((p, _), v) in action.params.iter().zip(&call.args) {
                        self.locals.insert(p.clone(), *v);
                    }
                    let body = action.body.clone();
                    let flow = self.run_block(&body, pkt)?;
                    self.locals = saved;
                    return Ok(flow);
                }
                Ok(Flow::Continue)
            }
            Stmt::Drop => {
                self.tick(1)?; // HaltVerdict
                Ok(Flow::Verdict(Verdict::Drop))
            }
            Stmt::Forward(e) => {
                let port = self.eval(e, pkt)?;
                self.tick(1)?; // HaltForward
                Ok(Flow::Verdict(Verdict::Forward(port as u16)))
            }
            Stmt::Punt => {
                self.tick(1)?; // HaltVerdict
                Ok(Flow::Verdict(Verdict::ToController))
            }
            Stmt::Recirculate => {
                self.tick(1)?; // HaltVerdict
                Ok(Flow::Verdict(Verdict::Recirculate))
            }
            Stmt::Invoke(svc, args) => {
                let vals = args
                    .iter()
                    .map(|a| self.eval(a, pkt))
                    .collect::<Result<Vec<_>>>()?;
                self.tick(1)?; // Invoke
                self.env.invoke_service(svc, &vals);
                Ok(Flow::Continue)
            }
            Stmt::AddHeader(proto) => {
                self.tick(1)?; // AddHeader
                if !has_header(pkt, proto) {
                    let decl = self.headers.decl(proto);
                    let fields = decl.into_iter().flat_map(|d| &d.fields);
                    let header = Header::new(proto.as_str(), fields.map(|f| (f.name.as_str(), 0)));
                    let after = decl
                        .and_then(|d| d.follows.as_ref())
                        .map(|f| f.prev_proto.as_str());
                    insert_header(pkt, header, after);
                }
                Ok(Flow::Continue)
            }
            Stmt::RemoveHeader(proto) => {
                self.tick(1)?; // RemoveHeader
                remove_header(pkt, proto);
                Ok(Flow::Continue)
            }
            Stmt::Return => {
                self.tick(1)?; // HaltNone
                Ok(Flow::Return)
            }
        }
    }

    /// Like [`Interp::run_stmt`], charges each node's tick at the position
    /// of its compiled instruction (operands before operators), so gas
    /// checkpoints line up with the bytecode VM exactly.
    fn eval(&mut self, e: &Expr, pkt: &Packet) -> Result<u64> {
        Ok(match e {
            Expr::Int(v) => {
                self.tick(1)?;
                *v
            }
            Expr::Local(n) => {
                self.tick(1)?;
                self.locals
                    .get(n)
                    .copied()
                    .ok_or_else(|| FlexError::Sim(format!("unbound local `{n}`")))?
            }
            Expr::Field(p) => {
                self.tick(1)?;
                pkt.get_field(&dotted(p)).unwrap_or(0)
            }
            Expr::Valid(proto) => {
                self.tick(1)?;
                has_header(pkt, proto) as u64
            }
            Expr::MapGet(m, k) => {
                let k = self.eval(k, pkt)?;
                self.tick(1)?;
                self.env.map_get(m, k).unwrap_or(0)
            }
            Expr::MapHas(m, k) => {
                let k = self.eval(k, pkt)?;
                self.tick(1)?;
                self.env.map_get(m, k).is_some() as u64
            }
            Expr::RegRead(r, i) => {
                let i = self.eval(i, pkt)?;
                self.tick(1)?;
                self.env.reg_read(r, i)?
            }
            Expr::CounterRead(c) => {
                self.tick(1)?;
                self.env.counter_read(c)
            }
            Expr::MeterCheck(m, k) => {
                let k = self.eval(k, pkt)?;
                self.tick(1)?;
                self.env.meter_check(m, k) as u64
            }
            Expr::Hash(args) => {
                let vals = args
                    .iter()
                    .map(|a| self.eval(a, pkt))
                    .collect::<Result<Vec<_>>>()?;
                self.tick(1)?;
                hash_values(&vals)
            }
            Expr::PktLen => {
                self.tick(1)?;
                pkt.wire_len() as u64
            }
            Expr::Bin(op, l, r) => {
                let a = self.eval(l, pkt)?;
                // The `&&`/`||` node's tick sits between the operands
                // (the VM's probe instruction); other operators tick
                // after both (the VM's Bin instruction).
                match op {
                    BinOp::LAnd | BinOp::LOr => {
                        self.tick(1)?;
                        match op {
                            BinOp::LAnd if a == 0 => return Ok(0),
                            BinOp::LOr if a != 0 => return Ok(1),
                            _ => {}
                        }
                        let b = self.eval(r, pkt)?;
                        (b != 0) as u64
                    }
                    _ => {
                        let b = self.eval(r, pkt)?;
                        self.tick(1)?;
                        op.eval(a, b)?
                    }
                }
            }
            Expr::Un(op, v) => {
                let a = self.eval(v, pkt)?;
                self.tick(1)?;
                match op {
                    UnOp::Not => (a == 0) as u64,
                    UnOp::BitNot => !a,
                    UnOp::Neg => a.wrapping_neg(),
                }
            }
        })
    }
}

/// `path` as [`Packet::get_field`] spells it: `proto.field`, or
/// `meta.field` for metadata.
fn dotted(path: &FieldPath) -> String {
    match path {
        FieldPath::Header(p, f) => format!("{p}.{f}"),
        FieldPath::Meta(f) => format!("meta.{f}"),
    }
}

/// Writes a field by dotted path; returns `false` when the header does
/// not exist (metadata writes always succeed).
fn set_field(pkt: &mut Packet, path: &str, value: u64) -> bool {
    let Some((proto, field)) = path.split_once('.') else {
        return false;
    };
    Sym::lookup(proto).is_some_and(|p| pkt.set_field_sym(p, Sym::intern(field), value))
}

/// Whether the stack contains a header of the given protocol.
pub fn has_header(pkt: &Packet, proto: &str) -> bool {
    Sym::lookup(proto).is_some_and(|p| pkt.header_sym(p).is_some())
}

/// Pushes a header after the outermost header of `after_proto`
/// (or at the top of the stack when `after_proto` is `None`).
fn insert_header(pkt: &mut Packet, header: Header, after_proto: Option<&str>) {
    pkt.insert_header_sym(header, after_proto.and_then(Sym::lookup));
}

/// Removes the first header of the given protocol; returns it if present.
fn remove_header(pkt: &mut Packet, proto: &str) -> Option<Header> {
    pkt.remove_header_sym(Sym::lookup(proto)?)
}

/// A plain in-memory [`ExecEnv`] backed by ordered maps, for the
/// interpreter's own tests, the VM differential and the property tests.
#[derive(Debug, Default)]
pub struct MemEnv {
    /// Table entries: table name → list of (keys, action) exact entries.
    pub tables: BTreeMap<String, Vec<(Vec<u64>, ActionCall)>>,
    /// Map state.
    pub maps: BTreeMap<String, BTreeMap<u64, u64>>,
    /// Map capacity limits (optional; absent = unbounded).
    pub map_caps: BTreeMap<String, usize>,
    /// Register state.
    pub regs: BTreeMap<String, Vec<u64>>,
    /// Declared register sizes (optional). When a register has a declared
    /// size, accesses are bounds-checked and out-of-range indices trap;
    /// without one the register auto-grows (legacy test convenience).
    pub reg_sizes: BTreeMap<String, u64>,
    /// Counter state: (packets, bytes).
    pub counters: BTreeMap<String, (u64, u64)>,
    /// Meter token state: meter name → key → tokens remaining.
    pub meters: BTreeMap<String, BTreeMap<u64, u64>>,
    /// Default tokens granted to a fresh meter key.
    pub meter_default_tokens: u64,
    /// Recorded dRPC invocations.
    pub invocations: Vec<(String, Vec<u64>)>,
}

impl MemEnv {
    /// An empty environment with a default meter budget.
    pub fn new() -> MemEnv {
        MemEnv {
            meter_default_tokens: 100,
            ..MemEnv::default()
        }
    }

    /// Installs an exact-match entry.
    pub fn install_entry(&mut self, table: &str, keys: Vec<u64>, action: ActionCall) {
        self.tables
            .entry(table.to_string())
            .or_default()
            .push((keys, action));
    }
}

impl ExecEnv for MemEnv {
    fn table_lookup(&mut self, table: &str, keys: &[u64]) -> Option<ActionCall> {
        self.tables
            .get(table)?
            .iter()
            .find(|(k, _)| k.as_slice() == keys)
            .map(|(_, a)| a.clone())
    }

    fn map_get(&mut self, map: &str, key: u64) -> Option<u64> {
        self.maps.get(map)?.get(&key).copied()
    }

    fn map_put(&mut self, map: &str, key: u64, value: u64) -> Result<()> {
        let m = self.maps.entry(map.to_string()).or_default();
        if let Some(cap) = self.map_caps.get(map) {
            if m.len() >= *cap && !m.contains_key(&key) {
                return Err(FlexError::Sim(format!("map `{map}` full")));
            }
        }
        m.insert(key, value);
        Ok(())
    }

    fn map_del(&mut self, map: &str, key: u64) {
        if let Some(m) = self.maps.get_mut(map) {
            m.remove(&key);
        }
    }

    fn reg_read(&mut self, reg: &str, idx: u64) -> Result<u64> {
        if let Some(&size) = self.reg_sizes.get(reg) {
            if idx >= size {
                return Err(Trap::StateOutOfBounds {
                    kind: "register",
                    name: reg.to_string(),
                    index: idx,
                    size,
                }
                .into());
            }
        }
        Ok(self
            .regs
            .get(reg)
            .and_then(|r| r.get(idx as usize))
            .copied()
            .unwrap_or(0))
    }

    fn reg_write(&mut self, reg: &str, idx: u64, val: u64) -> Result<()> {
        if let Some(&size) = self.reg_sizes.get(reg) {
            if idx >= size {
                return Err(Trap::StateOutOfBounds {
                    kind: "register",
                    name: reg.to_string(),
                    index: idx,
                    size,
                }
                .into());
            }
        }
        let r = self.regs.entry(reg.to_string()).or_default();
        if r.len() <= idx as usize {
            r.resize(idx as usize + 1, 0);
        }
        r[idx as usize] = val;
        Ok(())
    }

    fn counter_add(&mut self, counter: &str, pkts: u64, bytes: u64) {
        let c = self.counters.entry(counter.to_string()).or_insert((0, 0));
        c.0 += pkts;
        c.1 += bytes;
    }

    fn counter_read(&mut self, counter: &str) -> u64 {
        self.counters.get(counter).map(|c| c.0).unwrap_or(0)
    }

    fn meter_check(&mut self, meter: &str, key: u64) -> bool {
        let default = self.meter_default_tokens;
        let tokens = self
            .meters
            .entry(meter.to_string())
            .or_default()
            .entry(key)
            .or_insert(default);
        if *tokens > 0 {
            *tokens -= 1;
            true
        } else {
            false
        }
    }

    fn invoke_service(&mut self, service: &str, args: &[u64]) {
        self.invocations.push((service.to_string(), args.to_vec()));
    }
}
