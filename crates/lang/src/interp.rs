//! The FlexBPF reference interpreter.
//!
//! The interpreter executes a handler against a packet, delegating all
//! *stateful* operations (table lookups, maps, registers, counters, meters,
//! dRPC invocations) to an [`ExecEnv`] implemented by the device models in
//! `flexnet-dataplane`. This split mirrors the paper's observation (§3.1)
//! that "individual devices have drastically different ways of implementing
//! this state": the program sees logical key/value maps; the device chooses
//! the encoding.
//!
//! Execution also counts abstract operations, which device models convert
//! into per-packet latency using their own cost models.

use crate::ast::*;
use crate::headers::HeaderRegistry;
use flexnet_types::hash::hash_values;
use flexnet_types::{FlexError, Header, Packet, Result, Trap, Verdict};
use std::collections::BTreeMap;

/// Sentinel gas budget meaning "no limit". The metering checkpoints still
/// run (so a limited and an unlimited budget share one code path and one
/// op accounting), but the budget can never be exceeded.
pub const GAS_UNLIMITED: u64 = u64::MAX;

/// The widest table key (in field count) either engine will build at
/// runtime. Statically-typechecked programs never get near it; a runtime
/// reconfiguration that grafts a wider table onto a live program trips
/// [`Trap::KeyOverflow`] instead of unbounded key-build work.
pub const MAX_TABLE_KEY_WIDTH: usize = 16;

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

/// The result of running one handler over one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// The verdict, or `None` when the handler fell through / `return`ed
    /// without one (the device applies its default behaviour), and always
    /// `None` when the packet trapped.
    pub verdict: Option<Verdict>,
    /// Abstract operations executed (for device latency models). On a trap
    /// this is the gas consumed up to and including the trapping operation,
    /// identical across both execution engines.
    pub ops: u64,
    /// The trap that ended execution, if any. A trapped packet carries no
    /// verdict; the device fails closed (drops) and accounts the trap.
    pub trap: Option<Trap>,
}

impl ExecOutcome {
    /// Whether execution ended in a trap.
    pub fn trapped(&self) -> bool {
        self.trap.is_some()
    }
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
                pkt.set_field(&p.dotted(), v);
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
                    .map(|k| pkt.get_field(&k.field.dotted()).unwrap_or(0))
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
                if !pkt.has_header(proto) {
                    let decl = self.headers.decl(proto);
                    let fields = decl.into_iter().flat_map(|d| &d.fields);
                    let header = Header::new(proto.as_str(), fields.map(|f| (f.name.as_str(), 0)));
                    let after = decl
                        .and_then(|d| d.follows.as_ref())
                        .map(|f| f.prev_proto.as_str());
                    pkt.insert_header(header, after);
                }
                Ok(Flow::Continue)
            }
            Stmt::RemoveHeader(proto) => {
                self.tick(1)?; // RemoveHeader
                pkt.remove_header(proto);
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
                pkt.get_field(&p.dotted()).unwrap_or(0)
            }
            Expr::Valid(proto) => {
                self.tick(1)?;
                pkt.has_header(proto) as u64
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
                        eval_bin(*op, a, b)?
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

/// Wrapping u64 semantics; division/modulo by zero raise a typed
/// [`Trap::DivisionByZero`] (shift amounts ≥ 64 remain defined as 0 —
/// they lose information, they don't indict the packet). Shared with the
/// bytecode VM so both engines agree bit for bit, traps included.
pub(crate) fn eval_bin(op: BinOp, a: u64, b: u64) -> Result<u64> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => match a.checked_div(b) {
            Some(v) => v,
            None => return Err(Trap::DivisionByZero { op: "/" }.into()),
        },
        BinOp::Mod => match a.checked_rem(b) {
            Some(v) => v,
            None => return Err(Trap::DivisionByZero { op: "%" }.into()),
        },
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= 64 {
                0
            } else {
                a << b
            }
        }
        BinOp::Shr => {
            if b >= 64 {
                0
            } else {
                a >> b
            }
        }
        BinOp::Eq => (a == b) as u64,
        BinOp::Ne => (a != b) as u64,
        BinOp::Lt => (a < b) as u64,
        BinOp::Le => (a <= b) as u64,
        BinOp::Gt => (a > b) as u64,
        BinOp::Ge => (a >= b) as u64,
        BinOp::LAnd => ((a != 0) && (b != 0)) as u64,
        BinOp::LOr => ((a != 0) || (b != 0)) as u64,
    })
}

/// A plain in-memory [`ExecEnv`] backed by hash maps, used by unit tests and
/// by the host device model (eBPF-style software state).
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
        self.tables.entry(table.to_string()).or_default().push((keys, action));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, pkt: &mut Packet, env: &mut MemEnv) -> ExecOutcome {
        let p = parse_program(src).unwrap();
        let headers = HeaderRegistry::builtins();
        crate::typecheck::check_program(&p, &headers).unwrap();
        execute_metered(&p, "ingress", pkt, env, &headers, GAS_UNLIMITED).unwrap()
    }

    #[test]
    fn forward_verdict() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p { handler ingress(pkt) { forward(7); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(7)));
        assert!(out.ops >= 2);
    }

    #[test]
    fn map_and_counter_state() {
        let mut pkt = Packet::tcp(1, 10, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p {
               map m : map<u32, u32>[16];
               counter c;
               handler ingress(pkt) {
                 map_put(m, ipv4.src, map_get(m, ipv4.src) + 1);
                 count(c);
                 if (map_get(m, ipv4.src) >= 1) { drop(); }
                 forward(1);
               }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Drop));
        assert_eq!(env.maps["m"][&10], 1);
        assert_eq!(env.counters["c"].0, 1);
    }

    #[test]
    fn table_hit_runs_action_with_params() {
        let mut pkt = Packet::tcp(1, 99, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        env.install_entry(
            "acl",
            vec![99],
            ActionCall {
                action: "set_port".into(),
                args: vec![42],
            },
        );
        let out = run(
            "program p {
               table acl {
                 key { ipv4.src : exact; }
                 action set_port(port: u16) { forward(port); }
                 action deny() { drop(); }
                 default deny();
                 size 8;
               }
               handler ingress(pkt) { apply acl; }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(42)));
    }

    #[test]
    fn table_miss_runs_default() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p {
               table acl {
                 key { ipv4.src : exact; }
                 action deny() { drop(); }
                 default deny();
                 size 8;
               }
               handler ingress(pkt) { apply acl; forward(1); }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Drop));
    }

    #[test]
    fn table_miss_without_default_falls_through() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p {
               table acl { key { ipv4.src : exact; } size 8; }
               handler ingress(pkt) { apply acl; forward(9); }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(9)));
    }

    #[test]
    fn registers_and_repeat() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        run(
            "program p {
               register r : u64[4];
               handler ingress(pkt) {
                 repeat (3) { reg_write(r, 0, reg_read(r, 0) + 2); }
                 forward(1);
               }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(env.regs["r"][0], 6);
    }

    #[test]
    fn meter_rejects_after_tokens_exhausted() {
        let mut env = MemEnv::new();
        env.meter_default_tokens = 2;
        let src = "program p {
            meter lim rate 1 burst 2;
            handler ingress(pkt) {
              if (meter_check(lim, ipv4.src)) { forward(1); } else { drop(); }
            }
          }";
        let mut pkt = Packet::tcp(1, 5, 2, 3, 4, 0);
        assert_eq!(run(src, &mut pkt, &mut env).verdict, Some(Verdict::Forward(1)));
        assert_eq!(run(src, &mut pkt, &mut env).verdict, Some(Verdict::Forward(1)));
        assert_eq!(run(src, &mut pkt, &mut env).verdict, Some(Verdict::Drop));
    }

    #[test]
    fn header_add_remove_and_validity() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p { handler ingress(pkt) {
               add_header(vlan);
               vlan.vid = 42;
               if (valid(vlan)) { meta.tagged = 1; }
               remove_header(vlan);
               if (!valid(vlan)) { forward(2); }
               drop();
             } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(2)));
        assert_eq!(pkt.metadata.get("tagged"), Some(&1));
        assert!(!pkt.has_header("vlan"));
    }

    #[test]
    fn vlan_inserted_after_eth() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        run(
            "program p { handler ingress(pkt) { add_header(vlan); forward(1); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(pkt.headers().nth(1).unwrap().proto(), "vlan");
    }

    #[test]
    fn short_circuit_logical_ops() {
        // map_get on the rhs of && must not run when lhs is false: use a
        // meter with 0 tokens as an observable side effect.
        let mut env = MemEnv::new();
        env.meter_default_tokens = 5;
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        run(
            "program p {
               meter lim rate 1 burst 1;
               handler ingress(pkt) {
                 if (1 == 2 && meter_check(lim, 0)) { drop(); }
                 forward(1);
               }
             }",
            &mut pkt,
            &mut env,
        );
        assert!(env.meters.get("lim").is_none_or(|m| m.is_empty()));
    }

    #[test]
    fn punt_recirculate_return() {
        let mut env = MemEnv::new();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let out = run(
            "program p { handler ingress(pkt) { punt(); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::ToController));
        let out = run(
            "program p { handler ingress(pkt) { recirculate(); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Recirculate));
        let out = run(
            "program p { handler ingress(pkt) { return; drop(); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, None, "return yields no verdict");
    }

    #[test]
    fn invoke_records_service_call() {
        let mut env = MemEnv::new();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        run(
            "program p {
               service require mig(dst: u32, tag: u32);
               handler ingress(pkt) { invoke mig(7, ipv4.src); forward(1); }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(env.invocations, vec![("mig".to_string(), vec![7, 1])]);
    }

    #[test]
    fn division_by_zero_traps_shifts_stay_defined() {
        assert_eq!(
            eval_bin(BinOp::Div, 5, 0),
            Err(Trap::DivisionByZero { op: "/" }.into())
        );
        assert_eq!(
            eval_bin(BinOp::Mod, 5, 0),
            Err(Trap::DivisionByZero { op: "%" }.into())
        );
        assert_eq!(eval_bin(BinOp::Shl, 1, 64), Ok(0));
        assert_eq!(eval_bin(BinOp::Shr, u64::MAX, 64), Ok(0));
    }

    #[test]
    fn wrapping_arithmetic() {
        assert_eq!(eval_bin(BinOp::Add, u64::MAX, 1), Ok(0));
        assert_eq!(eval_bin(BinOp::Sub, 0, 1), Ok(u64::MAX));
        assert_eq!(eval_bin(BinOp::Mul, u64::MAX, 2), Ok(u64::MAX - 1));
    }

    #[test]
    fn division_by_zero_in_program_is_a_trapped_outcome() {
        let p = parse_program(
            "program p { handler ingress(pkt) { let x = 10 / meta.z; forward(1); } }",
        )
        .unwrap();
        let headers = HeaderRegistry::builtins();
        crate::typecheck::check_program(&p, &headers).unwrap();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out =
            execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, GAS_UNLIMITED).unwrap();
        assert_eq!(out.verdict, None, "a trapped packet carries no verdict");
        assert_eq!(out.trap, Some(Trap::DivisionByZero { op: "/" }));
    }

    #[test]
    fn gas_exhaustion_traps_at_limit_plus_one() {
        let p = parse_program(
            "program p {
               register r : u64[4];
               handler ingress(pkt) {
                 repeat (64) { reg_write(r, 0, reg_read(r, 0) + 1); }
                 forward(1);
               }
             }",
        )
        .unwrap();
        let headers = HeaderRegistry::builtins();
        crate::typecheck::check_program(&p, &headers).unwrap();

        // Unmetered run establishes the true cost.
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let full =
            execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, GAS_UNLIMITED).unwrap();
        assert!(full.trap.is_none());
        let cost = full.ops;

        // One op short of the cost must trap at exactly limit + 1.
        let gas = cost - 1;
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, gas).unwrap();
        assert_eq!(out.trap, Some(Trap::GasExhausted { limit: gas }));
        assert_eq!(out.ops, gas + 1, "the trapping op is the first over budget");
        assert_eq!(out.verdict, None);

        // Exactly the cost completes.
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, cost).unwrap();
        assert!(out.trap.is_none());
        assert_eq!(out.verdict, Some(Verdict::Forward(1)));
    }

    #[test]
    fn shrunken_register_traps_out_of_bounds() {
        // The program verifies against size 64; the environment models a
        // register shrunk to 4 by a post-install reconfiguration.
        let p = parse_program(
            "program p {
               register r : u64[64];
               handler ingress(pkt) { reg_write(r, ipv4.src % 64, 1); forward(1); }
             }",
        )
        .unwrap();
        let headers = HeaderRegistry::builtins();
        crate::typecheck::check_program(&p, &headers).unwrap();
        crate::verifier::verify_program(&p, &headers).unwrap();
        let mut env = MemEnv::new();
        env.reg_sizes.insert("r".into(), 4);
        let mut pkt = Packet::tcp(1, 40, 2, 3, 4, 0);
        let out =
            execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, GAS_UNLIMITED).unwrap();
        assert_eq!(
            out.trap,
            Some(Trap::StateOutOfBounds {
                kind: "register",
                name: "r".into(),
                index: 40,
                size: 4,
            })
        );
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_values(&[1, 2, 3]), hash_values(&[1, 2, 3]));
        assert_ne!(hash_values(&[1, 2, 3]), hash_values(&[3, 2, 1]));
    }

    #[test]
    fn map_capacity_enforced() {
        let mut env = MemEnv::new();
        env.map_caps.insert("m".into(), 1);
        env.map_put("m", 1, 1).unwrap();
        assert!(env.map_put("m", 2, 2).is_err());
        env.map_put("m", 1, 9).unwrap(); // update in place is fine
    }
}
