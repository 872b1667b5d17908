//! The FlexBPF abstract syntax tree.
//!
//! FlexBPF (paper §3.1) is "a domain-specific language that mixes
//! match/action-style packet processing and eBPF-style offloads", exposing
//! network state as logical key/value maps. A source file contains global
//! `header` declarations (consumed by runtime parser reconfiguration) and
//! one or more `program` declarations; each program declares state (maps,
//! counters, registers, meters), match/action tables, dRPC services, and
//! imperative handlers.
//!
//! The AST doubles as the exchange format for the incremental-change DSL
//! (`patch.rs`) and datapath composition (`compose.rs`), so every node is
//! `Clone + PartialEq` and the tree can be pretty-printed back to parseable
//! source (`to_source`), which the tests round-trip.
//!
//! The declaration is the unit of sharing: a [`Program`] holds its state,
//! table, service and handler declarations (and a bundle its headers)
//! behind `Arc`s, the parser makes them, and composition, diffing, sealing
//! and the device hand the pointer on. An `Arc<T>` prints and compares as
//! its `T` (a shared one is recognised by address first), so sharing is
//! invisible to `{:?}`, `to_source()` and every digest; whoever edits a
//! declaration in place does so through `Arc::make_mut`, on its own copy.

use flexnet_types::{Result, Sym, Trap};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// A parsed FlexBPF source file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceFile {
    /// Global header-type declarations.
    pub headers: Vec<Arc<HeaderDecl>>,
    /// Program declarations.
    pub programs: Vec<Program>,
}

/// A header-type declaration, e.g.
/// `header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderDecl {
    /// Protocol name.
    pub name: String,
    /// Field declarations, in wire order.
    pub fields: Vec<FieldDecl>,
    /// Parser edge: which protocol this header follows and under what
    /// condition. `None` for root headers.
    pub follows: Option<FollowsClause>,
}

/// One field of a header type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Width in bits (1..=64).
    pub width: u8,
}

/// The parser transition that leads to a header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowsClause {
    /// The predecessor protocol, e.g. `udp`.
    pub prev_proto: String,
    /// The select field on the predecessor, e.g. `dport`.
    pub select_field: String,
    /// The select value, e.g. `4789`.
    pub value: u64,
}

/// Which class of device a program is written for. Determines which
/// builtins the verifier admits and which targets the compiler considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramKind {
    /// Switch ASIC datapath program (match/action oriented).
    Switch,
    /// SmartNIC program.
    Nic,
    /// Host (eBPF-style) program.
    Host,
    /// Placement decided entirely by the compiler.
    Any,
}

impl ProgramKind {
    fn keyword(self) -> &'static str {
        match self {
            ProgramKind::Switch => "switch",
            ProgramKind::Nic => "nic",
            ProgramKind::Host => "host",
            ProgramKind::Any => "any",
        }
    }
}

impl fmt::Display for ProgramKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A FlexBPF program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Target-class hint.
    pub kind: ProgramKind,
    /// State declarations (maps, counters, registers, meters).
    pub states: Vec<Arc<StateDecl>>,
    /// Match/action table declarations.
    pub tables: Vec<Arc<TableDecl>>,
    /// dRPC services this program invokes or provides.
    pub services: Vec<Arc<ServiceDecl>>,
    /// Packet handlers (`ingress`, `egress`, …).
    pub handlers: Vec<Arc<Handler>>,
}

impl Program {
    /// An empty program with the given name and kind.
    pub fn empty(name: &str, kind: ProgramKind) -> Program {
        Program {
            name: name.to_string(),
            kind,
            states: Vec::new(),
            tables: Vec::new(),
            services: Vec::new(),
            handlers: Vec::new(),
        }
    }

    /// Finds a table by name.
    pub fn table(&self, name: &str) -> Option<&Arc<TableDecl>> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Finds a state declaration by name.
    pub fn state(&self, name: &str) -> Option<&Arc<StateDecl>> {
        self.states.iter().find(|s| s.name == name)
    }

    /// Finds a handler by name.
    pub fn handler(&self, name: &str) -> Option<&Arc<Handler>> {
        self.handlers.iter().find(|h| h.name == name)
    }
}

/// The kinds of logical state FlexBPF exposes (paper §3.1: "a logical and
/// constrained form of network state, organized in key/value maps").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateKind {
    /// A key/value map with fixed key and value widths.
    Map {
        /// Key width in bits.
        key_width: u8,
        /// Value width in bits.
        value_width: u8,
    },
    /// A packet/byte counter.
    Counter,
    /// An indexed register array.
    Register {
        /// Cell width in bits.
        width: u8,
    },
    /// A two-rate token-bucket meter.
    Meter {
        /// Committed rate in packets per second.
        rate_pps: u64,
        /// Burst size in packets.
        burst: u64,
    },
}

/// A state declaration, e.g. `map blocked : map<u32, u8>[1024];`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDecl {
    /// State object name.
    pub name: String,
    /// What kind of state this is.
    pub kind: StateKind,
    /// Number of entries/cells (1 for counters and meters).
    pub size: u64,
}

/// How a table key field is matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// Exact match (SRAM hash lookup).
    Exact,
    /// Longest-prefix match (TCAM).
    Lpm,
    /// Ternary match (TCAM).
    Ternary,
    /// Range match (TCAM expansion).
    Range,
}

impl MatchKind {
    fn keyword(self) -> &'static str {
        match self {
            MatchKind::Exact => "exact",
            MatchKind::Lpm => "lpm",
            MatchKind::Ternary => "ternary",
            MatchKind::Range => "range",
        }
    }
}

impl fmt::Display for MatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A reference to a packet field or metadata slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldPath {
    /// A header field, e.g. `ipv4.src`.
    Header(String, String),
    /// A metadata slot, e.g. `meta.mark`.
    Meta(String),
}

impl FieldPath {
    /// The interned `(proto, field)` form used by the packet path. This is
    /// where a program's field names enter the interner.
    pub fn syms(&self) -> (Sym, Sym) {
        match self {
            FieldPath::Header(p, f) => (Sym::intern(p), Sym::intern(f)),
            FieldPath::Meta(f) => (Sym::META, Sym::intern(f)),
        }
    }
}

impl fmt::Display for FieldPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_field(f, self)
    }
}

/// One key of a match/action table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableKey {
    /// The matched field.
    pub field: FieldPath,
    /// How it is matched.
    pub match_kind: MatchKind,
}

/// An action declaration inside a table: a named parameterized block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDecl {
    /// Action name (unique within the table).
    pub name: String,
    /// Parameter names and widths; bound as locals when the action runs.
    pub params: Vec<(String, u8)>,
    /// The action body.
    pub body: Block,
}

/// An action invocation with constant arguments (table entries and default
/// actions bind actions this way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionCall {
    /// The action name.
    pub action: String,
    /// Constant arguments, one per declared parameter.
    pub args: Vec<u64>,
}

/// A match/action table declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDecl {
    /// Table name.
    pub name: String,
    /// Match keys.
    pub keys: Vec<TableKey>,
    /// Declared actions.
    pub actions: Vec<ActionDecl>,
    /// Action to run on a miss.
    pub default_action: Option<ActionCall>,
    /// Maximum number of entries.
    pub size: u64,
}

impl TableDecl {
    /// Finds an action by name.
    pub fn action(&self, name: &str) -> Option<&ActionDecl> {
        self.actions.iter().find(|a| a.name == name)
    }

    /// Whether any key requires TCAM (lpm/ternary/range).
    pub fn needs_tcam(&self) -> bool {
        self.keys
            .iter()
            .any(|k| !matches!(k.match_kind, MatchKind::Exact))
    }
}

/// A dRPC service declaration (paper §3.4): either provided by this program
/// or imported from the infrastructure program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDecl {
    /// Service name.
    pub name: String,
    /// Parameter names and widths.
    pub params: Vec<(String, u8)>,
    /// `true` when this program provides (exports) the service; `false`
    /// when it imports it.
    pub provided: bool,
}

/// A packet handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handler {
    /// Handler name (`ingress`, `egress`, …).
    pub name: String,
    /// The handler body.
    pub body: Block,
}

/// A statement block.
pub type Block = Vec<Stmt>;

/// FlexBPF statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `let x = expr;`
    Let(String, Expr),
    /// `x = expr;` (re-assigning a local)
    AssignLocal(String, Expr),
    /// `ipv4.ttl = expr;`
    AssignField(FieldPath, Expr),
    /// `map_put(m, key, value);`
    MapPut(String, Expr, Expr),
    /// `map_del(m, key);`
    MapDelete(String, Expr),
    /// `reg_write(r, index, value);`
    RegWrite(String, Expr, Expr),
    /// `count(c);`
    Count(String),
    /// `if (cond) { … } else { … }`. The condition and the branches are
    /// shared: a tenant's VLAN guard is built once and every composition
    /// lays the same three `Arc`s down (an empty `else` prints as no
    /// `else`).
    If(Arc<Expr>, Arc<Block>, Arc<Block>),
    /// `repeat (n) { … }` — constant trip count, verified bounded.
    Repeat(u64, Block),
    /// `apply t;`
    Apply(String),
    /// `drop();`
    Drop,
    /// `forward(port);`
    Forward(Expr),
    /// `punt();` — send to controller.
    Punt,
    /// `recirculate();`
    Recirculate,
    /// `invoke svc(args…);` — a dRPC call (paper §3.4).
    Invoke(String, Vec<Expr>),
    /// `add_header(proto);`
    AddHeader(String),
    /// `remove_header(proto);`
    RemoveHeader(String),
    /// `return;`
    Return,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
}

impl BinOp {
    /// Whether this operator yields a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether this operator is logical (takes booleans).
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LAnd | BinOp::LOr)
    }

    /// Applies the operator: wrapping u64 arithmetic; division and modulo
    /// by zero raise a typed [`Trap::DivisionByZero`] (shift amounts ≥ 64
    /// stay defined as 0 — they lose information, they don't indict the
    /// packet). The one definition of operator semantics: the bytecode VM
    /// and the tests' reference interpreter both call it, so they agree
    /// bit for bit, traps included.
    pub fn eval(self, a: u64, b: u64) -> Result<u64> {
        Ok(match self {
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

    /// Source token for pretty-printing.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::LAnd => "&&",
            BinOp::LOr => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical `!`
    Not,
    /// Bitwise `~`
    BitNot,
    /// Arithmetic negation (wrapping on u64).
    Neg,
}

/// FlexBPF expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(u64),
    /// Local variable (or action parameter).
    Local(String),
    /// Packet field or metadata read.
    Field(FieldPath),
    /// `valid(proto)` — header presence test.
    Valid(String),
    /// `map_get(m, key)` — returns the value or 0 on a miss.
    MapGet(String, Box<Expr>),
    /// `map_has(m, key)` — membership test.
    MapHas(String, Box<Expr>),
    /// `reg_read(r, index)`.
    RegRead(String, Box<Expr>),
    /// `counter_read(c)`.
    CounterRead(String),
    /// `meter_check(m, key)` — 1 when conforming, 0 when exceeding.
    MeterCheck(String, Box<Expr>),
    /// `hash(e1, e2, …)` — deterministic mixing of the arguments.
    Hash(Vec<Expr>),
    /// `pktlen()` — wire length of the packet.
    PktLen,
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
}

impl Expr {
    /// Convenience: `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Eq, Box::new(a), Box::new(b))
    }

    /// Convenience: a header-field read.
    pub fn field(proto: &str, field: &str) -> Expr {
        Expr::Field(FieldPath::Header(proto.to_string(), field.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Name references
// ---------------------------------------------------------------------------
//
// The one walk over the state and table names a block references: access
// control, namespacing, table sharing, placement dependencies and the
// device's apply set all read names through it. The order is pre-order — a
// statement's own name, then its expressions left to right, an `if`'s
// condition, then-branch, else-branch. `visit_names_mut` is the same walk
// for renaming; the two change together.

/// Calls `f` with every state and table name `block` references, in
/// pre-order. Locals, fields, headers and `invoke`d services are not names
/// of this kind.
pub fn visit_names<'a>(block: &'a Block, f: &mut impl FnMut(&'a str)) {
    fn expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a str)) {
        match e {
            Expr::MapGet(n, k)
            | Expr::MapHas(n, k)
            | Expr::RegRead(n, k)
            | Expr::MeterCheck(n, k) => {
                f(n);
                expr(k, f);
            }
            Expr::CounterRead(n) => f(n),
            Expr::Hash(args) => args.iter().for_each(|a| expr(a, f)),
            Expr::Bin(_, l, r) => {
                expr(l, f);
                expr(r, f);
            }
            Expr::Un(_, v) => expr(v, f),
            _ => {}
        }
    }
    for s in block {
        match s {
            Stmt::Let(_, e)
            | Stmt::AssignLocal(_, e)
            | Stmt::AssignField(_, e)
            | Stmt::Forward(e) => expr(e, f),
            Stmt::MapPut(n, k, v) | Stmt::RegWrite(n, k, v) => {
                f(n);
                expr(k, f);
                expr(v, f);
            }
            Stmt::MapDelete(n, k) => {
                f(n);
                expr(k, f);
            }
            Stmt::Count(n) | Stmt::Apply(n) => f(n),
            Stmt::If(c, t, e) => {
                expr(c, f);
                visit_names(t, f);
                visit_names(e, f);
            }
            Stmt::Repeat(_, b) => visit_names(b, f),
            Stmt::Invoke(_, args) => args.iter().for_each(|a| expr(a, f)),
            _ => {}
        }
    }
}

/// [`visit_names`] with each name handed out for renaming in place. A
/// shared `if` condition or branch is un-shared (`Arc::make_mut`) on the
/// way down.
pub fn visit_names_mut(block: &mut Block, f: &mut impl FnMut(&mut String)) {
    fn expr(e: &mut Expr, f: &mut impl FnMut(&mut String)) {
        match e {
            Expr::MapGet(n, k)
            | Expr::MapHas(n, k)
            | Expr::RegRead(n, k)
            | Expr::MeterCheck(n, k) => {
                f(n);
                expr(k, f);
            }
            Expr::CounterRead(n) => f(n),
            Expr::Hash(args) => args.iter_mut().for_each(|a| expr(a, f)),
            Expr::Bin(_, l, r) => {
                expr(l, f);
                expr(r, f);
            }
            Expr::Un(_, v) => expr(v, f),
            _ => {}
        }
    }
    for s in block {
        match s {
            Stmt::Let(_, e)
            | Stmt::AssignLocal(_, e)
            | Stmt::AssignField(_, e)
            | Stmt::Forward(e) => expr(e, f),
            Stmt::MapPut(n, k, v) | Stmt::RegWrite(n, k, v) => {
                f(n);
                expr(k, f);
                expr(v, f);
            }
            Stmt::MapDelete(n, k) => {
                f(n);
                expr(k, f);
            }
            Stmt::Count(n) | Stmt::Apply(n) => f(n),
            Stmt::If(c, t, e) => {
                expr(Arc::make_mut(c), f);
                visit_names_mut(Arc::make_mut(t), f);
                visit_names_mut(Arc::make_mut(e), f);
            }
            Stmt::Repeat(_, b) => visit_names_mut(b, f),
            Stmt::Invoke(_, args) => args.iter_mut().for_each(|a| expr(a, f)),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Pretty printer
// ---------------------------------------------------------------------------
//
// One writer, generic over the sink: `to_source` collects it into a
// `String`, the configuration digest folds the same bytes into an FNV
// state without materializing them. It writes pieces — `write_str` and
// `write_u64` — rather than format strings, which would run the
// formatting machinery for every name and number of every seal.

/// Writes `pieces` in order.
fn write_all<W: fmt::Write>(out: &mut W, pieces: &[&str]) -> fmt::Result {
    pieces.iter().try_for_each(|p| out.write_str(p))
}

/// `v` in decimal, as `{v}` prints it.
fn write_u64<W: fmt::Write>(out: &mut W, mut v: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Only ASCII digits were written.
    out.write_str(std::str::from_utf8(&buf[at..]).unwrap_or_default())
}

fn write_field<W: fmt::Write>(out: &mut W, path: &FieldPath) -> fmt::Result {
    match path {
        FieldPath::Header(p, f) => write_all(out, &[p, ".", f]),
        FieldPath::Meta(f) => write_all(out, &["meta.", f]),
    }
}

/// A comma-separated list, written through `item`.
fn write_list<W: fmt::Write, T>(
    out: &mut W,
    items: &[T],
    mut item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        item(out, x)?;
    }
    Ok(())
}

/// `name: u<width>, …` — service and action parameter lists.
fn write_params<W: fmt::Write>(out: &mut W, params: &[(String, u8)]) -> fmt::Result {
    write_list(out, params, |out, (n, w)| {
        write_all(out, &[n, ": u"])?;
        write_u64(out, u64::from(*w))
    })
}

fn indent<W: fmt::Write>(out: &mut W, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_block<W: fmt::Write>(out: &mut W, block: &Block, depth: usize) -> fmt::Result {
    block
        .iter()
        .try_for_each(|stmt| write_stmt(out, stmt, depth))
}

/// `head` `e` `tail`: the shape of every one-expression statement.
fn write_wrapped<W: fmt::Write>(out: &mut W, head: &[&str], e: &Expr, tail: &str) -> fmt::Result {
    write_all(out, head)?;
    write_expr(out, e)?;
    out.write_str(tail)
}

/// `head` `a`, `b` `tail`: the shape of every two-expression statement.
fn write_pair<W: fmt::Write>(
    out: &mut W,
    head: &[&str],
    a: &Expr,
    b: &Expr,
    tail: &str,
) -> fmt::Result {
    write_wrapped(out, head, a, ", ")?;
    write_expr(out, b)?;
    out.write_str(tail)
}

fn write_stmt<W: fmt::Write>(out: &mut W, stmt: &Stmt, depth: usize) -> fmt::Result {
    indent(out, depth)?;
    match stmt {
        Stmt::Let(n, e) => write_wrapped(out, &["let ", n, " = "], e, ";\n"),
        Stmt::AssignLocal(n, e) => write_wrapped(out, &[n, " = "], e, ";\n"),
        Stmt::AssignField(p, e) => {
            write_field(out, p)?;
            write_wrapped(out, &[" = "], e, ";\n")
        }
        Stmt::MapPut(m, k, v) => write_pair(out, &["map_put(", m, ", "], k, v, ");\n"),
        Stmt::MapDelete(m, k) => write_wrapped(out, &["map_del(", m, ", "], k, ");\n"),
        Stmt::RegWrite(r, i, v) => write_pair(out, &["reg_write(", r, ", "], i, v, ");\n"),
        Stmt::Count(c) => write_all(out, &["count(", c, ");\n"]),
        Stmt::If(c, t, e) => {
            write_wrapped(out, &["if ("], c, ") {\n")?;
            write_block(out, t, depth + 1)?;
            indent(out, depth)?;
            if !e.is_empty() {
                out.write_str("} else {\n")?;
                write_block(out, e, depth + 1)?;
                indent(out, depth)?;
            }
            out.write_str("}\n")
        }
        Stmt::Repeat(n, b) => {
            out.write_str("repeat (")?;
            write_u64(out, *n)?;
            out.write_str(") {\n")?;
            write_block(out, b, depth + 1)?;
            indent(out, depth)?;
            out.write_str("}\n")
        }
        Stmt::Apply(t) => write_all(out, &["apply ", t, ";\n"]),
        Stmt::Drop => out.write_str("drop();\n"),
        Stmt::Forward(e) => write_wrapped(out, &["forward("], e, ");\n"),
        Stmt::Punt => out.write_str("punt();\n"),
        Stmt::Recirculate => out.write_str("recirculate();\n"),
        Stmt::Invoke(s, args) => {
            write_all(out, &["invoke ", s, "("])?;
            write_list(out, args, |out, a| write_expr(out, a))?;
            out.write_str(");\n")
        }
        Stmt::AddHeader(p) => write_all(out, &["add_header(", p, ");\n"]),
        Stmt::RemoveHeader(p) => write_all(out, &["remove_header(", p, ");\n"]),
        Stmt::Return => out.write_str("return;\n"),
    }
}

/// An expression as parseable source (binary operations fully
/// parenthesized).
fn write_expr<W: fmt::Write>(out: &mut W, e: &Expr) -> fmt::Result {
    match e {
        Expr::Int(v) => write_u64(out, *v),
        Expr::Local(n) => out.write_str(n),
        Expr::Field(p) => write_field(out, p),
        Expr::Valid(p) => write_all(out, &["valid(", p, ")"]),
        Expr::MapGet(m, k) => write_wrapped(out, &["map_get(", m, ", "], k, ")"),
        Expr::MapHas(m, k) => write_wrapped(out, &["map_has(", m, ", "], k, ")"),
        Expr::RegRead(r, i) => write_wrapped(out, &["reg_read(", r, ", "], i, ")"),
        Expr::CounterRead(c) => write_all(out, &["counter_read(", c, ")"]),
        Expr::MeterCheck(m, k) => write_wrapped(out, &["meter_check(", m, ", "], k, ")"),
        Expr::Hash(args) => {
            out.write_str("hash(")?;
            write_list(out, args, |out, a| write_expr(out, a))?;
            out.write_str(")")
        }
        Expr::PktLen => out.write_str("pktlen()"),
        Expr::Bin(op, l, r) => {
            write_wrapped(out, &["("], l, " ")?;
            write_wrapped(out, &[op.symbol(), " "], r, ")")
        }
        Expr::Un(op, v) => {
            let sym = match op {
                UnOp::Not => "!",
                UnOp::BitNot => "~",
                UnOp::Neg => "-",
            };
            write_wrapped(out, &[sym], v, "")
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(f, self)
    }
}

impl SourceFile {
    /// Pretty-prints the file back to parseable FlexBPF source.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for h in &self.headers {
            let _ = writeln!(out, "header {} {{", h.name);
            out.push_str("  fields {\n");
            for f in &h.fields {
                let _ = writeln!(out, "    {}: {};", f.name, f.width);
            }
            out.push_str("  }\n");
            if let Some(fl) = &h.follows {
                let _ = writeln!(
                    out,
                    "  follows {} when {}.{} == {};",
                    fl.prev_proto, fl.prev_proto, fl.select_field, fl.value
                );
            }
            out.push_str("}\n\n");
        }
        for p in &self.programs {
            let _ = p.write_source(&mut out);
            out.push('\n');
        }
        out
    }
}

impl Program {
    /// Pretty-prints the program back to parseable FlexBPF source.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        let _ = self.write_source(&mut out); // writing to a String cannot fail
        out
    }

    /// Writes the program's parseable FlexBPF source into `out` — the
    /// bytes of [`Program::to_source`], without building them first.
    pub fn write_source<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write_all(
            out,
            &[
                "program ",
                &self.name,
                " kind ",
                self.kind.keyword(),
                " {\n",
            ],
        )?;
        for s in &self.states {
            indent(out, 1)?;
            match &s.kind {
                StateKind::Map {
                    key_width,
                    value_width,
                } => {
                    write_all(out, &["map ", &s.name, " : map<u"])?;
                    write_u64(out, u64::from(*key_width))?;
                    out.write_str(", u")?;
                    write_u64(out, u64::from(*value_width))?;
                    out.write_str(">[")?;
                    write_u64(out, s.size)?;
                    out.write_str("];\n")?;
                }
                StateKind::Counter => write_all(out, &["counter ", &s.name, ";\n"])?,
                StateKind::Register { width } => {
                    write_all(out, &["register ", &s.name, " : u"])?;
                    write_u64(out, u64::from(*width))?;
                    out.write_str("[")?;
                    write_u64(out, s.size)?;
                    out.write_str("];\n")?;
                }
                StateKind::Meter { rate_pps, burst } => {
                    write_all(out, &["meter ", &s.name, " rate "])?;
                    write_u64(out, *rate_pps)?;
                    out.write_str(" burst ")?;
                    write_u64(out, *burst)?;
                    out.write_str(";\n")?;
                }
            }
        }
        for svc in &self.services {
            indent(out, 1)?;
            let kw = if svc.provided { "provide" } else { "require" };
            write_all(out, &["service ", kw, " ", &svc.name, "("])?;
            write_params(out, &svc.params)?;
            out.write_str(");\n")?;
        }
        for t in &self.tables {
            indent(out, 1)?;
            write_all(out, &["table ", &t.name, " {\n"])?;
            indent(out, 2)?;
            out.write_str("key {")?;
            for k in &t.keys {
                out.write_str(" ")?;
                write_field(out, &k.field)?;
                write_all(out, &[" : ", k.match_kind.keyword(), ";"])?;
            }
            out.write_str(" }\n")?;
            for a in &t.actions {
                indent(out, 2)?;
                write_all(out, &["action ", &a.name, "("])?;
                write_params(out, &a.params)?;
                out.write_str(") {\n")?;
                write_block(out, &a.body, 3)?;
                indent(out, 2)?;
                out.write_str("}\n")?;
            }
            if let Some(d) = &t.default_action {
                indent(out, 2)?;
                write_all(out, &["default ", &d.action, "("])?;
                write_list(out, &d.args, |out, v| write_u64(out, *v))?;
                out.write_str(");\n")?;
            }
            indent(out, 2)?;
            out.write_str("size ")?;
            write_u64(out, t.size)?;
            out.write_str(";\n")?;
            indent(out, 1)?;
            out.write_str("}\n")?;
        }
        for h in &self.handlers {
            indent(out, 1)?;
            write_all(out, &["handler ", &h.name, "(pkt) {\n"])?;
            write_block(out, &h.body, 2)?;
            indent(out, 1)?;
            out.write_str("}\n")?;
        }
        out.write_str("}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LAnd.is_logical());
        assert!(!BinOp::Lt.is_logical());
    }

    #[test]
    fn division_by_zero_traps_shifts_stay_defined() {
        assert_eq!(
            BinOp::Div.eval(5, 0),
            Err(Trap::DivisionByZero { op: "/" }.into())
        );
        assert_eq!(
            BinOp::Mod.eval(5, 0),
            Err(Trap::DivisionByZero { op: "%" }.into())
        );
        assert_eq!(BinOp::Shl.eval(1, 64), Ok(0));
        assert_eq!(BinOp::Shr.eval(u64::MAX, 64), Ok(0));
    }

    #[test]
    fn wrapping_arithmetic() {
        assert_eq!(BinOp::Add.eval(u64::MAX, 1), Ok(0));
        assert_eq!(BinOp::Sub.eval(0, 1), Ok(u64::MAX));
        assert_eq!(BinOp::Mul.eval(u64::MAX, 2), Ok(u64::MAX - 1));
    }

    #[test]
    fn program_lookups() {
        let mut p = Program::empty("x", ProgramKind::Any);
        p.tables.push(
            TableDecl {
                name: "acl".into(),
                keys: vec![],
                actions: vec![],
                default_action: None,
                size: 8,
            }
            .into(),
        );
        assert!(p.table("acl").is_some());
        assert!(p.table("nope").is_none());
        assert!(p.state("s").is_none());
        assert!(p.handler("h").is_none());
    }

    #[test]
    fn needs_tcam_detects_non_exact_keys() {
        let mut t = TableDecl {
            name: "t".into(),
            keys: vec![TableKey {
                field: FieldPath::Header("ipv4".into(), "dst".into()),
                match_kind: MatchKind::Exact,
            }],
            actions: vec![],
            default_action: None,
            size: 1,
        };
        assert!(!t.needs_tcam());
        t.keys.push(TableKey {
            field: FieldPath::Header("ipv4".into(), "src".into()),
            match_kind: MatchKind::Lpm,
        });
        assert!(t.needs_tcam());
    }

    #[test]
    fn name_walks_visit_every_named_reference_in_pre_order() {
        // Every statement and expression that carries a state or table
        // name, each naming the position it must be visited at.
        let mut p = crate::parser::parse_program(
            "program p kind any {
               handler ingress(pkt) {
                 let x = map_get(n01, reg_read(n02, 0));
                 x = map_has(n03, counter_read(n04));
                 meta.m = meter_check(n05, hash(counter_read(n06), -counter_read(n07)));
                 map_put(n08, counter_read(n09), counter_read(n10));
                 map_del(n11, counter_read(n12));
                 reg_write(n13, counter_read(n14), counter_read(n15));
                 count(n16);
                 if (counter_read(n17) == x) { apply n18; } else { count(n19); }
                 repeat (2) { count(n20); }
                 invoke svc(counter_read(n21));
                 forward(counter_read(n22));
               }
             }",
        )
        .unwrap();
        let want: Vec<String> = (1..=22).map(|i| format!("n{i:02}")).collect();
        let mut seen = Vec::new();
        visit_names(&p.handlers[0].body, &mut |n| seen.push(n.to_string()));
        assert_eq!(seen, want);

        // Renaming works on a copy: the `if`'s condition and branches are
        // shared with the original until the walk un-shares them.
        let original = p.handlers[0].clone();
        let condition = |body: &Block| match &body[7] {
            Stmt::If(c, _, _) => c.clone(),
            other => panic!("statement 8 is the `if`: {other:?}"),
        };
        let mut renamed = Vec::new();
        let body = &mut Arc::make_mut(&mut p.handlers[0]).body;
        assert!(Arc::ptr_eq(&condition(body), &condition(&original.body)));
        visit_names_mut(body, &mut |n| {
            renamed.push(n.clone());
            n.insert(0, 'r');
        });
        assert_eq!(renamed, want);
        let mut after = Vec::new();
        visit_names(body, &mut |n| after.push(n.to_string()));
        assert_eq!(
            after,
            want.iter().map(|n| format!("r{n}")).collect::<Vec<_>>()
        );
        assert_eq!(condition(body).to_string(), "(counter_read(rn17) == x)");
        assert_eq!(
            condition(&original.body).to_string(),
            "(counter_read(n17) == x)"
        );
        let mut untouched = Vec::new();
        visit_names(&original.body, &mut |n| untouched.push(n.to_string()));
        assert_eq!(untouched, want);
    }

    #[test]
    fn pretty_printer_emits_program_skeleton() {
        let mut p = Program::empty("fw", ProgramKind::Switch);
        p.states.push(
            StateDecl {
                name: "blocked".into(),
                kind: StateKind::Map {
                    key_width: 32,
                    value_width: 8,
                },
                size: 1024,
            }
            .into(),
        );
        p.handlers.push(
            Handler {
                name: "ingress".into(),
                body: vec![Stmt::Forward(Expr::Int(1))],
            }
            .into(),
        );
        let src = p.to_source();
        assert!(src.contains("program fw kind switch {"));
        assert!(src.contains("map blocked : map<u32, u8>[1024];"));
        assert!(src.contains("forward(1);"));
    }
}
