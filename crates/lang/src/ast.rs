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
//! `Clone + PartialEq + Serialize` and the tree can be pretty-printed back
//! to parseable source (`to_source`), which the tests round-trip.
//!
//! The declaration is the unit of sharing: a [`Program`] holds its state,
//! table, service and handler declarations (and a bundle its headers)
//! behind `Arc`s, the parser makes them, and composition, diffing, sealing
//! and the device hand the pointer on. An `Arc<T>` prints and compares as
//! its `T` (a shared one is recognised by address first), so sharing is
//! invisible to `{:?}`, `to_source()` and every digest; whoever edits a
//! declaration in place does so through `Arc::make_mut`, on its own copy.

use flexnet_types::Sym;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// A parsed FlexBPF source file.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SourceFile {
    /// Global header-type declarations.
    pub headers: Vec<Arc<HeaderDecl>>,
    /// Program declarations.
    pub programs: Vec<Program>,
}

/// A header-type declaration, e.g.
/// `header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Width in bits (1..=64).
    pub width: u8,
}

/// The parser transition that leads to a header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

impl fmt::Display for ProgramKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramKind::Switch => write!(f, "switch"),
            ProgramKind::Nic => write!(f, "nic"),
            ProgramKind::Host => write!(f, "host"),
            ProgramKind::Any => write!(f, "any"),
        }
    }
}

/// A FlexBPF program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateDecl {
    /// State object name.
    pub name: String,
    /// What kind of state this is.
    pub kind: StateKind,
    /// Number of entries/cells (1 for counters and meters).
    pub size: u64,
}

/// How a table key field is matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

impl fmt::Display for MatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchKind::Exact => write!(f, "exact"),
            MatchKind::Lpm => write!(f, "lpm"),
            MatchKind::Ternary => write!(f, "ternary"),
            MatchKind::Range => write!(f, "range"),
        }
    }
}

/// A reference to a packet field or metadata slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FieldPath {
    /// A header field, e.g. `ipv4.src`.
    Header(String, String),
    /// A metadata slot, e.g. `meta.mark`.
    Meta(String),
}

impl FieldPath {
    /// The dotted-path form used by `flexnet_types::Packet` accessors.
    pub fn dotted(&self) -> String {
        match self {
            FieldPath::Header(p, f) => format!("{p}.{f}"),
            FieldPath::Meta(f) => format!("meta.{f}"),
        }
    }

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
        match self {
            FieldPath::Header(p, field) => write!(f, "{p}.{field}"),
            FieldPath::Meta(field) => write!(f, "meta.{field}"),
        }
    }
}

/// One key of a match/action table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableKey {
    /// The matched field.
    pub field: FieldPath,
    /// How it is matched.
    pub match_kind: MatchKind,
}

/// An action declaration inside a table: a named parameterized block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionCall {
    /// The action name.
    pub action: String,
    /// Constant arguments, one per declared parameter.
    pub args: Vec<u64>,
}

/// A match/action table declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Handler {
    /// Handler name (`ingress`, `egress`, …).
    pub name: String,
    /// The handler body.
    pub body: Block,
}

/// A statement block.
pub type Block = Vec<Stmt>;

/// FlexBPF statements.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// `if (cond) { … } else { … }`
    If(Expr, Block, Block),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Logical `!`
    Not,
    /// Bitwise `~`
    BitNot,
    /// Arithmetic negation (wrapping on u64).
    Neg,
}

/// FlexBPF expressions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
// Pretty printer
// ---------------------------------------------------------------------------
//
// One writer, generic over the sink: `to_source` collects it into a
// `String`, the configuration digest folds the same bytes into an FNV
// state without materializing them.

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
    write_list(out, params, |out, (n, w)| write!(out, "{n}: u{w}"))
}

fn indent<W: fmt::Write>(out: &mut W, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_block<W: fmt::Write>(out: &mut W, block: &Block, depth: usize) -> fmt::Result {
    block.iter().try_for_each(|stmt| write_stmt(out, stmt, depth))
}

fn write_stmt<W: fmt::Write>(out: &mut W, stmt: &Stmt, depth: usize) -> fmt::Result {
    indent(out, depth)?;
    match stmt {
        Stmt::Let(n, e) => writeln!(out, "let {n} = {e};"),
        Stmt::AssignLocal(n, e) => writeln!(out, "{n} = {e};"),
        Stmt::AssignField(p, e) => writeln!(out, "{p} = {e};"),
        Stmt::MapPut(m, k, v) => writeln!(out, "map_put({m}, {k}, {v});"),
        Stmt::MapDelete(m, k) => writeln!(out, "map_del({m}, {k});"),
        Stmt::RegWrite(r, i, v) => writeln!(out, "reg_write({r}, {i}, {v});"),
        Stmt::Count(c) => writeln!(out, "count({c});"),
        Stmt::If(c, t, e) => {
            writeln!(out, "if ({c}) {{")?;
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
            writeln!(out, "repeat ({n}) {{")?;
            write_block(out, b, depth + 1)?;
            indent(out, depth)?;
            out.write_str("}\n")
        }
        Stmt::Apply(t) => writeln!(out, "apply {t};"),
        Stmt::Drop => out.write_str("drop();\n"),
        Stmt::Forward(e) => writeln!(out, "forward({e});"),
        Stmt::Punt => out.write_str("punt();\n"),
        Stmt::Recirculate => out.write_str("recirculate();\n"),
        Stmt::Invoke(s, args) => {
            write!(out, "invoke {s}(")?;
            write_list(out, args, |out, a| write!(out, "{a}"))?;
            out.write_str(");\n")
        }
        Stmt::AddHeader(p) => writeln!(out, "add_header({p});"),
        Stmt::RemoveHeader(p) => writeln!(out, "remove_header({p});"),
        Stmt::Return => out.write_str("return;\n"),
    }
}

/// An expression as parseable source (binary operations fully
/// parenthesized).
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Local(n) => f.write_str(n),
            Expr::Field(p) => write!(f, "{p}"),
            Expr::Valid(p) => write!(f, "valid({p})"),
            Expr::MapGet(m, k) => write!(f, "map_get({m}, {k})"),
            Expr::MapHas(m, k) => write!(f, "map_has({m}, {k})"),
            Expr::RegRead(r, i) => write!(f, "reg_read({r}, {i})"),
            Expr::CounterRead(c) => write!(f, "counter_read({c})"),
            Expr::MeterCheck(m, k) => write!(f, "meter_check({m}, {k})"),
            Expr::Hash(args) => {
                f.write_str("hash(")?;
                write_list(f, args, |f, a| write!(f, "{a}"))?;
                f.write_str(")")
            }
            Expr::PktLen => f.write_str("pktlen()"),
            Expr::Bin(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::Un(op, v) => {
                let sym = match op {
                    UnOp::Not => "!",
                    UnOp::BitNot => "~",
                    UnOp::Neg => "-",
                };
                write!(f, "{sym}{v}")
            }
        }
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
        writeln!(out, "program {} kind {} {{", self.name, self.kind)?;
        for s in &self.states {
            indent(out, 1)?;
            match &s.kind {
                StateKind::Map {
                    key_width,
                    value_width,
                } => writeln!(
                    out,
                    "map {} : map<u{key_width}, u{value_width}>[{}];",
                    s.name, s.size
                )?,
                StateKind::Counter => writeln!(out, "counter {};", s.name)?,
                StateKind::Register { width } => {
                    writeln!(out, "register {} : u{width}[{}];", s.name, s.size)?
                }
                StateKind::Meter { rate_pps, burst } => {
                    writeln!(out, "meter {} rate {rate_pps} burst {burst};", s.name)?
                }
            }
        }
        for svc in &self.services {
            indent(out, 1)?;
            let kw = if svc.provided { "provide" } else { "require" };
            write!(out, "service {kw} {}(", svc.name)?;
            write_params(out, &svc.params)?;
            out.write_str(");\n")?;
        }
        for t in &self.tables {
            indent(out, 1)?;
            writeln!(out, "table {} {{", t.name)?;
            indent(out, 2)?;
            out.write_str("key {")?;
            for k in &t.keys {
                write!(out, " {} : {};", k.field, k.match_kind)?;
            }
            out.write_str(" }\n")?;
            for a in &t.actions {
                indent(out, 2)?;
                write!(out, "action {}(", a.name)?;
                write_params(out, &a.params)?;
                out.write_str(") {\n")?;
                write_block(out, &a.body, 3)?;
                indent(out, 2)?;
                out.write_str("}\n")?;
            }
            if let Some(d) = &t.default_action {
                indent(out, 2)?;
                write!(out, "default {}(", d.action)?;
                write_list(out, &d.args, |out, v| write!(out, "{v}"))?;
                out.write_str(");\n")?;
            }
            indent(out, 2)?;
            writeln!(out, "size {};", t.size)?;
            indent(out, 1)?;
            out.write_str("}\n")?;
        }
        for h in &self.handlers {
            indent(out, 1)?;
            writeln!(out, "handler {}(pkt) {{", h.name)?;
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
    fn field_path_dotted_forms() {
        assert_eq!(
            FieldPath::Header("ipv4".into(), "src".into()).dotted(),
            "ipv4.src"
        );
        assert_eq!(FieldPath::Meta("mark".into()).dotted(), "meta.mark");
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LAnd.is_logical());
        assert!(!BinOp::Lt.is_logical());
    }

    #[test]
    fn program_lookups() {
        let mut p = Program::empty("x", ProgramKind::Any);
        p.tables.push(TableDecl {
            name: "acl".into(),
            keys: vec![],
            actions: vec![],
            default_action: None,
            size: 8,
        }.into());
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
    fn pretty_printer_emits_program_skeleton() {
        let mut p = Program::empty("fw", ProgramKind::Switch);
        p.states.push(StateDecl {
            name: "blocked".into(),
            kind: StateKind::Map {
                key_width: 32,
                value_width: 8,
            },
            size: 1024,
        }.into());
        p.handlers.push(Handler {
            name: "ingress".into(),
            body: vec![Stmt::Forward(Expr::Int(1))],
        }.into());
        let src = p.to_source();
        assert!(src.contains("program fw kind switch {"));
        assert!(src.contains("map blocked : map<u32, u8>[1024];"));
        assert!(src.contains("forward(1);"));
    }
}
