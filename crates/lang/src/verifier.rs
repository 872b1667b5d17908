//! The FlexBPF verifier.
//!
//! Paper §3.1: "With constrained state, FlexBPF programs are analyzable to
//! certify bounded execution, well-behavedness, and to enable automated
//! compilation to constrained targets." The verifier certifies, statically:
//!
//! 1. **Bounded execution** — every handler has a worst-case operation count
//!    below [`MAX_OPS`]; `repeat` trip counts are constants at most
//!    [`MAX_REPEAT`]; tables cannot be applied from inside actions (which
//!    would create apply cycles).
//! 2. **Memory safety** — every register index is *provably* in bounds via a
//!    lightweight interval analysis (the eBPF-style trick: `x % size` always
//!    verifies).
//! 3. **Well-behavedness** — reporting whether every control path reaches an
//!    explicit verdict, which architectures without a default action require.
//!
//! The output [`VerifyReport`] also feeds the compiler: worst-case op counts
//! become per-packet processing-cost estimates.

use crate::ast::*;
use crate::headers::HeaderRegistry;
use flexnet_types::{FlexError, Result};
use std::collections::BTreeMap;

/// Maximum constant trip count for a `repeat` loop.
pub const MAX_REPEAT: u64 = 64;
/// Maximum worst-case operation count per handler.
pub const MAX_OPS: u64 = 4096;

/// The verifier's certification of one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Worst-case operation count per handler, keyed by handler name.
    pub handler_ops: BTreeMap<String, u64>,
    /// The largest per-handler worst case (the per-packet bound).
    pub max_ops: u64,
    /// Whether every control path in every handler ends in an explicit
    /// verdict (drop/forward/punt/recirculate/return).
    pub all_paths_verdict: bool,
}

/// Verifies a type-checked program. Callers must run
/// [`crate::typecheck::check_program`] first; the verifier assumes names
/// resolve.
pub fn verify_program(program: &Program, headers: &HeaderRegistry) -> Result<VerifyReport> {
    let v = Verifier { program, headers };
    // One set of locals for the whole program, emptied between bodies.
    let mut locals = Locals::default();

    // Actions must be straight-line primitives: no apply, no repeat.
    for t in &program.tables {
        for a in &t.actions {
            if let Some(why) = not_straight_line(&a.body) {
                return Err(FlexError::Verify(format!(
                    "action `{}.{}`: {why}",
                    t.name, a.name
                )));
            }
            locals.ranges.clear();
            for (p, _) in &a.params {
                // Action parameters come from table entries: full range.
                locals.set(p, Range::FULL);
            }
            v.walk_block(&a.body, &mut locals)?;
        }
    }

    // A handler may apply any table, which may run any action.
    let action_worst = program
        .tables
        .iter()
        .flat_map(|t| t.actions.iter())
        .map(|a| block_ops(&a.body))
        .max()
        .unwrap_or(0);
    let mut handler_ops = BTreeMap::new();
    let mut all_verdict = true;
    for h in &program.handlers {
        locals.ranges.clear();
        v.walk_block(&h.body, &mut locals)?;
        let ops = block_ops(&h.body).saturating_add(action_worst);
        if ops > MAX_OPS {
            return Err(FlexError::Verify(format!(
                "handler `{}` worst-case op count {} exceeds the bound {}",
                h.name, ops, MAX_OPS
            )));
        }
        all_verdict &= block_always_verdicts(&h.body);
        handler_ops.insert(h.name.clone(), ops);
    }

    let max_ops = handler_ops.values().copied().max().unwrap_or(0);
    Ok(VerifyReport {
        handler_ops,
        max_ops,
        all_paths_verdict: all_verdict,
    })
}

// ---------------------------------------------------------------------------
// Interval analysis
// ---------------------------------------------------------------------------

/// An unsigned interval `[lo, hi]`, both inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl Range {
    /// The full u64 range (nothing known).
    pub const FULL: Range = Range {
        lo: 0,
        hi: u64::MAX,
    };

    /// A single-value range.
    pub const fn exactly(v: u64) -> Range {
        Range { lo: v, hi: v }
    }

    /// `[0, hi]`.
    pub const fn up_to(hi: u64) -> Range {
        Range { lo: 0, hi }
    }

    /// The smallest range containing both inputs (join at control merges).
    pub fn union(self, other: Range) -> Range {
        Range {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// The value range of a field of the given bit width.
fn width_range(width: u8) -> Range {
    if width >= 64 {
        Range::FULL
    } else {
        Range::up_to((1u64 << width) - 1)
    }
}

/// The value range of every local assigned so far, named by the program
/// being verified. Not scoped: the checker has already rejected every read
/// of a local outside its block.
#[derive(Debug, Default)]
struct Locals<'a> {
    ranges: Vec<(&'a str, Range)>,
    /// Vectors the `else` branches walked so far were copied into, for the
    /// next `if` to copy into again: a walk allocates for its deepest nest
    /// of `if`s, not for each `if` (a composition's merged `ingress` holds
    /// one per tenant).
    spare: Vec<Vec<(&'a str, Range)>>,
}

impl<'a> Locals<'a> {
    fn find(&self, name: &str) -> Option<Range> {
        self.ranges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, r)| r)
    }

    fn set(&mut self, name: &'a str, r: Range) {
        match self.ranges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, at)) => *at = r,
            None => self.ranges.push((name, r)),
        }
    }

    fn get(&self, name: &str) -> Range {
        self.find(name).unwrap_or(Range::FULL)
    }

    /// Joins the other branch's outcome into this one: a local both
    /// branches know gets the union of their ranges, one that either
    /// branch lacks is FULL.
    fn join(&mut self, other: &Locals<'a>) {
        for (name, r) in &mut self.ranges {
            *r = match other.find(name) {
                Some(o) => r.union(o),
                None => Range::FULL,
            };
        }
        for &(name, _) in &other.ranges {
            if self.find(name).is_none() {
                self.ranges.push((name, Range::FULL));
            }
        }
    }
}

/// Why an action body is not straight-line, if it is not: actions may
/// neither apply tables nor loop.
fn not_straight_line(block: &Block) -> Option<&'static str> {
    block.iter().find_map(|s| match s {
        Stmt::Apply(_) => Some("actions may not apply tables (apply cycles would be unbounded)"),
        Stmt::Repeat(..) => Some("actions may not contain loops"),
        Stmt::If(_, t, e) => not_straight_line(t).or_else(|| not_straight_line(e)),
        _ => None,
    })
}

struct Verifier<'a> {
    program: &'a Program,
    headers: &'a HeaderRegistry,
}

impl<'a> Verifier<'a> {
    fn walk_block(&self, block: &'a Block, locals: &mut Locals<'a>) -> Result<()> {
        for s in block {
            self.walk_stmt(s, locals)?;
        }
        Ok(())
    }

    fn walk_stmt(&self, stmt: &'a Stmt, locals: &mut Locals<'a>) -> Result<()> {
        match stmt {
            Stmt::Let(n, e) | Stmt::AssignLocal(n, e) => {
                let r = self.expr_range(e, locals)?;
                locals.set(n, r);
            }
            Stmt::AssignField(_, e) | Stmt::Forward(e) => {
                self.expr_range(e, locals)?;
            }
            Stmt::MapPut(_, k, v) => {
                self.expr_range(k, locals)?;
                self.expr_range(v, locals)?;
            }
            Stmt::MapDelete(_, k) => {
                self.expr_range(k, locals)?;
            }
            Stmt::RegWrite(r, i, v) => {
                self.check_reg_index(r, i, locals)?;
                self.expr_range(v, locals)?;
            }
            Stmt::If(c, t, e) => {
                self.expr_range(c, locals)?;
                let mut entry = locals.spare.pop().unwrap_or_default();
                entry.clone_from(&locals.ranges);
                self.walk_block(t, locals)?;
                let mut otherwise = Locals {
                    ranges: entry,
                    spare: std::mem::take(&mut locals.spare),
                };
                self.walk_block(e, &mut otherwise)?;
                locals.join(&otherwise);
                locals.spare = otherwise.spare;
                locals.spare.push(otherwise.ranges);
            }
            Stmt::Repeat(n, body) => {
                if *n > MAX_REPEAT {
                    return Err(FlexError::Verify(format!(
                        "repeat count {n} exceeds the bound {MAX_REPEAT}"
                    )));
                }
                // Loop bodies may update locals; analyze to fixpoint-lite by
                // widening locals written in the body to FULL, then checking.
                widen_assigned(body, locals);
                self.walk_block(body, locals)?;
            }
            Stmt::Invoke(_, args) => {
                for a in args {
                    self.expr_range(a, locals)?;
                }
            }
            Stmt::Count(_)
            | Stmt::Apply(_)
            | Stmt::Recirculate
            | Stmt::Drop
            | Stmt::Punt
            | Stmt::Return
            | Stmt::AddHeader(_)
            | Stmt::RemoveHeader(_) => {}
        }
        Ok(())
    }

    fn check_reg_index(&self, reg: &str, idx: &Expr, locals: &Locals<'_>) -> Result<()> {
        let size = self.program.state(reg).map(|s| s.size).unwrap_or(0);
        let r = self.expr_range(idx, locals)?;
        if size == 0 || r.hi >= size {
            return Err(FlexError::Verify(format!(
                "register `{reg}` index may reach {} but size is {size}; \
                 use `index % {size}` to prove bounds",
                r.hi
            )));
        }
        Ok(())
    }

    fn expr_range(&self, e: &Expr, locals: &Locals<'_>) -> Result<Range> {
        Ok(match e {
            Expr::Int(v) => Range::exactly(*v),
            Expr::Local(n) => locals.get(n),
            Expr::Field(FieldPath::Header(p, f)) => self
                .headers
                .field(p, f)
                .map(|fd| width_range(fd.width))
                .unwrap_or(Range::FULL),
            Expr::Field(FieldPath::Meta(_)) => Range::FULL,
            Expr::Valid(_) | Expr::MapHas(_, _) | Expr::MeterCheck(_, _) => {
                if let Expr::MapHas(_, k) | Expr::MeterCheck(_, k) = e {
                    self.expr_range(k, locals)?;
                }
                Range::up_to(1)
            }
            Expr::MapGet(m, k) => {
                self.expr_range(k, locals)?;
                match self.program.state(m).map(|s| &s.kind) {
                    Some(StateKind::Map { value_width, .. }) => width_range(*value_width),
                    _ => Range::FULL,
                }
            }
            Expr::RegRead(r, i) => {
                self.check_reg_index(r, i, locals)?;
                match self.program.state(r).map(|s| &s.kind) {
                    Some(StateKind::Register { width }) => width_range(*width),
                    _ => Range::FULL,
                }
            }
            Expr::CounterRead(_) => Range::FULL,
            Expr::Hash(args) => {
                for a in args {
                    self.expr_range(a, locals)?;
                }
                Range::FULL
            }
            Expr::PktLen => Range::up_to(u32::MAX as u64),
            Expr::Bin(op, l, r) => {
                let a = self.expr_range(l, locals)?;
                let b = self.expr_range(r, locals)?;
                bin_range(*op, a, b)
            }
            Expr::Un(op, v) => {
                let a = self.expr_range(v, locals)?;
                match op {
                    UnOp::Not => Range::up_to(1),
                    UnOp::BitNot | UnOp::Neg => {
                        // Wrapping: only exact inputs stay exact.
                        if a.lo == a.hi {
                            let v = if *op == UnOp::BitNot {
                                !a.lo
                            } else {
                                a.lo.wrapping_neg()
                            };
                            Range::exactly(v)
                        } else {
                            Range::FULL
                        }
                    }
                }
            }
        })
    }
}

/// Interval transfer function for binary operators (all arithmetic is
/// wrapping u64 at runtime; the analysis saturates, so a potential wrap
/// degrades to FULL rather than producing an unsound bound).
fn bin_range(op: BinOp, a: Range, b: Range) -> Range {
    match op {
        BinOp::Add => match a.hi.checked_add(b.hi) {
            Some(hi) => Range {
                lo: a.lo.saturating_add(b.lo),
                hi,
            },
            None => Range::FULL,
        },
        BinOp::Sub => {
            if a.lo >= b.hi {
                Range {
                    lo: a.lo - b.hi,
                    hi: a.hi - b.lo,
                }
            } else {
                Range::FULL // may wrap
            }
        }
        BinOp::Mul => match a.hi.checked_mul(b.hi) {
            Some(hi) => Range {
                lo: a.lo.saturating_mul(b.lo),
                hi,
            },
            None => Range::FULL,
        },
        // x / 0 traps at runtime, so only non-trapping executions flow on:
        // the result never exceeds the dividend.
        BinOp::Div => Range::up_to(a.hi),
        // x % 0 traps at runtime; when the divisor can only be 0 every
        // execution traps and any range is vacuously sound.
        BinOp::Mod => {
            if b.hi == 0 {
                Range::exactly(0)
            } else {
                Range::up_to((b.hi - 1).min(a.hi))
            }
        }
        BinOp::And => Range::up_to(a.hi.min(b.hi)),
        BinOp::Or | BinOp::Xor => {
            let m = a.hi.max(b.hi);
            let hi = if m == 0 {
                0
            } else {
                // Smallest all-ones mask covering both operands.
                u64::MAX >> m.leading_zeros()
            };
            Range::up_to(hi)
        }
        BinOp::Shl => {
            if b.hi >= 64 {
                Range::FULL
            } else {
                match a.hi.checked_shl(b.hi as u32) {
                    Some(hi) => Range {
                        lo: a.lo.checked_shl(b.lo as u32).unwrap_or(0),
                        hi,
                    },
                    None => Range::FULL,
                }
            }
        }
        BinOp::Shr => Range {
            // Runtime semantics: shifting by >= 64 yields 0, so a possibly
            // oversized shift amount makes 0 reachable.
            lo: if b.hi >= 64 { 0 } else { a.lo >> b.hi },
            hi: if b.lo >= 64 { 0 } else { a.hi >> b.lo },
        },
        // Comparisons / logical yield booleans.
        _ => Range::up_to(1),
    }
}

/// After a loop body may run 0..n times, locals assigned inside can hold
/// values from any iteration: widen them to FULL before checking the body.
fn widen_assigned<'a>(block: &'a Block, locals: &mut Locals<'a>) {
    for s in block {
        match s {
            Stmt::Let(n, _) | Stmt::AssignLocal(n, _) => locals.set(n, Range::FULL),
            Stmt::If(_, t, e) => {
                widen_assigned(t, locals);
                widen_assigned(e, locals);
            }
            Stmt::Repeat(_, b) => widen_assigned(b, locals),
            _ => {}
        }
    }
}

/// Computes the interval of a standalone expression with no locals in
/// scope, against `program`'s state declarations and `headers`. Exposed for
/// property tests that cross-check the static analysis against the
/// interpreter: for every packet, the evaluated value must lie within the
/// computed range.
pub fn analyze_expr_range(e: &Expr, program: &Program, headers: &HeaderRegistry) -> Result<Range> {
    Verifier { program, headers }.expr_range(e, &Locals::default())
}

// ---------------------------------------------------------------------------
// Op counting and verdict analysis
// ---------------------------------------------------------------------------

fn expr_ops(e: &Expr) -> u64 {
    match e {
        Expr::Int(_) | Expr::Local(_) | Expr::PktLen => 1,
        Expr::Field(_) | Expr::Valid(_) | Expr::CounterRead(_) => 1,
        Expr::MapGet(_, k) | Expr::MapHas(_, k) | Expr::RegRead(_, k) | Expr::MeterCheck(_, k) => {
            1 + expr_ops(k)
        }
        Expr::Hash(args) => 1 + args.iter().map(expr_ops).sum::<u64>(),
        Expr::Bin(_, l, r) => 1 + expr_ops(l) + expr_ops(r),
        Expr::Un(_, v) => 1 + expr_ops(v),
    }
}

fn stmt_ops(s: &Stmt) -> u64 {
    match s {
        Stmt::Let(_, e) | Stmt::AssignLocal(_, e) | Stmt::AssignField(_, e) | Stmt::Forward(e) => {
            1 + expr_ops(e)
        }
        Stmt::MapPut(_, k, v) | Stmt::RegWrite(_, k, v) => 1 + expr_ops(k) + expr_ops(v),
        Stmt::MapDelete(_, k) => 1 + expr_ops(k),
        Stmt::Count(_) => 1,
        Stmt::If(c, t, e) => 1 + expr_ops(c) + block_ops(t).max(block_ops(e)),
        Stmt::Repeat(n, b) => 1 + n.saturating_mul(block_ops(b)),
        Stmt::Apply(_) => 4, // lookup + key build + action dispatch
        Stmt::Invoke(_, args) => 2 + args.iter().map(expr_ops).sum::<u64>(),
        Stmt::Drop
        | Stmt::Punt
        | Stmt::Recirculate
        | Stmt::Return
        | Stmt::AddHeader(_)
        | Stmt::RemoveHeader(_) => 1,
    }
}

/// Worst-case operation count of a block.
pub fn block_ops(block: &Block) -> u64 {
    block.iter().map(stmt_ops).sum()
}

fn stmt_is_verdict(s: &Stmt) -> bool {
    match s {
        Stmt::Drop | Stmt::Forward(_) | Stmt::Punt | Stmt::Recirculate | Stmt::Return => true,
        Stmt::If(_, t, e) => block_always_verdicts(t) && block_always_verdicts(e),
        _ => false,
    }
}

/// Whether every control path through the block reaches an explicit verdict.
pub fn block_always_verdicts(block: &Block) -> bool {
    block.iter().any(stmt_is_verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::typecheck::check_program;

    fn verify(src: &str) -> Result<VerifyReport> {
        let p = parse_program(src)?;
        let headers = HeaderRegistry::builtins();
        check_program(&p, &headers)?;
        verify_program(&p, &headers)
    }

    #[test]
    fn certifies_simple_program() {
        let r = verify(
            "program p {
               counter c;
               handler ingress(pkt) { count(c); forward(1); }
             }",
        )
        .unwrap();
        assert!(r.max_ops > 0 && r.max_ops < 10);
        assert!(r.all_paths_verdict);
        assert_eq!(r.handler_ops["ingress"], r.max_ops);
    }

    #[test]
    fn modulo_proves_register_bounds() {
        verify(
            "program p {
               register r : u64[16];
               handler h(pkt) {
                 let i = hash(ipv4.src) % 16;
                 reg_write(r, i, reg_read(r, i) + 1);
                 forward(1);
               }
             }",
        )
        .unwrap();
    }

    #[test]
    fn unproven_register_index_rejected() {
        let err = verify(
            "program p {
               register r : u64[16];
               handler h(pkt) { reg_write(r, hash(ipv4.src), 1); }
             }",
        )
        .unwrap_err();
        assert!(matches!(err, FlexError::Verify(_)), "{err}");
    }

    #[test]
    fn narrow_fields_prove_bounds_without_modulo() {
        // ipv4.proto is 8 bits, so a 256-entry register is always safe.
        verify(
            "program p {
               register r : u64[256];
               handler h(pkt) { reg_write(r, ipv4.proto, 1); forward(1); }
             }",
        )
        .unwrap();
        // …but a 255-entry register is not.
        assert!(verify(
            "program p {
               register r : u64[255];
               handler h(pkt) { reg_write(r, ipv4.proto, 1); }
             }"
        )
        .is_err());
    }

    #[test]
    fn branch_join_unions_ranges() {
        // i is 0 or 10 after the if; 11-entry register is safe, 10 is not.
        verify(
            "program p {
               register r : u64[11];
               handler h(pkt) {
                 let i = 0;
                 if (valid(tcp)) { i = 10; }
                 reg_write(r, i, 1);
                 forward(1);
               }
             }",
        )
        .unwrap();
        assert!(verify(
            "program p {
               register r : u64[10];
               handler h(pkt) {
                 let i = 0;
                 if (valid(tcp)) { i = 10; }
                 reg_write(r, i, 1);
               }
             }"
        )
        .is_err());
    }

    #[test]
    fn loop_widening_is_sound() {
        // i grows each iteration: must not verify against size 8 without %.
        assert!(verify(
            "program p {
               register r : u64[8];
               handler h(pkt) {
                 let i = 0;
                 repeat (4) { reg_write(r, i, 1); i = i + 1; }
               }
             }"
        )
        .is_err());
        // With %, the same loop verifies.
        verify(
            "program p {
               register r : u64[8];
               handler h(pkt) {
                 let i = 0;
                 repeat (4) { reg_write(r, i % 8, 1); i = i + 1; }
                 forward(1);
               }
             }",
        )
        .unwrap();
    }

    #[test]
    fn repeat_bound_enforced() {
        assert!(
            verify("program p { handler h(pkt) { repeat (65) { meta.x = 1; } forward(1); } }")
                .is_err()
        );
    }

    #[test]
    fn op_bound_enforced() {
        // 64 iterations x 64 inner = 4096 + overhead > MAX_OPS.
        let src = "program p { handler h(pkt) {
            repeat (64) { repeat (64) { meta.x = 1; } }
            forward(1); } }";
        assert!(verify(src).is_err());
    }

    #[test]
    fn apply_in_action_rejected() {
        let err = verify(
            "program p {
               table inner { key { ipv4.src : exact; } size 4; }
               table outer {
                 key { ipv4.dst : exact; }
                 action a() { apply inner; }
                 size 4;
               }
             }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("apply"), "{err}");
    }

    #[test]
    fn loops_in_actions_rejected() {
        assert!(verify(
            "program p {
               table t { key { ipv4.src : exact; }
                 action a() { repeat (2) { meta.x = 1; } } size 4; }
             }"
        )
        .is_err());
    }

    #[test]
    fn verdict_analysis() {
        let r = verify(
            "program p { handler h(pkt) {
               if (valid(tcp)) { drop(); } else { forward(1); }
             } }",
        )
        .unwrap();
        assert!(r.all_paths_verdict);
        let r = verify(
            "program p { handler h(pkt) {
               if (valid(tcp)) { drop(); }
             } }",
        )
        .unwrap();
        assert!(!r.all_paths_verdict, "fall-through path has no verdict");
    }

    #[test]
    fn report_bounds_each_handler_by_its_body_and_the_worst_action() {
        let r = verify(
            "program p {
               table t { key { ipv4.src : exact; }
                 action a() { meta.x = 1; meta.y = 2; } action b() { drop(); } size 4; }
               handler h(pkt) { apply t; recirculate(); }
               handler g(pkt) { forward(1); }
             }",
        )
        .unwrap();
        // `apply` 4 + `recirculate` 1, `forward(1)` 2; the worst action is
        // `a`'s two assignments of 2 each, charged to every handler.
        assert_eq!(r.handler_ops["h"], 5 + 4);
        assert_eq!(r.handler_ops["g"], 2 + 4);
        assert_eq!(r.max_ops, 9);
    }

    #[test]
    fn range_transfer_functions() {
        let full = Range::FULL;
        assert_eq!(
            bin_range(BinOp::Mod, full, Range::exactly(16)),
            Range::up_to(15)
        );
        assert_eq!(
            bin_range(BinOp::And, full, Range::exactly(0xff)),
            Range::up_to(0xff)
        );
        assert_eq!(
            bin_range(BinOp::Add, Range::exactly(3), Range::exactly(4)),
            Range::exactly(7)
        );
        assert_eq!(
            bin_range(BinOp::Sub, Range::up_to(4), Range::up_to(9)),
            full
        );
        assert_eq!(
            bin_range(BinOp::Shr, Range::up_to(255), Range::exactly(4)),
            Range::up_to(15)
        );
        assert_eq!(
            bin_range(BinOp::Div, Range::up_to(100), full),
            Range::up_to(100)
        );
        assert_eq!(
            bin_range(BinOp::Or, Range::up_to(5), Range::up_to(9)),
            Range::up_to(15)
        );
    }
}
