//! Property-based tests over cross-crate invariants:
//!
//! - pretty-printer/parser round trips on generated programs,
//! - interval-analysis soundness against the interpreter,
//! - verifier-certified register safety under arbitrary traffic,
//! - resource-vector algebra,
//! - LPM longest-prefix-wins semantics,
//! - exactly-once control semantics under duplication and restart (E20),
//! - aliasing safety of shared declarations under patches and in-place ops.

use flexnet::prelude::*;
use flexnet_dataplane::ProgramImage;
use flexnet_lang::ast::{
    ActionCall, BinOp, Block, Expr, FieldPath, Handler, Program, ProgramKind, StateDecl, StateKind,
    Stmt, UnOp,
};
use flexnet_lang::patch::{ModifyMode, PatchOp};
use flexnet_lang::verifier::analyze_expr_range;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[path = "common/interp.rs"]
mod interp;
use interp::{execute_metered, MemEnv, GAS_UNLIMITED};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_field() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::field("ipv4", "src")),
        Just(Expr::field("ipv4", "dst")),
        Just(Expr::field("ipv4", "proto")),
        Just(Expr::field("ipv4", "ttl")),
        Just(Expr::field("tcp", "sport")),
        Just(Expr::field("tcp", "flags")),
        Just(Expr::PktLen),
    ]
}

fn arb_int_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![(0u64..10_000).prop_map(Expr::Int), arb_field()];
    leaf.prop_recursive(3, 24, 2, |inner| {
        let bin = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Mod),
            Just(BinOp::And),
            Just(BinOp::Or),
            Just(BinOp::Xor),
            Just(BinOp::Shl),
            Just(BinOp::Shr),
        ];
        prop_oneof![
            (bin, inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            inner
                .clone()
                .prop_map(|a| Expr::Un(UnOp::BitNot, Box::new(a))),
            prop::collection::vec(inner, 1..3).prop_map(Expr::Hash),
        ]
    })
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        0u32..4096,
    )
        .prop_map(|(src, dst, sp, dp, flags, payload)| {
            let mut p = Packet::tcp(1, src, dst, sp, dp, flags);
            p.payload_len = payload;
            p
        })
}

/// A small random-but-valid program: some state, one handler using it.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        1u64..64,
        1u64..64,
        prop::collection::vec(arb_int_expr(), 1..4),
        any::<bool>(),
    )
        .prop_map(|(map_size, reg_size, exprs, use_if)| {
            let mut p = Program::empty("generated", ProgramKind::Any);
            p.states.push(
                StateDecl {
                    name: "m".into(),
                    kind: StateKind::Map {
                        key_width: 64,
                        value_width: 64,
                    },
                    size: map_size,
                }
                .into(),
            );
            p.states.push(
                StateDecl {
                    name: "r".into(),
                    kind: StateKind::Register { width: 64 },
                    size: reg_size,
                }
                .into(),
            );
            p.states.push(
                StateDecl {
                    name: "c".into(),
                    kind: StateKind::Counter,
                    size: 1,
                }
                .into(),
            );
            let mut body: Block = Vec::new();
            for (i, e) in exprs.into_iter().enumerate() {
                body.push(Stmt::Let(format!("x{i}"), e.clone()));
                body.push(Stmt::MapPut(
                    "m".into(),
                    Expr::Local(format!("x{i}")),
                    Expr::Int(i as u64),
                ));
                // Every register index is proven safe by construction.
                body.push(Stmt::RegWrite(
                    "r".into(),
                    Expr::Bin(
                        BinOp::Mod,
                        Box::new(Expr::Local(format!("x{i}"))),
                        Box::new(Expr::Int(reg_size)),
                    ),
                    e,
                ));
            }
            body.push(Stmt::Count("c".into()));
            if use_if {
                body.push(Stmt::If(
                    Expr::eq(Expr::field("ipv4", "proto"), Expr::Int(6)).into(),
                    vec![Stmt::Drop].into(),
                    vec![Stmt::Forward(Expr::Int(1))].into(),
                ));
            } else {
                body.push(Stmt::Forward(Expr::Int(0)));
            }
            p.handlers.push(
                Handler {
                    name: "ingress".into(),
                    body,
                }
                .into(),
            );
            p
        })
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pretty_print_parse_roundtrip(program in arb_program()) {
        let src = program.to_source();
        let reparsed = parse_program(&src).expect("printed source parses");
        prop_assert_eq!(program, reparsed);
    }

    #[test]
    fn generated_programs_check_and_verify(program in arb_program()) {
        let headers = HeaderRegistry::builtins();
        check_program(&program, &headers).expect("generated programs are well-typed");
        let report = verify_program(&program, &headers).expect("verifier accepts");
        prop_assert!(report.max_ops > 0);
        prop_assert!(report.max_ops <= flexnet_lang::verifier::MAX_OPS);
    }

    #[test]
    fn interval_analysis_is_sound(e in arb_int_expr(), pkt in arb_packet()) {
        let program = Program::empty("probe", ProgramKind::Any);
        let headers = HeaderRegistry::builtins();
        let range = analyze_expr_range(&e, &program, &headers).expect("pure expr analyzes");

        // Evaluate the same expression via a one-statement program.
        let mut p = Program::empty("probe", ProgramKind::Any);
        p.handlers.push(Handler {
            name: "ingress".into(),
            body: vec![
                Stmt::AssignField(FieldPath::Meta("out".into()), e),
                Stmt::Forward(Expr::Int(0)),
            ],
        }.into());
        let mut env = MemEnv::new();
        let mut pkt = pkt;
        let outcome =
            execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, GAS_UNLIMITED)
                .expect("executes");
        // Division/modulo by zero traps instead of producing a value, so
        // interval analysis only bounds expressions that run to completion.
        if let Some(trap) = outcome.trap {
            prop_assert!(
                matches!(trap, flexnet_types::Trap::DivisionByZero { .. }),
                "pure arithmetic can only trap on a zero divisor, got {trap:?}"
            );
            return Ok(());
        }
        let value = pkt.metadata["out"];
        prop_assert!(
            value >= range.lo && value <= range.hi,
            "value {} outside [{}, {}]",
            value, range.lo, range.hi
        );
    }

    #[test]
    fn verified_programs_never_write_registers_out_of_bounds(
        program in arb_program(),
        packets in prop::collection::vec(arb_packet(), 1..20),
    ) {
        let headers = HeaderRegistry::builtins();
        check_program(&program, &headers).unwrap();
        verify_program(&program, &headers).unwrap();
        let reg_size = program.state("r").unwrap().size as usize;

        // MemEnv grows its register vector on any write, so a final length
        // above the declared size would reveal an out-of-bounds write.
        let mut env = MemEnv::new();
        for mut pkt in packets {
            execute_metered(&program, "ingress", &mut pkt, &mut env, &headers, GAS_UNLIMITED)
                .unwrap();
        }
        if let Some(r) = env.regs.get("r") {
            prop_assert!(
                r.len() <= reg_size,
                "register grew to {} cells (declared {})",
                r.len(),
                reg_size
            );
        }
    }

    #[test]
    fn resource_vec_algebra(
        pairs_a in prop::collection::vec((0usize..4, 0u64..1000), 0..4),
        pairs_b in prop::collection::vec((0usize..4, 0u64..1000), 0..4),
    ) {
        let kinds = [
            ResourceKind::SramKb,
            ResourceKind::TcamKb,
            ResourceKind::ActionSlots,
            ResourceKind::MeterSlots,
        ];
        let mk = |pairs: &[(usize, u64)]| {
            let mut v = ResourceVec::new();
            for (k, amt) in pairs {
                v.add_amount(kinds[*k], *amt);
            }
            v
        };
        let a = mk(&pairs_a);
        let b = mk(&pairs_b);
        // a + b always covers both operands.
        let sum = a + b;
        prop_assert!(sum.covers(&a));
        prop_assert!(sum.covers(&b));
        // (a + b) - b == a.
        prop_assert_eq!(sum.checked_sub(&b).unwrap(), a.clone());
        // covers is reflexive; checked_sub with self is zero.
        prop_assert!(a.covers(&a));
        prop_assert_eq!(a.checked_sub(&a).unwrap(), ResourceVec::new());
        // checked_sub succeeds iff covers.
        prop_assert_eq!(a.covers(&b), a.checked_sub(&b).is_some());
    }

    #[test]
    fn lpm_longest_prefix_always_wins(
        key in any::<u32>(),
        len_a in 0u8..=32,
        len_b in 0u8..=32,
    ) {
        prop_assume!(len_a != len_b);
        use flexnet_lang::ast::{ActionCall, ActionDecl, MatchKind, TableDecl, TableKey};
        let decl = TableDecl {
            name: "t".into(),
            keys: vec![TableKey {
                field: FieldPath::Header("ipv4".into(), "dst".into()),
                match_kind: MatchKind::Lpm,
            }],
            actions: vec![
                ActionDecl { name: "a".into(), params: vec![("x".into(), 16)], body: vec![] },
            ],
            default_action: None,
            size: 8,
        };
        let mut table = flexnet_dataplane::TableInstance::new(decl.into());
        // Two entries whose prefixes are both derived from the key itself,
        // so both always match.
        for (i, len) in [len_a, len_b].iter().enumerate() {
            table
                .insert(flexnet_dataplane::TableEntry {
                    matches: vec![KeyMatch::Lpm {
                        value: key as u64,
                        prefix_len: *len,
                        width: 32,
                    }],
                    priority: 0,
                    action: ActionCall { action: "a".into(), args: vec![i as u64] },
                })
                .unwrap();
        }
        let hit = table.lookup(&[key as u64]).expect("both entries match");
        let expect = if len_a > len_b { 0 } else { 1 };
        prop_assert_eq!(hit.action.args[0], expect);
    }

    #[test]
    fn glob_matching_total_and_star_is_universal(name in "[a-z_]{0,12}") {
        prop_assert!(flexnet_lang::patch::glob_match("*", &name));
        prop_assert!(flexnet_lang::patch::glob_match(&name, &name));
    }
}

// ---------------------------------------------------------------------------
// Exactly-once control semantics (E20): the idempotency-token dedup
// window and replayed two-phase-commit commands.
// ---------------------------------------------------------------------------

fn fresh_device() -> Device {
    Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A dup-flood of arbitrary tokens: the window never grows past
    /// `DEDUP_WINDOW`, and every absorb outcome matches `seen_command`
    /// at the moment of the call — a token inside the window is a
    /// `StaleDuplicate`, a token outside it applies.
    #[test]
    fn dedup_window_stays_bounded_under_dup_floods(
        tokens in prop::collection::vec(any::<u64>(), 1..300),
    ) {
        let mut d = fresh_device();
        for &t in &tokens {
            let was_seen = d.seen_command(t);
            match d.absorb_command(t) {
                Ok(()) => prop_assert!(!was_seen, "token {t} applied while in window"),
                Err(flexnet_types::FlexError::StaleDuplicate { token }) => {
                    prop_assert_eq!(token, t);
                    prop_assert!(was_seen, "token {t} rejected while outside window");
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
            prop_assert!(
                d.dedup_len() <= flexnet_dataplane::DEDUP_WINDOW,
                "dedup window grew to {}",
                d.dedup_len()
            );
        }
    }

    /// Idempotency survives a device reboot: tokens absorbed before a
    /// crash are still rejected as duplicates when replayed after the
    /// restart (the window persists like `fence` and `boot_id`).
    #[test]
    fn command_dedup_survives_restart(
        raw in prop::collection::vec(any::<u64>(), 1..=flexnet_dataplane::DEDUP_WINDOW),
    ) {
        let raw: std::collections::BTreeSet<u64> = raw.into_iter().collect();
        let mut d = fresh_device();
        for &t in &raw {
            d.absorb_command(t).expect("first delivery applies");
        }
        d.crash(SimTime::from_millis(10));
        d.restart(SimTime::from_millis(20)).expect("restarts");
        for &t in &raw {
            prop_assert!(
                matches!(
                    d.absorb_command(t),
                    Err(flexnet_types::FlexError::StaleDuplicate { token }) if token == t
                ),
                "token {t} reapplied after restart"
            );
        }
        prop_assert!(d.dedup_len() <= flexnet_dataplane::DEDUP_WINDOW);
    }

    /// Replayed two-phase-commit commands (a coordinator retrying after
    /// a lost ack, or the fabric duplicating a frame) are absorbed
    /// exactly once: duplicate prepares re-ack the existing shadow
    /// without rebuilding it, duplicate commits are idempotent, and the
    /// device ends on the same digest a single clean delivery produces.
    #[test]
    fn replayed_2pc_commands_are_absorbed_exactly_once(
        prepare_dups in 1usize..4,
        commit_dups in 1usize..4,
        txn_id in 1u64..u64::MAX,
    ) {
        use flexnet_dataplane::{ReconfigOutcome, TxnTag};
        let v1 = flexnet::apps::security::firewall(16).unwrap();
        let v2 = flexnet::apps::security::firewall(32).unwrap();

        // Reference: one clean prepare/commit, no replays.
        let mut clean = fresh_device();
        clean.install(v1.clone()).unwrap();
        let tag = TxnTag { txn_id, epoch: 1 };
        let t0 = SimTime::from_millis(100);
        clean.prepare_txn_reconfig(v2.clone(), t0, tag).unwrap();
        clean.commit_txn(tag, t0).unwrap();
        clean.tick(SimTime::from_secs(30));
        prop_assert!(!clean.reconfig_in_progress());

        // Device under test: every command delivered 1 + N times.
        let mut d = fresh_device();
        d.install(v1).unwrap();
        let first = d.prepare_txn_reconfig(v2.clone(), t0, tag).unwrap();
        for _ in 0..prepare_dups {
            let replay = d
                .prepare_txn_reconfig(v2.clone(), SimTime::from_millis(150), tag)
                .expect("duplicate prepare re-acks");
            // The shadow is not rebuilt: same flip time, and the replay
            // reports the in-flight transition rather than a new one.
            prop_assert_eq!(replay.outcome, ReconfigOutcome::InFlight);
            prop_assert_eq!(replay.ready_at, first.ready_at);
        }
        prop_assert!(d.commit_txn(tag, t0).unwrap(), "first commit releases");
        d.tick(SimTime::from_secs(30));
        for _ in 0..commit_dups {
            // After the flip the shadow is gone; a replayed commit is a
            // no-op `false`, never an error and never a second flip.
            prop_assert!(!d.commit_txn(tag, SimTime::from_secs(31)).unwrap());
        }
        prop_assert!(!d.reconfig_in_progress());
        prop_assert_eq!(d.version(), clean.version(), "flipped exactly once");
        prop_assert_eq!(d.config_digest(), clean.config_digest());
    }
}

// ---------------------------------------------------------------------------
// Aliasing safety: declarations are shared (`Arc`) from the parser to the
// device; whoever changes one changes a copy of its own.
// ---------------------------------------------------------------------------

#[path = "common/gallery.rs"]
mod gallery;

/// Everything observable about a bundle, a sealed image of it and a device
/// running that image.
fn observed(bundle: &ProgramBundle, image: &ProgramImage, witness: &Device) -> [String; 6] {
    let running = witness.program().unwrap();
    [
        bundle.program.to_source(),
        format!("{bundle:?}"),
        format!("{:?}", image.bundle()),
        format!("{:#x}", image.code_digest()),
        format!("{:?} {:#x}", running.bundle(), witness.config_digest()),
        running.bundle().program.to_source(),
    ]
}

/// A random edit of `base` in the patch DSL's terms; it may well not apply.
fn arb_patch_op(rng: &mut StdRng, base: &Program) -> PatchOp {
    let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n.max(1));
    let table = |rng: &mut StdRng| base.tables.get(pick(rng, base.tables.len())).cloned();
    let handler = &base.handlers[pick(rng, base.handlers.len())];
    let body = vec![Stmt::AssignField(
        FieldPath::Meta("aliased".into()),
        Expr::Int(rng.gen_range(0..9)),
    )];
    match (rng.gen_range(0..8), table(rng)) {
        (0, Some(t)) => PatchOp::ResizeTable(t.name.clone(), t.size + 1 + rng.gen_range(0..64)),
        (1, Some(t)) => {
            let a = &t.actions[pick(rng, t.actions.len())];
            let call = ActionCall {
                action: a.name.clone(),
                args: vec![1; a.params.len()],
            };
            PatchOp::SetDefault(t.name.clone(), call)
        }
        (2, Some(t)) => PatchOp::RemoveTable(t.name.clone()),
        (3, _) if !base.states.is_empty() => {
            PatchOp::RemoveState(base.states[pick(rng, base.states.len())].name.clone())
        }
        (4, _) => PatchOp::AddState(Arc::new(StateDecl {
            name: format!("extra{}", rng.gen_range(0..4)),
            kind: StateKind::Counter,
            size: 1,
        })),
        (5, _) => PatchOp::ModifyHandler(handler.name.clone(), ModifyMode::Replace, body),
        (6, _) => PatchOp::ModifyHandler(handler.name.clone(), ModifyMode::Prepend, body),
        _ => PatchOp::ModifyHandler(handler.name.clone(), ModifyMode::Append, body),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every gallery program: patch a clone of the bundle, push the
    /// resulting ops into a device one at a time (`apply_op`) and through
    /// the unsafe in-place mode — both unseal — and the original bundle,
    /// the sealed image and a second device on that image read as before,
    /// byte for byte.
    #[test]
    fn edits_of_a_clone_never_show_through_what_it_shares_declarations_with(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gallery = gallery::gallery();
        for (i, (name, original)) in gallery.iter().enumerate() {
            let image = ProgramImage::seal(original.clone()).unwrap();
            let device = || match original.program.kind {
                ProgramKind::Host | ProgramKind::Nic => {
                    Device::new(NodeId(1), Architecture::host_default(), StateEncoding::StatefulTable)
                }
                _ => fresh_device(),
            };
            let (mut witness, mut edited, mut inplace) = (device(), device(), device());
            for dev in [&mut witness, &mut edited, &mut inplace] {
                dev.install(image.clone()).unwrap();
            }
            let before = observed(original, &image, &witness);

            // The patch DSL on a clone: `make_mut` at each declaration touched.
            let mut patched = original.clone();
            for n in 0..rng.gen_range(1..6) {
                let patch = Patch {
                    name: format!("p{n}"),
                    target: patched.program.name.clone(),
                    ops: vec![arb_patch_op(&mut rng, &patched.program)],
                };
                patched = apply_patch(&patched, &patch).unwrap_or(patched);
            }
            // The same edits as device ops, onto a live (unsealing) program…
            let ops = diff_bundles(original, &patched);
            let live = edited.program_mut().unwrap();
            for op in &ops {
                let _ = live.apply_op(op);
            }
            prop_assert!(ops.is_empty() || live.image().is_none(), "{name}: an applied op unseals");
            // …and the unsafe in-place mode towards another gallery program.
            let (_, other) = &gallery[(i + 1) % gallery.len()];
            let report = inplace.begin_unsafe_inplace(other.clone(), SimTime::ZERO).unwrap();
            inplace.tick(report.ready_at);
            prop_assert!(!inplace.reconfig_in_progress());
            let landed = inplace.program().unwrap().bundle();
            prop_assert!(diff_bundles(landed, other).is_empty(), "{name}: the ops did land");

            prop_assert_eq!(observed(original, &image, &witness), before, "{}", name);
        }
    }
}
