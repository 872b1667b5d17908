//! Sandbox fuzzing: arbitrary bytes against the wire parser and
//! arbitrary (bounded) generated programs against the device's engine,
//! checked packet by packet against the reference interpreter
//! (`common/oracle.rs`).
//!
//! Two properties anchor the isolation story (E18):
//!
//! 1. **No panic, ever.** Any byte string fed to [`parse_wire`] (or to a
//!    device's `process_bytes`) either parses or surfaces a typed
//!    [`Trap::MalformedPacket`] — the packet path has no `unwrap` left
//!    for hostile input to reach.
//! 2. **Gas termination with parity.** Any generated program, under any
//!    small gas budget, terminates within the budget (plus the widest
//!    single charge), with the reference's verdicts, op counts, traps and
//!    state.
//!
//! A third property anchors the E20 integrity story: any sealed frame
//! corrupted in flight (1–8 flipped bits) is rejected by the checksum
//! **before** program execution — it never panics, never parse-traps,
//! and never counts against the program's quarantine ledger.
//!
//! Failures pin to `tests/sandbox_fuzz.proptest-regressions`, mirroring
//! the existing property suites.

use flexnet::prelude::*;
use flexnet_dataplane::{encode_wire, parse_wire, SandboxConfig};
use flexnet_lang::parser::parse_source;
use flexnet_types::{FlexError, Trap};
use proptest::prelude::*;

#[path = "common/oracle.rs"]
mod oracle;

// ---------------------------------------------------------------------
// Wire parser: arbitrary bytes.
// ---------------------------------------------------------------------

proptest! {
    /// Any byte soup: the parser returns a packet or a typed malformed-
    /// packet trap. Nothing panics, nothing else errors.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        match parse_wire(&bytes, 1) {
            Ok(_) => {}
            Err(FlexError::Trap(Trap::MalformedPacket { .. })) => {}
            Err(e) => prop_assert!(false, "non-trap error from parser: {e}"),
        }
    }

    /// Frames that do parse survive an encode/re-parse round trip with
    /// identical headers (the codec is self-consistent).
    #[test]
    fn parsed_frames_round_trip(bytes in proptest::collection::vec(any::<u8>(), 14..192)) {
        if let Ok(pkt) = parse_wire(&bytes, 7) {
            let encoded = encode_wire(&pkt);
            let again = parse_wire(&encoded, 7);
            prop_assert!(again.is_ok(), "re-parse failed: {:?}", again.err());
            let again = again.unwrap();
            prop_assert_eq!(pkt.headers().collect::<Vec<_>>(), again.headers().collect::<Vec<_>>());
        }
    }

    /// The device-level poison entry point: arbitrary bytes against a
    /// live program never panic and never indict the program.
    #[test]
    fn process_bytes_never_panics_or_quarantines(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..24),
    ) {
        let bundle = flexnet::apps::security::firewall(16).unwrap();
        let mut d = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        d.install(bundle).unwrap();
        for (i, f) in frames.iter().enumerate() {
            let r = d.process_bytes(f, i as u64, SimTime::from_millis(i as u64));
            prop_assert!(r.is_ok(), "frame {i}: {:?}", r.err());
        }
        prop_assert!(!d.quarantined(), "poison bytes quarantined the program");
        let stats = d.stats();
        prop_assert_eq!(
            stats.parse_traps + stats.processed,
            frames.len() as u64,
            "every frame either parsed or parse-trapped"
        );
    }

    /// Corrupt-in-flight (E20): a *valid* frame is sealed with its FNV
    /// checksum, then 1–8 bits flip on the wire. The device rejects it at
    /// the integrity boundary — a typed `ChecksumMismatch`, never a
    /// panic — and the damage is billed to the fabric (`checksum_drops`),
    /// never to the program: no parse trap, no processed packet, no
    /// quarantine.
    #[test]
    fn corrupted_sealed_frames_never_reach_the_program(
        srcs in proptest::collection::vec(any::<u32>(), 1..16),
        flip_seed in any::<u64>(),
        flips in 1u32..=8,
    ) {
        use flexnet_dataplane::{flip_bits, seal_frame};
        let bundle = flexnet::apps::security::firewall(16).unwrap();
        let mut d = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        d.install(bundle).unwrap();
        let before = d.stats();
        for (i, &s) in srcs.iter().enumerate() {
            let pkt = Packet::tcp(i as u64, s, s ^ 9, 1000, 80, 0);
            let mut sealed = seal_frame(&encode_wire(&pkt));
            flip_bits(&mut sealed, flip_seed.wrapping_add(i as u64), flips);
            let r = d.process_sealed_bytes(&sealed, i as u64, SimTime::from_millis(i as u64));
            prop_assert!(
                matches!(r, Err(FlexError::ChecksumMismatch { .. })),
                "frame {i}: corruption slipped past the checksum: {r:?}"
            );
        }
        let after = d.stats();
        prop_assert_eq!(after.checksum_drops, srcs.len() as u64, "every frame billed to the fabric");
        prop_assert_eq!(after.parse_traps, before.parse_traps, "no parse trap for wire damage");
        prop_assert_eq!(after.processed, before.processed, "no corrupted frame executed");
        prop_assert_eq!(after.traps, before.traps, "no program trap for wire damage");
        prop_assert!(!d.quarantined(), "wire corruption quarantined the program");
    }
}

// ---------------------------------------------------------------------
// Generated programs: tiny gas budgets, checked against the reference.
// ---------------------------------------------------------------------

/// One generated statement, drawn from the sandbox-relevant vocabulary:
/// state reads/writes, arithmetic that can divide by zero, bounded
/// loops, table applies, and verdicts.
#[derive(Debug, Clone)]
enum GenStmt {
    Count,
    RegBump { idx: u64, add: u64 },
    DivByMap { num: u64 },
    ModByReg { num: u64 },
    Repeat { times: u64, inner: u64 },
    IfDrop { threshold: u64 },
    Apply,
    Forward { port: u64 },
}

fn gen_stmt() -> impl Strategy<Value = GenStmt> {
    prop_oneof![
        Just(GenStmt::Count),
        (0u64..8, 1u64..64).prop_map(|(idx, add)| GenStmt::RegBump { idx, add }),
        (1u64..1000).prop_map(|num| GenStmt::DivByMap { num }),
        (1u64..1000).prop_map(|num| GenStmt::ModByReg { num }),
        (1u64..6, 1u64..4).prop_map(|(times, inner)| GenStmt::Repeat { times, inner }),
        (0u64..64).prop_map(|threshold| GenStmt::IfDrop { threshold }),
        Just(GenStmt::Apply),
        (1u64..4).prop_map(|port| GenStmt::Forward { port }),
    ]
}

impl GenStmt {
    fn render(&self) -> String {
        match self {
            GenStmt::Count => "count(c);".into(),
            GenStmt::RegBump { idx, add } => {
                format!("reg_write(r, {idx} % 8, reg_read(r, {idx} % 8) + {add});")
            }
            GenStmt::DivByMap { num } => {
                format!("let q{num} = {num} / map_get(m, ipv4.src);")
            }
            GenStmt::ModByReg { num } => {
                format!("let w{num} = {num} % reg_read(r, 1);")
            }
            GenStmt::Repeat { times, inner } => format!(
                "repeat ({times}) {{ repeat ({inner}) {{ reg_write(r, 0, reg_read(r, 0) + 1); }} }}"
            ),
            GenStmt::IfDrop { threshold } => {
                format!("if (reg_read(r, 2) > {threshold}) {{ drop(); }}")
            }
            GenStmt::Apply => "apply t;".into(),
            GenStmt::Forward { port } => format!("forward({port});"),
        }
    }
}

/// Renders a generated statement list into a full program with the state
/// and table vocabulary the statements reference.
fn render_program(stmts: &[GenStmt]) -> ProgramBundle {
    let body: String = stmts.iter().map(|s| s.render() + "\n").collect();
    let src = format!(
        "program fuzzed kind any {{
           counter c;
           register r : u64[8];
           map m : map<u32, u32>[16];
           table t {{
             key {{ ipv4.src : exact; }}
             action fwd(port: u16) {{ forward(port); }}
             default fwd(1);
             size 8;
           }}
           handler ingress(pkt) {{
             {body}
             forward(1);
           }}
         }}"
    );
    let file = parse_source(&src).expect("generated source parses");
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    }
}

/// A device with a `gas`-op budget running `bundle`, if it installs.
fn sandboxed(bundle: ProgramBundle, gas: u64) -> Option<Device> {
    let mut d = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    d.set_sandbox(SandboxConfig { gas_limit: gas });
    d.install(bundle).ok().map(|()| d)
}

/// Pinned regressions: generated shapes that once broke the harness or
/// the engines stay here forever, chaos-suite style, independent of the
/// proptest seed file.
#[test]
fn pinned_generated_program_regressions() {
    let pinned: [&[GenStmt]; 3] = [
        // `apply` is statement syntax (`apply t;`), and an apply charges
        // 4 gas in one tick — the widest single charge.
        &[GenStmt::Apply, GenStmt::Count],
        // Division by an empty-map lookup traps on every packet.
        &[
            GenStmt::DivByMap { num: 1000 },
            GenStmt::Forward { port: 1 },
        ],
        // A mod whose divisor register is bumped first: traps only until
        // the bump lands, then runs clean — exercises mixed streams.
        &[
            GenStmt::ModByReg { num: 7 },
            GenStmt::RegBump { idx: 1, add: 3 },
        ],
    ];
    for stmts in pinned {
        for gas in [1u64, 5, 64] {
            let mut d = sandboxed(render_program(stmts), gas).expect("pinned program installs");
            for i in 0..12u64 {
                let mut pkt = Packet::tcp(i, i as u32, 3, 1000, 80, 0);
                oracle::process(&mut d, &mut pkt, SimTime::from_millis(i));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated programs under tiny budgets: the device agrees with the
    /// reference on every packet, and gas exhaustion halts within the
    /// budget plus the widest single charge (an `apply` bills 4 ops at
    /// once).
    #[test]
    fn generated_programs_agree_and_terminate_under_gas(
        stmts in proptest::collection::vec(gen_stmt(), 1..8),
        gas in 1u64..96,
        srcs in proptest::collection::vec(0u32..64, 1..6),
    ) {
        // The verifier may reject a generated program (e.g. an unprovable
        // bound).
        let Some(mut d) = sandboxed(render_program(&stmts), gas) else {
            return Ok(());
        };
        for (i, &s) in srcs.iter().enumerate() {
            let mut pkt = Packet::tcp(i as u64, s, s ^ 5, 1000, 80, 0);
            let r = oracle::process(&mut d, &mut pkt, SimTime::from_millis(i as u64));
            // Gas termination: however hostile the program, the per-
            // packet work is bounded by the budget plus one max charge,
            // times the recirculation allowance baked into `process`.
            prop_assert!(
                r.ops <= (gas + 4) * 5,
                "pkt {} burned {} ops against budget {}", i, r.ops, gas
            );
            if matches!(r.trap, Some(Trap::GasExhausted { .. })) {
                prop_assert_eq!(&r.verdict, &Verdict::Drop, "gas traps fail closed");
            }
        }
    }
}
