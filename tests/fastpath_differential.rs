//! Differential tests for the fast packet path: the install-time bytecode
//! VM must be observationally identical to the reference AST interpreter —
//! same verdict, same op count (so latency models agree), same packet
//! mutations, same logical state, same config digest — on every program in
//! the app gallery and on randomized packets.
//!
//! Deterministic sweeps use a pinned xorshift stream (regression seeds à la
//! the chaos suites); the proptest section explores arbitrary packets and
//! records its own regressions file.

use flexnet::prelude::*;
use flexnet_dataplane::device::{ExecMode, FrameOutcome, ProcessResult};
use flexnet_dataplane::table::{KeyMatch, TableEntry};
use flexnet_dataplane::wire::{encode_wire, flip_bits, seal_frame};
use flexnet_dataplane::{ForwardingGraph, SandboxConfig};
use flexnet_lang::ast::{ActionCall, MatchKind, TableDecl};
use flexnet_lang::parser::parse_source;
use flexnet_types::{FlexError, Header, Trap};
use proptest::prelude::*;

#[path = "common/gallery.rs"]
mod gallery_programs;
use gallery_programs::gallery;

/// A tiny deterministic RNG (xorshift64*), seeded per program so failures
/// pin to a reproducible stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545f4914f6cdd1d)
    }
}

/// Synthesizes a few entries for `decl` matching its declared key kinds and
/// action signatures, so table-driven programs take real hit paths.
fn synth_entries(decl: &TableDecl, rng: &mut Rng) -> Vec<TableEntry> {
    let mut out = Vec::new();
    for i in 0..6u64 {
        let matches: Vec<KeyMatch> = decl
            .keys
            .iter()
            .map(|k| match k.match_kind {
                // Small values so the packet generator actually hits them.
                MatchKind::Exact => KeyMatch::Exact(rng.next() % 32),
                MatchKind::Lpm => KeyMatch::Lpm {
                    value: rng.next() & 0xffff_ffff,
                    prefix_len: (rng.next() % 25) as u8,
                    width: 32,
                },
                MatchKind::Ternary => KeyMatch::Ternary {
                    value: rng.next() % 64,
                    mask: 0x1f,
                },
                MatchKind::Range => {
                    let lo = rng.next() % 64;
                    KeyMatch::Range {
                        lo,
                        hi: lo + rng.next() % 64,
                    }
                }
            })
            .collect();
        let action = &decl.actions[(i as usize) % decl.actions.len()];
        out.push(TableEntry {
            matches,
            priority: (rng.next() % 4) as i32,
            action: ActionCall {
                action: action.name.clone(),
                args: action.params.iter().map(|_| rng.next() % 1024).collect(),
            },
        });
    }
    out
}

fn dev(mode: ExecMode, kind: flexnet_lang::ast::ProgramKind) -> Device {
    use flexnet_lang::ast::ProgramKind;
    let arch = match kind {
        ProgramKind::Host | ProgramKind::Nic => Architecture::host_default(),
        _ => Architecture::drmt_default(),
    };
    let mut d = Device::new(NodeId(1), arch, StateEncoding::StatefulTable);
    d.set_exec_mode(mode);
    d
}

/// Installs `bundle` on two devices (one per execution mode) with identical
/// synthesized table entries, then checks both process `packets` packets
/// identically, observing verdicts, op counts, packet mutations, logical
/// state, stats, and the config digest.
fn assert_modes_agree(name: &str, bundle: &ProgramBundle, packets: &[Packet]) {
    assert_modes_agree_sandboxed(name, bundle, packets, SandboxConfig::default());
}

/// Like [`assert_modes_agree`], under an explicit sandbox — the gas-sweep
/// tests pin both engines to the same (tiny) budget and require identical
/// trap behaviour, not just identical verdicts.
fn assert_modes_agree_sandboxed(
    name: &str,
    bundle: &ProgramBundle,
    packets: &[Packet],
    sandbox: SandboxConfig,
) {
    let mut interp = dev(ExecMode::Interpreter, bundle.program.kind);
    let mut byte = dev(ExecMode::Bytecode, bundle.program.kind);
    interp.set_sandbox(sandbox);
    byte.set_sandbox(sandbox);
    interp.install(bundle.clone()).expect("installs");
    byte.install(bundle.clone()).expect("installs");
    let mut rng = Rng(0x5eed_0000 ^ name.len() as u64);
    for t in &bundle.program.tables {
        for e in synth_entries(t, &mut rng) {
            interp.add_entry(&t.name, e.clone()).expect("entry fits");
            byte.add_entry(&t.name, e).expect("entry fits");
        }
    }
    for (i, pkt) in packets.iter().enumerate() {
        let now = SimTime::from_millis(i as u64 * 3);
        let mut pa = pkt.clone();
        let mut pb = pkt.clone();
        let ra = interp.process(&mut pa, now);
        let rb = byte.process(&mut pb, now);
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.verdict, rb.verdict, "{name}: verdict, pkt {i}");
                assert_eq!(ra.ops, rb.ops, "{name}: ops, pkt {i}");
                assert_eq!(ra.latency, rb.latency, "{name}: latency, pkt {i}");
                assert_eq!(pa, pb, "{name}: packet mutation, pkt {i}");
                // Trap identity: same variant at the same gas count.
                // UnknownAction payloads name the action differently per
                // engine (source name vs slot index), so payloads compare
                // everywhere else only.
                assert_eq!(
                    ra.trap.as_ref().map(Trap::label),
                    rb.trap.as_ref().map(Trap::label),
                    "{name}: trap kind, pkt {i}"
                );
                if !matches!(ra.trap, Some(Trap::UnknownAction { .. })) {
                    assert_eq!(ra.trap, rb.trap, "{name}: trap payload, pkt {i}");
                }
            }
            (ra, rb) => panic!("{name}: pkt {i} diverged: {ra:?} vs {rb:?}"),
        }
    }
    assert_eq!(
        interp.snapshot_state(),
        byte.snapshot_state(),
        "{name}: logical state"
    );
    assert_eq!(interp.stats(), byte.stats(), "{name}: device stats");
    assert_eq!(
        interp.config_digest(),
        byte.config_digest(),
        "{name}: config digest"
    );
}

/// A deterministic packet stream biased toward small field values (so
/// synthesized table entries and thresholds actually trigger) but with
/// occasional full-range outliers.
fn packet_stream(seed: u64, n: usize) -> Vec<Packet> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|i| {
            let wide = rng.next().is_multiple_of(8);
            let m = |v: u64| if wide { v } else { v % 32 };
            let mut p = Packet::tcp(
                i as u64,
                m(rng.next()) as u32,
                m(rng.next()) as u32,
                m(rng.next()) as u16,
                m(rng.next()) as u16,
                (rng.next() % 64) as u8,
            );
            p.payload_len = (rng.next() % 1500) as u32;
            p
        })
        .collect()
}

#[test]
fn bytecode_matches_interpreter_on_every_gallery_program() {
    for (name, bundle) in gallery() {
        let pkts = packet_stream(0xfeed ^ name.len() as u64, 200);
        assert_modes_agree(name, &bundle, &pkts);
    }
}

/// Pinned regression seeds, mirroring the chaos suites' convention: any
/// stream that ever exposed a divergence stays here forever.
#[test]
fn bytecode_matches_interpreter_on_regression_seeds() {
    for seed in [1u64, 42, 0xdead_beef, 0x5eed_cafe] {
        for (name, bundle) in gallery() {
            assert_modes_agree(name, &bundle, &packet_stream(seed, 50));
        }
    }
}

/// Gas sweep: every gallery program, both engines, the same tiny budgets.
/// Exhaustion must be a typed `GasExhausted` trap (fail-closed drop) at the
/// identical op count in both modes — the differential invariant extended
/// to the metering layer.
#[test]
fn gas_exhaustion_is_identical_across_modes_on_every_gallery_program() {
    for (name, bundle) in gallery() {
        for gas in [1u64, 3, 7, 19, 47] {
            let pkts = packet_stream(0x9a5 ^ gas ^ name.len() as u64, 40);
            assert_modes_agree_sandboxed(
                name,
                &bundle,
                &pkts,
                SandboxConfig {
                    gas_limit: gas,
                    ..SandboxConfig::default()
                },
            );
        }
    }
}

fn bundle_of(src: &str) -> ProgramBundle {
    let file = parse_source(src).expect("trap program parses");
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    }
}

/// Trapping inputs: programs built to hit each typed-trap path on real
/// packets. Both engines must trap with the same variant, the same op
/// count, and the same fail-closed drop — on streams that mix trapping
/// and clean packets.
#[test]
fn trapping_inputs_trap_identically_in_both_modes() {
    let cases: [(&str, &str, &str); 3] = [
        (
            "div_zero",
            "program p kind any {
               map d : map<u32, u32>[16];
               handler ingress(pkt) {
                 let x = 1000 / map_get(d, ipv4.src);
                 forward(1);
               }
             }",
            "div-by-zero",
        ),
        (
            "mod_zero",
            "program p kind any {
               register r : u64[4];
               handler ingress(pkt) {
                 let x = 7 % reg_read(r, 0);
                 forward(1);
               }
             }",
            "div-by-zero",
        ),
        (
            "reg_oob",
            // The verifier proves the modulo bound at install time; a
            // runtime `ModifyState` shrink (applied below) then moves the
            // bound out from under the proof — the state-bomb vector.
            "program p kind any {
               register r : u64[8];
               handler ingress(pkt) {
                 reg_write(r, ipv4.src % 8, 1);
                 forward(1);
               }
             }",
            "state-oob",
        ),
    ];
    for (name, src, want) in cases {
        let bundle = bundle_of(src);
        let mut interp = dev(ExecMode::Interpreter, bundle.program.kind);
        let mut byte = dev(ExecMode::Bytecode, bundle.program.kind);
        interp.install(bundle.clone()).expect("installs");
        byte.install(bundle).expect("installs");
        if name == "reg_oob" {
            use flexnet_lang::ast::{StateDecl, StateKind};
            let shrink = flexnet_lang::diff::ReconfigOp::ModifyState(StateDecl {
                name: "r".into(),
                kind: StateKind::Register { width: 64 },
                size: 2,
            }.into());
            for d in [&mut interp, &mut byte] {
                d.program_mut().unwrap().apply_op(&shrink).expect("shrinks");
            }
        }
        let mut trapped = 0usize;
        for (i, pkt) in packet_stream(0x7a9 ^ name.len() as u64, 80).iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            let ra = interp.process(&mut pkt.clone(), now).expect("processes");
            let rb = byte.process(&mut pkt.clone(), now).expect("processes");
            assert_eq!(ra.verdict, rb.verdict, "{name}: verdict, pkt {i}");
            assert_eq!(ra.ops, rb.ops, "{name}: ops, pkt {i}");
            assert_eq!(ra.trap, rb.trap, "{name}: trap, pkt {i}");
            if let Some(t) = &ra.trap {
                trapped += 1;
                assert_eq!(t.label(), want, "{name}: trap kind, pkt {i}");
                assert_eq!(ra.verdict, Verdict::Drop, "{name}: traps fail closed");
            }
        }
        assert!(trapped > 0, "{name}: the stream never hit the trap path");
        assert_eq!(interp.stats(), byte.stats(), "{name}: device stats");
    }
}

// ---------------------------------------------------------------------------
// Burst differential: `Device::process_burst` must be observationally
// identical to a per-packet `Device::process` loop — same per-packet
// results (verdict, ops, latency, trap, version), same packet mutations,
// same logical state, stats, and config digest — for every gallery
// program, every burst size, and across bursts that straddle trap,
// quarantine, and recirculation boundaries.
// ---------------------------------------------------------------------------

/// Burst sizes the suite sweeps: the degenerate burst, a tiny odd burst
/// (forces mid-stream chunk boundaries), and the two bench operating
/// points.
const BURST_SIZES: [usize; 4] = [1, 3, 64, 256];

/// Drives `packets` through three identically configured devices — one via
/// per-packet [`Device::process`], one via [`Device::process_burst`] in
/// chunks of `burst`, one via [`ForwardingGraph::run`] over the same chunks
/// (at burst 1 that is graph-of-1 ≡ `process` ≡ `process_burst` of 1) — and
/// requires identical observable behaviour. Each chunk shares one timestamp
/// on every path, mirroring how a burst shares its `now`.
fn assert_burst_matches_single(
    name: &str,
    bundle: &ProgramBundle,
    packets: &[Packet],
    burst: usize,
    mode: ExecMode,
) {
    let [mut single, mut bursty, mut graphed] = gallery_devices(name, bundle, mode);
    let mut graph = ForwardingGraph::standard();
    let mut out = Vec::new();
    for (ci, chunk) in packets.chunks(burst.max(1)).enumerate() {
        let now = SimTime::from_millis(ci as u64 * 3);
        let mut singles = Vec::with_capacity(chunk.len());
        let mut single_pkts = Vec::with_capacity(chunk.len());
        for pkt in chunk {
            let mut p = pkt.clone();
            singles.push(single.process(&mut p, now).expect("processes"));
            single_pkts.push(p);
        }
        let mut burst_pkts: Vec<Packet> = chunk.to_vec();
        bursty
            .process_burst(&mut burst_pkts, now, &mut out)
            .expect("processes");
        assert_eq!(
            out, singles,
            "{name}: burst {burst} {mode:?}, chunk {ci} results"
        );
        assert_eq!(
            burst_pkts, single_pkts,
            "{name}: burst {burst} {mode:?}, chunk {ci} packet mutations"
        );
        let mut graph_pkts: Vec<Packet> = chunk.to_vec();
        let lanes = graph
            .run(&mut graphed, &mut graph_pkts, now)
            .expect("processes");
        assert_eq!(
            lanes.results, singles,
            "{name}: graph burst {burst} {mode:?}, chunk {ci} results"
        );
        assert_eq!(
            graph_pkts, single_pkts,
            "{name}: graph burst {burst} {mode:?}, chunk {ci} packet mutations"
        );
    }
    for (lane, other) in [("burst", &bursty), ("graph", &graphed)] {
        assert_same_device(&format!("{name}: {lane} {burst} {mode:?}"), &single, other);
    }
}

/// Identically configured devices for one gallery program: installed,
/// with the same synthesized table entries.
fn gallery_devices<const N: usize>(
    name: &str,
    bundle: &ProgramBundle,
    mode: ExecMode,
) -> [Device; N] {
    std::array::from_fn(|_| {
        let mut d = dev(mode, bundle.program.kind);
        d.install(bundle.clone()).expect("installs");
        let mut rng = Rng(0x5eed_0000 ^ name.len() as u64);
        for t in &bundle.program.tables {
            for e in synth_entries(t, &mut rng) {
                d.add_entry(&t.name, e).expect("entry fits");
            }
        }
        d
    })
}

/// Everything a device lets an observer see after a stream: logical state,
/// stats, config digest, program version and the quarantine flag.
fn assert_same_device(what: &str, a: &Device, b: &Device) {
    assert_eq!(a.snapshot_state(), b.snapshot_state(), "{what} logical state");
    assert_eq!(a.stats(), b.stats(), "{what} device stats");
    assert_eq!(a.config_digest(), b.config_digest(), "{what} config digest");
    assert_eq!(a.version(), b.version(), "{what} program version");
    assert_eq!(a.quarantined(), b.quarantined(), "{what} quarantine flag");
}

#[test]
fn burst_matches_single_on_every_gallery_program() {
    for (name, bundle) in gallery() {
        // 300 packets: burst 256 straddles into a 44-packet tail chunk.
        let pkts = packet_stream(0xb0257 ^ name.len() as u64, 300);
        for burst in BURST_SIZES {
            for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
                assert_burst_matches_single(name, &bundle, &pkts, burst, mode);
            }
        }
    }
}

/// Bursts straddling the quarantine boundary: a storm of trapping packets
/// flips the device to its transparent-forward fallback *mid-burst*; the
/// per-packet sequence (traps before the flip, forwards at the bumped
/// version after) must match the single-packet path exactly.
#[test]
fn burst_matches_single_across_trap_and_quarantine_boundaries() {
    let storm = bundle_of(
        "program storm kind any {
           map d : map<u32, u32>[16];
           handler ingress(pkt) {
             let x = 1000 / map_get(d, ipv4.src);
             forward(1);
           }
         }",
    );
    // Every packet traps (the map is empty ⇒ map_get = 0 ⇒ ÷0) until the
    // quarantine flips mid-stream.
    let pkts = packet_stream(0x57012, 100);
    for burst in BURST_SIZES {
        for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
            assert_burst_matches_single("storm", &storm, &pkts, burst, mode);
        }
    }
}

/// Bursts straddling recirculation boundaries: a stateful program whose
/// recirculation depth varies per packet (register-counted passes), plus
/// one that always recirculates into the MAX_RECIRCULATIONS fail-closed
/// drop.
#[test]
fn burst_matches_single_across_recirculation_boundaries() {
    let counted = bundle_of(
        "program spiral kind any {
           register passes : u64[4];
           handler ingress(pkt) {
             let n = reg_read(passes, 0);
             reg_write(passes, 0, n + 1);
             if (n % 4 == 3) { forward(1); }
             recirculate();
           }
         }",
    );
    let runaway = bundle_of(
        "program runaway kind any {
           handler ingress(pkt) { recirculate(); }
         }",
    );
    for bundle in [&counted, &runaway] {
        let pkts = packet_stream(0x2ec12c, 120);
        for burst in BURST_SIZES {
            for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
                assert_burst_matches_single(&bundle.program.name, bundle, &pkts, burst, mode);
            }
        }
    }
}

/// Gas-boundary bursts: tiny budgets make exhaustion land mid-burst; the
/// typed `GasExhausted` trap and its op count must be chunk-invariant.
#[test]
fn burst_matches_single_under_tiny_gas_budgets() {
    for (name, bundle) in [
        ("cms", flexnet::apps::telemetry::count_min_sketch(4, 1024).unwrap()),
        ("firewall", flexnet::apps::security::firewall(64).unwrap()),
    ] {
        for gas in [3u64, 19] {
            let pkts = packet_stream(0x9a5b ^ gas, 90);
            for burst in BURST_SIZES {
                let mut single = dev(ExecMode::Bytecode, bundle.program.kind);
                let mut bursty = dev(ExecMode::Bytecode, bundle.program.kind);
                let sandbox = SandboxConfig {
                    gas_limit: gas,
                    ..SandboxConfig::default()
                };
                single.set_sandbox(sandbox);
                bursty.set_sandbox(sandbox);
                single.install(bundle.clone()).expect("installs");
                bursty.install(bundle.clone()).expect("installs");
                let mut out = Vec::new();
                for (ci, chunk) in pkts.chunks(burst).enumerate() {
                    let now = SimTime::from_millis(ci as u64);
                    let singles: Vec<ProcessResult> = chunk
                        .iter()
                        .map(|p| single.process(&mut p.clone(), now).expect("processes"))
                        .collect();
                    let mut burst_pkts: Vec<Packet> = chunk.to_vec();
                    bursty
                        .process_burst(&mut burst_pkts, now, &mut out)
                        .expect("processes");
                    assert_eq!(out, singles, "{name}: gas {gas} burst {burst} chunk {ci}");
                }
                assert_eq!(single.stats(), bursty.stats(), "{name}: gas {gas} stats");
            }
        }
    }
}

/// Programs that change the header stack under the VM's field lane: a
/// header added and then written, a header removed and then written (a
/// store to a missing header is a no-op, and its other fields must read
/// back 0), a store to a header the packet never had — and then a table
/// keyed on the touched
/// fields (through `meta.k`, itself a stored lane slot), so a stale lane
/// slot would pick the wrong entry. Since single
/// packets and bursts share the one executor, both engines and every burst
/// size must agree.
#[test]
fn header_mutating_programs_agree_across_engines_and_burst_sizes() {
    let mutate = bundle_of(
        "header tun { fields { id: 16; tag: 8; } follows udp when udp.dport == 4789; }
         program mutate kind any {
           counter hits;
           table touched {
             key { meta.k : exact; }
             action out(port: u16) { count(hits); forward(port); }
             action deny() { drop(); }
             default out(9);
             size 16;
           }
           handler ingress(pkt) {
             if (ipv4.src % 4 == 0) { add_header(tun); tun.tag = ipv4.dst % 8; }
             if (ipv4.src % 4 == 1) { remove_header(tcp); tcp.sport = 7; }
             if (ipv4.src % 4 == 2) { vlan.vid = 5; ipv4.ttl = ipv4.ttl - 1; }
             if (ipv4.src % 8 == 4) { remove_header(tun); tun.id = 3; }
             meta.k = tun.tag + tcp.dport + vlan.vid;
             apply touched;
             forward(0);
           }
         }",
    );
    let pkts = packet_stream(0x4ead, 240);
    assert_modes_agree("mutate", &mutate, &pkts);
    for burst in BURST_SIZES {
        for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
            assert_burst_matches_single("mutate", &mutate, &pkts, burst, mode);
        }
    }
    // The stream takes every branch, and the table both hits and misses.
    let [mut d] = gallery_devices("mutate", &mutate, ExecMode::Bytecode);
    let mut verdicts = Vec::new();
    for p in &pkts {
        let mut p = p.clone();
        let verdict = d.process(&mut p, SimTime::ZERO).expect("processes").verdict;
        if !verdicts.contains(&verdict) {
            verdicts.push(verdict);
        }
        let src = p.get_field("ipv4.src").expect("ipv4");
        assert_eq!(p.has_header("tun"), src % 4 == 0 && src % 8 != 4, "src {src}");
        assert_eq!(p.has_header("tcp"), src % 4 != 1, "src {src}");
        assert!(!p.has_header("vlan"), "a store never creates a header");
    }
    assert!(verdicts.len() > 2, "only {verdicts:?}");
}

// ---------------------------------------------------------------------------
// Sealed differential: the three wire entries — `process_sealed_bytes` frame
// by frame, `process_sealed_burst`, `ForwardingGraph::run_sealed` — share one
// admission step and one packet loop, and must be indistinguishable on
// streams that mix clean frames, frames corrupted in flight and validly
// sealed garbage.
// ---------------------------------------------------------------------------

/// `packet_stream(seed, n)` on the wire, with a seeded share of poison: about
/// one frame in eight has bits flipped after sealing (checksum drop) and
/// about one in eight is a correctly sealed garbage body (parse drop, or a
/// short unknown-ethertype packet).
fn sealed_stream(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed ^ 0x5ea1ed);
    packet_stream(seed, n)
        .iter()
        .map(|p| match rng.next() % 8 {
            0 => {
                let mut frame = seal_frame(&encode_wire(p));
                flip_bits(&mut frame, rng.next(), 1 + (rng.next() % 3) as u32);
                frame
            }
            1 => {
                let garbage: Vec<u8> = (0..rng.next() % 48).map(|_| rng.next() as u8).collect();
                seal_frame(&garbage)
            }
            _ => seal_frame(&encode_wire(p)),
        })
        .collect()
}

/// The single-frame entry's return value as the burst entries report it.
fn frame_outcome(r: flexnet_types::Result<ProcessResult>) -> FrameOutcome {
    match r {
        Err(FlexError::ChecksumMismatch { .. }) => FrameOutcome::ChecksumDrop,
        Ok(r) if matches!(r.trap, Some(Trap::MalformedPacket { .. })) => FrameOutcome::ParseDrop(r),
        Ok(r) => FrameOutcome::Processed(r),
        Err(e) => panic!("wire entry failed: {e}"),
    }
}

/// Feeds `frames` to three identically configured devices — frame by frame
/// through [`Device::process_sealed_bytes`], and in chunks of `burst` through
/// [`Device::process_sealed_burst`] and [`ForwardingGraph::run_sealed`] — and
/// requires the same outcome per frame, the same survivors and the same
/// device afterwards.
fn assert_sealed_entries_agree(
    name: &str,
    bundle: &ProgramBundle,
    frames: &[Vec<u8>],
    burst: usize,
) {
    let [mut single, mut bursty, mut graphed] = gallery_devices(name, bundle, ExecMode::Bytecode);
    let mut graph = ForwardingGraph::standard();
    let (mut pkts, mut out) = (Vec::new(), Vec::new());
    let mut kinds = [0usize; 3];
    for (ci, chunk) in frames.chunks(burst).enumerate() {
        let what = format!("{name}: sealed burst {burst}, chunk {ci}");
        let now = SimTime::from_millis(ci as u64 * 3);
        let first_id = (ci * burst) as u64;
        let singles: Vec<FrameOutcome> = chunk
            .iter()
            .enumerate()
            .map(|(k, f)| frame_outcome(single.process_sealed_bytes(f, first_id + k as u64, now)))
            .collect();
        bursty
            .process_sealed_burst(chunk, first_id, now, &mut pkts, &mut out)
            .expect("processes");
        assert_eq!(out, singles, "{what} outcomes");
        let lanes = graph
            .run_sealed(&mut graphed, chunk, first_id, now)
            .expect("processes");
        assert_eq!(lanes.frame_outcomes, singles, "{what} graph outcomes");

        // Survivors: exactly the processed frames, in arrival order, each
        // stamped by the version that processed it; and the graph's results
        // and egress line up with them.
        let processed: Vec<(u64, &ProcessResult)> = singles
            .iter()
            .enumerate()
            .filter_map(|(k, o)| match o {
                FrameOutcome::Processed(r) => Some((first_id + k as u64, r)),
                _ => None,
            })
            .collect();
        assert_eq!(pkts.len(), processed.len(), "{what} survivors");
        for (pkt, (id, r)) in pkts.iter().zip(&processed) {
            assert_eq!(pkt.id, *id, "{what} survivor order");
            assert_eq!(pkt.trace, vec![(bursty.id(), r.version)], "{what} survivor trace");
        }
        let results: Vec<&ProcessResult> = processed.iter().map(|(_, r)| *r).collect();
        assert_eq!(lanes.results.iter().collect::<Vec<_>>(), results, "{what} graph results");
        let forwarded: Vec<u32> = (0..results.len() as u32)
            .filter(|&i| matches!(results[i as usize].verdict, Verdict::Forward(_)))
            .collect();
        assert_eq!(lanes.egress, forwarded, "{what} graph egress");
        for o in &singles {
            kinds[match o {
                FrameOutcome::Processed(_) => 0,
                FrameOutcome::ChecksumDrop => 1,
                FrameOutcome::ParseDrop(_) => 2,
            }] += 1;
        }
    }
    assert!(kinds.iter().all(|&k| k > 0), "{name}: stream lacks a frame kind: {kinds:?}");
    for (lane, other) in [("sealed burst", &bursty), ("run_sealed", &graphed)] {
        assert_same_device(&format!("{name}: {lane} {burst}"), &single, other);
    }
}

#[test]
fn sealed_entries_agree_on_every_gallery_program_with_poisoned_streams() {
    let storm = bundle_of(
        "program storm kind any {
           map d : map<u32, u32>[16];
           handler ingress(pkt) {
             let x = 1000 / map_get(d, ipv4.src);
             forward(1);
           }
         }",
    );
    let mut programs = gallery();
    programs.push(("storm", storm));
    for (name, bundle) in &programs {
        let frames = sealed_stream(0x5ea1 ^ name.len() as u64, 200);
        for burst in [1, 3, 64] {
            assert_sealed_entries_agree(name, bundle, &frames, burst);
        }
    }
    // The storm quarantines mid-burst: poison frames never feed the trap
    // window, so it takes 16 *admitted* trapping packets.
    let [mut d] = gallery_devices("storm", &programs.last().expect("storm").1, ExecMode::Bytecode);
    let frames = sealed_stream(0x5ea1 ^ 5, 64);
    let (mut pkts, mut out) = (Vec::new(), Vec::new());
    d.process_sealed_burst(&frames, 0, SimTime::ZERO, &mut pkts, &mut out)
        .expect("processes");
    assert!(d.quarantined() && d.stats().traps == 16, "{:?}", d.stats());
    assert!(d.stats().checksum_drops > 0 && d.stats().parse_traps > 0);
}

proptest! {
    // Arbitrary packet streams and arbitrary burst sizes against the two
    // most stateful gallery programs: the chunked burst path must be
    // indistinguishable from the per-packet loop.
    #[test]
    fn burst_matches_single_on_arbitrary_streams(
        seed in any::<u64>(),
        n in 1usize..80,
        burst in 1usize..300,
    ) {
        for bundle in [
            flexnet::apps::telemetry::heavy_hitter(64, 3).unwrap(),
            flexnet::apps::security::firewall(16).unwrap(),
        ] {
            let pkts = packet_stream(seed, n);
            assert_burst_matches_single(
                &bundle.program.name, &bundle, &pkts, burst, ExecMode::Bytecode,
            );
        }
    }
}

proptest! {
    // Arbitrary packets against the two most stateful gallery programs:
    // heavy_hitter (map + punt) and firewall (table + counter).
    #[test]
    fn bytecode_matches_interpreter_on_arbitrary_packets(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        flags in any::<u8>(),
        payload in 0u32..4096,
        reps in 1usize..8,
    ) {
        for bundle in [
            flexnet::apps::telemetry::heavy_hitter(64, 3).unwrap(),
            flexnet::apps::security::firewall(16).unwrap(),
        ] {
            let mut p = Packet::tcp(1, src, dst, sport, dport, flags);
            p.payload_len = payload;
            // Repeat the same packet so threshold/punt paths can fire.
            let pkts = vec![p; reps];
            assert_modes_agree(&bundle.program.name, &bundle, &pkts);
        }
    }
}

/// A tenant-defined header that comes and goes at runtime: the parser's
/// accept set must follow `add_state`/`remove_state` — including removing
/// a name and adding it back — identically for the interpreter, the
/// single-packet bytecode lane and the burst lane, on packets that carry
/// the header (visible or opaque, with a hidden tail behind it) and on
/// packets the program adds it to or strips it from.
#[test]
fn tenant_header_added_removed_and_readded_at_runtime_agrees_across_engines() {
    let plain = bundle_of("program app kind any { handler ingress(pkt) { forward(0); } }");
    let tenant = bundle_of(
        "header tun { fields { id: 16; tag: 8; } follows udp when udp.dport == 4789; }
         program app kind any {
           counter seen;
           handler ingress(pkt) {
             if (valid(tun)) {
               count(seen);
               if (tun.id == 7) { tun.tag = tun.tag + 1; meta.tun_tag = tun.tag; forward(1); }
               if (tun.id == 9) { remove_header(tun); forward(2); }
               drop();
             }
             if (udp.dport == 4789) { add_header(tun); tun.id = 5; forward(3); }
             forward(0);
           }
         }",
    );
    let packets: Vec<Packet> = (0..96u64)
        .map(|i| {
            let mut p = Packet::udp(i, 1, 2, 3, if i % 4 == 3 { 53 } else { 4789 });
            if i % 3 != 2 {
                p.headers
                    .push(Header::new("tun", [("id", 5 + i % 5), ("tag", i % 200)]));
            }
            if i % 5 == 0 {
                // Behind an opaque `tun`, even a known protocol is payload.
                p.headers.push(Header::tcp(1, 2, 0));
            }
            p
        })
        .collect();

    let mut lanes = [
        (dev(ExecMode::Interpreter, plain.program.kind), 1usize),
        (dev(ExecMode::Bytecode, plain.program.kind), 1),
        (dev(ExecMode::Bytecode, plain.program.kind), 64),
        (dev(ExecMode::Interpreter, plain.program.kind), 64),
    ];
    for (d, _) in lanes.iter_mut() {
        d.install(plain.clone()).expect("installs");
    }
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    // plain → tenant → plain → tenant: add, remove, re-add the same name.
    for (phase, (bundle, visible)) in [(&tenant, true), (&plain, false), (&tenant, true)]
        .into_iter()
        .enumerate()
    {
        let mut seen: Vec<(Vec<ProcessResult>, Vec<Packet>)> = Vec::new();
        let mut next = now;
        for (d, burst) in lanes.iter_mut() {
            let ready = d
                .begin_runtime_reconfig(bundle.clone(), now)
                .expect("reconfig begins")
                .ready_at;
            let mut pkts = packets.clone();
            let mut results = Vec::new();
            for chunk in pkts.chunks_mut(*burst) {
                if *burst == 1 {
                    results.push(d.process(&mut chunk[0], ready).expect("processes"));
                } else {
                    d.process_burst(chunk, ready, &mut out).expect("processes");
                    results.append(&mut out);
                }
            }
            assert_eq!(d.parser().can_parse("tun"), visible, "phase {phase}");
            seen.push((results, pkts));
            next = ready + SimDuration::from_millis(1);
        }
        now = next;
        for lane in &seen[1..] {
            assert_eq!(lane.0, seen[0].0, "phase {phase}: results");
            assert_eq!(lane.1, seen[0].1, "phase {phase}: packets");
        }
        let (results, pkts) = &seen[0];
        if visible {
            // Each branch of the tenant program was taken.
            for port in 0..4 {
                assert!(
                    results.iter().any(|r| r.verdict == Verdict::Forward(port)),
                    "phase {phase}: no packet took port {port}: {:?}",
                    results.iter().map(|r| r.verdict).collect::<Vec<_>>()
                );
            }
            assert!(pkts.iter().any(|p| p.get_field("meta.tun_tag").is_some()));
        } else {
            // Opaque again: untouched and carried through.
            assert_eq!(pkts.len(), packets.len());
            for (after, before) in pkts.iter().zip(&packets) {
                assert_eq!(after.headers, before.headers, "phase {phase}");
            }
        }
    }
    for (d, _) in &lanes[1..] {
        assert_eq!(d.snapshot_state(), lanes[0].0.snapshot_state());
        assert_eq!(d.config_digest(), lanes[0].0.config_digest());
        assert_eq!(d.stats(), lanes[0].0.stats());
    }
}
