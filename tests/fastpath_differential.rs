//! Differential tests for the packet path: the device's one engine, the
//! install-time bytecode VM, must be observationally identical to the
//! reference AST interpreter (`common/oracle.rs`, run in lockstep) — same
//! verdict, same op count (so latency models agree), same packet mutations,
//! same device state, same config digest, same service invocations — after
//! every packet, on every program in the app gallery and on randomized
//! packets.
//!
//! Deterministic sweeps use a pinned xorshift stream (regression seeds à la
//! the chaos suites); the proptest section explores arbitrary packets and
//! records its own regressions file.

use flexnet::prelude::*;
use flexnet_dataplane::device::ProcessResult;
use flexnet_dataplane::table::{KeyMatch, TableEntry};
use flexnet_dataplane::wire::{encode_wire, flip_bits, open_frame, parse_wire, seal_frame};
use flexnet_dataplane::{ForwardingGraph, SandboxConfig};
use flexnet_lang::ast::{ActionCall, MatchKind, TableDecl};
use flexnet_lang::parser::parse_source;
use flexnet_types::{FlexError, Header, Sym, Trap};
use proptest::prelude::*;

#[path = "common/gallery.rs"]
mod gallery_programs;

/// The shared gallery plus the four-row sketch at the benchmark's width,
/// whose rows' hashes share a three-value prefix the VM resumes from.
fn gallery() -> Vec<(&'static str, ProgramBundle)> {
    let mut programs = gallery_programs::gallery();
    let cms = flexnet::apps::telemetry::count_min_sketch(4, 4096).unwrap();
    programs.push(("cms_4096", cms));
    programs
}

#[path = "common/oracle.rs"]
mod oracle;

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

fn dev(kind: flexnet_lang::ast::ProgramKind) -> Device {
    use flexnet_lang::ast::ProgramKind;
    let arch = match kind {
        ProgramKind::Host | ProgramKind::Nic => Architecture::host_default(),
        _ => Architecture::drmt_default(),
    };
    Device::new(NodeId(1), arch, StateEncoding::StatefulTable)
}

/// Installs `bundle` with synthesized table entries under `sandbox` and
/// runs `packets` through it, each checked against the reference.
fn assert_matches_reference(
    name: &str,
    bundle: &ProgramBundle,
    packets: &[Packet],
    sandbox: SandboxConfig,
) {
    let [mut d] = gallery_devices(name, bundle);
    d.set_sandbox(sandbox);
    for (i, pkt) in packets.iter().enumerate() {
        oracle::process(&mut d, &mut pkt.clone(), SimTime::from_millis(i as u64 * 3));
    }
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
        assert_matches_reference(name, &bundle, &pkts, SandboxConfig::default());
    }
}

/// Pinned regression seeds, mirroring the chaos suites' convention: any
/// stream that ever exposed a divergence stays here forever.
#[test]
fn bytecode_matches_interpreter_on_regression_seeds() {
    for seed in [1u64, 42, 0xdead_beef, 0x5eed_cafe] {
        for (name, bundle) in gallery() {
            let pkts = packet_stream(seed, 50);
            assert_matches_reference(name, &bundle, &pkts, SandboxConfig::default());
        }
    }
}

/// Gas sweep: every gallery program under tiny budgets. Exhaustion must be
/// a typed `GasExhausted` trap (fail-closed drop) at the op count the
/// reference reaches — the differential invariant extended to the metering
/// layer.
#[test]
fn gas_exhaustion_is_identical_across_modes_on_every_gallery_program() {
    for (name, bundle) in gallery() {
        for gas in [1u64, 3, 7, 19, 47] {
            let pkts = packet_stream(0x9a5 ^ gas ^ name.len() as u64, 40);
            assert_matches_reference(name, &bundle, &pkts, SandboxConfig { gas_limit: gas });
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
/// packets. The device must trap with the reference's variant, op count,
/// and fail-closed drop — on streams that mix trapping and clean packets.
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
        let mut d = dev(bundle.program.kind);
        d.install(bundle).expect("installs");
        if name == "reg_oob" {
            use flexnet_lang::ast::{StateDecl, StateKind};
            let shrink = flexnet_lang::diff::ReconfigOp::ModifyState(
                StateDecl {
                    name: "r".into(),
                    kind: StateKind::Register { width: 64 },
                    size: 2,
                }
                .into(),
            );
            d.program_mut().unwrap().apply_op(&shrink).expect("shrinks");
        }
        let mut trapped = 0usize;
        for (i, pkt) in packet_stream(0x7a9 ^ name.len() as u64, 80)
            .iter()
            .enumerate()
        {
            let r = oracle::process(&mut d, &mut pkt.clone(), SimTime::from_millis(i as u64));
            if let Some(t) = &r.trap {
                trapped += 1;
                assert_eq!(t.label(), want, "{name}: trap kind, pkt {i}");
                assert_eq!(r.verdict, Verdict::Drop, "{name}: traps fail closed");
            }
        }
        assert!(trapped > 0, "{name}: the stream never hit the trap path");
    }
}

/// A header the parser has no state for is payload, and payload still has
/// bytes: `count` and `pktlen()` see the whole 558-byte frame (UDP plus a
/// trailing `vxlan` header), on the device and in the reference alike, and
/// the packet leaves with its stack and payload as they came.
#[test]
fn a_hidden_header_still_counts_its_bytes() {
    let bundle = bundle_of(
        "program p kind any {
           counter c;
           register r : u64[1];
           handler ingress(pkt) {
             count(c);
             reg_write(r, 0, pktlen());
             forward(1);
           }
         }",
    );
    let mut d = dev(bundle.program.kind);
    assert_eq!(d.arch_class(), flexnet_dataplane::ArchClass::Drmt);
    d.install(bundle).expect("installs");
    let mut pkt = Packet::udp(1, 1, 2, 3, 4789);
    pkt.push_header(Header::new("vxlan", [("vni", 7u64)]));
    assert!(!d.parser().can_parse("vxlan"));
    let sent = pkt.clone();
    assert_eq!(sent.wire_len(), 558);
    let r = oracle::process(&mut d, &mut pkt, SimTime::ZERO);
    assert_eq!(r.verdict, Verdict::Forward(1));
    let state = d.program().expect("installed").state.snapshot();
    assert_eq!(
        state.counters["c"],
        (1, 558),
        "count adds the frame's bytes"
    );
    assert_eq!(
        state.registers["r"],
        [558],
        "pktlen() reads the frame's bytes"
    );
    assert_eq!(
        (stack(&pkt), pkt.payload_len),
        (stack(&sent), sent.payload_len)
    );
}

/// Service invocation: two services of different arities, so a wrong
/// slot → name mapping on the device shows in the invocation log the
/// reference compares after every packet.
#[test]
fn service_invocations_match_the_reference() {
    let svc = bundle_of(
        "program svc kind any {
           service require mig(dst: u32);
           service require report(src: u32, port: u16, len: u32);
           handler ingress(pkt) {
             if (ipv4.src % 2 == 0) { invoke report(ipv4.src, tcp.dport, pktlen()); }
             invoke mig(ipv4.dst);
             forward(1);
           }
         }",
    );
    let mut d = dev(svc.program.kind);
    d.install(svc).expect("installs");
    for (i, pkt) in packet_stream(0x5e7, 40).iter().enumerate() {
        oracle::process(&mut d, &mut pkt.clone(), SimTime::from_millis(i as u64));
    }
}

/// `program` installed on a device, with `key → 1` in map `map`.
fn installed(program: &str, map: &str, key: u64) -> Device {
    let bundle = bundle_of(program);
    let mut d = dev(bundle.program.kind);
    d.install(bundle).expect("installs");
    let state = &mut d.program_mut().expect("installed").state;
    state.map_put_at(state.map_slot(map).expect("map declared"), key, 1);
    d
}

/// A blocklist map, a hit counter and an ACL whose default forwards to 1.
const FW: &str = "program fw kind any {
   map blocked : map<u32, u8>[64];
   counter hits;
   table acl {
     key { ipv4.src : exact; }
     action deny() { count(hits); drop(); }
     action allow(port: u16) { forward(port); }
     default allow(1);
     size 16;
   }
   handler ingress(pkt) {
     if (map_get(blocked, ipv4.src) == 1) { drop(); }
     apply acl;
     forward(1);
   }
 }";

#[test]
fn exec_modes_agree_on_verdict_ops_and_state() {
    let mut d = installed(FW, "blocked", 7);
    let deny = ActionCall {
        action: "deny".into(),
        args: vec![],
    };
    d.add_entry("acl", TableEntry::exact(&[99], deny))
        .expect("entry fits");
    for (id, src) in [(1u64, 99u32), (2, 7), (3, 10)] {
        oracle::process(
            &mut d,
            &mut Packet::tcp(id, src, 20, 1, 80, 0),
            SimTime::ZERO,
        );
    }
}

#[test]
fn gas_exhaustion_drops_and_counts_in_both_modes() {
    let mut d = installed(FW, "blocked", 7);
    d.set_sandbox(SandboxConfig { gas_limit: 3 }); // far below the handler's cost
    let r = oracle::process(&mut d, &mut Packet::tcp(1, 10, 20, 1, 80, 0), SimTime::ZERO);
    assert_eq!(r.verdict, Verdict::Drop, "fail closed");
    assert_eq!(r.trap, Some(Trap::GasExhausted { limit: 3 }));
    assert_eq!((d.stats().traps, d.stats().dropped), (1, 1));
    assert!(!d.quarantined(), "one trap in a tiny window is noise");
}

#[test]
fn burst_bills_exactly_the_poisoned_packet() {
    // One program-trapping packet inside a 256-burst: the trap, the drop,
    // and the window accounting hit index 77 alone; all 255 neighbors keep
    // their verdicts, ops, and clean-window billing — packet for packet
    // what the reference makes of them one by one. The program divides by
    // `1 - map_get`, so it traps iff `ipv4.src` is in the map.
    let sel = "program sel kind any {
       map d : map<u32, u32>[64];
       handler ingress(pkt) {
         let x = 1000 / (1 - map_get(d, ipv4.src));
         forward(1);
       }
     }";
    let [mut d, mut single] = [(); 2].map(|()| installed(sel, "d", 77));
    let pkt = |i: u64| Packet::tcp(i, i as u32, 9, 1, 80, 0);
    let mut burst: Vec<Packet> = (0..256).map(pkt).collect();
    let mut graph = ForwardingGraph::standard();
    let out = &graph
        .run(&mut d, &mut burst, SimTime::ZERO)
        .expect("processes")
        .results;
    let singles: Vec<ProcessResult> = (0..256)
        .map(|i| oracle::process(&mut single, &mut pkt(i), SimTime::ZERO))
        .collect();
    assert_eq!(*out, singles);
    for (i, r) in out.iter().enumerate() {
        if i == 77 {
            assert_eq!(r.verdict, Verdict::Drop);
            assert!(
                matches!(r.trap, Some(Trap::DivisionByZero { .. })),
                "{:?}",
                r.trap
            );
        } else {
            assert_eq!(
                (r.verdict, &r.trap),
                (Verdict::Forward(1), &None),
                "neighbor {i}"
            );
            assert_eq!(r.ops, out[0].ops, "neighbor {i} ops uniform");
        }
    }
    let s = d.stats();
    assert_eq!((s.processed, s.traps, s.dropped), (256, 1, 1));
    assert!(!d.quarantined(), "one trap in 256 is no storm");
}

// ---------------------------------------------------------------------------
// Burst differential: `ForwardingGraph::run` must be observationally
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

/// Drives `packets` through two identically configured devices — one via
/// per-packet [`Device::process`] checked against the reference, one via
/// [`ForwardingGraph::run`] in chunks of `burst` (at burst 1 that is
/// graph-of-1 ≡ `process`) — and requires identical observable behaviour. Each chunk shares one timestamp on every path,
/// mirroring how a burst shares its `now`.
fn assert_burst_matches_single(
    name: &str,
    bundle: &ProgramBundle,
    packets: &[Packet],
    burst: usize,
) {
    let [mut single, mut graphed] = gallery_devices(name, bundle);
    let mut graph = ForwardingGraph::standard();
    for (ci, chunk) in packets.chunks(burst.max(1)).enumerate() {
        let now = SimTime::from_millis(ci as u64 * 3);
        let mut singles = Vec::with_capacity(chunk.len());
        let mut single_pkts = Vec::with_capacity(chunk.len());
        for pkt in chunk {
            let mut p = pkt.clone();
            singles.push(oracle::process(&mut single, &mut p, now));
            single_pkts.push(p);
        }
        let mut graph_pkts: Vec<Packet> = chunk.to_vec();
        let lanes = graph
            .run(&mut graphed, &mut graph_pkts, now)
            .expect("processes");
        assert_eq!(
            lanes.results, singles,
            "{name}: graph burst {burst}, chunk {ci} results"
        );
        assert_eq!(
            graph_pkts, single_pkts,
            "{name}: graph burst {burst}, chunk {ci} packet mutations"
        );
    }
    assert_same_device(&format!("{name}: graph {burst}"), &single, &graphed);
}

/// Identically configured devices for one gallery program: installed,
/// with the same synthesized table entries.
fn gallery_devices<const N: usize>(name: &str, bundle: &ProgramBundle) -> [Device; N] {
    std::array::from_fn(|_| {
        let mut d = dev(bundle.program.kind);
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
    assert_eq!(
        a.snapshot_state(),
        b.snapshot_state(),
        "{what} logical state"
    );
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
            assert_burst_matches_single(name, &bundle, &pkts, burst);
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
        assert_burst_matches_single("storm", &storm, &pkts, burst);
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
            assert_burst_matches_single(&bundle.program.name, bundle, &pkts, burst);
        }
    }
}

/// Gas-boundary bursts: tiny budgets make exhaustion land mid-burst; the
/// typed `GasExhausted` trap and its op count must be chunk-invariant.
#[test]
fn burst_matches_single_under_tiny_gas_budgets() {
    for (name, bundle) in [
        (
            "cms",
            flexnet::apps::telemetry::count_min_sketch(4, 1024).unwrap(),
        ),
        ("firewall", flexnet::apps::security::firewall(64).unwrap()),
    ] {
        for gas in [3u64, 19] {
            let pkts = packet_stream(0x9a5b ^ gas, 90);
            for burst in BURST_SIZES {
                let mut single = dev(bundle.program.kind);
                let mut bursty = dev(bundle.program.kind);
                let sandbox = SandboxConfig { gas_limit: gas };
                single.set_sandbox(sandbox);
                bursty.set_sandbox(sandbox);
                single.install(bundle.clone()).expect("installs");
                bursty.install(bundle.clone()).expect("installs");
                let mut graph = ForwardingGraph::standard();
                for (ci, chunk) in pkts.chunks(burst).enumerate() {
                    let now = SimTime::from_millis(ci as u64);
                    let singles: Vec<ProcessResult> = chunk
                        .iter()
                        .map(|p| oracle::process(&mut single, &mut p.clone(), now))
                        .collect();
                    let mut burst_pkts: Vec<Packet> = chunk.to_vec();
                    let lanes = graph
                        .run(&mut bursty, &mut burst_pkts, now)
                        .expect("processes");
                    assert_eq!(
                        lanes.results, singles,
                        "{name}: gas {gas} burst {burst} chunk {ci}"
                    );
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
/// slot would pick the wrong entry. Single packets must match the
/// reference, and every burst size must match single packets.
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
    for burst in BURST_SIZES {
        assert_burst_matches_single("mutate", &mutate, &pkts, burst);
    }
    // The stream takes every branch, and the table both hits and misses.
    let [mut d] = gallery_devices("mutate", &mutate);
    let mut verdicts = Vec::new();
    for p in &pkts {
        let mut p = p.clone();
        let verdict = d.process(&mut p, SimTime::ZERO).expect("processes").verdict;
        if !verdicts.contains(&verdict) {
            verdicts.push(verdict);
        }
        let src = p.get_field("ipv4.src").expect("ipv4");
        let tun = p.header_sym(Sym::intern("tun")).is_some();
        assert_eq!(tun, src % 4 == 0 && src % 8 != 4, "src {src}");
        assert_eq!(p.header_sym(Sym::TCP).is_some(), src % 4 != 1, "src {src}");
        assert!(
            p.header_sym(Sym::VLAN).is_none(),
            "a store never creates a header"
        );
    }
    assert!(verdicts.len() > 2, "only {verdicts:?}");
}

// ---------------------------------------------------------------------------
// Sealed differential: the sealed-frame entry is admission (checksum, then
// parse) in front of the one packet path, so on streams that mix clean
// frames, frames corrupted in flight and validly sealed garbage it must be
// indistinguishable from opening and parsing each frame by hand and running
// the packet through the reference-checked `process`.
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

/// Feeds `frames` to two identically configured devices. One takes each
/// frame through [`Device::process_sealed_bytes`]. The other opens and
/// parses each frame itself and runs an admitted packet through
/// `oracle::process`; it hands a poison frame to `process_sealed_bytes` to
/// be billed. Requires the same result per frame, the same survivors and the
/// same device afterwards.
fn assert_sealed_entry_matches_admission(name: &str, bundle: &ProgramBundle, frames: &[Vec<u8>]) {
    let [mut sealed, mut twin] = gallery_devices(name, bundle);
    let mut kinds = [0usize; 3];
    for (i, frame) in frames.iter().enumerate() {
        let (id, now) = (i as u64, SimTime::from_millis(i as u64 / 8 * 3));
        let got = sealed.process_sealed_bytes(frame, id, now);
        let want = match open_frame(frame).and_then(|body| parse_wire(body, id)) {
            Ok(mut pkt) => Ok(oracle::process(&mut twin, &mut pkt, now)),
            Err(_) => twin.process_sealed_bytes(frame, id, now),
        };
        assert_eq!(got, want, "{name}: frame {i}");
        kinds[match &got {
            Err(FlexError::ChecksumMismatch { .. }) => 1,
            Ok(r) if matches!(r.trap, Some(Trap::MalformedPacket { .. })) => 2,
            Ok(_) => 0,
            Err(e) => panic!("{name}: frame {i}: wire entry failed: {e}"),
        }] += 1;
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "{name}: stream lacks a frame kind: {kinds:?}"
    );
    assert_same_device(&format!("{name}: sealed"), &sealed, &twin);
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
        assert_sealed_entry_matches_admission(name, bundle, &frames);
    }
    // The storm quarantines: poison frames never feed the trap window, so
    // it takes 16 *admitted* trapping packets.
    let [mut d] = gallery_devices("storm", &programs.last().expect("storm").1);
    for (i, frame) in sealed_stream(0x5ea1 ^ 5, 64).iter().enumerate() {
        let _ = d.process_sealed_bytes(frame, i as u64, SimTime::ZERO);
    }
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
            assert_burst_matches_single(&bundle.program.name, &bundle, &pkts, burst);
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
            let name = &bundle.program.name;
            assert_matches_reference(name, &bundle, &pkts, SandboxConfig::default());
        }
    }
}

/// A tenant-defined header that comes and goes at runtime: the parser's
/// accept set must follow `add_state`/`remove_state` — including removing
/// a name and adding it back — identically for the reference, the
/// single-packet lane and the burst lane, on packets that carry
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
                p.push_header(Header::new("tun", [("id", 5 + i % 5), ("tag", i % 200)]));
            }
            if i % 5 == 0 {
                // Behind an opaque `tun`, even a known protocol is payload.
                p.push_header(Header::tcp(1, 2, 0));
            }
            p
        })
        .collect();

    let mut lanes = [
        (dev(plain.program.kind), 1usize),
        (dev(plain.program.kind), 64),
    ];
    for (d, _) in lanes.iter_mut() {
        d.install(plain.clone()).expect("installs");
    }
    let mut now = SimTime::ZERO;
    let mut graph = ForwardingGraph::standard();
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
                    results.push(oracle::process(d, &mut chunk[0], ready));
                } else {
                    let lanes = graph.run(d, chunk, ready).expect("processes");
                    results.extend_from_slice(&lanes.results);
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
                assert_eq!(stack(after), stack(before), "phase {phase}");
            }
        }
    }
    for (d, _) in &lanes[1..] {
        assert_eq!(d.snapshot_state(), lanes[0].0.snapshot_state());
        assert_eq!(d.config_digest(), lanes[0].0.config_digest());
        assert_eq!(d.stats(), lanes[0].0.stats());
    }
}

/// A packet's header stack, for comparison.
fn stack(p: &Packet) -> Vec<flexnet_types::HeaderRef<'_>> {
    p.headers().collect()
}
