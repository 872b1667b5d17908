//! E1 — Hitless runtime reconfiguration vs. compile-time reflash.
//!
//! Paper §2: "While keeping the device live, match/action tables can be
//! added and removed on-the-fly without packet loss. … Program changes
//! complete within a second, and during this transition, packets are
//! either processed by the new program or old one in a consistent manner."
//!
//! Part A drives live traffic through a switch and applies the same
//! program change three ways (hitless, unsafe-in-place ablation,
//! drain/reflash), measuring loss and transition time.
//!
//! Part B probes consistency: a change whose *partially-applied* state is
//! behaviourally distinguishable (two table defaults change together).
//! Every probe packet's verdict must match pure-old or pure-new semantics;
//! in-place application produces verdicts matching neither.

use flexnet::prelude::*;
use flexnet_bench::{bundle, header, row, sep, switch_scenario};

fn old_program() -> ProgramBundle {
    flexnet::apps::routing::l3_router(64).unwrap()
}

fn new_program() -> ProgramBundle {
    bundle(
        "program l3_router kind switch {
           counter routed;
           counter audited;
           map seen : map<u32, u8>[1024];
           table routes {
             key { ipv4.dst : lpm; }
             action out(port: u16) { count(routed); forward(port); }
             action blackhole() { drop(); }
             size 64;
           }
           handler ingress(pkt) {
             count(audited);
             map_put(seen, ipv4.src, 1);
             if (valid(ipv4)) {
               if (ipv4.ttl == 0) { drop(); }
               ipv4.ttl = ipv4.ttl - 1;
               apply routes;
             }
             forward(0);
           }
         }",
    )
}

fn part_a() {
    println!("\n--- Part A: loss and transition time (10 kpps CBR, one change) ---\n");
    row(&[
        "mode",
        "ops",
        "transition",
        "lost",
        "disruption",
        "versions",
    ]);
    sep(6);

    for mode in ["runtime-hitless", "unsafe-inplace", "drain-reflash"] {
        let secs = if mode == "drain-reflash" { 40 } else { 4 };
        let pps = if mode == "drain-reflash" {
            1_000
        } else {
            10_000
        };
        let (mut sim, sw) = switch_scenario(pps, secs, old_program());
        let cmd = match mode {
            "runtime-hitless" => Command::RuntimeReconfig {
                node: sw,
                bundle: new_program(),
            },
            "unsafe-inplace" => Command::UnsafeReconfig {
                node: sw,
                bundle: new_program(),
            },
            _ => Command::Reflash {
                node: sw,
                bundle: new_program(),
            },
        };
        sim.schedule(SimTime::from_secs(2), cmd);
        sim.run_to_completion();
        let (_, _, rep) = &sim.reconfig_reports[0];
        row(&[
            mode,
            &rep.ops.to_string(),
            &rep.duration.to_string(),
            &format!("{}/{}", sim.metrics.total_lost(), sim.metrics.sent),
            &sim.metrics
                .disruption_window()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "none".into()),
            &format!("{:?}", sim.metrics.versions_seen(sw)),
        ]);
    }
}

/// Consistency probe programs: two chained tables whose defaults change in
/// one update. Old: tag=1, out=tag (port 1). New: tag=3, out=tag+10
/// (port 13). Any other observed port means a mixed program.
fn probe_old() -> ProgramBundle {
    bundle(
        "program probe kind any {
           table set_tag {
             key { ipv4.proto : exact; }
             action tag(v: u32) { meta.tag = v; }
             default tag(1);
             size 4;
           }
           table emit {
             key { ipv4.proto : exact; }
             action out() { forward(meta.tag); }
             default out();
             size 4;
           }
           handler ingress(pkt) { apply set_tag; apply emit; forward(0); }
         }",
    )
}

fn probe_new() -> ProgramBundle {
    bundle(
        "program probe kind any {
           table set_tag {
             key { ipv4.proto : exact; }
             action tag(v: u32) { meta.tag = v; }
             default tag(3);
             size 4;
           }
           table emit {
             key { ipv4.proto : exact; }
             action out() { forward(meta.tag + 10); }
             default out();
             size 4;
           }
           handler ingress(pkt) { apply set_tag; apply emit; forward(0); }
         }",
    )
}

fn count_mixed(mode: &str) -> (u64, u64) {
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(probe_old()).unwrap();
    let t0 = SimTime::from_secs(1);
    let rep = match mode {
        "runtime-hitless" => dev.begin_runtime_reconfig(probe_new(), t0).unwrap(),
        _ => dev.begin_unsafe_inplace(probe_new(), t0).unwrap(),
    };
    // Probe densely across the transition window.
    let total = 2_000u64;
    let span = rep.duration.as_nanos().max(1);
    let mut mixed = 0u64;
    for i in 0..total {
        let at = t0 + SimDuration::from_nanos(span * i / total + 1);
        let mut p = Packet::tcp(i, 1, 2, 3, 4, 0);
        let verdict = dev.process(&mut p, at).unwrap().verdict;
        match verdict {
            Verdict::Forward(1) | Verdict::Forward(13) => {}
            _ => mixed += 1,
        }
    }
    (mixed, total)
}

fn part_b() {
    println!("\n--- Part B: consistency during the transition (2000 probes) ---\n");
    row(&["mode", "probes", "mixed-program", "consistent"]);
    sep(4);
    for mode in ["runtime-hitless", "unsafe-inplace"] {
        let (mixed, total) = count_mixed(mode);
        row(&[
            mode,
            &total.to_string(),
            &mixed.to_string(),
            if mixed == 0 {
                "yes (old XOR new)"
            } else {
                "VIOLATED"
            },
        ]);
    }
}

fn main() {
    header(
        "E1",
        "hitless runtime reconfiguration",
        "zero loss, <1 s transition, packets see exactly old or new program (paper \u{a7}2)",
    );
    part_a();
    part_b();
    println!(
        "\nshape check: hitless loses 0 packets in <1 s; the reflash baseline \
         loses tens of seconds of traffic; disabling the atomic flip (ablation) \
         produces mixed-program packets."
    );
}
