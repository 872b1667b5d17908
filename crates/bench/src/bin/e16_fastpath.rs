//! E16 — fast packet path: slot-resolved bytecode vs. the reference
//! interpreter, indexed vs. scanned table lookups, and parallel seed
//! sweeps.
//!
//! The paper's premise is that runtime reprogramming happens *around* a
//! fast path, not in it. This harness measures the three levers that keep
//! the simulated fast path fast — the install-time bytecode image (no
//! per-packet name resolution), the exact-match hash index (no per-packet
//! entry scan), and `par_sweep` over the chaos harness seeds — and writes
//! the results to `BENCH_fastpath.json` so future PRs have a perf
//! trajectory to regress against. Exits non-zero if the bytecode path is
//! not at least 2× the interpreter on the E2 dynamic-apps workload.
//!
//! Usage: `e16_fastpath [packets] [sweep_seeds]` (defaults 200000, 24)

use std::sync::Arc;
use std::time::Instant;

use flexnet::prelude::*;
use flexnet_bench::{bundle, header, row, sep, times};
use flexnet_bench::suites::canary;
use flexnet_bench::Arm;
use flexnet_dataplane::device::ExecMode;
use flexnet_dataplane::table::{TableEntry, TableInstance};
use flexnet_dataplane::SandboxConfig;
use flexnet_lang::ast::ActionCall;

/// The E2 dynamic-apps workload: a 4-row count-min sketch (register reads
/// and writes, hashing, a counter bump on every packet).
fn cms_workload() -> ProgramBundle {
    flexnet::apps::telemetry::count_min_sketch(4, 4096).expect("cms builds")
}

/// A table-heavy workload: per-packet ACL apply plus a map probe.
fn acl_workload() -> ProgramBundle {
    bundle(
        "program fw kind any {
           map blocked : map<u32, u8>[1024];
           counter hits;
           table acl {
             key { ipv4.src : exact; }
             action deny() { count(hits); drop(); }
             action allow(port: u16) { forward(port); }
             default allow(1);
             size 4096;
           }
           handler ingress(pkt) {
             if (map_get(blocked, ipv4.src) == 1) { drop(); }
             apply acl;
             forward(1);
           }
         }",
    )
}

fn new_dev(mode: ExecMode) -> Device {
    let mut d = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    d.set_exec_mode(mode);
    d
}

/// Drives `packets` synthetic TCP packets through a freshly installed
/// device and returns (wall seconds, op count) — the op count doubles as a
/// black box so the loop cannot be optimized away.
fn drive(mode: ExecMode, workload: &ProgramBundle, entries: u64, packets: u64) -> (f64, u64) {
    drive_sandboxed(mode, workload, entries, packets, SandboxConfig::default())
}

/// [`drive`] under an explicit sandbox, so the metering overhead can be
/// measured as metered-vs-unmetered on otherwise identical runs.
fn drive_sandboxed(
    mode: ExecMode,
    workload: &ProgramBundle,
    entries: u64,
    packets: u64,
    sandbox: SandboxConfig,
) -> (f64, u64) {
    let mut dev = new_dev(mode);
    dev.set_sandbox(sandbox);
    dev.install(workload.clone()).expect("workload installs");
    for k in 0..entries {
        dev.add_entry(
            "acl",
            TableEntry::exact(
                &[1000 + k],
                ActionCall {
                    action: "deny".into(),
                    args: vec![],
                },
            ),
        )
        .expect("entry fits");
    }
    // Packets are built outside the timed region (header construction is
    // not part of the device fast path) and reused round-robin.
    let mut ring: Vec<Packet> = (0..251u64)
        .map(|id| Packet::tcp(id, (id % 251) as u32, 20, 1, 80, 0))
        .collect();
    // Warm up: build the image (bytecode) and fault in state either way.
    let mut ops = 0u64;
    for id in 0..1000u64 {
        let pkt = &mut ring[(id % 251) as usize];
        ops += dev.process(pkt, SimTime::ZERO).expect("processes").ops;
    }
    // Best-of-reps, for the same reason as `drive_burst`: a throttled
    // host can halve the apparent pps of whichever side runs second, and
    // the metering gate compares the two sides.
    let mut best = f64::INFINITY;
    let mut timed_ops = 0u64;
    for _ in 0..3 {
        timed_ops = 0;
        let start = Instant::now();
        for id in 0..packets {
            let pkt = &mut ring[(id % 251) as usize];
            timed_ops += dev.process(pkt, SimTime::ZERO).expect("processes").ops;
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, ops + timed_ops)
}

/// Times `packets` packets at burst size `burst` on the bytecode engine:
/// burst 1 is the legacy per-packet [`Device::process`] entry; larger
/// bursts run [`Device::process_burst`] through the sim sweep driver
/// ([`flexnet_sim::BurstDriver`], zero steady-state allocations). Returns
/// (wall seconds, total ops) — the op count is the optimization black box
/// *and* the cross-burst equivalence witness.
fn drive_burst(workload: &ProgramBundle, entries: u64, packets: u64, burst: usize) -> (f64, u64) {
    let mut dev = new_dev(ExecMode::Bytecode);
    dev.install(workload.clone()).expect("workload installs");
    for k in 0..entries {
        dev.add_entry(
            "acl",
            TableEntry::exact(
                &[1000 + k],
                ActionCall {
                    action: "deny".into(),
                    args: vec![],
                },
            ),
        )
        .expect("entry fits");
    }
    let ring: Vec<Packet> = (0..1024u64)
        .map(|id| Packet::tcp(id, (id % 251) as u32, 20, 1, 80, 0))
        .collect();
    // Best-of-reps: the timed region is repeated and the fastest rep
    // reported. Single-shot timings on a thermally-throttled host swing
    // +-40% between cases, which is frequency-scaling noise, not packet
    // cost; the minimum is the honest estimate of per-packet work.
    const REPS: usize = 5;
    if burst <= 1 {
        let mut ring = ring;
        // Warm up one full ring pass (image build + state fault-in).
        for id in 0..1024u64 {
            let pkt = &mut ring[(id % 1024) as usize];
            dev.process(pkt, SimTime::ZERO).expect("processes");
            pkt.trace.clear();
        }
        let mut best = f64::INFINITY;
        let mut ops = 0u64;
        for _ in 0..REPS {
            ops = 0;
            let start = Instant::now();
            for id in 0..packets {
                let pkt = &mut ring[(id % 1024) as usize];
                ops += dev.process(pkt, SimTime::ZERO).expect("processes").ops;
                pkt.trace.clear();
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        (best, ops)
    } else {
        let mut drv = flexnet_sim::BurstDriver::new(ring, burst);
        drv.pump(&mut dev, 1024, SimTime::ZERO).expect("warmup pump");
        let mut best = f64::INFINITY;
        let mut ops = 0u64;
        for _ in 0..REPS {
            let start = Instant::now();
            let totals = drv.pump(&mut dev, packets, SimTime::ZERO).expect("pump");
            best = best.min(start.elapsed().as_secs_f64());
            ops = totals.ops;
        }
        (best, ops)
    }
}

/// The legacy table lookup this PR replaced: filter every entry against
/// the keys, take the max-rank match. Kept here as the benchmark baseline.
fn scan_lookup<'a>(entries: &'a [TableEntry], keys: &[u64]) -> Option<&'a TableEntry> {
    entries
        .iter()
        .filter(|e| {
            e.matches.len() == keys.len()
                && e.matches.iter().zip(keys).all(|(m, k)| m.matches(*k))
        })
        .max_by_key(|e| e.priority)
}

/// Builds an all-exact single-key ACL table with `size` entries.
fn exact_table(size: u64) -> TableInstance {
    let prog = acl_workload();
    let mut decl = prog.program.tables[0].clone();
    let grown = size.max(decl.size);
    Arc::make_mut(&mut decl).size = grown;
    let mut t = TableInstance::new(decl);
    for k in 0..size {
        t.insert(TableEntry::exact(
            &[k],
            ActionCall {
                action: "allow".into(),
                args: vec![k % 65536],
            },
        ))
        .expect("entry fits");
    }
    t
}

/// Times `lookups` probes of a `size`-entry exact table, indexed and
/// scanned; returns (indexed ns/lookup, scanned ns/lookup).
fn time_lookups(size: u64, lookups: u64) -> (f64, f64) {
    let t = exact_table(size);
    let mut rng = 0x9e3779b97f4a7c15u64;
    let mut step = |m: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % m
    };
    let keys: Vec<u64> = (0..lookups).map(|_| step(size)).collect();
    let mut hits = 0u64;
    let start = Instant::now();
    for k in &keys {
        hits += t.lookup(&[*k]).is_some() as u64;
    }
    let indexed = start.elapsed().as_secs_f64() * 1e9 / lookups as f64;
    let mut scan_hits = 0u64;
    let start = Instant::now();
    for k in &keys {
        scan_hits += scan_lookup(&t.entries, &[*k]).is_some() as u64;
    }
    let scanned = start.elapsed().as_secs_f64() * 1e9 / lookups as f64;
    assert_eq!(hits, scan_hits, "index and scan must agree");
    assert_eq!(hits, lookups, "all probed keys are installed");
    (indexed, scanned)
}

/// One e15-style sweep seed under an explicit execution mode: a CBR flow
/// through a single switch running the sketch, to completion.
fn sim_seed(seed: u64, mode: ExecMode) -> u64 {
    let (topo, sw, hosts) = Topology::single_switch(2);
    let mut sim = Simulation::new(topo);
    for id in sim.topo.node_ids() {
        sim.topo.node_mut(id).expect("node exists").device.set_exec_mode(mode);
    }
    let _ = sw;
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: cms_workload(),
        },
    );
    sim.load(generate(
        &[FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            5_000,
            SimTime::from_millis(1),
            SimDuration::from_secs(1),
        )],
        seed,
    ));
    sim.run_to_completion();
    sim.metrics.delivered
}

fn main() {
    let mut args = std::env::args().skip(1);
    let packets: u64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);
    let sweep_seeds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(24);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    header(
        "E16",
        "fast packet path: bytecode, indexed tables, parallel sweeps",
        "runtime reprogramming must not slow the data plane — the fast \
         path is compiled once at install/flip time, not interpreted",
    );
    println!("config: {packets} packets/run, {sweep_seeds} sweep seeds, {workers} workers\n");

    // --- Part A: packets/sec, interpreter vs bytecode -------------------
    println!("--- Part A: packet path (install-time bytecode vs AST interpreter) ---\n");
    row(&["workload", "interp pps", "bytecode pps", "speedup"]);
    sep(4);
    let mut pps = Vec::new();
    for (label, workload, entries) in [
        ("cms (E2 apps)", cms_workload(), 0u64),
        ("acl firewall", acl_workload(), 512),
    ] {
        let (ti, oi) = drive(ExecMode::Interpreter, &workload, entries, packets);
        let (tb, ob) = drive(ExecMode::Bytecode, &workload, entries, packets);
        assert_eq!(oi, ob, "modes must agree on op counts ({label})");
        let (ipps, bpps) = (packets as f64 / ti, packets as f64 / tb);
        row(&[
            label,
            &format!("{ipps:.0}"),
            &format!("{bpps:.0}"),
            &times(bpps, ipps),
        ]);
        pps.push((label, ipps, bpps));
    }

    // --- Part B: table lookup latency vs size ---------------------------
    println!("\n--- Part B: exact-match lookup, hash index vs legacy entry scan ---\n");
    row(&["entries", "scan ns/op", "indexed ns/op", "speedup"]);
    sep(4);
    let mut lookup_rows = Vec::new();
    for size in [16u64, 256, 4096, 32_768] {
        let probes = 200_000u64.min(40_000_000 / size.max(1)).max(2_000);
        let (indexed, scanned) = time_lookups(size, probes);
        row(&[
            &size.to_string(),
            &format!("{scanned:.0}"),
            &format!("{indexed:.0}"),
            &times(scanned, indexed),
        ]);
        lookup_rows.push((size, scanned, indexed));
    }

    // --- Part C: sweep wall-clock ---------------------------------------
    // C1: the shipped configuration (bytecode + par_sweep) against the
    // pre-PR one (interpreter + sequential loop) on a seedable sim sweep.
    println!("\n--- Part C: seed sweep wall-clock ---\n");
    let start = Instant::now();
    let serial: u64 = (0..sweep_seeds)
        .map(|s| sim_seed(s, ExecMode::Interpreter))
        .sum();
    let sweep_before = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parallel: u64 = flexnet_bench::par_sweep(sweep_seeds, |s| sim_seed(s, ExecMode::Bytecode))
        .into_iter()
        .sum();
    let sweep_after = start.elapsed().as_secs_f64();
    assert_eq!(serial, parallel, "sweep results must not depend on the path");
    row(&["sweep", "before (s)", "after (s)", "speedup"]);
    sep(4);
    row(&[
        "sim sweep",
        &format!("{sweep_before:.2}"),
        &format!("{sweep_after:.2}"),
        &times(sweep_before, sweep_after),
    ]);

    // C2: the real e15 canary harness, sequential vs par_sweep (both on
    // the shipped bytecode path — isolates the worker-pool contribution).
    let e15_seeds = sweep_seeds.min(12);
    let start = Instant::now();
    let serial_ok = (0..e15_seeds)
        .map(|s| canary::run(s, Arm::Protected))
        .filter(|r| r.is_ok())
        .count();
    let e15_serial = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let par_ok = flexnet_bench::par_sweep(e15_seeds, |s| canary::run(s, Arm::Protected))
        .into_iter()
        .filter(|r| r.is_ok())
        .count();
    let e15_par = start.elapsed().as_secs_f64();
    assert_eq!(serial_ok, par_ok, "par_sweep must not change outcomes");
    row(&[
        "e15 canary",
        &format!("{e15_serial:.2}"),
        &format!("{e15_par:.2}"),
        &times(e15_serial, e15_par),
    ]);

    // --- Part D: gas-metering overhead ----------------------------------
    // The shipped configuration meters every packet (default gas budget);
    // this isolates what that costs against an unmetered device. The fast
    // path must keep >=90% of its unmetered throughput.
    println!("\n--- Part D: gas metering overhead (metered vs unmetered) ---\n");
    row(&["workload", "mode", "unmetered pps", "metered pps", "kept"]);
    sep(5);
    let mut metering_rows: Vec<(&str, &str, f64, f64)> = Vec::new();
    for (label, workload, entries) in [
        ("cms (E2 apps)", cms_workload(), 0u64),
        ("acl firewall", acl_workload(), 512),
    ] {
        for (mode, mode_label) in [
            (ExecMode::Interpreter, "interp"),
            (ExecMode::Bytecode, "bytecode"),
        ] {
            let (tu, ou) = drive_sandboxed(
                mode,
                &workload,
                entries,
                packets,
                SandboxConfig::unmetered(),
            );
            let (tm, om) = drive_sandboxed(
                mode,
                &workload,
                entries,
                packets,
                SandboxConfig::default(),
            );
            assert_eq!(ou, om, "metering must not change op counts ({label})");
            let (upps, mpps) = (packets as f64 / tu, packets as f64 / tm);
            row(&[
                label,
                mode_label,
                &format!("{upps:.0}"),
                &format!("{mpps:.0}"),
                &format!("{:.0}%", 100.0 * mpps / upps),
            ]);
            metering_rows.push((label, mode_label, upps, mpps));
        }
    }

    // --- Part E: burst scaling (forwarding-graph packet vectors) --------
    // The graph-structured hot path amortizes handler resolution, VM frame
    // storage, and environment setup across each packet vector; a vector
    // must not be slower per packet than the per-packet entry.
    println!("\n--- Part E: burst scaling (process_burst packet vectors) ---\n");
    row(&["workload", "burst", "pps", "vs burst 1"]);
    sep(4);
    const BURSTS: [usize; 4] = [1, 16, 64, 256];
    let mut burst_rows: Vec<(&str, Vec<(usize, f64)>)> = Vec::new();
    for (label, workload, entries) in [
        ("cms (E2 apps)", cms_workload(), 0u64),
        ("acl firewall", acl_workload(), 512),
    ] {
        let mut rows = Vec::new();
        let mut base_ops = None;
        for burst in BURSTS {
            let (t, ops) = drive_burst(&workload, entries, packets, burst);
            match base_ops {
                None => base_ops = Some(ops),
                Some(o) => assert_eq!(
                    o, ops,
                    "burst {burst} must execute the same ops as burst 1 ({label})"
                ),
            }
            let bpps = packets as f64 / t;
            let base = rows.first().map_or(bpps, |&(_, b)| b);
            row(&[
                label,
                &burst.to_string(),
                &format!("{bpps:.0}"),
                &times(bpps, base),
            ]);
            rows.push((burst, bpps));
        }
        burst_rows.push((label, rows));
    }

    // --- BENCH_fastpath.json --------------------------------------------
    let (_, cms_ipps, cms_bpps) = pps[0];
    let cms_speedup = cms_bpps / cms_ipps;
    let sweep_speedup = sweep_before / sweep_after;
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"e16_fastpath\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"packets\": {packets}, \"sweep_seeds\": {sweep_seeds}, \"workers\": {workers}}},\n"
    ));
    json.push_str("  \"packet_path\": [\n");
    for (i, (label, ipps, bpps)) in pps.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{label}\", \"interp_pps\": {ipps:.0}, \"bytecode_pps\": {bpps:.0}, \"speedup\": {:.2}}}{}\n",
            bpps / ipps,
            if i + 1 < pps.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"table_lookup\": [\n");
    for (i, (size, scanned, indexed)) in lookup_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"entries\": {size}, \"scan_ns\": {scanned:.1}, \"indexed_ns\": {indexed:.1}, \"speedup\": {:.2}}}{}\n",
            scanned / indexed,
            if i + 1 < lookup_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"metering\": [\n");
    for (i, (label, mode, upps, mpps)) in metering_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{label}\", \"mode\": \"{mode}\", \"unmetered_pps\": {upps:.0}, \"metered_pps\": {mpps:.0}, \"kept\": {:.3}}}{}\n",
            mpps / upps,
            if i + 1 < metering_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"burst_scaling\": [\n");
    for (i, (label, rows)) in burst_rows.iter().enumerate() {
        let base = rows.first().map_or(1.0, |&(_, b)| b);
        let last = rows.last().map_or(base, |&(_, b)| b);
        let points: Vec<String> = rows
            .iter()
            .map(|(b, p)| format!("{{\"burst\": {b}, \"pps\": {p:.0}}}"))
            .collect();
        json.push_str(&format!(
            "    {{\"workload\": \"{label}\", \"points\": [{}], \"speedup_256_vs_1\": {:.2}}}{}\n",
            points.join(", "),
            last / base,
            if i + 1 < burst_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sweep\": {{\"seeds\": {sweep_seeds}, \"workers\": {workers}, \
         \"before_interp_serial_s\": {sweep_before:.3}, \"after_bytecode_parallel_s\": {sweep_after:.3}, \
         \"speedup\": {sweep_speedup:.2}, \
         \"e15_seeds\": {e15_seeds}, \"e15_serial_s\": {e15_serial:.3}, \"e15_parallel_s\": {e15_par:.3}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_fastpath.json", &json).expect("write BENCH_fastpath.json");
    println!(
        "\nwrote BENCH_fastpath.json (cms speedup {cms_speedup:.2}x, \
         sweep speedup {sweep_speedup:.2}x on {workers} worker(s))"
    );

    if cms_speedup < 2.0 {
        eprintln!("FAIL: bytecode speedup {cms_speedup:.2}x < 2x on the E2 workload");
        std::process::exit(1);
    }
    // The metering gate: the sandboxed fast path keeps >=90% of its
    // unmetered throughput on every workload.
    for (label, mode, upps, mpps) in &metering_rows {
        let kept = mpps / upps;
        if *mode == "bytecode" && kept < 0.90 {
            eprintln!(
                "FAIL: gas metering keeps only {:.0}% of unmetered pps on {label} ({mode})",
                100.0 * kept
            );
            std::process::exit(1);
        }
    }
    // The burst gate: a packet vector must not cost more per packet than
    // the single-packet entry, on either workload. (How *much* faster it is
    // measures what the single-packet lane pays per field access — a cost
    // of that lane, not a property of the vector path to defend.) Two
    // best-of-5 timings of equal work differ by a few percent on a shared
    // runner, so "slower" means by more than 10 %.
    for (label, rows) in &burst_rows {
        let base = rows.first().map_or(1.0, |&(_, b)| b);
        let last = rows.last().map_or(base, |&(_, b)| b);
        let ratio = last / base;
        if ratio < 0.9 {
            eprintln!("FAIL: burst-256 is slower than burst-1 on {label} ({ratio:.2}x)");
            std::process::exit(1);
        }
        println!("burst gate: {label} burst-256 {ratio:.2}x vs burst-1 (must not be slower)");
    }
}
