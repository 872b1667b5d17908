//! Criterion microbenchmarks for the FlexNet hot paths: per-packet
//! interpretation on each device architecture, table lookup, parsing, the
//! verifier, diffing, composition, and reconfiguration planning.
//!
//! These complement the E1–E11 experiment binaries: the binaries measure
//! *simulated* time under the calibrated cost models; these measure the
//! real CPU cost of the framework itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexnet::prelude::*;
use flexnet_bench::bundle;
use flexnet_dataplane::{ProgramImage, SealTarget, SealedTargets};
use flexnet_lang::ast::ActionCall;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;

#[path = "../../../tests/common/fabric.rs"]
mod fabric;
#[path = "../../../tests/common/tenants.rs"]
mod tenants;

fn firewall_bundle() -> ProgramBundle {
    flexnet::apps::security::firewall(256).unwrap()
}

fn bench_packet_processing(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_process");
    for (name, arch) in [
        ("rmt", Architecture::rmt_default()),
        ("drmt", Architecture::drmt_default()),
        ("tiled", Architecture::tiled_default()),
        ("smartnic", Architecture::smartnic_default()),
        ("host", Architecture::host_default()),
    ] {
        let mut dev = Device::new(NodeId(1), arch, StateEncoding::StatefulTable);
        dev.install(firewall_bundle()).unwrap();
        group.bench_function(BenchmarkId::new("firewall", name), |b| {
            let mut i = 0u64;
            b.iter(|| {
                let mut pkt = Packet::tcp(i, i as u32, 2, 3, 80, 0x10);
                i += 1;
                black_box(dev.process(&mut pkt, SimTime::ZERO).unwrap())
            });
        });
    }
    // Four sketch rows whose hashes share the (src, dst, proto) prefix.
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(flexnet::apps::telemetry::count_min_sketch(4, 4096).unwrap())
        .unwrap();
    group.bench_function("cms4", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let mut pkt = Packet::tcp(i, i as u32, 2, 3, 80, 0x10);
            i += 1;
            black_box(dev.process(&mut pkt, SimTime::ZERO).unwrap())
        });
    });
    group.finish();
}

fn bench_table_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_lookup");
    for entries in [16usize, 256, 4096] {
        let decl = bundle(&format!(
            "program p kind any {{
               table t {{ key {{ ipv4.dst : lpm; }}
                 action out(x: u16) {{ forward(x); }} size {entries}; }}
             }}"
        ))
        .program
        .tables[0]
            .clone();
        let mut table = flexnet_dataplane::TableInstance::new(decl);
        for i in 0..entries {
            table
                .insert(flexnet_dataplane::TableEntry {
                    matches: vec![KeyMatch::Lpm {
                        value: (i as u64) << 16,
                        prefix_len: 24,
                        width: 32,
                    }],
                    priority: 0,
                    action: flexnet_lang::ast::ActionCall {
                        action: "out".into(),
                        args: vec![i as u64],
                    },
                })
                .unwrap();
        }
        group.bench_function(BenchmarkId::new("lpm", entries), |b| {
            let mut k = 0u64;
            b.iter(|| {
                k = k.wrapping_add(0x10001);
                black_box(table.lookup(&[k & 0xffff_ffff]))
            });
        });
    }
    // The all-exact hash index, hit on every lookup.
    for arity in [1usize, 2] {
        let keys = ["ipv4.src : exact;", "ipv4.dst : exact;"][..arity].concat();
        let decl = bundle(&format!(
            "program p kind any {{
               table t {{ key {{ {keys} }}
                 action out(x: u16) {{ forward(x); }} size 4096; }}
             }}"
        ))
        .program
        .tables[0]
            .clone();
        let mut table = flexnet_dataplane::TableInstance::new(decl);
        let tuple = |i: u64| [i, i << 8][..arity].to_vec();
        for i in 0..4096u64 {
            let action = ActionCall {
                action: "out".into(),
                args: vec![i],
            };
            table
                .insert(flexnet_dataplane::TableEntry::exact(&tuple(i), action))
                .unwrap();
        }
        group.bench_function(BenchmarkId::new("exact", format!("{arity}_keys")), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % 4096;
                black_box(table.lookup(&[i, i << 8][..arity]))
            });
        });
    }
    group.finish();
}

/// One `table_scale` arm's inputs: the declaration, `n` entries, 4 096
/// lookup key tuples (half under an entry's cared-for bits, half random)
/// and 4 096 removal targets (installed entries' matches), drawn from a
/// SplitMix64 seeded by the arm.
type ScaleArm = (
    Arc<flexnet_lang::ast::TableDecl>,
    Vec<flexnet_dataplane::TableEntry>,
    Vec<Vec<u64>>,
    Vec<Vec<KeyMatch>>,
);

fn scale_arm(kind: &str, keys: &str, n: usize) -> ScaleArm {
    const MASKS: [u64; 8] = [
        0xffff_ffff,
        0xffff_ff00,
        0xffff_0000,
        0xff00_0000,
        0xff00_ff00,
        0x00ff_00ff,
        0xf0f0_f0f0,
        0x0000_ffff,
    ];
    let mut x = 0x7AB1_E5CA_1E00_0000 ^ n as u64 ^ kind.len() as u64;
    let mut rng = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // A random /8–/32 prefix of a 32-bit field.
    let prefix = |r: u64| {
        let len = 8 + (r % 25) as u8;
        KeyMatch::Lpm {
            value: (r >> 8) & (u32::MAX << (32 - len as u32)) as u64,
            prefix_len: len,
            width: 32,
        }
    };
    let decl = bundle(&format!(
        "program p kind any {{
           table t {{ key {{ {keys} }}
             action out(x: u16) {{ forward(x); }} size {n}; }}
         }}"
    ))
    .program
    .tables[0]
        .clone();
    let entries: Vec<flexnet_dataplane::TableEntry> = (0..n as u64)
        .map(|i| flexnet_dataplane::TableEntry {
            matches: match kind {
                "lpm" => vec![prefix(rng())],
                "ternary" => {
                    let r = rng();
                    let mask = MASKS[(r % 8) as usize];
                    vec![KeyMatch::Ternary {
                        value: (r >> 8) & mask,
                        mask,
                    }]
                }
                _ => vec![KeyMatch::Exact(rng() % 64), prefix(rng())],
            },
            priority: if kind == "ternary" {
                (rng() % 16) as i32
            } else {
                0
            },
            action: ActionCall {
                action: "out".into(),
                args: vec![i],
            },
        })
        .collect();
    let under = |m: &KeyMatch, r: u64| match *m {
        KeyMatch::Exact(v) => v,
        KeyMatch::Lpm {
            value, prefix_len, ..
        } => value | (r & (u32::MAX >> prefix_len) as u64),
        KeyMatch::Ternary { value, mask } => value | (r & !mask & 0xffff_ffff),
        KeyMatch::Range { lo, .. } => lo,
    };
    let lookups = (0..4096)
        .map(|i| {
            let e = &entries[(rng() % n as u64) as usize];
            e.matches
                .iter()
                .map(|m| match (i % 2, m) {
                    (0, _) => under(m, rng()),
                    (_, KeyMatch::Exact(_)) => rng() % 64,
                    _ => rng() & 0xffff_ffff,
                })
                .collect()
        })
        .collect();
    let removals = (0..4096)
        .map(|_| entries[(rng() % n as u64) as usize].matches.clone())
        .collect();
    (decl, entries, lookups, removals)
}

/// Tables that scale with their entries: a bulk load (one iteration loads
/// the whole table: divide by the entry count for ns/entry, the drop of
/// the table included), one lookup and one remove of an installed entry
/// from a fresh copy of the loaded table — on one-key LPM tables of random
/// /8–/32 prefixes at four sizes, a one-key ternary table over eight masks
/// and sixteen priorities, and a two-key exact + LPM table. The inputs are
/// built inside the closures, so a filtered run that skips them builds
/// nothing.
fn bench_table_scale(c: &mut Criterion) {
    use flexnet_dataplane::TableInstance;
    let load = |decl: &Arc<flexnet_lang::ast::TableDecl>, entries: Vec<_>| {
        let mut t = TableInstance::new(decl.clone());
        for e in entries {
            t.insert(e).unwrap();
        }
        t
    };
    let arms = [
        ("lpm", "ipv4.dst : lpm;", 1024usize),
        ("lpm", "ipv4.dst : lpm;", 4096),
        ("lpm", "ipv4.dst : lpm;", 16384),
        ("lpm", "ipv4.dst : lpm;", 65536),
        ("ternary", "ipv4.dst : ternary;", 4096),
        ("exact_lpm", "ipv4.src : exact; ipv4.dst : lpm;", 4096),
    ];
    let mut group = c.benchmark_group("table_scale");
    for (kind, keys, n) in arms {
        group.bench_function(format!("{kind}_load/{n}").as_str(), |b| {
            let (decl, entries, ..) = scale_arm(kind, keys, n);
            // The last load is dropped in the next set-up, untimed.
            let last = RefCell::new(None);
            b.iter_batched(
                || {
                    drop(last.take());
                    entries.clone()
                },
                |entries| *last.borrow_mut() = Some(load(&decl, entries)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_function(format!("{kind}_lookup/{n}").as_str(), |b| {
            let (decl, entries, lookups, _) = scale_arm(kind, keys, n);
            let table = load(&decl, entries);
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % lookups.len();
                black_box(table.lookup(&lookups[i]).is_some())
            });
        });
        group.bench_function(format!("{kind}_remove/{n}").as_str(), |b| {
            let (decl, entries, _, removals) = scale_arm(kind, keys, n);
            let table = RefCell::new(load(&decl, entries));
            // The set-up puts back what the last remove took (as the newest
            // entries), so every timed remove finds a table of `n` entries.
            let mut taken: Vec<flexnet_dataplane::TableEntry> = Vec::new();
            let mut i = 0usize;
            b.iter_batched(
                || {
                    let mut t = table.borrow_mut();
                    for e in taken.drain(..) {
                        t.insert(e).unwrap();
                    }
                    i = (i + 1) % removals.len();
                    let matches = &removals[i];
                    taken.extend(
                        t.entries()
                            .iter()
                            .filter(|e| &e.matches == matches)
                            .cloned(),
                    );
                    matches
                },
                |matches| assert!(table.borrow_mut().remove(matches) > 0),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_language_pipeline(c: &mut Criterion) {
    let src = flexnet::apps::security::firewall(256)
        .unwrap()
        .program
        .to_source();
    c.bench_function("parse_firewall", |b| {
        b.iter(|| black_box(parse_program(&src).unwrap()))
    });
    let program = parse_program(&src).unwrap();
    let headers = HeaderRegistry::builtins();
    c.bench_function("typecheck_firewall", |b| {
        b.iter(|| check_program(black_box(&program), &headers).unwrap())
    });
    c.bench_function("verify_firewall", |b| {
        b.iter(|| verify_program(black_box(&program), &headers).unwrap())
    });
}

/// What the control path checks each op: the seal of `ctl_txn`'s 8-tenant
/// composition (a copy of it, as a coordinator seals; built by the churn of
/// `tests/control_alloc.rs`) and the front end of one tenant source.
fn bench_control_checks(c: &mut Criterion) {
    let infra = flexnet::apps::build(tenants::INFRA).unwrap();
    let mut ctl = Controller::new(infra, NodeId(1), SimTime::ZERO).unwrap();
    let mut live = VecDeque::new();
    let mut composed = None;
    for op in 0..40 {
        let extension = flexnet::apps::build(&tenants::tenant_source(op)).unwrap();
        let now = SimTime::from_millis(op + 1);
        composed = Some(tenants::churn(&mut ctl, &mut live, op, extension, now));
    }
    let composed = composed.unwrap();
    c.bench_function("lang/seal/composed_8", |b| {
        b.iter(|| black_box(ProgramImage::seal(composed.clone()).unwrap()))
    });
    for keep in [8, 64] {
        bench_seal_churn(c, keep);
    }
    let src = tenants::tenant_source(41);
    c.bench_function("lang/front_end/tenant", |b| {
        b.iter(|| black_box(flexnet::apps::build(&src).unwrap()))
    });
}

/// `lang/seal/churn_{keep}`: what a coordinator's prepare does with one
/// churn op's composition at `keep` live tenants — seal it and plan the
/// change from the image a device runs, the previous op's composition.
/// Both arms do the whole pass, so the 64-tenant one shows what of it
/// grows with the tenants the op leaves alone (ROADMAP item 6).
fn bench_seal_churn(c: &mut Criterion, keep: usize) {
    let infra = flexnet::apps::build(tenants::INFRA).unwrap();
    let mut ctl = Controller::new(infra, NodeId(1), SimTime::ZERO).unwrap();
    let mut live = VecDeque::new();
    let (mut previous, mut last) = (None, None);
    for op in 0..keep as u64 + 40 {
        let extension = flexnet::apps::build(&tenants::tenant_source(op)).unwrap();
        let now = SimTime::from_millis(op + 1);
        let composed = tenants::churn_keeping(keep, &mut ctl, &mut live, op, extension, now);
        previous = last.replace(composed);
    }
    let (previous, last) = (previous.unwrap(), last.unwrap());
    assert!(diff_bundles(&previous, &last).len() >= 4);
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(previous).unwrap();
    let mut sealed = SealedTargets::default();
    sealed.target(&last).into_plan(dev.program()).unwrap();
    c.bench_function(&format!("lang/seal/churn_{keep}"), |b| {
        b.iter(|| {
            let mut sealed = SealedTargets::default();
            black_box(sealed.target(&last).into_plan(dev.program()).unwrap())
        })
    });
}

fn bench_reconfig_planning(c: &mut Criterion) {
    let old = firewall_bundle();
    let patch = parse_patch(flexnet::apps::security::firewall_hardening_patch()).unwrap();
    let new = apply_patch(&old, &patch).unwrap();
    c.bench_function("apply_patch", |b| {
        b.iter(|| black_box(apply_patch(&old, &patch).unwrap()))
    });
    c.bench_function("diff_bundles", |b| {
        b.iter(|| black_box(diff_bundles(&old, &new)))
    });
}

/// Two images that declare the same ACL, register and map and differ in a
/// counter and the egress port: everything a device on the first holds
/// crosses a flip to the second, and back.
fn carrying_pair() -> [Arc<ProgramImage>; 2] {
    [("", 1), ("counter extra;", 2)].map(|(decl, port)| {
        ProgramImage::seal(bundle(&format!(
            "program app kind any {{
               register r : u64[1024];
               map seen : map<u32, u64>[1024];
               {decl}
               table acl {{
                 key {{ ipv4.src : exact; }}
                 action deny() {{ drop(); }}
                 size 32768;
               }}
               handler ingress(pkt) {{
                 reg_write(r, ipv4.src % 1024, 1);
                 map_put(seen, ipv4.src, 1);
                 apply acl;
                 forward({port});
               }}
             }}"
        )))
        .unwrap()
    })
}

/// A device on `image` holding `entries` ACL entries and, when `populated`,
/// a value in every register cell and every map slot.
fn carrying_device(image: &Arc<ProgramImage>, entries: u64, populated: bool) -> Device {
    let mut dev = Device::new(
        NodeId(1),
        Architecture::host_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(image.clone()).unwrap();
    let deny = ActionCall {
        action: "deny".into(),
        args: vec![],
    };
    for key in 0..entries {
        dev.add_entry("acl", TableEntry::exact(&[key], deny.clone()))
            .unwrap();
    }
    let state = &mut dev.program_mut().unwrap().state;
    let (r, seen) = (
        state.register_slot("r").unwrap(),
        state.map_slot("seen").unwrap(),
    );
    for i in 0..if populated { 1024 } else { 0 } {
        state.reg_write_at_checked(r, i, i + 1).unwrap();
        state.map_put_at(seen, i * 7, i);
    }
    dev
}

/// ROADMAP 1(c): what a hitless change costs the host as the carried
/// state grows. `begin` must stay flat — it builds nothing that is carried
/// — and `flip` is one copy of it plus the drop of the previous fallback.
/// One device per arm; what is not being measured (the abort that clears
/// the last begin, the begin before a flip) runs in the untimed set-up.
fn bench_hitless_reconfig(c: &mut Criterion) {
    let pair = carrying_pair();
    let arms = [
        ("0", 0, false),
        ("1k", 1024, false),
        ("32k", 32 * 1024, false),
        ("1k_reg_map", 0, true),
    ];
    for (label, entries, populated) in arms {
        let dev = RefCell::new(carrying_device(&pair[0], entries, populated));
        c.bench_function(&format!("begin_hitless_reconfig/{label}"), |b| {
            b.iter_batched(
                || drop(dev.borrow_mut().abort_reconfig(SimTime::ZERO)),
                |()| {
                    let begun = dev
                        .borrow_mut()
                        .begin_runtime_reconfig(pair[1].clone(), SimTime::ZERO);
                    black_box(begun.unwrap())
                },
                criterion::BatchSize::SmallInput,
            );
        });
        let _ = dev.borrow_mut().abort_reconfig(SimTime::ZERO);
        let mut flips = 0usize;
        c.bench_function(&format!("flip_hitless_reconfig/{label}"), |b| {
            b.iter_batched(
                || {
                    flips += 1;
                    let (target, now) = (pair[flips % 2].clone(), SimTime::from_secs(flips as u64));
                    dev.borrow_mut()
                        .begin_runtime_reconfig(target, now)
                        .unwrap()
                        .ready_at
                },
                |at| dev.borrow_mut().tick(at),
                criterion::BatchSize::SmallInput,
            );
        });
        assert_eq!(
            dev.borrow().table("acl").unwrap().len() as u64,
            entries,
            "carried"
        );
    }
}

fn bench_composition(c: &mut Criterion) {
    let infra = bundle(
        "program infra kind switch {
           counter total;
           handler ingress(pkt) { count(total); forward(0); }
         }",
    );
    for n in [2usize, 8, 16] {
        let exts: Vec<TenantExtension> = (0..n)
            .map(|i| TenantExtension {
                tenant: TenantId(i as u32 + 1),
                vlan: VlanId(100 + i as u16),
                bundle: flexnet::apps::security::firewall(64).unwrap(),
            })
            .collect();
        c.bench_function(&format!("compose_{n}_tenants"), |b| {
            b.iter(|| black_box(compose(&infra, &exts).unwrap()))
        });
    }
    // Steady-state churn through the tenant manager, as the controller
    // drives it: the oldest of `n` tenants leaves and a new one arrives.
    // Read against `compose_{n}`: the isolate of the newcomer does not
    // grow with `n`, the arrival's one assembly does.
    for n in [8u32, 64] {
        let ext = flexnet::apps::security::firewall(64).unwrap();
        let mut tenants = flexnet_controller::TenantManager::new(infra.clone());
        for id in 1..=n {
            tenants.arrive(TenantId(id), ext.clone()).unwrap();
        }
        if n == 8 {
            // What the control path does with a composition: hands it on
            // (a copy per target, dropped after the operation), recognises
            // it (`==`) and diffs it against the one a device runs.
            let (before, _) = tenants.composed().unwrap();
            tenants.depart(TenantId(1)).unwrap();
            tenants.arrive(TenantId(n + 1), ext.clone()).unwrap();
            let (after, _) = tenants.composed().unwrap();
            let copy = after.clone();
            c.bench_function("bundle_clone_drop/8_tenants", |b| {
                b.iter(|| drop(black_box(after.clone())))
            });
            c.bench_function("bundle_eq/8_tenants", |b| {
                b.iter(|| black_box(&copy) == black_box(&after))
            });
            c.bench_function("diff_successive_compositions/8_tenants", |b| {
                b.iter(|| black_box(diff_bundles(&before, &after)))
            });
            // Back to tenants 1..=n for the churn below.
            tenants.depart(TenantId(n + 1)).unwrap();
            tenants.arrive(TenantId(1), ext.clone()).unwrap();
        }
        let (mut oldest, mut next) = (1, n + 1);
        c.bench_function(&format!("tenant_churn_{n}"), |b| {
            b.iter(|| {
                black_box(tenants.depart(TenantId(oldest)).unwrap());
                black_box(tenants.arrive(TenantId(next), ext.clone()).unwrap());
                oldest = oldest % (2 * n) + 1;
                next = next % (2 * n) + 1;
            })
        });
    }
}

fn bench_simulation(c: &mut Criterion) {
    c.bench_function("simulate_10k_packets", |b| {
        b.iter(|| {
            let (topo, sw, hosts) = Topology::single_switch(2);
            let mut sim = Simulation::new(topo);
            sim.schedule(
                SimTime::ZERO,
                Command::Install {
                    node: sw,
                    bundle: firewall_bundle(),
                },
            );
            sim.load(generate(
                &[FlowSpec::udp_cbr(
                    hosts[0],
                    hosts[1],
                    100_000,
                    SimTime::from_millis(1),
                    SimDuration::from_millis(100),
                )],
                42,
            ));
            sim.run_to_completion();
            black_box(sim.metrics.delivered)
        });
    });

    // `fabric_forward`'s shape, one `load` + `run` per iteration: the
    // event-core tests' leaf-spine fabric under 16 cross-pod Poisson flows,
    // fed 50 µs slices of ≈ 1.4 k packets with ≈ 900 in flight from the
    // slice before. `generate` runs in the untimed set-up, which also
    // empties `delivered_packets` as `fabric_reconfig`'s checker does.
    for (label, keep_packets) in [("forward", false), ("keep_packets", true)] {
        let (mut sim, _spines, _leaves, hosts) = fabric::leaf_spine_fabric();
        sim.metrics.keep_packets = keep_packets;
        let slice = SimDuration::from_micros(50);
        let mut flows: Vec<FlowSpec> = (0..hosts.len())
            .map(|i| fabric::cross_pod_flow(&hosts, i, 1_750_000, SimTime::ZERO, slice))
            .collect();
        let sim = RefCell::new(sim);
        let mut slice_no = 0u64;
        c.bench_function(&format!("sim_slice/{label}"), |b| {
            b.iter_batched(
                || {
                    slice_no += 1;
                    let start = SimTime::from_nanos(slice_no * slice.as_nanos());
                    flows.iter_mut().for_each(|f| f.start = start);
                    sim.borrow_mut().metrics.delivered_packets.clear();
                    (generate(&flows, slice_no), start + slice)
                },
                |(departures, until)| {
                    let mut sim = sim.borrow_mut();
                    sim.load(departures);
                    sim.run(until);
                },
                criterion::BatchSize::SmallInput,
            );
        });
        let sim = sim.into_inner();
        // A name filter that skips this bench never runs a slice.
        let ran = slice_no > 0;
        assert!(
            !ran || sim.metrics.sent > 10_000 && sim.metrics.total_lost() == 0,
            "{:?}",
            sim.metrics.losses
        );
    }
}

criterion_group!(
    benches,
    bench_packet_processing,
    bench_table_lookup,
    bench_table_scale,
    bench_language_pipeline,
    bench_control_checks,
    bench_reconfig_planning,
    bench_hitless_reconfig,
    bench_composition,
    bench_simulation,
);
criterion_main!(benches);
