//! E2 — Dynamic apps: runtime programmability vs. the approximating
//! baselines (paper §1.1).
//!
//! "Recent projects … essentially work by baking all needed logic at
//! compile time but changing how it is used from the control plane.
//! DynamiQ … Mantis hardcodes all runtime response logic at compile time …
//! HyPer4 emulates different network programs with a virtualization layer.
//! In contrast, runtime programmable networks offer direct support for
//! dynamic program changes."
//!
//! Sweep the number of monitoring-app variants an operator may need
//! (k = 1..8) and compare:
//!   - static resource footprint (what must be provisioned up front),
//!   - switch latency between variants,
//!   - per-packet overhead,
//!   - whether an *unanticipated* variant is reachable at all.
//!
//! The two baselines are modeled here, over the same `Device`:
//!
//! - **Mantis** "hardcodes all runtime response logic at compile time, and
//!   invokes different responses at runtime by modifying control registers"
//!   — [`MantisDevice`]: every behaviour variant must be provisioned up
//!   front (resource cost = *sum* of all variants), switching is
//!   near-instant, and switching to a variant that was not precompiled is
//!   impossible.
//! - **HyPer4** "emulates different network programs with a virtualization
//!   layer" — [`Hyper4Device`]: any program loads quickly (it is just table
//!   entries in the emulation layer), but every packet pays an emulation
//!   overhead ([`HYPER4_OP_OVERHEAD`]× ops) and every table inflates by
//!   [`HYPER4_TABLE_INFLATION`]× (match cross-products in the generic
//!   pipeline).

use flexnet::prelude::*;
use flexnet_bench::{header, row, sep};
use flexnet_lang::ast::StateKind;
use flexnet_lang::ir::program_demand;
use std::sync::Arc;

/// Per-packet op multiplier of HyPer4-style emulation (the HyPer4 paper
/// reports 80–95% throughput loss vs. native).
const HYPER4_OP_OVERHEAD: u64 = 4;
/// Table inflation factor of the generic emulation pipeline.
const HYPER4_TABLE_INFLATION: u64 = 4;
/// Latency of a Mantis-style register flip.
const MANTIS_SWITCH_LATENCY: SimDuration = SimDuration::from_micros(1);
/// Latency of loading a program into the HyPer4 emulation layer (control
/// plane writes the interpreter tables).
const HYPER4_LOAD_LATENCY: SimDuration = SimDuration::from_millis(10);

/// A device whose behaviour variants were all compiled in up front.
struct MantisDevice {
    dev: Device,
    variants: Vec<ProgramBundle>,
    static_demand: ResourceVec,
}

impl MantisDevice {
    /// Provisions `variants` on `dev`. Fails when the *sum* of all variant
    /// demands exceeds the device capacity — the cost of static baking.
    fn new(mut dev: Device, variants: Vec<ProgramBundle>) -> Result<MantisDevice> {
        if variants.is_empty() {
            return Err(FlexError::Compile(
                "Mantis needs at least one variant".into(),
            ));
        }
        let mut total = ResourceVec::new();
        for v in &variants {
            let registry = HeaderRegistry::with_user_headers(&v.headers)?;
            let canonical = program_demand(&v.program, &v.headers, &registry);
            total += dev.architecture().normalize(&canonical);
        }
        if !dev.capacity().covers(&total) {
            return Err(FlexError::ResourceExhausted {
                needed: Box::new(total),
                available: Box::new(dev.capacity()),
                context: format!("{} statically-baked Mantis variants", variants.len()),
            });
        }
        dev.install(variants[0].clone())?;
        Ok(MantisDevice {
            dev,
            variants,
            static_demand: total,
        })
    }

    /// The precompiled static footprint (sum over variants).
    fn static_demand(&self) -> &ResourceVec {
        &self.static_demand
    }

    /// Switches to precompiled variant `idx` — a register write, effectively
    /// instant. Anything outside the precompiled set is unreachable.
    fn switch_to(&mut self, idx: usize) -> Result<SimDuration> {
        let Some(v) = self.variants.get(idx) else {
            return Err(FlexError::NotFound(format!(
                "variant {idx} was not precompiled (Mantis cannot add logic at runtime)"
            )));
        };
        self.dev.install(v.clone())?;
        Ok(MANTIS_SWITCH_LATENCY)
    }
}

/// A device running programs under a HyPer4-style emulation layer.
struct Hyper4Device {
    dev: Device,
}

impl Hyper4Device {
    /// Wraps a device in the emulation layer.
    fn new(dev: Device) -> Hyper4Device {
        Hyper4Device { dev }
    }

    /// Loads `bundle` into the emulation layer: fast (table writes), but
    /// the installed footprint is inflated by [`HYPER4_TABLE_INFLATION`].
    fn load_program(&mut self, bundle: ProgramBundle) -> Result<SimDuration> {
        let mut inflated = bundle;
        for t in &mut inflated.program.tables {
            let t = Arc::make_mut(t);
            t.size = t.size.saturating_mul(HYPER4_TABLE_INFLATION);
        }
        for s in &mut inflated.program.states {
            if matches!(s.kind, StateKind::Map { .. }) {
                let s = Arc::make_mut(s);
                s.size = s.size.saturating_mul(HYPER4_TABLE_INFLATION);
            }
        }
        self.dev.install(inflated)?;
        Ok(HYPER4_LOAD_LATENCY)
    }

    /// The wrapped device.
    fn device(&self) -> &Device {
        &self.dev
    }
}

fn variant(i: u64) -> ProgramBundle {
    // Monitoring variants: different sketch depths / thresholds.
    flexnet::apps::telemetry::count_min_sketch(1 + (i as usize % 4), 2048 * (1 + i % 3)).unwrap()
}

fn footprint(v: &ResourceVec) -> u64 {
    // A scalar footprint covering SRAM + register/meter resources, so
    // register-heavy sketch variants are visible too.
    v.get(ResourceKind::SramKb)
        + v.get(ResourceKind::RegisterCells) / 128
        + v.get(ResourceKind::MeterSlots)
}

fn main() {
    header(
        "E2",
        "dynamic apps vs statically-baked baselines",
        "runtime injection needs no pre-provisioned variants; Mantis pre-bakes all \
         (static cost), HyPer4 pays per-packet emulation (paper \u{a7}1.1)",
    );
    println!();
    row(&[
        "k-variants",
        "system",
        "static-footprint",
        "switch-latency",
        "pkt-overhead",
        "new-variant?",
    ]);
    sep(6);

    for k in [1u64, 2, 4, 8] {
        // FlexNet: only the active variant is resident; switching = hitless
        // runtime reconfig.
        let mut dev = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        dev.install(variant(0)).unwrap();
        let active_fp = footprint(&dev.used());
        let rep = dev
            .begin_runtime_reconfig(variant(1 % k), SimTime::ZERO)
            .unwrap();
        row(&[
            &k.to_string(),
            "flexnet",
            &active_fp.to_string(),
            &rep.duration.to_string(),
            "1.0x",
            "yes (any program)",
        ]);

        // Mantis: all k variants baked in; switching is a register write.
        let mantis_dev = Device::new(
            NodeId(2),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        let variants: Vec<ProgramBundle> = (0..k).map(variant).collect();
        match MantisDevice::new(mantis_dev, variants) {
            Ok(m) => {
                row(&[
                    &k.to_string(),
                    "mantis",
                    &footprint(m.static_demand()).to_string(),
                    &MANTIS_SWITCH_LATENCY.to_string(),
                    "1.0x",
                    "no (precompiled only)",
                ]);
            }
            Err(_) => {
                row(&[&k.to_string(), "mantis", "EXHAUSTED", "-", "-", "no"]);
            }
        }

        // HyPer4: emulation layer, inflated footprint, per-packet overhead.
        let mut h = Hyper4Device::new(Device::new(
            NodeId(3),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        ));
        let load = h.load_program(variant(0)).unwrap();
        row(&[
            &k.to_string(),
            "hyper4",
            &footprint(&h.device().used()).to_string(),
            &load.to_string(),
            &format!("{HYPER4_OP_OVERHEAD}.0x"),
            "yes (via emulation)",
        ]);
        sep(6);
    }

    // Reachability of an unanticipated behaviour.
    println!("\nunanticipated zero-day response (not in any precompiled set):");
    let surprise = flexnet::apps::security::syn_defense(100, 1000).unwrap();
    let mut dev = Device::new(
        NodeId(4),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(variant(0)).unwrap();
    let rep = dev.begin_runtime_reconfig(surprise, SimTime::ZERO).unwrap();
    println!("  flexnet: deployed in {} ({} ops)", rep.duration, rep.ops);
    let mantis = MantisDevice::new(
        Device::new(
            NodeId(5),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        ),
        vec![variant(0), variant(1)],
    )
    .unwrap();
    let mut mantis = mantis;
    match mantis.switch_to(7) {
        Err(e) => println!("  mantis:  unreachable ({e})"),
        Ok(_) => unreachable!(),
    }
    println!(
        "\nshape check: Mantis static cost grows ~linearly with k while FlexNet \
         stays flat; HyPer4 reaches any program but pays {}x per packet and an \
         inflated footprint.",
        HYPER4_OP_OVERHEAD
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forwarder(port: u16) -> ProgramBundle {
        flexnet_bench::bundle(&format!(
            "program v{port} kind any {{
               table t{port} {{ key {{ ipv4.src : exact; }} size 4096; }}
               handler ingress(pkt) {{ apply t{port}; forward({port}); }}
             }}"
        ))
    }

    fn dev() -> Device {
        Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        )
    }

    fn verdict(dev: &mut Device, id: u64) -> Verdict {
        let mut pkt = Packet::tcp(id, 1, 2, 3, 4, 0);
        dev.process(&mut pkt, SimTime::ZERO).unwrap().verdict
    }

    #[test]
    fn mantis_switches_instantly_within_precompiled_set() {
        let mut m = MantisDevice::new(dev(), vec![forwarder(1), forwarder(2)]).unwrap();
        assert_eq!(verdict(&mut m.dev, 1), Verdict::Forward(1));
        let lat = m.switch_to(1).unwrap();
        assert_eq!(lat, MANTIS_SWITCH_LATENCY);
        assert_eq!(verdict(&mut m.dev, 2), Verdict::Forward(2));
    }

    #[test]
    fn mantis_cannot_reach_unprovisioned_behavior() {
        let mut m = MantisDevice::new(dev(), vec![forwarder(1)]).unwrap();
        assert!(m.switch_to(5).is_err());
    }

    #[test]
    fn mantis_static_cost_scales_with_variant_count() {
        let m1 = MantisDevice::new(dev(), vec![forwarder(1)]).unwrap();
        let m4 = MantisDevice::new(dev(), (1..=4).map(forwarder).collect()).unwrap();
        assert!(
            m4.static_demand().get(ResourceKind::SramKb)
                >= m1.static_demand().get(ResourceKind::SramKb) * 4
        );
    }

    #[test]
    fn mantis_rejects_variant_sets_that_exhaust_the_device() {
        // Each variant's 4096-entry table is ~33 KiB of SRAM; the default
        // dRMT pool (16 MiB) fits many, so shrink the device.
        let small = Device::new(
            NodeId(2),
            Architecture::Drmt {
                processors: 4,
                pool: ResourceVec::from_pairs([
                    (ResourceKind::SramKb, 64),
                    (ResourceKind::ActionSlots, 512),
                ]),
            },
            StateEncoding::StatefulTable,
        );
        let err = MantisDevice::new(small, (1..=4).map(forwarder).collect())
            .err()
            .unwrap();
        assert!(matches!(err, FlexError::ResourceExhausted { .. }), "{err}");
    }

    #[test]
    fn hyper4_loads_fast_and_keeps_semantics() {
        let mut native = dev();
        native.install(forwarder(1)).unwrap();
        let mut h = Hyper4Device::new(dev());
        assert_eq!(h.load_program(forwarder(1)).unwrap(), HYPER4_LOAD_LATENCY);
        assert_eq!(verdict(&mut h.dev, 2), verdict(&mut native, 1));
    }

    #[test]
    fn hyper4_inflates_resource_footprint() {
        let mut native = dev();
        native.install(forwarder(1)).unwrap();
        let native_used = native.used().get(ResourceKind::SramKb);

        let mut h = Hyper4Device::new(dev());
        h.load_program(forwarder(1)).unwrap();
        let emu_used = h.device().used().get(ResourceKind::SramKb);
        assert!(
            emu_used >= native_used * HYPER4_TABLE_INFLATION,
            "emulation footprint {emu_used} must be >= {HYPER4_TABLE_INFLATION}x native {native_used}"
        );
    }
}
