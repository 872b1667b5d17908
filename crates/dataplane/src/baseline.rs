//! Baseline approximations of runtime programmability (paper §1.1).
//!
//! "Recent projects call out this limitation and propose approximating
//! solutions. They essentially work by baking all needed logic at compile
//! time but changing how it is used from the control plane":
//!
//! - **Mantis** "hardcodes all runtime response logic at compile time, and
//!   invokes different responses at runtime by modifying control registers"
//!   — modeled by [`MantisDevice`]: every behaviour variant must be
//!   provisioned up front (resource cost = *sum* of all variants), switching
//!   is near-instant, and switching to a variant that was not precompiled is
//!   impossible.
//! - **HyPer4** "emulates different network programs with a virtualization
//!   layer" — modeled by [`Hyper4Device`]: any program can be loaded quickly
//!   (it is just table entries in the emulation layer), but every packet
//!   pays an emulation overhead ([`HYPER4_OP_OVERHEAD`]× ops) and every
//!   table inflates by [`HYPER4_TABLE_INFLATION`]× (match cross-products in
//!   the generic pipeline).
//!
//! Together with `Device::begin_reflash` (the compile-time baseline), these
//! are the comparison points for experiment E2.

use crate::device::{Device, ProcessResult};
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::headers::HeaderRegistry;
use flexnet_lang::ir::program_demand;
use flexnet_types::{FlexError, Packet, ResourceVec, Result, SimDuration, SimTime};
use std::sync::Arc;

/// Per-packet op multiplier of HyPer4-style emulation (the HyPer4 paper
/// reports 80–95% throughput loss vs. native).
pub const HYPER4_OP_OVERHEAD: u64 = 4;
/// Table inflation factor of the generic emulation pipeline.
pub const HYPER4_TABLE_INFLATION: u64 = 4;
/// Latency of a Mantis-style register flip.
pub const MANTIS_SWITCH_LATENCY: SimDuration = SimDuration::from_micros(1);
/// Latency of loading a program into the HyPer4 emulation layer (control
/// plane writes the interpreter tables).
pub const HYPER4_LOAD_LATENCY: SimDuration = SimDuration::from_millis(10);

/// A device whose behaviour variants were all compiled in up front.
#[derive(Debug)]
pub struct MantisDevice {
    dev: Device,
    variants: Vec<ProgramBundle>,
    static_demand: ResourceVec,
}

impl MantisDevice {
    /// Provisions `variants` on `dev`. Fails when the *sum* of all variant
    /// demands exceeds the device capacity — the cost of static baking.
    pub fn new(mut dev: Device, variants: Vec<ProgramBundle>) -> Result<MantisDevice> {
        if variants.is_empty() {
            return Err(FlexError::Compile("Mantis needs at least one variant".into()));
        }
        let mut total = ResourceVec::new();
        for v in &variants {
            let registry = HeaderRegistry::with_user_headers(&v.headers)?;
            let canonical = program_demand(&v.program, &v.headers, &registry);
            total += dev.architecture().normalize(&canonical);
        }
        if !dev.capacity().covers(&total) {
            return Err(FlexError::ResourceExhausted {
                needed: total,
                available: dev.capacity(),
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
    pub fn static_demand(&self) -> &ResourceVec {
        &self.static_demand
    }

    /// Switches to precompiled variant `idx` — a register write, effectively
    /// instant. Anything outside the precompiled set is unreachable.
    pub fn switch_to(&mut self, idx: usize) -> Result<SimDuration> {
        let Some(v) = self.variants.get(idx) else {
            return Err(FlexError::NotFound(format!(
                "variant {idx} was not precompiled (Mantis cannot add logic at runtime)"
            )));
        };
        self.dev.install(v.clone())?;
        Ok(MANTIS_SWITCH_LATENCY)
    }

    /// Processes a packet on the active variant.
    pub fn process(&mut self, pkt: &mut Packet, now: SimTime) -> Result<ProcessResult> {
        self.dev.process(pkt, now)
    }

    /// The wrapped device.
    pub fn device(&self) -> &Device {
        &self.dev
    }
}

/// A device running programs under a HyPer4-style emulation layer.
#[derive(Debug)]
pub struct Hyper4Device {
    dev: Device,
}

impl Hyper4Device {
    /// Wraps a device in the emulation layer.
    pub fn new(dev: Device) -> Hyper4Device {
        Hyper4Device { dev }
    }

    /// Loads `bundle` into the emulation layer: fast (table writes), but
    /// the installed footprint is inflated by [`HYPER4_TABLE_INFLATION`].
    pub fn load_program(&mut self, bundle: ProgramBundle) -> Result<SimDuration> {
        let mut inflated = bundle;
        for t in &mut inflated.program.tables {
            let t = Arc::make_mut(t);
            t.size = t.size.saturating_mul(HYPER4_TABLE_INFLATION);
        }
        for s in &mut inflated.program.states {
            if matches!(s.kind, flexnet_lang::ast::StateKind::Map { .. }) {
                let s = Arc::make_mut(s);
                s.size = s.size.saturating_mul(HYPER4_TABLE_INFLATION);
            }
        }
        self.dev.install(inflated)?;
        Ok(HYPER4_LOAD_LATENCY)
    }

    /// Processes a packet, paying the emulation overhead.
    pub fn process(&mut self, pkt: &mut Packet, now: SimTime) -> Result<ProcessResult> {
        let mut r = self.dev.process(pkt, now)?;
        if !r.refused {
            r.ops = r.ops.saturating_mul(HYPER4_OP_OVERHEAD);
            r.latency = self.dev.cost_model().packet_latency(r.ops);
        }
        Ok(r)
    }

    /// The wrapped device.
    pub fn device(&self) -> &Device {
        &self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::state::StateEncoding;
    use flexnet_lang::parser::parse_source;
    use flexnet_types::{NodeId, ResourceKind, Verdict};

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn variant(port: u16) -> ProgramBundle {
        bundle(&format!(
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

    #[test]
    fn mantis_switches_instantly_within_precompiled_set() {
        let mut m = MantisDevice::new(dev(), vec![variant(1), variant(2)]).unwrap();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        assert_eq!(m.process(&mut pkt, SimTime::ZERO).unwrap().verdict, Verdict::Forward(1));
        let lat = m.switch_to(1).unwrap();
        assert_eq!(lat, MANTIS_SWITCH_LATENCY);
        let mut pkt2 = Packet::tcp(2, 1, 2, 3, 4, 0);
        assert_eq!(m.process(&mut pkt2, SimTime::ZERO).unwrap().verdict, Verdict::Forward(2));
    }

    #[test]
    fn mantis_cannot_reach_unprovisioned_behavior() {
        let mut m = MantisDevice::new(dev(), vec![variant(1)]).unwrap();
        assert!(m.switch_to(5).is_err());
    }

    #[test]
    fn mantis_static_cost_scales_with_variant_count() {
        let m1 = MantisDevice::new(dev(), vec![variant(1)]).unwrap();
        let m4 = MantisDevice::new(dev(), (1..=4).map(variant).collect()).unwrap();
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
        let err = MantisDevice::new(small, (1..=4).map(variant).collect()).unwrap_err();
        assert!(matches!(err, FlexError::ResourceExhausted { .. }), "{err}");
    }

    #[test]
    fn hyper4_loads_fast_but_pays_per_packet() {
        let mut native = dev();
        native.install(variant(1)).unwrap();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let native_r = native.process(&mut pkt, SimTime::ZERO).unwrap();

        let mut h = Hyper4Device::new(dev());
        let load = h.load_program(variant(1)).unwrap();
        assert_eq!(load, HYPER4_LOAD_LATENCY);
        let mut pkt2 = Packet::tcp(2, 1, 2, 3, 4, 0);
        let emu_r = h.process(&mut pkt2, SimTime::ZERO).unwrap();
        assert_eq!(emu_r.verdict, native_r.verdict, "semantics preserved");
        assert_eq!(emu_r.ops, native_r.ops * HYPER4_OP_OVERHEAD);
        assert!(emu_r.latency > native_r.latency);
    }

    #[test]
    fn hyper4_inflates_resource_footprint() {
        let mut native = dev();
        native.install(variant(1)).unwrap();
        let native_used = native.used().get(ResourceKind::SramKb);

        let mut h = Hyper4Device::new(dev());
        h.load_program(variant(1)).unwrap();
        let emu_used = h.device().used().get(ResourceKind::SramKb);
        assert!(
            emu_used >= native_used * HYPER4_TABLE_INFLATION,
            "emulation footprint {emu_used} must be >= {HYPER4_TABLE_INFLATION}x native {native_used}"
        );
    }
}
