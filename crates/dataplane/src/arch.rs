//! Device architectures and their resource models.
//!
//! Paper §3.3 classifies targets by *resource fungibility*:
//!
//! - **(i) RMT** (Tofino/FlexPipe): a pipeline of fixed stages; "resources in
//!   the same hardware stage are fungible", and tables assigned to stages
//!   must respect control-flow dependencies.
//! - **(ii) dRMT** (Spectrum-like): compute disaggregated from memory; "any
//!   processor can access any table" — memory and action resources are
//!   pooled.
//! - **(iii) Tiles / Elastic pipes** (Trident4/Jericho2): hash, index, and
//!   TCAM tiles plus a Programmable Elements Matrix; "fungibility occurs
//!   within the same tile types and the PEM elements".
//! - **(iv) SmartNICs, FPGAs, hosts**: "resources are essentially fully
//!   fungible".
//!
//! Each architecture (a) *normalizes* a canonical element demand (from
//! `flexnet_lang::ir`) into its own resource kinds, and (b) *allocates* it
//! under its own structural rules via [`ArchAllocator`]. The differences are
//! exactly what experiment E9 measures.

use flexnet_lang::ast::ProgramKind;
use flexnet_types::{FlexError, ResourceKind, ResourceVec, Result};
use std::sync::Arc;

/// The architecture class (for cost model and report lookups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchClass {
    /// Reconfigurable match table pipeline (Tofino-like).
    Rmt,
    /// Disaggregated RMT (Spectrum-like).
    Drmt,
    /// Tiled / elastic pipe (Trident4/Jericho2-like).
    Tiled,
    /// SoC SmartNIC (BlueField-like).
    SmartNic,
    /// Host kernel (eBPF-like).
    Host,
}

impl std::fmt::Display for ArchClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchClass::Rmt => write!(f, "rmt"),
            ArchClass::Drmt => write!(f, "drmt"),
            ArchClass::Tiled => write!(f, "tiled"),
            ArchClass::SmartNic => write!(f, "smartnic"),
            ArchClass::Host => write!(f, "host"),
        }
    }
}

/// A concrete device architecture instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Architecture {
    /// Fixed pipeline of `stages`, each with `per_stage` resources.
    Rmt {
        /// Number of match/action stages.
        stages: usize,
        /// Resources available in each stage.
        per_stage: ResourceVec,
    },
    /// `processors` run-to-completion MA processors over a shared `pool`.
    Drmt {
        /// Number of MA processors (bounds per-packet op throughput).
        processors: usize,
        /// The disaggregated memory/action pool.
        pool: ResourceVec,
    },
    /// Tile-based resources plus PEM elements.
    Tiled {
        /// Hash-lookup tiles (exact tables).
        hash_tiles: u64,
        /// Index tiles (registers/meters).
        index_tiles: u64,
        /// TCAM tiles (lpm/ternary/range tables).
        tcam_tiles: u64,
        /// Programmable Elements Matrix slots (handler compute).
        pem_elements: u64,
    },
    /// SoC SmartNIC with general-purpose cores and DRAM.
    SmartNic {
        /// Cores (milli-cores of compute budget = cores * 1000).
        cores: u64,
        /// DRAM in MiB.
        dram_mb: u64,
    },
    /// Host kernel stack (eBPF).
    Host {
        /// Cores available to packet processing.
        cores: u64,
        /// DRAM in MiB.
        dram_mb: u64,
    },
}

impl Architecture {
    /// A mid-size RMT switch (Tofino-like): 12 stages.
    pub fn rmt_default() -> Architecture {
        Architecture::Rmt {
            stages: 12,
            per_stage: ResourceVec::from_pairs([
                (ResourceKind::SramKb, 1280),
                (ResourceKind::TcamKb, 64),
                (ResourceKind::ActionSlots, 256),
                (ResourceKind::RegisterCells, 4096),
                (ResourceKind::MeterSlots, 512),
                (ResourceKind::ParserEntries, 32),
            ]),
        }
    }

    /// A Spectrum-like dRMT switch: 32 processors over a shared pool.
    pub fn drmt_default() -> Architecture {
        Architecture::Drmt {
            processors: 32,
            pool: ResourceVec::from_pairs([
                (ResourceKind::SramKb, 16384),
                (ResourceKind::TcamKb, 768),
                (ResourceKind::ActionSlots, 4096),
                (ResourceKind::RegisterCells, 65536),
                (ResourceKind::MeterSlots, 8192),
                (ResourceKind::ParserEntries, 384),
            ]),
        }
    }

    /// A Trident4-like tiled switch.
    pub fn tiled_default() -> Architecture {
        Architecture::Tiled {
            hash_tiles: 32,
            index_tiles: 16,
            tcam_tiles: 8,
            pem_elements: 64,
        }
    }

    /// A BlueField-like SmartNIC: 8 cores, 16 GiB.
    pub fn smartnic_default() -> Architecture {
        Architecture::SmartNic {
            cores: 8,
            dram_mb: 16_384,
        }
    }

    /// A host reserving 4 cores for the kernel network stack.
    pub fn host_default() -> Architecture {
        Architecture::Host {
            cores: 4,
            dram_mb: 65_536,
        }
    }

    /// The architecture class.
    pub fn class(&self) -> ArchClass {
        match self {
            Architecture::Rmt { .. } => ArchClass::Rmt,
            Architecture::Drmt { .. } => ArchClass::Drmt,
            Architecture::Tiled { .. } => ArchClass::Tiled,
            Architecture::SmartNic { .. } => ArchClass::SmartNic,
            Architecture::Host { .. } => ArchClass::Host,
        }
    }

    /// Whether programs of `kind` may be placed on this architecture.
    pub fn supports(&self, kind: ProgramKind) -> bool {
        match (kind, self.class()) {
            (ProgramKind::Any, _) => true,
            (ProgramKind::Switch, ArchClass::Rmt | ArchClass::Drmt | ArchClass::Tiled) => true,
            (ProgramKind::Nic, ArchClass::SmartNic) => true,
            (ProgramKind::Host, ArchClass::Host) => true,
            // NIC programs can also run on the host (software fallback).
            (ProgramKind::Nic, ArchClass::Host) => true,
            _ => false,
        }
    }

    /// Total capacity in this architecture's own resource kinds.
    pub fn capacity(&self) -> ResourceVec {
        match self {
            Architecture::Rmt { stages, per_stage } => per_stage.scaled(*stages as u64),
            Architecture::Drmt { pool, .. } => *pool,
            Architecture::Tiled {
                hash_tiles,
                index_tiles,
                tcam_tiles,
                pem_elements,
            } => ResourceVec::from_pairs([
                (ResourceKind::HashTiles, *hash_tiles),
                (ResourceKind::IndexTiles, *index_tiles),
                (ResourceKind::TcamTiles, *tcam_tiles),
                (ResourceKind::PemElements, *pem_elements),
                (ResourceKind::ParserEntries, 256),
            ]),
            Architecture::SmartNic { cores, dram_mb } | Architecture::Host { cores, dram_mb } => {
                ResourceVec::from_pairs([
                    (ResourceKind::CpuMillis, cores * 1000),
                    (ResourceKind::DramMb, *dram_mb),
                ])
            }
        }
    }

    /// Translates a *canonical* element demand (SRAM/TCAM/action-slot/… as
    /// estimated by `flexnet_lang::ir`) into this architecture's own
    /// resource kinds.
    pub fn normalize(&self, demand: &ResourceVec) -> ResourceVec {
        match self.class() {
            // RMT and dRMT consume canonical kinds natively.
            ArchClass::Rmt | ArchClass::Drmt => *demand,
            ArchClass::Tiled => {
                let mut out = ResourceVec::new();
                let sram = demand.get(ResourceKind::SramKb);
                if sram > 0 {
                    // 64 KiB of exact-match per hash tile.
                    out.add_amount(ResourceKind::HashTiles, sram.div_ceil(64));
                }
                let tcam = demand.get(ResourceKind::TcamKb);
                if tcam > 0 {
                    // 16 KiB of TCAM per tile.
                    out.add_amount(ResourceKind::TcamTiles, tcam.div_ceil(16));
                }
                let regs = demand.get(ResourceKind::RegisterCells);
                let meters = demand.get(ResourceKind::MeterSlots);
                if regs > 0 || meters > 0 {
                    // 4096 cells / 512 meters per index tile.
                    out.add_amount(
                        ResourceKind::IndexTiles,
                        regs.div_ceil(4096).max(meters.div_ceil(512)),
                    );
                }
                let slots = demand.get(ResourceKind::ActionSlots);
                if slots > 0 {
                    // 16 action slots per PEM element.
                    out.add_amount(ResourceKind::PemElements, slots.div_ceil(16));
                }
                let parser = demand.get(ResourceKind::ParserEntries);
                if parser > 0 {
                    out.add_amount(ResourceKind::ParserEntries, parser);
                }
                out
            }
            ArchClass::SmartNic | ArchClass::Host => {
                let mut out = ResourceVec::new();
                // Memory-like demands become DRAM; TCAM is emulated at 4x.
                let mb = demand.get(ResourceKind::SramKb).div_ceil(1024)
                    + demand
                        .get(ResourceKind::TcamKb)
                        .saturating_mul(4)
                        .div_ceil(1024)
                    + demand.get(ResourceKind::RegisterCells).saturating_mul(8) / (1024 * 1024)
                    + u64::from(demand.get(ResourceKind::RegisterCells) > 0);
                if mb > 0 {
                    out.add_amount(ResourceKind::DramMb, mb);
                }
                // Compute-like demands become milli-cores.
                let cpu = demand.get(ResourceKind::ActionSlots)
                    + demand.get(ResourceKind::MeterSlots) / 8;
                if cpu > 0 {
                    out.add_amount(ResourceKind::CpuMillis, cpu);
                }
                // Parsing is software: free.
                out
            }
        }
    }
}

/// Where an element landed on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// RMT: a specific pipeline stage.
    Stage(usize),
    /// Pooled architectures: the shared pool.
    Pool,
}

/// One placed element: its name, where it sits and what it takes there.
pub(crate) type Placed = (Arc<str>, Location, ResourceVec);

/// Per-device resource allocator enforcing the architecture's structure.
///
/// Elements are keyed by shared names: a placement made from a
/// reconfiguration plan keeps the plan's pointer, so a clone copies
/// pointers, not names. The placements are one vector in name order, so
/// a clone is one allocation, not a tree of nodes.
#[derive(Debug, Clone)]
pub struct ArchAllocator {
    arch: Architecture,
    stage_used: Vec<ResourceVec>,
    pool_used: ResourceVec,
    /// Every placed element, by name.
    locations: Vec<Placed>,
}

impl ArchAllocator {
    /// A fresh allocator for `arch`.
    pub fn new(arch: Architecture) -> ArchAllocator {
        let stages = match &arch {
            Architecture::Rmt { stages, .. } => *stages,
            _ => 0,
        };
        ArchAllocator {
            arch,
            stage_used: vec![ResourceVec::new(); stages],
            pool_used: ResourceVec::new(),
            locations: Vec::new(),
        }
    }

    /// The architecture this allocator manages.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// Allocates `canonical_demand` for `name`.
    ///
    /// `min_stage` (RMT only) is the earliest stage the element may occupy —
    /// callers derive it from control-flow dependencies so that a dependent
    /// table sits in a later stage than its producers.
    pub fn alloc(
        &mut self,
        name: Arc<str>,
        canonical_demand: &ResourceVec,
        min_stage: usize,
    ) -> Result<Location> {
        let Err(at) = self.find(&name) else {
            return Err(FlexError::Compile(format!(
                "element `{name}` is already placed"
            )));
        };
        let demand = self.arch.normalize(canonical_demand);
        match &self.arch {
            Architecture::Rmt { stages, per_stage } => {
                for stage in min_stage..*stages {
                    let mut tentative = self.stage_used[stage];
                    tentative += &demand;
                    if per_stage.covers(&tentative) {
                        self.stage_used[stage] = tentative;
                        let placed = (name, Location::Stage(stage), demand);
                        self.locations.insert(at, placed);
                        return Ok(Location::Stage(stage));
                    }
                }
                Err(FlexError::ResourceExhausted {
                    needed: Box::new(demand),
                    available: Box::new(self.available()),
                    context: format!("`{name}` (no stage >= {min_stage} fits)"),
                })
            }
            _ => {
                let cap = self.arch.capacity();
                let mut tentative = self.pool_used;
                tentative += &demand;
                if cap.covers(&tentative) {
                    self.pool_used = tentative;
                    self.locations.insert(at, (name, Location::Pool, demand));
                    Ok(Location::Pool)
                } else {
                    Err(FlexError::ResourceExhausted {
                        needed: Box::new(demand),
                        available: Box::new(self.available()),
                        context: format!("`{name}`"),
                    })
                }
            }
        }
    }

    /// Frees a previously allocated element, returning its location.
    pub fn free(&mut self, name: &str) -> Result<Location> {
        match self.take(name) {
            Some((_, loc, _)) => Ok(loc),
            None => Err(FlexError::NotFound(format!("placement of `{name}`"))),
        }
    }

    /// Frees an element, returning its placement for
    /// [`ArchAllocator::restore`].
    pub(crate) fn take(&mut self, name: &str) -> Option<Placed> {
        let at = self.find(name).ok()?;
        let placed = self.locations.remove(at);
        let (_, loc, demand) = &placed;
        match *loc {
            Location::Stage(s) => {
                self.stage_used[s] = self.stage_used[s].saturating_sub(demand);
            }
            Location::Pool => {
                self.pool_used = self.pool_used.saturating_sub(demand);
            }
        }
        Some(placed)
    }

    /// Puts back a placement [`ArchAllocator::take`] returned, where it
    /// was and with the demand it had. It undoes that free, so the room is
    /// not checked again: nothing placed since may hold it. A name placed
    /// again meanwhile keeps its new placement.
    pub(crate) fn restore(&mut self, placed: Placed) {
        let Err(at) = self.find(&placed.0) else {
            return;
        };
        match placed.1 {
            Location::Stage(s) => self.stage_used[s] += &placed.2,
            Location::Pool => self.pool_used += &placed.2,
        }
        self.locations.insert(at, placed);
    }

    /// The location of an element, if placed.
    pub fn location(&self, name: &str) -> Option<Location> {
        let at = self.find(name).ok()?;
        Some(self.locations[at].1)
    }

    /// Names of all placed elements, in name order.
    pub fn placed(&self) -> impl Iterator<Item = &str> {
        self.locations.iter().map(|(name, ..)| &**name)
    }

    /// Where `name` is in the placements, or where it would go.
    fn find(&self, name: &str) -> std::result::Result<usize, usize> {
        self.locations
            .binary_search_by(|(placed, ..)| (**placed).cmp(name))
    }

    /// Total used resources (arch kinds).
    pub fn used(&self) -> ResourceVec {
        let mut total = self.pool_used;
        for s in &self.stage_used {
            total += s;
        }
        total
    }

    /// Remaining resources (arch kinds). For RMT this is the *sum* of
    /// per-stage leftovers — fragmented capacity an allocation may still
    /// fail to use, which is precisely the RMT fungibility limitation.
    pub fn available(&self) -> ResourceVec {
        self.arch.capacity().saturating_sub(&self.used())
    }

    /// Max-component utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.used().utilization_of(&self.arch.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram(kb: u64) -> ResourceVec {
        ResourceVec::of(ResourceKind::SramKb, kb)
    }

    #[test]
    fn class_and_support_matrix() {
        assert!(Architecture::rmt_default().supports(ProgramKind::Switch));
        assert!(!Architecture::rmt_default().supports(ProgramKind::Host));
        assert!(Architecture::host_default().supports(ProgramKind::Nic));
        assert!(Architecture::smartnic_default().supports(ProgramKind::Nic));
        assert!(!Architecture::smartnic_default().supports(ProgramKind::Switch));
        for a in [
            Architecture::rmt_default(),
            Architecture::drmt_default(),
            Architecture::tiled_default(),
            Architecture::smartnic_default(),
            Architecture::host_default(),
        ] {
            assert!(a.supports(ProgramKind::Any));
        }
    }

    #[test]
    fn rmt_respects_stage_capacity_and_min_stage() {
        let arch = Architecture::Rmt {
            stages: 2,
            per_stage: sram(100),
        };
        let mut a = ArchAllocator::new(arch);
        assert_eq!(
            a.alloc("t1".into(), &sram(80), 0).unwrap(),
            Location::Stage(0)
        );
        // t2 doesn't fit in stage 0 (only 20 left) -> stage 1.
        assert_eq!(
            a.alloc("t2".into(), &sram(50), 0).unwrap(),
            Location::Stage(1)
        );
        // min_stage 1 with 60 demanded: stage 1 has 50 left -> fails even
        // though stage 0 has 20 and total 70 remain (fragmentation).
        let err = a.alloc("t3".into(), &sram(60), 1).unwrap_err();
        assert!(matches!(err, FlexError::ResourceExhausted { .. }));
        // Freeing t2 makes stage 1 fit.
        a.free("t2").unwrap();
        assert_eq!(
            a.alloc("t3".into(), &sram(60), 1).unwrap(),
            Location::Stage(1)
        );
    }

    #[test]
    fn rmt_fragmentation_vs_drmt_pooling() {
        // Same total capacity; RMT splits into 4 stages of 100, dRMT pools 400.
        let rmt = Architecture::Rmt {
            stages: 4,
            per_stage: sram(100),
        };
        let drmt = Architecture::Drmt {
            processors: 4,
            pool: sram(400),
        };
        let mut ra = ArchAllocator::new(rmt);
        let mut da = ArchAllocator::new(drmt);
        // Four 60KB tables fill each RMT stage's majority…
        for i in 0..4 {
            ra.alloc(format!("t{i}").into(), &sram(60), 0).unwrap();
            da.alloc(format!("t{i}").into(), &sram(60), 0).unwrap();
        }
        // …so a 150KB table fails on RMT (no single stage has 150)…
        assert!(ra.alloc("big".into(), &sram(150), 0).is_err());
        // …but succeeds on dRMT (pool has 160 left).
        da.alloc("big".into(), &sram(150), 0).unwrap();
    }

    #[test]
    fn tiled_normalization() {
        let t = Architecture::tiled_default();
        let d = ResourceVec::from_pairs([
            (ResourceKind::SramKb, 100),         // -> 2 hash tiles
            (ResourceKind::TcamKb, 20),          // -> 2 tcam tiles
            (ResourceKind::ActionSlots, 20),     // -> 2 pem
            (ResourceKind::RegisterCells, 5000), // -> 2 index tiles
        ]);
        let n = t.normalize(&d);
        assert_eq!(n.get(ResourceKind::HashTiles), 2);
        assert_eq!(n.get(ResourceKind::TcamTiles), 2);
        assert_eq!(n.get(ResourceKind::PemElements), 2);
        assert_eq!(n.get(ResourceKind::IndexTiles), 2);
        assert_eq!(n.get(ResourceKind::SramKb), 0, "canonical kinds consumed");
    }

    #[test]
    fn host_normalization_fully_fungible() {
        let h = Architecture::host_default();
        let d = ResourceVec::from_pairs([
            (ResourceKind::SramKb, 2048),
            (ResourceKind::TcamKb, 256),
            (ResourceKind::ActionSlots, 100),
        ]);
        let n = h.normalize(&d);
        assert!(n.get(ResourceKind::DramMb) >= 3, "2MB sram + 1MB tcam-emu");
        assert_eq!(n.get(ResourceKind::CpuMillis), 100);
    }

    #[test]
    fn pool_alloc_free_roundtrip() {
        let mut a = ArchAllocator::new(Architecture::smartnic_default());
        let d = ResourceVec::of(ResourceKind::ActionSlots, 500);
        a.alloc("h".into(), &d, 0).unwrap();
        assert!(a.alloc("h".into(), &d, 0).is_err(), "duplicate placement");
        assert!(a.utilization() > 0.0);
        assert_eq!(a.location("h"), Some(Location::Pool));
        a.free("h").unwrap();
        assert!(a.free("h").is_err());
        assert_eq!(a.utilization(), 0.0);
    }

    #[test]
    fn pool_exhaustion() {
        let mut a = ArchAllocator::new(Architecture::Drmt {
            processors: 1,
            pool: sram(10),
        });
        a.alloc("a".into(), &sram(8), 0).unwrap();
        assert!(a.alloc("b".into(), &sram(8), 0).is_err());
        assert_eq!(a.available(), sram(2));
    }

    #[test]
    fn capacity_shapes() {
        let rmt = Architecture::rmt_default();
        assert_eq!(
            rmt.capacity().get(ResourceKind::SramKb),
            12 * 1280,
            "RMT capacity = stages x per-stage"
        );
        let tiled = Architecture::tiled_default();
        assert_eq!(tiled.capacity().get(ResourceKind::HashTiles), 32);
        let host = Architecture::host_default();
        assert_eq!(host.capacity().get(ResourceKind::CpuMillis), 4000);
    }
}
