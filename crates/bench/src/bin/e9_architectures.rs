//! E9 — Resource fungibility across device architectures (paper §3.3 i–iv).
//!
//! "Resource fungibility varies across device architectures" — RMT is
//! fungible only within a stage, dRMT pools memory and action resources,
//! tiled devices are fungible within tile types, and SmartNICs/hosts are
//! "essentially fully fungible".
//!
//! The same reallocation task runs on each architecture: a device is first
//! filled to ~90% with small exact-match tables, then asked to host
//! one large element. We report whether it fits in place, and if not, how
//! many resident elements must be relocated (defragmentation moves) before
//! it fits — or whether no amount of moving helps (type-segregated tiles).

use flexnet::prelude::*;
use flexnet_bench::{header, row, sep};
use flexnet_dataplane::ArchAllocator;

/// Fills the allocator with up to 16 small tables; returns the placed names.
fn fill(alloc: &mut ArchAllocator, sram_each: u64) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..16 {
        let name = format!("small{i}");
        let demand = ResourceVec::from_pairs([
            (ResourceKind::SramKb, sram_each),
            (ResourceKind::ActionSlots, 8),
        ]);
        if alloc.alloc(name.as_str().into(), &demand, 0).is_ok() {
            names.push(name);
        }
    }
    names
}

/// Attempts to place `demand`; if it fails, frees resident elements one at
/// a time (the "moves" — they would be re-placed elsewhere in a fungible
/// network) until it fits. Returns (fits_in_place, moves, fits_at_all).
fn realloc_task(
    alloc: &mut ArchAllocator,
    resident: &[String],
    demand: &ResourceVec,
) -> (bool, usize, bool) {
    if alloc.alloc("big".into(), demand, 0).is_ok() {
        return (true, 0, true);
    }
    let mut moves = 0;
    for name in resident {
        if alloc.free(name).is_ok() {
            moves += 1;
            if alloc.alloc("big".into(), demand, 0).is_ok() {
                return (false, moves, true);
            }
        }
    }
    (false, moves, false)
}

fn main() {
    header(
        "E9",
        "fungibility across architectures",
        "host/NIC (full) > dRMT (pooled) > RMT (per-stage) > tiled (per-type) \
         (paper \u{a7}3.3 i-iv)",
    );

    // Architectures scaled to comparable total SRAM-equivalent capacity so
    // the task is fair: ~1024 KiB of exact-match capacity each.
    let archs: Vec<(&str, Architecture)> = vec![
        (
            "rmt (8 stages)",
            Architecture::Rmt {
                stages: 8,
                per_stage: ResourceVec::from_pairs([
                    (ResourceKind::SramKb, 128),
                    (ResourceKind::TcamKb, 8),
                    (ResourceKind::ActionSlots, 64),
                ]),
            },
        ),
        (
            "drmt (pool)",
            Architecture::Drmt {
                processors: 8,
                pool: ResourceVec::from_pairs([
                    (ResourceKind::SramKb, 1024),
                    (ResourceKind::TcamKb, 64),
                    (ResourceKind::ActionSlots, 512),
                ]),
            },
        ),
        (
            "tiled",
            Architecture::Tiled {
                hash_tiles: 16, // 16 x 64 KiB = 1024 KiB exact capacity
                index_tiles: 4,
                tcam_tiles: 2, // 32 KiB of TCAM total
                pem_elements: 64,
            },
        ),
        (
            "smartnic",
            Architecture::SmartNic {
                cores: 4,
                dram_mb: 8, // coarse MB granularity; ~comparable capacity
            },
        ),
    ];

    println!("\n--- task A: one 100 KiB exact table onto a ~90%-full device ---\n");
    row(&[
        "architecture",
        "fits-in-place",
        "moves-needed",
        "fits-at-all",
    ]);
    sep(4);
    let big_exact =
        ResourceVec::from_pairs([(ResourceKind::SramKb, 100), (ResourceKind::ActionSlots, 16)]);
    for (name, arch) in &archs {
        let mut alloc = ArchAllocator::new(arch.clone());
        let resident = fill(&mut alloc, 60); // up to 16 x 60 KiB
        let (in_place, moves, at_all) = realloc_task(&mut alloc, &resident, &big_exact);
        row(&[
            name,
            if in_place { "yes" } else { "no" },
            &moves.to_string(),
            if at_all { "yes" } else { "NO" },
        ]);
    }

    println!("\n--- task B: one 64 KiB TCAM (ternary) table onto the same fill ---\n");
    row(&[
        "architecture",
        "fits-in-place",
        "moves-needed",
        "fits-at-all",
    ]);
    sep(4);
    let big_tcam =
        ResourceVec::from_pairs([(ResourceKind::TcamKb, 64), (ResourceKind::ActionSlots, 16)]);
    for (name, arch) in &archs {
        let mut alloc = ArchAllocator::new(arch.clone());
        let resident = fill(&mut alloc, 60);
        let (in_place, moves, at_all) = realloc_task(&mut alloc, &resident, &big_tcam);
        row(&[
            name,
            if in_place { "yes" } else { "no" },
            &moves.to_string(),
            if at_all { "yes" } else { "NO" },
        ]);
    }

    println!(
        "\nshape check: pooled architectures (dRMT, SmartNIC) need at most one \
         move; RMT needs more — its free SRAM is fragmented across stages — \
         and cannot host TCAM beyond a stage's slice at all; the tiled device \
         cannot host the big TCAM table no matter how many hash-tile residents \
         move (fungibility stops at the tile-type boundary)."
    );
}
