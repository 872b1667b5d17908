//! What a table's index costs, in counts rather than times: a bulk load
//! allocates only to grow the table's few vectors, a lookup of any kind
//! allocates nothing, and loading sixteen times the entries requests no
//! more bytes per entry. The probes a lookup makes are pinned beside the
//! index, in `table.rs`'s unit tests.
//!
//! This file holds exactly one test (see `common/counting_alloc.rs`).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{count, count_bytes};
use flexnet_dataplane::{KeyMatch, TableEntry, TableInstance};
use flexnet_lang::ast::{ActionCall, ActionDecl, FieldPath, MatchKind, TableDecl, TableKey};
use std::sync::Arc;

fn decl(kind: MatchKind, size: u64) -> Arc<TableDecl> {
    Arc::new(TableDecl {
        name: "t".into(),
        keys: vec![TableKey {
            field: FieldPath::Header("ipv4".into(), "dst".into()),
            match_kind: kind,
        }],
        actions: vec![ActionDecl {
            name: "out".into(),
            params: vec![("x".into(), 16)],
            body: vec![],
        }],
        default_action: None,
        size,
    })
}

fn out(x: u64) -> ActionCall {
    ActionCall {
        action: "out".into(),
        args: vec![x],
    }
}

/// `n` random /8–/32 prefixes of a 32-bit field (SplitMix64).
fn prefixes(n: usize) -> Vec<TableEntry> {
    let mut x = 0x15_7AB1E5u64;
    (0..n as u64)
        .map(|i| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let len = 8 + (z % 25) as u8;
            TableEntry {
                matches: vec![KeyMatch::Lpm {
                    value: (z >> 8) & (u32::MAX << (32 - len as u32)) as u64,
                    prefix_len: len,
                    width: 32,
                }],
                priority: 0,
                action: out(i),
            }
        })
        .collect()
}

/// Heap bytes requested per entry by loading `entries` into a new table.
fn load_bytes_per_entry(entries: Vec<TableEntry>) -> f64 {
    let n = entries.len();
    let mut t = TableInstance::new(decl(MatchKind::Lpm, 1 << 20));
    let (_, bytes, ()) = count_bytes(|| entries.into_iter().for_each(|e| t.insert(e).unwrap()));
    assert_eq!(t.len(), n);
    bytes as f64 / n as f64
}

#[test]
fn a_table_allocates_to_grow_and_a_lookup_allocates_nothing() {
    // 4 096 pre-built exact entries: the entries, key arena, slots and the
    // one group's buckets each grow by doubling, about 13 times apiece.
    const N: u64 = 4096;
    let entries: Vec<TableEntry> = (0..N)
        .map(|i| TableEntry::exact(&[i.wrapping_mul(0x9E37_79B9) & 0xffff_ffff], out(i)))
        .collect();
    let mut t = TableInstance::new(decl(MatchKind::Exact, N));
    let (load, ()) = count(|| entries.into_iter().for_each(|e| t.insert(e).unwrap()));
    println!("insert 4096 exact entries: {load} allocations");
    assert!(
        load <= 64,
        "{load} allocations for 4 096 inserts: not growth alone"
    );

    // Lookups, resolved lookups and bursts, hits and misses alike.
    let keys: Vec<u64> = (0..2 * N)
        .map(|i| i.wrapping_mul(0x9E37_79B9) & 0xffff_ffff)
        .collect();
    let mut hits = Vec::with_capacity(64);
    let (allocs, found) = count(|| {
        let mut found = 0;
        for k in &keys {
            found += t.lookup(&[*k]).is_some() as usize;
            found += t.lookup_resolved(&[*k]).is_some() as usize;
        }
        for burst in keys.chunks(64) {
            t.lookup_burst(burst, 1, &mut hits);
            found += hits
                .iter()
                .filter(|h| **h != flexnet_dataplane::BURST_MISS)
                .count();
        }
        found
    });
    assert_eq!(found, 3 * N as usize, "every installed key hits three ways");
    assert_eq!(allocs, 0, "a lookup allocated");

    // Loading sixteen times the LPM entries requests no more per entry.
    let small = load_bytes_per_entry(prefixes(4096));
    let large = load_bytes_per_entry(prefixes(65536));
    println!("bulk load bytes per entry: {small:.1} at 4 096, {large:.1} at 65 536");
    assert!(
        large <= 1.5 * small,
        "loading 65 536 entries requested {large:.1} B an entry, 4 096 {small:.1}"
    );
}
