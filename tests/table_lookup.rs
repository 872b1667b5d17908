//! Table lookups held to the reference scan (`common/table_scan.rs`).
//!
//! Seeded histories of `insert`, `remove`, `set_entries` and
//! `TableSet::modify_table` run on tables of one to three keys whose
//! entries mix all four match kinds, up to a few thousand entries. After
//! every step the table's entries must equal a model list kept in
//! installation order, and `lookup`, `lookup_resolved` and `lookup_burst`
//! must return the scan's winner — the very entry, not an equal one — or
//! its miss on every drawn key tuple. The draws make ties common: small
//! priority and value ranges, duplicated keys at other priorities, LPM
//! prefixes of length 0 and longer than their width, widths that share a
//! shift, and ternary masks from a small pool.

#[path = "common/table_scan.rs"]
mod table_scan;

use flexnet_dataplane::{KeyMatch, TableEntry, TableInstance, TableSet, BURST_MISS};
use flexnet_lang::ast::{ActionCall, ActionDecl, FieldPath, MatchKind, TableDecl, TableKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use table_scan::scan;

const ACTIONS: [&str; 3] = ["a", "b", "c"];

fn decl(arity: usize, size: u64, actions: &[&str]) -> Arc<TableDecl> {
    Arc::new(TableDecl {
        name: "t".into(),
        keys: (0..arity)
            .map(|i| TableKey {
                field: FieldPath::Header("h".into(), format!("f{i}")),
                match_kind: MatchKind::Ternary,
            })
            .collect(),
        actions: actions
            .iter()
            .map(|a| ActionDecl {
                name: (*a).into(),
                params: vec![("x".into(), 32)],
                body: vec![],
            })
            .collect(),
        default_action: None,
        size,
    })
}

/// One history's shape: its arity, each key's field width, the match
/// kinds its entries draw from and how its steps are weighted.
struct Shape {
    arity: usize,
    widths: Vec<u8>,
    /// Which of exact, LPM, ternary, range an entry's key may be.
    kinds: [bool; 4],
    /// Entries to bulk-load before the history's steps.
    bulk: usize,
    steps: usize,
}

struct Draw {
    rng: StdRng,
    shape: Shape,
    serial: u64,
}

impl Draw {
    fn key_match(&mut self, pos: usize) -> KeyMatch {
        let w = self.shape.widths[pos];
        let kinds: Vec<usize> = (0..4).filter(|&k| self.shape.kinds[k]).collect();
        let rng = &mut self.rng;
        match kinds[rng.gen_range(0..kinds.len())] {
            // A small domain, so lookups hit and keys repeat.
            0 => KeyMatch::Exact(rng.gen_range(0..32u64)),
            1 => {
                // The field's width, or 8 more with a prefix 8 longer: the
                // same shift, so both land in one mask tuple.
                let wider = rng.gen_range(0..4u8) == 0;
                let width = if wider { w + 8 } else { w };
                let prefix_len = match rng.gen_range(0..8u8) {
                    0 => 0,
                    1 => width + rng.gen_range(1..3u8),
                    _ => rng.gen_range(1..=width),
                };
                KeyMatch::Lpm {
                    value: rng.gen_range(0..1u64 << (width as u32).min(40)),
                    prefix_len,
                    width,
                }
            }
            2 => {
                let full = (1u64 << w) - 1;
                let pool = [full, full & !0xf, full & 0xf0, 0, 0b1010_1010 & full];
                let mask = match rng.gen_range(0..6usize) {
                    5 => rng.gen_range(0..=full),
                    i => pool[i],
                };
                KeyMatch::Ternary {
                    value: rng.gen_range(0..=full),
                    mask,
                }
            }
            _ => {
                let lo = rng.gen_range(0..32u64);
                KeyMatch::Range {
                    lo,
                    hi: lo + rng.gen_range(0..16u64),
                }
            }
        }
    }

    /// A new entry, or — one time in five when there are any — another
    /// entry's keys at a drawn priority.
    fn entry(&mut self, held: &[TableEntry]) -> TableEntry {
        let matches = if !held.is_empty() && self.rng.gen_range(0..5u8) == 0 {
            held[self.rng.gen_range(0..held.len())].matches.clone()
        } else {
            (0..self.shape.arity).map(|p| self.key_match(p)).collect()
        };
        self.serial += 1;
        TableEntry {
            matches,
            priority: self.rng.gen_range(-2..3i32),
            action: ActionCall {
                action: ACTIONS[self.rng.gen_range(0..ACTIONS.len())].into(),
                args: vec![self.serial],
            },
        }
    }

    /// A key tuple: under a held entry's cared-for bits half the time,
    /// else random in a small domain (at times with bits above the
    /// field's width).
    fn keys(&mut self, held: &[TableEntry]) -> Vec<u64> {
        let under = !held.is_empty() && self.rng.gen_range(0..2u8) == 0;
        let e = (!held.is_empty()).then(|| held[self.rng.gen_range(0..held.len())].clone());
        (0..self.shape.arity)
            .map(|p| {
                let w = self.shape.widths[p];
                let noise = self.rng.gen_range(0..1u64 << w);
                match (&e, under) {
                    (Some(e), true) => match e.matches[p] {
                        KeyMatch::Exact(v) => v,
                        KeyMatch::Lpm {
                            value,
                            prefix_len,
                            width,
                        } => {
                            let low = (width as u32).saturating_sub(prefix_len as u32);
                            let keep = u64::MAX.checked_shl(low).unwrap_or(0);
                            (value & keep) | (noise & !keep)
                        }
                        KeyMatch::Ternary { value, mask } => (value & mask) | (noise & !mask),
                        KeyMatch::Range { lo, hi } => lo + noise % (hi - lo + 1),
                    },
                    _ => match self.rng.gen_range(0..8u8) {
                        0 => noise | 1 << w,
                        1..=3 => noise % 32,
                        _ => noise,
                    },
                }
            })
            .collect()
    }
}

/// Every way to look `keys` up gives the scan's winner.
fn check_lookups(t: &TableInstance, draw: &mut Draw, tuples: usize, at: &str) {
    let (entries, arity) = (t.entries(), draw.shape.arity);
    let mut flat = Vec::new();
    let mut want = Vec::new();
    for _ in 0..tuples {
        let keys = draw.keys(entries);
        let expect = scan(entries, arity, &keys);
        let got = t.lookup(&keys).map(|e| {
            (e as *const TableEntry as usize - entries.as_ptr() as usize) / size_of::<TableEntry>()
        });
        assert_eq!(got, expect, "{at}: lookup {keys:?}");
        let resolved = t.lookup_resolved(&keys);
        let expect_resolved = expect.map(|i| {
            let a = &entries[i].action;
            let slot = ACTIONS.iter().position(|n| *n == a.action).unwrap() as u16;
            (slot, a.args.as_slice())
        });
        assert_eq!(resolved, expect_resolved, "{at}: lookup_resolved {keys:?}");
        flat.extend_from_slice(&keys);
        want.push(expect.map_or(BURST_MISS, |i| i as u32));
    }
    let mut hits = Vec::new();
    t.lookup_burst(&flat, arity, &mut hits);
    assert_eq!(hits, want, "{at}: lookup_burst");
    // Another arity misses every tuple; arity 0 has none.
    t.lookup_burst(&flat, arity + 1, &mut hits);
    assert_eq!(hits, vec![BURST_MISS; flat.len() / (arity + 1)], "{at}");
    t.lookup_burst(&flat, 0, &mut hits);
    assert!(hits.is_empty(), "{at}");
    assert_eq!(t.lookup(&flat[..arity.saturating_sub(1)]), None, "{at}");
}

/// Runs one seeded history; panics at the first step that disagrees.
fn history(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.gen_range(1..=3usize);
    let mut kinds = [false; 4];
    match rng.gen_range(0..6u8) {
        k @ 0..=3 => kinds[k as usize] = true,
        _ => kinds = [true; 4],
    }
    let bulk = if seed % 8 == 7 { 2500 } else { 0 };
    let shape = Shape {
        arity,
        widths: (0..arity)
            .map(|_| [8, 12, 16][rng.gen_range(0..3usize)])
            .collect(),
        kinds,
        bulk,
        steps: 120,
    };
    let mut draw = Draw {
        rng,
        shape,
        serial: 0,
    };
    let mut size = 4096u64;
    let mut set = TableSet::from_decls(&[decl(arity, size, &ACTIONS)]);
    let mut model: Vec<TableEntry> = Vec::new();
    for _ in 0..draw.shape.bulk {
        let e = draw.entry(&model);
        model.push(e.clone());
        set.get_mut("t").unwrap().insert(e).unwrap();
    }
    for step in 0..draw.shape.steps {
        let at = format!("seed {seed} step {step}");
        let t = set.get_mut("t").unwrap();
        match draw.rng.gen_range(0..20u8) {
            0..=10 => {
                let mut e = draw.entry(&model);
                if draw.rng.gen_range(0..16u8) == 0 {
                    e.action.action = "nope".into();
                }
                let fits = (model.len() as u64) < size && ACTIONS.contains(&&*e.action.action);
                assert_eq!(t.insert(e.clone()).is_ok(), fits, "{at}: insert");
                if fits {
                    model.push(e);
                }
            }
            11..=14 => {
                let matches = if model.is_empty() || draw.rng.gen_range(0..4u8) == 0 {
                    draw.entry(&[]).matches
                } else {
                    model[draw.rng.gen_range(0..model.len())].matches.clone()
                };
                let before = model.len();
                model.retain(|e| e.matches != matches);
                assert_eq!(t.remove(&matches), before - model.len(), "{at}: remove");
            }
            15..=16 => {
                // A shuffled mix of held entries and new ones; at times
                // more than fit, which must change nothing.
                let mut next: Vec<TableEntry> = model
                    .iter()
                    .filter(|_| draw.rng.gen_range(0..3u8) > 0)
                    .cloned()
                    .collect();
                for _ in 0..draw.rng.gen_range(0..24usize) {
                    let e = draw.entry(&model);
                    let at = draw.rng.gen_range(0..=next.len());
                    next.insert(at, e);
                }
                for i in (1..next.len()).rev() {
                    next.swap(i, draw.rng.gen_range(0..=i));
                }
                let fits = next.len() as u64 <= size;
                assert_eq!(t.set_entries(&next).is_ok(), fits, "{at}: set_entries");
                if fits {
                    model = next;
                }
            }
            17 => {
                // A new size and action list: entries that still fit
                // migrate in order.
                size = draw.rng.gen_range(1..=model.len() as u64 + 8);
                let actions: Vec<&str> = ACTIONS
                    .iter()
                    .copied()
                    .filter(|_| draw.rng.gen_range(0..4u8) > 0)
                    .chain(["a"])
                    .collect();
                let mut kept = Vec::new();
                for e in &model {
                    if (kept.len() as u64) < size && actions.contains(&&*e.action.action) {
                        kept.push(e.clone());
                    }
                }
                let migrated = set.modify_table(decl(arity, size, &actions)).unwrap();
                assert_eq!(migrated, kept.len(), "{at}: modify_table");
                model = kept;
                // The declaration may have dropped actions; widen it back
                // so later inserts draw from all three.
                size = size.max(64);
                let migrated = set.modify_table(decl(arity, size, &ACTIONS)).unwrap();
                assert_eq!(migrated, model.len(), "{at}");
            }
            _ => {
                let clone = t.clone();
                assert_eq!(&clone, t);
                check_lookups(&clone, &mut draw, 16, &format!("{at} (a clone)"));
            }
        }
        let t = set.get("t").unwrap();
        assert_eq!(t.entries(), model.as_slice(), "{at}: installation order");
        check_lookups(t, &mut draw, if step == 0 { 256 } else { 24 }, &at);
    }
}

#[test]
fn lookups_equal_the_reference_scan_over_any_history() {
    for seed in 0..64 {
        history(seed);
    }
}

#[test]
fn pinned_corners_equal_the_reference_scan() {
    let lpm = |value: u64, prefix_len: u8, width: u8| KeyMatch::Lpm {
        value,
        prefix_len,
        width,
    };
    let entry = |matches: Vec<KeyMatch>, priority: i32, n: u64| TableEntry {
        matches,
        priority,
        action: ActionCall {
            action: "a".into(),
            args: vec![n],
        },
    };
    let cases: Vec<Vec<TableEntry>> = vec![
        // Duplicate keys at other priorities, and an exact tie.
        vec![
            entry(vec![KeyMatch::Exact(5)], 1, 0),
            entry(vec![KeyMatch::Exact(5)], 3, 1),
            entry(vec![KeyMatch::Exact(5)], 3, 2),
            entry(vec![KeyMatch::Exact(5)], 2, 3),
        ],
        // Prefix 0 (matches all), prefix longer than the width (all bits,
        // those above the width included), and widths sharing a shift.
        vec![
            entry(vec![lpm(0xabcd, 0, 16)], 0, 0),
            entry(vec![lpm(0x1ab, 10, 8)], 0, 1),
            entry(vec![lpm(0xa0, 4, 8)], 0, 2),
            entry(vec![lpm(0xaa0, 12, 16)], 0, 3),
            entry(vec![lpm(0xab0, 12, 16)], 0, 4),
        ],
        // A range beside a ternary that masks everything: one mask tuple.
        vec![
            entry(vec![KeyMatch::Range { lo: 3, hi: 9 }], 1, 0),
            entry(vec![KeyMatch::Ternary { value: 0, mask: 0 }], 1, 1),
            entry(vec![KeyMatch::Range { lo: 5, hi: 6 }], 1, 2),
        ],
    ];
    let probes = [
        0u64, 3, 5, 6, 9, 10, 0xa0, 0xa5, 0xab, 0xaf, 0x1ab, 0xaa5, 0xab5, 0xfff, 0x1_0000,
    ];
    for (c, entries) in cases.iter().enumerate() {
        let mut t = TableInstance::new(decl(1, 64, &ACTIONS));
        for e in entries {
            t.insert(e.clone()).unwrap();
        }
        let check = |t: &TableInstance, what: &str| {
            for k in probes {
                let want = scan(t.entries(), 1, &[k]).map(|i| &t.entries()[i]);
                assert_eq!(
                    t.lookup(&[k]).map(|e| &e.action),
                    want.map(|e| &e.action),
                    "case {c} {what} key {k:#x}"
                );
            }
        };
        check(&t, "inserted");
        // Removing each distinct key tuple in turn keeps agreeing.
        for e in entries {
            t.remove(&e.matches);
            check(&t, "after a remove");
        }
        assert!(t.is_empty());
    }
    // Pinned winners of the first two cases.
    let mut t = TableInstance::new(decl(1, 64, &ACTIONS));
    cases[0].iter().for_each(|e| t.insert(e.clone()).unwrap());
    assert_eq!(
        t.lookup(&[5]).unwrap().action.args,
        [2],
        "the later of two equals"
    );
    let mut t = TableInstance::new(decl(1, 64, &ACTIONS));
    cases[1].iter().for_each(|e| t.insert(e.clone()).unwrap());
    let won = |t: &TableInstance, k: u64| t.lookup(&[k]).unwrap().action.args[0];
    assert_eq!(won(&t, 0x1ab), 1, "a /10 of an 8-bit field needs bit 8 too");
    assert_eq!(won(&t, 0xab), 2, "without bit 8 the /4 wins");
    assert_eq!(won(&t, 0xab5), 4, "a /12 of 16 bits outranks a /4 of 8");
    assert_eq!(won(&t, 0xfff), 0, "prefix 0 catches the rest");
}

#[test]
fn lpm_matching_keeps_the_shift_rule() {
    // For shifts below 64, `matches` is the historical
    // `(key >> shift) == (value >> shift)`, `shift = width − prefix_len`
    // saturating, with prefix 0 matching everything.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..100_000 {
        let width = rng.gen_range(1..=64u8);
        let prefix_len = rng.gen_range(0..=width + 4);
        let value: u64 = rng.gen();
        let key = match rng.gen_range(0..3u8) {
            0 => value ^ (1u64 << rng.gen_range(0..64u32)),
            1 => value,
            _ => rng.gen(),
        };
        let shift = width.saturating_sub(prefix_len) as u32;
        let want = prefix_len == 0 || (key >> shift) == (value >> shift);
        let m = KeyMatch::Lpm {
            value,
            prefix_len,
            width,
        };
        assert_eq!(m.matches(key), want, "{m:?} {key:#x}");
    }
}
