//! The match/action table engine.
//!
//! Supports the four match kinds FlexBPF declares (exact, LPM, ternary,
//! range) with longest-prefix and priority semantics matching real switch
//! ASICs: exact tables behave like hash tables; LPM prefers longer prefixes;
//! ternary/range entries are ordered by explicit priority (higher wins).
//!
//! Lookup is indexed, not scanned: each entry's `(priority, specificity)`
//! rank and its action's declaration index are computed **once at insert
//! time**; entries are kept in a winner-first scan order; and a table whose
//! entries are all exact-match additionally maintains a hash index keyed by
//! the full key vector, making its lookups O(1). The winner a lookup
//! returns is bit-identical to the historical linear scan (highest
//! `(priority, total LPM specificity)`, ties broken toward the
//! latest-inserted entry).

use flexnet_lang::ast::{ActionCall, TableDecl};
use flexnet_types::{FlexError, Result};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel entry index [`TableInstance::lookup_burst`] writes for a miss.
pub const BURST_MISS: u32 = u32::MAX;

/// How one key of one entry matches a value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyMatch {
    /// Matches exactly this value.
    Exact(u64),
    /// Matches when the top `prefix_len` bits of a `width`-bit field agree.
    Lpm {
        /// The prefix value (low bits beyond the prefix are ignored).
        value: u64,
        /// Number of significant leading bits (0 = match anything).
        prefix_len: u8,
        /// The field width in bits (needed to align the prefix).
        width: u8,
    },
    /// Matches when `value & mask == key & mask`.
    Ternary {
        /// The pattern.
        value: u64,
        /// The care-bits mask.
        mask: u64,
    },
    /// Matches when `lo <= key <= hi`.
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
}

impl KeyMatch {
    /// Whether `key` satisfies this match.
    pub fn matches(&self, key: u64) -> bool {
        match self {
            KeyMatch::Exact(v) => key == *v,
            KeyMatch::Lpm {
                value,
                prefix_len,
                width,
            } => {
                if *prefix_len == 0 {
                    return true;
                }
                let shift = width.saturating_sub(*prefix_len) as u32;
                (key >> shift) == (value >> shift)
            }
            KeyMatch::Ternary { value, mask } => key & mask == value & mask,
            KeyMatch::Range { lo, hi } => key >= *lo && key <= *hi,
        }
    }

    /// Specificity used for tie-breaking LPM entries (longer prefix wins).
    fn lpm_len(&self) -> u8 {
        match self {
            KeyMatch::Lpm { prefix_len, .. } => *prefix_len,
            KeyMatch::Exact(_) => 64,
            _ => 0,
        }
    }
}

/// One installed table entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableEntry {
    /// Per-key match specifications (one per declared table key).
    pub matches: Vec<KeyMatch>,
    /// Explicit priority (higher wins) for ternary/range tables.
    pub priority: i32,
    /// The bound action.
    pub action: ActionCall,
}

impl TableEntry {
    /// An all-exact entry with priority 0.
    pub fn exact(keys: &[u64], action: ActionCall) -> TableEntry {
        TableEntry {
            matches: keys.iter().map(|k| KeyMatch::Exact(*k)).collect(),
            priority: 0,
            action,
        }
    }

    /// `(priority, total LPM specificity)` — the winner ordering.
    fn rank(&self) -> (i32, u32) {
        (
            self.priority,
            self.matches.iter().map(|m| m.lpm_len() as u32).sum(),
        )
    }

    /// The exact-match key vector, if every key is [`KeyMatch::Exact`].
    fn exact_keys(&self) -> Option<Vec<u64>> {
        self.matches
            .iter()
            .map(|m| match m {
                KeyMatch::Exact(v) => Some(*v),
                _ => None,
            })
            .collect()
    }
}

/// One table's installed entries plus its declaration.
///
/// The non-public fields are lookup indexes — pure functions of
/// `(decl, entries)` rebuilt on every mutation, so equality and the config
/// digest (which reads `entries` only) are unaffected by them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableInstance {
    /// The declaration this instance implements; shared with the copy a
    /// hitless flip makes of an unchanged table.
    pub decl: Arc<TableDecl>,
    /// Installed entries.
    pub entries: Vec<TableEntry>,
    /// `decl.keys.len()`, kept beside the entries so a lookup does not
    /// follow the declaration's pointer.
    arity: usize,
    /// Cached per-entry `(priority, specificity)` ranks (insert-time, not
    /// per-packet).
    ranks: Vec<(i32, u32)>,
    /// Per-entry action index within `decl.actions` (for the bytecode VM).
    action_slots: Vec<u16>,
    /// Entry indices, best rank first; ties prefer the later insert, which
    /// reproduces the historical scan's `max_by_key` tie-break exactly.
    order: Vec<u32>,
    /// Full-key-vector hash index, maintained while *every* entry is
    /// all-exact; `None` as soon as any entry needs prefix/mask/range
    /// matching.
    exact: Option<HashMap<Vec<u64>, u32>>,
}

impl TableInstance {
    /// An empty instance of `decl`, which it shares with whoever gave it.
    pub fn new(decl: Arc<TableDecl>) -> TableInstance {
        let mut t = TableInstance {
            arity: decl.keys.len(),
            decl,
            entries: Vec::new(),
            ranks: Vec::new(),
            action_slots: Vec::new(),
            order: Vec::new(),
            exact: None,
        };
        t.reindex();
        t
    }

    /// Rebuilds every index from `entries`. Called on mutation only — the
    /// packet path never touches this.
    fn reindex(&mut self) {
        self.ranks = self.entries.iter().map(TableEntry::rank).collect();
        self.action_slots = self
            .entries
            .iter()
            .map(|e| {
                self.decl
                    .actions
                    .iter()
                    .position(|a| a.name == e.action.action)
                    .map_or(u16::MAX, |i| i as u16)
            })
            .collect();
        let mut order: Vec<u32> = (0..self.entries.len() as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse((self.ranks[i as usize], i)));
        self.order = order;
        self.exact = self
            .entries
            .iter()
            .map(TableEntry::exact_keys)
            .collect::<Option<Vec<_>>>()
            .map(|keyvecs| {
                let mut m = HashMap::with_capacity(keyvecs.len());
                // Ascending preference, so the last write per key vector is
                // the rank/recency winner.
                for &i in self.order.iter().rev() {
                    m.insert(keyvecs[i as usize].clone(), i);
                }
                m
            });
    }

    /// Installs an entry, enforcing arity and capacity.
    pub fn insert(&mut self, entry: TableEntry) -> Result<()> {
        if entry.matches.len() != self.decl.keys.len() {
            return Err(FlexError::Reconfig(format!(
                "table `{}` expects {} keys, entry has {}",
                self.decl.name,
                self.decl.keys.len(),
                entry.matches.len()
            )));
        }
        if self.entries.len() as u64 >= self.decl.size {
            return Err(FlexError::Reconfig(format!(
                "table `{}` is full ({} entries)",
                self.decl.name, self.decl.size
            )));
        }
        if !self.decl.actions.iter().any(|a| a.name == entry.action.action) {
            return Err(FlexError::Reconfig(format!(
                "table `{}` has no action `{}`",
                self.decl.name, entry.action.action
            )));
        }
        // Incremental index maintenance: appends are the common bulk-load
        // path, and a full reindex per insert would make populating an
        // n-entry table O(n²). Removal (rare) still rebuilds everything.
        let idx = self.entries.len() as u32;
        let rank = entry.rank();
        let exact_keys = entry.exact_keys();
        self.ranks.push(rank);
        self.action_slots.push(
            self.decl
                .actions
                .iter()
                .position(|a| a.name == entry.action.action)
                .map_or(u16::MAX, |i| i as u16),
        );
        // `order` is sorted by `Reverse((rank, idx))`; find the insertion
        // point for the new entry (it wins every rank tie, being newest).
        let pos = self
            .order
            .partition_point(|&i| (self.ranks[i as usize], i) > (rank, idx));
        self.order.insert(pos, idx);
        match (&mut self.exact, exact_keys) {
            (Some(index), Some(keys)) => {
                // Newest entry wins a key collision unless the incumbent
                // outranks it.
                let incumbent = index.get(&keys).map(|&i| (self.ranks[i as usize], i));
                if incumbent.is_none_or(|inc| (rank, idx) > inc) {
                    index.insert(keys, idx);
                }
            }
            (exact, _) => *exact = None,
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Removes entries whose matches equal `matches` exactly; returns the
    /// number removed.
    pub fn remove(&mut self, matches: &[KeyMatch]) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.matches.as_slice() != matches);
        let removed = before - self.entries.len();
        if removed > 0 {
            self.reindex();
        }
        removed
    }

    /// The winning entry index for `keys`, via the hash index when every
    /// entry is exact, else the rank-ordered scan (first match wins).
    fn winner(&self, keys: &[u64]) -> Option<u32> {
        if keys.len() != self.arity {
            return None;
        }
        if let Some(index) = &self.exact {
            return index.get(keys).copied();
        }
        self.scan_winner(keys)
    }

    /// The rank-ordered scan half of [`TableInstance::winner`]; arity is
    /// already validated by the caller.
    fn scan_winner(&self, keys: &[u64]) -> Option<u32> {
        self.order.iter().copied().find(|&i| {
            self.entries[i as usize]
                .matches
                .iter()
                .zip(keys)
                .all(|(m, k)| m.matches(*k))
        })
    }

    /// Looks up `keys` (one value per declared key), returning the winning
    /// entry.
    ///
    /// Winner selection: among entries whose every key matches, the one with
    /// the highest `(priority, total LPM specificity)` wins — i.e. explicit
    /// priority dominates, then longest-prefix — with ties broken toward
    /// the most recently installed entry.
    pub fn lookup(&self, keys: &[u64]) -> Option<&TableEntry> {
        self.winner(keys).map(|i| &self.entries[i as usize])
    }

    /// Like [`TableInstance::lookup`], but returns the winner's action as
    /// its `(declaration index, argument borrow)` — the form the bytecode
    /// VM dispatches on without cloning or re-resolving the action name.
    #[inline]
    pub fn lookup_resolved(&self, keys: &[u64]) -> Option<(u16, &[u64])> {
        let i = self.winner(keys)? as usize;
        Some((self.action_slots[i], self.entries[i].action.args.as_slice()))
    }

    /// Batch lookup for the burst dataplane: resolves every key tuple in
    /// `keys` (a flat vector of `arity` values per tuple, burst-major) in
    /// one pass, pushing the winning entry index — or [`BURST_MISS`] — per
    /// tuple onto `out`.
    ///
    /// The branch between the all-exact hash index and the rank-ordered
    /// scan is taken once per burst instead of once per packet; per-tuple
    /// winner selection is identical to [`TableInstance::lookup`]. An
    /// `arity` that disagrees with the declaration marks every tuple a
    /// miss (the same outcome `winner` gives a malformed single lookup);
    /// `arity == 0` yields no tuples.
    pub fn lookup_burst(&self, keys: &[u64], arity: usize, out: &mut Vec<u32>) {
        out.clear();
        if arity == 0 {
            return;
        }
        if arity != self.arity {
            out.resize(keys.len() / arity, BURST_MISS);
            return;
        }
        match &self.exact {
            Some(index) => {
                for tuple in keys.chunks_exact(arity) {
                    out.push(index.get(tuple).copied().unwrap_or(BURST_MISS));
                }
            }
            None => {
                for tuple in keys.chunks_exact(arity) {
                    out.push(self.scan_winner(tuple).unwrap_or(BURST_MISS));
                }
            }
        }
    }

    /// Number of key components each entry of this table matches on.
    pub fn key_arity(&self) -> usize {
        self.arity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// All tables of one installed program.
///
/// Stored as a vector in installation order with a name index alongside, so
/// the bytecode fast path addresses tables by dense slot. Removal is
/// order-preserving (later slots shift down), mirroring how
/// `ReconfigOp::RemoveTable` compacts the program's declaration list — the
/// device recompiles its image after any such change, keeping slots aligned.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSet {
    tables: Vec<TableInstance>,
    index: BTreeMap<String, usize>,
}

impl TableSet {
    /// Builds instances for every table declaration of a program.
    pub fn from_decls(decls: &[Arc<TableDecl>]) -> TableSet {
        TableSet::carrying(decls, &TableSet::default())
    }

    /// Instances for every declaration, in declaration order, where a
    /// table `outgoing` holds under an identical declaration (the
    /// `entries_carry_over` rule) starts as a copy of it — entries and
    /// indexes, what inserting the entries one by one would rebuild — and
    /// every other table starts empty.
    pub(crate) fn carrying(decls: &[Arc<TableDecl>], outgoing: &TableSet) -> TableSet {
        let mut set = TableSet::default();
        for d in decls {
            // Duplicate names cannot pass the type checker; keep the first.
            if let Entry::Vacant(slot) = set.index.entry(d.name.clone()) {
                slot.insert(set.tables.len());
                set.tables.push(match outgoing.get(&d.name) {
                    Some(held) if held.decl == *d => held.clone(),
                    _ => TableInstance::new(d.clone()),
                });
            }
        }
        set
    }

    /// Adds an (empty) table for `decl`.
    pub fn add_table(&mut self, decl: Arc<TableDecl>) -> Result<()> {
        if self.index.contains_key(&decl.name) {
            return Err(FlexError::Reconfig(format!(
                "table `{}` already installed",
                decl.name
            )));
        }
        self.index.insert(decl.name.clone(), self.tables.len());
        self.tables.push(TableInstance::new(decl));
        Ok(())
    }

    /// Removes a table and its entries, shifting later slots down.
    pub fn remove_table(&mut self, name: &str) -> Result<TableInstance> {
        let pos = self
            .index
            .remove(name)
            .ok_or_else(|| FlexError::NotFound(format!("table `{name}`")))?;
        let removed = self.tables.remove(pos);
        for slot in self.index.values_mut() {
            if *slot > pos {
                *slot -= 1;
            }
        }
        Ok(removed)
    }

    /// Replaces a table's declaration in place (same slot), migrating
    /// entries that still fit (same key arity and a declared action);
    /// others are dropped.
    pub fn modify_table(&mut self, decl: Arc<TableDecl>) -> Result<usize> {
        let pos = *self
            .index
            .get(&decl.name)
            .ok_or_else(|| FlexError::NotFound(format!("table `{}`", decl.name)))?;
        let old = std::mem::replace(&mut self.tables[pos], TableInstance::new(decl));
        let inst = &mut self.tables[pos];
        let mut migrated = 0usize;
        for e in old.entries {
            if inst.insert(e).is_ok() {
                migrated += 1;
            }
        }
        Ok(migrated)
    }

    /// Borrows a table.
    pub fn get(&self, name: &str) -> Option<&TableInstance> {
        self.tables.get(*self.index.get(name)?)
    }

    /// Borrows a table mutably.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut TableInstance> {
        self.tables.get_mut(*self.index.get(name)?)
    }

    /// The dense slot of `name`, if installed.
    pub fn slot_of(&self, name: &str) -> Option<u16> {
        self.index.get(name).map(|&i| i as u16)
    }

    /// Borrows the table at `slot` (the bytecode fast path).
    #[inline]
    pub fn by_slot(&self, slot: u16) -> Option<&TableInstance> {
        self.tables.get(slot as usize)
    }

    /// Iterates over all tables in slot (installation) order.
    pub fn iter(&self) -> impl Iterator<Item = &TableInstance> {
        self.tables.iter()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether there are no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_lang::ast::{ActionDecl, FieldPath, MatchKind, TableKey};

    fn decl(name: &str, kinds: &[MatchKind], size: u64) -> Arc<TableDecl> {
        Arc::new(TableDecl {
            name: name.into(),
            keys: kinds
                .iter()
                .map(|k| TableKey {
                    field: FieldPath::Header("ipv4".into(), "src".into()),
                    match_kind: *k,
                })
                .collect(),
            actions: vec![
                ActionDecl {
                    name: "go".into(),
                    params: vec![("p".into(), 16)],
                    body: vec![],
                },
                ActionDecl {
                    name: "stop".into(),
                    params: vec![],
                    body: vec![],
                },
            ],
            default_action: None,
            size,
        })
    }

    fn go(p: u64) -> ActionCall {
        ActionCall {
            action: "go".into(),
            args: vec![p],
        }
    }

    /// The historical linear scan, kept as the oracle the indexes must
    /// reproduce bit for bit (including the last-wins tie-break of
    /// `max_by_key`).
    fn legacy_lookup<'a>(t: &'a TableInstance, keys: &[u64]) -> Option<&'a TableEntry> {
        if keys.len() != t.decl.keys.len() {
            return None;
        }
        t.entries
            .iter()
            .filter(|e| e.matches.iter().zip(keys).all(|(m, k)| m.matches(*k)))
            .max_by_key(|e| {
                let spec: u32 = e.matches.iter().map(|m| m.lpm_len() as u32).sum();
                (e.priority, spec)
            })
    }

    #[test]
    fn exact_match_hit_and_miss() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 8));
        t.insert(TableEntry::exact(&[5], go(1))).unwrap();
        assert_eq!(t.lookup(&[5]).unwrap().action, go(1));
        assert!(t.lookup(&[6]).is_none());
        assert!(t.lookup(&[5, 5]).is_none(), "arity mismatch misses");
    }

    #[test]
    fn lpm_prefers_longest_prefix() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Lpm], 8));
        let e8 = TableEntry {
            matches: vec![KeyMatch::Lpm {
                value: 0x0a000000,
                prefix_len: 8,
                width: 32,
            }],
            priority: 0,
            action: go(8),
        };
        let e24 = TableEntry {
            matches: vec![KeyMatch::Lpm {
                value: 0x0a000100,
                prefix_len: 24,
                width: 32,
            }],
            priority: 0,
            action: go(24),
        };
        t.insert(e8).unwrap();
        t.insert(e24).unwrap();
        assert_eq!(t.lookup(&[0x0a000105]).unwrap().action, go(24));
        assert_eq!(t.lookup(&[0x0a990105]).unwrap().action, go(8));
        assert!(t.lookup(&[0x0b000000]).is_none());
    }

    #[test]
    fn lpm_zero_prefix_is_wildcard() {
        let m = KeyMatch::Lpm {
            value: 0,
            prefix_len: 0,
            width: 32,
        };
        assert!(m.matches(0xffffffff));
        assert!(m.matches(0));
    }

    #[test]
    fn ternary_uses_priority() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Ternary], 8));
        t.insert(TableEntry {
            matches: vec![KeyMatch::Ternary {
                value: 0,
                mask: 0, // match-all
            }],
            priority: 1,
            action: go(1),
        })
        .unwrap();
        t.insert(TableEntry {
            matches: vec![KeyMatch::Ternary {
                value: 0x80,
                mask: 0x80,
            }],
            priority: 10,
            action: go(2),
        })
        .unwrap();
        assert_eq!(t.lookup(&[0x81]).unwrap().action, go(2), "high priority wins");
        assert_eq!(t.lookup(&[0x01]).unwrap().action, go(1), "fallback matches");
    }

    #[test]
    fn range_match() {
        let m = KeyMatch::Range { lo: 10, hi: 20 };
        assert!(m.matches(10));
        assert!(m.matches(20));
        assert!(!m.matches(9));
        assert!(!m.matches(21));
    }

    #[test]
    fn capacity_enforced() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 2));
        t.insert(TableEntry::exact(&[1], go(1))).unwrap();
        t.insert(TableEntry::exact(&[2], go(1))).unwrap();
        let err = t.insert(TableEntry::exact(&[3], go(1))).unwrap_err();
        assert!(err.to_string().contains("full"), "{err}");
    }

    #[test]
    fn unknown_action_rejected() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 8));
        let err = t
            .insert(TableEntry::exact(
                &[1],
                ActionCall {
                    action: "nope".into(),
                    args: vec![],
                },
            ))
            .unwrap_err();
        assert!(err.to_string().contains("no action"), "{err}");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact, MatchKind::Exact], 8));
        assert!(t.insert(TableEntry::exact(&[1], go(1))).is_err());
        t.insert(TableEntry::exact(&[1, 2], go(1))).unwrap();
        assert_eq!(t.lookup(&[1, 2]).unwrap().action, go(1));
    }

    #[test]
    fn remove_entries() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 8));
        t.insert(TableEntry::exact(&[1], go(1))).unwrap();
        t.insert(TableEntry::exact(&[2], go(2))).unwrap();
        assert_eq!(t.remove(&[KeyMatch::Exact(1)]), 1);
        assert_eq!(t.remove(&[KeyMatch::Exact(1)]), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_set_lifecycle() {
        let mut set = TableSet::from_decls(&[decl("a", &[MatchKind::Exact], 4)]);
        assert_eq!(set.len(), 1);
        set.add_table(decl("b", &[MatchKind::Exact], 4)).unwrap();
        assert!(set.add_table(decl("b", &[MatchKind::Exact], 4)).is_err());
        set.get_mut("b")
            .unwrap()
            .insert(TableEntry::exact(&[9], go(9)))
            .unwrap();
        let removed = set.remove_table("b").unwrap();
        assert_eq!(removed.len(), 1);
        assert!(set.remove_table("b").is_err());
    }

    #[test]
    fn modify_table_migrates_fitting_entries() {
        let mut set = TableSet::from_decls(&[decl("a", &[MatchKind::Exact], 4)]);
        for i in 0..4 {
            set.get_mut("a")
                .unwrap()
                .insert(TableEntry::exact(&[i], go(i)))
                .unwrap();
        }
        // Shrink to 2: only 2 entries survive.
        let migrated = set.modify_table(decl("a", &[MatchKind::Exact], 2)).unwrap();
        assert_eq!(migrated, 2);
        assert_eq!(set.get("a").unwrap().len(), 2);
        // Change arity: no entries survive.
        let migrated = set
            .modify_table(decl("a", &[MatchKind::Exact, MatchKind::Exact], 8))
            .unwrap();
        assert_eq!(migrated, 0);
    }

    #[test]
    fn removal_preserves_slot_order() {
        let mut set = TableSet::from_decls(&[
            decl("a", &[MatchKind::Exact], 4),
            decl("b", &[MatchKind::Exact], 4),
            decl("c", &[MatchKind::Exact], 4),
        ]);
        assert_eq!(set.slot_of("c"), Some(2));
        set.remove_table("b").unwrap();
        assert_eq!(set.slot_of("a"), Some(0));
        assert_eq!(set.slot_of("c"), Some(1), "later slots shift down");
        assert_eq!(set.by_slot(1).unwrap().decl.name, "c");
        let names: Vec<_> = set.iter().map(|t| t.decl.name.as_str()).collect();
        assert_eq!(names, ["a", "c"], "iteration follows slot order");
    }

    #[test]
    fn indexed_lookup_matches_legacy_scan_on_randomized_tables() {
        // Deterministic LCG; mixed-kind tables exercise the ordered scan,
        // all-exact phases exercise the hash index. The oracle is the
        // original O(entries × keys) scan including its tie-break.
        let mut x: u64 = 0x3DF0_77FA_23C1_55A1;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        for round in 0..40 {
            let all_exact = round % 2 == 0;
            let mut t = TableInstance::new(decl(
                "t",
                &[MatchKind::Ternary, MatchKind::Ternary],
                64,
            ));
            for _ in 0..24 {
                let m = |r: u64| -> KeyMatch {
                    if all_exact {
                        return KeyMatch::Exact(r % 8);
                    }
                    match r % 4 {
                        0 => KeyMatch::Exact(r % 8),
                        1 => KeyMatch::Lpm {
                            value: r % 256,
                            prefix_len: (r % 9) as u8,
                            width: 8,
                        },
                        2 => KeyMatch::Ternary {
                            value: r % 256,
                            mask: (r >> 8) % 256,
                        },
                        _ => KeyMatch::Range {
                            lo: r % 8,
                            hi: r % 8 + (r >> 16) % 8,
                        },
                    }
                };
                let e = TableEntry {
                    matches: vec![m(rng()), m(rng())],
                    priority: (rng() % 3) as i32,
                    action: go(rng() % 100),
                };
                t.insert(e).unwrap();
            }
            // Random removals keep the caches honest.
            for _ in 0..3 {
                let spec = t.entries[(rng() % t.entries.len() as u64) as usize]
                    .matches
                    .clone();
                t.remove(&spec);
            }
            for _ in 0..200 {
                let keys = [rng() % 8, rng() % 8];
                assert_eq!(
                    t.lookup(&keys),
                    legacy_lookup(&t, &keys),
                    "divergence (round {round}, keys {keys:?}, exact={all_exact})"
                );
                let resolved = t.lookup_resolved(&keys);
                let expect = t.lookup(&keys).map(|e| {
                    (
                        t.decl
                            .actions
                            .iter()
                            .position(|a| a.name == e.action.action)
                            .unwrap() as u16,
                        e.action.args.as_slice(),
                    )
                });
                assert_eq!(resolved, expect);
            }
        }
    }

    #[test]
    fn exact_index_ties_prefer_latest_insert_like_the_scan() {
        // Two identical-key entries with equal priority: the legacy
        // max_by_key returned the *last* maximum; the hash index must too.
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 8));
        t.insert(TableEntry::exact(&[5], go(1))).unwrap();
        t.insert(TableEntry::exact(&[5], go(2))).unwrap();
        assert_eq!(t.lookup(&[5]).unwrap().action, go(2));
        assert_eq!(t.lookup(&[5]), legacy_lookup(&t, &[5]));
        // A higher-priority earlier entry still wins over a later one.
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 8));
        t.insert(TableEntry {
            matches: vec![KeyMatch::Exact(5)],
            priority: 9,
            action: go(1),
        })
        .unwrap();
        t.insert(TableEntry::exact(&[5], go(2))).unwrap();
        assert_eq!(t.lookup(&[5]).unwrap().action, go(1));
        assert_eq!(t.lookup(&[5]), legacy_lookup(&t, &[5]));
    }

    #[test]
    fn mixed_entries_drop_the_exact_index_without_changing_results() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 8));
        t.insert(TableEntry::exact(&[1], go(1))).unwrap();
        assert!(t.exact.is_some(), "all-exact table is hash-indexed");
        t.insert(TableEntry {
            matches: vec![KeyMatch::Lpm {
                value: 0,
                prefix_len: 0,
                width: 32,
            }],
            priority: -1,
            action: go(0),
        })
        .unwrap();
        assert!(t.exact.is_none(), "mixed table falls back to ordered scan");
        assert_eq!(t.lookup(&[1]).unwrap().action, go(1));
        assert_eq!(t.lookup(&[7]).unwrap().action, go(0), "wildcard catches");
        // Removing the wildcard restores the index.
        t.remove(&[KeyMatch::Lpm {
            value: 0,
            prefix_len: 0,
            width: 32,
        }]);
        assert!(t.exact.is_some());
        assert_eq!(t.lookup(&[1]).unwrap().action, go(1));
    }

    #[test]
    fn burst_lookup_matches_per_key_lookup_on_randomized_tables() {
        // Same generator as the indexed-vs-scan oracle: the burst resolver
        // must pick the identical winner (or miss) for every tuple, on both
        // the hash-indexed and ordered-scan table shapes.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut hits = vec![];
        for round in 0..40 {
            let all_exact = round % 2 == 0;
            let mut t = TableInstance::new(decl(
                "t",
                &[MatchKind::Ternary, MatchKind::Ternary],
                64,
            ));
            for _ in 0..24 {
                let m = |r: u64| -> KeyMatch {
                    if all_exact {
                        return KeyMatch::Exact(r % 8);
                    }
                    match r % 4 {
                        0 => KeyMatch::Exact(r % 8),
                        1 => KeyMatch::Lpm {
                            value: r % 256,
                            prefix_len: (r % 9) as u8,
                            width: 8,
                        },
                        2 => KeyMatch::Ternary {
                            value: r % 256,
                            mask: (r >> 8) % 256,
                        },
                        _ => KeyMatch::Range {
                            lo: r % 8,
                            hi: r % 8 + (r >> 16) % 8,
                        },
                    }
                };
                let e = TableEntry {
                    matches: vec![m(rng()), m(rng())],
                    priority: (rng() % 3) as i32,
                    action: go(rng() % 100),
                };
                t.insert(e).unwrap();
            }
            // A burst of 200 tuples, flat burst-major.
            let flat: Vec<u64> = (0..400).map(|_| rng() % 8).collect();
            t.lookup_burst(&flat, 2, &mut hits);
            assert_eq!(hits.len(), 200);
            for (i, tuple) in flat.chunks_exact(2).enumerate() {
                let single = t.lookup(tuple);
                match hits[i] {
                    BURST_MISS => assert_eq!(
                        single, None,
                        "burst miss but single lookup hit (round {round}, {tuple:?})"
                    ),
                    idx => {
                        assert_eq!(
                            Some(&t.entries[idx as usize]),
                            single,
                            "burst winner diverged (round {round}, {tuple:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn burst_lookup_arity_mismatch_is_all_misses() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 8));
        t.insert(TableEntry::exact(&[1], go(1))).unwrap();
        let mut hits = vec![];
        // Wrong arity: every tuple misses, like `winner` on a bad key vec.
        t.lookup_burst(&[1, 1, 1, 1], 2, &mut hits);
        assert_eq!(hits, [BURST_MISS, BURST_MISS]);
        // Zero arity: no tuples.
        t.lookup_burst(&[], 0, &mut hits);
        assert!(hits.is_empty());
        // Matching arity hits.
        t.lookup_burst(&[1, 2], 1, &mut hits);
        assert_eq!(hits[0], 0);
        assert_eq!(hits[1], BURST_MISS);
    }
}
