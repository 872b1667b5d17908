//! The match/action table engine.
//!
//! Supports the four match kinds FlexBPF declares (exact, LPM, ternary,
//! range) with the winner rule of a switch's TCAM: among the entries whose
//! every key matches, the highest `(priority, total LPM specificity)` wins,
//! ties going to the latest-installed entry.
//!
//! A table is one tuple-space index (Srinivasan, Suri and Varghese,
//! SIGCOMM 1999), built at insert:
//!
//! - **Groups.** Each key of an entry contributes a care mask — all ones
//!   for exact, `u64::MAX << (width − prefix_len)` for LPM (0 at prefix 0),
//!   the ternary mask, 0 for a range — and entries with the same mask tuple
//!   form a group. An all-exact table is a table with one group.
//! - **Keys stored once.** The masked key words live in one flat arena,
//!   `arity` words per entry, at the entry's installation index (its
//!   slot). Each group hashes masked keys with a keyed folded multiply
//!   (`FoldKey`) into an open-addressed table of `u32` chain heads, probed
//!   eight buckets at a time through control words of one-byte hash tags;
//!   equality is decided on arena words, so a hash collision costs a
//!   probe, never a wrong winner, and no entry allocates inside the index.
//! - **Chains.** Entries of a group with equal masked keys chain from one
//!   bucket, best `(rank, slot)` first. The slot is the sequence number of
//!   the tie rule: installation order is entry order. A range key is not
//!   hashed; a group holding one checks its chain's candidates in order.
//! - **Lookup.** Groups are probed in descending order of their best rank,
//!   and the probe stops once no later group can beat the winner so far, so
//!   a lookup costs at most one hash probe per group.
//!
//! `insert` touches one group. `remove` unlinks its entries from their one
//! chain and renumbers the slots behind them, re-hashing nothing.
//! `set_entries` rebuilds in O(n).

use crate::image::table_digest;
use flexnet_lang::ast::{ActionCall, TableDecl};
use flexnet_types::{FlexError, Result};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// Sentinel entry index [`TableInstance::lookup_burst`] writes for a miss.
pub const BURST_MISS: u32 = u32::MAX;

/// How one key of one entry matches a value.
#[derive(Debug, Clone, PartialEq, Eq)]
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
            KeyMatch::Range { lo, hi } => key >= *lo && key <= *hi,
            _ => {
                let (value, mask) = self.care();
                key & mask == value & mask
            }
        }
    }

    /// The pattern and the care mask this key is hashed under: a key
    /// matches when `key & mask == value & mask`, which is the whole test
    /// for every kind but a range (mask 0, checked on the candidates). An
    /// LPM prefix keeps the bits at and above `width − prefix_len`, bits
    /// above `width` included; the shift wraps at 64 as a release build's
    /// `>>` does.
    fn care(&self) -> (u64, u64) {
        match *self {
            KeyMatch::Exact(v) => (v, u64::MAX),
            KeyMatch::Lpm {
                value,
                prefix_len: 0,
                ..
            } => (value, 0),
            KeyMatch::Lpm {
                value,
                prefix_len,
                width,
            } => (
                value,
                u64::MAX.wrapping_shl(width.saturating_sub(prefix_len) as u32),
            ),
            KeyMatch::Ternary { value, mask } => (value, mask),
            KeyMatch::Range { .. } => (0, 0),
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    fn rank(&self) -> Rank {
        (
            self.priority,
            self.matches.iter().map(|m| m.lpm_len() as u32).sum(),
        )
    }
}

/// `(priority, total LPM specificity)`: higher wins.
type Rank = (i32, u32);

/// The index's hasher: a folded 64×64→128-bit multiply per key word under
/// a per-table random secret, the design of hashbrown's default hasher. It
/// stays keyed because lookups come from packets: a fixed function would
/// let traffic aim keys at one probe sequence.
#[derive(Debug, Clone)]
struct FoldKey([u64; 2]);

impl Default for FoldKey {
    /// Draws a fresh secret from std's per-process random keys (each
    /// `RandomState` differs from the last).
    fn default() -> FoldKey {
        let draw = RandomState::new();
        FoldKey([draw.hash_one(0u64), draw.hash_one(1u64)])
    }
}

impl FoldKey {
    /// The hash of a key tuple, one word at a time.
    #[inline]
    fn hash(&self, words: impl Iterator<Item = u64>) -> u64 {
        let acc = words.fold(self.0[0], |acc, w| folded_multiply(acc ^ w, self.0[1]));
        folded_multiply(acc, self.0[1].rotate_left(23))
    }
}

/// The low and high halves of `a × b`, XORed.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = (a as u128) * (b as u128);
    (full as u64) ^ ((full >> 64) as u64)
}

/// End of a chain, and the head of a bucket that holds none.
const NIL: u32 = u32::MAX;

/// A control byte: never held, or held and vacated. A held bucket's byte
/// is its key's `h2`, the top seven bits of its hash (below 0x80).
const EMPTY: u8 = 0x80;
const TOMB: u8 = 0xFE;
/// The low and the high bit of each of a control word's eight bytes.
const LSB: u64 = 0x0101_0101_0101_0101;
const MSB: u64 = 0x8080_8080_8080_8080;

fn h2(hash: u64) -> u8 {
    (hash >> 57) as u8
}

/// Per-entry index state, at the entry's slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    rank: Rank,
    /// The next entry of this one's chain (same group, same masked key),
    /// or [`NIL`].
    next: u32,
    /// The action's index within `decl.actions` (for the bytecode VM).
    action: u16,
}

/// The entries that share one mask tuple, and their hash table: open
/// addressing over control words of eight control bytes, probed a word at
/// a time (the portable form of hashbrown's control groups), so a miss
/// usually reads one word.
#[derive(Debug, Clone)]
struct Group {
    /// One care mask per key.
    masks: Box<[u64]>,
    /// Whether a member has a range key, which the hash does not decide.
    ranged: bool,
    /// The best member rank: no member of this group beats it.
    best: Rank,
    /// Members.
    len: u32,
    /// Control bytes, eight to a word, a power of two of words; the low
    /// bits of a key's hash pick its first word.
    ctrl: Vec<u64>,
    /// Each bucket's chain head, or [`NIL`].
    chains: Vec<u32>,
    /// Buckets holding a chain.
    heads: u32,
    /// Buckets holding [`TOMB`].
    tombs: u32,
}

impl Group {
    fn new(masks: Box<[u64]>) -> Group {
        Group {
            masks,
            ranged: false,
            best: (i32::MIN, 0),
            len: 0,
            ctrl: Vec::new(),
            chains: Vec::new(),
            heads: 0,
            tombs: 0,
        }
    }

    /// The bucket of the chain whose masked key `eq` accepts. A control
    /// word is searched for `h2` in one step; the search can flag a held
    /// byte just above a true match too, and `eq` turns that down. A word
    /// with an empty byte ends the probe sequence.
    #[inline(always)]
    fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<usize> {
        let words = self.ctrl.len() - 1;
        let pattern = LSB * h2(hash) as u64;
        let mut w = hash as usize & words;
        loop {
            let word = self.ctrl[w];
            let x = word ^ pattern;
            let mut hits = x.wrapping_sub(LSB) & !x & MSB;
            while hits != 0 {
                let b = w * 8 + hits.trailing_zeros() as usize / 8;
                if eq(self.chains[b]) {
                    return Some(b);
                }
                hits &= hits - 1;
            }
            if word & !(word << 1) & MSB != 0 {
                return None;
            }
            w = (w + 1) & words;
        }
    }

    /// The first empty or vacated bucket on `hash`'s probe sequence.
    fn free(&self, hash: u64) -> usize {
        let words = self.ctrl.len() - 1;
        let mut w = hash as usize & words;
        loop {
            let special = self.ctrl[w] & MSB;
            if special != 0 {
                return w * 8 + special.trailing_zeros() as usize / 8;
            }
            w = (w + 1) & words;
        }
    }

    fn set_ctrl(&mut self, b: usize, byte: u8) {
        let shift = b % 8 * 8;
        let word = &mut self.ctrl[b / 8];
        *word = (*word & !(0xff << shift)) | (byte as u64) << shift;
    }

    /// Starts a chain headed by `slot`, whose key hashed to `hash`.
    fn occupy(&mut self, hash: u64, slot: u32) {
        let b = self.free(hash);
        if self.ctrl[b / 8] >> (b % 8 * 8) & 0xff == TOMB as u64 {
            self.tombs -= 1;
        }
        self.set_ctrl(b, h2(hash));
        self.chains[b] = slot;
        self.heads += 1;
    }

    /// Ends the chain at bucket `b`. A word that already holds an empty
    /// byte ends every probe sequence that reaches it, so no key lies past
    /// it on one: its bucket can be empty again rather than a tombstone.
    fn vacate(&mut self, b: usize) {
        let word = self.ctrl[b / 8];
        if word & !(word << 1) & MSB != 0 {
            self.set_ctrl(b, EMPTY);
        } else {
            self.set_ctrl(b, TOMB);
            self.tombs += 1;
        }
        self.chains[b] = NIL;
        self.heads -= 1;
    }

    /// Makes room for one more chain: at most half the buckets are ever
    /// taken, tombstones included, so most control words hold an empty
    /// byte and a miss ends at its first. A rebuild re-hashes each chain's
    /// head with `hash_of`; one that would keep the size clears at least
    /// an eighth of the buckets' tombstones or doubles instead, so a table
    /// held near its limit by churn does not rebuild on every insert.
    fn reserve_head(&mut self, hash_of: impl Fn(u32) -> u64) {
        let len = self.chains.len();
        if (self.heads + self.tombs + 1) as usize * 2 <= len {
            return;
        }
        let buckets = match ((self.heads as usize + 1) * 2).next_power_of_two().max(8) {
            same if same == len && (self.tombs as usize) < len / 8 => len * 2,
            buckets => buckets,
        };
        self.ctrl = vec![LSB * EMPTY as u64; buckets / 8];
        let held = std::mem::replace(&mut self.chains, vec![NIL; buckets]);
        (self.heads, self.tombs) = (0, 0);
        for head in held.into_iter().filter(|&h| h != NIL) {
            self.occupy(hash_of(head), head);
        }
    }
}

/// One table's installed entries plus its declaration.
///
/// The other fields are the lookup index and the digest memo — pure
/// functions of `(decl, entries)` brought up to date by every mutation,
/// so equality compares the declaration and the entries alone. Entries
/// change only through [`TableInstance::insert`], [`TableInstance::remove`]
/// and [`TableInstance::set_entries`], each of which forgets the memo.
#[derive(Debug, Clone)]
pub struct TableInstance {
    /// The declaration this instance implements; shared with the copy a
    /// hitless flip makes of an unchanged table.
    pub decl: Arc<TableDecl>,
    /// Installed entries, in installation order: entry `i` is slot `i`.
    entries: Vec<TableEntry>,
    /// `decl.keys.len()`, kept beside the entries so a lookup does not
    /// follow the declaration's pointer.
    arity: usize,
    /// Each slot's masked key words, `arity` per slot.
    keys: Vec<u64>,
    /// Each slot's rank, chain link and action index.
    slots: Vec<Slot>,
    /// One group per distinct mask tuple among the entries.
    groups: Vec<Group>,
    /// `(best rank, group)`, best first: the order lookups probe in.
    probe: Vec<(Rank, u32)>,
    /// The index's hash secret.
    seed: FoldKey,
    /// [`TableInstance::digest`], kept until the entries change.
    digest: OnceLock<u64>,
}

impl PartialEq for TableInstance {
    fn eq(&self, other: &TableInstance) -> bool {
        self.decl == other.decl && self.entries == other.entries
    }
}

impl Eq for TableInstance {}

impl TableInstance {
    /// An empty instance of `decl`, which it shares with whoever gave it.
    pub fn new(decl: Arc<TableDecl>) -> TableInstance {
        TableInstance {
            arity: decl.keys.len(),
            decl,
            entries: Vec::new(),
            keys: Vec::new(),
            slots: Vec::new(),
            groups: Vec::new(),
            probe: Vec::new(),
            seed: FoldKey::default(),
            digest: OnceLock::new(),
        }
    }

    /// Installed entries, in installation order.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// This table's level of the configuration digest
    /// ([`crate::image::table_digest`]): folded on the first read after a
    /// change of the entries, and by nothing else — another table's change
    /// never reaches it.
    pub fn digest(&self) -> u64 {
        *self
            .digest
            .get_or_init(|| table_digest(&self.decl.name, &self.entries))
    }

    /// Makes this table hold exactly `entries`, in that order: what is
    /// missing is added and what is extra is gone. Each entry is checked as
    /// [`TableInstance::insert`] checks it; a refused one leaves the table
    /// as it was.
    pub fn set_entries(&mut self, entries: &[TableEntry]) -> Result<()> {
        let actions = entries
            .iter()
            .enumerate()
            .map(|(held, e)| self.admit(e, held))
            .collect::<Result<Vec<u16>>>()?;
        self.digest.take();
        self.entries = entries.to_vec();
        self.keys.clear();
        self.slots.clear();
        self.groups.clear();
        self.probe.clear();
        for (slot, action) in actions.into_iter().enumerate() {
            self.index(slot as u32, action);
        }
        Ok(())
    }

    /// Whether `entry` may join a table that holds `held` entries — its
    /// arity, the capacity, and its action — and if so the action's index.
    fn admit(&self, entry: &TableEntry, held: usize) -> Result<u16> {
        if entry.matches.len() != self.decl.keys.len() {
            return Err(FlexError::Reconfig(format!(
                "table `{}` expects {} keys, entry has {}",
                self.decl.name,
                self.decl.keys.len(),
                entry.matches.len()
            )));
        }
        if held as u64 >= self.decl.size {
            return Err(FlexError::Reconfig(format!(
                "table `{}` is full ({} entries)",
                self.decl.name, self.decl.size
            )));
        }
        match self
            .decl
            .actions
            .iter()
            .position(|a| a.name == entry.action.action)
        {
            Some(i) => Ok(i as u16),
            None => Err(FlexError::Reconfig(format!(
                "table `{}` has no action `{}`",
                self.decl.name, entry.action.action
            ))),
        }
    }

    /// Installs an entry, enforcing arity and capacity.
    pub fn insert(&mut self, entry: TableEntry) -> Result<()> {
        let action = self.admit(&entry, self.entries.len())?;
        self.digest.take();
        self.entries.push(entry);
        self.index(self.entries.len() as u32 - 1, action);
        Ok(())
    }

    /// Indexes entry `slot`, the first not yet indexed: its arena words,
    /// its `Slot`, and its place in its group's chain for its masked key.
    fn index(&mut self, slot: u32, action: u16) {
        let entry = &self.entries[slot as usize];
        let rank = entry.rank();
        let ranged = entry
            .matches
            .iter()
            .any(|m| matches!(m, KeyMatch::Range { .. }));
        let g = match self.group_of(&entry.matches) {
            Some(g) => g,
            None => {
                let masks = entry.matches.iter().map(|m| m.care().1).collect();
                self.groups.push(Group::new(masks));
                self.groups.len() - 1
            }
        };
        self.keys.extend(
            entry
                .matches
                .iter()
                .map(|m| m.care())
                .map(|(v, mask)| v & mask),
        );
        self.slots.push(Slot {
            rank,
            next: NIL,
            action,
        });
        let (arity, seed) = (self.arity, &self.seed);
        let keys = &self.keys;
        let key_of = |s: u32| &keys[s as usize * arity..][..arity];
        let hash = seed.hash(key_of(slot).iter().copied());
        let group = &mut self.groups[g];
        group.reserve_head(|s| seed.hash(key_of(s).iter().copied()));
        let slots = &mut self.slots;
        match group.find(hash, |s| key_of(s) == key_of(slot)) {
            Some(b) => {
                // The newest entry goes ahead of the first it ties or beats.
                let head = group.chains[b];
                if slots[head as usize].rank <= rank {
                    slots[slot as usize].next = head;
                    group.chains[b] = slot;
                } else {
                    let mut prev = head;
                    loop {
                        let next = slots[prev as usize].next;
                        if next == NIL || slots[next as usize].rank <= rank {
                            slots[slot as usize].next = next;
                            slots[prev as usize].next = slot;
                            break;
                        }
                        prev = next;
                    }
                }
            }
            None => group.occupy(hash, slot),
        }
        group.len += 1;
        group.ranged |= ranged;
        if group.len == 1 || rank > group.best {
            group.best = rank;
            self.reprobe(g as u32);
        }
    }

    /// The group of `matches`' mask tuple, if there is one.
    fn group_of(&self, matches: &[KeyMatch]) -> Option<usize> {
        let masks = || matches.iter().map(|m| m.care().1);
        let first = masks().next();
        self.groups
            .iter()
            .position(|g| g.masks.first().copied() == first && g.masks.iter().copied().eq(masks()))
    }

    /// Puts group `g` at its place in the probe order, dropping it if it
    /// has no members.
    fn reprobe(&mut self, g: u32) {
        self.probe.retain(|&(_, held)| held != g);
        let group = &self.groups[g as usize];
        if group.len > 0 {
            let at = self.probe.partition_point(|&(best, _)| best > group.best);
            self.probe.insert(at, (group.best, g));
        }
    }

    /// Removes entries whose matches equal `matches` exactly; returns the
    /// number removed.
    pub fn remove(&mut self, matches: &[KeyMatch]) -> usize {
        if matches.len() != self.arity {
            return 0;
        }
        let Some(g) = self.group_of(matches) else {
            return 0;
        };
        // Every entry equal to `matches` is in one chain of group `g`.
        let arity = self.arity;
        let key = || matches.iter().map(|m| m.care()).map(|(v, mask)| v & mask);
        let hash = self.seed.hash(key());
        let group = &mut self.groups[g];
        let keys = &self.keys;
        let Some(b) = group.find(hash, |s| {
            keys[s as usize * arity..][..arity]
                .iter()
                .copied()
                .eq(key())
        }) else {
            return 0;
        };
        // Unlink the victims, keeping the chain's order.
        let mut victims = Vec::new();
        let (mut head, mut prev) = (group.chains[b], NIL);
        let mut at = head;
        while at != NIL {
            let next = self.slots[at as usize].next;
            if self.entries[at as usize].matches == matches {
                victims.push(at);
                match prev {
                    NIL => head = next,
                    p => self.slots[p as usize].next = next,
                }
            } else {
                prev = at;
            }
            at = next;
        }
        if victims.is_empty() {
            return 0;
        }
        match head {
            NIL => group.vacate(b),
            head => group.chains[b] = head,
        }
        group.len -= victims.len() as u32;
        self.digest.take();
        victims.sort_unstable();
        self.compact(&victims);
        if self.groups[g].len == 0 {
            self.groups.swap_remove(g);
            self.probe.retain(|&(_, held)| held as usize != g);
            let moved = self.groups.len() as u32;
            if let Some(p) = self.probe.iter_mut().find(|(_, held)| *held == moved) {
                p.1 = g as u32;
            }
        } else {
            self.rescore(g);
        }
        victims.len()
    }

    /// Drops the unlinked `victims` (ascending) from the entries, the arena
    /// and the slots, and moves every later slot number down past them.
    fn compact(&mut self, victims: &[u32]) {
        let renumber = |s: u32| s - victims.partition_point(|&v| v < s) as u32;
        let mut doomed = victims.iter().peekable();
        let mut i = 0u32;
        let arity = self.arity;
        self.entries.retain(|_| {
            let keep = doomed.next_if_eq(&&i).is_none();
            i += 1;
            keep
        });
        for (n, &v) in victims.iter().enumerate() {
            let from = (v as usize - n) * arity;
            self.keys.drain(from..from + arity);
            self.slots.remove(v as usize - n);
        }
        for slot in &mut self.slots {
            if slot.next != NIL {
                slot.next = renumber(slot.next);
            }
        }
        for head in self.groups.iter_mut().flat_map(|g| g.chains.iter_mut()) {
            if *head != NIL {
                *head = renumber(*head);
            }
        }
    }

    /// Recomputes group `g`'s best rank and range flag from its chains,
    /// and its place in the probe order.
    fn rescore(&mut self, g: usize) {
        let group = &self.groups[g];
        let (mut best, mut ranged) = ((i32::MIN, 0), false);
        for &head in group.chains.iter().filter(|&&h| h != NIL) {
            let mut at = head;
            // A chain is best first: its head holds its best rank.
            best = best.max(self.slots[at as usize].rank);
            while at != NIL {
                ranged |= self.entries[at as usize]
                    .matches
                    .iter()
                    .any(|m| matches!(m, KeyMatch::Range { .. }));
                at = self.slots[at as usize].next;
            }
        }
        let group = &mut self.groups[g];
        (group.best, group.ranged) = (best, ranged);
        self.reprobe(g as u32);
    }

    /// The best entry of `group` matching `keys`: the head of the chain of
    /// the keys' masked words, or with a range key the first of its
    /// candidates that matches.
    #[inline(always)]
    fn group_winner(&self, group: &Group, keys: &[u64]) -> Option<u32> {
        let masked = || keys.iter().zip(&*group.masks).map(|(k, m)| k & m);
        let hash = self.seed.hash(masked());
        let arity = self.arity;
        let b = group.find(hash, |s| {
            self.keys[s as usize * arity..][..arity]
                .iter()
                .copied()
                .eq(masked())
        })?;
        let head = group.chains[b];
        match group.ranged {
            false => Some(head),
            true => self.first_match(head, keys),
        }
    }

    /// The first entry of the chain from `at` whose every key matches.
    #[inline(never)]
    fn first_match(&self, mut at: u32, keys: &[u64]) -> Option<u32> {
        while at != NIL {
            let e = &self.entries[at as usize];
            if e.matches.iter().zip(keys).all(|(m, k)| m.matches(*k)) {
                return Some(at);
            }
            at = self.slots[at as usize].next;
        }
        None
    }

    /// The winning slot for `keys` (of the right arity) and how many groups
    /// the lookup probed: best group first, stopping at the first group
    /// whose best rank is below the winner so far.
    #[inline(never)]
    fn probe_winner(&self, keys: &[u64]) -> (Option<u32>, usize) {
        let mut won: Option<u32> = None;
        let mut probed = 0;
        for &(best, g) in &self.probe {
            if won.is_some_and(|w| best < self.slots[w as usize].rank) {
                break;
            }
            probed += 1;
            if let Some(s) = self.group_winner(&self.groups[g as usize], keys) {
                let better =
                    |w: u32| (self.slots[s as usize].rank, s) > (self.slots[w as usize].rank, w);
                if won.is_none_or(better) {
                    won = Some(s);
                }
            }
        }
        (won, probed)
    }

    /// The winning entry index for `keys`.
    fn winner(&self, keys: &[u64]) -> Option<u32> {
        if keys.len() != self.arity {
            return None;
        }
        match *self.probe {
            // One group (an all-exact table among them): its winner.
            [(_, g)] => self.group_winner(&self.groups[g as usize], keys),
            _ => self.probe_winner(keys).0,
        }
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
        Some((self.slots[i].action, self.entries[i].action.args.as_slice()))
    }

    /// Batch lookup for the burst dataplane: resolves every key tuple in
    /// `keys` (a flat vector of `arity` values per tuple, burst-major) in
    /// one pass, pushing the winning entry index — or [`BURST_MISS`] — per
    /// tuple onto `out`.
    ///
    /// Per-tuple winner selection is identical to
    /// [`TableInstance::lookup`]. An `arity` that disagrees with the
    /// declaration marks every tuple a miss (the same outcome a malformed
    /// single lookup gets); `arity == 0` yields no tuples.
    pub fn lookup_burst(&self, keys: &[u64], arity: usize, out: &mut Vec<u32>) {
        out.clear();
        if arity == 0 {
            return;
        }
        if arity != self.arity {
            out.resize(keys.len() / arity, BURST_MISS);
            return;
        }
        let tuples = keys.chunks_exact(arity);
        match *self.probe {
            [(_, g)] => {
                let group = &self.groups[g as usize];
                out.extend(tuples.map(|t| self.group_winner(group, t).unwrap_or(BURST_MISS)));
            }
            _ => out.extend(tuples.map(|t| self.probe_winner(t).0.unwrap_or(BURST_MISS))),
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        assert_eq!(
            t.lookup(&[0x81]).unwrap().action,
            go(2),
            "high priority wins"
        );
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
    fn set_entries_builds_what_inserting_builds_and_a_refusal_changes_nothing() {
        let d = decl("t", &[MatchKind::Exact], 2);
        let (a, b) = (
            TableEntry::exact(&[1], go(1)),
            TableEntry::exact(&[2], go(2)),
        );
        let mut inserted = TableInstance::new(d.clone());
        inserted.insert(a.clone()).unwrap();
        inserted.insert(b.clone()).unwrap();
        let mut set = TableInstance::new(d);
        set.insert(TableEntry::exact(&[9], go(9))).unwrap();
        let stale = set.digest();
        set.set_entries(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(set, inserted, "the stray entry is gone, the two are in");
        for k in 0..12 {
            assert_eq!(set.lookup(&[k]), inserted.lookup(&[k]), "key {k}");
            assert_eq!(set.lookup_resolved(&[k]), inserted.lookup_resolved(&[k]));
        }
        assert_eq!(set.lookup(&[9]), None, "the stray entry is not found");
        assert_ne!(set.digest(), stale, "the memo was forgotten");
        assert_eq!(set.digest(), inserted.digest());
        let before = set.clone();
        assert!(
            set.set_entries(&[a.clone(), b, a]).is_err(),
            "over capacity"
        );
        assert_eq!(set, before);
        assert_eq!(set.digest(), before.digest());
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
        assert_eq!(set.by_slot(2).unwrap().decl.name, "c");
        set.remove_table("b").unwrap();
        assert_eq!(set.get("a"), set.by_slot(0));
        assert_eq!(set.get("c"), set.by_slot(1), "later slots shift down");
        assert_eq!(set.by_slot(1).unwrap().decl.name, "c");
        let names: Vec<_> = set.iter().map(|t| t.decl.name.as_str()).collect();
        assert_eq!(names, ["a", "c"], "iteration follows slot order");
    }

    #[test]
    fn exact_ties_prefer_the_latest_insert_and_priority_beats_recency() {
        // Two identical-key entries with equal priority: the later wins.
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 8));
        t.insert(TableEntry::exact(&[5], go(1))).unwrap();
        t.insert(TableEntry::exact(&[5], go(2))).unwrap();
        assert_eq!(t.lookup(&[5]).unwrap().action, go(2));
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
    }

    #[test]
    fn a_wildcard_joins_and_leaves_an_exact_table_without_changing_its_hits() {
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact], 8));
        t.insert(TableEntry::exact(&[1], go(1))).unwrap();
        assert_eq!(t.lookup(&[7]), None);
        let wildcard = KeyMatch::Lpm {
            value: 0,
            prefix_len: 0,
            width: 32,
        };
        t.insert(TableEntry {
            matches: vec![wildcard.clone()],
            priority: -1,
            action: go(0),
        })
        .unwrap();
        assert_eq!(
            t.lookup(&[1]).unwrap().action,
            go(1),
            "the exact hit outranks it"
        );
        assert_eq!(t.lookup(&[7]).unwrap().action, go(0), "wildcard catches");
        assert_eq!(t.remove(&[wildcard]), 1);
        assert_eq!(t.lookup(&[1]).unwrap().action, go(1));
        assert_eq!(t.lookup(&[7]), None, "the wildcard is gone");
    }

    #[test]
    fn the_index_hasher_is_keyed_and_spreads_structured_keys() {
        // Sequential keys, a 2³² stride and top-byte-only differences, at
        // arity 1 and 2: no two distinct tuples share a 64-bit hash.
        let hasher = FoldKey::default();
        for arity in [1, 2] {
            for family in ["sequential", "stride 2^32", "top byte"] {
                // The last `arity` words of a two-word tuple.
                let tuple = |i: u64| {
                    let words = match family {
                        "sequential" => [7, i],
                        "stride 2^32" => [(4095 - i) << 32, i << 32],
                        _ => [(i / 256) << 56, (i % 256) << 56],
                    };
                    words[2 - arity..].to_vec()
                };
                let tuples: std::collections::BTreeSet<Vec<u64>> = (0..4096).map(tuple).collect();
                let hashes: std::collections::BTreeSet<u64> = tuples
                    .iter()
                    .map(|t| hasher.hash(t.iter().copied()))
                    .collect();
                // 4 096 tuples each, but for the 256 a lone top byte takes.
                let want = if (family, arity) == ("top byte", 1) {
                    256
                } else {
                    4096
                };
                assert_eq!(tuples.len(), want, "{family}/{arity}");
                assert_eq!(hashes.len(), want, "{family}/{arity}: colliding hashes");
            }
        }
        // Every table draws its own secret, so two tables' hashes disagree.
        let (a, b) = (FoldKey::default(), FoldKey::default());
        assert_ne!(a.0, b.0, "two tables drew the same secret");
        assert_ne!(a.hash([5u64].into_iter()), b.hash([5u64].into_iter()));
    }

    #[test]
    fn a_lookup_probes_each_group_at_most_once_and_stops_at_the_rank_bound() {
        let lpm = |value: u64, prefix_len: u8| KeyMatch::Lpm {
            value,
            prefix_len,
            width: 32,
        };
        let mut t = TableInstance::new(decl("t", &[MatchKind::Lpm], 64));
        // 25 prefix lengths, one group each, all covering 0x0a0b0c0d.
        for len in 8..=32u8 {
            let value = 0x0a0b_0c0d & (u32::MAX << (32 - len as u32)) as u64;
            t.insert(TableEntry {
                matches: vec![lpm(value, len)],
                priority: 0,
                action: go(len as u64),
            })
            .unwrap();
        }
        assert_eq!(t.groups.len(), 25);
        // The /32 hit is the best group's: nothing after it can win.
        assert_eq!(t.probe_winner(&[0x0a0b_0c0d]), (Some(24), 1));
        // A key under the /16 only: 17 longer groups miss first.
        assert_eq!(t.probe_winner(&[0x0a0b_ff00]), (Some(8), 17));
        // A miss probes every group, and no more.
        assert_eq!(t.probe_winner(&[0xff00_0000]), (None, 25));
        // An all-exact table is one group: one probe, hit or miss.
        let mut t = TableInstance::new(decl("t", &[MatchKind::Exact, MatchKind::Exact], 4096));
        for i in 0..4096 {
            t.insert(TableEntry::exact(&[i, i << 8], go(i))).unwrap();
        }
        assert_eq!(t.groups.len(), 1);
        assert_eq!(t.probe_winner(&[7, 7 << 8]), (Some(7), 1));
        assert_eq!(t.probe_winner(&[7, 7]), (None, 1));
        // A remove lowers its group's best rank, and the probe order
        // follows: once the priority-5 entry is gone, the priority-3 hit
        // of the other mask ends the lookup.
        let ternary = |value: u64, mask: u64, priority: i32| TableEntry {
            matches: vec![KeyMatch::Ternary { value, mask }],
            priority,
            action: go(priority as u64),
        };
        let mut t = TableInstance::new(decl("t", &[MatchKind::Ternary], 8));
        for e in [ternary(1, 0xff, 5), ternary(2, 0xff, 1), ternary(2, 0xf, 3)] {
            t.insert(e).unwrap();
        }
        assert_eq!(t.probe_winner(&[2]), (Some(2), 2));
        assert_eq!(
            t.remove(&[KeyMatch::Ternary {
                value: 1,
                mask: 0xff
            }]),
            1
        );
        assert_eq!(t.probe_winner(&[2]), (Some(1), 1));
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
