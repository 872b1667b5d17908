//! Stateful-state encodings and the virtualized logical state layer.
//!
//! Paper §3.1: "Virtualizing network state is crucial, as individual devices
//! have drastically different ways of implementing this state. … The P4
//! language standard defines stateful *registers and counters* … PoF devices
//! expose a different abstraction: *flow state instruction sets* …
//! Nvidia/Mellanox devices pursue yet another route: *stateful tables* that
//! are indexed with flow key, with flow insertions and removals performed in
//! the data plane. If a program assumes a specific way of state encoding
//! (e.g., registers), function migration becomes difficult."
//!
//! FlexBPF programs therefore see only logical key/value maps; this module
//! provides three *encodings* of those maps with faithful behavioural
//! differences (register arrays can collide, flow-instruction sets evict
//! FIFO, stateful tables evict LRU), plus a [`LogicalState`] snapshot format
//! that migration uses — "Program migration carries its state in this
//! logical representation."
//!
//! Storage is slot-indexed: each kind (maps, registers, counters, meters)
//! lives in a dense vector in installation order with a name index
//! alongside, so the bytecode fast path addresses state by `u16` slot
//! (`map_get_at` and friends) while the by-name API keeps its historical
//! semantics for control-plane code and the interpreter.

use flexnet_lang::ast::{StateDecl, StateKind};
use flexnet_types::{FlexError, Result, SimTime, Trap};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

/// How a device encodes logical key/value maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StateEncoding {
    /// P4-style register arrays: the map is hashed into a fixed array;
    /// colliding keys *overwrite is not possible* — a colliding insert is
    /// dropped, and a lookup whose slot holds a different key misses.
    RegisterArray,
    /// PoF-style flow-state instruction set: an exact store with FIFO
    /// eviction when full.
    FlowInstructionSet,
    /// Spectrum-style stateful tables: an exact store with data-plane flow
    /// insertion/removal and LRU eviction when full.
    StatefulTable,
}

/// A serializable snapshot of a program's entire logical state — the
/// representation that migrates between devices.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogicalState {
    /// Map contents.
    pub maps: BTreeMap<String, BTreeMap<u64, u64>>,
    /// Register arrays.
    pub registers: BTreeMap<String, Vec<u64>>,
    /// Counters: (packets, bytes).
    pub counters: BTreeMap<String, (u64, u64)>,
}

impl LogicalState {
    /// Total number of state items (map entries + register cells + counters)
    /// — used to model migration transfer volume.
    pub fn item_count(&self) -> u64 {
        let m: usize = self.maps.values().map(|m| m.len()).sum();
        let r: usize = self.registers.values().map(|r| r.len()).sum();
        (m + r + self.counters.len()) as u64
    }
}

/// An exact store that remembers the order its keys were last stamped in.
/// Stamping on insert only gives FIFO eviction (flow-instruction sets);
/// restamping on every hit and overwrite gives LRU (stateful tables). Every
/// operation is O(log n): the oldest key is the first entry of `by_stamp`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct StampedStore {
    /// key → (value, stamp).
    entries: BTreeMap<u64, (u64, u64)>,
    /// stamp → key, for exactly the stamps held in `entries`.
    by_stamp: BTreeMap<u64, u64>,
    next_stamp: u64,
    cap: usize,
}

impl StampedStore {
    fn new(cap: usize) -> StampedStore {
        StampedStore {
            entries: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
            next_stamp: 0,
            cap: cap.max(1),
        }
    }

    /// Makes `key` the newest: moves it from `*stamp` to a fresh stamp.
    fn restamp(by_stamp: &mut BTreeMap<u64, u64>, next: &mut u64, stamp: &mut u64, key: u64) {
        by_stamp.remove(stamp);
        *stamp = *next;
        *next += 1;
        by_stamp.insert(*stamp, key);
    }

    fn get(&mut self, key: u64, restamp: bool) -> Option<u64> {
        let (value, stamp) = self.entries.get_mut(&key)?;
        if restamp {
            Self::restamp(&mut self.by_stamp, &mut self.next_stamp, stamp, key);
        }
        Some(*value)
    }

    fn put(&mut self, key: u64, value: u64, restamp: bool) {
        if let Some((old, stamp)) = self.entries.get_mut(&key) {
            *old = value;
            if restamp {
                Self::restamp(&mut self.by_stamp, &mut self.next_stamp, stamp, key);
            }
            return;
        }
        if self.entries.len() >= self.cap {
            if let Some((_, oldest)) = self.by_stamp.pop_first() {
                self.entries.remove(&oldest);
            }
        }
        self.by_stamp.insert(self.next_stamp, key);
        self.entries.insert(key, (value, self.next_stamp));
        self.next_stamp += 1;
    }

    fn del(&mut self, key: u64) {
        if let Some((_, stamp)) = self.entries.remove(&key) {
            self.by_stamp.remove(&stamp);
        }
    }

    fn to_logical(&self) -> BTreeMap<u64, u64> {
        self.entries.iter().map(|(k, (v, _))| (*k, *v)).collect()
    }

    /// Leaves this empty store as putting `from`'s entries into it in key
    /// order would: the `cap` largest keys, stamped in key order.
    fn refill(&mut self, from: &StampedStore) {
        let n = from.entries.len();
        let kept = || from.entries.iter().enumerate().skip(n.saturating_sub(self.cap));
        self.entries = kept().map(|(i, (k, (v, _)))| (*k, (*v, i as u64))).collect();
        self.by_stamp = kept().map(|(i, (k, _))| (i as u64, *k)).collect();
        self.next_stamp = n as u64;
    }
}

/// One logical map under a specific encoding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum MapStore {
    Registers { slots: Vec<Option<(u64, u64)>> },
    /// FIFO eviction.
    FlowIs(StampedStore),
    /// LRU eviction.
    Stateful(StampedStore),
}

impl MapStore {
    fn new(encoding: StateEncoding, cap: usize) -> MapStore {
        match encoding {
            StateEncoding::RegisterArray => MapStore::Registers {
                slots: vec![None; cap.max(1)],
            },
            StateEncoding::FlowInstructionSet => MapStore::FlowIs(StampedStore::new(cap)),
            StateEncoding::StatefulTable => MapStore::Stateful(StampedStore::new(cap)),
        }
    }

    /// A store of `cap` holding what re-putting `old`'s entries in key
    /// order into an empty one leaves — the one copy a hitless flip or a
    /// resize makes, with no logical map in between unless slots re-hash.
    fn carrying(encoding: StateEncoding, cap: usize, old: Option<&MapStore>) -> MapStore {
        let mut fresh = MapStore::new(encoding, cap);
        match (&mut fresh, old) {
            (_, None) => {}
            (MapStore::Registers { slots }, Some(MapStore::Registers { slots: from }))
                if slots.len() == from.len() =>
            {
                slots.clone_from(from)
            }
            (
                MapStore::FlowIs(store) | MapStore::Stateful(store),
                Some(MapStore::FlowIs(from) | MapStore::Stateful(from)),
            ) => store.refill(from),
            (_, Some(from)) => fresh.restore(&from.to_logical()),
        }
        fresh
    }

    fn slot_of(key: u64, len: usize) -> usize {
        // Deterministic hash-to-slot (FNV step keeps adjacent keys apart).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..8 {
            h ^= (key >> (i * 8)) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % len as u64) as usize
    }

    #[inline]
    fn get(&mut self, key: u64) -> Option<u64> {
        match self {
            MapStore::Registers { slots } => {
                let idx = Self::slot_of(key, slots.len());
                match slots[idx] {
                    Some((k, v)) if k == key => Some(v),
                    _ => None, // collision or empty: miss
                }
            }
            MapStore::FlowIs(store) => store.get(key, false),
            MapStore::Stateful(store) => store.get(key, true),
        }
    }

    /// Inserts; returns `false` when the encoding dropped the insert
    /// (register collision).
    fn put(&mut self, key: u64, value: u64) -> bool {
        match self {
            MapStore::Registers { slots } => {
                let idx = Self::slot_of(key, slots.len());
                match slots[idx] {
                    Some((k, _)) if k != key => false, // collision: dropped
                    _ => {
                        slots[idx] = Some((key, value));
                        true
                    }
                }
            }
            MapStore::FlowIs(store) => {
                store.put(key, value, false);
                true
            }
            MapStore::Stateful(store) => {
                store.put(key, value, true);
                true
            }
        }
    }

    fn del(&mut self, key: u64) {
        match self {
            MapStore::Registers { slots } => {
                let idx = Self::slot_of(key, slots.len());
                if matches!(slots[idx], Some((k, _)) if k == key) {
                    slots[idx] = None;
                }
            }
            MapStore::FlowIs(store) | MapStore::Stateful(store) => store.del(key),
        }
    }

    fn to_logical(&self) -> BTreeMap<u64, u64> {
        match self {
            MapStore::Registers { slots } => {
                slots.iter().flatten().map(|(k, v)| (*k, *v)).collect()
            }
            MapStore::FlowIs(store) | MapStore::Stateful(store) => store.to_logical(),
        }
    }

    fn restore(&mut self, logical: &BTreeMap<u64, u64>) {
        for (k, v) in logical {
            self.put(*k, *v);
        }
    }

    fn len(&self) -> usize {
        match self {
            MapStore::Registers { slots } => slots.iter().flatten().count(),
            MapStore::FlowIs(store) | MapStore::Stateful(store) => store.entries.len(),
        }
    }
}

/// A token-bucket meter instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct MeterInstance {
    rate_pps: u64,
    burst: u64,
    /// Per-key buckets: (tokens ×1e9 for sub-pps precision, last refill).
    buckets: BTreeMap<u64, (u64, SimTime)>,
}

impl MeterInstance {
    fn check(&mut self, key: u64, now: SimTime) -> bool {
        let burst_scaled = self.burst.saturating_mul(1_000_000_000);
        let (tokens, last) = self
            .buckets
            .entry(key)
            .or_insert((burst_scaled, now));
        // Refill: rate tokens/second = rate per 1e9 ns, scaled by 1e9.
        let dt = now.saturating_since(*last).as_nanos();
        let refill = (dt as u128 * self.rate_pps as u128).min(u64::MAX as u128) as u64;
        *tokens = tokens.saturating_add(refill).min(burst_scaled);
        *last = now;
        if *tokens >= 1_000_000_000 {
            *tokens -= 1_000_000_000;
            true
        } else {
            false
        }
    }
}

/// Dense named storage for one kind of state object: a slot vector in
/// installation order plus a name index. Removal shifts later slots down
/// (order-preserving), mirroring how reconfiguration compacts declaration
/// lists; the device recompiles its bytecode image after any such change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SlotArena<T> {
    items: Vec<(String, T)>,
    index: BTreeMap<String, usize>,
}

impl<T> Default for SlotArena<T> {
    fn default() -> Self {
        SlotArena {
            items: Vec::new(),
            index: BTreeMap::new(),
        }
    }
}

impl<T> SlotArena<T> {
    fn insert(&mut self, name: &str, value: T) {
        match self.index.entry(name.to_string()) {
            Entry::Occupied(at) => self.items[*at.get()].1 = value,
            Entry::Vacant(at) => {
                at.insert(self.items.len());
                self.items.push((name.to_string(), value));
            }
        }
    }

    fn remove(&mut self, name: &str) -> Option<T> {
        let pos = self.index.remove(name)?;
        let (_, value) = self.items.remove(pos);
        for slot in self.index.values_mut() {
            if *slot > pos {
                *slot -= 1;
            }
        }
        Some(value)
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.items.get(*self.index.get(name)?).map(|(_, v)| v)
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut T> {
        let i = *self.index.get(name)?;
        self.items.get_mut(i).map(|(_, v)| v)
    }

    #[inline]
    fn at(&self, slot: u16) -> Option<&T> {
        self.items.get(slot as usize).map(|(_, v)| v)
    }

    #[inline]
    fn at_mut(&mut self, slot: u16) -> Option<&mut T> {
        self.items.get_mut(slot as usize).map(|(_, v)| v)
    }

    fn slot_of(&self, name: &str) -> Option<u16> {
        self.index.get(name).map(|&i| i as u16)
    }

    fn name_at(&self, slot: u16) -> Option<&str> {
        self.items.get(slot as usize).map(|(n, _)| n.as_str())
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.items.iter().map(|(n, v)| (n.as_str(), v))
    }
}

/// All state of one installed program on one device: what the program
/// declared is whatever the four arenas hold.
///
/// By-name accessors serve the control plane and the reference interpreter;
/// `*_at` slot accessors serve the bytecode VM without any string hashing
/// on the packet path. Slots are assigned in installation order per kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceState {
    encoding: StateEncoding,
    maps: SlotArena<MapStore>,
    registers: SlotArena<Vec<u64>>,
    counters: SlotArena<(u64, u64)>,
    meters: SlotArena<MeterInstance>,
    /// Current simulated time, set by the device before each execution
    /// (meters refill against it).
    pub now: SimTime,
}

impl DeviceState {
    /// Builds storage for every declaration using the given encoding.
    pub fn from_decls(decls: &[Arc<StateDecl>], encoding: StateEncoding) -> DeviceState {
        DeviceState::carrying(decls, encoding, None)
    }

    /// Storage for every declaration, in declaration order, where an
    /// object `outgoing` also holds (same name, same kind) starts as a copy
    /// of what is there now: maps re-put in key order under the local
    /// encoding, registers cell for cell up to the shorter length, counters
    /// as they stand; meter buckets start full. One copy per object, and
    /// equal to `from_decls(decls)` after `restore(&outgoing.snapshot())`.
    pub(crate) fn carrying(
        decls: &[Arc<StateDecl>],
        encoding: StateEncoding,
        outgoing: Option<&DeviceState>,
    ) -> DeviceState {
        let mut s = DeviceState {
            encoding,
            maps: SlotArena::default(),
            registers: SlotArena::default(),
            counters: SlotArena::default(),
            meters: SlotArena::default(),
            now: SimTime::ZERO,
        };
        // Names are unique in a checked program; in a hand-built slice the
        // last declaration of a name takes its kind's slot.
        for d in decls {
            s.install(d, outgoing);
        }
        s
    }

    /// The encoding in use.
    pub fn encoding(&self) -> StateEncoding {
        self.encoding
    }

    /// Installs storage for a new state declaration.
    pub fn add_state(&mut self, decl: &StateDecl) -> Result<()> {
        if self.has(&decl.name) {
            return Err(FlexError::Reconfig(format!(
                "state `{}` already installed",
                decl.name
            )));
        }
        self.install(decl, None);
        Ok(())
    }

    /// Storage for `decl`, started from what `outgoing` holds under the
    /// same name and kind (see [`DeviceState::carrying`]).
    fn install(&mut self, decl: &StateDecl, outgoing: Option<&DeviceState>) {
        let (name, size) = (decl.name.as_str(), decl.size as usize);
        match &decl.kind {
            StateKind::Map { .. } => {
                let old = outgoing.and_then(|o| o.maps.get(name));
                self.maps.insert(name, MapStore::carrying(self.encoding, size, old));
            }
            StateKind::Counter => {
                let old = outgoing.and_then(|o| o.counters.get(name));
                self.counters.insert(name, old.copied().unwrap_or_default());
            }
            StateKind::Register { .. } => {
                let old = outgoing.and_then(|o| o.registers.get(name));
                let mut cells = old.map_or_else(Vec::new, |r| r[..r.len().min(size)].to_vec());
                cells.resize(size, 0);
                self.registers.insert(name, cells);
            }
            StateKind::Meter { rate_pps, burst } => {
                self.meters.insert(
                    name,
                    MeterInstance {
                        rate_pps: *rate_pps,
                        burst: *burst,
                        buckets: BTreeMap::new(),
                    },
                );
            }
        }
    }

    /// Removes a state object; its contents are lost.
    pub fn remove_state(&mut self, name: &str) -> Result<()> {
        let held = [
            self.maps.remove(name).is_some(),
            self.registers.remove(name).is_some(),
            self.counters.remove(name).is_some(),
            self.meters.remove(name).is_some(),
        ];
        if held.contains(&true) {
            Ok(())
        } else {
            Err(FlexError::NotFound(format!("state `{name}`")))
        }
    }

    /// Replaces a state declaration, preserving contents when the kind is
    /// unchanged (e.g. growing a map keeps its entries; register arrays are
    /// resized, truncating or zero-filling).
    pub fn modify_state(&mut self, decl: &StateDecl) -> Result<()> {
        let (name, size) = (decl.name.as_str(), decl.size as usize);
        let same_kind = match &decl.kind {
            StateKind::Map { .. } => {
                let old = self.maps.get(name);
                let resized = old.map(|old| MapStore::carrying(self.encoding, size, Some(old)));
                // In-place replace keeps the slot stable.
                resized.map(|store| self.maps.insert(name, store)).is_some()
            }
            StateKind::Register { .. } => {
                let cells = self.registers.get_mut(name);
                cells.map(|r| r.resize(size, 0)).is_some()
            }
            StateKind::Counter => self.counters.get(name).is_some(),
            StateKind::Meter { rate_pps, burst } => {
                let meter = self.meters.get_mut(name);
                meter.map(|m| (m.rate_pps, m.burst) = (*rate_pps, *burst)).is_some()
            }
        };
        if !same_kind {
            self.remove_state(name)?;
            return self.add_state(decl);
        }
        Ok(())
    }

    /// Whether a state object exists.
    pub fn has(&self, name: &str) -> bool {
        self.maps.get(name).is_some()
            || self.registers.get(name).is_some()
            || self.counters.get(name).is_some()
            || self.meters.get(name).is_some()
    }

    // -- slot resolution (bytecode lowering) ----------------------------------

    /// The dense slot of map `name`, if installed.
    pub fn map_slot(&self, name: &str) -> Option<u16> {
        self.maps.slot_of(name)
    }

    /// The dense slot of register array `name`, if installed.
    pub fn register_slot(&self, name: &str) -> Option<u16> {
        self.registers.slot_of(name)
    }

    /// The dense slot of counter `name`, if installed.
    pub fn counter_slot(&self, name: &str) -> Option<u16> {
        self.counters.slot_of(name)
    }

    /// The dense slot of meter `name`, if installed.
    pub fn meter_slot(&self, name: &str) -> Option<u16> {
        self.meters.slot_of(name)
    }

    // -- logical snapshot ----------------------------------------------------

    /// Captures the full logical state (for migration/replication).
    pub fn snapshot(&self) -> LogicalState {
        LogicalState {
            maps: self
                .maps
                .iter()
                .map(|(n, m)| (n.to_string(), m.to_logical()))
                .collect(),
            registers: self
                .registers
                .iter()
                .map(|(n, r)| (n.to_string(), r.clone()))
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(n, c)| (n.to_string(), *c))
                .collect(),
        }
    }

    /// Restores a logical snapshot into this device's encodings. Items that
    /// don't fit the local encoding (register collisions, capacity) degrade
    /// exactly as live inserts would.
    pub fn restore(&mut self, logical: &LogicalState) {
        for (name, entries) in &logical.maps {
            if let Some(store) = self.maps.get_mut(name) {
                store.restore(entries);
            }
        }
        for (name, cells) in &logical.registers {
            if let Some(r) = self.registers.get_mut(name) {
                for (i, v) in cells.iter().enumerate().take(r.len()) {
                    r[i] = *v;
                }
            }
        }
        for (name, c) in &logical.counters {
            if let Some(local) = self.counters.get_mut(name) {
                local.0 += c.0;
                local.1 += c.1;
            }
        }
    }

    // -- data-plane accessors (ExecEnv plumbing) ------------------------------

    /// Reads a map.
    pub fn map_get(&mut self, map: &str, key: u64) -> Option<u64> {
        self.maps.get_mut(map)?.get(key)
    }

    /// Writes a map. Register-encoded maps may drop colliding inserts; that
    /// is reported as `Ok(())` to programs (data planes degrade silently)
    /// but counted in the `__dropped_inserts` counter.
    pub fn map_put(&mut self, map: &str, key: u64, value: u64) -> Result<()> {
        let Some(store) = self.maps.get_mut(map) else {
            return Err(FlexError::NotFound(format!("map `{map}`")));
        };
        if !store.put(key, value) {
            self.bump_dropped_inserts();
        }
        Ok(())
    }

    fn bump_dropped_inserts(&mut self) {
        if self.counters.get("__dropped_inserts").is_none() {
            self.counters.insert("__dropped_inserts", (0, 0));
        }
        if let Some(c) = self.counters.get_mut("__dropped_inserts") {
            c.0 += 1;
        }
    }

    /// Deletes a map entry.
    pub fn map_del(&mut self, map: &str, key: u64) {
        if let Some(store) = self.maps.get_mut(map) {
            store.del(key);
        }
    }

    /// Number of live entries in a map.
    pub fn map_len(&self, map: &str) -> usize {
        self.maps.get(map).map(|m| m.len()).unwrap_or(0)
    }

    /// Reads a register cell.
    pub fn reg_read(&self, reg: &str, idx: u64) -> u64 {
        self.registers
            .get(reg)
            .and_then(|r| r.get(idx as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Writes a register cell (out-of-range writes are ignored; the verifier
    /// proves indices in bounds for verified programs).
    pub fn reg_write(&mut self, reg: &str, idx: u64, val: u64) {
        if let Some(r) = self.registers.get_mut(reg) {
            if let Some(cell) = r.get_mut(idx as usize) {
                *cell = val;
            }
        }
    }

    /// Adds to a counter.
    pub fn counter_add(&mut self, counter: &str, pkts: u64, bytes: u64) {
        if let Some(c) = self.counters.get_mut(counter) {
            c.0 += pkts;
            c.1 += bytes;
        }
    }

    /// Reads a counter's packet count.
    pub fn counter_read(&self, counter: &str) -> u64 {
        self.counters.get(counter).map(|c| c.0).unwrap_or(0)
    }

    /// Checks a meter at the current device time.
    pub fn meter_check(&mut self, meter: &str, key: u64) -> bool {
        let now = self.now;
        match self.meters.get_mut(meter) {
            Some(m) => m.check(key, now),
            None => true,
        }
    }

    // -- slot accessors (bytecode VM fast path) -------------------------------

    /// Reads a map by slot.
    #[inline]
    pub fn map_get_at(&mut self, slot: u16, key: u64) -> Option<u64> {
        self.maps.at_mut(slot)?.get(key)
    }

    /// Writes a map by slot, with the same silent-degradation semantics as
    /// [`DeviceState::map_put`].
    #[inline]
    pub fn map_put_at(&mut self, slot: u16, key: u64, value: u64) {
        let dropped = match self.maps.at_mut(slot) {
            Some(store) => !store.put(key, value),
            None => false,
        };
        if dropped {
            self.bump_dropped_inserts();
        }
    }

    /// Deletes a map entry by slot.
    pub fn map_del_at(&mut self, slot: u16, key: u64) {
        if let Some(store) = self.maps.at_mut(slot) {
            store.del(key);
        }
    }

    /// Adds to a counter by slot.
    #[inline]
    pub fn counter_add_at(&mut self, slot: u16, pkts: u64, bytes: u64) {
        if let Some(c) = self.counters.at_mut(slot) {
            c.0 += pkts;
            c.1 += bytes;
        }
    }

    /// Reads a counter's packet count by slot.
    #[inline]
    pub fn counter_read_at(&self, slot: u16) -> u64 {
        self.counters.at(slot).map(|c| c.0).unwrap_or(0)
    }

    /// Checks a meter by slot at the current device time.
    pub fn meter_check_at(&mut self, slot: u16, key: u64) -> bool {
        let now = self.now;
        match self.meters.at_mut(slot) {
            Some(m) => m.check(key, now),
            None => true,
        }
    }

    // -- trap-checked register accessors (sandboxed packet path) --------------
    //
    // The verifier proves register indices against *declared* sizes, but a
    // runtime reconfiguration can shrink the array after the proof ran. The
    // sandbox turns that stale proof into a typed [`Trap::StateOutOfBounds`]
    // instead of the silent read-0/ignore-write of the legacy accessors
    // (which remain above for control-plane callers and old tests).

    /// Reads a register cell, trapping when the index is outside the
    /// array's current length. An unknown register name still reads 0 —
    /// the typechecker guarantees names resolve, so that case indicts the
    /// image, not the packet, and is caught by install-time resolution.
    pub fn reg_read_checked(&self, reg: &str, idx: u64) -> Result<u64> {
        match self.registers.get(reg) {
            Some(r) => match r.get(idx as usize) {
                Some(v) => Ok(*v),
                None => Err(Trap::StateOutOfBounds {
                    kind: "register",
                    name: reg.to_string(),
                    index: idx,
                    size: r.len() as u64,
                }
                .into()),
            },
            None => Ok(0),
        }
    }

    /// Writes a register cell, trapping when the index is outside the
    /// array's current length.
    pub fn reg_write_checked(&mut self, reg: &str, idx: u64, val: u64) -> Result<()> {
        match self.registers.get_mut(reg) {
            Some(r) => {
                let size = r.len() as u64;
                match r.get_mut(idx as usize) {
                    Some(cell) => {
                        *cell = val;
                        Ok(())
                    }
                    None => Err(Trap::StateOutOfBounds {
                        kind: "register",
                        name: reg.to_string(),
                        index: idx,
                        size,
                    }
                    .into()),
                }
            }
            None => Ok(()),
        }
    }

    /// Slot-form of [`DeviceState::reg_read_checked`].
    pub fn reg_read_at_checked(&self, slot: u16, idx: u64) -> Result<u64> {
        match self.registers.at(slot) {
            Some(r) => match r.get(idx as usize) {
                Some(v) => Ok(*v),
                None => Err(Trap::StateOutOfBounds {
                    kind: "register",
                    name: self
                        .registers
                        .name_at(slot)
                        .unwrap_or("?")
                        .to_string(),
                    index: idx,
                    size: r.len() as u64,
                }
                .into()),
            },
            None => Ok(0),
        }
    }

    /// Slot-form of [`DeviceState::reg_write_checked`].
    pub fn reg_write_at_checked(&mut self, slot: u16, idx: u64, val: u64) -> Result<()> {
        let Some(r) = self.registers.at_mut(slot) else {
            return Ok(());
        };
        let size = r.len() as u64;
        if let Some(cell) = r.get_mut(idx as usize) {
            *cell = val;
            return Ok(());
        }
        Err(Trap::StateOutOfBounds {
            kind: "register",
            name: self
                .registers
                .name_at(slot)
                .unwrap_or("?")
                .to_string(),
            index: idx,
            size,
        }
        .into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_decl(name: &str, size: u64) -> Arc<StateDecl> {
        Arc::new(StateDecl {
            name: name.into(),
            kind: StateKind::Map {
                key_width: 32,
                value_width: 32,
            },
            size,
        })
    }

    fn reg_decl(name: &str, size: u64) -> Arc<StateDecl> {
        Arc::new(StateDecl {
            name: name.into(),
            kind: StateKind::Register { width: 64 },
            size,
        })
    }

    #[test]
    fn exact_encodings_store_and_delete() {
        for enc in [StateEncoding::FlowInstructionSet, StateEncoding::StatefulTable] {
            let mut s = DeviceState::from_decls(&[map_decl("m", 4)], enc);
            s.map_put("m", 1, 10).unwrap();
            s.map_put("m", 2, 20).unwrap();
            assert_eq!(s.map_get("m", 1), Some(10));
            assert_eq!(s.map_get("m", 3), None);
            s.map_del("m", 1);
            assert_eq!(s.map_get("m", 1), None);
            assert_eq!(s.map_len("m"), 1);
        }
    }

    #[test]
    fn register_encoding_collides() {
        let mut s = DeviceState::from_decls(&[map_decl("m", 2)], StateEncoding::RegisterArray);
        // With only 2 slots, inserting several keys must collide eventually.
        for k in 0..16 {
            s.map_put("m", k, k).unwrap();
        }
        assert!(s.counter_read("__dropped_inserts") > 0, "register encoding must drop colliding inserts");
        assert!(s.map_len("m") <= 2);
    }

    #[test]
    fn flow_is_evicts_fifo() {
        let mut s =
            DeviceState::from_decls(&[map_decl("m", 2)], StateEncoding::FlowInstructionSet);
        s.map_put("m", 1, 1).unwrap();
        s.map_put("m", 2, 2).unwrap();
        s.map_put("m", 3, 3).unwrap(); // evicts key 1 (oldest)
        assert_eq!(s.map_get("m", 1), None);
        assert_eq!(s.map_get("m", 2), Some(2));
        assert_eq!(s.map_get("m", 3), Some(3));
    }

    #[test]
    fn stateful_table_evicts_lru() {
        let mut s = DeviceState::from_decls(&[map_decl("m", 2)], StateEncoding::StatefulTable);
        s.map_put("m", 1, 1).unwrap();
        s.map_put("m", 2, 2).unwrap();
        let _ = s.map_get("m", 1); // touch 1: now 2 is LRU
        s.map_put("m", 3, 3).unwrap(); // evicts 2
        assert_eq!(s.map_get("m", 2), None);
        assert_eq!(s.map_get("m", 1), Some(1));
    }

    /// The scan-and-shift exact store that [`StampedStore`] replaced, kept
    /// as the reference it must agree with.
    struct ScanStore {
        entries: BTreeMap<u64, u64>,
        order: std::collections::VecDeque<u64>,
        cap: usize,
    }

    impl ScanStore {
        fn touch(&mut self, key: u64) {
            if let Some(pos) = self.order.iter().position(|k| *k == key) {
                self.order.remove(pos);
            }
            self.order.push_back(key);
        }

        fn get(&mut self, key: u64, lru: bool) -> Option<u64> {
            let v = self.entries.get(&key).copied();
            if v.is_some() && lru {
                self.touch(key);
            }
            v
        }

        fn put(&mut self, key: u64, value: u64, lru: bool) {
            if !self.entries.contains_key(&key) {
                if self.entries.len() >= self.cap {
                    if let Some(old) = self.order.pop_front() {
                        self.entries.remove(&old);
                    }
                }
                self.order.push_back(key);
            } else if lru {
                self.touch(key);
            }
            self.entries.insert(key, value);
        }

        fn del(&mut self, key: u64) {
            self.entries.remove(&key);
            self.order.retain(|k| *k != key);
        }
    }

    fn same_survivors(new: &StampedStore, old: &ScanStore) -> bool {
        let new = new.entries.iter().map(|(k, (v, _))| (k, v));
        new.eq(old.entries.iter())
    }

    #[test]
    fn stamped_store_replays_like_the_scanning_store() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for lru in [false, true] {
            for cap in [1usize, 4, 1024] {
                let mut rng = StdRng::seed_from_u64(0x57a3 ^ cap as u64 ^ lru as u64);
                let mut new = StampedStore::new(cap);
                let mut old = ScanStore {
                    entries: BTreeMap::new(),
                    order: Default::default(),
                    cap,
                };
                // Twice as many keys as slots: hits, misses and evictions.
                let keys = 2 * cap as u64 + 1;
                for op in 0..12_000u64 {
                    let key = rng.gen_range(0..keys);
                    match rng.gen_range(0..10u32) {
                        0..=3 => assert_eq!(new.get(key, lru), old.get(key, lru), "op {op}"),
                        4..=8 => {
                            new.put(key, op, lru);
                            old.put(key, op, lru);
                        }
                        _ => {
                            new.del(key);
                            old.del(key);
                        }
                    }
                    assert!(same_survivors(&new, &old), "cap {cap} lru {lru} op {op}");
                    assert_eq!(new.by_stamp.len(), new.entries.len());
                }
                // Same eviction order from here on: fill with fresh keys and
                // compare who survives each insert.
                for fresh in 0..2 * cap as u64 {
                    new.put(keys + fresh, 0, lru);
                    old.put(keys + fresh, 0, lru);
                    assert!(same_survivors(&new, &old), "cap {cap} lru {lru} fill {fresh}");
                }
                assert_eq!(new.to_logical(), old.entries);
            }
        }
    }

    #[test]
    fn snapshot_restore_keeps_survivors_under_both_exact_encodings() {
        for enc in [StateEncoding::FlowInstructionSet, StateEncoding::StatefulTable] {
            let mut s = DeviceState::from_decls(&[map_decl("m", 3)], enc);
            for k in 0..5 {
                s.map_put("m", k, k * 10).unwrap();
            }
            let _ = s.map_get("m", 2);
            s.map_del("m", 3);
            let snap = s.snapshot();
            let mut t = DeviceState::from_decls(&[map_decl("m", 3)], enc);
            t.restore(&snap);
            assert_eq!(t.snapshot(), snap);
            assert_eq!(t.map_len("m"), 2);
        }
    }

    #[test]
    fn registers_and_counters() {
        let mut s = DeviceState::from_decls(
            &[reg_decl("r", 4), StateDecl {
                name: "c".into(),
                kind: StateKind::Counter,
                size: 1,
            }.into()],
            StateEncoding::StatefulTable,
        );
        s.reg_write("r", 2, 99);
        assert_eq!(s.reg_read("r", 2), 99);
        assert_eq!(s.reg_read("r", 9), 0, "out of range reads 0");
        s.counter_add("c", 2, 100);
        assert_eq!(s.counter_read("c"), 2);
    }

    #[test]
    fn meter_refills_over_time() {
        let mut s = DeviceState::from_decls(
            &[StateDecl {
                name: "lim".into(),
                kind: StateKind::Meter {
                    rate_pps: 1000, // 1 token per ms
                    burst: 2,
                },
                size: 1,
            }.into()],
            StateEncoding::StatefulTable,
        );
        s.now = SimTime::from_millis(0);
        assert!(s.meter_check("lim", 7));
        assert!(s.meter_check("lim", 7));
        assert!(!s.meter_check("lim", 7), "burst exhausted");
        s.now = SimTime::from_millis(5);
        assert!(s.meter_check("lim", 7), "refilled after 5ms");
        // Other keys have their own buckets.
        assert!(s.meter_check("lim", 8));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut a =
            DeviceState::from_decls(&[map_decl("m", 8), reg_decl("r", 4)], StateEncoding::StatefulTable);
        a.map_put("m", 5, 50).unwrap();
        a.reg_write("r", 1, 11);
        a.counter_add("c", 1, 1); // nonexistent counter ignored

        let snap = a.snapshot();
        assert_eq!(snap.item_count(), 1 + 4); // 1 map entry + 4 register cells

        let mut b = DeviceState::from_decls(
            &[map_decl("m", 8), reg_decl("r", 4)],
            StateEncoding::FlowInstructionSet, // different encoding!
        );
        b.restore(&snap);
        assert_eq!(b.map_get("m", 5), Some(50));
        assert_eq!(b.reg_read("r", 1), 11);
    }

    #[test]
    fn restore_merges_counters() {
        let decl = Arc::new(StateDecl {
            name: "c".into(),
            kind: StateKind::Counter,
            size: 1,
        });
        let mut a = DeviceState::from_decls(std::slice::from_ref(&decl), StateEncoding::StatefulTable);
        a.counter_add("c", 5, 500);
        let snap = a.snapshot();
        let mut b = DeviceState::from_decls(&[decl], StateEncoding::StatefulTable);
        b.counter_add("c", 2, 200);
        b.restore(&snap);
        assert_eq!(b.counter_read("c"), 7, "counters merge additively");
    }

    #[test]
    fn add_remove_modify_state() {
        let mut s = DeviceState::from_decls(&[], StateEncoding::StatefulTable);
        s.add_state(&map_decl("m", 2)).unwrap();
        assert!(s.add_state(&map_decl("m", 2)).is_err());
        s.map_put("m", 1, 1).unwrap();
        // Growing preserves contents.
        s.modify_state(&map_decl("m", 16)).unwrap();
        assert_eq!(s.map_get("m", 1), Some(1));
        // Kind change wipes contents.
        s.modify_state(&reg_decl("m", 4)).unwrap();
        assert_eq!(s.reg_read("m", 0), 0);
        s.remove_state("m").unwrap();
        assert!(s.remove_state("m").is_err());
        assert!(s.modify_state(&map_decl("q", 2)).is_err());
    }

    #[test]
    fn slot_accessors_alias_the_named_state() {
        let mut s = DeviceState::from_decls(
            &[
                map_decl("m1", 8),
                map_decl("m2", 8),
                reg_decl("r", 4),
                StateDecl {
                    name: "c".into(),
                    kind: StateKind::Counter,
                    size: 1,
                }.into(),
            ],
            StateEncoding::StatefulTable,
        );
        assert_eq!(s.map_slot("m1"), Some(0));
        assert_eq!(s.map_slot("m2"), Some(1));
        assert_eq!(s.map_slot("zz"), None);
        assert_eq!(s.register_slot("r"), Some(0), "slots count per kind");
        assert_eq!(s.counter_slot("c"), Some(0));

        s.map_put_at(1, 7, 77);
        assert_eq!(s.map_get("m2", 7), Some(77));
        assert_eq!(s.map_get_at(1, 7), Some(77));
        s.map_del_at(1, 7);
        assert_eq!(s.map_get("m2", 7), None);

        s.reg_write_at_checked(0, 2, 5).unwrap();
        assert_eq!(s.reg_read("r", 2), 5);
        assert_eq!(s.reg_read_at_checked(0, 2), Ok(5));

        s.counter_add_at(0, 3, 30);
        assert_eq!(s.counter_read("c"), 3);
        assert_eq!(s.counter_read_at(0), 3);
    }

    #[test]
    fn removal_shifts_later_slots_down() {
        let mut s = DeviceState::from_decls(
            &[map_decl("a", 4), map_decl("b", 4), map_decl("c", 4)],
            StateEncoding::StatefulTable,
        );
        s.map_put("c", 1, 1).unwrap();
        s.remove_state("b").unwrap();
        assert_eq!(s.map_slot("a"), Some(0));
        assert_eq!(s.map_slot("c"), Some(1), "later slots shift down");
        assert_eq!(s.map_get_at(1, 1), Some(1), "contents follow the slot");
    }

    #[test]
    fn dropped_insert_counting_is_shared_between_paths() {
        let mut s = DeviceState::from_decls(&[map_decl("m", 2)], StateEncoding::RegisterArray);
        for k in 0..16 {
            s.map_put_at(0, k, k);
        }
        assert!(s.counter_read("__dropped_inserts") > 0, "slot path counts drops too");
    }
}
