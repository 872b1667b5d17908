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
//! lives in a dense vector in declaration order, so the packet path
//! addresses state by `u16` slot (`map_get_at` and friends). Names live in
//! a [`StateLayout`] the sealed image owns and every device on it shares; a
//! name reaches a slot through `*_slot`, and a flip reaches the outgoing
//! values through a `CarryMap` made once per image pair.

use flexnet_lang::ast::{StateDecl, StateKind};
use flexnet_types::hash::{fnv_step, FNV_OFFSET};
use flexnet_types::{FlexError, Result, SimTime, Trap};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a device encodes logical key/value maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
        let kept = || {
            from.entries
                .iter()
                .enumerate()
                .skip(n.saturating_sub(self.cap))
        };
        self.entries = kept()
            .map(|(i, (k, (v, _)))| (*k, (*v, i as u64)))
            .collect();
        self.by_stamp = kept().map(|(i, (k, _))| (i as u64, *k)).collect();
        self.next_stamp = n as u64;
    }
}

/// One logical map under a specific encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MapStore {
    Registers {
        slots: Vec<Option<(u64, u64)>>,
    },
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
        (fnv_step(FNV_OFFSET, key) % len as u64) as usize
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

/// One meter's token buckets by key: (tokens ×1e9 for sub-pps precision,
/// last refill). The rate and burst are the declaration's.
type MeterBuckets = BTreeMap<u64, (u64, SimTime)>;

/// Refills `key`'s bucket up to `now` and takes one token if there is one.
fn meter_check(
    buckets: &mut MeterBuckets,
    rate_pps: u64,
    burst: u64,
    key: u64,
    now: SimTime,
) -> bool {
    let burst_scaled = burst.saturating_mul(1_000_000_000);
    let (tokens, last) = buckets.entry(key).or_insert((burst_scaled, now));
    // Refill: rate tokens/second = rate per 1e9 ns, scaled by 1e9.
    let dt = now.saturating_since(*last).as_nanos();
    let refill = (dt as u128 * rate_pps as u128).min(u64::MAX as u128) as u64;
    *tokens = tokens.saturating_add(refill).min(burst_scaled);
    *last = now;
    if *tokens >= 1_000_000_000 {
        *tokens -= 1_000_000_000;
        true
    } else {
        false
    }
}

/// The name under which register-array inserts dropped on a collision are
/// reported, as if it were a counter ([`DeviceState::counter_read`],
/// [`DeviceState::snapshot`]).
const DROPPED_INSERTS: &str = "__dropped_inserts";

/// The slot kinds, each numbered from 0 in declaration order.
const MAP: usize = 0;
const REGISTER: usize = 1;
const COUNTER: usize = 2;
const METER: usize = 3;

fn kind_of(kind: &StateKind) -> usize {
    match kind {
        StateKind::Map { .. } => MAP,
        StateKind::Register { .. } => REGISTER,
        StateKind::Counter => COUNTER,
        StateKind::Meter { .. } => METER,
    }
}

/// Where a program's state objects live: per kind (maps, registers,
/// counters, meters), the declarations in slot order. A sealed image owns
/// one, built once, and every device running the image shares it by `Arc`
/// — names, kinds and declarations are never copied per device or per
/// flip; a [`DeviceState`] holds only values beside it. Only in-place ops
/// change a layout, on a private copy (`Arc::make_mut`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateLayout {
    kinds: [Vec<Arc<StateDecl>>; 4],
}

impl StateLayout {
    /// The layout of `decls`: each kind numbered in declaration order. Names
    /// are unique in a checked program; in a hand-built slice the last
    /// declaration of a name takes its kind's slot.
    pub fn new(decls: &[Arc<StateDecl>]) -> StateLayout {
        let mut layout = StateLayout::default();
        for d in decls {
            let slots = &mut layout.kinds[kind_of(&d.kind)];
            match slots.iter().position(|s| s.name == d.name) {
                Some(slot) => slots[slot] = d.clone(),
                None => slots.push(d.clone()),
            }
        }
        layout
    }

    fn slot(&self, kind: usize, name: &str) -> Option<usize> {
        self.kinds[kind].iter().position(|d| d.name == name)
    }
}

/// The carry map of a flip: for each slot of the incoming layout, per kind,
/// the outgoing slot holding a same-named object of the same kind. Built
/// once per (outgoing layout, incoming layout) pair — a `ReconfigPlan`
/// makes one for every device it is shared by — so the flip copies values
/// slot by slot and never compares a name.
#[derive(Debug)]
pub(crate) struct CarryMap {
    /// The layout the source slots index.
    pub(crate) from: Arc<StateLayout>,
    sources: [Vec<Option<usize>>; 4],
}

impl CarryMap {
    /// The carry map from `from` to `to`.
    pub(crate) fn between(from: &Arc<StateLayout>, to: &StateLayout) -> CarryMap {
        let sources = std::array::from_fn(|kind| {
            let slots = to.kinds[kind].iter();
            slots.map(|d| from.slot(kind, &d.name)).collect()
        });
        CarryMap {
            from: from.clone(),
            sources,
        }
    }
}

/// All state of one installed program on one device: the layout it shares
/// with every other instance of its image, and its own values, one vector
/// per kind in slot order.
///
/// `*_at` slot accessors serve the packet path without any string hashing;
/// by name there are only the control plane's reads, resolved through the
/// layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    layout: Arc<StateLayout>,
    encoding: StateEncoding,
    maps: Vec<MapStore>,
    registers: Vec<Vec<u64>>,
    counters: Vec<(u64, u64)>,
    meters: Vec<MeterBuckets>,
    /// Register-array inserts dropped on a collision, reported under
    /// [`DROPPED_INSERTS`] once there is one. A plain field: a packet never
    /// changes the layout.
    dropped_inserts: u64,
    /// Current simulated time, set by the device before each execution
    /// (meters refill against it).
    pub now: SimTime,
}

impl DeviceState {
    /// Builds storage for every declaration using the given encoding.
    pub fn from_decls(decls: &[Arc<StateDecl>], encoding: StateEncoding) -> DeviceState {
        DeviceState::carrying(Arc::new(StateLayout::new(decls)), encoding, None, None)
    }

    /// Storage for every object of `layout`, where one the carry map finds
    /// in `outgoing` (same name, same kind) starts as a copy of what is
    /// there now: maps re-put in key order under the local encoding,
    /// registers cell for cell up to the shorter length, counters as they
    /// stand, meter buckets as they stand (refilling on the same clock).
    /// One copy per object, and — meters aside, which a [`LogicalState`]
    /// does not hold — equal to a fresh build after
    /// `restore(&outgoing.snapshot())`. A carry map made for another
    /// outgoing layout (or none) is made here for this one.
    pub(crate) fn carrying(
        layout: Arc<StateLayout>,
        encoding: StateEncoding,
        outgoing: Option<&DeviceState>,
        carry: Option<&CarryMap>,
    ) -> DeviceState {
        let remade;
        let outgoing = match (outgoing, carry) {
            (Some(old), Some(carry)) if Arc::ptr_eq(&carry.from, &old.layout) => Some((old, carry)),
            (Some(old), _) => {
                remade = CarryMap::between(&old.layout, &layout);
                Some((old, &remade))
            }
            (None, _) => None,
        };
        let source = |kind: usize, slot: usize| {
            outgoing.and_then(|(old, carry)| Some((old, carry.sources[kind][slot]?)))
        };
        let [maps, registers, counters, meters] = &layout.kinds;
        let maps = maps.iter().enumerate().map(|(i, d)| {
            let old = source(MAP, i).map(|(o, s)| &o.maps[s]);
            MapStore::carrying(encoding, d.size as usize, old)
        });
        let registers = registers.iter().enumerate().map(|(i, d)| {
            let old = source(REGISTER, i).map_or(&[][..], |(o, s)| &o.registers[s]);
            let mut cells = old[..old.len().min(d.size as usize)].to_vec();
            cells.resize(d.size as usize, 0);
            cells
        });
        let counters =
            (0..counters.len()).map(|i| source(COUNTER, i).map_or((0, 0), |(o, s)| o.counters[s]));
        let meters = (0..meters.len())
            .map(|i| source(METER, i).map_or_else(MeterBuckets::new, |(o, s)| o.meters[s].clone()));
        DeviceState {
            maps: maps.collect(),
            registers: registers.collect(),
            counters: counters.collect(),
            meters: meters.collect(),
            layout,
            encoding,
            dropped_inserts: 0,
            now: SimTime::ZERO,
        }
    }

    /// A state of `layout` that holds no values yet: a hitless shadow's,
    /// until the flip builds its storage with [`DeviceState::carrying`].
    pub(crate) fn unpopulated(layout: Arc<StateLayout>, encoding: StateEncoding) -> DeviceState {
        DeviceState {
            layout,
            encoding,
            maps: Vec::new(),
            registers: Vec::new(),
            counters: Vec::new(),
            meters: Vec::new(),
            dropped_inserts: 0,
            now: SimTime::ZERO,
        }
    }

    /// The layout these values sit in.
    pub fn layout(&self) -> &Arc<StateLayout> {
        &self.layout
    }

    /// The encoding in use.
    pub fn encoding(&self) -> StateEncoding {
        self.encoding
    }

    /// Installs storage for a new state declaration (an in-place op: the
    /// layout becomes this state's own).
    pub fn add_state(&mut self, decl: &Arc<StateDecl>) -> Result<()> {
        if self.has(&decl.name) {
            return Err(FlexError::Reconfig(format!(
                "state `{}` already installed",
                decl.name
            )));
        }
        let (kind, size) = (kind_of(&decl.kind), decl.size as usize);
        Arc::make_mut(&mut self.layout).kinds[kind].push(decl.clone());
        match kind {
            MAP => self.maps.push(MapStore::new(self.encoding, size)),
            REGISTER => self.registers.push(vec![0; size]),
            COUNTER => self.counters.push((0, 0)),
            _ => self.meters.push(MeterBuckets::new()),
        }
        Ok(())
    }

    /// Removes a state object; its contents are lost. Later slots of its
    /// kind shift down.
    pub fn remove_state(&mut self, name: &str) -> Result<()> {
        let mut held = false;
        for kind in [MAP, REGISTER, COUNTER, METER] {
            let Some(slot) = self.layout.slot(kind, name) else {
                continue;
            };
            Arc::make_mut(&mut self.layout).kinds[kind].remove(slot);
            match kind {
                MAP => drop(self.maps.remove(slot)),
                REGISTER => drop(self.registers.remove(slot)),
                COUNTER => drop(self.counters.remove(slot)),
                _ => drop(self.meters.remove(slot)),
            }
            held = true;
        }
        if held {
            Ok(())
        } else {
            Err(FlexError::NotFound(format!("state `{name}`")))
        }
    }

    /// Replaces a state declaration, preserving contents when the kind is
    /// unchanged (e.g. growing a map keeps its entries; register arrays are
    /// resized, truncating or zero-filling; a meter keeps its buckets).
    pub fn modify_state(&mut self, decl: &Arc<StateDecl>) -> Result<()> {
        let (kind, size) = (kind_of(&decl.kind), decl.size as usize);
        let Some(slot) = self.layout.slot(kind, &decl.name) else {
            self.remove_state(&decl.name)?;
            return self.add_state(decl);
        };
        Arc::make_mut(&mut self.layout).kinds[kind][slot] = decl.clone();
        match kind {
            MAP => {
                let resized = MapStore::carrying(self.encoding, size, Some(&self.maps[slot]));
                self.maps[slot] = resized;
            }
            REGISTER => self.registers[slot].resize(size, 0),
            _ => {}
        }
        Ok(())
    }

    /// Whether a state object exists.
    pub fn has(&self, name: &str) -> bool {
        (0..4).any(|kind| self.layout.slot(kind, name).is_some())
    }

    // -- slot resolution (bytecode lowering) ----------------------------------

    /// The dense slot of map `name`, if installed.
    pub fn map_slot(&self, name: &str) -> Option<u16> {
        self.layout.slot(MAP, name).map(|s| s as u16)
    }

    /// The dense slot of register array `name`, if installed.
    pub fn register_slot(&self, name: &str) -> Option<u16> {
        self.layout.slot(REGISTER, name).map(|s| s as u16)
    }

    /// The dense slot of counter `name`, if installed.
    pub fn counter_slot(&self, name: &str) -> Option<u16> {
        self.layout.slot(COUNTER, name).map(|s| s as u16)
    }

    /// The dense slot of meter `name`, if installed.
    pub fn meter_slot(&self, name: &str) -> Option<u16> {
        self.layout.slot(METER, name).map(|s| s as u16)
    }

    // -- logical snapshot ----------------------------------------------------

    /// Captures the full logical state (for migration/replication).
    pub fn snapshot(&self) -> LogicalState {
        let named = |kind: usize| self.layout.kinds[kind].iter().map(|d| d.name.clone());
        let mut counters: BTreeMap<_, _> =
            named(COUNTER).zip(self.counters.iter().copied()).collect();
        if self.dropped_inserts > 0 {
            counters.insert(DROPPED_INSERTS.to_string(), (self.dropped_inserts, 0));
        }
        LogicalState {
            maps: named(MAP)
                .zip(self.maps.iter().map(MapStore::to_logical))
                .collect(),
            registers: named(REGISTER)
                .zip(self.registers.iter().cloned())
                .collect(),
            counters,
        }
    }

    /// Restores a logical snapshot into this device's encodings. Items that
    /// don't fit the local encoding (register collisions, capacity) degrade
    /// exactly as live inserts would.
    pub fn restore(&mut self, logical: &LogicalState) {
        for (name, entries) in &logical.maps {
            if let Some(slot) = self.layout.slot(MAP, name) {
                self.maps[slot].restore(entries);
            }
        }
        for (name, cells) in &logical.registers {
            if let Some(slot) = self.layout.slot(REGISTER, name) {
                let r = &mut self.registers[slot];
                for (i, v) in cells.iter().enumerate().take(r.len()) {
                    r[i] = *v;
                }
            }
        }
        for (name, c) in &logical.counters {
            if let Some(slot) = self.layout.slot(COUNTER, name) {
                let local = &mut self.counters[slot];
                local.0 += c.0;
                local.1 += c.1;
            } else if name == DROPPED_INSERTS && self.dropped_inserts > 0 {
                self.dropped_inserts += c.0;
            }
        }
    }

    // -- control-plane reads ---------------------------------------------------

    /// Number of live entries in a map.
    pub fn map_len(&self, map: &str) -> usize {
        self.layout.slot(MAP, map).map_or(0, |s| self.maps[s].len())
    }

    /// Reads a register cell.
    pub fn reg_read(&self, reg: &str, idx: u64) -> u64 {
        let cells = self.layout.slot(REGISTER, reg).map(|s| &self.registers[s]);
        cells
            .and_then(|r| r.get(idx as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Reads a counter's packet count (`__dropped_inserts`: the register
    /// collisions dropped so far).
    pub fn counter_read(&self, counter: &str) -> u64 {
        match self.layout.slot(COUNTER, counter) {
            Some(slot) => self.counters[slot].0,
            None if counter == DROPPED_INSERTS => self.dropped_inserts,
            None => 0,
        }
    }

    /// A meter's token buckets by key, `(tokens ×1e9, last refill)`, to
    /// inspect or seed (a [`LogicalState`] does not hold them).
    pub fn meter_buckets_mut(&mut self, meter: &str) -> Option<&mut BTreeMap<u64, (u64, SimTime)>> {
        let slot = self.layout.slot(METER, meter)?;
        self.meters.get_mut(slot)
    }

    // -- slot accessors (bytecode VM fast path) -------------------------------

    /// Reads a map by slot.
    #[inline]
    pub fn map_get_at(&mut self, slot: u16, key: u64) -> Option<u64> {
        self.maps.get_mut(slot as usize)?.get(key)
    }

    /// Writes a map by slot. Register-encoded maps may drop colliding
    /// inserts; that is silent to programs (data planes degrade silently)
    /// but counted in the `__dropped_inserts` counter.
    #[inline]
    pub fn map_put_at(&mut self, slot: u16, key: u64, value: u64) {
        if let Some(store) = self.maps.get_mut(slot as usize) {
            if !store.put(key, value) {
                self.dropped_inserts += 1;
            }
        }
    }

    /// Deletes a map entry by slot.
    pub fn map_del_at(&mut self, slot: u16, key: u64) {
        if let Some(store) = self.maps.get_mut(slot as usize) {
            store.del(key);
        }
    }

    /// Adds to a counter by slot.
    #[inline]
    pub fn counter_add_at(&mut self, slot: u16, pkts: u64, bytes: u64) {
        if let Some(c) = self.counters.get_mut(slot as usize) {
            c.0 += pkts;
            c.1 += bytes;
        }
    }

    /// Reads a counter's packet count by slot.
    #[inline]
    pub fn counter_read_at(&self, slot: u16) -> u64 {
        self.counters.get(slot as usize).map(|c| c.0).unwrap_or(0)
    }

    /// Checks a meter by slot at the current device time.
    pub fn meter_check_at(&mut self, slot: u16, key: u64) -> bool {
        let slot = slot as usize;
        let decl = self.layout.kinds[METER].get(slot);
        match (self.meters.get_mut(slot), decl.map(|d| &d.kind)) {
            (Some(buckets), Some(StateKind::Meter { rate_pps, burst })) => {
                meter_check(buckets, *rate_pps, *burst, key, self.now)
            }
            _ => true,
        }
    }

    // -- trap-checked register accessors (sandboxed packet path) --------------
    //
    // The verifier proves register indices against *declared* sizes, but a
    // runtime reconfiguration can shrink the array after the proof ran. The
    // sandbox turns that stale proof into a typed [`Trap::StateOutOfBounds`]
    // instead of the silent read-0 of the control-plane [`DeviceState::reg_read`].

    /// Reads a register cell by slot, trapping when the index is outside
    /// the array's current length. An unknown slot still reads 0 — the
    /// typechecker guarantees names resolve, so that case indicts the
    /// image, not the packet, and is caught by install-time resolution.
    pub fn reg_read_at_checked(&self, slot: u16, idx: u64) -> Result<u64> {
        match self.registers.get(slot as usize) {
            Some(r) => match r.get(idx as usize) {
                Some(v) => Ok(*v),
                None => Err(self.out_of_bounds(slot, idx)),
            },
            None => Ok(0),
        }
    }

    /// Writes a register cell by slot, trapping when the index is outside
    /// the array's current length.
    pub fn reg_write_at_checked(&mut self, slot: u16, idx: u64, val: u64) -> Result<()> {
        let Some(r) = self.registers.get_mut(slot as usize) else {
            return Ok(());
        };
        if let Some(cell) = r.get_mut(idx as usize) {
            *cell = val;
            return Ok(());
        }
        Err(self.out_of_bounds(slot, idx))
    }

    /// The trap of a register access at `idx` past the end of `slot`.
    #[cold]
    fn out_of_bounds(&self, slot: u16, idx: u64) -> FlexError {
        Trap::StateOutOfBounds {
            kind: "register",
            name: self.layout.kinds[REGISTER][slot as usize].name.clone(),
            index: idx,
            size: self.registers[slot as usize].len() as u64,
        }
        .into()
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
        for enc in [
            StateEncoding::FlowInstructionSet,
            StateEncoding::StatefulTable,
        ] {
            let mut s = DeviceState::from_decls(&[map_decl("m", 4)], enc);
            let m = s.map_slot("m").unwrap();
            s.map_put_at(m, 1, 10);
            s.map_put_at(m, 2, 20);
            assert_eq!(s.map_get_at(m, 1), Some(10));
            assert_eq!(s.map_get_at(m, 3), None);
            s.map_del_at(m, 1);
            assert_eq!(s.map_get_at(m, 1), None);
            assert_eq!(s.map_len("m"), 1);
        }
    }

    #[test]
    fn register_encoding_collides() {
        let mut s = DeviceState::from_decls(&[map_decl("m", 2)], StateEncoding::RegisterArray);
        let m = s.map_slot("m").unwrap();
        // With only 2 slots, inserting several keys must collide eventually.
        for k in 0..16 {
            s.map_put_at(m, k, k);
        }
        assert!(
            s.counter_read("__dropped_inserts") > 0,
            "register encoding must drop colliding inserts"
        );
        assert!(s.map_len("m") <= 2);
    }

    #[test]
    fn flow_is_evicts_fifo() {
        let mut s = DeviceState::from_decls(&[map_decl("m", 2)], StateEncoding::FlowInstructionSet);
        let m = s.map_slot("m").unwrap();
        s.map_put_at(m, 1, 1);
        s.map_put_at(m, 2, 2);
        s.map_put_at(m, 3, 3); // evicts key 1 (oldest)
        assert_eq!(s.map_get_at(m, 1), None);
        assert_eq!(s.map_get_at(m, 2), Some(2));
        assert_eq!(s.map_get_at(m, 3), Some(3));
    }

    #[test]
    fn stateful_table_evicts_lru() {
        let mut s = DeviceState::from_decls(&[map_decl("m", 2)], StateEncoding::StatefulTable);
        let m = s.map_slot("m").unwrap();
        s.map_put_at(m, 1, 1);
        s.map_put_at(m, 2, 2);
        let _ = s.map_get_at(m, 1); // touch 1: now 2 is LRU
        s.map_put_at(m, 3, 3); // evicts 2
        assert_eq!(s.map_get_at(m, 2), None);
        assert_eq!(s.map_get_at(m, 1), Some(1));
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
                    assert!(
                        same_survivors(&new, &old),
                        "cap {cap} lru {lru} fill {fresh}"
                    );
                }
                assert_eq!(new.to_logical(), old.entries);
            }
        }
    }

    #[test]
    fn snapshot_restore_keeps_survivors_under_both_exact_encodings() {
        for enc in [
            StateEncoding::FlowInstructionSet,
            StateEncoding::StatefulTable,
        ] {
            let mut s = DeviceState::from_decls(&[map_decl("m", 3)], enc);
            let m = s.map_slot("m").unwrap();
            for k in 0..5 {
                s.map_put_at(m, k, k * 10);
            }
            let _ = s.map_get_at(m, 2);
            s.map_del_at(m, 3);
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
            &[
                reg_decl("r", 4),
                StateDecl {
                    name: "c".into(),
                    kind: StateKind::Counter,
                    size: 1,
                }
                .into(),
            ],
            StateEncoding::StatefulTable,
        );
        let (r, c) = (s.register_slot("r").unwrap(), s.counter_slot("c").unwrap());
        s.reg_write_at_checked(r, 2, 99).unwrap();
        assert_eq!(s.reg_read("r", 2), 99);
        assert_eq!(s.reg_read("r", 9), 0, "out of range reads 0");
        assert!(
            s.reg_read_at_checked(r, 9).is_err(),
            "the packet path traps instead"
        );
        s.counter_add_at(c, 2, 100);
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
            }
            .into()],
            StateEncoding::StatefulTable,
        );
        let lim = s.meter_slot("lim").unwrap();
        s.now = SimTime::from_millis(0);
        assert!(s.meter_check_at(lim, 7));
        assert!(s.meter_check_at(lim, 7));
        assert!(!s.meter_check_at(lim, 7), "burst exhausted");
        s.now = SimTime::from_millis(5);
        assert!(s.meter_check_at(lim, 7), "refilled after 5ms");
        // Other keys have their own buckets.
        assert!(s.meter_check_at(lim, 8));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut a = DeviceState::from_decls(
            &[map_decl("m", 8), reg_decl("r", 4)],
            StateEncoding::StatefulTable,
        );
        a.map_put_at(0, 5, 50);
        a.reg_write_at_checked(0, 1, 11).unwrap();

        let snap = a.snapshot();
        assert_eq!(snap.item_count(), 1 + 4); // 1 map entry + 4 register cells

        let mut b = DeviceState::from_decls(
            &[map_decl("m", 8), reg_decl("r", 4)],
            StateEncoding::FlowInstructionSet, // different encoding!
        );
        b.restore(&snap);
        assert_eq!(b.map_get_at(0, 5), Some(50));
        assert_eq!(b.reg_read("r", 1), 11);
    }

    #[test]
    fn restore_merges_counters() {
        let decl = Arc::new(StateDecl {
            name: "c".into(),
            kind: StateKind::Counter,
            size: 1,
        });
        let mut a =
            DeviceState::from_decls(std::slice::from_ref(&decl), StateEncoding::StatefulTable);
        a.counter_add_at(0, 5, 500);
        let snap = a.snapshot();
        let mut b = DeviceState::from_decls(&[decl], StateEncoding::StatefulTable);
        b.counter_add_at(0, 2, 200);
        b.restore(&snap);
        assert_eq!(b.counter_read("c"), 7, "counters merge additively");
    }

    #[test]
    fn add_remove_modify_state() {
        let mut s = DeviceState::from_decls(&[], StateEncoding::StatefulTable);
        s.add_state(&map_decl("m", 2)).unwrap();
        assert!(s.add_state(&map_decl("m", 2)).is_err());
        s.map_put_at(0, 1, 1);
        // Growing preserves contents.
        s.modify_state(&map_decl("m", 16)).unwrap();
        assert_eq!(s.map_get_at(0, 1), Some(1));
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
                }
                .into(),
            ],
            StateEncoding::StatefulTable,
        );
        assert_eq!(s.map_slot("m1"), Some(0));
        assert_eq!(s.map_slot("m2"), Some(1));
        assert_eq!(s.map_slot("zz"), None);
        assert_eq!(s.register_slot("r"), Some(0), "slots count per kind");
        assert_eq!(s.counter_slot("c"), Some(0));

        s.map_put_at(1, 7, 77);
        assert_eq!(s.snapshot().maps["m2"].get(&7), Some(&77));
        assert_eq!(s.map_get_at(1, 7), Some(77));
        s.map_del_at(1, 7);
        assert_eq!(s.map_len("m2"), 0);

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
        s.map_put_at(2, 1, 1);
        s.remove_state("b").unwrap();
        assert_eq!(s.map_slot("a"), Some(0));
        assert_eq!(s.map_slot("c"), Some(1), "later slots shift down");
        assert_eq!(s.map_get_at(1, 1), Some(1), "contents follow the slot");
    }
}
