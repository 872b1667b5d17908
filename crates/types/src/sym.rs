//! Interned names, and the name-ordered field list keyed by them.
//!
//! Protocol and field names are open-ended — a tenant can declare
//! `myproto.flags` at runtime — but a packet that crosses a dozen devices
//! must not compare, split, clone or free those names at every hop. A
//! [`Sym`] is a name resolved once: 4 bytes, `Copy`, equal iff the names
//! are equal. Names are interned where they *enter* the system (program
//! compilation, parser-state installation, wire parsing, workload
//! generation, tests); the packet path only ever compares ids.
//!
//! **The id is never observable.** It depends on interning order, which
//! differs between processes and between parallel sweep workers, so `Sym`
//! has no `Ord`, no `Hash` and no accessor for the number: nothing ordered,
//! hashed, digested or written to a wire may depend on it. Anything that
//! needs an order uses the *name* ([`Sym::as_str`]) — as [`Fields`], the
//! flat name → value list inside every header and packet, does.
//!
//! The interner is process-global and append-only; each distinct name is
//! leaked once, so the leak is bounded by the number of distinct names ever
//! declared. Well-known names have fixed ids and are resolved by a `match`,
//! so neither the constants nor the string API on them touches the lock;
//! [`Sym::as_str`] is lock-free for every name.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;
use std::sync::{OnceLock, RwLock};

/// An interned protocol, field or metadata name.
///
/// With real `serde`, a `Sym` must serialize as its name, never its id.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Sym(u32);

macro_rules! well_known {
    ($($id:ident = $name:literal),* $(,)?) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u32)]
        enum WellKnown { $($id),* }

        const WELL_KNOWN: &[&str] = &[$($name),*];

        impl Sym {
            $(
                #[doc = concat!("The well-known name `", $name, "`.")]
                pub const $id: Sym = Sym(WellKnown::$id as u32);
            )*
        }

        fn well_known(name: &str) -> Option<Sym> {
            match name {
                $($name => Some(Sym::$id),)*
                _ => None,
            }
        }
    };
}

well_known! {
    ETH = "eth", VLAN = "vlan", IPV4 = "ipv4", TCP = "tcp", UDP = "udp", META = "meta",
    SRC = "src", DST = "dst", ETHERTYPE = "ethertype", VID = "vid", PCP = "pcp",
    PROTO = "proto", TTL = "ttl", ECN = "ecn", DSCP = "dscp",
    SPORT = "sport", DPORT = "dport", FLAGS = "flags", SEQ = "seq", ACK = "ack",
    WINDOW = "window", DST_NODE = "dst_node",
}

const CHUNK: usize = 1024;
const MAX_CHUNKS: usize = 1024;

/// One chunk of the id → name table.
type Chunk = Box<[OnceLock<&'static str>]>;

/// Name → id for every name interned at runtime (well-known names are
/// resolved by `well_known` and never stored here).
static IDS: RwLock<BTreeMap<&'static str, u32>> = RwLock::new(BTreeMap::new());

/// Id → name for runtime names, in chunks that are allocated once and never
/// move, so readers need no lock. Slot `i` holds the name of id
/// `WELL_KNOWN.len() + i`.
static NAMES: [OnceLock<Chunk>; MAX_CHUNKS] = [const { OnceLock::new() }; MAX_CHUNKS];

const POISONED: &str = "interner lock poisoned: a thread panicked while interning";

impl Sym {
    /// The symbol for `name`, interning it if it is new.
    ///
    /// # Panics
    /// When more than a million distinct names have been interned — far
    /// beyond any set of declared headers; a runaway caller is a bug.
    pub fn intern(name: &str) -> Sym {
        if let Some(sym) = Sym::lookup(name) {
            return sym;
        }
        let mut ids = IDS.write().expect(POISONED);
        if let Some(&id) = ids.get(name) {
            return Sym(id);
        }
        let slot = ids.len();
        assert!(
            slot < CHUNK * MAX_CHUNKS,
            "interner full: {slot} distinct names"
        );
        let leaked: &'static str = Box::leak(name.into());
        let chunk =
            NAMES[slot / CHUNK].get_or_init(|| (0..CHUNK).map(|_| OnceLock::new()).collect());
        chunk[slot % CHUNK]
            .set(leaked)
            .expect("slot is written once, under the write lock");
        let id = (WELL_KNOWN.len() + slot) as u32;
        ids.insert(leaked, id);
        Sym(id)
    }

    /// The symbol for `name` if it was ever interned. A name that was never
    /// interned cannot be in any packet, so string-keyed reads use this and
    /// leave the interner untouched.
    pub fn lookup(name: &str) -> Option<Sym> {
        well_known(name).or_else(|| IDS.read().expect(POISONED).get(name).map(|&id| Sym(id)))
    }

    /// The interned name. Lock-free.
    pub fn as_str(self) -> &'static str {
        let id = self.0 as usize;
        match id.checked_sub(WELL_KNOWN.len()) {
            None => WELL_KNOWN[id],
            Some(slot) => NAMES[slot / CHUNK]
                .get()
                .and_then(|chunk| chunk[slot % CHUNK].get())
                .expect("a Sym is only ever made by intern, after its name is stored"),
        }
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(name: &str) -> Sym {
        Sym::intern(name)
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Field name → value, stored flat and iterated in *name* order (never id
/// order: a [`Sym`]'s id must not be observable).
///
/// Used for a header's fields and for packet metadata. Reads and stores to
/// an existing field are a short scan over ids; only creating a field
/// compares names, to find its place.
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Fields(Vec<(Sym, u64)>);

impl Fields {
    /// No fields.
    pub const fn new() -> Fields {
        Fields(Vec::new())
    }

    /// Wraps a list that is already in name order, with no duplicates.
    pub(crate) fn from_name_ordered(fields: Vec<(Sym, u64)>) -> Fields {
        debug_assert!(fields.windows(2).all(|w| w[0].0.as_str() < w[1].0.as_str()));
        Fields(fields)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no fields.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[inline]
    fn find(&self, name: Sym) -> Option<&u64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Reads a field.
    #[inline]
    pub fn get_sym(&self, name: Sym) -> Option<u64> {
        self.find(name).copied()
    }

    /// Writes a field, creating it if absent; returns the previous value.
    #[inline]
    pub fn insert(&mut self, name: Sym, value: u64) -> Option<u64> {
        if let Some((_, v)) = self.0.iter_mut().find(|(n, _)| *n == name) {
            return Some(std::mem::replace(v, value));
        }
        let at = self.0.partition_point(|(n, _)| n.as_str() < name.as_str());
        self.0.insert(at, (name, value));
        None
    }

    /// Reads a field by name; `None` for a name that was never interned.
    pub fn get(&self, name: &str) -> Option<&u64> {
        self.find(Sym::lookup(name)?)
    }

    /// Whether the field exists.
    pub fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The fields in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, u64)> + '_ {
        self.0.iter().copied()
    }
}

impl FromIterator<(Sym, u64)> for Fields {
    /// Later duplicates overwrite earlier ones, like a map.
    fn from_iter<I: IntoIterator<Item = (Sym, u64)>>(iter: I) -> Fields {
        let mut fields = Fields::new();
        for (name, value) in iter {
            fields.insert(name, value);
        }
        fields
    }
}

impl Index<&str> for Fields {
    type Output = u64;

    /// # Panics
    /// When the field is absent, like indexing a map.
    fn index(&self, name: &str) -> &u64 {
        self.get(name)
            .unwrap_or_else(|| panic!("no field `{name}`"))
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_names_round_trip_without_interning() {
        for (i, name) in WELL_KNOWN.iter().enumerate() {
            let sym = Sym::lookup(name).expect("well-known");
            assert_eq!(sym.0 as usize, i);
            assert_eq!(sym.as_str(), *name);
            assert_eq!(Sym::intern(name), sym);
        }
        assert_eq!(Sym::IPV4, "ipv4");
        assert_eq!(Sym::DST_NODE.to_string(), "dst_node");
        assert_eq!(format!("{:?}", Sym::ETH), "\"eth\"");
    }

    #[test]
    fn interning_is_idempotent_and_lookup_does_not_intern() {
        assert_eq!(Sym::lookup("sym_test_never_seen"), None);
        let a = Sym::intern("sym_test_custom");
        assert_eq!(Sym::intern("sym_test_custom"), a);
        assert_eq!(Sym::lookup("sym_test_custom"), Some(a));
        assert_eq!(a.as_str(), "sym_test_custom");
        assert_ne!(a, Sym::intern("sym_test_other"));
        assert_eq!(Sym::lookup("sym_test_never_seen"), None);
    }

    #[test]
    fn names_survive_chunk_boundaries_and_concurrent_interning() {
        let names: Vec<String> = (0..3 * CHUNK)
            .map(|i| format!("sym_test_bulk_{i}"))
            .collect();
        let per_thread: Vec<Vec<Sym>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let names = &names;
                    s.spawn(move || {
                        // Each worker interns in a different order.
                        let mut order: Vec<usize> = (0..names.len()).collect();
                        order.rotate_left(t * 700);
                        let mut syms = vec![Sym::ETH; names.len()];
                        for i in order {
                            syms[i] = Sym::intern(&names[i]);
                        }
                        syms
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        for syms in &per_thread {
            assert_eq!(syms, &per_thread[0]);
        }
        for (sym, name) in per_thread[0].iter().zip(&names) {
            assert_eq!(sym.as_str(), name);
        }
    }
}
