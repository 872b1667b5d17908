//! Interned header layouts: which fields a header carries, resolved once.
//!
//! A [`Layout`] is a protocol name plus its field names in *name* order,
//! interned like a [`Sym`]: equal layouts have equal ids, so a header in a
//! packet's stack is one layout word followed by its values, and its field
//! names live once per process instead of once per packet. The five
//! well-known layouts — `eth`, `vlan`, `ipv4`, `tcp`, `udp` with exactly
//! the fields their constructors build — are constants that never reach
//! the interner; a runtime parser state, a tenant's `Header::new`, or a
//! store that creates a field a header lacks interns one.
//!
//! **The id is never observable**, for the same reason a `Sym`'s is not:
//! it depends on interning order. Layouts compare by id (which is exact,
//! because interning is), and everything ordered, printed or digested goes
//! through the names.

use crate::sym::{Slots, Sym, INTERNER_CAP, POISONED, WELL_KNOWN_NAMES};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::RwLock;

/// An interned header layout, as the word that stands for it in a header
/// stack: bits 0..24 hold its protocol's `Sym` id, bits 24..40 its field
/// count and bits 40..64 its own id. A walk over a stack reads each
/// header's protocol and length from the word alone; only a field lookup
/// reads the layout's field names.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout(u64);

impl fmt::Debug for Layout {
    /// The names, never the id.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Layout({}: {:?})", self.proto(), self.fields())
    }
}

/// The most fields one header may have.
const MAX_FIELDS: usize = 0xFFFF;
const PROTO_BITS: u32 = 24;
const LEN_BITS: u32 = 16;
const _: () = assert!(
    INTERNER_CAP + 64 < 1 << PROTO_BITS,
    "every Sym id and layout id fits its field of the word"
);

/// The well-known layouts, at ids `0..5` in this order, and their field
/// names.
const WELL_KNOWN: [Layout; 5] = [
    Layout::ETH,
    Layout::VLAN,
    Layout::IPV4,
    Layout::TCP,
    Layout::UDP,
];
const WELL_KNOWN_FIELDS: [&[Sym]; 5] = [
    &[Sym::DST, Sym::ETHERTYPE, Sym::SRC],
    &[Sym::PCP, Sym::VID],
    &[
        Sym::DSCP,
        Sym::DST,
        Sym::ECN,
        Sym::PROTO,
        Sym::SRC,
        Sym::TTL,
    ],
    &[
        Sym::ACK,
        Sym::DPORT,
        Sym::FLAGS,
        Sym::SEQ,
        Sym::SPORT,
        Sym::WINDOW,
    ],
    &[Sym::DPORT, Sym::SPORT],
];

/// Where each well-known field sits in each well-known layout
/// ([`ABSENT`] where it does not): a field read on a well-known header is
/// one lookup here, with no scan of the layout's names.
const SLOTS: [[u8; WELL_KNOWN_NAMES]; 5] = {
    let mut slots = [[ABSENT; WELL_KNOWN_NAMES]; 5];
    let mut layout = 0;
    while layout < 5 {
        let fields = WELL_KNOWN_FIELDS[layout];
        let mut i = 0;
        while i < fields.len() {
            slots[layout][fields[i].id() as usize] = i as u8;
            i += 1;
        }
        layout += 1;
    }
    slots
};
const ABSENT: u8 = u8::MAX;

/// `[proto id, field ids…]` → layout id, for runtime layouts only.
static IDS: RwLock<BTreeMap<Box<[u32]>, u32>> = RwLock::new(BTreeMap::new());

/// Layout id → field names for runtime layouts: slot `i` holds id
/// `WELL_KNOWN.len() + i`.
static FIELDS: Slots<&'static [Sym]> = Slots::new();

impl Layout {
    pub(crate) const ETH: Layout = Layout::pack(Sym::ETH, 3, 0);
    pub(crate) const VLAN: Layout = Layout::pack(Sym::VLAN, 2, 1);
    pub(crate) const IPV4: Layout = Layout::pack(Sym::IPV4, 6, 2);
    pub(crate) const TCP: Layout = Layout::pack(Sym::TCP, 6, 3);
    pub(crate) const UDP: Layout = Layout::pack(Sym::UDP, 2, 4);

    const fn pack(proto: Sym, fields: usize, id: usize) -> Layout {
        Layout(
            proto.id() as u64
                | (fields as u64) << PROTO_BITS
                | (id as u64) << (PROTO_BITS + LEN_BITS),
        )
    }

    /// The layout of `proto` with `fields`, which must be in name order
    /// without duplicates; interns it if it is new.
    ///
    /// # Panics
    /// When more than a million distinct runtime layouts exist, or a header
    /// would have more than 65 535 fields.
    pub(crate) fn of(proto: Sym, fields: &[Sym]) -> Layout {
        debug_assert!(fields.windows(2).all(|w| w[0].as_str() < w[1].as_str()));
        if let Some(&known) = WELL_KNOWN
            .iter()
            .find(|l| l.proto() == proto && l.fields() == fields)
        {
            return known;
        }
        assert!(
            fields.len() <= MAX_FIELDS,
            "a header has at most {MAX_FIELDS} fields"
        );
        let key: Vec<u32> = std::iter::once(proto.id())
            .chain(fields.iter().map(|f| f.id()))
            .collect();
        let lookup = |ids: &BTreeMap<Box<[u32]>, u32>| {
            ids.get(&key[..])
                .map(|&id| Layout::pack(proto, fields.len(), id as usize))
        };
        if let Some(layout) = lookup(&IDS.read().expect(POISONED)) {
            return layout;
        }
        let mut ids = IDS.write().expect(POISONED);
        if let Some(layout) = lookup(&ids) {
            return layout;
        }
        let slot = ids.len();
        assert!(slot < INTERNER_CAP, "layout interner full: {slot} layouts");
        FIELDS.set(slot, Box::leak(fields.into()));
        let id = WELL_KNOWN.len() + slot;
        ids.insert(key.into(), id as u32);
        Layout::pack(proto, fields.len(), id)
    }

    /// The layout's protocol. Reads the word only.
    #[inline]
    pub(crate) fn proto(self) -> Sym {
        Sym::from_id(self.0 as u32 & ((1 << PROTO_BITS) - 1))
    }

    /// How many fields the layout has. Reads the word only.
    #[inline]
    pub(crate) fn len(self) -> usize {
        (self.0 >> PROTO_BITS) as usize & MAX_FIELDS
    }

    /// The header's nominal encoded size: the fixed size of a built-in
    /// protocol, four bytes per field (at least one) for any other. Reads
    /// the word only.
    #[inline]
    pub(crate) fn wire_len(self) -> u32 {
        match self.proto() {
            Sym::ETH => 14,
            Sym::VLAN => 4,
            Sym::IPV4 | Sym::TCP => 20,
            Sym::UDP => 8,
            _ => 4 * self.len().max(1) as u32,
        }
    }

    fn id(self) -> usize {
        (self.0 >> (PROTO_BITS + LEN_BITS)) as usize
    }

    /// The field names, in name order. Lock-free.
    #[inline]
    pub(crate) fn fields(self) -> &'static [Sym] {
        match WELL_KNOWN_FIELDS.get(self.id()) {
            Some(fields) => fields,
            None => FIELDS
                .get(self.id() - WELL_KNOWN.len())
                .expect("a Layout is only ever made by `of`, after its fields are stored"),
        }
    }

    /// Where `field` sits among the values, if the layout has it.
    #[inline]
    pub(crate) fn index(self, field: Sym) -> Option<usize> {
        match (SLOTS.get(self.id()), field.id() as usize) {
            (Some(slots), f) if f < WELL_KNOWN_NAMES => {
                let i = slots[f];
                (i != ABSENT).then_some(i as usize)
            }
            _ => self.fields().iter().position(|&f| f == field),
        }
    }

    /// The layout with `field` added, and where its value goes. Compares
    /// names (to find the place) and interns: the path of a store that
    /// creates a field, never of one that overwrites.
    pub(crate) fn with(self, field: Sym) -> (Layout, usize) {
        let names = self.fields();
        let at = names.partition_point(|f| f.as_str() < field.as_str());
        let mut fields = Vec::with_capacity(names.len() + 1);
        fields.extend_from_slice(&names[..at]);
        fields.push(field);
        fields.extend_from_slice(&names[at..]);
        (Layout::of(self.proto(), &fields), at)
    }

    /// The word that stands for this layout in a header stack.
    #[inline]
    pub(crate) fn word(self) -> u64 {
        self.0
    }

    /// The layout a header stack's word stands for.
    #[inline]
    pub(crate) fn from_word(word: u64) -> Layout {
        Layout(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_layouts_are_constants_in_name_order() {
        let protos = [Sym::ETH, Sym::VLAN, Sym::IPV4, Sym::TCP, Sym::UDP];
        for (layout, proto) in WELL_KNOWN.into_iter().zip(protos) {
            let names: Vec<&str> = layout.fields().iter().map(|f| f.as_str()).collect();
            assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
            assert_eq!(Layout::of(proto, layout.fields()), layout);
            assert_eq!((layout.proto(), layout.len()), (proto, names.len()));
            for f in (0..WELL_KNOWN_NAMES as u32).map(Sym::from_id) {
                let scanned = layout.fields().iter().position(|&n| n == f);
                assert_eq!(layout.index(f), scanned, "{layout:?} {f}");
            }
        }
        assert_eq!(WELL_KNOWN.map(Layout::wire_len), [14, 4, 20, 20, 8]);
    }

    #[test]
    fn runtime_layouts_are_interned_once_by_content() {
        let proto = Sym::intern("layout_test_proto");
        let (a, b) = (Sym::intern("layout_test_a"), Sym::intern("layout_test_b"));
        let ab = Layout::of(proto, &[a, b]);
        assert_eq!(Layout::of(proto, &[a, b]), ab);
        assert_ne!(Layout::of(proto, &[a]), ab);
        let (grown, at) = Layout::of(proto, &[b]).with(a);
        assert_eq!((grown, at), (ab, 0));
        assert_eq!(ab.proto(), proto);
        assert_eq!((ab.len(), ab.wire_len()), (2, 8));
        assert_eq!(Layout::of(proto, &[]).wire_len(), 4);
        // A built-in protocol keeps its fixed size whatever its fields.
        let (eth_plus, _) = Layout::ETH.with(a);
        assert_ne!(eth_plus, Layout::ETH);
        assert_eq!((eth_plus.len(), eth_plus.wire_len()), (4, 14));
        assert_eq!(ab.index(b), Some(1));
        assert_eq!(Layout::from_word(ab.word()), ab);
    }
}
