//! Resource vectors.
//!
//! Paper §3.3 stresses that "resource fungibility varies across device
//! architectures": an RMT pipeline budgets SRAM/TCAM *per stage*, a dRMT
//! device draws from a disaggregated pool, a tiled device (Trident4) exposes
//! hash/index/TCAM tiles, an elastic pipe (Jericho2) adds PEM elements, and
//! SmartNICs/hosts are "essentially fully fungible". A [`ResourceVec`] is a
//! sparse multiset over [`ResourceKind`]s that all of these models share;
//! *where* a vector is accounted (per stage, per pool, per tile group) is up
//! to each device model in `flexnet-dataplane`.

use std::fmt;
use std::ops::{Add, AddAssign};

/// The kinds of data-plane resources tracked by FlexNet device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// SRAM for exact-match tables and register arrays, in KiB.
    SramKb,
    /// TCAM for ternary/LPM tables, in KiB.
    TcamKb,
    /// Match/action processing slots (VLIW action slots on RMT, processor
    /// cycles per packet on dRMT).
    ActionSlots,
    /// Hash-lookup tiles (Trident4-style tiled architectures).
    HashTiles,
    /// Index-lookup tiles (Trident4-style tiled architectures).
    IndexTiles,
    /// TCAM tiles (Trident4-style tiled architectures).
    TcamTiles,
    /// Programmable Elements Matrix slots (Jericho2 elastic pipe).
    PemElements,
    /// Parser TCAM entries (one per parser state transition).
    ParserEntries,
    /// Stateful register cells.
    RegisterCells,
    /// Meter/counter slots.
    MeterSlots,
    /// General-purpose compute, in milli-cores (SmartNIC SoC cores, host CPUs).
    CpuMillis,
    /// General-purpose memory, in MiB (SmartNIC / host DRAM).
    DramMb,
}

impl ResourceKind {
    /// Every resource kind, for iteration in reports.
    pub const ALL: [ResourceKind; 12] = [
        ResourceKind::SramKb,
        ResourceKind::TcamKb,
        ResourceKind::ActionSlots,
        ResourceKind::HashTiles,
        ResourceKind::IndexTiles,
        ResourceKind::TcamTiles,
        ResourceKind::PemElements,
        ResourceKind::ParserEntries,
        ResourceKind::RegisterCells,
        ResourceKind::MeterSlots,
        ResourceKind::CpuMillis,
        ResourceKind::DramMb,
    ];

    /// A short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::SramKb => "sram_kb",
            ResourceKind::TcamKb => "tcam_kb",
            ResourceKind::ActionSlots => "action_slots",
            ResourceKind::HashTiles => "hash_tiles",
            ResourceKind::IndexTiles => "index_tiles",
            ResourceKind::TcamTiles => "tcam_tiles",
            ResourceKind::PemElements => "pem_elements",
            ResourceKind::ParserEntries => "parser_entries",
            ResourceKind::RegisterCells => "register_cells",
            ResourceKind::MeterSlots => "meter_slots",
            ResourceKind::CpuMillis => "cpu_millis",
            ResourceKind::DramMb => "dram_mb",
        }
    }
}

/// A vector of resource quantities, one component per [`ResourceKind`].
///
/// A fixed-size `Copy` array: snapshots, placements and demands never
/// allocate. A zero component means "absent", so `ResourceVec::default()`
/// is the all-zero vector, equality is component-wise, and [`Display`] and
/// `{:?}` list only the non-zero components, in [`ResourceKind`] order.
///
/// [`Display`]: fmt::Display
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceVec([u64; ResourceKind::ALL.len()]);

impl ResourceVec {
    /// The empty (all-zero) vector.
    pub fn new() -> ResourceVec {
        ResourceVec::default()
    }

    /// A vector with a single non-zero component.
    pub fn of(kind: ResourceKind, amount: u64) -> ResourceVec {
        let mut v = ResourceVec::new();
        v.set(kind, amount);
        v
    }

    /// Builds a vector from `(kind, amount)` pairs; later pairs overwrite
    /// earlier ones for the same kind.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ResourceKind, u64)>) -> ResourceVec {
        let mut v = ResourceVec::new();
        for (k, amt) in pairs {
            v.set(k, amt);
        }
        v
    }

    /// The quantity of `kind` (zero if absent).
    pub fn get(&self, kind: ResourceKind) -> u64 {
        self.0[kind as usize]
    }

    /// Sets the quantity of `kind`; zero removes it.
    pub fn set(&mut self, kind: ResourceKind, amount: u64) {
        self.0[kind as usize] = amount;
    }

    /// Adds `amount` of `kind`.
    pub fn add_amount(&mut self, kind: ResourceKind, amount: u64) {
        let cur = &mut self.0[kind as usize];
        *cur = cur.saturating_add(amount);
    }

    /// Whether `self` covers `needed` in every component.
    pub fn covers(&self, needed: &ResourceVec) -> bool {
        self.0
            .iter()
            .zip(needed.0)
            .all(|(&have, need)| have >= need)
    }

    /// Component-wise checked subtraction; `None` if any component would
    /// underflow.
    pub fn checked_sub(&self, rhs: &ResourceVec) -> Option<ResourceVec> {
        self.covers(rhs).then(|| self.saturating_sub(rhs))
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, rhs: &ResourceVec) -> ResourceVec {
        ResourceVec(std::array::from_fn(|i| self.0[i].saturating_sub(rhs.0[i])))
    }

    /// Scales every component by `factor`, saturating on overflow.
    pub fn scaled(&self, factor: u64) -> ResourceVec {
        ResourceVec(self.0.map(|amt| amt.saturating_mul(factor)))
    }

    /// Iterates over the non-zero `(kind, amount)` components.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, u64)> + '_ {
        let components = ResourceKind::ALL.into_iter().zip(self.0);
        components.filter(|&(_, amt)| amt != 0)
    }

    /// A scalar "size" used for sorting in bin-packing heuristics: the sum
    /// of all components. Components have different units, so this is only a
    /// heuristic ordering, never a capacity check.
    pub fn heuristic_weight(&self) -> u64 {
        self.0.iter().fold(0u64, |a, v| a.saturating_add(*v))
    }

    /// Fraction of `capacity` consumed by `self`, as the max utilization
    /// across components present in `capacity` (1.0 = some component full).
    pub fn utilization_of(&self, capacity: &ResourceVec) -> f64 {
        let mut max = 0.0f64;
        for (k, cap) in capacity.iter() {
            let u = self.get(k) as f64 / cap as f64;
            if u > max {
                max = u;
            }
        }
        max
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(mut self, rhs: ResourceVec) -> ResourceVec {
        self += rhs;
        self
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        *self += &rhs;
    }
}

impl AddAssign<&ResourceVec> for ResourceVec {
    fn add_assign(&mut self, rhs: &ResourceVec) {
        for (k, amt) in rhs.iter() {
            self.add_amount(k, amt);
        }
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, amt)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", k.label(), amt)?;
        }
        write!(f, "}}")
    }
}

/// `ResourceVec({SramKb: 1, TcamKb: 2})`: the text of a map of the
/// non-zero components.
impl fmt::Debug for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Components<'a>(&'a ResourceVec);
        impl fmt::Debug for Components<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_tuple("ResourceVec")
            .field(&Components(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram(n: u64) -> ResourceVec {
        ResourceVec::of(ResourceKind::SramKb, n)
    }

    #[test]
    fn zero_entries_are_normalized_away() {
        let mut v = sram(5);
        v.set(ResourceKind::SramKb, 0);
        assert_eq!(v, ResourceVec::new());
    }

    #[test]
    fn covers_is_component_wise() {
        let cap =
            ResourceVec::from_pairs([(ResourceKind::SramKb, 100), (ResourceKind::TcamKb, 10)]);
        assert!(cap.covers(&sram(100)));
        assert!(!cap.covers(&sram(101)));
        assert!(!cap.covers(&ResourceVec::of(ResourceKind::ActionSlots, 1)));
        assert!(cap.covers(&ResourceVec::new()));
    }

    #[test]
    fn checked_sub_underflow_returns_none() {
        let cap = sram(10);
        assert_eq!(cap.checked_sub(&sram(4)), Some(sram(6)));
        assert_eq!(cap.checked_sub(&sram(11)), None);
    }

    #[test]
    fn add_accumulates() {
        let v = sram(4) + ResourceVec::of(ResourceKind::TcamKb, 2) + sram(6);
        assert_eq!(v.get(ResourceKind::SramKb), 10);
        assert_eq!(v.get(ResourceKind::TcamKb), 2);
    }

    #[test]
    fn scaled_multiplies_each_component() {
        let v = ResourceVec::from_pairs([(ResourceKind::SramKb, 3), (ResourceKind::MeterSlots, 2)])
            .scaled(4);
        assert_eq!(v.get(ResourceKind::SramKb), 12);
        assert_eq!(v.get(ResourceKind::MeterSlots), 8);
    }

    #[test]
    fn utilization_reports_max_component() {
        let cap =
            ResourceVec::from_pairs([(ResourceKind::SramKb, 100), (ResourceKind::TcamKb, 10)]);
        let used = ResourceVec::from_pairs([(ResourceKind::SramKb, 50), (ResourceKind::TcamKb, 9)]);
        let u = used.utilization_of(&cap);
        assert!((u - 0.9).abs() < 1e-9);
    }

    #[test]
    fn display_lists_components() {
        let v = ResourceVec::from_pairs([(ResourceKind::SramKb, 1), (ResourceKind::TcamKb, 2)]);
        assert_eq!(v.to_string(), "{sram_kb=1, tcam_kb=2}");
        assert_eq!(ResourceVec::new().to_string(), "{}");
    }

    #[test]
    fn saturating_sub_clamps() {
        let v = sram(3).saturating_sub(&sram(5));
        assert_eq!(v, ResourceVec::new());
    }

    /// The sparse `BTreeMap` vector [`ResourceVec`] replaced, kept as the
    /// reference it must agree with. Same type name, so `{:?}` compares.
    mod sparse {
        use super::super::ResourceKind;
        use std::collections::BTreeMap;
        use std::fmt;

        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct ResourceVec(BTreeMap<ResourceKind, u64>);

        impl ResourceVec {
            pub fn get(&self, kind: ResourceKind) -> u64 {
                self.0.get(&kind).copied().unwrap_or(0)
            }

            pub fn set(&mut self, kind: ResourceKind, amount: u64) {
                if amount == 0 {
                    self.0.remove(&kind);
                } else {
                    self.0.insert(kind, amount);
                }
            }

            pub fn add_amount(&mut self, kind: ResourceKind, amount: u64) {
                let cur = self.get(kind);
                self.set(kind, cur.saturating_add(amount));
            }

            pub fn covers(&self, needed: &ResourceVec) -> bool {
                needed.0.iter().all(|(k, amt)| self.get(*k) >= *amt)
            }

            pub fn checked_sub(&self, rhs: &ResourceVec) -> Option<ResourceVec> {
                if !self.covers(rhs) {
                    return None;
                }
                let mut out = self.clone();
                for (k, amt) in &rhs.0 {
                    let cur = out.get(*k);
                    out.set(*k, cur - amt);
                }
                Some(out)
            }

            pub fn saturating_sub(&self, rhs: &ResourceVec) -> ResourceVec {
                let mut out = self.clone();
                for (k, amt) in &rhs.0 {
                    let cur = out.get(*k);
                    out.set(*k, cur.saturating_sub(*amt));
                }
                out
            }

            pub fn scaled(&self, factor: u64) -> ResourceVec {
                let mut out = ResourceVec::default();
                for (k, amt) in &self.0 {
                    out.set(*k, amt.saturating_mul(factor));
                }
                out
            }

            pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, u64)> + '_ {
                self.0.iter().map(|(k, v)| (*k, *v))
            }

            pub fn heuristic_weight(&self) -> u64 {
                self.0.values().fold(0u64, |a, v| a.saturating_add(*v))
            }

            pub fn utilization_of(&self, capacity: &ResourceVec) -> f64 {
                let mut max = 0.0f64;
                for (k, cap) in capacity.iter() {
                    if cap > 0 {
                        let u = self.get(k) as f64 / cap as f64;
                        if u > max {
                            max = u;
                        }
                    }
                }
                max
            }

            pub fn add_assign(&mut self, rhs: &ResourceVec) {
                for (k, amt) in &rhs.0 {
                    self.add_amount(*k, *amt);
                }
            }
        }

        impl fmt::Display for ResourceVec {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.is_empty() {
                    return write!(f, "{{}}");
                }
                write!(f, "{{")?;
                for (i, (k, amt)) in self.0.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}={}", k.label(), amt)?;
                }
                write!(f, "}}")
            }
        }
    }

    /// Amounts that hit zero, small values and both ends of saturation.
    const AMOUNTS: [u64; 8] = [0, 1, 2, 3, 7, 1000, u64::MAX - 1, u64::MAX];

    /// The same text under `{}`, `{:?}` and `{:#?}`.
    fn same_text(new: &ResourceVec, old: &sparse::ResourceVec) -> bool {
        new.to_string() == old.to_string()
            && format!("{new:?}") == format!("{old:?}")
            && format!("{new:#?}") == format!("{old:#?}")
    }

    use proptest::prelude::any;
    use proptest::{prop_assert, prop_assert_eq};

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Four registers driven through the same random op sequence in both
        /// forms; after every op each result, every pairwise `==`, and
        /// every register's text agree.
        #[test]
        fn fixed_array_agrees_with_the_sparse_map(
            ops in proptest::collection::vec(
                (0u8..10, 0usize..4, 0usize..4, 0usize..12, 0usize..8, any::<u64>()),
                1..48,
            )
        ) {
            let mut new = [ResourceVec::new(); 4];
            let mut old: [sparse::ResourceVec; 4] = Default::default();
            for (op, a, b, kind, amount, raw) in ops {
                let kind = ResourceKind::ALL[kind];
                let amount = if raw % 3 == 0 { raw } else { AMOUNTS[amount] };
                match op {
                    0 => {
                        new[a].set(kind, amount);
                        old[a].set(kind, amount);
                    }
                    1 => {
                        new[a].add_amount(kind, amount);
                        old[a].add_amount(kind, amount);
                    }
                    2 => {
                        let (rhs_new, rhs_old) = (new[b], old[b].clone());
                        if raw % 2 == 0 {
                            new[a] += rhs_new;
                        } else {
                            new[a] += &rhs_new;
                        }
                        old[a].add_assign(&rhs_old);
                    }
                    3 => {
                        new[a] = new[a].saturating_sub(&new[b]);
                        old[a] = old[a].saturating_sub(&old[b]);
                    }
                    4 => {
                        let got = new[a].checked_sub(&new[b]);
                        let want = old[a].checked_sub(&old[b]);
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            prop_assert!(same_text(&got, &want));
                            new[a] = got;
                            old[a] = want;
                        }
                    }
                    5 => {
                        new[a] = new[a].scaled(amount);
                        old[a] = old[a].scaled(amount);
                    }
                    6 => prop_assert_eq!(new[a].covers(&new[b]), old[a].covers(&old[b])),
                    7 => {
                        let got = new[a].utilization_of(&new[b]);
                        let want = old[a].utilization_of(&old[b]);
                        prop_assert_eq!(got.to_bits(), want.to_bits());
                    }
                    8 => prop_assert_eq!(new[a].heuristic_weight(), old[a].heuristic_weight()),
                    _ => prop_assert!(new[a].iter().eq(old[a].iter())),
                }
                for i in 0..4 {
                    prop_assert!(same_text(&new[i], &old[i]), "{:?} vs {:?}", new[i], old[i]);
                    prop_assert!(new[i].iter().eq(old[i].iter()));
                    for j in 0..4 {
                        prop_assert_eq!(new[i] == new[j], old[i] == old[j]);
                    }
                }
            }
        }
    }
}
