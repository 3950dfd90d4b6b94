//! Chip topology: cores, PMDs, and the static chip specification.
//!
//! Both X-Gene chips group cores in *PMDs* (Processor MoDules): pairs of
//! cores sharing an L2 cache and a clock domain. The entire PCP (Processor
//! ComPlex) power domain — cores, L1/L2/L3, memory controllers — shares one
//! voltage rail. Frequency is per-PMD; voltage is per-chip. These
//! granularities are the entire reason the paper's core-allocation policy
//! exists, so they are first-class here.

use crate::freq::FrequencyMhz;
use std::fmt;

/// Identifier of a single CPU core, `0..spec.cores`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u16);

/// Identifier of a PMD (core pair), `0..spec.pmds()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PmdId(u16);

impl CoreId {
    /// Creates a core id from a raw index.
    pub const fn new(idx: u16) -> Self {
        CoreId(idx)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl PmdId {
    /// Creates a PMD id from a raw index.
    pub const fn new(idx: u16) -> Self {
        PmdId(idx)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl fmt::Display for PmdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PMD{}", self.0)
    }
}

impl From<u16> for CoreId {
    fn from(v: u16) -> Self {
        CoreId(v)
    }
}

impl From<u16> for PmdId {
    fn from(v: u16) -> Self {
        PmdId(v)
    }
}

/// Silicon process of a chip; drives the static-variation magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Technology {
    /// 28 nm bulk CMOS (X-Gene 2).
    Bulk28nm,
    /// 16 nm FinFET (X-Gene 3).
    FinFet16nm,
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Technology::Bulk28nm => write!(f, "28 nm bulk CMOS"),
            Technology::FinFet16nm => write!(f, "16 nm FinFET"),
        }
    }
}

/// Static description of a chip (Table I of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Human-readable model name, e.g. `"X-Gene 3"`.
    pub name: String,
    /// Number of CPU cores.
    pub cores: u16,
    /// Cores per PMD (2 on both X-Gene chips).
    pub cores_per_pmd: u16,
    /// Maximum core clock in MHz (2400 for X-Gene 2, 3000 for X-Gene 3).
    pub fmax_mhz: u32,
    /// Nominal (maximum regulated) PCP voltage in millivolts.
    pub nominal_mv: u32,
    /// Lowest voltage the regulator will accept, in millivolts.
    pub vreg_floor_mv: u32,
    /// L1 instruction cache size per core, KiB.
    pub l1i_kib: u32,
    /// L1 data cache size per core, KiB.
    pub l1d_kib: u32,
    /// L2 cache size per PMD, KiB.
    pub l2_kib: u32,
    /// L3 cache size, KiB.
    pub l3_kib: u32,
    /// Thermal design power, watts.
    pub tdp_w: f64,
    /// Process technology.
    pub technology: Technology,
}

impl ChipSpec {
    /// Number of PMDs on the chip.
    pub fn pmds(&self) -> u16 {
        self.cores / self.cores_per_pmd
    }

    /// The maximum core clock as a typed frequency.
    pub fn fmax(&self) -> FrequencyMhz {
        FrequencyMhz::new(self.fmax_mhz)
    }

    /// The PMD that owns `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn pmd_of(&self, core: CoreId) -> PmdId {
        assert!(
            (core.index() as u16) < self.cores,
            "{core} out of range for {} cores",
            self.cores
        );
        PmdId(core.index() as u16 / self.cores_per_pmd)
    }

    /// The cores belonging to `pmd`, as a mask (iterate it with
    /// [`CoreSet::iter`] for index order).
    ///
    /// # Panics
    ///
    /// Panics if `pmd` is out of range.
    #[inline]
    pub fn cores_of(&self, pmd: PmdId) -> CoreSet {
        assert!(
            self.contains_pmd(pmd),
            "{pmd} out of range for {} PMDs",
            self.pmds()
        );
        let base = pmd.index() as u16 * self.cores_per_pmd;
        CoreSet(CoreSet::first_n(self.cores_per_pmd).0 << base)
    }

    /// Iterates over all core ids.
    pub fn all_cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.cores).map(CoreId)
    }

    /// Iterates over all PMD ids.
    pub fn all_pmds(&self) -> impl Iterator<Item = PmdId> {
        (0..self.pmds()).map(PmdId)
    }

    /// True if `core` exists on this chip.
    pub fn contains_core(&self, core: CoreId) -> bool {
        (core.index() as u16) < self.cores
    }

    /// True if `pmd` exists on this chip: its last core,
    /// `(pmd + 1) × cores_per_pmd − 1`, is one of the chip's cores.
    pub fn contains_pmd(&self, pmd: PmdId) -> bool {
        (pmd.index() + 1) * usize::from(self.cores_per_pmd) <= usize::from(self.cores)
    }
}

/// The indices of the set bits of `bits`, ascending.
fn set_bits(mut bits: u64) -> impl Iterator<Item = u16> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let i = bits.trailing_zeros() as u16;
        bits &= bits - 1;
        Some(i)
    })
}

/// A set of cores, used for affinity masks and allocations.
///
/// Backed by a `u64` bitmask; supports chips up to 64 cores, which covers
/// both X-Gene parts with room to spare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct CoreSet(u64);

impl CoreSet {
    /// The empty set.
    pub const EMPTY: CoreSet = CoreSet(0);

    /// Creates an empty set.
    pub const fn new() -> Self {
        CoreSet(0)
    }

    /// Creates a set containing cores `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn first_n(n: u16) -> Self {
        assert!(n <= 64, "CoreSet supports at most 64 cores");
        if n == 64 {
            CoreSet(u64::MAX)
        } else {
            CoreSet((1u64 << n) - 1)
        }
    }

    /// Creates a set from raw bits.
    pub const fn from_bits(bits: u64) -> Self {
        CoreSet(bits)
    }

    /// The raw bitmask.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Inserts a core; returns whether it was newly inserted.
    pub fn insert(&mut self, core: CoreId) -> bool {
        let bit = 1u64 << core.index();
        let newly = self.0 & bit == 0;
        self.0 |= bit;
        newly
    }

    /// Removes a core; returns whether it was present.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let bit = 1u64 << core.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Membership test.
    pub fn contains(self, core: CoreId) -> bool {
        self.0 & (1u64 << core.index()) != 0
    }

    /// Number of cores in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no cores are present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(self, other: CoreSet) -> CoreSet {
        CoreSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: CoreSet) -> CoreSet {
        CoreSet(self.0 & other.0)
    }

    /// Elements of `self` not in `other`.
    pub fn difference(self, other: CoreSet) -> CoreSet {
        CoreSet(self.0 & !other.0)
    }

    /// Iterates over member cores in ascending index order, visiting
    /// only the set bits.
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        set_bits(self.0).map(CoreId)
    }

    /// The lowest-numbered core in the set, if any.
    pub fn first(self) -> Option<CoreId> {
        if self.0 == 0 {
            None
        } else {
            Some(CoreId(self.0.trailing_zeros() as u16))
        }
    }

    /// The PMDs that have at least one member core. Cores past the
    /// chip's last whole PMD are ignored. The PMDs of a union are the
    /// union of the PMDs.
    ///
    /// With 2-core PMDs, as on both X-Gene parts, each core pair folds
    /// onto its even bit and the even bits are compacted in closed form;
    /// measured against the loop alone, that path is worth about 6% of
    /// the churn benchmark's throughput (DESIGN.md §15). Other widths
    /// test each PMD's shifted core mask in turn.
    #[inline]
    pub fn utilized_pmds(self, spec: &ChipSpec) -> PmdSet {
        let k = spec.cores_per_pmd;
        if k == 2 {
            let mut x = self.0 & CoreSet::first_n(spec.cores & !1).0;
            x = (x | (x >> 1)) & 0x5555_5555_5555_5555;
            x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
            x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
            x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
            x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
            return PmdSet((x | (x >> 16)) & 0x0000_0000_FFFF_FFFF);
        }
        let pmd0 = CoreSet::first_n(k).0;
        PmdSet((0..spec.pmds()).fold(0, |mask, p| {
            mask | (u64::from(self.0 & (pmd0 << (p * k)) != 0) << p)
        }))
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut s = CoreSet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl Extend<CoreId> for CoreSet {
    fn extend<I: IntoIterator<Item = CoreId>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl fmt::Display for CoreSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", c.index())?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// A set of PMDs, as [`CoreSet::utilized_pmds`] returns them.
///
/// Backed by a `u64` bitmask with bit `p` for PMD `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmdSet(u64);

impl PmdSet {
    /// Membership test.
    pub fn contains(self, pmd: PmdId) -> bool {
        self.0 & (1u64 << pmd.index()) != 0
    }

    /// Number of PMDs in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no PMDs are present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(self, other: PmdSet) -> PmdSet {
        PmdSet(self.0 | other.0)
    }

    /// Iterates over member PMDs in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = PmdId> {
        set_bits(self.0).map(PmdId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_8() -> ChipSpec {
        ChipSpec {
            name: "test8".into(),
            cores: 8,
            cores_per_pmd: 2,
            fmax_mhz: 2400,
            nominal_mv: 980,
            vreg_floor_mv: 600,
            l1i_kib: 32,
            l1d_kib: 32,
            l2_kib: 256,
            l3_kib: 8192,
            tdp_w: 35.0,
            technology: Technology::Bulk28nm,
        }
    }

    #[test]
    fn pmd_mapping() {
        let s = spec_8();
        assert_eq!(s.pmds(), 4);
        assert_eq!(s.pmd_of(CoreId::new(0)), PmdId::new(0));
        assert_eq!(s.pmd_of(CoreId::new(1)), PmdId::new(0));
        assert_eq!(s.pmd_of(CoreId::new(7)), PmdId::new(3));
        assert_eq!(
            s.cores_of(PmdId::new(2)),
            [4u16, 5].into_iter().map(CoreId::new).collect()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pmd_of_rejects_bad_core() {
        let _ = spec_8().pmd_of(CoreId::new(8));
    }

    #[test]
    fn all_iterators_cover_everything() {
        let s = spec_8();
        assert_eq!(s.all_cores().count(), 8);
        assert_eq!(s.all_pmds().count(), 4);
        assert!(s.contains_core(CoreId::new(7)));
        assert!(!s.contains_core(CoreId::new(8)));
        assert!(s.contains_pmd(PmdId::new(3)));
        assert!(!s.contains_pmd(PmdId::new(4)));
    }

    #[test]
    fn coreset_insert_remove() {
        let mut cs = CoreSet::new();
        assert!(cs.insert(CoreId::new(3)));
        assert!(!cs.insert(CoreId::new(3)));
        assert!(cs.contains(CoreId::new(3)));
        assert_eq!(cs.len(), 1);
        assert!(cs.remove(CoreId::new(3)));
        assert!(!cs.remove(CoreId::new(3)));
        assert!(cs.is_empty());
    }

    #[test]
    fn coreset_first_n() {
        let cs = CoreSet::first_n(8);
        assert_eq!(cs.len(), 8);
        assert!(cs.contains(CoreId::new(7)));
        assert!(!cs.contains(CoreId::new(8)));
        assert_eq!(CoreSet::first_n(64).len(), 64);
        assert_eq!(CoreSet::first_n(0).len(), 0);
    }

    #[test]
    fn coreset_set_algebra() {
        let a: CoreSet = [0u16, 1, 2].into_iter().map(CoreId::new).collect();
        let b: CoreSet = [2u16, 3].into_iter().map(CoreId::new).collect();
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b).len(), 1);
        assert_eq!(a.difference(b).len(), 2);
        assert_eq!(a.first(), Some(CoreId::new(0)));
        assert_eq!(CoreSet::EMPTY.first(), None);
    }

    #[test]
    fn utilized_pmds_collapses_pairs() {
        let s = spec_8();
        // Cores 0 and 1 share PMD0; core 4 is on PMD2.
        let cs: CoreSet = [0u16, 1, 4].into_iter().map(CoreId::new).collect();
        let pmds = cs.utilized_pmds(&s);
        assert_eq!(
            pmds.iter().collect::<Vec<_>>(),
            vec![PmdId::new(0), PmdId::new(2)]
        );
        assert_eq!(pmds.len(), 2);
        assert!(pmds.contains(PmdId::new(2)) && !pmds.contains(PmdId::new(1)));
    }

    #[test]
    fn coreset_iter_is_sorted() {
        let cs: CoreSet = [5u16, 1, 3].into_iter().map(CoreId::new).collect();
        let v: Vec<usize> = cs.iter().map(|c| c.index()).collect();
        assert_eq!(v, vec![1, 3, 5]);
    }

    #[test]
    fn coreset_display() {
        let cs: CoreSet = [1u16, 2].into_iter().map(CoreId::new).collect();
        assert_eq!(cs.to_string(), "{1,2}");
        assert_eq!(CoreSet::EMPTY.to_string(), "{}");
    }
}
