//! The mask forms of the PMD queries agree with per-core reference
//! definitions written out here: exhaustively over every core set of
//! X-Gene 2's 8 cores, and by property over X-Gene 3's 32.

use avfs_chip::presets;
use avfs_chip::topology::{ChipSpec, CoreId, CoreSet, PmdId};
use proptest::prelude::*;

/// Reference: every core whose owning PMD is `pmd`.
fn ref_cores_of(spec: &ChipSpec, pmd: PmdId) -> CoreSet {
    spec.all_cores()
        .filter(|&c| spec.pmd_of(c) == pmd)
        .collect()
}

/// Reference: the PMDs some core of which is in `set`, in PMD order.
fn ref_utilized_pmds(spec: &ChipSpec, set: CoreSet) -> Vec<PmdId> {
    spec.all_pmds()
        .filter(|&pmd| {
            spec.all_cores()
                .any(|c| spec.pmd_of(c) == pmd && set.contains(c))
        })
        .collect()
}

/// Reference: an ascending scan of all 64 bit positions.
fn ref_iter(set: CoreSet) -> Vec<CoreId> {
    (0..64u16)
        .filter(|&i| set.bits() & (1u64 << i) != 0)
        .map(CoreId::new)
        .collect()
}

fn assert_matches_reference(spec: &ChipSpec, set: CoreSet) {
    let utilized: Vec<PmdId> = set.utilized_pmds(spec).collect();
    assert_eq!(
        utilized,
        ref_utilized_pmds(spec, set),
        "utilized_pmds of {set}"
    );
    assert_eq!(
        set.utilized_pmd_count(spec),
        utilized.len(),
        "utilized_pmd_count of {set}"
    );
    assert_eq!(
        set.iter().collect::<Vec<_>>(),
        ref_iter(set),
        "iter of {set}"
    );
}

#[test]
fn cores_of_matches_pmd_of_on_both_presets() {
    for spec in [presets::xgene2().spec(), presets::xgene3().spec()] {
        for pmd in spec.all_pmds() {
            assert_eq!(spec.cores_of(pmd), ref_cores_of(spec, pmd), "{pmd}");
        }
    }
}

#[test]
fn every_xgene2_core_set_matches_the_reference() {
    let spec = presets::xgene2().spec().clone();
    assert_eq!(spec.cores, 8, "the exhaustive sweep assumes 8 cores");
    for bits in 0..=u8::MAX {
        assert_matches_reference(&spec, CoreSet::from_bits(u64::from(bits)));
    }
}

proptest! {
    /// X-Gene 3's 2^32 core sets, dense (each core in with
    /// probability 1/2) and sparse (1/4).
    #[test]
    fn xgene3_core_sets_match_the_reference(
        bits in any::<u32>(),
        thin in any::<u32>(),
        sparse in any::<bool>(),
    ) {
        let spec = presets::xgene3().spec().clone();
        let bits = if sparse { bits & thin } else { bits };
        assert_matches_reference(&spec, CoreSet::from_bits(u64::from(bits)));
    }

    /// `iter` visits every set bit of the full 64-bit mask in order.
    #[test]
    fn iter_matches_an_ascending_bit_scan(bits in any::<u64>()) {
        let set = CoreSet::from_bits(bits);
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), ref_iter(set));
    }
}
