//! The mask forms of the PMD queries agree with per-core reference
//! definitions written out here: exhaustively over every core set of
//! X-Gene 2's 8 cores and of synthetic chips with 3- and 4-core PMDs
//! (the shift-loop path) or a core past the last whole PMD, and over
//! seeded draws of X-Gene 3's 32 cores and a full 64-core chip.

use avfs_chip::presets;
use avfs_chip::topology::{ChipSpec, CoreId, CoreSet, PmdId};
use avfs_sim::rng::RngStream;

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

/// A chip with `cores` cores in PMDs of `cores_per_pmd`; anything but
/// the topology is X-Gene 2's.
fn synthetic(cores: u16, cores_per_pmd: u16) -> ChipSpec {
    ChipSpec {
        name: format!("synthetic {cores}x{cores_per_pmd}"),
        cores,
        cores_per_pmd,
        ..presets::xgene2().spec().clone()
    }
}

fn assert_matches_reference(spec: &ChipSpec, set: CoreSet) {
    let pmds = set.utilized_pmds(spec);
    let reference = ref_utilized_pmds(spec, set);
    assert_eq!(
        pmds.iter().collect::<Vec<_>>(),
        reference,
        "utilized_pmds of {set}"
    );
    assert_eq!(pmds.len(), reference.len(), "len of {set}'s PMDs");
    for pmd in (0..64).map(PmdId::new) {
        assert_eq!(
            pmds.contains(pmd),
            reference.contains(&pmd),
            "{pmd} in {set}'s PMDs"
        );
    }
    assert_eq!(
        set.iter().collect::<Vec<_>>(),
        ref_iter(set),
        "iter of {set}"
    );
}

/// Synthetic topologies swept exhaustively: 3- and 4-core PMDs, 10
/// cores in 3-core PMDs (core 9 belongs to no whole PMD) and 9 cores in
/// pairs (core 8 likewise).
const SYNTHETIC: [(u16, u16); 5] = [(9, 3), (10, 3), (12, 4), (14, 4), (9, 2)];

#[test]
fn cores_of_matches_pmd_of_on_both_presets() {
    for spec in [presets::xgene2().spec(), presets::xgene3().spec()] {
        for pmd in spec.all_pmds() {
            assert_eq!(spec.cores_of(pmd), ref_cores_of(spec, pmd), "{pmd}");
        }
    }
}

#[test]
fn cores_of_matches_pmd_of_on_synthetic_chips() {
    for (cores, k) in SYNTHETIC {
        let spec = synthetic(cores, k);
        for pmd in spec.all_pmds() {
            assert_eq!(
                spec.cores_of(pmd),
                ref_cores_of(&spec, pmd),
                "{} {pmd}",
                spec.name
            );
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

#[test]
fn every_core_set_of_the_synthetic_chips_matches_the_reference() {
    for (cores, k) in SYNTHETIC {
        let spec = synthetic(cores, k);
        for bits in 0..1u64 << cores {
            assert_matches_reference(&spec, CoreSet::from_bits(bits));
        }
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn cores_of_rejects_the_first_pmd_past_xgene2() {
    let spec = presets::xgene2().spec().clone();
    let _ = spec.cores_of(PmdId::new(spec.pmds()));
}

#[test]
#[should_panic(expected = "out of range")]
fn cores_of_rejects_the_first_pmd_past_xgene3() {
    let spec = presets::xgene3().spec().clone();
    let _ = spec.cores_of(PmdId::new(spec.pmds()));
}

/// 10 cores in 3-core PMDs: PMD 3 would need cores 9..12.
#[test]
#[should_panic(expected = "out of range")]
fn cores_of_rejects_a_partial_pmd() {
    let _ = synthetic(10, 3).cores_of(PmdId::new(3));
}

/// Draws per seeded loop.
const DRAWS: usize = 128;

/// X-Gene 3's 2^32 core sets, dense (each core in with probability
/// 1/2) and sparse (1/4).
#[test]
fn xgene3_core_sets_match_the_reference() {
    let spec = presets::xgene3().spec().clone();
    let mut rng = RngStream::from_root(0, "xgene3_core_sets_match_the_reference");
    for _ in 0..DRAWS {
        let dense = rng.next_u64() & u64::from(u32::MAX);
        assert_matches_reference(&spec, CoreSet::from_bits(dense));
        assert_matches_reference(&spec, CoreSet::from_bits(dense & rng.next_u64()));
    }
}

/// A 64-core chip in pairs, whose top PMDs exercise the last fold
/// step, and in 4-core PMDs.
#[test]
fn full_width_core_sets_match_the_reference() {
    let mut rng = RngStream::from_root(0, "full_width_core_sets_match_the_reference");
    for spec in [synthetic(64, 2), synthetic(64, 4)] {
        for _ in 0..DRAWS {
            assert_matches_reference(&spec, CoreSet::from_bits(rng.next_u64()));
        }
    }
}

/// The PMDs of a union are the union of the PMDs, which a replan
/// relies on to count the PMDs a transition utilizes.
#[test]
fn the_pmds_of_a_union_are_the_union_of_the_pmds() {
    let spec = presets::xgene3().spec().clone();
    let mut rng = RngStream::from_root(0, "the_pmds_of_a_union_are_the_union_of_the_pmds");
    for _ in 0..DRAWS {
        let mut draw = || CoreSet::from_bits(rng.next_u64() & u64::from(u32::MAX));
        let (a, b) = (draw(), draw());
        assert_eq!(
            a.union(b).utilized_pmds(&spec),
            a.utilized_pmds(&spec).union(b.utilized_pmds(&spec)),
            "{a} and {b}"
        );
    }
}

/// `iter` visits every set bit of the full 64-bit mask in order.
#[test]
fn iter_matches_an_ascending_bit_scan() {
    let mut rng = RngStream::from_root(0, "iter_matches_an_ascending_bit_scan");
    for _ in 0..DRAWS {
        let set = CoreSet::from_bits(rng.next_u64());
        assert_eq!(set.iter().collect::<Vec<_>>(), ref_iter(set));
    }
}
