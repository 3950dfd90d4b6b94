//! The measured margin map: a characterization campaign's raw product.
//!
//! A [`MarginMap`] records, for every achievable (frequency class, droop
//! class, thread bucket) cell, the lowest voltage the campaign could
//! confirm safe on the weakest PMDs of that cell — plus enough probe
//! bookkeeping (highest failing level, probe and discard counts) to audit
//! the measurement afterwards. Campaigns hand the map to
//! [`crate::TableCompiler`] in memory; two campaigns run from the same
//! seed measure equal maps.

/// One measured characterization cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarginCell {
    /// Frequency-class row (0 = Divided, 1 = Reduced, 2 = Max).
    pub freq_row: usize,
    /// Droop-class column (`DroopClass::index()`).
    pub droop_index: usize,
    /// Thread bucket (0 → 1T, 1 → 2T, 2 → 3–4T, 3 → many).
    pub bucket: usize,
    /// Utilized-PMD count the cell was stressed at (the largest count
    /// still inside the droop class).
    pub utilized_pmds: usize,
    /// Active threads the cell was stressed at.
    pub threads: usize,
    /// Lowest voltage that passed the full confirmation ladder, mV.
    pub measured_safe_mv: u32,
    /// Highest voltage at which any probe failed (0 if none did — the
    /// search bottomed out at the regulator floor without a failure).
    pub highest_fail_mv: u32,
    /// Stress probes spent on this cell (including confirmation passes).
    pub probes: u64,
    /// Observations discarded as unusable: droop-excursion waits and
    /// glitched PMU windows.
    pub discarded: u64,
}

/// A complete measured margin map for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginMap {
    /// Name of the characterized chip (its spec name).
    pub chip: String,
    /// Nominal rail voltage of the characterized chip, mV.
    pub nominal_mv: u32,
    /// Regulator floor of the characterized chip, mV.
    pub floor_mv: u32,
    /// Total PMDs on the characterized chip.
    pub pmds: usize,
    /// Campaign seed the map was measured under.
    pub seed: u64,
    /// Confirmation passes each accepted level had to survive.
    pub confirm_passes: u32,
    /// Measured cells, in canonical campaign order (frequency class
    /// ascending, droop class ascending, bucket ascending).
    pub cells: Vec<MarginCell>,
}
