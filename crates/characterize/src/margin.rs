//! The measured margin map: a characterization campaign's raw product.
//!
//! A [`MarginMap`] records, for every achievable (frequency class, droop
//! class, thread bucket) cell, the lowest voltage the campaign could
//! confirm safe on the weakest PMDs of that cell — plus enough probe
//! bookkeeping (highest failing level, probe and discard counts) to audit
//! the measurement afterwards. The map serializes to JSONL with a fixed
//! field order, so two campaigns run from the same seed export
//! byte-identical files and any drift in the engine shows up as a diff.

use std::fmt;

use avfs_telemetry::write_json_escaped;

/// Format tag written into (and required from) every margin-map header.
pub const MARGIN_MAP_SCHEMA: &str = "avfs-margin-map/v1";

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

/// A line the JSONL importer could not digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarginMapParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for MarginMapParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "margin map line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MarginMapParseError {}

impl MarginMap {
    /// Renders the map as JSONL: one header line, then one line per cell
    /// in canonical order. Field order is fixed, so identical maps render
    /// identical bytes.
    pub fn to_jsonl(&self) -> String {
        let mut chip = String::with_capacity(self.chip.len());
        write_json_escaped(&mut chip, &self.chip);
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"kind\":\"margin-map\",\"schema\":\"{}\",\"chip\":\"{}\",\
             \"nominal_mv\":{},\"floor_mv\":{},\"pmds\":{},\"seed\":{},\
             \"confirm_passes\":{},\"cells\":{}}}\n",
            MARGIN_MAP_SCHEMA,
            chip,
            self.nominal_mv,
            self.floor_mv,
            self.pmds,
            self.seed,
            self.confirm_passes,
            self.cells.len(),
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{{\"kind\":\"cell\",\"fc\":{},\"dc\":{},\"bucket\":{},\
                 \"utilized_pmds\":{},\"threads\":{},\"measured_safe_mv\":{},\
                 \"highest_fail_mv\":{},\"probes\":{},\"discarded\":{}}}\n",
                c.freq_row,
                c.droop_index,
                c.bucket,
                c.utilized_pmds,
                c.threads,
                c.measured_safe_mv,
                c.highest_fail_mv,
                c.probes,
                c.discarded,
            ));
        }
        out
    }

    /// Parses a JSONL rendering produced by [`MarginMap::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`MarginMapParseError`] on a missing/foreign header, an
    /// unknown schema, a malformed line, or a cell-count mismatch.
    pub fn from_jsonl(text: &str) -> Result<Self, MarginMapParseError> {
        let err = |line: usize, message: &str| MarginMapParseError {
            line,
            message: message.to_string(),
        };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| err(1, "empty input, expected a margin-map header"))?;
        if field_str(header, "kind").as_deref() != Some("margin-map") {
            return Err(err(1, "first line is not a margin-map header"));
        }
        match field_str(header, "schema") {
            Some(s) if s == MARGIN_MAP_SCHEMA => {}
            other => {
                return Err(err(
                    1,
                    &format!("unsupported schema {other:?}, expected {MARGIN_MAP_SCHEMA:?}"),
                ))
            }
        }
        let chip = field_str(header, "chip").ok_or_else(|| err(1, "header missing chip name"))?;
        let need = |n: usize, key: &str, line: &str| {
            field_u64(line, key).ok_or_else(|| err(n, &format!("missing numeric field {key:?}")))
        };
        let nominal_mv = need(1, "nominal_mv", header)? as u32;
        let floor_mv = need(1, "floor_mv", header)? as u32;
        let pmds = need(1, "pmds", header)? as usize;
        let seed = need(1, "seed", header)?;
        let confirm_passes = need(1, "confirm_passes", header)? as u32;
        let declared = need(1, "cells", header)? as usize;
        let mut cells = Vec::with_capacity(declared);
        for (idx, line) in lines {
            let n = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            if field_str(line, "kind").as_deref() != Some("cell") {
                return Err(err(n, "expected a cell line"));
            }
            cells.push(MarginCell {
                freq_row: need(n, "fc", line)? as usize,
                droop_index: need(n, "dc", line)? as usize,
                bucket: need(n, "bucket", line)? as usize,
                utilized_pmds: need(n, "utilized_pmds", line)? as usize,
                threads: need(n, "threads", line)? as usize,
                measured_safe_mv: need(n, "measured_safe_mv", line)? as u32,
                highest_fail_mv: need(n, "highest_fail_mv", line)? as u32,
                probes: need(n, "probes", line)?,
                discarded: need(n, "discarded", line)?,
            });
        }
        if cells.len() != declared {
            return Err(err(
                1,
                &format!(
                    "header declares {declared} cells, file carries {}",
                    cells.len()
                ),
            ));
        }
        Ok(MarginMap {
            chip,
            nominal_mv,
            floor_mv,
            pmds,
            seed,
            confirm_passes,
            cells,
        })
    }
}

fn unescape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(decoded) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(decoded);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Extracts `"key":<number>` from a single JSON line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Extracts `"key":"<string>"` from a single JSON line, unescaping it.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // Walk to the closing quote, skipping escaped characters.
    let mut end = None;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        match (escaped, c) {
            (true, _) => escaped = false,
            (false, '\\') => escaped = true,
            (false, '"') => {
                end = Some(i);
                break;
            }
            _ => {}
        }
    }
    Some(unescape_json(&rest[..end?]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MarginMap {
        MarginMap {
            chip: "X-Gene 2".to_string(),
            nominal_mv: 980,
            floor_mv: 600,
            pmds: 4,
            seed: 7,
            confirm_passes: 24,
            cells: vec![
                MarginCell {
                    freq_row: 2,
                    droop_index: 1,
                    bucket: 0,
                    utilized_pmds: 1,
                    threads: 1,
                    measured_safe_mv: 912,
                    highest_fail_mv: 911,
                    probes: 321,
                    discarded: 2,
                },
                MarginCell {
                    freq_row: 2,
                    droop_index: 3,
                    bucket: 3,
                    utilized_pmds: 4,
                    threads: 5,
                    measured_safe_mv: 931,
                    highest_fail_mv: 930,
                    probes: 188,
                    discarded: 0,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let map = sample();
        let text = map.to_jsonl();
        let back = MarginMap::from_jsonl(&text).expect("round trip");
        assert_eq!(back, map);
        // Re-export is byte-identical.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn header_carries_schema_and_cell_count() {
        let text = sample().to_jsonl();
        let header = text.lines().next().expect("header");
        assert!(header.contains("\"schema\":\"avfs-margin-map/v1\""));
        assert!(header.contains("\"cells\":2"));
    }

    #[test]
    fn parser_rejects_foreign_and_truncated_input() {
        assert!(MarginMap::from_jsonl("").is_err());
        assert!(MarginMap::from_jsonl("{\"kind\":\"trace\"}").is_err());
        // Drop the last cell line: count mismatch.
        let text = sample().to_jsonl();
        let truncated: Vec<&str> = text.lines().take(2).collect();
        let err = MarginMap::from_jsonl(&truncated.join("\n")).expect_err("truncated");
        assert!(err.message.contains("declares 2 cells"));
        // Unknown schema.
        let swapped = text.replace("avfs-margin-map/v1", "avfs-margin-map/v9");
        assert!(MarginMap::from_jsonl(&swapped).is_err());
    }

    #[test]
    fn chip_names_with_quotes_survive() {
        let mut map = sample();
        map.chip = "odd \"name\" \\ here\nctl\u{01}".to_string();
        let text = map.to_jsonl();
        assert!(text.contains("\\n") && text.contains("\\u0001"), "{text}");
        let back = MarginMap::from_jsonl(&text).expect("escaped");
        assert_eq!(back, map);
        assert_eq!(back.to_jsonl(), text);
    }
}
