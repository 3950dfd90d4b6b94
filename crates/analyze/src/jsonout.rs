//! Minimal JSON rendering for `--format json`.
//!
//! The analyze crate's reports are flat and hand-renderable, so this
//! module provides the two primitives every renderer needs: quoted
//! strings (escaped by the workspace's one escaper,
//! [`avfs_telemetry::write_json_escaped`]) and array joining. Renderers
//! build objects with `format!` and these helpers; all key sets are
//! static, so the output is deterministic by construction.

use avfs_telemetry::write_json_escaped;

/// Renders a quoted JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    write_json_escaped(&mut out, s);
    out.push('"');
    out
}

/// Renders a JSON array of pre-rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

/// Renders a JSON array of strings (each gets quoted and escaped).
pub fn string_array(items: &[String]) -> String {
    let rendered: Vec<String> = items.iter().map(|s| string(s)).collect();
    array(&rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{01}"), "\"\\u0001\"");
    }

    #[test]
    fn renders_string_arrays() {
        let items = vec!["plain".to_string(), "with \"quote\"".to_string()];
        assert_eq!(string_array(&items), r#"["plain","with \"quote\""]"#);
        assert_eq!(string_array(&[]), "[]");
    }
}
