//! The workspace's one JSON string escaper.

use std::fmt::Write as _;

/// Escapes `s` into `out` as the body of a JSON string literal (quotes
/// not included): `"`, `\\`, `\n`, `\r` and `\t` get their short forms,
/// every other control character a `\u00XX` escape. This is the
/// workspace's one JSON string escaper; every hand-rolled JSON writer
/// calls it.
pub(crate) fn write_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        let mut out = String::from("\"");
        write_json_escaped(&mut out, s);
        out.push('"');
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{01}"), "\"\\u0001\"");
        assert_eq!(string("\r\t"), "\"\\r\\t\"");
    }
}
