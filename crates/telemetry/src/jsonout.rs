//! The journal's JSONL renderer, and the workspace's one JSON string
//! escaper. Every event is written straight into the caller's buffer;
//! only floats go through `fmt`, whose `Display` output is the format.

use crate::{TraceEvent, Value};
use std::fmt::Write as _;

impl TraceEvent {
    /// Appends the event as one JSON object and a newline. `tag` adds an
    /// integer field right after `kind`, so that journals from several
    /// hubs can be concatenated without losing provenance.
    pub(crate) fn write_jsonl(&self, out: &mut String, tag: Option<(&'static str, u64)>) {
        out.push_str("{\"seq\":");
        write_u64(out, self.seq);
        out.push_str(",\"t_ns\":");
        write_u64(out, self.at.as_nanos());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push('"');
        if let Some((name, value)) = tag {
            out.push_str(",\"");
            out.push_str(name);
            out.push_str("\":");
            write_u64(out, value);
        }
        for (name, value) in &self.fields {
            out.push_str(",\"");
            write_json_escaped(out, name);
            out.push_str("\":");
            value.write_json(out);
        }
        out.push_str("}\n");
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match *self {
            Value::U64(v) => write_u64(out, v),
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => out.push_str(if v { "true" } else { "false" }),
            Value::Str(s) => {
                out.push('"');
                write_json_escaped(out, s);
                out.push('"');
            }
        }
    }
}

/// Appends `v` in decimal, the digits `Display` gives.
fn write_u64(out: &mut String, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// Escapes `s` into `out` as the body of a JSON string literal (quotes
/// not included): `"`, `\\`, `\n`, `\r` and `\t` get their short forms,
/// every other control character a `\u00XX` escape. The runs between
/// escapes are copied whole. This is the workspace's one JSON string
/// escaper; every hand-rolled JSON writer calls it.
pub(crate) fn write_json_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` and `i + 1` are char
        // boundaries.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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
