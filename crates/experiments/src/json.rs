//! Minimal JSON reader used by [`crate::report::Table::from_json`].
//!
//! The experiment tables are the only serialized artifact in the
//! workspace, and their JSON shape is fixed, so a JSON library is
//! unnecessary. This module parses arbitrary well-formed JSON into
//! a small value tree; numbers keep their raw text so `i64` cells
//! round-trip exactly.

use std::fmt;

use avfs_telemetry::write_json_escaped;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text for lossless conversion.
    Num(String),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Exact integer value, if this is an integral number in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Floating-point value; `null` reads as NaN (the writer emits
    /// `null` for non-finite floats, which JSON cannot represent).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl JsonError {
    fn new(msg: impl Into<String>, offset: usize) -> JsonError {
        JsonError {
            msg: msg.into(),
            offset,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed construct.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        s: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(JsonError::new("trailing characters after value", p.pos));
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted JSON string with escapes.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    write_json_escaped(out, s);
    out.push('"');
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.s.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                format!("expected '{}'", char::from(b)),
                self.pos,
            ))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.s[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(JsonError::new(format!("expected '{kw}'"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(JsonError::new("unexpected character", self.pos)),
            None => Err(JsonError::new("unexpected end of input", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(JsonError::new("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::new("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(JsonError::new("invalid escape", self.pos - 1)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::new("control character in string", self.pos));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.s.len() && (self.s[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.s[start..self.pos])
                        .map_err(|_| JsonError::new("invalid UTF-8", start))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.s.len() {
            return Err(JsonError::new("truncated \\u escape", self.pos));
        }
        let hex = std::str::from_utf8(&self.s[self.pos..end])
            .map_err(|_| JsonError::new("invalid \\u escape", self.pos))?;
        let v = u16::from_str_radix(hex, 16)
            .map_err(|_| JsonError::new("invalid \\u escape", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let first = self.hex4()?;
        if (0xd800..0xdc00).contains(&first) {
            // High surrogate: must be followed by \uDC00–\uDFFF.
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let second = self.hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(JsonError::new("unpaired surrogate", at));
            }
            let code = 0x10000 + ((u32::from(first) - 0xd800) << 10) + (u32::from(second) - 0xdc00);
            char::from_u32(code).ok_or_else(|| JsonError::new("invalid surrogate pair", at))
        } else {
            char::from_u32(u32::from(first)).ok_or_else(|| JsonError::new("unpaired surrogate", at))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            saw_digit = true;
            self.pos += 1;
        }
        if !saw_digit {
            return Err(JsonError::new("expected digit", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::new("expected exponent digit", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.s[start..self.pos])
            .map_err(|_| JsonError::new("invalid number", start))?;
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, "x", true, null], "b": {"c": 1e3}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x"));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[4], Json::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn escapes_roundtrip() {
        let mut quoted = String::new();
        escape_into(&mut quoted, "line\n\"q\" \\ tab\t\u{1}");
        let back = parse(&quoted).unwrap();
        assert_eq!(back.as_str(), Some("line\n\"q\" \\ tab\t\u{1}"));
    }

    #[test]
    fn unicode_escapes_decode() {
        // \u escapes (BMP and a surrogate pair), then raw multibyte UTF-8.
        assert_eq!(parse("\"\\u00e9\"").unwrap().as_str(), Some("é"));
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
        assert!(parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn large_integers_are_exact() {
        let v = parse("9223372036854775807").unwrap();
        assert_eq!(v.as_i64(), Some(i64::MAX));
        let v = parse("-9223372036854775808").unwrap();
        assert_eq!(v.as_i64(), Some(i64::MIN));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "01x", "\"abc", "1 2", "{'a':1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
