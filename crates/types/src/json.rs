//! The workspace's JSON module: a recursive-descent reader and a small
//! writer, with no dependencies.
//!
//! [`parse`] reads externally authored text — intent files handed to the
//! CLI, check bundles, baselines, daemon request bodies, journal records —
//! covering objects, arrays, strings (with escapes), numbers, booleans and
//! null. Every JSON document the workspace emits escapes its strings with
//! [`escape`] or [`write_str`]. [`to_canonical`] renders a [`JsonValue`]
//! canonically (object keys sorted, no whitespace, one number format), so
//! equal values always give equal bytes — the WAR content digest is taken
//! over that encoding.

use crate::{CornetError, Result};
use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep their source order so downstream
/// consumers (e.g. frozen-element selectors) see deterministic iteration.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; the intent API never exceeds 2^53).
    Number(f64),
    /// String with escapes resolved.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object as an ordered key/value list.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `pick` applied to the value at `key` of this object — a parse error
    /// naming `key` when the key is missing or `pick` rejects its value.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        pick: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T> {
        self.get(key)
            .and_then(pick)
            .ok_or_else(|| CornetError::Parse(format!("JSON field {key:?} missing or malformed")))
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object entries, if it is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Append `s` to `out` escaped for the inside of a JSON string literal:
/// `"`, `\`, newline, carriage return and tab get their short escapes,
/// other control characters `\u00xx`; everything else is copied as UTF-8.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// `s` escaped for the inside of a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s` to `out` as a quoted JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// `n` as a JSON number: Rust's shortest round-trip decimal (`3`, `0.25`,
/// `1e-7` as `0.0000001`), or `null` for the non-finite numbers JSON
/// cannot represent.
pub fn number(n: f64) -> String {
    if n.is_finite() {
        n.to_string()
    } else {
        "null".into()
    }
}

/// The canonical encoding of `value`: no whitespace, object entries sorted
/// by key (stable for duplicate keys), numbers as [`number`] writes them.
pub fn to_canonical(value: &JsonValue) -> String {
    fn write(out: &mut String, value: &JsonValue) {
        match value {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => out.push_str(&number(*n)),
            JsonValue::String(s) => write_str(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(out, item);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                let mut sorted: Vec<&(String, JsonValue)> = entries.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.push('{');
                for (i, (k, v)) in sorted.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    write(out, v);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    write(&mut out, value);
    out
}

/// Parse a JSON document. The whole input must be consumed (trailing
/// whitespace aside) — garbage after the document is an error.
pub fn parse(input: &str) -> Result<JsonValue> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> CornetError {
        CornetError::Parse(format!("JSON at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uDC00..\uDFFF`.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.error("invalid \\u escape"))?);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next delimiter in one slice.
                    // Both delimiters are ASCII, so a run never splits a
                    // UTF-8 sequence.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
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
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), JsonValue::Number(-25.0));
        assert_eq!(
            parse(r#""a\n\"bé""#).unwrap(),
            JsonValue::String("a\n\"bé".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "c"}], "d": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d").unwrap().entries(), Some(&[][..]));
    }

    #[test]
    fn preserves_key_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<_> = v
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{ not json").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 34").is_err(), "trailing tokens");
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\uD83D\\uDE00\"").unwrap(),
            JsonValue::String("😀".into())
        );
        assert_eq!(
            parse(r#""😀""#).unwrap(),
            JsonValue::String("😀".into()),
            "raw multi-byte UTF-8 passes through"
        );
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}\t\r\u{7f}é"), "\\u0001\\t\\r\u{7f}é");
        let mut out = String::new();
        write_str(&mut out, "q\"");
        assert_eq!(out, "\"q\\\"\"");
    }

    #[test]
    fn canonical_encoding_sorts_keys_and_fixes_number_format() {
        let v =
            parse(r#"{"b": [1, 0.5, 1e-7, -0, true, null], "a": {"z": "x", "y": {}}}"#).unwrap();
        assert_eq!(
            to_canonical(&v),
            r#"{"a":{"y":{},"z":"x"},"b":[1,0.5,0.0000001,-0,true,null]}"#
        );
        assert_eq!(to_canonical(&JsonValue::Number(f64::NAN)), "null");
        assert_eq!(
            parse(&to_canonical(&v)).map(|w| to_canonical(&w)),
            Ok(to_canonical(&v))
        );
    }

    /// Strings mixing the characters the writer must escape, multi-byte
    /// UTF-8 and random code points (mostly outside the BMP).
    fn arb_string() -> impl Strategy<Value = String> {
        const POOL: [char; 12] = [
            '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '\u{2028}', '😀',
        ];
        (any::<u64>(), 0usize..48).prop_map(|(mut seed, len)| {
            (0..len)
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let r = (seed >> 33) as u32;
                    if r.is_multiple_of(3) {
                        POOL[(r / 3) as usize % POOL.len()]
                    } else {
                        char::from_u32(r % 0x11_0000).unwrap_or('\u{fffd}')
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn writer_output_reads_back(s in arb_string()) {
            let mut text = String::new();
            write_str(&mut text, &s);
            prop_assert!(text.chars().all(|c| c >= ' '), "raw control character in {:?}", text);
            prop_assert_eq!(parse(&text).unwrap(), JsonValue::String(s.clone()));
            // Every code unit written as `\uXXXX`: non-BMP characters
            // become surrogate pairs, which the reader must recombine.
            let mut utf16 = String::from("\"");
            for unit in s.encode_utf16() {
                let _ = write!(utf16, "\\u{unit:04X}");
            }
            utf16.push('"');
            prop_assert_eq!(parse(&utf16).unwrap(), JsonValue::String(s));
        }
    }
}
