//! A strict JSON parser for validating the workspace's emitted artifacts.
//!
//! Every machine-readable file this workspace writes — telemetry snapshots,
//! executor event streams and campaign recordings — is emitted by
//! hand-rolled string building (the workspace deliberately has no JSON
//! dependency). Hand-rolled emitters can rot: a line-based merge once
//! re-appended separators and left `{,` artifacts behind. This module is
//! the other half of the contract: a parser strict enough that "it parses" means
//! "any standards-compliant consumer can read it".
//!
//! Strictness, beyond RFC 8259 conformance:
//!
//! * duplicate object keys are rejected (legal JSON, but always an emitter
//!   bug here — the merge code must collapse labels, not repeat them);
//! * non-finite numbers are rejected (they cannot be emitted as JSON at
//!   all, but an overflowing literal like `1e999` would otherwise parse to
//!   `inf` and round-trip as garbage);
//! * trailing input after the top-level value is rejected.
//!
//! Errors carry line/column positions so a failing gate points at the
//! offending byte, not just the file.

use std::collections::HashSet;
use std::fmt;

/// A parsed JSON value.
///
/// Object members keep their source order (a `Vec`, not a map), so a file
/// can be round-tripped without reshuffling sections.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite).
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// `[ ... ]`, in source order.
    Array(Vec<JsonValue>),
    /// `{ ... }`, members in source order, keys unique.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The members of an object, or `None` for any other value.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The numeric value, or `None` for non-numbers.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Serializes back to compact (single-line) JSON.
    ///
    /// Numbers use the shortest representation that round-trips; integral
    /// values print without a fractional part. `parse(v.to_compact_string())`
    /// reproduces `v` exactly.
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                debug_assert!(n.is_finite(), "parser only admits finite numbers");
                out.push_str(&format_number(*n));
            }
            JsonValue::String(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(key, out);
                    out.push_str(": ");
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Shortest-round-trip rendering of a finite `f64` as a JSON number.
fn format_number(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 {
        // Integral and exactly representable: print without `.0` (Rust's
        // `{}` would keep it off anyway, but be explicit about the intent).
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Writes `s` as a JSON string literal: quotes and backslashes escaped,
/// control characters as their short forms or `\u00XX`.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, positioned at the offending byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column (in bytes) of the error.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses `input` as a single strict JSON document.
///
/// # Errors
///
/// [`JsonError`] on any deviation from the grammar, on duplicate object
/// keys, on non-finite numbers, or on trailing input.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing input after top-level value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError { line, column, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        let mut keys = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected string key (strict JSON: no trailing commas)"));
            }
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(self.error(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                return Err(self.error("trailing comma in array (strict JSON)"));
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input is valid UTF-8");
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let digits = &self.bytes[self.pos..self.pos + 4];
        let s = std::str::from_utf8(digits).map_err(|_| self.error("invalid \\u escape"))?;
        let unit = u32::from_str_radix(s, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit required after decimal point"));
            }
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
                return Err(self.error("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        let n: f64 = text.parse().map_err(|_| self.error("unparseable number"))?;
        if !n.is_finite() {
            return Err(self.error(format!("number `{text}` overflows to non-finite")));
        }
        Ok(JsonValue::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_baseline_shape() {
        let doc = r#"{
  "check": {"quick": true, "metrics": {"pte_walk_cold_stock_ns": 141.917, "hits": 936}},
  "empty": {}
}"#;
        let v = parse(doc).unwrap();
        let check = v.get("check").unwrap();
        assert_eq!(check.get("quick"), Some(&JsonValue::Bool(true)));
        let walk = check.get("metrics").unwrap().get("pte_walk_cold_stock_ns").unwrap();
        assert_eq!(walk.as_f64(), Some(141.917));
        assert_eq!(v.get("empty").unwrap().as_object(), Some(&[][..]));
    }

    #[test]
    fn preserves_member_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"], "objects must keep source order");
    }

    #[test]
    fn rejects_the_historical_corruptions() {
        // The exact artifacts the old line-based baseline merge produced.
        assert!(parse("{\n  \"before\": {,\n}").is_err(), "`{{,` must not parse");
        assert!(parse(r#"{"a": 1, "a": 2}"#).unwrap_err().message.contains("duplicate"));
        assert!(parse(r#"{"a": {"quick": true}"#).is_err(), "unclosed object");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2,]",
            r#"{"a": 1,}"#,
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "nul",
            "truex",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
            "{} trailing",
            "NaN",
            "Infinity",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn accepts_the_full_grammar() {
        let v = parse(
            r#"{"s": "a\"b\\c\nA😀", "arr": [null, true, false, -0.5, 1e3, 6e-2], "nested": [[], {}]}"#,
        )
        .unwrap();
        assert_eq!(v.get("s"), Some(&JsonValue::String("a\"b\\c\nA😀".into())));
        let arr = match v.get("arr").unwrap() {
            JsonValue::Array(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[3].as_f64(), Some(-0.5));
        assert_eq!(arr[4].as_f64(), Some(1000.0));
        assert_eq!(arr[5].as_f64(), Some(0.06));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("{\n  \"a\": {,\n}").unwrap_err();
        assert_eq!(err.line, 2, "error should point at the bad line: {err}");
        assert!(err.column > 1);
    }

    #[test]
    fn astral_strings_round_trip_through_escapes_and_raw() {
        // The same astral character must survive whether it arrives as a
        // surrogate-pair escape or as raw UTF-8, and must re-parse from the
        // compact rendering (which emits astral characters raw).
        let escaped = parse(r#""😀""#).unwrap();
        assert_eq!(escaped, JsonValue::String("😀".into()));
        let raw = parse("\"😀\"").unwrap();
        assert_eq!(escaped, raw);
        assert_eq!(parse(&escaped.to_compact_string()).unwrap(), escaped);

        // Boundary code points of the astral plane via escapes.
        assert_eq!(
            parse(r#""𐀀""#).unwrap(),
            JsonValue::String("\u{10000}".into()),
            "first astral code point"
        );
        assert_eq!(
            parse(r#""􏿿""#).unwrap(),
            JsonValue::String("\u{10FFFF}".into()),
            "last astral code point"
        );
    }

    #[test]
    fn broken_surrogate_escapes_are_rejected() {
        for (bad, why) in [
            (r#""\ud800""#, "lone high surrogate at end of string"),
            (r#""\ud800x""#, "high surrogate followed by a plain char"),
            (r#""\ud800\n""#, "high surrogate followed by a non-\\u escape"),
            (r#""\ud800\ud800""#, "high surrogate followed by another high"),
            (r#""\udc00""#, "lone low surrogate"),
            (r#""\udfff""#, "lone low surrogate (upper bound)"),
            (r#""\ude00\ud83d""#, "reversed pair"),
            (r#""a\udc00b""#, "lone low surrogate mid-string"),
        ] {
            assert!(parse(bad).is_err(), "{why}: {bad} must be rejected");
        }
    }

    #[test]
    fn random_strings_round_trip_through_compact_rendering() {
        // Fuzz-style: seeded random strings over a charset that covers every
        // escape class (controls, quotes, backslashes, BMP, astral) must
        // survive value → compact JSON → value unchanged.
        const CHARSET: &[char] = &[
            'a',
            'Z',
            '9',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1F}',
            'é',
            '\u{7FF}',
            'あ',
            '\u{FFFD}',
            '😀',
            '\u{10000}',
            '\u{10FFFF}',
            '𝔘',
        ];
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            // SplitMix64, as used by the differential suites.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for trial in 0..200 {
            let len = (next() % 24) as usize;
            let s: String =
                (0..len).map(|_| CHARSET[(next() % CHARSET.len() as u64) as usize]).collect();
            let value = JsonValue::String(s.clone());
            let rendered = value.to_compact_string();
            let reparsed = parse(&rendered).unwrap_or_else(|e| {
                panic!("trial {trial}: {s:?} rendered as {rendered:?} failed to parse: {e}")
            });
            assert_eq!(reparsed, value, "trial {trial}: round-trip mangled {s:?}");
        }
    }

    #[test]
    fn compact_serialization_round_trips() {
        let doc = r#"{"label": {"quick": false, "metrics": {"ns": 141.917, "rate": 18374516.413, "hits": 936, "neg": -0.001, "tiny": 6.5e-7}}, "s": "a\"b\n", "arr": [1, 2.5, true, null]}"#;
        let v = parse(doc).unwrap();
        let rendered = v.to_compact_string();
        assert_eq!(parse(&rendered).unwrap(), v, "round-trip must be lossless");
        // Integral numbers stay integral in the re-render.
        assert!(rendered.contains("\"hits\": 936"), "got {rendered}");
        assert!(rendered.contains("141.917"), "got {rendered}");
    }
}
