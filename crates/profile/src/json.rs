//! The workspace's one JSON reader and writer (there is no serde).
//!
//! Every document the crates emit — Chrome trace, stream report, replay
//! bundle — is a [`Value`] printed through its `Display` impl, and
//! [`parse`] (full RFC 8259 grammar) reads them back; both favour clarity
//! over speed. Objects are [`BTreeMap`]s, so keys print sorted. A finite
//! number prints in `f64`'s shortest round-trip form and a non-finite one
//! as `null`, so every printed document parses.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` keeps key order deterministic for tests.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// An object from `(key, value)` pairs (a repeated key keeps the last).
    pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        let mut map = BTreeMap::new(); // inserts, so no sort is instantiated per call site
        map.extend(pairs.into_iter().map(|(k, v)| (k.to_string(), v)));
        Value::Object(map)
    }

    /// The object map, if this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this value is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    /// Compact JSON, keys in map order; a non-finite number prints `null`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sep = |i: usize| if i > 0 { "," } else { "" };
        match self {
            Value::Number(n) if n.is_finite() => write!(f, "{n}"),
            Value::Null | Value::Number(_) => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::String(s) => write!(f, "\"{}\"", escape(s)),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", sep(i))?;
                }
                f.write_str("]")
            }
            Value::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    write!(f, "{}\"{}\":{v}", sep(i), escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Conversions for building documents. Numbers widen to `f64`, exact for
/// every `f32` and for integers up to 2^53.
macro_rules! value_from {
    ($($t:ty => |$x:ident| $e:expr;)*) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Self { $e }
        }
    )*};
}
value_from! {
    bool => |b| Value::Bool(b);
    &str => |s| Value::String(s.to_string());
    String => |s| Value::String(s);
    &String => |s| Value::String(s.clone());
    u8 => |n| Value::Number(n.into());
    u32 => |n| Value::Number(n.into());
    u64 => |n| Value::Number(n as f64);
    usize => |n| Value::Number(n as f64);
    f32 => |n| Value::Number(n.into());
    f64 => |n| Value::Number(n);
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// A pair is a two-element array.
impl<T: Into<Value>> From<(T, T)> for Value {
    fn from((a, b): (T, T)) -> Self {
        Value::Array(vec![a.into(), b.into()])
    }
}

/// Collecting values makes an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: decode \uD800-\uDBFF + low half.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is safe).
                    let s = &self.bytes[self.pos..];
                    let ch_len = utf8_len(s[0]);
                    let chunk =
                        std::str::from_utf8(&s[..ch_len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += ch_len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number fraction"));
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
                return Err(self.err("malformed number exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("unrepresentable number"))
    }
}

fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Escape a string for embedding in JSON output (adds no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            Value::String("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": false}], "c": "x"}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[0].as_number(), Some(1.0));
        assert_eq!(arr[1].as_object().unwrap()["b"], Value::Bool(false));
        assert_eq!(obj["c"].as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "01", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"\\u00e9\\uD83D\\uDE00\"").unwrap(),
            Value::String("é😀".to_string())
        );
    }

    #[test]
    fn printed_values_parse_back_equal() {
        let v = Value::object([
            ("ctrl", "\u{0}\u{1f}\n\t\"q\" \\ /".into()),
            ("unicode", "é 😀 \u{7f} 中".into()),
            ("int", Value::Number(9_007_199_254_740_992.0)), // 2^53
            ("neg", Value::Number(-42.0)),
            ("frac", Value::Number(0.1)),
            ("tiny", Value::Number(-1.5e-300)),
            ("f32", 0.1f32.into()),
            ("none", Option::<u32>::None.into()),
            ("pair", (3u32, 4u32).into()),
            (
                "list",
                Value::Array(vec![Value::Bool(true), Value::Null, Value::object([])]),
            ),
            (
                "nested",
                Value::object([("a", Value::Array(vec![[1u8].into_iter().collect()]))]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v, "{text}");
        assert!(text.starts_with("{\"ctrl\":"), "keys print sorted: {text}");
        assert!(text.contains("\"int\":9007199254740992,"), "{text}");
    }

    #[test]
    fn non_finite_numbers_print_null() {
        let v = Value::Array(vec![
            Value::Number(f64::NAN),
            f32::INFINITY.into(),
            Value::Number(f64::NEG_INFINITY),
        ]);
        assert_eq!(v.to_string(), "[null,null,null]");
        assert_eq!(
            parse(&v.to_string()).unwrap(),
            Value::Array(vec![Value::Null; 3])
        );
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line\nwith \"quotes\" \\ and\ttabs";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap(), Value::String(original.to_string()));
    }
}
