//! A minimal, dependency-free JSON codec for the service wire protocol.
//!
//! The workspace's offline devstub `serde_json` cannot serialize at
//! runtime, and the real crate may be absent entirely, so the
//! coordinator/worker protocol hand-rolls its JSON the same way the
//! telemetry sinks do. The encoder escapes strings exactly like
//! `serde_json` (the journal embeds serde-rendered lines verbatim inside
//! protocol strings, and those bytes must survive a round trip), and the
//! parser is a small recursive-descent reader with a depth bound.

use std::fmt::Write as _;

/// A parsed or to-be-encoded JSON value.
///
/// Objects preserve insertion order so encoding is deterministic; numbers
/// keep integers exact (`Int`) instead of routing everything through
/// `f64`, because suite indices and counters are `u64`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction or exponent).
    Int(i128),
    /// A fractional or exponent-form number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub(crate) fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds an integer value from any unsigned counter.
    pub(crate) fn u64(n: u64) -> Value {
        Value::Int(i128::from(n))
    }

    /// Looks up a key in an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64` (integer literals only).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts integer literals too).
    #[allow(clippy::cast_precision_loss)]
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a bool.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub(crate) fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required-field accessors for protocol decoding: each names the
    /// missing or mistyped field in the error.
    pub(crate) fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing or non-string field `{key}`"))
    }

    /// See [`Value::req_str`].
    pub(crate) fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    /// See [`Value::req_str`].
    pub(crate) fn req_arr(&self, key: &str) -> Result<&[Value], String> {
        self.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("missing or non-array field `{key}`"))
    }

    /// Encodes the value as compact JSON.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(f) => {
                // A whole float renders without a fraction and re-parses
                // as `Int`; `as_f64` accepts both, so numeric fields
                // roundtrip. Non-finite values have no JSON form.
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => escape_into(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// `s` as a JSON string literal, quotes included, escaped like
/// [`Value::Str`] renders it.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Escapes a string exactly like `serde_json`: the two mandatory escapes,
/// short forms for the common control characters, `\u00XX` for the rest,
/// and raw UTF-8 for everything else.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub(crate) fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("document nests too deeply".to_owned());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at offset {start}"))?;
        if integral {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid number `{text}` at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| format!("unterminated string at offset {}", self.pos))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("truncated escape at offset {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let unit = self.hex4()?;
                            // Combine UTF-16 surrogate pairs; a lone
                            // surrogate becomes U+FFFD, matching lossy
                            // decoding.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(u32::from(unit)).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(format!(
                                "unknown escape `\\{}` at offset {}",
                                char::from(other),
                                self.pos
                            ))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid UTF-8 at offset {}", self.pos))?;
                    let c = s.chars().next().expect("non-empty checked above");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at offset {}", self.pos))?;
        let text = std::str::from_utf8(digits)
            .map_err(|_| format!("invalid \\u escape at offset {}", self.pos))?;
        let unit = u16::from_str_radix(text, 16)
            .map_err(|_| format!("invalid \\u escape `{text}` at offset {}", self.pos))?;
        self.pos = end;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-17", "123456789012345678901"] {
            let v = parse(text).expect(text);
            assert_eq!(parse(&v.render()).expect("re-parse"), v, "{text}");
        }
        assert_eq!(parse("0.5").unwrap().as_f64(), Some(0.5));
        assert_eq!(parse("42").unwrap().as_f64(), Some(42.0));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn strings_escape_like_serde_json() {
        let nasty = "a\"b\\c\nd\re\tf\u{8}g\u{c}h\u{1}i — ünïcødé";
        let rendered = Value::str(nasty).render();
        assert_eq!(
            rendered,
            "\"a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i — ünïcødé\""
        );
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn objects_preserve_order_and_roundtrip() {
        let v = Value::obj(vec![
            ("b", Value::u64(2)),
            ("a", Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("nested", Value::obj(vec![("x", Value::str("y"))])),
        ]);
        let text = v.render();
        assert_eq!(text, "{\"b\":2,\"a\":[null,true],\"nested\":{\"x\":\"y\"}}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        assert_eq!(parse("\"\\ud83d\"").unwrap().as_str(), Some("\u{FFFD}"));
    }

    #[test]
    fn malformed_documents_error() {
        for text in [
            "", "{", "[1,", "{\"a\"}", "\"abc", "01x", "nul", "[1 2]", "{}}",
        ] {
            assert!(parse(text).is_err(), "`{text}` should not parse");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "depth bound enforced");
    }

    #[test]
    fn required_field_errors_name_the_field() {
        let v = parse("{\"a\":1}").unwrap();
        assert_eq!(v.req_u64("a"), Ok(1));
        assert!(v.req_str("a").unwrap_err().contains("`a`"));
        assert!(v.req_u64("b").unwrap_err().contains("`b`"));
        assert!(v.req_arr("a").unwrap_err().contains("`a`"));
    }
}
