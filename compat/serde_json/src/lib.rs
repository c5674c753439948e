//! Offline-compatible `serde_json` shim.
//!
//! Renders and parses the vendored `serde::Value` tree as JSON. Covers the
//! workspace's surface: `to_string`, `to_string_pretty`, `to_vec`,
//! `from_str`, `from_slice`, and `Value` with serde_json-style indexing.

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Serializes to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes to human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serializes to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` gives the shortest round-trip form and keeps a
                // decimal point (50.0 -> "50.0"), matching serde_json.
                let _ = write!(out, "{f:?}");
            } else {
                // JSON has no NaN/Infinity.
                out.push_str("null");
            }
        }
        Value::String(s) => write_json_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_sep(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_json_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            write_sep(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_sep(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

/// Parses JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&value)
}

/// Parses JSON bytes into any deserializable type.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes)
        .map_err(|e| Error::new(format!("invalid UTF-8 in JSON input: {e}")))?;
    from_str(s)
}

/// Converts a [`Value`] tree into any deserializable type.
pub fn from_value<T: Deserialize>(v: Value) -> Result<T, Error> {
    T::from_value(&v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.consume_keyword("null") => Ok(Value::Null),
            Some(b't') if self.consume_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.consume_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape \\{}", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape.
                    // Both are ASCII, so the run ends on a char
                    // boundary, and each byte is decoded once.
                    let rest = &self.bytes[self.pos..];
                    let run = rest.iter().position(|b| matches!(b, b'"' | b'\\'));
                    let run = &rest[..run.unwrap_or(rest.len())];
                    let text = std::str::from_utf8(run)
                        .map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
                    s.push_str(text);
                    self.pos += run.len();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_output() {
        let v = Value::Object(vec![
            ("figure".to_string(), Value::String("Figure 1".to_string())),
            (
                "points".to_string(),
                Value::Array(vec![Value::Float(50.0), Value::UInt(3)]),
            ),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"figure":"Figure 1","points":[50.0,3]}"#
        );
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\"figure\": \"Figure 1\""), "{pretty}");
        assert!(
            pretty.contains("\n  \"points\": [\n    50.0,\n    3\n  ]"),
            "{pretty}"
        );
    }

    #[test]
    fn parse_roundtrip() {
        let text = r#"{"a": [1, -2, 3.5, 1e3], "b": {"nested": "va\"lue"}, "c": null, "d": true}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][0], 1);
        assert_eq!(v["a"][1], -2);
        assert_eq!(v["a"][2], 3.5);
        assert_eq!(v["a"][3].as_f64(), Some(1000.0));
        assert_eq!(v["b"]["nested"], "va\"lue");
        assert!(v["c"].is_null());
        assert_eq!(v["d"], true);
        assert!(v["missing"].is_null());
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn typed_roundtrip_via_bytes() {
        let data = vec![(1.0f64, 2.0f64), (3.0, 4.0)];
        let bytes = to_vec(&data).unwrap();
        let back: Vec<(f64, f64)> = from_slice(&bytes).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn float_edge_cases() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&50.0f64).unwrap(), "50.0");
        assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
    }

    #[test]
    fn strings_keep_multibyte_text_between_escapes() {
        let v: Value = from_str(r#"["grüße\n→ \"q\" ✓", "end"]"#).unwrap();
        assert_eq!(v[0], "grüße\n→ \"q\" ✓");
        assert_eq!(v[1], "end");
        assert!(from_str::<Value>("[\"ünterminated").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("true false").is_err());
    }
}
