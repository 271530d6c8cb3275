//! The workspace's one JSON writer and one JSON reader.
//!
//! [`Json`] is the value model. Its `Display` impl is the only place JSON
//! is spelled: compact (no whitespace), object members in insertion order,
//! numbers written as their stored lexeme, strings escaped. Every emitter
//! (reports, bench runs, `xxi list`, Chrome traces, the two linters)
//! builds a `Json` and prints it. [`parse`] is the one reader, behind
//! `xxi validate`, `xxi compare` and the round-trip tests; it accepts
//! standard JSON (objects, arrays, strings with escapes, numbers,
//! booleans, null).
//!
//! The workspace has no external dependencies, so both halves live here.

use std::fmt::{self, Write as _};

/// A JSON value. Object member order is preserved (the schema round-trip
/// compares ordered `params`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, kept as its raw lexeme so integer precision survives
    /// (`u64` seeds exceed `f64`'s 53-bit mantissa).
    Num(String),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A finite `f64` as Rust's shortest round-trippable decimal.
    /// Non-finite values have no JSON lexeme and become `null`; keep
    /// findings finite.
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// An exact integer (no trip through `f64`, so values past 2^53
    /// survive).
    pub fn int(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` members, in iteration order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<String> {
        match self {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    // xxi-allow: model-reach -- xxi-bench tests/cli.rs reads `xxi list` flags with it
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Look up a member, `None` when absent.
pub fn find<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Look up a required member.
pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    find(obj, key).ok_or_else(|| format!("missing key {key:?}"))
}

/// Look up a required member of one type: `as_t` reads it, and the
/// error names the key and `what` was expected.
fn get_as<'a, T>(
    obj: &'a [(String, Json)],
    key: &str,
    what: &str,
    as_t: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    as_t(get(obj, key)?).ok_or_else(|| format!("{key}: expected {what}"))
}

/// Look up a required string member.
pub fn get_str(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    get_as(obj, key, "a string", Json::as_str)
}

/// Look up a required unsigned integer member.
pub fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    get_as(obj, key, "a u64", Json::as_u64)
}

/// Look up a required number member.
pub fn get_f64(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    get_as(obj, key, "a number", Json::as_f64)
}

/// Look up a required array member.
pub fn get_array<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a [Json], String> {
    get_as(obj, key, "an array", Json::as_array)
}

/// Look up a required object member.
pub fn get_object<'a>(
    obj: &'a [(String, Json)],
    key: &str,
) -> Result<&'a [(String, Json)], String> {
    get_as(obj, key, "an object", Json::as_object)
}

impl fmt::Display for Json {
    /// Compact JSON: no whitespace, members in insertion order, `Num` as
    /// its lexeme verbatim.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => escape(f, s),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Object(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    escape(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Write `s` as a quoted JSON string.
fn escape(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Deepest array/object nesting [`parse`] accepts. The report schema
/// nests four levels; the cap keeps hostile input from overflowing the
/// recursive descent's stack.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Errors carry the byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.num(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parse an array or object one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u code point".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8".to_string())?,
                    );
                }
            }
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap(); // xxi-allow: panic-path -- scanned span is ASCII by construction
        match s.parse::<f64>() {
            Ok(_) => Ok(Json::Num(s.to_string())),
            Err(_) => Err(format!("bad number {s:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#" {"a": [1, -2.5e2, "x\ny", true, null], "b": {}} "#).unwrap();
        let obj = v.as_object().unwrap();
        let a = get(obj, "a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-250.0));
        assert_eq!(a[2].as_str().unwrap(), "x\ny");
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4], Json::Null);
        assert!(get(obj, "b").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1} unicode é";
        let doc = Json::str(nasty).to_string();
        assert_eq!(
            doc,
            "\"quote \\\" backslash \\\\ newline \\n tab \\t ctrl \\u0001 unicode é\""
        );
        assert_eq!(parse(&doc).unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn display_is_compact_and_ordered() {
        let v = Json::obj([
            (
                "b",
                Json::Array(vec![Json::int(u64::MAX), Json::Null, Json::Bool(false)]),
            ),
            ("a", Json::obj::<&str>([])),
            ("c", Json::Array(Vec::new())),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"b":[18446744073709551615,null,false],"a":{},"c":[]}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
        // A parsed lexeme is written back verbatim.
        assert_eq!(parse("-2.50e+2").unwrap().to_string(), "-2.50e+2");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "\"abc", "1 2", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_with_the_byte_offset() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            parse(&deep).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Far past the cap, in the shape that used to overflow the stack.
        let hostile = format!("{}1", "[{\"a\":".repeat(50_000));
        assert!(parse(&hostile)
            .unwrap_err()
            .starts_with("nesting deeper than"));
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(Json::num(45.0).to_string(), "45");
        assert_eq!(Json::num(0.1).to_string(), "0.1");
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::NEG_INFINITY), Json::Null);
        let v = 1.234567890123e-7;
        assert_eq!(Json::num(v).as_f64(), Some(v));
    }
}
