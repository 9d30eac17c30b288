//! A minimal JSON document builder.
//!
//! The benchmark harness exports machine-readable metrics artifacts; the
//! container environment has no serde, so this module provides the small
//! subset needed: a value tree with insertion-ordered objects and a
//! serializer with correct string escaping and finite-number handling.
//!
//! Exports of large runs build trees of hundreds of thousands of nodes,
//! so the tree and the writer avoid per-node allocations: object keys are
//! borrowed when they are `&'static str` (nearly all are), indentation
//! comes from a static run of spaces, integers format from a stack
//! buffer, and unescaped runs of a string copy in one piece.

use std::borrow::Cow;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order. Keys are borrowed when
    /// static and owned otherwise (parsed documents, computed names).
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// An empty object with room for `fields` fields, for builders that
    /// know their field count: `with` then never reallocates.
    pub fn obj_with_capacity(fields: usize) -> Json {
        Json::Obj(Vec::with_capacity(fields))
    }

    /// Adds a field to an object and returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.into(), value.into())),
            _ => panic!("with() on non-object"),
        }
        self
    }

    /// Looks up a field by key. Returns `None` when `self` is not an
    /// object or the key is absent — never panics, so callers can probe
    /// arbitrary documents (e.g. parsed artifacts) safely.
    pub fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Test-only convenience: like [`Json::field`] but panics with a
    /// readable message when the key is missing. Production code should
    /// use `field()` and handle `None`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object or lacks `key`.
    #[track_caller]
    pub fn expect_field(&self, key: &str) -> &Json {
        self.field(key)
            .unwrap_or_else(|| panic!("expected field `{key}` in {}", self.compact()))
    }

    /// This value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// This value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this module serializes: no
    /// exponent-free restrictions, `\uXXXX` escapes limited to the BMP).
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes compactly.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, usize::MAX);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let compact = indent == usize::MAX;
        let inner = if compact { indent } else { indent + 1 };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if !x.is_finite() {
                    out.push_str("null");
                } else if *x == x.trunc() && x.abs() < 1e15 {
                    push_int(out, *x as i64);
                } else {
                    // Non-integers keep `Display` (shortest round-trip
                    // digits): the artifacts' bytes depend on it.
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if !compact {
                        newline(out, inner);
                    }
                    item.write(out, inner);
                }
                if !compact {
                    newline(out, indent);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if !compact {
                        newline(out, inner);
                    }
                    escape_into(k, out);
                    out.push(':');
                    if !compact {
                        out.push(' ');
                    }
                    v.write(out, inner);
                }
                if !compact {
                    newline(out, indent);
                }
                out.push('}');
            }
        }
    }
}

/// Indentation source: 32 levels of two spaces. Deeper levels copy it
/// more than once.
const INDENT: &str = "                                                                ";

/// A line break followed by `level` levels of indentation.
fn newline(out: &mut String, level: usize) {
    out.push('\n');
    let mut width = 2 * level;
    while width > 0 {
        let run = width.min(INDENT.len());
        out.push_str(&INDENT[..run]);
        width -= run;
    }
}

/// Formats an integer through a stack buffer: the same digits as `{v}`.
fn push_int(out: &mut String, v: i64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key.into(), value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape `{hex}`"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(&b) => {
                // Consume one multi-byte UTF-8 scalar. Decode only the
                // scalar's own bytes — validating the whole remaining
                // input per character would make parsing quadratic.
                let width = match b {
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    0xF0..=0xF7 => 4,
                    _ => return Err(format!("invalid utf-8 lead byte at {}", *pos)),
                };
                let chunk = bytes.get(*pos..*pos + width).ok_or("unterminated string")?;
                let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                out.push(s.chars().next().ok_or("unterminated string")?);
                *pos += width;
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // split `s` on character boundaries.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escaped {
            Some(escaped) => out.push_str(escaped),
            None => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Option<f64>> for Json {
    fn from(x: Option<f64>) -> Json {
        x.map(Json::Num).unwrap_or(Json::Null)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_round() {
        let j = Json::obj()
            .with("a", 1u64)
            .with("b", "x\"y")
            .with("c", Json::Arr(vec![Json::from(1.5), Json::Null]));
        assert_eq!(j.compact(), r#"{"a":1,"b":"x\"y","c":[1.5,null]}"#);
    }

    #[test]
    fn field_accessor_never_panics() {
        let j = Json::obj().with("a", 1u64);
        assert_eq!(j.field("a"), Some(&Json::Num(1.0)));
        assert_eq!(j.field("missing"), None);
        // Non-object values answer None instead of panicking.
        assert_eq!(Json::Null.field("a"), None);
        assert_eq!(Json::from(3.0).field("a"), None);
        assert_eq!(Json::Arr(vec![]).field("a"), None);
        assert_eq!(j.expect_field("a").as_num(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "expected field `b`")]
    fn expect_field_panics_with_key_name() {
        let j = Json::obj().with("a", 1u64);
        let _ = j.expect_field("b");
    }

    #[test]
    fn parse_round_trips_serialized_documents() {
        let j = Json::obj()
            .with("a", 1u64)
            .with("b", "x\"y\n\u{1}")
            .with("neg", -2.5)
            .with("flag", true)
            .with("nothing", Json::Null)
            .with("arr", Json::Arr(vec![Json::from(1.5), Json::Null]))
            .with("nested", Json::obj().with("k", "v"));
        for text in [j.compact(), j.pretty()] {
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed, j, "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn non_finite_serializes_null() {
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn integers_have_no_fraction() {
        assert_eq!(Json::Num(120.0).compact(), "120");
        assert_eq!(Json::Num(0.25).compact(), "0.25");
    }

    #[test]
    fn integers_print_exact_digits_on_both_sides_of_the_cutoff() {
        for (x, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (-7.0, "-7"),
            (999_999_999_999_999.0, "999999999999999"),
            (-999_999_999_999_999.0, "-999999999999999"),
            (1e15, "1000000000000000"),
            (-1e15, "-1000000000000000"),
        ] {
            assert_eq!(Json::Num(x).compact(), text, "{x}");
        }
    }

    #[test]
    fn control_characters_escaped() {
        assert_eq!(Json::from("a\u{1}b\nc").compact(), "\"a\\u0001b\\nc\"");
        assert_eq!(
            Json::from("é\u{1f}λ\u{7f}").compact(),
            "\"é\\u001fλ\u{7f}\""
        );
    }

    #[test]
    fn deep_nesting_indents_past_the_static_run() {
        let depth = 40;
        let mut j = Json::from(1u64);
        for _ in 0..depth {
            j = Json::Arr(vec![j]);
        }
        let mut want = String::new();
        for level in 0..depth {
            want.push('[');
            want.push('\n');
            want.push_str(&"  ".repeat(level + 1));
        }
        want.push('1');
        for level in (0..depth).rev() {
            want.push('\n');
            want.push_str(&"  ".repeat(level));
            want.push(']');
        }
        want.push('\n');
        assert_eq!(j.pretty(), want);
    }

    #[test]
    fn pretty_is_indented() {
        let j = Json::obj().with("k", Json::Arr(vec![Json::from(1u64)]));
        let text = j.pretty();
        assert!(text.contains("\n  \"k\": [\n    1\n  ]\n"), "{text}");
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().pretty(), "{}\n");
        assert_eq!(Json::Arr(vec![]).compact(), "[]");
    }
}
