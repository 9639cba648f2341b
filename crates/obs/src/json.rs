//! The repo's one JSON: a minimal byte-offset-tracking reader, the
//! string-literal writer every emitter shares, and the one writer of
//! span field [`Value`]s.
//!
//! It sits here, at the bottom of the crate graph, so the `cfpd`
//! protocol (`cfp_serve::json` re-exports this module), the JSONL trace
//! sink, `cfpd`'s watch stream and the pinned-result tests all read and
//! write JSON the same way.
//!
//! The service protocol is line-delimited JSON, and its rejection
//! contract (DESIGN.md §15) is that a malformed request names the
//! offending *field* and the *byte offset* where things went wrong —
//! the protocol analogue of the line-numbered CSV errors in
//! `cfp_dse::io`. No available dependency provides that, and the
//! protocol needs only a small subset of JSON, so this is a hand-rolled
//! recursive-descent parser in which every parsed value remembers where
//! in the request line it started.
//!
//! Numbers keep their source text: the protocol carries `u64` seeds and
//! fingerprints that would be silently rounded through an `f64`, so
//! conversion happens at the access site ([`Json::as_u64`] /
//! [`Json::as_f64`]) where the caller knows which domain it wants.

use crate::Value;
use std::fmt;

/// Nesting depth cap: the protocol needs 3 levels; 16 tolerates growth
/// while keeping hostile deeply-nested input from recursing the stack.
const MAX_DEPTH: usize = 16;

/// One parsed JSON value plus the byte offset where it started.
#[derive(Debug, Clone, PartialEq)]
pub struct Json {
    /// Byte offset of the value's first character in the source line.
    pub offset: usize,
    /// The value.
    pub kind: Kind,
}

/// The value forms the protocol uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as source text (see module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: key, key's byte offset, value — in source order,
    /// duplicates kept (lookups take the first, mirroring what a
    /// streaming reader would act on).
    Obj(Vec<(String, usize, Json)>),
}

/// A syntax error: where, and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SyntaxError {}

impl Json {
    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match &self.kind {
            Kind::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match &self.kind {
            Kind::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it parses as one (no
    /// sign, no fraction, no exponent — the protocol's counters and
    /// seeds are plain decimal).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match &self.kind {
            Kind::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match &self.kind {
            Kind::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match &self.kind {
            Kind::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, usize, Json)]> {
        match &self.kind {
            Kind::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// First value under `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, _, v)| v)
    }

    /// A short name for the value's form, for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match &self.kind {
            Kind::Null => "null",
            Kind::Bool(_) => "boolean",
            Kind::Num(_) => "number",
            Kind::Str(_) => "string",
            Kind::Arr(_) => "array",
            Kind::Obj(_) => "object",
        }
    }
}

/// Parse one JSON value spanning the whole input.
///
/// # Errors
/// A [`SyntaxError`] naming the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, SyntaxError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(SyntaxError {
            offset: pos,
            message: "trailing characters after value".to_string(),
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn err(offset: usize, message: impl Into<String>) -> SyntaxError {
    SyntaxError {
        offset,
        message: message.into(),
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), SyntaxError> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", char::from(ch))))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, SyntaxError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, format!("nesting deeper than {MAX_DEPTH}")));
    }
    skip_ws(bytes, pos);
    let offset = *pos;
    let Some(&b) = bytes.get(*pos) else {
        return Err(err(offset, "unexpected end of input"));
    };
    let kind = match b {
        b'n' => parse_keyword(bytes, pos, "null", Kind::Null)?,
        b't' => parse_keyword(bytes, pos, "true", Kind::Bool(true))?,
        b'f' => parse_keyword(bytes, pos, "false", Kind::Bool(false))?,
        b'"' => Kind::Str(parse_string(bytes, pos)?),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
            } else {
                loop {
                    items.push(parse_value(bytes, pos, depth + 1)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            break;
                        }
                        _ => return Err(err(*pos, "expected ',' or ']' in array")),
                    }
                }
            }
            Kind::Arr(items)
        }
        b'{' => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
            } else {
                loop {
                    skip_ws(bytes, pos);
                    let key_offset = *pos;
                    if bytes.get(*pos) != Some(&b'"') {
                        return Err(err(*pos, "expected string key in object"));
                    }
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    let value = parse_value(bytes, pos, depth + 1)?;
                    entries.push((key, key_offset, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            break;
                        }
                        _ => return Err(err(*pos, "expected ',' or '}' in object")),
                    }
                }
            }
            Kind::Obj(entries)
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos)?,
        other => {
            return Err(err(
                offset,
                format!("unexpected character '{}'", char::from(other)),
            ))
        }
    };
    Ok(Json { offset, kind })
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    kind: Kind,
) -> Result<Kind, SyntaxError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(kind)
    } else {
        Err(err(*pos, format!("expected '{word}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Kind, SyntaxError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_from = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == digits_from {
        return Err(err(*pos, "expected digits"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == frac_from {
            return Err(err(*pos, "expected digits after '.'"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == exp_from {
            return Err(err(*pos, "expected digits in exponent"));
        }
    }
    // The slice is ASCII by construction.
    Ok(Kind::Num(
        String::from_utf8_lossy(&bytes[start..*pos]).into_owned(),
    ))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, SyntaxError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(err(*pos, "unterminated string"));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(err(*pos, "unterminated escape"));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        // Checked digit by digit: `from_str_radix`
                        // would take a leading '+'.
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "expected 4 hex digits after \\u"))?;
                        // Surrogates are out of protocol scope; reject
                        // rather than emit invalid scalars.
                        let ch = char::from_u32(hex)
                            .ok_or_else(|| err(*pos, "escape is not a scalar value"))?;
                        out.push(ch);
                        *pos += 4;
                    }
                    other => {
                        return Err(err(
                            *pos - 1,
                            format!("unknown escape '\\{}'", char::from(other)),
                        ))
                    }
                }
            }
            // Multi-byte UTF-8: copy the raw bytes of the code point.
            _ if b >= 0x80 => {
                let start = *pos - 1;
                while matches!(bytes.get(*pos), Some(&c) if c & 0xC0 == 0x80) {
                    *pos += 1;
                }
                match std::str::from_utf8(&bytes[start..*pos]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return Err(err(start, "invalid UTF-8 in string")),
                }
            }
            _ if b < 0x20 => return Err(err(*pos - 1, "raw control character in string")),
            _ => out.push(char::from(b)),
        }
    }
}

/// Append `s` to `out` as a JSON string literal (quoted, escaped).
pub fn write_str(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a span field value to `out` as JSON: the one writer behind the
/// JSONL trace and `cfpd`'s watch stream. Floats use `{:?}` — shortest
/// round-trip, always with a decimal point, so readers see a float — and
/// a non-finite float, which JSON cannot spell, is written as `null`.
pub fn write_value(out: &mut String, value: Value<'_>) {
    use fmt::Write;
    match value {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x:?}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(x) => out.push_str(if x { "true" } else { "false" }),
        Value::Str(s) => write_str(out, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"op":"submit","job":{"benches":["A","GF"],"fuel":18446744073709551615,"reuse":true,"x":null,"f":-1.5e3}}"#).expect("parses");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        let job = v.get("job").expect("job");
        let benches = job.get("benches").and_then(Json::as_arr).expect("arr");
        assert_eq!(benches[1].as_str(), Some("GF"));
        // u64::MAX survives — no f64 round-trip.
        assert_eq!(job.get("fuel").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(job.get("reuse").and_then(Json::as_bool), Some(true));
        assert_eq!(job.get("f").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(job.get("x").map(|x| x.type_name()), Some("null"));
    }

    #[test]
    fn offsets_point_at_values_and_keys() {
        let src = r#"{"op": "status", "id": 7}"#;
        let v = parse(src).expect("parses");
        let op = v.get("op").expect("op");
        assert_eq!(&src[op.offset..op.offset + 8], "\"status\"");
        let entries = v.as_obj().expect("obj");
        let (key, key_offset, id) = &entries[1];
        assert_eq!(key, "id");
        assert_eq!(&src[*key_offset..key_offset + 4], "\"id\"");
        assert_eq!(id.as_u64(), Some(7));
        assert_eq!(&src[id.offset..], "7}");
    }

    #[test]
    fn syntax_errors_carry_the_failing_offset() {
        let e = parse(r#"{"a": }"#).expect_err("bad");
        assert_eq!(e.offset, 6);
        let e = parse("{\"a\": 1").expect_err("unclosed");
        assert_eq!(e.offset, 7);
        let e = parse("[1, 2,]").expect_err("trailing comma");
        assert_eq!(e.offset, 6);
        let e = parse("nul").expect_err("bad keyword");
        assert_eq!(e.offset, 0);
        let e = parse("{} x").expect_err("trailing");
        assert_eq!(e.offset, 3);
    }

    #[test]
    fn a_unicode_escape_is_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).expect("parses").as_str(), Some("A"));
        // A sign is not a hex digit, whatever `from_str_radix` thinks.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#] {
            let e = parse(bad).expect_err(bad);
            assert_eq!(e.offset, 3, "{bad}: {e}");
            assert!(e.message.contains("4 hex digits"), "{bad}: {e}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(40) + &"]".repeat(40);
        let e = parse(&deep).expect_err("too deep");
        assert!(e.message.contains("nesting"), "{e}");
        let ok = "[".repeat(10) + "1" + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_round_trip_through_the_writer() {
        let original = "a\"b\\c\nd\te\u{1}f≥";
        let mut line = String::new();
        write_str(&mut line, original);
        assert_eq!(line, "\"a\\\"b\\\\c\\nd\\te\\u0001f≥\"");
        let back = parse(&line).expect("parses");
        assert_eq!(back.as_str(), Some(original));
    }
}
