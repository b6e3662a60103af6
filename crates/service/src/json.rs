//! Hand-rolled JSON: a recursive-descent parser, plus the deterministic
//! emission helpers re-exported from [`exynos_telemetry::json`].
//!
//! The build environment has no registry access (no `serde`), and the
//! wire protocol plus the job journal both need to *read* JSON, which
//! [`exynos_telemetry::json`] (writers only) does not cover. The parser
//! is deliberately small: objects keep insertion order in a `Vec` of
//! pairs, numbers are `f64` (every value the protocol carries fits in
//! the 2^53 exact-integer range), and nesting is capped so a hostile
//! client cannot blow the stack.

pub use exynos_telemetry::json::{push_f64, push_key, push_str, push_u64};

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: u32 = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (exact for integers up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs (first match wins on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse `s` as one JSON document (trailing non-whitespace rejected).
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` on non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` when it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// The value as an `f64` number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: u32) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at offset {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogate pairs are not reassembled; lone
                        // surrogates map to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input came from a &str,
                // so the byte stream is valid UTF-8).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "non-utf8".to_string())?;
                if let Some(c) = rest.chars().next() {
                    out.push(c);
                    *pos += c.len_utf8();
                } else {
                    return Err("unterminated string".into());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(
            r#"{"cmd":"submit","job":{"kind":"sweep","scale":2,"threads":4},"deadline_ms":1500,"tags":["a","b"],"neg":-3.5,"flag":true,"nothing":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("submit"));
        let job = v.get("job").unwrap();
        assert_eq!(job.get("scale").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("deadline_ms").and_then(Json::as_u64), Some(1500));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-3.5));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None, "negatives are not u64");
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("nothing"), Some(&Json::Null));
        match v.get("tags") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), 2),
            other => panic!("bad array: {other:?}"),
        }
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" back\\slash \u{1} π";
        let mut encoded = String::new();
        push_str(&mut encoded, original);
        let decoded = Json::parse(&encoded).unwrap();
        assert_eq!(decoded.as_str(), Some(original));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
        // Depth bomb stops at the cap instead of overflowing the stack.
        let bomb = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn integer_precision_holds_to_2_pow_53() {
        let v = Json::parse("9007199254740992").unwrap();
        assert_eq!(v.as_u64(), Some(9_007_199_254_740_992));
    }
}
