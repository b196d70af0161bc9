//! An ordered, dependency-free JSON value with a hardened parser.
//!
//! Object fields keep their insertion order, and all numeric formatting is
//! the standard library's deterministic shortest-roundtrip rendering, so
//! serializing the same value always yields the same bytes — the property
//! the `--jobs N` equivalence checks pin.
//!
//! The parser guards both the `--resume` journal and the `sweepd` network
//! protocol, so it is deliberately strict: nesting is bounded (a hostile
//! `[[[[…` must not overflow the stack) and duplicate object keys are
//! rejected (a request whose meaning depends on which duplicate wins is a
//! protocol error, not a value).

/// Maximum container nesting depth [`Json::parse`] accepts. Nothing the
/// engine serializes comes near this; the bound exists so untrusted network
/// input cannot drive the recursive-descent parser into a stack overflow.
pub const MAX_PARSE_DEPTH: usize = 64;

/// An ordered, dependency-free JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Uint(u64),
    /// A signed integer.
    Int(i64),
    /// A floating-point number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with explicit field order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Uint(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Uint(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Uint(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Builder for [`Json::Obj`] with ergonomic field chaining.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field.
    #[must_use]
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.0.push((key.into(), value.into()));
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Json {
    /// The one renderer. `depth` is the nesting level in the pretty form
    /// (two-space indentation, one item per line, `": "` after keys) and
    /// `None` in the compact form (no whitespace at all).
    fn render(&self, out: &mut String, depth: Option<usize>) {
        fn line_break(out: &mut String, depth: Option<usize>) {
            if let Some(depth) = depth {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        }
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    line_break(out, inner);
                    item.render(out, inner);
                }
                if !items.is_empty() {
                    line_break(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    line_break(out, inner);
                    out.push('"');
                    escape_into(out, k);
                    out.push_str(if depth.is_some() { "\": " } else { "\":" });
                    v.render(out, inner);
                }
                if !fields.is_empty() {
                    line_break(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// Serializes to a pretty-printed, deterministic JSON string (trailing
    /// newline included, as written to report files).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes to a single-line, whitespace-free string (the journal's
    /// payload format and the `sweepd` wire format — record payloads and
    /// protocol frames must not contain newlines).
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// Parses a JSON document (the inverse of the serializers, used to
    /// decode journal payloads and `sweepd` protocol frames).
    ///
    /// Unsigned integer literals parse as [`Json::Uint`], negative integers
    /// as [`Json::Int`], anything fractional or exponential as
    /// [`Json::Num`] — matching what the serializers emit, so
    /// `parse(render(x)) == x` for every value the codec produces.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error. Containers
    /// nested deeper than [`MAX_PARSE_DEPTH`] and objects with duplicate
    /// keys are syntax errors too: both would be silently accepted by a
    /// laxer parser, and neither can be produced by the serializers.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Field lookup on an object; `None` for non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Recursive-descent parser over raw bytes (JSON structure is ASCII; string
/// contents pass through as UTF-8).
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
        }
    }

    fn enter(&self, depth: usize) -> Result<usize, String> {
        if depth >= MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(depth + 1)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        let depth = self.enter(depth)?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        let depth = self.enter(depth)?;
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?} at byte {}", self.pos));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = std::str::from_utf8(&self.bytes[self.pos..])
            .map_err(|e| format!("invalid UTF-8 in string: {e}"))?
            .char_indices();
        while let Some((off, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += off + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars
                                .next()
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            code = code * 16
                                + h.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {h:?} in \\u escape"))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u{code:04x} escape"))?,
                        );
                    }
                    other => {
                        return Err(format!("bad escape {:?}", other.map(|(_, c)| c)));
                    }
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if fractional {
            text.parse()
                .map(Json::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else if text.starts_with('-') {
            text.parse()
                .map(Json::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse()
                .map(Json::Uint)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parse_roundtrips_serializers() {
        let j = Obj::new()
            .field("name", "fig\"09\"\n\t\\")
            .field("count", 3u64)
            .field("neg", -4i64)
            .field("bits", std::f64::consts::PI.to_bits())
            .field("flag", true)
            .field("nothing", Json::Null)
            .field("cells", vec![1u64, 2, 3])
            .field("empty", Json::Arr(vec![]))
            .field("nested", Obj::new().field("k", "v").build())
            .build();
        assert_eq!(Json::parse(&j.to_compact_string()).unwrap(), j);
        assert_eq!(Json::parse(&j.to_json_string()).unwrap(), j);
        assert!(!j.to_compact_string().contains('\n'));
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("123 45").is_err());
        assert!(Json::parse("nulll").is_err());
    }

    #[test]
    fn json_parse_bounds_nesting_depth() {
        // At the limit: fine. One deeper: typed refusal, no stack overflow.
        let ok = format!(
            "{}{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&ok).is_ok());
        let deep = format!(
            "{}{}",
            "[".repeat(MAX_PARSE_DEPTH + 1),
            "]".repeat(MAX_PARSE_DEPTH + 1)
        );
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A hostile prefix with no closers must fail the same way.
        assert!(Json::parse(&"[".repeat(10_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(10_000)).is_err());
    }

    #[test]
    fn json_parse_rejects_duplicate_keys() {
        let err = Json::parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
        // Distinct keys at the same level are of course fine, and the same
        // key may recur at different levels.
        assert!(Json::parse(r#"{"a":1,"b":{"a":2}}"#).is_ok());
    }

    #[test]
    fn json_serialization_is_deterministic_and_escaped() {
        let j = Obj::new()
            .field("name", "fig\"09\"\n")
            .field("count", 3u64)
            .field("mean", 282.5)
            .field("whole", 2.0)
            .field("nan", f64::NAN)
            .field("flag", true)
            .field("cells", vec![1u64, 2, 3])
            .field("empty", Json::Arr(vec![]))
            .build();
        let a = j.to_json_string();
        assert_eq!(a, j.to_json_string());
        assert!(a.contains("\"fig\\\"09\\\"\\n\""));
        assert!(a.contains("\"mean\": 282.5"));
        assert!(a.contains("\"whole\": 2"));
        assert!(a.contains("\"nan\": null"));
        assert!(a.ends_with("}\n"));
        // Field order is insertion order, not alphabetical.
        assert!(a.find("name").unwrap() < a.find("count").unwrap());
    }

    #[test]
    fn accessors_navigate_objects() {
        let j = Json::parse(r#"{"op":"submit","n":3,"deep":{"flag":true}}"#).unwrap();
        assert_eq!(j.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(
            j.get("deep")
                .and_then(|d| d.get("flag"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert!(j.get("missing").is_none());
        assert!(Json::Uint(1).get("x").is_none());
    }
}
