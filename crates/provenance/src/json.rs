//! Minimal JSON: the profile parser and the workspace's one writer.
//!
//! The workspace has no serde. The parser reads just enough of JSON for
//! the profile schema — objects, arrays, unsigned integers, and strings
//! without escapes — while staying a strict subset of the grammar, so
//! profiles parse with any off-the-shelf JSON library and vice versa.
//! [`JsonWriter`] renders every machine-readable report in the workspace:
//! profiles, serve reports, audit logs, scan findings and bench rows.

use core::fmt;
use core::fmt::Write as _;

/// A parsed JSON value (the subset the profile schema uses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    /// An unsigned integer (the only number form profiles contain).
    Number(u64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object as (key, value) pairs in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON syntax error with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (no trailing garbage).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
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
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    // Profile keys never contain escapes; reject them
                    // rather than silently mis-reading.
                    let raw = &self.bytes[start..self.pos];
                    self.pos += 1;
                    return String::from_utf8(raw.to_vec())
                        .map_err(|_| self.error("invalid UTF-8 in string"));
                }
                Some(b'\\') => return Err(self.error("escapes are not supported")),
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        raw.parse().map(JsonValue::Number).map_err(|_| self.error("integer out of range"))
    }
}

/// A value rendered as one JSON token: a number, a string, a boolean, or
/// `null` for `None`.
pub trait Scalar {
    /// Appends the token to `out`.
    fn write_to(&self, out: &mut String);
}

macro_rules! integer_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_scalar!(u8, u32, u64, usize);

impl Scalar for f64 {
    /// The shortest form that reads back as the same float; JSON has no
    /// NaN or infinity, so a non-finite number becomes `null`.
    fn write_to(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Scalar for bool {
    fn write_to(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Scalar for str {
    /// A string literal, escaped per RFC 8259: the quote, the backslash
    /// and U+0000–U+001F.
    fn write_to(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Scalar for String {
    fn write_to(&self, out: &mut String) {
        self.as_str().write_to(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(value) => value.write_to(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

/// The workspace's one JSON writer: compact output, commas placed for
/// the caller, every scalar through [`Scalar`].
///
/// ```
/// use pkru_provenance::json;
///
/// let text = json::render(|w| {
///     w.object(|w| {
///         w.field("name", "a\tb").field("ratio", f64::NAN);
///         w.key("ids").array([1u64, 2], |w, id| {
///             w.value(id);
///         });
///     });
/// });
/// assert_eq!(text, r#"{"name":"a\tb","ratio":null,"ids":[1,2]}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value needs a comma before it.
    comma: bool,
}

/// Renders one document written by `body`.
pub fn render(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut writer = JsonWriter { out: String::new(), comma: false };
    body(&mut writer);
    writer.out
}

impl JsonWriter {
    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        key.write_to(&mut self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes one scalar value.
    pub fn value(&mut self, value: impl Scalar) -> &mut Self {
        self.separate();
        value.write_to(&mut self.out);
        self
    }

    /// Writes a key and its scalar value.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes `null` for `None`, else what `body` writes for the value.
    pub fn optional<T>(
        &mut self,
        value: Option<T>,
        body: impl FnOnce(&mut JsonWriter, T),
    ) -> &mut Self {
        match value {
            Some(value) => body(self, value),
            None => {
                self.value(None::<u64>);
            }
        }
        self
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut JsonWriter)) -> &mut Self {
        self.separate();
        self.out.push('{');
        self.comma = false;
        body(self);
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Writes an array with one element per item, each written by `each`.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut JsonWriter, T),
    ) -> &mut Self {
        self.separate();
        self.out.push('[');
        self.comma = false;
        for item in items {
            each(self, item);
        }
        self.out.push(']');
        self.comma = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_profile_shaped_document() {
        let doc = r#"
        {
          "shared_sites": [ { "func": 1, "block": 2, "site": 3 } ],
          "faults_observed": 42
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("faults_observed").and_then(JsonValue::as_u64), Some(42));
        let sites = v.get("shared_sites").and_then(JsonValue::as_array).unwrap();
        assert_eq!(sites[0].get("func").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("not json").is_err());
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    fn scalar(value: impl Scalar) -> String {
        render(|w| {
            w.value(value);
        })
    }

    #[test]
    fn writer_escapes_per_rfc_8259() {
        assert_eq!(scalar("\t"), r#""\t""#);
        assert_eq!(scalar("\r"), r#""\r""#);
        assert_eq!(scalar("\n"), r#""\n""#);
        assert_eq!(scalar("\u{1}"), r#""\u0001""#);
        assert_eq!(scalar("\u{1f}"), r#""\u001f""#);
        assert_eq!(scalar("say \"hi\""), r#""say \"hi\"""#);
        assert_eq!(scalar("a\\b"), r#""a\\b""#);
        // Only the mandatory escapes: DEL and non-ASCII pass through.
        assert_eq!(scalar("\u{7f}é/"), "\"\u{7f}é/\"");
    }

    #[test]
    fn writer_renders_non_finite_numbers_as_null() {
        assert_eq!(scalar(f64::NAN), "null");
        assert_eq!(scalar(f64::INFINITY), "null");
        assert_eq!(scalar(f64::NEG_INFINITY), "null");
        assert_eq!(scalar(1.5), "1.5");
        assert_eq!(scalar(2.0), "2");
        assert_eq!(scalar(None::<u64>), "null");
        assert_eq!(scalar(Some(7u64)), "7");
        assert_eq!(scalar(true), "true");
    }

    #[test]
    fn writer_places_commas_in_nested_containers() {
        let text = render(|w| {
            w.object(|w| {
                w.key("empty").object(|_| {});
                w.key("none").array(Vec::<u64>::new(), |_, _| {});
                w.key("sites").array([(1u64, 2u64), (3, 4)], |w, (func, site)| {
                    w.object(|w| {
                        w.field("func", func).field("site", site);
                    });
                });
                w.field("name", "pool").field("count", 3u64);
            });
        });
        assert_eq!(
            text,
            r#"{"empty":{},"none":[],"sites":[{"func":1,"site":2},{"func":3,"site":4}],"name":"pool","count":3}"#
        );
        // Everything here sits inside the parser's subset: it reads back.
        let v = parse(&text).unwrap();
        assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("name"), Some(&JsonValue::String("pool".into())));
        let sites = v.get("sites").and_then(JsonValue::as_array).unwrap();
        assert_eq!(sites[1].get("site").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("empty"), Some(&JsonValue::Object(vec![])));
    }
}
