//! Minimal JSON: a value type, parser, writer, and conversion traits.
//!
//! Replaces `serde`/`serde_json` for the workspace's needs — saving
//! experiment artifacts, loading them back for report generation, and
//! config round-trips. Structs and enums opt in through the
//! [`impl_json_struct!`](crate::impl_json_struct) and
//! [`impl_json_enum!`](crate::impl_json_enum) macros, which emit both
//! [`ToJson`] and [`FromJson`] in a serde-compatible layout (objects
//! keyed by field name; unit enum variants as strings; data-carrying
//! variants as single-key objects).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integers are exact to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Renders the value compactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                write_str(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity literals; degenerate statistics
        // (e.g. a rate with a zero denominator) render as null rather
        // than an unparseable token.
        out.push_str("null");
    } else if n.abs() >= 1e21 {
        // Rust's f64 Display never uses an exponent: it expands 1e300
        // to 301 digits. That is still valid JSON but needlessly huge,
        // so switch to shortest-roundtrip exponent form at the same
        // magnitude JavaScript's Number#toString does. Every committed
        // artifact stays below this (counters < 2^53, CPIs ~1), so
        // golden files are unaffected.
        let _ = write!(out, "{n:e}");
    } else {
        // Shortest-roundtrip decimal form, always a valid JSON number.
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("non-utf8 number".into()))?;
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => err(format!("bad number {text:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash goes in at
            // once. Both are ASCII, so the cut falls on a char boundary
            // of the input, which is valid UTF-8 already.
            let Some(run) = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\')
            else {
                return err("unterminated string");
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return err("unterminated escape");
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    if self.pos + 4 > self.bytes.len() {
                        return err("truncated \\u escape");
                    }
                    let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                        .map_err(|_| JsonError("non-utf8 escape".into()))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| JsonError(format!("bad \\u escape {hex:?}")))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our writer;
                    // map lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Builds `Self` from a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes compactly (the `serde_json::to_string` stand-in).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render()
}

/// Serializes with indentation (the `serde_json::to_string_pretty`
/// stand-in).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render_pretty()
}

/// Parses and converts (the `serde_json::from_str` stand-in).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => err("expected bool"),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            _ => err("expected string"),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Num(n) => Ok(*n),
            _ => err("expected number"),
        }
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(n) if n.fract() == 0.0 => Ok(*n as $t),
                    _ => err(concat!("expected integer ", stringify!($t))),
                }
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => err("expected array"),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            _ => err("expected two-element array"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Implements [`ToJson`] / [`FromJson`] for a struct by listing its
/// fields: `impl_json_struct!(Point { x, y });`. The JSON layout matches
/// what a serde derive would produce (an object keyed by field name).
#[macro_export]
macro_rules! impl_json_struct {
    ($T:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $T {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field))),*
                ])
            }
        }
        impl $crate::json::FromJson for $T {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::FromJson::from_json(
                        v.get(stringify!($field)).unwrap_or(&$crate::json::Json::Null),
                    )
                    .map_err(|e| $crate::json::JsonError(format!(
                        "{}.{}: {}",
                        stringify!($T),
                        stringify!($field),
                        e.0
                    )))?),*
                })
            }
        }
    };
}

/// Implements [`ToJson`] / [`FromJson`] for an enum of unit and/or
/// struct variants: `impl_json_enum!(Shape { Dot, Box { w, h } });`.
/// Unit variants serialize as their name; struct variants as
/// single-key objects — the same externally-tagged layout serde uses.
#[macro_export]
macro_rules! impl_json_enum {
    ($T:ident { $($variant:ident $({ $($f:ident),* $(,)? })?),* $(,)? }) => {
        impl $crate::json::ToJson for $T {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($crate::impl_json_enum!(@pat $T $variant $({ $($f),* })?) =>
                        $crate::impl_json_enum!(@to $variant $({ $($f),* })?)),*
                }
            }
        }
        impl $crate::json::FromJson for $T {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                $($crate::impl_json_enum!(@from $T $variant v $({ $($f),* })?);)*
                Err($crate::json::JsonError(format!(
                    "no matching {} variant",
                    stringify!($T)
                )))
            }
        }
    };
    (@pat $T:ident $v:ident) => { $T::$v };
    (@pat $T:ident $v:ident { $($f:ident),* }) => { $T::$v { $($f),* } };
    (@to $v:ident) => {
        $crate::json::Json::Str(stringify!($v).to_string())
    };
    (@to $v:ident { $($f:ident),* }) => {
        $crate::json::Json::Obj(vec![(
            stringify!($v).to_string(),
            $crate::json::Json::Obj(vec![
                $((stringify!($f).to_string(), $crate::json::ToJson::to_json($f))),*
            ]),
        )])
    };
    (@from $T:ident $v:ident $json:ident) => {
        if matches!($json, $crate::json::Json::Str(s) if s == stringify!($v)) {
            return Ok($T::$v);
        }
    };
    (@from $T:ident $v:ident $json:ident { $($f:ident),* }) => {
        if let Some(body) = $json.get(stringify!($v)) {
            return Ok($T::$v {
                $($f: $crate::json::FromJson::from_json(
                    body.get(stringify!($f)).unwrap_or(&$crate::json::Json::Null),
                )?),*
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u32,
        y: f64,
        label: String,
    }
    crate::impl_json_struct!(Point { x, y, label });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Rect { w: u32, h: u32 },
    }
    crate::impl_json_enum!(Shape { Dot, Rect { w, h } });

    #[test]
    fn struct_roundtrip() {
        let p = Point { x: 3, y: -0.5, label: "a \"b\"\n".into() };
        let s = to_string(&p);
        assert_eq!(from_str::<Point>(&s).unwrap(), p);
    }

    #[test]
    fn enum_roundtrip_both_variant_kinds() {
        for shape in [Shape::Dot, Shape::Rect { w: 4, h: 7 }] {
            let s = to_string(&shape);
            assert_eq!(from_str::<Shape>(&s).unwrap(), shape);
        }
        assert_eq!(to_string(&Shape::Dot), "\"Dot\"");
        assert_eq!(to_string(&Shape::Rect { w: 1, h: 2 }), r#"{"Rect":{"w":1,"h":2}}"#);
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<(String, f64)> = vec![("a".into(), 1.5), ("b".into(), -2.0)];
        assert_eq!(from_str::<Vec<(String, f64)>>(&to_string(&v)).unwrap(), v);
        let o: Option<u64> = None;
        assert_eq!(to_string(&o), "null");
        assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u64>>("9").unwrap(), Some(9));
    }

    #[test]
    fn parser_handles_whitespace_escapes_and_nesting() {
        let text = r#" { "a" : [ 1 , 2.5 , -3e2 ] , "b" : { "c" : "x\tyA" } , "d" : null } "#;
        let v = Json::parse(text).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Str("x\tyA".into())));
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn pretty_render_is_reparseable() {
        let p = Point { x: 1, y: 2.0, label: "z".into() };
        let pretty = to_string_pretty(&p);
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Point>(&pretty).unwrap(), p);
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let s = "héllo — ünïcode ✓".to_string();
        assert_eq!(from_str::<String>(&to_string(&s)).unwrap(), s);
    }

    #[test]
    fn integers_roundtrip_exactly() {
        for n in [0u64, 1, 4096, 1 << 52, (1 << 53) - 1] {
            assert_eq!(from_str::<u64>(&to_string(&n)).unwrap(), n);
        }
        assert!(from_str::<u64>("1.5").is_err());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(to_string(&f64::NEG_INFINITY), "null");
        // The rendered form must stay parseable, including nested in a
        // container (the shape a degenerate rate reaches disk in).
        let v = Json::parse(&to_string(&vec![1.0, f64::NAN])).unwrap();
        assert_eq!(v, Json::Arr(vec![Json::Num(1.0), Json::Null]));
    }

    #[test]
    fn huge_magnitudes_use_exponent_form_and_roundtrip() {
        for n in [1e21, -2.5e22, 1e300, f64::MAX, f64::MIN] {
            let text = to_string(&n);
            assert!(text.contains('e'), "{n} should render in exponent form, got {text}");
            assert!(text.len() < 32, "exponent form must stay compact, got {text}");
            assert_eq!(from_str::<f64>(&text).unwrap(), n, "round-trip of {n}");
        }
    }

    /// A document holding one string literal, read one UTF-8 sequence
    /// at a time: the reference `Parser::string` must agree with, value
    /// and error alike.
    fn per_character_string_document(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        if bytes.first() != Some(&b'"') {
            return err("the reference reads string documents only");
        }
        let mut pos = 1;
        let mut out = String::new();
        loop {
            let Some(&c) = bytes.get(pos) else {
                return err("unterminated string");
            };
            pos += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = bytes.get(pos) else {
                        return err("unterminated escape");
                    };
                    pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if pos + 4 > bytes.len() {
                                return err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&bytes[pos..pos + 4])
                                .map_err(|_| JsonError("non-utf8 escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError(format!("bad \\u escape {hex:?}")))?;
                            pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    let start = pos - 1;
                    while pos < bytes.len() && bytes[pos] & 0xC0 == 0x80 {
                        pos += 1;
                    }
                    let chunk = std::str::from_utf8(&bytes[start..pos])
                        .map_err(|_| JsonError("invalid utf-8 in string".into()))?;
                    out.push_str(chunk);
                }
            }
        }
        while pos < bytes.len() && matches!(bytes[pos], b' ' | b'\t' | b'\n' | b'\r') {
            pos += 1;
        }
        if pos != bytes.len() {
            return err(format!("trailing input at byte {pos}"));
        }
        Ok(Json::Str(out))
    }

    #[test]
    fn strings_parse_as_the_per_character_reader_parsed_them() {
        // Every escape, `\u` surrogates and the `+` that
        // `from_str_radix` lets through included, raw control bytes and
        // multi-byte characters; then, less often, lone quotes and
        // backslashes, bad escapes and escapes whose four hex digits cut
        // a multi-byte character.
        const WELL_FORMED: [&str; 28] = [
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\u0041",
            "\\u00e9",
            "\\u00E9",
            "\\ud800",
            "\\udc00",
            "\\ud83d\\ude00",
            "\\u+041",
            "\u{0}",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "\n",
            "\t",
            " ",
            "é",
            "✓",
            "😀",
            "a",
            "{\\\"name\\\":1}",
            "|",
        ];
        const HOSTILE: [&str; 9] =
            ["\"", "\\", "\\u12", "\\uZZZZ", "\\x", "\\é", "\\u00é", "\\u0é", "\\u"];
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x15);
        let mut checked = 0;
        let (mut values, mut errors) = (0, 0);
        for _ in 0..3_000 {
            let mut doc = String::from("\"");
            for _ in 0..rng.random_range(0..12usize) {
                doc.push_str(if rng.random_bool(0.1) {
                    HOSTILE[rng.random_range(0..HOSTILE.len())]
                } else {
                    WELL_FORMED[rng.random_range(0..WELL_FORMED.len())]
                });
            }
            if rng.random_bool(0.8) {
                doc.push('"');
            }
            for cut in (1..=doc.len()).filter(|&i| doc.is_char_boundary(i)) {
                let text = &doc[..cut];
                let got = Json::parse(text);
                assert_eq!(got, per_character_string_document(text), "{text:?}");
                match got {
                    Ok(_) => values += 1,
                    Err(_) => errors += 1,
                }
                checked += 1;
            }
        }
        assert!(checked > 30_000 && values > 1_000, "{values} values, {errors} errors");
    }

    #[test]
    fn ordinary_magnitudes_stay_in_plain_decimal() {
        // Everything the artifacts serialize sits far below the 1e21
        // exponent cutover (counters < 2^53, CPIs near 1), so committed
        // goldens keep their existing plain-decimal rendering.
        for (n, want) in [(42.0, "42"), (0.5, "0.5"), (-3.25, "-3.25"), (9e15, "9000000000000000")]
        {
            assert_eq!(to_string(&n), want);
        }
        let below_cutover = 9.9e20;
        let text = to_string(&below_cutover);
        assert!(!text.contains('e'), "below 1e21 stays plain, got {text}");
        assert_eq!(from_str::<f64>(&text).unwrap(), below_cutover);
    }
}
