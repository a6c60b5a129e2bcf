//! The workspace's one JSON reader and writer (std only).
//!
//! [`Value`] is an order-preserving document tree that keeps integers
//! distinct from floats; [`Value::write`] / [`Value::write_pretty`] render
//! it, [`parse`] reads it back and returns `Err` — never panics — on
//! anything malformed, nested deeper than [`MAX_DEPTH`] or longer than
//! [`MAX_INPUT_BYTES`]. Types that cross a file or socket implement
//! [`ToJson`]; the ones something reads back also implement [`FromJson`]
//! ([`json_write!`](crate::json_write) / [`json_struct!`](crate::json_struct)
//! list the fields of a plain struct). The telemetry exporters append
//! straight to a `String` with `push_str_literal` / `push_f64`, which
//! the tree writer shares.

use std::fmt::{self, Write as _};
use std::ops::Index;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;
/// Longest input [`parse`] accepts, in bytes.
pub const MAX_INPUT_BYTES: usize = 64 << 20;

/// A parsed or to-be-written JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent (`i64` and `u64`
    /// ranges both fit).
    Int(i128),
    /// Any other number; always finite after [`parse`].
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys keep insertion order and are unique after [`parse`].
    Object(Vec<(String, Value)>),
}

/// Why a document was rejected, with the byte offset for parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error carrying `msg`.
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias of this module.
pub type Result<T> = std::result::Result<T, Error>;

static NULL: Value = Value::Null;

impl Value {
    /// The object with one member per `(key, value)` pair, in order.
    pub fn object<K: std::ops::Deref<Target = str>, T: ToJson>(members: &[(K, T)]) -> Value {
        let member = |(k, v): &(K, T)| (k.to_string(), v.to_value());
        Value::Object(members.iter().map(member).collect())
    }

    /// The member `key` of an object; `None` for a missing key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Sets member `key` of an object, replacing an existing one. A
    /// non-object is left alone.
    pub fn insert(&mut self, key: &str, value: Value) {
        if let Value::Object(members) = self {
            match members.iter_mut().find(|(k, _)| k == key) {
                Some((_, slot)) => *slot = value,
                None => members.push((key.to_string(), value)),
            }
        }
    }

    /// The boolean, if this is one.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer as `u64`, if this is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The number as `f64`; integers convert.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Reads the required member `key` as a `T`; the error names the key.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T> {
        let member = self
            .get(key)
            .ok_or_else(|| Error(format!("missing field `{key}`")))?;
        T::from_value(member).map_err(|e| Error(format!("field `{key}`: {e}")))
    }

    /// Compact rendering: no whitespace outside strings.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, None);
        out
    }

    /// Two-space-indented rendering; [`Value::write`] plus whitespace.
    pub fn write_pretty(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, Some(0));
        out
    }

    /// `indent` is the current depth when pretty-printing, `None` when
    /// compact.
    fn write_into(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => push_f64(out, *f),
            Value::Str(s) => push_str_literal(out, s),
            Value::Array(items) => write_seq(out, indent, ['[', ']'], items, |out, item, inner| {
                item.write_into(out, inner)
            }),
            Value::Object(members) => write_seq(
                out,
                indent,
                ['{', '}'],
                members,
                |out, (key, member), inner| {
                    push_str_literal(out, key);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    member.write_into(out, inner);
                },
            ),
        }
    }
}

/// Writes `items` between `brackets`, comma-separated; when pretty-printing
/// (`indent` is the depth), one item per line. An empty sequence is `[]`.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: &[T],
    write_item: impl Fn(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, depth: Option<usize>| {
        if let Some(depth) = depth {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        }
    };
    let inner = indent.map(|depth| depth + 1);
    out.push(brackets[0]);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        write_item(out, item, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(brackets[1]);
}

/// Missing members and out-of-range elements index to `null`, so a chain
/// like `v["a"][3]["b"]` never panics.
impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, at: usize) -> &Value {
        self.as_array().and_then(|a| a.get(at)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

macro_rules! int_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                matches!(self, Value::Int(i) if *i == *other as i128)
            }
        }
    )*};
}
int_eq!(i32, u64, usize);

/// Append `s` to `out` as a JSON string literal (including the quotes).
pub(crate) fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Append `v` to `out` as a JSON number. Non-finite values (which JSON
/// cannot represent) are written as `0`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` keeps enough precision to round-trip and always includes
        // a decimal point or exponent, which is still valid JSON.
        let _ = write!(out, "{v:?}");
    } else {
        out.push('0');
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value> {
    if input.len() > MAX_INPUT_BYTES {
        return Err(Error(format!(
            "input is {} bytes, over the {MAX_INPUT_BYTES}-byte limit",
            input.len()
        )));
    }
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        at: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

/// [`parse`] for bytes; invalid UTF-8 is an error.
pub fn parse_bytes(input: &[u8]) -> Result<Value> {
    parse(std::str::from_utf8(input).map_err(|e| Error(format!("invalid UTF-8: {e}")))?)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.at))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the limit"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                for (word, value) in [
                    ("null", Value::Null),
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                ] {
                    if self.bytes[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return Ok(value);
                    }
                }
                Err(self.err("unexpected character"))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value> {
        self.at += 1;
        let mut members: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate key"));
            }
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:`"));
            }
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.at += 4;
        Ok(digits.iter().fold(0, |code, &d| {
            code * 16 + (d as char).to_digit(16).expect("checked hex digit")
        }))
    }

    fn string(&mut self) -> Result<String> {
        self.at += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte
            // whole; `at` only ever stops on ASCII, so slices stay on
            // character boundaries.
            let start = self.at;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.src[start..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated string"))?;
                    self.at += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("unknown escape")),
                    });
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape (the `\u` already consumed),
    /// reading the low half of a surrogate pair; a lone surrogate is an
    /// error.
    fn unicode_escape(&mut self) -> Result<char> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("lone surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("lone surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.at;
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(self.err("malformed number"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        let text = &self.src[start..self.at];
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                if (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(&i) {
                    return Ok(Value::Int(i));
                }
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(self.err("number out of range")),
        }
    }
}

/// Types with a JSON form.
pub trait ToJson {
    /// This value as a document tree.
    fn to_value(&self) -> Value;
}

/// Types that can be read back from their JSON form.
pub trait FromJson: Sized {
    /// Reads `v`, rejecting a wrong shape or an out-of-range number.
    fn from_value(v: &Value) -> Result<Self>;
}

/// Builds a [`Value::Object`] from `"key": expr` pairs; each expression is
/// borrowed and converted through [`ToJson`].
#[macro_export]
macro_rules! json_object {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Value::Object(vec![
            $(($key.to_string(), $crate::json::ToJson::to_value(&$value))),*
        ])
    };
}

/// `json_write!(Type: a, b)` implements [`ToJson`] for a struct as the
/// object of the listed fields, keyed by their names, in that order.
#[macro_export]
macro_rules! json_write {
    ($ty:ty: $($field:ident),* $(,)?) => {
        impl $crate::json::ToJson for $ty {
            fn to_value(&self) -> $crate::json::Value {
                $crate::json::Value::Object(vec![$((
                    stringify!($field).to_string(),
                    $crate::json::ToJson::to_value(&self.$field),
                )),*])
            }
        }
    };
}

/// [`json_write!`] plus [`FromJson`]: every listed field is required when
/// reading, and the list must name every field of the struct.
#[macro_export]
macro_rules! json_struct {
    ($ty:ty: $($field:ident),* $(,)?) => {
        $crate::json_write!($ty: $($field),*);
        impl $crate::json::FromJson for $ty {
            fn from_value(v: &$crate::json::Value) -> $crate::json::Result<Self> {
                Ok(Self { $($field: v.field(stringify!($field))?),* })
            }
        }
    };
}

impl ToJson for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_value(v: &Value) -> Result<Self> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_value(v: &Value) -> Result<Self> {
        v.as_bool().ok_or_else(|| Error::new("expected a boolean"))
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_value(v: &Value) -> Result<Self> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i).ok(),
                    _ => None,
                }
                .ok_or_else(|| Error::new(concat!("expected an integer in ", stringify!($t), " range")))
            }
        }
    )*};
}
int_json!(u32, u64, usize, i32);

impl ToJson for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_value(v: &Value) -> Result<Self> {
        v.as_f64().ok_or_else(|| Error::new("expected a number"))
    }
}

impl ToJson for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_value(v: &Value) -> Result<Self> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::new("expected a string"))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: ToJson + ?Sized> ToJson for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_value)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_value).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_value(v: &Value) -> Result<Self> {
        v.as_array()
            .ok_or_else(|| Error::new("expected an array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn numbers_are_finite() {
        let mut out = String::new();
        push_f64(&mut out, 1.5);
        out.push(',');
        push_f64(&mut out, f64::NAN);
        out.push(',');
        push_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "1.5,0,0");
    }

    #[test]
    fn plain_integers_still_have_a_marker() {
        let mut out = String::new();
        push_f64(&mut out, 2.0);
        assert_eq!(out, "2.0");
    }

    #[test]
    fn integers_stay_apart_from_floats_and_missing_members_index_to_null() {
        let v = parse(r#"{"a": [1, 2.0, -3, 18446744073709551615], "s": "xé😀"}"#).unwrap();
        assert_eq!(
            (&v["a"][0], &v["a"][1]),
            (&Value::Int(1), &Value::Float(2.0))
        );
        assert!(v["a"][2] == -3 && v["a"][1].as_u64().is_none() && v["s"] == "xé😀");
        assert_eq!(v["a"][3].as_u64(), Some(u64::MAX));
        assert!(matches!(v["missing"][7]["deeper"], Value::Null));
    }

    #[test]
    fn pretty_output_has_the_two_space_layout() {
        let v = json_object! {"a": 1u32, "b": vec![1.5f64], "c": Vec::<u32>::new(), "d": "x"};
        assert_eq!(v.write(), r#"{"a":1,"b":[1.5],"c":[],"d":"x"}"#);
        assert_eq!(
            v.write_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    1.5\n  ],\n  \"c\": [],\n  \"d\": \"x\"\n}"
        );
    }

    #[test]
    fn listed_fields_write_in_order_and_read_back_by_name() {
        #[derive(Debug, PartialEq)]
        struct Point {
            x: f64,
            tags: Vec<String>,
        }
        json_struct!(Point: x, tags);
        let p = Point {
            x: 0.5,
            tags: vec!["a".into()],
        };
        assert_eq!(p.to_value().write(), r#"{"x":0.5,"tags":["a"]}"#);
        assert_eq!(Point::from_value(&p.to_value()), Ok(p));
        let err = Point::from_value(&parse(r#"{"x": "0.5", "tags": []}"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains("`x`"), "{err}");
        let err = Point::from_value(&parse(r#"{"x": 1}"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains("missing field `tags`"), "{err}");
    }
}
