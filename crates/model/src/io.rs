//! Instance and result (de)serialization.
//!
//! Research code lives or dies by reproducible instances: this module
//! bundles an application set, a platform and optional mappings into a
//! single versioned [`Instance`] document that round-trips through JSON
//! (via `serde`), so experiments can be archived, shared and re-run
//! bit-for-bit.
//!
//! The JSON layer itself ([`json_value`]) is linear in the line length on
//! both sides. The parser copies each plain run of a string, up to the
//! next `"` or `\`, with one `push_str`: the input is already a `&str`
//! and both stop bytes are ASCII, so no run needs re-validating. The
//! writer renders a whole [`json_value::Value`] into one `String`:
//! numbers are formatted in place and unescaped runs are copied whole, in
//! both the compact (JSONL) and the pretty style. The `Value` tree with
//! its `BTreeMap` objects stays between text and types on purpose: it
//! gives sorted keys on output and last-wins duplicate keys on input, and
//! the parse error texts come from it, which the serve goldens pin in
//! every `Rejected{Invalid}` detail. A single-pass deserializer would
//! change both.

use crate::application::AppSet;
use crate::mapping::Mapping;
use crate::objective::Thresholds;
use crate::platform::Platform;
use serde::{Deserialize, Serialize};

/// Current schema version; bumped on incompatible changes.
pub const SCHEMA_VERSION: u32 = 1;

/// A self-contained problem instance (plus optional solutions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Schema version (for forward compatibility checks).
    pub version: u32,
    /// Free-form description (provenance, seed, purpose).
    pub description: String,
    /// The concurrent applications.
    pub apps: AppSet,
    /// The target platform.
    pub platform: Platform,
    /// Optional thresholds the instance is meant to be solved under.
    #[serde(default)]
    pub thresholds: Option<Thresholds>,
    /// Named mappings (e.g. `"period-optimal"`, `"compromise"`).
    #[serde(default)]
    pub mappings: Vec<NamedMapping>,
}

/// A mapping with a label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedMapping {
    /// Human-readable label.
    pub name: String,
    /// The mapping.
    pub mapping: Mapping,
}

impl Instance {
    /// Bundle an instance.
    pub fn new(description: impl Into<String>, apps: AppSet, platform: Platform) -> Self {
        Instance {
            version: SCHEMA_VERSION,
            description: description.into(),
            apps,
            platform,
            thresholds: None,
            mappings: Vec::new(),
        }
    }

    /// Attach thresholds.
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = Some(thresholds);
        self
    }

    /// Attach a named mapping.
    pub fn with_mapping(mut self, name: impl Into<String>, mapping: Mapping) -> Self {
        self.mappings.push(NamedMapping { name: name.into(), mapping });
        self
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> Result<String, serde_json_error::Error> {
        serde_json_error::to_string_pretty(self)
    }

    /// Deserialize from JSON, checking the schema version and validating
    /// all embedded mappings.
    pub fn from_json(json: &str) -> Result<Self, InstanceError> {
        let inst: Instance =
            serde_json_error::from_str(json).map_err(InstanceError::Parse)?;
        if inst.version != SCHEMA_VERSION {
            return Err(InstanceError::Version { found: inst.version });
        }
        for nm in &inst.mappings {
            nm.mapping
                .validate(&inst.apps, &inst.platform)
                .map_err(|e| InstanceError::InvalidMapping {
                    name: nm.name.clone(),
                    reason: e.to_string(),
                })?;
        }
        Ok(inst)
    }
}

/// Errors while loading an instance.
#[derive(Debug)]
pub enum InstanceError {
    /// JSON parse failure.
    Parse(serde_json_error::Error),
    /// Unknown schema version.
    Version {
        /// The version found in the document.
        found: u32,
    },
    /// An embedded mapping failed validation against its own instance.
    InvalidMapping {
        /// The mapping's label.
        name: String,
        /// Validation failure reason.
        reason: String,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::Parse(e) => write!(f, "parse error: {e}"),
            InstanceError::Version { found } => {
                write!(f, "unsupported schema version {found} (expected {SCHEMA_VERSION})")
            }
            InstanceError::InvalidMapping { name, reason } => {
                write!(f, "embedded mapping `{name}` is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// Minimal JSON (de)serialization built on `serde`'s data model — the
/// approved dependency set has no `serde_json`, so this module implements
/// the small JSON subset the [`Instance`] schema needs (objects, arrays,
/// strings, finite f64/u64/usize numbers, booleans, null / `Option`).
pub mod serde_json_error {
    use serde::de::DeserializeOwned;
    use serde::Serialize;

    /// JSON (de)serialization error.
    #[derive(Debug)]
    pub struct Error(pub String);

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }
    impl std::error::Error for Error {}

    /// Serialize any `Serialize` value to pretty JSON.
    pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
        let v = super::json_value::to_value(value)?;
        Ok(v.pretty(0))
    }

    /// Serialize any `Serialize` value to compact single-line JSON — the
    /// JSONL form used by batch spec files.
    pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
        let v = super::json_value::to_value(value)?;
        Ok(v.compact())
    }

    /// The UTF-8 text of a raw input line, or the typed error an
    /// undecodable line gets instead of a parse.
    pub fn from_utf8(bytes: &[u8]) -> Result<&str, Error> {
        std::str::from_utf8(bytes).map_err(utf8_error)
    }

    /// [`from_utf8`] for an owned line: valid bytes become the text
    /// without a copy.
    pub fn from_utf8_owned(bytes: Vec<u8>) -> Result<String, Error> {
        String::from_utf8(bytes).map_err(|e| utf8_error(e.utf8_error()))
    }

    fn utf8_error(e: std::str::Utf8Error) -> Error {
        Error(format!("invalid UTF-8 at byte {}", e.valid_up_to()))
    }

    /// Deserialize any `DeserializeOwned` value from JSON text.
    pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T, Error> {
        let v = super::json_value::parse(s)?;
        super::json_value::from_value(v)
    }
}

/// A tiny JSON value tree plus serde bridges.
pub mod json_value {
    use super::serde_json_error::Error;
    use serde::de::DeserializeOwned;
    use serde::ser::{self, Serialize};
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any finite number (stored as f64; u64 kept exact up to 2^53).
        Num(f64),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Value>),
        /// Object (sorted keys for determinism).
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        /// Render with 2-space indentation.
        pub fn pretty(&self, indent: usize) -> String {
            let mut out = String::new();
            self.render(&mut out, Some(indent));
            out
        }

        /// Render on one line with no whitespace (JSONL-friendly).
        pub fn compact(&self) -> String {
            let mut out = String::new();
            self.render(&mut out, None);
            out
        }

        /// The single renderer behind both styles, appending to `out`:
        /// `Some(level)` pretty prints at that indentation depth, `None`
        /// packs one line.
        fn render(&self, out: &mut String, indent: Option<usize>) {
            let inner = indent.map(|i| i + 1);
            match self {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Num(x) => write_number(out, *x),
                Value::Str(s) => write_escaped(out, s),
                Value::Arr(items) if items.is_empty() => out.push_str("[]"),
                Value::Obj(map) if map.is_empty() => out.push_str("{}"),
                Value::Arr(items) => {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        line_break(out, inner);
                        v.render(out, inner);
                    }
                    line_break(out, indent);
                    out.push(']');
                }
                Value::Obj(map) => {
                    out.push('{');
                    for (i, (k, v)) in map.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        line_break(out, inner);
                        write_escaped(out, k);
                        out.push_str(if indent.is_some() { ": " } else { ":" });
                        v.render(out, inner);
                    }
                    line_break(out, indent);
                    out.push('}');
                }
            }
        }
    }

    /// Pretty style only: a newline and `level` two-space indents.
    fn line_break(out: &mut String, indent: Option<usize>) {
        if let Some(level) = indent {
            out.push('\n');
            for _ in 0..level {
                out.push_str("  ");
            }
        }
    }

    fn write_number(out: &mut String, x: f64) {
        if x.fract() == 0.0 && x.abs() < 9e15 {
            write!(out, "{}", x as i64)
        } else {
            write!(out, "{x:?}")
        }
        .expect("write to string");
    }

    /// `s` as a quoted JSON string. Every byte that needs an escape is
    /// ASCII, so the runs between them are copied whole.
    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            out.push_str(&s[run..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => write!(out, "\\u{b:04x}").expect("write to string"),
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    // -- serializer: T -> Value ------------------------------------------

    /// Convert any `Serialize` into a [`Value`].
    pub fn to_value<T: Serialize>(value: &T) -> Result<Value, Error> {
        value.serialize(ValueSer)
    }

    struct ValueSer;

    macro_rules! ser_num {
        ($($f:ident: $t:ty),*) => {$(
            fn $f(self, v: $t) -> Result<Value, Error> { Ok(Value::Num(v as f64)) }
        )*}
    }

    impl ser::Serializer for ValueSer {
        type Ok = Value;
        type Error = Error;
        type SerializeSeq = SeqSer;
        type SerializeTuple = SeqSer;
        type SerializeTupleStruct = SeqSer;
        type SerializeTupleVariant = TupleVariantSer;
        type SerializeMap = MapSer;
        type SerializeStruct = StructSer;
        type SerializeStructVariant = StructVariantSer;

        fn serialize_bool(self, v: bool) -> Result<Value, Error> {
            Ok(Value::Bool(v))
        }
        ser_num!(serialize_i8: i8, serialize_i16: i16, serialize_i32: i32, serialize_i64: i64,
                 serialize_u8: u8, serialize_u16: u16, serialize_u32: u32, serialize_u64: u64,
                 serialize_f32: f32);
        fn serialize_f64(self, v: f64) -> Result<Value, Error> {
            if v.is_finite() {
                Ok(Value::Num(v))
            } else {
                Err(Error(format!("non-finite number {v} not representable in JSON")))
            }
        }
        fn serialize_char(self, v: char) -> Result<Value, Error> {
            Ok(Value::Str(v.to_string()))
        }
        fn serialize_str(self, v: &str) -> Result<Value, Error> {
            Ok(Value::Str(v.to_string()))
        }
        fn serialize_bytes(self, v: &[u8]) -> Result<Value, Error> {
            Ok(Value::Arr(v.iter().map(|b| Value::Num(*b as f64)).collect()))
        }
        fn serialize_none(self) -> Result<Value, Error> {
            Ok(Value::Null)
        }
        fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Value, Error> {
            value.serialize(ValueSer)
        }
        fn serialize_unit(self) -> Result<Value, Error> {
            Ok(Value::Null)
        }
        fn serialize_unit_struct(self, _name: &'static str) -> Result<Value, Error> {
            Ok(Value::Null)
        }
        fn serialize_unit_variant(
            self,
            _name: &'static str,
            _idx: u32,
            variant: &'static str,
        ) -> Result<Value, Error> {
            Ok(Value::Str(variant.to_string()))
        }
        fn serialize_newtype_struct<T: Serialize + ?Sized>(
            self,
            _name: &'static str,
            value: &T,
        ) -> Result<Value, Error> {
            value.serialize(ValueSer)
        }
        fn serialize_newtype_variant<T: Serialize + ?Sized>(
            self,
            _name: &'static str,
            _idx: u32,
            variant: &'static str,
            value: &T,
        ) -> Result<Value, Error> {
            let mut map = BTreeMap::new();
            map.insert(variant.to_string(), value.serialize(ValueSer)?);
            Ok(Value::Obj(map))
        }
        fn serialize_seq(self, len: Option<usize>) -> Result<SeqSer, Error> {
            Ok(SeqSer { items: Vec::with_capacity(len.unwrap_or(0)) })
        }
        fn serialize_tuple(self, len: usize) -> Result<SeqSer, Error> {
            self.serialize_seq(Some(len))
        }
        fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<SeqSer, Error> {
            self.serialize_seq(Some(len))
        }
        fn serialize_tuple_variant(
            self,
            _name: &'static str,
            _idx: u32,
            variant: &'static str,
            len: usize,
        ) -> Result<TupleVariantSer, Error> {
            Ok(TupleVariantSer { variant, items: Vec::with_capacity(len) })
        }
        fn serialize_map(self, _len: Option<usize>) -> Result<MapSer, Error> {
            Ok(MapSer { map: BTreeMap::new(), key: None })
        }
        fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<StructSer, Error> {
            Ok(StructSer { map: BTreeMap::new() })
        }
        fn serialize_struct_variant(
            self,
            _name: &'static str,
            _idx: u32,
            variant: &'static str,
            _len: usize,
        ) -> Result<StructVariantSer, Error> {
            Ok(StructVariantSer { variant, map: BTreeMap::new() })
        }
    }

    /// Sequence serializer.
    pub struct SeqSer {
        items: Vec<Value>,
    }
    impl ser::SerializeSeq for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            self.items.push(value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Arr(self.items))
        }
    }
    impl ser::SerializeTuple for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            ser::SerializeSeq::serialize_element(self, value)
        }
        fn end(self) -> Result<Value, Error> {
            ser::SerializeSeq::end(self)
        }
    }
    impl ser::SerializeTupleStruct for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            ser::SerializeSeq::serialize_element(self, value)
        }
        fn end(self) -> Result<Value, Error> {
            ser::SerializeSeq::end(self)
        }
    }

    /// Tuple-variant serializer (`{"Variant": [..]}`).
    pub struct TupleVariantSer {
        variant: &'static str,
        items: Vec<Value>,
    }
    impl ser::SerializeTupleVariant for TupleVariantSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            self.items.push(value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            let mut map = BTreeMap::new();
            map.insert(self.variant.to_string(), Value::Arr(self.items));
            Ok(Value::Obj(map))
        }
    }

    /// Map serializer (string keys only).
    pub struct MapSer {
        map: BTreeMap<String, Value>,
        key: Option<String>,
    }
    impl ser::SerializeMap for MapSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
            match key.serialize(ValueSer)? {
                Value::Str(s) => {
                    self.key = Some(s);
                    Ok(())
                }
                other => Err(Error(format!("JSON object keys must be strings, got {other:?}"))),
            }
        }
        fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            let key = self.key.take().ok_or_else(|| Error("value before key".into()))?;
            self.map.insert(key, value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Obj(self.map))
        }
    }

    /// Struct serializer.
    pub struct StructSer {
        map: BTreeMap<String, Value>,
    }
    impl ser::SerializeStruct for StructSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Error> {
            self.map.insert(key.to_string(), value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Obj(self.map))
        }
    }

    /// Struct-variant serializer (`{"Variant": {..}}`).
    pub struct StructVariantSer {
        variant: &'static str,
        map: BTreeMap<String, Value>,
    }
    impl ser::SerializeStructVariant for StructVariantSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Error> {
            self.map.insert(key.to_string(), value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            let mut outer = BTreeMap::new();
            outer.insert(self.variant.to_string(), Value::Obj(self.map));
            Ok(Value::Obj(outer))
        }
    }

    impl ser::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }
    impl serde::de::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    // -- parser: text -> Value -------------------------------------------

    /// Parse JSON text into a [`Value`].
    pub fn parse(s: &str) -> Result<Value, Error> {
        let mut p = Parser { src: s, bytes: s.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Deepest array/object nesting [`parse`] accepts. Real requests nest
    /// about six levels; the cap only turns pathological input into a
    /// typed error.
    pub const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        src: &'a str,
        /// `src` as bytes: every byte the grammar branches on is ASCII.
        bytes: &'a [u8],
        pos: usize,
        /// Containers currently open around `pos`.
        depth: usize,
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
        fn expect(&mut self, c: u8) -> Result<(), Error> {
            if self.peek() == Some(c) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error(format!("expected `{}` at byte {}", c as char, self.pos)))
            }
        }
        fn literal(&mut self, lit: &str) -> bool {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                true
            } else {
                false
            }
        }
        fn value(&mut self) -> Result<Value, Error> {
            self.skip_ws();
            match self.peek() {
                Some(b'n') if self.literal("null") => Ok(Value::Null),
                Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b'[') => self.nested(Self::array),
                Some(b'{') => self.nested(Self::object),
                Some(c) if c == b'-' || c.is_ascii_digit() => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_digit()
                            || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                        {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    let text = &self.src[start..self.pos];
                    text.parse::<f64>().map(Value::Num).map_err(|e| Error(e.to_string()))
                }
                _ => Err(Error(format!("unexpected character at byte {}", self.pos))),
            }
        }
        /// Parse one container a level deeper, refusing past [`MAX_DEPTH`]:
        /// the parser recurses once per level, so an unbounded depth would
        /// overflow the stack instead of rejecting the line.
        fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
            if self.depth == MAX_DEPTH {
                return Err(Error(format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                )));
            }
            self.depth += 1;
            let v = f(self);
            self.depth -= 1;
            v
        }
        fn array(&mut self) -> Result<Value, Error> {
            self.pos += 1;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(Error(format!("expected , or ] at byte {}", self.pos))),
                }
            }
            Ok(Value::Arr(items))
        }
        fn object(&mut self) -> Result<Value, Error> {
            self.pos += 1;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value()?;
                map.insert(key, val);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(Error(format!("expected , or }} at byte {}", self.pos))),
                }
            }
            Ok(Value::Obj(map))
        }
        fn string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                // Copy the plain run up to the next `"` or `\` whole: both
                // are ASCII, so the run ends on a char boundary of the
                // already-valid input.
                let start = self.pos;
                let run = self.bytes[start..].iter().position(|&b| b == b'"' || b == b'\\');
                self.pos = run.map_or(self.bytes.len(), |n| start + n);
                out.push_str(&self.src[start..self.pos]);
                match self.peek() {
                    None => return Err(Error("unterminated string".into())),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(_) => {
                        self.pos += 1;
                        out.push(self.escape()?);
                        self.pos += 1;
                    }
                }
            }
        }
        /// The character escaped by the byte at `pos`, just after a `\`;
        /// leaves `pos` on the escape's last byte.
        fn escape(&mut self) -> Result<char, Error> {
            Ok(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let mut code = self.code_unit(self.pos)?;
                    self.pos += 4;
                    // A high surrogate followed by an escaped low one is a
                    // single non-BMP character (RFC 8259 §7); a lone half
                    // of a pair is refused below.
                    if (0xD800..0xDC00).contains(&code)
                        && self.bytes[self.pos + 1..].starts_with(b"\\u")
                    {
                        if let Ok(low @ 0xDC00..=0xDFFF) = self.code_unit(self.pos + 2) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            self.pos += 6;
                        }
                    }
                    char::from_u32(code).ok_or_else(|| Error("invalid \\u escape".into()))?
                }
                other => return Err(Error(format!("invalid escape {other:?}"))),
            })
        }
        /// The UTF-16 code unit of the `\uXXXX` escape whose `u` is at
        /// `at`: exactly four hex digits.
        fn code_unit(&self, at: usize) -> Result<u32, Error> {
            let digits = self
                .bytes
                .get(at + 1..at + 5)
                .ok_or_else(|| Error("truncated \\u escape".into()))?;
            // The error texts stay those the parser has always given:
            // `from_utf8`'s for a character split by the four-byte window,
            // `from_str_radix`'s for any other non-digit. `from_str_radix`
            // itself would also take a leading `+`.
            let hex = std::str::from_utf8(digits).map_err(|e| Error(e.to_string()))?;
            if !digits.iter().all(u8::is_ascii_hexdigit) {
                return Err(Error("invalid digit found in string".into()));
            }
            Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
        }
    }

    // -- deserializer: Value -> T ------------------------------------------

    /// Convert a [`Value`] into any `DeserializeOwned`.
    pub fn from_value<T: DeserializeOwned>(v: Value) -> Result<T, Error> {
        T::deserialize(ValueDe(v))
    }

    struct ValueDe(Value);

    use serde::de::{self, IntoDeserializer, Visitor};

    impl<'de> IntoDeserializer<'de, Error> for ValueDe {
        type Deserializer = ValueDe;
        fn into_deserializer(self) -> ValueDe {
            self
        }
    }

    impl<'de> de::Deserializer<'de> for ValueDe {
        type Error = Error;

        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            match self.0 {
                Value::Null => visitor.visit_unit(),
                Value::Bool(b) => visitor.visit_bool(b),
                Value::Num(x) => {
                    if x.fract() == 0.0 && x >= 0.0 && x <= u64::MAX as f64 {
                        visitor.visit_u64(x as u64)
                    } else if x.fract() == 0.0 && x < 0.0 && x >= i64::MIN as f64 {
                        visitor.visit_i64(x as i64)
                    } else {
                        visitor.visit_f64(x)
                    }
                }
                Value::Str(s) => visitor.visit_string(s),
                Value::Arr(items) => {
                    visitor.visit_seq(de::value::SeqDeserializer::new(items.into_iter().map(ValueDe)))
                }
                Value::Obj(map) => visitor.visit_map(de::value::MapDeserializer::new(
                    map.into_iter().map(|(k, v)| (k, ValueDe(v))),
                )),
            }
        }

        fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            match self.0 {
                Value::Num(x) => visitor.visit_f64(x),
                other => Err(Error(format!("expected number, got {other:?}"))),
            }
        }

        fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            match self.0 {
                Value::Null => visitor.visit_none(),
                v => visitor.visit_some(ValueDe(v)),
            }
        }

        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, Error> {
            match self.0 {
                Value::Str(s) => visitor.visit_enum(s.into_deserializer()),
                Value::Obj(map) if map.len() == 1 => {
                    let (variant, inner) = map.into_iter().next().expect("len 1");
                    visitor.visit_enum(EnumDe { variant, inner })
                }
                other => Err(Error(format!("cannot deserialize enum from {other:?}"))),
            }
        }

        fn deserialize_newtype_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, Error> {
            visitor.visit_newtype_struct(self)
        }

        serde::forward_to_deserialize_any! {
            bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 char str string
            bytes byte_buf unit unit_struct seq tuple
            tuple_struct map struct identifier ignored_any
        }
    }

    struct EnumDe {
        variant: String,
        inner: Value,
    }

    impl<'de> de::EnumAccess<'de> for EnumDe {
        type Error = Error;
        type Variant = VariantDe;
        fn variant_seed<V: de::DeserializeSeed<'de>>(
            self,
            seed: V,
        ) -> Result<(V::Value, VariantDe), Error> {
            let v = seed.deserialize(self.variant.into_deserializer())?;
            Ok((v, VariantDe { inner: self.inner }))
        }
    }

    struct VariantDe {
        inner: Value,
    }

    impl<'de> de::VariantAccess<'de> for VariantDe {
        type Error = Error;
        fn unit_variant(self) -> Result<(), Error> {
            match self.inner {
                Value::Null => Ok(()),
                other => Err(Error(format!("expected unit variant, got {other:?}"))),
            }
        }
        fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
            self,
            seed: T,
        ) -> Result<T::Value, Error> {
            seed.deserialize(ValueDe(self.inner))
        }
        fn tuple_variant<V: Visitor<'de>>(
            self,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, Error> {
            match self.inner {
                Value::Arr(items) => {
                    visitor.visit_seq(de::value::SeqDeserializer::new(items.into_iter().map(ValueDe)))
                }
                other => Err(Error(format!("expected tuple variant, got {other:?}"))),
            }
        }
        fn struct_variant<V: Visitor<'de>>(
            self,
            _fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, Error> {
            match self.inner {
                Value::Obj(map) => visitor.visit_map(de::value::MapDeserializer::new(
                    map.into_iter().map(|(k, v)| (k, ValueDe(v))),
                )),
                other => Err(Error(format!("expected struct variant, got {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::section2_example;
    use crate::mapping::{Interval, Mapping};

    #[test]
    fn instance_roundtrip() {
        let (apps, platform) = section2_example();
        let mapping = Mapping::new()
            .with(Interval::new(0, 0, 2), 0, 0)
            .with(Interval::new(1, 0, 3), 2, 0);
        let inst = Instance::new("section 2 example", apps, platform)
            .with_thresholds(Thresholds::uniform_period(2.0, 2).with_energy(50.0))
            .with_mapping("energy-minimal", mapping);
        let json = inst.to_json().expect("serializes");
        let back = Instance::from_json(&json).expect("parses");
        assert_eq!(inst, back);
    }

    #[test]
    fn json_values_parse_and_print() {
        use super::json_value::{parse, Value};
        let v = parse(r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        match &v {
            Value::Obj(m) => {
                assert_eq!(m.len(), 4);
                assert_eq!(m["c"], Value::Null);
                assert_eq!(m["d"], Value::Bool(true));
                assert_eq!(m["b"], Value::Str("x\ny".into()));
            }
            _ => panic!("expected object"),
        }
        // Round-trip through pretty printing.
        let text = v.pretty(0);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn bad_json_rejected() {
        assert!(Instance::from_json("not json").is_err());
        assert!(Instance::from_json("{}").is_err());
        use super::json_value::parse;
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("[1] trailing").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        use super::json_value::{parse, MAX_DEPTH};
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128 levels"), "{err}");
        // Far past the cap: rejected, not a stack overflow.
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_refused() {
        use super::json_value::{parse, Value};
        // Python's `json.dumps` escapes every non-BMP character this way.
        assert_eq!(parse(r#""emoji \ud83d\ude00""#).unwrap(), Value::Str("emoji 😀".into()));
        assert_eq!(parse(r#""\uD800\uDC00""#).unwrap(), Value::Str("\u{10000}".into()));
        assert_eq!(parse(r#""\uDBFF\uDFFF""#).unwrap(), Value::Str("\u{10FFFF}".into()));
        for lone in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u+e00""#,
        ] {
            assert_eq!(parse(lone).unwrap_err().to_string(), "invalid \\u escape", "{lone}");
        }
        // A whole request whose description Python escaped.
        use crate::spec::{Objective, ProblemSpec, SolveRequest, Strategy};
        let (apps, platform) = section2_example();
        let problem =
            ProblemSpec::new(Objective::Period, Strategy::Interval, crate::CommModel::Overlap);
        let line = SolveRequest::new("DESCRIPTION", apps, platform, problem)
            .to_json_compact()
            .unwrap()
            .replace("DESCRIPTION", r"emoji \ud83d\ude00");
        assert_eq!(SolveRequest::from_json(&line).unwrap().description, "emoji 😀");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        use super::json_value::{parse, Value};
        assert_eq!(parse(r#""\u0041\u00e9\u00E9""#).unwrap(), Value::Str("Aéé".into()));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04g1""#, r#""\u004""#] {
            let err = parse(bad).unwrap_err().to_string();
            assert_eq!(err, "invalid digit found in string", "{bad}");
        }
        assert_eq!(parse(r#""\u004"#).unwrap_err().to_string(), "truncated \\u escape");
    }

    #[test]
    fn version_mismatch_rejected() {
        let (apps, platform) = section2_example();
        let mut inst = Instance::new("v-test", apps, platform);
        inst.version = 99;
        let json = inst.to_json().unwrap();
        match Instance::from_json(&json) {
            Err(InstanceError::Version { found: 99 }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn embedded_invalid_mapping_rejected() {
        let (apps, platform) = section2_example();
        let broken = Mapping::new().with(Interval::new(0, 0, 2), 0, 0); // app 1 unmapped
        let inst = Instance::new("bad", apps, platform).with_mapping("broken", broken);
        let json = inst.to_json().unwrap();
        assert!(matches!(
            Instance::from_json(&json),
            Err(InstanceError::InvalidMapping { .. })
        ));
    }

    #[test]
    fn unicode_and_escapes_survive() {
        use super::json_value::{parse, Value};
        let v = Value::Str("héllo \"wörld\" \t ∆".into());
        let text = v.pretty(0);
        assert_eq!(parse(&text).unwrap(), v);
        let v = parse(r#""Aé""#).unwrap();
        assert_eq!(v, Value::Str("Aé".into()));
    }
}
