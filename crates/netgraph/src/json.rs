//! Minimal JSON support: a value type with its serializer and parser, and a
//! node-link graph encoding.
//!
//! The strawman baseline from the paper pastes the entire communication
//! graph, encoded as JSON, into the LLM prompt. Token counting for the cost
//! analysis (Figure 4) therefore depends on exactly how the graph serializes,
//! so the encoder lives here rather than behind an external dependency.
//!
//! **Encoding** goes through one writer, [`JsonWriter`]: a growable buffer
//! that knows whether it is inside a string literal, and writes every byte
//! once, already escaped for where it lands. [`write_graph_json`] writes
//! the node-link document straight into it, building no [`JsonValue`] tree
//! on the way, and [`JsonValue::to_json`] writes through the same number
//! and string routines, so both write the same bytes. A document embeds a
//! CSV table (`dataframe::csv::write_csv`) as a string literal by writing
//! it between [`JsonWriter::begin_string`] and [`JsonWriter::end_string`];
//! a document nested in another is written in place, as an object.
//!
//! **Decoding.** [`JsonValue::parse`] walks the input's bytes and copies
//! each string out in whole runs; [`JsonError::position`] still counts
//! characters. [`graph_from_json`] consumes its tree and frees each node and
//! link once it is in the graph.

use crate::attr::AttrMap;
use crate::graph::Graph;
use crate::value::AttrValue;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number that f64 holds exactly: every integer up to 2^53 in
    /// magnitude, and every literal with a fraction or an exponent that is
    /// not an [`JsonValue::IntegralFloat`]. Written by
    /// [`JsonWriter::number`], it always parses back as a `Number`.
    Number(f64),
    /// A literal with a fraction or an exponent whose value is an integer
    /// within ±2^53 (`5.0`, `-0.0`, `1e3`): spelled as a float, so read as
    /// one where numeric type matters ([`JsonWriter::typed_float`] writes
    /// it). [`JsonValue::parse`] makes one only there.
    IntegralFloat(f64),
    /// An integer literal beyond 2^53 in magnitude, which f64 would round.
    /// [`JsonValue::parse`] makes one only there, so every other consumer
    /// of numbers still sees `Number`.
    Int(i64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with deterministically ordered keys.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = JsonWriter::new();
        out.value(self);
        out.finish()
    }

    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text: input,
            pos: 0,
        };
        let parsed = p.document();
        // The parser counts bytes; the error reports characters. A byte
        // offset inside a multi-byte character counts that character.
        parsed.map_err(|mut e| {
            e.position = input.as_bytes()[..e.position]
                .iter()
                .filter(|&&b| !is_continuation(b))
                .count();
            e
        })
    }

    /// Converts JSON into an [`AttrValue`], consuming it; objects become
    /// lists of `[key, value]` pairs since attribute values have no map
    /// variant.
    fn into_attr(self) -> AttrValue {
        match self {
            JsonValue::Null => AttrValue::Null,
            JsonValue::Bool(b) => AttrValue::Bool(b),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT as f64 {
                    AttrValue::Int(n as i64)
                } else {
                    AttrValue::Float(n)
                }
            }
            JsonValue::IntegralFloat(f) => AttrValue::Float(f),
            JsonValue::Int(i) => AttrValue::Int(i),
            JsonValue::String(s) => AttrValue::Str(s.into()),
            JsonValue::Array(items) => {
                AttrValue::List(items.into_iter().map(JsonValue::into_attr).collect())
            }
            JsonValue::Object(map) => AttrValue::List(
                map.into_iter()
                    .map(|(k, v)| AttrValue::List(vec![AttrValue::Str(k.into()), v.into_attr()]))
                    .collect(),
            ),
        }
    }
}

/// The largest magnitude up to which f64 holds every integer: 2^53.
const MAX_EXACT_INT: u64 = 1 << 53;

/// 2^63: an integral float below it in magnitude has a shortest form that
/// reads back as an `i64`.
const I64_BOUND: f64 = 9_223_372_036_854_775_808.0;

impl From<i64> for JsonValue {
    /// The variant [`JsonValue::parse`] gives the integer's literal:
    /// `Number` where f64 holds it exactly, `Int` beyond.
    fn from(i: i64) -> Self {
        if i.unsigned_abs() <= MAX_EXACT_INT {
            JsonValue::Number(i as f64)
        } else {
            JsonValue::Int(i)
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Error raised when parsing malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Character offset where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    fn new(position: usize, message: &str) -> Self {
        JsonError {
            position,
            message: message.to_string(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// True for a UTF-8 continuation byte (`10xxxxxx`).
fn is_continuation(byte: u8) -> bool {
    byte & 0xc0 == 0x80
}

/// A byte-walking parser. Every structural character is ASCII, so each
/// position it slices `text` at is a char boundary; error positions are
/// byte offsets until [`JsonValue::parse`] converts them.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn document(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(JsonError::new(
                self.pos,
                "trailing characters after JSON value",
            ));
        }
        Ok(v)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(JsonError::new(
                self.pos,
                &format!("expected '{}'", c as char),
            ))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(JsonError::new(self.pos, "unexpected character")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        for expected in kw.bytes() {
            if self.bump() != Some(expected) {
                return Err(JsonError::new(
                    self.pos,
                    &format!("invalid literal, expected '{kw}'"),
                ));
            }
        }
        Ok(value)
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        let float_shaped = matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        // An integer literal that f64 would round keeps its exact value.
        if !float_shaped {
            let exact = self.text[start..self.pos].parse::<i64>();
            if let Ok(int @ JsonValue::Int(_)) = exact.map(JsonValue::from) {
                return Ok(int);
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let n = self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| JsonError::new(start, "invalid number"))?;
        Ok(
            if float_shaped && n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT as f64 {
                JsonValue::IntegralFloat(n)
            } else {
                JsonValue::Number(n)
            },
        )
    }

    /// Parses a string literal, copying the text between escapes as whole
    /// slices.
    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        let mut run = self.pos;
        loop {
            match self.bump() {
                Some(b'"') => {
                    s.push_str(&self.text[run..self.pos - 1]);
                    return Ok(s);
                }
                Some(b'\\') => {
                    s.push_str(&self.text[run..self.pos - 1]);
                    match self.bump() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let digit = self
                                    .bump()
                                    .and_then(|c| (c as char).to_digit(16))
                                    .ok_or_else(|| {
                                        JsonError::new(self.pos, "invalid \\u escape")
                                    })?;
                                code = code * 16 + digit;
                            }
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(JsonError::new(self.pos, "invalid escape sequence")),
                    }
                    run = self.pos;
                }
                Some(_) => {}
                None => return Err(JsonError::new(self.pos, "unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(JsonError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(map)),
                _ => return Err(JsonError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

/// The one JSON writer: a growable buffer that knows whether it is writing
/// inside a string literal.
///
/// At the top level text is written as is. Between
/// [`JsonWriter::begin_string`] and [`JsonWriter::end_string`] everything
/// written lands inside one string literal, and each byte is written once,
/// already escaped, so a document embeds a CSV table as a string literal
/// without writing the table first or re-scanning it. Escapes split the
/// text only at ASCII bytes, so every slice pushed is whole UTF-8.
///
/// No document nests a literal inside a literal, so there is one escaping
/// level: opening a literal (or writing one with [`JsonWriter::string`])
/// inside another is a bug, caught by a debug assertion.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    in_string: bool,
}

impl JsonWriter {
    /// An empty writer at the top level.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// An empty writer at the top level whose buffer holds `capacity`
    /// bytes before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(capacity),
            in_string: false,
        }
    }

    /// An empty writer at the top level whose buffer starts with
    /// `reserved` NUL bytes that are not part of the document, with room
    /// for `capacity` more bytes before it grows. A caller that frames the
    /// document (a store's length-and-checksum header) writes the header
    /// over them instead of copying the document behind one.
    pub fn reserving(reserved: usize, capacity: usize) -> Self {
        let mut out = String::with_capacity(reserved + capacity);
        out.extend(std::iter::repeat('\0').take(reserved));
        JsonWriter {
            out,
            in_string: false,
        }
    }

    /// The text written so far. Every literal opened must be closed.
    pub fn finish(self) -> String {
        debug_assert!(!self.in_string, "a string literal was left open");
        self.out
    }

    /// Writes `text` as it reads where the writer is: as is at the top
    /// level, escaped inside a literal.
    #[inline]
    pub fn text(&mut self, text: &str) {
        if self.in_string {
            self.escaped(text);
        } else {
            self.out.push_str(text);
        }
    }

    /// Writes `text` escaped for the inside of a string literal, in whole
    /// runs between the bytes that need an escape: a backslash before `"`
    /// and `\`, and control bytes spelled `\n`, `\r`, `\t` or `\u00xx`.
    #[inline]
    fn escaped(&mut self, text: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut run = 0;
        for (i, &byte) in text.as_bytes().iter().enumerate() {
            if byte < 0x20 || byte == b'"' || byte == b'\\' {
                self.out.push_str(&text[run..i]);
                match byte {
                    b'"' => self.out.push_str("\\\""),
                    b'\\' => self.out.push_str("\\\\"),
                    b'\n' => self.out.push_str("\\n"),
                    b'\r' => self.out.push_str("\\r"),
                    b'\t' => self.out.push_str("\\t"),
                    _ => {
                        self.out.push_str("\\u00");
                        self.out.push(char::from(HEX[usize::from(byte >> 4)]));
                        self.out.push(char::from(HEX[usize::from(byte & 0xf)]));
                    }
                }
                run = i + 1;
            }
        }
        self.out.push_str(&text[run..]);
    }

    /// Opens a string literal: writes its quote, and escapes everything
    /// written until [`JsonWriter::end_string`].
    pub fn begin_string(&mut self) {
        debug_assert!(!self.in_string, "a string literal inside a literal");
        self.out.push('"');
        self.in_string = true;
    }

    /// Closes the literal [`JsonWriter::begin_string`] opened.
    pub fn end_string(&mut self) {
        debug_assert!(self.in_string, "no string literal is open");
        self.in_string = false;
        self.out.push('"');
    }

    /// Writes `s` as a JSON string literal.
    #[inline]
    pub fn string(&mut self, s: &str) {
        debug_assert!(!self.in_string, "a string literal inside a literal");
        self.out.push('"');
        self.escaped(s);
        self.out.push('"');
    }

    /// Writes an integer's decimal digits. Digits and `-` need no escape,
    /// inside a literal or out.
    pub fn int(&mut self, value: i64) {
        if value < 0 {
            self.out.push('-');
        }
        self.uint(value.unsigned_abs());
    }

    /// Writes an unsigned integer's decimal digits.
    pub fn uint(&mut self, mut value: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        for &digit in &digits[start..] {
            self.out.push(char::from(digit));
        }
    }

    /// Writes a float in Rust's shortest round-trip form, which never uses
    /// an exponent (`1e17` is `100000000000000000`) and spells the
    /// non-finite values `inf`, `-inf` and `NaN`; callers add any suffix.
    /// [`JsonWriter::number`] is the JSON number.
    pub fn float(&mut self, value: f64) {
        write!(self.out, "{value}").expect("writing to a String cannot fail");
    }

    /// Writes a float so that it reads back as a float: its shortest
    /// round-trip form, plus `.0` when that form is an integer below 2^63
    /// in magnitude (`5.0`, `-0.0`). [`JsonValue::parse`] reads such a
    /// literal back as an [`JsonValue::IntegralFloat`] up to 2^53 and as a
    /// non-integer-typed `Number` beyond, and the CSV reader as a float.
    /// Non-finite values are spelled as [`JsonWriter::float`] spells them.
    pub fn typed_float(&mut self, value: f64) {
        self.float(value);
        if value.fract() == 0.0 && value.abs() < I64_BOUND {
            self.out.push_str(".0");
        }
    }

    /// Writes a JSON number: an integral value below 10^15 in magnitude as
    /// an integer, anything else in its shortest round-trip form. An
    /// integral value beyond 2^53 that i64 holds gets a trailing `.0`: bare
    /// digits there would read back as an exact [`JsonValue::Int`], not as
    /// the float written. JSON has no spelling for a non-finite value, so
    /// none may be given.
    pub fn number(&mut self, n: f64) {
        debug_assert!(n.is_finite(), "JSON has no spelling for {n}");
        if n.fract() == 0.0 && n.abs() < 1e15 {
            self.int(n as i64);
        } else {
            self.float(n);
            if n.abs() > MAX_EXACT_INT as f64 && n as i64 as f64 == n {
                self.out.push_str(".0");
            }
        }
    }

    /// Writes a [`JsonValue`], object keys in their sorted order.
    fn value(&mut self, value: &JsonValue) {
        match value {
            JsonValue::Null => self.out.push_str("null"),
            JsonValue::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => self.number(*n),
            JsonValue::IntegralFloat(f) => self.typed_float(*f),
            JsonValue::Int(i) => self.int(*i),
            JsonValue::String(s) => self.string(s),
            JsonValue::Array(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.value(item);
                }
                self.out.push(']');
            }
            JsonValue::Object(map) => {
                self.out.push('{');
                for (i, (key, item)) in map.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.string(key);
                    self.out.push(':');
                    self.value(item);
                }
                self.out.push('}');
            }
        }
    }

    /// Writes an attribute value as JSON. An integer is written exactly,
    /// digit for digit (the bytes [`JsonWriter::number`] gives it wherever
    /// f64 holds it); a float as a JSON number, or with `typed_floats` as a
    /// [`JsonWriter::typed_float`], which reads back as a float.
    fn attr(&mut self, value: &AttrValue, typed_floats: bool) {
        match value {
            AttrValue::Null => self.out.push_str("null"),
            AttrValue::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            AttrValue::Int(i) => self.int(*i),
            AttrValue::Float(f) if typed_floats => self.typed_float(*f),
            AttrValue::Float(f) => self.number(*f),
            AttrValue::Str(s) => self.string(s),
            AttrValue::List(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.attr(item, typed_floats);
                }
                self.out.push(']');
            }
        }
    }
}

/// Writes `attrs` plus the string fields `named` as one object with sorted
/// keys, floats as [`JsonWriter::attr`] writes them. `named` must be sorted
/// by key; a named field replaces an attribute of the same name.
fn write_attr_object(
    attrs: &AttrMap,
    named: &[(&str, &str)],
    typed_floats: bool,
    out: &mut JsonWriter,
) {
    fn field(first: &mut bool, key: &str, out: &mut JsonWriter) {
        if !std::mem::take(first) {
            out.out.push(',');
        }
        out.string(key);
        out.out.push(':');
    }
    out.out.push('{');
    let mut first = true;
    let mut rest = named;
    for (key, value) in attrs {
        let mut shadowed = false;
        while let Some(((name, text), tail)) = rest.split_first() {
            match (*name).cmp(key.as_str()) {
                Ordering::Greater => break,
                Ordering::Equal => shadowed = true,
                Ordering::Less => {}
            }
            field(&mut first, name, out);
            out.string(text);
            rest = tail;
        }
        if !shadowed {
            field(&mut first, key, out);
            out.attr(value, typed_floats);
        }
    }
    for (name, text) in rest {
        field(&mut first, name, out);
        out.string(text);
    }
    out.out.push('}');
}

/// Writes a graph in node-link form, keys sorted in every object:
/// `{"directed": bool, "links": [{...attrs, "source": ..., "target": ...}],
/// "nodes": [{...attrs, "id": ...}]}`.
///
/// This is the JSON shape fed to the strawman prompt and counted by the cost
/// model, where a float attribute is a JSON number, so an integral one reads
/// back as an integer. With `typed_floats` every float is a
/// [`JsonWriter::typed_float`], so that [`graph_from_json`] gives back
/// `Float(5.0)` and `Float(-0.0)`, not integers: the graph part of a
/// serving snapshot.
pub fn write_graph_json(g: &Graph, typed_floats: bool, out: &mut JsonWriter) {
    out.text(if g.is_directed() {
        "{\"directed\":true,\"links\":["
    } else {
        "{\"directed\":false,\"links\":["
    });
    for (i, (u, v, attrs)) in g.edges().enumerate() {
        if i > 0 {
            out.out.push(',');
        }
        write_attr_object(attrs, &[("source", u), ("target", v)], typed_floats, out);
    }
    out.text("],\"nodes\":[");
    for (i, (id, attrs)) in g.nodes().enumerate() {
        if i > 0 {
            out.out.push(',');
        }
        write_attr_object(attrs, &[("id", id)], typed_floats, out);
    }
    out.text("]}");
}

/// [`write_graph_json`] into a new string, floats as JSON numbers.
pub fn graph_to_json(g: &Graph) -> String {
    let mut out = JsonWriter::new();
    write_graph_json(g, false, &mut out);
    out.finish()
}

/// Decodes a node-link JSON document written by [`write_graph_json`],
/// consuming the tree: each node and link is freed once it is in the graph.
pub fn graph_from_json(value: JsonValue) -> Result<Graph, JsonError> {
    let JsonValue::Object(mut obj) = value else {
        return Err(JsonError::new(0, "expected top-level object"));
    };
    let directed = matches!(obj.get("directed"), Some(JsonValue::Bool(true)));
    let mut g = if directed {
        Graph::directed()
    } else {
        Graph::undirected()
    };
    // A non-string id or endpoint is kept as its JSON text.
    let name = |value: JsonValue| match value {
        JsonValue::String(s) => s,
        other => other.to_json(),
    };
    if let Some(JsonValue::Array(nodes)) = obj.remove("nodes") {
        for n in nodes {
            if let JsonValue::Object(mut m) = n {
                let id = name(
                    m.remove("id")
                        .ok_or_else(|| JsonError::new(0, "node missing 'id'"))?,
                );
                let attrs: AttrMap = m.into_iter().map(|(k, v)| (k, v.into_attr())).collect();
                g.add_node(&id, attrs);
            }
        }
    }
    if let Some(JsonValue::Array(links)) = obj.remove("links") {
        for l in links {
            if let JsonValue::Object(mut m) = l {
                let mut endpoint = |key: &str| {
                    m.remove(key)
                        .map(name)
                        .ok_or_else(|| JsonError::new(0, &format!("link missing '{key}'")))
                };
                let source = endpoint("source")?;
                let target = endpoint("target")?;
                let attrs: AttrMap = m.into_iter().map(|(k, v)| (k, v.into_attr())).collect();
                g.add_edge(&source, &target, attrs);
            }
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attrs;
    use crate::graph::graphs_approx_eq;

    #[test]
    fn serialize_basic_values() {
        assert_eq!(JsonValue::Null.to_json(), "null");
        assert_eq!(JsonValue::Bool(true).to_json(), "true");
        assert_eq!(JsonValue::Number(42.0).to_json(), "42");
        assert_eq!(JsonValue::Number(4.25).to_json(), "4.25");
        assert_eq!(JsonValue::String("a\"b".into()).to_json(), "\"a\\\"b\"");
        // Every escape, a control byte, and multi-byte text around them —
        // in keys as well as values.
        let tricky = "é\"\\\n\r\t\u{1}x\u{7f}€";
        let want = "\"é\\\"\\\\\\n\\r\\t\\u0001x\u{7f}€\"";
        assert_eq!(JsonValue::String(tricky.into()).to_json(), want);
        let object = JsonValue::Object(BTreeMap::from([(tricky.to_string(), JsonValue::Null)]));
        assert_eq!(object.to_json(), format!("{{{want}:null}}"));
        assert_eq!(JsonValue::Number(-3.0).to_json(), "-3");
        assert_eq!(JsonValue::Number(1e20).to_json(), "100000000000000000000");
        assert_eq!(object.to_string(), object.to_json());
    }

    /// `s` as a string literal, embedded `depth` times as the text of an
    /// enclosing literal: how a `nemo-shard/v1` document held its snapshot,
    /// and so the snapshot's CSV tables, two literals deep.
    fn nested(depth: usize, s: &str) -> String {
        let mut literal = JsonValue::String(s.into()).to_json();
        for _ in 0..depth {
            literal = JsonValue::String(literal).to_json();
        }
        literal
    }

    /// The text of `literal` once each of its `depth + 1` levels is parsed.
    fn unnested(depth: usize, literal: &str) -> String {
        let mut text = literal.to_string();
        for _ in 0..=depth {
            let Ok(JsonValue::String(inner)) = JsonValue::parse(&text) else {
                panic!("{text} is not a string literal");
            };
            text = inner;
        }
        text
    }

    #[test]
    fn escaped_writers_nest() {
        // Written by hand: at depth 1 the literal is the body of the
        // literal that spells its text, at depth 2 the body of that one's.
        assert_eq!(nested(0, "a\"b"), r#""a\"b""#);
        assert_eq!(nested(1, "a\"b"), r#""\"a\\\"b\"""#);
        assert_eq!(nested(2, "a\"b"), r#""\"\\\"a\\\\\\\"b\\\"\"""#);
        // Text written inside a literal is escaped once, text around it
        // not at all.
        let mut out = JsonWriter::new();
        out.text("{\"k\":");
        out.begin_string();
        out.text(r#"{"k":"\n"}"#);
        out.end_string();
        out.text("}");
        assert_eq!(out.finish(), r#"{"k":"{\"k\":\"\\n\"}"}"#);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a string literal inside a literal")]
    fn a_literal_inside_a_literal_is_refused() {
        let mut out = JsonWriter::new();
        out.begin_string();
        out.string("x");
    }

    #[test]
    fn every_escape_class_is_pinned_at_depths_0_1_2() {
        let pins = [
            (
                "\"",
                [r#""\"""#, r#""\"\\\"\"""#, r#""\"\\\"\\\\\\\"\\\"\"""#],
            ),
            (
                "\\",
                [r#""\\""#, r#""\"\\\\\"""#, r#""\"\\\"\\\\\\\\\\\"\"""#],
            ),
            ("\n", [r#""\n""#, r#""\"\\n\"""#, r#""\"\\\"\\\\n\\\"\"""#]),
            ("\r", [r#""\r""#, r#""\"\\r\"""#, r#""\"\\\"\\\\r\\\"\"""#]),
            ("\t", [r#""\t""#, r#""\"\\t\"""#, r#""\"\\\"\\\\t\\\"\"""#]),
            (
                "\u{1}",
                [
                    r#""\u0001""#,
                    r#""\"\\u0001\"""#,
                    r#""\"\\\"\\\\u0001\\\"\"""#,
                ],
            ),
            (
                "\u{1f}",
                [
                    r#""\u001f""#,
                    r#""\"\\u001f\"""#,
                    r#""\"\\\"\\\\u001f\\\"\"""#,
                ],
            ),
            (
                "é€日本",
                [r#""é€日本""#, r#""\"é€日本\"""#, r#""\"\\\"é€日本\\\"\"""#],
            ),
            ("", [r#""""#, r#""\"\"""#, r#""\"\\\"\\\"\"""#]),
            (
                "15.76",
                [r#""15.76""#, r#""\"15.76\"""#, r#""\"\\\"15.76\\\"\"""#],
            ),
        ];
        for (text, want) in pins {
            // The writer's one level: a literal's text written inside a
            // literal.
            let mut out = JsonWriter::new();
            out.begin_string();
            out.text(&nested(0, text));
            out.end_string();
            assert_eq!(out.finish(), want[1], "{text:?} written at depth 1");
            for (depth, want) in want.into_iter().enumerate() {
                assert_eq!(nested(depth, text), want, "{text:?} at depth {depth}");
                assert_eq!(
                    unnested(depth, want),
                    text,
                    "{want} read from depth {depth}"
                );
            }
        }
    }

    #[test]
    fn numbers_are_written_from_their_digits() {
        let mut out = JsonWriter::new();
        for i in [0, 7, -7, 1 << 53, i64::MAX, i64::MIN] {
            out.int(i);
            out.text(" ");
        }
        out.uint(u64::MAX);
        out.text(" ");
        for f in [
            2.5,
            -0.0,
            3.0,
            1e15,
            1e17,
            -(2f64.powi(60)),
            1e20,
            0.1,
            -1e-7,
        ] {
            out.number(f);
            out.text(" ");
        }
        assert_eq!(
            out.finish(),
            "0 7 -7 9007199254740992 9223372036854775807 -9223372036854775808 \
             18446744073709551615 \
             2.5 0 3 1000000000000000 100000000000000000.0 -1152921504606847000.0 \
             100000000000000000000 0.1 -0.0000001 "
        );
    }

    #[test]
    fn graph_writer_sorts_keys_and_named_fields_win() {
        let mut g = Graph::directed();
        g.add_node("n", attrs([("a", 1i64), ("id", 7i64), ("z", 0i64)]));
        g.set_node_attr("n", "z", AttrValue::Float(2.5)).unwrap();
        g.add_edge("n", "m", attrs([("bytes", 1i64), ("source", 9i64)]));
        g.set_edge_attr("n", "m", "tag", AttrValue::Null).unwrap();
        g.set_edge_attr(
            "n",
            "m",
            "z",
            AttrValue::List(vec![AttrValue::Int(1), AttrValue::from("é")]),
        )
        .unwrap();
        assert_eq!(
            graph_to_json(&g),
            r#"{"directed":true,"links":[{"bytes":1,"source":"n","tag":null,"target":"m","z":[1,"é"]}],"nodes":[{"id":"m"},{"a":1,"id":"n","z":2.5}]}"#
        );
    }

    #[test]
    fn error_positions_count_characters_not_bytes() {
        let pins = [
            ("[\"é€\", x]", 7),
            ("{\"ключ\": tru}", 13),
            ("\"日本語\\q\"", 6),
            ("[\"€\" \"x\"]", 6),
            ("é", 0),
            ("[1,2]é", 5),
            // Offsets inside a multi-byte character count that character.
            ("\"\\u12é4\"", 6),
            ("{\"a\"é1}", 5),
            ("\"ab€", 4),
            ("{\"ü\":1 é}", 8),
        ];
        for (input, position) in pins {
            assert_eq!(
                JsonValue::parse(input).unwrap_err().position,
                position,
                "{input}"
            );
        }
    }

    #[test]
    fn parse_round_trip() {
        let text = r#"{"a": [1, 2.5, "x"], "b": {"nested": true}, "c": null}"#;
        let v = JsonValue::parse(text).unwrap();
        let reparsed = JsonValue::parse(&v.to_json()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn parse_errors_have_positions() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1, 2,]").is_err());
        assert!(JsonValue::parse("tru").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_string_escapes() {
        let v = JsonValue::parse(r#""line\nbreak A""#).unwrap();
        assert_eq!(v, JsonValue::String("line\nbreak A".into()));
    }

    #[test]
    fn attr_conversion_round_trip() {
        let attr = AttrValue::List(vec![
            AttrValue::Int(3),
            AttrValue::from("x"),
            AttrValue::Null,
        ]);
        let mut text = JsonWriter::new();
        text.attr(&attr, false);
        assert_eq!(JsonValue::parse(&text.finish()).unwrap().into_attr(), attr);
    }

    #[test]
    fn integers_round_trip_exactly_as_integers() {
        for i in [
            0,
            -7,
            9e15 as i64,
            1 << 53,
            (1 << 53) + 1,
            i64::MAX,
            i64::MIN,
        ] {
            let mut out = JsonWriter::new();
            out.attr(&AttrValue::Int(i), false);
            let text = out.finish();
            assert_eq!(text, i.to_string());
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back, JsonValue::from(i));
            assert_eq!(back.to_json(), text);
            assert!(
                matches!(back.into_attr(), AttrValue::Int(j) if j == i),
                "{i}"
            );
        }
        // Literals with a fraction or an exponent, and integers beyond
        // i64, stay floating point.
        assert_eq!(JsonValue::parse("2.5").unwrap(), JsonValue::Number(2.5));
        assert_eq!(JsonValue::parse("1e300").unwrap(), JsonValue::Number(1e300));
        assert_eq!(
            JsonValue::parse("18446744073709551616").unwrap(),
            JsonValue::Number(18446744073709551616.0)
        );
        // An integral float beyond 2^53 that i64 holds is written with a
        // trailing `.0`, so it reads back as the float it was, not as an
        // `Int`. Beyond i64, bare digits already parse as a `Number`.
        assert_eq!(JsonValue::Number(1e17).to_json(), "100000000000000000.0");
        assert_eq!(JsonValue::Number(1e20).to_json(), "100000000000000000000");
        for f in [
            1e17,
            -(2f64.powi(60)),
            -(2f64.powi(63)),
            1e20,
            (1u64 << 53) as f64 + 2.0,
        ] {
            let text = JsonValue::Number(f).to_json();
            assert_eq!(
                JsonValue::parse(&text).unwrap(),
                JsonValue::Number(f),
                "{text}"
            );
            let mut out = JsonWriter::new();
            out.attr(&AttrValue::Float(f), false);
            let text = out.finish();
            assert!(
                matches!(JsonValue::parse(&text).unwrap().into_attr(), AttrValue::Float(g) if g == f),
                "{text}"
            );
        }
    }

    #[test]
    fn typed_floats_read_back_as_floats() {
        for f in [
            5.0,
            -0.0,
            0.0,
            2.5,
            1e15,
            2.5e15,
            (1u64 << 53) as f64,
            1e17,
            -(2f64.powi(60)),
            1e20,
        ] {
            let mut out = JsonWriter::new();
            out.attr(&AttrValue::Float(f), true);
            let text = out.finish();
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back.to_json(), text, "{f}");
            assert!(
                matches!(back.into_attr(), AttrValue::Float(g) if g.to_bits() == f.to_bits()),
                "{f} as {text}"
            );
        }
        assert_eq!(
            JsonValue::parse("5.0").unwrap(),
            JsonValue::IntegralFloat(5.0)
        );
        assert_eq!(
            JsonValue::parse("1e3").unwrap(),
            JsonValue::IntegralFloat(1000.0)
        );
        assert_eq!(JsonValue::IntegralFloat(-0.0).to_json(), "-0.0");
        // The untyped writer keeps writing JSON numbers, which read back as
        // integers: the prompt's bytes do not move.
        let mut g = Graph::undirected();
        g.add_node(
            "a",
            [
                ("w".to_string(), AttrValue::Float(5.0)),
                ("z".to_string(), AttrValue::Float(-0.0)),
                ("n".to_string(), AttrValue::Int(5)),
            ]
            .into_iter()
            .collect(),
        );
        assert_eq!(
            graph_to_json(&g),
            r#"{"directed":false,"links":[],"nodes":[{"id":"a","n":5,"w":5,"z":0}]}"#
        );
        let mut typed = JsonWriter::new();
        write_graph_json(&g, true, &mut typed);
        let text = typed.finish();
        assert_eq!(
            text,
            r#"{"directed":false,"links":[],"nodes":[{"id":"a","n":5,"w":5.0,"z":-0.0}]}"#
        );
        let back = graph_from_json(JsonValue::parse(&text).unwrap()).unwrap();
        let attrs = back.node_attrs("a").unwrap();
        assert!(matches!(attrs.get("w"), Some(AttrValue::Float(f)) if *f == 5.0));
        assert!(
            matches!(attrs.get("z"), Some(AttrValue::Float(f)) if f.to_bits() == (-0.0f64).to_bits())
        );
        assert!(matches!(attrs.get("n"), Some(AttrValue::Int(5))));
    }

    #[test]
    fn graph_json_round_trip() {
        let mut g = Graph::directed();
        g.add_node("10.0.1.1", attrs([("role", "host")]));
        g.add_edge(
            "10.0.1.1",
            "10.0.2.1",
            attrs([("bytes", 1200i64), ("packets", 8i64)]),
        );
        let text = graph_to_json(&g);
        let parsed = JsonValue::parse(&text).unwrap();
        let back = graph_from_json(parsed).unwrap();
        assert!(graphs_approx_eq(&g, &back));
    }

    #[test]
    fn graph_json_contains_node_link_keys() {
        let mut g = Graph::undirected();
        g.add_edge("a", "b", AttrMap::new());
        let text = graph_to_json(&g);
        assert!(text.contains("\"nodes\""));
        assert!(text.contains("\"links\""));
        assert!(text.contains("\"source\":\"a\""));
    }

    #[test]
    fn graph_from_json_rejects_non_object() {
        assert!(graph_from_json(JsonValue::Array(vec![])).is_err());
    }
}
