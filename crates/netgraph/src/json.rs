//! Minimal JSON support: a value type with its serializer and parser, and a
//! node-link graph encoding.
//!
//! The strawman baseline from the paper pastes the entire communication
//! graph, encoded as JSON, into the LLM prompt. Token counting for the cost
//! analysis (Figure 4) therefore depends on exactly how the graph serializes,
//! so the encoder lives here rather than behind an external dependency.
//!
//! **Encoding streams.** [`write_graph_json`] writes the node-link document
//! straight into any [`fmt::Write`] sink, building no [`JsonValue`] tree on
//! the way. Numbers and strings go through [`write_number`] and
//! [`write_string`], the routines [`JsonValue::to_json`] uses, so both paths
//! write the same bytes. [`Escaped`] JSON-escapes everything written through
//! it: a document can embed another document, or a CSV table, as a string
//! literal without building the inner text first.
//!
//! **Decoding.** [`JsonValue::parse`] walks the input's bytes and copies
//! each string out in whole runs; [`JsonError::position`] still counts
//! characters. [`graph_from_json`] consumes its tree and frees each node and
//! link once it is in the graph.

use crate::attr::AttrMap;
use crate::graph::Graph;
use crate::value::AttrValue;
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
    /// magnitude, and every literal with a fraction or an exponent. Written
    /// by [`write_number`], it always parses back as a `Number`.
    Number(f64),
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
        let mut s = String::new();
        self.write(&mut s).expect("writing to a String cannot fail");
        s
    }

    fn write<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            JsonValue::Null => out.write_str("null"),
            JsonValue::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(*n, out),
            JsonValue::Int(i) => write!(out, "{i}"),
            JsonValue::String(s) => write_string(s, out),
            JsonValue::Array(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            JsonValue::Object(map) => {
                out.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_string(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
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
        self.write(f)
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
        // An integer literal that f64 would round keeps its exact value.
        if !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
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
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError::new(start, "invalid number"))
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

/// Writes a JSON number: an integral value below 10^15 in magnitude as an
/// integer, anything else in Rust's shortest round-trip form. An integral
/// value beyond 2^53 that i64 holds gets a trailing `.0`: bare digits there
/// would read back as an exact [`JsonValue::Int`], not as the float written.
pub fn write_number<W: fmt::Write + ?Sized>(n: f64, out: &mut W) -> fmt::Result {
    if n.fract() == 0.0 && n.is_finite() && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else if n.abs() > MAX_EXACT_INT as f64 && n as i64 as f64 == n {
        write!(out, "{n}.0")
    } else {
        write!(out, "{n}")
    }
}

/// Writes `s` as a JSON string literal.
pub fn write_string<W: fmt::Write + ?Sized>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    Escaped(&mut *out).write_str(s)?;
    out.write_char('"')
}

/// A [`fmt::Write`] adapter that JSON-escapes everything written through
/// it into the wrapped sink: the body of a string literal, without the
/// quotes. Runs that need no escape are forwarded as whole slices, and
/// every escape splits the text at an ASCII byte, so each slice boundary is
/// a char boundary.
pub struct Escaped<'a, W: fmt::Write + ?Sized>(pub &'a mut W);

impl<W: fmt::Write + ?Sized> fmt::Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let out = &mut *self.0;
        let mut run = 0;
        for (i, byte) in s.bytes().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.write_str(&s[run..i])?;
            if escape.is_empty() {
                write!(out, "\\u{byte:04x}")?;
            } else {
                out.write_str(escape)?;
            }
            run = i + 1;
        }
        out.write_str(&s[run..])
    }
}

/// Writes an attribute value as JSON. An integer is written exactly, digit
/// for digit (the bytes [`write_number`] gives it wherever f64 holds it).
fn write_attr<W: fmt::Write + ?Sized>(value: &AttrValue, out: &mut W) -> fmt::Result {
    match value {
        AttrValue::Null => out.write_str("null"),
        AttrValue::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        AttrValue::Int(i) => write!(out, "{i}"),
        AttrValue::Float(f) => write_number(*f, out),
        AttrValue::Str(s) => write_string(s, out),
        AttrValue::List(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_attr(item, out)?;
            }
            out.write_char(']')
        }
    }
}

/// Writes `attrs` plus the string fields `named` as one object with sorted
/// keys. `named` must be sorted by key; a named field replaces an attribute
/// of the same name.
fn write_attr_object<W: fmt::Write + ?Sized>(
    attrs: &AttrMap,
    named: &[(&str, &str)],
    out: &mut W,
) -> fmt::Result {
    fn field<W: fmt::Write + ?Sized>(sep: &mut &str, key: &str, out: &mut W) -> fmt::Result {
        out.write_str(sep)?;
        *sep = ",";
        write_string(key, out)?;
        out.write_char(':')
    }
    out.write_char('{')?;
    let mut sep = "";
    let mut rest = named;
    for (key, value) in attrs {
        while let Some(((name, text), tail)) = rest.split_first() {
            if *name > key.as_str() {
                break;
            }
            field(&mut sep, name, out)?;
            write_string(text, out)?;
            rest = tail;
        }
        if named.iter().all(|(name, _)| name != key) {
            field(&mut sep, key, out)?;
            write_attr(value, out)?;
        }
    }
    for (name, text) in rest {
        field(&mut sep, name, out)?;
        write_string(text, out)?;
    }
    out.write_char('}')
}

/// Writes a graph in node-link form, keys sorted in every object:
/// `{"directed": bool, "links": [{...attrs, "source": ..., "target": ...}],
/// "nodes": [{...attrs, "id": ...}]}`.
///
/// This is the JSON shape fed to the strawman prompt and counted by the cost
/// model, and the graph part of a serving snapshot.
pub fn write_graph_json<W: fmt::Write + ?Sized>(g: &Graph, out: &mut W) -> fmt::Result {
    out.write_str(if g.is_directed() {
        "{\"directed\":true,\"links\":["
    } else {
        "{\"directed\":false,\"links\":["
    })?;
    for (i, (u, v, attrs)) in g.edges().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_attr_object(attrs, &[("source", u), ("target", v)], out)?;
    }
    out.write_str("],\"nodes\":[")?;
    for (i, (id, attrs)) in g.nodes().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_attr_object(attrs, &[("id", id)], out)?;
    }
    out.write_str("]}")
}

/// [`write_graph_json`] into a new string.
pub fn graph_to_json(g: &Graph) -> String {
    let mut out = String::new();
    write_graph_json(g, &mut out).expect("writing to a String cannot fail");
    out
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

    #[test]
    fn escaped_writers_nest() {
        // A literal written through `Escaped` is the body of the literal
        // that encodes the inner literal's text.
        let mut inner = String::new();
        write_string("a\"b\n€", &mut inner).unwrap();
        let mut nested = String::new();
        write_string("a\"b\n€", &mut Escaped(&mut nested)).unwrap();
        assert_eq!(format!("\"{nested}\""), JsonValue::String(inner).to_json());
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
        let mut text = String::new();
        write_attr(&attr, &mut text).unwrap();
        assert_eq!(JsonValue::parse(&text).unwrap().into_attr(), attr);
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
            let mut text = String::new();
            write_attr(&AttrValue::Int(i), &mut text).unwrap();
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
            let mut text = String::new();
            write_attr(&AttrValue::Float(f), &mut text).unwrap();
            assert!(
                matches!(JsonValue::parse(&text).unwrap().into_attr(), AttrValue::Float(g) if g == f),
                "{text}"
            );
        }
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
