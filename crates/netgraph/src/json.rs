//! Minimal JSON support: a value type, serializer, parser, and a node-link
//! graph encoding.
//!
//! The strawman baseline from the paper pastes the entire communication
//! graph, encoded as JSON, into the LLM prompt. Token counting for the cost
//! analysis (Figure 4) therefore depends on exactly how the graph serializes,
//! so the encoder lives here rather than behind an external dependency.

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
    /// Any JSON number (stored as f64; integers round-trip exactly up to 2^53).
    Number(f64),
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
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Written straight into `out`: snapshot documents carry tens of
            // thousands of numbers, and a `format!` each would allocate.
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::String(s) => write_str(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            chars: input.chars().collect(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(JsonError::new(
                p.pos,
                "trailing characters after JSON value",
            ));
        }
        Ok(v)
    }

    /// Converts an [`AttrValue`] into JSON.
    pub fn from_attr(value: &AttrValue) -> JsonValue {
        match value {
            AttrValue::Null => JsonValue::Null,
            AttrValue::Bool(b) => JsonValue::Bool(*b),
            AttrValue::Int(i) => JsonValue::Number(*i as f64),
            AttrValue::Float(f) => JsonValue::Number(*f),
            AttrValue::Str(s) => JsonValue::String(s.to_string()),
            AttrValue::List(items) => {
                JsonValue::Array(items.iter().map(JsonValue::from_attr).collect())
            }
        }
    }

    /// Converts JSON into an [`AttrValue`]; objects become lists of
    /// `[key, value]` pairs since attribute values have no map variant.
    pub fn to_attr(&self) -> AttrValue {
        match self {
            JsonValue::Null => AttrValue::Null,
            JsonValue::Bool(b) => AttrValue::Bool(*b),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 9e15 {
                    AttrValue::Int(*n as i64)
                } else {
                    AttrValue::Float(*n)
                }
            }
            JsonValue::String(s) => AttrValue::Str(s.as_str().into()),
            JsonValue::Array(items) => {
                AttrValue::List(items.iter().map(JsonValue::to_attr).collect())
            }
            JsonValue::Object(map) => AttrValue::List(
                map.iter()
                    .map(|(k, v)| {
                        AttrValue::List(vec![AttrValue::Str(k.as_str().into()), v.to_attr()])
                    })
                    .collect(),
            ),
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json())
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

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), JsonError> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(JsonError::new(self.pos, &format!("expected '{c}'")))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.parse_object(),
            Some('[') => self.parse_array(),
            Some('"') => Ok(JsonValue::String(self.parse_string()?)),
            Some('t') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some('f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some('n') => self.parse_keyword("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(JsonError::new(self.pos, "unexpected character")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        for expected in kw.chars() {
            if self.bump() != Some(expected) {
                return Err(JsonError::new(
                    self.pos,
                    &format!("invalid literal, expected '{kw}'"),
                ));
            }
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some('.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some('+' | '-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError::new(start, "invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| JsonError::new(self.pos, "invalid \\u escape"))?;
                            code = code * 16 + c;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(JsonError::new(self.pos, "invalid escape sequence")),
                },
                Some(c) => s.push(c),
                None => return Err(JsonError::new(self.pos, "unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(JsonValue::Array(items)),
                _ => return Err(JsonError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(JsonValue::Object(map)),
                _ => return Err(JsonError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

fn attrs_to_object(attrs: &AttrMap) -> JsonValue {
    JsonValue::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::from_attr(v)))
            .collect(),
    )
}

/// Encodes a graph in node-link form:
/// `{"directed": bool, "nodes": [{"id": ..., ...attrs}], "links": [{"source": ..., "target": ..., ...attrs}]}`.
///
/// This is the JSON shape fed to the strawman prompt and counted by the cost
/// model.
pub fn graph_to_json(g: &Graph) -> JsonValue {
    let nodes: Vec<JsonValue> = g
        .nodes()
        .map(|(id, attrs)| {
            let mut obj = match attrs_to_object(attrs) {
                JsonValue::Object(m) => m,
                _ => unreachable!(),
            };
            obj.insert("id".to_string(), JsonValue::String(id.to_string()));
            JsonValue::Object(obj)
        })
        .collect();
    let links: Vec<JsonValue> = g
        .edges()
        .map(|(u, v, attrs)| {
            let mut obj = match attrs_to_object(attrs) {
                JsonValue::Object(m) => m,
                _ => unreachable!(),
            };
            obj.insert("source".to_string(), JsonValue::String(u.to_string()));
            obj.insert("target".to_string(), JsonValue::String(v.to_string()));
            JsonValue::Object(obj)
        })
        .collect();
    let mut top = BTreeMap::new();
    top.insert("directed".to_string(), JsonValue::Bool(g.is_directed()));
    top.insert("nodes".to_string(), JsonValue::Array(nodes));
    top.insert("links".to_string(), JsonValue::Array(links));
    JsonValue::Object(top)
}

/// Decodes a node-link JSON document produced by [`graph_to_json`].
pub fn graph_from_json(value: &JsonValue) -> Result<Graph, JsonError> {
    let obj = match value {
        JsonValue::Object(m) => m,
        _ => return Err(JsonError::new(0, "expected top-level object")),
    };
    let directed = matches!(obj.get("directed"), Some(JsonValue::Bool(true)));
    let mut g = if directed {
        Graph::directed()
    } else {
        Graph::undirected()
    };
    if let Some(JsonValue::Array(nodes)) = obj.get("nodes") {
        for n in nodes {
            if let JsonValue::Object(m) = n {
                let id = match m.get("id") {
                    Some(JsonValue::String(s)) => s.clone(),
                    Some(other) => other.to_json(),
                    None => return Err(JsonError::new(0, "node missing 'id'")),
                };
                let attrs: AttrMap = m
                    .iter()
                    .filter(|(k, _)| k.as_str() != "id")
                    .map(|(k, v)| (k.clone(), v.to_attr()))
                    .collect();
                g.add_node(&id, attrs);
            }
        }
    }
    if let Some(JsonValue::Array(links)) = obj.get("links") {
        for l in links {
            if let JsonValue::Object(m) = l {
                let get = |key: &str| -> Result<String, JsonError> {
                    match m.get(key) {
                        Some(JsonValue::String(s)) => Ok(s.clone()),
                        Some(other) => Ok(other.to_json()),
                        None => Err(JsonError::new(0, &format!("link missing '{key}'"))),
                    }
                };
                let source = get("source")?;
                let target = get("target")?;
                let attrs: AttrMap = m
                    .iter()
                    .filter(|(k, _)| k.as_str() != "source" && k.as_str() != "target")
                    .map(|(k, v)| (k.clone(), v.to_attr()))
                    .collect();
                g.add_edge(&source, &target, attrs);
            }
        }
    }
    Ok(g)
}

/// Writes `s` as a JSON string literal. Runs that need no escape are
/// copied as whole slices — snapshot documents embed multi-megabyte
/// strings — and every escape splits the text at an ASCII byte, so each
/// slice boundary is a char boundary.
fn write_str(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
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
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
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
        let json = JsonValue::from_attr(&attr);
        assert_eq!(json.to_attr(), attr);
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
        let json = graph_to_json(&g);
        let text = json.to_json();
        let parsed = JsonValue::parse(&text).unwrap();
        let back = graph_from_json(&parsed).unwrap();
        assert!(graphs_approx_eq(&g, &back));
    }

    #[test]
    fn graph_json_contains_node_link_keys() {
        let mut g = Graph::undirected();
        g.add_edge("a", "b", AttrMap::new());
        let text = graph_to_json(&g).to_json();
        assert!(text.contains("\"nodes\""));
        assert!(text.contains("\"links\""));
        assert!(text.contains("\"source\":\"a\""));
    }

    #[test]
    fn graph_from_json_rejects_non_object() {
        assert!(graph_from_json(&JsonValue::Array(vec![])).is_err());
    }
}
