//! Runtime values for the GraphScript interpreter.
//!
//! Values are cheap to make and to copy, because the read path makes one
//! per string, cell and row it touches:
//!
//! * strings are `Arc<str>`, the type [`AttrValue::Str`] uses, so reading
//!   a string out of a frame or graph, or evaluating a string literal, is
//!   a refcount bump;
//! * dict keys are the same shared strings, and lookups borrow a `&str`;
//! * the rows that `to_rows()`, `edges_data()` and `nodes_data()` return
//!   read through to the substrate snapshot taken when the method was
//!   called, and become owned maps only on their first write (see
//!   [`Dict`]); `row(i)` hands out one owned row.

use crate::ast::Stmt;
use crate::dict::Dict;
use crate::error::{Result, ScriptError};
use dataframe::DataFrame;
use netgraph::{AttrMap, AttrValue, Graph};
use std::cell::{RefCell, RefMut};
use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A user-defined function (the body of a `fn` statement).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Function name (used in error messages).
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A dynamically-typed runtime value.
///
/// Lists and dictionaries have reference semantics (mutating a list obtained
/// from a variable mutates the original), matching the Python programs the
/// LLM-generated code imitates. A dict's shared cell may hold a
/// read-through row; its first write makes the row an owned map in that
/// same cell. Graphs and dataframes are also shared references so the
/// sandbox can observe mutations made by the program.
///
/// Inside that shared cell a graph or dataframe is an `Arc` that may be
/// shared with owners outside the interpreter (the live network, another
/// value made by `copy()`). Reads go straight to it; the first write
/// through a cell (`graph_mut`, `frame_mut`) copies the substrate if
/// anyone else holds it. A read-only program therefore never copies, and
/// aliases made by assignment (`H = G`) keep sharing one cell, so a write
/// through either name is seen by both.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null` / `None`
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Shared immutable string.
    Str(Arc<str>),
    /// Mutable list.
    List(Rc<RefCell<Vec<Value>>>),
    /// Mutable dictionary with string keys, iterated in sorted order.
    Dict(Rc<RefCell<Dict>>),
    /// A property graph (the `G` global of the NetworkX backend).
    Graph(Rc<RefCell<Arc<Graph>>>),
    /// A dataframe (the `nodes` / `edges` globals of the pandas backend).
    Frame(Rc<RefCell<Arc<DataFrame>>>),
    /// A user-defined function.
    Function(Rc<FunctionDef>),
}

impl Value {
    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(RefCell::new(items)))
    }

    /// Builds a dictionary value from its entries.
    pub fn dict<K: Into<Arc<str>>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::from_dict(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Wraps dict contents (an owned map or a read-through row).
    pub(crate) fn from_dict(dict: Dict) -> Value {
        Value::Dict(Rc::new(RefCell::new(dict)))
    }

    /// Wraps a graph. Pass an `Arc` to share it copy-on-write.
    pub fn graph(g: impl Into<Arc<Graph>>) -> Value {
        Value::Graph(Rc::new(RefCell::new(g.into())))
    }

    /// Wraps a dataframe. Pass an `Arc` to share it copy-on-write.
    pub fn frame(df: impl Into<Arc<DataFrame>>) -> Value {
        Value::Frame(Rc::new(RefCell::new(df.into())))
    }

    /// A short lowercase type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Dict(_) => "dict",
            Value::Graph(_) => "graph",
            Value::Frame(_) => "dataframe",
            Value::Function(_) => "function",
        }
    }

    /// Python-style truthiness.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.borrow().is_empty(),
            Value::Dict(d) => !d.borrow().is_empty(),
            Value::Graph(_) | Value::Frame(_) | Value::Function(_) => true,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view (floats with no fractional part coerce).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            Value::Bool(b) => Some(if *b { 1 } else { 0 }),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Requires an integer, erroring with `context` otherwise.
    pub fn expect_i64(&self, context: &str) -> Result<i64> {
        self.as_i64().ok_or_else(|| {
            ScriptError::TypeError(format!(
                "{context} expects an integer, got {}",
                self.type_name()
            ))
        })
    }

    /// Requires a number, erroring with `context` otherwise.
    pub fn expect_f64(&self, context: &str) -> Result<f64> {
        self.as_f64().ok_or_else(|| {
            ScriptError::TypeError(format!(
                "{context} expects a number, got {}",
                self.type_name()
            ))
        })
    }

    /// Requires a string, erroring with `context` otherwise.
    pub fn expect_str(&self, context: &str) -> Result<&str> {
        self.as_str().ok_or_else(|| {
            ScriptError::TypeError(format!(
                "{context} expects a string, got {}",
                self.type_name()
            ))
        })
    }

    /// The string used when this value is a dictionary key: a string
    /// shares its allocation, a number or bool becomes its display form.
    pub fn as_key(&self) -> Result<Arc<str>> {
        match self {
            Value::Str(s) => Ok(Arc::clone(s)),
            Value::Int(i) => Ok(i.to_string().into()),
            Value::Bool(b) => Ok(b.to_string().into()),
            Value::Float(f) => Ok(f.to_string().into()),
            other => Err(ScriptError::TypeError(format!(
                "{} cannot be used as a dictionary key",
                other.type_name()
            ))),
        }
    }

    /// Deep conversion to an [`AttrValue`] (the attribute type shared by the
    /// graph, frame and SQL substrates). Dictionaries, graphs, frames and
    /// functions cannot be stored as attributes.
    pub fn to_attr(&self) -> Result<AttrValue> {
        Ok(match self {
            Value::Null => AttrValue::Null,
            Value::Bool(b) => AttrValue::Bool(*b),
            Value::Int(i) => AttrValue::Int(*i),
            Value::Float(f) => AttrValue::Float(*f),
            Value::Str(s) => AttrValue::Str(Arc::clone(s)),
            Value::List(items) => AttrValue::List(
                items
                    .borrow()
                    .iter()
                    .map(Value::to_attr)
                    .collect::<Result<Vec<_>>>()?,
            ),
            other => {
                return Err(ScriptError::TypeError(format!(
                    "a {} cannot be stored as an attribute value",
                    other.type_name()
                )))
            }
        })
    }

    /// Conversion from an [`AttrValue`].
    pub fn from_attr(attr: &AttrValue) -> Value {
        match attr {
            AttrValue::Null => Value::Null,
            AttrValue::Bool(b) => Value::Bool(*b),
            AttrValue::Int(i) => Value::Int(*i),
            AttrValue::Float(f) => Value::Float(*f),
            AttrValue::Str(s) => Value::Str(Arc::clone(s)),
            AttrValue::List(items) => Value::list(items.iter().map(Value::from_attr).collect()),
        }
    }

    /// Converts a dictionary value into an attribute map (for
    /// `G.add_node(id, {...})`-style calls).
    pub fn to_attr_map(&self) -> Result<AttrMap> {
        match self {
            Value::Dict(map) => {
                let mut out = AttrMap::new();
                for (k, v) in map.borrow().entries() {
                    out.insert(k.to_string(), v.to_attr()?);
                }
                Ok(out)
            }
            Value::Null => Ok(AttrMap::new()),
            other => Err(ScriptError::TypeError(format!(
                "expected a dict of attributes, got {}",
                other.type_name()
            ))),
        }
    }

    /// Converts an attribute map into a dictionary value.
    pub fn from_attr_map(map: &AttrMap) -> Value {
        Value::dict(map.iter().map(|(k, v)| (k.as_str(), Value::from_attr(v))))
    }

    /// Ordering used by comparisons and `sorted()`. Numbers compare
    /// numerically, strings lexicographically, lists element-wise; values of
    /// incomparable types return `None`.
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::List(a), Value::List(b)) => {
                let a = a.borrow();
                let b = b.borrow();
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.partial_cmp_value(y) {
                        Some(Ordering::Equal) => continue,
                        other => return other,
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Deep equality with numeric coercion and float tolerance; the
    /// comparison the evaluator uses when matching program output against
    /// the golden answer.
    pub fn approx_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::List(a), Value::List(b)) => {
                let a = a.borrow();
                let b = b.borrow();
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.approx_eq(y))
            }
            (Value::Dict(a), Value::Dict(b)) => {
                let a = a.borrow();
                let b = b.borrow();
                a.len() == b.len()
                    && a.entries()
                        .iter()
                        .all(|(k, v)| b.get(k).is_some_and(|o| v.approx_eq(&o)))
            }
            (Value::Graph(a), Value::Graph(b)) => {
                netgraph::graphs_approx_eq(&a.borrow(), &b.borrow())
            }
            (Value::Frame(a), Value::Frame(b)) => a.borrow().approx_eq(&b.borrow()),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => {
                    let diff = (a - b).abs();
                    diff <= 1e-9 || diff <= 1e-9 * a.abs().max(b.abs())
                }
                _ => false,
            },
        }
    }
}

/// Write access to a graph value's graph, copying it first when an owner
/// outside the cell shares it.
pub(crate) fn graph_mut(g: &RefCell<Arc<Graph>>) -> RefMut<'_, Graph> {
    RefMut::map(g.borrow_mut(), Arc::make_mut)
}

/// Write access to a dataframe value's frame, copying it first when an
/// owner outside the cell shares it.
pub(crate) fn frame_mut(df: &RefCell<Arc<DataFrame>>) -> RefMut<'_, DataFrame> {
    RefMut::map(df.borrow_mut(), Arc::make_mut)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Dict(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.borrow().entries().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Graph(g) => {
                let g = g.borrow();
                write!(
                    f,
                    "<graph {} nodes, {} edges>",
                    g.number_of_nodes(),
                    g.number_of_edges()
                )
            }
            Value::Frame(df) => {
                let df = df.borrow();
                write!(f, "<dataframe {} rows x {} cols>", df.n_rows(), df.n_cols())
            }
            Value::Function(func) => write!(f, "<fn {}>", func.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn truthiness_and_type_names() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Str("".into()).is_truthy());
        assert!(Value::Int(3).is_truthy());
        assert!(Value::list(vec![Value::Int(1)]).is_truthy());
        assert!(!Value::dict(Vec::<(&str, Value)>::new()).is_truthy());
        assert_eq!(Value::graph(Graph::directed()).type_name(), "graph");
    }

    #[test]
    fn attr_round_trip() {
        let v = Value::list(vec![Value::Int(1), Value::Str("x".into()), Value::Null]);
        let attr = v.to_attr().unwrap();
        let back = Value::from_attr(&attr);
        assert!(v.approx_eq(&back));
        assert!(Value::graph(Graph::directed()).to_attr().is_err());
    }

    #[test]
    fn attr_map_round_trip() {
        let mut map = BTreeMap::new();
        map.insert("bytes".to_string(), Value::Int(10));
        map.insert("color".to_string(), Value::Str("red".into()));
        let d = Value::dict(map);
        let am = d.to_attr_map().unwrap();
        assert_eq!(am.len(), 2);
        let back = Value::from_attr_map(&am);
        assert!(d.approx_eq(&back));
        assert!(Value::Int(3).to_attr_map().is_err());
        assert!(Value::Null.to_attr_map().unwrap().is_empty());
    }

    #[test]
    fn approx_eq_is_deep_and_tolerant() {
        assert!(Value::Int(5).approx_eq(&Value::Float(5.0)));
        let a = Value::list(vec![Value::Float(0.1 + 0.2)]);
        let b = Value::list(vec![Value::Float(0.3)]);
        assert!(a.approx_eq(&b));
        let mut d1 = BTreeMap::new();
        d1.insert("a".to_string(), Value::Int(1));
        let mut d2 = BTreeMap::new();
        d2.insert("a".to_string(), Value::Float(1.0));
        assert!(Value::dict(d1).approx_eq(&Value::dict(d2)));
        assert!(!Value::Str("1".into()).approx_eq(&Value::Int(1)));
    }

    #[test]
    fn list_reference_semantics() {
        let a = Value::list(vec![Value::Int(1)]);
        let b = a.clone();
        if let Value::List(items) = &a {
            items.borrow_mut().push(Value::Int(2));
        }
        if let Value::List(items) = &b {
            assert_eq!(items.borrow().len(), 2);
        }
    }

    #[test]
    fn ordering_and_keys() {
        assert_eq!(
            Value::Int(1).partial_cmp_value(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Str("a".into()).partial_cmp_value(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Str("a".into()).partial_cmp_value(&Value::Int(1)),
            None
        );
        assert_eq!(&*Value::Int(5).as_key().unwrap(), "5");
        assert!(Value::list(vec![]).as_key().is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(
            Value::list(vec![Value::Int(1), Value::Str("a".into())]).to_string(),
            "[1, a]"
        );
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(1));
        assert_eq!(Value::dict(m).to_string(), "{k: 1}");
        assert!(Value::graph(Graph::directed())
            .to_string()
            .contains("graph"));
    }
}
