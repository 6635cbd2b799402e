//! Hashable equality for [`AttrValue`] keys: the one definition shared by
//! the dataframe's key operations (group-by, unique, join) and the SQL
//! executor's hash joins and `GROUP BY`.

use netgraph::AttrValue;
use std::sync::Arc;

/// An exactly-hashable stand-in for an [`AttrValue`] used as a join or
/// grouping key. Within this domain, key equality coincides *exactly* with
/// both `==` and [`AttrValue::approx_eq`]:
///
/// * `Null`, `Bool` and `Str` compare exactly in every scheme;
/// * numeric values map to their integer value, but only when integral and
///   `|v| < 10^9` — beyond that, `approx_eq`'s relative tolerance of
///   `1e-9 * |v|` reaches 1.0 and *distinct* integers start comparing
///   equal, which a hash key cannot express.
///
/// Values outside the domain (non-integral floats, `NaN`, huge integers,
/// lists) get no key ([`value_key`] returns `None`). Under `==` such a value
/// never equals one inside the domain, so an `==` caller may hash the keyed
/// values and scan only the rest. Under `approx_eq` it can
/// (`1.0000000001 ≈ 1`), so an `approx_eq` caller must fall back to the
/// comparison scan for the whole input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKey {
    /// `Null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integral number below `10^9` in magnitude, `Int` or `Float`.
    Int(i64),
    /// A string (shares the value's allocation).
    Str(Arc<str>),
}

/// The hash key of `v`, or `None` when `v` is outside [`ValueKey`]'s domain.
pub fn value_key(v: &AttrValue) -> Option<ValueKey> {
    const MAX_EXACT: i64 = 1_000_000_000;
    match v {
        AttrValue::Null => Some(ValueKey::Null),
        AttrValue::Bool(b) => Some(ValueKey::Bool(*b)),
        AttrValue::Int(_) | AttrValue::Float(_) => match v.as_i64() {
            // Range check rather than `abs()`: `i64::MIN.abs()` overflows.
            Some(i) if -MAX_EXACT < i && i < MAX_EXACT => Some(ValueKey::Int(i)),
            _ => None,
        },
        AttrValue::Str(s) => Some(ValueKey::Str(Arc::clone(s))),
        AttrValue::List(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_agree_with_equality_inside_the_domain() {
        let one = value_key(&AttrValue::Int(1)).unwrap();
        assert_eq!(value_key(&AttrValue::Float(1.0)), Some(one));
        assert_eq!(
            value_key(&AttrValue::Float(-0.0)),
            value_key(&AttrValue::Int(0))
        );
        assert_ne!(
            value_key(&AttrValue::Int(1)),
            value_key(&AttrValue::Str("1".into()))
        );
    }

    #[test]
    fn values_outside_the_domain_have_no_key() {
        for v in [
            AttrValue::Float(1.5),
            AttrValue::Float(f64::NAN),
            AttrValue::Float(f64::INFINITY),
            AttrValue::Int(2_000_000_000),
            AttrValue::Int(i64::MIN),
            AttrValue::List(vec![AttrValue::Int(1)]),
        ] {
            assert_eq!(value_key(&v), None, "{v:?}");
        }
    }
}
