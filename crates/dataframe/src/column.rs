//! A single named column of dynamically-typed values.

use crate::error::{FrameError, Result};
use netgraph::AttrValue;

/// Removes the elements at `rows` (strictly ascending, in range) from
/// `values` in one pass that starts at the first of them and keeps the
/// survivors in order. A frame's columns and any vector kept row for row
/// beside them are compacted by this one function, so they stay aligned.
pub fn remove_sorted<T>(values: &mut Vec<T>, rows: &[usize]) {
    let Some(&first) = rows.first() else {
        return;
    };
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
    let mut dead = rows.iter().copied().peekable();
    let mut kept = first;
    for row in first..values.len() {
        if dead.next_if_eq(&row).is_none() {
            values.swap(kept, row);
            kept += 1;
        }
    }
    debug_assert!(dead.next().is_none(), "a row to remove is out of range");
    values.truncate(kept);
}

/// The inferred type of a column, used for display and validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// All values null.
    Null,
    /// Booleans (possibly with nulls).
    Bool,
    /// Integers (possibly with nulls).
    Int,
    /// Floats or a mix of ints and floats (possibly with nulls).
    Float,
    /// Strings (possibly with nulls).
    Str,
    /// Lists or mixed incompatible types.
    Object,
}

/// A column: an ordered sequence of [`AttrValue`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Column {
    values: Vec<AttrValue>,
}

impl Column {
    /// Creates an empty column.
    pub fn new() -> Self {
        Column { values: Vec::new() }
    }

    /// Creates a column from any iterable of values convertible to
    /// [`AttrValue`].
    pub fn from_values<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<AttrValue>,
    {
        Column {
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at `index`.
    pub fn get(&self, index: usize) -> Result<&AttrValue> {
        self.values.get(index).ok_or(FrameError::RowOutOfBounds {
            index,
            len: self.values.len(),
        })
    }

    /// Appends a value.
    pub fn push(&mut self, value: AttrValue) {
        self.values.push(value);
    }

    /// Overwrites the value at `index`. Panics if out of range (callers check
    /// bounds via the owning frame).
    pub(crate) fn set(&mut self, index: usize, value: AttrValue) {
        self.values[index] = value;
    }

    /// Removes the values at `rows`, which ascend strictly and lie in range
    /// (callers check through the owning frame); see [`remove_sorted`].
    pub(crate) fn remove_sorted(&mut self, rows: &[usize]) {
        remove_sorted(&mut self.values, rows);
    }

    /// Iterator over the values.
    pub fn iter(&self) -> impl Iterator<Item = &AttrValue> {
        self.values.iter()
    }

    /// All values as a slice.
    pub fn values(&self) -> &[AttrValue] {
        &self.values
    }

    /// Infers the column dtype from its values.
    pub fn dtype(&self) -> DType {
        let mut dtype = DType::Null;
        for v in &self.values {
            let this = match v {
                AttrValue::Null => continue,
                AttrValue::Bool(_) => DType::Bool,
                AttrValue::Int(_) => DType::Int,
                AttrValue::Float(_) => DType::Float,
                AttrValue::Str(_) => DType::Str,
                AttrValue::List(_) => DType::Object,
            };
            dtype = match (dtype, this) {
                (DType::Null, t) => t,
                (a, b) if a == b => a,
                (DType::Int, DType::Float) | (DType::Float, DType::Int) => DType::Float,
                _ => DType::Object,
            };
        }
        dtype
    }

    /// Numeric view of the column; nulls and non-numeric values become `None`.
    pub fn as_f64(&self) -> Vec<Option<f64>> {
        self.values.iter().map(AttrValue::as_f64).collect()
    }

    /// Sum of numeric values (nulls skipped). Errors when no value is numeric
    /// and the column is non-empty, which matches pandas raising on
    /// `sum()` over object columns.
    pub fn sum(&self) -> Result<f64> {
        self.numeric_reduce("sum", |vals| vals.iter().sum())
    }

    /// Mean of numeric values (nulls skipped).
    pub fn mean(&self) -> Result<f64> {
        self.numeric_reduce("mean", |vals| vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Minimum numeric value.
    pub fn min(&self) -> Result<f64> {
        self.numeric_reduce("min", |vals| {
            vals.iter().cloned().fold(f64::INFINITY, f64::min)
        })
    }

    /// Maximum numeric value.
    pub fn max(&self) -> Result<f64> {
        self.numeric_reduce("max", |vals| {
            vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// Number of non-null values.
    pub fn count(&self) -> usize {
        self.values.iter().filter(|v| !v.is_null()).count()
    }

    /// Number of distinct non-null values.
    ///
    /// Dedupes through a hash set over the same canonical
    /// `"<type>:<display>"` key the historical sort-and-dedup used — one
    /// O(n) pass instead of O(n log n) with full-vector sorting (and the
    /// O(n²) `Vec::contains` scan before that).
    pub fn nunique(&self) -> usize {
        self.values
            .iter()
            .filter(|v| !v.is_null())
            .map(|v| format!("{}:{v}", v.type_name()))
            .collect::<std::collections::HashSet<String>>()
            .len()
    }

    fn numeric_reduce<F: Fn(&[f64]) -> f64>(&self, op: &str, f: F) -> Result<f64> {
        let vals: Vec<f64> = self.values.iter().filter_map(AttrValue::as_f64).collect();
        if vals.is_empty() {
            if self.values.iter().all(|v| v.is_null()) && !self.values.is_empty() {
                return Ok(0.0);
            }
            if self.values.is_empty() {
                return Ok(0.0);
            }
            return Err(FrameError::InvalidOperation(format!(
                "cannot compute {op} of a non-numeric column"
            )));
        }
        Ok(f(&vals))
    }
}

impl FromIterator<AttrValue> for Column {
    fn from_iter<T: IntoIterator<Item = AttrValue>>(iter: T) -> Self {
        Column {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_inference() {
        assert_eq!(Column::from_values([1i64, 2, 3]).dtype(), DType::Int);
        assert_eq!(Column::from_values([1.0, 2.5]).dtype(), DType::Float);
        assert_eq!(
            Column::from_iter(vec![AttrValue::Int(1), AttrValue::Float(2.0)]).dtype(),
            DType::Float
        );
        assert_eq!(Column::from_values(["a", "b"]).dtype(), DType::Str);
        assert_eq!(
            Column::from_iter(vec![AttrValue::Int(1), AttrValue::Str("a".into())]).dtype(),
            DType::Object
        );
        assert_eq!(Column::new().dtype(), DType::Null);
    }

    #[test]
    fn aggregations() {
        let c = Column::from_values([10i64, 20, 30]);
        assert_eq!(c.sum().unwrap(), 60.0);
        assert_eq!(c.mean().unwrap(), 20.0);
        assert_eq!(c.min().unwrap(), 10.0);
        assert_eq!(c.max().unwrap(), 30.0);
        assert_eq!(c.count(), 3);
    }

    #[test]
    fn aggregation_skips_nulls() {
        let c = Column::from_iter(vec![AttrValue::Int(4), AttrValue::Null, AttrValue::Int(6)]);
        assert_eq!(c.sum().unwrap(), 10.0);
        assert_eq!(c.mean().unwrap(), 5.0);
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn sum_of_string_column_errors() {
        let c = Column::from_values(["a", "b"]);
        assert!(c.sum().is_err());
    }

    #[test]
    fn nunique_ignores_nulls_and_type_collisions() {
        let c = Column::from_iter(vec![
            AttrValue::Int(1),
            AttrValue::Int(1),
            AttrValue::Str("1".into()),
            AttrValue::Null,
        ]);
        assert_eq!(c.nunique(), 2);
    }

    #[test]
    fn get_out_of_bounds() {
        let c = Column::from_values([1i64]);
        assert!(c.get(0).is_ok());
        assert!(matches!(c.get(5), Err(FrameError::RowOutOfBounds { .. })));
    }
}
