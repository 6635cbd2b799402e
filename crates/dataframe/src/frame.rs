//! The [`DataFrame`] type: an ordered collection of equal-length columns.

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::key::{value_key, ValueKey};
use crate::ops::{AggFunc, CmpOp, GroupBy};
use netgraph::AttrValue;
use std::collections::HashSet;
use std::fmt;

/// A two-dimensional, column-oriented table of dynamically-typed values.
///
/// Column order is preserved (it matters for display and CSV export) and
/// all columns always have the same number of rows.
///
/// ```
/// use dataframe::{DataFrame, Column};
/// let df = DataFrame::from_columns(vec![
///     ("source".to_string(), Column::from_values(["10.0.1.1", "10.0.1.2"])),
///     ("bytes".to_string(), Column::from_values([1500i64, 800])),
/// ]).unwrap();
/// assert_eq!(df.n_rows(), 2);
/// assert_eq!(df.column("bytes").unwrap().sum().unwrap(), 2300.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Column>,
}

impl DataFrame {
    /// Creates an empty frame with no columns and no rows.
    pub fn new() -> Self {
        DataFrame::default()
    }

    /// Builds a frame from `(name, column)` pairs.
    ///
    /// Errors on duplicate names or mismatched column lengths.
    pub fn from_columns(cols: Vec<(String, Column)>) -> Result<Self> {
        let mut df = DataFrame::new();
        for (name, col) in cols {
            df.add_column(&name, col)?;
        }
        Ok(df)
    }

    /// Builds a frame from column names and a list of rows.
    ///
    /// Every row must have exactly one value per column.
    pub fn from_rows(names: &[&str], rows: Vec<Vec<AttrValue>>) -> Result<Self> {
        let mut columns: Vec<Column> = names.iter().map(|_| Column::new()).collect();
        for row in rows {
            if row.len() != names.len() {
                return Err(FrameError::LengthMismatch {
                    expected: names.len(),
                    actual: row.len(),
                });
            }
            for (i, v) in row.into_iter().enumerate() {
                columns[i].push(v);
            }
        }
        DataFrame::from_columns(names.iter().map(|n| n.to_string()).zip(columns).collect())
    }

    // -------------------------------------------------------------- shape

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map(Column::len).unwrap_or(0)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True when the frame has no rows (it may still have columns).
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }

    /// True if a column with this name exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    fn column_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| FrameError::ColumnNotFound(name.to_string()))
    }

    // ------------------------------------------------------------ columns

    /// Immutable access to a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// All columns in order, positionally aligned with
    /// [`DataFrame::column_names`]. This is the zero-copy entry point used
    /// by executors that resolve names to positions once and then walk rows
    /// without materializing them.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Mutable access to a column by name.
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        let idx = self.column_index(name)?;
        Ok(&mut self.columns[idx])
    }

    /// Appends a new column. Errors if the name already exists or the length
    /// differs from existing columns.
    pub fn add_column(&mut self, name: &str, column: Column) -> Result<()> {
        if self.has_column(name) {
            return Err(FrameError::DuplicateColumn(name.to_string()));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                actual: column.len(),
            });
        }
        self.names.push(name.to_string());
        self.columns.push(column);
        Ok(())
    }

    /// Inserts or replaces a column (pandas `df["x"] = ...` semantics).
    /// The length must still match when the frame already has rows.
    pub fn set_column(&mut self, name: &str, column: Column) -> Result<()> {
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                actual: column.len(),
            });
        }
        match self.column_index(name) {
            Ok(idx) => {
                self.columns[idx] = column;
                Ok(())
            }
            Err(_) => self.add_column(name, column),
        }
    }

    /// Removes a column and returns it.
    pub fn drop_column(&mut self, name: &str) -> Result<Column> {
        let idx = self.column_index(name)?;
        self.names.remove(idx);
        Ok(self.columns.remove(idx))
    }

    /// Renames a column. Errors if the source is missing or the destination
    /// already exists.
    pub fn rename_column(&mut self, from: &str, to: &str) -> Result<()> {
        if self.has_column(to) && from != to {
            return Err(FrameError::DuplicateColumn(to.to_string()));
        }
        let idx = self.column_index(from)?;
        self.names[idx] = to.to_string();
        Ok(())
    }

    /// Returns a new frame containing only the named columns, in the given
    /// order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for &name in names {
            out.add_column(name, self.column(name)?.clone())?;
        }
        Ok(out)
    }

    // --------------------------------------------------------------- rows

    /// Returns row `i` as a vector of values, one per column.
    pub fn row(&self, i: usize) -> Result<Vec<AttrValue>> {
        if i >= self.n_rows() {
            return Err(FrameError::RowOutOfBounds {
                index: i,
                len: self.n_rows(),
            });
        }
        Ok(self
            .columns
            .iter()
            .map(|c| c.get(i).expect("row bounds checked").clone())
            .collect())
    }

    /// The value at `(row, column)`.
    pub fn value(&self, row: usize, column: &str) -> Result<&AttrValue> {
        self.column(column)?.get(row)
    }

    /// Overwrites the value at `(row, column)`.
    pub fn set_value(&mut self, row: usize, column: &str, value: AttrValue) -> Result<()> {
        let n = self.n_rows();
        let col = self.column_mut(column)?;
        if row >= col.len() {
            return Err(FrameError::RowOutOfBounds { index: row, len: n });
        }
        col.set(row, value);
        Ok(())
    }

    /// Appends a row. The number of values must equal the number of columns.
    pub fn push_row(&mut self, row: Vec<AttrValue>) -> Result<()> {
        if row.len() != self.n_cols() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_cols(),
                actual: row.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        Ok(())
    }

    /// Removes the rows at `rows` in place, in one pass per column that
    /// starts at the first of them and keeps the survivors in order: the
    /// frame [`DataFrame::take`] of the other rows would build, without
    /// cloning a value. `rows` must ascend strictly and lie in range;
    /// otherwise nothing is removed. Removing `k` rows from `n` costs
    /// O(n - first row) however large `k` is, so a caller that batches its
    /// removals pays the shift of the later rows once, not once per row
    /// (the serving layer's tombstoned `RemoveEdge`).
    pub fn remove_rows(&mut self, rows: &[usize]) -> Result<()> {
        if let Some(&last) = rows.last().filter(|&&last| last >= self.n_rows()) {
            return Err(FrameError::RowOutOfBounds {
                index: last,
                len: self.n_rows(),
            });
        }
        if !rows.windows(2).all(|w| w[0] < w[1]) {
            return Err(FrameError::InvalidOperation(
                "rows to remove must ascend strictly".to_string(),
            ));
        }
        for col in &mut self.columns {
            col.remove_sorted(rows);
        }
        Ok(())
    }

    /// Returns a new frame containing the rows at `indices`, in that order.
    /// Out-of-range indices error.
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        for &i in indices {
            if i >= self.n_rows() {
                return Err(FrameError::RowOutOfBounds {
                    index: i,
                    len: self.n_rows(),
                });
            }
        }
        let mut out = DataFrame::new();
        for (name, col) in self.names.iter().zip(&self.columns) {
            let new_col: Column = indices
                .iter()
                .map(|&i| col.get(i).expect("bounds checked").clone())
                .collect();
            out.add_column(name, new_col)?;
        }
        Ok(out)
    }

    /// The first `n` rows (or all rows when the frame is shorter).
    pub fn head(&self, n: usize) -> DataFrame {
        let indices: Vec<usize> = (0..self.n_rows().min(n)).collect();
        self.take(&indices).expect("indices in range")
    }

    // ------------------------------------------------------------ queries

    /// Rows for which `pred(frame, row_index)` returns true.
    pub fn filter_rows<F: Fn(&DataFrame, usize) -> bool>(&self, pred: F) -> DataFrame {
        let indices: Vec<usize> = (0..self.n_rows()).filter(|&i| pred(self, i)).collect();
        self.take(&indices).expect("indices in range")
    }

    /// Rows where `column <op> value` holds (pandas boolean-mask filtering).
    pub fn filter_by(&self, column: &str, op: CmpOp, value: AttrValue) -> Result<DataFrame> {
        let col = self.column(column)?;
        let indices: Vec<usize> = col
            .iter()
            .enumerate()
            .filter(|(_, v)| op.eval(v, &value))
            .map(|(i, _)| i)
            .collect();
        self.take(&indices)
    }

    /// Sorts rows by the given columns. All keys share one `ascending` flag;
    /// ties are broken by original row order (stable sort).
    pub fn sort_values(&self, columns: &[&str], ascending: bool) -> Result<DataFrame> {
        let key_cols: Vec<&Column> = columns
            .iter()
            .map(|c| self.column(c))
            .collect::<Result<_>>()?;
        let mut indices: Vec<usize> = (0..self.n_rows()).collect();
        indices.sort_by(|&a, &b| {
            for col in &key_cols {
                let va = col.get(a).expect("in range");
                let vb = col.get(b).expect("in range");
                let ord = va
                    .partial_cmp_value(vb)
                    .unwrap_or(std::cmp::Ordering::Equal);
                let ord = if ascending { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.take(&indices)
    }

    /// Distinct values of a column, in first-occurrence order.
    pub fn unique(&self, column: &str) -> Result<Vec<AttrValue>> {
        let col = self.column(column)?;
        let mut seen: Vec<AttrValue> = Vec::new();
        // Hashable values dedupe through the set; the rest equal no
        // hashable value under `==` (see [`ValueKey`]) and scan `seen`.
        let mut keys: HashSet<ValueKey> = HashSet::new();
        for v in col.iter() {
            let fresh = match value_key(v) {
                Some(key) => keys.insert(key),
                None => !seen.iter().any(|s| s == v),
            };
            if fresh {
                seen.push(v.clone());
            }
        }
        Ok(seen)
    }

    /// Groups rows by the given key columns.
    pub fn groupby(&self, keys: &[&str]) -> Result<GroupBy<'_>> {
        GroupBy::new(self, keys)
    }

    /// Convenience: group by `key` and aggregate `value_column` with `func`,
    /// returning a two-column frame `key, <out_name>`.
    pub fn group_agg(
        &self,
        key: &str,
        value_column: &str,
        func: AggFunc,
        out_name: &str,
    ) -> Result<DataFrame> {
        self.groupby(&[key])?.agg(&[(value_column, func, out_name)])
    }

    // ---------------------------------------------------------- comparison

    /// True when both frames have the same columns (same order), same number
    /// of rows, and approximately equal values (numeric tolerance per
    /// [`AttrValue::approx_eq`]). This is the comparison the NeMoEval results
    /// evaluator uses for the pandas backend.
    pub fn approx_eq(&self, other: &DataFrame) -> bool {
        if self.names != other.names || self.n_rows() != other.n_rows() {
            return false;
        }
        self.columns
            .iter()
            .zip(&other.columns)
            .all(|(a, b)| a.iter().zip(b.iter()).all(|(x, y)| x.approx_eq(y)))
    }

    /// Like [`DataFrame::approx_eq`] but insensitive to row order: rows are
    /// compared as multisets. Useful when a query does not specify an
    /// ordering.
    pub fn approx_eq_unordered(&self, other: &DataFrame) -> bool {
        if self.names != other.names || self.n_rows() != other.n_rows() {
            return false;
        }
        let key = |df: &DataFrame, i: usize| -> String {
            df.row(i)
                .expect("in range")
                .iter()
                .map(|v| format!("{}:{v}", v.type_name()))
                .collect::<Vec<_>>()
                .join("\u{1f}")
        };
        let mut a: Vec<String> = (0..self.n_rows()).map(|i| key(self, i)).collect();
        let mut b: Vec<String> = (0..other.n_rows()).map(|i| key(other, i)).collect();
        a.sort();
        b.sort();
        a == b
    }
}

impl fmt::Display for DataFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths: Vec<usize> = self
            .names
            .iter()
            .zip(&self.columns)
            .map(|(name, col)| {
                col.iter()
                    .map(|v| v.to_string().len())
                    .chain(std::iter::once(name.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for (name, w) in self.names.iter().zip(&widths) {
            write!(f, "{name:>w$}  ", w = w)?;
        }
        writeln!(f)?;
        for i in 0..self.n_rows() {
            for (col, w) in self.columns.iter().zip(&widths) {
                write!(
                    f,
                    "{:>w$}  ",
                    col.get(i).expect("in range").to_string(),
                    w = w
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "node".to_string(),
                Column::from_values(["a", "b", "c", "d"]),
            ),
            (
                "bytes".to_string(),
                Column::from_values([100i64, 2500, 40, 2500]),
            ),
            (
                "prefix".to_string(),
                Column::from_values(["10.0", "10.0", "10.1", "10.1"]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let df = sample();
        assert_eq!(df.n_rows(), 4);
        assert_eq!(df.n_cols(), 3);
        assert_eq!(df.column_names(), vec!["node", "bytes", "prefix"]);
    }

    #[test]
    fn remove_rows_compacts_in_place() {
        let mut df = sample();
        df.remove_rows(&[]).unwrap();
        assert_eq!(df, sample());
        df.remove_rows(&[1, 3]).unwrap();
        // The survivors keep their order, matching `take` semantics.
        assert_eq!(df, sample().take(&[0, 2]).unwrap());
        for bad in [&[2][..], &[0, 0], &[1, 0]] {
            assert!(df.remove_rows(bad).is_err(), "{bad:?}");
        }
        assert_eq!(
            df,
            sample().take(&[0, 2]).unwrap(),
            "a refused batch removes nothing"
        );
        // Removing down to empty works.
        df.remove_rows(&[0, 1]).unwrap();
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.n_cols(), 3);
    }

    #[test]
    fn from_rows_round_trip() {
        let df = DataFrame::from_rows(
            &["a", "b"],
            vec![
                vec![AttrValue::Int(1), AttrValue::from("x")],
                vec![AttrValue::Int(2), AttrValue::from("y")],
            ],
        )
        .unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.value(1, "b").unwrap().as_str(), Some("y"));
        assert!(DataFrame::from_rows(&["a"], vec![vec![]]).is_err());
    }

    #[test]
    fn duplicate_and_mismatched_columns_rejected() {
        let mut df = sample();
        assert!(matches!(
            df.add_column("node", Column::from_values([1i64, 2, 3, 4])),
            Err(FrameError::DuplicateColumn(_))
        ));
        assert!(matches!(
            df.add_column("short", Column::from_values([1i64])),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn set_column_replaces_or_inserts() {
        let mut df = sample();
        df.set_column("bytes", Column::from_values([1i64, 2, 3, 4]))
            .unwrap();
        assert_eq!(df.column("bytes").unwrap().sum().unwrap(), 10.0);
        df.set_column("label", Column::from_values(["x", "x", "y", "y"]))
            .unwrap();
        assert_eq!(df.n_cols(), 4);
    }

    #[test]
    fn drop_and_rename() {
        let mut df = sample();
        df.rename_column("bytes", "weight").unwrap();
        assert!(df.has_column("weight"));
        assert!(df.rename_column("weight", "node").is_err());
        df.drop_column("weight").unwrap();
        assert_eq!(df.n_cols(), 2);
        assert!(df.drop_column("weight").is_err());
    }

    #[test]
    fn select_projects_columns() {
        let df = sample();
        let p = df.select(&["prefix", "node"]).unwrap();
        assert_eq!(p.column_names(), vec!["prefix", "node"]);
        assert!(df.select(&["nope"]).is_err());
    }

    #[test]
    fn row_and_value_access() {
        let df = sample();
        assert_eq!(df.row(1).unwrap()[1], AttrValue::Int(2500));
        assert!(df.row(9).is_err());
        assert_eq!(df.value(2, "node").unwrap().as_str(), Some("c"));
        assert!(df.value(2, "nope").is_err());
    }

    #[test]
    fn set_value_and_push_row() {
        let mut df = sample();
        df.set_value(0, "bytes", AttrValue::Int(999)).unwrap();
        assert_eq!(df.value(0, "bytes").unwrap(), &AttrValue::Int(999));
        df.push_row(vec![
            AttrValue::from("e"),
            AttrValue::Int(7),
            AttrValue::from("10.2"),
        ])
        .unwrap();
        assert_eq!(df.n_rows(), 5);
        assert!(df.push_row(vec![AttrValue::Null]).is_err());
    }

    #[test]
    fn take_and_head() {
        let df = sample();
        let t = df.take(&[2, 0]).unwrap();
        assert_eq!(t.value(0, "node").unwrap().as_str(), Some("c"));
        assert_eq!(t.value(1, "node").unwrap().as_str(), Some("a"));
        assert!(df.take(&[17]).is_err());
        assert_eq!(df.head(2).n_rows(), 2);
        assert_eq!(df.head(99).n_rows(), 4);
    }

    #[test]
    fn filter_by_comparisons() {
        let df = sample();
        let heavy = df
            .filter_by("bytes", CmpOp::Ge, AttrValue::Int(2500))
            .unwrap();
        assert_eq!(heavy.n_rows(), 2);
        let pref = df
            .filter_by("prefix", CmpOp::Eq, AttrValue::from("10.1"))
            .unwrap();
        assert_eq!(pref.n_rows(), 2);
        assert!(df.filter_by("nope", CmpOp::Eq, AttrValue::Null).is_err());
    }

    #[test]
    fn filter_rows_with_closure() {
        let df = sample();
        let odd = df.filter_rows(|d, i| {
            d.value(i, "bytes")
                .map(|v| v.as_f64().unwrap_or(0.0) < 500.0)
                .unwrap_or(false)
        });
        assert_eq!(odd.n_rows(), 2);
    }

    #[test]
    fn sort_values_stable_and_descending() {
        let df = sample();
        let asc = df.sort_values(&["bytes"], true).unwrap();
        assert_eq!(asc.value(0, "node").unwrap().as_str(), Some("c"));
        let desc = df.sort_values(&["bytes", "node"], false).unwrap();
        assert_eq!(desc.value(0, "node").unwrap().as_str(), Some("d"));
        assert_eq!(desc.value(1, "node").unwrap().as_str(), Some("b"));
        assert!(df.sort_values(&["nope"], true).is_err());
    }

    #[test]
    fn unique_preserves_first_occurrence_order() {
        let df = sample();
        let u = df.unique("prefix").unwrap();
        assert_eq!(u, vec![AttrValue::from("10.0"), AttrValue::from("10.1")]);
    }

    #[test]
    fn group_agg_sums_by_key() {
        let df = sample();
        let g = df
            .group_agg("prefix", "bytes", AggFunc::Sum, "total")
            .unwrap();
        assert_eq!(g.n_rows(), 2);
        let first = g
            .filter_by("prefix", CmpOp::Eq, AttrValue::from("10.0"))
            .unwrap();
        assert_eq!(first.value(0, "total").unwrap().as_f64(), Some(2600.0));
    }

    #[test]
    fn approx_eq_ordered_and_unordered() {
        let df = sample();
        let mut other = sample();
        assert!(df.approx_eq(&other));
        other
            .set_value(0, "bytes", AttrValue::Float(100.0))
            .unwrap();
        assert!(df.approx_eq(&other));
        other.set_value(0, "bytes", AttrValue::Int(5)).unwrap();
        assert!(!df.approx_eq(&other));

        let shuffled = sample().take(&[3, 2, 1, 0]).unwrap();
        assert!(!df.approx_eq(&shuffled));
        assert!(df.approx_eq_unordered(&shuffled));
    }

    #[test]
    fn display_renders_header_and_rows() {
        let s = sample().to_string();
        assert!(s.contains("node"));
        assert!(s.contains("2500"));
        assert_eq!(s.lines().count(), 5);
    }
}
