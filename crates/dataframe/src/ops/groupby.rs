//! Group-by: split a frame by key columns and aggregate each group.

use crate::column::Column;
use crate::error::Result;
use crate::frame::DataFrame;
use crate::key::{value_key, ValueKey};
use crate::ops::AggFunc;
use netgraph::AttrValue;
use std::collections::HashMap;

/// The result of [`DataFrame::groupby`]: rows partitioned into groups that
/// share the same values in the key columns.
///
/// Groups are ordered by their first appearance in the source frame, so the
/// output of [`GroupBy::agg`] is deterministic.
///
/// ```
/// use dataframe::{DataFrame, Column};
/// use dataframe::ops::AggFunc;
/// let df = DataFrame::from_columns(vec![
///     ("prefix".to_string(), Column::from_values(["10.0", "10.1", "10.0"])),
///     ("bytes".to_string(), Column::from_values([5i64, 7, 11])),
/// ]).unwrap();
/// let out = df.groupby(&["prefix"]).unwrap()
///     .agg(&[("bytes", AggFunc::Sum, "total_bytes")]).unwrap();
/// assert_eq!(out.n_rows(), 2);
/// assert_eq!(out.value(0, "total_bytes").unwrap().as_f64(), Some(16.0));
/// ```
#[derive(Debug)]
pub struct GroupBy<'a> {
    frame: &'a DataFrame,
    keys: Vec<String>,
    /// `(key values, member row indices)` in first-appearance order.
    groups: Vec<(Vec<AttrValue>, Vec<usize>)>,
}

impl<'a> GroupBy<'a> {
    /// Partitions `frame` by the given key columns.
    pub(crate) fn new(frame: &'a DataFrame, keys: &[&str]) -> Result<Self> {
        let key_cols: Vec<&Column> = keys
            .iter()
            .map(|k| frame.column(k))
            .collect::<Result<_>>()?;
        let mut groups: Vec<(Vec<AttrValue>, Vec<usize>)> = Vec::new();
        // Hashable keys find their group through the index; a key with an
        // unhashable part equals no hashable key under `==` (see
        // [`ValueKey`]), so it scans the groups by comparison instead.
        let mut index: HashMap<Vec<ValueKey>, usize> = HashMap::new();
        for row in 0..frame.n_rows() {
            let key: Vec<AttrValue> = key_cols
                .iter()
                .map(|c| c.get(row).expect("in range").clone())
                .collect();
            let hashed: Option<Vec<ValueKey>> = key.iter().map(value_key).collect();
            let found = match &hashed {
                Some(hashed) => index.get(hashed).copied(),
                None => groups.iter().position(|(k, _)| *k == key),
            };
            match found {
                Some(group) => groups[group].1.push(row),
                None => {
                    if let Some(hashed) = hashed {
                        index.insert(hashed, groups.len());
                    }
                    groups.push((key, vec![row]));
                }
            }
        }
        Ok(GroupBy {
            frame,
            keys: keys.iter().map(|k| k.to_string()).collect(),
            groups,
        })
    }

    /// Number of distinct groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The key values and member row indices of each group.
    pub fn groups(&self) -> &[(Vec<AttrValue>, Vec<usize>)] {
        &self.groups
    }

    /// Materializes each group as its own frame, paired with its key values.
    pub fn group_frames(&self) -> Result<Vec<(Vec<AttrValue>, DataFrame)>> {
        self.groups
            .iter()
            .map(|(key, rows)| Ok((key.clone(), self.frame.take(rows)?)))
            .collect()
    }

    /// Aggregates each group. `specs` is a list of
    /// `(source column, aggregation, output column name)`; the result frame
    /// has the key columns followed by one column per spec.
    pub fn agg(&self, specs: &[(&str, AggFunc, &str)]) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        // Key columns first.
        for (i, key_name) in self.keys.iter().enumerate() {
            let col: Column = self.groups.iter().map(|(key, _)| key[i].clone()).collect();
            out.add_column(key_name, col)?;
        }
        // One output column per aggregation spec.
        for &(source, func, out_name) in specs {
            // Validate the source column exists before doing per-group work.
            self.frame.column(source)?;
            let mut col = Column::new();
            for (_, rows) in &self.groups {
                let slice: Column = rows
                    .iter()
                    .map(|&r| self.frame.value(r, source).expect("in range").clone())
                    .collect();
                col.push(func.apply(&slice)?);
            }
            out.add_column(out_name, col)?;
        }
        Ok(out)
    }

    /// Shorthand for a single-column aggregation named after the function
    /// (`bytes_sum`, `capacity_max`, ...).
    pub fn agg_one(&self, column: &str, func: AggFunc) -> Result<DataFrame> {
        let out_name = format!("{column}_{}", func.name());
        self.agg(&[(column, func, &out_name)])
    }

    /// Group sizes as a frame with the key columns plus a `count` column.
    pub fn count(&self) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for (i, key_name) in self.keys.iter().enumerate() {
            let col: Column = self.groups.iter().map(|(key, _)| key[i].clone()).collect();
            out.add_column(key_name, col)?;
        }
        let counts: Column = self
            .groups
            .iter()
            .map(|(_, rows)| AttrValue::Int(rows.len() as i64))
            .collect();
        out.add_column("count", counts)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CmpOp;

    fn sample() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "prefix".to_string(),
                Column::from_values(["10.0", "10.1", "10.0", "10.2", "10.1"]),
            ),
            (
                "bytes".to_string(),
                Column::from_values([10i64, 20, 30, 40, 50]),
            ),
            (
                "packets".to_string(),
                Column::from_values([1i64, 2, 3, 4, 5]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn groups_form_in_first_appearance_order() {
        let df = sample();
        let g = df.groupby(&["prefix"]).unwrap();
        assert_eq!(g.n_groups(), 3);
        assert_eq!(g.groups()[0].0, vec![AttrValue::from("10.0")]);
        assert_eq!(g.groups()[0].1, vec![0, 2]);
        assert_eq!(g.groups()[2].0, vec![AttrValue::from("10.2")]);
    }

    #[test]
    fn agg_multiple_specs() {
        let df = sample();
        let out = df
            .groupby(&["prefix"])
            .unwrap()
            .agg(&[
                ("bytes", AggFunc::Sum, "total_bytes"),
                ("packets", AggFunc::Max, "max_packets"),
            ])
            .unwrap();
        assert_eq!(
            out.column_names(),
            vec!["prefix", "total_bytes", "max_packets"]
        );
        let first = out
            .filter_by("prefix", CmpOp::Eq, AttrValue::from("10.0"))
            .unwrap();
        assert_eq!(first.value(0, "total_bytes").unwrap().as_f64(), Some(40.0));
        assert_eq!(first.value(0, "max_packets").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn agg_one_autonames_column() {
        let df = sample();
        let out = df
            .groupby(&["prefix"])
            .unwrap()
            .agg_one("bytes", AggFunc::Mean)
            .unwrap();
        assert!(out.has_column("bytes_mean"));
    }

    #[test]
    fn count_reports_group_sizes() {
        let df = sample();
        let out = df.groupby(&["prefix"]).unwrap().count().unwrap();
        assert_eq!(out.n_rows(), 3);
        assert_eq!(out.value(0, "count").unwrap(), &AttrValue::Int(2));
        assert_eq!(out.value(2, "count").unwrap(), &AttrValue::Int(1));
    }

    #[test]
    fn group_frames_materializes_members() {
        let df = sample();
        let frames = df.groupby(&["prefix"]).unwrap().group_frames().unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].1.n_rows(), 2);
    }

    #[test]
    fn missing_key_or_value_column_errors() {
        let df = sample();
        assert!(df.groupby(&["nope"]).is_err());
        let g = df.groupby(&["prefix"]).unwrap();
        assert!(g.agg(&[("nope", AggFunc::Sum, "x")]).is_err());
    }

    #[test]
    fn multi_key_grouping() {
        let df = DataFrame::from_columns(vec![
            ("a".to_string(), Column::from_values(["x", "x", "y"])),
            ("b".to_string(), Column::from_values([1i64, 1, 1])),
            ("v".to_string(), Column::from_values([10i64, 20, 30])),
        ])
        .unwrap();
        let out = df
            .groupby(&["a", "b"])
            .unwrap()
            .agg(&[("v", AggFunc::Sum, "total")])
            .unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.value(0, "total").unwrap().as_f64(), Some(30.0));
    }
}
