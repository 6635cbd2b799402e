//! Inner and left joins between two frames on equality of key columns.

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::key::{value_key, ValueKey};
use netgraph::AttrValue;
use std::collections::HashMap;

/// Joins `left` and `right` on `left_on == right_on`, keeping only matching
/// rows (SQL `INNER JOIN`, pandas `merge(how="inner")`).
///
/// Right-hand columns that clash with a left-hand name are suffixed with
/// `suffix` (pandas' `_y` convention); the right key column is dropped since
/// it duplicates the left key.
pub fn inner_join(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &str,
    right_on: &str,
    suffix: &str,
) -> Result<DataFrame> {
    join(left, right, left_on, right_on, suffix, false)
}

/// Joins `left` and `right` on `left_on == right_on`, keeping every left row
/// and filling unmatched right-hand columns with nulls (SQL `LEFT JOIN`).
pub fn left_join(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &str,
    right_on: &str,
    suffix: &str,
) -> Result<DataFrame> {
    join(left, right, left_on, right_on, suffix, true)
}

fn join(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &str,
    right_on: &str,
    suffix: &str,
    keep_unmatched_left: bool,
) -> Result<DataFrame> {
    let left_key = left.column(left_on)?;
    let right_key = right.column(right_on)?;
    if suffix.is_empty() {
        return Err(FrameError::InvalidOperation(
            "join suffix must be non-empty".to_string(),
        ));
    }

    // Pair up matching (left row, Option<right row>) indices. When every
    // key on both sides is hashable the right side is hash-partitioned;
    // otherwise an unhashable key may `approx_eq` a hashable one (see
    // [`ValueKey`]) and every pair is compared.
    let left_keys: Option<Vec<ValueKey>> = left_key.iter().map(value_key).collect();
    let right_keys: Option<Vec<ValueKey>> = right_key.iter().map(value_key).collect();
    let hashed = left_keys
        .zip(right_keys.as_ref())
        .map(|(left_keys, right_keys)| {
            let mut table: HashMap<&ValueKey, Vec<usize>> = HashMap::new();
            for (r, key) in right_keys.iter().enumerate() {
                table.entry(key).or_default().push(r);
            }
            (left_keys, table)
        });
    let mut pairs: Vec<(usize, Option<usize>)> = Vec::new();
    for (l, lv) in left_key.iter().enumerate() {
        let before = pairs.len();
        match &hashed {
            Some((left_keys, table)) => {
                let matches = table.get(&left_keys[l]).map_or(&[][..], Vec::as_slice);
                pairs.extend(matches.iter().map(|&r| (l, Some(r))));
            }
            None => pairs.extend(
                right_key
                    .iter()
                    .enumerate()
                    .filter(|(_, rv)| rv.approx_eq(lv))
                    .map(|(r, _)| (l, Some(r))),
            ),
        }
        if pairs.len() == before && keep_unmatched_left {
            pairs.push((l, None));
        }
    }

    let mut out = DataFrame::new();
    for name in left.column_names() {
        let col: Column = pairs
            .iter()
            .map(|&(l, _)| left.value(l, name).expect("in range").clone())
            .collect();
        out.add_column(name, col)?;
    }
    for name in right.column_names() {
        if name == right_on {
            continue;
        }
        let out_name = if out.has_column(name) {
            format!("{name}{suffix}")
        } else {
            name.to_string()
        };
        let col: Column = pairs
            .iter()
            .map(|&(_, r)| match r {
                Some(r) => right.value(r, name).expect("in range").clone(),
                None => AttrValue::Null,
            })
            .collect();
        out.add_column(&out_name, col)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes() -> DataFrame {
        DataFrame::from_columns(vec![
            ("node".to_string(), Column::from_values(["a", "b", "c"])),
            (
                "role".to_string(),
                Column::from_values(["core", "edge", "edge"]),
            ),
        ])
        .unwrap()
    }

    fn edges() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "source".to_string(),
                Column::from_values(["a", "a", "b", "z"]),
            ),
            (
                "target".to_string(),
                Column::from_values(["b", "c", "c", "a"]),
            ),
            ("bytes".to_string(), Column::from_values([1i64, 2, 3, 4])),
        ])
        .unwrap()
    }

    #[test]
    fn inner_join_matches_keys() {
        let j = inner_join(&edges(), &nodes(), "source", "node", "_src").unwrap();
        // Row with source "z" has no matching node and is dropped.
        assert_eq!(j.n_rows(), 3);
        assert!(j.has_column("role"));
        assert_eq!(j.value(0, "role").unwrap().as_str(), Some("core"));
    }

    #[test]
    fn left_join_keeps_unmatched_rows_with_nulls() {
        let j = left_join(&edges(), &nodes(), "source", "node", "_src").unwrap();
        assert_eq!(j.n_rows(), 4);
        assert!(j.value(3, "role").unwrap().is_null());
    }

    #[test]
    fn clashing_columns_get_suffix() {
        let left = DataFrame::from_columns(vec![
            ("k".to_string(), Column::from_values(["a"])),
            ("v".to_string(), Column::from_values([1i64])),
        ])
        .unwrap();
        let right = DataFrame::from_columns(vec![
            ("k".to_string(), Column::from_values(["a"])),
            ("v".to_string(), Column::from_values([2i64])),
        ])
        .unwrap();
        let j = inner_join(&left, &right, "k", "k", "_right").unwrap();
        assert_eq!(j.column_names(), vec!["k", "v", "v_right"]);
        assert_eq!(j.value(0, "v_right").unwrap(), &AttrValue::Int(2));
    }

    #[test]
    fn one_to_many_joins_duplicate_left_rows() {
        let many = DataFrame::from_columns(vec![
            ("node".to_string(), Column::from_values(["a", "a"])),
            ("tag".to_string(), Column::from_values(["t1", "t2"])),
        ])
        .unwrap();
        let single = DataFrame::from_columns(vec![
            ("id".to_string(), Column::from_values(["a"])),
            ("w".to_string(), Column::from_values([9i64])),
        ])
        .unwrap();
        let j = inner_join(&single, &many, "id", "node", "_m").unwrap();
        assert_eq!(j.n_rows(), 2);
    }

    #[test]
    fn missing_key_column_or_empty_suffix_errors() {
        assert!(inner_join(&nodes(), &edges(), "nope", "source", "_x").is_err());
        assert!(inner_join(&nodes(), &edges(), "node", "nope", "_x").is_err());
        assert!(inner_join(&nodes(), &edges(), "node", "source", "").is_err());
    }
}
