//! Equivalence of the hash-partitioned key operations (`groupby`, `unique`,
//! `inner_join` / `left_join`) with linear comparison-scan references: the
//! same groups, values and row pairs, in the same order.
//!
//! Keys mix values the hash key must tell apart or merge exactly as the
//! comparisons do (`Int(1)` / `Float(1.0)`, `-0.0` / `0`), values it cannot
//! hash at all (`NaN`, `1.5`, `2e9`, lists) and values `approx_eq` merges
//! across that boundary (`1.0000000001 ≈ 1`).

use dataframe::ops::{inner_join, left_join};
use dataframe::{AttrValue, Column, DataFrame};
use proptest::prelude::*;

/// Candidate key values. The first `HASHABLE` are inside the hash key's
/// domain; the rest are outside it.
fn pool() -> Vec<AttrValue> {
    vec![
        AttrValue::Int(1),
        AttrValue::Float(1.0),
        AttrValue::Int(0),
        AttrValue::Float(-0.0),
        AttrValue::Int(-7),
        AttrValue::Null,
        AttrValue::Bool(true),
        AttrValue::Str("a".into()),
        AttrValue::Str("1".into()),
        AttrValue::Float(f64::NAN),
        AttrValue::Float(1.5),
        AttrValue::Int(2_000_000_000),
        AttrValue::Float(2e9),
        AttrValue::Float(1.000_000_000_1),
        AttrValue::List(vec![AttrValue::Int(1)]),
        AttrValue::List(vec![AttrValue::Float(1.0)]),
    ]
}

const HASHABLE: usize = 9;

/// A frame with key columns `a` and `b` and a row-id column `id`. In about
/// half the cases every key is hashable, so both the hash path and the
/// fallback are exercised.
fn arb_keys() -> impl Strategy<Value = DataFrame> {
    (
        0usize..2,
        prop::collection::vec((0usize..64, 0usize..64), 0..40),
    )
        .prop_map(|(hashable_only, rows)| {
            let pool = pool();
            let span = if hashable_only == 1 {
                HASHABLE
            } else {
                pool.len()
            };
            let mut a = Column::new();
            let mut b = Column::new();
            let mut id = Column::new();
            for (row, (i, j)) in rows.into_iter().enumerate() {
                a.push(pool[i % span].clone());
                b.push(pool[j % span].clone());
                id.push(AttrValue::Int(row as i64));
            }
            DataFrame::from_columns(vec![
                ("a".to_string(), a),
                ("b".to_string(), b),
                ("id".to_string(), id),
            ])
            .expect("columns are equal length")
        })
}

/// The first-match scan `GroupBy` used before hashing.
fn linear_groups(df: &DataFrame, keys: &[&str]) -> Vec<(Vec<AttrValue>, Vec<usize>)> {
    let mut groups: Vec<(Vec<AttrValue>, Vec<usize>)> = Vec::new();
    for row in 0..df.n_rows() {
        let key: Vec<AttrValue> = keys
            .iter()
            .map(|k| df.value(row, k).unwrap().clone())
            .collect();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    groups
}

/// The scan `DataFrame::unique` used before hashing.
fn linear_unique(df: &DataFrame, column: &str) -> Vec<AttrValue> {
    let mut seen: Vec<AttrValue> = Vec::new();
    for v in df.column(column).unwrap().iter() {
        if !seen.iter().any(|s| s == v) {
            seen.push(v.clone());
        }
    }
    seen
}

/// The nested loop the joins used before hashing, as `(left id, right id)`
/// pairs (`None` for an unmatched left row of a left join).
fn linear_join(left: &DataFrame, right: &DataFrame, keep: bool) -> Vec<(i64, Option<i64>)> {
    let mut pairs = Vec::new();
    for l in 0..left.n_rows() {
        let lv = left.value(l, "a").unwrap();
        let lid = left.value(l, "id").unwrap().as_i64().unwrap();
        let before = pairs.len();
        for r in 0..right.n_rows() {
            if right.value(r, "b").unwrap().approx_eq(lv) {
                pairs.push((lid, right.value(r, "id").unwrap().as_i64()));
            }
        }
        if pairs.len() == before && keep {
            pairs.push((lid, None));
        }
    }
    pairs
}

/// The `(left id, right id)` pairs a join produced, read back from its
/// `id` and `id_r` columns.
fn join_pairs(joined: &DataFrame) -> Vec<(i64, Option<i64>)> {
    (0..joined.n_rows())
        .map(|row| {
            (
                joined.value(row, "id").unwrap().as_i64().unwrap(),
                joined.value(row, "id_r").unwrap().as_i64(),
            )
        })
        .collect()
}

proptest! {
    /// Hashed groupby forms the reference's groups, keyed by the same
    /// first-appearance values, in the same order, on one and two keys.
    /// Debug renderings compare `NaN` keys structurally.
    #[test]
    fn groupby_matches_the_linear_reference(df in arb_keys()) {
        for keys in [&["a"][..], &["b"], &["a", "b"]] {
            let hashed = df.groupby(keys).unwrap();
            prop_assert_eq!(
                format!("{:?}", hashed.groups()),
                format!("{:?}", linear_groups(&df, keys))
            );
        }
    }

    /// Hashed unique keeps the reference's values in the same order.
    #[test]
    fn unique_matches_the_linear_reference(df in arb_keys()) {
        for column in ["a", "b"] {
            prop_assert_eq!(
                format!("{:?}", df.unique(column).unwrap()),
                format!("{:?}", linear_unique(&df, column))
            );
        }
    }

    /// Hashed inner and left joins pair the same rows in the same order as
    /// the nested loop.
    #[test]
    fn joins_match_the_linear_reference(left in arb_keys(), right in arb_keys()) {
        let inner = inner_join(&left, &right, "a", "b", "_r").unwrap();
        prop_assert_eq!(join_pairs(&inner), linear_join(&left, &right, false));
        let outer = left_join(&left, &right, "a", "b", "_r").unwrap();
        prop_assert_eq!(join_pairs(&outer), linear_join(&left, &right, true));
    }
}
