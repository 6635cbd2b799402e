//! The in-memory database: a named collection of tables backed by
//! [`DataFrame`]s.

use crate::error::{Result, SqlError};
use dataframe::DataFrame;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory relational database.
///
/// The NeMoEval "SQL approach" represents a network as two tables — `nodes`
/// and `edges` — with the same schemas the pandas backend uses, so a table
/// is simply a named [`DataFrame`].
///
/// Tables are shared copy-on-write: cloning a database, or mounting a frame
/// another owner also holds, copies no rows. The first statement that
/// writes a table ([`Database::table_mut`]) makes that table private.
///
/// ```
/// use sqlengine::Database;
/// use dataframe::{DataFrame, Column};
///
/// let mut db = Database::new();
/// db.create_table("nodes", DataFrame::from_columns(vec![
///     ("id".to_string(), Column::from_values(["a", "b"])),
///     ("bytes".to_string(), Column::from_values([10i64, 20])),
/// ]).unwrap());
/// let result = db.execute("SELECT id FROM nodes WHERE bytes > 15").unwrap();
/// assert_eq!(result.rows().unwrap().n_rows(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Database {
    tables: BTreeMap<String, Arc<DataFrame>>,
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A `SELECT` produced a result set.
    Rows(DataFrame),
    /// A mutation (`UPDATE` / `INSERT` / `DELETE`) affected this many rows.
    Affected(usize),
}

impl QueryResult {
    /// The result frame, if this was a `SELECT`.
    pub fn rows(&self) -> Option<&DataFrame> {
        match self {
            QueryResult::Rows(df) => Some(df),
            QueryResult::Affected(_) => None,
        }
    }

    /// The affected-row count, if this was a mutation.
    pub fn affected(&self) -> Option<usize> {
        match self {
            QueryResult::Rows(_) => None,
            QueryResult::Affected(n) => Some(*n),
        }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates (or replaces) a table. Pass an `Arc` to share a frame
    /// without copying it.
    pub fn create_table(&mut self, name: &str, frame: impl Into<Arc<DataFrame>>) {
        self.tables.insert(name.to_string(), frame.into());
    }

    /// Removes a table, returning it if present.
    pub fn drop_table(&mut self, name: &str) -> Option<Arc<DataFrame>> {
        self.tables.remove(name)
    }

    /// The names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Immutable access to a table.
    pub fn table(&self, name: &str) -> Result<&DataFrame> {
        self.tables
            .get(name)
            .map(|frame| &**frame)
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Mutable access to a table. A table shared with another owner is
    /// copied first, so the other owner never sees the write.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut DataFrame> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Parses and executes a single SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = crate::parser::parse_statement(sql)?;
        crate::exec::execute_statement(self, &stmt)
    }

    /// Parses and executes a semicolon-separated script, returning the
    /// result of every statement in order.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        let stmts = crate::parser::parse_statements(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(crate::exec::execute_statement(self, stmt)?);
        }
        Ok(out)
    }

    /// True when both databases contain the same tables with approximately
    /// equal contents (row order insensitive). This is the state comparison
    /// the NeMoEval evaluator uses for the SQL backend. A table both
    /// databases share compares equal without a scan.
    pub fn approx_eq(&self, other: &Database) -> bool {
        self.tables.len() == other.tables.len()
            && self.tables.iter().all(|(name, frame)| {
                other
                    .tables
                    .get(name)
                    .map(|o| Arc::ptr_eq(frame, o) || frame.approx_eq_unordered(o))
                    .unwrap_or(false)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::Column;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "nodes",
            DataFrame::from_columns(vec![
                ("id".to_string(), Column::from_values(["a", "b", "c"])),
                ("bytes".to_string(), Column::from_values([5i64, 10, 15])),
            ])
            .unwrap(),
        );
        db
    }

    #[test]
    fn create_and_lookup_tables() {
        let mut d = db();
        assert_eq!(d.table_names(), vec!["nodes"]);
        assert!(d.table("nodes").is_ok());
        assert!(matches!(d.table("edges"), Err(SqlError::UnknownTable(_))));
        assert!(d.drop_table("nodes").is_some());
        assert!(d.drop_table("nodes").is_none());
    }

    #[test]
    fn execute_round_trip() {
        let mut d = db();
        let r = d.execute("SELECT id FROM nodes WHERE bytes >= 10").unwrap();
        assert_eq!(r.rows().unwrap().n_rows(), 2);
        let r = d
            .execute("UPDATE nodes SET bytes = 0 WHERE id = 'a'")
            .unwrap();
        assert_eq!(r.affected(), Some(1));
    }

    #[test]
    fn execute_script_returns_all_results() {
        let mut d = db();
        let results = d
            .execute_script("UPDATE nodes SET bytes = 1; SELECT COUNT(*) FROM nodes;")
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].affected(), Some(3));
        assert!(results[1].rows().is_some());
    }

    #[test]
    fn approx_eq_is_order_insensitive() {
        let a = db();
        let mut b = db();
        assert!(a.approx_eq(&b));
        b.execute("UPDATE nodes SET bytes = 99 WHERE id = 'a'")
            .unwrap();
        assert!(!a.approx_eq(&b));
        let mut c = db();
        c.create_table("extra", DataFrame::new());
        assert!(!a.approx_eq(&c));
    }
}
