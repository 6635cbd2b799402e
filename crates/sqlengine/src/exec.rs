//! Statement execution: evaluates parsed statements against a [`Database`].
//!
//! The executor compiles every statement once before touching rows: column
//! references resolve to positional slots ([`CExpr::Column`]), literal
//! `LIKE` patterns compile to token matchers, and unknown columns become
//! lazy error nodes (so a bad reference over an empty table still succeeds,
//! exactly like the historical row-at-a-time interpreter). Evaluation then
//! runs against *borrowed* rows — `WHERE` filters single-table scans
//! directly on the frame's columns before any row is materialized, and
//! equi-joins use a hash join keyed on exactly-hashable values with a
//! nested-loop fallback for everything else. Row and group ordering are
//! bit-for-bit identical to the original interpreter.

use crate::ast::*;
use crate::database::{Database, QueryResult};
use crate::error::{Result, SqlError};
use crate::functions::{call_scalar, like_match, LikePattern};
use dataframe::key::{value_key, ValueKey};
use dataframe::{Column, DataFrame};
use netgraph::AttrValue;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Executes a parsed statement against the database.
pub fn execute_statement(db: &mut Database, stmt: &Statement) -> Result<QueryResult> {
    match stmt {
        Statement::Select(s) => Ok(QueryResult::Rows(execute_select(db, s)?)),
        Statement::Update(s) => Ok(QueryResult::Affected(execute_update(db, s)?)),
        Statement::Insert(s) => Ok(QueryResult::Affected(execute_insert(db, s)?)),
        Statement::Delete(s) => Ok(QueryResult::Affected(execute_delete(db, s)?)),
        Statement::Explain(inner) => Ok(QueryResult::Rows(explain_statement(db, inner)?)),
    }
}

// ----------------------------------------------------------------- explain

/// Renders the compiled execution plan of a statement — the `EXPLAIN`
/// output — as a single-column `plan` frame, one line per plan step.
///
/// The plan reflects what the executor will actually do: it compiles the
/// statement against the real table schemas, so a join line says `hash
/// equi-join` exactly when [`equi_key_slots`] recognizes the `ON` clause
/// (the executor still falls back to a nested loop at runtime if a key
/// value is not exactly hashable — see [`ValueKey`]), and a single-table
/// `WHERE` is reported as pushed down to the scan because that is where the
/// compiled predicate runs.
pub fn explain_statement(db: &Database, stmt: &Statement) -> Result<DataFrame> {
    let mut lines = Vec::new();
    explain_lines(db, stmt, &mut lines)?;
    let column: Column = lines
        .iter()
        .map(|l| AttrValue::Str(l.as_str().into()))
        .collect();
    DataFrame::from_columns(vec![("plan".to_string(), column)])
        .map_err(|e| SqlError::Execution(e.to_string()))
}

fn comma_list<T: std::fmt::Display>(items: &[T]) -> String {
    items
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn explain_lines(db: &Database, stmt: &Statement, lines: &mut Vec<String>) -> Result<()> {
    match stmt {
        Statement::Explain(inner) => explain_lines(db, inner, lines)?,
        Statement::Select(s) => {
            lines.push("select".to_string());
            let base = db.table(&s.from.name)?;
            let mut schema = Schema::from_table(base, &s.from);
            lines.push(format!("  scan {}", s.from));
            if s.joins.is_empty() {
                if let Some(pred) = &s.where_clause {
                    lines.push(format!("  where (pushed down to scan): {pred}"));
                }
            } else {
                for join in &s.joins {
                    let right = db.table(&join.table.name)?;
                    let right_schema = Schema::from_table(right, &join.table);
                    let left_width = schema.width();
                    let mut combined = schema;
                    combined.columns.extend(right_schema.columns);
                    let on = compile(&combined, &join.on);
                    let strategy = if equi_key_slots(&on, left_width).is_some() {
                        "hash equi-join"
                    } else {
                        "nested-loop join"
                    };
                    let kind = match join.kind {
                        JoinKind::Inner => "",
                        JoinKind::Left => "left ",
                    };
                    lines.push(format!("  {kind}{strategy} {} ON {}", join.table, join.on));
                    schema = combined;
                }
                if let Some(pred) = &s.where_clause {
                    lines.push(format!("  where (post-join filter): {pred}"));
                }
            }
            let has_aggregates = s.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            }) || s
                .having
                .as_ref()
                .map(Expr::contains_aggregate)
                .unwrap_or(false);
            if !s.group_by.is_empty() {
                lines.push(format!("  group by (hash): {}", comma_list(&s.group_by)));
            } else if has_aggregates {
                lines.push("  aggregate: single group".to_string());
            }
            if let Some(having) = &s.having {
                lines.push(format!("  having: {having}"));
            }
            lines.push(format!("  project: {}", comma_list(&s.items)));
            if s.distinct {
                lines.push("  distinct".to_string());
            }
            if !s.order_by.is_empty() {
                lines.push(format!("  order by: {}", comma_list(&s.order_by)));
            }
            if let Some(limit) = s.limit {
                lines.push(format!("  limit: {limit}"));
            }
        }
        Statement::Update(s) => {
            db.table(&s.table)?;
            lines.push(format!("update {}", s.table));
            for (column, value) in &s.assignments {
                lines.push(format!("  set {column} = {value}"));
            }
            match &s.where_clause {
                Some(pred) => lines.push(format!("  where: {pred}")),
                None => lines.push("  all rows".to_string()),
            }
        }
        Statement::Insert(s) => {
            db.table(&s.table)?;
            lines.push(format!("insert into {}", s.table));
            if s.columns.is_empty() {
                lines.push("  columns: (table order)".to_string());
            } else {
                lines.push(format!("  columns: {}", s.columns.join(", ")));
            }
            lines.push(format!("  values: {} row(s)", s.rows.len()));
        }
        Statement::Delete(s) => {
            db.table(&s.table)?;
            lines.push(format!("delete from {}", s.table));
            match &s.where_clause {
                Some(pred) => lines.push(format!("  where: {pred}")),
                None => lines.push("  all rows".to_string()),
            }
        }
    }
    Ok(())
}

// ------------------------------------------------------------------ schema

/// The column layout of a working row set: `(qualifier, column name)` per
/// position.
#[derive(Debug, Clone)]
struct Schema {
    columns: Vec<(Option<String>, String)>,
}

impl Schema {
    fn from_table(frame: &DataFrame, table: &TableRef) -> Schema {
        let qualifier = table.alias.clone().unwrap_or_else(|| table.name.clone());
        Schema {
            columns: frame
                .column_names()
                .iter()
                .map(|c| (Some(qualifier.clone()), c.to_string()))
                .collect(),
        }
    }

    fn width(&self) -> usize {
        self.columns.len()
    }

    /// Index of the column matching `name` with optional `qualifier`.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, (q, n))| {
                n == name
                    && qualifier
                        .map(|want| q.as_deref() == Some(want))
                        .unwrap_or(true)
            })
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [] => Err(SqlError::UnknownColumn(match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            })),
            [one] => Ok(*one),
            // Ambiguous unqualified reference: prefer the leftmost, which is
            // what the permissive engines the paper targets do in practice.
            [first, ..] => Ok(*first),
        }
    }
}

// --------------------------------------------------------------- row views

/// A borrowed view of one row; the compiled evaluator only reads columns by
/// position, so scans and join probes never materialize rows up front.
trait RowView {
    fn col(&self, idx: usize) -> &AttrValue;
}

/// A materialized row.
struct SliceRow<'a>(&'a [AttrValue]);

impl RowView for SliceRow<'_> {
    #[inline]
    fn col(&self, idx: usize) -> &AttrValue {
        &self.0[idx]
    }
}

/// A row borrowed straight out of a frame's columnar storage.
struct FrameRow<'a> {
    columns: &'a [Column],
    row: usize,
}

impl RowView for FrameRow<'_> {
    #[inline]
    fn col(&self, idx: usize) -> &AttrValue {
        &self.columns[idx].values()[self.row]
    }
}

/// A join candidate: a left row and a right row viewed as one concatenated
/// row, without copying either side.
struct PairRow<'a> {
    left: &'a [AttrValue],
    right: &'a [AttrValue],
}

impl RowView for PairRow<'_> {
    #[inline]
    fn col(&self, idx: usize) -> &AttrValue {
        if idx < self.left.len() {
            &self.left[idx]
        } else {
            &self.right[idx - self.left.len()]
        }
    }
}

// --------------------------------------------------------- compiled exprs

/// An expression compiled against a [`Schema`]: column references are
/// positional slots, literal LIKE patterns are pre-translated, and unknown
/// columns are lazy errors (raised only if the node is ever evaluated,
/// which keeps bad references over empty row sets silent — the historical
/// behavior).
#[derive(Debug, Clone)]
enum CExpr {
    Literal(AttrValue),
    Column(usize),
    /// Unresolvable column reference; errors when evaluated.
    Unknown(String),
    Neg(Box<CExpr>),
    Not(Box<CExpr>),
    Binary {
        left: Box<CExpr>,
        op: BinaryOp,
        right: Box<CExpr>,
    },
    IsNull {
        expr: Box<CExpr>,
        negated: bool,
    },
    InList {
        expr: Box<CExpr>,
        list: Vec<CExpr>,
        negated: bool,
    },
    /// `LIKE` with a literal pattern, compiled once per query.
    LikeCompiled {
        expr: Box<CExpr>,
        pattern: LikePattern,
        negated: bool,
    },
    /// `LIKE` whose pattern is itself computed per row.
    LikeDynamic {
        expr: Box<CExpr>,
        pattern: Box<CExpr>,
        negated: bool,
    },
    Between {
        expr: Box<CExpr>,
        low: Box<CExpr>,
        high: Box<CExpr>,
        negated: bool,
    },
    Function {
        name: String,
        args: Vec<CExpr>,
    },
    Aggregate {
        func: AggregateFunc,
        arg: Option<Box<CExpr>>,
    },
    Case {
        arms: Vec<(CExpr, CExpr)>,
        otherwise: Option<Box<CExpr>>,
    },
}

/// Compiles an expression against a schema. Compilation never fails;
/// unresolvable columns become [`CExpr::Unknown`] nodes.
fn compile(schema: &Schema, expr: &Expr) -> CExpr {
    match expr {
        Expr::Literal(v) => CExpr::Literal(v.clone()),
        Expr::Column { table, name } => match schema.resolve(table.as_deref(), name) {
            Ok(idx) => CExpr::Column(idx),
            Err(_) => CExpr::Unknown(match table {
                Some(q) => format!("{q}.{name}"),
                None => name.clone(),
            }),
        },
        Expr::Neg(inner) => CExpr::Neg(Box::new(compile(schema, inner))),
        Expr::Not(inner) => CExpr::Not(Box::new(compile(schema, inner))),
        Expr::Binary { left, op, right } => CExpr::Binary {
            left: Box::new(compile(schema, left)),
            op: *op,
            right: Box::new(compile(schema, right)),
        },
        Expr::IsNull { expr, negated } => CExpr::IsNull {
            expr: Box::new(compile(schema, expr)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => CExpr::InList {
            expr: Box::new(compile(schema, expr)),
            list: list.iter().map(|e| compile(schema, e)).collect(),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            if let Expr::Literal(AttrValue::Str(p)) = pattern.as_ref() {
                CExpr::LikeCompiled {
                    expr: Box::new(compile(schema, expr)),
                    pattern: LikePattern::compile(p),
                    negated: *negated,
                }
            } else {
                CExpr::LikeDynamic {
                    expr: Box::new(compile(schema, expr)),
                    pattern: Box::new(compile(schema, pattern)),
                    negated: *negated,
                }
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => CExpr::Between {
            expr: Box::new(compile(schema, expr)),
            low: Box::new(compile(schema, low)),
            high: Box::new(compile(schema, high)),
            negated: *negated,
        },
        Expr::Function { name, args } => CExpr::Function {
            name: name.clone(),
            args: args.iter().map(|a| compile(schema, a)).collect(),
        },
        Expr::Aggregate { func, arg } => CExpr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(compile(schema, a))),
        },
        Expr::Case { arms, otherwise } => CExpr::Case {
            arms: arms
                .iter()
                .map(|(c, r)| (compile(schema, c), compile(schema, r)))
                .collect(),
            otherwise: otherwise.as_ref().map(|e| Box::new(compile(schema, e))),
        },
    }
}

// --------------------------------------------------------------- evaluation

/// Evaluates a compiled non-aggregate expression against one row view.
fn eval<R: RowView>(row: &R, expr: &CExpr) -> Result<AttrValue> {
    match expr {
        CExpr::Literal(v) => Ok(v.clone()),
        CExpr::Column(idx) => Ok(row.col(*idx).clone()),
        CExpr::Unknown(name) => Err(SqlError::UnknownColumn(name.clone())),
        CExpr::Neg(inner) => {
            let v = eval(row, inner)?;
            match v {
                AttrValue::Int(i) => Ok(AttrValue::Int(-i)),
                AttrValue::Float(f) => Ok(AttrValue::Float(-f)),
                AttrValue::Null => Ok(AttrValue::Null),
                other => Err(SqlError::Type(format!(
                    "cannot negate a {}",
                    other.type_name()
                ))),
            }
        }
        CExpr::Not(inner) => {
            let v = eval(row, inner)?;
            Ok(AttrValue::Bool(!v.is_truthy()))
        }
        CExpr::Binary { left, op, right } => {
            let l = eval(row, left)?;
            let r = eval(row, right)?;
            eval_binary(&l, *op, &r)
        }
        CExpr::IsNull { expr, negated } => {
            let v = eval(row, expr)?;
            Ok(AttrValue::Bool(v.is_null() != *negated))
        }
        CExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(row, expr)?;
            let mut found = false;
            for item in list {
                if eval(row, item)?.approx_eq(&v) {
                    found = true;
                    break;
                }
            }
            Ok(AttrValue::Bool(found != *negated))
        }
        CExpr::LikeCompiled {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(row, expr)?;
            match v.as_str() {
                Some(text) => Ok(AttrValue::Bool(pattern.matches(text) != *negated)),
                None => Ok(AttrValue::Bool(false)),
            }
        }
        CExpr::LikeDynamic {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(row, expr)?;
            let p = eval(row, pattern)?;
            match (v.as_str(), p.as_str()) {
                (Some(text), Some(pat)) => Ok(AttrValue::Bool(like_match(text, pat) != *negated)),
                _ => Ok(AttrValue::Bool(false)),
            }
        }
        CExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(row, expr)?;
            let lo = eval(row, low)?;
            let hi = eval(row, high)?;
            let inside = matches!(
                v.partial_cmp_value(&lo),
                Some(Ordering::Greater | Ordering::Equal)
            ) && matches!(
                v.partial_cmp_value(&hi),
                Some(Ordering::Less | Ordering::Equal)
            );
            Ok(AttrValue::Bool(inside != *negated))
        }
        CExpr::Function { name, args } => {
            let values: Vec<AttrValue> =
                args.iter().map(|a| eval(row, a)).collect::<Result<_>>()?;
            call_scalar(name, &values)
        }
        CExpr::Aggregate { func, .. } => Err(SqlError::Execution(format!(
            "aggregate {} used outside of an aggregating query",
            func.name()
        ))),
        CExpr::Case { arms, otherwise } => {
            for (cond, result) in arms {
                if eval(row, cond)?.is_truthy() {
                    return eval(row, result);
                }
            }
            match otherwise {
                Some(e) => eval(row, e),
                None => Ok(AttrValue::Null),
            }
        }
    }
}

/// Evaluates a compiled expression over a *group* of rows, computing
/// aggregates over the whole group and non-aggregate parts on the group's
/// first row.
fn eval_group(rows: &[Vec<AttrValue>], group: &[usize], expr: &CExpr) -> Result<AttrValue> {
    match expr {
        CExpr::Aggregate { func, arg } => {
            let mut values: Vec<AttrValue> = Vec::with_capacity(group.len());
            for &row_idx in group {
                match arg {
                    Some(a) => values.push(eval(&SliceRow(&rows[row_idx]), a)?),
                    None => values.push(AttrValue::Int(1)),
                }
            }
            eval_aggregate(*func, &values)
        }
        CExpr::Binary { left, op, right } => {
            let l = eval_group(rows, group, left)?;
            let r = eval_group(rows, group, right)?;
            eval_binary(&l, *op, &r)
        }
        CExpr::Neg(inner) => {
            let v = eval_group(rows, group, inner)?;
            match v {
                AttrValue::Int(i) => Ok(AttrValue::Int(-i)),
                AttrValue::Float(f) => Ok(AttrValue::Float(-f)),
                other => Ok(other),
            }
        }
        CExpr::Not(inner) => Ok(AttrValue::Bool(
            !eval_group(rows, group, inner)?.is_truthy(),
        )),
        CExpr::Function { name, args } => {
            let values: Vec<AttrValue> = args
                .iter()
                .map(|a| eval_group(rows, group, a))
                .collect::<Result<_>>()?;
            call_scalar(name, &values)
        }
        CExpr::Case { arms, otherwise } => {
            for (cond, result) in arms {
                if eval_group(rows, group, cond)?.is_truthy() {
                    return eval_group(rows, group, result);
                }
            }
            match otherwise {
                Some(e) => eval_group(rows, group, e),
                None => Ok(AttrValue::Null),
            }
        }
        // Everything else is evaluated against the group's first row.
        other => match group.first() {
            Some(&row_idx) => eval(&SliceRow(&rows[row_idx]), other),
            None => Ok(AttrValue::Null),
        },
    }
}

fn eval_aggregate(func: AggregateFunc, values: &[AttrValue]) -> Result<AttrValue> {
    let numeric: Vec<f64> = values.iter().filter_map(AttrValue::as_f64).collect();
    Ok(match func {
        AggregateFunc::Count => {
            AttrValue::Int(values.iter().filter(|v| !v.is_null()).count() as i64)
        }
        AggregateFunc::Sum => AttrValue::Float(numeric.iter().sum()),
        AggregateFunc::Avg => {
            if numeric.is_empty() {
                AttrValue::Null
            } else {
                AttrValue::Float(numeric.iter().sum::<f64>() / numeric.len() as f64)
            }
        }
        AggregateFunc::Min => min_max_value(values, Ordering::Less),
        AggregateFunc::Max => min_max_value(values, Ordering::Greater),
    })
}

fn min_max_value(values: &[AttrValue], keep: Ordering) -> AttrValue {
    let mut best: Option<&AttrValue> = None;
    for v in values.iter().filter(|v| !v.is_null()) {
        best = match best {
            None => Some(v),
            Some(b) => {
                if v.partial_cmp_value(b) == Some(keep) {
                    Some(v)
                } else {
                    Some(b)
                }
            }
        };
    }
    best.cloned().unwrap_or(AttrValue::Null)
}

fn eval_binary(l: &AttrValue, op: BinaryOp, r: &AttrValue) -> Result<AttrValue> {
    use BinaryOp::*;
    match op {
        And => return Ok(AttrValue::Bool(l.is_truthy() && r.is_truthy())),
        Or => return Ok(AttrValue::Bool(l.is_truthy() || r.is_truthy())),
        Eq => return Ok(AttrValue::Bool(l.approx_eq(r))),
        NotEq => return Ok(AttrValue::Bool(!l.approx_eq(r))),
        Lt | LtEq | Gt | GtEq => {
            let ord = l.partial_cmp_value(r);
            let result = matches!(
                (op, ord),
                (Lt, Some(Ordering::Less))
                    | (LtEq, Some(Ordering::Less | Ordering::Equal))
                    | (Gt, Some(Ordering::Greater))
                    | (GtEq, Some(Ordering::Greater | Ordering::Equal))
            );
            return Ok(AttrValue::Bool(result));
        }
        _ => {}
    }
    // Arithmetic. String + string concatenates; NULL propagates.
    if l.is_null() || r.is_null() {
        return Ok(AttrValue::Null);
    }
    if op == Add {
        if let (Some(a), Some(b)) = (l.as_str(), r.as_str()) {
            return Ok(AttrValue::Str(format!("{a}{b}").into()));
        }
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(SqlError::Type(format!(
                "cannot apply arithmetic to {} and {}",
                l.type_name(),
                r.type_name()
            )))
        }
    };
    let result = match op {
        Add => a + b,
        Sub => a - b,
        Mul => a * b,
        Div => {
            if b == 0.0 {
                return Err(SqlError::Execution("division by zero".to_string()));
            }
            a / b
        }
        Mod => {
            if b == 0.0 {
                return Err(SqlError::Execution("modulo by zero".to_string()));
            }
            a % b
        }
        _ => unreachable!("comparisons handled above"),
    };
    // Keep integer results integral when both operands were integers.
    if matches!((l, r), (AttrValue::Int(_), AttrValue::Int(_)))
        && result.fract() == 0.0
        && matches!(op, Add | Sub | Mul | Mod)
    {
        Ok(AttrValue::Int(result as i64))
    } else {
        Ok(AttrValue::Float(result))
    }
}

// ------------------------------------------------------------------- select

fn execute_select(db: &Database, stmt: &SelectStmt) -> Result<DataFrame> {
    // FROM: resolve the base table; with no joins, the WHERE predicate is
    // evaluated against borrowed frame rows and only survivors materialize.
    let base = db.table(&stmt.from.name)?;
    let mut schema = Schema::from_table(base, &stmt.from);
    let mut rows: Vec<Vec<AttrValue>>;
    if stmt.joins.is_empty() {
        let pred = stmt.where_clause.as_ref().map(|p| compile(&schema, p));
        let columns = base.columns();
        rows = Vec::new();
        for i in 0..base.n_rows() {
            let view = FrameRow { columns, row: i };
            if let Some(pred) = &pred {
                if !eval(&view, pred)?.is_truthy() {
                    continue;
                }
            }
            rows.push(columns.iter().map(|c| c.values()[i].clone()).collect());
        }
    } else {
        rows = materialize_rows(base);
        for join in &stmt.joins {
            (schema, rows) = apply_join(db, schema, rows, join)?;
        }
        if let Some(pred) = &stmt.where_clause {
            let pred = compile(&schema, pred);
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if eval(&SliceRow(&row), &pred)?.is_truthy() {
                    kept.push(row);
                }
            }
            rows = kept;
        }
    }

    let has_aggregates = stmt.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        SelectItem::Wildcard => false,
    }) || stmt
        .having
        .as_ref()
        .map(Expr::contains_aggregate)
        .unwrap_or(false);

    let (mut out, order_map): (DataFrame, OrderMap) = if !stmt.group_by.is_empty() || has_aggregates
    {
        project_grouped(&schema, &rows, stmt)?
    } else {
        project_rows(&schema, &rows, stmt)?
    };

    // DISTINCT: first occurrence wins, order preserved.
    if stmt.distinct {
        let mut seen: HashSet<String> = HashSet::new();
        let mut keep: Vec<usize> = Vec::new();
        for i in 0..out.n_rows() {
            let key = out
                .row(i)
                .expect("in range")
                .iter()
                .map(|v| format!("{}:{v}", v.type_name()))
                .collect::<Vec<_>>()
                .join("\u{1f}");
            if seen.insert(key) {
                keep.push(i);
            }
        }
        out = out.take(&keep).expect("indices valid");
    }

    // ORDER BY: keys may reference output aliases or source columns.
    if !stmt.order_by.is_empty() {
        let compiled_keys: Vec<CExpr> = stmt
            .order_by
            .iter()
            .map(|key| compile(&schema, &key.expr))
            .collect();
        let null_row = vec![AttrValue::Null; schema.width()];
        let mut indices: Vec<usize> = (0..out.n_rows()).collect();
        let mut keys: Vec<Vec<AttrValue>> = Vec::with_capacity(out.n_rows());
        for i in 0..out.n_rows() {
            let mut row_keys = Vec::new();
            for (key, ckey) in stmt.order_by.iter().zip(&compiled_keys) {
                row_keys.push(order_key_value(
                    &out, &rows, &order_map, &null_row, i, &key.expr, ckey,
                )?);
            }
            keys.push(row_keys);
        }
        indices.sort_by(|&a, &b| {
            for (k, spec) in stmt.order_by.iter().enumerate() {
                let ord = keys[a][k]
                    .partial_cmp_value(&keys[b][k])
                    .unwrap_or(Ordering::Equal);
                let ord = if spec.ascending { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        out = out.take(&indices).expect("indices valid");
    }

    // LIMIT.
    if let Some(limit) = stmt.limit {
        out = out.head(limit);
    }
    Ok(out)
}

fn materialize_rows(frame: &DataFrame) -> Vec<Vec<AttrValue>> {
    let columns = frame.columns();
    (0..frame.n_rows())
        .map(|i| columns.iter().map(|c| c.values()[i].clone()).collect())
        .collect()
}

/// How output rows map back to source rows for ORDER BY resolution.
///
/// Deliberately *not* re-indexed when DISTINCT drops output rows: the
/// historical interpreter resolved post-DISTINCT output rows against
/// pre-DISTINCT source indices (its `order_rows` was never filtered), and
/// golden-log parity pins that behavior, quirk included. A non-output
/// ORDER BY key combined with DISTINCT can therefore read a dropped
/// duplicate's source row — exactly as it always did.
enum OrderMap {
    /// Output row `i` came from source row `i` (ungrouped projection).
    Identity,
    /// Output row `i` came from the group whose first source row is at the
    /// given index (`None` for the synthetic empty group of an implicit
    /// aggregation over zero rows).
    FirstRows(Vec<Option<usize>>),
}

/// Resolves one ORDER BY key for output row `i`: an expression naming an
/// output column uses the projected value, anything else is evaluated
/// against the source row that produced this output row.
#[allow(clippy::too_many_arguments)]
fn order_key_value(
    out: &DataFrame,
    rows: &[Vec<AttrValue>],
    order_map: &OrderMap,
    null_row: &[AttrValue],
    i: usize,
    expr: &Expr,
    compiled: &CExpr,
) -> Result<AttrValue> {
    if let Expr::Column { table: None, name } = expr {
        if out.has_column(name) {
            return Ok(out.value(i, name).expect("in range").clone());
        }
    }
    let source: Option<&[AttrValue]> = match order_map {
        OrderMap::Identity => rows.get(i).map(Vec::as_slice),
        OrderMap::FirstRows(firsts) => match firsts.get(i) {
            Some(Some(idx)) => Some(rows[*idx].as_slice()),
            Some(None) => Some(null_row),
            None => None,
        },
    };
    match source {
        Some(row) => eval(&SliceRow(row), compiled),
        None => Err(SqlError::Execution(
            "ORDER BY expression cannot be resolved".to_string(),
        )),
    }
}

// -------------------------------------------------------------------- joins

fn apply_join(
    db: &Database,
    left_schema: Schema,
    left_rows: Vec<Vec<AttrValue>>,
    join: &Join,
) -> Result<(Schema, Vec<Vec<AttrValue>>)> {
    let right_frame = db.table(&join.table.name)?;
    let right_schema = Schema::from_table(right_frame, &join.table);
    let right_rows = materialize_rows(right_frame);
    let left_width = left_schema.width();
    let right_width = right_schema.width();
    let mut combined = left_schema;
    combined.columns.extend(right_schema.columns);

    let on = compile(&combined, &join.on);

    // Hash fast path for `left.col = right.col` when every key value is
    // exactly hashable (see [`ValueKey`]); otherwise nested loop.
    if let Some((left_key, right_key)) = equi_key_slots(&on, left_width) {
        let left_keys: Option<Vec<ValueKey>> = left_rows
            .iter()
            .map(|row| value_key(&row[left_key]))
            .collect();
        let right_keys: Option<Vec<ValueKey>> = right_rows
            .iter()
            .map(|row| value_key(&row[right_key - left_width]))
            .collect();
        if let (Some(left_keys), Some(right_keys)) = (left_keys, right_keys) {
            let mut table: HashMap<&ValueKey, Vec<usize>> = HashMap::new();
            for (idx, key) in right_keys.iter().enumerate() {
                table.entry(key).or_default().push(idx);
            }
            let mut rows = Vec::new();
            for (lrow, lkey) in left_rows.iter().zip(&left_keys) {
                let matches = table.get(lkey).map(Vec::as_slice).unwrap_or(&[]);
                for &ridx in matches {
                    let mut candidate = lrow.clone();
                    candidate.extend(right_rows[ridx].iter().cloned());
                    rows.push(candidate);
                }
                if matches.is_empty() && join.kind == JoinKind::Left {
                    let mut candidate = lrow.clone();
                    candidate.extend(std::iter::repeat(AttrValue::Null).take(right_width));
                    rows.push(candidate);
                }
            }
            return Ok((combined, rows));
        }
    }

    // Nested loop: probe every pair through a borrowed pair view and clone
    // only matching candidates.
    let mut rows = Vec::new();
    for lrow in &left_rows {
        let mut matched = false;
        for rrow in &right_rows {
            let view = PairRow {
                left: lrow,
                right: rrow,
            };
            if eval(&view, &on)?.is_truthy() {
                let mut candidate = lrow.clone();
                candidate.extend(rrow.iter().cloned());
                rows.push(candidate);
                matched = true;
            }
        }
        if !matched && join.kind == JoinKind::Left {
            let mut candidate = lrow.clone();
            candidate.extend(std::iter::repeat(AttrValue::Null).take(right_width));
            rows.push(candidate);
        }
    }
    Ok((combined, rows))
}

/// Recognizes a compiled `ON` clause of the shape `col_a = col_b` with one
/// slot on each side of the join, returning `(left slot, right slot)`.
fn equi_key_slots(on: &CExpr, left_width: usize) -> Option<(usize, usize)> {
    if let CExpr::Binary { left, op, right } = on {
        if *op == BinaryOp::Eq {
            if let (CExpr::Column(a), CExpr::Column(b)) = (left.as_ref(), right.as_ref()) {
                let (a, b) = (*a, *b);
                if a < left_width && b >= left_width {
                    return Some((a, b));
                }
                if b < left_width && a >= left_width {
                    return Some((b, a));
                }
            }
        }
    }
    None
}

// --------------------------------------------------------------- projection

/// Projection without grouping: one output row per input row.
fn project_rows(
    schema: &Schema,
    rows: &[Vec<AttrValue>],
    stmt: &SelectStmt,
) -> Result<(DataFrame, OrderMap)> {
    let (names, exprs) = projection_list(schema, stmt)?;
    let compiled: Vec<CExpr> = exprs.iter().map(|e| compile(schema, e)).collect();
    let mut columns: Vec<Column> = names.iter().map(|_| Column::new()).collect();
    for row in rows {
        let view = SliceRow(row);
        for (i, expr) in compiled.iter().enumerate() {
            columns[i].push(eval(&view, expr)?);
        }
    }
    let frame = build_frame(names, columns)?;
    Ok((frame, OrderMap::Identity))
}

/// Projection with grouping (explicit GROUP BY or implicit single-group
/// aggregation).
fn project_grouped(
    schema: &Schema,
    rows: &[Vec<AttrValue>],
    stmt: &SelectStmt,
) -> Result<(DataFrame, OrderMap)> {
    // Partition row indices by the GROUP BY key values, in first-seen
    // order. When every key value is exactly hashable the partition runs
    // through a hash map; otherwise it falls back to the historical
    // first-match comparison scan (identical grouping either way — see
    // [`ValueKey`]).
    let mut groups: Vec<(Vec<AttrValue>, Vec<usize>)> = Vec::new();
    if stmt.group_by.is_empty() {
        groups.push((Vec::new(), (0..rows.len()).collect()));
    } else {
        let compiled_keys: Vec<CExpr> = stmt.group_by.iter().map(|e| compile(schema, e)).collect();
        let mut row_keys: Vec<Vec<AttrValue>> = Vec::with_capacity(rows.len());
        for row in rows {
            let view = SliceRow(row);
            row_keys.push(
                compiled_keys
                    .iter()
                    .map(|e| eval(&view, e))
                    .collect::<Result<_>>()?,
            );
        }
        let hashable: Option<Vec<Vec<ValueKey>>> = row_keys
            .iter()
            .map(|key| key.iter().map(value_key).collect())
            .collect();
        match hashable {
            Some(hash_keys) => {
                let mut index: HashMap<&[ValueKey], usize> = HashMap::new();
                for (idx, (key, hkey)) in row_keys.iter().zip(&hash_keys).enumerate() {
                    match index.get(hkey.as_slice()) {
                        Some(&g) => groups[g].1.push(idx),
                        None => {
                            index.insert(hkey.as_slice(), groups.len());
                            groups.push((key.clone(), vec![idx]));
                        }
                    }
                }
            }
            None => {
                for (idx, key) in row_keys.iter().enumerate() {
                    match groups.iter_mut().find(|(k, _)| {
                        k.iter().zip(key).all(|(a, b)| a.approx_eq(b)) && k.len() == key.len()
                    }) {
                        Some((_, members)) => members.push(idx),
                        None => groups.push((key.clone(), vec![idx])),
                    }
                }
            }
        }
    }

    // HAVING.
    if let Some(having) = &stmt.having {
        let having = compile(schema, having);
        groups.retain(|(_, members)| {
            eval_group(rows, members, &having)
                .map(|v| v.is_truthy())
                .unwrap_or(false)
        });
    }

    let (names, exprs) = projection_list(schema, stmt)?;
    let compiled: Vec<CExpr> = exprs.iter().map(|e| compile(schema, e)).collect();
    let mut columns: Vec<Column> = names.iter().map(|_| Column::new()).collect();
    let mut firsts = Vec::with_capacity(groups.len());
    for (_, members) in &groups {
        for (i, expr) in compiled.iter().enumerate() {
            columns[i].push(eval_group(rows, members, expr)?);
        }
        firsts.push(members.first().copied());
    }
    let frame = build_frame(names, columns)?;
    Ok((frame, OrderMap::FirstRows(firsts)))
}

/// Expands the projection list into `(output name, expression)` pairs.
fn projection_list(schema: &Schema, stmt: &SelectStmt) -> Result<(Vec<String>, Vec<Expr>)> {
    let mut names = Vec::new();
    let mut exprs = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (qualifier, name) in &schema.columns {
                    // Use the bare name unless it would collide with an
                    // earlier output column.
                    let out_name = if names.contains(name) {
                        format!("{}.{}", qualifier.clone().unwrap_or_default(), name)
                    } else {
                        name.clone()
                    };
                    names.push(out_name);
                    exprs.push(Expr::Column {
                        table: qualifier.clone(),
                        name: name.clone(),
                    });
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                names.push(name);
                exprs.push(expr.clone());
            }
        }
    }
    Ok((names, exprs))
}

fn build_frame(names: Vec<String>, columns: Vec<Column>) -> Result<DataFrame> {
    let mut unique_names: Vec<String> = Vec::with_capacity(names.len());
    for name in names {
        let mut candidate = name.clone();
        let mut suffix = 1;
        while unique_names.contains(&candidate) {
            candidate = format!("{name}_{suffix}");
            suffix += 1;
        }
        unique_names.push(candidate);
    }
    DataFrame::from_columns(unique_names.into_iter().zip(columns).collect())
        .map_err(|e| SqlError::Execution(e.to_string()))
}

// ---------------------------------------------------------------- mutations

fn execute_update(db: &mut Database, stmt: &UpdateStmt) -> Result<usize> {
    let table_ref = TableRef {
        name: stmt.table.clone(),
        alias: None,
    };
    let frame = db.table(&stmt.table)?;
    let schema = Schema::from_table(frame, &table_ref);
    let pred = stmt.where_clause.as_ref().map(|p| compile(&schema, p));
    let assignments: Vec<(String, CExpr)> = stmt
        .assignments
        .iter()
        .map(|(col, expr)| (col.clone(), compile(&schema, expr)))
        .collect();
    // Determine which rows match and the new values before mutating,
    // evaluating against borrowed frame rows.
    let columns = frame.columns();
    let mut updates: Vec<(usize, Vec<(String, AttrValue)>)> = Vec::new();
    for idx in 0..frame.n_rows() {
        let view = FrameRow { columns, row: idx };
        let matches = match &pred {
            Some(pred) => eval(&view, pred)?.is_truthy(),
            None => true,
        };
        if matches {
            let mut assigned = Vec::new();
            for (col, expr) in &assignments {
                assigned.push((col.clone(), eval(&view, expr)?));
            }
            updates.push((idx, assigned));
        }
    }
    let affected = updates.len();
    if affected == 0 {
        // Leave a shared table shared: there is nothing to write.
        return Ok(0);
    }
    let frame = db.table_mut(&stmt.table)?;
    for (row, assignments) in updates {
        for (col, value) in assignments {
            if !frame.has_column(&col) {
                return Err(SqlError::UnknownColumn(col));
            }
            frame
                .set_value(row, &col, value)
                .map_err(|e| SqlError::Execution(e.to_string()))?;
        }
    }
    Ok(affected)
}

fn execute_insert(db: &mut Database, stmt: &InsertStmt) -> Result<usize> {
    // Literal-only row evaluation (no row context).
    let empty_schema = Schema { columns: vec![] };
    let frame = db.table(&stmt.table)?;
    let target_columns: Vec<String> = if stmt.columns.is_empty() {
        frame.column_names().iter().map(|s| s.to_string()).collect()
    } else {
        stmt.columns.clone()
    };
    for col in &target_columns {
        if !frame.has_column(col) {
            return Err(SqlError::UnknownColumn(col.clone()));
        }
    }
    let table_column_names: Vec<String> =
        frame.column_names().iter().map(|s| s.to_string()).collect();
    let mut new_rows = Vec::new();
    for row_exprs in &stmt.rows {
        if row_exprs.len() != target_columns.len() {
            return Err(SqlError::Execution(format!(
                "INSERT supplies {} values for {} columns",
                row_exprs.len(),
                target_columns.len()
            )));
        }
        let mut by_name: Vec<(String, AttrValue)> = Vec::new();
        for (col, expr) in target_columns.iter().zip(row_exprs) {
            let compiled = compile(&empty_schema, expr);
            by_name.push((col.clone(), eval(&SliceRow(&[]), &compiled)?));
        }
        // Fill unspecified columns with NULL, in table order.
        let full_row: Vec<AttrValue> = table_column_names
            .iter()
            .map(|c| {
                by_name
                    .iter()
                    .find(|(name, _)| name == c)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(AttrValue::Null)
            })
            .collect();
        new_rows.push(full_row);
    }
    let affected = new_rows.len();
    let frame = db.table_mut(&stmt.table)?;
    for row in new_rows {
        frame
            .push_row(row)
            .map_err(|e| SqlError::Execution(e.to_string()))?;
    }
    Ok(affected)
}

fn execute_delete(db: &mut Database, stmt: &DeleteStmt) -> Result<usize> {
    let table_ref = TableRef {
        name: stmt.table.clone(),
        alias: None,
    };
    let frame = db.table(&stmt.table)?;
    let schema = Schema::from_table(frame, &table_ref);
    let pred = stmt.where_clause.as_ref().map(|p| compile(&schema, p));
    let columns = frame.columns();
    let total = frame.n_rows();
    let mut keep = Vec::new();
    for idx in 0..total {
        let view = FrameRow { columns, row: idx };
        let matches = match &pred {
            Some(pred) => eval(&view, pred)?.is_truthy(),
            None => true,
        };
        if !matches {
            keep.push(idx);
        }
    }
    let affected = total - keep.len();
    if affected > 0 {
        // Replace the table rather than write through `table_mut`, which
        // would first copy a shared table only to overwrite it.
        let kept = frame
            .take(&keep)
            .map_err(|e| SqlError::Execution(e.to_string()))?;
        db.create_table(&stmt.table, kept);
    }
    Ok(affected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::Column;

    fn test_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "nodes",
            DataFrame::from_columns(vec![
                (
                    "id".to_string(),
                    Column::from_values(["10.0.1.1", "10.0.2.2", "10.1.3.3", "10.1.4.4"]),
                ),
                (
                    "role".to_string(),
                    Column::from_values(["core", "edge", "edge", "leaf"]),
                ),
            ])
            .unwrap(),
        );
        db.create_table(
            "edges",
            DataFrame::from_columns(vec![
                (
                    "source".to_string(),
                    Column::from_values(["10.0.1.1", "10.0.1.1", "10.0.2.2", "10.1.3.3"]),
                ),
                (
                    "target".to_string(),
                    Column::from_values(["10.0.2.2", "10.1.3.3", "10.1.3.3", "10.1.4.4"]),
                ),
                (
                    "bytes".to_string(),
                    Column::from_values([100i64, 200, 300, 400]),
                ),
                ("packets".to_string(), Column::from_values([1i64, 2, 3, 4])),
            ])
            .unwrap(),
        );
        db
    }

    fn select(db: &mut Database, sql: &str) -> DataFrame {
        db.execute(sql).unwrap().rows().unwrap().clone()
    }

    #[test]
    fn select_star_and_where() {
        let mut db = test_db();
        let all = select(&mut db, "SELECT * FROM edges");
        assert_eq!(all.n_rows(), 4);
        assert_eq!(
            all.column_names(),
            vec!["source", "target", "bytes", "packets"]
        );
        let heavy = select(
            &mut db,
            "SELECT source, bytes FROM edges WHERE bytes >= 300",
        );
        assert_eq!(heavy.n_rows(), 2);
    }

    #[test]
    fn arithmetic_and_alias() {
        let mut db = test_db();
        let out = select(
            &mut db,
            "SELECT bytes * 2 AS double_bytes FROM edges WHERE packets = 1",
        );
        assert_eq!(out.value(0, "double_bytes").unwrap(), &AttrValue::Int(200));
    }

    #[test]
    fn aggregate_without_group_by() {
        let mut db = test_db();
        let out = select(
            &mut db,
            "SELECT COUNT(*) AS n, SUM(bytes) AS total, AVG(bytes) AS mean FROM edges",
        );
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.value(0, "n").unwrap(), &AttrValue::Int(4));
        assert_eq!(out.value(0, "total").unwrap(), &AttrValue::Float(1000.0));
        assert_eq!(out.value(0, "mean").unwrap(), &AttrValue::Float(250.0));
    }

    #[test]
    fn group_by_having_order_limit() {
        let mut db = test_db();
        let out = select(
            &mut db,
            "SELECT source, SUM(bytes) AS total FROM edges GROUP BY source \
             HAVING SUM(bytes) > 250 ORDER BY total DESC LIMIT 1",
        );
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.value(0, "source").unwrap().as_str(), Some("10.1.3.3"));
        assert_eq!(out.value(0, "total").unwrap(), &AttrValue::Float(400.0));
    }

    #[test]
    fn join_inner_and_left() {
        let mut db = test_db();
        let inner = select(
            &mut db,
            "SELECT e.source, n.role FROM edges e JOIN nodes n ON e.source = n.id",
        );
        assert_eq!(inner.n_rows(), 4);
        assert_eq!(inner.value(0, "role").unwrap().as_str(), Some("core"));

        db.execute("DELETE FROM nodes WHERE id = '10.0.2.2'")
            .unwrap();
        let left = select(
            &mut db,
            "SELECT e.source, n.role FROM edges e LEFT JOIN nodes n ON e.source = n.id",
        );
        assert_eq!(left.n_rows(), 4);
        assert!(left.value(2, "role").unwrap().is_null());
    }

    #[test]
    fn distinct_and_in_and_like() {
        let mut db = test_db();
        let d = select(&mut db, "SELECT DISTINCT source FROM edges");
        assert_eq!(d.n_rows(), 3);
        let i = select(
            &mut db,
            "SELECT * FROM nodes WHERE role IN ('core', 'leaf')",
        );
        assert_eq!(i.n_rows(), 2);
        let l = select(&mut db, "SELECT * FROM nodes WHERE id LIKE '10.0%'");
        assert_eq!(l.n_rows(), 2);
    }

    #[test]
    fn case_expression_and_functions() {
        let mut db = test_db();
        let out = select(
            &mut db,
            "SELECT id, CASE WHEN id LIKE '10.0%' THEN 'prod' ELSE 'lab' END AS env, \
             IP_PREFIX(id, 2) AS prefix FROM nodes ORDER BY id",
        );
        assert_eq!(out.value(0, "env").unwrap().as_str(), Some("prod"));
        assert_eq!(out.value(3, "env").unwrap().as_str(), Some("lab"));
        assert_eq!(out.value(0, "prefix").unwrap().as_str(), Some("10.0"));
    }

    #[test]
    fn update_insert_delete_cycle() {
        let mut db = test_db();
        let n = db
            .execute("UPDATE nodes SET role = 'spine' WHERE id LIKE '10.1%'")
            .unwrap()
            .affected()
            .unwrap();
        assert_eq!(n, 2);
        let spines = select(&mut db, "SELECT * FROM nodes WHERE role = 'spine'");
        assert_eq!(spines.n_rows(), 2);

        let n = db
            .execute("INSERT INTO nodes (id, role) VALUES ('10.9.9.9', 'core')")
            .unwrap()
            .affected()
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.table("nodes").unwrap().n_rows(), 5);

        let n = db
            .execute("DELETE FROM nodes WHERE role = 'spine'")
            .unwrap()
            .affected()
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.table("nodes").unwrap().n_rows(), 3);
    }

    #[test]
    fn unknown_column_table_and_function_errors() {
        let mut db = test_db();
        assert!(matches!(
            db.execute("SELECT nope FROM nodes"),
            Err(SqlError::UnknownColumn(_))
        ));
        assert!(matches!(
            db.execute("SELECT * FROM ghosts"),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(matches!(
            db.execute("SELECT FROBNICATE(id) FROM nodes"),
            Err(SqlError::UnknownFunction(_))
        ));
        assert!(matches!(
            db.execute("UPDATE nodes SET ghost = 1"),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn division_by_zero_is_an_execution_error() {
        let mut db = test_db();
        assert!(matches!(
            db.execute("SELECT bytes / 0 FROM edges"),
            Err(SqlError::Execution(_))
        ));
    }

    #[test]
    fn order_by_source_column_not_in_projection() {
        let mut db = test_db();
        let out = select(&mut db, "SELECT source FROM edges ORDER BY bytes DESC");
        assert_eq!(out.value(0, "source").unwrap().as_str(), Some("10.1.3.3"));
    }

    #[test]
    fn string_concatenation_with_plus() {
        let mut db = test_db();
        let out = select(&mut db, "SELECT id + ':' + role AS tag FROM nodes LIMIT 1");
        assert_eq!(out.value(0, "tag").unwrap().as_str(), Some("10.0.1.1:core"));
    }

    #[test]
    fn between_and_is_null() {
        let mut db = test_db();
        let b = select(
            &mut db,
            "SELECT * FROM edges WHERE bytes BETWEEN 150 AND 350",
        );
        assert_eq!(b.n_rows(), 2);
        db.execute("INSERT INTO nodes (id) VALUES ('10.5.5.5')")
            .unwrap();
        let n = select(&mut db, "SELECT * FROM nodes WHERE role IS NULL");
        assert_eq!(n.n_rows(), 1);
        let nn = select(&mut db, "SELECT * FROM nodes WHERE role IS NOT NULL");
        assert_eq!(nn.n_rows(), 4);
    }

    #[test]
    fn implicit_group_aggregate_on_empty_table() {
        let mut db = Database::new();
        db.create_table(
            "t",
            DataFrame::from_columns(vec![("x".to_string(), Column::new())]).unwrap(),
        );
        let out = select(&mut db, "SELECT COUNT(*) AS n, SUM(x) AS s FROM t");
        assert_eq!(out.value(0, "n").unwrap(), &AttrValue::Int(0));
        assert_eq!(out.value(0, "s").unwrap(), &AttrValue::Float(0.0));
    }

    // ------------------------------------------------ compiled-path tests

    #[test]
    fn unknown_column_over_empty_table_stays_lazy() {
        // The historical row-at-a-time interpreter only resolved columns
        // while evaluating rows, so a bad reference over an empty table
        // succeeded. The compiled executor must preserve that.
        let mut db = Database::new();
        db.create_table(
            "t",
            DataFrame::from_columns(vec![("x".to_string(), Column::new())]).unwrap(),
        );
        let out = select(&mut db, "SELECT ghost FROM t");
        assert_eq!(out.n_rows(), 0);
        assert_eq!(out.column_names(), vec!["ghost"]);
        let out = select(&mut db, "SELECT x FROM t WHERE ghost > 1");
        assert_eq!(out.n_rows(), 0);
        // With rows present the same references error.
        db.execute("INSERT INTO t (x) VALUES (1)").unwrap();
        assert!(matches!(
            db.execute("SELECT ghost FROM t"),
            Err(SqlError::UnknownColumn(_))
        ));
        assert!(matches!(
            db.execute("SELECT x FROM t WHERE ghost > 1"),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn hash_join_matches_nested_loop_on_null_and_cross_type_keys() {
        // NULL = NULL is *true* under approx_eq, and Int 3 matches Float
        // 3.0; the hash path must reproduce both.
        let mut db = Database::new();
        db.create_table(
            "a",
            DataFrame::from_columns(vec![(
                "k".to_string(),
                Column::from_iter(vec![
                    AttrValue::from("x"),
                    AttrValue::Null,
                    AttrValue::Int(3),
                ]),
            )])
            .unwrap(),
        );
        db.create_table(
            "b",
            DataFrame::from_columns(vec![
                (
                    "k".to_string(),
                    Column::from_iter(vec![
                        AttrValue::Null,
                        AttrValue::Float(3.0),
                        AttrValue::from("x"),
                    ]),
                ),
                ("tag".to_string(), Column::from_values(["n", "three", "ex"])),
            ])
            .unwrap(),
        );
        let out = select(&mut db, "SELECT a.k, b.tag FROM a JOIN b ON a.k = b.k");
        assert_eq!(out.n_rows(), 3);
        // Left order preserved: "x" row first, then NULL, then 3.
        assert_eq!(out.value(0, "tag").unwrap().as_str(), Some("ex"));
        assert_eq!(out.value(1, "tag").unwrap().as_str(), Some("n"));
        assert_eq!(out.value(2, "tag").unwrap().as_str(), Some("three"));
    }

    #[test]
    fn non_equi_join_still_works() {
        let mut db = test_db();
        let out = select(
            &mut db,
            "SELECT e.source FROM edges e JOIN nodes n ON e.bytes > 250 AND e.source = n.id",
        );
        assert_eq!(out.n_rows(), 2);
    }

    #[test]
    fn join_on_huge_integers_falls_back_to_comparison() {
        // |key| >= 1e9 leaves the exactly-hashable domain (approx_eq's
        // relative tolerance starts merging distinct integers there), so
        // the executor must take the nested-loop path and agree with
        // approx_eq semantics.
        let mut db = Database::new();
        let big = 10_000_000_000i64;
        db.create_table(
            "a",
            DataFrame::from_columns(vec![(
                "k".to_string(),
                Column::from_values([big, big + 1, 7]),
            )])
            .unwrap(),
        );
        db.create_table(
            "b",
            DataFrame::from_columns(vec![("k".to_string(), Column::from_values([big, 7]))])
                .unwrap(),
        );
        let out = select(&mut db, "SELECT a.k FROM a JOIN b ON a.k = b.k");
        // big matches big, big+1 matches big (within approx_eq tolerance at
        // this magnitude!), and 7 matches 7.
        assert_eq!(out.n_rows(), 3);
    }

    #[test]
    fn group_by_mixed_numeric_types_groups_together() {
        let mut db = Database::new();
        db.create_table(
            "t",
            DataFrame::from_columns(vec![
                (
                    "k".to_string(),
                    Column::from_iter(vec![
                        AttrValue::Int(1),
                        AttrValue::Float(1.0),
                        AttrValue::Int(2),
                    ]),
                ),
                ("v".to_string(), Column::from_values([10i64, 20, 30])),
            ])
            .unwrap(),
        );
        let out = select(&mut db, "SELECT k, COUNT(*) AS n FROM t GROUP BY k");
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.value(0, "n").unwrap(), &AttrValue::Int(2));
        assert_eq!(out.value(1, "n").unwrap(), &AttrValue::Int(1));
    }

    #[test]
    fn group_by_non_integral_floats_uses_comparison_path() {
        let mut db = Database::new();
        db.create_table(
            "t",
            DataFrame::from_columns(vec![(
                "k".to_string(),
                Column::from_iter(vec![
                    AttrValue::Float(0.5),
                    AttrValue::Float(0.5),
                    AttrValue::Float(1.5),
                ]),
            )])
            .unwrap(),
        );
        let out = select(&mut db, "SELECT k, COUNT(*) AS n FROM t GROUP BY k");
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.value(0, "n").unwrap(), &AttrValue::Int(2));
    }

    #[test]
    fn like_literal_and_dynamic_patterns_agree() {
        let mut db = test_db();
        let literal = select(&mut db, "SELECT id FROM nodes WHERE id LIKE '10.0%'");
        // Dynamic pattern: computed per row, goes through the memo cache.
        let dynamic = select(
            &mut db,
            "SELECT id FROM nodes WHERE id LIKE CONCAT('10.0', '%')",
        );
        assert_eq!(literal.n_rows(), dynamic.n_rows());
        assert_eq!(literal.n_rows(), 2);
    }
}
