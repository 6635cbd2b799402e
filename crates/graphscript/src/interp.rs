//! The tree-walking interpreter.

use crate::ast::*;
use crate::bindings;
use crate::dict;
use crate::env::Env;
use crate::error::{Result, ScriptError};
use crate::parser::parse_program;
use crate::stdlib;
use crate::value::{FunctionDef, Value};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Default execution-step budget; generous for benchmark-sized programs but
/// small enough to stop a runaway `while true` loop quickly.
pub const DEFAULT_STEP_LIMIT: u64 = 5_000_000;

/// The result of running a program.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The program's result value: the global named `result` if the program
    /// defined one, otherwise the value of the last top-level expression
    /// statement, otherwise `null`.
    pub value: Value,
    /// Everything the program printed, one entry per `print()` call.
    pub output: Vec<String>,
}

/// A GraphScript interpreter instance.
///
/// Globals (the graph `G`, the `nodes`/`edges` frames, scenario parameters)
/// are injected before [`Interpreter::run`]; they are shared references, so
/// mutations made by the program are visible to the caller afterwards —
/// exactly what the execution sandbox needs in order to diff the network
/// state against the golden answer.
///
/// ```
/// use graphscript::{Interpreter, Value};
/// use netgraph::{Graph, attrs};
///
/// let mut g = Graph::directed();
/// g.add_edge("a", "b", attrs([("bytes", 10i64)]));
/// let mut interp = Interpreter::new();
/// interp.set_global("G", Value::graph(g));
/// let outcome = interp.run("result = G.number_of_nodes()").unwrap();
/// assert_eq!(outcome.value.to_string(), "2");
/// ```
#[derive(Debug)]
pub struct Interpreter {
    env: Env,
    functions: BTreeMap<String, Rc<FunctionDef>>,
    output: Vec<String>,
    steps: u64,
    step_limit: u64,
}

/// Control flow escaping from a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter::new()
    }
}

impl Interpreter {
    /// Creates an interpreter with the default step limit and no globals.
    pub fn new() -> Self {
        Interpreter {
            env: Env::new(),
            functions: BTreeMap::new(),
            output: Vec::new(),
            steps: 0,
            step_limit: DEFAULT_STEP_LIMIT,
        }
    }

    /// Overrides the execution-step budget (used by tests and by the
    /// sandbox's runaway-loop guard).
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Execution steps charged so far against the step limit: one per
    /// statement, expression and loop iteration, summed over every run.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Injects a global binding before running.
    pub fn set_global(&mut self, name: &str, value: Value) {
        self.env.set_global(name, value);
    }

    /// Reads a global binding after running.
    pub fn global(&self, name: &str) -> Option<Value> {
        self.env.global(name).cloned()
    }

    /// All global bindings, used by the execution sandbox to collect the
    /// final network state after a program has run.
    pub fn globals(&self) -> &BTreeMap<String, Value> {
        self.env.globals()
    }

    /// Parses and runs a program.
    pub fn run(&mut self, source: &str) -> Result<RunOutcome> {
        let program = parse_program(source)?;
        self.run_program(&program)
    }

    /// Runs an already-parsed program.
    pub fn run_program(&mut self, program: &Program) -> Result<RunOutcome> {
        let mut last_value = Value::Null;
        for stmt in &program.statements {
            match self.exec_stmt(stmt, &mut last_value)? {
                Flow::Normal => {}
                Flow::Return(v) => {
                    last_value = v;
                    break;
                }
                Flow::Break | Flow::Continue => {
                    return Err(ScriptError::Runtime(
                        "break/continue outside of a loop".to_string(),
                    ))
                }
            }
        }
        let value = match self.env.global("result") {
            Some(v) => v.clone(),
            None => last_value,
        };
        Ok(RunOutcome {
            value,
            output: std::mem::take(&mut self.output),
        })
    }

    fn tick(&mut self) -> Result<()> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(ScriptError::StepLimit(self.step_limit))
        } else {
            Ok(())
        }
    }

    // ---------------------------------------------------------- statements

    fn exec_block(&mut self, body: &[Stmt], last_value: &mut Value) -> Result<Flow> {
        for stmt in body {
            match self.exec_stmt(stmt, last_value)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, last_value: &mut Value) -> Result<Flow> {
        self.tick()?;
        match stmt {
            Stmt::Expr(expr) => {
                let v = self.eval(expr)?;
                // Only top-level expression statements contribute to the
                // implicit program result; inside functions/loops the value
                // is still recorded, which is harmless.
                *last_value = v;
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(value)?;
                match target {
                    AssignTarget::Name(name) => self.env.assign(name, v),
                    AssignTarget::Index { object, index } => {
                        let container = self.eval(object)?;
                        let key = self.eval(index)?;
                        self.assign_index(&container, &key, v)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::AugAssign { name, op, value } => {
                let current = self.env.lookup(name)?;
                let rhs = self.eval(value)?;
                let updated = self.binary(&current, *op, &rhs)?;
                self.env.assign(name, updated);
                Ok(Flow::Normal)
            }
            Stmt::If {
                branches,
                otherwise,
            } => {
                for (cond, body) in branches {
                    if self.eval(cond)?.is_truthy() {
                        return self.exec_block(body, last_value);
                    }
                }
                if let Some(body) = otherwise {
                    return self.exec_block(body, last_value);
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                vars,
                iterable,
                body,
            } => {
                let items = self.iterable_items(iterable)?;
                for item in items {
                    self.tick()?;
                    self.bind_loop_vars(vars, &item)?;
                    match self.exec_block(body, last_value)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.is_truthy() {
                    self.tick()?;
                    match self.exec_block(body, last_value)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::FnDef { name, params, body } => {
                self.functions.insert(
                    name.clone(),
                    Rc::new(FunctionDef {
                        name: name.clone(),
                        params: params.clone(),
                        body: body.clone(),
                    }),
                );
                Ok(Flow::Normal)
            }
            Stmt::Return(expr) => {
                let v = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn bind_loop_vars(&mut self, vars: &[String], item: &Value) -> Result<()> {
        if vars.len() == 1 {
            self.env.assign(&vars[0], item.clone());
            return Ok(());
        }
        // Destructuring: the item must be a list of at least vars.len() values.
        match item {
            Value::List(items) => {
                let items = items.borrow();
                if items.len() < vars.len() {
                    return Err(ScriptError::Runtime(format!(
                        "cannot unpack {} values into {} loop variables",
                        items.len(),
                        vars.len()
                    )));
                }
                for (var, value) in vars.iter().zip(items.iter()) {
                    self.env.assign(var, value.clone());
                }
                Ok(())
            }
            other => Err(ScriptError::TypeError(format!(
                "cannot unpack a {} into {} loop variables",
                other.type_name(),
                vars.len()
            ))),
        }
    }

    fn iterable_items(&mut self, iterable: &Expr) -> Result<Vec<Value>> {
        let value = self.eval(iterable)?;
        match &value {
            Value::List(items) => Ok(items.borrow().clone()),
            Value::Dict(map) => Ok(map
                .borrow()
                .entries()
                .into_iter()
                .map(|(k, _)| Value::Str(k))
                .collect()),
            Value::Str(s) => Ok(s
                .chars()
                .map(|c| Value::Str(c.encode_utf8(&mut [0; 4]).into()))
                .collect()),
            Value::Graph(g) => {
                let g = g.borrow();
                Ok(g.node_id_list()
                    .iter()
                    .map(|&id| Value::Str(g.node_name_shared(id)))
                    .collect())
            }
            other => Err(ScriptError::TypeError(format!(
                "cannot iterate over a {}",
                other.type_name()
            ))),
        }
    }

    fn assign_index(&mut self, container: &Value, key: &Value, value: Value) -> Result<()> {
        match container {
            Value::List(items) => {
                let idx = key.expect_i64("list index")?;
                let mut borrowed = items.borrow_mut();
                let len = borrowed.len() as i64;
                let idx = if idx < 0 { len + idx } else { idx };
                if idx < 0 || idx >= len {
                    return Err(ScriptError::Runtime(format!(
                        "list index {idx} out of range for length {len}"
                    )));
                }
                borrowed[idx as usize] = value;
                Ok(())
            }
            Value::Dict(map) => {
                let key = key.as_key()?;
                map.borrow_mut().map_mut().insert(key, value);
                Ok(())
            }
            other => Err(ScriptError::TypeError(format!(
                "cannot assign into a {}",
                other.type_name()
            ))),
        }
    }

    // --------------------------------------------------------- expressions

    fn eval(&mut self, expr: &Expr) -> Result<Value> {
        self.tick()?;
        match expr {
            Expr::Null => Ok(Value::Null),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Float(x) => Ok(Value::Float(*x)),
            Expr::Str(s) => Ok(Value::Str(Arc::clone(s))),
            Expr::Name(name) => self.env.lookup(name),
            Expr::List(items) => {
                let values: Vec<Value> =
                    items.iter().map(|e| self.eval(e)).collect::<Result<_>>()?;
                Ok(Value::list(values))
            }
            Expr::Dict(pairs) => {
                let mut entries = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let key = self.eval(k)?.as_key()?;
                    let value = self.eval(v)?;
                    entries.push((key, value));
                }
                Ok(Value::dict(entries))
            }
            Expr::Neg(inner) => {
                let v = self.eval(inner)?;
                match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(ScriptError::TypeError(format!(
                        "cannot negate a {}",
                        other.type_name()
                    ))),
                }
            }
            Expr::Not(inner) => Ok(Value::Bool(!self.eval(inner)?.is_truthy())),
            Expr::Binary { left, op, right } => {
                // Short-circuit logical operators.
                if *op == BinaryOp::And {
                    let l = self.eval(left)?;
                    if !l.is_truthy() {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(self.eval(right)?.is_truthy()));
                }
                if *op == BinaryOp::Or {
                    let l = self.eval(left)?;
                    if l.is_truthy() {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(self.eval(right)?.is_truthy()));
                }
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                self.binary(&l, *op, &r)
            }
            Expr::Call { name, args } => {
                let values: Vec<Value> =
                    args.iter().map(|a| self.eval(a)).collect::<Result<_>>()?;
                self.call_function(name, &values)
            }
            Expr::MethodCall { object, name, args } => {
                let receiver = self.eval(object)?;
                let values: Vec<Value> =
                    args.iter().map(|a| self.eval(a)).collect::<Result<_>>()?;
                bindings::call_method(&receiver, name, &values)
            }
            Expr::Index { object, index } => {
                let container = self.eval(object)?;
                let key = self.eval(index)?;
                self.index(&container, &key)
            }
            Expr::Attr { object, name } => {
                let receiver = self.eval(object)?;
                match &receiver {
                    // Dict field access sugar: d.key reads the key.
                    Value::Dict(map) => {
                        dict::read(map, name).ok_or_else(|| ScriptError::MissingAttribute {
                            owner: "dict".to_string(),
                            key: name.clone(),
                        })
                    }
                    other => Err(ScriptError::AttributeError {
                        type_name: other.type_name().to_string(),
                        attr: name.clone(),
                    }),
                }
            }
        }
    }

    fn index(&mut self, container: &Value, key: &Value) -> Result<Value> {
        match container {
            Value::List(items) => {
                let idx = key.expect_i64("list index")?;
                let borrowed = items.borrow();
                let len = borrowed.len() as i64;
                let idx = if idx < 0 { len + idx } else { idx };
                borrowed
                    .get(idx.max(0) as usize)
                    .cloned()
                    .filter(|_| idx >= 0)
                    .ok_or_else(|| {
                        ScriptError::Runtime(format!(
                            "list index {key} out of range for length {len}"
                        ))
                    })
            }
            Value::Dict(map) => {
                let key = key.as_key()?;
                dict::read(map, &key).ok_or_else(|| ScriptError::MissingAttribute {
                    owner: "dict".to_string(),
                    key: key.to_string(),
                })
            }
            Value::Str(s) => {
                let idx = key.expect_i64("string index")?;
                let chars: Vec<char> = s.chars().collect();
                let len = chars.len() as i64;
                let idx = if idx < 0 { len + idx } else { idx };
                if idx < 0 || idx >= len {
                    return Err(ScriptError::Runtime(format!(
                        "string index {idx} out of range for length {len}"
                    )));
                }
                Ok(Value::Str(chars[idx as usize].to_string().into()))
            }
            other => Err(ScriptError::TypeError(format!(
                "a {} cannot be indexed",
                other.type_name()
            ))),
        }
    }

    fn call_function(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        // Built-ins first.
        if let Some(value) = stdlib::call_builtin(name, args, &mut self.output)? {
            return Ok(value);
        }
        // Then user-defined functions.
        let func = match self.functions.get(name) {
            Some(f) => f.clone(),
            None => {
                // A variable holding a function value can also be called.
                match self.env.lookup(name) {
                    Ok(Value::Function(f)) => f,
                    _ => return Err(ScriptError::UnknownFunction(name.to_string())),
                }
            }
        };
        if args.len() != func.params.len() {
            return Err(ScriptError::ArgumentError {
                function: name.to_string(),
                message: format!(
                    "expected {} argument(s), got {}",
                    func.params.len(),
                    args.len()
                ),
            });
        }
        let bindings: BTreeMap<String, Value> = func
            .params
            .iter()
            .cloned()
            .zip(args.iter().cloned())
            .collect();
        self.env.push_frame(bindings);
        let mut last = Value::Null;
        let result = self.exec_block(&func.body, &mut last);
        self.env.pop_frame();
        match result? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Null),
            Flow::Break | Flow::Continue => Err(ScriptError::Runtime(
                "break/continue outside of a loop".to_string(),
            )),
        }
    }

    fn binary(&self, l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
        use BinaryOp::*;
        match op {
            Eq => return Ok(Value::Bool(l.approx_eq(r))),
            NotEq => return Ok(Value::Bool(!l.approx_eq(r))),
            Lt | LtEq | Gt | GtEq => {
                let ord = l.partial_cmp_value(r).ok_or_else(|| {
                    ScriptError::TypeError(format!(
                        "cannot compare {} and {}",
                        l.type_name(),
                        r.type_name()
                    ))
                })?;
                let result = match op {
                    Lt => ord == std::cmp::Ordering::Less,
                    LtEq => ord != std::cmp::Ordering::Greater,
                    Gt => ord == std::cmp::Ordering::Greater,
                    GtEq => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                };
                return Ok(Value::Bool(result));
            }
            In | NotIn => {
                let contained = match r {
                    Value::List(items) => items.borrow().iter().any(|v| v.approx_eq(l)),
                    Value::Dict(map) => map.borrow().contains_key(&l.as_key()?),
                    Value::Str(s) => s.contains(l.expect_str("in")?),
                    Value::Graph(g) => g.borrow().has_node(l.expect_str("in")?),
                    other => {
                        return Err(ScriptError::TypeError(format!(
                            "'in' is not supported for {}",
                            other.type_name()
                        )))
                    }
                };
                return Ok(Value::Bool(contained == (op == In)));
            }
            And | Or => unreachable!("short-circuited in eval"),
            _ => {}
        }

        // String / list concatenation and repetition.
        if op == Add {
            if let (Value::Str(a), Value::Str(b)) = (l, r) {
                return Ok(Value::Str(format!("{a}{b}").into()));
            }
            if let (Value::Str(a), b) = (l, r) {
                if b.as_f64().is_some() {
                    return Ok(Value::Str(format!("{a}{b}").into()));
                }
            }
            if let (Value::List(a), Value::List(b)) = (l, r) {
                let mut out = a.borrow().clone();
                out.extend(b.borrow().clone());
                return Ok(Value::list(out));
            }
        }
        if op == Mul {
            if let (Value::Str(s), Value::Int(n)) = (l, r) {
                return Ok(Value::Str(s.repeat((*n).max(0) as usize).into()));
            }
        }

        let (a, b) = match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(ScriptError::TypeError(format!(
                    "unsupported operand types for arithmetic: {} and {}",
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
                    return Err(ScriptError::Runtime("division by zero".to_string()));
                }
                a / b
            }
            Mod => {
                if b == 0.0 {
                    return Err(ScriptError::Runtime("modulo by zero".to_string()));
                }
                a % b
            }
            Pow => a.powf(b),
            _ => unreachable!(),
        };
        let both_int = matches!((l, r), (Value::Int(_), Value::Int(_)));
        if both_int && result.fract() == 0.0 && matches!(op, Add | Sub | Mul | Mod | Pow) {
            Ok(Value::Int(result as i64))
        } else {
            Ok(Value::Float(result))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{attrs, Graph};

    fn run(src: &str) -> Value {
        Interpreter::new().run(src).unwrap().value
    }

    fn run_err(src: &str) -> ScriptError {
        Interpreter::new().run(src).unwrap_err()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("1 + 2 * 3").to_string(), "7");
        assert_eq!(run("(1 + 2) * 3").to_string(), "9");
        assert_eq!(run("10 / 4").to_string(), "2.5");
        assert_eq!(run("2 ** 10").to_string(), "1024");
        assert_eq!(run("7 % 3").to_string(), "1");
        assert_eq!(run("-3 + 1").to_string(), "-2");
        assert_eq!(run("\"a\" + \"b\"").to_string(), "ab");
        assert_eq!(run("\"ab\" * 3").to_string(), "ababab");
    }

    #[test]
    fn variables_and_augmented_assignment() {
        assert_eq!(run("x = 5\nx += 2\nx * 10").to_string(), "70");
        assert_eq!(run("x = 1\nx -= 3\nx").to_string(), "-2");
    }

    #[test]
    fn result_variable_wins_over_last_expression() {
        assert_eq!(run("result = 42\n1 + 1").to_string(), "42");
        assert_eq!(run("1 + 1").to_string(), "2");
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run("1 < 2 and 3 >= 3").to_string(), "true");
        assert_eq!(run("1 > 2 or not false").to_string(), "true");
        assert_eq!(run("\"a\" in \"cat\"").to_string(), "true");
        assert_eq!(run("2 in [1, 2, 3]").to_string(), "true");
        assert_eq!(run("5 not in [1, 2, 3]").to_string(), "true");
    }

    #[test]
    fn if_elif_else() {
        let src =
            "x = 7\nif x > 10 { r = \"big\" } elif x > 5 { r = \"mid\" } else { r = \"small\" }\nr";
        assert_eq!(run(src).to_string(), "mid");
    }

    #[test]
    fn for_loops_with_accumulator_and_break_continue() {
        let src = "total = 0\nfor i in range(10) {\n  if i % 2 == 0 { continue }\n  if i > 7 { break }\n  total += i\n}\ntotal";
        // 1 + 3 + 5 + 7 = 16
        assert_eq!(run(src).to_string(), "16");
    }

    #[test]
    fn while_loop_and_step_limit() {
        assert_eq!(run("n = 0\nwhile n < 5 { n += 1 }\nn").to_string(), "5");
        let err = Interpreter::new()
            .with_step_limit(1000)
            .run("while true { x = 1 }")
            .unwrap_err();
        assert!(matches!(err, ScriptError::StepLimit(_)));
    }

    #[test]
    fn functions_recursion_and_scoping() {
        let src =
            "fn fib(n) {\n  if n < 2 { return n }\n  return fib(n - 1) + fib(n - 2)\n}\nfib(10)";
        assert_eq!(run(src).to_string(), "55");
        // Local variables do not leak.
        let err = run_err("fn f() { local = 1 }\nf()\nlocal");
        assert!(matches!(err, ScriptError::NameError(_)));
    }

    #[test]
    fn lists_dicts_indexing_and_mutation() {
        assert_eq!(
            run("xs = [1, 2, 3]\nxs[1] = 9\nxs[1] + xs[-1]").to_string(),
            "12"
        );
        assert_eq!(
            run("d = {\"a\": 1}\nd[\"b\"] = 2\nd[\"a\"] + d[\"b\"]").to_string(),
            "3"
        );
        assert_eq!(run("d = {\"k\": 5}\nd.k").to_string(), "5");
        let err = run_err("d = {}\nd[\"missing\"]");
        assert!(err.is_missing_attribute());
        let err = run_err("xs = [1]\nxs[5]");
        assert!(matches!(err, ScriptError::Runtime(_)));
    }

    #[test]
    fn loop_destructuring_over_dict_items() {
        let src = "d = {\"a\": 1, \"b\": 2}\ntotal = 0\nfor k, v in items(d) { total += v }\ntotal";
        assert_eq!(run(src).to_string(), "3");
    }

    #[test]
    fn print_is_captured() {
        let outcome = Interpreter::new()
            .run("print(\"hello\", 1 + 1)\n3")
            .unwrap();
        assert_eq!(outcome.output, vec!["hello 2".to_string()]);
        assert_eq!(outcome.value.to_string(), "3");
    }

    #[test]
    fn error_taxonomy_from_programs() {
        assert!(run_err("undefined_variable + 1")
            .to_string()
            .contains("not defined"));
        assert!(matches!(
            run_err("frobnicate(1)"),
            ScriptError::UnknownFunction(_)
        ));
        assert!(run_err("fn f(a, b) { return a }\nf(1)").is_argument_error());
        assert!(matches!(run_err("1 / 0"), ScriptError::Runtime(_)));
        assert!(matches!(run_err("\"a\" - 1"), ScriptError::TypeError(_)));
        assert!(run_err("x = (1 + ").is_syntax());
    }

    #[test]
    fn graph_globals_are_shared_and_mutable() {
        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("bytes", 5i64)]));
        let gv = Value::graph(g);
        let mut interp = Interpreter::new();
        interp.set_global("G", gv.clone());
        let outcome = interp
            .run("G.set_node_attr(\"a\", \"color\", \"red\")\nresult = G.get_node_attr(\"a\", \"color\")")
            .unwrap();
        assert_eq!(outcome.value.to_string(), "red");
        // The caller's graph reflects the mutation.
        if let Value::Graph(g) = &gv {
            assert_eq!(
                g.borrow().get_node_attr("a", "color").unwrap().as_str(),
                Some("red")
            );
        }
    }

    #[test]
    fn end_to_end_traffic_style_program() {
        // "Assign a unique color for each /16 IP address prefix."
        let mut g = Graph::directed();
        g.add_edge("10.0.1.1", "10.0.2.2", attrs([("bytes", 10i64)]));
        g.add_edge("10.1.3.3", "10.0.1.1", attrs([("bytes", 20i64)]));
        let gv = Value::graph(g);
        let mut interp = Interpreter::new();
        interp.set_global("G", gv.clone());
        let src = r#"
prefixes = []
for n in G.nodes() {
    p = ip_prefix(n, 2)
    if p not in prefixes {
        prefixes.append(p)
    }
}
prefixes.sort()
mapping = {}
i = 0
for p in prefixes {
    mapping[p] = palette_color(i)
    i += 1
}
for n in G.nodes() {
    G.set_node_attr(n, "color", mapping[ip_prefix(n, 2)])
}
result = mapping
"#;
        let outcome = interp.run(src).unwrap();
        assert!(outcome.value.to_string().contains("10.0"));
        if let Value::Graph(g) = &gv {
            let g = g.borrow();
            let c1 = g.get_node_attr("10.0.1.1", "color").unwrap().clone();
            let c2 = g.get_node_attr("10.0.2.2", "color").unwrap().clone();
            let c3 = g.get_node_attr("10.1.3.3", "color").unwrap().clone();
            assert_eq!(c1, c2);
            assert_ne!(c1, c3);
        }
    }
}
