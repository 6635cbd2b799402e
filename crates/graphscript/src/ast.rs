//! Abstract syntax tree for GraphScript.

use std::sync::Arc;

/// A parsed program: a sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements in source order.
    pub statements: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// An expression evaluated for its side effects; the value of the last
    /// top-level expression statement becomes the program result.
    Expr(Expr),
    /// `name = expr` or `target[index] = expr`.
    Assign {
        /// What is being assigned to.
        target: AssignTarget,
        /// The assigned expression.
        value: Expr,
    },
    /// Augmented assignment (`x += 1`); only plain names are supported as
    /// targets, matching how the generated programs use it.
    AugAssign {
        /// Variable being updated.
        name: String,
        /// `+`, `-`, `*` or `/`.
        op: BinaryOp,
        /// Right-hand side.
        value: Expr,
    },
    /// `if cond { ... } elif cond { ... } else { ... }`
    If {
        /// `(condition, body)` pairs: the `if` arm followed by `elif` arms.
        branches: Vec<(Expr, Vec<Stmt>)>,
        /// The `else` body, if present.
        otherwise: Option<Vec<Stmt>>,
    },
    /// `for var in iterable { ... }`
    For {
        /// Loop variable name (or two names for `for k, v in ...`).
        vars: Vec<String>,
        /// The iterated expression.
        iterable: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `while cond { ... }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `fn name(params) { ... }`
    FnDef {
        /// Function name.
        name: String,
        /// Parameter names.
        params: Vec<String>,
        /// Function body.
        body: Vec<Stmt>,
    },
    /// `return [expr]`
    Return(Option<Expr>),
    /// `break`
    Break,
    /// `continue`
    Continue,
}

/// The left-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignTarget {
    /// A plain variable.
    Name(String),
    /// `container[index] = ...` (list element or dict key).
    Index {
        /// The container expression.
        object: Expr,
        /// The index/key expression.
        index: Expr,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `==`
    Eq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `and`
    And,
    /// `or`
    Or,
    /// `in` (membership test)
    In,
    /// `not in`
    NotIn,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `null` / `None`
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal, shared with every value it evaluates to.
    Str(Arc<str>),
    /// A variable reference.
    Name(String),
    /// `[a, b, c]`
    List(Vec<Expr>),
    /// `{"k": v, ...}`
    Dict(Vec<(Expr, Expr)>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical not (`not x` / `!x`).
    Not(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A free function call `name(args)`.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A method call `receiver.name(args)`.
    MethodCall {
        /// The receiver expression.
        object: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Subscription `object[index]`.
    Index {
        /// The container.
        object: Box<Expr>,
        /// The index or key.
        index: Box<Expr>,
    },
    /// Attribute access without a call, `object.name` (used for dict field
    /// sugar and for erroring helpfully on unknown members).
    Attr {
        /// The receiver expression.
        object: Box<Expr>,
        /// Attribute name.
        name: String,
    },
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_helper_builds_tree() {
        let e = Expr::binary(Expr::Int(1), BinaryOp::Add, Expr::Int(2));
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Add,
                ..
            }
        ));
    }
}
