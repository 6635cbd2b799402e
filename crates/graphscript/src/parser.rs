//! Recursive-descent parser for GraphScript.

use crate::ast::*;
use crate::error::{Result, ScriptError};
use crate::lexer::tokenize;
use crate::token::{Keyword, Token, TokenKind};

/// Parses a complete program.
pub fn parse_program(source: &str) -> Result<Program> {
    let tokens = tokenize(source)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut statements = Vec::new();
    parser.skip_terminators();
    while !parser.at_eof() {
        statements.push(parser.statement()?);
        parser.skip_terminators();
    }
    Ok(Program { statements })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(ScriptError::Syntax {
            line: self.line(),
            message: message.into(),
        })
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            self.error(format!("expected {kind}, found {}", self.peek()))
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if *k == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            other => self.error(format!("expected a name, found {other}")),
        }
    }

    fn skip_terminators(&mut self) {
        while matches!(self.peek(), TokenKind::Terminator) {
            self.advance();
        }
    }

    /// Consumes an end-of-statement marker: a terminator, or nothing when the
    /// next token closes the enclosing block / ends the file.
    fn end_statement(&mut self) -> Result<()> {
        match self.peek() {
            TokenKind::Terminator => {
                self.advance();
                Ok(())
            }
            TokenKind::RBrace | TokenKind::Eof => Ok(()),
            other => self.error(format!("expected end of statement, found {other}")),
        }
    }

    // ---------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Stmt> {
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::If) => self.if_statement(),
            TokenKind::Keyword(Keyword::For) => self.for_statement(),
            TokenKind::Keyword(Keyword::While) => self.while_statement(),
            TokenKind::Keyword(Keyword::Fn) => self.fn_statement(),
            TokenKind::Keyword(Keyword::Return) => {
                self.advance();
                let value = if matches!(
                    self.peek(),
                    TokenKind::Terminator | TokenKind::RBrace | TokenKind::Eof
                ) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.end_statement()?;
                Ok(Stmt::Return(value))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.advance();
                self.end_statement()?;
                Ok(Stmt::Break)
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.advance();
                self.end_statement()?;
                Ok(Stmt::Continue)
            }
            _ => self.simple_statement(),
        }
    }

    /// Assignment, augmented assignment or a bare expression.
    fn simple_statement(&mut self) -> Result<Stmt> {
        let expr = self.expression()?;
        let stmt = match self.peek() {
            TokenKind::Assign => {
                self.advance();
                let value = self.expression()?;
                let target = match expr {
                    Expr::Name(name) => AssignTarget::Name(name),
                    Expr::Index { object, index } => AssignTarget::Index {
                        object: *object,
                        index: *index,
                    },
                    _ => return self.error("invalid assignment target"),
                };
                Stmt::Assign { target, value }
            }
            TokenKind::PlusAssign
            | TokenKind::MinusAssign
            | TokenKind::StarAssign
            | TokenKind::SlashAssign => {
                let op = match self.advance() {
                    TokenKind::PlusAssign => BinaryOp::Add,
                    TokenKind::MinusAssign => BinaryOp::Sub,
                    TokenKind::StarAssign => BinaryOp::Mul,
                    TokenKind::SlashAssign => BinaryOp::Div,
                    _ => unreachable!(),
                };
                let value = self.expression()?;
                match expr {
                    Expr::Name(name) => Stmt::AugAssign { name, op, value },
                    _ => return self.error("augmented assignment target must be a name"),
                }
            }
            _ => Stmt::Expr(expr),
        };
        self.end_statement()?;
        Ok(stmt)
    }

    fn block(&mut self) -> Result<Vec<Stmt>> {
        self.expect(&TokenKind::LBrace)?;
        self.skip_terminators();
        let mut body = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            body.push(self.statement()?);
            self.skip_terminators();
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(body)
    }

    fn if_statement(&mut self) -> Result<Stmt> {
        self.advance(); // if
        let mut branches = Vec::new();
        let cond = self.expression()?;
        let body = self.block()?;
        branches.push((cond, body));
        let mut otherwise = None;
        loop {
            // Allow a newline between `}` and `elif`/`else`.
            let checkpoint = self.pos;
            self.skip_terminators();
            if self.eat_keyword(Keyword::Elif) {
                let cond = self.expression()?;
                let body = self.block()?;
                branches.push((cond, body));
            } else if self.eat_keyword(Keyword::Else) {
                if self.eat_keyword(Keyword::If) {
                    let cond = self.expression()?;
                    let body = self.block()?;
                    branches.push((cond, body));
                } else {
                    otherwise = Some(self.block()?);
                    break;
                }
            } else {
                self.pos = checkpoint;
                break;
            }
        }
        Ok(Stmt::If {
            branches,
            otherwise,
        })
    }

    fn for_statement(&mut self) -> Result<Stmt> {
        self.advance(); // for
        let mut vars = vec![self.ident()?];
        while self.eat(&TokenKind::Comma) {
            vars.push(self.ident()?);
        }
        if !self.eat_keyword(Keyword::In) {
            return self.error("expected 'in' in for loop");
        }
        let iterable = self.expression()?;
        let body = self.block()?;
        Ok(Stmt::For {
            vars,
            iterable,
            body,
        })
    }

    fn while_statement(&mut self) -> Result<Stmt> {
        self.advance(); // while
        let cond = self.expression()?;
        let body = self.block()?;
        Ok(Stmt::While { cond, body })
    }

    fn fn_statement(&mut self) -> Result<Stmt> {
        self.advance(); // fn / def
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                params.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let body = self.block()?;
        Ok(Stmt::FnDef { name, params, body })
    }

    // --------------------------------------------------------- expressions
    //
    // Precedence (lowest first): or, and, not, comparison/in, additive,
    // multiplicative, power, unary, postfix (call/index/attr), primary.

    fn expression(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword(Keyword::Not) || self.eat(&TokenKind::Bang) {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        let op = match self.peek() {
            TokenKind::EqEq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            TokenKind::Keyword(Keyword::In) => Some(BinaryOp::In),
            TokenKind::Keyword(Keyword::Not) => {
                // `x not in y`
                if matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::Keyword(Keyword::In))
                ) {
                    self.advance();
                    Some(BinaryOp::NotIn)
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.power()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.power()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn power(&mut self) -> Result<Expr> {
        let base = self.unary()?;
        if self.eat(&TokenKind::StarStar) {
            // Right-associative.
            let exponent = self.power()?;
            return Ok(Expr::binary(base, BinaryOp::Pow, exponent));
        }
        Ok(base)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        self.postfix()
    }

    /// Calls, method calls, indexing and attribute access, left to right.
    fn postfix(&mut self) -> Result<Expr> {
        let mut expr = self.primary()?;
        loop {
            match self.peek().clone() {
                TokenKind::LParen => {
                    self.advance();
                    let args = self.arguments()?;
                    expr = match expr {
                        Expr::Name(name) => Expr::Call { name, args },
                        Expr::Attr { object, name } => Expr::MethodCall { object, name, args },
                        other => {
                            return self.error(format!(
                            "cannot call {other:?}: only named functions and methods are callable"
                        ))
                        }
                    };
                }
                TokenKind::LBracket => {
                    self.advance();
                    let index = self.expression()?;
                    self.expect(&TokenKind::RBracket)?;
                    expr = Expr::Index {
                        object: Box::new(expr),
                        index: Box::new(index),
                    };
                }
                TokenKind::Dot => {
                    self.advance();
                    let name = self.ident()?;
                    expr = Expr::Attr {
                        object: Box::new(expr),
                        name,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn arguments(&mut self) -> Result<Vec<Expr>> {
        let mut args = Vec::new();
        if self.eat(&TokenKind::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expression()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.advance();
                Ok(Expr::Int(i))
            }
            TokenKind::Float(x) => {
                self.advance();
                Ok(Expr::Float(x))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Str(s.into()))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Bool(true))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Bool(false))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Null)
            }
            TokenKind::Ident(name) => {
                self.advance();
                Ok(Expr::Name(name))
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.expression()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::LBracket => {
                self.advance();
                let mut items = Vec::new();
                if !self.eat(&TokenKind::RBracket) {
                    loop {
                        items.push(self.expression()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        // Allow a trailing comma.
                        if matches!(self.peek(), TokenKind::RBracket) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RBracket)?;
                }
                Ok(Expr::List(items))
            }
            TokenKind::LBrace => {
                self.advance();
                let mut pairs = Vec::new();
                if !self.eat(&TokenKind::RBrace) {
                    loop {
                        let key = self.expression()?;
                        self.expect(&TokenKind::Colon)?;
                        let value = self.expression()?;
                        pairs.push((key, value));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        if matches!(self.peek(), TokenKind::RBrace) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RBrace)?;
                }
                Ok(Expr::Dict(pairs))
            }
            other => self.error(format!("unexpected token {other} in expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_assignment_and_method_chain() {
        let p = parse_program("total = G.node_attrs(\"a\").get(\"bytes\")").unwrap();
        assert_eq!(p.statements.len(), 1);
        let Stmt::Assign { target, value } = &p.statements[0] else {
            panic!("expected assignment")
        };
        assert_eq!(*target, AssignTarget::Name("total".into()));
        assert!(matches!(value, Expr::MethodCall { name, .. } if name == "get"));
    }

    #[test]
    fn parses_if_elif_else() {
        let src = "if x > 1 {\n a = 1\n} elif x > 0 {\n a = 2\n} else {\n a = 3\n}";
        let p = parse_program(src).unwrap();
        let Stmt::If {
            branches,
            otherwise,
        } = &p.statements[0]
        else {
            panic!()
        };
        assert_eq!(branches.len(), 2);
        assert!(otherwise.is_some());
    }

    #[test]
    fn parses_else_if_spelling() {
        let src = "if x { a = 1 } else if y { a = 2 } else { a = 3 }";
        let p = parse_program(src).unwrap();
        let Stmt::If {
            branches,
            otherwise,
        } = &p.statements[0]
        else {
            panic!()
        };
        assert_eq!(branches.len(), 2);
        assert!(otherwise.is_some());
    }

    #[test]
    fn parses_for_with_two_vars_and_while() {
        let src = "for u, v in G.edges() {\n  count += 1\n}\nwhile count > 0 {\n  count -= 1\n}";
        let p = parse_program(src).unwrap();
        assert_eq!(p.statements.len(), 2);
        let Stmt::For { vars, .. } = &p.statements[0] else {
            panic!()
        };
        assert_eq!(vars, &vec!["u".to_string(), "v".to_string()]);
        assert!(matches!(p.statements[1], Stmt::While { .. }));
    }

    #[test]
    fn parses_function_definition_and_return() {
        let src =
            "fn prefix(addr, n) {\n  parts = addr.split(\".\")\n  return join(\".\", parts)\n}";
        let p = parse_program(src).unwrap();
        let Stmt::FnDef { name, params, body } = &p.statements[0] else {
            panic!()
        };
        assert_eq!(name, "prefix");
        assert_eq!(params.len(), 2);
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn parses_indexed_assignment_and_dict_literal() {
        let src = "totals = {}\ntotals[\"a\"] = 1 + 2 * 3";
        let p = parse_program(src).unwrap();
        assert!(matches!(p.statements[0], Stmt::Assign { .. }));
        let Stmt::Assign { target, value } = &p.statements[1] else {
            panic!()
        };
        assert!(matches!(target, AssignTarget::Index { .. }));
        // Precedence: 1 + (2 * 3).
        let Expr::Binary { op, right, .. } = value else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            **right,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn parses_membership_and_not_in() {
        let p = parse_program("a = x in items and y not in items").unwrap();
        let Stmt::Assign { value, .. } = &p.statements[0] else {
            panic!()
        };
        assert!(matches!(
            value,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn parses_list_and_trailing_comma() {
        let p = parse_program("xs = [1, 2, 3,]").unwrap();
        let Stmt::Assign { value, .. } = &p.statements[0] else {
            panic!()
        };
        let Expr::List(items) = value else { panic!() };
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn power_is_right_associative() {
        let p = parse_program("x = 2 ** 3 ** 2").unwrap();
        let Stmt::Assign { value, .. } = &p.statements[0] else {
            panic!()
        };
        let Expr::Binary { right, .. } = value else {
            panic!()
        };
        assert!(matches!(
            **right,
            Expr::Binary {
                op: BinaryOp::Pow,
                ..
            }
        ));
    }

    #[test]
    fn syntax_errors_are_reported_with_lines() {
        let err = parse_program("x = 1\ny = (2 + \n").unwrap_err();
        assert!(err.is_syntax());
        let err = parse_program("for x G.nodes() { }").unwrap_err();
        assert!(err.to_string().contains("'in'") || err.to_string().contains("in"));
        assert!(parse_program("if x { y = 1 ").is_err());
        assert!(parse_program("fn () { }").is_err());
        assert!(parse_program("x = = 3").is_err());
    }

    #[test]
    fn python_def_and_none_are_accepted() {
        let src = "def f(a) {\n  return None\n}\nr = f(True)";
        let p = parse_program(src).unwrap();
        assert_eq!(p.statements.len(), 2);
    }
}
