//! Converts GraphScript source text into a token stream.
//!
//! Statements are newline-terminated (a `;` also works); newlines inside
//! parentheses, brackets and braces are ignored so expressions can span
//! lines, and a comment runs from `#` to the end of the line.

use crate::error::{Result, ScriptError};
use crate::token::{Keyword, Token, TokenKind};

/// Tokenizes a program. The stream always ends with an end-of-file token.
pub fn tokenize(source: &str) -> Result<Vec<Token>> {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens: Vec<Token> = Vec::new();
    let mut i = 0;
    let mut line = 1;
    // Nesting depth of (), [] and {} used to suppress newline terminators
    // inside multi-line expressions. Braces open statement blocks too, so
    // they do not suppress terminators.
    let mut paren_depth: i32 = 0;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                if paren_depth == 0 {
                    push_terminator(&mut tokens, line);
                }
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '#' => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '"' | '\'' => {
                let (s, next, newlines) = lex_string(&chars, i, c, line)?;
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    line,
                });
                line += newlines;
                i = next;
            }
            c if c.is_ascii_digit() => {
                let (kind, next) = lex_number(&chars, i, line)?;
                tokens.push(Token { kind, line });
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                let kind = match Keyword::parse(&word) {
                    Some(k) => TokenKind::Keyword(k),
                    None => TokenKind::Ident(word),
                };
                tokens.push(Token { kind, line });
            }
            _ => {
                let (kind, width) = lex_symbol(&chars, i, line)?;
                match &kind {
                    TokenKind::LParen | TokenKind::LBracket => paren_depth += 1,
                    TokenKind::RParen | TokenKind::RBracket => paren_depth -= 1,
                    _ => {}
                }
                tokens.push(Token { kind, line });
                i += width;
            }
        }
    }
    push_terminator(&mut tokens, line);
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

/// Avoids emitting consecutive terminators (blank lines) and a terminator as
/// the very first token.
fn push_terminator(tokens: &mut Vec<Token>, line: usize) {
    match tokens.last().map(|t| &t.kind) {
        None | Some(TokenKind::Terminator) | Some(TokenKind::LBrace) => {}
        _ => tokens.push(Token {
            kind: TokenKind::Terminator,
            line,
        }),
    }
}

fn lex_string(
    chars: &[char],
    start: usize,
    quote: char,
    line: usize,
) -> Result<(String, usize, usize)> {
    let mut out = String::new();
    let mut i = start + 1;
    let mut newlines = 0;
    while i < chars.len() {
        match chars[i] {
            c if c == quote => return Ok((out, i + 1, newlines)),
            '\\' => {
                let escaped = chars.get(i + 1).copied().unwrap_or('\\');
                out.push(match escaped {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                });
                i += 2;
            }
            '\n' => {
                newlines += 1;
                out.push('\n');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    Err(ScriptError::Syntax {
        line,
        message: "unterminated string literal".to_string(),
    })
}

fn lex_number(chars: &[char], start: usize, line: usize) -> Result<(TokenKind, usize)> {
    let mut i = start;
    let mut saw_dot = false;
    while i < chars.len() {
        match chars[i] {
            '0'..='9' => i += 1,
            // A dot is part of the number only if a digit follows; this
            // keeps `5.method()` lexing as Int(5) Dot Ident(method).
            '.' if !saw_dot
                && chars
                    .get(i + 1)
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false) =>
            {
                saw_dot = true;
                i += 1;
            }
            _ => break,
        }
    }
    let text: String = chars[start..i].iter().collect();
    let kind = if saw_dot {
        TokenKind::Float(text.parse::<f64>().map_err(|_| ScriptError::Syntax {
            line,
            message: format!("invalid float literal '{text}'"),
        })?)
    } else {
        TokenKind::Int(text.parse::<i64>().map_err(|_| ScriptError::Syntax {
            line,
            message: format!("invalid integer literal '{text}'"),
        })?)
    };
    Ok((kind, i))
}

fn lex_symbol(chars: &[char], i: usize, line: usize) -> Result<(TokenKind, usize)> {
    let two = |a: char, b: char| chars[i] == a && chars.get(i + 1) == Some(&b);
    if two('=', '=') {
        return Ok((TokenKind::EqEq, 2));
    }
    if two('!', '=') {
        return Ok((TokenKind::NotEq, 2));
    }
    if two('<', '=') {
        return Ok((TokenKind::LtEq, 2));
    }
    if two('>', '=') {
        return Ok((TokenKind::GtEq, 2));
    }
    if two('+', '=') {
        return Ok((TokenKind::PlusAssign, 2));
    }
    if two('-', '=') {
        return Ok((TokenKind::MinusAssign, 2));
    }
    if two('*', '=') {
        return Ok((TokenKind::StarAssign, 2));
    }
    if two('/', '=') {
        return Ok((TokenKind::SlashAssign, 2));
    }
    if two('*', '*') {
        return Ok((TokenKind::StarStar, 2));
    }
    if two('&', '&') {
        return Ok((TokenKind::Keyword(Keyword::And), 2));
    }
    if two('|', '|') {
        return Ok((TokenKind::Keyword(Keyword::Or), 2));
    }
    let kind = match chars[i] {
        '(' => TokenKind::LParen,
        ')' => TokenKind::RParen,
        '[' => TokenKind::LBracket,
        ']' => TokenKind::RBracket,
        '{' => TokenKind::LBrace,
        '}' => TokenKind::RBrace,
        ',' => TokenKind::Comma,
        ':' => TokenKind::Colon,
        '.' => TokenKind::Dot,
        ';' => TokenKind::Terminator,
        '=' => TokenKind::Assign,
        '+' => TokenKind::Plus,
        '-' => TokenKind::Minus,
        '*' => TokenKind::Star,
        '/' => TokenKind::Slash,
        '%' => TokenKind::Percent,
        '<' => TokenKind::Lt,
        '>' => TokenKind::Gt,
        '!' => TokenKind::Bang,
        other => {
            return Err(ScriptError::Syntax {
                line,
                message: format!("unexpected character '{other}'"),
            })
        }
    };
    Ok((kind, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_assignment_and_call() {
        let k = kinds("total = G.number_of_nodes()");
        assert_eq!(k[0], TokenKind::Ident("total".into()));
        assert_eq!(k[1], TokenKind::Assign);
        assert_eq!(k[2], TokenKind::Ident("G".into()));
        assert_eq!(k[3], TokenKind::Dot);
        assert_eq!(k[4], TokenKind::Ident("number_of_nodes".into()));
        assert_eq!(k[5], TokenKind::LParen);
        assert_eq!(k[6], TokenKind::RParen);
        assert_eq!(k[7], TokenKind::Terminator);
    }

    #[test]
    fn newlines_terminate_statements_but_not_inside_parens() {
        let k = kinds("x = foo(1,\n 2)\ny = 3");
        let terminators = k.iter().filter(|t| **t == TokenKind::Terminator).count();
        assert_eq!(terminators, 2);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let k = kinds("# setup\n\nx = 1  # trailing\n");
        assert_eq!(k[0], TokenKind::Ident("x".into()));
        let terminators = k.iter().filter(|t| **t == TokenKind::Terminator).count();
        assert_eq!(terminators, 1);
    }

    #[test]
    fn numbers_ints_floats_and_method_on_int() {
        let k = kinds("a = 42\nb = 3.25\nc = 10 / 4");
        assert!(k.contains(&TokenKind::Int(42)));
        assert!(k.contains(&TokenKind::Float(3.25)));
        assert!(k.contains(&TokenKind::Slash));
    }

    #[test]
    fn string_escapes_and_both_quote_styles() {
        let k = kinds(r#"a = "line\n" + 'single'"#);
        assert!(k.contains(&TokenKind::Str("line\n".into())));
        assert!(k.contains(&TokenKind::Str("single".into())));
    }

    #[test]
    fn python_keywords_map_to_graphscript() {
        let k = kinds("def f(x) { return None }");
        assert_eq!(k[0], TokenKind::Keyword(Keyword::Fn));
        assert!(k.contains(&TokenKind::Keyword(Keyword::Null)));
    }

    #[test]
    fn compound_operators() {
        let k = kinds("x += 1; y **= 0");
        assert!(k.contains(&TokenKind::PlusAssign));
        // `**=` is not an operator; it lexes as `**` then `=`.
        assert!(k.contains(&TokenKind::StarStar));
        let k = kinds("a && b || !c");
        assert!(k.contains(&TokenKind::Keyword(Keyword::And)));
        assert!(k.contains(&TokenKind::Keyword(Keyword::Or)));
        assert!(k.contains(&TokenKind::Bang));
    }

    #[test]
    fn unterminated_string_reports_line() {
        let err = tokenize("x = 1\ny = \"oops").unwrap_err();
        match err {
            ScriptError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unexpected_character_is_syntax_error() {
        assert!(tokenize("x = 1 @ 2").unwrap_err().is_syntax());
    }
}
