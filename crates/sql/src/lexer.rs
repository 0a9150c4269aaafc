//! The SQL lexer: query text → spanned tokens.
//!
//! Identifiers are lowercased at lex time (SQL names are
//! case-insensitive; every schema in this engine is lower-case), string
//! literals use single quotes with `''` as the escape, and numbers split
//! into integer and float literals. Keywords are *not* distinguished
//! here — the parser matches identifier text contextually, so `date` can
//! be both a table name (`FROM date`) and a literal prefix
//! (`DATE '1994-01-01'`).

use crate::error::{Span, SqlError};

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword, lowercased.
    Ident(String),
    Int(i64),
    Float(f64),
    /// String literal contents (quotes stripped, `''` unescaped).
    Str(String),
    Comma,
    LParen,
    RParen,
    Dot,
    Plus,
    Minus,
    Star,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// End of input (always the final token).
    Eof,
}

impl TokenKind {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("`{s}`"),
            TokenKind::Int(v) => format!("`{v}`"),
            TokenKind::Float(v) => format!("`{v}`"),
            TokenKind::Str(s) => format!("'{s}'"),
            TokenKind::Comma => "`,`".to_owned(),
            TokenKind::LParen => "`(`".to_owned(),
            TokenKind::RParen => "`)`".to_owned(),
            TokenKind::Dot => "`.`".to_owned(),
            TokenKind::Plus => "`+`".to_owned(),
            TokenKind::Minus => "`-`".to_owned(),
            TokenKind::Star => "`*`".to_owned(),
            TokenKind::Slash => "`/`".to_owned(),
            TokenKind::Eq => "`=`".to_owned(),
            TokenKind::Ne => "`<>`".to_owned(),
            TokenKind::Lt => "`<`".to_owned(),
            TokenKind::Le => "`<=`".to_owned(),
            TokenKind::Gt => "`>`".to_owned(),
            TokenKind::Ge => "`>=`".to_owned(),
            TokenKind::Eof => "end of input".to_owned(),
        }
    }
}

/// Lex `sql` into tokens (terminated by [`TokenKind::Eof`]).
pub fn lex(sql: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b',' => push(&mut tokens, TokenKind::Comma, start, &mut i),
            b'(' => push(&mut tokens, TokenKind::LParen, start, &mut i),
            b')' => push(&mut tokens, TokenKind::RParen, start, &mut i),
            b'.' => push(&mut tokens, TokenKind::Dot, start, &mut i),
            b'+' => push(&mut tokens, TokenKind::Plus, start, &mut i),
            b'-' => push(&mut tokens, TokenKind::Minus, start, &mut i),
            b'*' => push(&mut tokens, TokenKind::Star, start, &mut i),
            b'/' => push(&mut tokens, TokenKind::Slash, start, &mut i),
            b'=' => push(&mut tokens, TokenKind::Eq, start, &mut i),
            b'<' => {
                let (kind, len) = match bytes.get(i + 1) {
                    Some(b'=') => (TokenKind::Le, 2),
                    Some(b'>') => (TokenKind::Ne, 2),
                    _ => (TokenKind::Lt, 1),
                };
                i += len;
                tokens.push(Token {
                    kind,
                    span: Span::new(start, i),
                });
            }
            b'>' => {
                let (kind, len) = match bytes.get(i + 1) {
                    Some(b'=') => (TokenKind::Ge, 2),
                    _ => (TokenKind::Gt, 1),
                };
                i += len;
                tokens.push(Token {
                    kind,
                    span: Span::new(start, i),
                });
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                i += 2;
                tokens.push(Token {
                    kind: TokenKind::Ne,
                    span: Span::new(start, i),
                });
            }
            b'\'' => {
                let mut value = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(SqlError::new(
                                "unterminated string literal",
                                Span::new(start, bytes.len()),
                            ))
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            value.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(_) => {
                            // Strings are UTF-8; copy the whole char.
                            let s = &sql[i..];
                            let c = s.chars().next().unwrap();
                            value.push(c);
                            i += c.len_utf8();
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(value),
                    span: Span::new(start, i),
                });
            }
            b'0'..=b'9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float =
                    bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
                if is_float {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // Scientific notation (`1.5e3`, `2E-7`): large f64 values
                // print with an exponent, and printed ASTs must re-lex.
                if matches!(bytes.get(i), Some(b'e' | b'E')) {
                    let mut j = i + 1;
                    if matches!(bytes.get(j), Some(b'+' | b'-')) {
                        j += 1;
                    }
                    if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                        is_float = true;
                    }
                }
                if is_float {
                    let text = &sql[start..i];
                    let v: f64 = text.parse().map_err(|_| {
                        SqlError::new(
                            format!("invalid float literal `{text}`"),
                            Span::new(start, i),
                        )
                    })?;
                    tokens.push(Token {
                        kind: TokenKind::Float(v),
                        span: Span::new(start, i),
                    });
                } else {
                    let text = &sql[start..i];
                    let v: i64 = text.parse().map_err(|_| {
                        SqlError::new(
                            format!("integer literal `{text}` out of range"),
                            Span::new(start, i),
                        )
                    })?;
                    tokens.push(Token {
                        kind: TokenKind::Int(v),
                        span: Span::new(start, i),
                    });
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'#')
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(sql[start..i].to_ascii_lowercase()),
                    span: Span::new(start, i),
                });
            }
            other => {
                return Err(SqlError::new(
                    format!("unexpected character `{}`", other as char),
                    Span::new(start, start + 1),
                ))
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(bytes.len(), bytes.len()),
    });
    Ok(tokens)
}

fn push(tokens: &mut Vec<Token>, kind: TokenKind, start: usize, i: &mut usize) {
    *i += 1;
    tokens.push(Token {
        kind,
        span: Span::new(start, *i),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        lex(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT a, 1.5 FROM t WHERE x <= 3"),
            vec![
                TokenKind::Ident("select".into()),
                TokenKind::Ident("a".into()),
                TokenKind::Comma,
                TokenKind::Float(1.5),
                TokenKind::Ident("from".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Ident("where".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Le,
                TokenKind::Int(3),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_escapes_and_comments() {
        assert_eq!(
            kinds("'it''s' -- trailing comment\n<> !="),
            vec![
                TokenKind::Str("it's".into()),
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn idents_keep_hash_and_lowercase() {
        // SSB brand constants like MFGR#12 appear in strings, but `#` in
        // identifiers is tolerated for symmetry with the generators.
        assert_eq!(
            kinds("P_Brand1 mfgr#12"),
            vec![
                TokenKind::Ident("p_brand1".into()),
                TokenKind::Ident("mfgr#12".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn scientific_notation_floats() {
        assert_eq!(
            kinds("1.5e3 2E-7 1.2345678912345678e17"),
            vec![
                TokenKind::Float(1.5e3),
                TokenKind::Float(2e-7),
                TokenKind::Float(1.2345678912345678e17),
                TokenKind::Eof,
            ]
        );
        // A bare `e` after a number is an identifier, not an exponent —
        // `CASE WHEN c THEN 1 ELSE 0 END` must keep lexing END.
        assert_eq!(
            kinds("1 end"),
            vec![
                TokenKind::Int(1),
                TokenKind::Ident("end".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let toks = lex("ab  <=").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(4, 6));
        assert_eq!(toks[2].span, Span::new(6, 6));
    }

    #[test]
    fn errors_carry_positions() {
        let err = lex("a ; b").unwrap_err();
        assert_eq!(err.span, Span::new(2, 3));
        let err = lex("'open").unwrap_err();
        assert_eq!(err.span.start, 0);
        let err = lex("a = ?").unwrap_err();
        assert_eq!(err.span, Span::new(4, 5));
        let err = lex("b = $1").unwrap_err();
        assert_eq!(err.span, Span::new(4, 5));
    }
}
