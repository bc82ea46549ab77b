//! SQL tokenizer.
//!
//! Keywords are case-insensitive; identifiers preserve case but compare
//! case-insensitively in the catalog. String literals use single quotes with
//! `''` as the escape for a quote, matching MySQL. `--` line comments and
//! `/* … */` block comments are skipped, so comment-prefixed statements
//! normalize to the same template as their bare form (and classify, dedup
//! and fuse identically).

use std::borrow::Cow;

use crate::error::SqlError;

/// One SQL token, borrowing its text from the statement it was lexed from.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Keyword or identifier (uppercased keywords are matched by the parser).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes stripped, escapes resolved): a slice of the
    /// statement, owned only when a `''` escape had to be resolved.
    Str(Cow<'a, str>),
    /// Punctuation and operators: `( ) , * . = != < <= > >= + - /`.
    Symbol(&'static str),
}

/// The tokens of `sql`, lexed one at a time; the first error ends the
/// stream.
#[derive(Debug, Clone)]
pub(crate) struct Lexer<'a> {
    sql: &'a str,
    pos: usize,
}

/// Lexes `sql` on demand (see [`Lexer`]).
pub(crate) fn lex(sql: &str) -> Lexer<'_> {
    Lexer { sql, pos: 0 }
}

/// Tokenizes `sql`, returning an error with byte position on bad input.
pub fn tokenize(sql: &str) -> Result<Vec<Token<'_>>, SqlError> {
    lex(sql).collect()
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, SqlError>;

    fn next(&mut self) -> Option<Self::Item> {
        let token = self.token();
        if let Some(Err(_)) = token {
            self.pos = self.sql.len();
        }
        token
    }
}

impl<'a> Lexer<'a> {
    /// The next token, skipping whitespace and comments.
    fn token(&mut self) -> Option<Result<Token<'a>, SqlError>> {
        let sql = self.sql;
        let bytes = sql.as_bytes();
        let i = &mut self.pos;
        while *i < bytes.len() {
            let c = bytes[*i] as char;
            let sym = |s: &'static str, i: &mut usize| {
                *i += s.len();
                Some(Ok(Token::Symbol(s)))
            };
            match c {
                ' ' | '\t' | '\n' | '\r' => *i += 1,
                '-' if bytes.get(*i + 1) == Some(&b'-') => {
                    // `-- …` line comment: skip to end of line.
                    while *i < bytes.len() && bytes[*i] != b'\n' {
                        *i += 1;
                    }
                }
                '/' if bytes.get(*i + 1) == Some(&b'*') => {
                    // `/* … */` block comment.
                    let start = *i;
                    *i += 2;
                    loop {
                        match bytes.get(*i) {
                            None => {
                                return Some(Err(SqlError::lex(sql, start, "unterminated comment")))
                            }
                            Some(b'*') if bytes.get(*i + 1) == Some(&b'/') => {
                                *i += 2;
                                break;
                            }
                            Some(_) => *i += 1,
                        }
                    }
                }
                '(' => return sym("(", i),
                ')' => return sym(")", i),
                ',' => return sym(",", i),
                '*' => return sym("*", i),
                '.' => return sym(".", i),
                '+' => return sym("+", i),
                '-' => return sym("-", i),
                '/' => return sym("/", i),
                ';' => return sym(";", i),
                '=' => return sym("=", i),
                '!' => {
                    return match bytes.get(*i + 1) {
                        Some(b'=') => sym("!=", i),
                        _ => Some(Err(SqlError::lex(sql, *i, "expected '=' after '!'"))),
                    }
                }
                '<' => {
                    return match bytes.get(*i + 1) {
                        Some(b'=') => sym("<=", i),
                        Some(b'>') => {
                            *i += 2;
                            Some(Ok(Token::Symbol("!=")))
                        }
                        _ => sym("<", i),
                    }
                }
                '>' => {
                    return match bytes.get(*i + 1) {
                        Some(b'=') => sym(">=", i),
                        _ => sym(">", i),
                    }
                }
                '\'' => {
                    // The quotes are ASCII, so every slice between them is
                    // whole UTF-8 text: a literal is a slice of `sql`, and
                    // an escaped one is its slices joined.
                    *i += 1;
                    let mut start = *i;
                    let mut owned: Option<String> = None;
                    loop {
                        match bytes.get(*i) {
                            None => {
                                return Some(Err(SqlError::lex(sql, *i, "unterminated string")))
                            }
                            Some(b'\'') if bytes.get(*i + 1) == Some(&b'\'') => {
                                owned
                                    .get_or_insert_with(String::new)
                                    .push_str(&sql[start..=*i]);
                                *i += 2;
                                start = *i;
                            }
                            Some(b'\'') => break,
                            Some(_) => *i += 1,
                        }
                    }
                    let tail = &sql[start..*i];
                    *i += 1;
                    return Some(Ok(Token::Str(match owned {
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                        None => Cow::Borrowed(tail),
                    })));
                }
                '0'..='9' => {
                    let start = *i;
                    while *i < bytes.len() && bytes[*i].is_ascii_digit() {
                        *i += 1;
                    }
                    let mut is_float = false;
                    if *i < bytes.len()
                        && bytes[*i] == b'.'
                        && *i + 1 < bytes.len()
                        && bytes[*i + 1].is_ascii_digit()
                    {
                        is_float = true;
                        *i += 1;
                        while *i < bytes.len() && bytes[*i].is_ascii_digit() {
                            *i += 1;
                        }
                    }
                    let text = &sql[start..*i];
                    return Some(if is_float {
                        text.parse::<f64>()
                            .map(Token::Float)
                            .map_err(|_| SqlError::lex(sql, start, "bad float literal"))
                    } else {
                        text.parse::<i64>()
                            .map(Token::Int)
                            .map_err(|_| SqlError::lex(sql, start, "integer literal overflow"))
                    });
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = *i;
                    while *i < bytes.len()
                        && (bytes[*i].is_ascii_alphanumeric() || bytes[*i] == b'_')
                    {
                        *i += 1;
                    }
                    return Some(Ok(Token::Ident(&sql[start..*i])));
                }
                _ => return Some(Err(SqlError::lex(sql, *i, "unexpected character"))),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE x = 3").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT"));
        assert_eq!(toks[1], Token::Ident("a"));
        assert_eq!(toks[2], Token::Symbol(","));
        assert!(toks.contains(&Token::Int(3)));
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
        assert_eq!(tokenize("'a'''").unwrap(), vec![Token::Str("a'".into())]);
        assert_eq!(tokenize("''''").unwrap(), vec![Token::Str("'".into())]);
        assert_eq!(tokenize("''").unwrap(), vec![Token::Str("".into())]);
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("a <= b >= c != d <> e").unwrap();
        let syms: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(syms, vec!["<=", ">=", "!=", "!="]);
    }

    #[test]
    fn float_vs_qualified_name() {
        let toks = tokenize("1.5 t.c").unwrap();
        assert_eq!(toks[0], Token::Float(1.5));
        assert_eq!(toks[1], Token::Ident("t"));
        assert_eq!(toks[2], Token::Symbol("."));
        assert_eq!(toks[3], Token::Ident("c"));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
        assert!(tokenize("'abc''").is_err());
    }

    /// A literal is the statement's own UTF-8 text, borrowed unless a
    /// `''` escape had to be resolved.
    #[test]
    fn string_literals_keep_their_utf8_text() {
        let toks = tokenize("'café' 'naïve''s' '日本'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("café".into()),
                Token::Str("naïve's".into()),
                Token::Str("日本".into()),
            ]
        );
        assert!(matches!(toks[0], Token::Str(Cow::Borrowed(_))));
        assert!(matches!(toks[1], Token::Str(Cow::Owned(_))));
    }

    #[test]
    fn the_first_error_ends_the_stream() {
        let mut lexer = lex("a @ b");
        assert_eq!(lexer.next(), Some(Ok(Token::Ident("a"))));
        assert!(matches!(lexer.next(), Some(Err(_))));
        assert_eq!(lexer.next(), None);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("-- hello\nSELECT a /* mid */ FROM t -- tail").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT"),
                Token::Ident("a"),
                Token::Ident("FROM"),
                Token::Ident("t"),
            ]
        );
        // Minus and division still lex as operators.
        let toks = tokenize("a - b / c").unwrap();
        assert_eq!(toks.len(), 5);
        assert!(tokenize("/* open").is_err());
    }

    #[test]
    fn bad_character_errors() {
        assert!(tokenize("SELECT @").is_err());
    }
}
