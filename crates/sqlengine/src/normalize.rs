//! Statement normalization: extracting a **parameterized template** from a
//! SQL string.
//!
//! ORM-generated workloads consist almost entirely of *template queries* —
//! statements that are byte-for-byte identical except for their literal
//! values (`SELECT * FROM issue WHERE project_id = 7` vs `… = 8`). The
//! normalizer maps every such statement to a canonical template string
//! (literals replaced by `?`, identifiers lowercased, whitespace collapsed)
//! plus the ordered list of extracted literal [`Value`]s.
//!
//! The template is the key of three hot-path mechanisms:
//!
//! * the deployment's **template cache** ([`crate::TemplateCache`]): a
//!   template hit skips parsing and executes its parameterized statement,
//! * **in-batch dedup** in the query store: two registrations that differ
//!   only in whitespace / keyword case collapse to one query,
//! * **batch fusion** in the network driver: same-template point lookups
//!   in one batch merge into a single `IN (…)` probe.
//!
//! Normalization is a single lexer pass — no parsing. Three token contexts
//! keep their literals *inside* the template instead of extracting them,
//! so that the template remains plan-equivalent:
//!
//! * `LIMIT n` — the row count is part of the plan, not a run-time value;
//! * `LIKE 'pat'` — the pattern lives in a dedicated AST field;
//! * `VARCHAR(255)`-style type suffixes never reach the executor.
//!
//! `IN (…)` list members **are** extracted (the list arity stays in the
//! template, so `IN (?, ?)` and `IN (?, ?, ?)` are distinct templates).

use std::fmt::Write;

use crate::ast::{Expr, Statement};
use crate::error::SqlError;
use crate::lexer::{lex, Token};
use crate::value::Value;

/// A normalized statement: canonical template plus extracted literals.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalized {
    /// Canonical parameterized text, e.g. `select v from t where id = ?`.
    pub template: String,
    /// Extracted literal values, in lexical order.
    pub params: Vec<Value>,
}

/// Keywords after which an expression (and hence a unary minus) may start.
/// Mirrors where the parser's `atom()` accepts a negative literal.
fn starts_operand(word: &str) -> bool {
    const KW: &[&str] = &[
        "SELECT", "WHERE", "AND", "OR", "NOT", "IN", "LIKE", "VALUES", "SET", "ON", "BY",
    ];
    KW.iter().any(|k| word.eq_ignore_ascii_case(k))
}

/// True when a `-` seen after `prev` is a unary minus (negative literal)
/// rather than binary subtraction, matching the parser's grammar.
fn unary_after(prev: &Token) -> bool {
    match prev {
        Token::Symbol(s) => *s != ")",
        Token::Ident(w) => starts_operand(w),
        _ => false, // literal operand → binary
    }
}

/// Normalizes `sql` into a template and its extracted parameters.
///
/// Errors exactly when the lexer errors; no parsing is performed. One
/// pass over the lexer's borrowed tokens: identifiers lowercase straight
/// into the template, and only an extracted string literal is copied.
pub fn normalize(sql: &str) -> Result<Normalized, SqlError> {
    // A token renders no longer than it is written and adds at most one
    // separating space, so the template never outgrows this buffer.
    let mut template = String::with_capacity(2 * sql.len());
    let mut params = Vec::new();
    // A `-` at the start is a unary minus.
    let mut unary = true;

    // Literal-preserving contexts (see module docs).
    let mut after_limit = false; // `LIMIT <int>` pending
    let mut after_like = false; // `LIKE <str>` pending

    let mut tokens = lex(sql).peekable();
    while let Some(tok) = tokens.next() {
        let tok = tok?;
        if !template.is_empty() {
            template.push(' ');
        }
        let next_unary = unary_after(&tok);
        match tok {
            Token::Ident(w) => {
                template.extend(w.bytes().map(|b| char::from(b.to_ascii_lowercase())));
                after_limit = w.eq_ignore_ascii_case("LIMIT");
                after_like = w.eq_ignore_ascii_case("LIKE");
            }
            Token::Symbol("-") if unary => {
                // Negative literal: fold the sign into the parameter so the
                // template slot lines up with the parser's folded
                // `Literal(-n)`.
                let negated = match tokens.peek() {
                    Some(Ok(Token::Int(n))) => Some(Value::Int(-n)),
                    Some(Ok(Token::Float(f))) => Some(Value::Float(-f)),
                    _ => None,
                };
                match negated {
                    Some(v) => {
                        template.push('?');
                        params.push(v);
                        tokens.next();
                        unary = false;
                        continue;
                    }
                    None => template.push('-'),
                }
            }
            Token::Symbol(s) => template.push_str(s),
            Token::Int(n) => {
                if after_limit {
                    write!(template, "{n}").expect("writing to a String cannot fail");
                    after_limit = false;
                } else {
                    template.push('?');
                    params.push(Value::Int(n));
                }
            }
            Token::Float(f) => {
                template.push('?');
                params.push(Value::Float(f));
            }
            Token::Str(s) => {
                if after_like {
                    // Back in the lexer's own syntax: single quotes, `''`.
                    template.push('\'');
                    for (i, part) in s.split('\'').enumerate() {
                        if i > 0 {
                            template.push_str("''");
                        }
                        template.push_str(part);
                    }
                    template.push('\'');
                    after_like = false;
                } else {
                    template.push('?');
                    params.push(Value::Str(s.into_owned()));
                }
            }
        }
        unary = next_unary;
    }
    Ok(Normalized { template, params })
}

/// Replaces every extractable literal of a parsed statement with
/// [`Expr::Param`] slots, in the same lexical order [`normalize`] extracts
/// them. Returns the parameterized statement and the slot count.
///
/// The invariant — `parameterize(parse(sql)).1 == normalize(sql).params.len()`
/// for the supported grammar — is what lets a cached plan execute against
/// the parameters of any same-template statement. The engine re-checks the
/// counts at cache-fill time and falls back to concrete execution on any
/// mismatch, so a divergence can cost performance but never correctness.
pub fn parameterize(stmt: &Statement) -> (Statement, usize) {
    let mut n = 0usize;
    let stmt = match stmt {
        Statement::Select(sel) => {
            let mut sel = sel.clone();
            sel.predicate = sel.predicate.take().map(|p| param_expr(p, &mut n));
            Statement::Select(sel)
        }
        Statement::Insert {
            table,
            columns,
            values,
        } => Statement::Insert {
            table: table.clone(),
            columns: columns.clone(),
            values: values
                .iter()
                .map(|tuple| {
                    tuple
                        .iter()
                        .map(|e| param_expr(e.clone(), &mut n))
                        .collect()
                })
                .collect(),
        },
        Statement::Update {
            table,
            sets,
            predicate,
        } => Statement::Update {
            table: table.clone(),
            sets: sets
                .iter()
                .map(|(c, e)| (c.clone(), param_expr(e.clone(), &mut n)))
                .collect(),
            predicate: predicate.clone().map(|p| param_expr(p, &mut n)),
        },
        Statement::Delete { table, predicate } => Statement::Delete {
            table: table.clone(),
            predicate: predicate.clone().map(|p| param_expr(p, &mut n)),
        },
        other => other.clone(),
    };
    (stmt, n)
}

fn param_expr(e: Expr, n: &mut usize) -> Expr {
    match e {
        // `NULL`, `TRUE` and `FALSE` are words, which `normalize` keeps in
        // the template: they stay literals here too.
        Expr::Literal(Value::Null | Value::Bool(_)) => e,
        Expr::Literal(_) => {
            let slot = *n;
            *n += 1;
            Expr::Param(slot)
        }
        Expr::Param(_) => e, // already parameterized
        Expr::Column(_) => e,
        Expr::Not(inner) => Expr::Not(Box::new(param_expr(*inner, n))),
        Expr::Binary { op, left, right } => {
            let left = Box::new(param_expr(*left, n));
            let right = Box::new(param_expr(*right, n));
            Expr::Binary { op, left, right }
        }
        Expr::InList { expr, list } => {
            let expr = Box::new(param_expr(*expr, n));
            let list = list.into_iter().map(|item| param_expr(item, n)).collect();
            Expr::InList { expr, list }
        }
        Expr::Like { expr, pattern } => {
            // The pattern stays in the plan (normalize keeps it in the
            // template for the same reason).
            Expr::Like {
                expr: Box::new(param_expr(*expr, n)),
                pattern,
            }
        }
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(param_expr(*expr, n)),
            negated,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn tpl(sql: &str) -> String {
        normalize(sql).unwrap().template
    }

    fn params(sql: &str) -> Vec<Value> {
        normalize(sql).unwrap().params
    }

    #[test]
    fn literals_become_placeholders() {
        assert_eq!(
            tpl("SELECT v FROM t WHERE id = 7"),
            "select v from t where id = ?"
        );
        assert_eq!(params("SELECT v FROM t WHERE id = 7"), vec![Value::Int(7)]);
    }

    #[test]
    fn whitespace_and_case_collapse() {
        let a = normalize("SELECT v FROM t WHERE id = 1").unwrap();
        let b = normalize("select   V  from T\n where ID = 2").unwrap();
        assert_eq!(a.template, b.template);
        assert_ne!(a.params, b.params);
    }

    #[test]
    fn string_literal_with_digits_is_one_param() {
        // A digit inside a string must not be treated as a numeric literal.
        let n = normalize("SELECT * FROM t WHERE name = 'v17'").unwrap();
        assert_eq!(n.template, "select * from t where name = ?");
        assert_eq!(n.params, vec![Value::Str("v17".into())]);
    }

    #[test]
    fn string_case_is_preserved_in_params() {
        let a = normalize("SELECT * FROM t WHERE name = 'Ada'").unwrap();
        let b = normalize("SELECT * FROM t WHERE name = 'ada'").unwrap();
        assert_eq!(a.template, b.template);
        assert_ne!(a.params, b.params, "string params are case-sensitive data");
    }

    #[test]
    fn in_list_members_extracted_arity_in_template() {
        let n = normalize("SELECT id FROM t WHERE id IN (1, 2, 3)").unwrap();
        assert_eq!(n.template, "select id from t where id in ( ? , ? , ? )");
        assert_eq!(n.params, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_ne!(n.template, tpl("SELECT id FROM t WHERE id IN (1, 2)"));
    }

    #[test]
    fn like_pattern_stays_in_template() {
        let a = normalize("SELECT id FROM t WHERE name LIKE 'foo%'").unwrap();
        let b = normalize("SELECT id FROM t WHERE name LIKE 'bar%'").unwrap();
        assert_eq!(a.params, vec![]);
        assert_ne!(
            a.template, b.template,
            "different patterns are different plans"
        );
        assert!(a.template.contains("'foo%'"));
    }

    #[test]
    fn limit_stays_in_template() {
        let n = normalize("SELECT id FROM t WHERE sev = 3 ORDER BY id LIMIT 10").unwrap();
        assert!(n.template.ends_with("limit 10"));
        assert_eq!(n.params, vec![Value::Int(3)]);
    }

    #[test]
    fn negative_literal_folds_into_param() {
        let n = normalize("SELECT id FROM t WHERE v = -5").unwrap();
        assert_eq!(n.template, "select id from t where v = ?");
        assert_eq!(n.params, vec![Value::Int(-5)]);
        // … but binary minus keeps its operator.
        let b = normalize("SELECT id FROM t WHERE v = x - 5").unwrap();
        assert_eq!(b.template, "select id from t where v = x - ?");
        assert_eq!(b.params, vec![Value::Int(5)]);
    }

    #[test]
    fn escaped_quotes_survive() {
        let n = normalize("SELECT id FROM t WHERE name = 'O''Hara'").unwrap();
        assert_eq!(n.params, vec![Value::Str("O'Hara".into())]);
        let like = normalize("SELECT id FROM t WHERE name LIKE 'O''H%'").unwrap();
        assert_eq!(like.template, "select id from t where name like 'O''H%'");
    }

    /// A non-ASCII literal is extracted, or kept in the template, as the
    /// text it was written as.
    #[test]
    fn string_literals_keep_their_utf8_text() {
        let n = normalize("SELECT id FROM t WHERE name = 'café' AND city = '東京'").unwrap();
        assert_eq!(
            n.params,
            vec![Value::Str("café".into()), Value::Str("東京".into())]
        );
        let like = normalize("SELECT id FROM t WHERE name LIKE 'café%'").unwrap();
        assert_eq!(like.template, "select id from t where name like 'café%'");
    }

    #[test]
    fn lex_errors_are_the_lexers() {
        for sql in [
            "SELECT @",
            "SELECT 'open",
            "SELECT - 'x' /* open",
            "SELECT a !",
        ] {
            assert_eq!(
                normalize(sql).unwrap_err(),
                crate::lexer::tokenize(sql).unwrap_err(),
                "{sql}"
            );
        }
    }

    /// The load-bearing invariant: the lexer-level extraction and the
    /// AST-level parameterization agree on slot count (and therefore on
    /// slot order) across the grammar.
    #[test]
    fn parameterize_agrees_with_normalize() {
        for sql in [
            "SELECT v FROM t WHERE id = 7",
            "SELECT * FROM t WHERE a = 1 AND b = 'x' OR c >= 2.5",
            "SELECT id FROM t WHERE id IN (1, 2, 3) AND name LIKE 'v%'",
            "SELECT id FROM t WHERE v = -5 AND w = x - 5",
            "SELECT id FROM t WHERE sev > 1 ORDER BY id DESC LIMIT 3",
            "SELECT id FROM t WHERE v IS NOT NULL AND NOT (a = 2)",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
            "UPDATE t SET a = a + 1, b = 'z' WHERE id = 9",
            "DELETE FROM t WHERE sev < 2",
            "UPDATE t SET a = NULL, b = TRUE WHERE id = 9",
            "INSERT INTO t VALUES (1, FALSE, NULL, 'x')",
            "SELECT id FROM t WHERE a = NULL OR b = FALSE AND c = 3",
            "SELECT i.id FROM issue i JOIN project p ON i.pid = p.id WHERE p.name = 'a'",
            "COMMIT",
        ] {
            let n = normalize(sql).unwrap();
            let (_, slots) = parameterize(&parse(sql).unwrap());
            assert_eq!(slots, n.params.len(), "slot mismatch for {sql}");
        }
    }

    #[test]
    fn param_slots_in_lexical_order() {
        let (stmt, n) = parameterize(&parse("SELECT v FROM t WHERE a = 1 AND b = 2").unwrap());
        assert_eq!(n, 2);
        match stmt {
            Statement::Select(sel) => {
                let p = format!("{:?}", sel.predicate.unwrap());
                let a = p.find("Param(0)").unwrap();
                let b = p.find("Param(1)").unwrap();
                assert!(a < b);
            }
            _ => panic!("expected select"),
        }
    }
}
