//! Recursive-descent parser for the SQL subset described in `ast`.

use crate::ast::*;
use crate::error::SqlError;
use crate::lexer::{tokenize, Token};
use crate::value::Value;

/// Parses one SQL statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement, SqlError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        sql,
    };
    let stmt = p.statement()?;
    p.eat_symbol(";");
    if !p.at_end() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    sql: &'a str,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> SqlError {
        SqlError::new(format!(
            "parse error at token {} ({:?}): {} in {:?}",
            self.pos,
            self.tokens.get(self.pos),
            msg,
            self.sql
        ))
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the next token if it is the given keyword (case-insensitive).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected keyword {kw}")))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if let Some(Token::Symbol(s)) = self.peek() {
            if *s == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), SqlError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{sym}'")))
        }
    }

    /// The next identifier, borrowed from the statement.
    fn word(&mut self) -> Result<&'a str, SqlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    /// The next identifier, copied: a name the statement stores.
    fn ident(&mut self) -> Result<String, SqlError> {
        self.word().map(str::to_string)
    }

    fn statement(&mut self) -> Result<Statement, SqlError> {
        if self.eat_kw("SELECT") {
            return Ok(Statement::Select(self.select_body()?));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            if self.eat_kw("INDEX") {
                return self.create_index();
            }
            return Err(self.err("expected TABLE or INDEX after CREATE"));
        }
        if self.eat_kw("BEGIN") || self.eat_kw("START") {
            self.eat_kw("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") || self.eat_kw("ABORT") {
            return Ok(Statement::Rollback);
        }
        Err(self.err("unknown statement"))
    }

    fn create_table(&mut self) -> Result<Statement, SqlError> {
        let name = self.ident()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let ty_name = self.word()?;
            let is = |names: &[&str]| names.iter().any(|n| ty_name.eq_ignore_ascii_case(n));
            let ty = if is(&["INT", "INTEGER", "BIGINT"]) {
                ColumnType::Int
            } else if is(&["FLOAT", "DOUBLE", "REAL", "DECIMAL"]) {
                ColumnType::Float
            } else if is(&["TEXT", "VARCHAR", "CHAR", "STRING"]) {
                ColumnType::Text
            } else if is(&["BOOL", "BOOLEAN"]) {
                ColumnType::Bool
            } else {
                let other = ty_name.to_ascii_uppercase();
                return Err(self.err(&format!("unknown type {other}")));
            };
            // Optional length suffix, e.g. VARCHAR(255): parsed and ignored.
            if self.eat_symbol("(") {
                self.next();
                self.expect_symbol(")")?;
            }
            let mut primary_key = false;
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                primary_key = true;
            }
            columns.push(ColumnDef {
                name: col_name,
                ty,
                primary_key,
            });
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> Result<Statement, SqlError> {
        // Optional index name.
        if let Some(Token::Ident(s)) = self.peek() {
            if !s.eq_ignore_ascii_case("ON") {
                self.next();
            }
        }
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_symbol("(")?;
        let column = self.ident()?;
        self.expect_symbol(")")?;
        Ok(Statement::CreateIndex { table, column })
    }

    fn insert(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_symbol("(") {
            loop {
                columns.push(self.ident()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
        }
        self.expect_kw("VALUES")?;
        let mut values = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut tuple = Vec::new();
            loop {
                tuple.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            values.push(tuple);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn update(&mut self) -> Result<Statement, SqlError> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol("=")?;
            sets.push((col, self.expr()?));
            if !self.eat_symbol(",") {
                break;
            }
        }
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            predicate,
        })
    }

    fn delete(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, predicate })
    }

    fn select_body(&mut self) -> Result<SelectStmt, SqlError> {
        let projection = self.projection()?;
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let inner = self.eat_kw("INNER");
            if self.eat_kw("JOIN") {
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                let left = self.column_ref()?;
                self.expect_symbol("=")?;
                let right = self.column_ref()?;
                joins.push(Join { table, left, right });
            } else if inner {
                return Err(self.err("expected JOIN after INNER"));
            } else {
                break;
            }
        }
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let column = self.column_ref()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { column, desc });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                _ => return Err(self.err("expected non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            projection,
            from,
            joins,
            predicate,
            order_by,
            limit,
        })
    }

    fn projection(&mut self) -> Result<Projection, SqlError> {
        if self.eat_symbol("*") {
            return Ok(Projection::Star);
        }
        // Aggregates: COUNT/SUM/MAX/MIN followed by '('.
        if let Some(&Token::Ident(name)) = self.peek() {
            let is = |f: &str| name.eq_ignore_ascii_case(f);
            if (is("COUNT") || is("SUM") || is("MAX") || is("MIN"))
                && self.tokens.get(self.pos + 1) == Some(&Token::Symbol("("))
            {
                self.pos += 2;
                let agg = if is("COUNT") {
                    if self.eat_symbol("*") {
                        Aggregate::CountStar
                    } else if self.eat_kw("DISTINCT") {
                        Aggregate::CountDistinct(self.column_ref()?)
                    } else {
                        let c = self.column_ref()?;
                        // COUNT(col) counts non-null values; we treat it as
                        // COUNT DISTINCT? No: plain count of non-nulls.
                        Aggregate::CountDistinct(c)
                    }
                } else {
                    let c = self.column_ref()?;
                    if is("SUM") {
                        Aggregate::Sum(c)
                    } else if is("MAX") {
                        Aggregate::Max(c)
                    } else {
                        Aggregate::Min(c)
                    }
                };
                self.expect_symbol(")")?;
                return Ok(Projection::Aggregate(agg));
            }
        }
        let mut cols = Vec::new();
        loop {
            cols.push(self.column_ref()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Projection::Columns(cols))
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let name = self.ident()?;
        // Optional alias: bare identifier that is not a clause keyword.
        let alias = match self.peek() {
            Some(Token::Ident(s)) if !is_clause_keyword(s) => self.ident()?,
            _ => name.clone(),
        };
        Ok(TableRef { name, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef, SqlError> {
        let first = self.ident()?;
        if self.eat_symbol(".") {
            let column = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    /// Expression grammar (lowest to highest precedence):
    /// `OR` → `AND` → `NOT` → comparison / IN / LIKE / IS NULL → add → mul →
    /// atom.
    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.add_expr()?;
        if self.eat_kw("IN") {
            self.expect_symbol("(")?;
            let mut list = Vec::new();
            loop {
                list.push(Expr::Literal(self.literal()?));
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
            });
        }
        if self.eat_kw("LIKE") {
            match self.next() {
                Some(Token::Str(p)) => {
                    return Ok(Expr::Like {
                        expr: Box::new(left),
                        pattern: p.into_owned(),
                    })
                }
                _ => return Err(self.err("expected string pattern after LIKE")),
            }
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let op = if self.eat_symbol("=") {
            BinOp::Eq
        } else if self.eat_symbol("!=") {
            BinOp::Ne
        } else if self.eat_symbol("<=") {
            BinOp::Le
        } else if self.eat_symbol(">=") {
            BinOp::Ge
        } else if self.eat_symbol("<") {
            BinOp::Lt
        } else if self.eat_symbol(">") {
            BinOp::Gt
        } else {
            return Ok(left);
        };
        let right = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn add_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = if self.eat_symbol("+") {
                BinOp::Add
            } else if self.eat_symbol("-") {
                BinOp::Sub
            } else {
                break;
            };
            let right = self.mul_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.atom()?;
        loop {
            let op = if self.eat_symbol("*") {
                BinOp::Mul
            } else if self.eat_symbol("/") {
                BinOp::Div
            } else {
                break;
            };
            let right = self.atom()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<Expr, SqlError> {
        if self.eat_symbol("(") {
            let e = self.expr()?;
            self.expect_symbol(")")?;
            return Ok(e);
        }
        if self.eat_symbol("-") {
            // Negative literal.
            return match self.next() {
                Some(Token::Int(n)) => Ok(Expr::Literal(Value::Int(-n))),
                Some(Token::Float(f)) => Ok(Expr::Literal(Value::Float(-f))),
                _ => Err(self.err("expected number after unary '-'")),
            };
        }
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(n)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s.into_owned())))
            }
            Some(Token::Ident(s)) => {
                if s.eq_ignore_ascii_case("NULL") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Null));
                }
                if s.eq_ignore_ascii_case("TRUE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if s.eq_ignore_ascii_case("FALSE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                Ok(Expr::Column(self.column_ref()?))
            }
            _ => Err(self.err("expected expression")),
        }
    }

    fn literal(&mut self) -> Result<Value, SqlError> {
        match self.expr()? {
            Expr::Literal(v) => Ok(v),
            _ => Err(self.err("expected literal")),
        }
    }
}

fn is_clause_keyword(word: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "JOIN", "INNER", "WHERE", "ORDER", "LIMIT", "ON", "SET", "VALUES", "GROUP",
    ];
    KEYWORDS.iter().any(|k| word.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table() {
        let s = parse("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score FLOAT)").unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 3);
                assert!(columns[0].primary_key);
                assert_eq!(columns[1].ty, ColumnType::Text);
            }
            _ => panic!("wrong statement"),
        }
    }

    #[test]
    fn parse_select_with_everything() {
        let s = parse(
            "SELECT i.id, p.name FROM issue i INNER JOIN project p ON i.project_id = p.id \
             WHERE i.status = 'open' AND i.severity >= 2 ORDER BY i.id DESC LIMIT 10",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.joins.len(), 1);
                assert!(sel.predicate.is_some());
                assert_eq!(sel.order_by.len(), 1);
                assert!(sel.order_by[0].desc);
                assert_eq!(sel.limit, Some(10));
            }
            _ => panic!("wrong statement"),
        }
    }

    #[test]
    fn parse_aggregates() {
        for (sql, want_star) in [
            ("SELECT COUNT(*) FROM t", true),
            ("SELECT SUM(x) FROM t WHERE y = 1", false),
            ("SELECT MAX(x) FROM t", false),
            ("SELECT MIN(x) FROM t", false),
            ("SELECT COUNT(DISTINCT x) FROM t", false),
        ] {
            match parse(sql).unwrap() {
                Statement::Select(sel) => match sel.projection {
                    Projection::Aggregate(Aggregate::CountStar) => assert!(want_star),
                    Projection::Aggregate(_) => assert!(!want_star),
                    _ => panic!("expected aggregate for {sql}"),
                },
                _ => panic!("wrong statement"),
            }
        }
    }

    #[test]
    fn parse_insert_multi_row() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert {
                columns, values, ..
            } => {
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(values.len(), 2);
            }
            _ => panic!("wrong statement"),
        }
    }

    #[test]
    fn parse_update_arith() {
        let s = parse("UPDATE stock SET qty = qty - 5, sold = sold + 1 WHERE id = 3").unwrap();
        match s {
            Statement::Update {
                sets, predicate, ..
            } => {
                assert_eq!(sets.len(), 2);
                assert!(predicate.is_some());
            }
            _ => panic!("wrong statement"),
        }
    }

    #[test]
    fn parse_in_like_isnull() {
        let s =
            parse("SELECT * FROM t WHERE a IN (1, 2, 3) AND name LIKE 'foo%' AND b IS NOT NULL")
                .unwrap();
        match s {
            Statement::Select(sel) => assert!(sel.predicate.is_some()),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_txn_statements() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
        assert_eq!(parse("ABORT").unwrap(), Statement::Rollback);
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("FLY ME TO THE MOON").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("INSERT INTO t VALUES (1) garbage").is_err());
    }

    #[test]
    fn negative_literals() {
        let s = parse("UPDATE t SET a = -5 WHERE b = -1.5").unwrap();
        match s {
            Statement::Update { sets, .. } => {
                assert_eq!(sets[0].1, Expr::Literal(Value::Int(-5)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn table_alias_without_as() {
        let s = parse("SELECT u.name FROM users u WHERE u.id = 1").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.from.name, "users");
                assert_eq!(sel.from.alias, "u");
            }
            _ => panic!(),
        }
    }
}
