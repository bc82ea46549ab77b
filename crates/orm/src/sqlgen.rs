//! SQL generation from entity metadata — the ORM's query writer.
//!
//! These are pure functions shared by the Rust-level [`crate::Session`] and
//! by the kernel-language interpreters in `sloth-lang`, so the original and
//! Sloth-compiled executions are guaranteed to generate byte-identical SQL
//! (a prerequisite for in-batch dedup to fire on the same queries the paper
//! saw).

use crate::schema::{AssocDef, AssocKind, EntityDef};
use sloth_sql::{Param, Stmt, Value};

/// Renders a value as a SQL literal (delegates to the engine's single
/// source of truth so every layer emits byte-identical SQL).
pub fn literal(v: &Value) -> String {
    v.sql_literal()
}

/// A read with exactly one key — by primary key, by column equality, a
/// count, an association — written around the place its key goes. The
/// key can then be a literal ([`KeyedRead::sql`], what the `select_*`
/// functions below return) or a reference to another statement's row
/// ([`KeyedRead::stmt`] with a [`Param::Ref`]): one definition of each
/// shape's text serves both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedRead {
    head: String,
    tail: String,
}

impl KeyedRead {
    /// `SELECT *` of one entity by primary key.
    pub fn by_pk(def: &EntityDef) -> KeyedRead {
        KeyedRead {
            head: format!("SELECT * FROM {} WHERE {} = ", def.table, def.pk),
            tail: String::new(),
        }
    }

    /// `SELECT *` filtered by one column equality.
    pub fn where_eq(def: &EntityDef, column: &str) -> KeyedRead {
        KeyedRead {
            head: format!("SELECT * FROM {} WHERE {} = ", def.table, column),
            tail: format!(" ORDER BY {}", def.pk),
        }
    }

    /// `COUNT(*)` of an entity filtered by one column equality.
    pub fn count_where_eq(def: &EntityDef, column: &str) -> KeyedRead {
        KeyedRead {
            head: format!("SELECT COUNT(*) FROM {} WHERE {} = ", def.table, column),
            tail: String::new(),
        }
    }

    /// The query an association access issues, keyed by the owner's
    /// relevant column:
    ///
    /// * one-to-many: the key is the **owner's PK**; selects children by
    ///   FK.
    /// * many-to-one: the key is the **FK value stored on the owner**;
    ///   selects the single target row by its PK.
    pub fn assoc(assoc: &AssocDef, target: &EntityDef) -> KeyedRead {
        match &assoc.kind {
            AssocKind::OneToMany { fk_column } => KeyedRead::where_eq(target, fk_column),
            AssocKind::ManyToOne { .. } => KeyedRead::by_pk(target),
        }
    }

    /// The SQL text with `key` as a literal.
    pub fn sql(&self, key: &Value) -> String {
        format!("{}{}{}", self.head, literal(key), self.tail)
    }

    /// The statement keyed by `param`.
    pub fn stmt(&self, param: &Param) -> Stmt {
        Stmt::with_param(&self.head, param, &self.tail)
    }
}

/// `SELECT *` of one entity by primary key.
pub fn select_by_pk(def: &EntityDef, id: &Value) -> String {
    KeyedRead::by_pk(def).sql(id)
}

/// `SELECT *` of all rows of an entity.
pub fn select_all(def: &EntityDef) -> String {
    format!("SELECT * FROM {} ORDER BY {}", def.table, def.pk)
}

/// `SELECT *` filtered by one column equality.
pub fn select_where_eq(def: &EntityDef, column: &str, v: &Value) -> String {
    KeyedRead::where_eq(def, column).sql(v)
}

/// The query an association access issues, given the owner's relevant
/// key (see [`KeyedRead::assoc`]).
pub fn select_assoc(assoc: &AssocDef, target: &EntityDef, key: &Value) -> String {
    KeyedRead::assoc(assoc, target).sql(key)
}

/// `COUNT(*)` of an entity filtered by one column equality.
pub fn count_where_eq(def: &EntityDef, column: &str, v: &Value) -> String {
    KeyedRead::count_where_eq(def, column).sql(v)
}

/// `INSERT` for a full row in column declaration order.
pub fn insert_row(def: &EntityDef, values: &[Value]) -> String {
    let cols: Vec<&str> = def.columns.iter().map(|(n, _)| n.as_str()).collect();
    let vals: Vec<String> = values.iter().map(literal).collect();
    format!(
        "INSERT INTO {} ({}) VALUES ({})",
        def.table,
        cols.join(", "),
        vals.join(", ")
    )
}

/// `UPDATE` of one column by primary key.
pub fn update_field(def: &EntityDef, id: &Value, column: &str, v: &Value) -> String {
    format!(
        "UPDATE {} SET {} = {} WHERE {} = {}",
        def.table,
        column,
        literal(v),
        def.pk,
        literal(id)
    )
}

/// `DELETE` by primary key.
pub fn delete_by_pk(def: &EntityDef, id: &Value) -> String {
    format!(
        "DELETE FROM {} WHERE {} = {}",
        def.table,
        def.pk,
        literal(id)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{entity, many_to_one, one_to_many, FetchStrategy};
    use sloth_sql::ast::ColumnType::*;

    fn patient() -> EntityDef {
        entity(
            "patient",
            "patient",
            "patient_id",
            &[("patient_id", Int), ("name", Text)],
            vec![
                one_to_many("encounters", "encounter", "patient_id", FetchStrategy::Lazy),
                many_to_one("creator", "user", "creator_id", FetchStrategy::Lazy),
            ],
        )
    }

    fn encounter() -> EntityDef {
        entity(
            "encounter",
            "encounter",
            "encounter_id",
            &[("encounter_id", Int), ("patient_id", Int)],
            vec![],
        )
    }

    #[test]
    fn pk_select() {
        assert_eq!(
            select_by_pk(&patient(), &Value::Int(7)),
            "SELECT * FROM patient WHERE patient_id = 7"
        );
    }

    #[test]
    fn string_literals_escaped() {
        assert_eq!(literal(&Value::Str("O'Hara".into())), "'O''Hara'");
    }

    #[test]
    fn one_to_many_assoc_sql() {
        let p = patient();
        let a = p.assoc("encounters").unwrap();
        assert_eq!(
            select_assoc(a, &encounter(), &Value::Int(7)),
            "SELECT * FROM encounter WHERE patient_id = 7 ORDER BY encounter_id"
        );
    }

    #[test]
    fn many_to_one_assoc_sql() {
        let p = patient();
        let a = p.assoc("creator").unwrap();
        let user = entity("user", "users", "user_id", &[("user_id", Int)], vec![]);
        assert_eq!(
            select_assoc(a, &user, &Value::Int(3)),
            "SELECT * FROM users WHERE user_id = 3"
        );
    }

    #[test]
    fn insert_and_update() {
        let p = patient();
        assert_eq!(
            insert_row(&p, &[Value::Int(1), Value::Str("Ada".into())]),
            "INSERT INTO patient (patient_id, name) VALUES (1, 'Ada')"
        );
        assert_eq!(
            update_field(&p, &Value::Int(1), "name", &Value::Str("Grace".into())),
            "UPDATE patient SET name = 'Grace' WHERE patient_id = 1"
        );
        assert_eq!(
            delete_by_pk(&p, &Value::Int(1)),
            "DELETE FROM patient WHERE patient_id = 1"
        );
    }

    #[test]
    fn a_bound_reference_is_the_literal_statement() {
        let p = patient();
        let read = KeyedRead::where_eq(&p, "name");
        let open = read.stmt(&Param::reference(3, "name"));
        assert_eq!(
            open.sql(),
            "SELECT * FROM patient WHERE name = $3.name ORDER BY patient_id"
        );
        let key = Value::Str("O'Hara".into());
        let literal = Stmt::new(select_where_eq(&p, "name", &key));
        assert_eq!(open.bind(&key), literal);
        assert_eq!(open.bind(&key).sql(), literal.sql());
        assert_eq!(read.stmt(&Param::Lit(key)), literal);
    }

    #[test]
    fn deterministic_generation() {
        // Same inputs must yield byte-identical SQL (dedup depends on it).
        let p = patient();
        assert_eq!(
            select_by_pk(&p, &Value::Int(5)),
            select_by_pk(&p, &Value::Int(5))
        );
    }
}
