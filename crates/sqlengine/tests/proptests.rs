//! Property tests on the SQL substrate: the engine must be total (no
//! panics) on arbitrary inputs within the supported grammar, and basic
//! algebraic invariants must hold.
//!
//! The container build has no third-party crates available, so instead of
//! `proptest` these use a small deterministic SplitMix64 generator: every
//! property runs over a fixed number of seeded cases and failures print the
//! offending seed for replay.

use std::collections::BTreeMap;

use sloth_sql::{Database, Value};

/// Deterministic SplitMix64 — the standard 64-bit mixer.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// Runs `f` over `n` deterministic cases, reporting the failing case index.
fn cases(n: u64, f: impl Fn(&mut Rng)) {
    for case in 0..n {
        let mut rng = Rng::new(0x5EED_BA5E ^ case);
        f(&mut rng);
    }
}

/// Random `(id, v)` rows with distinct ids, like the old
/// `btree_map(0..100, -50..50, 0..max)` strategy.
fn arb_rows(rng: &mut Rng, max: usize) -> Vec<(i64, i64)> {
    let n = rng.range(0, max as i64 + 1);
    let mut m = BTreeMap::new();
    for _ in 0..n {
        m.insert(rng.range(0, 100), rng.range(-50, 50));
    }
    m.into_iter().collect()
}

fn seeded(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for (id, v) in rows {
        db.execute(&format!("INSERT INTO t VALUES ({id}, {v})"))
            .unwrap();
    }
    db
}

/// Insert-then-count: COUNT(*) equals the number of distinct PKs.
#[test]
fn count_matches_inserts() {
    cases(64, |rng| {
        let rows = arb_rows(rng, 40);
        let mut db = seeded(&rows);
        let out = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.result.rows[0][0], Value::Int(rows.len() as i64));
    });
}

/// Range filters partition the table: |v < k| + |v >= k| = |t|.
#[test]
fn filters_partition() {
    cases(64, |rng| {
        let rows = arb_rows(rng, 40);
        let k = rng.range(-60, 60);
        let mut db = seeded(&rows);
        let lt = db
            .execute(&format!("SELECT COUNT(*) FROM t WHERE v < {k}"))
            .unwrap();
        let ge = db
            .execute(&format!("SELECT COUNT(*) FROM t WHERE v >= {k}"))
            .unwrap();
        let total = lt.result.rows[0][0].as_i64().unwrap() + ge.result.rows[0][0].as_i64().unwrap();
        assert_eq!(total, rows.len() as i64, "rows {rows:?} k {k}");
    });
}

/// PK index probes agree with predicate scans.
#[test]
fn index_probe_equals_scan() {
    cases(64, |rng| {
        let mut rows = arb_rows(rng, 40);
        if rows.is_empty() {
            rows.push((rng.range(0, 100), rng.range(-50, 50)));
        }
        let probe = rng.range(0, 100);
        let mut db = seeded(&rows);
        let via_index = db
            .execute(&format!("SELECT v FROM t WHERE id = {probe}"))
            .unwrap();
        let via_scan = db
            .execute(&format!(
                "SELECT v FROM t WHERE id <= {probe} AND id >= {probe}"
            ))
            .unwrap();
        assert_eq!(via_index.result.rows, via_scan.result.rows);
    });
}

/// `IN (…)` probes agree with the equivalent OR-of-equalities scan.
#[test]
fn in_list_probe_equals_scan() {
    cases(64, |rng| {
        let rows = arb_rows(rng, 40);
        let mut db = seeded(&rows);
        let (a, b, c) = (rng.range(0, 100), rng.range(0, 100), rng.range(0, 100));
        let via_probe = db
            .execute(&format!("SELECT id, v FROM t WHERE id IN ({a}, {b}, {c})"))
            .unwrap();
        let via_scan = db
            .execute(&format!(
                "SELECT id, v FROM t WHERE id = {a} OR id = {b} OR id = {c}"
            ))
            .unwrap();
        assert_eq!(
            via_probe.result.rows, via_scan.result.rows,
            "keys {a},{b},{c}"
        );
    });
}

/// UPDATE then SELECT reads back the written value.
#[test]
fn update_read_back() {
    cases(64, |rng| {
        let mut rows = arb_rows(rng, 10);
        if rows.is_empty() {
            rows.push((rng.range(0, 20), rng.range(-50, 50)));
        }
        let delta = rng.range(-5, 6);
        let (target, before) = rows[0];
        let mut db = seeded(&rows);
        db.execute(&format!("UPDATE t SET v = v + {delta} WHERE id = {target}"))
            .unwrap();
        let out = db
            .execute(&format!("SELECT v FROM t WHERE id = {target}"))
            .unwrap();
        assert_eq!(out.result.rows[0][0], Value::Int(before + delta));
    });
}

/// ORDER BY produces a sorted column.
#[test]
fn order_by_sorts() {
    cases(64, |rng| {
        let rows = arb_rows(rng, 40);
        let mut db = seeded(&rows);
        let out = db.execute("SELECT v FROM t ORDER BY v").unwrap();
        let vs: Vec<i64> = out
            .result
            .rows
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        let mut sorted = vs.clone();
        sorted.sort();
        assert_eq!(vs, sorted);
    });
}

/// The lexer+parser never panic on arbitrary printable input.
#[test]
fn parser_total() {
    cases(256, |rng| {
        let len = rng.range(0, 81) as usize;
        let garbage: String = (0..len)
            .map(|_| (rng.range(b' ' as i64, b'~' as i64 + 1) as u8) as char)
            .collect();
        let _ = sloth_sql::parse(&garbage);
    });
}

/// DELETE removes exactly the matching rows.
#[test]
fn delete_complement() {
    cases(64, |rng| {
        let rows = arb_rows(rng, 30);
        let k = rng.range(-60, 60);
        let mut db = seeded(&rows);
        let keep = rows.iter().filter(|(_, v)| *v >= k).count() as i64;
        db.execute(&format!("DELETE FROM t WHERE v < {k}")).unwrap();
        let out = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.result.rows[0][0], Value::Int(keep));
    });
}

/// One random statement of the shapes the driver sees — reads, writes,
/// DDL, transaction boundaries — some comment-prefixed or parenthesized
/// (the classifier's odd shapes), some that do not lex at all.
fn arb_statement(rng: &mut Rng) -> String {
    let (a, b, k) = (rng.range(0, 50), rng.range(0, 50), rng.range(1, 9));
    let base = match rng.range(0, 14) {
        0 => format!("SELECT v FROM t WHERE id = {a}"),
        1 => format!("SELECT id, v FROM t WHERE name = 'x{a}' AND id IN ({a}, {b})"),
        2 => "SELECT COUNT(*) FROM t".to_string(),
        3 => format!("SELECT v FROM t WHERE v = -{a} ORDER BY id DESC LIMIT {k}"),
        4 => format!("SELECT t.v FROM t JOIN u ON t.id = u.tid WHERE u.id = {a}"),
        5 => format!("SELECT id FROM t WHERE name LIKE 'x{k}%' OR v > {b}"),
        6 => format!("INSERT INTO t (id, v) VALUES ({a}, {b})"),
        7 => format!("UPDATE t SET v = v + {k}, name = 'x{b}' WHERE id = {a}"),
        8 => format!("DELETE FROM t WHERE id = {a} AND v = {b}"),
        9 => format!("CREATE TABLE x{a} (id INT PRIMARY KEY)"),
        10 => ["BEGIN", "START TRANSACTION", "COMMIT", "ROLLBACK", "ABORT"][k as usize % 5]
            .to_string(),
        11 => format!("SELECT v FROM t WHERE name = 'unterminated {a}"),
        12 => format!("UPDATE t SET v = {a} WHERE id = {b} # {k}"),
        _ => format!("selector_{a} t"),
    };
    match rng.range(0, 8) {
        0 => format!("-- page {k}\n{base}"),
        1 => format!("/* hint {k} */ {base}"),
        2 => format!("({base})"),
        3 => format!("  \n\t{base}"),
        _ => base,
    }
}

/// The same statement, formatted differently: keywords and identifiers
/// in the other case, whitespace stretched. (Generated string literals
/// are lowercase, so lowercasing the text leaves the data alone.)
fn reformat(sql: &str, rng: &mut Rng) -> String {
    let recased = if rng.range(0, 2) == 0 {
        sql.to_ascii_lowercase()
    } else {
        sql.to_string()
    };
    let mut out = String::new();
    for c in recased.chars() {
        out.push(c);
        if c == ' ' {
            out.push_str(["", " ", "  ", "\t"][rng.range(0, 4) as usize]);
        }
    }
    out
}

/// A `Stmt` says of a statement exactly what the text-level functions it
/// replaces in the driver say: same class, same template + parameters,
/// same footprint (cold cache, warm cache and memo alike), and formatting
/// variants of one query are one dedup / result-cache key.
#[test]
fn stmt_agrees_with_the_text_functions() {
    use sloth_sql::{
        is_write_sql, normalize, txn_boundary, Footprint, Stmt, StmtClass, TxnBoundary,
    };
    use std::hash::{DefaultHasher, Hash, Hasher};

    // One map key: equal, and hashing alike.
    let same_key = |a: &Stmt, b: &Stmt| {
        let hash = |s: &Stmt| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        a == b && hash(a) == hash(b)
    };
    let db = Database::new();
    // Reads, writes, boundaries, unlexable texts generated.
    let seen = std::cell::Cell::new([0u32; 4]);
    cases(600, |rng| {
        let sql = arb_statement(rng);
        let stmt = Stmt::new(sql.as_str());
        assert_eq!(stmt.sql(), sql);

        assert_eq!(stmt.is_write(), is_write_sql(&sql), "{sql:?}");
        let boundary: Option<TxnBoundary> = txn_boundary(&sql);
        match stmt.class() {
            StmtClass::Read => assert!(!is_write_sql(&sql) && boundary.is_none(), "{sql:?}"),
            StmtClass::Write => assert!(is_write_sql(&sql) && boundary.is_none(), "{sql:?}"),
            StmtClass::Txn(b) => assert_eq!(Some(b), boundary, "{sql:?}"),
        }

        assert_eq!(stmt.norm(), normalize(&sql).ok().as_ref(), "{sql:?}");
        let kind = match (stmt.class(), stmt.norm()) {
            (_, None) => 3,
            (StmtClass::Read, _) => 0,
            (StmtClass::Write, _) => 1,
            (StmtClass::Txn(_), _) => 2,
        };
        let mut counts = seen.get();
        counts[kind] += 1;
        seen.set(counts);

        let want = Footprint::of_sql(&sql);
        assert_eq!(db.footprint(&stmt), &want, "{sql:?}");
        assert_eq!(db.footprint(&stmt.clone()), &want, "memo, {sql:?}");
        assert_eq!(db.footprint_of(&sql), want, "warm cache, {sql:?}");
        if stmt.norm().is_none() {
            assert!(want.barrier, "unlexable text is a barrier: {sql:?}");
        }

        assert!(same_key(&stmt, &Stmt::new(sql.as_str())), "{sql:?}");
        if stmt.norm().is_some() {
            let variant = Stmt::new(reformat(&sql, rng));
            assert!(same_key(&stmt, &variant), "{sql:?} vs {variant:?}");
            assert_eq!(db.footprint(&variant), &want, "{variant:?}");
            if let Some(other) = sql.strip_suffix(|c: char| c.is_ascii_digit()) {
                let other = Stmt::new(format!("{other}777"));
                assert!(stmt != other, "{sql:?} vs {other:?}");
            }
        }
    });
    // The generator reaches every kind the property is about.
    let [reads, writes, boundaries, unlexable] = seen.get();
    assert!(reads > 50 && writes > 50 && boundaries > 10 && unlexable > 10);
}

/// A dependent statement, once bound, *is* the statement its literal text
/// builds — one dedup key, one result-cache key, one plan-cache template,
/// one footprint — for every shape the ORM keys by one value and every
/// kind of value a row can hold; renaming its parent never changes what
/// it binds to; and until it is bound its footprint conflicts with every
/// write any of its bound forms conflicts with.
#[test]
fn a_bound_reference_is_the_literal_statement() {
    use sloth_sql::{Param, ResultSet, Stmt};
    use std::hash::{DefaultHasher, Hash, Hasher};

    let hash = |s: &Stmt| {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    };
    let db = Database::new();
    cases(400, |rng| {
        // The ORM's keyed reads: by primary key, by column (ordered),
        // count by column.
        let (head, tail) = match rng.range(0, 3) {
            0 => ("SELECT * FROM t WHERE id = ", ""),
            1 => ("SELECT * FROM t WHERE v = ", " ORDER BY id"),
            _ => ("SELECT COUNT(*) FROM t WHERE name = ", ""),
        };
        let key = match rng.range(0, 6) {
            0 => Value::Null,
            1 => Value::Bool(rng.range(0, 2) == 0),
            2 => Value::Int(rng.range(-50, 50)),
            3 => Value::Float(rng.range(-50, 50) as f64 / 4.0),
            4 => Value::Str(format!("it's {}", rng.range(0, 9))),
            _ => Value::Str(String::new()),
        };
        let parent = rng.range(0, 1000) as u64;
        let open = Stmt::with_param(head, &Param::reference(parent, "k"), tail);
        assert_eq!(open.parent(), Some(parent));
        assert!(open.norm().is_none() && !open.is_write());
        assert_eq!(open.sql(), format!("{head}${parent}.k{tail}"));

        let literal = Stmt::new(format!("{head}{}{tail}", key.sql_literal()));
        let row = ResultSet::new(
            vec!["id".into(), "K".into()],
            vec![vec![Value::Int(1), key.clone()]],
        );
        let renamed = open.rebase(|p| p + rng.range(0, 5) as u64);
        for bound in [
            open.bind(&key),
            open.bind_from(&row).unwrap().expect("the parent has a row"),
            renamed.bind(&key),
            Stmt::with_param(head, &Param::Lit(key.clone()), tail),
        ] {
            assert_eq!(bound, literal, "{literal:?}");
            assert_eq!(hash(&bound), hash(&literal), "{literal:?}");
            assert_eq!(bound.sql(), literal.sql());
            assert_eq!(bound.norm(), literal.norm());
            assert_eq!(bound.parent(), None);
            assert_eq!(db.footprint(&bound), db.footprint(&literal));
        }
        assert_ne!(open, literal, "never a dedup hit until bound");
        // No parent row, no statement; no such column, an error.
        assert!(open
            .bind_from(&ResultSet::new(vec!["k".into()], vec![]))
            .unwrap()
            .is_none());
        assert!(open
            .bind_from(&ResultSet::no_parent_row())
            .unwrap()
            .is_none());
        let other = ResultSet::new(vec!["id".into()], vec![vec![Value::Int(1)]]);
        assert!(open.bind_from(&other).is_err());

        // Table-level until bound: at least as wide as any bound form.
        let unbound = db.footprint(&open);
        assert!(!unbound.has_writes() && !unbound.barrier);
        for _ in 0..8 {
            let write = Stmt::new(arb_statement(rng));
            let w = db.footprint(&write);
            if db.footprint(&literal).conflicts_with(w) {
                assert!(unbound.conflicts_with(w), "{write:?} vs {open:?}");
            }
        }
    });
}
