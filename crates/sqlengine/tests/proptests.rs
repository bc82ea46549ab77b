//! Property tests on the SQL substrate: the engine must be total (no
//! panics) on arbitrary inputs within the supported grammar, basic
//! algebraic invariants must hold, and statements whose footprints do
//! not conflict must commute.
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
        let run = std::panic::AssertUnwindSafe(|| f(&mut rng));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("failing case: {case}");
            std::panic::resume_unwind(panic);
        }
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

/// A literal of one of the kinds `=` compares across: a boolean, an
/// integer, an integral or fractional float (`-0.0` among them) or `NULL`,
/// over a range small enough that keys of different kinds meet.
fn arb_key(rng: &mut Rng) -> String {
    let n = rng.range(-2, 3);
    match rng.range(0, 7) {
        0 => ["TRUE", "FALSE"][rng.range(0, 2) as usize].to_string(),
        1 => "NULL".to_string(),
        2 => "-0.0".to_string(),
        3 => format!("{n}"),
        4 => format!("{n}.0"),
        _ => format!("{n}.5"),
    }
}

/// `u (id INT PRIMARY KEY, f FLOAT)` with a secondary index over `f`:
/// ids `0..n`, and in `f` keys of every kind [`arb_key`] draws.
fn keyed(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE u (id INT PRIMARY KEY, f FLOAT)")
        .unwrap();
    db.execute("CREATE INDEX ON u (f)").unwrap();
    for id in 0..rng.range(1, 12) {
        let f = arb_key(rng);
        db.execute(&format!("INSERT INTO u VALUES ({id}, {f})"))
            .unwrap();
    }
    db
}

/// PK index probes agree with predicate scans; so do probes of the
/// primary key and of a secondary index over a nullable `FLOAT` column by
/// keys of every kind `=` compares across (the `id < 0 OR` prefix leaves
/// no conjunct to probe, so that form scans).
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

        let mut db = keyed(rng);
        let key = arb_key(rng);
        for col in ["id", "f"] {
            let via_index = db
                .execute(&format!("SELECT id FROM u WHERE {col} = {key}"))
                .unwrap();
            let via_scan = db
                .execute(&format!("SELECT id FROM u WHERE id < 0 OR {col} = {key}"))
                .unwrap();
            assert_eq!(via_index.result.rows, via_scan.result.rows, "{col} = {key}");
        }
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

        let mut db = keyed(rng);
        let keys: Vec<String> = (0..3).map(|_| arb_key(rng)).collect();
        for col in ["id", "f"] {
            let via_probe = db
                .execute(&format!(
                    "SELECT id FROM u WHERE {col} IN ({})",
                    keys.join(", ")
                ))
                .unwrap();
            let ors: Vec<String> = keys.iter().map(|k| format!("{col} = {k}")).collect();
            let via_scan = db
                .execute(&format!(
                    "SELECT id FROM u WHERE id < 0 OR {}",
                    ors.join(" OR ")
                ))
                .unwrap();
            assert_eq!(
                via_probe.result.rows, via_scan.result.rows,
                "{col} IN {keys:?}"
            );
        }
    });
}

/// A hash join pairs exactly the rows whose `ON` equality holds, the
/// equality evaluated per row pair as `=` evaluates it: an `INT` column
/// against a `FLOAT` one, keys of every kind, `NULL` pairing with nothing.
#[test]
fn hash_join_equals_nested_loop() {
    cases(64, |rng| {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (id INT PRIMARY KEY, x INT)")
            .unwrap();
        db.execute("CREATE TABLE b (id INT PRIMARY KEY, y FLOAT)")
            .unwrap();
        for (table, n) in [("a", rng.range(0, 10)), ("b", rng.range(0, 10))] {
            for id in 0..n {
                let key = arb_key(rng);
                db.execute(&format!("INSERT INTO {table} VALUES ({id}, {key})"))
                    .unwrap();
            }
        }
        let a = db.execute("SELECT id, x FROM a").unwrap().result.rows;
        let b = db.execute("SELECT id, y FROM b").unwrap().result.rows;
        let mut expected = Vec::new();
        for l in &a {
            for r in &b {
                if l[1].sql_eq(&r[1]) {
                    expected.push(vec![l[0].clone(), r[0].clone()]);
                }
            }
        }
        for on in ["a.x = b.y", "b.y = a.x"] {
            let joined = db
                .execute(&format!("SELECT a.id, b.id FROM a JOIN b ON {on}"))
                .unwrap();
            assert_eq!(joined.result.rows, expected, "ON {on}: a {a:?} b {b:?}");
        }
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
        assert_eq!(db.template_cache().stmt_footprint(&stmt), &want, "{sql:?}");
        assert_eq!(
            db.template_cache().stmt_footprint(&stmt.clone()),
            &want,
            "memo, {sql:?}"
        );
        assert_eq!(db.footprint_of(&sql), want, "warm cache, {sql:?}");
        if stmt.norm().is_none() {
            assert!(want.barrier, "unlexable text is a barrier: {sql:?}");
        }

        assert!(same_key(&stmt, &Stmt::new(sql.as_str())), "{sql:?}");
        if stmt.norm().is_some() {
            let variant = Stmt::new(reformat(&sql, rng));
            assert!(same_key(&stmt, &variant), "{sql:?} vs {variant:?}");
            assert_eq!(
                db.template_cache().stmt_footprint(&variant),
                &want,
                "{variant:?}"
            );
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
    use sloth_sql::{Bound, Hole, ResultSet, Stmt};
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
        let hole = Hole::column("k", "k read on null");
        let open = Stmt::dependent(parent, head, vec![(hole, tail.to_string())]);
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
            match open.bind_from(&row).unwrap() {
                Bound::To(bound) => bound,
                Bound::Skip(_) => panic!("the parent has a row"),
            },
            renamed.bind(&key),
        ] {
            assert_eq!(bound, literal, "{literal:?}");
            assert_eq!(hash(&bound), hash(&literal), "{literal:?}");
            assert_eq!(bound.sql(), literal.sql());
            assert_eq!(bound.norm(), literal.norm());
            assert_eq!(bound.parent(), None);
            assert_eq!(
                db.template_cache().stmt_footprint(&bound),
                db.template_cache().stmt_footprint(&literal)
            );
        }
        assert_ne!(open, literal, "never a dedup hit until bound");
        // No parent row, a skip with the hole's text — or, over a parent
        // skipped itself, with the parent's; no such column, an error.
        assert_eq!(
            open.bind_from(&ResultSet::new(vec!["k".into()], vec![]))
                .unwrap(),
            Bound::Skip("k read on null".into())
        );
        assert_eq!(
            open.bind_from(&ResultSet::no_parent_row("up".into()))
                .unwrap(),
            Bound::Skip("up".into())
        );
        let other = ResultSet::new(vec!["id".into()], vec![vec![Value::Int(1)]]);
        assert!(open.bind_from(&other).is_err());

        // Table-level until bound: at least as wide as any bound form.
        let unbound = db.template_cache().stmt_footprint(&open);
        assert!(!unbound.has_writes() && !unbound.barrier);
        for _ in 0..8 {
            let write = Stmt::new(arb_statement(rng));
            let w = db.template_cache().stmt_footprint(&write);
            if db
                .template_cache()
                .stmt_footprint(&literal)
                .conflicts_with(w)
            {
                assert!(unbound.conflicts_with(w), "{write:?} vs {open:?}");
            }
        }
    });
}

/// A random table of the commute property's schema: `id INT PRIMARY KEY`
/// plus one to three of `a`, `b`, `c`, each `INT` or `TEXT`, and maybe an
/// index on the first of them.
struct TableShape {
    name: &'static str,
    /// `(column, is_int)`, primary key first.
    cols: Vec<(&'static str, bool)>,
}

impl TableShape {
    fn arb(name: &'static str, rng: &mut Rng) -> TableShape {
        let mut cols = vec![("id", true)];
        for col in ["a", "b", "c"] {
            if cols.len() == 1 || rng.range(0, 2) == 0 {
                cols.push((col, rng.range(0, 2) == 0));
            }
        }
        TableShape { name, cols }
    }

    fn ddl(&self, rng: &mut Rng) -> Vec<String> {
        let cols: Vec<String> = self
            .cols
            .iter()
            .map(|(c, int)| match (*c, int) {
                ("id", _) => "id INT PRIMARY KEY".to_string(),
                (c, true) => format!("{c} INT"),
                (c, false) => format!("{c} TEXT"),
            })
            .collect();
        let mut ddl = vec![format!("CREATE TABLE {} ({})", self.name, cols.join(", "))];
        if rng.range(0, 2) == 0 {
            ddl.push(format!(
                "CREATE INDEX ON {} ({})",
                self.name, self.cols[1].0
            ));
        }
        ddl
    }

    /// A literal for `col`: small domains, so pairs collide often.
    fn lit(&self, col: usize, rng: &mut Rng) -> String {
        let (name, int) = self.cols[col];
        match (name, int, rng.range(0, 8)) {
            ("id", _, 0) => format!("{}.0", rng.range(0, 6)),
            ("id", _, _) => rng.range(0, 6).to_string(),
            (_, _, 0) => "NULL".to_string(),
            (_, true, 1) => format!("{}.0", rng.range(0, 3)),
            (_, true, _) => rng.range(0, 3).to_string(),
            (_, false, 1) => rng.range(0, 3).to_string(),
            (_, false, 2) => format!("'{}'", rng.range(0, 3)),
            (_, false, _) => format!("'x{}'", rng.range(0, 3)),
        }
    }

    fn col(&self, rng: &mut Rng) -> usize {
        rng.range(0, self.cols.len() as i64) as usize
    }

    /// A `WHERE` clause: none, a pin, an `IN` list, a range, a
    /// conjunction or a disjunction.
    fn pred(&self, rng: &mut Rng) -> String {
        let (c, d) = (self.col(rng), self.col(rng));
        let (cn, dn) = (self.cols[c].0, self.cols[d].0);
        match rng.range(0, 7) {
            0 => String::new(),
            1 | 2 => format!(" WHERE {cn} = {}", self.lit(c, rng)),
            3 => format!(
                " WHERE {cn} IN ({}, {})",
                self.lit(c, rng),
                self.lit(c, rng)
            ),
            4 => format!(" WHERE id > {}", rng.range(0, 6)),
            5 => format!(
                " WHERE {cn} = {} AND {dn} = {}",
                self.lit(c, rng),
                self.lit(d, rng)
            ),
            _ => format!(
                " WHERE {cn} = {} OR {dn} = {}",
                self.lit(c, rng),
                self.lit(d, rng)
            ),
        }
    }

    fn row(&self, id: i64, rng: &mut Rng) -> String {
        let vals: Vec<String> = (1..self.cols.len()).map(|c| self.lit(c, rng)).collect();
        format!("({id}, {})", vals.join(", "))
    }
}

/// One random statement over the two tables: reads (projections,
/// counts, a join), inserts (named or positional, one or two rows),
/// updates (literal or arithmetic sets, the key included) and deletes.
fn arb_commute_stmt(tables: &[TableShape; 2], rng: &mut Rng) -> String {
    let t = &tables[rng.range(0, 2) as usize];
    let pred = t.pred(rng);
    match rng.range(0, 9) {
        0 => format!("SELECT * FROM {}{pred} ORDER BY id", t.name),
        1 => format!("SELECT {} FROM {}{pred}", t.cols[t.col(rng)].0, t.name),
        2 => format!("SELECT COUNT(*) FROM {}{pred}", t.name),
        3 => format!(
            "SELECT p.id, q.id FROM p JOIN q ON p.id = q.id WHERE p.id = {}",
            rng.range(0, 6)
        ),
        4 | 5 => {
            let cols: Vec<&str> = t.cols.iter().map(|(c, _)| *c).collect();
            let mut rows = vec![t.row(rng.range(0, 6), rng)];
            if rng.range(0, 3) == 0 {
                rows.push(t.row(rng.range(0, 6), rng));
            }
            if rng.range(0, 4) == 0 {
                format!("INSERT INTO {} VALUES {}", t.name, rows.join(", "))
            } else {
                format!(
                    "INSERT INTO {} ({}) VALUES {}",
                    t.name,
                    cols.join(", "),
                    rows.join(", ")
                )
            }
        }
        6 | 7 => {
            let c = t.col(rng);
            let (cn, int) = t.cols[c];
            let set = if int && rng.range(0, 3) == 0 {
                format!("{cn} = {cn} + 1")
            } else {
                format!("{cn} = {}", t.lit(c, rng))
            };
            format!("UPDATE {} SET {set}{pred}", t.name)
        }
        _ => format!("DELETE FROM {}{pred}", t.name),
    }
}

/// Two random tables of the commute properties' schema and the
/// statements that create and fill them.
fn arb_world(rng: &mut Rng) -> ([TableShape; 2], Vec<String>) {
    let tables = [TableShape::arb("p", rng), TableShape::arb("q", rng)];
    let mut setup: Vec<String> = Vec::new();
    for t in &tables {
        setup.extend(t.ddl(rng));
        for id in 0..6 {
            if rng.range(0, 3) != 0 {
                setup.push(format!("INSERT INTO {} VALUES {}", t.name, t.row(id, rng)));
            }
        }
    }
    (tables, setup)
}

/// A database `setup` built.
fn build(setup: &[String]) -> Database {
    let mut db = Database::new();
    for sql in setup {
        db.execute(sql).unwrap();
    }
    db
}

/// What running `sql` answers: its rows, or its error's text.
type Outcome = Result<Vec<Vec<Value>>, String>;

fn outcome(db: &mut Database, sql: &str) -> Outcome {
    db.execute(sql)
        .map(|o| o.result.rows)
        .map_err(|e| e.to_string())
}

/// Both tables as multisets of rows. The primary key is indexed, not
/// unique, and a table keeps rows in insertion order, so two inserts of
/// one key leave the same rows in an order that depends on which ran
/// first; no read the driver moves can tell them apart.
fn commute_state(db: &mut Database) -> Vec<Vec<String>> {
    ["p", "q"]
        .iter()
        .map(|t| {
            let rows = db
                .execute(&format!("SELECT * FROM {t}"))
                .unwrap()
                .result
                .rows;
            let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        })
        .collect()
}

/// The predicate every optimisation rests on: two statements whose
/// footprints do not conflict commute. Over random pairs on a random
/// schema and data, whenever `!a.conflicts_with(&b)`, running `a; b` and
/// `b; a` from one state gives each statement the same result (rows or
/// error text) and leaves the same final state.
#[test]
fn non_conflicting_statements_commute() {
    use sloth_sql::Footprint;

    let pairs = 4_000u64;
    // Commuting pairs by how many of the two statements are reads.
    let mut commuting = [0u64; 3];
    for case in 0..pairs {
        let mut rng = Rng::new(0xC0_4417E ^ case);
        let (tables, setup) = arb_world(&mut rng);
        let a = arb_commute_stmt(&tables, &mut rng);
        let b = arb_commute_stmt(&tables, &mut rng);
        if Footprint::of_sql(&a).conflicts_with(&Footprint::of_sql(&b)) {
            continue;
        }
        let reads = [&a, &b].iter().filter(|s| s.starts_with("SELECT")).count();
        commuting[reads] += 1;
        let run = |first: &str, second: &str| {
            let mut db = build(&setup);
            let (r1, r2) = (outcome(&mut db, first), outcome(&mut db, second));
            (r1, r2, commute_state(&mut db))
        };
        let (ab_a, ab_b, ab_state) = run(&a, &b);
        let (ba_b, ba_a, ba_state) = run(&b, &a);
        let ctx = format!("case {case}: {a:?} / {b:?} after {setup:?}");
        assert_eq!(ab_a, ba_a, "first statement, {ctx}");
        assert_eq!(ab_b, ba_b, "second statement, {ctx}");
        assert_eq!(ab_state, ba_state, "final state, {ctx}");
    }
    let [writes, mixed, reads] = commuting;
    println!(
        "{} of {pairs} pairs commute: {writes} write/write, {mixed} read/write, {reads} read/read",
        writes + mixed + reads
    );
    // Every kind of pair the driver reasons about is drawn often.
    assert!(writes > 400 && mixed > 400 && reads > 400, "{commuting:?}");
}

/// The result cache's predicate: a write whose footprint overlaps none of
/// a read's accesses leaves the read's answer as it was. Over random
/// write / read pairs on a random schema and data, whenever
/// `!w.writes_overlap(&r.reads)`, running `r; w; r` gives the read the
/// same rows (or error text) both times.
#[test]
fn a_read_no_write_overlaps_reads_the_same_rows() {
    use sloth_sql::Footprint;

    let pairs = 4_000u64;
    let mut disjoint = 0u64;
    for case in 0..pairs {
        let mut rng = Rng::new(0x0_CAC4E ^ case);
        let (tables, setup) = arb_world(&mut rng);
        let mut draw = |read: bool| loop {
            let sql = arb_commute_stmt(&tables, &mut rng);
            if sql.starts_with("SELECT") == read {
                return sql;
            }
        };
        let (w, r) = (draw(false), draw(true));
        if Footprint::of_sql(&w).writes_overlap(&Footprint::of_sql(&r).reads) {
            continue;
        }
        disjoint += 1;
        let mut db = build(&setup);
        let before = outcome(&mut db, &r);
        let _ = outcome(&mut db, &w);
        let after = outcome(&mut db, &r);
        assert_eq!(
            before, after,
            "case {case}: {w:?} then {r:?} after {setup:?}"
        );
    }
    println!("{disjoint} of {pairs} write / read pairs do not overlap");
    assert!(disjoint > 1_000, "{disjoint}");
}

/// A parent value a reference may be bound to: every SQL type, and text
/// that is not one token — spaces, quotes, SQL of its own.
fn arb_value(rng: &mut Rng) -> Value {
    match rng.range(0, 9) {
        0 => Value::Null,
        1 => Value::Bool(rng.range(0, 2) == 0),
        2 | 3 => Value::Int(rng.range(-3, 7)),
        4 => Value::Float(rng.range(-8, 28) as f64 / 4.0),
        _ => Value::Str(
            [
                "2",
                "x1",
                "it's",
                "a b",
                "1 OR id > 0",
                "NULL",
                "",
                "0) OR (1 = 1",
            ][rng.range(0, 8) as usize]
                .to_string(),
        ),
    }
}

/// The kernel language's `str` of a SQL value, as its evaluator renders a
/// cell: `null`, `true` / `false`, the number as Rust prints it, the text
/// unquoted.
fn str_of(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => s.clone(),
    }
}

/// A hole the way the kernel language renders one: `str` of `k` in the
/// parent's first row — of `k * 100 + 7` when `arithmetic` and `k` is an
/// integer — skipping the statement without a row and failing as `cell`
/// does without the column.
fn str_hole(arithmetic: bool) -> sloth_sql::Hole {
    use sloth_sql::Bound;
    sloth_sql::Hole::new("k", move |rows: &sloth_sql::ResultSet| {
        if rows.is_empty() {
            return Ok(Bound::Skip("no cell [0].k".into()));
        }
        match rows.get(0, "k") {
            Some(Value::Int(i)) if arithmetic => Ok(Bound::To(str_of(&Value::Int(i * 100 + 7)))),
            Some(v) => Ok(Bound::To(v.text())),
            None => Err(sloth_sql::SqlError::program("no cell [0].k")),
        }
    })
}

/// A hole renders as the kernel language's `str` (through [`Value::text`])
/// for every SQL value — negative and extreme integers, `9.5`, `NULL`,
/// text with a quote — and the statement its holes bind to is the
/// literal one the program's own concatenation builds; renaming its parent
/// changes nothing of that. A missing column fails with the program's
/// error; a parent without a row binds no statement.
#[test]
fn a_raw_reference_binds_the_text_str_makes() {
    use sloth_sql::{Bound, ResultSet, SqlError, Stmt};
    let extremes = [
        Value::Int(-7),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(9.5),
        Value::Null,
        Value::Str("it's".into()),
    ];
    cases(400, |rng| {
        let v = match rng.range(0, 2) {
            0 => extremes[rng.range(0, extremes.len() as i64) as usize].clone(),
            _ => arb_value(rng),
        };
        assert_eq!(v.text(), str_of(&v), "{v:?}");
        let pieces = [
            "SELECT * FROM p WHERE a = '",
            "' AND b = '",
            "' ORDER BY id",
        ];
        let open = Stmt::dependent(
            7,
            pieces[0],
            vec![
                (str_hole(false), pieces[1].to_string()),
                (str_hole(false), pieces[2].to_string()),
            ],
        );
        assert_eq!(
            open.sql(),
            "SELECT * FROM p WHERE a = '$7.k' AND b = '$7.k' ORDER BY id"
        );
        let [head, mid, tail] = pieces;
        let literal = Stmt::new(format!("{head}{}{mid}{}{tail}", str_of(&v), str_of(&v)));
        let row = ResultSet::new(vec!["k".into()], vec![vec![v.clone()]]);
        for open in [open.clone(), open.rebase(|p| p + 1)] {
            let Bound::To(bound) = open.bind_from(&row).unwrap() else {
                panic!("the parent has a row");
            };
            assert_eq!((bound.sql(), &bound), (literal.sql(), &literal));
        }
        let other = ResultSet::new(vec!["id".into()], vec![vec![Value::Int(1)]]);
        let e = open.bind_from(&other).unwrap_err();
        assert_eq!(e, SqlError::program("no cell [0].k"));
        let empty = ResultSet::new(vec!["k".into()], vec![]);
        let skip = Bound::Skip("no cell [0].k".into());
        assert_eq!(open.bind_from(&empty).unwrap(), skip);
    });
}

/// The driver reasons about a dependent statement through its open form's
/// footprint: table-level, over the tables its text names. Over random
/// open reads and writes — one hole or two, in a `WHERE`, a `SET` or a
/// `VALUES` list, or in a table's name, quoted or raw, each a SQL literal,
/// `str` of the parent's value or arithmetic over it, or read from every
/// row of the parent (an each-row statement, bound to one member per row)
/// — and random parent values, whatever the bound statement (each member)
/// conflicts with (or, a write, invalidates) the open one does too,
/// wherever the bound text parses at all.
#[test]
fn a_bound_statement_conflicts_within_its_open_one() {
    use sloth_sql::{Bound, Footprint, Hole, ResultSet, Stmt};

    let db = Database::new();
    let opens: [&[&str]; 16] = [
        &["SELECT * FROM p WHERE a = ", " ORDER BY id"],
        &["SELECT * FROM p WHERE a = '", "'"],
        &["SELECT COUNT(*) FROM q WHERE id > ", ""],
        &["SELECT p.id FROM p JOIN q ON p.id = q.id WHERE p.a = ", ""],
        &["UPDATE p SET a = ", " WHERE id = 3"],
        &["UPDATE q SET b = 1 WHERE a = ", ""],
        &["UPDATE q SET b = 1 WHERE a = '", "' AND id = 2"],
        &["DELETE FROM p WHERE id = ", ""],
        &["INSERT INTO q (id, a) VALUES (", ", 1)"],
        &["UPDATE p", " SET a = 1"],
        &["DELETE FROM q", " WHERE id = 2"],
        &["SELECT * FROM p", " WHERE a = 1"],
        &["SELECT * FROM p WHERE a = ", " OR id = ", ""],
        &["UPDATE q SET a = ", " WHERE id = ", ""],
        &["INSERT INTO p (id, a) VALUES (", ", '", "')"],
        &["UPDATE p", " SET a = ", ""],
    ];
    let (mut bound_parsed, mut checked) = (0u64, 0u64);
    for case in 0..2_000u64 {
        let mut rng = Rng::new(0x0B_0A4D ^ case);
        let (tables, _) = arb_world(&mut rng);
        let pieces = opens[rng.range(0, opens.len() as i64) as usize];
        let kind = rng.range(0, 4);
        let (open, rows) = match (pieces, kind) {
            ([head, tail], 0) => {
                let hole = Hole::column("k", "k read on null");
                (Stmt::dependent(0, *head, vec![(hole, tail.to_string())]), 1)
            }
            ([head, tail], 3) => {
                let hole = Hole::column("k", "k read on null");
                let each = Stmt::each_row(0, *head, vec![(hole, tail.to_string())]);
                (each, rng.range(0, 5))
            }
            _ => {
                let holes = pieces[1..]
                    .iter()
                    .map(|p| (str_hole(kind == 2), p.to_string()));
                (Stmt::dependent(0, pieces[0], holes.collect()), 1)
            }
        };
        let values: Vec<Value> = (0..rows).map(|_| arb_value(&mut rng)).collect();
        let parent = ResultSet::new(
            vec!["k".into()],
            values.iter().map(|v| vec![v.clone()]).collect(),
        );
        let Bound::To(bound) = open.bind_from(&parent).unwrap() else {
            panic!("{open:?}: the parent has a row");
        };
        let members = bound
            .members()
            .map_or_else(|| vec![bound.clone()], <[Stmt]>::to_vec);
        assert_eq!(members.len(), values.len(), "{open:?}: one member a row");
        let wide = db.template_cache().stmt_footprint(&open);
        for (member, value) in members.iter().zip(&values) {
            let fp = Footprint::of_sql(member.sql());
            if fp.barrier {
                // Unparseable: it fails where it runs, touching nothing.
                continue;
            }
            bound_parsed += 1;
            for _ in 0..8 {
                let other = arb_commute_stmt(&tables, &mut rng);
                let x = Footprint::of_sql(&other);
                let ctx = format!("case {case}: {open:?} bound to {value:?} vs {other:?}");
                if fp.conflicts_with(&x) {
                    checked += 1;
                    assert!(wide.conflicts_with(&x), "{ctx}");
                }
                if fp.writes_overlap(&x.reads) {
                    assert!(wide.writes_overlap(&x.reads), "{ctx}");
                }
            }
        }
    }
    println!("{bound_parsed} bound statements parse, {checked} conflicts checked");
    assert!(
        bound_parsed > 1_000 && checked > 2_000,
        "{bound_parsed} {checked}"
    );
}
