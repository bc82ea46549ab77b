//! The paper's soundness theorem (§3.8 / appendix) as a property test:
//! for randomly generated kernel-language programs, standard evaluation and
//! extended lazy evaluation (under every optimization configuration) must
//! produce the same output and leave the database in the same state, or
//! fail with the same error — on one server and on a 4-shard fleet.
//!
//! Uses a deterministic SplitMix64 generator instead of `proptest` (no
//! third-party crates are available in the build environment); each case is
//! reproducible from its printed seed.

use std::sync::Arc;

use sloth_lang::{
    parse_program, prepare_with_schema, DataLayer, ExecStrategy, OptFlags, RunError, V,
};
use sloth_net::{CostModel, ShardedEnv, SimEnv};
use sloth_orm::Schema;
use sloth_sql::ShardSpec;

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

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// Builds a random straight-line/branchy/loopy program over integer
/// variables `v0..v4` and result sets `r0..r2`, reads and writes against a
/// seeded table, and prints. The result-set shapes read a `query` later
/// than it registers — by `cell`, `nrows`, `at(…).v` and `first(…).v` —
/// across writes to the row they read, in loops bounded by `nrows`, and,
/// rarely, where the read fails: a row or column the result lacks, or a
/// table that does not exist. Guarded shapes read a second table by
/// `str(cell(q, 0, c))` at the head of an `if (nrows(q) > 0)` arm — the
/// query guard hoisting answers from the condition's flush — where `q`
/// may be empty, `c` an integer, a text, a `NULL` or a missing column,
/// with or without an `else` arm and a read of `q` after the `if`.
/// Guarded arms register whole: cells of `q` splice into reads and writes
/// (see [`guarded_arm`]). Pending splices build a statement's text from
/// `q`'s first row with or without a guard, by arithmetic, in one hole or
/// two (see [`pending_splice`]). 1+N association loops, and loops that
/// only look like them, run over ORM lists (see [`assoc_loop`]), and an
/// association hangs off an ORM row (see [`assoc_of_row`]), each after a
/// heap change that hoisting or the lowering could move them past. Any
/// draw may fail, and any number of them.
fn arb_program(rng: &mut Rng) -> String {
    let n = rng.range(1, 12);
    let mut stmts = Vec::new();
    let mut pool = false;
    for i in 0..n {
        let stmt = match rng.range(0, 23) {
            0 | 1 => {
                // Arithmetic assignment over the variable pool.
                let (dst, a, b) = (rng.range(0, 5), rng.range(0, 5), rng.range(0, 5));
                let op = ["+", "-", "*"][rng.range(0, 3) as usize];
                let lit = rng.range(-9, 10);
                format!("v{dst} = v{a} {op} (v{b} + {lit});")
            }
            2 => {
                // Branch with assignments in both arms (deferrable or not).
                let (c, t, e) = (rng.range(0, 5), rng.range(0, 5), rng.range(0, 5));
                let lit = rng.range(-5, 6);
                format!("if (v{c} > {lit}) {{ v{t} = v{t} + 1; }} else {{ v{e} = v{e} - 2; }}")
            }
            3 => {
                // Bounded loop.
                let (dst, n) = (rng.range(0, 5), rng.range(1, 5));
                format!("let i = 0; while (i < {n}) {{ v{dst} = v{dst} + i; i = i + 1; }}")
            }
            4 => {
                // Read query derived from a variable (bounded to valid ids).
                let (dst, src) = (rng.range(0, 5), rng.range(0, 5));
                format!(
                    "let id = v{src} % 5; if (id < 0) {{ id = 0 - id; }} \
                     let rs = query(\"SELECT v FROM t WHERE id = \" + str(id)); \
                     if (nrows(rs) > 0) {{ v{dst} = v{dst} + cell(rs, 0, \"v\"); }}"
                )
            }
            5 => {
                // Write query (flushes the batch, §3.3).
                let (id, delta) = (rng.range(0, 5), rng.range(-3, 4));
                format!("exec(\"UPDATE t SET v = v + {delta} WHERE id = {id}\");")
            }
            6 => {
                // Output.
                format!("print(str(v{}));", rng.range(0, 5))
            }
            7 => {
                // Pure helper call.
                let (dst, a) = (rng.range(0, 5), rng.range(0, 5));
                format!("v{dst} = double(v{a});")
            }
            8 => {
                // A result set into the pool: one row keyed by a variable,
                // or every row from a literal id up.
                pool = true;
                let (r, src, lo) = (rng.range(0, 3), rng.range(0, 5), rng.range(0, 5));
                if rng.range(0, 2) == 0 {
                    format!(
                        "let id = v{src} % 5; if (id < 0) {{ id = 0 - id; }} \
                         r{r} = query(\"SELECT v FROM t WHERE id = \" + str(id));"
                    )
                } else {
                    format!("r{r} = query(\"SELECT id, v FROM t WHERE id >= {lo} ORDER BY id\");")
                }
            }
            9 => {
                // A pool read, into a variable or straight to the output.
                pool = true;
                let (r, dst) = (rng.range(0, 3), rng.range(0, 5));
                let read = match rng.range(0, 4) {
                    0 => format!("cell(r{r}, 0, \"v\")"),
                    1 => format!("at(r{r}, 0).v"),
                    2 => format!("first(r{r}).v"),
                    _ => format!("nrows(r{r})"),
                };
                if rng.range(0, 2) == 0 {
                    format!("v{dst} = v{dst} + {read};")
                } else {
                    format!("print(str({read}));")
                }
            }
            10 => {
                // The row changes between the query and its read: the read
                // shows the row as the query found it.
                let (id, dst) = (rng.range(0, 5), rng.range(0, 5));
                format!(
                    "let rw = query(\"SELECT v FROM t WHERE id = {id}\"); \
                     exec(\"UPDATE t SET v = v + 100 WHERE id = {id}\"); \
                     print(str(cell(rw, 0, \"v\"))); v{dst} = v{dst} + nrows(rw);"
                )
            }
            11 => {
                // A loop bounded by a result set's size.
                let (lo, dst) = (rng.range(0, 5), rng.range(0, 5));
                format!(
                    "let rl = query(\"SELECT id, v FROM t WHERE id >= {lo} ORDER BY id\"); \
                     let j = 0; while (j < nrows(rl)) {{ v{dst} = v{dst} + cell(rl, j, \"v\"); j = j + 1; }}"
                )
            }
            12 => {
                // Rarely, a demanded read that fails.
                let r = rng.range(0, 3);
                match rng.range(0, 12) {
                    0 => {
                        pool = true;
                        format!("print(str(cell(r{r}, 9, \"v\")));")
                    }
                    1 => {
                        pool = true;
                        format!("print(str(cell(r{r}, 0, \"w\")));")
                    }
                    2 => "let rm = query(\"SELECT v FROM missing\"); print(str(nrows(rm)));".into(),
                    _ => {
                        pool = true;
                        format!("print(str(nrows(r{r})));")
                    }
                }
            }
            13 | 14 => guarded_read(rng, i),
            15 | 16 => guarded_arm(rng, i),
            19 | 20 => assoc_loop(rng, i),
            21 | 22 => assoc_of_row(rng, i),
            _ => pending_splice(rng, i),
        };
        stmts.push(stmt);
    }
    // The pool is declared only where it is used: a program without a
    // query keeps a non-persistent `main`, which selective compilation
    // runs under standard semantics.
    let pool = if pool {
        "let r0 = query(\"SELECT v FROM t WHERE id = 0\"); \
         let r1 = query(\"SELECT v FROM t WHERE id = 1\"); \
         let r2 = query(\"SELECT id, v FROM t ORDER BY id\");"
    } else {
        ""
    };
    format!(
        "fn double(x) {{ return x * 2; }}\n\
         fn main() {{\n\
         let v0 = 1; let v1 = 2; let v2 = 3; let v3 = 4; let v4 = 5;\n\
         {pool}\n\
         {}\n\
         print(str(v0 + v1 + v2 + v3 + v4));\n\
         }}",
        stmts.join("\n")
    )
}

/// A read of `u` keyed by `str(cell(q, 0, c))` heading the then-arm of
/// `if (nrows(q) > 0)`, its names suffixed by `i` so that no other draw
/// reassigns them. `q` is a row of `t` or none; `c` is `id`, `v` (integers),
/// `s` (text, `NULL` for id 3) or `w` (missing); the read is demanded by
/// `nrows`, by a loop over its rows, or not at all.
fn guarded_read(rng: &mut Rng, i: i64) -> String {
    let (src, dst) = (rng.range(0, 5), rng.range(0, 5));
    let column = ["id", "v", "v", "s", "s", "w"][rng.range(0, 6) as usize];
    let text = match (column, rng.range(0, 3)) {
        ("s", 0) => format!("\"SELECT id, v FROM u WHERE id = \" + str(k{i})"),
        ("s", _) => format!("\"SELECT id, v FROM u WHERE s = '\" + str(k{i}) + \"' ORDER BY id\""),
        (_, 0) => format!("\"SELECT id, v FROM u WHERE v >= \" + str(k{i}) + \" ORDER BY id\""),
        _ => format!("\"SELECT id, v FROM u WHERE id = \" + str(k{i})"),
    };
    // A text or NULL key spliced unquoted fails the original program's
    // query.
    let demand = match rng.range(0, 4) {
        0 => format!("print(str(nrows(g{i})));"),
        1 => format!("v{dst} = v{dst} + nrows(g{i});"),
        2 => format!(
            "let j{i} = 0; while (j{i} < nrows(g{i})) {{ v{dst} = v{dst} + cell(g{i}, j{i}, \"v\"); j{i} = j{i} + 1; }}"
        ),
        _ => String::new(),
    };
    let mut maybe = |s: String| {
        if rng.range(0, 2) == 0 {
            String::new()
        } else {
            s
        }
    };
    let key_use = maybe(format!("print(str(k{i}));"));
    let els = maybe(format!(" else {{ v{dst} = v{dst} - 1; }}"));
    let after = maybe(format!("print(str(nrows(q{i})));"));
    format!(
        "let q{i} = query(\"SELECT id, v, s FROM t WHERE id = \" + str(v{src} % 7)); \
         if (nrows(q{i}) > 0) {{ let k{i} = cell(q{i}, 0, \"{column}\"); {key_use} \
         let g{i} = query({text}); {demand} }}{els} {after}"
    )
}

/// A read of `u` or a write of `t` or `u` whose text is pending on `q`'s
/// first row — one hole or two, each `str` of a cell of `q` or of
/// arithmetic over cells and literals — unguarded, or heading the
/// arm of an `if (nrows(q) > 0)` with or without an `else`. `q` is a row of
/// `t` or none, so an unguarded statement fails as its `cell` does; the
/// cell is an integer, a float, a text, a `NULL` (which fails arithmetic)
/// or a missing column. The read is demanded. Names are suffixed by `i`.
fn pending_splice(rng: &mut Rng, i: i64) -> String {
    let src = rng.range(0, 5);
    // Arithmetic never over text: a lazy run raises an operator's error
    // where it forces the operator (DESIGN.md "Failure order").
    let hole = |rng: &mut Rng| {
        let column = ["id", "v", "v", "f", "s", "w"][rng.range(0, 6) as usize];
        let cell = format!("cell(p{i}, 0, \"{column}\")");
        let lit = rng.range(-3, 4);
        match rng.range(0, 4) {
            _ if column == "s" => format!("str({cell})"),
            0 => format!("str({cell})"),
            1 => format!("str({cell} * 2 + {lit})"),
            2 => format!("str({lit} - {cell})"),
            _ => format!("str(cell(p{i}, 0, \"id\") * {lit} + {cell})"),
        }
    };
    let (a, b) = (hole(rng), hole(rng));
    let stmt = match rng.range(0, 5) {
        0 => format!(
            "let g{i} = query(\"SELECT id, v FROM u WHERE v >= \" + {a} + \" ORDER BY id\"); \
             print(str(nrows(g{i})));"
        ),
        1 => format!(
            "let g{i} = query(\"SELECT id, v FROM u WHERE v >= \" + {a} + \" AND id <= \" + {b} + \" ORDER BY id\"); \
             print(str(nrows(g{i})));"
        ),
        2 => format!("exec(\"UPDATE t SET v = v + 1 WHERE id = \" + {a});"),
        3 => format!("exec(\"UPDATE u SET v = \" + {a} + \" WHERE id = \" + {b});"),
        _ => format!("exec(\"INSERT INTO u (id, v, s) VALUES (\" + {a} + \", \" + {b} + \", 'p')\");"),
    };
    let parent =
        format!("let p{i} = query(\"SELECT id, v, s, f FROM t WHERE id = \" + str(v{src} % 7));");
    match rng.range(0, 4) {
        0 | 1 => format!("{parent} {stmt}"),
        2 => format!("{parent} if (nrows(p{i}) > 0) {{ {stmt} }}"),
        _ => format!("{parent} if (nrows(p{i}) > 0) {{ {stmt} }} else {{ print(\"none\"); }}"),
    }
}

/// An `if (nrows(q) > 0)` whose then-arm is all head: cells of `q` spliced
/// unquoted into a write of `t` or `u` and a read of `u` — some by
/// arithmetic over the cell, some in two holes — and a print of
/// what the read found — names suffixed by `i`. `q` is a row of `t`, none,
/// or (rarely) a failing query; the cell is an integer, a text (which
/// fails the write it keys), a `NULL`, a float or a missing column. The
/// `if` may carry an `else`, sit in a loop (inside `begin` / `commit` or
/// not), follow a force of `q`, or follow a pending write its read
/// conflicts with.
fn guarded_arm(rng: &mut Rng, i: i64) -> String {
    let (src, delta) = (rng.range(0, 5), rng.range(-3, 4));
    let column = ["id", "v", "f", "f", "s", "w"][rng.range(0, 6) as usize];
    let q = if rng.range(0, 16) == 0 {
        format!("\"SELECT id, v, s, f FROM t WHERE nope = \" + str(v{src})")
    } else if rng.range(0, 3) == 0 {
        // No row, whatever the pool holds: the arm must run nothing.
        format!("\"SELECT id, v, s, f FROM t WHERE id = \" + str(5 + n{i})")
    } else {
        format!("\"SELECT id, v, s, f FROM t WHERE id = \" + str((v{src} + n{i}) % 7)")
    };
    // A text key spliced unquoted fails the write it keys.
    let write = match rng.range(0, 4) {
        0 => format!("exec(\"UPDATE t SET v = v + {delta} WHERE id = \" + str(k{i}));"),
        1 => format!("exec(\"UPDATE u SET v = \" + str(k{i}) + \" WHERE id = {src}\");"),
        2 => format!(
            "exec(\"UPDATE u SET v = \" + str(cell(q{i}, 0, \"v\") * 3 - {delta}) + \" WHERE id = \" + str(cell(q{i}, 0, \"id\") + 1));"
        ),
        _ => String::new(),
    };
    let read = match (column, rng.range(0, 2)) {
        ("s", _) => format!("\"SELECT id, v FROM u WHERE s = '\" + str(k{i}) + \"' ORDER BY id\""),
        (_, 0) => format!("\"SELECT id, v FROM u WHERE v >= \" + str(k{i}) + \" ORDER BY id\""),
        _ => format!(
            "\"SELECT id, v FROM u WHERE v >= \" + str(k{i}) + \" AND id < \" + str(k{i} + {delta} + 6) + \" ORDER BY id\""
        ),
    };
    let mut maybe = |s: String| {
        if rng.range(0, 2) == 0 {
            String::new()
        } else {
            s
        }
    };
    let els = maybe(" else { print(\"none\"); }".into());
    let forced = maybe(format!("if (nrows(q{i}) > 9) {{ print(\"many\"); }}"));
    let pending = maybe("exec(\"UPDATE u SET v = v + 1 WHERE id = 3\");".into());
    let body = format!(
        "let q{i} = query({q}); {forced} {pending} \
         if (nrows(q{i}) > 0) {{ let k{i} = cell(q{i}, 0, \"{column}\"); {write} \
         let g{i} = query({read}); print(str(k{i}) + \"/\" + str(nrows(g{i}))); }}{els}"
    );
    match rng.range(0, 3) {
        0 => format!("let n{i} = 0; {body}"),
        looped => {
            let (begin, commit) = if looped == 1 {
                ("begin();", "commit();")
            } else {
                ("", "")
            };
            format!("{begin} let n{i} = 0; while (n{i} < 2) {{ {body} n{i} = n{i} + 1; }} {commit}")
        }
    }
}

/// A 1+N association loop (`while (k < len(b)) { let el = at(b, k);
/// push(acc, orm_assoc(el, a)); k = k + 1; }`) over an ORM list read `b`
/// — which the compiler lowers to one each-row read — or a near miss that
/// must stay a loop, names suffixed by `i`. `b` has no row, one or many;
/// its keys repeat and some are `NULL` or name no row; the association is
/// many-to-one or one-to-many. The bound reaches the loop directly or
/// through `bn = len(b)`; the loop may stand in an `if` (which guard
/// hoisting moves its reads above). The near misses: `k` or `el` read
/// after the loop, `acc` aliased before it, a `print` or a write in the
/// body, a bound other than `len(b)`, a step of 2, a `push` to or `clear`
/// of `b`, directly or through an alias, or a write of an element's
/// field (the association's key or not, by `e.f = …` or `obj_put`)
/// between `bn` and the loop. After the loop the
/// list is shown, an element's field read (which fails on a `null`), the
/// association read again through the memo — and heap-written through it
/// — the list cleared first, or the association's table written first.
fn assoc_loop(rng: &mut Rng, i: i64) -> String {
    let (base, assoc) = match rng.range(0, 6) {
        0 => ("orm_find_all(\"wr\")".to_string(), "row"),
        1 => {
            let s = ["a", "b", "c", "zz"][rng.range(0, 4) as usize];
            (format!("orm_find_where(\"wr\", \"s\", \"{s}\")"), "row")
        }
        2 => ("orm_find_all(\"tr\")".to_string(), "ws"),
        3 => {
            let v = [1, 8, 15, 99][rng.range(0, 4) as usize];
            (format!("orm_find_where(\"tr\", \"v\", {v})"), "ws")
        }
        4 => ("orm_find_all(\"tr\")".to_string(), "item"),
        _ => {
            let s = ["a", "b", "zz"][rng.range(0, 3) as usize];
            (format!("orm_find_where(\"wr\", \"s\", \"{s}\")"), "row")
        }
    };
    let direct = rng.range(0, 2) == 0;
    let mut bound = if direct {
        format!("len(b{i})")
    } else {
        format!("bn{i}")
    };
    let mut step = 1;
    let (mut alias, mut in_body, mut after) = (String::new(), String::new(), String::new());
    let mut touch = String::new();
    match rng.range(0, 16) {
        0 => after = format!("print(str(k{i}));"),
        1 => after = format!("print(str(el{i}));"),
        2 => {
            alias = format!("let al{i} = acc{i};");
            after = format!("print(str(len(al{i})));");
        }
        3 => in_body = format!("print(str(k{i}));"),
        4 => in_body = "exec(\"UPDATE t SET v = v + 1 WHERE id = 1\");".into(),
        5 => bound = "2".into(),
        6 => step = 2,
        // The list changed after its length was read (a near miss under
        // `bn`; read in the loop, the bound sees the change).
        7 => touch = format!("push(b{i}, 5);"),
        8 => touch = format!("clear(b{i});"),
        9 => {
            let change = ["push", "clear"][rng.range(0, 2) as usize];
            let arg = if change == "push" { ", 5" } else { "" };
            touch = format!("let al{i} = b{i}; {change}(al{i}{arg});");
        }
        10 => {
            // The key the association reads off each element, or not.
            let key = match assoc {
                "row" => "k",
                "ws" => "id",
                _ => "v",
            };
            let field = [key, "s"][rng.range(0, 2) as usize];
            let (alias, list) = match rng.range(0, 2) {
                0 => (String::new(), format!("b{i}")),
                _ => (format!("let al{i} = b{i};"), format!("al{i}")),
            };
            let write = match rng.range(0, 2) {
                0 => format!("at({list}, 0).{field} = 1;"),
                _ => format!("obj_put(at({list}, 0), \"{field}\", 1);"),
            };
            touch = format!("{alias} if (len({list}) > 0) {{ {write} }}");
        }
        // The lowered shape.
        _ => {}
    }
    let show = match rng.range(0, 6) {
        0 => format!("print(str(acc{i}));"),
        1 => format!("if (len(acc{i}) > 0) {{ print(str(at(acc{i}, 0).id)); }}"),
        2 => format!(
            "if (len(b{i}) > 0) {{ let m{i} = orm_assoc(at(b{i}, 0), \"{assoc}\"); \
             print(str(m{i})); }} print(str(acc{i}));"
        ),
        3 => format!(
            "clear(acc{i}); if (len(b{i}) > 1) {{ print(str(orm_assoc(at(b{i}, 1), \"{assoc}\"))); }} \
             print(str(len(acc{i})));"
        ),
        4 => {
            let table = if assoc == "ws" { "w" } else if assoc == "item" { "u" } else { "t" };
            format!(
                "exec(\"UPDATE {table} SET v = v + 5 WHERE id = 1\"); print(str(acc{i})); \
                 print(str(len(b{i})));"
            )
        }
        _ => {
            // A collection is a list: its rows are written one by one.
            let write = if assoc == "ws" {
                format!("if (len(m{i}) > 0) {{ at(m{i}, 0).s = \"set\"; }}")
            } else {
                format!("if (m{i} != null) {{ m{i}.s = \"set\"; }}")
            };
            format!(
                "if (len(b{i}) > 0) {{ let m{i} = orm_assoc(at(b{i}, 0), \"{assoc}\"); {write} }} \
                 print(str(acc{i}));"
            )
        }
    };
    let bn = if direct {
        String::new()
    } else {
        format!("let bn{i} = len(b{i});")
    };
    let body = format!(
        "let b{i} = {base}; {bn} {touch} let acc{i} = []; {alias} let k{i} = 0; \
         while (k{i} < {bound}) {{ let el{i} = at(b{i}, k{i}); {in_body} \
         push(acc{i}, orm_assoc(el{i}, \"{assoc}\")); k{i} = k{i} + {step}; }} \
         {after} {show}"
    );
    match rng.range(0, 3) {
        0 => {
            let (c, lit) = (rng.range(0, 5), rng.range(-2, 6));
            format!("if (v{c} > {lit}) {{ {body} }} else {{ print(\"skip\"); }}")
        }
        _ => body,
    }
}

/// An association of an ORM row read in an `if` arm, after a heap change
/// between the two — names suffixed by `i`. Guard hoisting moves the row's
/// read above the `if`, and the association with it unless the change may
/// write the field it is keyed by (or its memo): the key field or another,
/// through the row's name or an alias, by `e.f = …` or `obj_put`, or a
/// read of the row. The row may be missing.
fn assoc_of_row(rng: &mut Rng, i: i64) -> String {
    let (c, lit) = (rng.range(0, 5), rng.range(-2, 6));
    let id = [0, 1, 2, 4, 9][rng.range(0, 5) as usize];
    let n = [0, 1, 3, 9][rng.range(0, 4) as usize];
    let field = ["k", "k", "v", "__assoc_row"][rng.range(0, 4) as usize];
    let target = ["o", "al"][rng.range(0, 2) as usize].to_string() + &i.to_string();
    let change = match rng.range(0, 4) {
        0 if field.starts_with("__") => format!("obj_put({target}, \"{field}\", {n});"),
        0 => format!("{target}.{field} = {n};"),
        1 => format!("obj_put({target}, \"{field}\", {n});"),
        2 => format!("print(str({target}.k));"),
        _ => String::new(),
    };
    format!(
        "if (v{c} > {lit}) {{ let o{i} = orm_find(\"wr\", {id}); let al{i} = o{i}; {change} \
         let r{i} = orm_assoc(o{i}, \"row\"); print(str(r{i})); print(str(o{i}.k)); }}"
    )
}

/// A write branch and the reads after it: the query store holds the
/// branch's write until a read that may observe it drains it, and the
/// lazy run must raise what `Original` raises when either fails. It runs
/// as `main(1)`, so text ending in `"t" + str(x)` names table `t1`. The
/// branch writes `t`, `u` or `t1` by literal SQL, by a literal prefix
/// ahead of a `str` splice, or by SQL whose table is spliced (behind a
/// comment naming a clause, or not), or sets a column no table has. The
/// reads after it build their text from literals and `str` splices, some
/// with a comment naming a clause or quoted keywords in the literal lead,
/// or a lead that ends inside a quote; each reaches `query` directly or
/// through a string variable that a loop or an `if` arm reassigns. Or the
/// read names a table that does not exist.
fn arb_write_tail(rng: &mut Rng) -> String {
    const TABLES: [&str; 3] = ["t", "u", "t1"];
    let table = |rng: &mut Rng| TABLES[rng.range(0, 3) as usize];
    let write = |rng: &mut Rng| {
        let (t, id, v) = (table(rng), rng.range(0, 5), rng.range(50, 99));
        match rng.range(0, 7) {
            0 => format!("exec(\"UPDATE {t} SET v = {v} WHERE id = {id}\");"),
            1 => format!("exec(\"UPDATE {t} SET v = \" + str(x + {v}) + \" WHERE id = {id}\");"),
            2 => format!("exec(\"DELETE FROM {t} WHERE id = \" + str(x + {id}));"),
            3 => {
                format!("exec(\"INSERT INTO {t} (id, v) VALUES (\" + str(x + {v}) + \", {id})\");")
            }
            4 => format!("exec(\"UPDATE t\" + str(x) + \" SET v = {v} WHERE id = {id}\");"),
            5 => format!("exec(\"UPDATE {t} SET nope = {v} WHERE id = {id}\");"),
            _ => {
                format!("exec(\"UPDATE /* set */ t\" + str(x) + \" SET v = {v} WHERE id = {id}\");")
            }
        }
    };
    let text = |rng: &mut Rng| {
        let (t, key) = (table(rng), rng.range(0, 5));
        match rng.range(0, 7) {
            0 => format!("\"SELECT v FROM {t} WHERE id = {key}\""),
            1 => format!("\"SELECT v FROM {t} WHERE id = \" + str(x + {})", key - 1),
            2 => format!("\"SELECT /* where */ v FROM t\" + str(x) + \" WHERE id = {key}\""),
            3 => format!("\"SELECT v -- where\\n FROM t\" + str(x) + \" WHERE id = {key}\""),
            4 => format!(
                "\"SELECT v FROM {t} WHERE s = 'from t1 where' OR id = \" + str(x + {})",
                key - 1
            ),
            5 => format!(
                "\"SELECT v FROM {t} WHERE s = 'a\" + str(x + {}) + \"'\"",
                key - 1
            ),
            _ => format!("\"SELECT v FROM {t} WHERE id <= \" + str({key}) + \" ORDER BY id\""),
        }
    };
    let cond = rng.range(0, 2);
    let els = if rng.range(0, 3) == 0 {
        format!(" else {{ {} }}", write(rng))
    } else {
        String::new()
    };
    let mut stmts = vec![format!("if (x > {cond}) {{ {} }}{els}", write(rng))];
    if rng.range(0, 2) == 0 {
        stmts.push("print(\"start\");".into());
    }
    for k in 0..rng.range(1, 4) {
        let show = format!(
            "print(str(nrows(r{k}))); if (nrows(r{k}) > 0) {{ print(str(cell(r{k}, 0, \"v\"))); }}"
        );
        stmts.push(match rng.range(0, 4) {
            0 => format!("let r{k} = query({}); {show}", text(rng)),
            1 => format!(
                "let q{k} = {}; let i{k} = 0; \
                 while (i{k} < 2) {{ let r{k} = query(q{k}); {show} q{k} = {}; i{k} = i{k} + 1; }}",
                text(rng),
                text(rng)
            ),
            3 => format!(
                "let r{k} = query(\"SELECT v FROM missing WHERE id = \" + str(x + {})); {show}",
                rng.range(0, 5)
            ),
            _ => format!(
                "let q{k} = {}; if (x > {}) {{ q{k} = {}; }} let r{k} = query(q{k}); {show}",
                text(rng),
                rng.range(0, 2),
                text(rng)
            ),
        });
    }
    format!("fn main(x) {{\n{}\n}}", stmts.join("\n"))
}

/// The deployments every property runs on: one server, and the table
/// hash-partitioned over a 4-shard fleet.
const FLEETS: [usize; 2] = [1, 4];

fn fresh_env(shards: usize) -> SimEnv {
    let env = if shards == 1 {
        SimEnv::default_env()
    } else {
        let spec = ShardSpec::new()
            .shard("t", "id")
            .shard("u", "id")
            .shard("t1", "id")
            .shard("w", "id");
        ShardedEnv::new(CostModel::default(), spec, shards).handle()
    };
    env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT, f FLOAT)")
        .unwrap();
    for i in 0..5 {
        let s = if i == 3 {
            "NULL".into()
        } else {
            format!("'a{i}'")
        };
        let f = i as f64 * 1.5;
        env.seed_sql(&format!(
            "INSERT INTO t VALUES ({i}, {}, {s}, {f:?})",
            i * 7 + 1
        ))
        .unwrap();
    }
    env.seed_sql("CREATE TABLE u (id INT PRIMARY KEY, v INT, s TEXT)")
        .unwrap();
    for i in 0..12 {
        env.seed_sql(&format!(
            "INSERT INTO u VALUES ({i}, {}, 'a{}')",
            i * 3,
            i % 5
        ))
        .unwrap();
    }
    env.seed_sql("CREATE TABLE t1 (id INT PRIMARY KEY, v INT, s TEXT)")
        .unwrap();
    for i in 0..5 {
        env.seed_sql(&format!("INSERT INTO t1 VALUES ({i}, {}, 'a{i}')", i * 5))
            .unwrap();
    }
    // Keys into `t` that repeat, are `NULL` or name no row.
    env.seed_sql("CREATE TABLE w (id INT PRIMARY KEY, k INT, v INT, s TEXT)")
        .unwrap();
    let keys = ["1", "1", "NULL", "3", "9", "0", "NULL", "1"];
    let ss = ["a", "a", "b", "a", "c", "b", "a", "b"];
    for (i, (k, s)) in keys.iter().zip(ss).enumerate() {
        env.seed_sql(&format!("INSERT INTO w VALUES ({i}, {k}, {i}, '{s}')"))
            .unwrap();
    }
    env
}

/// The ORM's view of the tables: `wr` rows (`w`) point at `tr` rows (`t`)
/// by `k`; a `tr` row has the `wr` rows pointing at it, and points at a
/// `ur` row (`u`) by `v`.
fn schema() -> Arc<Schema> {
    use sloth_orm::{entity, many_to_one, one_to_many, FetchStrategy};
    use sloth_sql::ast::ColumnType::{Float, Int, Text};
    let mut s = Schema::new();
    s.add(entity(
        "wr",
        "w",
        "id",
        &[("id", Int), ("k", Int), ("v", Int), ("s", Text)],
        vec![many_to_one("row", "tr", "k", FetchStrategy::Lazy)],
    ));
    s.add(entity(
        "tr",
        "t",
        "id",
        &[("id", Int), ("v", Int), ("s", Text), ("f", Float)],
        vec![
            one_to_many("ws", "wr", "k", FetchStrategy::Eager),
            many_to_one("item", "ur", "v", FetchStrategy::Lazy),
        ],
    ));
    s.add(entity(
        "ur",
        "u",
        "id",
        &[("id", Int), ("v", Int), ("s", Text)],
        vec![],
    ));
    Arc::new(s)
}

fn table_state(env: &SimEnv) -> Vec<Vec<sloth_sql::Value>> {
    let mut rows = env.query("SELECT id, v FROM t ORDER BY id").unwrap().rows;
    rows.extend(env.query("SELECT id, v FROM u ORDER BY id").unwrap().rows);
    rows.extend(env.query("SELECT id, v FROM t1 ORDER BY id").unwrap().rows);
    rows.extend(env.query("SELECT id, v FROM w ORDER BY id").unwrap().rows);
    rows
}

fn check_equivalent(src: &str, flags: OptFlags, shards: usize) {
    check_equivalent_with(src, &[], flags, shards);
}

/// [`check_equivalent`] of `main(args…)`. The one difference allowed
/// (§3.3) is a read the lazy run never shipped: it succeeds where
/// `Original` fails only when a statement its store still holds, run
/// alone on a fresh fleet, raises `Original`'s error.
fn check_equivalent_with(src: &str, args: &[i64], flags: OptFlags, shards: usize) {
    let args = || args.iter().map(|&a| V::Int(a)).collect();
    let schema = schema();
    let program = parse_program(src).unwrap();
    let prepare = |strategy| prepare_with_schema(&program, strategy, Some(&schema));
    let env_o = fresh_env(shards);
    let o = prepare(ExecStrategy::Original).run(&env_o, Arc::clone(&schema), args());
    let env_s = fresh_env(shards);
    let data = DataLayer::deferred(env_s.clone(), Arc::clone(&schema));
    let s = prepare(ExecStrategy::Sloth(flags)).run_with(data.clone(), args());
    match (o, s) {
        (Ok(o), Ok(s)) => {
            assert_eq!(o.output, s.output, "{shards} shard(s), program:\n{src}");
            assert_eq!(
                table_state(&env_o),
                table_state(&env_s),
                "{shards} shard(s), program:\n{src}"
            );
        }
        // Both fail, with the same error.
        (Err(o), Err(s)) => assert_eq!(o.message, s.message, "{shards} shard(s), program:\n{src}"),
        (Err(o), Ok(_)) => {
            let unshipped = data.store.as_ref().unwrap().unshipped();
            let raises = |sql: &String| match fresh_env(shards).query(sql) {
                Err(e) => RunError::from(e).message == o.message,
                Ok(_) => false,
            };
            assert!(
                unshipped.iter().any(raises),
                "sloth succeeded on {shards} shard(s) where orig failed with {:?}, \
                 unshipped {unshipped:?}, program:\n{src}",
                o.message
            );
        }
        (Ok(o), Err(s)) => panic!(
            "sloth failed on {shards} shard(s) with {:?}, orig output {:?}, program:\n{src}",
            s.message, o.output
        ),
    }
}

/// Case `case` of [`lazy_equals_standard_all_opts`]: a program, run under
/// every optimization.
fn all_opts_case(case: u64) -> (String, OptFlags) {
    let mut rng = Rng::new(0xA11_0975 ^ case);
    (arb_program(&mut rng), OptFlags::all())
}

/// Case `case` of [`lazy_equals_standard_all_flag_combinations`]: a
/// program and a configuration.
fn flag_combination_case(case: u64) -> (String, OptFlags) {
    let mut rng = Rng::new(0xF1A6 ^ case);
    let src = arb_program(&mut rng);
    let mask = rng.range(0, 8) as u8;
    let flags = OptFlags {
        selective: mask & 1 != 0,
        coalesce: mask & 2 != 0,
        hoist: mask & 4 != 0,
    };
    (src, flags)
}

/// Standard vs. lazy semantics: identical output, identical final DB —
/// for the fully optimized configuration.
#[test]
fn lazy_equals_standard_all_opts() {
    for shards in FLEETS {
        for case in 0..64u64 {
            let (src, flags) = all_opts_case(case);
            check_equivalent(&src, flags, shards);
        }
    }
}

/// Equivalence must hold for *every* optimization configuration —
/// the optimizations are semantics-preserving (§4).
#[test]
fn lazy_equals_standard_all_flag_combinations() {
    for shards in FLEETS {
        for case in 0..64u64 {
            let (src, flags) = flag_combination_case(case);
            check_equivalent(&src, flags, shards);
        }
    }
}

/// Both lazy tests over their seeds 0–5 999, on both fleets. About a
/// minute optimized: `cargo test --release --test equivalence -- --ignored`.
#[test]
#[ignore]
fn lazy_equals_standard_wide() {
    for shards in FLEETS {
        for case in 0..6_000u64 {
            for (src, flags) in [all_opts_case(case), flag_combination_case(case)] {
                check_equivalent(&src, flags, shards);
            }
        }
    }
}

/// Lazy evaluation never *increases* round trips.
#[test]
fn lazy_never_more_round_trips() {
    for shards in FLEETS {
        for case in 0..64u64 {
            let mut rng = Rng::new(0x0007_2195 ^ case);
            let src = arb_program(&mut rng);
            let schema = schema();
            let env_o = fresh_env(shards);
            let o = sloth_lang::run_source(
                &src,
                &env_o,
                Arc::clone(&schema),
                ExecStrategy::Original,
                vec![],
            );
            let env_s = fresh_env(shards);
            let s = sloth_lang::run_source(
                &src,
                &env_s,
                Arc::clone(&schema),
                ExecStrategy::Sloth(OptFlags::all()),
                vec![],
            );
            if let (Ok(o), Ok(s)) = (o, s) {
                assert!(
                    s.net.round_trips <= o.net.round_trips,
                    "{shards} shard(s): sloth {} trips > original {} program:\n{src}",
                    s.net.round_trips,
                    o.net.round_trips
                );
            }
        }
    }
}

/// A row guard's dependant fails where the eager program does: a missing
/// cell the binder finds before a later failing read; a spliced read's SQL
/// error after an earlier buffered print's error.
#[test]
fn a_guarded_arm_fails_where_the_eager_program_does() {
    let missing_cell = "fn main() { let v = 0; \
         let r = query(\"SELECT v FROM t WHERE id = 1\"); \
         let q = query(\"SELECT id, v, s FROM t WHERE id = 3\"); \
         if (nrows(q) > 0) { let k = cell(q, 0, \"w\"); \
         let g = query(\"SELECT id, v FROM u WHERE id = \" + str(k)); v = v + nrows(g); } \
         else { v = v - 1; } \
         print(str(cell(r, 9, \"v\"))); print(str(v)); }";
    let late_read = "fn main() { \
         let r = query(\"SELECT v FROM t WHERE id = 1\"); \
         print(str(cell(r, 0, \"w\"))); \
         let q = query(\"SELECT id, v, s FROM t WHERE id = 4\"); \
         if (nrows(q) > 0) { let k = cell(q, 0, \"s\"); \
         let g = query(\"SELECT id, v FROM u WHERE id = \" + str(k)); print(str(nrows(g))); } \
         else { print(\"none\"); } \
         print(\"end\"); }";
    for src in [missing_cell, late_read] {
        for shards in FLEETS {
            for flags in [OptFlags::none(), OptFlags::all()] {
                check_equivalent(src, flags, shards);
            }
        }
    }
}

/// A buffered print's error is placed before a later statement's: the
/// lazy run raises it, as `Original` does, though it learns of the
/// statement's failure first.
#[test]
fn a_buffered_print_fails_before_a_later_statement() {
    let missing_row = "fn main() { \
         let r = query(\"SELECT v FROM t WHERE id = 1\"); print(str(cell(r, 9, \"v\"))); \
         let q = query(\"SELECT id, v, s FROM t WHERE id = 2\"); \
         if (nrows(q) > 0) { let k = cell(q, 0, \"w\"); print(str(k)); } print(\"end\"); }";
    let failing_guard = "fn main() { \
         let r = query(\"SELECT v FROM t WHERE id = 0\"); print(str(cell(r, 0, \"w\"))); \
         let q = query(\"SELECT id, v FROM t WHERE nope = 1\"); \
         if (nrows(q) > 0) { let k = cell(q, 0, \"v\"); \
         exec(\"UPDATE t SET v = v + 0 WHERE id = \" + str(k)); print(str(k)); } \
         else { print(\"none\"); } print(\"end\"); }";
    // The condition's fetch learns of the failing read: the row it fetched
    // is still the row the print reads.
    let forced_after = "fn main() { \
         let r = query(\"SELECT v FROM t WHERE id = 1\"); print(str(cell(r, 9, \"v\"))); \
         let q = query(\"SELECT v FROM missing\"); \
         if (nrows(r) > 0) { print(\"x\"); } print(str(nrows(q))); }";
    // The condition forces the failing cell first; the print forces it again.
    let forced_twice = "fn main() { \
         let r = query(\"SELECT v FROM t WHERE id = 1\"); let x = cell(r, 9, \"v\"); \
         print(str(x)); if (x > 0) { print(\"y\"); } print(\"end\"); }";
    for src in [missing_row, failing_guard, forced_after, forced_twice] {
        for shards in FLEETS {
            for flags in [OptFlags::none(), OptFlags::all()] {
                check_equivalent(src, flags, shards);
            }
        }
    }
}

/// An `if (nrows(q) > 0)` over no row runs nothing of its arm, whatever
/// its spliced statements would do: each write shape, with and without an
/// `else`, in a loop, inside a transaction or not.
#[test]
fn a_guarded_arm_over_no_row_runs_nothing() {
    let writes = [
        "exec(\"UPDATE t SET v = v + 1 WHERE id = \" + str(k));",
        "exec(\"UPDATE u SET v = \" + str(k) + \" WHERE id = 2\");",
        "exec(\"DELETE FROM u WHERE v >= \" + str(k));",
    ];
    for shards in FLEETS {
        for write in writes {
            for els in ["", " else { print(\"none\"); }"] {
                for (begin, commit) in [("", ""), ("begin();", "commit();")] {
                    let src = format!(
                        "fn main() {{ {begin} let n = 0; while (n < 2) {{ \
                         let q = query(\"SELECT id, v FROM t WHERE id = \" + str(5 + n)); \
                         if (nrows(q) > 0) {{ let k = cell(q, 0, \"v\"); {write} \
                         let g = query(\"SELECT id, v FROM u WHERE v >= \" + str(k)); \
                         print(str(k) + \"/\" + str(nrows(g))); }}{els} \
                         n = n + 1; }} {commit} print(\"end\"); }}"
                    );
                    for flags in [OptFlags::none(), OptFlags::all()] {
                        check_equivalent(&src, flags, shards);
                    }
                }
            }
        }
    }
}

/// A write branch and the reads after it give `Original`'s output, final
/// state and error under `Sloth(all)`, over [`arb_write_tail`]'s programs.
#[test]
fn a_write_branch_and_the_reads_after_it_match_original() {
    for shards in FLEETS {
        for case in 0..256u64 {
            let mut rng = Rng::new(0x3B1F_7A11 ^ case);
            let src = arb_write_tail(&mut rng);
            check_equivalent_with(&src, &[1], OptFlags::all(), shards);
        }
    }
}

/// A failing write in a branch fails before a later failing read, as in
/// the eager program: the branch registers its write where it stands.
#[test]
fn a_write_branch_fails_in_program_order() {
    let src = "fn main(x) { if (x > 0) { exec(\"UPDATE t SET nope = 1 WHERE id = 1\"); } \
         print(\"a\"); let r = query(\"SELECT v FROM missing\"); print(str(nrows(r))); }";
    for shards in FLEETS {
        for flags in [OptFlags::none(), OptFlags::all()] {
            check_equivalent_with(src, &[1], flags, shards);
        }
    }
}

/// Two programs the compiler once miscompiled: a read whose text a loop
/// carries into its second iteration, and a read whose literal lead holds
/// a comment naming a clause — both read `t1` after a branch writes it.
#[test]
fn a_loop_carried_or_commented_read_sees_the_write_before_it() {
    let looped = "fn main(x) { \
         if (x > 0) { exec(\"UPDATE t1 SET v = 100 WHERE id = 1\"); } \
         print(\"start\"); \
         let q = \"SELECT v FROM u WHERE id = 1\"; let i = 0; \
         while (i < 2) { let r = query(q); print(str(cell(r, 0, \"v\"))); \
         q = \"SELECT v FROM t1 WHERE id = 1\"; i = i + 1; } }";
    let commented = "fn main(x) { \
         if (x > 0) { exec(\"UPDATE t1 SET v = 100 WHERE id = 1\"); } \
         print(\"start\"); \
         let r = query(\"SELECT /* where */ v FROM t\" + str(x) + \" WHERE id = 1\"); \
         print(str(cell(r, 0, \"v\"))); }";
    for src in [looped, commented] {
        for shards in FLEETS {
            check_equivalent_with(src, &[1], OptFlags::all(), shards);
        }
    }
}

/// Every 1+N loop [`assoc_loop`] draws in the lowered shape — over each
/// list and association, bound directly or through `bn`, guarded or not —
/// gives `Original`'s output and ships with its list: Sloth makes one
/// round trip where the loop itself cost one more.
#[test]
fn a_one_plus_n_loop_ships_with_its_list() {
    let bases = [
        ("orm_find_all(\"wr\")", "row"),
        ("orm_find_where(\"wr\", \"s\", \"a\")", "row"),
        ("orm_find_where(\"wr\", \"s\", \"c\")", "row"),
        ("orm_find_where(\"wr\", \"s\", \"zz\")", "row"),
        ("orm_find_all(\"tr\")", "ws"),
        ("orm_find_where(\"tr\", \"v\", 8)", "ws"),
        ("orm_find_all(\"tr\")", "item"),
    ];
    for shards in FLEETS {
        for (base, assoc) in bases {
            for (bn, bound) in [("", "len(b)"), ("let bn = len(b);", "bn")] {
                let body = format!(
                    "let b = {base}; {bn} let acc = []; let k = 0; \
                     while (k < {bound}) {{ let el = at(b, k); push(acc, orm_assoc(el, \"{assoc}\")); k = k + 1; }} \
                     print(str(acc));"
                );
                for guarded in [false, true] {
                    let src = if guarded {
                        format!(
                            "fn main(x) {{ if (x > 0) {{ {body} }} else {{ print(\"no\"); }} }}"
                        )
                    } else {
                        format!("fn main(x) {{ {body} }}")
                    };
                    for flags in [OptFlags::none(), OptFlags::all()] {
                        check_equivalent_with(&src, &[1], flags, shards);
                    }
                    let run = sloth_lang::run_source(
                        &src,
                        &fresh_env(shards),
                        schema(),
                        ExecStrategy::Sloth(OptFlags::all()),
                        vec![V::Int(1)],
                    )
                    .unwrap();
                    assert_eq!(run.net.round_trips, 1, "{shards} shard(s): {src}");
                }
            }
        }
    }
}

/// A list pushed to, cleared or aliased before its 1+N loop gives what
/// `Original` gives: the loop runs `bn` times when its bound was read
/// before the change, and over the list as changed when the bound is read
/// in the loop — guarded too, where the list's read moves above the `if`
/// and the loop's read must stay behind the change.
#[test]
fn a_list_changed_before_its_loop_gives_the_loops_answer() {
    for shards in FLEETS {
        for touch in ["push(b, 5);", "clear(b);", "let c = b; push(c, 5);"] {
            for (bn, bound) in [("let bn = len(b);", "bn"), ("", "len(b)")] {
                let body = format!(
                    "let b = orm_find_all(\"wr\"); {bn} {touch} let acc = []; let k = 0; \
                     while (k < {bound}) {{ let el = at(b, k); push(acc, orm_assoc(el, \"row\")); k = k + 1; }} \
                     print(str(acc));"
                );
                for src in [
                    format!("fn main(x) {{ {body} }}"),
                    format!("fn main(x) {{ if (x > 0) {{ {body} }} else {{ print(\"no\"); }} }}"),
                ] {
                    for flags in [OptFlags::none(), OptFlags::all()] {
                        check_equivalent_with(&src, &[1], flags, shards);
                    }
                }
            }
        }
    }
}
