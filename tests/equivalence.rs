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

use sloth_lang::{run_source, ExecStrategy, OptFlags};
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
fn arb_program(rng: &mut Rng) -> String {
    let n = rng.range(1, 12);
    let mut stmts = Vec::new();
    let mut pool = false;
    for i in 0..n {
        let stmt = match rng.range(0, 15) {
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
            _ => guarded_read(rng, i),
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
/// `nrows`, by a loop over its rows, or — where it cannot fail — not at
/// all.
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
    // query: that read is always demanded, as every failing draw is.
    let fails = column == "s" && !text.contains('\'');
    let demand = match rng.range(0, if fails { 3 } else { 4 }) {
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

/// The deployments every property runs on: one server, and the table
/// hash-partitioned over a 4-shard fleet.
const FLEETS: [usize; 2] = [1, 4];

fn fresh_env(shards: usize) -> SimEnv {
    let env = if shards == 1 {
        SimEnv::default_env()
    } else {
        let spec = ShardSpec::new().shard("t", "id").shard("u", "id");
        ShardedEnv::new(CostModel::default(), spec, shards).handle()
    };
    env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
        .unwrap();
    for i in 0..5 {
        let s = if i == 3 {
            "NULL".into()
        } else {
            format!("'a{i}'")
        };
        env.seed_sql(&format!("INSERT INTO t VALUES ({i}, {}, {s})", i * 7 + 1))
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
    env
}

fn table_state(env: &SimEnv) -> Vec<Vec<sloth_sql::Value>> {
    env.query("SELECT id, v FROM t ORDER BY id").unwrap().rows
}

/// A lazy run's error as the serial program states it: a SQL error that
/// surfaced from a batch also names the batch it failed in.
fn unbatched(message: &str) -> &str {
    message
        .split_once("batch failed: ")
        .and_then(|(_, rest)| rest.rsplit_once(" (while batched: "))
        .map_or(message, |(inner, _)| inner)
}

fn check_equivalent(src: &str, flags: OptFlags, shards: usize) {
    let schema = Arc::new(Schema::new());
    let env_o = fresh_env(shards);
    let o = run_source(
        src,
        &env_o,
        Arc::clone(&schema),
        ExecStrategy::Original,
        vec![],
    );
    let env_s = fresh_env(shards);
    let s = run_source(
        src,
        &env_s,
        Arc::clone(&schema),
        ExecStrategy::Sloth(flags),
        vec![],
    );
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
        (Err(o), Err(s)) => assert_eq!(
            o.message,
            unbatched(&s.message),
            "{shards} shard(s), program:\n{src}"
        ),
        (o, s) => panic!(
            "one mode failed on {shards} shard(s): orig={:?} sloth={:?} program:\n{src}",
            o.map(|r| r.output),
            s.map(|r| r.output)
        ),
    }
}

/// Standard vs. lazy semantics: identical output, identical final DB —
/// for the fully optimized configuration.
#[test]
fn lazy_equals_standard_all_opts() {
    for shards in FLEETS {
        for case in 0..64u64 {
            let mut rng = Rng::new(0xA11_0975 ^ case);
            let src = arb_program(&mut rng);
            check_equivalent(&src, OptFlags::all(), shards);
        }
    }
}

/// Equivalence must hold for *every* optimization configuration —
/// the optimizations are semantics-preserving (§4).
#[test]
fn lazy_equals_standard_all_flag_combinations() {
    for shards in FLEETS {
        for case in 0..64u64 {
            let mut rng = Rng::new(0xF1A6 ^ case);
            let src = arb_program(&mut rng);
            let mask = rng.range(0, 16) as u8;
            let flags = OptFlags {
                selective: mask & 1 != 0,
                coalesce: mask & 2 != 0,
                defer_branches: mask & 4 != 0,
                buffered_writer: mask & 8 != 0,
            };
            check_equivalent(&src, flags, shards);
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
            let schema = Arc::new(Schema::new());
            let env_o = fresh_env(shards);
            let o = run_source(
                &src,
                &env_o,
                Arc::clone(&schema),
                ExecStrategy::Original,
                vec![],
            );
            let env_s = fresh_env(shards);
            let s = run_source(
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
