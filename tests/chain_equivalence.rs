//! Dependent-chain equivalence, property-tested at the **program** level:
//! random kernel-language programs that walk linked rows and fan out from
//! them — `orm_find` keyed by a field of a row nobody has fetched,
//! `orm_assoc` on such a row, `orm_find_where` / `orm_count_where` keyed
//! the same way — over data with dangling links and `NULL` keys, with
//! writes registered between the links (disjoint, conflicting, inside a
//! silent transaction) and heap writes to the very fields the chain reads.
//!
//! Under Sloth each such query registers as a *dependent* of its parent's
//! query and the chain ships whole. Every arm must print what a serial
//! `Original` run on a bare database prints, fail with the same text,
//! leave the same rows behind — and never take more round trips than the
//! same program does when every link forces its parent first (what every
//! link did before dependent statements existed):
//!
//! fusion on / off × optimizations all / none × result cache (cold, warm,
//! half-warm, invalidated mid-chain) × 1- / 4-shard fleet × two
//! concurrent sessions on one dispatcher × drops, timeouts and journal
//! replays.
//!
//! A second generator wraps such reads in a guard — `if (…) { body }` —
//! whose arms' reads guard hoisting moves above the `if`: true and false
//! guards, guards that force a row, a list or a write, chained hoists,
//! every shape that must stay put, and untaken arms holding reads that
//! would fail. `Original`, `Sloth(none)` (no hoisting) and `Sloth(all)`
//! must agree, and hoisting must never cost a round trip.
//!
//! Deterministic SplitMix64 cases (no third-party crates available);
//! failures print the generating program.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier, Mutex};

use sloth_lang::{
    parse_program, prepare_with_schema, DataLayer, ExecStrategy, OptFlags, RunError, V,
};
use sloth_net::{CostModel, Dispatcher, FaultPlan, RetryPolicy, ShardedEnv, SimEnv};
use sloth_orm::{entity, many_to_one, one_to_many, FetchStrategy, Schema};
use sloth_sql::ast::ColumnType::{Int, Text};
use sloth_sql::{ShardSpec, Value};

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

    fn chance(&mut self, one_in: i64) -> bool {
        self.range(0, one_in) == 0
    }
}

// ---- schema and data ---------------------------------------------------

const NODES: i64 = 24;

fn schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add(entity(
        "node",
        "node",
        "id",
        &[
            ("id", Int),
            ("next_id", Int),
            ("owner_id", Int),
            ("label", Text),
        ],
        vec![
            many_to_one("owner", "owner", "owner_id", FetchStrategy::Lazy),
            one_to_many("tags", "tag", "node_id", FetchStrategy::Lazy),
        ],
    ));
    s.add(entity(
        "owner",
        "owner",
        "id",
        &[("id", Int), ("name", Text), ("group_id", Int)],
        vec![many_to_one("group", "grp", "group_id", FetchStrategy::Lazy)],
    ));
    s.add(entity(
        "grp",
        "grp",
        "id",
        &[("id", Int), ("title", Text)],
        vec![],
    ));
    s.add(entity(
        "tag",
        "tag",
        "id",
        &[("id", Int), ("node_id", Int), ("text", Text)],
        vec![],
    ));
    Arc::new(s)
}

/// Node `i` links to `i + 1` — except where the list is broken on
/// purpose: `NULL` links, links to rows that do not exist, owners that do
/// not exist, an owner without a group and one whose group is missing.
fn seed(env: &SimEnv) {
    for ddl in schema().ddl() {
        env.seed_sql(&ddl).unwrap();
    }
    for i in 1..=NODES {
        let next = match i {
            9 | NODES => "NULL".to_string(),
            14 => "140".to_string(),
            _ => (i + 1).to_string(),
        };
        let owner = match i % 7 {
            0 => "NULL".to_string(),
            3 => "77".to_string(),
            k => (1 + k % 5).to_string(),
        };
        env.seed_sql(&format!(
            "INSERT INTO node VALUES ({i}, {next}, {owner}, 'n{i}')"
        ))
        .unwrap();
        for j in 0..(i % 3) {
            env.seed_sql(&format!(
                "INSERT INTO tag VALUES ({}, {i}, 't{i}-{j}')",
                i * 10 + j
            ))
            .unwrap();
        }
    }
    for o in 1..=5 {
        let group = match o {
            4 => "9".to_string(),
            5 => "NULL".to_string(),
            _ => (1 + o % 2).to_string(),
        };
        env.seed_sql(&format!(
            "INSERT INTO owner VALUES ({o}, 'owner{o}', {group})"
        ))
        .unwrap();
    }
    for g in 1..=2 {
        env.seed_sql(&format!("INSERT INTO grp VALUES ({g}, 'group{g}')"))
            .unwrap();
    }
}

/// A fresh single-server deployment (seeded once, copied per call).
fn single() -> SimEnv {
    static SEEDED: std::sync::OnceLock<sloth_sql::Database> = std::sync::OnceLock::new();
    let db = SEEDED.get_or_init(|| {
        let env = SimEnv::default_env();
        seed(&env);
        env.snapshot_db()
    });
    SimEnv::from_database(db.clone(), CostModel::default())
}

fn fleet(shards: usize) -> SimEnv {
    let spec = ShardSpec::new()
        .shard("node", "id")
        .shard("tag", "node_id")
        .shard("owner", "id");
    let env = ShardedEnv::new(CostModel::default(), spec, shards).handle();
    seed(&env);
    env
}

fn state(env: &SimEnv) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for sql in [
        "SELECT id, next_id, owner_id, label FROM node ORDER BY id",
        "SELECT id, name, group_id FROM owner ORDER BY id",
        "SELECT id, title FROM grp ORDER BY id",
        "SELECT id, node_id, text FROM tag ORDER BY id",
    ] {
        rows.extend(env.query(sql).unwrap().rows);
    }
    rows
}

// ---- program generation ------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Node,
    Owner,
}

/// One generated program, in two renderings of the same statements:
/// `chained` as written, and `forced`, where every use of a row as a
/// parent is preceded by a branch on it — the §3.3 behaviour of forcing a
/// query's parameters at registration, which is what each link cost
/// before it could depend on its parent.
struct Program {
    chained: String,
    forced: String,
    /// Ids of the rows the head-of-chain lookups name, for cache warming.
    heads: Vec<i64>,
}

/// A program's statements, one per entry: the statement, and what the
/// forced rendering puts in front of it.
type Lines = Vec<(String, String)>;

fn render(lines: &[(String, String)], heads: &[i64]) -> Program {
    let wrap = |body: String| format!("fn main(arg) {{\n    let scratch = new {{ }};\n{body}}}\n");
    Program {
        chained: wrap(lines.iter().map(|(l, _)| l.as_str()).collect()),
        forced: wrap(
            lines
                .iter()
                .flat_map(|(l, f)| [f.as_str(), l.as_str()])
                .collect(),
        ),
        heads: heads.to_vec(),
    }
}

/// A row-valued variable of the program being generated.
#[derive(Clone)]
struct Var {
    name: String,
    kind: Kind,
    /// Printed whole (`str(v)`, which shows `null` for a missing row). The
    /// buffering writer renders at the end of the request, so such a row
    /// must not be heap-written afterwards.
    whole: bool,
    /// Printed at all. Whatever hangs off an unprinted row is printed, so
    /// a missing row always surfaces (a query nobody demands never runs,
    /// and so never fails, under Sloth).
    shown: bool,
}

struct Gen<'r> {
    rng: &'r mut Rng,
    vars: Vec<Var>,
    lines: Lines,
    heads: Vec<i64>,
    writes: bool,
    /// Draws 1+N loops ([`Gen::fan`]) too.
    fans: bool,
    n: usize,
}

impl Gen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.n += 1;
        format!("{prefix}{}", self.n)
    }

    fn line(&mut self, src: &str) {
        self.lines.push((src.to_string(), String::new()));
    }

    /// `src` uses `parent` as a parent: the forced rendering fetches it
    /// first.
    fn link(&mut self, parent: &str, src: &str) {
        // An `if` never defers, so its condition — and with it `parent`
        // — is forced where it stands.
        let force = format!("    if ({parent} == {parent}) {{ scratch.seen = 1; }}\n");
        self.lines.push((src.to_string(), force));
    }

    fn show(&mut self, var: &str) {
        self.line(&format!("    print(str({var}));\n"));
    }

    /// Defines a row variable by `src` — hanging off `parent`, if any —
    /// and prints it: whole, by one column (which fails on a missing
    /// row), or — when it hangs off a printed parent — sometimes not at
    /// all.
    fn define(&mut self, name: String, kind: Kind, parent: Option<&Var>, src: &str) {
        match parent {
            Some(p) => self.link(&p.name.clone(), src),
            None => self.line(src),
        }
        let must_show = parent.is_some_and(|p| !p.shown);
        let (whole, shown) = match self.rng.range(0, 4) {
            0 | 1 => (true, true),
            2 => (false, true),
            _ => (must_show, must_show),
        };
        if whole {
            self.show(&name);
        } else if shown {
            let column = match kind {
                Kind::Node => "label",
                Kind::Owner => "name",
            };
            self.line(&format!("    print(str({name}.{column}));\n"));
        }
        self.vars.push(Var {
            name,
            kind,
            whole,
            shown,
        });
    }

    fn pick(&mut self, kind: Kind) -> Option<usize> {
        let of_kind: Vec<usize> = (0..self.vars.len())
            .filter(|&i| self.vars[i].kind == kind)
            .collect();
        // Mostly the newest: that is what makes chains deep.
        let newest = *of_kind.last()?;
        Some(if self.rng.chance(3) {
            of_kind[self.rng.range(0, of_kind.len() as i64) as usize]
        } else {
            newest
        })
    }

    fn head(&mut self) {
        let id = match self.rng.range(0, 10) {
            0 => 99, // no such node: the whole chain hangs off a missing row
            _ => self.rng.range(1, NODES + 1),
        };
        self.heads.push(id);
        let v = self.fresh("v");
        let src = format!("    let {v} = orm_find(\"node\", {id});\n");
        self.define(v, Kind::Node, None, &src);
    }

    /// A value — a list, a count — keyed by `parent`'s row.
    fn hang(&mut self, parent: usize, prefix: &str, expr: &str) -> String {
        let v = self.fresh(prefix);
        let p = self.vars[parent].name.clone();
        let expr = expr.replace("{p}", &p);
        self.link(&p, &format!("    let {v} = {expr};\n"));
        self.show(&v);
        v
    }

    fn step(&mut self) {
        let Some(at) = self.pick(Kind::Node) else {
            return self.head();
        };
        let node = self.vars[at].name.clone();
        let draw = if self.fans {
            self.rng.range(0, 20)
        } else {
            self.rng.range(0, 16)
        };
        match draw {
            // The walk: the next node, keyed by a field of this one —
            // inline, or through a variable of its own.
            0..=4 => {
                let v = self.fresh("v");
                let p = self.vars[at].clone();
                if self.rng.chance(3) {
                    let k = self.fresh("k");
                    self.link(&node, &format!("    let {k} = {node}.next_id;\n"));
                    self.show(&k);
                    if !p.whole && self.rng.chance(2) {
                        // The key was read from the row: a later heap
                        // write to the same field must not reach it.
                        self.line(&format!("    {node}.next_id = 3;\n"));
                    }
                    let src = format!("    let {v} = orm_find(\"node\", {k});\n");
                    // `k` was printed: the parent's absence has surfaced.
                    self.define(v, Kind::Node, None, &src);
                } else {
                    let src = format!("    let {v} = orm_find(\"node\", {node}.next_id);\n");
                    self.define(v, Kind::Node, Some(&p), &src);
                }
            }
            // Fan-out from one parent.
            5 | 6 => {
                let v = self.fresh("o");
                let p = self.vars[at].clone();
                let src = if self.rng.chance(2) {
                    format!("    let {v} = orm_assoc({node}, \"owner\");\n")
                } else {
                    format!("    let {v} = orm_find(\"owner\", {node}.owner_id);\n")
                };
                self.define(v, Kind::Owner, Some(&p), &src);
            }
            7 => {
                let v = self.hang(at, "t", "orm_assoc({p}, \"tags\")");
                if self.rng.chance(2) {
                    // The memo: the same list, whenever it is asked for.
                    let again = self.fresh("t");
                    self.link(
                        &node,
                        &format!("    let {again} = orm_assoc({node}, \"tags\");\n"),
                    );
                    self.line(&format!("    print(str({v} == {again}));\n"));
                }
            }
            8 => {
                self.hang(at, "w", "orm_find_where(\"tag\", \"node_id\", {p}.id)");
            }
            9 => {
                self.hang(at, "c", "orm_count_where(\"tag\", \"node_id\", {p}.id)");
            }
            // Two links deep off the fan-out.
            10 => {
                if let Some(owner) = self.pick(Kind::Owner) {
                    self.hang(owner, "g", "orm_assoc({p}, \"group\")");
                }
            }
            11 => self.head(),
            12 => {
                self.line(&format!(
                    "    if ({node}.label != \"zz\") {{ print(\"seen\"); }}\n"
                ));
            }
            // Writes between the links.
            13..=15 if self.writes => self.write(),
            16.. => self.fan(at),
            _ => {}
        }
    }

    /// The 1+N loop over the nodes sharing `parent`'s owner: `orm_assoc`
    /// of each, pushed to a fresh list — one each-row dependant of a list
    /// keyed by a field of `parent`'s row, which may be missing.
    fn fan(&mut self, parent: usize) {
        let p = self.vars[parent].name.clone();
        let [w, acc, k, el] = ["w", "a", "k", "e"].map(|prefix| self.fresh(prefix));
        self.link(
            &p,
            &format!("    let {w} = orm_find_where(\"node\", \"owner_id\", {p}.owner_id);\n"),
        );
        self.line(&format!(
            "    let {acc} = [];\n    let {k} = 0;\n    while ({k} < len({w})) {{\n        \
             let {el} = at({w}, {k});\n        push({acc}, orm_assoc({el}, \"owner\"));\n        \
             {k} = {k} + 1;\n    }}\n"
        ));
        self.show(&acc);
    }

    fn write(&mut self) {
        let id = self.rng.range(1, NODES + 1);
        let tag = self.n;
        match self.rng.range(0, 7) {
            // Same table as the chain: conflicts with every unbound link.
            0 | 1 => self.line(&format!(
                "    orm_update(\"node\", {id}, \"label\", \"w{tag}\");\n"
            )),
            // Re-links the list, ahead of the walk or behind it.
            2 => {
                let to = self.rng.range(1, NODES + 1);
                self.line(&format!(
                    "    orm_update(\"node\", {id}, \"next_id\", {to});\n"
                ));
            }
            // Disjoint from the walk; conflicts with the fan-out.
            3 => self.line(&format!(
                "    exec(\"UPDATE grp SET title = 'g{tag}' WHERE id = {}\");\n",
                1 + id % 2
            )),
            4 => self.line(&format!(
                "    orm_update(\"owner\", {}, \"name\", \"o{tag}\");\n",
                1 + id % 5
            )),
            // A silent transaction.
            5 => {
                self.line("    begin();\n");
                self.line(&format!(
                    "    orm_update(\"node\", {id}, \"label\", \"x{tag}\");\n"
                ));
                self.line(&format!(
                    "    exec(\"UPDATE grp SET title = 'x{tag}' WHERE id = 1\");\n"
                ));
                self.line("    commit();\n");
            }
            // `arg` keeps a second run of the program from colliding.
            _ => self.line(&format!(
                "    orm_save(\"tag\", [1000 + arg * 100 + {tag}, {id}, \"new{tag}\"]);\n"
            )),
        }
    }
}

fn arb_program(rng: &mut Rng, writes: bool, fans: bool) -> (Lines, Vec<i64>) {
    let steps = rng.range(3, 22);
    let mut g = Gen {
        rng,
        vars: Vec::new(),
        lines: Vec::new(),
        heads: Vec::new(),
        writes,
        fans,
        n: 0,
    };
    g.head();
    for _ in 0..steps {
        g.step();
    }
    (g.lines, g.heads)
}

// ---- running ------------------------------------------------------------

/// What a run shows the outside: its printed lines, or its error text.
type Body = Result<Vec<String>, String>;

/// Runs `src` on `env`: its body and, for a lazy run, the statements its
/// query store never shipped.
fn run(src: &str, env: &SimEnv, strategy: ExecStrategy, arg: i64) -> (Body, Vec<String>) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let schema = schema();
    let prepared = prepare_with_schema(&program, strategy, Some(&schema));
    let data = match strategy {
        ExecStrategy::Original => DataLayer::immediate(env.clone(), schema),
        ExecStrategy::Sloth(_) => DataLayer::deferred(env.clone(), schema),
    };
    ran(prepared.run_with(data.clone(), vec![V::Int(arg)]), &data)
}

/// A run's body, and the statements `data`'s store never shipped.
fn ran(result: Result<sloth_lang::RunResult, RunError>, data: &DataLayer) -> (Body, Vec<String>) {
    let unshipped = data
        .store
        .as_ref()
        .map(|s| s.unshipped())
        .unwrap_or_default();
    (result.map(|r| r.output).map_err(|e| e.message), unshipped)
}

/// The cases of one suite whose programs differ from `Original` by
/// DESIGN.md's one exception to the failure order, and the cases seen
/// to differ that way.
///
/// The exception: a thunk's computation error is raised where the thunk
/// is forced. Here that is a read keyed by a row that does not exist —
/// `orm_find(…, v.f)` or `orm_assoc(v, …)` with `v` null — which
/// `Original` fails on where it stands and a lazy run only where (if
/// ever) it forces the read. A listed program's lazy run may then
/// succeed, or fail on another such `null`; never with a database's
/// error. Every other judgment is exact, and the suite fails if a case
/// it does not list differs or a case it lists stops differing.
struct Excepted {
    listed: &'static [u64],
    seen: Mutex<BTreeSet<u64>>,
}

impl Excepted {
    fn new(listed: &'static [u64]) -> Self {
        Excepted {
            listed,
            seen: Mutex::default(),
        }
    }

    /// Records that `case` differed by the exception; whether it is listed.
    fn admit(&self, case: u64) -> bool {
        self.seen.lock().unwrap().insert(case);
        self.listed.contains(&case)
    }

    /// Asserts that every listed case differed.
    fn finish(self) {
        let seen: Vec<u64> = self.seen.into_inner().unwrap().into_iter().collect();
        assert_eq!(seen, self.listed, "cases differing by the exception");
    }
}

/// Judges a lazy run's body `got` against `Original`'s `want` as
/// `tests/equivalence.rs` does: error text compared exactly, and a lazy
/// success over an `Original` failure accepted only when a statement the
/// store never shipped, run alone on `fresh()`, raises that error (§3.3:
/// a read nothing demands never runs). A program `excepted` lists may
/// differ by the exception [`Excepted`] describes.
fn judge(
    label: &str,
    src: &str,
    (got, unshipped): &(Body, Vec<String>),
    want: &Body,
    fresh: &dyn Fn() -> SimEnv,
    (excepted, case): (&Excepted, u64),
) {
    let on_null = |e: &str| e.ends_with(" read on null") || e == "orm_assoc on non-entity null";
    match (want, got) {
        (Err(o), _)
            if got != want && on_null(o) && got.as_ref().err().is_none_or(|s| on_null(s)) =>
        {
            assert!(
                excepted.admit(case),
                "{label}: {got:?} where Original failed with {o:?}, \
                 a case not listed as differing by the exception\n{src}"
            );
        }
        (Err(o), Ok(_)) => {
            let raises = |sql: &String| {
                fresh()
                    .query(sql)
                    .is_err_and(|e| RunError::from(e).message == *o)
            };
            assert!(
                unshipped.iter().any(raises),
                "{label}: lazy run succeeded where Original failed with {o:?}, \
                 unshipped {unshipped:?}\n{src}"
            );
        }
        _ => assert_eq!(got, want, "{label}: body diverged\n{src}"),
    }
}

const SLOTH: ExecStrategy = ExecStrategy::Sloth(OptFlags {
    selective: true,
    coalesce: true,
    hoist: true,
});

/// A random program, what `Original` makes of it on a fresh database, and
/// that database afterwards. A failing program is judged whole (see
/// [`judge`]).
fn generate(rng: &mut Rng, writes: bool, fans: bool) -> (Program, Body, SimEnv) {
    let (lines, heads) = arb_program(rng, writes, fans);
    let reference = single();
    let p = render(&lines, &heads);
    let (body, _) = run(&p.chained, &reference, ExecStrategy::Original, 0);
    (p, body, reference)
}

/// Runs the program on `env` (a deployment `fresh` builds another of)
/// under Sloth and judges it against the reference run (`excepted` as
/// [`judge`] takes it); returns its round trips.
fn check(
    label: &str,
    p: &Program,
    (env, fresh): (&SimEnv, &dyn Fn() -> SimEnv),
    want: &Body,
    reference: &SimEnv,
    excepted: (&Excepted, u64),
) -> u64 {
    let before = env.stats().round_trips;
    let got = run(&p.chained, env, SLOTH, 0);
    judge(label, &p.chained, &got, want, fresh, excepted);
    let trips = env.stats().round_trips - before;
    // A failed request stops where it failed — under Sloth, possibly with
    // deferred writes unshipped — so only a served page has a final state
    // to compare.
    if want.is_ok() {
        assert_eq!(
            state(env),
            state(reference),
            "{label}: final state diverged\n{}",
            p.chained
        );
    }
    trips
}

// ---- the suites -----------------------------------------------------------

/// Single server: optimizations all / none × fusion on / off, and the
/// round-trip claim itself.
#[test]
fn chains_print_what_the_original_prints_in_no_more_trips_than_forcing() {
    let (mut chained, mut forced, mut failing) = (0u64, 0u64, 0u64);
    let excepted = Excepted::new(&[36, 58, 89, 150]);
    for case in 0..160 {
        let mut rng = Rng::new(0xC4A1 ^ case);
        let (p, want, reference) = generate(&mut rng, true, false);
        failing += want.is_err() as u64;
        for (label, fusion) in [("fusion on", true), ("fusion off", false)] {
            let env = single();
            env.set_fusion(fusion);
            let trips = check(
                &format!("case {case} {label}"),
                &p,
                (&env, &single),
                &want,
                &reference,
                (&excepted, case),
            );
            if !fusion {
                continue;
            }
            // What the same program cost while every link forced its
            // parent. (A failing run stops early wherever it fails.)
            let today = single();
            let (body, _) = run(&p.forced, &today, SLOTH, 0);
            if let (Ok(body), Ok(want)) = (&body, &want) {
                assert_eq!(body, want, "case {case}: forced rendering\n{}", p.forced);
                let today = today.stats().round_trips;
                assert!(
                    trips <= today,
                    "case {case}: {trips} trips chained, {today} forced\n{}",
                    p.chained
                );
                chained += trips;
                forced += today;
            }
        }
        let env = single();
        let got = run(&p.chained, &env, ExecStrategy::Sloth(OptFlags::none()), 0);
        judge(
            &format!("case {case} noopt"),
            &p.chained,
            &got,
            &want,
            &single,
            (&excepted, case),
        );
        if want.is_ok() {
            assert_eq!(state(&env), state(&reference), "case {case} noopt");
        }
    }
    excepted.finish();
    assert!(failing > 10, "missing parents were reached: {failing}");
    // The programs force on purpose (branches, heap writes, conflicting
    // writes), so the saving is far from the whole chain — but it is
    // there, program after program.
    assert!(
        chained * 3 <= forced * 2,
        "chains save a third of the trips: {chained} vs {forced}"
    );
}

/// The result cache: cold then warm (a warm chain is all hits), half-warm
/// (the head of each chain cached, the rest not), and invalidated
/// mid-chain between two runs.
#[test]
fn chains_through_the_result_cache() {
    let mut warm_trips = 0u64;
    let mut cold_trips = 0u64;
    let excepted = Excepted::new(&[30, 79]);
    for case in 0..80 {
        let mut rng = Rng::new(0xCAC4E ^ case);
        let (p, want, reference) = generate(&mut rng, true, false);
        let env = single();
        env.set_result_cache(true);
        if case % 2 == 0 {
            // Half-warm: only the chain heads are cached.
            for id in &p.heads {
                env.query(&format!("SELECT * FROM node WHERE id = {id}"))
                    .unwrap();
            }
        }
        cold_trips += check(
            &format!("case {case} cold"),
            &p,
            (&env, &single),
            &want,
            &reference,
            (&excepted, case),
        );
        if want.is_err() {
            continue; // the two sides stopped at different points
        }

        if case % 3 == 0 {
            // Invalidate the middle of whatever is cached.
            let sql = format!(
                "UPDATE node SET label = 'inv{case}' WHERE id = {}",
                rng.range(1, NODES + 1)
            );
            env.query(&sql).unwrap();
            reference.query(&sql).unwrap();
        }
        // A second request of the same page, on both sides.
        let (want, _) = run(&p.chained, &reference, ExecStrategy::Original, 1);
        let before = env.stats().round_trips;
        let (got, _) = run(&p.chained, &env, SLOTH, 1);
        assert_eq!(got, want, "case {case} warm\n{}", p.chained);
        assert_eq!(state(&env), state(&reference), "case {case} warm");
        warm_trips += env.stats().round_trips - before;
    }
    excepted.finish();
    assert!(
        warm_trips < cold_trips,
        "the cache answered chains: {warm_trips} warm vs {cold_trips} cold"
    );
}

/// A fleet binds, then routes: one client trip, hops behind it.
#[test]
fn chains_on_a_fleet() {
    let excepted = Excepted::new(&[27, 29, 39]);
    for case in 0..60 {
        let mut rng = Rng::new(0xF1EE7 ^ case);
        let (p, want, reference) = generate(&mut rng, true, false);
        let single_trips = check(
            &format!("case {case} single"),
            &p,
            (&single(), &single),
            &want,
            &reference,
            (&excepted, case),
        );
        for shards in [1, 4] {
            let env = fleet(shards);
            env.set_result_cache(case % 2 == 0);
            let trips = check(
                &format!("case {case} {shards} shards"),
                &p,
                (&env, &|| fleet(shards)),
                &want,
                &reference,
                (&excepted, case),
            );
            if case % 2 == 1 {
                assert_eq!(trips, single_trips, "case {case}: fleet = single server");
            }
        }
    }
    excepted.finish();
}

/// Two sessions, one dispatcher, started together: each session's chains
/// ship in its own flushes, each reference following its own parent.
#[test]
fn chains_from_two_concurrent_sessions() {
    let schema = schema();
    let excepted = Excepted::new(&[]);
    for case in 0..24 {
        // Read-only pages: what two sessions may do to each other's rows
        // is the dispatcher suites' subject, not this one's.
        let pages: Vec<(Program, Body)> = (0..2)
            .map(|s| {
                let mut rng = Rng::new(0xD15C ^ (case * 2 + s));
                let (p, want, _) = generate(&mut rng, false, false);
                (p, want)
            })
            .collect();
        let env = single();
        let dispatcher = Arc::new(Dispatcher::new(env.clone()));
        let start = Barrier::new(pages.len());
        std::thread::scope(|scope| {
            for (p, want) in &pages {
                let dispatcher = Arc::clone(&dispatcher);
                let schema = Arc::clone(&schema);
                let (start, excepted) = (&start, &excepted);
                scope.spawn(move || {
                    let program = parse_program(&p.chained).unwrap();
                    let prepared = prepare_with_schema(&program, SLOTH, Some(&schema));
                    let data = DataLayer::dispatched(dispatcher, schema);
                    start.wait();
                    let got = ran(prepared.run_with(data.clone(), vec![V::Int(0)]), &data);
                    judge(
                        &format!("case {case}"),
                        &p.chained,
                        &got,
                        want,
                        &single,
                        (excepted, case),
                    );
                });
            }
        });
        let d = dispatcher.stats();
        assert_eq!(d.flushes, env.stats().round_trips, "case {case}");
    }
}

/// Dropped requests, timeouts and journal replays: a replayed chain
/// re-binds from the journaled rows, and writes between its links apply
/// exactly once.
#[test]
fn chains_under_drops_timeouts_and_replays() {
    let (mut retries, mut journal_hits) = (0u64, 0u64);
    let excepted = Excepted::new(&[]);
    for case in 0..60 {
        let mut rng = Rng::new(0xCA05 ^ case);
        let (p, want, reference) = generate(&mut rng, true, false);
        for shards in [1usize, 4] {
            let env = if shards == 1 { single() } else { fleet(shards) };
            env.set_result_cache(case % 3 == 0);
            env.set_retry_policy(RetryPolicy {
                max_attempts: 10,
                ..Default::default()
            });
            env.set_faults(Some(
                FaultPlan::seeded(0xFA17 ^ case).drops(150).timeouts(150, 8),
            ));
            let got = run(&p.chained, &env, SLOTH, 0);
            let fs = env.fault_stats();
            assert_eq!(fs.exhausted_batches, 0, "case {case}: absorbable: {fs:?}");
            retries += fs.retries;
            journal_hits += fs.journal_hits;
            env.set_faults(None);
            let fresh = || if shards == 1 { single() } else { fleet(shards) };
            judge(
                &format!("case {case} {shards} shards"),
                &p.chained,
                &got,
                &want,
                &fresh,
                (&excepted, case),
            );
            if want.is_ok() {
                assert_eq!(
                    state(&env),
                    state(&reference),
                    "case {case} {shards} shards"
                );
            }
        }
    }
    assert!(
        retries > 20 && journal_hits > 20,
        "{retries} {journal_hits}"
    );
}

/// The 1+N loop hung off rows that may be missing: each-row fans over a
/// list keyed by a field of a node nobody has fetched — a head of `99`,
/// a dangling link, a `NULL` owner — on one server, a 4-shard fleet and
/// through the result cache, cold and then warm.
#[test]
fn each_row_fans_off_missing_rows() {
    let excepted = Excepted::new(&[]);
    let (mut fans, mut missing) = (0usize, 0usize);
    for case in 0..60 {
        let mut rng = Rng::new(0xFA45 ^ case);
        let (p, want, reference) = generate(&mut rng, true, true);
        fans += p.chained.matches("while").count();
        missing += (want == Err("field owner_id read on null".to_string())) as usize;
        let cached = || {
            let env = single();
            env.set_result_cache(true);
            env
        };
        let deployments: [(&str, &dyn Fn() -> SimEnv); 3] = [
            ("single", &single),
            ("4 shards", &|| fleet(4)),
            ("cache", &cached),
        ];
        for (label, fresh) in deployments {
            let env = fresh();
            check(
                &format!("case {case} {label}"),
                &p,
                (&env, fresh),
                &want,
                &reference,
                (&excepted, case),
            );
            if label == "cache" && want.is_ok() {
                // A second request of the same page, the fans' members
                // cached now.
                let again = single();
                let (first, _) = run(&p.chained, &again, ExecStrategy::Original, 0);
                assert_eq!(first, want, "case {case}: Original is deterministic");
                let (want, _) = run(&p.chained, &again, ExecStrategy::Original, 1);
                let (got, _) = run(&p.chained, &env, SLOTH, 1);
                assert_eq!(got, want, "case {case} warm\n{}", p.chained);
                assert_eq!(state(&env), state(&again), "case {case} warm");
            }
        }
    }
    excepted.finish();
    assert!(
        fans > 40 && missing > 3,
        "{fans} fans, {missing} off a missing row"
    );
}

// ---- guarded bodies ---------------------------------------------------

/// A guarded program's statement: a line outside the guard, or the guard.
enum Item {
    Line(String),
    Guard {
        cond: String,
        /// Then-arm and else-arm statements.
        arms: [Vec<String>; 2],
    },
}

/// Helpers every guarded program defines: a `has_privilege`-shaped check
/// that forces a list to decide, and a condition that writes.
const GUARD_HELPERS: &str = r#"
fn allowed(xs, want) {
    let n = len(xs);
    let i = 0;
    let ok = false;
    while (i < n) {
        let t = at(xs, i);
        if (t.node_id == want) { ok = true; }
        i = i + 1;
    }
    return ok;
}
fn touch(id) {
    orm_update("node", id, "label", "touched");
    return true;
}
"#;

/// A guarded program: its lines and its guard, in order.
struct Guarded(Vec<Item>);

impl Guarded {
    /// The program's text.
    fn render(&self) -> String {
        let mut body = String::new();
        for item in &self.0 {
            match item {
                Item::Line(l) => body.push_str(l),
                Item::Guard { cond, arms } => {
                    let [then, els] = arms
                        .each_ref()
                        .map(|arm| arm.iter().map(|l| format!("    {l}")).collect::<String>());
                    body.push_str(&format!(
                        "    if ({cond}) {{\n{then}    }} else {{\n{els}    }}\n"
                    ));
                }
            }
        }
        format!("{GUARD_HELPERS}fn main(arg) {{\n    let scratch = new {{ }};\n{body}}}\n")
    }
}

/// One arm of a guard: reads the hoist may move, the shapes it must not,
/// and what the program prints of them.
struct ArmGen<'r> {
    rng: &'r mut Rng,
    lines: Vec<String>,
    /// Node rows bound in this arm.
    nodes: Vec<String>,
    /// Bindings printed after the `if` (unbound there when the arm is
    /// not taken: `let` is function-scoped, not conditional).
    after: Vec<String>,
    /// Whether the guard takes this arm.
    taken: bool,
    n: &'r mut usize,
}

impl ArmGen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        *self.n += 1;
        format!("{prefix}{}", self.n)
    }

    fn key(&mut self) -> String {
        match self.rng.range(0, 11) {
            0 => "99".to_string(), // no such node
            1 => "k".to_string(),  // bound before the guard
            2 => "arg".to_string(),
            // A pending read: a key that would force the batch.
            3 => "c".to_string(),
            _ => self.rng.range(1, NODES + 1).to_string(),
        }
    }

    /// `let v = src;`, then `v` printed — whole, or by a column that a
    /// missing row fails to have.
    fn define(&mut self, v: &str, src: &str, column: Option<&str>) {
        self.lines.push(format!("    let {v} = {src};\n"));
        match column {
            Some(c) if self.rng.chance(4) => {
                self.lines.push(format!("    print(str({v}.{c}));\n"));
            }
            _ => self.lines.push(format!("    print(str({v}));\n")),
        }
    }

    fn node(&mut self) -> String {
        let v = self.fresh("x");
        let key = self.key();
        self.define(&v, &format!("orm_find(\"node\", {key})"), Some("label"));
        self.nodes.push(v.clone());
        v
    }

    fn step(&mut self) {
        let node = match self.nodes.last() {
            Some(n) if !self.rng.chance(4) => n.clone(),
            _ => self.node(),
        };
        let n = self.fresh("");
        match self.rng.range(0, 16) {
            // Chained hoists: an association off a moved row, and off
            // what that one returns.
            0 | 1 => {
                let o = format!("o{n}");
                self.define(&o, &format!("orm_assoc({node}, \"owner\")"), Some("name"));
                if self.rng.chance(2) {
                    let g = format!("g{n}");
                    self.define(&g, &format!("orm_assoc({o}, \"group\")"), None);
                }
            }
            2 => self.define(
                &format!("t{n}"),
                &format!("orm_assoc({node}, \"tags\")"),
                None,
            ),
            3 => {
                let key = self.key();
                let f = ["orm_find_where", "orm_count_where"][self.rng.range(0, 2) as usize];
                self.define(
                    &format!("w{n}"),
                    &format!("{f}(\"tag\", \"node_id\", {key})"),
                    None,
                );
            }
            4 => self.define(&format!("a{n}"), "orm_find_all(\"grp\")", None),
            // A key the arm assigns first: stays.
            5 => {
                self.lines.push("    k = k + 1;\n".to_string());
                self.define(&format!("y{n}"), "orm_find(\"node\", k)", Some("label"));
            }
            // A write: every read after it stays (a read of `grp` moved
            // above it would miss it).
            6 => {
                let write = match self.rng.range(0, 2) {
                    0 => format!(
                        "orm_update(\"owner\", {}, \"name\", \"a{n}\")",
                        self.rng.range(1, 6)
                    ),
                    _ => format!("exec(\"UPDATE grp SET title = 'a{n}' WHERE id = 1\")"),
                };
                self.lines.push(format!("    {write};\n"));
                self.define(&format!("a{n}"), "orm_find_all(\"grp\")", None);
            }
            // Heap writes: the scan goes on.
            7 => self.lines.push(format!("    scratch.seen = {node};\n")),
            8 => {
                let key = self.key();
                self.lines
                    .push(format!("    scratch.v{n} = orm_find(\"node\", {key});\n"));
                self.lines.push(format!("    print(str(scratch.v{n}));\n"));
            }
            // A binding read after the `if` (which fails when the arm is
            // not taken).
            9 if self.taken || self.rng.chance(4) => {
                let z = format!("z{n}");
                let key = self.key();
                self.lines
                    .push(format!("    let {z} = orm_find(\"node\", {key});\n"));
                self.after.push(z);
            }
            _ => {
                self.node();
            }
        }
    }
}

/// The reads of an untaken arm that would fail: raw SQL on a missing
/// table, and a column the schema does not know.
const FAILING_READS: [&str; 4] = [
    "    let bad = query(\"SELECT * FROM no_such_table\");\n",
    "    let worse = orm_find_where(\"node\", \"nope\", 1);\n",
    "    print(str(bad));\n",
    "    print(str(worse));\n",
];

/// A random guarded program (its steps, and whether the guard holds).
fn arb_guarded(rng: &mut Rng) -> Guarded {
    let mut items = Vec::new();
    let line = |s: String| Item::Line(s);
    let head = match rng.range(0, 6) {
        0 => 99,
        _ => rng.range(1, NODES + 1),
    };
    items.push(line(format!("    let h = orm_find(\"node\", {head});\n")));
    items.push(line(format!("    let k = {};\n", rng.range(1, NODES + 1))));
    items.push(line(format!(
        "    let c = orm_count_where(\"tag\", \"node_id\", {});\n",
        rng.range(1, NODES + 1)
    )));
    // A deferred write before the guard: the moved reads of its table
    // drain the batch as they register.
    match rng.range(0, 4) {
        0 => items.push(line(format!(
            "    orm_update(\"node\", {}, \"label\", \"w\");\n",
            rng.range(1, NODES + 1)
        ))),
        1 => items.push(line(
            "    exec(\"UPDATE grp SET title = 'w' WHERE id = 1\");\n".to_string(),
        )),
        _ => {}
    }
    let tagged = rng.range(1, NODES + 1);
    let (cond, holds) = match rng.range(0, 7) {
        0 => ("arg == 0".to_string(), true),
        1 => ("arg != 0".to_string(), false),
        2 => ("h != null".to_string(), head != 99),
        3 => ("h == null".to_string(), head == 99),
        4 if head != 99 => ("h.label != \"zz\"".to_string(), true),
        5 => {
            items.push(line(format!(
                "    let tags = orm_find_where(\"tag\", \"node_id\", {tagged});\n"
            )));
            (format!("allowed(tags, {tagged})"), tagged % 3 != 0)
        }
        6 => ("touch(k)".to_string(), true),
        _ => ("arg == 0".to_string(), true),
    };
    let mut n = 0usize;
    let mut arms: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut after = Vec::new();
    let mut failing_reads = false;
    for (i, arm) in arms.iter_mut().enumerate() {
        let mut g = ArmGen {
            rng: &mut *rng,
            lines: Vec::new(),
            nodes: Vec::new(),
            after: Vec::new(),
            taken: (i == 0) == holds,
            n: &mut n,
        };
        let steps = if i == 0 {
            g.rng.range(1, 8)
        } else {
            g.rng.range(0, 3)
        };
        for _ in 0..steps {
            g.step();
        }
        if !g.taken && g.rng.chance(3) {
            g.lines.extend(FAILING_READS.iter().map(|l| l.to_string()));
            failing_reads = true;
        }
        if i == 1 {
            g.lines.push("    print(\"denied\");\n".to_string());
        }
        after.extend(g.after);
        *arm = g.lines.into_iter().map(|l| l[4..].to_string()).collect();
    }
    items.push(Item::Guard { cond, arms });
    for z in after {
        items.push(line(format!("    print(str({z}));\n")));
    }
    // A read after the `if`, forced: a moved read that could fail would
    // have poisoned its batch. (Elsewhere it would cost a trip of its own
    // whatever moved, hiding what hoisting saves.)
    if failing_reads || rng.chance(4) {
        items.push(line(format!(
            "    let after = orm_find(\"node\", {});\n",
            rng.range(1, NODES + 1)
        )));
        items.push(line("    print(str(after.label));\n".to_string()));
    }
    Guarded(items)
}

/// `g` whole, what `Original` makes of it, and its database (judged
/// whole, as [`generate`]'s programs are).
fn generate_guarded(g: &Guarded) -> (String, Body, SimEnv) {
    let src = g.render();
    let reference = single();
    let (body, _) = run(&src, &reference, ExecStrategy::Original, 0);
    (src, body, reference)
}

/// Guarded bodies: `Original` ≡ `Sloth(none)` ≡ `Sloth(all)` on output,
/// error text and final state, on one server and on a fleet — and
/// hoisting never costs a round trip.
#[test]
fn guarded_bodies_run_as_written_in_no_more_trips_than_unhoisted() {
    let none = ExecStrategy::Sloth(OptFlags::none());
    let (mut hoisted, mut unhoisted, mut failing, mut saved) = (0u64, 0u64, 0u64, 0u64);
    let mut failing_reads_untaken = 0u64;
    let excepted = Excepted::new(&[]);
    for case in 0..400 {
        let mut rng = Rng::new(0x6A4D ^ case);
        let g = arb_guarded(&mut rng);
        let (src, want, reference) = generate_guarded(&g);
        failing += want.is_err() as u64;
        failing_reads_untaken += (want.is_ok() && src.contains("no_such_table")) as u64;
        let mut trips = [0u64; 2];
        for (i, strategy) in [SLOTH, none].into_iter().enumerate() {
            let env = single();
            let got = run(&src, &env, strategy, 0);
            trips[i] = env.stats().round_trips;
            judge(
                &format!("case {case} {strategy:?}"),
                &src,
                &got,
                &want,
                &single,
                (&excepted, case),
            );
            if want.is_ok() {
                assert_eq!(
                    state(&env),
                    state(&reference),
                    "case {case} {strategy:?}\n{src}"
                );
            }
        }
        let env = fleet(4);
        let got = run(&src, &env, SLOTH, 0);
        judge(
            &format!("case {case} 4 shards"),
            &src,
            &got,
            &want,
            &|| fleet(4),
            (&excepted, case),
        );
        if want.is_ok() {
            assert_eq!(
                state(&env),
                state(&reference),
                "case {case} 4 shards\n{src}"
            );
            let [all, none] = trips;
            assert!(
                all <= none,
                "case {case}: {all} trips hoisted, {none} not\n{src}"
            );
            hoisted += all;
            unhoisted += none;
            saved += (all < none) as u64;
        }
    }
    assert!(failing > 40, "failures were reached: {failing}");
    assert!(
        failing_reads_untaken > 30,
        "untaken failing reads: {failing_reads_untaken}"
    );
    // Most programs demand something the moved reads cannot answer (a
    // read after a write, after the `if`, keyed by what the arm
    // assigned), or force nothing before their output: the saving is
    // real where the guard forces and the body is all reads.
    assert!(saved > 10, "hoisting saved a trip in {saved} programs");
    assert!(hoisted < unhoisted, "{hoisted} vs {unhoisted}");
}
