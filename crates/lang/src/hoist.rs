//! **Guard hoisting**: the ORM reads at the head of an `if`'s arms register
//! before the `if`, so they ride whatever flush the condition forces.
//!
//! A page body wrapped in a privilege check (the paper's Fig. 1) pays a
//! round trip for the check before the body has registered anything: the
//! condition forces the batch, and the body's reads start the next one.
//! Moved above the `if`, the body's reads join the batch the condition
//! ships. An untaken arm's reads then register for nothing — their rows
//! are never demanded, and under Sloth a read nobody demands costs no
//! round trip of its own and raises no error.
//!
//! Only reads the engine cannot refuse move, only where nothing they could
//! observe happens in between, and only where registering them costs no
//! round trip of its own. The `if`s are `main`'s, outside every loop
//! (as for branch deferral across writes, what may still be pending in
//! the batch at an `if` is closed-form only for the request's entry
//! point; and a read moved out of an iteration would register once more,
//! for the exit test). An arm's top-level statements are scanned in order,
//! and a statement that stores an `orm_find`, `orm_find_where`,
//! `orm_count_where`, `orm_find_all` or `orm_assoc` call (`let x = R`,
//! `e.f = R`) moves when:
//!
//! 1. **its names resolve in the schema** — entity, column and association
//!    arguments are string literals the prepare-time schema knows, so the
//!    generated SQL cannot fail: a failing position stops its batch, and
//!    the condition's own reads ride that batch. Raw `query(…)` text moves
//!    only as a guarded read (below), and without a schema nothing moves;
//! 2. **its key is known before the `if`, without a round trip** — a
//!    literal, or a variable bound before the `if` that no earlier
//!    statement of the arm assigns and that holds a plain value (every
//!    binding of it in `main` is a literal, a parameter, `len(…)` or
//!    arithmetic over such), so registering forces nothing. An
//!    `orm_assoc` owner must instead be an earlier moved single-row read
//!    whose key field nothing since may have written: it registers as a
//!    dependant of that read, in the same trip;
//! 3. **no write comes first** — the scan stops at the first statement
//!    that may write to the database or open or close a transaction,
//!    itself or through a call: a read moved above a write would miss it.
//!    Heap writes, prints, forces and write-free loops do not stop it.
//!    Nor may a write *before* the `if` touch the read's table: under
//!    write deferral it may still linger in the batch, and a read
//!    registering behind a write it conflicts with drains the batch on
//!    the spot — a round trip an untaken arm never paid;
//! 4. **its name is the arm's own** — `let` is function-scoped, so a
//!    `let x = R` moves only when `x` is mentioned nowhere outside its arm
//!    and nowhere in the arm before the binding. A store `e.f = R` moves
//!    `R` into a fresh binding that the store then reads (a copy
//!    `x = fresh` left in the arm could be swallowed by thunk coalescing,
//!    whose block forces what it copies);
//! 5. **the condition does not write** — its call closure issues no write
//!    and no transaction boundary, so its own reads, now registered after
//!    the moved ones, commute with them.
//!
//! The read is moved, never duplicated: the store only deduplicates a
//! statement while it is still pending, so a second registration inside
//! the arm after the condition's flush would cost a trip of its own.
//!
//! **Guarded reads.** One raw read rides the condition's flush too: in the
//! then-arm of an `if (nrows(q) > 0)`, the first `query(T)` whose text `T`
//! is literal around one `str(x)`, `x` being `cell(q, 0, "c")`. Its
//! registration moves: `let h = `[`GUARDED_READ`]`(q, "c", head, tail)`
//! ahead of the `if` registers `head + str(cell(q, 0, "c")) + tail` as a
//! dependant of `q`, which the binder fills from `q`'s first row in the
//! same trip. The call stays where it stood, as
//! [`GUARDED_QUERY`]`(h, T)`: it builds `T` as `query` does and takes
//! `h`'s rows when `h` ran exactly `T` and succeeded, else reads `T`
//! there. Four rules make that sound:
//!
//! 1. **the guard is exactly `nrows(q) > 0`** (`len` is the same builtin),
//!    through the temporaries simplification binds, with `q` a raw `query`
//!    bound before the `if` in its block and none of them assigned again
//!    before it. Then "`q` has a row" is exactly "the arm runs", and the
//!    binder runs the read only when `q` has a row — only when the eager
//!    program runs it. The condition registers nothing, and the read goes
//!    last of all the `if` moves, so it is the last position of the flush
//!    the condition forces: a read that fails there stops no other;
//! 2. **`x`'s binding is in the arm** and names a literal column of row 0,
//!    with `q` not assigned in the arm before it or before the query, so
//!    the read predicts the text the query builds. Nothing else moves: the
//!    key's binding and the text's temporaries stay for the query;
//! 3. **rules 3 and 5 above hold**: no write first in the arm, no earlier
//!    write to the tables named before the splice (`writedefer`'s prefix
//!    footprint — text naming none never moves) and no writing condition,
//!    so nothing writes between the read and the query it answers;
//! 4. **the rows a query takes are those of its own text.** The binder
//!    splices the parent's cell as its SQL literal, which is the text
//!    `str` makes of an integer but not of a string or `NULL`: the query
//!    compares the two texts byte for byte. One that differs, or a read
//!    that failed, is read again where the program issues it, so a
//!    failure surfaces in program order, as `cell`'s and `query`'s do.

use std::collections::{HashMap, HashSet};

use sloth_orm::{AssocKind, Schema};
use sloth_sql::{Footprint, TableAccess};

use crate::ast::*;
use crate::builtins::{Builtin, BuiltinKind, HeapFn, GUARDED_QUERY, GUARDED_READ};
use crate::opt::count_occurrences_pub as count_mentions;
use crate::writedefer::literal_call_footprint;

/// What code may do that a read must not be moved across. Field names
/// borrow the program.
#[derive(Debug, Clone, Default)]
struct Effects<'p> {
    /// The database writes it may issue; a barrier when one cannot be
    /// bounded (a transaction boundary, SQL built at run time).
    writes: Footprint,
    /// Fields it may write on some object (`e.f = …`).
    fields: HashSet<&'p str>,
    /// May write any field (`obj_put` names it at run time).
    any_field: bool,
}

/// Adds `fp`'s writes to `into`, as a set union — so that the fixpoint
/// over recursive calls settles.
fn add_writes(into: &mut Footprint, fp: &Footprint) {
    into.barrier |= fp.barrier;
    for w in &fp.writes {
        if !into.writes.contains(w) {
            into.writes.push(w.clone());
        }
    }
}

impl<'p> Effects<'p> {
    fn merge(&mut self, other: &Effects<'p>) {
        add_writes(&mut self.writes, &other.writes);
        self.any_field |= other.any_field;
        self.fields.extend(other.fields.iter().copied());
    }

    /// Grows with every merge that adds something.
    fn size(&self) -> (bool, usize, bool, usize) {
        let w = &self.writes;
        (w.barrier, w.writes.len(), self.any_field, self.fields.len())
    }

    fn writes_db(&self) -> bool {
        self.writes.barrier || !self.writes.writes.is_empty()
    }
}

/// Adds what `e` does itself to `fx`, handing each user-function call to
/// `call`.
fn expr_effects<'s>(
    e: &'s Expr,
    schema: &Schema,
    fx: &mut Effects<'s>,
    call: &mut impl FnMut(&'s str, &mut Effects<'s>),
) {
    match e {
        Expr::Call(name, args) => {
            match Builtin::from_name(name) {
                Some(b) if b.kind() == BuiltinKind::WriteQuery => {
                    let fp = literal_call_footprint(name, args, Some(schema));
                    add_writes(&mut fx.writes, &fp.unwrap_or_else(Footprint::barrier));
                }
                Some(Builtin::HeapWrite(HeapFn::ObjPut)) => fx.any_field = true,
                Some(_) => {}
                None => call(name, fx),
            }
            for a in args {
                expr_effects(a, schema, fx, call);
            }
        }
        Expr::Field(b, _) | Expr::Unary(_, b) => expr_effects(b, schema, fx, call),
        Expr::Index(a, b) | Expr::Binary(_, a, b) => {
            expr_effects(a, schema, fx, call);
            expr_effects(b, schema, fx, call);
        }
        Expr::NewObject(fields) => fields
            .iter()
            .for_each(|(_, v)| expr_effects(v, schema, fx, call)),
        Expr::NewList(items) => items.iter().for_each(|v| expr_effects(v, schema, fx, call)),
        Expr::Lit(_) | Expr::Var(_) => {}
    }
}

fn stmt_effects<'s>(
    s: &'s Stmt,
    schema: &Schema,
    fx: &mut Effects<'s>,
    call: &mut impl FnMut(&'s str, &mut Effects<'s>),
) {
    let mut expr = |e: &'s Expr, fx: &mut Effects<'s>| expr_effects(e, schema, fx, call);
    match s {
        Stmt::Let(_, e) | Stmt::ExprStmt(e) | Stmt::Return(Some(e)) => expr(e, fx),
        Stmt::Assign(lv, e) => {
            match lv {
                LValue::Var(_) => {}
                LValue::Field(b, f) => {
                    fx.fields.insert(f);
                    expr(b, fx);
                }
                LValue::Index(b, i) => {
                    expr(b, fx);
                    expr(i, fx);
                }
            }
            expr(e, fx);
        }
        Stmt::If(c, t, e) => {
            expr(c, fx);
            for s in t.iter().chain(e) {
                stmt_effects(s, schema, fx, call);
            }
        }
        Stmt::While(c, b) => {
            expr(c, fx);
            for s in b {
                stmt_effects(s, schema, fx, call);
            }
        }
        Stmt::DeferBlock { body, .. } => {
            for s in body {
                stmt_effects(s, schema, fx, call);
            }
        }
        Stmt::Break | Stmt::Continue | Stmt::Return(None) => {}
    }
}

/// Guard hoisting over one program: what each of its functions may do,
/// transitively (definitions sharing a name are merged).
pub(crate) struct GuardHoist<'p> {
    fns: HashMap<&'p str, Effects<'p>>,
    schema: &'p Schema,
}

impl<'p> GuardHoist<'p> {
    pub(crate) fn new(p: &'p Program, schema: &'p Schema) -> GuardHoist<'p> {
        // Each body is walked once, for what it does itself and whom it
        // calls; the calls' effects then close over the call graph.
        let mut fns: HashMap<&str, Effects> = HashMap::new();
        let mut calls: Vec<(&str, Vec<&str>)> = Vec::new();
        for f in &p.functions {
            let mut callees = Vec::new();
            let fx = fns.entry(&f.name).or_default();
            for s in &f.body {
                stmt_effects(s, schema, fx, &mut |name, _| callees.push(name));
            }
            calls.push((&f.name, callees));
        }
        loop {
            let mut changed = false;
            for (name, callees) in &calls {
                let mut add = Effects::default();
                for callee in callees {
                    if let Some(fx) = fns.get(callee) {
                        add.merge(fx);
                    }
                }
                if let Some(fx) = fns.get_mut(name) {
                    let before = fx.size();
                    fx.merge(&add);
                    changed |= fx.size() != before;
                }
            }
            if !changed {
                return GuardHoist { fns, schema };
            }
        }
    }

    /// What `s` may do, its calls included.
    fn effects<'s>(&self, s: &'s Stmt) -> Effects<'s>
    where
        'p: 's,
    {
        let mut fx = Effects::default();
        stmt_effects(s, self.schema, &mut fx, &mut |name, fx| {
            if let Some(callee) = self.fns.get(name) {
                fx.merge(callee);
            }
        });
        fx
    }

    /// `f` with the qualifying reads of its `if`s moved above them (see
    /// the module documentation) — if it is `main`, the only function
    /// rewritten.
    pub(crate) fn function(&self, f: &Function) -> Option<Function> {
        if f.name != "main" {
            return None;
        }
        let mut mentions = HashMap::new();
        count_mentions(&f.body, &mut mentions);
        for param in &f.params {
            *mentions.entry(param.clone()).or_insert(0) += 1;
        }
        let mut h = Hoister {
            hoist: self,
            plain: plain_values(f),
            mentions,
            next_temp: 0,
        };
        let bound = f.params.iter().cloned().collect();
        Some(Function {
            name: f.name.clone(),
            params: f.params.clone(),
            body: h.block(&f.body, &bound, &Footprint::default()),
        })
    }
}

/// Every name a statement subtree binds (`let`) or assigns.
fn assigned_names(s: &Stmt) -> Vec<String> {
    let stmts = std::slice::from_ref(s);
    let mut out = Vec::new();
    assigned_vars(stmts, &mut out);
    fn lets(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Let(name, _) => out.push(name.clone()),
                Stmt::If(_, t, e) => {
                    lets(t, out);
                    lets(e, out);
                }
                Stmt::While(_, b) | Stmt::DeferBlock { body: b, .. } => lets(b, out),
                _ => {}
            }
        }
    }
    lets(stmts, &mut out);
    out
}

/// The names of `f` that always hold a plain value: its parameters (what
/// the request passes `main`) and variables every binding of which is a
/// literal, `len(…)`, or a variable or arithmetic over such — forcing
/// one never ships a batch.
fn plain_values(f: &Function) -> HashSet<String> {
    fn bindings<'a>(stmts: &'a [Stmt], out: &mut Vec<(&'a str, &'a Expr)>) {
        for s in stmts {
            match s {
                Stmt::Let(name, e) | Stmt::Assign(LValue::Var(name), e) => out.push((name, e)),
                Stmt::If(_, t, e) => {
                    bindings(t, out);
                    bindings(e, out);
                }
                Stmt::While(_, b) | Stmt::DeferBlock { body: b, .. } => bindings(b, out),
                _ => {}
            }
        }
    }
    fn plain(e: &Expr, names: &HashSet<String>) -> bool {
        match e {
            Expr::Lit(_) => true,
            Expr::Var(v) => names.contains(v),
            Expr::Binary(_, a, b) => plain(a, names) && plain(b, names),
            Expr::Unary(_, a) => plain(a, names),
            Expr::Call(name, _) => matches!(name.as_str(), "len" | "nrows"),
            _ => false,
        }
    }
    let mut all = Vec::new();
    bindings(&f.body, &mut all);
    let mut names: HashSet<String> = f.params.iter().cloned().collect();
    names.extend(all.iter().map(|(n, _)| n.to_string()));
    loop {
        let unplain: Vec<&str> = all
            .iter()
            .filter(|(n, e)| names.contains(*n) && !plain(e, &names))
            .map(|(n, _)| *n)
            .collect();
        if unplain.is_empty() {
            return names;
        }
        for n in unplain {
            names.remove(n);
        }
    }
}

fn table_read(table: &str) -> Footprint {
    Footprint {
        reads: vec![TableAccess {
            table: table.to_ascii_lowercase(),
            keys: Vec::new(),
        }],
        ..Footprint::default()
    }
}

/// A moved single-row read an `orm_assoc` further down the arm may hang
/// off, by the name it is bound to.
struct Owner {
    /// Its entity.
    entity: String,
    /// Fields the arm may have written since (`None`: any field).
    written: Option<HashSet<String>>,
}

impl Owner {
    fn may_have_written(&self, field: &str) -> bool {
        self.written.as_ref().is_none_or(|w| w.contains(field))
    }
}

/// What an arm scan knows at one statement.
struct Scan<'s> {
    /// Names bound on every path to the `if`.
    bound: &'s HashSet<String>,
    /// Writes that may have been issued before the `if`.
    written: &'s Footprint,
    /// Names the arm's earlier statements assign.
    assigned: HashSet<String>,
    /// Moved single-row reads, by name.
    owners: HashMap<String, Owner>,
    /// In the then-arm of an `if (nrows(rows) > 0)`: `rows`.
    rows: Option<String>,
    /// Names the arm has bound to a value built from the first row of
    /// `rows`, and bound nothing since.
    known: HashMap<String, Known>,
}

/// A value built from the first row of a guard's result set.
#[derive(Debug, Clone)]
enum Known {
    /// `cell(rows, 0, column)`.
    Cell(String),
    /// Literal text.
    Text(String),
    /// Literal text around `str(cell(rows, 0, column))`.
    Splice {
        head: String,
        column: String,
        tail: String,
    },
}

impl Known {
    /// `self + other`, when both are text and at most one is spliced.
    fn concat(self, other: Known) -> Option<Known> {
        Some(match (self, other) {
            (Known::Text(a), Known::Text(b)) => Known::Text(a + &b),
            (Known::Text(a), Known::Splice { head, column, tail }) => Known::Splice {
                head: a + &head,
                column,
                tail,
            },
            (Known::Splice { head, column, tail }, Known::Text(b)) => Known::Splice {
                head,
                column,
                tail: tail + &b,
            },
            _ => return None,
        })
    }
}

impl Scan<'_> {
    /// What `e` is, evaluated at the current statement.
    fn known(&self, e: &Expr) -> Option<Known> {
        let rows = self.rows.as_deref()?;
        match e {
            Expr::Var(v) => self.known.get(v).cloned(),
            Expr::Lit(Lit::Str(s)) => Some(Known::Text(s.clone())),
            Expr::Binary(BinOp::Add, a, b) => self.known(a)?.concat(self.known(b)?),
            Expr::Call(f, args) => match (f.as_str(), &args[..]) {
                ("cell", [Expr::Var(r), Expr::Lit(Lit::Int(0)), Expr::Lit(Lit::Str(c))])
                    if r == rows && !self.assigned.contains(rows) =>
                {
                    Some(Known::Cell(c.clone()))
                }
                ("str", [x]) => match self.known(x)? {
                    Known::Cell(column) => Some(Known::Splice {
                        head: String::new(),
                        column,
                        tail: String::new(),
                    }),
                    text => Some(text),
                },
                _ => None,
            },
            _ => None,
        }
    }

    /// The guarded read that may answer `query(args)`: its text is literal
    /// around `str(cell(rows, 0, c))`, `rows` is still the guard's, and no
    /// earlier write touches the tables named before the splice.
    fn guarded(&self, args: &[Expr]) -> Option<Expr> {
        let rows = self.rows.as_deref()?;
        let [text] = args else { return None };
        let Known::Splice { head, column, tail } = self.known(text)? else {
            return None;
        };
        if self.assigned.contains(rows) {
            return None;
        }
        let lit = |s| Expr::Lit(Lit::Str(s));
        let args = vec![Expr::Var(rows.into()), lit(column), lit(head), lit(tail)];
        let fp = literal_call_footprint(GUARDED_READ, &args, None)?;
        (!fp.conflicts_with(self.written)).then(|| Expr::Call(GUARDED_READ.into(), args))
    }
}

/// `rows` when `c`, an `if`'s condition after the statements `before`
/// of its block, is `nrows(rows) > 0` (`len` is the same builtin) and
/// `rows` holds a raw `query` — following the temporaries simplification
/// binds, with neither they nor `rows` assigned again before the `if`.
fn guarded_rows(c: &Expr, before: &[Stmt]) -> Option<String> {
    // `e`, or the expression the variable `e` was last bound to ahead of
    // `end`; and where that expression was evaluated.
    fn value<'a>(e: &'a Expr, before: &'a [Stmt], end: usize) -> Option<(&'a Expr, usize)> {
        match e {
            Expr::Var(v) => binding(v, &before[..end]),
            e => Some((e, end)),
        }
    }
    let (Expr::Binary(BinOp::Gt, count, zero), at) = value(c, before, before.len())? else {
        return None;
    };
    let (Expr::Call(f, args), at) = value(count, before, at)? else {
        return None;
    };
    let (true, Expr::Lit(Lit::Int(0)), [Expr::Var(rows)]) =
        (f == "nrows" || f == "len", &**zero, &args[..])
    else {
        return None;
    };
    let (Expr::Call(query, _), bound_at) = binding(rows, before)? else {
        return None;
    };
    (query == "query" && bound_at < at).then(|| rows.clone())
}

/// The expression `name` was last bound to at the top level of `before`,
/// and its position — `None` when it was not, or was assigned again
/// inside a later statement.
fn binding<'a>(name: &str, before: &'a [Stmt]) -> Option<(&'a Expr, usize)> {
    for (k, s) in before.iter().enumerate().rev() {
        match s {
            Stmt::Let(n, e) | Stmt::Assign(LValue::Var(n), e) if n == name => return Some((e, k)),
            s if assigned_names(s).iter().any(|n| n == name) => return None,
            _ => {}
        }
    }
    None
}

/// Rewrites one function's `if`s.
struct Hoister<'h, 'p> {
    hoist: &'h GuardHoist<'p>,
    /// See [`plain_values`].
    plain: HashSet<String>,
    /// How often each name of the function is mentioned (parameters
    /// count once), fresh bindings included.
    mentions: HashMap<String, usize>,
    next_temp: usize,
}

impl Hoister<'_, '_> {
    /// Rewrites a block that no loop encloses. `bound`: the names bound on
    /// every path to its first statement; `written`: the writes that may
    /// have been issued before it.
    fn block(&mut self, stmts: &[Stmt], bound: &HashSet<String>, written: &Footprint) -> Vec<Stmt> {
        let mut bound = bound.clone();
        let mut written = written.clone();
        let mut out = Vec::with_capacity(stmts.len());
        for (i, s) in stmts.iter().enumerate() {
            let fx = self.hoist.effects(s);
            if let Stmt::If(c, t, e) = s {
                let mut t = self.block(t, &bound, &written);
                let mut e = self.block(e, &bound, &written);
                if !self.hoist.effects(&Stmt::ExprStmt(c.clone())).writes_db() {
                    let rows = guarded_rows(c, &stmts[..i]);
                    let guarded;
                    (t, guarded) = self.arm(t, &bound, &written, rows, &mut out);
                    (e, _) = self.arm(e, &bound, &written, None, &mut out);
                    // Last of all, so a splice that fails stops no other
                    // position of the batch the condition ships.
                    out.extend(guarded);
                }
                out.push(Stmt::If(c.clone(), t, e));
            } else {
                if let Stmt::Let(name, _) | Stmt::Assign(LValue::Var(name), _) = s {
                    bound.insert(name.clone());
                }
                out.push(s.clone());
            }
            add_writes(&mut written, &fx.writes);
        }
        out
    }

    /// Scans one arm, appending what moves to `before` (the statements
    /// ahead of the `if`) and returning what stays — and, for the
    /// then-arm of an `if (nrows(rows) > 0)`, the guarded read to register
    /// after them.
    fn arm(
        &mut self,
        arm: Vec<Stmt>,
        bound: &HashSet<String>,
        written: &Footprint,
        rows: Option<String>,
        before: &mut Vec<Stmt>,
    ) -> (Vec<Stmt>, Option<Stmt>) {
        let mut inside = HashMap::new();
        count_mentions(&arm, &mut inside);
        // How often the arm's statements so far mention each name.
        let mut mentioned: HashMap<String, usize> = HashMap::new();
        let mut scan = Scan {
            bound,
            written,
            assigned: HashSet::new(),
            owners: HashMap::new(),
            rows,
            known: HashMap::new(),
        };
        let mut guarded = None;
        let mut kept = Vec::with_capacity(arm.len());
        let mut rest = arm.into_iter();
        for mut s in rest.by_ref() {
            let fx = self.hoist.effects(&s);
            if fx.writes_db() {
                kept.push(s);
                break;
            }
            for owner in scan.owners.values_mut() {
                if fx.any_field {
                    owner.written = None;
                } else if let Some(w) = &mut owner.written {
                    w.extend(fx.fields.iter().map(|f| f.to_string()));
                }
            }
            count_mentions(std::slice::from_ref(&s), &mut mentioned);
            let names = assigned_names(&s);
            for name in &names {
                scan.owners.remove(name);
            }
            // A `let` moves whole when its name is the arm's own; a field
            // or element store gets a fresh binding to store.
            let own = |name: &String| {
                self.mentions.get(name) == inside.get(name) && mentioned.get(name) == Some(&1)
            };
            let moved = match &s {
                Stmt::Let(name, Expr::Call(f, args)) if own(name) => self.movable(f, args, &scan),
                Stmt::Assign(LValue::Field(..) | LValue::Index(..), Expr::Call(f, args)) => {
                    self.movable(f, args, &scan)
                }
                _ => None,
            };
            let splice = match &s {
                Stmt::Let(_, Expr::Call(f, args)) | Stmt::Assign(_, Expr::Call(f, args))
                    if f == "query" && guarded.is_none() =>
                {
                    scan.guarded(args)
                }
                _ => None,
            };
            let value = match &s {
                Stmt::Let(name, e) | Stmt::Assign(LValue::Var(name), e) => {
                    scan.known(e).map(|k| (name.clone(), k))
                }
                _ => None,
            };
            for name in &names {
                scan.known.remove(name);
            }
            scan.known.extend(value);
            scan.assigned.extend(names);
            if let Some(read) = splice {
                // The read registers ahead of the `if`; the query stays,
                // to take its answer.
                let temp = self.fresh();
                if let Stmt::Let(_, Expr::Call(f, args)) | Stmt::Assign(_, Expr::Call(f, args)) =
                    &mut s
                {
                    *f = GUARDED_QUERY.into();
                    args.insert(0, Expr::Var(temp.clone()));
                }
                guarded = Some(Stmt::Let(temp, read));
                kept.push(s);
                continue;
            }
            let Some(one_row_of) = moved else {
                kept.push(s);
                continue;
            };
            match s {
                Stmt::Let(name, call) => {
                    if let Some(entity) = one_row_of {
                        let written = Some(HashSet::new());
                        scan.owners.insert(name.clone(), Owner { entity, written });
                    }
                    before.push(Stmt::Let(name, call));
                }
                Stmt::Assign(lv, call) => {
                    let temp = self.fresh();
                    before.push(Stmt::Let(temp.clone(), call));
                    kept.push(Stmt::Assign(lv, Expr::Var(temp)));
                }
                // Only bindings and stores are movable.
                other => kept.push(other),
            }
        }
        kept.extend(rest);
        (kept, guarded)
    }

    /// Whether the read `f(args)` may move above the `if`: `Some` with the
    /// entity of its row when it returns one row (what an `orm_assoc` may
    /// then hang off).
    fn movable(&self, f: &str, args: &[Expr], scan: &Scan) -> Option<Option<String>> {
        let schema = self.hoist.schema;
        let key_ok = |key: &Expr| match key {
            Expr::Lit(_) => true,
            Expr::Var(v) => {
                scan.bound.contains(v) && !scan.assigned.contains(v) && self.plain.contains(v)
            }
            _ => false,
        };
        let str_lit = |e: &Expr| match e {
            Expr::Lit(Lit::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let has = |cols: &[(String, _)], c: &str| cols.iter().any(|(n, _)| n == c);
        let (table, one_row_of) = match (f, args) {
            ("orm_find", [entity, key]) => {
                let def = schema.entity(&str_lit(entity)?)?;
                key_ok(key).then_some((&def.table, Some(def.name.clone())))?
            }
            ("orm_find_where" | "orm_count_where", [entity, column, key]) => {
                let def = schema.entity(&str_lit(entity)?)?;
                let known = has(&def.columns, &str_lit(column)?);
                (known && key_ok(key)).then_some((&def.table, None))?
            }
            ("orm_find_all", [entity]) => (&schema.entity(&str_lit(entity)?)?.table, None),
            ("orm_assoc", [Expr::Var(owner), assoc]) => {
                let o = scan.owners.get(owner)?;
                let assoc = str_lit(assoc)?;
                let def = schema.entity(&o.entity)?;
                let a = def.assoc(&assoc)?;
                let target = schema.entity(&a.target)?;
                // The owner's field the association is keyed by: a write
                // to it, or to the association's memo, since the owner was
                // read would change what the association returns.
                let (key, one_row) = match &a.kind {
                    AssocKind::ManyToOne { fk_column } => (fk_column, true),
                    AssocKind::OneToMany { fk_column } => {
                        has(&target.columns, fk_column).then_some((&def.pk, false))?
                    }
                };
                let memo = format!("__assoc_{assoc}");
                if !has(&def.columns, key) || o.may_have_written(key) || o.may_have_written(&memo) {
                    return None;
                }
                (&target.table, one_row.then(|| target.name.clone()))
            }
            _ => return None,
        };
        (!table_read(table).conflicts_with(scan.written)).then_some(one_row_of)
    }

    /// A name the function does not use yet, mentioned twice: where the
    /// moved read binds it and where the arm's store reads it.
    fn fresh(&mut self) -> String {
        loop {
            let name = format!("__h{}", self.next_temp);
            self.next_temp += 1;
            if !self.mentions.contains_key(&name) {
                self.mentions.insert(name.clone(), 2);
                return name;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::opt::{optimize_with_schema, OptFlags};
    use crate::parser::parse_program;
    use crate::simplify::simplify_program;
    use sloth_orm::{entity, many_to_one, one_to_many, FetchStrategy};
    use sloth_sql::ast::ColumnType::{Int, Text};

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add(entity(
            "user",
            "app_user",
            "user_id",
            &[("user_id", Int), ("login", Text), ("role_id", Int)],
            vec![many_to_one("role", "role", "role_id", FetchStrategy::Lazy)],
        ));
        s.add(entity(
            "role",
            "role",
            "role_id",
            &[("role_id", Int), ("role_name", Text)],
            vec![one_to_many(
                "privileges",
                "privilege",
                "role_id",
                FetchStrategy::Lazy,
            )],
        ));
        s.add(entity(
            "privilege",
            "privilege",
            "privilege_id",
            &[("privilege_id", Int), ("role_id", Int), ("name", Text)],
            vec![],
        ));
        s
    }

    /// `p` after guard hoisting.
    fn hoisted(p: &Program) -> Program {
        let schema = schema();
        let h = GuardHoist::new(p, &schema);
        let functions = p.functions.iter();
        Program {
            functions: functions
                .map(|f| h.function(f).unwrap_or_else(|| f.clone()))
                .collect(),
        }
    }

    /// `main` of `src`, simplified and hoisted.
    fn main_of(src: &str) -> Vec<Stmt> {
        let p = simplify_program(&parse_program(src).unwrap());
        hoisted(&p).function("main").unwrap().body.clone()
    }

    /// The statements `main`'s (last top-level) `if` has ahead of it that
    /// it did not have before hoisting, and its then-arm after.
    fn split(src: &str) -> (Vec<Stmt>, Vec<Stmt>) {
        let p = simplify_program(&parse_program(src).unwrap());
        let before = p.function("main").unwrap().body.clone();
        let after = main_of(src);
        let at = after
            .iter()
            .rposition(|s| matches!(s, Stmt::If(..)))
            .unwrap();
        let was = before
            .iter()
            .rposition(|s| matches!(s, Stmt::If(..)))
            .unwrap();
        let Stmt::If(_, then, _) = &after[at] else {
            unreachable!()
        };
        (after[was..at].to_vec(), then.clone())
    }

    /// The names bound ahead of the `if` (see [`split`]).
    fn moved(src: &str) -> Vec<String> {
        split(src)
            .0
            .iter()
            .map(|s| match s {
                Stmt::Let(name, _) => name.clone(),
                other => panic!("only bindings move: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn names_must_resolve_in_the_schema() {
        let src = r#"fn main(u) {
            if (u > 0) {
                let a = orm_find("user", 1);
                let b = orm_find("nobody", 1);
                let c = orm_find_where("user", "nope", 1);
                let d = orm_count_where("user", "login", "x");
                let e = query("SELECT * FROM app_user WHERE user_id = 1");
                let f = orm_find_all("role");
                let g = orm_assoc(a, "nope");
                let ent = "user";
                let h = orm_find(ent, 1);
                print(a); print(b); print(c); print(d); print(e); print(f); print(g); print(h);
            }
        }"#;
        assert_eq!(moved(src), ["a", "d", "f"]);

        // Without a schema nothing moves; nor without branch deferral.
        let p = simplify_program(&parse_program(src).unwrap());
        let a = analyze(&p);
        for (flags, schema) in [(OptFlags::all(), None), (OptFlags::none(), Some(schema()))] {
            let o = optimize_with_schema(&p, &a, flags, schema.as_ref());
            let body = &o.function("main").unwrap().body;
            assert!(matches!(body[0], Stmt::If(..)), "{flags:?}: {body:?}");
        }
    }

    #[test]
    fn keys_must_be_fixed_before_the_if() {
        let src = r#"fn main(u) {
            let k = 2;
            let m = 3;
            let n = 4;
            if (u > 0) {
                let a = orm_find("user", k);
                let b = orm_find("user", u);
                let c = orm_find("user", "lit");
                k = 5;
                let d = orm_find("user", k);
                if (u > 9) { m = 6; }
                let e = orm_find("user", m);
                let i = 0;
                while (i < 1) { n = 7; i = i + 1; }
                let f = orm_find("user", n);
                let g = orm_find("user", a.role_id);
                let h = orm_find("user", later);
                print(a); print(b); print(c); print(d); print(e); print(f); print(g); print(h);
            }
            let later = 1;
        }"#;
        assert_eq!(moved(src), ["a", "b", "c"]);
    }

    #[test]
    fn an_association_hangs_off_an_earlier_moved_row_whose_key_nothing_wrote() {
        let src = r#"fn main(u, model) {
            let before = orm_find("user", 1);
            if (u > 0) {
                let a = orm_find("user", u);
                let r = orm_assoc(a, "role");
                let p = orm_assoc(r, "privileges");
                let q = orm_assoc(p, "privileges");
                let s = orm_assoc(before, "role");
                print(a); print(r); print(p); print(q); print(s);
            }
        }"#;
        assert_eq!(moved(src), ["a", "r", "p"]);
        let (ahead, _) = split(src);
        assert_eq!(
            ahead[2],
            Stmt::Let(
                "p".into(),
                Expr::Call(
                    "orm_assoc".into(),
                    vec![
                        Expr::Var("r".into()),
                        Expr::Lit(Lit::Str("privileges".into()))
                    ]
                )
            )
        );

        // A write that may reach the key field — through an alias, or by
        // a name known only at run time — keeps the association in place.
        for write in [
            "model.a = a; let t = model.a; t.role_id = 9;",
            "obj_put(model, \"k\", 1);",
        ] {
            let src = format!(
                r#"fn main(u, model) {{
                    if (u > 0) {{
                        let a = orm_find("user", u);
                        {write}
                        let r = orm_assoc(a, "role");
                        print(a); print(r);
                    }}
                }}"#
            );
            assert_eq!(moved(&src), ["a"], "{write}");
        }
        // Other fields, and a key read through the owner's name, do not.
        let src = r#"fn main(u, model) {
            if (u > 0) {
                let a = orm_find("user", u);
                model.a = a;
                model.login = a.login;
                let r = orm_assoc(a, "role");
                print(a); print(r);
            }
        }"#;
        assert_eq!(moved(src), ["a", "r"]);
    }

    #[test]
    fn the_scan_stops_at_the_first_write() {
        let src = r#"
        fn audit() { exec("UPDATE log SET n = 1 WHERE id = 1"); }
        fn main(u, model) {
            if (u > 0) {
                let a = orm_find("user", 1);
                model.x = a;
                print(str(len(orm_find_all("role"))));
                let i = 0;
                while (i < 2) { let z = orm_find("user", i); print(z); i = i + 1; }
                let b = orm_find("user", 2);
                audit();
                let c = orm_find("user", 3);
                print(a); print(b); print(c);
            }
        }"#;
        let names = moved(src);
        assert_eq!(names.len(), 3, "{names:?}");
        assert_eq!((names[0].as_str(), names[2].as_str()), ("a", "b"));
        assert!(
            names[1].starts_with("__t"),
            "the temporary of a nested read"
        );

        for write in ["begin();", "orm_update(\"user\", 1, \"login\", \"x\");"] {
            let src = format!(
                r#"fn main(u) {{
                    if (u > 0) {{
                        let a = orm_find("user", 1);
                        {write}
                        let b = orm_find("user", 2);
                        print(a); print(b);
                    }}
                }}"#
            );
            assert_eq!(moved(&src), ["a"], "{write}");
        }
    }

    #[test]
    fn a_binding_moves_only_when_its_name_is_the_arms_own() {
        let src = r#"fn main(u, model) {
            if (u > 0) {
                let a = orm_find("user", 1);
                let b = orm_find("user", 2);
                print(c);
                let c = orm_find("user", 3);
                model.f = orm_find("user", 4);
                let r = orm_assoc(b, "role");
                print(a); print(r);
            }
            print(b);
        }"#;
        let (ahead, then) = split(src);
        assert_eq!(moved(src), ["a", "__h0"]);
        assert_eq!(
            ahead[1],
            Stmt::Let(
                "__h0".into(),
                Expr::Call(
                    "orm_find".into(),
                    vec![Expr::Lit(Lit::Str("user".into())), Expr::Lit(Lit::Int(4))]
                )
            )
        );
        // A store reads the fresh binding where the read was.
        let var = |n: &str| Expr::Var(n.into());
        assert!(then.contains(&Stmt::Assign(
            LValue::Field(var("model"), "f".into()),
            var("__h0")
        )));
        // A name the function already uses is never a fresh one.
        let src = r#"fn main(u, model) {
            let __h0 = 1;
            if (u > 0) { model.f = orm_find("user", 2); }
        }"#;
        assert_eq!(moved(src), ["__h1"]);
    }

    #[test]
    fn a_writing_condition_moves_nothing() {
        let src = r#"
        fn check(u) { orm_update("user", u, "login", "x"); return true; }
        fn peek(u) { let x = orm_find("user", u); return x != null; }
        fn main(u) {
            if (check(u)) { let a = orm_find("user", 1); print(a); }
            if (peek(u)) { let b = orm_find("role", 2); print(b); }
        }"#;
        let body = main_of(src);
        assert!(matches!(body[0], Stmt::If(..)), "{body:?}");
        assert!(
            matches!(&body[1], Stmt::Let(name, _) if name == "b"),
            "{body:?}"
        );
    }

    #[test]
    fn a_write_before_the_if_keeps_the_reads_of_its_table_in_place() {
        let src = r#"fn main(u) {
            orm_update("user", 1, "login", "x");
            if (u > 0) {
                let a = orm_find("user", 1);
                let r = orm_find("role", 1);
                let p = orm_assoc(r, "privileges");
                print(a); print(r); print(p);
            }
        }"#;
        assert_eq!(moved(src), ["r", "p"]);
        // A boundary, or SQL built at run time, may be anything.
        for write in [
            "begin();",
            "exec(\"UPDATE role SET role_name = '\" + str(u) + \"'\");",
        ] {
            let src = format!(
                r#"fn main(u) {{
                    {write}
                    if (u > 0) {{ let r = orm_find("role", 1); print(r); }}
                }}"#
            );
            assert_eq!(moved(&src), Vec::<String>::new(), "{write}");
        }
    }

    #[test]
    fn a_key_must_be_a_plain_value() {
        let src = r#"fn main(u) {
            let c = orm_count_where("user", "role_id", 1);
            let m = c + 1;
            let n = len(orm_find_all("role"));
            let o = n * 2 + u;
            if (u > 0) {
                let a = orm_find("user", c);
                let b = orm_find("user", m);
                let d = orm_find("user", n);
                let e = orm_find("user", o);
                print(a); print(b); print(d); print(e);
            }
        }"#;
        assert_eq!(moved(src), ["d", "e"]);
    }

    #[test]
    fn only_mains_ifs_move_reads() {
        let src = r#"
        fn section(u) { if (u > 0) { let a = orm_find("user", 1); print(a); } }
        fn main(u) { section(u); }"#;
        let p = simplify_program(&parse_program(src).unwrap());
        assert_eq!(hoisted(&p), p);
    }

    /// Order status's shape: `pre` before the `if (guard)`, whose then-arm
    /// binds `key`, runs `arm`, reads `lines` by `text` and prints both;
    /// the else-arm holds an ORM read, and `post` follows the `if`.
    #[derive(Debug, Clone, Copy)]
    struct Page {
        pre: &'static str,
        guard: &'static str,
        key: &'static str,
        arm: &'static str,
        text: &'static str,
        post: &'static str,
    }

    const PAGE: Page = Page {
        pre: "",
        guard: "nrows(o) > 0",
        key: r#"let oid = cell(o, 0, "o_id");"#,
        arm: "",
        text: r#""SELECT i_id FROM order_line WHERE o_id = " + str(oid) + " ORDER BY i_id""#,
        post: "",
    };

    impl Page {
        fn src(self) -> String {
            let Page {
                pre,
                guard,
                key,
                arm,
                text,
                post,
            } = self;
            format!(
                r#"fn main(u) {{
                    let o = query("SELECT o_id FROM orders WHERE c_id = " + str(u));
                    {pre}
                    if ({guard}) {{
                        {key}
                        {arm}
                        let lines = query({text});
                        print(str(oid)); print(lines);
                    }} else {{
                        let b = orm_find("role", 1);
                        print(b);
                    }}
                    {post}
                }}"#
            )
        }

        fn moved(self) -> Vec<String> {
            moved(&self.src())
        }
    }

    /// The names the then-arm binds to a query a guarded read answers.
    fn answered(page: Page) -> Vec<String> {
        let (_, then) = split(&page.src());
        let query = |e: &Expr| matches!(e, Expr::Call(f, _) if f == GUARDED_QUERY);
        then.iter()
            .filter_map(|s| match s {
                Stmt::Let(x, e) if query(e) => Some(x.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_spliced_read_under_a_row_guard_registers_last_ahead_of_its_if() {
        let page = Page {
            arm: r#"let a = orm_find("user", 1); print(a);"#,
            ..PAGE
        };
        assert_eq!(page.moved(), ["a", "b", "__h0"]);
        let (ahead, then) = split(&page.src());
        let lit = |s: &str| Expr::Lit(Lit::Str(s.into()));
        let read = Expr::Call(
            GUARDED_READ.into(),
            vec![
                Expr::Var("o".into()),
                lit("o_id"),
                lit("SELECT i_id FROM order_line WHERE o_id = "),
                lit(" ORDER BY i_id"),
            ],
        );
        assert_eq!(ahead[2], Stmt::Let("__h0".into(), read));
        // The key's binding stays in the arm, and so does the query, now
        // answered by the read.
        assert!(then
            .iter()
            .any(|s| matches!(s, Stmt::Let(x, _) if x == "oid")));
        let query = then.iter().find_map(|s| match s {
            Stmt::Let(x, Expr::Call(f, args)) if x == "lines" => Some((f, args)),
            _ => None,
        });
        let (f, args) = query.unwrap();
        assert_eq!(
            (f.as_str(), &args[0]),
            (GUARDED_QUERY, &Expr::Var("__h0".into()))
        );
        assert_eq!(answered(page), ["lines"]);

        // `len` is `nrows`, a guard bound to names first is the same guard,
        // and literal text may come in pieces.
        for page in [
            Page {
                guard: "len(o) > 0",
                ..PAGE
            },
            Page {
                pre: "let n = nrows(o); let g = n > 0;",
                guard: "g",
                ..PAGE
            },
            Page {
                text: r#""SELECT i_id FROM order_line " + "WHERE o_id = " + str(oid)"#,
                ..PAGE
            },
        ] {
            assert_eq!(page.moved(), ["b", "__h0"], "{page:?}");
        }
    }

    #[test]
    fn only_a_row_guard_on_an_unchanged_raw_query_moves_a_splice() {
        for guard in [
            "nrows(o) > 1",
            "nrows(o) >= 1",
            "0 < nrows(o)",
            "nrows(o) != 0",
            "u > 0",
        ] {
            assert_eq!(Page { guard, ..PAGE }.moved(), ["b"], "{guard}");
        }
        for (pre, guard) in [
            // `o` changes after the guard reads it, or on some path.
            (
                r#"let n = nrows(o); o = query("SELECT o_id FROM orders"); let g = n > 0;"#,
                "g",
            ),
            (
                r#"if (u > 9) { o = query("SELECT o_id FROM orders"); }"#,
                "nrows(o) > 0",
            ),
            // The guard's name changes before the `if`.
            ("let g = nrows(o) > 0; g = u > 1;", "g"),
            // Rows that are not a raw query's.
            (r#"o = orm_find_all("role");"#, "nrows(o) > 0"),
        ] {
            assert_eq!(Page { pre, guard, ..PAGE }.moved(), ["b"], "{pre}");
        }
    }

    #[test]
    fn the_splice_is_str_of_a_row_zero_cell_bound_in_the_arm() {
        for arm in [
            // `o` or the key changes in the arm before the read.
            r#"o = query("SELECT o_id FROM orders");"#,
            "oid = 7;",
            "if (u > 1) { oid = 8; }",
        ] {
            assert_eq!(Page { arm, ..PAGE }.moved(), ["b"], "{arm}");
        }
        for key in [
            r#"let oid = cell(o, 1, "o_id");"#,
            r#"let oid = cell(o, u, "o_id");"#,
            "let oid = cell(o, 0, u);",
            "let oid = u;",
            "let oid = first(o).o_id;",
            // Bound before the `if`: not the arm's.
            "",
        ] {
            let pre = if key.is_empty() {
                r#"let oid = cell(o, 0, "o_id");"#
            } else {
                ""
            };
            assert_eq!(Page { pre, key, ..PAGE }.moved(), ["b"], "{key}");
        }
        for text in [
            // No splice, two, or one that is not `str(x)`.
            r#""SELECT i_id FROM order_line WHERE o_id = 1""#,
            r#""SELECT i_id FROM order_line WHERE o_id = " + str(oid) + " OR o_id = " + str(oid)"#,
            r#""SELECT i_id FROM order_line WHERE o_id = " + oid"#,
            // No table named before the splice.
            r#""SELECT " + str(oid) + " FROM order_line""#,
        ] {
            assert_eq!(Page { text, ..PAGE }.moved(), ["b"], "{text}");
        }
        // Two spliced queries: the first is answered.
        let arm = r#"let qty = query("SELECT qty FROM order_line WHERE o_id = " + str(oid)); print(qty);"#;
        assert_eq!(Page { arm, ..PAGE }.moved(), ["b", "__h0"]);
        assert_eq!(answered(Page { arm, ..PAGE }), ["qty"]);
    }

    #[test]
    fn a_splice_keeps_the_hoisting_rules() {
        let write = |table: &str| format!(r#"exec("UPDATE {table} SET qty = 1 WHERE id = 1");"#);
        let stock = write("stock").leak();
        let lines = write("order_line").leak();
        // A write first in the arm; one before the `if` to the read's table.
        assert_eq!(Page { arm: stock, ..PAGE }.moved(), ["b"]);
        assert_eq!(Page { pre: lines, ..PAGE }.moved(), ["b"]);
        assert_eq!(Page { pre: stock, ..PAGE }.moved(), ["b", "__h0"]);
        // The query keeps its binding, so its name need not be the arm's.
        let post = "print(lines);";
        assert_eq!(Page { post, ..PAGE }.moved(), ["b", "__h0"]);
        // A writing condition moves nothing.
        let src = Page {
            guard: "nrows(o) > 0 && audit()",
            ..PAGE
        }
        .src();
        let src =
            format!(r#"fn audit() {{ exec("DELETE FROM log WHERE id = 1"); return true; }} {src}"#);
        assert_eq!(moved(&src), Vec::<String>::new());
    }

    #[test]
    fn reads_move_out_of_nested_ifs_but_never_out_of_loops() {
        let src = r#"fn main(u) {
            if (u > 0) {
                if (u > 1) { let a = orm_find("user", 1); print(a); }
            }
        }"#;
        assert_eq!(moved(src), ["a"]);
        let src = r#"fn main(u) {
            let i = 0;
            while (i < u) {
                if (i > 1) { let a = orm_find("user", 1); print(a); }
                i = i + 1;
            }
        }"#;
        let p = simplify_program(&parse_program(src).unwrap());
        assert_eq!(main_of(src), p.function("main").unwrap().body);
    }
}
