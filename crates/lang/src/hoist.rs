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
//! (what may still be pending in the batch at an `if` is closed-form only
//! for the request's entry point; and a read moved out of an iteration
//! would register once more, for the exit test). An arm's top-level
//! statements are scanned in order, and a statement that stores an
//! `orm_find`, `orm_find_where`, `orm_count_where`, `orm_find_all` or
//! `orm_assoc` call (`let x = R`, `e.f = R`) moves when:
//!
//! 1. **its names resolve in the schema** — entity, column and association
//!    arguments are string literals the prepare-time schema knows, so the
//!    generated SQL cannot fail: a failing position stops its batch, and
//!    the condition's own reads ride that batch. Raw `query(…)` text never
//!    moves (a guarded prefix, below, registers it in place), and without
//!    a schema nothing moves;
//! 2. **its key is known before the `if`, without a round trip** — a
//!    literal, or a variable bound before the `if` that no earlier
//!    statement of the arm assigns and that `main` never binds to a
//!    delayed value ([`delayed_names`]: not `len(…)`, whose result
//!    [`Builtin::sig`] says may be a delayed read of a query's answer), so
//!    registering forces nothing. An `orm_assoc` owner must instead be an
//!    earlier moved single-row read, and the list of an [`ASSOC_ROWS`]
//!    read (a lowered 1+N loop, below) an earlier moved list read; the
//!    statements since must not touch the owner's key field or the
//!    association's memo, nor, for a list, the list itself (a `push`, a
//!    `clear` or an alias: [`EffectWalk::touches`]). It registers as a
//!    dependant of that read, in the same trip;
//! 3. **no write comes first** — the scan stops at the first statement
//!    that may write to the database or open or close a transaction,
//!    itself or through a call (its effect summary's writes, `analysis.rs`):
//!    a read moved above a write would miss it.
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
//! **Each-row loops.** Before the `if`s are scanned, every function's 1+N
//! association loops are lowered — after simplification, exactly
//!
//! ```text
//! let acc = []; let k = 0; …
//! while (true) { [let t = len(base);] if (k < t) {
//!     let el = at(base, k); let v = orm_assoc(el, "a"); push(acc, v); k = k + 1;
//! } else { break; } }
//! ```
//!
//! with the bound `len(base)` read in the loop or bound to a `bn` before
//! it — to `let acc = ASSOC_ROWS(base, "a")`, one read the interpreter
//! registers as an each-row dependant of `base`, and `let acc = []` and
//! `let k = 0` go. It lowers only when `base` is an `orm_find_where` /
//! `orm_find_all` of the same block, not bound again since (and, for a
//! `bn`, touched nowhere between `bn` and the loop); `acc` is a `[]`
//! nothing mentions before the loop does; `k` a `0` nothing mentions
//! outside the loop; the loop's other names appear nowhere else; and the
//! association resolves in the schema. Any other loop stays a loop.
//!
//! **Guarded prefixes.** An `if (nrows(q) > 0)` — `len` is the same
//! builtin; the condition may reach the `if` through the temporaries
//! simplification binds — where `q` is a raw `query` bound earlier in the
//! same block, in `main`, loop bodies included. The longest run of
//! statements heading its then-arm that each register nothing, force
//! nothing and cannot fail while lazy — bindings over literals, bound
//! names, operators and the calls [`Builtin::sig`] says wait whole (pure
//! builtins, and the delayed reads of `q` and of the head's own queries);
//! `query(T)` / `exec(T)` of such a `T`; `print` —
//! registers under the guard where the `if` stands. It is marked
//! `ROW_GUARD(q, condition, n)`, `n` being its length (a head without a
//! `query` or `exec` is left unmarked), and `resolve` lowers it to a form
//! of its own. Under the guard (`Interp::exec_guarded`):
//!
//! 1. **nothing moves past anything** — each statement registers in its
//!    program-order position; only the decision "does the arm run" moves,
//!    from a force on the client to the binder. A user call, a nested `if`
//!    or loop, a heap write and a field or index read end the head, and
//!    every name it binds follows rule 4;
//! 2. **a statement of pending text over `q` registers under the guard** —
//!    a dependant of `q` that a missing row skips, which is exactly when
//!    the eager program skips the arm; a `print` is buffered behind the
//!    arm's fate. Which text is pending text, and where its holes may
//!    stand, the run decides (DESIGN.md "Dependent statements");
//! 3. **anything else waits for the arm's fate** — any other statement, or
//!    any statement once `q` no longer waits in the batch (answered,
//!    drained by a conflict, a degraded session), forces the condition and
//!    runs as written if the arm runs, and so does everything after it;
//! 4. **errors read as the eager program's** — a dependant of a failed `q`
//!    fails with `q`'s error, a hole with its own; a whole head with no
//!    `else` keeps its condition only as an end-of-request check, which
//!    raises what forcing it raises.

use std::collections::{HashMap, HashSet};

use sloth_orm::{AssocKind, Schema};
use sloth_sql::{Footprint, TableAccess};

use crate::analysis::{delayed_names, Analysis, EffectWalk, Name};
use crate::ast::*;
use crate::builtins::{Builtin, Db, HeapFn, QueryFn, ReadFn, ASSOC_ROWS, ROW_GUARD};
use crate::opt::count_occurrences as count_mentions;

/// Guard hoisting over one program, reading its effect summary.
pub(crate) struct GuardHoist<'p> {
    analysis: &'p Analysis,
    schema: &'p Schema,
}

impl<'p> GuardHoist<'p> {
    pub(crate) fn new(analysis: &'p Analysis, schema: &'p Schema) -> GuardHoist<'p> {
        GuardHoist { analysis, schema }
    }

    /// A walk of the effect summary from the start of a block where no
    /// string is known.
    fn walk(&self) -> EffectWalk<'p> {
        self.analysis.effects(Some(self.schema))
    }

    /// `f` with its 1+N association loops lowered to each-row reads, and —
    /// if it is `main`, the only function whose `if`s are rewritten — the
    /// qualifying reads of its `if`s moved above them (see the module
    /// documentation); `None` when nothing changes.
    pub(crate) fn function(&self, f: &Function) -> Option<Function> {
        let lowered = each_row_loops(f, self.schema, &self.walk());
        if f.name != "main" {
            return lowered;
        }
        let f = lowered.as_ref().unwrap_or(f);
        let mut mentions = HashMap::new();
        count_mentions(&f.body, &mut mentions);
        for param in &f.params {
            *mentions.entry(param.clone()).or_insert(0) += 1;
        }
        let mut h = Hoister {
            hoist: self,
            delayed: delayed_names(&f.body),
            mentions,
            next_temp: 0,
        };
        let bound = f.params.iter().cloned().collect();
        Some(Function {
            name: f.name.clone(),
            params: f.params.clone(),
            body: h.block(&f.body, &bound, &Footprint::default(), false, &self.walk()),
        })
    }
}

/// Every name a statement subtree binds (`let`) or assigns.
fn assigned_names(s: &Stmt) -> Vec<String> {
    let stmts = std::slice::from_ref(s);
    let mut out = Vec::new();
    assigned_vars(stmts, &mut out);
    let_names(stmts, &mut out);
    out
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

/// A moved read an association further down the arm may hang off, by the
/// name it is bound to: a single row for `orm_assoc`, a list for an
/// each-row read.
struct Owner {
    /// Its entity.
    entity: String,
    /// Whether it is a list read.
    list: bool,
    /// Its statement's position in the arm.
    at: usize,
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
}

/// What a guarded prefix scan knows at one statement of the head.
struct Head<'s> {
    /// The guard's result set.
    rows: &'s str,
    /// Names bound on every path to the `if`.
    bound: &'s HashSet<String>,
    /// Names the head has bound so far.
    defined: HashSet<String>,
    /// Names the head has bound to one of its queries' result sets.
    results: HashSet<String>,
}

impl Head<'_> {
    fn defined(&self, name: &str) -> bool {
        self.bound.contains(name) || self.defined.contains(name)
    }

    /// Whether evaluating `e` lazily registers nothing, forces nothing and
    /// cannot fail: it builds a thunk, or reads a name already bound. A
    /// call must be one [`Builtin::sig`] says waits whole: a pure builtin,
    /// or a delayed read of the guard's rows or of the head's own results.
    fn lazy_safe(&self, e: &Expr) -> bool {
        match e {
            Expr::Lit(_) => true,
            Expr::Var(v) => self.defined(v),
            Expr::Binary(BinOp::And | BinOp::Or, ..) => false,
            Expr::Binary(_, a, b) => self.lazy_safe(a) && self.lazy_safe(b),
            Expr::Unary(_, a) => self.lazy_safe(a),
            Expr::Call(_, args) => {
                let Some(sig) = call(e).map(|(b, _)| b.sig()) else {
                    return false;
                };
                let of_rows = match args.first() {
                    Some(Expr::Var(r)) => r == self.rows || self.results.contains(r),
                    _ => false,
                };
                (sig.effect.pure() || sig.delayed_read() && of_rows)
                    && args.iter().all(|a| self.lazy_safe(a))
            }
            _ => false,
        }
    }

    /// What the database sees of `e` if it is `query(text)` or
    /// `exec(text)` over a lazy-safe `text`: what registers under the
    /// guard when its text is pending on the guard's row.
    fn statement(&self, e: &Expr) -> Option<Db> {
        let (b, args) = call(e)?;
        let db = b.sig().effect.db;
        let lazy_safe = matches!(args, [text] if self.lazy_safe(text));
        (matches!(db, Db::Text | Db::WriteText) && lazy_safe).then_some(db)
    }

    /// Takes the binding `name = e` into the head: `Some(true)` when it is
    /// a query, `Some(false)` when it registers nothing, `None` when it
    /// ends the head.
    fn binding(&mut self, name: &str, e: &Expr) -> Option<bool> {
        let query = self.statement(e) == Some(Db::Text);
        if !query && !self.lazy_safe(e) {
            return None;
        }
        self.defined.insert(name.to_string());
        if query {
            self.results.insert(name.to_string());
        }
        Some(query)
    }

    /// Takes the statement `e;` into the head, as [`Head::binding`] does.
    fn effect(&self, e: &Expr) -> Option<bool> {
        match call(e) {
            _ if self.statement(e).is_some() => Some(true),
            Some((b, args)) if b.sig().effect.output => {
                args.iter().all(|a| self.lazy_safe(a)).then_some(false)
            }
            _ => None,
        }
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
    let (count, at) = value(count, before, at)?;
    let (Some((Builtin::EagerRead(ReadFn::Len), [Expr::Var(rows)])), Expr::Lit(Lit::Int(0))) =
        (call(count), &**zero)
    else {
        return None;
    };
    let (query, bound_at) = binding(rows, before)?;
    let raw = call(query).is_some_and(|(b, _)| b.sig().effect.db == Db::Text);
    (raw && bound_at < at).then(|| rows.clone())
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

/// `e` as a call of a builtin, with its arguments.
fn call(e: &Expr) -> Option<(Builtin, &[Expr])> {
    match e {
        Expr::Call(f, args) => Some((Builtin::from_name(f)?, args)),
        _ => None,
    }
}

/// `f` with every 1+N association loop of its body lowered to one
/// each-row read (see the module documentation); `None` when it has none.
fn each_row_loops(f: &Function, schema: &Schema, walk: &EffectWalk) -> Option<Function> {
    if !has_assoc_loop(&f.body) {
        return None;
    }
    let mut mentions = HashMap::new();
    count_mentions(&f.body, &mut mentions);
    for param in &f.params {
        *mentions.entry(param.clone()).or_insert(0) += 1;
    }
    let mut changed = false;
    let body = lower_loops(&f.body, schema, walk, &mentions, &mut changed);
    changed.then(|| Function {
        name: f.name.clone(),
        params: f.params.clone(),
        body,
    })
}

/// Whether `stmts` hold a loop whose body's second statement binds an
/// `orm_assoc`, as a 1+N loop's does: what [`assoc_loop`] looks for.
fn has_assoc_loop(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::If(_, t, e) => has_assoc_loop(t) || has_assoc_loop(e),
        Stmt::While(_, b) => {
            let assoc = matches!(b.last(), Some(Stmt::If(_, body, _))
                if matches!(body.get(1), Some(Stmt::Let(_, e))
                    if matches!(call(e), Some((Builtin::Query(QueryFn::OrmAssoc), _)))));
            assoc || has_assoc_loop(b)
        }
        _ => false,
    })
}

/// A block with its association loops, and those of the blocks it holds,
/// lowered.
fn lower_loops(
    stmts: &[Stmt],
    schema: &Schema,
    walk: &EffectWalk,
    mentions: &HashMap<String, usize>,
    changed: &mut bool,
) -> Vec<Stmt> {
    let lower = |b: &[Stmt], changed: &mut bool| lower_loops(b, schema, walk, mentions, changed);
    let mut out: Vec<Stmt> = stmts
        .iter()
        .map(|s| match s {
            Stmt::If(c, t, e) => Stmt::If(c.clone(), lower(t, changed), lower(e, changed)),
            Stmt::While(c, b) => Stmt::While(c.clone(), lower(b, changed)),
            s => s.clone(),
        })
        .collect();
    let mut i = 0;
    while i < out.len() {
        if let Some((inits, read)) = assoc_loop(&out, i, schema, walk, mentions) {
            out[i] = read;
            for at in inits {
                out.remove(at);
                i -= 1;
            }
            *changed = true;
        }
        i += 1;
    }
    out
}

/// `stmts[i]` as a 1+N association loop over a list read of its block —
/// after simplification,
///
/// ```text
/// let acc = []; let k = 0; …
/// while (true) { [let t = len(base);] if (k < t) {
///     let el = at(base, k); let v = orm_assoc(el, "a"); push(acc, v); k = k + 1;
/// } else { break; } }
/// ```
///
/// the bound `t` possibly a `bn = len(base)` bound before the loop — and
/// what replaces it: `let acc = ASSOC_ROWS(base, "a")`, and the positions
/// of `let acc = []` and `let k = 0`, highest first, which go.
fn assoc_loop(
    stmts: &[Stmt],
    i: usize,
    schema: &Schema,
    walk: &EffectWalk,
    mentions: &HashMap<String, usize>,
) -> Option<([usize; 2], Stmt)> {
    let Stmt::While(Expr::Lit(Lit::Bool(true)), inner) = &stmts[i] else {
        return None;
    };
    let (Stmt::If(Expr::Binary(BinOp::Lt, k, bound), body, els), temps) = inner.split_last()?
    else {
        return None;
    };
    let ([Stmt::Break], Expr::Var(k), Expr::Var(bound)) = (&els[..], &**k, &**bound) else {
        return None;
    };
    let [Stmt::Let(el, Expr::Call(at, at_args)), Stmt::Let(v, Expr::Call(assoc, assoc_args)), Stmt::ExprStmt(Expr::Call(push, push_args)), Stmt::Assign(LValue::Var(step), next)] =
        &body[..]
    else {
        return None;
    };
    let (
        [Expr::Var(base), Expr::Var(at_k)],
        [Expr::Var(owner), Expr::Lit(Lit::Str(a))],
        [Expr::Var(acc), Expr::Var(pushed)],
    ) = (&at_args[..], &assoc_args[..], &push_args[..])
    else {
        return None;
    };
    let one = Expr::Binary(
        BinOp::Add,
        Box::new(Expr::Var(k.clone())),
        Box::new(Expr::Lit(Lit::Int(1))),
    );
    let calls = [at, assoc, push].map(|f| Builtin::from_name(f));
    let shape = calls
        == [
            Some(Builtin::EagerRead(ReadFn::At)),
            Some(Builtin::Query(QueryFn::OrmAssoc)),
            Some(Builtin::HeapWrite(HeapFn::Push)),
        ]
        && (at_k, step, owner, pushed) == (k, k, el, v)
        && *next == one;
    if !shape {
        return None;
    }
    // The bound is `len(base)`, read in the loop or bound before it, and
    // `base` an ORM list read of this block, not bound again since. A
    // bound read before the loop also has nothing touch `base` in
    // between: a `push` or `clear` there would make the loop's count
    // differ from the list's.
    let before = &stmts[..i];
    let len_of = |e: &Expr| match call(e) {
        Some((Builtin::EagerRead(ReadFn::Len), [Expr::Var(r)])) => Some(r.clone()),
        _ => None,
    };
    let (base_read, base_at) = binding(base, before)?;
    let mut local = vec![el.clone(), v.clone()];
    match temps {
        [] => {
            let (len, len_at) = binding(bound, before)?;
            let gap = &stmts[len_at + 1..i];
            let untouched = !walk.touches(gap, Name::Var(base));
            (len_of(len)? == *base && base_at < len_at && untouched).then_some(())?;
        }
        [Stmt::Let(t, len)] if t == bound && len_of(len).as_ref() == Some(base) => {
            local.push(t.clone())
        }
        _ => return None,
    }
    let Some((
        Builtin::Query(QueryFn::OrmFindWhere | QueryFn::OrmFindAll),
        [Expr::Lit(Lit::Str(entity)), ..],
    )) = call(base_read)
    else {
        return None;
    };
    let def = schema.entity(entity)?;
    let has = |cols: &[(String, _)], c: &str| cols.iter().any(|(n, _)| n == c);
    let resolves = match &def.assoc(a)?.kind {
        AssocKind::ManyToOne { fk_column } => has(&def.columns, fk_column),
        AssocKind::OneToMany { fk_column } => {
            has(&schema.entity(&def.assoc(a)?.target)?.columns, fk_column)
        }
    };
    if !resolves {
        return None;
    }
    // `acc` is a fresh `[]` nothing reads until the loop, and `k` a `0`
    // nothing reads outside it; the loop's own names are its own.
    let mut inside = HashMap::new();
    count_mentions(std::slice::from_ref(&stmts[i]), &mut inside);
    let count = |m: &HashMap<String, usize>, n: &str| m.get(n).copied().unwrap_or(0);
    let mut names = local.clone();
    names.extend([k.clone(), acc.clone(), base.clone()]);
    if (1..names.len()).any(|j| names[j..].contains(&names[j - 1])) {
        return None;
    }
    let own = local
        .iter()
        .all(|n| count(mentions, n) == count(&inside, n));
    let (Expr::NewList(empty), acc_at) = binding(acc, before)? else {
        return None;
    };
    let (Expr::Lit(Lit::Int(0)), k_at) = binding(k, before)? else {
        return None;
    };
    let mut between = HashMap::new();
    count_mentions(&stmts[acc_at + 1..i], &mut between);
    let fresh = empty.is_empty() && count(&between, acc) == 0 && count(&inside, acc) == 1;
    let dead = count(mentions, k) == count(&inside, k) + 1;
    if !(own && fresh && dead) {
        return None;
    }
    let read = Expr::Call(
        ASSOC_ROWS.into(),
        vec![Expr::Var(base.clone()), Expr::Lit(Lit::Str(a.clone()))],
    );
    Some((
        [acc_at.max(k_at), acc_at.min(k_at)],
        Stmt::Let(acc.clone(), read),
    ))
}

/// Rewrites one function's `if`s.
struct Hoister<'h, 'p> {
    hoist: &'h GuardHoist<'p>,
    /// The names `main` may bind to a delayed value, which no key may be
    /// (see [`delayed_names`]).
    delayed: HashSet<String>,
    /// How often each name of the function is mentioned (parameters
    /// count once), fresh bindings included.
    mentions: HashMap<String, usize>,
    next_temp: usize,
}

impl Hoister<'_, '_> {
    /// Rewrites a block. `bound`: the names bound on every path to its
    /// first statement; `written`: the writes that may have been issued
    /// before it; `in_loop`: whether a loop encloses it, where only guarded
    /// prefixes apply (they move nothing); `walk`: the effect summary's
    /// walk at its first statement.
    fn block(
        &mut self,
        stmts: &[Stmt],
        bound: &HashSet<String>,
        written: &Footprint,
        in_loop: bool,
        walk: &EffectWalk<'_>,
    ) -> Vec<Stmt> {
        let mut bound = bound.clone();
        let mut written = written.clone();
        let mut walk = walk.clone();
        let mut out = Vec::with_capacity(stmts.len());
        for (i, s) in stmts.iter().enumerate() {
            let at_s = walk.clone();
            let fx = walk.of(std::slice::from_ref(s));
            match s {
                Stmt::If(c, t, e) => {
                    let mut t = self.block(t, &bound, &written, in_loop, &at_s);
                    let mut e = self.block(e, &bound, &written, in_loop, &at_s);
                    let cond = at_s.clone().of(&[Stmt::ExprStmt(c.clone())]);
                    if !in_loop && !cond.writes.has_writes() {
                        let at = out.len();
                        t = self.arm(t, &bound, &written, &mut out, &at_s);
                        e = self.arm(e, &bound, &written, &mut out, &at_s);
                        for moved in &out[at..] {
                            if let Stmt::Let(name, _) = moved {
                                bound.insert(name.clone());
                            }
                        }
                    }
                    let guard = guarded_rows(c, &stmts[..i]).and_then(|rows| {
                        let n = self.guarded_prefix(&rows, &t, &bound)?;
                        let n = Expr::Lit(Lit::Int(n as i64));
                        Some(Expr::Call(
                            ROW_GUARD.into(),
                            vec![Expr::Var(rows), c.clone(), n],
                        ))
                    });
                    out.push(Stmt::If(guard.unwrap_or_else(|| c.clone()), t, e));
                }
                Stmt::While(c, b) => {
                    // A name the body binds differs between iterations:
                    // the body's walk starts knowing no string.
                    let b = self.block(b, &bound, &written, true, &self.hoist.walk());
                    out.push(Stmt::While(c.clone(), b));
                }
                _ => {
                    if let Stmt::Let(name, _) | Stmt::Assign(LValue::Var(name), _) = s {
                        bound.insert(name.clone());
                    }
                    out.push(s.clone());
                }
            }
            written.merge(&fx.writes);
        }
        out
    }

    /// Scans one arm, appending what moves to `before` (the statements
    /// ahead of the `if`) and returning what stays. `walk`: the effect
    /// summary's walk where the `if` stands.
    fn arm(
        &mut self,
        arm: Vec<Stmt>,
        bound: &HashSet<String>,
        written: &Footprint,
        before: &mut Vec<Stmt>,
        walk: &EffectWalk<'_>,
    ) -> Vec<Stmt> {
        let mut walk = walk.clone();
        let mut inside = HashMap::new();
        count_mentions(&arm, &mut inside);
        // How often the arm's statements so far mention each name.
        let mut mentioned: HashMap<String, usize> = HashMap::new();
        let mut scan = Scan {
            bound,
            written,
            assigned: HashSet::new(),
            owners: HashMap::new(),
        };
        let mut kept = Vec::with_capacity(arm.len());
        for (j, s) in arm.iter().enumerate() {
            if walk.of(std::slice::from_ref(s)).writes.has_writes() {
                kept.extend_from_slice(&arm[j..]);
                break;
            }
            count_mentions(std::slice::from_ref(s), &mut mentioned);
            let names = assigned_names(s);
            for name in &names {
                scan.owners.remove(name);
            }
            // A `let` moves whole when its name is the arm's own; a field
            // or element store gets a fresh binding to store.
            let seen = &arm[..=j];
            let moved = match s {
                Stmt::Let(name, Expr::Call(f, args)) if self.own(name, &inside, &mentioned) => {
                    self.movable(f, args, &scan, seen, &walk)
                }
                Stmt::Assign(LValue::Field(..) | LValue::Index(..), Expr::Call(f, args)) => {
                    self.movable(f, args, &scan, seen, &walk)
                }
                _ => None,
            };
            scan.assigned.extend(names);
            let Some(owner_of) = moved else {
                kept.push(s.clone());
                continue;
            };
            match s {
                Stmt::Let(name, call) => {
                    if let Some((entity, list)) = owner_of {
                        let owner = Owner {
                            entity,
                            list,
                            at: j,
                        };
                        scan.owners.insert(name.clone(), owner);
                    }
                    before.push(Stmt::Let(name.clone(), call.clone()));
                }
                Stmt::Assign(lv, call) => {
                    let temp = self.fresh();
                    before.push(Stmt::Let(temp.clone(), call.clone()));
                    kept.push(Stmt::Assign(lv.clone(), Expr::Var(temp)));
                }
                // Only bindings and stores are movable.
                other => kept.push(other.clone()),
            }
        }
        kept
    }

    /// Whether `name` is the arm's own at the statement just counted into
    /// `mentioned`: the function mentions it only inside the arm
    /// (`inside`), and this statement first.
    fn own(
        &self,
        name: &str,
        inside: &HashMap<String, usize>,
        mentioned: &HashMap<String, usize>,
    ) -> bool {
        self.mentions.get(name) == inside.get(name) && mentioned.get(name) == Some(&1)
    }

    /// The length of the guarded prefix of `arm`, the then-arm of an `if
    /// (nrows(rows) > 0)` (see the module documentation) — or `None` when
    /// it registers nothing.
    fn guarded_prefix(&self, rows: &str, arm: &[Stmt], bound: &HashSet<String>) -> Option<usize> {
        let mut inside = HashMap::new();
        count_mentions(arm, &mut inside);
        let mut mentioned: HashMap<String, usize> = HashMap::new();
        let mut head = Head {
            rows,
            bound,
            defined: HashSet::new(),
            results: HashSet::new(),
        };
        let mut len = 0;
        let mut statements = 0;
        for s in arm {
            count_mentions(std::slice::from_ref(s), &mut mentioned);
            let registers = match s {
                Stmt::Let(name, e) | Stmt::Assign(LValue::Var(name), e)
                    if self.own(name, &inside, &mentioned) =>
                {
                    head.binding(name, e)
                }
                Stmt::ExprStmt(e) => head.effect(e),
                _ => None,
            };
            let Some(registers) = registers else { break };
            statements += usize::from(registers);
            len += 1;
        }
        (statements > 0).then_some(len)
    }

    /// Whether the read `f(args)` may move above the `if`: `Some` with the
    /// entity of its rows, and whether it is a list, when an association
    /// may then hang off it.
    fn movable(
        &self,
        f: &str,
        args: &[Expr],
        scan: &Scan,
        seen: &[Stmt],
        walk: &EffectWalk,
    ) -> Option<Option<(String, bool)>> {
        let schema = self.hoist.schema;
        let key_ok = |key: &Expr| match key {
            Expr::Lit(_) => true,
            Expr::Var(v) => {
                scan.bound.contains(v) && !scan.assigned.contains(v) && !self.delayed.contains(v)
            }
            _ => false,
        };
        let str_lit = |e: &Expr| match e {
            Expr::Lit(Lit::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let has = |cols: &[(String, _)], c: &str| cols.iter().any(|(n, _)| n == c);
        let Some(Builtin::Query(read)) = Builtin::from_name(f) else {
            return None;
        };
        let (table, owner_of) = match (read, args) {
            (QueryFn::OrmFind, [entity, key]) => {
                let def = schema.entity(&str_lit(entity)?)?;
                key_ok(key).then_some((&def.table, Some((def.name.clone(), false))))?
            }
            (QueryFn::OrmFindWhere | QueryFn::OrmCountWhere, [entity, column, key]) => {
                let def = schema.entity(&str_lit(entity)?)?;
                let known = has(&def.columns, &str_lit(column)?);
                let list = (read == QueryFn::OrmFindWhere).then(|| (def.name.clone(), true));
                (known && key_ok(key)).then_some((&def.table, list))?
            }
            (QueryFn::OrmFindAll, [entity]) => {
                let def = schema.entity(&str_lit(entity)?)?;
                (&def.table, Some((def.name.clone(), true)))
            }
            (QueryFn::OrmAssoc | QueryFn::OrmAssocRows, [Expr::Var(owner), assoc]) => {
                let each_row = read == QueryFn::OrmAssocRows;
                let o = scan.owners.get(owner).filter(|o| o.list == each_row)?;
                let assoc = str_lit(assoc)?;
                let def = schema.entity(&o.entity)?;
                let a = def.assoc(&assoc)?;
                let target = schema.entity(&a.target)?;
                // The owner's field the association is keyed by: a write
                // to it, or to the association's memo, since the owner was
                // read would change what the association returns — and so
                // would a list's change, or its alias.
                let (key, one_row) = match &a.kind {
                    AssocKind::ManyToOne { fk_column } => (fk_column, true),
                    AssocKind::OneToMany { fk_column } => {
                        has(&target.columns, fk_column).then_some((&def.pk, false))?
                    }
                };
                let memo = format!("__assoc_{assoc}");
                let since = &seen[o.at + 1..];
                let touched = |n| walk.touches(since, n);
                let list = o.list && walk.touches(&since[..since.len() - 1], Name::Var(owner));
                if !has(&def.columns, key)
                    || touched(Name::Field(key))
                    || touched(Name::Field(&memo))
                    || list
                {
                    return None;
                }
                let row_of = (one_row && !each_row).then(|| (target.name.clone(), false));
                (&target.table, row_of)
            }
            _ => return None,
        };
        (!table_read(table).conflicts_with(scan.written)).then_some(owner_of)
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
        let a = analyze(p, Some(&schema));
        let h = GuardHoist::new(&a, &schema);
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

        // Without a schema nothing moves; nor without `OptFlags::hoist`.
        let p = simplify_program(&parse_program(src).unwrap());
        let a = analyze(&p, None);
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
    fn a_query_whose_text_is_a_write_stops_the_scan() {
        for write in [
            r#"query("UPDATE patient SET name = 'n' WHERE patient_id = 1");"#,
            r#"query("DELETE FROM role WHERE role_id = 3");"#,
        ] {
            let src = format!(
                r#"fn main(u) {{
                    if (u > 0) {{
                        let a = orm_find("user", 1);
                        {write}
                        let p = orm_find("user", 2);
                        print(a); print(p);
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
        // `len` of a read nobody has fetched is a delayed read: a key
        // built from it would force the read where the key registers.
        let src = r#"fn main(u) {
            let c = orm_count_where("user", "role_id", 1);
            let m = c + 1;
            let n = len(orm_find_all("role"));
            let o = n * 2 + u;
            let k = u * 2 + 1;
            if (u > 0) {
                let a = orm_find("user", c);
                let b = orm_find("user", m);
                let d = orm_find("user", n);
                let e = orm_find("user", o);
                let f = orm_find("user", k);
                print(a); print(b); print(d); print(e); print(f);
            }
        }"#;
        assert_eq!(moved(src), ["f"]);
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

        /// The names the head of the row-guarded then-arm binds to queries,
        /// and the statements of that head; empty when the `if` is not
        /// marked.
        fn spliced(self) -> (Vec<String>, usize) {
            spliced(&self.src())
        }
    }

    /// [`Page::spliced`] of the last top-level `if` of `src`'s `main`.
    fn spliced(src: &str) -> (Vec<String>, usize) {
        let body = main_of(src);
        let Some(Stmt::If(c, then, _)) = body.iter().rfind(|s| matches!(s, Stmt::If(..))) else {
            panic!("no if: {body:?}")
        };
        let n = match c {
            Expr::Call(f, args) if f == ROW_GUARD => match &args[2] {
                Expr::Lit(Lit::Int(n)) => *n as usize,
                other => panic!("{other:?}"),
            },
            _ => return (Vec::new(), 0),
        };
        let names = then[..n]
            .iter()
            .filter_map(|s| match s {
                Stmt::Let(x, Expr::Call(f, _)) if f == "query" => Some(x.clone()),
                _ => None,
            })
            .collect();
        (names, n)
    }

    #[test]
    fn a_spliced_read_under_a_row_guard_registers_last_ahead_of_its_if() {
        let page = Page {
            arm: r#"let a = orm_find("user", 1); print(a);"#,
            ..PAGE
        };
        // The ORM reads move as before; nothing of the head does.
        assert_eq!(moved(&page.src()), ["a", "b"]);
        let (_, then) = split(&page.src());
        let (names, n) = page.spliced();
        assert_eq!(names, ["lines"]);
        assert_eq!(n, then.len(), "the whole arm");
        // The query keeps its text: what it splices is the run's to see.
        let lines = then.iter().find_map(|s| match s {
            Stmt::Let(x, Expr::Call(_, args)) if x == "lines" => Some(args),
            _ => None,
        });
        assert_eq!(lines.map(Vec::len), Some(1));

        // `len` is `nrows`, a guard bound to names first is the same guard,
        // literal text may come in pieces, and a read after the `if` or a
        // write anywhere changes nothing: nothing moves past anything.
        let exec = r#"exec("UPDATE order_line SET qty = 1 WHERE o_id = 1");"#;
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
            Page { pre: exec, ..PAGE },
        ] {
            assert_eq!(page.spliced().0, ["lines"], "{page:?}");
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
            "nrows(o) > 0 && u > 0",
        ] {
            assert_eq!(Page { guard, ..PAGE }.spliced().1, 0, "{guard}");
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
            assert_eq!(Page { pre, guard, ..PAGE }.spliced().1, 0, "{pre}");
        }
    }

    #[test]
    fn a_splice_keeps_the_hoisting_rules() {
        // A query whose name is read after the `if` is not the head's: an
        // untaken arm must leave it as it was.
        assert_eq!(
            Page {
                post: "print(lines);",
                ..PAGE
            }
            .spliced()
            .1,
            0
        );
        // A condition that writes is not a row guard.
        let src = Page {
            guard: "nrows(o) > 0 && audit()",
            ..PAGE
        }
        .src();
        let src =
            format!(r#"fn audit() {{ exec("DELETE FROM log WHERE id = 1"); return true; }} {src}"#);
        assert_eq!(spliced(&src).1, 0);
        // Only `main` is rewritten.
        let src = format!(
            "fn section(u) {{ {} }} fn main(u) {{ section(u); }}",
            &PAGE.src()["fn main(u) {".len()..PAGE.src().len() - 1]
        );
        let p = simplify_program(&parse_program(&src).unwrap());
        assert_eq!(hoisted(&p), p);
    }

    #[test]
    fn a_head_ends_where_a_statement_is_not_one_of_its_shapes() {
        // Delivery's shape, in a loop: cells, spliced writes and reads, a
        // print of a read of the head's own result set — then a field read.
        let src = r#"fn main(arg) {
            let d = 1;
            while (d <= 3) {
                let o = query("SELECT o_id, c_id FROM orders WHERE d_id = " + str(d));
                if (nrows(o) > 0) {
                    let oid = cell(o, 0, "o_id");
                    let cid = cell(o, 0, "c_id");
                    exec("UPDATE orders SET carrier_id = " + str(1 + arg % 10) + " WHERE o_id = " + str(oid));
                    let amt = query("SELECT SUM(amount) FROM order_line WHERE o_id = " + str(oid));
                    print(str(cell(amt, 0, "sum")));
                    exec("UPDATE customer SET balance = balance + 1.0 WHERE c_id = " + str(cid));
                    let f = first(amt).sum;
                    print(f);
                }
                d = d + 1;
            }
        }"#;
        let body = main_of(src);
        let Stmt::While(_, b) = &body[1] else {
            panic!("{body:?}")
        };
        let Some(Stmt::If(_, arm, _)) = b.last() else {
            panic!("{b:?}")
        };
        let inner = arm.iter().find_map(|s| match s {
            Stmt::If(Expr::Call(f, args), then, _) if f == ROW_GUARD => Some((args, then)),
            _ => None,
        });
        let (args, then) = inner.expect("the row guard in the loop is marked");
        let Expr::Lit(Lit::Int(n)) = args[2] else {
            panic!("{args:?}")
        };
        let n = n as usize;
        let statements = then[..n]
            .iter()
            .filter(|s| match s {
                Stmt::Let(_, Expr::Call(f, _)) | Stmt::ExprStmt(Expr::Call(f, _)) => {
                    f == "query" || f == "exec"
                }
                _ => false,
            })
            .count();
        assert_eq!(statements, 3, "two writes and a read");
        assert!(
            matches!(&then[n], Stmt::Let(x, Expr::Field(..)) if x == "f"),
            "the field read ends the head: {:?}",
            &then[n..]
        );
        // `o` or the key changes in the arm before the read; a nested `if`,
        // a heap write or a user call ends the head, and so does a key that
        // is a field read. Which text registers is the run's to decide.
        for arm in [
            r#"o = query("SELECT o_id FROM orders");"#,
            "oid = 7;",
            "if (u > 1) { oid = 8; }",
            "let m = new_obj(); m.k = 1;",
            "helper(u);",
        ] {
            let page = Page { arm, ..PAGE };
            let src = format!("fn helper(x) {{ print(x); }} {}", page.src());
            assert_eq!(spliced(&src).1, 0, "{arm}");
        }
        let key = "let oid = first(o).o_id;";
        assert_eq!(Page { key, ..PAGE }.spliced().1, 0);
        let exec = r#"exec("UPDATE stock SET qty = 1 WHERE id = 1");"#;
        assert_eq!(Page { arm: exec, ..PAGE }.spliced().0, ["lines"]);
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
