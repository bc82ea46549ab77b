//! The Sloth compiler's analysis (§4.1): one **effect summary** per
//! function, and the deferrability checks that read it.
//!
//! A `Summary` says what code may do:
//!
//! * **persistence** (§4.1) — it may touch persistent data: it issues a
//!   query, reads or writes an object (field, index or result-set read —
//!   the paper's third criterion, "accesses object fields that are stored
//!   persistently", taken as any heap access, since every object graph in
//!   these applications is rooted in ORM entities), or calls code that
//!   may. Only persistent functions are compiled to lazy semantics when
//!   selective compilation is on;
//! * **purity** — it issues no query, writes no object, calls no external
//!   and calls only pure functions. Calls to pure functions may be
//!   deferred whole;
//! * **the database writes it may issue**, as a [`Footprint`], a barrier
//!   where one cannot be bounded (SQL built at run time, a transaction
//!   boundary). A `query` whose text names a write issues it too;
//! * **the heap fields it may write** (`e.f = …`), or any (`obj_put`).
//!
//! One statement walker computes it, for a function's body and for any
//! stretch of statements a pass asks about. It resolves the string
//! temporaries simplification binds through a static-string environment
//! (`SStr`). An `if`'s arms each start from what held before it, and
//! what either binds is unknown after it; a loop's body binds names that
//! differ between iterations, so they are unknown before its condition
//! and body are walked. A call adds its callee's summary, a builtin's
//! the effect its signature names (`Builtin::sig`, the one table of what
//! each builtin forces and touches). The
//! summaries close over the call graph in one worklist fixpoint: each
//! body is walked once, and a function is summarised again only when a
//! function it calls has grown.
//!
//! **Deferrability** — whether thunk coalescing (§4.3) may take a
//! straight-line statement into a thunk block (no queries, no external
//! calls, no heap writes, no forcing operations) — reads the purity of
//! callees.
//!
//! **Touches** — whether a stretch of statements may touch a variable
//! (bind it, or mention it other than as an argument the table says its
//! call only reads) or a field name (write it, itself or through a
//! call) — is what guard hoisting and the 1+N lowering ask of the code
//! between a read and its use; `delayed_names` says which names a
//! function may bind to a value whose force may fetch.

use std::collections::{BTreeSet, HashMap, HashSet};

use sloth_orm::Schema;
use sloth_sql::{Footprint, TableAccess};

use crate::ast::*;
use crate::builtins::{Builtin, Db, Heap};

/// What code may do (see the module documentation).
#[derive(Debug, Clone, Default)]
pub(crate) struct Summary {
    /// May touch persistent data.
    pub persistent: bool,
    /// Not pure.
    pub impure: bool,
    /// The database writes it may issue; a barrier when one cannot be
    /// bounded or it opens or closes a transaction. The key pins of a
    /// literal statement are carried because `Footprint::of_sql` yields
    /// them; guard hoisting, the one reader, compares tables only.
    pub writes: Footprint,
    /// Fields it may write on some object (`e.f = …`).
    pub fields: HashSet<String>,
    /// May write any field (`obj_put` names it at run time).
    pub any_field: bool,
}

/// Adds the accesses of `from` that `into` lacks — a set union, so that
/// the fixpoint over recursive calls settles.
fn add(into: &mut Vec<TableAccess>, from: impl IntoIterator<Item = TableAccess>) {
    for access in from {
        if !into.contains(&access) {
            into.push(access);
        }
    }
}

impl Summary {
    /// Adds everything `other` may do.
    fn join(&mut self, other: &Summary) {
        self.persistent |= other.persistent;
        self.impure |= other.impure;
        self.writes.barrier |= other.writes.barrier;
        add(&mut self.writes.writes, other.writes.writes.iter().cloned());
        self.fields.extend(other.fields.iter().cloned());
        self.any_field |= other.any_field;
    }

    /// Adds a write call whose footprint is `fp` — `None` when it cannot
    /// be bounded.
    fn write(&mut self, fp: Option<Footprint>) {
        self.persistent = true;
        self.impure = true;
        match fp {
            Some(fp) => add(&mut self.writes.writes, fp.writes),
            None => self.writes.barrier = true,
        }
    }

    /// Grows with every change [`Summary::join`] makes.
    fn size(&self) -> [usize; 6] {
        [
            self.persistent.into(),
            self.impure.into(),
            self.writes.barrier.into(),
            self.writes.writes.len(),
            self.any_field.into(),
            self.fields.len(),
        ]
    }
}

/// The statement walker: adds what the statements it is given do to a
/// [`Summary`], each call with its callee's summary.
struct Walker<'f, 'p> {
    /// The summaries of the program's functions.
    fns: &'f HashMap<String, Summary>,
    schema: Option<&'f Schema>,
    /// What each string-valued name is known to hold.
    env: SEnv,
    /// The program's functions called, in order.
    calls: Vec<&'p str>,
}

impl<'f, 'p> Walker<'f, 'p> {
    fn new(fns: &'f HashMap<String, Summary>, schema: Option<&'f Schema>) -> Walker<'f, 'p> {
        Walker {
            fns,
            schema,
            env: SEnv::new(),
            calls: Vec::new(),
        }
    }

    fn stmts(&mut self, stmts: &'p [Stmt], fx: &mut Summary) {
        for s in stmts {
            self.stmt(s, fx);
        }
    }

    fn stmt(&mut self, s: &'p Stmt, fx: &mut Summary) {
        match s {
            Stmt::Let(name, e) | Stmt::Assign(LValue::Var(name), e) => {
                self.expr(e, fx);
                record_def(name, e, &mut self.env);
            }
            Stmt::Assign(lv, e) => {
                fx.persistent = true;
                fx.impure = true;
                match lv {
                    LValue::Field(b, f) => {
                        fx.fields.insert(f.clone());
                        self.expr(b, fx);
                    }
                    LValue::Index(b, i) => {
                        self.expr(b, fx);
                        self.expr(i, fx);
                    }
                    LValue::Var(_) => {}
                }
                self.expr(e, fx);
            }
            Stmt::ExprStmt(e) | Stmt::Return(Some(e)) => self.expr(e, fx),
            Stmt::If(c, t, e) => {
                self.expr(c, fx);
                // Walking `t` changes only what it binds, unknown after
                // the `if` in any case.
                let before = (!e.is_empty()).then(|| self.env.clone());
                self.stmts(t, fx);
                if let Some(before) = before {
                    self.env = before;
                }
                self.stmts(e, fx);
                invalidate_assigned(t, &mut self.env);
                invalidate_assigned(e, &mut self.env);
            }
            Stmt::While(c, b) => {
                invalidate_assigned(b, &mut self.env);
                self.expr(c, fx);
                self.stmts(b, fx);
                invalidate_assigned(b, &mut self.env);
            }
            Stmt::DeferBlock { body, .. } => self.stmts(body, fx),
            Stmt::Break | Stmt::Continue | Stmt::Return(None) => {}
        }
    }

    fn expr(&mut self, e: &'p Expr, fx: &mut Summary) {
        match e {
            Expr::Call(name, args) => {
                for a in args {
                    self.expr(a, fx);
                }
                self.call(name, args, fx);
            }
            Expr::Field(b, _) => {
                fx.persistent = true;
                self.expr(b, fx);
            }
            Expr::Index(b, i) => {
                fx.persistent = true;
                self.expr(b, fx);
                self.expr(i, fx);
            }
            Expr::Binary(_, a, b) => {
                self.expr(a, fx);
                self.expr(b, fx);
            }
            Expr::Unary(_, a) => self.expr(a, fx),
            Expr::NewObject(fields) => fields.iter().for_each(|(_, v)| self.expr(v, fx)),
            Expr::NewList(items) => items.iter().for_each(|v| self.expr(v, fx)),
            Expr::Lit(_) | Expr::Var(_) => {}
        }
    }

    fn call(&mut self, name: &'p str, args: &[Expr], fx: &mut Summary) {
        let Some(builtin) = Builtin::from_name(name) else {
            match self.fns.get(name) {
                Some(callee) => {
                    fx.join(callee);
                    self.calls.push(name);
                }
                // Not the program's: nothing is known of it.
                None => fx.impure = true,
            }
            return;
        };
        let effect = builtin.sig().effect;
        fx.persistent |= effect.db != Db::None || effect.heap == Heap::Read;
        fx.impure |= effect.impure();
        fx.any_field |= matches!(effect.heap, Heap::AnyField(_));
        let text = || {
            args.first()
                .map_or(SStr::Unknown, |a| static_str(a, &self.env))
        };
        match effect.db {
            // `query` runs whatever statement it is given: one whose text
            // is not known to be a read may be a write, bounded as
            // `exec`'s is — or not at all.
            Db::Text => {
                let text = text();
                if !reads_only(&text) {
                    fx.write(sql_write_footprint(&text));
                }
            }
            Db::WriteText => fx.write(sql_write_footprint(&text())),
            Db::WriteEntity => fx.write(entity_write_footprint(args, self.schema)),
            // Transaction boundaries are barriers: never bounded.
            Db::Boundary => fx.write(None),
            Db::None | Db::Read => {}
        }
    }
}

/// Result of analysing a program: every function's effect summary, its calls
/// included (definitions sharing a name are merged).
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    fns: HashMap<String, Summary>,
}

impl Analysis {
    /// Whether function `name` is labelled persistent.
    pub fn is_persistent(&self, name: &str) -> bool {
        self.fns.get(name).is_some_and(|f| f.persistent)
    }

    /// Whether function `name` is pure.
    pub fn is_pure_fn(&self, name: &str) -> bool {
        self.fns.get(name).is_some_and(|f| !f.impure)
    }

    /// A walk over statements given in order, starting where no string
    /// is known (see [`EffectWalk`]).
    pub(crate) fn effects<'a>(&'a self, schema: Option<&'a Schema>) -> EffectWalk<'a> {
        EffectWalk {
            fns: &self.fns,
            schema,
            env: SEnv::new(),
        }
    }
}

/// The walker, a stretch of statements at a time: what each stretch may
/// do, its calls included, with the strings the stretches before it bound
/// resolved as the function-level walk resolves them. A clone continues
/// from the same point — how a pass walks an `if`'s arms from where the
/// `if` stands.
#[derive(Clone)]
pub(crate) struct EffectWalk<'a> {
    fns: &'a HashMap<String, Summary>,
    schema: Option<&'a Schema>,
    env: SEnv,
}

impl EffectWalk<'_> {
    /// What `stmts` may do; the walk continues after them.
    pub(crate) fn of(&mut self, stmts: &[Stmt]) -> Summary {
        let mut walker = Walker::new(self.fns, self.schema);
        walker.env = std::mem::take(&mut self.env);
        let mut fx = Summary::default();
        walker.stmts(stmts, &mut fx);
        self.env = walker.env;
        fx
    }
}

/// A name a stretch of statements may touch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Name<'n> {
    /// A variable.
    Var(&'n str),
    /// A field, of any object.
    Field(&'n str),
}

impl EffectWalk<'_> {
    /// Whether `stmts` may touch `n` — the one question guard hoisting
    /// and the 1+N lowering ask of the code between a read and its use. A
    /// variable is touched where it is bound, or mentioned anywhere but as
    /// an argument [`Builtin::sig`] says its call only reads (forced or
    /// used unfetched, neither kept nor changed): a `push` or `clear` of
    /// it, an alias, an operand, a field access, a user call's argument. A
    /// field is touched where a field so named, or any field, may be
    /// written, directly or through a call.
    pub(crate) fn touches(&self, stmts: &[Stmt], n: Name) -> bool {
        match n {
            Name::Var(v) => stmts.iter().any(|s| stmt_touches(s, v)),
            Name::Field(f) => {
                let fx = self.clone().of(stmts);
                fx.any_field || fx.fields.contains(f)
            }
        }
    }
}

/// Whether running `s` may touch the variable `v` (see
/// [`EffectWalk::touches`]).
fn stmt_touches(s: &Stmt, v: &str) -> bool {
    let e = |e: &Expr| expr_touches(e, v);
    let block = |b: &[Stmt]| b.iter().any(|s| stmt_touches(s, v));
    match s {
        Stmt::Let(n, x) | Stmt::Assign(LValue::Var(n), x) => n == v || e(x),
        Stmt::Assign(LValue::Field(b, _), x) => e(b) || e(x),
        Stmt::Assign(LValue::Index(b, i), x) => e(b) || e(i) || e(x),
        Stmt::ExprStmt(x) | Stmt::Return(Some(x)) => e(x),
        Stmt::If(c, t, f) => e(c) || block(t) || block(f),
        Stmt::While(c, b) => e(c) || block(b),
        Stmt::DeferBlock { body, .. } => block(body),
        Stmt::Break | Stmt::Continue | Stmt::Return(None) => false,
    }
}

/// Whether evaluating `e` may touch the variable `v`.
fn expr_touches(e: &Expr, v: &str) -> bool {
    let sub = |e: &Expr| expr_touches(e, v);
    match e {
        Expr::Var(x) => x == v,
        Expr::Lit(_) => false,
        Expr::Call(f, args) => {
            let sig = Builtin::from_name(f).map(Builtin::sig);
            args.iter().enumerate().any(|(i, a)| match a {
                Expr::Var(x) if x == v => !sig.is_some_and(|s| s.reads_only(i)),
                a => sub(a),
            })
        }
        Expr::Field(b, _) | Expr::Unary(_, b) => sub(b),
        Expr::Index(a, b) | Expr::Binary(_, a, b) => sub(a) || sub(b),
        Expr::NewObject(fields) => fields.iter().any(|(_, x)| sub(x)),
        Expr::NewList(items) => items.iter().any(sub),
    }
}

/// The names `stmts` may bind, somewhere, to a delayed value — one whose
/// force may fetch: a call whose result [`Builtin::sig`] says may be
/// delayed, a user call, a field or element read, or an operator over
/// such a name.
pub(crate) fn delayed_names(stmts: &[Stmt]) -> HashSet<String> {
    fn delayed(e: &Expr, names: &HashSet<String>) -> bool {
        match e {
            Expr::Lit(_) | Expr::NewObject(_) | Expr::NewList(_) => false,
            Expr::Var(v) => names.contains(v),
            Expr::Binary(_, a, b) => delayed(a, names) || delayed(b, names),
            Expr::Unary(_, a) => delayed(a, names),
            Expr::Call(f, _) => Builtin::from_name(f).is_none_or(|b| b.sig().effect.delayed),
            Expr::Field(..) | Expr::Index(..) => true,
        }
    }
    // One pass over every binding: whether `names` grew.
    fn grow(stmts: &[Stmt], names: &mut HashSet<String>) -> bool {
        let mut grew = false;
        for s in stmts {
            grew |= match s {
                Stmt::Let(n, e) | Stmt::Assign(LValue::Var(n), e) => {
                    delayed(e, names) && names.insert(n.clone())
                }
                Stmt::If(_, t, e) => grow(t, names) | grow(e, names),
                Stmt::While(_, b) | Stmt::DeferBlock { body: b, .. } => grow(b, names),
                _ => false,
            };
        }
        grew
    }
    let mut names = HashSet::new();
    while grow(stmts, &mut names) {}
    names
}

/// Summarises every function of `p`. With a `schema`, the `orm_*` calls'
/// footprints name their entities' tables; without one they are barriers.
pub fn analyze(p: &Program, schema: Option<&Schema>) -> Analysis {
    let mut fns: HashMap<String, Summary> = p
        .functions
        .iter()
        .map(|f| (f.name.clone(), Summary::default()))
        .collect();
    // Each body is walked once, with no callee known to do anything yet,
    // for what it does itself and whom it calls.
    let mut own: Vec<(&str, Summary)> = Vec::with_capacity(p.functions.len());
    let mut callees: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    let mut callers: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    for f in &p.functions {
        let mut walker = Walker::new(&fns, schema);
        let mut fx = Summary::default();
        walker.stmts(&f.body, &mut fx);
        for callee in walker.calls {
            callers.entry(callee).or_default().insert(&f.name);
            callees.entry(&f.name).or_default().insert(callee);
        }
        own.push((&f.name, fx));
    }
    for (name, fx) in own {
        if let Some(summary) = fns.get_mut(name) {
            summary.join(&fx);
        }
    }
    // Semi-naive: only the callers of the functions whose summary grew in
    // the last round take in their callees' summaries again.
    let mut delta: BTreeSet<&str> = p.functions.iter().map(|f| f.name.as_str()).collect();
    while !delta.is_empty() {
        let stale: BTreeSet<&str> = delta
            .iter()
            .filter_map(|f| callers.get(f))
            .flatten()
            .copied()
            .collect();
        delta.clear();
        for f in stale {
            let mut calls = Summary::default();
            for callee in callees.get(f).into_iter().flatten() {
                if let Some(c) = fns.get(*callee) {
                    calls.join(c);
                }
            }
            if let Some(fx) = fns.get_mut(f) {
                let before = fx.size();
                fx.join(&calls);
                if fx.size() != before {
                    delta.insert(f);
                }
            }
        }
    }
    Analysis { fns }
}

// ---------------------------------------------------------------------
// Static strings and write footprints.
// ---------------------------------------------------------------------

/// What the analysis statically knows about a string-valued expression.
#[derive(Debug, Clone)]
enum SStr {
    /// The whole string is known.
    Full(String),
    /// A known prefix followed by dynamic parts (the ORM-page idiom
    /// `"UPDATE t SET c = " + str(v)`).
    Prefix(String),
    /// Nothing usable.
    Unknown,
}

impl SStr {
    fn concat(self, rhs: SStr) -> SStr {
        match (self, rhs) {
            (SStr::Full(a), SStr::Full(b)) => SStr::Full(a + &b),
            (SStr::Full(a), SStr::Prefix(b)) => SStr::Prefix(a + &b),
            (SStr::Full(a), SStr::Unknown) => SStr::Prefix(a),
            (SStr::Prefix(a), _) => SStr::Prefix(a),
            (SStr::Unknown, _) => SStr::Unknown,
        }
    }
}

/// Static-string environment: local variables (mostly `__t` temporaries
/// from the simplify pass) whose string value is at least partially known.
type SEnv = HashMap<String, SStr>;

/// What `e` is known to hold. A dynamic part (`str(…)` of anything) does
/// not poison the literal prefix ahead of it.
fn static_str(e: &Expr, env: &SEnv) -> SStr {
    match e {
        Expr::Lit(Lit::Str(s)) => SStr::Full(s.clone()),
        Expr::Lit(Lit::Int(i)) => SStr::Full(i.to_string()),
        Expr::Var(v) => env.get(v).cloned().unwrap_or(SStr::Unknown),
        Expr::Binary(BinOp::Add, a, b) => static_str(a, env).concat(static_str(b, env)),
        _ => SStr::Unknown,
    }
}

/// Records an assignment into the static-string environment.
fn record_def(name: &str, e: &Expr, env: &mut SEnv) {
    match static_str(e, env) {
        SStr::Unknown => {
            env.remove(name);
        }
        known => {
            env.insert(name.to_string(), known);
        }
    }
}

/// After a conditionally executed region, anything it assigned is no
/// longer statically known in the outer environment.
fn invalidate_assigned(stmts: &[Stmt], env: &mut SEnv) {
    if env.is_empty() {
        return;
    }
    let mut names = Vec::new();
    assigned_vars(stmts, &mut names);
    let_names(stmts, &mut names);
    for v in names {
        env.remove(&v);
    }
}

/// The words of `lead`, the literal start of a statement's text, ahead of
/// the first of `clauses`, lowercased — `None` when it reaches none. The
/// grammar names every table of a statement ahead of its `SET`, `VALUES`
/// or `WHERE`, so a lead that reaches the clause names them whole.
/// Comments (`--`, `/* */`, which `sloth_sql`'s lexer skips) and quoted
/// text hold no words, and `lead` may end inside either.
pub(crate) fn lead_words(lead: &str, clauses: &[&str]) -> Option<Vec<String>> {
    let b = lead.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    // Just past the first `end` at or after `from`, or the end of `lead`.
    let past = |from: usize, end: &[u8]| {
        b[from..]
            .windows(end.len())
            .position(|w| w == end)
            .map_or(b.len(), |k| from + k + end.len())
    };
    let mut words = Vec::new();
    let mut i = 0;
    while i < b.len() {
        i = match &b[i..] {
            [b'-', b'-', ..] => past(i + 2, b"\n"),
            [b'/', b'*', ..] => past(i + 2, b"*/"),
            [b'\'', ..] => past(i + 1, b"'"),
            [c, rest @ ..] if word(*c) => {
                let end = rest
                    .iter()
                    .position(|&c| !word(c))
                    .map_or(b.len(), |k| i + 1 + k);
                let w = lead[i..end].to_ascii_lowercase();
                if clauses.contains(&w.as_str()) {
                    return Some(words);
                }
                words.push(w);
                end
            }
            _ => i + 1,
        };
    }
    None
}

fn whole_write(table: &str) -> Footprint {
    Footprint {
        writes: vec![TableAccess {
            table: table.to_string(),
            keys: Vec::new(),
        }],
        ..Footprint::default()
    }
}

/// Footprint of a write whose text is at least partly known: the
/// statement's own for a whole literal, else a whole-table write on the
/// table a literal prefix names. The table precedes the first dynamic
/// fragment in every supported shape, and the engine's grammar admits no
/// second statement, so that over-approximates whatever the completed
/// statement can touch (a statement that fails to parse at run time
/// errors without touching anything). `None` means "cannot bound it".
fn sql_write_footprint(s: &SStr) -> Option<Footprint> {
    match s {
        SStr::Full(sql) => {
            let fp = Footprint::of_sql(sql);
            (!fp.barrier).then_some(fp)
        }
        SStr::Prefix(p) => {
            let w = lead_words(p, &["set", "where", "values"])?;
            match w.iter().map(String::as_str).collect::<Vec<_>>()[..] {
                ["update", table, ..]
                | ["delete", "from", table, ..]
                | ["insert", "into", table, ..] => Some(whole_write(table)),
                _ => None,
            }
        }
        SStr::Unknown => None,
    }
}

/// Whether text known this far is a read: a `SELECT` (or `WITH`) whose
/// verb the known text holds whole.
fn reads_only(s: &SStr) -> bool {
    match s {
        SStr::Full(sql) => sloth_sql::is_select_sql(sql),
        // A prefix ending in its verb could be continued into a longer
        // word (`SELECT` + `ion …`).
        SStr::Prefix(p) => {
            let end = p.trim_end().to_ascii_lowercase();
            sloth_sql::is_select_sql(p) && !end.ends_with("select") && !end.ends_with("with")
        }
        SStr::Unknown => false,
    }
}

/// Footprint of an `orm_*` write: its entity's table, when the entity is
/// a literal the schema knows (entity and table names need not coincide);
/// else `None`, a write nothing bounds.
fn entity_write_footprint(args: &[Expr], schema: Option<&Schema>) -> Option<Footprint> {
    let Some(Expr::Lit(Lit::Str(entity))) = args.first() else {
        return None;
    };
    let def = schema?.entity(entity)?;
    Some(whole_write(&def.table.to_ascii_lowercase()))
}

/// Whether an expression can live inside a deferred block — it must
/// not force anything when eventually evaluated lazily: no queries, no
/// externals, no heap reads (which force their targets at evaluation time).
pub fn expr_deferrable(e: &Expr, a: &Analysis) -> bool {
    match e {
        Expr::Lit(_) | Expr::Var(_) => true,
        // Field/index reads are executed (and force their target) at
        // evaluation time — a block containing them cannot be deferred.
        Expr::Field(..) | Expr::Index(..) => false,
        Expr::Binary(_, x, y) => expr_deferrable(x, a) && expr_deferrable(y, a),
        Expr::Unary(_, x) => expr_deferrable(x, a),
        Expr::Call(name, args) => {
            let callee_ok = match Builtin::from_name(name) {
                Some(b) => b.sig().effect.pure(),
                None => a.is_pure_fn(name),
            };
            callee_ok && args.iter().all(|x| expr_deferrable(x, a))
        }
        // Object/list allocation is a heap operation performed eagerly.
        Expr::NewObject(_) | Expr::NewList(_) => false,
    }
}

/// §4.3: whether thunk coalescing may take a statement into a deferred
/// block: a `let`, an assignment to a variable or an expression statement
/// whose expression is deferrable. Control flow, heap writes and `return`
/// never are, so a block is always straight-line.
pub fn stmt_deferrable(s: &Stmt, a: &Analysis) -> bool {
    match s {
        Stmt::Let(_, e) | Stmt::Assign(LValue::Var(_), e) | Stmt::ExprStmt(e) => {
            expr_deferrable(e, a)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn program() -> Program {
        parse_program(
            r#"
            fn get_patient(id) { return orm_find("patient", id); }
            fn controller(id) {
                let p = get_patient(id);
                return p;
            }
            fn format_name(first, last) { return concat(first, last); }
            fn helper_chain(a) { return format_name(a, a); }
            fn print_it(x) { print(x); }
            fn mutate(xs) { push(xs, 1); }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn persistence_propagates_through_callers() {
        let a = analyze(&program(), None);
        assert!(a.is_persistent("get_patient"));
        assert!(a.is_persistent("controller"), "transitively persistent");
        assert!(!a.is_persistent("format_name"));
        assert!(!a.is_persistent("helper_chain"));
        assert!(!a.is_persistent("print_it"));
    }

    #[test]
    fn purity_detects_effects() {
        let a = analyze(&program(), None);
        assert!(a.is_pure_fn("format_name"));
        assert!(a.is_pure_fn("helper_chain"));
        assert!(!a.is_pure_fn("print_it"), "print is external");
        assert!(!a.is_pure_fn("mutate"), "push writes the heap");
        assert!(!a.is_pure_fn("get_patient"), "queries are effects");
    }

    #[test]
    fn purity_fixpoint_handles_recursion() {
        let p = parse_program(
            r#"
            fn even(n) { if (n == 0) { return true; } return odd(n - 1); }
            fn odd(n) { if (n == 0) { return false; } return even(n - 1); }
            "#,
        )
        .unwrap();
        let a = analyze(&p, None);
        assert!(a.is_pure_fn("even") && a.is_pure_fn("odd"));
    }

    /// Whether coalescing may take the first statement of the then-arm
    /// of the `if` at `f`'s statement `at`; the `if` itself never is.
    fn arm_deferrable(src: &str, at: usize) -> bool {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, None);
        let s @ Stmt::If(_, then, _) = &p.function("f").unwrap().body[at] else {
            panic!("no if at {at}: {src}");
        };
        assert!(!stmt_deferrable(s, &a), "an if is never deferrable: {src}");
        stmt_deferrable(&then[0], &a)
    }

    #[test]
    fn deferrable_branch_paper_example() {
        // if (c) a = b; else a = d;  — §4.2's own example: its arms'
        // statements may be coalesced.
        assert!(arm_deferrable(
            "fn f(c, b, d) { let a = 0; if (c) { a = b; } else { a = d; } return a; }",
            1,
        ));
    }

    #[test]
    fn branch_with_query_not_deferrable() {
        assert!(!arm_deferrable(
            r#"fn f(c) { let a = 0; if (c) { a = query("SELECT 1 FROM t"); } return a; }"#,
            1,
        ));
    }

    #[test]
    fn branch_with_heap_write_not_deferrable() {
        assert!(!arm_deferrable("fn f(c, m) { if (c) { m.x = 1; } }", 0));
    }

    #[test]
    fn branch_with_pure_call_deferrable() {
        // The paper's filter example: a pure call inside the branch.
        assert!(arm_deferrable(
            "fn flt(v) { return v; } fn f(c, v) { let a = 0; if (c) { a = flt(v); } return a; }",
            1,
        ));
    }

    #[test]
    fn a_loop_is_never_deferrable() {
        let p = parse_program("fn f(n) { let i = 0; while (i < n) { i = i + 1; } }").unwrap();
        let a = analyze(&p, None);
        let body = &p.function("f").unwrap().body;
        let Stmt::While(_, inner) = &body[1] else {
            panic!("{body:?}");
        };
        assert!(!stmt_deferrable(&body[1], &a));
        assert!(stmt_deferrable(&inner[0], &a));
    }

    /// The write footprint the summary gives `main`'s body.
    fn main_writes(src: &str) -> Footprint {
        let p = crate::simplify::simplify_program(&parse_program(src).unwrap());
        let a = analyze(&p, None);
        a.effects(None).of(&p.function("main").unwrap().body).writes
    }

    #[test]
    fn literal_prefix_write_names_its_table() {
        let w = main_writes(
            r#"fn main(x) { if (x > 0) { exec("UPDATE audit SET n = " + str(x) + " WHERE id = 1"); } }"#,
        );
        assert!(!w.barrier);
        assert_eq!(w.writes.len(), 1);
        assert_eq!(w.writes[0].table, "audit");
        assert!(w.writes[0].keys.is_empty(), "a prefix pins no key");
    }

    #[test]
    fn fully_literal_write_pins_its_key() {
        let w = main_writes(r#"fn main() { exec("UPDATE audit SET n = 1 WHERE id = 7"); }"#);
        assert!(!w.barrier);
        assert_eq!(w.writes[0].table, "audit");
        assert_eq!(
            w.writes[0].keys,
            vec![("id".to_string(), vec![sloth_sql::Value::Int(7)])]
        );
    }

    #[test]
    fn a_loop_carried_statement_is_a_barrier_or_names_every_table() {
        // The second iteration's `exec(s)` runs the text the first one
        // assigned: what `s` held before the loop is not all it holds.
        let w = main_writes(
            r#"fn main(x) {
                let s = "UPDATE a SET n = 1 WHERE id = 1";
                while (x > 0) {
                    exec(s);
                    s = "UPDATE b SET n = 2 WHERE id = 2";
                    x = x - 1;
                }
            }"#,
        );
        assert!(
            w.barrier || w.writes.iter().any(|t| t.table == "b"),
            "{w:?}"
        );
    }

    #[test]
    fn a_comment_in_a_write_names_no_table() {
        for src in [
            r#"fn main() { exec("UPDATE /* audit */ t SET n = 1 WHERE id = 7"); }"#,
            r#"fn main(x) { exec("UPDATE /* audit */ t SET n = " + str(x) + " WHERE id = 7"); }"#,
        ] {
            let w = main_writes(src);
            assert!(!w.barrier, "{src}");
            let tables: Vec<_> = w.writes.iter().map(|t| t.table.as_str()).collect();
            assert_eq!(tables, ["t"], "{src}");
        }
    }

    #[test]
    fn dynamic_sql_and_transaction_boundaries_are_write_barriers() {
        for src in [
            r#"fn main(q) { exec(q); }"#,
            r#"fn main() { commit(); }"#,
            r#"fn main(x) { if (x) { begin(); } }"#,
        ] {
            assert!(main_writes(src).barrier, "{src}");
        }
    }

    #[test]
    fn a_read_adds_no_write() {
        let w = main_writes(
            r#"fn main(x) { let r = query("SELECT v FROM t WHERE id = " + str(x)); print(r); }"#,
        );
        assert!(!w.has_writes(), "{w:?}");
    }

    #[test]
    fn a_query_whose_text_is_a_write_adds_it() {
        for src in [
            r#"fn main() { query("UPDATE audit SET n = 1 WHERE id = 7"); }"#,
            r#"fn main(x) { query("DELETE FROM audit WHERE id = " + str(x)); }"#,
        ] {
            let w = main_writes(src);
            assert!(!w.barrier, "{src}");
            assert_eq!(w.writes.len(), 1, "{src}");
            assert_eq!(w.writes[0].table, "audit", "{src}");
        }
    }

    #[test]
    fn a_query_whose_text_may_be_a_write_is_a_barrier() {
        for src in [
            r#"fn main(q) { query(q); }"#,
            r#"fn main(x) { query("UPDATE " + str(x) + " SET n = 1"); }"#,
            r#"fn main(x) { query("COMMIT"); }"#,
            r#"fn main(x) { query("SELECT" + str(x)); }"#,
        ] {
            assert!(main_writes(src).barrier, "{src}");
        }
        for src in [
            r#"fn main() { query("SELECT n FROM audit WHERE id = 7"); }"#,
            r#"fn main(x) { query("SELECT n FROM audit WHERE id =" + str(x)); }"#,
        ] {
            assert!(!main_writes(src).has_writes(), "{src}");
        }
    }

    #[test]
    fn branch_with_return_not_deferrable() {
        assert!(!arm_deferrable(
            "fn f(c) { if (c) { return 1; } return 2; }",
            0
        ));
    }
}
