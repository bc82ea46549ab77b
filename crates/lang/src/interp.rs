//! The two evaluators of §3.8:
//!
//! * **standard semantics** — ordinary strict execution; every query is an
//!   immediate round trip (the original application), and Hibernate-style
//!   fetch strategies apply (eager prefetch at `orm_find`, collection
//!   proxies for lazy one-to-many associations).
//! * **extended lazy semantics** — the Sloth-compiled application: pure
//!   computation is delayed as thunks, heap operations and control flow
//!   force their targets, and query calls **register** with the query store
//!   at thunk-creation time so batches accumulate (§3.3–3.6).
//!
//! One interpreter implements both; a per-frame mode switch implements
//! selective compilation (§4.1). [`crate::opt`] pre-wraps deferrable
//! regions in [`crate::ast::Stmt::DeferBlock`], which the lazy evaluator
//! turns into a single block thunk (§4.2–4.3).
//!
//! The interpreter walks the slot-resolved form of the `resolve` pass and
//! nothing else: a variable is an index into a `Vec`-backed frame, a
//! callee is a builtin or a function index, and thunks name functions and
//! deferred blocks by index.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use sloth_core::{Demand, QueryId};
use sloth_net::{NetStats, SimEnv};
use sloth_orm::sqlgen::{self, KeyedRead};
use sloth_orm::{AssocDef, AssocKind, EntityDef, FetchStrategy, Schema};
use sloth_sql::{Param, ResultSet, Stmt};

use crate::analysis::analyze;
use crate::ast::{BinOp, Lit, Program, UnOp};
use crate::builtins::{Builtin, HeapFn, PureFn, QueryFn, ReadFn, WriteFn};
use crate::opt::OptFlags;
use crate::resolve::{resolve, Callee, GuardedRead, RExpr, RStmt, Resolved, Slot};
use crate::runtime::{row_to_entity, rs_to_entities, Counters, DataLayer, RunError, RunResult};
use crate::simplify::simplify_program;
use crate::value::{BlockDriver, Dep, DepKind, Deser, LazyState, LazyVal, Pending, V};

/// How to execute a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// The original application: standard semantics, stock driver.
    Original,
    /// The Sloth-compiled application with the given optimizations.
    Sloth(OptFlags),
}

/// A program prepared for execution (compiled once, runnable many times —
/// including from many threads at once: `Prepared` is `Send + Sync`, so
/// the throughput harness shares one compiled page across its workers).
/// It keeps the resolved form only; the named AST it was lowered from is
/// dropped by [`prepare_with_schema`].
pub struct Prepared {
    page: Resolved,
    strategy: ExecStrategy,
}

/// Runs the Sloth compilation pipeline. Both strategies execute the
/// simplified (§3.1) program — the paper's baseline is the same source
/// compiled by the stock compiler, so op-count differences must come from
/// lazy evaluation itself, not from the three-address lowering.
pub fn prepare(program: &Program, strategy: ExecStrategy) -> Prepared {
    prepare_with_schema(program, strategy, None)
}

/// [`prepare`] with ORM schema metadata available at compile time:
/// branch deferral across writes can then bound `orm_*` write calls by
/// their backing tables too (raw `exec`/`query` SQL is statically
/// traceable either way), and guard hoisting can move an `if` arm's ORM
/// reads above the `if`. Compile a page with the schema it runs on.
pub fn prepare_with_schema(
    program: &Program,
    strategy: ExecStrategy,
    schema: Option<&Schema>,
) -> Prepared {
    let simplified = simplify_program(program);
    let analysis = analyze(&simplified);
    let page = match strategy {
        ExecStrategy::Original => resolve(&simplified, &analysis),
        ExecStrategy::Sloth(flags) => resolve(
            &crate::opt::optimize_with_schema(&simplified, &analysis, flags, schema),
            &analysis,
        ),
    };
    Prepared { page, strategy }
}

impl Prepared {
    /// Runs `main(args…)` against the deployment.
    pub fn run(
        &self,
        env: &SimEnv,
        schema: Arc<Schema>,
        args: Vec<V>,
    ) -> Result<RunResult, RunError> {
        let data = match self.strategy {
            ExecStrategy::Original => DataLayer::immediate(env.clone(), schema),
            ExecStrategy::Sloth(_) => DataLayer::deferred(env.clone(), schema),
        };
        self.run_with(data, args)
    }

    /// Runs `main(args…)` over an explicit data layer — how the serving
    /// harness runs one page per session against a shared deployment
    /// (e.g. [`DataLayer::dispatched`] for a shared dispatcher).
    ///
    /// The data layer's mode must match the strategy: `Original` needs an
    /// immediate layer, `Sloth` a deferred one.
    pub fn run_with(&self, data: DataLayer, args: Vec<V>) -> Result<RunResult, RunError> {
        let env = data.env.clone();
        let before = env.stats();
        let (lazy, flags) = match self.strategy {
            ExecStrategy::Original => (false, OptFlags::all()),
            ExecStrategy::Sloth(flags) => (true, flags),
        };
        if lazy != data.store.is_some() {
            return Err(RunError::new(
                "data layer mode does not match execution strategy",
            ));
        }
        let mut interp = Interp {
            page: &self.page,
            data,
            flags,
            counters: Counters::default(),
            output: Vec::new(),
            out_buffer: Vec::new(),
            effect_blocks: Vec::new(),
            depth: 0,
            demand: Demand::Output,
        };
        let main = self
            .page
            .main
            .ok_or_else(|| RunError::new("unknown function main"))?;
        let returned_v = interp.call_function(main, args, lazy)?;
        // End of request: deferred *effectful* blocks (write-containing
        // branches kept lazy by BD-across-writes) run first — their
        // writes register now and may still share the output flush —
        // then the buffering writer flushes (forcing in order), then the
        // framework renders the returned value if any.
        interp.run_effect_blocks()?;
        interp.flush_buffer()?;
        let returned = match returned_v {
            V::Null => None,
            v => Some(interp.display_for(&v, Demand::Return)?),
        };
        // Any write still deferred ships now, in one write-only round
        // trip — dead reads stay dead (never-demanded queries never
        // execute), but writes always apply before the request ends.
        if let Some(store) = &interp.data.store {
            store.flush_deferred_writes().map_err(RunError::from)?;
        }
        env.charge_app(interp.counters.app_ns());
        let after = env.stats();
        let store_stats = interp.data.store.as_ref().map(|s| s.stats());
        Ok(RunResult {
            output: interp.output,
            returned,
            counters: interp.counters,
            net: NetStats {
                round_trips: after.round_trips.saturating_sub(before.round_trips),
                queries: after.queries.saturating_sub(before.queries),
                network_ns: after.network_ns.saturating_sub(before.network_ns),
                db_ns: after.db_ns.saturating_sub(before.db_ns),
                app_ns: after.app_ns.saturating_sub(before.app_ns),
                max_batch: after.max_batch,
                bytes: after.bytes.saturating_sub(before.bytes),
                fused_queries: after.fused_queries.saturating_sub(before.fused_queries),
                fused_groups: after.fused_groups.saturating_sub(before.fused_groups),
                snapshot_batches: after
                    .snapshot_batches
                    .saturating_sub(before.snapshot_batches),
            },
            store: store_stats,
        })
    }
}

/// Convenience: parse, prepare (with the schema the run uses) and run a
/// source string.
pub fn run_source(
    src: &str,
    env: &SimEnv,
    schema: Arc<Schema>,
    strategy: ExecStrategy,
    args: Vec<V>,
) -> Result<RunResult, RunError> {
    let program = crate::parser::parse_program(src)?;
    prepare_with_schema(&program, strategy, Some(&schema)).run(env, schema, args)
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(V),
}

/// The variables of one activation — a function call, or a deferred block
/// being driven: one value per slot of the function's resolved layout,
/// `None` until first assigned.
struct Frame {
    /// The function whose layout (and slot names) this frame follows.
    func: u32,
    vals: Vec<Option<V>>,
}

struct Interp<'p> {
    page: &'p Resolved,
    data: DataLayer,
    flags: OptFlags,
    counters: Counters,
    output: Vec<String>,
    out_buffer: Vec<V>,
    /// Thunk handles of deferred **effectful** blocks (write-containing
    /// branches deferred by BD-across-writes), in creation order. Forced
    /// at end of request if nothing demanded their outputs earlier — a
    /// deferred branch's writes must always execute.
    effect_blocks: Vec<V>,
    depth: usize,
    /// What the value being forced is for: set by each consumer
    /// ([`Interp::force_for`]) and inherited by the delayed computations
    /// forcing it runs; a batch a fetch ships is recorded with it.
    demand: Demand,
}

const MAX_DEPTH: usize = 200;
const MAX_LOOP_ITERS: u64 = 50_000_000;

impl<'p> Interp<'p> {
    fn op(&mut self, lazy: bool) {
        if lazy {
            self.counters.lazy_ops += 1;
        } else {
            self.counters.std_ops += 1;
        }
    }

    fn alloc_thunk(&mut self, p: Pending) -> V {
        self.counters.thunk_allocs += 1;
        V::Thunk(LazyVal::pending(p))
    }

    fn new_frame(&self, func: u32) -> Frame {
        Frame {
            func,
            vals: vec![None; self.page.fns[func as usize].slot_names.len()],
        }
    }

    fn unbound(&self, frame: &Frame, slot: Slot) -> RunError {
        let name = &self.page.fns[frame.func as usize].slot_names[slot as usize];
        RunError::new(format!("unbound variable {name}"))
    }

    // ------------------------------------------------------------------
    // Function calls
    // ------------------------------------------------------------------

    fn call_function(&mut self, func: u32, args: Vec<V>, lazy: bool) -> Result<V, RunError> {
        let f = &self.page.fns[func as usize];
        if f.params.len() != args.len() {
            return Err(RunError::new(format!(
                "{} expects {} args, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(RunError::new("recursion limit exceeded"));
        }
        // Selective compilation: under a Sloth run, non-persistent
        // functions execute with standard semantics (their args forced at
        // the boundary, like the paper's generated dummy methods).
        let run_lazy = lazy && (!self.flags.selective || f.persistent);
        let mut frame = self.new_frame(func);
        for (slot, arg) in f.params.iter().zip(args) {
            let arg = if lazy && !run_lazy {
                self.force_for(arg, Demand::EagerArg)?
            } else {
                arg
            };
            frame.vals[*slot as usize] = Some(arg);
        }
        let flow = self.exec_block(&f.body, &mut frame, run_lazy);
        self.depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(V::Null),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn exec_block(
        &mut self,
        stmts: &'p [RStmt],
        frame: &mut Frame,
        lazy: bool,
    ) -> Result<Flow, RunError> {
        for s in stmts {
            match self.exec_stmt(s, frame, lazy)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &'p RStmt, frame: &mut Frame, lazy: bool) -> Result<Flow, RunError> {
        self.op(lazy);
        match s {
            RStmt::Set(slot, e) => {
                let v = self.eval(e, frame, lazy)?;
                frame.vals[*slot as usize] = Some(v);
                Ok(Flow::Normal)
            }
            RStmt::SetField(base, field, e) => {
                // Heap writes are never deferred; the target is forced, the
                // stored value may stay a thunk (§3.5).
                let obj = self.eval(base, frame, lazy)?;
                let obj = self.force_for(obj, Demand::EagerArg)?;
                let v = self.eval(e, frame, lazy)?;
                match obj {
                    V::Obj(o) => {
                        o.borrow_mut().insert(field.to_string(), v);
                        Ok(Flow::Normal)
                    }
                    other => Err(RunError::new(format!(
                        "field write on non-object {other:?}"
                    ))),
                }
            }
            RStmt::SetIndex(base, idx, e) => {
                let list = self.eval(base, frame, lazy)?;
                let list = self.force_for(list, Demand::EagerArg)?;
                let i = self.eval(idx, frame, lazy)?;
                let i = self.force_for(i, Demand::EagerArg)?;
                let v = self.eval(e, frame, lazy)?;
                match (list, i) {
                    (V::List(xs), V::Int(i)) => {
                        let mut xs = xs.borrow_mut();
                        let idx = i as usize;
                        if idx >= xs.len() {
                            return Err(RunError::new(format!(
                                "index {i} out of bounds (len {})",
                                xs.len()
                            )));
                        }
                        xs[idx] = v;
                        Ok(Flow::Normal)
                    }
                    (l, i) => Err(RunError::new(format!(
                        "bad index write target {l:?}[{i:?}]"
                    ))),
                }
            }
            RStmt::If(cond, then, els) => {
                let c = self.eval(cond, frame, lazy)?;
                let c = self.force_for(c, Demand::Condition)?;
                if c.truthy() {
                    self.exec_block(then, frame, lazy)
                } else {
                    self.exec_block(els, frame, lazy)
                }
            }
            RStmt::While(cond, body) => {
                let mut iters = 0u64;
                loop {
                    iters += 1;
                    if iters > MAX_LOOP_ITERS {
                        return Err(RunError::new("loop iteration limit exceeded"));
                    }
                    let c = self.eval(cond, frame, lazy)?;
                    let c = self.force_for(c, Demand::Condition)?;
                    if !c.truthy() {
                        return Ok(Flow::Normal);
                    }
                    match self.exec_block(body, frame, lazy)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => return Ok(Flow::Normal),
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
            }
            RStmt::Break => Ok(Flow::Break),
            RStmt::Continue => Ok(Flow::Continue),
            RStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, frame, lazy)?,
                    None => V::Null,
                };
                Ok(Flow::Return(v))
            }
            RStmt::Expr(e) => {
                self.eval(e, frame, lazy)?;
                Ok(Flow::Normal)
            }
            RStmt::Defer(id) => {
                let block = &self.page.blocks[*id as usize];
                if !lazy {
                    // Standard semantics: transparent.
                    return self.exec_block(&block.body, frame, lazy);
                }
                // One thunk for the whole region (§4.2/4.3): capture the
                // referenced variables by value, produce projection thunks
                // for the outputs.
                let captured = block
                    .captures
                    .iter()
                    .filter_map(|&s| Some((s, frame.vals[s as usize].clone()?)))
                    .collect();
                let driver = Rc::new(BlockDriver {
                    block: *id,
                    captured,
                    results: RefCell::new(None),
                });
                self.counters.thunk_allocs += 1;
                for (i, out) in block.outputs.iter().enumerate() {
                    let proj = self.alloc_thunk(Pending::Block {
                        driver: Rc::clone(&driver),
                        output: Some(i),
                    });
                    frame.vals[*out as usize] = Some(proj);
                }
                if block.effectful {
                    // The block's writes must run even if no output is
                    // ever demanded: keep a handle for end-of-request.
                    let handle = self.alloc_thunk(Pending::Block {
                        driver: Rc::clone(&driver),
                        output: None,
                    });
                    self.effect_blocks.push(handle);
                }
                Ok(Flow::Normal)
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn eval(&mut self, e: &'p RExpr, frame: &Frame, lazy: bool) -> Result<V, RunError> {
        self.op(lazy);
        let v = match e {
            RExpr::Lit(l) => lit_to_v(l),
            RExpr::Slot(slot) => match &frame.vals[*slot as usize] {
                Some(v) => v.clone(),
                None => return Err(self.unbound(frame, *slot)),
            },
            RExpr::Field(base, field) => {
                // Field reads execute at evaluation time, forcing the
                // target; the field's stored value may be a thunk (§3.6).
                // The one read that waits is a column of a row nobody has
                // fetched yet: it may turn out to be a query's key, and
                // that query can then ride the batch its parent rides.
                let obj = self.eval(base, frame, lazy)?;
                match self.unfetched_column(&obj, field, lazy) {
                    Some(pending) => self.alloc_thunk(pending),
                    None => {
                        let obj = self.force_for(obj, Demand::EagerArg)?;
                        self.read_field(&obj, field)?
                    }
                }
            }
            RExpr::Index(base, idx) => {
                let b = self.eval(base, frame, lazy)?;
                let b = self.force_for(b, Demand::EagerArg)?;
                let i = self.eval(idx, frame, lazy)?;
                let i = self.force_for(i, Demand::EagerArg)?;
                self.read_index(&b, &i)?
            }
            RExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                // Short-circuit operators force their left side (control
                // dependence) and evaluate the right one only when the left
                // does not decide — under both semantics.
                let l = self.eval(a, frame, lazy)?;
                let l = self.force_for(l, Demand::Condition)?;
                if l.truthy() == matches!(op, BinOp::And) {
                    let r = self.eval(b, frame, lazy)?;
                    let r = self.force_for(r, Demand::Condition)?;
                    V::Bool(r.truthy())
                } else {
                    V::Bool(matches!(op, BinOp::Or))
                }
            }
            RExpr::Binary(op, a, b) if lazy => {
                let va = self.eval(a, frame, lazy)?;
                let vb = self.eval(b, frame, lazy)?;
                self.alloc_thunk(Pending::Binary(*op, va, vb))
            }
            RExpr::Binary(op, a, b) => {
                // Integer atoms — the template loops' operands after §3.1
                // flattening — are read where they lie; the two operations
                // counted are the ones evaluating them would have counted.
                if let (Some(x), Some(y)) = (int_atom(a, frame), int_atom(b, frame)) {
                    self.counters.std_ops += 2;
                    return int_binop(*op, x, y);
                }
                let va = self.eval(a, frame, lazy)?;
                let vb = self.eval(b, frame, lazy)?;
                // A call's result is not forced by `eval`.
                let va = self.force(va)?;
                let vb = self.force(vb)?;
                self.binop(*op, &va, &vb)?
            }
            RExpr::Unary(op, a) => {
                let va = self.eval(a, frame, lazy)?;
                if lazy {
                    self.alloc_thunk(Pending::Unary(*op, va))
                } else {
                    let va = self.force(va)?;
                    unop(*op, &va)?
                }
            }
            RExpr::Call(callee, args) => return self.eval_call(callee, args, frame, lazy),
            RExpr::NewObject(fields) => {
                // Allocation is a heap operation: eager in both modes.
                let mut map = BTreeMap::new();
                for (f, e) in fields {
                    map.insert(f.to_string(), self.eval(e, frame, lazy)?);
                }
                V::Obj(Rc::new(RefCell::new(map)))
            }
            RExpr::NewList(items) => {
                let mut xs = Vec::with_capacity(items.len());
                for e in items {
                    xs.push(self.eval(e, frame, lazy)?);
                }
                V::list(xs)
            }
            // Both out of line: inline, their code slows every other arm
            // of this match (by about 8 % of the `cpu_pages` workload's
            // pages a second, on a 2-core x86-64 machine).
            RExpr::GuardedRead(read) => self.guarded_read(read, frame)?,
            RExpr::GuardedQuery { read, text } => self.guarded_query(*read, text, frame, lazy)?,
        };
        if lazy {
            Ok(v)
        } else {
            self.force(v)
        }
    }

    fn eval_call(
        &mut self,
        callee: &'p Callee,
        args: &'p [RExpr],
        frame: &Frame,
        lazy: bool,
    ) -> Result<V, RunError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, frame, lazy)?);
        }
        match callee {
            Callee::Builtin(Builtin::Pure(func)) => {
                if lazy {
                    Ok(self.alloc_thunk(Pending::Builtin {
                        func: *func,
                        args: vals,
                    }))
                } else {
                    self.pure_builtin(*func, vals)
                }
            }
            Callee::Builtin(Builtin::EagerRead(func)) => {
                // A read of a raw result set nobody has fetched waits for
                // its demand: nothing can write the rows it reads.
                let delays = matches!(
                    func,
                    ReadFn::Len | ReadFn::Cell | ReadFn::At | ReadFn::First
                );
                if lazy && delays && vals.first().is_some_and(unfetched_rows) {
                    Ok(self.alloc_thunk(Pending::ResultRead {
                        func: *func,
                        args: vals,
                    }))
                } else {
                    self.eager_read_builtin(*func, vals)
                }
            }
            Callee::Builtin(Builtin::HeapWrite(func)) => self.heap_write_builtin(*func, vals),
            Callee::Builtin(Builtin::External) => self.external_builtin(vals),
            Callee::Builtin(Builtin::Query(func)) => self.query_builtin(*func, vals, lazy),
            Callee::Builtin(Builtin::WriteQuery(func)) => self.write_query_builtin(*func, vals),
            Callee::User(func) => {
                if lazy && self.page.fns[*func as usize].pure {
                    // Internal pure call: defer the whole call (§3.4).
                    Ok(self.alloc_thunk(Pending::Call {
                        func: *func,
                        args: vals,
                    }))
                } else {
                    self.call_function(*func, vals, lazy)
                }
            }
            Callee::Unknown(name) => Err(RunError::new(format!("unknown function {name}"))),
        }
    }

    // ------------------------------------------------------------------
    // Forcing
    // ------------------------------------------------------------------

    /// The value `v` stands for: `v` itself unless it is a thunk. Forcing
    /// here is for whatever the current consumer wants it for: operands of
    /// delayed and strict computations.
    #[inline]
    fn force(&mut self, v: V) -> Result<V, RunError> {
        match v {
            V::Thunk(_) => self.force_thunk(v),
            v => Ok(v),
        }
    }

    /// [`Interp::force`] by a consumer, which names what it needs the value
    /// for. The innermost consumer names a flush: a `len` inside a deferred
    /// call that a condition forces is an eager argument.
    #[inline]
    fn force_for(&mut self, v: V, why: Demand) -> Result<V, RunError> {
        match v {
            V::Thunk(_) => {
                let outer = std::mem::replace(&mut self.demand, why);
                let r = self.force_thunk(v);
                self.demand = outer;
                r
            }
            v => Ok(v),
        }
    }

    fn force_thunk(&mut self, v: V) -> Result<V, RunError> {
        let mut cur = v;
        loop {
            let V::Thunk(cell) = cur else { return Ok(cur) };
            let state = std::mem::replace(&mut *cell.0.borrow_mut(), LazyState::InFlight);
            match state {
                LazyState::Done(v) => {
                    *cell.0.borrow_mut() = LazyState::Done(v.clone());
                    cur = v;
                }
                LazyState::InFlight => {
                    return Err(RunError::new("cyclic thunk dependency"));
                }
                LazyState::Pending(p) => {
                    self.counters.forces += 1;
                    let v = self.eval_pending(p)?;
                    let v = self.force(v)?;
                    *cell.0.borrow_mut() = LazyState::Done(v.clone());
                    cur = v;
                }
            }
        }
    }

    fn eval_pending(&mut self, p: Pending) -> Result<V, RunError> {
        match p {
            // Forcing means computing *now*, strictly, operands left to
            // right. A delayed operator counts what strictly evaluating it
            // over two (one) variables counts: itself and its operands.
            Pending::Binary(op, a, b) => {
                self.counters.std_ops += 3;
                let a = self.force(a)?;
                let b = self.force(b)?;
                self.binop(op, &a, &b)
            }
            Pending::Unary(op, a) => {
                self.counters.std_ops += 2;
                let a = self.force(a)?;
                unop(op, &a)
            }
            Pending::Query {
                id,
                deser,
                dep,
                assocs,
            } => {
                let rs = self.data.fetch(id, self.demand)?;
                if let (true, Some(dep)) = (rs.is_no_parent_row(), &dep) {
                    return Err(self.missing_parent(dep));
                }
                let v = deserialize(&deser, rs);
                if let V::Obj(o) = &v {
                    o.borrow_mut().extend(assocs);
                }
                Ok(v)
            }
            Pending::QueryField { id, column, up } => {
                let rs = self.data.fetch(id, self.demand)?;
                match rs.rows.first() {
                    Some(row) => Ok(rs
                        .column_index(&column)
                        .map_or(V::Null, |c| V::from_sql(&row[c]))),
                    None => Err(match &up {
                        Some(up) if rs.is_no_parent_row() => self.missing_parent(up),
                        _ => null_field_read(&column),
                    }),
                }
            }
            Pending::ResultRead { func, mut args } => {
                // The query ships for whoever demanded the read, not as an
                // eager argument; the read itself is the eager code.
                args[0] = self.force(std::mem::replace(&mut args[0], V::Null))?;
                self.eager_read_builtin(func, args)
            }
            Pending::Call { func, args } => self.call_function(func, args, true),
            Pending::Builtin { func, args } => self.pure_builtin(func, args),
            Pending::Failed(e) => Err(e),
            Pending::Block { driver, output } => {
                if driver.results.borrow().is_none() {
                    // Forcing the block runs its statements *now*, strictly
                    // — that is the saving of §4.3: one thunk for the whole
                    // region instead of one per statement.
                    let block = &self.page.blocks[driver.block as usize];
                    let mut frame = self.new_frame(block.func);
                    for (slot, v) in &driver.captured {
                        frame.vals[*slot as usize] = Some(v.clone());
                    }
                    self.exec_block(&block.body, &mut frame, false)?;
                    let outs = block
                        .outputs
                        .iter()
                        .map(|&o| frame.vals[o as usize].clone().unwrap_or(V::Null))
                        .collect();
                    *driver.results.borrow_mut() = Some(outs);
                }
                let results = driver.results.borrow();
                Ok(match (output, &*results) {
                    (Some(i), Some(outs)) => outs[i].clone(),
                    _ => V::Null,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Heap reads
    // ------------------------------------------------------------------

    fn read_field(&mut self, obj: &V, field: &str) -> Result<V, RunError> {
        match obj {
            V::Obj(o) => {
                if o.borrow().contains_key("__proxy_sql") && !field.starts_with("__") {
                    // Reading through a collection proxy materializes it.
                    let items = self.materialize_proxy(o)?;
                    return self.read_field(&items, field);
                }
                Ok(o.borrow().get(field).cloned().unwrap_or(V::Null))
            }
            V::Null => Err(null_field_read(field)),
            other => Err(RunError::new(format!("field {field} read on {other:?}"))),
        }
    }

    fn read_index(&mut self, base: &V, idx: &V) -> Result<V, RunError> {
        match (base, idx) {
            (V::List(xs), V::Int(i)) => xs
                .borrow()
                .get(*i as usize)
                .cloned()
                .ok_or_else(|| RunError::new(format!("index {i} out of bounds"))),
            (V::Rs(rs), V::Int(i)) => {
                let i = *i as usize;
                if i >= rs.len() {
                    return Err(RunError::new(format!("row {i} out of bounds")));
                }
                Ok(row_to_plain_obj(rs, i))
            }
            (V::Obj(o), V::Int(_)) if o.borrow().contains_key("__proxy_sql") => {
                let items = self.materialize_proxy(o)?;
                self.read_index(&items, idx)
            }
            (b, i) => Err(RunError::new(format!("bad index read {b:?}[{i:?}]"))),
        }
    }

    // ------------------------------------------------------------------
    // Scalar operators
    // ------------------------------------------------------------------

    /// Applies `op` to two forced values.
    fn binop(&mut self, op: BinOp, a: &V, b: &V) -> Result<V, RunError> {
        use BinOp::*;
        if let (V::Int(x), V::Int(y)) = (a, b) {
            return int_binop(op, *x, *y);
        }
        Ok(match op {
            Add => match (a, b) {
                (V::Str(_), _) | (_, V::Str(_)) => {
                    let sa = self.display(a)?;
                    let sb = self.display(b)?;
                    V::str(format!("{sa}{sb}"))
                }
                _ => V::Float(num(a)? + num(b)?),
            },
            Sub => V::Float(num(a)? - num(b)?),
            Mul => V::Float(num(a)? * num(b)?),
            Div => {
                let d = num(b)?;
                if d == 0.0 {
                    return Err(RunError::new("division by zero"));
                }
                V::Float(num(a)? / d)
            }
            Mod => return Err(RunError::new("modulo needs integers")),
            Eq => V::Bool(values_eq(a, b)),
            Ne => V::Bool(!values_eq(a, b)),
            Lt => V::Bool(compare(a, b)?.is_lt()),
            Le => V::Bool(compare(a, b)?.is_le()),
            Gt => V::Bool(compare(a, b)?.is_gt()),
            Ge => V::Bool(compare(a, b)?.is_ge()),
            And => V::Bool(a.truthy() && b.truthy()),
            Or => V::Bool(a.truthy() || b.truthy()),
        })
    }

    // ------------------------------------------------------------------
    // Builtins
    // ------------------------------------------------------------------

    fn pure_builtin(&mut self, func: PureFn, args: Vec<V>) -> Result<V, RunError> {
        let mut forced = Vec::with_capacity(args.len());
        for a in args {
            forced.push(self.force(a)?);
        }
        let arg = |i: usize| -> &V { forced.get(i).unwrap_or(&V::Null) };
        Ok(match func {
            PureFn::Str => V::str(self.display(arg(0))?),
            PureFn::Upper => V::str(self.display(arg(0))?.to_uppercase()),
            PureFn::Lower => V::str(self.display(arg(0))?.to_lowercase()),
            PureFn::Concat => {
                let mut s = String::new();
                for a in &forced {
                    s.push_str(&self.display(a)?);
                }
                V::str(s)
            }
            PureFn::Contains => {
                let h = self.display(arg(0))?;
                let n = self.display(arg(1))?;
                V::Bool(h.contains(&n))
            }
            PureFn::StartsWith => {
                let h = self.display(arg(0))?;
                let n = self.display(arg(1))?;
                V::Bool(h.starts_with(&n))
            }
            PureFn::Substr => {
                let s = self.display(arg(0))?;
                let start = int(arg(1))? as usize;
                let len = int(arg(2))? as usize;
                V::str(s.chars().skip(start).take(len).collect::<String>())
            }
            PureFn::LenStr => V::Int(self.display(arg(0))?.chars().count() as i64),
            PureFn::Abs => match arg(0) {
                V::Int(i) => V::Int(i.wrapping_abs()),
                V::Float(f) => V::Float(f.abs()),
                other => return Err(RunError::new(format!("abs of {other:?}"))),
            },
            PureFn::Min => {
                if compare(arg(0), arg(1))?.is_le() {
                    arg(0).clone()
                } else {
                    arg(1).clone()
                }
            }
            PureFn::Max => {
                if compare(arg(0), arg(1))?.is_ge() {
                    arg(0).clone()
                } else {
                    arg(1).clone()
                }
            }
            PureFn::IsNull => V::Bool(matches!(arg(0), V::Null)),
            PureFn::NotNull => V::Bool(!matches!(arg(0), V::Null)),
            PureFn::ToInt => match arg(0) {
                V::Int(i) => V::Int(*i),
                V::Float(f) => V::Int(*f as i64),
                V::Str(s) => V::Int(
                    s.parse::<i64>()
                        .map_err(|_| RunError::new(format!("to_int on {s:?}")))?,
                ),
                V::Bool(b) => V::Int(*b as i64),
                other => return Err(RunError::new(format!("to_int on {other:?}"))),
            },
        })
    }

    fn eager_read_builtin(&mut self, func: ReadFn, mut args: Vec<V>) -> Result<V, RunError> {
        let recv = self.force_for(args.remove(0), Demand::EagerArg)?;
        match func {
            ReadFn::Len => match &recv {
                V::List(xs) => Ok(V::Int(xs.borrow().len() as i64)),
                V::Rs(rs) => Ok(V::Int(rs.len() as i64)),
                V::Obj(o) if o.borrow().contains_key("__proxy_sql") => {
                    let items = self.materialize_proxy(o)?;
                    self.eager_read_builtin(ReadFn::Len, vec![items])
                }
                V::Null => Ok(V::Int(0)),
                other => Err(RunError::new(format!("len of {other:?}"))),
            },
            ReadFn::At => {
                let i = self.force_for(args.remove(0), Demand::EagerArg)?;
                self.read_index(&recv, &i)
            }
            ReadFn::First => match &recv {
                V::List(xs) => Ok(xs.borrow().first().cloned().unwrap_or(V::Null)),
                V::Rs(rs) => {
                    if rs.is_empty() {
                        Ok(V::Null)
                    } else {
                        Ok(row_to_plain_obj(rs, 0))
                    }
                }
                V::Obj(o) if o.borrow().contains_key("__proxy_sql") => {
                    let items = self.materialize_proxy(o)?;
                    self.eager_read_builtin(ReadFn::First, vec![items])
                }
                V::Null => Ok(V::Null),
                other => Err(RunError::new(format!("first of {other:?}"))),
            },
            ReadFn::Cell => {
                let i = self.force_for(args.remove(0), Demand::EagerArg)?;
                let col = self.force_for(args.remove(0), Demand::EagerArg)?;
                match (&recv, &i, &col) {
                    (V::Rs(rs), V::Int(i), V::Str(c)) => rs
                        .get(*i as usize, c)
                        .map(V::from_sql)
                        .ok_or_else(|| RunError::new(format!("no cell [{i}].{c}"))),
                    _ => Err(RunError::new("cell(rs, row, col) expected")),
                }
            }
            ReadFn::ObjGet => {
                let field = self.force_for(args.remove(0), Demand::EagerArg)?;
                let field = self.display(&field)?;
                self.read_field(&recv, &field)
            }
            ReadFn::HasField => {
                let field = self.force_for(args.remove(0), Demand::EagerArg)?;
                let field = self.display(&field)?;
                match recv {
                    V::Obj(o) => Ok(V::Bool(o.borrow().contains_key(&field))),
                    _ => Ok(V::Bool(false)),
                }
            }
        }
    }

    fn heap_write_builtin(&mut self, func: HeapFn, mut args: Vec<V>) -> Result<V, RunError> {
        let recv = self.force_for(args.remove(0), Demand::EagerArg)?;
        match func {
            HeapFn::Push => match recv {
                V::List(xs) => {
                    xs.borrow_mut().push(args.remove(0));
                    Ok(V::Null)
                }
                other => Err(RunError::new(format!("push to {other:?}"))),
            },
            HeapFn::ObjPut => {
                let field = self.force_for(args.remove(0), Demand::EagerArg)?;
                let field = self.display(&field)?;
                match recv {
                    V::Obj(o) => {
                        o.borrow_mut().insert(field, args.remove(0));
                        Ok(V::Null)
                    }
                    other => Err(RunError::new(format!("obj_put on {other:?}"))),
                }
            }
            HeapFn::Clear => match recv {
                V::List(xs) => {
                    xs.borrow_mut().clear();
                    Ok(V::Null)
                }
                other => Err(RunError::new(format!("clear of {other:?}"))),
            },
        }
    }

    /// `print` / `write` / `render` / `log`.
    fn external_builtin(&mut self, args: Vec<V>) -> Result<V, RunError> {
        let v = args.into_iter().next().unwrap_or(V::Null);
        // The buffering writer is request-global (§5): output from
        // standard-compiled helper methods must interleave with
        // lazily-produced output in program order.
        let sloth_run = self.data.store.is_some();
        if sloth_run && self.flags.buffered_writer {
            // §5 JSP extension: thunks are written to the buffer and
            // forced only when the page flushes.
            self.out_buffer.push(v);
        } else {
            let s = self.display_for(&v, Demand::Output)?;
            self.output.push(s);
        }
        Ok(V::Null)
    }

    /// Forces every pending effectful block, in creation order. Forcing
    /// is memoized, so blocks whose outputs were already demanded are
    /// no-ops here.
    fn run_effect_blocks(&mut self) -> Result<(), RunError> {
        while !self.effect_blocks.is_empty() {
            let blocks = std::mem::take(&mut self.effect_blocks);
            for v in blocks {
                self.force_for(v, Demand::Output)?;
            }
        }
        Ok(())
    }

    fn flush_buffer(&mut self) -> Result<(), RunError> {
        let buffered = std::mem::take(&mut self.out_buffer);
        for v in buffered {
            let s = self.display_for(&v, Demand::Output)?;
            self.output.push(s);
        }
        Ok(())
    }

    fn query_builtin(
        &mut self,
        func: QueryFn,
        mut args: Vec<V>,
        lazy: bool,
    ) -> Result<V, RunError> {
        // The schema is borrowed through a handle of its own, so entity
        // and association definitions are read in place while `self`
        // forces and registers.
        let schema = Arc::clone(&self.data.schema);
        match func {
            QueryFn::Query => {
                let sql = self.force_for(args.remove(0), Demand::QueryParam)?;
                let sql = self.display(&sql)?;
                self.read(&sql, Deser::Raw, lazy)
            }
            QueryFn::OrmFind => {
                let entity = self.string_arg(args.remove(0))?;
                let id = args.remove(0);
                let def = entity_def(&schema, &entity)?;
                let read = KeyedRead::by_pk(def);
                if lazy {
                    self.keyed_read(&read, id, Deser::EntityOpt(entity), lazy)
                } else {
                    let id = self.force_for(id, Demand::QueryParam)?;
                    let rs = self.data.read_now(&read.sql(&id.to_sql()))?;
                    if rs.is_empty() {
                        return Ok(V::Null);
                    }
                    let e = row_to_entity(&entity, &rs, 0);
                    self.std_prefetch_eager(def, &e)?;
                    Ok(e)
                }
            }
            QueryFn::OrmAssoc => {
                let mut owner = args.remove(0);
                // An owner nobody has fetched yet stays unfetched: the
                // association is keyed by a column of its row.
                let unfetched = lazy.then(|| unfetched_entity(&owner)).flatten();
                if unfetched.is_none() {
                    owner = self.force_for(owner, Demand::QueryParam)?;
                }
                let assoc = self.string_arg(args.remove(0))?;
                if let Some((id, entity, up)) = unfetched {
                    if let Some(v) =
                        self.assoc_of_unfetched(&schema, &owner, id, &entity, up, &assoc)?
                    {
                        return Ok(v);
                    }
                    owner = self.force_for(owner, Demand::QueryParam)?;
                }
                self.orm_assoc(&schema, owner, &assoc, lazy)
            }
            QueryFn::OrmFindWhere => {
                let entity = self.string_arg(args.remove(0))?;
                let col = self.string_arg(args.remove(0))?;
                let v = args.remove(0);
                let def = entity_def(&schema, &entity)?;
                let read = KeyedRead::where_eq(def, &col);
                self.keyed_read(&read, v, Deser::EntityList(entity), lazy)
            }
            QueryFn::OrmFindAll => {
                let entity = self.string_arg(args.remove(0))?;
                let def = entity_def(&schema, &entity)?;
                let sql = sqlgen::select_all(def);
                self.read(&sql, Deser::EntityList(entity), lazy)
            }
            QueryFn::OrmCountWhere => {
                let entity = self.string_arg(args.remove(0))?;
                let col = self.string_arg(args.remove(0))?;
                let v = args.remove(0);
                let def = entity_def(&schema, &entity)?;
                let read = KeyedRead::count_where_eq(def, &col);
                self.keyed_read(&read, v, Deser::Scalar, lazy)
            }
        }
    }

    fn write_query_builtin(&mut self, func: WriteFn, mut args: Vec<V>) -> Result<V, RunError> {
        let schema = Arc::clone(&self.data.schema);
        let sql = match func {
            WriteFn::Exec => {
                let s = self.force_for(args.remove(0), Demand::QueryParam)?;
                self.display(&s)?
            }
            WriteFn::Commit => "COMMIT".to_string(),
            WriteFn::Begin => "BEGIN".to_string(),
            WriteFn::Rollback => "ROLLBACK".to_string(),
            WriteFn::OrmSave => {
                let entity = self.string_arg(args.remove(0))?;
                let vals = self.force_for(args.remove(0), Demand::QueryParam)?;
                let def = entity_def(&schema, &entity)?;
                let V::List(xs) = vals else {
                    return Err(RunError::new("orm_save expects a list of values"));
                };
                let mut sql_vals = Vec::new();
                for v in xs.borrow().iter() {
                    let f = self.force_for(v.clone(), Demand::QueryParam)?;
                    sql_vals.push(f.to_sql());
                }
                sqlgen::insert_row(def, &sql_vals)
            }
            WriteFn::OrmUpdate => {
                let entity = self.string_arg(args.remove(0))?;
                let id = self.force_for(args.remove(0), Demand::QueryParam)?;
                let col = self.string_arg(args.remove(0))?;
                let v = self.force_for(args.remove(0), Demand::QueryParam)?;
                let def = entity_def(&schema, &entity)?;
                sqlgen::update_field(def, &id.to_sql(), &col, &v.to_sql())
            }
            WriteFn::OrmDelete => {
                let entity = self.string_arg(args.remove(0))?;
                let id = self.force_for(args.remove(0), Demand::QueryParam)?;
                let def = entity_def(&schema, &entity)?;
                sqlgen::delete_by_pk(def, &id.to_sql())
            }
        };
        // In Sloth mode a write registers with the store (§3.3): a
        // conflicting write (or barrier) drains the batch on the spot,
        // while a provably-silent write **defers** (§3.5–3.6, selective
        // laziness) — its empty result is not demanded, so consecutive
        // disjoint writes cost no round trips until something drains
        // them. In original mode writes execute directly.
        if self.data.store.is_some() {
            let reg = self.data.register_write(&sql)?;
            self.counters.queries_registered += 1;
            if !reg.deferred {
                self.data.fetch(reg.id, Demand::QueryParam)?;
            }
        } else {
            self.data.read_now(&sql)?;
        }
        Ok(V::Null)
    }

    /// One read: registered now and deserialized when forced under lazy
    /// semantics (§3.3), a round trip on the spot under standard ones.
    fn read(&mut self, sql: &str, deser: Deser, lazy: bool) -> Result<V, RunError> {
        if lazy {
            self.register_thunk(sql, deser)
        } else {
            Ok(deserialize(&deser, self.data.read_now(sql)?))
        }
    }

    fn register_thunk(&mut self, sql: &str, deser: Deser) -> Result<V, RunError> {
        let id = self.data.register(sql)?;
        Ok(self.query_thunk(id, deser, None))
    }

    fn query_thunk(&mut self, id: QueryId, deser: Deser, dep: Option<Rc<Dep>>) -> V {
        self.counters.queries_registered += 1;
        self.alloc_thunk(Pending::Query {
            id,
            deser,
            dep,
            assocs: Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // Dependent chains: a query keyed by a column of a row nobody has
    // fetched yet registers as a dependent of that row's query instead
    // of forcing it (§3.3 forces a query's parameters at registration,
    // which makes every link of `user → role → privileges` a batch of
    // one). Everything here falls back to that force whenever the store
    // says the parent is no longer waiting in the batch.
    // ------------------------------------------------------------------

    /// `obj.field` as a deferred column read, when `obj` is a single-row
    /// query nobody has fetched and `field` one of its entity's columns.
    fn unfetched_column(&self, obj: &V, field: &str, lazy: bool) -> Option<Pending> {
        if !lazy {
            return None;
        }
        let (id, entity, up) = unfetched_entity(obj)?;
        let def = self.data.schema.entity(&entity)?;
        let declared = def.columns.iter().any(|(name, _)| name == field);
        (declared && self.data.is_pending(id)).then(|| Pending::QueryField {
            id,
            column: field.into(),
            up,
        })
    }

    /// One keyed read. Under lazy semantics a key that is a deferred
    /// column read makes it a dependent of the row the column belongs to;
    /// otherwise the key is forced and the read is a literal statement
    /// like any other.
    fn keyed_read(
        &mut self,
        read: &KeyedRead,
        key: V,
        deser: Deser,
        lazy: bool,
    ) -> Result<V, RunError> {
        if let Some((parent, column, up)) = lazy.then(|| deferred_column(&key)).flatten() {
            if let Some(id) = self
                .data
                .register_dependent(parent, &column, |key| read.stmt(key))?
            {
                let how = DepKind::Field(column);
                let dep = Rc::new(Dep { parent, how, up });
                return Ok(self.query_thunk(id, deser, Some(dep)));
            }
        }
        let key = self.force_for(key, Demand::QueryParam)?;
        self.read(&read.sql(&key.to_sql()), deser, lazy)
    }

    /// `orm_assoc` on an owner nobody has fetched: answered from the memo
    /// the unfetched owner carries, or registered as a dependent of the
    /// owner's query and remembered there — or, when that query has
    /// shipped already and found no row, a value that fails on demand.
    /// `None` sends the caller down the forcing path — which also raises,
    /// in its own order, whatever is wrong with the entity or association
    /// name.
    fn assoc_of_unfetched(
        &mut self,
        schema: &Schema,
        owner: &V,
        id: QueryId,
        entity: &str,
        up: Option<Rc<Dep>>,
        assoc: &str,
    ) -> Result<Option<V>, RunError> {
        let V::Thunk(cell) = owner else {
            return Ok(None);
        };
        let memo_key = format!("__assoc_{assoc}");
        if let LazyState::Pending(Pending::Query { assocs, .. }) = &*cell.0.borrow() {
            if let Some((_, v)) = assocs.iter().find(|(k, _)| *k == memo_key) {
                return Ok(Some(v.clone()));
            }
        }
        let Some(def) = schema.entity(entity) else {
            return Ok(None);
        };
        let Some(a) = def.assoc(assoc) else {
            return Ok(None);
        };
        let Ok((read, target, many)) = self.data.assoc_read(entity, assoc) else {
            return Ok(None);
        };
        let column = match &a.kind {
            AssocKind::OneToMany { .. } => &def.pk,
            AssocKind::ManyToOne { fk_column } => fk_column,
        };
        let Some(qid) = self
            .data
            .register_dependent(id, column, |key| read.stmt(key))?
        else {
            // Its row shipped before the association could hang off it. A
            // row that turned out missing (or failed) fails where the
            // association is demanded, as the dependant would have:
            // whether the row's batch had shipped yet is no business of
            // the program's.
            return Ok(match self.force_for(owner.clone(), Demand::QueryParam) {
                Ok(V::Null) => Some(self.alloc_thunk(Pending::Failed(not_an_entity(&V::Null)))),
                Err(e) => Some(self.alloc_thunk(Pending::Failed(e))),
                Ok(_) => None,
            });
        };
        let dep = Rc::new(Dep {
            parent: id,
            how: DepKind::Assoc,
            up,
        });
        let v = self.query_thunk(qid, assoc_deser(target, many), Some(dep));
        if let LazyState::Pending(Pending::Query { assocs, .. }) = &mut *cell.0.borrow_mut() {
            assocs.push((memo_key, v.clone()));
        }
        Ok(Some(v))
    }

    /// A dependent query answered "no parent row": raises what the
    /// program would have hit had it forced the parent first — the
    /// parent's own failure if it has one, else the operation on `null`
    /// that produced the key.
    fn missing_parent(&mut self, dep: &Dep) -> RunError {
        match self.data.fetch(dep.parent, self.demand) {
            Err(e) => e,
            Ok(rs) if rs.is_no_parent_row() => match &dep.up {
                Some(up) => self.missing_parent(up),
                None => RunError::new("dependent query without a parent"),
            },
            Ok(_) => match &dep.how {
                DepKind::Field(column) => null_field_read(column),
                DepKind::Assoc => not_an_entity(&V::Null),
                DepKind::Cell { column, .. } => RunError::new(format!("no cell [0].{column}")),
            },
        }
    }

    /// A read guard hoisting registers above its `if (nrows(rows) > 0)`
    /// (see `hoist.rs`): `head + str(cell(rows, 0, column)) + tail`, as a
    /// dependant of `rows` while they wait in the batch — bound from their
    /// first row in the same trip — and `null` otherwise: the query in the
    /// arm then reads where it stands.
    #[inline(never)]
    fn guarded_read(&mut self, read: &GuardedRead, frame: &Frame) -> Result<V, RunError> {
        let Some(rows) = &frame.vals[read.parent as usize] else {
            return Err(self.unbound(frame, read.parent));
        };
        let Some(parent) = unfetched_query(rows) else {
            return Ok(V::Null);
        };
        let GuardedRead {
            column, head, tail, ..
        } = read;
        let build = |key: &Param| Stmt::with_param(head, key, tail);
        let Some(id) = self.data.register_dependent(parent, column, build)? else {
            return Ok(V::Null);
        };
        let how = DepKind::Cell {
            column: (**column).into(),
            head: (**head).into(),
            tail: (**tail).into(),
        };
        let dep = Rc::new(Dep {
            parent,
            how,
            up: None,
        });
        Ok(self.query_thunk(id, Deser::Raw, Some(dep)))
    }

    /// `query(text)` where guard hoisting left it: the rows of the guarded
    /// read in slot `read` if it ran exactly `text` and succeeded — the
    /// binder splices a SQL literal, which is the text `str` makes only of
    /// some values — and otherwise a read of `text` registered here, where
    /// the program issues it.
    #[inline(never)]
    fn guarded_query(
        &mut self,
        read: Slot,
        text: &'p RExpr,
        frame: &Frame,
        lazy: bool,
    ) -> Result<V, RunError> {
        let text = self.eval(text, frame, lazy)?;
        let Some(read) = frame.vals[read as usize].clone() else {
            return Err(self.unbound(frame, read));
        };
        let text = self.force_for(text, Demand::QueryParam)?;
        let sql = self.display(&text)?;
        match self.guarded_answer(&read, &sql) {
            Some(rows) => Ok(V::Rs(Rc::new(rows))),
            None => self.read(&sql, Deser::Raw, lazy),
        }
    }

    /// The rows the guarded read `read` answered, if it ran `sql`.
    fn guarded_answer(&mut self, read: &V, sql: &str) -> Option<ResultSet> {
        let V::Thunk(cell) = read else { return None };
        let (id, dep) = match &*cell.0.borrow() {
            LazyState::Pending(Pending::Query {
                id, dep: Some(dep), ..
            }) => (*id, Rc::clone(dep)),
            _ => return None,
        };
        let DepKind::Cell { column, head, tail } = &dep.how else {
            return None;
        };
        // Both were answered by the flush the guard forced.
        let rows = self.data.fetch(dep.parent, Demand::QueryParam).ok()?;
        let key = rows.get(0, column)?.sql_literal();
        (sql == format!("{head}{key}{tail}"))
            .then(|| self.data.fetch(id, Demand::QueryParam).ok())
            .flatten()
    }

    /// Original-mode eager prefetch at `orm_find` (§1: the "eager" strategy
    /// fetches associated collections whether used or not).
    fn std_prefetch_eager(&mut self, def: &EntityDef, e: &V) -> Result<(), RunError> {
        for a in &def.assocs {
            if a.strategy == FetchStrategy::Eager {
                let items = self.fetch_assoc_now(e, def, a)?;
                if let V::Obj(o) = e {
                    o.borrow_mut().insert(format!("__assoc_{}", a.name), items);
                }
            }
        }
        Ok(())
    }

    fn orm_assoc(
        &mut self,
        schema: &Schema,
        owner: V,
        assoc: &str,
        lazy: bool,
    ) -> Result<V, RunError> {
        let V::Obj(o) = &owner else {
            return Err(not_an_entity(&owner));
        };
        let entity = match o.borrow().get("__entity") {
            Some(V::Str(s)) => Rc::clone(s),
            _ => return Err(RunError::new("orm_assoc on non-entity object")),
        };
        let memo_key = format!("__assoc_{assoc}");
        if let Some(cached) = o.borrow().get(&memo_key).cloned() {
            return Ok(cached);
        }
        let def = entity_def(schema, &entity)?;
        let a = assoc_def(def, assoc)?;
        let key = self.assoc_key(&owner, def, a)?;
        let (read, target, many) = self.data.assoc_read(&entity, assoc)?;
        let sql = read.sql(&key.to_sql());
        let result = if !lazy && many && a.strategy == FetchStrategy::Lazy {
            // Hibernate collection proxy: no query until element access.
            let mut fields = BTreeMap::new();
            fields.insert("__proxy_sql".to_string(), V::str(&sql));
            fields.insert("__proxy_entity".to_string(), V::str(&target));
            V::Obj(Rc::new(RefCell::new(fields)))
        } else {
            // Sloth: register now (the owner is already materialized),
            // defer deserialization (§3.3).
            self.read(&sql, assoc_deser(target, many), lazy)?
        };
        o.borrow_mut().insert(memo_key, result.clone());
        Ok(result)
    }

    fn fetch_assoc_now(&mut self, owner: &V, def: &EntityDef, a: &AssocDef) -> Result<V, RunError> {
        let key = self.assoc_key(owner, def, a)?;
        let (read, target, many) = self.data.assoc_read(&def.name, &a.name)?;
        self.read(&read.sql(&key.to_sql()), assoc_deser(target, many), false)
    }

    /// The owner-side key an association is fetched by, forced.
    fn assoc_key(&mut self, owner: &V, def: &EntityDef, a: &AssocDef) -> Result<V, RunError> {
        let key = match &a.kind {
            AssocKind::OneToMany { .. } => self.read_field(owner, &def.pk)?,
            AssocKind::ManyToOne { fk_column } => self.read_field(owner, fk_column)?,
        };
        self.force_for(key, Demand::QueryParam)
    }

    fn materialize_proxy(&mut self, o: &Rc<RefCell<BTreeMap<String, V>>>) -> Result<V, RunError> {
        if let Some(items) = o.borrow().get("__proxy_items").cloned() {
            return Ok(items);
        }
        let (sql, target) = {
            let b = o.borrow();
            let sql = match b.get("__proxy_sql") {
                Some(V::Str(s)) => s.to_string(),
                _ => return Err(RunError::new("not a proxy")),
            };
            let target = match b.get("__proxy_entity") {
                Some(V::Str(s)) => s.to_string(),
                _ => return Err(RunError::new("proxy without target")),
            };
            (sql, target)
        };
        let rs = self.data.read_now(&sql)?;
        let items = rs_to_entities(&target, &rs);
        o.borrow_mut()
            .insert("__proxy_items".to_string(), items.clone());
        Ok(items)
    }

    fn string_arg(&mut self, v: V) -> Result<Rc<str>, RunError> {
        let v = self.force_for(v, Demand::QueryParam)?;
        match v {
            V::Str(s) => Ok(s),
            other => Err(RunError::new(format!("expected string, got {other:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // Display (deep forcing)
    // ------------------------------------------------------------------

    fn display(&mut self, v: &V) -> Result<String, RunError> {
        self.display_depth(v, 0)
    }

    /// [`Interp::display`] by a consumer (see [`Interp::force_for`]).
    fn display_for(&mut self, v: &V, why: Demand) -> Result<String, RunError> {
        let outer = std::mem::replace(&mut self.demand, why);
        let r = self.display_depth(v, 0);
        self.demand = outer;
        r
    }

    fn display_depth(&mut self, v: &V, depth: usize) -> Result<String, RunError> {
        if depth > 24 {
            return Ok("<deep>".to_string());
        }
        let v = self.force(v.clone())?;
        self.render(v, depth)
    }

    /// The text of a forced value, its parts forced as they are shown.
    fn render(&mut self, v: V, depth: usize) -> Result<String, RunError> {
        Ok(match v {
            V::Null => "null".to_string(),
            V::Bool(b) => b.to_string(),
            V::Int(i) => i.to_string(),
            V::Float(f) => format!("{f}"),
            V::Str(s) => s.to_string(),
            V::List(xs) => {
                let items = xs.borrow().clone();
                let mut parts = Vec::with_capacity(items.len());
                for item in items {
                    parts.push(self.display_depth(&item, depth + 1)?);
                }
                format!("[{}]", parts.join(", "))
            }
            V::Obj(o) => {
                if o.borrow().contains_key("__proxy_sql") {
                    let items = self.materialize_proxy(&o)?;
                    return self.display_depth(&items, depth + 1);
                }
                let fields: Vec<(String, V)> = o
                    .borrow()
                    .iter()
                    .filter(|(k, _)| !k.starts_with("__"))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                let mut parts = Vec::with_capacity(fields.len());
                for (k, fv) in fields {
                    parts.push(format!("{k}={}", self.display_depth(&fv, depth + 1)?));
                }
                format!("{{{}}}", parts.join(", "))
            }
            V::Rs(rs) => format_rs(&rs),
            V::Thunk(_) => return Err(RunError::new("render of an unforced value")),
        })
    }
}

/// A strict operand that is an integer where it lies: a literal, or a slot
/// holding one. `None` sends the caller down the general path.
fn int_atom(e: &RExpr, frame: &Frame) -> Option<i64> {
    match e {
        RExpr::Lit(Lit::Int(i)) => Some(*i),
        RExpr::Slot(slot) => match frame.vals[*slot as usize] {
            Some(V::Int(i)) => Some(i),
            _ => None,
        },
        _ => None,
    }
}

/// Applies `op` to two integers. Ordering goes through `f64` exactly as
/// [`compare`] orders any two numbers.
fn int_binop(op: BinOp, x: i64, y: i64) -> Result<V, RunError> {
    use BinOp::*;
    let ord = || (x as f64).total_cmp(&(y as f64));
    Ok(match op {
        Add => V::Int(x.wrapping_add(y)),
        Sub => V::Int(x.wrapping_sub(y)),
        Mul => V::Int(x.wrapping_mul(y)),
        Div if y == 0 => return Err(RunError::new("division by zero")),
        Div => V::Int(x.wrapping_div(y)),
        Mod if y == 0 => return Err(RunError::new("modulo by zero")),
        Mod => V::Int(x.wrapping_rem(y)),
        Eq => V::Bool(x == y),
        Ne => V::Bool(x != y),
        Lt => V::Bool(ord().is_lt()),
        Le => V::Bool(ord().is_le()),
        Gt => V::Bool(ord().is_gt()),
        Ge => V::Bool(ord().is_ge()),
        // `eval` short-circuits these before any operand pair gets here.
        And => V::Bool(x != 0 && y != 0),
        Or => V::Bool(x != 0 || y != 0),
    })
}

/// Applies `op` to a forced value.
fn unop(op: UnOp, a: &V) -> Result<V, RunError> {
    match (op, a) {
        (UnOp::Not, a) => Ok(V::Bool(!a.truthy())),
        (UnOp::Neg, V::Int(i)) => Ok(V::Int(i.wrapping_neg())),
        (UnOp::Neg, V::Float(f)) => Ok(V::Float(-f)),
        (UnOp::Neg, other) => Err(RunError::new(format!("cannot negate {other:?}"))),
    }
}

/// `v` as a deferred column read nobody has forced: the query whose row
/// it reads, the column, and that query's own dependence.
fn deferred_column(v: &V) -> Option<(QueryId, Rc<str>, Option<Rc<Dep>>)> {
    let V::Thunk(cell) = v else { return None };
    match &*cell.0.borrow() {
        LazyState::Pending(Pending::QueryField { id, column, up }) => {
            Some((*id, Rc::clone(column), up.clone()))
        }
        _ => None,
    }
}

/// Whether `v` is a raw `query` nobody has forced.
fn unfetched_rows(v: &V) -> bool {
    let V::Thunk(cell) = v else { return false };
    matches!(
        &*cell.0.borrow(),
        LazyState::Pending(Pending::Query {
            deser: Deser::Raw,
            ..
        })
    )
}

/// `v` as a raw `query` nobody has forced, keyed by no other row: its
/// query id.
fn unfetched_query(v: &V) -> Option<QueryId> {
    let V::Thunk(cell) = v else { return None };
    match &*cell.0.borrow() {
        LazyState::Pending(Pending::Query {
            id,
            deser: Deser::Raw,
            dep: None,
            ..
        }) => Some(*id),
        _ => None,
    }
}

/// `v` as a single-row query nobody has forced: its query id, entity and
/// own dependence.
fn unfetched_entity(v: &V) -> Option<(QueryId, Rc<str>, Option<Rc<Dep>>)> {
    let V::Thunk(cell) = v else { return None };
    match &*cell.0.borrow() {
        LazyState::Pending(Pending::Query {
            id,
            deser: Deser::EntityOpt(entity),
            dep,
            ..
        }) => Some((*id, Rc::clone(entity), dep.clone())),
        _ => None,
    }
}

fn null_field_read(field: &str) -> RunError {
    RunError::new(format!("field {field} read on null"))
}

fn not_an_entity(owner: &V) -> RunError {
    RunError::new(format!("orm_assoc on non-entity {owner:?}"))
}

fn entity_def<'s>(schema: &'s Schema, name: &str) -> Result<&'s EntityDef, RunError> {
    schema
        .entity(name)
        .ok_or_else(|| RunError::new(format!("unknown entity {name}")))
}

fn assoc_def<'s>(def: &'s EntityDef, assoc: &str) -> Result<&'s AssocDef, RunError> {
    def.assoc(assoc)
        .ok_or_else(|| RunError::new(format!("no assoc {assoc} on {}", def.name)))
}

/// How an association's rows deserialize: a list for a collection, one
/// entity or `null` otherwise.
fn assoc_deser(target: String, many: bool) -> Deser {
    if many {
        Deser::EntityList(target.into())
    } else {
        Deser::EntityOpt(target.into())
    }
}

fn lit_to_v(l: &Lit) -> V {
    match l {
        Lit::Null => V::Null,
        Lit::Bool(b) => V::Bool(*b),
        Lit::Int(i) => V::Int(*i),
        Lit::Float(f) => V::Float(*f),
        Lit::Str(s) => V::str(s),
    }
}

fn num(v: &V) -> Result<f64, RunError> {
    match v {
        V::Int(i) => Ok(*i as f64),
        V::Float(f) => Ok(*f),
        V::Bool(b) => Ok(*b as i64 as f64),
        other => Err(RunError::new(format!("expected number, got {other:?}"))),
    }
}

fn int(v: &V) -> Result<i64, RunError> {
    match v {
        V::Int(i) => Ok(*i),
        V::Float(f) => Ok(*f as i64),
        other => Err(RunError::new(format!("expected int, got {other:?}"))),
    }
}

fn values_eq(a: &V, b: &V) -> bool {
    match (a, b) {
        (V::Null, V::Null) => true,
        (V::Bool(x), V::Bool(y)) => x == y,
        (V::Int(x), V::Int(y)) => x == y,
        (V::Float(x), V::Float(y)) => x == y,
        (V::Int(x), V::Float(y)) | (V::Float(y), V::Int(x)) => *x as f64 == *y,
        (V::Str(x), V::Str(y)) => x == y,
        (V::List(x), V::List(y)) => Rc::ptr_eq(x, y),
        (V::Obj(x), V::Obj(y)) => Rc::ptr_eq(x, y),
        (V::Rs(x), V::Rs(y)) => Rc::ptr_eq(x, y),
        _ => false,
    }
}

fn compare(a: &V, b: &V) -> Result<std::cmp::Ordering, RunError> {
    match (a, b) {
        (V::Str(x), V::Str(y)) => Ok(x.cmp(y)),
        _ => {
            let (x, y) = (num(a)?, num(b)?);
            Ok(x.total_cmp(&y))
        }
    }
}

/// Applies a [`Deser`] to a fetched result set.
fn deserialize(deser: &Deser, rs: ResultSet) -> V {
    match deser {
        Deser::Raw => V::Rs(Rc::new(rs)),
        Deser::EntityOpt(entity) => {
            if rs.is_empty() {
                V::Null
            } else {
                row_to_entity(entity, &rs, 0)
            }
        }
        Deser::EntityList(entity) => rs_to_entities(entity, &rs),
        Deser::Scalar => rs
            .rows
            .first()
            .and_then(|r| r.first())
            .map(V::from_sql)
            .unwrap_or(V::Null),
    }
}

/// A result-set row as a plain (non-entity) object.
fn row_to_plain_obj(rs: &ResultSet, row: usize) -> V {
    let mut fields = BTreeMap::new();
    for (ci, col) in rs.columns.iter().enumerate() {
        fields.insert(col.clone(), V::from_sql(&rs.rows[row][ci]));
    }
    V::Obj(Rc::new(RefCell::new(fields)))
}

fn format_rs(rs: &ResultSet) -> String {
    let mut rows = Vec::with_capacity(rs.len());
    for r in &rs.rows {
        let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
        rows.push(cells.join(","));
    }
    format!("rs[{}]", rows.join("|"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_an_unforced_value_is_an_error() {
        let page = Resolved {
            fns: Vec::new(),
            blocks: Vec::new(),
            main: None,
        };
        let env = SimEnv::default_env();
        let mut interp = Interp {
            page: &page,
            data: DataLayer::immediate(env, Arc::new(Schema::new())),
            flags: OptFlags::all(),
            counters: Counters::default(),
            output: Vec::new(),
            out_buffer: Vec::new(),
            effect_blocks: Vec::new(),
            depth: 0,
            demand: Demand::Output,
        };
        let thunk = V::Thunk(LazyVal::pending(Pending::Binary(
            BinOp::Add,
            V::Int(1),
            V::Int(2),
        )));
        let e = interp.render(thunk.clone(), 0).unwrap_err();
        assert_eq!(e.message, "render of an unforced value");
        // Displaying forces first.
        assert_eq!(interp.display(&thunk).unwrap(), "3");
    }
}
