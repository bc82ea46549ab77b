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
//! selective compilation (§4.1). [`crate::opt`] pre-wraps runs of
//! deferrable straight-line statements in [`crate::ast::Stmt::DeferBlock`],
//! which the lazy evaluator turns into a single block thunk (§4.3).
//!
//! The interpreter walks the slot-resolved form of the `resolve` pass and
//! nothing else: a variable is an index into a `Vec`-backed frame, a
//! callee is a builtin or a function index, and thunks name functions and
//! deferred blocks by index.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

use sloth_core::{Demand, QueryId, QueryStore, Registration};
use sloth_net::{NetStats, SimEnv};
use sloth_orm::sqlgen::{self, KeyedRead};
use sloth_orm::{EntityDef, FetchStrategy, Schema};
use sloth_sql::{Bound, Hole, ResultSet, SqlError, Stmt, Value as SqlValue};

use crate::analysis::{analyze, lead_words};
use crate::ast::{BinOp, Lit, Program, UnOp};
use crate::builtins::{Arg, Builtin, Db, HeapFn, PureFn, QueryFn, ReadFn, WriteFn};
use crate::opt::OptFlags;
use crate::resolve::{resolve, Callee, GuardedIf, RExpr, RStmt, Resolved, Slot};
use crate::runtime::{
    row_to_entity, rs_to_entities, AssocRead, Counters, DataLayer, RunError, RunResult,
};
use crate::simplify::simplify_program;
use crate::value::{
    binop, cell_of, compare, int, int_binop, lit_to_v, scalar_text, unop, BlockDriver, Deser,
    EachRow, LazyState, LazyVal, Pending, V,
};

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

/// [`prepare`] with ORM schema metadata available at compile time: the
/// effect summary can then bound `orm_*` write calls by their backing
/// tables too (raw `exec` SQL is statically traceable either way), and
/// guard hoisting can move an `if` arm's ORM reads above the `if`.
/// Compile a page with the schema it runs on.
pub fn prepare_with_schema(
    program: &Program,
    strategy: ExecStrategy,
    schema: Option<&Schema>,
) -> Prepared {
    let simplified = simplify_program(program);
    let analysis = analyze(&simplified, schema);
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
            out_buffer: VecDeque::new(),
            conditions: Vec::new(),
            forcing: 0,
            stop: None,
            depth: 0,
            demand: Demand::Output,
        };
        let main = self
            .page
            .main
            .ok_or_else(|| RunError::new("unknown function main"))?;
        let returned = interp.request(main, args, lazy)?;
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
    /// The buffered writer (§5): each value written, the result set a row
    /// guard's arm waits on if it was written there, and its place in the
    /// failure order — the id of the first statement registered after it.
    out_buffer: VecDeque<(V, Option<V>, QueryId)>,
    /// The conditions of row guards whose head was their whole arm: forced
    /// at the end of the request.
    conditions: Vec<V>,
    /// Forces in progress, and the failure a fetch inside them stops the
    /// program for once the outermost has memoised its value.
    forcing: u32,
    stop: Option<RunError>,
    depth: usize,
    /// What the value being forced is for: set by each consumer
    /// ([`Interp::force_for`]) and inherited by the delayed computations
    /// forcing it runs; a batch a fetch ships is recorded with it.
    demand: Demand,
}

const MAX_DEPTH: usize = 200;
const MAX_LOOP_ITERS: u64 = 50_000_000;

impl<'p> Interp<'p> {
    /// Runs `main(args…)` and ends the request: what the framework renders
    /// of the value it returns. The output flush and the end of the
    /// request are observation points of the failure order, and so is
    /// wherever an error stops the program.
    fn request(&mut self, main: u32, args: Vec<V>, lazy: bool) -> Result<Option<String>, RunError> {
        let ran = self.call_function(main, args, lazy);
        self.observe(ran.as_ref().err())?;
        // The framework renders the returned value, if any. Any write still
        // deferred ships, in one write-only round trip, its failure
        // recorded: dead reads stay dead, but writes always apply before
        // the request ends. Then the conditions no statement decided force.
        let ended = ran.and_then(|returned| {
            let returned = match returned {
                V::Null => None,
                v => Some(self.display_for(&v, Demand::Return)?),
            };
            if let Some(store) = &self.data.store {
                store.flush_deferred_writes().ok();
            }
            for c in std::mem::take(&mut self.conditions) {
                self.force_for(c, Demand::Condition)?;
            }
            Ok(returned)
        });
        self.observe(ended.as_ref().err())?;
        ended
    }

    /// An observation point of the failure order (DESIGN.md "Failure
    /// order"): writes the buffered output placed before the lowest failure
    /// known — the store's, or `raised`, an error raised now, after all of
    /// it — forcing each value in order, and raises that failure, or the
    /// first value's that fails. Before it raises, the store ships what it
    /// still holds, so that no failure before it stays unknown.
    fn observe(&mut self, raised: Option<&RunError>) -> Result<(), RunError> {
        let store = self.data.store.clone();
        let failure = || store.as_ref().and_then(QueryStore::failure);
        let mut first = None;
        while let Some((v, guard, at)) = self.out_buffer.pop_front() {
            if failure().is_some_and(|(id, _)| id < at) {
                break;
            }
            // Nothing stops a value being written: the loop weighs what a
            // fetch finds.
            self.forcing += 1;
            let written = self.write(v, guard);
            self.forcing -= 1;
            self.stop = None;
            if let Err(e) = written {
                first = Some((at, e));
                break;
            }
        }
        let failing = raised.is_some() || first.is_some() || failure().is_some();
        if let (true, Some(store)) = (failing, &store) {
            // Its failure, if any, is recorded.
            store.flush().ok();
        }
        match (failure(), first) {
            (Some((id, e)), Some((at, _))) if id < at => Err(e.into()),
            (_, Some((_, e))) => Err(e),
            (Some((_, e)), None) => Err(e.into()),
            (None, None) => raised.map_or(Ok(()), |e| Err(e.clone())),
        }
    }

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
                // One thunk for the whole region (§4.3): capture the
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
                        output: i,
                    });
                    frame.vals[*out as usize] = Some(proj);
                }
                Ok(Flow::Normal)
            }
            // Out of line: inline, an evaluation arm's code slows every
            // other arm of its match (by about 8 % of the `cpu_pages`
            // workload's pages a second, on a 2-core x86-64 machine).
            RStmt::Guarded(g) => self.exec_guarded(g, frame, lazy),
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
                binop(*op, &va, &vb, |v| self.display(v))?
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
            // A pure builtin is deferred whole (§3.4).
            Callee::Builtin(Builtin::Pure(func)) if lazy => {
                Ok(self.alloc_thunk(Pending::Builtin {
                    func: *func,
                    args: vals,
                }))
            }
            Callee::Builtin(b) => self.builtin(*b, vals, lazy),
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

    /// Calls `b` on `vals`, each forced, in argument order, as
    /// [`Builtin::sig`] says. An argument used unfetched stays as it is
    /// for the body — which forces it with [`Interp::force_arg`] if it
    /// cannot register a dependant of it — unless the call is a delayed
    /// read: that waits whole for its demand, over a result set nobody has
    /// fetched, since nothing can write the rows it reads.
    fn builtin(&mut self, b: Builtin, mut vals: Vec<V>, lazy: bool) -> Result<V, RunError> {
        let sig = b.sig();
        for i in 0..vals.len() {
            let why = match sig.arg(i) {
                Arg::Keep => continue,
                Arg::Force(why) => why,
                Arg::Unfetched(why) if !lazy || !matches!(vals[i], V::Thunk(_)) => why,
                Arg::Unfetched(_) if sig.effect.db != Db::None => continue,
                Arg::Unfetched(why) => {
                    if let (true, Builtin::EagerRead(func)) = (sig.delayed_read(), b) {
                        if let Some(rows) = self.unfetched_rows(func, &vals[i]) {
                            vals[i] = rows;
                            let read = Pending::ResultRead { func, args: vals };
                            return Ok(self.alloc_thunk(read));
                        }
                    }
                    why
                }
            };
            vals[i] = self.force_for(std::mem::replace(&mut vals[i], V::Null), why)?;
        }
        match b {
            Builtin::Pure(func) => self.pure_builtin(func, vals),
            Builtin::EagerRead(func) => self.eager_read_builtin(func, vals),
            Builtin::HeapWrite(func) => self.heap_write_builtin(func, vals),
            Builtin::External => self.external_builtin(vals),
            Builtin::Query(func) => self.query_builtin(func, vals, lazy),
            Builtin::WriteQuery(func) => self.write_query_builtin(func, vals),
        }
    }

    /// Argument `i` of `b`, forced as [`Builtin::sig`] says: how a body
    /// forces an argument it could not use unfetched.
    fn force_arg(&mut self, b: Builtin, i: usize, v: V) -> Result<V, RunError> {
        match b.sig().arg(i) {
            Arg::Keep => Ok(v),
            Arg::Force(why) | Arg::Unfetched(why) => self.force_for(v, why),
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

    /// Forces `v`, and once the outermost force has memoised its value,
    /// raises the failure a fetch inside it stopped the program for.
    fn force_thunk(&mut self, v: V) -> Result<V, RunError> {
        self.forcing += 1;
        let forced = self.force_chain(v);
        self.forcing -= 1;
        let outermost = self.forcing == 0;
        self.stop.take_if(|_| outermost).map_or(forced, Err)
    }

    fn force_chain(&mut self, v: V) -> Result<V, RunError> {
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
                    let v = match self.eval_pending(p).and_then(|v| self.force(v)) {
                        Ok(v) => v,
                        Err(e) => {
                            // Forced again, by buffered output written
                            // after the error, it fails alike.
                            *cell.0.borrow_mut() = LazyState::Pending(Pending::Failed(e.clone()));
                            return Err(e);
                        }
                    };
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
                binop(op, &a, &b, |v| self.display(v))
            }
            Pending::Unary(op, a) => {
                self.counters.std_ops += 2;
                let a = self.force(a)?;
                unop(op, &a)
            }
            Pending::Query { id, deser, assocs } => {
                let rs = self.fetch(id, self.demand)?;
                if let Some(why) = rs.skipped() {
                    return Err(RunError::new(&**why));
                }
                let v = match &deser {
                    Deser::EachRow(rows, part) => self.each_row_value(rows, *part, &rs)?,
                    Deser::Field(column) => match rs.rows.first() {
                        Some(row) => rs
                            .column_index(column)
                            .map_or(V::Null, |c| V::from_sql(&row[c])),
                        None => return Err(null_field_read(column)),
                    },
                    deser => deserialize(deser, rs),
                };
                match &v {
                    V::Obj(o) => o.borrow_mut().extend(assocs),
                    V::List(items) => {
                        for (memo, rows) in assocs {
                            for (j, item) in items.borrow().iter().enumerate() {
                                // Row `j`'s value of the each-row read
                                // whose list `rows` is.
                                if let (V::Obj(o), Some((id, Deser::EachRow(each, _)))) =
                                    (item, unfetched(&rows))
                                {
                                    let part = Deser::EachRow(each, Some(j));
                                    let value = self.alloc_thunk(Pending::query(id, part));
                                    o.borrow_mut().insert(memo.clone(), value);
                                }
                            }
                        }
                    }
                    _ => {}
                }
                Ok(v)
            }
            Pending::ResultRead { func, mut args } => {
                // The query ships for whoever demanded the read, not as an
                // eager argument; the read itself is the eager code.
                args[0] = self.force(std::mem::replace(&mut args[0], V::Null))?;
                self.builtin(Builtin::EagerRead(func), args, false)
            }
            Pending::Call { func, args } => self.call_function(func, args, true),
            Pending::Builtin { func, args } => {
                let mut forced = Vec::with_capacity(args.len());
                for a in args {
                    forced.push(self.force(a)?);
                }
                self.pure_builtin(func, forced)
            }
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
                Ok(results
                    .as_ref()
                    .map_or(V::Null, |outs| outs[output].clone()))
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
    // Builtins
    // ------------------------------------------------------------------

    fn pure_builtin(&mut self, func: PureFn, forced: Vec<V>) -> Result<V, RunError> {
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
        let recv = args.remove(0);
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
            ReadFn::At => self.read_index(&recv, &args[0]),
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
            ReadFn::Cell => match (&recv, &args[0], &args[1]) {
                (V::Rs(rs), V::Int(i), V::Str(c)) => cell_of(rs, *i, c),
                _ => Err(RunError::new("cell(rs, row, col) expected")),
            },
            ReadFn::ObjGet => {
                let field = self.display(&args[0])?;
                self.read_field(&recv, &field)
            }
            ReadFn::HasField => {
                let field = self.display(&args[0])?;
                match recv {
                    V::Obj(o) => Ok(V::Bool(o.borrow().contains_key(&field))),
                    _ => Ok(V::Bool(false)),
                }
            }
        }
    }

    fn heap_write_builtin(&mut self, func: HeapFn, mut args: Vec<V>) -> Result<V, RunError> {
        let recv = args.remove(0);
        match func {
            HeapFn::Push => match recv {
                V::List(xs) => {
                    xs.borrow_mut().push(args.remove(0));
                    Ok(V::Null)
                }
                other => Err(RunError::new(format!("push to {other:?}"))),
            },
            HeapFn::ObjPut => {
                let field = self.display(&args.remove(0))?;
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
        if self.buffers_output() {
            // §5 JSP extension: thunks are written to the buffer and
            // forced only when the page flushes.
            let at = self.data.store()?.next_id();
            self.out_buffer.push_back((v, None, at));
        } else {
            let s = self.display_for(&v, Demand::Output)?;
            self.output.push(s);
        }
        Ok(V::Null)
    }

    /// Writes a buffered value, unless it waits on a row guard's arm that
    /// does not run.
    fn write(&mut self, v: V, guard: Option<V>) -> Result<(), RunError> {
        if guard.map_or(Ok(true), |rows| self.arm_runs(&rows, Demand::Output))? {
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
        let b = Builtin::Query(func);
        match func {
            QueryFn::Query => {
                let text = match self.register_text(args.remove(0), false, None)? {
                    ControlFlow::Break(v) => return Ok(v),
                    ControlFlow::Continue(text) => text,
                };
                let sql = self.force_arg(b, 0, text)?;
                let sql = self.display(&sql)?;
                self.read(&sql, Deser::Raw, lazy)
            }
            QueryFn::OrmFind => {
                let entity = string(args.remove(0))?;
                let id = args.remove(0);
                let def = entity_def(&schema, &entity)?;
                let read = KeyedRead::by_pk(def);
                let e = self.keyed_read(&read, id, Deser::EntityOpt(entity), lazy)?;
                if let (false, V::Obj(_)) = (lazy, &e) {
                    self.std_prefetch_eager(def, &e)?;
                }
                Ok(e)
            }
            QueryFn::OrmAssoc => {
                let owner = args.remove(0);
                let assoc = string(args.remove(0))?;
                // An owner nobody has fetched yet stays unfetched: the
                // association is keyed by a column of its row.
                if let Some((id, Deser::EntityOpt(entity))) =
                    lazy.then(|| unfetched(&owner)).flatten()
                {
                    if let Some(v) = self.assoc_of_unfetched(&owner, id, &entity, &assoc)? {
                        return Ok(v);
                    }
                }
                let owner = self.force_arg(b, 0, owner)?;
                self.orm_assoc(owner, &assoc, lazy)
            }
            QueryFn::OrmAssocRows => {
                let base = args.remove(0);
                let assoc = string(args.remove(0))?;
                if lazy {
                    if let Some(v) = self.assoc_rows_of_unfetched(&base, &assoc)? {
                        return Ok(v);
                    }
                }
                // The loop it stands for: `orm_assoc` of every element, in
                // order, pushed to a fresh list.
                let base = self.force_arg(b, 0, base)?;
                let mut values = Vec::new();
                let mut k = 0;
                while matches!(
                    self.eager_read_builtin(ReadFn::Len, vec![base.clone()])?,
                    V::Int(n) if k < n
                ) {
                    let el = self.read_index(&base, &V::Int(k))?;
                    let args = vec![el, V::Str(Rc::clone(&assoc))];
                    values.push(self.builtin(Builtin::Query(QueryFn::OrmAssoc), args, lazy)?);
                    k += 1;
                }
                Ok(V::list(values))
            }
            QueryFn::OrmFindWhere | QueryFn::OrmCountWhere => {
                let entity = string(args.remove(0))?;
                let col = string(args.remove(0))?;
                let v = args.remove(0);
                let def = entity_def(&schema, &entity)?;
                let (read, deser) = match func {
                    QueryFn::OrmFindWhere => {
                        (KeyedRead::where_eq(def, &col), Deser::EntityList(entity))
                    }
                    _ => (KeyedRead::count_where_eq(def, &col), Deser::Scalar),
                };
                self.keyed_read(&read, v, deser, lazy)
            }
            QueryFn::OrmFindAll => {
                let entity = string(args.remove(0))?;
                let def = entity_def(&schema, &entity)?;
                let sql = sqlgen::select_all(def);
                self.read(&sql, Deser::EntityList(entity), lazy)
            }
        }
    }

    fn write_query_builtin(&mut self, func: WriteFn, mut args: Vec<V>) -> Result<V, RunError> {
        let schema = Arc::clone(&self.data.schema);
        let b = Builtin::WriteQuery(func);
        let sql = match func {
            WriteFn::Exec => {
                let text = match self.register_text(args.remove(0), true, None)? {
                    ControlFlow::Break(v) => return Ok(v),
                    ControlFlow::Continue(text) => text,
                };
                let s = self.force_arg(b, 0, text)?;
                self.display(&s)?
            }
            WriteFn::Commit => "COMMIT".to_string(),
            WriteFn::Begin => "BEGIN".to_string(),
            WriteFn::Rollback => "ROLLBACK".to_string(),
            WriteFn::OrmSave => {
                let entity = string(args.remove(0))?;
                let def = entity_def(&schema, &entity)?;
                let V::List(xs) = args.remove(0) else {
                    return Err(RunError::new("orm_save expects a list of values"));
                };
                // Its values are forced as the list is.
                let mut sql_vals = Vec::new();
                for v in xs.borrow().iter() {
                    sql_vals.push(self.force_arg(b, 1, v.clone())?.to_sql());
                }
                sqlgen::insert_row(def, &sql_vals)
            }
            WriteFn::OrmUpdate => {
                let entity = string(args.remove(0))?;
                let id = args.remove(0);
                let col = string(args.remove(0))?;
                let def = entity_def(&schema, &entity)?;
                sqlgen::update_field(def, &id.to_sql(), &col, &args[0].to_sql())
            }
            WriteFn::OrmDelete => {
                let entity = string(args.remove(0))?;
                let def = entity_def(&schema, &entity)?;
                sqlgen::delete_by_pk(def, &args[0].to_sql())
            }
        };
        self.run_write(&sql)
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
        Ok(self.thunk_for(id, deser))
    }

    /// The thunk of a registered read: forcing it fetches `id`'s result.
    fn thunk_for(&mut self, id: QueryId, deser: Deser) -> V {
        self.counters.queries_registered += 1;
        self.alloc_thunk(Pending::query(id, deser))
    }

    /// One write. In Sloth mode it registers with the store (§3.3): a
    /// conflicting write (or barrier) drains the batch on the spot, while
    /// a provably-silent write **defers** (§3.5–3.6, selective laziness) —
    /// its empty result is not demanded, so consecutive disjoint writes
    /// cost no round trips until something drains them. In original mode
    /// writes execute directly.
    fn run_write(&mut self, sql: &str) -> Result<V, RunError> {
        if self.data.store.is_some() {
            let reg = self.data.register_write(sql)?;
            self.counters.queries_registered += 1;
            if !reg.deferred {
                self.fetch(reg.id, Demand::QueryParam)?;
            }
        } else {
            self.data.read_now(sql)?;
        }
        Ok(V::Null)
    }

    // ------------------------------------------------------------------
    // Dependent chains: a query keyed by a column of a row nobody has
    // fetched yet registers as a dependent of that row's query instead
    // of forcing it (§3.3 forces a query's parameters at registration,
    // which makes every link of `user → role → privileges` a batch of
    // one). Everything here falls back to that force whenever the store
    // says the parent is no longer waiting in the batch. A dependant's
    // hole skips it, on a missing row, with what the force it replaces
    // raises on `null`; the batch carries that text down the chain.
    // ------------------------------------------------------------------

    /// `obj.field` as a deferred column read, when `obj` is a single-row
    /// query nobody has fetched and `field` one of its entity's columns.
    fn unfetched_column(&self, obj: &V, field: &str, lazy: bool) -> Option<Pending> {
        let Some((id, Deser::EntityOpt(entity))) = lazy.then(|| unfetched(obj)).flatten() else {
            return None;
        };
        let def = self.data.schema.entity(&entity)?;
        let declared = def.columns.iter().any(|(name, _)| name == field);
        (declared && self.data.is_pending(id))
            .then(|| Pending::query(id, Deser::Field(field.into())))
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
        if let Some((parent, Deser::Field(column))) = lazy.then(|| unfetched(&key)).flatten() {
            let hole = Hole::column(&column, null_field_read(&column).message);
            if let Some(reg) = self
                .data
                .register_dependent(parent, |p| read.stmt(p, hole))?
            {
                return Ok(self.thunk_for(reg.id, deser));
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
        owner: &V,
        id: QueryId,
        entity: &str,
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
        let Ok(a) = self.data.assoc_read(entity, assoc) else {
            return Ok(None);
        };
        let build = |p| a.read.stmt(p, owner_hole(&a));
        let Some(Registration { id: qid, .. }) = self.data.register_dependent(id, build)? else {
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
        let v = self.thunk_for(qid, a.deser());
        if let LazyState::Pending(Pending::Query { assocs, .. }) = &mut *cell.0.borrow_mut() {
            assocs.push((memo_key, v.clone()));
        }
        Ok(Some(v))
    }

    /// `ASSOC_ROWS(base, assoc)` on a list read nobody has fetched: one
    /// each-row dependant of `base`, keyed by every row's owner-side
    /// column, whose answer is the list the 1+N loop pushes — and each
    /// element's `__assoc_*` memo once `base` materializes. `None` sends
    /// the caller down the loop: `base` no longer waits in the batch, the
    /// memo is there already (the loop then reads it), or a name does not
    /// resolve (the loop raises what it raises).
    fn assoc_rows_of_unfetched(&mut self, base: &V, assoc: &str) -> Result<Option<V>, RunError> {
        let (V::Thunk(cell), Some((id, Deser::EntityList(entity)))) = (base, unfetched(base))
        else {
            return Ok(None);
        };
        let memo_key = format!("__assoc_{assoc}");
        if let LazyState::Pending(Pending::Query { assocs, .. }) = &*cell.0.borrow() {
            if assocs.iter().any(|(k, _)| *k == memo_key) {
                return Ok(None);
            }
        }
        let Ok(a) = self.data.assoc_read(&entity, assoc) else {
            return Ok(None);
        };
        let build = |p| a.read.each_row(p, owner_hole(&a));
        let Some(reg) = self.data.register_dependent(id, build)? else {
            return Ok(None);
        };
        self.counters.queries_registered += 1;
        let rows = Rc::new(EachRow {
            parent: id,
            deser: a.deser(),
            values: RefCell::new(None),
        });
        let list = || Pending::query(reg.id, Deser::EachRow(Rc::clone(&rows), None));
        let held = self.alloc_thunk(list());
        let kept = self.alloc_thunk(list());
        if let LazyState::Pending(Pending::Query { assocs, .. }) = &mut *cell.0.borrow_mut() {
            assocs.push((memo_key, kept));
        }
        Ok(Some(held))
    }

    /// The value an each-row read's thunk stands for: its list, or row
    /// `part`'s value — deserialized once, part by part, from the parts
    /// its answer `rs` holds, one per row of the list read it hangs off.
    fn each_row_value(
        &mut self,
        rows: &EachRow,
        part: Option<usize>,
        rs: &ResultSet,
    ) -> Result<V, RunError> {
        if rows.values.borrow().is_none() {
            let n = self.fetch(rows.parent, self.demand)?.len();
            let values = rs.parts(n).into_iter();
            let values = values.map(|p| deserialize(&rows.deser, p)).collect();
            *rows.values.borrow_mut() = Some(values);
        }
        let values = rows.values.borrow();
        let values = values.as_deref().unwrap_or_default();
        Ok(match part {
            None => V::list(values.to_vec()),
            Some(j) => values.get(j).cloned().unwrap_or(V::Null),
        })
    }

    /// The result set a delayed read of `func` over `recv` reads: a raw
    /// query nobody has fetched, or, for `len`, the rows of an ORM list
    /// read nobody has fetched — one per element, read off the answer,
    /// which no `push` reaches. `None`: the read runs now.
    fn unfetched_rows(&mut self, func: ReadFn, recv: &V) -> Option<V> {
        match (func, unfetched(recv)?) {
            (_, (_, Deser::Raw)) => Some(recv.clone()),
            (ReadFn::Len, (id, Deser::EntityList(_))) => {
                Some(self.alloc_thunk(Pending::query(id, Deser::Raw)))
            }
            _ => None,
        }
    }

    /// `query(text)` (`exec(text)` when `write`) as a dependant of the raw
    /// query whose first row `text` is pending on (DESIGN.md "Dependent
    /// statements"): `Break` with its value (`null` for a write). Under a
    /// row guard a missing row skips it; unguarded it fails as `cell` does.
    /// Else `Continue` with the text to run as written — bound here, hole
    /// by hole in program order, when the parent's row has shipped.
    fn register_text(
        &mut self,
        text: V,
        write: bool,
        guard: Option<QueryId>,
    ) -> Result<ControlFlow<V, V>, RunError> {
        let Some((parent, pending)) = PendingText::of(self, &text) else {
            return Ok(ControlFlow::Continue(text));
        };
        if guard.is_some_and(|g| g != parent) || !opens_past_its_tables(&pending.lead, write) {
            return Ok(ControlFlow::Continue(text));
        }
        let mut built = None;
        let build = |p| built.insert(pending.stmt(p, guard.is_some())).clone();
        let Some(reg) = self.data.register_dependent(parent, build)? else {
            let (None, Some(stmt)) = (guard, built) else {
                return Ok(ControlFlow::Continue(text));
            };
            let rs = self.fetch(parent, Demand::QueryParam)?;
            return Ok(ControlFlow::Continue(match stmt.bind_from(&rs)? {
                Bound::To(bound) => V::str(bound.sql()),
                Bound::Skip(_) => text,
            }));
        };
        if !write {
            return Ok(ControlFlow::Break(self.thunk_for(reg.id, Deser::Raw)));
        }
        self.counters.queries_registered += 1;
        if !reg.deferred {
            self.fetch(reg.id, Demand::QueryParam)?;
        }
        Ok(ControlFlow::Break(V::Null))
    }

    /// `v` as an expression over plain values and cells of one row, that
    /// row noted in `walk`. Nothing is forced and nothing runs: a coalesced
    /// block nobody has run is read off its statements.
    fn hole(&mut self, v: &V, walk: &mut Walk) -> Option<HoleExpr> {
        walk.nodes = walk.nodes.checked_sub(1)?;
        let V::Thunk(cell) = v else {
            let plain = matches!(
                v,
                V::Null | V::Bool(_) | V::Int(_) | V::Float(_) | V::Str(_)
            );
            return plain.then(|| HoleExpr::Const(v.to_sql()));
        };
        let state = cell.0.borrow();
        let pending = match &*state {
            LazyState::Done(v) => return self.hole(v, walk),
            LazyState::Pending(pending) => pending,
            LazyState::InFlight => return None,
        };
        let mut hole = |v: &V| self.hole(v, walk).map(Box::new);
        Some(match pending {
            Pending::Binary(op, a, b) => HoleExpr::Binary(*op, hole(a)?, hole(b)?),
            Pending::Unary(op, a) => HoleExpr::Unary(*op, hole(a)?),
            Pending::Builtin { func, args } => match (func, &args[..]) {
                (PureFn::Str, [a]) => HoleExpr::Str(hole(a)?),
                _ => return None,
            },
            Pending::ResultRead { func, args } => match (func, &args[..]) {
                (ReadFn::Cell, [rows, V::Int(0), V::Str(column)]) => {
                    let (q, Deser::Raw) = unfetched(rows)? else {
                        return None;
                    };
                    let column = column.to_string();
                    (*walk.parent.get_or_insert(q) == q).then_some(HoleExpr::Cell(column))?
                }
                _ => return None,
            },
            Pending::Block { driver, output } => {
                if let Some(outs) = &*driver.results.borrow() {
                    return self.hole(&outs[*output], walk);
                }
                let block = &self.page.blocks[driver.block as usize];
                let slot = RExpr::Slot(block.outputs[*output]);
                return self.expr_hole(driver, block.body.len(), &slot, walk);
            }
            _ => return None,
        })
    }

    /// Expression `e` of statement `at` of a block nobody has run, as
    /// [`Interp::hole`] sees what a lazy run of it would make: a slot is
    /// its last assignment ahead of `at`, or its capture. A statement
    /// other than an assignment on the way, a short circuit (which
    /// forces) or a call other than `str` is no hole.
    fn expr_hole(
        &mut self,
        driver: &BlockDriver,
        at: usize,
        e: &RExpr,
        walk: &mut Walk,
    ) -> Option<HoleExpr> {
        walk.nodes = walk.nodes.checked_sub(1)?;
        let mut hole = |e: &RExpr| self.expr_hole(driver, at, e, walk).map(Box::new);
        Some(match e {
            RExpr::Lit(l) => HoleExpr::Const(lit_to_v(l).to_sql()),
            RExpr::Slot(slot) => {
                let body = &self.page.blocks[driver.block as usize].body;
                for (i, stmt) in body[..at].iter().enumerate().rev() {
                    match stmt {
                        RStmt::Set(set, e) if set == slot => {
                            return self.expr_hole(driver, i, e, walk)
                        }
                        RStmt::Set(..) => {}
                        _ => return None,
                    }
                }
                let (_, v) = driver.captured.iter().find(|(s, _)| s == slot)?;
                return self.hole(v, walk);
            }
            RExpr::Binary(op, a, b) if !matches!(op, BinOp::And | BinOp::Or) => {
                HoleExpr::Binary(*op, hole(a)?, hole(b)?)
            }
            RExpr::Unary(op, a) => HoleExpr::Unary(*op, hole(a)?),
            RExpr::Call(Callee::Builtin(Builtin::Pure(PureFn::Str)), args) if args.len() == 1 => {
                HoleExpr::Str(hole(&args[0])?)
            }
            _ => return None,
        })
    }

    // ------------------------------------------------------------------
    // Row guards: the head of an `if (nrows(q) > 0)`'s then-arm registers
    // where the `if` stands, its statements of pending text over `q` as
    // dependants of `q` (see `hoist.rs`). While `q` waits in the batch the
    // arm's fate is the binder's to decide; once `q` has an answer, every
    // statement left does what it would do under the `if`.
    // ------------------------------------------------------------------

    #[inline(never)]
    fn exec_guarded(
        &mut self,
        g: &'p GuardedIf,
        frame: &mut Frame,
        lazy: bool,
    ) -> Result<Flow, RunError> {
        let Some(rows) = frame.vals[g.rows as usize].clone() else {
            return Err(self.unbound(frame, g.rows));
        };
        let pending = match lazy.then(|| unfetched(&rows)).flatten() {
            Some((id, Deser::Raw)) => self.data.is_pending(id).then_some(id),
            _ => None,
        };
        let Some(parent) = pending else {
            // An ordinary `if`.
            let c = self.eval(&g.cond, frame, lazy)?;
            return if self.force_for(c, Demand::Condition)?.truthy() {
                for stmt in &g.prefix {
                    self.exec_stmt(stmt, frame, lazy)?;
                }
                self.exec_block(&g.then, frame, lazy)
            } else {
                self.exec_block(&g.els, frame, lazy)
            };
        };
        // `None` while undecided.
        let mut runs = None;
        for stmt in &g.prefix {
            if runs.is_none() && self.guarded_entry(stmt, parent, &rows, frame)? {
                continue;
            }
            let decided = match runs {
                Some(r) => r,
                None => *runs.insert(self.arm_runs(&rows, Demand::Condition)?),
            };
            if !decided {
                break;
            }
            self.exec_stmt(stmt, frame, lazy)?;
        }
        let c = match runs {
            Some(runs) => runs,
            None => {
                let c = self.eval(&g.cond, frame, lazy)?;
                if g.then.is_empty() && g.els.is_empty() {
                    // Nothing left to decide: the condition stays only to
                    // raise at the end of the request what forcing it
                    // raises.
                    self.conditions.push(c);
                    return Ok(Flow::Normal);
                }
                self.force_for(c, Demand::Condition)?.truthy()
            }
        };
        self.exec_block(if c { &g.then } else { &g.els }, frame, lazy)
    }

    /// One statement of a row guard's head while `rows` (query `parent`)
    /// waits in the batch: registered under the guard, or buffered behind
    /// the arm's fate — `false` when it cannot be, and must wait for that
    /// fate.
    fn guarded_entry(
        &mut self,
        stmt: &'p RStmt,
        parent: QueryId,
        rows: &V,
        frame: &mut Frame,
    ) -> Result<bool, RunError> {
        let (RStmt::Set(_, RExpr::Call(Callee::Builtin(callee), args))
        | RStmt::Expr(RExpr::Call(Callee::Builtin(callee), args))) = stmt
        else {
            // A binding that registers nothing and cannot fail.
            self.exec_stmt(stmt, frame, true)?;
            return Ok(true);
        };
        let effect = callee.sig().effect;
        let write = match effect.db {
            Db::Text => false,
            Db::WriteText => true,
            _ if effect.output && self.buffers_output() => {
                let v = match args.first() {
                    Some(e) => self.eval(e, frame, true)?,
                    None => V::Null,
                };
                let at = self.data.store()?.next_id();
                self.out_buffer.push_back((v, Some(rows.clone()), at));
                return Ok(true);
            }
            _ if effect.output => return Ok(false),
            _ => return self.exec_stmt(stmt, frame, true).map(|_| true),
        };
        // A text that fails fails again under the arm, if it runs.
        let Some(Ok(text)) = args.first().map(|e| self.eval(e, frame, true)) else {
            return Ok(false);
        };
        let ControlFlow::Break(v) = self.register_text(text, write, Some(parent))? else {
            return Ok(false);
        };
        if let RStmt::Set(slot, _) = stmt {
            frame.vals[*slot as usize] = Some(v);
        }
        Ok(true)
    }

    /// A registered result, demanded for `why`: an observation point of the
    /// failure order (DESIGN.md "Failure order"). A statement failure the
    /// store knows of stops the program, once the forces in progress have
    /// memoised their values (see [`Interp::force_thunk`]).
    fn fetch(&mut self, id: QueryId, why: Demand) -> Result<ResultSet, RunError> {
        let (rs, failure) = self.data.store()?.result_for(id, why);
        if let Some((_, e)) = failure {
            if self.forcing == 0 {
                return Err(e.into());
            }
            self.stop = Some(e.into());
        }
        Ok(rs?)
    }

    /// Whether a row guard's arm runs: `nrows(rows) > 0`, forced for `why`.
    fn arm_runs(&mut self, rows: &V, why: Demand) -> Result<bool, RunError> {
        let rows = self.force_for(rows.clone(), why)?;
        Ok(matches!(
            self.eager_read_builtin(ReadFn::Len, vec![rows])?,
            V::Int(n) if n > 0
        ))
    }

    /// Whether `print` writes to the request's buffer (§5) rather than to
    /// the output on the spot: always, on a lazy run (one with a store).
    fn buffers_output(&self) -> bool {
        self.data.store.is_some()
    }

    /// Original-mode eager prefetch at `orm_find` (§1: the "eager" strategy
    /// fetches associated collections whether used or not).
    fn std_prefetch_eager(&mut self, def: &EntityDef, e: &V) -> Result<(), RunError> {
        for a in &def.assocs {
            if a.strategy == FetchStrategy::Eager {
                let items = self.fetch_assoc_now(e, def, &a.name)?;
                if let V::Obj(o) = e {
                    o.borrow_mut().insert(format!("__assoc_{}", a.name), items);
                }
            }
        }
        Ok(())
    }

    fn orm_assoc(&mut self, owner: V, assoc: &str, lazy: bool) -> Result<V, RunError> {
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
        let a = self.data.assoc_read(&entity, assoc)?;
        let key = self.assoc_key(&owner, &a)?;
        let sql = a.read.sql(&key.to_sql());
        let result = if !lazy && a.many && a.strategy == FetchStrategy::Lazy {
            // Hibernate collection proxy: no query until element access.
            let mut fields = BTreeMap::new();
            fields.insert("__proxy_sql".to_string(), V::str(&sql));
            fields.insert("__proxy_entity".to_string(), V::str(&a.target));
            V::Obj(Rc::new(RefCell::new(fields)))
        } else {
            // Sloth: register now (the owner is already materialized),
            // defer deserialization (§3.3).
            self.read(&sql, a.deser(), lazy)?
        };
        o.borrow_mut().insert(memo_key, result.clone());
        Ok(result)
    }

    fn fetch_assoc_now(&mut self, owner: &V, def: &EntityDef, assoc: &str) -> Result<V, RunError> {
        let a = self.data.assoc_read(&def.name, assoc)?;
        let key = self.assoc_key(owner, &a)?;
        self.read(&a.read.sql(&key.to_sql()), a.deser(), false)
    }

    /// The owner-side key an association is fetched by, forced.
    fn assoc_key(&mut self, owner: &V, a: &AssocRead) -> Result<V, RunError> {
        let key = self.read_field(owner, &a.key)?;
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
            V::Null | V::Bool(_) | V::Int(_) | V::Float(_) | V::Str(_) => scalar_text(&v),
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

/// Text pending on the first row of one raw query nobody has fetched: a
/// literal lead, then holes, each followed by a literal piece.
struct PendingText {
    lead: String,
    holes: Vec<(HoleExpr, String)>,
}

/// A hole of pending text: an expression over plain values and cells of
/// the parent's first row, shown as `str` shows its value. It holds no
/// runtime value, so the statement it fills stays `Send + Sync`.
enum HoleExpr {
    Const(SqlValue),
    Cell(String),
    Binary(BinOp, Box<HoleExpr>, Box<HoleExpr>),
    Unary(UnOp, Box<HoleExpr>),
    Str(Box<HoleExpr>),
}

/// How far [`Interp::hole`] has looked: the one query whose row it reads,
/// once met, and how many more nodes it may visit. A text that shares its
/// thunks can stand for a tree exponentially larger than itself; past
/// [`WALK_NODES`] it is forced as written.
struct Walk {
    parent: Option<QueryId>,
    nodes: usize,
}

const WALK_NODES: usize = 256;

impl PendingText {
    /// `v` as pending text: a tree of `+` and `str` whose leaves are
    /// literals, plain values and `cell(q, 0, c)` reads of one unfetched
    /// raw query `q`, with arithmetic around the reads — and `q`. Nothing
    /// is forced.
    fn of(interp: &mut Interp, v: &V) -> Option<(QueryId, PendingText)> {
        let V::Thunk(_) = v else { return None };
        let mut walk = Walk {
            parent: None,
            nodes: WALK_NODES,
        };
        let hole = interp.hole(v, &mut walk)?;
        let parent = walk.parent?;
        let mut text = PendingText {
            lead: String::new(),
            holes: Vec::new(),
        };
        text.push(hole);
        Some((parent, text))
    }

    /// Appends `e`, shown as text: the operands of a concatenation in
    /// turn, a value that reads no cell as it shows — unless it fails:
    /// then it fails where it is bound, in its place among the holes.
    fn push(&mut self, e: HoleExpr) {
        match e {
            HoleExpr::Binary(BinOp::Add, a, b) if a.is_text() || b.is_text() => {
                self.push(*a);
                self.push(*b);
            }
            e => match e.value(&ResultSet::default()) {
                Ok(v) => {
                    let piece = self.holes.last_mut().map_or(&mut self.lead, |(_, p)| p);
                    piece.push_str(&scalar_text(&v));
                }
                Err(_) => self.holes.push((e, String::new())),
            },
        }
    }

    /// The dependent statement of this text, holes filled from the first
    /// row of `parent`: `guarded`, a missing row skips it (with the error
    /// the hole raises unguarded).
    fn stmt(self, parent: u64, guarded: bool) -> Stmt {
        let holes = self.holes.into_iter().map(|(hole, piece)| {
            let label = hole.label().unwrap_or_default().to_owned();
            // Over no row every hole fails: guarded, that skips.
            let render = move |rows: &ResultSet| match hole.value(rows) {
                Ok(v) => Ok(Bound::To(scalar_text(&v))),
                Err(e) if guarded && rows.is_empty() => Ok(Bound::Skip(e.message.into())),
                Err(e) => Err(SqlError::program(e.message)),
            };
            (Hole::new(label, render), piece)
        });
        Stmt::dependent(parent, self.lead, holes.collect())
    }
}

impl HoleExpr {
    /// Whether its value is text, whatever the row: a string, `str(…)`, or
    /// `+` with text on either side.
    fn is_text(&self) -> bool {
        match self {
            HoleExpr::Const(SqlValue::Str(_)) | HoleExpr::Str(_) => true,
            HoleExpr::Binary(BinOp::Add, a, b) => a.is_text() || b.is_text(),
            _ => false,
        }
    }

    /// Its value over `rows`' first row, computed by the evaluator's own
    /// `cell`, operators and `str`.
    fn value(&self, rows: &ResultSet) -> Result<V, RunError> {
        Ok(match self {
            HoleExpr::Const(v) => V::from_sql(v),
            HoleExpr::Cell(column) => cell_of(rows, 0, column)?,
            HoleExpr::Binary(op, a, b) => {
                let (a, b) = (a.value(rows)?, b.value(rows)?);
                binop(*op, &a, &b, |v| Ok(scalar_text(v)))?
            }
            HoleExpr::Unary(op, a) => unop(*op, &a.value(rows)?)?,
            HoleExpr::Str(a) => V::str(scalar_text(&a.value(rows)?)),
        })
    }

    /// The first column it reads: how its open statement shows it.
    fn label(&self) -> Option<&str> {
        match self {
            HoleExpr::Const(_) => None,
            HoleExpr::Cell(column) => Some(column),
            HoleExpr::Binary(_, a, b) => a.label().or_else(|| b.label()),
            HoleExpr::Unary(_, a) | HoleExpr::Str(a) => a.label(),
        }
    }
}

/// Whether holes may follow the literal `lead`: it reaches a read's
/// `WHERE`, or a write's `SET`, `WHERE` or `VALUES`, past every table the
/// statement names, which its open form's footprint then covers.
fn opens_past_its_tables(lead: &str, write: bool) -> bool {
    let clauses: &[&str] = if write {
        &["set", "where", "values"]
    } else {
        &["where"]
    };
    lead_words(lead, clauses).is_some()
}

/// `v` as a registered read nobody has forced: its query id, and how its
/// answer deserializes — which says what it is: a raw `query`, an entity,
/// a list, a column of a row, an each-row read's list or row.
fn unfetched(v: &V) -> Option<(QueryId, Deser)> {
    let V::Thunk(cell) = v else { return None };
    match &*cell.0.borrow() {
        LazyState::Pending(Pending::Query { id, deser, .. }) => Some((*id, deser.clone())),
        _ => None,
    }
}

/// The hole an association of an owner nobody has fetched is keyed by:
/// the owner's key column, skipped on a missing row with what `orm_assoc`
/// on `null` raises.
fn owner_hole(a: &AssocRead) -> Hole {
    Hole::column(&a.key, not_an_entity(&V::Null).message)
}

/// A forced argument that must be a string.
fn string(v: V) -> Result<Rc<str>, RunError> {
    match v {
        V::Str(s) => Ok(s),
        other => Err(RunError::new(format!("expected string, got {other:?}"))),
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
        // Deserialized where it is forced: an each-row read's parts by
        // `Interp::each_row_value`, which knows how many rows they answer,
        // a column of a row nobody fetched by the force, which may fail.
        Deser::EachRow(..) | Deser::Field(_) => V::Null,
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
            out_buffer: VecDeque::new(),
            conditions: Vec::new(),
            forcing: 0,
            stop: None,
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

    /// Two orders of customer 1, one of customer 2, an order line and an
    /// empty log.
    fn orders_env() -> SimEnv {
        let env = SimEnv::default_env();
        for sql in [
            "CREATE TABLE orders (o_id INT PRIMARY KEY, c_id INT, carrier_id INT)",
            "INSERT INTO orders VALUES (10, 1, 0), (11, 1, 0), (12, 2, 0)",
            "CREATE TABLE order_line (ol_id INT PRIMARY KEY, o_id INT)",
            "INSERT INTO order_line VALUES (1, 10), (2, 21)",
            "CREATE TABLE log (id INT PRIMARY KEY)",
        ] {
            env.seed_sql(sql).unwrap();
        }
        env
    }

    /// The flushes of `stmt`, run after `o` (customer 1's orders), `p`
    /// (customer 2's) and `oid = cell(o, 0, "o_id")` under `flags`, ending
    /// as the eager run ends.
    fn flushes(stmt: &str, flags: OptFlags) -> Vec<sloth_core::FlushReason> {
        let src = format!(
            r#"fn main(u) {{
                let o = query("SELECT o_id, c_id FROM orders WHERE c_id = 1");
                let p = query("SELECT o_id FROM orders WHERE c_id = 2");
                let oid = cell(o, 0, "o_id");
                {stmt}
                print("done");
            }}"#
        );
        let program = crate::parser::parse_program(&src).unwrap();
        let schema = Arc::new(Schema::new());
        let prepared = |strategy| prepare_with_schema(&program, strategy, Some(&schema));
        let want = prepared(ExecStrategy::Original).run(
            &orders_env(),
            Arc::clone(&schema),
            vec![V::Int(1)],
        );
        let data = DataLayer::deferred(orders_env(), Arc::clone(&schema));
        let got = prepared(ExecStrategy::Sloth(flags)).run_with(data.clone(), vec![V::Int(1)]);
        match (&want, got) {
            (Ok(w), Ok(g)) => assert_eq!(w.output, g.output, "{stmt}"),
            (Err(w), Err(g)) => assert_eq!(w.message, g.message, "{stmt}"),
            (w, g) => panic!("{stmt}: {w:?} vs {g:?}"),
        }
        data.store.as_ref().unwrap().stats().flush_reasons
    }

    /// Whether `stmt`, run as [`flushes`] runs it, registers as a
    /// dependant of `o` instead of forcing its text — under every
    /// optimization and none.
    fn registers(stmt: &str) -> bool {
        let registered = [OptFlags::none(), OptFlags::all()].map(|flags| {
            let param = sloth_core::FlushReason::Force(Demand::QueryParam);
            !flushes(stmt, flags).contains(&param)
        });
        assert_eq!(registered[0], registered[1], "{stmt}");
        registered[0]
    }

    #[test]
    fn pending_text_is_str_and_arithmetic_over_one_rows_first_cells() {
        // Two holes, arithmetic and `-` around the cells, plain values
        // between them; a hole that fails as `cell` or `/` do fails so
        // where it is bound.
        for stmt in [
            r#"exec("UPDATE orders SET carrier_id = " + str(oid * 100 + 7) + " WHERE o_id = " + str(oid));"#,
            r#"let r = query("SELECT ol_id FROM order_line WHERE o_id = " + str(oid) + " OR o_id = " + str(cell(o, 0, "c_id") + 20)); print(str(nrows(r)));"#,
            r#"exec("INSERT INTO log (id) VALUES (" + str(-oid) + ")");"#,
            r#"let k = u + 1; exec("DELETE FROM log WHERE id = " + str(k) + " OR id = " + str(oid / 2));"#,
            r#"exec("UPDATE orders SET carrier_id = " + str(cell(o, 0, "nope")) + " WHERE o_id = 1");"#,
            r#"exec("UPDATE orders SET carrier_id = " + str(oid / 0) + " WHERE o_id = 1");"#,
        ] {
            assert!(registers(stmt), "{stmt}");
        }
        // Another row, a computed row, two parents, a builtin other than
        // `str`: the text is forced.
        for stmt in [
            r#"exec("UPDATE orders SET carrier_id = " + str(cell(o, 1, "o_id")) + " WHERE o_id = 1");"#,
            r#"exec("UPDATE orders SET carrier_id = " + str(cell(o, u, "o_id")) + " WHERE o_id = 1");"#,
            r#"exec("UPDATE orders SET carrier_id = " + str(oid + cell(p, 0, "o_id")) + " WHERE o_id = 1");"#,
            r#"exec("UPDATE orders SET carrier_id = " + upper(str(oid)) + " WHERE o_id = 1");"#,
        ] {
            assert!(!registers(stmt), "{stmt}");
        }
    }

    #[test]
    fn a_text_over_shared_thunks_ends_at_once() {
        // Two loop-carried values, or Fibonacci's, share their thunks: 60
        // rounds stand for trees of 2^60 nodes. The walk that looks for a
        // row stops within its budget, under every optimization and none.
        let rounds = |body: &str, from: &str, text: &str| {
            format!(
                r#"let i = 0; let a = {from}; let b = {from};
                while (i < 60) {{ {body} print(str(i)); i = i + 1; }}
                exec("DELETE FROM log WHERE id = " + {text});"#
            )
        };
        let two = "a = a + 1; b = b + 2;";
        let fib = "let t = a + b; a = b; b = t;";
        for flags in [OptFlags::none(), OptFlags::all()] {
            for from in ["u", "oid"] {
                for body in [two, fib] {
                    flushes(
                        &rounds(body, from, r#"str(a) + " OR id = " + str(b)"#),
                        flags,
                    );
                }
            }
        }
        // Past the budget the text is forced as written; a chain of 60
        // rounds is not past it.
        let param = sloth_core::FlushReason::Force(Demand::QueryParam);
        let forced =
            |body| flushes(&rounds(body, "oid", "str(a)"), OptFlags::none()).contains(&param);
        assert!(forced(fib));
        assert!(!forced(two));
    }

    #[test]
    fn a_block_is_read_without_running_it() {
        // The text's temporaries coalesce with a short circuit over the
        // row: reading the text off the block forces nothing, so `o` and
        // its dependant ship together, with the output that forces `ok`.
        let stmt = r#"let ok = oid > 0 && u > 0;
            exec("DELETE FROM log WHERE id = " + str(oid + 1));
            print(str(ok));"#;
        assert_eq!(
            flushes(stmt, OptFlags::all()),
            [sloth_core::FlushReason::Force(Demand::Output)]
        );
    }

    #[test]
    fn pending_text_reaches_its_clause_in_literal_text() {
        // Holes after the tables the statement names.
        for stmt in [
            r#"exec("UPDATE orders SET carrier_id = " + str(oid) + " WHERE o_id = 1");"#,
            r#"exec("DELETE FROM log WHERE id = " + str(oid));"#,
            r#"exec("INSERT INTO log (id) VALUES (" + str(oid) + ")");"#,
            r#"exec("UPDATE orders" + " SET carrier_id = " + str(oid));"#,
            r#"exec("DELETE FROM log /* from t */ WHERE id = " + str(oid));"#,
            r#"let r = query("SELECT ol_id FROM order_line WHERE o_id = " + str(oid)); print(str(nrows(r)));"#,
        ] {
            assert!(registers(stmt), "{stmt}");
        }
        // A hole that is, or may be, part of a table's name, or ahead of
        // the clause: a clause in a comment or in quotes is no clause.
        for stmt in [
            r#"exec("UPDATE orders" + str(oid) + " SET carrier_id = 1");"#,
            r#"exec("UPDATE " + str(oid) + " SET v = 1");"#,
            r#"exec("DELETE FROM log_" + str(oid));"#,
            r#"exec("INSERT INTO log_" + str(oid) + " VALUES (1)");"#,
            r#"exec("UPDATE /* set */ t" + str(oid) + " SET v = 1");"#,
            r#"exec("DELETE FROM -- where\n log_" + str(oid));"#,
            r#"exec("INSERT INTO /* values */ log_" + str(oid) + " VALUES (1)");"#,
            r#"exec("UPDATE t 'set' " + str(oid) + " SET v = 1");"#,
            r#"let r = query("SELECT " + str(oid) + " FROM orders"); print(str(nrows(r)));"#,
            r#"let r = query("SELECT o_id FROM orders o JOIN order_line l ON o.o_id = " + str(oid)); print(str(nrows(r)));"#,
        ] {
            assert!(!registers(stmt), "{stmt}");
        }
    }

    /// Pending text registers only where its open statement's footprint
    /// covers the footprint of every form it binds to: over random literal
    /// leads holding `--` and `/* */` comments and quoted text — naming
    /// clauses and tables, some left open for the text after the hole to
    /// close — and holes that may render any text, tables of their own
    /// included, every bound form that parses touches only tables its
    /// open form names.
    #[test]
    fn a_pending_statement_covers_every_form_it_binds_to() {
        let mut seed = 0x5_11CEu64;
        let mut next = |n: usize| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let starts = [
            "SELECT v FROM t",
            "UPDATE t",
            "DELETE FROM t",
            "INSERT INTO t (id, v)",
        ];
        // Fragments of a lead, and what the text after the hole must open
        // with to close what the fragment leaves open.
        let fragments = [
            (" /* where set values */", ""),
            (" -- where from u\n", ""),
            (" /* from u */", ""),
            (" WHERE v = ", ""),
            (" SET v = ", ""),
            (" VALUES (1, ", ")"),
            (" WHERE s = 'it''s where' AND v = ", ""),
            (" WHERE s = '", "'"),
            (" /* WHERE ", " */ WHERE id = 1"),
            (" -- SET ", "\n SET v = 1"),
            (" 'where' ", ""),
        ];
        let renders = [
            "1",
            "'x'",
            "*/ JOIN u ON t.id = u.id /*",
            "\n JOIN u ON t.id = u.id --",
            "' OR s = '",
            "1 OR id = 2",
            "id",
        ];
        let cache = sloth_sql::TemplateCache::default();
        let (mut accepted, mut checked) = (0, 0);
        for _ in 0..4_000 {
            let start = next(starts.len());
            let mut lead = starts[start].to_string();
            let mut close = String::new();
            for _ in 0..1 + next(3) {
                let (piece, closer) = fragments[next(fragments.len())];
                lead.push_str(piece);
                close = closer.to_string();
            }
            if !opens_past_its_tables(&lead, start > 0) {
                continue;
            }
            accepted += 1;
            let tail = close + [" ", " AND id = 3", ""][next(3)];
            let hole = Hole::new("k", |_: &ResultSet| Ok(Bound::To("0".to_string())));
            let open = Stmt::dependent(0, lead.clone(), vec![(hole, tail.clone())]);
            let wide = cache.stmt_footprint(&open);
            for render in renders {
                let bound = sloth_sql::Footprint::of_sql(&format!("{lead}{render}{tail}"));
                if bound.barrier || wide.barrier {
                    continue;
                }
                checked += 1;
                let has = |accesses: &[sloth_sql::TableAccess], table: &str| {
                    accesses.iter().any(|a| a.table == table)
                };
                for read in &bound.reads {
                    let covered = has(&wide.reads, &read.table) || has(&wide.writes, &read.table);
                    assert!(
                        covered,
                        "{lead:?} {render:?} {tail:?}: {bound:?} vs {wide:?}"
                    );
                }
                for write in &bound.writes {
                    let covered = has(&wide.writes, &write.table);
                    assert!(
                        covered,
                        "{lead:?} {render:?} {tail:?}: {bound:?} vs {wide:?}"
                    );
                }
            }
        }
        assert!(accepted > 1_000 && checked > 1_000, "{accepted} {checked}");
    }
}
