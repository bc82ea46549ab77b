//! Allocation budgets of the engine's hot paths, counted by a global
//! allocator: a statement binds its names once per execution, so the rows
//! it scans cost no allocation, a fused `IN` probe costs allocations
//! linear in its keys, and normalizing a statement costs the same
//! allocations however many identifiers it names.
//!
//! Counts are kept per thread, so the tests of this binary may run side by
//! side; each measures only the work of its own thread.
//!
//! ```sh
//! cargo test --release -p sloth-sql --test alloc_budget
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sloth_sql::ast::{ColumnRef, Statement};
use sloth_sql::{fuse, normalize, parse, Database, Value};

/// The system allocator, counting the allocations (and reallocations) of
/// the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; the count beside it touches a
// const-initialised thread-local `Cell` with no destructor, which neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// How many times `f` allocates on this thread; what it returns is dropped
/// after the count.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let n = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    n
}

/// `rows` rows, of which the first five are in group 7 and the rest in
/// group 0; `grp` and `v` carry no index, so a filter on them scans.
fn table_of(rows: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT, name TEXT)")
        .unwrap();
    for id in 0..rows {
        let grp = if id < 5 { 7 } else { 0 };
        db.execute(&format!(
            "INSERT INTO t VALUES ({id}, {grp}, {id}, 'name{id}')"
        ))
        .unwrap();
    }
    db
}

/// The allocations of the second execution of `sql` (the first fills the
/// template cache) over `rows` rows.
fn execution_allocations(rows: usize, sql: &str) -> u64 {
    let mut db = table_of(rows);
    db.execute(sql).unwrap();
    allocations(|| db.execute(sql).unwrap())
}

#[test]
fn a_scan_allocates_nothing_per_row() {
    for sql in [
        "SELECT id, name FROM t WHERE grp = 7 AND name != 'x'",
        "SELECT COUNT(*) FROM t WHERE grp = 7",
        "UPDATE t SET v = v + 1 WHERE grp = 7",
    ] {
        let small = execution_allocations(1_000, sql);
        let large = execution_allocations(2_000, sql);
        assert_eq!(small, large, "{sql}: 1 000 rows vs 2 000 rows");
    }
}

#[test]
fn a_fused_in_probe_allocates_linearly_in_its_keys() {
    let mut db = Database::new();
    db.execute("CREATE TABLE u (id INT PRIMARY KEY, name TEXT)")
        .unwrap();
    db.execute("CREATE INDEX ON u (name)").unwrap();
    for id in 0..200 {
        db.execute(&format!("INSERT INTO u VALUES ({id}, 'key{id}')"))
            .unwrap();
    }
    let Statement::Select(proto) = parse("SELECT id, name FROM u WHERE name = 'key0'").unwrap()
    else {
        unreachable!("a SELECT parses to one")
    };
    let probe = |k: usize| {
        let keys: Vec<Value> = (0..k)
            .map(|i| Value::Str(format!("key{}", 3 * i)))
            .collect();
        let plan = fuse::build_fused(&proto, &ColumnRef::bare("name"), &keys).unwrap();
        let n = allocations(|| db.execute_read(&plan.stmt, &[], false).unwrap());
        let (out, _) = db.execute_read(&plan.stmt, &[], false).unwrap();
        assert_eq!(out.result.len(), k, "every key finds its row");
        n
    };
    let (eight, sixty_four) = (probe(8), probe(64));
    assert!(
        sixty_four <= 8 * eight,
        "64 keys allocate {sixty_four} times, 8 keys {eight}: more than linear"
    );
}

#[test]
fn normalizing_an_orm_read_allocates_a_fixed_count() {
    let read = |columns: usize| {
        let names: Vec<String> = (0..columns).map(|c| format!("column_{c}")).collect();
        format!("SELECT {} FROM patient WHERE id = 7", names.join(", "))
    };
    let (narrow, wide) = (read(3), read(30));
    let counts = [narrow, wide].map(|sql| allocations(|| normalize(&sql).unwrap()));
    assert_eq!(counts[0], counts[1], "3 identifiers vs 30");
}
