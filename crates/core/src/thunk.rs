//! A shared, memoizing thunk: a delayed computation forced once (§3.2).
//!
//! The kernel language's pages delay values with the interpreter's own
//! thunks (`sloth-lang`); this one is the Rust-level form that
//! `sloth_orm::Session::find_thunk` returns. Forcing runs the computation
//! once and memoizes the result; every clone shares the same cell.
//!
//! Thunks are `Send + Sync`: shared ownership is an `Arc<Mutex<…>>`, so a
//! thunk created on one session thread can be forced from another. A force
//! that races an in-flight evaluation **waits** for it (the computation
//! still runs exactly once); a *re-entrant* force from the same thread is a
//! cyclic data dependency in the source program and panics.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

enum State<T> {
    /// Not yet evaluated; holds the delayed computation.
    Pending(Box<dyn FnOnce() -> T + Send>),
    /// Being evaluated right now by the recorded thread. Another thread
    /// waits; the same thread panics (cyclic dependency).
    InFlight(ThreadId),
    /// Evaluated; memoized result.
    Forced(T),
    /// The computation panicked. Every force (current waiters and future
    /// callers, on any thread) panics too instead of hanging on a cell
    /// that will never fill.
    Poisoned,
}

struct Cell<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Cell<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Unwind guard for an in-flight evaluation: if the computation panics,
/// the cell is marked poisoned and every waiter is woken (they panic in
/// turn rather than wait forever). Disarmed on the successful path.
struct ForcePoisonGuard<'a, T> {
    cell: &'a Cell<T>,
    armed: bool,
}

impl<T> Drop for ForcePoisonGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            *self.cell.lock() = State::Poisoned;
            self.cell.ready.notify_all();
        }
    }
}

/// A delayed, memoized, shareable computation (`Send + Sync`).
pub struct Thunk<T> {
    cell: Arc<Cell<T>>,
}

impl<T> Clone for Thunk<T> {
    fn clone(&self) -> Self {
        Thunk {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<T: Clone + Send + 'static> Thunk<T> {
    /// Delays `f` until the first [`force`](Thunk::force).
    pub fn new(f: impl FnOnce() -> T + Send + 'static) -> Self {
        Thunk {
            cell: Arc::new(Cell {
                state: Mutex::new(State::Pending(Box::new(f))),
                ready: Condvar::new(),
            }),
        }
    }

    /// Evaluates the thunk (once) and returns a clone of the result.
    ///
    /// A concurrent force from another thread blocks until the in-flight
    /// evaluation finishes — the computation runs exactly once no matter
    /// how many threads share the thunk.
    ///
    /// # Panics
    /// Panics on re-entrant forcing from the same thread (a thunk whose
    /// computation forces itself), which would be a cyclic data dependency
    /// in the source program — and on forcing a thunk whose computation
    /// panicked on an earlier force (the cell is poisoned, never filled).
    pub fn force(&self) -> T {
        let me = std::thread::current().id();
        let mut guard = self.cell.lock();
        let f = loop {
            match std::mem::replace(&mut *guard, State::InFlight(me)) {
                State::Pending(f) => break f,
                State::Forced(v) => {
                    *guard = State::Forced(v.clone());
                    return v;
                }
                State::Poisoned => {
                    *guard = State::Poisoned;
                    panic!("thunk computation panicked on an earlier force")
                }
                State::InFlight(tid) => {
                    *guard = State::InFlight(tid);
                    if tid == me {
                        panic!("re-entrant thunk force: cyclic dependency")
                    }
                    guard = self
                        .cell
                        .ready
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        drop(guard);
        // The computation runs outside the lock: it may allocate and force
        // other thunks freely (only forcing *this* cell again is cyclic).
        // If it panics, the guard poisons the cell and wakes every waiter
        // so no thread is left hanging on a cell that will never fill.
        let mut poison = ForcePoisonGuard {
            cell: &self.cell,
            armed: true,
        };
        let v = f();
        poison.armed = false;
        *self.cell.lock() = State::Forced(v.clone());
        self.cell.ready.notify_all();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn force_memoizes() {
        let runs = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&runs);
        let t = Thunk::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
            42
        });
        assert_eq!(runs.load(Ordering::SeqCst), 0, "delayed until forced");
        assert_eq!(t.force(), 42);
        assert_eq!(t.force(), 42);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn clones_share_memoization() {
        let runs = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&runs);
        let t = Thunk::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
            "hello".to_string()
        });
        let t2 = t.clone();
        assert_eq!(t2.force(), "hello");
        assert_eq!(t.force(), "hello");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "re-entrant")]
    fn reentrant_force_panics() {
        let cell: Arc<Mutex<Option<Thunk<i32>>>> = Arc::new(Mutex::new(None));
        let c2 = Arc::clone(&cell);
        let t = Thunk::new(move || c2.lock().unwrap().as_ref().unwrap().force());
        *cell.lock().unwrap() = Some(t.clone());
        t.force();
    }

    #[test]
    fn thunks_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Thunk<i32>>();
    }

    #[test]
    fn panicking_computation_poisons_instead_of_hanging() {
        let t: Thunk<i32> = Thunk::new(|| panic!("boom"));
        let t2 = t.clone();
        // First force panics with the computation's own panic.
        let first = std::thread::spawn(move || t2.force()).join();
        assert!(first.is_err());
        // A later force (any thread) panics too — it must NOT hang waiting
        // for a fill that will never come.
        let t3 = t.clone();
        let second = std::thread::spawn(move || t3.force()).join();
        let err = second.expect_err("second force must panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("panicked"), "got: {msg}");
    }

    #[test]
    fn concurrent_forces_run_once() {
        let runs = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&runs);
        let t = Thunk::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
            // Slow computation: give racers time to pile onto InFlight.
            std::thread::sleep(std::time::Duration::from_millis(20));
            99
        });
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || t.force())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 99);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1, "evaluated exactly once");
    }
}
