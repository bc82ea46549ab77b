//! Smoke tests wiring the remaining examples into `cargo test`, the way
//! `tests/sharded_example.rs` already covers `examples/sharded.rs`: each
//! example is compiled into this test crate and executed end to end, so
//! the documented tours can never silently rot.

#[path = "../examples/quickstart.rs"]
mod quickstart;

#[path = "../examples/issue_tracker.rs"]
mod issue_tracker;

#[path = "../examples/patient_dashboard.rs"]
mod patient_dashboard;

#[path = "../examples/kernel_language.rs"]
mod kernel_language;

#[test]
fn quickstart_example_runs_end_to_end() {
    let stats = quickstart::run();
    assert_eq!(stats.round_trips, 1, "both reads ship in one batch");
    assert_eq!(stats.queries, 2);
}

#[test]
fn issue_tracker_example_runs_end_to_end() {
    let output = issue_tracker::run();
    assert!(!output.is_empty(), "the page rendered something");
    assert!(
        output.iter().any(|l| l.contains("user=")),
        "framework header present: {output:?}"
    );
}

#[test]
fn patient_dashboard_example_runs_end_to_end() {
    let (page, original, sloth) = patient_dashboard::run();
    assert!(page.contains("Ada Lovelace"), "{page}");
    assert!(page.contains("checkup"), "encounters rendered: {page}");
    assert_eq!((original.round_trips, original.queries), (3, 3));
    assert_eq!(
        (sloth.round_trips, sloth.queries),
        (1, 3),
        "Fig. 2, one batch"
    );
}

#[test]
fn kernel_language_example_runs_end_to_end() {
    let rows = kernel_language::run();
    assert_eq!(rows.len(), 2);
    let (_, orig_out, orig_trips) = &rows[0];
    let (_, sloth_out, sloth_trips) = &rows[1];
    assert_eq!(orig_out, sloth_out, "semantics preserved");
    assert!(
        sloth_trips < orig_trips,
        "sloth batches the independent queries: {sloth_trips} vs {orig_trips}"
    );
}

#[path = "../examples/explain.rs"]
mod explain;

#[test]
fn explain_example_runs_end_to_end() {
    use sloth_core::{Demand, FlushReason};
    let explain::Explained {
        pages,
        over_one_trip,
        tpcc,
    } = explain::run();
    assert_eq!(pages.len(), 2, "one itracker page, one OpenMRS page");
    for flushes in &pages {
        assert!(!flushes.is_empty());
        // The framework preamble's dependent chains ride the first batch:
        // no flush of one statement before the page's big one. The
        // privilege guard forces it: `has_privilege`'s loop condition
        // reads the `len` of the privileges, which waits for it.
        let (first, reason) = flushes[0];
        assert!(first > 40, "the preamble ships whole: {flushes:?}");
        assert_eq!(reason, FlushReason::Force(Demand::Condition));
    }
    // The guarded body's reads ride the guard's flush: itracker's
    // error.jsp ships in that one flush, and so does the 1+N loop of
    // patientDashboardForm.jsp, one each-row read of its list.
    assert_eq!(pages[0].len(), 1, "error.jsp: {:?}", pages[0]);
    assert_eq!(
        pages[1].len(),
        1,
        "patientDashboardForm.jsp: {:?}",
        pages[1]
    );
    // No page of the 150 takes a second round trip.
    assert!(over_one_trip.is_empty(), "{over_one_trip:?}");

    // TPC-C's reads of raw result sets wait for whoever demands them: no
    // flush is forced by an eager argument. New order's inserts splice
    // `oid` and `oid * 100 + k + 10000` from the district's row: pending
    // text, each a dependant of that read, so the whole transaction ships
    // with the page's output.
    let trips: Vec<usize> = tpcc.iter().map(|(_, f)| f.len()).collect();
    assert_eq!(trips, [1, 1, 1, 1, 1], "{tpcc:?}");
    for (name, flushes) in &tpcc {
        assert!(
            flushes
                .iter()
                .all(|(_, r)| *r != FlushReason::Force(Demand::EagerArg)),
            "{name}: {flushes:?}"
        );
    }
    assert_eq!(tpcc[0].0, "New order");
    assert_eq!(tpcc[0].1, [(26, FlushReason::Force(Demand::Output))]);
    // Order status's lines ride the flush its `nrows(o) > 0` forces, bound
    // from `o`'s first row in the same trip.
    assert_eq!(tpcc[1].0, "Order status");
    assert_eq!(tpcc[1].1, [(3, FlushReason::Force(Demand::Condition))]);
    // Delivery's three `if (nrows(o) > 0)` arms register whole, their
    // reads and writes bound from each `o`'s row: everything ships with
    // the page's output, in one trip.
    assert_eq!(tpcc[4].0, "Delivery");
    assert_eq!(tpcc[4].1, [(14, FlushReason::Force(Demand::Output))]);
}
