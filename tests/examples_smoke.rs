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
    assert_eq!(stats.round_trips, 1, "both thunks ship in one batch");
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
    let (html, stats) = patient_dashboard::run();
    assert!(html.contains("Ada Lovelace"));
    assert!(html.contains("checkup"), "encounters rendered: {html}");
    assert_eq!(stats.round_trips, 2, "Fig. 2 batching");
    assert!(stats.queries >= 3);
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
    let (pages, tpcc) = explain::run();
    assert_eq!(pages.len(), 2, "one itracker page, one OpenMRS page");
    for flushes in &pages {
        assert!(!flushes.is_empty());
        // The framework preamble's dependent chains ride the first batch:
        // no flush of one statement before the page's big one. The
        // privilege guard forces it, at `has_privilege`'s `len`.
        let (first, reason) = flushes[0];
        assert!(first > 40, "the preamble ships whole: {flushes:?}");
        assert_eq!(reason, FlushReason::Force(Demand::EagerArg));
    }
    // The guarded body's reads ride the guard's flush: itracker's
    // error.jsp ships in that one flush.
    assert_eq!(pages[0].len(), 1, "error.jsp: {:?}", pages[0]);

    // TPC-C's reads of raw result sets wait for whoever demands them: no
    // flush is forced by an eager argument. New order ships its reads
    // when the `INSERT INTO orders` splices `oid` into its SQL, then
    // everything else with the page's output.
    let trips: Vec<usize> = tpcc.iter().map(|(_, f)| f.len()).collect();
    assert_eq!(trips, [2, 1, 1, 1, 4], "{tpcc:?}");
    for (name, flushes) in &tpcc {
        assert!(
            flushes
                .iter()
                .all(|(_, r)| *r != FlushReason::Force(Demand::EagerArg)),
            "{name}: {flushes:?}"
        );
    }
    assert_eq!(tpcc[0].0, "New order");
    assert_eq!(
        tpcc[0].1,
        [
            (4, FlushReason::Force(Demand::QueryParam)),
            (22, FlushReason::Force(Demand::Output)),
        ]
    );
    // Order status's lines ride the flush its `nrows(o) > 0` forces, bound
    // from `o`'s first row in the same trip.
    assert_eq!(tpcc[1].0, "Order status");
    assert_eq!(tpcc[1].1, [(3, FlushReason::Force(Demand::Condition))]);
}
