//! The **write-mix workloads**: the deterministic write-mixed pages the
//! `deferral` and `chaos` figures both measure, so the documents compose.
//!
//! 1. TPC-C **new-order** and **payment** (plus delivery), the paper's
//!    write-heavy transactions, driven through the Sloth-compiled kernel
//!    programs;
//! 2. itracker-style **update pages** (edit-issue save and a triage
//!    sweep) against the itracker schema.
//!
//! Beside the pages live what the figures over them share: the per-side
//! counter aggregate ([`WriteMixMeasure`]) and the final-state
//! fingerprint they (and the `cache` figure) compare byte for byte.

use std::sync::Arc;

use sloth_apps::{itracker_app, tpcc};
use sloth_lang::{prepare_with_schema, ExecStrategy, OptFlags, Prepared, RunResult};
use sloth_net::{CostModel, SimEnv};
use sloth_orm::Schema;
use sloth_sql::Database;

/// The TPC-C write transactions as **pages**: same statements as the
/// Fig. 13 overhead programs, but rendering at the end of the
/// transaction instead of interleaved `cell()` forces — the shape a
/// Sloth-compiled page produces (display is deferred), and the shape
/// where a flush per write actually costs round trips.
/// `tpcc.rs` keeps the paper's display-immediately variants for the
/// overhead figure.
fn tpcc_write_pages() -> Vec<(&'static str, String)> {
    let new_order = r#"
fn main(arg) {
    let cid = 1 + arg % 300;
    let did = 1 + arg % 10;
    begin();
    let c = query("SELECT name, balance FROM customer WHERE c_id = " + str(cid));
    let d = query("SELECT next_o_id FROM district WHERE d_id = " + str(did));
    let oid = 1000 + arg;
    exec("UPDATE district SET next_o_id = next_o_id + 1 WHERE d_id = " + str(did));
    exec("INSERT INTO orders (o_id, c_id, d_id, carrier_id) VALUES (" + str(oid) + ", " + str(cid) + ", " + str(did) + ", 0)");
    let k = 0;
    while (k < 5) {
        let iid = 1 + (arg + k * 17) % 100;
        let it = query("SELECT price FROM item WHERE i_id = " + str(iid));
        let st = query("SELECT quantity FROM stock WHERE s_id = " + str(iid));
        exec("UPDATE stock SET quantity = quantity - 1 WHERE s_id = " + str(iid));
        exec("INSERT INTO order_line (ol_id, o_id, i_id, qty, amount) VALUES (" + str(oid * 100 + k) + ", " + str(oid) + ", " + str(iid) + ", 1, 9.5)");
        print(str(cell(it, 0, "price")));
        print(str(cell(st, 0, "quantity")));
        k = k + 1;
    }
    commit();
    print(cell(c, 0, "name"));
    print(str(cell(d, 0, "next_o_id")));
    print("new order done");
}
"#;
    let payment = r#"
fn main(arg) {
    let cid = 1 + arg % 300;
    let did = 1 + arg % 10;
    let amount = 10 + arg % 40;
    begin();
    let w = query("SELECT ytd FROM warehouse WHERE w_id = 1");
    let d = query("SELECT ytd FROM district WHERE d_id = " + str(did));
    let c = query("SELECT name, balance FROM customer WHERE c_id = " + str(cid));
    exec("UPDATE warehouse SET ytd = ytd + " + str(amount) + " WHERE w_id = 1");
    exec("UPDATE district SET ytd = ytd + " + str(amount) + " WHERE d_id = " + str(did));
    exec("UPDATE customer SET balance = balance - " + str(amount) + " WHERE c_id = " + str(cid));
    exec("INSERT INTO history (h_id, c_id, amount) VALUES (" + str(arg + 100000) + ", " + str(cid) + ", " + str(amount) + ")");
    commit();
    print(cell(c, 0, "name"));
    print(str(cell(w, 0, "ytd")));
    print(str(cell(d, 0, "ytd")));
    print("payment done");
}
"#;
    let delivery = r#"
fn main(arg) {
    let d = 1;
    begin();
    while (d <= 3) {
        let o = query("SELECT o_id, c_id FROM orders WHERE d_id = " + str(d) + " ORDER BY o_id LIMIT 1");
        let oid = cell(o, 0, "o_id");
        let cid = cell(o, 0, "c_id");
        let amt = query("SELECT SUM(amount) FROM order_line WHERE o_id = " + str(oid));
        exec("UPDATE orders SET carrier_id = " + str(1 + arg % 10) + " WHERE o_id = " + str(oid));
        exec("UPDATE customer SET balance = balance + 1.0 WHERE c_id = " + str(cid));
        print(str(cell(amt, 0, "sum")));
        d = d + 1;
    }
    commit();
    print("delivery done");
}
"#;
    vec![
        ("tpcc new_order", new_order.to_string()),
        ("tpcc payment", payment.to_string()),
        ("tpcc delivery", delivery.to_string()),
    ]
}

/// Aggregated driver counters for one measurement side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteMixMeasure {
    /// Database round trips.
    pub round_trips: u64,
    /// Application-issued statements.
    pub queries: u64,
    /// Simulated database time (ns).
    pub db_ns: u64,
    /// Simulated network time (ns).
    pub network_ns: u64,
    /// Total simulated latency (ns).
    pub total_ns: u64,
    /// Flushes forced by a write registration.
    pub write_flushes: u64,
    /// Conflict segments across all shipped batches.
    pub segments: u64,
    /// Largest batch in one round trip.
    pub max_batch: u64,
}

impl WriteMixMeasure {
    pub(crate) fn add(&mut self, r: &RunResult) {
        self.round_trips += r.net.round_trips;
        self.queries += r.net.queries;
        self.db_ns += r.net.db_ns;
        self.network_ns += r.net.network_ns;
        self.total_ns += r.net.total_ns();
        if let Some(s) = &r.store {
            self.write_flushes += s.write_flushes;
            self.segments += s.segments;
            self.max_batch = self.max_batch.max(s.max_batch() as u64);
        }
    }
}

/// itracker-style update pages: the mutating counterparts of the app's
/// read-only benchmark pages, written directly in the kernel language.
fn itracker_update_pages() -> Vec<(&'static str, String)> {
    // edit_issue save action: load the issue and its project header,
    // apply the edit and its audit-trail insert, render the confirmation.
    let edit_issue_save = r#"
fn main(arg) {
    let iid = 1 + arg % 40;
    let i = query("SELECT title, severity, project_id FROM issue WHERE issue_id = " + str(iid));
    let p = query("SELECT name, status FROM project WHERE project_id = " + str(1 + arg % 10));
    exec("UPDATE issue SET severity = " + str(1 + arg % 4) + " WHERE issue_id = " + str(iid));
    exec("INSERT INTO activity (activity_id, issue_id, note) VALUES (" + str(91000 + arg) + ", " + str(iid) + ", 'edited')");
    print(cell(i, 0, "title"));
    print(cell(p, 0, "name"));
    print("issue saved");
}
"#;
    // Transactional triage sweep: read the queue header, bump two issues
    // and stamp the project, all inside one transaction.
    let triage_sweep = r#"
fn main(arg) {
    let pid = 1 + arg % 10;
    begin();
    let p = query("SELECT name FROM project WHERE project_id = " + str(pid));
    let head = query("SELECT issue_id, severity FROM issue WHERE issue_id = " + str(1 + arg % 40));
    exec("UPDATE issue SET status = 2 WHERE issue_id = " + str(1 + arg % 40));
    let next = query("SELECT issue_id FROM issue WHERE issue_id = " + str(2 + arg % 40));
    exec("UPDATE issue SET status = 3 WHERE issue_id = " + str(2 + arg % 40));
    exec("UPDATE project SET status = 1 WHERE project_id = " + str(pid));
    commit();
    print(cell(p, 0, "name"));
    print(str(cell(head, 0, "severity")));
    print(str(nrows(next)));
    print("triage done");
}
"#;
    vec![
        ("itracker edit_issue.save", edit_issue_save.to_string()),
        ("itracker triage_sweep", triage_sweep.to_string()),
    ]
}

/// Dumps the mutated tables so both sides' final states can be compared
/// byte for byte.
pub(crate) fn db_fingerprint(env: &SimEnv, tables: &[&str]) -> Vec<String> {
    env.seed(|db| {
        tables
            .iter()
            .map(|t| {
                format!(
                    "{:?}",
                    db.execute(&format!("SELECT * FROM {t}")).unwrap().result
                )
            })
            .collect()
    })
}

/// One write-mixed workload, compiled once and shared by every figure
/// over the write mix.
pub(crate) struct Workload {
    pub(crate) name: String,
    pub(crate) prepared: Prepared,
    pub(crate) schema: Arc<Schema>,
    pub(crate) seed_db: Database,
    pub(crate) txns: usize,
    pub(crate) tables: Vec<&'static str>,
}

/// The write-mixed workload set: TPC-C write-transaction pages plus the
/// itracker update pages, compiled once.
pub(crate) fn write_mix_workloads() -> Vec<Workload> {
    let mut workloads = Vec::new();

    // TPC-C write transactions.
    let tpcc_env = SimEnv::default_env();
    tpcc::seed_tpcc(&tpcc_env, 1);
    let tpcc_db = tpcc_env.snapshot_db();
    let tpcc_tables = vec![
        "warehouse",
        "district",
        "customer",
        "stock",
        "orders",
        "order_line",
        "history",
    ];
    for (name, src) in tpcc_write_pages() {
        let program = sloth_lang::parse_program(&src).expect("tpcc page parses");
        workloads.push(Workload {
            name: name.to_string(),
            prepared: prepare_with_schema(
                &program,
                ExecStrategy::Sloth(OptFlags::all()),
                Some(&tpcc::tpcc_schema()),
            ),
            schema: tpcc::tpcc_schema(),
            seed_db: tpcc_db.clone(),
            txns: 25,
            tables: tpcc_tables.clone(),
        });
    }

    // itracker update pages.
    let it = itracker_app();
    let it_db = it.fresh_env(CostModel::default()).snapshot_db();
    for (name, src) in itracker_update_pages() {
        let program = sloth_lang::parse_program(&src).expect("update page parses");
        workloads.push(Workload {
            name: name.to_string(),
            prepared: prepare_with_schema(
                &program,
                ExecStrategy::Sloth(OptFlags::all()),
                Some(&it.schema),
            ),
            schema: Arc::clone(&it.schema),
            seed_db: it_db.clone(),
            txns: 25,
            tables: vec!["issue", "activity", "project"],
        });
    }

    workloads
}
