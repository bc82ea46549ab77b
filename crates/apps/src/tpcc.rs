//! TPC-C in the kernel language — used, as in the paper (§6.6), to
//! measure lazy-evaluation overhead. Every transaction displays its query
//! results as it goes; the buffered writer lets those reads wait for the
//! page's output, so what still costs a trip is a result that decides a
//! branch. SQL text spliced from a result's first row is pending text: the
//! statement registers as a dependant of that result, bound from its row
//! in the same trip — New order's inserts, which splice `oid` and `oid *
//! 100 + k + 10000`, and the statements heading the arm of an
//! `if (nrows(o) > 0)`, which register where the `if` stands. Order
//! status's order lines ride the flush its condition forces; every other
//! transaction forces nothing, and ships whole with the page's output.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sloth_net::SimEnv;
use sloth_orm::Schema;

/// TPC-C has no ORM mapping: raw JDBC-style SQL (empty entity schema).
pub fn tpcc_schema() -> Arc<Schema> {
    Arc::new(Schema::new())
}

/// Hash-partitioning spec for TPC-C on the sharded backend: warehouses
/// partition the fleet, and every other table shards by the id its point
/// lookups carry (district by `d_id`, customer by `c_id`, …), so the hot
/// transaction statements route to a single shard. `item` is the classic
/// read-only dimension table and stays replicated on every shard.
pub fn tpcc_shard_spec() -> sloth_sql::ShardSpec {
    sloth_sql::ShardSpec::new()
        .shard("warehouse", "w_id")
        .shard("district", "d_id")
        .shard("customer", "c_id")
        .shard("stock", "s_id")
        .shard("orders", "o_id")
        .shard("order_line", "o_id")
        .shard("history", "h_id")
}

/// Seeds a scaled-down TPC-C database (`warehouses` warehouses, 10
/// districts each, 30 customers per district, 100 items).
pub fn seed_tpcc(env: &SimEnv, warehouses: usize) {
    let mut rng = StdRng::seed_from_u64(0x7CC);
    let ddl = [
        "CREATE TABLE warehouse (w_id INT PRIMARY KEY, name TEXT, ytd FLOAT)",
        "CREATE TABLE district (d_id INT PRIMARY KEY, w_id INT, next_o_id INT, ytd FLOAT)",
        "CREATE TABLE customer (c_id INT PRIMARY KEY, d_id INT, name TEXT, balance FLOAT)",
        "CREATE TABLE item (i_id INT PRIMARY KEY, name TEXT, price FLOAT)",
        "CREATE TABLE stock (s_id INT PRIMARY KEY, i_id INT, w_id INT, quantity INT)",
        "CREATE TABLE orders (o_id INT PRIMARY KEY, c_id INT, d_id INT, carrier_id INT)",
        "CREATE TABLE order_line (ol_id INT PRIMARY KEY, o_id INT, i_id INT, qty INT, amount FLOAT)",
        "CREATE TABLE history (h_id INT PRIMARY KEY, c_id INT, amount FLOAT)",
        "CREATE INDEX ON district (w_id)",
        "CREATE INDEX ON customer (d_id)",
        "CREATE INDEX ON stock (i_id)",
        "CREATE INDEX ON orders (d_id)",
        "CREATE INDEX ON order_line (o_id)",
    ];
    for sql in ddl {
        env.seed_sql(sql).unwrap();
    }
    let mut d_id = 1;
    let mut c_id = 1;
    let mut s_id = 1;
    for w in 1..=warehouses as i64 {
        env.seed_sql(&format!(
            "INSERT INTO warehouse VALUES ({w}, 'wh-{w}', 0.0)"
        ))
        .unwrap();
        for _ in 0..10 {
            env.seed_sql(&format!(
                "INSERT INTO district VALUES ({d_id}, {w}, 1000, 0.0)"
            ))
            .unwrap();
            for _ in 0..30 {
                env.seed_sql(&format!(
                    "INSERT INTO customer VALUES ({c_id}, {d_id}, 'cust-{c_id}', {})",
                    rng.random_range(0..500)
                ))
                .unwrap();
                c_id += 1;
            }
            d_id += 1;
        }
        for i in 1..=100i64 {
            env.seed_sql(&format!(
                "INSERT INTO stock VALUES ({s_id}, {i}, {w}, {})",
                rng.random_range(10..100)
            ))
            .unwrap();
            s_id += 1;
        }
    }
    for i in 1..=100i64 {
        env.seed_sql(&format!(
            "INSERT INTO item VALUES ({i}, 'item-{i}', {})",
            rng.random_range(1..100)
        ))
        .unwrap();
    }
    // A few delivered orders so order-status/delivery have data.
    let mut ol = 1;
    for o in 1..=60i64 {
        env.seed_sql(&format!(
            "INSERT INTO orders VALUES ({o}, {}, {}, 0)",
            1 + (o % 30),
            1 + (o % 10)
        ))
        .unwrap();
        for _ in 0..3 {
            env.seed_sql(&format!(
                "INSERT INTO order_line VALUES ({ol}, {o}, {}, 2, 10.0)",
                1 + (ol % 100)
            ))
            .unwrap();
            ol += 1;
        }
    }
}

/// The five TPC-C transaction programs, keyed by the paper's Fig. 13 rows.
pub fn tpcc_transactions() -> Vec<(&'static str, String)> {
    vec![
        ("New order", NEW_ORDER.to_string()),
        ("Order status", ORDER_STATUS.to_string()),
        ("Stock level", STOCK_LEVEL.to_string()),
        ("Payment", PAYMENT.to_string()),
        ("Delivery", DELIVERY.to_string()),
    ]
}

const NEW_ORDER: &str = r#"
fn main(arg) {
    let cid = 1 + arg % 300;
    let did = 1 + arg % 10;
    begin();
    let c = query("SELECT name, balance FROM customer WHERE c_id = " + str(cid));
    print(cell(c, 0, "name"));
    let d = query("SELECT next_o_id FROM district WHERE d_id = " + str(did));
    let oid = cell(d, 0, "next_o_id");
    print(str(oid));
    exec("UPDATE district SET next_o_id = next_o_id + 1 WHERE d_id = " + str(did));
    exec("INSERT INTO orders (o_id, c_id, d_id, carrier_id) VALUES (" + str(oid) + ", " + str(cid) + ", " + str(did) + ", 0)");
    let k = 0;
    while (k < 5) {
        let iid = 1 + (arg + k * 17) % 100;
        let it = query("SELECT price FROM item WHERE i_id = " + str(iid));
        print(str(cell(it, 0, "price")));
        let st = query("SELECT quantity FROM stock WHERE s_id = " + str(iid));
        print(str(cell(st, 0, "quantity")));
        exec("UPDATE stock SET quantity = quantity - 1 WHERE s_id = " + str(iid));
        exec("INSERT INTO order_line (ol_id, o_id, i_id, qty, amount) VALUES (" + str(oid * 100 + k + 10000) + ", " + str(oid) + ", " + str(iid) + ", 1, 9.5)");
        k = k + 1;
    }
    commit();
    print("new order done");
}
"#;

const ORDER_STATUS: &str = r#"
fn main(arg) {
    let cid = 1 + arg % 300;
    let c = query("SELECT name, balance FROM customer WHERE c_id = " + str(cid));
    print(cell(c, 0, "name"));
    print(str(cell(c, 0, "balance")));
    let o = query("SELECT o_id, carrier_id FROM orders WHERE c_id = " + str(1 + arg % 30) + " ORDER BY o_id DESC LIMIT 1");
    if (nrows(o) > 0) {
        let oid = cell(o, 0, "o_id");
        print(str(oid));
        let lines = query("SELECT i_id, qty, amount FROM order_line WHERE o_id = " + str(oid));
        let i = 0;
        while (i < nrows(lines)) {
            print(str(cell(lines, i, "i_id")) + "/" + str(cell(lines, i, "amount")));
            i = i + 1;
        }
    }
    print("order status done");
}
"#;

const STOCK_LEVEL: &str = r#"
fn main(arg) {
    let did = 1 + arg % 10;
    let d = query("SELECT next_o_id FROM district WHERE d_id = " + str(did));
    print(str(cell(d, 0, "next_o_id")));
    let low = query("SELECT COUNT(*) FROM stock WHERE quantity < 25");
    print(str(cell(low, 0, "count")));
    print("stock level done");
}
"#;

const PAYMENT: &str = r#"
fn main(arg) {
    let cid = 1 + arg % 300;
    let did = 1 + arg % 10;
    let amount = 10 + arg % 40;
    begin();
    exec("UPDATE warehouse SET ytd = ytd + " + str(amount) + " WHERE w_id = 1");
    exec("UPDATE district SET ytd = ytd + " + str(amount) + " WHERE d_id = " + str(did));
    let c = query("SELECT name, balance FROM customer WHERE c_id = " + str(cid));
    print(cell(c, 0, "name"));
    exec("UPDATE customer SET balance = balance - " + str(amount) + " WHERE c_id = " + str(cid));
    exec("INSERT INTO history (h_id, c_id, amount) VALUES (" + str(arg + 100000) + ", " + str(cid) + ", " + str(amount) + ")");
    commit();
    print("payment done");
}
"#;

const DELIVERY: &str = r#"
fn main(arg) {
    let d = 1;
    begin();
    while (d <= 3) {
        let o = query("SELECT o_id, c_id FROM orders WHERE d_id = " + str(d) + " ORDER BY o_id LIMIT 1");
        if (nrows(o) > 0) {
            let oid = cell(o, 0, "o_id");
            let cid = cell(o, 0, "c_id");
            exec("UPDATE orders SET carrier_id = " + str(1 + arg % 10) + " WHERE o_id = " + str(oid));
            let amt = query("SELECT SUM(amount) FROM order_line WHERE o_id = " + str(oid));
            print(str(cell(amt, 0, "sum")));
            exec("UPDATE customer SET balance = balance + 1.0 WHERE c_id = " + str(cid));
        }
        d = d + 1;
    }
    commit();
    print("delivery done");
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use sloth_lang::{run_source, ExecStrategy, OptFlags};

    fn env() -> SimEnv {
        let env = SimEnv::default_env();
        seed_tpcc(&env, 1);
        env
    }

    #[test]
    fn all_transactions_parse_and_run_in_both_modes() {
        for (name, src) in tpcc_transactions() {
            let e1 = env();
            let o = run_source(
                &src,
                &e1,
                tpcc_schema(),
                ExecStrategy::Original,
                vec![sloth_lang::V::Int(7)],
            )
            .unwrap_or_else(|e| panic!("{name} original failed: {e}"));
            let e2 = env();
            let s = run_source(
                &src,
                &e2,
                tpcc_schema(),
                ExecStrategy::Sloth(OptFlags::all()),
                vec![sloth_lang::V::Int(7)],
            )
            .unwrap_or_else(|e| panic!("{name} sloth failed: {e}"));
            assert_eq!(o.output, s.output, "{name} output must match");
            assert!(!o.output.is_empty());
        }
    }

    #[test]
    fn order_status_batches_its_independent_reads() {
        // The customer's cells wait for the page's output, so its query
        // rides the flush the `nrows(o)` condition forces; so do the order
        // lines, which head the guarded arm: keyed by `o`'s first row, they
        // register where the `if` stands and bind from it in the same trip.
        let (_, src) = &tpcc_transactions()[1]; // order status (read-only)
        let e = env();
        let s = run_source(
            src,
            &e,
            tpcc_schema(),
            ExecStrategy::Sloth(OptFlags::all()),
            vec![sloth_lang::V::Int(3)],
        )
        .unwrap();
        let store = s.store.unwrap();
        assert_eq!(store.batch_sizes, vec![3]);
    }

    #[test]
    fn delivery_ships_in_one_batch() {
        // Each iteration's arm — two writes and a read, spliced from `o`'s
        // row — registers where its `if` stands, inside the silent
        // transaction: the page's output ships all fourteen statements.
        let (_, src) = &tpcc_transactions()[4];
        let (orig, lazy) = (env(), env());
        let run = |e: &SimEnv, strategy| {
            run_source(src, e, tpcc_schema(), strategy, vec![sloth_lang::V::Int(3)]).unwrap()
        };
        let o = run(&orig, ExecStrategy::Original);
        let s = run(&lazy, ExecStrategy::Sloth(OptFlags::all()));
        assert_eq!(o.output, s.output);
        assert_eq!(s.store.unwrap().batch_sizes, vec![14]);
        let state = |e: &SimEnv| {
            let sql = "SELECT o_id, carrier_id FROM orders ORDER BY o_id";
            let orders = e.seed(|db| db.execute(sql).unwrap()).result;
            let sql = "SELECT c_id, balance FROM customer ORDER BY c_id";
            (orders, e.seed(|db| db.execute(sql).unwrap()).result)
        };
        assert_eq!(state(&orig), state(&lazy));
    }

    /// Every TPC-C transaction produces identical output on a 4-shard
    /// fleet partitioned by [`tpcc_shard_spec`], in both execution modes,
    /// with the same round trips.
    #[test]
    fn transactions_run_sharded_by_warehouse() {
        for (name, src) in tpcc_transactions() {
            for strategy in [ExecStrategy::Original, ExecStrategy::Sloth(OptFlags::all())] {
                let single = env();
                let fleet = sloth_net::ShardedEnv::new(
                    sloth_net::CostModel::default(),
                    tpcc_shard_spec(),
                    4,
                );
                seed_tpcc(&fleet.handle(), 1);
                let a = run_source(
                    &src,
                    &single,
                    tpcc_schema(),
                    strategy,
                    vec![sloth_lang::V::Int(7)],
                )
                .unwrap_or_else(|e| panic!("{name} single failed: {e}"));
                let b = run_source(
                    &src,
                    &fleet.handle(),
                    tpcc_schema(),
                    strategy,
                    vec![sloth_lang::V::Int(7)],
                )
                .unwrap_or_else(|e| panic!("{name} sharded failed: {e}"));
                assert_eq!(a.output, b.output, "{name} output must match sharded");
                assert_eq!(
                    a.net.round_trips, b.net.round_trips,
                    "{name}: sharding must not change round trips"
                );
            }
        }
    }

    #[test]
    fn new_order_updates_stock() {
        let e = env();
        let before = e
            .seed(|db| db.execute("SELECT SUM(quantity) FROM stock").unwrap())
            .result;
        let (_, src) = &tpcc_transactions()[0];
        run_source(
            src,
            &e,
            tpcc_schema(),
            ExecStrategy::Original,
            vec![sloth_lang::V::Int(1)],
        )
        .unwrap();
        let after = e
            .seed(|db| db.execute("SELECT SUM(quantity) FROM stock").unwrap())
            .result;
        let b = before.rows[0][0].as_i64().unwrap();
        let a = after.rows[0][0].as_i64().unwrap();
        assert_eq!(a, b - 5, "five order lines decrement stock");
    }
}
