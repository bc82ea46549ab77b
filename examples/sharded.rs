//! Sharded backend tour: TPC-C warehouses across a 4-shard fleet.
//!
//! ```sh
//! cargo run --example sharded
//! ```
//!
//! Builds a [`ShardedEnv`] partitioned by the TPC-C shard spec, seeds
//! four warehouses (DDL broadcasts, rows land on their owning shards),
//! then shows the three routing modes in action:
//!
//! 1. a point lookup riding the single-shard fast path,
//! 2. a batch of same-template lookups fusing into an `IN` probe that
//!    splits into per-shard sub-probes,
//! 3. a scattered aggregate re-aggregated at the router —
//!
//! and finishes by running a TPC-C transaction through the full Sloth
//! lazy pipeline on the fleet, unchanged.
//!
//! The `sharded_example` integration test executes [`run`] on every
//! `cargo test`, so this example can never rot.

use sloth::apps::tpcc::{seed_tpcc, tpcc_schema, tpcc_shard_spec};
use sloth::lang::{run_source, ExecStrategy, OptFlags, V};
use sloth::net::{CostModel, ShardedEnv};

/// The whole tour; returns the fleet so the smoke test can assert on it.
pub fn run() -> ShardedEnv {
    let fleet = ShardedEnv::new(CostModel::default(), tpcc_shard_spec(), 4);
    seed_tpcc(&fleet.handle(), 4);
    println!(
        "fleet: {} shards, spec {:?}",
        fleet.n_shards(),
        fleet.spec().entries()
    );
    println!(
        "stock rows per shard: {:?}",
        fleet.shard_row_counts("stock")
    );
    println!(
        "item rows per shard:  {:?} (replicated)",
        fleet.shard_row_counts("item")
    );

    // 1. Point lookup: `s_id` is stock's shard key, so this touches ONE
    // shard — no scatter, no merge.
    let rs = fleet
        .env()
        .query("SELECT quantity FROM stock WHERE s_id = 17")
        .unwrap();
    println!(
        "\npoint lookup s_id=17 -> quantity {} ({} point reads so far)",
        rs.get(0, "quantity").unwrap(),
        fleet.shard_stats().point_reads
    );

    // 2. A dashboard-style batch: 40 same-template lookups fuse into one
    // IN probe, which the router splits into per-shard sub-probes.
    let batch: Vec<String> = (1..=40)
        .map(|i| format!("SELECT * FROM stock WHERE s_id = {i}"))
        .collect();
    let results = fleet.env().query_batch(&batch).unwrap();
    let stats = fleet.env().stats();
    let shard_stats = fleet.shard_stats();
    println!(
        "\nbatch of {} lookups: {} fused group(s), {} per-shard sub-probes, \
         {} round trip(s) total so far, all {} results delivered",
        batch.len(),
        stats.fused_groups,
        shard_stats.fused_subprobes,
        stats.round_trips,
        results.len()
    );

    // 3. A scattered aggregate: every shard counts its own rows, the
    // router sums the partials.
    let low = fleet
        .env()
        .query("SELECT COUNT(*) FROM stock WHERE quantity < 25")
        .unwrap();
    println!(
        "\nscattered COUNT(*): {} low-stock rows ({} scatter reads so far)",
        low.get(0, "count").unwrap(),
        fleet.shard_stats().scatter_reads
    );

    // 4. The full Sloth pipeline — lazy evaluation, query store, batch
    // driver — runs on the fleet unchanged: the fleet handle IS a SimEnv.
    let src = r#"
        fn main(arg) {
            let c = query("SELECT name, balance FROM customer WHERE c_id = " + str(arg));
            print(cell(c, 0, "name"));
            let st = query("SELECT quantity FROM stock WHERE s_id = " + str(arg));
            print(str(cell(st, 0, "quantity")));
        }
    "#;
    let r = run_source(
        src,
        &fleet.handle(),
        tpcc_schema(),
        ExecStrategy::Sloth(OptFlags::all()),
        vec![V::Int(7)],
    )
    .expect("sharded page runs");
    println!(
        "\nSloth page on the fleet: output {:?}, {} round trip(s), {:.3} ms simulated",
        r.output,
        r.net.round_trips,
        r.net.total_ns() as f64 / 1e6
    );
    fleet
}

// Unused when the file is included by the `sharded_example` smoke test.
#[allow(dead_code)]
fn main() {
    run();
}
