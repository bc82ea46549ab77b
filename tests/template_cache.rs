//! One template cache a deployment: every layer that asks a statement's
//! template something — plan execution, footprints, fusion's shape check,
//! the shard router's route — reads one entry, parsed once.

use std::sync::Arc;

use sloth_apps::tpcc::{seed_tpcc, tpcc_schema, tpcc_shard_spec, tpcc_transactions};
use sloth_apps::{itracker_app, openmrs_app};
use sloth_lang::{parse_program, prepare_with_schema, ExecStrategy, OptFlags, V};
use sloth_net::{CostModel, ShardedEnv};

/// Distinct statement templates the five TPC-C transactions send: 9
/// reads, 7 updates, 3 inserts, and `BEGIN` / `COMMIT`.
const TPCC_TEMPLATES: usize = 21;

/// Seeding and the five TPC-C transactions, many times over on a 4-shard
/// fleet: the cache parses each template once — not once per shard
/// database, not once per execution of a write, and not again for the
/// footprint, the route or a fused group's shape.
#[test]
fn a_fleet_parses_each_tpcc_template_once() {
    let fleet = ShardedEnv::new(CostModel::default(), tpcc_shard_spec(), 4);
    let env = fleet.handle();
    seed_tpcc(&env, 4);
    let seeded = env.plan_cache_stats();
    let schema = tpcc_schema();
    let txns: Vec<_> = tpcc_transactions()
        .into_iter()
        .map(|(name, src)| {
            let program = parse_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let strategy = ExecStrategy::Sloth(OptFlags::all());
            (name, prepare_with_schema(&program, strategy, Some(&schema)))
        })
        .collect();
    // Round-robin, as a client mix would send them.
    for i in 0..1000 {
        let (name, prepared) = &txns[i % txns.len()];
        prepared
            .run(&env, Arc::clone(&schema), vec![V::Int(i as i64)])
            .unwrap_or_else(|e| panic!("{name}({i}): {e}"));
    }
    let s = env.plan_cache_stats();
    assert_eq!(s.entries - seeded.entries, TPCC_TEMPLATES, "{s:?}");
    assert_eq!(s.misses - seeded.misses, TPCC_TEMPLATES as u64, "{s:?}");
    assert_eq!(
        s.misses, s.entries as u64,
        "seeding parsed each template once too"
    );
    assert_eq!(s.evictions, 0);
    assert!(s.hits > 100 * TPCC_TEMPLATES as u64, "{s:?}");
    // The footprint getter reads the same counters: one cache.
    assert_eq!(env.footprint_cache_stats(), s);
}

/// The 150 pages twice over: the second pass fuses its groups again and
/// parses nothing — a group's shape is read off its template's entry.
#[test]
fn fusion_parses_nothing_per_batch() {
    for app in [itracker_app(), openmrs_app()] {
        let env = app.fresh_env(CostModel::default());
        let pages: Vec<_> = app
            .pages
            .iter()
            .map(|page| {
                let program = parse_program(&page.source).expect("page parses");
                let prepared = prepare_with_schema(
                    &program,
                    ExecStrategy::Sloth(OptFlags::all()),
                    Some(&app.schema),
                );
                (prepared, page.arg)
            })
            .collect();
        let pass = || {
            for (prepared, arg) in &pages {
                prepared
                    .run(&env, Arc::clone(&app.schema), vec![V::Int(*arg)])
                    .expect("page runs");
            }
        };
        pass();
        let first = env.plan_cache_stats();
        let fused = env.stats().fused_groups;
        pass();
        let second = env.plan_cache_stats();
        assert!(
            env.stats().fused_groups > fused,
            "{}: fused again",
            app.name
        );
        assert_eq!(second.misses, first.misses, "{}: parsed again", app.name);
        assert_eq!(second.entries, first.entries);
        assert!(second.hits > first.hits);
    }
}
