//! Request lists: what each workload asks of the product, as a function of
//! the seed alone. Nothing here touches the product; `workload.rs` turns a
//! plan into deployments and an oracle.

use crate::stats::{Fnv, Rng};

/// Rows of the grown `issue` table in `write_big` (two activities each).
pub const BIG_ISSUES: i64 = 20_000;
/// Rows of the benchmark's `bench_note` table in `hot_cached`: four times
/// the result cache's 512 entries, so point reads over it evict.
pub const NOTE_ROWS: i64 = 2_000;
/// Views in `hot_cached`'s warm-up: more than the result cache holds.
const CACHE_FILL: usize = 600;
/// `issue.triage(p)` updates this many consecutive issues.
pub const TRIAGE_RUN: i64 = 8;
/// Distinct ids the write pages of `write_big` draw from. A write on the
/// 20 000-row table costs the eager oracle 8 ms (save) to 34 ms (triage) of
/// table cloning, so the serial replay that yields the reference bodies
/// and the end-state checksum is run once per distinct id; the written
/// values are constant functions of the id, so replaying an id twice
/// changes nothing. View ids stay uniform over the whole table.
pub const SAVE_POOL: usize = 64;
pub const TRIAGE_POOL: usize = 8;
/// Requests per chunk. A run is cut into chunks of consecutive requests
/// and every chunk yields its own median, tail and rate (see
/// `measure.rs`). 300 is two rounds of the 150 pages, sixty rounds of the
/// five transactions, and leaves p95 fifteen samples beyond it.
pub const CHUNK: usize = 300;

/// One route of a site: the page's name, the argument the application
/// itself benchmarks it with, the class it is reported under, and whether
/// it writes.
#[derive(Clone, Debug)]
pub struct RouteInfo {
    pub name: String,
    pub own_arg: i64,
    pub class: &'static str,
    pub write: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Req {
    pub site: u8,
    pub route: u16,
    pub arg: i64,
}

pub struct Plan {
    /// Served first, untimed and checked: fills plan, footprint and result
    /// caches so the timed part measures the steady state.
    pub warmup: Vec<Req>,
    pub timed: Vec<Req>,
    /// `timed` is made of whole groups of this many requests (a round of
    /// every page, the five transactions); the traced pass splits it in two
    /// at a group boundary so both halves carry the same mix.
    pub unit: usize,
}

impl Plan {
    /// Identifies the request list: same seed, same hash.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        for (tag, list) in [(0u8, &self.warmup), (1u8, &self.timed)] {
            h.write(&[tag]);
            for r in list {
                h.write(&[r.site]);
                h.write(&r.route.to_le_bytes());
                h.write(&r.arg.to_le_bytes());
            }
        }
        h.finish()
    }
}

/// Pages per second of budget, calibrated at the commit that introduced
/// the benchmark on its 2-core sandbox so that `--seconds s` measures for
/// about `s` seconds there. The count, not the time, is what a run fixes:
/// TPC-C's tables grow with every transaction, so fixing the time would
/// make the data size depend on the speed being measured.
fn count(per_second: f64, scale: f64, at_least: usize) -> usize {
    ((per_second * scale).round() as usize).max(at_least)
}

fn rounds_of(sites: &[Vec<RouteInfo>], rounds: usize, rng: &mut Rng) -> Vec<Req> {
    let base: Vec<Req> = sites
        .iter()
        .enumerate()
        .flat_map(|(s, routes)| {
            routes.iter().enumerate().map(move |(r, info)| Req {
                site: s as u8,
                route: r as u16,
                arg: info.own_arg,
            })
        })
        .collect();
    let mut out = Vec::with_capacity(base.len() * rounds);
    for _ in 0..rounds {
        let mut round = base.clone();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

/// `read_pages` (1 round per second) and `cpu_pages` (2.2): every page of
/// both applications once per round, each round shuffled afresh.
pub fn page_rounds(sites: &[Vec<RouteInfo>], rounds_per_s: f64, scale: f64, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let rounds = count(rounds_per_s, scale, 1);
    Plan {
        warmup: rounds_of(sites, 1, &mut rng),
        timed: rounds_of(sites, rounds, &mut rng),
        unit: sites.iter().map(Vec::len).sum(),
    }
}

/// Requests per block of a mixed workload. A list is a sequence of blocks,
/// each holding the workload's mix exactly (in twentieths) and shuffled
/// within itself, so every stretch of the list carries the same work: a
/// count such as trips per page does not wander with the draw, and the
/// chunks a run is cut into are comparable.
const BLOCK: usize = 20;

/// `blocks` blocks; `fill` pushes one block's requests in any order.
fn blocks(blocks: usize, rng: &mut Rng, mut fill: impl FnMut(&mut Vec<Req>, &mut Rng)) -> Vec<Req> {
    let mut list = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(BLOCK);
        fill(&mut block, rng);
        debug_assert_eq!(block.len(), BLOCK);
        rng.shuffle(&mut block);
        list.extend(block);
    }
    list
}

/// Route indices of the benchmark-owned pages appended to the itracker
/// site, in mount order (see `workload.rs`).
pub struct OwnRoutes {
    pub first: u16,
}

/// `write_big`: 25 % `issue.save`, 5 % `issue.triage`, 70 % `issue.view`
/// (5, 1 and 14 of every 20 requests).
pub fn write_big(own: &OwnRoutes, scale: f64, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let (save, triage, view) = (own.first, own.first + 1, own.first + 2);
    let save_pool: Vec<i64> = (0..SAVE_POOL).map(|_| rng.range(1, BIG_ISSUES)).collect();
    let triage_pool: Vec<i64> = (0..TRIAGE_POOL)
        .map(|_| rng.range(1, BIG_ISSUES - TRIAGE_RUN + 1))
        .collect();
    let fill = |block: &mut Vec<Req>, rng: &mut Rng| {
        for _ in 0..5 {
            let arg = save_pool[rng.below(SAVE_POOL as u64) as usize];
            block.push(Req {
                site: 0,
                route: save,
                arg,
            });
        }
        let arg = triage_pool[rng.below(TRIAGE_POOL as u64) as usize];
        block.push(Req {
            site: 0,
            route: triage,
            arg,
        });
        for _ in 0..14 {
            let arg = rng.range(1, BIG_ISSUES);
            block.push(Req {
                site: 0,
                route: view,
                arg,
            });
        }
    };
    let warmup = blocks(count(1.0, scale, 1), &mut rng, fill);
    let timed = blocks(count(15.0, scale, 2), &mut rng, fill);
    Plan {
        warmup,
        timed,
        unit: BLOCK,
    }
}

/// `tpcc_sharded`: the five transactions round-robin, argument = a seeded
/// offset plus the iteration.
pub fn tpcc(scale: f64, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let offset = rng.range(0, 299);
    let list = |from: usize, n: usize| -> Vec<Req> {
        (from..from + n)
            .map(|i| Req {
                site: 0,
                route: (i % 5) as u16,
                arg: offset + i as i64,
            })
            .collect()
    };
    let warm = 5 * count(4.0, scale, 1);
    let timed = 5 * count(48.0, scale, 4);
    Plan {
        warmup: list(0, warm),
        timed: list(warm, timed),
        unit: 5,
    }
}

/// `hot_cached`: 80 % the itracker pages at their own arguments, 15 %
/// `note.view`, 5 % `note.touch` (16, 3 and 1 of every 20 requests).
pub fn hot_cached(routes: &[RouteInfo], own: &OwnRoutes, scale: f64, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let (view, touch) = (own.first, own.first + 1);
    // The application's pages in a seeded order, dealt round-robin, so any
    // stretch of the list holds each of them equally often.
    let mut app_pages: Vec<u16> = (0..own.first).collect();
    rng.shuffle(&mut app_pages);
    let mut dealt = 0usize;
    // Views take distinct ids (a seeded permutation, wrapping after all
    // 2 000): every one is a miss that fills and, past 512 entries, evicts.
    // A touch picks one of the ids viewed so far, whose entry may still be
    // cached.
    let mut ids: Vec<i64> = (1..=NOTE_ROWS).collect();
    rng.shuffle(&mut ids);
    let mut viewed = 0usize;
    let fill = |block: &mut Vec<Req>, rng: &mut Rng| {
        for _ in 0..16 {
            let route = app_pages[dealt % app_pages.len()];
            dealt += 1;
            block.push(Req {
                site: 0,
                route,
                arg: routes[route as usize].own_arg,
            });
        }
        for _ in 0..3 {
            let arg = ids[viewed % ids.len()];
            viewed += 1;
            block.push(Req {
                site: 0,
                route: view,
                arg,
            });
        }
        let arg = ids[rng.below(viewed as u64) as usize % ids.len()];
        block.push(Req {
            site: 0,
            route: touch,
            arg,
        });
    };
    let timed = blocks(count(19.5, scale, 3), &mut rng, fill);
    // The warm-up serves every application page once and enough views,
    // over ids the timed part does not reach, to fill the cache: from the
    // first timed request on, every fill evicts.
    let mut warmup: Vec<Req> = (0..own.first)
        .map(|route| Req {
            site: 0,
            route,
            arg: routes[route as usize].own_arg,
        })
        .collect();
    warmup.extend(ids.iter().rev().take(CACHE_FILL).map(|id| Req {
        site: 0,
        route: view,
        arg: *id,
    }));
    rng.shuffle(&mut warmup);
    Plan {
        warmup,
        timed,
        unit: BLOCK,
    }
}

// --- benchmark-owned kernel pages -------------------------------------------
//
// Every write stores a constant function of the id and every page prints
// only values no interleaving of the two clients can change, so a page's
// body has one right answer whatever ran beside it.

/// `BEGIN`, a read, two `UPDATE`s, a read-back of the own write, `COMMIT`.
pub const ISSUE_SAVE: &str = r#"
fn main(id) {
    exec("BEGIN");
    let before = query("SELECT title FROM issue WHERE issue_id = " + str(id));
    exec("UPDATE issue SET status = " + str(id % 3) + " WHERE issue_id = " + str(id));
    exec("UPDATE issue SET severity = " + str(1 + id % 5) + " WHERE issue_id = " + str(id));
    let after = query("SELECT status, severity FROM issue WHERE issue_id = " + str(id));
    exec("COMMIT");
    print(cell(before, 0, "title"));
    print(cell(after, 0, "status"));
    print(cell(after, 0, "severity"));
    print("saved");
}
"#;

/// A run of updates to consecutive issues: nothing reads them, so all may
/// be deferred to the end of the request.
pub const ISSUE_TRIAGE: &str = r#"
fn main(p) {
    let k = 0;
    while (k < 8) {
        let id = p + k;
        exec("UPDATE issue SET status = " + str(id % 3) + " WHERE issue_id = " + str(id));
        k = k + 1;
    }
    print("triaged");
}
"#;

/// Three reads: the issue by key, its activities, its project. Prints only
/// columns no page writes.
pub const ISSUE_VIEW: &str = r#"
fn main(id) {
    let i = orm_find("issue", id);
    let acts = orm_assoc(i, "activities");
    let p = orm_assoc(i, "project");
    print(i.title);
    print(p.name);
    print(len(acts));
    print(at(acts, 0).note);
}
"#;

/// One point read over the note table; prints the column nothing writes.
pub const NOTE_VIEW: &str = r#"
fn main(id) {
    let r = query("SELECT body, seen FROM bench_note WHERE id = " + str(id));
    print(cell(r, 0, "body"));
}
"#;

/// A constant write and a read-back through the same statement `note.view`
/// caches: a stale cache entry would print the old `seen`.
pub const NOTE_TOUCH: &str = r#"
fn main(id) {
    exec("UPDATE bench_note SET seen = 1 WHERE id = " + str(id));
    let r = query("SELECT body, seen FROM bench_note WHERE id = " + str(id));
    print(cell(r, 0, "seen"));
    print("touched");
}
"#;

/// Multi-row `INSERT`s that grow itracker's 500 issues / 1 000 activities
/// to [`BIG_ISSUES`] and twice that, every value a function of the id.
pub fn grow_issue_sql() -> Vec<String> {
    const CHUNK: i64 = 500;
    let mut out = Vec::new();
    let mut chunk = |table: &str, from: i64, to: i64, row: &dyn Fn(i64) -> String| {
        let mut id = from;
        while id <= to {
            let rows: Vec<String> = (id..(id + CHUNK).min(to + 1)).map(row).collect();
            out.push(format!("INSERT INTO {table} VALUES {}", rows.join(", ")));
            id += CHUNK;
        }
    };
    chunk("issue", 501, BIG_ISSUES, &|i| {
        format!(
            "({i}, {}, 'issue-{i}', {}, {}, {})",
            1 + i % 10,
            1 + (i * 7) % 5,
            (i * 11) % 3,
            1 + i % 20
        )
    });
    chunk("activity", 1001, 2 * BIG_ISSUES, &|a| {
        format!("({a}, {}, 'note-{a}')", (a + 1) / 2)
    });
    out
}

pub fn note_table_sql() -> Vec<String> {
    let rows: Vec<String> = (1..=NOTE_ROWS)
        .map(|i| format!("({i}, 'note body {i}', 0)"))
        .collect();
    vec![
        "CREATE TABLE bench_note (id INT PRIMARY KEY, body TEXT, seen INT)".to_string(),
        format!("INSERT INTO bench_note VALUES {}", rows.join(", ")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routes(n: usize) -> Vec<RouteInfo> {
        (0..n)
            .map(|i| RouteInfo {
                name: format!("p{i}"),
                own_arg: i as i64,
                class: "page",
                write: false,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        let sites = vec![routes(38), routes(112)];
        let own = OwnRoutes { first: 38 };
        let plans = |seed: u64| {
            [
                page_rounds(&sites, 1.0, 1.0, seed).hash(),
                write_big(&own, 1.0, seed).hash(),
                tpcc(1.0, seed).hash(),
                hot_cached(&sites[0], &own, 1.0, seed).hash(),
            ]
        };
        assert_eq!(plans(11), plans(11));
        let (a, b) = (plans(11), plans(12));
        for i in 0..a.len() {
            assert_ne!(a[i], b[i], "plan {i} ignores the seed");
        }
    }

    #[test]
    fn mixes_are_exact() {
        let own = OwnRoutes { first: 38 };
        let plan = write_big(&own, 10.0, 5);
        assert_eq!(plan.timed.len(), 3000);
        for chunk in plan.timed.chunks(CHUNK) {
            assert_eq!(
                chunk.iter().filter(|r| r.route == 38).count() * 4,
                chunk.len()
            );
            assert_eq!(
                chunk.iter().filter(|r| r.route == 39).count() * 20,
                chunk.len()
            );
        }
        let hot = hot_cached(&routes(38), &own, 10.0, 5);
        assert_eq!(hot.timed.len(), 3900);
        for chunk in hot.timed.chunks(CHUNK) {
            assert_eq!(
                chunk.iter().filter(|r| r.route == 38).count() * 20,
                chunk.len() * 3
            );
            assert_eq!(
                chunk.iter().filter(|r| r.route == 39).count() * 20,
                chunk.len()
            );
            let page0 = chunk.iter().filter(|r| r.route == 0).count();
            assert!(
                (6..=7).contains(&page0),
                "each page about equally often: {page0}"
            );
        }
        assert_eq!(CHUNK % plan.unit, 0);
        let rounds = page_rounds(&[routes(38), routes(112)], 1.0, 0.3, 1);
        assert_eq!(rounds.timed.len() % 150, 0);
        assert_eq!(rounds.warmup.len(), 150);
        // A chunk holds whole rounds of every workload's unit.
        assert_eq!(CHUNK % rounds.unit, 0);
        assert_eq!(CHUNK % tpcc(1.0, 1).unit, 0);
    }

    #[test]
    fn growth_sql_reaches_the_stated_sizes() {
        let sql = grow_issue_sql();
        let rows: usize = sql.iter().map(|s| s.matches("), (").count() + 1).sum();
        assert_eq!(rows as i64, (BIG_ISSUES - 500) + (2 * BIG_ISSUES - 1000));
    }
}
