//! The **snapshot-overlap figure**: a read-mostly workload measuring how
//! much reader throughput MVCC snapshot reads preserve while a hot
//! writer churns, and what they do to the read tail.
//!
//! Two real-thread passes over the same single-server deployment
//! (rtt 0 — the figure isolates *lock* behaviour, not the wire):
//!
//! 1. **baseline** — no writer: the reader fleet's unobstructed
//!    throughput.
//! 2. **hot_snapshot** — plus a writer that commits a small update and
//!    holds the write order open for [`SnapshotCfg::write_hold_ns`] real
//!    nanoseconds per batch (the injected "hot writer"). Readers execute
//!    against published snapshots and never take the lock.
//!
//! The headline metric is **overlap**: with the writer busy a fraction
//! `f` of the wall clock holding the write guard, a reader fleet that
//! serialized behind it would retain at most `1 − f` of its baseline
//! throughput. So
//!
//! ```text
//! overlap = (hot_reads_per_s / baseline_reads_per_s) / (1 − f)
//! ```
//!
//! is ≈ 1 for fully-serialized readers and rises towards `1/(1 − f)` as
//! readers overlap the writer. The release gate requires `overlap > 1`
//! (readers demonstrably ran *during* the writer's lock hold) and that
//! the hot pass's read p99 stays below one write hold (a reader that had
//! waited out a single hold could not pass).
//!
//! Readers only touch the `item` table; the writer only churns the
//! disjoint `churn` table — so every read's expected rows are known
//! statically and the harness checks them on every single batch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sloth_net::{CostModel, SimEnv};

/// Parameters of the snapshot-overlap measurement.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCfg {
    /// Closed-loop reader threads.
    pub readers: usize,
    /// Measurement wall-clock duration per pass.
    pub duration: Duration,
    /// Real nanoseconds the hot writer holds the database write guard
    /// open after each committed batch (see
    /// [`sloth_net::SimEnv::set_write_hold_ns`]).
    pub write_hold_ns: u64,
    /// Writer think time between batches — paces the writer so its busy
    /// fraction lands mid-range instead of saturating the lock.
    pub writer_pause: Duration,
    /// Reader think time between batches: the readers are paced
    /// closed-loop clients, not a spin loop competing with the writer
    /// for a core.
    pub reader_think: Duration,
    /// Point reads per read-only batch.
    pub batch: usize,
}

impl Default for SnapshotCfg {
    fn default() -> Self {
        SnapshotCfg {
            readers: 4,
            duration: Duration::from_millis(500),
            write_hold_ns: 1_000_000,
            writer_pause: Duration::from_millis(1),
            reader_think: Duration::from_micros(50),
            batch: 4,
        }
    }
}

/// One measured pass of the reader fleet (writer optional).
#[derive(Debug, Clone)]
pub struct SnapshotPass {
    /// Read-only batches completed by the fleet.
    pub read_batches: u64,
    /// Read-only batches per second.
    pub reads_per_s: f64,
    /// Median read-batch latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile read-batch latency (ms) — the tail a held write
    /// order would wreck if readers serialized behind it.
    pub p99_ms: f64,
    /// Write batches the hot writer committed (0 on the baseline pass).
    pub writer_batches: u64,
    /// Fraction of the wall clock the writer spent inside its batch
    /// calls (≈ its write-guard hold fraction).
    pub writer_busy_frac: f64,
    /// Read-only batches the deployment served from a published snapshot.
    pub snapshot_batches: u64,
    /// Read batches whose rows differed from the statically-known
    /// expected values (must be 0).
    pub output_mismatches: u64,
}

/// The whole figure: two passes plus the derived overlap metric.
#[derive(Debug, Clone)]
pub struct SnapshotFigure {
    /// No writer.
    pub baseline: SnapshotPass,
    /// Hot writer churning.
    pub hot_snapshot: SnapshotPass,
    /// `(hot_snapshot / baseline throughput) / (1 − writer busy
    /// fraction)` — > 1 means readers ran during the writer's lock hold.
    pub overlap: f64,
}

const ITEM_ROWS: i64 = 64;
const CHURN_ROWS: i64 = 8;

fn seeded_env() -> SimEnv {
    let env = SimEnv::new(CostModel::with_rtt_ms(0.0));
    env.seed_sql("CREATE TABLE item (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    env.seed_sql("CREATE TABLE churn (id INT PRIMARY KEY, n INT)")
        .unwrap();
    for i in 0..ITEM_ROWS {
        env.seed_sql(&format!("INSERT INTO item VALUES ({i}, 'item{i}')"))
            .unwrap();
    }
    for i in 0..CHURN_ROWS {
        env.seed_sql(&format!("INSERT INTO churn VALUES ({i}, 0)"))
            .unwrap();
    }
    env
}

/// The `q`-quantile of an unsorted sample, nearest-rank; 0.0 if empty.
fn quantile_ms(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = (q * (samples.len() - 1) as f64).round() as usize;
    samples[idx.min(samples.len() - 1)]
}

fn run_pass(cfg: &SnapshotCfg, with_writer: bool) -> SnapshotPass {
    let env = seeded_env();
    env.set_write_hold_ns(cfg.write_hold_ns);

    let stop = Arc::new(AtomicBool::new(false));
    let mismatches = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();

    let readers: Vec<_> = (0..cfg.readers.max(1))
        .map(|t| {
            let env = env.clone();
            let stop = Arc::clone(&stop);
            let mismatches = Arc::clone(&mismatches);
            let batch = cfg.batch.max(1);
            let think = cfg.reader_think;
            std::thread::spawn(move || {
                let mut latencies_ms: Vec<f64> = Vec::new();
                let mut batches = 0u64;
                let mut cursor = t as i64;
                while !stop.load(Ordering::Relaxed) {
                    // A rotating window of point reads on `item` — the
                    // fusable hot-path shape, with statically-known rows.
                    let ids: Vec<i64> = (0..batch as i64)
                        .map(|k| (cursor + k * 7) % ITEM_ROWS)
                        .collect();
                    let sqls: Vec<String> = ids
                        .iter()
                        .map(|id| format!("SELECT v FROM item WHERE id = {id}"))
                        .collect();
                    let t_b = Instant::now();
                    let results = env.query_batch(&sqls).expect("read batch");
                    latencies_ms.push(t_b.elapsed().as_secs_f64() * 1e3);
                    batches += 1;
                    cursor += 1;
                    if !think.is_zero() {
                        std::thread::sleep(think);
                    }
                    for (rs, id) in results.iter().zip(&ids) {
                        let want = format!("item{id}");
                        if rs.get(0, "v").and_then(|v| v.as_str()) != Some(want.as_str()) {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                (batches, latencies_ms)
            })
        })
        .collect();

    let writer = with_writer.then(|| {
        let env = env.clone();
        let stop = Arc::clone(&stop);
        let pause = cfg.writer_pause;
        std::thread::spawn(move || {
            let mut busy = Duration::ZERO;
            let mut batches = 0u64;
            let mut round = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let sql = format!(
                    "UPDATE churn SET n = n + 1 WHERE id = {}",
                    round % CHURN_ROWS
                );
                let t_w = Instant::now();
                env.query_batch(&[sql]).expect("writer batch");
                busy += t_w.elapsed();
                batches += 1;
                round += 1;
                std::thread::sleep(pause);
            }
            (batches, busy)
        })
    });

    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut read_batches = 0u64;
    for r in readers {
        let (batches, lat) = r.join().expect("reader thread");
        read_batches += batches;
        latencies_ms.extend(lat);
    }
    let (writer_batches, busy) = writer
        .map(|w| w.join().expect("writer thread"))
        .unwrap_or((0, Duration::ZERO));
    let wall_s = t0.elapsed().as_secs_f64();

    SnapshotPass {
        read_batches,
        reads_per_s: read_batches as f64 / wall_s,
        p50_ms: quantile_ms(&mut latencies_ms, 0.50),
        p99_ms: quantile_ms(&mut latencies_ms, 0.99),
        writer_batches,
        writer_busy_frac: (busy.as_secs_f64() / wall_s).min(1.0),
        snapshot_batches: env.snapshot_batches(),
        output_mismatches: mismatches.load(Ordering::Relaxed),
    }
}

/// Runs the two passes and derives the overlap metric.
pub fn snapshot_figure(cfg: &SnapshotCfg) -> SnapshotFigure {
    let baseline = run_pass(cfg, false);
    let hot_snapshot = run_pass(cfg, true);
    // Clamp the busy fraction away from 1.0: a pathological writer that
    // monopolized the wall clock would otherwise divide by ~0 and mint
    // an arbitrarily large overlap out of noise.
    let f = hot_snapshot.writer_busy_frac.min(0.9);
    let retained = hot_snapshot.reads_per_s / baseline.reads_per_s.max(f64::MIN_POSITIVE);
    SnapshotFigure {
        overlap: retained / (1.0 - f),
        baseline,
        hot_snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short figure run: every read of every pass must see the seeded
    /// rows (the writer churns a disjoint table) and both passes must
    /// actually serve from snapshots. The overlap > 1 and p99 gates are
    /// asserted in release builds by the harness, which the CI release
    /// job reproduces.
    #[test]
    fn figure_runs_and_reads_stay_correct() {
        let cfg = SnapshotCfg {
            readers: 2,
            duration: Duration::from_millis(150),
            ..SnapshotCfg::default()
        };
        let fig = snapshot_figure(&cfg);
        for (name, pass) in [
            ("baseline", &fig.baseline),
            ("hot_snapshot", &fig.hot_snapshot),
        ] {
            assert_eq!(pass.output_mismatches, 0, "{name}: reads diverged");
            assert!(pass.read_batches > 0, "{name}: no reads completed");
        }
        assert!(fig.baseline.snapshot_batches > 0);
        assert!(fig.hot_snapshot.snapshot_batches > 0);
        assert!(fig.hot_snapshot.writer_batches > 0);
        assert!(fig.hot_snapshot.writer_busy_frac > 0.0);
        // The writer alternates a 1 ms hold with a 1 ms pause, so its
        // busy fraction must land in a sane mid-range band.
        assert!(
            fig.hot_snapshot.writer_busy_frac < 0.95,
            "paced writer cannot monopolize the wall clock: {:.2}",
            fig.hot_snapshot.writer_busy_frac
        );
    }
}
