//! Minimal wall-clock micro-benchmark driver used by the `benches/`
//! targets (the build environment has no third-party crates, so this
//! stands in for criterion: warmup, timed batches, median-of-batches
//! reporting).

use std::hint::black_box;
use std::time::Instant;

/// Runs `f` repeatedly, reports the median per-iteration time and returns
/// it in nanoseconds (for callers that divide it by a count of their own).
///
/// `name` is printed criterion-style (`group/name`), so existing tooling
/// that greps bench output keeps working.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> f64 {
    // Warmup + calibration: find an iteration count that takes ~10 ms.
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = t0.elapsed();
        if elapsed.as_millis() >= 10 || iters >= 1 << 20 {
            break;
        }
        iters *= 4;
    }
    // Timed batches.
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let med = samples[samples.len() / 2];
    if med >= 1e6 {
        println!("{name:<45} {:>12.3} ms/iter", med / 1e6);
    } else if med >= 1e3 {
        println!("{name:<45} {:>12.3} µs/iter", med / 1e3);
    } else {
        println!("{name:<45} {:>12.1} ns/iter", med);
    }
    med
}
