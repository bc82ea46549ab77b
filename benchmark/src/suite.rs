//! `run` and `repeat`: every workload, each in a process of its own so
//! that `rss_peak_mb` is the workload's own.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::json::{self, Json};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats;

struct Result {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a child process, echoes its `info` lines and
/// parses its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    echo: bool,
) -> std::result::Result<Result, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut last = "";
    for line in stdout.lines() {
        match line.strip_prefix("info ") {
            Some(info) if echo => println!("  {info}"),
            Some(_) => {}
            None => last = line,
        }
    }
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); exit {:?}; stderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(Result {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && out.status.success(),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics: doc
            .get("metrics")
            .map(Json::members)
            .unwrap_or_default()
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect(),
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool, smoke: bool) -> ExitCode {
    let mut all_ok = true;
    println!(
        "sloth-wallclock run: seed {seed}, {seconds} s per workload, tracing {}, {} cores",
        if trace {
            "on (per-layer pass)"
        } else {
            "off (end-to-end pass)"
        },
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    for w in &WORKLOADS {
        println!("\n{} — {}", w.name, w.why);
        match child(w.name, seed, seconds, trace, smoke, true) {
            Ok(r) => {
                for (name, value, unit) in &r.metrics {
                    println!("  {:<40} {:>14.4} {}", name, value, unit);
                }
                let frac = r.failed as f64 / r.attempted.max(1) as f64;
                println!(
                    "  {:<40} {:>14.4} frac ({} of {})",
                    "failed_frac", frac, r.failed, r.attempted
                );
                if !r.correct {
                    println!("  FAILED: outputs or end state differ from the oracle");
                    all_ok = false;
                }
            }
            Err(e) => {
                println!("  FAILED: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        println!("\nall workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("\nat least one workload failed");
        ExitCode::from(1)
    }
}

/// Two interleaved sets (A B A B A B) of three end-to-end runs of this
/// build, every run on a seed of its own. For each metric × workload:
/// both medians, each set's inter-quartile spread as a share of its
/// median, and whether the medians agree within the metric's bound.
pub fn repeat(seed: u64, seconds: f64) -> ExitCode {
    // samples[(workload, metric)][set] = values
    let mut samples: BTreeMap<(usize, usize), [Vec<f64>; 2]> = BTreeMap::new();
    let mut all_ok = true;
    for round in 0..3u64 {
        for set in 0..2usize {
            let run_seed = seed + round * 2 + set as u64;
            for (wi, w) in WORKLOADS.iter().enumerate() {
                eprintln!(
                    "repeat: set {} run {} {} seed {run_seed}",
                    ["A", "B"][set],
                    round + 1,
                    w.name
                );
                match child(w.name, run_seed, seconds, false, false, false) {
                    Ok(r) => {
                        all_ok &= r.correct;
                        for (mi, m) in END_TO_END.iter().enumerate() {
                            let value = r
                                .metrics
                                .iter()
                                .find(|x| x.0 == m.name)
                                .map_or(f64::NAN, |x| x.1);
                            samples.entry((wi, mi)).or_default()[set].push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("repeat: {e}");
                        all_ok = false;
                    }
                }
            }
        }
    }
    println!("| workload | metric | unit | median A | median B | spread A | spread B | drift | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for ((wi, mi), sets) in &samples {
        let m = &END_TO_END[*mi];
        let bound = m.bound.expect("end-to-end metrics are bounded");
        let mut sorted = sets.clone();
        sorted.iter_mut().for_each(|s| stats::sort(s));
        let (a, b) = (stats::median(&sorted[0]), stats::median(&sorted[1]));
        let (sa, sb) = (stats::spread(&sorted[0]), stats::spread(&sorted[1]));
        // How much worse B's median is than A's, as a share of A's.
        let drift = match m.better {
            "lower" => (b - a) / a,
            _ => (a - b) / a,
        };
        // The verdict is on agreement: set B's median may not be worse than
        // set A's by more than the bound. The spread of three runs is their
        // whole range, so one above the bound is flagged, not failed.
        let agree = drift <= bound && a.is_finite() && b.is_finite();
        let steady = m.name == "setup_s" || (sa <= bound && sb <= bound);
        all_ok &= agree;
        let verdict = match (agree, steady) {
            (true, true) => "pass",
            (true, false) => "pass (noisy)",
            (false, _) => "FAIL",
        };
        println!(
            "| {} | {} | {} | {:.4} | {:.4} | {:.2} % | {:.2} % | {:+.2} % | {:.0} % | {} |",
            WORKLOADS[*wi].name,
            m.name,
            m.unit,
            a,
            b,
            sa * 100.0,
            sb * 100.0,
            drift * 100.0,
            bound * 100.0,
            verdict
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
