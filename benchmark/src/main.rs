//! Wall-clock benchmark of the Sloth reproduction.
//!
//! ```text
//! sloth-wallclock --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!     one workload in this process; the last line of stdout is the result
//! sloth-wallclock run [--seed n] [--seconds s] [--trace] [--smoke]
//!     every workload, each in a process of its own; non-zero on any failure
//! sloth-wallclock repeat [--seed n] [--seconds s]
//!     two interleaved sets of three runs of this build: the noise floor
//! ```

mod json;
mod ladder;
mod measure;
mod plan;
mod run;
mod spec;
mod stats;
mod suite;
mod surface;
mod trace;
mod workload;

use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: what `run` and `repeat` pass on.
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            cli.command = it.next().cloned();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--smoke" => cli.smoke = true,
            // The driver passes `--trace 0|1`; by hand a bare `--trace` means 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("sloth-wallclock: {e}");
            return ExitCode::from(2);
        }
    };
    match (cli.command.as_deref(), &cli.workload) {
        (None, Some(workload)) => {
            if spec::workload(workload).is_none() {
                eprintln!("sloth-wallclock: unknown workload {workload}");
                return ExitCode::from(2);
            }
            let report = measure::measure(&measure::Args {
                workload: workload.clone(),
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                smoke: cli.smoke,
            });
            for line in &report.info {
                println!("info {line}");
            }
            println!("{}", report.json_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Some("run"), None) => suite::run(cli.seed, cli.seconds, cli.trace, cli.smoke),
        (Some("repeat"), None) => suite::repeat(cli.seed, cli.seconds),
        _ => {
            eprintln!("usage: sloth-wallclock (--workload <name> | run | repeat) [--seed n] [--seconds s] [--trace [0|1]] [--smoke]");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<String> {
        list.items()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn emitted_names_equal_benchmark_json() {
        let doc = benchmark_json();
        let workloads = doc.get("workloads").expect("workloads");
        assert_eq!(
            names(workloads),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (w, spec) in workloads.items().iter().zip(&WORKLOADS) {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(spec.why));
            assert!(
                spec.why.len() <= 200,
                "{}: why is {} characters",
                spec.name,
                spec.why.len()
            );
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).expect(key);
            assert_eq!(
                names(listed),
                table.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{key}"
            );
            for (m, spec) in listed.items().iter().zip(table) {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(spec.unit),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(spec.better),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    spec.bound,
                    "{}",
                    spec.name
                );
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_fit_the_contract_alphabet() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                ok(m.name, "_.-", 64) && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                m.name
            );
            assert!(ok(m.unit, "_/%.-", 16), "{}: unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn cli_accepts_the_driver_and_the_hand_forms() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse_cli(&args(
            "--workload read_pages --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert!(cli.command.is_none() && !cli.trace && cli.seed == 7);
        assert_eq!(cli.workload.as_deref(), Some("read_pages"));
        let cli = parse_cli(&args("run --trace --seed 3")).unwrap();
        assert!(cli.trace && cli.seed == 3 && cli.command.as_deref() == Some("run"));
        assert!(parse_cli(&args("run --trace 1 --smoke")).unwrap().smoke);
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--bogus")).is_err());
    }

    /// Every workload at 1/50 length passes its oracle, untraced and traced,
    /// and emits exactly the metric names of the spec tables.
    #[test]
    fn smoke_run_passes_every_oracle() {
        for w in &WORKLOADS {
            for trace in [false, true] {
                let report = measure::measure(&measure::Args {
                    workload: w.name.to_string(),
                    seed: 5,
                    seconds: DEFAULT_SECONDS,
                    trace,
                    smoke: true,
                });
                assert!(
                    report.correct,
                    "{} trace={trace}: {:?}",
                    w.name, report.info
                );
                assert_eq!(report.failed, 0);
                assert!(report.attempted >= 1);
                let table: &[spec::MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
                let emitted: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
                assert_eq!(emitted, table.iter().map(|m| m.name).collect::<Vec<_>>());
                let line = json::parse(&report.json_line()).expect("result line is JSON");
                assert_eq!(line.members().len(), 4);
                assert_eq!(
                    line.get("metrics").map(|m| m.members().len()),
                    Some(table.len())
                );
            }
        }
    }
}
