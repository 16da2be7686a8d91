//! `huge-perf`: the repository's performance ledger.
//!
//! One command prints every metric by name with its unit and checks that the
//! engine's answers are correct:
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--trace 0|1 | --traced] [--out FILE]
//! cargo run --release --manifest-path bench/Cargo.toml -- --selfcheck [N] [--vary-seed]
//! ```
//!
//! Every line but the last reads `workload/metric value unit` (lines starting
//! with `#` are information); the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! (the default) the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones. See `bench/README.md`.

mod e2e;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use e2e::{Ops, Outcome};
use metrics::END_TO_END;
use workloads::{Workload, WORKLOADS};

/// The seed the workload sizes in the README were measured with.
const DEFAULT_SEED: u64 = 0xD1CE;
const DEFAULT_SELFCHECK_RUNS: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    traced: bool,
    out: Option<PathBuf>,
    selfcheck: Option<usize>,
    vary_seed: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: huge-perf --workload <{}|all> [--seed N] [--seconds N] [--trace 0|1 | --traced] [--out FILE]\n\
         \x20      huge-perf --selfcheck [N] [--vary-seed] [--seed N]",
        names.join("|")
    )
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        traced: false,
        out: None,
        selfcheck: None,
        vary_seed: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = parse_u64(&v).ok_or_else(|| format!("--seed {v}: not a number"))?;
            }
            // The repetition count is fixed (see `e2e`), so the run length is
            // set by the workload sizes, which were chosen for the
            // `run_seconds` of BENCHMARK.json; the value is only validated.
            "--seconds" => {
                let v = value("a number of seconds")?;
                v.parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--traced" => args.traced = true,
            "--out" => args.out = Some(PathBuf::from(value("a file name")?)),
            "--selfcheck" => {
                let runs = match it.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => DEFAULT_SELFCHECK_RUNS,
                };
                if runs < 2 {
                    return Err("--selfcheck needs at least 2 runs".into());
                }
                args.selfcheck = Some(runs);
            }
            "--vary-seed" => args.vary_seed = true,
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.selfcheck.is_none() && args.workload.is_none() {
        return Err(usage());
    }
    Ok(args)
}

/// The result object the driver reads from the last line of standard output.
fn result_json(correct: bool, ops: &Ops, metrics: &[(String, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted, ops.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest decimal that reads back as the same f64:
        // every digit that was measured, and always valid JSON for a finite
        // value (`Metrics::set` admits no other).
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

fn print_run(w: &Workload, run: &Outcome) {
    println!("# {}: {}", w.name, w.why);
    for line in &run.info {
        println!("# {}: {line}", w.name);
    }
    for why in &run.ops.errors {
        println!("# {}: FAILED {why}", w.name);
    }
    for (def, value) in run.metrics.iter() {
        println!("{}/{} {value} {}", w.name, def.name, def.unit);
    }
}

/// Runs the named workloads once each and prints the result object.
fn run_workloads(selected: &[&'static Workload], args: &Args) -> Result<bool, String> {
    let mut total = Ops::default();
    let mut all_metrics = Vec::new();
    for w in selected {
        let run = if args.traced {
            layers::run(w, args.seed)?
        } else {
            e2e::run(w, args.seed)?
        };
        print_run(w, &run);
        for (def, value) in run.metrics.iter() {
            let name = if selected.len() == 1 {
                def.name.to_string()
            } else {
                format!("{}/{}", w.name, def.name)
            };
            all_metrics.push((name, value, def.unit));
        }
        total.attempted += run.ops.attempted;
        total.failed += run.ops.failed;
        total.errors.extend(run.ops.errors);
    }
    let correct = total.correct();
    let json = result_json(correct, &total, &all_metrics);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{json}");
    Ok(correct)
}

/// Noise self-check: every workload's default mode `runs` times back to
/// back, alternating the workload order, then for each end-to-end metric the
/// largest relative gap between any two runs and the quartiles. With
/// `vary_seed`, run `i` uses `seed + i`, as the driver that judges the
/// benchmark does; its statistic is the `iqr/median` column.
fn selfcheck(runs: usize, args: &Args) -> Result<bool, String> {
    let mut values = vec![vec![Vec::with_capacity(runs); END_TO_END.len()]; WORKLOADS.len()];
    let mut correct = true;
    for run in 0..runs {
        let seed = if args.vary_seed {
            args.seed + run as u64
        } else {
            args.seed
        };
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if run % 2 == 1 {
            order.reverse();
        }
        for wi in order {
            let w = &WORKLOADS[wi];
            let e = e2e::run(w, seed)?;
            correct &= e.ops.correct();
            for why in &e.ops.errors {
                println!("# {}: FAILED {why}", w.name);
            }
            let line: Vec<String> = e
                .metrics
                .iter()
                .map(|(d, v)| format!("{} {v:.4}", d.name))
                .collect();
            println!("# run {run} seed {seed} {}: {}", w.name, line.join(" "));
            for (slot, (_, v)) in values[wi].iter_mut().zip(e.metrics.iter()) {
                slot.push(v);
            }
        }
    }
    println!("| workload/metric | max gap | q1 | median | q3 | iqr/median |");
    println!("|---|---|---|---|---|---|");
    for (w, per_metric) in WORKLOADS.iter().zip(&values) {
        for (def, v) in END_TO_END.iter().zip(per_metric) {
            let [q1, q2, q3] = stats::quartiles(v);
            println!(
                "| {}/{} | {:.1} % | {q1:.4} | {q2:.4} | {q3:.4} | {:.1} % |",
                w.name,
                def.name,
                stats::max_gap(v) * 100.0,
                (q3 - q1) / q2 * 100.0
            );
        }
    }
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let selected: Vec<&'static Workload> =
        match args.workload.as_deref() {
            None => Vec::new(),
            Some("all") => WORKLOADS.iter().collect(),
            Some(name) => vec![Workload::find(name)
                .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?],
        };

    // The engine spills under `std::env::temp_dir()`; keep that, and
    // everything else the benchmark writes, inside `bench/out/`.
    let tmp = layers::out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let outcome = match args.selfcheck {
        Some(runs) => selfcheck(runs, &args),
        None => run_workloads(&selected, &args),
    };
    // Only removes the directory when no other invocation is using it.
    let _ = std::fs::remove_dir(&tmp);
    outcome
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload path_road --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("path_road"));
        assert_eq!(a.seed, 7);
        assert!(a.traced);
        let a = parse_args(&argv("--workload all --seed 0xD1CE --trace 0")).unwrap();
        assert_eq!(a.seed, 0xD1CE);
        assert!(!a.traced);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed nope")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--selfcheck 1")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn selfcheck_count_is_optional() {
        let a = parse_args(&argv("--selfcheck --vary-seed")).unwrap();
        assert_eq!(a.selfcheck, Some(DEFAULT_SELFCHECK_RUNS));
        assert!(a.vary_seed);
        assert_eq!(
            parse_args(&argv("--selfcheck 3")).unwrap().selfcheck,
            Some(3)
        );
    }

    #[test]
    fn result_object_is_one_json_line() {
        let ops = Ops {
            attempted: 12,
            failed: 0,
            errors: Vec::new(),
        };
        let json = result_json(
            true,
            &ops,
            &[("run_s".into(), 1.25, "s"), ("comm_mib".into(), 3.0, "MiB")],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"comm_mib\": {\"value\": 3, \"unit\": \"MiB\"}}}"
        );
    }
}
