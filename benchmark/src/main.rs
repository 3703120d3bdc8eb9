//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml --
//!  [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck] [--smoke]`
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is its result as one JSON object. Without it,
//! every workload runs in a child process of its own, one after another.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use hgmatch_benchmark::report::{self, Parsed};
use hgmatch_benchmark::spec;
use hgmatch_benchmark::workloads::{self, Options, RUN_SECONDS};

struct Args {
    workload: Option<String>,
    selfcheck: bool,
    options: Options,
}

fn usage() -> ! {
    eprintln!(
        "usage: hgmatch-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck] [--smoke] [--out DIR]",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        selfcheck: false,
        options: Options {
            seed: 1,
            seconds: RUN_SECONDS,
            trace: false,
            smoke: false,
            corrupt_oracle: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload");
                if spec::workload(&name).is_none() {
                    eprintln!("unknown workload {name}");
                    usage();
                }
                args.workload = Some(name);
            }
            "--seed" => args.options.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.options.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                args.options.trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                };
            }
            "--out" => args.options.out_dir = PathBuf::from(value("--out")),
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.options.smoke = true,
            "--corrupt-oracle" => args.options.corrupt_oracle = true,
            _ => {
                eprintln!("unknown argument {flag}");
                usage();
            }
        }
    }
    args
}

fn main() -> ExitCode {
    // The program under test reads its defaults from HGMATCH_* variables
    // on first use; the benchmark measures the defaults in the code.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("HGMATCH_") {
            std::env::remove_var(name);
        }
    }
    let args = parse_args();
    match (&args.workload, args.selfcheck) {
        (Some(workload), _) => run_one(workload, &args.options),
        (None, false) => run_suite(&args.options),
        (None, true) => selfcheck(&args.options),
    }
}

/// Runs one workload in this process.
fn run_one(workload: &str, options: &Options) -> ExitCode {
    let outcome = workloads::run(workload, options);
    println!("# workload {workload}");
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics = if options.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for &(name, value) in metrics {
        println!("{workload}/{name}\t{value}\t{}", report::unit_of(name));
    }
    println!(
        "{workload}/failed_frac\t{}\t({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failed, metrics)
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process and returns its parsed result.
fn run_child(workload: &str, options: &Options, trace: bool) -> Option<Parsed> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out_dir);
    if options.smoke {
        command.arg("--smoke");
    }
    if options.corrupt_oracle {
        command.arg("--corrupt-oracle");
    }
    let output = command.output().expect("run the workload's process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    let parsed = stdout.lines().last().and_then(report::parse_result_line);
    if parsed.is_none() {
        eprintln!(
            "{workload}: no result (exit {:?})\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
    }
    parsed
}

/// Every workload, untraced and (with `--trace`) traced, one process each.
fn run_suite(options: &Options) -> ExitCode {
    let mut ok = true;
    for workload in &spec::WORKLOADS {
        let traces: &[bool] = if options.trace {
            &[false, true]
        } else {
            &[false]
        };
        for &trace in traces {
            ok &= run_child(workload.name, options, trace).is_some_and(|r| r.correct);
        }
    }
    println!("# suite {}", if ok { "correct" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the suite twice on this build and compares the two: every
/// end-to-end metric of every workload must agree within half its bound.
fn selfcheck(options: &Options) -> ExitCode {
    let mut runs: Vec<Vec<Option<Parsed>>> = Vec::new();
    for _ in 0..2 {
        runs.push(
            spec::WORKLOADS
                .iter()
                .map(|w| run_child(w.name, options, false))
                .collect(),
        );
    }
    let mut ok = true;
    println!();
    println!("| workload/metric | unit | A | B | difference | bound/2 | |");
    println!("|---|---|---|---|---|---|---|");
    for (i, workload) in spec::WORKLOADS.iter().enumerate() {
        let (Some(a), Some(b)) = (&runs[0][i], &runs[1][i]) else {
            println!("| {} | | no result | | | | FAIL |", workload.name);
            ok = false;
            continue;
        };
        ok &= a.correct && b.correct;
        for metric in &spec::END_TO_END {
            let value = |r: &Parsed| {
                r.metrics
                    .iter()
                    .find(|(n, _)| n == metric.name)
                    .map_or(f64::NAN, |&(_, v)| v)
            };
            let (va, vb) = (value(a), value(b));
            let difference = (vb - va).abs() / va.abs();
            let within = difference <= metric.bound / 2.0;
            ok &= within;
            println!(
                "| {}/{} | {} | {va:.6} | {vb:.6} | {:.2} % | {:.1} % | {} |",
                workload.name,
                metric.name,
                metric.unit,
                difference * 100.0,
                metric.bound * 50.0,
                if within { "ok" } else { "FAIL" }
            );
        }
    }
    println!();
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
