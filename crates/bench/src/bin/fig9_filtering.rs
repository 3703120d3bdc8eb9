//! Fig. 9 — pruning power of candidate generation and validation.
//!
//! For every dataset, sums over the whole query workload: the number of
//! candidates produced by Algorithm 4 ("Candidates"), the survivors of the
//! vertex-count check ("Filtered"), and the true embeddings
//! ("Embeddings"). The paper observes ≈97% of filtered results are true
//! positives.
//!
//! The three sums are exact and repeat from run to run as long as no query
//! times out, so they double as a regression gate on Algorithms 4 and 5:
//! `--json FILE` writes this run (datasets, counts, host, git revision),
//! and `--check FILE` holds it against the runs recorded in the committed
//! `BENCH_filtering.json` — `embeddings` must equal every recorded run's;
//! `candidates` may only be lower, and so may `filtered`, which counts
//! survivors among the candidates generated (a tighter Algorithm 4 also
//! drops rows that would have passed the count check and failed the
//! profiles). Both refuse a run in which a query timed out.
//!
//! Usage: `fig9_filtering [--queries N] [--timeout SECS] [--json FILE]
//! [--check FILE] [dataset…]`.

use hgmatch_bench::experiments::{selected_profiles, SweepParams};
use hgmatch_bench::harness::Workload;
use hgmatch_bench::report::{git_sha, host_cpus};
use hgmatch_core::{MatchConfig, Matcher};
use hgmatch_datasets::standard_settings;
use hgmatch_server::json::{self, Json};
use std::time::Duration;

/// One dataset's sums over its query workload.
struct Row {
    dataset: String,
    candidates: u64,
    filtered: u64,
    embeddings: u64,
    timed_out: u64,
}

fn main() {
    let mut queries = 5usize;
    let mut timeout = Duration::from_secs(5);
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut datasets: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--queries" => {
                i += 1;
                queries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--queries N");
            }
            "--timeout" => {
                i += 1;
                timeout = Duration::from_secs_f64(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--timeout SECS"),
                );
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json FILE").clone());
            }
            "--check" => {
                i += 1;
                check_path = Some(args.get(i).expect("--check FILE").clone());
            }
            name => datasets.push(name.to_string()),
        }
        i += 1;
    }
    if datasets.is_empty() {
        datasets = SweepParams::default().datasets;
    }

    println!("# Fig. 9: candidates filtering (sums over the q2-q6 workloads)");
    println!("dataset\tcandidates\tfiltered\tembeddings\tfiltered_precision\ttimed_out");
    let mut rows = Vec::new();
    for profile in selected_profiles(&datasets) {
        let data = profile.generate();
        let matcher = Matcher::with_config(&data, MatchConfig::sequential().with_timeout(timeout));
        let mut row = Row {
            dataset: profile.name.to_string(),
            candidates: 0,
            filtered: 0,
            embeddings: 0,
            timed_out: 0,
        };
        for setting in standard_settings() {
            let workload = Workload::sample(&data, setting, queries, 23);
            for q in &workload.queries {
                if let Ok((_, stats)) = matcher.count_with_stats(q) {
                    row.candidates += stats.metrics.candidates;
                    row.filtered += stats.metrics.filtered;
                    row.embeddings += stats.metrics.embeddings;
                    row.timed_out += u64::from(stats.timed_out);
                }
            }
        }
        println!(
            "{}\t{}\t{}\t{}\t{:.1}%\t{}",
            row.dataset,
            row.candidates,
            row.filtered,
            row.embeddings,
            100.0 * row.embeddings as f64 / row.filtered.max(1) as f64,
            row.timed_out,
        );
        rows.push(row);
    }
    println!();
    println!("# Paper shape: Filtered ≈ Embeddings (≈97% true positives);");
    println!("# Candidates may exceed Filtered on low-label datasets.");

    if json_path.is_some() || check_path.is_some() {
        let timed_out: u64 = rows.iter().map(|r| r.timed_out).sum();
        if timed_out > 0 {
            fail(&format!(
                "{timed_out} queries timed out, so the sums are lower bounds; raise --timeout"
            ));
        }
    }
    if let Some(path) = json_path {
        std::fs::write(&path, render(&rows, queries, timeout)).expect("write --json FILE");
        println!("# wrote {path}");
    }
    if let Some(path) = check_path {
        check(&rows, queries, &path);
    }
}

fn fail(message: &str) -> ! {
    eprintln!("fig9_filtering: {message}");
    std::process::exit(1);
}

/// One run as a JSON object: what `BENCH_filtering.json` lists under `runs`.
fn render(rows: &[Row], queries: usize, timeout: Duration) -> String {
    let mut out = format!(
        "{{\n  \"git_sha\": \"{}\", \"host_cpus\": {}, \"queries\": {queries}, \"timeout_s\": {},\n  \"datasets\": [\n",
        json::escape(&git_sha()),
        host_cpus(),
        timeout.as_secs_f64(),
    );
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"candidates\": {}, \"filtered\": {}, \"embeddings\": {}}}{}\n",
            json::escape(&row.dataset),
            row.candidates,
            row.filtered,
            row.embeddings,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Holds `rows` against every run recorded in `path` with the same
/// `queries`: equal `embeddings`, `candidates` and `filtered` no higher.
fn check(rows: &[Row], queries: usize, path: &str) {
    let text = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let recorded = json::parse(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
    let runs = recorded
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("{path} has no \"runs\" array")));
    let field = |entry: &Json, name: &str| -> u64 {
        entry
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| fail(&format!("{path}: a row lacks \"{name}\"")))
    };

    let mut failures = Vec::new();
    for row in rows {
        let mut compared = 0;
        for run in runs {
            if run.get("queries").and_then(Json::as_u64) != Some(queries as u64) {
                continue;
            }
            let sha = run.get("git_sha").and_then(Json::as_str).unwrap_or("?");
            let entries = run.get("datasets").and_then(Json::as_arr).unwrap_or(&[]);
            for entry in entries {
                if entry.get("dataset").and_then(Json::as_str) != Some(&row.dataset) {
                    continue;
                }
                compared += 1;
                let want = field(entry, "embeddings");
                if row.embeddings != want {
                    failures.push(format!(
                        "{}: embeddings {}, run {sha} has {want}",
                        row.dataset, row.embeddings
                    ));
                }
                for (name, got, want) in [
                    ("candidates", row.candidates, field(entry, "candidates")),
                    ("filtered", row.filtered, field(entry, "filtered")),
                ] {
                    if got > want {
                        failures.push(format!(
                            "{}: {name} {got} rose above run {sha}'s {want}",
                            row.dataset
                        ));
                    }
                }
            }
        }
        if compared == 0 {
            failures.push(format!(
                "{}: no recorded run with --queries {queries} covers it",
                row.dataset
            ));
        }
    }
    if failures.is_empty() {
        println!("# CHECK OK against {path}");
    } else {
        fail(&format!(
            "check against {path} failed:\n  {}",
            failures.join("\n  ")
        ));
    }
}
