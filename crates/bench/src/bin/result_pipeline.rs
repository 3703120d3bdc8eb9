//! `result_pipeline` — the aggregation-mode benchmark (DESIGN.md §18),
//! written to `BENCH_scan.json`.
//!
//! One embedding-heavy query runs through every [`AggregateMode`]:
//! materialize, count-only, top-k, sampled. All modes must agree on the
//! exact count (asserted).
//!
//! `--check` turns the committed gate into a hard assertion: count-only
//! answers the query ≥ 3× faster than materialize (zero-materialization is
//! the point of the mode split).
//!
//! Usage: `result_pipeline [--blowup N] [--reps N] [--workers N]
//!                         [--json PATH] [--check]`.
//! `HGMATCH_BENCH_SMOKE=1` shrinks every knob for the CI bench-smoke job.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hgmatch_bench::experiments::{bench_smoke, num_cpus};
use hgmatch_core::{AggregateMode, MatchConfig, Matcher, ScoreFn};
use hgmatch_datasets::testgen::blowup;

/// Best-of-`reps` wall time of `f`.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let begin = Instant::now();
        let r = f();
        best = best.min(begin.elapsed());
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

/// Why this report no longer has `compact` / `extract` rows: the last
/// measurement of the parallel scan against its sequential twin, taken at
/// the commit before `core::scan` was deleted (DESIGN.md §18.1).
const REMOVED_ROWS_NOTE: &str = "compact/extract rows removed with core::scan: at host_cpus 2 \
the parallel compact ran 0.44x (2 participants) / 0.51x (8) and the parallel extract 0.48x / 0.56x \
of their sequential twins on 16.8M elements (parent 576a480)";

struct ModePoint {
    name: &'static str,
    wall: Duration,
    count: u64,
    materialized: u64,
}

fn main() {
    let smoke = bench_smoke();
    let mut blowup_n: u32 = if smoke { 28 } else { 56 };
    let mut reps: usize = if smoke { 3 } else { 5 };
    let mut workers: usize = 8;
    let mut json_path: Option<String> = None;
    let mut check = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--blowup" => {
                i += 1;
                blowup_n = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--blowup N");
            }
            "--reps" => {
                i += 1;
                reps = args.get(i).and_then(|s| s.parse().ok()).expect("--reps N");
            }
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--workers N");
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json PATH").clone());
            }
            "--check" => check = true,
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }

    let cores = num_cpus();
    println!("# result_pipeline: blowup n={blowup_n}, {workers} workers, host_cpus={cores}");

    // Aggregation modes on an embedding-heavy query — a clique blow-up
    // whose 3-edge path query produces far more embeddings
    // than candidates, so delivery (not candidate generation) dominates.
    let (data, query) = blowup(blowup_n, 3);
    let matcher = Matcher::with_config(&data, MatchConfig::parallel(workers.min(cores.max(1))));
    let modes: [(&'static str, AggregateMode); 4] = [
        ("materialize", AggregateMode::Materialize),
        ("count_only", AggregateMode::CountOnly),
        (
            "top_k",
            AggregateMode::TopK {
                k: 8,
                score: ScoreFn::EdgeIdSum,
            },
        ),
        (
            "sampled",
            AggregateMode::Sampled {
                budget: 64,
                seed: 42,
            },
        ),
    ];
    let mut points: Vec<ModePoint> = Vec::new();
    println!("aggregate\tmode\twall_s\tembeddings\tmaterialized");
    for (name, mode) in modes {
        let (wall, out) = best_of(reps, || matcher.aggregate_with(&query, mode).unwrap());
        println!(
            "aggregate\t{name}\t{:.4}\t{}\t{}",
            wall.as_secs_f64(),
            out.count,
            out.stats.metrics.materialized
        );
        points.push(ModePoint {
            name,
            wall,
            count: out.count,
            materialized: out.stats.metrics.materialized,
        });
    }
    let exact = points[0].count;
    assert!(exact > 0, "blow-up query found nothing");
    for p in &points {
        assert_eq!(p.count, exact, "{} disagrees on the exact count", p.name);
    }
    assert_eq!(points[1].materialized, 0, "count-only materialised");
    let count_speedup = points[0].wall.as_secs_f64() / points[1].wall.as_secs_f64().max(1e-9);
    println!("# count_only speedup over materialize: {count_speedup:.2}x");

    // Gate.
    let count_pass = count_speedup >= 3.0;
    println!(
        "# gate count_only: {count_speedup:.2}x >= 3.00x -> {}",
        if count_pass { "pass" } else { "FAIL" }
    );

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"host_cpus\": {cores}, \"workers\": {workers}, \"blowup_n\": {blowup_n}, \"reps\": {reps},"
        );
        let _ = writeln!(
            out,
            "  \"aggregate\": {{\"embeddings\": {exact}, \"modes\": {{"
        );
        for (pi, p) in points.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {{\"wall_s\": {:.6}, \"materialized\": {}}}{}",
                p.name,
                p.wall.as_secs_f64(),
                p.materialized,
                if pi + 1 < points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  }}, \"count_only_speedup\": {count_speedup:.4}}},");
        let _ = writeln!(
            out,
            "  \"gates\": {{\"count_only_target\": 3.0, \"count_only_pass\": {count_pass}}},"
        );
        let _ = writeln!(out, "  \"notes\": \"{REMOVED_ROWS_NOTE}\"");
        out.push_str("}\n");
        std::fs::write(&path, out).expect("write json report");
        println!("# wrote {path}");
    }

    if check {
        assert!(
            count_pass,
            "count-only gate: {count_speedup:.2}x < required 3.00x over materialize"
        );
        println!("# CHECK OK");
    }
}
