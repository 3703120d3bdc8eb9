//! Fig. 12 — dynamic load balancing, now measured on the serving layer:
//! the work-assisting scheduler (DESIGN.md §12) versus deque stealing
//! versus pinned round-robin pickup.
//!
//! Two experiments over one dataset, written to `BENCH_stealing.json`:
//!
//! 1. **single_query** — one heavy q3 query on a [`MatchServer`] pool,
//!    swept over worker counts, per scheduler mode:
//!    * `round_robin` — work stealing off: a query runs entirely on the
//!      worker that claimed its seed (the pre-ISSUE-4 intra-query
//!      behaviour, and the paper's NOSTL shape). Its busy time stays on
//!      one worker however large the pool — the flat line.
//!    * `steal` — per-worker LIFO deques with FIFO batch stealing, no
//!      mid-flight splitting (split threshold 0).
//!    * `assist` — stealing plus splittable candidate ranges: a hot
//!      expansion's validation loop is joined mid-flight by idle peers
//!      (at the bench's `--split-threshold`).
//!    * `assist_default` — the same at the production default threshold
//!      (`MatchConfig::default().split_threshold`, 2048).
//!
//!    The scaling signal is the per-worker busy spread:
//!    `parallelism = Σ busy / max busy` (≈ pool size when the query's
//!    work spreads; ≈ 1 when one worker carries it), which equals the
//!    achievable wall-clock speedup on a machine with that many cores.
//!    Wall-clock is also recorded — on a box with fewer cores than
//!    workers (`host_cpus` in the report) it stays flat by construction.
//!
//! 2. **mixed_batch** — a q2/q3 batch submitted at once at the largest
//!    pool size, per mode: throughput must not regress versus
//!    round-robin pickup (inter-query parallelism already saturates the
//!    pool; assisting must not get in its way).
//!
//! All modes must agree on embedding counts (asserted).
//!
//! Usage: `fig12_stealing [--dataset NAME] [--workers LIST] [--queries N]
//!                        [--candidates N] [--timeout SECS]
//!                        [--split-threshold N] [--json PATH]`.
//! `HGMATCH_BENCH_SMOKE=1` shrinks every knob for the CI bench-smoke job.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hgmatch_bench::experiments::{bench_smoke, heaviest_queries, num_cpus};
use hgmatch_bench::harness::Workload;
use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::MatchConfig;
use hgmatch_datasets::{profile_by_name, standard_settings};
use hgmatch_hypergraph::Hypergraph;

/// One scheduler mode of the sweep.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    RoundRobin,
    Steal,
    Assist,
    AssistDefault,
}

impl Mode {
    const ALL: [Mode; 4] = [
        Mode::RoundRobin,
        Mode::Steal,
        Mode::Assist,
        Mode::AssistDefault,
    ];

    fn name(self) -> &'static str {
        match self {
            Mode::RoundRobin => "round_robin",
            Mode::Steal => "steal",
            Mode::Assist => "assist",
            Mode::AssistDefault => "assist_default",
        }
    }

    fn config(self, workers: usize, split_threshold: usize) -> ServeConfig {
        let mut mc = MatchConfig::parallel(workers);
        match self {
            Mode::RoundRobin => {
                mc.work_stealing = false;
                mc.split_threshold = 0;
            }
            Mode::Steal => {
                mc.work_stealing = true;
                mc.split_threshold = 0;
            }
            Mode::Assist => {
                mc.work_stealing = true;
                mc.split_threshold = split_threshold;
            }
            // `MatchConfig::parallel` already carries the default threshold.
            Mode::AssistDefault => mc.work_stealing = true,
        }
        ServeConfig {
            threads: workers,
            match_config: mc,
            ..ServeConfig::default()
        }
    }
}

struct SinglePoint {
    workers: usize,
    wall: Duration,
    sum_busy: Duration,
    max_busy: Duration,
    tasks: u64,
    steals: u64,
    splits: u64,
    assists: u64,
    embeddings: u64,
}

impl SinglePoint {
    fn parallelism(&self) -> f64 {
        self.sum_busy.as_secs_f64() / self.max_busy.as_secs_f64().max(1e-9)
    }
}

struct BatchPoint {
    wall: Duration,
    embeddings: u64,
    queries: usize,
}

fn main() {
    let smoke = bench_smoke();
    // SB's strong hubs make the q3 sample genuinely heavy (tens of millions
    // of embeddings, fat per-expansion candidate lists) — the workload the
    // scheduler sweep exists to expose.
    let mut dataset = if smoke { "CH" } else { "SB" }.to_string();
    let mut workers: Vec<usize> = if smoke {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    };
    let mut per_setting = if smoke { 4 } else { 10 };
    let mut candidates = if smoke { 4 } else { 6 };
    let mut timeout = Duration::from_secs(if smoke { 10 } else { 60 });
    // Low enough that the heavy query's hot expansions actually split on
    // generated data (the production default of 2048 targets real hubs).
    let mut split_threshold = if smoke { 64 } else { 512 };
    let mut json_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => {
                i += 1;
                dataset = args.get(i).expect("--dataset NAME").clone();
            }
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .expect("--workers LIST")
                    .split(',')
                    .map(|s| s.parse().expect("worker count"))
                    .collect();
            }
            "--queries" => {
                i += 1;
                per_setting = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--queries N");
            }
            "--candidates" => {
                i += 1;
                candidates = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--candidates N");
            }
            "--timeout" => {
                i += 1;
                timeout = Duration::from_secs_f64(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--timeout SECS"),
                );
            }
            "--split-threshold" => {
                i += 1;
                split_threshold = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--split-threshold N");
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json PATH").clone());
            }
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }
    assert!(!workers.is_empty(), "--workers needs at least one count");

    let profile = profile_by_name(&dataset).expect("known dataset");
    let data = Arc::new(profile.generate());
    let settings = standard_settings();

    // The single big query: heaviest of a q3 sample.
    let q3 = Workload::sample(&data, settings[1], candidates, 31);
    let heavy = heaviest_queries(&data, &q3, 1, timeout);
    let (big_query, big_count) = heavy.first().expect("a heavy query");
    println!(
        "# fig12_stealing: scheduler sweep on {}, heavy q3 query with {} embeddings, host_cpus={}",
        profile.name,
        big_count,
        num_cpus()
    );

    // Experiment 1: the single big query across pool sizes, per mode. The
    // cross-check reference is the first completed run — the selection pass
    // above only orders candidates, and its count may be partial if it hit
    // the timeout.
    let mut single: Vec<(Mode, Vec<SinglePoint>)> = Vec::new();
    let mut reference: Option<u64> = None;
    println!("mode\tworkers\twall_s\tmax_busy_s\tparallelism\ttasks\tsteals\tsplits\tassists");
    for mode in Mode::ALL {
        let mut points = Vec::new();
        for &w in &workers {
            let point = run_single(&data, big_query, mode, w, split_threshold, timeout);
            let expect = *reference.get_or_insert(point.embeddings);
            assert_eq!(
                point.embeddings,
                expect,
                "{} at {w} workers disagrees on the count",
                mode.name()
            );
            println!(
                "{}\t{}\t{:.4}\t{:.4}\t{:.2}\t{}\t{}\t{}\t{}",
                mode.name(),
                w,
                point.wall.as_secs_f64(),
                point.max_busy.as_secs_f64(),
                point.parallelism(),
                point.tasks,
                point.steals,
                point.splits,
                point.assists
            );
            points.push(point);
        }
        single.push((mode, points));
    }

    // Experiment 2: mixed q2/q3 batch at the largest pool size, per mode.
    let q2 = Workload::sample(&data, settings[0], per_setting, 17);
    let q3b = Workload::sample(&data, settings[1], per_setting, 59);
    let mut batch_queries: Vec<Hypergraph> = Vec::new();
    for (a, b) in q2.queries.iter().zip(q3b.queries.iter()) {
        batch_queries.push(a.clone());
        batch_queries.push(b.clone());
    }
    let batch_workers = *workers.iter().max().expect("non-empty");
    let mut batch: Vec<(Mode, BatchPoint)> = Vec::new();
    println!("mode\tbatch_queries\twall_s\tqueries_per_s");
    for mode in Mode::ALL {
        let point = run_batch(
            &data,
            &batch_queries,
            mode,
            batch_workers,
            split_threshold,
            timeout,
        );
        println!(
            "{}\t{}\t{:.4}\t{:.2}",
            mode.name(),
            point.queries,
            point.wall.as_secs_f64(),
            point.queries as f64 / point.wall.as_secs_f64().max(1e-9)
        );
        batch.push((mode, point));
    }
    let base = batch[0].1.embeddings;
    for (mode, point) in &batch {
        assert_eq!(
            point.embeddings,
            base,
            "{} disagrees on the batch count",
            mode.name()
        );
    }

    println!("# parallelism = sum(worker busy)/max(worker busy): the achievable");
    println!("# speedup with that many cores. round_robin stays ~1 on a single");
    println!("# query; steal/assist track the pool size.");

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"dataset\": \"{}\", \"host_cpus\": {}, \"split_threshold\": {}, \"default_split_threshold\": {}, \"timeout_s\": {},",
            profile.name,
            num_cpus(),
            split_threshold,
            MatchConfig::default().split_threshold,
            timeout.as_secs()
        );
        // Always set: every mode × worker run above asserted Completed.
        // (The selection-pass `big_count` may be partial under timeout, so
        // it must never land in the report.)
        let single_count = reference.expect("at least one completed run");
        let _ = writeln!(
            out,
            "  \"single_query\": {{\"embeddings\": {single_count}, \"modes\": {{"
        );
        for (mi, (mode, points)) in single.iter().enumerate() {
            let _ = writeln!(out, "    \"{}\": [", mode.name());
            for (pi, p) in points.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "      {{\"workers\": {}, \"wall_s\": {:.4}, \"max_busy_s\": {:.4}, \"sum_busy_s\": {:.4}, \"parallelism\": {:.2}, \"tasks\": {}, \"steals\": {}, \"splits\": {}, \"assists\": {}}}{}",
                    p.workers,
                    p.wall.as_secs_f64(),
                    p.max_busy.as_secs_f64(),
                    p.sum_busy.as_secs_f64(),
                    p.parallelism(),
                    p.tasks,
                    p.steals,
                    p.splits,
                    p.assists,
                    if pi + 1 < points.len() { "," } else { "" }
                );
            }
            let _ = writeln!(out, "    ]{}", if mi + 1 < single.len() { "," } else { "" });
        }
        out.push_str("  }},\n");
        let _ = writeln!(
            out,
            "  \"mixed_batch\": {{\"queries\": {}, \"workers\": {}, \"modes\": {{",
            batch_queries.len(),
            batch_workers
        );
        for (mi, (mode, p)) in batch.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {{\"wall_s\": {:.4}, \"queries_per_s\": {:.2}, \"embeddings\": {}}}{}",
                mode.name(),
                p.wall.as_secs_f64(),
                p.queries as f64 / p.wall.as_secs_f64().max(1e-9),
                p.embeddings,
                if mi + 1 < batch.len() { "," } else { "" }
            );
        }
        out.push_str("  }}\n}\n");
        std::fs::write(&path, out).expect("write json report");
        println!("# wrote {path}");
    }
}

/// One heavy query alone on a fresh pool; returns wall, busy spread and
/// scheduler counters.
fn run_single(
    data: &Arc<Hypergraph>,
    query: &Hypergraph,
    mode: Mode,
    workers: usize,
    split_threshold: usize,
    timeout: Duration,
) -> SinglePoint {
    let server = MatchServer::new(Arc::clone(data), mode.config(workers, split_threshold));
    let begin = Instant::now();
    let outcome = server
        .run(query, QueryOptions::count().with_timeout(timeout))
        .expect("valid query");
    let wall = begin.elapsed();
    // A partial (timed-out) count would differ across modes by scheduling
    // and trip the cross-check with a misleading message — surface the
    // real cause instead.
    assert_eq!(
        outcome.status,
        QueryStatus::Completed,
        "{} at {workers} workers ended {}: raise --timeout",
        mode.name(),
        outcome.status
    );
    let stats = server.stats();
    let per_worker = server.worker_stats();
    let sum_busy: Duration = per_worker.iter().map(|w| w.busy).sum();
    let max_busy = per_worker.iter().map(|w| w.busy).max().unwrap_or_default();
    server.shutdown();
    SinglePoint {
        workers,
        wall,
        sum_busy,
        max_busy,
        tasks: stats.tasks_executed,
        steals: stats.steals,
        splits: stats.splits,
        assists: stats.assists,
        embeddings: outcome.count,
    }
}

/// The mixed batch, all queries in flight at once on a fresh pool.
fn run_batch(
    data: &Arc<Hypergraph>,
    queries: &[Hypergraph],
    mode: Mode,
    workers: usize,
    split_threshold: usize,
    timeout: Duration,
) -> BatchPoint {
    let server = MatchServer::new(Arc::clone(data), mode.config(workers, split_threshold));
    let begin = Instant::now();
    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            server
                .submit(q, QueryOptions::count().with_timeout(timeout))
                .expect("valid query")
        })
        .collect();
    let mut embeddings = 0;
    for (i, h) in handles.into_iter().enumerate() {
        let outcome = h.wait();
        assert_eq!(
            outcome.status,
            QueryStatus::Completed,
            "{} batch query {i} ended {}: raise --timeout",
            mode.name(),
            outcome.status
        );
        embeddings += outcome.count;
    }
    let wall = begin.elapsed();
    server.shutdown();
    BatchPoint {
        wall,
        embeddings,
        queries: queries.len(),
    }
}
