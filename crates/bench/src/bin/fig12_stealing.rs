//! Fig. 12 — dynamic load balancing, now measured on the serving layer:
//! the work-assisting scheduler (DESIGN.md §12) versus deque stealing
//! versus pinned round-robin pickup.
//!
//! Four experiments, written to `BENCH_stealing.json`:
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
//!      last-step expansion's validation loop is joined mid-flight by idle
//!      peers (at the bench's `--split-threshold`).
//!    * `assist_default` — the same at the production default threshold
//!      (`hgmatch_core::config::SPLIT_THRESHOLD`).
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
//! 3. **hub_sweep** — the 2-edge hub below at each `--spokes` size,
//!    `steal` vs `assist` at 2 workers like experiment 4: the smallest
//!    size where assisting wins ≥ 1.2× in the median, rounded down to a
//!    power of two, is the production `SPLIT_THRESHOLD`.
//!
//! 4. **hub_adversary** — the one input stealing cannot divide, at 2·10⁶
//!    candidates (`SPLIT_THRESHOLD` in smoke mode) under a 2-edge query
//!    (the expansion is the last step: a count) and a 3-edge one (each
//!    candidate becomes a child task with one candidate of its own, so
//!    nothing splits). `steal` and `assist_default` at 2 workers and
//!    `steal` at 1 take turns for 10 rounds on warm pools; the
//!    `SequentialExecutor` runs each shape as many rounds, the floor the
//!    pool's per-task cost is measured against. The report keeps every
//!    round and the medians.
//!
//! All modes must agree on embedding counts (asserted). `--check` adds the
//! gates: `steal` spreads the heavy query (parallelism ≥ 1.5 at 2 workers,
//! evaluated when the host has 2 CPUs — give it a query of seconds, not
//! smoke's default 0.2 ms one on CH: CI passes `--dataset SB`), the 2-edge
//! hub expansion is split every round and the 3-edge one never, on ≥ 2
//! CPUs two workers stealing the 3-edge hub's one-candidate tasks take at
//! most 1.15× one worker's time, and — full size on ≥ 2 CPUs only —
//! assisting keeps the sweep's 1.2× over stealing on the 2-edge hub count
//! that is the reason the mechanism exists, and the sweep's crossover is
//! not above `SPLIT_THRESHOLD` (DESIGN.md §12.2).
//!
//! Usage: `fig12_stealing [--dataset NAME] [--workers LIST] [--queries N]
//!                        [--candidates N] [--timeout SECS]
//!                        [--split-threshold N] [--spokes LIST]
//!                        [--json PATH] [--check]`.
//! `HGMATCH_BENCH_SMOKE=1` shrinks every knob for the CI bench-smoke job.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hgmatch_bench::experiments::{bench_smoke, heaviest_queries, num_cpus};
use hgmatch_bench::harness::Workload;
use hgmatch_bench::report::median;
use hgmatch_core::config::SPLIT_THRESHOLD;
use hgmatch_core::exec::SequentialExecutor;
use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::{CountSink, MatchConfig, Matcher};
use hgmatch_datasets::{profile_by_name, standard_settings};
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};

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

/// One pool's side of a race: per-round wall times and its scheduler
/// counters over all rounds (the warm-up included).
struct Lane {
    ms: Vec<f64>,
    splits: u64,
    assists: u64,
}

/// How many times faster `assist` ran than `steal` (medians).
fn assist_gain(steal: &Lane, assist: &Lane) -> f64 {
    median(&steal.ms) / median(&assist.ms).max(1e-9)
}

/// One query shape of the hub adversary.
struct HubShape {
    edges: usize,
    steal: Lane,
    assist: Lane,
    one_worker: Lane,
    /// `SequentialExecutor` wall times, one per round.
    sequential_ms: Vec<f64>,
}

/// Assist/steal median past which a swept size counts as a win.
const CROSSOVER_GAIN: f64 = 1.2;

/// Full-size hub adversary: the sweep's crossover (DESIGN.md §12.2), so
/// the default threshold splits its 2-edge expansion.
const HUB_SPOKES: u32 = 2_000_000;

/// Largest 2-worker/1-worker time allowed on the 3-edge hub adversary.
const STEAL_OVER_ONE: f64 = 1.15;

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
    // generated data, and below every swept hub size.
    let mut split_threshold = if smoke { 64 } else { 512 };
    let mut spokes: Vec<u32> = if smoke {
        vec![10_000, 100_000]
    } else {
        vec![
            10_000, 30_000, 100_000, 300_000, 1_000_000, 2_000_000, 4_000_000,
        ]
    };
    let mut json_path: Option<String> = None;
    let mut check = false;

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
            "--spokes" => {
                i += 1;
                spokes = args
                    .get(i)
                    .expect("--spokes LIST")
                    .split(',')
                    .map(|s| s.parse().expect("spoke count"))
                    .collect();
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
    assert!(!workers.is_empty(), "--workers needs at least one count");
    spokes.sort_unstable();

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

    let rounds = if smoke { 3 } else { 10 };

    // Experiment 3: the 2-edge hub swept over its size.
    println!("spokes\tsteal_ms\tassist_ms\tassist_gain\tsplits\tassists");
    // (spokes, steal, assist) per swept size.
    let sweep: Vec<(u32, Lane, Lane)> = spokes
        .iter()
        .map(|&n| {
            let configs = [Mode::Steal, Mode::Assist].map(|m| m.config(2, split_threshold));
            let data = Arc::new(hub_graph(n));
            let [steal, assist] = race(&data, &hub_query(2), n, configs, rounds, timeout);
            println!(
                "{n}\t{:.2}\t{:.2}\t{:.2}\t{}\t{}",
                median(&steal.ms),
                median(&assist.ms),
                assist_gain(&steal, &assist),
                assist.splits,
                assist.assists
            );
            (n, steal, assist)
        })
        .collect();
    let crossover = sweep
        .iter()
        .find(|(_, steal, assist)| assist_gain(steal, assist) >= CROSSOVER_GAIN)
        .map(|&(n, ..)| n as usize);
    // The threshold a crossover calls for: the power of two at or below it.
    let crossover_threshold = crossover.map(|n| 1usize << n.ilog2());
    println!(
        "# crossover (assist/steal >= {CROSSOVER_GAIN}): {crossover:?} spokes -> threshold {crossover_threshold:?}, SPLIT_THRESHOLD {SPLIT_THRESHOLD}"
    );

    // Experiment 4: the hub adversary. Smoke runs it at the smallest size
    // the default threshold splits.
    let hub_spokes = if smoke {
        SPLIT_THRESHOLD as u32
    } else {
        HUB_SPOKES
    };
    let hub = run_hub(hub_spokes, rounds, timeout);
    println!(
        "hub_edges\tsteal_ms\tassist_ms\tone_worker_ms\tsequential_ms\tassist_gain\tsplits\tassists"
    );
    for shape in &hub {
        println!(
            "{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.2}\t{}\t{}",
            shape.edges,
            median(&shape.steal.ms),
            median(&shape.assist.ms),
            median(&shape.one_worker.ms),
            median(&shape.sequential_ms),
            assist_gain(&shape.steal, &shape.assist),
            shape.assist.splits,
            shape.assist.assists
        );
    }

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"dataset\": \"{}\", \"host_cpus\": {}, \"split_threshold\": {}, \"default_split_threshold\": {}, \"timeout_s\": {},",
            profile.name,
            num_cpus(),
            split_threshold,
            SPLIT_THRESHOLD,
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
        out.push_str("  }},\n");
        let _ = writeln!(
            out,
            "  \"hub_sweep\": {{\"query_edges\": 2, \"workers\": 2, \"rounds\": {rounds}, \"crossover_gain\": {CROSSOVER_GAIN}, \"crossover_spokes\": {}, \"points\": [",
            crossover.map_or("null".into(), |n| n.to_string())
        );
        for (pi, (n, steal, assist)) in sweep.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"spokes\": {}, \"steal_ms\": {:.2}, \"assist_ms\": {:.2}, \"assist_gain\": {:.2}, \"splits\": {}, \"assists\": {},\n     \"steal_rounds_ms\": {:.2?}, \"assist_rounds_ms\": {:.2?}}}{}",
                n,
                median(&steal.ms),
                median(&assist.ms),
                assist_gain(steal, assist),
                assist.splits,
                assist.assists,
                steal.ms,
                assist.ms,
                if pi + 1 < sweep.len() { "," } else { "" }
            );
        }
        out.push_str("  ]},\n");
        let _ = writeln!(
            out,
            "  \"hub_adversary\": {{\"spokes\": {hub_spokes}, \"workers\": 2, \"rounds\": {rounds}, \"shapes\": ["
        );
        for (si, shape) in hub.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"query_edges\": {}, \"steal_ms\": {:.1}, \"assist_default_ms\": {:.1}, \"one_worker_ms\": {:.1}, \"sequential_ms\": {:.1}, \"assist_gain\": {:.2}, \"splits\": {}, \"assists\": {},\n     \"steal_rounds_ms\": {:.1?}, \"assist_default_rounds_ms\": {:.1?}, \"one_worker_rounds_ms\": {:.1?}, \"sequential_rounds_ms\": {:.1?}}}{}",
                shape.edges,
                median(&shape.steal.ms),
                median(&shape.assist.ms),
                median(&shape.one_worker.ms),
                median(&shape.sequential_ms),
                assist_gain(&shape.steal, &shape.assist),
                shape.assist.splits,
                shape.assist.assists,
                shape.steal.ms,
                shape.assist.ms,
                shape.one_worker.ms,
                shape.sequential_ms,
                if si + 1 < hub.len() { "," } else { "" }
            );
        }
        out.push_str("  ]}\n}\n");
        std::fs::write(&path, out).expect("write json report");
        println!("# wrote {path}");
    }

    if check {
        let mut failures = Vec::new();
        // Counts were cross-checked (asserted) above; what is left to gate
        // is that the schedulers still do what their rows say.
        let steal_at_2 = single
            .iter()
            .find(|(mode, _)| *mode == Mode::Steal)
            .and_then(|(_, points)| points.iter().find(|p| p.workers == 2));
        match steal_at_2 {
            Some(p) if num_cpus() >= 2 => {
                println!(
                    "# check: steal parallelism at 2 workers {:.2} (>= 1.5)",
                    p.parallelism()
                );
                if p.parallelism() < 1.5 {
                    failures.push("steal does not spread the heavy query over 2 workers");
                }
            }
            _ => println!("# check: steal parallelism skipped (needs 2 CPUs and 2 in --workers)"),
        }
        let (count, children) = (&hub[0], &hub[1]);
        let runs = rounds as u64 + 1; // the warm-up splits too
        let gain = assist_gain(&count.steal, &count.assist);
        println!(
            "# check: hub count split {} / assisted {} times in {runs} runs, assist_gain {gain:.2}; 3-edge hub split {} times",
            count.assist.splits, count.assist.assists, children.assist.splits
        );
        // The split is deterministic. Whether the ticket is picked up before
        // the owner drains the range is a race: a second CPU wins it every
        // time at 2·10⁶ candidates (12 ms).
        if count.assist.splits != runs {
            failures.push("the 2-edge hub expansion was not split on every run");
        }
        // Its candidates become children there: only the last step splits.
        if children.assist.splits != 0 {
            failures.push("the 3-edge hub split an expansion short of the last step");
        }
        // Per-task overhead (DESIGN.md §8.1): a second worker stealing
        // one-candidate tasks must not make the run slower than one.
        let steal_over_one = median(&children.steal.ms) / median(&children.one_worker.ms).max(1e-9);
        if num_cpus() >= 2 {
            println!(
                "# check: 3-edge hub steal at 2 workers / 1 worker {steal_over_one:.2} (<= {STEAL_OVER_ONE})"
            );
            if steal_over_one > STEAL_OVER_ONE {
                failures.push("two workers stealing the 3-edge hub lose to one");
            }
        }
        if !smoke && num_cpus() >= 2 {
            if count.assist.assists == 0 || gain < CROSSOVER_GAIN {
                failures.push("assisting no longer beats stealing 1.2x on the hub count");
            }
            if crossover_threshold.is_none_or(|t| t > SPLIT_THRESHOLD) {
                failures.push("the hub sweep puts the crossover above SPLIT_THRESHOLD");
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("# CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        println!("# CHECK OK");
    }
}

/// The hub adversary's data: `spokes` edges `{x, hub}`, one leaf edge
/// `{x, leaf_x}` per spoke, and the single anchor edge `{root, hub}` that
/// makes the hub expansion happen exactly once.
fn hub_graph(spokes: u32) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    b.add_vertices(spokes as usize, Label::new(0));
    b.add_vertices(spokes as usize, Label::new(3));
    let root = b.add_vertex(Label::new(2)).raw();
    let hub = b.add_vertex(Label::new(1)).raw();
    for x in 0..spokes {
        b.add_edge(vec![x, hub]).expect("spoke");
        b.add_edge(vec![x, spokes + x]).expect("leaf");
    }
    b.add_edge(vec![root, hub]).expect("anchor");
    b.build().expect("hub graph")
}

/// `{root, hub}, {hub, spoke}` — one expansion of `spokes` candidates, each
/// a complete embedding — and with `edges` = 3 also `{spoke, leaf}`, which
/// turns every candidate into a child task.
fn hub_query(edges: usize) -> Hypergraph {
    let mut q = HypergraphBuilder::new();
    for label in [2, 1, 0, 3] {
        q.add_vertex(Label::new(label));
    }
    for pair in [[0, 1], [1, 2], [2, 3]].iter().take(edges) {
        q.add_edge(pair.to_vec()).expect("query edge");
    }
    q.build().expect("hub query")
}

/// Experiment 4: both hub shapes, `rounds` alternating rounds on warm pools.
fn run_hub(spokes: u32, rounds: usize, timeout: Duration) -> Vec<HubShape> {
    let data = Arc::new(hub_graph(spokes));
    [2usize, 3]
        .into_iter()
        .map(|edges| {
            let configs = [
                Mode::Steal.config(2, 0),
                Mode::AssistDefault.config(2, 0),
                Mode::Steal.config(1, 0),
            ];
            let query = hub_query(edges);
            let [steal, assist, one_worker] = race(&data, &query, spokes, configs, rounds, timeout);
            HubShape {
                edges,
                steal,
                assist,
                one_worker,
                sequential_ms: sequential_rounds(&data, &query, spokes, rounds),
            }
        })
        .collect()
}

/// Times `rounds` runs of `query` through the `SequentialExecutor`, after
/// one untimed run; every run must find `expect` embeddings.
fn sequential_rounds(
    data: &Hypergraph,
    query: &Hypergraph,
    expect: u32,
    rounds: usize,
) -> Vec<f64> {
    let plan = Matcher::new(data).plan(query).expect("valid query");
    let time = || {
        let sink = CountSink::new();
        let begin = Instant::now();
        SequentialExecutor::run(&plan, data, &sink, &MatchConfig::sequential());
        let ms = begin.elapsed().as_secs_f64() * 1e3;
        assert_eq!(sink.count(), u64::from(expect), "hub query count");
        ms
    };
    time();
    (0..rounds).map(|_| time()).collect()
}

/// Times `rounds` runs of `query` on one warm pool per config, rotating
/// who goes first each round so drift hits every pool alike. Every run
/// must complete with `expect` embeddings.
fn race<const N: usize>(
    data: &Arc<Hypergraph>,
    query: &Hypergraph,
    expect: u32,
    configs: [ServeConfig; N],
    rounds: usize,
    timeout: Duration,
) -> [Lane; N] {
    let pools = configs.map(|config| MatchServer::new(Arc::clone(data), config));
    let time = |server: &MatchServer| {
        let begin = Instant::now();
        let outcome = server
            .run(query, QueryOptions::count().with_timeout(timeout))
            .expect("valid query");
        assert_eq!(outcome.status, QueryStatus::Completed);
        assert_eq!(outcome.count, u64::from(expect), "hub query count");
        begin.elapsed().as_secs_f64() * 1e3
    };
    for server in &pools {
        time(server); // plan cache, pool threads, page faults
    }
    let mut ms = vec![Vec::with_capacity(rounds); N];
    for round in 0..rounds {
        for k in 0..N {
            let i = (round + k) % N;
            ms[i].push(time(&pools[i]));
        }
    }
    let mut ms = ms.into_iter();
    pools.map(|server| {
        let stats = server.stats();
        server.shutdown();
        Lane {
            ms: ms.next().expect("one series per pool"),
            splits: stats.splits,
            assists: stats.assists,
        }
    })
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
