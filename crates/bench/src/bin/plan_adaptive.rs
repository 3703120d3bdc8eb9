//! Adaptive mid-query re-optimization benchmark (DESIGN.md §15): what a
//! runtime-triggered suffix re-plan recovers when a plan's cardinality
//! estimates are badly stale, and what the feedback machinery costs when
//! they are accurate.
//!
//! Workloads:
//!
//! 1. `adversary` — the stale-statistics family: a chain-with-branch
//!    instance (A–B hub into `m` C vertices, each C fanning into `k` junk
//!    {C,D} rows, exactly one C carrying the selective {C,E} filter). The
//!    stale plan — compiled through a doctored cost model that believes
//!    the {B,C} hub is 1000× smaller, with the junk branch ordered before
//!    the filter — walks `m·k` partials into the junk. The adaptive run
//!    executes the *same stale plan*: the trigger fires at the {B,C}
//!    boundary (observed `m` vs an estimate below 1), the honest suffix
//!    re-search hoists the filter, and all but one junk expansion never
//!    happens. Recovery = static / adaptive wall-clock; the committed
//!    baseline asserts ≥ 10×.
//! 2. `well_estimated` — the regression guard: the planner's own honest
//!    plan on the same instance plus q2/q3 random-walk queries over a
//!    Table II profile, run with the trigger off (`ratio 0`) vs. on at the
//!    production default (`ratio 8`). Estimates are accurate, so the
//!    trigger never fires and the only cost is per-boundary observation
//!    bookkeeping; the committed baseline asserts ≤ 5% regression.
//!
//! Both arms of every pair run on the same parallel engine with the same
//! worker count — the comparison isolates the re-optimizer, not the
//! executor. Results print as TSV; `--json PATH` writes the committed
//! `BENCH_adaptive.json` baseline shape. `HGMATCH_BENCH_SMOKE=1` shrinks
//! everything for CI.
//!
//! Usage: `plan_adaptive [--timeout SECS] [--repeat N] [--threads N] [--json PATH]`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use hgmatch_bench::experiments::bench_smoke;
use hgmatch_bench::report::{git_sha, host_cpus};
use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::{CostModel, CountSink, MatchConfig, Plan, Planner, QueryGraph};
use hgmatch_datasets::{profile_by_name, sample_query, standard_settings};
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};

/// The stale-statistics adversary: one {A,B} row, `m` {B,C} rows off the
/// B hub, `k` junk {C,D} rows per C vertex, and a single selective {C,E}
/// row on the first C. Labels A=0 B=1 C=2 D=3 E=4. The matching query is
/// the A–B–C chain plus both branches off C; its only embeddings go
/// through the filtered C, so a junk-first order does `m·k` wasted
/// validations where filter-first does `m + k`.
fn adversary(m: u32, k: u32) -> (Hypergraph, Hypergraph) {
    let mut b = HypergraphBuilder::new();
    let a = b.add_vertex(Label::new(0)).raw();
    let hub = b.add_vertex(Label::new(1)).raw();
    let c0 = hub + 1;
    for _ in 0..m {
        b.add_vertex(Label::new(2));
    }
    let e = b.add_vertex(Label::new(4)).raw();
    b.add_edge(vec![a, hub]).unwrap();
    for i in 0..m {
        b.add_edge(vec![hub, c0 + i]).unwrap();
    }
    for i in 0..m {
        for _ in 0..k {
            let d = b.add_vertex(Label::new(3)).raw();
            b.add_edge(vec![c0 + i, d]).unwrap();
        }
    }
    b.add_edge(vec![c0, e]).unwrap();
    let data = b.build().unwrap();

    let mut q = HypergraphBuilder::new();
    for &l in &[0u32, 1, 2, 3, 4] {
        q.add_vertex(Label::new(l));
    }
    q.add_edge(vec![0, 1]).unwrap(); // q0 {A,B}
    q.add_edge(vec![1, 2]).unwrap(); // q1 {B,C}
    q.add_edge(vec![2, 3]).unwrap(); // q2 {C,D} — the junk fan-out
    q.add_edge(vec![2, 4]).unwrap(); // q3 {C,E} — the filter
    (data, q.build().unwrap())
}

/// The stale plan: a cost model that believes the {B,C} hub is 1000×
/// smaller (so every runtime observation there blows past any trigger
/// ratio), compiled with the junk branch ordered before the filter — the
/// order a planner with those statistics could plausibly have kept.
fn stale_plan(q: &QueryGraph, data: &Hypergraph) -> Plan {
    let mut model = CostModel::new(q, data);
    model.scale_edge(1, 1.0 / 1000.0);
    Planner::plan_with_order_costed(q, data, vec![0, 1, 2, 3], &model).expect("valid order")
}

struct Measure {
    secs: f64,
    embeddings: u64,
    replans: u64,
    timed_out: bool,
}

/// Best-of-`repeat` run of `plan`; `ratio == 0` is the static arm (no
/// adaptive state at all), `ratio > 0` the adaptive arm. Both arms use
/// the identical parallel engine and worker count.
fn run(
    q: &QueryGraph,
    plan: &Arc<Plan>,
    data: &Hypergraph,
    threads: usize,
    ratio: f64,
    timeout: Duration,
    repeat: usize,
) -> Measure {
    let config = MatchConfig::parallel(threads)
        .with_timeout(timeout)
        .with_replan_ratio(ratio);
    let mut best: Option<Measure> = None;
    for _ in 0..repeat.max(1) {
        let sink = CountSink::new();
        let stats = if ratio > 0.0 {
            ParallelEngine::run_adaptive(q, plan, data, &sink, &config)
        } else {
            ParallelEngine::run(plan, data, &sink, &config)
        };
        let m = Measure {
            secs: stats.elapsed.as_secs_f64(),
            embeddings: stats.embeddings(),
            replans: stats.metrics.replans,
            timed_out: stats.timed_out,
        };
        if best
            .as_ref()
            .is_none_or(|b| (m.timed_out, m.secs) < (b.timed_out, b.secs))
        {
            best = Some(m);
        }
    }
    best.expect("at least one repeat ran")
}

struct Row {
    workload: &'static str,
    query: String,
    statics: Measure,
    adaptive: Measure,
}

impl Row {
    /// static / adaptive wall-clock: > 1 is time the re-plan won back,
    /// < 1 is overhead the feedback machinery cost.
    fn recovery(&self) -> f64 {
        self.statics.secs / self.adaptive.secs.max(1e-9)
    }
}

#[allow(clippy::too_many_arguments)]
fn measure(
    workload: &'static str,
    query: String,
    q: &QueryGraph,
    plan: Plan,
    data: &Hypergraph,
    threads: usize,
    timeout: Duration,
    repeat: usize,
) -> Row {
    let plan = Arc::new(plan);
    let statics = run(q, &plan, data, threads, 0.0, timeout, repeat);
    let adaptive = run(q, &plan, data, threads, 8.0, timeout, repeat);
    assert!(
        statics.timed_out || adaptive.timed_out || statics.embeddings == adaptive.embeddings,
        "{workload}/{query}: adaptive multiset diverged: {} vs {}",
        statics.embeddings,
        adaptive.embeddings
    );
    Row {
        workload,
        query,
        statics,
        adaptive,
    }
}

fn main() {
    let smoke = bench_smoke();
    let mut timeout = Duration::from_secs(if smoke { 5 } else { 30 });
    let mut repeat = if smoke { 2 } else { 5 };
    let mut threads = 4usize;
    let mut json_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => {
                i += 1;
                let secs: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--timeout SECS");
                timeout = Duration::from_secs_f64(secs);
            }
            "--repeat" => {
                i += 1;
                repeat = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--repeat N");
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--threads N");
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json PATH").clone());
            }
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }

    let mut rows: Vec<Row> = Vec::new();

    // Workload 1: the stale-statistics adversary at two scales. The same
    // stale plan runs with the trigger off (walks the junk to completion)
    // and on (re-plans at the hub boundary, hoists the filter).
    let scales: &[(u32, u32)] = if smoke {
        &[(200, 40)]
    } else {
        &[(2_000, 200), (4_000, 400)]
    };
    for &(m, k) in scales {
        let (data, query) = adversary(m, k);
        let q = QueryGraph::new(&query).expect("valid query");
        let plan = stale_plan(&q, &data);
        let row = measure(
            "adversary",
            format!("branch-m{m}-k{k}"),
            &q,
            plan,
            &data,
            threads,
            timeout,
            repeat,
        );
        assert!(
            row.adaptive.replans >= 1,
            "the stale plan must adopt a re-plan (estimates are 1000x off)"
        );
        rows.push(row);
    }

    // Workload 2a: the planner's own (honest) plan on the same instances —
    // accurate estimates, so the ratio-8 trigger never fires. These runs
    // finish in tens of microseconds — the same order as per-run pool
    // spawn jitter — so best-of needs far more repeats than the
    // millisecond-scale adversary to measure a few percent reliably.
    let we_repeat = if smoke { repeat } else { repeat.max(25) };
    for &(m, k) in scales {
        let (data, query) = adversary(m, k);
        let q = QueryGraph::new(&query).expect("valid query");
        let plan = Planner::plan(&q, &data).expect("plans");
        rows.push(measure(
            "well_estimated",
            format!("branch-honest-m{m}-k{k}"),
            &q,
            plan,
            &data,
            threads,
            timeout,
            we_repeat,
        ));
    }

    // Workload 2b: q2/q3 random-walk queries over a Table II profile, the
    // figure benches' sampler — organic shapes with accurate estimates.
    let profile = profile_by_name("CH").expect("known profile");
    let data = profile.generate();
    let per_setting = if smoke { 1 } else { 2 };
    for setting in standard_settings().iter().take(2) {
        let mut found = 0;
        for seed in 0..32u64 {
            if found == per_setting {
                break;
            }
            let Some(query) = sample_query(&data, setting, 2000 + seed * 13) else {
                continue;
            };
            if query.num_edges() < 2 {
                continue; // single-edge plans have nothing to re-plan
            }
            let q = QueryGraph::new(&query).expect("valid query");
            let plan = Planner::plan(&q, &data).expect("plans");
            rows.push(measure(
                "well_estimated",
                format!("CH-{}-s{seed}", setting.name),
                &q,
                plan,
                &data,
                threads,
                timeout,
                we_repeat,
            ));
            found += 1;
        }
    }

    println!("# plan_adaptive: threads {threads}, timeout {timeout:?}, repeat {repeat}");
    println!("workload\tquery\tembeddings\tstatic_s\tadaptive_s\treplans\trecovery");
    let mut min_recovery = f64::INFINITY;
    let mut max_regression = 0.0f64;
    for row in &rows {
        let recovery = row.recovery();
        if row.workload == "adversary" {
            min_recovery = min_recovery.min(recovery);
        } else {
            // Overhead of the armed-but-idle trigger: adaptive / static.
            max_regression = max_regression.max(1.0 / recovery.max(1e-9) - 1.0);
        }
        println!(
            "{}\t{}\t{}\t{:.6}\t{:.6}\t{}\t{:.3}",
            row.workload,
            row.query,
            row.adaptive.embeddings,
            row.statics.secs,
            row.adaptive.secs,
            row.adaptive.replans,
            recovery,
        );
    }
    println!(
        "# adversary min recovery {min_recovery:.2}x; well-estimated max regression {:.1}%",
        max_regression * 100.0
    );

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"git_sha\": \"{}\", \"host_cpus\": {}, \"threads\": {threads}, \"timeout_s\": {:.1}, \"repeat\": {repeat},",
            git_sha(),
            host_cpus(),
            timeout.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "  \"adversary_min_recovery\": {min_recovery:.3}, \"well_estimated_max_regression\": {max_regression:.4},"
        );
        out.push_str("  \"rows\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let arm = |m: &Measure| {
                format!(
                    "{{\"secs\": {:.6}, \"embeddings\": {}, \"replans\": {}, \"timed_out\": {}}}",
                    m.secs, m.embeddings, m.replans, m.timed_out
                )
            };
            let _ = writeln!(
                out,
                "    {{\"workload\": \"{}\", \"query\": \"{}\", \"recovery\": {:.3}, \"static\": {}, \"adaptive\": {}}}{}",
                row.workload,
                row.query,
                row.recovery(),
                arm(&row.statics),
                arm(&row.adaptive),
                if i + 1 == rows.len() { "" } else { "," }
            );
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write json report");
        println!("# wrote {path}");
    }
}
