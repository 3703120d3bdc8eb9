//! Plan-quality comparison: the paper's greedy Algorithm 3 order vs. the
//! statistics-driven cost-based order vs. the cost model's adversarial
//! *worst* connected order, end-to-end on the committed workloads
//! (DESIGN.md §13.5).
//!
//! Workloads:
//!
//! 1. `adversary` — the planner-adversary family (an A–B–C–D path query
//!    over a hub-heavy dataset, the scaled-up twin of the CLI `explain`
//!    golden fixture): greedy starts at the smallest partition, whose hub
//!    vertex fans the frontier out; the cost model starts at the selective
//!    end instead. Both scales are priced above the pilot gate; the pilot
//!    (DESIGN.md §13.3) measures the model's order against greedy and
//!    keeps it.
//! 2. Profile queries — q2/q3 random-walk queries sampled from Table II
//!    dataset profiles, the same sampler the figure benches use.
//!
//! Every `(workload, query)` pair runs single-threaded with all three
//! orders (the worst order under a timeout — that is the point of it) and
//! reports embeddings, per-order wall-clock and the speedup of cost-based
//! over greedy. When the greedy and cost-based orders coincide the run is
//! measured once and reported for both — identical plans have identical
//! runtimes, re-measuring would only add noise.
//!
//! Results print as TSV; `--json PATH` writes the committed
//! `BENCH_plan.json` baseline shape (fixed field order, deterministic row
//! order). `HGMATCH_BENCH_SMOKE=1` shrinks the profile rows for CI; the
//! adversary keeps its smaller full-size scale, where a 100× gap is
//! measurable. `--check` exits 1 when a profile row's cost-based order runs
//! more than 10 % slower than greedy's, or an adversary row's speed-up is
//! below 100×.
//!
//! Usage: `plan_quality [--timeout SECS] [--repeat N] [--json PATH] [--check]`.

use std::fmt::Write as _;
use std::time::Duration;

use hgmatch_bench::experiments::{bench_smoke, num_cpus};
use hgmatch_core::{CostModel, CountSink, MatchConfig, Matcher, Planner, QueryGraph};
use hgmatch_datasets::{profile_by_name, sample_query, standard_settings};
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};

/// The planner-adversary instance: labels A=0, B=1, C=2, D=3; `ab` {A,B}
/// edges sharing one B hub, `bc` {B,C} edges fanning out of the same hub,
/// `cd` selective {C,D} edges. The query is the A–B–C–D path.
fn adversary(ab: u32, bc: u32, cd: u32) -> (Hypergraph, Hypergraph) {
    assert!(cd <= bc, "every D-partner attaches to an existing C vertex");
    let mut b = HypergraphBuilder::new();
    let a0 = 0u32;
    for _ in 0..ab {
        b.add_vertex(Label::new(0));
    }
    let hub = b.add_vertex(Label::new(1)).raw();
    let c0 = hub + 1;
    for _ in 0..bc {
        b.add_vertex(Label::new(2));
    }
    let d0 = c0 + bc;
    for _ in 0..cd {
        b.add_vertex(Label::new(3));
    }
    for i in 0..ab {
        b.add_edge(vec![a0 + i, hub]).unwrap();
    }
    for j in 0..bc {
        b.add_edge(vec![hub, c0 + j]).unwrap();
    }
    for j in 0..cd {
        b.add_edge(vec![c0 + j, d0 + j]).unwrap();
    }
    let data = b.build().unwrap();

    let mut q = HypergraphBuilder::new();
    for &l in &[0u32, 1, 2, 3] {
        q.add_vertex(Label::new(l));
    }
    q.add_edge(vec![0, 1]).unwrap();
    q.add_edge(vec![1, 2]).unwrap();
    q.add_edge(vec![2, 3]).unwrap();
    (data, q.build().unwrap())
}

/// One measured order: its edges, estimated cost and wall-clock.
struct OrderRun {
    order: Vec<u32>,
    est_cost: f64,
    secs: f64,
    embeddings: u64,
    timed_out: bool,
}

/// Runs `order` against the data single-threaded, `repeat` times, keeping
/// the fastest run (measurement noise only ever slows a run down).
fn run_order(
    data: &Hypergraph,
    q: &QueryGraph,
    order: &[u32],
    timeout: Duration,
    repeat: usize,
) -> OrderRun {
    let model = CostModel::new(q, data);
    let est_cost = model.estimate_order(order).total_cost;
    let plan = Planner::plan_with_order(q, data, order.to_vec()).expect("valid order");
    let matcher = Matcher::with_config(data, MatchConfig::default().with_timeout(timeout));
    // Report one *coherent* run: the best repeat, where any completed run
    // beats any timed-out one and faster beats slower. Mixing fields
    // across repeats could pair a completed runtime with a truncated
    // count when machine noise times out a single repeat.
    let mut best: Option<(bool, f64, u64)> = None; // (timed_out, secs, embeddings)
    for _ in 0..repeat.max(1) {
        let sink = CountSink::new();
        let stats = matcher.run_plan(&plan, &sink);
        let run = (
            stats.timed_out,
            stats.elapsed.as_secs_f64(),
            stats.embeddings(),
        );
        if best.is_none_or(|b| (run.0, run.1) < (b.0, b.1)) {
            best = Some(run);
        }
    }
    let (timed_out, secs, embeddings) = best.expect("at least one repeat ran");
    OrderRun {
        order: order.to_vec(),
        est_cost,
        secs,
        embeddings,
        timed_out,
    }
}

struct Row {
    workload: String,
    query: String,
    edges: usize,
    greedy: OrderRun,
    cost: OrderRun,
    worst: OrderRun,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.greedy.secs / self.cost.secs.max(1e-9)
    }
}

fn measure(
    workload: &str,
    name: &str,
    data: &Hypergraph,
    query: &Hypergraph,
    timeout: Duration,
    repeat: usize,
) -> Row {
    let q = QueryGraph::new(query).expect("valid query");
    let model = CostModel::new(&q, data);
    let greedy_order = Planner::greedy_order(&q, data);
    // The order the production planner actually compiles (margin-gated
    // search, piloted above the gate).
    let cost_order = Planner::plan(&q, data).expect("plans").order().to_vec();
    let worst_order = model.worst_order(8);

    let greedy = run_order(data, &q, &greedy_order, timeout, repeat);
    let cost = if cost_order == greedy_order {
        // Identical plan ⇒ identical runtime; re-measuring adds noise only.
        OrderRun {
            order: cost_order,
            est_cost: greedy.est_cost,
            secs: greedy.secs,
            embeddings: greedy.embeddings,
            timed_out: greedy.timed_out,
        }
    } else {
        run_order(data, &q, &cost_order, timeout, repeat)
    };
    let worst = run_order(data, &q, &worst_order, timeout, repeat);
    assert!(
        greedy.timed_out || cost.timed_out || greedy.embeddings == cost.embeddings,
        "order invariance violated: {} vs {}",
        greedy.embeddings,
        cost.embeddings
    );
    Row {
        workload: workload.to_string(),
        query: name.to_string(),
        edges: q.num_edges(),
        greedy,
        cost,
        worst,
    }
}

fn main() {
    let smoke = bench_smoke();
    let mut timeout = Duration::from_secs(if smoke { 5 } else { 30 });
    let mut repeat = if smoke { 1 } else { 3 };
    let mut json_path: Option<String> = None;
    let mut check = false;
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
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json PATH").clone());
            }
            "--check" => check = true,
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }

    let mut rows: Vec<Row> = Vec::new();

    // Workload 1: the planner-adversary family at two scales.
    let scales: &[(u32, u32, u32)] = if smoke {
        &[(8, 20_000, 64)]
    } else {
        &[(8, 20_000, 64), (16, 60_000, 128)]
    };
    for &(ab, bc, cd) in scales {
        let (data, query) = adversary(ab, bc, cd);
        rows.push(measure(
            "adversary",
            &format!("path4-ab{ab}-bc{bc}-cd{cd}"),
            &data,
            &query,
            timeout,
            repeat,
        ));
    }

    // Workload 2: q2/q3 random-walk queries over dataset profiles.
    let profiles: &[&str] = if smoke { &["CH"] } else { &["CH", "SB"] };
    let per_setting = if smoke { 2 } else { 3 };
    for name in profiles {
        let profile = profile_by_name(name).expect("known profile");
        let data = profile.generate();
        for setting in standard_settings().iter().take(2) {
            let mut found = 0;
            for seed in 0..32u64 {
                if found == per_setting {
                    break;
                }
                let Some(query) = sample_query(&data, setting, 1000 + seed * 17) else {
                    continue;
                };
                if query.num_edges() < 2 {
                    continue; // single-edge queries have only one order
                }
                rows.push(measure(
                    name,
                    &format!("{}-s{seed}", setting.name),
                    &data,
                    &query,
                    timeout,
                    repeat,
                ));
                found += 1;
            }
        }
    }

    let host_cpus = num_cpus();
    println!("# plan_quality: timeout {timeout:?}, repeat {repeat}, host_cpus={host_cpus}");
    println!(
        "workload\tquery\tedges\tembeddings\tgreedy_s\tcost_s\tworst_s\tspeedup\tgreedy_order\tcost_order\tworst_order"
    );
    let mut regressions = 0usize;
    let mut best_speedup = 0.0f64;
    let mut failures: Vec<String> = Vec::new();
    for row in &rows {
        let speedup = row.speedup();
        let regressed = speedup < 1.0 / 1.1;
        regressions += usize::from(regressed);
        if row.workload == "adversary" {
            if speedup < 100.0 {
                failures.push(format!(
                    "adversary {} speed-up {speedup:.1}x < 100x",
                    row.query
                ));
            }
        } else if regressed {
            failures.push(format!(
                "{} {}: cost-based {:?} {:.6} s vs greedy {:?} {:.6} s",
                row.workload,
                row.query,
                row.cost.order,
                row.cost.secs,
                row.greedy.order,
                row.greedy.secs
            ));
        }
        if row.edges > 1 {
            best_speedup = best_speedup.max(speedup);
        }
        println!(
            "{}\t{}\t{}\t{}\t{:.6}\t{:.6}\t{}\t{:.3}\t{:?}\t{:?}\t{:?}",
            row.workload,
            row.query,
            row.edges,
            row.cost.embeddings,
            row.greedy.secs,
            row.cost.secs,
            if row.worst.timed_out {
                format!(">{:.1} (timeout)", row.worst.secs)
            } else {
                format!("{:.6}", row.worst.secs)
            },
            speedup,
            row.greedy.order,
            row.cost.order,
            row.worst.order,
        );
    }
    println!(
        "# cost-based >10% slower than greedy on {regressions}/{} queries; best multi-edge speedup {best_speedup:.2}x",
        rows.len()
    );

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"host_cpus\": {host_cpus}, \"timeout_s\": {:.1}, \"repeat\": {repeat}, \"regressions\": {regressions}, \"best_multi_edge_speedup\": {best_speedup:.3},",
            timeout.as_secs_f64()
        );
        out.push_str("  \"rows\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let run = |r: &OrderRun| {
                format!(
                    "{{\"order\": {:?}, \"est_cost\": {:.4}, \"secs\": {:.6}, \"embeddings\": {}, \"timed_out\": {}}}",
                    r.order, r.est_cost, r.secs, r.embeddings, r.timed_out
                )
            };
            let _ = writeln!(
                out,
                "    {{\"workload\": \"{}\", \"query\": \"{}\", \"edges\": {}, \"speedup\": {:.3}, \"greedy\": {}, \"cost_based\": {}, \"worst\": {}}}{}",
                row.workload,
                row.query,
                row.edges,
                row.speedup(),
                run(&row.greedy),
                run(&row.cost),
                run(&row.worst),
                if i + 1 == rows.len() { "" } else { "," }
            );
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write json report");
        println!("# wrote {path}");
    }

    if check {
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("# CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        println!("# CHECK OK");
    }
}
