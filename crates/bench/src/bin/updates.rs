//! Dynamic-update throughput and query latency under concurrent mutation
//! — the workload the `hypergraph::dynamic` subsystem (DESIGN.md §11)
//! exists for.
//!
//! Four phases over one dataset profile:
//!
//! 1. `insert_throughput` — build the graph from an insert-only stream
//!    through [`DynamicHypergraph`] (inserts/sec), compared against the
//!    offline one-shot build of the same edges.
//! 2. `mixed_throughput` — a 70:30 insert:delete stream (ops/sec), with
//!    tombstoning and threshold compaction in play.
//! 3. `snapshot_cost` — epoch freezes during a mixed stream, swept over
//!    the delta size (a snapshot every 50 / 500 / 5 000 ops): median/p95
//!    snapshot latency and partitions re-frozen per epoch, beside
//!    `full_rebuild_ms`, the offline build of the same graph. A snapshot
//!    re-freezes only the partitions its epoch changed (DESIGN.md §11.2),
//!    so the cost must follow the delta and stay well under the rebuild.
//! 4. `serve_under_mutation` — a writer thread applies the stream and
//!    publishes epochs to a [`MatchServer`] while a reader keeps a q2/q3
//!    workload in flight: per-query latency (p50/p95), served throughput
//!    and concurrent update throughput.
//!
//! Results print as TSV; `--json PATH` writes the committed
//! `BENCH_updates.json` baseline shape, one run per dataset. `--check`
//! turns the delta-proportional publish claim into a hard gate: the median
//! snapshot at 500 ops per epoch must cost at most a dataset's share of a
//! full rebuild ([`gate_max_ratio`]).
//!
//! Usage: `updates [--dataset NAME[,NAME...]] [--ops N] [--threads N]
//!                 [--snapshot-every N] [--json PATH] [--check]`.
//! `--snapshot-every` is the publish cadence of phase 4; phase 3 sweeps.
//! `HGMATCH_BENCH_SMOKE=1` shrinks the stream for the CI bench-smoke job.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hgmatch_bench::experiments::{bench_smoke, num_cpus};
use hgmatch_bench::report::{git_sha, median, percentile};
use hgmatch_core::serve::{MatchServer, QueryOptions, ServeConfig};
use hgmatch_datasets::testgen::rebuild_oracle;
use hgmatch_datasets::{
    generate_update_stream, profile_by_name, sample_query, standard_settings, UpdateStreamConfig,
};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, UpdateOp};

/// Delta sizes (ops per snapshot) of the `snapshot_cost` sweep.
const SNAPSHOT_SWEEP: [usize; 3] = [50, 500, 5_000];
/// The delta size `--check` gates.
const GATED_EVERY: usize = 500;
/// Offline rebuilds timed for the `full_rebuild_ms` reference (median).
const REBUILD_REPS: usize = 5;

/// One row of the `snapshot_cost` sweep.
struct SnapshotCost {
    every: usize,
    p50_ms: f64,
    p95_ms: f64,
    /// Share of the partitions of all snapshots whose body was re-frozen.
    frozen_frac: f64,
}

/// The bound `--check` holds the median snapshot at [`GATED_EVERY`] ops to,
/// as a share of a full rebuild of the same graph. AR-S, where nearly every
/// one of 58 k partitions holds one row, is the dataset on which a snapshot
/// pays most per partition rather than per changed row: it read
/// 0.08–0.13 in smoke runs on a 2-vCPU host, and 0.30–0.34 when every
/// snapshot copied each signature twice and gave each partition a
/// global-id `Vec` of its own. Elsewhere the bound is the coarse 0.5.
fn gate_max_ratio(dataset: &str) -> f64 {
    match dataset {
        "AR-S" => 0.2,
        _ => 0.5,
    }
}

/// Settings shared by every dataset of one invocation.
struct Settings {
    ops: usize,
    threads: usize,
    snapshot_every: usize,
    host_cpus: usize,
}

/// One dataset's report: its JSON object, and the gate's reading (`None`
/// when the stream is too short for the gated delta size).
struct Run {
    json: String,
    gate_ratio: Option<f64>,
    full_rebuild_ms: f64,
}

fn main() {
    let smoke = bench_smoke();
    let mut datasets = "CH".to_string();
    let mut ops = if smoke { 2_000 } else { 20_000 };
    let mut threads = num_cpus();
    let mut snapshot_every = if smoke { 100 } else { 500 };
    let mut json_path: Option<String> = None;
    let mut check = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => {
                i += 1;
                datasets = args.get(i).expect("--dataset NAME[,NAME...]").clone();
            }
            "--ops" => {
                i += 1;
                ops = args.get(i).and_then(|s| s.parse().ok()).expect("--ops N");
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--threads N");
            }
            "--snapshot-every" => {
                i += 1;
                snapshot_every = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--snapshot-every N");
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
    let settings = Settings {
        ops,
        threads,
        snapshot_every,
        host_cpus: num_cpus(),
    };

    let runs: Vec<(&str, Run)> = datasets
        .split(',')
        .map(|dataset| (dataset, run(dataset, &settings)))
        .collect();

    if let Some(path) = json_path {
        let rows: Vec<&str> = runs.iter().map(|(_, run)| run.json.as_str()).collect();
        let out = format!(
            "{{\n  \"git_sha\": \"{}\", \"host_cpus\": {}, \"runs\": [\n{}\n  ]\n}}\n",
            git_sha(),
            settings.host_cpus,
            rows.join(",\n")
        );
        std::fs::write(&path, out).expect("write json report");
        println!("# wrote {path}");
    }

    if check {
        for (dataset, run) in &runs {
            let ratio = run.gate_ratio.unwrap_or_else(|| {
                panic!("--check gates the snapshot at {GATED_EVERY} ops per epoch; --ops {ops} is too short for it")
            });
            let max = gate_max_ratio(dataset);
            assert!(
                ratio <= max,
                "{dataset} snapshot gate: p50 at {GATED_EVERY} ops is {ratio:.3} x full rebuild ({:.3}ms), bound {max}",
                run.full_rebuild_ms,
            );
        }
        println!("# CHECK OK");
    }
}

/// Runs the four phases on one dataset profile.
fn run(dataset: &str, settings: &Settings) -> Run {
    let &Settings {
        ops,
        threads,
        snapshot_every,
        host_cpus,
    } = settings;
    let gate_max = gate_max_ratio(dataset);
    let profile = profile_by_name(dataset).expect("known dataset");
    let base = profile.generate();
    println!(
        "# updates: {} ({} vertices, {} edges), {ops} ops, snapshot every {snapshot_every}, {threads} threads, host_cpus={host_cpus}",
        profile.name,
        base.num_vertices(),
        base.num_edges(),
    );

    // Phase 1: insert-only throughput vs the offline builder.
    let insert_stream = generate_update_stream(
        &base,
        &UpdateStreamConfig {
            ops,
            insert_ratio: 1.0,
            seed: 11,
            ..Default::default()
        },
    );
    // Each phase's clock starts after the writer is seeded, so the
    // throughputs time the stream alone.
    let mut dynamic = DynamicHypergraph::from_hypergraph(&base);
    let begin = Instant::now();
    for op in &insert_stream {
        dynamic.apply(op).expect("stream op applies");
    }
    let insert_secs = begin.elapsed().as_secs_f64();
    let inserts_per_sec = ops as f64 / insert_secs.max(1e-9);
    let built = dynamic.snapshot().graph;

    let begin = Instant::now();
    let offline = rebuild_oracle(&built);
    let offline_secs = begin.elapsed().as_secs_f64();
    assert_eq!(*built, offline, "dynamic build must equal offline build");
    println!(
        "insert_throughput\t{inserts_per_sec:.0} inserts/s ({insert_secs:.4}s; offline one-shot build of the result: {offline_secs:.4}s)"
    );

    // Phase 2: mixed stream throughput (70:30).
    let mixed_stream = generate_update_stream(
        &base,
        &UpdateStreamConfig {
            ops,
            insert_ratio: 0.7,
            seed: 13,
            ..Default::default()
        },
    );
    let deletes = mixed_stream
        .iter()
        .filter(|op| matches!(op, UpdateOp::Delete(_)))
        .count();
    let mut dynamic = DynamicHypergraph::from_hypergraph(&base);
    let begin = Instant::now();
    for op in &mixed_stream {
        dynamic.apply(op).expect("stream op applies");
    }
    let mixed_secs = begin.elapsed().as_secs_f64();
    let mixed_ops_per_sec = ops as f64 / mixed_secs.max(1e-9);
    let deletes_per_sec = deletes as f64 / (mixed_secs * deletes as f64 / ops as f64).max(1e-9);
    println!(
        "mixed_throughput\t{mixed_ops_per_sec:.0} ops/s ({} inserts, {deletes} deletes in {mixed_secs:.4}s)",
        ops - deletes
    );

    // Phase 3: snapshot cost over the same mixed stream, swept over the
    // delta size, against a full offline rebuild of the graph it ends on.
    let mut sweep: Vec<SnapshotCost> = Vec::new();
    let mut last = Arc::clone(&built);
    for every in SNAPSHOT_SWEEP.into_iter().filter(|&every| every <= ops) {
        let mut dynamic = DynamicHypergraph::from_hypergraph(&base);
        dynamic.snapshot();
        let mut secs: Vec<f64> = Vec::new();
        let mut frozen = 0usize;
        let mut partitions = 0usize;
        for chunk in mixed_stream.chunks(every) {
            for op in chunk {
                dynamic.apply(op).expect("stream op applies");
            }
            let t = Instant::now();
            let delta = dynamic.snapshot();
            secs.push(t.elapsed().as_secs_f64());
            frozen += delta.partitions_frozen;
            partitions += delta.graph.partitions().len();
            last = delta.graph;
        }
        let cost = SnapshotCost {
            every,
            p50_ms: median(&secs) * 1e3,
            p95_ms: percentile(&secs, 95.0) * 1e3,
            frozen_frac: frozen as f64 / partitions.max(1) as f64,
        };
        println!(
            "snapshot_cost\tevery {every}\tp50 {:.3}ms\tp95 {:.3}ms\t{:.1}% of partitions re-frozen\t({} snapshots)",
            cost.p50_ms,
            cost.p95_ms,
            cost.frozen_frac * 100.0,
            secs.len()
        );
        sweep.push(cost);
    }
    let rebuild_secs: Vec<f64> = (0..REBUILD_REPS)
        .map(|_| {
            let t = Instant::now();
            let rebuilt = rebuild_oracle(&last);
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(*last, rebuilt, "snapshot must equal the rebuild");
            secs
        })
        .collect();
    let full_rebuild_ms = median(&rebuild_secs) * 1e3;
    // The gated row exists only when the stream is long enough for it
    // (`--ops` below the gated delta size leaves it out of the sweep).
    let gate_ratio = sweep
        .iter()
        .find(|c| c.every == GATED_EVERY)
        .map(|gated| gated.p50_ms / full_rebuild_ms);
    println!("snapshot_cost\tfull_rebuild {full_rebuild_ms:.3}ms");
    if let Some(ratio) = gate_ratio {
        println!(
            "snapshot_cost\tgate p50@{GATED_EVERY}/rebuild = {ratio:.3} (<= {gate_max}: {})",
            ratio <= gate_max
        );
    }

    // Phase 4: serving under concurrent mutation.
    let mut dynamic = DynamicHypergraph::from_hypergraph(&base);
    let first = dynamic.snapshot().graph;
    let settings = standard_settings();
    let mut queries: Vec<Hypergraph> = Vec::new();
    for (si, setting) in settings.iter().take(2).enumerate() {
        for s in 0..6u64 {
            if let Some(q) = sample_query(&first, setting, 31 + s * 7 + si as u64) {
                queries.push(q);
            }
        }
    }
    assert!(
        queries.len() >= 8,
        "workload sampling produced too few queries"
    );

    let server = MatchServer::new(
        Arc::clone(&first),
        ServeConfig::default().with_threads(threads),
    );
    let writer_done = AtomicBool::new(false);
    let mut latencies: Vec<f64> = Vec::new();
    let mut served = 0u64;
    let serve_begin = Instant::now();
    let concurrent_updates_per_sec = std::thread::scope(|scope| {
        let server_ref = &server;
        let done_ref = &writer_done;
        let writer = scope.spawn(move || {
            let begin = Instant::now();
            for chunk in mixed_stream.chunks(snapshot_every) {
                for op in chunk {
                    dynamic.apply(op).expect("stream op applies");
                }
                server_ref.update_data(dynamic.snapshot().graph, &[], false);
            }
            done_ref.store(true, Ordering::Release);
            ops as f64 / begin.elapsed().as_secs_f64().max(1e-9)
        });

        // Reader: keep the whole workload in flight until the writer ends.
        while !writer_done.load(Ordering::Acquire) {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| {
                    server
                        .submit(q, QueryOptions::count())
                        .expect("valid query")
                })
                .collect();
            for handle in handles {
                let outcome = handle.wait();
                latencies.push(outcome.elapsed.as_secs_f64());
                served += 1;
            }
        }
        writer.join().expect("writer thread")
    });
    let serve_secs = serve_begin.elapsed().as_secs_f64();
    let served_qps = served as f64 / serve_secs.max(1e-9);
    let stats = server.stats();
    println!(
        "serve_under_mutation\t{served} queries in {serve_secs:.4}s ({served_qps:.1} q/s)\tp50 {:.3}ms\tp95 {:.3}ms\tupdates {concurrent_updates_per_sec:.0} ops/s",
        median(&latencies) * 1e3,
        percentile(&latencies, 95.0) * 1e3,
    );
    println!(
        "# epochs {}, plan cache {} hits / {} misses / {} invalidated",
        stats.data_epoch, stats.plan_cache_hits, stats.plan_cache_misses, stats.plans_invalidated
    );

    let mut out = String::new();
    let _ = writeln!(
        out,
        "    {{\"dataset\": \"{}\", \"ops\": {ops}, \"threads\": {threads}, \"host_cpus\": {host_cpus}, \"snapshot_every\": {snapshot_every},",
        profile.name
    );
    let _ = writeln!(
        out,
        "     \"insert_throughput\": {{\"inserts_per_s\": {inserts_per_sec:.0}, \"offline_build_s\": {offline_secs:.4}}},"
    );
    let _ = writeln!(
        out,
        "     \"mixed_throughput\": {{\"ops_per_s\": {mixed_ops_per_sec:.0}, \"deletes_per_s\": {deletes_per_sec:.0}}},"
    );
    let rows: Vec<String> = sweep
        .iter()
        .map(|c| {
            format!(
                "{{\"every\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"frozen_frac\": {:.4}}}",
                c.every, c.p50_ms, c.p95_ms, c.frozen_frac
            )
        })
        .collect();
    let gate = gate_ratio.map_or("null".to_string(), |ratio| {
        format!(
            "{{\"every\": {GATED_EVERY}, \"p50_over_rebuild\": {ratio:.4}, \"max\": {gate_max}, \"pass\": {}}}",
            ratio <= gate_max
        )
    });
    let _ = writeln!(
        out,
        "     \"snapshot_cost\": {{\"full_rebuild_ms\": {full_rebuild_ms:.3}, \"sweep\": [\n       {}\n     ], \"gate\": {gate}}},",
        rows.join(",\n       ")
    );
    let _ = write!(
        out,
        "     \"serve_under_mutation\": {{\"queries_per_s\": {served_qps:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"updates_per_s\": {concurrent_updates_per_sec:.0}, \"epochs\": {}, \"plans_invalidated\": {}}}}}",
        median(&latencies) * 1e3,
        percentile(&latencies, 95.0) * 1e3,
        stats.data_epoch,
        stats.plans_invalidated
    );
    Run {
        json: out,
        gate_ratio,
        full_rebuild_ms,
    }
}
