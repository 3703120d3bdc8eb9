//! Snapshot restore vs text re-ingest — the cold-start cost the HGMB
//! format (DESIGN.md §17) exists to cut.
//!
//! Three phases over one dataset profile:
//!
//! 1. `text_reingest` — the baseline cold start: re-read the label/edge
//!    text files, re-parse, re-intern, re-run the full adaptive index
//!    build, and derive the incidence CSR and adjacency counts.
//! 2. `snapshot_restore` — read + CRC-verify + decode the HGMB snapshot
//!    of the same graph: check its rows, rebuild each index from them,
//!    read the stored adjacency counts, and derive the incidence CSR. The
//!    decoded graph is asserted equal to the text-built one, and
//!    re-encoding it must be byte-stable.
//! 3. `post_churn_restore` — the same differential after a mixed
//!    insert/delete stream, so the measured path covers tombstone-compacted
//!    dynamic state, not just pristine builds.
//!
//! Results print as TSV; `--json PATH` writes the committed
//! `BENCH_snapshot.json` baseline shape. `--check` turns the ≥10×
//! restore-speedup claim into a hard assertion (it is CPU-bound on both
//! sides, so it holds on shared runners too).
//!
//! What the ≥ 10× gate measures: two equally complete graphs. Both timed
//! closures read `incident_edges(0)` and `adjacent_count(0)`, so each side
//! pays for its index, its incidence CSR and its adjacency counts. The
//! text side derives the adjacency counts (on HB-S ≈ 107 ms of a 142 ms
//! cold start, 2 vCPUs; the matcher never reads them, only the baselines'
//! IHS filter does), the snapshot reads them, since they are the one
//! derived value a snapshot stores. So the ratio is mostly what storing
//! adjacency saves; without it the text side is ≈ 3× the restore.
//!
//! Usage: `snapshot_restore [--dataset NAME] [--iters N] [--json PATH]
//!                          [--check]`.
//! `HGMATCH_BENCH_SMOKE=1` shrinks the iteration count for the CI
//! bench-smoke job.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use hgmatch_bench::experiments::bench_smoke;
use hgmatch_bench::report::{git_sha, host_cpus, median};
use hgmatch_datasets::testgen::assert_derived_state_eq;
use hgmatch_datasets::{generate_update_stream, profile_by_name, UpdateStreamConfig};
use hgmatch_hypergraph::io::{encode_snapshot, load_snapshot, load_text, save_snapshot, save_text};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, VertexId};

/// Median-of-`iters` timing of one cold start, in seconds. The previous
/// run's graph is dropped after the clock stops.
fn time_runs(iters: usize, mut run: impl FnMut() -> Hypergraph) -> (f64, Hypergraph) {
    let mut secs = Vec::with_capacity(iters);
    let mut last = None;
    for _ in 0..iters {
        let begin = Instant::now();
        let graph = run();
        secs.push(begin.elapsed().as_secs_f64());
        last = Some(graph);
    }
    (median(&secs), last.expect("iters >= 1"))
}

/// `graph` with its lazily derived state forced: a text build derives the
/// incidence CSR and adjacency counts on first use (DESIGN.md §11.2), a
/// restore the CSR only, so both timed closures read both to compare two
/// equally complete graphs.
fn complete(graph: Hypergraph) -> Hypergraph {
    let v = VertexId::new(0);
    std::hint::black_box((graph.incident_edges(v).len(), graph.adjacent_count(v)));
    graph
}

fn main() {
    let smoke = bench_smoke();
    // HB (hub-heavy) is the default: its dense postings make re-indexing
    // expensive relative to snapshot size, which is exactly the cold-start
    // profile snapshots exist for.
    let mut dataset = "HB".to_string();
    let mut iters = if smoke { 3 } else { 7 };
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
            "--iters" => {
                i += 1;
                iters = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .expect("--iters N");
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

    let profile = profile_by_name(&dataset).expect("known dataset");
    let base = profile.generate();
    println!(
        "# snapshot_restore: {} ({} vertices, {} edges), median of {iters} runs",
        profile.name,
        base.num_vertices(),
        base.num_edges(),
    );

    let dir: PathBuf = std::env::temp_dir().join(format!(
        "hgmatch-snapshot-restore-{}-{}",
        profile.name,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let labels = dir.join("data.labels");
    let edges = dir.join("data.edges");
    let snap = dir.join("data.hgsnap");

    // Phase 1: text re-ingest (parse + intern + full index build).
    save_text(&base, &labels, &edges).expect("write text files");
    let (text_secs, text_built) = time_runs(iters, || {
        complete(load_text(&labels, &edges).expect("text loads"))
    });
    assert_eq!(text_built, base, "text round-trip must be lossless");
    println!("text_reingest\t{:.4}s median", text_secs);

    // Phase 2: snapshot restore of the same graph.
    save_snapshot(&base, &snap).expect("write snapshot");
    let snapshot_bytes = std::fs::metadata(&snap).expect("snapshot exists").len();
    let (restore_secs, restored) = time_runs(iters, || {
        complete(load_snapshot(&snap).expect("snapshot loads"))
    });
    assert_eq!(restored, base, "restore must be lossless");
    assert_derived_state_eq(&restored, &base);
    assert_eq!(
        std::fs::read(&snap).expect("snapshot readable"),
        &*encode_snapshot(&restored),
        "re-encode must be byte-stable"
    );
    let speedup = text_secs / restore_secs.max(1e-9);
    println!(
        "snapshot_restore\t{restore_secs:.4}s median\t{snapshot_bytes} bytes\t{speedup:.1}x vs text"
    );

    // Phase 3: restore after dynamic churn (tombstones compacted away by
    // the snapshot merge, but row orders and representations reflect the
    // stream, not a pristine build).
    let stream = generate_update_stream(
        &base,
        &UpdateStreamConfig {
            ops: if smoke { 1_000 } else { 5_000 },
            insert_ratio: 0.6,
            seed: 29,
            ..Default::default()
        },
    );
    let mut dynamic = DynamicHypergraph::from_hypergraph(&base);
    for op in &stream {
        dynamic.apply(op).expect("stream op applies");
    }
    let churned = dynamic.snapshot().graph;
    save_snapshot(&churned, &snap).expect("write churned snapshot");
    let (churn_secs, churn_restored) = time_runs(iters, || {
        complete(load_snapshot(&snap).expect("snapshot loads"))
    });
    assert_eq!(
        churn_restored, *churned,
        "post-churn restore must be lossless"
    );
    assert_derived_state_eq(&churn_restored, &churned);
    println!(
        "post_churn_restore\t{churn_secs:.4}s median\t({} ops applied, {} edges)",
        stream.len(),
        churned.num_edges()
    );

    std::fs::remove_dir_all(&dir).ok();

    if check {
        assert!(
            speedup >= 10.0,
            "snapshot restore must be >= 10x faster than text re-ingest, got {speedup:.1}x"
        );
        println!("# check passed: {speedup:.1}x >= 10x");
    }

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"git_sha\": \"{}\", \"host_cpus\": {}, \"dataset\": \"{}\", \"iters\": {iters},",
            git_sha(),
            host_cpus(),
            profile.name
        );
        let _ = writeln!(out, "  \"text_reingest_s\": {text_secs:.4},");
        let _ = writeln!(
            out,
            "  \"snapshot_restore\": {{\"seconds\": {restore_secs:.4}, \"bytes\": {snapshot_bytes}, \"speedup\": {speedup:.1}}},"
        );
        let _ = writeln!(
            out,
            "  \"post_churn_restore\": {{\"seconds\": {churn_secs:.4}, \"stream_ops\": {}}}",
            stream.len()
        );
        out.push_str("}\n");
        std::fs::write(&path, out).expect("write json report");
        println!("# wrote {path}");
    }
}
