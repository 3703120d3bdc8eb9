//! Kernel-family cross-checks: every executor must produce identical
//! embedding counts whether the set-operation kernels run in `Auto` mode
//! (SIMD + bitmap representation switching) or pinned to the scalar merge
//! family. This is the end-to-end guarantee behind DESIGN.md §5's "the
//! scalar kernels are the oracle".

use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::exec::{BfsExecutor, SequentialExecutor};
use hgmatch_core::{CountSink, MatchConfig, Planner, QueryGraph};
use hgmatch_hypergraph::setops::{self, KernelMode};
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;

/// The kernel mode is process-global; tests in this binary serialise on
/// this lock so a concurrent test cannot flip the mode mid-measurement.
/// (Counts are identical either way — this keeps the mode assertions
/// deterministic.)
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Acquires [`MODE_LOCK`], recovering from a poisoned lock by clearing any
/// kernel mode a panicked prior test may have leaked.
fn lock_mode() -> std::sync::MutexGuard<'static, ()> {
    MODE_LOCK.lock().unwrap_or_else(|poisoned| {
        setops::set_kernel_mode(KernelMode::Auto);
        poisoned.into_inner()
    })
}

/// Deterministic random hypergraph. With few labels and low arity many
/// hyperedges share a signature, producing the large partitions the bitmap
/// and SIMD paths trigger on.
fn random_hypergraph(seed: u64, nv: usize, ne: usize, labels: u32, max_arity: usize) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new();
    for _ in 0..nv {
        b.add_vertex(Label::new(rng.random_range(0..labels)));
    }
    for _ in 0..ne {
        let arity = rng.random_range(2..=max_arity.min(nv));
        let mut edge: Vec<u32> = Vec::new();
        while edge.len() < arity {
            let v = rng.random_range(0..nv as u32);
            if !edge.contains(&v) {
                edge.push(v);
            }
        }
        let _ = b.add_edge(edge).unwrap();
    }
    b.build().unwrap()
}

/// Random-walk query with `k` edges (planted: must have ≥ 1 embedding).
fn random_walk_query(data: &Hypergraph, seed: u64, k: usize) -> Option<Hypergraph> {
    use hgmatch_hypergraph::{EdgeId, VertexId};
    let mut rng = StdRng::seed_from_u64(seed);
    if data.num_edges() < k {
        return None;
    }
    let mut edges = vec![rng.random_range(0..data.num_edges() as u32)];
    for _ in 1..k {
        let mut frontier: Vec<u32> = Vec::new();
        for &e in &edges {
            for &v in data.edge_vertices(EdgeId::new(e)) {
                frontier.extend_from_slice(data.incident_edges(VertexId::new(v)));
            }
        }
        frontier.sort_unstable();
        frontier.dedup();
        frontier.retain(|e| !edges.contains(e));
        if frontier.is_empty() {
            return None;
        }
        edges.push(frontier[rng.random_range(0..frontier.len())]);
    }
    let mut vertices: Vec<u32> = edges
        .iter()
        .flat_map(|&e| data.edge_vertices(EdgeId::new(e)))
        .copied()
        .collect();
    vertices.sort_unstable();
    vertices.dedup();
    let mut b = HypergraphBuilder::new();
    for &v in &vertices {
        b.add_vertex(data.label(VertexId::new(v)));
    }
    for &e in &edges {
        let renumbered: Vec<u32> = data
            .edge_vertices(EdgeId::new(e))
            .iter()
            .map(|&v| vertices.binary_search(&v).unwrap() as u32)
            .collect();
        b.add_edge(renumbered).unwrap();
    }
    Some(b.build().unwrap())
}

fn counts_under(mode: KernelMode, data: &Hypergraph, query: &Hypergraph) -> Vec<u64> {
    setops::set_kernel_mode(mode);
    let qg = QueryGraph::new(query).unwrap();
    let plan = Planner::plan(&qg, data).unwrap();
    let mut counts = Vec::new();

    let sink = CountSink::new();
    SequentialExecutor::run(&plan, data, &sink, &MatchConfig::sequential());
    counts.push(sink.count());

    let sink = CountSink::new();
    BfsExecutor::run(&plan, data, &sink, &MatchConfig::parallel(2));
    counts.push(sink.count());

    let sink = CountSink::new();
    ParallelEngine::run(&plan, data, &sink, &MatchConfig::parallel(4));
    counts.push(sink.count());

    setops::set_kernel_mode(KernelMode::Auto);
    counts
}

#[test]
fn scalar_and_simd_kernels_agree_end_to_end() {
    let _guard = lock_mode();
    // Large two-label instance: {A,A}-style partitions hold hundreds of
    // rows, so the inverted index materialises dense bitmaps and the SIMD
    // kernels run on real posting lists.
    for seed in 0..4u64 {
        let data = random_hypergraph(seed, 40, 900, 2, 3);
        for k in [2usize, 3] {
            let Some(query) = random_walk_query(&data, seed * 13 + k as u64, k) else {
                continue;
            };
            let auto = counts_under(KernelMode::Auto, &data, &query);
            let scalar = counts_under(KernelMode::ForceScalar, &data, &query);
            assert_eq!(
                auto, scalar,
                "kernel families disagree (seed {seed}, k {k})"
            );
            assert!(
                auto[0] >= 1,
                "planted query must be found (seed {seed}, k {k})"
            );
            assert!(
                auto.iter().all(|&c| c == auto[0]),
                "executors disagree (seed {seed})"
            );
        }
    }
}

#[test]
fn kernel_mode_does_not_leak_between_runs() {
    let _guard = lock_mode();
    // Sanity: after a ForceScalar run the mode restores to Auto, and both
    // modes remain reproducible on the same instance.
    let data = random_hypergraph(77, 30, 400, 2, 3);
    let query = random_walk_query(&data, 5, 2).expect("query");
    let first = counts_under(KernelMode::ForceScalar, &data, &query);
    if !setops::env_forced_scalar() {
        // The env override pins ForceScalar process-wide; only without it
        // can the mode restore to Auto.
        assert_eq!(setops::kernel_mode(), KernelMode::Auto);
    }
    let second = counts_under(KernelMode::ForceScalar, &data, &query);
    assert_eq!(first, second);
}

#[test]
fn dense_hub_partition_agrees_across_kernel_families() {
    let _guard = lock_mode();
    // Star data around hub vertices: one giant {A,B} partition whose hub
    // posting list covers every row — the strongest bitmap-path trigger.
    let n = 800u32;
    let mut b = HypergraphBuilder::new();
    b.add_vertex(Label::new(0)); // hub A
    b.add_vertex(Label::new(0)); // second A vertex sharing leaves
    for _ in 0..n {
        b.add_vertex(Label::new(1));
    }
    for leaf in 0..n {
        b.add_edge(vec![0, 2 + leaf]).unwrap();
        if leaf % 2 == 0 {
            b.add_edge(vec![1, 2 + leaf]).unwrap();
        }
    }
    let data = b.build().unwrap();

    // Path query A–B–A: forces an anchored intersection through the leaves.
    let mut qb = HypergraphBuilder::new();
    qb.add_vertex(Label::new(0));
    qb.add_vertex(Label::new(1));
    qb.add_vertex(Label::new(0));
    qb.add_edge(vec![0, 1]).unwrap();
    qb.add_edge(vec![1, 2]).unwrap();
    let query = qb.build().unwrap();

    let auto = counts_under(KernelMode::Auto, &data, &query);
    let scalar = counts_under(KernelMode::ForceScalar, &data, &query);
    assert_eq!(auto, scalar);
    // Each even leaf connects the two hubs both ways: 2 per even leaf.
    assert_eq!(auto[0], u64::from(n / 2) * 2);
}
