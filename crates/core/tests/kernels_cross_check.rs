//! Kernel-family cross-checks: every executor must produce identical
//! embedding counts whether the set-operation kernels run in `Auto` mode
//! (SIMD + bitmap representation switching) or pinned to the scalar merge
//! family. This is the end-to-end guarantee behind DESIGN.md §5's "the
//! scalar kernels are the oracle"; the swarm (`swarm.rs`) draws the kernel
//! family per case on random instances, these are the fixed ones.

use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::exec::{BfsExecutor, SequentialExecutor};
use hgmatch_core::{CountSink, MatchConfig, Planner, QueryGraph};
use hgmatch_datasets::testgen::{random_arity_hypergraph, random_subquery};
use hgmatch_hypergraph::setops::{self, KernelMode};
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};
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
fn kernel_mode_does_not_leak_between_runs() {
    let _guard = lock_mode();
    // Sanity: after a ForceScalar run the mode restores to Auto, and both
    // modes remain reproducible on the same instance.
    let data = random_arity_hypergraph(77, 30, 400, 2, 2, 3);
    let query = random_subquery(&data, 5, 2).expect("query");
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
