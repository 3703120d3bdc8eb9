//! Serve-layer adaptive re-optimization (DESIGN.md §15) under concurrent
//! data epochs: a cached plan whose order the planner misjudged is
//! corrected *mid-query* by the runtime trigger; the re-planned suffix
//! executes against the snapshot the query pinned at submission, never a
//! newer epoch; and the corrected plan is written back to the cache only
//! when the entry still belongs to the pinned epoch, converging repeated
//! submissions onto the corrected order.
//!
//! The fixture is the chain-with-branch adversary with its skew hidden by
//! label averages: an A–B–C chain whose C (v2) fans out into 30 junk
//! {C,D} rows and 10 filter {C,E} rows, beside 32 junk and 60 filter rows
//! spread one per other C vertex. Algorithm 3 reads row counts (62 junk
//! against 70 filter) and orders the junk edge first; the cost model's
//! per-label size-biased degrees (15 junk, 2.3 filter, where v2 carries 30
//! and 10) find the filter-first order cheaper, but by less than
//! `PLAN_MARGIN`, so the plan keeps the junk-first order. Only runtime
//! feedback corrects it: the eager trigger's suffix re-search has no
//! margin. A publish empties the plan cache (DESIGN.md §13.4), so all of
//! this happens within one epoch.

use std::sync::Arc;

use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::{MatchConfig, Matcher, QueryOutcome};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, HypergraphBuilder, Label};

/// Labels A=0 B=1 C=2 D=3 E=4; v0 A, v1 B and the hub v2 C.
const HUB: u32 = 2;

/// Adds one {C,`label`} row on `c`, or on a fresh C vertex when `None`.
fn add_branch(writer: &mut DynamicHypergraph, c: Option<u32>, label: u32) {
    let c = c.unwrap_or_else(|| writer.add_vertex(Label::new(2)).raw());
    let x = writer.add_vertex(Label::new(label)).raw();
    writer.insert_hyperedge(vec![c, x]).unwrap();
}

/// The skewed chain-with-branch writer of the module docs.
fn base_writer() -> DynamicHypergraph {
    let mut d = DynamicHypergraph::new();
    d.add_vertices(1, Label::new(0)); // A: v0
    d.add_vertices(1, Label::new(1)); // B: v1
    d.add_vertices(1, Label::new(2)); // C: v2, the hub
    d.insert_hyperedge(vec![0, 1]).unwrap(); // {A,B}
    d.insert_hyperedge(vec![1, HUB]).unwrap(); // {B,C}
    for (hub_rows, spread_rows, label) in [(30, 32, 3), (10, 60, 4)] {
        (0..hub_rows).for_each(|_| add_branch(&mut d, Some(HUB), label));
        (0..spread_rows).for_each(|_| add_branch(&mut d, None, label));
    }
    d
}

/// The standing query: the A–B–C chain plus both branches off C.
fn branch_query() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 1, 2, 3, 4] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![0, 1]).unwrap(); // q0 {A,B}
    b.add_edge(vec![1, 2]).unwrap(); // q1 {B,C}
    b.add_edge(vec![2, 3]).unwrap(); // q2 {C,D} — the junk fan-out
    b.add_edge(vec![2, 4]).unwrap(); // q3 {C,E} — the filter
    b.build().unwrap()
}

/// A server with an eager trigger (ratio 0.5: any boundary may re-check).
fn adaptive_server(data: Arc<Hypergraph>) -> MatchServer {
    MatchServer::new(
        data,
        ServeConfig {
            match_config: MatchConfig::default().with_replan_ratio(0.5),
            ..ServeConfig::default().with_threads(2)
        },
    )
}

/// Sorted embeddings of a fresh sequential run on `data` — the oracle the
/// served outcome must match exactly.
fn fresh_embeddings(data: &Hypergraph, query: &Hypergraph) -> Vec<hgmatch_core::Embedding> {
    Matcher::new(data).find_all(query).expect("fresh run")
}

fn served_embeddings(outcome: &QueryOutcome) -> &[hgmatch_core::Embedding] {
    outcome.embeddings.as_deref().expect("collected")
}

/// The convergence loop end-to-end: misjudged cached entry → mid-query
/// re-plan → write-back → subsequent submissions start corrected and stop
/// re-planning.
#[test]
fn stale_cached_plan_replans_midquery_and_converges() {
    let mut writer = base_writer();
    let snap = writer.snapshot();
    let server = adaptive_server(Arc::clone(&snap.graph));
    let query = branch_query();
    let oracle = fresh_embeddings(&snap.graph, &query);
    assert_eq!(oracle.len(), 300);

    // The miss caches the junk-first plan; the run corrects it mid-query
    // and writes the correction back to the entry it just created.
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert!(!outcome.plan_cached);
    assert_eq!(served_embeddings(&outcome), oracle.as_slice());
    assert!(
        outcome.metrics.replans >= 1,
        "a junk-first plan must adopt a mid-query re-plan"
    );
    let after = server.stats();
    assert!(after.replans_midquery >= 1);
    assert_eq!(
        after.estimate_corrections, 1,
        "the corrected plan must be written back to the same-epoch entry"
    );

    // Convergence: the next submission starts from the corrected plan —
    // same results, and the (still eager) trigger only *confirms* now, so
    // no further re-plan is adopted.
    let converged = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert!(converged.plan_cached);
    assert_eq!(served_embeddings(&converged), oracle.as_slice());
    assert_eq!(
        converged.metrics.replans, 0,
        "a corrected plan must not re-trigger on the same observations"
    );
    assert_eq!(
        server.stats().replans_midquery,
        after.replans_midquery,
        "converged submissions stop re-planning"
    );
}

/// A mid-query re-plan races concurrently published epochs: the re-planned
/// suffix keeps executing against the snapshot the query pinned at
/// submission, and later submissions see the newer epoch's answer.
#[test]
fn midquery_replan_keeps_pinned_snapshot_across_epochs() {
    let mut writer = base_writer();
    let first = writer.snapshot();
    let server = adaptive_server(Arc::clone(&first.graph));
    let query = branch_query();
    server.run(&query, QueryOptions::count()).unwrap(); // prime

    // Each epoch adds one filter row on the hub, growing every count by
    // 30. Pin a query to epoch 1, and while it runs (re-planning
    // mid-flight), publish epoch 2.
    add_branch(&mut writer, Some(HUB), 4);
    let epoch1 = writer.snapshot().graph;
    server.update_data(Arc::clone(&epoch1), &[], false);
    let handle = server.submit(&query, QueryOptions::collect_all()).unwrap();

    add_branch(&mut writer, Some(HUB), 4);
    let epoch2 = writer.snapshot().graph;
    server.update_data(Arc::clone(&epoch2), &[], false);

    let outcome = handle.wait();
    assert_eq!(outcome.status, QueryStatus::Completed);
    assert_eq!(outcome.data_epoch, 1, "the query stays on its pinned epoch");
    assert!(outcome.metrics.replans >= 1);
    let pinned_oracle = fresh_embeddings(&epoch1, &query);
    let newer_oracle = fresh_embeddings(&epoch2, &query);
    assert_eq!(pinned_oracle.len(), 330);
    assert_eq!(newer_oracle.len(), 360);
    assert_eq!(
        served_embeddings(&outcome),
        pinned_oracle.as_slice(),
        "a re-planned suffix must not leak rows from a newer epoch"
    );

    // Submissions after the updates see epoch 2's answer (whether or not
    // the racing write-back landed before epoch 2 emptied the cache — the
    // epoch gate makes both interleavings serve correct plans).
    let fresh = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert_eq!(fresh.data_epoch, 2);
    assert_eq!(served_embeddings(&fresh), newer_oracle.as_slice());
}

/// Cooperative cancellation landing while the query is re-planning (the
/// trigger fires constantly at ratio 0.5 on a large fan-out): the query
/// stops promptly, the pool survives, and subsequent submissions of the
/// same shape are served correctly.
#[test]
fn cancellation_during_replans_leaves_server_consistent() {
    let mut writer = base_writer();
    // 600 junk rows on the hub: a run long enough to cancel into.
    (0..570).for_each(|_| add_branch(&mut writer, Some(HUB), 3));
    let snap = writer.snapshot();
    let server = adaptive_server(Arc::clone(&snap.graph));
    let query = branch_query();

    let oracle = fresh_embeddings(&snap.graph, &query);
    assert_eq!(oracle.len(), 6000);

    let handle = server.submit(&query, QueryOptions::collect_all()).unwrap();
    handle.cancel();
    let outcome = handle.wait();
    match outcome.status {
        QueryStatus::Cancelled => {
            assert!(
                outcome.count <= oracle.len() as u64,
                "a cancelled query reports only what it found"
            );
        }
        QueryStatus::Completed => {
            // The pool outran the cancel — then the answer must be exact.
            assert_eq!(served_embeddings(&outcome), oracle.as_slice());
        }
        other => panic!("unexpected status {other:?}"),
    }

    // The pool is intact and the shape still serves exactly.
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert_eq!(outcome.status, QueryStatus::Completed);
    assert_eq!(served_embeddings(&outcome), oracle.as_slice());
    server.shutdown();
}
