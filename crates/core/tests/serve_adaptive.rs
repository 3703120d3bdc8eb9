//! Serve-layer adaptive re-optimization (DESIGN.md §15) under concurrent
//! data epochs: a cached plan whose estimates went stale *without*
//! tripping the drift threshold (DESIGN.md §13.4 keeps the entry — its
//! partition ids are valid and its order was near-optimal at plan time)
//! is corrected *mid-query* by the runtime trigger; the re-planned suffix
//! executes against the snapshot the query pinned at submission, never a
//! newer epoch; and the corrected plan is written back to the cache only
//! when the entry still belongs to the pinned epoch, converging repeated
//! submissions onto the corrected order.
//!
//! The fixture is the canonical chain-with-branch adversary: an A–B–C
//! chain whose C fans out into a junk {C,D} branch and a {C,E} filter.
//! At prime time the junk branch is one row and the filter is two, so the
//! honest planner orders the junk edge before the filter; an update then
//! grows the branch 30× while staying under an (absurdly large) drift
//! threshold, so the *same* entry serves the next submission with its
//! junk-first order and 30×-off estimates — only runtime feedback can
//! correct it.

use std::sync::Arc;

use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::{MatchConfig, Matcher, QueryOutcome};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, HypergraphBuilder, Label};

/// Chain-with-branch writer: {A,B}, {B,C}, one junk {C,D} row, two
/// selective {C,E} rows. Labels A=0 B=1 C=2 D=3 E=4.
fn base_writer() -> DynamicHypergraph {
    let mut d = DynamicHypergraph::new();
    d.add_vertices(1, Label::new(0)); // A: v0
    d.add_vertices(1, Label::new(1)); // B: v1
    d.add_vertices(1, Label::new(2)); // C: v2
    d.add_vertices(1, Label::new(3)); // D: v3
    d.add_vertices(2, Label::new(4)); // E: v4, v5
    d.insert_hyperedge(vec![0, 1]).unwrap(); // {A,B}
    d.insert_hyperedge(vec![1, 2]).unwrap(); // {B,C}
    d.insert_hyperedge(vec![2, 3]).unwrap(); // {C,D}
    d.insert_hyperedge(vec![2, 4]).unwrap(); // {C,E}
    d.insert_hyperedge(vec![2, 5]).unwrap(); // {C,E}
    d
}

/// Grows the junk {C,D} branch by `n` fresh rows (cardinality drift, same
/// signatures — partition ids stay stable).
fn grow_junk(writer: &mut DynamicHypergraph, n: u32) {
    for _ in 0..n {
        let d = writer.add_vertex(Label::new(3)).raw();
        writer.insert_hyperedge(vec![2, d]).unwrap();
    }
}

/// The standing query: the A–B–C chain plus both branches off C.
fn branch_query() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 1, 2, 3, 4] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![0, 1]).unwrap(); // q0 {A,B}
    b.add_edge(vec![1, 2]).unwrap(); // q1 {B,C}
    b.add_edge(vec![2, 3]).unwrap(); // q2 {C,D} — the (growable) fan-out
    b.add_edge(vec![2, 4]).unwrap(); // q3 {C,E} — the filter
    b.build().unwrap()
}

/// A server whose plan cache never drift-drops entries (threshold 1e18),
/// so runtime feedback is the *only* thing correcting stale estimates,
/// with an eager trigger (ratio 0.5: any boundary may re-check).
fn adaptive_server(data: Arc<Hypergraph>) -> MatchServer {
    MatchServer::new(
        data,
        ServeConfig {
            match_config: MatchConfig::default().with_replan_ratio(0.5),
            ..ServeConfig::default()
                .with_threads(2)
                .with_replan_drift(1e18)
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

/// The convergence loop end-to-end: stale cached entry → mid-query
/// re-plan → write-back → subsequent submissions start corrected and stop
/// re-planning.
#[test]
fn stale_cached_plan_replans_midquery_and_converges() {
    let mut writer = base_writer();
    let first = writer.snapshot();
    let server = adaptive_server(Arc::clone(&first.graph));
    let query = branch_query();

    // Prime the cache on the small snapshot (junk-first is optimal here).
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert!(!outcome.plan_cached);
    assert_eq!(
        served_embeddings(&outcome),
        fresh_embeddings(&first.graph, &query).as_slice()
    );

    // Grow the junk branch 30×: cardinality drift the huge threshold
    // ignores, so the stale junk-first entry survives into the new epoch.
    grow_junk(&mut writer, 29);
    let delta = writer.snapshot();
    assert!(delta.sids_stable);
    server.update_data(
        Arc::clone(&delta.graph),
        &delta.touched_labels,
        delta.sids_stable,
    );

    let before = server.stats();
    assert_eq!(before.plans_replanned, 0, "drift never drops the entry");
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert!(outcome.plan_cached, "the stale entry must have been reused");
    assert_eq!(outcome.data_epoch, 1);
    let oracle = fresh_embeddings(&delta.graph, &query);
    assert_eq!(oracle.len(), 60);
    assert_eq!(served_embeddings(&outcome), oracle.as_slice());
    assert!(
        outcome.metrics.replans >= 1,
        "estimates 30× off must adopt a mid-query re-plan"
    );

    let after = server.stats();
    assert!(after.replans_midquery > before.replans_midquery);
    assert!(
        after.estimate_corrections > before.estimate_corrections,
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

    // Stale the entry (junk ×30), pin a query to the new epoch 1, and
    // while it runs (re-planning mid-flight), publish epoch 2 whose
    // answer differs: a third {C,E} filter row grows every count by 50%.
    grow_junk(&mut writer, 29);
    let epoch1 = writer.snapshot();
    server.update_data(
        Arc::clone(&epoch1.graph),
        &epoch1.touched_labels,
        epoch1.sids_stable,
    );
    let handle = server.submit(&query, QueryOptions::collect_all()).unwrap();

    let e = writer.add_vertex(Label::new(4)).raw();
    writer.insert_hyperedge(vec![2, e]).unwrap();
    let epoch2 = writer.snapshot();
    server.update_data(
        Arc::clone(&epoch2.graph),
        &epoch2.touched_labels,
        epoch2.sids_stable,
    );

    let outcome = handle.wait();
    assert_eq!(outcome.status, QueryStatus::Completed);
    assert_eq!(outcome.data_epoch, 1, "the query stays on its pinned epoch");
    let pinned_oracle = fresh_embeddings(&epoch1.graph, &query);
    let newer_oracle = fresh_embeddings(&epoch2.graph, &query);
    assert_eq!(pinned_oracle.len(), 60);
    assert_eq!(newer_oracle.len(), 90);
    assert_eq!(
        served_embeddings(&outcome),
        pinned_oracle.as_slice(),
        "a re-planned suffix must not leak rows from a newer epoch"
    );

    // Submissions after the updates see epoch 2's answer (whether or not
    // the racing write-back landed before epoch 2 re-tagged the entry —
    // the epoch gate makes both interleavings serve correct plans).
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
    grow_junk(&mut writer, 2999); // 3000 junk rows: a run long enough to cancel into
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
