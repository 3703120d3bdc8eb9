//! Serve-layer replanning under statistics drift (DESIGN.md §13.4): a
//! cached plan whose labels an update touched survives while its
//! cardinalities stay near plan time, is dropped (and counted in
//! `plans_replanned`) once an update stream pushes them past the replan
//! threshold, and the re-planned query still returns exactly the
//! embeddings a fresh sequential matcher finds on the same snapshot.

use std::sync::Arc;

use hgmatch_core::serve::{MatchServer, QueryOptions, ServeConfig};
use hgmatch_core::{Matcher, QueryOutcome};
use hgmatch_datasets::{generate_update_stream, UpdateStreamConfig};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, HypergraphBuilder, Label};

/// Base data: a planner-adversary-shaped instance over labels {A, B, C}
/// whose {A,B} cardinality the test will inflate.
fn base_writer() -> DynamicHypergraph {
    let mut d = DynamicHypergraph::new();
    d.add_vertices(4, Label::new(0)); // A: 0..4
    d.add_vertices(4, Label::new(1)); // B: 4..8
    d.add_vertices(4, Label::new(2)); // C: 8..12
    for i in 0..4u32 {
        d.insert_hyperedge(vec![i, 4 + i]).unwrap(); // {A,B}
        d.insert_hyperedge(vec![4 + i, 8 + i]).unwrap(); // {B,C}
    }
    d
}

/// The standing query: an A–B–C path (two edges, shared B vertex).
fn standing_query() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 1, 2] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![0, 1]).unwrap();
    b.add_edge(vec![1, 2]).unwrap();
    b.build().unwrap()
}

/// Sorted embeddings of a fresh sequential run on `data` — the oracle the
/// served outcome must match exactly.
fn fresh_embeddings(data: &Hypergraph, query: &Hypergraph) -> Vec<hgmatch_core::Embedding> {
    Matcher::new(data).find_all(query).expect("fresh run")
}

fn served_embeddings(outcome: &QueryOutcome) -> &[hgmatch_core::Embedding] {
    outcome.embeddings.as_deref().expect("collected")
}

#[test]
fn replan_fires_past_drift_threshold_and_stays_correct() {
    let mut writer = base_writer();
    let first = writer.snapshot();
    let server = MatchServer::new(
        Arc::clone(&first.graph),
        ServeConfig::default()
            .with_threads(2)
            .with_replan_drift(0.5),
    );
    let query = standing_query();

    // Prime the cache.
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert!(!outcome.plan_cached);
    assert_eq!(
        served_embeddings(&outcome),
        fresh_embeddings(&first.graph, &query).as_slice()
    );

    // Small drift: one extra {A,B} edge (4 → 5, drift 0.25 ≤ 0.5). The
    // entry's labels are touched but it survives — reused, not re-planned.
    writer.insert_hyperedge(vec![0, 5]).unwrap();
    let delta = writer.snapshot();
    assert!(delta.sids_stable);
    server.update_data(
        Arc::clone(&delta.graph),
        &delta.touched_labels,
        delta.sids_stable,
    );
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert!(
        outcome.plan_cached,
        "below-threshold drift must reuse the cached plan"
    );
    assert_eq!(server.stats().plans_replanned, 0);
    assert_eq!(
        served_embeddings(&outcome),
        fresh_embeddings(&delta.graph, &query).as_slice()
    );

    // Big drift: bulk-insert {A,B} edges until the cardinality has more
    // than doubled since plan time. The entry is dropped, the counter
    // bumps, and the next submission re-plans (a miss).
    for i in 0..8u32 {
        let a = writer.add_vertex(Label::new(0)).raw();
        writer.insert_hyperedge(vec![a, 4 + (i % 4)]).unwrap();
    }
    let delta = writer.snapshot();
    assert!(delta.sids_stable);
    server.update_data(
        Arc::clone(&delta.graph),
        &delta.touched_labels,
        delta.sids_stable,
    );
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert!(!outcome.plan_cached, "drifted plan must be re-planned");
    assert_eq!(server.stats().plans_replanned, 1);
    assert_eq!(
        served_embeddings(&outcome),
        fresh_embeddings(&delta.graph, &query).as_slice()
    );

    // The re-planned entry is cached again at the new epoch.
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert!(outcome.plan_cached);
}

/// A generated update stream drives epochs through the server while the
/// standing query re-answers after each one; every answer equals a fresh
/// sequential run on the pinned snapshot, and cumulative drift eventually
/// trips at least one replan.
#[test]
fn update_stream_replans_and_matches_fresh_runs() {
    let mut writer = base_writer();
    let first = writer.snapshot();
    let base = Arc::clone(&first.graph);
    let server = MatchServer::new(
        Arc::clone(&base),
        ServeConfig::default()
            .with_threads(2)
            .with_replan_drift(0.25),
    );
    let query = standing_query();
    server.run(&query, QueryOptions::count()).unwrap();

    // Insert-heavy stream so cardinalities grow monotonically past any
    // threshold; batches of 8 ops per epoch.
    let stream = generate_update_stream(
        &base,
        &UpdateStreamConfig {
            ops: 96,
            insert_ratio: 0.9,
            seed: 0xBEEF,
            ..Default::default()
        },
    );
    for chunk in stream.chunks(8) {
        for op in chunk {
            writer.apply(op).expect("stream op applies");
        }
        let delta = writer.snapshot();
        server.update_data(
            Arc::clone(&delta.graph),
            &delta.touched_labels,
            delta.sids_stable,
        );
        let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
        assert_eq!(
            served_embeddings(&outcome),
            fresh_embeddings(&delta.graph, &query).as_slice(),
            "served embeddings diverge from a fresh run at epoch {}",
            outcome.data_epoch
        );
    }
    let stats = server.stats();
    assert!(
        stats.plans_replanned >= 1,
        "a 90% insert stream must eventually trip the 0.25 drift threshold \
         (replanned {}, invalidated {})",
        stats.plans_replanned,
        stats.plans_invalidated
    );
    assert!(stats.plans_replanned <= stats.plans_invalidated);
}
