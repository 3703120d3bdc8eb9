//! End-to-end differential tests of dynamic updates: embeddings from
//! dynamic snapshots equal embeddings from rebuilt-from-scratch static
//! graphs, through both the sequential executor and a concurrently mutated
//! [`MatchServer`]; plan-cache invalidation keeps answers fresh.
//!
//! The parallel arms run 4 workers; kernel families are cross-checked by
//! the in-test [`set_kernel_mode`] loop. The swarm (`swarm.rs`) races
//! update epochs against every venue, pool size and representation.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::{MatchConfig, Matcher};
use hgmatch_datasets::testgen::{random_arity_hypergraph, rebuild_oracle, workload_queries};
use hgmatch_datasets::{
    generate_update_stream, sample_query, standard_settings, UpdateStreamConfig,
};
use hgmatch_hypergraph::setops::{set_kernel_mode, KernelMode};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, HypergraphBuilder, Label};

/// q2/q3 queries sampled from `graph` (planted, so they have embeddings).
fn sampled_queries(graph: &Hypergraph, seed: u64) -> Vec<Hypergraph> {
    let settings = standard_settings();
    let mut queries = Vec::new();
    for (i, setting) in settings.iter().take(2).enumerate() {
        for s in 0..3u64 {
            if let Some(q) = sample_query(graph, setting, seed + s * 13 + i as u64) {
                queries.push(q);
            }
        }
    }
    queries
}

/// Acceptance: embeddings from the dynamic graph equal embeddings from a
/// rebuilt static graph for q2/q3 queries, in both kernel modes, through
/// the sequential (threads=1) and parallel matchers.
#[test]
fn dynamic_snapshots_answer_like_rebuilt_static() {
    let base = random_arity_hypergraph(0xD1FF, 120, 260, 3, 2, 4);
    let mut dynamic = DynamicHypergraph::from_hypergraph(&base);
    let stream = generate_update_stream(
        &base,
        &UpdateStreamConfig {
            ops: 240,
            insert_ratio: 0.6,
            seed: 5,
            ..Default::default()
        },
    );

    for (checkpoint, chunk) in stream.chunks(80).enumerate() {
        for op in chunk {
            dynamic.apply(op).unwrap();
        }
        let snap = dynamic.snapshot().graph;
        let oracle = rebuild_oracle(&snap);
        assert_eq!(*snap, oracle, "checkpoint {checkpoint}: snapshot drifted");

        let queries = sampled_queries(&snap, 100 + checkpoint as u64);
        assert!(!queries.is_empty(), "checkpoint {checkpoint}: no queries");
        for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
            set_kernel_mode(mode);
            for (qi, query) in queries.iter().enumerate() {
                let dyn_seq = Matcher::new(&snap).find_all(query).unwrap();
                let reb_seq = Matcher::new(&oracle).find_all(query).unwrap();
                assert!(
                    !dyn_seq.is_empty(),
                    "checkpoint {checkpoint} q{qi}: sampled query must match"
                );
                assert_eq!(
                    dyn_seq, reb_seq,
                    "checkpoint {checkpoint} q{qi} ({mode:?}): sequential differs"
                );
                let par = Matcher::with_config(&snap, MatchConfig::parallel(4))
                    .find_all(query)
                    .unwrap();
                assert_eq!(
                    par, reb_seq,
                    "checkpoint {checkpoint} q{qi} ({mode:?}): parallel differs"
                );
            }
        }
        set_kernel_mode(KernelMode::Auto);
    }
}

/// Acceptance: ≥8 queries concurrently in flight on a [`MatchServer`]
/// while a writer publishes new epochs; every outcome must exactly equal a
/// sequential run against the snapshot its epoch pinned — i.e. no query
/// ever observes a torn snapshot. Last-step splitting is forced, so on a
/// multi-worker pool assist tickets race the publishes too.
#[test]
fn served_queries_never_observe_torn_snapshots() {
    let workers = 4;
    let base = random_arity_hypergraph(0xBEE5, 200, 500, 3, 2, 4);
    let stream = generate_update_stream(
        &base,
        &UpdateStreamConfig {
            ops: 600,
            insert_ratio: 0.65,
            seed: 21,
            ..Default::default()
        },
    );

    let mut dynamic = DynamicHypergraph::from_hypergraph(&base);
    let first = dynamic.snapshot();
    let server = MatchServer::new(
        Arc::clone(&first.graph),
        ServeConfig {
            match_config: MatchConfig::default().with_split_threshold(4),
            ..ServeConfig::default()
                .with_threads(workers)
                .with_fairness_quantum(8)
        },
    );
    let queries = workload_queries();
    assert!(queries.len() >= 8, "acceptance demands >= 8 queries");

    // Every published epoch's snapshot, for post-hoc verification.
    let published: Mutex<HashMap<u64, Arc<Hypergraph>>> = Mutex::new(HashMap::new());
    published.lock().unwrap().insert(0, first.graph);

    let num_chunks = stream.chunks(60).len();
    let outcomes: Mutex<Vec<(usize, hgmatch_core::QueryOutcome)>> = Mutex::new(Vec::new());
    // Wave/epoch handshake (no sleeps-as-synchronisation): the writer
    // waits for at least one full query wave after every publish, and the
    // reader keeps launching waves until the writer is done — so query
    // waves provably overlap every published epoch, on any core count.
    let waves_done = std::sync::atomic::AtomicU64::new(0);
    let writer_done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        use std::sync::atomic::Ordering;
        // Writer: apply the stream in chunks, publish after each chunk.
        let writer_server = &server;
        let writer_published = &published;
        let writer_waves = &waves_done;
        let writer_flag = &writer_done;
        scope.spawn(move || {
            for chunk in stream.chunks(60) {
                for op in chunk {
                    dynamic.apply(op).unwrap();
                }
                let graph = dynamic.snapshot().graph;
                let epoch = writer_server.update_data(Arc::clone(&graph), &[], false);
                writer_published.lock().unwrap().insert(epoch, graph);
                let target = writer_waves.load(Ordering::Acquire) + 1;
                while writer_waves.load(Ordering::Acquire) < target {
                    std::thread::yield_now();
                }
            }
            writer_flag.store(true, Ordering::Release);
        });

        // Reader: waves of all workload queries in flight at once, racing
        // the writer's publishes.
        let reader_outcomes = &outcomes;
        let reader_queries = &queries;
        let reader_server = &server;
        let reader_waves = &waves_done;
        let reader_flag = &writer_done;
        scope.spawn(move || {
            while !reader_flag.load(Ordering::Acquire) {
                let handles: Vec<_> = reader_queries
                    .iter()
                    .map(|q| {
                        reader_server
                            .submit(q, QueryOptions::collect_all())
                            .unwrap()
                    })
                    .collect();
                let mut guard = reader_outcomes.lock().unwrap();
                for (qi, handle) in handles.into_iter().enumerate() {
                    guard.push((qi, handle.wait()));
                }
                drop(guard);
                reader_waves.fetch_add(1, Ordering::Release);
            }
        });
    });

    // Verify every outcome against the exact snapshot its epoch pinned.
    let published = published.into_inner().unwrap();
    let outcomes = outcomes.into_inner().unwrap();
    assert!(outcomes.len() >= num_chunks * queries.len());
    let mut expected: HashMap<(u64, usize), Vec<hgmatch_core::Embedding>> = HashMap::new();
    let mut epochs_seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (qi, outcome) in &outcomes {
        assert_eq!(outcome.status, QueryStatus::Completed);
        let snapshot = published
            .get(&outcome.data_epoch)
            .unwrap_or_else(|| panic!("unknown epoch {}", outcome.data_epoch));
        let oracle = expected
            .entry((outcome.data_epoch, *qi))
            .or_insert_with(|| Matcher::new(snapshot).find_all(&queries[*qi]).unwrap());
        assert_eq!(
            outcome.embeddings.as_deref(),
            Some(&oracle[..]),
            "query {qi} at epoch {} saw a torn snapshot",
            outcome.data_epoch
        );
        epochs_seen.insert(outcome.data_epoch);
    }
    assert!(
        epochs_seen.len() >= 2,
        "queries must actually span several epochs (saw {epochs_seen:?})"
    );
    let stats = server.stats();
    assert_eq!(stats.splits > 0, workers > 1, "{stats:?}");
    assert_eq!(stats.tasks_spawned, stats.tasks_executed);
}

/// A publish empties the plan cache: every resident entry is dropped and
/// counted in `plans_invalidated`, and the next submission of every shape
/// plans afresh at the new epoch — through an extinction that shifts
/// partition ids and through an insert whose labels the other shape does
/// not use — while a repeat within the epoch hits.
#[test]
fn plan_cache_invalidation_keeps_answers_fresh() {
    let mut dynamic = DynamicHypergraph::new();
    dynamic.add_vertices(6, Label::new(0)); // A-vertices 0..6
    dynamic.add_vertices(6, Label::new(1)); // B-vertices 6..12
    for i in 0..3u32 {
        dynamic.insert_hyperedge(vec![2 * i, 2 * i + 1]).unwrap(); // {A,A}
        dynamic
            .insert_hyperedge(vec![6 + 2 * i, 7 + 2 * i])
            .unwrap(); // {B,B}
    }
    let first = dynamic.snapshot();
    let server = MatchServer::new(first.graph, ServeConfig::default().with_threads(2));

    let aa = {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(0));
        b.add_edge(vec![0, 1]).unwrap();
        b.build().unwrap()
    };
    let bb = {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(1));
        b.add_edge(vec![0, 1]).unwrap();
        b.build().unwrap()
    };
    assert_eq!(server.run(&aa, QueryOptions::count()).unwrap().count, 3);
    assert_eq!(server.run(&bb, QueryOptions::count()).unwrap().count, 3);

    // Publishes the writer's state and checks that it emptied the cache.
    let publish = |dynamic: &mut DynamicHypergraph| {
        let before = server.stats();
        assert_eq!(before.plan_cache_size, 2);
        server.update_data(dynamic.snapshot().graph, &[], false);
        let after = server.stats();
        assert_eq!(after.plan_cache_size, 0);
        assert_eq!(after.plans_invalidated, before.plans_invalidated + 2);
    };

    // Delete every {A,A} edge: the {B,B} partition's id shifts from 1 to 0,
    // so a stale {B,B} plan would scan the wrong partition.
    for i in 0..3u32 {
        dynamic.delete_hyperedge(&[2 * i, 2 * i + 1]).unwrap();
    }
    publish(&mut dynamic);
    let aa_after = server.run(&aa, QueryOptions::count()).unwrap();
    assert_eq!(aa_after.count, 0, "deleted partition must be empty");
    assert!(!aa_after.plan_cached, "stale plan must not be served");
    let bb_after = server.run(&bb, QueryOptions::count()).unwrap();
    assert_eq!(bb_after.count, 3);
    assert!(!bb_after.plan_cached);

    // Touch only label 1: the {A,A} plan re-plans all the same.
    dynamic.insert_hyperedge(vec![6, 8]).unwrap();
    publish(&mut dynamic);
    for (query, count) in [(&aa, 0), (&bb, 4)] {
        let outcome = server.run(query, QueryOptions::count()).unwrap();
        assert_eq!(outcome.count, count);
        assert!(!outcome.plan_cached, "an entry lives for one epoch");
        assert_eq!(outcome.data_epoch, 2);
    }
    assert!(server.run(&bb, QueryOptions::count()).unwrap().plan_cached);
}
