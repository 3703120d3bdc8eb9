//! Where a query runs must not change what it returns (DESIGN.md §8.5).
//!
//! [`MatchServer::run`] executes a cheaply-estimated query on the calling
//! thread and hands the pool only what outgrows its task budget;
//! [`MatchServer::submit`] always uses the pool. This suite holds the two
//! venues — and the hand-off between them — to the sequential executor's
//! answer: the venue differential in every aggregation mode, a spill whose
//! estimate was honest-but-wrong (a hub) or misjudged by label averages
//! (the `serve_adaptive` adversary), exact first-k on one worker across
//! the hand-off, a last-step split ending the inline phase at once, a
//! deadline landing in the inline phase, and inline runs racing
//! `update_data`.
//!
//! CI runs it in both kernel families (the `test` job's two passes).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::{AggregateMode, MatchConfig, Matcher, QueryOutcome, ScoreFn};
use hgmatch_datasets::testgen::{hub, random_arity_hypergraph, random_subquery, workload_queries};
use hgmatch_hypergraph::setops::{set_kernel_mode, KernelMode};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, HypergraphBuilder, Label};

const MODES: [AggregateMode; 4] = [
    AggregateMode::CountOnly,
    AggregateMode::Materialize,
    AggregateMode::TopK {
        k: 3,
        score: ScoreFn::EdgeIdSum,
    },
    AggregateMode::Sampled { budget: 4, seed: 9 },
];

fn sequential(data: &Hypergraph) -> Matcher<'_> {
    Matcher::with_config(data, MatchConfig::sequential())
}

/// `run` (caller-first) == `submit().wait()` (pooled) == the sequential
/// executor, on count, kept embeddings and summary, in every mode, for
/// pools of 1 and 4 workers, in both kernel families — over a query mix
/// that lands on both sides of the estimate gate.
#[test]
fn both_venues_match_sequential_in_every_mode() {
    for kernels in [KernelMode::Auto, KernelMode::ForceScalar] {
        set_kernel_mode(kernels);
        for seed in 0..4u64 {
            let data = Arc::new(random_arity_hypergraph(0x7E_4E00 + seed, 120, 420, 3, 2, 4));
            let mut queries = workload_queries();
            queries.extend((1..=3).filter_map(|k| random_subquery(&data, 0xC0DE + seed, k)));

            for workers in [1usize, 4] {
                let server = MatchServer::new(
                    Arc::clone(&data),
                    ServeConfig::default().with_threads(workers),
                );
                for (i, query) in queries.iter().enumerate() {
                    for mode in MODES {
                        let ctx =
                            format!("{kernels:?} seed {seed} workers {workers} q{i} {mode:?}");
                        let want = sequential(&data).aggregate_with(query, mode).unwrap();
                        let options = QueryOptions::default().with_aggregate(mode);
                        let inline = server.run(query, options.clone()).unwrap();
                        let pooled = server.submit(query, options).unwrap().wait();
                        assert!(!pooled.inline, "{ctx}: submit never runs on the caller");
                        for got in [&inline, &pooled] {
                            assert_eq!(got.status, QueryStatus::Completed, "{ctx}");
                            assert_eq!(got.count, want.count, "{ctx}");
                            assert_eq!(got.embeddings, want.embeddings, "{ctx}");
                            assert_eq!(got.aggregate, want.summary, "{ctx}");
                        }
                    }
                }
                let stats = server.stats();
                assert!(
                    stats.ran_inline > 0 && stats.ran_inline < stats.admitted / 2,
                    "the mix must exercise both sides of the gate: {stats:?}"
                );
                assert_eq!(stats.tasks_spawned, stats.tasks_executed);
                assert_eq!(stats.active, 0);
                server.shutdown();
            }
        }
    }
    set_kernel_mode(KernelMode::Auto);
}

/// Embeddings of the [`hub`] fixture's query (one per hub {A,B} edge).
const FAN: u32 = 100;

/// With one worker, `first(k)` through `run` is the sequential executor's
/// first-k *exactly* — whether the limit lands inside the inline phase
/// (small k: nothing spills) or after the hand-off (large k: the worker
/// adopts the caller's stack in order and carries on where it stopped).
#[test]
fn single_worker_first_k_is_exact_across_the_hand_off() {
    let (data, query) = hub(FAN);
    let data = Arc::new(data);
    let config = ServeConfig::default().with_threads(1);
    let mut spilled_runs = 0;
    for k in [1usize, 5, 40, 80, 99] {
        let expected = sequential(&data).find_first(&query, k).unwrap();
        assert_eq!(expected.len(), k, "oracle must saturate");
        let server = MatchServer::new(Arc::clone(&data), config.clone());
        let outcome = server.run(&query, QueryOptions::first(k as u64)).unwrap();
        assert_eq!(outcome.status, QueryStatus::LimitReached, "k={k}");
        assert_eq!(outcome.embeddings.as_deref(), Some(&expected[..]), "k={k}");
        let stats = server.stats();
        assert_eq!(
            stats.ran_inline, 1,
            "k={k}: the hub estimates under the gate"
        );
        assert_eq!(outcome.inline, stats.spilled == 0, "k={k}");
        assert_eq!(stats.tasks_spawned, stats.tasks_executed, "k={k}");
        spilled_runs += stats.spilled;
    }
    assert!(
        (1..5).contains(&spilled_runs),
        "small k must finish inline and large k must spill ({spilled_runs} of 5 spilled)"
    );
}

/// The hub's full enumeration outgrows the inline budget on every pool
/// size: the answer stays exact and no task is lost or run twice in the
/// hand-off.
#[test]
fn an_underestimated_query_spills_and_stays_exact() {
    let (data, query) = hub(FAN);
    let data = Arc::new(data);
    let expected = sequential(&data).find_all(&query).unwrap();
    assert_eq!(expected.len(), FAN as usize);
    for workers in [1usize, 4] {
        let server = MatchServer::new(
            Arc::clone(&data),
            ServeConfig::default().with_threads(workers),
        );
        for _ in 0..3 {
            let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
            assert_eq!(outcome.status, QueryStatus::Completed);
            assert!(!outcome.inline, "workers {workers}");
            assert_eq!(outcome.embeddings.as_deref(), Some(&expected[..]));
        }
        let stats = server.stats();
        assert_eq!(
            (stats.ran_inline, stats.spilled),
            (3, 3),
            "workers {workers}"
        );
        assert_eq!(stats.tasks_spawned, stats.tasks_executed);
        assert!(stats.caller_tasks > 0 && stats.caller_tasks < stats.tasks_executed);
        assert_eq!(stats.active, 0);
    }
}

/// `serve_adaptive`'s skewed chain-with-branch adversary: an A–B–C chain
/// whose C (v2) carries 300 junk {C,D} rows and 70 filter {C,E} rows,
/// beside 2 000 junk and 4 760 filter rows spread one per other C vertex.
/// Row counts put the junk edge first; the label-averaged degrees (40
/// junk, 2 filter) price that order at 165, under the gate, and the
/// filter-first order less than `PLAN_MARGIN` cheaper, so the plan keeps
/// junk first. The run starts on the calling thread, the 300 junk
/// partials on the hub outgrow the inline budget and spill to the pool,
/// and the answer stays exact.
#[test]
fn a_stale_estimate_spills_replans_and_writes_back() {
    let mut writer = DynamicHypergraph::new();
    writer.add_vertices(1, Label::new(0)); // A: v0
    writer.add_vertices(1, Label::new(1)); // B: v1
    writer.add_vertices(1, Label::new(2)); // C: v2, the hub
    writer.insert_hyperedge(vec![0, 1]).unwrap();
    writer.insert_hyperedge(vec![1, 2]).unwrap();
    for (hub_rows, spread_rows, label) in [(300, 2000, 3), (70, 4760, 4)] {
        for row in 0..hub_rows + spread_rows {
            let c = if row < hub_rows {
                2
            } else {
                writer.add_vertex(Label::new(2)).raw()
            };
            let x = writer.add_vertex(Label::new(label)).raw();
            writer.insert_hyperedge(vec![c, x]).unwrap();
        }
    }
    let mut q = HypergraphBuilder::new();
    for &l in &[0u32, 1, 2, 3, 4] {
        q.add_vertex(Label::new(l));
    }
    for edge in [[0u32, 1], [1, 2], [2, 3], [2, 4]] {
        q.add_edge(edge.to_vec()).unwrap();
    }
    let query = q.build().unwrap();

    let data = writer.snapshot().graph;
    let server = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(4));
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    let stats = server.stats();
    assert!(!outcome.plan_cached);
    let expected = sequential(&data).find_all(&query).unwrap();
    assert_eq!(expected.len(), 300 * 70);
    assert_eq!(outcome.embeddings.as_deref(), Some(&expected[..]));
    assert!(!outcome.inline);
    assert_eq!((stats.ran_inline, stats.spilled), (1, 1));
    assert_eq!(stats.tasks_spawned, stats.tasks_executed);
}

/// A caller-first run whose last-step expansion publishes a split hands
/// the query to the pool at once — a few tasks in, far inside the task
/// budget — so the assist ticket is stealable while the caller validates;
/// the answer stays exact. The query is [`hub`]'s first two edges: the
/// hub's `FAN`-candidate {A,B} expansion is its last step.
#[test]
fn a_last_step_split_spills_the_inline_run_at_once() {
    let (data, _) = hub(FAN);
    let mut q = HypergraphBuilder::new();
    for &l in &[2u32, 0, 1] {
        q.add_vertex(Label::new(l));
    }
    q.add_edge(vec![0, 1]).unwrap(); // {C,A}
    q.add_edge(vec![1, 2]).unwrap(); // {A,B}
    let query = q.build().unwrap();
    let expected = sequential(&data).find_all(&query).unwrap();
    let server = MatchServer::new(
        Arc::new(data),
        ServeConfig {
            match_config: MatchConfig::default().with_split_threshold(4),
            ..ServeConfig::default().with_threads(2)
        },
    );
    let outcome = server.run(&query, QueryOptions::collect_all()).unwrap();
    assert_eq!(outcome.embeddings.as_deref(), Some(&expected[..]));
    assert!(!outcome.inline);
    let stats = server.stats();
    assert_eq!((stats.ran_inline, stats.splits, stats.spilled), (1, 1, 1));
    // Scan and at most the leaf's expansion before the hub's split.
    assert!(stats.caller_tasks <= 3, "{stats:?}");
    assert_eq!(stats.tasks_spawned, stats.tasks_executed);
}

/// A deadline that has passed when the first inline task probes it stops
/// the query on the calling thread: `TimedOut`, and the pool never heard
/// of it.
#[test]
fn a_deadline_inside_the_inline_phase_times_out() {
    let (data, query) = hub(FAN);
    let server = MatchServer::new(Arc::new(data), ServeConfig::default().with_threads(2));
    let outcome = server
        .run(&query, QueryOptions::count().with_timeout(Duration::ZERO))
        .unwrap();
    assert_eq!(outcome.status, QueryStatus::TimedOut);
    assert!(outcome.inline);
    assert_eq!(outcome.count, 0);
    let stats = server.stats();
    assert_eq!(
        (stats.timed_out, stats.ran_inline, stats.spilled),
        (1, 1, 0)
    );
    assert_eq!(stats.tasks_spawned, stats.tasks_executed);
}

/// Inline runs pin their snapshot like pooled ones: while a writer
/// publishes epochs with *different* answers, every outcome equals the
/// sequential answer of the epoch it reports.
#[test]
fn inline_runs_racing_update_data_stay_on_their_epoch() {
    const EPOCHS: usize = 24;
    let queries: Vec<Hypergraph> = workload_queries().into_iter().take(6).collect();
    let mut writer = DynamicHypergraph::new();
    for l in 0..3u32 {
        writer.add_vertices(12, Label::new(l));
    }
    let mut state = 0x5EED_u64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % bound) as u32
    };
    let mut snapshots = Vec::new();
    for _ in 0..=EPOCHS {
        for _ in 0..6 {
            let (u, v) = (next(36), next(36));
            if u != v {
                let _ = writer.insert_hyperedge(vec![u, v]);
            }
        }
        snapshots.push(writer.snapshot());
    }
    let expected: Vec<Vec<u64>> = snapshots
        .iter()
        .map(|s| {
            queries
                .iter()
                .map(|q| sequential(&s.graph).count(q).unwrap())
                .collect()
        })
        .collect();
    assert_ne!(expected[0], expected[EPOCHS], "epochs must differ");

    let server = MatchServer::new(
        Arc::clone(&snapshots[0].graph),
        ServeConfig::default().with_threads(2),
    );
    let done = AtomicBool::new(false);
    let check = |outcome: QueryOutcome, q: usize| {
        assert_eq!(outcome.status, QueryStatus::Completed);
        assert_eq!(
            outcome.count, expected[outcome.data_epoch as usize][q],
            "q{q} at epoch {}",
            outcome.data_epoch
        );
    };
    std::thread::scope(|scope| {
        for reader in 0..2usize {
            let (server, queries, done, check) = (&server, &queries, &done, &check);
            scope.spawn(move || {
                let mut q = reader;
                while !done.load(Ordering::Acquire) {
                    q = (q + 1) % queries.len();
                    check(server.run(&queries[q], QueryOptions::count()).unwrap(), q);
                }
            });
        }
        for snap in &snapshots[1..] {
            server.update_data(Arc::clone(&snap.graph), &[], false);
            // One run per epoch on this thread too, so every epoch is read
            // at least once however the readers are scheduled.
            check(server.run(&queries[0], QueryOptions::count()).unwrap(), 0);
        }
        done.store(true, Ordering::Release);
    });
    let stats = server.stats();
    assert_eq!(stats.data_epoch, EPOCHS as u64);
    assert!(stats.ran_inline >= EPOCHS as u64);
    assert_eq!(stats.completed, stats.admitted);
    assert_eq!(stats.tasks_spawned, stats.tasks_executed);
}
