//! Switch-point differential harness for adaptive mid-query
//! re-optimization (DESIGN.md §15): with the replan ratio pinned near
//! zero, *every* completed step boundary trips the trigger, so random
//! planted instances exercise re-plan adoption, version resolution and
//! mid-subtree switching as hard as the instance allows. The property is
//! the same multiset invariant as `prop_orders.rs` — the adaptive run
//! must deliver exactly the embedding multiset of a static run of the
//! same plan, across kernel modes {Auto, forced-scalar} × workers
//! {1, 4} × forced mid-flight splitting (threshold 4, so last-step assist
//! tickets are in flight whenever a re-plan is adopted).
//!
//! The plans under test are *random connected orders*, not the planner's:
//! a random order's suffix is rarely the cost-optimal completion of its
//! prefix, so the forced trigger adopts corrected suffixes constantly and
//! tasks born before each switch must finish under their birth version.
//! (A deliberately mis-costed plan whose *best* order walks into the trap
//! first would never adopt anything: once the misestimated edge is in the
//! matched prefix, scaling its cardinality multiplies every completion
//! equally, so the compiled suffix is already optimal — the `confirming
//! search` path. Random orders sidestep that fixed point.)

use std::sync::Mutex;

use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::{CollectSink, Embedding, MatchConfig, Matcher, Plan, Planner, QueryGraph};
use hgmatch_datasets::testgen::{random_arity_hypergraph, random_subquery, TestRng};
use hgmatch_hypergraph::setops::{self, KernelMode};
use hgmatch_hypergraph::Hypergraph;
use proptest::prelude::*;
use std::sync::Arc;

/// Kernel mode is process-global: serialise mode-flipping tests.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn lock_mode() -> std::sync::MutexGuard<'static, ()> {
    MODE_LOCK.lock().unwrap_or_else(|poisoned| {
        setops::set_kernel_mode(KernelMode::Auto);
        poisoned.into_inner()
    })
}

/// Draws a random *connected* order (the same scheme as `prop_orders.rs`).
fn random_connected_order(query: &QueryGraph, rng: &mut TestRng) -> Vec<u32> {
    let ne = query.num_edges();
    let mut order = Vec::with_capacity(ne);
    let mut mask = 0u64;
    for step in 0..ne {
        let candidates: Vec<u32> = (0..ne as u32)
            .filter(|&e| {
                mask & (1 << e) == 0 && (step == 0 || query.adjacent_edges(e as usize) & mask != 0)
            })
            .collect();
        let pool: Vec<u32> = if candidates.is_empty() {
            (0..ne as u32).filter(|&e| mask & (1 << e) == 0).collect()
        } else {
            candidates
        };
        let e = pool[rng.below(pool.len() as u64) as usize];
        mask |= 1 << e;
        order.push(e);
    }
    order
}

/// Static reference run of `plan` (never re-planned — `Matcher::run_plan`
/// is the order-faithful entry point).
fn run_static(plan: &Plan, data: &Hypergraph, threads: usize) -> Vec<Embedding> {
    let matcher = Matcher::with_config(data, MatchConfig::parallel(threads));
    let sink = CollectSink::new();
    matcher.run_plan(plan, &sink);
    sink.into_results()
}

/// Adaptive run of the same plan with the trigger pinned to fire at every
/// completed step boundary and last-step splitting forced. Returns the sorted
/// embeddings plus how many re-plans were adopted.
fn run_adaptive(
    query: &QueryGraph,
    plan: &Arc<Plan>,
    data: &Hypergraph,
    threads: usize,
) -> (Vec<Embedding>, u64) {
    let cfg = MatchConfig::parallel(threads)
        .with_replan_ratio(1e-9)
        .with_split_threshold(4);
    let sink = CollectSink::new();
    let stats = ParallelEngine::run_adaptive(query, plan, data, &sink, &cfg);
    (sink.into_results(), stats.metrics.replans)
}

/// The property: the adaptive run's embedding multiset equals the static
/// run's, for random orders × kernel modes × worker counts. Returns how
/// many re-plans the instance adopted, so callers can assert the harness
/// is not vacuous in aggregate.
fn check_case(
    seed: u64,
    nv: usize,
    ne: usize,
    labels: u32,
    k: usize,
) -> Result<u64, TestCaseError> {
    let data = random_arity_hypergraph(seed, nv, ne, labels, 2, 4);
    let Some(query) = random_subquery(&data, seed ^ 0xADA9, k) else {
        return Ok(0); // dead-end walk: nothing to check
    };
    let q = QueryGraph::new(&query).expect("planted query is valid");

    let mut rng = TestRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let plans: Vec<(Vec<u32>, Arc<Plan>)> = (0..3)
        .map(|_| {
            let order = random_connected_order(&q, &mut rng);
            let plan = Planner::plan_with_order(&q, &data, order.clone())
                .expect("any permutation compiles");
            (order, Arc::new(plan))
        })
        .collect();

    let mut replans_total = 0u64;
    let _guard = lock_mode();
    for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
        setops::set_kernel_mode(mode);
        for (order, plan) in &plans {
            let expected = run_static(plan, &data, 1);
            for threads in [1usize, 4] {
                let (found, replans) = run_adaptive(&q, plan, &data, threads);
                replans_total += replans;
                prop_assert_eq!(
                    &found,
                    &expected,
                    "adaptive multiset diverged: order {:?} mode {:?} threads {}",
                    order,
                    mode,
                    threads
                );
            }
        }
    }
    setops::set_kernel_mode(KernelMode::Auto);
    Ok(replans_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// 3-edge planted queries: the shortest plans with a re-plannable
    /// suffix at more than one boundary.
    #[test]
    fn three_edge_adaptive_matches_static(seed in 0u64..1u64 << 48) {
        check_case(seed, 20, 44, 2, 3)?;
    }

    /// 4-edge planted queries on denser, label-poor instances (bigger
    /// partitions: more splits racing more re-plans).
    #[test]
    fn four_edge_adaptive_matches_static(seed in 0u64..1u64 << 48) {
        check_case(seed, 16, 60, 2, 4)?;
    }

    /// 5-edge planted queries: longer suffixes, deeper version chains.
    #[test]
    fn five_edge_adaptive_matches_static(seed in 0u64..1u64 << 48) {
        check_case(seed, 18, 52, 3, 5)?;
    }
}

/// Non-vacuousness: over a deterministic seed sweep of the same cases, the
/// forced trigger must actually adopt re-plans (otherwise the whole suite
/// silently degenerates into `prop_orders.rs`).
#[test]
fn forced_trigger_actually_adopts_replans() {
    let mut total = 0u64;
    for seed in 0..12u64 {
        total += check_case(seed, 16, 60, 2, 4).expect("property holds on fixed seeds");
    }
    assert!(
        total > 0,
        "no re-plan was adopted across the deterministic sweep"
    );
}

/// Determinism cross-check on the canonical chain-with-branch adversary: a
/// stale plan that walks into a 30-row junk fan-out re-plans (the honest
/// search puts the selective filter first) and still delivers the static
/// multiset at every worker count.
#[test]
fn branch_adversary_replans_and_matches() {
    use hgmatch_core::CostModel;
    use hgmatch_hypergraph::{HypergraphBuilder, Label};

    let mut b = HypergraphBuilder::new();
    b.add_vertices(1, Label::new(0)); // A
    b.add_vertices(1, Label::new(1)); // B
    b.add_vertices(1, Label::new(2)); // C
    b.add_vertices(30, Label::new(3)); // D
    b.add_vertices(1, Label::new(4)); // E
    b.add_edge(vec![0, 1]).unwrap();
    b.add_edge(vec![1, 2]).unwrap();
    for i in 0..30u32 {
        b.add_edge(vec![2, 3 + i]).unwrap();
    }
    b.add_edge(vec![2, 33]).unwrap();
    let data = b.build().unwrap();

    let mut qb = HypergraphBuilder::new();
    for &l in &[0u32, 1, 2, 3, 4] {
        qb.add_vertex(Label::new(l));
    }
    qb.add_edge(vec![0, 1]).unwrap(); // q0 {A,B}
    qb.add_edge(vec![1, 2]).unwrap(); // q1 {B,C}
    qb.add_edge(vec![2, 3]).unwrap(); // q2 {C,D} — the fan-out
    qb.add_edge(vec![2, 4]).unwrap(); // q3 {C,E} — the filter
    let q = QueryGraph::new(&qb.build().unwrap()).unwrap();

    // Stale statistics: the model believes the fan-out is 1000× smaller,
    // and the pinned order walks into it before the filter.
    let mut model = CostModel::new(&q, &data);
    model.scale_edge(2, 1.0 / 1000.0);
    let plan =
        Arc::new(Planner::plan_with_order_costed(&q, &data, vec![0, 1, 2, 3], &model).unwrap());

    let expected = run_static(&plan, &data, 1);
    assert_eq!(expected.len(), 30);
    for threads in [1usize, 2, 4] {
        let (found, replans) = run_adaptive(&q, &plan, &data, threads);
        assert_eq!(found, expected, "threads {threads}");
        assert!(replans >= 1, "threads {threads}: the stale plan must adopt");
    }
}
