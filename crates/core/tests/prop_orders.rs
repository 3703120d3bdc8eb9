//! Order-invariance differential harness (DESIGN.md §13.6): HGMatch's
//! match-by-hyperedge semantics guarantee the embedding *multiset* of a
//! query is independent of the matching order — any connected permutation
//! explores the same search space. `Planner::plan_with_order` makes every
//! order compilable, so this suite cross-checks, on random planted
//! instances:
//!
//! * the greedy Algorithm 3 order ([`Planner::plan_greedy`]),
//! * the cost-based order the production planner picks
//!   ([`Planner::plan`], margin-gated search),
//! * two width-2 beam-search orders, a full search and a suffix search
//!   behind the greedy first edge ([`CostModel::best_order_bounded`] and
//!   [`CostModel::best_order_with_prefix_bounded`] with the exhaustive
//!   bound at 0),
//! * and ≥ 4 random valid connected orders,
//!
//! all × kernel modes {Auto, forced-scalar} × workers {1, 4}. Any
//! divergence — a candidate-generation bug that only bites a particular
//! anchor shape, a cost-model order that compiles wrong anchors, a
//! scheduler race — fails the property. The two beam orders must also
//! equal a width-2 beam search written out from its definition in this
//! file, so a search that drops its connectivity rule or keeps too few
//! states fails even though any permutation matches the same multiset.

use std::sync::Mutex;

use hgmatch_core::{
    CollectSink, CostModel, Embedding, MatchConfig, Matcher, Plan, Planner, QueryGraph,
};
use hgmatch_datasets::testgen::{random_arity_hypergraph, random_subquery, TestRng};
use hgmatch_hypergraph::setops::{self, KernelMode};
use hgmatch_hypergraph::Hypergraph;
use proptest::prelude::*;

/// Beam width of the searched orders each case checks.
const BEAM: usize = 2;

/// Kernel mode is process-global: serialise mode-flipping tests.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn lock_mode() -> std::sync::MutexGuard<'static, ()> {
    MODE_LOCK.lock().unwrap_or_else(|poisoned| {
        setops::set_kernel_mode(KernelMode::Auto);
        poisoned.into_inner()
    })
}

/// The edges that may extend `order`: the unmatched edges adjacent to it,
/// or every unmatched edge when none is (the start, and the planner's
/// disconnected-query fallback).
fn connected_extensions(query: &QueryGraph, order: &[u32]) -> Vec<u32> {
    let mask = order.iter().fold(0u64, |m, &e| m | 1 << e);
    let free: Vec<u32> = (0..query.num_edges() as u32)
        .filter(|&e| mask & (1 << e) == 0)
        .collect();
    let adjacent: Vec<u32> = free
        .iter()
        .copied()
        .filter(|&e| query.adjacent_edges(e as usize) & mask != 0)
        .collect();
    if adjacent.is_empty() {
        free
    } else {
        adjacent
    }
}

/// Draws a random *connected* order: a random start edge, then uniformly
/// random connected extensions.
fn random_connected_order(query: &QueryGraph, rng: &mut TestRng) -> Vec<u32> {
    let mut order = Vec::with_capacity(query.num_edges());
    while order.len() < query.num_edges() {
        let pool = connected_extensions(query, &order);
        order.push(pool[rng.below(pool.len() as u64) as usize]);
    }
    order
}

/// Beam search from its definition: starting at `prefix`, each level keeps
/// the `width` cheapest connected extensions (ties to the smaller order),
/// and the cheapest complete order wins.
fn reference_beam(model: &CostModel, query: &QueryGraph, prefix: &[u32], width: usize) -> Vec<u32> {
    let mut frontier = vec![prefix.to_vec()];
    while frontier[0].len() < query.num_edges() {
        let mut next: Vec<(f64, Vec<u32>)> = Vec::new();
        for order in &frontier {
            for e in connected_extensions(query, order) {
                let mut longer = order.clone();
                longer.push(e);
                next.push((model.estimate_order(&longer).total_cost, longer));
            }
        }
        next.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        frontier = next
            .into_iter()
            .take(width)
            .map(|(_, order)| order)
            .collect();
    }
    frontier.swap_remove(0)
}

/// Runs `plan` and returns the sorted embedding list (the multiset:
/// embeddings are distinct, so sorted-vector equality is multiset
/// equality).
fn run(plan: &Plan, data: &Hypergraph, threads: usize) -> Vec<Embedding> {
    let matcher = Matcher::with_config(data, MatchConfig::parallel(threads));
    let sink = CollectSink::new();
    matcher.run_plan(plan, &sink);
    sink.into_results()
}

/// The property: identical embedding multisets across all orders, kernel
/// modes and worker counts.
fn check_case(seed: u64, nv: usize, ne: usize, labels: u32, k: usize) -> Result<(), TestCaseError> {
    let data = random_arity_hypergraph(seed, nv, ne, labels, 2, 4);
    let Some(query) = random_subquery(&data, seed ^ 0xABCD, k) else {
        return Ok(()); // dead-end walk: nothing to check
    };
    let q = QueryGraph::new(&query).expect("planted query is valid");

    let mut plans: Vec<(String, Plan)> = vec![
        (
            "greedy".into(),
            Planner::plan_greedy(&q, &data).expect("greedy plans"),
        ),
        (
            "cost-based".into(),
            Planner::plan(&q, &data).expect("cost-based plans"),
        ),
    ];
    let model = CostModel::new(&q, &data);
    let greedy = Planner::greedy_order(&q, &data);
    for (name, prefix, order) in [
        ("beam", &[][..], model.best_order_bounded(BEAM, 0)),
        (
            "beam-suffix",
            &greedy[..1],
            model.best_order_with_prefix_bounded(&greedy[..1], BEAM, 0),
        ),
    ] {
        prop_assert_eq!(
            &order,
            &reference_beam(&model, &q, prefix, BEAM),
            "{} order differs from the reference beam search",
            name
        );
        plans.push((
            format!("{name} {order:?}"),
            Planner::plan_with_order(&q, &data, order).expect("beam orders compile"),
        ));
    }
    let mut rng = TestRng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D));
    for i in 0..4 {
        let order = random_connected_order(&q, &mut rng);
        plans.push((
            format!("random-{i} {order:?}"),
            Planner::plan_with_order(&q, &data, order).expect("any permutation compiles"),
        ));
    }

    let _guard = lock_mode();
    let mut reference: Option<Vec<Embedding>> = None;
    for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
        setops::set_kernel_mode(mode);
        for threads in [1usize, 4] {
            for (name, plan) in &plans {
                let found = run(plan, &data, threads);
                match &reference {
                    None => reference = Some(found),
                    Some(expected) => prop_assert_eq!(
                        &found,
                        expected,
                        "embedding multiset diverged: order {} mode {:?} threads {}",
                        name,
                        mode,
                        threads
                    ),
                }
            }
        }
    }
    setops::set_kernel_mode(KernelMode::Auto);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 2-edge planted queries on mid-density instances.
    #[test]
    fn two_edge_queries_are_order_invariant(seed in 0u64..1u64 << 48) {
        check_case(seed, 24, 50, 3, 2)?;
    }

    /// 3-edge planted queries (6 permutations; randoms cover beyond the
    /// greedy/cost pair).
    #[test]
    fn three_edge_queries_are_order_invariant(seed in 0u64..1u64 << 48) {
        check_case(seed, 20, 44, 2, 3)?;
    }

    /// 4-edge planted queries on denser label-poor instances (bigger
    /// partitions, bitmap postings in Auto mode).
    #[test]
    fn four_edge_queries_are_order_invariant(seed in 0u64..1u64 << 48) {
        check_case(seed, 16, 60, 2, 4)?;
    }
}

/// A path query `A–B–C–D` whose two end edges each match one data row,
/// while the middle edge fans out of a B hub: the disconnected step
/// `q0 → q2` is estimated cheaper than either connected one, and a width-2
/// beam that admitted it would crowd the cheapest order `[2, 1, 0]` out.
#[test]
fn beam_search_extends_only_connected_orders() {
    use hgmatch_hypergraph::{HypergraphBuilder, Label};
    let mut d = HypergraphBuilder::new();
    for l in [0u32, 1, 3] {
        d.add_vertex(Label::new(l)); // v0: A, v1: B hub, v2: D
    }
    d.add_vertices(10, Label::new(2)); // v3..v12: C
    d.add_edge(vec![0, 1]).unwrap();
    for c in 3..13 {
        d.add_edge(vec![1, c]).unwrap();
    }
    d.add_edge(vec![3, 2]).unwrap();
    let data = d.build().unwrap();
    let mut q = HypergraphBuilder::new();
    for l in 0..4 {
        q.add_vertex(Label::new(l));
    }
    for e in [[0, 1], [1, 2], [2, 3]] {
        q.add_edge(e.to_vec()).unwrap();
    }
    let q = QueryGraph::new(&q.build().unwrap()).unwrap();
    let model = CostModel::new(&q, &data);
    let full = model.best_order_bounded(BEAM, 0);
    assert_eq!(full, reference_beam(&model, &q, &[], BEAM));
    assert_eq!(full, vec![2, 1, 0]);
    let suffix = model.best_order_with_prefix_bounded(&[0], BEAM, 0);
    assert_eq!(suffix, reference_beam(&model, &q, &[0], BEAM));
    assert_eq!(suffix, vec![0, 1, 2]);
}

/// The paper's Fig. 1 instance, exhaustively: all 6 orders of the 3-edge
/// query produce the same two embeddings in both kernel modes.
#[test]
fn paper_example_all_orders() {
    use hgmatch_datasets::testgen::{paper_data, paper_query};
    let data = paper_data();
    let query = paper_query();
    let q = QueryGraph::new(&query).unwrap();
    let _guard = lock_mode();
    for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
        setops::set_kernel_mode(mode);
        for order in [
            [0u32, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let plan = Planner::plan_with_order(&q, &data, order.to_vec()).unwrap();
            for threads in [1usize, 4] {
                assert_eq!(
                    run(&plan, &data, threads).len(),
                    2,
                    "order {order:?} mode {mode:?} threads {threads}"
                );
            }
        }
    }
    setops::set_kernel_mode(KernelMode::Auto);
}
