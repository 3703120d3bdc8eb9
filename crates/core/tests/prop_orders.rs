//! Order-invariance differential harness (DESIGN.md §13.5): HGMatch's
//! match-by-hyperedge semantics guarantee the embedding *multiset* of a
//! query is independent of the matching order — any connected permutation
//! explores the same search space. `Planner::plan_with_order` makes every
//! order compilable, so this suite cross-checks, on random planted
//! instances:
//!
//! * the greedy Algorithm 3 order ([`Planner::plan_greedy`]),
//! * the cost-based order the production planner picks
//!   ([`Planner::plan`], margin-gated search),
//! * the order the pilot picks with its gate opened to every query
//!   ([`Planner::plan_piloted`] at gate 0), which must also follow the
//!   pilot's rule over its runs and be the same on a rebuilt snapshot,
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

use hgmatch_core::pilot::PILOT_MARGIN;
use hgmatch_core::{
    CollectSink, CostModel, CountSink, Embedding, MatchConfig, MatchServer, Matcher, PilotOutcome,
    PilotRun, Plan, Planner, QueryGraph, ServeConfig,
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

/// The pilot's pick: the model's own choice runs first and finishes; a
/// challenger replaces it only by measuring at least [`PILOT_MARGIN`]
/// times cheaper, and then is the cheapest challenger that finished (ties
/// to the smaller order); every abandoned run had passed the bar — the
/// pick's cost, or the model's choice's over the margin when that was
/// kept — when it stopped; and the challengers ran in ascending model
/// cost.
fn check_pilot_pick(
    model: &CostModel,
    unpiloted: &[u32],
    chosen: &[u32],
    runs: &[PilotRun],
) -> Result<(), TestCaseError> {
    let first = &runs[0];
    prop_assert_eq!(&first.order[..], unpiloted);
    prop_assert!(first.outcome != PilotOutcome::Abandoned);
    let pick = runs
        .iter()
        .find(|run| run.order == chosen)
        .expect("the compiled order was piloted");
    prop_assert_eq!(pick.outcome, PilotOutcome::Chosen);
    let bar = if pick.order == first.order {
        first.cost / PILOT_MARGIN
    } else {
        prop_assert!(pick.cost * PILOT_MARGIN <= first.cost);
        pick.cost
    };
    for run in runs[1..].iter().filter(|run| run.order != chosen) {
        match run.outcome {
            PilotOutcome::Chosen => prop_assert!(false, "two orders chosen"),
            PilotOutcome::Finished => prop_assert!(
                pick.order != first.order && (pick.cost, &pick.order) < (run.cost, &run.order),
                "picked {:?} at {} over {:?} at {}",
                pick.order,
                pick.cost,
                run.order,
                run.cost
            ),
            PilotOutcome::Abandoned => prop_assert!(run.cost > bar),
        }
    }
    let model_costs: Vec<f64> = runs[1..]
        .iter()
        .map(|run| model.estimate_order(&run.order).total_cost)
        .collect();
    prop_assert!(model_costs.windows(2).all(|w| w[0] <= w[1]));
    Ok(())
}

/// The property: identical embedding multisets across all orders, kernel
/// modes and worker counts.
fn check_case(seed: u64, nv: usize, ne: usize, labels: u32, k: usize) -> Result<(), TestCaseError> {
    let data = random_arity_hypergraph(seed, nv, ne, labels, 2, 4);
    let Some(query) = random_subquery(&data, seed ^ 0xABCD, k) else {
        return Ok(()); // dead-end walk: nothing to check
    };
    let q = QueryGraph::new(&query).expect("planted query is valid");
    let model = CostModel::new(&q, &data);

    // Planted queries are far too cheap to open the production gate, so
    // the pilot is reached with the gate at 0. Its plan must be a function
    // of the query and the snapshot's content: the same on a second call
    // and on an equal-content snapshot rebuilt from text.
    let (piloted, runs) = Planner::plan_piloted(&q, &data, 0.0).expect("piloted plans");
    if !runs.is_empty() {
        let unpiloted = Planner::plan_unpiloted(&q, &data).expect("plans");
        check_pilot_pick(&model, unpiloted.order(), piloted.order(), &runs)?;
    }
    let (again, runs_again) = Planner::plan_piloted(&q, &data, 0.0).expect("piloted plans");
    prop_assert_eq!(again.order(), piloted.order());
    prop_assert_eq!(&runs_again, &runs);
    let (mut labels_text, mut edges_text) = (Vec::new(), Vec::new());
    hgmatch_hypergraph::io::write_text(&data, &mut labels_text, &mut edges_text).unwrap();
    let rebuilt = hgmatch_hypergraph::io::read_text(&labels_text[..], &edges_text[..]).unwrap();
    prop_assert!(rebuilt == data && rebuilt.uid() != data.uid());
    let (on_rebuilt, _) = Planner::plan_piloted(&q, &rebuilt, 0.0).expect("piloted plans");
    prop_assert_eq!(on_rebuilt.order(), piloted.order());

    let mut plans: Vec<(String, Plan)> = vec![
        (
            "greedy".into(),
            Planner::plan_greedy(&q, &data).expect("greedy plans"),
        ),
        (
            "cost-based".into(),
            Planner::plan(&q, &data).expect("cost-based plans"),
        ),
        (format!("piloted {:?}", piloted.order()), piloted),
    ];
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

/// The blind spot of the cost model (DESIGN.md §13.3): per triple of
/// label-1 hubs, 20 `{h,h,h,a}` rows, 40 `{h,h,h,b,b}` rows, two `{h,h,c}`
/// rows per hub pair and 100 `{h,g,c}` rows per hub whose label-1 `g` is a
/// leaf. The query is `q0 {u0,u1,u2,a}`, `q1 {u0,u1,u2,b,b'}`,
/// `q2 {u0,u1,c}`. Greedy matches q0, q1, q2: q2's one class (label 1,
/// `need` 2) then has three members, so generation unions three hub
/// postings of ~200 rows each for every one of the 1 600 partials, and
/// keeps 2 %. The model prices that step at a few candidates per partial
/// and keeps greedy; the pilot measures it and must choose another order.
fn blind_spot() -> (Hypergraph, Hypergraph) {
    use hgmatch_hypergraph::{HypergraphBuilder, Label};
    let mut d = HypergraphBuilder::new();
    let vertex = |d: &mut HypergraphBuilder, label: u32| d.add_vertex(Label::new(label)).raw();
    for _ in 0..2 {
        let h: Vec<u32> = (0..3).map(|_| vertex(&mut d, 1)).collect();
        for _ in 0..20 {
            let a = vertex(&mut d, 0);
            d.add_edge(vec![h[0], h[1], h[2], a]).unwrap();
        }
        for _ in 0..40 {
            let (b0, b1) = (vertex(&mut d, 0), vertex(&mut d, 0));
            d.add_edge(vec![h[0], h[1], h[2], b0, b1]).unwrap();
        }
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            for _ in 0..2 {
                let c = vertex(&mut d, 0);
                d.add_edge(vec![h[i], h[j], c]).unwrap();
            }
        }
        for &hub in &h {
            for _ in 0..100 {
                let (g, c) = (vertex(&mut d, 1), vertex(&mut d, 0));
                d.add_edge(vec![hub, g, c]).unwrap();
            }
        }
    }
    let data = d.build().unwrap();
    let mut q = HypergraphBuilder::new();
    for label in [1u32, 1, 1, 0, 0, 0, 0] {
        q.add_vertex(Label::new(label));
    }
    for e in [vec![0, 1, 2, 3], vec![0, 1, 2, 4, 5], vec![0, 1, 6]] {
        q.add_edge(e).unwrap();
    }
    (data, q.build().unwrap())
}

#[test]
fn pilot_escapes_a_multi_member_class_union() {
    let (data, q) = blind_spot();
    let q = QueryGraph::new(&q).unwrap();

    let greedy = Planner::plan_greedy(&q, &data).unwrap();
    assert_eq!(greedy.order(), &[0, 1, 2]);
    let last = &greedy.steps()[2].anchors;
    assert_eq!((last.len(), last[0].label.raw(), last[0].need), (1, 1, 2));
    let unpiloted = Planner::plan_unpiloted(&q, &data).unwrap();
    assert_eq!(unpiloted.order(), greedy.order(), "the model keeps greedy");

    let plan = Planner::plan(&q, &data).unwrap();
    assert_ne!(plan.order(), greedy.order());
    let matcher = Matcher::with_config(&data, MatchConfig::sequential());
    let run = |plan: &Plan| matcher.run_plan(plan, &CountSink::new()).metrics;
    let (slow, fast) = (run(&greedy), run(&plan));
    assert_eq!(fast.embeddings, slow.embeddings);
    assert!(
        fast.candidates * 5 <= slow.candidates,
        "{:?} generates {} candidates, greedy {}",
        plan.order(),
        fast.candidates,
        slow.candidates
    );
}

/// The front door's `--admit-cost` signal is the model's price of its own
/// order: the blind spot's pilot changes the order, but the estimate is the
/// unpiloted plan's cost, and estimating plans nothing through the cache.
#[test]
fn admission_estimate_is_the_unpiloted_model_price() {
    let (data, query) = blind_spot();
    let q = QueryGraph::new(&query).unwrap();
    let unpiloted = Planner::plan_unpiloted(&q, &data).unwrap();
    assert_ne!(Planner::plan(&q, &data).unwrap().order(), unpiloted.order());

    let server = MatchServer::new(data.into(), ServeConfig::default().with_threads(1));
    assert_eq!(server.estimate_cost(&query).unwrap(), unpiloted.cost());
    let stats = server.stats();
    assert_eq!((stats.plan_cache_misses, stats.plan_cache_size), (0, 0));
    server.shutdown();
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
