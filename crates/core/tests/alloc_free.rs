//! DESIGN.md §6 says a warmed-up expansion — `ExpansionState::prepare`,
//! `generate_candidates`, `validate_block` and `validate_candidate` over
//! its candidates — allocates nothing, at an inner step and at a
//! count-only last step, both in byte lanes. This binary counts: a global
//! allocator that tallies per thread, one pass over a fixed list of
//! expansions to grow the state's buffers, then the same pass again with
//! the tally required to stay at zero, under every posting representation.
//!
//! It is also the watch on `candidates::recycle`, whose buffer reuse rests
//! on how the standard library collects a `vec::IntoIter`, not on a
//! documented guarantee.
//!
//! The second case holds the serving layer's caller-first path (DESIGN.md
//! §8.5) to the same standard: the submitting thread's scratch and stack
//! are checked out warm, so a caller-side run of a cached shape allocates
//! no more — process-wide — than the pooled path does for the same query.
//!
//! The third counts that run exactly: one submission of a cached shape
//! makes a fixed, small number of allocations.
//!
//! The last two hold whole workers to it: a one-shot engine worker and a
//! warmed pool worker allocate while their buffers grow and never per
//! task — their deque, scratch and held accounting (DESIGN.md §8.1) — so
//! a run of ten times the tasks allocates exactly as often.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hgmatch_core::candidates::{generate_candidates, ExpansionState};
use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::serve::{MatchServer, QueryOptions, ServeConfig};
use hgmatch_core::sink::CountSink;
use hgmatch_core::validate::{validate_block, validate_candidate, ValidateScratch, Validation};
use hgmatch_core::{MatchConfig, Plan, Planner, QueryGraph};
use hgmatch_hypergraph::inverted::set_forced_repr;
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label, ReprKind};

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations and reallocations made by any thread.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

/// The two cases share the process-wide tally and the forced posting
/// representation, so they take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    ALL_THREADS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally is a `const`-initialised
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One label, every vertex triple inside a sliding window of four: a
/// single partition of ≈ 3n rows in which neighbouring edges share two
/// vertices, so a step's class has several members (a k-way union, not a
/// single posting) and multiplicity 2.
fn band(n: u32) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    b.add_vertices(n as usize, Label::new(0));
    for i in 0..n - 3 {
        b.add_edge(vec![i, i + 1, i + 2]).unwrap();
        b.add_edge(vec![i, i + 1, i + 3]).unwrap();
        b.add_edge(vec![i, i + 2, i + 3]).unwrap();
    }
    b.build().unwrap()
}

/// `{0,1,2}`, `{0,1,3}`, `{3,4,5}`: the second edge shares two vertices
/// with the first; the third shares one with the second and none with the
/// first, so the last step holds a non-adjacent vertex for validation to
/// reject (Observation V.3).
fn query() -> QueryGraph {
    let mut b = HypergraphBuilder::new();
    b.add_vertices(6, Label::new(0));
    b.add_edge(vec![0, 1, 2]).unwrap();
    b.add_edge(vec![0, 1, 3]).unwrap();
    b.add_edge(vec![3, 4, 5]).unwrap();
    QueryGraph::new(&b.build().unwrap()).unwrap()
}

/// Rows the engine validates between stop probes.
const BLOCK: usize = 1024;

/// One expansion as the engine runs it — prepare, generate, then
/// `validate_block` over blocks of candidates into the reused `valid` list —
/// on the caller's state, with every row's `validate_candidate` verdict
/// required to agree. An inner step hands each valid extension's global id
/// to `on_valid`; the last step only counts them, as under a count-only
/// sink, and leaves `valid` empty. Returns the number of candidates.
/// Allocates nothing of its own.
fn expand(
    data: &Hypergraph,
    plan: &Plan,
    (state, scratch, valid): (&mut ExpansionState, &mut ValidateScratch, &mut Vec<u32>),
    emb: &[u32],
    mut on_valid: impl FnMut(u32),
) -> usize {
    let step = &plan.steps()[emb.len()];
    let partition = data.partition(step.partition.expect("the query is planted"));
    state.prepare(data, step, emb);
    let produced = generate_candidates(data, step, emb, state, &MatchConfig::sequential());
    valid.clear();
    let mut counted = 0;
    for rows in state.candidates.chunks(BLOCK) {
        let (kept, _) = validate_block(step, state, scratch, partition, emb, rows, valid);
        counted += kept;
        if emb.len() + 1 == plan.len() {
            valid.clear();
        }
    }
    let per_row = state
        .candidates
        .iter()
        .filter(|&&row| {
            let global = partition.global_id(row).raw();
            let vertices = partition.row(row);
            validate_candidate(data, step, emb.len(), emb, state, global, vertices, scratch)
                == Validation::Valid
        })
        .count();
    assert_eq!(counted, per_row as u64);
    valid.iter().for_each(|&global| on_valid(global));
    produced
}

#[test]
fn a_warmed_up_expansion_allocates_nothing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for repr in [None, Some(ReprKind::List), Some(ReprKind::Bitmap)] {
        set_forced_repr(repr);
        let data = band(400);
        let plan = Planner::plan_with_order(&query(), &data, vec![0, 1, 2]).unwrap();
        assert!(plan.steps()[1].anchors.iter().any(|class| class.need == 2));
        assert_eq!(plan.steps()[2].nonadjacent_prev, vec![0]);
        // Both the inner and the last step validate in byte lanes.
        assert!(plan.steps()[1..]
            .iter()
            .all(|step| step.need_lanes.is_some()));

        // The expansions to replay: some first edges and all their valid
        // extensions, found with throw-away state.
        let mut expansions: Vec<Vec<u32>> = Vec::new();
        for first in (0..data.num_edges() as u32).step_by(97) {
            expansions.push(vec![first]);
            let before = expansions.len();
            expand(
                &data,
                &plan,
                (
                    &mut ExpansionState::new(),
                    &mut ValidateScratch::new(),
                    &mut Vec::new(),
                ),
                &[first],
                |second| expansions.push(vec![first, second]),
            );
            assert!(expansions.len() > before, "every band edge has a neighbour");
        }

        let mut state = ExpansionState::new();
        let mut scratch = ValidateScratch::new();
        let mut valid = Vec::new();
        let mut replay = || {
            let before = ALLOCATIONS.with(Cell::get);
            let candidates: usize = expansions
                .iter()
                .map(|emb| {
                    let reused = (&mut state, &mut scratch, &mut valid);
                    expand(&data, &plan, reused, emb, |_| {})
                })
                .sum();
            (candidates, ALLOCATIONS.with(Cell::get) - before)
        };
        let (warm_candidates, warm_allocations) = replay();
        assert!(warm_candidates > expansions.len());
        assert!(warm_allocations > 0, "the first pass grows the buffers");
        let (candidates, allocations) = replay();
        assert_eq!(candidates, warm_candidates);
        assert_eq!(
            allocations, 0,
            "a warmed-up expansion allocated under {repr:?}"
        );
    }
    set_forced_repr(None);
}

#[test]
fn a_warmed_up_caller_side_run_allocates_no_more_than_the_pooled_path() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const RUNS: u64 = 32;
    // Small enough that the plan's estimate is under the caller-first
    // gate and its ≈ 40 tasks inside the inline budget.
    let data = Arc::new(band(16));
    let mut b = HypergraphBuilder::new();
    b.add_vertices(4, Label::new(0));
    b.add_edge(vec![0, 1, 2]).unwrap();
    b.add_edge(vec![0, 1, 3]).unwrap();
    let query = b.build().unwrap();
    let server = MatchServer::new(data, ServeConfig::default().with_threads(1));

    let pooled = || {
        let outcome = server.submit(&query, QueryOptions::count()).unwrap().wait();
        assert!(outcome.plan_cached && !outcome.inline);
    };
    let caller_side = || {
        let outcome = server.run(&query, QueryOptions::count()).unwrap();
        assert!(outcome.plan_cached && outcome.inline, "{outcome:?}");
    };
    // Warm the plan cache, both scratches, the deque and the registry.
    server.run(&query, QueryOptions::count()).unwrap();
    for _ in 0..4 {
        pooled();
        caller_side();
    }
    // The smallest of three readings each: the test harness's own threads
    // may allocate beside a reading, never inside the engine.
    let reading = |one: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let before = ALL_THREADS.load(Ordering::Relaxed);
                (0..RUNS).for_each(|_| one());
                ALL_THREADS.load(Ordering::Relaxed) - before
            })
            .min()
            .expect("three readings")
    };
    let (pooled, caller_side) = (reading(&pooled), reading(&caller_side));
    assert!(pooled >= RUNS, "a query allocates at least its own state");
    assert!(
        caller_side <= pooled,
        "{RUNS} caller-side runs allocated {caller_side} times, {RUNS} pooled ones {pooled}"
    );
}

/// The exact work of one submission of a cached two-edge shape through
/// [`MatchServer::run`], counted process-wide: the submission's shape (the
/// cache key) and the query's shared state (`Arc<ActiveQuery>`), and
/// nothing per plan step, per task or per embedding. A change to this
/// number is a change to the serving path's per-query work.
const CACHED_RUN_ALLOCATIONS: u64 = 2;

#[test]
fn one_cached_caller_side_run_makes_a_fixed_number_of_allocations() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let data = Arc::new(band(16));
    let mut b = HypergraphBuilder::new();
    b.add_vertices(4, Label::new(0));
    b.add_edge(vec![0, 1, 2]).unwrap();
    b.add_edge(vec![0, 1, 3]).unwrap();
    let query = b.build().unwrap();
    let server = MatchServer::new(data, ServeConfig::default().with_threads(1));
    let run = || {
        let outcome = server.run(&query, QueryOptions::count()).unwrap();
        assert!(outcome.plan_cached && outcome.inline, "{outcome:?}");
        assert!(outcome.count > 0);
    };
    // Warm the plan cache and the caller's scratch and stack.
    let miss = server.run(&query, QueryOptions::count()).unwrap();
    assert!(!miss.plan_cached);
    (0..4).for_each(|_| run());
    // The smallest of three readings: the test harness's own threads may
    // allocate beside a reading, never inside the run.
    let allocations = (0..3)
        .map(|_| allocations_of(run))
        .min()
        .expect("three readings");
    assert_eq!(allocations, CACHED_RUN_ALLOCATIONS);
}

/// Process-wide allocations made while `run` runs.
fn allocations_of(run: impl FnOnce()) -> u64 {
    let before = ALL_THREADS.load(Ordering::Relaxed);
    run();
    ALL_THREADS.load(Ordering::Relaxed) - before
}

/// Band sizes whose runs differ tenfold in tasks and not in the largest
/// buffer any of them needs.
const SMALL: u32 = 400;
const LARGE: u32 = 4_000;

#[test]
fn a_one_shot_engine_worker_allocates_nothing_per_task() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let config = MatchConfig::parallel(1);
    let run = |n: u32| {
        let data = band(n);
        let plan = Planner::plan_with_order(&query(), &data, vec![0, 1, 2]).unwrap();
        let mut tasks = 0;
        // The smallest of three readings: the test harness's own threads
        // may allocate beside a reading, never inside the engine.
        let allocations = (0..3)
            .map(|_| {
                let sink = CountSink::new();
                let allocations = allocations_of(|| {
                    tasks = ParallelEngine::run(&plan, &data, &sink, &config).workers[0].tasks;
                });
                assert!(sink.count() > 0);
                allocations
            })
            .min()
            .expect("three readings");
        (tasks, allocations)
    };
    let (small_tasks, small) = run(SMALL);
    let (large_tasks, large) = run(LARGE);
    assert!(
        large_tasks >= 9 * small_tasks,
        "{small_tasks} vs {large_tasks} tasks"
    );
    assert_eq!(
        large, small,
        "{large_tasks} tasks allocated {large} times, {small_tasks} tasks {small}"
    );
}

#[test]
fn a_warmed_pool_worker_allocates_nothing_per_task() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let query = {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(6, Label::new(0));
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![0, 1, 3]).unwrap();
        b.add_edge(vec![3, 4, 5]).unwrap();
        b.build().unwrap()
    };
    let config = ServeConfig::default().with_threads(1);
    let run = |n: u32| {
        let server = MatchServer::new(Arc::new(band(n)), config.clone());
        let pooled = || server.submit(&query, QueryOptions::count()).unwrap().wait();
        // Warm the plan cache, the worker's deque and scratch.
        for _ in 0..3 {
            assert!(pooled().count > 0);
        }
        let before = server.stats().tasks_executed;
        // The smallest of three readings: the test harness's own threads
        // may allocate beside a reading, never inside the pool.
        let allocations = (0..3)
            .map(|_| allocations_of(|| assert!(pooled().plan_cached)))
            .min()
            .expect("three readings");
        let tasks = (server.stats().tasks_executed - before) / 3;
        server.shutdown();
        (tasks, allocations)
    };
    let (small_tasks, small) = run(SMALL);
    let (large_tasks, large) = run(LARGE);
    assert!(
        large_tasks >= 9 * small_tasks,
        "{small_tasks} vs {large_tasks} tasks"
    );
    assert_eq!(
        large, small,
        "{large_tasks} tasks allocated {large} times, {small_tasks} tasks {small}"
    );
}
