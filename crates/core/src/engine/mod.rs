//! The task-based parallel execution engine (paper §VI).
//!
//! Computation is a SCAN → EXPAND* → SINK dataflow executed as *tasks*
//! (Definition VI.1): a `Scan` task covers a range of partition rows and
//! splits itself until ranges are small; an `Expand` task carries one
//! partial embedding, generates candidates, validates them and spawns one
//! child task per valid extension (or delivers to the sink at the last
//! step).
//!
//! Scheduling follows the paper exactly:
//!
//! * **LIFO task deques** — every worker owns a deque (the vendored
//!   `crossbeam::deque`: the paper's \[17\] interface over a mutex-guarded
//!   ring buffer, not a lock-free one) and pushes/pops at its hot end, so
//!   the engine runs depth-first locally and memory stays within the
//!   Theorem VI.1 bound
//!   `O(aq · |E(q)|² · |E(H)|)`.
//! * **Dynamic work stealing** (§VI-C) — an idle worker picks a random
//!   victim and steals a batch (up to half) from the cold end of its deque,
//!   i.e. the oldest, coarsest tasks. Disabling stealing (plus static
//!   first-level partitioning) reproduces the `HGMatch-NOSTL` baseline of
//!   Fig. 12.
//!
//! # Architecture: one task core, two schedulers
//!
//! Everything that happens *inside* a task — candidate generation,
//! validation, delivery, spill-buffer pooling — lives in the shared
//! `task` submodule, decoupled from any scheduler's lifetime. Two
//! schedulers drive it:
//!
//! * [`ParallelEngine`] (this module) — the paper's one-shot engine: a
//!   scoped pool is spun up for a single `run()`, executes one query, and
//!   is torn down when the run returns. Best for batch experiments and the
//!   figure-reproduction benches.
//! * [`crate::serve::MatchServer`] — the resident serving pool: worker
//!   threads live for the process lifetime, tasks are tagged with the query
//!   they belong to, and many queries execute concurrently against one
//!   shared data hypergraph with fair interleaving, per-query cancellation,
//!   timeouts and result limits.
//!
//! The expansion path is allocation-free in the common case
//! (DESIGN.md §6): embeddings of up to `INLINE_EMB` edges are stored
//! inline in the task itself, deeper ones spill to heap buffers recycled
//! through a per-worker pool, and per-expansion state (vertex multisets,
//! candidate and delivery buffers) is reused across tasks.

pub(crate) mod task;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use hgmatch_hypergraph::Hypergraph;
use parking_lot::Mutex;

use crate::adaptive::{resolve_task, AdaptiveState};
use crate::config::MatchConfig;
use crate::exec::{RunStats, WorkerStats};
use crate::memory::MemoryTracker;
use crate::metrics::MatchMetrics;
use crate::plan::Plan;
use crate::query::QueryGraph;
use crate::sink::Sink;

use task::{
    execute_task, steal_from_victims, ExecScratch, QueryEnv, Scheduler, Tally, Task, CHECK_INTERVAL,
};

/// The parallel engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelEngine;

struct Shared<'a, S: Sink> {
    /// The base plan — the only plan of a static run, version 0 of an
    /// adaptive one.
    plan: &'a Plan,
    /// Adaptive re-optimization state (DESIGN.md §15); `None` = static.
    adaptive: Option<&'a AdaptiveState>,
    data: &'a Hypergraph,
    sink: &'a S,
    config: &'a MatchConfig,
    tracker: &'a MemoryTracker,
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    pending: AtomicU64,
    abort: AtomicBool,
    timed_out: AtomicBool,
    deadline: Option<Instant>,
}

impl ParallelEngine {
    /// Runs `plan` against `data` with `config.threads` workers, delivering
    /// results to `sink`. Static: the plan is executed as compiled, with no
    /// mid-query re-optimization (the differential harnesses depend on
    /// this entry point staying order-faithful).
    pub fn run<S: Sink>(
        plan: &Plan,
        data: &Hypergraph,
        sink: &S,
        config: &MatchConfig,
    ) -> RunStats {
        Self::run_inner(plan, None, data, sink, config)
    }

    /// Runs `plan` with mid-query adaptive re-optimization (DESIGN.md §15):
    /// observed per-step candidate counts feed a trigger that, past
    /// `config.replan_ratio × estimate`, re-orders the unmatched suffix and
    /// adopts it for everything whose matched prefix still agrees. Falls
    /// back to the static [`ParallelEngine::run`] when the ratio is 0, the
    /// plan is trivial (≤ 1 step) or infeasible.
    pub fn run_adaptive<S: Sink>(
        query: &QueryGraph,
        plan: &Arc<Plan>,
        data: &Hypergraph,
        sink: &S,
        config: &MatchConfig,
    ) -> RunStats {
        if config.replan_ratio <= 0.0 || plan.len() <= 1 || plan.is_infeasible() {
            return Self::run(plan, data, sink, config);
        }
        let state = AdaptiveState::new(query.clone(), Arc::clone(plan), config.replan_ratio);
        Self::run_inner(plan, Some(&state), data, sink, config)
    }

    fn run_inner<S: Sink>(
        plan: &Plan,
        adaptive: Option<&AdaptiveState>,
        data: &Hypergraph,
        sink: &S,
        config: &MatchConfig,
    ) -> RunStats {
        let start = Instant::now();
        let threads = config.threads.max(1);
        let mut stats = RunStats::default();
        if plan.is_infeasible() {
            stats.workers = vec![WorkerStats::default(); threads];
            stats.elapsed = start.elapsed();
            return stats;
        }

        let deques: Vec<Deque<Task>> = (0..threads).map(|_| Deque::new_lifo()).collect();
        let stealers: Vec<Stealer<Task>> = deques.iter().map(Deque::stealer).collect();
        let tracker = MemoryTracker::new();

        let shared = Shared {
            plan,
            adaptive,
            data,
            sink,
            config,
            tracker: &tracker,
            injector: Injector::new(),
            stealers,
            pending: AtomicU64::new(0),
            abort: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            deadline: config.timeout.map(|t| start + t),
        };

        // Seed the scan. With stealing the whole range goes to the injector
        // and splits dynamically; without stealing (NOSTL) the first-level
        // rows are divided statically and evenly among workers — the
        // coarse-grained baseline of Fig. 12.
        let scan_rows = data
            .partition(plan.steps()[0].partition.expect("feasible"))
            .len() as u32;
        let mut seeded: Vec<Vec<Task>> = (0..threads).map(|_| Vec::new()).collect();
        if config.work_stealing {
            if scan_rows > 0 {
                shared.pending.fetch_add(1, Ordering::Relaxed);
                shared.injector.push(Task::Scan {
                    start: 0,
                    end: scan_rows,
                });
            }
        } else {
            let per = scan_rows.div_ceil(threads.max(1) as u32).max(1);
            let mut begin = 0u32;
            let mut w = 0usize;
            while begin < scan_rows {
                let end = (begin + per).min(scan_rows);
                shared.pending.fetch_add(1, Ordering::Relaxed);
                seeded[w % threads].push(Task::Scan { start: begin, end });
                begin = end;
                w += 1;
            }
        }

        let results: Mutex<Vec<(usize, WorkerStats, MatchMetrics)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (id, deque) in deques.into_iter().enumerate() {
                let shared = &shared;
                let results = &results;
                let seed = std::mem::take(&mut seeded[id]);
                scope.spawn(move || {
                    for task in seed {
                        deque.push(task);
                    }
                    let (wstats, metrics) = worker_loop(id, deque, shared);
                    results.lock().push((id, wstats, metrics));
                });
            }
        });

        let mut collected = results.into_inner();
        collected.sort_by_key(|(id, _, _)| *id);
        let mut metrics = MatchMetrics::default();
        let mut workers = Vec::with_capacity(threads);
        for (_, w, m) in collected {
            metrics.merge(&m);
            workers.push(w);
        }

        stats.metrics = metrics;
        stats.workers = workers;
        stats.timed_out = shared.timed_out.load(Ordering::Relaxed);
        stats.elapsed = start.elapsed();
        stats.peak_memory_bytes = tracker.peak_bytes();
        stats
    }
}

/// Raises the run's abort flag if its worker unwinds. A panicking task
/// never retires, so without it `pending` would stay above zero and the
/// surviving workers would idle forever; with it they drain and exit, and
/// `std::thread::scope` re-raises the panic on the caller's thread.
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// One worker of a run. Its tasks' metrics, sink counts and retirements
/// stay in its own [`Tally`] and `retired`; `pending` only grows when a
/// task announces children, and shrinks when the worker's deque runs dry
/// (DESIGN.md §8.1). A worker checks `pending` only after publishing, so
/// the run ends exactly when every worker has run dry.
fn worker_loop<S: Sink>(
    id: usize,
    local: Deque<Task>,
    shared: &Shared<'_, S>,
) -> (WorkerStats, MatchMetrics) {
    let _unwind = AbortOnUnwind(&shared.abort);
    let mut scratch = ExecScratch::new();
    let mut tally = Tally::default();
    let mut retired = 0u64;
    let mut stats = WorkerStats::default();
    let mut rng = 0x9E37_79B9 ^ (id as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D);
    let mut checks = 0u64;

    loop {
        let next = local.pop().or_else(|| {
            // The deque ran dry: publish before looking elsewhere or idling.
            tally.flush_counts(shared.sink);
            if retired > 0 {
                shared
                    .pending
                    .fetch_sub(std::mem::take(&mut retired), Ordering::Release);
            }
            find_task(id, &local, shared, &mut rng, &mut stats)
        });
        if let Some(task) = next {
            let begin = Instant::now();
            let was_assist = matches!(task, Task::Assist { .. });
            let splits_before = tally.metrics.split_expansions;
            let assist_chunks_before = tally.metrics.assist_chunks;
            let (resolved, ver) = resolve_task(shared.adaptive, &task);
            let env = QueryEnv {
                plan: resolved.as_deref().unwrap_or(shared.plan),
                data: shared.data,
                sink: shared.sink,
                config: shared.config,
                tracker: shared.tracker,
                ver,
                adaptive: shared.adaptive,
            };
            let mut sched = EngineScheduler {
                shared,
                local: &local,
                checks: &mut checks,
            };
            execute_task(&env, &mut scratch, &mut tally, task, &mut sched);
            retired += 1;
            stats.busy += begin.elapsed();
            stats.tasks += 1;
            stats.splits += tally.metrics.split_expansions - splits_before;
            if was_assist && tally.metrics.assist_chunks > assist_chunks_before {
                stats.assists += 1;
            }
        } else {
            if shared.pending.load(Ordering::Acquire) == 0 || shared.abort.load(Ordering::Relaxed) {
                break;
            }
            // Periodic deadline check also while idle, so a stuck queue
            // cannot outlive the timeout.
            check_abort(shared, &mut checks);
            std::thread::yield_now();
        }
    }
    stats.matches = tally.metrics.embeddings;
    (stats, tally.metrics)
}

/// The one-shot engine's side of a task: children go to the worker's own
/// deque, counted pending once per task.
struct EngineScheduler<'w, 'a, S: Sink> {
    shared: &'w Shared<'a, S>,
    local: &'w Deque<Task>,
    checks: &'w mut u64,
}

impl<S: Sink> Scheduler for EngineScheduler<'_, '_, S> {
    fn stop(&mut self) -> bool {
        check_abort(self.shared, self.checks)
    }

    fn announce(&mut self, k: usize) {
        self.shared.pending.fetch_add(k as u64, Ordering::Relaxed);
    }

    fn push(&mut self, task: Task) {
        self.local.push(task);
    }
}

/// Where a worker whose deque ran dry looks next: the injector (seed tasks
/// and overflow), then — with stealing on — a random victim.
fn find_task<S: Sink>(
    id: usize,
    local: &Deque<Task>,
    shared: &Shared<'_, S>,
    rng: &mut u64,
    stats: &mut WorkerStats,
) -> Option<Task> {
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            Steal::Success(t) => return Some(t),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    if !shared.config.work_stealing {
        return None;
    }
    let stolen = steal_from_victims(&shared.stealers, local, id, rng);
    if stolen.is_some() {
        stats.steals += 1;
    }
    stolen
}

/// The one-shot engine's cooperative stop check: an already-raised abort
/// flag and the sink's satisfaction are honoured on *every* call (two
/// cheap atomic loads — with counts flushing mid-task, a first-k limit
/// must land within one probe of saturation, not one [`CHECK_INTERVAL`]
/// window of ABORT_PROBE-sized strides); only the `Instant::now()`
/// deadline check stays on the interval cadence.
#[inline]
fn check_abort<S: Sink>(shared: &Shared<'_, S>, checks: &mut u64) -> bool {
    *checks += 1;
    if shared.abort.load(Ordering::Relaxed) {
        return true;
    }
    if shared.sink.is_satisfied() {
        shared.abort.store(true, Ordering::Relaxed);
        return true;
    }
    if (checks.is_multiple_of(CHECK_INTERVAL) || *checks == 1)
        && shared.deadline.is_some_and(|d| Instant::now() >= d)
    {
        shared.abort.store(true, Ordering::Relaxed);
        shared.timed_out.store(true, Ordering::Relaxed);
        return true;
    }
    shared.abort.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::task::INLINE_EMB;
    use super::*;
    use crate::plan::Planner;
    use crate::query::QueryGraph;
    use crate::sink::{CollectSink, CountSink, FirstKSink};
    use hgmatch_hypergraph::{HypergraphBuilder, Label};

    fn paper_data() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1, 2, 0] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 4]).unwrap();
        b.add_edge(vec![4, 6]).unwrap();
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![3, 5, 6]).unwrap();
        b.add_edge(vec![0, 1, 4, 6]).unwrap();
        b.add_edge(vec![2, 3, 4, 5]).unwrap();
        b.build().unwrap()
    }

    fn paper_query() -> QueryGraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 4]).unwrap();
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![0, 1, 3, 4]).unwrap();
        QueryGraph::new(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn parallel_matches_paper_example() {
        let data = paper_data();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        for threads in [1, 2, 4] {
            let sink = CollectSink::new();
            let stats = ParallelEngine::run(&plan, &data, &sink, &MatchConfig::parallel(threads));
            assert_eq!(stats.embeddings(), 2, "threads={threads}");
            assert_eq!(stats.workers.len(), threads);
            let results = sink.into_results();
            assert_eq!(results[0].raw(), &[0, 2, 4]);
            assert_eq!(results[1].raw(), &[1, 3, 5]);
        }
    }

    #[test]
    fn nostl_static_partitioning_matches() {
        let data = paper_data();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        let sink = CountSink::new();
        let cfg = MatchConfig::parallel(3).with_work_stealing(false);
        let stats = ParallelEngine::run(&plan, &data, &sink, &cfg);
        assert_eq!(stats.embeddings(), 2);
        assert_eq!(sink.count(), 2);
        assert!(stats.workers.iter().all(|w| w.steals == 0));
    }

    #[test]
    fn single_edge_query_parallel() {
        let data = paper_data();
        let mut b = HypergraphBuilder::new();
        b.add_vertex(Label::new(0));
        b.add_vertex(Label::new(1));
        b.add_edge(vec![0, 1]).unwrap();
        let q = QueryGraph::new(&b.build().unwrap()).unwrap();
        let plan = Planner::plan(&q, &data).unwrap();
        let sink = CountSink::new();
        let stats = ParallelEngine::run(&plan, &data, &sink, &MatchConfig::parallel(2));
        assert_eq!(stats.embeddings(), 2);
    }

    #[test]
    fn infeasible_returns_immediately() {
        let data = paper_data();
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(9));
        b.add_edge(vec![0, 1]).unwrap();
        let q = QueryGraph::new(&b.build().unwrap()).unwrap();
        let plan = Planner::plan(&q, &data).unwrap();
        let sink = CountSink::new();
        let stats = ParallelEngine::run(&plan, &data, &sink, &MatchConfig::parallel(2));
        assert_eq!(stats.embeddings(), 0);
        assert!(!stats.timed_out);
    }

    #[test]
    fn first_k_aborts_workers() {
        let data = paper_data();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        let sink = FirstKSink::new(1);
        ParallelEngine::run(&plan, &data, &sink, &MatchConfig::parallel(2));
        assert_eq!(sink.into_results().len(), 1);
    }

    #[test]
    fn memory_peak_tracked() {
        let data = paper_data();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        let sink = CountSink::new();
        let stats = ParallelEngine::run(&plan, &data, &sink, &MatchConfig::parallel(2));
        assert!(stats.peak_memory_bytes > 0);
    }

    /// A query with more hyperedges than [`INLINE_EMB`], exercising the
    /// spill-to-pool path: a path of 10 {A,A} edges over distinct vertices,
    /// matched against an identical data path (exactly one embedding).
    #[test]
    fn deep_queries_spill_and_still_match() {
        let n = 10usize;
        assert!(n > INLINE_EMB);
        let mut d = HypergraphBuilder::new();
        d.add_vertices(n + 1, Label::new(0));
        for i in 0..n {
            d.add_edge(vec![i as u32, i as u32 + 1]).unwrap();
        }
        let data = d.build().unwrap();

        let mut q = HypergraphBuilder::new();
        q.add_vertices(n + 1, Label::new(0));
        for i in 0..n {
            q.add_edge(vec![i as u32, i as u32 + 1]).unwrap();
        }
        let query = QueryGraph::new(&q.build().unwrap()).unwrap();
        let plan = Planner::plan(&query, &data).unwrap();

        // Oracle: the sequential executor (its recursion depth is unbounded
        // by INLINE_EMB, so it pins down the expected count — the identity
        // embedding plus the path-reversal automorphism).
        let oracle = CountSink::new();
        crate::exec::SequentialExecutor::run(&plan, &data, &oracle, &MatchConfig::sequential());
        assert!(oracle.count() >= 1);

        for threads in [1, 3] {
            let sink = CountSink::new();
            let stats = ParallelEngine::run(&plan, &data, &sink, &MatchConfig::parallel(threads));
            assert_eq!(stats.embeddings(), oracle.count(), "threads={threads}");
            assert_eq!(sink.count(), oracle.count());
        }
    }

    /// The chain-with-branch fixture of `crate::adaptive`'s unit tests: a
    /// stale plan (compiled from a model that believes the 30-row {C,D}
    /// fan-out is tiny) walks into the junk branch first; honest statistics
    /// put the selective {C,E} filter first.
    fn branch_fixture() -> (Hypergraph, QueryGraph, Arc<Plan>) {
        use crate::cost::CostModel;
        use crate::plan::Planner;
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

        let mut q = HypergraphBuilder::new();
        for &l in &[0u32, 1, 2, 3, 4] {
            q.add_vertex(Label::new(l));
        }
        q.add_edge(vec![0, 1]).unwrap();
        q.add_edge(vec![1, 2]).unwrap();
        q.add_edge(vec![2, 3]).unwrap();
        q.add_edge(vec![2, 4]).unwrap();
        let query = QueryGraph::new(&q.build().unwrap()).unwrap();

        let mut model = CostModel::new(&query, &data);
        model.scale_edge(2, 1.0 / 1000.0);
        let plan = Arc::new(
            Planner::plan_with_order_costed(&query, &data, vec![0, 1, 2, 3], &model).unwrap(),
        );
        (data, query, plan)
    }

    #[test]
    fn adaptive_run_matches_static_and_replans() {
        let (data, query, plan) = branch_fixture();
        let expected = {
            let sink = CollectSink::new();
            ParallelEngine::run(&plan, &data, &sink, &MatchConfig::parallel(2));
            sink.into_results()
        };
        assert!(!expected.is_empty());
        for threads in [1, 2, 4] {
            let cfg = MatchConfig::parallel(threads).with_replan_ratio(1.0);
            let sink = CollectSink::new();
            let stats = ParallelEngine::run_adaptive(&query, &plan, &data, &sink, &cfg);
            assert_eq!(sink.into_results(), expected, "threads={threads}");
            assert!(
                stats.metrics.replans >= 1,
                "threads={threads}: the stale plan must adopt a re-plan"
            );
        }
    }

    #[test]
    fn adaptive_ratio_zero_stays_static() {
        let (data, query, plan) = branch_fixture();
        let oracle = CountSink::new();
        ParallelEngine::run(&plan, &data, &oracle, &MatchConfig::parallel(2));
        let sink = CountSink::new();
        let cfg = MatchConfig::parallel(2).with_replan_ratio(0.0);
        let stats = ParallelEngine::run_adaptive(&query, &plan, &data, &sink, &cfg);
        assert_eq!(stats.metrics.replans, 0, "ratio 0 disables the trigger");
        assert_eq!(sink.count(), oracle.count());
    }
}
