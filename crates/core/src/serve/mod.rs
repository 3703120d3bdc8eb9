//! The multi-query serving layer: one resident worker pool, many
//! concurrent queries.
//!
//! The one-shot [`crate::engine::ParallelEngine`] spins a pool up and down
//! per `run()` — perfect for benchmarks, wasteful for a server answering a
//! stream of queries against one immutable data hypergraph. This module
//! provides [`MatchServer`]: worker threads that live for the process
//! lifetime and multiplex every admitted query over one shared,
//! [`Arc`]'d data hypergraph (with its signature partitions and inverted
//! indexes built once). Under dynamic updates the data is an *epoch
//! sequence* of such snapshots: [`MatchServer::update_data`] publishes
//! the next epoch (typically a
//! [`hgmatch_hypergraph::DynamicHypergraph`] snapshot) while queries in
//! flight finish on the epoch they pinned at submission — no query ever
//! observes a half-applied update (DESIGN.md §11.3).
//!
//! What the server adds over the engine (DESIGN.md §8):
//!
//! * **Admission & fair interleaving** — each query is planned once (or
//!   fetched from the plan cache) and seeded as a single root scan task;
//!   workers pick seeds up round-robin and, after a fairness quantum of
//!   consecutive tasks on one query, prioritise other queries' seeds, so a
//!   huge query cannot starve small ones.
//! * **Caller-first execution** — [`MatchServer::run`] executes a query
//!   whose plan estimate is small on the calling thread, through the same
//!   per-task code the pool runs, and hands the pool only what outgrows a
//!   task budget (DESIGN.md §8.5): a point query pays no thread hand-off.
//!   [`MatchServer::submit`] always uses the pool.
//! * **Per-query control** — cooperative cancellation
//!   ([`QueryHandle::cancel`]), wall-clock timeouts and `max_results`
//!   early-exit all stop *expansion* (workers drop the query's remaining
//!   tasks and abandon candidate loops mid-way), not just result
//!   recording; a stopped query releases its workers to other queries
//!   without touching the pool.
//! * **Work-assisting intra-query parallelism** — beyond deque stealing,
//!   a last-step expansion whose candidate list reaches
//!   [`crate::MatchConfig::split_threshold`] is *split mid-flight*
//!   (DESIGN.md §12): idle workers claim disjoint chunks of the in-flight
//!   candidate range through stolen assist tickets, so one giant
//!   expansion spreads across the pool instead of pinning one worker.
//!   Observable via [`ServeStats::splits`]/[`ServeStats::assists`] and the
//!   per-worker busy spread of [`MatchServer::worker_stats`].
//! * **Plan caching** — repeated query shapes skip Algorithm 3 entirely,
//!   keyed by the query's [`QueryShape`]: its label vector plus its
//!   canonicalised hyperedge lists, the same canonicalisation
//!   [`hgmatch_hypergraph::Signature`] applies to label multisets lifted
//!   to the whole query. Every entry point takes a shape (or a
//!   `&Hypergraph`, flattened into one), so a hit builds nothing else.
//!   Hits are observable via [`MatchServer::stats`] and per-outcome
//!   [`QueryOutcome::plan_cached`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
//! use hgmatch_core::QueryShape;
//! use hgmatch_hypergraph::{HypergraphBuilder, Label};
//!
//! // Data: two triangles sharing a vertex (labels A=0, B=1).
//! let mut b = HypergraphBuilder::new();
//! for &l in &[0u32, 0, 1, 0, 0] {
//!     b.add_vertex(Label::new(l));
//! }
//! b.add_edge(vec![0, 1, 2]).unwrap();
//! b.add_edge(vec![2, 3, 4]).unwrap();
//! let data = Arc::new(b.build().unwrap());
//!
//! // Query: one {A, A, B} hyperedge.
//! let mut q = HypergraphBuilder::new();
//! for &l in &[0u32, 0, 1] {
//!     q.add_vertex(Label::new(l));
//! }
//! q.add_edge(vec![0, 1, 2]).unwrap();
//! let query = q.build().unwrap();
//!
//! let server = MatchServer::new(Arc::clone(&data), ServeConfig::default());
//! // Submit twice, the second time as the `QueryShape` a front door
//! // decodes a request into: the same query, so it hits the plan cache.
//! let first = server.run(&query, QueryOptions::default()).unwrap();
//! let shape = QueryShape::new(&[0, 0, 1].map(Label::new), [vec![2, 1, 0]]).unwrap();
//! let second = server.run(shape, QueryOptions::default()).unwrap();
//! assert_eq!(first.status, QueryStatus::Completed);
//! assert_eq!((first.count, second.count), (2, 2));
//! assert!(!first.plan_cached && second.plan_cached);
//! assert_eq!(server.stats().plan_cache_hits, 1);
//! ```

pub(crate) mod cache;
pub(crate) mod query;
pub(crate) mod worker;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::deque::{Stealer, Worker as Deque};
use hgmatch_hypergraph::Hypergraph;
use parking_lot::Mutex;

use crate::aggregate::{AggregateMode, AggregateSummary};
use crate::config::MatchConfig;
use crate::embedding::Embedding;
use crate::engine::task::{ExecScratch, Task};
use crate::error::Result;
use crate::metrics::MatchMetrics;
use crate::plan::Planner;
use crate::query::{QueryGraph, QueryShape};

use cache::{PlanCache, Planned};
use query::{ActiveQuery, StopCause};
use worker::{run_one, worker_loop, Held, ServeTask};

/// Largest plan estimate ([`crate::Plan::cost`], in candidates — the
/// number the front door's cost gate reads) [`MatchServer::run`] starts on
/// the calling thread. It is the break-even of a pool hand-off against
/// validation: the hand-off `run` avoids (seed publish, worker wake-up,
/// `done_cv` wake-up) measures 6–7 µs on one pinned CPU
/// (`point_http/lat_p50_ms` 0.028 → 0.021, `server.door.overhead_us`
/// 32.3 → 25.4) and a validate call 19 ns, so a query estimated under
/// ≈ 300 candidates is done before a worker would have started it; 256 is
/// the power of two below. Above it the pool's second worker is worth more
/// than the hand-off costs, and a handler thread executing engine code
/// would compete with the pool for the same CPUs. Not configurable: both
/// inputs are measured properties of this code (DESIGN.md §8.5).
const INLINE_MAX_COST: f64 = 256.0;

/// Tasks a caller-first run executes before handing the rest of its stack
/// to the pool. The estimate can be wrong (stale statistics, a hub
/// vertex), so the inline phase is bounded in the unit the loop already
/// counts. From below, an honestly estimated query must never reach it:
/// `point_http` runs 3.1 tasks a query (none spill), `update_mix` 4.8
/// (0.25 % of inline runs spill). From above, it is how long a submitting
/// thread may be kept from its caller by a query that turns out large: a
/// task under the gate costs 0.3 µs (WT-S) to 1.4 µs (AR-S), 4.3 µs on
/// HB-S's hub postings, so 64 tasks are 20–90 µs, 275 µs at worst — noise
/// beside the milliseconds such a query then spends in the pool
/// (`enum_http`: 8 % of requests estimate under the gate, three quarters
/// of those spill, no metric moves). 64 is an order of magnitude above
/// what an honest query needs (DESIGN.md §8.5).
const INLINE_TASK_BUDGET: u32 = 64;

/// Configuration of a [`MatchServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Resident worker threads. Must be ≥ 1.
    pub threads: usize,
    /// Consecutive tasks a worker may execute for one query before other
    /// queries' waiting seeds take priority (fair interleaving).
    pub fairness_quantum: u32,
    /// Plans kept in the LRU plan cache (0 disables caching). Each
    /// publish ([`MatchServer::update_data`]) empties it.
    pub plan_cache_capacity: usize,
    /// Timeout applied to queries that do not set their own.
    pub default_timeout: Option<Duration>,
    /// Aggregation mode applied to queries that neither set
    /// [`QueryOptions::aggregate`] nor ask to collect; `None` keeps the
    /// historical default (count-only). Lets a deployment flip its whole
    /// result path to e.g. sampled estimates without touching clients.
    pub default_aggregate: Option<AggregateMode>,
    /// Execution settings shared by all queries (work stealing, the split
    /// threshold). Its `threads` and `timeout` fields are ignored: the pool
    /// size is [`ServeConfig::threads`] and timeouts are per-query.
    /// Disabling `work_stealing` pins each query to the worker that claimed
    /// its seed (parallelism across queries, not within one).
    pub match_config: MatchConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            fairness_quantum: 64,
            plan_cache_capacity: 128,
            default_timeout: None,
            default_aggregate: None,
            match_config: MatchConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count, builder style.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the default per-query timeout, builder style.
    pub fn with_default_timeout(mut self, timeout: Duration) -> Self {
        self.default_timeout = Some(timeout);
        self
    }

    /// Sets the plan-cache capacity, builder style.
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Sets the fairness quantum, builder style.
    pub fn with_fairness_quantum(mut self, quantum: u32) -> Self {
        self.fairness_quantum = quantum.max(1);
        self
    }

    /// Sets the server-wide default aggregation mode, builder style.
    pub fn with_default_aggregate(mut self, mode: AggregateMode) -> Self {
        self.default_aggregate = Some(mode);
        self
    }
}

/// Per-query execution options.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Wall-clock budget; overrides [`ServeConfig::default_timeout`].
    pub timeout: Option<Duration>,
    /// Stop after this many embeddings. Expansion stops too — remaining
    /// tasks of the query are dropped, releasing workers.
    pub max_results: Option<u64>,
    /// Materialise embeddings (otherwise the query only counts).
    /// Subsumed by [`QueryOptions::aggregate`], which wins when set; kept
    /// for source compatibility with pre-aggregation callers.
    pub collect: bool,
    /// Explicit aggregation mode. `None` falls back to `collect`
    /// (materialize), then to [`ServeConfig::default_aggregate`], then to
    /// count-only.
    pub aggregate: Option<AggregateMode>,
}

impl QueryOptions {
    /// Count-only options with no limits.
    pub fn count() -> Self {
        Self::default()
    }

    /// Collects every embedding.
    pub fn collect_all() -> Self {
        Self {
            collect: true,
            ..Self::default()
        }
    }

    /// Collects at most `k` embeddings, stopping expansion once found.
    pub fn first(k: u64) -> Self {
        Self {
            collect: true,
            max_results: Some(k),
            ..Self::default()
        }
    }

    /// Keeps the best `k` embeddings by `score` (exact count included).
    pub fn top_k(k: usize, score: crate::aggregate::ScoreFn) -> Self {
        Self {
            aggregate: Some(AggregateMode::TopK { k, score }),
            ..Self::default()
        }
    }

    /// Keeps a seed-reproducible sample of at most `budget` embeddings
    /// (exact count included).
    pub fn sampled(budget: usize, seed: u64) -> Self {
        Self {
            aggregate: Some(AggregateMode::Sampled { budget, seed }),
            ..Self::default()
        }
    }

    /// Sets the timeout, builder style.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the result limit, builder style.
    pub fn with_max_results(mut self, limit: u64) -> Self {
        self.max_results = Some(limit);
        self
    }

    /// Sets the aggregation mode, builder style.
    pub fn with_aggregate(mut self, mode: AggregateMode) -> Self {
        self.aggregate = Some(mode);
        self
    }

    /// Resolves the mode this query runs under: an explicit
    /// [`QueryOptions::aggregate`] wins, then the `collect` flag
    /// (materialize), then the server default, then count-only.
    pub fn effective_aggregate(&self, server_default: Option<AggregateMode>) -> AggregateMode {
        self.aggregate.unwrap_or_else(|| {
            if self.collect {
                AggregateMode::Materialize
            } else {
                server_default.unwrap_or(AggregateMode::CountOnly)
            }
        })
    }
}

/// Terminal status of a served query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// The search space was exhausted; results are exact.
    Completed,
    /// `max_results` was reached and expansion stopped early. The results
    /// are the first to be *found*: with one worker that is exactly the
    /// sequential executor's first-N (DESIGN.md §8.3); with several
    /// workers it is N valid embeddings whose identity depends on
    /// scheduling.
    LimitReached,
    /// The wall-clock budget expired; results are a lower bound.
    TimedOut,
    /// The query was cancelled; results are whatever was found first.
    Cancelled,
    /// A task of the query panicked. The panic was contained — the thread
    /// that ran it and every other query are unaffected — and the query's
    /// remaining work was dropped; results are a lower bound.
    Failed,
}

impl std::fmt::Display for QueryStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Completed => "completed",
            Self::LimitReached => "limit-reached",
            Self::TimedOut => "timed-out",
            Self::Cancelled => "cancelled",
            Self::Failed => "failed",
        })
    }
}

/// Final result of a served query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Server-assigned query id (also on the [`QueryHandle`]).
    pub id: u64,
    /// How the query ended.
    pub status: QueryStatus,
    /// Embeddings found (exact only when `status` is
    /// [`QueryStatus::Completed`] or [`QueryStatus::LimitReached`]).
    pub count: u64,
    /// Embeddings the aggregation mode kept: everything (sorted) under
    /// materialize, `None` under count-only, the best k (best first) under
    /// top-k, the sample (sorted) under sampled.
    pub embeddings: Option<Vec<Embedding>>,
    /// Mode-specific summary: top-k scores, sample fraction and confidence
    /// half-width, or a bare marker for materialize/count-only.
    pub aggregate: AggregateSummary,
    /// Merged execution counters.
    pub metrics: MatchMetrics,
    /// Submission-to-completion latency
    /// (`= queue_wait + execution`, always).
    pub elapsed: Duration,
    /// Share of [`QueryOutcome::elapsed`] spent waiting for the first
    /// worker pickup. Under overload this is the queueing delay — the
    /// number an admission controller should watch, because it grows with
    /// load while [`QueryOutcome::execution`] does not.
    pub queue_wait: Duration,
    /// Share of [`QueryOutcome::elapsed`] after the first worker pickup —
    /// the engine's actual execution latency, independent of how long the
    /// query sat in the admission queue.
    pub execution: Duration,
    /// Peak bytes of materialised partial embeddings for this query.
    pub peak_memory_bytes: i64,
    /// Whether planning was skipped via the plan cache.
    pub plan_cached: bool,
    /// Epoch of the data snapshot this query executed against (pinned at
    /// submission; see [`MatchServer::update_data`]).
    pub data_epoch: u64,
    /// Whether every task ran on the submitting thread
    /// ([`MatchServer::run`]'s caller-first path, never spilled): the pool
    /// was not involved and [`QueryOutcome::queue_wait`] is ≈ 0.
    pub inline: bool,
}

/// A handle to an in-flight (or finished) query.
///
/// Dropping the handle does *not* cancel the query; call
/// [`QueryHandle::cancel`] for that.
#[derive(Debug)]
pub struct QueryHandle {
    query: Arc<ActiveQuery>,
}

impl QueryHandle {
    /// The server-assigned query id.
    pub fn id(&self) -> u64 {
        self.query.id
    }

    /// Requests cooperative cancellation: workers drop the query's
    /// remaining tasks and abandon in-progress expansions at the next
    /// probe. The pool itself keeps running.
    pub fn cancel(&self) {
        self.query.stop(StopCause::Cancelled);
    }

    /// Whether the outcome is ready (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.query.is_finished()
    }

    /// Blocks until the query finishes and returns its outcome.
    pub fn wait(self) -> QueryOutcome {
        self.query.wait_outcome()
    }
}

/// Aggregate serving counters, snapshot via [`MatchServer::stats`].
///
/// The per-task counters (`tasks_*`, `splits`, `assists`, `caller_*`)
/// are published by each worker at its boundaries (DESIGN.md §8.1):
/// while queries run they may trail the work done, and once every query
/// has finished they are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries admitted (including already-finished ones).
    pub admitted: u64,
    /// Queries finished, by terminal status.
    pub completed: u64,
    /// Queries that ended at their result limit.
    pub limit_reached: u64,
    /// Queries that hit their wall-clock budget.
    pub timed_out: u64,
    /// Queries cancelled by their submitter (or by shutdown).
    pub cancelled: u64,
    /// Queries that ended [`QueryStatus::Failed`] (a contained task panic).
    pub failed: u64,
    /// Queries waiting for or running on the pool. A caller-first run is
    /// counted only once it spills: until then the pool does not know it.
    pub active: usize,
    /// Tasks spawned across all queries: seed scans plus every child task
    /// and assist ticket emitted by executions. After the pool drains this
    /// equals [`ServeStats::tasks_executed`] — the scheduler-stress suites
    /// assert that invariant (no task is lost or run twice).
    pub tasks_spawned: u64,
    /// Tasks executed across all queries.
    pub tasks_executed: u64,
    /// Successful inter-worker steal operations.
    pub steals: u64,
    /// Expansions whose candidate range was split for the work-assisting
    /// scheduler (DESIGN.md §12).
    pub splits: u64,
    /// Assist tickets that claimed at least one chunk of another worker's
    /// split expansion (mid-flight intra-query parallelism actually
    /// realised, not just offered).
    pub assists: u64,
    /// Plan-cache hits (planning skipped).
    pub plan_cache_hits: u64,
    /// Plan-cache misses (planning ran).
    pub plan_cache_misses: u64,
    /// Plans currently cached.
    pub plan_cache_size: usize,
    /// Plan-cache entries dropped by data updates
    /// ([`MatchServer::update_data`] empties the cache).
    pub plans_invalidated: u64,
    /// Total time finished queries spent waiting for their first worker
    /// pickup (sum of [`QueryOutcome::queue_wait`] over finished queries).
    /// Divergence of this from [`ServeStats::execution_total`] under load
    /// is the saturation signal the front door's admission control reads.
    pub queue_wait_total: Duration,
    /// Total time finished queries spent executing after first pickup
    /// (sum of [`QueryOutcome::execution`] over finished queries).
    pub execution_total: Duration,
    /// Epoch of the currently published data snapshot.
    pub data_epoch: u64,
    /// Embeddings found across finished queries (the logical result count,
    /// summed over outcomes — exact in every aggregation mode).
    pub results_found: u64,
    /// Embeddings actually materialised across finished queries (converted
    /// to query order and handed to the sink); diverges from
    /// [`ServeStats::results_found`] under count-only/top-k/sampled modes.
    pub results_materialized: u64,
    /// Finished queries that ran under materialize aggregation.
    pub queries_materialize: u64,
    /// Finished queries that ran under count-only aggregation.
    pub queries_count_only: u64,
    /// Finished queries that ran under top-k aggregation.
    pub queries_top_k: u64,
    /// Finished queries that ran under sampled aggregation.
    pub queries_sampled: u64,
    /// Queries [`MatchServer::run`] started on the calling thread.
    pub ran_inline: u64,
    /// Of those, the ones that outgrew the inline budget (or published a
    /// split) and handed their remaining stack to the pool.
    pub spilled: u64,
    /// Task executions that panicked and were contained.
    pub tasks_panicked: u64,
    /// Wall-clock submitting threads spent executing tasks — the
    /// caller-first share of the work [`MatchServer::worker_stats`] cannot
    /// see.
    pub caller_busy: Duration,
    /// Tasks executed on submitting threads.
    pub caller_tasks: u64,
}

#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) admitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) limit_reached: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) spawned: AtomicU64,
    pub(crate) tasks: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) splits: AtomicU64,
    pub(crate) assists: AtomicU64,
    pub(crate) queue_wait_ns: AtomicU64,
    pub(crate) execution_ns: AtomicU64,
    pub(crate) results_found: AtomicU64,
    pub(crate) results_materialized: AtomicU64,
    pub(crate) queries_materialize: AtomicU64,
    pub(crate) queries_count_only: AtomicU64,
    pub(crate) queries_top_k: AtomicU64,
    pub(crate) queries_sampled: AtomicU64,
    pub(crate) ran_inline: AtomicU64,
    pub(crate) spilled: AtomicU64,
    pub(crate) tasks_panicked: AtomicU64,
    pub(crate) caller_busy_ns: AtomicU64,
    pub(crate) caller_tasks: AtomicU64,
}

/// What a submitting thread needs to execute tasks itself: the engine
/// scratch (which owns a `num_vertices`-byte class table, so it must stay
/// warm across calls), the private LIFO stack of a caller-first run and
/// its held state. Checked out of [`ServeShared::caller_scratch`] per run,
/// never built per request once warm.
#[derive(Debug, Default)]
pub(crate) struct CallerScratch {
    exec: ExecScratch,
    stack: Vec<Task>,
    held: Held,
}

/// Test-only fault injection: makes one task execution of one query panic
/// inside [`worker::run_one`], wherever it runs.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct PanicHook {
    query: AtomicU64,
    after: AtomicU64,
}

#[cfg(test)]
impl PanicHook {
    /// The `after`-th (0-based) task execution of query `id` panics.
    fn arm(&self, id: u64, after: u64) {
        self.after.store(after, Ordering::SeqCst);
        self.query.store(id, Ordering::SeqCst);
    }

    pub(crate) fn fire(&self, id: u64) {
        if self.query.load(Ordering::SeqCst) == id && self.after.fetch_sub(1, Ordering::SeqCst) == 0
        {
            panic!("injected task panic (query {id})");
        }
    }
}

/// Per-worker accounting of the serving pool, snapshot via
/// [`MatchServer::worker_stats`]. Busy time is the scheduling experiments'
/// load-balance signal: with work assisting a single big query spreads its
/// busy time across the pool, while under pinned (no-steal) pickup one
/// worker carries it all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerServeStats {
    /// Wall-clock spent executing tasks (excludes idle and steal spinning).
    pub busy: Duration,
    /// Tasks this worker executed.
    pub tasks: u64,
}

/// The currently published data snapshot and its epoch. Queries pin the
/// pair at submission; [`MatchServer::update_data`] swaps it atomically.
#[derive(Debug)]
pub(crate) struct CurrentData {
    pub(crate) graph: Arc<Hypergraph>,
    pub(crate) epoch: u64,
}

/// State shared between the server front-end and its workers.
#[derive(Debug)]
pub(crate) struct ServeShared {
    pub(crate) data: Mutex<CurrentData>,
    pub(crate) config: MatchConfig,
    pub(crate) fairness_quantum: u32,
    /// Admitted, unfinished queries (seed-slot scan order = admission
    /// order; finalisation removes entries).
    pub(crate) queries: Mutex<Vec<Arc<ActiveQuery>>>,
    pub(crate) stealers: Vec<Stealer<ServeTask>>,
    /// Per-worker busy nanoseconds and task counts (indexed by worker id).
    pub(crate) worker_busy_ns: Vec<AtomicU64>,
    pub(crate) worker_tasks: Vec<AtomicU64>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) idle_mutex: StdMutex<()>,
    pub(crate) idle_cv: Condvar,
    pub(crate) counters: Counters,
    pub(crate) cache: PlanCache,
    /// Free-list of caller-side scratches, one per concurrent
    /// [`MatchServer::run`] at the high-water mark.
    caller_scratch: Mutex<Vec<CallerScratch>>,
    next_id: AtomicU64,
    #[cfg(test)]
    pub(crate) panic_hook: PanicHook,
}

impl ServeShared {
    /// Retires a finished query: removes it from the admission registry,
    /// resolves its outcome, bumps counters and wakes waiters. Called by
    /// exactly one thread per query (the one publishing its last pending
    /// task's retirement, or the submitter for trivially-empty queries).
    pub(crate) fn finalize(&self, query: &Arc<ActiveQuery>) {
        // A caller-first run that never spilled was never registered.
        let inline = query.inline.load(Ordering::Relaxed);
        if !inline {
            self.queries.lock().retain(|q| q.id != query.id);
        }
        let status = query.status();
        match status {
            QueryStatus::Completed => &self.counters.completed,
            QueryStatus::LimitReached => &self.counters.limit_reached,
            QueryStatus::TimedOut => &self.counters.timed_out,
            QueryStatus::Cancelled => &self.counters.cancelled,
            QueryStatus::Failed => &self.counters.failed,
        }
        .fetch_add(1, Ordering::Relaxed);
        let metrics = *query.metrics.lock();
        let (count, embeddings, aggregate) = query.sink.take_output();
        match aggregate {
            AggregateSummary::Materialized => &self.counters.queries_materialize,
            AggregateSummary::Count => &self.counters.queries_count_only,
            AggregateSummary::TopK { .. } => &self.counters.queries_top_k,
            AggregateSummary::Sampled { .. } => &self.counters.queries_sampled,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.counters
            .results_found
            .fetch_add(count, Ordering::Relaxed);
        self.counters
            .results_materialized
            .fetch_add(metrics.materialized, Ordering::Relaxed);
        let elapsed = query.submitted.elapsed();
        let (queue_wait, execution) = query.latency_split(elapsed);
        self.counters
            .queue_wait_ns
            .fetch_add(queue_wait.as_nanos() as u64, Ordering::Relaxed);
        self.counters
            .execution_ns
            .fetch_add(execution.as_nanos() as u64, Ordering::Relaxed);
        query.complete(QueryOutcome {
            id: query.id,
            status,
            count,
            embeddings,
            aggregate,
            metrics,
            elapsed: queue_wait + execution,
            queue_wait,
            execution,
            peak_memory_bytes: query.tracker.peak_bytes(),
            plan_cached: query.plan_cached,
            data_epoch: query.data_epoch,
            inline,
        });
    }

    /// Wakes one parked worker. Notifying under `idle_mutex` pairs with
    /// [`worker::park`] re-checking the seed slots under the same lock: a
    /// worker is either already waiting (and is woken) or has yet to look
    /// (and finds the seed) — a wake-up is never lost, and one seed wakes
    /// one worker, not the pool.
    fn wake_one(&self) {
        let _guard = self.idle_mutex.lock().unwrap_or_else(|e| e.into_inner());
        self.idle_cv.notify_one();
    }

    /// Moves what is left of a caller-first run to the pool, order
    /// preserved; the first spill of a query also registers it.
    fn spill(&self, query: &Arc<ActiveQuery>, stack: &mut Vec<Task>) {
        if query.inline.swap(false, Ordering::Relaxed) {
            self.counters.spilled.fetch_add(1, Ordering::Relaxed);
            self.queries.lock().push(Arc::clone(query));
        }
        query.seed.lock().append(stack);
        self.wake_one();
    }

    /// The caller-first path of [`MatchServer::run`] (DESIGN.md §8.5):
    /// executes `root` and its descendants depth-first from a private LIFO
    /// stack on this thread, through the pool's own [`run_one`]. Ends when
    /// the stack drains, when [`INLINE_TASK_BUDGET`] runs out, or as soon
    /// as a task publishes a work-assisting split — the rest then moves to
    /// the pool. Either way the run publishes what it holds; after the
    /// last task that finalises the query.
    fn run_inline(&self, query: &Arc<ActiveQuery>, root: Task) {
        let mut caller = self.caller_scratch.lock().pop().unwrap_or_default();
        let CallerScratch { exec, stack, held } = &mut caller;
        self.counters.ran_inline.fetch_add(1, Ordering::Relaxed);
        query.inline.store(true, Ordering::Relaxed);
        stack.push(root);
        let mut budget = INLINE_TASK_BUDGET;
        while let Some(task) = stack.pop() {
            // A stopped query's tasks degenerate to accounting: draining
            // them here is cheaper than handing them over.
            if budget == 0 && !query.stopped() {
                stack.push(task);
                break;
            }
            budget = budget.saturating_sub(1);
            let mut split = false;
            run_one(held, query, task, self, exec, |t| {
                // An assist ticket is an invitation to the pool: it must be
                // stealable while this thread is still validating the
                // split's range, so it goes out at once, with the stack
                // below it.
                let ticket = matches!(t, Task::Assist { .. });
                stack.push(t);
                if ticket {
                    split = true;
                    self.spill(query, stack);
                }
            });
            if split {
                break;
            }
        }
        held.publish(self);
        if !stack.is_empty() {
            self.spill(query, stack);
        }
        self.caller_scratch.lock().push(caller);
    }
}

/// A resident multi-query matching server over one shared data hypergraph.
///
/// Workers are spawned in [`MatchServer::new`] and joined on drop (or via
/// [`MatchServer::shutdown`]); queries in flight at shutdown are cancelled
/// and their waiters woken with [`QueryStatus::Cancelled`] outcomes.
#[derive(Debug)]
pub struct MatchServer {
    shared: Arc<ServeShared>,
    workers: Vec<JoinHandle<()>>,
    default_timeout: Option<Duration>,
    default_aggregate: Option<AggregateMode>,
}

impl MatchServer {
    /// Spawns the worker pool over `data`.
    pub fn new(data: Arc<Hypergraph>, config: ServeConfig) -> Self {
        let (mut server, deques) = Self::unstarted(data, config);
        server.workers = deques
            .into_iter()
            .enumerate()
            .map(|(wid, deque)| {
                let shared = Arc::clone(&server.shared);
                std::thread::Builder::new()
                    .name(format!("hgmatch-serve-{wid}"))
                    .spawn(move || worker_loop(wid, deque, shared))
                    .expect("spawn serve worker")
            })
            .collect();
        server
    }

    /// The server and its worker deques before any thread exists (the
    /// parking test drives a deque by hand).
    fn unstarted(data: Arc<Hypergraph>, config: ServeConfig) -> (Self, Vec<Deque<ServeTask>>) {
        let threads = config.threads.max(1);
        let deques: Vec<Deque<ServeTask>> = (0..threads).map(|_| Deque::new_lifo()).collect();
        let stealers: Vec<Stealer<ServeTask>> = deques.iter().map(Deque::stealer).collect();

        // The task core gates work-assisting splits on the pool size (a
        // lone worker never splits), so the shared config must carry it —
        // ServeConfig::threads is authoritative, not match_config.threads.
        let mut match_config = config.match_config.clone();
        match_config.threads = threads;

        let shared = Arc::new(ServeShared {
            data: Mutex::new(CurrentData {
                graph: data,
                epoch: 0,
            }),
            config: match_config,
            fairness_quantum: config.fairness_quantum.max(1),
            queries: Mutex::new(Vec::new()),
            stealers,
            worker_busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            worker_tasks: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            idle_mutex: StdMutex::new(()),
            idle_cv: Condvar::new(),
            counters: Counters::default(),
            cache: PlanCache::new(config.plan_cache_capacity),
            caller_scratch: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            #[cfg(test)]
            panic_hook: PanicHook {
                query: AtomicU64::new(u64::MAX),
                after: AtomicU64::new(0),
            },
        });
        let server = Self {
            shared,
            workers: Vec::new(),
            default_timeout: config.default_timeout,
            default_aggregate: config.default_aggregate,
        };
        (server, deques)
    }

    /// Admits `query` (a [`QueryShape`], or a `&Hypergraph` flattened into
    /// one): plans it (or hits the plan cache), registers it
    /// with the pool and returns a handle for cancellation and waiting.
    /// Always pooled — a handle that can be cancelled from another thread
    /// needs the query to run somewhere other than here; see
    /// [`MatchServer::run`] for the caller-first path.
    ///
    /// # Errors
    /// Fails when the query is empty or exceeds the engine's 64-hyperedge
    /// limit (same conditions as [`crate::Matcher`]).
    pub fn submit(
        &self,
        query: impl Into<QueryShape>,
        options: QueryOptions,
    ) -> Result<QueryHandle> {
        let (active, root) = self.admit(query.into(), options)?;
        match root {
            // Nothing to do: resolve inline, never touching the pool.
            None => self.shared.finalize(&active),
            Some(root) => self.pooled(&active, root),
        }
        Ok(QueryHandle { query: active })
    }

    /// Runs `query` to completion and returns its outcome, **caller
    /// first**: admission is [`MatchServer::submit`]'s, but when the plan's
    /// estimate is at most `INLINE_MAX_COST` the calling thread executes
    /// the query itself — through the same per-task code as the pool, with
    /// no seed, no worker wake-up and no completion wait — and hands the
    /// pool only what outgrows `INLINE_TASK_BUDGET` tasks (or publishes a
    /// work-assisting split). Costlier queries take the pooled path at
    /// once. Results, limits, timeouts and statistics are the same either
    /// way; [`QueryOutcome::inline`] says which way it went.
    ///
    /// # Errors
    /// Same conditions as [`MatchServer::submit`].
    pub fn run(&self, query: impl Into<QueryShape>, options: QueryOptions) -> Result<QueryOutcome> {
        let (active, root) = self.admit(query.into(), options)?;
        match root {
            None => self.shared.finalize(&active),
            Some(root) if active.plan.cost() <= INLINE_MAX_COST => {
                self.shared.run_inline(&active, root)
            }
            Some(root) => self.pooled(&active, root),
        }
        Ok(active.wait_outcome())
    }

    /// Admission, shared by both entry points: pins the snapshot, fetches
    /// or compiles the plan and builds the query's state. Returns the root
    /// scan task, or `None` when there is nothing to scan.
    fn admit(
        &self,
        query: QueryShape,
        options: QueryOptions,
    ) -> Result<(Arc<ActiveQuery>, Option<Task>)> {
        let shared = &self.shared;
        // Pin the published snapshot and its epoch together: everything
        // below (planning, seeding, execution) sees this one view, however
        // many updates land concurrently.
        let (data, epoch) = {
            let current = shared.data.lock();
            (Arc::clone(&current.graph), current.epoch)
        };
        let Planned { plan, cached } = shared.cache.plan_for(query, &data, epoch)?;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = options
            .timeout
            .or(self.default_timeout)
            .map(|t| Instant::now() + t);
        let mode = options.effective_aggregate(self.default_aggregate);
        let active = Arc::new(ActiveQuery::new(
            id, data, epoch, plan, &options, mode, cached, deadline,
        ));
        shared.counters.admitted.fetch_add(1, Ordering::Relaxed);

        let scan_rows = if active.plan.is_infeasible() {
            0
        } else {
            active
                .data
                .partition(active.plan.steps()[0].partition.expect("feasible"))
                .len() as u32
        };
        if scan_rows == 0 {
            return Ok((active, None));
        }
        shared.counters.spawned.fetch_add(1, Ordering::Relaxed);
        active.pending.store(1, Ordering::Relaxed);
        let root = Task::Scan {
            start: 0,
            end: scan_rows,
        };
        Ok((active, Some(root)))
    }

    /// Seeds `root` into the pool: the query joins the registry and one
    /// worker is woken for it.
    fn pooled(&self, active: &Arc<ActiveQuery>, root: Task) {
        active.seed.lock().push(root);
        self.shared.queries.lock().push(Arc::clone(active));
        self.shared.wake_one();
    }

    /// Returns the cost model's total-cost estimate for `query` against the
    /// currently published snapshot *without admitting it* — the front
    /// door's admission-control signal for rejecting predicted-expensive
    /// queries under load. The estimate is the model's price of its own
    /// choice ([`Planner::plan_unpiloted`]): it skips the plan cache and
    /// the pilot (DESIGN.md §13.3), so shedding a query stays a
    /// microsecond-scale decision, and an admitted follow-up
    /// [`MatchServer::submit`] plans as usual. An infeasible shape (a
    /// signature absent from the data) estimates 0: it resolves inline
    /// with no engine work.
    ///
    /// # Errors
    /// Same conditions as [`MatchServer::submit`]: an empty query or one
    /// past the engine's 64-hyperedge limit.
    pub fn estimate_cost(&self, query: impl Into<QueryShape>) -> Result<f64> {
        let query = QueryGraph::from_shape(&query.into())?;
        let data = Arc::clone(&self.shared.data.lock().graph);
        let plan = Planner::plan_unpiloted(&query, &data)?;
        Ok(if plan.is_infeasible() {
            0.0
        } else {
            plan.cost()
        })
    }

    /// Publishes a new data snapshot: queries submitted from now on pin
    /// `data`, while queries already in flight finish on the epoch they
    /// pinned at submission — no query ever observes a half-applied
    /// update. The plan cache is emptied: a cached plan is valid for
    /// exactly the epoch it was planned on (DESIGN.md §13.4), and each
    /// shape re-plans on its next submission.
    ///
    /// `_touched_labels` and `_sids_stable` are ignored. They once chose
    /// which plans survived a publish; the parameters stay so that callers
    /// passing a [`hgmatch_hypergraph::SnapshotDelta`]'s fields keep
    /// compiling, and go with a change of those callers.
    ///
    /// Returns the new epoch. With a
    /// [`hgmatch_hypergraph::DynamicHypergraph`] writer:
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use hgmatch_core::serve::{MatchServer, ServeConfig};
    /// # use hgmatch_hypergraph::{DynamicHypergraph, Label};
    /// let mut writer = DynamicHypergraph::new();
    /// writer.add_vertices(2, Label::new(0));
    /// writer.insert_hyperedge(vec![0, 1]).unwrap();
    /// let server = MatchServer::new(writer.snapshot().graph, ServeConfig::default());
    ///
    /// writer.add_vertices(2, Label::new(1));
    /// writer.insert_hyperedge(vec![2, 3]).unwrap();
    /// let epoch = server.update_data(writer.snapshot().graph, &[], false);
    /// assert_eq!(epoch, 1);
    /// ```
    pub fn update_data(
        &self,
        data: Arc<Hypergraph>,
        _touched_labels: &[hgmatch_hypergraph::Label],
        _sids_stable: bool,
    ) -> u64 {
        let mut current = self.shared.data.lock();
        let epoch = current.epoch + 1;
        *current = CurrentData { graph: data, epoch };
        // Clear under the data lock so no submission can race a plan of
        // the new epoch past an unswept cache.
        self.shared.cache.clear();
        epoch
    }

    /// Snapshot of the aggregate serving counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        ServeStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            limit_reached: c.limit_reached.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            active: self.shared.queries.lock().len(),
            tasks_spawned: c.spawned.load(Ordering::Relaxed),
            tasks_executed: c.tasks.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            splits: c.splits.load(Ordering::Relaxed),
            assists: c.assists.load(Ordering::Relaxed),
            plan_cache_hits: self.shared.cache.hits(),
            plan_cache_misses: self.shared.cache.misses(),
            plan_cache_size: self.shared.cache.len(),
            plans_invalidated: self.shared.cache.invalidated(),
            queue_wait_total: Duration::from_nanos(c.queue_wait_ns.load(Ordering::Relaxed)),
            execution_total: Duration::from_nanos(c.execution_ns.load(Ordering::Relaxed)),
            data_epoch: self.shared.data.lock().epoch,
            results_found: c.results_found.load(Ordering::Relaxed),
            results_materialized: c.results_materialized.load(Ordering::Relaxed),
            queries_materialize: c.queries_materialize.load(Ordering::Relaxed),
            queries_count_only: c.queries_count_only.load(Ordering::Relaxed),
            queries_top_k: c.queries_top_k.load(Ordering::Relaxed),
            queries_sampled: c.queries_sampled.load(Ordering::Relaxed),
            ran_inline: c.ran_inline.load(Ordering::Relaxed),
            spilled: c.spilled.load(Ordering::Relaxed),
            tasks_panicked: c.tasks_panicked.load(Ordering::Relaxed),
            caller_busy: Duration::from_nanos(c.caller_busy_ns.load(Ordering::Relaxed)),
            caller_tasks: c.caller_tasks.load(Ordering::Relaxed),
        }
    }

    /// Per-worker busy time and task counts (index = worker id),
    /// published like [`ServeStats`]' per-task counters. The busy spread is
    /// the scheduling experiments' load-balance signal — see
    /// [`WorkerServeStats`].
    pub fn worker_stats(&self) -> Vec<WorkerServeStats> {
        self.shared
            .worker_busy_ns
            .iter()
            .zip(&self.shared.worker_tasks)
            .map(|(busy, tasks)| WorkerServeStats {
                busy: Duration::from_nanos(busy.load(Ordering::Relaxed)),
                tasks: tasks.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The currently published data snapshot (queries in flight may be
    /// pinned to older epochs).
    pub fn data(&self) -> Arc<Hypergraph> {
        Arc::clone(&self.shared.data.lock().graph)
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.workers.len().max(1)
    }

    /// Cancels in-flight queries, drains the pool and joins the workers.
    /// Dropping the server does the same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        for q in self.shared.queries.lock().iter() {
            q.stop(StopCause::Cancelled);
        }
        self.shared.idle_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MatchServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matcher;
    use hgmatch_datasets::testgen::{random_hypergraph, workload_queries};

    fn data() -> Arc<Hypergraph> {
        Arc::new(random_hypergraph(11, 40, 160, 3, 3))
    }

    /// The lost wake-up: a worker polls, finds nothing, and only then
    /// takes `idle_mutex` to wait — a seed published (and notified) in
    /// between used to sit until `PARK_TIMEOUT`. With no worker thread
    /// running, the order is forced: the publish below happens after an
    /// empty poll by construction, and its notify finds nobody waiting.
    /// Parking must come back with the seed instead of waiting it out.
    #[test]
    fn seed_published_after_an_empty_poll_is_claimed_without_parking() {
        let (server, deques) =
            MatchServer::unstarted(data(), ServeConfig::default().with_threads(1));
        let (local, mut cursor) = (&deques[0], 0);
        let query = &workload_queries()[0];
        let handle = server.submit(query, QueryOptions::count()).unwrap();

        let claimed = worker::park(&server.shared, local, &mut cursor)
            .expect("park re-checks the seed slots under the lock it waits on");
        assert_eq!(claimed.query.id, handle.id());
        assert!(matches!(claimed.task, Task::Scan { start: 0, .. }));
        assert!(
            handle.query.seed.lock().is_empty(),
            "the whole slot is adopted"
        );
    }

    /// Deferred retirement publication (DESIGN.md §8.1), driven by hand: a
    /// query's last task runs on a worker whose deque still holds another
    /// query's tasks. The held retirement is published by the next pop —
    /// the deque has run dry of the finished query — so the query is
    /// final before the worker runs, or pops, anything else.
    #[test]
    fn a_query_is_finalised_when_the_deque_runs_dry_of_it() {
        let data = data();
        let (server, mut deques) = MatchServer::unstarted(
            Arc::clone(&data),
            ServeConfig::default()
                .with_threads(1)
                .with_fairness_quantum(1),
        );
        let shared = &*server.shared;
        let mut worker = worker::PoolWorker::new(0, deques.pop().unwrap());
        let queries = workload_queries();
        let (other, single_task) = (&queries[6], &queries[1]);
        let oracle = Matcher::new(&data);
        let (other_count, single_count) = (
            oracle.count(other).unwrap(),
            oracle.count(single_task).unwrap(),
        );
        assert!(other_count > 0 && single_count > 0);

        // The other query's scan and one of its children: the rest of its
        // children stay on the deque.
        let other = server.submit(other, QueryOptions::count()).unwrap();
        for _ in 0..2 {
            let task = worker.find_task(shared).unwrap();
            assert_eq!(task.query.id, other.id());
            worker.run(shared, task);
        }
        assert!(!worker.local.is_empty());

        // A one-task query, claimed by the fairness probe past the quantum.
        let single = server.submit(single_task, QueryOptions::count()).unwrap();
        let task = worker.find_task(shared).unwrap();
        assert_eq!(task.query.id, single.id());
        worker.run(shared, task);
        assert!(!single.is_finished(), "its retirement is held");

        let next = worker.find_task(shared).unwrap();
        assert_eq!(next.query.id, other.id());
        assert!(single.is_finished(), "published by the pop that left it");
        assert_eq!(single.wait().count, single_count);

        worker.run(shared, next);
        while let Some(task) = worker.find_task(shared) {
            worker.run(shared, task);
        }
        assert_eq!(other.wait().count, other_count);
        let stats = server.stats();
        assert_eq!(stats.active, 0);
        assert_eq!(stats.tasks_spawned, stats.tasks_executed);
    }

    /// ROADMAP 8(a) where execution has two homes: a task panicking on the
    /// submitting thread (caller-first) or on a resident worker (pooled)
    /// fails its own query and nothing else.
    #[test]
    fn a_panicking_task_fails_its_query_and_nothing_else() {
        let data = data();
        let queries = workload_queries();
        let (cheap, heavy) = (&queries[1], &queries[6]);
        let oracle = Matcher::new(&data);
        let (cheap_count, heavy_count) =
            (oracle.count(cheap).unwrap(), oracle.count(heavy).unwrap());
        assert!(cheap_count > 0 && heavy_count > 0);
        let server = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(1));
        let next_id = || server.shared.next_id.load(Ordering::Relaxed);

        // Home 1: this thread. A concurrent pooled query is unaffected.
        let concurrent = server.submit(heavy, QueryOptions::count()).unwrap();
        server.shared.panic_hook.arm(next_id(), 0);
        let failed = server.run(cheap, QueryOptions::count()).unwrap();
        assert_eq!(failed.status, QueryStatus::Failed);
        assert!(failed.inline);
        assert_eq!(concurrent.wait().count, heavy_count);
        // This thread survived, with a usable scratch.
        let after = server.run(cheap, QueryOptions::count()).unwrap();
        assert_eq!(
            (after.status, after.count),
            (QueryStatus::Completed, cheap_count)
        );
        assert!(after.inline);

        // Home 2: the pool's only worker, one task into the query. If the
        // panic killed it, or stranded `pending`, the waits below hang.
        server.shared.panic_hook.arm(next_id(), 1);
        let failed = server.submit(heavy, QueryOptions::count()).unwrap().wait();
        assert_eq!(failed.status, QueryStatus::Failed);
        let after = server.submit(heavy, QueryOptions::count()).unwrap().wait();
        assert_eq!(
            (after.status, after.count),
            (QueryStatus::Completed, heavy_count)
        );

        let stats = server.stats();
        assert_eq!((stats.failed, stats.tasks_panicked), (2, 2));
        assert_eq!(stats.active, 0);
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.tasks_spawned, stats.tasks_executed);
    }
}
