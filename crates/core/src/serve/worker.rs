//! The resident worker pool: one set of OS threads multiplexing every
//! admitted query.
//!
//! Each worker owns a LIFO deque of [`ServeTask`]s — tasks tagged with the
//! query they belong to — so tasks of many queries interleave freely. Work
//! discovery is a three-level cascade:
//!
//! 1. **local deque** (hot end) — depth-first on whatever the worker
//!    touched last, preserving the engine's memory bound per query;
//! 2. **seed slots** — admitted queries whose root scan task (or the
//!    stack a caller-first run spilled, DESIGN.md §8.5) nobody has picked
//!    up yet, visited round-robin so admission order is fair; the claimer
//!    adopts the whole stack onto its deque;
//! 3. **stealing** — batches from a random victim's cold end, which holds
//!    the *oldest* (coarsest) tasks, exactly as in the one-shot engine.
//!    Deques also hold *assist tickets* (DESIGN.md §12): claims on the
//!    in-flight candidate range of a split last-step expansion.
//!
//! What a worker's tasks produce for their query — metrics, sink counts,
//! task and busy counters, retirements of `pending` — stays in its
//! [`Held`] state until a boundary publishes it (DESIGN.md §8.1).
//!
//! Fairness against monopolisation: after [`ServeConfig::fairness_quantum`]
//! consecutive tasks of the same query, a worker offers waiting seed slots
//! priority over its own deque. A freshly admitted small query is therefore
//! picked up within a bounded number of task executions even while a huge
//! query keeps every deque non-empty — and because deques are LIFO, the
//! small query's tasks then run ahead of the big query's backlog on that
//! worker while thieves keep draining the backlog's cold end.
//!
//! [`ServeConfig::fairness_quantum`]: super::ServeConfig::fairness_quantum

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::deque::Worker as Deque;

use crate::adaptive::resolve_task;
use crate::engine::task::{
    execute_task, steal_from_victims, ExecScratch, QueryEnv, Scheduler, Tally, Task, CHECK_INTERVAL,
};
use crate::metrics::MatchMetrics;
use crate::sink::Sink;

use super::query::{ActiveQuery, StopCause};
use super::ServeShared;

/// A task tagged with the query it belongs to.
#[derive(Debug)]
pub(crate) struct ServeTask {
    pub(crate) query: Arc<ActiveQuery>,
    pub(crate) task: Task,
}

/// Idle polls (with yields) before a worker parks on the condvar.
const IDLE_SPINS: u32 = 16;

/// How long a parked worker sleeps before re-polling for work. Published
/// seeds wake a worker through the condvar ([`ServeShared::wake_one`]), so
/// this only bounds wake-up latency for work that appears via
/// stealing-visible spawns.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// What one thread's tasks of one query produced and nobody else has seen
/// yet: the query's metrics and sink count, the pool's task counters, and
/// the tasks' retirements of `pending` (DESIGN.md §8.1). Only decrements
/// are held — a task's children are counted pending before they exist —
/// so the published `pending` never falls below the true count, and the
/// query finalises when its last holder publishes.
#[derive(Debug, Default)]
pub(crate) struct Held {
    /// Pool worker id; `None` on a submitting thread.
    wid: Option<usize>,
    query: Option<Arc<ActiveQuery>>,
    tally: Tally,
    /// Tasks executed; each retires one unit of the query's `pending`.
    tasks: u64,
    /// Children and assist tickets those tasks announced.
    spawned: u64,
    /// Assist tickets among them that claimed at least one chunk.
    assists: u64,
    busy_ns: u64,
}

impl Held {
    fn holds(&self, query: &ActiveQuery) -> bool {
        self.query
            .as_deref()
            .is_some_and(|q| std::ptr::eq(q, query))
    }

    /// Publishes everything held and lets go of the query. The sink count
    /// and metrics land before the retirements, so whoever retires the
    /// query's last task finalises it with everything in place.
    pub(crate) fn publish(&mut self, shared: &ServeShared) {
        let Some(query) = self.query.take() else {
            return;
        };
        self.tally.flush_counts(&query.sink);
        let metrics = &mut self.tally.metrics;
        let c = &shared.counters;
        if !metrics.is_empty() {
            query.metrics.lock().merge(metrics);
            if metrics.split_expansions > 0 {
                c.splits
                    .fetch_add(metrics.split_expansions, Ordering::Relaxed);
            }
            *metrics = MatchMetrics::default();
        }
        if self.spawned > 0 {
            c.spawned
                .fetch_add(std::mem::take(&mut self.spawned), Ordering::Relaxed);
        }
        if self.assists > 0 {
            c.assists
                .fetch_add(std::mem::take(&mut self.assists), Ordering::Relaxed);
        }
        let tasks = std::mem::take(&mut self.tasks);
        let (busy, executed) = match self.wid {
            Some(wid) => (&shared.worker_busy_ns[wid], &shared.worker_tasks[wid]),
            None => (&c.caller_busy_ns, &c.caller_tasks),
        };
        busy.fetch_add(std::mem::take(&mut self.busy_ns), Ordering::Relaxed);
        executed.fetch_add(tasks, Ordering::Relaxed);
        c.tasks.fetch_add(tasks, Ordering::Relaxed);
        debug_assert!(tasks > 0, "a held query has run a task");
        if query.pending.fetch_sub(tasks, Ordering::AcqRel) == tasks {
            shared.finalize(&query);
        }
    }
}

/// A resident pool worker: its deque, scratch and held state, and where
/// it is in the fairness and seed rotations.
#[derive(Debug)]
pub(crate) struct PoolWorker {
    wid: usize,
    pub(crate) local: Deque<ServeTask>,
    scratch: ExecScratch,
    held: Held,
    rng: u64,
    cursor: usize,
    consecutive: u32,
    last_query: u64,
}

impl PoolWorker {
    pub(crate) fn new(wid: usize, local: Deque<ServeTask>) -> Self {
        Self {
            wid,
            local,
            scratch: ExecScratch::new(),
            held: Held {
                wid: Some(wid),
                ..Held::default()
            },
            rng: 0x9E37_79B9 ^ (wid as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D),
            cursor: wid,
            consecutive: 0,
            last_query: u64::MAX,
        }
    }

    /// The work-discovery cascade of the module docs. A worker whose deque
    /// runs dry of the query it holds publishes that query's state on the
    /// spot — the query may just have ended — and one that finds nothing
    /// comes back holding nothing.
    pub(crate) fn find_task(&mut self, shared: &ServeShared) -> Option<ServeTask> {
        // Fairness: after a full quantum on one query, waiting seeds of
        // *other* queries take priority over the local deque — probed once
        // per quantum, so an empty probe costs one registry scan per
        // quantum, not one per task.
        if self.consecutive >= shared.fairness_quantum {
            self.consecutive = 0;
            if let Some(t) = take_seed(shared, &self.local, &mut self.cursor, self.last_query) {
                return Some(t);
            }
        }
        if let Some(t) = self.local.pop() {
            // The deque is LIFO: a task of another query on top means none
            // of the held query's children are left above it.
            if !self.held.holds(&t.query) {
                self.held.publish(shared);
            }
            return Some(t);
        }
        if let Some(t) = take_seed(shared, &self.local, &mut self.cursor, u64::MAX) {
            return Some(t);
        }
        // Random-victim batch stealing from the cold (oldest-task) end.
        // With stealing disabled each query stays on the worker that
        // claimed its seed: parallelism across queries, not within one.
        let stolen = if shared.config.work_stealing {
            steal_from_victims(&shared.stealers, &self.local, self.wid, &mut self.rng)
        } else {
            None
        };
        match stolen {
            Some(_) => {
                shared.counters.steals.fetch_add(1, Ordering::Relaxed);
            }
            // Nothing to run: a worker idles, parks and exits holding
            // nothing.
            None => self.held.publish(shared),
        }
        stolen
    }

    /// Runs a task [`PoolWorker::find_task`] returned; its children go on
    /// this worker's deque.
    pub(crate) fn run(&mut self, shared: &ServeShared, next: ServeTask) {
        let ServeTask { query, task } = next;
        if query.id == self.last_query {
            self.consecutive += 1;
        } else {
            self.consecutive = 0;
            self.last_query = query.id;
        }
        let local = &self.local;
        run_one(
            &mut self.held,
            &query,
            task,
            shared,
            &mut self.scratch,
            |t| {
                local.push(ServeTask {
                    query: Arc::clone(&query),
                    task: t,
                })
            },
        );
    }
}

pub(crate) fn worker_loop(wid: usize, local: Deque<ServeTask>, shared: Arc<ServeShared>) {
    let mut worker = PoolWorker::new(wid, local);
    let mut idle = 0u32;
    loop {
        let next = match worker.find_task(&shared) {
            Some(t) => t,
            None => {
                if shared.shutdown.load(Ordering::Acquire) && shared.queries.lock().is_empty() {
                    break;
                }
                idle += 1;
                if idle < IDLE_SPINS {
                    std::thread::yield_now();
                    continue;
                }
                let Some(seed) = park(&shared, &worker.local, &mut worker.cursor) else {
                    continue;
                };
                seed
            }
        };
        idle = 0;
        worker.run(&shared, next);
    }
}

/// Parks an idle worker until a seed is published or [`PARK_TIMEOUT`]
/// passes. The seed slots are checked again *under* `idle_mutex`, the lock
/// [`ServeShared::wake_one`] notifies under: a seed published after the
/// caller's empty `find_task` either is found here or finds this worker
/// already waiting — it can no longer sit out the timeout.
pub(crate) fn park(
    shared: &ServeShared,
    local: &Deque<ServeTask>,
    cursor: &mut usize,
) -> Option<ServeTask> {
    let guard = shared.idle_mutex.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(t) = take_seed(shared, local, cursor, u64::MAX) {
        return Some(t);
    }
    let _ = shared
        .idle_cv
        .wait_timeout(guard, PARK_TIMEOUT)
        .unwrap_or_else(|e| e.into_inner());
    None
}

/// Executes one task of `query` on the current thread — a pool worker
/// (`held` is its held state, `push` its deque) or the submitting thread
/// of a caller-first run (its own held state and private stack). Children
/// go to `push`, counted pending on the query once per task; everything
/// else the task produced is added to `held`. `held` is published first
/// if it holds another query, and after the task if the query has
/// stopped: its backlog then drains as accounting, and the last
/// retirement must not wait on a boundary.
///
/// A panic inside the task is contained here (ROADMAP 8(a)): the query
/// stops as [`StopCause::Failed`], the scratch — possibly torn mid-update —
/// is replaced, and the task still counts as executed and retired, so the
/// thread survives and the query finalises instead of stranding `pending`.
pub(crate) fn run_one(
    held: &mut Held,
    query: &Arc<ActiveQuery>,
    task: Task,
    shared: &ServeShared,
    scratch: &mut ExecScratch,
    push: impl FnMut(Task),
) {
    if !held.holds(query) {
        held.publish(shared);
        held.query = Some(Arc::clone(query));
    }
    // First pickup of any of this query's tasks ends its queue-wait phase
    // (the latency split reported on the outcome and in ServeStats).
    query.mark_picked_up();
    let begin = Instant::now();
    let was_assist = matches!(task, Task::Assist { .. });
    let assist_chunks_before = held.tally.metrics.assist_chunks;
    let mut sched = QueryScheduler {
        query,
        probes: 0,
        spawned: 0,
        push,
    };
    let tally = &mut held.tally;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        shared.panic_hook.fire(query.id);
        let (resolved, ver) = resolve_task(query.adaptive.as_ref(), &task);
        let env = QueryEnv {
            plan: resolved.as_deref().unwrap_or(&query.plan),
            // Each task runs against the snapshot its query pinned at
            // submission, not whatever the server currently publishes.
            data: &query.data,
            sink: &query.sink,
            config: &shared.config,
            tracker: &query.tracker,
            ver,
            adaptive: query.adaptive.as_ref(),
        };
        execute_task(&env, scratch, tally, task, &mut sched);
    }));
    if ran.is_err() {
        query.stop(StopCause::Failed);
        *scratch = ExecScratch::new();
        shared
            .counters
            .tasks_panicked
            .fetch_add(1, Ordering::Relaxed);
    }
    if was_assist && held.tally.metrics.assist_chunks > assist_chunks_before {
        held.assists += 1;
    }
    held.spawned += sched.spawned;
    held.tasks += 1;
    held.busy_ns += begin.elapsed().as_nanos() as u64;
    if query.stopped() {
        held.publish(shared);
    }
}

/// The serving pool's side of a task.
struct QueryScheduler<'q, P> {
    query: &'q ActiveQuery,
    probes: u64,
    spawned: u64,
    push: P,
}

impl<P: FnMut(Task)> Scheduler for QueryScheduler<'_, P> {
    fn stop(&mut self) -> bool {
        should_stop(self.query, &mut self.probes)
    }

    fn announce(&mut self, k: usize) {
        self.query.pending.fetch_add(k as u64, Ordering::Relaxed);
        self.spawned += k as u64;
    }

    fn push(&mut self, task: Task) {
        (self.push)(task);
    }
}

/// Per-query cooperative stop check: an already-raised stop and limit
/// satisfaction are honoured on *every* probe (two cheap atomic loads —
/// with counts flushing mid-task, a `max_results` limit must land within
/// one probe of saturation, not one [`CHECK_INTERVAL`] window of
/// ABORT_PROBE-sized strides); only the `Instant::now()` deadline check
/// stays on the interval cadence.
#[inline]
fn should_stop(query: &ActiveQuery, probes: &mut u64) -> bool {
    *probes += 1;
    if query.stopped() {
        return true;
    }
    if query.sink.is_satisfied() {
        query.stop(StopCause::Limit);
        return true;
    }
    if (probes.is_multiple_of(CHECK_INTERVAL) || *probes == 1)
        && query.deadline.is_some_and(|d| Instant::now() >= d)
    {
        query.stop(StopCause::Timeout);
        return true;
    }
    false
}

/// Claims the seed stack of some admitted query nobody has picked up yet,
/// round-robin from `cursor`, skipping `exclude` (the quantum-exceeded
/// query). The whole stack moves onto `local` in order — its top is
/// returned to run now, its bottom lands at the deque's cold end, where
/// peers steal — so a spilled caller-first run resumes exactly as if this
/// worker had executed its first tasks itself.
fn take_seed(
    shared: &ServeShared,
    local: &Deque<ServeTask>,
    cursor: &mut usize,
    exclude: u64,
) -> Option<ServeTask> {
    let (query, mut stack) = {
        let queries = shared.queries.lock();
        let n = queries.len();
        (0..n).find_map(|k| {
            let idx = (*cursor + k) % n;
            let q = &queries[idx];
            if q.id == exclude {
                return None;
            }
            let mut seed = q.seed.lock();
            if seed.is_empty() {
                return None;
            }
            *cursor = idx + 1;
            Some((Arc::clone(q), std::mem::take(&mut *seed)))
        })?
    };
    let top = stack.pop()?;
    for task in stack {
        local.push(ServeTask {
            query: Arc::clone(&query),
            task,
        });
    }
    Some(ServeTask { query, task: top })
}
