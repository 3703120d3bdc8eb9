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
    execute_task, steal_from_victims, ExecScratch, QueryEnv, Task, CHECK_INTERVAL,
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

pub(crate) fn worker_loop(wid: usize, local: Deque<ServeTask>, shared: Arc<ServeShared>) {
    let mut scratch = ExecScratch::new();
    let mut rng = 0x9E37_79B9 ^ (wid as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D);
    let mut cursor = wid;
    let mut consecutive = 0u32;
    let mut last_query = u64::MAX;
    let mut idle = 0u32;

    loop {
        // Quantum bookkeeping: after `fairness_quantum` consecutive tasks
        // of one query, probe other queries' seeds once and start a fresh
        // quantum — so an empty probe costs one registry scan per quantum,
        // not one per task.
        let probe_seeds = consecutive >= shared.fairness_quantum;
        if probe_seeds {
            consecutive = 0;
        }
        let next = find_task(
            wid,
            &local,
            &shared,
            &mut rng,
            &mut cursor,
            probe_seeds,
            last_query,
        );
        let next = match next {
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
                let Some(seed) = park(&shared, &local, &mut cursor) else {
                    continue;
                };
                seed
            }
        };
        let ServeTask { query, task } = next;
        idle = 0;
        if query.id == last_query {
            consecutive += 1;
        } else {
            consecutive = 0;
            last_query = query.id;
        }
        run_one(Some(wid), &query, task, &shared, &mut scratch, |t| {
            local.push(ServeTask {
                query: Arc::clone(&query),
                task: t,
            })
        });
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
/// (`wid` is its id, `push` its deque) or the submitting thread of a
/// caller-first run (`None`, its private stack). Children go to `push`;
/// whoever retires the query's last pending task finalises it.
///
/// A panic inside the task is contained here (ROADMAP 8(a)): the query
/// stops as [`StopCause::Failed`], the scratch — possibly torn mid-update —
/// is replaced, and the task still counts as executed and retired, so the
/// thread survives and the query finalises instead of stranding `pending`.
pub(crate) fn run_one(
    wid: Option<usize>,
    query: &Arc<ActiveQuery>,
    task: Task,
    shared: &ServeShared,
    scratch: &mut ExecScratch,
    mut push: impl FnMut(Task),
) {
    // First pickup of any of this query's tasks ends its queue-wait phase
    // (the latency split reported on the outcome and in ServeStats).
    query.mark_picked_up();
    let begin = Instant::now();
    let was_assist = matches!(task, Task::Assist { .. });
    let mut task_metrics = MatchMetrics::default();
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
        let mut probes = 0u64;
        execute_task(
            &env,
            scratch,
            &mut task_metrics,
            task,
            &mut || should_stop(query, &mut probes),
            &mut |t| {
                query.pending.fetch_add(1, Ordering::Relaxed);
                shared.counters.spawned.fetch_add(1, Ordering::Relaxed);
                push(t);
            },
        );
    }));
    if ran.is_err() {
        query.stop(StopCause::Failed);
        *scratch = ExecScratch::new();
        shared
            .counters
            .tasks_panicked
            .fetch_add(1, Ordering::Relaxed);
    }
    if !task_metrics.is_empty() {
        query.metrics.lock().merge(&task_metrics);
        if task_metrics.split_expansions > 0 {
            shared
                .counters
                .splits
                .fetch_add(task_metrics.split_expansions, Ordering::Relaxed);
        }
        if was_assist && task_metrics.assist_chunks > 0 {
            shared.counters.assists.fetch_add(1, Ordering::Relaxed);
        }
    }
    shared.counters.tasks.fetch_add(1, Ordering::Relaxed);
    let busy_ns = begin.elapsed().as_nanos() as u64;
    let (busy, tasks) = match wid {
        Some(wid) => (&shared.worker_busy_ns[wid], &shared.worker_tasks[wid]),
        None => (
            &shared.counters.caller_busy_ns,
            &shared.counters.caller_tasks,
        ),
    };
    busy.fetch_add(busy_ns, Ordering::Relaxed);
    tasks.fetch_add(1, Ordering::Relaxed);
    if query.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.finalize(query);
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

#[allow(clippy::too_many_arguments)]
fn find_task(
    wid: usize,
    local: &Deque<ServeTask>,
    shared: &ServeShared,
    rng: &mut u64,
    cursor: &mut usize,
    probe_seeds: bool,
    last_query: u64,
) -> Option<ServeTask> {
    // Fairness: after a full quantum on one query, waiting seeds of *other*
    // queries take priority over the local deque (the caller sets
    // `probe_seeds` once per quantum).
    if probe_seeds {
        if let Some(t) = take_seed(shared, local, cursor, last_query) {
            return Some(t);
        }
    }
    if let Some(t) = local.pop() {
        return Some(t);
    }
    if let Some(t) = take_seed(shared, local, cursor, u64::MAX) {
        return Some(t);
    }
    // Random-victim batch stealing from the cold (oldest-task) end. With
    // stealing disabled each query stays on the worker that claimed its
    // seed: parallelism across queries, not within one.
    if !shared.config.work_stealing {
        return None;
    }
    let stolen = steal_from_victims(&shared.stealers, local, wid, rng);
    if stolen.is_some() {
        shared.counters.steals.fetch_add(1, Ordering::Relaxed);
    }
    stolen
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
