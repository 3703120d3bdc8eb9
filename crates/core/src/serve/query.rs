//! Per-query serving state: result sink, stop causes, completion slot.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::Instant;

use parking_lot::Mutex;

use hgmatch_hypergraph::Hypergraph;

use crate::adaptive::AdaptiveState;
use crate::aggregate::{AggregateMode, AggregateSink};
use crate::memory::MemoryTracker;
use crate::metrics::MatchMetrics;
use crate::plan::Plan;
use crate::query::QueryShape;
use crate::sink::Sink;

use crate::engine::task::Task;

use super::{QueryOptions, QueryOutcome, QueryStatus};
use std::sync::Arc;

/// Why a query stopped producing before exhausting the search space.
/// First cause wins; later signals are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StopCause {
    /// `max_results` reached.
    Limit = 1,
    /// Wall-clock deadline passed.
    Timeout = 2,
    /// [`super::QueryHandle::cancel`] or server shutdown.
    Cancelled = 3,
    /// One of the query's tasks panicked; the panic was contained
    /// (`serve::worker::run_one`) and the rest of the query dropped.
    Failed = 4,
}

const RUNNING: u8 = 0;

/// One admitted query: plan, sink, control flags and accounting, shared
/// between the submitter's [`super::QueryHandle`] and every task of the
/// query in flight.
#[derive(Debug)]
pub(crate) struct ActiveQuery {
    pub(crate) id: u64,
    /// The data snapshot this query is pinned to for its whole life:
    /// writers may publish newer epochs concurrently
    /// ([`super::MatchServer::update_data`]), but every task of this query
    /// executes against this one consistent view.
    pub(crate) data: Arc<Hypergraph>,
    /// Epoch of the pinned snapshot (reported on the outcome).
    pub(crate) data_epoch: u64,
    pub(crate) plan: Arc<Plan>,
    /// Mid-query re-optimization state (DESIGN.md §15); `None` when
    /// the replan ratio is 0 or the plan is trivial/infeasible. Re-plans
    /// run against this query's pinned snapshot, never a newer epoch.
    pub(crate) adaptive: Option<AdaptiveState>,
    /// Plan-cache key of this query's shape, kept (only for adaptive
    /// queries) so finalisation can write a corrected plan back.
    pub(crate) cache_key: Option<QueryShape>,
    pub(crate) sink: AggregateSink,
    /// Tasks waiting for their first pool worker, as a LIFO stack (hot end
    /// last): the root scan of a pooled submission, or the unfinished
    /// stack a caller-first run handed over (DESIGN.md §8.5). The worker
    /// that claims the slot adopts the whole stack onto its deque;
    /// children spawned on a worker bypass the slot.
    pub(crate) seed: Mutex<Vec<Task>>,
    /// Set while every task of this query has run on the submitting
    /// thread: raised when a caller-first run starts, lowered when it
    /// spills to the pool. Such a query is in no registry.
    pub(crate) inline: AtomicBool,
    /// Tasks queued, executing, or executed with their retirement still
    /// held by the thread that ran them (DESIGN.md §8.1). The thread that
    /// decrements it to zero finalises the query.
    pub(crate) pending: AtomicU64,
    /// First stop cause ([`StopCause`] discriminant, 0 while running).
    stop_cause: AtomicU8,
    pub(crate) deadline: Option<Instant>,
    pub(crate) submitted: Instant,
    /// Nanoseconds between submission and the first worker picking up any
    /// of this query's tasks — the queue-wait share of the total latency
    /// (DESIGN.md §8). `u64::MAX` until the first pickup records it; a
    /// query finalised without ever reaching a worker keeps the sentinel
    /// and its whole latency is accounted as queue wait.
    pub(crate) queue_ns: AtomicU64,
    pub(crate) tracker: MemoryTracker,
    pub(crate) metrics: Mutex<MatchMetrics>,
    pub(crate) plan_cached: bool,
    /// Completion slot: the finalising worker stores the outcome and
    /// notifies; [`super::QueryHandle::wait`] takes it.
    outcome: StdMutex<Completion>,
    finished: AtomicBool,
    done_cv: Condvar,
}

impl ActiveQuery {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: u64,
        data: Arc<Hypergraph>,
        data_epoch: u64,
        plan: Arc<Plan>,
        options: &QueryOptions,
        mode: AggregateMode,
        plan_cached: bool,
        deadline: Option<Instant>,
        adaptive: Option<AdaptiveState>,
        cache_key: Option<QueryShape>,
    ) -> Self {
        Self {
            id,
            data,
            data_epoch,
            plan,
            adaptive,
            cache_key,
            sink: AggregateSink::new(mode, options.max_results),
            seed: Mutex::new(Vec::new()),
            inline: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            stop_cause: AtomicU8::new(RUNNING),
            deadline,
            submitted: Instant::now(),
            queue_ns: AtomicU64::new(u64::MAX),
            tracker: MemoryTracker::new(),
            metrics: Mutex::new(MatchMetrics::default()),
            plan_cached,
            outcome: StdMutex::new(Completion::default()),
            finished: AtomicBool::new(false),
            done_cv: Condvar::new(),
        }
    }

    /// Records the submission-to-first-pickup latency once: the first
    /// worker to execute any task of this query stamps it; later calls are
    /// no-ops. Cheap enough to call per task (one relaxed load on the hot
    /// path after the stamp lands).
    #[inline]
    pub(crate) fn mark_picked_up(&self) {
        if self.queue_ns.load(Ordering::Relaxed) == u64::MAX {
            let waited = self.submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let _ = self.queue_ns.compare_exchange(
                u64::MAX,
                waited,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Splits the total submit-to-finish latency into queue wait (before
    /// the first worker pickup) and execution (everything after). A query
    /// that never reached a worker — admission resolved it inline, or it
    /// was cancelled while still queued — is all queue wait.
    pub(crate) fn latency_split(
        &self,
        elapsed: std::time::Duration,
    ) -> (std::time::Duration, std::time::Duration) {
        let total = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let queued = self.queue_ns.load(Ordering::Relaxed).min(total);
        (
            std::time::Duration::from_nanos(queued),
            std::time::Duration::from_nanos(total - queued),
        )
    }

    /// Raises `cause` if no earlier cause was raised; the first wins.
    pub(crate) fn stop(&self, cause: StopCause) {
        let _ = self.stop_cause.compare_exchange(
            RUNNING,
            cause as u8,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// Whether a stop was requested (workers drop this query's tasks).
    #[inline]
    pub(crate) fn stopped(&self) -> bool {
        self.stop_cause.load(Ordering::Relaxed) != RUNNING
    }

    pub(crate) fn stop_cause(&self) -> Option<StopCause> {
        match self.stop_cause.load(Ordering::Acquire) {
            1 => Some(StopCause::Limit),
            2 => Some(StopCause::Timeout),
            3 => Some(StopCause::Cancelled),
            4 => Some(StopCause::Failed),
            _ => None,
        }
    }

    /// Resolves the final status from the stop cause and sink state.
    pub(crate) fn status(&self) -> QueryStatus {
        match self.stop_cause() {
            Some(StopCause::Timeout) => QueryStatus::TimedOut,
            Some(StopCause::Cancelled) => QueryStatus::Cancelled,
            Some(StopCause::Failed) => QueryStatus::Failed,
            Some(StopCause::Limit) => QueryStatus::LimitReached,
            None if self.sink.is_satisfied() => QueryStatus::LimitReached,
            None => QueryStatus::Completed,
        }
    }

    /// Stores the outcome and wakes waiters. Called exactly once, by
    /// whichever worker (or the submitter, for trivially-empty queries)
    /// retires the query's last pending task.
    pub(crate) fn complete(&self, outcome: QueryOutcome) {
        let mut slot = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        slot.outcome = Some(outcome);
        self.finished.store(true, Ordering::Release);
        // `notify_all` is a system call whether or not anyone waits; a
        // caller-first run completes before its own thread comes to wait,
        // and `waiting` is read under the lock the waiter set it under.
        if slot.waiting {
            self.done_cv.notify_all();
        }
    }

    /// Whether the outcome is ready (non-blocking).
    pub(crate) fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    /// Blocks until the outcome is ready and takes it.
    pub(crate) fn wait_outcome(&self) -> QueryOutcome {
        let mut slot = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        while slot.outcome.is_none() {
            slot.waiting = true;
            slot = self.done_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        slot.outcome.take().expect("outcome present")
    }
}

/// The completion slot's contents (one mutex guards both fields).
#[derive(Debug, Default)]
struct Completion {
    outcome: Option<QueryOutcome>,
    /// Whether a thread is (or was) blocked in `wait_outcome`.
    waiting: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregateSummary, ScoreFn};
    use crate::embedding::Embedding;

    #[test]
    fn sink_counts_and_limits() {
        let s = AggregateSink::new(AggregateMode::CountOnly, Some(5));
        assert!(!s.is_satisfied());
        s.add_count(3);
        assert!(!s.is_satisfied());
        s.add_count(4);
        assert!(s.is_satisfied(), "count limit flips satisfaction");
        let (count, emb, summary) = s.take_output();
        assert_eq!(count, 5, "overshoot is clamped to the limit");
        assert!(emb.is_none());
        assert_eq!(summary, AggregateSummary::Count);
    }

    #[test]
    fn sink_collects_up_to_limit() {
        let s = AggregateSink::new(AggregateMode::Materialize, Some(2));
        s.consume(&[3]);
        assert!(!s.is_satisfied());
        s.consume(&[1]);
        assert!(s.is_satisfied());
        s.consume(&[2]); // ignored: already full
        s.add_count(3);
        let (count, emb, summary) = s.take_output();
        assert_eq!(count, 2);
        let emb = emb.unwrap();
        assert_eq!(emb.len(), 2);
        assert!(emb[0] <= emb[1], "results are sorted");
        assert_eq!(summary, AggregateSummary::Materialized);
    }

    #[test]
    fn zero_limit_is_immediately_satisfied() {
        assert!(AggregateSink::new(AggregateMode::Materialize, Some(0)).is_satisfied());
        assert!(AggregateSink::new(AggregateMode::CountOnly, Some(0)).is_satisfied());
    }

    #[test]
    fn unlimited_sink_never_satisfies() {
        let s = AggregateSink::new(AggregateMode::CountOnly, None);
        s.add_count(1_000_000);
        assert!(!s.is_satisfied());
        assert_eq!(s.take_output().0, 1_000_000);
    }

    #[test]
    fn topk_sink_keeps_best_and_counts_exactly() {
        let mode = AggregateMode::TopK {
            k: 2,
            score: ScoreFn::EdgeIdSum,
        };
        let s = AggregateSink::new(mode, None);
        assert!(s.needs_embeddings());
        for e in [[1u32, 1], [9, 9], [4, 4], [7, 7]] {
            s.consume(&e);
            s.add_count(1);
        }
        let (count, emb, summary) = s.take_output();
        assert_eq!(count, 4, "count stays exact, not clamped to k");
        assert_eq!(
            emb.unwrap(),
            vec![Embedding::new(vec![9, 9]), Embedding::new(vec![7, 7])]
        );
        match summary {
            AggregateSummary::TopK { k, scores, .. } => {
                assert_eq!(k, 2);
                assert_eq!(scores, vec![18, 14]);
            }
            other => panic!("unexpected summary {other:?}"),
        }
    }

    #[test]
    fn sampled_sink_reports_fraction_and_ci() {
        let mode = AggregateMode::Sampled { budget: 8, seed: 1 };
        let s = AggregateSink::new(mode, None);
        for i in 0..100u32 {
            s.consume(&[i]);
            s.add_count(1);
        }
        let (count, emb, summary) = s.take_output();
        assert_eq!(count, 100);
        assert_eq!(emb.unwrap().len(), 8);
        match summary {
            AggregateSummary::Sampled {
                sampled,
                fraction,
                ci95,
                ..
            } => {
                assert_eq!(sampled, 8);
                assert!((fraction - 0.08).abs() < 1e-9);
                assert!(ci95 > 0.0);
            }
            other => panic!("unexpected summary {other:?}"),
        }
    }

    #[test]
    fn first_stop_cause_wins() {
        let (data, plan) = dummy_plan();
        let q = ActiveQuery::new(
            7,
            data,
            0,
            plan,
            &QueryOptions::default(),
            AggregateMode::CountOnly,
            false,
            None,
            None,
            None,
        );
        assert_eq!(q.stop_cause(), None);
        assert!(!q.stopped());
        q.stop(StopCause::Timeout);
        q.stop(StopCause::Cancelled);
        assert_eq!(q.stop_cause(), Some(StopCause::Timeout));
        assert_eq!(q.status(), QueryStatus::TimedOut);
        assert!(q.stopped());
    }

    fn dummy_plan() -> (Arc<Hypergraph>, Arc<Plan>) {
        use crate::plan::Planner;
        use crate::query::QueryGraph;
        use hgmatch_hypergraph::{HypergraphBuilder, Label};
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(0));
        b.add_edge(vec![0, 1]).unwrap();
        let h = b.build().unwrap();
        let q = QueryGraph::new(&h).unwrap();
        let plan = Arc::new(Planner::plan(&q, &h).unwrap());
        (Arc::new(h), plan)
    }
}
