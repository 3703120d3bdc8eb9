//! Adaptive mid-query re-optimization (DESIGN.md §15).
//!
//! The cost-based planner of [`crate::cost`] estimates once and the engine
//! executes the resulting order to completion — a single bad estimate
//! (typically a hub fan-out hiding behind a label-level average) locks the
//! whole run into a frontier that is orders of magnitude wider than
//! predicted. This module closes the loop at runtime:
//!
//! * **Feedback.** Workers attribute produced candidates and validated
//!   partials to the plan position that generated them (shared atomic
//!   accumulators, one `fetch_add` per completed expansion — not per
//!   candidate).
//! * **Trigger.** When the observed candidate count at a position crosses
//!   `replan_ratio ×` the plan's own estimate
//!   ([`crate::Plan::est_candidates`]), the observing worker re-runs the
//!   order search over the *unmatched suffix*: the matched prefix is
//!   pinned (those partials already exist in flight), the cost model is
//!   rebuilt from current statistics with each prefix edge scaled to its
//!   observed yield, and [`CostModel::best_order_with_prefix`] enumerates
//!   only the remaining edges.
//! * **Switch.** An adopted suffix becomes a new *plan version*. Nothing
//!   in flight is torn down: the order-invariance property (proved by
//!   `tests/prop_orders.rs`) holds per subtree, so a task whose matched
//!   prefix agrees with the new order simply continues under the new plan,
//!   while a task born under an order that already diverged past its depth
//!   finishes its subtree under its birth version. Each version delivers
//!   through its own `to_query_order`, so the embedding multiset is
//!   invariant across the switch.
//!
//! Work assisting (DESIGN.md §12) needs no handshake with re-planning: a
//! split shares a candidate list of the plan's *last* position, and its
//! assist tickets resolve like expansions at that depth. A version that
//! agrees on every matched position has the same order, hence the same
//! last step; any other version leaves the ticket on its birth version.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hgmatch_hypergraph::Hypergraph;
use parking_lot::Mutex;

use crate::cost::CostModel;
use crate::engine::task::Task;
use crate::metrics::MAX_PLAN_STEPS;
use crate::plan::{Plan, Planner};
use crate::query::QueryGraph;

/// The adopted plan versions of one adaptive run.
#[derive(Debug)]
struct Versions {
    /// `plans[0]` is the base plan; later entries are adopted re-plans.
    plans: Vec<Arc<Plan>>,
    /// `agree[v]` = length of the common order prefix between version `v`
    /// and the latest version — the upgrade rule's input.
    agree: Vec<u32>,
}

/// Shared adaptive re-optimization state for one query execution.
///
/// Shares the query graph (re-planning rebuilds a [`CostModel`], which
/// borrows the query — the serving layer hands in the plan cache's copy,
/// so arming a cached shape builds nothing) and owns the version table;
/// workers interact through two lock-free paths — [`observe`] and
/// [`resolve`] — and fall into the version mutex only after a re-plan has
/// actually been adopted.
///
/// [`observe`]: AdaptiveState::observe
/// [`resolve`]: AdaptiveState::resolve
#[derive(Debug)]
pub(crate) struct AdaptiveState {
    query: Arc<QueryGraph>,
    base: Arc<Plan>,
    ratio: f64,
    versions: Mutex<Versions>,
    /// Mirrors `versions.plans.len()`; `1` is the no-replan fast path that
    /// skips the mutex entirely.
    num_versions: AtomicUsize,
    /// Latest plan's per-position estimates as `f64` bit patterns,
    /// refreshed at adoption so the trigger always compares against the
    /// plan currently being extended.
    ests: Vec<AtomicU64>,
    /// Observed candidates per position, accumulated across all workers
    /// and plan versions.
    obs_candidates: Vec<AtomicU64>,
    /// Observed validated partials per position.
    obs_partials: Vec<AtomicU64>,
    /// Bitmask of positions that already went through a re-plan attempt —
    /// each position re-plans at most once per query.
    triggered: AtomicU64,
    /// Single-flight guard: one worker re-plans at a time.
    replanning: AtomicBool,
}

impl AdaptiveState {
    /// `ratio` must be > 0 (callers gate on `MatchConfig::replan_ratio`).
    pub(crate) fn new(query: impl Into<Arc<QueryGraph>>, base: Arc<Plan>, ratio: f64) -> Self {
        let len = base.len().min(MAX_PLAN_STEPS);
        let ests = base.est_candidates()[..len]
            .iter()
            .map(|&e| AtomicU64::new(e.to_bits()))
            .collect();
        Self {
            query: query.into(),
            versions: Mutex::new(Versions {
                plans: vec![Arc::clone(&base)],
                agree: vec![len as u32],
            }),
            base,
            ratio,
            num_versions: AtomicUsize::new(1),
            ests,
            obs_candidates: (0..len).map(|_| AtomicU64::new(0)).collect(),
            obs_partials: (0..len).map(|_| AtomicU64::new(0)).collect(),
            triggered: AtomicU64::new(0),
            replanning: AtomicBool::new(false),
        }
    }

    /// Records observed counts at plan position `pos`. Returns `true` when
    /// the trigger condition currently holds there — the caller should
    /// attempt [`AdaptiveState::maybe_replan`] at its next step boundary.
    pub(crate) fn observe(&self, pos: usize, candidates: u64, partials: u64) -> bool {
        if pos >= self.obs_candidates.len() {
            return false;
        }
        let obs = self.obs_candidates[pos].fetch_add(candidates, Ordering::Relaxed) + candidates;
        if partials > 0 {
            self.obs_partials[pos].fetch_add(partials, Ordering::Relaxed);
        }
        // A re-plan needs at least one unmatched suffix edge past `pos`.
        if pos + 1 >= self.obs_candidates.len() {
            return false;
        }
        if self.triggered.load(Ordering::Relaxed) & (1 << pos) != 0 {
            return false;
        }
        let est = f64::from_bits(self.ests[pos].load(Ordering::Relaxed));
        obs as f64 >= self.ratio * est.max(1.0)
    }

    /// Resolves the plan a task born under version `ver` with `depth`
    /// matched positions should execute: the latest version when its order
    /// agrees with the task's birth order on every matched position
    /// (upgrading adopts the corrected suffix mid-subtree), the birth
    /// version otherwise (the subtree finishes under the order it was
    /// generated for — order invariance holds per subtree either way).
    pub(crate) fn resolve(&self, ver: u32, depth: usize) -> (Arc<Plan>, u32) {
        if self.num_versions.load(Ordering::Acquire) == 1 {
            return (Arc::clone(&self.base), 0);
        }
        let v = self.versions.lock();
        let latest = v.plans.len() as u32 - 1;
        if ver == latest || v.agree[ver as usize] as usize >= depth {
            (Arc::clone(&v.plans[latest as usize]), latest)
        } else {
            (Arc::clone(&v.plans[ver as usize]), ver)
        }
    }

    /// The latest adopted plan and its version id (scan tasks always run
    /// the latest version: every re-plan pins position 0).
    pub(crate) fn latest(&self) -> (Arc<Plan>, u32) {
        if self.num_versions.load(Ordering::Acquire) == 1 {
            return (Arc::clone(&self.base), 0);
        }
        let v = self.versions.lock();
        let latest = v.plans.len() as u32 - 1;
        (Arc::clone(&v.plans[latest as usize]), latest)
    }

    /// The latest adopted plan when it differs from the base plan — what
    /// the serving layer writes back to the plan cache so repeated
    /// submissions of the same shape start from the corrected order.
    pub(crate) fn corrected_plan(&self) -> Option<Arc<Plan>> {
        if self.num_versions.load(Ordering::Acquire) == 1 {
            return None;
        }
        let v = self.versions.lock();
        let last = v.plans.last().expect("at least the base version");
        if last.order() == self.base.order() {
            None
        } else {
            Some(Arc::clone(last))
        }
    }

    /// Attempts a suffix re-plan at the completed position `pos` against
    /// `data` (the query's pinned snapshot). Returns `true` when a new
    /// suffix order was adopted; `false` when suppressed (another worker
    /// mid-replan, the position already re-planned) or when the corrected
    /// search confirms the current order.
    pub(crate) fn maybe_replan(&self, pos: usize, data: &Hypergraph) -> bool {
        if self
            .replanning
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        let adopted = self.replan(pos, data);
        self.replanning.store(false, Ordering::Release);
        adopted
    }

    /// The re-plan itself; runs under the `replanning` single-flight flag.
    fn replan(&self, pos: usize, data: &Hypergraph) -> bool {
        if self.triggered.fetch_or(1 << pos, Ordering::AcqRel) & (1 << pos) != 0 {
            return false;
        }
        let (current, _) = self.latest();
        let order = current.order();
        if pos + 1 >= order.len() {
            return false;
        }

        // Rebuild the model from current statistics, then fold the
        // observed yields of the matched prefix in: scaling edge
        // `order[i]` by observed/estimated (computed iteratively, so each
        // correction compounds on the previous ones) makes the model's
        // frontier at position `i` match what the run actually measured.
        let mut model = CostModel::new(&self.query, data);
        for (i, &e) in order[..=pos].iter().enumerate() {
            let est = model
                .estimate_order(&order[..=i])
                .steps
                .last()
                .expect("prefix is non-empty")
                .partials_out;
            let obs = self.obs_candidates[i].load(Ordering::Relaxed) as f64;
            model.scale_edge(e, obs / est.max(1.0));
        }

        let new_order = model.best_order_with_prefix(&order[..=pos]);
        if new_order == order {
            return false; // the corrected search confirms the current order
        }
        // Compile against the corrected model: the new plan's own
        // estimates then reflect the observations, so the trigger does not
        // immediately re-fire on the adopted suffix.
        let plan = Arc::new(
            Planner::plan_with_order_costed(&self.query, data, new_order, &model)
                .expect("suffix re-plan compiles"),
        );
        for (i, &est) in plan.est_candidates().iter().enumerate() {
            if i < self.ests.len() {
                self.ests[i].store(est.to_bits(), Ordering::Relaxed);
            }
        }
        let mut v = self.versions.lock();
        let agreements: Vec<u32> = v
            .plans
            .iter()
            .map(|p| common_prefix(p.order(), plan.order()))
            .collect();
        v.agree = agreements;
        v.agree.push(plan.len() as u32);
        v.plans.push(plan);
        self.num_versions.store(v.plans.len(), Ordering::Release);
        true
    }
}

/// Picks the plan version `task` executes under, at its step boundary
/// before any step state is built: scans run the latest version;
/// expansions and assist tickets upgrade iff the latest order agrees with
/// their birth version over every matched position. For a ticket that
/// means the whole order, so its shared last-step list was generated by
/// the very step it validates against. While the base plan is the only
/// version — always, in a static run (`adaptive` unset) — the answer is
/// version 0, returned as `None` without touching the plan's `Arc`.
pub(crate) fn resolve_task(
    adaptive: Option<&AdaptiveState>,
    task: &Task,
) -> (Option<Arc<Plan>>, u32) {
    let Some(ad) = adaptive.filter(|ad| ad.num_versions.load(Ordering::Acquire) > 1) else {
        return (None, 0);
    };
    let (plan, ver) = match task {
        Task::Scan { .. } => ad.latest(),
        Task::Expand { depth, ver, .. } => ad.resolve(*ver, *depth as usize),
        Task::ExpandSpilled { emb, ver } => ad.resolve(*ver, emb.len()),
        Task::Assist { shared } => ad.resolve(shared.ver, shared.emb.len()),
    };
    (Some(plan), ver)
}

fn common_prefix(a: &[u32], b: &[u32]) -> u32 {
    a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgmatch_hypergraph::{HypergraphBuilder, Label};

    /// Chain-with-branch data: one {A,B} row, one {B,C} row, thirty {C,D}
    /// rows (the junk fan-out) and six {C,E} rows (the selective filter).
    /// After matching {A,B} and {B,C}, both branches extend via the shared
    /// C vertex — so the suffix genuinely has two orders, and which one is
    /// cheaper depends on the statistics the model believes.
    fn branch_data() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(1, Label::new(0)); // A: 0
        b.add_vertices(1, Label::new(1)); // B: 1
        b.add_vertices(1, Label::new(2)); // C: 2
        b.add_vertices(30, Label::new(3)); // D: 3..33
        b.add_vertices(6, Label::new(4)); // E: 33..39
        b.add_edge(vec![0, 1]).unwrap(); // {A,B}
        b.add_edge(vec![1, 2]).unwrap(); // {B,C}
        for i in 0..30u32 {
            b.add_edge(vec![2, 3 + i]).unwrap(); // {C,D} × 30
        }
        for i in 0..6u32 {
            b.add_edge(vec![2, 33 + i]).unwrap(); // {C,E} × 6
        }
        b.build().unwrap()
    }

    fn branch_query() -> QueryGraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 1, 2, 3, 4] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![0, 1]).unwrap(); // q0 {A,B}
        b.add_edge(vec![1, 2]).unwrap(); // q1 {B,C}
        b.add_edge(vec![2, 3]).unwrap(); // q2 {C,D} — the fan-out
        b.add_edge(vec![2, 4]).unwrap(); // q3 {C,E} — the filter
        QueryGraph::new(&b.build().unwrap()).unwrap()
    }

    /// A plan compiled from a doctored model that thinks the {C,D} fan-out
    /// is tiny (stale statistics), walking into the junk branch first. An
    /// honest re-search of the suffix flips q3 before q2.
    fn stale_plan(query: &QueryGraph, data: &Hypergraph) -> Arc<Plan> {
        let mut model = CostModel::new(query, data);
        model.scale_edge(2, 1.0 / 1000.0);
        Arc::new(Planner::plan_with_order_costed(query, data, vec![0, 1, 2, 3], &model).unwrap())
    }

    #[test]
    fn trigger_fires_only_past_ratio_and_replans_once() {
        let data = branch_data();
        let query = branch_query();
        let plan = stale_plan(&query, &data);
        let state = AdaptiveState::new(query, Arc::clone(&plan), 8.0);

        // Below the trigger (est at position 0 is one row): nothing.
        assert!(!state.observe(0, 2, 2));
        // Accumulate past 8× max(est, 1): fires.
        assert!(state.observe(0, 38, 38));
        assert!(state.maybe_replan(0, &data));
        let (latest, ver) = state.latest();
        assert_eq!(ver, 1);
        assert_eq!(latest.order()[0], 0, "re-plan pins the matched prefix");
        assert_eq!(
            latest.order(),
            &[0, 1, 3, 2],
            "honest statistics put the selective branch first"
        );
        // The adopted plan carries corrected estimates: the observed count
        // at position 0 no longer looks like a blow-up.
        assert!(latest.est_candidates()[0] >= 30.0);

        // Position 0 re-plans at most once.
        assert!(!state.observe(0, 1_000_000, 0));
        assert!(!state.maybe_replan(0, &data));
        assert_eq!(state.latest().1, 1);
    }

    #[test]
    fn resolution_upgrades_agreeing_prefixes_only() {
        let data = branch_data();
        let query = branch_query();
        let plan = stale_plan(&query, &data);
        let state = AdaptiveState::new(query, Arc::clone(&plan), 1.0);

        // Fast path before any re-plan: everything is version 0.
        assert_eq!(state.resolve(0, 3).1, 0);

        state.observe(0, 40, 40);
        assert!(state.maybe_replan(0, &data));
        let (latest, latest_ver) = state.latest();
        assert_eq!(latest.order(), &[0, 1, 3, 2]);

        // Prefixes up to the common [0, 1] stem upgrade to the latest
        // version (scan = depth 0 always does: every re-plan pins
        // position 0).
        for depth in 0..=2 {
            assert_eq!(state.resolve(0, depth).1, latest_ver, "depth {depth}");
        }
        // A version-0 task with 3 matched positions includes the junk edge
        // at position 2, where the orders diverge: it must finish its
        // subtree under its birth version.
        let (resolved, ver) = state.resolve(0, 3);
        assert_eq!(ver, 0);
        assert_eq!(resolved.order(), plan.order());
    }

    /// A re-plan adopted while a last-step split is live: the ticket born
    /// under the old order resolves to it (the new order diverges at a
    /// matched position), a thief validates the whole shared range there,
    /// and the run still delivers exactly the static multiset.
    #[test]
    fn replan_under_a_live_last_step_split_matches_static() {
        use crate::config::MatchConfig;
        use crate::engine::task::{execute_task, Closures, ExecScratch, QueryEnv, Tally};
        use crate::exec::SequentialExecutor;
        use crate::memory::MemoryTracker;
        use crate::sink::CollectSink;

        // Six {C,E} rows: the stale order's last step (q3) splits at 4.
        let data = branch_data();
        let query = branch_query();
        let plan = stale_plan(&query, &data);
        assert_eq!(plan.order(), &[0, 1, 2, 3]);
        let oracle = CollectSink::new();
        SequentialExecutor::run(&plan, &data, &oracle, &MatchConfig::sequential());
        let expected = oracle.into_results();
        assert_eq!(expected.len(), 30 * 6);

        // The trigger never fires by itself: the one re-plan is forced at
        // the moment the first ticket goes out.
        let state = AdaptiveState::new(query, Arc::clone(&plan), f64::MAX);
        let config = MatchConfig::parallel(2).with_split_threshold(4);
        let (sink, tracker) = (CollectSink::new(), MemoryTracker::new());
        let base = QueryEnv {
            plan: &plan,
            data: &data,
            sink: &sink,
            config: &config,
            tracker: &tracker,
            ver: 0,
            adaptive: Some(&state),
        };
        let rows = data.partition(plan.steps()[0].partition.unwrap()).len() as u32;
        let mut queue = vec![Task::Scan {
            start: 0,
            end: rows,
        }];
        let (mut owner, mut thief) = (ExecScratch::new(), ExecScratch::new());
        let (mut tally, mut stolen) = (Tally::default(), Tally::default());
        while let Some(task) = queue.pop() {
            let (resolved, ver) = resolve_task(Some(&state), &task);
            let env = QueryEnv {
                plan: resolved.as_deref().unwrap_or(&plan),
                ver,
                ..base
            };
            let mut sched = Closures::new(
                || false,
                |t| {
                    if !matches!(t, Task::Assist { .. }) || stolen.metrics.assist_chunks > 0 {
                        queue.push(t);
                        return;
                    }
                    assert!(state.maybe_replan(0, &data), "adopted mid-split");
                    let (resolved, ver) = resolve_task(Some(&state), &t);
                    assert_eq!(ver, 0, "the new order diverges at position 2");
                    let env = QueryEnv {
                        plan: resolved.as_deref().unwrap_or(&plan),
                        ver,
                        ..base
                    };
                    let mut spawns_nothing = Closures::new(
                        || false,
                        |_| unreachable!("a last-step ticket spawns nothing"),
                    );
                    execute_task(&env, &mut thief, &mut stolen, t, &mut spawns_nothing);
                },
            );
            execute_task(&env, &mut owner, &mut tally, task, &mut sched);
        }
        assert_eq!(state.latest().0.order(), &[0, 1, 3, 2]);
        assert!(tally.metrics.split_expansions > 0);
        assert!(
            stolen.metrics.assist_chunks > 0,
            "the thief claimed under the old version"
        );
        assert_eq!(sink.into_results(), expected);
    }

    #[test]
    fn confirming_search_adopts_nothing() {
        let data = branch_data();
        let query = branch_query();
        // A plan already on the model's best order: a forced trigger must
        // conclude "no change" (scaling the prefix edge rescales every
        // completion of that prefix equally, so the suffix choice stands).
        let model = CostModel::new(&query, &data);
        let order = model.best_order();
        let plan = Arc::new(Planner::plan_with_order_costed(&query, &data, order, &model).unwrap());
        let state = AdaptiveState::new(query, Arc::clone(&plan), 1.0);
        state.observe(0, 1_000, 1_000);
        assert!(!state.maybe_replan(0, &data));
        assert_eq!(state.latest().1, 0);
        assert!(state.corrected_plan().is_none());
        // The attempt still consumed position 0's single trigger.
        assert!(!state.observe(0, 1_000, 0));
    }

    #[test]
    fn last_position_never_replans() {
        let data = branch_data();
        let query = branch_query();
        let plan = stale_plan(&query, &data);
        let state = AdaptiveState::new(query, plan, 1.0);
        // No suffix remains past the last position.
        assert!(!state.observe(3, 1_000_000, 0));
        assert!(!state.maybe_replan(3, &data));
        assert_eq!(state.latest().1, 0);
    }

    #[test]
    fn corrected_plan_surfaces_the_adopted_order() {
        let data = branch_data();
        let query = branch_query();
        let plan = stale_plan(&query, &data);
        let state = AdaptiveState::new(query, Arc::clone(&plan), 1.0);
        assert!(state.corrected_plan().is_none());
        state.observe(0, 40, 40);
        assert!(state.maybe_replan(0, &data));
        let corrected = state.corrected_plan().expect("a re-plan was adopted");
        assert_eq!(corrected.order(), &[0, 1, 3, 2]);
        assert_eq!(state.base.order(), plan.order());
    }
}
