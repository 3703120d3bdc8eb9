//! Pilot runs: measuring a shortlist of matching orders on a sample before
//! committing to one (DESIGN.md §13.3).
//!
//! The cost model of [`crate::cost`] prices every generated candidate as a
//! surviving partial and an expansion like one candidate, so it cannot see
//! the step whose class unions several hub postings only to have most of
//! them rejected. For a query the model itself calls expensive,
//! [`crate::Planner::plan`] therefore runs each shortlisted order on a
//! deterministic sample through the engine's own Algorithm 4
//! ([`ExpansionState::prepare`], [`generate_candidates`]) and Algorithm 5
//! ([`validate_candidate`]), and compiles the one that measured cheapest
//! — a random-walk estimate in the spirit of WanderJoin (Li et al., SIGMOD
//! 2016), with fixed instead of random picks.
//!
//! The sample: `SAMPLE_ROWS` (16) evenly spaced rows of the first step's
//! partition, then `SAMPLE_CHILDREN` (1) evenly spaced valid child at every
//! inner level. Horvitz–Thompson weights (`rows / s`, `|valid| / r`) turn
//! what the walk sees into estimates of the run's expansions `E` and
//! generated candidates `C`. The last level only generates; its candidates
//! are priced, not validated.
//!
//! A walk this small misjudges a skewed fan-out, so the model's choice is
//! replaced only by an order measured [`PILOT_MARGIN`] times cheaper.

use hgmatch_hypergraph::Hypergraph;

use crate::candidates::{generate_candidates, ExpansionState};
use crate::config::MatchConfig;
use crate::plan::Plan;
use crate::validate::{validate_candidate, ValidateScratch, Validation};

/// A query is piloted when the model's cost of the order it would pick is
/// above this. Every `point_http` (≤ 68) and `update_mix` (≤ 151) pool
/// shape and the `explain` fixture (29) stay below it, so they plan exactly
/// as the model says; the `plan_quality` adversaries (769 and 2 561) and
/// every `heavy_lib` query (≥ 2 731) are above it. A query near the gate
/// runs in tens of µs, and so does its pilot: below it the pilot costs more
/// than it can save.
pub(crate) const PILOT_MIN_COST: f64 = 512.0;

/// Sampled rows of the first step's partition (all of them when it has
/// fewer). On the `heavy_lib` pool, 32 rows and 2 children doubled the
/// pilot's time and made the median query 9 % slower, with the same picks.
pub(crate) const SAMPLE_ROWS: usize = 16;

/// Sampled valid children per inner expansion.
pub(crate) const SAMPLE_CHILDREN: usize = 1;

/// Price of one expansion in generated candidates: measured cost is
/// `EXPANSION_WEIGHT · E + C`. A least-squares fit over 174 `heavy_lib`
/// order runs gave 0.8 µs per expansion and 26 ns per candidate
/// (R² 0.69); every weight from 30 to 100 picked the same orders.
pub(crate) const EXPANSION_WEIGHT: f64 = 32.0;

/// How many times cheaper than the model's choice another order must
/// measure to replace it. Single-child walks misjudge a skewed fan-out by
/// 2× and more: on Fig. 9's SB workload, picking the cheapest measured
/// order outright swapped three queries whose measured gaps were 1.01×,
/// 1.2× and 1.6×, each of which then ran slower, and raised the
/// workload's candidates by 81 539. The `heavy_lib` picks that pay
/// measure 2.1× to 6.1× apart.
pub const PILOT_MARGIN: f64 = 2.0;

/// What became of one shortlisted order in the pilot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PilotOutcome {
    /// Compiled: the cheapest order measured at least [`PILOT_MARGIN`]
    /// times below the model's choice, else the model's choice itself.
    Chosen,
    /// Finished, but not chosen.
    Finished,
    /// Stopped once its running cost passed the bar: the model's choice's
    /// cost over [`PILOT_MARGIN`], or the cheapest order below that bar.
    Abandoned,
}

impl PilotOutcome {
    /// Lower-case name, as `explain` prints it.
    pub fn as_str(self) -> &'static str {
        match self {
            PilotOutcome::Chosen => "chosen",
            PilotOutcome::Finished => "finished",
            PilotOutcome::Abandoned => "abandoned",
        }
    }
}

/// One shortlisted order's pilot run.
#[derive(Debug, Clone, PartialEq)]
pub struct PilotRun {
    /// The order, as query-edge indices.
    pub order: Vec<u32>,
    /// Estimated expansions `E` (at the stop, when abandoned).
    pub expansions: f64,
    /// Estimated generated candidates `C` (at the stop, when abandoned).
    pub candidates: f64,
    /// Measured cost `EXPANSION_WEIGHT · E + C`.
    pub cost: f64,
    /// Chosen, beaten or abandoned.
    pub outcome: PilotOutcome,
}

/// Pilots `plans` — compiled orders of one query, feasible: the model's
/// choice first, then its challengers in ascending model cost — and
/// returns the index of the one to compile with every order's run. The
/// model's choice always finishes; a challenger is abandoned as soon as its
/// running cost passes the bar (the model's choice's cost over
/// [`PILOT_MARGIN`], then the cheapest challenger that finished below it).
/// The cheapest finished challenger is chosen, ties to the smaller order;
/// if none finished, the model's choice is.
pub(crate) fn pilot(data: &Hypergraph, plans: &[Plan]) -> (usize, Vec<PilotRun>) {
    let depth = plans.iter().map(Plan::len).max().unwrap_or(0);
    let mut walk = Walk {
        data,
        config: MatchConfig::default(),
        states: (0..depth).map(|_| ExpansionState::new()).collect(),
        valid: vec![Vec::new(); depth],
        scratch: ValidateScratch::new(),
        emb: Vec::with_capacity(depth),
        expansions: 0.0,
        candidates: 0.0,
        bound: f64::INFINITY,
    };
    let mut chosen = 0;
    let mut runs: Vec<PilotRun> = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let finished = walk.run(plan);
        let cost = walk.cost();
        if i == 0 {
            walk.bound = cost / PILOT_MARGIN;
        } else if finished
            && (chosen == 0 || (cost, plan.order()) < (walk.bound, plans[chosen].order()))
        {
            // Finished means `cost ≤ walk.bound`: below the bar.
            chosen = i;
            walk.bound = cost;
        }
        runs.push(PilotRun {
            order: plan.order().to_vec(),
            expansions: walk.expansions,
            candidates: walk.candidates,
            cost,
            outcome: if finished {
                PilotOutcome::Finished
            } else {
                PilotOutcome::Abandoned
            },
        });
    }
    runs[chosen].outcome = PilotOutcome::Chosen;
    (chosen, runs)
}

/// The sampled walk's reused state and running estimates.
struct Walk<'a> {
    data: &'a Hypergraph,
    config: MatchConfig,
    /// Expansion state per depth, as the sequential executor keeps it.
    states: Vec<ExpansionState>,
    /// Valid children per depth (global edge ids).
    valid: Vec<Vec<u32>>,
    scratch: ValidateScratch,
    emb: Vec<u32>,
    expansions: f64,
    candidates: f64,
    /// The running cost past which the current order is abandoned.
    bound: f64,
}

/// The `i`-th of `k` evenly spaced picks among `n` items (`k ≤ n`).
fn spaced(i: usize, k: usize, n: usize) -> usize {
    (2 * i + 1) * n / (2 * k)
}

impl Walk<'_> {
    fn cost(&self) -> f64 {
        EXPANSION_WEIGHT * self.expansions + self.candidates
    }

    /// Walks `plan`'s sample; `false` when abandoned.
    fn run(&mut self, plan: &Plan) -> bool {
        self.expansions = 0.0;
        self.candidates = 0.0;
        let Some(scan) = plan.steps()[0].partition else {
            return true; // infeasible: nothing to expand
        };
        let partition = self.data.partition(scan);
        let s = SAMPLE_ROWS.min(partition.len());
        let weight = partition.len() as f64 / s as f64;
        (0..s).all(|i| {
            self.emb.push(
                partition
                    .global_id(spaced(i, s, partition.len()) as u32)
                    .raw(),
            );
            let finished = self.expand(plan, 1, weight);
            self.emb.pop();
            finished
        })
    }

    /// Expands the sampled partial `self.emb` (standing for `weight`
    /// partials) at `depth`; `false` when abandoned. The bound is checked
    /// before every expansion and after its generation, so an abandoned
    /// order overshoots by at most one expansion's candidates and never
    /// validates a generation that passed the bound.
    fn expand(&mut self, plan: &Plan, depth: usize, weight: f64) -> bool {
        if depth == plan.len() {
            return true;
        }
        let step = &plan.steps()[depth];
        let Some(pid) = step.partition else {
            return true;
        };
        self.expansions += weight;
        if self.cost() > self.bound {
            return false;
        }
        let state = &mut self.states[depth];
        state.prepare(self.data, step, &self.emb);
        let produced = generate_candidates(self.data, step, &self.emb, state, &self.config);
        self.candidates += weight * produced as f64;
        if self.cost() > self.bound {
            return false;
        }
        if depth + 1 == plan.len() {
            return true;
        }

        let partition = self.data.partition(pid);
        let mut valid = std::mem::take(&mut self.valid[depth]);
        valid.clear();
        let state = &self.states[depth];
        for &row in &state.candidates {
            let global = partition.global_id(row).raw();
            let verdict = validate_candidate(
                self.data,
                step,
                depth,
                &self.emb,
                state,
                global,
                partition.row(row),
                &mut self.scratch,
            );
            if verdict == Validation::Valid {
                valid.push(global);
            }
        }
        let r = SAMPLE_CHILDREN.min(valid.len());
        let child_weight = weight * valid.len() as f64 / r.max(1) as f64;
        let finished = (0..r).all(|j| {
            self.emb.push(valid[spaced(j, r, valid.len())]);
            let finished = self.expand(plan, depth + 1, child_weight);
            self.emb.pop();
            finished
        });
        self.valid[depth] = valid;
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::query::QueryGraph;
    use hgmatch_hypergraph::{HypergraphBuilder, Label};

    /// A label-0 hub in 200 `{hub, x}` edges (label 1) and 2 000
    /// `{hub, y}` edges (label 2), and the query `{u0, u1}`, `{u0, u2}`:
    /// every expansion of either order unions the hub's posting in the
    /// other partition, so `[1, 0]` generates 200 candidates for each of
    /// its 2 000 partials.
    fn hub() -> (Hypergraph, QueryGraph) {
        let mut d = HypergraphBuilder::new();
        let hub = d.add_vertex(Label::new(0)).raw();
        for (label, n) in [(1, 200), (2, 2000)] {
            for _ in 0..n {
                let v = d.add_vertex(Label::new(label)).raw();
                d.add_edge(vec![hub, v]).unwrap();
            }
        }
        let mut q = HypergraphBuilder::new();
        for label in 0..3 {
            q.add_vertex(Label::new(label));
        }
        q.add_edge(vec![0, 1]).unwrap();
        q.add_edge(vec![0, 2]).unwrap();
        (
            d.build().unwrap(),
            QueryGraph::new(&q.build().unwrap()).unwrap(),
        )
    }

    #[test]
    fn an_abandoned_order_stops_before_its_full_count() {
        let (data, q) = hub();
        let plan = |order: Vec<u32>| Planner::plan_with_order(&q, &data, order).unwrap();
        let (cheap, dear) = (plan(vec![0, 1]), plan(vec![1, 0]));

        let (_, alone) = pilot(&data, std::slice::from_ref(&dear));
        assert_eq!(
            (alone[0].expansions, alone[0].candidates),
            (2000.0, 400_000.0)
        );

        let (chosen, runs) = pilot(&data, &[cheap, dear]);
        assert_eq!(chosen, 0);
        assert_eq!((runs[0].expansions, runs[0].candidates), (200.0, 400_000.0));
        let bar = runs[0].cost / PILOT_MARGIN;
        let stopped = &runs[1];
        assert_eq!(stopped.outcome, PilotOutcome::Abandoned);
        assert!(stopped.cost > bar);
        // One sampled row stands for 125 partials of 200 candidates each:
        // the run overshoots the bar by at most that one expansion.
        assert!(stopped.cost <= bar + 125.0 * (EXPANSION_WEIGHT + 200.0));
        assert!(
            stopped.candidates < 0.5 * alone[0].candidates,
            "{stopped:?}"
        );
    }

    #[test]
    fn a_challenger_must_measure_the_margin_cheaper() {
        let (data, q) = hub();
        let plan = |order: Vec<u32>| Planner::plan_with_order(&q, &data, order).unwrap();
        // `[0, 1]` measures cheaper than `[1, 0]`, by less than the margin.
        let (_, alone) = pilot(&data, &[plan(vec![0, 1])]);
        let (chosen, runs) = pilot(&data, &[plan(vec![1, 0]), plan(vec![0, 1])]);
        assert!(alone[0].cost < runs[0].cost && alone[0].cost * PILOT_MARGIN > runs[0].cost);
        assert_eq!(chosen, 0);
        assert_eq!(runs[0].outcome, PilotOutcome::Chosen);
        assert_eq!(runs[1].outcome, PilotOutcome::Abandoned);
    }
}
