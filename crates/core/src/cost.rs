//! The cost model and matching-order search behind the cost-based planner
//! (DESIGN.md §13).
//!
//! The paper's Algorithm 3 picks a matching order with a one-shot greedy
//! rule over partition cardinalities. That rule is blind to *join
//! selectivity*: a tiny partition whose shared vertices are hubs can fan a
//! partial embedding out into thousands of candidates, while a larger
//! partition with selective anchors keeps the frontier narrow. This module
//! estimates, for any connected order, the per-step candidate counts from
//! the per-partition cardinality summaries the storage layer maintains
//! ([`hgmatch_hypergraph::PartitionStats`]) and searches the space of
//! connected orders for the cheapest one:
//!
//! * **Per-step estimate.** Matching query hyperedge `e` with target
//!   partition `P` (`rows` hyperedges) against a partial embedding that
//!   already covers shared query vertices `u₁..u_k` produces an expected
//!   `rows · Π_i min(1, avg_deg(label(u_i), P) / rows)` candidates per
//!   partial: each shared vertex independently keeps only the rows
//!   incident to one concrete data vertex of its label, whose expected
//!   posting length is the maintained per-label mean degree.
//! * **Step cost.** `partials_in · (1 + candidates_per_partial)` — every
//!   partial pays the anchor probe plus one unit per produced candidate;
//!   the total cost of an order is the sum over its steps. Candidate
//!   validation is deliberately not modelled separately: the paper's
//!   false-positive rate is tiny, so candidates ≈ surviving partials.
//! * **Search.** Exhaustive depth-first enumeration of connected orders
//!   with branch-and-bound pruning (costs only grow, so a partial order
//!   costing more than the best complete one is dead) for queries up to
//!   [`crate::config`]'s exhaustive bound (8 hyperedges); beam search of
//!   width 8 above it. Ties break towards the lexicographically smallest
//!   order, so planning is deterministic.
//!
//! The search also yields the `k` cheapest orders: the shortlist that
//! [`crate::pilot`] measures for a query the model prices as expensive.
//! [`Explain`] packages the chosen order, its per-step estimates, the
//! greedy baseline and the pilot's runs into deterministic text/JSON for
//! the CLI `explain` subcommand.

use std::fmt::Write as _;

use hgmatch_hypergraph::{Hypergraph, SignatureId};

use crate::config::{PLAN_BEAM, PLAN_EXHAUSTIVE, PLAN_MARGIN};
use crate::pilot::{
    PilotRun, EXPANSION_WEIGHT, PILOT_MARGIN, PILOT_MIN_COST, SAMPLE_CHILDREN, SAMPLE_ROWS,
};
use crate::plan::Planner;
use crate::query::QueryGraph;

/// Cost estimate of one step of a candidate matching order.
#[derive(Debug, Clone, PartialEq)]
pub struct StepEstimate {
    /// Query hyperedge matched at this step.
    pub query_edge: u32,
    /// `Card(e, H)`: rows of the target partition (0 when the signature is
    /// absent — the order is infeasible and everything downstream is 0).
    pub cardinality: u64,
    /// Expected candidates generated *per partial embedding* reaching this
    /// step (for the SCAN step this is the cardinality itself).
    pub candidates_per_partial: f64,
    /// Expected partial embeddings alive after this step.
    pub partials_out: f64,
    /// Expected work of this step: `partials_in · (1 + candidates)`.
    pub cost: f64,
}

/// Cost estimate of a complete matching order.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderEstimate {
    /// The estimated order (query-edge indices, matching-order positions).
    pub order: Vec<u32>,
    /// Per-step estimates, SCAN first.
    pub steps: Vec<StepEstimate>,
    /// Sum of the per-step costs.
    pub total_cost: f64,
}

/// The statistics-driven cost model for one `(query, data)` pair.
///
/// Construction resolves each query edge's signature to its partition once
/// and snapshots the per-edge cardinalities and per-label mean degrees out
/// of the data's partition stats; estimating an order is then pure
/// arithmetic, so the order search can evaluate thousands of partial
/// orders without touching the data again, and compiling a plan reads each
/// step's partition from here.
#[derive(Debug)]
pub struct CostModel<'a> {
    query: &'a QueryGraph,
    /// [`Hypergraph::uid`] of the snapshot the model was built on: the
    /// partition ids below mean nothing in another.
    data_uid: u64,
    /// Target partition per query edge (`None` = absent signature).
    partition: Vec<Option<SignatureId>>,
    /// Target partition rows per query edge (0 = absent signature).
    card: Vec<f64>,
    /// `avg_deg(label(u), partition(e)) / rows(e)` per `(edge, vertex slot)`
    /// pair — the selectivity one covered shared vertex contributes,
    /// clamped to `(0, 1]`. Edge `e`'s slots, parallel to `query.edge(e)`,
    /// are `selectivity[slot_start[e]..slot_start[e + 1]]`.
    selectivity: Vec<f64>,
    slot_start: Vec<usize>,
}

impl<'a> CostModel<'a> {
    /// Builds the model from the data hypergraph's partition stats.
    pub fn new(query: &'a QueryGraph, data: &Hypergraph) -> Self {
        let ne = query.num_edges();
        let mut partition = Vec::with_capacity(ne);
        let mut card = Vec::with_capacity(ne);
        let mut slot_start = Vec::with_capacity(ne + 1);
        let mut selectivity = Vec::with_capacity((0..ne).map(|e| query.edge(e).len()).sum());
        for e in 0..ne {
            let sid = data.interner().get(query.signature(e));
            let stats = sid.map(|sid| data.partition(sid).stats());
            let rows = stats.map_or(0, |s| s.rows);
            // Algorithm 3 orders by these rows: they must be the partition's.
            debug_assert!(sid.is_none_or(|sid| data.partition(sid).len() as u64 == rows));
            partition.push(sid);
            card.push(rows as f64);
            slot_start.push(selectivity.len());
            selectivity.extend(query.edge(e).iter().map(|&u| {
                let Some(stats) = stats else { return 0.0 };
                if stats.rows == 0 {
                    return 0.0;
                }
                // Size-biased mean: the matched data vertex behind a
                // shared query vertex was reached through an incident
                // hyperedge, so hubs are over-represented in exact
                // proportion to their degree.
                let expected_degree = stats.size_biased_degree(query.label(u));
                (expected_degree / stats.rows as f64).clamp(f64::MIN_POSITIVE, 1.0)
            }));
        }
        slot_start.push(selectivity.len());
        Self {
            query,
            data_uid: data.uid(),
            partition,
            card,
            selectivity,
            slot_start,
        }
    }

    /// `Card(e, H)` as seen by the model.
    #[inline]
    pub fn cardinality(&self, e: u32) -> u64 {
        self.card[e as usize] as u64
    }

    /// The partition query edge `e` targets (`None` when its signature
    /// does not occur in the data).
    #[inline]
    pub(crate) fn partition(&self, e: u32) -> Option<SignatureId> {
        self.partition[e as usize]
    }

    /// Whether the model was built on `data`, the one snapshot whose
    /// partition ids it holds.
    pub(crate) fn is_built_on(&self, data: &Hypergraph) -> bool {
        self.data_uid == data.uid()
    }

    /// Algorithm 3 over the model's cardinalities: the smallest
    /// `Card(e, H)` first, then repeatedly the connected hyperedge of least
    /// `Card(e, H) / |Vϕ ∩ e|`, ties to the larger overlap, then the lower
    /// index. A disconnected query starts its next component at the
    /// smallest remaining cardinality (a graceful extension of the paper,
    /// which assumes connected queries).
    pub(crate) fn greedy_order(&self) -> Vec<u32> {
        let query = self.query;
        let ne = query.num_edges();
        let card = |e: usize| self.card[e];

        let first = (0..ne)
            .min_by(|&a, &b| card(a).total_cmp(&card(b)).then(a.cmp(&b)))
            .expect("query has at least one edge");
        let mut order = Vec::with_capacity(ne);
        order.push(first as u32);
        let mut in_order = 1u64 << first;
        while order.len() != ne {
            let mut best: Option<(f64, usize, usize)> = None; // (score, -overlap, edge)
            for e in bits(self.remaining(in_order)) {
                let e = e as usize;
                // Vϕ ∩ e: the vertices of `e` that an ordered edge contains.
                let overlap = query
                    .edge(e)
                    .iter()
                    .filter(|&&v| query.incident_edges(v) & in_order != 0)
                    .count();
                if overlap == 0 {
                    continue;
                }
                let key = (card(e) / overlap as f64, usize::MAX - overlap, e);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let next = match best {
                Some((_, _, e)) => e,
                None => bits(self.remaining(in_order))
                    .map(|e| e as usize)
                    .min_by(|&a, &b| card(a).total_cmp(&card(b)).then(a.cmp(&b)))
                    .expect("some edge remains"),
            };
            order.push(next as u32);
            in_order |= 1 << next;
        }
        order
    }

    /// Multiplies the modelled candidate yield of query edge `e` by
    /// `factor` — the feedback hook of the adaptive re-optimizer
    /// (DESIGN.md §15). Every estimate involving `e` starts from
    /// `card[e]` (both as a SCAN and as an extension), so scaling it
    /// folds an observed/estimated candidate ratio into all downstream
    /// step estimates. Non-finite and non-positive factors are ignored
    /// (an observed count of zero says "done", not "free").
    pub fn scale_edge(&mut self, e: u32, factor: f64) {
        if factor.is_finite() && factor > 0.0 {
            self.card[e as usize] *= factor;
        }
    }

    /// Expected candidates per partial when matching `e` with the edges in
    /// `matched_mask` already matched.
    fn candidates_per_partial(&self, e: u32, matched_mask: u64) -> f64 {
        let e_us = e as usize;
        let mut est = self.card[e_us];
        if matched_mask == 0 {
            return est; // SCAN
        }
        let slots = &self.selectivity[self.slot_start[e_us]..self.slot_start[e_us + 1]];
        for (&u, &selectivity) in self.query.edge(e_us).iter().zip(slots) {
            if self.query.incident_edges(u) & matched_mask != 0 {
                est *= selectivity;
            }
        }
        est
    }

    /// Extends a running estimate by one step; returns the step estimate.
    fn step(&self, e: u32, matched_mask: u64, partials_in: f64) -> StepEstimate {
        let candidates = self.candidates_per_partial(e, matched_mask);
        StepEstimate {
            query_edge: e,
            cardinality: self.card[e as usize] as u64,
            candidates_per_partial: candidates,
            partials_out: partials_in * candidates,
            cost: partials_in * (1.0 + candidates),
        }
    }

    /// Walks `order` (any permutation of the query edges) through the
    /// model, handing `visit` each step's estimate, SCAN first; returns the
    /// order's total cost.
    pub(crate) fn walk(&self, order: &[u32], mut visit: impl FnMut(StepEstimate)) -> f64 {
        let mut mask = 0u64;
        let mut partials = 1.0f64;
        let mut total = 0.0f64;
        for &e in order {
            let step = self.step(e, mask, partials);
            partials = step.partials_out;
            total += step.cost;
            mask |= 1 << e;
            visit(step);
        }
        total
    }

    /// Estimates a complete order (any permutation of the query edges).
    pub fn estimate_order(&self, order: &[u32]) -> OrderEstimate {
        let mut steps = Vec::with_capacity(order.len());
        let total_cost = self.walk(order, |step| steps.push(step));
        OrderEstimate {
            order: order.to_vec(),
            steps,
            total_cost,
        }
    }

    /// The query edges not in `mask`.
    fn remaining(&self, mask: u64) -> u64 {
        !mask & (u64::MAX >> (64 - self.query.num_edges()))
    }

    /// Query edges that may legally extend the partial order `mask`, as a
    /// mask: connected extensions when any exist, otherwise (disconnected
    /// query) every remaining edge — the same fallback the greedy planner
    /// applies.
    fn extensions(&self, mask: u64) -> u64 {
        let remaining = self.remaining(mask);
        let adjacent = bits(mask).fold(0, |adj, f| adj | self.query.adjacent_edges(f as usize));
        match adjacent & remaining {
            0 => remaining,
            connected => connected,
        }
    }

    /// The cheapest connected order under this model, using the planner's
    /// search bounds.
    pub fn best_order(&self) -> Vec<u32> {
        self.best_order_bounded(PLAN_BEAM, PLAN_EXHAUSTIVE)
    }

    /// The planner's final choice between `greedy` (the paper's Algorithm
    /// 3 order) and the searched best order: the search wins only when it
    /// is estimated at least `margin`× cheaper. Near-tie estimates are
    /// below the model's resolution — label-level summaries cannot
    /// distinguish such orders — so the planner keeps the stable baseline
    /// rather than flipping on estimation noise (DESIGN.md §13.3).
    pub fn choose_order(&self, greedy: Vec<u32>, searched: Vec<u32>, margin: f64) -> Vec<u32> {
        let cost = |order: &[u32]| self.walk(order, |_| {});
        if cost(&greedy) > cost(&searched) * margin.max(1.0) {
            searched
        } else {
            greedy
        }
    }

    /// The cheapest connected order, with explicit search bounds: queries
    /// with at most `exhaustive_max` hyperedges are enumerated exhaustively
    /// with branch-and-bound; larger ones run a beam search of width
    /// `beam`. Deterministic: ties break to the lexicographically smallest
    /// order.
    pub fn best_order_bounded(&self, beam: usize, exhaustive_max: usize) -> Vec<u32> {
        self.cheapest_orders_bounded(1, beam, exhaustive_max)
            .swap_remove(0)
    }

    /// The `k` cheapest connected orders under the planner's search
    /// bounds, cheapest first — the pilot's shortlist (DESIGN.md §13.3).
    pub(crate) fn cheapest_orders(&self, k: usize) -> Vec<Vec<u32>> {
        self.cheapest_orders_bounded(k, PLAN_BEAM, PLAN_EXHAUSTIVE)
    }

    /// Up to `k` cheapest connected orders, cheapest first with ties to the
    /// lexicographically smaller order: exhaustive branch-and-bound (pruned
    /// against the `k`-th best) up to `exhaustive_max` hyperedges, the
    /// final frontier of a width-`beam` search above it. Never empty.
    fn cheapest_orders_bounded(
        &self,
        k: usize,
        beam: usize,
        exhaustive_max: usize,
    ) -> Vec<Vec<u32>> {
        let ne = self.query.num_edges();
        if ne <= exhaustive_max {
            let mut best = Vec::new();
            let mut prefix: Vec<u32> = Vec::with_capacity(ne);
            self.dfs(0, 1.0, 0.0, &mut prefix, k.max(1), &mut best);
            best.into_iter().map(|(_, order)| order).collect()
        } else {
            let mut frontier = self.beam_from(beam.max(1), 0, Vec::new(), 1.0, 0.0);
            frontier.truncate(k.max(1));
            frontier
        }
    }

    /// The cheapest complete order *extending* a fixed prefix — the
    /// suffix re-search of the adaptive re-optimizer (DESIGN.md §15): the
    /// first `prefix.len()` positions are pinned (those partials already
    /// exist in flight) and only the remaining edges are re-enumerated,
    /// seeded with the prefix's estimated frontier. Uses the same bounds
    /// and determinism rules as [`CostModel::best_order`], keyed on the
    /// *suffix* length.
    pub fn best_order_with_prefix(&self, prefix: &[u32]) -> Vec<u32> {
        self.best_order_with_prefix_bounded(prefix, PLAN_BEAM, PLAN_EXHAUSTIVE)
    }

    /// [`CostModel::best_order_with_prefix`] with explicit search bounds.
    pub fn best_order_with_prefix_bounded(
        &self,
        prefix: &[u32],
        beam: usize,
        exhaustive_max: usize,
    ) -> Vec<u32> {
        let ne = self.query.num_edges();
        let mut mask = 0u64;
        let mut partials = 1.0f64;
        let mut cost = 0.0f64;
        for &e in prefix {
            let step = self.step(e, mask, partials);
            partials = step.partials_out;
            cost += step.cost;
            mask |= 1 << e;
        }
        if ne - prefix.len() <= exhaustive_max {
            let mut best = Vec::new();
            let mut seeded = prefix.to_vec();
            seeded.reserve(ne - prefix.len());
            self.dfs(mask, partials, cost, &mut seeded, 1, &mut best);
            best.swap_remove(0).1
        } else {
            self.beam_from(beam.max(1), mask, prefix.to_vec(), partials, cost)
                .swap_remove(0)
        }
    }

    /// Depth-first enumeration of the connected orders extending `prefix`,
    /// keeping the `k` cheapest complete ones in `best` (sorted by cost).
    fn dfs(
        &self,
        mask: u64,
        partials: f64,
        cost: f64,
        prefix: &mut Vec<u32>,
        k: usize,
        best: &mut Vec<(f64, Vec<u32>)>,
    ) {
        if prefix.len() == self.query.num_edges() {
            // Strict improvement only (the ascending iteration order makes
            // the first-found of equal costs the lexicographically
            // smallest) — except that the first `k` completed orders are
            // always taken, so the search returns valid permutations even
            // when every order's estimate overflows to infinity.
            if best.len() < k || cost < best[k - 1].0 {
                let at = best.partition_point(|(c, _)| *c <= cost);
                best.insert(at, (cost, prefix.clone()));
                best.truncate(k);
            }
            return;
        }
        for e in bits(self.extensions(mask)) {
            let step = self.step(e, mask, partials);
            let next_cost = cost + step.cost;
            if best.len() == k && next_cost >= best[k - 1].0 {
                continue; // branch-and-bound: costs only grow
            }
            prefix.push(e);
            self.dfs(
                mask | (1 << e),
                step.partials_out,
                next_cost,
                prefix,
                k,
                best,
            );
            prefix.pop();
        }
    }

    /// Beam search from an arbitrary seed state (empty seed = full search;
    /// a prefix seed = the adaptive suffix re-search). Returns the final
    /// frontier, cheapest first.
    fn beam_from(
        &self,
        beam: usize,
        mask: u64,
        order: Vec<u32>,
        partials: f64,
        cost: f64,
    ) -> Vec<Vec<u32>> {
        #[derive(Clone)]
        struct State {
            mask: u64,
            order: Vec<u32>,
            partials: f64,
            cost: f64,
        }
        let ne = self.query.num_edges();
        let seeded = order.len();
        let mut frontier = vec![State {
            mask,
            order,
            partials,
            cost,
        }];
        for _ in seeded..ne {
            let mut next: Vec<State> = Vec::new();
            for state in &frontier {
                for e in bits(self.extensions(state.mask)) {
                    let step = self.step(e, state.mask, state.partials);
                    let mut order = state.order.clone();
                    order.push(e);
                    next.push(State {
                        mask: state.mask | (1 << e),
                        order,
                        partials: step.partials_out,
                        cost: state.cost + step.cost,
                    });
                }
            }
            next.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.order.cmp(&b.order)));
            next.truncate(beam);
            frontier = next;
        }
        frontier.into_iter().map(|state| state.order).collect()
    }

    /// The *most expensive* connected order under this model — the
    /// adversarial baseline of the `plan_quality` bench. Exhaustive for
    /// queries within `exhaustive_max` (no pruning: cost keeps growing, so
    /// max cannot be bounded early), greedily worst-first above it.
    pub fn worst_order(&self, exhaustive_max: usize) -> Vec<u32> {
        let ne = self.query.num_edges();
        if ne <= exhaustive_max {
            let mut worst_cost = f64::NEG_INFINITY;
            let mut worst: Vec<u32> = Vec::new();
            let mut stack: Vec<(u64, Vec<u32>, f64, f64)> = vec![(0, Vec::new(), 1.0, 0.0)];
            while let Some((mask, order, partials, cost)) = stack.pop() {
                if order.len() == ne {
                    if cost > worst_cost {
                        worst_cost = cost;
                        worst = order;
                    }
                    continue;
                }
                for e in bits(self.extensions(mask)) {
                    let step = self.step(e, mask, partials);
                    let mut next = order.clone();
                    next.push(e);
                    stack.push((mask | (1 << e), next, step.partials_out, cost + step.cost));
                }
            }
            worst
        } else {
            let mut order = Vec::with_capacity(ne);
            let mut mask = 0u64;
            let mut partials = 1.0;
            for _ in 0..ne {
                let e = bits(self.extensions(mask))
                    .max_by(|&a, &b| {
                        self.step(a, mask, partials)
                            .cost
                            .total_cmp(&self.step(b, mask, partials).cost)
                            .then(b.cmp(&a))
                    })
                    .expect("extensions exist while edges remain");
                let step = self.step(e, mask, partials);
                partials = step.partials_out;
                mask |= 1 << e;
                order.push(e);
            }
            order
        }
    }
}

/// The set bits of `mask`, lowest first: query-edge indices in ascending
/// order, which is the order every search tie-breaks towards.
fn bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let bit = (mask != 0).then(|| mask.trailing_zeros())?;
        mask &= mask - 1;
        Some(bit)
    })
}

/// An EXPLAIN report: the cost-based plan's order and per-step estimates
/// next to the greedy baseline, rendered deterministically (stable field
/// order, no hash-iteration leaks) so CI can diff the output.
#[derive(Debug, Clone)]
pub struct Explain {
    /// Estimate of the order [`crate::Planner::plan`] actually compiles —
    /// the searched order when it clears the confidence margin, the
    /// greedy baseline otherwise.
    pub chosen: OrderEstimate,
    /// Estimate of the cheapest order the search found.
    pub searched: OrderEstimate,
    /// Estimate of the paper's greedy Algorithm 3 order.
    pub greedy: OrderEstimate,
    /// `"exhaustive"` or `"beam"` — which search produced `searched`.
    pub strategy: &'static str,
    /// Beam width in effect (meaningful for the beam strategy).
    pub beam: usize,
    /// Confidence margin the searched order had to clear.
    pub margin: f64,
    /// Whether some query signature is absent from the data (zero results).
    pub infeasible: bool,
    /// The pilot's run of every shortlisted order, in the order they ran;
    /// empty when the model's choice cost no more than the pilot gate.
    pub pilot: Vec<PilotRun>,
}

impl Explain {
    /// Builds the report for `query` against `data` using the planner's
    /// search bounds, margin and pilot gate — the same decision path as
    /// [`crate::Planner::plan`].
    pub fn new(query: &QueryGraph, data: &Hypergraph) -> Self {
        let model = CostModel::new(query, data);
        let greedy_order = model.greedy_order();
        let searched_order = model.best_order();
        let (chosen_order, pilot) = match Planner::plan_piloted(query, data, PILOT_MIN_COST) {
            Ok((plan, runs)) => (plan.order().to_vec(), runs),
            // No order of this query compiles; report the model's choice,
            // whose compilation fails with the same error.
            Err(_) => (
                model.choose_order(greedy_order.clone(), searched_order.clone(), PLAN_MARGIN),
                Vec::new(),
            ),
        };
        let chosen = model.estimate_order(&chosen_order);
        let infeasible = chosen.steps.iter().any(|s| s.cardinality == 0);
        Self {
            chosen,
            searched: model.estimate_order(&searched_order),
            greedy: model.estimate_order(&greedy_order),
            strategy: if query.num_edges() <= PLAN_EXHAUSTIVE {
                "exhaustive"
            } else {
                "beam"
            },
            beam: PLAN_BEAM,
            margin: PLAN_MARGIN,
            infeasible,
            pilot,
        }
    }

    /// Human-readable rendering (one table per order).
    pub fn text(&self) -> String {
        fn table(out: &mut String, name: &str, est: &OrderEstimate) {
            let _ = writeln!(
                out,
                "{name} order: {:?}  (estimated cost {})",
                est.order,
                fmt_f64(est.total_cost)
            );
            let _ = writeln!(out, "  step\tedge\tcard\tcand/partial\tpartials\tcost");
            for (i, s) in est.steps.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {i}\tq{}\t{}\t{}\t{}\t{}",
                    s.query_edge,
                    s.cardinality,
                    fmt_f64(s.candidates_per_partial),
                    fmt_f64(s.partials_out),
                    fmt_f64(s.cost)
                );
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "planner: cost-based ({}, beam {}, margin {})",
            self.strategy,
            self.beam,
            fmt_f64(self.margin)
        );
        table(&mut out, "chosen", &self.chosen);
        table(&mut out, "greedy", &self.greedy);
        if self.searched.order != self.chosen.order && self.searched.order != self.greedy.order {
            table(&mut out, "searched", &self.searched);
        }
        if !self.pilot.is_empty() {
            let _ = writeln!(
                out,
                "pilot (model cost above {}): {SAMPLE_ROWS} sampled rows, {SAMPLE_CHILDREN} child per level, cost = {EXPANSION_WEIGHT}*expansions + candidates, first order replaced at {PILOT_MARGIN}x cheaper",
                fmt_f64(PILOT_MIN_COST)
            );
            let _ = writeln!(out, "  order\texpansions\tcandidates\tcost\toutcome");
            for run in &self.pilot {
                let _ = writeln!(
                    out,
                    "  {:?}\t{}\t{}\t{}\t{}",
                    run.order,
                    fmt_f64(run.expansions),
                    fmt_f64(run.candidates),
                    fmt_f64(run.cost),
                    run.outcome.as_str()
                );
            }
        } else if self.chosen.order == self.greedy.order {
            let _ = writeln!(
                out,
                "keeping the greedy order (search win {}x is within the margin)",
                fmt_f64(self.greedy.total_cost / self.searched.total_cost.max(f64::MIN_POSITIVE))
            );
        } else {
            let _ = writeln!(
                out,
                "cost-based order is estimated {}x cheaper than greedy",
                fmt_f64(self.greedy.total_cost / self.chosen.total_cost.max(f64::MIN_POSITIVE))
            );
        }
        if self.infeasible {
            let _ = writeln!(
                out,
                "plan is infeasible: some query signature is absent from the data"
            );
        }
        out
    }

    /// Machine-readable rendering: deterministic JSON with a stable field
    /// order (golden-file checked by the CLI tests).
    pub fn json(&self) -> String {
        fn order_json(est: &OrderEstimate) -> String {
            let steps: Vec<String> = est
                .steps
                .iter()
                .map(|s| {
                    format!(
                        "{{\"query_edge\": {}, \"cardinality\": {}, \"candidates_per_partial\": {}, \"partials\": {}, \"cost\": {}}}",
                        s.query_edge,
                        s.cardinality,
                        fmt_f64(s.candidates_per_partial),
                        fmt_f64(s.partials_out),
                        fmt_f64(s.cost)
                    )
                })
                .collect();
            format!(
                "{{\"order\": {:?}, \"total_cost\": {}, \"steps\": [{}]}}",
                est.order,
                fmt_f64(est.total_cost),
                steps.join(", ")
            )
        }
        // The pilot's section exists only when it ran, so an unpiloted
        // report reads exactly as it did before there was a pilot.
        let pilot = if self.pilot.is_empty() {
            String::new()
        } else {
            let runs: Vec<String> = self
                .pilot
                .iter()
                .map(|run| {
                    format!(
                        "{{\"order\": {:?}, \"expansions\": {}, \"candidates\": {}, \"cost\": {}, \"outcome\": \"{}\"}}",
                        run.order,
                        fmt_f64(run.expansions),
                        fmt_f64(run.candidates),
                        fmt_f64(run.cost),
                        run.outcome.as_str()
                    )
                })
                .collect();
            format!(",\n  \"pilot\": [{}]", runs.join(", "))
        };
        format!(
            "{{\n  \"strategy\": \"{}\",\n  \"beam\": {},\n  \"margin\": {},\n  \"infeasible\": {},\n  \"chosen\": {},\n  \"searched\": {},\n  \"greedy\": {}{pilot}\n}}\n",
            self.strategy,
            self.beam,
            fmt_f64(self.margin),
            self.infeasible,
            order_json(&self.chosen),
            order_json(&self.searched),
            order_json(&self.greedy)
        )
    }
}

/// Fixed-precision float rendering shared by the text and JSON forms:
/// `{:.4}` is exact for the integers the estimates usually are and stable
/// across platforms for the rest.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        // Infinity stand-in that strict JSON parsers accept as a regular
        // in-range number (estimates are products of non-negatives, so
        // NaN cannot occur here).
        format!("{:.4e}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
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
    fn scan_step_estimates_cardinality() {
        let data = paper_data();
        let q = paper_query();
        let model = CostModel::new(&q, &data);
        let est = model.estimate_order(&[0, 1, 2]);
        assert_eq!(est.steps[0].cardinality, 2);
        assert!((est.steps[0].candidates_per_partial - 2.0).abs() < 1e-9);
        assert!((est.steps[0].partials_out - 2.0).abs() < 1e-9);
        // Later steps shrink the frontier: selectivities are ≤ 1.
        assert!(est.steps[1].candidates_per_partial <= est.steps[1].cardinality as f64);
        assert!(est.total_cost > 0.0);
    }

    #[test]
    fn best_order_is_no_worse_than_greedy_or_any_permutation() {
        let data = paper_data();
        let q = paper_query();
        let model = CostModel::new(&q, &data);
        let best = model.best_order_bounded(8, 8);
        let best_cost = model.estimate_order(&best).total_cost;
        let greedy_cost = model
            .estimate_order(&Planner::greedy_order(&q, &data))
            .total_cost;
        assert!(best_cost <= greedy_cost + 1e-9);
        // Exhaustive check over all 6 permutations (all connected here).
        for perm in [
            [0u32, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            assert!(best_cost <= model.estimate_order(&perm).total_cost + 1e-9);
        }
    }

    #[test]
    fn cheapest_orders_are_the_sorted_head_of_all_orders() {
        let data = paper_data();
        let q = paper_query();
        let model = CostModel::new(&q, &data);
        let mut all: Vec<(f64, Vec<u32>)> = [
            [0u32, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ]
        .iter()
        .map(|o| (model.estimate_order(o).total_cost, o.to_vec()))
        .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let sorted: Vec<Vec<u32>> = all.into_iter().map(|(_, o)| o).collect();
        for k in 1..=8 {
            let head = &sorted[..k.min(sorted.len())];
            assert_eq!(model.cheapest_orders_bounded(k, 8, 8), head);
            // The beam's final frontier at full width is exact too.
            assert_eq!(model.cheapest_orders_bounded(k, 64, 0), head);
        }
        assert_eq!(model.cheapest_orders(1)[0], model.best_order());
    }

    #[test]
    fn beam_search_agrees_with_exhaustive_at_full_width() {
        let data = paper_data();
        let q = paper_query();
        let model = CostModel::new(&q, &data);
        let exhaustive = model.best_order_bounded(64, 8);
        // Force beam search with a width large enough to be exact.
        let beam = model.best_order_bounded(64, 0);
        assert_eq!(
            model.estimate_order(&exhaustive).total_cost,
            model.estimate_order(&beam).total_cost
        );
        // A width-1 beam still yields a valid permutation.
        let narrow = model.best_order_bounded(1, 0);
        let mut sorted = narrow.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn worst_order_costs_at_least_best() {
        let data = paper_data();
        let q = paper_query();
        let model = CostModel::new(&q, &data);
        let best = model
            .estimate_order(&model.best_order_bounded(8, 8))
            .total_cost;
        let worst = model.estimate_order(&model.worst_order(8)).total_cost;
        assert!(worst >= best);
        // The greedy worst-first fallback also produces a permutation.
        let fallback = model.worst_order(0);
        let mut sorted = fallback.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn infeasible_signature_zeroes_the_estimate() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(9));
        b.add_edge(vec![0, 1]).unwrap();
        let data = b.build().unwrap();
        let q = paper_query();
        let model = CostModel::new(&q, &data);
        let est = model.estimate_order(&model.best_order_bounded(8, 8));
        assert!(est.steps.iter().all(|s| s.cardinality == 0));
        let explain = Explain::new(&q, &data);
        assert!(explain.infeasible);
    }

    #[test]
    fn explain_renders_deterministically() {
        let data = paper_data();
        let q = paper_query();
        let a = Explain::new(&q, &data);
        let b = Explain::new(&q, &data);
        assert_eq!(a.json(), b.json());
        assert_eq!(a.text(), b.text());
        assert!(a.json().contains("\"strategy\": \"exhaustive\""));
        assert!(a.json().contains("\"chosen\""));
        assert!(a.text().contains("greedy order"));
    }

    #[test]
    fn explain_lists_the_pilot_only_when_it_ran() {
        // The paper's instance costs 29: no pilot, no pilot section.
        let unpiloted = Explain::new(&paper_query(), &paper_data());
        assert!(unpiloted.pilot.is_empty());
        assert!(!unpiloted.json().contains("pilot") && !unpiloted.text().contains("pilot"));

        // An A–B–C path over 400 disjoint A–B–C chains is priced above the
        // gate, so both of its orders are piloted.
        let mut b = HypergraphBuilder::new();
        for i in 0..400 {
            for l in 0..3 {
                b.add_vertex(Label::new(l));
            }
            b.add_edge(vec![3 * i, 3 * i + 1]).unwrap();
            b.add_edge(vec![3 * i + 1, 3 * i + 2]).unwrap();
        }
        let data = b.build().unwrap();
        let mut b = HypergraphBuilder::new();
        b.add_vertices(1, Label::new(0));
        b.add_vertices(1, Label::new(1));
        b.add_vertices(1, Label::new(2));
        b.add_edge(vec![0, 1]).unwrap();
        b.add_edge(vec![1, 2]).unwrap();
        let q = QueryGraph::new(&b.build().unwrap()).unwrap();
        let explain = Explain::new(&q, &data);
        assert_eq!(explain.pilot.len(), 2);
        let chosen: Vec<&PilotRun> = explain
            .pilot
            .iter()
            .filter(|run| run.outcome == crate::pilot::PilotOutcome::Chosen)
            .collect();
        assert_eq!(chosen.len(), 1);
        assert_eq!(chosen[0].order, explain.chosen.order);
        assert_eq!(
            chosen[0].order,
            Planner::plan(&q, &data).unwrap().order().to_vec()
        );
        // 400 scanned rows, each expanding once into one candidate.
        assert_eq!((chosen[0].expansions, chosen[0].candidates), (400.0, 400.0));
        assert!(explain.text().contains("pilot (model cost above 512.0000)"));
        assert!(explain.json().contains("\"outcome\": \"chosen\""));
    }

    #[test]
    fn disconnected_query_still_orders_every_edge() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(4, Label::new(0));
        b.add_edge(vec![0, 1]).unwrap();
        b.add_edge(vec![2, 3]).unwrap();
        let q = QueryGraph::new(&b.build().unwrap()).unwrap();
        let mut d = HypergraphBuilder::new();
        d.add_vertices(4, Label::new(0));
        d.add_edge(vec![0, 1]).unwrap();
        d.add_edge(vec![2, 3]).unwrap();
        let data = d.build().unwrap();
        let model = CostModel::new(&q, &data);
        for order in [model.best_order_bounded(4, 8), model.worst_order(8)] {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1]);
        }
    }
}
