//! Execution planning: matching order and per-step matching structure.
//!
//! [`Planner::plan`] picks the matching order with the statistics-driven
//! cost model of [`crate::cost`] (DESIGN.md §13): bounded enumeration of
//! connected orders scored by estimated per-step candidate counts.
//! [`Planner::plan_greedy`] keeps the paper's one-shot Algorithm 3 rule —
//! smallest cardinality `Card(e, H)` first, then minimal
//! `Card(e, H) / |Vϕ ∩ e|` among connected hyperedges — as the comparison
//! baseline, and [`Planner::plan_with_order`] compiles any caller-chosen
//! valid order (the differential-test hook: the embedding multiset is
//! order-invariant).
//!
//! The resulting [`Plan`] precomputes everything the runtime operators need
//! at every step: the target partition, the step's *profile classes* — the
//! distinct `(label, earlier incident edges)` profiles of the query
//! vertices the new hyperedge shares with the partial query, each with its
//! multiplicity — which anchor candidate generation (Algorithm 4) and are
//! all that validation (Algorithm 5) compares (DESIGN.md §6.5), and the
//! non-adjacent previous positions (Observation V.3).

use hgmatch_hypergraph::{Hypergraph, Label, SignatureId};

use crate::config::{PLAN_BEAM, PLAN_MARGIN};
use crate::cost::CostModel;
use crate::error::{MatchError, Result};
use crate::pilot::PilotRun;
use crate::query::QueryGraph;

/// Most profile classes one step may carry. A class's code is a byte in
/// the expansion state's per-vertex table
/// ([`crate::candidates::ExpansionState`]): 0 is "not in the embedding",
/// `1..=classes` the classes, `classes + 1` "in the embedding, no class".
pub const MAX_PROFILE_CLASSES: usize = 254;

/// Most profile classes a step may carry and still be validated in byte
/// lanes: codes `0..=classes + 1` must name the eight lanes of a `u64`.
pub const LANE_CLASSES: usize = 6;

/// One profile class of a step: a distinct `(label, prev_mask)` profile
/// among the query vertices the step's hyperedge shares with the earlier
/// ones, and how many of them carry it.
///
/// A data vertex of the partial embedding is a *member* of the class when
/// it has the class's label and lies in exactly the matched edges at the
/// positions of `prev_mask`. A valid candidate contains exactly `need`
/// members of every class and no other vertex of the embedding, so
/// generation unions the members' postings per class and intersects across
/// classes (Algorithm 4 with Observations V.2 and V.4 at their tightest),
/// and validation only counts (Algorithm 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anchor {
    /// Lowest position in `prev_mask`: every member is a vertex of the data
    /// edge matched there.
    pub prev_pos: u32,
    /// Label the class's query vertices carry.
    pub label: Label,
    /// `d_q'(u)`, the class's degree in the partial query *before* this
    /// step: the number of positions in `prev_mask`.
    pub required_degree: u32,
    /// Matching-order positions `< step` of the query edges incident to the
    /// class's vertices.
    pub prev_mask: u64,
    /// Query vertices of the step's hyperedge carrying this profile.
    pub need: u32,
}

/// One step of the plan: how to match the query hyperedge at this position.
#[derive(Debug, Clone)]
pub struct Step {
    /// Index of the query hyperedge matched at this step.
    pub query_edge: u32,
    /// Data partition holding candidates (`None` ⇒ the query signature does
    /// not occur in the data and the query has zero embeddings).
    pub partition: Option<SignatureId>,
    /// Arity of the query hyperedge.
    pub arity: u32,
    /// `|V(q')|` after this step (Observation V.5 check).
    pub vertices_after: u32,
    /// The step's profile classes, sorted by `(label, prev_mask)`; at most
    /// [`MAX_PROFILE_CLASSES`]. Empty at step 0, or when the query is
    /// disconnected and this step starts a new component.
    pub anchors: Vec<Anchor>,
    /// The classes' needs as byte lanes of one word — lane `i + 1` holds
    /// `anchors[i].need`, lanes 0 and `classes + 1` hold 0 — when every
    /// class code and every per-code count of a row fits a lane: at most
    /// [`LANE_CLASSES`] classes and an arity below 256. `None` steps are
    /// validated through the counter array (DESIGN.md §6.5).
    pub need_lanes: Option<u64>,
    /// Positions `< step` whose query edges are *not* adjacent to this one;
    /// their matched vertices must not occur in the candidate
    /// (Observation V.3, used to build `V_n_incdt`).
    pub nonadjacent_prev: Vec<u32>,
}

/// A compiled execution plan: matching order plus per-step structure.
#[derive(Debug, Clone)]
pub struct Plan {
    steps: Vec<Step>,
    /// `order[pos]` = query edge index matched at `pos`.
    order: Vec<u32>,
    /// `position[query edge]` = matching-order position.
    position: Vec<u32>,
    num_query_vertices: u32,
    /// Whether some step has no partition (zero results guaranteed).
    infeasible: bool,
    /// Estimated total cost of this order under the model the plan was
    /// compiled with ([`crate::cost::CostModel`]).
    cost: f64,
    /// Per-position estimated candidate counts (partials produced at each
    /// step) under the same model — the baseline the adaptive re-optimizer
    /// compares observed [`crate::StepCounts`] against (DESIGN.md §15).
    est_candidates: Vec<f64>,
}

impl Plan {
    /// The matching order ϕ as query-edge indices.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Position of query edge `e` in the matching order.
    #[inline]
    pub fn position_of(&self, e: u32) -> u32 {
        self.position[e as usize]
    }

    /// All steps, `steps()[0]` being the SCAN step.
    #[inline]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps (= number of query hyperedges).
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Plans are never empty (planning an empty query errors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `|V(q)|`.
    #[inline]
    pub fn num_query_vertices(&self) -> u32 {
        self.num_query_vertices
    }

    /// `true` when some query signature is absent from the data hypergraph,
    /// so the query trivially has zero embeddings.
    #[inline]
    pub fn is_infeasible(&self) -> bool {
        self.infeasible
    }

    /// Estimated execution cost of this plan's order under the cost model
    /// it was compiled against (comparable only between plans for the same
    /// query and data snapshot).
    #[inline]
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Estimated candidates (partials produced) per matching-order position
    /// under the plan's cost model — `est_candidates()[pos]` corresponds to
    /// the observed [`crate::StepCounts::partials`] at `pos`. The adaptive
    /// re-optimizer's trigger compares the two (DESIGN.md §15).
    #[inline]
    pub fn est_candidates(&self) -> &[f64] {
        &self.est_candidates
    }

    /// Reorders an embedding from matching-order positions to query-edge
    /// order: `out[e] = emb[position_of(e)]`.
    pub fn to_query_order(&self, emb_positions: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        self.to_query_order_into(emb_positions, &mut out);
        out
    }

    /// Allocation-free variant of [`Plan::to_query_order`]: writes into
    /// `out` (cleared first), for reuse on the delivery hot path.
    pub fn to_query_order_into(&self, emb_positions: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.resize(emb_positions.len(), 0);
        for (edge, &pos) in self.position.iter().enumerate() {
            out[edge] = emb_positions[pos as usize];
        }
    }
}

#[cfg(test)]
impl Plan {
    /// This plan with every step on the counter kernel, as if each were
    /// past the lanes' bounds.
    pub(crate) fn with_counter_kernel(mut self) -> Self {
        for step in &mut self.steps {
            step.need_lanes = None;
        }
        self
    }
}

/// Computes matching orders and compiles plans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// Compiles the cost-based plan for `query` against `data` (DESIGN.md
    /// §13): the cheapest connected order under the statistics-driven
    /// model of [`crate::cost::CostModel`] (exhaustive with
    /// branch-and-bound for small queries, beam search above the
    /// exhaustive bound), which replaces the greedy Algorithm 3 baseline
    /// only when the model predicts a win beyond the planner's 2×
    /// confidence margin. When the model prices that choice above the
    /// pilot gate, the pilot of [`crate::pilot`] measures it, greedy and
    /// the model's cheapest orders on a sample, and an order measured 2×
    /// cheaper than the model's choice is compiled instead.
    pub fn plan(query: &QueryGraph, data: &Hypergraph) -> Result<Plan> {
        Ok(Self::plan_piloted(query, data, crate::pilot::PILOT_MIN_COST)?.0)
    }

    /// [`Planner::plan`] without the pilot: the model's own choice, priced
    /// by the model. Its cost is what the front door's `--admit-cost`
    /// compares, so shedding a query never pays for its pilot.
    pub fn plan_unpiloted(query: &QueryGraph, data: &Hypergraph) -> Result<Plan> {
        Ok(Self::plan_piloted(query, data, f64::INFINITY)?.0)
    }

    /// [`Planner::plan`] with the pilot gate as an argument, returning the
    /// pilot's runs too (empty when it did not run): the hook `explain`
    /// and the order-invariance tests reach the pilot through.
    #[doc(hidden)]
    pub fn plan_piloted(
        query: &QueryGraph,
        data: &Hypergraph,
        gate: f64,
    ) -> Result<(Plan, Vec<PilotRun>)> {
        let model = CostModel::new(query, data);
        let greedy = model.greedy_order();
        let order = model.choose_order(greedy.clone(), model.best_order(), PLAN_MARGIN);
        let plan = Self::compile_with_model(query, order, &model)?;
        if plan.cost() <= gate || plan.is_infeasible() {
            return Ok((plan, Vec::new()));
        }
        let mut shortlist = vec![plan];
        for order in std::iter::once(greedy).chain(model.cheapest_orders(PLAN_BEAM)) {
            if shortlist.iter().all(|p| p.order() != order) {
                shortlist.push(Self::compile_with_model(query, order, &model)?);
            }
        }
        if shortlist.len() == 1 {
            return Ok((shortlist.swap_remove(0), Vec::new()));
        }
        shortlist[1..].sort_by(|a, b| a.cost().total_cmp(&b.cost()).then(a.order().cmp(b.order())));
        let (chosen, runs) = crate::pilot::pilot(data, &shortlist);
        Ok((shortlist.swap_remove(chosen), runs))
    }

    /// Compiles a plan using the paper's greedy Algorithm 3 order — the
    /// baseline the cost-based planner is compared against (`explain`,
    /// `plan_quality`).
    pub fn plan_greedy(query: &QueryGraph, data: &Hypergraph) -> Result<Plan> {
        let model = CostModel::new(query, data);
        Self::compile_with_model(query, model.greedy_order(), &model)
    }

    /// Compiles a plan with a caller-chosen matching order. The order must
    /// be a permutation of `0..query.num_edges()`; HGMatch works with any
    /// connected order (§V-A).
    pub fn plan_with_order(query: &QueryGraph, data: &Hypergraph, order: Vec<u32>) -> Result<Plan> {
        Self::assert_permutation(query, &order);
        Self::compile_with_model(query, order, &CostModel::new(query, data))
    }

    /// Like [`Planner::plan_with_order`], but compiles against a
    /// caller-supplied cost model instead of fresh statistics. The adaptive
    /// re-optimizer uses this to stamp a re-planned suffix with estimates
    /// from the observation-corrected model (so the new plan's own
    /// `est_candidates` reflect what the runtime has already measured and
    /// the trigger does not immediately re-fire), and the `plan_adaptive`
    /// bench uses it to simulate planning from deliberately stale
    /// statistics.
    ///
    /// # Panics
    /// When `model` was built on another snapshot than `data`: the plan
    /// takes its partition ids from the model.
    pub fn plan_with_order_costed(
        query: &QueryGraph,
        data: &Hypergraph,
        order: Vec<u32>,
        model: &CostModel<'_>,
    ) -> Result<Plan> {
        assert!(
            model.is_built_on(data),
            "the cost model was built on another snapshot"
        );
        Self::assert_permutation(query, &order);
        Self::compile_with_model(query, order, model)
    }

    fn assert_permutation(query: &QueryGraph, order: &[u32]) {
        assert_eq!(
            order.len(),
            query.num_edges(),
            "order must cover all query edges"
        );
        let mut seen = vec![false; order.len()];
        for &e in order {
            assert!(
                !std::mem::replace(&mut seen[e as usize], true),
                "order must be a permutation"
            );
        }
    }

    /// Algorithm 3: greedy cardinality-over-connectivity order.
    pub fn greedy_order(query: &QueryGraph, data: &Hypergraph) -> Vec<u32> {
        CostModel::new(query, data).greedy_order()
    }

    /// Refuses a query some order of which needs more than
    /// [`MAX_PROFILE_CLASSES`] classes at one step. A hyperedge matched last
    /// has one class per distinct `(label, incidence set)` among its
    /// vertices of query degree ≥ 2, and no order gives it more (the earlier
    /// positions are a function of the incidence set), so the verdict does
    /// not depend on the order: a query that compiles once compiles under
    /// any re-planned order too.
    fn check_profile_classes(query: &QueryGraph) -> Result<()> {
        for e in 0..query.num_edges() {
            let vs = query.edge(e);
            if vs.len() <= MAX_PROFILE_CLASSES {
                continue;
            }
            let mut profiles: Vec<(Label, u64)> = vs
                .iter()
                .map(|&u| (query.label(u), query.incident_edges(u)))
                .filter(|&(_, incident)| incident != 1 << e)
                .collect();
            profiles.sort_unstable();
            profiles.dedup();
            if profiles.len() > MAX_PROFILE_CLASSES {
                return Err(MatchError::TooManyProfileClasses {
                    query_edge: e as u32,
                    classes: profiles.len(),
                    max: MAX_PROFILE_CLASSES,
                });
            }
        }
        Ok(())
    }

    /// Compiles `order`, taking each step's partition and the plan's
    /// estimates from `model`.
    fn compile_with_model(
        query: &QueryGraph,
        order: Vec<u32>,
        model: &CostModel<'_>,
    ) -> Result<Plan> {
        Self::check_profile_classes(query)?;
        let mut est_candidates = Vec::with_capacity(order.len());
        let cost = model.walk(&order, |step| est_candidates.push(step.partials_out));
        let ne = order.len();
        let mut position = vec![0u32; ne];
        for (pos, &e) in order.iter().enumerate() {
            position[e as usize] = pos as u32;
        }

        let mut steps = Vec::with_capacity(ne);
        let mut infeasible = false;
        // Mask (over *query-edge indices*) of edges matched before each step
        // and the running vertex count.
        let mut matched_mask = 0u64;
        let mut vertices_so_far = 0u32;
        let mut shared: Vec<(Label, u64)> = Vec::new();

        for &eq in &order {
            let eq_us = eq as usize;
            let partition = model.partition(eq);
            if partition.is_none() {
                infeasible = true;
            }

            // Profile classes: the distinct (label, earlier incident
            // positions) profiles of eq's vertices that some earlier edge
            // also contains, with multiplicities.
            shared.clear();
            for &u in query.edge(eq_us) {
                let mut prev_mask = 0u64;
                let mut inc = query.incident_edges(u) & matched_mask;
                while inc != 0 {
                    prev_mask |= 1 << position[inc.trailing_zeros() as usize];
                    inc &= inc - 1;
                }
                if prev_mask != 0 {
                    shared.push((query.label(u), prev_mask));
                }
            }
            shared.sort_unstable();
            let mut anchors: Vec<Anchor> = Vec::new();
            for &(label, prev_mask) in &shared {
                match anchors.last_mut() {
                    Some(a) if (a.label, a.prev_mask) == (label, prev_mask) => a.need += 1,
                    _ => anchors.push(Anchor {
                        prev_pos: prev_mask.trailing_zeros(),
                        label,
                        required_degree: prev_mask.count_ones(),
                        prev_mask,
                        need: 1,
                    }),
                }
            }
            debug_assert!(anchors.len() <= MAX_PROFILE_CLASSES);
            let arity = query.edge(eq_us).len() as u32;
            // No lane can carry: a count is at most the arity.
            let need_lanes = (anchors.len() <= LANE_CLASSES && arity < 256).then(|| {
                anchors.iter().zip(1..).fold(0u64, |word, (class, lane)| {
                    word | u64::from(class.need) << (8 * lane)
                })
            });

            // Non-adjacent previously matched positions.
            let nonadj = matched_mask & !query.adjacent_edges(eq_us);
            let mut nonadjacent_prev: Vec<u32> = Vec::new();
            let mut nm = nonadj;
            while nm != 0 {
                let e = nm.trailing_zeros();
                nm &= nm - 1;
                nonadjacent_prev.push(position[e as usize]);
            }
            nonadjacent_prev.sort_unstable();

            // A vertex of eq in no earlier edge is new to the partial query.
            vertices_so_far += query
                .edge(eq_us)
                .iter()
                .filter(|&&v| query.incident_edges(v) & matched_mask == 0)
                .count() as u32;

            steps.push(Step {
                query_edge: eq,
                partition,
                arity,
                vertices_after: vertices_so_far,
                anchors,
                need_lanes,
                nonadjacent_prev,
            });
            matched_mask |= 1 << eq;
        }

        Ok(Plan {
            steps,
            order,
            position,
            num_query_vertices: query.num_vertices() as u32,
            infeasible,
            cost,
            est_candidates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        b.add_edge(vec![2, 4]).unwrap(); // q0 {A,B}
        b.add_edge(vec![0, 1, 2]).unwrap(); // q1 {A,A,C}
        b.add_edge(vec![0, 1, 3, 4]).unwrap(); // q2 {A,A,B,C}
        QueryGraph::new(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn order_is_permutation_and_connected() {
        let data = paper_data();
        for plan in [
            Planner::plan(&paper_query(), &data).unwrap(),
            Planner::plan_greedy(&paper_query(), &data).unwrap(),
        ] {
            let mut order = plan.order().to_vec();
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2]);
            assert!(!plan.is_infeasible());
            assert!(plan.cost().is_finite() && plan.cost() > 0.0);
            // Each subsequent edge must connect (anchors non-empty).
            for step in &plan.steps()[1..] {
                assert!(!step.anchors.is_empty(), "connected order expected");
            }
        }
        // All cardinalities are 2, so greedy starts at edge 0 (tie-break).
        let greedy = Planner::plan_greedy(&paper_query(), &data).unwrap();
        assert_eq!(greedy.order()[0], 0);
    }

    #[test]
    fn cardinality_drives_start_edge() {
        // Data where signature {A,A,C} is rarer than {A,B}.
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1, 2, 0, 1, 1] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 4]).unwrap(); // {A,B}
        b.add_edge(vec![2, 7]).unwrap(); // {A,B}
        b.add_edge(vec![2, 8]).unwrap(); // {A,B}
        b.add_edge(vec![0, 1, 2]).unwrap(); // {A,A,C}
        b.add_edge(vec![0, 1, 3, 4]).unwrap(); // {A,A,B,C}
        let data = b.build().unwrap();
        // q1 has signature {A,A,C} with cardinality 1 → greedy starts there.
        let greedy = Planner::plan_greedy(&paper_query(), &data).unwrap();
        assert_eq!(greedy.order()[0], 1);
        // The cost-based order is never estimated worse than greedy.
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        assert!(plan.cost() <= greedy.cost() + 1e-9);
    }

    #[test]
    fn vertices_after_accumulates() {
        let data = paper_data();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        let last = plan.steps().last().unwrap();
        assert_eq!(last.vertices_after, 5);
        assert_eq!(plan.num_query_vertices(), 5);
        // Monotone non-decreasing.
        let mut prev = 0;
        for s in plan.steps() {
            assert!(s.vertices_after >= prev);
            prev = s.vertices_after;
        }
    }

    #[test]
    fn infeasible_when_signature_missing() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(9)); // labels unseen in query
        b.add_edge(vec![0, 1]).unwrap();
        let data = b.build().unwrap();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        assert!(plan.is_infeasible());
        assert!(plan.steps().iter().any(|s| s.partition.is_none()));
    }

    #[test]
    fn classes_describe_the_shared_vertices() {
        let data = paper_data();
        let q = paper_query();
        // ϕ = (q0 {u2,u4}, q1 {u0,u1,u2}, q2 {u0,u1,u3,u4}).
        let plan = Planner::plan_with_order(&q, &data, vec![0, 1, 2]).unwrap();
        assert!(plan.steps()[0].anchors.is_empty());
        // q1 shares u2 (A) with q0.
        assert_eq!(
            plan.steps()[1].anchors,
            vec![Anchor {
                prev_pos: 0,
                label: Label::new(0),
                required_degree: 1,
                prev_mask: 0b01,
                need: 1,
            }]
        );
        // q2 shares u4 (B) with q0, and u0 (A) and u1 (C) with q1; u2 is in
        // q0 and q1 but not in q2, so no class has two earlier positions.
        let classes: Vec<(u32, u64, u32)> = plan.steps()[2]
            .anchors
            .iter()
            .map(|a| (a.label.raw(), a.prev_mask, a.need))
            .collect();
        assert_eq!(classes, vec![(0, 0b10, 1), (1, 0b01, 1), (2, 0b10, 1)]);
        for step in plan.steps() {
            for a in &step.anchors {
                assert_eq!(a.prev_pos, a.prev_mask.trailing_zeros());
                assert_eq!(a.required_degree, a.prev_mask.count_ones());
            }
            let shared: u32 = step.anchors.iter().map(|a| a.need).sum();
            assert!(shared <= step.arity);
        }
    }

    #[test]
    fn equal_profiles_fold_into_one_class_with_multiplicity() {
        // Two A-labelled vertices shared with the same earlier edge are one
        // class needed twice; a vertex in two earlier edges is its own
        // class, anchored at the lower position.
        let mut b = HypergraphBuilder::new();
        b.add_vertices(5, Label::new(0));
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![2, 3]).unwrap();
        b.add_edge(vec![0, 1, 2, 4]).unwrap();
        let graph = b.build().unwrap();
        let q = QueryGraph::new(&graph).unwrap();
        let plan = Planner::plan_with_order(&q, &graph, vec![0, 1, 2]).unwrap();
        let classes: Vec<(u32, u64, u32, u32)> = plan.steps()[2]
            .anchors
            .iter()
            .map(|a| (a.prev_pos, a.prev_mask, a.required_degree, a.need))
            .collect();
        assert_eq!(classes, vec![(0, 0b01, 1, 2), (0, 0b11, 2, 1)]);
    }

    /// A two-edge query whose second edge shares `shared` vertices of
    /// pairwise distinct labels with the first.
    fn wide_query(shared: u32) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for l in 0..=shared {
            b.add_vertex(Label::new(l));
        }
        b.add_edge((0..shared).collect()).unwrap();
        b.add_edge((0..=shared).collect()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn class_codes_never_wrap() {
        // 254 classes fill the byte codes exactly (0 absent, 255 no class).
        let graph = wide_query(MAX_PROFILE_CLASSES as u32);
        let q = QueryGraph::new(&graph).unwrap();
        let plan = Planner::plan_with_order(&q, &graph, vec![0, 1]).unwrap();
        assert_eq!(plan.steps()[1].anchors.len(), MAX_PROFILE_CLASSES);

        // One more is refused under every entry point and order, not
        // wrapped onto code 0.
        let graph = wide_query(MAX_PROFILE_CLASSES as u32 + 1);
        let q = QueryGraph::new(&graph).unwrap();
        let refused = MatchError::TooManyProfileClasses {
            query_edge: 0,
            classes: MAX_PROFILE_CLASSES + 1,
            max: MAX_PROFILE_CLASSES,
        };
        assert_eq!(Planner::plan(&q, &graph).unwrap_err(), refused);
        assert_eq!(Planner::plan_greedy(&q, &graph).unwrap_err(), refused);
        for order in [vec![0, 1], vec![1, 0]] {
            assert_eq!(
                Planner::plan_with_order(&q, &graph, order).unwrap_err(),
                refused
            );
        }
    }

    #[test]
    fn to_query_order_inverts_positions() {
        let data = paper_data();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        // Pretend embedding at positions = [10, 20, 30].
        let emb = plan.to_query_order(&[10, 20, 30]);
        for e in 0..3u32 {
            assert_eq!(emb[e as usize], [10, 20, 30][plan.position_of(e) as usize]);
        }
    }

    #[test]
    fn explicit_order_respected() {
        let data = paper_data();
        let q = paper_query();
        let plan = Planner::plan_with_order(&q, &data, vec![2, 0, 1]).unwrap();
        assert_eq!(plan.order(), &[2, 0, 1]);
        assert_eq!(plan.steps()[0].query_edge, 2);
    }

    #[test]
    fn est_candidates_match_model_estimate() {
        let data = paper_data();
        let q = paper_query();
        let plan = Planner::plan(&q, &data).unwrap();
        assert_eq!(plan.est_candidates().len(), plan.len());
        let model = CostModel::new(&q, &data);
        let est = model.estimate_order(plan.order());
        for (pos, step) in est.steps.iter().enumerate() {
            assert!((plan.est_candidates()[pos] - step.partials_out).abs() < 1e-9);
        }
        // A doctored model changes the stamped estimates but not the
        // compiled structure.
        let mut scaled = CostModel::new(&q, &data);
        scaled.scale_edge(plan.order()[0], 0.125);
        let costed =
            Planner::plan_with_order_costed(&q, &data, plan.order().to_vec(), &scaled).unwrap();
        assert_eq!(costed.order(), plan.order());
        assert!(costed.est_candidates()[0] < plan.est_candidates()[0]);
    }

    #[test]
    #[should_panic(expected = "another snapshot")]
    fn a_cost_model_from_another_snapshot_is_refused() {
        let data = paper_data();
        let q = paper_query();
        let model = CostModel::new(&q, &data);
        // Equal content, another snapshot: its partition ids need not agree.
        let rebuilt = paper_data();
        assert!(rebuilt == data && rebuilt.uid() != data.uid());
        let _ = Planner::plan_with_order_costed(&q, &rebuilt, vec![0, 1, 2], &model);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn non_permutation_order_panics() {
        let data = paper_data();
        let _ = Planner::plan_with_order(&paper_query(), &data, vec![0, 0, 1]);
    }

    #[test]
    fn disconnected_query_plans_without_anchors() {
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

        let plan = Planner::plan(&q, &data).unwrap();
        assert_eq!(plan.len(), 2);
        // Second step starts a new component: no anchors, one non-adjacent
        // previous position.
        assert!(plan.steps()[1].anchors.is_empty());
        assert_eq!(plan.steps()[1].nonadjacent_prev, vec![0]);
    }
}
